"""Brute-force enumerators, definitional predicates, and the fixture corpus.

Everything here evaluates definitions literally over enumerated lattices:
subspaces in reduced echelon form, filtered to two-sided ideals, right
ideals, or submodules.  The filters and the ideal closure apply every
basis multiplication on both sides and every action matrix, not the
generating set the fast checks run on, so the two stay independent.  The
fast criteria elsewhere in the package are required (by the acceptance
suite) to agree with these on every F_2 corpus instance within budget.
Budgets are explicit and overrunning one raises ``BudgetExceeded``;
nothing is silently truncated.

Each check builds each module-level object once, and only when it is
needed (docs/derivations.md):

* a lattice candidate is tested on its echelon rows, and only a member
  becomes a ``Subspace``; 0 and the whole space are members untested;
* over F_2, each operator's images of all packed vectors are read from
  one table per call, so no tuple is built per candidate or per vector;
* primeness spins the products of pairs of ideals outside I only;
* a member's annihilator is read from the ambient action matrices, on
  packed rows over F_2, without building the module on it;
* a prime object or submodule is checked on its minimal nonzero members;
* ``brute_singular_subspace`` takes one vector per line;
* modules are compared only when simple, by a non-empty ``hom_basis``
  (Schur's lemma): ``brute_is_monoform`` builds the module on each minimal
  member once, ``brute_composition_factors`` names each simple layer so,
  and ``brute_is_compressible`` reads "only 0 and m" off the lattice;
* ``brute_is_monoform``, ``brute_is_prime_object`` and
  ``brute_singular_subspace`` take the caller's lattice, which
  ``verify --exhaustive`` enumerates once.

``tests/helpers.py`` keeps the plain forms as references.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .algebras import (BoundQuiver, FiniteDimAlgebra, bound_quiver_algebra,
                       companion_algebra, cyclic_group_algebra,
                       matrix_algebra, product_algebra, subspace_product,
                       upper_triangular_algebra)
from .errors import BudgetExceeded, CapabilityError, ValidationError
from .ideals import TwoSidedIdeal
from .linalg import (F2, F3, Matrix, RowReducer, Subspace, _clear,
                     _clear_bits, _meets_bits, _tagged_echelon, apply_vec,
                     spin, unit_vec)
from .modules import (RightModule, hom_basis, injective_envelope,
                      simple_modules)


@dataclass
class Budget:
    """Explicit enumeration limits; exceeding one fails loudly."""

    max_ambient_dim: int = 8
    max_field_size: int = 5
    max_count: int = 300000

    @classmethod
    def from_env(cls):
        """The defaults, with ``max_count`` from ``SPECTRA_BUDGET`` if set.

        Read when an enumeration needs it, so a bad value stops only the
        commands that enumerate, each with a ``CapabilityError``.
        """
        b = cls()
        raw = os.environ.get("SPECTRA_BUDGET", "").strip()
        if raw:
            if not raw.isdecimal():
                raise CapabilityError("SPECTRA_BUDGET must be a non-negative "
                                      f"integer, got {raw!r}")
            b.max_count = int(raw)
        return b


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_subspaces(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def _budgeted(what, field, dim: int, count, budget: Budget = None) -> int:
    """The size count(dim, p) of an enumeration over field^dim, refused
    with ``BudgetExceeded`` where it overruns the budget."""
    budget = budget or Budget.from_env()
    if not field.is_finite():
        raise ValidationError(f"{what} needs a finite field")
    if dim > budget.max_ambient_dim:
        raise BudgetExceeded(f"{what} dim", dim, budget.max_ambient_dim)
    if field.p > budget.max_field_size:
        raise BudgetExceeded(f"{what} field", field.p, budget.max_field_size)
    total = count(dim, field.p)
    if total > budget.max_count:
        raise BudgetExceeded(f"{what} count", total, budget.max_count)
    return total


def enumerate_subspaces(field, dim: int, budget: Budget = None):
    """Every subspace of k^dim in canonical form; complete and duplicate-free."""
    return enumerate_stable_subspaces(field, dim, (), budget)


def _echelon_rows(field, dim: int, pivots) -> list:
    """For each pivot p, every row with 1 at p, 0 before p and at the other
    pivots, and any scalar of ``field.elements()`` at each remaining column,
    in ``itertools.product`` order; packed over F_2."""
    out = []
    for p in pivots:
        free = [j for j in range(p + 1, dim) if j not in pivots]
        if field.packed:
            rows = [1 << p]
            for j in free:
                rows = [x | b for x in rows for b in (0, 1 << j)]
        else:
            rows = [unit_vec(field, dim, p)]
            for j in free:
                rows = [v[:j] + (c,) + v[j + 1:] for v in rows
                        for c in field.elements()]
        out.append(rows)
    return out


def _image_tables(ops) -> list:
    """For each F_2 matrix of ops, the list of x op over every packed row x
    of its domain, by linearity: the table of the first k rows, extended
    by row k added to each entry, is the table of the first k + 1."""
    tables = []
    for op in ops:
        t = [0]
        for row in op._bits or op.bits():
            t += [y ^ row for y in t]
        tables.append(t)
    return tables


def enumerate_stable_subspaces(field, dim: int, ops, budget: Budget = None):
    """Every subspace of k^dim stable under each matrix of ops, in canonical
    form, in the order of the whole subspace lattice.

    Each reduced echelon candidate is tested on its rows: v m is reduced
    by the candidate's rows, which are fully reduced, for each row v and
    each m; over F_2, v m is read from m's image table.  0 and k^dim are
    stable under every matrix, so they are taken untested.  Only a
    candidate that passes is built as a ``Subspace``.  Every candidate is
    counted against ``count_subspaces``.
    """
    total = _budgeted("subspace enumeration", field, dim, count_subspaces,
                      budget)
    if field.packed:
        tables = _image_tables(ops)
    out = []
    seen = 0
    for r in range(dim + 1):
        untested = r in (0, dim)
        for pivots in itertools.combinations(range(dim), r):
            pbits = [1 << p for p in pivots]
            for rows in itertools.product(*_echelon_rows(field, dim, pivots)):
                seen += 1
                if field.packed:
                    if untested or not any(_clear_bits(t[v], rows, pbits)
                                           for v in rows for t in tables):
                        out.append(Subspace(field, dim, Matrix._from_bits(
                            field, rows, dim), pivots))
                elif untested or not any(
                        any(_clear(field, apply_vec(v, op), pivots, rows))
                        for v in rows for op in ops):
                    out.append(Subspace(field, dim,
                                        Matrix.trusted(field, rows, dim), pivots))
    if seen != total:
        raise ValidationError("subspace enumeration does not match the count")
    return out


def _budgeted_vectors(field, dim: int, budget: Budget = None):
    """The budget check of an enumeration of the vectors of field^dim."""
    _budgeted("vector enumeration", field, dim, lambda d, q: q ** d, budget)


def enumerate_vectors(field, dim: int, budget: Budget = None):
    """Every vector of k^dim, within the budget's dimension, field and count."""
    _budgeted_vectors(field, dim, budget)
    return [tuple(field.scalar(c) for c in combo)
            for combo in itertools.product(field.elements(), repeat=dim)]


def module_vectors(m: RightModule, budget: Budget = None):
    return enumerate_vectors(m.algebra.field, m.dim, budget)


def _all_multiplications(a: FiniteDimAlgebra):
    """Right and left multiplication by every basis element."""
    return a.right_mult_matrices() + a.left_mult_matrices()


def enumerate_two_sided_ideals(a: FiniteDimAlgebra, budget: Budget = None):
    return enumerate_stable_subspaces(a.field, a.dim, _all_multiplications(a),
                                      budget)


def enumerate_right_ideals(a: FiniteDimAlgebra, budget: Budget = None):
    return enumerate_submodules(RightModule.regular(a), budget)


def enumerate_submodules(m: RightModule, budget: Budget = None):
    return enumerate_stable_subspaces(m.algebra.field, m.dim, m.action, budget)


# -- definitional predicates ------------------------------------------------------

def brute_is_prime(i: TwoSidedIdeal, lattice=None, budget: Budget = None) -> bool:
    """For all ideals A, B: AB in I implies A in I or B in I.

    Read as its contrapositive: no A and B outside I have AB in I, so the
    product is spun only for pairs outside I (docs/derivations.md,
    "Primeness from pairs outside I").
    """
    a = i.algebra
    if i.is_whole():
        raise ValidationError("primeness is about proper ideals")
    lattice = lattice if lattice is not None \
        else enumerate_two_sided_ideals(a, budget)
    ops = _all_multiplications(a)
    outside = [s for s in lattice if not i.space.contains(s)]
    for s in outside:
        for t in outside:
            prod = spin(a.field, a.dim, [a.mul(u, v)
                                         for u in s.basis_rows()
                                         for v in t.basis_rows()], ops)
            if i.space.contains(prod):
                return False
    return True


def brute_largest_nilpotent_ideal(a: FiniteDimAlgebra,
                                  budget: Budget = None) -> Subspace:
    """The largest ideal s with s^(d+1) = 0, d = dim a, each power formed
    one factor at a time: a nilpotent s has s^(d+1) = 0 (docs/derivations.md,
    "Nakayama generators").  The sum of two nilpotent ideals is nilpotent,
    so the largest is unique, and the zero ideal is always there."""
    for s in sorted(enumerate_two_sided_ideals(a, budget), key=lambda s: -s.dim):
        power = s
        for _ in range(a.dim):
            power = subspace_product(a, power, s)
        if power.dim == 0:
            return s


def brute_prime_radical_of_zero(a: FiniteDimAlgebra,
                                budget: Budget = None) -> Subspace:
    lattice = enumerate_two_sided_ideals(a, budget)
    acc = Subspace.full(a.field, a.dim)
    found = False
    for s in lattice:
        if s.dim == a.dim:
            continue
        if brute_is_prime(TwoSidedIdeal(a, s, validate=False), lattice):
            acc = acc.intersect(s)
            found = True
    if not found:
        raise ValidationError("no prime ideals found by enumeration")
    return acc


def brute_is_essential(space: Subspace, m: RightModule,
                       submodules=None, budget: Budget = None) -> bool:
    """space meets every nonzero submodule of m nontrivially."""
    submodules = submodules if submodules is not None \
        else enumerate_submodules(m, budget)
    for s in submodules:
        if s.dim > 0 and not space.meets(s):
            return False
    return True


def brute_singular_subspace(m: RightModule, lattice=None,
                            budget: Budget = None) -> Subspace:
    """{v : the right annihilator of v is an essential right ideal}.

    ``lattice``, if given, is the right ideal lattice of m's algebra.
    Ann(c v) = Ann(v) for a scalar c != 0, and the answer is a subspace,
    so one vector per line is tested: over F_2 every vector, packed, its
    rows v b_i read from the action's image tables; over F_p, p > 2, the
    vectors whose first nonzero entry is 1 (docs/derivations.md,
    "Annihilators on packed rows").
    """
    a = m.algebra
    f = a.field
    lattice = lattice if lattice is not None else enumerate_right_ideals(a, budget)
    right_ideals = [r for r in lattice if r.dim > 0]
    if not f.packed:
        vecs = []
        for v in module_vectors(m, budget):
            if next(filter(None, v), None) != f.one:
                continue                # 0, or not the first vector of its line
            rows = tuple(apply_vec(v, op) for op in m.action)     # v b_i
            ann = Subspace.from_vectors(
                f, a.dim, Matrix.trusted(f, rows, m.dim).left_kernel().rows)
            if all(ann.meets(r) for r in right_ideals):
                vecs.append(v)
        return Subspace.from_vectors(f, m.dim, vecs)
    _budgeted_vectors(f, m.dim, budget)
    w = m.dim
    tables = _image_tables(m.action)
    ideals = [r.mat.bits() for r in right_ideals]
    red = RowReducer(f, w)
    for v in range(1 << w):
        ann = RowReducer(f, a.dim)            # Ann(v)
        for y in _tagged_echelon([t[v] for t in tables], w)[2]:
            ann._insert(y >> w)
        if all(_meets_bits(ann._rows, ann._pbits, r) for r in ideals):
            red._insert(v)
    return red.subspace()


def brute_is_monoform(m: RightModule, lattice=None, budget: Budget = None) -> bool:
    """No nonzero submodule of m is isomorphic to a submodule of any m/L.

    Such a pair exists iff a pair of simple submodules does, and simples
    are isomorphic iff Hom between them is nonzero (docs/derivations.md,
    "Simples are isomorphic iff Hom is nonzero").  The simple submodules
    of m are its lattice's minimal nonzero members, and those of m/L the
    images of the members minimal above L, so one lattice serves every
    quotient, and the module on each minimal member is built once.
    """
    if m.dim == 0:
        raise ValidationError("monoform is about nonzero modules")
    f = m.algebra.field
    subs = lattice if lattice is not None else enumerate_submodules(m, budget)
    simples = [m.submodule(s)[0] for s in _minimal_members(subs)]
    for l_space in subs:
        if l_space.dim == 0 or l_space.dim == m.dim:
            continue
        quot, proj = m.quotient(l_space)
        for t in _minimal_members(u for u in subs if u.dim > l_space.dim
                                  and u.contains(l_space)):
            y = quot.submodule(Subspace.from_vectors(
                f, quot.dim, map(proj, t.basis_rows())))[0]
            if any(x.dim == y.dim and hom_basis(x, y) for x in simples):
                return False
    return True


def brute_is_compressible(m: RightModule, budget: Budget = None) -> bool:
    """Every nonzero submodule contains a copy of m.

    A copy of m needs dim m dimensions, so the only nonzero submodule
    that can hold one is m itself, which does: m is compressible iff its
    lattice holds only 0 and m (docs/derivations.md, "Compressible,
    finite length").
    """
    if m.dim == 0:
        raise ValidationError("compressible is about nonzero modules")
    return all(s.dim in (0, m.dim) for s in enumerate_submodules(m, budget))


def _submodule_annihilators(m: RightModule, members):
    """(s, Ann(s)) for each nonzero s of members, members of m's lattice.

    The submodules of the submodule on s are exactly the members t of m's
    lattice with t in s (docs/derivations.md).  Ann(s) is read in m: it is
    the left kernel of the matrix whose row i is v rho(b_i) for each basis
    row v of s, side by side (docs/derivations.md, "Annihilators of
    lattice members from the ambient action").  Over F_2 row i is packed,
    sum_k t_i[v_k] << (k dim m) from the image table t_i of rho(b_i), and
    the kernel is taken on ints ("Annihilators on packed rows").  Lazy, so
    a caller that has its answer stops computing annihilators.
    """
    f = m.algebra.field
    if f.packed:
        tables = _image_tables(m.action)
    for s in members:
        if s.dim == 0:
            continue
        if f.packed:
            w = s.dim * m.dim
            rows = [sum(t[v] << (k * m.dim) for k, v in enumerate(s.mat.bits()))
                    for t in tables]
            red = RowReducer(f, m.algebra.dim)
            for y in _tagged_echelon(rows, w)[2]:
                red._insert(y >> w)
            yield s, red.subspace()
        else:
            rows = tuple(tuple(itertools.chain.from_iterable(
                             apply_vec(v, op) for v in s.basis_rows()))
                         for op in m.action)
            kernel = Matrix.trusted(f, rows, s.dim * m.dim).left_kernel()
            yield s, Subspace.from_vectors(f, m.algebra.dim, kernel.rows)


def _minimal_members(lattice):
    """The minimal nonzero members of a lattice listed by dimension: the
    nonzero members that contain no minimal member listed before them."""
    found = []
    for s in lattice:
        if s.dim and not any(s.contains(u) for u in found):
            found.append(s)
            yield s


def brute_is_prime_object(m: RightModule, lattice=None,
                          budget: Budget = None) -> bool:
    """All nonzero submodules share the annihilator of m.

    Ann(m) is read off the lattice's top member, m itself.  A submodule t
    has Ann(t) >= Ann(t') for t <= t', and every nonzero member contains
    a minimal one, so only the minimal nonzero members are compared
    (docs/derivations.md, "Prime objects from minimal members").
    """
    if m.dim == 0:
        raise ValidationError("prime is about nonzero modules")
    lattice = lattice if lattice is not None else enumerate_submodules(m, budget)
    anns = _submodule_annihilators(
        m, itertools.chain(lattice[-1:], _minimal_members(lattice)))
    _m, ann = next(anns)
    return all(ann_t == ann for _t, ann_t in anns)


def brute_mass(m: RightModule, backend, budget: Budget = None):
    """Annihilators of prime submodules, as molecules of the backend.

    The module on s is prime when each minimal nonzero member inside s
    has the annihilator of s.
    """
    lattice = enumerate_submodules(m, budget)
    anns = dict(_submodule_annihilators(m, lattice))
    minimal = [(t, anns[t]) for t in _minimal_members(lattice)]
    prime = {ann for s, ann in anns.items()
             if all(ann_t == ann or not s.contains(t) for t, ann_t in minimal)}
    out = {("prime", w.block_index) for w in backend.primes()
           if w.ideal.space in prime}
    return {mol for mol in backend.molecules() if mol.key in out}


def brute_composition_factors(m: RightModule, budget: Budget = None):
    """{simple label: multiplicity} along one maximal chain of m's lattice.

    Each step goes from c to a smallest member t of the lattice above it,
    so t/c is simple; the layer is named by the simple class it has a
    nonzero map to, which for simples is isomorphism.
    """
    f = m.algebra.field
    subs = enumerate_submodules(m, budget)
    simples = [(s.label, s.require_module()) for s in simple_modules(m.algebra)]
    counts = {}
    c = Subspace.zero(f, m.dim)
    while c.dim < m.dim:
        t = min((t for t in subs if t.dim > c.dim and t.contains(c)),
                key=lambda t: t.dim)
        top, _ = m.submodule(t)
        layer, _ = top.quotient(Subspace.from_vectors(
            f, t.dim, [t.coords_of(v) for v in c.basis_rows()]))
        names = [lbl for lbl, s in simples if hom_basis(layer, s)]
        if len(names) != 1:
            raise ValidationError(f"a layer matches {len(names)} simple classes")
        counts[names[0]] = counts.get(names[0], 0) + 1
        c = t
    return counts


# -- corpus -----------------------------------------------------------------------

def _quiver_truncations():
    """Bound quiver shapes on <= 2 vertices, <= 2 arrows, radical cube zero."""
    shapes = []

    def monomials(arrows, length):
        """All composable arrow paths of exactly this length."""
        out = []
        for combo in itertools.product(range(len(arrows)), repeat=length):
            ok = True
            for u, v in zip(combo, combo[1:]):
                if arrows[u][2] != arrows[v][1]:
                    ok = False
                    break
            if ok:
                out.append(combo)
        return out

    def truncated(vertices, arrows, power):
        rels = tuple(((1, p),) for p in monomials(arrows, power))
        return BoundQuiver(vertices, tuple(arrows), rels,
                           nilpotency_bound=power + 1)

    one_loop = [("x", 0, 0)]
    two_loops = [("x", 0, 0), ("y", 0, 0)]
    a12 = [("a", 0, 1)]
    kron = [("a", 0, 1), ("b", 0, 1)]
    cycle = [("a", 0, 1), ("b", 1, 0)]
    loop_then_arrow = [("x", 0, 0), ("a", 0, 1)]
    arrow_then_loop = [("a", 0, 1), ("y", 1, 1)]

    shapes.append(("loop.J2", truncated(1, one_loop, 2)))
    shapes.append(("loop.J3", truncated(1, one_loop, 3)))
    shapes.append(("two_loops.J2", truncated(1, two_loops, 2)))
    shapes.append(("a12", BoundQuiver(2, tuple(a12), (), 4)))
    shapes.append(("kronecker", BoundQuiver(2, tuple(kron), (), 4)))
    shapes.append(("cycle.J2", truncated(2, cycle, 2)))
    shapes.append(("cycle.J3", truncated(2, cycle, 3)))
    shapes.append(("loop_arrow.J2", truncated(2, loop_then_arrow, 2)))
    shapes.append(("arrow_loop.J2", truncated(2, arrow_then_loop, 2)))
    return shapes


def corpus():
    """Deterministic list of (name, algebra) fixtures.

    Contains every named fixture the worked examples use plus systematic
    families: truncated path algebras on small quivers, triangular and
    full matrix algebras, truncated polynomial rings, separable quotients,
    products of fields, and small cyclic group algebras over F_2 and F_3.
    """
    out = []

    def add(name, alg):
        alg.name = name
        out.append((name, alg))

    for field, tag in ((F2, "f2"), (F3, "f3")):
        add(f"field_{tag}", companion_algebra(field, [field.one, field.one],
                                              name=f"field_{tag}"))
        add(f"t2_{tag}", upper_triangular_algebra(2, field))
        add(f"m2_{tag}", matrix_algebra(2, field))
        add(f"c2_{tag}", cyclic_group_algebra(field, 2))
        add(f"c3_{tag}", cyclic_group_algebra(field, 3))
        add(f"trunc2_{tag}", companion_algebra(field, _xpow(field, 2)))
        add(f"trunc3_{tag}", companion_algebra(field, _xpow(field, 3)))
        for qname, q in _quiver_truncations():
            add(f"quiver.{qname}_{tag}", bound_quiver_algebra(field, q))

    add("t3_f2", upper_triangular_algebra(3, F2))
    add("trunc4_f2", companion_algebra(F2, _xpow(F2, 4)))
    add("f2xf2", product_algebra(companion_algebra(F2, [1, 1]),
                                 companion_algebra(F2, [1, 1])))
    add("f2xf2xf2", product_algebra(
        product_algebra(companion_algebra(F2, [1, 1]),
                        companion_algebra(F2, [1, 1])),
        companion_algebra(F2, [1, 1])))
    add("f3xf3", product_algebra(companion_algebra(F3, [1, 1]),
                                 companion_algebra(F3, [1, 1])))
    # Separable and inseparable polynomial quotients.
    add("f2_x2px", companion_algebra(F2, [0, 1, 1]))        # x^2+x
    add("f4", companion_algebra(F2, [1, 1, 1]))             # x^2+x+1
    add("f9", companion_algebra(F3, [1, 0, 1]))             # x^2+1
    add("f2_x2px_times_x", companion_algebra(F2, [0, 0, 1, 1]))  # x^3+x^2
    add("t2f2_x_f2", product_algebra(upper_triangular_algebra(2, F2),
                                     companion_algebra(F2, [1, 1])))
    add("m2f2_x_f2", product_algebra(matrix_algebra(2, F2),
                                     companion_algebra(F2, [1, 1])))
    return out


def _xpow(field, n):
    coeffs = [field.zero] * n + [field.one]
    return coeffs


def standard_modules(a: FiniteDimAlgebra, include_envelopes=True):
    """Deterministic small module zoo for one algebra."""
    out = []
    reg = RightModule.regular(a, name="reg")
    out.append(("reg", reg))
    soc = reg.socle_space()
    if 0 < soc.dim:
        out.append(("soc_reg", reg.submodule(soc, name="soc_reg")[0]))
        if soc.dim < reg.dim:
            out.append(("reg/soc", reg.quotient(soc, name="reg/soc")[0]))
    rad = reg.radical_space()
    if 0 < rad.dim:
        out.append(("rad_reg", reg.submodule(rad, name="rad_reg")[0]))
        out.append(("top_reg", reg.quotient(rad, name="top_reg")[0]))
    simples = simple_modules(a)
    mods = []
    for s in simples:
        if s.module is not None:
            out.append((s.label, s.module))
            mods.append(s.module)
    if mods:
        out.append((f"{mods[0].name}^2", mods[0].direct_sum(mods[0])))
    if len(mods) > 1:
        out.append((f"{mods[0].name}+{mods[1].name}",
                    mods[0].direct_sum(mods[1])))
    if include_envelopes:
        for s in simples:
            if s.module is not None:
                e_mod, _ = injective_envelope(s.module)
                out.append((f"E({s.label})", e_mod))
    return out
