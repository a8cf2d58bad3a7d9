"""Subcategory descriptors and the classification machinery.

Subcategories are never materialized: a closed subcategory is its
two-sided ideal, a localizing subcategory its atom support, a locally
closed localizing subcategory its upward-closed molecule support.  Each
descriptor carries the membership predicate its classification theorem
dictates, and the brute-force enumerations in ``oracle`` confirm the
predicates behave like the subcategory they name.

The inclusion order on closed descriptors reverses the ideal order, and
the extension product mirrors the reversed ideal product; both reversals
are applied here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import FiniteDimAlgebra
from .errors import BudgetExceeded, CapabilityError, ValidationError
from .ideals import (TwoSidedIdeal, ideal_product, intersect_primes,
                     minimal_primes, nilpotency_index, prime_radical,
                     primes_over)
from .linalg import Subspace
from .modules import RightModule
from .spectra import (ArtinianBackend, ArtinianizationDescriptor,
                      ReducedPartResult, SpectrumBackend, hasse_edges,
                      up_sets)


@dataclass
class ClosedSubcatDescriptor:
    """Closed subcategory of Mod(Lambda), keyed by its two-sided ideal."""

    backend: ArtinianBackend
    ideal: TwoSidedIdeal

    @property
    def label(self):
        if self.ideal.is_whole():
            return "0 (zero subcategory)"
        if self.ideal.is_zero():
            return f"Mod {self.backend.algebra.name}"
        a = self.backend.algebra
        gens = ",".join(a.element_str(v) for v in self.ideal.space.basis_rows())
        return f"Mod({a.name}/<{gens}>)"

    def __eq__(self, other):
        return (isinstance(other, ClosedSubcatDescriptor)
                and self.ideal.space == other.ideal.space)

    def __hash__(self):
        return hash(self.ideal.space)

    def is_zero_subcat(self):
        return self.ideal.is_whole()

    def contains_module(self, m: RightModule) -> bool:
        """M lies in the subcategory iff the ideal annihilates it."""
        return all(m.act_matrix(v).is_zero()
                   for v in self.ideal.space.basis_rows())

    def leq(self, other: "ClosedSubcatDescriptor") -> bool:
        """Subcategory inclusion: reverses ideal inclusion."""
        return self.ideal.contains(other.ideal)


def closed_from_ideal(backend: ArtinianBackend, ideal: TwoSidedIdeal):
    return ClosedSubcatDescriptor(backend, ideal)


def whole_category(backend: ArtinianBackend):
    return ClosedSubcatDescriptor(backend, TwoSidedIdeal.zero(backend.algebra))


def ext_product(c1: ClosedSubcatDescriptor,
                c2: ClosedSubcatDescriptor) -> ClosedSubcatDescriptor:
    """Extensions of a c2-object by a c1-object: ideal product reversed."""
    if c1.backend is not c2.backend:
        raise ValidationError("extension product needs a common backend")
    return ClosedSubcatDescriptor(c1.backend,
                                  ideal_product(c2.ideal, c1.ideal))


def ext_power(c: ClosedSubcatDescriptor, n: int) -> ClosedSubcatDescriptor:
    acc = c
    for _ in range(n - 1):
        acc = ext_product(acc, c)
    return acc


def radical_of_closed(c: ClosedSubcatDescriptor):
    """(smallest radical-closed descriptor containing c, extension exponent).

    The ideal of the result is the prime radical of c's ideal; the
    exponent n is minimal with c contained in result^{*n}, i.e. with
    sqrt(I)^n inside I.
    """
    if c.is_zero_subcat():
        return c, 1
    rad = prime_radical(c.ideal)
    result = ClosedSubcatDescriptor(c.backend, rad)
    n = nilpotency_index(rad, c.ideal)
    if not c.leq(ext_power(result, n)):
        raise ValidationError("radical exponent check failed")
    return result, n


def reduced_part(backend: SpectrumBackend) -> ReducedPartResult:
    """Smallest full-support subcategory, computed along both routes.

    Atomic route: the Jacobson radical (semisimple modules are the
    atomically reduced part of an artinian category).  Molecular route:
    the prime radical.  They must agree; disagreement is a bug by the
    correspondence theorem, so the backend raises.  The symbolic backends
    name their reduced ring; the graded backend refuses (its flags need a
    noetherian generator).
    """
    return backend.reduced_part()


def artinianization(backend: SpectrumBackend) -> ArtinianizationDescriptor:
    """Quotient supported on the minimal atoms.

    Artinian backends are their own artinianization; the symbolic
    backends answer with their localized module category; the graded
    backend refuses (no artinian generator exists there).
    """
    return backend.artinianization()


# -- localizing subcategories ------------------------------------------------------

@dataclass
class LocalizingSubcatDescriptor:
    """Localizing subcategory of an artinian backend: an atom support set."""

    backend: ArtinianBackend
    atom_support: frozenset

    @property
    def label(self):
        if not self.atom_support:
            return "0"
        return "loc{" + ",".join(sorted(a.label for a in self.atom_support)) + "}"

    def contains_module(self, m: RightModule) -> bool:
        """Membership: every composition factor supported in the set."""
        if m.dim == 0:
            return True
        return self.backend.asupp(m) <= self.atom_support

    def leq(self, other):
        return self.atom_support <= other.atom_support


LOCALIZING_MAX_ATOMS = 8   # atoms whose 2^n subsets classify_localizing lists


def classify_localizing(backend: ArtinianBackend):
    """All localizing subcategories: every subset of the (discrete) ASpec.

    Returns (descriptors, prime_ones, maximal_proper_ones).  Prime
    localizing subcategories are the complements of single-atom closures;
    maximal proper ones correspond to minimal atoms.
    """
    atoms = backend.atoms()
    if len(atoms) > LOCALIZING_MAX_ATOMS:
        raise BudgetExceeded("localizing classification", 2 ** len(atoms),
                             2 ** LOCALIZING_MAX_ATOMS)
    universe = frozenset(atoms)
    descriptors = []
    for mask in range(2 ** len(atoms)):
        chosen = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        descriptors.append(LocalizingSubcatDescriptor(backend, chosen))
    complements = {frozenset(universe - {a}) for a in atoms}
    prime_ones = [d for d in descriptors if d.atom_support in complements]
    amin = set(backend.minimal_atoms())
    max_proper = [d for d in descriptors
                  if d.atom_support in {frozenset(universe - {a}) for a in amin}]
    return descriptors, prime_ones, max_proper


@dataclass
class LocallyClosedLocalizingDescriptor:
    """Locally closed localizing subcategory: upward-closed molecule set."""

    backend: object
    molecule_support: frozenset

    @property
    def label(self):
        if not self.molecule_support:
            return "0"
        return "lcl{" + ",".join(sorted(m.label for m in self.molecule_support)) + "}"

    def contains_module(self, m: RightModule) -> bool:
        """Membership: V(Ann M) inside the support."""
        return self.backend.msupp(m) <= self.molecule_support


def classify_locally_closed_localizing(backend, window=None):
    """All upward-closed subsets of the (windowed) molecule order.

    The order is read once, as one up-set bit mask per molecule; a subset
    is upward closed iff it contains the up-set of each of its members,
    that is the union of those up-sets.
    """
    mols = backend.molecules(window)
    if len(mols) > 16:
        raise BudgetExceeded("locally closed classification", 2 ** len(mols),
                             2 ** 16)
    up = [sum(1 << j for j in above)
          for above in up_sets(mols, backend.molecule_leq)]
    # reach[mask]: the union of the up-sets of the members of mask.
    reach = [0] * 2 ** len(mols)
    for mask in range(1, len(reach)):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | up[low.bit_length() - 1]
    return [LocallyClosedLocalizingDescriptor(
                backend, frozenset(m for i, m in enumerate(mols) if mask >> i & 1))
            for mask, r in enumerate(reach) if r | mask == mask]


# -- prime decomposition of closed subcategories ------------------------------------

def decompose_into_primes(c: ClosedSubcatDescriptor):
    """Primes P_1..P_n with c inside P_1 * ... * P_n and each P_i inside c.

    Witnesses: the primes over the ideal, repeated until their reversed
    product falls inside the ideal (the radical is nilpotent modulo it).
    """
    if c.is_zero_subcat():
        raise ValidationError("the zero subcategory has no prime decomposition")
    a = c.backend.algebra
    ws = primes_over(a, c.ideal)
    rad = intersect_primes(a, ws)
    power = nilpotency_index(rad, c.ideal)
    sequence = [w.ideal for w in ws] * power
    prod = sequence[0]
    for nxt in sequence[1:]:
        prod = ideal_product(prod, nxt)
    if not c.ideal.contains(prod):
        raise ValidationError("prime decomposition product escapes the ideal")
    descriptors = [ClosedSubcatDescriptor(c.backend, w.ideal) for w in ws]
    for d in descriptors:
        if not d.leq(c):
            raise ValidationError("decomposition factor not inside the subcategory")
    return descriptors, power


def prime_closed_descriptors(backend: ArtinianBackend):
    """Prime closed subcategories: one per molecule."""
    return [ClosedSubcatDescriptor(backend, w.ideal)
            for w in minimal_primes(backend.algebra)]


def radical_closed_descriptors(backend: ArtinianBackend):
    """Closed subcategories with radical ideal: intersections of primes.

    For an artinian backend the radical ideals are exactly the
    intersections of subsets of the (finitely many) primes, with the empty
    intersection read as the whole algebra (the zero subcategory).
    """
    a = backend.algebra
    ws = minimal_primes(a)
    seen = {}
    for mask in range(2 ** len(ws)):
        chosen = [w.ideal for i, w in enumerate(ws) if mask >> i & 1]
        if not chosen:
            ideal = TwoSidedIdeal.whole(a)
        else:
            ideal = chosen[0]
            for nxt in chosen[1:]:
                ideal = ideal.intersect(nxt)
        seen[ideal.space] = ideal
    return [ClosedSubcatDescriptor(backend, ideal)
            for ideal in seen.values()]


def radical_lattice_dot(backend: ArtinianBackend) -> str:
    """DOT Hasse diagram of the radical-ideal closed subcategory lattice."""
    descs = sorted(radical_closed_descriptors(backend),
                   key=lambda d: (d.ideal.dim, d.ideal.space.mat.rows))
    lines = ["digraph closed_subcats {", "  rankdir=BT;"]
    lines.extend(f'  c{i} [label="{d.label}", shape=box];'
                 for i, d in enumerate(descs))
    up = up_sets(descs, ClosedSubcatDescriptor.leq)
    lines.extend(f"  c{i} -> c{j};" for i, j in hasse_edges(up))
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- weakly closed subcategories from right-ideal filters ----------------------------

class GeneratedPrelocalizingFilter:
    """Prelocalizing filter generated by finitely many right ideals.

    Realized as an explicit set over the enumerated right-ideal lattice
    (finite fields, budgeted): the closure of the generators under
    up-closure, finite intersection, and translation a^{-1}L.  Membership
    of a module: every cyclic subquotient Lambda/Ann(x) has Ann(x) in the
    filter.
    """

    def __init__(self, algebra: FiniteDimAlgebra, generator_spaces, budget=None):
        from .oracle import enumerate_right_ideals
        self.algebra = algebra
        lattice = enumerate_right_ideals(algebra, budget=budget)
        self.lattice = lattice
        current = set()
        for g in generator_spaces:
            for r in lattice:
                if r.contains(g):
                    current.add(r)
        changed = True
        while changed:
            changed = False
            frozen = list(current)
            for r in frozen:
                for s in frozen:
                    meet = r.intersect(s)
                    canon = self._canon(meet)
                    if canon not in current:
                        current.add(canon)
                        changed = True
            for r in frozen:
                for i in range(algebra.dim):
                    pre = self._translate(r, algebra.basis_coords(i))
                    if pre not in current:
                        current.add(pre)
                        changed = True
            if changed:
                up = set()
                for r in current:
                    for s in lattice:
                        if s.contains(r):
                            up.add(s)
                current = up
        self.members = current

    def _canon(self, space: Subspace) -> Subspace:
        for r in self.lattice:
            if r == space:
                return r
        raise ValidationError("subspace is not in the right-ideal lattice")

    def _translate(self, space: Subspace, a) -> Subspace:
        """a^{-1}L = {b : a b in L}."""
        alg = self.algebra
        f = alg.field
        la = alg.left_mult_matrix(a)
        cond = la * space.complement_projection_matrix()
        return self._canon(Subspace.from_vectors(f, alg.dim,
                                                 cond.left_kernel().rows))

    def contains_right_ideal(self, space: Subspace) -> bool:
        return self._canon(space) in self.members

    def contains_module(self, m: RightModule) -> bool:
        f = self.algebra.field
        if not f.is_finite():
            raise CapabilityError("filter membership needs an enumerable field")
        from .oracle import module_vectors
        for v in module_vectors(m):
            ann = _element_annihilator_right_ideal(m, v)
            if not self.contains_right_ideal(ann):
                return False
        return True


def _element_annihilator_right_ideal(m: RightModule, v) -> Subspace:
    """{a in Lambda : v a = 0}, a right ideal."""
    from .linalg import Matrix
    a = m.algebra
    f = a.field
    rows = [m.act(v, a.basis_coords(i)) for i in range(a.dim)]
    mat = Matrix(f, rows, m.dim)
    return Subspace.from_vectors(f, a.dim, mat.left_kernel().rows)
