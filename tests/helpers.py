"""Matrix, module, ideal and subcategory facts that only the tests read.

The package never inverts a matrix, takes a determinant or a trace, runs
a Gauss-Jordan loop, asks whether a module is semisimple, adds two ideals,
asks whether a module lies in a localizing subcategory, builds a tensor
product of algebras or names a free or simple graded module by its shifts,
so these live here, beside the tests that use them as references.  So do
the plain forms of the oracle's lattice routines: every subspace built
and then filtered, primeness over all pairs of ideals, annihilators
of submodules built as modules, and the singular subspace from every
vector and every nonzero right ideal; monoformity as Hom(S, M/L)
over the whole submodule lattice; and isomorphism by a search over the
coefficient combinations of a Hom basis, which the package replaced by
Schur's lemma on simple modules; nilpotency of a subspace by
multiplying by it one factor at a time, which the package replaced by the
Loewy series through the radical's generators G; the socle and the
radical of a module acted on by every basis row of J, which the package
reads through G; an intersection of primes taken one pair at a time,
which the package reads as one kernel of their complement projections;
and the radical-ideal lattice with each subset of primes intersected
from scratch and its order read pair by pair, which the package reads
off prime masks.
"""

import itertools

from ringspectra.algebras import (FiniteDimAlgebra, group_algebra,
                                  jacobson_radical, subspace_product)
from ringspectra.commutative import GradedModuleDescriptor, poly_trim
from ringspectra.ideals import TwoSidedIdeal, annihilator, minimal_primes
from ringspectra.linalg import (Matrix, Subspace, apply_vec, combine_matrices,
                               spin, unit_vec)
from ringspectra.modules import RightModule, hom_basis, is_simple_module
from ringspectra.oracle import _budgeted, count_subspaces, enumerate_submodules
from ringspectra.spectra import hasse_edges
from ringspectra.subcats import (ClosedSubcatDescriptor,
                                 LocalizingSubcatDescriptor)


def det(m: Matrix):
    """The determinant, by elimination with row swaps."""
    if not m.nrows == m.ncols:
        raise ValueError("determinant of non-square matrix")
    f = m.field
    rows = [list(r) for r in m.rows]
    n = m.nrows
    out = f.one
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != f.zero), None)
        if piv is None:
            return f.zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = f.neg(out)
        out = f.mul(out, rows[c][c])
        inv = f.inv(rows[c][c])
        for r in range(c + 1, n):
            if rows[r][c]:
                rows[r] = f.axpy(rows[r], f.neg(f.mul(rows[r][c], inv)), rows[c])
    return out


def is_invertible(m: Matrix) -> bool:
    return m.nrows == m.ncols and m.rank() == m.nrows


def inverse(m: Matrix) -> Matrix:
    """The inverse, read off the rref of [m | 1]."""
    if not m.nrows == m.ncols:
        raise ValueError("inverse of non-square matrix")
    f = m.field
    n = m.nrows
    aug = Matrix.trusted(f, tuple(r + unit_vec(f, n, i)
                                  for i, r in enumerate(m.rows)), 2 * n)
    r, pivots = aug.rref()
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix not invertible")
    return Matrix.trusted(f, tuple(row[n:] for row in r.rows), n)


def rref_reference(m: Matrix):
    """(reduced row echelon form, pivot columns) by a Gauss-Jordan loop on
    tuple rows: a reference independent of the package's row reducer."""
    f = m.field
    rows = [list(r) for r in m.rows]
    n = len(rows)
    pivots = []
    pr = 0
    for pc in range(m.ncols):
        if pr == n:
            break
        for r in range(pr, n):
            if rows[r][pc]:
                break
        else:
            continue
        rows[pr], rows[r] = rows[r], rows[pr]
        prow = rows[pr] = f.row_scale(f.inv(rows[pr][pc]), rows[pr])
        for r in range(n):
            c = rows[r][pc]
            if c and r != pr:
                rows[r] = f.axpy(rows[r], f.neg(c), prow)
        pivots.append(pc)
        pr += 1
    return Matrix.trusted(f, tuple(map(tuple, rows)), m.ncols), tuple(pivots)


def trace(m: Matrix):
    f = m.field
    t = f.zero
    for i in range(min(m.nrows, m.ncols)):
        t = f.add(t, m.rows[i][i])
    return t


def reference_is_nilpotent(a, s: Subspace) -> bool:
    """Whether s^k = 0 for some k <= dim a + 1, with s^(k+1) formed as
    s^k s, one factor at a time."""
    cur = s
    for _ in range(a.dim + 1):
        if cur.dim == 0:
            return True
        cur = subspace_product(a, cur, s)
    return False


def reference_socle_space(m) -> Subspace:
    """{v : v J = 0}, one action matrix per basis row of J."""
    return m.killed_by(jacobson_radical(m.algebra))


def reference_radical_space(m) -> Subspace:
    """M J, spanned by the images of M's basis under every basis row of J."""
    rows = [row for j in jacobson_radical(m.algebra).basis_rows()
            for row in m.act_matrix(j).rows]
    return Subspace.from_vectors(m.algebra.field, m.dim, rows)


def is_semisimple_module(m) -> bool:
    """Whether the right module m is its own socle."""
    return m.socle_space().dim == m.dim


def ideal_sum(i: TwoSidedIdeal, j: TwoSidedIdeal) -> TwoSidedIdeal:
    """i + j, two-sided because both are."""
    i._check_parent(j)
    return TwoSidedIdeal(i.algebra, i.space.sum(j.space), validate=False)


def support(descriptor) -> frozenset:
    """The atoms or molecules a subcategory descriptor's bit mask selects."""
    return frozenset(x for i, x in enumerate(descriptor.listing.elements)
                     if descriptor.mask >> i & 1)


def contains_module(descriptor, m) -> bool:
    """Membership of the right module m in a localizing subcategory (every
    composition factor supported in its atom set) or in a locally closed
    one (V(Ann m) inside its molecule set)."""
    if isinstance(descriptor, LocalizingSubcatDescriptor):
        return m.dim == 0 or descriptor.backend.asupp(m) <= support(descriptor)
    return descriptor.backend.msupp(m) <= support(descriptor)


def reference_prime_intersection(a, ws) -> Subspace:
    """The intersection of the listed primes, the whole of a for none, one
    pair at a time by ``Subspace.intersect`` (the stacked kernel)."""
    space = Subspace.full(a.field, a.dim)
    for w in ws:
        space = space.intersect(w.ideal.space)
    return space


def reference_radical_lattice_dot(backend) -> str:
    """``subcats.radical_lattice_dot`` by the plain route: every subset of
    the primes intersected from scratch, equal ideals merged, and a node
    below another iff its ideal contains the other's, asked of each pair."""
    a = backend.algebra
    ws = minimal_primes(a)
    seen = {}
    for mask in range(2 ** len(ws)):
        space = reference_prime_intersection(
            a, [w for i, w in enumerate(ws) if mask >> i & 1])
        seen[space] = TwoSidedIdeal(a, space, validate=False)
    ideals = sorted(seen.values(), key=lambda i: (i.dim, i.space.mat.rows))
    lines = ["digraph closed_subcats {", "  rankdir=BT;"]
    lines.extend(f'  c{n} [label="{ClosedSubcatDescriptor(backend, i).label}", '
                 'shape=box];' for n, i in enumerate(ideals))
    up = [[n for n, k in enumerate(ideals) if i.contains(k)] for i in ideals]
    lines.extend(f"  c{n} -> c{m};" for n, m in hasse_edges(up))
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_poly_divmod(field, a, b):
    """(quotient, remainder) by schoolbook division, one scalar at a time,
    rescanning the dividend at every step."""
    a = list(poly_trim(field, a))
    b = poly_trim(field, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = field.inv(b[-1])
    while len(a) >= len(b) and any(c != field.zero for c in a):
        if a[-1] == field.zero:
            a.pop()
            continue
        shift = len(a) - len(b)
        coeff = field.mul(a[-1], inv_lead)
        q[shift] = coeff
        for i, c in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(coeff, c))
        while a and a[-1] == field.zero:
            a.pop()
    return poly_trim(field, q), poly_trim(field, a)


def graded_free(*shifts) -> GradedModuleDescriptor:
    """The free graded module k[x](m_1) + ... + k[x](m_r)."""
    return GradedModuleDescriptor(tuple(sorted(shifts)), ())


def graded_simple(shift) -> GradedModuleDescriptor:
    """The simple graded module k(shift), of length one."""
    return GradedModuleDescriptor((), ((1, shift),))


def tensor_algebra(a, b, name=None) -> FiniteDimAlgebra:
    """a (x) b over their common field, on the basis b_i (x) c_j in
    lexicographic order: (b_i c_j)(b_k c_l) = b_i b_k (x) c_j c_l."""
    f = a.field
    d = a.dim * b.dim
    sc = [[[f.zero] * d for _ in range(d)] for _ in range(d)]
    for (i, j), (k, l) in itertools.product(
            itertools.product(range(a.dim), range(b.dim)), repeat=2):
        out = sc[i * b.dim + j][k * b.dim + l]
        for m, x in a.rows[i][k]:
            for n, y in b.rows[j][l]:
                out[m * b.dim + n] = f.add(out[m * b.dim + n], f.mul(x, y))
    return FiniteDimAlgebra(f, sc, name=name or f"{a.name}(x){b.name}")


def s3_group_algebra(field) -> FiniteDimAlgebra:
    """k[S_3], on the permutations of (0, 1, 2) in lexicographic order,
    composed as (g h)(x) = g(h(x))."""
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(g[h[x]] for x in range(3))) for h in perms]
             for g in perms]
    return group_algebra(field, table, name="kS3")


def reference_subspaces(field, dim: int, budget=None):
    """Every subspace of k^dim, each built as a ``Subspace`` on its reduced
    echelon matrix, under the oracle's budget and count check."""
    total = _budgeted("subspace enumeration", field, dim, count_subspaces,
                      budget)
    out = []
    for r in range(dim + 1):
        for pivots in itertools.combinations(range(dim), r):
            free_positions = [(i, j) for i, p in enumerate(pivots)
                              for j in range(p + 1, dim) if j not in pivots]
            for values in itertools.product(field.elements(),
                                            repeat=len(free_positions)):
                rows = []
                for p in pivots:
                    row = [field.zero] * dim
                    row[p] = field.one
                    rows.append(row)
                for (i, j), v in zip(free_positions, values):
                    rows[i][j] = v
                mat = Matrix.trusted(field, tuple(map(tuple, rows)), dim)
                out.append(Subspace(field, dim, mat, tuple(pivots)))
    if len(out) != total:
        raise ValueError("subspace enumeration does not match the count")
    return out


def reference_stable_subspaces(field, dim: int, ops, budget=None):
    """The subspaces of k^dim stable under ops: every subspace, filtered."""
    return [s for s in reference_subspaces(field, dim, budget)
            if s.is_stable(ops)]


def reference_is_prime(i: TwoSidedIdeal, lattice) -> bool:
    """For all A, B in the lattice: AB in I implies A in I or B in I, with
    the product spun for every pair."""
    a = i.algebra
    ops = a.right_mult_matrices() + a.left_mult_matrices()
    for s in lattice:
        for t in lattice:
            prod = spin(a.field, a.dim, [a.mul(u, v) for u in s.basis_rows()
                                         for v in t.basis_rows()], ops)
            if i.space.contains(prod) and not (i.space.contains(s)
                                               or i.space.contains(t)):
                return False
    return True


def reference_annihilator(m, s: Subspace) -> Subspace:
    """Ann of the submodule of m on s, built as a module."""
    return annihilator(m.submodule(s)[0]).space


def reference_is_monoform(m) -> bool:
    """m has a simple socle S and Hom(S, m/L) = 0 for every nonzero proper
    submodule L of the enumerated lattice (docs/derivations.md, "Monoform,
    finite length")."""
    soc, _ = m.submodule(m.socle_space(), name="S")
    if not is_simple_module(soc):
        return False
    return not any(len(hom_basis(soc, m.quotient(space)[0])) > 0
                   for space in enumerate_submodules(m)
                   if 0 < space.dim < m.dim)


def reference_is_isomorphic(m, n) -> bool:
    """Whether some combination of a basis of Hom(m, n) is invertible, every
    combination of coefficients tried (finite fields only)."""
    if m.dim != n.dim:
        return False
    f = m.algebra.field
    homs = hom_basis(m, n)
    return any(combine_matrices(f, m.dim, combo, homs).rank() == m.dim
               for combo in itertools.product(f.elements(), repeat=len(homs)))


def reference_singular_subspace(m) -> Subspace:
    """{v : Ann(v) is an essential right ideal}, from every vector v of m:
    Ann(v) built as a ``Subspace`` and intersected with every nonzero
    right ideal of the filtered lattice."""
    a = m.algebra
    f = a.field
    right_ideals = [r for r in reference_stable_subspaces(
        f, a.dim, RightModule.regular(a).action) if r.dim > 0]
    vecs = []
    for v in itertools.product(map(f.scalar, f.elements()), repeat=m.dim):
        rows = tuple(apply_vec(v, op) for op in m.action)
        ann = Subspace.from_vectors(
            f, a.dim, Matrix.trusted(f, rows, m.dim).left_kernel().rows)
        if all(ann.intersect(r).dim > 0 for r in right_ideals):
            vecs.append(v)
    return Subspace.from_vectors(f, m.dim, vecs)
