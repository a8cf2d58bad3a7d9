"""Finite-dimensional associative unital algebras by structure constants.

An algebra is given by a field, a basis b_0..b_{d-1}, and constants c_ijk
with b_i * b_j = sum_k c_ijk b_k.  They are stored once, as sparse rows:
``rows[i][j]`` holds the nonzero pairs (k, c_ijk), ascending in k.  Every
constructor builds these rows directly, so no d^3 table is allocated for
an algebra with few nonzero constants; ``sc``, the dense c[i][j][k], is a
view built on each access.  Construction validates associativity on all
basis triples and solves for (or checks) the unit, so an invalid table
cannot circulate.  Elements are coordinate row vectors.

Constructors cover the concrete sources used throughout: matrix algebras,
upper triangular algebras, group algebras, k[x]/(f) by companion
multiplication, direct products, and bound quiver algebras (path algebras
modulo length-homogeneous relations, truncated once finite-dimensionality
is witnessed).  Each refuses, before it allocates anything, an algebra
larger than ``SIZE_BUDGET``.

The two structure computations that everything else leans on live here as
well: the Jacobson radical (one chain of trace kernels, run on the stored
rows: the trace form, then over F_p the lifted traces) and the Wedderburn
block decomposition of a semisimple algebra via central idempotents.

The radical comes with G, the span of its canonical rows off the pivots of
J^2, so J = G + J^2.  By Nakayama's lemma G generates J on both sides:
A G = J = G A (docs/derivations.md, "Nakayama generators").  Whatever acts
with J acts with G instead: the socle is what G kills, M J = M G, and the
radical's own self-check forms the Loewy series as J^(k+1) = J^k G.

Each algebra carries one ``AlgebraStructure``, created on first use, that
holds what is computed about it once: a generating set of basis indices,
the radical and its generators G, the semisimple quotient
``(a/J, projection, section)`` (``(a, None, None)`` when J = 0), the
Wedderburn blocks, the simple modules, the primitive idempotents, the
minimal primes and the opposite algebra.  The projection and the section
are the matrices of those linear maps on row vectors.  A Wedderburn block
is its central idempotent and its subspace of the semisimple algebra; no
algebra is built on it.  The radical's self-check builds the quotient and
proves its radical zero, so the quotient is stored with that zero radical
(and G = 0) recorded.  ``opposite()`` is built once and paired, so
``a.opposite().opposite() is a``; the pair shares one radical and one G,
since J(A^op) = J(A) (docs/derivations.md) and G generates J on both
sides.  The radical and its checks therefore run once per opposite pair,
and the structure constants of the opposite, being those of a validated
algebra transposed, are not validated again.

The generating set S (``FiniteDimAlgebra.generators``) is what every check
that quantifies over the algebra's action runs on: a subspace closed under
multiplication by S on a side is closed under all of A on that side, and
associativity is Light's test on the triples (i, g, k) with g in S
(docs/derivations.md, "Generating sets").  The pair shares S as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceeded, CapabilityError, ValidationError
from .linalg import (Matrix, RowReducer, Subspace, apply_vec,
                     combine_matrices, common_left_kernel, field_name, spin,
                     unit_vec, vec_add, vec_is_zero, vec_scale, vec_sub)


class AlgebraStructure:
    """What is computed about one algebra, each field filled in on first use.

    ``mirror`` marks an algebra built by ``opposite()``: its generating
    set, radical, radical generators and simple modules are read off the
    algebra it is the opposite of.
    """
    generators = radical = radical_generators = quotient = blocks = None
    simples = primitive_idempotents = minimal_primes = opposite = None
    mirror = False


class _Rows(tuple):
    """Structure constants in the stored form (``FiniteDimAlgebra.rows``),
    which the constructor takes as they are."""
    __slots__ = ()


class FiniteDimAlgebra:
    """``rows[i][j]`` holds the nonzero ``(k, c_ijk)`` pairs of b_i * b_j,
    ascending in k, with c a scalar of ``field``: the one stored form of
    the structure constants, which the arithmetic reads."""

    __slots__ = ("field", "dim", "rows", "unit", "labels", "name",
                 "_right_mats", "_left_mats", "_structure")

    def __init__(self, field, sc, unit=None, labels=None, name="A",
                 validate=True):
        """``sc`` holds dense constants c[i][j][k], coerced into ``field``
        and shape-checked here; ``trusted`` hands over rows instead."""
        self.rows = sc if isinstance(sc, _Rows) else _rows_of(field, sc)
        dim = len(self.rows)
        if dim == 0:
            raise ValidationError("unital algebra needs dimension >= 1")
        self.field = field
        self.dim = dim
        self.labels = check_length(labels, dim, "labels") if labels \
            else tuple(f"b{i}" for i in range(dim))
        self.name = name
        self._right_mats = {}
        self._left_mats = {}
        self._structure = None
        if unit is None:
            unit = self._solve_unit()
        self.unit = tuple(map(field.scalar, check_length(unit, dim, "unit")))
        if validate:
            self._validate()

    @classmethod
    def trusted(cls, field, rows, unit=None, labels=None, name="A",
                validate=True):
        """The algebra on ``rows`` in the stored form, whose constants
        already are scalars of ``field``, taken as they are; ``validate`` as
        in the constructor.

        For the algebras the package builds: no dense constants are made.
        """
        return cls(field, _Rows(tuple(map(tuple, plane)) for plane in rows),
                   unit=unit, labels=labels, name=name, validate=validate)

    @property
    def sc(self):
        """The dense constants c[i][j][k], built on each access."""
        return tuple(tuple(map(self._dense, plane)) for plane in self.rows)

    # -- construction-time checks -------------------------------------------

    def _solve_unit(self):
        """u with u b_j = b_j and b_j u = b_j for all j: one linear system.

        Its equations are the coordinates k of u b_j (sum_i u_i c_ijk) and
        of b_i u (sum_j u_j c_ijk).  Only those with a constant in them or a
        1 on the right are formed; the others read 0 = 0.
        """
        f = self.field
        eqs = {(side, j, j): {} for side in (0, 1) for j in range(self.dim)}
        for i, plane in enumerate(self.rows):
            for j, row in enumerate(plane):
                for k, c in row:
                    eqs.setdefault((0, j, k), {})[i] = c
                    eqs.setdefault((1, i, k), {})[j] = c
        keys = sorted(eqs)
        m = Matrix.trusted(f, tuple(self._dense(eqs[key].items()) for key in keys),
                           self.dim).transpose()
        u = m.solve_left(tuple(f.one if j == k else f.zero for _s, j, k in keys))
        if u is None:
            raise ValidationError("no unit solves the unit law")
        return u

    def _validate(self):
        """The unit law on every basis element, then Light's associativity
        test: (b_i b_g) b_k = b_i (b_g b_k) for every generator g.

        The y with (x y) z = x (y z) for all x, z form a subalgebra, which
        holds 1 by the unit law; so it is all of A once it holds S
        (docs/derivations.md, "Generating sets").  A triple with
        b_i b_g = 0 is only visited at the k with b_g b_k != 0, so the test
        costs what the nonzero constants it reads cost.
        """
        d = self.dim
        for i in range(d):
            b = self.basis_coords(i)
            if self.mul(self.unit, b) != b or self.mul(b, self.unit) != b:
                raise ValidationError(f"unit law fails at basis element {i}")
        rows = self.rows
        gens = self.generators()
        reached = {g: [k for k in range(d) if rows[g][k]] for g in gens}
        for i, j in itertools.product(range(d), gens):
            for k in range(d) if rows[i][j] else reached[j]:
                if not self._associates(i, j, k):
                    raise ValidationError(
                        f"associativity fails at basis triple ({i},{j},{k})")

    def _associates(self, i, j, k) -> bool:
        """(b_i b_j) b_k = b_i (b_j b_k), as one sum over the nonzero
        constants: sum_m c_ijm b_m b_k - sum_m c_jkm b_i b_m = 0."""
        rows = self.rows
        acc = {}
        for m, c in rows[i][j]:
            for t, e in rows[m][k]:
                acc[t] = acc.get(t, 0) + c * e
        for m, c in rows[j][k]:
            for t, e in rows[i][m]:
                acc[t] = acc.get(t, 0) - c * e
        f = self.field
        return not any(f.row_scale(f.one, acc.values()))

    def generators(self) -> tuple:
        """Basis indices S with 1 and the b_g, g in S, generating the algebra.

        Computed once; the opposite reads its partner's, since the products
        of members of S span the same subspace in either order.
        """
        st = self.structure
        if st.generators is None:
            st.generators = st.opposite.generators() if st.mirror \
                else self._generating_set()
        return st.generators

    def _generating_set(self) -> tuple:
        """Spin the unit under right multiplication, taking b_i as a new
        generator whenever it lies outside the span reached so far.

        Indices i with b_i a one-term product b_j b_k, j, k != i, come last:
        they are often reached through b_j and b_k.  One reducer grows
        throughout; a new generator multiplies the rows already in it, and
        each new row is multiplied by every generator chosen so far
        (``RowReducer.close``).  The
        span of the words in S is the whole algebra once it holds every b_i,
        which it does under the unit law; anything short of that is refused.
        """
        d = self.dim
        products = {row[0][0] for j, plane in enumerate(self.rows)
                    for k, row in enumerate(plane)
                    if len(row) == 1 and row[0][0] not in (j, k)}
        red = RowReducer(self.field, d)
        red.add(self.unit)
        gens, ops = [], ()
        for i in sorted(range(d), key=products.__contains__):
            if red.contains(self.basis_coords(i)):
                continue
            gens.append(i)
            ops += (self.right_mult_by(i),)
            red.close(ops, fresh=ops[-1:])
        if red.dim() != d:
            raise ValidationError(
                f"the words in the generators span {red.dim()} of {d} dimensions")
        return tuple(gens)

    # -- element arithmetic --------------------------------------------------

    def basis_coords(self, i):
        return unit_vec(self.field, self.dim, i)

    def basis_product(self, i, j):
        """b_i b_j as coordinates."""
        return self._dense(self.rows[i][j])

    def _dense(self, pairs):
        """The coordinates with the entries (k, c) and zeros elsewhere."""
        out = [self.field.zero] * self.dim
        for k, c in pairs:
            out[k] = c
        return tuple(out)

    def _combine(self, terms):
        """sum of c * b_i * b_j over the triples (c, i, j), as coordinates.

        The sum is formed with the scalars' own + and *, exact on ints and
        Fractions, and reduced into the field once, by ``row_scale``.
        """
        f = self.field
        out = [f.zero] * self.dim
        for c, i, j in terms:
            for k, e in self.rows[i][j]:
                out[k] += c * e
        return tuple(f.row_scale(f.one, out))

    def mul(self, x, y):
        nz = [(j, yj) for j, yj in enumerate(y) if yj]
        return self._combine((xi * yj, i, j) for i, xi in enumerate(x) if xi
                             for j, yj in nz)

    def power(self, x, n: int):
        """x^n by square-and-multiply over the bits of n, high to low: at
        most 2 log2(n) + 2 products."""
        acc = self.unit
        for bit in bin(n)[2:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, x)
        return acc

    def right_mult_by(self, j) -> Matrix:
        """R_j, the matrix of x -> x b_j on row vectors: row i is b_i b_j.
        Built on first use."""
        if j not in self._right_mats:
            self._right_mats[j] = Matrix.trusted(self.field, tuple(
                self._dense(plane[j]) for plane in self.rows), self.dim)
        return self._right_mats[j]

    def left_mult_by(self, j) -> Matrix:
        """L_j, the matrix of x -> b_j x: row i is b_j b_i.  Built on first use."""
        if j not in self._left_mats:
            self._left_mats[j] = Matrix.trusted(
                self.field, tuple(map(self._dense, self.rows[j])), self.dim)
        return self._left_mats[j]

    def right_mult_matrices(self):
        """R_j for every basis element j: the regular action."""
        return tuple(map(self.right_mult_by, range(self.dim)))

    def left_mult_matrices(self):
        """L_j for every basis element j."""
        return tuple(map(self.left_mult_by, range(self.dim)))

    def right_mult_matrix(self, a) -> Matrix:
        """Matrix of x -> x*a on row vectors: sum_j a_j R_j."""
        return self._mult_matrix(a, self.right_mult_by)

    def left_mult_matrix(self, a) -> Matrix:
        """Matrix of x -> a*x on row vectors: sum_j a_j L_j."""
        return self._mult_matrix(a, self.left_mult_by)

    def _mult_matrix(self, a, by):
        """sum_j a_j by(j); by(j) itself when a is the basis element b_j."""
        nz = [j for j, aj in enumerate(a) if aj]
        if len(nz) == 1 and a[nz[0]] == self.field.one:
            return by(nz[0])
        return combine_matrices(self.field, self.dim, [a[j] for j in nz],
                                list(map(by, nz)))

    def is_regular_element(self, a):
        """No left or right zero divisor: both multiplication maps injective."""
        la = self.left_mult_matrix(a)
        ra = self.right_mult_matrix(a)
        return la.rank() == self.dim and ra.rank() == self.dim

    def inverse_element(self, a):
        # x*a = 1 reads x R_a = 1 on row vectors; a*x = 1 is checked below.
        x = self.right_mult_matrix(a).solve_left(self.unit)
        if x is None or self.mul(x, a) != self.unit or self.mul(a, x) != self.unit:
            raise ValueError("element is not invertible")
        return x

    def element_str(self, x):
        f = self.field
        terms = [(f"{c}*" if c != f.one else "") + self.labels[i]
                 for i, c in enumerate(x) if c != f.zero]
        return " + ".join(terms) if terms else "0"

    def structurally_equal(self, other: "FiniteDimAlgebra"):
        return (self.field == other.field and self.rows == other.rows
                and self.unit == other.unit)

    def __repr__(self):
        return f"FiniteDimAlgebra({self.name}, dim {self.dim} over {field_name(self.field)})"

    # -- derived algebras -----------------------------------------------------

    @property
    def structure(self) -> AlgebraStructure:
        if self._structure is None:
            self._structure = AlgebraStructure()
        return self._structure

    def opposite(self) -> "FiniteDimAlgebra":
        """The opposite algebra, built once: ``a.opposite().opposite() is a``."""
        st = self.structure
        if st.opposite is None:
            # b_i * b_j in the opposite is b_j b_i: the rows transposed.
            op = FiniteDimAlgebra.trusted(self.field, zip(*self.rows), self.unit,
                                          labels=self.labels,
                                          name=self.name + "^op", validate=False)
            op.structure.opposite, op.structure.mirror = self, True
            st.opposite = op
        return st.opposite

    def center(self) -> Subspace:
        """x is central iff x (R_g - L_g) = 0 for every generator g: what
        commutes with each b_g commutes with their products."""
        return common_left_kernel(self.field, self.dim,
                                  [self.right_mult_by(g) - self.left_mult_by(g)
                                   for g in self.generators()])


# -- constructors ------------------------------------------------------------

# The largest algebra built: its dimension, and the number of paths a bound
# quiver lists on the way to it.  T_24 has dimension 300.
SIZE_BUDGET = 400


def check_size(what: str, size: int) -> int:
    """The size, once it is within SIZE_BUDGET; checked before anything of
    that size is allocated."""
    if size > SIZE_BUDGET:
        raise BudgetExceeded(what, size, SIZE_BUDGET)
    return size


def check_length(values, dim: int, what: str):
    """The values themselves, once there are exactly dim of them."""
    values = tuple(values)
    if len(values) != dim:
        raise ValidationError(f"{what} needs {dim} entries, got {len(values)}")
    return values


def _sparse(vec):
    """The nonzero (k, c) entries of a coordinate vector, ascending in k."""
    return tuple((k, c) for k, c in enumerate(vec) if c)


def _rows_of(field, sc):
    """The rows of dense constants c[i][j][k], each coerced into field."""
    d = len(sc)
    if any(len(plane) != d or any(len(row) != d for row in plane)
           for plane in sc):
        raise ValidationError("structure constants must be dim^3")
    return _Rows(tuple(_sparse(map(field.scalar, row)) for row in plane)
                 for plane in sc)


def _matrix_unit_algebra(field, pairs, name) -> FiniteDimAlgebra:
    """The span of the matrix units e_{rc}, (r, c) in pairs, in that order;
    pairs must be closed under e_{rc} e_{cs} = e_{rs} and hold every e_{rr}."""
    idx = {p: i for i, p in enumerate(pairs)}
    rows = [[((idx[(r1, c2)], field.one),) if c1 == r2 else ()
             for r2, c2 in pairs] for r1, c1 in pairs]
    labels = [f"e{r + 1}{c + 1}" for r, c in pairs]
    unit = [field.one if r == c else field.zero for r, c in pairs]
    return FiniteDimAlgebra.trusted(field, rows, unit, labels=labels, name=name)


def matrix_algebra(n: int, field, name=None) -> FiniteDimAlgebra:
    """Full matrix algebra with basis the matrix units e_{rc}."""
    check_size("matrix algebra dimension", n * n)
    return _matrix_unit_algebra(field, [(r, c) for r in range(n) for c in range(n)],
                                name or f"M{n}({field_name(field)})")


def upper_triangular_algebra(n: int, field, name=None) -> FiniteDimAlgebra:
    check_size("triangular algebra dimension", n * (n + 1) // 2)
    return _matrix_unit_algebra(field, [(r, c) for r in range(n) for c in range(r, n)],
                                name or f"T{n}({field_name(field)})")


def check_group_table(table: Sequence[Sequence[int]]):
    """The table itself, once it is square with entries in 0..len(table)-1."""
    d = check_size("group algebra dimension", len(table))
    if any(len(row) != d for row in table):
        raise ValidationError(f"group table of {d} rows must be {d} x {d}, "
                              f"got row lengths {[len(row) for row in table]}")
    if not all(0 <= x < d for row in table for x in row):
        raise ValidationError(f"group table entries must lie in 0..{d - 1}")
    return table


def group_algebra(field, table: Sequence[Sequence[int]], labels=None, name="kG"):
    """Group algebra from a multiplication table table[i][j] = index of g_i g_j."""
    rows = [[((t, field.one),) for t in row] for row in check_group_table(table)]
    return FiniteDimAlgebra.trusted(field, rows, labels=labels, name=name)


def cyclic_group_algebra(field, n: int, name=None):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = [f"g{i}" if i else "e" for i in range(n)]
    return group_algebra(field, table, labels=labels,
                         name=name or f"{field_name(field)}[C{n}]")


def companion_algebra(field, poly: Sequence, name=None) -> FiniteDimAlgebra:
    """k[x]/(f) with basis 1, x, ..., x^{deg f - 1}; poly low-to-high, monic."""
    coeffs = [field.scalar(c) for c in poly]
    while coeffs and coeffs[-1] == field.zero:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ValidationError("companion polynomial must have degree >= 1")
    d = check_size("companion algebra dimension", len(coeffs) - 1)
    lead = coeffs[-1]
    if lead != field.one:
        inv = field.inv(lead)
        coeffs = [field.mul(inv, c) for c in coeffs]
    # x^d = -(c_0 + c_1 x + ... + c_{d-1} x^{d-1})
    top = [field.neg(c) for c in coeffs[:d]]
    powers = [unit_vec(field, d, i) for i in range(d)]
    for _ in range(d):   # x^d .. x^{2d-1}: x^m shifted up, its top reduced
        cur = powers[-1]
        powers.append(tuple(field.add(s, field.mul(cur[-1], t))
                            for s, t in zip((field.zero,) + cur[:-1], top)))
    powers = [_sparse(x) for x in powers]
    rows = [powers[i:i + d] for i in range(d)]
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, d)]
    return FiniteDimAlgebra.trusted(field, rows, unit_vec(field, d, 0),
                                    labels=labels,
                                    name=name or f"{field_name(field)}[x]/(f)")


def product_algebra(a: FiniteDimAlgebra, b: FiniteDimAlgebra, name=None):
    if a.field != b.field:
        raise ValidationError("product factors must share the field")
    shift = a.dim
    rows = ([plane + ((),) * b.dim for plane in a.rows]
            + [((),) * shift + tuple(tuple((shift + k, c) for k, c in row)
                                     for row in plane) for plane in b.rows])
    labels = [f"l.{s}" for s in a.labels] + [f"r.{s}" for s in b.labels]
    return FiniteDimAlgebra.trusted(a.field, rows, a.unit + b.unit, labels=labels,
                                    name=name or f"{a.name}x{b.name}")


# -- bound quivers -----------------------------------------------------------

@dataclass(frozen=True)
class BoundQuiver:
    """Quiver with length-homogeneous relations and a truncation bound.

    relations: each is a list of (coefficient, path) with path a tuple of
    arrow indices; all paths in one relation must share source, target and
    length (length >= 2).  nilpotency_bound is the horizon within which the
    arrow ideal must become zero in the quotient.
    """
    vertices: int
    arrows: tuple            # (label, source, target), 0-based vertices
    relations: tuple = ()
    nilpotency_bound: int = 16


def check_arrow(vertices: int, arrow):
    """The arrow (label, source, target) itself, once both ends are vertices."""
    label, s, t = arrow
    if not (0 <= s < vertices and 0 <= t < vertices):
        raise ValidationError(f"arrow {label} ends outside the {vertices} vertices")
    return arrow


def check_relation(arrows, rel):
    """The relation itself, once its paths compose and share one length of
    at least 2, one source and one target."""
    if not rel:
        raise ValidationError("empty relation")
    lens = {len(p) for _c, p in rel}
    if len(lens) != 1 or min(lens) < 2:
        raise ValidationError(
            "relations must be length-homogeneous of length >= 2")
    ends = set()
    for _c, p in rel:
        if not all(0 <= ai < len(arrows) for ai in p):
            raise ValidationError("relation uses unknown arrow")
        if any(arrows[x][2] != arrows[y][1] for x, y in zip(p, p[1:])):
            raise ValidationError(f"relation path "
                                  f"{'.'.join(arrows[ai][0] for ai in p)} "
                                  "does not compose")
        ends.add((arrows[p[0]][1], arrows[p[-1]][2]))
    if len(ends) != 1:
        raise ValidationError("relation mixes source/target pairs")
    return rel


def bound_quiver_algebra(field, q: BoundQuiver, name=None) -> FiniteDimAlgebra:
    """Path algebra of q modulo its relations, built one path length at a time.

    The relations are length-homogeneous, so the ideal I they generate is
    the sum of its parts I_l, one per path length, with I_l = Q_1 I_{l-1} +
    I_{l-1} Q_1 + R_l for R_l the relations of length l.  Each length is
    listed once and reduced modulo its I_l.  The first length L whose paths
    all lie in I_L ends the quotient, since every longer path runs through
    one of length L; L must not exceed the nilpotency bound.  The basis is
    the paths of each length below L off the pivots of its I_l, and a
    product of length L or more is zero (docs/derivations.md, "Bound
    quivers one length at a time").
    """
    arrows = [check_arrow(q.vertices, arrow) for arrow in q.arrows]
    rels = [[(field.scalar(c), p) for c, p in check_relation(arrows, rel)]
            for rel in q.relations]
    # A path is (source, target, arrows); each length lists the extensions
    # of the one below, by source first and then by arrow.
    layer = sorted(((s, t, (ai,)) for ai, (_l, s, t) in enumerate(arrows)),
                   key=lambda path: path[0])
    listed = q.vertices
    lower = []      # the canonical rows of I_{l-1}, as (coefficient, path)
    basis = []      # the basis paths of length >= 1
    forms = {}      # (source, arrows) of a path below L: its coordinates
    for length in range(1, q.nilpotency_bound + 1):
        listed = check_size("bound quiver paths", listed + len(layer))
        index = {p: i for i, (_s, _t, p) in enumerate(layer)}
        gens = [rel for rel in rels if len(rel[0][1]) == length]
        for terms in lower:
            for ai, (_l, a_s, a_t) in enumerate(arrows):
                gens.append([(c, (ai,) + p) for c, (s, _t, p) in terms if s == a_t])
                gens.append([(c, p + (ai,)) for c, (_s, t, p) in terms if t == a_s])
        vectors = []
        for terms in filter(None, gens):
            vec = [field.zero] * len(layer)
            for c, p in terms:
                vec[index[p]] = field.add(vec[index[p]], c)
            vectors.append(vec)
        ideal = Subspace.from_vectors(field, len(layer), vectors)
        if ideal.dim == len(layer):
            break
        comp = ideal.complement_coords()
        start = q.vertices + len(basis)
        for (s, _t, p), row in zip(layer, ideal.complement_projection_matrix().rows):
            forms[(s, p)] = tuple((start + i, c) for i, c in enumerate(row) if c)
        basis.extend(layer[j] for j in comp)
        lower = [[(c, layer[j]) for j, c in enumerate(row) if c]
                 for row in ideal.basis_rows()]
        layer = [(s, a_t, p + (ai,)) for s, t, p in layer
                 for ai, (_l, a_s, a_t) in enumerate(arrows) if a_s == t]
    else:
        raise ValidationError(
            f"arrow ideal not nilpotent within bound {q.nilpotency_bound}: "
            "quotient not witnessed finite-dimensional")

    basis[:0] = [(v, v, ()) for v in range(q.vertices)]
    forms.update(((v, ()), ((v, field.one),)) for v in range(q.vertices))
    rows = [[forms.get((s1, p1 + p2), ()) if t1 == s2 else ()
             for s2, _t2, p2 in basis] for s1, t1, p1 in basis]
    unit = [field.zero if p else field.one for _s, _t, p in basis]
    labels = [".".join(arrows[ai][0] for ai in p) if p else f"e{s + 1}"
              for s, _t, p in basis]
    return FiniteDimAlgebra.trusted(field, rows, unit, labels=labels,
                                    name=name or "kQ/I")


# -- quotients ---------------------------------------------------------------

def quotient_algebra(a: FiniteDimAlgebra, ideal_space: Subspace,
                     name=None) -> tuple[FiniteDimAlgebra, Matrix, Matrix]:
    """Quotient by a two-sided ideal: (quotient, projection, linear section),
    the two maps as matrices on row vectors (``apply_vec``).

    The quotient basis is the canonical coordinate complement of the
    ideal's pivot columns, so equal ideals give identical quotients.  The
    section picks the complement-coordinate coset representative; it is a
    linear splitting of the projection, not a ring map.
    """
    f = a.field
    if ideal_space.ambient != a.dim:
        raise ValidationError("ideal lives in the wrong algebra")
    if ideal_space.dim == a.dim:
        raise ValidationError("cannot quotient by the whole algebra")
    comp = ideal_space.complement_coords()

    def project(vec):
        red = ideal_space.reduce(vec)
        return tuple(red[j] for j in comp)

    rows = [[_sparse(project(a.basis_product(i, j))) for j in comp] for i in comp]
    labels = [a.labels[j] + "~" for j in comp]
    quot = FiniteDimAlgebra.trusted(f, rows, project(a.unit), labels=labels,
                                    name=name or a.name + "/I")
    proj = ideal_space.complement_projection_matrix()
    section = Matrix.trusted(f, tuple(a.basis_coords(j) for j in comp), a.dim)
    return quot, proj, section


def generator_multiplications(a: FiniteDimAlgebra):
    """Right, then left, multiplication by each generator.

    A subspace V has V b_g in V for every generator g iff V A is in V: the
    words in the generators span A, and V w is in V letter by letter.  The
    same holds on the left.  So V is a two-sided ideal exactly when
    ``V.is_stable(generator_multiplications(a))``.
    """
    gens = a.generators()
    return [a.right_mult_by(g) for g in gens] + [a.left_mult_by(g) for g in gens]


def ideal_closure(a: FiniteDimAlgebra, seeds) -> Subspace:
    """Smallest two-sided ideal subspace containing the seed elements."""
    return spin(a.field, a.dim, seeds, generator_multiplications(a))


def subspace_product(a: FiniteDimAlgebra, s: Subspace, t: Subspace) -> Subspace:
    """Span of pairwise products s*t (not closed to an ideal): the rows of
    s R_v over the basis rows v of t, packed over F_2."""
    red = RowReducer(a.field, a.dim)
    for v in t.basis_rows():
        red.extend(s.mat * a.right_mult_matrix(v))
    return red.subspace()


def nilpotent_generators(a: FiniteDimAlgebra, space: Subspace):
    """(G, index) for a nilpotent two-sided ideal J = ``space``: G the span
    of J's canonical rows off the pivots of J^2, so J = G + J^2, and the
    least k with J^k = 0.  Anything else is refused.

    J is checked two-sided and A G = J (the spin of G under the left
    multiplications by the generators); then J^(k+1) = J^k G, so the Loewy
    series runs from J^2 until it reaches 0 or a step does not shrink it
    (docs/derivations.md, "Nakayama generators").
    """
    if not space.is_stable(generator_multiplications(a)):
        raise ValidationError("radical computation produced a non-ideal")
    power = subspace_product(a, space, space)
    gens = Subspace.from_vectors(a.field, a.dim, [row for pc, row in zip(
        space.pivots, space.basis_rows()) if pc not in power.pivots])
    left = [a.left_mult_by(g) for g in a.generators()]
    # A G = J, which G = J satisfies without a spin.
    ok = gens.dim == space.dim or spin(a.field, a.dim, gens.basis_rows(), left) == space
    index = 2 if space.dim else 1
    while ok and power.dim:
        step = subspace_product(a, power, gens)         # J^(k+1) = J^k G
        ok = step.dim < power.dim
        power, index = step, index + 1
    if not ok:
        raise ValidationError("radical computation produced a non-nilpotent space")
    return gens, index


# -- Jacobson radical --------------------------------------------------------

def jacobson_radical(a: FiniteDimAlgebra) -> Subspace:
    """Radical as a subspace: nilpotent two-sided ideal with semisimple quotient.

    One chain of kernels, started at the whole algebra: step 0 keeps the
    radical of the trace bilinear form of the regular representation,
    which is J in characteristic zero.  Over F_p that form can be
    degenerate, so steps i >= 1 shrink the kernel by the lifted trace
    functions z -> tr(M_z^{p^i}) / p^i mod p on integer lifts M_z of left
    multiplication, powered on sparse rows; each step is linear algebra on
    the previous ideal.  The result is post-validated: two-sided,
    generated by G on the left and nilpotent (``nilpotent_generators``),
    and the quotient's own chain must vanish.  G is kept with the radical
    (``radical_generators``), and the checked quotient as the algebra's
    semisimple quotient, with its zero radical recorded.  The opposite
    algebra of a pair reads the radical and G off its partner
    (J(A^op) = J(A)).
    """
    st = a.structure
    if st.radical is None and st.mirror:
        st.radical = jacobson_radical(st.opposite)
        st.radical_generators = st.opposite.structure.radical_generators
    if st.radical is not None:
        return st.radical
    rad = _radical_space(a)
    gens = nilpotent_generators(a, rad)[0]
    if rad.dim == a.dim:
        raise ValidationError("radical cannot be the whole unital algebra")
    # J = 0: the quotient is a itself, whose chain has just been seen to vanish.
    st.quotient = (a, None, None) if rad.dim == 0 else quotient_algebra(a, rad)
    quot = st.quotient[0]
    if quot is not a:
        if _radical_space(quot).dim != 0:
            raise ValidationError("radical quotient is not semisimple")
        qs = quot.structure
        qs.radical = qs.radical_generators = Subspace.zero(a.field, quot.dim)
        qs.quotient = (quot, None, None)
    st.radical, st.radical_generators = rad, gens
    return rad


def radical_generators(a: FiniteDimAlgebra) -> Subspace:
    """G, which generates J on both sides: A G = J = G A.  Filled with the
    radical by ``jacobson_radical``."""
    jacobson_radical(a)
    return a.structure.radical_generators


def semisimple_quotient(a: FiniteDimAlgebra):
    """(a/J, projection, section), the maps as matrices on row vectors, or
    (a, None, None) when J = 0; built once.

    The radical's self-check builds it; an opposite, which reads its
    radical off its partner, builds it here.
    """
    st = a.structure
    rad = jacobson_radical(a)
    if st.quotient is None:
        st.quotient = (a, None, None) if rad.dim == 0 else quotient_algebra(a, rad)
    return st.quotient


def _radical_space(a: FiniteDimAlgebra) -> Subspace:
    """The chain of trace kernels started at the whole algebra."""
    return _trace_kernel_chain(a, Subspace.full(a.field, a.dim))


def _trace_kernel_chain(a, current: Subspace) -> Subspace:
    """I_0, ..., I_level from I_{-1} = ``current``, the whole algebra for
    the radical: step i keeps the x of I_{i-1} with g_i(x b_j) = 0 for
    every j (docs/derivations.md).

    g_0(z) = tr(L_z) is read off the constants, tr(L_k) = sum_r c_krr, and
    level = 0 in characteristic zero.  Over F_p, level is least with
    p^level >= d, and for i >= 1, g_i(z) = tr(L_z^{p^i}) / p^i mod p on
    integer lifts, linear on I_{i-1}, so it is evaluated only on the basis
    of I_{i-1}: a vector of I_{i-1} has as its coordinates in that
    canonical basis its entries at the pivots, so there g_i is
    v -> sum_t v[pivot_t] g_i(u_t).  Once I_{i-1} is checked to be a right
    ideal (I_{-1} is the algebra), all g_i(u b_j) are one product of its
    basis with the matrix of these values on the b_k b_j.  The
    divisibility by p^i is checked, so a violated hypothesis fails loudly
    instead of corrupting the kernel.
    """
    f = a.field
    p = f.char
    d = a.dim
    level = 0
    while p and p ** level < d:
        level += 1

    for i in range(level + 1):
        if current.dim == 0:
            break
        if i == 0:
            g = [sum((c for r, row in enumerate(plane) for m, c in row if m == r),
                     f.zero) for plane in a.rows]
        elif not current.is_stable([a.right_mult_by(j) for j in a.generators()]):
            raise ValidationError("lifted-trace ideal is not a right ideal")
        else:
            g = [0] * d
            for pc, u in zip(current.pivots, current.basis_rows()):
                # Row r of L_u holds u b_r = sum_t u_t b_t b_r.
                nz = [(t, ut) for t, ut in enumerate(u) if ut]
                lu = [_sparse_sum(((ut, a.rows[t][r]) for t, ut in nz), p)
                      for r in range(d)]
                g[pc] = _lifted_trace(lu, p, i)
        # Row k holds g_i(b_k b_j) for every j, the constants read through g.
        values = Matrix.trusted(f, tuple(
            tuple(f.row_scale(f.one, [sum((c * g[m] for m, c in row), f.zero)
                                      for row in plane]))
            for plane in a.rows), d)
        kern = (current.mat * values).left_kernel()
        vecs = [apply_vec(z, current.mat) for z in kern.rows]
        current = Subspace.from_vectors(f, d, vecs)
    return current


def _sparse_sum(terms, m: int):
    """The nonzero (k, c) entries, c reduced into [0, m), of the sum of
    e * row over the pairs (e, row) of ``terms``, each row sparse."""
    acc = {}
    for e, row in terms:
        for k, c in row:
            acc[k] = acc.get(k, 0) + e * c
    return [(k, c % m) for k, c in acc.items() if c % m]


def _lifted_trace(rows, p: int, i: int) -> int:
    """tr(M^(p^i)) / p^i mod p for the integer matrix M whose row r holds
    the nonzero entries (k, c) listed in ``rows[r]``.

    Only tr mod p^(i+1) is needed, and reduction mod m = p^(i+1) is a ring
    map, so every product is reduced mod m.  Row r of A B sums A[r][t]
    times row t of B over the nonzero A[r][t] only.
    """
    m = p ** (i + 1)

    def times(x, y):
        return [_sparse_sum(((e, y[t]) for t, e in row), m) for row in x]

    power, base, e = None, rows, p ** i
    while e:
        if e & 1:
            power = base if power is None else times(power, base)
        e >>= 1
        if e:
            base = times(base, base)
    trace = sum(c for t, row in enumerate(power) for k, c in row if k == t)
    q, r = divmod(trace % m, p ** i)
    if r:
        raise ValidationError("lifted trace not divisible as expected")
    return q


# -- Wedderburn decomposition ------------------------------------------------

@dataclass
class WedderburnBlock:
    """One simple block B of a semisimple algebra: a two-sided ideal, and
    a direct factor, of the parent."""
    idempotent: tuple              # central idempotent in the parent, B's unit
    space: Subspace                # the block as a subspace of the parent
    center: Subspace               # Z(B), the block's meet with Z(parent)


def wedderburn_blocks(a: FiniteDimAlgebra) -> list[WedderburnBlock]:
    """Central primitive idempotent decomposition of a semisimple algebra.

    Over F_p the blocks are cut by central idempotents read off Euler's
    criterion, with no polynomial factored (``_euler_blocks``).  Over Q
    each central basis element splits the components by the factors of
    its minimal polynomial, and the rational refinement splits or
    certifies what is left.  Each component is checked to be a two-sided
    ideal of a, its projection of 1 a central idempotent, and the
    idempotents orthogonal.
    """
    st = a.structure
    if st.blocks is not None:
        return st.blocks
    if jacobson_radical(a).dim:
        raise ValidationError("wedderburn decomposition needs a semisimple algebra")
    f = a.field
    d = a.dim
    center = a.center()

    if f.is_finite():
        components = [(comp, _block_center(comp, center))
                      for comp in _euler_blocks(a, center)]
    else:
        components = [Subspace.full(f, d)]
        for lz in map(a.left_mult_matrix, center.basis_rows()):
            components = [s for c in components for s in _split(c, lz)]
        components = _refine_rational_components(a, components, center)
    components.sort(key=lambda c: (c[0].dim, c[0].mat.rows))

    # The unit decomposes along the components into the block idempotents.
    stacked = Matrix(f, [r for c, _z in components for r in c.basis_rows()], d)
    coeffs = stacked.solve_left(a.unit)
    if coeffs is None:
        raise ValidationError("unit does not decompose along components")
    out = []
    offset = 0
    both_sides = generator_multiplications(a)
    for comp, zc in components:
        e = apply_vec(coeffs[offset:offset + comp.dim], comp.mat)
        offset += comp.dim
        if not comp.is_stable(both_sides):
            raise ValidationError("component is not a two-sided ideal")
        if a.mul(e, e) != e:
            raise ValidationError("component projection of 1 is not idempotent")
        if not center.contains_vector(e):
            raise ValidationError("block idempotent is not central")
        out.append(WedderburnBlock(e, comp, zc))

    if sum(b.space.dim for b in out) != a.dim:
        raise ValidationError("block dimensions do not sum to the algebra dimension")
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if not vec_is_zero(f, a.mul(out[i].idempotent, out[j].idempotent)):
                raise ValidationError("block idempotents are not orthogonal")
    st.blocks = out
    return out


def _block_center(comp, center):
    """Z(B) = B meet Z(A) for a block B of A: B is a direct factor, so what
    commutes with B commutes with A.  A one-dimensional block is its own."""
    return comp if comp.dim == 1 else comp.intersect(center)


def _refine_rational_components(a, components, center):
    """Split or certify rational components whose center might not be a
    field: (block, its center) pairs."""
    out = []
    queue = list(components)
    while queue:
        comp = queue.pop()
        if comp.dim == 0:
            continue
        zc = _block_center(comp, center)
        pieces = None if zc.dim <= 1 else \
            _try_split_rational_component(a, comp, zc)
        if pieces is None:
            out.append((comp, zc))
        else:
            queue.extend(pieces)
    return out


def _try_split_rational_component(a, comp, zc):
    """Pieces of a splittable component, or None once its center is a field.

    A generic element of an etale Q-algebra is primitive, so small
    deterministic combinations of the central basis either exhibit a
    reducible minimal polynomial (split) or reach full degree (field).
    """
    f = a.field
    basis = list(zc.basis_rows())
    candidates = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            candidates.append(vec_add(f, basis[i], basis[j]))
    for w in range(2, 9):
        weights = [f.scalar(w ** i) for i in range(len(basis))]
        candidates.append(apply_vec(weights, zc.mat))
    for z in candidates:
        deg, factors, pieces = factor_minimal_polynomial(
            comp, a.left_mult_matrix(z))
        if factors is None:
            continue
        if any(m > 1 for _fac, m in factors):
            raise ValidationError("central element acts non-semisimply in a block")
        if len(factors) > 1:
            return _filling(comp, pieces)
        if deg == zc.dim:
            return None
    raise CapabilityError(
        "cannot split or certify a rational block center at desk scale")


def _euler_blocks(a, center):
    """The blocks of a semisimple F_p-algebra, cut by central idempotents
    read off Euler's criterion (docs/derivations.md, "Blocks over F_p by
    Euler's criterion").

    The fixed centre {z central : z^p = z} is F_p^r, one factor per block,
    so each fixed z acts on a block as a scalar c.  For shifts s = 0, 1,
    ... and each fixed z, w = (z + s)^((p-1)/2) acts on each block as 0, 1
    or -1, so 1 - w^2, (w^2 + w)/2 and (w^2 - w)/2 are central idempotents
    summing to 1 (over F_2, where w = z + s: 1 - w, w and 0).  Their
    products with the idempotents found so far cut those until there are
    r, one per block; s = -c separates c from every other scalar, so the
    loop ends before the shifts run out.  The shifts are generated one at
    a time, so a large p costs only the shifts used.  Block B is the image
    of its idempotent e: B = A e.
    """
    f, p, one = a.field, a.field.p, a.unit
    frobenius = Matrix(f, [vec_sub(f, a.power(z, p), z)
                           for z in center.basis_rows()], a.dim)
    fixed = [apply_vec(c, center.mat) for c in frobenius.left_kernel().rows]
    shifted = (vec_add(f, z, vec_scale(f, s, one))
               for s in range(p) for z in fixed)
    idempotents = [one]
    while len(idempotents) < len(fixed):
        w = a.power(next(shifted), p // 2)
        u = a.mul(w, w)
        # (p + 1) / 2 is the inverse of 2 modulo an odd p.
        e = u if p == 2 else vec_scale(f, (p + 1) // 2, vec_add(f, u, w))
        cuts = [a.right_mult_matrix(c)
                for c in (vec_sub(f, one, u), e, vec_sub(f, u, e))]
        idempotents = [x for g in idempotents for r in cuts
                       if any(x := apply_vec(g, r))]
    return [Subspace.from_vectors(f, a.dim, a.right_mult_matrix(e).rows)
            for e in idempotents]


def factor_minimal_polynomial(space: Subspace, op: Matrix):
    """The minimal polynomial of op on the op-stable space, factored.

    Returns (degree, factors, pieces): factors are the (irreducible,
    multiplicity) pairs, or None where the polynomial cannot be factored;
    pieces yields lazily, factor by factor, the kernel of factor(op) in
    space, which is space itself, taken without computing, when the
    polynomial is one irreducible factor.  The powers of op are computed
    once: the first row of the left kernel of their flattened stack is the
    first power that depends on those before it, which gives the monic
    minimal polynomial, and each factor of op is combined from them
    (docs/derivations.md, "The minimal polynomial from one kernel").

    The rational blocks and the rational right-ideal candidates of
    ``modules`` call it; blocks over F_p are cut without a polynomial
    (``_euler_blocks``).
    """
    from .commutative import factor_polynomial
    f = space.field
    restricted = space.restrict(op)
    if restricted is None:
        raise ValidationError("operator does not preserve the subspace")
    n = restricted.nrows
    powers = [Matrix.identity(f, n)]
    for _ in range(n):
        powers.append(powers[-1] * restricted)
    flat = Matrix.trusted(f, tuple(tuple(x for row in p.rows for x in row)
                                   for p in powers), n * n)
    relation = flat.left_kernel().rows[0]
    deg = max(i for i, c in enumerate(relation) if c)
    minpoly = relation[:deg + 1]
    try:
        factors = factor_polynomial(f, minpoly)
    except CapabilityError:
        return deg, None, ()

    def kernel(fac):
        kern = combine_matrices(f, n, fac, powers).left_kernel()
        return Subspace.from_vectors(f, space.ambient,
                                     [apply_vec(c, space.mat) for c in kern.rows])

    whole = len(factors) == 1 and factors[0][1] == 1
    return deg, factors, (space if whole else kernel(fac)
                          for fac, _m in factors)


def _split(comp, op):
    """comp cut by the kernels of the factors of op's minimal polynomial on
    it; comp itself when that is irreducible or cannot be factored."""
    if comp.dim <= 1:
        return [comp]
    _deg, factors, pieces = factor_minimal_polynomial(comp, op)
    return _filling(comp, pieces) if factors and len(factors) > 1 else [comp]


def _filling(comp, pieces):
    """The kernels of coprime factors, which must fill comp exactly."""
    pieces = list(pieces)
    if sum(p.dim for p in pieces) != comp.dim:
        raise ValidationError("block splitting lost dimensions")
    return pieces
