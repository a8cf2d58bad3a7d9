"""Exact linear algebra over Q and prime fields F_p.

Everything downstream (algebras, ideals, modules, spectra) reduces to the
three primitives here: reduced row echelon form, canonical subspaces, and
closure of a set of vectors under linear operators (``spin``).  All values
are immutable and all operations are pure, so results can be hashed and
deduplicated; two equal subspaces have identical representations.

Vectors are tuples of scalars, acting as row vectors: a matrix acts on the
right, ``w = apply_vec(v, m)``.  Scalars are ``fractions.Fraction`` over Q
and plain ints in ``[0, p)`` over F_p; the field object mediates all
arithmetic so no floating point can sneak in.

The kernels work a row at a time: ``axpy`` and ``row_scale`` are the field's
row operations, so a field is consulted once per row, not once per scalar.
Zero is falsy in both fields, which the kernels use to skip zero entries.
Scalars are coerced once, where they enter: ``Matrix(field, rows)`` coerces,
and results computed here from field scalars go through ``Matrix.trusted``,
as do the vectors ``Subspace.from_vectors`` spans.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


class GF:
    """Prime field F_p with residues stored as ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1

    def scalar(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.p - 2, self.p)

    def axpy(self, u, c, v):
        """The row u + c*v as a list."""
        p = self.p
        return [(a + c * b) % p for a, b in zip(u, v)]

    def row_scale(self, c, v):
        """The row c*v as a list."""
        p = self.p
        return [c * b % p for b in v]

    def is_finite(self):
        return True

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The field Q, scalars are always-reduced fractions."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def scalar(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def axpy(self, u, c, v):
        """The row u + c*v as a list; zero entries of v cost no product."""
        return [a + c * b if b else a for a, b in zip(u, v)]

    def row_scale(self, c, v):
        """The row c*v as a list."""
        return [c * b if b else b for b in v]

    def is_finite(self):
        return False

    def elements(self):
        raise ValueError("Q is infinite")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()

F2 = GF(2)
F3 = GF(3)


def field_by_name(name: str):
    name = name.strip()
    if name in ("Q", "QQ", "0"):
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return GF(int(name[1:]))
    raise ValueError(f"unknown field {name!r} (expected Q or F<p>)")


def field_name(field) -> str:
    return "Q" if field == QQ else f"F{field.p}"


# -- vector helpers ----------------------------------------------------------

def vec_add(field, u, v):
    return tuple(field.axpy(u, field.one, v))

def vec_sub(field, u, v):
    return tuple(field.axpy(u, field.neg(field.one), v))

def vec_scale(field, c, v):
    return tuple(field.row_scale(c, v))

def vec_is_zero(field, v):
    return not any(v)

def zero_vec(field, n):
    return (field.zero,) * n

def unit_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


class Matrix:
    """Immutable exact matrix; rows of scalars."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows: Sequence[Sequence], ncols: int | None = None):
        rows = tuple(tuple(map(field.scalar, r)) for r in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def trusted(cls, field, rows: tuple, ncols: int):
        """The matrix on ``rows``, a tuple of equal-length tuples that already
        hold scalars of ``field``, taken as they are."""
        m = object.__new__(cls)
        m.field, m.rows, m.nrows, m.ncols = field, rows, len(rows), ncols
        return m

    @classmethod
    def identity(cls, field, n):
        return cls.trusted(field, tuple(unit_vec(field, n, i) for i in range(n)), n)

    @classmethod
    def zero(cls, field, r, c):
        return cls.trusted(field, (zero_vec(field, c),) * r, c)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    def is_zero(self):
        f = self.field
        return all(vec_is_zero(f, r) for r in self.rows)

    def is_square(self):
        return self.nrows == self.ncols

    def __add__(self, other):
        f = self.field
        return Matrix.trusted(f, tuple(vec_add(f, a, b)
                                       for a, b in zip(self.rows, other.rows)),
                              self.ncols)

    def __sub__(self, other):
        f = self.field
        return Matrix.trusted(f, tuple(vec_sub(f, a, b)
                                       for a, b in zip(self.rows, other.rows)),
                              self.ncols)

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c):
        f = self.field
        c = f.scalar(c)
        return Matrix.trusted(f, tuple(vec_scale(f, c, r) for r in self.rows),
                              self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        return Matrix.trusted(self.field,
                              tuple(apply_vec(r, other) for r in self.rows),
                              other.ncols)

    def transpose(self):
        if self.nrows == 0:
            return Matrix.trusted(self.field, ((),) * self.ncols, 0)
        return Matrix.trusted(self.field, tuple(zip(*self.rows)), self.nrows)

    def stack(self, other):
        if self.ncols != other.ncols:
            raise ValueError("column mismatch in stack")
        return Matrix.trusted(self.field, self.rows + other.rows, self.ncols)

    def rref(self):
        """Unique reduced row echelon form: (matrix, pivot columns)."""
        f = self.field
        rows = [list(r) for r in self.rows]
        n = len(rows)
        pivots = []
        pr = 0
        for pc in range(self.ncols):
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
        return Matrix.trusted(f, tuple(map(tuple, rows)), self.ncols), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def right_kernel(self):
        """Basis (as rows) of {x : self @ x^T = 0}, i.e. column relations."""
        f = self.field
        r, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for j in free:
            v = [f.zero] * self.ncols
            v[j] = f.one
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(r.rows[i][j])
            basis.append(tuple(v))
        return Matrix.trusted(f, tuple(basis), self.ncols)

    def left_kernel(self):
        """Basis (as rows) of {v : v @ self = 0}."""
        return self.transpose().right_kernel()

    def solve_left(self, b):
        """Some x with x @ self = b, or None. b is a row vector."""
        f = self.field
        aug = Matrix(f, [list(r) + [bi] for r, bi in
                         zip(self.transpose().rows, b)], self.nrows + 1)
        r, pivots = aug.rref()
        if self.nrows in pivots:
            return None
        x = [f.zero] * self.nrows
        for i, pc in enumerate(pivots):
            x[pc] = r.rows[i][-1]
        return tuple(x)

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        f = self.field
        rows = [list(r) for r in self.rows]
        n = self.nrows
        det = f.one
        for c in range(n):
            piv = None
            for r in range(c, n):
                if rows[r][c] != f.zero:
                    piv = r
                    break
            if piv is None:
                return f.zero
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                det = f.neg(det)
            det = f.mul(det, rows[c][c])
            inv = f.inv(rows[c][c])
            for r in range(c + 1, n):
                if rows[r][c]:
                    rows[r] = f.axpy(rows[r], f.neg(f.mul(rows[r][c], inv)), rows[c])
        return det

    def is_invertible(self):
        return self.is_square() and self.rank() == self.nrows

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        f = self.field
        n = self.nrows
        aug = Matrix.trusted(f, tuple(r + unit_vec(f, n, i)
                                      for i, r in enumerate(self.rows)), 2 * n)
        r, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise ValueError("matrix not invertible")
        return Matrix.trusted(f, tuple(row[n:] for row in r.rows), n)

    def trace(self):
        f = self.field
        t = f.zero
        for i in range(min(self.nrows, self.ncols)):
            t = f.add(t, self.rows[i][i])
        return t


def apply_vec(v, m: Matrix):
    """Row vector times matrix, as the combination of m's rows by v."""
    f = m.field
    out = [f.zero] * m.ncols
    for vi, row in zip(v, m.rows):
        if vi:
            out = f.axpy(out, vi, row)
    return tuple(out)


class RowReducer:
    """Incremental echelon accumulator used by spin and enumerations."""

    def __init__(self, field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.rows = []     # echelon rows, pivot normalized to 1
        self.pivots = []   # pivot column of each row

    def reduce(self, v):
        """Normal form of v: zero in every pivot column.

        A row is zero in the pivot columns of the rows inserted before it,
        so clearing the pivots in insertion order never refills one.
        """
        f = self.field
        for pc, row in zip(self.pivots, self.rows):
            c = v[pc]
            if c:
                v = f.axpy(v, f.neg(c), row)
        return tuple(v)

    def add(self, v) -> bool:
        """Insert v; True if it enlarged the span."""
        f = self.field
        v = self.reduce(v)
        for pc, x in enumerate(v):
            if x:
                self.pivots.append(pc)
                self.rows.append(tuple(f.row_scale(f.inv(x), v)))
                return True
        return False

    def contains(self, v) -> bool:
        return vec_is_zero(self.field, self.reduce(v))

    def dim(self):
        return len(self.rows)

    def subspace(self):
        return Subspace.from_vectors(self.field, self.ambient, self.rows)


class Subspace:
    """Subspace of k^n in canonical form: rref basis, full row rank.

    Canonicality is load bearing: equality and hashing of ideals and
    submodules throughout the package is representation equality here.
    """

    __slots__ = ("field", "ambient", "mat", "pivots")

    def __init__(self, field, ambient: int, mat: Matrix, pivots):
        self.field = field
        self.ambient = ambient
        self.mat = mat
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors: Iterable):
        """The span of vectors of length ambient holding scalars of field,
        taken as they are (coerce outside input with ``Matrix`` first)."""
        m = Matrix.trusted(field, tuple(map(tuple, vectors)), ambient)
        r, pivots = m.rref()
        rows = r.rows[:len(pivots)]
        return cls(field, ambient, Matrix.trusted(field, rows, ambient), pivots)

    @classmethod
    def zero(cls, field, ambient: int):
        return cls(field, ambient, Matrix.trusted(field, (), ambient), ())

    @classmethod
    def full(cls, field, ambient: int):
        return cls(field, ambient, Matrix.identity(field, ambient),
                   tuple(range(ambient)))

    @property
    def dim(self):
        return self.mat.nrows

    def basis_rows(self):
        return self.mat.rows

    def reduce(self, v):
        """Normal form of v modulo this subspace (zero iff v belongs)."""
        f = self.field
        for pc, row in zip(self.pivots, self.mat.rows):
            c = v[pc]
            if c:
                v = f.axpy(v, f.neg(c), row)
        return tuple(v)

    def contains_vector(self, v):
        return vec_is_zero(self.field, self.reduce(v))

    def contains(self, other: "Subspace"):
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(r) for r in other.mat.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.mat == other.mat)

    def __hash__(self):
        return hash((self.field, self.ambient, self.mat))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient} over {self.field})"

    def sum(self, other: "Subspace"):
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.field, self.ambient,
                                     self.mat.rows + other.mat.rows)

    def intersect(self, other: "Subspace"):
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        stacked = self.mat.stack(other.mat)
        rels = stacked.left_kernel()
        vecs = [apply_vec(z[:self.dim], self.mat) for z in rels.rows]
        return Subspace.from_vectors(self.field, self.ambient, vecs)

    def meets(self, other: "Subspace") -> bool:
        """True when the intersection with other is nonzero.

        dim(S & T) = dim S + dim T - dim(S + T): the intersection is
        nonzero exactly when some basis row of T is dependent on the rows
        of S and the rows of T before it.
        """
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        red = RowReducer(self.field, self.ambient)
        # Canonical rows are zero in each other's pivot columns, as the
        # reducer's rows must be.
        red.rows, red.pivots = list(self.mat.rows), list(self.pivots)
        return not all(red.add(v) for v in other.mat.rows)

    def coords_of(self, v):
        """Coefficients of v in the canonical basis, or None."""
        f = self.field
        coords = [f.zero] * self.dim
        for i, (pc, row) in enumerate(zip(self.pivots, self.mat.rows)):
            c = v[pc]
            if c:
                coords[i] = c
                v = f.axpy(v, f.neg(c), row)
        if any(v):
            return None
        return tuple(coords)

    def complement_coords(self):
        """Non-pivot columns: coordinates of the canonical complement."""
        return tuple(j for j in range(self.ambient) if j not in self.pivots)

    def complement_projection_matrix(self) -> Matrix:
        """Matrix of v -> coordinates of v mod this subspace (row action)."""
        comp = self.complement_coords()
        rows = []
        for i in range(self.ambient):
            red = self.reduce(unit_vec(self.field, self.ambient, i))
            rows.append(tuple(red[j] for j in comp))
        return Matrix.trusted(self.field, tuple(rows), len(comp))

    def vectors(self):
        """All vectors of the subspace (finite fields only)."""
        f = self.field
        if not f.is_finite():
            raise ValueError("cannot enumerate over an infinite field")
        vecs = [zero_vec(f, self.ambient)]
        for row in self.mat.rows:
            vecs = [vec_add(f, v, vec_scale(f, c, row))
                    for v in vecs for c in f.elements()]
        return vecs


def common_left_kernel(field, n: int, mats: Iterable[Matrix]) -> Subspace:
    """{v in k^n : v m = 0 for every m}; all of k^n when there is no m.

    v m = 0 says v is orthogonal to every column of m, so the answer is
    the right kernel of the matrix whose rows are all the columns.
    """
    cols = [c for m in mats for c in zip(*m.rows)]
    if not cols:
        return Subspace.full(field, n)
    return Subspace.from_vectors(field, n,
                                 Matrix.trusted(field, tuple(cols), n).right_kernel().rows)


def spin(field, ambient: int, seeds: Iterable, operators: Sequence[Matrix]) -> Subspace:
    """Smallest subspace containing seeds and stable under every operator.

    Worklist closure; terminates because the dimension can only grow and is
    bounded by the ambient dimension.
    """
    for op in operators:
        if op.nrows != ambient or op.ncols != ambient:
            raise ValueError("operator of wrong dimension in spin")
    red = RowReducer(field, ambient)
    work = []
    for s in seeds:
        if red.add(s):
            work.append(red.rows[-1])
    while work:
        v = work.pop()
        for op in operators:
            w = apply_vec(v, op)
            if red.add(w):
                work.append(red.rows[-1])
    return red.subspace()
