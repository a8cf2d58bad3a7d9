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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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

    def div(self, a, b):
        return a / b

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
    return tuple(field.add(a, b) for a, b in zip(u, v))

def vec_sub(field, u, v):
    return tuple(field.sub(a, b) for a, b in zip(u, v))

def vec_scale(field, c, v):
    return tuple(field.mul(c, a) for a in v)

def vec_is_zero(field, v):
    return all(a == field.zero for a in v)

def zero_vec(field, n):
    return (field.zero,) * n

def unit_vec(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


class Matrix:
    """Immutable exact matrix; rows of scalars."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows: Sequence[Sequence], ncols: int | None = None):
        rows = tuple(tuple(field.scalar(x) for x in r) for r in rows)
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
    def identity(cls, field, n):
        return cls(field, [unit_vec(field, n, i) for i in range(n)], n)

    @classmethod
    def zero(cls, field, r, c):
        return cls(field, [zero_vec(field, c)] * r, c)

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
        return Matrix(f, [vec_add(f, a, b) for a, b in zip(self.rows, other.rows)],
                      self.ncols)

    def __sub__(self, other):
        f = self.field
        return Matrix(f, [vec_sub(f, a, b) for a, b in zip(self.rows, other.rows)],
                      self.ncols)

    def __neg__(self):
        f = self.field
        return Matrix(f, [vec_scale(f, f.neg(f.one), r) for r in self.rows], self.ncols)

    def scale(self, c):
        f = self.field
        c = f.scalar(c)
        return Matrix(f, [vec_scale(f, c, r) for r in self.rows], self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        f = self.field
        cols = other.transpose().rows
        out = [tuple(_dot(f, r, c) for c in cols) for r in self.rows]
        return Matrix(f, out, other.ncols)

    def transpose(self):
        f = self.field
        if self.nrows == 0:
            return Matrix(f, [()] * self.ncols, 0)
        return Matrix(f, list(zip(*self.rows)), self.nrows)

    def stack(self, other):
        if self.ncols != other.ncols:
            raise ValueError("column mismatch in stack")
        return Matrix(self.field, self.rows + other.rows, self.ncols)

    def rref(self):
        """Unique reduced row echelon form: (matrix, pivot columns)."""
        f = self.field
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            pivot_row = None
            for r in range(pr, len(rows)):
                if rows[r][pc] != f.zero:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            inv = f.inv(rows[pr][pc])
            rows[pr] = [f.mul(inv, x) for x in rows[pr]]
            for r in range(len(rows)):
                if r != pr and rows[r][pc] != f.zero:
                    c = rows[r][pc]
                    rows[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[r], rows[pr])]
            pivots.append(pc)
            pr += 1
        return Matrix(f, rows, self.ncols), tuple(pivots)

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
        return Matrix(f, basis, self.ncols)

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
                if rows[r][c] != f.zero:
                    k = f.mul(rows[r][c], inv)
                    rows[r] = [f.sub(x, f.mul(k, y)) for x, y in zip(rows[r], rows[c])]
        return det

    def is_invertible(self):
        return self.is_square() and self.rank() == self.nrows

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        f = self.field
        n = self.nrows
        aug = Matrix(f, [list(r) + list(unit_vec(f, n, i))
                         for i, r in enumerate(self.rows)], 2 * n)
        r, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise ValueError("matrix not invertible")
        return Matrix(f, [row[n:] for row in r.rows], n)

    def trace(self):
        f = self.field
        t = f.zero
        for i in range(min(self.nrows, self.ncols)):
            t = f.add(t, self.rows[i][i])
        return t


def _dot(field, u, v):
    s = field.zero
    for a, b in zip(u, v):
        if a != field.zero and b != field.zero:
            s = field.add(s, field.mul(a, b))
    return s


def apply_vec(v, m: Matrix):
    """Row vector times matrix, as the combination of m's rows by v."""
    f = m.field
    out = [f.zero] * m.ncols
    for vi, row in zip(v, m.rows):
        if vi != f.zero:
            out = [f.add(o, f.mul(vi, r)) for o, r in zip(out, row)]
    return tuple(out)


class RowReducer:
    """Incremental echelon accumulator used by spin and enumerations."""

    def __init__(self, field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.rows = []     # echelon rows, pivot normalized to 1
        self.pivot_of = {}  # pivot column -> row index

    def reduce(self, v):
        f = self.field
        v = list(v)
        for pc, ri in sorted(self.pivot_of.items()):
            if v[pc] != f.zero:
                c = v[pc]
                row = self.rows[ri]
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def add(self, v) -> bool:
        """Insert v; True if it enlarged the span."""
        f = self.field
        v = list(self.reduce(v))
        for pc, x in enumerate(v):
            if x != f.zero:
                inv = f.inv(x)
                v = [f.mul(inv, y) for y in v]
                self.pivot_of[pc] = len(self.rows)
                self.rows.append(tuple(v))
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
        m = Matrix(field, list(vectors), ambient)
        r, pivots = m.rref()
        rows = [row for row in r.rows if not vec_is_zero(field, row)]
        return cls(field, ambient, Matrix(field, rows, ambient), pivots)

    @classmethod
    def zero(cls, field, ambient: int):
        return cls.from_vectors(field, ambient, [])

    @classmethod
    def full(cls, field, ambient: int):
        return cls.from_vectors(field, ambient,
                                [unit_vec(field, ambient, i) for i in range(ambient)])

    @property
    def dim(self):
        return self.mat.nrows

    def basis_rows(self):
        return self.mat.rows

    def reduce(self, v):
        """Normal form of v modulo this subspace (zero iff v belongs)."""
        f = self.field
        v = list(v)
        for i, pc in enumerate(self.pivots):
            if v[pc] != f.zero:
                c = v[pc]
                row = self.mat.rows[i]
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
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

    def coords_of(self, v):
        """Coefficients of v in the canonical basis, or None."""
        f = self.field
        red = list(v)
        coords = [f.zero] * self.dim
        for i, pc in enumerate(self.pivots):
            if red[pc] != f.zero:
                c = red[pc]
                coords[i] = c
                row = self.mat.rows[i]
                red = [f.sub(x, f.mul(c, y)) for x, y in zip(red, row)]
        if not vec_is_zero(f, red):
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
        return Matrix(self.field, rows, len(comp))

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
    return Subspace.from_vectors(field, n, Matrix(field, cols, n).right_kernel().rows)


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
