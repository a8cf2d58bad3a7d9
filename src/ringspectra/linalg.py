"""Exact linear algebra over Q and prime fields F_p.

Everything downstream (algebras, ideals, modules, spectra) reduces to the
three primitives here: reduced row echelon form, canonical subspaces, and
closure of a set of vectors under linear operators (``spin``).  All three
come from one echelon routine, the incremental ``RowReducer``, whose rows
are kept fully reduced: ``Matrix.rref`` and ``rank``,
``Subspace.from_vectors`` and ``spin`` read it, in both row formats.  All
values are immutable and all operations are pure, so results can be
hashed and deduplicated; two equal subspaces have identical
representations.

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

Over F_2 the kernels hold rows packed into Python ints (``pack``): bit j is
coordinate j, adding rows is XOR and a pivot test is a bit test.  Only this
module sees that format.  Every row handed out is still a tuple, a
``Matrix`` keeps its packed rows in a cache beside ``rows``, and canonical
form, equality and hashing read the tuples as before
(docs/derivations.md, "Packed rows over F_2").  Other fields keep tuple rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, compress, repeat
from operator import and_, xor
from typing import Iterable, Sequence

from .errors import CapabilityError


# The Miller-Rabin bases.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to all 13 bases (Sorenson and Webster,
# Math. Comp. 86, 2017): below it, passing every base certifies a prime.
PSI_13 = 3317044064679887385961981


def shown(m: int) -> str:
    """m in decimal, or its size when it is too long to print."""
    return str(m) if m.bit_length() <= 256 else f"a {m.bit_length()}-bit number"


def is_certified_prime(m: int, charge=None) -> bool:
    """Whether m, odd and free of the primes in MR_BASES, is prime.

    A base that is a witness proves m composite; passing all 13 bases
    proves m prime below psi_13, and above it ``CapabilityError`` is
    raised.  ``charge()``, when given, runs before each base.
    """
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s
    for a in MR_BASES:
        if charge is not None:
            charge()
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= PSI_13:
        raise CapabilityError(
            f"{shown(m)} passes Miller-Rabin to the bases 2..41 but is at "
            f"least psi_13 = {PSI_13}, so it is not certified prime")
    return True


class GF:
    """Prime field F_p with residues stored as ints in [0, p)."""

    def __init__(self, p: int):
        """A composite p raises ValueError and a p that Miller-Rabin cannot
        certify ``CapabilityError``.  Below 43^2 a p free of the bases is
        prime, so a small field costs at most 13 remainders."""
        if p < 2 or any(p % b == 0 for b in MR_BASES if b < p) or not (
                p < 43 * 43 or is_certified_prime(p)):
            raise ValueError(f"modulus {shown(p)} is not prime")
        self.p = p
        self.char = p
        self.packed = p == 2     # rows are packed into ints in the kernels
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
    packed = False
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


# -- packed rows over F_2 ----------------------------------------------------

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_SHORT = 8     # rows this short pack and unpack through two tables of 511
_SHORT_ROWS = tuple(tuple(tuple(x >> j & 1 for j in range(n)) for x in range(1 << n))
                    for n in range(_SHORT + 1))
_SHORT_BITS = {row: x for rows in _SHORT_ROWS for x, row in enumerate(rows)}


def pack(v) -> int:
    """The F_2 row v as an int whose bit j is v[j]."""
    if len(v) <= _SHORT:
        return _SHORT_BITS[tuple(v)]
    return int(bytes(v[::-1]).translate(_TO_DIGITS), 2)


def unpack(x: int, n: int) -> tuple:
    """The F_2 row of length n packed in x, as a tuple of 0s and 1s."""
    if n <= _SHORT:
        return _SHORT_ROWS[n][x]
    return tuple(bin(x | 1 << n)[:2:-1].encode().translate(_FROM_DIGITS))


def _combine_bits(rows, v) -> int:
    """sum_i v[i] rows[i] over F_2, for packed rows and a tuple v."""
    return reduce(xor, compress(rows, v), 0)


def _clear_bits(x: int, rows, pbits) -> int:
    """x with every pivot bit cleared by its row.

    The rows are fully reduced (each is zero at the other rows' pivot
    bits), so the rows to add are read off x before adding any.
    """
    return reduce(xor, compress(rows, map(and_, repeat(x), pbits)), x)


def _append_bits(x: int, rows: list, pbits: list):
    """Append x, already cleared, with its lowest bit as pivot, and clear
    that bit from the other rows."""
    b = x & -x
    rows[:] = [r ^ x if r & b else r for r in rows]
    rows.append(x)
    pbits.append(b)


def _meets_bits(rows, pbits, other) -> bool:
    """The span of fully reduced packed rows meets the span of the
    independent packed rows other: some row of other depends on the rows
    and the rows of other before it (``Subspace.meets``)."""
    rows, pbits = list(rows), list(pbits)
    for x in other:
        x = _clear_bits(x, rows, pbits)
        if not x:
            return True
        _append_bits(x, rows, pbits)
    return False


def _tagged_echelon(bits, w: int):
    """Packed rows of width w, row i packed as [row i | e_i] and reduced
    in order.

    Bits below w hold a row, the bits from w on which of the given rows it
    adds up.  A row that depends on the rows before it is not inserted:
    (rows, pivot bits, the reduced dependent rows), every tag a
    combination of independent rows only.
    """
    rows, pbits, dependent = [], [], []
    for i, x in enumerate(bits):
        y = _clear_bits(x | 1 << (w + i), rows, pbits)
        if y & ((1 << w) - 1):
            _append_bits(y, rows, pbits)
        else:
            dependent.append(y)
    return rows, pbits, dependent


def _clear(field, v, pivots, rows) -> tuple:
    """v with every pivot entry cleared by its row, ``_clear_bits`` for
    tuple rows: the rows are fully reduced, so none refills a pivot."""
    for pc, row in zip(pivots, rows):
        c = v[pc]
        if c:
            v = field.axpy(v, field.neg(c), row)
    return tuple(v)


class Matrix:
    """Immutable exact matrix; rows of scalars.

    Over F_2, ``bits()`` caches the rows packed; a kernel that computes
    packed rows hands them over through ``_from_bits``.
    """

    __slots__ = ("field", "rows", "nrows", "ncols", "_bits")

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
        self._bits = None

    @classmethod
    def trusted(cls, field, rows: tuple, ncols: int):
        """The matrix on ``rows``, a tuple of equal-length tuples that already
        hold scalars of ``field``, taken as they are."""
        m = object.__new__(cls)
        m.field, m.rows, m.nrows, m.ncols, m._bits = field, rows, len(rows), ncols, None
        return m

    @classmethod
    def _from_bits(cls, field, bits, ncols: int):
        """The F_2 matrix whose rows are packed in ``bits``."""
        m = cls.trusted(field, tuple([unpack(x, ncols) for x in bits]), ncols)
        m._bits = tuple(bits)
        return m

    def bits(self) -> tuple:
        """The rows packed (over F_2), computed once."""
        if self._bits is None:
            self._bits = tuple(map(pack, self.rows))
        return self._bits

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

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        if self.field.packed:
            bits = other.bits()
            return Matrix._from_bits(
                self.field, [_combine_bits(bits, r) for r in self.rows], other.ncols)
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
        """Unique reduced row echelon form: (matrix, pivot columns), read
        off a ``RowReducer`` of the rows and padded with zero rows."""
        return RowReducer(self.field, self.ncols).extend(self).echelon(self.nrows)

    def rank(self):
        return RowReducer(self.field, self.ncols).extend(self).dim()

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
        """Basis (as rows) of {v : v @ self = 0}.

        One vector per row i that depends on the rows before it: 1 at i,
        the combination of the independent rows before i giving row i, and
        0 at the other dependent rows (the right kernel of the transpose).
        """
        f = self.field
        if not f.packed:
            return self.transpose().right_kernel()
        w = self.ncols
        return Matrix._from_bits(
            f, [y >> w for y in _tagged_echelon(self._bits or self.bits(), w)[2]],
            self.nrows)

    def solve_left(self, b):
        """Some x with x @ self = b, or None. b is a row vector.

        x is 0 at each row of self that depends on the rows before it.
        """
        f = self.field
        if f.packed:
            rows, pbits, _dependent = _tagged_echelon(self._bits or self.bits(),
                                                      self.ncols)
            y = _clear_bits(pack(b), rows, pbits)
            if y & ((1 << self.ncols) - 1):
                return None
            return unpack(y >> self.ncols, self.nrows)
        aug = Matrix(f, [list(r) + [bi] for r, bi in
                         zip(self.transpose().rows, b)], self.nrows + 1)
        r, pivots = aug.rref()
        if self.nrows in pivots:
            return None
        x = [f.zero] * self.nrows
        for i, pc in enumerate(pivots):
            x[pc] = r.rows[i][-1]
        return tuple(x)


def apply_vec(v, m: Matrix):
    """Row vector times matrix, as the combination of m's rows by v."""
    f = m.field
    if f.packed:
        return unpack(reduce(xor, compress(m._bits or m.bits(), v), 0), m.ncols)
    out = [f.zero] * m.ncols
    for vi, row in zip(v, m.rows):
        if vi:
            out = f.axpy(out, vi, row)
    return tuple(out)


def combine_matrices(field, n: int, coeffs, mats: Sequence[Matrix]) -> Matrix:
    """sum_k coeffs[k] mats[k] for n x n matrices, combined row by row."""
    if field.packed:
        acc = [0] * n
        for c, m in zip(coeffs, mats):
            if c:
                acc = list(map(xor, acc, m.bits()))
        return Matrix._from_bits(field, acc, n)
    rows = [zero_vec(field, n)] * n
    for c, m in zip(coeffs, mats):
        if c:
            rows = [field.axpy(r, c, mr) for r, mr in zip(rows, m.rows)]
    return Matrix.trusted(field, tuple(map(tuple, rows)), n)


class RowReducer:
    """Incremental echelon accumulator behind rref, rank, spans and spin.

    Its rows are fully reduced: each has 1 at its pivot and 0 at the other
    rows' pivots, so a vector is reduced by reading its entries at the
    pivots, and the rows in order of their pivots are the reduced row
    echelon form of their span.  Over F_2 it is a ``_BitReducer``, on
    packed rows.  Given ``start``, a subspace, it begins with that
    subspace's canonical rows.
    """

    def __new__(cls, field, ambient: int, start: "Subspace" = None):
        if cls is RowReducer and field.packed:
            cls = _BitReducer
        return object.__new__(cls)

    def __init__(self, field, ambient: int, start: "Subspace" = None):
        self.field = field
        self.ambient = ambient
        self._rows = list(start.mat.rows) if start else []
        self._pivots = list(start.pivots) if start else []

    def _insert(self, v):
        """Insert v; the row it adds, after clearing the new pivot from the
        other rows, or None."""
        f = self.field
        v = _clear(f, v, self._pivots, self._rows)
        for pc, x in enumerate(v):
            if x:
                row = tuple(f.row_scale(f.inv(x), v))
                self._rows = [tuple(f.axpy(r, f.neg(r[pc]), row)) if r[pc] else r
                              for r in self._rows]
                self._pivots.append(pc)
                self._rows.append(row)
                return row
        return None

    # How the reducer reads rows, matrices and operators: here as they are.
    def _row(self, row):
        return row

    def _rows_of(self, m: Matrix):
        return m.rows

    def _operators(self, mats):
        return mats

    def _image(self, v, op):
        return apply_vec(v, op)

    def add(self, v) -> bool:
        """Insert v; True if it enlarged the span."""
        return bool(self._insert(v))

    def extend(self, m: Matrix) -> "RowReducer":
        """Insert every row of m; the reducer."""
        for x in self._rows_of(m):
            self._insert(x)
        return self

    def contains(self, v) -> bool:
        return vec_is_zero(self.field, _clear(self.field, v, self._pivots, self._rows))

    def dim(self):
        return len(self._rows)

    def close(self, operators: Sequence[Matrix], fresh: Sequence[Matrix] = None):
        """Grow the span until it is stable under every operator.

        The rows held so far are multiplied by the operators in ``fresh``,
        all of them when it is None; each row added on the way by all.
        """
        ops = self._operators(operators)
        by = ops if fresh is None else self._operators(fresh)
        work = [(self._row(r), by) for r in self._rows]
        while work:
            v, by = work.pop()
            for op in by:
                w = self._insert(self._image(v, op))
                if w:
                    work.append((self._row(w), ops))

    def echelon(self, nrows: int = 0):
        """(the rows in order of their pivots above zero rows up to nrows,
        as a matrix; the pivot columns)."""
        pairs = sorted(zip(self._pivots, self._rows))
        rows = [r for _pc, r in pairs] + [zero_vec(self.field, self.ambient)] * (
            nrows - len(pairs))
        return (Matrix.trusted(self.field, tuple(rows), self.ambient),
                tuple(pc for pc, _r in pairs))

    def subspace(self):
        return Subspace(self.field, self.ambient, *self.echelon())


class _BitReducer(RowReducer):
    """The reducer over F_2, on packed rows and their pivot bits, so
    ``_clear_bits`` reduces."""

    def __init__(self, field, ambient: int, start: "Subspace" = None):
        self.field = field
        self.ambient = ambient
        rows, pbits = start._packed() if start else ((), ())
        self._rows, self._pbits = list(rows), list(pbits)

    def _insert(self, x: int) -> int:
        x = _clear_bits(x, self._rows, self._pbits)
        if x:
            _append_bits(x, self._rows, self._pbits)
        return x

    def _row(self, x):
        return unpack(x, self.ambient)

    def _rows_of(self, m: Matrix):
        return m._bits or m.bits()

    def _operators(self, mats):
        return [m.bits() for m in mats]

    def _image(self, v, op):
        return _combine_bits(op, v)

    def add(self, v) -> bool:
        return bool(self._insert(pack(v)))

    def contains(self, v) -> bool:
        return not _clear_bits(pack(v), self._rows, self._pbits)

    def echelon(self, nrows: int = 0):
        pairs = sorted(zip(self._pbits, self._rows))
        bits = [x for _b, x in pairs] + [0] * (nrows - len(pairs))
        return (Matrix._from_bits(self.field, bits, self.ambient),
                tuple(b.bit_length() - 1 for b, _x in pairs))


class Subspace:
    """Subspace of k^n in canonical form: rref basis, full row rank.

    Canonicality is load bearing: equality and hashing of ideals and
    submodules throughout the package is representation equality here.
    Over F_2 the membership kernels read the packed basis (``_packed``);
    rref rows are fully reduced, which ``_clear_bits`` relies on.
    """

    __slots__ = ("field", "ambient", "mat", "pivots", "_bits")

    def __init__(self, field, ambient: int, mat: Matrix, pivots):
        self.field = field
        self.ambient = ambient
        self.mat = mat
        self.pivots = pivots
        self._bits = None

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors: Iterable):
        """The span of vectors of length ambient holding scalars of field,
        taken as they are (coerce outside input with ``Matrix`` first)."""
        red = RowReducer(field, ambient)
        for v in vectors:
            red.add(v)
        return red.subspace()

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

    def _packed(self):
        """(packed basis rows, their pivot bits) over F_2, computed once."""
        if self._bits is None:
            self._bits = (self.mat.bits(), tuple(1 << pc for pc in self.pivots))
        return self._bits

    def reduce(self, v):
        """Normal form of v modulo this subspace (zero iff v belongs)."""
        f = self.field
        if f.packed:
            return unpack(_clear_bits(pack(v), *(self._bits or self._packed())),
                          self.ambient)
        return _clear(f, v, self.pivots, self.mat.rows)

    def contains_vector(self, v):
        if self.field.packed:
            return not _clear_bits(pack(v), *(self._bits or self._packed()))
        return vec_is_zero(self.field, self.reduce(v))

    def contains(self, other: "Subspace"):
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.field.packed:
            rows, pbits = self._packed()
            return not any(_clear_bits(x, rows, pbits) for x in other.mat.bits())
        return all(self.contains_vector(r) for r in other.mat.rows)

    def is_stable(self, mats: Sequence[Matrix]) -> bool:
        """Whether v m lies in this subspace for every basis row v and m in mats."""
        if self.field.packed:
            rows, pbits = self._bits or self._packed()
            ops = [m._bits or m.bits() for m in mats]
            for v in self.mat.rows:
                for op in ops:
                    x = reduce(xor, compress(op, v), 0)
                    if reduce(xor, compress(rows, map(and_, repeat(x), pbits)), x):
                        return False
            return True
        return all(self.contains_vector(apply_vec(v, m))
                   for v in self.mat.rows for m in mats)

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
        return RowReducer(self.field, self.ambient, self).extend(other.mat).subspace()

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
        if self.field.packed:
            return _meets_bits(*self._packed(), other.mat._bits or other.mat.bits())
        red = RowReducer(self.field, self.ambient, self)
        return not all(red.add(v) for v in other.mat.rows)

    def coords_of(self, v):
        """Coefficients of v in the canonical basis, or None.

        Each canonical row is 1 at its pivot and 0 at the others' pivots,
        so coordinate i of a member is v at pivot i."""
        if not self.contains_vector(v):
            return None
        return tuple(map(v.__getitem__, self.pivots))

    def restrict(self, op: Matrix):
        """The matrix of v -> v op on this subspace, in its canonical basis;
        None when op does not map the subspace into itself.  On the whole
        space, whose canonical basis is the identity, that is op."""
        if self.dim == self.ambient:
            return op
        f = self.field
        out = []
        if f.packed:
            rows, pbits = self._bits or self._packed()
            bits, at = op._bits or op.bits(), self.pivots
            for v in self.mat.rows:
                x = reduce(xor, compress(bits, v), 0)
                if reduce(xor, compress(rows, map(and_, repeat(x), pbits)), x):
                    return None
                out.append(tuple(map(unpack(x, self.ambient).__getitem__, at)))
        else:
            for v in self.mat.rows:
                coords = self.coords_of(apply_vec(v, op))
                if coords is None:
                    return None
                out.append(coords)
        return Matrix.trusted(f, tuple(out), self.dim)

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


def common_left_kernel(field, n: int, mats: Iterable[Matrix]) -> Subspace:
    """{v in k^n : v m = 0 for every m}; all of k^n when there is no m.

    v m = 0 for every m says v m' = 0 for the matrix m' whose rows are
    the rows of all the m side by side.
    """
    rows = tuple(tuple(chain.from_iterable(r)) for r in zip(*(m.rows for m in mats)))
    if not rows or not rows[0]:
        return Subspace.full(field, n)
    side_by_side = Matrix.trusted(field, rows, len(rows[0]))
    return Subspace.from_vectors(field, n, side_by_side.left_kernel().rows)


def spin(field, ambient: int, seeds: Iterable, operators: Sequence[Matrix]) -> Subspace:
    """Smallest subspace containing seeds and stable under every operator.

    Worklist closure; terminates because the dimension can only grow and is
    bounded by the ambient dimension.
    """
    for op in operators:
        if op.nrows != ambient or op.ncols != ambient:
            raise ValueError("operator of wrong dimension in spin")
    red = RowReducer(field, ambient)
    for s in seeds:
        red.add(s)
    red.close(operators)
    return red.subspace()
