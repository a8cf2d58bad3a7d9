"""Two-sided ideals: arithmetic, primeness, radicals, minimal primes.

For a finite-dimensional algebra a proper two-sided ideal P is prime iff
Lambda/P is a simple algebra (prime artinian rings are simple), i.e. iff P
is maximal; the primes are therefore the preimages of the block-killing
ideals of Lambda/J, and ``is_prime`` looks an ideal up among the cached
``minimal_primes``.  The quantifier-over-ideal-pairs
definition survives as the brute-force oracle in ``oracle``; the two are
compared on the full enumerated lattice in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (FiniteDimAlgebra, generator_multiplications,
                       jacobson_radical, semisimple_quotient,
                       subspace_product, wedderburn_blocks)
from .errors import ValidationError
from .linalg import Matrix, Subspace


class TwoSidedIdeal:
    __slots__ = ("algebra", "space")

    def __init__(self, algebra: FiniteDimAlgebra, space: Subspace, validate=True):
        if space.ambient != algebra.dim:
            raise ValidationError("ideal subspace has wrong ambient dimension")
        if validate and not space.is_stable(generator_multiplications(algebra)):
            raise ValidationError("subspace is not a two-sided ideal")
        self.algebra = algebra
        self.space = space

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, Subspace.zero(algebra.field, algebra.dim),
                   validate=False)

    @classmethod
    def whole(cls, algebra):
        return cls(algebra, Subspace.full(algebra.field, algebra.dim),
                   validate=False)

    @property
    def dim(self):
        return self.space.dim

    def is_zero(self):
        return self.space.dim == 0

    def is_whole(self):
        return self.space.dim == self.algebra.dim

    def contains(self, other: "TwoSidedIdeal"):
        self._check_parent(other)
        return self.space.contains(other.space)

    def __eq__(self, other):
        return (isinstance(other, TwoSidedIdeal)
                and self.algebra is other.algebra and self.space == other.space)

    def __hash__(self):
        return hash((id(self.algebra), self.space))

    def __repr__(self):
        return f"TwoSidedIdeal(dim {self.dim} of {self.algebra.name})"

    def _check_parent(self, other):
        if other.algebra is not self.algebra:
            if not other.algebra.structurally_equal(self.algebra):
                raise ValidationError("ideals belong to different algebras")

    def intersect(self, other: "TwoSidedIdeal"):
        self._check_parent(other)
        return TwoSidedIdeal(self.algebra, self.space.intersect(other.space),
                             validate=False)


def ideal_product(i: TwoSidedIdeal, j: TwoSidedIdeal) -> TwoSidedIdeal:
    """span{x*y : x in i, y in j}; two-sided automatically."""
    i._check_parent(j)
    prod = subspace_product(i.algebra, i.space, j.space)
    return TwoSidedIdeal(i.algebra, prod)


def is_prime(i: TwoSidedIdeal) -> bool:
    """Prime iff one of the (cached) ``minimal_primes``.

    A proper ideal is prime iff its quotient is simple, i.e. iff it is
    maximal; the maximal ideals are the preimages of the ideals of a/J
    killing one Wedderburn block, which ``minimal_primes`` lists.
    """
    if i.is_whole():
        raise ValidationError("primeness is about proper ideals")
    return any(w.ideal.space == i.space for w in minimal_primes(i.algebra))


@dataclass
class PrimeWitness:
    ideal: TwoSidedIdeal
    block_index: int

    @property
    def label(self):
        return f"P{self.block_index + 1}"


def minimal_primes(a: FiniteDimAlgebra) -> list[PrimeWitness]:
    """All primes of a finite-dimensional algebra (they are maximal).

    Each is the preimage of the ideal killing one Wedderburn block of the
    semisimple quotient; pairwise incomparable by construction.  The
    blocks are checked two-sided ideals of a/J, so their sums and the
    preimages of those are ideals, and are not checked again.  Computed
    once per algebra and kept on its ``structure``.
    """
    if a.structure.minimal_primes is not None:
        return a.structure.minimal_primes
    rad = jacobson_radical(a)
    quot, proj, _section = semisimple_quotient(a)
    blocks = wedderburn_blocks(quot)
    out = []
    for t in range(len(blocks)):
        others = [r for s, b in enumerate(blocks) if s != t
                  for r in b.space.basis_rows()]
        kill_t = Subspace.from_vectors(quot.field, quot.dim, others)
        if proj is None:
            space = kill_t
        else:
            space = _preimage(proj.matrix, kill_t, rad)
        out.append(PrimeWitness(TwoSidedIdeal(a, space, validate=False), t))
    a.structure.minimal_primes = out
    return out


def _preimage(proj_matrix: Matrix, target: Subspace, kernel: Subspace) -> Subspace:
    f = proj_matrix.field
    comp_proj = target.complement_projection_matrix()
    cond = proj_matrix * comp_proj
    pre = cond.left_kernel()
    vecs = list(pre.rows) + list(kernel.basis_rows())
    return Subspace.from_vectors(f, proj_matrix.nrows, vecs)


def primes_over(a: FiniteDimAlgebra, i: TwoSidedIdeal) -> list[PrimeWitness]:
    """Primes of a containing i: the (cached) ``minimal_primes`` over i.

    Every prime of a finite-dimensional algebra is maximal, so the primes
    over i are among the primes of a.
    """
    if i.is_whole():
        raise ValidationError("no primes contain the whole algebra")
    return [w for w in minimal_primes(a) if w.ideal.contains(i)]


def prime_radical(i: TwoSidedIdeal) -> TwoSidedIdeal:
    """Intersection of all primes containing i."""
    return intersect_primes(primes_over(i.algebra, i))


def intersect_primes(ws: list[PrimeWitness]) -> TwoSidedIdeal:
    """The intersection of the listed primes, an ideal by construction."""
    if not ws:
        raise ValidationError("an artinian algebra has at least one prime")
    acc = ws[0].ideal
    for w in ws[1:]:
        acc = acc.intersect(w.ideal)
    return acc


def prime_radical_of_zero(a: FiniteDimAlgebra) -> TwoSidedIdeal:
    return prime_radical(TwoSidedIdeal.zero(a))


def is_semiprime(a: FiniteDimAlgebra) -> bool:
    return prime_radical_of_zero(a).is_zero()


def annihilator(module) -> TwoSidedIdeal:
    """{a : M*a = 0}; the zero module is annihilated by everything.

    The kernel of a representation is two-sided by construction
    (docs/derivations.md, "Associated molecules"), so it is not checked
    again.
    """
    a = module.algebra
    f = a.field
    if module.dim == 0:
        return TwoSidedIdeal.whole(a)
    rows = []
    for i in range(a.dim):
        m = module.action[i]
        rows.append(tuple(x for r in m.rows for x in r))
    big = Matrix.trusted(f, tuple(rows), module.dim * module.dim)
    space = Subspace.from_vectors(f, a.dim, big.left_kernel().rows)
    return TwoSidedIdeal(a, space, validate=False)
