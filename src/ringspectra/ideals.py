"""Two-sided ideals: arithmetic, primeness, radicals, minimal primes.

For a finite-dimensional algebra a proper two-sided ideal P is prime iff
Lambda/P is a simple algebra (prime artinian rings are simple), i.e. iff P
is maximal; the primes are therefore the preimages of the block-killing
ideals of Lambda/J, and ``is_prime`` looks an ideal up among the cached
``minimal_primes``.  Each prime carries a few generators as a right ideal,
the radical's generators G and one element, through which modules are
asked what it kills.  The quantifier-over-ideal-pairs
definition survives as the brute-force oracle in ``oracle``; the two are
compared on the full enumerated lattice in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (FiniteDimAlgebra, generator_multiplications,
                       jacobson_radical, radical_generators,
                       semisimple_quotient, subspace_product,
                       wedderburn_blocks)
from .errors import ValidationError
from .linalg import Matrix, RowReducer, Subspace, apply_vec, vec_sub


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
    """The prime that kills block ``block_index`` of Lambda/J.

    ``generators`` spans G and 1 - e for a lift e of the block's central
    idempotent, and generates the prime as a right ideal, so v P = 0 iff
    v kills ``generators`` (docs/derivations.md, "Nakayama generators").
    """
    ideal: TwoSidedIdeal
    block_index: int
    generators: Subspace

    @property
    def label(self):
        return f"P{self.block_index + 1}"


def minimal_primes(a: FiniteDimAlgebra) -> list[PrimeWitness]:
    """All primes of a finite-dimensional algebra (they are maximal).

    Each is the preimage of the ideal killing one Wedderburn block of the
    semisimple quotient, pairwise incomparable by construction: with e the
    section of the block's central idempotent, P = (1 - e) A + J, the rows
    of L_(1 - e) and of J.  The blocks are checked two-sided ideals of a/J,
    so their sums and the preimages of those are ideals, and are not
    checked again.  Computed once per algebra and kept on its
    ``structure``, each prime with its generators.
    """
    if a.structure.minimal_primes is not None:
        return a.structure.minimal_primes
    f = a.field
    rad, gens = jacobson_radical(a), radical_generators(a)
    quot, _proj, section = semisimple_quotient(a)
    out = []
    for t, block in enumerate(wedderburn_blocks(quot)):
        lift = block.idempotent if section is None \
            else apply_vec(block.idempotent, section)
        rest = vec_sub(f, a.unit, lift)
        space = RowReducer(f, a.dim, rad).extend(a.left_mult_matrix(rest))
        spans = RowReducer(f, a.dim, gens).extend(Matrix.trusted(f, (rest,), a.dim))
        out.append(PrimeWitness(TwoSidedIdeal(a, space.subspace(), validate=False),
                                t, spans.subspace()))
    a.structure.minimal_primes = out
    return out


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
    """Whether the prime radical of a is zero.  On an artinian algebra the
    prime radical is J (docs/derivations.md, "Radical ideals on prime
    masks"), so no prime is intersected; ``ArtinianBackend.reduced_part``
    checks the two routes agree."""
    return jacobson_radical(a).dim == 0


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
