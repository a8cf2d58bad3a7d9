"""Two-sided ideal arithmetic, primes, radicals, against the lattice oracle."""

import random

import pytest

from ringspectra.algebras import (companion_algebra, ideal_closure,
                                  matrix_algebra, jacobson_radical,
                                  upper_triangular_algebra)
from ringspectra.errors import ValidationError
from ringspectra.ideals import (TwoSidedIdeal, annihilator, ideal_product,
                                is_prime, is_semiprime, minimal_primes,
                                prime_radical, prime_radical_of_zero,
                                primes_over)
from ringspectra.linalg import F2, F3
from ringspectra.modules import RightModule, simple_modules
from ringspectra.oracle import (brute_is_prime, brute_prime_radical_of_zero,
                                enumerate_two_sided_ideals)
from helpers import reference_prime_intersection
from test_algebras import _random_change_of_basis


def test_ideal_from_unit_is_whole():
    a = upper_triangular_algebra(2, F2)
    assert TwoSidedIdeal(a, ideal_closure(a, [a.unit]),
                         validate=False).is_whole()


def test_ideal_from_nothing_is_zero():
    a = upper_triangular_algebra(2, F2)
    assert TwoSidedIdeal(a, ideal_closure(a, []), validate=False).is_zero()


def test_ideal_generated_by_e12_in_t2():
    a = upper_triangular_algebra(2, F2)
    e12 = a.basis_coords(a.labels.index("e12"))
    i = TwoSidedIdeal(a, ideal_closure(a, [e12]), validate=False)
    assert i.dim == 1 and i.space.contains_vector(e12)


def test_ideal_product_degree_count():
    a = companion_algebra(F2, [0, 0, 0, 0, 1])    # F2[x]/(x^4)
    x = a.basis_coords(1)
    ix = TwoSidedIdeal(a, ideal_closure(a, [x]), validate=False)
    sq = ideal_product(ix, ix)
    assert sq.dim == 2                             # (x^2)
    assert ideal_product(ix, TwoSidedIdeal.zero(a)).is_zero()
    assert ideal_product(ix, TwoSidedIdeal.whole(a)).space == ix.space


def test_radical_of_t2_squares_to_zero():
    a = upper_triangular_algebra(2, F2)
    j = TwoSidedIdeal(a, jacobson_radical(a), validate=False)
    assert ideal_product(j, j).is_zero()


def test_is_prime_examples():
    m2 = matrix_algebra(2, F2)
    assert is_prime(TwoSidedIdeal.zero(m2))
    a = companion_algebra(F2, [0, 0, 1])           # F2[x]/(x^2)
    x = TwoSidedIdeal(a, ideal_closure(a, [a.basis_coords(1)]),
                      validate=False)
    assert is_prime(x)
    assert not is_prime(TwoSidedIdeal.zero(a))
    with pytest.raises(ValidationError):
        is_prime(TwoSidedIdeal.whole(a))


def test_prime_of_product_of_fields():
    from ringspectra.algebras import product_algebra
    ff = product_algebra(companion_algebra(F2, [1, 1]),
                         companion_algebra(F2, [1, 1]))
    first_kernel = TwoSidedIdeal(ff, ideal_closure(ff, [ff.basis_coords(1)]),
                                 validate=False)
    assert is_prime(first_kernel)


def test_is_prime_agrees_with_lattice_oracle(small_f2_corpus):
    for name, a in small_f2_corpus:
        lattice = enumerate_two_sided_ideals(a)
        for s in lattice:
            if s.dim == a.dim:
                continue
            ideal = TwoSidedIdeal(a, s, validate=False)
            assert is_prime(ideal) == brute_is_prime(ideal, lattice), name


def test_primes_over_agree_with_lattice_oracle(small_f2_corpus):
    for name, a in small_f2_corpus:
        lattice = enumerate_two_sided_ideals(a)
        primes = [s for s in lattice if s.dim < a.dim
                  and brute_is_prime(TwoSidedIdeal(a, s, validate=False), lattice)]
        for s in lattice:
            if s.dim == a.dim:
                continue
            over = {w.ideal.space for w in primes_over(a, TwoSidedIdeal(a, s))}
            assert over == {p for p in primes if p.contains(s)}, name


def test_minimal_primes_examples():
    a = companion_algebra(F2, [0, 0, 1])
    ws = minimal_primes(a)
    assert len(ws) == 1 and ws[0].ideal.dim == 1
    assert len(minimal_primes(upper_triangular_algebra(2, F2))) == 2
    m2 = minimal_primes(matrix_algebra(2, F3))
    assert len(m2) == 1 and m2[0].ideal.is_zero()


def test_minimal_primes_antichain_and_radical(algebra_corpus):
    for name, a in algebra_corpus:
        ws = minimal_primes(a)
        for i, w1 in enumerate(ws):
            for w2 in ws[i + 1:]:
                assert not w1.ideal.contains(w2.ideal), name
                assert not w2.ideal.contains(w1.ideal), name
        space = ws[0].ideal.space
        for w in ws[1:]:
            space = space.intersect(w.ideal.space)
        assert space == jacobson_radical(a), name


def test_prime_radical_examples():
    t2 = upper_triangular_algebra(2, F2)
    assert prime_radical_of_zero(t2).space == jacobson_radical(t2)
    a = companion_algebra(F2, [0, 0, 0, 0, 1])     # F2[x]/(x^4)
    x2 = TwoSidedIdeal(a, ideal_closure(a, [a.basis_coords(2)]),
                       validate=False)
    rad = prime_radical(x2)
    assert rad.dim == 3                            # (x)
    assert prime_radical(rad).space == rad.space   # idempotent


def test_prime_radical_matches_brute(small_f2_corpus):
    for name, a in small_f2_corpus:
        assert prime_radical_of_zero(a).space == \
            brute_prime_radical_of_zero(a), name


def test_prime_radical_matches_the_pairwise_intersection(algebra_corpus):
    """prime_radical is the primes over i intersected one pair at a time,
    for i = 0 and for i the intersection of each nonempty set of primes
    (radical, so its own prime radical), on every corpus algebra in its
    natural and a seeded random basis, and on T_2..T_7(F_2)."""
    rng = random.Random(39)
    algebras = [a for _n, a in algebra_corpus]
    algebras += [_random_change_of_basis(a, rng)[0] for a in algebras]
    algebras += [upper_triangular_algebra(n, F2) for n in range(2, 8)]
    for a in algebras:
        ws = minimal_primes(a)
        assert prime_radical_of_zero(a).space == \
            reference_prime_intersection(a, ws), a.name
        for mask in range(1, 2 ** len(ws)):
            space = reference_prime_intersection(
                a, [w for t, w in enumerate(ws) if mask >> t & 1])
            ideal = TwoSidedIdeal(a, space, validate=False)
            assert prime_radical(ideal).space == space, a.name


def test_prime_radical_equals_preimage_of_quotient_radical(small_f2_corpus):
    """Independent route: sqrt(I) is the preimage of J(Lambda/I)."""
    from ringspectra.algebras import quotient_algebra
    from ringspectra.linalg import Subspace, apply_vec
    for name, a in small_f2_corpus:
        for s in enumerate_two_sided_ideals(a):
            if s.dim == a.dim:
                continue
            ideal = TwoSidedIdeal(a, s, validate=False)
            rad = prime_radical(ideal)
            quot, proj, _sec = quotient_algebra(a, s)
            jq = jacobson_radical(quot)
            pre_cond = proj * jq.complement_projection_matrix()
            preimage = Subspace.from_vectors(a.field, a.dim,
                                             pre_cond.left_kernel().rows)
            assert rad.space == preimage, name


def test_is_semiprime_examples():
    from ringspectra.algebras import product_algebra
    assert is_semiprime(product_algebra(companion_algebra(F2, [1, 1]),
                                        companion_algebra(F2, [1, 1])))
    assert not is_semiprime(companion_algebra(F2, [0, 0, 1]))
    assert is_semiprime(matrix_algebra(2, F3))


def test_annihilator_examples():
    t2 = upper_triangular_algebra(2, F2)
    reg = RightModule.regular(t2)
    assert annihilator(reg).is_zero()              # faithful
    assert annihilator(RightModule.zero(t2)).is_whole()
    simples = simple_modules(t2)
    primes = {w.block_index: w for w in minimal_primes(t2)}
    for s in simples:
        ann = annihilator(s.module)
        assert ann.space == primes[s.block_index].ideal.space


def test_ideal_product_associative_monotone_on_lattice(corpus_by_name):
    a = corpus_by_name["trunc3_f2"]
    lattice = [TwoSidedIdeal(a, s, validate=False)
               for s in enumerate_two_sided_ideals(a)]
    for i in lattice:
        for j in lattice:
            for k in lattice:
                assert ideal_product(ideal_product(i, j), k).space == \
                    ideal_product(i, ideal_product(j, k)).space
            for j2 in lattice:
                if j.contains(j2):
                    assert ideal_product(i, j).contains(ideal_product(i, j2))
                    assert ideal_product(j, i).contains(ideal_product(j2, i))


def test_maximal_ideals_are_prime(small_f2_corpus):
    """Minimal nonzero closed subcategories are prime: lattice confirmation."""
    for name, a in small_f2_corpus:
        lattice = enumerate_two_sided_ideals(a)
        proper = [s for s in lattice if s.dim < a.dim]
        for s in proper:
            is_maximal = not any(t.dim < a.dim and t.dim > s.dim
                                 and t.contains(s) for t in proper)
            if is_maximal:
                ideal = TwoSidedIdeal(a, s, validate=False)
                assert is_prime(ideal), name
                assert brute_is_prime(ideal, lattice), name
