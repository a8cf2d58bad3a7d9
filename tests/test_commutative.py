"""Symbolic backends: factorization, spectra, bridging, the graded case."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringspectra import commutative
from ringspectra.commutative import (GradedModuleDescriptor,
                                     GradedPolyBackend, IntegerBackend,
                                     IntModBackend, PolyBackend,
                                     PolyQuotBackend, _Budget, _int_root,
                                     _is_certified_prime, _squaring_cost,
                                     factor_integer, factor_polynomial,
                                     irreducible_polys, poly_deg,
                                     poly_divmod, poly_eval, poly_monic,
                                     poly_mul, poly_trim, primes_up_to)
from ringspectra.algebras import ideal_closure
from ringspectra.errors import BudgetExceeded, CapabilityError, ValidationError
from ringspectra.ideals import (TwoSidedIdeal, is_semiprime, minimal_primes,
                                prime_radical_of_zero)
from ringspectra.linalg import F2, F3, GF, QQ
from ringspectra.spectra import (PhiUndefinedError, atom_spectrum,
                                 verify_correspondence)
from helpers import graded_free, graded_simple, reference_poly_divmod


def test_factor_integer_examples():
    assert factor_integer(12) == [(2, 2), (3, 1)]
    assert factor_integer(30) == [(2, 1), (3, 1), (5, 1)]
    assert factor_integer(1) == factor_integer(-1) == []
    with pytest.raises(ValidationError):
        factor_integer(0)


def trial_division(n):
    """The reference: [(prime, multiplicity)] of |n| by trial division."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            out.append((d, m))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def test_factor_integer_equals_trial_division_up_to_20000():
    for n in range(1, 20001):
        assert factor_integer(n) == trial_division(n), n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=10 ** 12 - 1))
def test_factor_integer_equals_trial_division_below_10_12(n):
    assert factor_integer(n) == factor_integer(-n) == trial_division(n)


# The two smallest primes, 41 and 43, the largest prime divided out before
# rho and the smallest after, 40 primes above 1000 and four near 10^9, so
# that products mix sizes and repeat primes.
SEEDED_PRIMES = ([2, 3, 41, 43, 9973, 10007]
                 + [p for p in primes_up_to(2000) if p > 1000][:40]
                 + [10 ** 9 + 7, 10 ** 9 + 9, 999999937, 2 ** 31 - 1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(SEEDED_PRIMES), min_size=1, max_size=5),
       st.sampled_from([1, -1]))
def test_factor_integer_of_products_of_seeded_primes(primes, sign):
    expected = sorted({p: primes.count(p) for p in primes}.items())
    assert factor_integer(sign * math.prod(primes)) == expected


@pytest.mark.parametrize("n,expected", [
    (561, [(3, 1), (11, 1), (17, 1)]),                          # Carmichael
    (41041, [(7, 1), (11, 1), (13, 1), (41, 1)]),
    (825265, [(5, 1), (7, 1), (17, 1), (19, 1), (73, 1)]),
    # a strong pseudoprime to the bases 2..23 (and 29, 31)
    (3825123056546413051, [(149491, 1), (747451, 1), (34233211, 1)]),
    (999983 ** 2, [(999983, 2)]),
    (1000003 ** 3, [(1000003, 3)]),
    (6 * 999983 ** 3 * 1000003 ** 2, [(2, 1), (3, 1), (999983, 3),
                                      (1000003, 2)]),
    (2 ** 61 - 1, [(2 ** 61 - 1, 1)]),                          # a prime
    ((2 ** 31 - 1) * (2 ** 61 - 1), [(2 ** 31 - 1, 1), (2 ** 61 - 1, 1)]),
    (1000000016000000063, [(1000000007, 1), (1000000009, 1)]),
], ids=["561", "41041", "825265", "spsp-2-to-23", "square", "cube",
        "mixed-powers", "M61", "M31-M61", "two-primes-near-1e9"])
def test_factor_integer_hard_cases(n, expected):
    assert factor_integer(n) == expected


def test_strong_pseudoprime_to_the_twelve_first_bases_is_rejected():
    """psi_12 passes the bases 2..37; 41 witnesses that it is composite."""
    assert not _is_certified_prime(318665857834031151167461, _Budget())
    assert _is_certified_prime(2 ** 61 - 1, _Budget())
    assert factor_integer(318665857834031151167461) == [
        (399165290221, 1), (798330580441, 1)]


def test_uncertifiable_prime_is_refused():
    """2^89 - 1 is prime, but above psi_13 Miller-Rabin does not prove it."""
    with pytest.raises(CapabilityError, match="psi_13"):
        factor_integer(2 ** 89 - 1)


def test_search_past_the_rho_budget_is_refused():
    q, r = 10 ** 13 + 37, 10 ** 13 + 51                # primes above 10^13
    with pytest.raises(CapabilityError, match=str(q * r)):
        factor_integer(q * r)


def test_squaring_weight_is_unchanged_below_24_words():
    """One per 64-bit word past the first up to 23 words, so every modulus
    below 1473 bits is charged as before; from 24 words on w^2 / 24."""
    for bits in range(1, 1473):
        assert _squaring_cost(2 ** bits - 1) == max(1, (bits - 1) // 64)
    assert _squaring_cost(2 ** 1536 - 1) == 24 > 23
    assert _squaring_cost(2 ** 16000 - 1) == 250 ** 2 // 24


@pytest.mark.parametrize("k", [600, 1200], ids=["8000-bit", "16000-bit"])
def test_huge_modulus_is_refused_before_any_power(monkeypatch, k):
    """10007 * 10009^k has no prime factor below TRIAL_BOUND, and one
    Miller-Rabin base on it would overrun the budget, so it is refused
    before ``pow`` runs (named by its size: its decimal form is too long
    to print)."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(commutative, "pow", counting_pow, raising=False)
    n = 10007 * 10009 ** k
    with pytest.raises(CapabilityError, match=f"a {n.bit_length()}-bit number"):
        factor_integer(n)
    assert calls == []


def test_window_past_the_budget_is_refused_before_listing(monkeypatch):
    """A bound, or the graded hi - lo, above WINDOW_BUDGET raises
    ``BudgetExceeded`` before any point is listed; the budget itself is
    accepted."""
    listed = []
    monkeypatch.setattr(commutative, "primes_up_to",
                        lambda bound: listed.append(bound) or [])
    budget = commutative.WINDOW_BUDGET
    cases = [(IntegerBackend(), budget + 1), (IntegerBackend(), -budget - 1),
             (PolyBackend(QQ), budget + 1), (PolyBackend(F3), budget + 1),
             (GradedPolyBackend(F2), budget + 1),
             (GradedPolyBackend(F2), (-1, budget))]
    for backend, window in cases:
        for read in (backend.atoms, backend.molecules,
                     lambda w: verify_correspondence(backend, w)):
            with pytest.raises(BudgetExceeded, match=f"budget allows {budget}"):
                read(window)
    assert listed == []
    assert IntegerBackend().atoms(budget) == IntegerBackend().atoms(0)
    assert listed == [budget, 0]


def test_negative_or_reversed_window_is_refused_before_listing(monkeypatch):
    """A negative bound, and a graded range with hi < lo, raise
    ``ValidationError`` before any point is listed; 0 and lo = hi are
    windows."""
    listed = []
    monkeypatch.setattr(commutative, "primes_up_to",
                        lambda bound: listed.append(bound) or [])
    cases = [(IntegerBackend(), -1, "bound must be non-negative, got -1"),
             (PolyBackend(QQ), -5, "got -5"), (PolyBackend(F3), -2, "got -2"),
             (GradedPolyBackend(F2), -1, "got -1"),
             (GradedPolyBackend(F2), (3, -2), "hi = -2 is below lo = 3")]
    for backend, window, message in cases:
        for read in (backend.atoms, backend.molecules,
                     lambda w: verify_correspondence(backend, w)):
            with pytest.raises(ValidationError, match=message):
                read(window)
    assert listed == []
    assert [a.label for a in PolyBackend(QQ).atoms(0)] == ["(0)", "(x)"]
    assert [a.label for a in GradedPolyBackend(F2).atoms((3, 3))] == \
        ["k[x]", "S(3)"]


def test_int_root_is_the_floor_root():
    """The Newton steps from the float estimate give floor(m^(1/k)):
    r^k <= m < (r + 1)^k, next to exact powers and at random sizes."""
    rng = random.Random(11)
    for _ in range(300):
        k = rng.choice([2, 3, 5, 7, 13, 101])
        r0 = rng.getrandbits(rng.randrange(1, 200)) + 2
        for m in (r0 ** k - 1, r0 ** k, r0 ** k + 1,
                  rng.getrandbits(rng.randrange(1, 3000)) + 1):
            r = _int_root(m, k, _Budget())
            assert r ** k <= m < (r + 1) ** k, (m, k)


def test_large_perfect_power_is_factored_within_the_budget():
    """A 3190-bit modulus with no prime factor below TRIAL_BOUND is
    charged for its bases, roots and splits, and still fits: 10007^240 is
    found as 10007 to the 240th.  43^560 is divided out by the gcd."""
    assert factor_integer(10007 ** 240) == [(10007, 240)]
    assert factor_integer(43 ** 560) == [(43, 560)]


@pytest.mark.parametrize("n,expected", [
    (43 * 47 ** 1080, [(43, 1), (47, 1080)]),
    (9967 * 9973 * (10 ** 12 + 39), [(9967, 1), (9973, 1), (10 ** 12 + 39, 1)]),
    (10007 * 10009 * (10 ** 12 + 39),
     [(10007, 1), (10009, 1), (10 ** 12 + 39, 1)]),
], ids=["43-47^1080", "two-below-1e4-one-above-1e12", "none-below-1e4"])
def test_factor_integer_past_the_trial_primes(n, expected):
    """The primes below TRIAL_BOUND are found by one gcd with their
    product, whatever the size of the rest (43 * 47^1080 has 6,005 bits);
    a modulus with none of them goes to Miller-Rabin and rho.  The factors
    multiply back to n."""
    factors = factor_integer(n)
    assert factors == expected
    assert math.prod(p ** e for p, e in factors) == n


def test_factor_poly_f2():
    # x^2 + x = x(x+1)
    facs = factor_polynomial(F2, [0, 1, 1])
    assert facs == [((0, 1), 1), ((1, 1), 1)]
    # x^2 + x + 1 irreducible over F2
    assert factor_polynomial(F2, [1, 1, 1]) == [((1, 1, 1), 1)]


def test_factor_poly_f3():
    # x^2 + 1 has no root in F3: irreducible.
    assert factor_polynomial(F3, [1, 0, 1]) == [((1, 0, 1), 1)]
    # x^2 - 1 = (x+1)(x+2)
    facs = factor_polynomial(F3, [2, 0, 1])
    assert len(facs) == 2 and all(m == 1 for _f, m in facs)


def _full_table_factor_fp(field, poly, multiples):
    """The reference factorization over F_p: the walk over the whole
    degree-four table of irreducibles, whatever the input's degree, with
    inputs past degree nine refused.  A division by q is read off
    ``multiples[q]``, which maps each product q m to m."""
    poly = poly_monic(field, poly_trim(field, poly))
    if poly_deg(poly) > 9:
        raise CapabilityError(
            f"factorization over F_{field.p} supported up to degree 9")
    out = Counter()
    rest = poly
    for q in irreducible_polys(field.p, 4):
        if len(q) > len(rest):
            break                   # the table ascends in degree
        while rest in multiples[q]:
            out[q] += 1
            rest = multiples[q][rest]
    if poly_deg(rest) > 0:
        out[rest] += 1
    return sorted(out.items())


def _monic_polys(p, max_deg):
    """The monic polynomials over F_p up to max_deg, ascending in degree."""
    return [tail + (1,) for deg in range(max_deg + 1)
            for tail in itertools.product(range(p), repeat=deg)]


def _outcome(factor, *args):
    try:
        return factor(*args)
    except CapabilityError as exc:
        return str(exc)


@pytest.mark.parametrize("p, max_deg", [(2, 6), (3, 6), (5, 5), (7, 5)])
def test_half_degree_tables_match_the_full_table(p, max_deg):
    """Every monic polynomial up to max_deg over F_p, and two past the
    degree-nine refusal, get the full-table walk's factors or refusal."""
    field = GF(p)
    multiples = {q: {poly_mul(field, q, m): m
                     for m in _monic_polys(p, max_deg - poly_deg(q))}
                 for q in irreducible_polys(p, 4) if poly_deg(q) <= max_deg}
    for poly in _monic_polys(p, max_deg) + [(1,) * 11, (0,) * 10 + (1,)]:
        assert _outcome(factor_polynomial, field, poly) == \
            _outcome(_full_table_factor_fp, field, poly, multiples), poly


def _gauss_count(p, n):
    """The number of monic irreducibles of degree n over F_p:
    (1/n) sum over d | n of mu(d) p^(n/d)."""
    def mu(d):
        primes = factor_integer(d)
        return 0 if any(e > 1 for _q, e in primes) else (-1) ** len(primes)
    return sum(mu(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducible_table_counts_follow_gauss(p):
    table = irreducible_polys(p, 4)
    assert Counter(poly_deg(q) for q in table) == \
        {n: _gauss_count(p, n) for n in range(1, 5)}
    assert commutative.irreducible_counts(p, 4) == \
        [_gauss_count(p, n) for n in range(1, 5)]
    for k in range(1, 4):
        assert irreducible_polys(p, k) == \
            tuple(q for q in table if poly_deg(q) <= k)


def test_fp_window_past_the_budget_is_refused_before_listing(monkeypatch):
    """F_101[x] up to degree 3 has 101 + 5,050 + 343,400 closed points, more
    than WINDOW_BUDGET: refused before ``irreducible_polys`` runs.  F_7 up
    to degree 4 (7 + 21 + 112 + 588 points) is listed."""
    tables = []
    real = commutative.irreducible_polys
    monkeypatch.setattr(commutative, "irreducible_polys",
                        lambda p, d: tables.append((p, d)) or real(p, d))
    for read in (lambda b: b.atoms(3), lambda b: verify_correspondence(b, 3)):
        with pytest.raises(BudgetExceeded,
                           match="needs 348551, budget allows 100000"):
            read(PolyBackend(GF(101)))
    assert tables == []
    assert len(PolyBackend(GF(7)).atoms(9)) == 1 + 7 + 21 + 112 + 588
    assert tables == [(7, 4)]


def test_factor_reassembles(small_f2_corpus):
    rng = random.Random(9)
    for field in (F2, F3):
        for _ in range(20):
            coeffs = [rng.randrange(field.p) for _ in range(4)] + [1]
            facs = factor_polynomial(field, coeffs)
            prod = (field.one,)
            for fac, mult in facs:
                for _ in range(mult):
                    prod = poly_mul(field, prod, fac)
            from ringspectra.commutative import poly_monic, poly_trim
            assert prod == poly_monic(field, poly_trim(field, coeffs))


def test_factor_poly_q():
    q = QQ
    facs = factor_polynomial(q, [-1, 0, 1])        # x^2 - 1
    assert len(facs) == 2
    assert factor_polynomial(q, [1, 0, 1]) == [((q.one, q.zero, q.one), 1)]
    # Cubic without rational roots is certified irreducible.
    assert factor_polynomial(q, [2, 0, 0, 1]) == [((2, 0, 0, 1), 1)]  # x^3 + 2
    # Rootless quartic is out of desk scope.
    with pytest.raises(CapabilityError):
        factor_polynomial(q, [1, 0, 0, 0, 1])       # x^4 + 1


def _trial_divisors(n):
    """The positive divisors of |n| by trial division up to sqrt(n); [1] for 0."""
    n = abs(n)
    if n == 0:
        return [1]
    return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0
                   for d in (k, n // k)})


def _trial_division_factor_q(coeffs):
    """The reference factorization over Q: the candidates recomputed from
    each deflated remainder by trial division, one root peeled per pass,
    and a quadratic remainder split by a rational square root of its
    discriminant."""
    q = QQ
    rest = poly_monic(q, poly_trim(q, coeffs))
    out = Counter()
    while poly_deg(rest) > 0:
        lcm = math.lcm(*(c.denominator for c in rest))
        ints = [int(c * lcm) for c in rest]
        ints = ints[next(i for i, c in enumerate(ints) if c):]
        cands = {Fraction(0)} | {Fraction(s * p, d)
                                 for p in _trial_divisors(ints[0])
                                 for d in _trial_divisors(ints[-1])
                                 for s in (1, -1)}
        root = next((r for r in sorted(cands) if poly_eval(q, rest, r) == 0),
                    None)
        if root is None:
            break
        rest = poly_divmod(q, rest, (-root, q.one))[0]
        out[(-root, q.one)] += 1
    if poly_deg(rest) == 2:
        c, b, _one = rest
        disc = b * b - 4 * c
        sqrt = Fraction(math.isqrt(max(disc.numerator, 0)),
                        math.isqrt(disc.denominator))
        if sqrt * sqrt == disc:
            for root in ((-b + sqrt) / 2, (-b - sqrt) / 2):
                out[(-root, q.one)] += 1
            return sorted(out.items())
    if poly_deg(rest) > 3:
        raise CapabilityError(
            "factorization over Q beyond rational roots and quadratics "
            f"is out of desk scope (degree {poly_deg(rest)} remainder)")
    if poly_deg(rest) > 0:
        out[rest] += 1
    return sorted(out.items())


def _random_rational_factor(rng):
    """A seeded factor of degree 1 to 3 with small rational coefficients."""
    deg = rng.choice((1, 1, 2, 2, 3))
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
    return coeffs + [Fraction(rng.randint(1, 3))]


def test_factor_q_equals_the_trial_division_route():
    """Seeded products of up to four rational factors of degree <= 3 get
    the reference's factors or its refusal, word for word."""
    rng = random.Random(24)
    answers = refusals = 0
    for _ in range(400):
        poly = (QQ.one,)
        for _ in range(rng.randint(1, 4)):
            poly = poly_mul(QQ, poly, _random_rational_factor(rng))
        try:
            expected = _trial_division_factor_q(poly)
        except CapabilityError as exc:
            with pytest.raises(CapabilityError) as got:
                factor_polynomial(QQ, poly)
            assert str(got.value) == str(exc), poly
            refusals += 1
        else:
            assert factor_polynomial(QQ, poly) == expected, poly
            answers += 1
    assert answers > 100 and refusals > 50


FIRST_20_PRIMES = math.prod(primes_up_to(71))


@pytest.mark.parametrize("coeffs,expected", [
    ([10 ** 30, 0, 1], [((10 ** 30, 0, 1), 1)]),
    ([-10 ** 30, 0, 1], [((-10 ** 15, 1), 1), ((10 ** 15, 1), 1)]),
    ([0, 0, 0, 1], [((0, 1), 3)]),
    ([-1, 3, -3, 1], [((-1, 1), 3)]),
    ([Fraction(-1, 6), Fraction(1, 6), 1],
     [((Fraction(-1, 3), 1), 1), ((Fraction(1, 2), 1), 1)]),
    ([0, 2, 0, 1], [((0, 1), 1), ((2, 0, 1), 1)]),
    ([FIRST_20_PRIMES, 1], [((FIRST_20_PRIMES, 1), 1)]),
], ids=["x2+10^30", "x2-10^30", "x^3", "(x-1)^3", "denominators",
        "x(x2+2)", "linear-past-the-budget"])
def test_factor_q_from_certified_divisors(coeffs, expected):
    """Roots come with their multiplicities, a rootless quadratic is
    irreducible, and a linear polynomial is its own factor, unsearched."""
    assert factor_polynomial(QQ, coeffs) == expected


def test_factor_q_candidate_budget():
    """x^2 + 2*3*...*71 has 2 * 2^20 candidates, past the budget: refused
    before any is tried.  The count takes e + f + 1 ways for a prime of
    both coefficients, so N x^2 + x + N for N = 30030^3 (7^6 = 117,649
    ways, against 4^12 divisor pairs) is searched, and has no rational
    root."""
    assert commutative.ROOT_CANDIDATE_BUDGET == 2_000_000
    with pytest.raises(CapabilityError) as exc:
        factor_polynomial(QQ, [FIRST_20_PRIMES, 0, 1])
    assert str(exc.value) == ("rational root candidates: needs 2097152, "
                              "budget allows 2000000")
    n = 30030 ** 3
    assert factor_polynomial(QQ, [1, Fraction(1, n), 1]) == [
        ((1, Fraction(1, n), 1), 1)]


def test_irreducible_table_counts():
    # Monic irreducibles over F2: deg 1: 2, deg 2: 1, deg 3: 2, deg 4: 3.
    table = irreducible_polys(2, 4)
    by_deg = {}
    for p in table:
        by_deg[len(p) - 1] = by_deg.get(len(p) - 1, 0) + 1
    assert by_deg == {1: 2, 2: 1, 3: 2, 4: 3}


def test_int_backend_order_and_maps():
    z = IntegerBackend()
    atoms = z.atoms(window=5)
    labels = [a.label for a in atoms]
    assert labels == ["(0)", "(2)", "(3)", "(5)"]
    zero, two, three = atoms[0], atoms[1], atoms[2]
    assert z.atom_up_sets(atoms) == [[0, 1, 2, 3], [1], [2], [3]]
    assert z.phi(two).label == "(2)"
    assert z.psi(z.molecules(5)[0]).label == "(0)"
    assert [a.label for a in atom_spectrum(z, 5).minimal] == ["(0)"]
    assert verify_correspondence(z, 5).atomic_flags["integral"] is True


def test_int_backend_requires_window():
    with pytest.raises(CapabilityError):
        IntegerBackend().atoms()


def test_int_mod_backend():
    z12 = IntModBackend(12)
    assert [m.label for m in z12.molecules()] == ["(2)", "(3)"]
    assert not z12.is_semiprime()
    assert z12.reduced_ring_label() == "Z/6"
    assert z12.artinianization().kind == "identity"
    z30 = IntModBackend(30)
    assert z30.is_semiprime()
    assert z30.quotient_ring_descriptor().kind == "self"


def test_poly_quot_backend():
    b = PolyQuotBackend(F2, [0, 0, 1, 1])          # x^2 (x+1)
    assert sorted(m.label for m in b.molecules()) == ["(x)", "(x+1)"]
    assert not b.is_semiprime()
    assert b.reduced_ring_label() == "F2[x]/(x^2+x)"
    b2 = PolyQuotBackend(F3, [1, 0, 1])            # irreducible: field F9
    assert len(b2.molecules()) == 1
    assert b2.is_semiprime()
    assert verify_correspondence(b2).atomic_flags["integral"] is True


def test_poly_backend_windowed():
    b = PolyBackend(F2)
    atoms = b.atoms(window=2)
    assert atoms[0].label == "(0)"
    assert "(x)" in {a.label for a in atoms}
    assert "(x^2+x+1)" in {a.label for a in atoms}
    assert b.artinianization().description.startswith("Mod F2(x)")
    bq = PolyBackend(QQ)
    assert {a.label for a in bq.atoms(window=1)} >= {"(0)", "(x)", "(x+1)"}


def test_verify_commutative_backends():
    for backend, window in [(IntegerBackend(), 29), (IntModBackend(12), None),
                            (PolyQuotBackend(F2, [0, 0, 1, 1]), None),
                            (PolyBackend(F3), 2)]:
        rep = verify_correspondence(backend, window)
        bad = [r.name for r in rep.assertions if not (r.passed or r.skipped)]
        assert not bad, (backend.label, bad)


def test_bridge_cross_representation_examples():
    for field, coeffs, nprimes in [(F2, [0, 0, 1], 1), (F2, [0, 1, 1], 2),
                                   (F3, [1, 0, 1], 1)]:
        b = PolyQuotBackend(field, coeffs)
        alg = b.bridge_to_algebra()
        ws = minimal_primes(alg)
        assert len(ws) == len(b.molecules())
        assert is_semiprime(alg) == b.is_semiprime()


def test_bridge_cross_representation_random():
    """Symbolic and structure-constant spectra agree at the label level."""
    rng = random.Random(31)
    cases = 0
    while cases < 20:
        field = (F2, F3)[rng.randrange(2)]
        deg = rng.randrange(1, 5)
        coeffs = [field.scalar(rng.randrange(field.p)) for _ in range(deg)]
        coeffs.append(field.one)
        if len([c for c in coeffs if c != field.zero]) == 1:
            continue                               # x^k handled, but keep mix
        b = PolyQuotBackend(field, coeffs)
        alg = b.bridge_to_algebra()
        ws = minimal_primes(alg)
        assert len(ws) == len(b.molecules())
        # Label-level agreement: the ideal generated by g(x) in the
        # companion algebra is exactly one enumerated prime, for each g.
        spaces = {w.ideal.space for w in ws}
        for q, _m in b.factors:
            gen = _poly_element(alg, b.modulus, q)
            gen_ideal = TwoSidedIdeal(alg, ideal_closure(alg, [gen]),
                                      validate=False)
            assert gen_ideal.space in spaces
        # Radical agreement: squarefree part vs prime radical of zero.
        rad_sym = b.radical_generator()
        rad_alg = prime_radical_of_zero(alg)
        gen_ideal = TwoSidedIdeal(alg, ideal_closure(
            alg, [_poly_element(alg, b.modulus, rad_sym)]), validate=False)
        assert gen_ideal.space == rad_alg.space
        assert is_semiprime(alg) == b.is_semiprime()
        cases += 1


def _poly_element(alg, modulus, coeffs):
    """Coordinates of g(xbar) in the companion algebra of the modulus."""
    f = alg.field
    if alg.dim > 1:
        x = alg.basis_coords(1)
    else:
        # Degree-one modulus: xbar is the scalar root -c0.
        x = tuple(f.mul(f.neg(modulus[0]), u) for u in alg.unit)
    val = [f.zero] * alg.dim
    power = alg.unit
    for c in coeffs:
        if c != f.zero:
            val = [f.add(v, f.mul(c, p)) for v, p in zip(val, power)]
        power = alg.mul(power, x)
    return tuple(val)


def test_ass_agreement_with_classical_for_z_mod_n():
    """Associated primes of Z/n are the primes dividing n."""
    for n in range(2, 31):
        b = IntModBackend(n)
        expected = {p for p, _m in factor_integer(n)}
        got = {key[1] for key in (m.key for m in b.molecules())}
        assert got == expected, n


def test_graded_backend_behaviors():
    g = GradedPolyBackend(F2)
    atoms = g.atoms(window=(-1, 1))
    assert [a.label for a in atoms] == ["k[x]", "S(-1)", "S(0)", "S(1)"]
    # Every atom is minimal: the order is discrete.
    assert g.atom_up_sets(atoms) == [[0], [1], [2], [3]]
    assert len(g.molecules(window=(-2, 2))) == 5
    assert [m.label for m in g.molecules(window=(-1, 1))] == \
        ["S(-1)", "S(0)", "S(1)"]


def test_graded_counterexample_fidelity():
    g = GradedPolyBackend(F2)
    kx = graded_free(0)
    assert g.mass(kx) == set()                     # no prime subobject
    with pytest.raises(PhiUndefinedError):
        g.phi(g.atoms(window=1)[0])                # generic atom
    with pytest.raises(CapabilityError):
        g.artinianization()                        # no artinian generator
    assert g.is_prime_object(graded_simple(3))
    assert not g.is_prime_object(graded_free(-2))
    mixed = GradedModuleDescriptor((0,), ((1, 2),))
    assert g.mass(mixed) == {m for m in g.molecules(window=3)
                             if m.key == ("shift", 2)}
    assert not g.is_prime_object(mixed)


def test_graded_psi_total_and_verification():
    g = GradedPolyBackend(F2)
    for m in g.molecules(window=2):
        assert g.psi(m).key == m.key
    rep = verify_correspondence(g, window=2)
    assert rep.passed()
    assert any("phi partial" in note for note in rep.notes)


def test_primes_up_to():
    """Against trial division, for every bound up to 3000."""
    assert primes_up_to(29) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(29)) == 10
    primes = []
    for bound in range(3001):
        if bound > 1 and all(bound % p for p in primes
                             if p * p <= bound):
            primes.append(bound)
        assert primes_up_to(bound) == primes, bound
    assert primes_up_to(-7) == []


def _divmod_cases(field, rng):
    """Zero dividends, deg a < deg b, non-monic divisors and raw
    coefficients: out of [0, p), negative, and Fractions over Q."""
    def raw():
        if field.is_finite():
            return rng.randint(-3 * field.p, 3 * field.p)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    cases = [((), (1,)), ((0, 0), (2, 3)), ((5,), (0, 0, 7)),
             ((1, 2), (1, 1, 1)), ((-4, 0, 9, -1), (3, -2)),
             ((1, 0, 0, 0, 0, 0, 1), (0, 0, 3))]
    for _ in range(300):
        a = [raw() for _ in range(rng.randint(0, 8))]
        b = [raw() for _ in range(rng.randint(1, 5))] + [rng.choice((1, 2, -3))]
        cases.append((a, b))
    return cases


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(7), QQ], ids=repr)
def test_poly_divmod_equals_the_schoolbook_reference(field):
    rng = random.Random(field.char)
    for a, b in _divmod_cases(field, rng):
        if not poly_trim(field, b):
            continue
        got = poly_divmod(field, a, b)
        assert got == reference_poly_divmod(field, a, b), (a, b)
        _quo, rem = got
        assert poly_deg(rem) < poly_deg(poly_trim(field, b))
    with pytest.raises(ZeroDivisionError):
        poly_divmod(field, (1, 2), (0,))


@pytest.mark.parametrize("backend", [IntegerBackend, lambda: PolyBackend(QQ)],
                         ids=["Z", "Q[x]"])
def test_a_window_is_listed_once_per_backend(backend, monkeypatch):
    """A verification and the locally closed classification of one
    window list its closed points once; another window lists again."""
    from ringspectra.subcats import classify_locally_closed_localizing
    calls = []

    def counted(original):
        def closed_points(self, window):
            calls.append((id(self), window))
            return original(self, window)
        return closed_points

    for cls in (IntegerBackend, PolyBackend):
        monkeypatch.setattr(cls, "_closed_points",
                            counted(cls._closed_points))
    b = backend()
    assert verify_correspondence(b, 5).passed()
    classify_locally_closed_localizing(b, 5)
    assert calls == [(id(b), 5)]
    other = backend()
    verify_correspondence(other, 5)
    verify_correspondence(other, 2)
    assert calls == [(id(b), 5), (id(other), 5), (id(other), 2)]
