"""Symbolic noetherian commutative backends: Z, Z/n, k[x], k[x]/(f), GrMod k[x].

Each implements the ``spectra.SpectrumBackend`` protocol.  For a
commutative noetherian ring R both spectra are Spec R under containment,
so ``CommutativeSpec`` implements the protocol once; the four ring
backends only say how their primes are found and named.  Prime data
comes from exact factorization: over Z, Pollard-Brent rho under a fixed
budget with every prime certified by deterministic Miller-Rabin below
psi_13 (about 3.3 * 10^24); irreducibility tables over F_p to half the
degree, so at most to degree four (which certify factorizations up to
degree nine); and over Q the rational roots, from the certified divisors
of two coefficients, with a remainder of degree at most three.  Anything
beyond raises
``CapabilityError`` instead of guessing.

The graded polynomial backend reproduces the boundary behavior of graded
module categories over k[x]: every atom is minimal, the degree-shift
simples are the only molecules, the free module has no prime subobject,
phi has no value on the generic atom, and artinianization and the
reduced part are refused because no noetherian (let alone artinian)
generator exists.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebras import FiniteDimAlgebra, companion_algebra
from .errors import BudgetExceeded, CapabilityError, ValidationError
from .linalg import GF, field_name, is_certified_prime, shown
from .spectra import (ArtinianizationDescriptor, Atom, Molecule,
                      PhiUndefinedError, QuotientRingDescriptor,
                      ReducedPartResult, check_algebra_quotient_ring,
                      discrete_up_sets)


# -- polynomial arithmetic (coefficients low-to-high) ---------------------------

def poly_trim(field, p):
    p = [field.scalar(c) for c in p]
    while p and p[-1] == field.zero:
        p.pop()
    return tuple(p)


def poly_deg(p):
    return len(p) - 1


def poly_scale(field, c, a):
    return poly_trim(field, [field.mul(c, x) for x in a])


def poly_mul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == field.zero:
            continue
        for j, y in enumerate(b):
            if y != field.zero:
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return poly_trim(field, out)


def poly_divmod(field, a, b):
    """(quotient, remainder) of a by b != 0: both inputs are trimmed once,
    then each quotient term, from the top degree down, clears the leading
    coefficient of what is left with one ``field.axpy``."""
    a = list(poly_trim(field, a))
    b = poly_trim(field, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    width = len(b)
    q = [field.zero] * max(0, len(a) - width + 1)
    inv_lead = field.inv(b[-1])
    for shift in range(len(q) - 1, -1, -1):
        top = a[shift + width - 1]
        if top != field.zero:
            q[shift] = coeff = field.mul(top, inv_lead)
            a[shift:shift + width] = field.axpy(a[shift:shift + width],
                                                field.neg(coeff), b)
    del a[width - 1:]
    while a and a[-1] == field.zero:
        a.pop()
    return tuple(q), tuple(a)


def poly_mod(field, a, b):
    return poly_divmod(field, a, b)[1]


def poly_monic(field, a):
    a = poly_trim(field, a)
    if not a:
        return a
    inv = field.inv(a[-1])
    return poly_scale(field, inv, a)


def poly_eval(field, a, x):
    acc = field.zero
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_label(field, p):
    """Human-readable canonical string, highest degree first."""
    p = poly_trim(field, p)
    if not p:
        return "0"
    terms = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == field.zero:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            terms.append(xs if c == field.one else f"{c}*{xs}")
    return "+".join(terms).replace("+-", "-")


# -- irreducibility and factorization -------------------------------------------

@lru_cache(maxsize=None)
def irreducible_polys(p: int, max_deg: int):
    """Monic irreducibles over F_p up to max_deg, by (degree, coeff) order."""
    f = GF(p)
    irr = []
    for deg in range(1, max_deg + 1):
        # A reducible candidate has a factor of degree at most deg / 2.
        divisors = [q for q in irr if poly_deg(q) <= deg // 2]
        for tail in itertools.product(range(p), repeat=deg):
            poly = tuple(f.scalar(c) for c in tail) + (f.one,)
            if not any(poly_mod(f, poly, q) == () for q in divisors):
                irr.append(poly)
    return tuple(irr)


def irreducible_counts(p: int, max_deg: int) -> list[int]:
    """The number of monic irreducibles over F_p of each degree 1..max_deg,
    by Gauss's formula p^d = sum over e | d of e * N(e), solved for N(d)
    degree by degree; nothing is listed."""
    counts = [0]
    for d in range(1, max_deg + 1):
        below = sum(e * counts[e] for e in range(1, d) if d % e == 0)
        counts.append((p ** d - below) // d)
    return counts[1:]


_GF_TABLE_DEG = 4


# The rational-root candidates one factorization over Q may try.  They
# are counted from two certified factorizations before any is listed, and
# refused past this: x^2 + 2 * 3 * ... * 71 has 2^21.  Just under it the
# search takes about 2.5 s (x86_64, Python 3.11).
ROOT_CANDIDATE_BUDGET = 2_000_000


def _rational_roots(poly):
    """The rational roots of poly, each once.

    Zero, and each +-p/q in lowest terms with p dividing the lowest nonzero
    and q the leading coefficient of poly made integral: every rational
    root is among them (docs/derivations.md, "Rational roots from certified
    divisors").  A prime of both coefficients goes to p or to q, so its
    exponents e and f give e + f + 1 ways.  The +-p/q are counted, and
    refused past ROOT_CANDIDATE_BUDGET, before any is tried; each is tried
    in integers, as sum c_i p^i q^(n-i) = 0.
    """
    denom_lcm = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * denom_lcm) for c in poly]
    zeros = next(i for i, c in enumerate(ints) if c)
    if zeros:
        yield Fraction(0)
    ints = ints[zeros:]
    low, lead = dict(factor_integer(ints[0])), dict(factor_integer(ints[-1]))
    ways = [[(r ** i, 1) for i in range(low.get(r, 0) + 1)]
            + [(1, r ** j) for j in range(1, lead.get(r, 0) + 1)]
            for r in sorted(low.keys() | lead.keys())]
    count = 2 * math.prod(map(len, ways))
    if count > ROOT_CANDIDATE_BUDGET:
        raise CapabilityError(f"rational root candidates: needs {count}, "
                              f"budget allows {ROOT_CANDIDATE_BUDGET}")
    for split in itertools.product(*ways):
        p = q = 1
        for s, t in split:
            p, q = p * s, q * t
        for num in (p, -p):
            acc, power = 0, 1
            for c in ints:
                acc, power = acc * q + c * power, power * num
            if acc == 0:
                yield Fraction(num, q)


def factor_polynomial(field, poly):
    """Complete factorization into monic irreducibles: [(factor, mult)].

    F_p: trial division against the table to half the input's degree
    certifies the input, of degree at most nine, so the table goes to
    degree four at most (docs/derivations.md, "Factor tables to half the
    degree").  Q: the rational roots are peeled, each with its
    multiplicity, in one pass over the candidates of the input; a
    remainder of degree at most three is then irreducible, and one of
    degree four or more raises CapabilityError.
    """
    poly = poly_monic(field, poly_trim(field, poly))
    d = poly_deg(poly)
    if d < 0:
        raise ValidationError("cannot factor the zero polynomial")
    if d == 0:
        return []
    out = {}

    def push(fac, mult=1):
        fac = poly_monic(field, fac)
        out[fac] = out.get(fac, 0) + mult

    if field.is_finite():
        if d > 2 * _GF_TABLE_DEG + 1:
            raise CapabilityError(
                f"factorization over F_{field.p} supported up to degree "
                f"{2 * _GF_TABLE_DEG + 1}")
        rest = poly
        for q in irreducible_polys(field.p, d // 2):
            if 2 * poly_deg(q) > poly_deg(rest):
                break
            while poly_deg(rest) >= poly_deg(q):
                quo, rem = poly_divmod(field, rest, q)
                if rem != ():
                    break
                push(q)
                rest = quo
        if poly_deg(rest) > 0:
            # rest has no factor of degree up to half its own, which a
            # proper factorization would contain: it is irreducible.
            push(rest)
        return sorted(out.items())

    # A linear polynomial is its own factor, with no search.
    rest = poly
    for r in _rational_roots(poly) if d > 1 else ():
        lin = (field.neg(r), field.one)
        while poly_eval(field, rest, r) == field.zero:
            rest = poly_divmod(field, rest, lin)[0]
            push(lin)
        if poly_deg(rest) < 2:
            break
    dr = poly_deg(rest)
    if dr > 3:
        raise CapabilityError(
            "factorization over Q beyond rational roots and quadratics "
            f"is out of desk scope (degree {dr} remainder)")
    if dr > 0:
        # Without a rational root, a factor of degree 1 to 3 has no proper
        # factor: one of them would be linear.
        push(rest)
    return sorted(out.items())


# The primes below TRIAL_BOUND are divided out first, found by one gcd
# with their product; ``_TRIAL_PRIMES`` and ``_TRIAL_PRODUCT`` are built
# once, when the module is imported, below ``primes_up_to``.
TRIAL_BOUND = 10_000
# Squarings one factor_integer call may spend before it refuses, weighted
# by ``_squaring_cost``: the Miller-Rabin powers, the Newton steps of the
# perfect-power roots and Brent's rho are all charged to it before they
# run.  It runs out in about 1 to 1.5 s whatever the size of the modulus
# (x86_64, Python 3.11).
RHO_BUDGET = 3_000_000
_RHO_BATCH = 128


def _squaring_cost(m: int) -> int:
    """The weight of one squaring mod m: 1 up to 128 bits, then one per
    64-bit word of m past the first, and from 24 words on w^2 / 24 for w
    words, since a Python square and remainder cost about w^2 there; the
    budget then runs out in about the same time at every size."""
    words = -(-m.bit_length() // 64)
    return max(1, words - 1, words * words // 24)


class _Budget:
    """What one ``factor_integer`` call has left of RHO_BUDGET."""

    def __init__(self):
        self.left = RHO_BUDGET

    def spend(self, m: int, units: int):
        """Charge work on m worth ``units`` (squarings times
        ``_squaring_cost(m)``), or refuse before it runs."""
        self.left -= units
        if self.left < 0:
            raise CapabilityError(
                f"{shown(m)} is not factored within the budget of "
                f"{RHO_BUDGET} squarings")


def factor_integer(n: int):
    """[(prime, multiplicity)] of |n|, sorted by prime; exact or refused.

    The primes below TRIAL_BOUND are divided out, found by one gcd with
    their product.  Each cofactor is then certified prime by deterministic
    Miller-Rabin to the bases 2..41, or it is a proven composite: an exact
    perfect power is replaced by its root, and anything else is split by
    Brent's rho, both parts going back on the stack (docs/derivations.md,
    "Certified integer factorization").  A cofactor of at least psi_13
    that passes every base, and work past RHO_BUDGET weighted squarings,
    raise ``CapabilityError``: no prime is reported uncertified.  Nothing
    is cached between calls.
    """
    n = abs(n)
    if n == 0:
        raise ValidationError("cannot factor zero")
    found = Counter()
    m = n
    g = math.gcd(m, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            while m % p == 0:
                m //= p
                found[p] += 1
    budget = _Budget()
    stack = [(m, 1)] if m > 1 else []
    while stack:
        m, mult = stack.pop()
        if _is_certified_prime(m, budget):
            found[m] += mult
            continue
        root, k = _perfect_power(m, budget)
        if k > 1:
            stack.append((root, mult * k))
        else:
            d = _brent_split(m, budget)
            stack += [(d, mult), (m // d, mult)]
    out = sorted(found.items())
    if math.prod(p ** e for p, e in out) != n:
        raise ValidationError(f"the factors of {n} do not multiply back to it")
    return out


def _is_certified_prime(m: int, budget: _Budget) -> bool:
    """Whether m, free of the primes below TRIAL_BOUND, is prime, by
    ``linalg.is_certified_prime``, each base charged its bits(m) squarings
    before it runs."""
    per_base = m.bit_length() * _squaring_cost(m)
    return is_certified_prime(m, lambda: budget.spend(m, per_base))


def _perfect_power(m: int, budget: _Budget):
    """(r, k) with r^k = m for the least prime k there is, else (m, 1).

    m has no prime factor below TRIAL_BOUND = 10^4 > 2^13, so a root r
    has r > 2^13 and k <= bits(m) / 13.
    """
    for k in range(2, m.bit_length() // 13 + 1):
        if all(k % j for j in range(2, math.isqrt(k) + 1)):
            r = _int_root(m, k, budget)
            if r ** k == m:
                return r, k
    return m, 1


def _int_root(m: int, k: int, budget: _Budget) -> int:
    """floor(m^(1/k)), by integer Newton steps, each charged as one
    squaring mod m before it runs.

    The steps start from the float estimate 2^(log2(m) / k), scaled by
    2^shift so that its top 51 bits are kept, raised by 2^-30 and rounded
    up: log2 is off by at most 2^-52 * bits(m), which moves the estimate
    by far less than 2^-30, so the start is above the root, from where
    integer Newton steps descend to the floor and stop.
    """
    e = math.log2(m) / k
    shift = max(0, int(e) - 50)
    r = (int(2 ** (e - shift) * (1 + 2 ** -30)) + 1) << shift
    per_step = _squaring_cost(m)
    while True:
        budget.spend(m, per_step)
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _brent_split(m: int, budget: _Budget) -> int:
    """A proper divisor of the composite m.

    Brent's rho with f(x) = x^2 + c for c = 1, 2, ..., from x = 2: the
    x - y of a batch are multiplied into one gcd, and the batch is
    replayed one step at a time when that gcd is m.  Refused before the
    squarings would overrun ``budget``.
    """
    cost = _squaring_cost(m)
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            budget.spend(m, r * cost)
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(_RHO_BATCH, r - k)
                budget.spend(m, steps * cost)
                for _ in range(steps):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = math.gcd(q, m)
                k += steps
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
        if g != m:
            return g


def primes_up_to(bound: int):
    """The primes up to bound, ascending: a sieve on a bytearray, in which
    each prime p up to isqrt(bound) strikes its multiples from p^2 on in
    one slice assignment."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    return list(itertools.compress(range(bound + 1), sieve))


_TRIAL_PRIMES = tuple(primes_up_to(TRIAL_BOUND))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


# -- the commutative spectra -------------------------------------------------------

# The largest window a backend with an infinite spectrum lists: a bound
# (primes up to it over Z, |c| up to it over Q, degree up to it over F_p,
# shifts -bound..bound) or, for the graded backend, hi - lo.
WINDOW_BUDGET = 100_000


def _require_window(window):
    """The window, checked against WINDOW_BUDGET before any point is listed.

    A negative bound and a range with hi < lo raise ``ValidationError``:
    neither names a window.
    """
    if window is None:
        raise CapabilityError("window required for an infinite spectrum")
    if isinstance(window, tuple):
        lo, hi = window
        what, extent = "window hi - lo", hi - lo
        fault = f"window hi = {hi} is below lo = {lo}" if hi < lo else None
    else:
        what, extent = "window bound", abs(window)
        fault = (f"window bound must be non-negative, got {window}"
                 if window < 0 else None)
    if extent > WINDOW_BUDGET:
        raise BudgetExceeded(what, extent, WINDOW_BUDGET)
    if fault:
        raise ValidationError(fault)
    return window


_GENERIC_POINT = (("zero",), "(0)")


class CommutativeSpec:
    """ASpec = MSpec = Spec R for a commutative noetherian ring R.

    Both spectra are the prime ideals under containment, so phi and psi
    only relabel (see docs/derivations.md).  A subclass supplies one of
    two kinds of data:

    - ``factors``, the maximal ideals with multiplicities, when R is
      artinian: the points are the factors, an antichain.  It then also
      supplies ``radical_generator()`` and ``_quotient_label(generator)``,
      which names R's reduced ring;
    - ``fraction_field`` (name, embedding) and ``_closed_points(window)``
      when R is a one-dimensional domain: the points are (0) below every
      closed point, and only a window of closed points is listed.  It
      then also supplies R's arithmetic for the quotient-ring checks:
      ``zero``, ``one``, ``_sample(rng)``, ``_mul`` and ``_divmod``.

    Either way it also supplies ``_point(generator) -> (key, label)``.
    """

    has_noetherian_generator = True
    algebra = None
    factors = ()
    fraction_field = None
    _listed = None       # (window, points) of the last window listed

    @property
    def complete(self):
        return self.fraction_field is None

    def _points(self, window):
        """The (key, label) of each listed point, listed once per window.

        The list of the last window asked for is kept on this backend, so
        the atoms, the molecules and the classifications of one window all
        read one list; a finite spectrum ignores the window.  An infinite
        spectrum's window is checked against WINDOW_BUDGET before anything
        is listed.
        """
        window = None if self.complete else _require_window(window)
        if self._listed is None or self._listed[0] != window:
            if self.complete:
                points = [self._point(g) for g, _m in self.factors]
            else:
                points = [_GENERIC_POINT] + [self._point(g)
                                             for g in self._closed_points(window)]
            self._listed = (window, points)
        return self._listed[1]

    def atoms(self, window=None):
        return [Atom(self.label, k, lbl) for k, lbl in self._points(window)]

    def molecules(self, window=None):
        return [Molecule(self.label, k, lbl) for k, lbl in self._points(window)]

    def atom_up_sets(self, atoms):
        """(0) lies below every point, and the other points form an antichain."""
        return [list(range(len(atoms))) if x.key == ("zero",) else [i]
                for i, x in enumerate(atoms)]

    molecule_up_sets = atom_up_sets

    def phi(self, a):
        return Molecule(self.label, a.key, a.label)

    def psi(self, r):
        return Atom(self.label, r.key, r.label)

    def is_semiprime(self):
        return all(m == 1 for _g, m in self.factors)

    def reduced_ring_label(self):
        if not self.complete:
            return self.label
        return self._quotient_label(self.radical_generator())

    def reduced_part(self):
        """R_red along both routes: each names the same reduced ring."""
        label = self.reduced_ring_label()
        return ReducedPartResult(self.is_semiprime(), label, label)

    def artinianization(self):
        """Supported on the minimal points: every point of an artinian R,
        (0) of a domain."""
        if self.complete:
            return ArtinianizationDescriptor(
                "identity", self.label, [lbl for _k, lbl in self._points(None)])
        return ArtinianizationDescriptor(
            "module-category",
            f"Mod {self.fraction_field[0]} (localization at the generic point)",
            [_GENERIC_POINT[1]])

    def quotient_ring_descriptor(self):
        if not self.complete:
            return QuotientRingDescriptor("fraction-field", *self.fraction_field)
        if not self.is_semiprime():
            raise CapabilityError(
                f"{self.label} is not semiprime: no semisimple classical "
                "quotient ring in scope")
        return QuotientRingDescriptor("self", self.label, "identity")

    def check_quotient_ring(self, rng, samples):
        """The fraction-field clauses on sampled pairs (a, s != 0), in R.

        Distinct samples a keep distinct images a * 1 (injective); s is
        regular, a * s != 0 for a != 0 (regular_invertible, so s becomes a
        unit of the fraction field); dividing a * s exactly by s gives a
        back, so (a s) s^-1 is the fraction a/1 (fraction_form).
        """
        pairs = []
        for _ in range(samples):
            a, s = self._sample(rng), self.zero
            while s == self.zero:
                s = self._sample(rng)
            pairs.append((a, s))
        numerators = {a for a, _s in pairs}
        if len({self._mul(a, self.one) for a in numerators}) != len(numerators):
            raise ValidationError(f"the embedding of {self.label} identifies samples")
        regular = 0
        for a, s in pairs:
            prod = self._mul(a, s)
            if a != self.zero:
                if prod == self.zero:
                    raise ValidationError(f"{s} is a zero divisor in {self.label}")
                regular += 1
            if self._divmod(prod, s) != (a, self.zero):
                raise ValidationError(
                    f"({a})({s}) divided by {s} is not {a} in {self.label}")
        return {"injective": len(numerators), "regular_invertible": regular,
                "fraction_form": len(pairs)}


class IntegerBackend(CommutativeSpec):
    kind = "int"
    label = "Z"
    fraction_field = ("Q", "n -> n/1")
    zero, one = 0, 1
    _mul, _divmod = staticmethod(operator.mul), staticmethod(divmod)

    @staticmethod
    def _sample(rng):
        return rng.randint(-50, 50)

    def _closed_points(self, window):
        return primes_up_to(window)

    def _point(self, p):
        return ("p", p), f"({p})"


class IntModBackend(CommutativeSpec):
    kind = "int_mod"

    def __init__(self, n: int):
        if n < 2:
            raise ValidationError("modulus must be at least 2")
        self.n = n
        self.factors = factor_integer(n)
        self.label = self._quotient_label(n)

    def _point(self, p):
        return ("p", p), f"({p})"

    @staticmethod
    def _quotient_label(n):
        return f"Z/{n}"

    def radical_generator(self) -> int:
        return math.prod(p for p, _m in self.factors)

    def check_quotient_ring(self, rng, samples):
        """Z/n (n squarefree) as its own quotient ring, in residues.

        Each sampled x is x * 1^-1 (fraction_form), each unit x has
        x * x^-1 = 1 (regular_invertible: the regular elements of Z/n are
        its units), and the first min(n, samples) residues keep distinct
        images (injective: all of Z/n when n <= samples).
        """
        n = self.n
        one_inv = pow(1, -1, n)
        reps = range(min(n, samples))
        if len({r * one_inv % n for r in reps}) != len(reps):
            raise ValidationError(f"the embedding of {self.label} identifies residues")
        regular = 0
        for _ in range(samples):
            x = rng.randrange(1, n)
            if x * one_inv % n != x:
                raise ValidationError(f"{x} is not x * 1^-1 in {self.label}")
            if math.gcd(x, n) == 1:
                if x * pow(x, -1, n) % n != 1:
                    raise ValidationError(f"unit {x} of {self.label} was not inverted")
                regular += 1
        return {"injective": len(reps), "regular_invertible": regular,
                "fraction_form": samples}


class PolyBackend(CommutativeSpec):
    kind = "poly"
    zero = ()

    def __init__(self, field):
        self.field = field
        self.label = f"{field_name(field)}[x]"
        self.fraction_field = (f"{field_name(field)}(x)", "f -> f/1")
        self.one = (field.one,)

    def _sample(self, rng):
        f = self.field
        return poly_trim(f, [f.scalar(rng.randint(0, 6)) for _ in range(3)])

    def _mul(self, a, b):
        return poly_mul(self.field, a, b)

    def _divmod(self, a, b):
        return poly_divmod(self.field, a, b)

    def _closed_points(self, window):
        """Over F_p the irreducibles up to degree min(window, 4), refused
        before any is listed when Gauss's formula counts more than
        WINDOW_BUDGET of them; over Q the x - c with |c| <= window."""
        f = self.field
        if f.is_finite():
            deg = min(window, _GF_TABLE_DEG)
            count = sum(irreducible_counts(f.p, deg))
            if count > WINDOW_BUDGET:
                raise BudgetExceeded(
                    f"window points of {self.label} up to degree {deg}",
                    count, WINDOW_BUDGET)
            return irreducible_polys(f.p, deg)
        return [(f.scalar(-sign * c), f.one)
                for c in range(window + 1) for sign in ((1, -1) if c else (1,))]

    def _point(self, q):
        return ("poly", q), f"({poly_label(self.field, q)})"


class PolyQuotBackend(CommutativeSpec):
    kind = "poly_quot"

    def __init__(self, field, modulus):
        self.field = field
        self.modulus = poly_monic(field, poly_trim(field, modulus))
        if poly_deg(self.modulus) < 1:
            raise ValidationError("modulus must have degree >= 1")
        self.label = self._quotient_label(self.modulus)
        self.factors = factor_polynomial(field, self.modulus)

    def _point(self, q):
        return ("poly", q), f"({poly_label(self.field, q)})"

    def _quotient_label(self, f):
        return f"{field_name(self.field)}[x]/({poly_label(self.field, f)})"

    def radical_generator(self):
        out = (self.field.one,)
        for q, _m in self.factors:
            out = poly_mul(self.field, out, q)
        return out

    def bridge_to_algebra(self) -> FiniteDimAlgebra:
        """Structure-constant realization on the basis 1, x, ..., x^{d-1}."""
        return companion_algebra(self.field, self.modulus,
                                 name=self.label)

    def check_quotient_ring(self, rng, samples):
        return check_algebra_quotient_ring(self.bridge_to_algebra(), rng, samples)


# -- the graded counterexample backend -----------------------------------------------

@dataclass(frozen=True)
class GradedModuleDescriptor:
    """Finitely generated graded module over k[x], up to isomorphism.

    free_shifts: shifts m of free summands k[x](m).
    torsion: pairs (length, socle_shift) of uniserial torsion summands.
    """
    free_shifts: tuple = ()
    torsion: tuple = ()

    def is_zero(self):
        return not self.free_shifts and not self.torsion


class GradedPolyBackend:
    """Z-graded modules over k[x] with deg x = 1.

    Every atom is minimal (the order is discrete), the molecules are the
    shift simples only, and there is no artinian generator, so the
    artinianization and the generic phi value do not exist.
    """

    kind = "graded_poly"
    has_noetherian_generator = False
    complete = False
    algebra = None

    def __init__(self, field):
        self.field = field
        self.label = f"GrMod {field_name(field)}[x]"

    @staticmethod
    def _window_range(window):
        w = _require_window(window)
        lo, hi = w if isinstance(w, tuple) else (-w, w)
        return range(lo, hi + 1)

    def atoms(self, window=None):
        out = [Atom(self.label, ("generic",), "k[x]")]
        out.extend(Atom(self.label, ("shift", n), f"S({n})")
                   for n in self._window_range(window))
        return out

    def molecules(self, window=None):
        return [Molecule(self.label, ("shift", n), f"S({n})")
                for n in self._window_range(window)]

    def atom_up_sets(self, atoms):
        return discrete_up_sets(atoms)

    def molecule_up_sets(self, molecules):
        return discrete_up_sets(molecules)

    def phi(self, a):
        if a.key == ("generic",):
            raise PhiUndefinedError(
                "no prime monoform object represents the generic atom: "
                "every nonzero graded submodule of k[x] is a shifted copy "
                "whose closed closure keeps shrinking")
        return Molecule(self.label, a.key, a.label)

    def psi(self, r):
        return Atom(self.label, r.key, r.label)

    def artinianization(self):
        raise CapabilityError(
            "no artinian generator: artinianization undefined for this backend")

    def reduced_part(self):
        raise CapabilityError(
            "reduced part needs a noetherian generator, which this backend lacks")

    def quotient_ring_descriptor(self):
        raise CapabilityError(
            "classical quotient ring out of scope for the graded backend")

    def check_quotient_ring(self, rng, samples):
        raise CapabilityError(
            "classical quotient ring out of scope for the graded backend")

    # -- descriptor-level module operations --------------------------------------

    def mass(self, m: GradedModuleDescriptor):
        """Associated molecules: socle shifts of torsion parts; free parts none."""
        return {Molecule(self.label, ("shift", s), f"S({s})")
                for _l, s in m.torsion}

    def ass_atoms(self, m: GradedModuleDescriptor):
        out = set()
        if m.free_shifts:
            out.add(Atom(self.label, ("generic",), "k[x]"))
        out.update(Atom(self.label, ("shift", s), f"S({s})")
                   for _l, s in m.torsion)
        return out

    def is_prime_object(self, m: GradedModuleDescriptor) -> bool:
        """Shift-isotypic semisimple descriptors only; free parts never.

        A nonzero graded submodule of a free part is a smaller shifted
        copy generating a strictly smaller closed subcategory, so free
        modules are not prime.
        """
        if m.is_zero():
            raise ValidationError("prime is about nonzero objects")
        if m.free_shifts:
            return False
        shifts = {s for _l, s in m.torsion}
        lengths = {l for l, _s in m.torsion}
        return lengths == {1} and len(shifts) == 1
