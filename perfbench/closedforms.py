"""The benchmark's own arithmetic: inputs it generates and the answers it expects.

Nothing here imports ringspectra.  Structure constants, random changes of
basis, fixture text, and every closed form the checks compare against are
computed from first principles, so a fault in the program cannot make its
own output look right.

An algebra is a pair ``(sc, unit)`` of plain ints over a field of
characteristic ``p`` (0 for Q): ``b_i b_j = sum_k sc[i][j][k] b_k``, and
``unit`` holds the coordinates of 1.
"""

from __future__ import annotations

import functools
import itertools

# -- integers -----------------------------------------------------------------


def primes_up_to(n: int) -> list:
    sieve = bytearray([1]) * (n + 1)
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(2, n + 1) if sieve[i]]


def distinct_prime_factors(n: int) -> list:
    """Trial division; fine for the 12-digit moduli the benchmark draws."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomials over F_p, coefficient tuples low to high ----------------------


def poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def poly_mul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_rem(p, a, b):
    a = list(poly_trim(a))
    b = poly_trim(b)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = list(poly_trim(a))
    return tuple(a)


@functools.lru_cache(maxsize=None)
def monic_irreducibles(p: int, deg: int) -> tuple:
    """Monic irreducibles of exactly this degree, by trial division."""
    lower = [q for d in range(1, deg // 2 + 1) for q in monic_irreducibles(p, d)]
    out = []
    for tail in itertools.product(range(p), repeat=deg):
        f = tuple(tail) + (1,)
        if deg == 1 or not any(poly_rem(p, f, q) == () for q in lower):
            out.append(f)
    return tuple(out)


def factor_degrees(p: int, f) -> list:
    """[(degree, multiplicity)] of the monic irreducible factors of f."""
    f = poly_trim(f)
    out = []
    deg = 1
    while len(f) > 1:
        if 2 * deg > len(f) - 1:
            out.append((len(f) - 1, 1))    # what is left is irreducible
            break
        for q in monic_irreducibles(p, deg):
            mult = 0
            while len(f) > 1 and poly_rem(p, f, q) == ():
                f = _poly_div_exact(p, f, q)
                mult += 1
            if mult:
                out.append((deg, mult))
        deg += 1
    return out


def _poly_div_exact(p, a, b):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    quo = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = a[shift + len(b) - 1] * inv % p
        quo[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
    return poly_trim(quo)


# -- lattices and group algebras ----------------------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def frobenius_orbits(m: int, p: int) -> int:
    """Orbits of x -> p*x on Z/m."""
    seen = set()
    orbits = 0
    for x in range(m):
        if x in seen:
            continue
        orbits += 1
        y = x
        while y not in seen:
            seen.add(y)
            y = y * p % m
    return orbits


def quiver_path_count(vertices: int, arrows, power: int) -> int:
    """Paths of length < power (length 0 = the vertex idempotents)."""
    total = vertices
    paths = [(t,) for (_s, t) in arrows]
    length = 1
    while paths and length < power:
        total += len(paths)
        paths = [path + (t,) for path in paths for (s, t) in arrows
                 if s == path[-1]]
        length += 1
    return total


# -- closed forms per algebra family ----------------------------------------------
#
# A spec names a family member: ("T", n), ("M", n), ("poly", coeffs),
# ("C", n), ("quiver", vertices, arrows, power), ("prod", spec, spec).
# expected() gives the dimension, the number of atoms (= molecules = simple
# modules = prime ideals for a finite-dimensional algebra) and the
# dimension of the Jacobson radical.


def expected(spec, p: int) -> dict:
    kind = spec[0]
    if kind == "T":
        n = spec[1]
        return {"dim": n * (n + 1) // 2, "atoms": n, "rad": n * (n - 1) // 2}
    if kind == "M":
        n = spec[1]
        return {"dim": n * n, "atoms": 1, "rad": 0}
    if kind == "poly":
        coeffs = poly_trim(spec[1])
        deg = len(coeffs) - 1
        if p == 0:
            # Over Q the benchmark only uses x^n.
            if any(coeffs[:-1]):
                raise ValueError("only x^n is supported over Q")
            return {"dim": deg, "atoms": 1, "rad": deg - 1}
        facs = factor_degrees(p, coeffs)
        return {"dim": deg, "atoms": len(facs),
                "rad": deg - sum(d for d, _m in facs)}
    if kind == "C":
        if p == 0:
            raise ValueError("group algebras are only used over F_p")
        n = m = spec[1]
        while m % p == 0:
            m //= p
        return {"dim": n, "atoms": frobenius_orbits(m, p), "rad": n - m}
    if kind == "quiver":
        _kind, vertices, arrows, power = spec
        dim = quiver_path_count(vertices, arrows, power)
        return {"dim": dim, "atoms": vertices, "rad": dim - vertices}
    if kind == "prod":
        a, b = expected(spec[1], p), expected(spec[2], p)
        return {k: a[k] + b[k] for k in ("dim", "atoms", "rad")}
    raise ValueError(f"unknown spec {spec!r}")


# -- structure constants in the natural bases -----------------------------------


def _zeros(d):
    return [[[0] * d for _ in range(d)] for _ in range(d)]


def matrix_units(pairs):
    """Span of the matrix units e_rc for (r, c) in pairs, closed under product."""
    idx = {pc: i for i, pc in enumerate(pairs)}
    sc = _zeros(len(pairs))
    for (r1, c1), i in idx.items():
        for (r2, c2), j in idx.items():
            if c1 == r2:
                sc[i][j][idx[(r1, c2)]] = 1
    unit = [1 if r == c else 0 for r, c in pairs]
    return sc, unit


def build(spec, p: int):
    """(sc, unit) of a family member in its natural basis."""
    kind = spec[0]
    if kind == "T":
        n = spec[1]
        return matrix_units([(r, c) for r in range(n) for c in range(r, n)])
    if kind == "M":
        n = spec[1]
        return matrix_units([(r, c) for r in range(n) for c in range(n)])
    if kind == "poly":
        return companion(spec[1], p)
    if kind == "C":
        n = spec[1]
        sc = _zeros(n)
        for i in range(n):
            for j in range(n):
                sc[i][j][(i + j) % n] = 1
        return sc, [1] + [0] * (n - 1)
    if kind == "prod":
        (sa, ua), (sb, ub) = build(spec[1], p), build(spec[2], p)
        da, db = len(sa), len(sb)
        sc = _zeros(da + db)
        for i, j, k in itertools.product(range(da), repeat=3):
            sc[i][j][k] = sa[i][j][k]
        for i, j, k in itertools.product(range(db), repeat=3):
            sc[da + i][da + j][da + k] = sb[i][j][k]
        return sc, list(ua) + list(ub)
    raise ValueError(f"no natural basis for {spec!r}")


def companion(coeffs, p: int):
    """k[x]/(f) on 1, x, ..., x^(d-1); f monic, low to high."""
    f = list(coeffs)
    d = len(f) - 1
    mod = (lambda v: v % p) if p else (lambda v: v)
    powers = [[1 if k == i else 0 for k in range(d)] for i in range(d)]
    cur = powers[-1]
    for _ in range(d - 1):          # x^d .. x^(2d-2)
        carry = cur[-1]
        nxt = [0] + cur[:-1]
        cur = [mod(a - carry * c) for a, c in zip(nxt, f[:d])]
        powers.append(cur)
    sc = [[list(powers[i + j]) for j in range(d)] for i in range(d)]
    return sc, [1] + [0] * (d - 1)


# -- random change of basis over F_p ------------------------------------------------


def _inverse_mod(m, p):
    """Inverse of a square matrix over F_p, or None when singular."""
    n = len(m)
    a = [list(row) + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], p - 2, p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [(x - c * y) % p for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def random_basis(sc, unit, p: int, rng):
    """The same algebra on a basis drawn uniformly from GL_d(F_p).

    New basis vector i is sum_j P[i][j] b_j; coordinates move by P^-1.
    """
    d = len(sc)
    while True:
        pm = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        pinv = _inverse_mod(pm, p)
        if pinv is not None:
            break

    def to_new(old):
        return [sum(old[j] * pinv[j][k] for j in range(d)) % p
                for k in range(d)]

    new_sc = _zeros(d)
    for i in range(d):
        for j in range(d):
            prod = [0] * d
            for a, pa in enumerate(pm[i]):
                if not pa:
                    continue
                for b, pb in enumerate(pm[j]):
                    if not pb:
                        continue
                    c = pa * pb
                    for k, v in enumerate(sc[a][b]):
                        if v:
                            prod[k] += c * v
            new_sc[i][j] = to_new([x % p for x in prod])
    return new_sc, to_new(list(unit))


# -- fixture text ------------------------------------------------------------------


def fixture_text(name: str, p: int, sc, unit) -> str:
    """A structure-constant fixture in the documented line format."""
    lines = ["[backend]", "kind = algebra", f"field = F{p}",
             "source = structure_constants", f"dim = {len(sc)}",
             f"name = {name}", "unit = " + " ".join(str(int(u)) for u in unit)]
    for i, plane in enumerate(sc):
        for j, row in enumerate(plane):
            for k, v in enumerate(row):
                if v:
                    lines.append(f"c = {i} {j} {k} {int(v)}")
    return "\n".join(lines) + "\n"
