"""Time the verifier and the classifications on inputs of growing size.

Usage: python tools/ladder.py [OUT.json]      (default BENCH_ladder.json)

Runs each rung once, in this order:

- ``upper_triangular_algebra(n, F2)`` alone for n = 16, 20 and 24
  (dimension 136, 210 and 300), each in a fresh interpreter: the build's
  seconds and the rise in peak RSS it causes;
- ``bound_quiver_algebra`` over F_2 alone, in the same way, on one vertex
  with k loops and all k^2 products of two loops zero, for k = 5, 10 and
  19 (dimension k + 1, and 1 + k + k^2 paths listed: 381 for k = 19);
- ``verify_correspondence(ArtinianBackend(a))`` with each algebra built
  fresh (its associativity check included in the time): T_n(F_2) for
  n = 2..16, 20 and 24 (dimension 3..136, 210 and 300), n = 20 and 24
  each in a fresh interpreter, with the rise in peak RSS the build and
  the verification cause, then the same
  algebra for n = 16 and 20 as the path algebra of the quiver A_n
  (``bound_quiver_algebra``, no relations), whose basis is the paths,
  then F_2[C_n] for n = 32, 64 and 128, then M_3(F_3), M_n(F_2) for
  n = 4, 6, 8, 10 (J = 0), M_2(Q) and T_4(Q), then the tuple-row path on
  T_n(F_3) for n = 8, 10, 12 and T_n(Q) for n = 6, 8;
- ``prime_radical_of_zero`` on T_20(F_2), the molecular route to the
  reduced part, the algebra and its 20 primes built outside the timed
  region;
- ``verify_correspondence`` on Z with windows 1000..6000, 20000 and
  100000 and on Q[x] with windows 150, 300 and 1000 (the backend built in
  the time), and on Q[x] window 20000 alone in a fresh interpreter: its
  seconds and the rise in peak RSS it causes;
- ``ringspectra hasse fixtures/z.alg --window 20000 --dot TMP``
  in-process (the verification and the diagram of 2,263 points);
- ``verify_correspondence(IntModBackend(q * r))`` for q < r the two primes
  just above 10^k, k = 4, 6, 8, 10, and one rung past the factorization
  budget, k = 13, recorded as refused (the backend, and so the
  factorization of q * r, built in the time);
- ``ringspectra verify`` on x^2 + 10^k over Q for k = 12, 14, 16, as a
  ``kind = poly_quot`` fixture and as a ``source = companion`` algebra,
  each in a fresh interpreter (a rational root search whose candidates
  come from the divisors of 10^k);
- ``ringspectra verify`` in a fresh interpreter on F_31[C_3], F_11[C_10],
  F_10007[C_2], F_100003[C_2], F_1009[C_4], F_(10^16 + 61)[C_2],
  M_2(F_p) for p = 31, 101, 1009 and 10^16 + 61, M_3(F_31), F_41^16 in
  the basis drawn from ``random.Random(1)`` (on its structure constants)
  and M_2(Q(i)) (on its structure constants): large primes, where the
  blocks are cut by Euler's criterion over F_p and the simple search
  shrinks right ideals over F_p; then on the companion algebra of x^2
  over F_(10^16 + 61), whose field is certified by Miller-Rabin;
- ``ringspectra analyze fixtures/z.alg --window N --json TMP`` for
  N = 41, 43, 47 (14 to 16 molecules, up to the 2^16 subset budget), each
  in a fresh interpreter: its seconds and the rise in peak RSS it causes;
- ``ringspectra analyze T.alg --atoms --json TMP`` in-process on
  ``source = triangular`` fixtures for T_9(F_2) and T_12(F_2) (a listing:
  the algebra, its radical and its simples, no verification suite);
- ``ringspectra analyze T.alg --subcats --dot TMP`` in a fresh
  interpreter on T_8(F_2), the radical-ideal lattice on 8 primes, and on
  T_9(F_2), refused past the 2^8 subset budget;
- ``classify_locally_closed_localizing`` on T_9(F_2), after building the
  algebra and its primes outside the timed region;
- ``is_monoform`` on E(S1) of T_9(F_2) (dimension 9, past the oracle's
  enumeration budget), on P6 of T_6(F_3) and on E(S1) of T_4(Q), the
  algebra and module built outside the timed region; a refusal is
  recorded as refused, with the time to it;
- ``brute_is_monoform`` on E(S1) of T_7(F_2) (dimension 7, monoform, so
  every pair of simple members is compared), given its lattice, and
  ``brute_composition_factors`` on it, which enumerates the lattice
  itself; the algebra, module and lattice built outside the timed region;
- the brute-force oracles ``brute_mass``, ``brute_singular_subspace``,
  ``brute_is_prime_object`` and ``brute_is_monoform`` on the regular
  module of T_3(F_2), and ``brute_is_prime`` on each proper ideal of its
  ideal lattice (the lattice enumerated in the time), the algebra, module
  and primes built outside the timed region;
- ``enumerate_subspaces`` of F_2^7 (29,212 subspaces) and of F_3^5, near
  the edge of the oracle's default budget, and ``brute_singular_subspace``
  and ``brute_mass`` on the regular module of the product of the cyclic
  quiver algebra ``quiver.cycle.J3_f2`` with F_2 (dimension 7, so its
  right ideals are filtered from those 29,212 subspaces and its module
  has 128 vectors), built as for T_3(F_2);
- ``ringspectra verify fixtures/cycle_quiver.alg --exhaustive`` in-process.

ringspectra is imported from the ``src`` directory of the checkout this
file sits in, so a copy of the file times the checkout it is copied into.
Stdlib only.

Seconds are recorded to the microsecond.  A ``verify`` in a fresh
interpreter that has not ended after VERIFY_TIMEOUT_S is stopped and
recorded with ``seconds: null`` as "did not finish"; one that crashes is
recorded with ``seconds: null``, the interpreter's exit code and the last
line of its stderr.  Once a T_n(F_2)
rung takes longer than SKIP_AFTER_S, the higher T_n rungs, the
``analyze --atoms`` ones included, are recorded with ``seconds: null``
instead of being run: verification grows several-fold with each step in
n.  Single runs on a shared host; read the figures as sizes, not as
gates.
"""

import contextlib
import io
import json
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ringspectra.algebras import (BoundQuiver,  # noqa: E402
                                  bound_quiver_algebra, cyclic_group_algebra,
                                  matrix_algebra, product_algebra,
                                  upper_triangular_algebra)
from ringspectra.cli import main as cli_main  # noqa: E402
from ringspectra.commutative import (IntegerBackend, IntModBackend,  # noqa: E402
                                     PolyBackend)
from ringspectra.errors import BudgetExceeded, CapabilityError  # noqa: E402
from ringspectra.linalg import F2, F3, GF, QQ, Matrix  # noqa: E402
from ringspectra.modules import (RightModule, injective_envelope,  # noqa: E402
                                 is_monoform, primitive_idempotents,
                                 simple_modules)
from ringspectra.ideals import (TwoSidedIdeal, minimal_primes,  # noqa: E402
                                prime_radical_of_zero)
from ringspectra.oracle import (brute_composition_factors,  # noqa: E402
                                brute_is_monoform, brute_is_prime,
                                brute_is_prime_object, brute_mass,
                                brute_singular_subspace, corpus,
                                enumerate_submodules, enumerate_subspaces,
                                enumerate_two_sided_ideals)
from ringspectra.spectra import ArtinianBackend, verify_correspondence  # noqa: E402
from ringspectra.subcats import classify_locally_closed_localizing  # noqa: E402

SKIP_AFTER_S = 300.0
VERIFY_TIMEOUT_S = 30.0


# The peak RSS of the fresh interpreter, in kB: VmHWM starts afresh at
# exec, whereas ru_maxrss keeps the peak of the process it was forked
# from, the ladder itself, which hides every rise below that (Linux).
PEAK_KB = """\
def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))
"""


BUILD_ONLY = PEAK_KB + """\
import sys, time
sys.path.insert(0, sys.argv[1])
from ringspectra.algebras import (BoundQuiver, bound_quiver_algebra,
                                  upper_triangular_algebra)
from ringspectra.linalg import F2
k = int(sys.argv[3])
loops = tuple((f"x{i}", 0, 0) for i in range(k))
zero = tuple(((1, (i, j)),) for i in range(k) for j in range(k))
build = {"triangular": lambda: upper_triangular_algebra(k, F2),
         "loops": lambda: bound_quiver_algebra(F2, BoundQuiver(1, loops, zero))}
before = peak_kb()
t0 = time.perf_counter()
a = build[sys.argv[2]]()
seconds = time.perf_counter() - t0
print(seconds, a.dim, peak_kb() - before)
"""


def build_only(source, n):
    """Build T_n(F_2) (source "triangular"), or the n-loop quiver with every
    product of two loops zero ("loops"), in a fresh interpreter, whose
    peak RSS then rises by what the build holds at its peak."""
    out = subprocess.run([sys.executable, "-c", BUILD_ONLY, str(ROOT / "src"),
                          source, str(n)], capture_output=True, text=True,
                         check=True)
    seconds, dim, rise = out.stdout.split()
    return float(seconds), {"dim": int(dim),
                            "max_rss_rise_mb": round(int(rise) / 1024, 1)}


def verify_algebra(build, n, field):
    t0 = time.perf_counter()
    a = build(n, field)
    report = verify_correspondence(ArtinianBackend(a))
    return time.perf_counter() - t0, {"dim": a.dim, "passed": report.passed()}


VERIFY_ALGEBRA = PEAK_KB + """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from ringspectra import linalg
from ringspectra.algebras import upper_triangular_algebra
from ringspectra.spectra import ArtinianBackend, verify_correspondence
before = peak_kb()
t0 = time.perf_counter()
a = upper_triangular_algebra(int(sys.argv[3]), getattr(linalg, sys.argv[2]))
report = verify_correspondence(ArtinianBackend(a))
seconds = time.perf_counter() - t0
print(json.dumps([seconds, a.dim, report.passed(), peak_kb() - before]))
"""


def verify_triangular_alone(field, n):
    """``verify_algebra`` on T_n over the field named ``field`` in
    ``ringspectra.linalg`` ("F2"), in a fresh interpreter, whose peak RSS
    then rises by what the build and the run hold at their peak."""
    out = subprocess.run([sys.executable, "-c", VERIFY_ALGEBRA,
                          str(ROOT / "src"), field, str(n)],
                         capture_output=True, text=True, check=True)
    seconds, dim, passed, rise = json.loads(out.stdout)
    return seconds, {"dim": dim, "passed": passed,
                     "max_rss_rise_mb": round(rise / 1024, 1)}


def molecular_reduced_part(n):
    """``prime_radical_of_zero`` on T_n(F_2), the algebra and its primes
    built outside the timing."""
    a = upper_triangular_algebra(n, F2)
    minimal_primes(a)                       # the primes, outside the timing
    t0 = time.perf_counter()
    rad = prime_radical_of_zero(a)
    return time.perf_counter() - t0, {"dim": a.dim, "radical_dim": rad.dim}


def verify_window(backend_cls, args, window):
    t0 = time.perf_counter()
    report = verify_correspondence(backend_cls(*args), window)
    return time.perf_counter() - t0, {"points": len(report.atoms),
                                      "passed": report.passed()}


VERIFY_WINDOW = PEAK_KB + """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from ringspectra.commutative import PolyBackend
from ringspectra.linalg import QQ
from ringspectra.spectra import verify_correspondence
before = peak_kb()
t0 = time.perf_counter()
report = verify_correspondence(PolyBackend(QQ), int(sys.argv[2]))
seconds = time.perf_counter() - t0
print(json.dumps([seconds, len(report.atoms), report.passed(),
                  peak_kb() - before]))
"""


def verify_qx_window_alone(window):
    """``verify_correspondence`` on Q[x] with ``window`` in a fresh
    interpreter, whose peak RSS then rises by what the run holds at its
    peak."""
    out = subprocess.run([sys.executable, "-c", VERIFY_WINDOW,
                          str(ROOT / "src"), str(window)],
                         capture_output=True, text=True, check=True)
    seconds, points, passed, rise = json.loads(out.stdout)
    return seconds, {"points": points, "passed": passed,
                     "max_rss_rise_mb": round(rise / 1024, 1)}


def hasse_z(window):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "z.dot"
        argv = ["hasse", str(ROOT / "fixtures" / "z.alg"),
                "--window", str(window), "--dot", str(out)]
        t0 = time.perf_counter()
        code = cli_main(argv)
        seconds = time.perf_counter() - t0
        arrows = out.read_text().count(" -> ") if code == 0 else None
    return seconds, {"exit": code, "arrows": arrows}


def verify_int_mod(q, r):
    """The verifier on Z/qr, the backend built in the time, or the time
    to the refusal."""
    t0 = time.perf_counter()
    try:
        report = verify_correspondence(IntModBackend(q * r))
    except CapabilityError:
        return time.perf_counter() - t0, {"refused": True}
    return time.perf_counter() - t0, {"points": len(report.atoms),
                                      "passed": report.passed()}


# The two primes just above 10^k.
INT_MOD_PRIMES = {4: (10007, 10009), 6: (1000003, 1000033),
                  8: (100000007, 100000037), 10: (10000000019, 10000000033),
                  13: (10000000000037, 10000000000051)}


CLI = """\
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from ringspectra.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    code = main(sys.argv[2:])
    seconds = time.perf_counter() - t0
print(json.dumps([seconds, code]))
"""

# x^2 + 10^k over Q, as a symbolic backend and as a finite-dimensional algebra.
ROOTLESS = {
    "poly_quot": "[backend]\nkind = poly_quot\nfield = Q\nmodulus = {} 0 1\n",
    "companion": ("[backend]\nkind = algebra\nfield = Q\nsource = companion\n"
                  "poly = {} 0 1\n"),
}


def verify_fixture(text, command="verify", *options):
    """``ringspectra COMMAND FIXTURE OPTIONS`` (by default ``verify``) on the
    fixture ``text`` in a fresh interpreter, stopped after
    VERIFY_TIMEOUT_S; a crash is recorded by the interpreter's exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "a.alg"
        fixture.write_text(text)
        try:
            out = subprocess.run([sys.executable, "-c", CLI, str(ROOT / "src"),
                                  command, str(fixture), *options],
                                 capture_output=True, text=True,
                                 timeout=VERIFY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, {"note": "did not finish within "
                                  f"{VERIFY_TIMEOUT_S:.0f} s"}
    if out.returncode:
        return None, {"exit": out.returncode,
                      "note": "crashed: " + out.stderr.strip().splitlines()[-1]}
    seconds, code = json.loads(out.stdout)
    return seconds, {"exit": code}


def subcats_dot(n):
    """``analyze --subcats --dot`` on T_n(F_2) in a fresh interpreter: the
    exit code, and the edges of the DOT it leaves, or None if it leaves
    none."""
    with tempfile.TemporaryDirectory() as tmp:
        dot = Path(tmp) / "t.dot"
        seconds, facts = verify_fixture(
            f"[backend]\nkind = algebra\nfield = F2\nsource = triangular\n"
            f"n = {n}\n", "analyze", "--subcats", "--dot", str(dot))
        facts["edges"] = dot.read_text().count(" -> ") if dot.exists() else None
    return seconds, facts


def cyclic_fixture(p, n):
    """F_p[C_n], given by its group table."""
    table = "; ".join(" ".join(str((i + j) % n) for j in range(n))
                      for i in range(n))
    return (f"[backend]\nkind = algebra\nfield = F{p}\nsource = group\n"
            f"table = {table}\n")


def matrix_fixture(p, n):
    return f"[backend]\nkind = algebra\nfield = F{p}\nsource = matrix\nn = {n}\n"


def gaussian_matrix_fixture():
    """M_2(Q(i)) on e_rc (x) 1 and e_rc (x) i, the basis element of index
    2 (2r + c) + t for t = 0, 1: e_rc e_cd = e_rd, and i i = -1."""
    lines = [f"c = {2 * (2 * r + c) + s} {2 * (2 * c + d) + t} "
             f"{2 * (2 * r + d) + (s ^ t)} {-1 if s and t else 1}"
             for r in range(2) for c in range(2) for d in range(2)
             for s in range(2) for t in range(2)]
    return ("[backend]\nkind = algebra\nfield = Q\n"
            "source = structure_constants\ndim = 8\n" + "\n".join(lines) + "\n")


def split_field_power_fixture(p, r, seed):
    """F_p^r in the basis given by the rows of an invertible matrix drawn
    from ``random.Random(seed)``, as structure constants.  On the r
    orthogonal idempotents the product is coordinatewise."""
    f = GF(p)
    rng = random.Random(seed)
    while True:
        change = Matrix(f, [[rng.randrange(p) for _ in range(r)]
                            for _ in range(r)], r)
        if change.rank() == r:
            break
    lines = [f"c = {i} {j} {k} {c}"
             for i, u in enumerate(change.rows)
             for j, v in enumerate(change.rows)
             for k, c in enumerate(change.solve_left(
                 tuple(x * y % p for x, y in zip(u, v)))) if c]
    return (f"[backend]\nkind = algebra\nfield = F{p}\n"
            f"source = structure_constants\ndim = {r}\n"
            + "\n".join(lines) + "\n")


ANALYZE_Z = PEAK_KB + """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from ringspectra.cli import main
out = sys.argv[4]
before = peak_kb()
t0 = time.perf_counter()
code = main(["analyze", sys.argv[2], "--window", sys.argv[3], "--json", out])
seconds = time.perf_counter() - t0
rise = peak_kb() - before
with open(out) as fh:
    count = json.load(fh)["subcategories"]["locally_closed_localizing_count"]
print(json.dumps([seconds, code, count, rise]))
"""


def analyze_z(window):
    """``analyze z.alg --window N`` in a fresh interpreter, whose peak
    RSS then rises by what the run holds at its peak."""
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run([sys.executable, "-c", ANALYZE_Z,
                              str(ROOT / "src"), str(ROOT / "fixtures" / "z.alg"),
                              str(window), str(Path(tmp) / "z.json")],
                             capture_output=True, text=True, check=True)
    seconds, code, count, rise = json.loads(out.stdout)
    return seconds, {"exit": code, "locally_closed": count,
                     "max_rss_rise_mb": round(rise / 1024, 1)}


def analyze_atoms(source, n, field):
    """``analyze --atoms`` on a fixture with ``source`` and ``n``."""
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "a.alg"
        fixture.write_text(f"[backend]\nkind = algebra\nfield = {field}\n"
                           f"source = {source}\nn = {n}\n")
        out = Path(tmp) / "a.json"
        argv = ["analyze", str(fixture), "--atoms", "--json", str(out)]
        t0 = time.perf_counter()
        code = cli_main(argv)
        seconds = time.perf_counter() - t0
        atoms = json.loads(out.read_text())["atoms"]["elements"]
    return seconds, {"dim": n * (n + 1) // 2, "exit": code,
                     "atoms": len(atoms)}


def classify_algebra(build, n, field):
    backend = ArtinianBackend(build(n, field))
    backend.molecules()                     # the primes, outside the timing
    t0 = time.perf_counter()
    found = classify_locally_closed_localizing(backend)
    return time.perf_counter() - t0, {"dim": backend.algebra.dim,
                                      "locally_closed": len(found)}


def cyclic_group(n, field):
    return cyclic_group_algebra(field, n)


def a_n_path_algebra(n, field):
    """The path algebra of 1 -> 2 -> ... -> n, which is T_n in the basis
    of its paths."""
    arrows = tuple((f"a{i + 1}", i, i + 1) for i in range(n - 1))
    return bound_quiver_algebra(field, BoundQuiver(n, arrows, (), n),
                                name=f"kA{n}")


def envelope_of_s1(a):
    return injective_envelope(simple_modules(a)[0].module)[0]


def last_projective(a):
    return primitive_idempotents(a)[-1].projective


def monoform(build, n, field, module_of):
    """``is_monoform`` on ``module_of(build(n, field))``, the algebra and
    the module built outside the timing, or the time to the refusal."""
    m = module_of(build(n, field))
    t0 = time.perf_counter()
    try:
        facts = {"monoform": is_monoform(m)}
    except (BudgetExceeded, CapabilityError):
        facts = {"refused": True}
    return time.perf_counter() - t0, {"dim": m.dim, **facts}


def oracle_on_envelope(n, field, run):
    """``run(m, lattice)`` on m = E(S1) of T_n(field), the algebra, the
    module and its submodule lattice built outside the timing."""
    m = envelope_of_s1(upper_triangular_algebra(n, field))
    lattice = enumerate_submodules(m)
    t0 = time.perf_counter()
    facts = run(m, lattice)
    return time.perf_counter() - t0, {"dim": m.dim, **facts}


def oracle_on(build, run):
    """``run(regular module, backend)`` on the algebra ``build()``, the
    algebra, module and primes built outside the timing."""
    a = build()
    reg = RightModule.regular(a)
    backend = ArtinianBackend(a)
    backend.molecules()                     # the primes, outside the timing
    t0 = time.perf_counter()
    facts = run(reg, backend)
    return time.perf_counter() - t0, facts


def t3_f2():
    return upper_triangular_algebra(3, F2)


def cycle_j3_times_f2():
    algebras = dict(corpus())
    return product_algebra(algebras["quiver.cycle.J3_f2"], algebras["field_f2"])


def subspaces(field, dim):
    t0 = time.perf_counter()
    count = len(enumerate_subspaces(field, dim))
    return time.perf_counter() - t0, {"subspaces": count}


def primes_by_brute_force(a):
    """The proper ideals of a that ``brute_is_prime`` finds prime, over
    the lattice of all ideals."""
    lattice = enumerate_two_sided_ideals(a)
    return {"ideals": len(lattice),
            "primes": sum(brute_is_prime(TwoSidedIdeal(a, s, validate=False),
                                         lattice)
                          for s in lattice if s.dim < a.dim)}


def verify_exhaustive(name):
    argv = ["verify", str(ROOT / "fixtures" / name), "--exhaustive"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        t0 = time.perf_counter()
        code = cli_main(argv)
        seconds = time.perf_counter() - t0
    return seconds, {"exit": code, "summary": out.getvalue().splitlines()[-1]}


def mass(reg, backend):
    return {"mass": sorted(r.label for r in brute_mass(reg, backend))}


def singular(reg, backend):
    return {"dim": brute_singular_subspace(reg).dim}


# (label, run, arguments); labels ending in "(F2)" form the T_n ladder, and
# their arguments hold n second.
RUNGS = ([(f"T{n}(F2) build", build_only, ("triangular", n))
          for n in (16, 20, 24)]
         + [(f"{k} loops, products zero, build", build_only, ("loops", k))
            for k in (5, 10, 19)]
         + [(f"T{n}(F2)", verify_algebra, (upper_triangular_algebra, n, F2))
            for n in range(2, 17)]
         + [(f"T{n}(F2)", verify_triangular_alone, ("F2", n)) for n in (20, 24)]
         + [(f"A{n} path algebra (F2)", verify_algebra, (a_n_path_algebra, n, F2))
            for n in (16, 20)]
         + [(f"F2[C{n}]", verify_algebra, (cyclic_group, n, F2))
            for n in (32, 64, 128)]
         + [("M3(F3)", verify_algebra, (matrix_algebra, 3, F3))]
         + [(f"M{n}(F2)", verify_algebra, (matrix_algebra, n, F2))
            for n in (4, 6, 8, 10)]
         + [("M2(Q)", verify_algebra, (matrix_algebra, 2, QQ)),
            ("T4(Q)", verify_algebra, (upper_triangular_algebra, 4, QQ))]
         + [(f"T{n}(F3)", verify_algebra, (upper_triangular_algebra, n, F3))
            for n in (8, 10, 12)]
         + [(f"T{n}(Q)", verify_algebra, (upper_triangular_algebra, n, QQ))
            for n in (6, 8)]
         + [("T20(F2) molecular reduced part, primes cached",
             molecular_reduced_part, (20,))]
         + [(f"Z window {w}", verify_window, (IntegerBackend, (), w))
            for w in [*range(1000, 7000, 1000), 20000, 100000]]
         + [(f"Q[x] window {w}", verify_window, (PolyBackend, (QQ,), w))
            for w in (150, 300, 1000)]
         + [("Q[x] window 20000, fresh interpreter", verify_qx_window_alone,
             (20000,))]
         + [("hasse z.alg --window 20000", hasse_z, (20000,))]
         + [(f"Z/qr, q and r above 10^{k}", verify_int_mod, qr)
            for k, qr in INT_MOD_PRIMES.items()]
         + [(f"verify {kind} x^2+10^{k} over Q", verify_fixture,
             (ROOTLESS[kind].format(10 ** k),))
            for kind in ROOTLESS for k in (12, 14, 16)]
         + [(f"verify F{p}[C{n}]", verify_fixture, (cyclic_fixture(p, n),))
            for p, n in ((31, 3), (11, 10), (10007, 2), (100003, 2), (1009, 4))]
         + [("verify F(10^16+61)[C2]", verify_fixture,
             (cyclic_fixture(10 ** 16 + 61, 2),))]
         + [(f"verify M{n}(F{p})", verify_fixture, (matrix_fixture(p, n),))
            for p, n in ((31, 2), (101, 2), (1009, 2), (31, 3))]
         + [("verify M2(F(10^16+61))", verify_fixture,
             (matrix_fixture(10 ** 16 + 61, 2),))]
         + [("verify F41^16, random basis (seed 1)", verify_fixture,
             (split_field_power_fixture(41, 16, 1),))]
         + [("verify M2(Q(i))", verify_fixture, (gaussian_matrix_fixture(),))]
         + [("verify companion x^2 over F(10^16+61)", verify_fixture,
             ("[backend]\nkind = algebra\nfield = F10000000000000061\n"
              "source = companion\npoly = 0 0 1\n",))]
         + [(f"analyze z.alg --window {w}", analyze_z, (w,))
            for w in (41, 43, 47)]
         + [(f"analyze --atoms T{n}(F2)", analyze_atoms, ("triangular", n, "F2"))
            for n in (9, 12)]
         + [(f"analyze --subcats --dot T{n}(F2), fresh interpreter",
             subcats_dot, (n,)) for n in (8, 9)]
         + [("T9(F2) lcl classification", classify_algebra,
             (upper_triangular_algebra, 9, F2))]
         + [("T9(F2) E(S1) is_monoform", monoform,
             (upper_triangular_algebra, 9, F2, envelope_of_s1)),
            ("T6(F3) P6 is_monoform", monoform,
             (upper_triangular_algebra, 6, F3, last_projective)),
            ("T4(Q) E(S1) is_monoform", monoform,
             (upper_triangular_algebra, 4, QQ, envelope_of_s1))]
         + [("T7(F2) E(S1) brute_is_monoform", oracle_on_envelope, (
                 7, F2, lambda m, lattice: {
                     "monoform": brute_is_monoform(m, lattice)})),
            ("T7(F2) E(S1) brute_composition_factors", oracle_on_envelope, (
                 7, F2, lambda m, _lattice: {
                     "length": sum(brute_composition_factors(m).values())}))]
         + [("T3(F2) reg brute_mass", oracle_on, (t3_f2, mass)),
            ("T3(F2) reg brute_singular_subspace", oracle_on, (t3_f2, singular)),
            ("T3(F2) reg brute_is_prime_object", oracle_on, (
                 t3_f2, lambda reg, b: {"prime": brute_is_prime_object(reg)})),
            ("T3(F2) reg brute_is_monoform", oracle_on, (
                 t3_f2, lambda reg, b: {"monoform": brute_is_monoform(reg)})),
            ("T3(F2) ideals brute_is_prime", oracle_on, (
                 t3_f2, lambda reg, b: primes_by_brute_force(reg.algebra))),
            ("enumerate_subspaces F2^7", subspaces, (F2, 7)),
            ("enumerate_subspaces F3^5", subspaces, (F3, 5)),
            ("cycle.J3 x F2 reg brute_singular_subspace", oracle_on,
             (cycle_j3_times_f2, singular)),
            ("cycle.J3 x F2 reg brute_mass", oracle_on,
             (cycle_j3_times_f2, mass)),
            ("verify cycle_quiver.alg --exhaustive", verify_exhaustive,
             ("cycle_quiver.alg",))])


def main(argv) -> int:
    out = Path(argv[0]) if argv else ROOT / "BENCH_ladder.json"
    rows = []
    too_slow = False
    for label, run, args in RUNGS:
        ladder = label.endswith("(F2)")
        if ladder and too_slow:
            n = args[1]
            rows.append({"input": label, "dim": n * (n + 1) // 2, "seconds": None,
                         "note": f"not run: a lower rung took over {SKIP_AFTER_S:.0f} s"})
            print(f"{label:38s} not run", flush=True)
            continue
        seconds, facts = run(*args)
        if seconds is not None:
            too_slow = too_slow or (ladder and seconds > SKIP_AFTER_S)
            seconds = round(seconds, 6)
        rows.append({"input": label, "seconds": seconds, **facts})
        shown = "  ".join(f"{k}={v}" for k, v in facts.items())
        print(f"{label:38s} {seconds} s  {shown}", flush=True)
    doc = {"tool": "tools/ladder.py", "python": platform.python_version(),
           "machine": platform.machine(), "rungs": rows}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
