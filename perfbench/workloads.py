"""The four parts of the benchmark: seeded inputs, operations, and checks.

Each ``build_*`` function does the workload's set-up (everything before
the first timed operation) and returns a ``Workload``: a fixed list of
operations in seeded order.  An operation's ``run`` is the only timed
part; its ``check`` compares the output against closed forms from
``closedforms`` or against properties every answer must have, and raises
``CheckFailed`` otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import closedforms as cf
from ringspectra import cli, oracle
from ringspectra.algebras import FiniteDimAlgebra, jacobson_radical
from ringspectra.commutative import IntegerBackend, IntModBackend, PolyBackend, PolyQuotBackend
from ringspectra.goldie import is_essential_submodule, singular_subspace
from ringspectra.ideals import TwoSidedIdeal, is_prime
from ringspectra.linalg import GF, QQ
from ringspectra.modules import is_compressible, is_monoform, is_prime_object
from ringspectra.spectra import ArtinianBackend, verify_correspondence


class CheckFailed(Exception):
    """An output disagrees with the closed form or a required property."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    kind: str            # what is called, e.g. "analyze --atoms"
    label: str           # which input
    run: object          # () -> output; the timed part
    check: object        # (output, expect) -> None, raises CheckFailed
    expect: dict
    group: str = ""      # operations on one input share a group
    algebra_input: bool = False
    part: str = ""       # the workload that built it, inside "algebras"


@dataclass
class Workload:
    ops: list
    # (outputs by (group, kind)) -> None; runs once per round, untimed.
    cross_check: object = None


# -- shared report checks ---------------------------------------------------------

def check_spectra(atoms, molecules, amin, mmin, phi, psi, exp):
    """Counts, phi(psi(m)) = m, and |AMin| = |MMin| where it must hold."""
    require(len(atoms) == exp["atoms"],
            f"{len(atoms)} atoms, expected {exp['atoms']}")
    require(len(molecules) == exp["molecules"],
            f"{len(molecules)} molecules, expected {exp['molecules']}")
    for m in molecules:
        require(phi.get(psi.get(m)) == m, f"phi(psi({m})) != {m}")
    if exp.get("amin_is_mmin", True):
        require(len(amin) == len(mmin),
                f"|AMin| = {len(amin)} but |MMin| = {len(mmin)}")


def check_flags(aflags, mflags, exp):
    require(aflags == mflags, f"atomic flags {aflags} != molecular {mflags}")
    if exp.get("rad") is not None:
        require(aflags["reduced"] == (exp["rad"] == 0),
                f"reduced flag {aflags['reduced']}, radical dim {exp['rad']}")
        require(aflags["irreducible"] == (exp["atoms"] == 1),
                f"irreducible flag {aflags['irreducible']} with "
                f"{exp['atoms']} atoms")


def check_analyze(out, exp):
    code, text = out
    require(code == 0, f"exit {code}")
    rep = json.loads(text)
    if "atoms" in rep:
        atoms = rep["atoms"]["elements"]
        require(len(atoms) == exp["atoms"],
                f"{len(atoms)} atoms, expected {exp['atoms']}")
    if "molecules" in rep:
        mol = rep["molecules"]
        check_spectra(rep["atoms"]["elements"], mol["elements"],
                      rep["atoms"]["minimal"], mol["minimal"],
                      rep["phi"], rep["psi"], exp)
    if "flags" in rep:
        check_flags(rep["flags"]["atomic"], rep["flags"]["molecular"], exp)
    if "subcategories" in rep:
        sub = rep["subcategories"]
        if exp.get("localizing") is not None:
            require(sub.get("localizing_count") == exp["localizing"],
                    f"localizing_count {sub.get('localizing_count')}, "
                    f"expected {exp['localizing']}")
        if exp.get("lcl") is not None:
            require(sub["locally_closed_localizing_count"] == exp["lcl"],
                    f"locally closed count "
                    f"{sub['locally_closed_localizing_count']}, "
                    f"expected {exp['lcl']}")


def check_report(rep, exp):
    """A SpectrumReport from verify_correspondence."""
    require(rep.passed(), "verify_correspondence reports a failed assertion")
    check_spectra([a.label for a in rep.atoms], [m.label for m in rep.molecules],
                  rep.minimal_atoms, rep.minimal_molecules, rep.phi_table,
                  rep.psi_table, exp)
    check_flags(rep.atomic_flags, rep.molecular_flags, exp)


def check_verify(out, exp):
    code, text = out
    require(code == 0, f"exit {code}")
    lines = text.strip().splitlines()
    require(lines and lines[-1].startswith("pass:"),
            f"verify ends with {lines[-1] if lines else ''!r}")


def run_cli(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue()
    return run


def artinian_expect(exp):
    return dict(exp, molecules=exp["atoms"], localizing=2 ** exp["atoms"],
                lcl=2 ** exp["atoms"])


# -- analyze-corpus ---------------------------------------------------------------

# Every oracle.corpus() member by its family, for the closed forms.
_QUIVERS = {
    "loop.J2": (1, [(0, 0)], 2), "loop.J3": (1, [(0, 0)], 3),
    "two_loops.J2": (1, [(0, 0), (0, 0)], 2),
    "a12": (2, [(0, 1)], 99), "kronecker": (2, [(0, 1), (0, 1)], 99),
    "cycle.J2": (2, [(0, 1), (1, 0)], 2), "cycle.J3": (2, [(0, 1), (1, 0)], 3),
    "loop_arrow.J2": (2, [(0, 0), (0, 1)], 2),
    "arrow_loop.J2": (2, [(0, 1), (1, 1)], 2),
}


def corpus_specs():
    specs = {}
    for p, tag in ((2, "f2"), (3, "f3")):
        specs[f"field_{tag}"] = (p, ("poly", (1, 1)))
        specs[f"t2_{tag}"] = (p, ("T", 2))
        specs[f"m2_{tag}"] = (p, ("M", 2))
        specs[f"c2_{tag}"] = (p, ("C", 2))
        specs[f"c3_{tag}"] = (p, ("C", 3))
        specs[f"trunc2_{tag}"] = (p, ("poly", (0, 0, 1)))
        specs[f"trunc3_{tag}"] = (p, ("poly", (0, 0, 0, 1)))
        for qname, (v, arrows, power) in _QUIVERS.items():
            specs[f"quiver.{qname}_{tag}"] = (p, ("quiver", v, arrows, power))
    f2 = ("poly", (1, 1))
    specs.update({
        "t3_f2": (2, ("T", 3)), "trunc4_f2": (2, ("poly", (0, 0, 0, 0, 1))),
        "f2xf2": (2, ("prod", f2, f2)),
        "f2xf2xf2": (2, ("prod", ("prod", f2, f2), f2)),
        "f3xf3": (3, ("prod", f2, f2)),
        "f2_x2px": (2, ("poly", (0, 1, 1))), "f4": (2, ("poly", (1, 1, 1))),
        "f9": (3, ("poly", (1, 0, 1))),
        "f2_x2px_times_x": (2, ("poly", (0, 0, 1, 1))),
        "t2f2_x_f2": (2, ("prod", ("T", 2), f2)),
        "m2f2_x_f2": (2, ("prod", ("M", 2), f2)),
    })
    return specs


# The shipped fixtures and what each must give.
SHIPPED = {
    "cycle_quiver.alg": lambda: artinian_expect(
        cf.expected(("quiver", 2, [(0, 1), (1, 0)], 2), 2)),
    "fx2.alg": lambda: artinian_expect(cf.expected(("poly", (0, 0, 1)), 2)),
    "t2_f2.alg": lambda: artinian_expect(cf.expected(("T", 2), 2)),
    # lo = -2 .. hi = 2: five shift atoms and the generic one.
    "graded_kx.alg": lambda: {"atoms": 6, "molecules": 5,
                              "amin_is_mmin": False},
    "z.alg": lambda: _z_expect(10),
    "z12.alg": lambda: {"atoms": 2, "molecules": 2, "lcl": 4},
}


def _z_expect(bound):
    k = len(cf.primes_up_to(bound))
    return {"atoms": k + 1, "molecules": k + 1, "lcl": 2 ** k + 1}


def _cli_ops(argvs, path, label, group, exp, algebra_input):
    return [Op(" ".join(argv), label, run_cli(argv + [str(path)]),
               check_verify if argv[0] == "verify" else check_analyze,
               exp, group=group, algebra_input=algebra_input)
            for argv in argvs]


def build_analyze_corpus(seed, root: Path, workdir: Path) -> Workload:
    """Each corpus algebra twice: natural basis (analyze, verify) and a
    seeded random basis (analyze --atoms); each shipped fixture with all
    three commands."""
    rng = random.Random(seed)
    specs = corpus_specs()
    ops = []
    names = []
    for name, alg in oracle.corpus():
        p, spec = specs[name]
        exp = artinian_expect(cf.expected(spec, p))
        if alg.dim != exp["dim"] or alg.field.p != p:
            raise RuntimeError(f"corpus member {name} is not {spec} over F{p}")
        names.append(name)
        sc = [[list(row) for row in plane] for plane in alg.sc]
        natural = workdir / f"{name}.alg"
        natural.write_text(cf.fixture_text(name, p, sc, alg.unit))
        ops += _cli_ops([["analyze"], ["verify"]], natural, name, name, exp, True)
        # Only --atoms in the random basis: the Goldie section and verify
        # reach the sampled quotient-ring check, whose outcome there
        # depends on the basis.
        rsc, runit = cf.random_basis(sc, alg.unit, p, rng)
        rand = workdir / f"{name}@r.alg"
        rand.write_text(cf.fixture_text(name, p, rsc, runit))
        ops += _cli_ops([["analyze", "--atoms"]], rand, name + "@r", name, exp,
                        True)
    if sorted(names) != sorted(specs):
        raise RuntimeError("oracle.corpus() members changed")
    for fname, make in SHIPPED.items():
        exp = make()
        ops += _cli_ops([["analyze"], ["analyze", "--atoms"], ["verify"]],
                        root / "fixtures" / fname, fname, fname, exp,
                        "rad" in exp)
    rng.shuffle(ops)
    return Workload(ops, cross_check=_corpus_cross_check)


def _corpus_cross_check(outputs):
    """The --atoms section, in either basis, equals the full report's."""
    for (group, kind), (code, text) in outputs.items():
        full = outputs.get((group, "analyze"))
        if kind != "analyze --atoms" or code != 0 or full is None:
            continue
        require(json.loads(text)["atoms"] == json.loads(full[1])["atoms"],
                f"{group}: --atoms section differs from the full report")


# -- scaling ----------------------------------------------------------------------

# (field characteristic, family spec) in natural bases, dimensions 3 to 10.
# The F_p rungs and the Q rungs are separate, so a kernel written for one
# field shows only on that field's rungs.
SCALING_LADDER = (
    [(2, ("T", n)) for n in (2, 3, 4)]
    + [(p, ("T", n)) for p in (3, 0) for n in (2, 3)]
    + [(2, ("M", 2)), (2, ("M", 3)), (3, ("M", 2)), (0, ("M", 2))]
    + [(p, ("poly", (0,) * n + (1,))) for p in (2, 3) for n in (4, 8)]
    + [(0, ("poly", (0, 0, 0, 0, 1)))]
    + [(2, ("C", 6)), (3, ("C", 6))]
    + [(2, ("prod", ("T", 2), ("poly", (0, 0, 0, 1))))]
)


def rung_label(p, spec):
    return f"{spec}/{'Q' if p == 0 else f'F{p}'}"


def build_scaling(seed, root: Path, workdir: Path) -> Workload:
    ops = []
    for p, spec in SCALING_LADDER:
        sc, unit = cf.build(spec, p)
        exp = artinian_expect(cf.expected(spec, p))
        ops.append(Op("verify_correspondence", rung_label(p, spec),
                      _scaling_run(GF(p) if p else QQ, sc, unit), check_scaling,
                      exp, algebra_input=True))
    random.Random(seed).shuffle(ops)
    return Workload(ops)


def _scaling_run(fld, sc, unit):
    def run():
        a = FiniteDimAlgebra(fld, sc, unit=unit)
        return a, verify_correspondence(ArtinianBackend(a))
    return run


def check_scaling(out, exp):
    a, rep = out
    check_report(rep, exp)
    rad = jacobson_radical(a).dim
    require(rad == exp["rad"], f"radical dim {rad}, expected {exp['rad']}")


# -- oracle -----------------------------------------------------------------------

ORACLE_MAX_ALG_DIM = {2: 4, 3: 3}
ORACLE_MAX_MODULE_DIM = {2: 4, 3: 3}
SUBSPACE_LADDER = ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5))


def build_oracle(seed, root: Path, workdir: Path) -> Workload:
    ops = []
    for p, d in SUBSPACE_LADDER:
        ops.append(Op("enumerate_subspaces", f"F{p}^{d}",
                      _subspaces_run(GF(p), d), check_subspaces,
                      {"count": cf.subspace_count(d, p)}))
    for name, a in oracle.corpus():
        if a.dim > ORACLE_MAX_ALG_DIM[a.field.p]:
            continue
        b = ArtinianBackend(a)
        b.primes()
        ops.append(Op("is_prime", name, _prime_run(a), check_agree, {},
                      algebra_input=True))
        for mname, m in oracle.standard_modules(a):
            if m.dim > ORACLE_MAX_MODULE_DIM[a.field.p]:
                continue
            m.socle_space()
            m.radical_space()
            label = f"{name}:{mname}"
            ops.append(Op("essential", label, _essential_run(m), check_agree, {}))
            ops.append(Op("singular", label, _pair_run(
                singular_subspace, oracle.brute_singular_subspace, m),
                check_agree, {}))
            ops.append(Op("mass", label, _mass_run(b, m), check_agree, {}))
            if m.dim == 0:
                continue
            for kind, fast, brute in (
                    ("monoform", is_monoform, oracle.brute_is_monoform),
                    ("compressible", is_compressible, oracle.brute_is_compressible),
                    ("prime_object", is_prime_object, oracle.brute_is_prime_object)):
                ops.append(Op(kind, label, _pair_run(fast, brute, m),
                              check_agree, {}))
    random.Random(seed).shuffle(ops)
    return Workload(ops)


def _subspaces_run(fld, d):
    return lambda: len(oracle.enumerate_subspaces(fld, d))


def check_subspaces(count, exp):
    require(count == exp["count"],
            f"{count} subspaces, Gaussian-binomial sum {exp['count']}")


def _prime_run(a):
    def run():
        lattice = oracle.enumerate_two_sided_ideals(a)
        pairs = []
        for s in lattice:
            if s.dim == a.dim:
                continue
            ideal = TwoSidedIdeal(a, s, validate=False)
            pairs.append((is_prime(ideal), oracle.brute_is_prime(ideal, lattice)))
        return pairs
    return run


def _essential_run(m):
    def run():
        subs = oracle.enumerate_submodules(m)
        return [(is_essential_submodule(s, m),
                 oracle.brute_is_essential(s, m, subs)) for s in subs]
    return run


def _pair_run(fast, brute, m):
    return lambda: [(fast(m), brute(m))]


def _mass_run(b, m):
    return lambda: [(b.mass(m), oracle.brute_mass(m, b))]


def check_agree(pairs, exp):
    require(pairs, "nothing was compared")
    bad = [i for i, (fast, brute) in enumerate(pairs) if fast != brute]
    require(not bad, f"fast and brute force disagree at {bad[:5]}")


# -- windows ----------------------------------------------------------------------

Z_WINDOWS = (500, 1000, 1500, 2000, 2500, 3000)
QX_WINDOWS = (50, 100, 150)
Z_CLI_WINDOWS = (31, 37, 41)
# More than half of the operations are Z/n of nearly equal cost, so the
# median operation does not depend on the seed.
MODULI = 24          # seeded 12-digit moduli of Z/n
POLY_MODULI = 8      # seeded F_p[x] moduli
# Largest degree of a seeded irreducible factor over each field.
FACTOR_DEGREE = {2: 4, 3: 4, 5: 3, 7: 3}


def build_windows(seed, root: Path, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    for n in Z_WINDOWS:
        ops.append(Op("Z window", str(n), _verify_run(IntegerBackend, (), n),
                      check_report, _z_expect(n)))
    for n in QX_WINDOWS:
        # Linear points x - c with |c| <= n, and the generic point.
        ops.append(Op("Q[x] window", str(n), _verify_run(PolyBackend, (QQ,), n),
                      check_report, {"atoms": 2 * n + 2, "molecules": 2 * n + 2}))
    for n, k in _draw_int_moduli(rng, MODULI):
        ops.append(Op("Z/n", str(n), _verify_run(IntModBackend, (n,), None),
                      check_report, {"atoms": k, "molecules": k}))
    for p, f in _draw_poly_moduli(rng, POLY_MODULI):
        k = len(cf.factor_degrees(p, f))
        ops.append(Op("F_p[x]/(f)", f"F{p}:{f}",
                      _verify_run(PolyQuotBackend, (GF(p), f), None),
                      check_report, {"atoms": k, "molecules": k}))
    z_alg = root / "fixtures" / "z.alg"
    for n in Z_CLI_WINDOWS:
        ops.append(Op("analyze z.alg", str(n),
                      run_cli(["analyze", str(z_alg), "--window", str(n)]),
                      check_analyze, _z_expect(n)))
    rng.shuffle(ops)
    return Workload(ops)


def _draw_int_moduli(rng, count):
    """(n, distinct primes of n) for n = c*q*r, 10^11 <= n < 10^12.

    q and r are distinct primes in [100000, 101000) and c a product of
    small primes.  Trial division runs to about min(q, r), so every
    modulus costs the program about the same.
    """
    primes = [q for q in cf.primes_up_to(101000) if q > 100000]
    out = []
    while len(out) < count:
        q, r = rng.sample(primes, 2)
        c = 1
        for _ in range(rng.randrange(1, 4)):
            c *= rng.choice((2, 3, 5, 7, 11, 13))
        n = c * q * r
        if 10 ** 11 <= n < 10 ** 12:
            out.append((n, len(cf.distinct_prime_factors(c)) + 2))
    return out


def _draw_poly_moduli(rng, count):
    """Monic products of seeded irreducibles, degree 4 to 9, over F_2..F_7.

    Every irreducible table is built whatever the seed, so that set-up
    costs the same for every seed.
    """
    tables = {(p, d): cf.monic_irreducibles(p, d)
              for p, top in FACTOR_DEGREE.items() for d in range(1, top + 1)}
    out = []
    while len(out) < count:
        p = rng.choice(sorted(FACTOR_DEGREE))
        f = (1,)
        target = rng.randrange(4, 10)
        while len(f) - 1 < target:
            top = min(FACTOR_DEGREE[p], target - (len(f) - 1))
            deg = rng.randrange(1, top + 1)
            q = rng.choice(tables[p, deg])
            for _ in range(rng.randrange(1, 3)):
                if len(f) - 1 + deg <= 9:
                    f = cf.poly_mul(p, f, q)
        out.append((p, f))
    return out


def _verify_run(backend_cls, args, window):
    return lambda: verify_correspondence(backend_cls(*args), window)


PARTS = {
    "analyze-corpus": build_analyze_corpus,
    "scaling": build_scaling,
    "oracle": build_oracle,
    "windows": build_windows,
}


def build(name, seed, root: Path, workdir: Path) -> Workload:
    """A workload by name; "algebras" is analyze-corpus, scaling and oracle
    together, in one seeded order."""
    parts = ("analyze-corpus", "scaling", "oracle") if name == "algebras" \
        else (name,)
    ops, cross = [], []
    for part in parts:
        wl = PARTS[part](seed, root, workdir)
        for op in wl.ops:
            op.part = part
        ops += wl.ops
        if wl.cross_check:
            cross.append(wl.cross_check)
    if len(parts) > 1:
        random.Random(seed).shuffle(ops)
    return Workload(ops, cross_check=cross[0] if cross else None)
