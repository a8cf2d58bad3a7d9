"""Golden outputs: the CLI on every shipped fixture and the symbolic backends.

The expected files under ``tests/golden/`` pin the exact bytes the CLI
prints (``analyze``, ``verify``, ``hasse``) and writes (the ``--dot``
diagrams), and the exact reports the public API returns, so a refactor
that must not change behavior is checked against them.  After a deliberate
change of output, rewrite them with ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from ringspectra.cli import main as cli_main
from ringspectra.commutative import (GradedPolyBackend, IntegerBackend,
                                     IntModBackend, PolyBackend,
                                     PolyQuotBackend)
from ringspectra.errors import CapabilityError
from ringspectra.goldie import classical_quotient_ring, validate_quotient_ring
from ringspectra.linalg import F2, F3, GF, QQ
from ringspectra.spectra import verify_correspondence
from ringspectra.subcats import artinianization, reduced_part

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.alg"))
GOLDEN = Path(__file__).resolve().parent / "golden"
VARIANTS = {"default": [], "atoms": ["--atoms"], "molecules": ["--molecules"],
            "window13": ["--window", "13"]}
COMMANDS = {"verify": ["verify"], "verify_exhaustive": ["verify", "--exhaustive"],
            "hasse": ["hasse"]}
DOTS = {"analyze": [], "subcats": ["--subcats"]}

SYMBOLIC = {
    "z_w60": (IntegerBackend, (), 60),
    "z_mod_360": (IntModBackend, (360,), None),
    "z_mod_97": (IntModBackend, (97,), None),
    "q_x_w7": (PolyBackend, (QQ,), 7),
    "f3_x_w4": (PolyBackend, (F3,), 4),
    "f2_x_mod_x2_x3": (PolyQuotBackend, (F2, [0, 0, 1, 1]), None),
    "q_x_mod_x2_minus_1": (PolyQuotBackend, (QQ, [-1, 0, 1]), None),
    "f5_x_mod_x4_plus_1": (PolyQuotBackend, (GF(5), [1, 0, 0, 0, 1]), None),
    "graded_f2_x_w3": (GradedPolyBackend, (F2,), 3),
}


def _run(argv) -> str:
    """`exit: N` on the first line, then the exact stdout of the CLI."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return f"exit: {code}\n{out.getvalue()}"


def analyze_output(fixture: Path, variant: str) -> str:
    return _run(["analyze", str(fixture), *VARIANTS[variant]])


def command_output(fixture: Path, command: str) -> str:
    return _run([COMMANDS[command][0], str(fixture), *COMMANDS[command][1:]])


def dot_output(fixture: Path, variant: str) -> str:
    """The file `analyze --dot` writes, with the variant's flags."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.dot"
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["analyze", str(fixture), *DOTS[variant],
                      "--dot", str(path)])
        return path.read_text(encoding="utf-8")


def _or_unavailable(fn):
    try:
        return fn()
    except CapabilityError as exc:
        return f"unavailable: {type(exc).__name__}: {exc}"


def symbolic_output(name: str) -> str:
    """Sorted JSON of the spectrum report and the ring-level answers."""
    cls, args, window = SYMBOLIC[name]
    backend = cls(*args)
    report = verify_correspondence(backend, window)

    def reduced():
        red = reduced_part(backend)
        return {"flags": report.atomic_flags,
                "atomic_route": str(red.atomic_route_ideal),
                "molecular_route": str(red.molecular_route_ideal)}

    payload = {
        "verify_correspondence": report.as_dict(),
        "reduced_part": _or_unavailable(reduced),
        "artinianization": _or_unavailable(lambda: vars(artinianization(backend))),
        "classical_quotient_ring": _or_unavailable(
            lambda: vars(classical_quotient_ring(backend))),
        "validate_quotient_ring": _or_unavailable(
            lambda: validate_quotient_ring(backend)),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _analyze_golden(fixture, variant):
    return GOLDEN / "analyze" / f"{fixture.stem}.{variant}.txt"


def _command_golden(fixture, command):
    return GOLDEN / "cli" / f"{fixture.stem}.{command}.txt"


def _dot_golden(fixture, variant):
    return GOLDEN / "dot" / f"{fixture.stem}.{variant}.dot"


def _symbolic_golden(name):
    return GOLDEN / "symbolic" / f"{name}.json"


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_analyze_matches_golden(fixture, variant):
    expected = _analyze_golden(fixture, variant).read_text(encoding="utf-8")
    assert analyze_output(fixture, variant) == expected


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_command_matches_golden(fixture, command):
    expected = _command_golden(fixture, command).read_text(encoding="utf-8")
    assert command_output(fixture, command) == expected


@pytest.mark.parametrize("variant", sorted(DOTS))
@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_dot_matches_golden(fixture, variant):
    expected = _dot_golden(fixture, variant).read_text(encoding="utf-8")
    assert dot_output(fixture, variant) == expected


@pytest.mark.parametrize("name", sorted(SYMBOLIC))
def test_symbolic_backend_matches_golden(name):
    expected = _symbolic_golden(name).read_text(encoding="utf-8")
    assert symbolic_output(name) == expected


if __name__ == "__main__":
    for fixture in FIXTURES:
        for variants, golden, output in ((VARIANTS, _analyze_golden, analyze_output),
                                         (COMMANDS, _command_golden, command_output),
                                         (DOTS, _dot_golden, dot_output)):
            for variant in variants:
                path = golden(fixture, variant)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(output(fixture, variant), encoding="utf-8")
    for name in SYMBOLIC:
        path = _symbolic_golden(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(symbolic_output(name), encoding="utf-8")
