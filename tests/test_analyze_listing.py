"""`analyze --atoms` / `--molecules`: listings that run no verification.

A request whose only sections are the spectra (no --dot) reads them off
the backend; every other request runs ``verify_correspondence`` and exits
1 when it fails.  docs/report_schema.md, "Checks a request runs".
"""

import contextlib
import io
import json
import random

import pytest

import ringspectra.cli as cli_mod
import ringspectra.spectra as spectra_mod
from ringspectra.spectra import ArtinianBackend
from test_algebras import _random_change_of_basis

T3_FIXTURE = """\
[backend]
kind = algebra
field = F2
source = triangular
n = 3
name = T3
"""

LISTINGS = [["--atoms"], ["--molecules"], ["--atoms", "--molecules"]]


def _analyze(path, *flags):
    """(exit code, parsed report or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_mod.main(["analyze", str(path), *flags])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


@pytest.fixture
def t3_path(tmp_path):
    path = tmp_path / "t3.alg"
    path.write_text(T3_FIXTURE)
    return path


@pytest.fixture
def calls(monkeypatch):
    """Counts of verify_correspondence and injective_envelope calls."""
    counts = {"verify_correspondence": 0, "injective_envelope": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(cli_mod, "verify_correspondence")
    counting(spectra_mod, "injective_envelope")
    return counts


@pytest.mark.parametrize("flags", LISTINGS, ids=" ".join)
def test_listing_runs_no_verification(t3_path, calls, flags):
    code, report = _analyze(t3_path, *flags)
    assert code == 0 and report["backend"] == "T3"
    assert calls == {"verify_correspondence": 0, "injective_envelope": 0}


@pytest.mark.parametrize("flags", [[], ["--atoms", "--phi-psi"]],
                         ids=["default", "atoms+phi-psi"])
def test_other_requests_still_verify(t3_path, calls, flags):
    assert _analyze(t3_path, *flags)[0] == 0
    assert calls["verify_correspondence"] == 1
    assert calls["injective_envelope"] > 0


def test_atoms_with_dot_still_verifies(t3_path, calls, tmp_path):
    assert _analyze(t3_path, "--atoms", "--dot", str(tmp_path / "s.dot"))[0] == 0
    assert calls["verify_correspondence"] == 1


def test_listing_exits_0_where_the_suite_fails(t3_path, monkeypatch):
    """A wrong psi fails the full report (exit 1) but not a listing, which
    prints the same atoms section as an unbroken run."""
    expected = _analyze(t3_path, "--atoms")[1]
    real = ArtinianBackend.psi

    def shifted(self, r):
        atoms = self.atoms()
        return atoms[(atoms.index(real(self, r)) + 1) % len(atoms)]

    monkeypatch.setattr(ArtinianBackend, "psi", shifted)
    assert _analyze(t3_path)[0] == 1
    assert _analyze(t3_path, "--atoms") == (0, expected)


def _fixture_text(a):
    lines = ["[backend]", "kind = algebra", f"field = F{a.field.p}",
             "source = structure_constants", f"dim = {a.dim}",
             f"name = {a.name}", "unit = " + " ".join(map(str, a.unit))]
    lines += [f"c = {i} {j} {k} {v}" for i, plane in enumerate(a.sc)
              for j, row in enumerate(plane) for k, v in enumerate(row) if v]
    return "\n".join(lines) + "\n"


def test_listing_equals_the_full_report_on_the_corpus(algebra_corpus,
                                                      tmp_path):
    """Natural and seeded random bases: the listed sections are the full
    report's, byte for byte."""
    rng = random.Random(1414)
    checked = 0
    for name, a in algebra_corpus:
        rand = _random_change_of_basis(a, rng)[0]
        rand.name = a.name
        for tag, alg in (("natural", a), ("random", rand)):
            path = tmp_path / f"{name}.{tag}.alg"
            path.write_text(_fixture_text(alg))
            full = _analyze(path)[1]
            code, listed = _analyze(path, "--atoms", "--molecules")
            assert code == 0, (name, tag)
            assert listed == {k: full[k] for k in listed}, (name, tag)
            checked += 1
    assert checked == 2 * len(algebra_corpus) == 86
