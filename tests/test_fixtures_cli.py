"""Fixture parsing and the CLI contract."""

import json
import math
import subprocess
import sys

import pytest

from ringspectra.cli import main as cli_main
from ringspectra.fixtures import FixtureParseError, load_fixture, parse_fixture

T2_FIXTURE = """\
# upper triangular over F2
[backend]
kind = algebra
field = F2
source = triangular
n = 2
name = T2
"""

QUIVER_FIXTURE = """\
[backend]
kind = algebra
field = F2
source = quiver
vertices = 2
arrow = a 1 2
arrow = b 2 1
relation = a.b
relation = b.a
nilpotency_bound = 8
"""

MODULE_FIXTURE = """\
[backend]
kind = algebra
field = F2
source = companion
poly = 0 0 1

[module M]
dim = 1
action 0 = 1
action 1 = 0
"""

Z_FIXTURE = """\
[backend]
kind = int

[window]
bound = 10
"""

GRADED_FIXTURE = """\
[backend]
kind = graded_poly
field = F2

[graded_module kx]
free = 0

[window]
lo = -1
hi = 1
"""


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FixtureParseError) as err:
        parse_fixture("[backend]\nkind = algebra\nbogus line\n")
    assert "line 3" in str(err.value)
    with pytest.raises(FixtureParseError):
        parse_fixture("key = value\n")              # key outside section
    with pytest.raises(FixtureParseError):
        parse_fixture("# nothing\n")                # no backend section


SC_FIXTURE = """\
[backend]
kind = algebra
field = F2
source = structure_constants
dim = 1
c = 0 0 0 1
"""


@pytest.mark.parametrize("text,old,new,line", [
    (SC_FIXTURE, "c = 0 0 0 1", "c = 0 0 0 y", 6),
    (SC_FIXTURE, "c = 0 0 0 1", "c = 0 0", 6),
    (SC_FIXTURE, "c = 0 0 0 1", "c = 5 0 0 1", 6),
    (QUIVER_FIXTURE, "arrow = b 2 1", "arrow = b 2 y", 7),
    (QUIVER_FIXTURE, "relation = b.a", "relation = y*b.a", 9),
    (MODULE_FIXTURE, "action 1 = 0", "action 1 = y", 10),
    (MODULE_FIXTURE, "action 1 = 0", "action y = 0", 10),
    (GRADED_FIXTURE, "free = 0", "torsion = 1:y", 6),
    (GRADED_FIXTURE, "hi = 1", "hi = y", 10),
], ids=["c-scalar", "c-shape", "c-index", "arrow", "relation", "action-value",
        "action-index", "torsion", "window"])
def test_bad_entry_reports_its_own_line(text, old, new, line):
    with pytest.raises(FixtureParseError) as err:
        load_fixture(text.replace(old, new))
    assert str(err.value).endswith(f"(line {line})")


def test_load_fixture_kinds():
    assert load_fixture(T2_FIXTURE).backend.algebra.dim == 3
    assert load_fixture(QUIVER_FIXTURE).backend.algebra.dim == 4
    loaded = load_fixture(MODULE_FIXTURE)
    assert loaded.modules["M"].dim == 1
    assert load_fixture(Z_FIXTURE).window == 10
    assert load_fixture(GRADED_FIXTURE).graded_modules["kx"].free_shifts == (0,)


def test_bad_module_action_rejected():
    bad = MODULE_FIXTURE.replace("action 1 = 0", "action 1 = 1")
    with pytest.raises(FixtureParseError):
        load_fixture(bad)


ALGEBRA_FIXTURE = "[backend]\nkind = algebra\nfield = F2\nsource = {}\n{}\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_verify_pass(tmp_path, capsys):
    path = _write(tmp_path, "t2.alg", T2_FIXTURE)
    assert cli_main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "PASS phi_psi_identity" in out
    assert "FAIL" not in out


def test_cli_verify_graded_partial_note(tmp_path, capsys):
    path = _write(tmp_path, "g.alg", GRADED_FIXTURE)
    assert cli_main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out                            # hypothesis-gated claims


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "broken.alg", "[backend]\nkind = algebra\nnope\n")
    assert cli_main(["verify", path]) == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_capability_error_exit_code(tmp_path, capsys):
    # Z without a window cannot enumerate its spectrum.
    path = _write(tmp_path, "z.alg", "[backend]\nkind = int\n")
    assert cli_main(["analyze", path]) == 3
    assert "window" in capsys.readouterr().err


def test_cli_analyze_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "t2.alg", T2_FIXTURE)
    assert cli_main(["analyze", path]) == 0
    first = capsys.readouterr().out
    assert cli_main(["analyze", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schema_version"] == 1
    assert payload["atoms"]["elements"] == ["S1", "S2"]
    assert payload["subcategories"]["localizing_count"] == 4
    assert payload["goldie"]["surviving_in_minimal"] is True


def test_cli_analyze_windowed_z(tmp_path, capsys):
    path = _write(tmp_path, "z.alg", Z_FIXTURE)
    assert cli_main(["analyze", path, "--phi-psi"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["phi"]["(2)"] == "(2)"
    assert payload["psi"]["(0)"] == "(0)"


def test_cli_analyze_json_file(tmp_path):
    path = _write(tmp_path, "t2.alg", T2_FIXTURE)
    out_path = str(tmp_path / "report.json")
    assert cli_main(["analyze", path, "--json", out_path]) == 0
    with open(out_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["backend"] == "T2"


def test_cli_hasse_dot(tmp_path, capsys):
    path = _write(tmp_path, "z.alg", Z_FIXTURE)
    assert cli_main(["hasse", path, "--window", "5"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph spectra {")
    assert dot.count("shape=ellipse") == 4          # (0), (2), (3), (5)
    assert dot.count("shape=box") == 4
    assert "style=dashed" in dot and "style=dotted" in dot
    # Transitive reduction: generic below each prime, no prime-prime edges.
    assert dot.count("a0 -> a") == 3


def test_cli_hasse_field(tmp_path, capsys):
    field_fixture = """\
[backend]
kind = algebra
field = F2
source = companion
poly = 1 1
"""
    path = _write(tmp_path, "f.alg", field_fixture)
    assert cli_main(["hasse", path]) == 0
    dot = capsys.readouterr().out
    assert dot.count("shape=ellipse") == 1 and dot.count("shape=box") == 1


def test_cli_verify_exhaustive(tmp_path, capsys):
    path = _write(tmp_path, "t2.alg", T2_FIXTURE)
    assert cli_main(["verify", path, "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "exhaustive_is_prime_agrees" in out


def test_cli_oracle_subcommands(capsys):
    assert cli_main(["oracle", "--corpus"]) == 0
    out = capsys.readouterr().out
    assert "t2_f2" in out
    assert cli_main(["oracle", "--subspaces", "3", "2"]) == 0
    assert "16" in capsys.readouterr().out


def test_cli_bare_oracle_is_a_usage_error(capsys):
    assert cli_main(["oracle"]) == 2
    assert capsys.readouterr() == (
        "", "usage error: oracle needs --corpus or --subspaces DIM P\n")


@pytest.mark.parametrize("dim_p, message", [
    (("3", "4"), "P: modulus 4 is not prime"),
    (("3", "1"), "P: modulus 1 is not prime"),
    (("-2", "2"), "DIM must be non-negative, got -2")],
    ids=["p4", "p1", "dim-2"])
def test_cli_oracle_subspaces_usage_errors(capsys, dim_p, message):
    with pytest.raises(SystemExit) as exc:
        cli_main(["oracle", "--subspaces", *dim_p])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_oracle_uncertifiable_p_is_a_capability_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["oracle", "--subspaces", "1", str(2 ** 89 - 1)])
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("capability error:")
    assert "psi_13" in err and "Traceback" not in err


COMPANION_X2 = ("[backend]\nkind = algebra\nfield = F{}\nsource = companion\n"
                "poly = 0 0 1\n")


@pytest.mark.parametrize("p, code, err", [
    (10 ** 16 + 61, 0, ""),
    (10 ** 16 + 63, 2, "parse error: [backend] modulus 10000000000000063 "
                       "is not prime (line 3)\n"),
    (10 ** 400 + 1, 2, "parse error: [backend] modulus a 1329-bit number "
                       "is not prime (line 3)\n"),
    (2 ** 89 - 1, 3, "capability error: 618970019642690137449562111 passes "
                     "Miller-Rabin to the bases 2..41 but is at least "
                     "psi_13 = 3317044064679887385961981, so it is not "
                     "certified prime\n")],
    ids=["prime", "composite", "1e400+1", "uncertifiable"])
def test_cli_field_modulus_is_certified(tmp_path, capsys, p, code, err):
    """A large prime field is certified by Miller-Rabin, not by trial
    division to its square root; a composite is a parse error at its line
    and a modulus Miller-Rabin cannot certify a capability error."""
    path = _write(tmp_path, "c.alg", COMPANION_X2.format(p))
    assert cli_main(["verify", path]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_cli_bad_budget_is_a_capability_error(tmp_path, monkeypatch, capsys,
                                               value):
    monkeypatch.setenv("SPECTRA_BUDGET", value)
    path = _write(tmp_path, "t2.alg", T2_FIXTURE)
    for argv in (["oracle", "--subspaces", "3", "2"],
                 ["verify", path, "--exhaustive"]):
        assert cli_main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("capability error: SPECTRA_BUDGET must be a "
                       f"non-negative integer, got {value!r}\n")
    # Commands that enumerate nothing do not read the variable.
    assert cli_main(["verify", path]) == 0
    proc = subprocess.run([sys.executable, "-c", "import ringspectra"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_budget_from_the_environment_is_enforced(monkeypatch, capsys):
    monkeypatch.setenv("SPECTRA_BUDGET", "15")
    assert cli_main(["oracle", "--subspaces", "3", "2"]) == 3
    assert capsys.readouterr().err == ("capability error: subspace enumeration "
                                       "count: needs 16, budget allows 15\n")
    monkeypatch.setenv("SPECTRA_BUDGET", "16")
    assert cli_main(["oracle", "--subspaces", "3", "2"]) == 0


def test_cli_module_entry_point(tmp_path):
    path = _write(tmp_path, "t2.alg", T2_FIXTURE)
    proc = subprocess.run([sys.executable, "-m", "ringspectra.cli",
                           "verify", path], capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("argv", [["analyze", "z.alg", "--window", "2000"],
                                  ["verify", "t2_f2.alg"], ["hasse", "t2_f2.alg"]],
                         ids=["analyze", "verify", "hasse"])
def test_cli_reader_gone_is_not_an_error(argv):
    """Output into a pipe nobody reads any more: no traceback, and the
    command's own exit code."""
    import os
    root = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    argv = [os.path.join(root, a) if a.endswith(".alg") else a for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)      # gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "ringspectra.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_shipped_fixtures_all_verify(capsys):
    import glob
    import os
    root = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    paths = sorted(glob.glob(os.path.join(root, "*.alg")))
    assert len(paths) >= 6
    for path in paths:
        assert cli_main(["verify", path]) == 0, path
        capsys.readouterr()


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch, capsys):
    """A failing assertion drives exit code 1."""
    import ringspectra.cli as cli_mod
    from ringspectra.spectra import AssertionRecord

    real = cli_mod.verify_correspondence

    def sabotaged(backend, window=None):
        rep = real(backend, window)
        rep.assertions.append(AssertionRecord("injected_failure", False, ""))
        return rep

    monkeypatch.setattr(cli_mod, "verify_correspondence", sabotaged)
    path = _write(tmp_path, "t2.alg", T2_FIXTURE)
    assert cli_main(["verify", path]) == 1
    assert "FAIL injected_failure" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["verify"], ["analyze", "--radical"]])
def test_cli_raised_self_check_exit_code(tmp_path, monkeypatch, capsys,
                                         command):
    """A self-check that raises ValidationError exits 1, not a traceback."""
    from ringspectra.errors import ValidationError
    from ringspectra.spectra import ArtinianBackend

    def disagreeing(self):
        raise ValidationError("the two routes disagree")

    monkeypatch.setattr(ArtinianBackend, "reduced_part", disagreeing)
    path = _write(tmp_path, "t2.alg", T2_FIXTURE)
    assert cli_main([command[0], path, *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err == "verification failed: the two routes disagree\n"


def test_cli_analyze_failed_report_exit_code(tmp_path, monkeypatch, capsys):
    """analyze still prints the refuted report, and exits 1 on it."""
    from ringspectra.spectra import ArtinianBackend

    real = ArtinianBackend.phi

    def shifted(self, a):
        mols = self.molecules()
        return mols[(mols.index(real(self, a)) + 1) % len(mols)]

    monkeypatch.setattr(ArtinianBackend, "phi", shifted)
    path = _write(tmp_path, "t2.alg", T2_FIXTURE)
    assert cli_main(["analyze", path, "--phi-psi"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["phi"] == {"S1": "P2", "S2": "P1"}
    assert cli_main(["verify", path]) == 1
    assert "FAIL phi_psi_identity" in capsys.readouterr().out


def test_cli_verify_module_sections(tmp_path, capsys):
    path = _write(tmp_path, "m.alg", MODULE_FIXTURE)
    assert cli_main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "module_M_ass_in_asupp" in out
    assert "module_M_mass_in_msupp" in out


def test_cli_graded_window_override(tmp_path, capsys):
    path = _write(tmp_path, "g.alg", GRADED_FIXTURE)
    assert cli_main(["analyze", path, "--molecules", "--window", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["molecules"]["elements"]) == 5    # shifts -2..2


def test_graded_torsion_length_validated():
    bad = GRADED_FIXTURE.replace("free = 0", "torsion = 0:1")
    with pytest.raises(FixtureParseError):
        load_fixture(bad)


COMMUTATIVE_SQUARE = """\
[backend]
kind = algebra
field = F2
source = quiver
vertices = 4
arrow = a 1 2
arrow = b 1 3
arrow = c 2 4
arrow = d 3 4
relation = a.c - b.d
"""


def test_quiver_relation_with_two_terms():
    """The commutative square: one 9-dim algebra, the two length-two
    paths identified by the relation."""
    from ringspectra.algebras import jacobson_radical
    from ringspectra.linalg import zero_vec
    loaded = load_fixture(COMMUTATIVE_SQUARE)
    a = loaded.backend.algebra
    assert a.dim == 9                  # 4 vertices + 4 arrows + 1 square
    assert jacobson_radical(a).dim == 5
    ia, ic = a.labels.index("a"), a.labels.index("c")
    ib, idd = a.labels.index("b"), a.labels.index("d")
    ac = a.mul(a.basis_coords(ia), a.basis_coords(ic))
    bd = a.mul(a.basis_coords(ib), a.basis_coords(idd))
    assert ac == bd and ac != zero_vec(a.field, a.dim)


def test_shipped_fixtures_all_analyze(capsys):
    """Every shipped fixture gives a complete JSON report with exit 0."""
    import glob
    import os
    root = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    paths = sorted(glob.glob(os.path.join(root, "*.alg")))
    assert len(paths) >= 6
    for path in paths:
        assert cli_main(["analyze", path]) == 0, path
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1 and "reduced_part" in payload


def test_graded_reduced_part_is_unavailable(capsys):
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "graded_kx.alg")
    assert cli_main(["analyze", path, "--radical"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduced_part"].startswith("unavailable: ")


def _structure_constant_fixture(a):
    lines = ["[backend]", "kind = algebra", f"field = F{a.field.p}",
             "source = structure_constants", f"dim = {a.dim}",
             "unit = " + " ".join(str(x) for x in a.unit)]
    for i, plane in enumerate(a.sc):
        for j, row in enumerate(plane):
            lines += [f"c = {i} {j} {k} {x}" for k, x in enumerate(row) if x]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["m2_f2", "m2_f3", "f9", "c3_f2", "m2f2_x_f2"])
def test_cli_structure_constants_with_units_off_the_diagonal(
        tmp_path, capsys, corpus_by_name, name):
    """The Goldie section inverts sampled units of these algebras, whose
    multiplication matrices are not symmetric."""
    path = _write(tmp_path, f"{name}.alg",
                  _structure_constant_fixture(corpus_by_name[name]))
    assert cli_main(["analyze", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    checked = payload["goldie"]["quotient_ring_validation"]["checked"]
    assert checked["regular_invertible"] > 0
    assert cli_main(["verify", path]) == 0
    assert "FAIL" not in capsys.readouterr().out


BAD_ALGEBRA = """\
[backend]
kind = algebra
field = F2
source = matrix
n = 2
"""


GROUP_RAGGED = "source = group\ntable = 0 1; 1"
GROUP_OUT_OF_RANGE = "source = group\ntable = 0 1; 1 2"
SC_LONG_UNIT = "source = structure_constants\ndim = 1\nc = 0 0 0 1\nunit = 1 1"
SC_F2XF2 = "source = structure_constants\ndim = 2\nc = 0 0 0 1\nc = 1 1 1 1"
SC_SHORT_UNIT = SC_F2XF2 + "\nunit = 1"
SC_SHORT_LABELS = SC_F2XF2 + "\nlabels = one"


@pytest.mark.parametrize("old,new", [("field = F2", "field = F4"),
                                     ("n = 2", "n = x"),
                                     ("n = 2", "n = 0"),
                                     ("source = matrix\nn = 2", GROUP_RAGGED),
                                     ("source = matrix\nn = 2", GROUP_OUT_OF_RANGE),
                                     ("source = matrix\nn = 2", SC_LONG_UNIT),
                                     ("source = matrix\nn = 2", SC_SHORT_UNIT),
                                     ("source = matrix\nn = 2", SC_SHORT_LABELS)])
def test_cli_bad_algebra_value_is_a_parse_error(tmp_path, capsys, old, new):
    # A value that fails to convert names its own line; n = 0 fails only
    # when the algebra is built, so it names the section header's.
    line = {"field = F4": 3, "n = x": 5, "n = 0": 1,
            GROUP_RAGGED: 5, GROUP_OUT_OF_RANGE: 5, SC_LONG_UNIT: 7,
            SC_SHORT_UNIT: 8, SC_SHORT_LABELS: 8}[new]
    path = _write(tmp_path, "bad.alg", BAD_ALGEBRA.replace(old, new))
    assert cli_main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: [backend]") and f"(line {line})" in err


@pytest.mark.parametrize("text,where", [
    ("[backend]\nkind = int_mod\nmodulus = x\n", "[backend]"),
    ("[backend]\nkind = poly\nfield = F4\n[window]\nbound = 3\n", "[backend]"),
    ("[backend]\nkind = int\n[window]\nbound = y\n", "[window]"),
    ("[backend]\nkind = graded_poly\nfield = F2\n\n[graded_module M]\n"
     "torsion = x:1\n", "[graded_module M]"),
])
def test_cli_bad_symbolic_value_is_a_parse_error(tmp_path, capsys, text, where):
    path = _write(tmp_path, "bad.alg", text)
    assert cli_main(["analyze", path]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: {where}")


@pytest.mark.parametrize("text,line", [
    ("[backend]\nkind = int\n[backend]\nkind = int\n", 3),
    (T2_FIXTURE.replace("n = 2", "n = 2\nn = 3"), 7),
    (Z_FIXTURE + "[window]\nbound = 20\n", 6),
    (Z_FIXTURE.replace("bound = 10", "bound = 10\nbound = 20"), 6),
    (MODULE_FIXTURE + "\n[module M]\ndim = 1\naction 0 = 1\naction 1 = 0\n", 12),
    (MODULE_FIXTURE + "action 0 = 1\n", 11),
    (MODULE_FIXTURE + "action 00 = 1\n", 11),
    (MODULE_FIXTURE.replace("[module M]", "[module M2]")
     + "\n[module]\ndim = 1\naction 0 = 1\naction 1 = 0\n", 12),
    (GRADED_FIXTURE.replace("[window]", "[graded_module kx]\nfree = 1\n[window]"),
     8),
    (MODULE_FIXTURE.replace("[module M]", "[modul M]"), 7),
    (Z_FIXTURE + "[module M]\ndim = 1\naction 0 = 1\n", 6),
    (T2_FIXTURE + "[graded_module G]\nfree = 0\n", 8),
    (Z_FIXTURE + "[graded_module G]\nfree = 0\n", 6),
    (T2_FIXTURE + "nmae = X\n", 8),
    (QUIVER_FIXTURE.replace("nilpotency_bound", "nilpotency_bond"), 10),
    (T2_FIXTURE.replace("n = 2", "n = 2\ndim = 4"), 7),
    (Z_FIXTURE.replace("kind = int", "kind = int\nname = Z"), 3),
    (Z_FIXTURE.replace("bound = 10", "bound = 10\nlo = 3\nhi = 5"), 6),
    (Z_FIXTURE.replace("bound = 10", "lo = 3\nhi = 5\nbound = 10"), 5),
    (Z_FIXTURE.replace("bound = 10", "bond = 10"), 5),
    (GRADED_FIXTURE.replace("free = 0", "free = 0\nshift = 1"), 7),
    (ALGEBRA_FIXTURE.format("structure_constants", "dim = 1\nc = 0 0 0 0\n"
                            "c = 0 0 0 1"), 7),
], ids=["backend-twice", "key-twice", "window-twice", "window-key-twice",
        "module-twice", "action-twice", "action-same-index",
        "module-default-name-taken", "graded-twice",
        "misspelt-section", "module-on-symbolic", "graded-on-algebra",
        "graded-on-int", "misspelt-backend-key", "misspelt-optional-key",
        "key-of-another-source", "name-on-symbolic", "window-bound-and-range",
        "window-range-and-bound", "misspelt-window-key",
        "unknown-graded-module-key", "constant-twice"])
def test_cli_dropped_section_or_key_is_a_parse_error(tmp_path, capsys, text,
                                                     line):
    """A section or key the loader would ignore or overwrite is an error at
    its own line, never read as its first occurrence."""
    path = _write(tmp_path, "bad.alg", text)
    assert cli_main(["analyze", path, "--atoms"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.endswith(f"(line {line})\n")


@pytest.mark.parametrize("command", [["analyze", "--atoms"], ["verify"]])
@pytest.mark.parametrize("quiver,message,line", [
    ("arrow = a 0 1", "arrow a ends outside the 2 vertices", 6),
    ("arrow = a 1 3", "arrow a ends outside the 2 vertices", 6),
    ("arrow = a 1 2\narrow = b 1 2\nrelation = a.b",
     "relation path a.b does not compose", 8),
], ids=["arrow-from-vertex-0", "arrow-to-vertex-3", "relation-not-composing"])
def test_cli_quiver_off_its_vertices_is_a_parse_error(tmp_path, capsys, command,
                                                      quiver, message, line):
    """Neither dropped nor reported elsewhere: the arrow or relation at
    fault is a parse error at its own line."""
    path = _write(tmp_path, "bad.alg", ALGEBRA_FIXTURE.format(
        "quiver", "vertices = 2\n" + quiver))
    assert cli_main([command[0], path, *command[1:]]) == 2
    assert capsys.readouterr().err == \
        f"parse error: [backend] {message} (line {line})\n"


POLY_FIXTURE = """\
[backend]
kind = poly
field = F2

[window]
bound = 2
"""


@pytest.mark.parametrize("command", [["analyze", "--atoms"], ["verify"]])
@pytest.mark.parametrize("text,line", [
    (Z_FIXTURE.replace("bound = 10", "lo = 2\nhi = 5"), 5),
    (POLY_FIXTURE.replace("bound = 2", "hi = 3\nlo = 1"), 6),
], ids=["int", "poly"])
def test_cli_shift_range_off_the_graded_backend_is_a_parse_error(
        tmp_path, capsys, command, text, line):
    """'lo'/'hi' are the graded backend's shift range; elsewhere they are
    refused at the first of them, not met as a TypeError downstream."""
    path = _write(tmp_path, "bad.alg", text)
    assert cli_main([command[0], path] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: [window] ")
    assert err.endswith(f"(line {line})\n") and "Traceback" not in err


def test_repeatable_keys_stay_repeatable():
    backend = parse_fixture(QUIVER_FIXTURE).section("backend")
    assert len(backend.get_all("arrow")) == 2
    assert len(backend.get_all("relation")) == 2
    two_modules = (MODULE_FIXTURE.replace("[module M]", "[module]")
                   + "\n[module N]\ndim = 1\naction 0 = 1\naction 1 = 0\n")
    assert sorted(load_fixture(two_modules).modules) == ["M1", "N"]


INT_MOD_FIXTURE = "[backend]\nkind = int_mod\nmodulus = {}\n"


def test_cli_modulus_past_trial_division_is_factored(tmp_path, capsys):
    """Two primes near 10^9: trial division would need about 5 * 10^8
    steps, rho splits them at once."""
    path = _write(tmp_path, "n.alg", INT_MOD_FIXTURE.format(1000000016000000063))
    assert cli_main(["analyze", path, "--atoms"]) == 0
    atoms = json.loads(capsys.readouterr().out)["atoms"]["elements"]
    assert atoms == ["(1000000007)", "(1000000009)"]


def test_cli_uncertifiable_modulus_is_a_capability_error(tmp_path, capsys):
    """2^89 - 1 is a prime above psi_13, which Miller-Rabin to the bases
    2..41 does not certify: refused with exit 3, not reported."""
    path = _write(tmp_path, "m89.alg", INT_MOD_FIXTURE.format(2 ** 89 - 1))
    assert cli_main(["analyze", path, "--atoms"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("capability error:") and "Traceback" not in err


@pytest.mark.parametrize("command", [["analyze", "--atoms"], ["verify"]])
@pytest.mark.parametrize("text,line", [
    (T2_FIXTURE + "\n[window]\nbound = 5\n", 10),
    (INT_MOD_FIXTURE.format(12) + "[window]\nbound = 13\n", 5),
    ("[backend]\nkind = poly_quot\nfield = F2\nmodulus = 1 1 1\n\n"
     "[window]\nbound = 3\n", 7),
], ids=["algebra", "int_mod", "poly_quot"])
def test_cli_bound_on_a_finite_spectrum_is_a_parse_error(
        tmp_path, capsys, command, text, line):
    """A finite spectrum is listed whole, so a [window] 'bound' there would
    be silently ignored; it is refused at its line instead."""
    path = _write(tmp_path, "bad.alg", text)
    assert cli_main([command[0], path] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: [window] 'bound' is not read")
    assert err.endswith(f"(line {line})\n") and "Traceback" not in err


@pytest.mark.parametrize("command", [["analyze"], ["analyze", "--atoms"],
                                     ["verify"], ["hasse"]])
@pytest.mark.parametrize("text,args", [
    ("[backend]\nkind = int\n", ["--window", "100000000"]),
    ("[backend]\nkind = poly\nfield = Q\n\n[window]\nbound = 100001\n", []),
    ("[backend]\nkind = graded_poly\nfield = F2\n\n[window]\n"
     "lo = -60000\nhi = 60000\n", []),
], ids=["int", "poly", "graded"])
def test_cli_window_past_the_budget_is_refused(tmp_path, capsys, command,
                                               text, args):
    """A window above commutative.WINDOW_BUDGET ends in exit 3 before any
    point is listed, with no traceback."""
    path = _write(tmp_path, "w.alg", text)
    assert cli_main([command[0], path, *command[1:], *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("capability error: window") and "Traceback" not in err


def test_cli_huge_modulus_is_refused_at_once(tmp_path, capsys):
    """A 13,000-bit modulus with no prime factor below 10^4 is refused
    before its first Miller-Rabin base, and named by its size."""
    n = 10007 * 10009 ** 977
    path = _write(tmp_path, "n.alg", INT_MOD_FIXTURE.format(n))
    assert cli_main(["analyze", path, "--atoms"]) == 3
    err = capsys.readouterr().err
    assert err == (f"capability error: a {n.bit_length()}-bit number is not "
                   "factored within the budget of 3000000 squarings\n")


HUGE_ROOTLESS = "1000000000000000000000000000000 0 1"     # x^2 + 10^30


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("text", [
    f"[backend]\nkind = poly_quot\nfield = Q\nmodulus = {HUGE_ROOTLESS}\n",
    f"[backend]\nkind = algebra\nfield = Q\nsource = companion\n"
    f"poly = {HUGE_ROOTLESS}\n",
], ids=["poly_quot", "companion"])
def test_cli_rootless_quadratic_with_a_huge_constant(tmp_path, capsys,
                                                     command, text):
    """Q[x]/(x^2 + 10^30) is a field: one atom.  Its rational root
    candidates come from the certified divisors of 10^30 = 2^30 5^30, 1,922
    of them, not from trial division up to 10^15."""
    path = _write(tmp_path, "q.alg", text)
    assert cli_main([command, path]) == 0
    out = capsys.readouterr().out
    if command == "analyze":
        assert len(json.loads(out)["atoms"]["elements"]) == 1
    else:
        assert "[|AMin| = 1, |MMin| = 1]" in out


def test_cli_too_many_rational_root_candidates_is_refused(tmp_path):
    """x^2 + 2*3*...*71 has 2^21 rational root candidates, past
    commutative.ROOT_CANDIDATE_BUDGET: exit 3 and one line, at once."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71]
    path = _write(tmp_path, "q.alg", "[backend]\nkind = poly_quot\nfield = Q\n"
                  f"modulus = {math.prod(primes)} 0 1\n")
    proc = subprocess.run([sys.executable, "-m", "ringspectra.cli", "analyze",
                           path], capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("capability error: rational root candidates: "
                           "needs 2097152, budget allows 2000000\n")


@pytest.mark.parametrize("field,source,keys", [
    ("F31", "group", "table = 0 1 2; 1 2 0; 2 0 1"),
    ("F101", "matrix", "n = 2"),
], ids=["F31[C3]", "M2(F101)"])
def test_cli_verify_over_a_large_prime_ends(tmp_path, field, source, keys):
    """``verify`` on F_31[C_3] and M_2(F_101) exits 0 within 30 s: the
    factor table goes only to half the degree, and the simple search stops
    at the dimension the block's centre gives."""
    text = ALGEBRA_FIXTURE.format(source, keys).replace("F2", field)
    path = _write(tmp_path, "p.alg", text)
    proc = subprocess.run([sys.executable, "-m", "ringspectra.cli", "verify",
                           path], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", [["analyze", "--atoms"], ["verify"]])
@pytest.mark.parametrize("source,keys,refusal", [
    ("matrix", "n = 40", "matrix algebra dimension: needs 1600"),
    ("triangular", "n = 28", "triangular algebra dimension: needs 406"),
    ("companion", "poly = " + "0 " * 401 + "1",
     "companion algebra dimension: needs 401"),
    ("group", "table = " + "; ".join(
        " ".join(str((i + j) % 401) for j in range(401)) for i in range(401)),
     "group algebra dimension: needs 401"),
    ("structure_constants", "dim = 1000000",
     "structure constants dimension: needs 1000000"),
    ("quiver", "vertices = 1\narrow = x 1 1\narrow = y 1 1",
     "bound quiver paths: needs 511"),
], ids=["matrix", "triangular", "companion", "group", "structure-constants",
        "quiver"])
def test_cli_algebra_past_the_size_budget_is_refused(tmp_path, capsys, command,
                                                     source, keys, refusal):
    """An algebra above algebras.SIZE_BUDGET = 400, in dimension or in the
    paths a quiver lists, ends in exit 3 before it is built: the matrix
    algebra M_40 and a million-dimensional table are not allocated."""
    path = _write(tmp_path, "big.alg", ALGEBRA_FIXTURE.format(source, keys))
    assert cli_main([command[0], path, *command[1:]]) == 3
    err = capsys.readouterr().err
    assert err == f"capability error: {refusal}, budget allows 400\n"


def test_the_size_budget_admits_its_bound():
    """Dimension 400 is built; T_24(F_2), dimension 300, is below it."""
    text = ALGEBRA_FIXTURE.format("companion", "poly = " + "0 " * 400 + "1")
    assert load_fixture(text).backend.algebra.dim == 400


def _run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "ringspectra.cli", *argv],
                          capture_output=True, text=True, timeout=30)


def _write_bytes(tmp_path, data):
    p = tmp_path / "bytes.alg"
    p.write_bytes(data)
    return str(p)


@pytest.mark.parametrize("command", ["analyze", "verify", "hasse"])
@pytest.mark.parametrize("make,message", [
    (lambda tmp: str(tmp / "missing.alg"),
     "usage error: cannot read {}: No such file or directory\n"),
    (lambda tmp: str(tmp),
     "usage error: cannot read {}: Is a directory\n"),
    (lambda tmp: _write_bytes(tmp, b"[backend]\nkind = int\n# caf\xe9\n"),
     "parse error: byte 0xe9 is not UTF-8 (line 3)\n"),
], ids=["missing", "directory", "not-utf8"])
def test_cli_unreadable_fixture_exits_2(tmp_path, command, make, message):
    """A path that names no readable file, and a fixture that is not
    UTF-8, end in exit 2 with one stderr line and no traceback."""
    path = make(tmp_path)
    proc = _run_cli(command, path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == message.format(path)


@pytest.mark.parametrize("command", [["analyze", "--atoms"], ["verify"]])
@pytest.mark.parametrize("text,message,line", [
    (Z_FIXTURE.replace("bound = 10", "bound = -3"),
     "'bound' must be non-negative, got -3", 5),
    (POLY_FIXTURE.replace("bound = 2", "bound = -1"),
     "'bound' must be non-negative, got -1", 6),
    (GRADED_FIXTURE.replace("lo = -1\nhi = 1", "lo = 3\nhi = -2"),
     "'hi' = -2 is below 'lo' = 3", 10),
    (GRADED_FIXTURE.replace("lo = -1\nhi = 1", "hi = 0\nlo = 1"),
     "'hi' = 0 is below 'lo' = 1", 9),
    (GRADED_FIXTURE.replace("lo = -1\nhi = 1", "bound = -2"),
     "'bound' must be non-negative, got -2", 9),
], ids=["int", "poly", "graded-reversed", "graded-hi-first", "graded-bound"])
def test_cli_negative_or_reversed_window_is_a_parse_error(
        tmp_path, capsys, command, text, message, line):
    """A negative bound, or a shift range with hi < lo, names no window: it
    is refused at its own line instead of listing only (0), or -n..n, or
    nothing."""
    path = _write(tmp_path, "w.alg", text)
    assert cli_main([command[0], path, *command[1:]]) == 2
    assert capsys.readouterr().err == \
        f"parse error: [window] {message} (line {line})\n"


@pytest.mark.parametrize("command", [["analyze"], ["analyze", "--atoms"],
                                     ["verify"], ["hasse"]])
@pytest.mark.parametrize("text", [Z_FIXTURE, GRADED_FIXTURE, T2_FIXTURE],
                         ids=["int", "graded", "algebra"])
def test_cli_negative_window_flag_is_a_usage_error(tmp_path, capsys, command,
                                                   text):
    path = _write(tmp_path, "w.alg", text)
    assert cli_main([command[0], path, *command[1:], "--window", "-3"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "usage error: --window must be non-negative, "
                              "got -3\n")


def test_cli_window_flag_zero_is_accepted(tmp_path, capsys):
    path = _write(tmp_path, "z.alg", Z_FIXTURE)
    assert cli_main(["analyze", path, "--atoms", "--window", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["atoms"]["elements"] == ["(0)"]


def test_cli_large_fp_window_is_refused_at_once(tmp_path):
    """F_101[x] up to degree 3 has 348,551 closed points by Gauss's
    formula: refused with exit 3 before any irreducible is listed."""
    path = _write(tmp_path, "f.alg", POLY_FIXTURE.replace("F2", "F101")
                  .replace("bound = 2", "bound = 3"))
    proc = _run_cli("analyze", path)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("capability error: window points of F101[x] up to "
                           "degree 3: needs 348551, budget allows 100000\n")


@pytest.mark.parametrize("argv", [["analyze", "--json"], ["analyze", "--dot"],
                                  ["hasse", "--dot"]],
                         ids=["analyze-json", "analyze-dot", "hasse-dot"])
@pytest.mark.parametrize("make,reason", [
    (lambda tmp: str(tmp / "missing" / "out.txt"), "No such file or directory"),
    (lambda tmp: str(tmp), "Is a directory"),
], ids=["missing-dir", "directory"])
def test_cli_unwritable_output_is_a_usage_error(tmp_path, capsys, argv, make,
                                                reason):
    """An output path that cannot be opened for writing ends in exit 2
    with one stderr line, as an unreadable fixture does."""
    path = _write(tmp_path, "t2.alg", T2_FIXTURE)
    out_path = make(tmp_path)
    assert cli_main([argv[0], path, argv[1], out_path]) == 2
    assert capsys.readouterr() == (
        "", f"usage error: cannot write {out_path}: {reason}\n")


def _shipped(name):
    import os
    return os.path.join(os.path.dirname(__file__), "..", "fixtures", name)


def _count_calls(monkeypatch, cls, names):
    """Count the calls to each named method of ``cls``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(self, *args, _real=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(cls, name, counted)
    return calls


def test_cli_verify_reads_the_molecule_order_and_reduced_part_once(
        monkeypatch, capsys):
    from ringspectra.spectra import ArtinianBackend
    calls = _count_calls(monkeypatch, ArtinianBackend,
                         ["molecule_up_sets", "reduced_part"])
    assert cli_main(["verify", _shipped("t2_f2.alg")]) == 0
    capsys.readouterr()
    assert calls == {"molecule_up_sets": 1, "reduced_part": 1}


def test_cli_analyze_reads_the_molecule_order_twice(monkeypatch, capsys):
    """Once for the spectra and their flags, once for the locally closed
    localizing subcategories."""
    from ringspectra.spectra import ArtinianBackend
    calls = _count_calls(monkeypatch, ArtinianBackend, ["molecule_up_sets"])
    assert cli_main(["analyze", _shipped("t2_f2.alg")]) == 0
    capsys.readouterr()
    assert calls == {"molecule_up_sets": 2}


@pytest.mark.parametrize("backend,fixture", [
    ("ArtinianBackend", "t2_f2.alg"), ("CommutativeSpec", "z.alg")])
def test_cli_analyze_reads_the_reduced_part_once(monkeypatch, capsys, backend,
                                                 fixture):
    """The verifier's reduced part also fills the --radical section."""
    from ringspectra import commutative, spectra
    cls = getattr(spectra, backend, None) or getattr(commutative, backend)
    calls = _count_calls(monkeypatch, cls, ["reduced_part"])
    assert cli_main(["analyze", _shipped(fixture)]) == 0
    assert "reduced_part" in json.loads(capsys.readouterr().out)
    assert calls == {"reduced_part": 1}


def test_cli_unwritable_output_leaves_no_new_file(monkeypatch, tmp_path,
                                                  capsys):
    """A --json path that cannot be written leaves no --dot file behind,
    and is found before the fixture is read: no verification runs."""
    from ringspectra import cli
    calls = []
    monkeypatch.setattr(cli, "verify_correspondence",
                        lambda *args: calls.append(args))
    dot = tmp_path / "good.dot"
    bad = str(tmp_path / "missing" / "x.json")
    assert cli_main(["analyze", _shipped("t2_f2.alg"), "--dot", str(dot),
                     "--json", bad]) == 2
    assert capsys.readouterr() == (
        "", f"usage error: cannot write {bad}: No such file or directory\n")
    assert not dot.exists()
    assert calls == []


@pytest.mark.parametrize("argv", [["analyze", "--json"], ["analyze", "--dot"],
                                  ["hasse", "--dot"]],
                         ids=["analyze-json", "analyze-dot", "hasse-dot"])
def test_cli_failed_command_removes_the_output_it_made(tmp_path, capsys, argv):
    """An output file made by the path check is removed when the command
    then fails, here on a fixture that does not parse."""
    path = _write(tmp_path, "bad.alg", "[backend]\nkind = nonsense\n")
    out = tmp_path / "out.txt"
    assert cli_main([argv[0], path, argv[1], str(out)]) == 2
    assert capsys.readouterr().err.startswith("parse error:")
    assert not out.exists()


def test_cli_unwritable_output_keeps_an_existing_file(tmp_path, capsys):
    """A --dot file that was there keeps its bytes when --json cannot be
    written."""
    dot = tmp_path / "keep.dot"
    dot.write_bytes(b"kept\n")
    assert cli_main(["analyze", _shipped("t2_f2.alg"), "--dot", str(dot),
                     "--json", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"usage error: cannot write {tmp_path}: Is a directory\n"
    assert dot.read_bytes() == b"kept\n"
