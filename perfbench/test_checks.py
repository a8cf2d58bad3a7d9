"""The benchmark's checks catch a wrong answer on every workload.

    python3 -m pytest -q perfbench/test_checks.py

For each workload one real operation runs once; its check must pass
against the closed form and fail when one expected value is wrong.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import closedforms as cf  # noqa: E402
import workloads  # noqa: E402


def _op(workload, kind, label, tmp_path):
    wl = workloads.build(workload, 1, HERE.parent, tmp_path)
    return next(op for op in wl.ops if op.kind == kind and op.label == label)


@pytest.mark.parametrize("workload, kind, label, key, wrong", [
    ("analyze-corpus", "analyze", "t3_f2", "atoms", 2),
    ("analyze-corpus", "analyze", "t3_f2", "rad", 0),
    ("analyze-corpus", "analyze", "t3_f2", "localizing", 9),
    ("analyze-corpus", "analyze", "z.alg", "lcl", 16),
    ("scaling", "verify_correspondence", "('T', 3)/F2", "rad", 2),
    ("scaling", "verify_correspondence", "('C', 6)/F3", "atoms", 3),
    ("oracle", "enumerate_subspaces", "F2^4", "count", 66),
    ("windows", "Z window", "500", "atoms", 95),
    ("windows", "analyze z.alg", "31", "lcl", 2 ** 11),
])
def test_wrong_expected_value_fails(workload, kind, label, key, wrong, tmp_path):
    op = _op(workload, kind, label, tmp_path)
    out = op.run()
    op.check(out, op.expect)
    assert op.expect[key] != wrong
    with pytest.raises(workloads.CheckFailed):
        op.check(out, dict(op.expect, **{key: wrong}))


def test_oracle_disagreement_fails():
    with pytest.raises(workloads.CheckFailed):
        workloads.check_agree([(True, True), (True, False)], {})
    with pytest.raises(workloads.CheckFailed):
        workloads.check_agree([], {})


def test_verify_without_pass_line_fails():
    with pytest.raises(workloads.CheckFailed):
        workloads.check_verify((0, "PASS a\nFAIL: 1 assertions\n"), {})
    with pytest.raises(workloads.CheckFailed):
        workloads.check_verify((1, "pass: 1 assertions\n"), {})


def test_atoms_section_must_match_full_report(tmp_path):
    wl = workloads.build("analyze-corpus", 1, HERE.parent, tmp_path)
    outputs = {(op.group, op.kind): op.run() for op in wl.ops
               if op.group == "t2_f2" and op.kind.startswith("analyze")}
    wl.cross_check(outputs)
    code, text = outputs[("t2_f2", "analyze --atoms")]
    outputs[("t2_f2", "analyze --atoms")] = (code, text.replace('"S2"', '"S3"'))
    with pytest.raises(workloads.CheckFailed):
        wl.cross_check(outputs)


def test_closed_forms():
    assert cf.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert cf.distinct_prime_factors(2 ** 3 * 3 * 101 * 101) == [2, 3, 101]
    assert cf.subspace_count(3, 2) == 16
    assert cf.factor_degrees(2, (1, 1, 1)) == [(2, 1)]          # x^2+x+1
    assert cf.factor_degrees(2, (0, 0, 1, 1)) == [(1, 2), (1, 1)]  # x^2 (x+1)
    assert cf.expected(("C", 3), 2) == {"dim": 3, "atoms": 2, "rad": 0}
    assert cf.expected(("C", 6), 3) == {"dim": 6, "atoms": 2, "rad": 4}
    assert cf.expected(("quiver", 2, [(0, 1), (1, 0)], 3), 2)["dim"] == 6


def test_random_basis_keeps_the_algebra():
    import random
    sc, unit = cf.build(("T", 2), 0)
    new_sc, new_unit = cf.random_basis(sc, unit, 3, random.Random(5))
    from ringspectra.algebras import FiniteDimAlgebra, jacobson_radical
    from ringspectra.linalg import GF
    a = FiniteDimAlgebra(GF(3), new_sc, unit=new_unit)   # validates
    assert jacobson_radical(a).dim == 1
