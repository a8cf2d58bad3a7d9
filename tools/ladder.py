"""Time verify_correspondence on a ladder of algebras of growing dimension.

Usage: python tools/ladder.py [OUT.json]      (default BENCH_ladder.json)

Runs ``verify_correspondence(ArtinianBackend(a))`` once per rung, each
algebra built fresh (its associativity check included in the time):
T_n(F_2) for n = 2..9, then M_3(F_3) and T_4(Q).  ringspectra is imported
from the ``src`` directory of the checkout this file sits in, so a copy of
the file times the checkout it is copied into.  Stdlib only.

Once a T_n(F_2) rung takes longer than SKIP_AFTER_S, the higher T_n rungs
are recorded with ``seconds: null`` instead of being run: verification
grows several-fold with each step in n.  Single runs on a shared host; read
the figures as sizes, not as gates.
"""

import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ringspectra.algebras import matrix_algebra, upper_triangular_algebra  # noqa: E402
from ringspectra.linalg import F2, F3, QQ  # noqa: E402
from ringspectra.spectra import ArtinianBackend, verify_correspondence  # noqa: E402

SKIP_AFTER_S = 300.0

RUNGS = ([(f"T{n}(F2)", upper_triangular_algebra, n, F2) for n in range(2, 10)]
         + [("M3(F3)", matrix_algebra, 3, F3), ("T4(Q)", upper_triangular_algebra, 4, QQ)])


def time_rung(build, n, field):
    t0 = time.perf_counter()
    a = build(n, field)
    report = verify_correspondence(ArtinianBackend(a))
    return a.dim, time.perf_counter() - t0, report.passed()


def main(argv) -> int:
    out = Path(argv[0]) if argv else ROOT / "BENCH_ladder.json"
    rows = []
    too_slow = False
    for label, build, n, field in RUNGS:
        ladder = label.endswith("(F2)")
        if ladder and too_slow:
            dim = n * (n + 1) // 2
            rows.append({"input": label, "dim": dim, "seconds": None,
                         "note": f"not run: a lower rung took over {SKIP_AFTER_S:.0f} s"})
            print(f"{label:8s} dim {dim:3d}  not run", flush=True)
            continue
        dim, seconds, passed = time_rung(build, n, field)
        too_slow = too_slow or (ladder and seconds > SKIP_AFTER_S)
        rows.append({"input": label, "dim": dim, "seconds": round(seconds, 3),
                     "passed": passed})
        print(f"{label:8s} dim {dim:3d}  {seconds:8.2f} s  passed={passed}", flush=True)
    doc = {"tool": "tools/ladder.py", "python": platform.python_version(),
           "machine": platform.machine(), "rungs": rows}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
