"""One benchmark process: set up one workload, then run it in whole rounds.

Started by ``run.py`` in a fresh interpreter with ``PYTHONHASHSEED``
pinned.  Prints ``READY`` when set-up is done (the launcher times set-up up
to that line), then, unless ``--setup-only``, runs the workload's
operations back to back, one caller and one thread, in whole rounds until
``--seconds`` have passed, and prints one JSON line with the raw samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed   # this directory is on sys.path: the worker runs as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_EVERY_S = 0.1     # host-speed probes between operations, at most this often

# The two faults whose failures are counted instead of failing the run:
# (exception type, function in the traceback, file of that function).
KNOWN_FAULTS = {
    "inverse_element": (ValueError, "inverse_element", "algebras.py"),
    "graded_atomic_flags": (AttributeError, "_reduced_part_symbolic",
                            "subcats.py"),
}


def classify(exc) -> str | None:
    frames = traceback.extract_tb(exc.__traceback__)
    for fault, (etype, func, fname) in KNOWN_FAULTS.items():
        if isinstance(exc, etype) and any(
                fr.name == func and Path(fr.filename).name == fname
                for fr in frames):
            return fault
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True, type=Path,
                    help="an empty directory for the generated fixtures")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import ringspectra
    if Path(ringspectra.__file__).resolve().parent != ROOT / "src" / "ringspectra":
        print(f"ringspectra imported from {ringspectra.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads     # after install, so its imported names are wrapped

    wl = workloads.build(args.workload, args.seed, ROOT, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = run_rounds(wl, args.seconds, tracer, workloads.CheckFailed)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


def run_rounds(wl, seconds, tracer, check_failed):
    clock = time.perf_counter
    ops = wl.ops
    algebra_inputs = sum(1 for op in ops if op.algebra_input)
    probes = hostspeed.Probes()
    stamps = []        # (start, seconds) of every operation, in order
    rounds, layers = 0, []
    errors, faults = [], {}
    failed = 0
    start = clock()
    while True:
        outputs = {}
        envelopes_in_atoms_ops = 0
        report_bytes = 0
        if tracer:
            tracer.reset()
        for op in ops:
            exc = out = None
            if not probes.at or clock() - probes.at[-1] > PROBE_EVERY_S:
                probes.take()
            if tracer:
                env_before = tracer.calls("modules.injective_envelope")
                tracer.active = True
            t0 = clock()
            try:
                out = op.run()
            except Exception as e:      # every failure is counted, then classified
                exc = e
            dt = clock() - t0
            if tracer:
                tracer.active = False
                if op.kind == "analyze --atoms":
                    envelopes_in_atoms_ops += (
                        tracer.calls("modules.injective_envelope") - env_before)
            stamps.append((t0, dt))
            if exc is not None:
                failed += 1
                fault = classify(exc)
                if fault is None:
                    errors.append(f"{op.kind} {op.label}: unexpected "
                                  f"{type(exc).__name__}: {exc}")
                else:
                    faults[fault] = faults.get(fault, 0) + 1
                del exc
                continue
            if op.kind.split()[0] in ("analyze", "verify"):
                report_bytes += len(out[1])
            try:
                op.check(out, op.expect)
            except check_failed as e:
                errors.append(f"{op.kind} {op.label}: {e}")
            if op.group:
                outputs[(op.group, op.kind)] = out
        if wl.cross_check:
            try:
                wl.cross_check(outputs)
            except check_failed as e:
                errors.append(f"cross-check: {e}")
        rounds += 1
        if tracer:
            snap = tracer.snapshot()
            snap["algebras.radicals_per_input"] = (
                snap["algebras.jacobson_radical.calls"] / algebra_inputs
                if algebra_inputs else 0.0)
            snap["modules.injective_envelope.calls_in_analyze_atoms"] = \
                envelopes_in_atoms_ops
            snap["cli.report_bytes"] = report_bytes
            layers.append(snap)
        if clock() - start >= seconds:
            break
    probes.take()
    n = len(ops)
    return {
        "rounds": rounds,
        "ops_per_round": n,
        "parts": [op.part for op in ops],
        "op_ms": [[1000.0 * dt for _t0, dt in stamps[k:k + n]]
                  for k in range(0, len(stamps), n)],
        "op_ref_ms": [[1000.0 * probes.rescale(t0, dt) for t0, dt in stamps[k:k + n]]
                      for k in range(0, len(stamps), n)],
        "probe_ms": [1000.0 * p for p in probes.took],
        "attempted": n * rounds,
        "failed": failed,
        "faults": faults,
        "errors": errors[:20],
        "error_count": len(errors),
        "layers": ({k: _median([s[k] for s in layers]) for k in layers[0]}
                   if layers else None),
        "layer_counts_repeat": (all(_counts(s) == _counts(layers[0]) for s in layers)
                                if layers else None),
    }


def _median(values):
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _counts(snap):
    return {k: v for k, v in snap.items() if k.endswith(".calls")}


if __name__ == "__main__":
    sys.exit(main())
