"""ringspectra benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload algebras --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Workloads: ``algebras`` (the parts
analyze-corpus, scaling and oracle, shuffled together) and ``windows``;
each part also runs alone, and ``all`` runs the four parts one after
another.

Every worker is a fresh interpreter with ``PYTHONHASHSEED`` pinned:
``GF.__hash__`` hashes a string, so set order and every Matrix hash would
otherwise change between processes.  Set-up is timed from process start
to the worker's ``READY`` line, in five processes: two before the
measured one, the measured one, and two after.

Times are reported at the reference speed of ``hostspeed``: each
operation's time is rescaled by the host-speed probes taken around it,
and each set-up time by probes taken just before and after it.  The raw
times are kept next to them in ``perfbench/results/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import hostspeed   # this directory is on sys.path: run.py runs as a script
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PARTS = ("analyze-corpus", "scaling", "oracle", "windows")
WORKLOADS = ("algebras",) + PARTS     # algebras = the first three parts
SETUP_BEFORE = 2       # set-up-only processes before the measured one
SETUP_AFTER = 2        # and after it, so the samples span the run
HASH_SEED = "0"
TIME_LIMIT_S = 170     # for one workload, all its processes together


class WorkerError(Exception):
    pass


def run_workload(args, workload):
    """Set-up samples (raw, rescaled) and the measured worker's result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    plan = [True] * SETUP_BEFORE + [False] + [True] * SETUP_AFTER
    if args.trace:
        plan = [False]
    setups = []
    with tempfile.TemporaryFile(mode="w+") as err:
        try:
            for setup_only in plan:
                setup_s, speed, res = run_process(args, workload, setup_only,
                                                  err, deadline)
                setups.append((setup_s, setup_s * hostspeed.REFERENCE_S / speed))
                if not setup_only:
                    result = res
        except WorkerError as exc:
            err.seek(0)
            raise WorkerError(f"{workload}: {exc}\n{err.read()[-4000:]}") from None
    return setups, result


def run_process(args, workload, setup_only, err, deadline):
    """One worker: (seconds to READY, probe time around it, result or None)."""
    (HERE / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / "work")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    probes = [hostspeed.probe() for _ in range(3)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=err, text=True)
    # The watchdog kills an overrunning worker; reads then see end of file.
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        if proc.stdout.readline().strip() != "READY":
            raise WorkerError(f"no set-up report (exit {proc.wait()})")
        setup_s = time.perf_counter() - t0
        probes += [hostspeed.probe() for _ in range(3)]
        result = None
        if not setup_only:
            line = proc.stdout.readline()
            if not line:
                raise WorkerError(f"no result (exit {proc.wait()})")
            result = json.loads(line)
        code = proc.wait()
        if code != 0:
            raise WorkerError(f"worker exit {code}")
        return setup_s, statistics.median(probes), result
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(args, setups, res):
    correct = res["error_count"] == 0
    # Each operation's median over the run's rounds, at the reference speed.
    per_op = [statistics.median(times) for times in zip(*res["op_ref_ms"])]
    if args.trace:
        layers = dict(res["layers"], **{"trace.wall_s": sum(per_op) / 1000.0})
        for part in PARTS:
            layers[f"part.{part}.wall_s"] = sum(
                t for t, p in zip(per_op, res["parts"]) if p == part) / 1000.0
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in tracer.metric_units().items()}
        correct = correct and res["layer_counts_repeat"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _raw, s in setups),
                        "unit": "s"},
            "wall_s": {"value": sum(per_op) / 1000.0, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(
                t for times in res["op_ref_ms"] for t in times), "unit": "ms"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def save(args, workload, setups, res, summary):
    """Every sample of the run, raw and rescaled, next to its summary."""
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    raw = dict(res, setup_s=[raw for raw, _s in setups],
               setup_ref_s=[s for _raw, s in setups], seed=args.seed,
               seconds=args.seconds, summary=summary)
    (out / name).write_text(json.dumps(raw, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that run_process kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(1))
    if not (ROOT / "src" / "ringspectra" / "__init__.py").is_file():
        print(f"no ringspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = PARTS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        try:
            setups, res = run_workload(args, name)
        except WorkerError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        summary = summarize(args, setups, res)
        save(args, name, setups, res, summary)
        for msg in res["errors"]:
            print(f"{name}: CHECK FAILED {msg}", file=sys.stderr)
        summaries[name] = summary
        if len(names) > 1:
            figures = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                                for k, m in summary["metrics"].items())
            print(f"{name}: correct {summary['correct']}, attempted "
                  f"{summary['attempted']}, failed {summary['failed']}: {figures}")
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{k}": m for w, s in summaries.items()
                        for k, m in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
