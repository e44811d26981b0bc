"""currentlab benchmark: one seeded workload, one closed loop, one result line.

    python3 perfbench/run.py --workload sphere_sf --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the library is imported from
./src).  Each run is a closed loop: one process, one operation at a time,
with BLAS/OpenMP pinned to one thread.

--trace 0 measures the end-to-end metrics with tracing off: `setup_s` is the
median of three fresh-process set-ups (interpreter start, `import
currentlab`, inputs built); the third process then runs the workload's
anchor and the timed operations, giving `op_s_p50`, `peak_rss_mb` and
`rel_err`.  --trace 1 runs the same operations with tracing off and on in
turn and reports the per-layer metrics from the traced copies.

`setup_s` and `op_s_p50` are in seconds at a reference machine speed: while
a process sets up and runs operations, a timer signal times a fixed
pure-Python loop every 50 ms (worker.SpeedProbe), and each interval's wall
time, less those samples, is scaled by the loop's reference duration over
its median duration around that interval.  On a shared host whose speed
drifts by tens of percent within seconds this removes most of the drift;
the raw wall times and the median sample are printed in the detail line.

Every line but the last is a human-readable or JSON detail line (the
environment, operation counts, the tail percentile, failed checks).  The
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sphere_sf", "torus_tetra", "continuity_lp", "slice_shift")
SETUPS = 3
WORKER_TIMEOUT_S = 150
THREAD_PIN = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
UNITS = {"setup_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB", "rel_err": "ratio"}


class BenchError(RuntimeError):
    pass


def _worker(args, mode, trace=0, spans=None):
    env = dict(os.environ, **THREAD_PIN, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--mode", mode,
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise BenchError(f"{mode} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(walls):
    """Highest percentile with at least ten operations beyond it, or None
    when a run has fewer than 20 operations."""
    n = len(walls)
    if n < 20:
        return None
    ordered = sorted(walls)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "ops": n}


def _source_id():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "currentlab" / "__init__.py").is_file():
        print(f"perfbench: no currentlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        if args.trace:
            spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
            res = _worker(args, "ops", trace=1, spans=spans)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
            timing = {"spans_file": str(spans.relative_to(ROOT))}
        else:
            setup_runs = [_worker(args, "setup") for _ in range(SETUPS - 1)]
            res = _worker(args, "ops")
            setup_runs.append(res)
            values = {
                "setup_s": statistics.median(r["setup_scaled_s"] for r in setup_runs),
                "op_s_p50": statistics.median(res["op_scaled_s"]),
                "peak_rss_mb": res["peak_rss_mb"],
                "rel_err": res["rel_err"],
            }
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
            timing = {
                "setup_s_wall": [r["setup_s"] for r in setup_runs],
                "op_s_p50_wall": statistics.median(res["op_walls"]),
                "probe_s_p50": res["probe_s_p50"],
                "op_s_tail": tail(res["op_scaled_s"]),
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = dict(
        res["env"],
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        thread_pin=THREAD_PIN,
        seed=args.seed,
        **_source_id(),
    )
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "ops_timed": len(res["op_walls"]),
        **timing,
        "errors": res["errors"],
    }
    for line in res["errors"]:
        print(f"FAILED {line}")
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
