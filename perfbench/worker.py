"""One benchmark process: set up a workload, then (in "ops" mode) run its
anchor and a closed loop of seeded operations for the given time.

Started by run.py with BLAS/OpenMP pinned to one thread.  Prints one JSON
object as its last line.  `--spawned` is the parent's perf_counter() just
before it started this process (a system-wide monotonic clock on Linux), so
`setup_s` covers interpreter start, `import currentlab` and input building.

Untraced, the process also samples machine speed while it works
(`SpeedProbe`), and reports set-up and operation times both as wall seconds
and as seconds at reference speed.
"""
from __future__ import annotations

import argparse
import bisect
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS = 20
PROBE_PERIOD_S = 0.05  # wall-clock interval between speed samples
PROBE_LOOPS = 10_000  # one sample's fixed work: about 1 ms of pure Python
PROBE_REFERENCE_S = 0.0008  # one sample's duration at reference speed
PROBE_PAD_S = 0.25  # an interval's speed: the samples within this much of it


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import currentlab

    src = (ROOT / "src").resolve()
    if src not in Path(currentlab.__file__).resolve().parents:
        raise SystemExit(f"currentlab imported from {currentlab.__file__}, not from {src}")


class SpeedProbe:
    """Samples machine speed while the process works.

    On a shared host the speed of one core drifts by tens of percent within
    seconds, so a sample taken between operations says little about the
    speed an operation ran at.  A wall-clock timer signal therefore runs a
    fixed pure-Python loop, which no currentlab change can alter, every
    PROBE_PERIOD_S, also in the middle of an operation (Python runs the
    handler between bytecodes, so inside a long native call it runs when the
    call returns), and records when the loop started and how long it took.
    """

    def __init__(self):
        self.t: list[float] = []
        self.s: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.s.append(time.perf_counter() - t0)
        self.t.append(t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0, t1):
        """Seconds the interval [t0, t1] would take at reference speed: its
        wall time less the samples taken inside it, times the reference
        sample duration over the median sample within PROBE_PAD_S of it."""
        lo = bisect.bisect_left(self.t, t0 - PROBE_PAD_S)
        hi = bisect.bisect_right(self.t, t1 + PROBE_PAD_S)
        if lo == hi:
            raise RuntimeError(f"no speed sample near [{t0}, {t1}]")
        near = list(zip(self.t[lo:hi], self.s[lo:hi]))
        inside = sum(s for t, s in near if t0 <= t and t + s <= t1)
        return (t1 - t0 - inside) * PROBE_REFERENCE_S / statistics.median(s for _, s in near)


def _attempt(wl, state, p):
    """Run one operation; returns (result, start, end, error list)."""
    t0 = time.perf_counter()
    try:
        res = wl.run(state, p)
    except Exception as exc:  # a crashing operation is a failed operation
        return None, t0, time.perf_counter(), [f"{type(exc).__name__}: {exc}"]
    t1 = time.perf_counter()
    try:
        return res, t0, t1, wl.check(state, p, res)
    except Exception as exc:
        return res, t0, t1, [f"check raised {type(exc).__name__}: {exc}"]


def _traced_attempt(tracer, workloads, wl, state, p, op):
    tracer.install([workloads])
    tracer.op = op
    try:
        return _attempt(wl, state, p)
    finally:
        tracer.op = None
        tracer.uninstall()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "ops"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args(argv)
    # the probe's signal handler would run inside traced spans
    probe = None if args.trace else SpeedProbe().start()

    _import_library()
    import numpy
    import scipy

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer().install([workloads]) if args.trace else None
    try:
        state = wl.setup()
    finally:
        if tracer:
            tracer.uninstall()
    setup_end = time.perf_counter()
    out = {"setup_s": setup_end - args.spawned}
    if args.mode == "setup":
        probe.stop()
        out["setup_scaled_s"] = probe.scaled(args.spawned, setup_end)
        print(json.dumps(out))
        return 0

    # the anchor also fills the library's lazy caches before timing starts;
    # peak memory is read after it, on fixed inputs, so it does not depend on
    # how many seeded operations a run fits in
    try:
        rel_err, anchor_errors = wl.anchor(state)
        anchor_errors += wl.check_anchor(rel_err)
    except Exception as exc:  # reported as a failed anchor with 100% error
        rel_err, anchor_errors = 1.0, [f"{type(exc).__name__}: {exc}"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = [f"anchor: {e}" for e in anchor_errors]
    attempted, failed = 1, int(bool(anchor_errors))
    spans, untraced = [], []
    gen = wl.inputs(args.seed)
    deadline = time.perf_counter() + args.seconds
    op = 0
    while time.perf_counter() < deadline:
        p = next(gen)
        attempted += 1
        if not tracer:
            _, t0, t1, errs = _attempt(wl, state, p)
        else:
            # same inputs with tracing off and on, alternating which runs
            # first; the traced answer must equal the untraced one exactly
            if op % 2:
                res_t, t0, t1, errs = _traced_attempt(tracer, workloads, wl, state, p, op)
                res_u, u0, u1, _ = _attempt(wl, state, p)
            else:
                res_u, u0, u1, _ = _attempt(wl, state, p)
                res_t, t0, t1, errs = _traced_attempt(tracer, workloads, wl, state, p, op)
            untraced.append(u1 - u0)
            if not errs and wl.digest(res_t) != wl.digest(res_u):
                errs = ["traced result differs from untraced result"]
        spans.append((t0, t1))
        if errs:
            failed += 1
            shown = {k: v for k, v in p.items() if k != "noise"}
            errors += [f"op {op} {shown}: {e}" for e in errs]
        op += 1

    walls = [t1 - t0 for t0, t1 in spans]
    out.update(
        {
            "attempted": attempted,
            "failed": failed,
            "errors": errors[:MAX_ERRORS],
            "op_walls": walls,
            "rel_err": rel_err,
            "peak_rss_mb": peak_rss_mb,
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
    )
    if probe:
        probe.stop()
        out["setup_scaled_s"] = probe.scaled(args.spawned, setup_end)
        out["op_scaled_s"] = [probe.scaled(t0, t1) for t0, t1 in spans]
        out["probe_s_p50"] = statistics.median(probe.s)
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer, walls, untraced, range(op))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
