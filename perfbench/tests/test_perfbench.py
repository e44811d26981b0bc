"""Tests of the benchmark itself: self-time arithmetic, output checks,
wrapper restoration and traced/untraced equality.

    python3 -m pytest perfbench/tests -q
"""
import math
import signal
import sys
import time

import numpy as np
import pytest

import run
import tracing
import worker
import workloads
from workloads import ContinuityResult, ShiftResult, SphereResult, TetraResult, WORKLOADS


def _span(name, start, end, parent=None, leaf=0.0):
    return [name, start, end, parent, 0, leaf]


def test_self_time_of_synthetic_nest():
    spans = [
        _span("a", 0.0, 10.0, leaf=1.0),  # 0: root with 1 s of leaf calls
        _span("b", 1.0, 4.0, 0),  # 1: overlaps its sibling e on [3, 4]
        _span("e", 3.0, 6.0, 0),  # 2
        _span("c", 7.0, 9.0, 0),  # 3
        _span("d", 7.5, 8.0, 3),  # 4: grandchild
        _span("f", 8.5, 9.5, 3),  # 5: sticks out of its parent; clipped to [8.5, 9]
    ]
    got = tracing.self_times(spans)
    # a: 10 - union([1,6], [7,9]) - 1 = 10 - 7 - 1
    assert got == pytest.approx([2.0, 3.0, 3.0, 1.0, 0.5, 1.0])


def test_layer_metrics_normalise_per_operation():
    tr = tracing.Tracer()
    tr.spans = [
        ["slicing.subdivide", 0.0, 2.0, None, 0, 0.5],
        ["slicing.subdivide", 3.0, 4.0, None, 1, 0.0],
        ["meshes.build", -1.0, -0.5, None, None, 0.0],
    ]
    tr.counters["slicing.subdivide.split"] = 3
    tr.counters["slicing.subdivide.visited"] = 12
    m = tracing.layer_metrics(tr, [2.5, 1.5], [2.0, 2.0], [0, 1])
    assert m["slicing.subdivide.calls"] == (1.0, "1/op")
    assert m["slicing.subdivide.self_s"] == pytest.approx((1.25, "s/op"))
    assert m["slicing.subdivide.split_frac"] == (0.25, "ratio")
    assert m["meshes.build_s"] == (0.5, "s")
    assert m["trace.coverage_frac"][0] == pytest.approx(3.0 / 4.0)
    assert m["trace.overhead_frac"][0] == pytest.approx(0.0)


def test_runner_offers_every_workload():
    assert run.WORKLOADS == tuple(WORKLOADS)


def test_tail_needs_ten_operations_beyond_it():
    assert run.tail([1.0] * 19) is None
    walls = [float(i) for i in range(40)]
    t = run.tail(walls)
    assert t["ops"] == 40 and t["percentile"] == 75.0
    assert sum(w > t["value"] for w in walls) == 10


def test_speed_probe_scales_by_the_samples_around_an_interval():
    probe = worker.SpeedProbe()
    ref = worker.PROBE_REFERENCE_S
    probe.t = [0.0, 0.9, 1.5, 2.1, 5.0]
    probe.s = [ref, 2 * ref, 2 * ref, 2 * ref, ref]  # half speed around [1, 2]
    # the sample at 1.5 ran inside the interval and is not operation time
    assert probe.scaled(1.0, 2.0) == pytest.approx((1.0 - 2 * ref) / 2)
    with pytest.raises(RuntimeError):
        probe.scaled(10.0, 11.0)


def test_speed_probe_samples_while_busy_and_stops():
    probe = worker.SpeedProbe().start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 6 * worker.PROBE_PERIOD_S:
            pass
    finally:
        probe.stop()
    n = len(probe.s)
    assert n >= 3 and probe.t == sorted(probe.t)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    time.sleep(3 * worker.PROBE_PERIOD_S)
    assert len(probe.s) == n


# ---------------------------------------------------------------------------
# every output check rejects a deliberately corrupted result


def test_sphere_checks():
    wl = WORKLOADS["sphere_sf"]
    good = SphereResult(4.9, np.ones(5), 0, [], 7)
    assert wl.check(None, {}, good) == []
    assert wl.check(None, {}, SphereResult(4.9, np.ones(5), 1, [], 7))
    warned = SphereResult(4.9, np.ones(5), 0, ["mass lower bound 9 exceeds ball mass 6"], 7)
    assert wl.check(None, {}, warned)
    assert wl.check(None, {}, SphereResult(0.0, np.zeros(5), 0, [], 7))
    assert wl.check_anchor(0.049) == []
    assert wl.check_anchor(0.051)


def test_torus_checks():
    wl = WORKLOADS["torus_tetra"]
    r_pass, r_fail = 0.05, 0.2
    state = {(0.4, "pass"): (None, 0, r_pass), (0.4, "fail"): (None, 0, r_fail)}
    ok = wl.C_REQ * r_pass**3 * 1.02
    pass_p, fail_p = {"eps": 0.4, "side": "pass"}, {"eps": 0.4, "side": "fail"}
    h = np.array([[0.0, 0.1], [0.2, 0.3]])
    assert wl.check(state, pass_p, TetraResult(ok, h, False, True)) == []
    assert wl.check(state, pass_p, TetraResult(ok, h, False, False))
    assert wl.check(state, pass_p, TetraResult(0.5 * ok, h, False, True))
    assert wl.check(state, fail_p, TetraResult(1.0, h, False, True)) == []
    assert wl.check(state, fail_p, TetraResult(1.0, h, True, True))
    assert wl.check(state, fail_p, TetraResult(1.0, h + 1.0, False, True))
    assert wl.check_anchor(0.11)


def test_continuity_checks():
    wl = WORKLOADS["continuity_lp"]
    p = {"center": (0.0, 0.0), "radius": 0.5}
    disk = math.pi * 0.25
    good = ContinuityResult(0.98 * disk, 0.99 * disk, 0.1, 0.0)
    assert wl.check(None, p, good) == []
    for bad in (
        ContinuityResult(0.96 * disk, 0.99 * disk, 0.0, 0.0),  # gap above flat
        ContinuityResult(0.98 * disk, 0.99 * disk, 0.1, 1e-3),  # LP residual
        ContinuityResult(1.01 * disk, 0.99 * disk, 0.1, 0.0),  # above pi r^2
        ContinuityResult(0.98 * disk, 0.90 * disk, 0.1, 0.0),  # below bracket
    ):
        assert wl.check(None, p, bad)
    assert wl.check_anchor(0.06)


def test_slice_shift_checks():
    wl = WORKLOADS["slice_shift"]
    assert wl.check(None, {}, ShiftResult(0.1, 0.2)) == []
    assert wl.check(None, {}, ShiftResult(0.3, 0.2))
    assert wl.check_anchor(0.06)


# ---------------------------------------------------------------------------
# tracing leaves the library as it found it and does not change answers


def _bindings():
    import currentlab.complexes as cx
    import currentlab.slicing as sl

    out = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("currentlab") or mod is workloads:
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (sl.Refinement, cx.GeometricComplex, cx.PLFunction, cx.EuclideanMetric, cx.CallableMetric, cx.MatrixMetric):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_wrappers_restored_after_traced_run():
    before = _bindings()
    wl = WORKLOADS["slice_shift"]
    state = wl.setup()
    tr = tracing.Tracer().install([workloads])
    try:
        assert workloads.slice_current is not before["workloads", "slice_current"]
        assert sys.modules["currentlab.slicedfill"].slice_current is not before["currentlab.slicedfill", "slice_current"]
        wl.run(state, next(wl.inputs(0)))
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert {s[0] for s in tr.spans} >= {"slicing.slice_current", "slicing.subdivide", "fillvol.linprog"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_results_equal_untraced(name):
    wl = WORKLOADS[name]
    state = wl.setup()
    p = next(wl.inputs(11))
    plain = wl.run(state, p)
    with tracing.Tracer().install([workloads]) as tr:
        tr.op = 0
        traced = wl.run(state, p)
    assert wl.digest(traced) == wl.digest(plain)
    assert wl.check(state, p, traced) == []
    walls = [max(s[tracing.END] for s in tr.spans) - min(s[tracing.START] for s in tr.spans)]
    m = tracing.layer_metrics(tr, walls, walls, [0])
    assert m["trace.coverage_frac"][0] > 0.9
