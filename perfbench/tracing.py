"""Per-layer spans and counters, recorded from outside the library.

`Tracer.install()` wraps the public functions of each currentlab module in
every module namespace that binds them (slicedfill and convergence import
`slice_current`, `filling_volume` and others by name, so patching only the
defining module would miss their calls), and wraps methods on their class.
`Tracer.uninstall()` puts every original object back.

Spans (name, start, end, parent, operation id) are kept in memory.  Hot leaf
calls (the metric backends' `pairwise_sq`, `dist` and `row`) are aggregated
into counters instead: their time is charged to the enclosing span as time
its children cover, so the enclosing span's self time excludes it.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import currentlab.complexes as complexes
import currentlab.convergence as convergence
import currentlab.currents as currents
import currentlab.fillvol as fillvol
import currentlab.meshes as meshes
import currentlab.slicedfill as slicedfill
import currentlab.slicing as slicing

# ---------------------------------------------------------------------------
# counter hooks: run after the wrapped call returns, outside its span; their
# time is excluded from the enclosing span's self time


def _after_subdivide(tr, args, kwargs, ref):
    C, values = args[0], np.asarray(args[1], dtype=float)
    c = tr.counters
    c["slicing.subdivide.simplices_in"] += sum(C.count(k) for k in C.dims)
    c["slicing.subdivide.cut_edges"] += len(ref.cut_edges)
    c["slicing.subdivide.dropped"] += ref.dropped
    c["slicing.subdivide.snapped"] += int(ref.snapped)
    below = values < ref.level
    for k in C.dims:
        if k == 0 or not C.simplices[k]:
            continue
        mask = below[np.asarray(C.simplices[k])]
        c["slicing.subdivide.visited"] += len(mask)
        c["slicing.subdivide.split"] += int((mask.any(axis=1) & ~mask.all(axis=1)).sum())


def _after_boundary(tr, args, kwargs, result):
    tr.counters["currents.boundary.coeffs_in"] += len(args[0].coeffs)


def _after_linprog(tr, args, kwargs, res):
    A = kwargs["A_eq"]
    c = tr.counters
    c["fillvol.lp.rows"] += A.shape[0]
    c["fillvol.lp.cols"] += A.shape[1]
    c["fillvol.lp.nnz"] += A.nnz
    c["fillvol.lp.iterations"] += int(getattr(res, "nit", 0) or 0)


def _after_fill_report(tr, args, kwargs, report):
    c = tr.counters
    c["fillvol.reports"] += 1
    c["fillvol.reports_integral"] += int(report.integral)
    c["fillvol.lp.residual_max"] = max(c["fillvol.lp.residual_max"], float(report.residual))


def _after_sliced_fill(tr, args, kwargs, report):
    tr.counters["slicedfill.skipped"] += report.skipped


# (module, attribute, span name, hook): wrapped wherever a currentlab module
# or an extra namespace binds the same object
FUNCTIONS = [
    (slicing, "subdivide_at_level", "slicing.subdivide", _after_subdivide),
    (slicing, "slice_current", "slicing.slice_current", None),
    (slicing, "support_closure", "slicing.support_closure", None),
    (slicing, "annulus_mass", "slicing.annulus_mass", None),
    (currents, "boundary", "currents.boundary", _after_boundary),
    (currents, "mass", "currents.mass", None),
    (fillvol, "filling_volume", "fillvol.filling_volume", _after_fill_report),
    (fillvol, "flat_distance", "fillvol.flat_distance", _after_fill_report),
    (fillvol, "boundary_matrix", "fillvol.boundary_matrix", None),
    (fillvol, "linprog", "fillvol.linprog", _after_linprog),
    (fillvol, "filling_volume_0d", "fillvol.transport", None),
    (slicedfill, "ball_context", "slicedfill.ball_context", None),
    (slicedfill, "sliced_fill", "slicedfill.sliced_fill", _after_sliced_fill),
    (slicedfill, "tetra_check", "slicedfill.tetra_check", None),
    (slicedfill, "fill_value_of_boundary", "slicedfill.leaf", None),
    (slicedfill, "h_min_distance", "slicedfill.leaf", None),
    (convergence, "joined_complex", "convergence.joined_complex", None),
    (convergence, "matched_balls", "convergence.matched_balls", None),
    (meshes, "sphere_mesh", "meshes.build", None),
    (meshes, "torus_patch_mesh", "meshes.build", None),
    (meshes, "disk_mesh", "meshes.build", None),
    (meshes, "grid_mesh", "meshes.build", None),
]

# (class, method, span name)
METHODS = [
    (slicing.Refinement, "transfer_current", "slicing.transfer"),
    (slicing.Refinement, "transfer_function", "slicing.transfer"),
    (complexes.GeometricComplex, "masses", "complexes.masses"),
]

PROPERTIES = [(complexes.PLFunction, "lip", "complexes.lip")]

LEAF_METHODS = [
    (cls, method, f"complexes.metric.{method}")
    for cls in (complexes.EuclideanMetric, complexes.CallableMetric, complexes.MatrixMetric)
    for method in ("pairwise_sq", "dist", "row")
]

# span record fields; LEAF is the time of aggregated leaf calls and counter
# hooks inside the span, which its self time excludes
NAME, START, END, PARENT, OP, LEAF = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = defaultdict(float)
        self.op = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.op, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = time.perf_counter()
            if hook is not None:
                # the hook is tracer overhead: keep it out of the caller's self time
                t0 = time.perf_counter()
                hook(self, args, kwargs, result)
                if stack:
                    spans[stack[-1]][LEAF] += time.perf_counter() - t0
            return result

        return wrapper

    def leaf(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        calls, secs = name + ".calls", name + ".self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            counters[calls] += 1
            counters[secs] += dt
            if stack:
                spans[stack[-1]][LEAF] += dt
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, extra_namespaces=()):
        """Wrap every traced function, method and property; returns self."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("currentlab")]
        namespaces += list(extra_namespaces)
        for module, attr, name, hook in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = self.span(name, original, hook)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._set(ns, attr, wrapped)
        for cls, attr, name in METHODS:
            self._set(cls, attr, self.span(name, cls.__dict__[attr]))
        for cls, attr, name in PROPERTIES:
            prop = cls.__dict__[attr]
            self._set(cls, attr, property(self.span(name, prop.fget), prop.fset, prop.fdel, prop.__doc__))
        for cls, attr, name in LEAF_METHODS:
            self._set(cls, attr, self.leaf(name, cls.__dict__[attr]))
        return self

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op", "leaf_s"], "spans": self.spans}))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# analysis


def self_times(spans):
    """Self time per span: duration minus the union of its children's
    intervals (clipped to the span) minus the time of aggregated leaf calls."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c][START], s[START]), min(spans[c][END], s[END])) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(s[END] - s[START] - covered - s[LEAF], 0.0))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, op_walls, untraced_walls, op_ids):
    """Per-layer metrics as {name: (value, unit)}, normalised per traced
    operation (`/op`) or per LP solved (`/lp`).

    `op_walls` are the traced operations' wall times, `untraced_walls` the
    same operations run with tracing off; `op_ids` the traced operation ids.
    Spans outside those operations (set-up) only feed `meshes.build_s`.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    ops = set(op_ids)
    n = max(len(ops), 1)
    calls, self_s = defaultdict(int), defaultdict(float)
    root_s = 0.0
    build_s = 0.0
    for s, st in zip(spans, selfs):
        if s[NAME] == "meshes.build" and s[PARENT] is None:
            build_s += s[END] - s[START]
        if s[OP] not in ops:
            continue
        calls[s[NAME]] += 1
        self_s[s[NAME]] += st
        if s[PARENT] is None:
            root_s += s[END] - s[START]
    c = tracer.counters
    lp_calls = calls["fillvol.linprog"]

    def per_op(v):
        return v / n, "1/op"

    def secs(v):
        return v / n, "s/op"

    def per_lp(v):
        return _ratio(v, lp_calls), "1/lp"

    def ratio(num, den):
        return _ratio(num, den), "ratio"

    return {
        "slicing.subdivide.calls": per_op(calls["slicing.subdivide"]),
        "slicing.subdivide.self_s": secs(self_s["slicing.subdivide"]),
        "slicing.subdivide.simplices_in": per_op(c["slicing.subdivide.simplices_in"]),
        "slicing.subdivide.cut_edges": per_op(c["slicing.subdivide.cut_edges"]),
        "slicing.subdivide.dropped": per_op(c["slicing.subdivide.dropped"]),
        "slicing.subdivide.snapped": per_op(c["slicing.subdivide.snapped"]),
        "slicing.subdivide.split_frac": ratio(c["slicing.subdivide.split"], c["slicing.subdivide.visited"]),
        "slicing.slice_current.self_s": secs(self_s["slicing.slice_current"]),
        "slicing.support_closure.self_s": secs(self_s["slicing.support_closure"]),
        "slicing.transfer.self_s": secs(self_s["slicing.transfer"]),
        "slicing.annulus_mass.self_s": secs(self_s["slicing.annulus_mass"]),
        "complexes.metric.pairwise_sq.calls": per_op(c["complexes.metric.pairwise_sq.calls"]),
        "complexes.metric.pairwise_sq.self_s": secs(c["complexes.metric.pairwise_sq.self_s"]),
        "complexes.metric.dist.calls": per_op(c["complexes.metric.dist.calls"]),
        "complexes.metric.dist.self_s": secs(c["complexes.metric.dist.self_s"]),
        "complexes.metric.row.self_s": secs(c["complexes.metric.row.self_s"]),
        "complexes.masses.self_s": secs(self_s["complexes.masses"]),
        "complexes.lip.self_s": secs(self_s["complexes.lip"]),
        "currents.boundary.calls": per_op(calls["currents.boundary"]),
        "currents.boundary.self_s": secs(self_s["currents.boundary"]),
        "currents.boundary.coeffs_in": per_op(c["currents.boundary.coeffs_in"]),
        "currents.mass.self_s": secs(self_s["currents.mass"]),
        "fillvol.lp.calls": per_op(lp_calls),
        "fillvol.lp.build_s": secs(self_s["fillvol.filling_volume"] + self_s["fillvol.flat_distance"]),
        "fillvol.boundary_matrix.self_s": secs(self_s["fillvol.boundary_matrix"]),
        "fillvol.lp.solve_s": secs(self_s["fillvol.linprog"]),
        "fillvol.lp.rows": per_lp(c["fillvol.lp.rows"]),
        "fillvol.lp.cols": per_lp(c["fillvol.lp.cols"]),
        "fillvol.lp.nnz": per_lp(c["fillvol.lp.nnz"]),
        "fillvol.lp.iterations": per_lp(c["fillvol.lp.iterations"]),
        "fillvol.lp.integral_frac": ratio(c["fillvol.reports_integral"], c["fillvol.reports"]),
        "fillvol.lp.residual_max": (c["fillvol.lp.residual_max"], "abs"),
        "fillvol.transport.calls": per_op(calls["fillvol.transport"]),
        "fillvol.transport.self_s": secs(self_s["fillvol.transport"]),
        "slicedfill.ball_context.self_s": secs(self_s["slicedfill.ball_context"]),
        "slicedfill.leaf.calls": per_op(calls["slicedfill.leaf"]),
        "slicedfill.leaf.self_s": secs(self_s["slicedfill.leaf"]),
        "slicedfill.skipped": per_op(c["slicedfill.skipped"]),
        "convergence.joined_complex.self_s": secs(self_s["convergence.joined_complex"]),
        "convergence.matched_balls.self_s": secs(self_s["convergence.matched_balls"]),
        "meshes.build_s": (build_s, "s"),
        "trace.coverage_frac": ratio(root_s, sum(op_walls)),
        "trace.overhead_frac": (_ratio(sum(op_walls), sum(untraced_walls)) - 1.0, "ratio"),
        "trace.ops": (len(ops), "count"),
    }
