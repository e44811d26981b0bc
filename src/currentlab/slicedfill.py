"""Sliced filling volumes, witness search, and the tetrahedral property.

The sliced filling of a ball integrates, over a box of level tuples, the
minimal filling mass of the boundary of each iterated slice; 0-dimensional
fillings are solved by exact transport and the product over the slicing
functions' Lipschitz constants turns the integral into a lower bound for
the ball's mass.  One level-box routine does this quadrature for every leaf:
the sliced filling, the interval variant in `product`, and the band integral
of h behind the tetrahedral check.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import GeometricComplex, PLFunction, distance_function
from .currents import SimplicialCurrent, boundary, mass
from .fillvol import filling_volume, filling_volume_0d
from .metricspace import ArgumentError, Report
from .slicing import Refinement, slice_current, subdivide_at_level, support_closure

# Euclidean 3-space constants for the band [(1-beta) r, (1+beta) r]^2 at
# beta = 1/2, witnesses at mutual distance r on the sphere of radius r.
# Derived by scripts/derive_c_e3.py (closed-form three-sphere intersection,
# brute-force scan of the band at r = 1):
#   - the pointwise minimum over the closed band is 0: near the band corners
#     (1/2, 1/2), (1/2, 3/2) and (3/2, 1/2) the intersection set is empty,
#     for every witness configuration, so no positive pointwise constant
#     exists at beta = 1/2;
#   - the band integral of h is positive and equals the integral tetra
#     constant, since (2 * beta)^(m-1) = 1 at beta = 1/2.
C_E3_BAND_INTEGRAL = 1.3410254
C_E3_POINTWISE_MIN = 0.0
# Pointwise constant for the narrower band at beta = 0.3 (same script).
C_E3_POINTWISE_BETA03 = 0.9797279
POINT_MERGE_REL = 1e-9


@dataclass
class BallContext:
    """A ball current with its refinement and discrete bounding sphere."""

    current: SimplicialCurrent
    refinement: Refinement
    center: int
    radius: float
    rho: PLFunction

    @property
    def complex(self) -> GeometricComplex:
        return self.current.complex

    def sphere_vertices(self) -> list[int]:
        """Vertices of the discrete bounding sphere: the cut vertices created
        at the ball level (the current's own boundary is excluded)."""
        if self.current.dim < 1:
            return []
        cut_start = self.refinement.n_old_vertices
        return [v for v in boundary(self.current).support_vertices() if v >= cut_start]

    def support_range(self, f: PLFunction):
        verts = self.current.support_vertices()
        if not verts:
            return 0.0, 0.0
        vals = f.values[verts]
        return float(vals.min()), float(vals.max())


def ball_context(T: SimplicialCurrent, p: int, r: float) -> BallContext:
    if not r > 0:
        raise ArgumentError("ball radius must be positive")
    rho = distance_function(T.complex, p)
    ref = subdivide_at_level(T.complex, rho.values, r)
    # vertex ids and the metric survive re-rooting, so the distance values
    # and any externally supplied witness ids stay valid
    current = support_closure(ref.transfer_current(T).restricted(ref.below(T.dim)))
    rho2 = PLFunction(current.complex, ref.values, source=rho.source)
    return BallContext(current=current, refinement=ref, center=p, radius=r, rho=rho2)


@dataclass
class SlicedFillReport(Report):
    center: int
    radius: float
    grid_axes: list
    values: np.ndarray
    integral: float
    lipschitz: list
    mass_lower_bound: float
    ball_mass: float
    error_estimate: float | None = None
    skipped: int = 0
    witnesses: tuple = ()
    warnings: list = field(default_factory=list)


@dataclass
class TetraReport(Report):
    center: int
    radius: float
    witnesses: tuple
    C: float
    beta: float
    grid_axes: list
    h_values: np.ndarray
    passed: bool
    integral_passed: bool
    integral: float
    required_integral: float
    ball_mass: float
    warnings: list = field(default_factory=list)


def _tensor_eval(start: SimplicialCurrent, functions, grids, leaf):
    """Evaluate leaf(current) over a tensor grid of iterated slice levels.

    Slices share prefixes: the level grid of axis j is sliced once per
    prefix, so axis-0 slices are computed len(grids[0]) times in total.
    """
    shape = tuple(len(g) for g in grids)
    out = np.zeros(shape if shape else (1,))
    skipped = [0]

    def rec(current, fns, depth, prefix):
        if depth == len(grids):
            out[prefix if prefix else 0] = leaf(current)
            return
        for i, t in enumerate(grids[depth]):
            try:
                sl = slice_current(current, fns[0], float(t))
            except ArgumentError:
                skipped[0] += 1
                continue
            rest = [sl.refinement.transfer_function(g) for g in fns[1:]]
            nested = support_closure(sl.current) if rest else sl.current
            rec(nested, rest, depth + 1, prefix + (i,))

    rec(start, list(functions), 0, ())
    return out, skipped[0]


def _support_atoms(Z: SimplicialCurrent):
    ids = Z.complex.simplex_array(0)[Z.idx, 0]
    return ids.tolist(), np.abs(Z.coeff).tolist(), np.sign(Z.coeff).tolist()


def _merged_support_points(Z: SimplicialCurrent, merge_tol: float):
    """Distinct support points after merging near-duplicates."""
    ids = Z.support_vertices()
    metric = Z.complex.metric
    reps: list[int] = []
    for v in ids:
        if all(metric.dist(v, w) > merge_tol for w in reps):
            reps.append(v)
    return reps


def fill_value_of_boundary(current: SimplicialCurrent) -> float:
    """FillVol of the boundary of a slice, routed by dimension."""
    B = boundary(current)
    if B.is_zero():
        return 0.0
    if B.dim == 0:
        ids, theta, sigma = _support_atoms(B)
        return filling_volume_0d(B.complex.metric, theta, sigma, point_ids=ids).value
    return filling_volume(B, B.complex).value


def h_min_distance(current: SimplicialCurrent, merge_tol: float) -> float:
    """Min pairwise distance between distinct boundary points; 0 if fewer
    than two distinct points remain."""
    B = boundary(current)
    if B.is_zero():
        return 0.0
    reps = _merged_support_points(B, merge_tol)
    if len(reps) < 2:
        return 0.0
    metric = current.complex.metric
    return min(metric.dist(a, b) for a, b in itertools.combinations(reps, 2))


def h_function(T, p, r, levels, witnesses, context: BallContext | None = None) -> float:
    """Min pairwise distance within the intersection of the sphere about p
    with the witness-distance level sets, extracted from iterated slicing."""
    ctx = context or ball_context(T, p, r)
    levels = list(levels)
    if len(levels) != len(witnesses):
        raise ArgumentError("need one level per witness")
    fns = [distance_function(ctx.complex, w) for w in witnesses]
    grids = [np.array([t]) for t in levels]
    vals, _ = _tensor_eval(
        ctx.current, fns, grids, lambda cur: h_min_distance(cur, POINT_MERGE_REL * ctx.radius)
    )
    return float(vals.reshape(-1)[0])


def _level_axes(ranges, grid):
    """`grid` equally spaced levels on each (lo, hi) range; the trapezoid
    rule needs at least two per axis."""
    if grid < 2:
        raise ArgumentError("grid must have at least 2 nodes per axis")
    return [np.linspace(lo, hi, grid) for lo, hi in ranges]


def _check_axis_count(count, max_axes, dim):
    if count > max_axes:
        raise ArgumentError(f"at most {max_axes} slicing functions on a {dim}-current")


def _level_box(ctx: BallContext, leaf, grid, functions=None, witnesses=None, box=None, *, max_axes):
    """The level-box quadrature behind every sliced quantity.

    The slicing functions are `functions` (PL functions on the ball's
    original complex) or the distance functions of the vertex ids in
    `witnesses`, at most `max_axes` of them.  Each axis has `grid` levels
    spanning the function's range over the closed ball, or the fixed
    interval `box`; `leaf` is evaluated on every iterated slice and
    integrated by the trapezoid rule.  The integral divided by the product
    of Lipschitz constants is the report's mass lower bound, flagged when
    it exceeds the ball's mass by more than twice the Richardson estimate.
    """
    if witnesses is not None and functions is not None:
        raise ArgumentError("pass either functions or witnesses, not both")
    wit = tuple(witnesses) if witnesses is not None else ()
    if witnesses is not None:
        fns = [distance_function(ctx.complex, w) for w in wit]
    else:
        fns = [ctx.refinement.transfer_function(f) for f in (functions or [])]
    _check_axis_count(len(fns), max_axes, ctx.current.dim)
    grids = _level_axes([box or ctx.support_range(f) for f in fns], grid)
    values, skipped = _tensor_eval(ctx.current, fns, grids, leaf)
    integral = _tensor_trapezoid(values, grids)
    estimate = _richardson_estimate(values, grids)
    lips = [f.lip for f in fns]
    lam = math.prod(1.0 / L if L > 0 else 0.0 for L in lips)
    ball_m = mass(ctx.current)
    report = SlicedFillReport(
        center=ctx.center,
        radius=ctx.radius,
        grid_axes=grids,
        values=values,
        integral=integral,
        lipschitz=lips,
        mass_lower_bound=lam * integral,
        ball_mass=ball_m,
        error_estimate=estimate,
        skipped=skipped,
        witnesses=wit,
    )
    if report.mass_lower_bound > ball_m + 2 * (estimate or 0.0) + 1e-6:
        report.warnings.append(
            f"mass lower bound {report.mass_lower_bound} exceeds ball mass {ball_m}"
        )
    return report


def sliced_fill(
    T: SimplicialCurrent,
    p: int,
    r: float,
    functions=None,
    witnesses=None,
    grid: int = 32,
    context: BallContext | None = None,
) -> SlicedFillReport:
    """Quadrature of level -> FillVol(boundary of slice) over the level box.

    `functions` are PL functions on T's complex, or `witnesses` are vertex
    ids whose distance functions are used.  The level box spans the range of
    each function over the closed ball.  The integral divided by the product
    of Lipschitz constants is a lower bound for the ball's mass.
    """
    ctx = context or ball_context(T, p, r)
    return _level_box(ctx, fill_value_of_boundary, grid, functions, witnesses, max_axes=T.dim - 1)


def _tensor_trapezoid(values, grids):
    if not grids:
        return float(values[0])
    acc = values
    for axis in range(len(grids) - 1, -1, -1):
        acc = np.trapezoid(acc, grids[axis], axis=axis)
    return float(acc)


def _richardson_estimate(values, grids):
    if not grids or any((len(g) - 1) % 2 or len(g) < 3 for g in grids):
        return None
    sub_vals = values[tuple(slice(None, None, 2) for _ in grids)]
    sub_grids = [g[::2] for g in grids]
    coarse = _tensor_trapezoid(sub_vals, sub_grids)
    fine = _tensor_trapezoid(values, grids)
    return abs(fine - coarse)


def _witness_tuples(sphere, k, budget):
    """Deterministic candidate witness tuples from the discrete sphere."""
    n = len(sphere)
    if n == 0 or k == 0:
        return [()]
    tuples = []
    if k == 1:
        step = max(1, n // max(budget, 1))
        tuples = [(sphere[i],) for i in range(0, n, step)][:budget]
    else:
        # spread tuples at several angular offsets
        for start in range(min(4, n)):
            for frac in (3, 4, 6):
                idx = [(start + j * n // frac) % n for j in range(k)]
                if len(set(idx)) == k:
                    tuples.append(tuple(sphere[i] for i in idx))
        tuples = list(dict.fromkeys(tuples))[: max(budget, 1)]  # distinct, in order
    return tuples or [tuple(sphere[:k])]


EMPTY_SPHERE = "discrete sphere is empty"


def _witness_search(ctx: BallContext, k, candidates, leaf, grid, box=None) -> SlicedFillReport:
    """The level-box report of the first witness tuple with the largest
    integral, over the k-tuples `_witness_tuples` draws from the discrete
    sphere.  An empty sphere has no witness: its report is zero over the
    fixed box, or over no axes when the box would follow the witnesses.
    A k beyond the level box's axes is an input error either way."""
    _check_axis_count(k, ctx.current.dim - 1, ctx.current.dim)
    sphere = ctx.sphere_vertices()
    if k > 0 and not sphere:
        grids = _level_axes([box] * k if box else [], grid)
        report = SlicedFillReport(
            center=ctx.center, radius=ctx.radius, grid_axes=grids,
            values=np.zeros(tuple(len(g) for g in grids) or (1,)), integral=0.0,
            lipschitz=[1.0] * k, mass_lower_bound=0.0, ball_mass=mass(ctx.current),
        )
        report.warnings.append(EMPTY_SPHERE)
        return report
    best = None
    for wit in _witness_tuples(sphere, k, candidates):
        report = _level_box(ctx, leaf, grid, witnesses=wit, box=box, max_axes=ctx.current.dim - 1)
        if best is None or report.integral > best.integral:
            best = report
    return best


def sf_k(
    T: SimplicialCurrent,
    p: int,
    r: float,
    k: int,
    candidates: int = 8,
    grid: int = 16,
    context: BallContext | None = None,
):
    """Best sliced filling over witness tuples on the discrete sphere.

    Searches deterministically within an evaluation budget; the returned
    value is a certified lower bound for the supremum.  Returns the report
    of the best tuple found.
    """
    if k < 0:
        raise ArgumentError("need k >= 0 witnesses")
    ctx = context or ball_context(T, p, r)
    return _witness_search(ctx, k, candidates, fill_value_of_boundary, grid)


def tetra_check(
    T: SimplicialCurrent,
    p: int,
    r: float,
    C: float,
    beta: float,
    samples: int = 5,
    candidates: int = 6,
    context: BallContext | None = None,
) -> TetraReport:
    """Pointwise and integral tetrahedral checks over the level band.

    Witness tuples are searched to maximize the band integral of h; the
    pointwise flag needs h >= C r at every sampled node, the integral flag
    needs the band integral to reach C (2 beta)^(m-1) r^m.
    """
    if not C > 0 or not (0 < beta < 1):
        raise ArgumentError("need C > 0 and beta in (0, 1)")
    ctx = context or ball_context(T, p, r)
    m = T.dim
    merge_tol = POINT_MERGE_REL * r
    best = _witness_search(
        ctx, m - 1, candidates, lambda cur: h_min_distance(cur, merge_tol), samples,
        box=((1 - beta) * r, (1 + beta) * r),
    )
    required = C * (2 * beta) ** (m - 1) * r**m
    passed = bool(best.values.min() >= C * r)
    integral_passed = bool(best.integral >= required)
    report = TetraReport(
        center=p,
        radius=r,
        witnesses=best.witnesses,
        C=C,
        beta=beta,
        grid_axes=best.grid_axes,
        h_values=best.values,
        passed=passed,
        integral_passed=integral_passed,
        integral=best.integral,
        required_integral=required,
        ball_mass=best.ball_mass,
        # the band integral of h bounds no mass: only the search's own
        # warning applies
        warnings=[w for w in best.warnings if w == EMPTY_SPHERE],
    )
    if (passed or integral_passed) and best.ball_mass + 1e-9 < required:
        report.warnings.append(
            f"ball mass {best.ball_mass} below the tetra volume bound {required}"
        )
    return report


def euclidean_h_closed_form(t1, t2, witness_cos=0.5):
    """Closed-form h in Euclidean 3-space on the unit ball, for witnesses on
    the unit sphere with given mutual cosine; the oracle behind the module
    constants."""
    c1 = 1.0 - np.asarray(t1, dtype=float) ** 2 / 2.0
    c2 = 1.0 - np.asarray(t2, dtype=float) ** 2 / 2.0
    u = witness_cos
    par = (c1**2 + c2**2 - 2 * u * c1 * c2) / (1 - u**2)
    return np.where(par <= 1.0, 2.0 * np.sqrt(np.maximum(1.0 - par, 0.0)), 0.0)
