"""Sliced filling volumes, witness search, and the tetrahedral property.

The sliced filling of a ball integrates, over a box of level tuples, the
minimal filling mass of the boundary of each iterated slice; 0-dimensional
fillings are solved by exact transport and the product over the slicing
functions' Lipschitz constants turns the integral into a lower bound for
the ball's mass.  One level-box routine does this quadrature for every leaf:
the sliced filling, its interval variant, and the band integral of h
behind the tetrahedral check.  The filling and h leaves read only the
cycle d<T, f, t> of the final slice, which the slicing identity
d<T, f, t> = -<dT, f, t> gives without cutting volume.  When that cycle is
0-dimensional (sf on a 2-d ball, tetra and sfk --k 2 on a 3-d one), no
axis cuts: the next-to-last axis reads the slices of the boundary of its
prefix, not the prefix, off one level pass over it, and the last axis
reads the cut points of that 1-chain at all its levels in one pass, as
points with signed weights.  Otherwise the last axis slices -dT of its
prefix T.

Every ball is read off its level set, not cut (`ball_context`):
d(T on {rho < r}) is <T, rho, r> + (dT on {rho < r}), the level surface
through each simplex crossing the level plus T's boundary below it, and
a 0-chain's ball is its vertices below the level.  So when the leaves
read 0-cycles of at most two axes (sf and sfk --k 1 on a 2-d ball, tetra
and sfk --k 2 on a 3-d one), every axis reads that boundary alone and
nothing is cut; every other box slices the ball's chain, built from the
level set.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .complexes import (
    UNKNOWN_VOLUME,
    GeometricComplex,
    PLFunction,
    distance_function,
    distinct_rows,
    face_closure,
    row_keys,
    simplex_volumes,
)
from .currents import SimplicialCurrent, boundary, boundary_chain
from .fillvol import filling_volume, filling_volume_0d
from .metricspace import ArgumentError, Report, abs_sum_below_limit
from .product import interval_filling_volume
from .slicing import (
    PointCycle,
    _below_limit,
    _crossing_edges,
    _cut_points,
    _cut_values,
    _offsets,
    _pieces,
    _slices,
    _snap_or_error,
    _vertex_values,
    point_slices,
    slice_current,  # noqa: F401  unused here; perfbench's tracer wraps it in every namespace that binds it
    snap_level,
    support_closure,
    vertex_rows,
)

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


@dataclass(eq=False)
class LevelSet:
    """A ball B = T on {rho < r} of a k-chain T read off its level set
    {rho = r}, with no cut.  The cut points of the crossing edges
    `cut_edges` at parameters `cut_t` are numbered from T's vertex count in
    edge order, as the cut numbers them, on `metric`, T's metric grown by
    them.  B's k-simplices are the vertex-id `rows` (lexicographic) with
    `coeff`: the simplices wholly below, with their mesh `volumes`, and the
    pieces below of the crossing ones, through a cut point and of
    UNKNOWN_VOLUME.  dB is `boundary_rows` (lexicographic) with
    `boundary_coeff`: by dB = <T, rho, r> + (dT) on {rho < r}, the faces of
    cut points alone of the pieces below plus T's boundary below the
    level."""

    metric: object
    cut_edges: np.ndarray
    cut_t: np.ndarray
    rows: np.ndarray
    coeff: np.ndarray
    volumes: np.ndarray
    boundary_rows: np.ndarray
    boundary_coeff: np.ndarray


def _level_set(T: SimplicialCurrent, values, s) -> LevelSet:
    """The level set of the ball {values < s} of the k-chain T at the
    snapped level s, in one pass over T's k-simplices and one over the
    crossing faces of dT (taken once per chain, `boundary_rows`).  A piece
    below holds a face of cut points alone exactly when its one vertex
    below is its first, and that face then has the piece's sign.  A
    0-chain has no crossing simplex: its ball is its vertices below, with
    an empty boundary.  Raises the cut's ArgumentError when T's star on
    the refinement (C(k + 1, j) pieces per crossing simplex with j
    vertices below) reaches 2**62."""
    C, n, k = T.complex, T.complex.n_vertices, T.dim
    top = C.simplex_array(k)[T.idx]
    side = values[top] < s
    count = side.sum(axis=1)
    pieces_per = np.array([0] + [math.comb(k + 1, j) for j in range(1, k + 1)] + [1])
    if not abs_sum_below_limit(np.repeat(T.coeff, pieces_per[count])):
        raise ArgumentError("chain coefficients must sum below 2**62 in absolute value")
    inside, crossing = count == k + 1, (count > 0) & (count <= k)
    sims, sides = top[crossing], side[crossing]
    edges = _crossing_edges(sims, sides)
    t, _, points = _cut_points(C.metric, values, edges, s)
    pieces, coeff, _ = _pieces(sims, sides, T.coeff[crossing], edges, n, values, s)
    rows = np.concatenate([top[inside], pieces])
    order = np.argsort(row_keys(rows)[0], kind="stable")
    volumes = np.concatenate([C.masses(k)[T.idx[inside]], np.full(len(pieces), UNKNOWN_VOLUME)])

    d_rows, d_coeff = b_rows, b_coeff = T.boundary_rows
    if k:
        d_side = values[d_rows] < s
        whole, d_crossing = d_side.all(axis=1), d_side.any(axis=1) & ~d_side.all(axis=1)
        d_pieces, d_pieces_coeff, _ = _pieces(d_rows[d_crossing], d_side[d_crossing], d_coeff[d_crossing], edges, n, values, s)
        level = pieces[:, 1] >= n
        b_rows = np.concatenate([pieces[level][:, 1:], d_rows[whole], d_pieces])
        b_coeff = np.concatenate([coeff[level], d_coeff[whole], d_pieces_coeff])
    b_order = np.argsort(row_keys(b_rows)[0], kind="stable")
    return LevelSet(
        metric=C.metric.grown(points),
        cut_edges=edges,
        cut_t=t,
        rows=rows[order],
        coeff=np.concatenate([T.coeff[inside], coeff])[order],
        volumes=volumes[order],
        boundary_rows=b_rows[b_order],
        boundary_coeff=b_coeff[b_order],
    )


@dataclass(eq=False)
class BallContext:
    """The ball of the chain T about vertex p of radius r, r snapped to
    `level` as `subdivide_at_level` snaps it, read off its level set
    (`level_set`: one pass over T's simplices, no cut).  The discrete
    sphere, `rows`, the support range, `ball_mass` and `boundary` read the
    level set alone; `current`, the ball as a chain on the face closure of
    its rows, is built on first read.  A level box whose leaves read
    0-cycles of at most two axes reads only the level set (`_point_box`);
    every other box slices `current`.
    """

    T: SimplicialCurrent
    center: int
    radius: float
    rho: PLFunction
    level: float

    @property
    def dim(self) -> int:
        return self.T.dim

    @cached_property
    def level_set(self) -> LevelSet:
        return _level_set(self.T, self.rho.values, self.level)

    @cached_property
    def current(self) -> SimplicialCurrent:
        """The ball's rows (lexicographic) with their coefficients, on the
        face closure of the rows over the grown metric; the rows wholly
        below keep their mesh volumes."""
        lv = self.level_set
        K = GeometricComplex(lv.metric, face_closure(lv.rows), {self.dim: lv.volumes.copy()})
        return SimplicialCurrent.from_arrays(K, self.dim, np.arange(len(lv.rows)), lv.coeff)

    @property
    def complex(self) -> GeometricComplex:
        return self.current.complex

    def transfer_function(self, f: PLFunction) -> PLFunction:
        """The PL function f on T's complex (ArgumentError for one of another
        vertex count) as a function on the ball's complex: its values, then
        its values at the cut points."""
        lv, n = self.level_set, self.T.complex.n_vertices
        values = _vertex_values(n, f.values)
        cut = _cut_values(f, lv.metric, n, lv.cut_edges, lv.cut_t)
        return PLFunction(self.complex, np.concatenate([values, cut]), source=f.source)

    @cached_property
    def boundary(self) -> SimplicialCurrent:
        """d of the ball, built once: the discrete sphere and the level box of
        every witness candidate read it.  It lives on a complex of its own
        (k-1)-simplices alone, with no lower faces, over the grown metric."""
        lv = self.level_set
        K = GeometricComplex(lv.metric, {self.dim - 1: lv.boundary_rows})
        return boundary_chain(K, self.dim - 1, np.arange(len(lv.boundary_rows)), lv.boundary_coeff)

    @property
    def rows(self):
        """The ball's top simplices as vertex-id rows (lexicographic) and
        their coefficients."""
        return self.level_set.rows, self.level_set.coeff

    @cached_property
    def ball_mass(self) -> float:
        """M(ball), summed in row order: bit for bit `mass(current)`."""
        lv = self.level_set
        todo = np.flatnonzero(lv.volumes == UNKNOWN_VOLUME)
        volumes = lv.volumes.copy()
        volumes[todo] = simplex_volumes(lv.metric, lv.rows[todo])
        return float(np.abs(lv.coeff) @ volumes)

    def sphere_vertices(self) -> list[int]:
        """Vertices of the discrete bounding sphere: the cut vertices created
        at the ball level (the current's own boundary is excluded)."""
        if self.dim < 1:
            return []
        cut_start = self.T.complex.n_vertices
        return [v for v in self.boundary.support_vertices() if v >= cut_start]

    def support_range(self, f: PLFunction):
        values = f.values[self.rows[0]]
        return (float(values.min()), float(values.max())) if values.size else (0.0, 0.0)


def ball_context(T: SimplicialCurrent, p: int, r: float) -> BallContext:
    """The ball of T about vertex p of radius r (see `BallContext`): the
    distance from p, the snapped level and the level pass."""
    if not r > 0:
        raise ArgumentError("ball radius must be positive")
    rho = distance_function(T.complex, p)
    ctx = BallContext(T=T, center=p, radius=r, rho=rho, level=snap_level(rho.values, r)[0])
    ctx.level_set
    return ctx


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


def _tensor_eval(start: SimplicialCurrent, functions, grids, leaf, *, cycle):
    """Evaluate the leaf over a tensor grid of iterated slice levels.

    With `cycle` the leaf is handed the boundary of each final slice, which
    the slicing identity d<T, f, t> = -<dT, f, t> gives without cutting the
    slice's volume; otherwise the final slice itself.  Every boundary is
    taken of its chain (`currents.boundary`), the start's included.  With
    k = dim - 1 axes and `cycle` that boundary is a 0-cycle, and the last
    one or two axes cut nothing: they read the slices of dP for their
    prefix P off level passes over dP and its slices (`_point_axes`).  Every other axis cuts its prefix, the
    last one -dP with `cycle`; with no axes the leaf reads dT.  Slices
    share prefixes: each level of axis j is cut once per prefix
    (`slicing._slices`, one cut per level).  Each slice cuts only the
    star of its level, except a final slice of a prefix of dimension >= 3:
    `fill_value_of_boundary` fills its cycle inside its complex, so that
    slice keeps the whole cut of the closure of the prefix's support.  A
    level that raises ArgumentError is skipped, and at every axis one rule
    raises for |coefficients| near 2**62: that of the prefix P on the
    refinement that would cut it at the level (its star, or its whole
    complex for a whole-cut final slice), read off P's simplices
    (`slicing.vertex_rows`) where the axis cuts dP or reads its slices or
    cut points.  After the dP first axis that rule cannot bind: a crossing
    tetrahedron with j vertices below splits into C(4, j) pieces, at least
    3 per triangle of its slice, and each triangle into at most 3.
    """
    k = len(grids)
    out = np.zeros(tuple(len(g) for g in grids) or (1,))
    skipped = [0]
    points = cycle and start.dim - k == 1

    def keeps_whole_cut(depth, dim):
        return depth == k - 1 and dim > 2

    def rec(current, fns, depth, prefix):
        if points and depth == max(k - 2, 0):
            out[prefix], skips = _point_axes(boundary(current), current.rows, fns, grids[depth:], leaf)
            skipped[0] += skips
            return
        if depth == k:
            out[prefix if prefix else 0] = leaf(current)
            return
        star = not keeps_whole_cut(depth, current.dim)
        if cycle and depth == k - 1:
            results = _slices(-boundary(current), fns[0], grids[depth], star, vertex_rows(current.rows, fns[0].values))
        else:
            results = _slices(current, fns[0], grids[depth], star)
        for i, sl in enumerate(results):
            if isinstance(sl, ArgumentError):
                skipped[0] += 1
            else:
                rest = [sl.refinement.transfer_function(g) for g in fns[1:]]
                nested = support_closure(sl.current) if keeps_whole_cut(depth + 1, sl.current.dim) else sl.current
                rec(nested, rest, depth + 1, prefix + (i,))

    if cycle and k == 0 and not points:
        out[0] = leaf(boundary(start))
    else:
        rec(start, list(functions), 0, ())
    return out, skipped[0]


def _point_axes(B, rows, fns, grids, leaf):
    """The leaf over the last axes of a box whose final slices have
    0-cycles for boundaries, at most two, with no cut: B is dP of the
    prefix P whose simplices are `rows` (vertex-id rows, coefficients).
    With no axis the leaf reads dP's points.  With one it reads the cut
    points of the 1-chain -dP at all its levels in one pass
    (`slicing.point_slices`), a level skipped by P's rule.  With two the
    first reads <dP, f, s> at all its levels off one level pass over dP
    (`_boundary_levels`, which skips levels and picks the next axis's snap
    values as cutting P would), and the second reads the cut points of
    each slice in one point pass, where P's rule cannot bind (see
    `_tensor_eval`).  Returns the leaf's values over the axes' levels and
    the number of levels skipped."""
    out, skipped = np.zeros(tuple(len(g) for g in grids) or (1,)), 0

    def read(results, prefix):
        nonlocal skipped
        for i, sl in enumerate(results):
            if isinstance(sl, ArgumentError):
                skipped += 1
            else:
                out[prefix + (i,)] = leaf(sl)

    if not fns:
        out[0] = leaf(PointCycle.from_chain(B))
    elif len(fns) == 1:
        (edges, coeff), values = B.rows, fns[0].values
        read(point_slices((edges, -coeff), values, B.complex.metric, grids[0], limit_of=vertex_rows(rows, values)), ())
    else:
        for i, sl in enumerate(_boundary_levels(B, rows, *fns, grids[0])):
            if isinstance(sl, ArgumentError):
                skipped += 1
            else:  # the slice, g on its metric, that metric and the values g snaps on; an empty chain's rule
                read(point_slices(*sl[:3], grids[1], snap_values=sl[3], limit_of=(np.empty((0, 3)), rows[1][:0])), (i,))
    return out, skipped


def _boundary_levels(B, rows, f, g, levels) -> list:
    """<dP, f, s> of the 2-chain B = dP (P the 3-chain `rows`, vertex-id
    rows and coefficients) at every one of `levels`, off one level pass over
    dP with no cut.  Entry i is the ArgumentError of levels[i] (by P's rule
    on its crossing star, `_below_limit`), or the slice as (edge rows,
    coefficients), g at the vertices of the one metric that holds every
    level's cut points, that metric, and the values the next axis snaps g
    on: g at the vertices and at the cut points of the slice and of P's
    crossing edges, as cutting P would hold them.  The slice is the faces of
    cut points alone of the pieces below, as in `_level_set`: bit for bit
    the signed slice of dP's cut crossing star, its cut points numbered in
    lexicographic edge order after those of the levels before it.  P's rule
    bounds it: a crossing tetrahedron has at least 4 pieces and at most 4
    crossing triangles."""
    values, metric, n = f.values, B.complex.metric, B.complex.n_vertices
    out = [_snap_or_error(values, s) for s in levels]
    live = [i for i, snap in enumerate(out) if not isinstance(snap, ArgumentError)]
    if not live:
        return out
    m, at = len(live), np.array([out[i][0] for i in live])
    top, coeff = B.rows
    side = values[top] < at[:, None, None]
    level, pick = np.nonzero(side.any(axis=2) & ~side.all(axis=2))
    sims, sides = top[pick], side[level, pick]
    edges, edge_level = _crossing_edges(sims, sides, level, m)
    t, _, points = _cut_points(metric, values, edges, at[edge_level])
    pieces, signed, parent = _pieces(sims, sides, coeff[pick], edges, n, values, at, levels=(level, edge_level))
    face = pieces[:, 1] >= n
    slice_rows, slice_coeff, grown = pieces[face][:, 1:], signed[face], metric.grown(points)
    g_values = np.concatenate([g.values, _cut_values(g, grown, n, edges, t)])
    pairs = list(itertools.combinations(range(rows[0].shape[1]), 2))
    star_edges = distinct_rows(rows[0][:, pairs].reshape(-1, 2))
    star_side = values[star_edges] < at[:, None, None]
    star_level, e = np.nonzero(star_side[..., 0] != star_side[..., 1])
    star_t, _, star_points = _cut_points(metric, values, star_edges[e], at[star_level])
    star = _cut_values(g, metric.grown(star_points), n, star_edges[e], star_t)
    kept = _below_limit(vertex_rows(rows, values), at, whole=False)
    cuts, slices, stars = _offsets(edge_level, m), _offsets(level[parent[face]], m), _offsets(star_level, m)
    for l, i in enumerate(live):
        if not kept[l]:
            out[i] = ArgumentError("chain coefficients must sum below 2**62 in absolute value")
            continue
        a, b = slices[l], slices[l + 1]
        snap = np.concatenate([g.values, g_values[n + cuts[l] : n + cuts[l + 1]], star[stars[l] : stars[l + 1]]])
        out[i] = ((slice_rows[a:b], slice_coeff[a:b]), g_values, grown, snap)
    return out


def fill_value_of_boundary(B) -> float:
    """FillVol of the cycle B, the boundary of a slice: a PointCycle is
    filled by transport on its points, a chain of dimension >= 1 inside
    its complex."""
    if isinstance(B, PointCycle):
        return filling_volume_0d(B.space, np.abs(B.coeff), np.sign(B.coeff)).value if len(B.coeff) else 0.0
    if B.is_zero():
        return 0.0
    return filling_volume(B, B.complex).value


def h_min_distance(B: PointCycle, merge_tol: float) -> float:
    """Min pairwise distance between the distinct points of the 0-cycle B,
    the boundary of a slice, a point within merge_tol of an earlier kept
    one merging into it; 0 if fewer than two distinct points remain."""
    dist = B.space.dist.tolist()
    reps: list[int] = []
    for v, row in enumerate(dist):
        if all(row[w] > merge_tol for w in reps):
            reps.append(v)
    return min((dist[a][b] for a, b in itertools.combinations(reps, 2)), default=0.0)


def _point_box(dim, axes) -> bool:
    """Whether a cycle leaf's box of `axes` axes on a ball of dimension
    `dim` is a point box: with dim - 1 <= 2 axes its final slices have
    0-cycles for boundaries, all cut from d(ball) (`_point_axes`), so it
    reads the ball's level set alone and builds no complex of the ball."""
    return axes == dim - 1 <= 2


def _level_axes(ranges, grid):
    """`grid` equally spaced levels on each (lo, hi) range; the trapezoid
    rule needs at least two per axis."""
    if grid < 2:
        raise ArgumentError("grid must have at least 2 nodes per axis")
    return [np.linspace(lo, hi, grid) for lo, hi in ranges]


def _check_axis_count(count, dim, cycle):
    """A final slice of a `dim`-current by `count` functions has dimension
    dim - count; a cycle leaf reads its boundary, so it needs dimension >= 1."""
    most = dim - 1 if cycle else dim
    if count > most:
        raise ArgumentError(f"at most {most} slicing functions on a {dim}-current")


def _level_box(ctx: BallContext, leaf, grid, functions=None, witnesses=None, box=None, *, cycle):
    """The level-box quadrature behind every sliced quantity.

    The slicing functions are `functions` (PL functions on T's complex,
    carried onto the ball's, where their Lipschitz constants are taken)
    or the distance functions of the vertex ids in `witnesses`, at most
    dim - 1 of them for a `cycle` leaf and dim for a slice leaf
    (`_check_axis_count`).  Each axis has `grid` levels
    spanning the function's range over the closed ball, or the fixed
    interval `box`; `leaf` is evaluated on every iterated slice, or with
    `cycle` on its boundary (see `_tensor_eval`), and integrated by the
    trapezoid rule.  The integral divided by the product of Lipschitz
    constants is the report's mass lower bound, flagged when it exceeds
    the ball's mass by more than twice the Richardson estimate.
    """
    if witnesses is not None and functions is not None:
        raise ArgumentError("pass either functions or witnesses, not both")
    wit = tuple(witnesses) if witnesses is not None else ()
    points = cycle and _point_box(ctx.dim, len(wit) if functions is None else len(functions))
    if witnesses is not None:
        # on the complex of the cycle the leaves read, or of the slices
        K, n_t = (ctx.boundary if points else ctx.current).complex, ctx.T.complex.n_vertices
        bad = [w for w in wit if not 0 <= w < K.n_vertices]
        if bad:
            raise ArgumentError(
                f"witness {bad[0]} out of range: witness ids are T's {n_t} vertices, then the ball's"
                f" {K.n_vertices - n_t} cut points (its discrete sphere) numbered from {n_t}"
            )
        fns = [distance_function(K, w) for w in wit]
    else:
        fns = [ctx.transfer_function(f) for f in (functions or [])]
    _check_axis_count(len(fns), ctx.dim, cycle)
    grids = _level_axes([box or ctx.support_range(f) for f in fns], grid)
    if points:
        values, skipped = _point_axes(ctx.boundary, ctx.rows, fns, grids, leaf)
    else:
        values, skipped = _tensor_eval(ctx.current, fns, grids, leaf, cycle=cycle)
    integral = _tensor_trapezoid(values, grids)
    estimate = _richardson_estimate(values, grids)
    lips = [f.lip for f in fns]
    lam = math.prod(1.0 / L if L > 0 else 0.0 for L in lips)
    ball_m = ctx.ball_mass
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

    `functions` are PL functions on T's complex (one value per vertex, or
    ArgumentError), or `witnesses` are vertex ids of the ball's refined
    complex (T's vertices, then the ball's cut points in cut order: the
    discrete sphere) whose distance functions are used.  With neither, the
    witness is the sphere's first vertex (a one-candidate search);
    `witnesses=[]` is the box with no axes.  Each axis spans its
    function's range over the closed ball.  The integral divided by the
    product of Lipschitz constants, each taken over the ball's complex, is
    a lower bound for the ball's mass.  `context`, when given, must be
    `ball_context(T, p, r)`; it is read instead of building the ball again.
    """
    witnesses = None if witnesses is None else tuple(witnesses)
    if context is None:
        ctx = ball_context(T, p, r)
    elif context.T != T or (context.center, context.radius) != (p, r):
        other = "" if context.T == T else " of another chain"
        raise ArgumentError(
            f"context must be the ball about {p} of radius {r}, not about {context.center}"
            f" of radius {context.radius}{other}"
        )
    else:
        ctx = context
    if functions is None and witnesses is None:
        return _witness_search(ctx, 1, 1, fill_value_of_boundary, grid)
    return _level_box(ctx, fill_value_of_boundary, grid, functions, witnesses, cycle=True)


def sliced_interval_fill(
    T: SimplicialCurrent,
    p: int,
    r: float,
    witnesses=None,
    functions=None,
    epsilon: float = 0.1,
    grid: int = 8,
):
    """Interval-filling variant of the sliced filling of a ball.

    Per level tuple the slice is crossed with an interval of length eps and
    the boundary of the product is filled; the level box integrates that
    filling volume over eps, so the product over Lipschitz constants again
    bounds the ball's mass from below.  Up to dim(T) slicing functions are
    allowed since the product raises the dimension by one.

    The filling of each leaf is the prism itself (see
    `product.interval_filling_volume`), so every leaf value is
    eps * M(slice) / eps, the slice's mass, and the result is the coarea
    integral of slice masses divided by the Lipschitz constants: a coarea
    mass bound, not an independent filling bound.
    """
    if not epsilon > 0:
        raise ArgumentError("interval length must be positive")

    def leaf(current):
        return interval_filling_volume(current, epsilon).value / epsilon

    return _level_box(ball_context(T, p, r), leaf, grid, functions, witnesses, cycle=False)


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
        step = max(1, n // budget)
        tuples = [(sphere[i],) for i in range(0, n, step)][:budget]
    else:
        # spread each tuple over positions in the sphere's cut-id order (not
        # angles): k vertices n // frac positions apart, from 4 starting ones
        for start in range(min(4, n)):
            for frac in (3, 4, 6):
                idx = [(start + j * n // frac) % n for j in range(k)]
                if len(set(idx)) == k:
                    tuples.append(tuple(sphere[i] for i in idx))
        tuples = list(dict.fromkeys(tuples))[:budget]  # distinct, in order
    return tuples or [tuple(sphere[:k])]


EMPTY_SPHERE = "discrete sphere is empty"


def _witness_search(ctx: BallContext, k, candidates, leaf, grid, box=None) -> SlicedFillReport:
    """The level-box report of the first witness tuple with the largest
    integral, over the k-tuples `_witness_tuples` draws from the discrete
    sphere; `leaf` reads the cycle of each final slice.  An empty sphere
    has no witness: its report is zero over the fixed box, or over no axes
    when the box would follow the witnesses.  A k beyond the level box's
    axes, or fewer than one candidate, is an input error either way."""
    _check_axis_count(k, ctx.dim, cycle=True)
    if candidates < 1:
        raise ArgumentError(f"need at least one candidate witness tuple, got {candidates}")
    sphere = ctx.sphere_vertices()
    if k > 0 and not sphere:
        grids = _level_axes([box] * k if box else [], grid)
        report = SlicedFillReport(
            center=ctx.center, radius=ctx.radius, grid_axes=grids,
            values=np.zeros(tuple(len(g) for g in grids) or (1,)), integral=0.0,
            lipschitz=[1.0] * k, mass_lower_bound=0.0, ball_mass=ctx.ball_mass,
        )
        report.warnings.append(EMPTY_SPHERE)
        return report
    best = None
    for wit in _witness_tuples(sphere, k, candidates):
        report = _level_box(ctx, leaf, grid, witnesses=wit, box=box, cycle=True)
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
):
    """Best sliced filling over witness tuples on the discrete sphere.

    Searches deterministically within an evaluation budget; the returned
    value is a certified lower bound for the supremum.  Returns the report
    of the best tuple found; its witness ids are cut points of the ball,
    numbered from T's vertex count on (see `sliced_fill`).
    """
    if k < 0:
        raise ArgumentError("need k >= 0 witnesses")
    return _witness_search(ball_context(T, p, r), k, candidates, fill_value_of_boundary, grid)


def tetra_check(
    T: SimplicialCurrent,
    p: int,
    r: float,
    C: float,
    beta: float,
    samples: int = 5,
    candidates: int = 6,
) -> TetraReport:
    """Pointwise and integral tetrahedral checks over the level band.

    Witness tuples are searched to maximize the band integral of h; the
    pointwise flag needs h >= C r at every sampled node, the integral flag
    needs the band integral to reach C (2 beta)^(m-1) r^m (an ArgumentError,
    checked first, when that bound overflows a float).
    """
    if not C > 0 or not (0 < beta < 1):
        raise ArgumentError("need C > 0 and beta in (0, 1)")
    m = T.dim
    try:
        required = C * (2 * beta) ** (m - 1) * r**m
    except OverflowError:
        required = math.inf
    if required == math.inf:
        raise ArgumentError(f"the tetra volume bound C (2 beta)^(m-1) r^m overflows a float at C = {C}, r = {r}")
    merge_tol = POINT_MERGE_REL * r
    best = _witness_search(
        ball_context(T, p, r), m - 1, candidates, lambda B: h_min_distance(B, merge_tol), samples,
        box=((1 - beta) * r, (1 + beta) * r),
    )
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

