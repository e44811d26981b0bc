"""Level-set subdivision and the slice operator on simplicial currents.

Slicing a current by a PL function at a level s is computed through the
boundary-difference formula on a refined complex in which {f <= s} is an
exact subcomplex, so the anticommutation identity between boundary and slice
holds as an integer chain identity by construction.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    UNKNOWN_VOLUME,
    ComplexError,
    GeometricComplex,
    PLFunction,
    distance_function,
    face_closure,
    facet_lookup,
    level_row_keys,
    lookup_keys,
    row_keys,
    simplex_volumes,
)
from .currents import SimplicialCurrent, mass
from .metricspace import ArgumentError, FiniteMetricSpace, InvariantError, abs_sum_below_limit

SNAP_REL = 1e-7


@dataclass(eq=False)
class ChildTable:
    """Signed transfer table of one dimension in CSR form: old simplex i has
    the children child[ptr[i]:ptr[i+1]] with orientations sign[ptr[i]:ptr[i+1]]."""

    ptr: np.ndarray
    child: np.ndarray
    sign: np.ndarray

    def transfer(self, idx, coeff):
        """The children of the old simplices `idx` with coefficients `coeff`,
        as (child, coefficient) arrays sorted by child."""
        start = self.ptr[idx]
        counts = self.ptr[idx + 1] - start
        # slot of every child entry of the simplices, in one gather
        pos = np.repeat(start - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        child, coeff = self.child[pos], np.repeat(coeff, counts) * self.sign[pos]
        order = np.argsort(child, kind="stable")  # children of distinct parents are distinct
        return child[order], coeff[order]


@dataclass
class Refinement:
    """Result of splitting a complex along a PL level set; `children` maps
    each dimension to its ChildTable and `values` is the cutting function on
    the refined vertices, exactly `level` at the cut points.  Cut point
    n_old_vertices + i lies on the crossing edge `cut_edges[i]` = (u, v) at
    parameter `cut_t[i]` from u.  Every piece of a split simplex is kept, so
    `dropped` is always 0."""

    complex: GeometricComplex
    level: float
    values: np.ndarray
    snapped: bool
    children: dict[int, ChildTable]
    cut_edges: np.ndarray
    cut_t: np.ndarray
    n_old_vertices: int
    dropped: int = 0
    warnings: list = field(default_factory=list)

    def transfer_current(self, T: SimplicialCurrent) -> SimplicialCurrent:
        return SimplicialCurrent.from_arrays(self.complex, T.dim, *self.children[T.dim].transfer(T.idx, T.coeff))

    def below(self, k) -> np.ndarray:
        """Mask of the refined k-simplices in {f < level}: no refined simplex
        has vertices on both sides, and cells of cut points alone lie on the
        level."""
        return (self.values < self.level)[self.complex.simplex_array(k)].any(axis=1)

    def transfer_function(self, f: PLFunction) -> PLFunction:
        cut_vals = _cut_values(f, self.complex.metric, self.n_old_vertices, self.cut_edges, self.cut_t)
        return PLFunction(self.complex, np.concatenate([f.values, cut_vals]), source=f.source)


def _cut_values(f: PLFunction, metric, n_old, edges, t):
    """f at the cut points n_old, n_old + 1, ... of `metric` on `edges` at
    parameters `t`: a distance function's exact distance, else the interpolant."""
    if f.source is not None and f.source[0] == "dist":
        return metric.dist(f.source[1], np.arange(n_old, n_old + len(edges)))
    u, v = edges.T
    return (1.0 - t) * f.values[u] + t * f.values[v]


def _cut_points(metric, values, edges, at):
    """The cut points of `edges` at their levels `at`: each one's parameter
    t from the edge's first vertex (computed from its end below the level),
    whether that vertex is below, and the interpolated points."""
    u_below = values[edges[:, 0]] < at
    lo = np.where(u_below, edges[:, 0], edges[:, 1])
    hi = np.where(u_below, edges[:, 1], edges[:, 0])
    t = (at - values[lo]) / (values[hi] - values[lo])
    t_edge = np.where(u_below, t, 1.0 - t)
    return t_edge, u_below, metric.interpolate(edges, np.stack([1.0 - t_edge, t_edge], axis=1))


@dataclass
class SliceResult:
    current: SimplicialCurrent
    refinement: Refinement
    warnings: list = field(default_factory=list)

    @property
    def complex(self):
        return self.current.complex


def snap_level(values, s):
    """Move s off vertex values; returns (level, snapped?, warning or None).

    Vertex values within 2*tol of each other are treated as one cluster and
    the level is pushed just past the cluster, towards the interior of the
    value range when the cluster contains an extreme value; tol is SNAP_REL
    times the value range (times 1 when the range is 0).  A level inside a
    cluster's window lies within tol of one of its values, so when no value
    is within 2*tol of s the level is returned as it is, without sorting
    the values.  A NaN or infinite s raises ArgumentError.
    """
    if not math.isfinite(s):
        raise ArgumentError(f"cutting level must be finite, got {s}")
    values = np.asarray(values, dtype=float)
    if not len(values):
        return float(s), False, None
    rng = float(values.max() - values.min())
    tol = SNAP_REL * (rng if rng > 0 else 1.0)
    if not (np.abs(values - s) < 2 * tol).any():
        return float(s), False, None
    uniq = np.unique(values)
    # cluster j spans uniq[starts[j]] .. uniq[ends[j]]; the windows
    # (lo - tol, hi + tol) are disjoint, and only the clusters of the two
    # values around s can hold it
    breaks = np.flatnonzero(np.diff(uniq) > 2 * tol)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(uniq) - 1]])
    near = int(np.searchsorted(uniq, s))
    for j in np.searchsorted(ends, [max(near - 1, 0), min(near, len(uniq) - 1)]).tolist():
        clo, chi = float(uniq[starts[j]]), float(uniq[ends[j]])
        if clo - tol < s < chi + tol:
            up, down = chi + tol, clo - tol
            if clo <= uniq[0]:
                moved = up
            elif chi >= uniq[-1]:
                moved = down
            elif s - down <= up - s:
                moved = down
            else:
                moved = up
            return float(moved), True, f"level {s} snapped to {moved} (vertex-value collision)"
    return float(s), False, None


def _split_pieces(simplex, below_mask, cut):
    """Children (as unsorted vertex tuples) of a crossing simplex, by the
    pulling triangulation of each side in increasing id order (De Loera,
    Rambau and Santos, *Triangulations*, 2010).

    `cut[(u, v)]` is the id of the point where the level crosses edge {u,v}.
    A cell (P, Q, side), P the vertices of one side and Q of the other, is
    the convex hull of the cut points of P x Q, plus P when `side`: the side
    of the face P + Q, or else its cut face Delta_P x Delta_Q.  Its smallest
    vertex is coned over the pulled facets that miss it; the rule restricts
    to faces, so shared faces split alike.  Returns (below_children,
    above_children).
    """
    below = tuple(v for v, b in zip(simplex, below_mask) if b)
    above = tuple(v for v, b in zip(simplex, below_mask) if not b)

    def vertices(P, Q, side):
        return (P if side else ()) + tuple(cut[(p, q) if p < q else (q, p)] for p in P for q in Q)

    def pull(P, Q, side):
        verts = vertices(P, Q, side)
        if len(verts) == len(P) + len(Q) - (not side):  # dim + 1 vertices
            return [verts]
        apex = min(verts)
        # facets: drop one vertex of P or of Q, and a side's cut face
        facets = [(P[:i] + P[i + 1 :], Q, side) for i in range(len(P)) if len(P) > 1]
        facets += [(P, Q[:i] + Q[i + 1 :], side) for i in range(len(Q)) if side or len(Q) > 1]
        facets += [(P, Q, False)] if side else []
        return [(apex,) + piece for F in facets if apex not in vertices(*F) for piece in pull(*F)]

    return pull(below, above, True), pull(above, below, True)


_AFTER_EVERY_ID = np.iinfo(np.intp).max


@functools.cache
def _template(k, pattern, perm):
    """The cells a crossing k-simplex is split into, as sorted rows of column
    indices into [its k+1 sorted vertices, the cut points of its edges in
    lexicographic edge order]: entry j lists the j-cells inside the simplex
    (those no proper face contains), for j = k its pieces in `_split_pieces`
    order.  `pattern` holds each vertex's below flag and `perm` the
    positions of its crossing edges in increasing cut-id order.  Also
    returns each piece's orientation in the simplex, +1 or -1.

    Every choice `_split_pieces` makes depends only on the order of the ids,
    and cut ids exceed all vertex ids, so all simplices with the same
    (pattern, perm) follow one template, built on first use from the local
    simplex (0..k) and cached.  No piece degenerates at a level strictly
    inside the simplex, so its orientation is the sign of its barycentric
    determinant at the midpoint cut (t = 1/2 on every crossing edge).
    """
    edges = list(itertools.combinations(range(k + 1), 2))
    # local ids: vertex j is j, the cut point of rank r is k + 1 + r
    cut = {edges[e]: k + 1 + r for r, e in enumerate(perm)}
    spans = {**{v: {v} for v in range(k + 1)}, **{c: set(e) for e, c in cut.items()}}
    column = list(range(k + 1)) + [k + 1 + e for e in perm]
    lo, hi = _split_pieces(tuple(range(k + 1)), list(pattern), cut)
    pieces = [tuple(sorted(p)) for p in lo + hi]
    # a face of a piece lies inside the simplex when its vertices and its
    # cut points' edges span all k + 1 vertices
    faces = {f for p in pieces for j in range(1, k + 1) for f in itertools.combinations(p, j)}
    inside = sorted(f for f in faces if len(set().union(*map(spans.get, f))) == k + 1)
    cells = [[f for f in inside if len(f) == j + 1] for j in range(k)] + [pieces]
    # barycentric coordinates of the pieces' vertices at the midpoint cut
    dets = np.linalg.det([[np.isin(range(k + 1), list(spans[v])) / len(spans[v]) for v in p] for p in pieces])
    if abs(np.abs(dets).sum() - 1.0) > 1e-9:
        raise InvariantError(f"split template {k, pattern, perm} covers volume {np.abs(dets).sum()} (expected 1)")
    arrays = [
        np.array([[column[v] for v in c] for c in cs], dtype=np.intp).reshape(-1, j + 1) for j, cs in enumerate(cells)
    ]
    return arrays, np.where(dets > 0, 1, -1)


@functools.lru_cache(maxsize=4096)
def _split_tables(k, patterns):
    """The templates of the distinct rows of `patterns` (the bytes of an
    intp array, one row per template: the k+1 below flags, then the edges'
    positions in increasing cut-id order, crossing edges first), padded to
    a common length: per dimension j a (templates, cells, j+1) table and
    each template's cell count, and the pieces' signs (templates, pieces).
    Cached by the whole tuple of templates, so a split is one gather."""
    k_edges = k * (k + 1) // 2
    templates = []
    for row in np.frombuffer(patterns, dtype=np.intp).reshape(-1, k + 1 + k_edges).tolist():
        pattern = tuple(map(bool, row[: k + 1]))
        crossing = sum(pattern[u] != pattern[v] for u, v in itertools.combinations(range(k + 1), 2))
        templates.append(_template(k, pattern, tuple(row[k + 1 : k + 1 + crossing])))
    tables, counts = [], []
    for d in range(k + 1):
        counts.append(np.array([len(cells[d]) for cells, _ in templates], dtype=np.intp))
        tables.append(np.zeros((len(templates), counts[d].max(initial=0), d + 1), dtype=np.intp))
        for g, (cells, _) in enumerate(templates):
            tables[d][g, : counts[d][g]] = cells[d]
    signs = np.zeros(tables[k].shape[:2], dtype=np.int64)
    for g, (_, sign) in enumerate(templates):
        signs[g, : counts[k][g]] = sign
    for array in (*tables, *counts, signs):  # shared by every split that meets these templates
        array.setflags(write=False)
    return tables, counts, signs


def _offsets(level, m):
    """Where each of m levels starts among level-sorted rows, then their end."""
    return np.searchsorted(level, np.arange(m + 1))


def _split(sims, side, edges, first_cut, levels=None):
    """The cells of the crossing k-simplices `sims` (rows in canonical order,
    `side` their vertices' below flags) given the crossing `edges`: the cut
    point of edges[g] is first_cut + g.  With `levels` = (each simplex's
    level, each edge's level, the level count m), levels in 0..m-1, a
    simplex's edges are found among the crossing edges of its own level.

    Returns, for j = 0..k, the j-cells inside the simplices as sorted id
    rows (for j = k the pieces, each parent's together and in
    `_split_pieces` order) and a mask whose true entries, in row order,
    are the cells' slots (parent, template cell), and the pieces'
    orientations.
    """
    k = sims.shape[1] - 1
    if not len(sims):
        cells = [np.empty((0, d + 1), dtype=np.intp) for d in range(k + 1)]
        return cells, [np.empty((0, 0), dtype=bool)] * (k + 1), np.empty(0, dtype=np.int64)
    pairs = np.array(list(itertools.combinations(range(k + 1), 2)), dtype=np.intp)
    crosses = side[:, pairs[:, 0]] != side[:, pairs[:, 1]]
    # cut id of every crossing edge of every parent, found among the crossing
    # edges (of its level); the other edges hold a placeholder that sorts
    # after every id
    level, edge_level, m = levels or (None, None, 1)
    at = None if level is None else np.repeat(level, crosses.sum(axis=1))
    hit = lookup_keys(*level_row_keys(m, (edge_level, edges), (at, sims[:, pairs][crosses])))
    if (hit < 0).any():
        raise ComplexError("a crossing simplex has an edge missing from the complex")
    cuts = np.full(crosses.shape, _AFTER_EVERY_ID)
    cuts[crosses] = hit + first_cut
    cols = np.concatenate([sims, cuts], axis=1)
    patterns = np.concatenate([side, np.argsort(cuts, axis=1, kind="stable")], axis=1)
    firsts, group = np.unique(row_keys(patterns)[0], return_index=True, return_inverse=True)[1:]
    tables, counts, signs = _split_tables(k, patterns[firsts].tobytes())
    # per dimension, one gather through the padded template tables, then
    # the padding rows dropped: each parent's cells stay together and in
    # template order
    cells, slots = [], []
    for d in range(k + 1):
        rows = cols[np.arange(len(cols))[:, None, None], tables[d][group]]
        slots.append(np.arange(tables[d].shape[1]) < counts[d][group][:, None])
        cells.append(rows[slots[d]])
    return cells, slots, signs[group][slots[k]]


def _crossing_edges(sims, side, level=None, m=1):
    """The distinct edges of the simplices `sims` (their vertices' below
    flags `side`) with one end on each side, in lexicographic order: on a
    complex whose rows are in that order, a cut numbers its cut points in
    this order.  With `level` (each simplex's level in 0..m-1) they are
    taken per level, sorted by level first, and returned with their levels."""
    pairs = np.array(list(itertools.combinations(range(sims.shape[1]), 2)), dtype=np.intp).reshape(-1, 2)
    crosses = side[:, pairs[:, 0]] != side[:, pairs[:, 1]]
    edges, at = sims[:, pairs][crosses], None if level is None else np.repeat(level, crosses.sum(axis=1))
    first = np.unique(level_row_keys(m, (at, edges))[0], return_index=True)[1]
    return edges[first] if level is None else (edges[first], at[first])


def _pieces(rows, side, coeff, edges, n, values, s, below=True, levels=None):
    """The pieces below the level s (above it, when not `below`) of the
    crossing simplices `rows` (their vertices' below flags `side`,
    coefficients `coeff`) as the cut splits them (`_split`, the cut's
    templates; the cut point of edges[g] is n + g): their vertex-id rows,
    coefficients (the parent's times the piece's orientation in it) and
    parents' positions in `rows`.  With `levels`, (each row's level, each
    edge's level) as indices into the array s, each row is cut at its own."""
    cells, slots, signs = _split(rows, side, edges, n, None if levels is None else (*levels, len(s)))
    parent = np.nonzero(slots[-1])[0]
    pieces, signed, old = cells[-1], coeff[parent] * signs, cells[-1] < n
    at = s if levels is None else s[levels[0][parent]][:, None]
    keep = (old & (values[np.where(old, pieces, 0)] < at)).any(axis=1) == below
    return pieces[keep], signed[keep], parent[keep]


def _vertex_values(n, values) -> np.ndarray:
    """`values` as a float array, or ArgumentError unless it has one entry
    per vertex of a complex of n vertices (a function on another mesh)."""
    values = np.asarray(values, dtype=float)
    if len(values) != n:
        raise ArgumentError(f"the function has {len(values)} vertex values, but the complex has {n} vertices")
    return values


def subdivide_at_level(C: GeometricComplex, values, s) -> Refinement:
    """Split every simplex crossing {f = s} so {f <= s} becomes a subcomplex.

    Per-simplex volume is preserved by construction (children partition their
    parent); shared faces of neighbouring simplices are split identically via
    canonical global-id rules.  Only crossing simplices are visited, each
    split by its (pattern, perm) template: the refined complex, built from
    id arrays, holds the untouched simplices plus the cells inside crossing
    simplices (those through a cut point), which relies on C being closed
    under faces.  Like a base complex, it looks its face index up on the
    first `face_index` of each dimension and computes volumes on the first
    `masses`, but only those of its new rows: an untouched row takes the
    volume C has cached for it when the refinement is built (the grown
    metric keeps every old distance, so it is the same number).  A
    dimension nobody reads costs nothing, and the refined complex holds no
    reference to C.  This is the one cut of the library: `slice_levels`
    makes one per level.
    """
    values = _vertex_values(C.n_vertices, values)
    level, snapped, warning = snap_level(values, s)
    metric, n_old = C.metric, C.n_vertices
    rows = {k: C.simplex_array(k) for k in C.dims}
    crossing, sides = {}, {}
    for k in C.dims:
        side = values[rows[k]] < level
        crossing[k] = np.flatnonzero(side.any(axis=1) & ~side.all(axis=1))
        sides[k] = side[crossing[k]]

    # one cut point per crossing edge, numbered in edge order
    edges = rows[1][crossing[1]] if 1 in rows else np.empty((0, 2), dtype=np.intp)
    t_edge, _, points = _cut_points(metric, values, edges, level)

    # the new simplices of a dimension are the cells inside crossing simplices
    # of that dimension or above (each has one carrier), pieces first
    cells, slots, signs = {}, {}, {}
    for k in C.dims:
        cells[k], slots[k], signs[k] = _split(rows[k][crossing[k]], sides[k], edges, n_old)

    # merged, sorted arrays: every new simplex contains a cut point, so all
    # rows differ; the untouched rows keep their sorted order, one run that
    # the stable key sort takes in linear time.  Transfer tables: an
    # untouched simplex is its own child, a split one has all its pieces
    # with their template orientations; the stable sort by parent keeps each
    # parent's pieces in piece order.  When C has cached volumes, an
    # untouched row keeps its own (the grown metric keeps every old distance)
    arrays, children, volumes = {}, {}, {}
    for d in C.dims:
        untouched = np.ones(len(rows[d]), dtype=bool)
        untouched[crossing[d]] = False
        untouched = np.flatnonzero(untouched)
        merged = np.concatenate([rows[d][untouched]] + [cells[k][d] for k in C.dims if k >= d])
        order = np.argsort(row_keys(merged)[0], kind="stable")
        position = np.empty(len(order), dtype=np.intp)
        position[order] = np.arange(len(order))
        arrays[d] = merged[order]
        cached = C.cached_volumes(d)
        if cached is not None:
            volumes[d] = np.full(len(merged), UNKNOWN_VOLUME)
            volumes[d][position[: len(untouched)]] = cached[untouched]
        parent = np.concatenate([untouched, crossing[d][np.nonzero(slots[d][d])[0]]])
        by_parent = np.argsort(parent, kind="stable")
        children[d] = ChildTable(
            np.searchsorted(parent[by_parent], np.arange(len(rows[d]) + 1)),
            position[: len(parent)][by_parent],
            np.concatenate([np.ones(len(untouched), dtype=np.int64), signs[d]])[by_parent],
        )
    return Refinement(
        complex=GeometricComplex(metric.grown(points), arrays, volumes),
        level=level,
        values=np.concatenate([values, np.full(len(edges), level)]),
        snapped=snapped,
        children=children,
        cut_edges=edges,
        cut_t=t_edge,
        n_old_vertices=n_old,
        warnings=[warning] if warning else [],
    )


def support_closure(T: SimplicialCurrent) -> SimplicialCurrent:
    """The same current re-rooted on the face closure of its support.

    Vertex ids and the metric are shared with the parent complex, so vertex
    functions and distance rows stay valid; only the simplex lists shrink,
    which keeps later subdivisions proportional to the support size.  The
    closure is `complexes.face_closure` of the support's rows, each
    dimension an id array in lexicographic vertex order.  It takes the
    top-dimension volumes the parent has cached for its rows when it is
    built; like every complex, it looks its face index up and computes its
    other volumes when read.  A zero k-chain's closure is empty in
    dimensions 0..k.
    """
    C = T.complex
    top = C.simplex_array(T.dim)[T.idx]
    order = np.argsort(row_keys(top)[0], kind="stable")
    cached = C.cached_volumes(T.dim)
    volumes = None if cached is None else {T.dim: cached[T.idx[order]]}
    C2 = GeometricComplex(C.metric, face_closure(top[order]), volumes)
    return SimplicialCurrent.from_arrays(C2, T.dim, np.arange(len(order)), T.coeff[order])


def restrict_sublevel(T: SimplicialCurrent, f: PLFunction, s) -> SimplicialCurrent:
    """Exact restriction of T to {f < level} on the refinement at s, where
    level is s snapped off the vertex values."""
    ref = subdivide_at_level(T.complex, f.values, s)
    return ref.transfer_current(T).restricted(ref.below(T.dim))


def _snap_or_error(values, s):
    """`snap_level(values, s)`, or the ArgumentError it raises."""
    try:
        return snap_level(values, s)
    except ArgumentError as exc:
        return exc


def vertex_rows(rows, values):
    """A chain's `rows` (vertex-id rows, coefficients) as the rows of their
    vertices' `values`: the form a skip rule reads a prefix in (`limit_of`)."""
    return values[rows[0]], rows[1]


def _below_limit(limit_of, at, whole) -> list:
    """Per snapped level of `at`, whether the chain `limit_of` (its
    simplices' vertex values and coefficients, as `vertex_rows` gives them)
    has |coefficients| summing below 2**62 on the refinement that cuts it
    there, without the cut: a k-simplex with j of its k + 1 vertices below
    splits into C(k + 1, j) pieces (as every triangulation of the two
    products of simplices its sides are), each carrying +-its coefficient.
    The refinement is that of the chain's crossing star, or with `whole`
    of its whole complex, where every other simplex is its own piece."""
    rows, coeff = limit_of
    k = rows.shape[1] - 1
    pieces = np.array([int(whole)] + [math.comb(k + 1, j) for j in range(1, k + 1)] + [int(whole)])
    below = (rows < at[:, None, None]).sum(axis=2)
    return [abs_sum_below_limit(np.repeat(coeff, count)) for count in pieces[below]]


def _slices(T: SimplicialCurrent, f: PLFunction, levels, star, limit_of=None) -> list:
    """The slices of T by f at each of `levels`, one cut per level: entry i
    is the SliceResult at levels[i] or the ArgumentError that level raises.

    With `star`, level s cuts only the support closure of T's simplices
    that cross it (s snapped on f's values), as `slice_current` on that
    closure does; otherwise it cuts T's whole complex, as
    `slice_current(T, f, s)` does.  Each cut is a `subdivide_at_level`, so
    a tracer of it sees every cut.  An f of another vertex count raises
    ArgumentError.  A slice is local: a simplex wholly below the level adds
    d(sigma) - d(sigma) = 0 to d(T below) - (dT) below, and one wholly
    above is in neither term.  A level is skipped when T on its refinement
    has |coefficients| summing to 2**62 or more, or with `limit_of` (a
    chain as `vertex_rows` gives it, on f's values) when that chain does on
    the refinement that cuts it at the level, of its crossing star or,
    without `star`, of its whole complex (`_below_limit`).
    Each slice is the boundary of the sublevel restriction minus the
    restriction of the boundary, in one scatter over the refined rows: per
    face, each coface adds its coefficient times ([coface below] - [face
    below]).
    """
    values = _vertex_values(T.complex.n_vertices, f.values)
    if T.dim < 1:
        return [ArgumentError("slicing needs a current of dimension >= 1") for _ in levels]
    out = [_snap_or_error(values, s) for s in levels]
    live = [i for i, snap in enumerate(out) if not isinstance(snap, ArgumentError)]
    k, C = T.dim, T.complex
    at = np.array([out[i][0] for i in live])
    kept = None if limit_of is None else _below_limit(limit_of, at, whole=not star)
    top_values = values[C.simplex_array(k)[T.idx]]
    for l, i in enumerate(live):
        S = T
        if star:
            side = top_values < at[l]
            crossing = side.any(axis=1) & ~side.all(axis=1)
            S = support_closure(SimplicialCurrent.from_arrays(C, k, T.idx[crossing], T.coeff[crossing]))
        ref = subdivide_at_level(S.complex, values, levels[i])
        child, coeff = ref.children[k].transfer(S.idx, S.coeff)
        if not (abs_sum_below_limit(coeff) if kept is None else kept[l]):  # no chain on the refinement
            out[i] = ArgumentError("chain coefficients must sum below 2**62 in absolute value")
            continue

        # refined vertex values: a cut point sits at the level
        facets, cofaces = ref.complex.simplex_array(k - 1), ref.complex.simplex_array(k)
        ids = cofaces[child]
        old = ids < C.n_vertices
        refined = np.where(old, values[np.where(old, ids, 0)], at[l])
        below = refined < at[l]
        face_below = below.sum(axis=1)[:, None] - below > 0  # the facet opposite vertex j
        face = facet_lookup(facets, cofaces)[child]
        signed = coeff[:, None] * np.where(np.arange(k + 1) % 2, -1, 1)
        # a facet is below only when its coface is: a coface below adds its
        # signed coefficient to its facets off the sublevel set, and nothing
        # else survives the difference.  That is at most one facet (the one
        # opposite its only vertex below), so a face's sum is bounded by T's
        # total |coefficient| on the refinement, which a kept level holds
        # below 2**62: no int64 sum there can wrap
        sliced = np.zeros(len(facets), dtype=np.int64)
        np.add.at(sliced, face, signed * (below.any(axis=1)[:, None] & ~face_below))
        nz = np.flatnonzero(sliced)
        try:
            current = SimplicialCurrent.from_arrays(ref.complex, k - 1, nz, sliced[nz])
        except ArgumentError as exc:
            out[i] = exc
            continue
        warnings = list(ref.warnings)
        flat = (refined == float(levels[i])).all(axis=1)
        if flat.any():  # a generic level reads no volume
            flat_mass = float(np.abs(coeff[flat]) @ ref.complex.masses(k)[child[flat]])
            if flat_mass > 0:
                warnings.append(f"non-generic level: function is flat at the level on mass {flat_mass}")
        out[i] = SliceResult(current=current, refinement=ref, warnings=warnings)
    return out


def slice_levels(T: SimplicialCurrent, f: PLFunction, levels) -> list:
    """The slices of T by f at all of `levels`, one `subdivide_at_level`
    cut per level.

    Entry i is what `slice_current` gives at s = levels[i] on the support
    closure of T's simplices crossing s, field for field, or the
    ArgumentError it raises there: each level cuts only the closure of T's
    star crossing it, and numbers its cut points from T's vertex count in
    its own edge order.
    """
    return _slices(T, f, levels, star=True)


def _point_space(metric, ids) -> FiniteMetricSpace:
    """The points `ids` of a metric as a finite metric space: one `dist` row each."""
    return FiniteMetricSpace([metric.dist(i, ids) for i in ids] if len(ids) else np.zeros((0, 0)), validate=False)


@dataclass
class PointCycle:
    """A 0-cycle as a cycle leaf reads it: the finite metric space of its
    support points, in vertex-id order, and their coefficients."""

    space: FiniteMetricSpace
    coeff: np.ndarray

    @classmethod
    def from_chain(cls, B: SimplicialCurrent) -> "PointCycle":
        return cls(_point_space(B.complex.metric, B.complex.simplex_array(0)[B.idx, 0]), B.coeff)


def point_slices(chain, values, metric, levels, snap_values=None, limit_of=None) -> list:
    """The slices of the 1-chain `chain` (edge rows, coefficients) on the
    vertices of `metric` by the PL function of vertex `values` (one per
    vertex, or ArgumentError) at each of `levels` as points, with no cut:
    entry i is the PointCycle of the 0-chain `slice_levels` gives at
    levels[i], bit for bit, or the ArgumentError it raises.

    The levels snap on `snap_values` (the values by default).  A crossing
    edge [u, v] with coefficient c puts +c on its cut point when u is below
    and -c when v is; a level's cut points are its crossing edges in
    lexicographic (cut-id) order, placed as `subdivide_at_level` places
    them (`_cut_points`), and one `grown` metric holds those of every
    level.  A level is skipped by the rule of the chain `limit_of` (as
    `vertex_rows` gives it; the chain by default, whose two pieces per
    crossing edge a cut would sum) on its crossing star (`_below_limit`).
    """
    values = _vertex_values(metric.n, values)
    out = [_snap_or_error(values if snap_values is None else snap_values, s) for s in levels]
    live = [i for i, snap in enumerate(out) if not isinstance(snap, ArgumentError)]
    if not live:
        return out
    m, (edges, chain_coeff) = len(live), chain
    at = np.array([out[i][0] for i in live])
    side = values[edges] < at[:, None, None]
    level, e = np.nonzero(side[..., 0] != side[..., 1])
    order = np.argsort(level_row_keys(m, (level, edges[e]))[0], kind="stable")
    level, e = level[order], e[order]
    _, u_below, points = _cut_points(metric, values, edges[e], at[level])
    coeff = np.where(u_below, chain_coeff[e], -chain_coeff[e])
    grown, starts = metric.grown(points), _offsets(level, m)
    kept = _below_limit(vertex_rows(chain, values) if limit_of is None else limit_of, at, whole=False)
    for l, i in enumerate(live):
        a, b = starts[l], starts[l + 1]
        if not kept[l]:
            out[i] = ArgumentError("chain coefficients must sum below 2**62 in absolute value")
            continue
        out[i] = PointCycle(_point_space(grown, np.arange(metric.n + a, metric.n + b)), coeff[a:b])
    return out


def slice_current(T: SimplicialCurrent, f: PLFunction, s) -> SliceResult:
    """The slice of T by f at level s: boundary of the sublevel restriction
    minus the restriction of the boundary, on `subdivide_at_level`'s
    refinement of T's whole complex."""
    (result,) = _slices(T, f, [s], star=False)
    if isinstance(result, ArgumentError):
        raise result
    return result


def coarea_profile(T: SimplicialCurrent, f: PLFunction, samples: int):
    """Trapezoid quadrature of level -> slice mass against the Lipschitz bound.

    Each level is cut by `slice_levels` on the crossing star of T, which
    has T's slice.  Returns (integral, bound) with bound =
    Lip(f) * mass(T).
    """
    if samples < 2:
        raise ArgumentError("coarea needs at least 2 samples")
    lo, hi = f.range()
    bound = f.lip * mass(T)
    if hi <= lo:
        return 0.0, bound
    grid = np.linspace(lo, hi, samples)
    masses = []
    for result in slice_levels(T, f, grid):
        if isinstance(result, ArgumentError):
            raise result
        masses.append(mass(result.current))
    integral = float(np.trapezoid(masses, grid))
    return integral, bound


def ball(T: SimplicialCurrent, p: int, r: float) -> SimplicialCurrent:
    """Subdivided restriction of T to the open metric ball around vertex p."""
    if not r > 0:
        raise ArgumentError("ball radius must be positive")
    return restrict_sublevel(T, distance_function(T.complex, p), r)


def sphere(T: SimplicialCurrent, p: int, r: float) -> SliceResult:
    """Slice of T by the distance function from p at radius r."""
    if not r > 0:
        raise ArgumentError("sphere radius must be positive")
    return slice_current(T, distance_function(T.complex, p), r)


def annulus_mass(T: SimplicialCurrent, f: PLFunction, a: float, b: float) -> float:
    """Mass of T restricted to {a < f < b}, read off two level passes over
    T's rows with no cut: the rows wholly above a and the pieces above a
    of the rows crossing it, then of those the rows wholly below b and the
    pieces below b.  Each pass numbers its cut points over the crossing
    edges it meets, in the cut's order, and b snaps on f's values plus a
    when an edge of T's complex crosses a, so the rows, their `row_keys`
    order and the sum are bit for bit those of cutting the whole complex
    at a and that cut at b (T's rows take its complex's volumes, the
    pieces theirs on the twice-grown metric), and so is each cut's 2**62
    rule (`_below_limit`)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ArgumentError(f"annulus bounds must be finite, got {a}, {b}")
    C, k = T.complex, T.dim
    values = _vertex_values(C.n_vertices, f.values)
    if b <= a or T.is_zero():
        return 0.0
    a = snap_level(values, a)[0]
    side = values[C.simplex_array(1)] < a
    b = snap_level(np.append(values, a) if (side[:, 0] != side[:, 1]).any() else values, b)[0]
    (rows, coeff), volumes, metric = T.rows, C.masses(k)[T.idx], C.metric
    for s, below in ((a, False), (b, True)):
        if not _below_limit(vertex_rows((rows, coeff), values), np.array([s]), whole=True)[0]:
            raise ArgumentError("chain coefficients must sum below 2**62 in absolute value")
        side = values[rows] < s
        count = side.sum(axis=1)
        crossing = (count > 0) & (count <= k)
        edges = _crossing_edges(rows[crossing], side[crossing])
        pieces, signed, _ = _pieces(rows[crossing], side[crossing], coeff[crossing], edges, len(values), values, s, below)
        keep = count == (k + 1 if below else 0)
        rows, coeff = np.concatenate([rows[keep], pieces]), np.concatenate([coeff[keep], signed])
        volumes = np.concatenate([volumes[keep], np.full(len(pieces), UNKNOWN_VOLUME)])
        metric = metric.grown(_cut_points(metric, values, edges, s)[2])
        values = np.concatenate([values, np.full(len(edges), s)])
    todo = volumes == UNKNOWN_VOLUME
    volumes[todo] = simplex_volumes(metric, rows[todo])
    order = np.argsort(row_keys(rows)[0], kind="stable")
    return float(np.abs(coeff[order]) @ volumes[order])
