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
    ComplexError,
    GeometricComplex,
    PLFunction,
    distance_function,
    lookup_rows,
    row_keys,
)
from .currents import SimplicialCurrent, boundary, mass
from .metricspace import ArgumentError, InvariantError

SNAP_REL = 1e-7


@dataclass(eq=False)
class ChildTable:
    """Signed transfer table of one dimension in CSR form: old simplex i has
    the children child[ptr[i]:ptr[i+1]] with orientations sign[ptr[i]:ptr[i+1]]."""

    ptr: np.ndarray
    child: np.ndarray
    sign: np.ndarray


@dataclass
class Refinement:
    """Result of splitting a complex along a PL level set; `children` maps
    each dimension to its ChildTable and `values` is the cutting function on
    the refined vertices, exactly `level` at the cut points.  Cut point
    n_old_vertices + i lies on the crossing edge `cut_edges[i]` = (u, v) at
    parameter `cut_t[i]` from u.  Every piece of a split simplex is kept, so
    `dropped` is always 0."""

    source: GeometricComplex
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
        table = self.children[T.dim]
        start = table.ptr[T.idx]
        counts = table.ptr[T.idx + 1] - start
        # slot of every child entry of T's simplices, in one gather
        pos = np.repeat(start - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        child, coeff = table.child[pos], np.repeat(T.coeff, counts) * table.sign[pos]
        order = np.argsort(child, kind="stable")  # children of distinct parents are distinct
        return SimplicialCurrent.from_arrays(self.complex, T.dim, child[order], coeff[order])

    def below(self, k) -> np.ndarray:
        """Mask of the refined k-simplices in {f < level}: no refined simplex
        has vertices on both sides, and cells of cut points alone lie on the
        level."""
        return (self.values < self.level)[self.complex.simplex_array(k)].any(axis=1)

    def transfer_function(self, f: PLFunction) -> PLFunction:
        old = f.values
        if f.source is not None and f.source[0] == "dist":
            cut_ids = np.arange(self.n_old_vertices, self.n_old_vertices + len(self.cut_edges))
            cut_vals = self.complex.metric.dist(f.source[1], cut_ids)
        else:
            u, v = self.cut_edges.T
            cut_vals = (1.0 - self.cut_t) * old[u] + self.cut_t * old[v]
        return PLFunction(self.complex, np.concatenate([old, cut_vals]), source=f.source)


@dataclass
class SliceResult:
    current: SimplicialCurrent
    levels: tuple[float, ...]
    functions: list[PLFunction]
    refinement: Refinement | None
    warnings: list = field(default_factory=list)

    @property
    def complex(self):
        return self.current.complex


def snap_level(values, s, snap_rel=SNAP_REL):
    """Move s off vertex values; returns (level, snapped?, warning or None).

    Vertex values within 2*tol of each other are treated as one cluster and
    the level is pushed just past the cluster, towards the interior of the
    value range when the cluster contains an extreme value; tol is snap_rel
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
    tol = snap_rel * (rng if rng > 0 else 1.0)
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


def _split(sims, side, edges, n_old):
    """The cells of the crossing k-simplices `sims` (rows in canonical order,
    `side` their vertices' below flags) given the crossing `edges`, whose
    cut points are n_old, n_old + 1, ...

    Returns, for j = 0..k, the j-cells inside the simplices as sorted id
    rows (for j = k the pieces, each parent's together and in
    `_split_pieces` order), the number of pieces of each parent and the
    pieces' orientations.
    """
    k = sims.shape[1] - 1
    if not len(sims):
        return [np.empty((0, d + 1), dtype=np.intp) for d in range(k + 1)], *np.empty((2, 0), dtype=np.intp)
    i, j = np.array(list(itertools.combinations(range(k + 1), 2)), dtype=np.intp).T
    crosses = side[:, i] != side[:, j]
    # cut id of every crossing edge of every parent, found among the crossing
    # edges; the other edges hold a placeholder that sorts after every id
    cuts = np.full(crosses.shape, _AFTER_EVERY_ID)
    cuts[crosses] = n_old + lookup_rows(edges, np.stack([sims[:, i][crosses], sims[:, j][crosses]], axis=1))
    if (cuts < n_old).any():
        raise ComplexError("a crossing simplex has an edge missing from the complex")
    cols = np.concatenate([sims, cuts], axis=1)
    perm = np.argsort(cuts, axis=1, kind="stable")
    key = row_keys(np.concatenate([side, perm], axis=1))[0]
    firsts, group = np.unique(key, return_index=True, return_inverse=True)[1:]
    templates = [
        _template(k, tuple(side[f].tolist()), tuple(perm[f, : crosses[f].sum()].tolist())) for f in firsts.tolist()
    ]
    # per dimension, one gather through the templates padded to a common
    # length, then the padding rows dropped: each parent's cells stay
    # together and in template order; the pieces' signs (d = k) take the
    # same padded gather
    cells = []
    for d in range(k + 1):
        counts = np.array([len(t[d]) for t, _ in templates], dtype=np.intp)
        table = np.zeros((len(templates), counts.max(initial=0), d + 1), dtype=np.intp)
        signs = np.zeros(table.shape[:2], dtype=np.int64)
        for g, (template, sign) in enumerate(templates):
            table[g, : counts[g]] = template[d]
            if d == k:
                signs[g, : counts[g]] = sign
        rows = cols[np.arange(len(cols))[:, None, None], table[group]]
        keep = np.arange(table.shape[1]) < counts[group][:, None]
        cells.append(rows[keep])
    return cells, counts[group], signs[group][keep]


def subdivide_at_level(C: GeometricComplex, values, s) -> Refinement:
    """Split every simplex crossing {f = s} so {f <= s} becomes a subcomplex.

    Per-simplex volume is preserved by construction (children partition their
    parent); shared faces of neighbouring simplices are split identically via
    canonical global-id rules.  Only crossing simplices are visited, each
    split by its (pattern, perm) template: the refined complex, built from
    id arrays, holds the untouched simplices plus the cells inside crossing
    simplices (those through a cut point), which relies on C being closed
    under faces.  Like a base complex, it looks its face index up on the
    first `face_index` of each dimension and computes its volumes on the
    first `masses` (the grown metric keeps every old distance), so a
    dimension nobody reads costs nothing, and it holds no reference to C.
    """
    values = np.asarray(values, dtype=float)
    level, snapped, warning = snap_level(values, s)
    warnings = [warning] if warning else []

    n_old = C.n_vertices
    below_vertex = values < level
    crossing, sides = {}, {}
    for k in C.dims:
        side = below_vertex[C.simplex_array(k)]
        crossing[k] = np.flatnonzero(side.any(axis=1) & ~side.all(axis=1))
        sides[k] = side[crossing[k]]

    # one cut point per crossing edge, numbered in edge order
    edges = C.simplex_array(1)[crossing.get(1, [])]
    u_below = below_vertex[edges[:, 0]]
    lo = np.where(u_below, edges[:, 0], edges[:, 1])
    hi = np.where(u_below, edges[:, 1], edges[:, 0])
    t = (level - values[lo]) / (values[hi] - values[lo])
    t_edge = np.where(u_below, t, 1.0 - t)
    metric = C.metric.grown(C.metric.interpolate(edges, np.stack([1.0 - t_edge, t_edge], axis=1)))

    # the new simplices of a dimension are the cells inside crossing simplices
    # of that dimension or above (each has one carrier), pieces first
    cells, n_pieces, signs = {}, {}, {}
    for k in C.dims:
        cells[k], n_pieces[k], signs[k] = _split(C.simplex_array(k)[crossing[k]], sides[k], edges, n_old)
    new = {k: np.concatenate([cells[j][k] for j in C.dims if j >= k]) for k in C.dims}

    # merged, lexicographically sorted arrays; every new simplex contains a
    # cut point, so all rows differ; the untouched rows keep C's sorted
    # order, one run that the stable key sort takes in linear time
    new_arrays, untouched, positions = {}, {}, {}
    for k in C.dims:
        untouched[k] = np.delete(np.arange(C.count(k)), crossing[k])
        merged = np.concatenate([C.simplex_array(k)[untouched[k]], new[k]])
        order = np.argsort(row_keys(merged)[0], kind="stable")
        positions[k] = np.empty(len(order), dtype=np.intp)
        positions[k][order] = np.arange(len(order))
        new_arrays[k] = merged[order]
    new_complex = GeometricComplex(metric, new_arrays)

    # signed transfer tables: an untouched simplex is its own child, a split
    # one has all its pieces with their template orientations; the stable
    # sort by parent keeps each parent's pieces in piece order
    children: dict[int, ChildTable] = {}
    for k in C.dims:
        parent = np.concatenate([untouched[k], np.repeat(crossing[k], n_pieces[k])])
        order = np.argsort(parent, kind="stable")
        child = positions[k][: len(untouched[k]) + len(cells[k][k])][order]
        sign = np.concatenate([np.ones(len(untouched[k]), dtype=np.int64), signs[k]])[order]
        ptr = np.searchsorted(parent[order], np.arange(C.count(k) + 1))
        children[k] = ChildTable(ptr, child, sign)

    return Refinement(
        source=C,
        complex=new_complex,
        level=level,
        values=np.concatenate([values, np.full(len(edges), level)]),
        snapped=snapped,
        children=children,
        cut_edges=edges,
        cut_t=t_edge,
        n_old_vertices=n_old,
        warnings=warnings,
    )


def support_closure(T: SimplicialCurrent) -> SimplicialCurrent:
    """The same current re-rooted on the face closure of its support.

    Vertex ids and the metric are shared with the parent complex, so vertex
    functions and distance rows stay valid; only the simplex lists shrink,
    which keeps later subdivisions proportional to the support size.  The
    faces come from the parent's face-index arrays, each dimension listed
    in lexicographic vertex order as an id array.  Unlike a refined
    complex, which looks its face index up when read, the closure is built
    with the parent's, renumbered; its volumes are computed when read.
    """
    C = T.complex
    if T.is_zero():
        C2 = GeometricComplex(C.metric, {k: [] for k in C.dims})
        return SimplicialCurrent(C2, T.dim, {})
    chosen = {T.dim: T.idx}
    for k in range(T.dim, 0, -1):
        chosen[k - 1] = np.unique(C.face_index(k)[chosen[k]])
    arrays, faces, renamed = {}, {}, {}
    for k in range(T.dim + 1):
        ids = chosen[k][np.argsort(row_keys(C.simplex_array(k)[chosen[k]])[0], kind="stable")]
        arrays[k] = C.simplex_array(k)[ids]
        # closure index of each chosen parent simplex (other entries unread)
        renamed[k] = np.empty(C.count(k), dtype=np.intp)
        renamed[k][ids] = np.arange(len(ids))
        if k:
            faces[k] = renamed[k - 1][C.face_index(k)[ids]]
    C2 = GeometricComplex(C.metric, arrays, faces)
    new_idx = renamed[T.dim][T.idx]
    return SimplicialCurrent.from_arrays(C2, T.dim, new_idx, T.coeff)


def _level_star(T: SimplicialCurrent, values, s, crossing) -> SimplicialCurrent:
    """T restricted to its simplices with a vertex below the level and,
    when `crossing`, also one above it, re-rooted on their face closure.

    The level is s snapped on all of `values`, as `subdivide_at_level`
    snaps it.  A slice is local: a simplex wholly below the level adds
    d(sigma) - d(sigma) = 0 to d(T below) - (dT) below, and one wholly
    above is in neither term, so T and its crossing star have one slice;
    a sublevel restriction needs the simplices below too.  The closure
    keeps the vertex ids and the metric, and when T's complex is the
    closure of its support it holds every crossing edge, so its cut has
    the full cut's cut ids, cut points, masses and vertex rows: only the
    complex around the result is smaller.
    """
    values = np.asarray(values, dtype=float)
    below = (values < snap_level(values, s)[0])[T.complex.simplex_array(T.dim)]
    keep = below.any(axis=1)
    if crossing:
        keep &= ~below.all(axis=1)
    return support_closure(T.restricted(keep))


def restrict_sublevel(T: SimplicialCurrent, f: PLFunction, s) -> SimplicialCurrent:
    """Exact restriction of T to {f < level} on the refinement at s, where
    level is s snapped off the vertex values."""
    ref = subdivide_at_level(T.complex, f.values, s)
    return ref.transfer_current(T).restricted(ref.below(T.dim))


def slice_current(T: SimplicialCurrent, f: PLFunction, s) -> SliceResult:
    """The slice of T by f at level s: boundary of the sublevel restriction
    minus the restriction of the boundary, on the refined complex."""
    if T.dim < 1:
        raise ArgumentError("slicing needs a current of dimension >= 1")
    ref = subdivide_at_level(T.complex, f.values, s)
    T2 = ref.transfer_current(T)
    sliced = boundary(T2.restricted(ref.below(T.dim))) - boundary(T2).restricted(ref.below(T.dim - 1))
    warnings = list(ref.warnings)
    flat = _flat_region_mass(ref.complex, T2, ref.values, float(s))
    if flat > 0:
        warnings.append(f"non-generic level: function is flat at the level on mass {flat}")
    return SliceResult(
        current=sliced,
        levels=(ref.level,),
        functions=[PLFunction(ref.complex, ref.values, source=f.source)],
        refinement=ref,
        warnings=warnings,
    )


def _flat_region_mass(complex, T, values, level):
    flat = (values[complex.simplex_array(T.dim)[T.idx]] == level).all(axis=1)
    if not flat.any():  # a generic level reads no volume
        return 0.0
    return float(np.abs(T.coeff[flat]) @ complex.masses(T.dim)[T.idx[flat]])


def iterated_slice(T: SimplicialCurrent, functions, levels) -> SliceResult:
    """Left-to-right iteration of the slice operator."""
    functions = list(functions)
    levels = list(levels)
    if len(functions) != len(levels):
        raise ArgumentError("need one level per slicing function")
    if len(functions) > T.dim:
        raise ArgumentError("cannot slice more times than the current's dimension")
    current = T
    fns = functions
    used_levels: list[float] = []
    warnings: list = []
    last_ref = None
    for j in range(len(fns)):
        result = slice_current(current, fns[j], levels[j])
        current = result.current
        used_levels.append(result.levels[0])
        warnings.extend(result.warnings)
        last_ref = result.refinement
        fns = fns[: j + 1] + [result.refinement.transfer_function(g) for g in fns[j + 1 :]]
    return SliceResult(
        current=current,
        levels=tuple(used_levels),
        functions=fns,
        refinement=last_ref,
        warnings=warnings,
    )


def coarea_profile(T: SimplicialCurrent, f: PLFunction, samples: int):
    """Trapezoid quadrature of level -> slice mass against the Lipschitz bound.

    Each level slices only the crossing star of T (`_level_star`), which
    has T's slice.  Returns (integral, bound) with bound = Lip(f) * mass(T).
    """
    if samples < 2:
        raise ArgumentError("coarea needs at least 2 samples")
    lo, hi = f.range()
    bound = f.lip * mass(T)
    if hi <= lo:
        return 0.0, bound
    grid = np.linspace(lo, hi, samples)
    masses = np.array([mass(slice_current(_level_star(T, f.values, s, crossing=True), f, s).current) for s in grid])
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
    """Mass of T restricted to {a < f < b}, computed exactly by refinement."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ArgumentError(f"annulus bounds must be finite, got {a}, {b}")
    if b <= a:
        return 0.0
    ref1 = subdivide_at_level(T.complex, f.values, a)
    T1 = ref1.transfer_current(T).restricted(~ref1.below(T.dim))
    ref2 = subdivide_at_level(ref1.complex, ref1.values, b)
    return mass(ref2.transfer_current(T1).restricted(ref2.below(T.dim)))
