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
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    ComplexError,
    GeometricComplex,
    PLFunction,
    VOLUME_FLOOR,
    distance_function,
    lookup_rows,
    row_ranks,
    simplex_volumes,
)
from .currents import SimplicialCurrent, boundary, mass
from .metricspace import ArgumentError

SNAP_REL = 1e-7


class ChildTable(Mapping):
    """Signed transfer table of one dimension in CSR form: old simplex i has
    the children child[ptr[i]:ptr[i+1]] with orientations sign[ptr[i]:ptr[i+1]].

    Read as a mapping it is {old index: [(new index, sign), ...]}.
    """

    def __init__(self, ptr, child, sign):
        self.ptr, self.child, self.sign = ptr, child, sign

    def __len__(self):
        return len(self.ptr) - 1

    def __iter__(self):
        return iter(range(len(self)))

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise KeyError(i)
        a, b = self.ptr[i], self.ptr[i + 1]
        return list(zip(self.child[a:b].tolist(), self.sign[a:b].tolist()))


@dataclass
class Refinement:
    """Result of splitting a complex along a PL level set; `children` maps
    each dimension to its ChildTable."""

    source: GeometricComplex
    complex: GeometricComplex
    level: float
    snapped: bool
    children: dict[int, ChildTable]
    cut_edges: list[tuple[int, int, float]]
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

    def transfer_function(self, f: PLFunction, own_level=False) -> PLFunction:
        old = f.values
        n_cut = len(self.cut_edges)
        if own_level:
            cut_vals = np.full(n_cut, self.level)
        elif f.source is not None and f.source[0] == "dist":
            cut_ids = np.arange(self.n_old_vertices, self.n_old_vertices + n_cut)
            cut_vals = self.complex.metric.dist(f.source[1], cut_ids)
        else:
            cut_vals = np.array([(1.0 - t) * old[u] + t * old[v] for (u, v, t) in self.cut_edges])
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
    value range when the cluster contains an extreme value.
    """
    uniq = np.unique(np.asarray(values, dtype=float))
    if len(uniq) == 0:
        return float(s), False, None
    rng = float(uniq[-1] - uniq[0]) if len(uniq) > 1 else 1.0
    tol = snap_rel * (rng if rng > 0 else 1.0)
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


def _quad_triangles(a, b, c, d):
    """Split the cycle (a,b,c,d) along the diagonal through its smallest id."""
    m = min(a, b, c, d)
    if m == a or m == c:
        return [(a, b, c), (a, c, d)]
    return [(a, b, d), (b, c, d)]


def _prism_tets(t0, t1):
    """Triangulate a prism given matching triangles; canonical in global ids."""
    six = list(t0) + list(t1)
    apex = min(six)
    tris = [tuple(t0), tuple(t1)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        tris.extend(_quad_triangles(t0[i], t0[j], t1[j], t1[i]))
    return [(apex,) + tri for tri in tris if apex not in tri]


def _split_pieces(simplex, below_mask, cut):
    """Children (as unsorted vertex tuples) of a crossing simplex.

    `cut[(u, v)]` is the id of the point where the level crosses edge {u,v}.
    Returns (below_children, above_children).
    """
    k = len(simplex) - 1
    below = [v for v, b in zip(simplex, below_mask) if b]
    above = [v for v, b in zip(simplex, below_mask) if not b]

    def cut_of(u, v):
        return cut[(u, v) if u < v else (v, u)]

    if k == 1:
        u, v = below[0], above[0]
        c = cut_of(u, v)
        return [(u, c)], [(c, v)]
    if k == 2:
        if len(below) == 1:
            w = below[0]
            x, y = above
            p, q = cut_of(w, x), cut_of(w, y)
            return [(w, p, q)], _quad_triangles(p, x, y, q)
        w, x = below
        y = above[0]
        p, q = cut_of(w, y), cut_of(x, y)
        return _quad_triangles(w, x, q, p), [(p, q, y)]
    if k == 3:
        if len(below) == 1 or len(above) == 1:
            flip = len(above) == 1
            lone = above[0] if flip else below[0]
            rest = below if flip else above
            cuts = [cut_of(lone, v) for v in rest]
            tet = [(lone,) + tuple(cuts)]
            prism = _prism_tets(tuple(cuts), tuple(rest))
            return (prism, tet) if flip else (tet, prism)
        w1, w2 = below
        x, y = above
        below_prism = _prism_tets((w1, cut_of(w1, x), cut_of(w1, y)), (w2, cut_of(w2, x), cut_of(w2, y)))
        above_prism = _prism_tets((x, cut_of(w1, x), cut_of(w2, x)), (y, cut_of(w1, y), cut_of(w2, y)))
        return below_prism, above_prism
    raise ArgumentError(f"level-set subdivision implemented for simplices of dimension <= 3, got {k}")


_AFTER_EVERY_ID = np.iinfo(np.intp).max


@functools.cache
def _template(k, pattern, perm):
    """The cells a crossing k-simplex is split into, as sorted rows of column
    indices into [its k+1 sorted vertices, the cut points of its edges in
    lexicographic edge order]: entry j lists the j-cells inside the simplex
    (those no proper face contains), for j = k its pieces in `_split_pieces`
    order.  `pattern` holds each vertex's below flag and `perm` the
    positions of its crossing edges in increasing cut-id order.

    Every choice `_split_pieces` makes depends only on the order of the ids,
    and cut ids exceed all vertex ids, so all simplices with the same
    (pattern, perm) follow one template, built on first use from the local
    simplex (0..k) and cached.
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
    return [
        np.array([[column[v] for v in c] for c in cs], dtype=np.intp).reshape(-1, j + 1) for j, cs in enumerate(cells)
    ]


def _split(sims, side, edges, n_old):
    """The cells of the crossing k-simplices `sims` (rows in canonical order,
    `side` their vertices' below flags) given the crossing `edges`, whose
    cut points are n_old, n_old + 1, ...

    Returns, for j = 0..k, the j-cells inside the simplices as sorted id
    rows (for j = k the pieces, each parent's together and in
    `_split_pieces` order), and the number of pieces of each parent.
    """
    k = sims.shape[1] - 1
    if not len(sims):
        return [np.empty((0, d + 1), dtype=np.intp) for d in range(k + 1)], np.empty(0, dtype=np.intp)
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
    group = row_ranks(np.concatenate([side, perm], axis=1))
    firsts = np.unique(group, return_index=True)[1]
    templates = [
        _template(k, tuple(side[f].tolist()), tuple(perm[f, : crosses[f].sum()].tolist())) for f in firsts.tolist()
    ]
    # per dimension, one gather through the templates padded to a common
    # length, then the padding rows dropped: each parent's cells stay
    # together and in template order
    cells = []
    for d in range(k + 1):
        counts = np.array([len(t[d]) for t in templates], dtype=np.intp)
        table = np.zeros((len(templates), counts.max(initial=0), d + 1), dtype=np.intp)
        for g, template in enumerate(templates):
            table[g, : counts[g]] = template[d]
        rows = cols[np.arange(len(cols))[:, None, None], table[group]]
        cells.append(rows[np.arange(table.shape[1]) < counts[group][:, None]])
    return cells, counts[group]


def subdivide_at_level(C: GeometricComplex, values, s, snap_rel=SNAP_REL) -> Refinement:
    """Split every simplex crossing {f = s} so {f <= s} becomes a subcomplex.

    Per-simplex volume is preserved by construction (children partition their
    parent); shared faces of neighbouring simplices are split identically via
    canonical global-id rules.  Only crossing simplices are visited, each
    split by its (pattern, perm) template: the refined complex, built from
    id arrays, holds the untouched simplices plus the cells inside crossing
    simplices (those through a cut point), which relies on C being closed
    under faces.
    """
    values = np.asarray(values, dtype=float)
    level, snapped, warning = snap_level(values, s, snap_rel)
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
    cut_edges = list(zip(*edges.T.tolist(), t_edge.tolist()))
    metric = C.metric.grown(C.metric.interpolate(edges, np.stack([1.0 - t_edge, t_edge], axis=1)))

    # the new simplices of a dimension are the cells inside crossing simplices
    # of that dimension or above (each has one carrier), pieces first
    cells, n_pieces = {}, {}
    for k in C.dims:
        cells[k], n_pieces[k] = _split(C.simplex_array(k)[crossing[k]], sides[k], edges, n_old)
    new = {k: np.concatenate([cells[j][k] for j in C.dims if j >= k]) for k in C.dims}

    # merged, lexicographically sorted arrays; untouched simplices keep their
    # volumes, and every new simplex contains a cut point, so all rows differ
    new_arrays, new_masses, untouched, old_pos, piece_pos = {}, {}, {}, {}, {}
    for k in C.dims:
        keep = np.ones(C.count(k), dtype=bool)
        keep[crossing[k]] = False
        untouched[k] = np.flatnonzero(keep)
        merged = np.concatenate([C.simplex_array(k)[keep], new[k]])
        order = np.lexsort(merged.T[::-1])
        pos = np.empty(len(order), dtype=np.intp)
        pos[order] = np.arange(len(order))
        old_pos[k] = pos[: len(untouched[k])]
        piece_pos[k] = pos[len(untouched[k]) :][: len(cells[k][k])]
        new_arrays[k] = merged[order]
        new_masses[k] = np.concatenate([C.masses(k)[keep], simplex_volumes(metric, new[k])])[order]
    new_complex = GeometricComplex(metric, new_arrays, new_masses)

    # signed transfer tables: an untouched simplex has itself as its one
    # child; a split one its pieces, oriented by the determinants of their
    # barycentric coordinates in the parent, those below VOLUME_FLOOR dropped
    children: dict[int, ChildTable] = {}
    dropped = 0
    for k in C.dims:
        parent_of = np.repeat(crossing[k], n_pieces[k])
        if not len(parent_of):
            children[k] = ChildTable(np.arange(C.count(k) + 1), old_pos[k], np.ones(C.count(k), dtype=np.int64))
            continue
        parents = C.simplex_array(k)[parent_of]
        keys = cells[k][k]
        is_cut = keys >= n_old
        e = np.where(is_cut, keys - n_old, 0)
        a = np.where(is_cut, edges[e, 0], keys)
        b = np.where(is_cut, edges[e, 1], -1)
        w = np.where(is_cut, t_edge[e], 0.0)[:, :, None]
        # rows[n, j]: barycentric coordinates in the parent of vertex j of
        # piece n; a cut point at t on edge (u, v) is (1 - t) u + t v
        rows = np.where(parents[:, None, :] == a[:, :, None], 1.0 - w, 0.0) + np.where(
            parents[:, None, :] == b[:, :, None], w, 0.0
        )
        dets = np.linalg.det(rows)
        # volume fraction per parent; bincount adds the pieces in order
        frac = np.bincount(parent_of, weights=np.abs(dets))[crossing[k]]
        for j in np.flatnonzero(np.abs(frac - 1.0) > 1e-6).tolist():
            parent = tuple(C.simplex_array(k)[crossing[k][j]].tolist())
            warnings.append(f"split of {parent} covers volume fraction {float(frac[j])} (expected 1)")
        kept = np.abs(dets) >= VOLUME_FLOOR
        dropped += len(dets) - int(np.count_nonzero(kept))
        # one entry per child: an untouched simplex is its own child; the
        # stable sort by parent keeps each parent's pieces in piece order
        parent = np.concatenate([untouched[k], parent_of[kept]])
        order = np.argsort(parent, kind="stable")
        child = np.concatenate([old_pos[k], piece_pos[k][kept]])[order]
        sign = np.concatenate([np.ones(len(old_pos[k]), dtype=np.int64), np.where(dets[kept] > 0, 1, -1)])[order]
        ptr = np.searchsorted(parent[order], np.arange(C.count(k) + 1))
        children[k] = ChildTable(ptr, child, sign)

    return Refinement(
        source=C,
        complex=new_complex,
        level=level,
        snapped=snapped,
        children=children,
        cut_edges=cut_edges,
        n_old_vertices=n_old,
        dropped=dropped,
        warnings=warnings,
    )


def _sublevel_indicator(complex, dim, values, level):
    bary = complex.barycenter_values(dim, values)
    return bary < level


def support_closure(T: SimplicialCurrent) -> SimplicialCurrent:
    """The same current re-rooted on the face closure of its support.

    Vertex ids and the metric are shared with the parent complex, so vertex
    functions and distance rows stay valid; only the simplex lists shrink,
    which keeps later subdivisions proportional to the support size.  The
    faces come from the parent's face-index arrays, each dimension listed
    in lexicographic vertex order as an id array (tuple lists on demand).
    """
    C = T.complex
    if T.is_zero():
        C2 = GeometricComplex(C.metric, {k: [] for k in C.dims})
        return SimplicialCurrent(C2, T.dim, {})
    chosen = {T.dim: T.idx}
    for k in range(T.dim, 0, -1):
        chosen[k - 1] = np.unique(C.face_index(k)[chosen[k]])
    arrays, masses, orders = {}, {}, {}
    for k, ids in chosen.items():
        orders[k] = np.lexsort(C.simplex_array(k)[ids].T[::-1])
        ids = ids[orders[k]]
        arrays[k] = C.simplex_array(k)[ids]
        masses[k] = C.masses(k)[ids]
    C2 = GeometricComplex(C.metric, arrays, masses)
    new_idx = np.empty(len(T.idx), dtype=np.int64)
    new_idx[orders[T.dim]] = np.arange(len(T.idx))
    return SimplicialCurrent.from_arrays(C2, T.dim, new_idx, T.coeff)


def restrict_sublevel(T: SimplicialCurrent, f: PLFunction, s, side="below") -> SimplicialCurrent:
    """Exact restriction of T to {f <= s} (or {f >= s}) after refinement."""
    ref = subdivide_at_level(T.complex, f.values, s)
    keep = _sublevel_indicator(ref.complex, T.dim, ref.transfer_function(f, own_level=True).values, ref.level)
    return ref.transfer_current(T).restricted(~keep if side == "above" else keep)


def slice_current(T: SimplicialCurrent, f: PLFunction, s) -> SliceResult:
    """The slice of T by f at level s: boundary of the sublevel restriction
    minus the restriction of the boundary, on the refined complex."""
    if T.dim < 1:
        raise ArgumentError("slicing needs a current of dimension >= 1")
    ref = subdivide_at_level(T.complex, f.values, s)
    T2 = ref.transfer_current(T)
    f2 = ref.transfer_function(f, own_level=True)
    restricted = T2.restricted(_sublevel_indicator(ref.complex, T.dim, f2.values, ref.level))
    bdry_restricted = boundary(T2).restricted(_sublevel_indicator(ref.complex, T.dim - 1, f2.values, ref.level))
    sliced = boundary(restricted) - bdry_restricted
    warnings = list(ref.warnings)
    flat = _flat_region_mass(ref.complex, T2, f2.values, float(s))
    if flat > 0:
        warnings.append(f"non-generic level: function is flat at the level on mass {flat}")
    return SliceResult(
        current=sliced,
        levels=(ref.level,),
        functions=[f2],
        refinement=ref,
        warnings=warnings,
    )


def _flat_region_mass(complex, T, values, level):
    flat = (values[complex.simplex_array(T.dim)[T.idx]] == level).all(axis=1)
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

    Returns (integral, bound) with bound = Lip(f) * mass(T).
    """
    if samples < 2:
        raise ArgumentError("coarea needs at least 2 samples")
    lo, hi = f.range()
    bound = f.lip * mass(T)
    if hi <= lo:
        return 0.0, bound
    grid = np.linspace(lo, hi, samples)
    masses = np.array([mass(slice_current(T, f, s).current) for s in grid])
    integral = float(np.trapezoid(masses, grid))
    return integral, bound


def ball(T: SimplicialCurrent, p: int, r: float, mode="auto") -> SimplicialCurrent:
    """Subdivided restriction of T to the open metric ball around vertex p."""
    if not r > 0:
        raise ArgumentError("ball radius must be positive")
    rho = distance_function(T.complex, p, mode=mode)
    return restrict_sublevel(T, rho, r, side="below")


def sphere(T: SimplicialCurrent, p: int, r: float, mode="auto") -> SliceResult:
    """Slice of T by the distance function from p at radius r."""
    rho = distance_function(T.complex, p, mode=mode)
    return slice_current(T, rho, r)


def annulus_mass(T: SimplicialCurrent, f: PLFunction, a: float, b: float) -> float:
    """Mass of T restricted to {a < f < b}, computed exactly by refinement."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ArgumentError(f"annulus bounds must be finite, got {a}, {b}")
    if b <= a:
        return 0.0
    ref1 = subdivide_at_level(T.complex, f.values, a)
    f1 = ref1.transfer_function(f, own_level=True)
    T1 = ref1.transfer_current(T).restricted(~_sublevel_indicator(ref1.complex, T.dim, f1.values, ref1.level))
    ref2 = subdivide_at_level(ref1.complex, f1.values, b)
    f2 = ref2.transfer_function(f1, own_level=True)
    T2 = ref2.transfer_current(T1).restricted(_sublevel_indicator(ref2.complex, T.dim, f2.values, ref2.level))
    return mass(T2)
