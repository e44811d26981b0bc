"""Level-set subdivision and the slice operator on simplicial currents.

Slicing a current by a PL function at a level s is computed through the
boundary-difference formula on a refined complex in which {f <= s} is an
exact subcomplex, so the anticommutation identity between boundary and slice
holds as an integer chain identity by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    GeometricComplex,
    PLFunction,
    VOLUME_FLOOR,
    distance_function,
    simplex_volumes,
)
from .currents import SimplicialCurrent, boundary, mass
from .metricspace import ArgumentError

SNAP_REL = 1e-7


@dataclass
class Refinement:
    """Result of splitting a complex along a PL level set."""

    source: GeometricComplex
    complex: GeometricComplex
    level: float
    snapped: bool
    children: dict[int, dict[int, list[tuple[int, int]]]]
    cut_edges: list[tuple[int, int, float]]
    n_old_vertices: int
    dropped: int = 0
    warnings: list = field(default_factory=list)

    def transfer_current(self, T: SimplicialCurrent) -> SimplicialCurrent:
        table = self.children.get(T.dim, {})
        out: dict[int, int] = {}
        for old_idx, c in T.coeffs.items():
            for new_idx, sign in table[old_idx]:
                out[new_idx] = out.get(new_idx, 0) + c * sign
        return SimplicialCurrent(self.complex, T.dim, out)

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
    if len(uniq) == 1:
        clusters = [(float(uniq[0]), float(uniq[0]))]
    else:
        breaks = np.where(np.diff(uniq) > 2 * tol)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [len(uniq) - 1]])
        clusters = [(float(uniq[a]), float(uniq[b])) for a, b in zip(starts, ends)]
    for clo, chi in clusters:
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


def subdivide_at_level(C: GeometricComplex, values, s, snap_rel=SNAP_REL) -> Refinement:
    """Split every simplex crossing {f = s} so {f <= s} becomes a subcomplex.

    Per-simplex volume is preserved by construction (children partition their
    parent); shared faces of neighbouring simplices are split identically via
    canonical global-id rules.  Only crossing simplices are visited: the
    refined lists are the untouched simplices plus the pieces and their new
    faces (those through a cut point), which relies on C being closed under
    faces.
    """
    values = np.asarray(values, dtype=float)
    level, snapped, warning = snap_level(values, s, snap_rel)
    warnings = [warning] if warning else []

    n_old = C.n_vertices
    below_vertex = values < level
    crossing = {}
    for k in C.dims:
        side = below_vertex[C.simplex_array(k)]
        crossing[k] = np.flatnonzero(side.any(axis=1) & ~side.all(axis=1))

    # one cut point per crossing edge, numbered in edge order
    edges = C.simplex_array(1)[crossing.get(1, [])]
    u_below = below_vertex[edges[:, 0]]
    lo = np.where(u_below, edges[:, 0], edges[:, 1])
    hi = np.where(u_below, edges[:, 1], edges[:, 0])
    t = (level - values[lo]) / (values[hi] - values[lo])
    t_edge = np.where(u_below, t, 1.0 - t)
    cut_edges = list(zip(*edges.T.tolist(), t_edge.tolist()))
    cut = {(u, v): n_old + i for i, (u, v, _) in enumerate(cut_edges)}

    metric = C.metric.copy()
    if cut_edges:
        specs = [metric.interpolate((u, v), (1.0 - t, t)) for (u, v, t) in cut_edges]
        metric.add_points(specs)

    # pieces of crossing simplices; new faces (through a cut point) of pieces
    # from the dimension above join the new simplices one dimension down
    pieces: dict[int, list[list[tuple[int, ...]]]] = {}
    new: dict[int, set] = {k: set() for k in C.dims}
    for k in sorted(C.dims, reverse=True):
        sims = C.simplices[k]
        pieces[k] = []
        for idx in crossing[k].tolist():
            simplex = sims[idx]
            lo_pieces, hi_pieces = _split_pieces(simplex, [bool(below_vertex[v]) for v in simplex], cut)
            pieces[k].append([tuple(sorted(p)) for p in lo_pieces + hi_pieces])
            new[k].update(pieces[k][-1])
        if k >= 1:
            for simplex in new[k]:
                for i in range(k + 1):
                    face = simplex[:i] + simplex[i + 1 :]
                    if face[-1] >= n_old:
                        new[k - 1].add(face)

    # merged, sorted lists; untouched simplices keep their volumes
    new_lists, new_arrays, new_masses, old_pos, new_pos = {}, {}, {}, {}, {}
    for k in C.dims:
        keep = np.ones(C.count(k), dtype=bool)
        keep[crossing[k]] = False
        added = list(new[k])
        added_arr = np.array(added, dtype=np.intp).reshape(len(added), k + 1)
        merged = np.concatenate([C.simplex_array(k)[keep], added_arr])
        order = np.lexsort(merged.T[::-1])
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        n_keep = int(keep.sum())
        pos = np.full(len(keep), -1, dtype=np.intp)
        pos[keep] = rank[:n_keep]
        old_pos[k] = pos.tolist()
        new_pos[k] = dict(zip(added, rank[n_keep:].tolist()))
        new_arrays[k] = merged[order]
        # untouched simplices keep their tuple objects
        tuples = [C.simplices[k][i] for i in np.flatnonzero(keep).tolist()] + added
        new_lists[k] = [tuples[i] for i in order.tolist()]
        vols = np.concatenate([C.masses(k)[keep], simplex_volumes(metric, added_arr)])
        new_masses[k] = vols[order]
    new_complex = GeometricComplex(metric, new_lists, _masses=new_masses, _arrays=new_arrays)

    # signed children mapping with volume-fraction sanity check; orientations
    # are determinants of the pieces' barycentric coordinates in the parent
    children: dict[int, dict[int, list[tuple[int, int]]]] = {}
    dropped = 0
    for k in C.dims:
        table = {idx: [(p, 1)] for idx, p in enumerate(old_pos[k])}
        if pieces[k]:
            parents = C.simplex_array(k)[np.repeat(crossing[k], [len(p) for p in pieces[k]])]
            keys = np.array([key for pcs in pieces[k] for key in pcs], dtype=np.intp)
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
            dets = iter(np.linalg.det(rows).tolist())
            for idx, pcs in zip(crossing[k].tolist(), pieces[k]):
                entries = []
                frac = 0.0
                for key in pcs:
                    det = next(dets)
                    frac += abs(det)
                    if abs(det) < VOLUME_FLOOR:
                        dropped += 1
                        continue
                    entries.append((new_pos[k][key], 1 if det > 0 else -1))
                if abs(frac - 1.0) > 1e-6:
                    warnings.append(
                        f"split of {C.simplices[k][idx]} covers volume fraction {frac} (expected 1)"
                    )
                table[idx] = entries
        children[k] = table

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
    which keeps later subdivisions proportional to the support size.
    """
    from .complexes import close_under_faces

    if T.is_zero():
        C2 = GeometricComplex(T.complex.metric, {k: [] for k in T.complex.dims})
        return SimplicialCurrent(C2, T.dim, {})
    tops = T.support_simplices()
    sub = close_under_faces(tops)
    for k in range(T.dim + 1):
        sub.setdefault(k, [])
    C2 = GeometricComplex(T.complex.metric, sub)
    for k in sub:
        parent_index = T.complex.index(k)
        parent_masses = T.complex.masses(k)
        vols = np.empty(C2.count(k))
        for i, s in enumerate(C2.simplices[k]):
            vols[i] = parent_masses[parent_index[s]]
        C2._masses[k] = vols
    index = C2.index(T.dim)
    coeffs = {index[T.simplex(i)]: c for i, c in T.coeffs.items()}
    return SimplicialCurrent(C2, T.dim, coeffs)


def restrict_sublevel(T: SimplicialCurrent, f: PLFunction, s, side="below") -> SimplicialCurrent:
    """Exact restriction of T to {f <= s} (or {f >= s}) after refinement."""
    ref = subdivide_at_level(T.complex, f.values, s)
    T2 = ref.transfer_current(T)
    keep = _sublevel_indicator(ref.complex, T.dim, ref.transfer_function(f, own_level=True).values, ref.level)
    if side == "above":
        keep = ~keep
    coeffs = {i: c for i, c in T2.coeffs.items() if keep[i]}
    return SimplicialCurrent(ref.complex, T.dim, coeffs)


def slice_current(T: SimplicialCurrent, f: PLFunction, s) -> SliceResult:
    """The slice of T by f at level s: boundary of the sublevel restriction
    minus the restriction of the boundary, on the refined complex."""
    if T.dim < 1:
        raise ArgumentError("slicing needs a current of dimension >= 1")
    ref = subdivide_at_level(T.complex, f.values, s)
    T2 = ref.transfer_current(T)
    f2 = ref.transfer_function(f, own_level=True)
    keep_k = _sublevel_indicator(ref.complex, T.dim, f2.values, ref.level)
    restricted = SimplicialCurrent(
        ref.complex, T.dim, {i: c for i, c in T2.coeffs.items() if keep_k[i]}
    )
    bdry = boundary(T2)
    keep_b = _sublevel_indicator(ref.complex, T.dim - 1, f2.values, ref.level)
    bdry_restricted = SimplicialCurrent(
        ref.complex, T.dim - 1, {i: c for i, c in bdry.coeffs.items() if keep_b[i]}
    )
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
    total = 0.0
    w = complex.masses(T.dim)
    for i, c in T.coeffs.items():
        s_tuple = complex.simplices[T.dim][i]
        if all(values[v] == level for v in s_tuple):
            total += abs(c) * w[i]
    return total


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
    if r <= 0:
        raise ArgumentError("ball radius must be positive")
    rho = distance_function(T.complex, p, mode=mode)
    return restrict_sublevel(T, rho, r, side="below")


def sphere(T: SimplicialCurrent, p: int, r: float, mode="auto") -> SliceResult:
    """Slice of T by the distance function from p at radius r."""
    rho = distance_function(T.complex, p, mode=mode)
    return slice_current(T, rho, r)


def annulus_mass(T: SimplicialCurrent, f: PLFunction, a: float, b: float) -> float:
    """Mass of T restricted to {a < f < b}, computed exactly by refinement."""
    if b <= a:
        return 0.0
    ref1 = subdivide_at_level(T.complex, f.values, a)
    T1 = ref1.transfer_current(T)
    f1 = ref1.transfer_function(f, own_level=True)
    keep = ~_sublevel_indicator(ref1.complex, T.dim, f1.values, ref1.level)
    T1 = SimplicialCurrent(
        ref1.complex, T.dim, {i: c for i, c in T1.coeffs.items() if keep[i]}
    )
    ref2 = subdivide_at_level(ref1.complex, f1.values, b)
    T2 = ref2.transfer_current(T1)
    f2 = ref2.transfer_function(f1, own_level=True)
    keep2 = _sublevel_indicator(ref2.complex, T.dim, f2.values, ref2.level)
    T2 = SimplicialCurrent(
        ref2.complex, T.dim, {i: c for i, c in T2.coeffs.items() if keep2[i]}
    )
    return mass(T2)
