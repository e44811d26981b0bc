"""Independent brute-force oracles used to freeze expected test values."""
from __future__ import annotations

import itertools
import math

import numpy as np

from currentlab.complexes import VOLUME_FLOOR, GeometricComplex, simplex_volume_from_sq
from currentlab.slicing import SNAP_REL, Refinement, _split_pieces, snap_level


def gh_oracle(dx, dy, prune=True):
    """Exact GH distance by enumerating pairs of maps f: X->Y, g: Y->X.

    Every correspondence contains the union of two function graphs with no
    larger distortion, so the minimum over such unions is exact.  Plain
    depth-first enumeration with optional branch-and-bound pruning.
    """
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    nx, ny = len(dx), len(dy)
    best = [float("inf")]

    def dis_extension(pairs, i, k):
        worst = 0.0
        for (j, l) in pairs:
            worst = max(worst, abs(dx[i, j] - dy[k, l]))
        return worst

    def rec_g(pairs, worst, j):
        if worst >= best[0]:
            return
        if j == ny:
            best[0] = worst
            return
        for i in range(nx):
            w2 = max(worst, dis_extension(pairs, i, j))
            if not prune or w2 < best[0]:
                pairs.append((i, j))
                rec_g(pairs, w2, j + 1)
                pairs.pop()

    def rec_f(pairs, worst, i):
        if prune and worst >= best[0]:
            return
        if i == nx:
            rec_g(pairs, worst, 0)
            return
        for k in range(ny):
            w2 = max(worst, dis_extension(pairs, i, k))
            if not prune or w2 < best[0]:
                pairs.append((i, k))
                rec_f(pairs, w2, i + 1)
                pairs.pop()

    rec_f([], 0.0, 0)
    return best[0] / 2.0


def transport_oracle(points, theta, sigma):
    """Exact minimal transport by recursive assignment of unit atoms."""
    units_pos = []
    units_neg = []
    for idx, (t, s) in enumerate(zip(theta, sigma)):
        for _ in range(t):
            (units_pos if s > 0 else units_neg).append(idx)
    pts = np.asarray(points, dtype=float)

    def d(a, b):
        return float(np.linalg.norm(pts[a] - pts[b]))

    best = [float("inf")]

    def rec(i, remaining, cost):
        if cost >= best[0]:
            return
        if i == len(units_pos):
            best[0] = cost
            return
        seen = set()
        for j in range(len(remaining)):
            tgt = remaining[j]
            if tgt in seen:
                continue
            seen.add(tgt)
            rec(i + 1, remaining[:j] + remaining[j + 1 :], cost + d(units_pos[i], tgt))

    rec(0, tuple(units_neg), 0.0)
    return best[0]


def simplex_volume_from_coords(coords):
    """k-volume of a simplex from vertex coordinates: sqrt(det(V V^T)) / k!."""
    coords = np.asarray(coords, dtype=float)
    k = len(coords) - 1
    if k == 0:
        return 1.0
    V = coords[1:] - coords[0]
    g = V @ V.T
    det = float(np.linalg.det(g))
    return math.sqrt(max(det, 0.0)) / math.factorial(k)


def exhaustive_max_packing(dist, r):
    """Exact packing number by subset enumeration (n <= 12)."""
    n = len(dist)
    best = 0
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            if all(dist[a][b] >= 2 * r for a, b in itertools.combinations(subset, 2)):
                best = size
                break
        if best:
            break
    return best


# ---------------------------------------------------------------------------
# level-set subdivision, one simplex at a time: every simplex of the complex
# is visited, volumes come from one Cayley-Menger call per new simplex and
# orientations from one determinant per child.  The batched, crossing-only
# `slicing.subdivide_at_level` must reproduce its Refinement exactly.


def subdivide_oracle(C: GeometricComplex, values, s, snap_rel=SNAP_REL) -> Refinement:
    """Split every simplex crossing {f = s} so {f <= s} becomes a subcomplex.

    Per-simplex volume is preserved by construction (children partition their
    parent); shared faces of neighbouring simplices are split identically via
    canonical global-id rules.
    """
    values = np.asarray(values, dtype=float)
    level, snapped, warning = snap_level(values, s, snap_rel)
    warnings = [warning] if warning else []

    n_old = C.n_vertices
    below_vertex = values < level

    cut: dict[tuple[int, int], int] = {}
    cut_edges: list[tuple[int, int, float]] = []
    raw_points = []
    next_id = n_old
    for (u, v) in C.simplices.get(1, []):
        if below_vertex[u] != below_vertex[v]:
            lo, hi = (u, v) if below_vertex[u] else (v, u)
            t = (level - values[lo]) / (values[hi] - values[lo])
            t_edge = t if (u, v) == (lo, hi) else 1.0 - t
            cut[(u, v)] = next_id
            cut_edges.append((u, v, t_edge))
            raw_points.append(((u, v), t_edge))
            next_id += 1

    metric = C.metric.copy()
    if cut_edges:
        specs = [metric.interpolate((u, v), (1.0 - t, t)) for (u, v, t) in cut_edges]
        metric.add_points(specs)

    children_tuples: dict[int, dict[int, list[tuple[int, ...]]]] = {}
    dropped = 0
    for k in C.dims:
        table: dict[int, list[tuple[int, ...]]] = {}
        for idx, simplex in enumerate(C.simplices[k]):
            if k == 0:
                table[idx] = [simplex]
                continue
            mask = [bool(below_vertex[v]) for v in simplex]
            if all(mask) or not any(mask):
                table[idx] = [simplex]
                continue
            lo_pieces, hi_pieces = _split_pieces(simplex, mask, cut)
            table[idx] = lo_pieces + hi_pieces
        children_tuples[k] = table

    # barycentric coordinates of every vertex relative to a parent simplex
    bary_cache = {gid - n_old: (edge, t) for gid, (edge, t) in
                  zip(range(n_old, next_id), raw_points)}

    def bary_in(parent, gid):
        coords = np.zeros(len(parent))
        if gid < n_old:
            coords[parent.index(gid)] = 1.0
        else:
            (u, v), t = bary_cache[gid - n_old]
            coords[parent.index(u)] = 1.0 - t
            coords[parent.index(v)] = t
        return coords

    # assemble simplex lists: children plus faces of higher-dimensional children
    new_lists: dict[int, list[tuple[int, ...]]] = {}
    face_pool: dict[int, set] = {k: set() for k in C.dims}
    for k in sorted(C.dims, reverse=True):
        pool = face_pool[k]
        for table in (children_tuples[k],):
            for pieces in table.values():
                pool.update(tuple(sorted(p)) for p in pieces)
        for s_tuple in pool:
            if k >= 1:
                for i in range(len(s_tuple)):
                    face_pool[k - 1].add(s_tuple[:i] + s_tuple[i + 1 :])
        new_lists[k] = sorted(pool)

    new_complex = GeometricComplex(metric, new_lists)

    # reuse volumes of untouched simplices
    old_masses = {k: C.masses(k) for k in C.dims}
    for k in C.dims:
        old_index = C.index(k)
        vols = np.empty(new_complex.count(k))
        for i, s_tuple in enumerate(new_lists[k]):
            j = old_index.get(s_tuple)
            vols[i] = old_masses[k][j] if j is not None else simplex_volume_from_sq(
                metric.pairwise_sq(s_tuple)
            )
        new_complex._masses[k] = vols

    # signed children mapping with volume-fraction sanity check
    children: dict[int, dict[int, list[tuple[int, int]]]] = {}
    for k in C.dims:
        table = {}
        index = new_complex.index(k)
        for idx, pieces in children_tuples[k].items():
            parent = C.simplices[k][idx]
            if len(pieces) == 1 and tuple(sorted(pieces[0])) == parent:
                table[idx] = [(index[parent], 1)]
                continue
            entries = []
            frac = 0.0
            for piece in pieces:
                key = tuple(sorted(piece))
                rows = np.array([bary_in(parent, g) for g in key])
                det = float(np.linalg.det(rows))
                frac += abs(det)
                if abs(det) < VOLUME_FLOOR:
                    dropped += 1
                    continue
                entries.append((index[key], 1 if det > 0 else -1))
            if abs(frac - 1.0) > 1e-6:
                warnings.append(
                    f"split of {parent} covers volume fraction {frac} (expected 1)"
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
