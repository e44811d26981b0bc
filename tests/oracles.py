"""Independent brute-force oracles used to freeze expected test values."""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, eye, hstack

from currentlab import fillvol
from currentlab.complexes import (
    ComplexError,
    GeometricComplex,
    MatrixMetric,
    close_under_faces,
    simplex_volume_from_sq,
)
from currentlab.currents import SimplicialCurrent, boundary, mass
from currentlab.metricspace import ArgumentError
from currentlab.slicing import (
    SNAP_REL,
    ChildTable,
    Refinement,
    _split_pieces,
    slice_current,
    snap_level,
    subdivide_at_level,
    support_closure,
)


# ---------------------------------------------------------------------------
# tuple and dict views of the id arrays, for comparisons in tests


def simplex_index(C: GeometricComplex, k: int) -> dict:
    """{vertex tuple: index} of the k-simplices of C."""
    return {s: i for i, s in enumerate(map(tuple, C.simplex_array(k).tolist()))}


def support_simplices(T: SimplicialCurrent) -> list:
    """The vertex tuples of T's support, in index order."""
    return list(map(tuple, T.complex.simplex_array(T.dim)[T.idx].tolist()))


def signature(T: SimplicialCurrent) -> tuple:
    """T's content independent of simplex indexing: its sorted
    (vertex tuple, coefficient) pairs."""
    return tuple(sorted(zip(support_simplices(T), T.coeff.tolist())))


def children_dict(table: ChildTable) -> dict:
    """A CSR transfer table as {old index: [(new index, sign), ...]}."""
    ptr = table.ptr.tolist()
    return {
        i: list(zip(table.child[a:b].tolist(), table.sign[a:b].tolist())) for i, (a, b) in enumerate(zip(ptr, ptr[1:]))
    }


def cut_edge_triples(ref: Refinement) -> list:
    """The cut points of a refinement as (u, v, t) triples: the point at
    parameter t from u on the edge (u, v)."""
    return list(zip(*ref.cut_edges.T.tolist(), ref.cut_t.tolist()))


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
# crossing-simplex splits written out per dimension (k <= 3): a quad is cut
# along the diagonal through its smallest id, a prism is coned from its
# smallest id over its other faces.  The one pulling rule of
# `slicing._split_pieces` must give the same piece sets.


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


def split_pieces_oracle(simplex, below_mask, cut):
    """Children (as unsorted vertex tuples) of a crossing simplex of
    dimension <= 3; `cut[(u, v)]` is the id of the cut point on edge {u,v}.
    Returns (below_children, above_children)."""
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


# ---------------------------------------------------------------------------
# level-set subdivision, one simplex at a time: every simplex of the complex
# is visited, volumes come from one Cayley-Menger call per new simplex and
# orientations from one determinant per child at the midpoint cut (t = 1/2 on
# every crossing edge), where no child is degenerate.  The batched, crossing-only
# `slicing.subdivide_at_level` must reproduce its Refinement exactly.


def subdivide_oracle(C: GeometricComplex, values, s) -> Refinement:
    """Split every simplex crossing {f = s} so {f <= s} becomes a subcomplex.

    Per-simplex volume is preserved by construction (children partition their
    parent); shared faces of neighbouring simplices are split identically via
    canonical global-id rules.
    """
    values = np.asarray(values, dtype=float)
    level, snapped, warning = snap_level(values, s)
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

    metric = C.metric
    if cut_edges:
        specs = [metric.interpolate((u, v), (1.0 - t, t)) for (u, v, t) in cut_edges]
        if isinstance(metric, MatrixMetric):  # stack the (ids, weights) pairs
            specs = tuple(np.array(part) for part in zip(*specs))
        metric = metric.grown(specs)

    children_tuples: dict[int, dict[int, list[tuple[int, ...]]]] = {}
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

    def bary_in(parent, gid, midpoint=False):
        coords = np.zeros(len(parent))
        if gid < n_old:
            coords[parent.index(gid)] = 1.0
        else:
            (u, v), t = bary_cache[gid - n_old]
            t = 0.5 if midpoint else t
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
        old_index = simplex_index(C, k)
        vols = np.empty(new_complex.count(k))
        for i, s_tuple in enumerate(new_lists[k]):
            j = old_index.get(s_tuple)
            vols[i] = old_masses[k][j] if j is not None else simplex_volume_from_sq(
                metric.pairwise_sq([s_tuple])
            )[0]
        new_complex._masses[k] = vols

    # signed children tables, oriented at the midpoint cut, with a
    # volume-fraction sanity check at the actual cut
    children: dict[int, ChildTable] = {}
    for k in C.dims:
        table = {}
        index = simplex_index(new_complex, k)
        for idx, pieces in children_tuples[k].items():
            parent = C.simplices[k][idx]
            if len(pieces) == 1 and tuple(sorted(pieces[0])) == parent:
                table[idx] = [(index[parent], 1)]
                continue
            entries = []
            frac = 0.0
            for piece in pieces:
                key = tuple(sorted(piece))
                frac += abs(float(np.linalg.det([bary_in(parent, g) for g in key])))
                det = float(np.linalg.det([bary_in(parent, g, midpoint=True) for g in key]))
                entries.append((index[key], 1 if det > 0 else -1))
            if abs(frac - 1.0) > 1e-6:
                warnings.append(
                    f"split of {parent} covers volume fraction {frac} (expected 1)"
                )
            table[idx] = entries
        entries = [table[i] for i in range(C.count(k))]
        ptr = np.cumsum([0] + [len(e) for e in entries])
        child, sign = np.array([pair for e in entries for pair in e], dtype=np.intp).reshape(-1, 2).T
        children[k] = ChildTable(ptr, child, sign)

    return Refinement(
        source=C,
        complex=new_complex,
        level=level,
        values=np.concatenate([values, np.full(len(cut_edges), level)]),
        snapped=snapped,
        children=children,
        cut_edges=np.array([(u, v) for u, v, _ in cut_edges], dtype=np.intp).reshape(-1, 2),
        cut_t=np.array([t for _, _, t in cut_edges]),
        n_old_vertices=n_old,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# chain operations one coefficient at a time, through dict indices: the
# array-native `boundary`, `push_forward`, `Refinement.transfer_current`,
# `support_closure` and `SimplicialCurrent.from_simplices` (and
# `nearest_vertex_correspondence`, one vertex at a time, and
# `close_under_faces`, one simplex at a time through tuple sets) must
# reproduce them exactly.


def permutation_sign(seq) -> int:
    """Sign of the permutation sorting `seq`; 0 if entries repeat (the
    one-tuple reference for `currents.sorted_with_sign`)."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    order = sorted(range(len(seq)), key=seq.__getitem__)
    visited = [False] * len(seq)
    for start in range(len(seq)):
        if visited[start]:
            continue
        length = 0
        j = start
        while not visited[j]:
            visited[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def barycenter_values(C: GeometricComplex, k: int, values) -> np.ndarray:
    """Mean of a vertex function over the vertices of each k-simplex of C."""
    return np.asarray(values, dtype=float)[C.simplex_array(k)].mean(axis=1)


def boundary_oracle(T: SimplicialCurrent) -> SimplicialCurrent:
    """Alternating-sign chain boundary; the zero current for dimension 0."""
    if T.dim == 0:
        return SimplicialCurrent.zero(T.complex, 0)
    k = T.dim
    faces = simplex_index(T.complex, k - 1)
    out: dict[int, int] = {}
    simplices = T.complex.simplices[k]
    for idx, c in T.coeffs.items():
        s = simplices[idx]
        for i in range(k + 1):
            face = s[:i] + s[i + 1 :]
            sign = -1 if i % 2 else 1
            j = faces[face]
            out[j] = out.get(j, 0) + sign * c
    return SimplicialCurrent(T.complex, k - 1, out)


def slice_oracle(T: SimplicialCurrent, f, s) -> SimplicialCurrent:
    """The slice of T by f at s by the boundary-difference formula, built
    from the public refinement and chain operations: d(T below) - (dT)
    below on the refinement at s."""
    ref = subdivide_at_level(T.complex, f.values, s)
    T2 = ref.transfer_current(T)
    return boundary(T2.restricted(ref.below(T.dim))) - boundary(T2).restricted(ref.below(T.dim - 1))


def level_star(T: SimplicialCurrent, values, s, crossing) -> SimplicialCurrent:
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


def tensor_eval_oracle(start: SimplicialCurrent, functions, grids, leaf):
    """`slicedfill._tensor_eval` one level at a time: each level cuts its
    own crossing star (or, for a final slice of dimension >= 2, the whole
    closure) with its own `slice_current`, and an ArgumentError skips it."""
    out = np.zeros(tuple(len(g) for g in grids) or (1,))
    skipped = 0

    def whole(depth, dim):
        return depth == len(grids) - 1 and dim > 2

    def rec(current, fns, depth, prefix):
        nonlocal skipped
        if depth == len(grids):
            out[prefix if prefix else 0] = leaf(current)
            return
        for i, t in enumerate(grids[depth]):
            try:
                cut = current if whole(depth, current.dim) else level_star(current, fns[0].values, float(t), True)
                sl = slice_current(cut, fns[0], float(t))
            except ArgumentError:
                skipped += 1
                continue
            rest = [sl.refinement.transfer_function(g) for g in fns[1:]]
            nested = support_closure(sl.current) if whole(depth + 1, sl.current.dim) else sl.current
            rec(nested, rest, depth + 1, prefix + (i,))

    rec(start, list(functions), 0, ())
    return out, skipped


def face_index_oracle(C: GeometricComplex, k: int) -> np.ndarray:
    """The face index of dimension k, each facet tuple of each k-simplex
    looked up in the {vertex tuple: index} dict of the (k-1)-simplices of
    C (-1 where it is missing)."""
    index = simplex_index(C, k - 1)
    rows = map(tuple, C.simplex_array(k).tolist())
    faces = [[index.get(s[:j] + s[j + 1 :], -1) for j in range(k + 1)] for s in rows]
    return np.array(faces, dtype=np.intp).reshape(-1, k + 1)


def push_forward_oracle(T: SimplicialCurrent, vmap, target: GeometricComplex) -> SimplicialCurrent:
    """Push a current through a vertex map, one coefficient at a time."""
    index = simplex_index(target, T.dim)
    out: dict[int, int] = {}
    for s, c in zip(support_simplices(T), T.coeff.tolist()):
        try:
            image = tuple(vmap[v] for v in s)
        except (KeyError, IndexError) as exc:
            raise ArgumentError(f"vertex map does not cover simplex {s}") from exc
        sign = permutation_sign(image)
        if sign == 0:
            continue
        key = tuple(sorted(image))
        if key not in index:
            raise ArgumentError(f"image simplex {key} not in target complex")
        j = index[key]
        out[j] = out.get(j, 0) + sign * c
    return SimplicialCurrent(target, T.dim, out)


def correspondence_oracle(CA: GeometricComplex, CB: GeometricComplex):
    """Nearest-vertex pairs in both directions, one vertex at a time,
    duplicates removed in first-seen order."""
    pa = CA.coords()
    pb = CB.coords()
    pairs = []
    for a in range(len(pa)):
        pairs.append((a, int(np.argmin(np.linalg.norm(pb - pa[a], axis=1)))))
    for b in range(len(pb)):
        pairs.append((int(np.argmin(np.linalg.norm(pa - pb[b], axis=1))), b))
    seen: set = set()
    out = []
    for pr in pairs:
        if pr not in seen:
            seen.add(pr)
            out.append(pr)
    return out


def glued_matrix_oracle(CA: GeometricComplex, CB: GeometricComplex, pairs, delta):
    """The glued distance matrix of two vertex metrics, one matched pair at a
    time: cross distances are the least d_A(a, x) + delta + d_B(y, b)."""

    def full(metric):
        mat = np.zeros((metric.n, metric.n))
        for i in range(metric.n):
            mat[i] = metric.row(i)
        return 0.5 * (mat + mat.T)

    DA, DB = full(CA.metric), full(CB.metric)
    cross = np.full((len(DA), len(DB)), np.inf)
    for (x, y) in pairs:
        cross = np.minimum(cross, DA[:, x][:, None] + delta + DB[y, :][None, :])
    return np.block([[DA, cross], [cross.T, DB]])


def transfer_oracle(ref: Refinement, T: SimplicialCurrent) -> SimplicialCurrent:
    table = ref.children[T.dim]
    out: dict[int, int] = {}
    for old_idx, c in T.coeffs.items():
        for j in range(table.ptr[old_idx], table.ptr[old_idx + 1]):
            new_idx = int(table.child[j])
            out[new_idx] = out.get(new_idx, 0) + c * int(table.sign[j])
    return SimplicialCurrent(ref.complex, T.dim, out)


def two_cut_annulus_mass(T: SimplicialCurrent, f, a, b) -> float:
    """Mass of T on {a < f < b} by refinement: T's whole complex cut at a,
    T above a on that cut, the cut cut again at b, and the mass of that
    part below b."""
    if b <= a:
        return 0.0
    ref1 = subdivide_at_level(T.complex, f.values, a)
    T1 = ref1.transfer_current(T).restricted(~ref1.below(T.dim))
    ref2 = subdivide_at_level(ref1.complex, ref1.values, b)
    return mass(ref2.transfer_current(T1).restricted(ref2.below(T.dim)))


def support_closure_oracle(T: SimplicialCurrent) -> SimplicialCurrent:
    """The same current re-rooted on the face closure of its support."""
    if T.is_zero():
        C2 = GeometricComplex(T.complex.metric, {k: [] for k in T.complex.dims})
        return SimplicialCurrent(C2, T.dim, {})
    tops = support_simplices(T)
    sub = close_under_faces(tops)
    for k in range(T.dim + 1):
        sub.setdefault(k, [])
    C2 = GeometricComplex(T.complex.metric, sub)
    for k in sub:
        parent_index = simplex_index(T.complex, k)
        parent_masses = T.complex.masses(k)
        vols = np.empty(C2.count(k))
        for i, s in enumerate(C2.simplices[k]):
            vols[i] = parent_masses[parent_index[s]]
        C2._masses[k] = vols
    index = simplex_index(C2, T.dim)
    coeffs = {index[s]: c for s, c in zip(support_simplices(T), T.coeff.tolist())}
    return SimplicialCurrent(C2, T.dim, coeffs)


def close_under_faces_oracle(top_simplices):
    """All faces of the given simplices, grouped and sorted per dimension."""
    by_dim: dict[int, set] = {}
    for simplex in top_simplices:
        s = tuple(sorted(simplex))
        if len(set(s)) != len(s):
            raise ComplexError(f"degenerate simplex {simplex}")
        for size in range(1, len(s) + 1):
            by_dim.setdefault(size - 1, set()).update(itertools.combinations(s, size))
    return {k: sorted(faces) for k, faces in by_dim.items()}


def from_simplices_oracle(complex, dim, pairs) -> SimplicialCurrent:
    """A chain from (vertex tuple, coefficient) pairs, one pair at a time:
    permuted tuples contribute the sign of the sorting permutation."""
    index = simplex_index(complex, dim)
    coeffs: dict[int, int] = {}
    for simplex, c in pairs:
        sign = permutation_sign(simplex)
        if sign == 0:
            raise ArgumentError(f"degenerate simplex {simplex}")
        key = tuple(sorted(simplex))
        if key not in index:
            raise ArgumentError(f"simplex {key} not in complex")
        idx = index[key]
        coeffs[idx] = coeffs.get(idx, 0) + sign * int(c)
    return SimplicialCurrent(complex, dim, coeffs)


def matrix_add_points_oracle(mat, specs):
    """A distance matrix grown by flat interpolations (ids, weights), one
    point at a time: each new row comes from the matrix grown so far."""
    mat = np.asarray(mat, dtype=float)
    for ids, w in specs:
        ids = list(ids)
        w = np.asarray(w, dtype=float)
        n = len(mat)
        rows_sq = mat[ids] ** 2
        cross = mat[np.ix_(ids, ids)] ** 2
        new_sq = w @ rows_sq - 0.5 * float(w @ cross @ w)
        new_row = np.sqrt(np.maximum(new_sq, 0.0))
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n] = mat
        grown[n, :n] = new_row
        grown[:n, n] = new_row
        mat = grown
    return mat


# ---------------------------------------------------------------------------
# level snapping by a scan over every cluster of vertex values:
# `slicing.snap_level` looks up the one cluster around s and must agree.


def snap_level_oracle(values, s):
    """Move s off vertex values; returns (level, snapped?, warning or None).

    Vertex values within 2*tol of each other are treated as one cluster and
    the level is pushed just past the cluster, towards the interior of the
    value range when the cluster contains an extreme value.
    """
    uniq = np.unique(np.asarray(values, dtype=float))
    if len(uniq) == 0:
        return float(s), False, None
    rng = float(uniq[-1] - uniq[0]) if len(uniq) > 1 else 1.0
    tol = SNAP_REL * (rng if rng > 0 else 1.0)
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


def coo_boundary_matrix(C: GeometricComplex, k: int):
    """The boundary operator from k-chains to (k-1)-chains as a COO matrix
    of the face index, one (face, simplex, (-1)^j) triple per entry."""
    faces = C.face_index(k)
    signs = np.tile(np.where(np.arange(k + 1) % 2, -1.0, 1.0), len(faces))
    cols = np.repeat(np.arange(len(faces)), k + 1)
    return coo_matrix((signs, (faces.ravel(), cols)), shape=(C.count(k - 1), C.count(k)))


def hstack_weighted_l1(blocks, rhs, weights):
    """min sum w_i |x_i| subject to sum B_i x_i = rhs, built as the split
    model hstack([B_1, -B_1, B_2, -B_2, ...]) by scipy's sparse stacking and
    solved by `scipy.optimize.linprog`: the reference for fillvol's CSC
    build and its `milp` call.  Returns (value, [x_1, x_2, ...])."""
    A = hstack([hstack([b, -b]) for b in blocks], format="csc")
    cost = np.concatenate([np.concatenate([w, w]) for w in weights])
    res = linprog(cost, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    parts, offset = [], 0
    for b in blocks:
        m = b.shape[1]
        parts.append(res.x[offset : offset + m] - res.x[offset + m : offset + 2 * m])
        offset += 2 * m
    return float(res.fun), parts


def lp_filling_volume(B: SimplicialCurrent, K: GeometricComplex):
    """The in-complex weighted-L1 filling LP: minimal mass of a real chain
    on K with boundary B.  The reference for the planar winding integral."""
    k = B.dim
    return fillvol._lp_report(
        [fillvol.boundary_matrix(K, k + 1)], fillvol._chain_vector(B), [K.masses(k + 1)], ["S"],
        fillvol.cone_bound(B), "filling LP infeasible",
    )


def lp_flat_distance(S: SimplicialCurrent, T: SimplicialCurrent, K: GeometricComplex):
    """The in-complex flat-norm LP: min M(U) + M(V) over real chains on K
    with S - T = U + bd(V)."""
    m = S.dim
    rhs = fillvol._chain_vector(S) - fillvol._chain_vector(T)
    return fillvol._lp_report(
        [eye(K.count(m), format="csc"), fillvol.boundary_matrix(K, m + 1)], rhs,
        [K.masses(m), K.masses(m + 1)], ["U", "V"], float(K.masses(m) @ np.abs(rhs)), "flat LP infeasible",
    )


def exhaustive_flat_distance(
    S: SimplicialCurrent, T: SimplicialCurrent, K: GeometricComplex | None = None, bound=2
) -> fillvol.FillingReport:
    """Exact integer flat distance by enumerating V-coefficients in a box.

    Enumeration is vectorized but exponential in the number of top
    simplices; intended as an oracle on instances with at most a dozen
    simplices.
    """
    if K is None:
        K = S.complex
    m = S.dim
    D = fillvol.boundary_matrix(K, m + 1).toarray()
    n_v = D.shape[1]
    if n_v > 8:
        raise ArgumentError("exhaustive search limited to 8 top simplices")
    rhs = fillvol._chain_vector(S) - fillvol._chain_vector(T)
    w_u = K.masses(m)
    w_v = K.masses(m + 1)
    grids = np.meshgrid(*([np.arange(-bound, bound + 1)] * n_v), indexing="ij")
    V = np.stack([g.ravel() for g in grids], axis=1) if n_v else np.zeros((1, 0))
    U = rhs[None, :] - V @ D.T
    costs = np.abs(U) @ w_u + np.abs(V) @ w_v
    best = int(np.argmin(costs))
    value = float(costs[best])
    cert_v = {int(i): float(v) for i, v in enumerate(V[best]) if v}
    cert_u = {int(i): float(u) for i, u in enumerate(U[best]) if u}
    return fillvol.FillingReport.exact(value, "exhaustive", {"U": cert_u, "V": cert_v})


def raster_winding_integral(pts, triangles, weights, n):
    """Midpoint rule for the integral of |sum_i c_i o_i 1_{t_i}| over R^2,
    where o_i is the orientation sign of triangle t_i (rows of vertex ids
    into `pts`) and c_i its weight.  Returns (value, bound) with
    |value - exact| <= bound.

    The grid is n x n cells of size hx x hy over the bounding box, sampled
    at cell centres.  A cell whose interior misses the boundary of t_i sees
    1_{t_i} constant, so the error of a cell is at most hx * hy times the
    sum of |c_i| over the triangles whose boundary crosses its interior, and
    a segment crosses the interiors of at most |dx| / hx + |dy| / hy + 3
    cells.
    """
    pts = np.asarray(pts, dtype=float)
    tri = pts[np.asarray(triangles)]
    weights = np.asarray(weights, dtype=float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    hx, hy = (hi - lo) / n
    gx = lo[0] + hx * (np.arange(n) + 0.5)
    gy = lo[1] + hy * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    W = np.zeros_like(X)
    bound = 0.0
    for (a, b, c), w in zip(tri, weights):
        orient = np.sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        inside = np.ones_like(X, dtype=bool)
        for p, q in ((a, b), (b, c), (c, a)):
            side = (q[0] - p[0]) * (Y - p[1]) - (q[1] - p[1]) * (X - p[0])
            inside &= orient * side >= 0
            bound += abs(w) * (abs(q[0] - p[0]) / hx + abs(q[1] - p[1]) / hy + 3) * hx * hy
        W += w * orient * inside
    return float(np.abs(W).sum() * hx * hy), bound
