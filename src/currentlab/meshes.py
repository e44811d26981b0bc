"""Deterministic mesh generators used by experiments and tests.

Each builder returns (complex, current) where the current is the
consistently oriented fundamental chain of the mesh.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .complexes import CallableMetric, EuclideanMetric, GeometricComplex
from .currents import SimplicialCurrent
from .metricspace import ArgumentError


def _oriented(idx, simplices, frames, what=None):
    """Coefficients +-1 of canonical simplices from the signs of their frame
    determinants (one stacked det over an (n, k, k) array); a zero
    determinant raises ArgumentError when `what` names the simplex kind."""
    coeffs = {}
    for s, det in zip(simplices, np.linalg.det(frames).tolist()):
        if what and det == 0.0:
            raise ArgumentError(f"degenerate {what} {s}")
        coeffs[idx[s]] = 1 if det > 0 else -1
    return coeffs


def interval_chain(n: int, length: float = 1.0):
    """n edges along a segment, oriented left to right."""
    coords = np.linspace(0.0, length, n + 1)[:, None]
    metric = EuclideanMetric(coords)
    edges = [(i, i + 1) for i in range(n)]
    C = GeometricComplex.from_top_simplices(metric, edges)
    T = SimplicialCurrent.from_simplices(C, 1, [(e, 1) for e in edges])
    return C, T


def square_complex(size: float = 1.0):
    """Unit square as two positively oriented triangles."""
    pts = np.array([[0, 0], [size, 0], [0, size], [size, size]], dtype=float)
    metric = EuclideanMetric(pts)
    tris = [(0, 1, 3), (0, 3, 2)]
    C = GeometricComplex.from_top_simplices(metric, tris)
    ids = [tuple(sorted(t)) for t in tris]
    p = pts[np.array(ids)]
    return C, SimplicialCurrent(C, 2, _oriented(C.index(2), ids, p[:, 1:] - p[:, :1]))


def grid_mesh(nx: int, ny: int, size_x: float = 1.0, size_y: float = 1.0):
    """Rectangular grid of crossed-diagonal triangles, oriented positively."""
    xs = np.linspace(0, size_x, nx + 1)
    ys = np.linspace(0, size_y, ny + 1)
    pts = np.array([[x, y] for y in ys for x in xs])

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i, j + 1), vid(i + 1, j + 1)
            tris.extend([(a, b, d), (a, d, c)])
    metric = EuclideanMetric(pts)
    C = GeometricComplex.from_top_simplices(metric, tris)
    ids = [tuple(sorted(t)) for t in tris]
    p = pts[np.array(ids)]
    return C, SimplicialCurrent(C, 2, _oriented(C.index(2), ids, p[:, 1:] - p[:, :1]))


def disk_mesh(h: float = 0.05, radius: float = 1.0):
    """Hexagonal-pattern disk triangulation with ring spacing about h."""
    rings = max(1, int(round(radius / h)))
    pts = [(0.0, 0.0)]
    ring_ids = [[0]]
    for r in range(1, rings + 1):
        n = 6 * r
        ids = []
        rad = radius * r / rings
        for i in range(n):
            a = 2 * math.pi * i / n
            ids.append(len(pts))
            pts.append((rad * math.cos(a), rad * math.sin(a)))
        ring_ids.append(ids)
    tris = []
    inner = ring_ids[1]
    for i in range(len(inner)):
        tris.append((0, inner[i], inner[(i + 1) % len(inner)]))
    for r in range(2, rings + 1):
        a_ids, b_ids = ring_ids[r - 1], ring_ids[r]
        na, nb = len(a_ids), len(b_ids)
        i = j = 0
        while i < na or j < nb:
            if j == nb or (i < na and (i + 1) * nb <= (j + 1) * na):
                tris.append((a_ids[i % na], b_ids[j % nb], a_ids[(i + 1) % na]))
                i += 1
            else:
                tris.append((a_ids[i % na], b_ids[j % nb], b_ids[(j + 1) % nb]))
                j += 1
    pts = np.array(pts)
    metric = EuclideanMetric(pts)
    C = GeometricComplex.from_top_simplices(metric, tris)
    ids = [tuple(sorted(t)) for t in tris]
    p = pts[np.array(ids)]
    return C, SimplicialCurrent(C, 2, _oriented(C.index(2), ids, p[:, 1:] - p[:, :1], "disk triangle"))


# ---------------------------------------------------------------------------
# spheres


def _sphere_arc_metric():
    def fn(A, B):
        a = A / np.linalg.norm(A, axis=1, keepdims=True)
        b = B / np.linalg.norm(B, axis=1, keepdims=True)
        dots = np.clip((a * b).sum(axis=1), -1.0, 1.0)
        return np.arccos(dots)

    return fn


def sphere_mesh(n_lat: int, n_lon: int, metric: str = "geodesic"):
    """Latitude-longitude triangulation of the unit sphere.

    Vertex 0 is the north pole; when n_lat is even the row at index
    n_lat // 2 lies exactly on the equator, so pole-to-equator vertex
    distances are exactly pi/2 in the geodesic metric.
    """
    if n_lat < 2 or n_lon < 3:
        raise ArgumentError("sphere mesh needs n_lat >= 2 and n_lon >= 3")
    pts = [(0.0, 0.0, 1.0)]
    rows = []
    for i in range(1, n_lat):
        theta = math.pi * i / n_lat
        row = []
        for j in range(n_lon):
            phi = 2 * math.pi * j / n_lon
            row.append(len(pts))
            pts.append(
                (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
            )
        rows.append(row)
    south = len(pts)
    pts.append((0.0, 0.0, -1.0))
    pts = np.array(pts)

    tris = []
    top = rows[0]
    for j in range(n_lon):
        tris.append((0, top[j], top[(j + 1) % n_lon]))
    for i in range(len(rows) - 1):
        a_row, b_row = rows[i], rows[i + 1]
        for j in range(n_lon):
            a, a2 = a_row[j], a_row[(j + 1) % n_lon]
            b, b2 = b_row[j], b_row[(j + 1) % n_lon]
            tris.extend([(a, b, b2), (a, b2, a2)])
    bottom = rows[-1]
    for j in range(n_lon):
        tris.append((south, bottom[(j + 1) % n_lon], bottom[j]))

    if metric == "geodesic":
        m = CallableMetric(pts, _sphere_arc_metric())
    elif metric == "euclidean":
        m = EuclideanMetric(pts)
    else:
        raise ArgumentError(f"unknown sphere metric {metric!r}")
    C = GeometricComplex.from_top_simplices(m, tris)
    ids = [tuple(sorted(t)) for t in tris]
    p = pts[np.array(ids)]
    frames = np.concatenate([p[:, :1], p[:, 1:] - p[:, :1]], axis=1)
    return C, SimplicialCurrent(C, 2, _oriented(C.index(2), ids, frames, "sphere triangle"))


def equator_vertex(C: GeometricComplex, n_lat: int, n_lon: int) -> int:
    """First vertex on the equator row of a sphere_mesh with even n_lat."""
    if n_lat % 2:
        raise ArgumentError("equator vertex needs even n_lat")
    return 1 + (n_lat // 2 - 1) * n_lon


def add_spikes(C: GeometricComplex, T: SimplicialCurrent, count: int, width: float, height: float = 1.0):
    """Attach `count` thin triangular fins to a Euclidean sphere mesh.

    Each fin has area about width * height / 2. Returns the new
    (complex, current, tip vertex ids, base vertex ids).
    """
    coords = C.coords()
    if coords is None:
        raise ArgumentError("spikes need a coordinate-backed sphere mesh")
    n = len(coords)
    # farthest-point sampling of spike bases, seeded at vertex 0
    bases = [0]
    d = np.linalg.norm(coords - coords[0], axis=1)
    while len(bases) < count:
        nxt = int(np.argmax(d))
        bases.append(nxt)
        d = np.minimum(d, np.linalg.norm(coords - coords[nxt], axis=1))
    new_pts = []
    new_tris = []
    tips = []
    side_ids = []
    for b in bases:
        v = coords[b]
        dist = np.linalg.norm(coords - v, axis=1)
        dist[b] = np.inf
        u = coords[int(np.argmin(dist))]
        direction = (u - v) / np.linalg.norm(u - v)
        a_id = n + len(new_pts)
        new_pts.append(v + width * direction)
        tip_id = n + len(new_pts)
        new_pts.append(v + height * v / np.linalg.norm(v))
        new_tris.append((b, a_id, tip_id))
        tips.append(tip_id)
        side_ids.append(a_id)
    all_pts = np.vstack([coords, np.array(new_pts)])
    top = [T.simplex(i) for i in T.coeffs] + new_tris
    metric = EuclideanMetric(all_pts)
    C2 = GeometricComplex.from_top_simplices(metric, top)
    idx = C2.index(2)
    coeffs = {}
    for i, c in T.coeffs.items():
        coeffs[idx[T.simplex(i)]] = c
    for tri in new_tris:
        coeffs[idx[tuple(sorted(tri))]] = 1
    return C2, SimplicialCurrent(C2, 2, coeffs), tips, bases


# ---------------------------------------------------------------------------
# 3-dimensional boxes and tori


_KUHN_PERMS = list(itertools.permutations(range(3)))


def _box_cells(origin, lengths, cells, periodic):
    n = list(cells)
    steps = [lengths[a] / n[a] for a in range(3)]
    sizes = [n[a] if periodic[a] else n[a] + 1 for a in range(3)]

    def vid(i, j, k):
        ii = i % sizes[0] if periodic[0] else i
        jj = j % sizes[1] if periodic[1] else j
        kk = k % sizes[2] if periodic[2] else k
        return (kk * sizes[1] + jj) * sizes[0] + ii

    coords = np.zeros((sizes[0] * sizes[1] * sizes[2], 3))
    for k in range(sizes[2]):
        for j in range(sizes[1]):
            for i in range(sizes[0]):
                coords[vid(i, j, k)] = (
                    origin[0] + i * steps[0],
                    origin[1] + j * steps[1],
                    origin[2] + k * steps[2],
                )
    tets = []
    local = []
    for k in range(n[2]):
        for j in range(n[1]):
            for i in range(n[0]):
                corner = np.array([i, j, k])
                for perm in _KUHN_PERMS:
                    offs = [np.zeros(3, dtype=int)]
                    for axis in perm:
                        nxt = offs[-1].copy()
                        nxt[axis] += 1
                        offs.append(nxt)
                    ids = tuple(vid(*(corner + o)) for o in offs)
                    if len(set(ids)) != 4:
                        raise ArgumentError("periodic box too coarse: repeated vertex in a cell")
                    pts = [(corner + o) * steps for o in offs]
                    tets.append(ids)
                    local.append({g: p for g, p in zip(ids, pts)})
    return coords, tets, local, sizes


def box_mesh(origin, lengths, cells, periodic=(False, False, False), metric_fn=None, wrap=None):
    """Kuhn tetrahedralization of a box, optionally periodic per axis.

    With `metric_fn` the vertices keep raw chart coordinates and distances
    come from the callable (used for flat tori); otherwise Euclidean.
    """
    coords, tets, local, _ = _box_cells(origin, lengths, cells, periodic)
    if metric_fn is None:
        metric = EuclideanMetric(coords)
    else:
        metric = CallableMetric(coords, metric_fn, wrap=wrap)
    seen = set()
    for t in tets:
        key = tuple(sorted(t))
        if key in seen:
            raise ArgumentError("periodic box too coarse: duplicate tetrahedra")
        seen.add(key)
    C = GeometricComplex.from_top_simplices(metric, tets)
    ids = [tuple(sorted(t)) for t in tets]
    p = np.array([[loc[g] for g in key] for key, loc in zip(ids, local)])
    return C, SimplicialCurrent(C, 3, _oriented(C.index(3), ids, p[:, 1:] - p[:, :1], "tetrahedron"))


def torus_metric(circumferences):
    """Flat-torus distance on chart coordinates; period 0 means a flat axis."""
    periods = np.asarray(circumferences, dtype=float)

    def fn(A, B):
        delta = np.abs(np.asarray(A, dtype=float) - np.asarray(B, dtype=float))
        for axis, period in enumerate(periods):
            if period > 0:
                delta[:, axis] = np.minimum(delta[:, axis], period - delta[:, axis])
        return np.sqrt((delta**2).sum(axis=1))

    return fn


def full_torus_mesh(eps: float, cells=(6, 6, 4)):
    """Flat 3-torus with circumferences (2*pi, 2*pi, 2*eps), fully periodic."""
    circ = (2 * math.pi, 2 * math.pi, 2 * eps)
    return box_mesh(
        (0.0, 0.0, 0.0),
        circ,
        cells,
        periodic=(True, True, True),
        metric_fn=torus_metric(circ),
        wrap=circ,
    )


def torus_patch_mesh(eps: float, half_width: float, cells_per_axis: int, z_periodic=None):
    """Chart patch of the thin torus around the origin.

    The two wide axes are flat within the patch; the z axis wraps with
    circumference 2*eps.  When the requested half width reaches the z
    period, the z axis is meshed periodically instead.
    """
    circ_z = 2 * eps
    if z_periodic is None:
        z_periodic = 2 * half_width >= circ_z
    fn = torus_metric((0.0, 0.0, circ_z))
    if z_periodic:
        nz = max(3, int(round(cells_per_axis * circ_z / (2 * half_width))))
        return box_mesh(
            (-half_width, -half_width, 0.0),
            (2 * half_width, 2 * half_width, circ_z),
            (cells_per_axis, cells_per_axis, nz),
            periodic=(False, False, True),
            metric_fn=fn,
            wrap=(0.0, 0.0, circ_z),
        )
    return box_mesh(
        (-half_width, -half_width, -half_width),
        (2 * half_width, 2 * half_width, 2 * half_width),
        (cells_per_axis, cells_per_axis, cells_per_axis),
        periodic=(False, False, False),
        metric_fn=fn,
        wrap=(0.0, 0.0, circ_z),
    )


def euclidean_box_mesh(half_width: float, cells_per_axis: int, center=(0.0, 0.0, 0.0)):
    """Plain Euclidean box tetrahedralization centred at `center`."""
    origin = tuple(c - half_width for c in center)
    side = 2 * half_width
    return box_mesh(origin, (side, side, side), (cells_per_axis,) * 3)


def nearest_vertex(C: GeometricComplex, point) -> int:
    coords = C.coords()
    if coords is None:
        raise ArgumentError("nearest_vertex needs coordinates")
    point = np.asarray(point, dtype=float)
    if point.shape != coords.shape[1:]:
        raise ArgumentError(f"point of shape {point.shape} for {coords.shape[1]}-d vertex coordinates")
    return int(np.argmin(np.linalg.norm(coords - point, axis=1)))
