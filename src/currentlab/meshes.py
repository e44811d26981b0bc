"""Deterministic mesh generators used by experiments and tests.

Each builder returns (complex, current) where the current is the
consistently oriented fundamental chain of the mesh.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .complexes import CallableMetric, EuclideanMetric, GeometricComplex, distinct_rows, lookup_rows
from .currents import SimplicialCurrent
from .metricspace import ArgumentError


def _fundamental(metric, ids, frames, what=None):
    """The face closure of the canonical top simplices `ids` (an (n, k+1)
    array of sorted rows), and its chain with coefficient +-1 on each, the
    sign of its frame determinant (one stacked det over an (n, k, k) array);
    a zero determinant raises ArgumentError when `what` names the simplex
    kind."""
    C = GeometricComplex.from_top_simplices(metric, ids)
    det = np.linalg.det(frames)
    if what and (det == 0.0).any():
        raise ArgumentError(f"degenerate {what} {tuple(ids[np.argmax(det == 0.0)].tolist())}")
    k = ids.shape[1] - 1
    idx = lookup_rows(C.simplex_array(k), ids)
    return C, SimplicialCurrent.from_arrays(C, k, idx, np.where(det > 0, 1, -1))


def interval_chain(n: int, length: float = 1.0):
    """n edges along a segment, oriented left to right."""
    coords = np.linspace(0.0, length, n + 1)[:, None]
    edges = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    C = GeometricComplex.from_top_simplices(EuclideanMetric(coords), edges)
    return C, SimplicialCurrent.full(C, 1)


def square_complex(size: float = 1.0):
    """Unit square as two positively oriented triangles."""
    return grid_mesh(1, 1, size, size)


def grid_mesh(nx: int, ny: int, size_x: float = 1.0, size_y: float = 1.0):
    """Rectangular grid of crossed-diagonal triangles, oriented positively."""
    xs = np.linspace(0, size_x, nx + 1)
    ys = np.linspace(0, size_y, ny + 1)
    pts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    vid = np.arange(len(pts)).reshape(ny + 1, nx + 1)  # vid[j, i] is the point (xs[i], ys[j])
    a, b, c, d = vid[:-1, :-1], vid[:-1, 1:], vid[1:, :-1], vid[1:, 1:]
    ids = np.sort(np.stack([a, b, d, a, d, c], axis=-1).reshape(-1, 3), axis=1)
    p = pts[ids]
    return _fundamental(EuclideanMetric(pts), ids, p[:, 1:] - p[:, :1])


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
    ids = np.sort(tris, axis=1)
    p = pts[ids]
    return _fundamental(EuclideanMetric(pts), ids, p[:, 1:] - p[:, :1], "disk triangle")


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
    for i in range(1, n_lat):
        theta = math.pi * i / n_lat
        for j in range(n_lon):
            phi = 2 * math.pi * j / n_lon
            pts.append(
                (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
            )
    pts.append((0.0, 0.0, -1.0))
    pts = np.array(pts)

    rows = 1 + np.arange(n_lat - 1)[:, None] * n_lon + np.arange(n_lon)  # vertex ids per latitude
    nxt = np.roll(rows, -1, axis=1)  # each vertex's neighbour along its latitude
    band = np.stack([rows[:-1], rows[1:], nxt[1:], rows[:-1], nxt[1:], nxt[:-1]], axis=-1)
    tris = np.vstack([
        np.column_stack([np.zeros(n_lon, dtype=int), rows[0], nxt[0]]),
        band.reshape(-1, 3),
        np.column_stack([np.full(n_lon, len(pts) - 1), nxt[-1], rows[-1]]),
    ])

    if metric == "geodesic":
        m = CallableMetric(pts, _sphere_arc_metric())
    elif metric == "euclidean":
        m = EuclideanMetric(pts)
    else:
        raise ArgumentError(f"unknown sphere metric {metric!r}")
    ids = np.sort(tris, axis=1)
    p = pts[ids]
    return _fundamental(m, ids, np.concatenate([p[:, :1], p[:, 1:] - p[:, :1]], axis=1), "sphere triangle")


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
    all_pts = np.vstack([coords, np.array(new_pts)])
    # each fin (base, side, tip) is already in canonical order
    top = np.vstack([T.complex.simplex_array(2)[T.idx], new_tris])
    C2 = GeometricComplex.from_top_simplices(EuclideanMetric(all_pts), top)
    idx = lookup_rows(C2.simplex_array(2), top)
    S = SimplicialCurrent.from_arrays(C2, 2, idx, np.concatenate([T.coeff, np.ones(len(new_tris), np.int64)]))
    return C2, S, tips, bases


# ---------------------------------------------------------------------------
# 3-dimensional boxes and tori


# the four lattice points of each of the six Kuhn tetrahedra of a unit cell:
# from its corner along the three axes, in each order
_KUHN_WALKS = np.array(
    [np.cumsum(np.vstack([np.zeros(3, dtype=int), np.eye(3, dtype=int)[list(p)]]), axis=0)
     for p in itertools.permutations(range(3))]
)


def _lattice(shape):
    """The points (i, j, k) of a box lattice of the given shape, i fastest."""
    return np.indices(tuple(shape)[::-1]).reshape(3, -1)[::-1].T


def box_mesh(origin, lengths, cells, periodic=(False, False, False), metric_fn=None, wrap=None):
    """Kuhn tetrahedralization of a box, optionally periodic per axis.

    With `metric_fn` the vertices keep raw chart coordinates and distances
    come from the callable (used for flat tori); otherwise Euclidean.
    """
    n = np.array(cells)
    steps = np.array([lengths[a] / n[a] for a in range(3)])
    sizes = np.where(periodic, n, n + 1)
    coords = np.asarray(origin, dtype=float) + _lattice(sizes) * steps
    # each tetrahedron's lattice points, unwrapped within its own cell
    local = (_lattice(n)[:, None, None, :] + _KUHN_WALKS).reshape(-1, 4, 3)
    wrapped = np.where(periodic, local % sizes, local)
    tets = (wrapped[..., 2] * sizes[1] + wrapped[..., 1]) * sizes[0] + wrapped[..., 0]
    order = np.argsort(tets, axis=1)
    ids = np.take_along_axis(tets, order, axis=1)
    if (ids[:, 1:] == ids[:, :-1]).any():
        raise ArgumentError("periodic box too coarse: repeated vertex in a cell")
    if len(distinct_rows(ids)) < len(ids):
        raise ArgumentError("periodic box too coarse: duplicate tetrahedra")
    metric = EuclideanMetric(coords) if metric_fn is None else CallableMetric(coords, metric_fn, wrap=wrap)
    # the frames are taken in the chart of each tetrahedron's own cell
    p = np.take_along_axis(local, order[:, :, None], axis=1) * steps
    return _fundamental(metric, ids, p[:, 1:] - p[:, :1], "tetrahedron")


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
