"""Geometric simplicial complexes over Euclidean, matrix or callable metrics.

A complex stores simplices per dimension in canonical (sorted vertex) order,
is closed under faces, and carries a k-volume weight per simplex computed
from pairwise vertex distances via the Cayley-Menger determinant.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .metricspace import ArgumentError, FiniteMetricSpace

VOLUME_FLOOR = 1e-12
EMBED_TOL = 1e-9


class ComplexError(ValueError):
    """Structural problem in a complex: missing faces, duplicates, bad volumes."""


# ---------------------------------------------------------------------------
# metric backends


class EuclideanMetric:
    """Points in R^d with the Euclidean distance."""

    def __init__(self, coords):
        self.coords = np.asarray(coords, dtype=float)
        if self.coords.ndim == 1:
            self.coords = self.coords[:, None]

    @property
    def n(self):
        return len(self.coords)

    def dist(self, i, j):
        """Distance from vertex i to vertex j, or to each vertex of an id array j."""
        diff = self.coords[i] - self.coords[j]
        if np.ndim(j) == 0:
            return float(np.linalg.norm(diff))
        # row-wise x @ x: the BLAS dot np.linalg.norm takes on one vector
        return np.sqrt(diff[:, None, :] @ diff[:, :, None])[:, 0, 0]

    def pairwise_sq(self, ids):
        """Squared distances (..., m, m) among each row of an (..., m) id array."""
        pts = self.coords[np.asarray(ids, dtype=np.intp)]
        diff = pts[..., :, None, :] - pts[..., None, :, :]
        return (diff**2).sum(axis=-1)

    def row(self, i):
        return np.linalg.norm(self.coords - self.coords[i], axis=1)

    def interpolate(self, ids, weights):
        return np.asarray(weights, dtype=float) @ self.coords[list(ids)]

    def add_points(self, raw_points):
        raw = np.atleast_2d(np.asarray(raw_points, dtype=float))
        start = self.n
        self.coords = np.vstack([self.coords, raw])
        return list(range(start, self.n))

    def copy(self):
        return EuclideanMetric(self.coords.copy())


class CallableMetric:
    """Raw points plus a vectorized distance function d(A, B) on point arrays.

    `wrap` optionally gives per-coordinate periods for chart-aware simplex
    interpolation (used by flat tori); 0 means a non-periodic coordinate.
    """

    def __init__(self, points, fn, wrap=None):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.fn = fn
        self.wrap = None if wrap is None else np.asarray(wrap, dtype=float)

    @property
    def n(self):
        return len(self.points)

    def dist(self, i, j):
        """Distance from vertex i to vertex j, or to each vertex of an id array j."""
        others = self.points[np.atleast_1d(j)]
        d = self.fn(np.repeat(self.points[i][None, :], len(others), axis=0), others)
        return float(d[0]) if np.ndim(j) == 0 else d

    def pairwise_sq(self, ids):
        """Squared distances (..., m, m) among each row of an (..., m) id array.

        One `fn` call covers the pairs a <= b of every row; the diagonal is
        evaluated, not assumed 0, since d(x, x) may round away from 0.
        """
        ids = np.asarray(ids, dtype=np.intp)
        a, b = np.triu_indices(ids.shape[-1])
        dim = self.points.shape[1]
        d = self.fn(self.points[ids[..., a]].reshape(-1, dim), self.points[ids[..., b]].reshape(-1, dim))
        d = np.reshape(d, ids.shape[:-1] + a.shape)
        out = np.empty(ids.shape + ids.shape[-1:])
        out[..., a, b] = d
        out[..., b, a] = d
        return out**2

    def row(self, i):
        return self.fn(np.repeat(self.points[i][None, :], self.n, axis=0), self.points)

    def interpolate(self, ids, weights):
        pts = self.points[list(ids)].copy()
        w = np.asarray(weights, dtype=float)
        if self.wrap is not None:
            # unwrap into the chart of the first vertex before averaging
            for axis, period in enumerate(self.wrap):
                if period <= 0:
                    continue
                ref = pts[0, axis]
                delta = pts[:, axis] - ref
                delta -= period * np.round(delta / period)
                pts[:, axis] = ref + delta
        new = w @ pts
        if self.wrap is not None:
            for axis, period in enumerate(self.wrap):
                if period > 0:
                    new[axis] = new[axis] % period
        return new

    def add_points(self, raw_points):
        raw = np.atleast_2d(np.asarray(raw_points, dtype=float))
        start = self.n
        self.points = np.vstack([self.points, raw])
        return list(range(start, self.n))

    def copy(self):
        return CallableMetric(self.points.copy(), self.fn, wrap=self.wrap)


class MatrixMetric:
    """Backed by an explicit distance matrix.

    New points are flat interpolations inside a simplex: the distance row of
    a barycentric combination is computed from vertex distances alone, which
    is exact whenever the touched configuration embeds in Euclidean space.
    """

    def __init__(self, dist):
        self.mat = np.asarray(dist, dtype=float)

    @classmethod
    def from_space(cls, space: FiniteMetricSpace):
        return cls(space.dist.copy())

    @property
    def n(self):
        return len(self.mat)

    def dist(self, i, j):
        """Distance from vertex i to vertex j, or to each vertex of an id array j."""
        d = self.mat[i, j]
        return float(d) if np.ndim(j) == 0 else d.copy()

    def pairwise_sq(self, ids):
        """Squared distances (..., m, m) among each row of an (..., m) id array."""
        ids = np.asarray(ids, dtype=np.intp)
        return self.mat[ids[..., :, None], ids[..., None, :]] ** 2

    def row(self, i):
        return self.mat[i].copy()

    def interpolate(self, ids, weights):
        return (list(ids), np.asarray(weights, dtype=float))

    def add_points(self, raw_points):
        specs = raw_points if isinstance(raw_points, list) else [raw_points]
        out = []
        for ids, w in specs:
            ids = list(ids)
            w = np.asarray(w, dtype=float)
            n = self.n
            rows_sq = self.mat[ids] ** 2
            cross = self.mat[np.ix_(ids, ids)] ** 2
            new_sq = w @ rows_sq - 0.5 * float(w @ cross @ w)
            new_row = np.sqrt(np.maximum(new_sq, 0.0))
            grown = np.zeros((n + 1, n + 1))
            grown[:n, :n] = self.mat
            grown[n, :n] = new_row
            grown[:n, n] = new_row
            self.mat = grown
            out.append(n)
        return out

    def copy(self):
        return MatrixMetric(self.mat.copy())


# ---------------------------------------------------------------------------
# simplex volumes


def cayley_menger(d2):
    """Unsigned k-volumes of an (n, k+1, k+1) stack of squared pairwise
    distances, and the mask of stack entries that are not flat-realizable.

    Triangles use Heron's formula in its stable (sorted-sides) form, larger
    simplices the Cayley-Menger determinant; 0-simplices have volume 1.  A
    significantly negative squared volume marks the entry non-realizable
    (its volume is reported as 0).
    """
    d2 = np.asarray(d2, dtype=float)
    n, k = d2.shape[0], d2.shape[-1] - 1
    if k == 0:
        return np.ones(n), np.zeros(n, dtype=bool)
    if k == 1:
        return np.sqrt(np.maximum(d2[:, 0, 1], 0.0)), np.zeros(n, dtype=bool)
    if k == 2:
        sides = np.sqrt(np.stack([d2[:, 0, 1], d2[:, 0, 2], d2[:, 1, 2]], axis=1))
        x, y, z = np.sort(sides, axis=1)[:, ::-1].T
        h = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
        bad = h < -EMBED_TOL * np.maximum(x, 1.0) ** 4
        return 0.25 * np.sqrt(np.where(h < 0, 0.0, h)), bad
    v2 = _squared_volumes(d2)
    bad = v2 < -EMBED_TOL * np.maximum(d2.max(axis=(1, 2)), 1.0) ** k
    return np.sqrt(np.maximum(v2, 0.0)), bad


def _squared_volumes(d2):
    """Signed squared k-volumes of an (n, k+1, k+1) stack via the bordered
    Cayley-Menger determinant, all in one stacked det."""
    n, k = d2.shape[0], d2.shape[-1] - 1
    m = np.ones((n, k + 2, k + 2))
    m[:, 0, 0] = 0.0
    m[:, 1:, 1:] = d2
    return ((-1) ** (k + 1)) * np.linalg.det(m) / (2**k * math.factorial(k) ** 2)


def simplex_volume_from_sq(d2):
    """Unsigned k-volume from squared pairwise distances (Cayley-Menger).

    Takes one (m, m) matrix, returning a float, or an (n, m, m) stack,
    returning an array.  0-simplices have volume 1.  A significantly
    negative determinant means the distances are not flat-realizable and
    raises ComplexError for the first such entry.
    """
    d2 = np.asarray(d2, dtype=float)
    stack = d2[None] if d2.ndim == 2 else d2
    vols, bad = cayley_menger(stack)
    if bad.any():
        first = stack[int(np.argmax(bad))]
        k = first.shape[0] - 1
        if k == 2:
            a, b, c = (math.sqrt(first[i, j]) for i, j in ((0, 1), (0, 2), (1, 2)))
            raise ComplexError(f"triangle inequality violated in simplex: {a},{b},{c}")
        v2 = float(_squared_volumes(first[None])[0])
        raise ComplexError(f"non-embeddable {k}-simplex (CM determinant {v2})")
    return float(vols[0]) if d2.ndim == 2 else vols


def simplex_volumes(metric, simplices):
    """k-volumes of an (n, k+1) array (or list) of vertex-id tuples, batched."""
    ids = np.asarray(simplices, dtype=np.intp)
    if ids.size == 0:
        return np.empty(len(ids))
    return simplex_volume_from_sq(metric.pairwise_sq(ids))


def gram_from_sq(d2):
    """Gram matrix of edge vectors (v_i - v_0) from squared distances; works
    on one (m, m) matrix or on a stack (..., m, m)."""
    d2 = np.asarray(d2, dtype=float)
    return 0.5 * (d2[..., 0, 1:, None] + d2[..., 0, None, 1:] - d2[..., 1:, 1:])


# ---------------------------------------------------------------------------
# the complex


def close_under_faces(top_simplices):
    """All faces of the given simplices, grouped and sorted per dimension."""
    by_dim: dict[int, set] = {}
    for simplex in top_simplices:
        s = tuple(sorted(simplex))
        if len(set(s)) != len(s):
            raise ComplexError(f"degenerate simplex {simplex}")
        for size in range(1, len(s) + 1):
            by_dim.setdefault(size - 1, set()).update(itertools.combinations(s, size))
    return {k: sorted(faces) for k, faces in by_dim.items()}


@dataclass
class GeometricComplex:
    metric: object
    simplices: dict[int, list[tuple[int, ...]]]
    _masses: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _index: dict[int, dict[tuple[int, ...], int]] = field(default_factory=dict, repr=False)
    _arrays: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _adjacency = None

    @classmethod
    def from_top_simplices(cls, metric, top_simplices, include_isolated_vertices=True):
        simp = close_under_faces(top_simplices)
        if include_isolated_vertices:
            listed = {v for (v,) in simp.get(0, [])}
            extra = [(v,) for v in range(metric.n) if v not in listed]
            simp[0] = sorted(simp.get(0, []) + extra)
        return cls(metric, simp)

    @property
    def dims(self):
        return sorted(self.simplices)

    @property
    def top_dim(self):
        return max(self.simplices) if self.simplices else 0

    @property
    def n_vertices(self):
        return self.metric.n

    def count(self, k):
        return len(self.simplices.get(k, []))

    def index(self, k):
        if k not in self._index:
            self._index[k] = {s: i for i, s in enumerate(self.simplices.get(k, []))}
        return self._index[k]

    def simplex_array(self, k):
        """The k-simplices as an (n, k+1) vertex-id array, in list order."""
        if k not in self._arrays:
            sims = self.simplices.get(k, [])
            self._arrays[k] = np.array(sims, dtype=np.intp).reshape(len(sims), k + 1)
        return self._arrays[k]

    def masses(self, k):
        if k not in self._masses:
            self._masses[k] = simplex_volumes(self.metric, self.simplex_array(k))
        return self._masses[k]

    def validate(self):
        for k in self.dims:
            seen = set()
            for s in self.simplices[k]:
                if tuple(sorted(s)) != s:
                    raise ComplexError(f"simplex not in canonical order: {s}")
                if s in seen:
                    raise ComplexError(f"duplicate simplex {s}")
                seen.add(s)
            if k == 0:
                continue
            below = set(self.simplices.get(k - 1, []))
            for s in self.simplices[k]:
                for face in itertools.combinations(s, k):
                    if face not in below:
                        raise ComplexError(f"missing face {face} of {s}")

    def coords(self):
        m = self.metric
        return getattr(m, "coords", getattr(m, "points", None))

    def barycenter_values(self, k, values):
        """Mean of a vertex function over the vertices of each k-simplex."""
        vals = np.asarray(values, dtype=float)
        if not self.count(k):
            return np.zeros(0)
        return vals[self.simplex_array(k)].mean(axis=1)

    def edges_sparse(self):
        if self._adjacency is None:
            edges = self.simplices.get(1, [])
            if edges:
                ii = [e[0] for e in edges]
                jj = [e[1] for e in edges]
                ww = self.masses(1)
                n = self.n_vertices
                g = coo_matrix((np.concatenate([ww, ww]), (ii + jj, jj + ii)), shape=(n, n))
                self._adjacency = g.tocsr()
            else:
                n = self.n_vertices
                self._adjacency = coo_matrix((n, n)).tocsr()
        return self._adjacency

    def graph_distances(self, source):
        return dijkstra(self.edges_sparse(), indices=source)


# ---------------------------------------------------------------------------
# piecewise linear vertex functions


@dataclass
class PLFunction:
    """Vertex-sampled function with piecewise linear interpolation.

    `lip` is the largest restricted-gradient norm over the simplices of the
    complex, computed from the Gram matrix of each simplex; on edges this is
    |value difference| / length.  Distance functions carry their source so
    refinements can re-evaluate them exactly.
    """

    complex: GeometricComplex
    values: np.ndarray
    source: tuple | None = None
    _lip: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.complex.n_vertices:
            raise ArgumentError("function values must cover every vertex")

    @property
    def lip(self) -> float:
        if self._lip is None:
            if self.source is not None and self.source[0] == "dist":
                self._lip = 1.0
            else:
                self._lip = self._gradient_lip()
        return self._lip

    def _gradient_lip(self) -> float:
        worst = 0.0
        vals = self.values
        for k in self.complex.dims:
            ids = self.complex.simplex_array(k)
            if k == 0 or not len(ids):
                continue
            grams = gram_from_sq(self.complex.metric.pairwise_sq(ids))
            rhs = vals[ids[:, 1:]] - vals[ids[:, :1]]
            live = rhs.any(axis=1)
            for g, b in zip(grams[live], rhs[live]):
                try:
                    sol = np.linalg.solve(g, b)
                    sq = float(b @ sol)
                except np.linalg.LinAlgError:
                    sol, *_ = np.linalg.lstsq(g, b, rcond=None)
                    sq = float(b @ sol)
                if sq > worst:
                    worst = sq
        return math.sqrt(max(worst, 0.0))

    def range(self, vertex_ids=None):
        vals = self.values if vertex_ids is None else self.values[list(vertex_ids)]
        return float(vals.min()), float(vals.max())


def distance_function(complex: GeometricComplex, p: int, mode="auto") -> PLFunction:
    """Distance-from-vertex PL function.

    Uses the exact metric row when the complex has one (Euclidean, matrix or
    callable backend); `mode="graph"` forces shortest-path distances on the
    1-skeleton.  Metric distance functions are 1-Lipschitz; graph distances
    record their computed PL constant.
    """
    if not 0 <= p < complex.n_vertices:
        raise ArgumentError(f"vertex {p} out of range (the complex has {complex.n_vertices} vertices)")
    if mode == "graph":
        vals = complex.graph_distances(p)
        if np.isinf(vals).any():
            raise ArgumentError("graph distance undefined: complex is disconnected")
        f = PLFunction(complex, vals, source=("graph_dist", p))
        f._lip = max(1.0, f._gradient_lip())
        return f
    vals = complex.metric.row(p)
    return PLFunction(complex, np.asarray(vals, dtype=float), source=("dist", p))


def coordinate_function(complex: GeometricComplex, axis: int) -> PLFunction:
    coords = complex.coords()
    if coords is None:
        raise ArgumentError("coordinate functions need coordinate-backed metrics")
    if not 0 <= axis < coords.shape[1]:
        raise ArgumentError(f"coordinate axis {axis} out of range for {coords.shape[1]}-D coordinates")
    return PLFunction(complex, coords[:, axis].copy(), source=("coord", axis))
