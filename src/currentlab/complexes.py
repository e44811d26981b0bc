"""Geometric simplicial complexes over Euclidean, matrix or callable metrics.

A complex stores simplices per dimension in canonical (sorted vertex) order,
is closed under faces, and carries a k-volume weight per simplex computed
from pairwise vertex distances via the Cayley-Menger determinant.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .metricspace import ArgumentError

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
        """The point with barycentric `weights` on the vertices `ids`, or the
        (n, d) points of an (n, m) stack of ids and weights."""
        w = np.asarray(weights, dtype=float)
        return np.matmul(w[..., None, :], self.coords[np.asarray(ids, dtype=np.intp)])[..., 0, :]

    def grown(self, raw_points):
        """A new metric with the given points appended."""
        raw = np.asarray(raw_points, dtype=float).reshape(-1, self.coords.shape[1])
        return EuclideanMetric(np.vstack([self.coords, raw]))


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
        """The point with barycentric `weights` on the vertices `ids`, or the
        (n, d) points of an (n, m) stack of ids and weights."""
        pts = self.points[np.asarray(ids, dtype=np.intp)]
        w = np.asarray(weights, dtype=float)
        if self.wrap is not None:
            # unwrap into the chart of the first vertex before averaging
            for axis, period in enumerate(self.wrap):
                if period <= 0:
                    continue
                ref = pts[..., :1, axis]
                delta = pts[..., axis] - ref
                delta -= period * np.round(delta / period)
                pts[..., axis] = ref + delta
        new = np.matmul(w[..., None, :], pts)[..., 0, :]
        if self.wrap is not None:
            for axis, period in enumerate(self.wrap):
                if period > 0:
                    new[..., axis] = new[..., axis] % period
        return new

    def grown(self, raw_points):
        """A new metric with the given points appended."""
        raw = np.asarray(raw_points, dtype=float).reshape(-1, self.points.shape[1])
        return CallableMetric(np.vstack([self.points, raw]), self.fn, wrap=self.wrap)


class MatrixMetric:
    """Backed by an explicit distance matrix.

    New points are flat interpolations inside a simplex: the distance row of
    a barycentric combination is computed from vertex distances alone, which
    is exact whenever the touched configuration embeds in Euclidean space.
    """

    def __init__(self, dist):
        self.mat = np.asarray(dist, dtype=float)

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
        """The flat interpolation with barycentric `weights` on the vertices
        `ids` as an (ids, weights) pair; an (n, m) stack gives n points."""
        return np.asarray(ids, dtype=np.intp), np.asarray(weights, dtype=float)

    def grown(self, points):
        """A new metric with flat interpolations appended, given as the
        (ids, weights) pair of `interpolate` (one point or an (m, j) stack),
        the matrix grown once: with weight rows W and squared distances S,
        d(p_i, v)^2 = (W S)_iv - q_i / 2 and d(p_i, p_j)^2 = (W S W^T)_ij -
        (q_i + q_j) / 2, where q_i = (W S W^T)_ii."""
        ids, W = (np.atleast_2d(a) for a in points)
        n, m = self.n, len(ids)
        WSW = np.einsum("ia,jb,iajb->ij", W, W, self.mat[ids[:, :, None, None], ids] ** 2)
        q = np.diag(WSW)
        new_sq = np.einsum("ia,ian->in", W, self.mat[ids] ** 2) - 0.5 * q[:, None]
        among_sq = WSW - 0.5 * (q[:, None] + q[None, :])
        grown = np.zeros((n + m, n + m))
        grown[:n, :n] = self.mat
        grown[n:, :n] = np.sqrt(np.maximum(new_sq, 0.0))
        grown[:n, n:] = grown[n:, :n].T
        among = np.sqrt(np.maximum(np.triu(among_sq, 1), 0.0))
        grown[n:, n:] = among + among.T
        return MatrixMetric(grown)


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


def close_under_faces(*blocks):
    """All faces of the given simplices, as {k: (n, k+1) id array} with
    distinct rows in lexicographic order.  Each block is an id array of one
    simplex size or a list of vertex sequences of any sizes; a simplex with
    a repeated vertex raises ComplexError."""
    arrays = []
    for block in blocks:
        if isinstance(block, np.ndarray):
            arrays.append(block)
            continue
        by_size: dict[int, list] = {}
        for s in block:
            by_size.setdefault(len(s), []).append(s)
        arrays += [np.array(rows, dtype=np.intp) for rows in by_size.values()]
    faces: dict[int, list] = {}
    for block in arrays:
        rows = np.sort(block, axis=1)
        repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        if repeated.any():
            raise ComplexError(f"degenerate simplex {tuple(block[np.argmax(repeated)].tolist())}")
        m = rows.shape[1]
        for k in range(m):
            cols = list(itertools.combinations(range(m), k + 1))
            faces.setdefault(k, []).append(rows[:, cols].reshape(-1, k + 1))
    return {k: distinct_rows(np.concatenate(f)) for k, f in faces.items()}


def distinct_rows(rows):
    """The distinct rows of an (n, m) integer array in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def row_ranks(rows):
    """Dense lexicographic ranks of the rows of an (n, m) integer array:
    equal rows share a rank, and ranks follow lexicographic row order."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    step = np.ones(len(rows), dtype=np.intp)
    step[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    rank = np.empty(len(rows), dtype=np.intp)
    rank[order] = np.cumsum(step) - 1
    return rank


def lookup_rows(table, queries):
    """Index of each row of `queries` among the distinct rows of `table`,
    -1 where it is absent; both are ranked together in one lexsort."""
    rank = row_ranks(np.concatenate([table, queries]))
    owner = np.full(len(rank), -1)
    owner[rank[: len(table)]] = np.arange(len(table))
    return owner[rank[len(table) :]]


def facet_lookup(table, rows):
    """Index among the rows of `table` of every facet of every row of an
    (n, k+1) id array, as an (n, k+1) array whose entry (i, j) is the facet
    of row i opposite its vertex j; one `lookup_rows`.  Raises ComplexError
    for a facet missing from `table`."""
    k = rows.shape[1] - 1
    faces = rows[:, [[c for c in range(k + 1) if c != j] for j in range(k + 1)]]
    index = lookup_rows(table, faces.reshape(-1, k)).reshape(faces.shape[:2])
    if (index < 0).any():
        i = np.flatnonzero((index < 0).any(axis=1))[0]
        j = np.flatnonzero(index[i] < 0)[-1]  # its first missing face in lexicographic order
        raise ComplexError(f"missing face {tuple(faces[i, j].tolist())} of {tuple(rows[i].tolist())}")
    return index


class SimplexLists(Mapping):
    """Read-only {k: [vertex tuple, ...]} view of (n, k+1) id arrays; the
    tuple list of a dimension is built when it is first read."""

    def __init__(self, arrays):
        self._arrays, self._lists = arrays, {}

    def __len__(self):
        return len(self._arrays)

    def __iter__(self):
        return iter(self._arrays)

    def __contains__(self, k):
        return k in self._arrays

    def __getitem__(self, k):
        if k not in self._lists:
            self._lists[k] = list(map(tuple, self._arrays[k].tolist()))
        return self._lists[k]


class GeometricComplex:
    """The k-simplices of each dimension as an (n, k+1) vertex-id array; a
    simplex's index is its row.  `GeometricComplex(metric, {k: simplices})`
    takes id arrays or lists of vertex tuples, kept in their order, and
    optionally their known k-volumes and face-index arrays (`faces`: per
    dimension an array, or a function of no arguments that builds it on the
    first `face_index`); `simplices` is the read-only
    {k: [vertex tuple, ...]} view, whose lists are built only when read and
    which the library itself never reads (the benchmark tracer does)."""

    def __init__(self, metric, simplices, masses=None, faces=None):
        self.metric = metric
        self._arrays = {k: np.asarray(s, dtype=np.intp).reshape(len(s), k + 1) for k, s in simplices.items()}
        self.simplices = SimplexLists(self._arrays)
        self._masses: dict[int, np.ndarray] = dict(masses or {})
        self._faces: dict = dict(faces or {})

    @classmethod
    def from_top_simplices(cls, metric, *blocks):
        """The face closure of the given simplices (blocks as for
        `close_under_faces`), with every vertex of the metric."""
        arrays = close_under_faces(*blocks)
        listed = arrays.get(0, np.empty((0, 1), dtype=np.intp))
        arrays[0] = np.union1d(listed, np.arange(metric.n))[:, None]
        return cls(metric, arrays)

    @property
    def dims(self):
        return sorted(self._arrays)

    @property
    def top_dim(self):
        return max(self._arrays) if self._arrays else 0

    @property
    def n_vertices(self):
        return self.metric.n

    def count(self, k):
        return len(self._arrays[k]) if k in self._arrays else 0

    def simplex_array(self, k):
        """The k-simplices as an (n, k+1) vertex-id array."""
        return self._arrays[k] if k in self._arrays else np.empty((0, k + 1), dtype=np.intp)

    def face_index(self, k):
        """The boundary operator of dimension k as an (n, k+1) array: entry
        (i, j) is the index of the (k-1)-face of k-simplex i opposite its
        vertex j (sign (-1)^j).  Built on first use and cached: taken from
        the `faces` the complex was built with when they hold dimension k
        (a refined or support-closure complex derives them from its
        parent's, see `slicing`), else looked up among all (k-1)-simplices.
        Raises ComplexError for a missing face."""
        if k not in self._faces:
            self._faces[k] = facet_lookup(self.simplex_array(k - 1), self.simplex_array(k))
        elif callable(self._faces[k]):
            self._faces[k] = self._faces[k]()
        return self._faces[k]

    def face_index_deferred(self, k):
        """Whether face_index(k) is still to be built by a function given
        in `faces`."""
        return callable(self._faces.get(k))

    def masses(self, k):
        if k not in self._masses:
            self._masses[k] = simplex_volumes(self.metric, self.simplex_array(k))
        return self._masses[k]

    def validate(self):
        """Raise ComplexError unless every row lists distinct vertices of the
        metric in increasing order, no row repeats, and every face is
        present."""
        for k in self.dims:
            rows = self._arrays[k]
            outside = ((rows < 0) | (rows >= self.n_vertices)).any(axis=1)
            if outside.any():
                s = tuple(rows[np.argmax(outside)].tolist())
                raise ComplexError(f"simplex {s} names a vertex outside 0..{self.n_vertices - 1}")
            unordered = (rows[:, 1:] <= rows[:, :-1]).any(axis=1)
            if unordered.any():
                s = tuple(rows[np.argmax(unordered)].tolist())
                if len(set(s)) < len(s):
                    raise ComplexError(f"degenerate simplex {s}")
                raise ComplexError(f"simplex not in canonical order: {s}")
            rank = row_ranks(rows)
            if len(np.unique(rank)) < len(rows):
                repeated = np.bincount(rank)[rank] > 1
                raise ComplexError(f"duplicate simplex {tuple(rows[np.argmax(repeated)].tolist())}")
            if k > 0:
                self.face_index(k)

    def coords(self):
        m = self.metric
        return getattr(m, "coords", getattr(m, "points", None))

    def barycenter_values(self, k, values):
        """Mean of a vertex function over the vertices of each k-simplex."""
        return np.asarray(values, dtype=float)[self.simplex_array(k)].mean(axis=1)


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
        if not np.isfinite(self.values).all():
            raise ArgumentError("function values must be finite")

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


def distance_function(complex: GeometricComplex, p: int) -> PLFunction:
    """The distance from vertex p: the metric's row of p, 1-Lipschitz."""
    if not 0 <= p < complex.n_vertices:
        raise ArgumentError(f"vertex {p} out of range (the complex has {complex.n_vertices} vertices)")
    return PLFunction(complex, np.asarray(complex.metric.row(p), dtype=float), source=("dist", p))


def coordinate_function(complex: GeometricComplex, axis: int) -> PLFunction:
    coords = complex.coords()
    if coords is None:
        raise ArgumentError("coordinate functions need coordinate-backed metrics")
    if not 0 <= axis < coords.shape[1]:
        raise ArgumentError(f"coordinate axis {axis} out of range for {coords.shape[1]}-D coordinates")
    return PLFunction(complex, coords[:, axis].copy(), source=("coord", axis))
