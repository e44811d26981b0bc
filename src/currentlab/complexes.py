"""Geometric simplicial complexes over Euclidean, matrix or callable metrics.

A complex stores simplices per dimension in canonical (sorted vertex) order,
is closed under faces, and carries a k-volume weight per simplex computed
from pairwise vertex distances via the Cayley-Menger determinant.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

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

    def dist(self, i, ids):
        """Distances from vertex i to each vertex of an id array."""
        diff = self.coords[i] - self.coords[ids]
        # row-wise x @ x: the BLAS dot np.linalg.norm takes on one vector
        return np.sqrt(diff[:, None, :] @ diff[:, :, None])[:, 0, 0]

    def pairwise_sq(self, ids):
        """Squared distances (..., m, m) among each row of an (..., m) id array."""
        pts = self.coords[np.asarray(ids, dtype=np.intp)]
        diff = pts[..., :, None, :] - pts[..., None, :, :]
        return (diff**2).sum(axis=-1)

    def pair_sq(self, a, b):
        """Squared distances between vertices a[i] and b[i], each the entry
        `pairwise_sq` gives the pair."""
        return ((self.coords[a] - self.coords[b]) ** 2).sum(axis=-1)

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

    def dist(self, i, ids):
        """Distances from vertex i to each vertex of an id array."""
        others = self.points[ids]
        return self.fn(np.repeat(self.points[i][None, :], len(others), axis=0), others)

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

    def pair_sq(self, a, b):
        """Squared distances between vertices a[i] and b[i], each the entry
        `pairwise_sq` gives the pair: one `fn` call on the pairs alone."""
        return self.fn(self.points[a], self.points[b]) ** 2

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

    def dist(self, i, ids):
        """Distances from vertex i to each vertex of an id array."""
        return self.mat[i, ids]

    def pairwise_sq(self, ids):
        """Squared distances (..., m, m) among each row of an (..., m) id array."""
        ids = np.asarray(ids, dtype=np.intp)
        return self.mat[ids[..., :, None], ids[..., None, :]] ** 2

    def pair_sq(self, a, b):
        """Squared distances between vertices a[i] and b[i]."""
        return self.mat[a, b] ** 2

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
        return _heron(np.sqrt(np.stack([d2[:, 0, 1], d2[:, 0, 2], d2[:, 1, 2]], axis=1)))
    v2 = _squared_volumes(d2)
    bad = v2 < -EMBED_TOL * np.maximum(d2.max(axis=(1, 2)), 1.0) ** k
    return np.sqrt(np.maximum(v2, 0.0)), bad


def _heron(sides):
    """Areas of an (n, 3) stack of triangle side lengths by Heron's formula
    in its stable (sorted-sides) form, and the mask of rows that break the
    triangle inequality (their area is reported as 0)."""
    x, y, z = np.sort(sides, axis=1)[:, ::-1].T
    h = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
    bad = h < -EMBED_TOL * np.maximum(x, 1.0) ** 4
    return 0.25 * np.sqrt(np.where(h < 0, 0.0, h)), bad


def _violated(a, b, c):
    return ComplexError(f"triangle inequality violated in simplex: {a},{b},{c}")


def _squared_volumes(d2):
    """Signed squared k-volumes of an (n, k+1, k+1) stack via the bordered
    Cayley-Menger determinant, all in one stacked det."""
    n, k = d2.shape[0], d2.shape[-1] - 1
    m = np.ones((n, k + 2, k + 2))
    m[:, 0, 0] = 0.0
    m[:, 1:, 1:] = d2
    return ((-1) ** (k + 1)) * np.linalg.det(m) / (2**k * math.factorial(k) ** 2)


def simplex_volume_from_sq(d2):
    """Unsigned k-volumes of an (n, m, m) stack of squared pairwise
    distances (Cayley-Menger).  0-simplices have volume 1.  A significantly
    negative determinant means the distances are not flat-realizable and
    raises ComplexError for the first such entry.
    """
    d2 = np.asarray(d2, dtype=float)
    vols, bad = cayley_menger(d2)
    if bad.any():
        first = d2[int(np.argmax(bad))]
        k = first.shape[0] - 1
        if k == 2:
            raise _violated(*(math.sqrt(first[i, j]) for i, j in ((0, 1), (0, 2), (1, 2))))
        v2 = float(_squared_volumes(first[None])[0])
        raise ComplexError(f"non-embeddable {k}-simplex (CM determinant {v2})")
    return vols


VOLUME_BLOCK = 1024
"""Rows per metric call of a volume pass: a whole mesh's pass (the first
ball on it) then holds no more intermediates at once than one ball's."""


def simplex_volumes(metric, simplices):
    """k-volumes of an (n, k+1) array (or list) of vertex-id tuples, batched
    VOLUME_BLOCK rows at a time, as `simplex_volume_from_sq` gives them from
    the `pairwise_sq` stack, bit for bit.  0-simplices have volume 1
    without a metric call; edges and triangles read only their edge
    distances, one `metric.pair_sq` call for the pairs (0, 1), (0, 2),
    (1, 2) of every row."""
    ids = np.asarray(simplices, dtype=np.intp)
    if ids.size == 0:
        return np.empty(len(ids))
    if ids.shape[-1] == 1:
        return np.ones(len(ids))
    if len(ids) > VOLUME_BLOCK:
        blocks = range(0, len(ids), VOLUME_BLOCK)
        return np.concatenate([simplex_volumes(metric, ids[i : i + VOLUME_BLOCK]) for i in blocks])
    if ids.shape[-1] > 3:
        return simplex_volume_from_sq(metric.pairwise_sq(ids))
    a, b = np.triu_indices(ids.shape[-1], 1)
    d2 = metric.pair_sq(ids[:, a].ravel(), ids[:, b].ravel()).reshape(len(ids), len(a))
    if len(a) == 1:
        return np.sqrt(np.maximum(d2[:, 0], 0.0))
    sides = np.sqrt(d2)
    vols, bad = _heron(sides)
    if bad.any():
        raise _violated(*sides[np.argmax(bad)].tolist())
    return vols


def gram_from_sq(d2):
    """Gram matrix of edge vectors (v_i - v_0) from squared distances; works
    on one (m, m) matrix or on a stack (..., m, m)."""
    d2 = np.asarray(d2, dtype=float)
    return 0.5 * (d2[..., 0, 1:, None] + d2[..., 0, None, 1:] - d2[..., 1:, 1:])


# ---------------------------------------------------------------------------
# the complex


def close_under_faces(*blocks):
    """All faces of the given simplices, as {k: (n, k+1) id array} with
    distinct rows in lexicographic order: one `face_closure` per simplex
    size.  Each block is an id array of one simplex size or a list of vertex
    sequences of any sizes; a simplex with a repeated vertex raises
    ComplexError."""
    arrays = []
    for block in blocks:
        if isinstance(block, np.ndarray):
            arrays.append(block)
            continue
        by_size: dict[int, list] = {}
        for s in block:
            by_size.setdefault(len(s), []).append(s)
        arrays += [np.array(rows, dtype=np.intp) for rows in by_size.values()]
    by_width: dict[int, list] = {}
    for block in arrays:
        rows = np.sort(block, axis=1)
        repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        if repeated.any():
            raise ComplexError(f"degenerate simplex {tuple(block[np.argmax(repeated)].tolist())}")
        by_width.setdefault(rows.shape[1], []).append(rows)
    faces: dict[int, list] = {}
    for same_width in by_width.values():
        for k, f in face_closure(distinct_rows(np.concatenate(same_width))).items():
            faces.setdefault(k, []).append(f)
    return {k: f[0] if len(f) == 1 else distinct_rows(np.concatenate(f)) for k, f in faces.items()}


def face_closure(top):
    """Every face of the k-simplices `top` (rows in canonical order) as
    {j: rows}: `top` itself for j = k, each j < k distinct and in
    lexicographic order."""
    k = top.shape[1] - 1
    rows = {}
    for j in range(k):
        cols = list(itertools.combinations(range(k + 1), j + 1))
        rows[j] = distinct_rows(top[:, cols].reshape(-1, j + 1))
    rows[k] = top
    return rows


_KEY_SPAN = 2**63  # int64 keys 0 .. 2**63 - 1


def row_keys(*blocks):
    """One int64 key per row of each (n, m) integer array (all of one width
    m): keys order as the rows order lexicographically, and two rows have
    equal keys exactly when they are equal, across all blocks.

    A row is packed in mixed radix, its entries less the common minimum in
    base max - min + 1, so negative ids stay exact.  When radix**m would
    overflow int64, the rows are packed column by column over all blocks
    together, and the packed prefix (or a column itself) is replaced by its
    dense rank whenever the next column would not fit."""
    m = blocks[0].shape[1]
    filled = [b for b in blocks if b.size]
    if not filled:
        return [np.zeros(len(b), dtype=np.int64) for b in blocks]
    lo = min([int(b.min()) for b in filled])
    radix = max([int(b.max()) for b in filled]) - lo + 1
    if radix**m <= _KEY_SPAN:
        # every partial sum is at most the key, so nothing overflows
        weights = np.array([radix**p for p in range(m - 1, -1, -1)], dtype=np.int64)
        return [(b.astype(np.int64, copy=False) - lo) @ weights for b in blocks]
    rows = np.concatenate(blocks).astype(np.int64)
    key, span = np.zeros(len(rows), dtype=np.int64), 1
    for col in rows.T:
        c_lo = int(col.min())
        c_radix = int(col.max()) - c_lo + 1
        if span * c_radix >= _KEY_SPAN:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
            span = int(key.max()) + 1
        if span * c_radix >= _KEY_SPAN:
            col = np.unique(col, return_inverse=True)[1].astype(np.int64)
            c_lo, c_radix = 0, int(col.max()) + 1
        key, span = key * c_radix + (col - c_lo), span * c_radix
    return np.split(key, np.cumsum([len(b) for b in blocks[:-1]]))


def level_row_keys(m, *blocks):
    """One int64 key per row of each (level indices, (n, c) id rows) block,
    levels in 0..m-1: keys order rows by level, then lexicographically as
    `row_keys` does, and two rows have equal keys exactly when they and
    their levels are equal, across all blocks."""
    keys = row_keys(*(rows for _, rows in blocks))
    if m == 1:
        return keys
    span = max([int(key.max()) + 1 for key in keys if len(key)], default=1)
    if m * span > _KEY_SPAN:
        ranks = np.unique(np.concatenate(keys), return_inverse=True)[1]
        keys, span = np.split(ranks, np.cumsum([len(key) for key in keys[:-1]])), int(ranks.max()) + 1
    return [level * span + key for (level, _), key in zip(blocks, keys)]


def distinct_rows(rows):
    """The distinct rows of an (n, m) integer array in lexicographic order."""
    return rows[np.unique(row_keys(rows)[0], return_index=True)[1]]


def row_ranks(rows):
    """Dense lexicographic ranks of the rows of an (n, m) integer array:
    equal rows share a rank, and ranks follow lexicographic row order."""
    return np.unique(row_keys(rows)[0], return_inverse=True)[1]


def lookup_rows(table, queries):
    """Index of each row of `queries` among the rows of `table` (the last
    of equal rows), -1 where it is absent: the rows' `row_keys`, one stable
    argsort of the table's keys (linear on a table already in lexicographic
    order, as every table the library builds is) and one binary search of
    the queries' keys."""
    if not len(table):
        return np.full(len(queries), -1, dtype=np.intp)
    return lookup_keys(*row_keys(table, queries))


def lookup_keys(table_keys, query_keys):
    """Index of each of `query_keys` among `table_keys` (the last of equal
    keys), -1 where it is absent, by the rule of `lookup_rows`."""
    if not len(table_keys):
        return np.full(len(query_keys), -1, dtype=np.intp)
    order = table_keys.argsort(kind="stable")
    # pos -1 (a query below every row) reads the largest key, which differs
    hit = order[table_keys[order].searchsorted(query_keys, side="right") - 1]
    return np.where(table_keys[hit] == query_keys, hit, -1)


def facet_lookup(table, rows):
    """Index among the rows of `table` of every facet of every row of an
    (n, k+1) id array, as an (n, k+1) array whose entry (i, j) is the facet
    of row i opposite its vertex j; one key lookup.  Raises ComplexError
    naming a facet missing from `table`."""
    k = rows.shape[1] - 1
    # facets queried one vertex position at a time: opposite a fixed vertex,
    # the facets of sorted rows come nearly sorted, and the binary search
    # runs through nearly sorted queries faster than through interleaved ones
    faces = rows[:, [[c for c in range(k + 1) if c != j] for j in range(k + 1)]].swapaxes(0, 1)
    index = np.ascontiguousarray(lookup_rows(table, faces.reshape(-1, k)).reshape(k + 1, -1).T)
    if (index < 0).any():
        i = np.flatnonzero((index < 0).any(axis=1))[0]
        j = np.flatnonzero(index[i] < 0)[-1]  # its first missing face in lexicographic order
        raise ComplexError(f"missing face {tuple(faces[j, i].tolist())} of {tuple(rows[i].tolist())}")
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


UNKNOWN_VOLUME = -1.0
"""Marks a row whose volume is not computed yet; no volume is negative."""


class GeometricComplex:
    """The k-simplices of each dimension as an (n, k+1) vertex-id array; a
    simplex's index is its row.  `GeometricComplex(metric, {k: simplices})`
    takes id arrays or lists of vertex tuples, kept in their order.  One
    face rule holds for every complex, base, refined or support closure:
    a dimension looks its face index up on the first `face_index`, and the
    k-volumes of a dimension are computed from the metric when `masses(k)`
    first reads them.  A complex built from another one (a support closure,
    a refinement) is handed `volumes`, {k: the volumes its source had cached
    for its rows, UNKNOWN_VOLUME elsewhere}, so only its new rows reach the
    metric.  `simplices` is the read-only
    {k: [vertex tuple, ...]} view, whose lists are built only when read and
    which the library itself never reads (the benchmark tracer does)."""

    def __init__(self, metric, simplices, volumes=None):
        self.metric = metric
        self._arrays = {k: np.asarray(s, dtype=np.intp).reshape(len(s), k + 1) for k, s in simplices.items()}
        self.simplices = SimplexLists(self._arrays)
        self._masses: dict[int, np.ndarray] = {}
        self._gathered: dict[int, np.ndarray] = dict(volumes or {})
        self._faces: dict[int, np.ndarray] = {}

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
        vertex j (sign (-1)^j).  Looked up among all (k-1)-simplices by
        `facet_lookup` on first use and cached, in every complex: the face
        index is a function of the rows alone.  Raises ComplexError for a
        missing face."""
        if k not in self._faces:
            self._faces[k] = facet_lookup(self.simplex_array(k - 1), self.simplex_array(k))
        return self._faces[k]

    def masses(self, k):
        """The k-volumes of the k-simplices, computed on first read: a
        volume is a function of the metric and the row alone, so the rows
        gathered from a source keep its volumes and only the UNKNOWN_VOLUME
        rows reach the metric."""
        if k not in self._masses:
            vols = self._gathered.pop(k, None)
            if vols is None:
                vols = simplex_volumes(self.metric, self.simplex_array(k))
            else:
                todo = np.flatnonzero(vols == UNKNOWN_VOLUME)
                vols[todo] = simplex_volumes(self.metric, self.simplex_array(k)[todo])
            self._masses[k] = vols
        return self._masses[k]

    def cached_volumes(self, k):
        """The k-volumes known so far without a metric call (UNKNOWN_VOLUME
        where a row's is not), or None: what a complex built from this one
        gathers for the rows they share."""
        return self._masses.get(k, self._gathered.get(k))

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
            repeated = np.bincount(rank)[rank] > 1
            if repeated.any():
                raise ComplexError(f"duplicate simplex {tuple(rows[np.argmax(repeated)].tolist())}")
            if k > 0:
                self.face_index(k)

    def coords(self):
        m = self.metric
        return getattr(m, "coords", getattr(m, "points", None))


# ---------------------------------------------------------------------------
# piecewise linear vertex functions


@dataclass
class PLFunction:
    """Vertex-sampled function with piecewise linear interpolation.

    `lip` is 1.0 for a distance function (source `("dist", p)`): the
    Lipschitz constant of the distance itself, not of its PL interpolant,
    whose restricted gradients can be steeper than 1.  For any other
    function it is the largest restricted-gradient norm over the simplices
    of the complex, computed from the Gram matrix of each simplex; on edges
    this is |value difference| / length.  Distance functions carry their
    source so refinements can re-evaluate them exactly.
    """

    complex: GeometricComplex
    values: np.ndarray
    source: tuple | None = None
    _lip: float | None = field(default=None, init=False, repr=False, compare=False)

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
