"""Integer-weighted oriented chains on a geometric complex.

A current of dimension k is a sparse map from k-simplex indices to nonzero
integer coefficients; the sign is the orientation relative to the canonical
sorted vertex order.  It is stored as two int64 arrays: the simplex indices,
sorted and distinct, and their nonzero coefficients.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property

import numpy as np

from .complexes import (
    EuclideanMetric,
    GeometricComplex,
    MatrixMetric,
    PLFunction,
    distinct_rows,
    lookup_rows,
    row_keys,
)
from .metricspace import ArgumentError, FiniteMetricSpace, abs_sum_below_limit, as_integers

def sorted_with_sign(rows):
    """The rows of an (n, m) vertex-id array sorted, and the sign of each
    sorting permutation (the parity of its inversions); 0 where a vertex
    repeats."""
    a, b = np.triu_indices(rows.shape[1], 1)
    sign = 1 - 2 * ((rows[:, a] > rows[:, b]).sum(axis=1) % 2)
    sign[(rows[:, a] == rows[:, b]).any(axis=1)] = 0
    return np.sort(rows, axis=1), sign


class Coefficients(Mapping):
    """Read-only {simplex index: coefficient} view of a chain's arrays.

    Its length and iteration read the arrays; lookups build the dict once.
    """

    def __init__(self, idx, coeff):
        self._idx, self._coeff = idx, coeff

    @cached_property
    def _dict(self):
        return dict(zip(self._idx.tolist(), self._coeff.tolist()))

    def __len__(self):
        return len(self._idx)

    def __iter__(self):
        return iter(self._idx.tolist())

    def __getitem__(self, i):
        return self._dict[i]


class SimplicialCurrent:
    """A k-chain: sorted distinct simplex indices `idx` and their nonzero
    coefficients `coeff` (int64 arrays, never modified in place).

    `SimplicialCurrent(complex, dim, {index: coefficient})` drops zero
    coefficients; `coeffs` is a read-only mapping view of the arrays, which
    the library itself never reads (the benchmark tracer does).
    Every construction raises ArgumentError unless the |coefficients| it is
    given sum below `metricspace.INT_LIMIT`.
    """

    def __init__(self, complex: GeometricComplex, dim: int, coeffs=None):
        coeffs = coeffs or {}
        self._set(complex, dim, list(coeffs), list(map(int, coeffs.values())))

    def _set(self, complex, dim, idx, coeff):
        """Store the chain summing coefficients over repeated indices."""
        try:
            idx, coeff = np.asarray(idx, np.int64).ravel(), np.asarray(coeff, np.int64).ravel()
            if not abs_sum_below_limit(coeff):
                raise OverflowError
        except OverflowError:
            raise ArgumentError("chain coefficients must sum below 2**62 in absolute value") from None
        if len(idx) and not (idx[1:] > idx[:-1]).all():
            order = np.argsort(idx, kind="stable")
            idx, coeff = idx[order], coeff[order]
            first = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))
            idx, coeff = idx[first], np.add.reduceat(coeff, first)
        nonzero = coeff != 0
        self.complex, self.dim, self.idx, self.coeff = complex, dim, idx[nonzero], coeff[nonzero]
        return self

    # -- construction -------------------------------------------------------

    @classmethod
    def from_arrays(cls, complex, dim, idx, coeff):
        """Chain from index and coefficient arrays, in any order, repeats summed."""
        return cls.__new__(cls)._set(complex, dim, idx, coeff)

    @classmethod
    def from_simplices(cls, complex, dim, pairs):
        """Build from (vertex tuple, coefficient) pairs; permuted tuples
        contribute the sign of the sorting permutation."""
        pairs = list(pairs)
        rows = np.array([s for s, _ in pairs], dtype=np.int64).reshape(len(pairs), dim + 1)
        key, sign = sorted_with_sign(rows)
        j = lookup_rows(complex.simplex_array(dim), key)
        bad = (sign == 0) | (j < 0)
        if bad.any():
            i = int(np.argmax(bad))
            if sign[i] == 0:
                raise ArgumentError(f"degenerate simplex {pairs[i][0]}")
            raise ArgumentError(f"simplex {tuple(key[i].tolist())} not in complex")
        return cls.from_arrays(complex, dim, j, [s * int(c) for s, (_, c) in zip(sign.tolist(), pairs)])

    @classmethod
    def zero(cls, complex, dim):
        return cls(complex, dim)

    @classmethod
    def full(cls, complex, dim, coefficient=1):
        n = complex.count(dim)
        return cls.from_arrays(complex, dim, np.arange(n), np.full(n, int(coefficient), dtype=object))

    @cached_property
    def coeffs(self) -> Coefficients:
        return Coefficients(self.idx, self.coeff)

    @property
    def rows(self):
        """T as (the vertex-id rows of its simplices, in idx order, their
        coefficients)."""
        return self.complex.simplex_array(self.dim)[self.idx], self.coeff

    @cached_property
    def boundary_rows(self):
        """dT as (the vertex-id rows of its simplices in lexicographic
        order, their coefficients), taken once per chain from T's own rows
        with no face index; unlike `boundary`, the coefficients are not
        held to the 2**62 limit."""
        k = self.dim
        if k == 0:
            return np.empty((0, 0), dtype=np.intp), np.empty(0, dtype=np.int64)
        rows = self.rows[0]
        faces = rows[:, [[c for c in range(k + 1) if c != j] for j in range(k + 1)]].reshape(-1, k)
        signed = (self.coeff[:, None] * np.where(np.arange(k + 1) % 2, -1, 1)).ravel()
        _, first, which = np.unique(row_keys(faces)[0], return_index=True, return_inverse=True)
        out = np.zeros(len(first), dtype=np.int64)
        np.add.at(out, which, signed)  # as in `boundary`, no int64 sum can wrap
        keep = np.flatnonzero(out)
        return faces[first[keep]], out[keep]

    # -- chain algebra -------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        idx, coeff = np.concatenate([self.idx, other.idx]), np.concatenate([self.coeff, other.coeff])
        return self.from_arrays(self.complex, self.dim, idx, coeff)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.from_arrays(self.complex, self.dim, self.idx, -self.coeff)

    def __mul__(self, scalar: int):
        # exact products, range-checked on the way back to int64
        return self.from_arrays(self.complex, self.dim, self.idx, self.coeff.astype(object) * int(scalar))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialCurrent)
            and self.complex is other.complex
            and self.dim == other.dim
            and np.array_equal(self.idx, other.idx)
            and np.array_equal(self.coeff, other.coeff)
        )

    def _check_compatible(self, other):
        if self.complex is not other.complex or self.dim != other.dim:
            raise ArgumentError("currents live on different complexes or dimensions")

    def restricted(self, keep) -> SimplicialCurrent:
        """The chain on the simplices where the boolean array `keep` (one
        entry per dim-simplex of the complex) is true."""
        mask = np.asarray(keep, dtype=bool)[self.idx]
        return self.from_arrays(self.complex, self.dim, self.idx[mask], self.coeff[mask])

    def is_zero(self):
        return not len(self.idx)

    def support_vertices(self):
        return np.unique(self.rows[0]).tolist()


# ---------------------------------------------------------------------------
# operations


def boundary(T: SimplicialCurrent) -> SimplicialCurrent:
    """Alternating-sign chain boundary; the zero current for dimension 0.

    One gather through the complex's face-index array and one integer
    scatter-add onto the (k-1)-simplices.
    """
    if T.dim == 0:
        return SimplicialCurrent.zero(T.complex, 0)
    k = T.dim
    faces = T.complex.face_index(k)[T.idx]
    out = np.zeros(T.complex.count(k - 1), dtype=np.int64)
    np.add.at(out, faces, T.coeff[:, None] * np.where(np.arange(k + 1) % 2, -1, 1))
    nonzero = np.flatnonzero(out)
    return boundary_chain(T.complex, k - 1, nonzero, out[nonzero])


def boundary_chain(complex, dim, idx, coeff) -> SimplicialCurrent:
    """The (dim)-chain `from_arrays` builds, raised as the boundary of a
    (dim + 1)-chain when it reaches the 2**62 limit."""
    try:  # each entry is below the limit, but their sum need not be
        return SimplicialCurrent.from_arrays(complex, dim, idx, coeff)
    except ArgumentError:
        raise ArgumentError(
            f"the boundary of the input {dim + 1}-chain exceeds the limit: its coefficients sum to 2**62 or more"
        ) from None


def mass(T: SimplicialCurrent) -> float:
    if T.is_zero():
        return 0.0
    return float(np.abs(T.coeff) @ T.complex.masses(T.dim)[T.idx])


def total_mass(T: SimplicialCurrent) -> float:
    return mass(T) + mass(boundary(T))


def push_forward(T: SimplicialCurrent, vmap, target: GeometricComplex) -> SimplicialCurrent:
    """Push a current through a vertex map into another complex.

    Simplices with repeated image vertices are dropped (degenerate image);
    the image simplices must exist in the target complex (one `lookup_rows`).
    Coefficients pick up the sign of the permutation sorting the image.
    """
    k = T.dim
    rows = T.complex.simplex_array(k)[T.idx]
    verts, inverse = np.unique(rows, return_inverse=True)
    images = []
    for v in verts.tolist():
        try:
            images.append(vmap[v])
        except (KeyError, IndexError) as exc:
            s = tuple(rows[(rows == v).any(axis=1)][0].tolist())
            raise ArgumentError(f"vertex map does not cover simplex {s}") from exc
    key, sign = sorted_with_sign(np.array(images, dtype=np.int64)[inverse.reshape(rows.shape)])
    keep = sign != 0
    j = lookup_rows(target.simplex_array(k), key[keep])
    if (j < 0).any():
        raise ArgumentError(f"image simplex {tuple(key[keep][j < 0][0].tolist())} not in target complex")
    return SimplicialCurrent.from_arrays(target, k, j, sign[keep] * T.coeff[keep])


def evaluate(T: SimplicialCurrent, f: PLFunction, pis) -> float:
    """Evaluate the current on a function tuple (f, pi_1..pi_k).

    Per simplex this integrates d(pi_1) ^ ... ^ d(pi_k) exactly for PL data
    (a k x k determinant of vertex differences over k!), weighted by the
    value of f at the barycenter.
    """
    pis = list(pis)
    if len(pis) != T.dim:
        raise ArgumentError(f"need {T.dim} projection functions, got {len(pis)}")
    k = T.dim
    ids = T.complex.simplex_array(k)[T.idx]
    weights = T.coeff * f.values[ids].mean(axis=1)
    if k == 0:
        return float(weights.sum())
    pv = np.array([p.values for p in pis])
    # m[n, a, b] = pi_a(v_{b+1}) - pi_a(v_0) on simplex n, one stacked det
    dets = np.linalg.det((pv[:, ids[:, 1:]] - pv[:, ids[:, :1]]).transpose(1, 0, 2))
    return float(weights @ dets / math.factorial(k))


# ---------------------------------------------------------------------------
# JSON and OFF interchange


def complex_to_json(C: GeometricComplex) -> dict:
    out: dict = {"simplices": {str(k): C.simplex_array(k).tolist() for k in C.dims}}
    coords = C.coords()
    if coords is not None:
        out["vertices"] = [list(map(float, row)) for row in coords]
    if isinstance(C.metric, MatrixMetric):
        out["distances"] = [list(map(float, row)) for row in C.metric.mat]
    return out


def chain_to_json(T: SimplicialCurrent) -> dict:
    return {
        "complex": complex_to_json(T.complex),
        "current": {
            "dim": T.dim,
            "coeffs": [list(pair) for pair in zip(T.idx.tolist(), T.coeff.tolist())],
        },
    }


def complex_from_json(data: dict) -> GeometricComplex:
    """The complex {"vertices": rows of finite coordinates, or "distances":
    a distance matrix, "simplices": {"k": [[vertex id, ...], ...]}}, whose
    simplex volumes must be finite."""
    if "distances" in data:
        metric = MatrixMetric(FiniteMetricSpace(np.asarray(data["distances"], dtype=float)).dist)
    elif "vertices" in data:
        coords = np.asarray(data["vertices"], dtype=float)
        if coords.ndim not in (1, 2) or not np.isfinite(coords).all():
            raise ArgumentError("'vertices' must be rows of finite coordinates")
        metric = EuclideanMetric(coords)
    else:
        raise ArgumentError("complex JSON needs 'vertices' or 'distances'")
    simplices = data.get("simplices", {})
    if not isinstance(simplices, dict):
        raise ArgumentError("'simplices' must map each dimension to its vertex-id rows")
    arrays = {}
    for key, sims in simplices.items():
        k = int(key)
        if k < 0:
            raise ArgumentError(f"simplex dimension {key!r} is negative")
        rows = as_integers(sims, f"{k}-simplex vertex ids").reshape(len(sims), k + 1)
        arrays[k] = distinct_rows(np.sort(rows, axis=1))
    arrays.setdefault(0, np.arange(metric.n)[:, None])
    C = GeometricComplex(metric, arrays)
    C.validate()
    # huge but finite coordinates or distances overflow the volumes
    with np.errstate(over="ignore", invalid="ignore"):
        for k in C.dims:
            finite = np.isfinite(C.masses(k))
            if not finite.all():
                s = tuple(C.simplex_array(k)[np.argmin(finite)].tolist())
                raise ArgumentError(f"{k}-simplex {s} has a non-finite volume (coordinates or distances too large)")
    return C


def current_from_json(C: GeometricComplex, cur: dict) -> SimplicialCurrent:
    """The chain {"dim": k, "coeffs": [[index, coefficient], ...]} on C, each
    index listed once."""
    dim = as_integers(cur["dim"], "chain dim")
    if dim.ndim or dim < 0:
        raise ArgumentError(f"chain dim must be a nonnegative integer, got {cur['dim']!r}")
    dim = int(dim)
    pairs = as_integers(cur.get("coeffs", []), "chain indices and coefficients")
    if pairs.size and pairs.shape[1:] != (2,):
        raise ArgumentError("chain coeffs must be [index, coefficient] pairs")
    idx, coeff = pairs.reshape(-1, 2).T
    outside = (idx < 0) | (idx >= C.count(dim))
    if outside.any():
        raise ArgumentError(f"coefficient references missing {dim}-simplex {idx[outside][0]}")
    if len(np.unique(idx)) < len(idx):
        raise ArgumentError("chain coeffs list a simplex index twice")
    return SimplicialCurrent.from_arrays(C, dim, idx, coeff)


def chain_from_json(data: dict) -> SimplicialCurrent:
    return current_from_json(complex_from_json(data["complex"]), data["current"])


def load_off(path) -> GeometricComplex:
    """OFF triangle mesh as a 2-complex with all faces, edges and vertices.

    A short header or body, a non-numeric or non-finite entry, or a face
    that is not a triangle of three distinct vertices raises ArgumentError."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise ArgumentError("not an OFF file")
    try:
        nv, nf, _ = map(int, tokens[1:4])
    except ValueError:
        raise ArgumentError(f"OFF header needs three integer counts, got {tokens[1:4]}") from None
    body, need = tokens[4:], 3 * nv + 4 * nf
    if nv < 0 or nf < 0 or len(body) < need:
        raise ArgumentError(f"OFF body of {nv} vertices and {nf} triangles needs {need} values, found {len(body)}")
    try:
        verts = np.array(body[: 3 * nv], dtype=float).reshape(nv, 3)
        rows = np.array(body[3 * nv : need], dtype=np.int64).reshape(nf, 4)
    except (ValueError, OverflowError) as exc:
        raise ArgumentError(f"OFF body has a malformed value: {exc}") from None
    if not np.isfinite(verts).all():
        raise ArgumentError("OFF vertex coordinates must be finite")
    if (rows[:, 0] != 3).any():
        raise ArgumentError("only triangular OFF faces are supported")
    faces = [tuple(row) for row in rows[:, 1:].tolist()]
    for face in faces:
        if not all(0 <= v < nv for v in face):
            raise ArgumentError(f"OFF face {face} names a vertex outside 0..{nv - 1}")
        if len(set(face)) < 3:
            raise ArgumentError(f"OFF face {face} repeats a vertex")
    return GeometricComplex.from_top_simplices(EuclideanMetric(verts), faces)
