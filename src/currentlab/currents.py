"""Integer-weighted oriented chains on a geometric complex.

A current of dimension k is a sparse map from k-simplex indices to nonzero
integer coefficients; the sign is the orientation relative to the canonical
sorted vertex order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import EuclideanMetric, GeometricComplex, MatrixMetric, PLFunction
from .metricspace import ArgumentError


def permutation_sign(seq) -> int:
    """Sign of the permutation sorting `seq`; 0 if entries repeat."""
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


@dataclass
class SimplicialCurrent:
    complex: GeometricComplex
    dim: int
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {i: int(c) for i, c in self.coeffs.items() if int(c) != 0}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_simplices(cls, complex, dim, pairs):
        """Build from (vertex tuple, coefficient) pairs; permuted tuples
        contribute the sign of the sorting permutation."""
        index = complex.index(dim)
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
        return cls(complex, dim, coeffs)

    @classmethod
    def zero(cls, complex, dim):
        return cls(complex, dim, {})

    @classmethod
    def full(cls, complex, dim, coefficient=1):
        return cls(complex, dim, {i: coefficient for i in range(complex.count(dim))})

    # -- chain algebra -------------------------------------------------------

    def copy(self):
        return SimplicialCurrent(self.complex, self.dim, dict(self.coeffs))

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return SimplicialCurrent(self.complex, self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SimplicialCurrent(self.complex, self.dim, {i: -c for i, c in self.coeffs.items()})

    def __mul__(self, scalar: int):
        return SimplicialCurrent(
            self.complex, self.dim, {i: c * int(scalar) for i, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialCurrent)
            and self.complex is other.complex
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def _check_compatible(self, other):
        if self.complex is not other.complex or self.dim != other.dim:
            raise ArgumentError("currents live on different complexes or dimensions")

    def is_zero(self):
        return not self.coeffs

    def simplex(self, idx):
        return self.complex.simplices[self.dim][idx]

    def support_simplices(self):
        return [self.simplex(i) for i in sorted(self.coeffs)]

    def support_vertices(self):
        verts: set[int] = set()
        for i in self.coeffs:
            verts.update(self.simplex(i))
        return sorted(verts)

    def signature(self):
        """Canonical content representation, independent of simplex indexing."""
        return tuple(sorted((self.simplex(i), c) for i, c in self.coeffs.items()))


# ---------------------------------------------------------------------------
# operations


def boundary(T: SimplicialCurrent) -> SimplicialCurrent:
    """Alternating-sign chain boundary; the zero current for dimension 0."""
    if T.dim == 0:
        return SimplicialCurrent.zero(T.complex, 0)
    k = T.dim
    faces = T.complex.index(k - 1)
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


def mass(T: SimplicialCurrent) -> float:
    if not T.coeffs:
        return 0.0
    w = T.complex.masses(T.dim)
    return float(sum(abs(c) * w[i] for i, c in T.coeffs.items()))


def total_mass(T: SimplicialCurrent) -> float:
    return mass(T) + mass(boundary(T))


def push_forward(T: SimplicialCurrent, vmap, target: GeometricComplex) -> SimplicialCurrent:
    """Push a current through a vertex map into another complex.

    Simplices with repeated image vertices are dropped (degenerate image);
    the image simplex must exist in the target complex.  Coefficients pick up
    the sign of the permutation sorting the image tuple.
    """
    index = target.index(T.dim)
    out: dict[int, int] = {}
    for idx, c in T.coeffs.items():
        s = T.simplex(idx)
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


def restrict(T: SimplicialCurrent, predicate, mode="barycenter") -> SimplicialCurrent:
    """Restrict a current to the simplices selected by a predicate.

    `predicate` is either a callable on barycenters (barycenter mode only) or
    a (PLFunction, level) pair meaning the sublevel set {f <= s}.  Subdivided
    mode refines along the PL level set first, so the restriction is exact.
    """
    if isinstance(predicate, tuple) and isinstance(predicate[0], PLFunction):
        f, level = predicate
        if mode == "subdivided":
            from .slicing import restrict_sublevel

            return restrict_sublevel(T, f, level)
        values = f.values

        def keep(bary_val):
            return bary_val <= level

        bary = T.complex.barycenter_values(T.dim, values)
        kept = {i: c for i, c in T.coeffs.items() if keep(bary[i])}
        return SimplicialCurrent(T.complex, T.dim, kept)
    if mode == "subdivided":
        raise ArgumentError("subdivided mode needs a (PLFunction, level) predicate")
    coords = T.complex.coords()
    kept = {}
    for i, c in T.coeffs.items():
        s = T.simplex(i)
        # coordinate-backed complexes pass the barycenter, abstract ones the
        # vertex-id tuple
        probe = coords[list(s)].mean(axis=0) if coords is not None else s
        if predicate(probe):
            kept[i] = c
    return SimplicialCurrent(T.complex, T.dim, kept)


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
    total = 0.0
    fact = math.factorial(k)
    ids = T.complex.simplex_array(k)[list(T.coeffs)].reshape(-1, k + 1)
    fbars = f.values[ids].mean(axis=1)
    if k == 0:
        for c, fbar in zip(T.coeffs.values(), fbars):
            total += c * fbar
        return float(total)
    pv = np.array([p.values for p in pis])
    # m[n, a, b] = pi_a(v_{b+1}) - pi_a(v_0) on simplex n, one stacked det
    dets = np.linalg.det((pv[:, ids[:, 1:]] - pv[:, ids[:, :1]]).transpose(1, 0, 2))
    for c, fbar, det in zip(T.coeffs.values(), fbars, dets.tolist()):
        total += c * fbar * det / fact
    return float(total)


# ---------------------------------------------------------------------------
# JSON and OFF interchange


def complex_to_json(C: GeometricComplex) -> dict:
    out: dict = {"simplices": {str(k): [list(s) for s in C.simplices[k]] for k in C.dims}}
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
            "coeffs": [[int(i), int(c)] for i, c in sorted(T.coeffs.items())],
        },
    }


def complex_from_json(data: dict) -> GeometricComplex:
    if "distances" in data:
        metric = MatrixMetric(np.asarray(data["distances"], dtype=float))
    elif "vertices" in data:
        metric = EuclideanMetric(np.asarray(data["vertices"], dtype=float))
    else:
        raise ArgumentError("complex JSON needs 'vertices' or 'distances'")
    simplices = {}
    for key, sims in data.get("simplices", {}).items():
        k = int(key)
        simplices[k] = [tuple(sorted(int(v) for v in s)) for s in sims]
    if 0 not in simplices:
        simplices[0] = [(v,) for v in range(metric.n)]
    C = GeometricComplex(metric, {k: sorted(set(v)) for k, v in simplices.items()})
    C.validate()
    return C


def chain_from_json(data: dict) -> SimplicialCurrent:
    C = complex_from_json(data["complex"])
    cur = data["current"]
    dim = int(cur["dim"])
    coeffs = {int(i): int(c) for i, c in cur.get("coeffs", [])}
    nmax = C.count(dim)
    for i in coeffs:
        if not (0 <= i < nmax):
            raise ArgumentError(f"coefficient references missing {dim}-simplex {i}")
    return SimplicialCurrent(C, dim, coeffs)


def load_chain(path) -> SimplicialCurrent:
    with open(path, "r", encoding="utf-8") as fh:
        return chain_from_json(json.load(fh))


def load_off(path) -> GeometricComplex:
    """OFF triangle mesh as a 2-complex with all faces, edges and vertices."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise ArgumentError("not an OFF file")
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4
    verts = []
    for _ in range(nv):
        verts.append([float(tokens[pos]), float(tokens[pos + 1]), float(tokens[pos + 2])])
        pos += 3
    faces = []
    for _ in range(nf):
        cnt = int(tokens[pos])
        if cnt != 3:
            raise ArgumentError("only triangular OFF faces are supported")
        faces.append(tuple(int(t) for t in tokens[pos + 1 : pos + 4]))
        pos += cnt + 1
    return GeometricComplex.from_top_simplices(EuclideanMetric(np.array(verts)), faces)
