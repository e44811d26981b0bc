"""Isometric products of currents with an interval via prism triangulation.

The product of a k-current with an interval of length eps is a (k+1)-current
on a staircase-triangulated prism complex over the product metric
sqrt(d^2 + dt^2); its mass is exactly eps times the original mass and its
boundary satisfies the product rule as an integer chain identity.
"""
from __future__ import annotations

import numpy as np

from .complexes import CallableMetric, EuclideanMetric, GeometricComplex, MatrixMetric, lookup_rows
from .currents import SimplicialCurrent, boundary, mass
from .fillvol import FillingReport
from .metricspace import ArgumentError


def _lifted(points, heights):
    """One copy of `points` per height, with the height as a last coordinate."""
    return np.vstack([np.hstack([points, np.full((len(points), 1), t)]) for t in heights])


def _product_metric(base_metric, heights):
    """Metric on base x {heights} given the base metric."""
    heights = np.asarray(heights, dtype=float)
    if isinstance(base_metric, EuclideanMetric):
        return EuclideanMetric(_lifted(base_metric.coords, heights))
    if isinstance(base_metric, CallableMetric):
        d = base_metric.points.shape[1]
        base_fn = base_metric.fn
        pts = _lifted(base_metric.points, heights)

        def fn(A, B):
            db = base_fn(A[:, :d], B[:, :d])
            dt = A[:, d] - B[:, d]
            return np.sqrt(db**2 + dt**2)

        wrap = None
        if base_metric.wrap is not None:
            wrap = np.concatenate([base_metric.wrap, [0.0]])
        return CallableMetric(pts, fn, wrap=wrap)
    if isinstance(base_metric, MatrixMetric):
        n, L = base_metric.n, len(heights)
        dt = heights[:, None] - heights[None, :]
        # entry (a, i, b, j) is the distance from (i, height a) to (j, height b)
        big = np.sqrt(base_metric.mat[None, :, None, :] ** 2 + dt[:, None, :, None] ** 2)
        return MatrixMetric(big.reshape(n * L, n * L))
    raise ArgumentError(f"unsupported base metric {type(base_metric).__name__}")


def staircase(bottom, top):
    """The staircase triangulations of the prisms between two lifts of a
    stack of k-simplices, given as (..., k+1) vertex-id arrays: a
    (..., k+1, k+2) array whose simplex i takes bottom vertices 0..i and top
    vertices i..k, and carries sign (-1)^i."""
    i, j = np.ogrid[: bottom.shape[-1], : bottom.shape[-1] + 1]
    column = np.where(j <= i, j, j - 1)  # of bottom for j <= i, else of top
    return np.where(j <= i, bottom[..., column], top[..., column])


def build_product_complex(base: GeometricComplex, epsilon: float, layers: int = 1) -> GeometricComplex:
    """Triangulated base x [0, eps] with `layers` equal slabs: vertex v of
    the base at height index l is vertex v + l * n, n the base's vertex
    count."""
    if not epsilon > 0:
        raise ArgumentError("interval length must be positive")
    if layers < 1:
        raise ArgumentError("need at least one layer")
    n = base.n_vertices
    heights = np.linspace(0.0, epsilon, layers + 1)
    metric = _product_metric(base.metric, heights)
    rows = base.simplex_array(base.top_dim) + n * np.arange(layers)[:, None, None]
    return GeometricComplex.from_top_simplices(metric, staircase(rows, rows + n).reshape(-1, base.top_dim + 2))


def product_current(T: SimplicialCurrent, epsilon: float, layers: int = 1) -> SimplicialCurrent:
    """The current T x interval on a fresh prism complex over supp T (see
    `build_product_complex`).  The prism over an oriented k-simplex is the
    alternating staircase sum; per slab each staircase simplex carries the
    parent coefficient times (-1)^i.
    """
    base = T.complex
    if not T.is_zero():
        base = GeometricComplex.from_top_simplices(base.metric, base.simplex_array(T.dim)[T.idx])
    return _staircase_chain(T, build_product_complex(base, epsilon, layers), layers)


def _indices_in(complex: GeometricComplex, rows) -> np.ndarray:
    """The indices in the product complex of the simplex rows, each of
    which it must hold."""
    j = lookup_rows(complex.simplex_array(rows.shape[1] - 1), rows)
    if (j < 0).any():
        raise ArgumentError(f"simplex {tuple(rows[np.argmax(j < 0)].tolist())} missing from product complex")
    return j


def interval_boundary_lift(T: SimplicialCurrent, complex: GeometricComplex, layers: int) -> SimplicialCurrent:
    """The chain T x (interval boundary): the top lift minus the bottom one,
    with the dimension-parity sign that makes the product rule a chain
    identity (classical cell-product convention), in the product complex
    of T's complex with `layers` slabs.  A lift offsets every vertex id by
    the same amount, so it keeps each row sorted."""
    parity = 1 if T.dim % 2 == 0 else -1
    rows = T.complex.simplex_array(T.dim)[T.idx]
    top = _indices_in(complex, rows + layers * T.complex.n_vertices)
    bottom = _indices_in(complex, rows)
    coeff = np.concatenate([T.coeff, -T.coeff]) * parity
    return SimplicialCurrent.from_arrays(complex, T.dim, np.concatenate([top, bottom]), coeff)


def _staircase_chain(S: SimplicialCurrent, complex: GeometricComplex, layers: int) -> SimplicialCurrent:
    """The product S x interval inside an existing product complex with
    `layers` slabs (S's prisms must be simplices of the complex)."""
    n, k = S.complex.n_vertices, S.dim
    # (simplex, layer) lifts, each prism's staircase simplices in order
    rows = S.complex.simplex_array(k)[S.idx][:, None, :] + n * np.arange(layers)[:, None]
    j = _indices_in(complex, staircase(rows, rows + n).reshape(-1, k + 2))
    parity = 1 if k % 2 == 0 else -1
    sign = parity * np.where(np.arange(k + 1) % 2, -1, 1)
    coeff = np.broadcast_to(S.coeff[:, None, None] * sign, (len(S.idx), layers, k + 1))
    return SimplicialCurrent.from_arrays(complex, k + 1, j, coeff.ravel())


def check_product_boundary(T: SimplicialCurrent, epsilon: float, layers: int = 1):
    """Verify the product rule exactly; returns (holds, details)."""
    prod = product_current(T, epsilon, layers)
    lhs = boundary(prod)
    bt = boundary(T)
    rhs = interval_boundary_lift(T, prod.complex, layers)
    if not bt.is_zero():
        rhs = rhs + _staircase_chain(bt, prod.complex, layers)
    return (lhs - rhs).is_zero(), {
        "product_mass": mass(prod),
        "expected_mass": epsilon * mass(T),
        "boundary_mass": mass(lhs),
    }


def interval_filling_volume(T: SimplicialCurrent, epsilon: float) -> FillingReport:
    """Filling volume of the boundary of T x interval, within the prism complex.

    The prism complex over the k-chain T has no (k+2)-simplices, and its
    (k+1)-homology is that of supp T x [0, eps], which vanishes because supp T
    is k-dimensional.  So it carries no nonzero (k+1)-cycle, the boundary map
    on (k+1)-chains is injective, and T x interval is the unique filling, real
    or integral.  Its mass is eps * M(T), whatever the triangulation of the
    prism, so that is the value, and no product complex is built.
    """
    if not epsilon > 0:
        raise ArgumentError("interval length must be positive")
    return FillingReport.exact(epsilon * mass(T), "prism", {})
