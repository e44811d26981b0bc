"""Isometric products of currents with an interval via prism triangulation.

The product of a k-current with an interval of length eps is a (k+1)-current
on a staircase-triangulated prism complex over the product metric
sqrt(d^2 + dt^2); its mass is exactly eps times the original mass and its
boundary satisfies the product rule as an integer chain identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import CallableMetric, EuclideanMetric, GeometricComplex, MatrixMetric, lookup_rows
from .currents import SimplicialCurrent, boundary, mass, push_forward
from .fillvol import FillingReport
from .metricspace import ArgumentError
from .slicedfill import _level_box, ball_context


@dataclass
class ProductComplex:
    base: GeometricComplex
    complex: GeometricComplex
    epsilon: float
    layers: int
    lift_bottom: list[int]
    lift_top: list[int]

    def lift_current(self, T: SimplicialCurrent, where="bottom") -> SimplicialCurrent:
        vmap = self.lift_bottom if where == "bottom" else self.lift_top
        return push_forward(T, vmap, self.complex)


def _lifted(points, heights):
    """One copy of `points` per height, with the height as a last coordinate."""
    return np.vstack([np.hstack([points, np.full((len(points), 1), t)]) for t in heights])


def _product_metric(base_metric, heights):
    """Metric on base x {heights} given the base metric."""
    n = base_metric.n
    heights = np.asarray(heights, dtype=float)
    L = len(heights)
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
        big = np.zeros((n * L, n * L))
        base = base_metric.mat
        for a in range(L):
            for b in range(L):
                dt = heights[a] - heights[b]
                big[a * n : (a + 1) * n, b * n : (b + 1) * n] = np.sqrt(base**2 + dt**2)
        return MatrixMetric(big)
    raise ArgumentError(f"unsupported base metric {type(base_metric).__name__}")


def staircase(bottom, top):
    """The staircase triangulations of the prisms between two lifts of a
    stack of k-simplices, given as (..., k+1) vertex-id arrays: a
    (..., k+1, k+2) array whose simplex i takes bottom vertices 0..i and top
    vertices i..k, and carries sign (-1)^i."""
    i, j = np.ogrid[: bottom.shape[-1], : bottom.shape[-1] + 1]
    column = np.where(j <= i, j, j - 1)  # of bottom for j <= i, else of top
    return np.where(j <= i, bottom[..., column], top[..., column])


def build_product_complex(base: GeometricComplex, epsilon: float, layers: int = 1) -> ProductComplex:
    """Triangulated base x [0, eps] with `layers` equal slabs."""
    if not epsilon > 0:
        raise ArgumentError("interval length must be positive")
    if layers < 1:
        raise ArgumentError("need at least one layer")
    n = base.n_vertices
    heights = np.linspace(0.0, epsilon, layers + 1)
    metric = _product_metric(base.metric, heights)
    rows = base.simplex_array(base.top_dim) + n * np.arange(layers)[:, None, None]
    C = GeometricComplex.from_top_simplices(metric, staircase(rows, rows + n).reshape(-1, base.top_dim + 2))
    return ProductComplex(
        base=base,
        complex=C,
        epsilon=epsilon,
        layers=layers,
        lift_bottom=list(range(n)),
        lift_top=list(range(layers * n, (layers + 1) * n)),
    )


def product_current(T: SimplicialCurrent, epsilon: float, layers: int = 1):
    """The current T x interval on a fresh prism complex over supp T.

    Returns (product current, ProductComplex).  The prism over an oriented
    k-simplex is the alternating staircase sum; per slab each staircase
    simplex carries the parent coefficient times (-1)^i.
    """
    base = T.complex
    if not T.is_zero():
        base = GeometricComplex.from_top_simplices(base.metric, base.simplex_array(T.dim)[T.idx])
    pc = build_product_complex(base, epsilon, layers)
    return _staircase_chain(T, pc), pc


def interval_boundary_lift(T: SimplicialCurrent, pc: ProductComplex) -> SimplicialCurrent:
    """The chain T x (interval boundary): the top lift minus the bottom one,
    with the dimension-parity sign that makes the product rule a chain
    identity (classical cell-product convention)."""
    parity = 1 if T.dim % 2 == 0 else -1
    return (pc.lift_current(T, "top") - pc.lift_current(T, "bottom")) * parity


def _staircase_chain(S: SimplicialCurrent, pc: ProductComplex) -> SimplicialCurrent:
    """The product S x interval inside an existing product complex (S's
    prisms must be simplices of the complex)."""
    n, k = S.complex.n_vertices, S.dim
    # (simplex, layer) lifts, each prism's staircase simplices in order
    rows = S.complex.simplex_array(k)[S.idx][:, None, :] + n * np.arange(pc.layers)[:, None]
    prisms = staircase(rows, rows + n).reshape(-1, k + 2)
    j = lookup_rows(pc.complex.simplex_array(k + 1), prisms)
    if (j < 0).any():
        raise ArgumentError(f"prism {tuple(prisms[np.argmax(j < 0)].tolist())} missing from product complex")
    parity = 1 if k % 2 == 0 else -1
    sign = parity * np.where(np.arange(k + 1) % 2, -1, 1)
    coeff = np.broadcast_to(S.coeff[:, None, None] * sign, (len(S.idx), pc.layers, k + 1))
    return SimplicialCurrent.from_arrays(pc.complex, k + 1, j, coeff.ravel())


def check_product_boundary(T: SimplicialCurrent, epsilon: float, layers: int = 1):
    """Verify the product rule exactly; returns (holds, details)."""
    prod, pc = product_current(T, epsilon, layers)
    lhs = boundary(prod)
    bt = boundary(T)
    rhs = interval_boundary_lift(T, pc)
    if not bt.is_zero():
        rhs = rhs + _staircase_chain(bt, pc)
    return (lhs - rhs).is_zero(), {
        "product_mass": mass(prod),
        "expected_mass": epsilon * mass(T),
        "boundary_mass": mass(lhs),
    }


def sliced_interval_fill(
    T: SimplicialCurrent,
    p: int,
    r: float,
    witnesses=None,
    functions=None,
    epsilon: float = 0.1,
    grid: int = 8,
    layers: int = 1,
):
    """Interval-filling variant of the sliced filling of a ball.

    Per level tuple the slice is crossed with an interval of length eps and
    the boundary of the product is filled; the level box integrates that
    filling volume over eps, so the product over Lipschitz constants again
    bounds the ball's mass from below.  Up to dim(T) slicing functions are
    allowed since the product raises the dimension by one.

    The filling of each leaf is the prism itself (see
    `interval_filling_volume`), so every leaf value is exactly eps * M(slice)
    and the result is the coarea integral of slice masses divided by the
    Lipschitz constants: a coarea mass bound, not an independent filling
    bound.
    """
    if not epsilon > 0:
        raise ArgumentError("interval length must be positive")

    def leaf(current):
        if current.is_zero():
            return 0.0
        return interval_filling_volume(current, epsilon, layers).value / epsilon

    return _level_box(ball_context(T, p, r), leaf, grid, functions, witnesses, max_axes=T.dim, cycle=False)


def interval_filling_volume(T: SimplicialCurrent, epsilon: float, layers: int = 1) -> FillingReport:
    """Filling volume of the boundary of T x interval, within the prism complex.

    The prism complex over the k-chain T has no (k+2)-simplices, and its
    (k+1)-homology is that of supp T x [0, eps], which vanishes because supp T
    is k-dimensional.  So it carries no nonzero (k+1)-cycle, the boundary map
    on (k+1)-chains is injective, and T x interval is the unique filling, real
    or integral.  The value is therefore its mass eps * M(T), up to metric
    rounding, with the prism's coefficients as certificate; the report notes
    when the mass bound M(T) >= value / eps fails numerically.
    """
    prod, _ = product_current(T, epsilon, layers)
    value = mass(prod)
    report = FillingReport.exact(value, "prism", {"S": dict(zip(prod.idx.tolist(), prod.coeff.tolist()))})
    bound = mass(T) + 1e-9 * max(mass(T), 1.0)
    if value / epsilon > bound:
        report.warnings.append(
            f"interval filling {value} exceeds eps * mass bound {epsilon * mass(T)}"
        )
    return report
