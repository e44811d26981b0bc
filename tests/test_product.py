import itertools
import math

import numpy as np
import pytest

from currentlab.complexes import CallableMetric, EuclideanMetric, GeometricComplex, MatrixMetric
from currentlab.currents import SimplicialCurrent, boundary, mass, push_forward
from currentlab.fillvol import boundary_matrix, filling_volume, flat_distance
from currentlab.meshes import disk_mesh, grid_mesh, interval_chain, sphere_mesh, square_complex, torus_patch_mesh
from currentlab.metricspace import ArgumentError, InvariantError
from currentlab.product import (
    _staircase_chain,
    build_product_complex,
    check_product_boundary,
    interval_boundary_lift,
    interval_filling_volume,
    product_current,
)
from currentlab.slicedfill import sliced_fill, sliced_interval_fill

from oracles import simplex_index


def triangle_loop():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    C = GeometricComplex.from_top_simplices(EuclideanMetric(pts), [(0, 1), (1, 2), (0, 2)])
    loop = SimplicialCurrent.from_simplices(C, 1, [((0, 1), 1), ((1, 2), 1), ((2, 0), 1)])
    return C, loop


def random_chain(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        C, T = interval_chain(int(rng.integers(1, 5)))
        coeffs = {i: int(rng.integers(-2, 3)) for i in range(C.count(1))}
        return SimplicialCurrent(C, 1, coeffs)
    if kind == 1:
        C, T = grid_mesh(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        coeffs = {i: int(rng.integers(-2, 3)) for i in range(C.count(2))}
        return SimplicialCurrent(C, 2, coeffs)
    pts = rng.uniform(-1, 1, size=(int(rng.integers(2, 6)), 2))
    C = GeometricComplex.from_top_simplices(EuclideanMetric(pts), [(v,) for v in range(len(pts))])
    coeffs = {i: int(rng.integers(-2, 3)) for i in range(C.count(0))}
    return SimplicialCurrent(C, 0, coeffs)


class TestProductCurrent:
    def test_edge_times_interval(self):
        C, T = interval_chain(1)
        prod = product_current(T, 0.5)
        assert mass(prod) == pytest.approx(0.5, rel=1e-12)
        assert prod.dim == 2

    def test_zero_current(self):
        C, T = interval_chain(2)
        prod = product_current(SimplicialCurrent.zero(C, 1), 0.5)
        assert prod.is_zero()

    def test_mass_identity_and_boundary_rule_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            T = random_chain(rng)
            eps = float(rng.uniform(0.05, 1.5))
            layers = int(rng.integers(1, 3))
            holds, details = check_product_boundary(T, eps, layers)
            assert holds
            rel = abs(details["product_mass"] - details["expected_mass"])
            scale = max(details["expected_mass"], 1e-12)
            assert rel / scale < 1e-9

    def test_matrix_metric_base(self):
        """On a distance-matrix unit square the product metric is a matrix
        too, and the prism has mass eps times M(T)."""
        C, T = square_complex()
        coords = C.coords()
        mat = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
        D = GeometricComplex.from_top_simplices(MatrixMetric(mat), C.simplex_array(2))
        S = SimplicialCurrent.from_arrays(D, 2, T.idx, T.coeff)
        P = product_current(S, 0.3, layers=2)
        assert isinstance(P.complex.metric, MatrixMetric)
        # vertex i at height a is vertex a * n + i, at the block formula's distance
        n, heights = len(mat), np.linspace(0.0, 0.3, 3)
        for a, b, i, j in itertools.product(range(3), range(3), range(n), range(n)):
            want = np.sqrt(mat[i, j] ** 2 + (heights[a] - heights[b]) ** 2)
            assert P.complex.metric.mat[a * n + i, b * n + j] == want
        holds, details = check_product_boundary(S, 0.3)
        assert holds
        assert details["product_mass"] == pytest.approx(0.3 * mass(S), abs=2e-16)

    def test_wrapped_callable_metric_base(self):
        """A chart-wrapped base (the thin-torus patch) keeps its periods on
        the base axes, and the product rule holds."""
        C, T = torus_patch_mesh(0.2, 0.3, 3)
        metric = product_current(T, 0.1).complex.metric
        assert isinstance(metric, CallableMetric)
        assert np.array_equal(metric.wrap, np.concatenate([C.metric.wrap, [0.0]]))
        holds, _ = check_product_boundary(T, 0.1)
        assert holds

    def test_boundary_of_boundary(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            T = random_chain(rng)
            prod = product_current(T, 0.3)
            assert boundary(boundary(prod)).is_zero()

    def test_boundary_mass_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            T = random_chain(rng)
            eps = 0.4
            prod = product_current(T, eps)
            lhs = mass(boundary(prod))
            rhs = eps * mass(boundary(T)) + 2 * mass(T)
            assert lhs <= rhs + 1e-9

    def test_cylinder_boundary_mass(self):
        C, loop = triangle_loop()
        prod = product_current(loop, 0.4)
        assert mass(boundary(prod)) == pytest.approx(2 * 3.0, rel=1e-12)
        lift = interval_boundary_lift(loop, prod.complex, 1)
        assert mass(lift) == pytest.approx(2 * mass(loop), rel=1e-12)

    def test_invalid_epsilon(self):
        C, T = interval_chain(1)
        with pytest.raises(ArgumentError):
            product_current(T, 0.0)


class TestIntervalFilling:
    def test_report_is_checked(self, monkeypatch):
        """A NaN prism mass stops where the report is built."""
        import currentlab.product as product

        C, T = interval_chain(1)
        monkeypatch.setattr(product, "mass", lambda current: math.nan)
        with pytest.raises(InvariantError):
            interval_filling_volume(T, 0.1)

    def test_value_is_eps_times_mass(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            T = random_chain(rng)
            eps = float(rng.uniform(0.05, 1.5))
            rep = interval_filling_volume(T, eps)
            assert rep.value == eps * mass(T) and rep.certificate == {}

    def test_unit_edge_rectangle(self):
        C, T = interval_chain(1)
        rep = interval_filling_volume(T, 0.1)
        assert rep.value == pytest.approx(0.1, rel=1e-9)
        assert rep.value / 0.1 <= mass(T) + 1e-9

    def test_cycle_filled_by_prism(self):
        C, loop = triangle_loop()
        rep = interval_filling_volume(loop, 0.25)
        assert rep.value <= 0.25 * mass(loop) + 1e-9

    def test_disk_mass_bound(self):
        C, T = disk_mesh(h=0.15)
        eps = 0.2
        rep = interval_filling_volume(T, eps)
        assert rep.value / eps <= math.pi + 0.05
        assert rep.value / eps >= 1.5  # the boundary forces a genuine filling

    def test_product_flat_bound(self):
        # flat distance between products within a shared product complex is
        # at most (2 + eps) times the base flat distance
        C, _ = grid_mesh(2, 2)
        idx = simplex_index(C, 1)
        rng = np.random.default_rng(10)
        edges = list(rng.choice(C.count(1), 4, replace=False))
        T1 = SimplicialCurrent(C, 1, {int(edges[0]): 1, int(edges[1]): 1})
        T2 = SimplicialCurrent(C, 1, {int(edges[2]): 1, int(edges[3]): -1})
        eps = 0.3
        base = flat_distance(T1, T2, C).value
        K = build_product_complex(C, eps)
        P1 = _staircase_chain(T1, K, 1)
        P2 = _staircase_chain(T2, K, 1)
        prod_flat = flat_distance(P1, P2, K).value
        assert prod_flat <= (2 + eps) * base + 1e-8


class TestPrismFilling:
    """The prism over supp T carries no (k+1)-cycle, so T x I is the only
    filling of its boundary; the LP stays here as the reference."""

    def test_prism_is_the_unique_filling(self):
        rng = np.random.default_rng(42)
        chains = [random_chain(rng) for _ in range(14)]
        bases = [T for T in chains if not T.is_zero()] + [sphere_mesh(8, 16)[1]]
        eps = 0.3
        for T in bases:
            for layers in (1, 2):
                prod = product_current(T, eps, layers)
                D = boundary_matrix(prod.complex, T.dim + 1).toarray()
                assert np.linalg.matrix_rank(D) == D.shape[1]
                rep = interval_filling_volume(T, eps)
                ref = filling_volume(boundary(prod), prod.complex)
                assert rep.value == pytest.approx(ref.value, rel=1e-12)
                assert rep.lower_bound == rep.value == rep.upper_bound
                assert rep.integral and rep.method == "prism" and rep.residual == 0.0


class TestSlicedIntervalFill:
    def test_k0_routes_to_interval_filling(self):
        C, T = disk_mesh(h=0.15)
        eps = 0.2
        rep = sliced_interval_fill(T, 0, 0.5, epsilon=eps, grid=4)
        from currentlab.slicedfill import ball_context

        ctx = ball_context(T, 0, 0.5)
        direct = interval_filling_volume(ctx.current, eps).value / eps
        assert rep.integral == pytest.approx(direct, rel=1e-6)

    def test_epsilon_sweep_approaches_sliced_fill(self):
        C, T = disk_mesh(h=0.12)
        from currentlab.complexes import coordinate_function

        f = coordinate_function(C, 0)
        sf = sliced_fill(T, 0, 1.05, functions=[f], grid=9)
        values = []
        for eps in (0.4, 0.2, 0.1):
            rep = sliced_interval_fill(T, 0, 1.05, functions=[f], epsilon=eps, grid=9)
            values.append(rep.integral)
            assert rep.mass_lower_bound <= rep.ball_mass + 1e-6
        # recorded trend: the interval value approaches the sliced fill from
        # below as eps shrinks (on the flat disk the prism filling is already
        # optimal, so the sweep is flat up to solver noise)
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9
        assert values[-1] <= sf.integral + 1e-6
        assert values[-1] >= 0.75 * sf.integral
