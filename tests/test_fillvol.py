import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import eye

from currentlab import fillvol
from currentlab.complexes import EuclideanMetric, GeometricComplex
from currentlab.currents import SimplicialCurrent, boundary, mass
from currentlab.fillvol import (
    FillingReport,
    _certificate_from_vector,
    _chain_vector,
    boundary_matrix,
    cone_bound,
    filling_volume,
    filling_volume_0d,
    fillvol_continuity_gap,
    flat_distance,
)
from currentlab.meshes import disk_mesh, euclidean_box_mesh, grid_mesh, sphere_mesh, square_complex
from currentlab.metricspace import ArgumentError, FiniteMetricSpace, InvariantError
from currentlab.slicedfill import fill_value_of_boundary
from currentlab.slicing import PointCycle

from oracles import (
    coo_boundary_matrix,
    exhaustive_flat_distance,
    hstack_weighted_l1,
    simplex_index,
    transport_oracle,
)


def equilateral_complex():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    return GeometricComplex.from_top_simplices(EuclideanMetric(pts), [(0, 1, 2)])


def random_flat_instance(rng):
    """Small embedded 2-complex with <= 8 triangles and two 1-chains."""
    nx = int(rng.integers(1, 3))
    ny = int(rng.integers(1, 3))
    C, _ = grid_mesh(nx, ny)
    n1 = C.count(1)
    S = SimplicialCurrent(C, 1, {i: int(rng.integers(-1, 2)) for i in rng.choice(n1, 3)})
    T = SimplicialCurrent(C, 1, {i: int(rng.integers(-1, 2)) for i in rng.choice(n1, 3)})
    return C, S, T


class TestFlatDistance:
    def test_equal_currents(self):
        C, T = square_complex()
        loop = boundary(T)
        rep = flat_distance(loop, loop, C)
        assert rep.value == pytest.approx(0.0, abs=1e-10)

    def test_triangle_boundary_vs_zero(self):
        C = equilateral_complex()
        T = SimplicialCurrent.from_simplices(C, 2, [((0, 1, 2), 1)])
        loop = boundary(T)
        zero = SimplicialCurrent.zero(C, 1)
        rep = flat_distance(loop, zero, C)
        # candidates computed directly: perimeter 3 (U only) vs area sqrt(3)/4
        assert rep.value == pytest.approx(min(3.0, math.sqrt(3) / 4), rel=1e-9)
        assert rep.integral

    def test_opposite_square_edges_match_oracle(self):
        C, T = square_complex()
        idx = simplex_index(C, 1)
        bottom = SimplicialCurrent(C, 1, {idx[(0, 1)]: 1})
        top = SimplicialCurrent(C, 1, {idx[(2, 3)]: 1})
        rep = flat_distance(bottom, top, C)
        oracle = exhaustive_flat_distance(bottom, top, C)
        assert rep.value <= oracle.value + 1e-9
        assert rep.value <= 2.0 + 1e-9
        if rep.integral:
            assert rep.value == pytest.approx(oracle.value, abs=1e-6)

    def test_lp_vs_exhaustive_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            C, S, T = random_flat_instance(rng)
            rep = flat_distance(S, T, C)
            oracle = exhaustive_flat_distance(S, T, C)
            assert rep.value <= oracle.value + 1e-8
            if rep.integral:
                assert rep.value == pytest.approx(oracle.value, abs=1e-6)

    def test_missing_top_dimension_rejected(self):
        # the two triangles of the square in R^3 (one corner lifted): the
        # flat LP needs 3-simplices and the complex has none
        square, T2 = square_complex()
        pts = np.hstack([square.coords(), [[0.0], [0.0], [0.0], [0.5]]])
        C = GeometricComplex.from_top_simplices(EuclideanMetric(pts), square.simplices[2])
        T = SimplicialCurrent(C, 2, dict(T2.coeffs))
        with pytest.raises(ArgumentError):
            flat_distance(T, T, C)

    def test_planar_flat_needs_no_top_dimension(self):
        # in the plane the flat distance is M(S - T), taken in R^2
        C, T = square_complex()
        assert 3 not in C.simplices
        S = SimplicialCurrent(C, 2, {0: 2})
        rep = flat_distance(S, T, C)
        assert rep.method == "winding"
        assert rep.value == pytest.approx(mass(S - T), rel=1e-12)
        assert rep.value > 0


class TestFillingVolume:
    def test_zero_cycle(self):
        C = equilateral_complex()
        rep = filling_volume(SimplicialCurrent.zero(C, 1), C)
        assert rep.value == 0.0

    def test_triangle_loop(self):
        C = equilateral_complex()
        T = SimplicialCurrent.from_simplices(C, 2, [((0, 1, 2), 1)])
        rep = filling_volume(boundary(T), C)
        assert rep.value == pytest.approx(math.sqrt(3) / 4, rel=1e-9)
        assert rep.integral
        assert rep.value <= rep.upper_bound

    def test_non_cycle_rejected(self):
        C, T = square_complex()
        idx = simplex_index(C, 1)
        arc = SimplicialCurrent(C, 1, {idx[(0, 1)]: 1})
        with pytest.raises(ArgumentError, match="not a cycle"):
            filling_volume(arc, C)

    def test_equator_fills_hemisphere(self):
        C, T = sphere_mesh(16, 32)
        from currentlab.slicedfill import ball_context

        ctx = ball_context(T, 0, math.pi / 2)
        B = boundary(ctx.current)
        rep = filling_volume(B, ctx.complex)
        assert rep.value == pytest.approx(2 * math.pi, rel=0.05)
        # a filling never exceeds the mass of a current it bounds
        assert rep.value <= mass(ctx.current) + 1e-9

    def test_fill_bounded_by_any_filling(self):
        C, T = square_complex()
        rep = filling_volume(boundary(T), C)
        assert rep.value <= mass(T) + 1e-9

    def test_flat_of_cycle_bounded_by_filling(self):
        C = equilateral_complex()
        T = SimplicialCurrent.from_simplices(C, 2, [((0, 1, 2), 1)])
        loop = boundary(T)
        flat = flat_distance(loop, SimplicialCurrent.zero(C, 1), C)
        fill = filling_volume(loop, C)
        assert flat.value <= fill.value + 1e-9

    def test_scale_equivariance(self):
        # scaling distances by lam scales k-dimensional fillings by lam^(k+1)
        for lam in (0.5, 2.0, 3.7):
            pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
            C1 = GeometricComplex.from_top_simplices(EuclideanMetric(pts), [(0, 1, 2)])
            C2 = GeometricComplex.from_top_simplices(EuclideanMetric(lam * pts), [(0, 1, 2)])
            T1 = SimplicialCurrent.from_simplices(C1, 2, [((0, 1, 2), 1)])
            T2 = SimplicialCurrent.from_simplices(C2, 2, [((0, 1, 2), 1)])
            v1 = filling_volume(boundary(T1), C1).value
            v2 = filling_volume(boundary(T2), C2).value
            assert v2 == pytest.approx(lam**2 * v1, rel=1e-9)

    def test_cone_bound_value(self):
        C = equilateral_complex()
        T = SimplicialCurrent.from_simplices(C, 2, [((0, 1, 2), 1)])
        loop = boundary(T)
        assert cone_bound(loop) == pytest.approx(3.0, rel=1e-12)  # diam 1, mass 3


class TestTransport:
    def test_two_points(self):
        X = FiniteMetricSpace.from_points(np.array([[0.0], [2.5]]))
        rep = filling_volume_0d(X, [1, 1], [1, -1])
        assert rep.value == pytest.approx(2.5)
        assert rep.lower_bound == pytest.approx(2.5)

    def test_colinear_alternating(self):
        X = FiniteMetricSpace.from_points(np.array([[0.0], [1.0], [2.0], [3.0]]))
        rep = filling_volume_0d(X, [1, 1, 1, 1], [1, -1, 1, -1])
        assert rep.value == pytest.approx(2.0)

    def test_multiplicity_matches_oracle(self):
        pts = np.array([[0.0, 0.0], [1.2, 0.1], [0.4, 0.9]])
        X = FiniteMetricSpace.from_points(pts)
        rep = filling_volume_0d(X, [2, 1, 1], [1, -1, -1])
        assert rep.value == pytest.approx(transport_oracle(pts, [2, 1, 1], [1, -1, -1]), abs=1e-12)

    @pytest.mark.parametrize("theta, sigma", [([1.5, 1.5], [1, -1]), ([0.9, 0.9], [1, -1]), ([1, 1], [1.5, -1.5])])
    def test_non_integer_weights_and_signs_rejected(self, theta, sigma):
        # 1.5 was read as 1 (value 2.5 at weight 1), 0.9 as 0
        X = FiniteMetricSpace.from_points(np.array([[0.0], [2.5]]))
        with pytest.raises(ArgumentError, match="weights must be positive integers|signs must be"):
            filling_volume_0d(X, theta, sigma)

    def test_integer_valued_floats_accepted(self):
        X = FiniteMetricSpace.from_points(np.array([[0.0], [2.5]]))
        assert filling_volume_0d(X, [2.0, 2.0], [1.0, -1.0]).value == filling_volume_0d(X, [2, 2], [1, -1]).value

    @pytest.mark.parametrize("theta, sigma", [([1, 1, 1, 1], [1, -1, 1, -1]), ([1, 1], [1, -1]), ([1, 1, 2], [1, -1])])
    def test_one_weight_and_sign_per_point(self, theta, sigma):
        # 4 weights on 2 points ended in an IndexError; 2 weights on 3
        # points ignored the third
        X = FiniteMetricSpace.from_points(np.array([[0.0], [1.0], [5.0]])[: 2 if len(theta) == 4 else 3])
        with pytest.raises(ArgumentError, match="one weight and sign per point"):
            filling_volume_0d(X, theta, sigma)

    def test_slice_leaf_is_transport_on_the_boundary_points(self):
        """The sliced-filling leaf of a 1-chain is the transport between its
        boundary points as a point cloud, weights and signs from the
        boundary's coefficients."""
        C, _ = disk_mesh(h=0.3)
        rng = np.random.default_rng(5)
        n = C.count(1)
        T = SimplicialCurrent.from_arrays(C, 1, np.arange(n), rng.integers(-2, 3, size=n))
        B = boundary(T)
        assert len(B.idx) >= 4
        X = FiniteMetricSpace.from_points(C.metric.coords[C.simplex_array(0)[B.idx, 0]])
        want = filling_volume_0d(X, np.abs(B.coeff), np.sign(B.coeff)).value
        assert fill_value_of_boundary(PointCycle.from_chain(B)) == pytest.approx(want, rel=1e-12)

    def test_unbalanced_rejected(self):
        X = FiniteMetricSpace.from_points(np.array([[0.0], [1.0]]))
        with pytest.raises(ArgumentError, match="sum to zero"):
            filling_volume_0d(X, [2, 1], [1, -1])

    def test_randomized_against_oracle_and_lower_bound(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            pts = rng.uniform(-1, 1, size=(n, 2))
            theta = [int(t) for t in rng.integers(1, 3, size=n)]
            sigma = [1] * n
            # balance the signs
            total = sum(theta)
            if total % 2:
                theta[0] += 1
                total += 1
            acc = 0
            for i in range(n):
                if acc + theta[i] <= total // 2:
                    acc += theta[i]
                    sigma[i] = 1
                else:
                    sigma[i] = -1
            if sum(t * s for t, s in zip(theta, sigma)) != 0:
                continue
            X = FiniteMetricSpace.from_points(pts)
            rep = filling_volume_0d(X, theta, sigma)
            assert rep.lower_bound <= rep.value + 1e-9
            oracle = transport_oracle(pts, theta, sigma)
            assert rep.value == pytest.approx(oracle, abs=1e-9)


class TestContinuityGap:
    def test_identical_currents(self):
        C, _ = square_complex()
        idx = simplex_index(C, 1)
        path = SimplicialCurrent(C, 1, {idx[(0, 1)]: 1, idx[(1, 3)]: 1})
        gap, bound = fillvol_continuity_gap(path, path, C)
        assert gap == pytest.approx(0.0, abs=1e-10)
        assert bound == pytest.approx(0.0, abs=1e-10)

    def test_coefficient_perturbation(self):
        # ~20-simplex complex; change one coefficient of a 1-chain
        C, _ = grid_mesh(3, 3)
        rng = np.random.default_rng(6)
        n1 = C.count(1)
        M1 = SimplicialCurrent(C, 1, {int(i): 1 for i in rng.choice(n1, 4, replace=False)})
        coeffs = dict(M1.coeffs)
        first = next(iter(coeffs))
        coeffs[first] += 1
        M2 = SimplicialCurrent(C, 1, coeffs)
        gap, bound = fillvol_continuity_gap(M1, M2, C)
        assert gap <= bound + 1e-6
        assert bound > 0

    def test_gap_above_flat_distance_raises(self, monkeypatch):
        import currentlab.fillvol as fillvol

        C, _ = square_complex()
        idx = simplex_index(C, 1)
        path = SimplicialCurrent(C, 1, {idx[(0, 1)]: 1, idx[(1, 3)]: 1})
        monkeypatch.setattr(fillvol, "flat_distance", lambda *a: FillingReport(0.0, 0.0, 0.0))
        with pytest.raises(InvariantError):
            fillvol_continuity_gap(path, SimplicialCurrent.zero(C, 1), C)


@pytest.mark.parametrize("status, error", [(2, ArgumentError), (3, RuntimeError)])
def test_only_a_proven_infeasible_lp_is_an_input_error(monkeypatch, status, error):
    """HiGHS status 2 (infeasible) means the cycle does not bound: bad
    input.  Any other failure, such as presolve's spurious "unbounded" on
    nonnegative costs, is a solver fault reported with its status."""
    import currentlab.fillvol as fillvol
    from scipy.optimize import OptimizeResult

    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    C = GeometricComplex.from_top_simplices(EuclideanMetric(pts), [(0, 1, 2)])
    B = boundary(SimplicialCurrent.full(C, 2))
    failed = OptimizeResult(status=status, success=False, message="stub", x=None, fun=None)
    monkeypatch.setattr(fillvol, "linprog", lambda *a, **kw: failed)
    with pytest.raises(error, match="infeasible" if status == 2 else "HiGHS status 3: stub"):
        filling_volume(B, C)


def test_corrupted_report_raises_invariant_error():
    with pytest.raises(InvariantError):
        FillingReport(value=1.0, lower_bound=2.0, upper_bound=3.0).check()


def test_report_is_checked_where_it_is_built():
    with pytest.raises(InvariantError):
        FillingReport(1.0, 2.0, 3.0)
    with pytest.raises(InvariantError):
        FillingReport.exact(math.nan, "winding", {})
    rep = FillingReport.exact(0.5, "winding", {})
    assert (rep.lower_bound, rep.value, rep.upper_bound) == (0.5, 0.5, 0.5)
    assert rep.integral and rep.residual == 0.0


def test_exhaustive_report_is_checked(monkeypatch):
    """A NaN optimum of the exhaustive search stops where its report is built."""
    C, T = square_complex()
    bottom = SimplicialCurrent(C, 1, {simplex_index(C, 1)[(0, 1)]: 1})
    monkeypatch.setattr(C, "masses", lambda k: np.full(C.count(k), np.nan))
    with pytest.raises(InvariantError):
        exhaustive_flat_distance(bottom, SimplicialCurrent.zero(C, 1), C)


def test_a_call_without_an_lp_loads_no_solver():
    """scipy's LP solver and sparse matrices are imported by the first LP:
    importing the library and taking a mass leave them unloaded."""
    code = (
        "import sys, currentlab\n"
        "from currentlab.meshes import disk_mesh\n"
        "assert currentlab.mass(disk_mesh(h=0.3)[1]) > 0\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _book_complex():
    """A branching 2-complex in R^3: four triangles on the edge (0, 1), two
    of them continued by a third triangle each."""
    pts = np.array(
        [[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0.2], [0.5, 0.3, 1], [0.5, 0.4, -1], [1.5, 1, 0.3], [1.2, -0.8, 0.9]]
    )
    tops = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (1, 2, 6), (1, 3, 7)]
    return GeometricComplex.from_top_simplices(EuclideanMetric(pts), tops)


_LP_COMPLEXES = {
    "box": euclidean_box_mesh(0.5, 2)[0],
    "book": _book_complex(),
    "sphere": sphere_mesh(4, 8)[0],
}


def _spy_on_linprog(monkeypatch):
    """The A_eq of every LP solved from now on, in call order."""
    seen = []
    solve = fillvol.linprog

    def spy(cost, *, A_eq, b_eq):
        seen.append(A_eq)
        return solve(cost, A_eq=A_eq, b_eq=b_eq)

    monkeypatch.setattr(fillvol, "linprog", spy)
    return seen


@pytest.mark.parametrize("name", ["box", "book"])
def test_lp_matrix_is_the_signed_stack_of_boundary_matrices(name, monkeypatch):
    """A fill's matrix is [D, -D] and a flat's [I, -I, D, -D] for D the
    boundary matrix, column i of which holds (-1)^j at face j of simplex i;
    each column's entries are in row order."""
    C = _LP_COMPLEXES[name]
    k = C.top_dim
    D = boundary_matrix(C, k).toarray()
    faces = C.face_index(k)
    want = np.zeros((C.count(k - 1), C.count(k)))
    for i, row in enumerate(faces.tolist()):
        for j, face in enumerate(row):
            want[face, i] = (-1) ** j
    assert np.array_equal(D, want)
    seen = _spy_on_linprog(monkeypatch)
    filling_volume(boundary(SimplicialCurrent(C, k, {0: 1, 1: -1, 2: 2})), C)
    flat_distance(SimplicialCurrent(C, k - 1, {0: 1, 3: -2}), SimplicialCurrent(C, k - 1, {1: 1}), C)
    ident = np.eye(C.count(k - 1))
    fill, flat = seen
    assert np.array_equal(fill.toarray(), np.hstack([D, -D]))
    assert np.array_equal(flat.toarray(), np.hstack([ident, -ident, D, -D]))
    assert fill.has_sorted_indices and flat.has_sorted_indices


def _chains(C, k, data):
    ids = st.integers(0, C.count(k) - 1)
    return SimplicialCurrent(C, k, data.draw(st.dictionaries(ids, st.integers(-2, 2), max_size=4)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_LP_COMPLEXES)), st.data())
def test_lp_reports_equal_the_hstack_linprog_reference(name, data):
    """filling_volume and flat_distance return bitwise the value and
    certificate of scipy's `linprog` on the hstack-built split model."""
    C = _LP_COMPLEXES[name]
    k = C.top_dim
    weights = [C.masses(k - 1), C.masses(k)]
    S, T = _chains(C, k - 1, data), _chains(C, k - 1, data)
    rep = flat_distance(S, T, C)
    rhs = _chain_vector(S) - _chain_vector(T)
    blocks = [eye(C.count(k - 1), format="coo"), coo_boundary_matrix(C, k)]
    value, parts = hstack_weighted_l1(blocks, rhs, weights)
    assert rep.value == value
    assert rep.certificate == {n: _certificate_from_vector(x)[1] for n, x in zip("UV", parts)}
    B = boundary(_chains(C, k, data))
    if B.is_zero():
        return
    rep = filling_volume(B, C)
    value, (x,) = hstack_weighted_l1([coo_boundary_matrix(C, k)], _chain_vector(B), weights[1:])
    assert rep.value == value
    assert rep.certificate == {"S": _certificate_from_vector(x)[1]}
