"""The planar winding-number integral behind `filling_volume` of 1-cycles
and `flat_distance` of 2-currents on complexes in R^2."""
import json
import math
import warnings

import numpy as np
import pytest

from currentlab import fillvol
from currentlab.complexes import EuclideanMetric, GeometricComplex
from currentlab.convergence import joined_complex, matched_balls
from currentlab.currents import SimplicialCurrent, boundary, mass
from currentlab.fillvol import filling_volume, flat_distance
from currentlab.meshes import disk_mesh, grid_mesh, interval_chain, nearest_vertex, sphere_mesh
from currentlab.product import product_current
from currentlab.slicedfill import ball_context

from oracles import lp_filling_volume, lp_flat_distance, raster_winding_integral


def _complex(pts, tops):
    return GeometricComplex.from_top_simplices(EuclideanMetric(np.asarray(pts, dtype=float)), tops)


def _chain(C, k, pairs):
    return SimplicialCurrent.from_simplices(C, k, [(tuple(sorted(s)), c) for s, c in pairs])


def _polygon_cycle(pts):
    """The closed polygon through pts in order, as a 1-cycle on a complex
    that also holds one triangle (so it has 2-simplices)."""
    n = len(pts)
    edges = [(i, (i + 1) % n) for i in range(n)]
    C = _complex(pts, [tuple(sorted(e)) for e in edges] + [(0, 1, 2)])
    return C, _chain(C, 1, [(e, 1 if e[0] < e[1] else -1) for e in edges])


def _planar_cases():
    """(name, 2-current) on planar complexes, each simplex coefficient x
    orientation of one sign and the simplices pairwise disjoint."""
    cases = []
    _, T = disk_mesh(h=0.1)
    cases.append(("disk", T))
    cases.append(("disk_ball", ball_context(T, 0, 0.55).current))
    _, G = grid_mesh(4, 3, 1.3, 0.7)
    cases.append(("grid", G))
    cases.append(("grid_ball", ball_context(G, 7, 0.5).current))
    cases.append(("negated_grid_ball", -ball_context(G, 7, 0.5).current))
    return cases


def _prisms():
    """Interval prisms T x I over 1-chains on a line: planar, coefficients
    of both signs on disjoint rectangles."""
    rng = np.random.default_rng(61)
    out = []
    for n in (1, 3, 6):
        C, _ = interval_chain(n, length=1.7)
        T = SimplicialCurrent(C, 1, {i: int(rng.integers(1, 3)) * int(rng.choice([-1, 1])) for i in range(n)})
        for layers in (1, 2):
            out.append(product_current(T, 0.3, layers))
    return out


class TestFills:
    @pytest.mark.parametrize("T", [pytest.param(T, id=name) for name, T in _planar_cases()])
    def test_fill_equals_mass(self, T):
        rep = filling_volume(boundary(T), T.complex)
        assert rep.method == "winding"
        assert rep.value == pytest.approx(mass(T), rel=1e-12)
        assert rep.lower_bound == rep.value == rep.upper_bound
        assert rep.integral and rep.residual == 0.0 and rep.certificate == {}

    def test_interval_prisms_fill_to_their_mass(self):
        for prod in _prisms():
            rep = filling_volume(boundary(prod), prod.complex)
            assert rep.method == "winding"
            assert rep.value == pytest.approx(mass(prod), rel=1e-12)

    def test_fill_agrees_with_the_lp_where_the_complex_holds_the_filling(self):
        cases = [T for _, T in _planar_cases()] + _prisms()[:3]
        for T in cases:
            B = boundary(T)
            rep = filling_volume(B, T.complex)
            lp = lp_filling_volume(B, T.complex)
            assert lp.method == "lp"
            assert rep.value <= lp.value + 1e-9
            assert rep.value == pytest.approx(lp.value, rel=1e-6)

    def test_continuity_pair_needs_no_lp(self, monkeypatch):
        CA, TA = disk_mesh(h=0.3, radius=0.8)
        CB, TB = disk_mesh(h=0.2, radius=0.8)
        K, TA_K, TB_K, _, _ = joined_complex(CA, TA, CB, TB)
        pa = nearest_vertex(CA, (0.05, 0.0))
        pb = nearest_vertex(CB, (0.05, 0.0)) + CA.n_vertices
        ball_a, ball_b = matched_balls(K, TA_K, TB_K, pa, pb, 0.45)
        K2 = ball_a.complex
        lp_a = lp_filling_volume(boundary(ball_a), K2)

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(fillvol, "linprog", no_lp)
        fa = filling_volume(boundary(ball_a), K2)
        fb = filling_volume(boundary(ball_b), K2)
        flat = flat_distance(ball_a, ball_b, K2)
        assert fa.value == pytest.approx(mass(ball_a), rel=1e-12)
        assert fb.value == pytest.approx(mass(ball_b), rel=1e-12)
        assert fa.value <= lp_a.value + 1e-9
        assert fa.value == pytest.approx(lp_a.value, rel=1e-6)
        assert abs(fa.value - fb.value) <= flat.value + 1e-12
        assert flat.value < 0.05 * (mass(ball_a) + mass(ball_b))


class TestFlat:
    def test_flat_equals_density_difference_on_a_common_refinement(self):
        # grid_mesh(4, 4) cuts every cell of grid_mesh(2, 2) along the same
        # diagonal, so each fine triangle lies in one coarse triangle
        CA, _ = grid_mesh(2, 2)
        CB, _ = grid_mesh(4, 4)
        rng = np.random.default_rng(62)
        for _ in range(4):
            A = SimplicialCurrent(CA, 2, {i: int(rng.integers(-2, 3)) for i in range(CA.count(2))})
            B = SimplicialCurrent(CB, 2, {i: int(rng.integers(-2, 3)) for i in range(CB.count(2))})
            K, A_K, B_K, _, _ = joined_complex(CA, A, CB, B)
            rep = flat_distance(A_K, B_K, K)
            dA, pA = _density(A)
            dB, pB = _density(B)
            holder = [int(np.flatnonzero([_contains(tri, c) for tri in pA])[0]) for c in pB.mean(axis=1)]
            expected = float(np.sum(np.abs(dA[holder] - dB) * CB.masses(2)))
            assert rep.method == "winding"
            assert rep.value == pytest.approx(expected, rel=1e-12, abs=1e-14)
            assert rep.lower_bound == rep.value == rep.upper_bound
            diff = A_K - B_K
            assert rep.certificate == {"U": dict(zip(diff.idx.tolist(), diff.coeff.astype(float).tolist())), "V": {}}
            assert rep.value <= lp_flat_distance(A_K, B_K, K).value + 1e-9

    def test_overlapping_triangles_against_the_raster(self):
        rng = np.random.default_rng(63)
        for _ in range(3):
            n_tri = 5
            pts = rng.uniform(-1, 1, size=(3 * n_tri, 2))
            tris = [tuple(range(3 * i, 3 * i + 3)) for i in range(n_tri)]
            weights = [int(c) for c in rng.choice([-3, -2, -1, 1, 2, 3], n_tri)]
            C = _complex(pts, tris)
            T = _chain(C, 2, list(zip(tris, weights)))
            rep = filling_volume(boundary(T), C)
            value, bound = raster_winding_integral(pts, tris, weights, 1000)
            assert bound < 0.1 * value
            assert abs(rep.value - value) <= bound
            assert rep.value <= mass(T) + 1e-12

    def test_flat_of_overlapping_currents_against_the_raster(self):
        pts = [[0, 0], [2, 0], [0, 2], [1, -0.5], [1.5, 1.5], [-0.5, 1]]
        C = _complex(pts, [(0, 1, 2), (3, 4, 5), (0, 1, 3, 4)])
        S = _chain(C, 2, [((0, 1, 2), 2)])
        T = _chain(C, 2, [((3, 4, 5), 1)])
        rep = flat_distance(S, T, C)
        value, bound = raster_winding_integral(pts, [(0, 1, 2), (3, 4, 5)], [2, -1], 1000)
        assert abs(rep.value - value) <= bound
        assert rep.value < mass(S) + mass(T)


def _density(T):
    """Per top simplex of T's complex: T's density in the plane (coefficient
    times orientation sign), and the simplex's corner points."""
    p = T.complex.coords()[T.complex.simplex_array(2)]
    dens = np.zeros(T.complex.count(2))
    dens[T.idx] = T.coeff
    return dens * np.sign(np.linalg.det(p[:, 1:] - p[:, :1])), p


def _contains(tri, p, tol=1e-12):
    a, b, c = tri
    d = [(q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0]) for o, q in ((a, b), (b, c), (c, a))]
    return all(x >= -tol for x in d) or all(x <= tol for x in d)


class TestDegenerate:
    def test_axis_aligned_square_has_vertical_edges(self):
        C, T = _square_complex_with_tetra()
        assert filling_volume(boundary(T), C).value == pytest.approx(1.0, rel=1e-15)

    def test_zero_length_edge(self):
        # vertices 2 and 3 coincide, so edge (2, 3) and triangle (0, 2, 3) vanish
        C = _complex([[0, 0], [1, 0], [0, 1], [0, 1]], [(0, 1, 2), (0, 2, 3)])
        T = _chain(C, 2, [((0, 1, 2), 1), ((0, 2, 3), 1)])
        assert filling_volume(boundary(T), C).value == pytest.approx(0.5, rel=1e-15)

    def test_collinear_overlapping_edges(self):
        # two unit squares overlapping in [0.5, 1] x [0, 1]: bottom and top
        # edges overlap along the same lines
        pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]]
        tris = [(0, 1, 2), (0, 2, 3), (4, 5, 6), (4, 6, 7)]
        C = _complex(pts, tris)
        same = _chain(C, 2, list(zip(tris, [1, 1, 1, 1])))
        opposite = _chain(C, 2, list(zip(tris, [1, 1, -1, -1])))
        assert filling_volume(boundary(same), C).value == pytest.approx(2.0, rel=1e-15)
        assert filling_volume(boundary(opposite), C).value == pytest.approx(1.0, rel=1e-15)

    def test_winding_number_two(self):
        C = _complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
        for c in (2, -2):
            T = _chain(C, 2, [((0, 1, 2), c)])
            assert filling_volume(boundary(T), C).value == pytest.approx(1.0, rel=1e-15)
        # two nested triangles traversed the same way: winding 2 inside both
        C = _complex([[0, 0], [4, 0], [0, 4], [1, 1], [2, 1], [1, 2]], [(0, 1, 2), (3, 4, 5)])
        T = _chain(C, 2, [((0, 1, 2), 1), ((3, 4, 5), 1)])
        assert filling_volume(boundary(T), C).value == pytest.approx(8.5, rel=1e-15)

    def test_crossing_cycle(self):
        # a figure eight: winding +1 and -1 on two triangles of area 1/4
        C, B = _polygon_cycle([[0, 0], [1, 1], [1, 0], [0, 1]])
        rep = filling_volume(B, C)
        assert rep.method == "winding"
        assert rep.value == pytest.approx(0.5, rel=1e-15)
        # the same lobes by hand, away from the axes
        C, B = _polygon_cycle([[0, 0], [3, 2], [3, 0], [0, 2]])
        assert filling_volume(B, C).value == pytest.approx(3.0, rel=1e-15)

    def test_many_blocks_give_the_value_of_one(self, monkeypatch):
        rng = np.random.default_rng(64)
        angles = rng.uniform(0, 2 * math.pi, 100)
        radii = rng.uniform(0.2, 1.0, 100)
        star = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        C, B = _polygon_cycle(star)
        _, D = disk_mesh(h=0.05)
        DB = boundary(D)
        monkeypatch.setattr(fillvol, "SWEEP_BLOCK", 10**9)
        one = [fillvol._winding_integral(B), fillvol._winding_integral(DB)]
        monkeypatch.setattr(fillvol, "SWEEP_BLOCK", 256)
        many = [fillvol._winding_integral(B), fillvol._winding_integral(DB)]
        assert many == pytest.approx(one, rel=1e-12)
        assert one[1] == pytest.approx(mass(D), rel=1e-12)

    def test_runs_clean_under_errstate_raise(self):
        inputs = [boundary(T) for _, T in _planar_cases()[:2]]
        inputs.append(_polygon_cycle([[0, 0], [1, 1], [1, 0], [0, 1]])[1])
        C = _complex([[0, 0], [1, 0], [0, 1], [0, 1]], [(0, 1, 2), (0, 2, 3)])
        inputs.append(boundary(_chain(C, 2, [((0, 1, 2), 1), ((0, 2, 3), 1)])))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for B in inputs:
                filling_volume(B, B.complex)
            C, T = _square_complex_with_tetra()
            flat_distance(T, -T, C)


def _square_complex_with_tetra():
    """The unit square as two triangles, plus a flat tetrahedron so that
    2-currents have a flat distance."""
    C = _complex([[0, 0], [1, 0], [1, 1], [0, 1]], [(0, 1, 2), (0, 2, 3), (0, 1, 2, 3)])
    return C, _chain(C, 2, [((0, 1, 2), 1), ((0, 2, 3), 1)])


class TestRouting:
    def test_flat_of_two_currents_in_the_plane(self):
        C, T = _square_complex_with_tetra()
        rep = flat_distance(T, -T, C)
        assert rep.method == "winding" and rep.value == pytest.approx(2.0, rel=1e-15)
        json.dumps(rep.to_json())

    def test_fill_report_is_json_safe(self):
        C, T = _square_complex_with_tetra()
        out = filling_volume(boundary(T), C).to_json()
        assert json.loads(json.dumps(out))["method"] == "winding"

    def test_zero_cycle_runs_no_lp(self):
        C, _ = _square_complex_with_tetra()
        rep = filling_volume(SimplicialCurrent.zero(C, 1), C)
        assert rep.method == "zero" and rep.value == 0.0

    def test_one_currents_in_the_plane_keep_the_lp(self):
        C, T = grid_mesh(2, 2)
        B = boundary(T)
        rep = flat_distance(B, SimplicialCurrent.zero(C, 1), C)
        assert rep.method == "lp"

    def test_callable_metric_keeps_the_lp(self):
        C, T = sphere_mesh(6, 12)
        ctx = ball_context(T, 0, 1.0)
        assert filling_volume(boundary(ctx.current), ctx.complex).method == "lp"

    def test_three_space_keeps_the_lp(self):
        C, T = sphere_mesh(6, 12, metric="euclidean")
        ctx = ball_context(T, 0, 1.0)
        assert filling_volume(boundary(ctx.current), ctx.complex).method == "lp"
        C3 = _complex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [(0, 1, 2, 3)])
        S = _chain(C3, 2, [((0, 1, 2), 1)])
        assert flat_distance(S, SimplicialCurrent.zero(C3, 2), C3).method == "lp"
