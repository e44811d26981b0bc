import math

import numpy as np
import pytest

from currentlab.complexes import (
    EuclideanMetric,
    GeometricComplex,
    MatrixMetric,
    PLFunction,
    coordinate_function,
    distance_function,
)
from currentlab.currents import SimplicialCurrent, boundary, mass, push_forward
from currentlab.meshes import (
    disk_mesh,
    euclidean_box_mesh,
    grid_mesh,
    interval_chain,
    nearest_vertex,
    sphere_mesh,
    square_complex,
    torus_patch_mesh,
)
from currentlab.metricspace import ArgumentError
from currentlab.slicing import (
    annulus_mass,
    ball,
    coarea_profile,
    iterated_slice,
    slice_current,
    snap_level,
    sphere,
    subdivide_at_level,
    support_closure,
    _sublevel_indicator,
)

from oracles import subdivide_oracle


def random_mesh_chain(rng):
    nx, ny = rng.integers(1, 4), rng.integers(1, 4)
    C, T = grid_mesh(int(nx), int(ny))
    coeffs = {i: int(rng.integers(-2, 3)) for i in T.coeffs if rng.random() < 0.8}
    return SimplicialCurrent(C, 2, coeffs)


def random_vertex_function(rng, C):
    return PLFunction(C, rng.normal(size=C.n_vertices))


from hypothesis import given, settings, strategies as st


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
)
def test_slice_anticommutation_property(seed, frac):
    rng = np.random.default_rng(seed)
    T = random_mesh_chain(rng)
    f = random_vertex_function(rng, T.complex)
    lo, hi = f.values.min(), f.values.max()
    s = lo + frac * (hi - lo)
    left = boundary(slice_current(T, f, s).current)
    right = slice_current(-boundary(T), f, s).current
    assert left.signature() == right.signature()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
)
def test_sublevel_restriction_never_gains_mass_property(seed, frac):
    from currentlab.slicing import restrict_sublevel

    rng = np.random.default_rng(seed)
    T = random_mesh_chain(rng)
    f = random_vertex_function(rng, T.complex)
    lo, hi = f.values.min(), f.values.max()
    s = lo + frac * (hi - lo)
    below = restrict_sublevel(T, f, s, side="below")
    above = restrict_sublevel(T, f, s, side="above")
    assert mass(below) <= mass(T) + 1e-9
    assert mass(below) + mass(above) == pytest.approx(mass(T), abs=1e-9)


class TestSnap:
    def test_no_collision_keeps_level(self):
        level, snapped, _ = snap_level([0.0, 1.0], 0.4)
        assert level == 0.4 and not snapped

    def test_min_value_snaps_inward(self):
        level, snapped, warning = snap_level([0.0, 1.0], 0.0)
        assert snapped and 0.0 < level < 1e-6
        assert "snapped" in warning

    def test_max_value_snaps_inward(self):
        level, snapped, _ = snap_level([0.0, 1.0], 1.0)
        assert snapped and 1.0 - 1e-6 < level < 1.0

    def test_cluster_handled(self):
        vals = [0.0, 0.5 - 1e-16, 0.5, 0.5 + 1e-16, 1.0]
        level, snapped, _ = snap_level(vals, 0.5)
        assert snapped and abs(level - 0.5) < 1e-6 and level != 0.5


class TestSubdivide:
    def test_no_crossing_unchanged(self):
        C, T = square_complex()
        f = coordinate_function(C, 0)
        ref = subdivide_at_level(C, f.values, 2.0)
        assert ref.complex.count(2) == C.count(2)
        assert not ref.cut_edges

    def test_edge_split_lengths(self):
        C, T = interval_chain(1)
        f = coordinate_function(C, 0)
        ref = subdivide_at_level(C, f.values, 0.25)
        lengths = sorted(ref.complex.masses(1))
        assert lengths == pytest.approx([0.25, 0.75])

    def test_right_triangle_area_split(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        C = GeometricComplex.from_top_simplices(EuclideanMetric(pts), [(0, 1, 2)])
        T = SimplicialCurrent.from_simplices(C, 2, [((0, 1, 2), 1)])
        f = coordinate_function(C, 0)
        ref = subdivide_at_level(C, f.values, 0.5)
        T2 = ref.transfer_current(T)
        f2 = ref.transfer_function(f, own_level=True)
        keep = _sublevel_indicator(ref.complex, 2, f2.values, ref.level)
        low = SimplicialCurrent(ref.complex, 2, {i: c for i, c in T2.coeffs.items() if keep[i]})
        high = T2 - low
        # direct area computation: {x <= 1/2} of the unit right triangle
        assert mass(low) == pytest.approx(0.375, abs=1e-9)
        assert mass(high) == pytest.approx(0.125, abs=1e-9)
        assert mass(low) + mass(high) == pytest.approx(0.5, abs=1e-12)

    def test_volume_preserved_per_parent(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            T = random_mesh_chain(rng)
            C = T.complex
            f = random_vertex_function(rng, C)
            s = float(rng.uniform(f.values.min(), f.values.max()))
            ref = subdivide_at_level(C, f.values, s)
            for k in C.dims:
                masses = ref.complex.masses(k)
                for idx, entries in ref.children[k].items():
                    total = sum(masses[j] for j, _ in entries)
                    parent = C.masses(k)[idx]
                    assert total == pytest.approx(parent, rel=1e-9, abs=1e-12)

    def test_transfer_is_chain_map(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            T = random_mesh_chain(rng)
            f = random_vertex_function(rng, T.complex)
            s = float(rng.uniform(f.values.min(), f.values.max()))
            ref = subdivide_at_level(T.complex, f.values, s)
            lhs = boundary(ref.transfer_current(T))
            rhs = ref.transfer_current(boundary(T))
            assert (lhs - rhs).is_zero()

    def test_unsupported_dimension(self):
        # 4-simplices are out of slicing scope
        pts = np.eye(5)
        C = GeometricComplex.from_top_simplices(EuclideanMetric(pts), [tuple(range(5))])
        with pytest.raises(ArgumentError, match="dimension"):
            subdivide_at_level(C, pts[:, 0], 0.5)


def _metric_state(metric):
    return getattr(metric, "coords", getattr(metric, "points", getattr(metric, "mat", None)))


def _subdivide_cases():
    """(complex, vertex values) over every metric backend and dimension."""
    disk, disk_T = disk_mesh(h=0.25)
    sph, _ = sphere_mesh(8, 16)
    tor, _ = torus_patch_mesh(0.4, 0.3, 4)
    grid, _ = grid_mesh(3, 3)
    pts = grid.coords()
    mat = GeometricComplex(
        MatrixMetric(np.linalg.norm(pts[:, None] - pts[None], axis=-1)), grid.simplices
    )
    ball_T = ball(disk_T, nearest_vertex(disk, (0.2, 0.1)), 0.55)
    closure = support_closure(ball_T).complex
    cases = [
        ("disk", disk, distance_function(disk, nearest_vertex(disk, (0.3, -0.2))).values),
        ("sphere", sph, distance_function(sph, 37).values),
        ("torus", tor, distance_function(tor, nearest_vertex(tor, (0.05, 0.1, 0.0))).values),
        ("matrix", mat, distance_function(mat, 7).values),
        ("ball_closure", closure, np.random.default_rng(5).normal(size=closure.n_vertices)),
    ]
    return [pytest.param(C, values, id=name) for name, C, values in cases]


@pytest.mark.parametrize("C, values", _subdivide_cases())
def test_subdivide_matches_oracle(C, values):
    """Crossing-only batched subdivision reproduces the one-simplex-at-a-time
    reference bit for bit, the snapped level included."""
    C.validate()
    rng = np.random.default_rng([11, len(values)])
    used = values[np.unique(C.simplex_array(C.top_dim))]
    # seeded levels, then a vertex value, which must be snapped off
    levels = list(rng.uniform(used.min(), used.max(), size=4)) + [float(np.sort(used)[len(used) // 2])]
    for level in levels:
        ref = subdivide_at_level(C, values, level)
        want = subdivide_oracle(C, values, level)
        assert ref.level == want.level and ref.snapped == want.snapped
        assert ref.n_old_vertices == want.n_old_vertices
        assert ref.cut_edges == want.cut_edges
        assert ref.children == want.children
        assert ref.dropped == want.dropped
        assert ref.warnings == want.warnings
        assert ref.complex.simplices == want.complex.simplices
        assert np.array_equal(_metric_state(ref.complex.metric), _metric_state(want.complex.metric))
        for k in want.complex.dims:
            assert np.array_equal(ref.complex.masses(k), want.complex.masses(k))
    assert any(subdivide_at_level(C, values, lv).snapped for lv in levels)


class TestSlice:
    def test_unit_edge_midpoint(self):
        C, T = interval_chain(1)
        f = coordinate_function(C, 0)
        res = slice_current(T, f, 0.5)
        pts = {res.complex.simplices[0][i]: c for i, c in res.current.coeffs.items()}
        assert len(pts) == 1
        ((v,), c) = next(iter(pts.items()))
        assert c == 1
        assert res.complex.coords()[v][0] == pytest.approx(0.5)

    def test_square_vertical_cut(self):
        C, T = square_complex()
        f = coordinate_function(C, 0)
        res = slice_current(T, f, 0.5)
        assert res.current.dim == 1
        assert mass(res.current) == pytest.approx(1.0, abs=1e-9)

    def test_slice_supported_on_level_set(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            T = random_mesh_chain(rng)
            f = random_vertex_function(rng, T.complex)
            s = float(rng.uniform(f.values.min(), f.values.max()))
            res = slice_current(T, f, s)
            f2 = res.functions[0]
            for v in res.current.support_vertices():
                assert f2.values[v] == res.levels[0]

    def test_matrix_backed_complex_slices_like_euclidean(self):
        from currentlab.complexes import MatrixMetric

        C, T = square_complex()
        n = C.n_vertices
        dist = np.zeros((n, n))
        for i in range(n):
            dist[i] = C.metric.row(i)
        Cm = GeometricComplex(MatrixMetric(dist), {k: list(v) for k, v in C.simplices.items()})
        Tm = SimplicialCurrent(Cm, 2, dict(T.coeffs))
        f = coordinate_function(C, 0)
        fm = PLFunction(Cm, f.values.copy())
        for s in (0.3, 0.62):
            a = slice_current(T, f, s).current
            b = slice_current(Tm, fm, s).current
            assert mass(a) == pytest.approx(mass(b), rel=1e-9)

    def test_graph_geodesic_ball(self):
        # a bent path: graph distances follow the edges
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        C = GeometricComplex.from_top_simplices(
            EuclideanMetric(pts), [(0, 1), (1, 2), (2, 3)]
        )
        T = SimplicialCurrent.from_simplices(C, 1, [((0, 1), 1), ((1, 2), 1), ((2, 3), 1)])
        B = ball(T, 0, 2.5, mode="graph")
        assert mass(B) == pytest.approx(2.5, abs=1e-9)

    def test_level_below_range_is_zero(self):
        C, T = square_complex()
        f = coordinate_function(C, 0)
        assert slice_current(T, f, -5.0).current.is_zero()
        assert slice_current(T, f, 7.0).current.is_zero()

    def test_anticommutation_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            T = random_mesh_chain(rng)
            f = random_vertex_function(rng, T.complex)
            s = float(rng.uniform(f.values.min(), f.values.max()))
            left = boundary(slice_current(T, f, s).current)
            right = slice_current(-boundary(T), f, s).current
            assert left.signature() == right.signature()

    def test_additivity_exact(self):
        # the two summand slices are built on separate (but content-equal)
        # refinements, so the comparison merges content signatures
        def signature_sum(a, b):
            acc = {}
            for sig in (a, b):
                for simplex, c in sig:
                    acc[simplex] = acc.get(simplex, 0) + c
            return tuple(sorted((s, c) for s, c in acc.items() if c))

        rng = np.random.default_rng(13)
        for _ in range(100):
            T1 = random_mesh_chain(rng)
            T2 = SimplicialCurrent(
                T1.complex, 2, {i: int(rng.integers(-2, 3)) for i in range(T1.complex.count(2))}
            )
            f = random_vertex_function(rng, T1.complex)
            s = float(rng.uniform(f.values.min(), f.values.max()))
            lhs = slice_current(T1 + T2, f, s).current
            rhs = signature_sum(
                slice_current(T1, f, s).current.signature(),
                slice_current(T2, f, s).current.signature(),
            )
            assert lhs.signature() == rhs

    def test_restriction_compatibility(self):
        # slicing commutes with restriction to sublevel sets aligned with the
        # refinement: <T restr A, f, s> = <T, f, s> restr A
        rng = np.random.default_rng(41)
        for _ in range(100):
            T = random_mesh_chain(rng)
            C = T.complex
            f = random_vertex_function(rng, C)
            g = random_vertex_function(rng, C)
            s = float(rng.uniform(f.values.min(), f.values.max()))
            u = float(rng.uniform(g.values.min(), g.values.max()))
            # refine along g first so A = {g <= u} is a subcomplex
            refg = subdivide_at_level(C, g.values, u)
            Tg = refg.transfer_current(T)
            fg = refg.transfer_function(f)
            gg = refg.transfer_function(g, own_level=True)
            keep = _sublevel_indicator(refg.complex, 2, gg.values, refg.level)
            TA = SimplicialCurrent(refg.complex, 2, {i: c for i, c in Tg.coeffs.items() if keep[i]})
            lhs = slice_current(TA, fg, s)
            # right side: slice first, then restrict on the slice's complex
            res = slice_current(Tg, fg, s)
            gslice = res.refinement.transfer_function(gg)
            keep1 = _sublevel_indicator(res.complex, 1, gslice.values, refg.level)
            rhs = SimplicialCurrent(
                res.complex, 1, {i: c for i, c in res.current.coeffs.items() if keep1[i]}
            )
            assert lhs.current.signature() == rhs.signature()

    def test_pushforward_naturality(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            T = random_mesh_chain(rng)
            C = T.complex
            n = C.n_vertices
            perm = list(rng.permutation(n))
            inv = np.argsort(perm)
            C2 = GeometricComplex.from_top_simplices(
                EuclideanMetric(C.coords()[inv]),
                [tuple(sorted(perm[v] for v in s)) for s in C.simplices[2]],
            )
            T2 = push_forward(T, perm, C2)
            f2 = PLFunction(C2, rng.normal(size=n))
            f1 = PLFunction(C, f2.values[perm])
            s = float(rng.uniform(f2.values.min(), f2.values.max()))
            lhs = slice_current(T2, f2, s).current
            rhs = slice_current(T, f1, s).current
            # compare by mapped signatures: relabel rhs's support through perm
            def mapped_signature(cur, vmap):
                out = []
                for i, c in cur.coeffs.items():
                    simplex = cur.simplex(i)
                    image = tuple(sorted(vmap.get(v, v) for v in simplex))
                    out.append((image, c))
                return sorted(out)

            vmap = {v: perm[v] for v in range(n)}
            # cut vertices: match by coordinates
            lhs_pts = {tuple(np.round(lhs.complex.coords()[v], 9)) for i in lhs.coeffs for v in lhs.simplex(i)}
            rhs_pts = {
                tuple(np.round(rhs.complex.coords()[v], 9)) for i in rhs.coeffs for v in rhs.simplex(i)
            }
            assert abs(mass(lhs) - mass(rhs)) < 1e-9
            assert lhs_pts == rhs_pts


class TestIteratedSlice:
    def test_zero_functions_identity(self):
        C, T = square_complex()
        res = iterated_slice(T, [], [])
        assert res.current == T

    def test_square_double_slice_point(self):
        C, T = square_complex()
        res = iterated_slice(
            T, [coordinate_function(C, 0), coordinate_function(C, 1)], [0.5, 0.5]
        )
        assert res.current.dim == 0
        pts = list(res.current.coeffs.items())
        assert len(pts) == 1
        idx, c = pts[0]
        assert abs(c) == 1
        (v,) = res.complex.simplices[0][idx]
        assert res.complex.coords()[v] == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_iterated_boundary_parity(self):
        # boundary of a double slice of a 3-current equals (+1) times the
        # double slice of its boundary ((-1)^2 = +1)
        C, T = euclidean_box_mesh(0.5, 3)
        coords = C.coords()
        f = PLFunction(C, coords[:, 0])
        g = PLFunction(C, coords[:, 1] + 0.37 * coords[:, 2])
        for s, u in [(0.11, 0.07), (-0.2, 0.25)]:
            res = iterated_slice(T, [f, g], [s, u])
            lhs = boundary(res.current)
            resb = iterated_slice(boundary(T), [f, g], [s, u])
            assert lhs.signature() == resb.current.signature()
            assert not lhs.is_zero()

    def test_signed_weights_cancel_on_cycle_slice(self):
        # first slice of a closed surface is a cycle; the second slice's
        # signed weights therefore sum to zero
        from currentlab.meshes import equator_vertex

        C, T = sphere_mesh(10, 20)
        z = PLFunction(C, C.coords()[:, 2], source=None)
        first = slice_current(T, z, 0.21)
        assert boundary(first.current).is_zero()
        rho = distance_function(first.complex, equator_vertex(C, 10, 20))
        second = slice_current(first.current, rho, 1.1)
        total = sum(second.current.coeffs.values())
        assert total == 0
        assert not second.current.is_zero()


class TestCoarea:
    def test_constant_function(self):
        C, T = square_complex()
        f = PLFunction(C, np.full(C.n_vertices, 3.0))
        integral, bound = coarea_profile(T, f, 8)
        assert integral == 0.0

    def test_unit_square_exact(self):
        C, T = square_complex()
        f = coordinate_function(C, 0)
        integral, bound = coarea_profile(T, f, 33)
        assert integral == pytest.approx(1.0, abs=1e-6)
        assert bound == pytest.approx(1.0, rel=1e-9)
        assert integral <= bound + 1e-6

    def test_disk_against_analytic_coarea(self):
        C, T = disk_mesh(h=0.05)
        f = coordinate_function(C, 0)
        integral, bound = coarea_profile(T, f, 40)
        assert integral == pytest.approx(math.pi, rel=0.03)
        assert integral <= bound + 1e-6

    def test_bound_on_random_pairs(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            T = random_mesh_chain(rng)
            f = random_vertex_function(rng, T.complex)
            samples = 12
            integral, bound = coarea_profile(T, f, samples)
            lo, hi = f.range()
            step = (hi - lo) / (samples - 1) if hi > lo else 0.0
            max_mass = mass(T) / max(step, 1e-12) if step else 0.0
            assert integral <= bound + 2 * step * max(max_mass, 1.0) + 1e-9


class TestBallSphere:
    def test_radius_beyond_diameter(self):
        C, T = square_complex()
        B = ball(T, 0, 10.0)
        assert mass(B) == pytest.approx(mass(T))

    def test_tiny_radius_empty(self):
        C, T = grid_mesh(4, 4)
        B = ball(T, 0, 1e-6)
        assert mass(B) == pytest.approx(0.0, abs=1e-9)

    def test_quarter_disk_mass(self):
        C, T = grid_mesh(50, 50)
        B = ball(T, 0, 0.5)
        assert mass(B) == pytest.approx(math.pi / 16, rel=0.03)

    def test_circle_slice_mass(self):
        C, T = disk_mesh(h=0.05)
        res = sphere(T, 0, 0.5)
        assert mass(res.current) == pytest.approx(math.pi, rel=0.03)

    def test_sphere_equals_ball_boundary_away_from_boundary(self):
        C, T = disk_mesh(h=0.1)
        r = 0.43
        res = sphere(T, 0, r)
        B = ball(T, 0, r)
        assert mass(boundary(B)) == pytest.approx(mass(res.current), rel=1e-9)
        assert boundary(B).signature() == res.current.signature()

    def test_sphere_differs_when_hitting_boundary(self):
        C, T = square_complex()
        center = 0
        r = 0.7  # reaches past the square's edges
        res = sphere(T, center, r)
        B = ball(T, center, r)
        diff_mass = abs(mass(boundary(B)) - mass(res.current))
        assert diff_mass > 0.1

    def test_support_closure_preserves_current(self):
        C, T = grid_mesh(3, 3)
        sub = support_closure(SimplicialCurrent(C, 2, {0: 2, 5: -1}))
        assert mass(sub) == pytest.approx(
            2 * C.masses(2)[0] + C.masses(2)[5], rel=1e-12
        )
        assert boundary(boundary(sub)).is_zero()


class TestAnnulus:
    def test_annulus_mass_value(self):
        C, T = disk_mesh(h=0.05)
        rho = distance_function(C, 0)
        val = annulus_mass(T, rho, 0.45, 0.55)
        assert val == pytest.approx(2 * math.pi * 0.5 * 0.1, rel=0.05)

    def test_halving_decay(self):
        C, T = disk_mesh(h=0.05)
        rho = distance_function(C, 0)
        deltas = [0.2, 0.1, 0.05, 0.025]
        masses = [annulus_mass(T, rho, 0.6 - d, 0.6 + d) for d in deltas]
        for a, b in zip(masses, masses[1:]):
            assert b <= 0.65 * a + 1e-9
        assert masses[-1] < 0.2 * masses[0]
