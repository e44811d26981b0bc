import math

import numpy as np
import pytest

from currentlab.convergence import (
    SequenceFamily,
    build_family,
    common_embed,
    continuity_sweep,
    diameter_of,
    joined_complex,
    matched_balls,
    nearest_vertex_correspondence,
    semicontinuity_report,
)
from currentlab.currents import boundary, mass, push_forward
from currentlab.fillvol import filling_volume, flat_distance
from currentlab.meshes import disk_mesh, grid_mesh, nearest_vertex
from currentlab.metricspace import ArgumentError
from currentlab.slicing import annulus_mass, ball, slice_current
from currentlab.complexes import PLFunction, distance_function

from oracles import correspondence_oracle


class TestCommonEmbedding:
    def test_identity_gluing(self):
        C, T = grid_mesh(2, 2)
        pairs = [(v, v) for v in range(C.n_vertices)]
        emb = common_embed(C, C, pairs)
        assert emb.distortion == 0.0
        n = C.n_vertices
        # cross distance of matched points is just delta
        assert emb.ambient.dist[0, n] == pytest.approx(emb.delta, abs=1e-12)

    def test_parallel_segments(self):
        from currentlab.complexes import EuclideanMetric, GeometricComplex

        a = GeometricComplex.from_top_simplices(EuclideanMetric(np.array([[0.0], [1.0]])), [(0, 1)])
        b = GeometricComplex.from_top_simplices(EuclideanMetric(np.array([[0.05], [1.05]])), [(0, 1)])
        emb = common_embed(a, b, [(0, 0), (1, 1)])
        assert emb.distortion == pytest.approx(0.0, abs=1e-12)
        assert emb.ambient.dist[0, 2] >= emb.delta - 1e-12

    def test_small_delta_rejected(self):
        from currentlab.complexes import EuclideanMetric, GeometricComplex

        a = GeometricComplex.from_top_simplices(EuclideanMetric(np.array([[0.0], [1.0]])), [(0, 1)])
        b = GeometricComplex.from_top_simplices(EuclideanMetric(np.array([[0.0], [2.0]])), [(0, 1)])
        with pytest.raises(ArgumentError, match="distortion"):
            common_embed(a, b, [(0, 0), (1, 1)], delta=0.01)

    def test_disk_pair_distortion(self):
        # nearest-vertex matching moves each point at most one cell radius
        # in each mesh, so the distortion is below the sum of mesh sizes
        CA, TA = disk_mesh(h=0.1)
        CB, TB = disk_mesh(h=0.05)
        pairs = nearest_vertex_correspondence(CA, CB)
        emb = common_embed(CA, CB, pairs)
        assert emb.distortion <= 0.1 + 0.05 + 1e-9

    def test_correspondence_matches_oracle(self):
        """Broadcast matching gives the per-vertex loop's pair list exactly,
        in the same order, ties included (points on a small integer grid)."""
        from currentlab.complexes import EuclideanMetric, GeometricComplex

        rng = np.random.default_rng(17)
        cases = [(disk_mesh(h=0.25)[0], disk_mesh(h=0.2)[0])]
        for _ in range(30):
            d = int(rng.integers(1, 4))
            pts = [rng.integers(0, 4, size=(int(rng.integers(1, 25)), d)).astype(float) for _ in range(2)]
            if rng.integers(2):
                pts = [p + rng.normal(scale=0.3, size=p.shape) for p in pts]
            cases.append(tuple(
                GeometricComplex.from_top_simplices(EuclideanMetric(p), [(v,) for v in range(len(p))]) for p in pts
            ))
        for CA, CB in cases:
            assert nearest_vertex_correspondence(CA, CB) == correspondence_oracle(CA, CB)


class TestJoinedComplex:
    def test_currents_preserved(self):
        CA, TA = disk_mesh(h=0.25)
        CB, TB = disk_mesh(h=0.2)
        K, TA_K, TB_K, emb, dropped = joined_complex(CA, TA, CB, TB)
        assert emb.distortion == 0.0  # natural embedding
        assert mass(TA_K) == pytest.approx(mass(TA), rel=1e-12)
        assert mass(TB_K) == pytest.approx(mass(TB), rel=1e-12)
        # a planar join is the two meshes alone: its flat distance is a
        # winding integral over R^2 and needs no 3-simplices
        assert K.top_dim == 2 and dropped == 0
        rep = flat_distance(TA_K, TB_K, K)
        assert rep.method == "winding"
        # an upper bound for the intrinsic flat distance, strictly better
        # than the no-filling decomposition
        assert 0 < rep.value < mass(TA) + mass(TB) - 1e-6

    def test_non_planar_natural_join_keeps_fillers(self):
        """Disks lifted to z = 0 in R^3 are not top-dimensional there: the
        join keeps its cone and prism 3-simplices and the flat LP."""
        from currentlab.complexes import EuclideanMetric, GeometricComplex

        def lifted(h):
            C, T = disk_mesh(h=h)
            pts = np.hstack([C.coords(), np.zeros((C.n_vertices, 1))])
            C3 = GeometricComplex.from_top_simplices(EuclideanMetric(pts), C.simplices[2])
            return C3, push_forward(T, list(range(C.n_vertices)), C3)

        (CA, TA), (CB, TB) = lifted(0.5), lifted(0.4)
        K, TA_K, TB_K, emb, _ = joined_complex(CA, TA, CB, TB)
        assert emb.distortion == 0.0 and K.count(3) > 0
        assert mass(TA_K) == pytest.approx(mass(TA), rel=1e-12)
        rep = flat_distance(TA_K, TB_K, K)
        assert rep.method == "lp"
        assert 0 <= rep.value < mass(TA) + mass(TB) - 1e-6

    def test_matched_balls_share_complex(self):
        CA, TA = disk_mesh(h=0.25)
        CB, TB = disk_mesh(h=0.2)
        K, TA_K, TB_K, emb, _ = joined_complex(CA, TA, CB, TB)
        pa = nearest_vertex(CA, (0, 0))
        pb = nearest_vertex(CB, (0, 0)) + CA.n_vertices
        ball_a, ball_b = matched_balls(K, TA_K, TB_K, pa, pb, 0.5)
        assert ball_a.complex is ball_b.complex
        assert mass(ball_a) == pytest.approx(math.pi * 0.25, rel=0.1)
        assert mass(ball_b) == pytest.approx(math.pi * 0.25, rel=0.1)

    def test_matched_ball_a_is_the_ball_of_its_own_cut(self):
        """Ball A is the sublevel set of the cut at rho_a = r, not classified
        on ball B's later cut, where rho_a at the new cut points is a true
        distance rather than the PL value: on the continuity_lp anchor pair
        it has the mass and boundary mass of `ball` on the joined complex."""
        CA, TA = disk_mesh(h=0.2, radius=0.8)
        CB, TB = disk_mesh(h=0.125, radius=0.8)
        K, TA_K, TB_K, _, _ = joined_complex(CA, TA, CB, TB)
        pa = nearest_vertex(CA, (0, 0))
        pb = nearest_vertex(CB, (0, 0)) + CA.n_vertices
        ball_a, _ = matched_balls(K, TA_K, TB_K, pa, pb, 0.5)
        want = ball(TA_K, pa, 0.5)
        assert mass(ball_a) == pytest.approx(mass(want), rel=1e-9)
        assert mass(boundary(ball_a)) == pytest.approx(mass(boundary(want)), rel=1e-9)


class TestFamilies:
    def test_refined_disk_masses(self):
        fam = build_family("refined_disk", [0.2, 0.1, 0.05])
        masses = [mass(T) for _, T in fam.members()]
        for m in masses:
            assert m == pytest.approx(math.pi, rel=0.02)
        assert masses == sorted(masses)  # refinement improves the area

    def test_thin_torus_masses(self):
        fam = build_family("thin_torus", [1.0, 0.5, 0.25])
        for eps, (C, T) in zip(fam.schedule, fam.members()):
            assert mass(T) == pytest.approx((2 * math.pi) ** 2 * 2 * eps, rel=1e-9)
            assert boundary(T).is_zero()

    def test_sphere_splines_spike_area_shrinks(self):
        fam = build_family("sphere_splines", [2, 4, 8])
        CL, TL = fam.expected_limit
        base_mass = mass(TL)
        extras = [mass(T) - base_mass for _, T in fam.members()]
        assert all(e > 0 for e in extras)
        assert extras == sorted(extras, reverse=True)
        # spike area scales like j * (1/j^2) / 2 -> 0
        assert extras[-1] < extras[0] / 2

    def test_default_centres_match_coordinates(self):
        for name, schedule in [("refined_disk", [0.3]), ("refined_sphere", [4]), ("thin_torus", [1.0])]:
            fam = build_family(name, schedule)
            C, _ = fam.members()[0]
            p = nearest_vertex(C, fam.center)
            assert np.allclose(C.coords()[p], fam.center)
        with pytest.raises(ArgumentError):
            nearest_vertex(C, (0.0, 0.0))  # a 2-d point on the 3-d torus

    def test_unknown_family(self):
        with pytest.raises(ArgumentError):
            build_family("moebius", [1])


class TestSemicontinuity:
    def test_refined_disk_passes(self):
        fam = build_family("refined_disk", [0.2, 0.1])
        rep = semicontinuity_report(fam)
        assert rep["passed"]
        assert rep["rows"][-1]["mass_ok"] and rep["rows"][-1]["diameter_ok"]

    def test_constant_family_equalities(self):
        C, T = disk_mesh(h=0.2)
        fam = SequenceFamily("constant", [1, 2], lambda p: (C, T), expected_limit=(C, T))
        rep = semicontinuity_report(fam)
        assert rep["passed"]
        for row in rep["rows"]:
            assert row["mass"] == pytest.approx(rep["limit_mass"], rel=1e-12)
            assert row["diameter"] == pytest.approx(rep["limit_diameter"], rel=1e-12)

    def test_splines_exceed_limit_at_every_step(self):
        fam = build_family("sphere_splines", [2, 4])
        rep = semicontinuity_report(fam)
        for row in rep["rows"]:
            assert row["mass_ok"] and row["diameter_ok"]


class TestContinuitySweep:
    def test_refined_disk_fillvol(self):
        fam = build_family("refined_disk", [0.2, 0.1])
        out = continuity_sweep(fam, "fillvol", {"radius": 0.5})
        values = [r["value"] for r in out["rows"]]
        for v in values:
            assert v == pytest.approx(math.pi * 0.25, rel=0.05)
        for check in out["pair_checks"]:
            assert check["gap"] <= check["bound"] + 1e-6

    @pytest.mark.parametrize(
        "quantity, params, missing",
        [("fillvol", {}, "radius"), ("sf", {"radius": 0.5}, "grid"), ("ifv", {"radius": 0.5, "grid": 8}, "epsilon"),
         ("sif", {"epsilon": 0.1}, "radius"), ("sif", {"radius": 0.5, "epsilon": None}, "epsilon")],
    )
    def test_a_missing_param_is_named(self, quantity, params, missing):
        fam = build_family("refined_disk", [0.4])
        with pytest.raises(ArgumentError, match=f"continuity_sweep of {quantity} needs params\\['{missing}'\\]"):
            continuity_sweep(fam, quantity, params)

    def test_refined_sphere_sf_converges(self):
        fam = build_family("refined_sphere", [8, 10])
        out = continuity_sweep(
            fam,
            "sf",
            {"radius": math.pi / 2, "witness_point": (1.0, 0.0, 0.0), "grid": 16},
        )
        values = [r["value"] for r in out["rows"]]
        for v in values:
            assert v == pytest.approx(math.pi**2 / 2, rel=0.05)

    def test_slice_shift_bound(self):
        # perturb a distance function by less than delta: the flat distance
        # between the slices is at most the annulus masses
        rng = np.random.default_rng(12)
        C, T = grid_mesh(4, 4)
        rho = distance_function(C, 0)
        for _ in range(5):
            delta = 0.08
            noise = rng.uniform(-delta * 0.95, delta * 0.95, size=C.n_vertices)
            f = PLFunction(C, rho.values + noise)
            r = float(rng.uniform(0.4, 0.9))
            s1 = slice_current(T, rho, r)
            # transfer f onto the refined complex of the first slice and
            # slice there so both slices share one complex
            f2 = s1.refinement.transfer_function(f)
            T2 = s1.refinement.transfer_current(T)
            s2 = slice_current(T2, f2, r)
            K2 = s2.complex
            s1_on_K2 = s2.refinement.transfer_current(s1.current)
            bound = annulus_mass(T, rho, r - delta, r + delta) + annulus_mass(
                boundary(T), rho, r - delta, r + delta
            )
            gap = flat_distance(s1_on_K2, s2.current, K2).value
            assert gap <= bound + 1e-6

    def test_annulus_halving(self):
        C, T = disk_mesh(h=0.1)
        rho = distance_function(C, 0)
        for r in (0.35, 0.62):
            masses = [annulus_mass(T, rho, r - d, r + d) for d in (0.1, 0.05, 0.025)]
            assert masses[1] <= 0.65 * masses[0]
            assert masses[2] <= 0.65 * masses[1]
