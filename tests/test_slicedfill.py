import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currentlab.complexes import PLFunction, coordinate_function, distance_function, lookup_rows
from currentlab.currents import SimplicialCurrent, boundary, mass
from currentlab.metricspace import ArgumentError
from currentlab.meshes import (
    disk_mesh,
    euclidean_box_mesh,
    nearest_vertex,
    sphere_mesh,
    equator_vertex,
    torus_patch_mesh,
)
from currentlab.slicing import (
    PointCycle,
    coarea_profile,
    slice_current,
    snap_level,
    subdivide_at_level,
    support_closure,
)
from currentlab.slicedfill import (
    C_E3_BAND_INTEGRAL,
    C_E3_POINTWISE_BETA03,
    C_E3_POINTWISE_MIN,
    POINT_MERGE_REL,
    ball_context,
    h_min_distance,
    sf_k,
    sliced_fill,
    tetra_check,
    _tensor_eval,
    fill_value_of_boundary,
)

from oracles import level_star, tensor_eval_oracle
from test_slicing import _metric_state, _subdivide_cases

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from derive_c_e3 import h_closed_form as euclidean_h_closed_form  # noqa: E402


@pytest.fixture(scope="module")
def box_ball():
    C, T = euclidean_box_mesh(0.65, 8)
    p = nearest_vertex(C, (0.0, 0.0, 0.0))
    ctx = ball_context(T, p, 0.5)
    return C, T, p, ctx


def witnesses_at_mutual_distance(ctx, r):
    coords = ctx.complex.coords()
    sph = ctx.sphere_vertices()
    w1 = min(sph, key=lambda v: np.linalg.norm(coords[v] - np.array([r, 0.0, 0.0])))
    target = np.array([r / 2, r * math.sqrt(3) / 2, 0.0])
    w2 = min(sph, key=lambda v: np.linalg.norm(coords[v] - target))
    return w1, w2


def h_at(ctx, levels, witnesses):
    """h at one level per witness: the h leaf on the cycle of the iterated
    slice of the ball, through the level box's recursion."""
    fns = [distance_function(ctx.complex, w) for w in witnesses]
    grids = [np.array([t]) for t in levels]
    leaf = lambda B: h_min_distance(B, POINT_MERGE_REL * ctx.radius)  # noqa: E731
    vals, skipped = _tensor_eval(ctx.current, fns, grids, leaf, cycle=True)
    assert skipped == 0
    return float(vals.reshape(-1)[0])


class TestConstants:
    def test_band_integral_matches_closed_form(self):
        t = np.linspace(0.5, 1.5, 2001)
        T1, T2 = np.meshgrid(t, t, indexing="ij")
        H = euclidean_h_closed_form(T1, T2)
        integral = np.trapezoid(np.trapezoid(H, t, axis=1), t)
        assert integral == pytest.approx(C_E3_BAND_INTEGRAL, abs=2e-6)
        assert H.min() == C_E3_POINTWISE_MIN == 0.0

    def test_beta03_pointwise_constant(self):
        t = np.linspace(0.7, 1.3, 1501)
        T1, T2 = np.meshgrid(t, t, indexing="ij")
        H = euclidean_h_closed_form(T1, T2)
        assert H.min() == pytest.approx(C_E3_POINTWISE_BETA03, abs=1e-6)
        assert H.min() > 0

    def test_centre_value(self):
        assert euclidean_h_closed_form(1.0, 1.0) == pytest.approx(2 * math.sqrt(2 / 3))


class TestHFunction:
    def test_euclidean_two_point_configuration(self, box_ball):
        C, T, p, ctx = box_ball
        r = 0.5
        w1, w2 = witnesses_at_mutual_distance(ctx, r)
        h = h_at(ctx, [r, r], [w1, w2])
        assert h == pytest.approx(2 * math.sqrt(2 / 3) * r, rel=0.05)

    def test_generic_levels_match_closed_form(self, box_ball):
        C, T, p, ctx = box_ball
        r = 0.5
        w1, w2 = witnesses_at_mutual_distance(ctx, r)
        for t1, t2 in [(0.9, 1.1), (1.2, 0.8)]:
            h = h_at(ctx, [t1 * r, t2 * r], [w1, w2])
            expected = r * float(euclidean_h_closed_form(t1, t2))
            assert h == pytest.approx(expected, rel=0.08)

    def test_out_of_band_levels_empty(self, box_ball):
        C, T, p, ctx = box_ball
        r = 0.5
        w1, w2 = witnesses_at_mutual_distance(ctx, r)
        # t beyond s_i + r: the witness level set misses the ball entirely
        assert h_at(ctx, [2.5 * r, r], [w1, w2]) == 0.0

    def test_sphere_great_circle_profile(self):
        C, T = sphere_mesh(20, 40)
        p1 = equator_vertex(C, 20, 40)
        r = math.pi / 2
        ctx = ball_context(T, 0, r)
        for t in (0.8, 1.4, 2.0):
            h = h_at(ctx, [t], [p1])
            assert h == pytest.approx(min(2 * t, 2 * (math.pi - t)), rel=0.05)

    def test_transport_value_dominates_h(self, box_ball):
        # minimal transport over the slice boundary is at least the minimal
        # pairwise distance between its points
        C, T, p, ctx = box_ball
        r = 0.5
        w1, w2 = witnesses_at_mutual_distance(ctx, r)
        fns = [distance_function(ctx.complex, w) for w in (w1, w2)]
        grids = [np.array([0.95 * r]), np.array([1.05 * r])]

        values = {}

        def leaf(cur):
            values["h"] = h_min_distance(PointCycle.from_chain(boundary(cur)), 1e-9 * r)
            values["fill"] = fill_value_of_boundary(PointCycle.from_chain(boundary(cur)))
            return 0.0

        _tensor_eval(ctx.current, fns, grids, leaf, cycle=False)
        assert values["fill"] >= values["h"] - 1e-12
        assert values["h"] > 0


class TestSlicedFill:
    def test_disk_coordinate_function(self):
        C, T = disk_mesh(h=0.1)
        f = coordinate_function(C, 0)
        rep = sliced_fill(T, 0, 1.05, functions=[f], grid=32)
        assert rep.integral == pytest.approx(math.pi, rel=0.05)
        assert rep.mass_lower_bound <= rep.ball_mass + 2 * (rep.error_estimate or 0) + 1e-6
        assert rep.lipschitz == [pytest.approx(1.0, rel=1e-6)]

    def test_empty_level_region_contributes_zero(self):
        C, T = disk_mesh(h=0.15)
        ctx = ball_context(T, 0, 0.4)
        far = nearest_vertex(C, (1.0, 0.0))
        rho = distance_function(ctx.complex, far)
        vals, skipped = _tensor_eval(
            ctx.current, [rho], [np.array([3.1, 3.3])], lambda cur: mass(cur), cycle=False
        )
        assert np.all(vals == 0.0)

    def test_mass_bound_invariant_randomized(self):
        rng = np.random.default_rng(44)
        C, T = disk_mesh(h=0.12)
        for _ in range(5):
            r = float(rng.uniform(0.3, 0.9))
            ctx = ball_context(T, 0, r)
            w = ctx.sphere_vertices()[int(rng.integers(len(ctx.sphere_vertices())))]
            rep = sliced_fill(T, 0, r, witnesses=[w], grid=17, context=ctx)
            tol = 2 * (rep.error_estimate or 0.0) + 1e-6
            assert rep.mass_lower_bound <= rep.ball_mass + tol


def _full_cut_ball(T, p, r):
    """The ball around p cut on the whole of T's complex."""
    ref = subdivide_at_level(T.complex, distance_function(T.complex, p).values, r)
    return ref, support_closure(ref.transfer_current(T).restricted(ref.below(T.dim)))


def _assert_same_complex(A, B):
    assert A.dims == B.dims
    for k in B.dims:
        assert np.array_equal(A.simplex_array(k), B.simplex_array(k)), k
        assert np.array_equal(A.masses(k), B.masses(k)), k
        if k:
            assert np.array_equal(A.face_index(k), B.face_index(k)), k


class TestLevelStar:
    @pytest.mark.parametrize(
        "mesh, point, r",
        [(lambda: sphere_mesh(20, 40), None, 1.1), (lambda: disk_mesh(h=0.15), (0.2, 0.1), 0.5),
         (lambda: euclidean_box_mesh(0.65, 6), (0.0, 0.0, 0.0), 0.5)],
        ids=["sphere", "disk", "box"],
    )
    def test_ball_context_equals_full_cut(self, mesh, point, r):
        """The ball cut only on the simplices with a vertex inside it has the
        full cut's arrays, masses, face index, coefficients, cut function
        and cut points."""
        C, T = mesh()
        p = 37 if point is None else nearest_vertex(C, point)
        ctx = ball_context(T, p, r)
        ref, want = _full_cut_ball(T, p, r)
        _assert_same_complex(ctx.complex, want.complex)
        assert np.array_equal(ctx.current.idx, want.idx) and np.array_equal(ctx.current.coeff, want.coeff)
        assert np.array_equal(ctx.refinement.values, ref.values)
        assert np.array_equal(ctx.refinement.cut_edges, ref.cut_edges)
        assert np.array_equal(ctx.refinement.cut_t, ref.cut_t)
        assert ctx.refinement.source.count(T.dim) < C.count(T.dim)

    def test_ball_and_its_sphere_look_up_no_face_index(self, monkeypatch):
        """A 2-d ball context and its discrete sphere make no facet lookup:
        d(ball) is read off the level set, with no face index of the ball,
        of the star closure or of its refinement."""
        import currentlab.complexes as complexes

        C, T = sphere_mesh(20, 40)
        looked_up, original = [], complexes.facet_lookup

        def counting(table, rows, *args):
            looked_up.append(rows)
            return original(table, rows, *args)

        monkeypatch.setattr(complexes, "facet_lookup", counting)
        ctx = ball_context(T, 37, 1.1)
        assert ctx.sphere_vertices()
        assert looked_up == []

    def test_sphere_sliced_fill_cuts_nothing(self, monkeypatch):
        """A sphere sliced fill makes no cut: the ball is read off its level
        set, and the 9 levels of the axis read the cut points of the
        crossing edges of the ball's boundary (the cycle -<d ball, f, t>)."""
        import currentlab.slicing as slicing

        C, T = sphere_mesh(20, 40)
        witness = ball_context(T, 37, 1.1).sphere_vertices()[5]
        passes, original = [], slicing._refine

        def recording(sources, *args, **kwargs):
            passes.append(len(sources))
            return original(sources, *args, **kwargs)

        monkeypatch.setattr(slicing, "_refine", recording)
        rep = sliced_fill(T, 37, 1.1, witnesses=[witness], grid=9)
        assert rep.integral > 0 and passes == []

    def test_three_dimensional_final_slice_keeps_the_whole_cut(self, box_ball):
        """With one function on a 3-d ball the leaf fills the boundary of a
        2-d slice inside the slice's complex, so it is handed the slice on
        the full cut of the ball's complex."""
        C, T, p, ctx = box_ball
        f = distance_function(ctx.complex, ctx.sphere_vertices()[0])
        grid = np.linspace(0.3, 0.7, 3)
        seen = []
        _tensor_eval(ctx.current, [f], [grid], lambda cur: seen.append(cur) or 0.0, cycle=False)
        assert len(seen) == len(grid)
        for cur, t in zip(seen, grid):
            want = slice_current(ctx.current, f, float(t)).current
            assert not want.is_zero()
            _assert_same_complex(cur.complex, want.complex)
            assert np.array_equal(cur.idx, want.idx) and np.array_equal(cur.coeff, want.coeff)

    def test_four_dimensional_final_slice_keeps_the_whole_cut_of_its_closure(self):
        """With two functions on a 4-d ball the first slice cuts a level
        star and passes its slice on unclosed; the final 2-d slice is cut
        on the whole closure of that slice's support, as slicing the full
        cut and closing it gives."""
        from test_slicing import kuhn_mesh

        C, T = kuhn_mesh((2, 2, 2, 1), seed=0)
        ctx = ball_context(T, nearest_vertex(C, (1.0, 1.0, 1.0, 0.5)), 0.9)
        fns = [coordinate_function(ctx.complex, axis) for axis in (0, 1)]
        grids = [np.array([0.9, 1.1]), np.array([1.05])]
        seen = []
        _tensor_eval(ctx.current, fns, grids, lambda cur: seen.append(cur) or 0.0, cycle=False)
        assert len(seen) == 2
        for cur, t in zip(seen, grids[0]):
            first = slice_current(ctx.current, fns[0], float(t))
            f1 = first.refinement.transfer_function(fns[1])
            want = slice_current(support_closure(first.current), f1, float(grids[1][0])).current
            assert not want.is_zero()
            _assert_same_complex(cur.complex, want.complex)
            assert np.array_equal(cur.idx, want.idx) and np.array_equal(cur.coeff, want.coeff)


def _assert_level_set_is_the_cut(T, p, r):
    """The ball read off its level set has the cut ball's boundary (rows
    and coefficients), discrete sphere, cut edges and parameters, grown
    metric, rows, support range and mass, bit for bit; the level set's
    values are read before the cut is built."""
    ctx = ball_context(T, p, r)
    k = T.dim
    lv, ball_mass, sphere, got = ctx.level_set, ctx.ball_mass, ctx.sphere_vertices(), ctx.boundary
    f = distance_function(got.complex, sphere[0] if sphere else p)
    support = ctx.support_range(f)
    assert "_cut" not in vars(ctx) and got.complex.dims == list(range(k))
    want, ref = boundary(ctx.current), ctx.refinement
    assert np.array_equal(got.complex.simplex_array(k - 1)[got.idx], want.complex.simplex_array(k - 1)[want.idx])
    assert np.array_equal(got.coeff, want.coeff)
    assert sphere == [v for v in want.support_vertices() if v >= T.complex.n_vertices]
    assert np.array_equal(lv.cut_edges, ref.cut_edges) and np.array_equal(lv.cut_t, ref.cut_t)
    assert np.array_equal(_metric_state(lv.metric), _metric_state(ctx.complex.metric))
    for v in sphere[:3] + [p]:
        assert np.array_equal(lv.metric.row(v), ctx.complex.metric.row(v))
    rows, coeff = ctx.rows
    assert np.array_equal(rows, ctx.complex.simplex_array(k)[ctx.current.idx]) and np.array_equal(coeff, ctx.current.coeff)
    verts = ctx.current.support_vertices()
    assert support == (PLFunction(ctx.complex, f.values).range(verts) if verts else (0.0, 0.0))
    assert ball_mass == mass(ctx.current)
    assert ctx.boundary is not got and ctx.boundary.complex is ctx.complex  # once cut, the cut's
    return ctx


def _mixed_chain(C, seed):
    """Every top simplex of C with a coefficient in 1..3 of either sign."""
    k = C.top_dim
    rng = np.random.default_rng([seed, C.count(k)])
    coeff = rng.integers(1, 4, size=C.count(k)) * rng.choice([-1, 1], size=C.count(k))
    return SimplicialCurrent.from_arrays(C, k, np.arange(C.count(k)), coeff)


_LEVEL_DISK, _ = disk_mesh(h=0.25)
_LEVEL_DISK_T = _mixed_chain(_LEVEL_DISK, 4)
_LEVEL_BOX, _ = euclidean_box_mesh(0.5, 3)
_LEVEL_BOX_T = _mixed_chain(_LEVEL_BOX, 5)


class TestLevelSet:
    """A 2-d or 3-d ball context reads the ball off its level set, with no
    cut, and reads what the cut ball gives, bit for bit."""

    @pytest.mark.parametrize(
        "C", [pytest.param(c.values[0], id=c.id) for c in _subdivide_cases() if c.values[0].top_dim in (2, 3)]
    )
    def test_level_set_equals_the_cut_on_every_backend(self, C):
        T = _mixed_chain(C, 9)
        p = int(C.simplex_array(T.dim)[C.count(T.dim) // 2, 0])
        rho = distance_function(C, p).values
        values = rho[np.unique(C.simplex_array(T.dim))]
        far, on_vertex = float(values.max()), float(values[np.argmin(np.abs(values - 0.45 * values.max()))])
        assert snap_level(rho, on_vertex)[1]
        for r in (0.3 * far, 0.6 * far, on_vertex):
            ctx = _assert_level_set_is_the_cut(T, p, r)
            assert ctx.sphere_vertices() and (np.abs(T.coeff) == 3).any() and (T.coeff < 0).any()
        ctx = _assert_level_set_is_the_cut(T, p, 1.5 * far)  # the ball holds all of T
        assert ctx.sphere_vertices() == [] and len(ctx.level_set.cut_edges) == 0

    def test_level_set_equals_the_cut_on_a_sphere(self):
        C, T = sphere_mesh(20, 40)
        _assert_level_set_is_the_cut(T, 37, 1.1)

    def test_level_set_equals_the_cut_across_the_boundary_of_a_disk(self):
        """A ball crossing dT: its boundary holds the halves below the level
        of dT's crossing edges, each with one old vertex and one cut point."""
        C, T = disk_mesh(h=0.15)
        ctx = _assert_level_set_is_the_cut(T, nearest_vertex(C, (0.7, 0.0)), 0.5)
        rows = ctx.boundary.complex.simplex_array(1)[ctx.boundary.idx]
        assert ((rows < C.n_vertices).sum(axis=1) == 1).any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, _LEVEL_DISK.n_vertices - 1), st.floats(0.01, 2.5))
    def test_level_set_equals_the_cut_on_disk_balls(self, p, r):
        _assert_level_set_is_the_cut(_LEVEL_DISK_T, p, r)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, _LEVEL_BOX.n_vertices - 1), st.floats(0.01, 2.0))
    def test_level_set_equals_the_cut_on_box_balls(self, p, r):
        _assert_level_set_is_the_cut(_LEVEL_BOX_T, p, r)

    @pytest.mark.parametrize("eps", [0.8, 0.4, 0.2])
    @pytest.mark.parametrize("divisor", [8, 2])
    def test_level_set_equals_the_cut_on_torus_tetra_balls(self, eps, divisor):
        T, p, r, _ = _torus_tetra_ball(eps, divisor)
        assert _assert_level_set_is_the_cut(T, p, r).sphere_vertices()

    def test_level_set_equals_the_cut_across_the_boundary_of_a_box(self):
        """A 3-d ball crossing dT: its boundary holds the pieces below the
        level of dT's crossing triangles, each with an old vertex and a
        cut point, and dT's triangles wholly below."""
        C, T = euclidean_box_mesh(0.65, 6)
        ctx = _assert_level_set_is_the_cut(T, nearest_vertex(C, (0.5, 0.2, 0.0)), 0.4)
        old = (ctx.level_set.boundary_rows < C.n_vertices).sum(axis=1)
        assert (old == 3).any() and ((old == 1) | (old == 2)).any() and (old == 0).any()

    def test_level_path_skips_the_levels_the_cut_ball_skips(self):
        """Near 2**62 the level path skips exactly the levels that the cut
        ball skips: the ball's untouched triangles crossing the middle
        witness level carry c, so their 3 pieces each reach 2**62 there,
        and a level that misses one of them stays below."""
        C, T1 = disk_mesh(h=0.25)
        p, r, grid = 0, 0.6, 9
        ctx1 = ball_context(T1, p, r)
        w = ctx1.sphere_vertices()[0]
        rows = ctx1.complex.simplex_array(2)[ctx1.current.idx]
        levels = np.linspace(*ctx1.support_range(distance_function(ctx1.complex, w)), grid)
        side = distance_function(ctx1.complex, w).values[rows] < levels[grid // 2]
        big = rows[side.any(axis=1) & ~side.all(axis=1) & (rows < C.n_vertices).all(axis=1)]
        c = 2**62 // (3 * len(big)) + 1
        coeff = T1.coeff.copy()
        coeff[lookup_rows(C.simplex_array(2)[T1.idx], big)] *= c
        T = SimplicialCurrent.from_arrays(C, 2, T1.idx, coeff)
        rep = sliced_fill(T, p, r, witnesses=[w], grid=grid)
        ctx = ball_context(T, p, r)
        f = distance_function(ctx.complex, w)
        want, want_skipped = _tensor_eval(ctx.current, [f], [levels], fill_value_of_boundary, cycle=True)
        assert np.array_equal(rep.grid_axes[0], levels)
        assert 0 < rep.skipped == want_skipped < grid
        assert rep.values.tobytes() == want.tobytes()

    def test_level_set_equals_the_cut_on_a_segment(self):
        """A 1-d ball: its boundary is its cut points and the vertices of dT
        below the level, and sfk --k 0 reads their points off the level
        set as it read them off the cut ball's boundary."""
        from currentlab.meshes import interval_chain

        C, T1 = interval_chain(8)
        T = SimplicialCurrent.from_arrays(C, 1, T1.idx, [1, -2, 3, 1, 2, -1, 1, 3])
        for p, r in [(0, 0.3), (4, 0.2), (4, 0.5), (4, 2.0)]:
            _assert_level_set_is_the_cut(T, p, r)
            ctx = ball_context(T, p, r)
            want = fill_value_of_boundary(PointCycle.from_chain(boundary(ctx.current)))
            assert sf_k(T, p, r, 0).values.tobytes() == np.array([want]).tobytes()

    def test_tetra_level_path_skips_the_levels_the_cut_ball_skips(self):
        """Near 2**62 the 3-d level path skips exactly the first-axis levels
        that slicing the cut ball skips: the ball's untouched tetrahedra
        with two vertices below the middle level of the first witness carry
        c, so their 6 pieces each reach 2**62 there.  The levels where they
        split into 4 are kept, though the crossing triangles of d(ball)
        split into 9 there (a rule read off d(ball) skips 3 levels)."""
        from currentlab.slicedfill import _witness_search

        T1, p, r, ctx1 = _torus_tetra_ball()
        C, n = T1.complex, T1.complex.n_vertices
        sphere = ctx1.sphere_vertices()
        witnesses, box, samples = (sphere[0], sphere[len(sphere) // 3]), (0.5 * r, 1.5 * r), 9
        levels = np.linspace(*box, samples)
        rows = ctx1.complex.simplex_array(3)[ctx1.current.idx]
        side = distance_function(ctx1.complex, witnesses[0]).values[rows] < levels[samples // 2]
        big = rows[(side.sum(axis=1) == 2) & (rows < n).all(axis=1)]
        c = 2**62 // (6 * len(big)) + 1
        coeff = T1.coeff.copy()
        coeff[lookup_rows(C.simplex_array(3)[T1.idx], big)] *= c
        T = SimplicialCurrent.from_arrays(C, 3, T1.idx, coeff)
        leaf = lambda B: h_min_distance(B, POINT_MERGE_REL * r)  # noqa: E731
        rep = tetra_check(T, p, r, C=0.9 * C_E3_BAND_INTEGRAL, beta=0.5, samples=samples, candidates=1)
        search = _witness_search(ball_context(T, p, r), 2, 1, leaf, samples, box=box)
        ctx = ball_context(T, p, r)
        fns = [distance_function(ctx.complex, w) for w in witnesses]
        want, want_skipped = _tensor_eval(ctx.current, fns, [levels] * 2, leaf, cycle=True)
        assert rep.witnesses == search.witnesses == witnesses
        assert search.skipped == want_skipped == 1
        assert rep.h_values.tobytes() == search.values.tobytes() == want.tobytes()
        assert (want[samples // 2] == 0).all() and (want > 0).any()

    def test_paths_that_slice_the_cut_ball_run_no_level_pass(self, monkeypatch):
        """sfk --k 1 and witnesses=[] on a 3-d ball, and sif, lab's fillvol,
        functions= and witnesses=[] on a 2-d one, read the cut ball alone:
        the level pass never runs.  A default context runs it once, and the
        default witness search on it cuts nothing."""
        import currentlab.slicedfill as slicedfill
        from currentlab.convergence import _member_value
        from currentlab.slicedfill import sliced_interval_fill

        passes, cuts, original = [], [], slicedfill._level_set
        monkeypatch.setattr(slicedfill, "_level_set", lambda *a: passes.append(a[0].dim) or original(*a))
        C3, T3 = euclidean_box_mesh(0.65, 6)
        p3 = nearest_vertex(C3, (0.0, 0.0, 0.0))
        assert sf_k(T3, p3, 0.5, 1, candidates=1, grid=3).integral > 0
        assert sliced_fill(T3, p3, 0.5, witnesses=[]).integral > 0
        C2, T2 = disk_mesh(h=0.25)
        assert sliced_interval_fill(T2, 0, 0.6, epsilon=0.2).integral > 0
        assert sliced_interval_fill(T2, 0, 0.6, witnesses=[0], epsilon=0.2, grid=3).integral > 0
        assert sliced_fill(T2, 0, 0.6, functions=[coordinate_function(C2, 0)], grid=5).integral > 0
        assert sliced_fill(T2, 0, 0.6, witnesses=[]).integral > 0
        assert _member_value(C2, T2, "fillvol", {"radius": 0.6}, (0.0, 0.0)) > 0
        assert passes == []
        ctx = ball_context(T2, 0, 0.6)
        monkeypatch.setattr(slicedfill, "subdivide_at_level", lambda *a: cuts.append(a) or None)
        assert sliced_fill(T2, 0, 0.6, grid=5, context=ctx).integral > 0
        assert passes == [2] and cuts == [] and "_cut" not in vars(ctx)

    def test_sliced_fill_on_a_2d_ball_takes_no_closure_or_boundary(self, monkeypatch):
        """sf, sfk --k 1 and the default witness on a 2-d ball build no
        support closure and take no boundary: the ball is its level set."""
        import currentlab.currents as currents
        import currentlab.slicing as slicing
        import currentlab.slicedfill as slicedfill

        C, T = sphere_mesh(20, 40)
        calls = []
        for module, name in [(slicing, "support_closure"), (slicedfill, "support_closure"),
                             (currents, "boundary"), (slicedfill, "boundary")]:
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _o=original, _n=name: calls.append(_n) or _o(*a))
        witness = ball_context(T, 37, 1.1).sphere_vertices()[5]
        assert sliced_fill(T, 37, 1.1, witnesses=[witness], grid=9).integral > 0
        assert sliced_fill(T, 37, 1.1, grid=5).integral > 0
        assert sf_k(T, 37, 1.1, 1, candidates=2, grid=5).integral > 0
        assert calls == []

    def test_a_mismatched_context_is_refused(self):
        C, T = disk_mesh(h=0.25)
        w = ball_context(T, 5, 0.6).sphere_vertices()[0]
        with pytest.raises(ArgumentError, match="context must be the ball about 5 of radius 0.6"):
            sliced_fill(T, 5, 0.6, witnesses=[w], context=ball_context(T, 0, 0.3))
        with pytest.raises(ArgumentError, match="of another chain"):
            sliced_fill(T, 5, 0.6, witnesses=[w], context=ball_context(-T, 5, 0.6))
        ctx = ball_context(T, 5, 0.6)
        with_ctx, without = (sliced_fill(T, 5, 0.6, witnesses=[w], grid=5, context=c) for c in (ctx, None))
        assert with_ctx.to_json() == without.to_json()


def _torus_tetra_ball(eps=0.4, divisor=8):
    """A torus_tetra benchmark input: the thin-torus Kuhn patch about the
    origin with its ball of radius eps / divisor."""
    r = eps / divisor
    C, T = torus_patch_mesh(eps, half_width=1.35 * r, cells_per_axis=6)
    p = nearest_vertex(C, (0.0, 0.0, 0.0))
    return T, p, r, ball_context(T, p, r)


class TestBatchedAxes:
    """Each axis of the level box is cut once for all its levels, with the
    values of cutting every level on its own."""

    @pytest.mark.parametrize("divisor", [8, 2])
    def test_torus_tetra_values_equal_per_level_cuts(self, divisor):
        T, p, r, ctx = _torus_tetra_ball(divisor=divisor)
        sphere = ctx.sphere_vertices()
        fns = [distance_function(ctx.complex, w) for w in (sphere[0], sphere[len(sphere) // 3])]
        grids = [np.linspace(0.5 * r, 1.5 * r, 5)] * 2
        leaf = lambda cur: h_min_distance(cur, 1e-9 * r)  # noqa: E731
        got, skipped = _tensor_eval(ctx.current, fns, grids, leaf, cycle=True)
        want, want_skipped = tensor_eval_oracle(ctx.current, fns, grids, lambda cur: leaf(PointCycle.from_chain(boundary(cur))))
        assert np.array_equal(got, want) and skipped == want_skipped
        assert (got > 0).any()

    def test_sphere_fill_values_equal_per_level_cuts(self):
        C, T = sphere_mesh(20, 40)
        ctx = ball_context(T, 37, 1.1)
        f = distance_function(ctx.complex, ctx.sphere_vertices()[5])
        grids = [np.linspace(*ctx.support_range(f), 9)]
        got, _ = _tensor_eval(ctx.current, [f], grids, fill_value_of_boundary, cycle=True)
        want, _ = tensor_eval_oracle(
            ctx.current, [f], grids, lambda cur: fill_value_of_boundary(PointCycle.from_chain(boundary(cur)))
        )
        assert np.array_equal(got, want) and (got > 0).sum() >= 7

    def test_whole_cut_values_equal_per_level_cuts(self, box_ball):
        """A final 2-d slice keeps the whole cut of its closure; all its
        levels still take one pass."""
        C, T, p, ctx = box_ball
        f = distance_function(ctx.complex, ctx.sphere_vertices()[0])
        grids = [np.linspace(0.2, 0.8, 4)]
        got, _ = _tensor_eval(ctx.current, [f], grids, lambda cur: mass(boundary(cur)), cycle=False)
        want, _ = tensor_eval_oracle(ctx.current, [f], grids, lambda cur: mass(boundary(cur)))
        assert np.array_equal(got, want) and (got > 0).all()

    def test_skipped_levels_are_counted(self):
        C, T = disk_mesh(h=0.15)
        ctx = ball_context(T, 0, 0.5)
        f = coordinate_function(ctx.complex, 0)
        grids = [np.array([-0.2, math.nan, 0.1])]
        got, skipped = _tensor_eval(ctx.current, [f], grids, lambda cur: mass(cur), cycle=False)
        want, want_skipped = tensor_eval_oracle(ctx.current, [f], grids, lambda cur: mass(cur))
        assert skipped == want_skipped == 1 and np.array_equal(got, want)

    def test_coarea_profile_equals_per_level_cuts_on_criterion_7(self):
        from test_acceptance import random_grid_chain, random_vertex_function

        rng = np.random.default_rng(707)
        for _ in range(25):
            T = random_grid_chain(rng)
            f = random_vertex_function(rng, T.complex)
            integral, _ = coarea_profile(T, f, 12)
            grid = np.linspace(*f.range(), 12)
            masses = [mass(slice_current(level_star(T, f.values, s, crossing=True), f, s).current) for s in grid]
            assert integral == float(np.trapezoid(masses, grid))

    def test_skip_rule_reads_the_ball_star_near_the_limit(self):
        """A first-axis level is skipped when the 3-d star on its refinement
        has |coefficients| summing to 2**62 or more, not the boundary's
        star: one tetrahedron of coefficient c = 2**62 // 5 splits into 4
        pieces (kept) with one or three vertices below and into 6 (skipped)
        with two, while its boundary's crossing triangles split into 9 or 12."""
        from currentlab.complexes import EuclideanMetric, GeometricComplex
        from currentlab.currents import SimplicialCurrent

        coords = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.1), (0.3, 1.0, 0.2), (0.2, 0.3, 1.0)]
        C = GeometricComplex.from_top_simplices(EuclideanMetric(coords), [(0, 1, 2, 3)])
        P = SimplicialCurrent.from_arrays(C, 3, [0], [2**62 // 5])
        fns = [coordinate_function(C, 0), coordinate_function(C, 1)]
        grids = [np.array([0.05, 0.25, 0.28, 0.6, 0.9]), np.array([0.1, 0.5, 0.8])]
        leaf = lambda B: h_min_distance(B, 1e-9)  # noqa: E731
        got, skipped = _tensor_eval(P, fns, grids, leaf, cycle=True)
        want, want_skipped = tensor_eval_oracle(P, fns, grids, lambda cur: leaf(PointCycle.from_chain(boundary(cur))))
        assert np.array_equal(got, want) and skipped == want_skipped == 2
        assert (got > 0).any()

    def test_point_pass_skips_by_the_rule_of_its_prefix(self):
        """With one axis the point pass skips a level when the triangle it
        reads the boundary of reaches 2**62 on its star's refinement, as the
        oracle's cut does: coefficient c = 2 * (2**62 // 7) splits into 3
        pieces (3c < 2**62, kept), though the two crossing edges of its
        boundary hold 4c."""
        from currentlab.complexes import EuclideanMetric, GeometricComplex
        from currentlab.currents import SimplicialCurrent

        C = GeometricComplex.from_top_simplices(EuclideanMetric([(0.0, 0.0), (1.0, 0.1), (0.3, 1.0)]), [(0, 1, 2)])
        S = SimplicialCurrent.from_arrays(C, 2, [0], [2 * (2**62 // 7)])
        fns, grids = [coordinate_function(C, 0)], [np.array([0.1, 0.5, 0.9])]
        got, skipped = _tensor_eval(S, fns, grids, fill_value_of_boundary, cycle=True)
        want, want_skipped = tensor_eval_oracle(S, fns, grids, lambda cur: fill_value_of_boundary(_leaf_cycle(boundary(cur))))
        assert np.array_equal(got, want) and skipped == want_skipped == 0
        assert (got > 0).all()

    @pytest.mark.parametrize("divisor, want_skipped", [(5, 2), (11, 0)])
    def test_whole_cut_last_axis_skips_by_the_rule_of_its_prefix(self, divisor, want_skipped):
        """A whole-cut final slice of one tetrahedron of coefficient c skips
        a level by the tetrahedron's whole refinement (4c or 6c), not by
        its boundary's (10c or 12c): c = 2**62 // 5 skips the two levels
        with two vertices below, c = 2**62 // 11 none."""
        from currentlab.complexes import EuclideanMetric, GeometricComplex
        from currentlab.currents import SimplicialCurrent

        coords = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.1), (0.3, 1.0, 0.2), (0.2, 0.3, 1.0)]
        C = GeometricComplex.from_top_simplices(EuclideanMetric(coords), [(0, 1, 2, 3)])
        P = SimplicialCurrent.from_arrays(C, 3, [0], [2**62 // divisor])
        fns, grids = [coordinate_function(C, 0)], [np.array([0.1, 0.25, 0.28, 0.6, 0.9])]
        got, skipped = _tensor_eval(P, fns, grids, fill_value_of_boundary, cycle=True)
        want, want_count = tensor_eval_oracle(P, fns, grids, lambda cur: fill_value_of_boundary(boundary(cur)))
        assert np.array_equal(got, want) and skipped == want_count == want_skipped

    def test_second_axis_keeps_every_level_its_prefix_keeps(self):
        """After the d(ball) first axis the second skips no level, as the
        oracle's cut of the tetrahedron's slice does: c = 2**62 // 7 at a
        level with two vertices below gives 6c < 2**62 on the first axis
        and at most 6c on the second, though the slice's boundary crosses
        the second level on four edges (8c)."""
        from currentlab.complexes import EuclideanMetric, GeometricComplex
        from currentlab.currents import SimplicialCurrent

        coords = [(0.38, -0.22, -0.73), (0.44, 0.05, -0.38), (-0.03, 0.78, 0.87), (-0.28, 0.14, -0.36), (0.19, -0.32, -0.22)]
        C = GeometricComplex.from_top_simplices(EuclideanMetric(coords), [(0, 1, 2, 3)])
        P = SimplicialCurrent.from_arrays(C, 3, [0], [2**62 // 7])
        fns = [coordinate_function(C, 0), distance_function(C, 4)]
        grids = [np.array([0.0, 0.32]), np.array([0.3, 0.5, 0.7])]
        leaf = lambda B: h_min_distance(B, 1e-9)  # noqa: E731
        got, skipped = _tensor_eval(P, fns, grids, leaf, cycle=True)
        want, want_skipped = tensor_eval_oracle(P, fns, grids, lambda cur: leaf(_leaf_cycle(boundary(cur))))
        assert np.array_equal(got, want) and skipped == want_skipped == 0
        assert got[1, 1] > 0

    def test_last_axis_snaps_on_the_cut_points_of_the_ball_star(self):
        """The last axis snaps on g at the cut points of the ball's crossing
        star, which the first axis no longer cuts: a level at g's value on
        a cut point inside the ball is snapped as the star's refinement
        snaps it, though no cut point of the ball's boundary is near it."""
        T, p, r, ctx = _torus_tetra_ball()
        sphere = ctx.sphere_vertices()
        f, g = (distance_function(ctx.complex, w) for w in (sphere[0], sphere[len(sphere) // 3]))
        s = r
        star = slice_current(level_star(ctx.current, f.values, s, True), f, s)
        outer = slice_current(level_star(ctx.boundary, f.values, s, True), f, s)
        inner, on_cycle = star.refinement.transfer_function(g).values, outer.refinement.transfer_function(g).values
        lo, hi = np.sort(on_cycle[outer.current.support_vertices()])[[0, -1]]
        hits = [
            v for v in inner[ctx.complex.n_vertices:].tolist()
            if lo < v < hi and snap_level(inner, v)[1] and not snap_level(on_cycle, v)[1]
        ]
        assert hits
        grids = [np.array([s]), np.array([hits[len(hits) // 2]])]
        leaf = lambda B: h_min_distance(B, 1e-9 * r)  # noqa: E731
        got, _ = _tensor_eval(ctx.current, [f, g], grids, leaf, cycle=True)
        want, _ = tensor_eval_oracle(ctx.current, [f, g], grids, lambda cur: leaf(PointCycle.from_chain(boundary(cur))))
        assert np.array_equal(got, want) and got[0, 0] > 0

    def test_torus_tetra_operation_cuts_no_ball(self, monkeypatch):
        """The 5 levels of the first witness on the ball's boundary, in one
        pass: the ball is read off its level set and the second witness's
        levels read cut points, so 1 cut, not 31."""
        import currentlab.slicing as slicing

        T, p, r, _ = _torus_tetra_ball()
        cuts, original = [], slicing._refine

        def counting(sources, *args, **kwargs):
            cuts.append(len(sources))
            return original(sources, *args, **kwargs)

        monkeypatch.setattr(slicing, "_refine", counting)
        rep = tetra_check(T, p, r, C=0.9 * C_E3_BAND_INTEGRAL, beta=0.5, samples=5, candidates=1)
        assert rep.integral_passed
        assert cuts == [5]

    def test_torus_tetra_operation_takes_no_boundary(self, monkeypatch):
        """The ball's boundary is read off its level set, and the first axis
        slices it: no prefix takes a boundary, and nothing builds a support
        closure."""
        import currentlab.slicedfill as slicedfill
        import currentlab.slicing as slicing

        T, p, r, _ = _torus_tetra_ball()
        taken, closures = [], []
        for module, name, seen in [(slicedfill, "boundary", taken), (slicedfill, "support_closure", closures),
                                   (slicing, "support_closure", closures)]:
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda current, _o=original, _s=seen: _s.append(current.dim) or _o(current))
        rep = tetra_check(T, p, r, C=0.9 * C_E3_BAND_INTEGRAL, beta=0.5, samples=5, candidates=1)
        assert rep.integral_passed and taken == [] and closures == []


def _matrix_disk_ball():
    """A disk whose metric is the Euclidean distance matrix of its vertices,
    and its ball about an off-centre vertex."""
    from currentlab.complexes import GeometricComplex, MatrixMetric
    from currentlab.currents import SimplicialCurrent

    C, T = disk_mesh(h=0.15)
    pts = C.coords()
    Cm = GeometricComplex(MatrixMetric(np.linalg.norm(pts[:, None] - pts[None], axis=-1)), {k: C.simplex_array(k) for k in C.dims})
    Tm = SimplicialCurrent.from_arrays(Cm, 2, T.idx, T.coeff)
    return ball_context(Tm, nearest_vertex(C, (0.2, 0.1)), 0.5)


def _witness_axes(ctx, count, grid, at=(0, 3)):
    """The distance functions of `count` discrete-sphere vertices and `grid`
    levels over each one's range on the ball."""
    sphere = ctx.sphere_vertices()
    fns = [distance_function(ctx.complex, sphere[len(sphere) * j // at[1] + at[0]]) for j in range(count)]
    return fns, [np.linspace(*ctx.support_range(f), grid) for f in fns]


def _cycle_case(name):
    """(ball context, slicing functions, level grids) of each case."""
    if name == "sphere_k1":
        ctx = ball_context(sphere_mesh(20, 40)[1], 37, 1.1)
        return (ctx, *_witness_axes(ctx, 1, 9, at=(5, 1)))
    if name == "matrix_disk_k1":
        ctx = _matrix_disk_ball()
        return (ctx, *_witness_axes(ctx, 1, 7))
    if name.startswith("box"):
        C, T = euclidean_box_mesh(0.65, 6)
        ctx = ball_context(T, nearest_vertex(C, (0.0, 0.0, 0.0)), 0.5)
        return (ctx, *_witness_axes(ctx, int(name[-1]), 3))
    if name == "torus_tetra_k2":
        ctx = _torus_tetra_ball()[3]
        return (ctx, *_witness_axes(ctx, 2, 5))
    C, T = disk_mesh(h=0.15)  # k = 0: the leaf reads the ball's own boundary
    return ball_context(T, nearest_vertex(C, (0.2, 0.1)), 0.5), [], []


def _leaf_cycle(B):
    """The cycle B as a cycle leaf is handed it: a 0-chain as its points."""
    return PointCycle.from_chain(B) if B.dim == 0 else B


class TestCycleLeaves:
    """A cycle leaf is handed -<dT, f, t> at the last axis (or dT with no
    axes) and reads, bit for bit, what it read as a leaf of d<T, f, t>."""

    @pytest.mark.parametrize(
        "case, leaf",
        [("sphere_k1", "fill"), ("sphere_k1", "h"), ("matrix_disk_k1", "fill"), ("matrix_disk_k1", "h"),
         ("box_k1", "fill"), ("box_k2", "fill"), ("box_k2", "h"), ("torus_tetra_k2", "fill"),
         ("torus_tetra_k2", "h"), ("disk_k0", "fill")],
    )
    def test_cycle_leaf_equals_the_leaf_of_the_slice_boundary(self, case, leaf):
        ctx, fns, grids = _cycle_case(case)
        read = {"fill": fill_value_of_boundary, "h": lambda B: h_min_distance(B, POINT_MERGE_REL * ctx.radius)}[leaf]
        got, skipped = _tensor_eval(ctx.current, fns, grids, read, cycle=True)
        want, want_skipped = _tensor_eval(ctx.current, fns, grids, lambda S: read(_leaf_cycle(boundary(S))), cycle=False)
        assert got.tobytes() == want.tobytes() and skipped == want_skipped == 0
        assert (got > 0).any()


class TestSfK:
    def test_k0_is_ball_filling(self):
        C, T = disk_mesh(h=0.1)
        rep = sf_k(T, 0, 0.5, 0)
        assert rep.integral == pytest.approx(math.pi * 0.25, rel=0.05)

    def test_disk_k1_matches_chord_oracle(self):
        # witness on the bounding circle: the slice boundary is the pair of
        # circle-circle intersection points, whose chord is
        # h(t) = 2 r sin(2 arcsin(t / 2r)), so the integral over t in [0, 2r]
        # is 8 r^2 / 3 (substitute u = t / 2r).  All witnesses on the circle
        # give the same value, so the search is orientation-independent.
        C, T = disk_mesh(h=0.1)
        r = 0.8
        rep = sf_k(T, 0, r, 1, candidates=4, grid=24)
        oracle = 8 * r**2 / 3
        assert rep.integral == pytest.approx(oracle, rel=0.05)
        # bounded by the ball mass (area pi r^2), with room to spare
        assert rep.integral <= math.pi * r**2

    def test_budget_monotone(self):
        C, T = disk_mesh(h=0.12)
        small = sf_k(T, 0, 0.7, 1, candidates=2, grid=16)
        large = sf_k(T, 0, 0.7, 1, candidates=6, grid=16)
        assert large.integral >= small.integral - 1e-12

    def test_empty_sphere_warns(self):
        C, T = disk_mesh(h=0.3)
        rep = sf_k(T, 0, 5.0, 1)  # ball swallows everything; sphere empty
        assert rep.integral == 0.0
        assert any("empty" in w for w in rep.warnings)

    def test_sliced_fill_default_witness_is_the_one_candidate_search(self):
        """Without witnesses or functions, sliced_fill takes the first vertex
        of the discrete sphere; witnesses=[] is the box with no axes."""
        C, T = disk_mesh(h=0.25)
        ctx = ball_context(T, 0, 0.5)
        default = sliced_fill(T, 0, 0.5, grid=9)
        assert default.witnesses == (ctx.sphere_vertices()[0],) == (C.n_vertices,)
        assert default.to_json() == sf_k(T, 0, 0.5, 1, candidates=1, grid=9).to_json()
        assert default.to_json() == sliced_fill(T, 0, 0.5, witnesses=list(default.witnesses), grid=9).to_json()
        box = sliced_fill(T, 0, 0.5, witnesses=[], grid=9)
        assert box.witnesses == () and box.grid_axes == []
        assert box.to_json() == sf_k(T, 0, 0.5, 0, grid=9).to_json()


class TestTetra:
    def test_euclidean_integral_property(self, box_ball):
        C, T, p, _ = box_ball
        rep = tetra_check(T, p, 0.5, C=0.9 * C_E3_BAND_INTEGRAL, beta=0.5, samples=5, candidates=4)
        assert rep.integral_passed
        assert rep.integral == pytest.approx(C_E3_BAND_INTEGRAL * 0.5**3, rel=0.08)
        # the beta = 1/2 band contains empty configurations even in flat
        # 3-space, so the pointwise flag cannot hold there
        assert not rep.passed
        assert (rep.h_values == 0).sum() > 0
        assert rep.ball_mass >= rep.required_integral

    def test_euclidean_pointwise_property_beta03(self, box_ball):
        C, T, p, _ = box_ball
        rep = tetra_check(T, p, 0.5, C=0.85 * C_E3_POINTWISE_BETA03, beta=0.3, samples=5, candidates=4)
        assert rep.passed
        assert rep.integral_passed
        assert rep.h_values.min() >= 0.85 * C_E3_POINTWISE_BETA03 * 0.5

    def test_scale_covariance(self):
        # h scales linearly with the metric
        vals = {}
        for lam in (1.0, 2.0):
            C, T = euclidean_box_mesh(0.65 * lam, 8)
            p = nearest_vertex(C, (0.0, 0.0, 0.0))
            r = 0.5 * lam
            ctx = ball_context(T, p, r)
            coords = ctx.complex.coords()
            sph = ctx.sphere_vertices()
            w1 = min(sph, key=lambda v: np.linalg.norm(coords[v] - np.array([r, 0, 0])))
            w2 = min(
                sph,
                key=lambda v: np.linalg.norm(coords[v] - np.array([r / 2, r * math.sqrt(3) / 2, 0])),
            )
            vals[lam] = h_at(ctx, [r, r], [w1, w2])
        assert vals[2.0] == pytest.approx(2.0 * vals[1.0], rel=0.02)

    def test_invalid_parameters(self):
        C, T = disk_mesh(h=0.3)
        from currentlab.metricspace import ArgumentError

        with pytest.raises(ArgumentError):
            tetra_check(T, 0, 0.5, C=0.0, beta=0.5)
        with pytest.raises(ArgumentError):
            tetra_check(T, 0, 0.5, C=0.1, beta=1.5)


@pytest.mark.slow
class TestThinTorusCollapse:
    def test_large_radius_empties_intersections(self):
        eps = 0.4
        r = 2 * eps
        C, T = torus_patch_mesh(eps, half_width=1.3 * r, cells_per_axis=12)
        p = nearest_vertex(C, (0.0, 0.0, 0.0))
        rep = tetra_check(T, p, r, C=0.9 * C_E3_BAND_INTEGRAL, beta=0.5, samples=5, candidates=4)
        assert not rep.passed
        assert not rep.integral_passed
        empty_fraction = (rep.h_values == 0).mean()
        assert empty_fraction >= 0.5
        assert rep.integral <= 0.15 * C_E3_BAND_INTEGRAL * r**3
