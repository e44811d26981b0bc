import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from currentlab.complexes import (
    UNKNOWN_VOLUME,
    EuclideanMetric,
    GeometricComplex,
    MatrixMetric,
    PLFunction,
    SimplexLists,
    coordinate_function,
    distance_function,
    simplex_volumes,
)
from currentlab.currents import SimplicialCurrent, boundary, mass, push_forward
from currentlab.fillvol import boundary_matrix
from currentlab.metricspace import ArgumentError, InvariantError
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
from currentlab.slicedfill import _tensor_eval, ball_context
from currentlab.slicing import (
    SNAP_REL,
    annulus_mass,
    ball,
    coarea_profile,
    point_slices,
    restrict_sublevel,
    slice_current,
    slice_levels,
    snap_level,
    sphere,
    subdivide_at_level,
    support_closure,
    _split_pieces,
)

from oracles import (
    barycenter_values,
    boundary_oracle,
    children_dict,
    cut_edge_triples,
    face_index_oracle,
    level_star,
    signature,
    slice_oracle,
    snap_level_oracle,
    split_pieces_oracle,
    subdivide_oracle,
    support_closure_oracle,
    support_simplices,
    transfer_oracle,
    two_cut_annulus_mass,
)


def random_mesh_chain(rng):
    nx, ny = rng.integers(1, 4), rng.integers(1, 4)
    C, T = grid_mesh(int(nx), int(ny))
    coeffs = {i: int(rng.integers(-2, 3)) for i in T.coeffs if rng.random() < 0.8}
    return SimplicialCurrent(C, 2, coeffs)


def random_vertex_function(rng, C):
    return PLFunction(C, rng.normal(size=C.n_vertices))


def kuhn_mesh(cells, seed, jitter=0.1):
    """Kuhn triangulation of a box of unit 4-cubes, vertices jittered by up
    to `jitter` per coordinate: one 4-simplex per cube and axis order, and
    the 4-chain of all of them oriented by their coordinate determinants."""
    shape = tuple(c + 1 for c in cells)
    lattice = np.array(list(itertools.product(*map(range, shape))), dtype=float)
    pts = lattice + np.random.default_rng(seed).uniform(-jitter, jitter, size=lattice.shape)
    tops = []
    for corner in itertools.product(*map(range, cells)):
        for axes in itertools.permutations(range(4)):
            path = np.array([corner] * 5)
            for step, axis in enumerate(axes):
                path[step + 1 :, axis] += 1
            tops.append(tuple(np.ravel_multi_index(path.T, shape).tolist()))
    C = GeometricComplex.from_top_simplices(EuclideanMetric(pts), tops)
    corners = pts[C.simplex_array(4)]
    orient = np.sign(np.linalg.det(corners[:, 1:] - corners[:, :1])).astype(np.int64)
    return C, SimplicialCurrent.from_arrays(C, 4, np.arange(C.count(4)), orient)


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
    assert signature(left) == signature(right)


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
    below = restrict_sublevel(T, f, s)
    ref = subdivide_at_level(T.complex, f.values, s)
    above = ref.transfer_current(T).restricted(~ref.below(T.dim))
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
        assert not len(ref.cut_edges)

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
        keep = ref.below(2)
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
                for idx, entries in children_dict(ref.children[k]).items():
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

    def test_four_simplices_split_like_the_oracle(self):
        """A jittered Kuhn 4-cube splits exactly like the one-simplex-at-a-time
        reference; the refinement is a valid complex whose pieces fill their
        parents, and transfer keeps the mass and commutes with boundary at
        every level, the snapped one included."""
        C, T = kuhn_mesh((1, 1, 1, 1), seed=2)
        values = distance_function(C, 3).values
        for level in _oracle_levels(C, values):
            ref = subdivide_at_level(C, values, level)
            _assert_same_refinement(ref, subdivide_oracle(C, values, level))
            assert len(ref.cut_edges)
            ref.complex.validate()
            assert not [w for w in ref.warnings if "volume fraction" in w]
            T2 = ref.transfer_current(T)
            assert mass(T2) == pytest.approx(mass(T), rel=1e-9)
            assert (boundary(T2) - ref.transfer_current(boundary(T))).is_zero()


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
    # z meshed periodically: cut points of edges across the seam are
    # interpolated in the chart of the edge's first vertex
    seam, _ = torus_patch_mesh(0.2, 0.3, 4)
    kuhn, _ = kuhn_mesh((2, 2, 2, 1), seed=0)
    cases = [
        ("disk", disk, distance_function(disk, nearest_vertex(disk, (0.3, -0.2))).values),
        ("sphere", sph, distance_function(sph, 37).values),
        ("torus", tor, distance_function(tor, nearest_vertex(tor, (0.05, 0.1, 0.0))).values),
        ("matrix", mat, distance_function(mat, 7).values),
        ("ball_closure", closure, np.random.default_rng(5).normal(size=closure.n_vertices)),
        ("periodic_torus", seam, distance_function(seam, nearest_vertex(seam, (0.05, -0.1, 0.0))).values),
        ("kuhn_4d", kuhn, np.random.default_rng(3).normal(size=kuhn.n_vertices)),
    ]
    return [pytest.param(C, values, id=name) for name, C, values in cases]


def _oracle_levels(C, values):
    """Seeded levels, then a vertex value, which must be snapped off."""
    rng = np.random.default_rng([11, len(values)])
    used = values[np.unique(C.simplex_array(C.top_dim))]
    return list(rng.uniform(used.min(), used.max(), size=4)) + [float(np.sort(used)[len(used) // 2])]


def _below_patterns(C, values, level):
    """(k, below flags) of every crossing simplex of C at the snapped level."""
    below = values < snap_level(values, level)[0]
    found = set()
    for k in C.dims:
        side = below[C.simplex_array(k)]
        found.update((k, tuple(row)) for row in side[side.any(axis=1) & ~side.all(axis=1)].tolist())
    return found


def _assert_same_refinement(ref, want):
    assert ref.level == want.level and ref.snapped == want.snapped
    assert np.array_equal(ref.values, want.values)
    assert ref.n_old_vertices == want.n_old_vertices
    assert cut_edge_triples(ref) == cut_edge_triples(want)
    assert ref.children.keys() == want.children.keys()
    for k in want.children:
        assert children_dict(ref.children[k]) == children_dict(want.children[k])
    assert ref.dropped == want.dropped
    assert ref.warnings == want.warnings
    assert ref.complex.simplices == want.complex.simplices
    assert np.array_equal(_metric_state(ref.complex.metric), _metric_state(want.complex.metric))
    for k in want.complex.dims:
        assert np.array_equal(ref.complex.masses(k), want.complex.masses(k))


@pytest.mark.parametrize("C, values", _subdivide_cases())
def test_subdivide_matches_oracle(C, values):
    """Crossing-only batched subdivision reproduces the one-simplex-at-a-time
    reference bit for bit, the snapped level included."""
    C.validate()
    levels = _oracle_levels(C, values)
    for level in levels:
        _assert_same_refinement(subdivide_at_level(C, values, level), subdivide_oracle(C, values, level))
    assert any(subdivide_at_level(C, values, lv).snapped for lv in levels)


def _assert_star_slice_is_full_slice(T, f, s):
    """The slice of T's crossing star at s equals T's slice on the full cut:
    vertex rows (cut ids included), coefficients, masses, and the cut
    points' function values and metric."""
    star, full = slice_current(level_star(T, f.values, s, crossing=True), f, s), slice_current(T, f, s)
    a, b = star.current, full.current
    assert star.refinement.level == full.refinement.level and a.dim == b.dim
    assert np.array_equal(a.complex.simplex_array(a.dim)[a.idx], b.complex.simplex_array(b.dim)[b.idx])
    assert np.array_equal(a.coeff, b.coeff)
    assert np.array_equal(a.complex.masses(a.dim)[a.idx], b.complex.masses(b.dim)[b.idx])
    assert mass(a) == mass(b)
    assert np.array_equal(star.refinement.values, full.refinement.values)
    assert np.array_equal(star.refinement.cut_edges, full.refinement.cut_edges)
    assert np.array_equal(star.refinement.cut_t, full.refinement.cut_t)
    assert np.array_equal(_metric_state(a.complex.metric), _metric_state(b.complex.metric))
    return star, full


@pytest.mark.parametrize("C, values", _subdivide_cases())
def test_star_slice_equals_full_cut_slice(C, values):
    """Slicing only the simplices that cross the level gives the full cut's
    slice bit for bit, at seeded levels and at a snapped vertex value."""
    k = C.top_dim
    rng = np.random.default_rng([7, C.count(k)])
    coeff = rng.integers(1, 4, size=C.count(k)) * rng.choice([-1, 1], size=C.count(k))
    T = SimplicialCurrent.from_arrays(C, k, np.arange(C.count(k)), coeff)
    f = PLFunction(C, values)
    for level in _oracle_levels(C, values):
        star, full = _assert_star_slice_is_full_slice(T, f, level)
        assert star.refinement.source.count(k) < C.count(k)


def test_star_slice_equals_full_cut_slice_on_a_sphere_ball():
    """On a geodesic ball of a sphere (the sliced-fill setting), the star
    slice by a distance function equals the full-cut slice at every level
    of a grid spanning the ball."""
    C, T = sphere_mesh(20, 40)
    B = support_closure(ball(T, 37, 1.1))
    f = distance_function(B.complex, 412)
    lo, hi = f.values[B.support_vertices()].min(), f.values[B.support_vertices()].max()
    slices = [_assert_star_slice_is_full_slice(B, f, float(s))[1].current for s in np.linspace(lo, hi, 9)]
    assert sum(not S.is_zero() for S in slices) >= 7


def test_level_star_keeps_below_simplices_for_restriction():
    """`ball_context` cuts the closure of the simplices with a vertex below
    the snapped level, and its ball is `ball`'s sublevel chain."""
    C, T = disk_mesh(h=0.2)
    p = nearest_vertex(C, (0.2, 0.1))
    f = distance_function(C, p)
    ctx = ball_context(T, p, 0.5)
    below = (f.values < snap_level(f.values, 0.5)[0])[C.simplex_array(2)].any(axis=1)
    assert np.array_equal(ctx.refinement.source.simplex_array(2), C.simplex_array(2)[below])
    got, want = ctx.current, ball(T, p, 0.5)
    assert np.array_equal(got.complex.simplex_array(2)[got.idx], want.complex.simplex_array(2)[want.idx])
    assert np.array_equal(got.coeff, want.coeff)
    assert mass(got) == mass(want)


def _assert_same_complex(A, B):
    assert A.dims == B.dims
    for k in B.dims:
        assert np.array_equal(A.simplex_array(k), B.simplex_array(k)), k
        assert np.array_equal(A.masses(k), B.masses(k)), k
        if k:
            assert np.array_equal(A.face_index(k), B.face_index(k)), k
    assert np.array_equal(_metric_state(A.metric), _metric_state(B.metric))


def _assert_same_slice(got, want):
    """Two SliceResults agree field for field: the slice, its complex and
    cut function, and every field of the refinement, its source included."""
    assert got.refinement.level == want.refinement.level and got.warnings == want.warnings
    a, b = got.current, want.current
    assert a.dim == b.dim and np.array_equal(a.idx, b.idx) and np.array_equal(a.coeff, b.coeff)
    _assert_same_complex(got.complex, want.complex)
    r, q = got.refinement, want.refinement
    assert r.complex is got.complex
    _assert_same_complex(r.source, q.source)
    assert (r.level, r.snapped, r.n_old_vertices, r.dropped, r.warnings) == (
        q.level, q.snapped, q.n_old_vertices, q.dropped, q.warnings
    )
    for name in ("values", "cut_edges", "cut_t"):
        assert np.array_equal(getattr(r, name), getattr(q, name)), name
    assert r.children.keys() == q.children.keys()
    for k, table in q.children.items():
        for name in ("ptr", "child", "sign"):
            assert np.array_equal(getattr(r.children[k], name), getattr(table, name)), (k, name)


def _assert_levels_match_stars(T, f, levels):
    """slice_levels gives, level by level, what slicing that level's
    crossing star alone gives, or the same ArgumentError."""
    got = slice_levels(T, f, levels)
    assert len(got) == len(levels)
    for s, result in zip(levels, got):
        try:
            want = slice_current(level_star(T, f.values, s, crossing=True), f, s)
        except ArgumentError as exc:
            assert isinstance(result, ArgumentError) and str(result) == str(exc)
            continue
        _assert_same_slice(result, want)
    return got


class TestSliceLevels:
    def test_sphere_ball(self):
        C, T = sphere_mesh(20, 40)
        B = support_closure(ball(T, 37, 1.1))
        f = distance_function(B.complex, 412)
        got = _assert_levels_match_stars(B, f, list(np.linspace(*f.range(B.support_vertices()), 9)))
        assert sum(not r.current.is_zero() for r in got) >= 7

    def test_torus_patch_nested(self):
        """A 3-chain cut at 5 levels, then each 2-d slice at 5 levels of a
        second function carried onto its refinement."""
        C, T = torus_patch_mesh(0.4, 0.3, 4)
        f = distance_function(C, nearest_vertex(C, (0.05, 0.1, 0.0)))
        g = distance_function(C, nearest_vertex(C, (-0.1, 0.0, 0.1)))
        nested = 0
        for result in _assert_levels_match_stars(T, f, list(np.linspace(*f.range(), 7)[1:-1])):
            g2 = result.refinement.transfer_function(g)
            verts = result.current.support_vertices()
            if verts:
                _assert_levels_match_stars(result.current, g2, list(np.linspace(*g2.range(verts), 5)))
                nested += 1
        assert nested == 5

    def test_disk_level_that_snaps(self):
        C, T = disk_mesh(h=0.2)
        f = distance_function(C, nearest_vertex(C, (0.3, -0.2)))
        vertex_value = float(np.sort(f.values)[len(f.values) // 2])
        got = _assert_levels_match_stars(T, f, [0.3, vertex_value, 0.9])
        assert [r.refinement.snapped for r in got] == [False, True, False]
        assert got[1].warnings and "snapped" in got[1].warnings[0]

    def test_level_outside_the_range_is_an_empty_slice(self):
        C, T = disk_mesh(h=0.2)
        f = coordinate_function(C, 0)
        got = _assert_levels_match_stars(T, f, [0.0, 5.0])
        assert got[1].current.is_zero() and not got[0].current.is_zero()
        assert got[1].refinement.source.dims == C.dims and got[1].refinement.source.count(2) == 0
        assert all(r.current.is_zero() for r in _assert_levels_match_stars(SimplicialCurrent(C, 2, {}), f, [0.0]))

    def test_a_raising_level_skips_only_itself(self):
        C, T = disk_mesh(h=0.2)
        f = coordinate_function(C, 1)
        got = _assert_levels_match_stars(T, f, [-0.4, math.nan, 0.1, math.inf])
        assert [isinstance(r, ArgumentError) for r in got] == [False, True, False, True]
        assert "finite" in str(got[1])

    @staticmethod
    def _signed_disk_chain():
        """A +-1 chain on every triangle of a disk, a distance function and
        11 levels across its range."""
        C, _ = disk_mesh(h=0.25)
        n = C.count(2)
        T1 = SimplicialCurrent.from_arrays(C, 2, np.arange(n), np.random.default_rng(1).choice([-1, 1], size=n))
        f = distance_function(C, nearest_vertex(C, (0.3, -0.2)))
        return T1, f, list(np.linspace(*f.range(), 13)[1:-1])

    def test_coefficient_overflow_skips_only_its_level(self):
        """A chain whose transfer to a level's refinement sums to 2**62 or
        more raises at that level, as the level's own cut does, and nowhere
        else: coefficient c on the triangles crossing one level, with c
        times their count in [2**62 / 3, 2**62 - n), is a chain, but each of
        them splits in 3 pieces there.  Here c times the count is about 2**61,
        clear of float rounding in the |coefficient| sums."""
        T1, f, levels = self._signed_disk_chain()
        C, n = T1.complex, len(T1.idx)
        vals = f.values[C.simplex_array(2)]
        cross = (vals.min(axis=1) < levels[5]) & (vals.max(axis=1) > levels[5])
        c = 2**61 // int(cross.sum())
        T = SimplicialCurrent.from_arrays(C, 2, np.arange(n), np.where(cross, c, T1.coeff))
        got = _assert_levels_match_stars(T, f, levels)
        raised = [isinstance(r, ArgumentError) for r in got]
        assert any(raised) and not all(raised)

    @pytest.mark.parametrize("b, raises", [(2**60 - 1, False), (2**60, True)])
    def test_level_total_is_checked_exactly(self, b, raises):
        """T on a level's refinement may carry |coefficients| summing to
        2**62 - 1 but not 2**62, compared as integers: triangle (0, 1, 3)
        crosses the level and splits in 3 pieces of coefficient a = 2**60,
        triangle (0, 2, 3) lies below it with coefficient b."""
        C, _ = grid_mesh(1, 1)
        T = SimplicialCurrent.from_arrays(C, 2, [0, 1], [2**60, b])
        f = PLFunction(C, np.array([0.0, 1.0, 0.0, 0.0]))
        if raises:
            with pytest.raises(ArgumentError, match=r"2\*\*62"):
                slice_current(T, f, 0.5)
        else:
            S = slice_current(T, f, 0.5).current
            assert np.abs(S.coeff).tolist() == [2**60]

    def test_slices_are_linear_up_to_the_coefficient_limit(self):
        """c times a +-1 chain, with c = 2**62 // (n + 1), slices to c times
        its slices at every level: each level's refinement carries less than
        2**62, so no level raises."""
        T1, f, levels = self._signed_disk_chain()
        c = 2**62 // (len(T1.idx) + 1)
        T = SimplicialCurrent.from_arrays(T1.complex, 2, T1.idx, c * T1.coeff)
        got, unit = slice_levels(T, f, levels), slice_levels(T1, f, levels)
        assert len(got) == len(unit) == 11
        assert not any(isinstance(r, ArgumentError) for r in got + unit)
        for a, b in zip(got, unit):
            assert np.array_equal(a.current.idx, b.current.idx)
            assert np.array_equal(a.current.coeff, c * b.current.coeff)

    def test_zero_dimensional_current_raises_at_every_level(self):
        C, T = disk_mesh(h=0.25)
        P = SimplicialCurrent(C, 0, {0: 1})
        got = slice_levels(P, coordinate_function(C, 0), [0.0, 0.5])
        assert all(isinstance(r, ArgumentError) for r in got)


@pytest.mark.parametrize("C, values", _subdivide_cases())
def test_slice_matches_the_boundary_formula_oracle(C, values):
    """The slice at a level is d(T below) - (dT) below on the refinement,
    as the public boundary operator computes it, at seeded levels and at a
    snapped vertex value."""
    k = C.top_dim
    rng = np.random.default_rng([3, C.count(k)])
    coeff = rng.integers(1, 4, size=C.count(k)) * rng.choice([-1, 1], size=C.count(k))
    T = SimplicialCurrent.from_arrays(C, k, np.arange(C.count(k)), coeff)
    f = PLFunction(C, values)
    for level in _oracle_levels(C, values):
        got, want = slice_current(T, f, level).current, slice_oracle(T, f, level)
        assert got.dim == want.dim and np.array_equal(got.idx, want.idx) and np.array_equal(got.coeff, want.coeff)


def _cut_point_rows(S, ref):
    """The rows of S's simplices with each vertex as the point it is: an old
    vertex v as the edge (v, v) at parameter 0, a cut point as its cut edge
    and parameter; and the squared distances among all those vertices."""
    rows = S.complex.simplex_array(S.dim)[S.idx]
    n = ref.n_old_vertices
    cut = rows >= n
    at = np.where(cut, rows - n, 0)
    edges = np.where(cut[..., None], ref.cut_edges[at], rows[..., None])
    return edges, np.where(cut, ref.cut_t[at], 0.0), S.complex.metric.pairwise_sq(rows.ravel())


@pytest.mark.parametrize("C, values", _subdivide_cases())
def test_slice_of_minus_the_boundary_is_the_boundary_of_the_slice(C, values):
    """d<T, f, s> = -<dT, f, s>, the identity the cycle leaves read: cut on
    level stars, the two chains hold the same points (cut edges and
    parameters, and their distances), in the same order, with the same
    coefficients; cut on the whole complex, they are equal chains on equal
    complexes.  At seeded levels and at a snapped vertex value."""
    k = C.top_dim
    rng = np.random.default_rng([13, C.count(k)])
    coeff = rng.integers(1, 4, size=C.count(k)) * rng.choice([-1, 1], size=C.count(k))
    T = SimplicialCurrent.from_arrays(C, k, np.arange(C.count(k)), coeff)
    f = PLFunction(C, values)
    levels = _oracle_levels(C, values)
    slices, cycles = slice_levels(T, f, levels), slice_levels(-boundary(T), f, levels)
    for s, sl, cy in zip(levels, slices, cycles):
        want, got = boundary(sl.current), cy.current
        assert got.dim == want.dim == k - 2 and cy.refinement.level == sl.refinement.level
        assert np.array_equal(got.coeff, want.coeff)
        for a, b in zip(_cut_point_rows(got, cy.refinement), _cut_point_rows(want, sl.refinement)):
            assert np.array_equal(a, b)
        whole, whole_cycle = slice_current(T, f, s), slice_current(-boundary(T), f, s)
        want, got = boundary(whole.current), whole_cycle.current
        _assert_same_complex(got.complex, want.complex)
        assert np.array_equal(got.idx, want.idx) and np.array_equal(got.coeff, want.coeff)
    assert any(not boundary(sl.current).is_zero() for sl in slices)


def _transfer_matrix(ref, k):
    """The transfer of k-chains as a sparse integer matrix, new x old."""
    table = ref.children[k]
    parent = np.repeat(np.arange(len(table.ptr) - 1), np.diff(table.ptr))
    return coo_matrix((table.sign, (table.child, parent)), shape=(ref.complex.count(k), ref.source.count(k))).tocsr()


def _cut_determinants(ref, k):
    """The sign of every child of every k-simplex and its barycentric
    determinant in the parent at the actual cut (1 for an untouched simplex)."""
    table = ref.children[k]
    parents = ref.source.simplex_array(k)[np.repeat(np.arange(len(table.ptr) - 1), np.diff(table.ptr))]
    pieces = ref.complex.simplex_array(k)[table.child]
    ends, t = ref.cut_edges, ref.cut_t
    is_cut = pieces >= ref.n_old_vertices
    e = np.where(is_cut, pieces - ref.n_old_vertices, 0)
    a = np.where(is_cut, ends[e, 0], pieces)
    b = np.where(is_cut, ends[e, 1], -1)
    w = np.where(is_cut, t[e], 0.0)[:, :, None]
    # rows[n, j]: barycentric coordinates in the parent of vertex j of child
    # n; a cut point at t on edge (u, v) is (1 - t) u + t v
    rows = np.where(parents[:, None, :] == a[:, :, None], 1.0 - w, 0.0)
    rows += np.where(parents[:, None, :] == b[:, :, None], w, 0.0)
    return table.sign, np.linalg.det(rows)


@pytest.mark.parametrize("C, values", _subdivide_cases())
def test_transfer_is_a_chain_map_at_every_level(C, values):
    """Every piece is kept, so boundary and transfer commute on every
    j-simplex, j >= 1, at every level, the snapped one included."""
    for level in _oracle_levels(C, values):
        ref = subdivide_at_level(C, values, level)
        assert ref.dropped == 0
        for j in range(1, C.top_dim + 1):
            lhs = boundary_matrix(ref.complex, j) @ _transfer_matrix(ref, j)
            rhs = _transfer_matrix(ref, j - 1) @ boundary_matrix(C, j)
            assert (lhs != rhs).nnz == 0, (level, j)


@pytest.mark.parametrize("C, values", _subdivide_cases())
def test_template_signs_match_the_actual_cut(C, values):
    """A piece's template sign, taken at the midpoint cut, is the sign of its
    barycentric determinant at the actual cut wherever that determinant is
    not a rounding-level sliver (at a snapped level some are)."""
    compared = 0
    for level in _oracle_levels(C, values):
        ref = subdivide_at_level(C, values, level)
        for k in C.dims[1:]:
            sign, det = _cut_determinants(ref, k)
            clear = np.abs(det) >= 1e-12
            assert np.array_equal(sign[clear], np.sign(det[clear]).astype(sign.dtype))
            compared += int(clear.sum())
    assert compared > 0


def _refinements(C, values):
    """The refinement of C at each oracle level, each followed by its own
    refinement at the next level (values carried over by interpolation)."""
    levels = _oracle_levels(C, values)
    f = PLFunction(C, values)
    for a, b in zip(levels, levels[1:] + levels[:1]):
        ref = subdivide_at_level(C, values, a)
        yield ref
        yield subdivide_at_level(ref.complex, ref.transfer_function(f).values, b)


@pytest.mark.parametrize("C, values", _subdivide_cases())
def test_refined_face_index_matches_lookup(C, values):
    """The face index of a refined complex equals the whole-complex lookup
    in every dimension, on refinements of refinements too."""
    for ref in _refinements(C, values):
        for k in ref.complex.dims[1:]:
            assert np.array_equal(ref.complex.face_index(k), face_index_oracle(ref.complex, k)), k


def test_closure_face_index_matches_lookup():
    """The face index of a support closure, looked up on first read, equals
    the dict lookup: on the closures of a ball in a disk and of a ball in a
    sphere (both on refined complexes)."""
    disk, disk_T = disk_mesh(h=0.25)
    sph, sph_T = sphere_mesh(8, 16)
    for T, p, r in ((disk_T, nearest_vertex(disk, (0.2, 0.1)), 0.55), (sph_T, 37, 0.8)):
        closure = support_closure(ball(T, p, r)).complex
        assert closure.dims == [0, 1, 2]
        for k in (1, 2):
            assert np.array_equal(closure.face_index(k), face_index_oracle(closure, k)), k


def test_refinement_frees_its_source():
    """A refined complex holds no reference to the complex it was cut from:
    once only the refined complex is kept, the source is collected, and the
    refined complex still builds its face index and volumes."""
    C = disk_mesh(h=0.25)[0]
    values = distance_function(C, nearest_vertex(C, (0.3, -0.2))).values
    source = weakref.ref(C)
    child = subdivide_at_level(C, values, 0.4).complex
    del C
    gc.collect()
    assert source() is None
    for k in (1, 2):
        assert np.array_equal(child.face_index(k), face_index_oracle(child, k))
    assert child.masses(2).sum() == pytest.approx(disk_mesh(h=0.25)[0].masses(2).sum())


def _gathered_equal_fresh(C):
    """How many rows of C hold a gathered volume before any is read, after
    checking that every volume of C, gathered or computed on `masses`,
    equals a fresh computation from its metric bit for bit."""
    cached = [C.cached_volumes(k) for k in C.dims]
    gathered = sum(int((v != UNKNOWN_VOLUME).sum()) for v in cached if v is not None)
    for k in C.dims:
        assert np.array_equal(C.masses(k), simplex_volumes(C.metric, C.simplex_array(k))), k
    return gathered


def _read_all_volumes(C):
    for k in C.dims:
        C.masses(k)
    return C


class TestVolumesFollowRows:
    """A complex built from another one takes the volumes its source has
    cached for the rows they share, and those equal fresh ones bit for bit."""

    @pytest.mark.parametrize("C, values", _subdivide_cases())
    def test_refinements_gather_their_sources_volumes(self, C, values):
        """On every backend: a refinement of a complex whose volumes are
        read, then a refinement of that one (a grown metric's complex)."""
        f = PLFunction(_read_all_volumes(C), values)
        levels = _oracle_levels(C, values)
        for a, b in zip(levels, levels[1:] + levels[:1]):
            ref = subdivide_at_level(C, values, a)
            assert _gathered_equal_fresh(ref.complex) > 0
            again = subdivide_at_level(ref.complex, ref.transfer_function(f).values, b)
            assert _gathered_equal_fresh(again.complex) > 0

    @pytest.mark.parametrize("C, values", _subdivide_cases())
    def test_support_closures_gather_their_parents_volumes(self, C, values):
        """The closure of half a top-dimensional chain takes all its top
        volumes; that of the part below a level on the refinement takes the
        untouched rows' and computes the pieces'."""
        k = C.top_dim
        T = SimplicialCurrent.from_arrays(_read_all_volumes(C), k, np.arange(C.count(k)), np.ones(C.count(k), dtype=np.int64))
        half = support_closure(T.restricted(np.arange(C.count(k)) % 2 == 0)).complex
        assert _gathered_equal_fresh(half) == half.count(k)
        ref = subdivide_at_level(C, values, _oracle_levels(C, values)[0])
        below = support_closure(ref.transfer_current(T).restricted(ref.below(k))).complex
        assert 0 < _gathered_equal_fresh(below) < below.count(k)

    @pytest.mark.parametrize("case", ["disk", "sphere", "torus", "matrix"])
    def test_multi_level_slices_gather_their_volumes(self, case):
        """A multi-level whole cut gathers the volumes of T's complex on
        every level's refinement.  slice_levels cuts level stars, built
        fresh from T's crossing rows, all of which split: its refinements
        gather nothing, and compute every volume they read."""
        import currentlab.slicing as slicing

        (C, values), = [p.values for p in _subdivide_cases() if p.id == case]
        k = C.top_dim
        T = SimplicialCurrent.from_arrays(_read_all_volumes(C), k, np.arange(C.count(k)), np.ones(C.count(k), dtype=np.int64))
        f = PLFunction(C, values)
        levels = _oracle_levels(C, values)
        for result in slicing._slices(T, f, levels, star=False):
            assert _gathered_equal_fresh(result.refinement.complex) > 0
        for result in slice_levels(T, f, levels):
            assert _gathered_equal_fresh(result.refinement.complex) == 0

    def test_matched_balls_gather_the_joined_complex_volumes(self):
        from currentlab.convergence import joined_complex, matched_balls

        CA, TA = disk_mesh(h=0.25, radius=0.8)
        CB, TB = disk_mesh(h=0.2, radius=0.8)
        K, TA_K, TB_K, _, _ = joined_complex(CA, TA, CB, TB)
        pa, pb = nearest_vertex(CA, (0.05, 0.0)), nearest_vertex(CB, (0.05, 0.0)) + CA.n_vertices
        ball_a, ball_b = matched_balls(_read_all_volumes(K), TA_K, TB_K, pa, pb, 0.5)
        assert ball_a.complex is ball_b.complex
        assert _gathered_equal_fresh(ball_a.complex) > 0

    def test_ball_context_gathers_from_the_mesh(self):
        C, T = sphere_mesh(20, 40)
        ctx = ball_context(T, 37, 1.1)
        assert C.cached_volumes(2) is not None
        assert 0 < _gathered_equal_fresh(ctx.complex) < ctx.complex.count(2)

    def test_second_ball_computes_only_rows_with_a_cut_vertex(self, monkeypatch):
        """Once a ball on the mesh has been read, the mesh holds its volumes:
        the mass of the next ball sends the volume kernel only the pieces of
        split triangles, every one through a cut point."""
        import currentlab.complexes as complexes

        C, T = sphere_mesh(50, 100)
        mass(ball_context(T, 1 + 24 * 100 + 10, 1.0).current)
        sent, original = [], complexes.simplex_volumes

        def recording(metric, simplices):
            sent.append(np.asarray(simplices))
            return original(metric, simplices)

        monkeypatch.setattr(complexes, "simplex_volumes", recording)
        ctx = ball_context(T, 1 + 25 * 100 + 60, 1.2)
        total = mass(ctx.current)
        rows = ctx.complex.simplex_array(2)[ctx.current.idx]
        cut = (rows >= C.n_vertices).any(axis=1)
        assert len(sent) == 1 and (sent[0] >= C.n_vertices).any(axis=1).all()
        assert len(sent[0]) == cut.sum() < len(rows) / 4
        want = float(np.abs(ctx.current.coeff) @ original(ctx.complex.metric, ctx.complex.simplex_array(2))[ctx.current.idx])
        assert total == want


def test_template_checks_that_its_pieces_cover_the_simplex(monkeypatch):
    """A template whose pieces miss part of the simplex at the midpoint cut
    raises InvariantError instead of orienting what is left."""
    import currentlab.slicing as slicing

    split = slicing._split_pieces
    monkeypatch.setattr(slicing, "_split_pieces", lambda *args: (split(*args)[0], split(*args)[1][1:]))
    slicing._template.cache_clear()
    with pytest.raises(InvariantError, match="covers volume"):
        slicing._template(2, (True, False, False), (1, 0))


def test_oracle_cases_cover_every_split_template():
    """The oracle comparison splits simplices of all 2 + 6 + 14 + 30 below
    patterns of edges, triangles, tetrahedra and 4-simplices, so every piece
    template is checked against `_split_pieces` applied one simplex at a
    time."""
    hit = set()
    for case in _subdivide_cases():
        C, values = case.values
        for level in _oracle_levels(C, values):
            hit |= _below_patterns(C, values, level)
    for k, n_patterns in ((1, 2), (2, 6), (3, 14), (4, 30)):
        assert len({p for j, p in hit if j == k}) == n_patterns


def test_split_pieces_match_the_per_dimension_rule():
    """For every dimension k <= 3, below pattern and cut-point order, the one
    pulling rule cuts a crossing simplex into the same pieces as the quad
    and prism rules written out per dimension."""
    cases = 0
    for k in (1, 2, 3):
        edges = list(itertools.combinations(range(k + 1), 2))
        for pattern in itertools.product((True, False), repeat=k + 1):
            crossing = [(u, v) for u, v in edges if pattern[u] != pattern[v]]
            for order in itertools.permutations(range(k + 1, k + 1 + len(crossing))):
                if not crossing:
                    continue
                cut = dict(zip(crossing, order))
                got = _split_pieces(tuple(range(k + 1)), pattern, cut)
                want = split_pieces_oracle(tuple(range(k + 1)), pattern, cut)
                for g, w in zip(got, want):
                    assert sorted(map(sorted, g)) == sorted(map(sorted, w))
                cases += 1
    assert cases == 206


def test_subdivide_matches_oracle_on_unsorted_edge_list():
    """Cut points are numbered in the complex's edge order; with a shuffled
    edge list their order within a simplex is no longer lexicographic, and
    the split still matches the one-simplex-at-a-time reference."""
    C0, _ = torus_patch_mesh(0.4, 0.3, 3)
    rng = np.random.default_rng(17)
    lists = dict(C0.simplices)
    lists[1] = [lists[1][i] for i in rng.permutation(len(lists[1]))]
    C = GeometricComplex(C0.metric, lists)
    values = distance_function(C, 5).values
    for level in _oracle_levels(C, values):
        ref, want = subdivide_at_level(C, values, level), subdivide_oracle(C, values, level)
        assert cut_edge_triples(ref) == cut_edge_triples(want)
        assert {k: children_dict(t) for k, t in ref.children.items()} == {
            k: children_dict(t) for k, t in want.children.items()
        }
        assert ref.complex.simplices == want.complex.simplices
        for k in want.complex.dims:
            assert np.array_equal(ref.complex.masses(k), want.complex.masses(k))


@pytest.mark.parametrize("C, values", _subdivide_cases())
def test_subdivide_leaves_source_metric_unchanged(C, values):
    """The refined complex grows a new metric; the source's state is intact."""
    before = _metric_state(C.metric).copy()
    ref = subdivide_at_level(C, values, float(np.median(values)))
    assert ref.complex.metric is not C.metric
    assert np.array_equal(_metric_state(C.metric), before)
    assert ref.complex.n_vertices == C.n_vertices + len(ref.cut_edges)


def _rows(metric, ids):
    return np.array([metric.dist(i, ids) for i in ids]).reshape(len(ids), len(ids))


@pytest.mark.parametrize("C, values", _subdivide_cases() + [pytest.param(None, None, id="matrix_disk_ball")])
def test_point_slices_read_the_boundary_of_the_cut_slice(C, values):
    """The point pass on the 1-chain -dT reads, at every oracle level, the
    0-chain that cutting gives, bit for bit: the support, coefficients and
    distance rows of the slice of -dT on its crossing star, and the
    coefficients and distance rows of d<T, f, s> on T's crossing star (the
    slicing identity), for a 2-chain T on every metric backend."""
    if C is None:
        from test_slicedfill import _matrix_disk_ball

        ctx = _matrix_disk_ball()
        T, C = ctx.current, ctx.complex
        values = distance_function(C, ctx.sphere_vertices()[0]).values
    else:
        n = C.count(2)
        T = SimplicialCurrent.from_arrays(C, 2, np.arange(n), np.random.default_rng(n).integers(-3, 4, size=n))
    f, cycle = PLFunction(C, values), -boundary(T)
    levels = _oracle_levels(C, values)
    got = point_slices(cycle, f, levels)
    assert sum(len(pts.coeff) for pts in got) > 0
    for s, pts in zip(levels, got):
        sl = slice_current(level_star(cycle, values, s, True), f, s)
        ids = sl.complex.simplex_array(0)[sl.current.idx, 0]
        assert np.array_equal(ids, C.n_vertices + np.arange(len(pts.coeff)))
        assert np.array_equal(pts.coeff, sl.current.coeff)
        assert pts.space.dist.tobytes() == _rows(sl.complex.metric, ids).tobytes()
        want = slice_current(level_star(T, values, s, True), f, s)
        B = boundary(want.current)
        assert np.array_equal(pts.coeff, B.coeff)
        assert pts.space.dist.tobytes() == _rows(want.complex.metric, want.complex.simplex_array(0)[B.idx, 0]).tobytes()


def test_split_pieces_only_builds_templates(monkeypatch):
    """`_split_pieces` runs once per (dimension, pattern) template, not once
    per crossing simplex, the padded template tables once per tuple of
    templates, and the cut points come from one interpolation."""
    import currentlab.slicing as slicing

    C, _ = torus_patch_mesh(0.4, 0.3, 4)
    calls = {"split": 0, "interpolate": 0}
    split, interpolate = slicing._split_pieces, type(C.metric).interpolate

    def counted_split(*args):
        calls["split"] += 1
        return split(*args)

    def counted_interpolate(self, *args):
        calls["interpolate"] += 1
        return interpolate(self, *args)

    slicing._template.cache_clear()
    slicing._split_tables.cache_clear()
    monkeypatch.setattr(slicing, "_split_pieces", counted_split)
    monkeypatch.setattr(type(C.metric), "interpolate", counted_interpolate)
    values = distance_function(C, 40).values
    levels = np.linspace(values.min(), values.max(), 9)[1:-1]
    for level in levels:
        ref = subdivide_at_level(C, values, level)
    assert len(ref.cut_edges) > 22
    assert 0 < calls["split"] <= 22
    assert calls["interpolate"] == len(levels)
    first, tables = calls["split"], slicing._split_tables.cache_info()
    subdivide_at_level(C, values, float(levels[0]))
    assert calls["split"] == first
    # the padded tables of a template tuple seen before are read, not built
    after = slicing._split_tables.cache_info()
    assert after.misses == tables.misses and after.hits > tables.hits


def test_slicing_builds_no_tuple_lists():
    """Refined and support-closure complexes keep their simplices as id
    arrays: slicing, restricting and transferring read no tuple list."""
    C, T = sphere_mesh(8, 16)
    ball_T = support_closure(ball(T, 0, 1.2))
    res = slice_current(ball_T, distance_function(ball_T.complex, 0), 0.8)
    for complex in (ball_T.complex, res.complex):
        assert isinstance(complex.simplices, SimplexLists)
        assert not complex.simplices._lists
    assert res.complex.simplices[1] == [tuple(e) for e in res.complex.simplex_array(1).tolist()]
    assert set(res.complex.simplices._lists) == {1}


def test_cuts_and_closures_compute_volumes_on_first_read():
    """A refinement, a support closure and a slice at a generic level build
    no volume up front and read none of their parent's; a mass then builds
    the one dimension it reads."""
    C, T = sphere_mesh(8, 16)
    read = set(C._masses)
    ref = subdivide_at_level(C, distance_function(C, 0).values, 0.9)
    ball_T = support_closure(ball(T, 0, 1.2))
    res = slice_current(ball_T, distance_function(ball_T.complex, 0), 0.8)
    assert res.warnings == []
    assert set(C._masses) == read
    for complex in (ref.complex, ball_T.complex, res.complex):
        assert not complex._masses
    for current in (ref.transfer_current(T), ball_T, res.current):
        mass(current)
        assert set(current.complex._masses) == {current.dim}


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
            values = res.refinement.values
            for v in res.current.support_vertices():
                assert values[v] == res.refinement.level

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

    def test_flat_function_at_the_level_warns(self):
        """A function flat at the level snaps it and reports the flat mass:
        the public slice reads the whole cut, here the half square where
        min(x, 0.5) = 0.5."""
        C, T = grid_mesh(4, 4)
        res = slice_current(T, PLFunction(C, np.minimum(C.coords()[:, 0], 0.5)), 0.5)
        assert res.refinement.level == 0.49999995
        assert res.warnings == [
            "level 0.5 snapped to 0.49999995 (vertex-value collision)",
            "non-generic level: function is flat at the level on mass 0.5",
        ]

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
            assert signature(left) == signature(right)

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
                signature(slice_current(T1, f, s).current),
                signature(slice_current(T2, f, s).current),
            )
            assert signature(lhs) == rhs

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
            keep = refg.below(2)
            TA = SimplicialCurrent(refg.complex, 2, {i: c for i, c in Tg.coeffs.items() if keep[i]})
            lhs = slice_current(TA, fg, s)
            # right side: slice first, then restrict on the slice's complex
            res = slice_current(Tg, fg, s)
            gslice = res.refinement.transfer_function(PLFunction(refg.complex, refg.values))
            keep1 = barycenter_values(res.complex, 1, gslice.values) < refg.level
            rhs = SimplicialCurrent(
                res.complex, 1, {i: c for i, c in res.current.coeffs.items() if keep1[i]}
            )
            assert signature(lhs.current) == signature(rhs)

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
            # cut vertices: match by coordinates
            lhs_pts = {tuple(np.round(lhs.complex.coords()[v], 9)) for s in support_simplices(lhs) for v in s}
            rhs_pts = {tuple(np.round(rhs.complex.coords()[v], 9)) for s in support_simplices(rhs) for v in s}
            assert abs(mass(lhs) - mass(rhs)) < 1e-9
            assert lhs_pts == rhs_pts


def iterated_slice(T, functions, levels):
    """The slice of T by each function in turn, at one level each, through
    the level box's recursion (`slicedfill._tensor_eval`)."""
    seen = []
    grids = [np.array([s]) for s in levels]
    _, skipped = _tensor_eval(T, functions, grids, lambda cur: seen.append(cur) or 0.0, cycle=False)
    assert skipped == 0
    (current,) = seen
    return current


def point_signature(T):
    """A 0-chain as its sorted (point coordinates, coefficient) pairs."""
    coords = T.complex.coords()[T.complex.simplex_array(0)[T.idx, 0]]
    return sorted(zip(map(tuple, coords.tolist()), T.coeff.tolist()))


class TestIteratedSlice:
    def test_zero_functions_identity(self):
        C, T = square_complex()
        res = iterated_slice(T, [], [])
        assert res == T

    def test_square_double_slice_point(self):
        C, T = square_complex()
        res = iterated_slice(
            T, [coordinate_function(C, 0), coordinate_function(C, 1)], [0.5, 0.5]
        )
        assert res.dim == 0
        pts = list(res.coeffs.items())
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
            lhs = boundary(res)
            resb = iterated_slice(boundary(T), [f, g], [s, u])
            # each slice numbers the cut points of its own level star, so
            # the two 0-chains are matched by their points' coordinates
            assert point_signature(lhs) == point_signature(resb)
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

    def test_star_profile_equals_full_cut_profile(self):
        """coarea_profile slices only the crossing star; its integral equals
        the trapezoid rule over the public (full-cut) slice masses exactly."""
        C, T = disk_mesh(h=0.2)
        f = distance_function(C, nearest_vertex(C, (0.3, -0.2)))
        integral, _ = coarea_profile(T, f, 9)
        grid = np.linspace(*f.range(), 9)
        assert integral == float(np.trapezoid([mass(slice_current(T, f, s).current) for s in grid], grid))

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
        assert signature(boundary(B)) == signature(res.current)

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

    @pytest.mark.parametrize("C, values", _subdivide_cases())
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chain=st.sampled_from(["top", "boundary", "middle", "points", "zero"]),
        a_rule=st.sampled_from(["inside", "vertex"]),
        b_rule=st.sampled_from(["inside", "past", "near"]),
    )
    def test_annulus_mass_is_the_two_cut_mass(self, C, values, seed, chain, a_rule, b_rule):
        """The two level passes give the mass of the two whole-complex cuts
        bit for bit, on every backend: mixed-sign chains with drop-outs, T
        and dT, 0-chains and the zero chain, a on a vertex value (snapped),
        b past the value range or within 2 tol of the a-level (b snaps on
        the cut's values)."""
        rng = np.random.default_rng(seed)
        f = PLFunction(C, values)
        k = {"points": 0, "middle": int(rng.integers(1, C.top_dim + 1))}.get(chain, C.top_dim)
        T = _random_chain(rng, C, k)
        if chain == "boundary":
            T = boundary(T)
        elif chain == "zero":
            T = SimplicialCurrent.zero(C, k)
        lo, hi = float(values.min()), float(values.max())
        a = float(values[rng.integers(len(values))]) if a_rule == "vertex" else float(rng.uniform(lo, hi))
        if b_rule == "past":
            b = hi + float(rng.uniform(0.0, 1.0))
        elif b_rule == "near":
            b = max(a, snap_level(values, a)[0]) + float(rng.uniform(0.0, 2.0)) * SNAP_REL * (hi - lo)
        else:
            b = a + float(rng.uniform(0.0, hi - lo))
        assert annulus_mass(T, f, a, b) == two_cut_annulus_mass(T, f, a, b)

    def test_annulus_mass_cuts_nothing(self, monkeypatch):
        """annulus_mass subdivides nothing, runs no cut pass and builds no
        complex."""
        import currentlab.complexes as complexes
        import currentlab.slicing as slicing

        C, T = disk_mesh(h=0.1)
        rho = distance_function(C, 0)
        want = [two_cut_annulus_mass(S, rho, 0.3, 0.5) for S in (T, boundary(T))]
        calls = []
        for module, name in ((slicing, "subdivide_at_level"), (slicing, "_refine")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _name=name, _f=original, **kw: calls.append(_name) or _f(*a, **kw))
        init = complexes.GeometricComplex.__init__
        monkeypatch.setattr(
            complexes.GeometricComplex, "__init__", lambda self, *a, **kw: calls.append("complex") or init(self, *a, **kw)
        )
        dT = boundary(T)
        calls.clear()
        got = [annulus_mass(S, rho, 0.3, 0.5) for S in (T, dT)]
        assert got == want and calls == []

    @staticmethod
    def _piece_counts(T, f, a, b):
        """Rows of T on the whole-complex cut at a, and of T's part above a
        on that cut cut again at b."""
        ref1 = subdivide_at_level(T.complex, f.values, a)
        T1 = ref1.transfer_current(T).restricted(~ref1.below(T.dim))
        ref2 = subdivide_at_level(ref1.complex, ref1.values, b)
        return len(ref1.transfer_current(T).idx), len(ref2.transfer_current(T1).idx)

    @pytest.mark.parametrize("where", ["at_a", "at_b", "under"])
    def test_annulus_mass_keeps_the_cuts_limit(self, where):
        """The 2**62 rule of the two cuts: T at a counts C(k + 1, j) pieces
        per crossing simplex, and T's part above a counts them again at b.
        A chain over the limit at either cut raises the oracle's
        ArgumentError; one just under it at both has the oracle's mass."""
        C, T = grid_mesh(4, 4)
        rho = distance_function(C, 0)
        a, b = 0.1, 0.6
        at_a, at_b = self._piece_counts(T, rho, a, b)
        assert len(T.idx) < at_a < at_b
        c = {"at_a": 2**62 // at_a + 1, "at_b": 2**62 // at_b + 1, "under": (2**62 - 1) // at_b}[where]
        S = SimplicialCurrent.from_arrays(C, 2, T.idx, np.where(T.coeff > 0, c, -c))
        if where == "under":
            assert annulus_mass(S, rho, a, b) == two_cut_annulus_mass(S, rho, a, b) > 0
            return
        with pytest.raises(ArgumentError) as want:
            two_cut_annulus_mass(S, rho, a, b)
        with pytest.raises(ArgumentError) as got:
            annulus_mass(S, rho, a, b)
        assert str(got.value) == str(want.value)


OTHER_MESH_CALLS = {
    "subdivide_at_level": lambda T, f: subdivide_at_level(T.complex, f.values, 0.5),
    "slice_current": lambda T, f: slice_current(T, f, 0.5),
    "slice_levels": lambda T, f: slice_levels(T, f, [0.3, 0.5]),
    "restrict_sublevel": lambda T, f: restrict_sublevel(T, f, 0.5),
    "annulus_mass": lambda T, f: annulus_mass(T, f, 0.3, 0.6),
}


@pytest.mark.parametrize("call", sorted(OTHER_MESH_CALLS))
@pytest.mark.parametrize("n", [2, 5], ids=["short", "long"])
def test_function_from_another_mesh_is_an_input_error(call, n):
    """A PL function on another mesh has the wrong number of vertex values
    for T's complex: every entry point refuses it, naming both counts."""
    _, T = grid_mesh(4, 4)
    other, _ = grid_mesh(n, n)
    f = distance_function(other, 0)
    with pytest.raises(ArgumentError, match=rf"{(n + 1) ** 2} vertex values, but the complex has 25 vertices"):
        OTHER_MESH_CALLS[call](T, f)


def _random_chain(rng, C, k):
    """Seeded k-chain on a random half of the k-simplices, coefficients in
    -3..3 (zeros included, so some picks drop out)."""
    picked = np.flatnonzero(rng.random(C.count(k)) < 0.5)
    return SimplicialCurrent(C, k, {int(i): int(rng.integers(-3, 4)) for i in picked})


@pytest.mark.parametrize("C, values", _subdivide_cases())
class TestChainOracles:
    """The array-native chain operations reproduce the one-coefficient-at-a-
    time dict loops exactly, on every backend and dimension 1-3."""

    def test_boundary(self, C, values):
        rng = np.random.default_rng([21, len(values)])
        for k in range(1, C.top_dim + 1):
            for _ in range(3):
                T = _random_chain(rng, C, k)
                got, want = boundary(T), boundary_oracle(T)
                assert got.dim == want.dim and dict(got.coeffs) == dict(want.coeffs)

    def test_transfer(self, C, values):
        rng = np.random.default_rng([22, len(values)])
        for level in rng.uniform(values.min(), values.max(), size=2):
            ref = subdivide_at_level(C, values, level)
            for k in range(0, C.top_dim + 1):
                T = _random_chain(rng, C, k)
                assert dict(ref.transfer_current(T).coeffs) == dict(transfer_oracle(ref, T).coeffs)

    def test_support_closure(self, C, values):
        rng = np.random.default_rng([23, len(values)])
        for k in range(1, C.top_dim + 1):
            T = _random_chain(rng, C, k)
            got, want = support_closure(T), support_closure_oracle(T)
            assert got.complex.simplices == want.complex.simplices
            for j in want.complex.dims:
                assert np.array_equal(got.complex.masses(j), want.complex.masses(j))
            assert dict(got.coeffs) == dict(want.coeffs)
            assert boundary(boundary(got)).is_zero()

    def test_face_operator_squares_to_zero(self, C, values):
        """The face-index arrays, read as signed integer matrices, satisfy
        D_{k-1} D_k = 0 entry by entry."""
        from scipy.sparse import coo_matrix

        def D(k):
            faces = C.face_index(k)
            signs = np.tile(np.where(np.arange(k + 1) % 2, -1, 1), len(faces))
            cols = np.repeat(np.arange(len(faces)), k + 1)
            return coo_matrix((signs, (faces.ravel(), cols)), shape=(C.count(k - 1), C.count(k))).tocsr()

        for k in range(2, C.top_dim + 1):
            product = D(k - 1) @ D(k)
            assert product.dtype.kind == "i"
            assert product.count_nonzero() == 0


def test_snap_level_matches_cluster_scan():
    """The searchsorted lookup of the cluster around s agrees with scanning
    every cluster, for levels on, beside and between clustered values."""
    rng = np.random.default_rng(41)
    for _ in range(200):
        base = np.round(rng.uniform(0, 1, size=int(rng.integers(1, 12))), 2)
        values = np.concatenate([base, base + rng.uniform(-3e-7, 3e-7, size=len(base))])
        picks = [float(rng.choice(values)) + d for d in (0.0, 1e-7, -1e-7, 5e-7)]
        for s in picks + list(rng.uniform(-0.1, 1.1, size=3)):
            assert snap_level(values, s) == snap_level_oracle(values, s)


def test_chain_operations_on_unsorted_simplex_lists():
    """A complex whose simplex lists are not in lexicographic order: face
    lookup, boundary and support closure still match the dict loops, and
    the closure lists its simplices in lexicographic order."""
    rng = np.random.default_rng(43)
    grid, _ = grid_mesh(3, 3)
    shuffled = {k: [sims[i] for i in rng.permutation(len(sims))] for k, sims in grid.simplices.items()}
    C = GeometricComplex(grid.metric, shuffled)
    C.validate()
    for k in (1, 2):
        T = _random_chain(rng, C, k)
        assert dict(boundary(T).coeffs) == dict(boundary_oracle(T).coeffs)
        got, want = support_closure(T), support_closure_oracle(T)
        assert got.complex.simplices == want.complex.simplices
        assert dict(got.coeffs) == dict(want.coeffs)
