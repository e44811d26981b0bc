import itertools
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from currentlab.complexes import (
    EuclideanMetric,
    GeometricComplex,
    MatrixMetric,
    PLFunction,
    SimplexLists,
    coordinate_function,
    distance_function,
)
from currentlab.currents import SimplicialCurrent, boundary, mass, push_forward
from currentlab.fillvol import boundary_matrix
from currentlab.metricspace import InvariantError
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
    _split_pieces,
)

from oracles import (
    boundary_oracle,
    children_dict,
    cut_edge_triples,
    face_index_oracle,
    signature,
    snap_level_oracle,
    split_pieces_oracle,
    subdivide_oracle,
    support_closure_oracle,
    support_simplices,
    transfer_oracle,
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
    """The face index a refined complex derives from its parent's equals the
    whole-complex lookup in every dimension, on refinements of refinements
    too."""
    for ref in _refinements(C, values):
        for k in ref.complex.dims[1:]:
            assert np.array_equal(ref.complex.face_index(k), face_index_oracle(ref.complex, k)), k


def test_closure_face_index_matches_lookup():
    """`support_closure` renumbers its parent's face index: on the closures
    of a ball in a disk and of a ball in a sphere (both on refined
    complexes) it equals the whole-complex lookup."""
    disk, disk_T = disk_mesh(h=0.25)
    sph, sph_T = sphere_mesh(8, 16)
    for T, p, r in ((disk_T, nearest_vertex(disk, (0.2, 0.1)), 0.55), (sph_T, 37, 0.8)):
        closure = support_closure(ball(T, p, r)).complex
        assert closure.dims == [0, 1, 2]
        for k in (1, 2):
            assert np.array_equal(closure.face_index(k), face_index_oracle(closure, k)), k


@pytest.mark.parametrize("C, values", _subdivide_cases())
def test_refined_face_index_looks_up_only_the_split_region(C, values, monkeypatch):
    """While a refined complex builds its face index (its parent's already
    built), no row lookup has a table longer than its new (k-1)-cells plus
    the (k-1)-faces of the parent's crossing k-simplices: untouched rows
    come from the parent, not from a whole-complex lookup."""
    import currentlab.complexes as complexes

    lookup, tables = complexes.lookup_rows, []
    monkeypatch.setattr(complexes, "lookup_rows", lambda table, rows: tables.append(len(table)) or lookup(table, rows))
    smaller = False
    for ref in _refinements(C, values):
        parent, child = ref.source, ref.complex
        for k in child.dims[1:]:
            parent.face_index(k)
            tables.clear()
            child.face_index(k)
            crossing = np.flatnonzero(np.diff(ref.children[k].ptr) > 1)  # split into pieces
            new_cells = int((child.simplex_array(k - 1) >= ref.n_old_vertices).any(axis=1).sum())
            bound = new_cells + len(np.unique(parent.face_index(k)[crossing]))
            assert max(tables, default=0) <= bound, (k, tables, bound)
            smaller |= bound < child.count(k - 1)
    assert smaller


def test_refinement_of_an_unread_refinement_looks_up_its_own_faces():
    """A refined parent that has not built a dimension is not made to build
    it for its refinement alone: the refinement looks its faces up itself,
    and they equal the whole-complex lookup."""
    C, _ = disk_mesh(h=0.25)
    values = distance_function(C, nearest_vertex(C, (0.3, -0.2))).values
    ref = subdivide_at_level(C, values, 0.4)
    ref2 = subdivide_at_level(ref.complex, ref.transfer_function(PLFunction(C, values)).values, 0.7)
    for k in (1, 2):
        assert np.array_equal(ref2.complex.face_index(k), face_index_oracle(ref2.complex, k))
        assert ref.complex.face_index_deferred(k)


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


def test_split_pieces_only_builds_templates(monkeypatch):
    """`_split_pieces` runs once per (dimension, pattern) template, not once
    per crossing simplex, and the cut points come from one interpolation."""
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
    monkeypatch.setattr(slicing, "_split_pieces", counted_split)
    monkeypatch.setattr(type(C.metric), "interpolate", counted_interpolate)
    values = distance_function(C, 40).values
    levels = np.linspace(values.min(), values.max(), 9)[1:-1]
    for level in levels:
        ref = subdivide_at_level(C, values, level)
    assert len(ref.cut_edges) > 22
    assert 0 < calls["split"] <= 22
    assert calls["interpolate"] == len(levels)
    first = calls["split"]
    subdivide_at_level(C, values, float(levels[0]))
    assert calls["split"] == first


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
            keep1 = res.complex.barycenter_values(1, gslice.values) < refg.level
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
            assert signature(lhs) == signature(resb.current)
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
