import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from currentlab.complexes import (
    CallableMetric,
    ComplexError,
    EuclideanMetric,
    GeometricComplex,
    MatrixMetric,
    PLFunction,
    coordinate_function,
    distance_function,
    distinct_rows,
    facet_lookup,
    gram_from_sq,
    level_row_keys,
    lookup_keys,
    lookup_rows,
    row_keys,
    row_ranks,
    simplex_volume_from_sq,
    simplex_volumes,
)
from currentlab.metricspace import ArgumentError
from currentlab.meshes import _sphere_arc_metric, grid_mesh, square_complex, torus_patch_mesh

from oracles import matrix_add_points_oracle, simplex_volume_from_coords


def euclid_sq(coords):
    return EuclideanMetric(np.asarray(coords, dtype=float)).pairwise_sq(range(len(coords)))


class TestVolumes:
    def test_vertex_mass_is_one(self):
        assert simplex_volume_from_sq(euclid_sq([[0.0, 0.0]])[None]).tolist() == [1.0]

    def test_edge_length(self):
        assert simplex_volume_from_sq(euclid_sq([[0, 0], [3, 4]])[None]) == pytest.approx([5.0])

    def test_right_triangle(self):
        d2 = euclid_sq([[0, 0], [1, 0], [0, 1]])
        assert simplex_volume_from_sq(d2[None]) == pytest.approx([0.5])

    def test_regular_tetrahedron(self):
        d2 = np.ones((4, 4)) - np.eye(4)
        vol = simplex_volume_from_sq(d2[None])
        assert vol == pytest.approx([1.0 / (6 * math.sqrt(2))], rel=1e-12)

    def test_random_simplices_match_coordinate_formula(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 3, 4):
            for _ in range(20):
                coords = rng.normal(size=(k + 1, k + 1))
                (cm,) = simplex_volume_from_sq(euclid_sq(coords)[None])
                direct = simplex_volume_from_coords(coords)
                assert cm == pytest.approx(direct, rel=1e-8, abs=1e-12)

    def test_vertex_volumes_need_no_metric(self):
        class NoDistances:
            def pairwise_sq(self, ids):
                raise AssertionError("0-simplices read no distance")

        vols = simplex_volumes(NoDistances(), np.arange(5)[:, None])
        assert vols.shape == (5,) and np.array_equal(vols, np.ones(5))

    def test_non_embeddable_rejected(self):
        # triangle inequality badly violated
        d2 = np.array([[0, 1, 25], [1, 0, 1], [25, 1, 0]], dtype=float)
        with pytest.raises(ComplexError):
            simplex_volume_from_sq(d2[None])


class TestComplexStructure:
    def test_face_closure(self):
        C, _ = square_complex()
        C.validate()
        assert C.count(0) == 4 and C.count(1) == 5 and C.count(2) == 2

    def test_duplicate_rejected(self):
        m = EuclideanMetric(np.array([[0.0, 0], [1, 0], [0, 1]]))
        with pytest.raises(ComplexError, match="duplicate"):
            GeometricComplex(
                m, {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 1), (0, 2), (1, 2)], 2: [(0, 1, 2)]}
            ).validate()

    def test_repeated_vertex_rejected(self):
        m = EuclideanMetric(np.array([[0.0, 0], [1, 0], [0, 1]]))
        with pytest.raises(ComplexError, match=r"degenerate simplex \(0, 0\)"):
            GeometricComplex(m, {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 0)]}).validate()
        with pytest.raises(ComplexError, match=r"not in canonical order: \(1, 0\)"):
            GeometricComplex(m, {0: [(0,), (1,), (2,)], 1: [(1, 0)]}).validate()

    def test_missing_face_rejected(self):
        m = EuclideanMetric(np.array([[0.0, 0], [1, 0], [0, 1]]))
        with pytest.raises(ComplexError, match="missing face"):
            GeometricComplex(m, {0: [(0,), (1,), (2,)], 1: [(0, 1)], 2: [(0, 1, 2)]}).validate()

    def test_matrix_metric_interpolation(self):
        # flat interpolation reproduces Euclidean midpoint distances
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        em = EuclideanMetric(pts)
        mm = MatrixMetric(np.sqrt(em.pairwise_sq(range(3))))
        grown = mm.grown(mm.interpolate((0, 1), (0.5, 0.5)))
        mid = np.array([0.5, 0.0])
        assert grown.dist(3, np.arange(3)) == pytest.approx(np.linalg.norm(mid - pts, axis=1), abs=1e-12)


# ids: small ones of both signs, ones near 2**40 (3 columns then overflow
# a packed int64 key, so `row_keys` folds) and ones near +-2**62 (a single
# column's range overflows int64)
_ids = st.one_of(
    st.integers(-20, 20),
    st.integers(2**40 - 3, 2**40 + 3),
    st.integers(-(2**62) - 3, -(2**62) + 3),
    st.integers(2**62 - 3, 2**62 + 3),
)


@st.composite
def _row_blocks(draw, n_blocks):
    """`n_blocks` (n, m) int64 arrays of one width m, in no particular
    order, repeats and empty blocks included; rows repeat across blocks."""
    m = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[_ids] * m), min_size=1, max_size=12))
    blocks = [draw(st.lists(st.sampled_from(pool), max_size=20)) for _ in range(n_blocks)]
    return [np.array(b, dtype=np.int64).reshape(len(b), m) for b in blocks]


def _dense_ranks(items):
    """Dense ranks of hashable, ordered items in sorted order."""
    rank = {x: r for r, x in enumerate(sorted(set(items)))}
    return [rank[x] for x in items]


def _tuples(rows):
    return list(map(tuple, rows.tolist()))


# radix R = 2**40 + 2 and three columns: R**2 wraps to 2**42 + 4 in int64,
# so a packed key without the fold would give (1, 0, 4) the key of (0, 4, 0)
_NEAR_2_40 = [
    np.array([[2**40 + 1, 1, 2], [0, 4, 0], [2**40, 1, 3], [0, 4, 0]], dtype=np.int64),
    np.array([[1, 0, 4], [2**40, 1, 3], [0, 4, 0], [2**40, 1, 2]], dtype=np.int64),
]


class TestRowKeys:
    """`row_keys` and the lookups built on it against sorted tuples and
    dicts of tuples."""

    @settings(max_examples=150, deadline=None)
    @given(_row_blocks(3))
    @example(_NEAR_2_40 + [np.empty((0, 3), dtype=np.int64)])
    def test_keys_order_and_equality_follow_the_rows(self, blocks):
        keys = row_keys(*blocks)
        assert [len(k) for k in keys] == [len(b) for b in blocks]
        assert all(k.dtype == np.int64 for k in keys)
        rows = [t for b in blocks for t in _tuples(b)]
        assert _dense_ranks(np.concatenate(keys).tolist()) == _dense_ranks(rows)

    @settings(max_examples=150, deadline=None)
    @given(_row_blocks(2))
    @example(_NEAR_2_40)
    @example([_NEAR_2_40[0], np.empty((0, 3), dtype=np.int64)])
    @example([np.empty((0, 2), dtype=np.int64), np.array([[1, 2]], dtype=np.int64)])
    def test_lookup_rows_matches_a_dict(self, blocks):
        table, queries = blocks
        index = {t: i for i, t in enumerate(_tuples(table))}  # the last of equal rows
        got = lookup_rows(table, queries)
        assert got.tolist() == [index.get(t, -1) for t in _tuples(queries)]

    @settings(max_examples=150, deadline=None)
    @given(_row_blocks(1))
    @example(_NEAR_2_40[:1])
    def test_ranks_and_distinct_rows_match_sorted_tuples(self, blocks):
        (rows,) = blocks
        assert row_ranks(rows).tolist() == _dense_ranks(_tuples(rows))
        distinct = distinct_rows(rows)
        assert distinct.shape[1:] == rows.shape[1:]
        assert _tuples(distinct) == sorted(set(_tuples(rows)))

    @settings(max_examples=150, deadline=None)
    @given(_row_blocks(2), st.integers(1, 6), st.randoms(use_true_random=False))
    @example(_NEAR_2_40, 5, random.Random(0))
    @example([np.array([[0], [2**62], [5]]), np.array([[2**62], [1]])], 3, random.Random(1))
    def test_level_keys_order_by_level_then_row(self, blocks, m, rng):
        """Keys of (level, row) pairs order and match as the pairs do, the
        folded keys of ids near 2**40 and +-2**62 included, and look up
        rows of one level only."""
        levels = [np.array([rng.randrange(m) for _ in range(len(b))], dtype=np.intp) for b in blocks]
        keys = level_row_keys(m, *zip(levels, blocks))
        pairs = [(lv, *t) for level, b in zip(levels, blocks) for lv, t in zip(level.tolist(), _tuples(b))]
        assert _dense_ranks(np.concatenate(keys).tolist()) == _dense_ranks(pairs)
        table, queries = (list(zip(level.tolist(), _tuples(b))) for level, b in zip(levels, blocks))
        index = {t: i for i, t in enumerate(table)}
        assert lookup_keys(*keys).tolist() == [index.get(t, -1) for t in queries]

    def test_ids_near_2_40_fold_the_key(self):
        """Three columns spanning 2**40 overflow a packed int64 key; the
        folded keys still order and match the rows exactly."""
        table, queries = _NEAR_2_40
        assert lookup_rows(table, queries).tolist() == [-1, 2, 3, -1]
        assert row_ranks(table).tolist() == [2, 0, 1, 0]
        assert _tuples(distinct_rows(table)) == sorted(set(_tuples(table)))


class TestPLFunction:
    def test_edge_lipschitz_on_path(self):
        m = EuclideanMetric(np.array([[0.0], [1.0], [3.0]]))
        C = GeometricComplex.from_top_simplices(m, [(0, 1), (1, 2)])
        f = PLFunction(C, np.array([0.0, 2.0, 2.5]))
        assert f.lip == pytest.approx(2.0)  # steepest edge

    def test_singular_gram_falls_back_to_least_squares(self, monkeypatch):
        """A zero-area triangle on collinear points has a singular Gram
        matrix: its gradient term comes from least squares, and the
        steepest edge (1 to 2, rise 2) sets lip."""
        m = EuclideanMetric(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        C = GeometricComplex.from_top_simplices(m, [(0, 1, 2)])
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(a) or lstsq(*a, **kw))
        assert PLFunction(C, np.array([0.0, 1.0, 3.0])).lip == 2.0
        assert len(calls) == 1

    def test_gradient_exceeds_edge_ratio_on_triangles(self):
        # f = x - y on a crossed grid has gradient norm sqrt(2) although
        # no single edge ratio exceeds 1
        C, _ = grid_mesh(1, 1)
        coords = C.coords()
        f = PLFunction(C, coords[:, 0] - coords[:, 1])
        assert f.lip == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_distance_function_clamped(self):
        C, _ = grid_mesh(3, 3)
        rho = distance_function(C, 0)
        assert rho.lip == 1.0
        assert rho.values[0] == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        C, _ = square_complex()
        with pytest.raises(ArgumentError, match="function values must be finite"):
            PLFunction(C, np.array([0.0, value, 1.0, 2.0]))

    def test_coordinate_function(self):
        C, _ = square_complex()
        f = coordinate_function(C, 1)
        assert f.values[2] == pytest.approx(1.0)
        assert f.lip == pytest.approx(1.0, rel=1e-9)

    def test_lipschitz_cache_is_not_a_constructor_argument(self):
        # a fourth value used to set the cached constant unchecked, so a
        # coarea bound could read 0.01 where the true constant is larger
        C, _ = grid_mesh(2, 2)
        values = coordinate_function(C, 0).values
        with pytest.raises(TypeError):
            PLFunction(C, values, None, 0.01)
        with pytest.raises(TypeError):
            PLFunction(C, values, _lip=0.01)
        assert PLFunction(C, values, None).lip == pytest.approx(1.0, rel=1e-9)

    def test_gram_matrix(self):
        d2 = euclid_sq([[0, 0], [1, 0], [0, 2]])
        g = gram_from_sq(d2)
        assert g[0, 0] == pytest.approx(1.0)
        assert g[1, 1] == pytest.approx(4.0)
        assert g[0, 1] == pytest.approx(0.0)


class TestCallableMetric:
    def test_wrap_interpolation(self):
        fn = lambda A, B: np.abs(A - B).sum(axis=1)
        m = CallableMetric(np.array([[0.1], [1.9]]), fn, wrap=(2.0,))
        new = m.interpolate((0, 1), (0.5, 0.5))
        # midpoint across the wrap sits at 0 (mod 2), not at 1
        circ = min(new[0] % 2.0, 2.0 - new[0] % 2.0)
        assert circ == pytest.approx(0.0, abs=1e-12)


def _backends(rng):
    pts = rng.normal(size=(12, 3))
    torus = lambda A, B: np.sqrt((np.minimum(np.abs(A - B), 2.0 - np.abs(A - B)) ** 2).sum(axis=1))
    return [
        EuclideanMetric(pts),
        CallableMetric(np.mod(pts, 2.0), torus, wrap=(2.0, 2.0, 2.0)),
        MatrixMetric(np.linalg.norm(pts[:, None] - pts[None], axis=-1)),
    ]


class TestBatchedKernels:
    @pytest.mark.parametrize("backend", [0, 1, 2], ids=["euclidean", "callable", "matrix"])
    def test_pairwise_sq_stack_equals_single_calls(self, backend):
        rng = np.random.default_rng(21)
        metric = _backends(rng)[backend]
        for m in (1, 2, 3, 4):
            ids = np.array([rng.choice(metric.n, m, replace=False) for _ in range(30)])
            stack = metric.pairwise_sq(ids)
            assert stack.shape == (30, m, m)
            for row, d2 in zip(ids, stack):
                assert np.array_equal(d2, metric.pairwise_sq(tuple(row.tolist())))
            # any leading axes act as the batch
            assert np.array_equal(metric.pairwise_sq(ids.reshape(5, 6, m)), stack.reshape(5, 6, m, m))

    def test_callable_pairwise_sq_evaluates_every_pair(self):
        # the arc metric's d(x, x) can round away from 0; it is evaluated, not assumed
        fn = _sphere_arc_metric()
        pts = np.random.default_rng(25).normal(size=(20, 3))
        metric = CallableMetric(pts, fn)
        ids = np.arange(20).reshape(5, 4)
        want = np.array([[[fn(pts[a][None], pts[b][None])[0] ** 2 for b in row] for a in row] for row in ids])
        assert np.array_equal(metric.pairwise_sq(ids), want)

    @pytest.mark.parametrize("backend", [0, 1, 2], ids=["euclidean", "callable", "matrix"])
    def test_dist_to_many_equals_single_calls(self, backend):
        metric = _backends(np.random.default_rng(22))[backend]
        ids = np.arange(metric.n)
        assert np.array_equal(metric.dist(3, ids), [metric.dist(3, ids[j : j + 1])[0] for j in ids])

    def test_volume_stack_equals_single_calls(self):
        rng = np.random.default_rng(23)
        metric = EuclideanMetric(rng.normal(size=(40, 3)))
        for k in (0, 1, 2, 3):
            ids = np.array([rng.choice(metric.n, k + 1, replace=False) for _ in range(50)])
            stack = metric.pairwise_sq(ids)
            vols = simplex_volume_from_sq(stack)
            assert isinstance(vols, np.ndarray) and vols.shape == (50,)
            single = [simplex_volume_from_sq(d2[None]) for d2 in stack]
            assert all(v.shape == (1,) for v in single)
            assert np.array_equal(vols, np.concatenate(single))

    @pytest.mark.parametrize(
        "backend", [0, 1, 2, 3, 4], ids=["euclidean", "torus", "matrix", "grown_matrix", "sphere_arc"]
    )
    def test_edge_kernel_equals_the_stacked_path(self, backend):
        """Edge and triangle volumes read from `pair_sq` equal the
        Cayley-Menger path on the `pairwise_sq` stack bit for bit, also on
        a grown matrix and on the arc metric, whose d(x, x) can round away
        from 0."""
        rng = np.random.default_rng(26)
        metrics = _backends(rng)
        mat = metrics[2]
        metrics.append(mat.grown(mat.interpolate([[0, 1, 2], [3, 4, 5]], [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])))
        metrics.append(CallableMetric(rng.normal(size=(12, 3)), _sphere_arc_metric()))
        metric = metrics[backend]
        for m in (2, 3):
            ids = np.array([rng.choice(metric.n, m, replace=False) for _ in range(200)])
            want = simplex_volume_from_sq(metric.pairwise_sq(ids))
            assert np.array_equal(simplex_volumes(metric, ids), want)

    def test_blocked_volume_pass_equals_one_call(self, monkeypatch):
        """A pass over more than VOLUME_BLOCK rows, block by block, equals
        one call bit for bit, and a bad row in a later block raises the
        error one call raises."""
        import currentlab.complexes as complexes

        rng = np.random.default_rng(27)
        metric = _backends(rng)[0]
        rows = {m: np.array([rng.choice(metric.n, m, replace=False) for _ in range(50)]) for m in (2, 3, 4)}
        whole = {m: simplex_volumes(metric, ids) for m, ids in rows.items()}
        bad = MatrixMetric(np.array([[0, 1, 4, 1], [1, 0, 1, 1], [4, 1, 0, 1], [1, 1, 1, 0]], dtype=float))
        bad_rows = np.array([[0, 1, 3]] * 20 + [[0, 1, 2]])
        with pytest.raises(ComplexError) as one_call:
            simplex_volumes(bad, bad_rows)
        monkeypatch.setattr(complexes, "VOLUME_BLOCK", 7)
        for m, ids in rows.items():
            assert np.array_equal(simplex_volumes(metric, ids), whole[m])
        with pytest.raises(ComplexError) as blocked:
            simplex_volumes(bad, bad_rows)
        assert str(blocked.value) == str(one_call.value)

    def test_edge_kernel_keeps_the_triangle_inequality_error(self):
        metric = MatrixMetric(np.array([[0, 1, 4, 1], [1, 0, 1, 1], [4, 1, 0, 1], [1, 1, 1, 0]], dtype=float))
        ids = np.array([[0, 1, 3], [0, 1, 2], [1, 2, 0]])
        with pytest.raises(ComplexError) as stacked:
            simplex_volume_from_sq(metric.pairwise_sq(ids))
        with pytest.raises(ComplexError) as edges:
            simplex_volumes(metric, ids)
        assert str(edges.value) == str(stacked.value) == "triangle inequality violated in simplex: 1.0,4.0,1.0"

    def test_one_bad_tetrahedron_fails_the_stack(self):
        good = np.ones((4, 4)) - np.eye(4)
        bad = good.copy()
        bad[0, 1] = bad[1, 0] = 16.0  # an edge of length 4 beside edges of length 1
        with pytest.raises(ComplexError):
            simplex_volume_from_sq(bad[None])
        with pytest.raises(ComplexError, match="non-embeddable 3-simplex"):
            simplex_volume_from_sq(np.stack([good, good, bad, good]))
        assert np.array_equal(simplex_volume_from_sq(np.stack([good, good])), [simplex_volume_from_sq(good[None])[0]] * 2)

    def test_masses_and_lip_on_a_callable_mesh(self):
        # batched masses and Lipschitz constants equal one-simplex evaluations
        rng = np.random.default_rng(24)
        metric = _backends(rng)[1]
        C = GeometricComplex.from_top_simplices(metric, [(0, 1, 2, 3), (1, 2, 3, 4), (4, 5, 6)])
        for k in C.dims:
            want = [simplex_volume_from_sq(metric.pairwise_sq([s]))[0] for s in C.simplices[k]]
            assert np.array_equal(C.masses(k), want)
        f = PLFunction(C, rng.normal(size=C.n_vertices))
        worst = 0.0
        for k in (1, 2, 3):
            for s in C.simplices[k]:
                g = gram_from_sq(metric.pairwise_sq(s))
                b = f.values[list(s[1:])] - f.values[s[0]]
                worst = max(worst, float(b @ np.linalg.solve(g, b)))
        assert f.lip == math.sqrt(worst)


class TestChainCore:
    def test_missing_face_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        C = GeometricComplex(EuclideanMetric(pts), {0: [(0,), (1,), (2,)], 1: [(0, 1), (1, 2)], 2: [(0, 1, 2)]})
        with pytest.raises(ComplexError, match=r"missing face \(0, 2\) of \(0, 1, 2\)"):
            C.face_index(2)
        # two faces missing: the first in lexicographic order is named, as validate always did
        C = GeometricComplex(EuclideanMetric(pts), {0: [(0,), (1,), (2,)], 1: [(1, 2)], 2: [(0, 1, 2)]})
        with pytest.raises(ComplexError, match=r"missing face \(0, 1\) of \(0, 1, 2\)"):
            C.validate()
        # level-keyed: both levels' tables hold the same rows, and each
        # facet resolves within its own row's level
        table, table_level = np.array([[0, 1], [0, 2], [1, 2]] * 2), np.repeat([0, 1], 3)
        rows = np.array([[0, 1, 2], [0, 1, 2]])
        assert facet_lookup(table, rows, 2, table_level, np.array([1, 0])).tolist() == [[5, 4, 3], [2, 1, 0]]
        # (0, 2) is in level 0's table only: level 1's triangle misses it
        keep = [0, 1, 2, 3, 5]
        with pytest.raises(ComplexError, match=r"missing face \(0, 2\) of \(0, 1, 2\)"):
            facet_lookup(table[keep], rows, 2, table_level[keep], np.array([0, 1]))
        assert facet_lookup(table[keep], rows[:1], 2, table_level[keep], np.array([0])).tolist() == [[2, 1, 0]]

    def test_matrix_add_points_matches_one_at_a_time(self):
        """One batch of edge and triangle interpolations gives the matrix the
        per-point growth gives, to 1e-12."""
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(30, 3))
        metric = MatrixMetric(np.linalg.norm(pts[:, None] - pts[None], axis=-1))
        before = metric.mat.copy()
        # one stacked (25, 3) batch: an edge point has weight 0 on its third id
        ids = np.stack([rng.choice(30, size=3, replace=False) for _ in range(25)])
        W = rng.random((25, 3)) * (np.arange(3) < rng.integers(2, 4, size=25)[:, None])
        W /= W.sum(axis=1, keepdims=True)
        want = matrix_add_points_oracle(before, zip(ids.tolist(), W))
        grown = metric.grown(metric.interpolate(ids, W))
        assert grown.n == 55 and np.array_equal(metric.mat, before)
        assert np.allclose(grown.mat, want, rtol=0, atol=1e-12)
        assert np.array_equal(grown.mat, grown.mat.T) and not np.diag(grown.mat).any()
        single = grown.grown(grown.interpolate((0, 1), (0.25, 0.75)))
        assert single.n == 56
        assert np.allclose(single.mat, matrix_add_points_oracle(want, [((0, 1), [0.25, 0.75])]), rtol=0, atol=1e-12)


class TestStackedInterpolation:
    """An (n, m) stack of ids and weights interpolates every row exactly as
    the one-point call does, and `grown` appends them without touching the
    source metric."""

    @staticmethod
    def _edges_and_weights(rng, n_vertices, n):
        ids = np.stack([rng.choice(n_vertices, size=2, replace=False) for _ in range(n)])
        t = rng.random(n)
        return ids, np.stack([1.0 - t, t], axis=1)

    def test_euclidean(self):
        rng = np.random.default_rng(51)
        metric = EuclideanMetric(rng.normal(size=(20, 3)))
        ids, W = self._edges_and_weights(rng, 20, 40)
        stacked = metric.interpolate(ids, W)
        assert stacked.shape == (40, 3)
        for i in range(40):
            assert np.array_equal(stacked[i], metric.interpolate(ids[i], W[i]))
            assert np.array_equal(stacked[i], W[i] @ metric.coords[list(ids[i])])

    def test_callable_across_the_seam(self):
        C, _ = torus_patch_mesh(0.2, 0.3, 4)
        metric = C.metric
        z = metric.points[:, 2]
        period = metric.wrap[2]
        edges = C.simplex_array(1)
        across = np.abs(z[edges[:, 0]] - z[edges[:, 1]]) > period / 2
        assert across.any() and not across.all()
        t = np.random.default_rng(52).random(len(edges))
        W = np.stack([1.0 - t, t], axis=1)
        stacked = metric.interpolate(edges, W)
        for i in range(len(edges)):
            assert np.array_equal(stacked[i], metric.interpolate(edges[i], W[i]))
        assert ((stacked[:, 2] >= 0) & (stacked[:, 2] < period)).all()

    def test_matrix(self):
        rng = np.random.default_rng(53)
        pts = rng.normal(size=(15, 3))
        source = MatrixMetric(np.linalg.norm(pts[:, None] - pts[None], axis=-1))
        ids, W = self._edges_and_weights(rng, 15, 10)
        stacked_ids, stacked_w = source.interpolate(ids, W)
        for i in range(10):
            one_ids, one_w = source.interpolate(ids[i], W[i])
            assert np.array_equal(stacked_ids[i], one_ids) and np.array_equal(stacked_w[i], one_w)
        before = source.mat.copy()
        grown = source.grown((stacked_ids, stacked_w))
        singles = [source.interpolate(ids[i], W[i]) for i in range(10)]
        restacked = source.grown(tuple(np.stack(part) for part in zip(*singles)))
        assert np.array_equal(grown.mat, restacked.mat)
        assert np.allclose(grown.mat, matrix_add_points_oracle(before, zip(ids.tolist(), W)), rtol=0, atol=1e-12)
        assert np.array_equal(source.mat, before)

    @pytest.mark.parametrize("kind", ["euclidean", "callable", "matrix"])
    def test_grown_by_nothing_is_a_copy(self, kind):
        pts = np.random.default_rng(54).normal(size=(6, 2))
        metric = {
            "euclidean": EuclideanMetric(pts),
            "callable": CallableMetric(pts, lambda A, B: np.linalg.norm(A - B, axis=1)),
            "matrix": MatrixMetric(np.linalg.norm(pts[:, None] - pts[None], axis=-1)),
        }[kind]
        empty = metric.interpolate(np.zeros((0, 2), dtype=np.intp), np.zeros((0, 2)))
        grown = metric.grown(empty)
        assert grown is not metric and grown.n == metric.n
        for a in (0, 2):
            assert np.array_equal(grown.dist(a, np.arange(6)), metric.dist(a, np.arange(6)))
