import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from currentlab.metricspace import (
    ArgumentError,
    FiniteMetricSpace,
    MetricError,
    as_integers,
    diameter,
    exhaustive_packing_number,
    gh_bounds,
    gh_exact,
    hausdorff_distance,
    load_distance_csv,
    load_points_csv,
    packing_number,
)

from oracles import exhaustive_max_packing, gh_oracle


def points_space(pts):
    return FiniteMetricSpace.from_points(np.asarray(pts, dtype=float))


def uniform_line(n):
    return points_space(np.linspace(0.0, 1.0, n)[:, None])


point_sets = st.lists(
    st.tuples(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)


class TestValidation:
    def test_asymmetry_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(MetricError, match="asymmetry"):
            FiniteMetricSpace(bad)

    def test_triangle_violation_reports_triple(self):
        bad = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        with pytest.raises(MetricError, match="triangle inequality"):
            FiniteMetricSpace(bad)

    def test_nonzero_diagonal(self):
        with pytest.raises(MetricError, match="diagonal"):
            FiniteMetricSpace(np.array([[1.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_distance_rejected(self, value):
        # every comparison with nan is false, so nan passed every axiom check
        bad = np.array([[0.0, value, 1.0], [value, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(MetricError, match=r"non-finite distance at \(0,1\)"):
            FiniteMetricSpace(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e200])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_point_cloud_with_non_finite_distances_rejected(self, value):
        # a nan coordinate gave nan distances, which no packing check rejects;
        # the overflow on the way is reported by the MetricError alone
        with pytest.raises(MetricError, match="non-finite distance"):
            FiniteMetricSpace.from_points([[0.0, 0.0], [value, 1.0], [2.0, 2.0]])


class TestIntegerRule:
    def test_ints_and_integer_valued_floats_accepted(self):
        got = as_integers([[1, 2.0], [-3, 0.0]], "ids")
        assert got.dtype == np.int64 and got.tolist() == [[1, 2], [-3, 0]]
        assert as_integers(4.0, "dim").ndim == 0

    @pytest.mark.parametrize("value", [1.5, 0.9, math.nan, math.inf, -math.inf, "1", True, None, 2**62, [[1], [1, 2]]])
    def test_everything_else_rejected(self, value):
        with pytest.raises(ArgumentError, match="must be integers"):
            as_integers([value] if not isinstance(value, list) else value, "ids")


class TestDiameter:
    def test_single_point(self):
        assert diameter(points_space([[0.0, 0.0]])) == 0.0

    def test_two_points(self):
        assert diameter(points_space([[0.0], [3.0]])) == 3.0

    def test_hexagon_chordal(self):
        # brute-force maximum over pairs of chordal distances
        pts = [(math.cos(2 * math.pi * i / 6), math.sin(2 * math.pi * i / 6)) for i in range(6)]
        X = points_space(pts)
        brute = max(
            math.dist(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]
        )
        assert brute == pytest.approx(2.0, abs=1e-12)
        assert diameter(X) == pytest.approx(brute, abs=1e-12)


class TestPacking:
    def test_one_point(self):
        assert packing_number(points_space([[0.0]]), 1.0).count == 1

    def test_two_far_points(self):
        assert packing_number(points_space([[0.0], [5.0]]), 2.0).count == 2

    def test_bad_radius(self):
        with pytest.raises(ArgumentError):
            packing_number(points_space([[0.0]]), 0.0)

    def test_uniform_line_vs_exhaustive(self):
        X = uniform_line(10)
        greedy = packing_number(X, 0.25)
        exact = exhaustive_max_packing(X.dist, 0.25)
        assert exact == exhaustive_packing_number(X, 0.25).count
        assert greedy.count in (2, 3)
        assert greedy.count >= exact / 2
        # certificate is a genuine packing
        for a in greedy.centers:
            for b in greedy.centers:
                if a != b:
                    assert X.dist[a, b] >= 2 * greedy.radius

    @settings(max_examples=40, deadline=None)
    @given(point_sets, st.floats(min_value=0.05, max_value=3.0))
    def test_antitone_in_radius(self, pts, r):
        X = points_space(pts)
        assert packing_number(X, r).count >= packing_number(X, r * 1.5).count

    @settings(max_examples=25, deadline=None)
    @given(point_sets, st.floats(min_value=0.05, max_value=2.0))
    @example([(-1.0, 1.0), (0.0, 0.0), (0.0, 4.0), (-4.0, 0.0)], 2.0)
    def test_greedy_at_least_exact_at_double_radius(self, pts, r):
        # greedy picks a maximal 2r-separated set N, so the balls B(n, 2r)
        # cover X and each holds at most one point of a 4r-separated set:
        # greedy(r) >= exact(2r).  Greedy >= exact(r) / 2 is false: the
        # example gives greedy(2) = 1, exact(2) = 3.
        X = points_space(pts)
        exact = exhaustive_max_packing(X.dist, 2 * r)
        assert packing_number(X, r).count >= exact


class TestHausdorff:
    def test_equal_sets(self):
        X = uniform_line(5)
        assert hausdorff_distance(X, [0, 2, 4], [0, 2, 4]) == 0.0

    def test_singletons(self):
        X = uniform_line(5)
        assert hausdorff_distance(X, [0], [4]) == pytest.approx(1.0)

    def test_endpoints_vs_grid(self):
        X = uniform_line(11)
        val = hausdorff_distance(X, [0, 10], list(range(11)))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_empty_rejected(self):
        X = uniform_line(3)
        with pytest.raises(ArgumentError):
            hausdorff_distance(X, [], [0])


def fixed_test_spaces():
    """Small spaces with distinctive shapes, all of size <= 6."""
    out = {
        "point": points_space([[0.0, 0.0]]),
        "pair": points_space([[0.0, 0.0], [2.0, 0.0]]),
        "equilateral1": FiniteMetricSpace(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], float)),
        "equilateral2": FiniteMetricSpace(2 * np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], float)),
        "square": points_space([[0, 0], [1, 0], [1, 1], [0, 1]]),
        "line5": uniform_line(5),
        "hex6": points_space(
            [(math.cos(2 * math.pi * i / 6), math.sin(2 * math.pi * i / 6)) for i in range(6)]
        ),
        "rand6": points_space(
            np.random.default_rng(7).uniform(-1, 1, size=(6, 2))
        ),
    }
    return out


class TestGromovHausdorff:
    def test_identity_is_zero(self):
        for X in fixed_test_spaces().values():
            lo, up = gh_bounds(X, X)
            assert lo == 0.0 and up == 0.0

    def test_point_vs_pair(self):
        X = points_space([[0.0]])
        Y = points_space([[0.0], [2.0]])
        lo, up = gh_bounds(X, Y)
        assert lo == pytest.approx(1.0) and up == pytest.approx(1.0)

    def test_scaled_equilateral(self):
        spaces = fixed_test_spaces()
        lo, up = gh_bounds(spaces["equilateral1"], spaces["equilateral2"])
        assert lo == pytest.approx(0.5) and up == pytest.approx(0.5)

    def test_symmetry(self):
        spaces = fixed_test_spaces()
        a = gh_bounds(spaces["square"], spaces["line5"])
        b = gh_bounds(spaces["line5"], spaces["square"])
        assert a == b

    def test_triangle_inequality_exact_triples(self):
        spaces = fixed_test_spaces()
        names = ["pair", "equilateral1", "square"]
        vals = {}
        for a in names:
            for b in names:
                vals[(a, b)] = gh_bounds(spaces[a], spaces[b])[1]
        for a in names:
            for b in names:
                for c in names:
                    assert vals[(a, c)] <= vals[(a, b)] + vals[(b, c)] + 1e-12

    def test_exact_matches_map_pair_oracle(self):
        spaces = fixed_test_spaces()
        small = {k: v for k, v in spaces.items() if v.n <= 5}
        names = sorted(small)
        for i, a in enumerate(names):
            for b in names[i:]:
                exact = gh_exact(small[a], small[b])
                oracle = gh_oracle(small[a].dist, small[b].dist)
                assert exact == pytest.approx(oracle, abs=1e-12), (a, b)

    def test_heuristic_brackets_exact(self):
        spaces = fixed_test_spaces()
        X, Y = spaces["hex6"], spaces["rand6"]
        exact = gh_exact(X, Y)
        lo, up = gh_bounds(X, Y, exact_limit=3)  # force the heuristic path
        assert lo <= exact + 1e-12
        assert up >= exact - 1e-12


class TestCsv:
    def test_distance_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,1\n1,0\n")
        X = load_distance_csv(path)
        assert X.labels == ["a", "b"]
        assert X.dist[0, 1] == 1.0

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1\n1\n")
        with pytest.raises(ArgumentError, match="ragged"):
            load_distance_csv(path)

    def test_square_point_cloud_is_not_a_distance_matrix(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0\n3,4\n")  # square, but its diagonal is not zero
        with pytest.raises(ArgumentError, match="not a distance matrix"):
            load_distance_csv(path)

    def test_points(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,0\n3,4\n")
        X = load_points_csv(path)
        assert X.dist[0, 1] == pytest.approx(5.0)

    def test_points_ragged(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,0\n3\n")
        with pytest.raises(ArgumentError, match="ragged"):
            load_points_csv(path)
