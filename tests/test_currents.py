import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currentlab.complexes import EuclideanMetric, GeometricComplex, PLFunction, coordinate_function
from currentlab.currents import (
    SimplicialCurrent,
    boundary,
    chain_from_json,
    chain_to_json,
    evaluate,
    load_off,
    mass,
    permutation_sign,
    push_forward,
    total_mass,
)
from currentlab.meshes import grid_mesh, interval_chain, square_complex
from currentlab.metricspace import ArgumentError
from currentlab.slicing import restrict_sublevel, subdivide_at_level

from oracles import boundary_oracle, push_forward_oracle, signature, support_simplices


def triangle_complex(side=1.0):
    pts = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]])
    C = GeometricComplex.from_top_simplices(EuclideanMetric(pts), [(0, 1, 2)])
    return C


def random_chain(rng, max_pts=8):
    """Random embedded 2-complex with a random integer 2-chain."""
    n = rng.integers(4, max_pts + 1)
    pts = rng.uniform(-1, 1, size=(n, 3))
    tris = set()
    for _ in range(rng.integers(2, 6)):
        tri = tuple(sorted(rng.choice(n, size=3, replace=False)))
        tris.add(tri)
    C = GeometricComplex.from_top_simplices(EuclideanMetric(pts), sorted(tris))
    coeffs = {i: int(rng.integers(-3, 4)) for i in range(C.count(2))}
    return SimplicialCurrent(C, 2, coeffs)


chain_strategy = st.builds(
    lambda seed: random_chain(np.random.default_rng(seed)),
    st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=40, deadline=None)
@given(chain_strategy)
def test_boundary_squared_vanishes_property(T):
    assert boundary(boundary(T)).is_zero()


@settings(max_examples=40, deadline=None)
@given(chain_strategy, st.integers(min_value=-3, max_value=3))
def test_boundary_is_linear(T, scale):
    lhs = boundary(scale * T)
    rhs = scale * boundary(T)
    assert (lhs - rhs).is_zero()


@settings(max_examples=40, deadline=None)
@given(chain_strategy)
def test_mass_is_absolutely_homogeneous(T):
    assert mass(-T) == pytest.approx(mass(T))
    assert mass(2 * T) == pytest.approx(2 * mass(T))


class TestPermutationSign:
    def test_identity(self):
        assert permutation_sign((1, 2, 3)) == 1

    def test_swap(self):
        assert permutation_sign((2, 1, 3)) == -1

    def test_degenerate(self):
        assert permutation_sign((1, 1, 2)) == 0


class TestBoundary:
    def test_single_edge(self):
        C, T = interval_chain(1)
        B = boundary(T)
        coeffs = {C.simplices[0][i]: c for i, c in B.coeffs.items()}
        assert coeffs == {(1,): 1, (0,): -1}

    def test_closed_triangle_loop(self):
        C = triangle_complex()
        loop = SimplicialCurrent.from_simplices(C, 1, [((0, 1), 1), ((1, 2), 1), ((2, 0), 1)])
        assert boundary(loop).is_zero()

    def test_two_simplex_alternating_signs(self):
        C = triangle_complex()
        T = SimplicialCurrent.from_simplices(C, 2, [((0, 1, 2), 1)])
        B = boundary(T)
        coeffs = {C.simplices[1][i]: c for i, c in B.coeffs.items()}
        assert coeffs == {(1, 2): 1, (0, 2): -1, (0, 1): 1}

    def test_zero_dim_boundary_is_zero(self):
        C = triangle_complex()
        P = SimplicialCurrent.from_simplices(C, 0, [((0,), 1)])
        assert boundary(P).is_zero()

    def test_boundary_squared_vanishes_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            T = random_chain(rng)
            assert boundary(boundary(T)).is_zero()


class TestMass:
    def test_weighted_edge(self):
        C, T = interval_chain(1)
        assert mass(3 * T) == pytest.approx(3.0)

    def test_right_triangle_area(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        C = GeometricComplex.from_top_simplices(EuclideanMetric(pts), [(0, 1, 2)])
        T = SimplicialCurrent.from_simplices(C, 2, [((0, 1, 2), 1)])
        assert mass(T) == pytest.approx(0.5)

    def test_equilateral_with_multiplicity(self):
        C = triangle_complex()
        T = SimplicialCurrent.from_simplices(C, 2, [((0, 1, 2), -2)])
        assert mass(T) == pytest.approx(2 * math.sqrt(3) / 4, rel=1e-12)

    def test_subadditive_and_disjoint_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            T1 = random_chain(rng)
            T2 = SimplicialCurrent(T1.complex, 2, {i: int(rng.integers(-2, 3)) for i in T1.coeffs})
            assert mass(T1 + T2) <= mass(T1) + mass(T2) + 1e-12
        C, _ = grid_mesh(4, 1)
        left = SimplicialCurrent(C, 2, {0: 1})
        other = [i for i in range(C.count(2)) if not set(C.simplices[2][i]) & set(C.simplices[2][0])]
        right = SimplicialCurrent(C, 2, {other[0]: 2})
        assert mass(left + right) == pytest.approx(mass(left) + mass(right))


class TestTotalMass:
    def test_zero(self):
        C = triangle_complex()
        assert total_mass(SimplicialCurrent.zero(C, 1)) == 0.0

    def test_unit_edge(self):
        _, T = interval_chain(1)
        assert total_mass(T) == pytest.approx(3.0)

    def test_closed_loop(self):
        C = triangle_complex()
        loop = SimplicialCurrent.from_simplices(C, 1, [((0, 1), 1), ((1, 2), 1), ((2, 0), 1)])
        assert total_mass(loop) == pytest.approx(3.0)


class TestPushForward:
    def test_identity(self):
        C, T = square_complex()
        assert push_forward(T, list(range(C.n_vertices)), C) == T

    def test_collapse_to_zero(self):
        C, T = interval_chain(1)
        out = push_forward(T, [0, 0], C)
        assert out.is_zero()

    def test_isometric_relabeling_preserves_mass(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        C1 = GeometricComplex.from_top_simplices(EuclideanMetric(pts), [(0, 1, 2)])
        perm = [2, 0, 1]
        C2 = GeometricComplex.from_top_simplices(EuclideanMetric(pts[np.argsort(perm)]), [(0, 1, 2)])
        T = SimplicialCurrent.from_simplices(C1, 2, [((0, 1, 2), 1)])
        out = push_forward(T, perm, C2)
        assert abs(mass(out) - mass(T)) < 1e-12

    def test_commutes_with_boundary(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            T = random_chain(rng)
            n = T.complex.n_vertices
            perm = list(rng.permutation(n))
            pts = T.complex.coords()
            inv = np.argsort(perm)
            C2 = GeometricComplex.from_top_simplices(
                EuclideanMetric(pts[inv]),
                [tuple(sorted(perm[v] for v in s)) for s in T.complex.simplices[2]],
            )
            lhs = boundary(push_forward(T, perm, C2))
            rhs = push_forward(boundary(T), perm, C2)
            assert (lhs - rhs).is_zero()

    def test_unmapped_vertex_rejected(self):
        C, T = interval_chain(1)
        with pytest.raises(ArgumentError):
            push_forward(T, {0: 0}, C)

    def test_matches_oracle_on_random_vertex_maps(self):
        """The array code gives the per-coefficient oracle's (idx, coeff)
        arrays exactly: signs of permuted images, degenerate images dropped,
        and ArgumentError from both for uncovered vertices and missing image
        simplices."""
        rng = np.random.default_rng(41)
        raised, flipped, dropped = set(), 0, 0
        for _ in range(80):
            for kind, T, vmap, target in _vertex_map_cases(rng):
                try:
                    want = push_forward_oracle(T, vmap, target)
                except ArgumentError:
                    with pytest.raises(ArgumentError):
                        push_forward(T, vmap, target)
                    raised.add(kind)
                    continue
                got = push_forward(T, vmap, target)
                assert got.complex is target and got.dim == T.dim
                assert np.array_equal(got.idx, want.idx) and np.array_equal(got.coeff, want.coeff)
                flipped += any(permutation_sign([vmap[v] for v in s]) < 0 for s in support_simplices(T))
                dropped += any(permutation_sign([vmap[v] for v in s]) == 0 for s in support_simplices(T))
        assert {"uncovered", "missing"} <= raised and flipped and dropped


def _vertex_map_cases(rng):
    """(kind, chain, vertex map, target) over seeded random vertex maps."""
    T = random_chain(rng)
    C = T.complex
    n = C.n_vertices
    kind = ["permuted", "collapsing", "uncovered", "missing"][int(rng.integers(4))]
    m = n - 1 if kind == "collapsing" else n
    vmap = [int(v) for v in (rng.integers(0, m, n) if kind == "collapsing" else rng.permutation(n))]
    tops = {tuple(sorted(vmap[v] for v in s)) for s in C.simplices[2]}
    tops = sorted(s for s in tops if len(set(s)) == 3)
    if kind == "missing":
        tops = tops[1:]
    target = GeometricComplex.from_top_simplices(EuclideanMetric(rng.uniform(-1, 1, (m, 2))), tops)
    if kind == "uncovered":
        gone = int(rng.choice(T.support_vertices()))
        vmap = {v: w for v, w in enumerate(vmap) if v != gone} if rng.integers(2) else vmap[:gone]
    chains = [
        T,
        boundary(T),
        SimplicialCurrent(C, 1, {i: int(rng.integers(-3, 4)) for i in range(C.count(1))}),
        SimplicialCurrent(C, 0, {i: int(rng.integers(-3, 4)) for i in range(n)}),
    ]
    return [(kind, chain, vmap, target) for chain in chains]


class TestRestrict:
    def test_subdivided_chain_length(self):
        C, T = interval_chain(10)
        f = coordinate_function(C, 0)
        out = restrict_sublevel(T, f, 0.35)
        assert mass(out) == pytest.approx(0.35, abs=1e-9)

    def test_partition_identity(self):
        # both sides cut on one shared refinement recompose the current
        # exactly, and the lower side is the sublevel restriction
        C, T = square_complex()
        f = coordinate_function(C, 0)
        ref = subdivide_at_level(C, f.values, 0.37)
        T2 = ref.transfer_current(T)
        keep = ref.below(2)
        low = SimplicialCurrent(ref.complex, 2, {i: c for i, c in T2.coeffs.items() if keep[i]})
        high = SimplicialCurrent(ref.complex, 2, {i: c for i, c in T2.coeffs.items() if not keep[i]})
        assert (low + high - T2).is_zero()
        assert mass(low) + mass(high) == pytest.approx(mass(T), abs=1e-9)
        assert mass(low) == pytest.approx(0.37, abs=1e-7)
        assert signature(restrict_sublevel(T, f, 0.37)) == signature(low)


class TestEvaluate:
    def test_constant_projection_vanishes(self):
        C, T = square_complex()
        f = PLFunction(C, np.ones(C.n_vertices))
        const = PLFunction(C, np.full(C.n_vertices, 2.5))
        x = coordinate_function(C, 0)
        assert evaluate(T, f, [x, const]) == pytest.approx(0.0, abs=1e-15)

    def test_fundamental_theorem_on_edge(self):
        C, T = interval_chain(1)
        one = PLFunction(C, np.ones(2))
        x = coordinate_function(C, 0)
        assert evaluate(T, one, [x]) == pytest.approx(1.0)

    def test_swap_negates(self):
        C, T = square_complex()
        one = PLFunction(C, np.ones(C.n_vertices))
        x, y = coordinate_function(C, 0), coordinate_function(C, 1)
        assert evaluate(T, one, [x, y]) == pytest.approx(-evaluate(T, one, [y, x]))
        assert evaluate(T, one, [x, y]) == pytest.approx(1.0)

    def test_multilinearity(self):
        C, T = square_complex()
        rng = np.random.default_rng(1)
        one = PLFunction(C, np.ones(C.n_vertices))
        a = PLFunction(C, rng.normal(size=C.n_vertices))
        b = PLFunction(C, rng.normal(size=C.n_vertices))
        y = coordinate_function(C, 1)
        combo = PLFunction(C, 2.0 * a.values + 3.0 * b.values)
        lhs = evaluate(T, one, [combo, y])
        rhs = 2 * evaluate(T, one, [a, y]) + 3 * evaluate(T, one, [b, y])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_mass_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            T = random_chain(rng)
            C = T.complex
            f = PLFunction(C, rng.normal(size=C.n_vertices))
            pis = [PLFunction(C, rng.normal(size=C.n_vertices)) for _ in range(2)]
            val = abs(evaluate(T, f, pis))
            bound = mass(T) * np.abs(f.values).max() * pis[0].lip * pis[1].lip
            assert val <= bound + 1e-9

    def test_dimension_mismatch(self):
        C, T = square_complex()
        x = coordinate_function(C, 0)
        with pytest.raises(ArgumentError):
            evaluate(T, x, [x])


class TestInterchange:
    def test_json_round_trip(self):
        C, T = square_complex()
        data = chain_to_json(T)
        back = chain_from_json(json.loads(json.dumps(data)))
        assert back.dim == T.dim
        assert signature(back) == signature(T)
        assert mass(back) == pytest.approx(mass(T))

    def test_off_import(self, tmp_path):
        path = tmp_path / "tri.off"
        path.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        C = load_off(path)
        assert C.count(2) == 1 and C.count(1) == 3 and C.count(0) == 3
        assert C.masses(2)[0] == pytest.approx(0.5)


def test_coefficient_view_reads_the_arrays():
    C, T = grid_mesh(2, 2)
    view = T.coeffs
    assert len(view) == len(T.idx) == C.count(2)
    assert list(view) == T.idx.tolist()
    assert "_dict" not in vars(view)  # neither len nor iteration builds the dict
    assert dict(view) == dict(zip(T.idx.tolist(), T.coeff.tolist()))
    S = SimplicialCurrent.from_arrays(C, 2, [3, 1, 3, 0], [1, 2, -1, 0])
    assert S.idx.tolist() == [1] and S.coeff.tolist() == [2]


class TestCoefficientRange:
    """Coefficients are int64: construction rejects magnitudes summing to
    2**62 or more, so chain arithmetic raises instead of wrapping."""

    def test_out_of_range_input_rejected(self):
        C, _ = grid_mesh(2, 2)
        for coeffs in ({0: 2**63}, {0: -(2**63)}, {0: 2**62}, {0: 2**61, 1: -(2**61)}):
            with pytest.raises(ArgumentError, match=r"2\*\*62"):
                SimplicialCurrent(C, 2, coeffs)
        with pytest.raises(ArgumentError):
            SimplicialCurrent.from_arrays(C, 2, [0, 0], [2**61, 2**61])
        with pytest.raises(ArgumentError):
            SimplicialCurrent.full(C, 2, 2**61)

    def test_arithmetic_raises_instead_of_wrapping(self):
        C, _ = grid_mesh(2, 2)
        T = SimplicialCurrent(C, 2, {0: 2**61, 1: -(2**60)})
        for op in (lambda: T * 4, lambda: T * 2**70, lambda: T + T, lambda: T - (-T), lambda: boundary(T)):
            with pytest.raises(ArgumentError):
                op()
        S = SimplicialCurrent(C, 2, {0: 2**59, 3: -5})
        assert dict((S * 3).coeffs) == {0: 3 * 2**59, 3: -15}
        assert dict((S + S).coeffs) == {0: 2**60, 3: -10}
        assert dict(boundary(S).coeffs) == dict(boundary_oracle(S).coeffs)
        assert (SimplicialCurrent.zero(C, 2) * 2**70).is_zero()
