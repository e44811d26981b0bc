"""Complexes as id arrays: the array face closure and `from_simplices`
against their one-simplex-at-a-time references, and the builders that
must never materialise a tuple list."""
import json

import numpy as np
import pytest

from currentlab.complexes import ComplexError, EuclideanMetric, GeometricComplex, close_under_faces
from currentlab.convergence import build_family, joined_complex
from currentlab.currents import SimplicialCurrent, chain_from_json, chain_to_json, push_forward
from currentlab.meshes import (
    add_spikes,
    disk_mesh,
    euclidean_box_mesh,
    full_torus_mesh,
    grid_mesh,
    interval_chain,
    sphere_mesh,
    square_complex,
    torus_patch_mesh,
)
from currentlab.metricspace import ArgumentError
from currentlab.product import product_current

from oracles import close_under_faces_oracle, from_simplices_oracle


def _builders():
    sphere_euc = sphere_mesh(6, 12, metric="euclidean")
    return {
        "interval": lambda: interval_chain(5),
        "square": square_complex,
        "grid": lambda: grid_mesh(3, 2),
        "disk": lambda: disk_mesh(h=0.3),
        "sphere": lambda: sphere_mesh(6, 12),
        "sphere_euclidean": lambda: sphere_euc,
        "spikes": lambda: add_spikes(*sphere_euc, 3, width=0.1)[:2],
        "box": lambda: euclidean_box_mesh(0.5, 2),
        "torus_patch": lambda: torus_patch_mesh(0.4, 0.3, 3),
        "full_torus": lambda: full_torus_mesh(0.5, cells=(3, 3, 3)),
    }


def _glue_join():
    (CA, TA), (CB, TB) = build_family("refined_sphere", [4, 6]).members()
    return (CA, CB), joined_complex(CA, TA, CB, TB)


def _lifted_disk(h):
    C, T = disk_mesh(h=h)
    pts = np.hstack([C.coords(), np.zeros((C.n_vertices, 1))])
    C3 = GeometricComplex.from_top_simplices(EuclideanMetric(pts), C.simplex_array(2))
    return C3, push_forward(T, list(range(C.n_vertices)), C3)


def _assert_same_closure(got, want):
    assert sorted(got) == sorted(want)
    for k, faces in want.items():
        assert got[k].dtype == np.intp
        assert got[k].tolist() == [list(s) for s in faces]


class TestCloseUnderFaces:
    @pytest.mark.parametrize("name", list(_builders()))
    def test_mesh_builder_tops(self, name):
        C, _ = _builders()[name]()
        tops = C.simplex_array(C.top_dim)
        _assert_same_closure(close_under_faces(tops), close_under_faces_oracle(tops.tolist()))

    def test_mixed_dimension_tops_of_a_glue_join(self):
        _, (K, *_) = _glue_join()
        assert K.count(3) > 0
        rng = np.random.default_rng(5)
        tops = K.simplices[2] + K.simplices[3]
        tops = [tops[i] for i in rng.permutation(len(tops))]
        want = close_under_faces_oracle(tops)
        _assert_same_closure(close_under_faces(tops), want)
        _assert_same_closure(close_under_faces(K.simplex_array(3), K.simplex_array(2)), want)

    def test_shuffled_duplicated_and_permuted_rows(self):
        C, _ = disk_mesh(h=0.3)
        rng = np.random.default_rng(11)
        tops = C.simplex_array(2)
        tops = np.vstack([tops, tops[rng.integers(len(tops), size=20)]])[rng.permutation(len(tops) + 20)]
        tops = np.take_along_axis(tops, rng.permuted(np.tile([0, 1, 2], (len(tops), 1)), axis=1), axis=1)
        _assert_same_closure(close_under_faces(tops), close_under_faces_oracle(tops.tolist()))

    def test_degenerate_row_raises_the_same_error(self):
        tops = [(0, 1, 2), (1, 3, 2), (4, 2, 4)]
        with pytest.raises(ComplexError) as want:
            close_under_faces_oracle(tops)
        with pytest.raises(ComplexError) as got:
            close_under_faces(tops)
        assert str(got.value) == str(want.value) == "degenerate simplex (4, 2, 4)"
        with pytest.raises(ComplexError, match=r"degenerate simplex \(4, 2, 4\)"):
            close_under_faces(np.array(tops))


def test_from_simplices_matches_the_permutation_sign_loop():
    C, _ = grid_mesh(3, 3)
    rng = np.random.default_rng(23)
    for trial in range(60):
        k = int(rng.integers(3))
        sims = C.simplex_array(k)
        pairs = []
        for i in rng.integers(len(sims), size=int(rng.integers(1, 8))):
            s = rng.permutation(sims[i]).tolist()
            pairs.append((tuple(s), int(rng.integers(-3, 4))))
        if trial % 4 == 1 and k:  # a repeated vertex
            s = list(pairs[-1][0])
            s[0] = s[-1]
            pairs.insert(int(rng.integers(len(pairs))), (tuple(s), 1))
        if trial % 4 == 2 and k:  # vertices that span no simplex
            pairs.append((tuple(int(v) for v in rng.choice([0, 7, 15], size=k + 1, replace=False)), 2))
        try:
            want = from_simplices_oracle(C, k, pairs)
        except ArgumentError as exc:
            with pytest.raises(ArgumentError) as got:
                SimplicialCurrent.from_simplices(C, k, pairs)
            assert str(got.value) == str(exc)
            continue
        got = SimplicialCurrent.from_simplices(C, k, pairs)
        assert np.array_equal(got.idx, want.idx) and np.array_equal(got.coeff, want.coeff)


def _assert_no_tuple_lists(*complexes):
    for C in complexes:
        assert not C.simplices._lists


class TestNoTupleLists:
    @pytest.mark.parametrize("name", list(_builders()))
    def test_mesh_builders(self, name):
        C, T = _builders()[name]()
        _assert_no_tuple_lists(C, T.complex)

    def test_product_current(self):
        C, T = disk_mesh(h=0.3)
        P, pc = product_current(T, 0.2, layers=2)
        _assert_no_tuple_lists(C, pc.base, pc.complex, P.complex)

    def test_glue_join(self):
        (CA, CB), (K, *_) = _glue_join()
        _assert_no_tuple_lists(CA, CB, K)

    def test_natural_join_in_3d(self):
        (CA, TA), (CB, TB) = _lifted_disk(0.5), _lifted_disk(0.4)
        K, _, _, emb, _ = joined_complex(CA, TA, CB, TB)
        assert emb.ambient is None and K.count(3) > 0
        _assert_no_tuple_lists(CA, CB, K)

    def test_complex_from_json(self):
        _, T = grid_mesh(2, 2)
        S = chain_from_json(json.loads(json.dumps(chain_to_json(T))))
        _assert_no_tuple_lists(S.complex)
