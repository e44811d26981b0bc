"""The glued ambient of glue-mode joins and the lab's continuity pair checks."""
import numpy as np
import pytest

from currentlab import cli
from currentlab.complexes import MatrixMetric, GeometricComplex
from currentlab.convergence import build_family, common_embed, continuity_sweep
from currentlab.fillvol import FillingReport
from currentlab.meshes import disk_mesh, grid_mesh
from currentlab.metricspace import InvariantError, MetricError

from oracles import glued_matrix_oracle


def _identity_grid():
    C, _ = grid_mesh(2, 2)
    return C, C, [(v, v) for v in range(C.n_vertices)]


def _disk_pair():
    return disk_mesh(h=0.25)[0], disk_mesh(h=0.2)[0], None


def _sphere_pair():
    (CA, _), (CB, _) = build_family("refined_sphere", [4, 6]).members()
    return CA, CB, None


@pytest.mark.parametrize("case", [_identity_grid, _disk_pair, _sphere_pair], ids=["grid", "disk", "sphere"])
def test_glued_matrix_matches_per_pair_oracle(case):
    """The per-A-vertex cross block is the per-pair loop bit for bit, and the
    unvalidated glued matrix passes the full triangle check."""
    CA, CB, pairs = case()
    emb = common_embed(CA, CB, pairs)
    want = glued_matrix_oracle(CA, CB, emb.correspondence, emb.delta)
    assert np.array_equal(emb.ambient.dist, want)
    emb.ambient.validate()


def test_matrix_block_is_validated_before_gluing():
    # d(0, 2) = 3 > d(0, 1) + d(1, 2) = 2: outside data that is no metric
    bad = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    C = GeometricComplex.from_top_simplices(MatrixMetric(bad), [(0, 1), (1, 2)])
    with pytest.raises(MetricError, match="triangle"):
        common_embed(C, C, [(0, 0), (1, 1), (2, 2)])


@pytest.fixture(scope="module")
def disk_sweep():
    fam = build_family("refined_disk", [0.2, 0.1])
    return continuity_sweep(fam, "fillvol", {"radius": 0.5})


@pytest.fixture(scope="module")
def sphere_sweep():
    fam = build_family("refined_sphere", [4, 6])
    return continuity_sweep(fam, "fillvol", {"radius": 0.5})


def test_pair_row_fields(disk_sweep):
    (row,) = disk_sweep["pair_checks"]
    assert set(row) == {"gap", "bound", "delta", "trivial", "informative"}
    assert row["gap"] <= row["bound"] + 1e-6


def test_planar_disk_pairs_are_informative(disk_sweep):
    # the planar flat distance is far below M(A) + M(B): the check can fail
    for row in disk_sweep["pair_checks"]:
        assert row["informative"] is True
        assert row["bound"] < 0.01 * row["trivial"]


def test_glued_sphere_pairs_are_trivial(sphere_sweep):
    # glue mode's flat distance is the trivial decomposition M(A) + M(B)
    for row in sphere_sweep["pair_checks"]:
        assert row["informative"] is False
        assert row["bound"] == pytest.approx(row["trivial"], rel=1e-9, abs=0)


def _stub_flat_below_gap(monkeypatch):
    import currentlab.fillvol as fillvol

    monkeypatch.setattr(fillvol, "flat_distance", lambda *a: FillingReport(0.0, 0.0, 0.0))


def test_gap_above_bound_raises(monkeypatch):
    _stub_flat_below_gap(monkeypatch)
    fam = build_family("refined_disk", [0.2, 0.1])
    with pytest.raises(InvariantError, match="exceeds flat distance"):
        continuity_sweep(fam, "fillvol", {"radius": 0.5})


def test_gap_above_bound_exits_1(monkeypatch, capsys):
    _stub_flat_below_gap(monkeypatch)
    args = ["lab", "--family", "refined_disk", "--quantity", "fillvol", "--schedule", "0.2,0.1"]
    assert cli.main(args) == cli.EXIT_INVARIANT
    assert "invariant violated" in capsys.readouterr().err
