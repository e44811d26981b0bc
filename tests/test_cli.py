import json
import math
import subprocess
import sys

import numpy as np
import pytest

from currentlab.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_INVARIANT, EXIT_OK, main
from currentlab.currents import chain_from_json, chain_to_json, mass
from currentlab.meshes import disk_mesh, interval_chain, square_complex


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "currentlab.cli", *args], capture_output=True, text=True
    )
    return proc


@pytest.fixture()
def square_chain_path(tmp_path):
    C, T = square_complex()
    path = tmp_path / "square.json"
    path.write_text(json.dumps(chain_to_json(T)))
    return path


@pytest.fixture()
def triangle_cycle_path(tmp_path):
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    data = {
        "complex": {
            "vertices": pts,
            "simplices": {
                "0": [[0], [1], [2]],
                "1": [[0, 1], [0, 2], [1, 2]],
                "2": [[0, 1, 2]],
            },
        },
        "current": {"dim": 1, "coeffs": [[0, 1], [1, -1], [2, 1]]},
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(data))
    return path


class TestDispatch:
    def test_mass(self, square_chain_path):
        proc = run_cli(["mass", "--input", str(square_chain_path)])
        assert proc.returncode == EXIT_OK
        rep = json.loads(proc.stdout)
        assert rep["result"]["mass"] == pytest.approx(1.0)

    def test_boundary_chain_round_trip(self, square_chain_path):
        proc = run_cli(["boundary", "--input", str(square_chain_path)])
        rep = json.loads(proc.stdout)
        back = chain_from_json(rep["result"]["chain"])
        assert mass(back) == pytest.approx(4.0)

    def test_slice_summary(self, square_chain_path):
        proc = run_cli(
            ["slice", "--input", str(square_chain_path), "--function", "coord:0", "--level", "0.5"]
        )
        rep = json.loads(proc.stdout)
        assert rep["result"]["mass"] == pytest.approx(1.0, abs=1e-9)
        assert rep["result"]["levels"] == [0.5]
        back = chain_from_json(rep["result"]["chain"])
        assert back.dim == 1

    def test_fillvol_triangle(self, triangle_cycle_path):
        proc = run_cli(["fillvol", "--input", str(triangle_cycle_path)])
        assert proc.returncode == EXIT_OK
        rep = json.loads(proc.stdout)
        assert rep["result"]["value"] == pytest.approx(math.sqrt(3) / 4, rel=1e-9)

    def test_fillvol0(self, tmp_path):
        data = {"points": [[0.0, 0.0], [2.0, 0.0]], "theta": [1, 1], "sigma": [1, -1]}
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(data))
        proc = run_cli(["fillvol0", "--input", str(path)])
        rep = json.loads(proc.stdout)
        assert rep["result"]["value"] == pytest.approx(2.0)

    def test_gh_csv(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0,1\n1,0\n")
        b = tmp_path / "b.csv"
        b.write_text("0,2\n2,0\n")
        proc = run_cli(["gh", "--input", str(a), "--input2", str(b)])
        rep = json.loads(proc.stdout)
        assert rep["result"]["lower"] == pytest.approx(0.5)
        assert rep["result"]["upper"] == pytest.approx(0.5)

    def test_pack(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("\n".join(f"{x},0" for x in np.linspace(0, 1, 10)))
        proc = run_cli(["pack", "--input", str(pts), "--radius", "0.25"])
        rep = json.loads(proc.stdout)
        assert rep["result"]["count"] in (2, 3)

    def test_evaluate(self, square_chain_path, tmp_path):
        data = json.loads(square_chain_path.read_text())
        verts = data["complex"]["vertices"]
        data["functions"] = {
            "f": [1.0] * len(verts),
            "pis": [[v[0] for v in verts], [v[1] for v in verts]],
        }
        path = tmp_path / "with_fn.json"
        path.write_text(json.dumps(data))
        proc = run_cli(["evaluate", "--input", str(path)])
        rep = json.loads(proc.stdout)
        assert rep["result"]["value"] == pytest.approx(1.0)

    def test_product_and_ifv(self, tmp_path):
        C, T = interval_chain(1)
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(chain_to_json(T)))
        proc = run_cli(["product", "--input", str(path), "--epsilon", "0.5"])
        rep = json.loads(proc.stdout)
        assert rep["result"]["mass"] == pytest.approx(0.5)
        proc2 = run_cli(["ifv", "--input", str(path), "--epsilon", "0.1"])
        rep2 = json.loads(proc2.stdout)
        assert rep2["result"]["value"] == pytest.approx(0.1, rel=1e-9)

    def test_sf_sfk_tetra_sif(self, tmp_path):
        C, T = disk_mesh(h=0.25)
        path = tmp_path / "disk.json"
        path.write_text(json.dumps(chain_to_json(T)))
        proc = run_cli(["sf", "--input", str(path), "--center", "0", "--radius", "0.6", "--grid", "8"])
        assert proc.returncode == EXIT_OK
        rep = json.loads(proc.stdout)
        assert rep["result"]["integral"] > 0
        proc2 = run_cli(
            ["sfk", "--input", str(path), "--center", "0", "--radius", "0.6", "--k", "1", "--grid", "8", "--candidates", "2"]
        )
        assert proc2.returncode == EXIT_OK
        proc3 = run_cli(
            ["tetra", "--input", str(path), "--center", "0", "--radius", "0.6", "--beta", "0.5", "--C", "0.1", "--samples", "3", "--candidates", "2"]
        )
        assert proc3.returncode == EXIT_OK
        rep3 = json.loads(proc3.stdout)
        assert "passed" in rep3["result"] and "integral_passed" in rep3["result"]
        proc4 = run_cli(
            ["sif", "--input", str(path), "--center", "0", "--radius", "0.6", "--epsilon", "0.2", "--grid", "4"]
        )
        assert proc4.returncode == EXIT_OK

    def test_lab_semicontinuity(self):
        proc = run_cli(
            [
                "lab",
                "--family",
                "refined_disk",
                "--quantity",
                "semicontinuity",
                "--schedule",
                "0.3,0.2",
            ]
        )
        rep = json.loads(proc.stdout)
        assert rep["result"]["passed"] is True

    def test_lab_fillvol_on_sphere_family(self):
        proc = run_cli(
            ["lab", "--family", "refined_sphere", "--quantity", "fillvol", "--schedule", "4,6"]
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["result"]["passed"] is True


class TestErrors:
    def test_missing_file(self):
        proc = run_cli(["mass", "--input", "/nonexistent/file.json"])
        assert proc.returncode == EXIT_INPUT

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        proc = run_cli(["mass", "--input", str(path)])
        assert proc.returncode == EXIT_INPUT
        assert "line" in proc.stderr

    def test_missing_argument(self, square_chain_path):
        proc = run_cli(["ball", "--input", str(square_chain_path)])
        assert proc.returncode == EXIT_INPUT

    def test_bad_coefficients(self, tmp_path):
        data = {
            "complex": {"vertices": [[0, 0], [1, 0]], "simplices": {"1": [[0, 1]]}},
            "current": {"dim": 1, "coeffs": [[7, 1]]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = run_cli(["mass", "--input", str(path)])
        assert proc.returncode == EXIT_INPUT

    @pytest.mark.parametrize(
        "args",
        [
            ["slice", "--function", "coord:x"],
            ["slice", "--function", "dist:x"],
            ["slice", "--function", "coord:5"],
            ["slice", "--function", "dist:4"],
            ["ball", "--radius", "0.5", "--center", "9"],
            ["sf", "--radius", "0.5", "--witnesses", "a"],
            ["lab", "--schedule", "a,b"],
        ],
        ids=["coord-axis-text", "dist-vertex-text", "coord-axis-range", "dist-vertex-range",
             "center-range", "witnesses-text", "schedule-text"],
    )
    def test_malformed_option_values_exit_2(self, square_chain_path, args):
        if args[0] != "lab":
            args = args + ["--input", str(square_chain_path)]
        proc = run_cli(args)
        assert proc.returncode == EXIT_INPUT
        assert "input error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_invariant_violation_exits_1(self, triangle_cycle_path, monkeypatch, capsys):
        import currentlab.cli as cli
        from currentlab.fillvol import FillingReport

        monkeypatch.setattr(cli, "filling_volume", lambda *a: FillingReport(1.0, 2.0, 3.0))
        assert main(["fillvol", "--input", str(triangle_cycle_path)]) == EXIT_INVARIANT
        assert "invariant violated" in capsys.readouterr().err


    @pytest.mark.parametrize("coefficient", [2**63, -(2**63) - 1, 2**62])
    def test_coefficient_out_of_range_exits_2(self, tmp_path, capsys, coefficient):
        data = {
            "complex": {"vertices": [[0, 0], [1, 0]], "simplices": {"1": [[0, 1]]}},
            "current": {"dim": 1, "coeffs": [[0, coefficient]]},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        assert main(["mass", "--input", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error")

    def test_repeated_vertex_exits_2(self, tmp_path, capsys):
        data = {
            "complex": {"vertices": [[0.0, 0.0], [1.0, 0.0]], "simplices": {"1": [[0, 0]]}},
            "current": {"dim": 1, "coeffs": [[0, 1]]},
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(data))
        assert main(["mass", "--input", str(path)]) == EXIT_INPUT
        assert "degenerate simplex (0, 0)" in capsys.readouterr().err

    def test_flatnorm_second_current_missing_simplex_exits_2(self, tmp_path, capsys):
        data = {
            "complex": {
                "vertices": [[0, 0], [1, 0], [0, 1]],
                "simplices": {"1": [[0, 1], [0, 2], [1, 2]], "2": [[0, 1, 2]]},
            },
            "current": {"dim": 1, "coeffs": [[0, 1]]},
            "current_b": {"dim": 1, "coeffs": [[7, 1]]},
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(data))
        assert main(["flatnorm", "--input", str(path)]) == EXIT_INPUT
        assert "missing 1-simplex 7" in capsys.readouterr().err

    def test_internal_error_exits_3(self, square_chain_path, monkeypatch, capsys, caplog):
        import logging

        import currentlab.cli as cli

        def broken(config):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "dispatch", broken)
        assert main(["mass", "--input", str(square_chain_path)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"
        assert not [r for r in caplog.records if r.exc_info]
        with caplog.at_level(logging.DEBUG, logger="currentlab"):
            assert main(["mass", "--input", str(square_chain_path)]) == EXIT_INTERNAL
        assert [r for r in caplog.records if r.exc_info and r.levelno == logging.DEBUG]


class TestDeterminism:
    def test_byte_identical_reports(self, square_chain_path, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(
                [
                    "slice",
                    "--input",
                    str(square_chain_path),
                    "--function",
                    "coord:0",
                    "--level",
                    "0.3",
                    "--output",
                    str(out),
                ]
            )
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path):
        proc = run_cli(
            [
                "lab",
                "--family",
                "refined_disk",
                "--quantity",
                "semicontinuity",
                "--schedule",
                "0.3,0.25",
                "--format",
                "csv",
            ]
        )
        assert proc.returncode == EXIT_OK
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("diameter")
        assert len(lines) == 3

    def test_chain_json_reparses_equal(self, tmp_path):
        C, T = disk_mesh(h=0.3)
        data = chain_to_json(T)
        text = json.dumps(data, sort_keys=True)
        back = chain_from_json(json.loads(text))
        assert back.signature() == T.signature()
        assert json.dumps(chain_to_json(back), sort_keys=True) == text
