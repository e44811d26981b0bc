import json
import math
import subprocess
import sys

import numpy as np
import pytest

from currentlab.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_INVARIANT, EXIT_OK, main, write_report
from currentlab.currents import chain_from_json, chain_to_json, mass
from currentlab.meshes import disk_mesh, interval_chain, square_complex

from oracles import signature


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
        json.loads(proc.stdout)

    def test_lab_fillvol_on_thin_torus(self, capsys):
        # the join's glue prisms are 4-simplices, split by the one pulling rule;
        # glue-mode bounds equal the trivial M(A) + M(B), as on the spheres
        code, rep, err = _main_json(
            ["lab", "--family", "thin_torus", "--quantity", "fillvol", "--schedule", "0.5,0.25"], capsys
        )
        assert code == EXIT_OK, err
        (row,) = rep["result"]["pair_checks"]
        assert row["informative"] is False
        assert row["bound"] == pytest.approx(row["trivial"], rel=1e-9)
        assert 0 < row["gap"] <= row["bound"]


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

    @pytest.mark.parametrize(
        "args",
        [
            ["ifv", "--epsilon", "nan"],
            ["ifv", "--epsilon", "inf"],
            ["product", "--epsilon", "nan"],
            ["sif", "--radius", "0.5", "--epsilon", "nan"],
            ["ball", "--radius", "nan"],
            ["sphere", "--radius", "nan"],
            ["tetra", "--radius", "nan"],
            ["tetra", "--radius", "0.5", "--beta=-inf"],
            ["tetra", "--radius", "0.5", "--C", "inf"],
            ["slice", "--level", "nan"],
        ],
    )
    def test_non_finite_float_options_exit_2(self, square_chain_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--input", str(square_chain_path)])
        assert exc.value.code == EXIT_INPUT
        assert "invalid finite value" in capsys.readouterr().err

    def test_distance_csv_breaking_the_axioms_exits_2(self, tmp_path, capsys):
        # square, symmetric and zero-diagonal: a distance matrix with
        # d(0,2) = 5 > d(0,1) + d(1,2), never re-read as three points
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1,5\n1,0,1\n5,1,0\n")
        good = tmp_path / "good.csv"
        good.write_text("0,1,1\n1,0,1\n1,1,0\n")
        assert main(["pack", "--input", str(bad), "--radius", "0.6"]) == EXIT_INPUT
        assert main(["gh", "--input", str(good), "--input2", str(bad)]) == EXIT_INPUT
        assert capsys.readouterr().err.count("triangle inequality violated") == 2

    @pytest.mark.parametrize(
        "distances, command, message",
        [
            ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], "mass", "triangle inequality violated"),
            ([[0, 1, 1], [2, 0, 1], [1, 1, 0]], "fillvol", "asymmetry at (0,1)"),
            ([[0, -1, 1], [-1, 0, 1], [1, 1, 0]], "fillvol", "negative distance at (0,1)"),
            ([[0.5, 1, 1], [1, 0, 1], [1, 1, 0]], "fillvol", "nonzero diagonal at index 0"),
            ([[0, math.nan, 1], [math.nan, 0, 1], [1, 1, 0]], "mass", "non-finite distance at (0,1)"),
        ],
        ids=["triangle", "asymmetric", "negative", "diagonal", "non-finite"],
    )
    def test_chain_distances_breaking_the_axioms_exit_2(self, tmp_path, capsys, distances, command, message):
        # each exited 0: mass 7.0 over the triangle-breaking matrix, fillvol
        # sqrt(3)/4 over the others
        data = {
            "complex": {"distances": distances, "simplices": {"1": [[0, 1], [0, 2], [1, 2]], "2": [[0, 1, 2]]}},
            "current": {"dim": 1, "coeffs": [[0, 1], [1, -1], [2, 1]]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = _main_json([command, "--input", str(path)], capsys)
        assert code == EXIT_INPUT
        assert "bad chain payload" in err and message in err

    def test_overflowing_simplex_volumes_exit_2(self, tmp_path):
        # exited 0 after numpy overflow warnings, printing "mass": NaN and
        # "boundary_mass": Infinity, which is not JSON
        data = {
            "complex": {
                "vertices": [[1e200, 0.0], [1.0, 0.0], [0.0, 1.0]],
                "simplices": {"1": [[0, 1], [0, 2], [1, 2]], "2": [[0, 1, 2]]},
            },
            "current": {"dim": 2, "coeffs": [[0, 1]]},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        proc = run_cli(["mass", "--input", str(path)])
        assert proc.returncode == EXIT_INPUT
        assert "NaN" not in proc.stdout and "Infinity" not in proc.stdout
        assert "non-finite volume" in proc.stderr and "RuntimeWarning" not in proc.stderr
        with pytest.raises(ValueError):
            write_report({"result": {"mass": math.nan}}, None)

    @pytest.mark.parametrize("theta", [[1.5, 1.5], [0.9, 0.9]])
    def test_fillvol0_non_integer_weights_exit_2(self, tmp_path, capsys, theta):
        # [1.5, 1.5] was read as [1, 1] and reported value 5.0
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": [[0.0, 0.0], [5.0, 0.0]], "theta": theta, "sigma": [1, -1]}))
        code, _, err = _main_json(["fillvol0", "--input", str(path)], capsys)
        assert code == EXIT_INPUT
        assert "weights must be positive integers" in err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            # each exited 0 at first: coefficient 1.5 read as 1, index 0.9 as
            # simplex 0, edge [1, 2.7] as [1, 2], a repeated index by its last
            # coefficient, a nan vertex into a report with a bare NaN
            (("current", "coeffs", 0, 1), 1.5, "must be integers"),
            (("current", "coeffs", 0, 0), 0.9, "must be integers"),
            (("complex", "simplices", "1", 2, 1), 2.7, "1-simplex vertex ids must be integers"),
            (("current", "coeffs", 1), [0, 1], "list a simplex index twice"),
            (("complex", "vertices", 1, 0), math.nan, "finite coordinates"),
            (("complex", "vertices", 2, 1), -math.inf, "finite coordinates"),
            (("current", "dim"), -1, "nonnegative integer"),  # exit 3
            (("current", "dim"), 1.5, "chain dim must be integers"),
            (("current", "dim"), "1", "chain dim must be integers"),
            (("complex", "simplices", "-1"), [[0]], "negative"),
        ],
        ids=["coefficient", "index", "vertex-id", "repeated-index", "nan-vertex", "inf-vertex",
             "negative-dim", "fractional-dim", "string-dim", "negative-simplex-dim"],
    )
    def test_malformed_chain_payload_exits_2(self, triangle_cycle_path, capsys, path, value, message):
        data = json.loads(triangle_cycle_path.read_text())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        triangle_cycle_path.write_text(json.dumps(data))
        code, _, err = _main_json(["mass", "--input", str(triangle_cycle_path)], capsys)
        assert code == EXIT_INPUT
        assert "bad chain payload" in err and message in err

    def test_integer_valued_floats_are_integers(self, triangle_cycle_path, capsys):
        want = _main_json(["mass", "--input", str(triangle_cycle_path)], capsys)
        data = json.loads(triangle_cycle_path.read_text())
        data["current"] = {"dim": 1.0, "coeffs": [[0.0, 1.0], [1, -1.0], [2.0, 1]]}
        data["complex"]["simplices"]["2"] = [[0.0, 1.0, 2.0]]
        triangle_cycle_path.write_text(json.dumps(data))
        assert _main_json(["mass", "--input", str(triangle_cycle_path)], capsys) == want

    @pytest.mark.parametrize("points, theta, sigma", [(2, [1, 1, 1, 1], [1, -1, 1, -1]), (3, [1, 1], [1, -1])])
    def test_fillvol0_needs_one_weight_per_point(self, tmp_path, capsys, points, theta, sigma):
        # 4 weights on 2 points exited 3 (IndexError); 2 weights on 3 points
        # exited 0 and ignored the third
        path = tmp_path / "pts.json"
        data = {"points": [[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]][:points], "theta": theta, "sigma": sigma}
        path.write_text(json.dumps(data))
        code, _, err = _main_json(["fillvol0", "--input", str(path)], capsys)
        assert code == EXIT_INPUT
        assert "one weight and sign per point" in err

    def test_non_finite_distance_csv_exits_2(self, tmp_path, capsys):
        # pack found 2 centers and gh reported lower = upper = 0: every
        # comparison with nan is false, so nan passed the axiom checks
        bad = tmp_path / "nan.csv"
        bad.write_text("0,nan,1\nnan,0,1\n1,1,0\n")
        two = tmp_path / "two.csv"
        two.write_text("0,1\n1,0\n")
        assert main(["pack", "--input", str(bad), "--radius", "0.3"]) == EXIT_INPUT
        assert main(["gh", "--input", str(bad), "--input2", str(two)]) == EXIT_INPUT
        assert capsys.readouterr().err.count("non-finite distance at (0,1): nan") == 2

    @pytest.mark.parametrize(
        "function, message", [([0.0, math.nan, 1.0], "must be finite"), ([0, "a", 1], "array of numbers")]
    )
    def test_slice_by_a_malformed_json_function_exits_2(self, triangle_cycle_path, capsys, function, message):
        # a nan value exited 0, a string exited 3
        data = json.loads(triangle_cycle_path.read_text())
        data["function"] = function
        triangle_cycle_path.write_text(json.dumps(data))
        code, _, err = _main_json(["slice", "--input", str(triangle_cycle_path), "--function", "json"], capsys)
        assert code == EXIT_INPUT and message in err

    def test_lab_radius_zero_exits_2(self, capsys):
        assert main(["lab", "--schedule", "0.3", "--radius", "0"]) == EXIT_INPUT
        assert "radius must be positive" in capsys.readouterr().err

    def test_gh_without_input2_exits_2(self, tmp_path, capsys):
        # read the missing second path as None and exited 3
        path = tmp_path / "two.csv"
        path.write_text("0,1\n1,0\n")
        assert main(["gh", "--input", str(path)]) == EXIT_INPUT
        assert "gh needs --input2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, quantity, schedule",
        [("sphere_splines", "sf", "0.5"), ("refined_sphere", "fillvol", "2.5")],
    )
    def test_lab_non_integer_schedule_exits_2(self, capsys, family, quantity, schedule):
        # spike width 1 / int(0.5)**2 divided by zero and exited 3; a
        # refined_sphere schedule of 2.5 silently ran 2 latitude rows
        argv = ["lab", "--family", family, "--quantity", quantity, "--schedule", schedule]
        assert main(argv) == EXIT_INPUT
        assert "schedule values must be integers" in capsys.readouterr().err

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
        assert signature(back) == signature(T)
        assert json.dumps(chain_to_json(back), sort_keys=True) == text


def _main_json(argv, capsys):
    """Exit code, parsed report (None unless exit 0) and stderr of one in-process run."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, json.loads(out) if code == EXIT_OK else None, err


class TestLevelBoxCommands:
    @pytest.fixture()
    def disk_path(self, tmp_path):
        C, T = disk_mesh(h=0.25)
        path = tmp_path / "disk.json"
        path.write_text(json.dumps(chain_to_json(T)))
        return str(path)

    def test_sf_default_witness_is_the_first_sphere_vertex(self, disk_path, capsys):
        from currentlab.slicedfill import ball_context

        T = chain_from_json(json.loads(open(disk_path).read()))
        first = ball_context(T, 0, 0.6).sphere_vertices()[0]
        args = ["sf", "--input", disk_path, "--radius", "0.6", "--grid", "5"]
        code, default, _ = _main_json(args, capsys)
        code2, explicit, _ = _main_json(args + ["--witnesses", str(first)], capsys)
        assert code == code2 == EXIT_OK
        assert default == explicit
        assert default["result"]["witnesses"] == [first]

    def test_sf_on_an_empty_sphere_reports_zero(self, disk_path, capsys):
        # radius 5 swallows the unit disk: the ball has no cut vertices
        code, rep, err = _main_json(["sf", "--input", disk_path, "--radius", "5"], capsys)
        assert code == EXIT_OK, err
        assert rep["result"]["integral"] == 0.0
        assert rep["warnings"] == ["discrete sphere is empty"]

    def test_lab_sf_on_an_empty_sphere_reports_zero(self, capsys):
        argv = ["lab", "--family", "refined_disk", "--quantity", "sf", "--schedule", "0.3,0.2", "--radius", "5"]
        code, rep, err = _main_json(argv, capsys)
        assert code == EXIT_OK, err
        assert [row["value"] for row in rep["result"]["rows"]] == [0.0, 0.0]

    @pytest.mark.parametrize(
        "args",
        [
            ["sif", "--witnesses", "5", "--grid", "0"],
            ["sif", "--witnesses", "5", "--grid", "1"],
            ["sif", "--grid", "1"],
            ["tetra", "--samples", "1"],
            ["tetra", "--samples", "0"],
            ["tetra", "--samples", "-1"],
            ["sf", "--grid", "1"],
            ["sfk", "--grid", "1"],
            ["sfk", "--grid", "1", "--radius", "5"],
            ["tetra", "--samples", "1", "--radius", "5"],
        ],
    )
    def test_fewer_than_two_level_nodes_exit_2(self, disk_path, capsys, args):
        argv = args[:1] + ["--input", disk_path, "--radius", "0.6"] + args[1:]
        code, _, err = _main_json(argv, capsys)
        assert code == EXIT_INPUT
        assert "at least 2 nodes" in err

    @pytest.mark.parametrize("radius", ["0.6", "5"])  # 5: the discrete sphere is empty
    def test_sfk_too_many_witnesses_exit_2(self, disk_path, capsys, radius):
        argv = ["sfk", "--input", disk_path, "--radius", radius, "--k", "2"]
        code, _, err = _main_json(argv, capsys)
        assert code == EXIT_INPUT
        assert "at most 1 slicing functions on a 2-current" in err


class TestVertexIds:
    @pytest.mark.parametrize(
        "complex_json, vertex",
        [
            # vertex 7 of 3: indexing the coordinates failed with exit 3
            ({"vertices": [[0, 0], [1, 0], [0, 1]], "simplices": {"0": [[0], [1], [2], [7]], "1": [[0, 7]]}}, 7),
            # vertex -1 of 2: wrapped to vertex 1 and reported mass 1.0
            ({"distances": [[0, 1], [1, 0]], "simplices": {"0": [[0], [-1]], "1": [[0, -1]]}}, -1),
        ],
        ids=["above", "negative"],
    )
    def test_vertex_outside_the_metric_exits_2(self, tmp_path, capsys, complex_json, vertex):
        path = tmp_path / "ids.json"
        path.write_text(json.dumps({"complex": complex_json, "current": {"dim": 1, "coeffs": [[0, 1]]}}))
        code, _, err = _main_json(["mass", "--input", str(path)], capsys)
        assert code == EXIT_INPUT
        assert f"simplex ({vertex},) names a vertex outside" in err
