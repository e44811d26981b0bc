import json
import math
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from currentlab.cli import _COMMANDS, _OPTIONS, EXIT_INPUT, EXIT_INTERNAL, EXIT_INVARIANT, EXIT_OK, main, write_report
from currentlab.convergence import build_family, continuity_sweep
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
        [["sfk", "--radius", "0.5", "--candidates", "0"], ["tetra", "--radius", "0.5", "--candidates=-2"]],
        ids=["sfk-zero", "tetra-negative"],
    )
    def test_candidate_budget_below_one_exits_2(self, square_chain_path, capsys, args):
        assert main(args + ["--input", str(square_chain_path)]) == EXIT_INPUT
        assert "need at least one candidate witness tuple" in capsys.readouterr().err

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

    def test_sphere_radius_zero_exits_2(self, square_chain_path, capsys):
        assert main(["sphere", "--input", str(square_chain_path), "--radius", "0"]) == EXIT_INPUT
        assert "sphere radius must be positive" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "coeffs, code",
        [([2**62 - 1], EXIT_OK), ([2**61, -(2**61 - 1)], EXIT_OK), ([2**61, 2**61], EXIT_INPUT)],
    )
    def test_coefficient_limit_is_exact(self, tmp_path, capsys, coeffs, code):
        """Chain JSON takes |coefficients| summing to 2**62 - 1 and rejects a
        sum of 2**62 (exit 2).  A 0-chain, so that its boundary, which
        `mass` also reports, is no larger."""
        data = {
            "complex": {"vertices": [[0, 0], [1, 0], [0, 1]], "simplices": {"1": [[0, 1], [0, 2]]}},
            "current": {"dim": 0, "coeffs": [[i, c] for i, c in enumerate(coeffs)]},
        }
        path = tmp_path / "near_limit.json"
        path.write_text(json.dumps(data))
        assert main(["mass", "--input", str(path)]) == code
        if code == EXIT_OK:
            assert json.loads(capsys.readouterr().out)["result"]["mass"] == float(sum(map(abs, coeffs)))
        else:
            assert "2**62" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mass", "boundary"])
    def test_boundary_over_the_limit_names_the_boundary(self, tmp_path, capsys, command):
        """One edge with coefficient c is a chain for c < 2**62, but its
        boundary sums to 2c: at c = 2**62 - 1 the error names the boundary,
        not a chain the input does not hold; at 2**61 - 1 both are chains."""
        def edge(c):
            path = tmp_path / f"edge_{c}.json"
            data = {"complex": {"vertices": [[0, 0], [1, 0]], "simplices": {"1": [[0, 1]]}},
                    "current": {"dim": 1, "coeffs": [[0, c]]}}
            path.write_text(json.dumps(data))
            return str(path)

        assert main([command, "--input", edge(2**62 - 1)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert not out
        assert err == "input error: the boundary of the input 1-chain exceeds the limit: its coefficients sum to 2**62 or more\n"
        assert main([command, "--input", edge(2**61 - 1)]) == EXIT_OK
        capsys.readouterr()
        code, rep, err = _main_json(["ifv", "--input", edge(2**62 - 1), "--epsilon", "0.5"], capsys)
        assert code == EXIT_OK, err
        assert rep["result"]["value"] == 0.5 * (2**62 - 1)

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

    @pytest.mark.parametrize(
        "key, value",
        [("distances", [[0, 1], [1]]), ("points", [[0, 1], [1]]), ("distances", "abc"), ("points", [[0, "a"], [1, 2]])],
        ids=["ragged-distances", "ragged-points", "string-distances", "string-point"],
    )
    @pytest.mark.parametrize("command", ["pack", "gh", "fillvol0"])
    def test_malformed_metric_space_payload_exits_2(self, tmp_path, capsys, command, key, value):
        # each exited 3 (ValueError from the float conversion)
        path = tmp_path / "space.json"
        path.write_text(json.dumps({key: value, "theta": [1, 1], "sigma": [1, -1]}))
        argv = {"pack": ["--radius", "1"], "gh": ["--input2", str(path)], "fillvol0": []}[command]
        code, _, err = _main_json([command, "--input", str(path)] + argv, capsys)
        assert code == EXIT_INPUT
        assert err.startswith(f"input error: {path}: '{key}' must be an array of numbers") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload, message",
        [("5", "expected a JSON object"), ('{"points": 5}', "points must be the rows of an array, got shape ()")],
        ids=["number", "scalar-points"],
    )
    def test_metric_space_json_of_the_wrong_shape_exits_2(self, tmp_path, capsys, payload, message):
        # a number exited 3 (TypeError from `in`), scalar points 3 (IndexError)
        path = tmp_path / "space.json"
        path.write_text(payload)
        code, _, err = _main_json(["pack", "--input", str(path), "--radius", "1"], capsys)
        assert code == EXIT_INPUT and message in err and err.count("\n") == 1

    def test_unreadable_paths_exit_2(self, tmp_path, square_chain_path, capsys):
        # each exited 3 (IsADirectoryError); PermissionError is not shown,
        # since it cannot be raised for a process run as root
        directory = tmp_path / "D.csv"
        directory.mkdir()
        runs = [
            (["pack", "--input", str(directory), "--radius", "1"], directory),
            (["gh", "--input", str(directory), "--input2", str(directory)], directory),
            (["mass", "--input", str(square_chain_path), "--output", str(tmp_path)], tmp_path),
        ]
        for argv, named in runs:
            code, _, err = _main_json(argv, capsys)
            assert code == EXIT_INPUT, argv
            assert err.startswith("input error: ") and err.count("\n") == 1
            assert f"Is a directory: '{named}'" in err

    @pytest.mark.parametrize("name, command", [("bad.csv", "pack"), ("bad.json", "pack"), ("bad.json", "mass")])
    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, name, command):
        # each exited 3 (UnicodeDecodeError)
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe\x00bad")
        argv = [command, "--input", str(path)] + (["--radius", "1"] if command == "pack" else [])
        code, _, err = _main_json(argv, capsys)
        assert code == EXIT_INPUT and "can't decode" in err and err.count("\n") == 1
        if name.endswith(".json"):
            assert f"cannot read {path}" in err

    def test_gh_names_the_csv_that_is_not_utf8(self, tmp_path, capsys):
        # the message named no path, so of two inputs the bad one was unknown
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("0,1\n1,0\n")
        bad.write_bytes(b"\xff\xfe\x00bad")
        code, _, err = _main_json(["gh", "--input", str(good), "--input2", str(bad)], capsys)
        assert code == EXIT_INPUT and f"cannot read {bad}" in err and str(good) not in err


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

    def test_witness_ids_index_the_ball_complex(self, disk_path, capsys):
        """The disk's 61 vertices keep their ids; the ball's 30 cut points,
        its discrete sphere, are 61..90.  The default witness passed back
        gives the same report, byte for byte."""
        args = ["sf", "--input", disk_path, "--radius", "0.5"]
        assert main(args) == EXIT_OK
        default = capsys.readouterr().out
        assert json.loads(default)["result"]["witnesses"] == [61]
        assert main(args + ["--witnesses", "61"]) == EXIT_OK
        assert capsys.readouterr().out == default
        for witness in (70, 90):
            code, rep, err = _main_json(args + ["--witnesses", str(witness)], capsys)
            assert code == EXIT_OK, err
            assert rep["result"]["witnesses"] == [witness]
        code, _, err = _main_json(args + ["--witnesses", "99999"], capsys)
        assert code == EXIT_INPUT
        assert (
            "witness 99999 out of range: witness ids are T's 61 vertices,"
            " then the ball's 30 cut points (its discrete sphere) numbered from 61"
        ) in err

    @pytest.mark.parametrize("command", ["sf", "sif"])
    @pytest.mark.parametrize("witness", ["91", "-1"])
    def test_witness_past_the_sphere_names_the_witness_ids(self, disk_path, capsys, command, witness):
        # was "vertex 91 out of range (the complex has 91 vertices)", a count
        # that includes the cut points without saying so
        argv = [command, "--input", disk_path, "--radius", "0.5", "--witnesses", witness]
        code, _, err = _main_json(argv, capsys)
        assert code == EXIT_INPUT
        assert f"witness {witness} out of range: witness ids are T's 61 vertices" in err
        assert "then the ball's 30 cut points (its discrete sphere) numbered from 61" in err

    @pytest.mark.parametrize("args", [["--radius", "1e300"], ["--radius", "1e200", "--C", "1e300"]])
    def test_tetra_bound_overflowing_a_float_exits_2(self, disk_path, capsys, monkeypatch, args):
        # --radius 1e300 exited 3: r**m raised OverflowError after the search
        import currentlab.slicedfill as slicedfill

        def no_ball(*a, **kw):
            raise AssertionError("the ball was built before the bound was checked")

        monkeypatch.setattr(slicedfill, "ball_context", no_ball)
        code, _, err = _main_json(["tetra", "--input", disk_path] + args, capsys)
        assert code == EXIT_INPUT
        assert "the tetra volume bound C (2 beta)^(m-1) r^m overflows a float" in err

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


def _table_options(command):
    return set(_COMMANDS[command][1].split()) | {"output", "format"}


class TestCommandTable:
    """Each subcommand takes exactly the options that its row of
    `cli._COMMANDS` names (and --output, --format); any other exits 2."""

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_undeclared_options_exit_2(self, command, capsys):
        for option in sorted(set(_OPTIONS) - _table_options(command)):
            with pytest.raises(SystemExit) as exc:
                main([command, f"--{option}", "1"])
            assert exc.value.code == EXIT_INPUT, option
            out, err = capsys.readouterr()
            assert not out and f"unrecognized arguments: --{option}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [["mass", "--grid", "3"], ["lab", "--center", "5"], ["flatnorm", "--input2", "x"]],
        ids=["mass-grid", "lab-center", "flatnorm-input2"],
    )
    def test_option_the_command_ignored_exits_2(self, tmp_path, square_chain_path, args):
        pair = tmp_path / "pair.json"
        data = json.loads(square_chain_path.read_text())
        pair.write_text(json.dumps({**data, "current_b": data["current"]}))
        if args[0] == "lab":
            args = args + ["--family", "refined_disk", "--schedule", "0.4", "--grid", "2"]
        else:
            args = args + ["--input", str(pair)]
        proc = run_cli(args)
        assert proc.returncode == EXIT_INPUT
        assert not proc.stdout
        assert "unrecognized arguments" in proc.stderr and "Traceback" not in proc.stderr

    def test_unknown_option_is_reported_by_its_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mass", "--input", "c.json", "--grid", "3"])
        assert exc.value.code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert not out and err.startswith("usage: currentlab mass [-h]")
        assert err.endswith("currentlab mass: error: unrecognized arguments: --grid 3\n")

    @pytest.mark.parametrize(
        "quantity, option",
        [("fillvol", "grid"), ("fillvol", "epsilon"), ("semicontinuity", "radius"), ("semicontinuity", "grid"),
         ("semicontinuity", "epsilon"), ("sf", "epsilon"), ("ifv", "radius"), ("ifv", "grid"), ("sif", "grid")],
    )
    def test_lab_option_its_quantity_ignores_exits_2(self, quantity, option, capsys):
        argv = ["lab", "--family", "refined_disk", "--quantity", quantity, "--schedule", "0.4", f"--{option}", "2"]
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert not out and f"input error: lab --quantity {quantity} does not read --{option}\n" in err

    @pytest.mark.parametrize("quantity", ["fillvol", "sf", "ifv", "sif"])
    def test_lab_report_is_the_library_sweep_at_the_cli_defaults(self, quantity, capsys):
        argv = ["lab", "--family", "refined_disk", "--quantity", quantity, "--schedule", "0.4,0.3"]
        code, rep, err = _main_json(argv, capsys)
        assert code == EXIT_OK, err
        params = {"radius": 0.5, "grid": _OPTIONS["grid"]["default"], "epsilon": _OPTIONS["epsilon"]["default"]}
        out = continuity_sweep(build_family("refined_disk", [0.4, 0.3]), quantity, params)
        assert rep["result"] == json.loads(json.dumps(out))

    def test_lab_report_is_the_same_with_a_default_given_explicitly(self, tmp_path):
        argv = ["lab", "--family", "refined_disk", "--quantity", "fillvol", "--schedule", "0.4"]
        assert main(argv + ["--output", str(tmp_path / "a.json")]) == EXIT_OK
        assert main(argv + ["--radius", "0.5", "--output", str(tmp_path / "b.json")]) == EXIT_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_help_lists_the_table(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        listed = set(re.findall(r"--([\w-]+)", capsys.readouterr().out)) - {"help"}
        assert listed == _table_options(command)

    @pytest.mark.parametrize(
        "command, option",
        [(c, o) for c, (_, _, required) in _COMMANDS.items() for o in required.split()],
    )
    def test_missing_required_option_exits_2(self, command, option, square_chain_path, capsys):
        values = {"input": str(square_chain_path), "input2": str(square_chain_path), "radius": "0.5", "schedule": "0.5"}
        argv = [command]
        for other in _COMMANDS[command][2].split():
            if other != option:
                argv += [f"--{other}", values[other]]
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert not out and f"input error: {command} needs --{option}\n" in err

    @pytest.mark.parametrize("command", ["ifv", "sif"])
    def test_layers_is_no_option_of_the_interval_filling(self, command, capsys):
        """IFV is eps * M(T) whatever the prism's triangulation, so only
        `product`, which prints the triangulated prism, reads --layers."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", "c.json", "--layers", "2"])
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments: --layers 2" in capsys.readouterr().err


def test_interval_fillings_build_no_product_complex(tmp_path, monkeypatch, capsys):
    """`ifv`, `sif` and their lab sweeps report with the prism builder
    broken; `product`, which needs it, then fails."""
    import currentlab.product as product

    def refuse(*args, **kwargs):
        raise RuntimeError("product complex built")

    monkeypatch.setattr(product, "build_product_complex", refuse)
    C, T = disk_mesh(h=0.25)
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(chain_to_json(T)))
    runs = [
        ["ifv", "--input", str(path)],
        ["sif", "--input", str(path), "--radius", "0.6", "--witnesses", "3", "--grid", "4"],
        ["lab", "--quantity", "ifv", "--schedule", "0.4,0.3"],
        ["lab", "--quantity", "sif", "--schedule", "0.4,0.3"],
    ]
    for argv in runs:
        code, rep, err = _main_json(argv, capsys)
        assert code == EXIT_OK, (argv, err)
        assert rep["result"]
    assert main(["product", "--input", str(path)]) == EXIT_INTERNAL
    assert "product complex built" in capsys.readouterr().err


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# a README default that `_OPTIONS` does not hold: its handler sets it
_HANDLER_DEFAULTS = {("lab", "radius"): "0.5"}


def _readme_command_table():
    """{subcommand: {option: (required, shown default or None)}} read from
    the table under "## Command line" whose header is "subcommand"."""
    text = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| subcommand |"))
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        commands, options = line.strip().strip("|").split("|")
        listed = {
            m[2]: (bool(m[1]), m[3])
            for m in re.finditer(r"(\*\*)?`--([\w-]+)`(?:\*\*)?(?: \(([^)]*)\))?", options)
        }
        rows.update({command: listed for command in re.findall(r"`([\w-]+)`", commands)})
    return rows


class TestReadmeCommandTable:
    """The README's command table lists each subcommand's options as
    `cli._COMMANDS` does, the required ones bold, with `_OPTIONS`' defaults."""

    def test_every_subcommand_has_one_row(self):
        assert set(_readme_command_table()) == set(_COMMANDS)

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_row_matches_the_command_table(self, command):
        listed = _readme_command_table()[command]
        _, options, required = _COMMANDS[command]
        assert set(listed) == set(options.split())
        assert {option for option, (bold, _) in listed.items() if bold} == set(required.split())
        for option, (bold, shown) in listed.items():
            default = _OPTIONS[option].get("default")
            want = None if bold else _HANDLER_DEFAULTS.get((command, option), "none" if default == "" else str(default))
            assert shown == want, option
