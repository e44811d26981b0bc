"""Hypothesis fuzz of the command line, run in-process through `cli.main`.

Malformed and edge inputs (wrong dimensions, empty currents, levels off the
value range, disconnected complexes, 3-D chains and families) must end in
exit 0 with exactly one report, or in exit 1 or 2 with a one-line message:
never in a traceback or in exit 3, which marks a defect of the program.
A malformed chain payload must end in exit 0 with a strict JSON report (no
NaN or Infinity) or in exit 2, and so must a malformed metric space or a
path that cannot be read by `pack`, `gh` and `fillvol0`.
"""
import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from currentlab.cli import _COMMANDS, EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, main
from currentlab.currents import chain_to_json
from currentlab.meshes import disk_mesh, euclidean_box_mesh, square_complex

TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]


def _chain(vertices, simplices, dim, coeffs):
    return {
        "complex": {"vertices": vertices, "simplices": {str(k): v for k, v in simplices.items()}},
        "current": {"dim": dim, "coeffs": coeffs},
    }


def _with_current_b(data, dim, coeffs):
    return {**data, "current_b": {"dim": dim, "coeffs": coeffs}}


def _inputs():
    """Named JSON payloads (a str is written verbatim)."""
    _, square = square_complex()
    square_json = chain_to_json(square)
    negated = [[i, -c] for i, c in square_json["current"]["coeffs"]]
    _, box = euclidean_box_mesh(0.5, 1)
    cycle = {0: [[0], [1], [2]], 1: [[0, 1], [0, 2], [1, 2]], 2: [[0, 1, 2]]}
    two_edges = {0: [[0], [1], [2], [3]], 1: [[0, 1], [2, 3]]}
    return {
        "square": square_json,
        "pair": _with_current_b(square_json, 2, negated),
        "pair_of_dims_1_and_2": _with_current_b(square_json, 1, [[0, 1]]),
        "cycle": _chain(TRIANGLE, cycle, 1, [[0, 1], [1, -1], [2, 1]]),
        "empty_current": _chain(TRIANGLE, cycle, 1, []),
        "zero_coefficients": _chain(TRIANGLE, cycle, 2, [[0, 0]]),
        "disconnected": _chain([[0, 0], [1, 0], [5, 5], [6, 5]], two_edges, 1, [[0, 1], [1, -1]]),
        "dim_above_complex": _chain(TRIANGLE, cycle, 3, [[0, 1]]),
        "negative_dim": _chain(TRIANGLE, cycle, -1, [[0, 1]]),
        "simplex_too_long": _chain(TRIANGLE, {0: [[0], [1], [2]], 1: [[0, 1, 2]]}, 1, [[0, 1]]),
        "vertex_out_of_range": _chain(TRIANGLE, {0: [[0], [1]], 1: [[0, 7]]}, 1, [[0, 1]]),
        "index_out_of_range": _chain(TRIANGLE, cycle, 1, [[9, 1]]),
        "missing_face": _chain(TRIANGLE, {0: [[0], [1], [2]], 1: [[0, 1]], 2: [[0, 1, 2]]}, 2, [[0, 1]]),
        "ragged_vertices": _chain([[0, 0], [1]], {0: [[0], [1]], 1: [[0, 1]]}, 1, [[0, 1]]),
        "tetrahedra": chain_to_json(box),
        "no_current": {"complex": {"vertices": TRIANGLE, "simplices": {}}},
        "not_json": "{ not json",
        "list_payload": "[1, 2, 3]",
    }


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, payload in _inputs().items():
        path = root / f"{name}.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        paths[name] = str(path)
    paths["missing_file"] = str(root / "absent.json")
    return paths


CHAIN_COMMANDS = ["mass", "boundary", "slice", "ball", "sphere", "coarea", "fillvol", "flatnorm"]
NUMBERS = st.sampled_from([-1e9, -1.0, 0.0, 1e-12, 0.3, 0.5, 1.0, 2.5, 1e9, math.inf, -math.inf, math.nan])


def _argv(command, values):
    """`command` with each option that it reads among `values` (option -> text)."""
    argv = [command]
    for option in _COMMANDS[command][1].split():
        if option in values:
            argv += [f"--{option}", values[option]]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check(argv, code, out, err):
    assert code in (EXIT_OK, EXIT_INVARIANT, EXIT_INPUT), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert "unrecognized arguments" not in err, (argv, err)  # each command gets only its own options
    if code == EXIT_OK:
        json.loads(out)  # exactly one report: one JSON document and nothing else
    else:
        assert not out, (argv, out)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(CHAIN_COMMANDS),
    name=st.sampled_from(sorted(_inputs()) + ["missing_file"]),
    function=st.sampled_from(["coord:0", "coord:1", "coord:2", "coord:-1", "dist:0", "dist:99", "json", "coord"]),
    level=NUMBERS,
    radius=NUMBERS,
    center=st.integers(min_value=-2, max_value=12),
    samples=st.integers(min_value=-1, max_value=3),
)
@example(command="flatnorm", name="pair", function="coord:0", level=0.0, radius=0.5, center=0, samples=1)
@example(command="flatnorm", name="pair_of_dims_1_and_2", function="coord:0", level=0.0, radius=0.5, center=0, samples=1)
def test_chain_commands_fuzz(input_paths, command, name, function, level, radius, center, samples):
    values = {"input": input_paths[name], "function": function, "level": repr(level)}
    values.update({"radius": repr(radius), "center": str(center), "samples": str(samples)})
    argv = _argv(command, values)
    _check(argv, *_run(argv))


@settings(max_examples=15, deadline=None)
@given(
    family=st.sampled_from(["refined_disk", "thin_torus", "refined_sphere", "no_such_family"]),
    quantity=st.sampled_from(["semicontinuity", "mass", "fillvol", "nonsense"]),
    schedule=st.sampled_from(["", "0.5", "4", "0,0.5", "-1", "a,b", "nan"]),
)
def test_lab_fuzz(family, quantity, schedule):
    argv = ["lab", "--family", family, "--quantity", quantity, "--schedule", schedule]
    _check(argv, *_run(argv))


@pytest.fixture(scope="module")
def level_box_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("level_box")
    payloads = {name: _inputs()[name] for name in ("tetrahedra", "cycle", "empty_current")}
    payloads["disk"] = chain_to_json(disk_mesh(0.3)[1])
    paths = {}
    for name, payload in payloads.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["sf", "sfk", "sif", "tetra"]),
    name=st.sampled_from(["disk", "tetrahedra", "cycle", "empty_current"]),
    radius=st.sampled_from([0.6, 5.0]),  # 5 lies beyond every mesh: the discrete sphere is empty
    nodes=st.integers(min_value=-1, max_value=4),
    k=st.integers(min_value=-1, max_value=3),
    candidates=st.integers(min_value=0, max_value=2),
    witnesses=st.sampled_from(["", "0", "1", "99", "-1", "0,1"]),
)
def test_level_box_commands_fuzz(level_box_paths, command, name, radius, nodes, k, candidates, witnesses):
    values = {"input": level_box_paths[name], "radius": repr(radius), "grid": str(nodes), "samples": str(nodes)}
    values.update({"k": str(k), "candidates": str(candidates), "witnesses": witnesses})
    argv = _argv(command, values)
    _check(argv, *_run(argv))


def _no_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


# one field of a valid chain payload replaced by a float, string, negative,
# bool, null, oversized or non-finite value, or a pair or simplex repeated
FIELD_VALUES = st.sampled_from([2.0, 1.5, 0.9, -1, -7, 0, 2**63, "1", "a", None, True, math.nan, math.inf, -math.inf])
FIELDS = ["coefficient", "index", "vertex_id", "dim", "coordinate", "distance", "simplex_key"]


@st.composite
def malformed_chains(draw):
    cycle = {0: [[0], [1], [2]], 1: [[0, 1], [0, 2], [1, 2]], 2: [[0, 1, 2]]}
    data = _chain(TRIANGLE, cycle, 1, [[0, 1], [1, -1], [2, 1]])
    field = draw(st.sampled_from(FIELDS + ["repeated_pair", "repeated_simplex"]))
    value = draw(FIELD_VALUES)
    cx, cur = data["complex"], data["current"]
    row, col = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    if field == "coefficient":
        cur["coeffs"][row][1] = value
    elif field == "index":
        cur["coeffs"][row][0] = value
    elif field == "vertex_id":
        cx["simplices"]["1"][row][col] = value
    elif field == "dim":
        cur["dim"] = value
    elif field == "coordinate":
        cx["vertices"][row][col] = value
    elif field == "distance":
        cx["distances"] = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        other = (row + col + 1) % 3
        cx["distances"][row][other] = cx["distances"][other][row] = value
    elif field == "simplex_key":
        cx["simplices"][str(value)] = cx["simplices"].pop("1")
    elif field == "repeated_pair":
        cur["coeffs"].append(list(cur["coeffs"][row]))
    else:
        cx["simplices"]["2"].append(list(cx["simplices"]["2"][0]))
    return field, data


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["mass", "boundary", "fillvol", "slice", "sphere"]), chain=malformed_chains())
def test_malformed_chain_payloads_fuzz(tmp_path, command, chain):
    field, data = chain
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(_argv(command, {"input": str(path), "level": "0.3", "radius": "0.6"}))
    assert code in (EXIT_OK, EXIT_INPUT), (field, data, code, err)
    if code == EXIT_OK:
        json.loads(out, parse_constant=_no_constant)
    else:
        assert not out and "Traceback" not in err, (field, data, err)


# metric-space inputs of `pack`, `gh` and `fillvol0`: JSON payloads (with the
# weights fillvol0 reads; the others ignore them), CSV texts, bytes that are
# not UTF-8, and paths that are directories or missing
TRANSPORT = {"theta": [1, 1], "sigma": [1, -1]}
SPACES = {
    "points.json": {"points": [[0, 0], [1, 0]]},
    "distances.json": {"distances": [[0, 1], [1, 0]]},
    "ragged_distances.json": {"distances": [[0, 1], [1]]},
    "ragged_points.json": {"points": [[0, 1], [1]]},
    "string_distances.json": {"distances": "abc"},
    "string_point.json": {"points": [[0, "a"], [1, 2]]},
    "object_distances.json": {"distances": {}},
    "null_distances.json": {"distances": None},
    "flat_distances.json": {"distances": [0, 1]},
    "asymmetric.json": {"distances": [[0, 1], [2, 0]]},
    "scalar_points.json": {"points": 5},
    "nested_points.json": {"points": [[[0]]]},
    "empty_points.json": {"points": []},
    "nan_point.json": {"points": [[0, math.nan], [1, 0]]},
    "neither_key.json": {"vertices": [[0, 0]]},
    "number.json": "5",
    "list.json": "[1, 2]",
    "truncated.json": '{"points": [[0, 0]',
    "distances.csv": "0,1\n1,0\n",
    "labelled.csv": "a,b\n0,1\n1,0\n",
    "wrong_labels.csv": "a,b,c\n0,1\n1,0\n",
    "ragged.csv": "0,1\n1\n",
    "words.csv": "a,b\nx,y\n",
    "empty.csv": "",
    "not_utf8.csv": b"\xff\xfe\x00bad",
    "not_utf8.json": b"\xff\xfe\x00bad",
}


@pytest.fixture(scope="module")
def space_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("spaces")
    paths = {}
    for name, payload in SPACES.items():
        path = root / name
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload if isinstance(payload, str) else json.dumps({**payload, **TRANSPORT}))
        paths[name] = str(path)
    for name in ("directory.csv", "directory.json"):
        (root / name).mkdir()
        paths[name] = str(root / name)
    paths["missing.csv"] = str(root / "absent.csv")
    return paths


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["pack", "gh", "fillvol0"]),
    name=st.sampled_from(sorted(SPACES) + ["directory.csv", "directory.json", "missing.csv"]),
    name2=st.sampled_from(["points.json", "distances.csv", "ragged_points.json", "directory.csv"]),
    radius=st.sampled_from(["1", "0.5", "0", "-1", "nan"]),
    exact_limit=st.sampled_from(["7", "0", "-1"]),
)
@example(command="pack", name="ragged_distances.json", name2="points.json", radius="1", exact_limit="7")
@example(command="fillvol0", name="ragged_points.json", name2="points.json", radius="1", exact_limit="7")
@example(command="pack", name="directory.csv", name2="points.json", radius="1", exact_limit="7")
def test_metric_space_commands_fuzz(space_paths, command, name, name2, radius, exact_limit):
    values = {"input": space_paths[name], "input2": space_paths[name2], "radius": radius, "exact-limit": exact_limit}
    argv = _argv(command, values)
    _check(argv, *_run(argv))
