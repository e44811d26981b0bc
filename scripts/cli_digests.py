#!/usr/bin/env python3
"""One sha256 per CLI report over a fixed set of inputs.

Four chains are written as chain JSON: a disk, a geodesic sphere, a 3-d
torus patch and a grid on the matrix metric of its distances.  On each,
the CLI computes a ball about a fixed centre and its sliced reports: sf,
sfk --k 1 (and --k 2 on the 3-d patch), sif with 0, 1 and 2 witnesses,
tetra, coarea, slice, ball and sphere; the disk, sphere and torus also
get `lab --quantity fillvol` on their family.  Each line is the input,
the report, the exit code and the sha256 of the report text.  Run it in
two checkouts: equal lines mean bitwise equal reports.

Run from the root of a source checkout (the library is imported from
./src): python3 scripts/cli_digests.py [input ...]
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from currentlab import cli  # noqa: E402
from currentlab.complexes import GeometricComplex, MatrixMetric  # noqa: E402
from currentlab.currents import SimplicialCurrent, chain_to_json  # noqa: E402
from currentlab.meshes import disk_mesh, grid_mesh, nearest_vertex, sphere_mesh, torus_patch_mesh  # noqa: E402


def _grid_on_distances():
    C, T = grid_mesh(4, 4)
    coords = C.coords()
    D = MatrixMetric(np.linalg.norm(coords[:, None] - coords[None], axis=2))
    K = GeometricComplex(D, {k: C.simplex_array(k) for k in C.dims})
    return K, SimplicialCurrent.from_arrays(K, T.dim, T.idx, T.coeff)


# input -> (chain builder, centre in the mesh's coordinates, radius, lab family and schedule)
INPUTS = {
    "disk": (lambda: disk_mesh(h=0.25), (0.2, 0.1), 0.5, ("refined_disk", "0.3,0.2")),
    "sphere": (lambda: sphere_mesh(6, 12), (0.0, 0.0, 1.0), 1.0, ("refined_sphere", "4,6")),
    "torus": (lambda: torus_patch_mesh(0.4, 0.135, 4), (0.0, 0.0, 0.0), 0.1, ("thin_torus", "0.5,0.25")),
    "grid": (_grid_on_distances, None, 0.5, None),
}


def reports(name, path):
    """(report name, argv) of every report on the input `name` written at `path`."""
    build, point, r, lab = INPUTS[name]
    C, T = build()
    c = 12 if point is None else nearest_vertex(C, point)
    w = next(u + v - c for u, v in C.simplex_array(1).tolist() if c in (u, v))  # a neighbour of the centre
    ball = ["--input", str(path), "--center", str(c), "--radius", repr(r)]
    out = [
        ("sf", ["sf", *ball, "--grid", "5"]),
        ("sfk1", ["sfk", *ball, "--k", "1", "--candidates", "2", "--grid", "5"]),
        ("sif0", ["sif", *ball, "--epsilon", "0.2"]),
        ("sif1", ["sif", *ball, "--witnesses", str(c), "--epsilon", "0.2", "--grid", "3"]),
        ("sif2", ["sif", *ball, "--witnesses", f"{c},{w}", "--epsilon", "0.2", "--grid", "3"]),
        ("tetra", ["tetra", *ball, "--samples", "3", "--candidates", "2"]),
        ("coarea", ["coarea", "--input", str(path), "--function", f"dist:{c}", "--samples", "5"]),
        ("slice", ["slice", "--input", str(path), "--function", f"dist:{c}", "--level", repr(r)]),
        ("ball", ["ball", *ball]),
        ("sphere", ["sphere", *ball]),
    ]
    if T.dim == 3:
        out.insert(2, ("sfk2", ["sfk", *ball, "--k", "2", "--candidates", "2", "--grid", "3"]))
    if lab:
        family, schedule = lab
        out.append(("lab_fillvol", ["lab", "--family", family, "--quantity", "fillvol", "--schedule", schedule]))
    return T, out


def run(argv, report):
    """The CLI's exit code on `argv` and sha256 of its report (or stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--output", str(report)])
    text = report.read_text() if code == cli.EXIT_OK else err.getvalue()
    return code, hashlib.sha256(text.encode()).hexdigest()


def main(argv):
    names = argv or list(INPUTS)
    unknown = [n for n in names if n not in INPUTS]
    if unknown:
        raise SystemExit(f"unknown input {unknown[0]!r}; choose from {', '.join(INPUTS)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            path, report = Path(tmp) / f"{name}.json", Path(tmp) / "report.json"
            T, runs = reports(name, path)
            path.write_text(json.dumps(chain_to_json(T)))
            for label, args in runs:
                code, digest = run(args, report)
                print(f"{name} {label} exit={code} sha256={digest}")


if __name__ == "__main__":
    main(sys.argv[1:])
