#!/usr/bin/env python3
"""Results ledger: the numbers currentlab reports on a fixed set of inputs.

The ledger holds
- each perfbench workload's closed-form anchor (its relative error and
  failed checks),
- the results of the first operations of each workload at seed 3,
- the `lab --quantity fillvol` reports (rows and pair checks) of three
  families, and the `lab --quantity sf` reports of two.

tests/test_ledger.py recomputes it and compares it with tests/ledger.json,
floats to 1e-12 relative and everything else exactly, so a change that
moves a reported number names the entry it moved.

Run: python3 scripts/ledger.py [path]   (default tests/ledger.json)
"""
from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from currentlab import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
OPERATIONS = {"sphere_sf": 12, "torus_tetra": 6, "continuity_lp": 20, "slice_shift": 40}
LABS = {
    "fillvol": {
        "refined_disk": "0.2,0.1,0.05",
        "refined_sphere": "4,6",
        "thin_torus": "0.5,0.25",
    },
    "sf": {
        "refined_sphere": "4,6",
        "thin_torus": "0.5,0.25",
    },
}
REL_TOL = 1e-12
PATH = ROOT / "tests" / "ledger.json"


def plain(value):
    """A workload result as JSON values: dataclasses as dicts, arrays as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def workload_entries():
    out = {}
    for name, workload in WORKLOADS.items():
        state = workload.setup()
        rel, failed = workload.anchor(state)
        stream = workload.inputs(SEED)
        ops = [plain(workload.run(state, next(stream))) for _ in range(OPERATIONS[name])]
        out[name] = {"anchor": {"rel_err": float(rel), "failed": failed}, "operations": ops}
    return out


def lab_entries(quantity):
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for family, schedule in LABS[quantity].items():
            path = Path(tmp) / f"{family}.json"
            argv = ["lab", "--family", family, "--quantity", quantity, "--schedule", schedule, "--output", str(path)]
            code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise SystemExit(f"lab --family {family} exited {code}")
            report = json.loads(path.read_text())
            out[family] = {"schedule": schedule, "result": report["result"], "warnings": report["warnings"]}
    return out


def compute():
    labs = {f"lab_{quantity}": lab_entries(quantity) for quantity in LABS}
    return {"seed": SEED, "workloads": workload_entries(), **labs}


def moved(want, got, where="ledger"):
    """The entries where `got` differs from `want`: floats beyond REL_TOL
    relative, any other value at all."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{where}: keys {sorted(want)} -> {sorted(got)}"]
        return [m for k in want for m in moved(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} -> {len(got)}"]
        return [m for i, (a, b) in enumerate(zip(want, got)) for m in moved(a, b, f"{where}[{i}]")]
    if type(want) is float and type(got) is float:
        if abs(got - want) <= REL_TOL * max(abs(want), abs(got)):
            return []
        return [f"{where}: {want!r} -> {got!r}"]
    if type(want) is not type(got) or want != got:
        return [f"{where}: {want!r} -> {got!r}"]
    return []


def main(argv):
    path = Path(argv[1]) if len(argv) > 1 else PATH
    path.write_text(json.dumps(compute(), indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"ledger written to {path}")


if __name__ == "__main__":
    main(sys.argv)
