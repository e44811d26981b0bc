#!/usr/bin/env python3
"""One sha256 per benchmark workload over the exact results of its seeded
operations, plus its anchor's relative error.

Each workload of perfbench/workloads.py (imported, not edited) is set up,
its anchor is run, and then the first N operations of its seed-3 input
stream: 40 sphere_sf, 20 torus_tetra, 60 continuity_lp and 150 slice_shift.
The digest of every result (the workload's own `digest`, the values the
benchmark compares between traced and untraced runs) is hashed in order.
Run it in two checkouts: equal lines mean bitwise equal results.

Run from the root of a source checkout (the library is imported from
./src): python3 scripts/workload_digests.py [workload ...]
"""
import hashlib
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

SEED = 3
OPERATIONS = {"sphere_sf": 40, "torus_tetra": 20, "continuity_lp": 60, "slice_shift": 150}


def workload_digest(name):
    """(sha256 hex of the first OPERATIONS[name] seed-3 results, anchor rel_err)."""
    w = WORKLOADS[name]
    state = w.setup()
    rel_err, _ = w.anchor(state)
    sha = hashlib.sha256()
    for p in itertools.islice(w.inputs(SEED), OPERATIONS[name]):
        sha.update(repr(w.digest(w.run(state, p))).encode())
    return sha.hexdigest(), rel_err


def main(argv):
    names = argv or list(OPERATIONS)
    unknown = [n for n in names if n not in OPERATIONS]
    if unknown:
        raise SystemExit(f"unknown workload {unknown[0]!r}; choose from {', '.join(OPERATIONS)}")
    for name in names:
        digest, rel_err = workload_digest(name)
        print(f"{name} ops={OPERATIONS[name]} sha256={digest} rel_err={rel_err!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
