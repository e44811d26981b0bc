"""Record a baseline: one untraced and one traced run of every workload.

    python3 perfbench/baseline/record.py --seed 1 --seconds 20 --out perfbench/baseline/seed.json

Run from the root of a source checkout.  The file holds each run's result
line and detail line (without the environment, which is stored once).
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip().splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail "))
            out.setdefault("env", {k: v for k, v in detail.pop("env").items() if k != "seed"})
            entry[key] = {"result": result, "detail": detail}
            print(name, key, result["correct"], result["attempted"], result["failed"], flush=True)
        out["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
