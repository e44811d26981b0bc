"""Smoke tests for the runnable scripts."""
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=300
    )


def test_derive_constants_script():
    proc = run_script("derive_c_e3.py", "801")
    assert proc.returncode == 0
    assert "C_E3_BAND_INTEGRAL" in proc.stdout
    assert "pointwise min h          = 0.0" in proc.stdout
    # the printed integral matches the recorded constant to grid accuracy
    line = next(l for l in proc.stdout.splitlines() if "band integral" in l)
    value = float(line.split("=")[1].split()[0])
    assert abs(value - 1.3410254) < 1e-4


def test_ifv_sweep_script():
    proc = run_script("ifv_epsilon_sweep.py", "0.2", "0.4,0.2")
    assert proc.returncode == 0
    assert "trend recorded" in proc.stdout


def test_bad_level_sweep_script():
    proc = run_script("bad_level_sweep.py", "3")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.strip().startswith("-")]
    masses = [float(l.split()[2]) for l in lines]
    assert len(masses) == 3
    # boundary mass grows under refinement towards the singular hoop
    assert masses[0] < masses[1] < masses[2]


def test_workload_digests_script():
    proc = run_script("workload_digests.py", "slice_shift")
    assert proc.returncode == 0, proc.stderr
    name, ops, digest, rel_err = proc.stdout.split()
    assert (name, ops) == ("slice_shift", "ops=150")
    assert digest.startswith("sha256=") and len(digest) == len("sha256=") + 64
    assert float(rel_err.split("=")[1]) < 0.05
    unknown = run_script("workload_digests.py", "no_such_workload")
    assert unknown.returncode != 0 and "unknown workload" in unknown.stderr
