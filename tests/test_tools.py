"""Smoke tests of the measurement scripts kept under tests/."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_abtime_runs_one_pass_of_a_tree_against_itself():
    # every perf claim is read from this A/B timer: it must pass its identity
    # check and print its summary on the smallest run it takes
    proc = subprocess.run([sys.executable, "tests/abtime.py", ".", ".", "--workload",
                           "factorize", "--seed", "1", "--passes", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "median speedup (A time / B time): " in proc.stdout
