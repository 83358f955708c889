"""Smoke tests of the measurement scripts kept under tests/."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [workload["name"] for workload in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_abtime_runs_one_pass_of_a_tree_against_itself(workload):
    # every perf claim is read from this A/B timer: it must pass its identity
    # check and print its summary on the smallest run it takes, on each
    # workload of the benchmark
    proc = subprocess.run([sys.executable, "tests/abtime.py", ".", ".", "--workload",
                           workload, "--seed", "1", "--passes", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "median speedup (A time / B time): " in proc.stdout
