"""Smoke tests of the measurement scripts kept under tests/."""

import ast
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [workload["name"] for workload in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _abtime(old, new, workload):
    """The A/B timer's smallest run: seed 1, one pass."""
    return subprocess.run([sys.executable, "tests/abtime.py", str(old), str(new), "--workload",
                           workload, "--seed", "1", "--passes", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_abtime_runs_one_pass_of_a_tree_against_itself(workload):
    # every perf claim is read from this A/B timer: it must pass its identity
    # check and print its summary on the smallest run it takes, on each
    # workload of the benchmark
    proc = _abtime(".", ".", workload)
    assert proc.returncode == 0, proc.stderr
    assert "median speedup (A time / B time): " in proc.stdout


# a run_command that imports a sibling module inside the call, as a lazily
# importing handler would, and checks that the import found its own tree's file
LAZY_IMPORT = '''

_run_command = run_command


def run_command(argv):
    from . import gnvw
    assert gnvw.__file__ == __file__.replace("cli.py", "gnvw.py"), gnvw.__file__
    return _run_command(argv)
'''


def test_abtime_times_a_tree_that_imports_inside_a_handler(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    with open(tmp_path / "src" / "fpu" / "cli.py", "a") as cli:
        cli.write(LAZY_IMPORT)
    proc = _abtime(".", tmp_path, "factorize")
    assert proc.returncode == 0, proc.stderr
    assert "median speedup (A time / B time): " in proc.stdout


def test_abtime_names_a_checkout_without_the_package(tmp_path):
    proc = _abtime(".", tmp_path, "factorize")
    assert proc.returncode == 1
    assert proc.stderr == f"error: {tmp_path} has no src/fpu/__init__.py\n"


def test_no_module_imports_fpu_by_its_absolute_name():
    # the A/B timer loads each tree's package under its own name, so a module
    # that imported fpu absolutely would run another tree's code
    for path in sorted((ROOT / "src" / "fpu").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not any(n == "fpu" or n.startswith("fpu.") for n in names), \
                f"{path.name}:{node.lineno} imports {names}"
