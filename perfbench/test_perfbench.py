"""Tests of the benchmark itself: smoke runs, seed determinism and checks.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from fpu.cli import run_command  # noqa: E402

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record
    assert result["failed"] == 0 and record["fail_ratio"] == 0
    assert result["attempted"] == record["attempted"] >= 1
    return record, result


def units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    record, result = result_of(run(workload, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = record["environment"]
    assert {"python", "numpy", "nproc", "blas_threads", "seed", "git_commit"} <= env.keys()
    assert 1 <= env["blas_threads"] <= env["nproc"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_reports_layers_and_repeats_its_counts(workload):
    first, result = result_of(run(workload, 1))
    second, _ = result_of(run(workload, 1))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.run_command.calls"]["value"] == first["commands_per_pass"]
    assert first["exact_counts"] == second["exact_counts"]
    assert (ROOT / ".perfbench" / "out" / f"spans-{workload}-seed3.jsonl").stat().st_size > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("factorize", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    def inputs(seed, name):
        script = workloads.build(workload, seed, tmp_path / name)
        return [(p.name, p.read_bytes()) for p in script.inputs]

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a") != inputs(6, "c")


def _perturb(text):
    """The same file with one number changed."""
    lines = text.splitlines()
    for k, line in enumerate(lines):
        tokens = line.split()
        if tokens and tokens[0] in ("bg", "patch"):
            tokens[3] = repr(float(tokens[3]) + 0.5)
        elif tokens and tokens[0] in ("core", "right") and len(tokens) > 2:
            tokens[-1] = str(int(tokens[-1]) + 1)
        else:
            continue
        lines[k] = " ".join(tokens)
        return "\n".join(lines) + "\n"
    raise AssertionError("nothing to perturb")


def _wrong_stdouts(stdout):
    swaps = {"true": "false", "false": "true"}
    for k, line in enumerate(stdout.splitlines()):
        key, _, value = line.partition(" ")
        if key in ("index", "member", "equal", "unitary"):
            wrong = swaps.get(value) or str(int(value) + 1)
        elif key == "state":
            i, re, im = value.split()
            wrong = f"{i} {float(re) + 0.5!r} {im}"
        else:
            continue
        lines = stdout.splitlines()
        lines[k] = f"{key} {wrong}"
        yield "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_checks_reject_wrong_outputs(workload, tmp_path):
    script = workloads.build(workload, 4, tmp_path, tiny=True)
    for cmd in script.commands:
        right = cmd.outcome(run_command(cmd.argv))
        assert cmd.verify(right) is None
        files = right.files
        wrong = [workloads.Outcome(right.exit_code ^ 1, right.stdout, right.stderr, files)]
        wrong += [workloads.Outcome(0, out, "", files) for out in _wrong_stdouts(right.stdout)]
        for k, text in enumerate(files):
            bad = list(files)
            bad[k] = _perturb(text)
            wrong.append(workloads.Outcome(0, right.stdout, "", tuple(bad)))
        for outcome in wrong:
            assert cmd.verify(outcome) is not None, (cmd.argv, outcome)
