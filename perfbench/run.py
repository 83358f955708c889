"""The fpu benchmark: one client in a closed loop on fpu.cli.run_command.

    python3 perfbench/run.py --workload factorize --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The line
before it is the full record of the run, which is also written under
.perfbench/out/. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones. README.md in this directory explains both.
"""

import time

SETUP_START = time.perf_counter()  # set-up time counts from here

import os

# Pinned before numpy loads, so that timings do not depend on the host's cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Set-up runs in this process and in this many fresh ones, half before and
# half after the measurement, so they fall in different phases of the host's
# load; setup_s is their median.
SETUP_PROBES = 6
# Commands shorter than this run in every pass of an untraced run, longer
# ones in every k-th pass; see Runner.phase.
SAMPLE_SPACING_S = 0.05
# A run stops starting new passes over its script after this many seconds.
WALL_LIMIT_S = 100.0
PROBE_TIMEOUT_S = 60.0

END_TO_END = {"cmds_per_s": "1/s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("factorize", "op_algebra", "seq_exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="command time to measure; whole passes are run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every ladder, for the smoke tests")
    parser.add_argument("--probe", action="store_true",
                        help="internal: set up, report set-up time and exit")
    return parser.parse_args(argv)


class Runner:
    """Sends a script's commands one after another and checks each result.

    A command's first result is checked against its reference. Later passes
    must reproduce that verified result byte for byte, or pass the check
    again. Only the run_command call is timed.
    """

    def __init__(self, script, cli):
        self.script = script
        self.cli = cli  # run_command is looked up per call, so tracing sees its wrapper
        self.tracer = None
        self.verified = {}
        self.times = [[] for _ in script.commands]  # seconds, per script position
        self.attempted = self.failed = 0
        self.problems = []

    def command(self, pos, cmd):
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        if self.tracer is not None:
            self.tracer.command = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.cli.run_command(cmd.argv)
        except Exception:  # a traceback is a failed command, not a failed run
            self.times[pos].append(time.perf_counter() - start)
            self._fail(cmd, traceback.format_exc())
            return
        self.times[pos].append(time.perf_counter() - start)
        outcome = cmd.outcome(result)
        if self.verified.get(pos) == outcome:
            return
        problem = cmd.verify(outcome)
        if problem is None:
            self.verified[pos] = outcome
        else:
            self._fail(cmd, problem)

    def _fail(self, cmd, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{' '.join(cmd.argv)}: {message}")

    def run_pass(self, every=None, index=0):
        """One pass over the script; with `every`, only the commands whose
        entry divides `index`."""
        for pos, cmd in enumerate(self.script.commands):
            if every is None or index % every[pos] == 0:
                self.command(pos, cmd)

    def phase(self, budget_s, after_pass=None, spacing_s=None):
        """Passes until `budget_s` seconds of command time have run.

        Returns the passes run and each command's fastest time among them.
        On the shared 2-vCPU host this benchmark was tuned on, each vCPU runs
        up to 2.2 times slower in phases that last from under a second to
        minutes. Passes therefore go round the CPUs this process may use, one
        pass per CPU in turn, and a command's fastest time is taken at the
        best speed any of its samples met. With `spacing_s`, a pass after the
        first runs a command only in every k-th pass, k being its fastest
        time so far over `spacing_s`, rounded up. The few long commands then
        no longer stretch every pass, and the short ones, which set the
        percentiles, are sampled several times as often across the run.
        Without it every pass runs every command.
        """
        self.times = [[] for _ in self.script.commands]
        every = None
        cpus = sorted(os.sched_getaffinity(0))
        wall = time.perf_counter()
        passes = 0
        try:
            while (passes == 0 or sum(map(sum, self.times)) < budget_s) \
                    and time.perf_counter() - wall < WALL_LIMIT_S:
                os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
                self.run_pass(every, passes)
                passes += 1
                if spacing_s is not None:
                    every = [math.ceil(min(ts) / spacing_s) for ts in self.times]
                if after_pass is not None:
                    after_pass()
        finally:
            os.sched_setaffinity(0, cpus)
        return passes, [min(ts) for ts in self.times]


def digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, numpy):
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "seed": args.seed, "git_commit": git_commit(),
            "platform": platform.platform()}


def probe(args, traced):
    """Set up again in a fresh interpreter; with `traced`, also count one
    traced pass. Returns the probe's JSON report."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--trace", str(int(traced)), "--size", args.size]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def counted_pass(runner, tracing):
    """Exact counts of one traced pass of `runner`'s script."""
    tracer = runner.tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run_pass()
    finally:
        tracer.uninstall()
    return tracer.exact_counts()


def untraced(args, runner, setup_s, inputs_hash, record):
    setups = [setup_s]

    def set_up_again(times):
        for _ in range(times):
            report = probe(args, traced=False)
            setups.append(report["setup_s"])
            if report["inputs_sha256"] != inputs_hash:
                record["problems"].append("same seed gave different inputs")

    set_up_again(SETUP_PROBES // 2)
    passes, best = runner.phase(args.seconds, spacing_s=SAMPLE_SPACING_S)
    set_up_again(SETUP_PROBES - SETUP_PROBES // 2)
    times_ms = [t * 1e3 for t in best]
    record.update(passes=passes, setup_samples_s=setups,
                  samples_per_command=[len(ts) for ts in runner.times])
    return {
        "cmds_per_s": len(best) / sum(best),
        "cmd_p50_ms": statistics.median(times_ms),
        "cmd_p90_ms": statistics.quantiles(times_ms, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }


def traced(args, runner, tracing, inputs_hash, record):
    """Half the time untraced, half traced; the ratio of their throughputs
    is the tracing overhead."""
    _, best = runner.phase(args.seconds / 2)
    plain_rate = len(best) / sum(best)
    tracer = runner.tracer = tracing.Tracer()
    per_pass = []

    def after_pass():
        per_pass.append(tracer.exact_counts())

    tracer.install()
    try:
        passes, best = runner.phase(args.seconds / 2, after_pass)
    finally:
        tracer.uninstall()
    tracer.write(STATE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    counts = per_pass[0]
    for before, after in zip(per_pass, per_pass[1:]):
        if {k: v - before.get(k, 0) for k, v in after.items()} != counts:
            record["problems"].append("exact counts differ between passes")
    report = probe(args, traced=True)
    if report["inputs_sha256"] != inputs_hash:
        record["problems"].append("same seed gave different inputs")
    if report["counts"] != counts:
        record["problems"].append("exact counts differ between two runs of one seed")
    metrics = tracer.layer_metrics(passes, counts)
    traced_rate = len(best) / sum(best)
    metrics["trace.overhead_x"] = plain_rate / traced_rate
    record.update(passes=passes, exact_counts=counts, spans=len(tracer.spans),
                  untraced_cmds_per_s=plain_rate, traced_cmds_per_s=traced_rate)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fpu" / "__init__.py").is_file():
        print(f"error: no fpu sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import fpu.cli
    if Path(fpu.__file__).resolve().parent != SRC / "fpu":
        print(f"error: imported fpu from {fpu.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = STATE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        script = workloads.build(args.workload, args.seed, workdir, args.size == "tiny")
        for cmd in script.warmups():
            fpu.cli.run_command(cmd.argv)
        setup_s = time.perf_counter() - SETUP_START
        inputs_hash = digest(script.inputs)
        runner = Runner(script, fpu.cli)
        if args.probe:
            report = {"setup_s": setup_s, "inputs_sha256": inputs_hash}
            if args.trace:
                report["counts"] = counted_pass(runner, tracing)
            print(json.dumps(report))
            return 0
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "size": args.size,
                  "environment": environment(args, numpy),
                  "commands_per_pass": len(script.commands),
                  "inputs_sha256": inputs_hash, "problems": []}
        if args.trace:
            metrics = traced(args, runner, tracing, inputs_hash, record)
            units = tracing.layer_units()
        else:
            metrics = untraced(args, runner, setup_s, inputs_hash, record)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(attempted=runner.attempted, failed=runner.failed,
                  fail_ratio=runner.failed / runner.attempted,
                  failures=runner.problems, metrics=metrics)
    out = STATE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0 and not record["problems"],
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
