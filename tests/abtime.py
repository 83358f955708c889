"""A/B timer of two source trees on one benchmark workload, in one process.

    python tests/abtime.py OLD NEW --workload factorize --seed 13 --passes 50

OLD and NEW are checkouts, each holding src/fpu. Each tree's package is
imported once, by path, under its own name (fpu_a for OLD, fpu_b for NEW), so
both stay loaded side by side for the whole run and each resolves its own
relative imports, at import time or inside a handler. The library must
therefore never import fpu by its absolute name: that import would reach the
plain fpu on sys.path, OLD's, and NEW would silently run OLD's code. The
workload's script is built once, in a temporary directory, by
perfbench/workloads.py, imported with OLD's src first on sys.path; that file
is only read.

First each command runs once on each tree. The timer exits 1 if an exit code,
stdout, stderr or written file differs between the trees, or if a result
fails the script's own check. Then each pass times every command on both
trees, one right after the other; the order flips every pass, and the process
moves to the next CPU it may use every pass, as perfbench/run.py does, so the
host's slow phases hit both trees alike. A command's time is its fastest over
the passes. For each tree it prints p50 and p90 of those times in ms and
cmds_per_s, computed as perfbench/run.py computes them, then the median over
commands, and over each kind of command, of the speedup OLD time / NEW time.

A claim of a few percent needs runs in both orders, OLD NEW and NEW OLD: one
order of this timer once read a ~2% speedup that an A/A run of one tree did
not show. Not collected by pytest.
"""

import os

# Pinned before numpy loads, as perfbench/run.py pins them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_cli(tree, name):
    """The cli module of tree/src/fpu, whose package is imported as `name`."""
    package = Path(tree, "src", "fpu").resolve()
    init = package / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {tree} has no src/fpu/__init__.py")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(package)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.cli")


def _run(cli, cmd):
    """Seconds of one run_command call, its result and the bytes it wrote."""
    for path in cmd.outputs:
        path.unlink(missing_ok=True)
    start = time.perf_counter()
    result = cli.run_command(cmd.argv)
    seconds = time.perf_counter() - start
    return seconds, result, tuple(p.read_bytes() if p.exists() else None
                                  for p in cmd.outputs)


def _same_results(script, clis):
    """Problems of the first run of each command on both trees: results that
    differ between the trees, or that fail the script's check."""
    problems = []
    for cmd in script.commands:
        (a, files_a), (b, files_b) = (_run(cli, cmd)[1:] for cli in clis)
        if (a.exit_code, a.stdout, a.stderr, files_a) != (b.exit_code, b.stdout,
                                                          b.stderr, files_b):
            problems.append(f"{' '.join(cmd.argv)}: the trees' results differ")
        problem = cmd.verify(cmd.outcome(b))  # b's files are still on disk
        if problem is not None:
            problems.append(f"{' '.join(cmd.argv)}: {problem}")
    return problems


def _timed(script, clis, passes):
    """Each command's fastest time on each tree, over alternating passes, and
    the commands whose exit code changed during them."""
    best = [[float("inf")] * len(script.commands) for _ in clis]
    changed = set()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for k in range(passes):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            order = (0, 1) if k % 2 == 0 else (1, 0)
            for pos, cmd in enumerate(script.commands):
                for side in order:
                    seconds, result, _ = _run(clis[side], cmd)
                    best[side][pos] = min(best[side][pos], seconds)
                    if result.exit_code != cmd.exit_code:
                        changed.add(" ".join(cmd.argv))
    finally:
        os.sched_setaffinity(0, cpus)
    return best, sorted(changed)


def _summary(times):
    ms = [t * 1e3 for t in times]
    return (statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[-1],
            len(times) / sum(times))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="checkout timed as A")
    parser.add_argument("new", help="checkout timed as B")
    parser.add_argument("--workload", required=True,
                        choices=("factorize", "op_algebra", "seq_exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=50)
    args = parser.parse_args()

    clis = (_load_cli(args.old, "fpu_a"), _load_cli(args.new, "fpu_b"))
    sys.path[:0] = [str(Path(args.old, "src").resolve()), str(PERFBENCH)]
    import workloads  # builds the script with OLD's fpu

    with tempfile.TemporaryDirectory() as tmp:
        script = workloads.build(args.workload, args.seed, Path(tmp))
        problems = _same_results(script, clis)
        if problems:
            print("\n".join(problems[:20]), file=sys.stderr)
            return 1
        best, changed = _timed(script, clis, args.passes)
    if changed:
        print("exit codes changed while timing:\n" + "\n".join(changed), file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed}, {len(script.commands)} commands, "
          f"{args.passes} passes")
    print(f"{'tree':<40} {'p50_ms':>8} {'p90_ms':>8} {'cmds_per_s':>11}")
    rows = [(tree, *_summary(times)) for tree, times in zip((args.old, args.new), best)]
    for tree, p50, p90, rate in rows:
        print(f"{tree[-40:]:<40} {p50:8.4f} {p90:8.4f} {rate:11.1f}")
    (_, p50_a, p90_a, rate_a), (_, p50_b, p90_b, rate_b) = rows
    print(f"change: p50 {p50_b / p50_a - 1:+.1%}, p90 {p90_b / p90_a - 1:+.1%}, "
          f"cmds_per_s {rate_b / rate_a - 1:+.1%}")
    speedups = [a / b for a, b in zip(*best)]
    print(f"median speedup (A time / B time): {statistics.median(speedups):.3f}")
    kinds = {}
    for cmd, speedup in zip(script.commands, speedups):
        kinds.setdefault(" ".join(cmd.argv[:2]), []).append(speedup)
    for kind, values in sorted(kinds.items()):
        print(f"  {kind:<14} {statistics.median(values):.3f} over {len(values)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
