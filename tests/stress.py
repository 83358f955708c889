"""Stress files for the operator commands, timed in fresh interpreters.

Write six large operator files and time the commands that read them, each run
in a new interpreter through `run_command`, with each given source tree on
PYTHONPATH in turn:

    python tests/stress.py                     # the repository's own src
    python tests/stress.py OLD/src src         # two trees, runs alternated
    python tests/stress.py --traced src        # plus one tracemalloc run each

The files:

    phase-1500      period 1500, bg i 0 set to seeded unit phases
    phase-1500+R300 that background under a radius-300 patch repeating its
                    diagonal, except that the two end cells move to the
                    corners (-300, 299) and (299, -300)
    corner-300      the same corner patch over the identity
    diag-600        the identity with -1 down a radius-600 patch diagonal
    S^1000          the shift bg 0 1000 1.0 0.0
    dense-120       synth_random(0, 1, 120, 60, seed=0): a dense Haar
                    background of period 120 and reach 119 under a
                    radius-60 patch, decomposed on blocks of 240

`check` runs on the first five, `decompose` on corner-300 and dense-120,
`factor` on corner-300 and phase-1500+R300, `index` on diag-600 and
`adjoint -o` on diag-600 and corner-300, its output file removed before each
run.  For each command and
tree the table shows the median wall seconds and `ru_maxrss` MB of 3 runs, and
with --traced the tracemalloc peak MB of one more run.  Not collected by pytest.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from fpu.cli import serialize_operator  # noqa: E402  (writes dense-120)
from fpu.gnvw import synth_random  # noqa: E402

# one run: prints [seconds, ru_maxrss MB, tracemalloc peak MB or null, exit code]
CHILD = """
import json, resource, sys, time, tracemalloc
from fpu.cli import run_command
traced = sys.argv[1] == "traced"
if traced:
    tracemalloc.start()
start = time.perf_counter()
result = run_command(sys.argv[2:])
seconds = time.perf_counter() - start
peak = tracemalloc.get_traced_memory()[1] / 2 ** 20 if traced else None
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([seconds, rss, peak, result.exit_code]))
"""

RUNS = [("check", "phase-1500"), ("check", "phase-1500+R300"), ("check", "corner-300"),
        ("check", "diag-600"), ("check", "S^1000"), ("decompose", "corner-300"),
        ("decompose", "dense-120"),
        ("factor", "corner-300"), ("factor", "phase-1500+R300"), ("index", "diag-600"),
        ("adjoint", "diag-600"), ("adjoint", "corner-300")]


def _cell(key, i, j, value):
    return f"{key} {i} {j} {value.real!r} {value.imag!r}"


def _operator(period, band, background, radius=0, patch=()):
    lines = ["FPUOP 1", f"period {period}", f"band {band}"]
    lines += [f"patch-radius {radius}"] if radius else []
    lines += [_cell("bg", i, d, v) for i, d, v in background]
    lines += [_cell("patch", i, j, v) for i, j, v in patch]
    return "\n".join([*lines, "END", ""])


def _corners(radius, diagonal):
    """The cells (i, i) of [-radius, radius) with values diagonal(i), the two
    end cells moved to the corners (-radius, radius - 1) and (radius - 1, -radius)."""
    cells = [(i, i, diagonal(i)) for i in range(-radius + 1, radius - 1)]
    return cells + [(-radius, radius - 1, diagonal(-radius)),
                    (radius - 1, -radius, diagonal(radius - 1))]


def files():
    """The six stress files, name -> text."""
    phases = np.exp(2j * np.pi * np.random.default_rng(0).random(1500))
    phase_bg = [(i, 0, complex(v)) for i, v in enumerate(phases)]
    one = [(0, 0, 1 + 0j)]
    return {
        "phase-1500": _operator(1500, 0, phase_bg),
        "phase-1500+R300": _operator(1500, 0, phase_bg, 300,
                                     _corners(300, lambda i: complex(phases[i % 1500]))),
        "corner-300": _operator(1, 0, one, 300, _corners(300, lambda i: 1 + 0j)),
        "diag-600": _operator(1, 0, one, 600, [(i, i, -1 + 0j) for i in range(-600, 600)]),
        "S^1000": _operator(1, 1000, [(0, 1000, 1 + 0j)]),
        "dense-120": serialize_operator(synth_random(0, 1, 120, 60, seed=0)),
    }


def _run(src, traced, argv):
    if "-o" in argv:  # time writing a new file, not overwriting the last run's
        pathlib.Path(argv[-1]).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(src).resolve()))
    out = subprocess.run([sys.executable, "-c", CHILD, "traced" if traced else "plain", *argv],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main():
    parser = argparse.ArgumentParser(description="Time operator commands on stress files.")
    parser.add_argument("src", nargs="*", default=["src"], help="source trees to compare")
    parser.add_argument("--traced", action="store_true",
                        help="add one tracemalloc run per command and tree")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files().items():
            paths[name] = pathlib.Path(tmp, name.replace("^", "").replace("+", "-") + ".op")
            paths[name].write_text(text)
        print(f"{'command':<26} {'src':<28} {'s':>7} {'MB':>7}"
              + (f" {'peak':>7}" if args.traced else ""))
        for command, name in RUNS:
            argv = ["op", command, str(paths[name])]
            argv += ["-o", str(pathlib.Path(tmp, "out.op"))] if command == "adjoint" else []
            samples = {src: [] for src in args.src}
            for _ in range(3):  # alternate the trees so drift hits each alike
                for src in args.src:
                    samples[src].append(_run(src, False, argv))
            for src, runs in samples.items():
                seconds = statistics.median(run[0] for run in runs)
                rss = statistics.median(run[1] for run in runs)
                row = f"{command + ' ' + name:<26} {src[-28:]:<28} {seconds:7.3f} {rss:7.1f}"
                if args.traced:
                    row += f" {_run(src, True, argv)[2]:7.1f}"
                codes = sorted({run[3] for run in runs} - {0})
                print(row + (f"  exit {codes}" if codes else ""), flush=True)


if __name__ == "__main__":
    main()
