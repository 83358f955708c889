"""Stress files for the operator and sequence commands, timed in fresh interpreters.

Write six large operator files and three sequence files and time the
commands that read them, each run in a new interpreter through `run_command`,
with each given source tree on PYTHONPATH in turn:

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
    delta0          tests/fixtures/delta0.seq, the delta sequence at 0
    core-30000      seeded values in -9..9: a 30000-value core between
                    tails of 5 and 7 values
    tails-3001+2999 seeded tails of 3001 and 2999 values around a 5-value
                    core; the lcm of the tail periods is about 9 million

`check` runs on the first five, `decompose` on corner-300 and dense-120,
`factor` on corner-300 and phase-1500+R300, `index` on diag-600 and
`adjoint -o` on diag-600 and corner-300, its output file removed before each
run.  `seq blocksum` runs on delta0 with n = 1000000 and on core-30000 with
n = 7 (about 4,300 block boundaries inside the core), `seq reduce3` and
`seq alpha` on core-30000 and `seq shift 0` on tails-3001+2999.  For each
command and tree the table shows, as medians of 3 runs, the seconds of the
`run_command` call in the child (`s`), the child's whole wall time as this
script measures it around `subprocess.run` (`wall`: interpreter start,
imports and the command) and its peak resident MB, and with --traced the
tracemalloc peak MB of one more run.  A first `bare` row times
`python -c pass` in the same alternation, so `wall` less `bare` less `s` is
what importing fpu costs a command.  The peak is the child's own `VmHWM`
from /proc/self/status, which exec starts afresh; `ru_maxrss` would carry
the larger peak of this script's process across fork and exec.  Linux only.
Not collected by pytest.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from fpu.cli import serialize_operator  # noqa: E402  (writes dense-120)
from fpu.gnvw import synth_random  # noqa: E402

# one run: prints [seconds, VmHWM MB, tracemalloc peak MB or null, exit code]
CHILD = """
import json, sys, time, tracemalloc
from fpu.cli import run_command
traced = sys.argv[1] == "traced"
if traced:
    tracemalloc.start()
start = time.perf_counter()
result = run_command(sys.argv[2:])
seconds = time.perf_counter() - start
peak = tracemalloc.get_traced_memory()[1] / 2 ** 20 if traced else None
with open("/proc/self/status") as status:
    rss = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
print(json.dumps([seconds, rss, peak, result.exit_code]))
"""

# (group, command, file, further arguments)
RUNS = [("op", "check", "phase-1500"), ("op", "check", "phase-1500+R300"),
        ("op", "check", "corner-300"), ("op", "check", "diag-600"), ("op", "check", "S^1000"),
        ("op", "decompose", "corner-300"), ("op", "decompose", "dense-120"),
        ("op", "factor", "corner-300"), ("op", "factor", "phase-1500+R300"),
        ("op", "index", "diag-600"), ("op", "adjoint", "diag-600"),
        ("op", "adjoint", "corner-300"), ("seq", "blocksum", "delta0", "1000000"),
        ("seq", "blocksum", "core-30000", "7"), ("seq", "reduce3", "core-30000"), ("seq", "alpha", "core-30000"),
        ("seq", "shift", "tails-3001+2999", "0")]


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


def _sequence(rng, left, core, right):
    """EPSEQ text with seeded values in -9..9: tails of `left` and `right`
    values around `core` values from offset 0."""
    def values(size):
        return " ".join(map(str, rng.integers(-9, 10, size).tolist()))
    return f"EPSEQ 1\nleft {values(left)}\ncore 0 {values(core)}\nright {values(right)}\nEND\n"


def files():
    """The nine stress files, name -> text."""
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
        "delta0": (pathlib.Path(__file__).parent / "fixtures" / "delta0.seq").read_text(),
        "core-30000": _sequence(np.random.default_rng(1), 5, 30000, 7),
        "tails-3001+2999": _sequence(np.random.default_rng(2), 3001, 5, 2999),
    }


def _run(src, traced, argv):
    """CHILD's four values for one run of argv, then the child's wall seconds;
    argv None runs `python -c pass`, whose four values are None."""
    child = ["pass"] if argv is None else [CHILD, "traced" if traced else "plain", *argv]
    if argv and "-o" in argv:  # time writing a new file, not overwriting the last run's
        pathlib.Path(argv[-1]).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(src).resolve()))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", *child], env=env, capture_output=True, text=True,
                         check=True)
    wall = time.perf_counter() - start
    return (json.loads(out.stdout) if argv else [None] * 4) + [wall]


def _column(value, digits):
    return f"{value:7.{digits}f}" if value is not None else f"{'-':>7}"


def main():
    parser = argparse.ArgumentParser(
        description="Time operator and sequence commands on stress files.")
    parser.add_argument("src", nargs="*", default=["src"], help="source trees to compare")
    parser.add_argument("--traced", action="store_true",
                        help="add one tracemalloc run per command and tree")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files().items():
            suffix = ".seq" if text.startswith("EPSEQ") else ".op"
            paths[name] = pathlib.Path(tmp, name.replace("^", "").replace("+", "-") + suffix)
            paths[name].write_text(text)
        print(f"{'command':<26} {'src':<28} {'s':>7} {'wall':>7} {'MB':>7}"
              + (f" {'peak':>7}" if args.traced else ""))
        for run in [None, *RUNS]:  # None: the bare interpreter
            if run is None:
                argv, label = None, "bare"
            else:
                group, command, name, *rest = run
                argv = [group, command, str(paths[name]), *rest]
                argv += ["-o", str(pathlib.Path(tmp, "out.op"))] if command == "adjoint" else []
                label = " ".join([command, name, *rest])
            samples = {src: [] for src in args.src}
            for _ in range(3):  # alternate the trees so drift hits each alike
                for src in args.src:
                    samples[src].append(_run(src, False, argv))
            for src, runs in samples.items():
                seconds, rss, _, _, wall = (None if None in column else statistics.median(column)
                                            for column in zip(*runs))
                row = " ".join([f"{label:<26} {src[-28:]:<28}", _column(seconds, 3),
                                _column(wall, 3), _column(rss, 1)])
                if args.traced:
                    row += " " + _column(argv and _run(src, True, argv)[2], 1)
                codes = sorted({run[3] for run in runs} - {0, None})
                print(row + (f"  exit {codes}" if codes else ""), flush=True)


if __name__ == "__main__":
    main()
