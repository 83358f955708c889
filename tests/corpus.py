"""Seeded byte-identity corpus of `fpu` runs, for comparing two source trees.

Record the corpus with one tree's `src` on PYTHONPATH, then compare two records:

    PYTHONPATH=src python tests/corpus.py OUT.json
    python tests/corpus.py --compare A.json B.json

The corpus synthesizes 72 operators with `op synth` and runs `index`, `check`,
`adjoint`, `apply --delta 1`, `apply --amp` (see `_amplitudes`), `decompose`,
`factor`, `retract` and `mul` (with the next operator, both orders) on each;
then it writes 60 sequences and runs `member`, `divide`, `equal`, `blocksum`,
`reduce3`, `alpha` and `add` on them.  Last come 25 sequence files written
in non-canonical forms (see `_form_files`), each printed through `shift 0`,
shifted and added to the next one.  The corpus ends with argparse error and
help runs (see `_argparse_runs`), run without an added `--porcelain`.
Each run is recorded with its exit code, stdout, stderr and the files it
wrote.  The comparison prints, per command, how many runs are byte-identical,
how many exit codes differ, how many outputs differ in more than numbers (a
`decompose` may pick another basis), how many runs wrote a file that differs,
the largest difference between numbers that stand in the same place and the
report keys whose values differ; then whether any written file differs.  It
exits 1 when any run's exit code differs between the two records.  A record
of a shorter corpus compares with a longer one over the runs they share.
`decompose` exits 0 only when its own leakage, reconstruction and block
checks pass.  Not collected by pytest.
"""

import argparse
import json
import os
import sys
import tempfile
from collections import defaultdict

import numpy as np

OPERATORS = 72
SEQUENCES = 60
FORMS = 25


def _amplitudes(rng):
    """--amp arguments: three random amplitudes at indices in [-40, 40], inside
    and far outside any patch, then a zero, a -0.0 and the first index again,
    whose amplitude the repeat replaces."""
    cells = [[str(int(j)), repr(float(re)), repr(float(im))]
             for j, re, im in zip(rng.integers(-40, 41, size=3),
                                  rng.normal(size=3), rng.normal(size=3))]
    cells += [[str(int(rng.integers(-40, 41))), "0", "0"],
              [str(int(rng.integers(-40, 41))), "-0.0", "-0.0"],
              [cells[0][0], "-0.0", repr(float(rng.normal()))]]
    return [arg for cell in cells for arg in ["--amp", *cell]]


def _operator_runs(rng):
    """argv lists: one synth per operator, then the commands on each file.
    The amplitudes come from their own generator, so the other runs stay put."""
    runs, amplitudes = [], np.random.default_rng(8)
    for k in range(OPERATORS):
        period, block = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        blocks = int(rng.integers(0, 3))
        index = int(rng.integers(-2, 3)) if k % 4 == 0 else 0
        runs.append(["op", "synth", "--seed", str(k), "--index", str(index),
                     "--period", str(period), "--block", str(block),
                     "--patch-blocks", str(blocks), "-o", f"u{k}.op"])
    for k in range(OPERATORS):
        u, after = f"u{k}.op", f"u{(k + 1) % OPERATORS}.op"
        runs += [["op", "index", u], ["op", "check", u],
                 ["op", "adjoint", u, "-o", f"adj{k}.op"],
                 ["op", "apply", u, "--delta", "1"],
                 ["op", "apply", u, *_amplitudes(amplitudes)],
                 ["op", "decompose", u, "-o", f"v{k}.op", f"w{k}.op"],
                 ["op", "factor", u, "-o", f"fin{k}.op", f"per{k}.op"],
                 ["op", "retract", u, "-o", f"ret{k}.op"],
                 ["op", "mul", u, after, "-o", f"ab{k}.op"],
                 ["op", "mul", after, u, "-o", f"ba{k}.op"]]
    return runs


def _tail(rng, zero_sum):
    values = [int(v) for v in rng.integers(-3, 4, size=int(rng.integers(1, 4)))]
    return values + [-sum(values)] if zero_sum else values


def _seq_text(left, offset, core, right):
    return (f"EPSEQ 1\nleft {' '.join(map(str, left))}\n"
            f"core {' '.join(map(str, [offset, *core]))}\nright {' '.join(map(str, right))}\nEND\n")


def _sequence_files(rng):
    """name -> text of each sequence; every other one has zero-sum tails."""
    files = {}
    for k in range(SEQUENCES):
        core = [int(v) for v in rng.integers(-3, 4, size=int(rng.integers(0, 6)))]
        left, right = _tail(rng, k % 2 == 0), _tail(rng, k % 2 == 0)
        files[f"s{k}.seq"] = _seq_text(left, int(rng.integers(-3, 4)), core, right)
    return files


def _sequence_runs(rng):
    runs = []
    for k in range(SEQUENCES):
        s, after = f"s{k}.seq", f"s{(k + 1) % SEQUENCES}.seq"
        runs += [["seq", "member", s, "-o", f"wit{k}.seq"],
                 ["seq", "divide", s, str(int(rng.integers(1, 5))),
                  "-o", f"q{k}.seq", f"c{k}.seq"],
                 ["seq", "equal", s, after],
                 ["seq", "blocksum", s, str(int(rng.integers(1, 4))), "-o", f"bs{k}.seq"],
                 ["seq", "reduce3", s, "-o", f"r3{k}.seq"],
                 ["seq", "alpha", s, "-o", f"al{k}.seq", f"be{k}.seq"],
                 ["seq", "add", s, after, "-o", f"sum{k}.seq"]]
    return runs


def _form_files(rng):
    """name -> text of sequences that canonicalizing rewrites, by k % 5: tails
    that repeat a shorter word, cores that continue the left and the right
    tail, empty cores away from 0, and periodic sequences at offsets -5, 5."""
    def word(size):
        return [int(v) for v in rng.integers(-2, 3, size=size)]
    files = {}
    for k in range(FORMS):
        left, right = word(int(rng.integers(1, 3))), word(int(rng.integers(1, 3)))
        offset, core = int(rng.integers(-6, 7)), word(int(rng.integers(0, 3)))
        if k % 5 == 0:
            left, right = left * int(rng.integers(2, 4)), right * int(rng.integers(2, 4))
        elif k % 5 == 1:
            core = left * 2 + core
        elif k % 5 == 2:
            core = core + right * 2
        elif k % 5 == 3:
            offset, core = int(rng.choice([-1, 1])) * int(rng.integers(2, 7)), []
        else:
            offset, core = 5 * int(rng.choice([-1, 1])), left * 2
            right = left * 2
        files[f"f{k}.seq"] = _seq_text(left, offset, core, right)
    return files


def _form_runs(rng):
    runs = []
    for k in range(FORMS):
        f, after = f"f{k}.seq", f"f{(k + 1) % FORMS}.seq"
        runs += [["seq", "shift", f, "0"],
                 ["seq", "shift", f, str(int(rng.integers(-6, 7)))],
                 ["seq", "add", f, after]]
    return runs


def _argparse_runs():
    """argv lists that stop in argparse, for the direct subcommand parser and
    the nested one: a missing positional, a bad int, a bad --tol, an extra
    argument, -h, and argv that only the nested parser reads."""
    return [["op", "index"], ["seq", "shift", "s0.seq", "one"],
            ["op", "check", "u0.op", "--tol", "nan"], ["op", "index", "u0.op", "extra"],
            ["op", "adjoint", "u0.op", "--tol", "0.5"], ["op", "synth", "-h"],
            ["seq", "divide", "-h"], [], ["-h"], ["op"], ["op", "nope"],
            ["--porcelain", "op", "index", "u0.op"]]


def record(path):
    from fpu.cli import run_command

    rng = np.random.default_rng(7)
    runs, files = _operator_runs(rng), _sequence_files(rng)
    runs += _sequence_runs(rng)
    forms = np.random.default_rng(9)  # its own generator leaves the runs above put
    files.update(_form_files(forms))
    runs += _form_runs(forms)
    plain = _argparse_runs()
    records, home = [], os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # argv names files relative to the run directory
        try:
            for name, text in files.items():
                with open(name, "w", encoding="utf-8") as handle:
                    handle.write(text)
            for argv, sent in [(argv, [*argv, "--porcelain"]) for argv in runs] + [
                    (argv, argv) for argv in plain]:
                outputs = argv[argv.index("-o") + 1:] if "-o" in argv else []
                result = run_command(sent)
                written = {}
                for name in outputs:
                    if os.path.exists(name):
                        with open(name, encoding="utf-8") as handle:
                            written[name] = handle.read()
                records.append({"argv": argv, "exit": result.exit_code,
                                "stdout": result.stdout, "stderr": result.stderr,
                                "files": written})
        finally:
            os.chdir(home)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1)
    print(f"{len(records)} runs recorded in {path}")


def _largest_difference(a, b):
    """Largest |x - y| over numbers in the same place of a and b, or None if
    the two differ in anything but numbers."""
    ta, tb = a.split(), b.split()
    if len(ta) != len(tb):
        return None
    largest = 0.0
    for x, y in zip(ta, tb):
        if x == y:
            continue
        try:
            largest = max(largest, abs(float(x) - float(y)))
        except ValueError:
            return None
    return largest


def _text(run):
    return "\n".join([run["stdout"], run["stderr"],
                      *(f"{name}\n{text}" for name, text in sorted(run["files"].items()))])


def _differing_keys(a, b):
    """Report keys (a line's first word) whose lines differ between two stdouts."""
    return {x.split()[0] for x, y in zip(a.splitlines(), b.splitlines())
            if x != y and x.split()[:1] == y.split()[:1]}


def compare(path_a, path_b):
    with open(path_a, encoding="utf-8") as handle:
        runs_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        runs_b = json.load(handle)
    shared = min(len(runs_a), len(runs_b))
    runs_a, runs_b = runs_a[:shared], runs_b[:shared]
    if [r["argv"] for r in runs_a] != [r["argv"] for r in runs_b]:
        sys.exit("the two records hold different runs")
    # runs, identical, exit codes differing, differing in more than numbers,
    # written files differing, largest, differing report keys
    stats = defaultdict(lambda: [0, 0, 0, 0, 0, 0.0, set()])
    for a, b in zip(runs_a, runs_b):
        entry = stats[" ".join(a["argv"][:2])]
        entry[0] += 1
        if a == b:
            entry[1] += 1
            continue
        entry[2] += a["exit"] != b["exit"]
        entry[4] += a["files"] != b["files"]
        entry[6] |= _differing_keys(a["stdout"], b["stdout"])
        largest = _largest_difference(_text(a), _text(b))
        if largest is None:
            entry[3] += 1
        else:
            entry[5] = max(entry[5], largest)
    print(f"{'command':<14} {'runs':>5} {'identical':>9} {'exit-differs':>12} "
          f"{'form-differs':>12} {'files-differ':>12} {'largest':>9}  keys-differ")
    for command, (total, same, exits, form, files, largest, keys) in stats.items():
        print(f"{command:<14} {total:>5} {same:>9} {exits:>12} {form:>12} {files:>12} "
              f"{largest:>9.2g}  {','.join(sorted(keys)) or '-'}")
    print(f"runs compared: {shared}")
    files = sum(entry[4] for entry in stats.values())
    print(f"written files: {f'{files} runs differ' if files else 'all identical'}")
    return any(entry[2] for entry in stats.values())


def main():
    parser = argparse.ArgumentParser(description="Seeded byte-identity corpus of fpu runs.")
    parser.add_argument("out", nargs="?", help="record the corpus in this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        sys.exit(1 if compare(*args.compare) else 0)
    elif args.out:
        record(args.out)
    else:
        parser.error("give OUT.json or --compare A.json B.json")


if __name__ == "__main__":
    main()
