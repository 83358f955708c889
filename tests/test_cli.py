"""CLI contract tests: exit codes, golden files, round trips, determinism."""

import argparse
import errno
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpu

from fpu import cli
from fpu.cli import (_PARSER, CommandResult, parse_operator_text, parse_seq_text,
                     run_command, serialize_operator, serialize_seq)
from fpu.errors import ValidationError
from fpu.matutil import haar_unitary
from fpu.operators import EndPeriodicOperator, PeriodicBandOperator, embed_finite
from fpu.sequences import EventuallyPeriodicSeq

from conftest import cost_exponent, traced_peak
from golden_cases import GOLDEN_CASES, resolve_argv

TESTS_DIR = pathlib.Path(__file__).parent
FIXTURES = TESTS_DIR / "fixtures"
GOLDENS = TESTS_DIR / "goldens"

GOOD_OPS = sorted(p for p in FIXTURES.glob("*.op") if not p.name.startswith("bad_"))
GOOD_SEQS = sorted(p for p in FIXTURES.glob("*.seq") if not p.name.startswith("bad_"))


def fixture(name: str) -> str:
    return str(FIXTURES / name)


# -- parsing and round trips -----------------------------------------------------

@pytest.mark.parametrize("path", GOOD_OPS, ids=lambda p: p.name)
def test_operator_round_trip(path):
    text = path.read_text()
    op = parse_operator_text(text)
    again = serialize_operator(op)
    assert again == text
    assert parse_operator_text(again) == op


@pytest.mark.parametrize("path", GOOD_SEQS, ids=lambda p: p.name)
def test_seq_round_trip(path):
    text = path.read_text()
    seq = parse_seq_text(text)
    again = serialize_seq(seq)
    assert again == text
    assert parse_seq_text(again) == seq


def test_parse_shift_file_structure():
    op = parse_operator_text(fixture_text("shift1.op"))
    assert type(op) is PeriodicBandOperator and op.background is op
    assert op.period == 1 and op.band == 1
    assert op.entries == {(0, 1): (1 + 0j)}
    assert "\npatch " not in serialize_operator(op)


def test_parse_end_periodic_structure():
    op = parse_operator_text(fixture_text("endswap.op"))
    assert isinstance(op, EndPeriodicOperator)
    assert op.patch_radius == 1


def test_background_equal_patch_lines_parse_to_the_background():
    # a periodic operator has one form: patch lines that repeat the shift's
    # own entries leave no patch, and no EndPeriodicOperator around it
    op = parse_operator_text("FPUOP 1\nperiod 1\nband 1\npatch-radius 2\n"
                             "bg 0 1 1.0 0.0\npatch -2 -1 1.0 0.0\n"
                             "patch -1 0 1.0 0.0\npatch 0 1 1.0 0.0\nEND\n")
    assert type(op) is PeriodicBandOperator
    assert serialize_operator(op) == fixture_text("shift1.op")


@pytest.mark.parametrize("kind, name", [("op", "endswap.op"), ("seq", "period3.seq")])
def test_a_crlf_file_reads_as_its_lf_form(tmp_path, kind, name):
    text = fixture_text(name)
    path = tmp_path / name
    path.write_bytes(text.replace("\n", "\r\n").encode())
    if kind == "op":
        assert serialize_operator(cli._load_operator(str(path))) == text
    else:
        assert cli._load_seq(str(path)) == parse_seq_text(text)


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def test_parse_canonicalizes_redundant_sequence():
    # doubled tails and a core that repeats them collapse to the constant
    text = "EPSEQ 1\nleft 1 1\ncore 2 1 1 1\nright 1 1\nEND\n"
    from fpu.sequences import constant
    assert parse_seq_text(text) == constant(1)
    text = "EPSEQ 1\nleft 1 -1\ncore 0\nright 1 -1\nEND\n"
    from fpu.sequences import alternating
    assert parse_seq_text(text) == alternating(1)


def test_parse_rejects_band_violation():
    result = run_command(["op", "check", fixture("bad_band.op")])
    assert result.exit_code == 1
    assert "band violation" in result.stderr


def test_parse_rejects_duplicates():
    result = run_command(["op", "check", fixture("bad_dup.op")])
    assert result.exit_code == 1
    assert "duplicate" in result.stderr


def test_parse_rejects_bad_row_index():
    result = run_command(["op", "check", fixture("bad_range.op")])
    assert result.exit_code == 1


@pytest.mark.parametrize("line", ["period", "period 1 2", "band", "band 1 1",
                                  "patch-radius", "patch-radius 0 0"])
def test_size_line_takes_one_integer(tmp_path, line):
    key = line.split()[0]
    sizes = {"period": "period 1", "band": "band 1", "patch-radius": "patch-radius 0"}
    sizes[key] = line
    path = tmp_path / "u.op"
    path.write_text("FPUOP 1\n" + "\n".join(sizes.values()) + "\nbg 0 1 1.0 0.0\nEND\n")
    result = run_command(["op", "index", str(path)])
    assert result.exit_code == 1
    assert result.stderr.endswith(f": {key} needs one integer\n")


def test_operator_lines_may_come_in_any_order():
    text = fixture_text("endswap.op")
    header, *body, end = text.splitlines()
    reordered = "\n".join([header, *reversed(body), end]) + "\n"
    assert serialize_operator(parse_operator_text(reordered)) == text


def test_parse_rejects_bad_header():
    result = run_command(["seq", "member", fixture("bad_header.seq")])
    assert result.exit_code == 1
    assert "line 1" in result.stderr


def test_zero_operator_parses_then_fails_check():
    result = run_command(["op", "check", fixture("zero.op")])
    assert result.exit_code == 2
    assert "unitary false" in result.stdout


@pytest.mark.parametrize("command, bound", [("decompose", "1.000e-06"),
                                            ("factor", "1.000e-09")])
def test_zero_operator_is_refused_before_factoring(command, bound):
    result = run_command(["op", command, fixture("zero.op")])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"error: operator is not unitary: residual 1.000e+00 > {bound}\n"


@pytest.mark.parametrize("command", ["factor", "retract"])
def test_tol_zero_refuses_a_rounding_residual_as_non_unitary(tmp_path, command):
    # the Haar background of this operator misses unitarity by about 2e-16;
    # at --tol 0 that is a unitarity failure like any other, exit 2
    path = str(tmp_path / "u.op")
    synth = run_command(["op", "synth", "--seed", "3", "--index", "0", "--period", "2",
                         "--block", "2", "--patch-blocks", "1", "-o", path])
    assert synth.exit_code == 0
    result = run_command(["op", command, path, "--tol", "0"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("error: operator is not unitary: residual ")
    assert result.stderr.endswith(" > 0.000e+00\n")


def test_tol_zero_fails_decompose_on_its_reconstruction_residual(tmp_path):
    # decompose holds its input to the fixed unitarity bound, not to --tol, so
    # at --tol 0 the rounding of V W against U is the first gate to fail, exit 2
    path = str(tmp_path / "u.op")
    synth = run_command(["op", "synth", "--seed", "3", "--index", "0", "--period", "2",
                         "--block", "2", "--patch-blocks", "1", "-o", path])
    assert synth.exit_code == 0
    result = run_command(["op", "decompose", path, "--tol", "0"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("error: reconstruction residual ")
    assert result.stderr.endswith(" exceeds tolerance 0.000e+00\n")


PARSER_MESSAGES = [
    ("op", "period x\nband 0\nEND", "line 2: expected integer, got 'x'"),
    ("op", "period 1\nband 0\nbg 0 0 a 0\nEND", "line 4: expected number, got 'a'"),
    ("op", "period 1\nband 0\nEND\nband 0", "line 5: content after END"),
    ("op", "period 1\nband 0", "missing END line"),
    ("op", "foo 1\nEND", "line 2: unknown directive 'foo'"),
    ("seq", "mid 1\nEND", "line 2: unknown directive 'mid'"),
    ("op", "period 1\nEND", "operator file needs period and band lines"),
    ("op", "period 1\nperiod 1\nband 0\nEND", "line 3: duplicate period line"),
    ("op", "period 1\nband 0\nbg 0 0 1\nEND", "line 4: bg needs i d re im"),
    ("op", "period 1\nband 0\nbg 0 x 1.0 0.0\nEND", "line 4: expected integer, got 'x'"),
    ("op", "period 1\nband 0\nbg 0 0 1.0 0.0j\nEND", "line 4: expected number, got '0.0j'"),
    ("op", "period 1\nband 0\npatch-radius 1\npatch 0 0 1.0 0.0\npatch -1 1.5 1.0 0.0\nEND",
     "line 6: expected integer, got '1.5'"),
    # a cell given twice is reported before a bad number on its second line
    ("op", "period 1\nband 0\nbg 0 0 1.0 0.0\nbg 0 0 1.0 y\nEND",
     "line 5: duplicate bg entry (0, 0)"),
    ("seq", "left 1\nleft 1\ncore 0\nright 1\nEND", "line 3: duplicate left line"),
    ("seq", "left 1\ncore\nright 1\nEND", "line 3: core needs an offset"),
    ("seq", "left 1\nright 1\nEND", "sequence file needs left, core and right lines"),
    ("seq", "left 1\ncore 0 2 x 3\nright 1\nEND", "line 3: expected integer, got 'x'"),
]


@pytest.mark.parametrize("kind, body, message", PARSER_MESSAGES,
                         ids=[message for _, _, message in PARSER_MESSAGES])
def test_malformed_file_exits_one_with_its_message(tmp_path, kind, body, message):
    path = tmp_path / f"bad.{kind}"
    path.write_text(("FPUOP 1\n" if kind == "op" else "EPSEQ 1\n") + body + "\n")
    result = run_command(["op", "check", str(path)] if kind == "op"
                         else ["seq", "reduce3", str(path)])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == f"error: {message}\n"


# -- exit-code contract ------------------------------------------------------------

def test_unknown_command_exits_one():
    assert run_command(["frobnicate"]).exit_code == 1
    assert run_command(["op", "frobnicate"]).exit_code == 1


def test_malformed_amp_exits_one():
    result = run_command(["op", "apply", fixture("swap.op"),
                          "--amp", "x", "1.0", "0.0"])
    assert result.exit_code == 1
    assert "--amp" in result.stderr


def test_missing_file_exits_one():
    assert run_command(["op", "index", "/nonexistent/x.op"]).exit_code == 1


NOT_UTF8 = {"op": b"FPUOP 1\nperiod 1\nband 0\nbg 0 0 1.0\xff 0.0\nEND\n",
            "seq": b"EPSEQ 1\nleft 0\ncore 0 1\xff\nright 0\nEND\n"}
NOT_UTF8_ARGV = {"op": ["op", "check"], "seq": ["seq", "member"]}


@pytest.mark.parametrize("kind", ["op", "seq"])
def test_a_file_that_is_not_utf8_exits_one(tmp_path, kind):
    path = tmp_path / f"bad.{kind}"
    path.write_bytes(NOT_UTF8[kind])
    result = run_command([*NOT_UTF8_ARGV[kind], str(path)])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    assert result.stderr.count("\n") == 1


def test_a_file_that_is_not_utf8_exits_one_from_python_dash_m(tmp_path):
    path = tmp_path / "bad.seq"
    path.write_bytes(NOT_UTF8["seq"])
    src = str(pathlib.Path(fpu.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fpu", "seq", "member", str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in proc.stderr


def test_decompose_shift_exits_two_with_message():
    result = run_command(["op", "decompose", fixture("shift1.op")])
    assert result.exit_code == 2
    assert "nonzero index" in result.stderr


def test_index_trace_mismatch_exits_two():
    # the zero operator has corner index 0 but trace of P - U* P U equal to 1
    result = run_command(["op", "index", fixture("zero.op")])
    assert result.exit_code == 2
    assert "trace check" in result.stderr


def test_index_window_covers_a_non_unitary_patch(tmp_path):
    # ones at (-1, -1) and (0, 0) over zeros in [-8, 8)^2 have propagation 0;
    # only a window as wide as the patch sees columns 1 .. 7 carry no norm
    path = tmp_path / "u.op"
    path.write_text("FPUOP 1\nperiod 1\nband 0\npatch-radius 8\nbg 0 0 1.0 0.0\n"
                    "patch -1 -1 1.0 0.0\npatch 0 0 1.0 0.0\nEND\n")
    result = run_command(["op", "index", str(path)])
    assert result.exit_code == 2
    assert "trace check" in result.stderr


@pytest.mark.parametrize("patch, residual", [
    ("patch -1 -1 1.0 0.0\npatch -1 0 1.0 0.0", "1.000e+00"),  # was: index 1, exit 0
    ("patch -1 -1 0.5 0.0\npatch 0 0 1.0 0.0", "7.500e-01"),  # was: index 0, exit 0
])
def test_index_rejects_a_non_unitary_operator(tmp_path, patch, residual):
    # the trace check sees only the columns j >= 0, and their norms in sum
    path = tmp_path / "u.op"
    path.write_text(f"FPUOP 1\nperiod 1\nband 0\npatch-radius 1\nbg 0 0 1.0 0.0\n{patch}\nEND\n")
    result = run_command(["op", "index", str(path)])
    assert result.exit_code == 2
    assert f"operator is not unitary: residual {residual} > 1.000e-06" in result.stderr


@pytest.mark.parametrize("command, line", [("check", "unitary true"),
                                           ("index", "index 1")])
def test_declared_band_sets_no_cost(tmp_path, command, line):
    # the shift declared with band 1000000: every window follows its one
    # diagonal, where one as wide as the band could not be allocated
    path = tmp_path / "s.op"
    path.write_text("FPUOP 1\nperiod 1\nband 1000000\nbg 0 1 1.0 0.0\nEND\n")
    result = run_command(["op", command, str(path)])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0] == line


@pytest.mark.parametrize("command, radius, body", [
    ("check", 0, "bg 0 0 1.0 0.0\nbg 0 1 nan 0.0"),  # was: unitary true
    ("index", 0, "bg 0 1 1.0 0.0\nbg 0 0 inf 0.0"),  # was: index 1
    ("check", 1, "bg 0 0 1.0 0.0\npatch 0 0 0.0 -inf"),
], ids=["nan-bg", "inf-bg", "inf-patch"])
def test_non_finite_entries_exit_one(tmp_path, command, radius, body):
    path = tmp_path / "u.op"
    path.write_text(
        f"FPUOP 1\nperiod 1\nband 1\npatch-radius {radius}\n{body}\nEND\n")
    result = run_command(["op", command, str(path)])
    assert result.exit_code == 1
    assert "not finite" in result.stderr


@pytest.mark.parametrize("amps", [
    ["0", "nan", "0"],  # was: exit 0 and no output
    ["0", "inf", "0", "--amp", "1", "1", "0"],  # was: state 1 inf nan
], ids=["nan", "inf"])
def test_non_finite_amplitudes_exit_one(amps):
    result = run_command(["op", "apply", fixture("swap.op"), "--amp", *amps])
    assert result.exit_code == 1
    assert "not finite" in result.stderr


NON_UNITARY = "FPUOP 1\nperiod 1\nband 1\nbg 0 0 0.7 0.0\nbg 0 1 0.7 0.0\nEND\n"


@pytest.mark.parametrize("tol", ["nan", "-0.001"])
@pytest.mark.parametrize("command", ["index", "factor"])
def test_tol_must_be_a_non_negative_number(tmp_path, command, tol):
    # every gate compares `x > tol`, which is false for NaN: `index --tol nan`
    # printed index 0 for this operator and `factor --tol nan` factored it
    path = tmp_path / "u.op"
    path.write_text(NON_UNITARY)
    result = run_command(["op", command, str(path), "--tol", tol])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "--tol: expected a non-negative number" in result.stderr


def test_input_too_large_for_memory_exits_two():
    # synth's first array holds 1e16 doubles, 71 PiB: more than any x86-64
    # address space, so the allocation fails at once under any overcommit mode
    result = run_command(["op", "synth", "--seed", "1", "--block", "100000000"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: input too large to evaluate in memory")


def test_size_numpy_cannot_address_exits_two():
    # 1e20 doubles: numpy refuses the shape before any allocation is tried
    result = run_command(["op", "synth", "--seed", "1", "--block", "10000000000"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: input too large to evaluate in memory")


@pytest.mark.parametrize("sizes", [
    "period 100000000000000000000000\nband 0",
    "period 1\nband 0\npatch-radius 100000000000000000000",
], ids=["period", "patch-radius"])
def test_declared_size_numpy_cannot_address_exits_two(tmp_path, sizes):
    path = tmp_path / "huge.op"
    path.write_text(f"FPUOP 1\n{sizes}\nbg 0 0 1.0 0.0\nEND\n")
    result = run_command(["op", "check", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: input too large to evaluate in memory: ")


# Adversarial operator files: the lines of a valid file, some of them changed
# and some added, with NaN or inf values, duplicate or unknown directives,
# out-of-range indices, negative or huge sizes, and END sometimes left out.
# A huge size is at least 10**13: any array it sizes needs more than the
# 128 TiB a 64-bit process can address, so its allocation fails at once;
# sizes up to 64 keep every array small.  Every operator command that reads
# a file runs on each, mul on the file with itself.
SIZES = st.integers(1, 4) | st.integers(-64, 64) | st.integers(10 ** 13, 10 ** 40)
INDICES = (st.integers(-3, 3) | st.integers(-70, 70)
           | st.integers(10 ** 13, 10 ** 40).map(lambda n: n * (-1) ** n))
NUMBERS = (st.sampled_from(["1.0", "0.6", "-0.8", "0", "nan", "inf", "-inf", "1e300"])
           | st.floats().map(repr))
SIZE_LINES = st.builds("{} {}".format, st.sampled_from(["period", "band", "patch-radius"]),
                       SIZES)


def cell_lines(key=st.sampled_from(["bg", "patch"])):
    return st.builds("{} {} {} {} {}".format, key, INDICES, INDICES, NUMBERS, NUMBERS)


@st.composite
def adversarial_operator_texts(draw):
    lines = []
    for line in draw(st.sampled_from(GOOD_OPS)).read_text().splitlines()[1:-1]:
        key = line.split()[0]
        changed = SIZE_LINES.filter(lambda s: s.split()[0] == key) if key in (
            "period", "band", "patch-radius") else cell_lines(st.just(key))
        lines.append(draw(st.just(line) | st.just(line) | changed))
    lines += draw(st.lists(SIZE_LINES | cell_lines() | st.sampled_from(
        [*lines, "foo 1", "bg 0 0 1.0", "band 1 1", "patch x 0 1 0", "END"]), max_size=3))
    lines = draw(st.permutations(lines))
    return "\n".join(["FPUOP 1", *lines, *draw(st.sampled_from([["END"], ["END"], ["END"], []]))])


@given(adversarial_operator_texts())
@settings(max_examples=200, deadline=None)
def test_adversarial_operator_files_exit_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "adversarial.op"
    path.write_text(text + "\n")
    file = str(path)
    for args in (["check", file], ["index", file], ["mul", file, file], ["adjoint", file],
                 ["decompose", file], ["retract", file], ["factor", file],
                 ["apply", file, "--delta", "3"]):
        result = run_command(["op", *args])
        assert isinstance(result, CommandResult)
        assert result.exit_code in (0, 1, 2)
        if result.exit_code:
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        else:
            assert result.stderr == ""


def test_huge_window_over_zero_background_shrinks_to_its_given_cell(tmp_path):
    path = tmp_path / "wide.op"
    path.write_text("FPUOP 1\nperiod 1\nband 0\npatch-radius 100000000000000000000\n"
                    "patch 3 -2 0.5 0\nEND\n")
    result = run_command(["op", "adjoint", "--porcelain", str(path)])
    assert result.exit_code == 0
    assert "\npatch-radius 4\npatch -2 3 0.5 -0.0\n" in result.stdout


def test_far_corner_patch_checks_within_its_own_window(tmp_path):
    # the identity's ones at (-100, -100) and (99, 99) move to the far corners
    # (-100, 99) and (99, -100) of a radius-100 window: propagation 199, yet
    # outside its patch the operator moves an index by its background's reach
    # 0, so every product's patch stays at radius 100, where one sized by the
    # propagation would take about 25 MB
    diagonal = [f"patch {i} {i} 1 0" for i in range(-99, 99)]
    path = tmp_path / "corner.op"
    path.write_text("\n".join(["FPUOP 1", "period 1", "band 0", "patch-radius 100",
                               "bg 0 0 1 0", *diagonal, "patch -100 99 1 0",
                               "patch 99 -100 1 0", "END", ""]))
    result, peak = traced_peak(lambda: run_command(["op", "check", str(path)]))
    assert result.exit_code == 0
    assert result.stdout == ("unitary true\nresidual 0.0\npropagation 199\nperiod 1\n"
                             "patch-radius 100\n")
    assert peak < 8 * 2 ** 20


def test_shift_check_sums_only_over_the_band(tmp_path):
    # S^200 over one period: the Gram windows sum over rows extended by the
    # reach, 401 wide, against 801 columns; a sum run as wide as the columns
    # doubles the peak (14.8 MB).  The identity with -1 down a radius-300
    # patch diagonal: each Gram reads one window of the patch rows, its rows a
    # slice of its columns; reading those rows as a second window takes 27.9 MB.
    diagonal = [f"patch {i} {i} -1.0 0.0" for i in range(-300, 300)]
    for lines, report, megabytes in [
            (["band 200", "bg 0 200 1.0 0.0"],
             "propagation 200\nperiod 1\npatch-radius 0", 10),
            (["band 0", "patch-radius 300", "bg 0 0 1.0 0.0", *diagonal],
             "propagation 0\nperiod 1\npatch-radius 300", 25)]:
        path = tmp_path / "band.op"
        path.write_text("\n".join(["FPUOP 1", "period 1", *lines, "END", ""]))
        result, peak = traced_peak(lambda: run_command(["op", "check", str(path)]))
        assert result.stdout == f"unitary true\nresidual 0.0\n{report}\n"
        assert peak < megabytes * 2 ** 20, (report, peak)


def test_overflowing_apply_exits_two():
    # each amplitude is finite; their rotated sums overflow to inf
    result = run_command(["op", "apply", fixture("rot.op"),
                          "--amp", "0", "1.7e308", "0", "--amp", "1", "1.7e308", "0"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: computed value (inf+0j) is not finite\n"


@pytest.mark.parametrize("file, state, line", [
    ("shift1.op", ["--delta", "100000000000000000000"],
     "state 99999999999999999999 1.0 0.0"),
    ("shift1.op", ["--delta", "-9223372036854775808"],
     "state -9223372036854775809 1.0 0.0"),
    ("endswap.op", ["--delta", "9223372036854775807"],
     "state 9223372036854775807 1.0 0.0"),
    ("swap.op", ["--amp", "100000000000000000000", "1", "0"],
     "state 100000000000000000001 1.0 0.0"),
], ids=["1e20", "int64-min", "int64-max-patched", "amp-1e20"])
def test_apply_at_indices_past_int64(file, state, line):
    # the rows of these columns do not fit in numpy's int64 indices
    result = run_command(["op", "apply", fixture(file), *state])
    assert result == CommandResult(exit_code=0, stdout=line + "\n")


def test_synth_negative_seed_exits_one():
    # numpy's generator refuses a negative seed with a ValueError
    result = run_command(["op", "synth", "--seed", "-1"])
    assert result == CommandResult(exit_code=1, stdout="",
                                   stderr="error: a seed >= 0 is required\n")


def test_overflowing_product_exits_two(tmp_path):
    path = tmp_path / "big.op"
    path.write_text("FPUOP 1\nperiod 1\nband 0\nbg 0 0 1e200 0\nEND\n")
    with np.errstate(over="ignore"):
        result = run_command(["op", "mul", str(path), str(path)])
    assert result.exit_code == 2
    assert result.stderr == "error: computed value (inf+0j) is not finite\n"


@pytest.mark.parametrize("command", ["index", "check", "mul"])
def test_overflow_exits_two_with_one_line(tmp_path, command):
    # every entry is finite; their squares and products overflow, and numpy
    # warns of it unless told not to
    path = tmp_path / "big.op"
    path.write_text("FPUOP 1\nperiod 1\nband 1\nbg 0 0 1e200 0\nbg 0 1 1e200 0\nEND\n")
    files = [str(path)] * (2 if command == "mul" else 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_command(["op", command, *files])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["op", "index", "--help"],
                                  ["seq", "divide", "-h"]])
def test_help_is_returned_not_printed(capsys, argv):
    result = run_command(argv)
    assert result.exit_code == 0
    assert result.stdout.startswith("usage: fpu " + " ".join(argv[:-1]))
    assert result.stderr == ""
    assert capsys.readouterr() == ("", "")


def test_unwritable_output_exits_one(tmp_path):
    out = tmp_path / "missing" / "adj.op"
    result = run_command(["op", "adjoint", fixture("shift1.op"), "-o", str(out)])
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: cannot write {out}")


def test_a_write_that_takes_part_of_its_bytes_is_continued(tmp_path, monkeypatch):
    # a Haar patch over [-128, 128)^2 serializes to about 4 MB
    rng = np.random.default_rng(5)
    op = embed_finite(haar_unitary(256, rng))
    path, out = tmp_path / "u.op", tmp_path / "adj.op"
    path.write_text(serialize_operator(op))
    write, sizes = os.write, []

    def short_write(fd, data):  # at most one page per call, as a pipe may take
        sizes.append(write(fd, data[:4096]))
        return sizes[-1]
    monkeypatch.setattr(os, "write", short_write)
    result = run_command(["op", "adjoint", str(path), "-o", str(out)])
    assert (result.exit_code, result.stderr) == (0, "")
    expected = serialize_operator(op.adjoint()).encode()
    assert len(expected) > 3 * 2 ** 20 and len(sizes) > 700
    assert out.read_bytes() == expected


def test_apply_delta_and_amp_are_exclusive():
    result = run_command(["op", "apply", fixture("swap.op"), "--delta", "1",
                          "--amp", "0", "1.0", "0.0"])
    assert result.exit_code == 1
    assert "not allowed" in result.stderr


def test_parser_keeps_no_state_between_commands():
    argv = ["op", "apply", fixture("swap.op"),
            "--amp", "0", "1.0", "0.0", "--amp", "1", "0.0", "1.0"]
    first = run_command(argv)
    assert first.exit_code == 0
    assert first.stdout == "state 0 0.0 1.0\nstate 1 1.0 0.0\n"
    assert run_command(argv) == first  # --amp appends into a fresh list
    assert run_command(["op", "apply", fixture("swap.op"), "--delta"]).exit_code == 1
    assert run_command(argv) == first


def test_seq_bare_tail_line_exits_one(tmp_path):
    path = tmp_path / "a.seq"
    path.write_text("EPSEQ 1\nleft\ncore 0\nright 1\nEND\n")
    result = run_command(["seq", "reduce3", str(path)])
    assert result.exit_code == 1
    assert result.stderr == "error: tail period lists must be nonempty\n"


def _periodic_block_sum(word, phase, n, i):
    """Sum of the n values from n*i of (word[(j - phase) % p])_j: n // p whole
    periods plus the first n % p values of one, read one by one."""
    p = len(word)
    return n // p * sum(word) + sum(word[(n * i + t - phase) % p] for t in range(n % p))


@pytest.mark.parametrize("name", ["period3.seq", "delta0.seq"])
def test_blocksum_costs_the_stored_size_not_n(name, monkeypatch):
    # both files' tails are one word w from their offset, so a block sums
    # w's periodic continuation plus the core's departures from it inside the block
    n = 10 ** 8
    a = parse_seq_text(fixture_text(name))
    word = a.right
    assert a.left == word and len(a.core) % len(word) == 0
    departures = {a.offset + k: v - word[k % len(word)] for k, v in enumerate(a.core)}

    def not_called(self, j):
        raise AssertionError("at() evaluated a value")
    monkeypatch.setattr(EventuallyPeriodicSeq, "at", not_called)
    result, peak = traced_peak(lambda: run_command(["seq", "blocksum", fixture(name), str(n)]))
    monkeypatch.undo()
    assert (result.exit_code, result.stderr) == (0, "")
    assert peak < 2 ** 20
    r = parse_seq_text(result.stdout)
    for i in range(-9, 10):
        expected = _periodic_block_sum(word, a.offset, n, i) + sum(
            v for j, v in departures.items() if n * i <= j < n * i + n)
        assert r.at(i) == expected, i


def test_long_coprime_tails_parse_in_their_stored_size(tmp_path):
    # tails of 3001 and 2999 values: their lcm is about 9 million, so a
    # canonical form that cycled either tail that far would take hundreds of MB
    rng = np.random.default_rng(19)
    left, core, right = (rng.integers(-9, 10, size).tolist() for size in (3001, 5, 2999))
    lines = [["left", *left], ["core", -4, *core], ["right", *right]]
    path = tmp_path / "coprime.seq"
    path.write_text("\n".join(["EPSEQ 1", *(" ".join(map(str, line)) for line in lines),
                               "END", ""]))
    result, peak = traced_peak(lambda: run_command(["seq", "shift", str(path), "0"]))
    assert (result.exit_code, result.stderr) == (0, "")
    assert peak < 4 * 2 ** 20
    r = parse_seq_text(result.stdout)
    given = {j: v for j, v in enumerate(core, start=-4)}
    for j in range(-3 * 3001, 3 * 2999):
        expected = given.get(j, left[(j + 4) % 3001] if j < -4 else right[(j - 1) % 2999])
        assert r.at(j) == expected, j


@pytest.mark.parametrize("flags", [[], ["-OO"]], ids=["default", "-OO"])
def test_python_dash_m_runs_the_cli(flags):
    # -OO strips docstrings, so nothing may be built from them at import
    src = str(pathlib.Path(fpu.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, code in (("shift1.op", 0), ("zero.op", 2)):
        argv = ["op", "index", fixture(name)]
        proc = subprocess.run([sys.executable, *flags, "-m", "fpu", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        expected = run_command(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, expected.stdout, expected.stderr)


# -- cost laws ------------------------------------------------------------------------
# The traced peak of each command family grows as size ** e with e under its
# ceiling: a cost that follows a size given in the input rather than the data
# the command holds breaks its law.

def _far_core(tmp_path, d):
    """seq equal of a core at offset d against delta0.seq: the tails decide it."""
    path = tmp_path / f"far{d}.seq"
    path.write_text(f"EPSEQ 1\nleft 0\ncore {d} 5 -5\nright 0\nEND\n")
    return ["seq", "equal", str(path), fixture("delta0.seq")]


def _padded_identity(tmp_path, radius):
    """op adjoint -o of the identity written out to the radius, -1 at (0, 0):
    its patch shrinks to radius 1."""
    path = tmp_path / f"padded{radius}.op"
    lines = ["FPUOP 1", "period 1", "band 0", f"patch-radius {radius}", "bg 0 0 1.0 0.0"]
    lines += [f"patch {i} {i} {-1.0 if i == 0 else 1.0} 0.0" for i in range(-radius, radius)]
    path.write_text("\n".join(lines + ["END", ""]))
    return ["op", "adjoint", str(path), "-o", str(tmp_path / "adjoint.op")]


COST_LAWS = {
    "blocksum-n": (lambda tmp_path, n: ["seq", "blocksum", fixture("delta0.seq"), str(n)],
                   (10 ** 3, 10 ** 6), 0.1),
    "equal-offset": (_far_core, (10 ** 3, 10 ** 6), 0.1),
    "apply-index": (lambda tmp_path, j: ["op", "apply", fixture("rot.op"), "--delta", str(j)],
                    (10, 10 ** 12), 0.1),
    "adjoint-padded-radius": (_padded_identity, (150, 600), 1.2),  # linear in its lines
}


@pytest.mark.parametrize("law", sorted(COST_LAWS))
def test_cost_law(tmp_path, law):
    make_argv, sizes, ceiling = COST_LAWS[law]
    assert cost_exponent(lambda size: make_argv(tmp_path, size), sizes) <= ceiling


def test_blocksum_time_does_not_follow_n():
    # a block sum of n values needs no memory, so its law is a time ratio: about
    # 1 from partial sums, about 1000 from summing every value
    def fastest(n):
        argv = ["seq", "blocksum", fixture("delta0.seq"), str(n)]
        times = []
        for _ in range(5):
            start = time.perf_counter()
            assert run_command(argv).exit_code == 0
            times.append(time.perf_counter() - start)
        return min(times)
    assert fastest(10 ** 6) < 8 * fastest(10 ** 3)


# -- the README's command list ---------------------------------------------------

CHECKING_COMMANDS = {("op", name) for name in
                     ("index", "check", "decompose", "retract", "factor")}


def _readme_commands():
    """The argv of every `fpu ...` line in the README's CLI code block."""
    text = (TESTS_DIR.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("fpu ")]


def _declared_commands():
    def choices(parser):
        return next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {(group, name) for group, sub in choices(_PARSER).items()
            for name in choices(sub)}


def test_readme_cli_block_matches_the_parser():
    seen = set()
    for argv in _readme_commands():
        args = _PARSER.parse_args(argv)
        assert callable(args.run), argv  # each command is declared with its handler
        seen.add((args.group, args.command))
    assert seen == _declared_commands()


def test_only_checking_commands_take_tol():
    for argv in _readme_commands():
        args = _PARSER.parse_args(argv)
        if (args.group, args.command) in CHECKING_COMMANDS:
            assert _PARSER.parse_args(argv + ["--tol", "0.5"]).tol == 0.5
        else:
            with pytest.raises(ValidationError, match="unrecognized arguments"):
                _PARSER.parse_args(argv + ["--tol", "0.5"])


# -- direct subcommand dispatch ----------------------------------------------------

# each subcommand's arguments after its two words: a valid argv, and the same
# with a bad int for a subcommand that takes an int
COMMAND_ARGV = {
    ("op", "index"): (["shift1.op"], None),
    ("op", "check"): (["rot.op"], None),
    ("op", "mul"): (["shift1.op", "shiftneg2.op"], None),
    ("op", "adjoint"): (["phase.op"], None),
    ("op", "decompose"): (["mixedop.op"], None),
    ("op", "retract"): (["endswap.op"], None),
    ("op", "factor"): (["endswap.op"], None),
    ("op", "synth"): (["--seed", "3", "--period", "2"], ["--seed", "3", "--period", "two"]),
    ("op", "apply"): (["comp.op", "--delta", "1"], ["comp.op", "--delta", "one"]),
    ("seq", "shift"): (["delta0.seq", "1"], ["delta0.seq", "one"]),
    ("seq", "add"): (["delta0.seq", "const1.seq"], None),
    ("seq", "blocksum"): (["alternating.seq", "2"], ["alternating.seq", "two"]),
    ("seq", "reduce3"): (["mixed1.seq"], None),
    ("seq", "alpha"): (["delta0.seq"], None),
    ("seq", "member"): (["mixed2.seq"], None),
    ("seq", "equal"): (["delta0.seq", "zero.seq"], None),
    ("seq", "divide"): (["mixed1.seq", "3"], ["mixed1.seq", "three"]),
}


def test_each_subcommand_is_looked_up_by_its_two_words():
    assert set(COMMAND_ARGV) == _declared_commands() == set(cli._COMMANDS)
    for (group, name), parser in cli._COMMANDS.items():
        assert parser.prog == f"fpu {group} {name}"
    # synth has a required option and apply an exclusive group of an append
    # action: argparse reads all their argv
    assert {key for key, parser in cli._COMMANDS.items() if parser.read_plain is None} == {
        ("op", "synth"), ("op", "apply")}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV), ids=" ".join)
def test_direct_dispatch_matches_the_nested_parser(command, monkeypatch):
    valid, bad_int = COMMAND_ARGV[command]
    valid = resolve_argv(valid, FIXTURES)
    cases = [valid, [], valid[:1], valid + ["--tol", "-1"], valid + ["--tol", "x"],
             valid + ["extra"], ["-h"], valid + ["-h"], valid + ["--porcelain"]]
    cases += [resolve_argv(bad_int, FIXTURES)] if bad_int else []
    direct = [run_command([*command, *argv]) for argv in cases]
    assert run_command((*command, *valid)) == direct[0]  # a tuple reads as its list
    monkeypatch.setattr(cli._COMMANDS[command], "read_plain", None)  # argparse reads all
    assert [run_command([*command, *argv]) for argv in cases] == direct
    monkeypatch.setattr(cli, "_COMMANDS", {})  # every argv goes through _PARSER
    assert [run_command([*command, *argv]) for argv in cases] == direct
    # the valid argv runs, no arguments is an error, -h prints the command's usage
    assert direct[0].exit_code == 0 and direct[-1].exit_code == (1 if bad_int else 0)
    assert direct[1].exit_code == 1 and direct[6].stdout.startswith(
        f"usage: fpu {' '.join(command)} ")


# tokens of fuzzed argv: positionals of every type, and every option form
# argparse reads, exact, abbreviated, with "=", or bare dashes
FUZZ_TOKENS = [fixture("delta0.seq"), fixture("shift1.op"), "out.seq", "0", "3", "17",
               "-2", "-40", "0.5", "1e-9", "-1.5", "nan", "inf", "", " -o", "-", "--",
               "-o", "--output", "--out", "--tol", "--tol=1", "--porcelain", "--porc", "-h"]


@pytest.mark.parametrize("command", sorted(
    key for key, parser in cli._COMMANDS.items() if parser.read_plain), ids=" ".join)
def test_plain_reader_returns_what_argparse_returns(command):
    # the reader never raises, and each Namespace it returns is argparse's
    sub, rng, read = cli._COMMANDS[command], random.Random(" ".join(command)), 0
    for _ in range(3000):
        argv = rng.choices(FUZZ_TOKENS, k=rng.randint(0, 7))
        args = sub.read_plain(argv)
        if args is not None:
            assert vars(args) == vars(sub.parse_args(argv)), argv
            read += 1
    valid = resolve_argv(COMMAND_ARGV[command][0], FIXTURES)
    for argv in (valid, ["--porcelain", *valid]):  # the common forms are read
        assert vars(sub.read_plain(argv)) == vars(sub.parse_args(argv))
    assert read >= 10


@pytest.mark.parametrize("argv, message", [
    (["seq", "blocksum", "tests/fixtures/delta0.seq", 3], "argv[3] must be a str, not int 3"),
    (["op", "index", "tests/fixtures/shift1.op", "--tol", 1e-3],
     "argv[4] must be a str, not float 0.001"),
    (["seq", "member", b"delta0.seq"], "argv[2] must be a str, not bytes b'delta0.seq'"),
    ("seq", "argv must be a list or tuple of str, not str 'seq'"),
], ids=["int", "float", "bytes", "str"])
def test_argv_not_a_list_of_str_exits_one_naming_the_bad_item(argv, message):
    assert run_command(argv) == CommandResult(exit_code=1, stdout="",
                                              stderr=f"error: {message}\n")


def test_only_op_commands_enter_numpys_error_state(tmp_path, monkeypatch):
    entered, errstate = [], np.errstate

    def recorded(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)
    monkeypatch.setattr(np, "errstate", recorded)
    for (group, name), (valid, _) in COMMAND_ARGV.items():
        if group == "seq":
            result = run_command([group, name, *resolve_argv(valid, FIXTURES)])
            assert (result.exit_code, result.stderr) == (0, ""), name
    assert entered == []
    # the squares of these finite entries overflow: exit 2, and numpy does not warn
    path = tmp_path / "big.op"
    path.write_text("FPUOP 1\nperiod 1\nband 1\nbg 0 0 1e200 0\nbg 0 1 1e200 0\nEND\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_command(["op", "check", str(path)])
    assert result.exit_code == 2 and result.stderr.count("\n") == 1
    assert entered == [{"over": "ignore", "invalid": "ignore"}]


class _FullStream:
    """A stream on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_a_failed_stdout_write_exits_one(monkeypatch, capsys):
    argv = ["op", "index", fixture("shift1.op")]
    monkeypatch.setattr(sys, "stdout", _FullStream())
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    monkeypatch.setattr(sys, "stderr", _FullStream())  # nothing left to report on
    assert cli.main(argv) == 1


@pytest.mark.parametrize("argv,code,stdout,stderr", [
    ([], 1, "", "error: the following arguments are required: group\n"),
    (["-h"], 0, "usage: fpu [-h] {op,seq} ...\n\nCommand line interface", ""),
    (["op"], 1, "", "error: the following arguments are required: command\n"),
    (["op", "nope"], 1, "", "error: argument command: invalid choice: 'nope' "),
    (["--porcelain", "op", "index", "shift1.op"], 1, "",
     "error: unrecognized arguments: --porcelain\n"),
], ids=["empty", "help", "group-only", "unknown-command", "option-first"])
def test_other_argv_keep_the_nested_parser_texts(argv, code, stdout, stderr):
    result = run_command(resolve_argv(argv, FIXTURES))
    assert result.exit_code == code
    assert result.stdout.startswith(stdout) and result.stderr.startswith(stderr)
    assert bool(result.stdout) == bool(stdout) and bool(result.stderr) == bool(stderr)
    if argv == ["-h"]:
        assert "operator commands" in result.stdout and "sequence commands" in result.stdout


def test_index_shift_reports_one():
    result = run_command(["op", "index", fixture("shift1.op")])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0] == "index 1"


def test_member_constant_false_is_success():
    result = run_command(["seq", "member", fixture("const1.seq")])
    assert result.exit_code == 0
    assert result.stdout == "member false\n"


# -- golden files --------------------------------------------------------------------

@pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, argv, expected_code):
    result = run_command(resolve_argv(argv, FIXTURES))
    assert result.exit_code == expected_code
    golden = (GOLDENS / f"{name}.golden").read_text()
    assert result.stdout == golden


# -- output files ----------------------------------------------------------------------

def test_output_flag_writes_files(tmp_path):
    out = tmp_path / "product.op"
    result = run_command(["op", "mul", fixture("shift1.op"),
                          fixture("shiftneg2.op"), "-o", str(out)])
    assert result.exit_code == 0
    assert "wrote" in result.stdout  # human mode notes the write
    # the product of S and S^-2 is S^-1
    from fpu.operators import make_shift
    assert parse_operator_text(out.read_text()) == make_shift(-1)


def test_output_flag_porcelain_is_quiet(tmp_path):
    out = tmp_path / "adj.op"
    result = run_command(["op", "adjoint", fixture("shift1.op"),
                          "-o", str(out), "--porcelain"])
    assert result.exit_code == 0
    assert result.stdout == ""
    assert out.exists()


def test_decompose_writes_factors(tmp_path):
    v_path, w_path = tmp_path / "v.op", tmp_path / "w.op"
    result = run_command(["op", "decompose", fixture("mixedop.op"),
                          "-o", str(v_path), str(w_path), "--porcelain"])
    assert result.exit_code == 0
    from fpu.operators import max_entry_difference, multiply
    v = parse_operator_text(v_path.read_text())
    w = parse_operator_text(w_path.read_text())
    original = parse_operator_text(fixture_text("mixedop.op"))
    assert max_entry_difference(multiply(v, w), original) <= 1e-9


def test_divide_writes_witness_pair(tmp_path):
    b_path, c_path = tmp_path / "b.seq", tmp_path / "c.seq"
    result = run_command(["seq", "divide", fixture("mixed1.seq"), "3",
                          "-o", str(b_path), str(c_path), "--porcelain"])
    assert result.exit_code == 0
    a = parse_seq_text(fixture_text("mixed1.seq"))
    b = parse_seq_text(b_path.read_text())
    c = parse_seq_text(c_path.read_text())
    assert a.sub(b.scale(3)) == c.one_minus_s()


def test_serialization_fuzz_round_trip():
    # seeded corpus including end-periodic operators: serialize/parse is exact
    import numpy as np
    from fpu.gnvw import synth_random
    rng = np.random.default_rng(555)
    for _ in range(12):
        op = synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                          int(rng.integers(1, 4)), int(rng.integers(0, 3)),
                          seed=int(rng.integers(0, 2 ** 32)))
        text = serialize_operator(op)
        assert serialize_operator(parse_operator_text(text)) == text
        assert parse_operator_text(text) == op


# -- determinism -------------------------------------------------------------------------

def test_synth_determinism_bytes(tmp_path):
    argv = ["op", "synth", "--seed", "31415", "--index", "1", "--period", "2",
            "--block", "3", "--patch-blocks", "1", "--porcelain"]
    first = run_command(argv + ["-o", str(tmp_path / "a.op")])
    second = run_command(argv + ["-o", str(tmp_path / "b.op")])
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout
    assert (tmp_path / "a.op").read_bytes() == (tmp_path / "b.op").read_bytes()


def test_pipeline_determinism(tmp_path):
    """synth -> decompose -> index, twice, byte-identical porcelain output."""
    transcripts = []
    for run in ("x", "y"):
        u_path = tmp_path / f"{run}_u.op"
        v_path = tmp_path / f"{run}_v.op"
        w_path = tmp_path / f"{run}_w.op"
        chunks = []
        r = run_command(["op", "synth", "--seed", "7", "--period", "2",
                         "--block", "2", "--patch-blocks", "1",
                         "-o", str(u_path), "--porcelain"])
        chunks.append(r.stdout)
        r = run_command(["op", "decompose", str(u_path), "-o", str(v_path),
                         str(w_path), "--porcelain"])
        chunks.append(r.stdout)
        for path in (u_path, v_path, w_path):
            r = run_command(["op", "index", str(path), "--porcelain"])
            chunks.append(r.stdout)
            chunks.append(path.read_text())
        transcripts.append("".join(chunks))
    assert transcripts[0] == transcripts[1]
