"""CLI contract tests: exit codes, golden files, round trips, determinism."""

import argparse
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fpu

from fpu.cli import (_PARSER, parse_operator_text, parse_seq_text, run_command,
                     serialize_operator, serialize_seq)
from fpu.errors import ValidationError
from fpu.operators import EndPeriodicOperator, PeriodicBandOperator

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
    assert isinstance(op, PeriodicBandOperator)
    assert op.period == 1 and op.band == 1
    assert op.entries == {(0, 1): (1 + 0j)}


def test_parse_end_periodic_structure():
    op = parse_operator_text(fixture_text("endswap.op"))
    assert isinstance(op, EndPeriodicOperator)
    assert op.patch_radius == 1


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


def test_overflowing_apply_exits_two():
    # each amplitude is finite; their rotated sums overflow to inf
    result = run_command(["op", "apply", fixture("rot.op"),
                          "--amp", "0", "1.7e308", "0", "--amp", "1", "1.7e308", "0"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: computed value (inf+0j) is not finite\n"


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
    from fpu.operators import multiply, operators_close
    v = parse_operator_text(v_path.read_text())
    w = parse_operator_text(w_path.read_text())
    original = parse_operator_text(fixture_text("mixedop.op"))
    assert operators_close(multiply(v, w), original, 1e-9)


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
