"""Command line interface and text file formats.

Two formats, both line oriented and exact on round trip:

  EPSEQ 1            header
  left v1 ... vp     left tail values, cycled leftward
  core off v1 ... vk core offset followed by explicit values (may be empty)
  right v1 ... vq    right tail values, cycled rightward
  END

  FPUOP 1            header
  period n
  band L
  patch-radius R     optional, 0 when absent
  bg i d re im       background entry U[i + t*n, i + t*n + d]
  patch i j re im    patch entry inside [-R, R)^2
  END

The lines between the header and END may come in any order.  The parsers
check syntax only; the operator and sequence constructors check the values.

Each subcommand is declared once, in _build_parser, with its arguments and
its handler.  A handler prints its report keys and returns the operators or
sequences it produces, which run_command writes to the -o paths or prints.
Only index, check, decompose, retract and factor take --tol, a non-negative
number.

Exit codes: 0 success, 1 validation error (malformed input, bad arguments),
2 numerical failure (non-unitary operator, nonzero index, tolerance breach)
or an input too large to evaluate in memory.
Integers serialize plainly; floats as shortest round-trip decimals, so
identical inputs and seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import gnvw, sequences
from .errors import NumericalError, ValidationError
from .operators import (CHECK_TOL, EndPeriodicOperator, Operator,
                        PeriodicBandOperator, StateVector, adjoint,
                        apply_state, multiply, propagation, unitarity_residual)
from .sequences import EventuallyPeriodicSeq


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: str
    stderr: str = ""


# -- serialization -------------------------------------------------------------

def _fmt_float(x: float) -> str:
    return repr(float(x))


def serialize_seq(seq: EventuallyPeriodicSeq) -> str:
    lines = ["EPSEQ 1",
             "left " + " ".join(str(v) for v in seq.left),
             ("core " + " ".join([str(seq.offset)] + [str(v) for v in seq.core])),
             "right " + " ".join(str(v) for v in seq.right),
             "END"]
    return "\n".join(lines) + "\n"


def serialize_operator(op: Operator) -> str:
    lines = ["FPUOP 1",
             f"period {op.period}",
             f"band {op.background.band}",
             f"patch-radius {op.patch_radius}"]
    for key, cells in (("bg", op.background.entries), ("patch", op.patch)):
        for (a, b), v in sorted(cells.items()):
            lines.append(f"{key} {a} {b} {_fmt_float(v.real)} {_fmt_float(v.imag)}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"line {lineno}: expected integer, got {token!r}")


def _parse_float(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f"line {lineno}: expected number, got {token!r}")


def _content_lines(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ValidationError(f"line 1: expected header {header!r}")
    ended = False
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped:
            continue
        if ended:
            raise ValidationError(f"line {lineno}: content after END")
        if stripped == "END":
            ended = True
            continue
        out.append((lineno, stripped.split()))
    if not ended:
        raise ValidationError("missing END line")
    return out


def parse_seq_text(text: str) -> EventuallyPeriodicSeq:
    values: Dict[str, List[int]] = {}
    for lineno, tokens in _content_lines(text, "EPSEQ 1"):
        key, rest = tokens[0], tokens[1:]
        if key not in ("left", "core", "right"):
            raise ValidationError(f"line {lineno}: unknown directive {key!r}")
        if key in values:
            raise ValidationError(f"line {lineno}: duplicate {key} line")
        if key == "core" and not rest:
            raise ValidationError(f"line {lineno}: core needs an offset")
        values[key] = [_parse_int(t, lineno) for t in rest]
    if len(values) < 3:
        raise ValidationError("sequence file needs left, core and right lines")
    offset, *core = values["core"]
    return EventuallyPeriodicSeq(values["left"], offset, core, values["right"])


# the four fields of each entry line, by directive
_CELL_FIELDS = {"bg": "i d re im", "patch": "i j re im"}


def parse_operator_text(text: str) -> Operator:
    sizes: Dict[str, int] = {}
    cells: Dict[str, dict] = {key: {} for key in _CELL_FIELDS}
    for lineno, tokens in _content_lines(text, "FPUOP 1"):
        key, rest = tokens[0], tokens[1:]
        if key in ("period", "band", "patch-radius"):
            if key in sizes:
                raise ValidationError(f"line {lineno}: duplicate {key} line")
            if len(rest) != 1:
                raise ValidationError(f"line {lineno}: {key} needs one integer")
            sizes[key] = _parse_int(rest[0], lineno)
        elif key in cells:
            if len(rest) != 4:
                raise ValidationError(f"line {lineno}: {key} needs {_CELL_FIELDS[key]}")
            cell = (_parse_int(rest[0], lineno), _parse_int(rest[1], lineno))
            if cell in cells[key]:
                raise ValidationError(f"line {lineno}: duplicate {key} entry {cell}")
            cells[key][cell] = complex(_parse_float(rest[2], lineno),
                                       _parse_float(rest[3], lineno))
        else:
            raise ValidationError(f"line {lineno}: unknown directive {key!r}")
    if "period" not in sizes or "band" not in sizes:
        raise ValidationError("operator file needs period and band lines")
    background = PeriodicBandOperator(sizes["period"], sizes["band"], cells["bg"])
    radius = sizes.get("patch-radius", 0)
    if radius == 0 and not cells["patch"]:
        return background
    return EndPeriodicOperator(background, radius, cells["patch"])


# -- command plumbing -----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    class Help(Exception):
        """Help asked for with -h: run_command returns it as its output."""

    def error(self, message):
        raise ValidationError(message)

    def print_help(self, file=None):  # in place of printing it and exiting
        raise _Parser.Help(self.format_help())


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not tol >= 0:  # a NaN tol would pass every `x > tol` check
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {text!r}")
    return tol


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")


def _load_operator(path: str) -> Operator:
    return parse_operator_text(_read(path))


def _load_seq(path: str) -> EventuallyPeriodicSeq:
    return parse_seq_text(_read(path))


class _Emitter:
    def __init__(self, porcelain: bool):
        self.porcelain = porcelain
        self.lines: List[str] = []

    def emit(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = _fmt_float(value)
        self.lines.append(f"{key} {value}")

    def emit_text(self, text: str) -> None:
        self.lines.append(text.rstrip("\n"))

    def note(self, message: str) -> None:
        if not self.porcelain:
            self.lines.append(message)

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def _write_outputs(out: _Emitter, paths: Optional[Sequence[str]],
                   texts: Sequence[str]) -> None:
    """Write serialized texts to -o paths, or print them when -o is absent."""
    if paths is None:
        for text in texts:
            out.emit_text(text)
        return
    for path, text in zip(paths, texts):
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}")
        out.note(f"wrote {path}")


# -- command handlers -----------------------------------------------------------
# Each prints its report keys and returns what it produces, in -o order.

def _op_index(args, out: _Emitter):
    report = gnvw.index(_load_operator(args.file), args.tol)
    out.emit("index", report.rounded)
    out.emit("raw", report.raw)
    out.emit("deviation", report.deviation)
    out.emit("hs-minus-plus", report.hs_minus_plus)
    out.emit("hs-plus-minus", report.hs_plus_minus)
    out.emit("trace-check", report.trace_check)


def _op_check(args, out: _Emitter):
    op = _load_operator(args.file)
    residual = unitarity_residual(op)
    ok = residual <= args.tol
    out.emit("unitary", ok)
    out.emit("residual", residual)
    out.emit("propagation", propagation(op))
    out.emit("period", op.period)
    out.emit("patch-radius", op.patch_radius)
    if not ok:
        raise NumericalError(f"unitarity residual {residual:.3e} > {args.tol:.3e}")


def _op_decompose(args, out: _Emitter):
    result = gnvw.decompose(_load_operator(args.file), args.tol)
    out.emit("block-size", result.block_size)
    out.emit("residual", result.residual)
    out.emit("block-leakage", result.block_leakage)
    return result.v, result.w


def _op_factor(args, out: _Emitter):
    split = gnvw.factor_end_periodic(_load_operator(args.file), args.tol)
    out.emit("window", split.window)
    out.emit("residual", split.residual)
    return split.finite_part, split.periodic_part


def _op_synth(args, out: _Emitter):
    op = gnvw.synth_random(args.index, args.period, args.block,
                           args.patch_blocks, args.seed)
    out.emit("index", gnvw.index(op).rounded)
    out.emit("period", op.period)
    out.emit("propagation", propagation(op))
    out.emit("patch-radius", op.patch_radius)
    return (op,)


def _op_apply(args, out: _Emitter):
    op = _load_operator(args.file)
    if args.amp:
        amps = {}
        for j, re, im in args.amp:
            try:
                amps[int(j)] = complex(float(re), float(im))
            except ValueError:
                raise ValidationError(
                    f"--amp expects an integer index and two numbers, "
                    f"got {j!r} {re!r} {im!r}")
        psi = StateVector(amps)
    else:
        psi = StateVector.delta(args.delta)
    result = apply_state(op, psi)
    for j in result.support():
        v = result[j]
        out.emit_text(f"state {j} {_fmt_float(v.real)} {_fmt_float(v.imag)}")


def _seq_member(args, out: _Emitter):
    result = sequences.in_image_one_minus_s(_load_seq(args.file))
    out.emit("member", result.member)
    return (result.witness,) if result.member else ()


def _seq_equal(args, out: _Emitter):
    out.emit("equal", sequences.coinv_equal(_load_seq(args.a), _load_seq(args.b)))


def _seq_divide(args, out: _Emitter):
    witness = sequences.divide_class(_load_seq(args.file), args.n)
    return witness.b, witness.c


def _build_parser() -> _Parser:
    parser = _Parser(prog="fpu",
                     description="Command line interface and text file formats.")
    common = _Parser(add_help=False)
    common.add_argument("--porcelain", action="store_true",
                        help="machine-parseable one-value-per-line output")
    top = parser.add_subparsers(dest="group", required=True)
    op = top.add_parser("op", help="operator commands").add_subparsers(
        dest="command", required=True)
    seq = top.add_parser("seq", help="sequence commands").add_subparsers(
        dest="command", required=True)

    def command(group, name, run, *positionals, tol=None, outputs=()):
        """Declare a subcommand; a positional is a name or a (name, type) pair."""
        sub = group.add_parser(name, parents=[common])
        sub.set_defaults(run=run)
        for spec in positionals:
            dest, kind = (spec, str) if isinstance(spec, str) else spec
            sub.add_argument(dest, type=kind)
        if tol is not None:
            sub.add_argument("--tol", type=_tolerance, default=tol,
                             help="tolerance of the checks (default %(default)s)")
        if outputs:
            sub.add_argument("-o", "--output", nargs=len(outputs), metavar=outputs)
        return sub

    one = ("OUTPUT",)
    command(op, "index", _op_index, "file", tol=gnvw.INDEX_TOL)
    command(op, "check", _op_check, "file", tol=CHECK_TOL)
    command(op, "mul", lambda args, out: (
        multiply(_load_operator(args.a), _load_operator(args.b)),),
        "a", "b", outputs=one)
    command(op, "adjoint", lambda args, out: (adjoint(_load_operator(args.file)),),
            "file", outputs=one)
    command(op, "decompose", _op_decompose, "file", tol=CHECK_TOL,
            outputs=("VOUT", "WOUT"))
    command(op, "retract", lambda args, out: (
        gnvw.retract_periodic(_load_operator(args.file), args.tol),),
        "file", tol=CHECK_TOL, outputs=one)
    command(op, "factor", _op_factor, "file", tol=CHECK_TOL,
            outputs=("FINITE", "PERIODIC"))
    sub = command(op, "synth", _op_synth, outputs=one)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--index", type=int, default=0)
    sub.add_argument("--period", type=int, default=1)
    sub.add_argument("--block", type=int, default=1)
    sub.add_argument("--patch-blocks", type=int, default=0)
    state = command(op, "apply", _op_apply, "file").add_mutually_exclusive_group()
    state.add_argument("--delta", type=int, default=0,
                       help="apply to the basis state at this index")
    state.add_argument("--amp", nargs=3, action="append", default=None,
                       metavar=("J", "RE", "IM"))

    command(seq, "shift", lambda args, out: (_load_seq(args.file).shift(args.k),),
            "file", ("k", int), outputs=one)
    command(seq, "add", lambda args, out: (
        _load_seq(args.a).add(_load_seq(args.b)),), "a", "b", outputs=one)
    command(seq, "blocksum", lambda args, out: (
        _load_seq(args.file).block_sum(args.n),), "file", ("n", int), outputs=one)
    command(seq, "reduce3", lambda args, out: (_load_seq(args.file).reduce3(),),
            "file", outputs=one)
    command(seq, "alpha", lambda args, out: sequences.alpha_map(_load_seq(args.file)),
            "file", outputs=("FIRST", "SECOND"))
    command(seq, "member", _seq_member, "file", outputs=("WITNESS",))
    command(seq, "equal", _seq_equal, "a", "b")
    command(seq, "divide", _seq_divide, "file", ("n", int), outputs=("B", "C"))
    return parser


_PARSER = _build_parser()


def run_command(argv: Sequence[str]) -> CommandResult:
    out = _Emitter(porcelain=False)
    try:
        args = _PARSER.parse_args(list(argv))
        out = _Emitter(porcelain=args.porcelain)
        # an overflow surfaces as a non-finite value, which the handlers report
        with np.errstate(over="ignore", invalid="ignore"):
            produced = args.run(args, out) or ()
        texts = [serialize_operator(x) if isinstance(x, Operator) else serialize_seq(x)
                 for x in produced]
        _write_outputs(out, getattr(args, "output", None), texts)
        return CommandResult(exit_code=0, stdout=out.text())
    except _Parser.Help as help_text:
        return CommandResult(exit_code=0, stdout=str(help_text))
    except ValidationError as exc:
        code, message = 1, str(exc)
    except NumericalError as exc:
        code, message = 2, str(exc)
    except MemoryError as exc:  # a size read from the input, too large to allocate
        code, message = 2, f"input too large to evaluate in memory: {exc}"
    return CommandResult(exit_code=code, stdout=out.text(),
                         stderr=f"error: {message}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    return result.exit_code
