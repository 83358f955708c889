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
  patch-radius R
  bg i d re im       background entry U[i + t*n, i + t*n + d]
  patch i j re im    patch entry inside [-R, R)^2
  END

Exit codes: 0 success, 1 validation error (malformed input, bad arguments),
2 numerical failure (non-unitary operator, nonzero index, tolerance breach).
Integers serialize plainly; floats as shortest round-trip decimals, so
identical inputs and seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

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
    background, patch = op.background, op.patch
    lines = ["FPUOP 1",
             f"period {background.period}",
             f"band {background.band}",
             f"patch-radius {op.patch_radius}"]
    for (i, d) in sorted(background.entries):
        v = background.entries[(i, d)]
        lines.append(f"bg {i} {d} {_fmt_float(v.real)} {_fmt_float(v.imag)}")
    for (i, j) in sorted(patch):
        v = patch[(i, j)]
        lines.append(f"patch {i} {j} {_fmt_float(v.real)} {_fmt_float(v.imag)}")
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
    left = offset = core = right = None
    for lineno, tokens in _content_lines(text, "EPSEQ 1"):
        key, rest = tokens[0], tokens[1:]
        if key == "left":
            if left is not None:
                raise ValidationError(f"line {lineno}: duplicate left line")
            left = [_parse_int(t, lineno) for t in rest]
        elif key == "core":
            if core is not None:
                raise ValidationError(f"line {lineno}: duplicate core line")
            if not rest:
                raise ValidationError(f"line {lineno}: core needs an offset")
            offset = _parse_int(rest[0], lineno)
            core = [_parse_int(t, lineno) for t in rest[1:]]
        elif key == "right":
            if right is not None:
                raise ValidationError(f"line {lineno}: duplicate right line")
            right = [_parse_int(t, lineno) for t in rest]
        else:
            raise ValidationError(f"line {lineno}: unknown directive {key!r}")
    if left is None or core is None or right is None:
        raise ValidationError("sequence file needs left, core and right lines")
    return EventuallyPeriodicSeq(left, offset, core, right)


def parse_operator_text(text: str) -> Operator:
    period = band = radius = None
    bg = {}
    patch = {}
    for lineno, tokens in _content_lines(text, "FPUOP 1"):
        key, rest = tokens[0], tokens[1:]
        if key == "period":
            if period is not None:
                raise ValidationError(f"line {lineno}: duplicate period line")
            period = _parse_int(rest[0], lineno)
            if period < 1:
                raise ValidationError(f"line {lineno}: period must be >= 1")
        elif key == "band":
            if band is not None:
                raise ValidationError(f"line {lineno}: duplicate band line")
            band = _parse_int(rest[0], lineno)
            if band < 0:
                raise ValidationError(f"line {lineno}: band must be >= 0")
        elif key == "patch-radius":
            if radius is not None:
                raise ValidationError(f"line {lineno}: duplicate patch-radius line")
            radius = _parse_int(rest[0], lineno)
            if radius < 0:
                raise ValidationError(f"line {lineno}: patch-radius must be >= 0")
        elif key == "bg":
            if period is None or band is None:
                raise ValidationError(
                    f"line {lineno}: period and band must precede entries")
            if len(rest) != 4:
                raise ValidationError(f"line {lineno}: bg needs i d re im")
            i, d = _parse_int(rest[0], lineno), _parse_int(rest[1], lineno)
            if not 0 <= i < period:
                raise ValidationError(
                    f"line {lineno}: row index {i} outside [0, {period})")
            if abs(d) > band:
                raise ValidationError(
                    f"line {lineno}: band violation: |{d}| > band {band}")
            if (i, d) in bg:
                raise ValidationError(f"line {lineno}: duplicate bg entry ({i}, {d})")
            bg[(i, d)] = complex(_parse_float(rest[2], lineno),
                                 _parse_float(rest[3], lineno))
        elif key == "patch":
            if radius is None:
                raise ValidationError(
                    f"line {lineno}: patch-radius must precede patch entries")
            if len(rest) != 4:
                raise ValidationError(f"line {lineno}: patch needs i j re im")
            i, j = _parse_int(rest[0], lineno), _parse_int(rest[1], lineno)
            if not (-radius <= i < radius and -radius <= j < radius):
                raise ValidationError(
                    f"line {lineno}: patch entry ({i}, {j}) outside window "
                    f"[-{radius}, {radius})")
            if (i, j) in patch:
                raise ValidationError(f"line {lineno}: duplicate patch entry ({i}, {j})")
            patch[(i, j)] = complex(_parse_float(rest[2], lineno),
                                    _parse_float(rest[3], lineno))
        else:
            raise ValidationError(f"line {lineno}: unknown directive {key!r}")
    if period is None or band is None:
        raise ValidationError("operator file needs period and band lines")
    background = PeriodicBandOperator(period, band, bg)
    if radius in (None, 0) and not patch:
        return background
    return EndPeriodicOperator(background, radius, patch)


# -- command plumbing -----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


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
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out.note(f"wrote {path}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="fpu",
                     description="Command line interface and text file formats.")
    common = _Parser(add_help=False)
    common.add_argument("--porcelain", action="store_true",
                        help="machine-parseable one-value-per-line output")
    common.add_argument("--tol", type=float, default=None,
                        help="override the default tolerance")
    top = parser.add_subparsers(dest="group", required=True)

    op = top.add_parser("op", help="operator commands").add_subparsers(
        dest="command", required=True)
    sub = op.add_parser("index", parents=[common])
    sub.add_argument("file")
    sub = op.add_parser("check", parents=[common])
    sub.add_argument("file")
    sub = op.add_parser("mul", parents=[common])
    sub.add_argument("a")
    sub.add_argument("b")
    sub.add_argument("-o", "--output", nargs=1)
    sub = op.add_parser("adjoint", parents=[common])
    sub.add_argument("file")
    sub.add_argument("-o", "--output", nargs=1)
    sub = op.add_parser("decompose", parents=[common])
    sub.add_argument("file")
    sub.add_argument("-o", "--output", nargs=2, metavar=("VOUT", "WOUT"))
    sub = op.add_parser("retract", parents=[common])
    sub.add_argument("file")
    sub.add_argument("-o", "--output", nargs=1)
    sub = op.add_parser("factor", parents=[common])
    sub.add_argument("file")
    sub.add_argument("-o", "--output", nargs=2, metavar=("FINITE", "PERIODIC"))
    sub = op.add_parser("synth", parents=[common])
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--index", type=int, default=0)
    sub.add_argument("--period", type=int, default=1)
    sub.add_argument("--block", type=int, default=1)
    sub.add_argument("--patch-blocks", type=int, default=0)
    sub.add_argument("-o", "--output", nargs=1)
    sub = op.add_parser("apply", parents=[common])
    sub.add_argument("file")
    state = sub.add_mutually_exclusive_group()
    state.add_argument("--delta", type=int, default=0,
                       help="apply to the basis state at this index")
    state.add_argument("--amp", nargs=3, action="append", default=None,
                       metavar=("J", "RE", "IM"))

    seq = top.add_parser("seq", help="sequence commands").add_subparsers(
        dest="command", required=True)
    sub = seq.add_parser("shift", parents=[common])
    sub.add_argument("file")
    sub.add_argument("k", type=int)
    sub.add_argument("-o", "--output", nargs=1)
    sub = seq.add_parser("add", parents=[common])
    sub.add_argument("a")
    sub.add_argument("b")
    sub.add_argument("-o", "--output", nargs=1)
    sub = seq.add_parser("blocksum", parents=[common])
    sub.add_argument("file")
    sub.add_argument("n", type=int)
    sub.add_argument("-o", "--output", nargs=1)
    sub = seq.add_parser("reduce3", parents=[common])
    sub.add_argument("file")
    sub.add_argument("-o", "--output", nargs=1)
    sub = seq.add_parser("alpha", parents=[common])
    sub.add_argument("file")
    sub.add_argument("-o", "--output", nargs=2, metavar=("FIRST", "SECOND"))
    sub = seq.add_parser("member", parents=[common])
    sub.add_argument("file")
    sub.add_argument("-o", "--output", nargs=1, metavar="WITNESS")
    sub = seq.add_parser("equal", parents=[common])
    sub.add_argument("a")
    sub.add_argument("b")
    sub = seq.add_parser("divide", parents=[common])
    sub.add_argument("file")
    sub.add_argument("n", type=int)
    sub.add_argument("-o", "--output", nargs=2, metavar=("B", "C"))
    return parser


_PARSER = _build_parser()


# -- command handlers -----------------------------------------------------------

def _cmd_op(args, out: _Emitter) -> None:
    cmd = args.command
    tol = args.tol if args.tol is not None else CHECK_TOL
    if cmd == "index":
        op = _load_operator(args.file)
        report = gnvw.index(op, args.tol if args.tol is not None else gnvw.INDEX_TOL)
        out.emit("index", report.rounded)
        out.emit("raw", report.raw)
        out.emit("deviation", report.deviation)
        out.emit("hs-minus-plus", report.hs_minus_plus)
        out.emit("hs-plus-minus", report.hs_plus_minus)
        out.emit("trace-check", report.trace_check)
    elif cmd == "check":
        op = _load_operator(args.file)
        residual = unitarity_residual(op)
        ok = residual <= tol
        out.emit("unitary", ok)
        out.emit("residual", residual)
        out.emit("propagation", propagation(op))
        out.emit("period", op.period)
        out.emit("patch-radius", op.patch_radius)
        if not ok:
            raise NumericalError(f"unitarity residual {residual:.3e} > {tol:.3e}")
    elif cmd == "mul":
        product = multiply(_load_operator(args.a), _load_operator(args.b))
        _write_outputs(out, args.output, [serialize_operator(product)])
    elif cmd == "adjoint":
        _write_outputs(out, args.output,
                       [serialize_operator(adjoint(_load_operator(args.file)))])
    elif cmd == "decompose":
        op = _load_operator(args.file)
        result = gnvw.decompose(op, tol)
        out.emit("block-size", result.block_size)
        out.emit("residual", result.residual)
        out.emit("block-leakage", result.block_leakage)
        _write_outputs(out, args.output, [serialize_operator(result.v),
                                          serialize_operator(result.w)])
    elif cmd == "retract":
        op = _load_operator(args.file)
        _write_outputs(out, args.output,
                       [serialize_operator(gnvw.retract_periodic(op, tol))])
    elif cmd == "factor":
        op = _load_operator(args.file)
        split = gnvw.factor_end_periodic(op, tol)
        out.emit("window", split.window)
        out.emit("residual", split.residual)
        _write_outputs(out, args.output,
                       [serialize_operator(split.finite_part),
                        serialize_operator(split.periodic_part)])
    elif cmd == "synth":
        op = gnvw.synth_random(args.index, args.period, args.block,
                               args.patch_blocks, args.seed)
        report = gnvw.index(op)
        out.emit("index", report.rounded)
        out.emit("period", op.period)
        out.emit("propagation", propagation(op))
        out.emit("patch-radius", op.patch_radius)
        _write_outputs(out, args.output, [serialize_operator(op)])
    elif cmd == "apply":
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


def _cmd_seq(args, out: _Emitter) -> None:
    cmd = args.command
    if cmd == "shift":
        _write_outputs(out, args.output,
                       [serialize_seq(_load_seq(args.file).shift(args.k))])
    elif cmd == "add":
        total = _load_seq(args.a).add(_load_seq(args.b))
        _write_outputs(out, args.output, [serialize_seq(total)])
    elif cmd == "blocksum":
        _write_outputs(out, args.output,
                       [serialize_seq(_load_seq(args.file).block_sum(args.n))])
    elif cmd == "reduce3":
        _write_outputs(out, args.output,
                       [serialize_seq(_load_seq(args.file).reduce3())])
    elif cmd == "alpha":
        first, second = sequences.alpha_map(_load_seq(args.file))
        _write_outputs(out, args.output,
                       [serialize_seq(first), serialize_seq(second)])
    elif cmd == "member":
        result = sequences.in_image_one_minus_s(_load_seq(args.file))
        out.emit("member", result.member)
        if result.member:
            _write_outputs(out, args.output, [serialize_seq(result.witness)])
    elif cmd == "equal":
        out.emit("equal", sequences.coinv_equal(_load_seq(args.a),
                                                _load_seq(args.b)))
    elif cmd == "divide":
        witness = sequences.divide_class(_load_seq(args.file), args.n)
        _write_outputs(out, args.output, [serialize_seq(witness.b),
                                          serialize_seq(witness.c)])


def run_command(argv: Sequence[str]) -> CommandResult:
    out = _Emitter(porcelain=False)
    try:
        args = _PARSER.parse_args(list(argv))
        out = _Emitter(porcelain=getattr(args, "porcelain", False))
        if args.group == "op":
            _cmd_op(args, out)
        else:
            _cmd_seq(args, out)
        return CommandResult(exit_code=0, stdout=out.text())
    except ValidationError as exc:
        return CommandResult(exit_code=1, stdout=out.text(),
                             stderr=f"error: {exc}\n")
    except NumericalError as exc:
        return CommandResult(exit_code=2, stdout=out.text(),
                             stderr=f"error: {exc}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    return result.exit_code
