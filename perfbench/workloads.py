"""Seeded inputs and command scripts of the fpu benchmark workloads.

A script is one pass of the client over its inputs. The client waits for
each command before sending the next one (a closed loop, one client). Each
workload fixes the shape of its inputs: periods, blocks, patch sizes, core
widths, tail periods, tail sums and divisors. So every seed asks for the same
amount of work. The seed picks the Haar unitaries, the sequence values, the
index signs, the apply targets and where the rejections fall.

Every command carries a check against an exact reference from `verify`. A
rejection passes only with its documented exit code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from fpu.cli import serialize_operator
from fpu.gnvw import synth_random

import verify
from verify import CheckFailed, Op, Seq, report, require

NAMES = ("factorize", "op_algebra", "seq_exact")

# Largest reconstruction error accepted for V W = U and F P = U.
PRODUCT_TOL = 1e-8
# Entries at or below this count as zero (the library's own threshold).
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    stdout: str
    stderr: str
    files: Tuple[Optional[str], ...]  # text of each output path, None if absent


@dataclass(frozen=True)
class Command:
    argv: Tuple[str, ...]
    check: Callable[[Outcome], None]
    outputs: Tuple[Path, ...] = ()
    exit_code: int = 0  # the documented exit code; nonzero for a rejection

    @property
    def kind(self) -> str:
        return " ".join(self.argv[:2])

    def outcome(self, result) -> Outcome:
        """The run_command result together with the output files it wrote."""
        return Outcome(result.exit_code, result.stdout, result.stderr,
                       tuple(p.read_text(encoding="utf-8") if p.exists() else None
                             for p in self.outputs))

    def verify(self, outcome: Outcome) -> Optional[str]:
        """None if the outcome is right, else what is wrong with it."""
        try:
            self.check(outcome)
        except CheckFailed as exc:
            return str(exc)
        except (ArithmeticError, LookupError, ValueError) as exc:  # malformed output
            return f"unreadable output: {exc!r}"
        return None


@dataclass(frozen=True)
class Script:
    commands: Tuple[Command, ...]
    inputs: Tuple[Path, ...]

    def warmups(self) -> List[Command]:
        """The first accepted command of each kind; ladders start at their
        smallest size."""
        seen = {}
        for cmd in self.commands:
            if cmd.exit_code == 0:
                seen.setdefault(cmd.kind, cmd)
        return list(seen.values())


class _ScriptWriter:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.rng = random.Random(f"fpu-perfbench/{name}/{seed}")
        self.workdir = workdir
        self.commands: List[Command] = []
        self.inputs: List[Path] = []

    def write(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        self.inputs.append(path)
        return path

    def out(self, name: str) -> Path:
        return self.workdir / name

    def add(self, argv: Sequence[object], check, outputs: Sequence[Path] = ()) -> None:
        self.commands.append(Command(tuple(str(a) for a in argv), check,
                                     tuple(outputs)))

    def reject(self, argv: Sequence[object], code: int, count: int) -> None:
        """Insert `count` copies of a documented rejection at seeded places."""
        for _ in range(count):
            at = self.rng.randrange(len(self.commands) + 1)
            self.commands.insert(at, Command(tuple(str(a) for a in argv),
                                             _exit_check(code), exit_code=code))

    def script(self) -> Script:
        return Script(tuple(self.commands), tuple(self.inputs))


def _exit_check(code: int):
    def check(out: Outcome) -> None:
        require(out.exit_code == code,
                f"exit {out.exit_code}, expected {code}: {out.stderr.strip()}")
        require(out.stderr.startswith("error: "), "rejection without a message")
    return check


def _ok(out: Outcome) -> None:
    require(out.exit_code == 0, f"exit {out.exit_code}: {out.stderr.strip()}")


def _synth(b: _ScriptWriter, name: str, target: int, period: int, block: int,
           patch: int) -> Tuple[Path, Op, bool]:
    op = synth_random(target, period, block, patch,
                      seed=b.rng.randrange(2 ** 32))
    text = serialize_operator(op)
    parsed = verify.parse_op(text)
    return b.write(name, text), parsed, parsed.radius > 0


# -- factorize -----------------------------------------------------------------

# ((period, block, patch blocks) of synth_random(0, ...), Haar draws), cheapest
# first. Five draws of each cheap shape give a pass over 100 commands. One
# decompose stays under about 0.3 s, which keeps a pass near 2.5 s, so that a
# run has enough passes to catch every command at the host's fast phase.
# (1, 2, 2) has five draws as well. With them, the 12 decompositions of 60 ms
# and more are the top tenth of the 111 commands of a pass, so the 90th
# percentile is the fastest of them. It would otherwise fall near the top of
# the 26 decompositions of about 30 ms, and be set by whichever of these was
# slowed most by the host.
FACTORIZE_LADDER = [(shape, 5) for shape in (
    (1, 1, 1), (1, 2, 0), (2, 2, 0), (2, 1, 1), (4, 2, 0), (1, 2, 1),
    (3, 2, 0), (2, 2, 1), (2, 3, 0), (3, 1, 0), (3, 1, 1), (1, 3, 0),
    (1, 2, 2))] + [
    (shape, 1) for shape in (
        (4, 1, 1), (1, 1, 2), (2, 1, 2), (3, 2, 1), (2, 3, 1), (4, 2, 1),
        (3, 3, 0), (1, 4, 0))]
FACTORIZE_TINY = [((1, 1, 1), 1), ((2, 1, 0), 1)]


def _check_decompose(u: Op):
    def check(out: Outcome) -> None:
        _ok(out)
        block = int(report(out.stdout)["block-size"])
        v, w = (verify.parse_op(text) for text in out.files)
        residual = verify.product_residual(v, w, u)
        require(residual <= PRODUCT_TOL, f"|V W - U| = {residual:.3e}")
        require(verify.off_block(v, block, 0) <= ZERO_TOL,
                f"V is not block diagonal at block size {block}")
        require(verify.off_block(w, block, -(block // 2)) <= ZERO_TOL,
                f"W is not block diagonal at block size {block}, offset -{block // 2}")
    return check


def _check_factor(u: Op):
    def check(out: Outcome) -> None:
        _ok(out)
        finite, periodic = (verify.parse_op(text) for text in out.files)
        residual = verify.product_residual(finite, periodic, u)
        require(residual <= PRODUCT_TOL, f"|F P - U| = {residual:.3e}")
        require(periodic.radius == 0, "periodic factor has a patch")
        require(verify.identity_defect_outside_patch(finite) <= ZERO_TOL,
                "finite factor is not the identity outside its patch")
    return check


def factorize(seed: int, workdir: Path, tiny: bool = False) -> Script:
    b = _ScriptWriter("factorize", seed, workdir)
    shapes = [shape for shape, draws in (FACTORIZE_TINY if tiny else FACTORIZE_LADDER)
              for _ in range(draws)]
    for k, shape in enumerate(shapes):
        path, u, end_periodic = _synth(b, f"u{k}.op", 0, *shape)
        outs = (b.out(f"v{k}.op"), b.out(f"w{k}.op"))
        b.add(["op", "decompose", path, "-o", *outs], _check_decompose(u), outs)
        if end_periodic:
            outs = (b.out(f"f{k}.op"), b.out(f"p{k}.op"))
            b.add(["op", "factor", path, "-o", *outs], _check_factor(u), outs)
    bad, _, _ = _synth(b, "nonzero.op", b.rng.choice([-2, -1, 1, 2]), 2, 2, 1)
    b.reject(["op", "decompose", bad, "-o", b.out("x.op"), b.out("y.op")], 2, 2)
    return b.script()


# -- op_algebra ----------------------------------------------------------------

# (|index|, period, block, patch blocks), each drawn ALGEBRA_DRAWS times; the
# seed picks each index's sign.
ALGEBRA_DRAWS = 2
ALGEBRA_OPS = [
    (1, 1, 1, 0), (1, 2, 2, 1), (2, 3, 3, 1), (2, 4, 4, 2), (3, 6, 6, 2),
    (3, 5, 6, 0), (1, 6, 1, 2), (1, 1, 6, 2), (2, 2, 5, 0), (2, 3, 4, 2),
]
# Products A B of each draw (positions in ALGEBRA_OPS); the first CHAINED ones
# feed later index and check commands.
ALGEBRA_PAIRS = [(0, 1), (2, 3), (4, 6), (1, 2), (7, 0), (3, 9)]
CHAINED = 3
ALGEBRA_TINY_OPS = ALGEBRA_OPS[:2]
ALGEBRA_TINY_PAIRS = [(0, 1)]


def _check_index(expected: int):
    def check(out: Outcome) -> None:
        _ok(out)
        got = report(out.stdout).get("index")
        require(got == str(expected), f"index {got}, expected {expected}")
    return check


def _check_unitary(out: Outcome) -> None:
    _ok(out)
    require(report(out.stdout).get("unitary") == "true", "not reported unitary")


def _check_adjoint(u: Op):
    def check(out: Outcome) -> None:
        _ok(out)
        residual = verify.adjoint_residual(u, verify.parse_op(out.files[0]))
        require(residual <= ZERO_TOL, f"|A* - conj(A)^T| = {residual:.3e}")
    return check


def _check_apply(u: Op, j: int):
    def check(out: Outcome) -> None:
        _ok(out)
        state = {}
        for line in out.stdout.splitlines():
            tag, i, re, im = line.split()
            require(tag == "state", f"unexpected line {line!r}")
            state[int(i)] = complex(float(re), float(im))
        expected = verify.column(u, j)
        for i in state.keys() | expected.keys():
            require(abs(state.get(i, 0j) - expected.get(i, 0j)) <= ZERO_TOL,
                    f"(U delta_{j})_{i} = {state.get(i)}, expected {expected.get(i)}")
    return check


def _check_mul(a: Op, b: Op, expected_index: int):
    def check(out: Outcome) -> None:
        _ok(out)
        c = verify.parse_op(out.files[0])
        verify.require_index(c, expected_index)
        residual = verify.product_residual(a, b, c)
        require(residual <= PRODUCT_TOL, f"|A B - C| = {residual:.3e}")
    return check


def op_algebra(seed: int, workdir: Path, tiny: bool = False) -> Script:
    b = _ScriptWriter("op_algebra", seed, workdir)
    shapes, pairs, draws = ((ALGEBRA_TINY_OPS, ALGEBRA_TINY_PAIRS, 1) if tiny
                            else (ALGEBRA_OPS, ALGEBRA_PAIRS, ALGEBRA_DRAWS))
    ops = []
    for k, (size, *shape) in enumerate(shapes * draws):
        target = b.rng.choice([-size, size])
        path, u, _ = _synth(b, f"a{k}.op", target, *shape)
        ops.append((path, u, target))
        b.add(["op", "index", path], _check_index(target))
        b.add(["op", "check", path], _check_unitary)
        out = b.out(f"adj{k}.op")
        b.add(["op", "adjoint", path, "-o", out], _check_adjoint(u), [out])
        j = b.rng.randint(-4, 4)
        b.add(["op", "apply", path, "--delta", j], _check_apply(u, j))
    chained = []
    for k, (draw, (x, y)) in enumerate((d, p) for d in range(draws) for p in pairs):
        (pa, a, ia), (pb, bb, ib) = ops[draw * len(shapes) + x], ops[draw * len(shapes) + y]
        out = b.out(f"prod{k}.op")
        b.add(["op", "mul", pa, pb, "-o", out], _check_mul(a, bb, ia + ib), [out])
        if k % len(pairs) < CHAINED:
            chained.append((out, ia + ib))
    for out, target in chained:
        b.add(["op", "index", out], _check_index(target))
        b.add(["op", "check", out], _check_unitary)
    source = ops[0][0].read_text(encoding="utf-8")
    header = b.rng.choice(["FPUOP 2", "FPOP 1", "fpuop 1"])
    bad = b.write("bad_header.op", source.replace("FPUOP 1", header, 1))
    b.reject(["op", "index", bad], 1, 1)
    return b.script()


# -- seq_exact -----------------------------------------------------------------

# divide A n: (core width, left period, right period, left sum, right sum, n).
# The division window is period * n / gcd(sum, n), so the sums fix the cost.
DIVIDE_LADDER = [
    (10, 1, 1, 0, 0, 3), (20, 1, 2, 1, 1, 2), (30, 2, 2, 1, 1, 5),
    (50, 3, 2, 1, 3, 7), (60, 4, 3, 2, 0, 11), (80, 5, 6, 0, 5, 13),
    (150, 1, 2, 3, 1, 4), (100, 2, 3, 0, 0, 30), (200, 6, 4, 0, 100, 100),
    (400, 2, 3, 0, 0, 200), (500, 2, 5, 0, 0, 300), (600, 3, 2, 0, 0, 400),
    (800, 1, 1, 0, 0, 700), (1000, 3, 1, 0, 0, 1500), (40, 2, 1, 1, 1, 300),
]
# member A: (core width, left period, right period, member?)
MEMBER_LADDER = [(10, 1, 2, True), (20, 2, 1, True), (50, 1, 3, True),
                 (100, 3, 2, True), (200, 3, 3, True), (300, 2, 3, True),
                 (500, 2, 4, True), (700, 3, 2, True), (1000, 6, 3, True),
                 (1400, 2, 2, True), (40, 2, 2, False),
                 (300, 2, 2, False), (1000, 3, 1, False)]
# equal A B: (core width of A, width of d, equal?); B = A + (1-S)d when equal,
# else B = A + 1.
EQUAL_LADDER = [(20, 10, True), (50, 20, True), (100, 50, True),
                (200, 100, True), (400, 400, True), (700, 700, True),
                (1000, 1000, True), (300, 0, False),
                (600, 0, False)]
# blocksum A n, blocksum A n+1, reduce3 A and alpha A, each input drawn
# MAP_DRAWS times: (core width, left period, right period, n).
MAP_DRAWS = 2
MAP_LADDER = [(10, 1, 2, 2), (25, 2, 2, 3), (40, 3, 1, 3), (80, 1, 4, 2),
              (150, 2, 5, 5), (300, 4, 4, 6), (600, 6, 4, 7), (1000, 3, 5, 2),
              (1500, 2, 3, 3), (2000, 5, 6, 4)]
SEQ_TINY = dict(divide=DIVIDE_LADDER[:2], member=MEMBER_LADDER[:1] + MEMBER_LADDER[-3:-2],
                equal=EQUAL_LADDER[:1] + EQUAL_LADDER[-2:-1], maps=MAP_LADDER[:2])


def _tail(rng: random.Random, period: int, total: int) -> Tuple[int, ...]:
    """A tail of minimal period `period` whose values sum to `total`."""
    while True:
        values = [rng.randint(-9, 9) for _ in range(period - 1)]
        values.append(total - sum(values))
        if all(values != values[d:] + values[:d]
               for d in range(1, period) if period % d == 0):
            return tuple(values)


def _random_seq(rng: random.Random, width: int, left: int, right: int,
                left_sum: int = 0, right_sum: int = 0) -> Seq:
    return Seq(_tail(rng, left, left_sum), -(width // 2),
               tuple(rng.randint(-9, 9) for _ in range(width)),
               _tail(rng, right, right_sum))


def _check_divide(a: Seq, n: int):
    def check(out: Outcome) -> None:
        _ok(out)
        bq, c = (verify.parse_seq(text) for text in out.files)
        for j in verify.seq_window([a, bq, c]):
            require(a.at(j) - n * bq.at(j) == c.at(j) - c.at(j + 1),
                    f"a - n b != (1 - S) c at {j}")
            require(0 <= c.at(j) < n, f"c_{j} = {c.at(j)} outside [0, {n})")
    return check


def _check_member(a: Seq, member: bool):
    def check(out: Outcome) -> None:
        _ok(out)
        got = report(out.stdout).get("member")
        require(got == ("true" if member else "false"), f"member {got}")
        if member:
            w = verify.parse_seq(out.files[0])
            for j in verify.seq_window([a, w]):
                require(w.at(j) - w.at(j + 1) == a.at(j), f"c - Sc != a at {j}")
    return check


def _check_equal(equal: bool):
    def check(out: Outcome) -> None:
        _ok(out)
        got = report(out.stdout).get("equal")
        require(got == ("true" if equal else "false"), f"equal {got}")
    return check


def _block_sum(a: Seq, n: int):
    return lambda i: sum(a.at(n * i + t) for t in range(n))


def _reduce3(a: Seq):
    return lambda j: 0 if j % 3 else a.at(j) + a.at(j + 1) + a.at(j + 2)


def _alpha(a: Seq):
    return (lambda j: a.at(2 * j) + a.at(2 * j + 1),
            lambda j: -a.at(2 * j - 1) - a.at(2 * j))


def _check_map(a: Seq, scale: int, values: Sequence[Callable[[int], int]]):
    """Each output file r must satisfy r_i == f(i) for its f in `values`."""
    def check(out: Outcome) -> None:
        _ok(out)
        for r, f in zip((verify.parse_seq(text) for text in out.files), values):
            for i in verify.seq_window([a], [r], scale):
                require(r.at(i) == f(i), f"value {r.at(i)} at {i}, expected {f(i)}")
    return check


def seq_exact(seed: int, workdir: Path, tiny: bool = False) -> Script:
    b = _ScriptWriter("seq_exact", seed, workdir)
    ladders = SEQ_TINY if tiny else dict(divide=DIVIDE_LADDER, member=MEMBER_LADDER,
                                         equal=EQUAL_LADDER, maps=MAP_LADDER * MAP_DRAWS)
    rng = b.rng
    for k, (width, map_l, map_r, n) in enumerate(ladders["maps"]):
        a = _random_seq(rng, width, map_l, map_r, rng.randint(-5, 5), rng.randint(-5, 5))
        path = b.write(f"m{k}.seq", a.text())
        for size in (n, n + 1):
            out = b.out(f"bs{k}_{size}.seq")
            b.add(["seq", "blocksum", path, size, "-o", out],
                  _check_map(a, size, [_block_sum(a, size)]), [out])
        out = b.out(f"r3{k}.seq")
        b.add(["seq", "reduce3", path, "-o", out], _check_map(a, 1, [_reduce3(a)]), [out])
        outs = (b.out(f"al{k}.seq"), b.out(f"be{k}.seq"))
        b.add(["seq", "alpha", path, "-o", *outs], _check_map(a, 2, _alpha(a)), outs)
    for k, (width, left, right, left_sum, right_sum, n) in enumerate(ladders["divide"]):
        a = _random_seq(rng, width, left, right, left_sum, right_sum)
        path = b.write(f"d{k}.seq", a.text())
        outs = (b.out(f"q{k}.seq"), b.out(f"c{k}.seq"))
        b.add(["seq", "divide", path, n, "-o", *outs], _check_divide(a, n), outs)
    for k, (width, left, right, member) in enumerate(ladders["member"]):
        sums = (0, 0) if member else (rng.choice([-2, -1, 1, 2]), rng.randint(-3, 3))
        a = _random_seq(rng, width, left, right, *sums)
        path = b.write(f"in{k}.seq", a.text())
        out = b.out(f"wit{k}.seq")
        b.add(["seq", "member", path, "-o", out], _check_member(a, member),
              [out] if member else [])
    for k, (width, d_width, equal) in enumerate(ladders["equal"]):
        a = _random_seq(rng, width, 2, 3, rng.randint(-5, 5), rng.randint(-5, 5))
        if equal:
            lo = a.offset + rng.randint(0, max(width - d_width, 0))
            d = Seq((0,), lo, tuple(rng.randint(-9, 9) for _ in range(d_width)), (0,))
            hi = max(a.end, d.end + 1)
            other = Seq.tabulate(lambda j: a.at(j) + d.at(j) - d.at(j + 1),
                                 min(a.offset, lo - 1), hi, len(a.left), len(a.right))
        else:
            other = Seq(tuple(v + 1 for v in a.left), a.offset,
                        tuple(v + 1 for v in a.core), tuple(v + 1 for v in a.right))
        pa, pb = b.write(f"ea{k}.seq", a.text()), b.write(f"eb{k}.seq", other.text())
        b.add(["seq", "equal", pa, pb], _check_equal(equal))
    source = (b.workdir / "m0.seq").read_text(encoding="utf-8")
    header = rng.choice(["EPSEQ 2", "EPSQ 1", "epseq 1"])
    bad = b.write("bad_header.seq", source.replace("EPSEQ 1", header, 1))
    b.reject(["seq", "blocksum", bad, 2], 1, 1)
    return b.script()


SCRIPTS = {"factorize": factorize, "op_algebra": op_algebra, "seq_exact": seq_exact}


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Script:
    workdir.mkdir(parents=True, exist_ok=True)
    return SCRIPTS[name](seed, workdir, tiny)

