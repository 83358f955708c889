"""Independent references that check fpu's outputs.

This module parses the EPSEQ and FPUOP text formats itself and evaluates
them straight from their definitions. It never imports fpu, so a defect in
the library cannot vouch for itself, and checking adds nothing to the
per-layer counts of a traced run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np


class CheckFailed(Exception):
    """An fpu output disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def report(stdout: str) -> Dict[str, str]:
    """`key value` report lines of a command, keyed by their first word."""
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


def _lines(text: Optional[str], header: str):
    require(text is not None, "output file missing")
    rows = [line.split() for line in text.splitlines() if line.strip()]
    require(len(rows) >= 2 and " ".join(rows[0]) == header
            and rows[-1] == ["END"], f"not a {header!r} file")
    return rows[1:-1]


# -- sequences -----------------------------------------------------------------

@dataclass(frozen=True)
class Seq:
    """Eventually periodic integer sequence, as the EPSEQ format defines it."""
    left: Tuple[int, ...]
    offset: int
    core: Tuple[int, ...]
    right: Tuple[int, ...]

    @property
    def end(self) -> int:
        return self.offset + len(self.core)

    def at(self, j: int) -> int:
        if j >= self.end:
            return self.right[(j - self.end) % len(self.right)]
        if j >= self.offset:
            return self.core[j - self.offset]
        return self.left[(j - self.offset) % len(self.left)]

    def text(self) -> str:
        return ("EPSEQ 1\n"
                f"left {' '.join(map(str, self.left))}\n"
                f"core {' '.join(map(str, (self.offset,) + self.core))}\n"
                f"right {' '.join(map(str, self.right))}\nEND\n")

    @classmethod
    def tabulate(cls, value_at: Callable[[int], int], lo: int, hi: int,
                 left_len: int, right_len: int) -> "Seq":
        """Sequence from a function that is left_len-periodic below lo and
        right_len-periodic from hi on."""
        return cls(tuple(value_at(j) for j in range(lo - left_len, lo)), lo,
                   tuple(value_at(j) for j in range(lo, hi)),
                   tuple(value_at(j) for j in range(hi, hi + right_len)))


def parse_seq(text: Optional[str]) -> Seq:
    fields = {row[0]: [int(v) for v in row[1:]]
              for row in _lines(text, "EPSEQ 1")}
    require({"left", "core", "right"} <= fields.keys()
            and fields["left"] and fields["right"] and fields["core"],
            "sequence file lacks a line")
    core = fields["core"]
    return Seq(tuple(fields["left"]), core[0], tuple(core[1:]),
               tuple(fields["right"]))


def seq_window(inputs: Iterable[Seq], outputs: Iterable[Seq] = (),
               scale: int = 1) -> range:
    """Indices i on which checking an identity proves it everywhere, when the
    outputs are read at i and the inputs at scale*i and nearby: every core,
    and two common periods beyond them on both sides."""
    inputs, outputs = list(inputs), list(outputs)
    seqs = inputs + outputs
    period = lcm(*(len(s.left) for s in seqs), *(len(s.right) for s in seqs))
    lo = min([s.offset // scale for s in inputs] + [s.offset for s in outputs])
    hi = max([s.end // scale + 1 for s in inputs] + [s.end for s in outputs])
    return range(lo - 2 * period - 2, hi + 2 * period + 2)


# -- operators -----------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """Banded operator as the FPUOP format defines it: periodic diagonals,
    overridden on the patch window [-radius, radius)^2."""
    period: int
    band: int
    radius: int
    background: Tuple[Tuple[int, int, complex], ...]
    patch: Tuple[Tuple[int, int, complex], ...]

    @property
    def reach(self) -> int:
        """Bound on |i - j| over the nonzero entries."""
        return max(self.band, 2 * self.radius)

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """The entries on [lo, hi)^2."""
        size = hi - lo
        out = np.zeros((size, size), dtype=complex)
        for i, d, value in self.background:
            rows = np.arange(lo + (i - lo) % self.period, hi, self.period)
            cols = rows + d
            keep = (cols >= lo) & (cols < hi)
            out[rows[keep] - lo, cols[keep] - lo] = value
        a, b = max(-self.radius, lo), min(self.radius, hi)
        if a < b:
            out[a - lo:b - lo, a - lo:b - lo] = 0
        for i, j, value in self.patch:
            if lo <= i < hi and lo <= j < hi:
                out[i - lo, j - lo] = value
        return out


def parse_op(text: Optional[str]) -> Op:
    header = {}
    background, patch = [], []
    for row in _lines(text, "FPUOP 1"):
        if row[0] in ("bg", "patch"):
            entry = (int(row[1]), int(row[2]), complex(float(row[3]), float(row[4])))
            (background if row[0] == "bg" else patch).append(entry)
        else:
            header[row[0]] = int(row[1])
    require({"period", "band", "patch-radius"} <= header.keys(),
            "operator file lacks a header line")
    return Op(header["period"], header["band"], header["patch-radius"],
              tuple(background), tuple(patch))


def _extent(*ops: Op, grid: int = 1) -> Tuple[int, int]:
    """Half-width n of a window [-n, n) that holds every entry in which the
    operators (or their products) differ from a periodic continuation, plus
    two common periods; and the largest reach."""
    reach = max(op.reach for op in ops)
    period = lcm(grid, *(op.period for op in ops))
    return max(op.radius for op in ops) + 2 * reach + 2 * period, reach


def index_of(op: Op) -> float:
    """GNVW index: |U(-,+)|^2_HS - |U(+,-)|^2_HS from the corner blocks."""
    k = op.reach + 1
    m = op.dense(-k, k)
    return float(np.sum(np.abs(m[:k, k:]) ** 2) - np.sum(np.abs(m[k:, :k]) ** 2))


def require_index(op: Op, expected: int) -> None:
    raw = index_of(op)
    require(abs(raw - expected) <= 1e-6, f"index {raw!r}, expected {expected}")


def product_residual(a: Op, b: Op, target: Op) -> float:
    """max |(a b - target)_ij| over a window that witnesses every entry."""
    n, reach = _extent(a, b, target)
    lo, hi = -n - reach, n + reach
    inner = slice(reach, hi - lo - reach)
    product = a.dense(lo, hi) @ b.dense(lo, hi)
    return float(np.max(np.abs(product[inner, inner]
                               - target.dense(lo, hi)[inner, inner])))


def adjoint_residual(op: Op, adj: Op) -> float:
    n, _ = _extent(op, adj)
    return float(np.max(np.abs(adj.dense(-n, n) - op.dense(-n, n).conj().T)))


def off_block(op: Op, size: int, start: int) -> float:
    """Largest entry outside the blocks [start + t*size, start + (t+1)*size)^2."""
    n, _ = _extent(op, grid=size)
    blocks = (np.arange(-n, n) - start) // size
    outside = blocks[:, None] != blocks[None, :]
    return float(np.max(np.abs(op.dense(-n, n)[outside]), initial=0.0))


def identity_defect_outside_patch(op: Op) -> float:
    """Largest deviation from the identity outside the patch window."""
    n, _ = _extent(op)
    m = op.dense(-n, n) - np.eye(2 * n)
    r = op.radius
    m[n - r:n + r, n - r:n + r] = 0
    return float(np.max(np.abs(m)))


def column(op: Op, j: int) -> Dict[int, complex]:
    """Nonzero entries U[i, j] of column j, keyed by i."""
    lo, hi = j - op.reach - 1, j + op.reach + 2
    col = op.dense(lo, hi)[:, j - lo]
    return {lo + r: complex(v) for r, v in enumerate(col) if v != 0}
