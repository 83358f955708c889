"""GNVW index computation and constructive block factorization.

The index of a banded unitary U is the Hilbert-Schmidt imbalance of its two
off-corner blocks, ind(U) = |U(-,+)|^2 - |U(+,-)|^2, an integer invariant
that is additive under products and equals k on the shift S^k.

For index-zero operators this module builds the explicit product U = V W
where W is block diagonal on the grid offset by -L and V on the grid at 0,
both with blocks of size 2L.  Each W block conjugates the compression of
U* P U on a window back to the half-space projection P; V = U W* then
commutes with every shifted half-space projection, which forces it onto the
aligned block grid.  End-periodic operators additionally split as (finite
perturbation of the identity) x (periodic part) via the background
retraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .errors import NumericalError, ValidationError
from .matutil import haar_unitary, polar_unitary
from .operators import (CHECK_TOL, ZERO_TOL, Operator, PeriodicBandOperator, _envelope,
                        _excess, _patched, _rows_product,
                        block_diagonal, delta_embed, embed_finite, identity, make_shift,
                        multiply, propagation, require_unitary, window)
from .sequences import _index

# default acceptance tolerance on the index integer deviation
INDEX_TOL = 1e-6
# blocks whose unitarity defect is in (SNAP_TOL, HARD_TOL] get polar-projected
SNAP_TOL = 1e-12
HARD_TOL = 1e-6


@dataclass(frozen=True)
class IndexReport:
    """Index value with its consistency diagnostics.

    raw is the corner-block Hilbert-Schmidt imbalance, rounded its nearest
    integer, and trace_check the same quantity recomputed independently as
    the trace of P - U* P U over its finitely supported diagonal.
    """
    raw: float
    rounded: int
    deviation: float
    hs_minus_plus: float
    hs_plus_minus: float
    trace_check: float


@dataclass(frozen=True)
class DecompositionResult:
    v: Operator
    w: Operator
    block_size: int
    residual: float
    block_leakage: float


@dataclass(frozen=True)
class EndPeriodicSplit:
    finite_part: Operator
    periodic_part: PeriodicBandOperator
    residual: float


def index(op: Operator, tol: float = INDEX_TOL) -> IndexReport:
    """Index from the corner sums; raises NumericalError unless the raw value
    lies within tol of an integer and of the trace of P - U* P U, and then
    unless op is unitary within tol."""
    report = _corner_index(op, tol)
    require_unitary(op, tol)
    return report


def _corner_index(op: Operator, tol: float) -> IndexReport:
    """index without its unitarity check, for a caller that has made it."""
    # nonzero entries have |i - j| <= k: rows [-k, 2k) x columns [-k, k) hold U(-,+)
    # in rows [-k, 0) x columns [0, k) and the trace window u, whose u[:k, :k] is U(+,-)
    k = max(op.prop_bound(), 1)
    rows = window(op, np.arange(-k, 2 * k)[:, None], np.arange(-k, k))
    minus_plus, u = rows[:k, k:], rows[k:]
    hs_mp, hs_pm = (float(np.sum(np.abs(c) ** 2)) for c in (minus_plus, u[:k, :k]))
    raw = hs_mp - hs_pm
    if not np.isfinite(raw):  # squares of finite entries can overflow
        raise NumericalError(f"index {raw!r} is not finite; "
                             "input is not a clean banded unitary")
    rounded = int(round(raw))
    deviation = abs(raw - rounded)

    # trace of P - U* P U summed in sequence, down rows 0 .. j + k of each
    # column j, then across columns; hypot and float_power round like abs and **
    columns = np.diagonal(np.cumsum(np.float_power(np.hypot(u.real, u.imag), 2), axis=0))
    trace = float(np.cumsum((np.arange(-k, k) >= 0) - columns)[-1])

    if deviation > tol:
        raise NumericalError(
            f"index {raw!r} deviates from an integer by {deviation:.3e} "
            f"(tolerance {tol:.3e}); input is not a clean banded unitary")
    if abs(trace - raw) > tol:
        raise NumericalError(
            f"trace check {trace!r} disagrees with the corner index {raw!r} "
            f"(tolerance {tol:.3e}); input is not a clean banded unitary")
    return IndexReport(raw=raw, rounded=rounded, deviation=deviation,
                       hs_minus_plus=hs_mp, hs_plus_minus=hs_pm,
                       trace_check=trace)


def conjugating_unitary(q_window: np.ndarray, half: int) -> np.ndarray:
    """Unitary V with V* Q V = P on a window of size 2*half.

    q_window is the compression of an orthogonal projection Q to the span of
    e_{-half}..e_{half-1}; P is the half-space projection, diag(0..0, 1..1)
    on that window.  Columns 0..half-1 of the result span ker Q and columns
    half..2*half-1 span ran Q; any such choice satisfies the identity, so
    callers must only rely on the conjugation property.
    """
    q = np.asarray(q_window, dtype=complex)
    n = 2 * int(half)
    if q.shape != (n, n):
        raise ValidationError(f"window matrix must be {n}x{n}")
    herm = 0.5 * (q + q.conj().T)
    if not np.max(np.abs(q - herm)) <= HARD_TOL:  # a NaN fails every gate
        raise NumericalError("window matrix is not Hermitian")
    eigenvalues, vectors = np.linalg.eigh(herm)
    if not np.max(np.minimum(np.abs(eigenvalues), np.abs(eigenvalues - 1.0))) <= HARD_TOL:
        raise NumericalError("window matrix is not a projection")
    rank = int(np.count_nonzero(eigenvalues > 0.5))
    if rank != half:
        raise NumericalError("trace mismatch")
    return vectors


def _projection_window(op: Operator, half: int) -> np.ndarray:
    """Compression of U* P U to the window [-half, half), P the projection
    onto indices >= 0.  Entry (r, c) is sum_{k>=0} conj(U[k, -half+r]) U[k, -half+c]."""
    cols = window(op, np.arange(half + op.prop_bound())[:, None], np.arange(-half, half))
    return cols.conj().T @ cols


def _block_scale(op: Operator) -> int:
    """Block half-size h for the factorization: the smallest h >= max(propagation,
    patch radius, 1) with period | 2h, so the defect windows of U* P_m U - P_m
    for m on the 2h grid are disjoint translates of one another."""
    step = op.period // gcd(op.period, 2)  # period | 2h exactly when step | h
    return -(-max(propagation(op), op.patch_radius, 1) // step) * step


def _snap_blocks(stack: np.ndarray):
    """Project a stack of nearly unitary blocks onto the unitary group, in
    place; reject junk.  Returns the stack and each block's Frobenius norm of
    m* m - I, which equals that of m m* - I and bounds every entry of both."""
    gram = stack.conj().swapaxes(-1, -2) @ stack - (eye := np.eye(stack.shape[-1]))
    defects = np.abs(gram).max(axis=(-2, -1))
    if (far := np.flatnonzero(~(defects <= HARD_TOL))).size:
        raise NumericalError(
            f"extracted block is far from unitary (defect {defects[far[0]]:.3e})")
    for k in np.flatnonzero(defects > SNAP_TOL):
        stack[k] = polar_unitary(stack[k])
        gram[k] = stack[k].conj().T @ stack[k] - eye
    return stack, [float(np.linalg.norm(g)) for g in gram]


def _within(what: str, value: float, tol: float) -> float:
    """value, or NumericalError naming what when it exceeds tol."""
    if not value <= tol:
        raise NumericalError(f"{what} {value:.3e} exceeds tolerance {tol:.3e}")
    return value


def _tiles(op: Operator, rows, cols, size: int) -> np.ndarray:
    """The size x size tiles of op whose first cells are (rows, cols), broadcast."""
    i, rows, cols = np.arange(size), np.asarray(rows)[..., None, None], np.asarray(cols)
    return window(op, rows + i[:, None], cols[..., None, None] + i)


def decompose(op: Operator, tol: float = CHECK_TOL) -> DecompositionResult:
    """Factor an index-zero banded unitary as V W with both factors block
    diagonal: W on the grid offset by -L, V on the grid at 0, blocks 2L x 2L.

    Raises NumericalError("nonzero index") when the hypothesis fails, and a
    NumericalError when the off-block leakage, the reconstruction residual
    or the unitary defect of a block of V or W exceeds tol.
    """
    require_unitary(op, HARD_TOL)
    if _corner_index(op, INDEX_TOL).rounded != 0:
        raise NumericalError("nonzero index")

    half = _block_scale(op)
    block = 2 * half
    # W's eigenvector blocks: the background's tile the grid offset by -half,
    # and an end-periodic op replaces the block over its patch
    bg = op.background
    w_blocks, w_norms = _snap_blocks(np.stack([
        conjugating_unitary(_projection_window(u, half), half).conj().T
        for u in ([bg] if op is bg else [bg, op])]))
    w_bg, w_central = w_blocks[0], dict(zip([0], w_blocks[1:]))
    w_op = block_diagonal(-half, w_bg, central=w_central)

    # half >= propagation, so block-row m of U, of V = U W* and of VW lies on
    # W's blocks m and m + 1; half >= R and period | block, so all three are
    # their backgrounds outside block-rows -1 and 0, and block-row 1 is one
    rows = [0] if op is bg else [-1, 0, 1]
    starts = np.array(rows) * block
    cols = starts[:, None] - half + np.array([0, block])  # W's blocks m and m + 1
    u = _tiles(op, starts[:, None], cols, block)  # read before W*'s stack, as large
    v_raw = u @ np.array([[w_central.get(m + k, w_bg) for k in range(2)]
                          for m in rows]).conj().swapaxes(-1, -2)
    v_raw[np.abs(v_raw) <= ZERO_TOL] = 0  # as a built product stores them
    # V's block m is the middle b columns of block-row m, and the rest leaks
    leakage = _within("off-block leakage", float(max(np.abs(v_raw[:, 0, :, :half]).max(),
                                                     np.abs(v_raw[:, 1, :, half:]).max())), tol)
    v_blocks = np.concatenate([v_raw[:, 0, :, half:], v_raw[:, 1, :, :half]], axis=2)
    del v_raw  # free the largest arrays before V's blocks are checked
    v_blocks, norms = _snap_blocks(v_blocks)
    v_op = block_diagonal(0, v_blocks[-1], central=dict(zip(rows[:-1], v_blocks)))
    del v_blocks, w_blocks, w_bg, w_central  # the residual reads both factors back

    # VW's block-row m is V's block m times W's rows [m b, (m+1) b): V's left
    # half by the lower half of W's block m, its right half by the upper half
    # of W's block m + 1, each compared with the same tile of U read above
    w_starts = np.arange(rows[0], rows[-1] + 2) * block - half  # W's distinct blocks
    v, w = _tiles(v_op, starts, starts, block), _tiles(w_op, w_starts, w_starts, block)
    residual = _within("reconstruction residual",
                       max(_excess(v[:, :, :half] @ w[:-1, half:], u[:, 0]),
                           _excess(v[:, :, half:] @ w[1:, :half], u[:, 1])), tol)
    # both factors are block diagonal, so |VV* - I| and |V*V - I| are at most
    # the largest Frobenius defect of their distinct blocks
    _within("factor unitarity residual", max(norms + w_norms), tol)
    return DecompositionResult(v=v_op, w=w_op, block_size=block,
                               residual=residual, block_leakage=leakage)


def retract_periodic(op: Operator, tol: float = CHECK_TOL) -> PeriodicBandOperator:
    """op's background, the unique periodic operator agreeing with op outside
    its patch window; raises NumericalError unless it is unitary within tol."""
    require_unitary(op.background, tol)
    return op.background


def factor_end_periodic(op: Operator, tol: float = CHECK_TOL) -> EndPeriodicSplit:
    """Split op = finite_part * periodic_part, the finite part a patch over
    the identity and the periodic part op's background B.  Raises
    NumericalError unless op is unitary within tol, or when the split's
    reconstruction residual exceeds tol."""
    require_unitary(op, tol)
    periodic_part, star = op.background, op.background.adjoint()
    # B B* is I within tol (op's residual), so op B* is I off its envelope's square
    cells = np.arange(-(radius := _envelope(op, star)), radius)
    finite_part = (_patched(identity(), _rows_product(op, star, cells, cells))
                   if radius else identity())

    # the band of F B - U is that of I B - B, exactly 0.0: only the square can differ
    radius = max(_envelope(finite_part, periodic_part), op.patch_radius)
    cells = np.arange(-radius, radius)
    square = (_excess(_rows_product(finite_part, periodic_part, cells, cells),
                      window(op, cells[:, None], cells)) if radius else 0.0)
    residual = _within("split residual", square, tol)
    return EndPeriodicSplit(finite_part=finite_part,
                            periodic_part=periodic_part, residual=residual)


def synth_random(target_index: int, period: int = 1, block_size: int = 1,
                 patch_blocks: int = 0, seed: Optional[int] = None) -> Operator:
    """Deterministic test operator with the requested index.

    A power of the shift carries the index; Haar blocks embedded periodically
    at staggered offsets and an optional finite Haar patch contribute index
    zero each, so the product's index is exactly target_index.
    """
    if seed is None or (seed := _index(seed)) < 0:
        raise ValidationError("a seed >= 0 is required")
    period, block_size, patch_blocks = _index(period), _index(block_size), _index(patch_blocks)
    if period < 1 or block_size < 1 or patch_blocks < 0:
        raise ValidationError("period and block size must be >= 1, patches >= 0")

    rng = np.random.default_rng(seed)
    op: Operator = make_shift(target_index)
    op = multiply(op, delta_embed(haar_unitary(period, rng), 0))
    stagger = -max(1, block_size // 2)
    op = multiply(op, delta_embed(haar_unitary(block_size, rng), stagger))
    if patch_blocks > 0:
        op = multiply(op, embed_finite(haar_unitary(2 * patch_blocks, rng)))
    return op
