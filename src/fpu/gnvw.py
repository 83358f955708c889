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
from .matutil import haar_unitary, polar_unitary, unitary_defect
from .operators import (CHECK_TOL, Operator, PeriodicBandOperator, _patched, adjoint,
                        block_diagonal, corner_data, delta_embed, embed_finite, identity,
                        make_shift, max_entry_difference, multiply, propagation,
                        require_unitary, unitarity_residual, window)

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

    @property
    def window(self) -> int:
        return self.finite_part.patch_radius


def index(op: Operator, tol: float = INDEX_TOL) -> IndexReport:
    """Index from the corner sums; raises NumericalError unless the raw value
    lies within tol of an integer and of the trace of P - U* P U."""
    cd = corner_data(op)
    hs_mp = float(np.sum(np.abs(cd.minus_plus) ** 2))
    hs_pm = float(np.sum(np.abs(cd.plus_minus) ** 2))
    raw = hs_mp - hs_pm
    if not np.isfinite(raw):  # squares of finite entries can overflow
        raise NumericalError(f"index {raw!r} is not finite; "
                             "input is not a clean banded unitary")
    rounded = int(round(raw))
    deviation = abs(raw - rounded)

    k = max(op.prop_bound(), 1)
    # trace of P - U* P U summed in sequence, down rows 0 .. j + k of each
    # column j, then across columns; hypot and float_power round like abs and **
    u = window(op, np.arange(2 * k)[:, None], np.arange(-k, k))
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
    if np.max(np.abs(q - herm)) > HARD_TOL:
        raise NumericalError("window matrix is not Hermitian")
    eigenvalues, vectors = np.linalg.eigh(herm)
    if np.max(np.minimum(np.abs(eigenvalues), np.abs(eigenvalues - 1.0))) > HARD_TOL:
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


def _pattern_leakage(op: Operator, block: int) -> float:
    """Largest entry magnitude outside the block-diagonal pattern aligned at 0.

    Rows [-R, R) hold the patch and rows [R, R + block) are background rows
    covering every residue mod block, so together they witness every entry.
    """
    if block % op.period:
        raise ValidationError("block size must be a multiple of the period")
    radius = op.patch_radius
    rows = np.arange(-radius, radius + block)[:, None]
    cols = rows + np.arange(-op.prop_bound(), op.prop_bound() + 1)
    leaks = np.abs(window(op, rows, cols))[cols // block != rows // block]
    return float(leaks.max(initial=0.0))


def _snap_block(m: np.ndarray) -> np.ndarray:
    """Project a nearly unitary block onto the unitary group; reject junk."""
    defect = unitary_defect(m)
    if defect <= SNAP_TOL:
        return m
    if defect > HARD_TOL:
        raise NumericalError(
            f"extracted block is far from unitary (defect {defect:.3e})")
    return polar_unitary(m)


def decompose(op: Operator, tol: float = 1e-9) -> DecompositionResult:
    """Factor an index-zero banded unitary as V W with both factors block
    diagonal: W on the grid offset by -L, V on the grid at 0, blocks 2L x 2L.

    Raises NumericalError("nonzero index") when the hypothesis fails, and a
    NumericalError when the off-block leakage, the reconstruction residual
    or the unitary defect of a block of V or W exceeds tol.
    """
    require_unitary(op, HARD_TOL)
    report = index(op)
    if report.rounded != 0:
        raise NumericalError("nonzero index")

    half = _block_scale(op)
    block = 2 * half
    # W's eigenvector blocks: the background's tile the grid offset by -half,
    # and an end-periodic op replaces the block over its patch
    bg = op.background
    w_bg = conjugating_unitary(_projection_window(bg, half), half).conj().T
    w_central = ({} if op is bg else
                 {0: conjugating_unitary(_projection_window(op, half), half).conj().T})
    w_op = block_diagonal(-half, block, w_bg, central=w_central)

    v_raw = multiply(op, adjoint(w_op))
    leakage = _pattern_leakage(v_raw, block)
    if leakage > tol:
        raise NumericalError(
            f"off-block leakage {leakage:.3e} exceeds tolerance {tol:.3e}")

    idx = np.arange(block)
    v_bg = _snap_block(window(v_raw.background, idx[:, None], idx))
    radius = v_raw.patch_radius
    v_central = {m: _snap_block(window(v_raw, idx[:, None] + m * block, idx + m * block))
                 for m in range((-radius) // block, -((-radius) // block))}
    v_op = block_diagonal(0, block, v_bg, central=v_central)

    residual = max_entry_difference(multiply(v_op, w_op), op)
    if residual > tol:
        raise NumericalError(
            f"reconstruction residual {residual:.3e} exceeds tolerance {tol:.3e}")
    # both factors are block diagonal, so |VV* - I| and |V*V - I| are the
    # largest defects of their distinct blocks and of those blocks' adjoints
    blocks = [w_bg, *w_central.values(), v_bg, *v_central.values()]
    res = max(unitary_defect(m) for b in blocks for m in (b, b.conj().T))
    if res > tol:
        raise NumericalError(
            f"factor unitarity residual {res:.3e} exceeds tolerance {tol:.3e}")
    return DecompositionResult(v=v_op, w=w_op, block_size=block,
                               residual=residual, block_leakage=leakage)


def retract_periodic(op: Operator, tol: float = CHECK_TOL) -> PeriodicBandOperator:
    """The unique periodic operator agreeing with op outside its patch window."""
    res = unitarity_residual(op.background)
    if res > tol:
        raise ValidationError(
            f"periodic background is not unitary (residual {res:.3e}); "
            "the patch is load-bearing beyond its window")
    return op.background


def factor_end_periodic(op: Operator, tol: float = CHECK_TOL) -> EndPeriodicSplit:
    """Split op = finite_part * periodic_part, the finite part a patch over
    the identity and the periodic part the background retraction."""
    require_unitary(op, max(tol, CHECK_TOL))
    periodic_part = retract_periodic(op, tol)
    # retract_periodic has bounded |B B* - I|, so raw's background is the
    # identity within tol
    raw = multiply(op, adjoint(periodic_part))
    finite_part = _patched(identity(), raw.dense_patch)

    residual = max_entry_difference(multiply(finite_part, periodic_part), op)
    if residual > tol:
        raise NumericalError(
            f"split residual {residual:.3e} exceeds tolerance {tol:.3e}")
    return EndPeriodicSplit(finite_part=finite_part,
                            periodic_part=periodic_part, residual=residual)


def synth_random(target_index: int, period: int = 1, block_size: int = 1,
                 patch_blocks: int = 0, seed: Optional[int] = None) -> Operator:
    """Deterministic test operator with the requested index.

    A power of the shift carries the index; Haar blocks embedded periodically
    at staggered offsets and an optional finite Haar patch contribute index
    zero each, so the product's index is exactly target_index.
    """
    if seed is None:
        raise ValidationError("a seed is required")
    period = int(period)
    block_size = int(block_size)
    patch_blocks = int(patch_blocks)
    if period < 1 or block_size < 1 or patch_blocks < 0:
        raise ValidationError("period and block size must be >= 1, patches >= 0")

    rng = np.random.default_rng(int(seed))
    op: Operator = make_shift(int(target_index))
    op = multiply(op, delta_embed(haar_unitary(period, rng), 0))
    stagger = -max(1, block_size // 2)
    op = multiply(op, delta_embed(haar_unitary(block_size, rng), stagger))
    if patch_blocks > 0:
        op = multiply(op, embed_finite(haar_unitary(2 * patch_blocks, rng)))
    return op
