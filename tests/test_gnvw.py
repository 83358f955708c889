"""Index and factorization tests.  Reconstruction residuals are certified by
brute-force multiplication over verification windows; block membership of the
factors is asserted structurally, never through specific matrix entries."""

import numpy as np
import pytest

from fpu.errors import NumericalError, ValidationError
from fpu.gnvw import (_pattern_leakage, conjugating_unitary, decompose,
                      factor_end_periodic, index, retract_periodic, synth_random)
from fpu.matutil import haar_unitary
from fpu.operators import (EndPeriodicOperator, PeriodicBandOperator,
                           adjoint, block_diagonal, delta_embed, embed_finite,
                           identity, make_periodic, make_shift,
                           max_entry_difference, multiply, operators_close,
                           propagation, unitarity_residual)

from conftest import dense_window
from test_operators import random_storage_operator

SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


def in_block_pattern(op, block, offset):
    """Every structurally stored entry lies inside a block [offset + t*block,
    offset + (t+1)*block)^2."""
    def ok(i, j):
        return (i - offset) // block == (j - offset) // block

    if isinstance(op, PeriodicBandOperator):
        return all(ok(i, i + d) for (i, d) in op.entries)
    return (in_block_pattern(op.background, block, offset)
            and all(ok(i, j) for (i, j) in op.patch))


# -- index ---------------------------------------------------------------------

def test_index_shift():
    report = index(make_shift(1))
    assert report.rounded == 1
    assert report.deviation <= 1e-12
    assert abs(report.trace_check - report.raw) <= 1e-12


def test_index_identity_and_powers():
    assert index(identity()).rounded == 0
    assert index(make_shift(3)).rounded == 3
    report = index(make_shift(3))
    assert report.hs_minus_plus == 3.0 and report.hs_plus_minus == 0.0


def test_index_shift_grading():
    for k in range(-8, 9):
        assert index(make_shift(k)).rounded == k


def test_index_embedded_unitary_matches_quadrants(rng):
    m = haar_unitary(4, rng)
    report = index(embed_finite(m))
    assert report.rounded == 0
    # the corner blocks are exactly the off-diagonal quadrants of m
    assert abs(report.hs_minus_plus - np.sum(np.abs(m[:2, 2:]) ** 2)) <= 1e-12
    assert abs(report.hs_plus_minus - np.sum(np.abs(m[2:, :2]) ** 2)) <= 1e-12


def test_index_block_diagonal_vanishes(rng):
    for k in (-1, 0, 2):
        op = delta_embed(haar_unitary(3, rng), k)
        assert index(op).rounded == 0


def test_index_additive(rng):
    for _ in range(10):
        a = synth_random(int(rng.integers(-2, 3)), 2, 2, 0,
                         seed=int(rng.integers(0, 2 ** 32)))
        b = synth_random(int(rng.integers(-2, 3)), 1, 3, 1,
                         seed=int(rng.integers(0, 2 ** 32)))
        assert index(multiply(a, b)).rounded == index(a).rounded + index(b).rounded


def test_index_antisymmetric_under_adjoint(rng):
    for k in (-3, 0, 2):
        op = synth_random(k, 2, 2, 1, seed=int(rng.integers(0, 2 ** 32)))
        assert index(adjoint(op)).rounded == -index(op).rounded


def test_index_trace_cross_check(rng):
    for _ in range(8):
        op = synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                          int(rng.integers(1, 4)), int(rng.integers(0, 2)),
                          seed=int(rng.integers(0, 2 ** 32)))
        report = index(op)
        assert abs(report.trace_check - report.raw) <= 1e-8


def test_index_rejects_corrupted_input():
    half = make_periodic(1, 1, [(0, 1, 0.5)])
    with pytest.raises(NumericalError):
        index(half)


# -- window conjugation -----------------------------------------------------------

def test_conjugating_unitary_fixed_point():
    q = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    v = conjugating_unitary(q, 2)
    assert np.allclose(v.conj().T @ q @ v, q, atol=1e-12)


def test_conjugating_unitary_rotation_case():
    q = np.full((2, 2), 0.5, dtype=complex)
    v = conjugating_unitary(q, 1)
    p = np.diag([0.0, 1.0])
    assert np.allclose(v.conj().T @ q @ v, p, atol=1e-12)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_conjugating_unitary_trace_mismatch():
    with pytest.raises(NumericalError, match="trace mismatch"):
        conjugating_unitary(np.eye(2, dtype=complex), 1)


def test_conjugating_unitary_rejects_non_projection():
    with pytest.raises(NumericalError):
        conjugating_unitary(0.5 * np.eye(2, dtype=complex), 1)


# -- decomposition -------------------------------------------------------------------

def check_decomposition(op, result, tol=1e-9):
    assert result.residual <= tol
    assert result.block_leakage <= tol
    assert unitarity_residual(result.v) <= tol
    assert unitarity_residual(result.w) <= tol
    half = result.block_size // 2
    assert in_block_pattern(result.v, result.block_size, 0)
    assert in_block_pattern(result.w, result.block_size, -half)
    assert max_entry_difference(multiply(result.v, result.w), op) <= tol


def test_decompose_block_diagonal_is_trivial():
    swap = delta_embed(SWAP, 0)
    result = decompose(swap)
    assert result.residual <= 1e-12
    check_decomposition(swap, result, tol=1e-12)


def test_decompose_shift_rejected():
    with pytest.raises(NumericalError, match="nonzero index"):
        decompose(make_shift(1))


def test_decompose_seeded_example():
    rng = np.random.default_rng(42)
    op = multiply(delta_embed(haar_unitary(2, rng), 0),
                  delta_embed(haar_unitary(2, rng), -1))
    result = decompose(op)
    assert result.residual <= 1e-8
    assert unitarity_residual(result.v) <= 1e-9
    assert unitarity_residual(result.w) <= 1e-9
    check_decomposition(op, result)


def test_decompose_random_periodic(rng):
    for _ in range(6):
        op = synth_random(0, int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                          0, seed=int(rng.integers(0, 2 ** 32)))
        check_decomposition(op, decompose(op))


def test_decompose_random_end_periodic(rng):
    for _ in range(4):
        op = synth_random(0, int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                          int(rng.integers(1, 3)),
                          seed=int(rng.integers(0, 2 ** 32)))
        assert isinstance(op, EndPeriodicOperator)
        check_decomposition(op, decompose(op))


def test_decompose_rejects_nonzero_index_end_periodic(rng):
    op = synth_random(2, 2, 2, 1, seed=11)
    with pytest.raises(NumericalError, match="nonzero index"):
        decompose(op)


def test_decompose_diagonal_patch_wider_than_propagation():
    # a diagonal patch has zero propagation, so the block scale is forced up
    # by the patch radius alone
    phases = np.diag(np.exp(1j * np.array([0.3, 1.1, -0.7, 2.2, 0.1, -1.9])))
    op = embed_finite(phases)
    result = decompose(op)
    assert result.block_size >= 2 * op.patch_radius
    check_decomposition(op, result)


def test_decompose_large_block_grid():
    # propagation 3 and period 4 force h = 4, the smallest h >= 3 with 4 | 2h
    op = synth_random(0, 4, 1, 0, seed=3)
    result = decompose(op)
    assert result.block_size == 8
    check_decomposition(op, result)


def test_decompose_uses_the_smallest_block_grid():
    # half-size h: the smallest h >= max(propagation, R, 1) with period | 2h
    rng = np.random.default_rng(5)
    for period in range(1, 7):
        for block in range(1, 6):
            op = synth_random(0, period, block, (period + block) % 3,
                              seed=int(rng.integers(0, 2 ** 32)))
            result = decompose(op)
            h = max(propagation(op), op.patch_radius, 1)
            while (2 * h) % op.period:
                h += 1
            assert result.block_size == 2 * h
            check_decomposition(op, result)


@pytest.mark.parametrize("end_periodic", [False, True])
def test_pattern_leakage_matches_scalar_oracle(rng, end_periodic):
    for _ in range(12):
        op = random_storage_operator(rng, end_periodic)
        radius, reach = getattr(op, "patch_radius", 0), op.prop_bound()
        for periods in (1, 2, 6):
            block = periods * op.period
            # rows two blocks beyond the patch on each side, every column they reach
            lo, hi = -radius - 2 * block, radius + 2 * block
            dense = dense_window(op, lo - reach, hi + reach)[reach:reach + hi - lo]
            cells = np.arange(lo - reach, hi + reach)
            off = cells[None, :] // block != np.arange(lo, hi)[:, None] // block
            expected = float(np.abs(dense[off]).max(initial=0.0))
            assert _pattern_leakage(op, block) == expected


def test_decompose_wrapped_periodic_matches_periodic(rng):
    for _ in range(4):
        op = synth_random(0, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 0,
                          seed=int(rng.integers(0, 2 ** 32)))
        plain, wrapped = decompose(op), decompose(EndPeriodicOperator(op, 0, {}))
        assert wrapped.block_size == plain.block_size
        assert operators_close(wrapped.v, plain.v)
        assert operators_close(wrapped.w, plain.w)


def test_index_invariant_under_retraction(rng):
    # a finite patch never carries index: ind(U) = ind(r(U))
    for _ in range(6):
        op = synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                          int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                          seed=int(rng.integers(0, 2 ** 32)))
        background = retract_periodic(op)
        assert index(op).rounded == index(background).rounded


# -- end-periodic retraction and splitting ----------------------------------------------

def test_retract_embed_finite_is_identity(rng):
    assert retract_periodic(embed_finite(haar_unitary(4, rng))) == identity()


def test_retract_is_retraction(rng):
    op = delta_embed(haar_unitary(2, rng), 0)
    lifted = EndPeriodicOperator(op, 0, {})
    assert retract_periodic(lifted) == op
    again = retract_periodic(EndPeriodicOperator(retract_periodic(lifted), 0, {}))
    assert again == retract_periodic(lifted)


def test_retract_patch_equal_to_background():
    s = make_shift(1)
    padded = EndPeriodicOperator(s, 2, {(-2, -1): 1.0, (-1, 0): 1.0, (0, 1): 1.0})
    assert retract_periodic(padded) == s


def test_retract_rejects_non_unitary_background():
    half = make_periodic(1, 0, [(0, 0, 0.5)])
    broken = EndPeriodicOperator(half, 1, {(0, 0): 1.0, (-1, -1): 1.0})
    with pytest.raises(ValidationError):
        retract_periodic(broken)


def test_factor_embed_finite(rng):
    op = embed_finite(haar_unitary(4, rng))
    split = factor_end_periodic(op)
    assert split.periodic_part == identity()
    assert operators_close(split.finite_part, op, 1e-12)
    assert split.residual <= 1e-12


def test_factor_purely_periodic(rng):
    op = delta_embed(haar_unitary(3, rng), -1)
    split = factor_end_periodic(op)
    assert split.finite_part == identity()
    assert split.window == 0
    assert split.periodic_part == op


def test_factor_composite(rng):
    fin = embed_finite(haar_unitary(2, rng))
    op = multiply(fin, make_shift(1))
    split = factor_end_periodic(op)
    assert split.periodic_part == make_shift(1)
    assert operators_close(split.finite_part, fin, 1e-9)
    assert operators_close(multiply(split.finite_part, split.periodic_part),
                           op, 1e-9)


def test_factor_random(rng):
    for _ in range(5):
        op = synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                          int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                          seed=int(rng.integers(0, 2 ** 32)))
        split = factor_end_periodic(op)
        assert split.residual <= 1e-9
        assert max_entry_difference(
            multiply(split.finite_part, split.periodic_part), op) <= 1e-9
        # finite part sits over the exact identity outside its window
        fin = split.finite_part
        if isinstance(fin, EndPeriodicOperator):
            assert fin.background == identity()
            w = fin.patch_radius
            for i in range(w, w + 6):
                assert fin.entry(i, i) == 1.0 and fin.entry(-i - 1, -i - 1) == 1.0


# -- synthesis ---------------------------------------------------------------------------

def test_synth_deterministic():
    a = synth_random(1, 2, 2, 1, seed=99)
    b = synth_random(1, 2, 2, 1, seed=99)
    from fpu.cli import serialize_operator
    assert serialize_operator(a) == serialize_operator(b)


def test_synth_seed_required():
    with pytest.raises(ValidationError):
        synth_random(0, 1, 1, 0, seed=None)


def test_synth_target_indices():
    for k in range(-3, 4):
        for seed in (3, 17):
            op = synth_random(k, 2, 2, 1 if seed == 17 else 0, seed=seed)
            assert index(op).rounded == k


def test_synth_diagonal_phase_case():
    op = synth_random(0, 1, 1, 0, seed=5)
    assert op.period == 1
    assert index(op).rounded == 0
    assert unitarity_residual(op) <= 1e-12
