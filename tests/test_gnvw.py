"""Index and factorization tests.  Reconstruction residuals are certified by
brute-force multiplication over verification windows; block membership of the
factors is asserted structurally, never through specific matrix entries."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpu import gnvw, operators
from fpu.cli import run_command, serialize_operator
from fpu.errors import NumericalError, ValidationError
from fpu.gnvw import (SNAP_TOL, _snap_blocks, conjugating_unitary, decompose,
                      factor_end_periodic, index, retract_periodic, synth_random)
from fpu.matutil import haar_unitary, polar_unitary
from fpu.operators import (EndPeriodicOperator, PeriodicBandOperator, _patched,
                           _product_residual, _rows_product, block_diagonal, delta_embed,
                           embed_finite, identity, make_shift, max_entry_difference,
                           multiply, propagation, require_unitary, unitarity_residual,
                           window)

from conftest import dense_window, phases_under_a_patch, traced_peak

SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


def unitary_defect(m):
    """max |(m* m - I)_ij|, zero exactly for unitary m."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))))


def scaled_largest_patch_cell(op, factor):
    """op with its largest patch cell multiplied by factor."""
    patch = dict(op.patch)
    cell = max(patch, key=lambda key: abs(patch[key]))
    patch[cell] *= factor
    return EndPeriodicOperator(op.background, op.patch_radius, patch)


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
        assert index(op.adjoint()).rounded == -index(op).rounded


def test_index_trace_cross_check(rng):
    for _ in range(8):
        op = synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                          int(rng.integers(1, 4)), int(rng.integers(0, 2)),
                          seed=int(rng.integers(0, 2 ** 32)))
        report = index(op)
        assert abs(report.trace_check - report.raw) <= 1e-8


def test_index_rejects_corrupted_input():
    half = PeriodicBandOperator(1, 1, {(0, 1): 0.5})
    with pytest.raises(NumericalError):
        index(half)


@given(seed=st.integers(0, 2 ** 32 - 1), target=st.integers(-2, 2),
       period=st.integers(1, 3), block=st.integers(1, 3), patch_blocks=st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_index_rejects_a_scaled_patch_cell(seed, target, period, block, patch_blocks):
    # the corner sums and the trace check may still read an integer; the
    # unitarity gate does not
    op = synth_random(target, period, block, patch_blocks, seed=seed)
    with pytest.raises(NumericalError):
        index(scaled_largest_patch_cell(op, 1 + 1e-3))


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


def test_conjugating_unitary_rejects_a_wrong_shape_and_non_hermitian_window():
    with pytest.raises(ValidationError, match="^window matrix must be 2x2$"):
        conjugating_unitary(np.eye(3), 1)
    with pytest.raises(NumericalError, match="^window matrix is not Hermitian$"):
        conjugating_unitary(np.array([[0, 1], [0, 0]], dtype=complex), 1)


def _projection_windows(rng, half, count):
    """The projection windows of count seeded Haar unitaries of size 2 half."""
    return np.stack([gnvw._projection_window(embed_finite(haar_unitary(2 * half, rng)), half)
                     for _ in range(count)])


def test_conjugating_unitary_on_a_stack_is_one_window_at_a_time(rng):
    windows = _projection_windows(rng, 3, 4)
    stacked = conjugating_unitary(windows, 3)
    assert stacked.shape == windows.shape
    assert stacked.tobytes() == np.stack([conjugating_unitary(q, 3) for q in windows]).tobytes()
    with pytest.raises(ValidationError, match="^window matrix must be 4x4$"):
        conjugating_unitary(windows, 2)


@pytest.mark.parametrize("bad, message", [
    (lambda q: q + np.triu(np.full_like(q, 1e-3), 1), "window matrix is not Hermitian"),
    (lambda q: 0.9 * q, "window matrix is not a projection"),
    (lambda q: np.eye(len(q)), "trace mismatch"),
], ids=["hermitian", "projection", "rank"])
def test_each_gate_covers_the_whole_stack(rng, bad, message):
    # one bad window among good ones fails the stack with the 2-D message
    windows = _projection_windows(rng, 3, 4)
    conjugating_unitary(windows, 3)
    windows[2] = bad(windows[2])
    with pytest.raises(NumericalError, match=f"^{message}$"):
        conjugating_unitary(windows, 3)


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


def test_nearly_unitary_block_is_snapped_or_rejected_by_tol(monkeypatch):
    # one patch entry off by a relative 1e-8: a block of V has a defect near
    # 4e-9, above SNAP_TOL, so decompose projects it onto the unitary group,
    # which moves V W off the input by about 3e-9
    u = synth_random(0, 2, 2, 1, seed=3)
    patch = dict(u.patch)
    patch[min(patch)] *= 1 + 1e-8
    bad = EndPeriodicOperator(u.background, u.patch_radius, patch)
    snapped = []
    monkeypatch.setattr(gnvw, "polar_unitary",
                        lambda m: snapped.append(m) or polar_unitary(m))
    result = decompose(bad, 1e-6)
    assert snapped
    block, radius = result.block_size, result.v.patch_radius
    idx = np.arange(block)
    for m in range(-radius // block - 1, radius // block + 2):
        assert unitary_defect(window(result.v, idx[:, None] + m * block,
                                     idx + m * block)) <= SNAP_TOL
    with pytest.raises(NumericalError, match="^reconstruction residual .* exceeds tolerance"):
        decompose(bad)


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


def block_row_cases():
    """(u, decompose(u)) over seeded periodic and end-periodic synth_random
    operators decomposing on blocks of 2 to 12; each end-periodic one comes
    again with its largest patch cell scaled by 1 + 1e-8, which leaks and is
    snapped, decomposed at tol 1e-6."""
    rng, cases = np.random.default_rng(16), []
    while len(cases) < 24:
        u = synth_random(0, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                         int(rng.integers(0, 3)), seed=int(rng.integers(0, 2 ** 32)))
        result = decompose(u)
        if 2 <= result.block_size <= 12:
            cases.append((u, result))
            if u.patch_radius:
                bad = scaled_largest_patch_cell(u, 1 + 1e-8)
                cases.append((bad, decompose(bad, 1e-6)))
    return cases


def test_decompose_residual_matches_the_product_residual():
    # decompose reads VW - U on block-rows -1, 0 and 1 alone; the general
    # residual reads the whole patch square and one background period
    cases = block_row_cases()
    assert any(u.patch_radius for u, _ in cases) and any(not u.patch_radius for u, _ in cases)
    for u, result in cases:
        assert abs(result.residual - _product_residual(result.v, result.w, u)) <= 4e-16


def test_leakage_beyond_tolerance_names_both_values():
    u, leak = next((u, r.block_leakage) for u, r in block_row_cases() if r.block_leakage > 1e-9)
    tol = leak / 2
    with pytest.raises(NumericalError) as caught:
        decompose(u, tol=tol)
    assert str(caught.value) == f"off-block leakage {leak:.3e} exceeds tolerance {tol:.3e}"


@pytest.mark.parametrize("end_periodic", [False, True])
def test_pattern_leakage_matches_scalar_oracle(end_periodic):
    # block_leakage is the largest entry of U W* off the block pattern; only
    # the scaled end-periodic cases leak
    leaks = []
    for u, result in block_row_cases():
        if bool(u.patch_radius) != end_periodic:
            continue
        block, product = result.block_size, multiply(u, result.w.adjoint())
        # rows two blocks beyond the patch on each side, every column they reach
        radius, reach = product.patch_radius, product.prop_bound()
        lo, hi = -radius - 2 * block, radius + 2 * block
        dense = dense_window(product, lo - reach, hi + reach)[reach:reach + hi - lo]
        off = np.arange(lo - reach, hi + reach) // block != np.arange(lo, hi)[:, None] // block
        expected = float(np.abs(dense[off]).max(initial=0.0))
        assert abs(result.block_leakage - expected) <= 4e-16
        leaks.append(expected)
    assert min(leaks) == 0.0 and (max(leaks) > 1e-9) == end_periodic


def test_snap_block_returns_the_frobenius_defect_of_its_block(rng, monkeypatch):
    stack = np.stack([haar_unitary(6, rng) for _ in range(3)])
    kept, norms = _snap_blocks(stack)
    assert kept is stack
    assert norms == [np.linalg.norm(m.conj().T @ m - np.eye(6)) for m in stack]
    snapped = []
    monkeypatch.setattr(gnvw, "polar_unitary",
                        lambda m: snapped.append(m.copy()) or polar_unitary(m))
    near = stack.copy()
    near[1] *= 1 + 1e-9
    assert unitary_defect(near[1]) > SNAP_TOL
    result, norms = _snap_blocks(near.copy())
    assert len(snapped) == 1 and np.array_equal(snapped[0], near[1])
    assert np.array_equal(result[[0, 2]], stack[[0, 2]])
    assert np.array_equal(result[1], polar_unitary(near[1]))
    assert norms == [np.linalg.norm(m.conj().T @ m - np.eye(6)) for m in result]
    far = stack.copy()
    far[2] *= 1 + 1e-3
    with pytest.raises(NumericalError, match=(
            rf"^extracted block is far from unitary \(defect {unitary_defect(far[2]):.3e}\)$")):
        _snap_blocks(far)


def test_gates_refuse_nan():
    # each gate is written as "not value <= tol", which a NaN fails
    with pytest.raises(NumericalError, match="^x nan exceeds tolerance 1.000e[+]00$"):
        gnvw._within("x", float("nan"), 1.0)
    with pytest.raises(NumericalError, match=r"far from unitary \(defect nan\)$"):
        _snap_blocks(np.full((1, 2, 2), np.nan, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^window matrix is not Hermitian$"):
            conjugating_unitary(np.full((2, 2), np.nan), 1)
    # a NaN tolerance passes no operator, here one of unitarity residual 0.49
    leaky, nan = PeriodicBandOperator(1, 1, {(0, 0): 0.7, (0, 1): 0.7}), float("nan")
    with pytest.raises(NumericalError, match=r"^index 0\.48.* by 4\.900e-01 \(tolerance nan\)"):
        index(leaky, nan)
    for gate in require_unitary, retract_periodic:
        with pytest.raises(NumericalError,
                           match="^operator is not unitary: residual 4.900e-01 > nan$"):
            gate(leaky, nan)


def test_decompose_peaks_at_under_twenty_of_its_blocks(tmp_path):
    # stress.py's corner-30: the identity with its patch diagonal's end ones
    # moved to (-30, 29) and (29, -30), decomposed on blocks of b = 118.  At
    # its peak the command holds U's six tiles, U W*'s six blocks, W's two and
    # W*'s four distinct ones: about 18.6 b^2 complex cells, where W*'s
    # six-block grid and its conjugated copy read 20.5
    radius = 30
    lines = ["FPUOP 1", "period 1", "band 0", f"patch-radius {radius}", "bg 0 0 1.0 0.0"]
    lines += [f"patch {i} {i} 1.0 0.0" for i in range(1 - radius, radius - 1)]
    lines += [f"patch {-radius} {radius - 1} 1.0 0.0", f"patch {radius - 1} {-radius} 1.0 0.0"]
    path = tmp_path / "corner.op"
    path.write_text("\n".join([*lines, "END", ""]))
    argv = ["op", "decompose", str(path), "-o", str(tmp_path / "v.op"), str(tmp_path / "w.op")]
    run_command(argv)  # pays the one-time allocations untraced
    result, peak = traced_peak(lambda: run_command(argv))
    assert (result.exit_code, result.stderr) == (0, "")
    block = int(re.search(r"^block-size (\d+)$", result.stdout, re.M)[1])
    assert block == 118
    cells = peak / (np.dtype(complex).itemsize * block ** 2)
    assert cells <= 19.5, cells


@pytest.mark.parametrize("patch_blocks", [0, 1], ids=["periodic", "end-periodic"])
def test_decompose_reads_its_input_three_times(patch_blocks, monkeypatch):
    # the index window, the projection window and one read of the block-rows,
    # which gives both V's blocks and the target of the residual
    op = synth_random(0, 2, 2, patch_blocks, seed=3)
    assert bool(op.patch_radius) == bool(patch_blocks)
    reads = []
    monkeypatch.setattr(gnvw, "window", lambda u, rows, cols: reads.append(u is op)
                        or window(u, rows, cols))
    check_decomposition(op, decompose(op))
    assert sum(reads) == 3


def test_decompose_wrapped_periodic_matches_periodic(rng):
    # wrapping with an empty radius-0 patch gives the operator itself back, so
    # decompose has one input and one path for it
    for _ in range(4):
        op = synth_random(0, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 0,
                          seed=int(rng.integers(0, 2 ** 32)))
        assert EndPeriodicOperator(op, 0, {}) is op


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
    half = PeriodicBandOperator(1, 0, {(0, 0): 0.5})
    broken = EndPeriodicOperator(half, 1, {(0, 0): 1.0, (-1, -1): 1.0})
    with pytest.raises(NumericalError, match="^operator is not unitary: residual 7.500e-01"):
        retract_periodic(broken)


def test_factor_embed_finite(rng):
    op = embed_finite(haar_unitary(4, rng))
    split = factor_end_periodic(op)
    assert split.periodic_part == identity()
    assert max_entry_difference(split.finite_part, op) <= 1e-12
    assert split.residual <= 1e-12


def test_factor_purely_periodic(rng):
    op = delta_embed(haar_unitary(3, rng), -1)
    split = factor_end_periodic(op)
    assert split.finite_part == identity()
    assert split.finite_part.patch_radius == 0
    assert split.periodic_part == op


def test_factor_composite(rng):
    fin = embed_finite(haar_unitary(2, rng))
    op = multiply(fin, make_shift(1))
    split = factor_end_periodic(op)
    assert split.periodic_part == make_shift(1)
    assert max_entry_difference(split.finite_part, fin) <= 1e-9
    assert max_entry_difference(
        multiply(split.finite_part, split.periodic_part), op) <= 1e-9


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


@pytest.mark.parametrize("end_periodic", [False, True], ids=["periodic", "end-periodic"])
def test_factor_keeps_the_patch_of_the_whole_product(end_periodic, rng):
    # the finite part is read from the square of U B* alone; the oracle builds
    # the whole product, background included, and takes its patch
    ops = [synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                        int(rng.integers(1, 4)), int(end_periodic) * int(rng.integers(1, 3)),
                        seed=int(rng.integers(0, 2 ** 32))) for _ in range(6)]
    factor = delta_embed(haar_unitary(3, rng), -1)
    ops.append(multiply(embed_finite(haar_unitary(4, rng)), factor) if end_periodic
               else factor)
    for op in ops:
        assert isinstance(op, EndPeriodicOperator) == end_periodic
        split = factor_end_periodic(op)
        finite = _patched(identity(), multiply(op, op.background.adjoint()).dense_patch)
        assert serialize_operator(split.finite_part) == serialize_operator(finite)
        assert split.residual == _product_residual(finite, op.background, op)
        if not end_periodic:
            assert serialize_operator(split.finite_part) == serialize_operator(identity())


def test_factor_multiplies_nothing_by_the_identity(monkeypatch, rng):
    # the band of F B - U is I B - B: the split compares the square alone
    op, lefts = phases_under_a_patch(12, rng), []

    def counted(a, b, rows, cols):
        lefts.append(a)
        return _rows_product(a, b, rows, cols)
    for module in (gnvw, operators):
        monkeypatch.setattr(module, "_rows_product", counted)
    split = factor_end_periodic(op)
    assert split.finite_part.patch_radius and len(lefts) == 2
    assert not any(a is identity() for a in lefts)


def test_factor_costs_the_patch_not_the_period_squared(monkeypatch, rng):
    # with the unitarity check stubbed (the background's Gram costs n^2 on its
    # own), the split costs the adjoint's band and the square of the patch
    monkeypatch.setattr(gnvw, "require_unitary", lambda op, tol: 0.0)

    def split(n):
        op = phases_under_a_patch(n, rng)
        factor_end_periodic(op)  # pays the one-time allocations untraced
        return traced_peak(lambda: factor_end_periodic(op))[1]
    small, large = split(375), split(750)
    assert math.log(large / small) / math.log(750 / 375) <= 1.1, (small, large)


# -- synthesis ---------------------------------------------------------------------------

def test_synth_deterministic():
    a = synth_random(1, 2, 2, 1, seed=99)
    b = synth_random(1, 2, 2, 1, seed=99)
    from fpu.cli import run_command, serialize_operator
    assert serialize_operator(a) == serialize_operator(b)


def test_synth_seed_required():
    with pytest.raises(ValidationError):
        synth_random(0, 1, 1, 0, seed=None)


def test_synth_rejects_an_empty_period():
    with pytest.raises(ValidationError):
        synth_random(0, 0, seed=1)


@pytest.mark.parametrize("argument", ["target_index", "period", "block_size",
                                      "patch_blocks", "seed"])
def test_synth_refuses_a_float_argument(argument):
    arguments = dict(target_index=0, period=2, block_size=1, patch_blocks=0, seed=1)
    arguments[argument] += 0.5
    with pytest.raises(ValidationError, match="^expected an integer, got [0-9.]+$"):
        synth_random(**arguments)


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
