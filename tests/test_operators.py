"""Operator algebra tests.  The oracle throughout is brute-force dense matrix
arithmetic over an index window wide enough that truncation cannot leak in."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpu.cli import parse_operator_text, run_command, serialize_operator
from fpu.errors import ValidationError
from fpu.gnvw import (conjugating_unitary, decompose, factor_end_periodic, index,
                      synth_random)
from fpu.matutil import haar_unitary
from fpu.operators import (EndPeriodicOperator, PeriodicBandOperator,
                           apply_state, block_diagonal, delta_embed,
                           embed_finite, identity, make_shift,
                           max_entry_difference, multiply, propagation,
                           unitarity_residual, window)
from fpu.operators import _patched, _product_residual

from conftest import dense_window, phases_under_a_patch, traced_peak

SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
ROT = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)


def random_operator(rng, end_periodic=False):
    kind = rng.integers(0, 4)
    if kind == 0:
        op = make_shift(int(rng.integers(-2, 3)))
    elif kind == 1:
        op = delta_embed(haar_unitary(int(rng.integers(1, 4)), rng),
                         int(rng.integers(-2, 3)))
    else:
        a = delta_embed(haar_unitary(int(rng.integers(1, 4)), rng), 0)
        b = delta_embed(haar_unitary(int(rng.integers(1, 3)), rng), -1)
        op = multiply(a, b)
    if end_periodic or (kind == 3 and rng.integers(0, 2)):
        op = multiply(op, embed_finite(haar_unitary(2 * int(rng.integers(1, 3)), rng)))
    return op


def assert_product_matches_dense(a, b, w=None):
    product = multiply(a, b)
    pa = max(a.prop_bound(), getattr(a, "patch_radius", 0))
    pb = max(b.prop_bound(), getattr(b, "patch_radius", 0))
    if w is None:
        w = (getattr(a, "patch_radius", 0) + getattr(b, "patch_radius", 0)
             + 2 * (pa + pb) + a.period + b.period + 4)
    lo, hi = -w, w
    oracle = dense_window(a, lo, hi) @ dense_window(b, lo, hi)
    got = dense_window(product, lo, hi)
    pad = pa + pb  # rows this far from the edge see the full sum
    inner = slice(pad, 2 * w - pad)
    assert np.allclose(got[inner, :], oracle[inner, :], atol=1e-12)


# -- construction ------------------------------------------------------------

def test_make_periodic_shift_structure():
    s = PeriodicBandOperator(1, 1, {(0, 1): 1.0})
    assert s == make_shift(1)
    assert propagation(s) == 1


def test_make_periodic_identity():
    assert PeriodicBandOperator(1, 0, {(0, 0): 1.0}) == identity()


def test_make_periodic_swap_is_unitary_period_two():
    swap = PeriodicBandOperator(2, 1, {(0, 1): 1.0, (1, -1): 1.0})
    assert unitarity_residual(swap) <= 1e-12
    assert multiply(swap, swap) == identity()
    assert swap == delta_embed(SWAP, 0)


def test_make_periodic_validation():
    with pytest.raises(ValidationError):
        PeriodicBandOperator(2, 1, {(2, 0): 1.0})
    with pytest.raises(ValidationError):
        PeriodicBandOperator(1, 1, {(0, 2): 1.0})


def test_make_shift_basics():
    assert make_shift(0) == identity()
    assert propagation(make_shift(1)) == 1
    assert make_shift(-2) == make_shift(2).adjoint()


FLOAT_ARGUMENTS = {
    "make_shift": lambda: make_shift(1.5),
    "period": lambda: PeriodicBandOperator(2.7, 1, {(0, 1): 1.0}),
    "band": lambda: PeriodicBandOperator(1, 1.0, {(0, 1): 1.0}),
    "patch_radius": lambda: EndPeriodicOperator(identity(), 1.5, {}),
    "delta_embed": lambda: delta_embed(np.eye(2), 0.5),
    "apply_state": lambda: apply_state(identity(), {1.7: 1.0}),
    "block_diagonal": lambda: block_diagonal(0, np.eye(2), {0.9: -np.eye(2)}),
    "conjugating_unitary": lambda: conjugating_unitary(np.diag([0, 1]), 1.5),
}


@pytest.mark.parametrize("call", FLOAT_ARGUMENTS.values(), ids=FLOAT_ARGUMENTS)
def test_integer_arguments_refuse_a_float(call):
    with pytest.raises(ValidationError, match="^expected an integer, got [0-9.]+$"):
        call()


def test_integer_arguments_refuse_a_string_or_a_numpy_float():
    # neither is parsed nor truncated
    with pytest.raises(ValidationError, match="^expected an integer, got '3'$"):
        apply_state(identity(), {"3": 1.0})
    with pytest.raises(ValidationError, match=r"^expected an integer, got np.float64\(1.0\)$"):
        conjugating_unitary(np.diag([0, 1]), np.float64(1.0))


@pytest.mark.parametrize("k", [np.int64(1), True], ids=["int64", "bool"])
def test_integer_arguments_take_numpy_integers_and_bools(k):
    assert make_shift(k) == make_shift(1)
    assert PeriodicBandOperator(k, k, {(0, 1): 1.0}) == make_shift(1)
    assert EndPeriodicOperator(identity(), k, {(0, 0): -1.0}).patch_radius == 1
    assert delta_embed(SWAP, k) == delta_embed(SWAP, 1)
    assert apply_state(identity(), {k: 1.0}) == {1: 1.0}
    assert block_diagonal(0, SWAP, {k: ROT}) == block_diagonal(0, SWAP, {1: ROT})


def test_identity_is_one_immutable_operator():
    assert identity() is identity()
    assert identity().__eq__(1) is NotImplemented and identity() != 1
    with pytest.raises(AttributeError, match="^PeriodicBandOperator is immutable$"):
        identity().band = 1
    with pytest.raises(ValueError, match="read-only"):
        identity().diagonals[0, 1] = 2.0
    shift = make_shift(0)
    assert (identity().period, identity().band) == (shift.period, shift.band)
    assert np.array_equal(identity().diagonals, shift.diagonals)


def test_entry_periodicity_random_spots(rng):
    op = delta_embed(haar_unitary(3, rng), -1)
    for _ in range(50):
        i = int(rng.integers(-30, 30))
        j = i + int(rng.integers(-2, 3))
        t = int(rng.integers(-5, 6))
        assert op.entry(i + 3 * t, j + 3 * t) == op.entry(i, j)


# -- block placement -----------------------------------------------------------

def test_block_diagonal_identity_block_is_identity():
    assert block_diagonal(0, np.eye(2)) == identity()


def test_block_diagonal_swap_matches_periodic():
    assert block_diagonal(0, SWAP) == PeriodicBandOperator(
        2, 1, {(0, 1): 1.0, (1, -1): 1.0})


def test_block_diagonal_alignment_matters():
    at_zero = block_diagonal(0, SWAP)
    at_minus_one = block_diagonal(-1, SWAP)
    assert at_zero != at_minus_one
    assert at_minus_one.entry(-1, 0) == 1.0
    assert at_zero.entry(-1, 0) == 0.0


def test_delta_embed_conjugation_realigns(rng):
    m = haar_unitary(2, rng)
    for k in (-2, 1, 3):
        conjugated = multiply(multiply(make_shift(-k), delta_embed(m, 0)),
                              make_shift(k))
        assert conjugated == delta_embed(m, k)


def test_block_diagonal_central_blocks():
    op = block_diagonal(0, np.eye(2), central={0: SWAP})
    assert isinstance(op, EndPeriodicOperator)
    assert op.entry(0, 1) == 1.0 and op.entry(4, 5) == 0.0
    assert unitarity_residual(op) <= 1e-12


def test_block_diagonal_matches_shrinking_its_dense_square(rng):
    # the oracle writes every central block into the background's dense square
    # and shrinks it against the whole square; block_diagonal compares the
    # central blocks alone.  Blocks agree with the repeating one on some
    # cells, within ZERO_TOL on some, and hold values at or below it
    for _ in range(300):
        size, k = int(rng.integers(1, 5)), int(rng.integers(-5, 5))
        repeating = haar_unitary(size, rng)
        central = {}
        for n in rng.choice(np.arange(-3, 4), size=int(rng.integers(1, 4)), replace=False):
            m = haar_unitary(size, rng)
            same = rng.random((size, size)) < 0.6
            m[same] = repeating[same] + (rng.random() < 0.5) * 1e-13
            m[rng.random((size, size)) < 0.1] = 1e-13
            central[int(n)] = m
        bg = delta_embed(repeating, k)
        radius = max(max(-k - n * size, k + (n + 1) * size) for n in central)
        cells = np.arange(-radius, radius)
        dense = window(bg, cells[:, None], cells)
        for n, m in central.items():
            start = k + n * size + radius
            dense[start:start + size, start:start + size] = m
        expected = _patched(bg, dense)
        op = block_diagonal(k, repeating, central)
        assert op.patch_radius == expected.patch_radius
        assert serialize_operator(op) == serialize_operator(expected)


def test_embed_finite_placement():
    op = embed_finite(SWAP)
    assert op.entry(-1, 0) == 1.0
    assert op.entry(0, -1) == 1.0
    assert op.entry(3, 3) == 1.0
    assert list(apply_state(op, {0: 1.0})) == [-1]


def test_embed_finite_identity_collapses():
    assert embed_finite(np.eye(2)) == identity()


def test_embed_finite_rejects_odd():
    with pytest.raises(ValidationError):
        embed_finite(np.eye(3))


def test_block_constructors_reject_bad_shapes():
    with pytest.raises(ValidationError):
        delta_embed(np.ones((2, 3)))
    with pytest.raises(ValidationError, match="^matrix must be square$"):
        embed_finite(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        block_diagonal(0, np.eye(2), central={0: np.eye(3)})


# -- patch semantics -------------------------------------------------------------

def test_patch_overrides_background_with_zero():
    # window cell left unset is an explicit zero even over a nonzero background
    op = EndPeriodicOperator(identity(), 1, {})
    assert op.entry(0, 0) == 0.0
    assert op.entry(1, 1) == 1.0


def test_patch_agreeing_with_background_shrinks_away():
    s = make_shift(1)
    padded = EndPeriodicOperator(s, 2, {(-2, -1): 1.0, (-1, 0): 1.0, (0, 1): 1.0})
    assert padded is s  # a periodic operator has no second, radius-0 form


def test_patch_interior_deviation_shrinks_to_its_ring():
    # only (1, 0) differs from the identity; row 1 lies on ring 2, so the
    # window shrinks from [-4, 4) to [-2, 2)
    padded = {(i, i): 1.0 for i in range(-4, 4)}
    padded[(1, 0)] = 0.5
    op = EndPeriodicOperator(identity(), 4, padded)
    assert op.patch_radius == 2
    assert op.patch == {(-2, -2): 1.0, (-1, -1): 1.0, (0, 0): 1.0, (1, 1): 1.0,
                        (1, 0): 0.5}


def test_patch_out_of_window_rejected():
    with pytest.raises(ValidationError):
        EndPeriodicOperator(identity(), 1, {(1, 0): 0.5})


def test_negative_patch_radius_rejected():
    with pytest.raises(ValidationError, match="^patch radius must be >= 0$"):
        EndPeriodicOperator(identity(), -1, {})


def test_indices_beyond_int64_fail_the_range_checks():
    with pytest.raises(ValidationError, match=r"^patch entry \(100000000000000000000, 0\)"):
        EndPeriodicOperator(identity(), 1, {(10 ** 20, 0): 0.5})
    with pytest.raises(ValidationError, match=r"^band violation: \|-100000000000000000000\|"):
        PeriodicBandOperator(1, 1, {(0, -10 ** 20): 0.5})


def test_wide_window_over_zero_background_shrinks_without_a_dense_window():
    # only the given cell differs from a zero background: no (2R)^2 array
    op = EndPeriodicOperator(PeriodicBandOperator(1, 1, {}), 100000, {(5, -3): 0.5})
    assert op.patch_radius == 6 and op.patch == {(5, -3): 0.5}


@pytest.mark.parametrize("centre", [["patch 0 0 -1 0"], []], ids=["given", "left-out"])
def test_wide_window_over_nonzero_background_scatters_only_its_ring(centre):
    # the identity given along the diagonal of a radius-1000 window except at
    # (0, 0), which holds -1 or an explicit zero: the patch shrinks to radius 1,
    # where the dense (2000, 2000) window alone would take 64 MB
    lines = [f"patch {i} {i} 1 0" for i in range(-1000, 1000) if i]
    text = "\n".join(["FPUOP 1", "period 1", "band 0", "patch-radius 1000",
                      "bg 0 0 1 0", *lines, *centre, "END"])
    op, peak = traced_peak(lambda: parse_operator_text(text))
    assert op.patch_radius == 1
    assert op.patch == ({(-1, -1): 1.0, (0, 0): -1.0} if centre else {(-1, -1): 1.0})
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("command", ["check", "index", "adjoint"])
def test_a_dropped_value_sizes_no_table(tmp_path, command):
    # the 1e-13 value at offset 10**9 is dropped as zero, so the file is the
    # identity: a table out to that offset would take 29.8 GiB
    head = ["FPUOP 1", "period 1", "band 1000000000", "bg 0 0 1.0 0.0"]
    plain, dropped = tmp_path / "plain.op", tmp_path / "dropped.op"
    plain.write_text("\n".join([*head, "END", ""]))
    dropped.write_text("\n".join([*head, "bg 0 1000000000 1e-13 0.0", "END", ""]))
    result, peak = traced_peak(lambda: run_command(["op", command, str(dropped)]))
    assert result.exit_code == 0
    assert result == run_command(["op", command, str(plain)])
    assert peak < 2 ** 20


def test_construction_and_adjoint_build_only_the_patch():
    # the identity with -1 down a radius-600 patch diagonal: its dense patch
    # takes 22 MB, and neither the parse nor the adjoint builds a second
    # (1200, 1200) array to compare against the background or to shrink
    lines = [f"patch {i} {i} -1 0" for i in range(-600, 600)]
    text = "\n".join(["FPUOP 1", "period 1", "band 0", "patch-radius 600",
                      "bg 0 0 1 0", *lines, "END"])
    op, parse_peak = traced_peak(lambda: parse_operator_text(text))
    star, adjoint_peak = traced_peak(op.adjoint)
    assert op.patch_radius == star.patch_radius == 600
    assert star.patch == op.patch and star.background == op.background
    assert parse_peak < 32 * 2 ** 20 and adjoint_peak < 32 * 2 ** 20


@pytest.mark.parametrize("left_out", [-2, 1])
def test_left_out_cell_of_one_residue_sets_the_radius(left_out):
    # the diagonal holds 1 on even rows and 2 on odd ones; the one diagonal
    # cell left out of the window [-3, 3) is an explicit zero on ring 2
    bg = PeriodicBandOperator(2, 0, {(0, 0): 1.0, (1, 0): 2.0})
    op = EndPeriodicOperator(bg, 3, {(k, k): bg.entry(k, k) for k in range(-3, 3)
                                     if k != left_out})
    assert op.patch_radius == 2 and op.entry(left_out, left_out) == 0
    assert op.entry(-1 - left_out, -1 - left_out) == bg.entry(-1 - left_out, -1 - left_out)


def test_keys_at_the_edge_of_int64_shrink_or_run_out_of_memory():
    zero = PeriodicBandOperator(1, 0, {})
    # the huge key holds a zero, so the one given value sets the radius
    op = EndPeriodicOperator(zero, 10 ** 20, {(10 ** 19, 0): 0.0, (3, -2): 0.5})
    assert op.patch_radius == 4 and op.patch == {(3, -2): 0.5}
    # the ring of row 2**63 - 1 is 2**63, one past the largest int64
    with pytest.raises(MemoryError):
        EndPeriodicOperator(zero, 2 ** 63, {(2 ** 63 - 1, 0): 1.0})


def test_periodic_operator_is_its_own_background_with_empty_patch():
    op = make_shift(1)
    assert op.background is op and op.patch_radius == 0 and not op.patch
    # every periodic operator shares the one empty patch, so it must not take writes
    with pytest.raises(TypeError):
        op.patch[(0, 0)] = 1.0
    with pytest.raises(AttributeError, match="^PeriodicBandOperator is immutable$"):
        op.band = 2
    with pytest.raises(AttributeError, match="^EndPeriodicOperator is immutable$"):
        embed_finite(SWAP).patch_radius = 0


def test_wrapped_periodic_operator_agrees_with_periodic(rng):
    for _ in range(8):
        p = random_operator(rng)
        while p.patch_radius:
            p = random_operator(rng)
        # an empty radius-0 patch leaves the periodic operator, its only form
        assert EndPeriodicOperator(p, 0, {}) is p


# -- dense window -------------------------------------------------------------------

def random_storage_operator(rng, end_periodic):
    """Arbitrary (not unitary) entries, some absent, to exercise the storage."""
    period, band = int(rng.integers(1, 5)), int(rng.integers(0, 4))
    entries = {(i, d): complex(*rng.standard_normal(2))
               for i in range(period) for d in range(-band, band + 1)
               if rng.random() < 0.7}
    op = PeriodicBandOperator(period, band, entries)
    if not end_periodic:
        return op
    radius = int(rng.integers(1, 5))
    patch = {(i, j): complex(*rng.standard_normal(2))
             for i in range(-radius, radius) for j in range(-radius, radius)
             if rng.random() < 0.5}
    return EndPeriodicOperator(op, radius, patch)


@pytest.mark.parametrize("end_periodic", [False, True])
def test_prop_bound_covers_patch_radius_and_entries(rng, end_periodic):
    for _ in range(25):
        op = random_storage_operator(rng, end_periodic)
        assert op.prop_bound() >= op.patch_radius
        assert op.prop_bound() >= propagation(op)


@pytest.mark.parametrize("end_periodic", [False, True])
def test_window_matches_scalar_oracle(rng, end_periodic):
    for _ in range(25):
        op = random_storage_operator(rng, end_periodic)
        # from below 0, across the patch edge, to past the band
        reach = getattr(op, "patch_radius", 0) + op.prop_bound() + op.period + 2
        lo, hi = -reach, reach + 1
        oracle = dense_window(op, lo, hi)
        cells = np.arange(lo, hi)
        assert np.array_equal(window(op, cells[:, None], cells), oracle)
        rows, cols = cells[3:-5], cells[1:-2]
        assert np.array_equal(window(op, rows[:, None], cols), oracle[3:-5, 1:-2])
        r = (rows - lo)[:, None]  # a band of offsets -1 .. 2 around each row
        at = r + np.arange(-1, 3)
        assert np.array_equal(window(op, rows[:, None], at + lo), oracle[r, at])
        # scalar indices read one entry, as 0-d arrays do
        for i, j in itertools.product(range(lo, hi), repeat=2):
            assert window(op, i, j) == window(op, np.array(i), np.array(j)) == op.entry(i, j)


# -- products ----------------------------------------------------------------------

def test_shift_inverse_and_composition():
    s = make_shift(1)
    assert multiply(s, s.adjoint()) == identity()
    assert multiply(make_shift(1), make_shift(2)) == make_shift(3)


def test_swap_involution():
    swap = delta_embed(SWAP, 0)
    assert multiply(swap, swap) == identity()


def test_multiply_matches_dense_oracle(rng):
    for _ in range(12):
        a = random_operator(rng)
        b = random_operator(rng)
        assert_product_matches_dense(a, b)


def test_multiply_end_periodic_matches_dense(rng):
    for _ in range(6):
        a = random_operator(rng, end_periodic=True)
        b = random_operator(rng, end_periodic=rng.integers(0, 2) == 0)
        assert_product_matches_dense(a, b)


# two entries in a radius-8 window over a nonzero background: propagation 2,
# far below the window's 2R - 1, so the product's envelope is at its tightest
SPARSE_PATCH = EndPeriodicOperator(delta_embed(ROT, 1), 8, {(-8, -6): 0.5, (5, 6): -0.25j})
# two far-corner cells of a radius-8 window over a tridiagonal background: the
# patch reaches 15 off the diagonal, yet moves the product's patch only as far
# as the other operand's background reach
FAR_CORNER = EndPeriodicOperator(
    PeriodicBandOperator(1, 1, {(0, -1): 0.6, (0, 0): 0.1, (0, 1): 0.8j}),
    8, {(-8, 7): 0.5, (7, -8): -0.25j})


@pytest.mark.parametrize("pair", ["storage", "sparse-patch", "far-corner"])
def test_multiply_matches_dense_oracle_beyond_haar_patches(rng, pair):
    for _ in range(12):
        if pair == "storage":
            a, b = (random_storage_operator(rng, rng.integers(0, 2) == 0) for _ in "ab")
        else:
            a = SPARSE_PATCH if pair == "sparse-patch" else FAR_CORNER
            b = random_operator(rng, end_periodic=rng.integers(0, 2) == 0)
        assert_product_matches_dense(a, b)
        assert_product_matches_dense(b, a)


def test_multiply_periodic_times_end_periodic(rng):
    # both orders of mixed kinds against the dense oracle
    for _ in range(4):
        periodic = random_operator(rng)
        while getattr(periodic, "patch_radius", 0):
            periodic = random_operator(rng)
        patched = random_operator(rng, end_periodic=True)
        assert_product_matches_dense(periodic, patched)
        assert_product_matches_dense(patched, periodic)


def test_associativity_within_tolerance(rng):
    for _ in range(5):
        a, b, c = (random_operator(rng) for _ in range(3))
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert max_entry_difference(left, right) <= 1e-9


def test_propagation_subadditive(rng):
    for _ in range(20):
        a = random_operator(rng)
        b = random_operator(rng)
        assert propagation(multiply(a, b)) <= propagation(a) + propagation(b)


# -- adjoint --------------------------------------------------------------------------

def test_adjoint_examples(rng):
    assert identity().adjoint() == identity()
    assert make_shift(1).adjoint() == make_shift(-1)
    phase = PeriodicBandOperator(1, 0, {(0, 0): np.exp(0.3j)})
    assert phase.adjoint() == PeriodicBandOperator(1, 0, {(0, 0): np.exp(-0.3j)})


def test_adjoint_involution(rng):
    for _ in range(8):
        op = random_operator(rng, end_periodic=rng.integers(0, 2) == 0)
        assert op.adjoint().adjoint() == op


def test_adjoint_transposes_dense(rng):
    op = random_operator(rng, end_periodic=True)
    w = 12
    assert np.allclose(dense_window(op.adjoint(), -w, w),
                       dense_window(op, -w, w).conj().T, atol=1e-14)


# -- unitarity residual ------------------------------------------------------------------

def test_unitarity_examples(rng):
    assert unitarity_residual(make_shift(1)) <= 1e-12
    assert unitarity_residual(delta_embed(haar_unitary(3, rng), 0)) <= 1e-10
    half = PeriodicBandOperator(1, 0, {(0, 0): 0.5})
    assert abs(unitarity_residual(half) - 0.75) <= 1e-12


def test_adjoint_inverse_property(rng):
    for _ in range(8):
        op = random_operator(rng, end_periodic=rng.integers(0, 2) == 0)
        assert unitarity_residual(multiply(op, op.adjoint())) <= 1e-9


def built_unitarity_residual(op):
    """The residual from the products and the identity built as operators."""
    star = op.adjoint()
    return max(max_entry_difference(multiply(op, star), identity()),
               max_entry_difference(multiply(star, op), identity()))


def seeded_operators(count):
    """synth_random operators of mixed index, period and block; odd seeds
    give end-periodic ones."""
    return [synth_random(k % 5 - 2, 1 + k % 4, 1 + k // 4 % 4, k % 2 * (1 + k // 8 % 2),
                         seed=k) for k in range(count)]


def test_unitarity_residual_matches_the_built_products(rng):
    ops = seeded_operators(40)
    for op in ops[1::2]:  # one patch entry, the largest, scaled by 1 + 1e-7
        patch = dict(op.patch)
        cell = max(patch, key=lambda c: abs(patch[c]))
        patch[cell] *= 1 + 1e-7
        ops.append(EndPeriodicOperator(op.background, op.patch_radius, patch))
    # a period and a patch both long enough to read the patch rows on their own;
    # the second differs from a unitary only on a background diagonal cell of
    # residue 60 mod 80, which the patch on [-40, 40)^2 hides: rows 60 + 80t witness it
    ops.append(synth_random(0, 70, 2, 32, seed=5))
    phases = {(i, 0): complex(np.exp(1j * i)) for i in range(80)}
    op = multiply(PeriodicBandOperator(80, 0, phases), embed_finite(haar_unitary(80, rng)))
    phases[60, 0] *= 1 + 1e-7
    ops.append(EndPeriodicOperator(PeriodicBandOperator(80, 0, phases), 40, op.patch))
    assert ops[-1].patch_radius == 40 and unitarity_residual(ops[-1]) > 1e-8
    assert len({op.patch_radius > 0 for op in ops[:40]}) == 2
    for op in ops:
        assert abs(unitarity_residual(op) - built_unitarity_residual(op)) <= 1e-15
    assert all(1e-8 < unitarity_residual(op) < 1e-6 for op in ops[40:60])
    half = PeriodicBandOperator(1, 0, {(0, 0): 0.5})
    zero = PeriodicBandOperator(1, 0, {})
    assert unitarity_residual(half) == built_unitarity_residual(half) == 0.75
    assert unitarity_residual(zero) == built_unitarity_residual(zero) == 1.0


def test_unitarity_residual_reads_every_residue_of_the_period():
    # a row's own norm sits on the Gram's diagonal, which no other row of the
    # period holds: a defect there shows only in that row's residue
    for n in (1, 2, 5):
        for k in range(n):
            entries = {(i, 0): 1.0 for i in range(n)}
            entries[k, 0] = 1 + 1e-7
            op = PeriodicBandOperator(n, 0, entries)
            assert abs(unitarity_residual(op) - built_unitarity_residual(op)) <= 1e-15
            assert unitarity_residual(op) > 1e-7


def test_product_residual_matches_the_built_product(rng):
    ops = seeded_operators(30)
    triples = []
    for k in range(0, 30, 3):
        a, b, other = ops[k:k + 3]
        ab = multiply(a, b)
        envelope = max(a.patch_radius + b.background.reach if a.patch_radius else 0,
                       b.patch_radius + a.background.reach if b.patch_radius else 0)
        wide = multiply(ab, embed_finite(haar_unitary(2 * envelope + 4, rng)))
        assert wide.patch_radius > envelope and other.period != ab.period
        triples += [(a, b, ab), (a, b, wide), (a, b, other), (b, a, ab)]
    # periods and patches long enough to read the patch rows on their own; the
    # last c differs from big on one background diagonal cell, of a residue
    # that only the period of rows past the patch holds outside it
    big, other = synth_random(0, 70, 2, 32, seed=5), synth_random(1, 35, 3, 33, seed=6)
    entries = dict(big.background.entries)
    entries[(big.patch_radius + 1) % 70, 0] *= 1 + 1e-7
    moved = EndPeriodicOperator(PeriodicBandOperator(70, big.background.band, entries),
                                big.patch_radius, big.patch)
    triples += [(big, other, multiply(big, other)), (big, other, big),
                (big, big.adjoint(), identity()), (big, identity(), moved)]
    # c differs from ab on its outermost diagonals, or beyond ab's band;
    # values of ab at or below 1e-12 count as 0
    tiny = PeriodicBandOperator(1, 0, {(0, 0): 1e-6})
    triples += [(make_shift(k), make_shift(k), PeriodicBandOperator(1, 2, {(0, 2 * k): 1.5}))
                for k in (-1, 1)]
    triples += [(identity(), identity(), PeriodicBandOperator(1, 3, {(0, 0): 1, (0, 3): 0.5})),
                (tiny, tiny, PeriodicBandOperator(1, 0, {}))]
    for a, b, c in triples:
        built = max_entry_difference(multiply(a, b), c)
        assert abs(_product_residual(a, b, c) - built) <= 1e-15
    assert _product_residual(big, identity(), moved) > 1e-9


def test_equality_costs_the_band_not_the_period_squared():
    # a == a on a diagonal of n phases compares n diagonal cells; a product by
    # the identity would fill an n x n window.  Traced peak exponent in n.
    def compared(n):
        op = PeriodicBandOperator(n, 0, {(i, 0): np.exp(2j * np.pi * i / n) for i in range(n)})
        op == op  # pays the one-time allocations untraced
        return traced_peak(lambda: op == op)
    (small_equal, small), (large_equal, large) = compared(375), compared(750)
    assert small_equal and large_equal
    assert math.log(large / small) / math.log(750 / 375) <= 1.1, (small, large)


def test_a_product_with_the_identity_reads_the_operand(rng):
    # op I reads op's diagonals and its patch square; a product would fill an
    # n x n window.  Traced peak exponent in n.
    def product(n):
        op = phases_under_a_patch(n, rng)
        multiply(op, identity())  # pays the one-time allocations untraced
        result, peak = traced_peak(lambda: multiply(op, identity()))
        assert serialize_operator(result) == serialize_operator(op)
        return peak
    small, large = product(375), product(750)
    assert math.log(large / small) / math.log(750 / 375) <= 1.1, (small, large)


# -- corners -----------------------------------------------------------------------------
# index reads the Hilbert-Schmidt sums of the two off-corner blocks U(-,+)
# (rows < 0, columns >= 0) and U(+,-) (rows >= 0, columns < 0).

def corner_sums(op):
    report = index(op)
    return report.hs_minus_plus, report.hs_plus_minus


def test_corner_data_identity_empty():
    assert corner_sums(identity()) == (0.0, 0.0)


def test_corner_data_shift():
    assert corner_sums(make_shift(1)) == (1.0, 0.0)


def test_corner_data_shift_three():
    assert corner_sums(make_shift(3)) == (3.0, 0.0)


def test_corner_data_covers_all_crossings():
    # the entry oracle sums every crossing cell of a window wider than the band
    for seed in range(6):
        op = synth_random(seed % 3 - 1, seed % 3 + 1, 2, 1 + seed % 2, seed=seed)
        assert isinstance(op, EndPeriodicOperator)
        w = 3 * (op.prop_bound() + 1)
        mp = sum(abs(op.entry(i, j)) ** 2 for i in range(-w, 0) for j in range(w))
        pm = sum(abs(op.entry(i, j)) ** 2 for i in range(w) for j in range(-w, 0))
        got = corner_sums(op)
        assert abs(got[0] - mp) <= 1e-12 and abs(got[1] - pm) <= 1e-12


# -- state application ----------------------------------------------------------------------

def norm(psi):
    return float(np.sqrt(sum(abs(v) ** 2 for v in psi.values())))


def test_apply_examples():
    psi = {0: 0.6, 2: 0.8j}
    assert apply_state(identity(), psi) == psi
    assert list(apply_state(make_shift(1), {0: 1.0})) == [-1]
    swap = delta_embed(SWAP, 0)
    assert list(apply_state(swap, {0: 1.0})) == [1]


def test_apply_norm_preserved(rng):
    psi = {-2: 0.5, 0: 0.5j, 3: -0.70710678}
    for _ in range(6):
        op = random_operator(rng, end_periodic=rng.integers(0, 2) == 0)
        assert abs(norm(apply_state(op, psi)) - norm(psi)) <= 1e-9


def test_apply_far_from_patch_uses_background(rng):
    op = multiply(embed_finite(haar_unitary(4, rng)), make_shift(1))
    far = apply_state(op, {1000: 1.0})
    assert list(far) == [999]
    assert abs(far[999] - 1.0) <= 1e-12


def test_entry_scan_window_is_sufficient(rng):
    # max_entry_difference is exact: it equals the largest gap over a dense
    # window holding both patches and a full common period past them
    pairs = [(random_operator(rng, end_periodic=True), random_operator(rng, end_periodic=True))
             for _ in range(4)]
    ends = synth_random(1, 2, 1, 1, seed=3), synth_random(0, 3, 2, 1, seed=4)
    assert ends[0].period != ends[1].period and all(op.patch_radius for op in ends)
    pairs += [ends, (delta_embed(haar_unitary(2, rng), 1), ends[1])]
    # one background cell moved, on the outermost diagonal above of the last
    # residue or below of the first, and the largest patch cell moved
    for op in ends:
        bg, patch = op.background, dict(op.patch)
        for cell in (bg.period - 1, bg.reach), (0, -bg.reach):
            entries = dict(bg.entries)
            entries[cell] = entries.get(cell, 0) + 1e-3
            moved = PeriodicBandOperator(bg.period, bg.band, entries)
            pairs.append((op, EndPeriodicOperator(moved, op.patch_radius, patch)))
        cell = max(patch, key=lambda c: abs(patch[c]))
        patch[cell] *= 1 + 1e-3
        pairs.append((op, EndPeriodicOperator(bg, op.patch_radius, patch)))
    for a, b in pairs:
        w = (max(a.patch_radius, b.patch_radius) + np.lcm(a.period, b.period)
             + max(a.background.reach, b.background.reach) + 1)
        dense_gap = float(np.max(np.abs(dense_window(a, -w, w) - dense_window(b, -w, w))))
        assert max_entry_difference(a, b) == max_entry_difference(b, a) == dense_gap > 0


def test_apply_matches_dense(rng):
    op = random_operator(rng, end_periodic=True)
    w = 16
    vec = np.zeros(2 * w, dtype=complex)
    psi = {-1: 0.3, 2: -0.4j, 5: 1.0}
    for i, v in psi.items():
        vec[w + i] = v
    out = dense_window(op, -w, w) @ vec
    result = apply_state(op, psi)
    for i in range(-w // 2, w // 2):
        assert abs(result.get(i, 0j) - out[w + i]) <= 1e-12


# -- properties of the storage ---------------------------------------------------------
# Operators reach storage two ways: mappings (files, callers) and arrays the
# library computes.  Both must land on one canonical form, byte for byte.

# small values, exact zeros and values below the canonicalization threshold
values = (st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
          | st.sampled_from([0j, 1e-13 + 0j, -1e-13j]))
# a product adds +0.0 to every part, which turns a -0.0 part into 0.0
unsigned_zero_values = values.map(lambda v: v + 0j)


def cell_dict(draw, cells, value):
    return draw(st.dictionaries(st.sampled_from(cells), value)) if cells else {}


@st.composite
def padded_patches(draw, value=values):
    """A background, a patch on [-r, r)^2, and the same patch declared on a
    wider window whose extra rings hold the background's values."""
    period, band = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    cells = [(i, d) for i in range(period) for d in range(-band, band + 1)]
    bg = PeriodicBandOperator(period, band, cell_dict(draw, cells, value))
    radius, pad = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    window_cells = [(i, j) for i in range(-radius, radius) for j in range(-radius, radius)]
    patch = cell_dict(draw, window_cells, value)
    padded = dict(patch)
    outer = radius + pad
    for i in range(-outer, outer):
        for j in range(-outer, outer):
            if max(i + 1, -i, j + 1, -j) > radius:
                padded[(i, j)] = bg.entry(i, j)
    return bg, radius, patch, outer, padded


@st.composite
def storage_operators(draw, value=values):
    bg, radius, patch, outer, padded = draw(padded_patches(value))
    if draw(st.booleans()):
        return bg
    return EndPeriodicOperator(bg, outer, padded)


@given(padded_patches())
@settings(max_examples=80)
def test_padding_with_background_values_shrinks_away(case):
    bg, radius, patch, outer, padded = case
    assert (serialize_operator(EndPeriodicOperator(bg, outer, padded))
            == serialize_operator(EndPeriodicOperator(bg, radius, patch)))


@given(storage_operators())
@settings(max_examples=80)
def test_serialize_parse_round_trip(op):
    text = serialize_operator(op)
    again = parse_operator_text(text)
    assert serialize_operator(again) == text
    assert again == op


def mapping_serialized(op):
    """The operator file written from the sorted entries and patch mappings:
    the oracle of serialize_operator, which reads the arrays."""
    lines = ["FPUOP 1", f"period {op.period}", f"band {op.background.band}",
             f"patch-radius {op.patch_radius}"]
    for key, cells in (("bg", op.background.entries), ("patch", op.patch)):
        for (a, b), v in sorted(cells.items()):
            lines.append(f"{key} {a} {b} {float(v.real)!r} {float(v.imag)!r}")
    return "\n".join([*lines, "END"]) + "\n"


@given(storage_operators())
@settings(max_examples=80)
def test_serializer_writes_the_sorted_mappings(op):
    assert serialize_operator(op) == mapping_serialized(op)
    assert serialize_operator(op.adjoint()) == mapping_serialized(op.adjoint())


@pytest.mark.parametrize("end_periodic", [False, True], ids=["periodic", "end-periodic"])
def test_serializer_writes_factors_as_the_sorted_mappings(end_periodic):
    rng = np.random.default_rng(1818)
    for _ in range(6):
        op = synth_random(0, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                          int(rng.integers(1, 3)) if end_periodic else 0,
                          seed=int(rng.integers(0, 2 ** 32)))
        assert isinstance(op, EndPeriodicOperator) == end_periodic
        result, split = decompose(op), factor_end_periodic(op)
        for built in (op, result.v, result.w, split.finite_part, split.periodic_part):
            assert serialize_operator(built) == mapping_serialized(built)


@given(storage_operators(unsigned_zero_values))
# some BLAS kernels sum the zero real part of this background product to -0.0
@example(EndPeriodicOperator(PeriodicBandOperator(1, 1, {(0, 0): 1j, (0, 1): -1.0}), 2, {}))
@settings(max_examples=80)
def test_products_with_identity_serialize_as_mapping_built(op):
    # the product rebuilds the same entries through the array path
    text = serialize_operator(op)
    assert serialize_operator(multiply(op, identity())) == text
    assert serialize_operator(multiply(identity(), op)) == text


@given(storage_operators(), storage_operators())
@settings(max_examples=60)
def test_one_product_path_matches_dense(a, b):
    # periods 1-4 re-block to their lcm; a patch on neither, one or both
    # sides, over backgrounds that may be zero
    assert_product_matches_dense(a, b)
    assert_product_matches_dense(b, a)


@given(padded_patches(), st.data())
@settings(max_examples=80)
def test_left_out_cells_are_explicit_zeros(case, data):
    bg, _, _, outer, padded = case
    given_cells = {cell: v for cell, v in padded.items() if data.draw(st.booleans())}
    op = EndPeriodicOperator(bg, outer, given_cells)
    cells = [(i, j) for i in range(-outer, outer) for j in range(-outer, outer)]
    for i, j in cells:
        assert abs(op.entry(i, j) - given_cells.get((i, j), 0)) <= 1e-12
    rings = [max(i + 1, -i, j + 1, -j) for i, j in cells
             if abs(given_cells.get((i, j), 0) - bg.entry(i, j)) > 1e-12]
    assert op.patch_radius == max(rings, default=0)


@given(storage_operators())
@settings(max_examples=80)
def test_adjoint_serializes_as_mapping_built(op):
    # the transposed patch is already minimal: the adjoint keeps the radius
    # that the mapping path's shrink finds
    star = op.adjoint()
    transposed = {(j, i): v.conjugate() for (i, j), v in op.patch.items()}
    built = EndPeriodicOperator(star.background, op.patch_radius, transposed)
    assert serialize_operator(star) == serialize_operator(built)
    assert star.patch_radius == op.patch_radius


@given(storage_operators())
@settings(max_examples=80)
def test_double_adjoint_serializes_as_mapping_built(op):
    assert serialize_operator(op.adjoint().adjoint()) == serialize_operator(op)


@given(st.integers(1, 3).flatmap(lambda half: st.lists(
    values, min_size=4 * half * half, max_size=4 * half * half)))
@settings(max_examples=60)
def test_embed_finite_matches_mapping_storage(flat):
    size = int(np.sqrt(len(flat)))
    m, half = np.array(flat, dtype=complex).reshape(size, size), size // 2
    mapped = EndPeriodicOperator(identity(), half, {
        (r - half, c - half): m[r, c] for r in range(size) for c in range(size)})
    assert serialize_operator(embed_finite(m)) == serialize_operator(mapped)
