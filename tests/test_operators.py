"""Operator algebra tests.  The oracle throughout is brute-force dense matrix
arithmetic over an index window wide enough that truncation cannot leak in."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpu.cli import parse_operator_text, serialize_operator
from fpu.errors import ValidationError
from fpu.matutil import haar_unitary
from fpu.operators import (EndPeriodicOperator, PeriodicBandOperator,
                           StateVector, adjoint, apply_state, block_diagonal,
                           corner_data, delta_embed, embed_finite, identity,
                           make_periodic, make_shift, max_entry_difference,
                           multiply, propagation, unitarity_residual, window)

from conftest import dense_window

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
    s = make_periodic(1, 1, [(0, 1, 1.0)])
    assert s == make_shift(1)
    assert propagation(s) == 1


def test_make_periodic_identity():
    assert make_periodic(1, 0, [(0, 0, 1.0)]) == identity()


def test_make_periodic_swap_is_unitary_period_two():
    swap = make_periodic(2, 1, [(0, 1, 1.0), (1, -1, 1.0)])
    assert unitarity_residual(swap) <= 1e-12
    assert multiply(swap, swap) == identity()
    assert swap == delta_embed(SWAP, 0)


def test_make_periodic_validation():
    with pytest.raises(ValidationError):
        make_periodic(2, 1, [(2, 0, 1.0)])
    with pytest.raises(ValidationError):
        make_periodic(1, 1, [(0, 2, 1.0)])
    with pytest.raises(ValidationError):
        make_periodic(1, 1, [(0, 1, 1.0), (0, 1, 0.5)])


def test_make_shift_basics():
    assert make_shift(0) == identity()
    assert propagation(make_shift(1)) == 1
    assert make_shift(-2) == adjoint(make_shift(2))


def test_entry_periodicity_random_spots(rng):
    op = delta_embed(haar_unitary(3, rng), -1)
    for _ in range(50):
        i = int(rng.integers(-30, 30))
        j = i + int(rng.integers(-2, 3))
        t = int(rng.integers(-5, 6))
        assert op.entry(i + 3 * t, j + 3 * t) == op.entry(i, j)


# -- block placement -----------------------------------------------------------

def test_block_diagonal_identity_block_is_identity():
    assert block_diagonal(0, 2, np.eye(2)) == identity()


def test_block_diagonal_swap_matches_periodic():
    assert block_diagonal(0, 2, SWAP) == make_periodic(
        2, 1, [(0, 1, 1.0), (1, -1, 1.0)])


def test_block_diagonal_alignment_matters():
    at_zero = block_diagonal(0, 2, SWAP)
    at_minus_one = block_diagonal(-1, 2, SWAP)
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
    op = block_diagonal(0, 2, np.eye(2), central={0: SWAP})
    assert isinstance(op, EndPeriodicOperator)
    assert op.entry(0, 1) == 1.0 and op.entry(4, 5) == 0.0
    assert unitarity_residual(op) <= 1e-12


def test_embed_finite_placement():
    op = embed_finite(SWAP)
    assert op.entry(-1, 0) == 1.0
    assert op.entry(0, -1) == 1.0
    assert op.entry(3, 3) == 1.0
    assert apply_state(op, StateVector.delta(0)).support() == (-1,)


def test_embed_finite_identity_collapses():
    assert embed_finite(np.eye(2)) == identity()


def test_embed_finite_rejects_odd():
    with pytest.raises(ValidationError):
        embed_finite(np.eye(3))


def test_block_constructors_reject_bad_shapes():
    with pytest.raises(ValidationError):
        delta_embed(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        block_diagonal(0, 2, np.eye(2), central={0: np.eye(3)})


# -- patch semantics -------------------------------------------------------------

def test_patch_overrides_background_with_zero():
    # window cell left unset is an explicit zero even over a nonzero background
    op = EndPeriodicOperator(identity(), 1, {})
    assert op.entry(0, 0) == 0.0
    assert op.entry(1, 1) == 1.0


def test_patch_agreeing_with_background_shrinks_away():
    s = make_shift(1)
    padded = EndPeriodicOperator(s, 2, {(-2, -1): 1.0, (-1, 0): 1.0, (0, 1): 1.0})
    assert padded.patch_radius == 0
    assert padded == s


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


def test_indices_beyond_int64_fail_the_range_checks():
    with pytest.raises(ValidationError, match=r"^patch entry \(100000000000000000000, 0\)"):
        EndPeriodicOperator(identity(), 1, {(10 ** 20, 0): 0.5})
    with pytest.raises(ValidationError, match=r"^band violation: \|-100000000000000000000\|"):
        PeriodicBandOperator(1, 1, {(0, -10 ** 20): 0.5})


def test_wide_window_over_zero_background_shrinks_without_a_dense_window():
    # only the given cell differs from a zero background: no (2R)^2 array
    op = EndPeriodicOperator(PeriodicBandOperator(1, 1, {}), 100000, {(5, -3): 0.5})
    assert op.patch_radius == 6 and op.patch == {(5, -3): 0.5}


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
        wrapped = EndPeriodicOperator(p, 0, {})
        other = random_operator(rng, end_periodic=rng.integers(0, 2) == 0)
        assert propagation(wrapped) == propagation(p)
        assert wrapped.prop_bound() == p.prop_bound()
        assert serialize_operator(wrapped) == serialize_operator(p)
        for pair in ((wrapped, other), (other, wrapped), (wrapped, wrapped)):
            plain = [p if x is wrapped else x for x in pair]
            assert serialize_operator(multiply(*pair)) == serialize_operator(multiply(*plain))


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


# -- products ----------------------------------------------------------------------

def test_shift_inverse_and_composition():
    s = make_shift(1)
    assert multiply(s, adjoint(s)) == identity()
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


@pytest.mark.parametrize("pair", ["storage", "sparse-patch"])
def test_multiply_matches_dense_oracle_beyond_haar_patches(rng, pair):
    for _ in range(12):
        if pair == "storage":
            a, b = (random_storage_operator(rng, rng.integers(0, 2) == 0) for _ in "ab")
        else:
            a, b = SPARSE_PATCH, random_operator(rng, end_periodic=rng.integers(0, 2) == 0)
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
    assert adjoint(identity()) == identity()
    assert adjoint(make_shift(1)) == make_shift(-1)
    phase = make_periodic(1, 0, [(0, 0, np.exp(0.3j))])
    assert adjoint(phase) == make_periodic(1, 0, [(0, 0, np.exp(-0.3j))])


def test_adjoint_involution(rng):
    for _ in range(8):
        op = random_operator(rng, end_periodic=rng.integers(0, 2) == 0)
        assert adjoint(adjoint(op)) == op


def test_adjoint_transposes_dense(rng):
    op = random_operator(rng, end_periodic=True)
    w = 12
    assert np.allclose(dense_window(adjoint(op), -w, w),
                       dense_window(op, -w, w).conj().T, atol=1e-14)


# -- unitarity residual ------------------------------------------------------------------

def test_unitarity_examples(rng):
    assert unitarity_residual(make_shift(1)) <= 1e-12
    assert unitarity_residual(delta_embed(haar_unitary(3, rng), 0)) <= 1e-10
    half = make_periodic(1, 0, [(0, 0, 0.5)])
    assert abs(unitarity_residual(half) - 0.75) <= 1e-12


def test_adjoint_inverse_property(rng):
    for _ in range(8):
        op = random_operator(rng, end_periodic=rng.integers(0, 2) == 0)
        assert unitarity_residual(multiply(op, adjoint(op))) <= 1e-9


# -- corners -----------------------------------------------------------------------------

def test_corner_data_identity_empty():
    cd = corner_data(identity())
    assert cd.size == 0
    assert cd.minus_plus.size == 0 and cd.plus_minus.size == 0


def test_corner_data_shift():
    cd = corner_data(make_shift(1))
    assert cd.size == 1
    assert cd.minus_plus[0, 0] == 1.0
    assert np.all(cd.plus_minus == 0)


def test_corner_data_shift_three():
    cd = corner_data(make_shift(3))
    assert np.count_nonzero(cd.minus_plus) == 3
    assert np.all(cd.plus_minus == 0)
    assert float(np.sum(np.abs(cd.minus_plus) ** 2)) == 3.0


def test_corner_data_covers_all_crossings(rng):
    op = random_operator(rng, end_periodic=True)
    cd = corner_data(op)
    k = cd.size
    w = 3 * (k + 1)
    for i in range(-w, 0):
        for j in range(0, w):
            expected = op.entry(i, j)
            got = cd.minus_plus[k + i, j] if (-k <= i and j < k) else 0j
            assert got == expected


# -- state application ----------------------------------------------------------------------

def test_apply_examples():
    psi = StateVector({0: 0.6, 2: 0.8j})
    assert apply_state(identity(), psi).amplitudes == psi.amplitudes
    assert apply_state(make_shift(1), StateVector.delta(0)).support() == (-1,)
    swap = delta_embed(SWAP, 0)
    assert apply_state(swap, StateVector.delta(0)).support() == (1,)


def test_apply_norm_preserved(rng):
    psi = StateVector({-2: 0.5, 0: 0.5j, 3: -0.70710678})
    for _ in range(6):
        op = random_operator(rng, end_periodic=rng.integers(0, 2) == 0)
        assert abs(apply_state(op, psi).norm() - psi.norm()) <= 1e-9


def test_apply_far_from_patch_uses_background(rng):
    op = multiply(embed_finite(haar_unitary(4, rng)), make_shift(1))
    far = apply_state(op, StateVector.delta(1000))
    assert far.support() == (999,)
    assert abs(far[999] - 1.0) <= 1e-12


def test_entry_scan_window_is_sufficient(rng):
    # max_entry_difference must bound disagreement far outside its scan window
    a = random_operator(rng, end_periodic=True)
    b = random_operator(rng, end_periodic=True)
    reported = max_entry_difference(a, b)
    w = 60
    dense_gap = float(np.max(np.abs(dense_window(a, -w, w) - dense_window(b, -w, w))))
    assert dense_gap <= reported + 1e-15


def test_apply_matches_dense(rng):
    op = random_operator(rng, end_periodic=True)
    w = 16
    vec = np.zeros(2 * w, dtype=complex)
    psi = StateVector({-1: 0.3, 2: -0.4j, 5: 1.0})
    for i, v in psi.amplitudes.items():
        vec[w + i] = v
    out = dense_window(op, -w, w) @ vec
    result = apply_state(op, psi)
    for i in range(-w // 2, w // 2):
        assert abs(result[i] - out[w + i]) <= 1e-12


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


@given(storage_operators(unsigned_zero_values))
@settings(max_examples=80)
def test_products_with_identity_serialize_as_mapping_built(op):
    # the product rebuilds the same entries through the array path
    text = serialize_operator(op)
    assert serialize_operator(multiply(op, identity())) == text
    assert serialize_operator(multiply(identity(), op)) == text


@given(storage_operators())
@settings(max_examples=80)
def test_double_adjoint_serializes_as_mapping_built(op):
    assert serialize_operator(adjoint(adjoint(op))) == serialize_operator(op)


@given(st.integers(1, 3).flatmap(lambda half: st.lists(
    values, min_size=4 * half * half, max_size=4 * half * half)))
@settings(max_examples=60)
def test_embed_finite_matches_mapping_storage(flat):
    size = int(np.sqrt(len(flat)))
    m, half = np.array(flat, dtype=complex).reshape(size, size), size // 2
    mapped = EndPeriodicOperator(identity(), half, {
        (r - half, c - half): m[r, c] for r in range(size) for c in range(size)})
    assert serialize_operator(embed_finite(m)) == serialize_operator(mapped)
