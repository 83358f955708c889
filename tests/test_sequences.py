"""Exact-arithmetic tests for eventually periodic sequences and the
shift-coinvariant algebra.  Expected values are frozen from unrolling the
defining formulas by hand; window checks compare against direct evaluation."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fpu.errors import ValidationError
from fpu.sequences import (EventuallyPeriodicSeq, ZERO, alpha_map, alternating,
                           beta_interleave, coinv_equal, constant, delta,
                           divide_class, in_image_one_minus_s, _window)

from conftest import exact_window, seq_equal_on_window

values = st.integers(min_value=-9, max_value=9)


@st.composite
def seqs(draw):
    return EventuallyPeriodicSeq(
        draw(st.lists(values, min_size=1, max_size=4)),
        draw(st.integers(-6, 6)),
        draw(st.lists(values, min_size=0, max_size=6)),
        draw(st.lists(values, min_size=1, max_size=4)))


@st.composite
def forms(draw):
    """Raw (left, offset, core, right) data in forms the constructor rewrites:
    tails that repeat a shorter word, cores that continue either tail, and a
    right tail that starts like the left one, so the empty core's boundary has
    room to move."""
    small = st.integers(-2, 2)
    word = draw(st.lists(small, min_size=1, max_size=3))
    other = draw(st.one_of(st.lists(small, min_size=1, max_size=3),
                           st.lists(small, max_size=2).map(lambda extra: word + extra)))
    left, right = word * draw(st.integers(1, 3)), other * draw(st.integers(1, 3))
    core = ((left * 6)[:draw(st.integers(0, 6))] + draw(st.lists(small, max_size=3))
            + (right * 6)[6 * len(right) - draw(st.integers(0, 6)):])
    return left, draw(st.integers(-6, 6)), core, right


# -- evaluation and canonical form --------------------------------------------

def test_eval_constant_far_out():
    assert constant(1).at(10 ** 6) == 1
    assert constant(1).at(-10 ** 6) == 1


def test_eval_delta():
    d = delta()
    assert d.at(0) == 1
    assert d.at(5) == 0
    assert d.at(-1) == 0


def test_eval_alternating_left_tail():
    a = alternating(1)
    assert a.at(-3) == -1
    assert a.at(0) == 1
    assert a.at(2) == 1


def test_validation_empty_tails():
    with pytest.raises(ValidationError):
        EventuallyPeriodicSeq([], 0, [1], [0])
    with pytest.raises(ValidationError):
        EventuallyPeriodicSeq([0], 0, [1], [])


def test_constructor_takes_integers_only():
    # a float or a string is neither truncated nor parsed
    with pytest.raises(ValidationError, match="^expected an integer, got 1.7$"):
        EventuallyPeriodicSeq([1.7], 0, ["5"], [0])
    with pytest.raises(ValidationError, match="^expected an integer, got '5'$"):
        EventuallyPeriodicSeq([1], 0, ["5"], [0])
    with pytest.raises(ValidationError, match="^expected an integer, got 2.0$"):
        EventuallyPeriodicSeq([1], 2.0, [5], [0])
    # numpy integers and bools are stored as exact Python ints
    a = EventuallyPeriodicSeq(np.array([1, 2], dtype=np.int64), np.int64(-3),
                              [True, np.int32(7)], (np.uint8(4), False))
    assert a == EventuallyPeriodicSeq([1, 2], -3, [1, 7], [4, 0])
    assert {type(v) for v in (a.offset, *a.left, *a.core, *a.right)} == {int}
    with pytest.raises(AttributeError, match="^EventuallyPeriodicSeq is immutable$"):
        a.offset = 0
    assert a.__eq__((1, 2)) is NotImplemented and a != (1, 2)


A = EventuallyPeriodicSeq([1, 2], -3, [5, 6, 7], [0])
FLOAT_ARGUMENTS = {
    "scale": lambda: A.scale(1.7),
    "block_sum": lambda: A.block_sum(2.9),
    "shift": lambda: A.shift(1.5),
    "divide_class": lambda: divide_class(A, 2.5),
    "exact_div": lambda: A.exact_div(2.0),
}


@pytest.mark.parametrize("call", FLOAT_ARGUMENTS.values(), ids=FLOAT_ARGUMENTS)
def test_integer_arguments_refuse_a_float(call):
    # the float is neither truncated nor rounded
    with pytest.raises(ValidationError, match="^expected an integer, got [0-9.]+$"):
        call()


@pytest.mark.parametrize("n", [np.int64(1), True], ids=["int64", "bool"])
def test_integer_arguments_take_numpy_integers_and_bools(n):
    assert A.scale(n) == A.scale(1) == A
    assert A.block_sum(n) == A and A.exact_div(n) == A
    assert A.shift(n) == A.shift(1)
    assert divide_class(A, n) == divide_class(A, 1)


def test_exact_div_by_zero_is_a_validation_error():
    with pytest.raises(ValidationError, match="^divisor must be nonzero$"):
        A.exact_div(0)


@given(seqs())
@settings(max_examples=80)
def test_canonical_form_is_representation_independent(a):
    # rebuild from a padded, non-minimal representation of the same values
    lo, hi = a.offset - 3, a.core_end + 5
    padded = EventuallyPeriodicSeq(
        [a.at(j) for j in range(lo - 2 * len(a.left), lo)],
        lo,
        [a.at(j) for j in range(lo, hi)],
        [a.at(j) for j in range(hi, hi + 2 * len(a.right))])
    assert padded == a
    assert hash(padded) == hash(a)


@given(seqs(), seqs())
@settings(max_examples=60)
def test_equality_matches_pointwise_agreement(a, b):
    assert (a == b) == seq_equal_on_window(a, b)


WINDOWS = ["inside the core", "across both tails", "far left", "far right"]


@given(st.one_of(seqs().map(lambda a: (a.left, a.offset, a.core, a.right)), forms()),
       st.sampled_from(WINDOWS), st.data())
@settings(max_examples=300)
def test_window_reads_what_at_gives(form, kind, data):
    # a window is read from the canonical form and, as canonicalization reads
    # it, from the given form; at() is the oracle for both
    off, end = form[1], form[1] + len(form[2])
    if kind == "inside the core":
        lo = data.draw(st.integers(off, end))
        hi = data.draw(st.integers(lo, end))
    elif kind == "across both tails":
        lo = data.draw(st.integers(off - 15, off - 1))
        hi = data.draw(st.integers(end + 1, end + 15))
    else:
        lo = data.draw(st.integers(-15, 15)) + (off - 10 ** 12 if kind == "far left"
                                                 else end + 10 ** 12)
        hi = lo + data.draw(st.integers(0, 30))
    a = EventuallyPeriodicSeq(*form)
    expected = [a.at(j) for j in range(lo, hi)]
    assert list(a.window(lo, hi)) == expected
    left, offset, core, right = form
    assert list(_window(tuple(left), offset, tuple(core), tuple(right), lo, hi)) == expected


def test_canonical_boundary_slide():
    # left continuation (period 2) and right continuation (period 3) agree on
    # [0, 2), so the empty core boundary can sit anywhere in [0, 2]; the
    # canonical form pins it, and every sliding representation collapses to it
    base = EventuallyPeriodicSeq([1, 2], 0, [], [1, 2, 9])
    slid_one = EventuallyPeriodicSeq([2, 1], 1, [], [2, 9, 1])
    slid_two = EventuallyPeriodicSeq([1, 2], 2, [], [9, 1, 2])
    assert slid_one == base
    assert slid_two == base
    assert seq_equal_on_window(slid_two, base)
    assert base.offset == 0 and base.core == ()


@given(forms())
@example(([1, 2], -1, [], [1, 2, 9]))  # both continuations agree on [-1, 1)
@example(([0], 0, [1], [0]))
@settings(max_examples=300)
def test_canonical_form_picks_the_pinned_representative(form):
    # minimal tails; a core that leaves both tails at its ends; an empty core's
    # boundary as near 0 as the tails allow, and at 0 for a periodic sequence
    a = EventuallyPeriodicSeq(*form)
    left, core, right = a.left, a.core, a.right
    # the library's own constructor takes the same tuples to the same form
    b = EventuallyPeriodicSeq._of(tuple(form[0]), form[1], tuple(form[2]), tuple(form[3]))
    assert (b.left, b.offset, b.core, b.right) == (left, a.offset, core, right)
    for word in (left, right):
        assert all(word[d:] + word[:d] != word for d in range(1, len(word)))
    if core:
        assert core[0] != left[0] and core[-1] != right[-1]
    elif left == right:
        assert a.offset == 0
    else:
        assert a.offset <= 0 or left[-1] != right[-1]
        assert a.offset >= 0 or left[0] != right[0]


# -- group operations ----------------------------------------------------------

def test_add_delta_delta():
    assert delta().add(delta()) == EventuallyPeriodicSeq([0], 0, [2], [0])


def test_scale_constant():
    assert constant(1).scale(3) == constant(3)


def test_sub_self_is_zero():
    assert alternating(1).sub(alternating(1)) == ZERO


@given(seqs(), seqs())
@settings(max_examples=60)
def test_pointwise_ops_window(a, b):
    total = a.add(b)
    diff = a.sub(b)
    for j in exact_window(a, b, total, diff):
        assert total.at(j) == a.at(j) + b.at(j)
        assert diff.at(j) == a.at(j) - b.at(j)


# -- shift ----------------------------------------------------------------------

def test_shift_examples():
    assert delta().shift(1) == delta(-1)
    assert constant(1).shift(17) == constant(1)
    assert alternating(1).shift(1) == alternating(-1)


@given(seqs(), st.integers(-7, 7))
@settings(max_examples=60)
def test_shift_window_and_roundtrip(a, k):
    r = a.shift(k)
    for j in exact_window(a, r):
        assert r.at(j) == a.at(j + k)
    assert r.shift(-k) == a


# -- one_minus_s -----------------------------------------------------------------

def test_one_minus_s_constant():
    assert constant(5).one_minus_s() == ZERO


def test_one_minus_s_step_gives_delta():
    step = EventuallyPeriodicSeq([0], 1, [], [-1])  # -1 for j >= 1, else 0
    assert step.one_minus_s() == delta()


def test_one_minus_s_delta():
    assert delta().one_minus_s() == EventuallyPeriodicSeq([0], -1, [-1, 1], [0])


# -- block_sum -------------------------------------------------------------------

def test_block_sum_examples():
    assert constant(1).block_sum(3) == constant(3)
    assert alternating(1).block_sum(2) == ZERO
    assert delta().block_sum(2) == delta()


@given(seqs(), st.integers(1, 5))
@example(EventuallyPeriodicSeq([1], 3, [2, 5, 7, -3], [4]), 3)  # a boundary at the core's start
@example(EventuallyPeriodicSeq([1], 1, [2, 5, 7], [4]), 2)  # one just past its end
@example(EventuallyPeriodicSeq([1, 0], 1, [2, 5], [4, -1]), 5)  # a block longer than the core
@example(EventuallyPeriodicSeq([1], 3, [], [2]), 2)  # an empty core between boundaries
@example(EventuallyPeriodicSeq([1], 3, [], [2]), 3)  # an empty core on a boundary
@example(EventuallyPeriodicSeq([2, -1], -2001, [3, 0, 4], [5]), 4)  # a far negative offset
@settings(max_examples=60)
def test_block_sum_window(a, n):
    r = a.block_sum(n)
    for i in exact_window(a, r):
        assert r.at(i) == sum(a.at(n * i + t) for t in range(n))


def test_block_sum_rejects_zero():
    with pytest.raises(ValidationError):
        constant(1).block_sum(0)


@given(seqs(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40)
def test_block_sum_composes(a, m, n):
    # grouping anchored at 0 makes block sums compose multiplicatively
    assert a.block_sum(m).block_sum(n) == a.block_sum(m * n)


# -- alpha and beta ---------------------------------------------------------------

def test_alpha_kernel_on_alternating():
    first, second = alpha_map(alternating(1))
    assert first == ZERO and second == ZERO
    first, second = alpha_map(alternating(-4))
    assert first == ZERO and second == ZERO


def test_alpha_constant():
    assert alpha_map(constant(1)) == (constant(2), constant(-2))


def test_alpha_delta():
    assert alpha_map(delta()) == (delta(), delta().scale(-1))


@given(seqs())
@settings(max_examples=60)
def test_alpha_window(a):
    first, second = alpha_map(a)
    for j in exact_window(a, first, second):
        assert first.at(j) == a.at(2 * j) + a.at(2 * j + 1)
        assert second.at(j) == -a.at(2 * j - 1) - a.at(2 * j)


@given(seqs())
@settings(max_examples=60)
def test_alpha_vanishes_only_on_alternating(a):
    first, second = alpha_map(a)
    is_alt = a == alternating(a.at(0)) if a.at(0) else a == ZERO
    assert (first == ZERO and second == ZERO) == is_alt


def test_beta_examples():
    assert beta_interleave(ZERO, ZERO) == ZERO
    assert beta_interleave(constant(1), constant(-1)) == alternating(1)
    assert beta_interleave(delta(), ZERO) == delta()


@given(seqs(), seqs())
@settings(max_examples=60)
def test_beta_window(a, b):
    r = beta_interleave(a, b)
    for j in exact_window(a, b, r):
        assert r.at(2 * j) == a.at(j)
        assert r.at(2 * j + 1) == b.at(j)


# -- reduce3 -----------------------------------------------------------------------

def test_reduce3_examples():
    assert delta().reduce3() == delta()
    assert constant(1).reduce3() == EventuallyPeriodicSeq([3, 0, 0], 0, [], [3, 0, 0])
    assert ZERO.reduce3() == ZERO


@given(seqs())
@settings(max_examples=60)
def test_reduce3_window_and_class(a):
    r = a.reduce3()
    for j in exact_window(a, r):
        if j % 3 == 0:
            assert r.at(j) == a.at(j) + a.at(j + 1) + a.at(j + 2)
        else:
            assert r.at(j) == 0
    assert coinv_equal(a, r)


# -- membership in Im(1 - S) ---------------------------------------------------------

def test_member_delta_with_witness():
    result = in_image_one_minus_s(delta())
    assert result.member
    assert result.witness == EventuallyPeriodicSeq([0], 1, [], [-1])
    assert result.witness.one_minus_s() == delta()


def test_member_constant_fails():
    result = in_image_one_minus_s(constant(1))
    assert not result.member
    assert result.witness is None


def test_member_alternating_witness_pattern():
    result = in_image_one_minus_s(alternating(1))
    assert result.member
    assert result.witness == beta_interleave(ZERO, constant(-1))
    assert result.witness.at(0) == 0


@given(seqs())
@settings(max_examples=60)
def test_witness_roundtrip(x):
    a = x.one_minus_s()
    result = in_image_one_minus_s(a)
    assert result.member
    assert result.witness.one_minus_s() == a


@given(seqs(), seqs())
@settings(max_examples=60)
def test_quotient_soundness(a, x):
    assert coinv_equal(a, a.add(x.one_minus_s()))
    assert coinv_equal(a, a.shift(1))


def test_coinv_equal_examples():
    assert coinv_equal(delta(), ZERO)
    assert not coinv_equal(constant(1), ZERO)


@given(seqs(), seqs(), st.booleans())
@settings(max_examples=100)
def test_coinv_equal_is_membership_of_the_difference(a, x, same_class):
    # tails of unequal lengths, from one class when same_class
    b = a.add(x.one_minus_s()) if same_class else x
    assume(len(a.left) != len(b.left) or len(a.right) != len(b.right))
    member = in_image_one_minus_s(a.sub(b)).member
    assert coinv_equal(a, b) == coinv_equal(b, a) == member


def test_coinv_equal_reads_only_the_tails():
    # a difference built index by index would span the 10**15 between the cores
    far = EventuallyPeriodicSeq([0], 10 ** 15, [5, -5], [0])
    assert coinv_equal(far, delta()) and not coinv_equal(far, constant(1))
    assert coinv_equal(delta(10 ** 15), delta(-2, 1))


@given(seqs())
@settings(max_examples=60)
def test_image_of_beta_alpha_lands_in_image(a):
    first, second = alpha_map(a)
    assert in_image_one_minus_s(beta_interleave(first, second)).member


# -- division ---------------------------------------------------------------------------

def test_divide_constant_one_by_two():
    w = divide_class(constant(1), 2)
    assert w.b == beta_interleave(constant(1), ZERO)
    assert w.c == beta_interleave(ZERO, constant(1))
    assert constant(1).sub(w.b.scale(2)) == w.c.one_minus_s()


def test_divide_zero():
    w = divide_class(ZERO, 5)
    assert w.b == ZERO and w.c == ZERO


def test_divide_exact_multiple():
    w = divide_class(constant(6), 3)
    assert w.b == constant(2) and w.c == ZERO


def test_scale_and_exact_div_build_what_the_constructor_builds(monkeypatch):
    # their values are ints computed from stored ints, so neither converts them
    # again: with the converter broken they still match the public constructor
    rng = np.random.default_rng(23)
    for _ in range(20):
        left, core, right = (rng.integers(-9, 10, size).tolist()
                             for size in rng.integers([1, 0, 1], [5, 7, 5]))
        a = EventuallyPeriodicSeq(left, int(rng.integers(-6, 7)), core, right)
        ns = (int(rng.integers(-5, 0)), 0, int(rng.integers(1, 6)))
        built = [EventuallyPeriodicSeq([n * v for v in a.left], a.offset,
                                       [n * v for v in a.core], [n * v for v in a.right])
                 for n in ns]
        with monkeypatch.context() as m:
            m.setattr("fpu.sequences._ints", lambda values: 1 / 0)
            for n, b in zip(ns, built):
                assert a.scale(n) == b
                if n:
                    assert b.exact_div(n) == a
            assert a.scale(0) == ZERO


def test_exact_div_rejects_a_remainder():
    assert constant(4).exact_div(2) == constant(2)
    with pytest.raises(ValidationError, match="^sequence is not divisible by 2$"):
        constant(3).exact_div(2)


def test_divide_rejects_nonpositive():
    with pytest.raises(ValidationError):
        divide_class(constant(1), 0)


@given(seqs(), st.integers(1, 7))
@settings(max_examples=80)
def test_divide_identity_bounds(a, n):
    w = divide_class(a, n)
    assert a.sub(w.b.scale(n)) == w.c.one_minus_s()
    stored = w.c.left + w.c.core + w.c.right
    assert all(0 <= v < n for v in stored)
    for j in exact_window(a, w.b):
        assert abs(w.b.at(j)) < abs(a.at(j)) / n + 2


@given(seqs(), st.integers(1, 7))
@settings(max_examples=60)
def test_torsion_free(a, n):
    if in_image_one_minus_s(a.scale(n)).member:
        assert in_image_one_minus_s(a).member


@given(seqs(), seqs(), st.integers(1, 7))
@settings(max_examples=60)
def test_unique_divisibility(b1, x, n):
    # two n-th parts of the same class differ by Im(1 - S)
    b2 = b1.add(x.one_minus_s())
    assert coinv_equal(b1.scale(n), b2.scale(n))
    assert coinv_equal(b1, b2)
