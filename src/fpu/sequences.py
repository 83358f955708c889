"""Exact integer arithmetic on eventually periodic two-sided sequences.

A sequence a = (a_j), j in Z, is stored as a periodic left tail, an explicit
finite core, and a periodic right tail.  All values are Python ints, so every
operation here is exact; nothing in this module touches floating point.

The module also implements the algebra of the shift coinvariant quotient:
membership in Im(1-S) with an explicit witness, equality of coinvariant
classes, the interleave/split maps between a sequence and its even/odd parts,
and an exact division algorithm producing (b, c) with a - n*b = (1-S)c and
0 <= c_j < n everywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from .errors import ValidationError


def _index(value) -> int:
    """value as an exact Python int: numpy integers and bools convert, a float
    or a string is refused rather than truncated or parsed.  Every integer
    argument of the library, sequence or operator, converts through it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"expected an integer, got {value!r}") from None


def _ints(values: Iterable[int]) -> tuple:
    return tuple(map(_index, values))


def _minimal_period(word: tuple[int, ...]) -> int:
    """Smallest d >= 1 that leaves word unchanged by rotation.  Such a d divides
    len(word), and testing divisors alone keeps a long aperiodic word linear."""
    return next(d for d in range(1, len(word) + 1)
                if len(word) % d == 0 and word[d:] + word[:d] == word)


class EventuallyPeriodicSeq:
    """An eventually periodic Z-indexed integer sequence in canonical form.

    Semantics of the stored data (left, offset, core, right):

      a_j = core[j - offset]                          offset <= j < offset+len(core)
      a_j = right[(j - core_end) % len(right)]        j >= core_end
      a_j = left[(j - offset) % len(left)]            j < offset

    where core_end = offset + len(core).  The constructor canonicalizes, so
    two instances compare equal iff they agree at every index: tail periods
    are minimal, the core is as short as possible, and when the core is empty
    the tail boundary is pinned (clamped toward index 0).
    """

    __slots__ = ("left", "offset", "core", "right")

    def __init__(self, left: Iterable[int], offset: int,
                 core: Iterable[int], right: Iterable[int]):
        self._store(_ints(left), _index(offset), _ints(core), _ints(right))

    @classmethod
    def _of(cls, left: tuple, offset: int, core: tuple,
            right: tuple) -> "EventuallyPeriodicSeq":
        """The sequence of tuples of Python ints the library already holds,
        canonicalized without converting them again."""
        seq = object.__new__(cls)
        seq._store(left, offset, core, right)
        return seq

    def _store(self, left: tuple, offset: int, core: tuple, right: tuple) -> None:
        if not left or not right:
            raise ValidationError("tail period lists must be nonempty")
        lf, off, co, rt = _canonicalize(left, offset, core, right)
        object.__setattr__(self, "left", lf)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "core", co)
        object.__setattr__(self, "right", rt)

    def __setattr__(self, name, value):
        raise AttributeError("EventuallyPeriodicSeq is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def core_end(self) -> int:
        return self.offset + len(self.core)

    def at(self, j: int) -> int:
        """Value a_j."""
        if j >= self.core_end:
            return self.right[(j - self.core_end) % len(self.right)]
        if j >= self.offset:
            return self.core[j - self.offset]
        return self.left[(j - self.offset) % len(self.left)]

    def window(self, lo: int, hi: int) -> tuple:
        """(a_lo, ..., a_{hi-1}), as at() gives them, from slices of the stored data."""
        return _window(self.left, self.offset, self.core, self.right, lo, hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventuallyPeriodicSeq):
            return NotImplemented
        return (self.left == other.left and self.offset == other.offset
                and self.core == other.core and self.right == other.right)

    def __hash__(self):
        return hash((self.left, self.offset, self.core, self.right))

    def __repr__(self):
        return (f"EventuallyPeriodicSeq({list(self.left)}, {self.offset}, "
                f"{list(self.core)}, {list(self.right)})")

    # -- group operations --------------------------------------------------

    def _combine(self, other: "EventuallyPeriodicSeq",
                 op: Callable[[int, int], int]) -> "EventuallyPeriodicSeq":
        lo = min(self.offset, other.offset)
        hi = max(self.core_end, other.core_end)
        pl = lcm(len(self.left), len(other.left))
        pr = lcm(len(self.right), len(other.right))
        w = (lo - pl, hi + pr)
        return from_window(tuple(map(op, self.window(*w), other.window(*w))), lo, pl, pr)

    def add(self, other: "EventuallyPeriodicSeq") -> "EventuallyPeriodicSeq":
        return self._combine(other, operator.add)

    def sub(self, other: "EventuallyPeriodicSeq") -> "EventuallyPeriodicSeq":
        return self._combine(other, operator.sub)

    def scale(self, n: int) -> "EventuallyPeriodicSeq":
        n = _index(n)
        return EventuallyPeriodicSeq._of(tuple([n * v for v in self.left]), self.offset,
                                         tuple([n * v for v in self.core]),
                                         tuple([n * v for v in self.right]))

    def exact_div(self, n: int) -> "EventuallyPeriodicSeq":
        """Divide every value by n; all values must be divisible exactly."""
        n = _index(n)
        if n == 0:
            raise ValidationError("divisor must be nonzero")
        vals = self.left + self.core + self.right
        if any(v % n for v in vals):
            raise ValidationError(f"sequence is not divisible by {n}")
        return EventuallyPeriodicSeq._of(tuple([v // n for v in self.left]), self.offset,
                                         tuple([v // n for v in self.core]),
                                         tuple([v // n for v in self.right]))

    def shift(self, k: int) -> "EventuallyPeriodicSeq":
        """Sequence r with r_j = a_{j+k} (k=1 is the left shift)."""
        return EventuallyPeriodicSeq._of(self.left, self.offset - _index(k),
                                         self.core, self.right)

    def one_minus_s(self) -> "EventuallyPeriodicSeq":
        """a - Sa, i.e. j -> a_j - a_{j+1}."""
        return self.sub(self.shift(1))

    def block_sum(self, n: int) -> "EventuallyPeriodicSeq":
        """r_i = a_{ni} + a_{ni+1} + ... + a_{ni+n-1}, groups anchored at 0."""
        n = _index(n)
        if n < 1:
            raise ValidationError("block size must be >= 1")
        lo = self.offset // n - 1
        hi = -(-self.core_end // n) + 1
        pl = len(self.left) // gcd(n, len(self.left))
        pr = len(self.right) // gcd(n, len(self.right))
        off, end = self.offset, self.core_end
        cl, cc, cr = (list(accumulate(vs, initial=0))
                      for vs in (self.left[::-1], self.core, self.right))

        def partial(x: int) -> int:
            """a's sum over [offset, x), negated below, for x off [offset, core_end]:
            q tail periods plus a part of one."""
            if x < off:
                q, r = divmod(off - x, len(self.left))
                return -q * cl[-1] - cl[r]
            q, r = divmod(x - end, len(self.right))
            return cc[-1] + q * cr[-1] + cr[r]
        # the boundaries n*k from first to last lie in [offset, core_end], one slice
        # of cc; with none, first > core_end and the slice starts past cc's end
        first, last = -(-off // n) * n, end // n * n
        sums = ([partial(x) for x in range(n * (lo - pl), first, n)]
                + cc[first - off:last - off + 1:n]
                + [partial(x) for x in range(last + n, n * (hi + pr) + 1, n)])
        return from_window(tuple(map(operator.sub, sums[1:], sums)), lo, pl, pr)

    def reduce3(self) -> "EventuallyPeriodicSeq":
        """Collapse each 3-block onto its first index: the result carries
        a_{3i}+a_{3i+1}+a_{3i+2} at index 3i and 0 at 3i+1, 3i+2.  The result
        is congruent to a modulo Im(1-S)."""
        lo = 3 * (self.offset // 3 - 1)
        hi = 3 * (-(-self.core_end // 3) + 1)
        pl = lcm(3, len(self.left))
        pr = lcm(3, len(self.right))
        v = self.window(lo - pl, hi + pr)  # starts at a multiple of 3, 3k values long
        r = [0] * len(v)
        r[::3] = map(sum, zip(v[::3], v[1::3], v[2::3]))
        return from_window(r, lo, pl, pr)


# -- canonicalization -------------------------------------------------------

def _canonicalize(left, offset, core, right):
    """Reduce to the canonical representation described on the class, which is
    intrinsic to j -> a_j: minimal tail periods, the maximal agreement of a with
    its two periodic continuations, and a clamped boundary for an empty core."""
    end = offset + len(core)
    dl, dr = _minimal_period(left), _minimal_period(right)
    m = lcm(dl, dr)

    def raw(j):
        if j >= end:
            return right[(j - end) % len(right)]
        if j >= offset:
            return core[j - offset]
        return left[(j - offset) % len(left)]

    # a agrees with its right continuation on [h, inf), its left one on (-inf, l);
    # scanned indices agree already, so a's shift by a period stands in for each
    h, l = end, offset
    while h > offset - m and raw(h - 1) == raw(h - 1 + dr):
        h -= 1
    while l < end + m and raw(l) == raw(l - dl):
        l += 1
    if h == offset - m:  # the m indices below the core agree too: a is periodic
        h = l = 0
    if l >= h:  # empty core: pin the tail boundary toward index 0
        l = h = min(max(h, 0), l)
    # l only rose from offset and h only fell from end: [l, h) slices the core
    return (_window(left, offset, core, right, l - dl, l), l, core[l - offset:h - offset],
            _window(left, offset, core, right, h, h + dr))


def _cycle(word: tuple, start: int, stop: int) -> tuple:
    """(word[start % p], ..., word[(stop - 1) % p]) for p = len(word), () if stop <= start."""
    s, k = start % len(word), max(stop - start, 0)
    return (word * -(-(s + k) // len(word)))[s:s + k]


def _window(left, offset, core, right, lo, hi) -> tuple:
    """(a_lo, ..., a_{hi-1}) for a stored as (left, offset, core, right), in any
    form: each tail cycled and the core sliced."""
    end = offset + len(core)
    return (_cycle(left, lo - offset, min(hi, offset) - offset)
            + core[max(lo - offset, 0):max(hi - offset, 0)]
            + _cycle(right, max(lo, end) - end, hi - end))


def from_window(values: Sequence[int], lo: int, left_len: int,
                right_len: int) -> EventuallyPeriodicSeq:
    """The sequence with values (a_j), j in [lo - left_len, hi + right_len), that the
    caller guarantees left_len-periodic below lo and right_len-periodic from hi on:
    [lo, hi) becomes the core, canonicalized.  hi is implied by len(values).  The
    values are Python ints the library computed, so they are not converted again."""
    values = tuple(values)
    return EventuallyPeriodicSeq._of(values[:left_len], lo, values[left_len:-right_len],
                                     values[-right_len:])


# -- common constructors -----------------------------------------------------

def constant(v: int) -> EventuallyPeriodicSeq:
    return EventuallyPeriodicSeq([v], 0, [], [v])


def delta(j: int = 0, v: int = 1) -> EventuallyPeriodicSeq:
    """Finitely supported sequence with value v at index j, zero elsewhere."""
    return EventuallyPeriodicSeq([0], j, [v], [0])


def alternating(t: int = 1) -> EventuallyPeriodicSeq:
    """(..., t, -t, t, -t, ...) with value t at index 0."""
    return EventuallyPeriodicSeq([t, -t], 0, [], [t, -t])


ZERO = constant(0)


# -- coinvariant algebra -----------------------------------------------------

@dataclass(frozen=True)
class MembershipResult:
    member: bool
    witness: Optional[EventuallyPeriodicSeq]


@dataclass(frozen=True)
class DivisionWitness:
    """Pair (b, c) with a - n*b = (1-S)c exactly and 0 <= c_j < n."""
    b: EventuallyPeriodicSeq
    c: EventuallyPeriodicSeq


def alpha_map(a: EventuallyPeriodicSeq):
    """Split a into ((a_{2j}+a_{2j+1})_j, (-a_{2j-1}-a_{2j})_j).

    The result is (0, 0) exactly when a is alternating with a_0 = -a_1 = ...
    """
    lo = a.offset // 2 - 2
    hi = -(-a.core_end // 2) + 2
    pl = len(a.left) // gcd(2, len(a.left))
    pr = len(a.right) // gcd(2, len(a.right))
    v = a.window(2 * (lo - pl) - 1, 2 * (hi + pr))  # a_{2j-1}, a_{2j}, a_{2j+1} for each j
    return (from_window(tuple(map(operator.add, v[1::2], v[2::2])), lo, pl, pr),
            from_window(tuple(map(operator.neg, map(operator.add, v[::2], v[1::2]))),
                        lo, pl, pr))


def beta_interleave(a: EventuallyPeriodicSeq,
                    b: EventuallyPeriodicSeq) -> EventuallyPeriodicSeq:
    """Interleave: r_{2j} = a_j, r_{2j+1} = b_j."""
    lo = 2 * min(a.offset, b.offset) - 2
    hi = 2 * max(a.core_end, b.core_end) + 2
    pl = 2 * lcm(len(a.left), len(b.left))
    pr = 2 * lcm(len(a.right), len(b.right))
    w, r = ((lo - pl) // 2, (hi + pr) // 2), [0] * (hi + pr - lo + pl)
    r[::2], r[1::2] = a.window(*w), b.window(*w)
    return from_window(r, lo, pl, pr)


def _prefix(a: EventuallyPeriodicSeq, j: int) -> int:
    """Partial sum of a between 0 and j: a_0 + ... + a_{j-1} for j >= 0 and
    -(a_j + ... + a_{-1}) below, so _prefix(a, j + 1) - _prefix(a, j) = a_j."""
    if j >= 0:
        return sum(a.at(k) for k in range(0, j))
    return -sum(a.at(k) for k in range(j, 0))


def in_image_one_minus_s(a: EventuallyPeriodicSeq) -> MembershipResult:
    """Decide a in Im(1-S) and produce a witness c with c - Sc = a.

    Any solution satisfies c_{j+1} = c_j - a_j, so c is forced up to an
    additive constant; it is bounded exactly when the drift over one tail
    period vanishes on both sides.  The witness is anchored at c_0 = 0.
    """
    if sum(a.right) != 0 or sum(a.left) != 0:
        return MembershipResult(False, None)
    pl, pr = len(a.left), len(a.right)
    witness = from_window([-_prefix(a, j) for j in range(a.offset - pl, a.core_end + pr)],
                          a.offset, pl, pr)
    return MembershipResult(True, witness)


def coinv_equal(a: EventuallyPeriodicSeq, b: EventuallyPeriodicSeq) -> bool:
    """Equality of the classes of a and b in the quotient by Im(1-S): the
    membership test of in_image_one_minus_s on a - b, without building it.  The
    drift of a - b over a common tail period vanishes when the tails' means agree."""
    return (sum(a.left) * len(b.left) == sum(b.left) * len(a.left)
            and sum(a.right) * len(b.right) == sum(b.right) * len(a.right))


def divide_class(a: EventuallyPeriodicSeq, n: int) -> DivisionWitness:
    """Divide the class of a by n: find (b, c) with a - n*b = (1-S)c exactly
    and 0 <= c_j < n for all j.

    The two-sided recursion c_0 = 0, c_{j+1} = c_j - a_j + n*b_j with b_j
    chosen to keep c_{j+1} in [0, n) pins c_j = (-prefix_j) mod n, where
    prefix_j is the partial sum of a between 0 and j.  On each tail the
    prefix drifts by a fixed amount per period, so c closes up with period
    (tail period) * n / gcd(drift, n) and b = (a - (1-S)c) / n is exact.
    """
    n = _index(n)
    if n < 1:
        raise ValidationError("divisor must be a positive integer")

    drift_r = sum(a.right) % n
    drift_l = sum(a.left) % n
    pr = len(a.right) * (n // gcd(drift_r, n))
    pl = len(a.left) * (n // gcd(drift_l, n))
    c = from_window([-_prefix(a, j) % n for j in range(a.offset - pl, a.core_end + pr)],
                    a.offset, pl, pr)
    b = a.sub(c.one_minus_s()).exact_div(n)
    return DivisionWitness(b=b, c=c)
