import math
import tracemalloc

import numpy as np
import pytest

from fpu.cli import run_command
from fpu.operators import Operator
from fpu.sequences import EventuallyPeriodicSeq


def exact_window(*seqs: EventuallyPeriodicSeq) -> range:
    """Index range on which pointwise identities are checked exhaustively:
    three full periods beyond every core on both sides."""
    period = 1
    extent = 4
    for s in seqs:
        for p in (len(s.left), len(s.right)):
            period = period * p // np.gcd(period, p)
        extent = max(extent, abs(s.offset) + len(s.core) + 1)
    w = 3 * period + extent
    return range(-w, w + 1)


def seq_equal_on_window(a: EventuallyPeriodicSeq, b: EventuallyPeriodicSeq) -> bool:
    return all(a.at(j) == b.at(j) for j in exact_window(a, b))


def dense_window(op: Operator, lo: int, hi: int) -> np.ndarray:
    """Dense matrix of the operator over [lo, hi)^2; the brute-force oracle."""
    return np.array([[op.entry(i, j) for j in range(lo, hi)]
                     for i in range(lo, hi)], dtype=complex)


def traced_peak(build):
    """build() and the tracemalloc peak, in bytes, of the call alone."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cost_exponent(make_argv, sizes):
    """The exponent e of a traced peak that grows as size ** e, read from one
    run_command(make_argv(size)) at each of the two sizes, after an untraced
    run that pays the one-time allocations.  Each run must exit 0."""
    peaks = []
    for size in sizes:
        argv = make_argv(size)
        run_command(argv)
        result, peak = traced_peak(lambda: run_command(argv))
        assert (result.exit_code, result.stderr) == (0, ""), argv
        peaks.append(peak)
    return math.log(peaks[1] / peaks[0]) / math.log(sizes[1] / sizes[0])


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
