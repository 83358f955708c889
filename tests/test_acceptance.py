"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned here
and are not configurable; corpora are seeded so every run checks the same
cases.
"""

import pathlib
from contextlib import contextmanager
from math import gcd

import numpy as np
import pytest

from fpu.cli import run_command, serialize_operator
from fpu.errors import NumericalError
from fpu.gnvw import decompose, factor_end_periodic, index, synth_random
from fpu.operators import (EndPeriodicOperator, identity, make_shift,
                           max_entry_difference, multiply, propagation,
                           unitarity_residual)
from fpu.sequences import (EventuallyPeriodicSeq, ZERO, alpha_map, alternating,
                           beta_interleave, coinv_equal, in_image_one_minus_s,
                           divide_class)

from golden_cases import GOLDEN_CASES, resolve_argv

TESTS_DIR = pathlib.Path(__file__).parent
FIXTURES = TESTS_DIR / "fixtures"
GOLDENS = TESTS_DIR / "goldens"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {description}")
        raise
    print(f"criterion {number:2d} PASS: {description}")


def random_seq(rng) -> EventuallyPeriodicSeq:
    def vals(k):
        return [int(v) for v in rng.integers(-9, 10, size=k)]
    return EventuallyPeriodicSeq(vals(int(rng.integers(1, 5))),
                                 int(rng.integers(-6, 7)),
                                 vals(int(rng.integers(0, 7))),
                                 vals(int(rng.integers(1, 5))))


@pytest.fixture(scope="module")
def synth_corpus():
    """200 seeded operators with periods <= 4, blocks <= 4, patches <= 2."""
    rng = np.random.default_rng(1001)
    corpus = []
    for _ in range(200):
        op = synth_random(int(rng.integers(-3, 4)), int(rng.integers(1, 5)),
                          int(rng.integers(1, 5)), int(rng.integers(0, 3)),
                          seed=int(rng.integers(0, 2 ** 32)))
        corpus.append((op, index(op)))
    return corpus


@pytest.fixture(scope="module")
def pair_corpus():
    """100 random pairs with their product reports."""
    rng = np.random.default_rng(2002)
    corpus = []
    for _ in range(100):
        a = synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                         int(rng.integers(1, 4)), int(rng.integers(0, 2)),
                         seed=int(rng.integers(0, 2 ** 32)))
        b = synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                         int(rng.integers(1, 4)), int(rng.integers(0, 2)),
                         seed=int(rng.integers(0, 2 ** 32)))
        corpus.append((a, b, index(a), index(b), index(multiply(a, b))))
    return corpus


def test_criterion_01_shift_index(tmp_path):
    with criterion(1, "op index on S returns 1 exactly; S^k gives k for |k| <= 8"):
        for k in range(-8, 9):
            path = tmp_path / f"shift{k}.op"
            path.write_text(serialize_operator(make_shift(k)))
            result = run_command(["op", "index", str(path), "--porcelain"])
            assert result.exit_code == 0
            lines = dict(line.split(" ", 1) for line in result.stdout.splitlines())
            assert lines["index"] == str(k)
            assert float(lines["deviation"]) <= 1e-12


def test_criterion_02_integrality(synth_corpus):
    with criterion(2, "index deviation <= 1e-8 on 200 seeded operators"):
        assert len(synth_corpus) == 200
        for op, report in synth_corpus:
            assert report.deviation <= 1e-8


def test_criterion_03_additivity(pair_corpus):
    with criterion(3, "ind(UV) = ind(U) + ind(V) exactly on 100 pairs"):
        assert len(pair_corpus) == 100
        for a, b, ra, rb, rab in pair_corpus:
            assert rab.rounded == ra.rounded + rb.rounded


def test_criterion_04_trace_identity(synth_corpus, pair_corpus):
    with criterion(4, "|trace check - raw| <= 1e-8 on every report"):
        reports = [rep for _, rep in synth_corpus]
        for _, _, ra, rb, rab in pair_corpus:
            reports.extend([ra, rb, rab])
        for report in reports:
            assert abs(report.trace_check - report.raw) <= 1e-8


def test_criterion_05_factorization():
    with criterion(5, "50 index-0 operators decompose; decompose(S) rejected"):
        rng = np.random.default_rng(3003)
        shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 4), (4, 1)]
        done = 0
        while done < 50:
            p, b = shapes[int(rng.integers(0, len(shapes)))]
            patch = int(rng.integers(0, 2)) if (p - 1) + (b - 1) <= 2 else 0
            op = synth_random(0, p, b, patch, seed=int(rng.integers(0, 2 ** 32)))
            assert propagation(op) <= 3
            assert op.period <= 4
            result = decompose(op)
            assert result.residual <= 1e-8
            assert result.block_leakage <= 1e-9
            assert unitarity_residual(result.v) <= 1e-9
            assert unitarity_residual(result.w) <= 1e-9
            done += 1
        with pytest.raises(NumericalError, match="nonzero index"):
            decompose(make_shift(1))


def test_criterion_06_end_periodic_splitting():
    with criterion(6, "50 end-periodic operators split and reassemble within 1e-9"):
        rng = np.random.default_rng(4004)
        for _ in range(50):
            op = synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                              int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                              seed=int(rng.integers(0, 2 ** 32)))
            split = factor_end_periodic(op)
            product = multiply(split.finite_part, split.periodic_part)
            assert max_entry_difference(product, op) <= 1e-9
            fin = split.finite_part
            window = fin.patch_radius
            if isinstance(fin, EndPeriodicOperator):
                assert fin.background == identity()
            for i in range(window, window + 2 * fin.period + 2):
                for j in (i - 1, i, i + 1):
                    expected = 1.0 if i == j else 0.0
                    assert abs(fin.entry(i, j) - expected) <= 1e-9
                    assert abs(fin.entry(-i - 1, -j - 1)
                               - (1.0 if i == j else 0.0)) <= 1e-9


def test_criterion_07_divisibility():
    with criterion(7, "a - n*b = (1-S)c exactly with 0 <= c < n, 200 cases"):
        rng = np.random.default_rng(5005)
        for _ in range(200):
            a = random_seq(rng)
            n = int(rng.integers(2, 8))
            w = divide_class(a, n)
            assert a.sub(w.b.scale(n)) == w.c.one_minus_s()
            assert all(0 <= v < n for v in w.c.left + w.c.core + w.c.right)


def test_criterion_08_torsion_freeness():
    with criterion(8, "member(n*a) implies member(a), 100 cases"):
        rng = np.random.default_rng(6006)
        hits = 0
        for trial in range(100):
            if trial % 2:
                a = random_seq(rng)
            else:
                a = random_seq(rng).one_minus_s()  # guaranteed member
            n = int(rng.integers(1, 8))
            if in_image_one_minus_s(a.scale(n)).member:
                hits += 1
                assert in_image_one_minus_s(a).member
        assert hits >= 50  # the implication was actually exercised


def test_criterion_09_mod3_reduction():
    with criterion(9, "a is congruent to its 3-block condensation, 100 cases"):
        rng = np.random.default_rng(7007)
        for _ in range(100):
            a = random_seq(rng)
            assert in_image_one_minus_s(a.sub(a.reduce3())).member
            assert coinv_equal(a, a.reduce3())


def test_criterion_10_alpha_kernel_and_image():
    with criterion(10, "alpha vanishes exactly on alternating; beta(alpha) "
                       "lands in Im(1-S), 100 cases each"):
        rng = np.random.default_rng(8008)
        for trial in range(100):
            if trial % 2:
                a = alternating(int(rng.integers(-9, 10)))
                first, second = alpha_map(a)
                assert first == ZERO and second == ZERO
            else:
                a = random_seq(rng)
                is_alt = a == (alternating(a.at(0)) if a.at(0) else ZERO)
                first, second = alpha_map(a)
                assert (first == ZERO and second == ZERO) == is_alt
        for _ in range(100):
            a = random_seq(rng)
            first, second = alpha_map(a)
            assert in_image_one_minus_s(beta_interleave(first, second)).member


def test_criterion_11_propagation_subadditive():
    with criterion(11, "prop(AB) <= prop(A) + prop(B) on 100 products"):
        rng = np.random.default_rng(9009)
        for _ in range(100):
            a = synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                             int(rng.integers(1, 4)), int(rng.integers(0, 2)),
                             seed=int(rng.integers(0, 2 ** 32)))
            b = synth_random(int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                             int(rng.integers(1, 4)), int(rng.integers(0, 2)),
                             seed=int(rng.integers(0, 2 ** 32)))
            assert propagation(multiply(a, b)) <= propagation(a) + propagation(b)


def test_criterion_12_cli_round_trip_and_determinism(tmp_path):
    with criterion(12, "golden suite over >= 20 fixtures; byte-identical "
                       "porcelain across two seeded runs"):
        fixture_files = sorted(FIXTURES.iterdir())
        assert len(fixture_files) >= 20
        exercised = set()
        for name, argv, expected_code in GOLDEN_CASES:
            result = run_command(resolve_argv(argv, FIXTURES))
            assert result.exit_code == expected_code
            assert result.stdout == (GOLDENS / f"{name}.golden").read_text()
            exercised.update(t for t in argv if t.endswith((".op", ".seq")))
        for path in fixture_files:
            if path.name.startswith("bad_"):
                exercised.add(path.name)  # covered by exit-code tests
        assert len(exercised) >= 20

        transcripts = []
        for tag in ("first", "second"):
            u = tmp_path / f"{tag}.op"
            v = tmp_path / f"{tag}_v.op"
            w = tmp_path / f"{tag}_w.op"
            chunks = []
            for argv in (
                ["op", "synth", "--seed", "2718", "--index", "0", "--period",
                 "2", "--block", "2", "--patch-blocks", "1", "-o", str(u),
                 "--porcelain"],
                ["op", "decompose", str(u), "-o", str(v), str(w), "--porcelain"],
                ["op", "index", str(u), "--porcelain"],
                ["op", "check", str(w), "--porcelain"],
            ):
                result = run_command(argv)
                assert result.exit_code == 0
                chunks.append(result.stdout)
            chunks.extend(p.read_text() for p in (u, v, w))
            transcripts.append("".join(chunks))
        assert transcripts[0] == transcripts[1]
