import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekrlab import exact
from ekrlab.errors import ResourceLimitError
from oracles import binom_tail_ge_decimal, binom_tail_ge_fractions, colex_rank, colex_unrank


def test_falling_and_gen_binom():
    assert exact.falling(5, 3) == 60
    assert exact.falling(5, 0) == 1
    assert exact.gen_binom(5, 2) == 10
    assert exact.gen_binom(Fraction(9, 2), 2) == Fraction(63, 8)
    assert exact.gen_binom(4, 3) == 4
    # signed beyond mbar + 1
    assert exact.gen_binom(Fraction(1, 2), 2) == Fraction(-1, 8)


@pytest.mark.parametrize("n,k", [(12, 6), (25, 5), (30, 4), (18, 9), (200, 1)])
def test_colex_round_trip_full(n, k):
    # every rank, both directions, in colex order
    rank = 0
    for combo in _colex_iter(n, k):
        assert colex_rank(combo) == rank
        assert colex_unrank(rank, k) == combo
        rank += 1
    assert rank == math.comb(n, k)


def _colex_iter(n, k):
    # colex order: sorted by reversed tuple
    for combo in sorted(combinations(range(n), k), key=lambda c: tuple(reversed(c))):
        yield combo


def test_colex_round_trip_large():
    # C(40,5) = 658008 ranks: rank every combo in colex order, unrank a stride
    n, k = 40, 5
    def colex(n_, k_):
        if k_ == 0:
            yield ()
            return
        for top in range(k_ - 1, n_):
            for rest in colex(top, k_ - 1):
                yield rest + (top,)
    rank = 0
    for combo in colex(n, k):
        assert colex_rank(combo) == rank
        if rank % 997 == 0:
            assert colex_unrank(rank, k) == combo
        rank += 1
    assert rank == math.comb(n, k)


@given(st.integers(1, 8), st.data())
def test_colex_round_trip_random(k, data):
    n = data.draw(st.integers(k, 40))
    rank = data.draw(st.integers(0, math.comb(n, k) - 1))
    combo = colex_unrank(rank, k)
    assert len(combo) == k
    assert all(0 <= v for v in combo)
    assert colex_rank(combo) == rank


def test_bits_roundtrip():
    members = (0, 3, 17, 63)
    mask = exact.mask_from(members)
    assert tuple(exact.bits_of(mask)) == members


def _tail_oracle(M, p, t):
    p = Fraction(p)
    return sum(math.comb(M, j) * p**j * (1 - p) ** (M - j) for j in range(t, M + 1))


@pytest.mark.parametrize("M,p", [(10, Fraction(1, 10)), (25, Fraction(3, 7)), (6, Fraction(1, 2))])
def test_binom_tail_exact_matches_enumeration(M, p):
    for t in range(M + 2):
        assert exact.binom_tail_ge_exact(M, p, t) == _tail_oracle(M, p, t)


@pytest.mark.parametrize("M,p,ts", [
    (1, Fraction(1, 3), range(-1, 3)),
    (7, Fraction(2, 5), range(9)),
    (30, Fraction(0.25), range(32)),
    (30, Fraction(0), range(3)),
    (30, Fraction(1), (0, 30, 31)),
    # M = EXACT_TAIL_CUTOFF on each side of the mean, and at it: 15 <= 15.625 < 16,
    # 1 <= 1 < 2, 428 <= 428.57 < 429
    (exact.EXACT_TAIL_CUTOFF, Fraction(1, 64), (15, 16, 40)),
    (exact.EXACT_TAIL_CUTOFF, Fraction(1, 1000), (1, 2)),
    (exact.EXACT_TAIL_CUTOFF, Fraction(3, 7), (428, 429)),
])
def test_binom_tail_exact_matches_fraction_terms(M, p, ts):
    # the integer-numerator sum gives the very Fraction the term-by-term
    # Fraction sum over the same side gave
    for t in ts:
        got = exact.binom_tail_ge_exact(M, p, t)
        assert type(got) is Fraction and got == binom_tail_ge_fractions(M, p, t), t


@pytest.mark.parametrize("M,p", [(10, 0.1), (100, 0.03), (400, 0.3), (50, 0.9)])
def test_binom_tail_float_close(M, p):
    for t in range(0, M + 1, max(1, M // 17)):
        want = float(_tail_oracle(M, Fraction(p).limit_denominator(10**6), t))
        got = exact.binom_tail_ge(M, p, t)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_binom_tail_degenerate():
    assert exact.binom_tail_ge(10, 0.0, 1) == 0.0
    assert exact.binom_tail_ge(10, 0.0, 0) == 1.0
    assert exact.binom_tail_ge(10, 1.0, 10) == 1.0
    assert exact.binom_tail_ge(10, 0.5, 11) == 0.0


def test_binom_tail_at_p_1_beyond_the_poisson_switch():
    # X = M surely; the Poisson sum took ~sqrt(M) steps (calc at p = 1 hung)
    M = math.comb(255, 11)
    assert exact.binom_tail_ge(M, 1.0, M) == 1.0
    assert exact.binom_tail_ge(M, 1.0, M + 1) == 0.0


def test_tail_sums_are_capped():
    # Bin(C(99, 9), 1/2) has sigma ~ 6.6e5: a tail near the mean sums ~9
    # sigma terms, each a Python step, and calc there ran past 30 s
    M = math.comb(99, 9)
    with pytest.raises(ResourceLimitError, match="terms"):
        exact.binom_tail_ge(M, 0.5, M // 2)
    # sigma ~ 1.6e4 needs ~1.4e5 terms: still summed
    assert exact.binom_tail_ge(10**9, 0.5, 5 * 10**8) == pytest.approx(0.5, abs=1e-4)


# ROADMAP item 1's five rows, (n, k, phi) with M = C(n-1, k-1) and t: the
# lgamma start term gave 0.3874, 0.2151, 1.0 and 0.00135 at the last four
TAIL_ROWS = [(60, 6, 30.0, 36), (100, 10, 5.0, 6), (256, 8, 20.0, 24), (256, 9, 50.0, 60),
             (144, 11, 125.9, 151)]


def _tail_grid(seed, points):
    # (M, p, t): M log-uniform on [10, 1e26], the mean Mp log-uniform up to
    # min(M/2, 1e5), t from 6 sigma below the mean to 40 above it
    rng = random.Random(seed)
    for _ in range(points):
        M = int(10 ** rng.uniform(1, 26))
        mu = 10 ** rng.uniform(-3, math.log10(min(M / 2, 1e5)))
        p = mu / M
        t = round(mu + math.sqrt(mu * (1 - p)) * rng.uniform(-6, 40) + rng.uniform(-2, 30))
        yield M, p, max(0, min(M + 1, t))


def test_binom_tail_matches_the_decimal_oracle():
    # relative error <= 1e-9 against a 60-digit decimal sum wherever the
    # tail is at least 1e-300, from M = 10 to C(255, 17) ~ 1.3e26
    cases = [(math.comb(n - 1, k - 1), phi / math.comb(n - 1, k - 1), t)
             for n, k, phi, t in TAIL_ROWS]
    cases += [(math.comb(255, 17), 20 / math.comb(255, 17), t) for t in (1, 16, 20, 40, 200)]
    cases += list(_tail_grid(20261022, 60))
    checked = 0
    for M, p, t in cases:
        want = binom_tail_ge_decimal(M, p, t)
        if want < Decimal("1e-300"):
            continue
        got = exact.binom_tail_ge(M, p, t)
        assert abs(Decimal(got) - want) <= Decimal("1e-9") * want, (M, p, t, got, want)
        checked += 1
    assert checked >= 50


def test_binom_pmf_exact_and_float():
    # a Fraction p's pmf is the exact term; a float's is Loader's, close to
    # the Fraction term of its exact binary value
    for M, p in ((10, Fraction(1, 10)), (25, Fraction(3, 7)), (1, Fraction(1, 2))):
        for j in range(-1, M + 2):
            want = math.comb(M, j) * p**j * (1 - p) ** (M - j) if 0 <= j <= M else 0
            assert exact.binom_pmf(M, p, j) == want
    for M, p in ((10, 0.1), (400, 0.3), (1500, 0.002), (50, 0.9)):
        for j in range(0, M + 1, max(1, M // 23)):
            want = math.comb(M, j) * Fraction(p) ** j * (1 - Fraction(p)) ** (M - j)
            assert exact.binom_pmf(M, p, j) == pytest.approx(float(want), rel=1e-12, abs=1e-300)
    assert [exact.binom_pmf(5, q, j) for q in (0.0, 1.0) for j in (0, 5)] == [1.0, 0.0, 0.0, 1.0]
