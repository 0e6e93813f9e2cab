"""Exact combinatorial kernels shared across the package.

Falling factorials and generalized binomials (exact for int/Fraction
arguments), int-bitset helpers, and binomial/Poisson tail probabilities:
exact Fractions for a rational p and M <= EXACT_TAIL_CUTOFF (exact_tails),
floats otherwise that stay numerically honest from M = 10 up to
astronomically large M, or raise ResourceLimitError: past TAIL_TERM_CAP
summed terms (about 9 standard deviations of them near the mean), or past
POISSON_SWITCH Bernoulli summands with p above POISSON_MAX_P.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ResourceLimitError

# Above this many Bernoulli summands the binomial is computed through its
# Poisson limit, off by at most p in total variation (Le Cam), for p <= 1e-8
# only; every model the samplers' draw cap admits there has p < 5e-9.
POISSON_SWITCH = 10**15
POISSON_MAX_P = 1e-8
TAIL_TERM_CAP = 10**6       # the most terms one float tail sums, ~0.5 s

# Ceiling on M for exact (big-rational) binomial tail summation.
EXACT_TAIL_CUTOFF = 1000


def falling(a, t: int):
    """(a)_t = a (a-1) ... (a-t+1); exact for int/Fraction a, t >= 0."""
    if t < 0:
        raise ValueError("falling factorial needs t >= 0")
    out = 1 if isinstance(a, (int, Fraction)) else 1.0
    for i in range(t):
        out *= a - i
    return out


def gen_binom(a, t: int):
    """Generalized binomial C(a, t) = (a)_t / t! for real or rational a.

    May be negative for non-integer a with t > a + 1; callers that care about
    the sign get it back unclamped.
    """
    f = falling(a, t)
    fact = math.factorial(t)
    if isinstance(f, int):
        return f // fact if f % fact == 0 else Fraction(f, fact)
    return f / fact


def bits_of(mask: int):
    """Iterate set bit positions of a Python-int bitset, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_from(members) -> int:
    out = 0
    for v in members:
        out |= 1 << v
    return out


# ---------------------------------------------------------------------------
# Binomial upper tails Pr(X >= t), X ~ Bin(M, p)
# ---------------------------------------------------------------------------

def binom_tail_ge_exact(M: int, p, t: int) -> Fraction:
    """Exact Pr(X >= t) as a reduced Fraction; intended for small M.

    With p = a/b, every term C(M, j) p^j (1-p)^(M-j) is an integer over
    b^M, so the numerators are summed as ints and divided once."""
    p = Fraction(p)
    if t <= 0:
        return Fraction(1)
    if t > M:
        return Fraction(0)
    if p == 0:
        return Fraction(0)
    if p == 1:
        return Fraction(1)
    a, b = p.numerator, p.denominator
    total = b**M
    # the terms below t when t is at most the mean, else those from t up
    low = t <= M * p
    s = sum(math.comb(M, j) * a**j * (b - a) ** (M - j)
            for j in (range(t) if low else range(t, M + 1)))
    return Fraction(total - s if low else s, total)


def _tail_sum_from(log_start_pmf: float, ratio_fn, first_index: int, last_index, step: int) -> float:
    """Sum pmf terms starting at a boundary term, following a <1 ratio."""
    total = 1.0
    term = 1.0
    j = first_index
    stop = first_index + step * TAIL_TERM_CAP
    while last_index is None or (step > 0 and j < last_index) or (step < 0 and j > last_index):
        if j == stop:
            raise ResourceLimitError(f"a tail sum needs more than {TAIL_TERM_CAP} terms")
        r = ratio_fn(j)
        if r <= 0.0:
            break
        term *= r
        total += term
        j += step
        if term < 1e-18 * total:
            break
    return math.exp(log_start_pmf) * total


def poisson_tail_ge(mean: float, t: int) -> float:
    """Pr(X >= t) for X ~ Poisson(mean)."""
    if t <= 0:
        return 1.0
    if mean <= 0.0:
        return 0.0
    log_pmf = -mean + t * math.log(mean) - math.lgamma(t + 1)
    if t > mean:
        # terms decay going up
        return min(1.0, _tail_sum_from(log_pmf, lambda j: mean / (j + 1), t, None, 1))
    # Pr(X <= t-1), summed downward from its largest term at t-1
    log_pmf_low = -mean + (t - 1) * math.log(mean) - math.lgamma(t)
    low = _tail_sum_from(log_pmf_low, lambda j: j / mean, t - 1, 0, -1)
    return max(0.0, 1.0 - low)


def binom_tail_ge_float(M: int, p: float, t: int, mean: float | None = None) -> float:
    """Pr(X >= t) for X ~ Bin(M, p) in stable floating point.

    Sums the smaller tail side starting from its dominant boundary term, so
    the geometric decay truncates quickly.  Falls back to the Poisson limit
    when M is too large for lgamma.
    """
    if t <= 0:
        return 1.0
    if t > M:
        return 0.0
    if p >= 1.0:        # X = M: no Poisson limit holds, and its sum takes ~sqrt(M) steps
        return 1.0
    if M > POISSON_SWITCH:
        if p > POISSON_MAX_P:
            raise ResourceLimitError(f"no tail of Bin({M}, {p:.4g}): too many summands to sum, "
                                     f"and p > {POISSON_MAX_P} for the Poisson limit")
        # p itself may underflow double precision here; trust the mean
        if mean is None:
            mean = float(M * Fraction(p))
        return poisson_tail_ge(mean, t)
    if p <= 0.0:
        return 0.0
    if mean is None:
        mean = M * p
    lg = math.lgamma
    logp = math.log(p)
    log1mp = math.log1p(-p)

    def log_pmf(j):
        return lg(M + 1) - lg(j + 1) - lg(M - j + 1) + j * logp + (M - j) * log1mp

    odds = p / (1.0 - p)
    if t > mean:
        return min(1.0, _tail_sum_from(log_pmf(t), lambda j: (M - j) / (j + 1) * odds, t, M, 1))
    low = _tail_sum_from(log_pmf(t - 1), lambda j: j / ((M - j + 1) * odds), t - 1, 0, -1)
    return max(0.0, 1.0 - low)


def exact_tails(M: int, p) -> bool:
    """Whether Bin(M, p)'s tails are exact Fractions: p int or Fraction and
    M <= EXACT_TAIL_CUTOFF; otherwise they are floats."""
    return isinstance(p, (int, Fraction)) and M <= EXACT_TAIL_CUTOFF


def binom_tail_ge(M: int, p, t: int, mean: float | None = None):
    """Pr(X >= t) for X ~ Bin(M, p): a Fraction when exact_tails(M, p),
    a float otherwise."""
    if exact_tails(M, p):
        return binom_tail_ge_exact(M, p, t)
    return binom_tail_ge_float(M, float(p), t, mean=mean)
