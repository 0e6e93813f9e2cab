"""Exact combinatorial kernels shared across the package.

Falling factorials and generalized binomials (exact for int/Fraction
arguments), int-bitset helpers, and the binomial pmf and upper tails:
exact Fractions for a rational p and M <= EXACT_TAIL_CUTOFF (exact_tails),
else floats, by one path from M = 10 to past 1e26 (Loader's pmf at the
boundary term, then a sum of pmf ratios of at most TAIL_TERM_CAP terms).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ResourceLimitError

TAIL_TERM_CAP = 10**6       # the most terms one float tail sums (~9 sigma near the mean), ~0.2 s

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
# Binomial pmf and upper tails Pr(X >= t), X ~ Bin(M, p)
# ---------------------------------------------------------------------------

def exact_tails(M: int, p) -> bool:
    """Whether Bin(M, p)'s pmf and tails are exact Fractions: p int or
    Fraction and M <= EXACT_TAIL_CUTOFF; otherwise they are floats."""
    return isinstance(p, (int, Fraction)) and M <= EXACT_TAIL_CUTOFF


def binom_pmf(M: int, p, j: int):
    """Pr(X = j): a Fraction when exact_tails(M, p), else a float by C.
    Loader's saddle-point form ("Fast and Accurate Computation of Binomial
    Probabilities", 2000; R's dbinom).  Its bd0 terms read the deviation
    d = j - Mp, which, like Mp and Mq, is rounded once from p's exact
    ratio, so no difference of two floats near M is ever taken."""
    if exact_tails(M, p):
        p = Fraction(p)
        return math.comb(M, j) * p**j * (1 - p) ** (M - j) if 0 <= j <= M else Fraction(0)
    p = float(p)
    if not 0 <= j <= M or (p <= 0.0 and j) or (p >= 1.0 and j < M):
        return 0.0
    if j == 0 or j == M:
        return math.exp(M * math.log1p(-p)) if j == 0 else p**M
    a, b = p.as_integer_ratio()
    d = (j * b - M * a) / b
    return math.exp(_stirlerr(M) - _stirlerr(j) - _stirlerr(M - j) - _bd0(j, M * a / b, d)
                    - _bd0(M - j, M * (b - a) / b, -d)) / math.sqrt(2 * math.pi * (j * (M - j) / M))


def _stirlerr(n: int) -> float:
    """log n! - log(sqrt(2 pi n) (n/e)^n): by lgamma below 16, else by five
    terms of its Stirling series, exact to double precision there."""
    if n < 16:
        return math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - math.log(2 * math.pi) / 2
    w = 1.0 / (float(n) * n)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / n


def _bd0(x: int, mu: float, d: float) -> float:
    """x log(x / mu) + mu - x for d = x - mu: where that form cancels, |v| <
    0.1 for v = d / (x + mu), by its series in v through v^17, whose
    remainder is below 1e-17 of it."""
    x = float(x)
    v = d / (x + mu)
    if abs(v) >= 0.1:
        return x * math.log(x / mu) - d
    return d * v + 2 * x * sum(v**i / i for i in range(3, 19, 2))


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


def binom_tail_ge(M: int, p, t: int):
    """Pr(X >= t) for X ~ Bin(M, p): binom_tail_ge_exact when exact_tails(M,
    p), else a float: the smaller side's boundary pmf, at t above the mean
    or t - 1 at or below it, times the sum of the pmf ratios away from it,
    until a term is below 1e-18 of the sum; ResourceLimitError past
    TAIL_TERM_CAP terms."""
    if exact_tails(M, p):
        return binom_tail_ge_exact(M, p, t)
    p = float(p)
    if t <= 0 or t > M or p <= 0.0 or p >= 1.0:     # X = 0 or X = M surely
        return float(t <= 0 or (t <= M and p >= 1.0))
    odds, up = p / (1.0 - p), t > M * p
    j = first = t if up else t - 1
    total = term = 1.0
    for _ in range(TAIL_TERM_CAP):
        if j == (M if up else 0) or term < 1e-18 * total:
            side = binom_pmf(M, p, first) * total
            return min(1.0, side) if up else max(0.0, 1.0 - side)
        term *= (M - j) / (j + 1) * odds if up else j / ((M - j + 1) * odds)
        total += term
        j += 1 if up else -1
    raise ResourceLimitError(f"a tail sum needs more than {TAIL_TERM_CAP} terms")
