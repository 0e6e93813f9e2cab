import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekrlab import analytics as an
from ekrlab import exact
from ekrlab.errors import DomainError
from oracles import (binom_tail_ge_decimal, brute_force_intersection_probability,
                     chernoff_mult_rescaled, exact_conditional_intersection)


# ---------------------------------------------------------------------------
# q and theta
# ---------------------------------------------------------------------------

def test_q_small_cases_exact():
    assert an.intersection_probability(4, 2) == Fraction(5, 6)
    assert an.intersection_probability(6, 3) == Fraction(19, 20)


def test_q_matches_brute_force_everywhere_small():
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            if math.comb(n, k) > 500:
                continue
            assert an.intersection_probability(n, k) == \
                brute_force_intersection_probability(n, k), (n, k)


def test_q_strictly_below_one_at_boundary():
    for k in (1, 2, 3, 4):
        q = an.intersection_probability(2 * k, k)
        assert 0 < q < 1


def test_q_domain_error_and_degenerate_flag():
    with pytest.raises(DomainError):
        an.intersection_probability(5, 3)


def test_q_float_matches_exact():
    for n, k in [(20, 3), (50, 5), (100, 10)]:
        assert an.intersection_probability(n, k, exact_mode=False) == \
            pytest.approx(float(an.intersection_probability(n, k)), rel=1e-12)


def test_theta_asymptotics_trends():
    # theta ~ exp(-k^2/n) at k = Theta(sqrt(n)); q ~ k^2/n for k << sqrt(n)
    n, k = 10**6, 1000
    theta = 1.0 - an.intersection_probability(n, k, exact_mode=False)
    assert theta == pytest.approx(math.exp(-1.0), rel=5e-3)
    n, k = 10**6, 10
    q = an.intersection_probability(n, k, exact_mode=False)
    assert q == pytest.approx(k * k / n, rel=2e-2)


def test_alpha2_tracks_log_n_over_log_inv_q():
    # the largest-generic-clique scale: alpha2 ~ log n / log(1/q) at scale
    n, k = 2**20, 2**10
    q = an.intersection_probability(n, k, exact_mode=False)
    params = an.ModelParams.from_phi(n, k, 40.0)
    a2 = an.alpha2_from_lambda(float(params.mbar), q, 0.1)
    ref = math.log(n) / -math.log(q)
    assert a2 / ref == pytest.approx(1.0, rel=0.25)


# ---------------------------------------------------------------------------
# Lambda
# ---------------------------------------------------------------------------

def test_lambda_basics():
    assert an.lambda_t(7.3, 0.4, 0) == 1.0
    assert an.lambda_t(Fraction(5), Fraction(1, 3), 0) == 1
    assert an.lambda_t(4, Fraction(1, 2), 3) == Fraction(1, 2)
    assert an.lambda_t(4.0, 0.5, 3) == pytest.approx(0.5)


@given(st.floats(0.5, 1e4), st.floats(0.01, 0.999))
def test_lambda_identities(mbar, q):
    assert an.lambda_t(mbar, q, 0) == 1.0
    assert an.lambda_t(mbar, q, 1) == pytest.approx(mbar, rel=1e-12)


def test_lambda_exact_identities():
    mbar, q = Fraction(37, 3), Fraction(2, 7)
    assert an.lambda_t(mbar, q, 0) == 1
    assert an.lambda_t(mbar, q, 1) == mbar


def test_lambda_signed_not_clamped():
    # t > mbar + 1 flips the falling factorial's sign
    assert an.lambda_t(Fraction(1, 2), Fraction(1, 2), 2) == Fraction(-1, 16)
    assert an.lambda_t(0.5, 0.5, 2) < 0


def test_lambda_prime():
    assert an.lambda_prime_t(9.0, 0.3, 2) == 0.0
    assert an.lambda_prime_t(9.0, 0.3, 0) == 0.0
    assert an.lambda_prime_t(4.0, 0.5, 3) == pytest.approx(0.5)


def test_lambda_peak_examples():
    assert an.lambda_peak(4.0, 0.5) == 1
    assert an.lambda_peak(1.0, 0.999999) == 1  # tie at ratio 1 goes to larger t


def _peak_oracle(mbar, q, t_hi):
    vals = [an.lambda_t(mbar, q, t) for t in range(t_hi + 1)]
    best = max(vals)
    return max(t for t, v in enumerate(vals) if v == best)


def test_lambda_peak_scan_oracle_mbar100():
    assert an.lambda_peak(100.0, 0.99) == _peak_oracle(100.0, 0.99, 200)


def test_lambda_peak_random_pairs():
    rng = np.random.default_rng(20260808)
    for _ in range(100):
        mbar = float(rng.uniform(0.5, 200.0))
        q = float(rng.uniform(0.05, 0.99))
        t0 = an.lambda_peak(mbar, q)
        hi = int(2 * mbar) + 3
        assert t0 == _peak_oracle(mbar, q, hi), (mbar, q)


def test_lambda_unimodal_rise_then_fall():
    mbar, q = 60.0, 0.7
    vals = [an.lambda_t(mbar, q, t) for t in range(int(2 * mbar) + 1)]
    t0 = an.lambda_peak(mbar, q)
    assert all(vals[t] <= vals[t + 1] for t in range(t0))
    assert all(vals[t] >= vals[t + 1] for t in range(t0, len(vals) - 1))


# ---------------------------------------------------------------------------
# alpha / beta
# ---------------------------------------------------------------------------

# Bin(10, 0.1): Pr(>=3) ~ 0.0702 >= 0.02 > Pr(>=4) ~ 0.0128, and
# Pr(>=4) ~ 0.0128 >= 0.005 > Pr(>=5) ~ 0.0016; the float path agrees.
# p's type picks the tails: a Fraction's are exact, a float's are not
TAIL_QUANTILES = [(Fraction(1, 10), Fraction(2, 100), 3),
                  (Fraction(1, 10), Fraction(5, 1000), 4),
                  (0.1, 0.02, 3),
                  (0.1, 0.005, 4)]


@pytest.mark.parametrize("p, level, want", TAIL_QUANTILES,
                         ids=["exact-alpha1", "exact-beta", "float-alpha1", "float-beta"])
def test_alpha1_beta_binomial_examples(p, level, want):
    # alpha1 = max{t : Pr(X >= t) >= level} and beta = min{t : Pr(X > t) <
    # level} are the same quantile; check beta's definition directly too
    assert exact.exact_tails(10, p) == isinstance(p, Fraction)
    t = an.tail_quantile(10, p, level)
    assert t == want
    tail = [float(1 - sum(math.comb(10, j) * Fraction(p) ** j * (1 - Fraction(p)) ** (10 - j)
                          for j in range(s))) for s in range(12)]
    assert tail[t] >= level > tail[t + 1]
    assert min(s for s in range(11) if tail[s + 1] < level) == t


def _quantile_grid(seed, points):
    # M from 10 to 1e26, mean up to 1e5, levels from 1e-300 to 1 - 1e-12
    rng = random.Random(seed)
    for i in range(points):
        M = int(10 ** rng.uniform(1, 26))
        p = 10 ** rng.uniform(-3, math.log10(min(M / 2, 1e5))) / M
        yield M, p, (10 ** rng.uniform(-300, -1), 10 ** rng.uniform(-6, 0),
                     1 - 10 ** rng.uniform(-12, -1))[i % 3]


def test_tail_quantile_matches_the_decimal_oracle():
    # t = tail_quantile(M, p, level) has T(t) >= level > T(t + 1) by a 30-digit
    # decimal sum (T(1) < level at t = 0), on a seeded grid; at (503, 0.19),
    # level 5e-292, the start t0 = M has a pmf that underflows, 1e-363, and
    # the walk down reads its tails afresh until they are in range
    for M, p, level in [(503, 0.19031946052994073, 5.03e-292), *_quantile_grid(36, 60)]:
        t = an.tail_quantile(M, p, level)
        assert t == 0 or binom_tail_ge_decimal(M, p, t, 30) >= Decimal(level), (M, p, level, t)
        assert binom_tail_ge_decimal(M, p, t + 1, 30) < Decimal(level), (M, p, level, t)


def test_tail_quantile_exact_walk_matches_the_definition():
    # Fraction p and levels: the walk's answer is the definition's, read off
    # the exact tails, at levels on, above and below a tail value (ties)
    rng = random.Random(7)
    for _ in range(40):
        M = rng.randint(1, 120)
        p = Fraction(rng.randint(1, 40), 41)
        tails = [exact.binom_tail_ge_exact(M, p, t) for t in range(M + 2)]
        s = rng.randint(1, M)
        for level in (tails[s], tails[s] * Fraction(1001, 1000), tails[s] * Fraction(999, 1000)):
            want = max([t for t in range(1, M + 1) if tails[t] >= level], default=0)
            assert an.tail_quantile(M, p, level) == want, (M, p, level)


@pytest.mark.parametrize("M, p, level", [(10, 0.1, 0.0), (10, 0.1, -1.0), (10, 0.1, math.nan),
                                         (10, Fraction(1, 10), 0), (10, 0.1, 1e-301),
                                         (10**12, 0.5, 0.0)])
def test_tail_quantile_needs_a_positive_level(M, p, level):
    # at level 0 every t qualifies: the old quantile galloped forever; float
    # tails hold no 15 digits below 1e-300
    with pytest.raises(DomainError, match="level"):
        an.tail_quantile(M, p, level)


def test_tail_quantile_degenerate_p_and_levels():
    for p in (0.0, Fraction(0)):
        assert an.tail_quantile(10, p, 1e-9) == 0
    for p in (1.0, Fraction(1)):
        assert an.tail_quantile(10, p, 1) == 10 and an.tail_quantile(10, p, 1.5) == 0
    assert an.tail_quantile(10**20, 1e-19, 2.0) == 0
    # T(1) < 1 for p < 1, where float tails within 1e-16 of 1 round to it;
    # at sigma ~ 1e5 a walk on them ran into the step cap (exit 3)
    assert an.tail_quantile(math.comb(99, 9), 0.007, 1.0) == 0
    assert an.tail_quantile(10, Fraction(1, 10), 1) == 0
    assert an.tail_quantile(10, Fraction(1, 10), Fraction(1, 10**400)) == 10


def test_exact_tails_end_at_the_cutoff():
    # k = 2 makes M = C(n-1, 1) = n - 1: a Fraction p's tails are exact up to
    # M = EXACT_TAIL_CUTOFF and floats one past it, and either way alpha1
    # and beta equal those of the same p as a float
    cutoff = exact.EXACT_TAIL_CUTOFF
    for M, exact_mode in ((cutoff, True), (cutoff + 1, False)):
        tail = exact.binom_tail_ge(M, Fraction(1, 2), M // 2)
        assert isinstance(tail, Fraction if exact_mode else float)
        ab = an.compute_alpha_beta(an.ModelParams.from_p(M + 1, 2, Fraction(1, 2)))
        ab_float = an.compute_alpha_beta(an.ModelParams.from_p(M + 1, 2, 0.5))
        assert (ab.exact, ab_float.exact) == (exact_mode, False)
        assert (ab.alpha1, ab.beta) == (ab_float.alpha1, ab_float.beta)


def test_alpha_beta_degenerate_p0():
    params = an.ModelParams.from_phi(20, 2, 0)
    ab = an.compute_alpha_beta(params)
    assert ab.alpha1 == 0 and ab.beta == 0


def test_alpha_beta_reports_order():
    params = an.ModelParams.from_phi(60, 3, 3.0)
    ab = an.compute_alpha_beta(params)
    assert ab.alpha == max(ab.alpha1, ab.alpha2)
    assert ab.alpha_le_beta == (ab.alpha <= ab.beta)
    assert ab.alpha_le_beta


def test_alpha2_first_crossing():
    params = an.ModelParams.from_phi(60, 3, 3.0)
    q = an.intersection_probability(60, 3, exact_mode=False)
    mbar = float(params.mbar)
    a2 = an.alpha2_from_lambda(mbar, q, params.eps_thr)
    assert an.lambda_t(mbar, q, a2) <= params.eps_thr
    assert all(an.lambda_t(mbar, q, t) > params.eps_thr for t in range(a2))


# ---------------------------------------------------------------------------
# beta*
# ---------------------------------------------------------------------------

def _eta_bisect(phi, L):
    f = lambda x: x - math.sqrt(2.0 * (phi + x / 3.0) * L)
    lo, hi = 0.0, 10.0
    while f(hi) < 0:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("phi,n,psi", [(1e-9, 50, 3.0), (100.0, math.exp(10), 10.0),
                                       (7.5, 1000, math.log(1000))])
def test_beta_star_matches_bisection(phi, n, psi):
    bs = an.beta_star_bound(phi, n, psi)
    eta = _eta_bisect(phi, math.log(n) + math.log(psi))
    assert bs.eta == pytest.approx(eta, abs=1e-9 * max(1.0, eta))
    assert bs.value == math.ceil(phi + bs.eta)
    assert an.chernoff_upper(phi, bs.eta) == pytest.approx(1.0 / (n * psi), rel=1e-9)


def test_beta_star_zero_log_degenerate():
    bs = an.beta_star_bound(3.7, 5, 1 / 5)   # n * psi = 1 -> L = 0
    assert bs.eta == 0.0
    assert bs.value == math.ceil(3.7)


# ---------------------------------------------------------------------------
# Chernoff bounds
# ---------------------------------------------------------------------------

def test_chernoff_closed_forms():
    assert an.chernoff_upper(100, 30) == pytest.approx(math.exp(-900 / 220))
    assert an.chernoff_upper(5, 0) == 1.0
    assert an.chernoff_mult(10, 2) == pytest.approx((math.e / 4) ** 10)


def test_chernoff_mult_relaxed_same_value_and_monotone():
    # the relaxed corollary: chernoff_mult(mu, K) still bounds Pr(X > K mu)
    # when EX = rho <= mu, as the honest rescaled bound shows
    rho, K = 5.0, 2.0
    prev = math.inf
    for mu in (5.0, 7.0, 10.0, 20.0, 50.0):
        honest = chernoff_mult_rescaled(rho, mu, K)
        assert honest <= an.chernoff_mult(mu, K) * (1 + 1e-12)
        assert honest <= prev * (1 + 1e-12)  # decreasing in mu >= rho
        prev = honest
    assert chernoff_mult_rescaled(rho, rho, K) == pytest.approx(an.chernoff_mult(rho, K))


# ---------------------------------------------------------------------------
# perturbed intersection bound
# ---------------------------------------------------------------------------

def test_perturbed_bound_w0_is_q():
    pb = an.perturbed_intersection_bound(10, 2, 0, exact_mode=True)
    assert pb.value == an.intersection_probability(10, 2)
    assert pb.w_in_range


def test_perturbed_bound_dominates_enumeration_formula():
    # all size configurations reachable with n <= 14, k <= 4, |W| <= 3 that
    # satisfy the range condition w log n < n; for k = 1 the bound provably
    # needs w <= n/2 as well (exact algebra: excess w/(n-w) vs allowed 2w/n)
    checked = 0
    for n in range(4, 15):
        for k in range(1, 5):
            if n < 2 * k:
                continue
            for w in range(0, 4):
                pb = an.perturbed_intersection_bound(n, k, w, exact_mode=True)
                if not pb.w_in_range or (k == 1 and 2 * w > n):
                    continue
                for z in range(0, min(w, k) + 1):
                    for b_in_w in range(0, min(w, k) + 1):
                        cond = exact_conditional_intersection(n, k, w, z, b_in_w)
                        assert pb.value >= cond, (n, k, w, z, b_in_w)
                        checked += 1
    assert checked > 300


def _brute_conditional(n, k, W, B, Z):
    # enumerate A over all k-sets with A cap W = Z
    rest_pool = [v for v in range(n) if v not in W]
    hits = total = 0
    for extra in combinations(rest_pool, k - len(Z)):
        A = set(Z) | set(extra)
        total += 1
        hits += bool(A & (set(B) - set(W)))
    return Fraction(hits, total)


def test_perturbed_bound_dominates_set_level_enumeration():
    # (n=10, k=2, |W|=1) and (n=12, k=3, |W|=2), all A cap W values
    for n, k, W in [(10, 2, (0,)), (12, 3, (0, 1))]:
        bound = an.perturbed_intersection_bound(n, k, len(W), exact_mode=True).value
        for B in [tuple(range(1, k + 1)), tuple(range(n - k, n)), tuple(range(0, k))]:
            for zlen in range(0, min(len(W), k) + 1):
                for Z in combinations(W, zlen):
                    cond = _brute_conditional(n, k, W, B, Z)
                    assert bound >= cond, (n, k, W, B, Z)
                    # the size-based formula agrees with raw enumeration
                    cond2 = exact_conditional_intersection(
                        n, k, len(W), len(Z), len(set(B) & set(W)))
                    assert cond2 == cond


def test_perturbed_bound_range_flag():
    pb = an.perturbed_intersection_bound(12, 3, 12, exact_mode=False)
    assert not pb.w_in_range


# ---------------------------------------------------------------------------
# regime parameters
# ---------------------------------------------------------------------------

def test_regime_direct_substitution():
    # log n = 100, q = 1/e: phi* = 1e6, lambda = max{10, 20} = 20, xi = 1/200
    reg = an.regime_from_scalars(100.0, 1 / math.e, alpha=30, phi=50.0, eps=0.1)
    assert reg.phi_star == pytest.approx(1e6)
    assert reg.lam == pytest.approx(20.0)
    assert reg.xi == pytest.approx(1 / 200)
    assert reg.r0 == pytest.approx(50.0 / 200)


def test_regime_gamma_tau_zeta():
    # alpha=30, phi*=60 -> gamma = min{30, 20} = 20, tau = 18, zeta = 200
    log_n = 3.0
    q = math.exp(-log_n**3 / 60.0)   # makes phi* = 60
    reg = an.regime_from_scalars(log_n, q, alpha=30, phi=10.0, eps=0.1)
    assert reg.phi_star == pytest.approx(60.0)
    assert reg.gamma == 20
    assert reg.tau == pytest.approx(18.0)
    assert reg.zeta_cap == pytest.approx(200.0)
    assert reg.gamma <= reg.alpha and reg.gamma <= reg.phi_star / 3
    assert reg.tau < reg.gamma


def test_regime_degenerate_q1():
    with pytest.raises(DomainError, match="degenerate"):
        an.regime_from_scalars(10.0, 1.0, alpha=3, phi=1.0, eps=0.1)


def test_regime_lambda_ge_2_when_log_inv_q_small():
    for q in (0.5, 0.7, 0.9):
        for log_n in (2.0, 10.0, 40.0):
            if -math.log(q) <= log_n:
                reg = an.regime_from_scalars(log_n, q, alpha=5, phi=1.0, eps=0.1)
                assert reg.lam >= 2.0


# ---------------------------------------------------------------------------
# threshold estimate
# ---------------------------------------------------------------------------

def test_threshold_reference_direct():
    assert an.threshold_reference(100.0, 0.5) == pytest.approx(100.0 / math.log(2))


def test_threshold_agrees_with_grid_scan():
    n, k, eps = 30, 3, 0.1
    est = an.threshold_estimate(n, k, eps)
    q = an.intersection_probability(n, k, exact_mode=False)
    # dense grid scan of the same predicate
    grid = np.linspace(0.05, 4 * est.reference, 6000)
    crossing = None
    for phi in grid:
        _, log_abs = an.log_lambda_t(phi * n / k, q, float(phi))
        if log_abs <= math.log(eps):
            crossing = phi
            break
    assert crossing is not None
    step = grid[1] - grid[0]
    assert abs(est.phi0 - crossing) <= step + 1e-9
    # predicate truly flips at phi0
    _, la = an.log_lambda_t((est.phi0 * 1.001) * n / k, q, est.phi0 * 1.001)
    assert la <= math.log(eps)
    _, lb = an.log_lambda_t((est.phi0 * 0.999) * n / k, q, est.phi0 * 0.999)
    assert lb > math.log(eps)


def test_threshold_monotone_predicate_and_reference():
    est = an.threshold_estimate(200, 5, 0.1)
    assert est.phi0 > 0
    assert est.reference == pytest.approx(
        math.log(200) / -math.log(1 - float(an.theta_exact(200, 5))))


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------

def test_model_params_two_views_lossless():
    p = Fraction(3, 700)
    params = an.ModelParams.from_p(50, 4, p)
    assert params.p == p
    assert params.phi == p * math.comb(49, 3)


def test_model_params_validation():
    with pytest.raises(DomainError):
        an.ModelParams.from_phi(6, 3, 1.0)     # n = 2k
    with pytest.raises(DomainError):
        an.ModelParams.from_p(10, 2, 1.5)
    with pytest.raises(DomainError):
        an.ModelParams.from_phi(10, 2, -1.0)
    with pytest.raises(DomainError):
        an.ModelParams.from_phi(10, 2, 1.0, eps_thr=0.0)


def test_model_params_accept_p_1_beyond_float_precision():
    # M = C(255, 9) > 2**53 and float(M) > M: p = 1 made phi = float(M) > M
    M = math.comb(255, 9)
    assert float(M) > M
    assert an.ModelParams.from_p(256, 10, 1.0).p == 1.0
    assert an.ModelParams.from_p(256, 10, 1).p == 1
    for phi in (M + 1, Fraction(2 * M + 1, 2), float(M) * (1 + 2**-52)):
        with pytest.raises(DomainError, match="p > 1"):
            an.ModelParams.from_phi(256, 10, phi)


def test_derive_consistency():
    params = an.ModelParams.from_p(12, 3, Fraction(1, 5))
    d = an.derive(params)
    assert d.exact
    assert d.q + d.theta == 1
    assert d.mbar == params.p * math.comb(12, 3)   # mbar = p C(n,k)
    assert d.qhat >= float(d.q)
    assert d.qhat / float(d.q) - 1 == pytest.approx(
        2 * 9 * d.w / (float(d.q) * 144), rel=1e-12)
    assert d.m0 == pytest.approx(float(d.mbar) + params.psi * math.sqrt(float(d.mbar)))


def test_empirical_na_tail_domination():
    # without-replacement (hypergeometric) sums are negatively associated;
    # their tails must respect the Chernoff forms up to sampling slack
    rng = np.random.Generator(np.random.Philox(20260808))
    n_pop, good, draw, T = 200, 80, 50, 100_000
    x = rng.hypergeometric(good, n_pop - good, draw, size=T)
    mu = draw * good / n_pop
    for lam in (3.0, 6.0, 9.0, 12.0):
        bound = an.chernoff_upper(mu, lam)
        emp = float(np.mean(x > mu + lam))
        slack = 3.0 * math.sqrt(bound * (1 - bound) / T)
        assert emp <= bound + slack, (lam, emp, bound)
    for K in (1.2, 1.5, 2.0):
        bound = an.chernoff_mult(mu, K)
        emp = float(np.mean(x > K * mu))
        slack = 3.0 * math.sqrt(bound * (1 - bound) / T)
        assert emp <= bound + slack
