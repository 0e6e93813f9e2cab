"""Closed-form analytics for random k-uniform hypergraphs.

Conventions used throughout (n > 2k, vertices [n]):

    M      = C(n-1, k-1)           edges through a fixed vertex
    phi    = p * M                 expected vertex degree
    mbar   = phi * n / k           expected edge count
    theta  = (n-k)_k / (n)_k       two independent uniform k-sets are disjoint
    q      = 1 - theta             ... or intersect
    Lambda(t) = C(mbar, t) * q^C(t,2)   expected count of "generic" t-cliques
    Lambda'(t) = 0 for t <= 2, else Lambda(t)

plus the degree brackets alpha1 = max{t : Pr(d >= t) >= psi/n} and
beta = min{t : Pr(d > t) < 1/(n psi)} for d ~ Bin(M, p), which are one tail
quantile max{t : Pr(d >= t) >= level} at two levels (tail_quantile: one
tail at a Cornish-Fisher start, then a walk by one), the Chernoff bracket
beta*, the Chernoff-type tail bounds chernoff_upper and chernoff_mult
(valid under negative association), and the small-regime parameters phi*,
gamma, tau, lambda, xi, r0.

Everything here is a pure function of its arguments; exact (big-rational)
arithmetic is used below a size cutoff (exact.exact_tails for the degree
tails) and flagged floats above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError, ResourceLimitError
from . import exact

Number = Union[int, float, Fraction]

# Doubles overflow past this; report such quantities as inf.
_FLOAT_MAX_INT = 2**1023

# Exact big-rational arithmetic is the default while C(n,k) stays below this.
EXACT_SIZE_CUTOFF = 10**6


def _is_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------

def _float_M(n: int, k: int, M: int) -> float:
    """float(M), M = C(n-1, k-1), for a float p = phi / M or phi = p M;
    DomainError past the double range, where it would overflow."""
    if M >= _FLOAT_MAX_INT:
        raise DomainError(f"C(n-1, k-1) at n={n}, k={k} is past the double range: "
                          "a float p = phi / C(n-1, k-1) would overflow")
    return float(M)


@dataclass(frozen=True)
class ModelParams:
    """Everything needed to evaluate the closed forms at one (n, k, phi).

    phi and p are two views of one parameter (p = phi / C(n-1,k-1)); keep phi
    as a Fraction for lossless conversion.  psi defaults to log n, eps_thr is
    the finite-n stand-in for the o(1) tolerances, and c_regime in (0, 1/4)
    fixes eps = 1/4 - c_regime.
    """

    n: int
    k: int
    phi: Number
    psi: float
    eps_thr: float = 0.1
    c_regime: float = 0.15

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be a positive integer")
        if self.n <= 2 * self.k:
            raise DomainError(f"need n > 2k, got n={self.n}, k={self.k}")
        if not 0 < self.psi < math.inf:
            raise DomainError(f"psi must be positive and finite; got {self.psi}")
        if not (0 < self.eps_thr < 1):
            raise DomainError("eps_thr must lie in (0, 1)")
        if not (0 < self.c_regime < 0.25):
            raise DomainError("c_regime must lie in (0, 1/4)")
        if isinstance(self.phi, float) and not math.isfinite(self.phi):
            raise DomainError(f"phi must be finite; got {self.phi}")
        if self.phi < 0:
            raise DomainError("phi must be nonnegative")
        # p-space for a float phi: p = 1 gives phi = float(M), which may exceed M
        if self.phi > self.M and (not isinstance(self.phi, float) or self.p > 1):
            raise DomainError("phi > C(n-1, k-1) means p > 1")

    @classmethod
    def from_phi(cls, n: int, k: int, phi: Number, psi: float | None = None,
                 eps_thr: float = 0.1, c_regime: float = 0.15) -> "ModelParams":
        return cls(n, k, phi, math.log(n) if psi is None else psi, eps_thr, c_regime)

    @classmethod
    def from_p(cls, n: int, k: int, p: Number, psi: float | None = None,
               eps_thr: float = 0.1, c_regime: float = 0.15) -> "ModelParams":
        if p < 0 or p > 1:
            raise DomainError("p must lie in [0, 1]")
        M = math.comb(n - 1, k - 1)
        phi = p * M if isinstance(p, (int, Fraction)) else float(p) * _float_M(n, k, M)
        return cls(n, k, phi, math.log(n) if psi is None else psi, eps_thr, c_regime)

    @property
    def M(self) -> int:
        return math.comb(self.n - 1, self.k - 1)

    @property
    def p(self) -> Number:
        if isinstance(self.phi, (int, Fraction)):
            return Fraction(self.phi, self.M)
        return self.phi / _float_M(self.n, self.k, self.M)

    @property
    def mbar(self) -> Number:
        if isinstance(self.phi, (int, Fraction)):
            return Fraction(self.phi * self.n, self.k)
        return self.phi * self.n / self.k

    @property
    def eps(self) -> float:
        return 0.25 - self.c_regime


# ---------------------------------------------------------------------------
# Intersection probability q and theta
# ---------------------------------------------------------------------------

def theta_exact(n: int, k: int) -> Fraction:
    """theta = (n-k)_k / (n)_k as a reduced fraction."""
    return Fraction(exact.falling(n - k, k), exact.falling(n, k))


def log_theta(n: int, k: int) -> float:
    """log theta via lgamma; safe for very large n, k."""
    lg = math.lgamma
    return 2 * lg(n - k + 1) - lg(n - 2 * k + 1) - lg(n + 1)


def intersection_probability(n: int, k: int, exact_mode: bool = True):
    """q = Pr(two independent uniform k-subsets of [n] intersect) = 1 - theta.

    Requires n >= 2k (a disjoint pair must fit).
    """
    if k < 1 or n < 1:
        raise DomainError("need positive n, k")
    if n < 2 * k:
        raise DomainError(f"n={n} < 2k={2 * k}: disjoint pair impossible (q would be 1)")
    if exact_mode:
        return 1 - theta_exact(n, k)
    # 1 - exp(log_theta) loses precision only when theta ~ 1, i.e. q ~ 0;
    # use expm1 for that.
    return -math.expm1(log_theta(n, k))


# ---------------------------------------------------------------------------
# Lambda(t) and friends
# ---------------------------------------------------------------------------

def lambda_t(mbar: Number, q: Number, t: int):
    """Lambda(t) = C(mbar, t) q^C(t,2) with the generalized binomial.

    mbar may be non-integer; values go negative (not clamped) once
    t > mbar + 1 via the falling factorial.  Exact when both inputs are
    int/Fraction, float otherwise (inf on overflow).
    """
    if t < 0:
        raise DomainError("t must be a nonnegative integer")
    if t == 0:
        return Fraction(1) if _is_exact(mbar, q) else 1.0
    if _is_exact(mbar, q):
        return exact.gen_binom(Fraction(mbar), t) * Fraction(q) ** math.comb(t, 2)
    sign, log_abs = log_lambda_t(float(mbar), float(q), t)
    if sign == 0:
        return 0.0
    try:
        return sign * math.exp(log_abs)
    except OverflowError:
        return sign * math.inf


def log_lambda_t(mbar: float, q: float, t) -> tuple[int, float]:
    """(sign, log |Lambda(t)|); t may be a nonnegative real (gamma form).

    Integer t uses the signed falling factorial; real t requires
    0 <= t <= mbar + 1 so the gamma-function form is positive.
    """
    if q <= 0 or q > 1:
        raise DomainError("q must lie in (0, 1]")
    if isinstance(t, int):
        if t == 0:
            return 1, 0.0
        sign = 1
        log_abs = 0.0
        for i in range(t):
            f = mbar - i
            if f == 0.0:
                return 0, -math.inf
            if f < 0:
                sign = -sign
            log_abs += math.log(abs(f))
        log_abs -= math.lgamma(t + 1)
        return sign, log_abs + math.comb(t, 2) * math.log(q)
    if t < 0 or t > mbar + 1:
        raise DomainError("real-argument form needs 0 <= t <= mbar + 1")
    log_binom = math.lgamma(mbar + 1) - math.lgamma(mbar - t + 1) - math.lgamma(t + 1)
    return 1, log_binom + (t * (t - 1) / 2.0) * math.log(q)


def lambda_prime_t(mbar: Number, q: Number, t: int):
    """Lambda'(t): zero for t <= 2 (cliques that small are always trivial)."""
    if t < 0:
        raise DomainError("t must be a nonnegative integer")
    if t <= 2:
        return Fraction(0) if _is_exact(mbar, q) else 0.0
    return lambda_t(mbar, q, t)


def lambda_peak(mbar: float, q: float) -> int:
    """The unimodal peak t0 = max argmax Lambda(t) over integers t >= 0.

    The ratio Lambda(t)/Lambda(t-1) = ((mbar-t+1)/t) q^(t-1) is decreasing,
    so scan until it first drops below 1; ties (ratio exactly 1) move the
    peak to the larger t.
    """
    if not (0 < q < 1):
        raise DomainError("lambda_peak needs q in (0, 1)")
    if not mbar > 0:
        raise DomainError("lambda_peak needs mbar > 0")
    t = 0
    log_q = math.log(q)
    while True:
        nxt = t + 1
        top = mbar - nxt + 1
        if top <= 0:
            return t
        log_ratio = math.log(top) - math.log(nxt) + (nxt - 1) * log_q
        if log_ratio < 0:
            return t
        t = nxt


# ---------------------------------------------------------------------------
# Degree brackets alpha / beta and the Chernoff beta*
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaBeta:
    """Degree thresholds; alpha = max(alpha1, alpha2) and the checked order."""

    alpha1: int
    alpha2: int
    alpha: int
    beta: int
    alpha_le_beta: bool
    exact: bool  # False on float tails


def tail_quantile(M: int, p, level) -> int:
    """max { t : Pr(Bin(M,p) >= t) >= level }, 0 when Pr(X >= 1) < level,
    on exact or float tails by exact.exact_tails(M, p); DomainError unless
    level > 0 (where every t qualifies) and, on float tails, >= 1e-300.

    One tail T(t0) at a Cornish-Fisher start t0 (z by Abramowitz & Stegun
    26.2.22), then a walk by one with the pmf stepped by its ratio: up while
    T(t+1) = T(t) - pmf(t) >= level, else down, T(t-1) = T(t) + pmf(t-1).
    T is read afresh where a step would lose ten bits to cancellation or
    the pmf is below 1e-300.  Past TAIL_TERM_CAP steps: ResourceLimitError."""
    p = Fraction(p) if exact.exact_tails(M, p) else float(p)
    if not level > 0 or (level < 1e-300 and isinstance(p, float)):
        raise DomainError(f"a tail quantile level must be > 0 (>= 1e-300 on floats); got {level}")
    if p >= 1 or level >= 1:                # X = M surely, or T(1) < 1 <= level
        return M if p >= 1 and level <= 1 else 0
    s = math.sqrt(-2 * math.log(max(level, 1e-300) if level < 0.5 else max(1 - level, 1e-16)))
    z = math.copysign(s - (2.30753 + 0.27061 * s) / (1 + s * (0.99229 + 0.04481 * s)), 0.5 - level)
    mu, q = M * float(p), 1 - float(p)
    t = max(1, min(M, math.floor(mu + 0.5 + z * math.sqrt(mu * q) + (2 * q - 1) * (z * z - 1) / 6)))
    T = anchor = exact.binom_tail_ge(M, p, t)
    f, odds = exact.binom_pmf(M, p, t), p / (1 - p)
    for _ in range(exact.TAIL_TERM_CAP):
        if T >= level:                      # up
            nxt = T - f
            if nxt < anchor / 1024:         # T(M + 1) = 0 is read so too
                nxt = anchor = exact.binom_tail_ge(M, p, t + 1)
            if nxt < level:
                return t
            T, f, t = nxt, f * (M - t) * odds / (t + 1), t + 1
        elif t == 1:
            return 0
        else:                               # down
            t -= 1
            if f > 1e-300:
                f = f * (t + 1) / ((M - t) * odds)
                T += f
            else:
                T, f = exact.binom_tail_ge(M, p, t), exact.binom_pmf(M, p, t)
            if T >= level:
                return t
    raise ResourceLimitError(f"a tail quantile walk needs more than {exact.TAIL_TERM_CAP} steps")


def alpha2_from_lambda(mbar: float, q: float, eps_thr: float) -> int:
    """min { t : Lambda(t) <= eps_thr }, scanning t upward from 0."""
    if not (0 < q < 1):
        raise DomainError("alpha2 needs q in (0, 1)")
    t = 0
    log_eps = math.log(eps_thr)
    while True:
        sign, log_abs = log_lambda_t(mbar, q, t)
        if sign <= 0 or log_abs <= log_eps:
            return t
        t += 1


def compute_alpha_beta(params: ModelParams, q: float | None = None) -> AlphaBeta:
    """alpha1, alpha2, alpha = max of the two, and beta for d_v ~ Bin(M, p).

    alpha1 is the largest t with Pr(d_v >= t) >= psi/n, beta the smallest t
    with Pr(d_v > t) < 1/(n psi), both with the strict/non-strict
    inequalities exactly as stated.  They are one quantile at two levels:
    the tail is decreasing, so Pr(d_v > t) = Pr(d_v >= t + 1) stays at or
    above a level exactly while t + 1 <= tail_quantile(level), and beta is
    tail_quantile(1/(n psi)).  alpha2 is the first t with
    Lambda(t) <= eps_thr.  The tails are exact when exact.exact_tails(M, p),
    floating point otherwise.
    """
    alpha1, beta = _degree_quantile(params, upper=False), degree_beta(params)
    alpha2 = _alpha2(params, q)
    alpha = max(alpha1, alpha2)
    return AlphaBeta(alpha1, alpha2, alpha, beta, alpha <= beta,
                     exact.exact_tails(params.M, params.p))


def _degree_quantile(params: ModelParams, upper: bool) -> int:
    """alpha1 (level psi/n) or, upper, beta (level 1/(n psi)): one tail
    quantile of d_v ~ Bin(M, p)."""
    M, p, n = params.M, params.p, params.n
    psi = Fraction(params.psi) if exact.exact_tails(M, p) else params.psi  # the float, exactly
    return tail_quantile(M, p, 1 / (n * psi) if upper else psi / n)


def _alpha2(params: ModelParams, q: float | None) -> int:
    if q is None:
        q = intersection_probability(params.n, params.k, exact_mode=False)
    return alpha2_from_lambda(float(params.mbar), q, params.eps_thr)


def degree_alpha(params: ModelParams, q: float | None = None) -> int:
    """compute_alpha_beta(params, q).alpha, without beta's tail."""
    return max(_degree_quantile(params, upper=False), _alpha2(params, q))


def degree_beta(params: ModelParams) -> int:
    """compute_alpha_beta(params).beta, without alpha's tail or Lambda scan."""
    return _degree_quantile(params, upper=True)


@dataclass(frozen=True)
class BetaStar:
    """Chernoff upper bracket: beta <= beta* = ceil(phi + eta)."""

    value: int
    eta: float          # chernoff_upper(phi, eta) = 1/(n psi)


def beta_star_bound(phi: float, n: float, psi: float) -> BetaStar:
    """beta* = ceil(phi + eta), eta the positive root of
    x = sqrt(2 (phi + x/3) (log n + log psi))."""
    if phi < 0:
        raise DomainError("phi must be nonnegative")
    L = math.log(n) + math.log(psi)
    if L < 0:
        raise DomainError("need n * psi >= 1")
    eta = L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * phi * L)
    return BetaStar(math.ceil(phi + eta), eta)


# ---------------------------------------------------------------------------
# Chernoff-type tail bounds (valid for negatively associated Bernoullis)
# ---------------------------------------------------------------------------

def chernoff_upper(mu: float, lam: float) -> float:
    """Pr(X > mu + lam) < exp[-lam^2 / (2 (mu + lam/3))]."""
    if mu < 0 or lam < 0:
        raise DomainError("need mu >= 0 and lam >= 0")
    if lam == 0.0:
        return 1.0
    return math.exp(-lam * lam / (2.0 * (mu + lam / 3.0)))


def chernoff_mult(mu: float, K: float) -> float:
    """Pr(X > K mu) < [e^(K-1) K^(-K)]^mu."""
    if mu < 0:
        raise DomainError("need mu >= 0")
    if K <= 1:
        raise DomainError("need K > 1")
    return math.exp(mu * (K - 1 - K * math.log(K)))


# ---------------------------------------------------------------------------
# Perturbed intersection probability (conditioning on a small window W)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbedBound:
    """(1 + 2 k^2 w / (q n^2)) q, with the w << n/log n sanity flag."""

    value: Number
    w_in_range: bool  # w * log n < n


def perturbed_intersection_bound(n: int, k: int, w_size: int,
                                 exact_mode: bool = False) -> PerturbedBound:
    """Upper bound on Pr(A meets B \\ W | A cap W) for |W| <= w_size."""
    if w_size < 0:
        raise DomainError("w_size must be nonnegative")
    q = intersection_probability(n, k, exact_mode=exact_mode)
    if exact_mode:
        value = (1 + Fraction(2 * k * k * w_size, n * n) / q) * q
    else:
        value = (1.0 + 2.0 * k * k * w_size / (q * n * n)) * q
    return PerturbedBound(value, w_size * math.log(n) < n)


# ---------------------------------------------------------------------------
# Small-phi regime parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeParams:
    phi_star: float     # log^3 n / log(1/q)
    alpha: int
    gamma: int          # min{alpha, phi*/3}
    tau: float          # (1 - eps) gamma
    lam: float          # max{sqrt(log n)/log(1/q), 2 sqrt(log n / log(1/q))}
    xi: float           # log(1/q) / (2 log n)
    r0: float           # xi * phi
    zeta_cap: float     # gamma / eps


def regime_from_scalars(log_n: float, q: float, alpha: int, phi: float,
                        eps: float) -> RegimeParams:
    """RegimeParams from the raw ingredients (exposed for direct checks)."""
    if not (0 < q < 1):
        raise DomainError("degenerate: q=1 makes log(1/q) vanish" if q >= 1
                          else "need q > 0")
    log_inv_q = -math.log(q)
    phi_star = log_n ** 3 / log_inv_q
    gamma = int(min(alpha, phi_star / 3.0))
    tau = (1.0 - eps) * gamma
    lam = max(math.sqrt(log_n) / log_inv_q, 2.0 * math.sqrt(log_n / log_inv_q))
    xi = log_inv_q / (2.0 * log_n)
    return RegimeParams(phi_star, alpha, gamma, tau, lam, xi, xi * phi, gamma / eps)


def regime_params(params: ModelParams, alpha: int, q: float | None = None) -> RegimeParams:
    if q is None:
        q = intersection_probability(params.n, params.k, exact_mode=False)
    return regime_from_scalars(math.log(params.n), q, alpha, float(params.phi),
                               params.eps)


# ---------------------------------------------------------------------------
# Derived quantities bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedQuantities:
    M: int
    mbar: Number
    theta: Number
    q: Number
    m0: float           # mbar + psi sqrt(mbar)
    w: float            # max{phi^2 k^2 / n, 6 log n}
    qhat: float         # (1 + 2 k^2 w / (q n^2)) q
    exact: bool


def derive(params: ModelParams) -> DerivedQuantities:
    """All per-parameter scalars; exact q/theta/mbar below the size cutoff."""
    n, k = params.n, params.k
    exact_mode = math.comb(n, k) <= EXACT_SIZE_CUTOFF and _is_exact(params.phi)
    if exact_mode:
        theta = theta_exact(n, k)
        q = 1 - theta
        mbar = params.mbar
    else:
        q = intersection_probability(n, k, exact_mode=False)
        theta = 1.0 - q
        mbar = float(params.mbar)
    phi = float(params.phi)
    mb = float(mbar)
    m0 = mb + params.psi * math.sqrt(mb)
    w = max(phi * phi * k * k / n, 6.0 * math.log(n))
    qhat = (1.0 + 2.0 * k * k * w / (float(q) * n * n)) * float(q)
    return DerivedQuantities(params.M, mbar, theta, q, m0, w, qhat, exact_mode)


# ---------------------------------------------------------------------------
# Threshold estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdEstimate:
    phi0: float       # bisected: least phi with Lambda_phi(phi) <= eps_thr
    reference: float  # log n / log(1/q)


def threshold_reference(log_n: float, q: float) -> float:
    if not (0 < q < 1):
        raise DomainError("degenerate: q=1" if q >= 1 else "need q > 0")
    return log_n / (-math.log(q))


def threshold_estimate(n: int, k: int, eps_thr: float = 0.1,
                       rel_tol: float = 1e-6) -> ThresholdEstimate:
    """Least phi whose expected-degree clique count Lambda_phi(phi) drops to
    eps_thr, by bisection; plus the reference value log n / log(1/q).

    Lambda_phi(t) is evaluated at the real argument t = phi through the
    gamma-function form, so the predicate "Lambda_phi(phi) <= eps_thr" is
    continuous and flips exactly once: false near phi = 0 (Lambda(0) = 1),
    true past the unimodal peak.
    """
    if not (0 < eps_thr < 1):
        raise DomainError("eps_thr must lie in (0, 1)")
    q = intersection_probability(n, k, exact_mode=False)
    if not (0 < q < 1):
        raise DomainError("degenerate: q=1 (log(1/q) vanishes)")
    ratio = n / k  # mbar = phi * ratio
    log_eps = math.log(eps_thr)

    def small_enough(phi: float) -> bool:
        _, log_abs = log_lambda_t(phi * ratio, q, float(phi))
        return log_abs <= log_eps

    lo = 1e-9
    if small_enough(lo):  # degenerate corner: already below at phi ~ 0
        return ThresholdEstimate(lo, threshold_reference(math.log(n), q))
    hi = max(4.0, threshold_reference(math.log(n), q))
    for _ in range(200):
        if small_enough(hi):
            break
        lo = hi
        hi *= 2.0
    else:
        raise DomainError("no threshold found: Lambda_phi(phi) never drops")
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if small_enough(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdEstimate(hi, threshold_reference(math.log(n), q))


# ---------------------------------------------------------------------------
# Flat report (CLI surface)
# ---------------------------------------------------------------------------

def analytics_report(params: ModelParams, t_max: int | None = None) -> dict:
    """Flat JSON-ready dict with paper-symbol field names."""
    d = derive(params)
    ab = compute_alpha_beta(params)
    qf = float(d.q)
    out = {
        "n": params.n,
        "k": params.k,
        "phi": float(params.phi),
        "p": float(params.p),
        "psi": params.psi,
        "eps_thr": params.eps_thr,
        "c_regime": params.c_regime,
        "M": float(d.M) if d.M < _FLOAT_MAX_INT else math.inf,
        "mbar": float(d.mbar),
        "m0": d.m0,
        "theta": float(d.theta),
        "q": qf,
        "w": d.w,
        "qhat": d.qhat,
        "alpha1": ab.alpha1,
        "alpha2": ab.alpha2,
        "alpha": ab.alpha,
        "beta": ab.beta,
        "alpha_le_beta": ab.alpha_le_beta,
    }
    bs = beta_star_bound(float(params.phi), params.n, params.psi) if params.phi > 0 else None
    out["beta_star"] = bs.value if bs else 0
    out["eta"] = bs.eta if bs else 0.0
    if 0 < qf < 1:
        reg = regime_params(params, alpha=ab.alpha, q=qf)
        out.update({
            "phi_star": reg.phi_star,
            "gamma": reg.gamma,
            "tau": reg.tau,
            "lambda": reg.lam,
            "xi": reg.xi,
            "r0": reg.r0,
            "zeta_cap": reg.zeta_cap,
        })
        est = threshold_estimate(params.n, params.k, params.eps_thr)
        out["threshold_phi0"] = est.phi0
        out["threshold_reference"] = est.reference
    if t_max is None:
        t_max = min(max(ab.beta + 2, 8), 64)
    mb = float(d.mbar)
    table = []
    for t in range(t_max + 1):
        lam_val = lambda_t(mb, qf, t) if 0 < qf <= 1 else (1.0 if t == 0 else 0.0)
        table.append(float(lam_val))
    out["lambda_t"] = table
    return out
