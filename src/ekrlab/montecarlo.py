"""Seeded, parallel trial engine for Pr(EKR) and friends.

Contract: trials are independent work items with per-trial Philox substreams
derived from (master seed, trial index), prefixed by the grid index in a
sweep; records are sorted by trial index, so results are byte-identical for
any worker count.  With workers > 1 there is one pool per call; contexts
sent once per worker: a pool initializer installs every grid point's
TrialContext in each worker, and a task carries only its (grid index,
trial) key.  Per-trial resource errors (edge cap, search-node budget) are
recorded in the row and excluded from the estimates with an explicit count,
never fatal.  The node budget is deterministic on purpose; a wall-clock
timeout would break reproducibility.

With the compiled kernel (see _native) a bernoulli or conditioned trial is
one kernel call: Python draws the sample's numbers with numpy
(hypergraph._draws), the kernel dedups, unranks, reads Delta and event R's
pair maxima and runs the searches, and a Hypergraph is built from the
kernel's vertex words only to classify a failing clique.  The independent
sampler, and every trial without the kernel, builds a Hypergraph and a
verifier._Instance instead; that path is the reference, and both give the
same records.

Asymptotic "almost surely" claims are reported as finite-n frequencies with
Wilson intervals and nothing more.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

import numpy as np

from . import _native, analytics, hypergraph, verifier, witnesses
from .analytics import ModelParams
from .errors import DomainError, ResourceLimitError
from .hypergraph import (Hypergraph, _event_r, generator, sample_bernoulli,
                         sample_conditioned, sample_independent)

SCHEMA_VERSION = 1
SAMPLER_MODES = ("bernoulli", "conditioned", "independent")

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Clamped so that lo <= successes/trials <= hi: at 0 and at all successes
    rounding would otherwise leave the interval a step short of its own
    estimate (lo = 0.0 and hi = 1.0 exactly there).
    """
    if trials <= 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


# ---------------------------------------------------------------------------
# Trial records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    seed: int                       # master seed the substream was derived from
    m: int
    Delta: int
    omega: int
    ekr_holds: Optional[bool]       # None on a resource-errored trial
    lambda_of_Delta: float
    lambda_prime_of_Delta: float
    eventR_conjuncts: tuple[bool, bool, bool, bool, bool]
    witness_kind: Optional[str]
    error: Optional[str] = None

    @property
    def decided(self) -> bool:
        return self.error is None


TRIAL_CSV_FIELDS = (
    "trial_index", "seed", "m", "delta", "omega", "ekr_holds",
    "lambda_of_delta", "lambda_prime_of_delta",
    "event_m_window", "event_delta_le_beta", "event_delta_ge_alpha",
    "event_pair_deg_le_8", "event_wx_bounded", "witness_kind", "error",
)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def trial_records_to_csv(records) -> str:
    out = io.StringIO()
    out.write(f"# ekrlab trials schema={SCHEMA_VERSION}\n")
    out.write(",".join(TRIAL_CSV_FIELDS) + "\n")
    for r in records:
        row = (r.trial_index, r.seed, r.m, r.Delta, r.omega, r.ekr_holds,
               r.lambda_of_Delta, r.lambda_prime_of_Delta, *r.eventR_conjuncts,
               r.witness_kind, r.error)
        out.write(",".join(_fmt(v) for v in row) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Witness classification tag
# ---------------------------------------------------------------------------

def classify_witness_kind(H: Hypergraph, witness_indices, params: ModelParams,
                          regime: Optional[analytics.RegimeParams]) -> str:
    """Histogram tag for a failing clique: generic | hm | eventA/B/C | other."""
    idx = list(witness_indices)
    zeta = regime.zeta_cap if regime is not None else len(idx)
    try:
        if witnesses.is_generic_clique(H, idx, zeta):
            return "generic"
    except DomainError:
        return "other"
    # Hilton-Milner shape: a single member B0 missing some vertex x that all
    # other members share, every x-member meeting B0.
    bits = [H.edge_bits[i] for i in idx]
    for x in range(H.n):
        outside = [b for b in bits if not (b >> x) & 1]
        if len(outside) == 1:
            b0 = outside[0]
            if all(b & b0 for b in bits if b is not b0):
                return "hm"
    if regime is not None:
        cls = witnesses.classify_nontrivial_clique(H, idx, regime, params.eps)
        if cls.kind is not None:
            return "event" + cls.kind
    return "other"


WITNESS_KINDS = ("generic", "hm", "eventA", "eventB", "eventC", "other")


# ---------------------------------------------------------------------------
# Single trial
# ---------------------------------------------------------------------------

def _sample(params: ModelParams, mode: str, seed_seq) -> Hypergraph:
    n, k, p = params.n, params.k, float(params.p)
    if mode == "bernoulli":
        return sample_bernoulli(n, k, p, seed_seq)
    if mode == "conditioned":
        return sample_conditioned(n, k, p, seed_seq, psi=params.psi)[0]
    if mode == "independent":
        # coupling model: m ~ Bin(C(n,k), p), then m i.i.d. edges; EKR is
        # decided on the deduplicated family (repeats are o(1) here anyway)
        rng = generator(seed_seq)
        m = int(rng.binomial(math.comb(n, k), p))
        return sample_independent(n, k, m, rng).dedupped()
    raise DomainError(f"unknown sampler mode {mode!r}; pick from {SAMPLER_MODES}")


@dataclass(frozen=True)
class TrialContext:
    """Shared inputs of one grid point's trials, computed once.

    One pool per call; contexts sent once per worker (see _trial_batches)."""

    params: ModelParams
    sampler_mode: str
    master_seed: int
    q: float
    mbar: float
    alpha: int
    beta: int
    regime: Optional[analytics.RegimeParams]
    w_bound: float                  # event R's bound on |W_x| (analytics.derive)
    edge_cap: int = verifier.DEFAULT_EDGE_CAP
    node_budget: int = verifier.DEFAULT_NODE_BUDGET
    stream: tuple[int, ...] = ()    # extra spawn-key prefix (e.g. grid index)

    def __post_init__(self):
        verifier.check_limits(self.edge_cap, self.node_budget)


def make_trial_context(params: ModelParams, sampler_mode: str, seed: int,
                       edge_cap: int = verifier.DEFAULT_EDGE_CAP,
                       node_budget: int = verifier.DEFAULT_NODE_BUDGET,
                       stream: tuple[int, ...] = ()) -> TrialContext:
    if sampler_mode not in SAMPLER_MODES:
        raise DomainError(f"unknown sampler mode {sampler_mode!r}; pick from {SAMPLER_MODES}")
    q = analytics.intersection_probability(params.n, params.k, exact_mode=False)
    ab = analytics.compute_alpha_beta(params, q=q)
    regime = None
    if 0 < q < 1:
        regime = analytics.regime_params(params, alpha=ab.alpha, q=q)
    return TrialContext(params, sampler_mode, seed, q, float(params.mbar), ab.alpha,
                        ab.beta, regime, analytics.derive(params).w, edge_cap, node_budget,
                        stream)


@functools.lru_cache(maxsize=1024)
def _lambdas(mbar: float, q: float, Delta: int) -> tuple[float, float]:
    """(Lambda(Delta), Lambda'(Delta)) as floats, kept per (mbar, q, Delta):
    a grid point's trials share (mbar, q), and Delta takes few values."""
    return (float(analytics.lambda_t(mbar, q, Delta)),
            float(analytics.lambda_prime_t(mbar, q, Delta)))


@functools.lru_cache(maxsize=16)
def _columns(n: int, k: int) -> tuple[np.ndarray, int]:
    """hypergraph._unrank_tables(n, k)'s columns and their address."""
    columns = hypergraph._unrank_tables(n, k)[0]
    return columns, columns.ctypes.data


def _native_trial(lib, ctx: TrialContext, seed_seq):
    """A bernoulli or conditioned trial as one kernel call on the sampler's
    numpy draws: (m, Delta, event R's pair maxima, the verdict or the
    ResourceLimitError that stopped it, the edges' vertex words)."""
    params = ctx.params
    n, k = params.n, params.k
    N, draws = hypergraph._draws(ctx.sampler_mode, n, k, float(params.p), seed_seq,
                                 hypergraph.DEFAULT_ENUM_CAP)
    m = len(draws)
    status, (Delta, _, *maxima, omega, size), clique, words = _native.trial(
        lib, n, k, _columns(n, k), N, draws, floyd=ctx.sampler_mode == "conditioned",
        dense=n < 3 * k, edge_cap=ctx.edge_cap, node_budget=ctx.node_budget)
    try:
        verifier._check_edge_cap(m, ctx.edge_cap)
        _native.check(status)
    except ResourceLimitError as exc:
        return m, Delta, maxima, exc, words
    witness = None
    if size >= 0:       # verifier._max_clique sorts the omega search's clique
        witness = tuple(sorted(clique[:size]) if omega > Delta else clique[:size])
    return m, Delta, maxima, verifier.EkrVerdict(witness is None, omega, Delta, witness), words


def run_one_trial(ctx: TrialContext, trial_index: int) -> TrialRecord:
    """Event R, Delta and the verdict all read one prepared sample.

    With the native kernel a bernoulli or conditioned trial is one
    _native.trial call, and a Hypergraph is built (from the kernel's vertex
    words) only when classify_witness_kind must read a failing clique.
    Otherwise, and for the independent sampler, the sample is one
    Hypergraph and one verifier._Instance; that path is the reference."""
    params = ctx.params
    seed_seq = np.random.SeedSequence(ctx.master_seed,
                                      spawn_key=(*ctx.stream, trial_index))
    lib = _native.kernel()
    if lib and ctx.sampler_mode != "independent":
        m, Delta, maxima, verdict, words = _native_trial(lib, ctx, seed_seq)
        H = None
    else:
        H = _sample(params, ctx.sampler_mode, seed_seq)
        inst = verifier._Instance(H)
        m, Delta, maxima = H.m, inst.Delta, inst.pair_maxima
        try:
            verifier._check_edge_cap(m, ctx.edge_cap)
            verdict = verifier._decide(inst, ctx.node_budget)
        except ResourceLimitError as exc:
            verdict = exc
    conj = _event_r(m, Delta, *maxima, ctx.mbar, params.psi, ctx.w_bound, ctx.alpha, ctx.beta)
    lam, lam_p = _lambdas(ctx.mbar, ctx.q, Delta)
    if isinstance(verdict, ResourceLimitError):
        return TrialRecord(trial_index, ctx.master_seed, m, Delta, -1,
                           None, lam, lam_p, conj, None, str(verdict))
    kind = None
    if not verdict.holds:
        if H is None:
            H = Hypergraph._unchecked(params.n, params.k, _native.edge_bits(words))
        kind = classify_witness_kind(H, verdict.witness, params, ctx.regime)
    return TrialRecord(trial_index, ctx.master_seed, m, Delta,
                       verdict.omega, verdict.holds, lam, lam_p, conj, kind)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # platforms without CPU affinity
        return os.cpu_count() or 1


# Set in each pool worker by its initializer, never in the parent.
_worker_contexts: tuple[TrialContext, ...] = ()


def _install_contexts(contexts: tuple[TrialContext, ...]) -> None:
    global _worker_contexts
    _worker_contexts = contexts


def _run_key(key: tuple[int, int]) -> TrialRecord:
    gi, trial_index = key
    return run_one_trial(_worker_contexts[gi], trial_index)


def _trial_batches(contexts, trials: int, workers: int):
    """Yield each context's records, sorted by trial index, in context order.

    Every (context index, trial) key runs on one pool, whose initializer
    sends the contexts to each worker once; results are consumed lazily, one
    context at a time.  The pool never exceeds the available CPUs or the
    number of keys; with one worker the keys run in this process."""
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    contexts = tuple(contexts)
    workers = min(workers, _available_cpus(), len(contexts) * trials)
    if workers <= 1:
        for ctx in contexts:
            yield [run_one_trial(ctx, i) for i in range(trials)]
        return
    keys = ((gi, t) for gi in range(len(contexts)) for t in range(trials))
    with ProcessPoolExecutor(max_workers=workers, initializer=_install_contexts,
                             initargs=(contexts,)) as pool:
        records = pool.map(_run_key, keys, chunksize=max(1, trials // (8 * workers)))
        for _ in contexts:
            yield sorted(islice(records, trials), key=lambda r: r.trial_index)


def run_trials(params: ModelParams, trials: int, sampler_mode: str, seed: int,
               workers: int = 1, edge_cap: int = verifier.DEFAULT_EDGE_CAP,
               node_budget: int = verifier.DEFAULT_NODE_BUDGET,
               stream: tuple[int, ...] = ()) -> list[TrialRecord]:
    """Execute trials with independent derived seeds; records come back
    sorted by trial index regardless of the execution schedule."""
    ctx = make_trial_context(params, sampler_mode, seed, edge_cap, node_budget, stream)
    (records,) = _trial_batches([ctx], trials, workers)     # drains: pool closed
    return records


# ---------------------------------------------------------------------------
# Sweep tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: int
    k: int
    phi: float
    p: float
    trials: int
    undecided: int
    holds_count: int
    f_hat: float
    wilson_lo: float
    wilson_hi: float
    mean_delta: float
    mean_omega: float
    pr_lambda_prime_gt_eps: float
    witness_counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    eps_thr: float
    seed: int
    sampler_mode: str


def summarize_trials(params: ModelParams, records) -> SweepRow:
    decided = [r for r in records if r.decided]
    n_dec = len(decided)
    holds = sum(1 for r in decided if r.ekr_holds)
    lo, hi = wilson_interval(holds, n_dec)
    wc = {kind: 0 for kind in WITNESS_KINDS}
    for r in decided:
        if r.witness_kind is not None:
            wc[r.witness_kind] = wc.get(r.witness_kind, 0) + 1
    return SweepRow(
        n=params.n, k=params.k, phi=float(params.phi), p=float(params.p),
        trials=len(records), undecided=len(records) - n_dec,
        holds_count=holds,
        f_hat=holds / n_dec if n_dec else math.nan,
        wilson_lo=lo, wilson_hi=hi,
        mean_delta=sum(r.Delta for r in decided) / n_dec if n_dec else math.nan,
        mean_omega=sum(r.omega for r in decided) / n_dec if n_dec else math.nan,
        pr_lambda_prime_gt_eps=(sum(1 for r in decided
                                    if r.lambda_prime_of_Delta > params.eps_thr) / n_dec
                                if n_dec else math.nan),
        witness_counts=wc,
    )


def estimate_ekr_curve(n: int, k: int, phi_grid, trials: int, seed: int,
                       sampler_mode: str = "conditioned", workers: int = 1,
                       psi: float | None = None, eps_thr: float = 0.1,
                       edge_cap: int = verifier.DEFAULT_EDGE_CAP,
                       node_budget: int = verifier.DEFAULT_NODE_BUDGET,
                       c_regime: float = 0.15) -> SweepTable:
    """Every grid point's trials over one trial engine (spawn-key prefix
    (grid index,)); rows are summarized as each point's records arrive and
    emitted in input order."""
    contexts = [
        make_trial_context(ModelParams.from_phi(n, k, float(phi), psi=psi, eps_thr=eps_thr,
                                                c_regime=c_regime),
                           sampler_mode, seed, edge_cap, node_budget, stream=(gi,))
        for gi, phi in enumerate(phi_grid)]
    batches = _trial_batches(contexts, trials, workers)
    # strict: zip then reads the engine to its end, which closes the pool
    rows = tuple(summarize_trials(ctx.params, recs)
                 for ctx, recs in zip(contexts, batches, strict=True))
    return SweepTable(rows, eps_thr, seed, sampler_mode)


SWEEP_CSV_FIELDS = (
    "n", "k", "phi", "p", "trials", "undecided", "holds_count", "f_hat",
    "wilson_lo", "wilson_hi", "mean_delta", "mean_omega",
    "pr_lambda_prime_gt_eps",
) + tuple(f"wk_{kind}" for kind in WITNESS_KINDS)


def sweep_table_to_csv(table: SweepTable) -> str:
    out = io.StringIO()
    out.write(f"# ekrlab sweep schema={SCHEMA_VERSION}\n")
    out.write(",".join(SWEEP_CSV_FIELDS) + "\n")
    for r in table.rows:
        row = [r.n, r.k, r.phi, r.p, r.trials, r.undecided, r.holds_count,
               r.f_hat, r.wilson_lo, r.wilson_hi, r.mean_delta, r.mean_omega,
               r.pr_lambda_prime_gt_eps]
        row += [r.witness_counts.get(kind, 0) for kind in WITNESS_KINDS]
        out.write(",".join(_fmt(v) for v in row) + "\n")
    return out.getvalue()


def sweep_table_to_json(table: SweepTable) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "eps_thr": table.eps_thr,
        "seed": table.seed,
        "sampler_mode": table.sampler_mode,
        "rows": [
            {**{f: getattr(r, f) for f in SWEEP_CSV_FIELDS if not f.startswith("wk_")},
             "witness_counts": r.witness_counts}
            for r in table.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


# ---------------------------------------------------------------------------
# Condition "EKR iff Lambda'(Delta) small": finite-n contingency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NandSSummary:
    """2x2 contingency of (Lambda'(Delta) <= eps_thr) vs (EKR holds)."""

    both: int            # condition true, holds
    cond_only: int       # condition true, fails
    holds_only: int      # condition false, holds
    neither: int         # condition false, fails
    undecided: int
    eps_thr: float

    @property
    def decided(self) -> int:
        return self.both + self.cond_only + self.holds_only + self.neither

    @property
    def agreement_rate(self) -> float:
        d = self.decided
        return (self.both + self.neither) / d if d else math.nan


def estimate_condition_nands(params: ModelParams, trials: int, seed: int,
                             sampler_mode: str = "conditioned",
                             workers: int = 1,
                             node_budget: int = verifier.DEFAULT_NODE_BUDGET) -> NandSSummary:
    records = run_trials(params, trials, sampler_mode, seed, workers=workers,
                         node_budget=node_budget)
    both = cond_only = holds_only = neither = undecided = 0
    for r in records:
        if not r.decided:
            undecided += 1
            continue
        cond = r.lambda_prime_of_Delta <= params.eps_thr
        if cond and r.ekr_holds:
            both += 1
        elif cond:
            cond_only += 1
        elif r.ekr_holds:
            holds_only += 1
        else:
            neither += 1
    return NandSSummary(both, cond_only, holds_only, neither, undecided,
                        params.eps_thr)


# ---------------------------------------------------------------------------
# Law of the maximum degree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaLawReport:
    histogram: dict                  # Delta value -> count
    trials: int
    alpha: int
    alpha2: int
    beta: int
    pr_delta_ge_alpha: float
    pr_delta_ge_alpha_interval: tuple[float, float]
    pr_delta_ge_alpha2: float
    pr_delta_le_beta: float
    pr_delta_le_beta_interval: tuple[float, float]
    flag_le_beta_below_090: bool
    flag_ge_alpha2_below_090: bool


def estimate_delta_law(params: ModelParams, trials: int, seed: int,
                       sampler_mode: str = "conditioned") -> DeltaLawReport:
    """Empirical Pr(Delta >= alpha[,2]) and Pr(Delta <= beta), with flags
    when the desk-scale 0.9 sanity levels are missed (informational)."""
    ab = analytics.compute_alpha_beta(params)
    hist: dict[int, int] = {}
    ge_alpha = ge_alpha2 = le_beta = 0
    for i in range(trials):
        seed_seq = np.random.SeedSequence(seed, spawn_key=(i,))
        H = _sample(params, sampler_mode, seed_seq)
        Delta = verifier._Instance(H).Delta
        hist[Delta] = hist.get(Delta, 0) + 1
        ge_alpha += Delta >= ab.alpha
        ge_alpha2 += Delta >= ab.alpha2
        le_beta += Delta <= ab.beta
    pr_a = ge_alpha / trials if trials else math.nan
    pr_a2 = ge_alpha2 / trials if trials else math.nan
    pr_b = le_beta / trials if trials else math.nan
    return DeltaLawReport(
        histogram=dict(sorted(hist.items())), trials=trials,
        alpha=ab.alpha, alpha2=ab.alpha2, beta=ab.beta,
        pr_delta_ge_alpha=pr_a,
        pr_delta_ge_alpha_interval=wilson_interval(ge_alpha, trials),
        pr_delta_ge_alpha2=pr_a2,
        pr_delta_le_beta=pr_b,
        pr_delta_le_beta_interval=wilson_interval(le_beta, trials),
        flag_le_beta_below_090=pr_b < 0.9,
        flag_ge_alpha2_below_090=pr_a2 < 0.9,
    )
