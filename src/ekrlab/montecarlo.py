"""Seeded, parallel trial engine for Pr(EKR) and friends.

Contract: trials are independent work items with per-trial Philox substreams
derived from (master seed, trial index), prefixed by the grid index in a
sweep; results are sorted by trial index, so they are byte-identical for
any worker count.  With workers > 1 there is one pool per call, and a task
is one _run_batch(ctx, lo, hi): a chunk of trials with its grid point's
TrialContext.  The chunks are guided: each takes a share of the trials
still left, so they shrink toward the end, and none crosses a grid point.
When every chunk is a native batch (below), the pool is threads: a batch
is one ctypes call, which releases the GIL, so the batches run in parallel
in this process with nothing forked or pickled.  Otherwise the chunks run
the Python reference path, which the GIL would serialize on threads, so
the pool is processes, and each task pickles its context (~0.5 KB).  The
kernel is loaded before either pool is made, since the pool's kind depends
on it, so a process pool's workers inherit it and none builds or loads its
own.
A task returns one row per trial (see _run_batch): the kernel's m, Delta,
omega, failing-clique size and status, and for a failing trial its clique
and witness kind.  A sweep summarizes each grid point straight from its
rows (_summarize: integer sums and counts, Lambda'(Delta) once per
distinct Delta) and builds no TrialRecord; run_trials and run_one_trial
build records from the same rows, and summarize_trials turns records back
into rows for the same summarizer.
Per-trial resource errors (edge cap, search-node budget) are recorded in
the row and excluded from the estimates with an explicit count, never
fatal.  The node budget is deterministic on purpose; a wall-clock timeout
would break reproducibility.  The sampler's guard
(hypergraph._check_draws: C(n, k) < 2**63 and at most 10**7 k-sets
enumerated or edges expected) is fatal instead: a run of at least one
trial checks it at every grid point before any point's degree tails are
evaluated or anything is drawn.

With the compiled kernel (see _native) a bernoulli or conditioned grid
point's trials are one kernel call: the kernel seeds and draws each trial's
sample as numpy would, dedups, unranks and decides it.  In a sweep, a trial
that holds costs no Python beyond its kernel row; for a sweep and for
records alike, a Hypergraph is built from a trial's vertex words only to
classify a failing clique.  The independent sampler, and every trial without the
kernel, draws through hypergraph.sample and decides a verifier._Instance
(one kernel call when loaded); that path is the reference, and both give
the same rows.

Asymptotic "almost surely" claims are reported as finite-n frequencies with
Wilson intervals and nothing more.
"""

from __future__ import annotations

import collections
import functools
import io
import json
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _native, analytics, hypergraph, verifier, witnesses
from .analytics import ModelParams
from .errors import DomainError, ResourceLimitError
from .hypergraph import Hypergraph

SCHEMA_VERSION = 1

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

@dataclass(frozen=True, slots=True)
class TrialRecord:
    trial_index: int
    seed: int                       # master seed the substream was derived from
    m: int
    Delta: int
    omega: int
    ekr_holds: Optional[bool]       # None on a resource-errored trial
    lambda_prime_of_Delta: float
    witness_kind: Optional[str]
    error: Optional[str] = None

    @property
    def decided(self) -> bool:
        return self.error is None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


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
    kind = None if regime is None else witnesses.classify_nontrivial_clique(
        H, idx, regime, params.eps)
    return "other" if kind is None else "event" + kind


WITNESS_KINDS = ("generic", "hm", "eventA", "eventB", "eventC", "other")


# ---------------------------------------------------------------------------
# Single trial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialContext:
    """Shared inputs of one grid point's trials, computed once and carried
    by each of its pool tasks (see _trial_batches)."""

    params: ModelParams
    sampler_mode: str
    master_seed: int
    q: float
    mbar: float
    alpha: int
    beta: int
    regime: Optional[analytics.RegimeParams]
    edge_cap: int = verifier.DEFAULT_EDGE_CAP
    node_budget: int = verifier.DEFAULT_NODE_BUDGET
    stream: tuple[int, ...] = ()    # extra spawn-key prefix (e.g. grid index)

    def __post_init__(self):
        verifier.check_limits(self.edge_cap, self.node_budget)
        # SeedSequence takes no negative entropy, nor do the kernel's trials
        if self.master_seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.master_seed}")
        if any(x < 0 for x in self.stream):
            raise DomainError(f"stream entries must be >= 0, got {self.stream}")


def make_trial_context(params: ModelParams, sampler_mode: str, seed: int,
                       edge_cap: int = verifier.DEFAULT_EDGE_CAP,
                       node_budget: int = verifier.DEFAULT_NODE_BUDGET,
                       stream: tuple[int, ...] = ()) -> TrialContext:
    q = analytics.intersection_probability(params.n, params.k, exact_mode=False)
    ab = analytics.compute_alpha_beta(params, q=q)
    regime = None
    if 0 < q < 1:
        regime = analytics.regime_params(params, alpha=ab.alpha, q=q)
    return TrialContext(params, sampler_mode, seed, q, float(params.mbar), ab.alpha,
                        ab.beta, regime, edge_cap, node_budget, stream)


@functools.lru_cache(maxsize=1024)
def _lambda_prime(mbar: float, q: float, Delta: int) -> float:
    """Lambda'(Delta) as a float, kept per (mbar, q, Delta): a grid point's
    trials share (mbar, q), and Delta takes few values."""
    return float(analytics.lambda_prime_t(mbar, q, Delta))


def _native_batch(lib, ctx: TrialContext, lo: int, hi: int) -> list:
    """Trials [lo, hi) of a bernoulli or conditioned context in one
    _native.trials batch, a Hypergraph only for each failing trial, to
    classify its clique."""
    n, k, p = ctx.params.n, ctx.params.k, float(ctx.params.p)
    N = hypergraph._check_draws(ctx.sampler_mode, n, k, p)
    rows = _native.trials(lib, ctx.master_seed, ctx.stream, lo, hi, n, k, N, p,
                          conditioned=ctx.sampler_mode == "conditioned",
                          dense=verifier._dense_pairs(n, k), edge_cap=ctx.edge_cap,
                          node_budget=ctx.node_budget)
    for row in rows:
        if row[3] >= 0:
            row[6] = classify_witness_kind(Hypergraph._unchecked(n, k, row[6]), row[5],
                                           ctx.params, ctx.regime)
    return rows


def _native_batches(lib, sampler_mode: str) -> bool:
    """Whether a batch of sampler_mode's trials is one kernel call: with the
    kernel lib loaded, on the bernoulli or conditioned sampler."""
    return bool(lib) and sampler_mode != "independent"


def _run_batch(ctx: TrialContext, lo: int, hi: int) -> list:
    """The rows of trials [lo, hi) of ctx, one per trial: the kernel's
    [m, Delta, omega, size, status] (_native.trials), where omega is -1
    above the edge cap and size, the failing clique's, is -1 unless EKR
    fails, and a failing trial's row goes on with its clique and witness
    kind.  A trial is decided when omega >= 0 and its status is DONE.
    One native batch, or with the independent sampler or no kernel, one
    Hypergraph and verifier._Instance per trial, whose row is the one the
    kernel gives (out of budget, omega = Delta, as the kernel leaves it)."""
    lib = _native.kernel()
    if _native_batches(lib, ctx.sampler_mode) and lo < hi:
        return _native_batch(lib, ctx, lo, hi)
    n, k, p = ctx.params.n, ctx.params.k, float(ctx.params.p)
    rows = []
    for t in range(lo, hi):
        H = hypergraph.sample(ctx.sampler_mode, n, k, p,
                              np.random.SeedSequence(ctx.master_seed, spawn_key=(*ctx.stream, t)))
        inst = verifier._Instance(H)
        if H.m > ctx.edge_cap:
            rows.append([H.m, inst.Delta, -1, -1, _native.DONE])
            continue
        try:
            verdict, _ = verifier._decide(inst, ctx.node_budget)
        except ResourceLimitError:
            rows.append([H.m, inst.Delta, inst.Delta, -1, _native.OUT_OF_BUDGET])
            continue
        row = [H.m, verdict.Delta, verdict.omega, -1, _native.DONE]
        if verdict.witness is not None:
            row[3] = len(verdict.witness)
            row += (verdict.witness,
                    classify_witness_kind(H, verdict.witness, ctx.params, ctx.regime))
        rows.append(row)
    return rows


def _records(ctx: TrialContext, rows, lo: int = 0) -> list[TrialRecord]:
    """The TrialRecords of trials lo, lo + 1, ... from their rows: Lambda'(Delta),
    the verdict and witness kind, or the error that stopped the trial."""
    records = []
    for t, (m, Delta, omega, size, status, *failing) in enumerate(rows, lo):
        lam_p = _lambda_prime(ctx.mbar, ctx.q, Delta)
        try:
            verifier._check_edge_cap(m, ctx.edge_cap)
            _native.check(status)
        except ResourceLimitError as exc:
            records.append(TrialRecord(t, ctx.master_seed, m, Delta, -1, None, lam_p, None,
                                       str(exc)))
            continue
        kind = failing[1] if size >= 0 else None
        records.append(TrialRecord(t, ctx.master_seed, m, Delta, omega, size < 0, lam_p, kind))
    return records


def run_one_trial(ctx: TrialContext, trial_index: int) -> TrialRecord:
    """Delta, Lambda'(Delta) and the verdict of one trial, a batch of one."""
    return _records(ctx, _run_batch(ctx, trial_index, trial_index + 1), trial_index)[0]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # platforms without CPU affinity
        return os.cpu_count() or 1


def _trial_batches(contexts, trials: int, workers: int):
    """Yield each context's rows, sorted by trial index, in context order.

    Each context's trials are one _run_batch with one worker.  Otherwise
    they run on one pool as guided chunks (guided self-scheduling,
    Polychronopoulos & Kuck 1987): taken in (context, trial) order, each
    task _run_batch(ctx, lo, hi) covers max(1, remaining // (2 * workers))
    of the trials still left and is cut at the end of its context.  When
    every context's batches are native (_native_batches), the pool is
    threads: a batch is one ctypes call, which releases the GIL, so the
    batches run in parallel in this process.  Otherwise the chunks run the
    Python reference path, which the GIL would serialize on threads, so the
    pool is processes, each task pickled with its context, and the kernel
    is loaded before the pool forks, so every worker inherits it.  Results are
    consumed lazily: a context's rows are yielded once its last chunk
    arrives.  The pool never exceeds the available CPUs or the number of
    trials."""
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    contexts = tuple(contexts)
    workers = min(workers, _available_cpus(), len(contexts) * trials)
    if workers <= 1:
        for ctx in contexts:
            yield _run_batch(ctx, 0, trials)
        return
    remaining, tasks = len(contexts) * trials, []
    for ctx in contexts:
        lo = 0
        while lo < trials:
            hi = min(lo + max(1, remaining // (2 * workers)), trials)
            tasks.append((ctx, lo, hi))
            remaining -= hi - lo
            lo = hi
    lib = _native.kernel()
    native = all(_native_batches(lib, ctx.sampler_mode) for ctx in contexts)
    with (ThreadPoolExecutor if native else ProcessPoolExecutor)(max_workers=workers) as pool:
        rows = []
        for (_, _, hi), batch in zip(tasks, pool.map(_run_batch, *zip(*tasks))):
            rows += batch
            if hi == trials:
                yield rows
                rows = []


def _check_draws(points, sampler_mode: str, trials: int) -> None:
    """hypergraph._check_draws at every point of a run of trials, before any
    context evaluates its degree tails; no trials draw nothing, check nothing."""
    if trials > 0:
        for params in points:
            hypergraph._check_draws(sampler_mode, params.n, params.k, float(params.p))


def run_trials(params: ModelParams, trials: int, sampler_mode: str, seed: int,
               workers: int = 1, edge_cap: int = verifier.DEFAULT_EDGE_CAP,
               node_budget: int = verifier.DEFAULT_NODE_BUDGET,
               stream: tuple[int, ...] = ()) -> list[TrialRecord]:
    """Execute trials with independent derived seeds; records come back
    sorted by trial index regardless of the execution schedule."""
    _check_draws([params], sampler_mode, trials)
    ctx = make_trial_context(params, sampler_mode, seed, edge_cap, node_budget, stream)
    (rows,) = _trial_batches([ctx], trials, workers)        # drains: pool closed
    return _records(ctx, rows)


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
    # compared, but left out of the hash: a dict has none
    witness_counts: dict = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    eps_thr: float
    seed: int
    sampler_mode: str


def _summarize(params: ModelParams, rows, lambda_prime) -> SweepRow:
    """A grid point's SweepRow from its trials' rows (see _run_batch):
    integer sums and counts over the decided trials, and
    lambda_prime(Delta) once per distinct Delta."""
    decided = [row for row in rows if row[2] >= 0 and row[4] == _native.DONE]
    n_dec = len(decided)
    deltas = collections.Counter(map(operator.itemgetter(1), decided))
    kinds = [row[6] for row in decided if row[3] >= 0]
    holds = n_dec - len(kinds)
    lo, hi = wilson_interval(holds, n_dec)
    wc = dict.fromkeys(WITNESS_KINDS, 0)
    wc.update(collections.Counter(kinds))

    def share(count: int) -> float:
        return count / n_dec if n_dec else math.nan
    return SweepRow(
        n=params.n, k=params.k, phi=float(params.phi), p=float(params.p),
        trials=len(rows), undecided=len(rows) - n_dec,
        holds_count=holds,
        f_hat=share(holds),
        wilson_lo=lo, wilson_hi=hi,
        mean_delta=share(sum(Delta * c for Delta, c in deltas.items())),
        mean_omega=share(sum(map(operator.itemgetter(2), decided))),
        pr_lambda_prime_gt_eps=share(sum(c for Delta, c in deltas.items()
                                         if lambda_prime(Delta) > params.eps_thr)),
        witness_counts=wc,
    )


def summarize_trials(params: ModelParams, records) -> SweepRow:
    """A grid point's SweepRow from its TrialRecords, through their rows."""
    rows = [[r.m, r.Delta, r.omega if r.decided else -1,
             r.omega if r.ekr_holds is False else -1, _native.DONE, None, r.witness_kind]
            for r in records]
    lam = {r.Delta: r.lambda_prime_of_Delta for r in records}
    return _summarize(params, rows, lam.__getitem__)


def estimate_ekr_curve(n: int, k: int, phi_grid, trials: int, seed: int,
                       sampler_mode: str = "conditioned", workers: int = 1,
                       psi: float | None = None, eps_thr: float = 0.1,
                       edge_cap: int = verifier.DEFAULT_EDGE_CAP,
                       node_budget: int = verifier.DEFAULT_NODE_BUDGET,
                       c_regime: float = 0.15) -> SweepTable:
    """Every grid point's trials over one trial engine (spawn-key prefix
    (grid index,)); each point is summarized from its trials' rows as they
    arrive, with no TrialRecord, and emitted in input order."""
    points = [ModelParams.from_phi(n, k, float(phi), psi=psi, eps_thr=eps_thr,
                                   c_regime=c_regime) for phi in phi_grid]
    _check_draws(points, sampler_mode, trials)
    contexts = [make_trial_context(params, sampler_mode, seed, edge_cap, node_budget,
                                   stream=(gi,)) for gi, params in enumerate(points)]
    batches = _trial_batches(contexts, trials, workers)
    # strict: zip then reads the engine to its end, which closes the pool
    rows = tuple(_summarize(ctx.params, batch,
                            functools.partial(_lambda_prime, ctx.mbar, ctx.q))
                 for ctx, batch in zip(contexts, batches, strict=True))
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
