import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekrlab import _native
from ekrlab import analytics as an
from ekrlab import hypergraph as hg
from ekrlab import montecarlo as mc
from ekrlab import verifier as vf
from ekrlab import witnesses as wt
from ekrlab.errors import DomainError, ResourceLimitError
import oracles
from oracles import TRIAL_CSV_FIELDS, brute_force_ekr, trial_records_to_csv
from test_witnesses import _regime


# ---------------------------------------------------------------------------
# Wilson intervals
# ---------------------------------------------------------------------------

def test_wilson_basic_shape():
    lo, hi = mc.wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = mc.wilson_interval(50, 100)
    assert 0.40 < lo < 0.5 < hi < 0.60
    lo0, hi0 = mc.wilson_interval(0, 50)
    assert lo0 == 0.0 and hi0 > 0.0
    lo1, hi1 = mc.wilson_interval(50, 50)
    assert hi1 == 1.0 and lo1 < 1.0


def test_wilson_contains_its_estimate_exactly():
    for T in range(1, 2001):
        assert mc.wilson_interval(0, T)[0] == 0.0, T
        assert mc.wilson_interval(T, T)[1] == 1.0, T
        for s in range(T + 1):
            lo, hi = mc.wilson_interval(s, T)
            assert lo <= s / T <= hi, (s, T)


def test_wilson_coverage():
    # >= 93% coverage over 1000 synthetic Bernoulli streams with known p
    rng = np.random.Generator(np.random.Philox(123))
    p, T, reps = 0.3, 200, 1000
    ks = rng.binomial(T, p, size=reps)
    covered = 0
    cache = {}
    for k in ks:
        if k not in cache:
            cache[k] = mc.wilson_interval(int(k), T)
        lo, hi = cache[k]
        covered += lo <= p <= hi
    assert covered / reps >= 0.93


def test_wilson_width_scaling():
    # doubling trials shrinks the width by sqrt(2) within 10%
    rng = np.random.Generator(np.random.Philox(5))
    p = 0.4
    T = 2000
    k1 = int(rng.binomial(T, p))
    k2 = int(rng.binomial(2 * T, p))
    w1 = np.diff(mc.wilson_interval(k1, T))[0]
    w2 = np.diff(mc.wilson_interval(k2, 2 * T))[0]
    assert w1 / w2 == pytest.approx(math.sqrt(2), rel=0.10)


# ---------------------------------------------------------------------------
# run_trials
# ---------------------------------------------------------------------------

def test_trials_p0_all_hold():
    params = an.ModelParams.from_p(10, 3, 0.0)
    recs = mc.run_trials(params, 20, "bernoulli", seed=1)
    assert all(r.ekr_holds and r.Delta == 0 and r.omega == 0 for r in recs)
    assert all(r.lambda_prime_of_Delta == 0.0 for r in recs)


def test_trials_p1_full_K_holds():
    params = an.ModelParams.from_p(7, 3, 1.0)
    recs = mc.run_trials(params, 3, "bernoulli", seed=2)
    assert all(r.ekr_holds for r in recs)
    assert all(r.m == math.comb(7, 3) for r in recs)


def test_trials_sorted_and_deterministic():
    params = an.ModelParams.from_p(10, 3, 0.05)
    a = mc.run_trials(params, 40, "conditioned", seed=3)
    b = mc.run_trials(params, 40, "conditioned", seed=3)
    assert [r.trial_index for r in a] == list(range(40))
    assert [(r.m, r.Delta, r.omega, r.ekr_holds) for r in a] == \
        [(r.m, r.Delta, r.omega, r.ekr_holds) for r in b]


def test_trials_parallel_matches_serial():
    params = an.ModelParams.from_p(10, 3, 0.08)
    serial = mc.run_trials(params, 30, "bernoulli", seed=11, workers=1)
    parallel = mc.run_trials(params, 30, "bernoulli", seed=11, workers=3)
    strip = lambda rs: [(r.trial_index, r.m, r.Delta, r.omega, r.ekr_holds,
                         r.lambda_prime_of_Delta, r.witness_kind, r.error) for r in rs]
    assert strip(serial) == strip(parallel)


def test_trials_fhat_matches_brute_force_oracle_same_seeds():
    # oracle estimator on identical seeds: per-trial verdicts coincide, so
    # the two f-hat estimates are equal outright (stronger than 3 sigma)
    params = an.ModelParams.from_p(5, 2, 0.9)
    trials, seed = 10_000, 17
    recs = mc.run_trials(params, trials, "bernoulli", seed=seed)
    oracle_holds = 0
    for r in recs:
        H = oracles.sample("bernoulli", 5, 2, float(params.p),
                           np.random.SeedSequence(seed, spawn_key=(r.trial_index,)))
        oracle = brute_force_ekr(H)
        assert oracle.holds == r.ekr_holds
        oracle_holds += oracle.holds
        # verifier-contract consistency on the record itself
        if r.ekr_holds:
            assert r.omega == r.Delta
        else:
            assert r.omega >= r.Delta
    f_hat = mc.summarize_trials(params, recs).f_hat
    assert f_hat == oracle_holds / trials


def test_trials_resource_rows_not_fatal():
    params = an.ModelParams.from_p(10, 3, 0.5)
    recs = mc.run_trials(params, 4, "bernoulli", seed=5, node_budget=2)
    assert all(r.error is not None and r.ekr_holds is None for r in recs)
    row = mc.summarize_trials(params, recs)
    assert row.undecided == 4 and math.isnan(row.f_hat)


def test_records_pickle_hash_and_stay_frozen():
    # TrialRecords (frozen and slotted) and SweepTables are public values: a
    # decided record, an errored one and a SweepTable each come back from
    # pickle equal with an equal hash, and take no attribute assignment
    params = an.ModelParams.from_phi(12, 3, 2.0)
    decided = mc.run_trials(params, 1, "conditioned", seed=7)[0]
    errored = mc.run_trials(params, 1, "conditioned", seed=7, edge_cap=1)[0]
    table = mc.estimate_ekr_curve(12, 3, [1.0, 2.0], trials=5, seed=7)
    assert decided.decided and not errored.decided
    for obj, name in ((decided, "omega"), (errored, "error"), (table, "rows")):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj) and back is not obj
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(back, name, None)


def test_trial_over_edge_cap_skips_adjacency(monkeypatch):
    # the row still carries m and Delta; the m^2-bit adjacency of a family
    # over the cap is never built
    monkeypatch.setattr(vf, "_star_adjacency", lambda *a: pytest.fail("adjacency built"))
    params = an.ModelParams.from_p(10, 3, 0.5)
    recs = mc.run_trials(params, 4, "bernoulli", seed=5, edge_cap=5)
    for r in recs:
        H = oracles.sample("bernoulli", 10, 3, float(params.p),
                           np.random.SeedSequence(5, spawn_key=(r.trial_index,)))
        assert r.error == f"|H| = {H.m} exceeds the edge cap 5" and r.omega == -1
        assert r.Delta == hg.degree_stats(H).Delta


def test_errored_independent_trials_read_delta(monkeypatch):
    # an independent-sampler trial, errored or not, reads Delta off its
    # kernel row: one ekr_trials call, no ekr_search call, and no Python
    # star mask
    params = an.ModelParams.from_phi(12, 3, 3.0)
    native, kernel_calls = _native.kernel(12), []
    for limits, error in (({"edge_cap": 3}, "exceeds the edge cap 3"),
                          ({"node_budget": 1}, "node budget exceeded")):
        for r in mc.run_trials(params, 12, "independent", seed=3, **limits):
            H = oracles.sample("independent", 12, 3, float(params.p),
                               np.random.SeedSequence(3, spawn_key=(r.trial_index,)))
            assert r.Delta == hg.degree_stats(H).Delta
            assert error in r.error and r.omega == -1 and r.ekr_holds is None
    monkeypatch.setitem(_native._lib, _native.width(12), _native.Kernel(
        lambda *a: kernel_calls.append("search") or native.ekr_search(*a),
        lambda *a: kernel_calls.append("trials") or native.ekr_trials(*a), native.ekr_draw))
    monkeypatch.setattr(vf, "_vertex_stars", lambda *a: pytest.fail("Python star masks built"))
    for limits in ({}, {"edge_cap": 3}, {"node_budget": 1}):
        ctx = mc.make_trial_context(params, "independent", 3, **limits)
        for t in range(12):
            kernel_calls.clear()
            r = mc.run_one_trial(ctx, t)
            assert r.decided == (not limits) and kernel_calls == ["trials"], (limits, t)


class InProcessPool:
    """Stands in for ThreadPoolExecutor: records its size and the (ctx, lo,
    hi) tasks given to map, runs the tasks in this thread, starts nothing."""

    def __init__(self, sizes, tasks, max_workers):
        sizes.append(max_workers)
        self.tasks = tasks

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        tasks = list(zip(*iterables))
        self.tasks += tasks
        return itertools.starmap(fn, tasks)


def in_process_pools(monkeypatch) -> tuple[list, list]:
    """Patch in InProcessPool for the thread pool; returns the lists of pool
    sizes and of tasks it records."""
    sizes, tasks = [], []
    monkeypatch.setattr(mc, "ThreadPoolExecutor", lambda **kw: InProcessPool(sizes, tasks, **kw))
    return sizes, tasks


SAMPLERS = ("conditioned", "bernoulli", "independent")


def test_pool_size_clamped_to_cpus_and_trials(monkeypatch):
    sizes, _ = in_process_pools(monkeypatch)
    params = an.ModelParams.from_phi(10, 2, 1.5)
    for sampler in SAMPLERS:
        serial = trial_records_to_csv(mc.run_trials(params, 6, sampler, seed=3))
        for cpus, trials, expect in ((3, 6, [3]), (8, 2, [2]), (1, 6, [])):
            sizes.clear()
            monkeypatch.setattr(mc, "_available_cpus", lambda: cpus)
            recs = mc.run_trials(params, trials, sampler, seed=3, workers=10_000)
            assert sizes == expect, sampler
            if trials == 6:
                assert trial_records_to_csv(recs) == serial


@pytest.mark.parametrize("workers", [0, -3])
def test_nonpositive_workers_rejected(workers):
    params = an.ModelParams.from_p(10, 3, 0.1)
    with pytest.raises(DomainError, match="workers"):
        mc.run_trials(params, 1, "bernoulli", seed=0, workers=workers)
    with pytest.raises(DomainError, match="workers"):
        mc.estimate_ekr_curve(10, 3, [1.0], trials=1, seed=0, workers=workers)


@pytest.mark.parametrize("limits", [{"node_budget": 0}, {"node_budget": -5},
                                    {"edge_cap": -1}])
def test_invalid_search_limits_rejected(limits):
    params = an.ModelParams.from_p(10, 3, 0.1)
    with pytest.raises(DomainError):
        mc.run_trials(params, 1, "bernoulli", seed=0, **limits)
    with pytest.raises(DomainError):
        mc.estimate_ekr_curve(10, 3, [1.0], trials=0, seed=0, **limits)
    # a context built by hand is checked too: its trials skip verify_ekr
    with pytest.raises(DomainError):
        dataclasses.replace(mc.make_trial_context(params, "bernoulli", 0), **limits)


def test_no_trials_draw_nothing():
    # C(100, 5) is above bernoulli's enumeration cap: a trial would be
    # refused, but a sweep of no trials draws nothing and checks no cap
    table = mc.estimate_ekr_curve(100, 5, [1.0, 2.0], trials=0, seed=0,
                                  sampler_mode="bernoulli")
    assert [row.trials for row in table.rows] == [0, 0]
    with pytest.raises(ResourceLimitError, match="--sampler conditioned"):
        mc.estimate_ekr_curve(100, 5, [1.0], trials=1, seed=0, sampler_mode="bernoulli")


def test_negative_seed_rejected():
    # numpy's SeedSequence raised a bare ValueError; the native trials'
    # entropy words would wrap a negative seed or stream entry instead
    params = an.ModelParams.from_p(10, 3, 0.1)
    for sampler in ("bernoulli", "conditioned", "independent"):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            mc.run_trials(params, 1, sampler, seed=-1)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        mc.estimate_ekr_curve(10, 3, [1.0], trials=0, seed=-2**70)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        dataclasses.replace(mc.make_trial_context(params, "bernoulli", 0), master_seed=-1)
    with pytest.raises(DomainError, match="stream entries must be >= 0"):
        mc.run_trials(params, 1, "conditioned", seed=0, stream=(3, -1))


def test_bad_sampler_mode():
    params = an.ModelParams.from_p(10, 3, 0.1)
    with pytest.raises(DomainError):
        mc.run_trials(params, 1, "bogus", seed=0)


def test_lambda_prime_zero_iff_delta_le_2():
    # pinned at non-integer mbar (generic position)
    params = an.ModelParams.from_phi(11, 3, 1.7)
    recs = mc.run_trials(params, 120, "conditioned", seed=21)
    for r in recs:
        assert (r.lambda_prime_of_Delta == 0.0) == (r.Delta <= 2)


# ---------------------------------------------------------------------------
# sweep tables
# ---------------------------------------------------------------------------

def test_curve_endpoints_p0_p1():
    # grid {0, phi_max}: p = 0 and p = 1 both hold for full C([7],3)
    table = mc.estimate_ekr_curve(7, 3, [0.0, float(math.comb(6, 2))],
                                  trials=5, seed=4)
    assert table.rows[0].f_hat == 1.0
    assert table.rows[-1].f_hat == 1.0
    assert [r.phi for r in table.rows] == [0.0, 15.0]


def test_k2_rule_counts_and_verdicts():
    # the k = 2 rule's counts are the pinned ones, and it is verify_ekr's
    # verdict on every graph on [5]
    for n in oracles.K2_EKR_COUNTS:
        assert oracles.k2_ekr_counts(n) == oracles.K2_EKR_COUNTS[n]
    pairs = list(itertools.combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        H = hg.Hypergraph.from_edges(5, 2, [e for i, e in enumerate(pairs) if mask >> i & 1])
        assert vf.verify_ekr(H).holds != oracles.k2_ekr_fails(5, mask), mask


# Bonferroni over every point of test_k2_sweep_estimates_the_exact_curve:
# two samplers, two shapes, nine points each, at family-wise level 1e-3
K2_SWEEP_Z = 4.19


@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned"])
@pytest.mark.parametrize("n, seed", [(5, 51), (6, 61)])
def test_k2_sweep_estimates_the_exact_curve(sampler, n, seed):
    # f-hat is a mean of T Bernoulli(f(p)) verdicts: each point's z against
    # the exact f(p) = sum_m a_m p^m (1-p)^(N-m) stays inside the bound
    trials, M = 4000, n - 1
    grid = [M * (i + 1) / 10 for i in range(9)]     # p = 0.1, ..., 0.9
    table = mc.estimate_ekr_curve(n, 2, grid, trials=trials, seed=seed, sampler_mode=sampler)
    for row in table.rows:
        f = oracles.k2_ekr_probability(n, row.p)
        assert row.undecided == 0
        z = (row.f_hat - f) / math.sqrt(f * (1 - f) / trials)
        assert abs(z) <= K2_SWEEP_Z, (row.phi, row.f_hat, f, z)


def test_sweep_csv_deterministic_and_seed_sensitive():
    grid = [0.5, 1.5, 2.5]
    t1 = mc.estimate_ekr_curve(10, 2, grid, trials=40, seed=9)
    t2 = mc.estimate_ekr_curve(10, 2, grid, trials=40, seed=9)
    assert mc.sweep_table_to_csv(t1) == mc.sweep_table_to_csv(t2)
    t3 = mc.estimate_ekr_curve(10, 2, grid, trials=40, seed=10)
    assert mc.sweep_table_to_csv(t1) != mc.sweep_table_to_csv(t3)


# sha256 of sweep_table_to_csv for the README sweep at seed 1, recorded with
# per-edge unranking and pairwise adjacency; sampling draws, verdicts and
# witness kinds must reproduce it byte for byte
README_SWEEP_SEED1_SHA256 = "cade037b378236e2d0f47203e1c193adf15a1ef8f313b8971d81ffd1496ffc5e"
README_GRID = [0.3 * (20.0 / 0.3) ** (i / 11) for i in range(12)]


def cli_log_grid(start: float, stop: float, points: int) -> list[float]:
    """The grid of `sweep --grid-scale log`, float for float."""
    ratio = (stop / start) ** (1.0 / (points - 1))
    return [start * ratio**i for i in range(points)]


def test_readme_sweep_golden_hash():
    ratio = (20.0 / 0.3) ** (1.0 / 11)
    grid = [0.3 * ratio**i for i in range(12)]
    table = mc.estimate_ekr_curve(24, 3, grid, trials=100, seed=1)
    csv = mc.sweep_table_to_csv(table).encode()
    assert hashlib.sha256(csv).hexdigest() == README_SWEEP_SEED1_SHA256


# sha256 of sweep_table_to_csv for `ekrlab sweep --n 100 --k 5 --grid-start 1
# --grid-stop 40 --grid-points 12 --grid-scale log --trials 20 --seed 1`:
# C(100, 5) = 7.5e7, beyond bernoulli's enumeration cap; the paper's regime
PAPER_SWEEP_SEED1_SHA256 = "2ee53aaf8729184a930b669cc6b5d89ec0fcc2c5942d17e70f2d1078b89d245c"


def test_paper_regime_sweep_golden_hash():
    ratio = 40.0 ** (1.0 / 11)
    grid = [ratio**i for i in range(12)]
    for workers in (1, 2):
        table = mc.estimate_ekr_curve(100, 5, grid, trials=20, seed=1, workers=workers)
        csv = mc.sweep_table_to_csv(table).encode()
        assert hashlib.sha256(csv).hexdigest() == PAPER_SWEEP_SEED1_SHA256, workers


# sha256 of sweep_table_to_csv for `ekrlab sweep ... --sampler independent
# --seed 1` on the README grid at 100 trials and on the paper grid above at
# 20, taken when the independent sampler drew in Python and decided each
# trial in its own kernel call: the kernel's own draws reproduce them
INDEPENDENT_SWEEP_PINS = [
    ((24, 3, cli_log_grid(0.3, 20.0, 12), 100),
     "665b830e7967d7b33eca49f421ad137d96a2e4f36c7f61e04b33ee32f385d55b"),
    ((100, 5, cli_log_grid(1.0, 40.0, 12), 20),
     "a60265cc5ed935df45a9c5d014a474ae50648de074d5b6a14e1d2716b64a6810"),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_independent_sweep_golden_hashes(workers):
    for (n, k, grid, trials), want in INDEPENDENT_SWEEP_PINS:
        table = mc.estimate_ekr_curve(n, k, grid, trials=trials, seed=1,
                                      sampler_mode="independent", workers=workers)
        assert hashlib.sha256(mc.sweep_table_to_csv(table).encode()).hexdigest() == want, n


# sha256 of trial_records_to_csv, the per-point CSVs concatenated: every
# record of the README sweep at seed 1, then 40 bernoulli and 40 independent
# trials at each TRIAL_PINS point, seed 5.  It pins m, Delta, omega, the
# verdict, Lambda'(Delta), the witness kind and the error of every trial.
# The earlier trial CSV, with its Lambda(Delta) and five event-R columns cut
# and taken with degree_stats' per-edge pair loop and a second instance per
# verdict, differs from it in three witness kinds only, at (18, 5, 20): the
# nontrivial search now walks the omega search's degree order, and finds
# another failing clique in bernoulli trial 38 and independent trials 4
# and 34
TRIAL_PINS = [(12, 3, 2), (40, 3, 0.5), (14, 3, 3), (18, 5, 20)]
TRIALS_SHA256 = "08997aae9ff6bd05ebaef87e9f5338209407f422547229c5aa00f63a78caaf8c"


def test_trial_csv_golden_hash():
    ratio = (20.0 / 0.3) ** (1.0 / 11)
    contexts = [mc.make_trial_context(an.ModelParams.from_phi(24, 3, 0.3 * ratio**i),
                                      "conditioned", 1, stream=(i,)) for i in range(12)]
    parts = [trial_records_to_csv(mc._records(ctx, rows))
             for ctx, rows in zip(contexts, mc._trial_batches(contexts, 100, 1))]
    for mode in ("bernoulli", "independent"):
        for n, k, phi in TRIAL_PINS:
            recs = mc.run_trials(an.ModelParams.from_phi(n, k, phi), 40, mode, 5)
            parts.append(trial_records_to_csv(recs))
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == TRIALS_SHA256


def test_trial_builds_star_masks_once(monkeypatch):
    # one ekr_trials call per batch, a trial or a whole grid point's, which
    # builds its own star words, and no member tuple or star mask; a
    # Hypergraph, from the kernel's words, only when the event classifier
    # must read a failing trial's degrees; degree_stats (hypergraph's own
    # build) never runs
    calls, members, built, kernel_calls, events = [], [], [], [], []
    stars, edge_members = vf._vertex_stars, hg.edge_members
    monkeypatch.setattr(vf, "_vertex_stars",
                        lambda n, mem: calls.append(len(mem)) or stars(n, mem))
    monkeypatch.setattr(hg, "_vertex_stars", lambda *a: pytest.fail("degree_stats ran"))
    for module in (hg, vf, wt):
        monkeypatch.setattr(module, "edge_members",
                            lambda b: members.append(b) or edge_members(b))
    post_init, unchecked = hg.Hypergraph.__post_init__, hg.Hypergraph._unchecked
    monkeypatch.setattr(hg.Hypergraph, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(hg.Hypergraph, "_unchecked",
                        lambda *a: built.append(1) or unchecked(*a))
    classify = wt.classify_nontrivial_clique
    monkeypatch.setattr(wt, "classify_nontrivial_clique",
                        lambda *a: events.append(1) or classify(*a))
    ctx = mc.make_trial_context(an.ModelParams.from_phi(12, 3, 2.0), "conditioned", 1)
    monkeypatch.setitem(_native._lib, _native.width(12), _native.Kernel(*[
        lambda *a, f=f: kernel_calls.append(1) or f(*a) for f in _native.kernel(12)]))
    kinds = set()
    for t in range(30):
        for seen in (calls, members, built, kernel_calls, events):
            seen.clear()
        cached = hg._shared.cache_info()
        rec = mc.run_one_trial(ctx, t)
        kinds.add(rec.witness_kind)
        assert calls == [] and members == [], (t, calls, len(members))
        assert hg._shared.cache_info() == cached, t
        assert kernel_calls == [1] and built == events, t
        assert events == ([] if rec.witness_kind in (None, "generic", "hm") else [1]), t
    assert {None, "generic", "hm", "eventC"} <= kinds   # holding and failing trials
    for seen in (kernel_calls, built, calls, members, events):
        seen.clear()
    (rows,) = mc._trial_batches([ctx], 30, 1)
    records = mc._records(ctx, rows)
    assert kernel_calls == [1] and calls == [] and members == []
    assert len(built) == len(events) == sum(1 for r in records
                                            if r.witness_kind not in (None, "generic", "hm"))


@pytest.mark.parametrize("workers", [1, 2])
def test_native_sweep_builds_no_trial_record(monkeypatch, workers):
    # a native sweep summarizes each grid point straight from its kernel
    # rows: it builds no TrialRecord, and a Hypergraph, from the kernel's
    # words, only for a failing trial whose clique reaches the event
    # classifier (tagged eventA/B/C or other)
    monkeypatch.setattr(mc, "_available_cpus", lambda: 2)
    records, built = [], []
    monkeypatch.setattr(mc, "TrialRecord", lambda *a: records.append(a))
    post_init, unchecked = hg.Hypergraph.__post_init__, hg.Hypergraph._unchecked
    monkeypatch.setattr(hg.Hypergraph, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(hg.Hypergraph, "_unchecked",
                        lambda *a: built.append(1) or unchecked(*a))
    table = mc.estimate_ekr_curve(12, 3, [0.5, 2.0, 4.0], trials=30, seed=1, workers=workers)
    failing = sum(r.trials - r.undecided - r.holds_count for r in table.rows)
    events = sum(c for r in table.rows for kind, c in r.witness_counts.items()
                 if kind not in ("generic", "hm"))
    assert records == [] and len(built) == events > 0 and failing > events
    assert sum(r.holds_count for r in table.rows) > 0


def test_sweep_csv_worker_count_invariance():
    grid = [1.0, 2.0]
    t1 = mc.estimate_ekr_curve(10, 2, grid, trials=24, seed=13, workers=1)
    t2 = mc.estimate_ekr_curve(10, 2, grid, trials=24, seed=13, workers=4)
    assert mc.sweep_table_to_csv(t1) == mc.sweep_table_to_csv(t2)


@pytest.mark.parametrize("n, k, grid, trials, node_budget, pools", [
    (24, 3, README_GRID, 5, vf.DEFAULT_NODE_BUDGET, [2]),   # 12 points
    (10, 3, [0.5, 8.0], 4, 2, [2]),      # budget 2 leaves phi = 8 undecided
    (24, 3, README_GRID, 0, vf.DEFAULT_NODE_BUDGET, []),    # no keys, no pool
])
def test_sweep_runs_on_one_pool(monkeypatch, n, k, grid, trials, node_budget, pools):
    sizes, _ = in_process_pools(monkeypatch)
    monkeypatch.setattr(mc, "_available_cpus", lambda: 2)
    for sampler in SAMPLERS:
        serial = mc.sweep_table_to_csv(mc.estimate_ekr_curve(
            n, k, grid, trials=trials, seed=5, sampler_mode=sampler,
            node_budget=node_budget))
        sizes.clear()
        table = mc.estimate_ekr_curve(n, k, grid, trials=trials, seed=5,
                                      sampler_mode=sampler, workers=2,
                                      node_budget=node_budget)
        assert sizes == pools, sampler
        assert mc.sweep_table_to_csv(table) == serial
        assert [r.trials for r in table.rows] == [trials] * len(grid)
        if node_budget == 2:
            assert [r.undecided for r in table.rows] == [0, trials]


@pytest.mark.parametrize("n, k, grid, trials, workers, max_tasks", [
    (24, 3, README_GRID, 100, 2, 32),   # 204 fixed chunks of 6 trials before
    (10, 3, [0.5 * (i + 1) for i in range(12)], 1, 2, 12),
    (10, 3, [2.0], 7, 3, 7),
])
def test_sweep_chunks_are_guided(monkeypatch, n, k, grid, trials, workers, max_tasks):
    sizes, tasks = in_process_pools(monkeypatch)
    monkeypatch.setattr(mc, "_available_cpus", lambda: workers)
    # the chunk plan is the same for every sampler
    for sampler in ("conditioned", "independent"):
        serial = mc.sweep_table_to_csv(mc.estimate_ekr_curve(
            n, k, grid, trials=trials, seed=5, sampler_mode=sampler))
        sizes.clear()
        tasks.clear()
        table = mc.estimate_ekr_curve(n, k, grid, trials=trials, seed=5,
                                      sampler_mode=sampler, workers=workers)
        assert sizes == [workers], sampler
        assert mc.sweep_table_to_csv(table) == serial
        assert len(tasks) <= max_tasks
        # every (grid index, trial) exactly once, in order; no chunk
        # crosses a point; a task carries its point's context
        chunks = [(ctx.stream[0], lo, hi) for ctx, lo, hi in tasks]
        assert [ctx.params.phi for ctx, _, _ in tasks] == [grid[gi] for gi, _, _ in chunks]
        assert [(gi, t) for gi, lo, hi in chunks for t in range(lo, hi)] == [
            (gi, t) for gi in range(len(grid)) for t in range(trials)]
        assert all(lo < hi <= trials for _, lo, hi in chunks)
        # each chunk takes at most its share of the trials still left
        remaining = len(grid) * trials
        for _, lo, hi in chunks:
            assert hi - lo <= max(1, remaining // (2 * workers))
            remaining -= hi - lo


def test_kernel_loads_before_the_pool(monkeypatch):
    # the kernel is loaded (on a cold cache, built) before the pool is made,
    # so a host without it fails before any pool starts
    events, _ = in_process_pools(monkeypatch)
    kernel = _native.kernel
    monkeypatch.setattr(_native, "kernel", lambda n: events.append("kernel") or kernel(n))
    monkeypatch.setattr(mc, "_available_cpus", lambda: 2)
    for sampler in ("conditioned", "independent"):
        events.clear()
        mc.estimate_ekr_curve(10, 3, [1.0, 2.0], trials=4, seed=5, sampler_mode=sampler,
                              workers=2)
        assert events[:2] == ["kernel", 2], sampler


def test_sweep_csv_invariant_on_a_real_pool_at_odd_shapes(monkeypatch):
    # a real thread pool for every sampler; 3 workers are asked for even on
    # fewer CPUs, so the guided plan differs from the 2-worker one
    monkeypatch.setattr(mc, "_available_cpus", lambda: 3)
    built, pool = [], mc.ThreadPoolExecutor
    monkeypatch.setattr(mc, "ThreadPoolExecutor", lambda **kw: built.append(1) or pool(**kw))
    grid = [0.5, 1.5, 2.5, 4.0, 8.0]
    for sampler in ("conditioned", "independent"):
        built.clear()
        csvs = {workers: mc.sweep_table_to_csv(mc.estimate_ekr_curve(
            12, 3, grid, trials=7, seed=17, sampler_mode=sampler, workers=workers))
            for workers in (1, 2, 3)}
        assert csvs[1] == csvs[2] == csvs[3], sampler
        assert built == [1, 1], sampler


def test_int_seeds_load_no_numpy_random():
    # numpy >= 2 loads numpy.random (~6 MB RSS) on first use: a sweep keys
    # its trials, and `sample --seed` its draw, on int seeds, so neither
    # touches it (numpy 1.x loads it with numpy, which leaves nothing to see)
    code = ("import io, sys, contextlib, numpy; lazy = 'numpy.random' not in sys.modules; "
            "from ekrlab import cli, montecarlo; "
            "montecarlo.estimate_ekr_curve(12, 3, [1.0, 2.0], trials=3, seed=1); "
            "out = io.StringIO(); "
            "contextlib.redirect_stdout(out).__enter__(); "
            "code = cli.main(['sample', '--n', '9', '--k', '3', '--p', '0.5', '--seed', '2']); "
            "sys.exit(code or (lazy and 'numpy.random' in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_imports_no_process_pool():
    # every sweep runs on threads: importing the CLI loads neither
    # multiprocessing nor concurrent.futures' process pool
    code = ("import sys, ekrlab.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_sweep_row_counts_consistent():
    table = mc.estimate_ekr_curve(10, 2, [2.0], trials=60, seed=30)
    row = table.rows[0]
    assert row.trials == 60
    assert row.undecided + row.holds_count <= row.trials
    assert 0.0 <= row.wilson_lo <= row.f_hat <= row.wilson_hi <= 1.0
    assert sum(row.witness_counts.values()) == row.trials - row.undecided - row.holds_count


def test_trial_csv_schema_header():
    params = an.ModelParams.from_p(8, 2, 0.1)
    recs = mc.run_trials(params, 3, "bernoulli", seed=1)
    text = trial_records_to_csv(recs)
    lines = text.splitlines()
    assert lines[0] == "# ekrlab trials schema=1"
    assert lines[1].split(",") == list(TRIAL_CSV_FIELDS)
    assert len(lines) == 2 + 3


def test_sweep_json_schema():
    import json
    table = mc.estimate_ekr_curve(10, 2, [1.0], trials=10, seed=2)
    payload = json.loads(mc.sweep_table_to_json(table))
    assert payload["schema"] == 1
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["trials"] == 10


# ---------------------------------------------------------------------------
# Witness classification
# ---------------------------------------------------------------------------

def _sweep_kind(H, witness, params, regime):
    """The sweep's classifier (montecarlo._failing_kind) on H's words, its
    context's cached regime set to regime."""
    ctx = mc.make_trial_context(params, "conditioned", 0)
    ctx.__dict__["regime"] = regime
    return mc._failing_kind(ctx, tuple(witness), bytes(_native.vertex_words(H.edge_bits, H.n)))


FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
HM_CLIQUE = [(1, 2, 3), (0, 1, 4), (0, 2, 5), (0, 3, 6), (0, 1, 7), (0, 2, 8), (0, 3, 9)]
BOWTIE = [(0, 2, 3), (0, 4, 5), (1, 2, 4), (1, 3, 5)]

# (n, k, edges, regime, kind): the Fano plane is a nontrivial clique whose 7
# vertices all have degree 3, so it is generic at zeta = 7 and reaches the
# event classifier at zeta = 6; HM_CLIQUE and BOWTIE and the triangle are
# test_witnesses' event A, B and C families
CLASSIFY_CASES = [
    pytest.param(12, 3, HM_CLIQUE[:5], _regime(), "hm", id="a degree-4 vertex"),
    pytest.param(7, 3, FANO, _regime(zeta_cap=7), "generic", id="7 of degree 3, zeta 7"),
    pytest.param(7, 3, FANO, _regime(zeta_cap=6), "eventB", id="7 of degree 3, zeta 6"),
    pytest.param(7, 3, FANO, None, "generic", id="regime None, zeta = size"),
    pytest.param(20, 3, HM_CLIQUE, None, "hm", id="regime None, Hilton-Milner"),
    pytest.param(20, 3, HM_CLIQUE, _regime(alpha=5, phi_star=15.0, lam=20.0), "hm",
                 id="event A family: Hilton-Milner"),
    pytest.param(12, 3, BOWTIE, _regime(alpha=30, phi_star=90.0, lam=2.0), "generic",
                 id="event B family"),
    pytest.param(6, 2, [(0, 1), (0, 2), (1, 2)], _regime(alpha=3, phi_star=30.0, lam=3.0),
                 "generic", id="event C family"),
    pytest.param(7, 3, FANO, _regime(alpha=3, lam=20.0, zeta_cap=0), "eventA", id="eventA"),
    pytest.param(7, 3, FANO, _regime(alpha=4, lam=20.0, zeta_cap=0), "eventC", id="eventC"),
    pytest.param(7, 3, FANO, _regime(alpha=10, lam=20.0, zeta_cap=0), "other",
                 id="no event: other"),
    pytest.param(6, 2, [(0, 1), (2, 3)], _regime(), "other", id="not a clique"),
]


@pytest.mark.parametrize("n, k, edges, regime, kind", CLASSIFY_CASES)
def test_classify_witness_kind_examples(n, k, edges, regime, kind):
    H, params = hg.Hypergraph.from_edges(n, k, edges), an.ModelParams.from_phi(n, k, 1.0)
    w = range(H.m)
    assert oracles.classify_witness_kind(H, w, params, regime) == kind
    assert mc.classify_witness_kind(H, w, params, regime) == kind
    assert _sweep_kind(H, w, params, regime) == kind


def test_classify_witness_kind_nan_zeta_is_other():
    # is_generic_clique's DomainError; a context's zeta is never NaN
    for n, k, edges in ((7, 3, FANO), (6, 2, [(0, 1), (0, 2), (1, 2)])):
        H, params = hg.Hypergraph.from_edges(n, k, edges), an.ModelParams.from_phi(n, k, 1.0)
        for classify in (oracles.classify_witness_kind, mc.classify_witness_kind):
            assert classify(H, range(H.m), params, _regime(zeta_cap=math.nan)) == "other"


@given(shape=st.sampled_from([(7, 3), (8, 3), (11, 4), (10, 3), (12, 3), (13, 4)]),
       phi=st.floats(0.5, 6.0), seed=st.integers(0, 2**32 - 1))
def test_classifier_matches_the_oracle_on_sampled_witnesses(shape, phi, seed):
    # verify_ekr's witnesses of small families, n < 3k (dense) and n >= 3k,
    # under the grid point's regime and under none: the public classifier,
    # the sweep's and the oracle agree
    n, k = shape
    params = an.ModelParams.from_phi(n, k, phi)
    regime = mc.make_trial_context(params, "conditioned", 0).regime
    for t in range(6):
        seq = np.random.SeedSequence(seed, spawn_key=(t,))
        H = hg.sample_conditioned(n, k, float(params.p), seq)[0]
        v = vf.verify_ekr(H)
        if v.witness is None:
            continue
        want = oracles.classify_witness_kind(H, v.witness, params, regime)
        assert mc.classify_witness_kind(H, v.witness, params, regime) == want, H.edge_bits
        assert _sweep_kind(H, v.witness, params, regime) == want, H.edge_bits
        assert (mc.classify_witness_kind(H, v.witness, params, None)
                == oracles.classify_witness_kind(H, v.witness, params, None))


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_evaluates_alpha_only_where_a_clique_reads_it(monkeypatch, workers):
    # a README sweep never evaluates beta's tail, and alpha's only at the
    # points where a failing clique has a vertex of degree 3 (and none
    # above) or reaches the event classifier; a context's brackets then
    # equal compute_alpha_beta's, and its regime regime_params'
    monkeypatch.setattr(mc, "_available_cpus", lambda: 2)
    tails, contexts = [], []
    tail, make = an.tail_quantile, mc.make_trial_context
    monkeypatch.setattr(an, "tail_quantile",
                        lambda M, p, level: tails.append((p, level))
                        or tail(M, p, level))
    monkeypatch.setattr(mc, "make_trial_context",
                        lambda *a, **kw: contexts.append(make(*a, **kw)) or contexts[-1])
    table = mc.estimate_ekr_curve(24, 3, cli_log_grid(0.3, 20.0, 12), trials=100, seed=1,
                                  workers=workers)
    assert hashlib.sha256(mc.sweep_table_to_csv(table).encode()).hexdigest() \
        == README_SWEEP_SEED1_SHA256
    evaluated = list(tails)
    psi = math.log(24)
    assert {level for _, level in evaluated} == {psi / 24}      # alpha1's level only
    need = []
    for ctx in contexts:
        n, k, p = ctx.params.n, ctx.params.k, float(ctx.params.p)
        rows = _native.trials(1, ctx.stream, 0, 100, n, k, math.comb(n, k),
                              p, sampler="conditioned", dense=vf._dense_pairs(n, k),
                              edge_cap=ctx.edge_cap, node_budget=ctx.node_budget)
        reads = False
        for *_, clique, words in (row for row in rows if row[3] >= 0):
            H = hg.Hypergraph._unchecked(n, k, _native.edge_bits(words, n))
            deg = oracles.clique_degrees(H, clique).values()
            kind = oracles.classify_witness_kind(H, clique, ctx.params, ctx.regime)
            reads |= max(deg) == 3 or kind not in ("generic", "hm")
        need.append(reads)
    assert {p for p, _ in evaluated} == {ctx.params.p for ctx, r in zip(contexts, need) if r}
    assert sum(need) == 7
    # nor at a point whose failing cliques are generic with no vertex of
    # degree 3 (phi = 0.2), or Hilton-Milner with one above 3 (phi = 5)
    tails.clear()
    extra = mc.estimate_ekr_curve(24, 3, [0.2, 5.0], trials=100, seed=1, workers=workers)
    assert [(r.witness_counts["generic"], r.witness_counts["hm"]) for r in extra.rows] \
        == [(2, 0), (0, 1)] and tails == []
    for ctx in contexts:
        ab = an.compute_alpha_beta(ctx.params)
        assert (ctx.alpha, ctx.beta) == (ab.alpha, ab.beta)
        assert ctx.regime == an.regime_params(ctx.params, alpha=ab.alpha)


# ---------------------------------------------------------------------------
# NandS contingency
# ---------------------------------------------------------------------------

def test_nands_p0_perfect_agreement():
    params = an.ModelParams.from_p(10, 3, 0.0)
    s = mc.estimate_condition_nands(params, 25, seed=6)
    assert s.both == 25 and s.agreement_rate == 1.0


def test_nands_counts_sum():
    params = an.ModelParams.from_phi(12, 3, 2.0)
    s = mc.estimate_condition_nands(params, 80, seed=7)
    assert s.decided + s.undecided == 80
    assert 0.0 <= s.agreement_rate <= 1.0


def test_nands_disagreement_cells_below_threshold():
    # descriptive: in the dip below the threshold the 2x2 table is mixed
    params = an.ModelParams.from_phi(24, 3, 1.4)
    s = mc.estimate_condition_nands(params, 300, seed=19)
    assert s.holds_only + s.cond_only > 0
    assert s.agreement_rate < 1.0


# ---------------------------------------------------------------------------
# Delta law
# ---------------------------------------------------------------------------

def trial_deltas(params, trials, seed, sampler_mode="conditioned"):
    """Each trial's Delta from run_trials' records at edge cap 0, which read
    Delta and run no search."""
    return [r.Delta for r in mc.run_trials(params, trials, sampler_mode, seed, edge_cap=0)]


def test_delta_law_p0():
    params = an.ModelParams.from_p(10, 3, 0.0)
    assert trial_deltas(params, 30, seed=8) == [0] * 30


def test_delta_law_closed_form_pr_delta_ge_1():
    # Pr(Delta >= 1) = 1 - (1-p)^C(n,k) for any p; tiny-p instance
    n, k, p, T = 7, 3, 0.01, 2000
    params = an.ModelParams.from_p(n, k, p)
    deltas = trial_deltas(params, T, seed=9, sampler_mode="bernoulli")
    want = 1.0 - (1.0 - p) ** math.comb(n, k)
    got = sum(d >= 1 for d in deltas) / T
    sigma = math.sqrt(want * (1 - want) / T)
    assert abs(got - want) <= 3 * sigma


def test_delta_law_beta_band_n60():
    # exact-complement band for Pr(Delta <= beta) at (n=60, k=3, phi=3):
    # Harris gives (1-tail)^n as a lower bound, min_v as an upper bound
    n, k, phi, T = 60, 3, 3.0, 400
    params = an.ModelParams.from_phi(n, k, phi)
    ab = an.compute_alpha_beta(params)
    deltas = trial_deltas(params, T, seed=10, sampler_mode="bernoulli")
    pr_le_beta = sum(d <= ab.beta for d in deltas) / T
    from ekrlab import exact
    tail = exact.binom_tail_ge(params.M, float(params.p), ab.beta + 1)
    harris_lb = (1.0 - tail) ** n
    upper = 1.0 - tail
    sigma = math.sqrt(max(pr_le_beta * (1 - pr_le_beta), 0.25 / T) / T)
    assert harris_lb - 3 * sigma <= pr_le_beta <= upper + 3 * sigma
    # Delta >= alpha2 should be routine here
    assert sum(d >= ab.alpha2 for d in deltas) / T >= 0.9


def test_delta_law_histogram_sums():
    # one Delta per trial, the same as a run that searches reads
    params = an.ModelParams.from_phi(20, 2, 2.0)
    deltas = trial_deltas(params, 50, seed=11)
    assert len(deltas) == 50
    assert deltas == [r.Delta for r in mc.run_trials(params, 50, "conditioned", 11)]
