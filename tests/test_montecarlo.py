import dataclasses
import hashlib
import itertools
import math
import pickle

import numpy as np
import pytest

from ekrlab import _native
from ekrlab import analytics as an
from ekrlab import hypergraph as hg
from ekrlab import montecarlo as mc
from ekrlab import verifier as vf
from ekrlab import witnesses as wt
from ekrlab.errors import DomainError, ResourceLimitError
from oracles import TRIAL_CSV_FIELDS, brute_force_ekr, trial_records_to_csv


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
        H = hg.sample("bernoulli", 5, 2, float(params.p),
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
    # a process pool sends its workers' TrialRecords (frozen and slotted)
    # back pickled: a decided record, an errored one and a SweepTable each
    # come back equal with an equal hash, and take no attribute assignment
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
        H = hg.sample("bernoulli", 10, 3, float(params.p),
                      np.random.SeedSequence(5, spawn_key=(r.trial_index,)))
        assert r.error == f"|H| = {H.m} exceeds the edge cap 5" and r.omega == -1
        assert r.Delta == hg.degree_stats(H).Delta


def test_errored_independent_trials_read_delta(kernels, monkeypatch):
    # an independent-sampler trial reads Delta off its verdict, with the
    # kernel one decide call; only a trial that the edge cap or the node
    # budget stopped reads it off the instance
    params = an.ModelParams.from_phi(12, 3, 3.0)
    native, kernel_calls = _native.kernel(), []
    for kernel in kernels():
        for limits, error in (({"edge_cap": 3}, "exceeds the edge cap 3"),
                              ({"node_budget": 1}, "node budget exceeded")):
            for r in mc.run_trials(params, 12, "independent", seed=3, **limits):
                H = hg.sample("independent", 12, 3, float(params.p),
                              np.random.SeedSequence(3, spawn_key=(r.trial_index,)))
                assert r.Delta == hg.degree_stats(H).Delta, kernel
                assert error in r.error and r.omega == -1 and r.ekr_holds is None, kernel
    monkeypatch.setattr(_native, "_lib", _native.Kernel(
        lambda *a: kernel_calls.append(1) or native.ekr_search(*a), native.ekr_trials))
    monkeypatch.setattr(vf, "_vertex_stars", lambda *a: pytest.fail("Python star masks built"))
    ctx = mc.make_trial_context(params, "independent", 3)
    for t in range(12):
        kernel_calls.clear()
        r = mc.run_one_trial(ctx, t)
        assert r.decided and kernel_calls == [1], t


class InProcessPool:
    """Stands in for ProcessPoolExecutor and ThreadPoolExecutor: records its
    size, its kind and the (ctx, lo, hi) tasks given to map, runs the tasks
    in this thread, starts nothing."""

    def __init__(self, sizes, kinds, tasks, kind, max_workers):
        sizes.append(max_workers)
        kinds.append(kind)
        self.tasks = tasks

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        tasks = list(zip(*iterables))
        self.tasks += tasks
        return itertools.starmap(fn, tasks)


def in_process_pools(monkeypatch) -> tuple[list, list, list]:
    """Patch in InProcessPool for both executors; returns the lists of pool
    sizes, of pool kinds ("process" or "thread") and of tasks it records."""
    sizes, kinds, tasks = [], [], []
    for kind, name in (("process", "ProcessPoolExecutor"), ("thread", "ThreadPoolExecutor")):
        monkeypatch.setattr(mc, name, lambda kind=kind, **kw: InProcessPool(
            sizes, kinds, tasks, kind, **kw))
    return sizes, kinds, tasks


SAMPLERS = ("conditioned", "bernoulli", "independent")


def pool_kind(kernel: str, sampler: str) -> str:
    """The pool a sweep with workers > 1 builds: threads for native batches,
    processes for the Python reference path."""
    return "thread" if kernel == "native" and sampler != "independent" else "process"


def test_pool_size_clamped_to_cpus_and_trials(kernels, monkeypatch):
    sizes, kinds, _ = in_process_pools(monkeypatch)
    params = an.ModelParams.from_phi(10, 2, 1.5)
    for kernel in kernels():
        for sampler in SAMPLERS:
            serial = trial_records_to_csv(mc.run_trials(params, 6, sampler, seed=3))
            for cpus, trials, expect in ((3, 6, [3]), (8, 2, [2]), (1, 6, [])):
                sizes.clear()
                kinds.clear()
                monkeypatch.setattr(mc, "_available_cpus", lambda: cpus)
                recs = mc.run_trials(params, trials, sampler, seed=3, workers=10_000)
                assert sizes == expect
                assert kinds == [pool_kind(kernel, sampler)] * len(expect), (kernel, sampler)
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


def test_no_trials_draw_nothing(kernels):
    # C(100, 5) is above bernoulli's enumeration cap: a trial would be
    # refused, but a sweep of no trials draws nothing and checks no cap
    for kernel in kernels():
        table = mc.estimate_ekr_curve(100, 5, [1.0, 2.0], trials=0, seed=0,
                                      sampler_mode="bernoulli")
        assert [row.trials for row in table.rows] == [0, 0], kernel
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


def test_readme_sweep_golden_hash(kernels):
    ratio = (20.0 / 0.3) ** (1.0 / 11)
    grid = [0.3 * ratio**i for i in range(12)]
    for kernel in kernels():
        table = mc.estimate_ekr_curve(24, 3, grid, trials=100, seed=1)
        csv = mc.sweep_table_to_csv(table).encode()
        assert hashlib.sha256(csv).hexdigest() == README_SWEEP_SEED1_SHA256, kernel


# sha256 of sweep_table_to_csv for `ekrlab sweep --n 100 --k 5 --grid-start 1
# --grid-stop 40 --grid-points 12 --grid-scale log --trials 20 --seed 1`:
# C(100, 5) = 7.5e7, beyond bernoulli's enumeration cap; the paper's regime
PAPER_SWEEP_SEED1_SHA256 = "2ee53aaf8729184a930b669cc6b5d89ec0fcc2c5942d17e70f2d1078b89d245c"


def test_paper_regime_sweep_golden_hash(kernels):
    ratio = 40.0 ** (1.0 / 11)
    grid = [ratio**i for i in range(12)]
    for kernel in kernels():
        for workers in (1, 2):
            table = mc.estimate_ekr_curve(100, 5, grid, trials=20, seed=1, workers=workers)
            csv = mc.sweep_table_to_csv(table).encode()
            assert hashlib.sha256(csv).hexdigest() == PAPER_SWEEP_SEED1_SHA256, (kernel, workers)


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


def test_trial_csv_golden_hash(kernels):
    ratio = (20.0 / 0.3) ** (1.0 / 11)
    contexts = [mc.make_trial_context(an.ModelParams.from_phi(24, 3, 0.3 * ratio**i),
                                      "conditioned", 1, stream=(i,)) for i in range(12)]
    for kernel in kernels():
        parts = [trial_records_to_csv(mc._records(ctx, rows))
                 for ctx, rows in zip(contexts, mc._trial_batches(contexts, 100, 1))]
        for mode in ("bernoulli", "independent"):
            for n, k, phi in TRIAL_PINS:
                recs = mc.run_trials(an.ModelParams.from_phi(n, k, phi), 40, mode, 5)
                parts.append(trial_records_to_csv(recs))
        assert hashlib.sha256("".join(parts).encode()).hexdigest() == TRIALS_SHA256, kernel


def test_trial_builds_star_masks_once(kernels, monkeypatch):
    # Python kernel: one build for Delta and both searches, and the omega
    # search's relabelled copy; native kernel: one ekr_trials call per
    # batch, a trial or a whole grid point's, which builds its own star
    # words, and no Hypergraph, member tuple or star mask unless a failing
    # clique must be classified (one Hypergraph per failing trial, from the
    # kernel's words); degree_stats (hypergraph's own build) never runs
    calls, members, built, kernel_calls = [], [], [], []
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
    ctx = mc.make_trial_context(an.ModelParams.from_phi(12, 3, 2.0), "conditioned", 1)
    for kernel in kernels():
        if kernel == "native":
            monkeypatch.setattr(_native, "_lib", _native.Kernel(*[
                lambda *a, f=f: kernel_calls.append(1) or f(*a) for f in _native._lib]))
        kinds = set()
        for t in range(30):
            calls.clear()
            members.clear()
            built.clear()
            kernel_calls.clear()
            cached = hg._shared.cache_info()
            rec = mc.run_one_trial(ctx, t)
            kinds.add(rec.witness_kind)
            if kernel == "native":
                assert calls == [] and members == [], (t, calls, len(members))
                assert hg._shared.cache_info() == cached, t
                assert kernel_calls == [1] and built == ([] if rec.ekr_holds else [1]), t
            else:
                assert calls == ([rec.m] * 2 if rec.m else [0]), (t, calls)
        assert None in kinds and len(kinds) > 1     # holding and failing trials
    for seen in (kernel_calls, built, calls, members):
        seen.clear()
    (rows,) = mc._trial_batches([ctx], 30, 1)
    records = mc._records(ctx, rows)
    assert kernel_calls == [1] and calls == [] and members == []
    assert len(built) == sum(1 for r in records if r.ekr_holds is False)


@pytest.mark.parametrize("workers", [1, 2])
def test_native_sweep_builds_no_trial_record(monkeypatch, workers):
    # a native sweep summarizes each grid point straight from its kernel
    # rows: it builds no TrialRecord, and one Hypergraph per failing trial,
    # from the kernel's words, only to classify its clique
    assert _native.kernel() is not None, "the native search kernel did not build or load"
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
    assert records == [] and len(built) == failing > 0
    assert sum(r.holds_count for r in table.rows) > 0


def test_sweep_csv_worker_count_invariance():
    grid = [1.0, 2.0]
    t1 = mc.estimate_ekr_curve(10, 2, grid, trials=24, seed=13, workers=1)
    t2 = mc.estimate_ekr_curve(10, 2, grid, trials=24, seed=13, workers=4)
    assert mc.sweep_table_to_csv(t1) == mc.sweep_table_to_csv(t2)


README_GRID = [0.3 * (20.0 / 0.3) ** (i / 11) for i in range(12)]


@pytest.mark.parametrize("n, k, grid, trials, node_budget, pools", [
    (24, 3, README_GRID, 5, vf.DEFAULT_NODE_BUDGET, [2]),   # 12 points
    (10, 3, [0.5, 8.0], 4, 2, [2]),      # budget 2 leaves phi = 8 undecided
    (24, 3, README_GRID, 0, vf.DEFAULT_NODE_BUDGET, []),    # no keys, no pool
])
def test_sweep_runs_on_one_pool(kernels, monkeypatch, n, k, grid, trials, node_budget, pools):
    sizes, kinds, _ = in_process_pools(monkeypatch)
    monkeypatch.setattr(mc, "_available_cpus", lambda: 2)
    for kernel in kernels():
        for sampler in SAMPLERS:
            serial = mc.sweep_table_to_csv(mc.estimate_ekr_curve(
                n, k, grid, trials=trials, seed=5, sampler_mode=sampler,
                node_budget=node_budget))
            sizes.clear()
            kinds.clear()
            table = mc.estimate_ekr_curve(n, k, grid, trials=trials, seed=5,
                                          sampler_mode=sampler, workers=2,
                                          node_budget=node_budget)
            assert sizes == pools
            assert kinds == [pool_kind(kernel, sampler)] * len(pools), (kernel, sampler)
            assert mc.sweep_table_to_csv(table) == serial
            assert [r.trials for r in table.rows] == [trials] * len(grid)
            if node_budget == 2:
                assert [r.undecided for r in table.rows] == [0, trials]


@pytest.mark.parametrize("n, k, grid, trials, workers, max_tasks", [
    (24, 3, README_GRID, 100, 2, 32),   # 204 fixed chunks of 6 trials before
    (10, 3, [0.5 * (i + 1) for i in range(12)], 1, 2, 12),
    (10, 3, [2.0], 7, 3, 7),
])
def test_sweep_chunks_are_guided(kernels, monkeypatch, n, k, grid, trials, workers, max_tasks):
    sizes, kinds, tasks = in_process_pools(monkeypatch)
    monkeypatch.setattr(mc, "_available_cpus", lambda: workers)
    for kernel in kernels():
        # the chunk plan is the same on both pools; without the kernel every
        # sampler runs the Python path
        for sampler in ("conditioned", "independent")[:2 if kernel == "native" else 1]:
            serial = mc.sweep_table_to_csv(mc.estimate_ekr_curve(
                n, k, grid, trials=trials, seed=5, sampler_mode=sampler))
            sizes.clear()
            kinds.clear()
            tasks.clear()
            table = mc.estimate_ekr_curve(n, k, grid, trials=trials, seed=5,
                                          sampler_mode=sampler, workers=workers)
            assert sizes == [workers]
            assert kinds == [pool_kind(kernel, sampler)], (kernel, sampler)
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


def test_kernel_loads_before_the_pool(kernels, monkeypatch):
    # the parent loads (on a cold cache, builds) the kernel before either
    # pool is made: the pool's kind depends on it, and a process pool's
    # workers inherit it rather than each building their own
    events, kinds, _ = in_process_pools(monkeypatch)
    kernel = _native.kernel
    monkeypatch.setattr(_native, "kernel", lambda: events.append("kernel") or kernel())
    monkeypatch.setattr(mc, "_available_cpus", lambda: 2)
    for name in kernels():
        for sampler in ("conditioned", "independent"):
            events.clear()
            kinds.clear()
            mc.estimate_ekr_curve(10, 3, [1.0, 2.0], trials=4, seed=5, sampler_mode=sampler,
                                  workers=2)
            assert events[:2] == ["kernel", 2]
            assert kinds == [pool_kind(name, sampler)]


def test_sweep_csv_invariant_on_a_real_pool_at_odd_shapes(kernels, monkeypatch):
    # real pools: threads for native batches, a fork pool for the Python
    # path; 3 workers are asked for even on fewer CPUs, so the guided plan
    # differs from the 2-worker one
    monkeypatch.setattr(mc, "_available_cpus", lambda: 3)
    built = []
    for kind, pool in (("thread", mc.ThreadPoolExecutor), ("process", mc.ProcessPoolExecutor)):
        monkeypatch.setattr(mc, pool.__name__,
                            lambda kind=kind, pool=pool, **kw: built.append(kind) or pool(**kw))
    grid = [0.5, 1.5, 2.5, 4.0, 8.0]
    for kernel in kernels():
        for sampler in ("conditioned", "independent"):
            built.clear()
            csvs = {workers: mc.sweep_table_to_csv(mc.estimate_ekr_curve(
                12, 3, grid, trials=7, seed=17, sampler_mode=sampler, workers=workers))
                for workers in (1, 2, 3)}
            assert csvs[1] == csvs[2] == csvs[3], (kernel, sampler)
            assert built == [pool_kind(kernel, sampler)] * 2, (kernel, sampler)


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
    tail = exact.binom_tail_ge_float(params.M, float(params.p), ab.beta + 1)
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
