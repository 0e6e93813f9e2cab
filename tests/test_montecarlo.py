import dataclasses
import hashlib
import math

import numpy as np
import pytest

from ekrlab import _native
from ekrlab import analytics as an
from ekrlab import hypergraph as hg
from ekrlab import montecarlo as mc
from ekrlab import verifier as vf
from ekrlab import witnesses as wt
from ekrlab.errors import DomainError


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
                         r.lambda_of_Delta, r.eventR_conjuncts, r.witness_kind,
                         r.error) for r in rs]
    assert strip(serial) == strip(parallel)


def test_trials_fhat_matches_brute_force_oracle_same_seeds():
    # oracle estimator on identical seeds: per-trial verdicts coincide, so
    # the two f-hat estimates are equal outright (stronger than 3 sigma)
    params = an.ModelParams.from_p(5, 2, 0.9)
    trials, seed = 10_000, 17
    recs = mc.run_trials(params, trials, "bernoulli", seed=seed)
    oracle_holds = 0
    for r in recs:
        H = mc._sample(params, "bernoulli", np.random.SeedSequence(seed, spawn_key=(r.trial_index,)))
        oracle = vf.brute_force_ekr(H)
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


def test_trial_over_edge_cap_skips_adjacency(monkeypatch):
    # the row still carries m, Delta and event R; the m^2-bit adjacency of a
    # family over the cap is never built
    monkeypatch.setattr(vf, "_star_adjacency", lambda *a: pytest.fail("adjacency built"))
    params = an.ModelParams.from_p(10, 3, 0.5)
    recs = mc.run_trials(params, 4, "bernoulli", seed=5, edge_cap=5)
    for r in recs:
        H = mc._sample(params, "bernoulli", np.random.SeedSequence(5, spawn_key=(r.trial_index,)))
        assert r.error == f"|H| = {H.m} exceeds the edge cap 5" and r.omega == -1
        assert r.Delta == hg.degree_stats(H).Delta


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size, runs the
    initializer and the tasks in this process, starts nothing."""

    def __init__(self, sizes, max_workers, initializer=None, initargs=()):
        sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def in_process_pools(monkeypatch) -> list:
    """Patch in InProcessPool; returns the list of pool sizes it records."""
    sizes = []
    monkeypatch.setattr(mc, "ProcessPoolExecutor",
                        lambda **kw: InProcessPool(sizes, **kw))
    monkeypatch.setattr(mc, "_worker_contexts", ())
    return sizes


def test_pool_size_clamped_to_cpus_and_trials(monkeypatch):
    sizes = in_process_pools(monkeypatch)
    params = an.ModelParams.from_phi(10, 2, 1.5)
    serial = mc.trial_records_to_csv(mc.run_trials(params, 6, "conditioned", seed=3))
    for cpus, trials, expect in ((3, 6, [3]), (8, 2, [2]), (1, 6, [])):
        sizes.clear()
        monkeypatch.setattr(mc, "_available_cpus", lambda: cpus)
        recs = mc.run_trials(params, trials, "conditioned", seed=3, workers=10_000)
        assert sizes == expect
        if trials == 6:
            assert mc.trial_records_to_csv(recs) == serial


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


# sha256 of trial_records_to_csv, the per-point CSVs concatenated: every
# record of the README sweep at seed 1, then 40 bernoulli and 40 independent
# trials at each TRIAL_PINS point, seed 5.  Recorded with degree_stats' per-edge
# pair loop and a second instance per verdict; pins event R, Delta and lambda
TRIAL_PINS = [(12, 3, 2), (40, 3, 0.5), (14, 3, 3), (18, 5, 20)]
TRIALS_SHA256 = "e5f99082855637b4508108368355529b640afe2a24bd2f2dc2f10a1c10760687"


def test_trial_csv_golden_hash(kernels):
    ratio = (20.0 / 0.3) ** (1.0 / 11)
    contexts = [mc.make_trial_context(an.ModelParams.from_phi(24, 3, 0.3 * ratio**i),
                                      "conditioned", 1, stream=(i,)) for i in range(12)]
    for kernel in kernels():
        parts = [mc.trial_records_to_csv(recs) for recs in mc._trial_batches(contexts, 100, 1)]
        for mode in ("bernoulli", "independent"):
            for n, k, phi in TRIAL_PINS:
                recs = mc.run_trials(an.ModelParams.from_phi(n, k, phi), 40, mode, 5)
                parts.append(mc.trial_records_to_csv(recs))
        assert hashlib.sha256("".join(parts).encode()).hexdigest() == TRIALS_SHA256, kernel


def test_trial_builds_star_masks_once(kernels, monkeypatch):
    # Python kernel: one build for event R, Delta and both searches, and the
    # omega search's relabelled copy; native kernel: one ekr_trial call,
    # which builds its own star words, and no Hypergraph, member tuple or
    # star mask unless a failing clique must be classified (one Hypergraph,
    # from the kernel's words); degree_stats (hypergraph's own build) never runs
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
def test_sweep_runs_on_one_pool(monkeypatch, n, k, grid, trials, node_budget, pools):
    serial = mc.sweep_table_to_csv(mc.estimate_ekr_curve(
        n, k, grid, trials=trials, seed=5, node_budget=node_budget))
    sizes = in_process_pools(monkeypatch)
    monkeypatch.setattr(mc, "_available_cpus", lambda: 2)
    table = mc.estimate_ekr_curve(n, k, grid, trials=trials, seed=5, workers=2,
                                  node_budget=node_budget)
    assert sizes == pools
    assert mc.sweep_table_to_csv(table) == serial
    assert [r.trials for r in table.rows] == [trials] * len(grid)
    if node_budget == 2:
        assert [r.undecided for r in table.rows] == [0, trials]


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
    text = mc.trial_records_to_csv(recs)
    lines = text.splitlines()
    assert lines[0] == "# ekrlab trials schema=1"
    assert lines[1].split(",") == list(mc.TRIAL_CSV_FIELDS)
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

def test_delta_law_p0():
    params = an.ModelParams.from_p(10, 3, 0.0)
    rep = mc.estimate_delta_law(params, 30, seed=8)
    assert rep.histogram == {0: 30}


def test_delta_law_closed_form_pr_delta_ge_1():
    # Pr(Delta >= 1) = 1 - (1-p)^C(n,k) for any p; tiny-p instance
    n, k, p, T = 7, 3, 0.01, 2000
    params = an.ModelParams.from_p(n, k, p)
    rep = mc.estimate_delta_law(params, T, seed=9, sampler_mode="bernoulli")
    want = 1.0 - (1.0 - p) ** math.comb(n, k)
    got = 1.0 - rep.histogram.get(0, 0) / T
    sigma = math.sqrt(want * (1 - want) / T)
    assert abs(got - want) <= 3 * sigma


def test_delta_law_beta_band_n60():
    # exact-complement band for Pr(Delta <= beta) at (n=60, k=3, phi=3):
    # Harris gives (1-tail)^n as a lower bound, min_v as an upper bound
    n, k, phi, T = 60, 3, 3.0, 400
    params = an.ModelParams.from_phi(n, k, phi)
    rep = mc.estimate_delta_law(params, T, seed=10, sampler_mode="bernoulli")
    from ekrlab import exact
    tail = exact.binom_tail_ge_float(params.M, float(params.p), rep.beta + 1)
    harris_lb = (1.0 - tail) ** n
    upper = 1.0 - tail
    sigma = math.sqrt(max(rep.pr_delta_le_beta * (1 - rep.pr_delta_le_beta), 0.25 / T) / T)
    assert harris_lb - 3 * sigma <= rep.pr_delta_le_beta <= upper + 3 * sigma
    assert rep.flag_le_beta_below_090 == (rep.pr_delta_le_beta < 0.9)
    # Delta >= alpha2 should be routine here
    assert rep.pr_delta_ge_alpha2 >= 0.9


def test_delta_law_histogram_sums():
    params = an.ModelParams.from_phi(20, 2, 2.0)
    rep = mc.estimate_delta_law(params, 50, seed=11)
    assert sum(rep.histogram.values()) == 50
