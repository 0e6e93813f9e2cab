import math
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_hypergraph import scalar_distinct_ranks

from ekrlab import _native
from ekrlab import analytics as an
from ekrlab import hypergraph as hg
from ekrlab import montecarlo as mc
from ekrlab import verifier as vf
from ekrlab import witnesses as wt


def frontier_sample():
    # dense (14, 5, phi=60), seed 1: omega = Delta, a nontrivial witness exists
    return hg.sample_bernoulli(14, 5, 60 / math.comb(13, 4), 1)


@pytest.fixture
def reload(monkeypatch, tmp_path):
    """Forget the loaded kernel and point the cache at a fresh directory;
    returns (cache directory, the Python kernel's calls, the native kernel)."""
    native = _native.kernel()
    assert native is not None, "the native search kernel did not build or load"
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    calls = []
    python_kernel = vf._branch_and_bound
    for module in (vf, wt):
        monkeypatch.setattr(module, "_branch_and_bound",
                            lambda *a, **kw: calls.append(1) or python_kernel(*a, **kw))
    return tmp_path / "ekrlab", calls, native


def test_kernel_builds_into_a_private_cache(reload, monkeypatch):
    cache, calls, _ = reload
    H = frontier_sample()
    assert _native.kernel() is not None
    v = vf.verify_ekr(H)
    assert not v.holds and not calls
    (lib,) = os.listdir(cache)          # the library alone: no temporary left
    assert lib.startswith("kernel-") and lib.endswith(".so")
    assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700
    assert stat.S_IMODE(os.stat(cache / lib).st_mode) == 0o700
    # a second process loads the cached build without compiling
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native.subprocess, "run", lambda *a, **kw: pytest.fail("rebuilt"))
    assert _native.kernel() is not None and os.listdir(cache) == [lib]


@pytest.mark.parametrize("breakage", ["no compiler", "build fails", "cache not a directory",
                                      "cache writable by others"])
def test_fallback_to_python_kernel(reload, monkeypatch, breakage):
    cache, calls, native = reload
    H = frontier_sample()
    _native._lib = native
    want = vf.verify_ekr(H), wt.find_generic_clique(H, 4, 1)
    _native._lib = None
    if breakage == "no compiler":
        monkeypatch.setattr(_native, "_CC", "ekrlab-no-such-compiler")
    elif breakage == "build fails":
        monkeypatch.setattr(_native, "_CC", "false")
    elif breakage == "cache not a directory":
        cache.parent.mkdir(exist_ok=True)
        cache.write_text("")
    else:
        cache.mkdir(mode=0o700)
        os.chmod(cache, 0o777)
    assert (vf.verify_ekr(H), wt.find_generic_clique(H, 4, 1)) == want
    assert len(calls) == 3 and _native._lib is False
    if cache.is_dir():
        assert os.listdir(cache) == []      # no library, no temporary


def test_limits_beyond_int64_act_as_their_clamps(kernels):
    H = frontier_sample()
    runs = {}
    for kernel in kernels():
        runs[kernel] = (vf.max_nontrivial_clique(H, initial_best=10**30),
                        vf.find_nontrivial_clique(H, 3, node_budget=10**30, initial_best=-10**30),
                        wt.find_generic_clique(H, 4, 10**400),
                        wt.find_generic_clique(H, 3, -10**400))
    assert runs["python"] == runs["native"]
    assert runs["native"][0] == (10**30, None) and runs["native"][3] is None


def reference_stats(H):
    """(Delta, lowest vertex of degree Delta or -1, max d(x, y), max |W_x|)
    from the Python star masks, the maxima checked against degree_stats."""
    stars = hg._vertex_stars(H.n, [hg.edge_members(b) for b in H.edge_bits])
    deg = [s.bit_count() for s in stars]
    Delta = max(deg, default=0)
    maxima = hg._star_maxima(stars)
    stats = hg.degree_stats(H)
    assert maxima == (max(stats.pair_deg.values(), default=0),
                      max(len(w) for w in stats.W.values()))
    assert stats.Delta == Delta
    return Delta, deg.index(Delta) if H.m else -1, *maxima


def stats_families():
    yield pytest.param(hg.Hypergraph(10, 3, ()), id="empty")
    for m in (63, 64, 65, 300):             # one to five edge words
        yield pytest.param(hg.sample_independent(12, 4, m, m), id=f"m={m}")
        yield pytest.param(hg.sample_independent(40, 3, m, m).dedupped(), id=f"m={m} sparse")
    yield pytest.param(hg.Hypergraph.from_edges(
        256, 3, [(0, 128, 255), (1, 200, 255), (63, 64, 255), (0, 254, 255), (5, 6, 7)]),
        id="last vertex word")
    yield pytest.param(hg.Hypergraph.from_edges(
        8, 3, [(0, 1, 2), (0, 1, 2), (2, 3, 4), (0, 1, 2)]), id="repeated edges")
    yield pytest.param(hg.Hypergraph.from_edges(6, 1, [(4,)] * 5), id="one live vertex")
    yield pytest.param(hg.Hypergraph.from_edges(
        5, 2, [(0, 1)] * 65 + [(2, 3)] * 70 + [(0, 2)]), id="stars over three words")
    for seed in range(6):
        yield pytest.param(hg.sample_bernoulli(14, 5, 60 / math.comb(13, 4), seed),
                           id=f"bernoulli (14,5) seed={seed}")
        yield pytest.param(hg.sample_bernoulli(24, 3, 0.05, seed),
                           id=f"bernoulli (24,3) seed={seed}")


@pytest.mark.parametrize("H", stats_families())
def test_native_stats_match_the_star_masks(kernels, H):
    want = reference_stats(H)
    assert _native.stats(_native.kernel(), _native.vertex_words(H.edge_bits)) == want
    for kernel in kernels():
        inst = vf._Instance(H)
        assert (inst.Delta, inst.centre, *inst.pair_maxima) == want, kernel


@given(n=st.integers(1, 256), k=st.integers(1, 10), m=st.integers(0, 300),
       seed=st.integers(0, 2**32))
@example(n=6, k=2, m=0, seed=1)             # m = 0
@example(n=6, k=2, m=15, seed=2)            # m = N = 15
@example(n=9, k=9, m=1, seed=3)             # N = 1
@example(n=9, k=9, m=0, seed=3)
@example(n=256, k=10, m=300, seed=4)        # N = C(256, 10) ~ 2.8e17
def test_native_floyd_dedup_matches_distinct_ranks(n, k, m, seed):
    k = min(k, n)
    N = math.comb(n, k)
    m = min(m, N)
    want = scalar_distinct_ranks(hg.generator(seed), N, m)
    assert hg._distinct_ranks(hg.generator(seed), N, m) == want
    draws = hg._floyd_draws(hg.generator(seed), N, m)
    # edge cap 0: STATS only, no search; the kernel overwrites its draws
    # with the ranks, and unranks them into words
    *_, words = _native.trial(_native.kernel(), n, k, mc._columns(n, k), N, draws, floyd=True,
                              dense=False, edge_cap=0, node_budget=1)
    assert draws.tolist() == want
    assert _native.edge_bits(words) == tuple(hg._colex_unrank_bits(want, n, k))


def graphs(params, sampler, trials):
    return [mc._sample(params, sampler, np.random.SeedSequence(7, spawn_key=(t,)))
            for t in range(trials)]


# (n, k, phi, run_trials limits, what the 20 trials must show)
TRIAL_CASES = [
    pytest.param(24, 3, 0.05, {}, lambda recs, Hs: any(H.m == 0 for H in Hs), id="m = 0"),
    pytest.param(9, 3, 28, {}, lambda recs, Hs: all(H.m == 84 for H in Hs),
                 id="p = 1, two edge words"),
    pytest.param(256, 2, 3.0, {},
                 lambda recs, Hs: any(b >> 255 & 1 for H in Hs for b in H.edge_bits),
                 id="(256, 2), vertex 255"),
    pytest.param(12, 3, 2.0, {}, lambda recs, Hs: any(r.omega > r.Delta for r in recs),
                 id="omega > Delta"),
    pytest.param(7, 3, 10, {},
                 lambda recs, Hs: any(r.ekr_holds is False and r.omega == r.Delta for r in recs),
                 id="dense, nontrivial witnesses"),
    pytest.param(24, 3, 8.0, {"edge_cap": 64},
                 lambda recs, Hs: {r.error is None for r in recs} == {True, False},
                 id="edge cap below m"),
    *[pytest.param(12, 3, 2.0, {"node_budget": b},
                   lambda recs, Hs: any(not r.decided for r in recs),
                   id=f"node budget {b}") for b in (1, 2)],
]


@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned"])
@pytest.mark.parametrize("n, k, phi, limits, shows", TRIAL_CASES)
def test_native_trial_records_equal_the_python_path(kernels, monkeypatch, sampler, n, k, phi,
                                                    limits, shows):
    params = an.ModelParams.from_phi(n, k, phi)
    classified = []
    classify = mc.classify_witness_kind
    monkeypatch.setattr(mc, "classify_witness_kind",
                        lambda H, w, *a: classified.append((H, w)) or classify(H, w, *a))
    runs = {}
    for kernel in kernels():
        classified.clear()
        runs[kernel] = mc.run_trials(params, 20, sampler, 7, **limits), list(classified)
    assert runs["native"] == runs["python"]
    (records, witnesses), Hs = runs["native"], graphs(params, sampler, 20)
    assert shows(records, Hs)
    # the native trial rebuilds a failing trial's sample from its words
    assert [H for H, _ in witnesses] == [H for H, r in zip(Hs, records) if r.ekr_holds is False]
