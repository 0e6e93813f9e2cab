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


def test_kernel_cache_name_covers_numpys_library(reload, monkeypatch, tmp_path):
    # a numpy upgrade that changes libnpyrandom.a builds a new kernel, never
    # loads one linked against the old samplers
    cache, _, _ = reload
    with open(_native._NPYRANDOM, "rb") as f:
        data = f.read()
    data += b"\n" * (len(data) % 2)         # archive members start on even offsets
    body = b"unused\n"
    member = b"".join(field.ljust(width) for field, width in (
        (b"pad.txt/", 16), (b"0", 12), (b"0", 6), (b"0", 6), (b"644", 8),
        (str(len(body)).encode(), 10))) + b"`\n" + body
    library = tmp_path / "libnpyrandom.a"
    monkeypatch.setattr(_native, "_NPYRANDOM", str(library))
    names = []
    for extra in (b"", member):         # a member no symbol needs: links the same
        library.write_bytes(data + extra)
        monkeypatch.setattr(_native, "_lib", None)
        assert _native.kernel() is not None
        names.append(set(os.listdir(cache)))
    assert len(names[0]) == 1 and len(names[1]) == 2 and names[0] < names[1]


def test_kernel_cache_name_ignores_the_source_path(reload, monkeypatch, tmp_path):
    # another checkout of the same source loads the cached build
    cache, _, _ = reload
    assert _native.kernel() is not None
    copy = tmp_path / "_kernel.c"
    with open(_native._SOURCE, "rb") as f:
        copy.write_bytes(f.read())
    monkeypatch.setattr(_native, "_SOURCE", str(copy))
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native.subprocess, "run", lambda *a, **kw: pytest.fail("rebuilt"))
    assert _native.kernel() is not None and len(os.listdir(cache)) == 1


@pytest.mark.parametrize("breakage", ["no compiler", "build fails", "cache not a directory",
                                      "cache writable by others", "numpy library missing",
                                      "numpy library not an archive"])
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
    elif breakage == "cache writable by others":
        cache.mkdir(mode=0o700)
        os.chmod(cache, 0o777)
    elif breakage == "numpy library missing":
        monkeypatch.setattr(_native, "_NPYRANDOM", str(cache.parent / "no-libnpyrandom.a"))
    else:
        (cache.parent / "libnpyrandom.a").write_text("not an archive\n")
        monkeypatch.setattr(_native, "_NPYRANDOM", str(cache.parent / "libnpyrandom.a"))
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


def kernel_trials(sampler, n, k, p, seed, stream, lo, hi):
    """(m, edges) of trials [lo, hi) from one native batch that keeps every
    trial's words; edge cap 0, so no search runs."""
    return [(m, edges) for m, *_, edges in _native.trials(
        _native.kernel(), seed, stream, lo, hi, n, k, math.comb(n, k), p,
        conditioned=sampler == "conditioned", dense=False, edge_cap=0, node_budget=1,
        keep_all=True)]


@given(n=st.integers(1, 256), k=st.integers(1, 10), mean=st.integers(0, 300),
       seed=st.integers(0, 2**32))
@example(n=6, k=2, mean=0, seed=1)          # m = 0
@example(n=6, k=2, mean=15, seed=2)         # p = 1: m = N = 15
@example(n=9, k=9, mean=1, seed=3)          # N = 1
@example(n=9, k=9, mean=0, seed=3)
@example(n=256, k=10, mean=300, seed=4)     # N = C(256, 10) ~ 2.8e17
def test_native_floyd_dedup_matches_distinct_ranks(n, k, mean, seed):
    # a conditioned trial on the kernel's own draws: m ~ Bin(N, p), then
    # Floyd's dedup and the colex unrank, against one scalar draw per step
    k = min(k, n)
    N = math.comb(n, k)
    p = min(mean / N, 1.0)

    def drawn():        # trial 0's generator after its binomial draw, and m
        rng = hg.generator(np.random.SeedSequence(seed, spawn_key=(0,)))
        return rng, int(rng.binomial(N, p))
    rng, m = drawn()
    want = scalar_distinct_ranks(rng, N, m)
    assert hg._distinct_ranks(drawn()[0], N, m) == want
    assert kernel_trials("conditioned", n, k, p, seed, (), 0, 1) == [
        (m, tuple(hg._colex_unrank_bits(want, n, k)))]


def with_examples(*examples):
    def decorate(test):
        for kw in examples:
            test = example(**kw)(test)
        return test
    return decorate


# (16, 4): N = 1820.  Seeds of one to three entropy words; streams of none,
# one and two words; t of two words; N p <= 30 (numpy's binomial inversion)
# and > 30 (BTPE); p = 0, p = 1 and p > 1/2; batches from 0 and from later
STREAM_EXAMPLES = [
    dict(seed=seed, stream=stream, n=16, k=4, p=p, lo=lo, count=3)
    for seed, stream, p, lo in [
        (0, (), 0.3, 0), (2**32 - 1, (0,), 0.01, 5), (2**32, (2**33,), 0.7, 2**32),
        (2**64 + 7, (2**33,), 1.0, 1), (2**64 + 7, (), 0.0, 0), (0, (0,), 0.015, 2**33 + 3),
        (2**32, (), 0.99, 17), (2**64 + 7, (0,), 0.5, 0), (5, (2**33, 1), 0.05, 0)]]


@given(n=st.integers(1, 16), k=st.integers(1, 4), p=st.floats(0, 1),
       seed=st.integers(0, 2**70), stream=st.lists(st.integers(0, 2**40), max_size=2).map(tuple),
       lo=st.integers(0, 2**40), count=st.integers(1, 3))
@with_examples(*STREAM_EXAMPLES)
@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned"])
def test_native_trials_draw_numpys_streams(sampler, n, k, p, seed, stream, lo, count):
    # the kernel seeds each trial itself: its m and edges are the Python
    # sampler's under SeedSequence(seed, spawn_key=(*stream, t))
    k = min(k, n)
    want = []
    for t in range(lo, lo + count):
        seed_seq = np.random.SeedSequence(seed, spawn_key=(*stream, t))
        H = (hg.sample_bernoulli(n, k, p, seed_seq) if sampler == "bernoulli"
             else hg.sample_conditioned(n, k, p, seed_seq)[0])
        want.append((H.m, H.edge_bits))
    assert kernel_trials(sampler, n, k, p, seed, stream, lo, lo + count) == want


def test_native_trials_grow_their_output():
    # m ~ 38,760 edges: each trial's words outgrow the output buffer, and
    # the batch goes on from the trial that did not fit
    want = [hg.sample_bernoulli(20, 7, 0.5, np.random.SeedSequence(3, spawn_key=(t,)))
            for t in range(3)]
    assert kernel_trials("bernoulli", 20, 7, 0.5, 3, (), 0, 3) == [(H.m, H.edge_bits)
                                                                   for H in want]


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
    # a batch that starts mid-way, on the native kernel
    assert mc._run_batch(mc.make_trial_context(params, sampler, 7, **limits), 7, 20) == records[7:]
    assert shows(records, Hs)
    # the native trial rebuilds a failing trial's sample from its words
    assert [H for H, _ in witnesses] == [H for H, r in zip(Hs, records) if r.ekr_holds is False]
