import math
import os
import stat
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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


def numpy_cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__     # numpy >= 2
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.parametrize("machine", ["x86_64", "aarch64"])
def test_build_command_carries_popcnt_where_the_cpu_has_it(monkeypatch, machine):
    # -mpopcnt exactly on an x86-64 CPU that reports POPCNT (a lookalike
    # flag is not it), and it is part of the cached build's name
    uname = os.uname()
    monkeypatch.setattr(os, "uname", lambda: os.uname_result((*uname[:4], machine)))
    link = [_native._NPYRANDOM, "-lm"]
    names = {}
    for flags in (["fpu", "popcnt", "sse4_2"], ["fpu", "avx512_vpopcntdq"], []):
        monkeypatch.setattr(_native, "_cpu_flags", lambda: flags)
        command = _native._command("gcc")
        assert ("-mpopcnt" in command) == (machine == "x86_64" and "popcnt" in flags)
        names["popcnt" in flags] = _native._library_name(command + link)
    assert (names[True] != names[False]) == (machine == "x86_64")


def test_loaded_kernel_uses_the_hardware_popcount(reload):
    # the CPU's answer agrees with numpy's own feature probe; on a POPCNT
    # host the build calls no libgcc __popcountdi2, and elsewhere it is
    # built without -mpopcnt
    cache, _, _ = reload
    has = "popcnt" in _native._cpu_flags()
    if os.uname().machine == "x86_64":
        assert has == bool(numpy_cpu_features()["POPCNT"])
    assert _native.kernel() is not None
    (lib,) = os.listdir(cache)
    popcnt = os.uname().machine == "x86_64" and has
    assert ("-mpopcnt" in _native._command("gcc")) == popcnt
    if popcnt:
        assert b"__popcountdi2" not in (cache / lib).read_bytes()


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
                        vf.max_nontrivial_clique(H, node_budget=10**30, initial_best=-10**30),
                        wt.find_generic_clique(H, 4, 10**400),
                        wt.find_generic_clique(H, 3, -10**400))
    assert runs["python"] == runs["native"]
    assert runs["native"][0] == (10**30, None) and runs["native"][3] is None


def reference_stats(H):
    """(Delta, lowest vertex of degree Delta or -1) from the Python star
    masks, Delta checked against degree_stats."""
    stars = hg._vertex_stars(H.n, [hg.edge_members(b) for b in H.edge_bits])
    deg = [s.bit_count() for s in stars]
    Delta = max(deg, default=0)
    assert hg.degree_stats(H).Delta == Delta
    return Delta, deg.index(Delta) if H.m else -1


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
    # the native kernel reads Delta and its lowest vertex off its own star
    # words: Delta is verify_ekr's (on distinct edges) and DECIDE's (on any
    # family), and when no clique beats it the omega search returns the
    # star of that vertex
    Delta, centre = reference_stats(H)
    star = [i for i, b in enumerate(H.edge_bits) if b >> centre & 1]
    assert _native.decide(_native.kernel(), _native.vertex_words(H.edge_bits),
                          dense=vf._dense_pairs(H.n, H.k), node_budget=10**6)[0] == Delta
    for kernel in kernels():
        if not H.has_duplicates():
            assert vf.verify_ekr(H).Delta == Delta, kernel
        omega, family = vf.max_intersecting_family(H)
        assert omega > Delta or family == star, kernel


def kernel_trials(sampler, n, k, p, seed, stream, lo, hi):
    """(m, edges) of trials [lo, hi) from one native batch that keeps every
    trial's words; edge cap 0, so no search runs."""
    return [(m, edges) for m, *_, edges in _native.trials(
        _native.kernel(), seed, stream, lo, hi, n, k, math.comb(n, k), p,
        conditioned=sampler == "conditioned", dense=False, edge_cap=0, node_budget=1,
        keep_all=True)]


def test_instances_read_their_statistics_on_first_use(kernels, monkeypatch):
    # the witness searches read no Delta: generic runs its one search, and
    # Hilton-Milner, which reads the Python star masks, calls no kernel.
    # EKR holds here, so verify_ekr runs the nontrivial search alone: on
    # the native kernel it is one DECIDE call.  max_intersecting_family is
    # one OMEGA call, which returns the largest star itself: neither builds
    # a Python star mask
    H = hg.sample_bernoulli(25, 5, 10 / math.comb(24, 4), 1)
    native = _native.kernel()
    python_kernel, vertex_stars = vf._branch_and_bound, vf._vertex_stars
    calls = []
    for module in (vf, wt):
        monkeypatch.setattr(module, "_branch_and_bound",
                            lambda *a, **kw: calls.append("search") or python_kernel(*a, **kw))
    monkeypatch.setattr(vf, "_vertex_stars",
                        lambda *a: calls.append("stars") or vertex_stars(*a))
    names = {_native.OMEGA: "omega", _native.NONTRIVIAL: "nontrivial",
             _native.GENERIC: "generic", _native.DECIDE: "decide"}
    for kernel in kernels():
        if kernel == "native":
            monkeypatch.setattr(_native, "_lib", _native.Kernel(
                lambda mode, *a: calls.append(names[mode]) or native.ekr_search(mode, *a),
                native.ekr_trials))
        counts = []
        for run in (lambda: wt.find_generic_clique(H, 7, 2), lambda: wt.find_hilton_milner(H, 3),
                    lambda: vf.verify_ekr(H), lambda: vf.max_intersecting_family(H)):
            calls.clear()
            run()
            counts.append(list(calls))
        assert counts == ([["stars", "search"], ["stars"], ["stars", "stars", "search"],
                           ["stars", "stars", "search"]] if kernel == "python" else
                          [["generic"], ["stars"], ["decide"], ["omega"]]), kernel
    v = vf.verify_ekr(H)
    assert v.holds and v.omega == v.Delta > 2


@given(n=st.integers(1, 256), k=st.integers(1, 10), mean=st.integers(0, 300),
       seed=st.integers(0, 2**32))
@example(n=6, k=2, mean=0, seed=1)          # m = 0
@example(n=6, k=2, mean=15, seed=2)         # p = 1: m = N = 15, one rank per bucket
@example(n=4, k=2, mean=6, seed=7)          # p = 1: m = N = 6, one rank per bucket
@example(n=9, k=9, mean=1, seed=3)          # N = 1
@example(n=9, k=9, mean=0, seed=3)
@example(n=256, k=10, mean=300, seed=4)     # N = C(256, 10) ~ 2.8e17
@example(n=16, k=4, mean=1, seed=0)         # m = 1
@example(n=16, k=4, mean=2, seed=10)        # m = 2, drawn in descending order
@example(n=16, k=4, mean=1820, seed=5)      # p = 1: Floyd collides at nearly every step
@example(n=20, k=7, mean=38000, seed=6)     # m ~ 38,000
@example(n=16, k=4, mean=12, seed=9)        # m = 11: five ranks share one bucket
@example(n=66, k=33, mean=300, seed=8)      # N ~ 7.2e18 >= 2**62: r m overflows 64 bits
def test_native_floyd_dedup_matches_distinct_ranks(n, k, mean, seed):
    # a conditioned trial on the kernel's own draws: m ~ Bin(N, p), then
    # Floyd's dedup, the bucket sort (bucket floor(r m / N)) and the colex
    # unrank, against one scalar draw per step
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


def test_native_trials_are_reentrant():
    # ctypes releases the GIL for ekr_trials, and a sweep's thread pool calls
    # it from several threads at once: four batches on different (seed,
    # stream), started together, each equal to the same call made serially.
    # (12, 3, phi = 2) has failing trials, so words and cliques come back too
    lib = _native.kernel()
    assert lib is not None, "the native search kernel did not build or load"
    p = 2.0 / math.comb(11, 2)

    def batch(seed, stream, conditioned):
        return _native.trials(lib, seed, stream, 0, 400, 12, 3, math.comb(12, 3), p,
                              conditioned=conditioned, dense=False,
                              edge_cap=vf.DEFAULT_EDGE_CAP, node_budget=vf.DEFAULT_NODE_BUDGET)
    jobs = [(1, (), True), (2, (0,), False), (3, (1, 5), True), (2**40, (7,), False)]
    want = [batch(*job) for job in jobs]
    assert any(row[3] > 0 for rows in want for row in rows)     # a failing clique
    start = threading.Barrier(len(jobs), timeout=60)

    def run(job):
        start.wait()
        return batch(*job)
    with ThreadPoolExecutor(len(jobs)) as pool:
        assert list(pool.map(run, jobs, timeout=60)) == want


def test_thread_pool_sweeps_run_at_once(monkeypatch):
    # two 3-worker sweeps on the thread pool, each from its own thread at
    # the same time, with more threads than CPUs and a short switch
    # interval: each gives its serial CSV, so nothing on the thread path is
    # shared between calls
    assert _native.kernel() is not None, "the native search kernel did not build or load"
    monkeypatch.setattr(mc, "_available_cpus", lambda: 3)
    readme_grid = [0.3 * (20.0 / 0.3) ** (i / 11) for i in range(12)]
    cases = [(24, 3, readme_grid, 20, 1, "conditioned"),
             (12, 3, [0.5, 2.0, 4.0], 30, 9, "bernoulli")]

    def sweep(case, workers):
        n, k, grid, trials, seed, sampler = case
        return mc.sweep_table_to_csv(mc.estimate_ekr_curve(
            n, k, grid, trials=trials, seed=seed, sampler_mode=sampler, workers=workers))
    serial = [sweep(case, 1) for case in cases]
    start = threading.Barrier(len(cases), timeout=60)

    def run(case):
        start.wait()
        return sweep(case, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(cases)) as pool:
            assert list(pool.map(run, cases, timeout=60)) == serial
    finally:
        sys.setswitchinterval(interval)


def graphs(params, sampler, trials):
    return [hg.sample(sampler, params.n, params.k, float(params.p),
                      np.random.SeedSequence(7, spawn_key=(t,))) for t in range(trials)]


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
    ctx = mc.make_trial_context(params, sampler, 7, **limits)
    runs, rows = {}, {}
    for kernel in kernels():
        classified.clear()
        runs[kernel] = mc.run_trials(params, 20, sampler, 7, **limits), list(classified)
        rows[kernel] = mc._run_batch(ctx, 0, 20)
    assert runs["native"] == runs["python"]
    assert rows["native"] == rows["python"]     # one row format on both paths
    (records, witnesses), Hs = runs["native"], graphs(params, sampler, 20)
    # a batch that starts mid-way, on the native kernel
    assert mc._records(ctx, mc._run_batch(ctx, 7, 20), 7) == records[7:]
    assert shows(records, Hs)
    # the native trial rebuilds a failing trial's sample from its words
    assert [H for H, _ in witnesses] == [H for H, r in zip(Hs, records) if r.ekr_holds is False]


def test_native_batch_reuses_its_scratch_across_the_edge_cap(kernels, monkeypatch):
    # one kernel batch grows its star and adjacency block to its largest
    # trial and reuses it.  At (24, 3, phi = 8), m ~ 64: with the edge cap at
    # 66, trials fall above the cap (no search) and below it on both sides of
    # W = ceil(m / 64) = 1 | 2, and each must equal a batch of one on the
    # Python kernel
    ctx = mc.make_trial_context(an.ModelParams.from_phi(24, 3, 8.0), "conditioned", 3,
                                edge_cap=66)
    batches = []
    trials = _native.trials
    monkeypatch.setattr(_native, "trials", lambda *a, **kw: batches.append(1) or trials(*a, **kw))
    runs = {}
    for kernel in kernels():
        runs[kernel] = (mc._records(ctx, mc._run_batch(ctx, 0, 40)) if kernel == "native"
                        else [mc.run_one_trial(ctx, t) for t in range(40)])
    assert batches == [1]
    assert runs["native"] == runs["python"]
    ms = [r.m for r in runs["native"]]
    assert {m > 66 for m in ms} == {True, False}
    assert {(m + 63) // 64 for m in ms if m <= 66} == {1, 2}


def test_trial_above_the_edge_cap_allocates_no_adjacency():
    # p = 1/2 at (30, 6): m ~ 297k edges, far above the edge cap.  The trial
    # reads Delta and runs no search, so it must not allocate the m x m
    # adjacency (11 GB, a MemoryError); run with the address space held to
    # 1 GiB above the loaded kernel's
    code = """if True:
        import os, resource, sys
        from ekrlab import _native, cli
        assert _native.kernel()
        limit = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        resource.setrlimit(resource.RLIMIT_AS, (limit + (1 << 30),) * 2)
        sys.exit(cli.main(["sweep", "--n", "30", "--k", "6", "--grid-start", "59377.5",
                           "--grid-stop", "59377.5", "--grid-points", "1", "--trials", "1"]))
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1].startswith("30,6,59377.5,0.5,1,1,0,nan,")
