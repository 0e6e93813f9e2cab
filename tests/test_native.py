import ctypes
import math
import os
import shutil
import stat
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
import oracles
from oracles import KERNELS, delta
from test_cli import run_cli
from test_hypergraph import scalar_distinct_ranks

from ekrlab import _native
from ekrlab import analytics as an
from ekrlab import hypergraph as hg
from ekrlab import montecarlo as mc
from ekrlab import verifier as vf
from ekrlab import witnesses as wt
from ekrlab.errors import ResourceLimitError


def frontier_sample():
    # dense (14, 5, phi=60), seed 1: omega = Delta, a nontrivial witness exists
    return hg.sample_bernoulli(14, 5, 60 / math.comb(13, 4), 1)


@pytest.fixture
def reload(monkeypatch, tmp_path):
    """Forget the loaded kernels and point the cache at a fresh directory;
    returns (cache directory, the kernels loaded before)."""
    native = {_native.width(n): _native.kernel(n) for n in (64, 256)}
    monkeypatch.setattr(_native, "_lib", {})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "ekrlab", native


def test_kernel_builds_into_a_private_cache(reload, monkeypatch):
    cache, _ = reload
    H = frontier_sample()
    _native.kernel(H.n)
    assert not vf.verify_ekr(H).holds
    (lib,) = os.listdir(cache)          # the library alone: no temporary left
    assert lib.startswith("kernel-") and lib.endswith(".so")
    assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700
    assert stat.S_IMODE(os.stat(cache / lib).st_mode) == 0o700
    # a second process loads the cached build without compiling
    monkeypatch.setattr(_native, "_lib", {})
    monkeypatch.setattr(_native.subprocess, "run", lambda *a, **kw: pytest.fail("rebuilt"))
    _native.kernel(H.n)
    assert os.listdir(cache) == [lib]


def test_kernel_cache_name_covers_numpys_library(reload, monkeypatch, tmp_path):
    # a numpy upgrade that changes libnpyrandom.a builds a new kernel, never
    # loads one linked against the old samplers
    cache, _ = reload
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
        monkeypatch.setattr(_native, "_lib", {})
        _native.kernel(64)
        names.append(set(os.listdir(cache)))
    assert len(names[0]) == 1 and len(names[1]) == 2 and names[0] < names[1]


def test_kernel_cache_name_ignores_the_source_path(reload, monkeypatch, tmp_path):
    # another checkout of the same source loads the cached build
    cache, _ = reload
    _native.kernel(64)
    copy = tmp_path / "_kernel.c"
    with open(_native._SOURCE, "rb") as f:
        copy.write_bytes(f.read())
    monkeypatch.setattr(_native, "_SOURCE", str(copy))
    monkeypatch.setattr(_native, "_lib", {})
    monkeypatch.setattr(_native.subprocess, "run", lambda *a, **kw: pytest.fail("rebuilt"))
    _native.kernel(64)
    assert len(os.listdir(cache)) == 1


def numpy_cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__     # numpy >= 2
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.parametrize("machine", ["x86_64", "aarch64"])
def test_build_command_carries_popcnt_where_the_cpu_has_it(monkeypatch, machine):
    # -mpopcnt exactly on an x86-64 CPU that reports POPCNT (a lookalike
    # flag is not it), and it is part of the cached build's name, as is
    # the build's vertex width
    uname = os.uname()
    monkeypatch.setattr(os, "uname", lambda: os.uname_result((*uname[:4], machine)))
    link = [_native._NPYRANDOM, "-lm"]
    names = {}
    for flags in (["fpu", "popcnt", "sse4_2"], ["fpu", "avx512_vpopcntdq"], []):
        monkeypatch.setattr(_native, "_cpu_flags", lambda: flags)
        for vw in (1, 4):
            command = _native._command("gcc", vw)
            assert ("-mpopcnt" in command) == (machine == "x86_64" and "popcnt" in flags)
            assert f"-DVW={vw}" in command
            names["popcnt" in flags, vw] = _native._library_name(command + link)
    for popcnt in (True, False):
        assert names[popcnt, 1] != names[popcnt, 4]
    assert (names[True, 4] != names[False, 4]) == (machine == "x86_64")


def test_loaded_kernel_uses_the_hardware_popcount(reload):
    # the CPU's answer agrees with numpy's own feature probe; on a POPCNT
    # host neither build (one vertex word, four) calls libgcc's
    # __popcountdi2, and elsewhere each is built without -mpopcnt
    cache, _ = reload
    has = "popcnt" in _native._cpu_flags()
    if os.uname().machine == "x86_64":
        assert has == bool(numpy_cpu_features()["POPCNT"])
    popcnt = os.uname().machine == "x86_64" and has
    cc, link = shutil.which(_native._CC), [_native._NPYRANDOM, "-lm"]
    for n, vw in ((64, 1), (256, 4)):
        _native.kernel(n)
        command = _native._command(cc, vw)
        lib = cache / _native._library_name(command + link)
        assert lib.is_file()
        assert ("-mpopcnt" in command) == popcnt
        if popcnt:
            assert b"__popcountdi2" not in lib.read_bytes()
    assert len(os.listdir(cache)) == 2


# each way the kernel can fail to build or load, and the cause its error names
NO_KERNEL = {
    "no compiler": "no C compiler (ekrlab-no-such-compiler) on the PATH",
    "build fails": "the build failed: false exited with status 1",
    "cache not a directory": "cannot make the cache directory",
    "cache writable by others": "is not private to this user",
    "numpy library missing": "numpy's libnpyrandom.a is missing",
    "numpy library not an archive": "the build failed: ",
}


@pytest.mark.parametrize("breakage", list(NO_KERNEL))
def test_commands_without_a_kernel(reload, monkeypatch, tmp_path, breakage):
    # the commands that draw or search exit 3 with one line naming the
    # cause; calc, which does neither, prints what it prints with the
    # kernel; no library or temporary is left in the cache
    cache, native = reload
    path = tmp_path / "h.txt"
    pure = [["calc", "--n", "24", "--k", "3", "--phi", "3"]]
    monkeypatch.setattr(_native, "_lib", native)
    path.write_text(hg.dump_hypergraph(frontier_sample()))
    want = [run_cli(args) for args in pure]
    monkeypatch.setattr(_native, "_lib", {})
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
    for args in (["sample", "--n", "12", "--k", "3", "--phi", "2", "--seed", "4"],
                 ["verify", str(path)], ["witness", str(path), "--generic-size", "4"],
                 ["sweep", "--n", "12", "--k", "3", "--grid-start", "1", "--grid-stop", "2",
                  "--grid-points", "2", "--trials", "3"]):
        code, out, err = run_cli(args)
        assert (code, out) == (3, ""), (args, err)
        assert err.startswith("ekrlab: resource limit: no kernel: ") and err.count("\n") == 1
        assert NO_KERNEL[breakage] in err, err
    assert [run_cli(args) for args in pure] == want and want[0][0] == 0
    assert _native._lib == {}
    if cache.is_dir():
        assert os.listdir(cache) == []      # no library, no temporary


def test_limits_beyond_int64_act_as_their_clamps():
    H = frontier_sample()
    runs = {}
    for name, kernel in KERNELS.items():
        inst, budget = vf._Instance(H), vf.DEFAULT_NODE_BUDGET
        runs[name] = (kernel.nontrivial_search(inst, math.inf, budget, 10**30),
                      kernel.nontrivial_search(inst, math.inf, 10**30, -10**30),
                      kernel.generic_search(inst, 4, 10**400, budget),
                      kernel.generic_search(inst, 3, -10**400, budget))
    assert runs["python"] == runs["native"]
    widest, generic = runs["native"][1], runs["native"][2]
    assert vf.max_nontrivial_clique(H, initial_best=10**30) == (10**30, None)
    assert vf.max_nontrivial_clique(H, node_budget=10**30, initial_best=-10**30) == (
        widest[0], tuple(widest[1]))
    assert wt.find_generic_clique(H, 4, 10**400) == tuple(generic[1])
    assert wt.find_generic_clique(H, 3, -10**400) is None


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
def test_native_stats_match_the_star_masks(H):
    # the native kernel reads Delta and its lowest vertex off its own star
    # words: Delta is verify_ekr's (on distinct edges) and DECIDE's (on any
    # family), and when no clique beats it the omega search returns the
    # star of that vertex
    Delta, centre = reference_stats(H)
    star = [i for i, b in enumerate(H.edge_bits) if b >> centre & 1]
    assert _native.decide(_native.vertex_words(H.edge_bits, H.n), H.n,
                          dense=vf._dense_pairs(H.n, H.k), node_budget=10**6)[0] == Delta
    if not H.has_duplicates():
        assert vf.verify_ekr(H).Delta == Delta
    omega, family = vf.max_intersecting_family(H)
    assert omega > Delta or family == star


def kernel_trials(sampler, n, k, p, seed, stream, lo, hi):
    """(m, edges) of trials [lo, hi) from one native batch that keeps every
    trial's words; edge cap 0, so no search runs."""
    return [(m, _native.edge_bits(words, n)) for m, *_, words in _native.trials(
        seed, stream, lo, hi, n, k, math.comb(n, k), p,
        sampler=sampler, dense=False, edge_cap=0, node_budget=1, keep_all=True)]


def test_instances_read_their_statistics_on_first_use(monkeypatch):
    # the witness searches read no Delta: generic runs its one search, and
    # Hilton-Milner, which reads the Python star masks, calls no kernel.
    # EKR holds here, so verify_ekr runs the nontrivial search alone: one
    # DECIDE call.  max_intersecting_family is one OMEGA call, which returns
    # the largest star itself: neither builds a Python star mask
    H = hg.sample_bernoulli(25, 5, 10 / math.comb(24, 4), 1)
    native, vertex_stars = _native.kernel(H.n), vf._vertex_stars
    calls = []
    monkeypatch.setattr(vf, "_vertex_stars",
                        lambda *a: calls.append("stars") or vertex_stars(*a))
    names = {_native.OMEGA: "omega", _native.NONTRIVIAL: "nontrivial",
             _native.GENERIC: "generic", _native.DECIDE: "decide"}
    monkeypatch.setitem(_native._lib, _native.width(H.n), _native.Kernel(
        lambda mode, *a: calls.append(names[mode]) or native.ekr_search(mode, *a),
        native.ekr_trials, native.ekr_draw))
    counts = []
    for run in (lambda: wt.find_generic_clique(H, 7, 2), lambda: wt.find_hilton_milner(H, 3),
                lambda: vf.verify_ekr(H), lambda: vf.max_intersecting_family(H)):
        calls.clear()
        run()
        counts.append(list(calls))
    assert counts == [["generic"], ["stars"], ["decide"], ["omega"]]
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
    # unrank, against one scalar draw per step; and the public sampler's
    # draw, on the same stream
    k = min(k, n)
    N = math.comb(n, k)
    p = min(mean / N, 1.0)

    def drawn():        # trial 0's generator after its binomial draw, and m
        rng = oracles.generator(np.random.SeedSequence(seed, spawn_key=(0,)))
        return rng, int(rng.binomial(N, p))
    rng, m = drawn()
    want = scalar_distinct_ranks(rng, N, m)
    assert oracles.distinct_ranks(drawn()[0], N, m) == want
    edges = tuple(oracles.colex_unrank_bits(want, n, k))
    assert kernel_trials("conditioned", n, k, p, seed, (), 0, 1) == [(m, edges)]
    assert hg.sample_conditioned(n, k, p, np.random.SeedSequence(seed, spawn_key=(0,)))[
        0].edge_bits == edges


@given(n=st.integers(1, 256), small=st.integers(1, 10), near_n=st.booleans(),
       mean=st.integers(0, 300), seed=st.integers(0, 2**32), t=st.integers(0, 2**40))
@example(n=6, small=2, near_n=False, mean=0, seed=1, t=0)          # m = 0
@example(n=9, small=3, near_n=False, mean=84, seed=2, t=2**32)     # p = 1: 84 draws repeat
@example(n=4, small=2, near_n=False, mean=6, seed=7, t=2**32 + 9)  # p = 1: 6 draws of 6 sets
@example(n=7, small=1, near_n=True, mean=1, seed=3, t=0)           # k = n: N = 1
@example(n=256, small=1, near_n=True, mean=1, seed=3, t=2**33 + 5)     # k = n = 256
@example(n=256, small=10, near_n=False, mean=300, seed=4, t=1)     # N = C(256, 10)
@example(n=256, small=2, near_n=False, mean=300, seed=5, t=2**33)  # vertex 255, four words
@example(n=256, small=4, near_n=True, mean=50, seed=6, t=7)        # k = 253: long pools
@example(n=66, small=33, near_n=False, mean=300, seed=8, t=0)      # N ~ 7.2e18: ranks near 2**63
def test_native_independent_draws_match_the_sampler(n, small, near_n, mean, seed, t):
    # an independent trial on the kernel's own draws: m ~ Bin(N, p), then m
    # partial Fisher-Yates edges over one pool, keeping the first copy of
    # each (by colex rank), against the oracle's sample; t >= 2**32 takes
    # the extra word of seed_key.  k is small or near n, so N < 2**63.  The
    # public sampler's mean draws on the same stream keep their repeats
    k = max(1, min(n - small + 1 if near_n else small, n))
    N = math.comb(n, k)
    p = min(mean / N, 1.0)
    seq = np.random.SeedSequence(seed, spawn_key=(t,))
    H = oracles.sample("independent", n, k, p, seq)
    assert kernel_trials("independent", n, k, p, seed, (), t, t + 1) == [(H.m, H.edge_bits)]
    assert hg.sample_independent(n, k, mean, seq) == oracles.sample_independent(n, k, mean, seq)


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
@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned", "independent"])
def test_native_trials_draw_numpys_streams(sampler, n, k, p, seed, stream, lo, count):
    # the kernel seeds each trial itself: its m and edges are the oracle
    # sampler's under SeedSequence(seed, spawn_key=(*stream, t)), and so are
    # the public sampler's, given that SeedSequence (independent: 3 n edges)
    k = min(k, n)
    want = []
    for t in range(lo, lo + count):
        seq = np.random.SeedSequence(seed, spawn_key=(*stream, t))
        H = oracles.sample(sampler, n, k, p, seq)
        want.append((H.m, H.edge_bits))
        if sampler == "bernoulli":
            assert hg.sample_bernoulli(n, k, p, seq) == H
        elif sampler == "conditioned":
            assert hg.sample_conditioned(n, k, p, seq)[0] == H
        else:
            assert hg.sample_independent(n, k, 3 * n, seq) == oracles.sample_independent(
                n, k, 3 * n, seq)
    assert kernel_trials(sampler, n, k, p, seed, stream, lo, lo + count) == want


# _kernel.c's SMALL_N: the most ranks its rank bitmap and unrank memo cover
SMALL_N = 1 << 16


def gates(sampler, n, k, p, trials):
    """(memo, bitmap): whether one ekr_trials call of trials trials opens
    the kernel's unrank memo and its conditioned rank bitmap."""
    small = math.comb(n, k) <= SMALL_N
    return small and trials * p >= 1, small and sampler == "conditioned" and 64 * p >= 1


# (n, k, p, trials): each side of each gate, at n <= 64 and n > 64, at p = 1,
# and on each side of N <= SMALL_N
GATE_CASES = [
    (12, 3, 0.9 / 64, 80),      # memo only
    (12, 3, 1 / 64, 60),        # bitmap only, at its bound 64 p = 1
    (12, 3, 1 / 64, 64),        # both, each at its bound: (hi - lo) p = 64 p = 1
    (12, 3, 0.01, 50),          # neither
    (12, 3, 0.3, 20),           # both
    (9, 3, 1.0, 4),             # p = 1: every rank in every trial
    (100, 2, 0.01, 100),        # two vertex words: memo only, at its bound
    (100, 2, 0.05, 10),         # bitmap only
    (100, 2, 0.05, 40),         # both
    (75, 3, 0.05, 25),          # N = 67,525 > SMALL_N: neither
]


def test_gate_cases_open_each_side_of_each_gate():
    sides = {gates(sampler, *case) for case in GATE_CASES
             for sampler in ("bernoulli", "conditioned")}
    assert sides == {(False, False), (False, True), (True, False), (True, True)}
    assert gates("conditioned", 75, 3, 1.0, 100) == (False, False)


@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned"])
@pytest.mark.parametrize("n, k, p, trials", GATE_CASES)
def test_native_trial_batches_draw_numpys_streams(sampler, n, k, p, trials):
    # batches long enough for ranks to repeat across trials, which the memo
    # serves, and dense enough for the rank bitmap: trial by trial, m and
    # the edges are still the oracle sampler's on either side of each gate
    want = [oracles.sample(sampler, n, k, p, np.random.SeedSequence(7, spawn_key=(3, t)))
            for t in range(trials)]
    assert kernel_trials(sampler, n, k, p, 7, (3,), 0, trials) == [(H.m, H.edge_bits)
                                                                   for H in want]


@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned"])
def test_native_trials_resume_with_the_memo_live(sampler, monkeypatch):
    # (74, 3): N = 64,824 <= SMALL_N, p = 0.05, so m ~ 3,240 and a trial's
    # words take ~13,000 of the first output buffer's 65,536.  A later trial
    # outgrows it while the memo (and a conditioned batch's bitmap) is live,
    # and the batch resumes from that trial in a new call, which opens it
    # afresh
    n, k, p, trials = 74, 3, 0.05, 25
    lib, calls = _native.kernel(n), []
    monkeypatch.setitem(_native._lib, _native.width(n), lib._replace(
        ekr_trials=lambda *a: calls.append(a[2:4]) or lib.ekr_trials(*a)))
    rows = _native.trials(7, (3,), 0, trials, n, k, math.comb(n, k), p, sampler=sampler,
                          dense=False, edge_cap=0, node_budget=1, keep_all=True)
    want = [oracles.sample(sampler, n, k, p, np.random.SeedSequence(7, spawn_key=(3, t)))
            for t in range(trials)]
    assert [(row[0], _native.edge_bits(row[-1], n)) for row in rows] == [(H.m, H.edge_bits)
                                                                         for H in want]
    assert len(calls) >= 2 and calls[1][0] > 0
    assert all(gates(sampler, n, k, p, hi - lo)[0] for lo, hi in calls[:2])


def test_native_trials_grow_their_output():
    # m ~ 38,760 edges: each trial's words outgrow the output buffer, and
    # the batch goes on from the trial that did not fit
    want = [oracles.sample_bernoulli(20, 7, 0.5, np.random.SeedSequence(3, spawn_key=(t,)))
            for t in range(3)]
    assert kernel_trials("bernoulli", 20, 7, 0.5, 3, (), 0, 3) == [(H.m, H.edge_bits)
                                                                   for H in want]


@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned"])
def test_native_draw_reports_m_when_its_output_is_short(sampler, monkeypatch):
    # p = 1 at (9, 3): 84 edges, one word each.  Short of room, ekr_draw
    # writes nothing and returns m, so draw() grows its buffer and draws
    # again, to the oracle's edges
    lib, ent = _native.kernel(9), _native._entropy(5)
    out = np.zeros(83, dtype=np.uint64)
    mode = hg.SAMPLER_MODES.index(sampler)
    assert lib.ekr_draw(ent.ctypes.data, len(ent), 9, 3, 84, 1.0, mode, -1, out.ctypes.data,
                        len(out)) == 84
    assert not out.any()
    # draw()'s first room is one edge here: the kernel refuses it, and
    # draw() draws again into 84
    rooms = []
    monkeypatch.setattr(_native, "_room", lambda N, p: 1)
    monkeypatch.setitem(_native._lib, _native.width(9), lib._replace(
        ekr_draw=lambda *a: rooms.append(a[-1]) or lib.ekr_draw(*a)))
    want = oracles.sample(sampler, 9, 3, 1.0, 5)
    assert _native.draw(5, 9, 3, 84, 1.0, sampler) == want.edge_bits and want.m == 84
    assert rooms == [1, 84]


def test_native_trials_are_reentrant():
    # ctypes releases the GIL for ekr_trials, and a sweep's thread pool calls
    # it from several threads at once: five batches on different (seed,
    # stream) and all three samplers, started together, each equal to the
    # same call made serially.  (12, 3, phi = 2) has failing trials, so
    # words and cliques come back too
    p = 2.0 / math.comb(11, 2)

    def batch(seed, stream, sampler):
        return _native.trials(seed, stream, 0, 400, 12, 3, math.comb(12, 3), p,
                              sampler=sampler, dense=False,
                              edge_cap=vf.DEFAULT_EDGE_CAP, node_budget=vf.DEFAULT_NODE_BUDGET)
    jobs = [(1, (), "conditioned"), (2, (0,), "bernoulli"), (3, (1, 5), "conditioned"),
            (2**40, (7,), "bernoulli"), (5, (2,), "independent")]
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
    return [oracles.sample(sampler, params.n, params.k, float(params.p),
                           np.random.SeedSequence(7, spawn_key=(t,)))
            for t in range(trials)]


def reference_rows(ctx, lo, hi):
    """The rows of trials [lo, hi) of ctx (see montecarlo._run_batch) from
    the Python samplers and the Python twin's decide, one trial at a time:
    the rows a native batch must give."""
    rows = []
    for t in range(lo, hi):
        seq = np.random.SeedSequence(ctx.master_seed, spawn_key=(*ctx.stream, t))
        H = oracles.sample(ctx.sampler_mode, ctx.params.n, ctx.params.k, float(ctx.params.p), seq)
        inst = vf._Instance(H)
        if H.m > ctx.edge_cap:
            rows.append([H.m, delta(inst), -1, -1, _native.DONE])
            continue
        try:
            verdict, _ = KERNELS["python"].decide(inst, ctx.node_budget)
        except ResourceLimitError:
            rows.append([H.m, delta(inst), delta(inst), -1, _native.OUT_OF_BUDGET])
            continue
        row = [H.m, verdict.Delta, verdict.omega, -1, _native.DONE]
        if verdict.witness is not None:
            row[3] = len(verdict.witness)
            row += (verdict.witness,
                    oracles.classify_witness_kind(H, verdict.witness, ctx.params, ctx.regime))
        rows.append(row)
    return rows


# (n, k, phi, run_trials limits, what the 20 trials must show, given the
# sampler); at p = 1 the independent sampler's 84 i.i.d. draws repeat, and
# every trial keeps fewer distinct edges
TRIAL_CASES = [
    pytest.param(24, 3, 0.05, {}, lambda recs, Hs, _: any(H.m == 0 for H in Hs), id="m = 0"),
    pytest.param(9, 3, 28, {},
                 lambda recs, Hs, sampler: all((H.m == 84) == (sampler != "independent")
                                               for H in Hs),
                 id="p = 1, two edge words"),
    pytest.param(256, 2, 3.0, {},
                 lambda recs, Hs, _: any(b >> 255 & 1 for H in Hs for b in H.edge_bits),
                 id="(256, 2), vertex 255"),
    pytest.param(12, 3, 2.0, {}, lambda recs, Hs, _: any(r.omega > r.Delta for r in recs),
                 id="omega > Delta"),
    pytest.param(7, 3, 10, {},
                 lambda recs, Hs, _: any(r.ekr_holds is False and r.omega == r.Delta
                                         for r in recs),
                 id="dense, nontrivial witnesses"),
    pytest.param(24, 3, 8.0, {"edge_cap": 64},
                 lambda recs, Hs, _: {r.error is None for r in recs} == {True, False},
                 id="edge cap below m"),
    *[pytest.param(12, 3, 2.0, {"node_budget": b},
                   lambda recs, Hs, _: any(not r.decided for r in recs),
                   id=f"node budget {b}") for b in (1, 2)],
]


@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned", "independent"])
@pytest.mark.parametrize("n, k, phi, limits, shows", TRIAL_CASES)
def test_native_trial_records_equal_the_python_path(monkeypatch, sampler, n, k, phi, limits,
                                                    shows):
    params = an.ModelParams.from_phi(n, k, phi)
    ctx = mc.make_trial_context(params, sampler, 7, **limits)
    classified = []
    classify = wt.classify_nontrivial_clique
    monkeypatch.setattr(wt, "classify_nontrivial_clique",
                        lambda H, w, *a: classified.append((H, tuple(w))) or classify(H, w, *a))
    want = reference_rows(ctx, 0, 20)
    oracle_events = list(classified)
    classified.clear()
    records = mc.run_trials(params, 20, sampler, 7, **limits)
    witnesses = list(classified)
    assert records == mc._records(ctx, want)
    assert mc._run_batch(ctx, 0, 20) == want    # one row format on both paths
    Hs = graphs(params, sampler, 20)
    # a batch that starts mid-way
    assert mc._records(ctx, mc._run_batch(ctx, 7, 20), 7) == records[7:]
    assert shows(records, Hs, sampler)
    # the native trial rebuilds a failing trial's sample from its words only
    # for the event classifier, on the cliques the oracle classifies there
    assert witnesses == oracle_events
    assert {H for H, _ in witnesses} <= {H for H, r in zip(Hs, records) if r.ekr_holds is False}


def test_native_batch_reuses_its_scratch_across_the_edge_cap(monkeypatch):
    # one kernel batch grows its star and adjacency block to its largest
    # trial and reuses it.  At (24, 3, phi = 8), m ~ 64: with the edge cap at
    # 66, trials fall above the cap (no search) and below it on both sides of
    # W = ceil(m / 64) = 1 | 2, and each must equal its trial on the Python
    # sampler and search
    ctx = mc.make_trial_context(an.ModelParams.from_phi(24, 3, 8.0), "conditioned", 3,
                                edge_cap=66)
    want = mc._records(ctx, reference_rows(ctx, 0, 40))
    batches = []
    trials = _native.trials
    monkeypatch.setattr(_native, "trials", lambda *a, **kw: batches.append(1) or trials(*a, **kw))
    records = mc._records(ctx, mc._run_batch(ctx, 0, 40))
    assert batches == [1]
    assert records == want
    ms = [r.m for r in records]
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
        _native.kernel(30)
        limit = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        resource.setrlimit(resource.RLIMIT_AS, (limit + (1 << 30),) * 2)
        sys.exit(cli.main(["sweep", "--n", "30", "--k", "6", "--grid-start", "59377.5",
                           "--grid-stop", "59377.5", "--grid-points", "1", "--trials", "1"]))
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1].startswith("30,6,59377.5,0.5,1,1,0,nan,")


# The one-word build serves n <= 64, the four-word one n > 64: at n = 63, 64
# and 65, sparse (k = 3: first-fit classes) and dense (k = 22, n < 3k: pair
# matching) families that use vertex n - 1, so vertex 63, the one word's
# last bit, at n = 64 and vertex 64, the wide build's second word, at 65
BOUNDARY_SHAPES = [(n, k) for n in (63, 64, 65) for k in (3, 22)]


def boundary_family(n, k, seed):
    """A conditioned (n, k) family of about 80 edges that uses vertex n - 1."""
    H = oracles.sample("conditioned", n, k, 80 / math.comb(n, k), seed)
    assert any(b >> (n - 1) for b in H.edge_bits)
    return H


def outcome(search, *args):
    """A search's result, or its error's text."""
    try:
        return search(*args)
    except ResourceLimitError as exc:
        return str(exc)


@pytest.mark.parametrize("n, k", BOUNDARY_SHAPES)
def test_kernels_agree_at_the_vertex_width_boundary(monkeypatch, n, k):
    # DECIDE, OMEGA, NONTRIVIAL and GENERIC on the build of width(n) equal
    # the twin, node for node, whether a search finishes or runs out
    H = boundary_family(n, k, n)
    widths = []
    for vw, size in ((1, 64), (4, 256)):
        lib = _native.kernel(size)
        monkeypatch.setitem(_native._lib, vw, lib._replace(
            ekr_search=lambda *a, vw=vw, lib=lib: widths.append(vw) or lib.ekr_search(*a)))
    runs = {}
    for name, kernel in KERNELS.items():
        inst = vf._Instance(H)
        t = max(delta(inst), 3)
        runs[name] = [outcome(kernel.decide, inst, 2_000),
                      outcome(kernel.max_clique, inst, 2_000),
                      outcome(kernel.nontrivial_search, inst, t, 2_000, t - 1),
                      outcome(kernel.nontrivial_search, inst, math.inf, 300, 2),
                      outcome(kernel.generic_search, inst, 4, 1, 2_000)]
    assert runs["python"] == runs["native"]
    assert widths == [1 if n <= 64 else 4] * 5


@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned", "independent"])
@pytest.mark.parametrize("n", [64, 65])
def test_native_trials_at_the_vertex_width_boundary(sampler, n):
    # each sampler's trials and public draws at n = 64 (the one-word build,
    # whose Fisher-Yates pool holds 64 vertices) and n = 65 (the wide one)
    # are the oracle's, vertex n - 1 included; and a batch that decides its
    # trials gives the Python path's rows, failing cliques' words decoded
    # at width(n)
    k, seed = 3, 11
    p = 80 / math.comb(n, k)
    want = [oracles.sample(sampler, n, k, p, np.random.SeedSequence(seed, spawn_key=(t,)))
            for t in range(12)]
    assert any(b >> (n - 1) for H in want for b in H.edge_bits)
    assert kernel_trials(sampler, n, k, p, seed, (), 0, 12) == [(H.m, H.edge_bits)
                                                              for H in want]
    seq = np.random.SeedSequence(seed, spawn_key=(0,))
    if sampler == "bernoulli":
        assert hg.sample_bernoulli(n, k, p, seq) == want[0]
    elif sampler == "conditioned":
        assert hg.sample_conditioned(n, k, p, seq)[0] == want[0]
    else:
        assert hg.sample_independent(n, k, 3 * n, seq) == oracles.sample_independent(
            n, k, 3 * n, seq)
    ctx = mc.make_trial_context(an.ModelParams.from_phi(n, k, 1.0), sampler, seed)
    rows = mc._run_batch(ctx, 0, 20)
    assert rows == reference_rows(ctx, 0, 20)
    assert any(row[3] > 0 for row in rows)      # failing cliques, decoded from words


def raw_search(size, mode, H, floor, target, zeta, budget):
    """(status, result slots, clique buffer) of one ekr_search call on the
    build for size vertices, H's edges in that build's words."""
    m = H.m
    clique, result = (ctypes.c_int32 * max(m, 1))(), (ctypes.c_int64 * 4)()
    status = _native.kernel(size).ekr_search(mode, m, _native.vertex_words(H.edge_bits, size),
                                             vf._dense_pairs(H.n, H.k), floor, target, zeta,
                                             budget, clique, result)
    return status, tuple(result), tuple(clique)


@pytest.mark.parametrize("H", [
    *[pytest.param(boundary_family(n, k, n), id=f"({n},{k})")
      for n, k in BOUNDARY_SHAPES if n <= 64],
    pytest.param(frontier_sample(), id="(14,5) frontier"),
    pytest.param(hg.sample_conditioned(24, 3, 3 / math.comb(23, 2), 2)[0], id="(24,3)"),
    pytest.param(hg.sample_independent(7, 3, 30, 3), id="repeated edges")])
@pytest.mark.parametrize("budget", [40, 20_000])
def test_both_builds_search_a_one_word_family_alike(H, budget):
    # a family on n <= 64 vertices, searched by the one-word build and by
    # the wide one on its four-word input, gives equal status, result slots
    # (Delta, omega or best, size, nodes) and clique, in every mode, whether
    # the search finishes or runs out
    t = max(reference_stats(H)[0], 3)
    for mode, floor, target, zeta in ((_native.DECIDE, 0, 0, 0), (_native.OMEGA, 0, H.m + 1, 0),
                                      (_native.NONTRIVIAL, t - 1, t, 0),
                                      (_native.NONTRIVIAL, 2, H.m + 1, 0),
                                      (_native.GENERIC, 3, 4, 1), (_native.GENERIC, 4, 5, 2)):
        if mode == _native.DECIDE and H.has_duplicates():
            continue
        runs = [raw_search(size, mode, H, floor, target, zeta, budget) for size in (64, 256)]
        assert runs[0] == runs[1], mode


def test_both_builds_sweep_alike(monkeypatch):
    # the README shape's sweep, and a witness-heavy one, on the wide build
    # (every n given four words) give the one-word build's CSV byte for byte
    readme_grid = [0.3 * (20.0 / 0.3) ** (i / 11) for i in range(12)]
    cases = [(24, 3, readme_grid, 20, 1, "conditioned"),
             (12, 3, [0.5, 2.0, 4.0], 30, 9, "bernoulli"),
             (12, 3, [2.0], 30, 4, "independent")]

    def csvs():
        return [mc.sweep_table_to_csv(mc.estimate_ekr_curve(
            n, k, grid, trials=trials, seed=seed, sampler_mode=sampler))
            for n, k, grid, trials, seed, sampler in cases]
    narrow = csvs()
    monkeypatch.setattr(_native, "width", lambda n: 4)
    assert csvs() == narrow
