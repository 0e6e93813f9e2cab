import ast
import inspect
import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrlab import analytics as an
from ekrlab import exact
from ekrlab import hypergraph as hg
from ekrlab.errors import DomainError, ParseError, ResourceLimitError
import oracles
from oracles import colex_rank, colex_unrank


def H_from(n, k, edges):
    return hg.Hypergraph.from_edges(n, k, edges)


# ---------------------------------------------------------------------------
# Hypergraph basics
# ---------------------------------------------------------------------------

def test_edge_bitsets_validated():
    H = H_from(6, 3, [(5, 0, 3)])
    assert H.edge_bits == (0b101001,) and hg.edge_members(H.edge_bits[0]) == (0, 3, 5)
    assert (colex_rank(hg.edge_members(H.edge_bits[0]))
            == math.comb(0, 1) + math.comb(3, 2) + math.comb(5, 3))
    with pytest.raises(DomainError, match="popcount"):
        hg.Hypergraph(6, 2, (0b11, 0b111))
    with pytest.raises(DomainError, match="members >= n"):
        hg.Hypergraph(4, 2, (0b10001,))
    with pytest.raises(DomainError, match="n <= 256"):
        hg.Hypergraph(300, 3, (0b111,))
    with pytest.raises(DomainError, match="popcount"):
        H_from(6, 3, [(0, 1, 1)])                  # a repeated member
    with pytest.raises(DomainError, match="members >= n"):
        H_from(4, 2, [(0, 4)])
    # a negative member used to escape as ValueError: negative shift count
    for edge in ((-1, 2), (0, -3), (-2, -1)):
        with pytest.raises(DomainError, match="members < 0"):
            H_from(6, 2, [(0, 1), edge])
    with pytest.raises(DomainError, match="n <= 256"):
        H_from(300, 3, [(0, 1, 2)])
    # (n, k) is checked when there is no edge to check it against, too
    for n, k in ((6, 7), (300, 3), (6, 0)):
        with pytest.raises(DomainError, match="n <= 256"):
            hg.Hypergraph(n, k, ())


def test_equal_edges_share_bits_and_members_through_a_bounded_cache():
    from itertools import islice
    a = hg.parse_hypergraph("12 3 1\n4 10 12\n")
    b = hg.parse_hypergraph("12 3 2\n1 2 3\n4 10 12\n")
    # two parses, one int object for the equal edge (2568 is no small int)
    assert a.edge_bits[0] == 0b101000001000 and a.edge_bits[0] is b.edge_bits[1]
    fresh = int("101000001000", 2)
    assert hg.edge_members(fresh) is hg.edge_members(a.edge_bits[0]) == (3, 9, 11)
    # more distinct k-sets than the cache keeps: it stays at its bound
    for c in islice(combinations(range(30), 4), hg.MEMBERS_CACHE + 100):
        assert hg.edge_members(exact.mask_from(c)) == c
    info = hg._shared.cache_info()
    assert info.maxsize == hg.MEMBERS_CACHE == info.currsize
    # an evicted edge is rebuilt equal, and old families keep their own
    again = H_from(12, 3, [(3, 9, 11)])
    assert again == a and hg.edge_members(again.edge_bits[0]) == (3, 9, 11)


def test_hypergraph_dedupped():
    H = H_from(6, 2, [(0, 1), (2, 3), (0, 1)])
    assert H.has_duplicates()
    D = H.dedupped()
    assert not D.has_duplicates() and D.edge_bits == (0b11, 0b1100)


@pytest.mark.parametrize("n, k", [(10, 11), (300, 3), (5, 0)])
def test_samplers_check_n_k_before_drawing(n, k):
    # the rule Hypergraph applies, before a single draw, and before the seed
    # is read: a Generator is no seed the samplers take
    for sample in (lambda rng: hg.sample_independent(n, k, 1, rng),
                   lambda rng: hg.sample_bernoulli(n, k, 0.5, rng),
                   lambda rng: hg.sample_conditioned(n, k, 0.5, rng)):
        rng = oracles.generator(0)
        state = repr(rng.bit_generator.state)
        with pytest.raises(DomainError, match="0 < k <= n <= 256"):
            sample(rng)
        assert repr(rng.bit_generator.state) == state


# ---------------------------------------------------------------------------
# degree stats
# ---------------------------------------------------------------------------

def test_degree_stats_star():
    n, k = 5, 2
    star = [e for e in combinations(range(n), k) if 0 in e]
    st_ = hg.degree_stats(H_from(n, k, star))
    assert st_.deg[0] == 4 == st_.Delta == math.comb(n - 1, k - 1)


def test_degree_stats_triangle_and_pairs():
    st_ = hg.degree_stats(H_from(6, 2, [(0, 1), (0, 2), (1, 2)]))
    assert st_.deg[:3] == (2, 2, 2)
    assert all(len(w) == 0 for w in st_.W.values())   # all pair degrees 1
    H = H_from(6, 3, [(0, 1, 2), (0, 1, 3)])
    st2 = hg.degree_stats(H)
    assert st2.pair_deg[(0, 1)] == 2
    assert st2.W[0] == frozenset({1}) and st2.W[1] == frozenset({0})


@given(st.integers(0, 60), st.integers(2, 8))
def test_degree_stats_invariants(seed, n):
    k = 2 if n < 6 else 3
    H = hg.sample_bernoulli(n, k, 0.3, seed)
    st_ = hg.degree_stats(H)
    assert sum(st_.deg) == k * H.m
    for (x, y), c in st_.pair_deg.items():
        assert c <= min(st_.deg[x], st_.deg[y])
        assert (y in st_.W[x]) == (x in st_.W[y])


def oracle_degree_stats(H):
    """Per-edge pair loop, independent of the star masks."""
    deg = [0] * H.n
    pair = {}
    for b in H.edge_bits:
        mem = hg.edge_members(b)
        for v in mem:
            deg[v] += 1
        for x, y in combinations(mem, 2):
            pair[(x, y)] = pair.get((x, y), 0) + 1
    W = {x: set() for x in range(H.n)}
    for (x, y), c in pair.items():
        if c >= 2:
            W[x].add(y)
            W[y].add(x)
    return hg.DegreeStats(tuple(deg), max(deg) if deg else 0,
                          pair, {x: frozenset(s) for x, s in W.items()})


@given(st.integers(0, 10**6), st.integers(3, 16), st.integers(0, 40),
       st.sampled_from(["set", "multiset", "empty"]))
def test_degree_stats_matches_oracle(seed, n, m, family):
    k = 1 + seed % min(5, n - 1)
    H = hg.sample_independent(n, k, 0 if family == "empty" else m, seed)
    if family == "set":
        H = H.dedupped()
    assert hg.degree_stats(H) == oracle_degree_stats(H)


@given(st.integers(0, 10**6), st.integers(3, 16), st.integers(0, 40),
       st.sampled_from(["set", "multiset", "empty"]))
def test_check_event_r_reads_degree_stats(seed, n, m, family):
    # the same report with stats= or without (degree_stats(H)), its pair and
    # |W_x| conjuncts as the per-edge oracle's maxima give them
    k = 1 + seed % min(5, n - 1)
    H = hg.sample_independent(n, k, 0 if family == "empty" else m, seed)
    if family == "set":
        H = H.dedupped()
    if n > 2 * k:
        params = an.ModelParams.from_phi(n, k, 1.0)
        report = hg.check_event_r(H, params, alpha=1, beta=3)
        assert report == hg.check_event_r(H, params, stats=hg.degree_stats(H), alpha=1, beta=3)
        oracle = oracle_degree_stats(H)
        assert report.Delta == oracle.Delta
        assert report.pair_deg_le_8 == (max(oracle.pair_deg.values(), default=0) <= 8)
        assert report.wx_bounded == (max(map(len, oracle.W.values())) < report.w_bound)


def test_degree_stats_invariant_under_shuffle():
    H = hg.sample_bernoulli(10, 3, 0.2, 7)
    rng = np.random.default_rng(0)
    perm = rng.permutation(H.m)
    H2 = hg.Hypergraph(H.n, H.k, tuple(H.edge_bits[i] for i in perm))
    a, b = hg.degree_stats(H), hg.degree_stats(H2)
    assert a.deg == b.deg and a.Delta == b.Delta and a.pair_deg == b.pair_deg


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_bernoulli_endpoints():
    assert hg.sample_bernoulli(8, 2, 0.0, 3).m == 0
    H = hg.sample_bernoulli(8, 2, 1.0, 3)
    assert H.m == math.comb(8, 2)
    # colex order
    ranks = [colex_rank(hg.edge_members(b)) for b in H.edge_bits]
    assert ranks == sorted(ranks)


def test_bernoulli_cap():
    # C(n, k) <= 10**7 k-sets enumerated: C(33, 8) = 1.39e7 is refused
    # before any draw, C(60, 10) = 7.5e10 too
    for n, k in ((33, 8), (60, 10)):
        with pytest.raises(ResourceLimitError, match="enumeration cap 10000000"):
            hg.sample_bernoulli(n, k, 0.01, 0)


def test_bernoulli_mean_count():
    n, k, p, T = 10, 3, 0.2, 2000
    N = math.comb(n, k)
    total = sum(hg.sample_bernoulli(n, k, p, np.random.SeedSequence(1, spawn_key=(t,))).m
                for t in range(T))
    mean = total / T
    sigma = math.sqrt(N * p * (1 - p) / T)
    assert abs(mean - p * N) <= 3 * sigma


def test_determinism_same_seed_bit_identical():
    for sampler in (lambda s: hg.sample_bernoulli(12, 3, 0.1, s),
                    lambda s: hg.sample_independent(12, 3, 20, s),
                    lambda s: hg.sample_conditioned(12, 3, 0.1, s)[0]):
        a, b = sampler(99), sampler(99)
        assert a.edge_bits == b.edge_bits


@pytest.mark.parametrize("n,k", [(1, 1), (9, 1), (9, 8), (10, 4), (12, 6),
                                 (24, 20), (70, 2), (256, 2), (256, 255)])
def test_batch_unrank_matches_colex_unrank(n, k):
    # (24, 20): columns C(v, i) for i < k exceed C(24, 20) and get clipped;
    # (70, 2) and (256, 2): edge bitsets wider than 64 bits.  The kernel
    # unranks every rank at p = 1, on the column table it builds in C
    N = math.comb(n, k)
    expect = [exact.mask_from(colex_unrank(r, k)) for r in range(N)]
    assert list(hg.sample_bernoulli(n, k, 1.0, 0).edge_bits) == expect
    assert oracles.colex_unrank_bits(np.arange(N), n, k) == expect
    shuffled = np.random.Generator(np.random.Philox(n * 100 + k)).permutation(N)
    assert oracles.colex_unrank_bits(shuffled, n, k) == [expect[r] for r in shuffled]
    assert oracles.colex_unrank_bits([], n, k) == []


def test_independent_m0_empty():
    H = hg.sample_independent(9, 3, 0, 1)
    assert H.m == 0 and H.edge_bits == ()


def test_independent_marginal_uniformity():
    # each of the C(5,2)=10 sets with frequency 1/10 +- 3 sigma
    n, k, T = 5, 2, 100_000
    H = hg.sample_independent(n, k, T, 4)
    counts = Counter(H.edge_bits)
    sigma = math.sqrt(T * 0.1 * 0.9)
    for bits in (exact.mask_from(c) for c in combinations(range(n), k)):
        assert abs(counts[bits] - T / 10) <= 3 * sigma


def test_independent_degree_mean():
    n, k, m = 100, 5, 10_000
    H = hg.sample_independent(n, k, m, 11)
    st_ = hg.degree_stats(H)
    want = m * k / n
    sigma = math.sqrt(m * (k / n) * (1 - k / n))
    for x in range(0, n, 7):
        assert abs(st_.deg[x] - want) <= 4 * sigma


def test_independent_pairwise_intersection_frequency():
    # q(6,3) = 19/20; consecutive draw pairs are independent uniform pairs
    n, k, m = 6, 3, 100_000
    H = hg.sample_independent(n, k, m, 5)
    bits = H.edge_bits
    hits = sum(1 for i in range(0, m - 1, 2) if bits[i] & bits[i + 1])
    trials = m // 2
    q = float(an.intersection_probability(n, k))
    sigma = math.sqrt(trials * q * (1 - q))
    assert abs(hits - trials * q) <= 3 * sigma


def test_conditioned_matches_bernoulli_law():
    # total-variation distance over edge-set distributions, n=6, k=2; p is
    # small enough that the pure sampling-noise floor sits below the 0.02 bar
    n, k, p, T = 6, 2, 0.04, 100_000
    N = math.comb(n, k)
    rng = oracles.generator(10)
    draws = rng.random((T, N)) < p
    weights = 1 << np.arange(N, dtype=np.uint64)
    cb = Counter((draws * weights).sum(axis=1).tolist())
    cc = Counter()
    for t in range(T):
        cc[_rank_mask(hg.sample_conditioned(n, k, p, np.random.SeedSequence(11, spawn_key=(t,)))[0])] += 1
    keys = set(cb) | set(cc)
    tv = 0.5 * sum(abs(cb[key] - cc[key]) / T for key in keys)
    assert tv < 0.02


def test_sampler_output_passes_the_public_constructor():
    # the samplers build through the unchecked constructor; rebuilding their
    # output through the validating one gives an equal hypergraph
    for seed in range(5):
        seq = np.random.SeedSequence(seed)
        for H in (hg.sample_bernoulli(12, 4, 0.1, seq), hg.sample_bernoulli(9, 3, 1.0, seq),
                  hg.sample_conditioned(256, 3, 1e-5, seq)[0],
                  hg.sample_conditioned(7, 7, 1.0, seq)[0],
                  hg.sample_independent(256, 5, 40, seq),
                  hg.sample_independent(6, 3, 30, seq).dedupped()):
            assert hg.Hypergraph(H.n, H.k, H.edge_bits) == H


def scalar_distinct_ranks(rng, N, m):
    """Reference for oracles.distinct_ranks: Floyd's algorithm, one scalar
    draw per step."""
    chosen = set()
    for j in range(N - m, N):
        t = int(rng.integers(0, j + 1))
        chosen.add(t if t not in chosen else j)
    return sorted(chosen)


@pytest.mark.parametrize("N, m", [(2024, 0), (2024, 1), (2024, 2024), (2024, 200),
                                  (10**7, 50), (2**32 - 5, 10), (2**32 + 7, 10),
                                  (2**40, 20), (2**62, 5)])
def test_distinct_ranks_match_scalar_draws(N, m):
    # the same ranks, and the generator left in the same state
    for seed in range(30):
        fast, slow = oracles.generator(seed), oracles.generator(seed)
        assert oracles.distinct_ranks(fast, N, m) == scalar_distinct_ranks(slow, N, m), seed
        assert repr(fast.bit_generator.state) == repr(slow.bit_generator.state), seed


def scalar_independent_bits(rng, n, k, m):
    """Reference for oracles.sample_independent: partial Fisher-Yates over
    one pool of [n], one scalar draw per step."""
    pool, bits = list(range(n)), []
    for _ in range(m):
        b = 0
        for j in range(k):
            t = j + int(rng.integers(0, n - j))
            pool[j], pool[t] = pool[t], pool[j]
            b |= 1 << pool[j]
        bits.append(b)
    return tuple(bits)


@pytest.mark.parametrize("n, k, m", [(9, 3, 0), (9, 3, 1), (12, 3, 200), (7, 7, 5),
                                     (256, 256, 3), (256, 5, 40), (30, 1, 500),
                                     (20, 6, oracles.FY_CHUNK // 6 + 1),     # two chunks
                                     (256, 255, oracles.FY_CHUNK // 255 + 3)])
def test_independent_matches_scalar_draws(n, k, m):
    # the oracle's chunked draws give the same edges, in order, and leave
    # the generator in the same state as one scalar draw per step; the
    # kernel's draws are the same edges
    for seed in range(3):
        fast, slow = oracles.generator(seed), oracles.generator(seed)
        want = scalar_independent_bits(slow, n, k, m)
        assert oracles.sample_independent(n, k, m, fast).edge_bits == want, seed
        assert repr(fast.bit_generator.state) == repr(slow.bit_generator.state), seed
        assert hg.sample_independent(n, k, m, seed).edge_bits == want, seed


def _rank_mask(H):
    mask = 0
    for b in H.edge_bits:
        mask |= 1 << colex_rank(hg.edge_members(b))
    return mask


def test_conditioned_edge_count_chi_square():
    from scipy.stats import chisquare
    n, k, p, T = 8, 2, 0.5, 100_000
    N = math.comb(n, k)
    counts = Counter(hg.sample_conditioned(n, k, p, np.random.SeedSequence(12, spawn_key=(t,)))[0].m
                     for t in range(T))
    pmf = [float(math.comb(N, j)) * p**j * (1 - p) ** (N - j) for j in range(N + 1)]
    # pool tails so expected counts stay >= ~5
    lo = next(j for j in range(N + 1) if pmf[j] * T >= 5)
    hi = next(j for j in range(N, -1, -1) if pmf[j] * T >= 5)
    obs = [sum(c for j, c in counts.items() if j <= lo)]
    exp = [sum(pmf[: lo + 1]) * T]
    for j in range(lo + 1, hi):
        obs.append(counts.get(j, 0))
        exp.append(pmf[j] * T)
    obs.append(sum(c for j, c in counts.items() if j >= hi))
    exp.append(sum(pmf[hi:]) * T)
    stat, pval = chisquare(obs, exp)
    assert pval > 0.01


def test_conditioned_law_above_the_old_enumeration_cap():
    # (100, 5), phi = 20: N = C(100, 5) = 7.5e7, beyond the 10**7 that
    # bernoulli enumerates.  m ~ Bin(N, p): mean N p = 400 and variance
    # N p (1 - p) within 5 standard errors over T trials (the variance's
    # error is about var sqrt(2 / (T - 1))); each vertex's degree d(x) ~
    # Bin(C(99, 4), p) has mean phi, within 5 standard errors sqrt(phi / T)
    n, k, phi, T = 100, 5, 20.0, 500
    N, p = math.comb(n, k), phi / math.comb(n - 1, k - 1)
    ms, deg = [], np.zeros(n)
    for t in range(T):
        H, _ = hg.sample_conditioned(n, k, p, np.random.SeedSequence(21, spawn_key=(t,)))
        assert not H.has_duplicates()
        ms.append(H.m)
        deg += np.bincount([v for b in H.edge_bits for v in hg.edge_members(b)], minlength=n)
    mean, var = np.mean(ms), np.var(ms, ddof=1)
    assert abs(mean - N * p) <= 5 * math.sqrt(N * p * (1 - p) / T)
    assert abs(var - N * p * (1 - p)) <= 5 * N * p * (1 - p) * math.sqrt(2 / (T - 1))
    assert np.abs(deg / T - phi).max() <= 5 * math.sqrt(phi / T)


def test_conditioned_refuses_a_huge_expected_edge_count():
    # it enumerates nothing, but p C(n, k) > 10**7 expected edges would take
    # gigabytes: refused before any draw
    for p in (0.5, 1.0001 * 10**7 / math.comb(100, 5)):
        with pytest.raises(ResourceLimitError, match="expected edge count"):
            hg.sample_conditioned(100, 5, p, 0)


def test_independent_coupling_caps_the_expected_edge_count():
    # it drew m ~ Bin(C(n, k), p) edges without bound; now as conditioned
    N = math.comb(100, 5)
    assert hg._check_draws("independent", 100, 5, 10**7 / N) == N
    with pytest.raises(ResourceLimitError, match="expected edge count"):
        hg._check_draws("independent", 100, 5, 2 * 10**7 / N)


def test_sample_dispatches_to_each_sampler():
    # the oracle's trial family per mode, the public samplers' draws;
    # independent is the deduplicated coupling
    def seq():
        return np.random.SeedSequence(4, spawn_key=(2,))

    assert oracles.sample("bernoulli", 12, 3, 0.2, seq()) == hg.sample_bernoulli(
        12, 3, 0.2, seq())
    assert oracles.sample("conditioned", 12, 3, 0.2, seq()) == hg.sample_conditioned(
        12, 3, 0.2, seq())[0]
    rng = oracles.generator(seq())
    m = int(rng.binomial(math.comb(12, 3), 0.2))
    assert oracles.sample("independent", 12, 3, 0.2, seq()) == oracles.sample_independent(
        12, 3, m, rng).dedupped()
    with pytest.raises(DomainError, match="unknown sampler mode"):
        oracles.sample("poisson", 12, 3, 0.2, seq())


def test_hypergraph_imports_no_numpy():
    # the samplers draw in the kernel: no import of hypergraph's, at the top
    # or in a function, names numpy
    tree = ast.parse(inspect.getsource(hg))
    modules = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not [m for m in modules if m and m.split(".")[0] == "numpy"]


@pytest.mark.parametrize("seed", [
    oracles.generator(0), np.random.SeedSequence([1, 2]), np.random.SeedSequence(5, pool_size=8),
    -1, 2.5, None], ids=["Generator", "two-int entropy", "pool_size 8", "-1", "float", "None"])
def test_samplers_refuse_seeds_the_kernel_cannot_rederive(seed):
    # the kernel keys Philox on one int >= 0 and a spawn key, pool_size 4:
    # any other seed is refused before a draw, never drawn on another stream
    for sample in (lambda: hg.sample_bernoulli(9, 3, 0.5, seed),
                   lambda: hg.sample_conditioned(9, 3, 0.5, seed),
                   lambda: hg.sample_independent(9, 3, 4, seed)):
        with pytest.raises(DomainError, match="seed"):
            sample()


def test_conditioned_window_report():
    Hc, win = hg.sample_conditioned(10, 2, 0.0, 3)
    assert Hc.m == 0 and win   # degenerate collapse convention
    _, win2 = hg.sample_conditioned(10, 2, 0.3, 3)
    assert isinstance(win2, bool)


# ---------------------------------------------------------------------------
# event R
# ---------------------------------------------------------------------------

def test_event_r_empty_all_true():
    # the stipulated degenerate case: empty H with alpha = 0
    params = an.ModelParams.from_phi(12, 2, 0)
    H = H_from(12, 2, [])
    ev = hg.check_event_r(H, params, alpha=0, beta=0)
    assert ev.all_hold


def test_event_r_wx_violation_constructed():
    # vertex 0 shares >= 2 edges with enough partners to beat the 6 log n floor
    n, k = 40, 3
    params = an.ModelParams.from_phi(n, k, 0.5)
    w_floor = 6 * math.log(n)
    partners = int(w_floor) + 1
    edges = []
    for y in range(1, partners + 1):
        edges.append(tuple(sorted((0, y, partners + 1))))
        edges.append(tuple(sorted((0, y, partners + 2))))
    H = H_from(n, k, set(edges))
    ev = hg.check_event_r(H, params)
    assert not ev.wx_bounded
    assert len(hg.degree_stats(H).W[0]) >= ev.w_bound


def test_event_r_probability_trend():
    # finite-n trend for the high-probability event R at (n=60, k=3, phi=2,
    # small regime).  Threshold 0.80 is a pilot-calibrated artifact constant
    # (pilot: 0.856 +- 0.006 over 3000 trials), not a reference number.
    n, k, phi, T = 60, 3, 2.0, 1000
    params = an.ModelParams.from_phi(n, k, phi)
    from ekrlab.analytics import compute_alpha_beta
    ab = compute_alpha_beta(params)
    hold = 0
    for t in range(T):
        H, _ = hg.sample_conditioned(n, k, float(params.p),
                                     np.random.SeedSequence(404, spawn_key=(t,)),
                                     psi=params.psi)
        ev = hg.check_event_r(H, params, alpha=ab.alpha, beta=ab.beta)
        hold += ev.all_hold
    assert hold / T >= 0.80


def test_event_r_pair_degree_cap():
    n, k = 14, 3
    params = an.ModelParams.from_phi(n, k, 1.0)
    edges = [(0, 1, z) for z in range(2, 11)]   # d(0,1) = 9 > 8
    ev = hg.check_event_r(H_from(n, k, edges), params)
    assert not ev.pair_deg_le_8


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_file_round_trip_exact(tmp_path):
    H = hg.sample_bernoulli(9, 3, 0.3, 21)
    path = tmp_path / "h.txt"
    text = hg.dump_hypergraph(H)
    path.write_text(text)
    H2 = hg.read_hypergraph(path)
    assert H2.edge_bits == H.edge_bits and (H2.n, H2.k) == (H.n, H.k)
    assert hg.dump_hypergraph(H2) == text   # bit-exact round trip


PARSE_ERRORS = [
    ("", "empty hypergraph file"),
    ("3 2\n1 2\n", "header must be 'n k m', got '3 2'"),              # short header
    ("x 2 1\n1 2\n", "non-integer header field: 'x 2 1'"),
    ("6 2 2\n1 2\n", "header says m=2 but file has 1 edge lines"),
    ("6 2 1\n1 2 3\n", "line 2: expected 2 vertices, got 3"),         # wrong k
    ("6 2 1\n0 2\n", "line 2: vertex out of range 1..6"),             # 1-based
    ("6 2 1\n2 2\n", "line 2: vertices must be strictly increasing"),
    ("6 2 1\n2 1\n", "line 2: vertices must be strictly increasing"), # not sorted
    ("6 2 1\n1 7\n", "line 2: vertex out of range 1..6"),             # vertex > n
    ("6 7 0\n", "need 0 < k <= n <= 256; got n=6, k=7"),    # k > n, with no edge to show it
    ("300 3 0\n", "need 0 < k <= n <= 256; got n=300, k=3"),  # n past the bitset width cap
]


@pytest.mark.parametrize("bad", [bad for bad, _ in PARSE_ERRORS])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        hg.parse_hypergraph(bad)


@pytest.mark.parametrize("bad, message", PARSE_ERRORS + [
    # every line is checked, in order, before the header's (n, k)
    ("300 3 2\n1 2 299\n1 1 1\n", "line 3: vertices must be strictly increasing"),
    ("300 3 1\n1 2 299\n", "need 0 < k <= n <= 256; got n=300, k=3"),
    (f"{10**15} 3 1\n1 2 {10**15 - 1}\n", f"need 0 < k <= n <= 256; got n={10**15}, k=3"),
    ("6 7 1\n1 2\n", "line 2: expected 7 vertices, got 2"),
    ("6 2 1\n1 99999999999999999\n", "line 2: vertex out of range 1..6"),
    ("6 2 1\n-1 2\n", "line 2: vertex out of range 1..6"),
    ("6 2 2\n1 2\n3 x\n", "line 3: non-integer vertex"),
    # a line's number counts the blank lines before it
    ("6 2 2\n\n1 2\n3 x\n", "line 4: non-integer vertex"),
    ("6 2 2\n1 2\n\n  \n3 3\n", "line 5: vertices must be strictly increasing"),
    # \x0c, \x85 and \u2028 separate tokens and end no line: the numbers
    # after them count only \n, \r\n and \r
    ("6 2 2\n1\x0c2\n3 x\n", "line 3: non-integer vertex"),
    ("6 2 2\r\n1\x852\r\n\u20283 3\r\n", "line 3: vertices must be strictly increasing"),
    ("6 2 2\r1 2\r\n1\u20282 3\r", "line 3: expected 2 vertices, got 3"),
    # the header's repr carries no \r from a \r\n line end
    ("6 2\r\n1 2\r\n", "header must be 'n k m', got '6 2'"),
    ("6 2 x\r\n1 2\r\n", "non-integer header field: '6 2 x'"),
])
def test_parse_error_messages(bad, message):
    with pytest.raises(ParseError) as err:
        hg.parse_hypergraph(bad)
    assert str(err.value) == message


# tokens the token table does not hold, which the parser reads by int():
# a leading zero or sign, an Arabic-Indic 3, an underscore, out of range,
# not an integer
OFF_TABLE_TOKENS = ["05", "+7", "\u0663", "1_0", "0", "-1", str(10**18), "1.5"]
SEPARATORS = [" "] * 4 + ["\t", "\xa0"]
# str.splitlines would end a line at these; the parsers keep them inside it
LINE_SEPARATORS = SEPARATORS + ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]


@st.composite
def hypergraph_texts(draw):
    """Files of canonical edges, some lines flawed: an off-table token or
    n + 1, a repeat, descending, short or long; tokens split by any
    whitespace (\\x0b, \\x0c, \\x85, \\u2028 among them, which end no
    line), blank lines, \\r\\n line ends, and n past MAX_N."""
    n = draw(st.sampled_from([3, 6, 9, 14, 64, 65, 256, 257, 300]))
    k = draw(st.integers(1, 4))
    separators = draw(st.sampled_from([SEPARATORS] * 3 + [LINE_SEPARATORS]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        tokens = [str(v) for v in sorted(draw(st.sets(st.integers(1, n), min_size=min(k, n),
                                                          max_size=min(k, n))))]
        flaw = draw(st.sampled_from([None] * 5 + ["off", "repeat", "descending", "short", "long"]))
        i = draw(st.integers(0, len(tokens) - 1))
        if flaw == "off":
            tokens[i] = draw(st.sampled_from(OFF_TABLE_TOKENS + [str(n + 1)]))
        elif flaw == "repeat" and i:
            tokens[i] = tokens[i - 1]
        elif flaw == "descending":
            tokens.reverse()
        elif flaw == "short":
            tokens.pop()
        elif flaw == "long":
            tokens.append(str(draw(st.integers(1, n))))
        line = "".join(tok + draw(st.sampled_from(separators)) for tok in tokens)
        lines += [line.rstrip(" ")] + [" "] * draw(st.integers(0, 1))
    m = len([ln for ln in lines if ln.strip()]) + draw(st.sampled_from([0] * 10 + [-1, 1]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([f"{n} {k} {m}"] + lines) + end


def parsed(parse, text):
    try:
        H = parse(text)
    except ParseError as exc:
        return str(exc)
    return H.n, H.k, H.edge_bits


@settings(max_examples=400)
@given(hypergraph_texts())
def test_parse_matches_the_int_parser(text):
    assert parsed(hg.parse_hypergraph, text) == parsed(oracles.parse_hypergraph, text)


def test_parse_builds_the_edges_from_edges_builds():
    text = "256 3 4\n1 2 256\n\n4 5 6\n1 2 256\n+7 8 10\n"
    H = hg.parse_hypergraph(text)
    want = hg.Hypergraph.from_edges(256, 3, [(0, 1, 255), (3, 4, 5), (0, 1, 255), (6, 7, 9)])
    assert (H.n, H.k, H.edge_bits) == (want.n, want.k, want.edge_bits)
    assert H.edge_bits[0] is H.edge_bits[2]      # equal edges share one int


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_parse_line_ends_only_at_universal_newlines(sep):
    # str.splitlines would read "1<sep>2" as two lines, so m = 1 would not
    # match; here it is one edge line, its tokens split at sep
    text = f"6 2 2\n1{sep}2\r\n{sep}3 4{sep}\n"
    H = hg.parse_hypergraph(text)
    assert (H.n, H.k, H.edge_bits) == (6, 2, (0b11, 0b1100))
    assert parsed(oracles.parse_hypergraph, text) == (6, 2, (0b11, 0b1100))


def test_parse_multiset_allowed():
    H = hg.parse_hypergraph("6 2 2\n1 2\n1 2\n")
    assert H.m == 2 and H.has_duplicates()
    H2 = hg.parse_hypergraph("6 2 2\n1 2\n1 3\n")
    assert not H2.has_duplicates()
