import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekrlab import analytics as an
from ekrlab import exact
from ekrlab import hypergraph as hg
from ekrlab.errors import DomainError, ParseError, ResourceLimitError


def H_from(n, k, edges):
    return hg.Hypergraph.from_edges(n, k, edges)


# ---------------------------------------------------------------------------
# Hypergraph basics
# ---------------------------------------------------------------------------

def test_edge_bitsets_validated():
    H = H_from(6, 3, [(5, 0, 3)])
    assert H.edge_bits == (0b101001,) and hg.edge_members(H.edge_bits[0]) == (0, 3, 5)
    assert (exact.colex_rank(hg.edge_members(H.edge_bits[0]))
            == math.comb(0, 1) + math.comb(3, 2) + math.comb(5, 3))
    for make in (hg.Hypergraph, hg.Hypergraph.from_edge_bits):
        with pytest.raises(DomainError, match="popcount"):
            make(6, 2, (0b11, 0b111))
        with pytest.raises(DomainError, match="members >= n"):
            make(4, 2, (0b10001,))
        with pytest.raises(DomainError, match="n <= 256"):
            make(300, 3, (0b111,))
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
    # the rule Hypergraph applies, before a single draw
    for sample in (lambda rng: hg.sample_independent(n, k, 1, rng),
                   lambda rng: hg.sample_bernoulli(n, k, 0.5, rng),
                   lambda rng: hg.sample_conditioned(n, k, 0.5, rng)):
        rng = hg.generator(0)
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
    H = hg.sample_bernoulli(n, k, 0.3, seed, cap=10**6)
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
def test_star_maxima_match_degree_stats(seed, n, m, family):
    # event R's one pass reads the maxima degree_stats reports
    k = 1 + seed % min(5, n - 1)
    H = hg.sample_independent(n, k, 0 if family == "empty" else m, seed)
    if family == "set":
        H = H.dedupped()
    stats = hg.degree_stats(H)
    stars = hg._vertex_stars(n, [hg.edge_members(b) for b in H.edge_bits])
    assert hg._star_maxima(stars) == (max(stats.pair_deg.values(), default=0),
                                      max(len(w) for w in stats.W.values()))
    if n > 2 * k:
        params = an.ModelParams.from_phi(n, k, 1.0)
        assert (hg.check_event_r(H, params, alpha=1, beta=3)
                == hg.check_event_r(H, params, stats=stats, alpha=1, beta=3))


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
    ranks = [exact.colex_rank(hg.edge_members(b)) for b in H.edge_bits]
    assert ranks == sorted(ranks)


def test_bernoulli_cap():
    with pytest.raises(ResourceLimitError):
        hg.sample_bernoulli(60, 10, 0.01, 0, cap=10**6)


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
                                 (24, 20), (70, 2)])
def test_batch_unrank_matches_colex_unrank(n, k):
    # (24, 20): columns C(v, i) for i < k exceed C(24, 20) and get clipped;
    # (70, 2): edge bitsets wider than 64 bits
    N = math.comb(n, k)
    expect = [exact.mask_from(exact.colex_unrank(r, k)) for r in range(N)]
    assert hg._colex_unrank_bits(np.arange(N), n, k) == expect
    shuffled = np.random.Generator(np.random.Philox(n * 100 + k)).permutation(N)
    assert hg._colex_unrank_bits(shuffled, n, k) == [expect[r] for r in shuffled]
    assert hg._colex_unrank_bits([], n, k) == []


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
    rng = hg.generator(10)
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
            assert hg.Hypergraph.from_edge_bits(H.n, H.k, H.edge_bits) == H


def scalar_distinct_ranks(rng, N, m):
    """Reference for _distinct_ranks: Floyd's algorithm, one scalar draw
    per step."""
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
        fast, slow = hg.generator(seed), hg.generator(seed)
        assert hg._distinct_ranks(fast, N, m) == scalar_distinct_ranks(slow, N, m), seed
        assert repr(fast.bit_generator.state) == repr(slow.bit_generator.state), seed


def _rank_mask(H):
    mask = 0
    for b in H.edge_bits:
        mask |= 1 << exact.colex_rank(hg.edge_members(b))
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
    hg.write_hypergraph(H, path)
    text = path.read_text()
    H2 = hg.read_hypergraph(path)
    assert H2.edge_bits == H.edge_bits and (H2.n, H2.k) == (H.n, H.k)
    hg.write_hypergraph(H2, path)
    assert path.read_text() == text   # bit-exact round trip


@pytest.mark.parametrize("bad", [
    "",                       # empty
    "3 2\n1 2\n",             # short header
    "x 2 1\n1 2\n",           # non-integer header
    "6 2 2\n1 2\n",           # wrong edge count
    "6 2 1\n1 2 3\n",         # wrong k
    "6 2 1\n0 2\n",           # out of range (1-based)
    "6 2 1\n2 2\n",           # not strictly increasing
    "6 2 1\n2 1\n",           # not sorted
    "6 2 1\n1 7\n",           # vertex > n
    "6 7 0\n",                # k > n, with no edge to show it
    "300 3 0\n",              # n past the bitset width cap
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        hg.parse_hypergraph(bad)


def test_parse_multiset_allowed():
    H = hg.parse_hypergraph("6 2 2\n1 2\n1 2\n")
    assert H.m == 2 and H.has_duplicates()
    H2 = hg.parse_hypergraph("6 2 2\n1 2\n1 3\n")
    assert not H2.has_duplicates()
