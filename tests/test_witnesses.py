import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrlab import analytics as an
from ekrlab import hypergraph as hg
from ekrlab import verifier as vf
from ekrlab import witnesses as wt
from ekrlab.errors import DomainError, ResourceLimitError
import oracles
from oracles import KERNELS, brute_force_generic_clique, brute_force_hilton_milner


def H_from(n, k, edges):
    return hg.Hypergraph.from_edges(n, k, edges)


def full_K(n, k):
    return H_from(n, k, list(combinations(range(n), k)))


# ---------------------------------------------------------------------------
# Hilton-Milner
# ---------------------------------------------------------------------------

def test_hm_example():
    H = H_from(6, 2, [(3, 4), (0, 3), (0, 4)])
    w = wt.find_hilton_milner(H, 2)
    assert w is not None and w.center == 0 and w.b0_index == 0
    assert w.size == 3
    assert set(w.petal_indices) == {1, 2}


def test_hm_star_has_none():
    # a k=2 star has no HM witness with two or more petals: petals through
    # x != center all equal the single edge {x, center}
    star = H_from(7, 2, [(0, y) for y in range(1, 7)])
    for d in (2, 3, 4):
        assert wt.find_hilton_milner(star, d) is None
    # d = 1 admits the degenerate pair (B0, {x, center}) by the definition
    w1 = wt.find_hilton_milner(star, 1)
    assert w1 is not None and w1.size == 2


def test_hm_full_K52():
    # the largest HM family in C([5],2) has size 3 (the Hilton-Milner value
    # C(4,1) - C(2,1) + 1), i.e. d = 2 petals; d = 3 is impossible
    w = wt.find_hilton_milner(full_K(5, 2), 2)
    assert w is not None and w.size == 3
    assert wt.find_hilton_milner(full_K(5, 2), 3) is None


def test_hm_d_validation():
    with pytest.raises(DomainError):
        wt.find_hilton_milner(full_K(5, 2), 0)


def test_hm_multiset_counts_multiplicity():
    H = H_from(6, 2, [(3, 4), (0, 3), (0, 3)])
    assert wt.find_hilton_milner(H, 2) is not None
    assert wt.find_hilton_milner(H.dedupped(), 2) is None


def test_hm_vs_brute_force_random():
    built = 0
    t = 0
    while built < 120:
        n, k = (7, 2) if t % 2 else (8, 3)
        H = hg.sample_independent(n, k, 4 + t % 7, np.random.SeedSequence(42, spawn_key=(t,)))
        t += 1
        if H.m > 10:
            continue
        built += 1
        for d in (1, 2, 3):
            assert (wt.find_hilton_milner(H, d) is not None) == \
                brute_force_hilton_milner(H, d), (H.edge_bits, d)


def test_hm_count_bound_exponents():
    params = an.ModelParams.from_phi(40, 3, 2.0)
    # d = 2: phi^3 k^3 n^0
    assert wt.hm_count_bound(params, 2) == pytest.approx(8.0 * 27.0)
    # phi = 1, k = n^(1/3), d = 5 -> n^0 = 1
    n = 27
    params2 = an.ModelParams.from_phi(n, 3, 1.0)
    assert wt.hm_count_bound(params2, 5) == pytest.approx(3.0 ** 9 * n ** (-3.0))
    assert wt.hm_count_bound(params2, 5) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# generic cliques
# ---------------------------------------------------------------------------

def test_generic_triangle_and_star():
    tri = H_from(6, 2, [(0, 1), (0, 2), (1, 2)])
    assert wt.is_generic_clique(tri, [0, 1, 2], 0)
    star4 = H_from(9, 2, [(0, y) for y in (1, 2, 3, 4)])
    assert not wt.is_generic_clique(star4, [0, 1, 2, 3], 10)


def test_generic_zeta_cap_zero():
    # three edges through x: x has degree exactly 3 -> needs zeta_cap >= 1
    H = H_from(10, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6)])
    assert wt.is_generic_clique(H, [0, 1, 2], 1)
    assert not wt.is_generic_clique(H, [0, 1, 2], 0)


def test_generic_requires_clique():
    H = H_from(6, 2, [(0, 1), (2, 3)])
    with pytest.raises(DomainError, match="disjoint"):
        wt.is_generic_clique(H, [0, 1], 5)


def test_generic_nan_zeta_cap_rejected():
    # NaN passes no comparison: the search ran with no cap and returned a
    # clique that is_generic_clique(H, g, nan) rejected
    tri = H_from(6, 2, [(0, 1), (0, 2), (1, 2)])
    for size_t in (0, 3):
        with pytest.raises(DomainError, match="zeta cap"):
            wt.find_generic_clique(tri, size_t, math.nan)
    with pytest.raises(DomainError, match="zeta cap"):
        wt.is_generic_clique(tri, [0, 1, 2], math.nan)
    assert wt.find_generic_clique(tri, 3, math.inf) == (0, 1, 2)


@pytest.mark.parametrize("budget", [0, -5])
def test_find_generic_rejects_invalid_budget(budget):
    H = hg.Hypergraph.from_edges(6, 2, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(DomainError):
        wt.find_generic_clique(H, 0, math.inf, node_budget=budget)


def test_find_generic_examples():
    tri = H_from(6, 2, [(0, 1), (0, 2), (1, 2)])
    assert wt.find_generic_clique(tri, 3, 0) == (0, 1, 2)
    star = H_from(9, 2, [(0, y) for y in (1, 2, 3, 4)])
    assert wt.find_generic_clique(star, 4, 99) is None


def test_find_generic_vs_brute_force():
    # the search takes candidates lowest first and drops only edges it can
    # never take, so it returns the first generic clique of
    # combinations(range(m), t), whatever zeta_cap
    for i in range(40):
        n, m = 7 + i % 4, 8 + i % 13
        H = hg.sample_independent(n, 3, m, np.random.SeedSequence(7, spawn_key=(i,)))
        for size in (2, 3, 4, 5):
            for zeta in (-1, 0, 0.5, 1, 3, math.inf):
                want = brute_force_generic_clique(H, size, zeta)
                got = wt.find_generic_clique(H, size, zeta)
                assert got == want, (H.edge_bits, size, zeta)


def witness_sample(seed):
    return hg.sample_bernoulli(25, 5, 10 / math.comb(24, 4), seed)


# (25, 5, phi=10) samples of H_k(n, p): the generic clique (t=7, zeta=3) and
# the nodes the search visits (one per visited clique), which are the least
# budget at which it decides
@pytest.mark.parametrize("seed, clique, nodes", [
    (4, None, 2034),
    (26, (10, 14, 16, 18, 34, 38, 41), 1098),
])
def test_generic_node_counts_pinned(seed, clique, nodes):
    H = witness_sample(seed)
    for name, kernel in KERNELS.items():
        _, found, used = kernel.generic_search(vf._Instance(H), 7, 3, vf.DEFAULT_NODE_BUDGET)
        assert (found and tuple(found), used) == (clique, nodes), name
    assert wt.find_generic_clique(H, 7, 3, node_budget=nodes) == clique
    with pytest.raises(ResourceLimitError, match="^branch-and-bound node budget exceeded$"):
        wt.find_generic_clique(H, 7, 3, node_budget=nodes - 1)


@pytest.mark.parametrize("seed, clique", [
    (4, None),
    (26, (10, 14, 16, 18, 34, 38, 41)),
])
def test_generic_search_makes_no_dead_children(monkeypatch, seed, clique):
    # a child whose narrowed candidates cannot reach t = 7 is never made: at
    # every node below the root |P| > kmin = t - 1 - |R|; the clique found
    # is the one the node pins name, on the Python twin, which visits the
    # compiled kernel's nodes
    seen = []
    search = oracles.branch_and_bound

    def counting(*args, branches, **kw):
        def wrapped(kmin, P, state):
            seen.append((state != (0, 0, 0), kmin, P.bit_count()))
            return branches(kmin, P, state)
        return search(*args, branches=wrapped, **kw)

    monkeypatch.setattr(oracles, "branch_and_bound", counting)
    _, found, nodes = oracles.generic_search(vf._Instance(witness_sample(seed)), 7, 3,
                                             vf.DEFAULT_NODE_BUDGET)
    assert (found and tuple(found)) == clique
    assert len(seen) == nodes - (found is not None)     # a recording node stops first
    below = [(kmin, size) for child, kmin, size in seen if child]
    assert below and all(size > kmin for kmin, size in below)


@pytest.mark.parametrize("seed", [None, 4, 26])
def test_generic_search_edge_cases(seed):
    # kmin = 0 (size_t = 1), an empty P (the empty family, size_t = m + 1),
    # no feasible child (zeta_cap = -1) and no zeta cap at all, on both
    # kernels: the same results and node counts, decided at exactly that
    # many nodes
    H = hg.Hypergraph(25, 5, ()) if seed is None else witness_sample(seed)
    runs = {}
    for name, kernel in KERNELS.items():
        runs[name] = []
        for size_t in (1, 2, H.m, H.m + 1):
            for zeta in (-1, 0, 0.5, math.inf):
                search = kernel.generic_search(vf._Instance(H), size_t, zeta,
                                               vf.DEFAULT_NODE_BUDGET)
                nodes = search[2]
                assert kernel.generic_search(vf._Instance(H), size_t, zeta, nodes) == search
                with pytest.raises(ResourceLimitError):
                    kernel.generic_search(vf._Instance(H), size_t, zeta, nodes - 1)
                runs[name].append((size_t, zeta, search))
    assert runs["python"] == runs["native"]
    for size_t, zeta, (_, clique, nodes) in runs["native"]:
        found = wt.find_generic_clique(H, size_t, zeta)
        assert found == (None if clique is None else tuple(clique))
        if 1 <= size_t <= H.m and nodes > 1:
            assert wt.find_generic_clique(H, size_t, zeta, node_budget=nodes) == found
            with pytest.raises(ResourceLimitError):
                wt.find_generic_clique(H, size_t, zeta, node_budget=nodes - 1)


@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernels_agree_on_generic_search(seed):
    H = witness_sample(seed)
    runs = {}
    for name, kernel in KERNELS.items():
        try:
            runs[name] = kernel.generic_search(vf._Instance(H), 7, 3, 5_000)
        except ResourceLimitError as exc:
            runs[name] = str(exc)
    assert runs["python"] == runs["native"]


def test_pair_cover_closed_form_is_the_exhaustive_max():
    # the kernel's closed form against every split of the incidences into
    # x steps 1 -> 2, y steps 2 -> 3 and z steps 0 -> 1
    for n1, n2, n3, incidences in np.ndindex(6, 6, 4, 13):
        for zeta in (-1, -0.5, 0, 0.5, 1, 2, 3, 5, math.inf):
            y_cap = incidences if zeta == math.inf else math.floor(zeta) - n3
            most = max((x + 2 * y for x in range(incidences + 1)
                        for y in range(min(y_cap, incidences - x) + 1)
                        if y <= n2 + x and x <= n1 + incidences - x - y), default=-1)
            assert oracles.pair_cover(n1, n2, n3, incidences, zeta) == most, \
                (n1, n2, n3, incidences, zeta)


def _degree_sets(bits):
    d1 = d2 = d3 = 0
    for b in bits:
        d3 |= d2 & b
        d2 |= d1 & b
        d1 |= b
    return d1, d2, d3


def test_pair_coverage_bound_passes_every_generic_clique():
    # soundness: every generic t-clique passes the bound at each prefix in
    # index order (the cliques the search makes on the way to it), so the
    # bound cuts none of them; and on the same families the kernel, which
    # holds its own copy of the closed form, visits the twin's nodes
    checked = 0
    for i in range(24):
        n, k = 7 + i % 6, 3 + i // 6 % 3
        H = hg.sample_independent(n, k, 10 + i % 5, np.random.SeedSequence(33, spawn_key=(i,)))
        bits = H.edge_bits
        for t in (3, 4, 5, 6):
            cliques = [idx for idx in combinations(range(H.m), t)
                       if all(bits[a] & bits[b] for a, b in combinations(idx, 2))]
            for zeta in (-1, 0, 0.5, 1, 3, math.inf):
                for idx in cliques:
                    if not oracles.is_generic_clique(H, idx, zeta):
                        continue
                    checked += 1
                    for r in range(t + 1):
                        state = _degree_sets([bits[j] for j in idx[:r]])
                        assert oracles.covers(state, r, t, k, zeta), (bits, idx, r, zeta)
                runs = [kernel.generic_search(vf._Instance(H), t, zeta, vf.DEFAULT_NODE_BUDGET)
                        for kernel in KERNELS.values()]
                assert runs[0] == runs[1], (bits, t, zeta)
    assert checked > 1000


def test_pair_coverage_root_rule():
    # 7 edges of 5 vertices make C(7, 2) = 21 pairs from 35 incidences, so
    # a generic 7-clique needs 3 vertices of degree 3: at zeta = 2 the root
    # fails the bound and the search decides at its one node.  Edges 0-6
    # are a generic 7-clique with exactly 3: points 0, 1, 2 lie on the
    # triangles {0, 1, 2}, {0, 3, 4} and {0, 5, 6} of edges, points 3-14 on
    # the other 12 pairs of edges, points 15 and 16 on edge 0 alone
    triangles = [(0, 1, 2), (0, 3, 4), (0, 5, 6)]
    pairs = [(a, b) for a, b in combinations(range(7), 2)
             if not any(a in tri and b in tri for tri in triangles)]
    clique = [[x for x, tri in enumerate(triangles) if e in tri]
              + [3 + j for j, pair in enumerate(pairs) if e in pair] for e in range(7)]
    clique[0] += [15, 16]
    rng = np.random.default_rng(33)
    extra = [sorted(rng.choice(17, 5, replace=False).tolist()) for _ in range(8)]
    H = H_from(17, 5, clique + extra)
    for zeta, want in ((2, None), (3, tuple(range(7)))):
        assert brute_force_generic_clique(H, 7, zeta) == want
        assert wt.find_generic_clique(H, 7, zeta) == want
    for sample in (H, witness_sample(4), witness_sample(26)):
        for name, kernel in KERNELS.items():
            assert kernel.generic_search(vf._Instance(sample), 7, 2, 1) == (6, None, 1), name
            assert kernel.generic_search(vf._Instance(sample), 7, 3, vf.DEFAULT_NODE_BUDGET)[2] > 1
        assert wt.find_generic_clique(sample, 7, 2, node_budget=1) is None


# ---------------------------------------------------------------------------
# A/B/C classification
# ---------------------------------------------------------------------------

def _regime(alpha=6, phi_star=30.0, lam=3.0, log_n=3.0, phi=4.0, eps=0.1, zeta_cap=None):
    # zeta_cap = gamma / eps unless given
    gamma = int(min(alpha, phi_star / 3))
    return an.RegimeParams(phi_star, alpha, gamma, (1 - eps) * gamma, lam,
                           0.05, 0.05 * phi, gamma / eps if zeta_cap is None else zeta_cap)


def test_classify_rejects_trivial():
    H = H_from(8, 2, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(DomainError, match="nontrivial"):
        wt.classify_nontrivial_clique(H, [0, 1, 2], _regime(), eps=0.1)


def _hm_clique(n=20):
    # {B0} + 6 petals through vertex 0 meeting B0: a nontrivial clique with
    # one high-degree vertex, the canonical A-event shape
    edges = [(1, 2, 3),
             (0, 1, 4), (0, 2, 5), (0, 3, 6), (0, 1, 7), (0, 2, 8), (0, 3, 9)]
    return H_from(n, 3, edges)


def test_classify_event_a():
    H = _hm_clique()
    # d_C(0) = 6 >= tau = 4.5, |C| = 7 >= d_H(0) = 6, |C| >= alpha = 5
    reg = _regime(alpha=5, phi_star=15.0, lam=20.0)   # lam high: B never fires
    assert wt.classify_nontrivial_clique(H, range(H.m), reg, eps=0.1) == "A"


def test_classify_event_b():
    # a 4-edge "bowtie": two clique-degree-2 vertices, empty intersection
    edges = [(0, 2, 3), (0, 4, 5), (1, 2, 4), (1, 3, 5)]
    H = H_from(12, 3, edges)
    reg = _regime(alpha=30, phi_star=90.0, lam=2.0)   # tau = 27: A impossible
    assert wt.classify_nontrivial_clique(H, range(len(edges)), reg, eps=0.1) == "B"


def test_classify_event_c():
    # triangle: no vertex above lam = 3, max degree 2 < tau, size >= gamma
    H = H_from(6, 2, [(0, 1), (0, 2), (1, 2)])
    reg = _regime(alpha=3, phi_star=30.0, lam=3.0)
    assert wt.classify_nontrivial_clique(H, [0, 1, 2], reg, eps=0.1) == "C"


def test_classify_priority_a_over_b():
    # both A and B shapes present: A wins by the fixed priority
    H = _hm_clique()
    reg = _regime(alpha=5, phi_star=15.0, lam=1.0)    # 0 and 1 both reach lam
    assert wt.classify_nontrivial_clique(H, range(H.m), reg, eps=0.1) == "A"


def test_classify_lambda_boundary_strictness():
    # degree exactly lambda: counts for B (at least) but not against C
    # (greater than); with two such vertices, B fires by priority
    edges = [(0, 2, 3), (0, 4, 5), (1, 2, 4), (1, 3, 5)]
    H = H_from(12, 3, edges)
    reg = _regime(alpha=30, phi_star=90.0, lam=2.0)   # d_C(0) = d_C(1) = 2 = lam
    assert wt.classify_nontrivial_clique(H, range(4), reg, eps=0.1) == "B"
    # with lam above every degree, only C can match
    reg2 = _regime(alpha=4, phi_star=90.0, lam=2.5)
    assert wt.classify_nontrivial_clique(H, range(4), reg2, eps=0.1) == "C"


def test_trichotomy_coverage_on_sampled_instances():
    # every nontrivial clique of size >= max(Delta, alpha) classifies A, B or C
    checked = 0
    for t in range(400):
        p = 0.06 + 0.01 * (t % 5)
        H = hg.sample_bernoulli(12, 3, p, np.random.SeedSequence(60, spawn_key=(t,)))
        if H.m > 40:
            continue
        v = vf.verify_ekr(H)
        if v.holds or v.witness is None:
            continue
        params = an.ModelParams.from_p(12, 3, p)
        ab = an.compute_alpha_beta(params)
        if v.omega < max(v.Delta, ab.alpha):
            continue
        reg = an.regime_params(params, alpha=ab.alpha)
        out = wt.classify_nontrivial_clique(H, v.witness, reg, params.eps)
        assert out in ("A", "B", "C"), (H.edge_bits, v)
        checked += 1
    assert checked >= 10
