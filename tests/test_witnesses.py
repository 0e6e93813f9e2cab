import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ekrlab import analytics as an
from ekrlab import hypergraph as hg
from ekrlab import verifier as vf
from ekrlab import witnesses as wt
from ekrlab.errors import DomainError, ResourceLimitError


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
                wt.brute_force_hilton_milner(H, d), (H.edge_bits, d)


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
    built = 0
    t = 0
    while built < 60:
        H = hg.sample_independent(8, 3, 5 + t % 6, np.random.SeedSequence(7, spawn_key=(t,)))
        t += 1
        if H.m > 14:
            continue
        built += 1
        for size in (2, 3, 4):
            for zeta in (0, 1, 3):
                got = wt.find_generic_clique(H, size, zeta)
                want = wt.brute_force_generic_clique(H, size, zeta)
                assert (got is not None) == want, (H.edge_bits, size, zeta)
                if got is not None:
                    assert wt.is_generic_clique(H, got, zeta)


def witness_sample(seed):
    return hg.sample_bernoulli(25, 5, 10 / math.comb(24, 4), seed)


# (25, 5, phi=10) samples of H_k(n, p): the generic clique (t=7, zeta=3) and
# the nodes the search visits (one per visited clique), which are the least
# budget at which it decides
@pytest.mark.parametrize("seed, clique, nodes", [
    (4, None, 10122),
    (26, (10, 14, 16, 18, 34, 38, 41), 7865),
])
def test_generic_node_counts_pinned(kernels, seed, clique, nodes):
    H = witness_sample(seed)
    for kernel in kernels():
        _, found, used = wt._generic_search(vf._Instance(H), 7, 3, vf.DEFAULT_NODE_BUDGET)
        assert (found and tuple(found), used) == (clique, nodes), kernel
        assert wt.find_generic_clique(H, 7, 3, node_budget=nodes) == clique
        with pytest.raises(ResourceLimitError, match="^branch-and-bound node budget exceeded$"):
            wt.find_generic_clique(H, 7, 3, node_budget=nodes - 1)


@settings(max_examples=12, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_kernels_agree_on_generic_search(kernels, seed):
    H = witness_sample(seed)
    runs = {}
    for kernel in kernels():
        try:
            runs[kernel] = wt._generic_search(vf._Instance(H), 7, 3, 5_000)
        except ResourceLimitError as exc:
            runs[kernel] = str(exc)
    assert runs["python"] == runs["native"]


# ---------------------------------------------------------------------------
# clique profile
# ---------------------------------------------------------------------------

def test_profile_single_center():
    H = H_from(10, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6)])
    p = wt.clique_profile(H, [0, 1, 2], lambda_cap=5)
    assert (p.s, p.r, p.psi) == (1, 0, 2)
    assert p.z_sizes[-1] == 1 and p.num_deg3 == 1
    assert p.max_deg == 3


def test_profile_degree_four():
    H = H_from(12, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8)])
    p = wt.clique_profile(H, [0, 1, 2, 3], lambda_cap=5)
    assert (p.s, p.r, p.psi) == (1, 1, 5)
    assert p.r_vec == (0, 0, 0, 1)


def _profile_identities(H, order, lam_cap):
    p = wt.clique_profile(H, order, lam_cap)
    deg = {}
    for i in order:
        for v in hg.edge_members(H.edge_bits[i]):
            deg[v] = deg.get(v, 0) + 1
    Z = {v for v, c in deg.items() if c >= 3}
    assert p.s == len(Z)
    assert p.r == sum(deg[v] - 3 for v in Z)
    assert p.psi == sum(math.comb(deg[v], 2) - 1 for v in Z)
    if p.max_deg <= lam_cap:
        assert p.psi <= p.x_rs + 1e-9
    return p


@given(st.integers(0, 400))
def test_profile_identities_random_cliques(seed):
    # grow a clique greedily from a random instance, profile it in two orders
    H = hg.sample_independent(12, 4, 12, np.random.SeedSequence(3, spawn_key=(seed,)))
    bits = H.edge_bits
    clique = []
    for i in range(H.m):
        if all(bits[i] & bits[j] for j in clique):
            clique.append(i)
    lam_cap = max(3, seed % 7)
    p1 = _profile_identities(H, clique, lam_cap)
    p2 = _profile_identities(H, list(reversed(clique)), lam_cap)
    # s, r, psi are order-invariant even though the vectors are not
    assert (p1.s, p1.r, p1.psi) == (p2.s, p2.r, p2.psi)


# ---------------------------------------------------------------------------
# A/B/C classification
# ---------------------------------------------------------------------------

def _regime(alpha=6, phi_star=30.0, lam=3.0, log_n=3.0, phi=4.0, eps=0.1):
    gamma = int(min(alpha, phi_star / 3))
    return an.RegimeParams(phi_star, alpha, gamma, (1 - eps) * gamma, lam,
                           0.05, 0.05 * phi, gamma / eps)


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
    out = wt.classify_nontrivial_clique(H, range(H.m), reg, eps=0.1)
    assert out.kind == "A" and out.vertices == (0,)


def test_classify_event_b():
    # a 4-edge "bowtie": two clique-degree-2 vertices, empty intersection
    edges = [(0, 2, 3), (0, 4, 5), (1, 2, 4), (1, 3, 5)]
    H = H_from(12, 3, edges)
    reg = _regime(alpha=30, phi_star=90.0, lam=2.0)   # tau = 27: A impossible
    out = wt.classify_nontrivial_clique(H, range(len(edges)), reg, eps=0.1)
    assert out.kind == "B" and out.vertices == (0, 1)


def test_classify_event_c():
    # triangle: no vertex above lam = 3, max degree 2 < tau, size >= gamma
    H = H_from(6, 2, [(0, 1), (0, 2), (1, 2)])
    reg = _regime(alpha=3, phi_star=30.0, lam=3.0)
    out = wt.classify_nontrivial_clique(H, [0, 1, 2], reg, eps=0.1)
    assert out.kind == "C"


def test_classify_priority_a_over_b():
    # both A and B shapes present: A wins by the fixed priority
    H = _hm_clique()
    reg = _regime(alpha=5, phi_star=15.0, lam=1.0)    # 0 and 1 both reach lam
    out = wt.classify_nontrivial_clique(H, range(H.m), reg, eps=0.1)
    assert out.kind == "A"


def test_classify_lambda_boundary_strictness():
    # degree exactly lambda: counts for B (at least) but not against C
    # (greater than); with two such vertices, B fires by priority
    edges = [(0, 2, 3), (0, 4, 5), (1, 2, 4), (1, 3, 5)]
    H = H_from(12, 3, edges)
    reg = _regime(alpha=30, phi_star=90.0, lam=2.0)   # d_C(0) = d_C(1) = 2 = lam
    out = wt.classify_nontrivial_clique(H, range(4), reg, eps=0.1)
    assert out.kind == "B"
    # with lam above every degree, only C can match
    reg2 = _regime(alpha=4, phi_star=90.0, lam=2.5)
    out2 = wt.classify_nontrivial_clique(H, range(4), reg2, eps=0.1)
    assert out2.kind == "C" and out2.vertices == ()


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
        assert out.kind in ("A", "B", "C"), (H.edge_bits, v)
        checked += 1
    assert checked >= 10
