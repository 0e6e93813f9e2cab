import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ekrlab import exact
from ekrlab import hypergraph as hg
from ekrlab import verifier as vf
from ekrlab import witnesses as wt
from ekrlab.errors import DomainError, ResourceLimitError


def H_from(n, k, edges):
    return hg.Hypergraph.from_edges(n, k, edges)


def full_K(n, k):
    return H_from(n, k, list(combinations(range(n), k)))


def pairwise_adjacency(edge_bits):
    """Oracle for intersection_adjacency: test every pair of edges."""
    m = len(edge_bits)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if edge_bits[i] & edge_bits[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def oracle_color_order(adj, P):
    """First-fit coloring of P in index order, class by class, every class
    returned (the library's _color_order before its kmin rule)."""
    order = []
    colors = []
    color = 0
    rest = P
    while rest:
        color += 1
        avail = rest
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            order.append(v)
            colors.append(color)
            avail &= ~adj[v] & ~b
            rest &= ~b
    return order, colors


def oracle_pair_color_order(cadj, P):
    """The matching-based coloring with sets and tuples: a greedy maximal
    matching of the disjointness graph cadj (fewest partners first), then
    length-3 augmentation sweeps; pairs sorted, then singletons."""
    mate = {}
    free = []
    verts = []
    r = P
    while r:
        b = r & -r
        verts.append(((cadj[b.bit_length() - 1] & P).bit_count(), b.bit_length() - 1))
        r ^= b
    verts.sort()
    taken = 0
    for _, v in verts:
        if (taken >> v) & 1:
            continue
        avail = cadj[v] & P & ~taken & ~(1 << v)
        if avail:
            w = (avail & -avail).bit_length() - 1
            mate[v] = w
            mate[w] = v
            taken |= (1 << v) | (1 << w)
        else:
            free.append(v)
            taken |= 1 << v
    free = set(free)
    changed = True
    while changed and len(free) > 1:
        changed = False
        for u in sorted(free):
            if u not in free:
                continue
            amask = cadj[u] & P
            done = False
            while amask and not done:
                ab = amask & -amask
                a = ab.bit_length() - 1
                amask ^= ab
                if a in mate:
                    bp = mate[a]
                    wmask = cadj[bp] & P & ~(1 << u)
                    while wmask:
                        wb = wmask & -wmask
                        w = wb.bit_length() - 1
                        wmask ^= wb
                        if w in free:
                            mate[u] = a
                            mate[a] = u
                            mate[bp] = w
                            mate[w] = bp
                            free.discard(u)
                            free.discard(w)
                            done = True
                            changed = True
                            break
                elif a in free:
                    mate[u] = a
                    mate[a] = u
                    free.discard(u)
                    free.discard(a)
                    done = True
                    changed = True
    order = []
    colors = []
    color = 0
    for v, w in sorted({(min(v, w), max(v, w)) for v, w in mate.items()}):
        color += 1
        order += (v, w)
        colors += (color, color)
    for v in sorted(free):
        color += 1
        order.append(v)
        colors.append(color)
    return order, colors


# ---------------------------------------------------------------------------
# intersection adjacency
# ---------------------------------------------------------------------------

def test_adjacency_keeps_repeated_edges_adjacent():
    bits = [exact.mask_from(e) for e in [(0, 1), (0, 1), (2, 3), (1, 2)]]
    assert vf.intersection_adjacency(bits) == [0b1010, 0b1001, 0b1000, 0b0111]
    assert vf.intersection_adjacency(()) == []


@given(st.data())
def test_adjacency_matches_pair_loop_on_multisets(data):
    n = data.draw(st.integers(1, 70), label="n")
    k = data.draw(st.integers(1, min(n, 6)), label="k")
    kset = st.sets(st.integers(0, n - 1), min_size=k, max_size=k)
    pool = data.draw(st.lists(kset, min_size=1, max_size=10), label="pool")
    # drawing from a small pool repeats edges
    edges = data.draw(st.lists(st.sampled_from(pool), max_size=40), label="edges")
    bits = hg.Hypergraph.from_edges(n, k, edges).edge_bits
    assert vf.intersection_adjacency(bits) == pairwise_adjacency(bits)


# ---------------------------------------------------------------------------
# coloring bounds
# ---------------------------------------------------------------------------

@given(st.data())
def test_colorings_match_oracles_above_kmin(data):
    k = data.draw(st.integers(2, 4), label="k")
    # n < 3k: every independent set has <= 2 edges; n >= 3k: it can have more
    lo, hi = data.draw(st.sampled_from([(k + 1, 3 * k - 1), (3 * k, 3 * k + 4)]),
                       label="regime")
    n = data.draw(st.integers(lo, hi), label="n")
    N = math.comb(n, k)
    ranks = data.draw(st.lists(st.integers(0, N - 1), unique=True, min_size=1,
                               max_size=min(N, 40)), label="ranks")
    m = len(ranks)
    adj = vf.intersection_adjacency([exact.mask_from(exact.colex_unrank(r, k))
                                     for r in ranks])
    full = (1 << m) - 1
    P = data.draw(st.one_of(st.just(full), st.integers(0, full)), label="P")
    kmin = data.draw(st.sampled_from([0, 1, 5, m]), label="kmin")
    cadj = [full & ~adj[i] & ~(1 << i) for i in range(m)]
    for dense, (order, colors) in ((False, oracle_color_order(adj, P)),
                                   (True, oracle_pair_color_order(cadj, P))):
        keep = [i for i, c in enumerate(colors) if c > kmin]
        want = ([order[i] for i in keep], [colors[i] for i in keep])
        got = vf._make_coloring(adj, m, dense)(P, kmin)
        assert (list(got[0]), list(got[1])) == want, (dense, P, kmin)


# ---------------------------------------------------------------------------
# max clique
# ---------------------------------------------------------------------------

def test_omega_full_K52_is_star_size():
    omega, clique = vf.max_intersecting_family(full_K(5, 2))
    assert omega == 4 == math.comb(4, 1)


def test_omega_triangle_plus_disjoint():
    H = H_from(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4)])
    omega, clique = vf.max_intersecting_family(H)
    assert omega == 3 and sorted(clique) == [0, 1, 2]


def test_omega_single_edge_and_empty():
    assert vf.max_intersecting_family(H_from(6, 2, [(0, 1)]))[0] == 1
    assert vf.max_intersecting_family(H_from(6, 2, []))[0] == 0


def test_edge_cap_error():
    H = full_K(7, 2)
    with pytest.raises(ResourceLimitError):
        vf.max_intersecting_family(H, edge_cap=5)


@pytest.mark.parametrize("limits", [{"node_budget": 0}, {"node_budget": -5},
                                    {"edge_cap": -1}])
def test_invalid_limits_rejected(limits):
    H = H_from(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4)])
    with pytest.raises(DomainError):
        vf.verify_ekr(H, **limits)
    with pytest.raises(DomainError):
        vf.max_intersecting_family(H, **limits)
    if "node_budget" in limits:
        empty = H_from(6, 2, [])
        with pytest.raises(DomainError):
            vf.find_nontrivial_clique(empty, 3, **limits)
        with pytest.raises(DomainError):
            vf.max_nontrivial_clique(H, **limits)
    # the least valid limits still decide the empty family
    assert vf.verify_ekr(H_from(6, 2, []), edge_cap=0, node_budget=1).holds


def test_node_budget_error():
    H = full_K(9, 3)
    with pytest.raises(ResourceLimitError):
        vf.max_intersecting_family(H, node_budget=3)


def sampled(n, k, phi, seed):
    return hg.sample_bernoulli(n, k, phi / math.comb(n - 1, k - 1), seed)


# (n, k, phi, seed) of H_k(n, p) -> verdict, omega, and the nodes the omega
# search and the omega-target empty-intersection search visit (one node per
# visited clique), which are the least budgets at which they decide.  None:
# verify_ekr skips the second search because omega > Delta.
NODE_PINS = [
    ((14, 5, 60, 1), False, 72, 121, 97),       # dense (n < 3k), witness found
    ((14, 5, 60, 37), False, 67, 128, None),    # dense, omega > Delta
    ((18, 5, 60, 3), True, 70, 216, 551),       # sparse, star is the maximum
    ((14, 5, 60, 2), True, 78, 99, 1168),       # dense, star is the maximum
    ((18, 5, 60, 10), True, 70, 150, 1233),     # sparse, star is the maximum
]
OUT_OF_BUDGET = "^branch-and-bound node budget exceeded$"


@pytest.mark.parametrize("key, holds, omega, omega_nodes, nontrivial_nodes", NODE_PINS)
def test_search_node_counts_pinned(kernels, key, holds, omega, omega_nodes, nontrivial_nodes):
    H = sampled(*key)
    for kernel in kernels():
        got, _, nodes = vf._max_clique(vf._Instance(H), vf.DEFAULT_NODE_BUDGET)
        assert (got, nodes) == (omega, omega_nodes), kernel
        assert vf.max_intersecting_family(H, node_budget=omega_nodes)[0] == omega
        with pytest.raises(ResourceLimitError, match=OUT_OF_BUDGET):
            vf.max_intersecting_family(H, node_budget=omega_nodes - 1)
        if nontrivial_nodes is None:
            assert vf.verify_ekr(H, node_budget=omega_nodes).holds is holds
            continue
        _, found, nodes = vf._nontrivial_search(vf._Instance(H), omega,
                                                vf.DEFAULT_NODE_BUDGET, omega - 1)
        assert (found is None, nodes) == (holds, nontrivial_nodes), kernel
        witness = vf.find_nontrivial_clique(H, omega, node_budget=nontrivial_nodes)
        assert (witness is None) is holds
        with pytest.raises(ResourceLimitError, match=OUT_OF_BUDGET):
            vf.find_nontrivial_clique(H, omega, node_budget=nontrivial_nodes - 1)
        budget = max(omega_nodes, nontrivial_nodes)
        assert vf.verify_ekr(H, node_budget=budget).holds is holds
        with pytest.raises(ResourceLimitError, match=OUT_OF_BUDGET):
            vf.verify_ekr(H, node_budget=budget - 1)


def search_outcome(search, *args):
    """(best, recorded clique as a list or None, nodes), or the error text."""
    try:
        best, found, nodes = search(*args)
    except ResourceLimitError as exc:
        return str(exc)
    return best, None if found is None else list(found), nodes


@settings(max_examples=16, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from([(14, 5, 60), (18, 5, 60)]), seed=st.integers(0, 2**32 - 1))
def test_kernels_agree_on_sampled_families(kernels, key, seed):
    # dense (pair-matching bound) and sparse (first-fit) frontier families:
    # omega, the omega-target and the maximizing empty-intersection searches
    H = sampled(*key, seed)
    runs = {}
    for kernel in kernels():
        inst = vf._Instance(H)
        omega = search_outcome(vf._max_clique, inst, 20_000)
        target = omega[0] if isinstance(omega, tuple) else inst.Delta
        runs[kernel] = (omega,
                        search_outcome(vf._nontrivial_search, inst, target, 20_000, target - 1),
                        search_outcome(vf._nontrivial_search, inst, math.inf, 2_000, 2))
    assert runs["python"] == runs["native"]


def relabelled(H, n, f):
    return hg.Hypergraph.from_edges(n, H.k, [[f(v) for v in hg.edge_members(b)]
                                             for b in H.edge_bits])


# the native kernel builds the adjacency (and the omega relabel) from the
# edges' vertex words; these families reach the corners of that build, and
# in each the omega search beats the largest star
KERNEL_BUILT_GRAPHS = {
    # repeated edges stay adjacent: the generic search takes multisets
    "repeated edges": (lambda: hg.sample_independent(7, 3, 30, 3),
                       lambda H: H.has_duplicates()),
    # m > 64: edge bitsets span two words
    "m > 64": (lambda: hg.sample_bernoulli(14, 5, 0.04, 0), lambda H: H.m > 64),
    # vertices 255, 230, ..., 5: every vertex word, the last up to bit 63
    "vertex 255": (lambda: relabelled(hg.sample_bernoulli(11, 5, 0.2, 0), 256,
                                      lambda v: 255 - 25 * v),
                   lambda H: any(b >> 255 for b in H.edge_bits)),
}


@pytest.mark.parametrize("family", list(KERNEL_BUILT_GRAPHS))
def test_kernels_agree_on_the_graph_the_native_kernel_builds(kernels, family):
    make, reaches = KERNEL_BUILT_GRAPHS[family]
    H = make()
    assert reaches(H)
    runs = {}
    for kernel in kernels():
        inst = vf._Instance(H)
        omega = vf._max_clique(inst, 50_000)
        runs[kernel] = (omega,
                        search_outcome(vf._nontrivial_search, inst, omega[0], 50_000, omega[0] - 1),
                        search_outcome(vf._nontrivial_search, inst, math.inf, 50_000, 2),
                        search_outcome(wt._generic_search, inst, 4, 1, 50_000),
                        wt.find_generic_clique(H, 3, 0))
    assert runs["python"] == runs["native"]
    (omega, clique, _), *_ = runs["native"]
    assert omega > vf._Instance(H).Delta and len(clique) == omega == len(set(clique))
    assert all(H.edge_bits[i] & H.edge_bits[j] for i in clique for j in clique)


def test_search_depth_not_limited_by_recursion(kernels):
    # every pair of 7-subsets of [13] meets, so the whole family (1716
    # edges) is one clique: search depth 1716, past Python's call limit
    H = full_K(13, 7)
    for _ in kernels():
        v = vf.verify_ekr(H)
        assert (v.holds, v.omega, v.Delta) == (False, 1716, 924)
        assert vf.validate_witness(H, v)
        size, witness = vf.max_nontrivial_clique(H)
        assert size == 1716 == len(witness)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_full_K_holds():
    for n, k in [(5, 2), (7, 3)]:
        v = vf.verify_ekr(full_K(n, k))
        assert v.holds and v.omega == v.Delta == math.comb(n - 1, k - 1)
        assert v.witness is None


def test_triangle_fails_with_witness():
    H = H_from(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4)])
    v = vf.verify_ekr(H)
    assert not v.holds and v.omega == 3 and v.Delta == 2
    assert vf.validate_witness(H, v)


def test_star_plus_disjoint_holds():
    H = H_from(7, 2, [(0, 1), (0, 2), (0, 3), (4, 5)])
    v = vf.verify_ekr(H)
    assert v.holds and v.omega == v.Delta == 3


def test_two_disjoint_edges_hold():
    v = vf.verify_ekr(H_from(6, 2, [(0, 1), (2, 3)]))
    assert v.holds and v.omega == 1 == v.Delta


def test_empty_holds():
    v = vf.brute_force_ekr(H_from(6, 2, []))
    assert v.holds and v.omega == 0 == v.Delta


def test_ekr_not_monotone_under_edge_addition():
    # non-monotonicity regression: EKR can be destroyed by adding an edge
    H = H_from(6, 2, [(0, 1), (0, 2), (0, 3)])
    H2 = H_from(6, 2, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert vf.verify_ekr(H).holds
    assert not vf.verify_ekr(H2).holds
    # while omega is monotone
    assert vf.max_intersecting_family(H2)[0] >= vf.max_intersecting_family(H)[0]


def test_multiset_rejected():
    H = hg.Hypergraph.from_edges(6, 2, [(0, 1), (0, 1)])
    with pytest.raises(DomainError):
        vf.verify_ekr(H)
    with pytest.raises(DomainError):
        vf.brute_force_ekr(H)


def test_brute_force_guard():
    with pytest.raises(ResourceLimitError):
        vf.brute_force_ekr(full_K(7, 2), max_edges=20)


def test_is_trivial_clique():
    assert vf.is_trivial_clique([0b011, 0b101]) == (True, 0)
    assert vf.is_trivial_clique([0b011, 0b101, 0b110]) == (False, None)
    assert vf.is_trivial_clique([0b1100]) == (True, 2)
    assert vf.is_trivial_clique([]) == (True, None)


def test_all_two_edge_hypergraphs_hold():
    # every |H| <= 2 verdict holds (cliques that small are trivial)
    n, k = 6, 2
    edges = list(combinations(range(n), k))
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            H = H_from(n, k, [edges[a], edges[b]])
            assert vf.brute_force_ekr(H).holds
            assert vf.verify_ekr(H).holds


# ---------------------------------------------------------------------------
# omega monotone / witness soundness on random instances
# ---------------------------------------------------------------------------

def _random_instances(count, seed0=1000):
    configs = [(8, 2, 0.18), (10, 3, 0.09), (12, 4, 0.025), (9, 3, 0.1),
               (12, 2, 0.07), (11, 4, 0.02)]
    built = 0
    t = 0
    while built < count:
        n, k, p = configs[t % len(configs)]
        seed = np.random.SeedSequence(seed0, spawn_key=(t,))
        if t % 2 == 0:
            H = hg.sample_bernoulli(n, k, p, seed)
        else:
            m = 4 + t % 9
            H = hg.sample_independent(n, k, m, seed).dedupped()
        t += 1
        if H.m > 14:
            continue
        built += 1
        yield H


def test_oracle_equivalence_small_batch():
    for H in _random_instances(150):
        fast = vf.verify_ekr(H)
        slow = vf.brute_force_ekr(H)
        assert fast.holds == slow.holds, H.edge_bits
        assert fast.omega == slow.omega and fast.Delta == slow.Delta
        assert fast.omega >= fast.Delta      # every star is a clique
        assert vf.validate_witness(H, fast)
        assert vf.validate_witness(H, slow)


def test_omega_monotone_under_addition():
    rng = np.random.default_rng(77)
    for H in _random_instances(40, seed0=2000):
        omega0 = vf.max_intersecting_family(H)[0]
        all_edges = [exact.mask_from(c) for c in combinations(range(H.n), H.k)]
        present = set(H.edge_bits)
        extra = [e for e in all_edges if e not in present]
        if not extra:
            continue
        e = extra[rng.integers(0, len(extra))]
        H2 = hg.Hypergraph(H.n, H.k, H.edge_bits + (e,))
        assert vf.max_intersecting_family(H2)[0] >= omega0


def test_oracle_equivalence_dense_regime():
    # n < 3k engages the matching-based coloring bound; cross-check it
    built = 0
    t = 0
    while built < 120:
        n, k = (7, 3) if t % 2 else (11, 4)
        seed = np.random.SeedSequence(3100, spawn_key=(t,))
        H = hg.sample_independent(n, k, 5 + t % 12, seed).dedupped()
        t += 1
        if H.m > 16:
            continue
        built += 1
        fast = vf.verify_ekr(H)
        slow = vf.brute_force_ekr(H)
        assert (fast.holds, fast.omega, fast.Delta) == (slow.holds, slow.omega, slow.Delta)
        assert vf.validate_witness(H, fast)
        # the nontrivial maximum agrees with the exhaustive walk too
        size, wit = vf.max_nontrivial_clique(H)
        walk_best = 2
        bits = H.edge_bits
        adj = vf.intersection_adjacency(bits)
        stack = [([], -1, (1 << H.m) - 1)]
        while stack:
            R, common, cand = stack.pop()
            if common == 0 and len(R) > walk_best:
                walk_best = len(R)
            while cand:
                b = cand & -cand
                v = b.bit_length() - 1
                cand ^= b
                stack.append((R + [v], common & bits[v], cand & adj[v]))
        assert size == walk_best, H.edge_bits


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_verify_matches_brute_force_in_every_regime(kernels, data):
    k = data.draw(st.integers(1, 4), label="k")
    # n < 2k (every pair meets), 2k <= n < 3k (matching bound), n >= 3k
    lo, hi = data.draw(st.sampled_from([(k, 2 * k - 1), (2 * k, 3 * k - 1),
                                        (3 * k, 3 * k + 3)]), label="regime")
    n = data.draw(st.integers(lo, hi), label="n")
    N = math.comb(n, k)
    ranks = data.draw(st.lists(st.integers(0, N - 1), unique=True,
                               max_size=min(N, 12)), label="ranks")
    H = H_from(n, k, [exact.colex_unrank(r, k) for r in ranks])
    slow = vf.brute_force_ekr(H)
    for kernel in kernels():
        fast = vf.verify_ekr(H)
        assert (fast.holds, fast.omega, fast.Delta) == (slow.holds, slow.omega, slow.Delta), kernel
        assert vf.validate_witness(H, fast)


def test_hm_value_k52():
    # largest nontrivial clique of full C([5],2): C(4,1) - C(2,1) + 1 = 3
    size, wit = vf.max_nontrivial_clique(full_K(5, 2))
    assert size == 3
    trivial, _ = vf.is_trivial_clique(full_K(5, 2).edge_bits[i] for i in wit)
    assert not trivial


def test_verdict_json_shape():
    H = H_from(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4)])
    v = vf.verify_ekr(H)
    js = vf.verdict_to_json(H, v)
    assert js["holds"] is False and js["omega"] == 3 and js["delta"] == 2
    assert sorted(js["witness"]) == [[1, 2], [1, 3], [2, 3]]
    H2 = H_from(6, 2, [(0, 1), (0, 2)])
    js2 = vf.verdict_to_json(H2, vf.verify_ekr(H2))
    assert js2["holds"] is True and js2["witness"] is None


def test_max_intersecting_family_returns_the_largest_star_as_a_list(kernels):
    # no clique beats Delta = 3, so the star of vertex 0 is the witness
    H = hg.Hypergraph.from_edges(7, 3, [[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    for kernel in kernels():
        assert vf.max_intersecting_family(H) == (3, [0, 1, 2]), kernel
