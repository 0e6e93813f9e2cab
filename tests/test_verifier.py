import functools
import math
import operator
import types
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrlab import analytics as an
from ekrlab import exact
from ekrlab import hypergraph as hg
from ekrlab import verifier as vf
from ekrlab import witnesses as wt
from ekrlab.errors import DomainError, ResourceLimitError
import oracles
from oracles import (KERNELS, bron_kerbosch_ekr, brute_force_ekr, colex_unrank, delta,
                     make_coloring)


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
    returned (oracles.color_order before its kmin rule)."""
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
    adj = vf.intersection_adjacency([exact.mask_from(colex_unrank(r, k))
                                     for r in ranks])
    full = (1 << m) - 1
    P = data.draw(st.one_of(st.just(full), st.integers(0, full)), label="P")
    kmin = data.draw(st.sampled_from([0, 1, 5, m]), label="kmin")
    cadj = [full & ~adj[i] & ~(1 << i) for i in range(m)]
    for dense, (order, colors) in ((False, oracle_color_order(adj, P)),
                                   (True, oracle_pair_color_order(cadj, P))):
        keep = [i for i, c in enumerate(colors) if c > kmin]
        want = ([order[i] for i in keep], [colors[i] for i in keep])
        got = make_coloring(adj, m, dense)(P, kmin)
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
# omega > Delta, so verify_ekr runs no omega-target search (its nontrivial
# search has target Delta; see DECIDE_PINS).
NODE_PINS = [
    ((14, 5, 60, 1), False, 72, 121, 185),      # dense (n < 3k), witness found
    ((14, 5, 60, 37), False, 67, 128, None),    # dense, omega > Delta
    ((18, 5, 60, 3), True, 70, 216, 292),       # sparse, star is the maximum
    ((14, 5, 60, 2), True, 78, 99, 222),        # dense, star is the maximum
    ((18, 5, 60, 10), True, 70, 150, 233),      # sparse, star is the maximum
]
OUT_OF_BUDGET = "^branch-and-bound node budget exceeded$"


@pytest.mark.parametrize("key, holds, omega, omega_nodes, nontrivial_nodes", NODE_PINS)
def test_search_node_counts_pinned(key, holds, omega, omega_nodes, nontrivial_nodes):
    H = sampled(*key)
    for name, kernel in KERNELS.items():
        got, _, nodes = kernel.max_clique(vf._Instance(H), vf.DEFAULT_NODE_BUDGET)
        assert (got, nodes) == (omega, omega_nodes), name
        if nontrivial_nodes is not None:
            _, found, nodes = kernel.nontrivial_search(vf._Instance(H), omega,
                                                       vf.DEFAULT_NODE_BUDGET, omega - 1)
            assert (found is None, nodes) == (holds, nontrivial_nodes), name
    # the public searches decide at exactly those budgets
    assert vf.max_intersecting_family(H, node_budget=omega_nodes)[0] == omega
    with pytest.raises(ResourceLimitError, match=OUT_OF_BUDGET):
        vf.max_intersecting_family(H, node_budget=omega_nodes - 1)
    if nontrivial_nodes is None:
        assert vf.verify_ekr(H, node_budget=omega_nodes).holds is holds
        return
    witness = vf.find_nontrivial_clique(H, omega, node_budget=nontrivial_nodes)
    assert (witness is None) is holds
    with pytest.raises(ResourceLimitError, match=OUT_OF_BUDGET):
        vf.find_nontrivial_clique(H, omega, node_budget=nontrivial_nodes - 1)
    budget = max(omega_nodes, nontrivial_nodes)
    assert vf.verify_ekr(H, node_budget=budget).holds is holds
    with pytest.raises(ResourceLimitError, match=OUT_OF_BUDGET):
        vf.verify_ekr(H, node_budget=budget - 1)


# (n, k, phi, seed) of NODE_PINS -> the nodes of verify_ekr's decide: the
# nontrivial search (target max(Delta, 3)) runs first, and the omega search
# only when that one records a clique.  A family that holds costs its
# nontrivial nodes alone; (14, 5, 60, 1) fails with omega = Delta at
# 185 + 121; in (14, 5, 60, 37), omega > Delta, the Delta-target search
# records at node 69, then the omega search takes its 128
DECIDE_PINS = [
    ((14, 5, 60, 1), 185 + 121),
    ((14, 5, 60, 37), 69 + 128),
    ((18, 5, 60, 3), 292),
    ((14, 5, 60, 2), 222),
    ((18, 5, 60, 10), 233),
]


@pytest.mark.parametrize("key, nodes", DECIDE_PINS)
def test_decide_node_counts_pinned(key, nodes):
    H = sampled(*key)
    runs = {}
    for name, kernel in KERNELS.items():
        runs[name] = kernel.decide(vf._Instance(H), vf.DEFAULT_NODE_BUDGET)
        assert runs[name][1] == nodes, name
    assert runs["python"] == runs["native"]
    assert runs["native"][0] == vf.verify_ekr(H)


def test_omega_search_decides_when_the_nontrivial_search_runs_out():
    # Delta = 24 < omega = 25: the nontrivial search records its clique at
    # node 93, the omega search needs 78.  At 78 the first runs out and the
    # second still decides: EKR fails with the omega clique.  At 77 both
    # run out
    H = sampled(12, 4, 20, 40)
    v = vf.verify_ekr(H)
    assert (v.holds, v.omega, v.Delta) == (False, 25, 24) and vf.validate_witness(H, v)
    assert vf.verify_ekr(H, node_budget=78) == v
    for name, kernel in KERNELS.items():
        inst = vf._Instance(H)
        assert kernel.decide(inst, 78)[0] == v, name
        with pytest.raises(ResourceLimitError, match=OUT_OF_BUDGET):
            kernel.decide(inst, 77)
        assert kernel.nontrivial_search(inst, 24, 93, 23)[1] is not None, name
        with pytest.raises(ResourceLimitError, match=OUT_OF_BUDGET):
            kernel.nontrivial_search(inst, 24, 92, 23)
        assert kernel.max_clique(inst, 78)[0] == 25, name


def decide_outcome(decide, H, node_budget):
    """(verdict, nodes) of the decide under node_budget, or the error text."""
    try:
        return decide(vf._Instance(H), node_budget)
    except ResourceLimitError as exc:
        return str(exc)


@settings(max_examples=24)
@given(key=st.sampled_from([(8, 3, 6), (9, 3, 6), (10, 4, 10), (12, 4, 20)]),
       seed=st.integers(0, 2**32 - 1))
def test_kernels_agree_on_decide_under_every_budget(key, seed):
    # dense (n < 3k) and sparse families that hold, fail with omega = Delta
    # and fail with omega > Delta: at each budget up to the decide's nodes
    # both kernels give the same verdict and nodes, or both run out
    H = sampled(*key, seed)
    _, nodes = vf._decide(vf._Instance(H), vf.DEFAULT_NODE_BUDGET)
    runs = {name: [decide_outcome(kernel.decide, H, budget) for budget in range(1, nodes + 1)]
            for name, kernel in KERNELS.items()}
    assert runs["python"] == runs["native"]
    assert runs["native"][-1] == decide_outcome(vf._decide, H, vf.DEFAULT_NODE_BUDGET)


# families whose omega-target nontrivial search finds a witness (omega =
# Delta, EKR fails): dense (14, 5, 60) under the pair coloring, sparse
# (24, 3, 3) and (12, 4, 30) under first-fit
WITNESS_FAMILIES = [(14, 5, 60, 1), (14, 5, 60, 4), (14, 5, 60, 10), (24, 3, 3, 0),
                    (24, 3, 3, 5), (24, 3, 3, 8), (12, 4, 30, 6)]


@pytest.mark.parametrize("key", WITNESS_FAMILIES)
def test_nontrivial_witness_is_ascending_and_valid(key):
    # the search runs on the degree relabel, and maps its witness back to
    # ascending edge indices, the Python twin's; it re-validates
    H = sampled(*key)
    v = vf.verify_ekr(H)
    assert not v.holds and v.omega == v.Delta
    assert list(v.witness) == sorted(set(v.witness)) and vf.validate_witness(H, v)
    assert vf.find_nontrivial_clique(H, v.omega) == v.witness
    size, widest = vf.max_nontrivial_clique(H)
    assert size == len(widest) >= v.omega and list(widest) == sorted(set(widest))
    python = KERNELS["python"]
    assert python.decide(vf._Instance(H), vf.DEFAULT_NODE_BUDGET)[0] == v
    assert python.nontrivial_search(vf._Instance(H), math.inf, vf.DEFAULT_NODE_BUDGET,
                                    2)[1] == list(widest)
    # target 3: the first clique the search records of 3 or more edges with
    # an empty intersection, which may be far larger (66 edges on the first
    # family)
    found = vf.find_nontrivial_clique(H, 3)
    assert len(found) >= 3 and list(found) == sorted(set(found))
    assert vf.is_trivial_clique(H.edge_bits[i] for i in found) == (False, None)
    assert all(H.edge_bits[i] & H.edge_bits[j] for i in found for j in found)
    assert key != (14, 5, 60, 1) or len(found) == 66


def frontier_instance(n, k, phi, seed):
    """`ekrlab sample --n n --k k --phi phi --sampler conditioned --seed seed`."""
    return hg.sample_conditioned(n, k, float(an.ModelParams.from_phi(n, k, phi).p), seed)[0]


# the frontier (ROADMAP item 6): conditioned samples where omega = Delta
# arrives early and the nontrivial search decides.  (n, k, phi, seed) ->
# verdict, omega = Delta, and the nodes of the omega and nontrivial searches
FRONTIER_PINS = [
    ((16, 5, 80, 0), True, 84, 5119, 7005),
    ((16, 5, 80, 1), True, 97, 331, 469),
    ((16, 5, 80, 2), True, 86, 2996, 4105),
    ((16, 5, 80, 3), True, 96, 477, 636),
    ((16, 5, 120, 0), True, 132, 3219, 4035),
    ((16, 5, 120, 1), True, 131, 9795, 12406),
    ((16, 5, 120, 2), True, 137, 2708, 3404),
    ((16, 5, 120, 3), True, 134, 2823, 3552),
    ((18, 6, 100, 0), False, 115, 9966, 11282),
    ((18, 6, 100, 1), True, 118, 36355, 55490),
]


@pytest.mark.parametrize("key, holds, omega, omega_nodes, nontrivial_nodes", FRONTIER_PINS)
def test_frontier_instances_decided(key, holds, omega, omega_nodes, nontrivial_nodes):
    H = frontier_instance(*key)
    runs = {}
    for name, kernel in KERNELS.items():
        inst = vf._Instance(H)
        got, clique, nodes = kernel.max_clique(inst, vf.DEFAULT_NODE_BUDGET)
        assert (delta(inst), got, nodes) == (omega, omega, omega_nodes), name
        # no clique beats the largest star: the search returns that star
        deg = [star.bit_count() for star in inst.stars]
        assert clique == list(exact.bits_of(inst.stars[deg.index(omega)])), name
        # the decide's first search is the nontrivial one at target omega =
        # Delta, and its omega search runs only on the family that fails
        v, nodes = kernel.decide(inst, vf.DEFAULT_NODE_BUDGET)
        assert (v.holds, v.omega, v.Delta, v.witness is None) == (holds, omega, omega, holds), \
            name
        assert nodes == nontrivial_nodes + (0 if holds else omega_nodes), name
        runs[name] = v
    assert runs["python"] == runs["native"]
    v = runs["native"]
    assert v == vf.verify_ekr(H)
    if not holds:
        assert list(v.witness) == sorted(set(v.witness)) and vf.validate_witness(H, v)


def search_outcome(search, *args):
    """(best, recorded clique as a list or None, nodes), or the error text."""
    try:
        best, found, nodes = search(*args)
    except ResourceLimitError as exc:
        return str(exc)
    return best, None if found is None else list(found), nodes


@settings(max_examples=16)
@given(key=st.sampled_from([(14, 5, 60), (18, 5, 60)]), seed=st.integers(0, 2**32 - 1))
def test_kernels_agree_on_sampled_families(key, seed):
    # dense (pair-matching bound) and sparse (first-fit) frontier families:
    # omega, the omega-target and the maximizing empty-intersection searches
    H = sampled(*key, seed)
    runs = {}
    for name, kernel in KERNELS.items():
        inst = vf._Instance(H)
        omega = search_outcome(kernel.max_clique, inst, 20_000)
        target = omega[0] if isinstance(omega, tuple) else delta(inst)
        runs[name] = (omega,
                      search_outcome(kernel.nontrivial_search, inst, target, 20_000, target - 1),
                      search_outcome(kernel.nontrivial_search, inst, math.inf, 2_000, 2))
    assert runs["python"] == runs["native"]


# m at each edge of the kernel's first-fit and adjacency widths: W =
# ceil(m / 64) words per candidate set is a compile-time constant for W =
# 1..4, a loop above
WIDTH_EDGES = [63, 64, 65, 128, 129, 192, 193, 256, 257]


def edges_at(n, k, m, seed):
    """m edges of a conditioned (n, k) family of about 1.5 m, picked at
    random, kept in their colex order."""
    H = oracles.sample("conditioned", n, k, 1.5 * m / math.comb(n, k), seed)
    assert H.m >= m
    keep = sorted(np.random.default_rng(seed).choice(H.m, m, replace=False))
    return hg.Hypergraph.from_edges(n, k, [hg.edge_members(H.edge_bits[i]) for i in keep])


@pytest.mark.parametrize("m", WIDTH_EDGES)
def test_kernels_agree_at_every_coloring_width(m):
    # sparse (first-fit classes) and dense (pair matching) families of m
    # edges, searched for omega and an empty intersection, and the generic
    # search, whose feasibility test takes the first-fit classes in index
    # order: the compiled kernel and the twin give equal results and node
    # counts, whether a search finishes or runs out of its budget.  n <= 64
    # runs the one-word vertex build and n > 64 the four-word one, so each
    # meets every W
    runs = {}
    for name, kernel in KERNELS.items():
        runs[name] = []
        for n, k, zeta in ((30, 3, 3), (14, 5, 1), (70, 3, 3), (66, 23, 1)):
            inst = vf._Instance(edges_at(n, k, m, m))
            omega = search_outcome(kernel.max_clique, inst, 2_000)
            t = omega[0] if isinstance(omega, tuple) else delta(inst)
            runs[name] += [omega,
                           search_outcome(kernel.nontrivial_search, inst, t, 2_000, t - 1),
                           search_outcome(kernel.nontrivial_search, inst, math.inf, 2_000, 2),
                           search_outcome(kernel.generic_search, inst, 5, zeta, 2_000)]
    assert runs["python"] == runs["native"]
    # most searches finish, with their nodes; the others run out alike
    assert sum(isinstance(run, tuple) for run in runs["native"]) >= 10


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
def test_kernels_agree_on_the_graph_the_native_kernel_builds(family):
    make, reaches = KERNEL_BUILT_GRAPHS[family]
    H = make()
    assert reaches(H)
    runs = {}
    for name, kernel in KERNELS.items():
        inst = vf._Instance(H)
        omega = kernel.max_clique(inst, 50_000)
        runs[name] = (omega,
                      search_outcome(kernel.nontrivial_search, inst, omega[0], 50_000, omega[0] - 1),
                      search_outcome(kernel.nontrivial_search, inst, math.inf, 50_000, 2),
                      search_outcome(kernel.generic_search, inst, 4, 1, 50_000),
                      search_outcome(kernel.generic_search, inst, 3, 0, vf.DEFAULT_NODE_BUDGET))
    assert runs["python"] == runs["native"]
    (omega, clique, _), *_ = runs["native"]
    assert omega > delta(vf._Instance(H)) and len(clique) == omega == len(set(clique))
    assert all(H.edge_bits[i] & H.edge_bits[j] for i in clique for j in clique)
    assert wt.find_generic_clique(H, 3, 0) == tuple(runs["native"][-1][1])


def test_search_depth_not_limited_by_recursion():
    # every pair of 7-subsets of [13] meets, so the whole family (1716
    # edges) is one clique: search depth 1716
    H = full_K(13, 7)
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
    v = brute_force_ekr(H_from(6, 2, []))
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
        brute_force_ekr(H)


def test_brute_force_guard():
    with pytest.raises(ResourceLimitError):
        brute_force_ekr(full_K(7, 2), max_edges=20)


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
            assert brute_force_ekr(H).holds
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
        slow = brute_force_ekr(H)
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
        slow = brute_force_ekr(H)
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


@given(st.data())
def test_verify_matches_brute_force_in_every_regime(data):
    k = data.draw(st.integers(1, 4), label="k")
    # n < 2k (every pair meets), 2k <= n < 3k (matching bound), n >= 3k
    lo, hi = data.draw(st.sampled_from([(k, 2 * k - 1), (2 * k, 3 * k - 1),
                                        (3 * k, 3 * k + 3)]), label="regime")
    n = data.draw(st.integers(lo, hi), label="n")
    N = math.comb(n, k)
    ranks = data.draw(st.lists(st.integers(0, N - 1), unique=True,
                               max_size=min(N, 12)), label="ranks")
    H = H_from(n, k, [colex_unrank(r, k) for r in ranks])
    slow = brute_force_ekr(H)
    fast = vf.verify_ekr(H)
    assert (fast.holds, fast.omega, fast.Delta) == (slow.holds, slow.omega, slow.Delta)
    assert vf.validate_witness(H, fast)


# Bron-Kerbosch's bank: (n, k, phi) shapes of both regimes, conditioned
# seeds 0-4, the families of at most 90 edges (its practical range)
BK_SHAPES = [(8, 3, 10), (10, 4, 12), (11, 4, 20), (11, 4, 25), (12, 5, 15), (13, 5, 18),
             (14, 5, 16),                                                    # n < 3k
             (12, 4, 15), (15, 5, 20), (16, 4, 20), (20, 4, 15), (20, 5, 20), (24, 3, 8)]


def test_verdicts_match_bron_kerbosch():
    # an exact oracle that shares no bound with the kernel (see its
    # docstring): the verdict and omega agree, and a failing family's
    # witness is an omega-clique with an empty intersection
    seen = Counter()
    for n, k, phi in BK_SHAPES:
        for seed in range(5):
            H, _ = hg.sample_conditioned(n, k, phi / math.comb(n - 1, k - 1), seed)
            assert H.m <= 90
            holds, omega = bron_kerbosch_ekr(H)
            v = vf.verify_ekr(H)
            assert (v.holds, v.omega) == (holds, omega), (n, k, phi, seed)
            if not holds:
                w = [H.edge_bits[i] for i in v.witness]
                assert len(set(v.witness)) == len(w) == omega
                assert all(a & b for a, b in combinations(w, 2))
                assert functools.reduce(operator.and_, w) == 0
            seen[n < 3 * k, holds] += 1
    # (n < 3k, holds): 65 families, both verdicts in both regimes
    assert sorted(seen.items()) == [((False, False), 9), ((False, True), 21),
                                    ((True, False), 25), ((True, True), 10)]


def test_bron_kerbosch_reads_no_library_search():
    def names(code):
        yield from code.co_names
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                yield from names(c)

    read = set(names(bron_kerbosch_ekr.__code__)) & set(vars(oracles))
    assert read <= {"Hypergraph", "bits_of"}


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


def test_max_intersecting_family_returns_the_largest_star_as_a_list():
    # no clique beats Delta = 3, so the star of vertex 0 is the witness
    H = hg.Hypergraph.from_edges(7, 3, [[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    assert vf.max_intersecting_family(H) == (3, [0, 1, 2])
