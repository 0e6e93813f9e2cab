"""Exact decision of the strong EKR property.

A family is strong-EKR when every maximum intersecting subfamily (clique in
the intersection graph of the edges) is a full star.  The decision reduces
to at most two exact searches (branch and bound, greedy-coloring upper
bounds) on the graph on edge indices with adjacency "edges intersect":

  1. the nontrivial search: one clique of t = max(Delta, 3) or more edges
     whose common intersection (bitwise AND) is empty.  If there is none,
     EKR holds and omega = Delta, and no other search runs;
  2. only if it finds one, or runs out of budget, the omega search: omega =
     maximum clique, seeded by the largest star, so the lower bound starts
     at Delta.  omega > Delta fails with that maximum clique; omega = Delta
     fails with the nontrivial clique, or is undecided when the first
     search ran out.

Why that is equivalent to "every largest clique is a star": stars are
cliques, so omega >= Delta.  A maximum clique C with a common vertex x has
|C| <= d(x) <= Delta <= omega = |C|, forcing d(x) = |C| and C = H_x, the
full star of x.  Hence every maximum clique is either a full star or has
empty common intersection, and EKR fails exactly when omega > Delta (such a
maximum clique cannot have a common vertex) or some omega-clique has empty
intersection.  Either way some clique of t or more edges has an empty
intersection: omega > Delta means omega >= 3, since cliques of size <= 2
always share a vertex (an intersecting pair already puts a vertex at
degree 2).  Conversely, such a clique has more than Delta edges, so omega >
Delta, or exactly Delta, and then omega > Delta or it is an omega-clique.
So EKR holds exactly when search 1 finds nothing, and on a family that
holds it is the only search: the omega search would only re-prove omega =
Delta.  A family of fewer than t edges (the empty one included) holds with
no search at all.

Each family is prepared once (_Instance) from its edge bitsets.  The
searches run on the compiled kernel (_kernel.c, built with the system gcc
on the first search and loaded through ctypes; see _native), which is
handed only the edges' vertex bitsets, marshalled once per family.  From
them it builds the per-vertex star words (star[x] = the edge indices
containing x): Delta is the largest popcount, the seed star is the star of
the lowest vertex of that degree (what the omega search returns when no
clique beats it), and the intersection adjacency (adj[i] = OR of star[x]
over x in edge i, minus i) follows in O(m k) word operations.  Both
searches run on one relabel of that graph: the edges sorted by descending
intersection degree, ties by index, as in MCQ's initial order (Tomita &
Seki 2003), so that the colorings, which take candidates in index order,
bound tighter.  Each search maps the clique it records back to ascending
original edge indices.  On hard families, where omega = Delta and the
nontrivial search does most of the work, that order visits far fewer of
its nodes than the original index order (see README's "Search kernel").
The nontrivial search at floor t - 1 and target t is the one the
omega-first order ran when omega = Delta >= 3, so a failing family's
witness is the same clique.  verify_ekr is its input checks plus _decide,
one kernel call (its DECIDE mode, the decide() every Monte Carlo trial
runs inside the kernel's trial batches).

Both searches, and the generic-clique search of the witnesses module, are
one branch-and-bound routine that walks cliques depth first on an explicit
stack, so clique size is not bounded by a recursion limit.  A node is a
visited clique, the empty one included, and each costs one unit of
node_budget; a search that needs more raises ResourceLimitError.  A
node's greedy coloring of its candidates bounds its branches: first-fit in
index order, or where no independent set of the intersection graph has
three edges (n < 3k) the classes of a maximal matching of the disjointness
graph.  It omits every candidate colored at or below the node's pruning
threshold kmin = best - |R|, which the search would cut unvisited, as
MCQ/MCS do.  The generic search colors no further than kmin: a node is
feasible when a candidate outlasts the first kmin first-fit classes, and
it then branches on all of its candidates lowest first, as in San Segundo
et al.'s BBMC (2011); it also narrows each child's candidate set to the
edges the child can still take, and skips a child whose narrowed set
cannot reach the target, as MCS (Tomita et al., 2010) skips a vertex that
cannot beat the incumbent, or whose missing edges' vertex incidences
cannot, at degree <= 3, make every pair of the target's edges meet (the
pair-coverage bound; a root that fails it has no branches).  tests/oracles.py holds a Python twin of the
kernel that visits the same nodes and records the same cliques; the tests
check the kernel against it node for node.

EKR is undefined for multisets: hypergraphs with repeated edges are
rejected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from . import _native
from .errors import DomainError, ResourceLimitError
from .hypergraph import Hypergraph, _vertex_stars, edge_members

DEFAULT_EDGE_CAP = 2000
DEFAULT_NODE_BUDGET = 20_000_000


@dataclass(frozen=True)
class EkrVerdict:
    holds: bool
    omega: int
    Delta: int
    witness: Optional[tuple[int, ...]]       # edge indices of a failing clique


def is_trivial_clique(clique_bits) -> tuple[bool, Optional[int]]:
    """(trivial?, center): AND across members, lowest set bit as center.

    The empty clique is trivial with no center: (True, None).
    """
    bits = list(clique_bits)
    if not bits:
        return True, None
    common = bits[0]
    for b in bits[1:]:
        common &= b
        if not common:
            return False, None
    return True, (common & -common).bit_length() - 1


def _star_adjacency(members, stars) -> list[int]:
    """adj[i] = OR of stars[x] over the vertices x of edge i, minus bit i."""
    adj = []
    for i, mem in enumerate(members):
        a = 0
        for x in mem:
            a |= stars[x]
        adj.append(a & ~(1 << i))
    return adj


def intersection_adjacency(edge_bits) -> list[int]:
    """adj[i] = bitmask of edge indices j != i with edges i, j intersecting.

    Built from the vertex stars in O(m k) big-int ORs, the members read
    through hypergraph.edge_members.  Repeated edges of a multiset
    intersect, so they are adjacent to each other.
    """
    members = [edge_members(b) for b in edge_bits]
    n = max((b.bit_length() for b in edge_bits), default=0)
    return _star_adjacency(members, _vertex_stars(n, members))


class _Instance:
    """A family's derived structure, built once and shared by the searches,
    each part on first use: words, the edges' vertex bitsets as the kernel
    reads them, for every search; members and stars only for
    witnesses.find_hilton_milner."""

    def __init__(self, H: Hypergraph):
        self.n, self.m = H.n, H.m
        self.dense_pairs = _dense_pairs(H.n, H.k)
        self.bits = H.edge_bits

    @functools.cached_property
    def members(self) -> list[tuple[int, ...]]:
        return [edge_members(b) for b in self.bits]

    @functools.cached_property
    def stars(self) -> list[int]:
        return _vertex_stars(self.n, self.members)

    @functools.cached_property
    def words(self):
        return _native.vertex_words(self.bits, self.n)


def check_limits(edge_cap: int = DEFAULT_EDGE_CAP,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> None:
    """DomainError for limits no search can run under: node_budget < 1
    (the empty clique is a node) or edge_cap < 0."""
    if node_budget < 1:
        raise DomainError(f"node budget must be >= 1; got {node_budget}")
    if edge_cap < 0:
        raise DomainError(f"edge cap must be >= 0; got {edge_cap}")


def _check_edge_cap(m: int, edge_cap: int) -> None:
    if m > edge_cap:
        raise ResourceLimitError(f"|H| = {m} exceeds the edge cap {edge_cap}")


def _dense_pairs(n: int, k: int) -> bool:
    return n < 3 * k        # no 3 disjoint k-sets: the kernel's pair coloring


def max_intersecting_family(H: Hypergraph, edge_cap: int = DEFAULT_EDGE_CAP,
                            node_budget: int = DEFAULT_NODE_BUDGET):
    """(omega, witness clique as edge indices), exact.

    Branch and bound over edge indices ordered by descending intersection
    degree (ties by index, i.e. input/colex order), greedy-coloring bounds,
    lower bound seeded with the largest star, which is the witness when no
    clique beats it.
    """
    check_limits(edge_cap, node_budget)
    _check_edge_cap(H.m, edge_cap)
    return _max_clique(_Instance(H), node_budget)[:2]


def _max_clique(inst: _Instance, node_budget: int):
    """(omega, a maximum clique as ascending edge indices, nodes visited):
    when none beats the largest star, of size Delta, the star of the lowest
    vertex of that degree."""
    if inst.m == 0:
        return 0, [], 0
    # the kernel reads Delta, relabels by degree and maps back, or lists the star
    return _native.search(_native.OMEGA, inst.words, inst.n, dense=inst.dense_pairs,
                          floor=0, target=inst.m + 1, node_budget=node_budget)


def find_nontrivial_clique(H: Hypergraph, target: int,
                           node_budget: int = DEFAULT_NODE_BUDGET):
    """The first clique of target or more edges with an empty common
    intersection that the search records, as ascending edge indices, or None.

    The search walks the edges relabelled by descending intersection
    degree, as the omega search does, depth first, and records the first
    clique it visits that has at least target edges and an empty
    intersection (bitwise AND); that clique may have far more than target
    edges.  It prunes a branch when the partial clique plus its candidate
    set cannot reach target (popcount and coloring bounds) and when every
    completion keeps some vertex common (AND over the partial clique and
    all remaining candidates nonempty).  Deterministic.
    """
    check_limits(node_budget=node_budget)
    if H.m == 0 or target > H.m:
        return None
    _, found, _ = _nontrivial_search(_Instance(H), target, node_budget, target - 1)
    return None if found is None else tuple(found)


def _nontrivial_search(inst: _Instance, target, node_budget: int, floor: int):
    """(best, first clique recorded as ascending edge indices, nodes
    visited): the search records a clique with empty common intersection
    whenever it beats best (from floor) and stops once best >= target.  It
    runs on the omega search's relabel by descending degree."""
    return _native.search(_native.NONTRIVIAL, inst.words, inst.n, dense=inst.dense_pairs,
                          floor=floor, target=target, node_budget=node_budget)


def max_nontrivial_clique(H: Hypergraph, node_budget: int = DEFAULT_NODE_BUDGET,
                          initial_best: int | None = None):
    """(size, witness) of the largest clique with empty common intersection.

    Size is reported as the initial floor (default 2: cliques that small
    always share a vertex) when nothing larger exists.
    """
    check_limits(node_budget=node_budget)
    floor = 2 if initial_best is None else initial_best
    if H.m < 3:
        return floor, None
    best, found, _ = _nontrivial_search(_Instance(H), math.inf, node_budget, floor)
    return best, (tuple(found) if found else None)


def verify_ekr(H: Hypergraph, edge_cap: int = DEFAULT_EDGE_CAP,
               node_budget: int = DEFAULT_NODE_BUDGET) -> EkrVerdict:
    """Exact strong-EKR verdict; see the module docstring for the argument."""
    if H.has_duplicates():
        raise DomainError("EKR is undefined for multisets: duplicate edges present")
    check_limits(edge_cap, node_budget)
    _check_edge_cap(H.m, edge_cap)
    return _decide(_Instance(H), node_budget)[0]


def _decide(inst: _Instance, node_budget: int) -> tuple[EkrVerdict, int]:
    """verify_ekr's verdict on a prepared family of distinct edges, and the
    nodes its searches visited: the nontrivial search first, the omega
    search only when that one finds a clique or runs out (see the module
    docstring), each on its own node_budget."""
    Delta, omega, witness, nodes = _native.decide(inst.words, inst.n, dense=inst.dense_pairs,
                                                  node_budget=node_budget)
    return EkrVerdict(witness is None, omega, Delta, witness), nodes


def validate_witness(H: Hypergraph, verdict: EkrVerdict) -> bool:
    """Re-validate a failure witness by direct bitset ANDs."""
    if verdict.holds:
        return verdict.witness is None
    w = verdict.witness
    if w is None or len(w) != verdict.omega:
        return False
    bts = [H.edge_bits[i] for i in w]
    for i in range(len(bts)):
        for j in range(i + 1, len(bts)):
            if not bts[i] & bts[j]:
                return False
    trivial, _ = is_trivial_clique(bts)
    return not trivial or verdict.omega > verdict.Delta


def verdict_to_json(H: Hypergraph, verdict: EkrVerdict) -> dict:
    """Verdict JSON: {holds, omega, delta, witness} with 1-based vertices."""
    witness = None
    if verdict.witness is not None:
        witness = [[v + 1 for v in edge_members(H.edge_bits[i])] for i in verdict.witness]
    return {"holds": verdict.holds, "omega": verdict.omega,
            "delta": verdict.Delta, "witness": witness}
