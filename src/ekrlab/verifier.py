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

Each family is prepared once (_Instance) from its edge bitsets.  Its
degree structure is the per-vertex star masks (star[x] = the edge indices
containing x): Delta is the largest popcount, the seed star is the star of
the lowest vertex of that degree (what the omega search returns when no
clique beats it), and the intersection adjacency (adj[i] = OR of star[x]
over x in edge i, minus i) follows in O(m k) operations.  Both searches run
on one relabel of that graph (_Instance.relabel): the edges sorted by
descending intersection degree, ties by index, as in MCQ's initial order
(Tomita & Seki 2003), so that the colorings, which take candidates in
index order, bound tighter.  Each search maps the clique it records back
to ascending original edge indices.  On hard families, where omega = Delta
and the nontrivial search does most of the work, that order visits far
fewer of its nodes than the original index order (see README's "Search
kernel").  The nontrivial search at floor t - 1 and target t is the one
the omega-first order ran when omega = Delta >= 3, so a failing family's
witness is the same clique.
verify_ekr is its input checks plus _decide on that one structure, and a
Monte Carlo trial on the Python path calls _decide too.

Both searches, and the generic-clique search of the witnesses module, run
on one branch-and-bound kernel (_branch_and_bound).  It walks cliques depth
first on an explicit stack, so clique size is not bounded by Python's
recursion limit.  Each caller supplies only which cliques to record, how to
bound and order the branches of a node, and the state a child carries.  A
node is a visited clique, the empty one included, and each costs one unit
of node_budget; a search that needs more raises ResourceLimitError.  The
kernel hands each node's pruning threshold kmin = best - |R| to the
caller's branch ordering, which may omit every candidate colored at or
below it (the kernel would cut those unvisited), as MCQ/MCS do.  Both
colorings work on complement-adjacency bitsets built once per search.  The
generic search colors no further than kmin: a node is feasible when a
candidate outlasts the first kmin first-fit classes (_first_classes, the
loop _color_order starts with), and it then branches on all of P lowest
first, read off the bitset with no order list (an order of None), as in
San Segundo et al.'s BBMC (2011); it also narrows each child's candidate
set to the edges the child can still take (narrow), and skips a child whose
narrowed set cannot reach the target, as MCS (Tomita et al., 2010) skips a
vertex that cannot beat the incumbent.

The three searches run on a compiled twin of that kernel (_kernel.c, with
the three callers' rules and both colorings), built with the system gcc
on the first search and loaded through ctypes (see _native).  When it
cannot be built or loaded they run on _branch_and_bound, which stays the
reference: both kernels visit the same nodes and record the same cliques,
so verdicts, witnesses, node counts and budget errors are identical.  With
the native kernel an instance marshals the edges' vertex bitsets once, on
first use, and the kernel derives the rest: _decide is one call (its
DECIDE mode, the decide() a native sweep trial runs), and the omega search
alone one call that reads Delta and returns the seed star itself, so that
path builds no Python star masks, member tuples or adjacency.  The Python
kernel builds them from the members (hypergraph.edge_members) in big-int
operations, the reference.

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
from .exact import bits_of
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
    each part on first use: with the native kernel only words, the edges'
    vertex bitsets.  members, stars, deg = the popcounts of the stars and
    Delta (degrees counting multiplicity) are built only by the Python
    kernel, witnesses.find_hilton_milner and a trial that a limit stopped,
    the adjacency (m^2 bits) and the relabel only by the Python kernel; the
    adjacency is never built for a family over the edge cap."""

    def __init__(self, H: Hypergraph):
        self.n, self.m = H.n, H.m
        self.dense_pairs = _dense_pairs(H.n, H.k)
        self.bits = H.edge_bits

    Delta = property(lambda self: max(self.deg, default=0))

    @functools.cached_property
    def members(self) -> list[tuple[int, ...]]:
        return [edge_members(b) for b in self.bits]

    @functools.cached_property
    def stars(self) -> list[int]:
        return _vertex_stars(self.n, self.members)

    @functools.cached_property
    def deg(self) -> tuple[int, ...]:
        return tuple(s.bit_count() for s in self.stars)

    @functools.cached_property
    def adj(self) -> list[int]:
        return _star_adjacency(self.members, self.stars)

    @functools.cached_property
    def words(self):
        return _native.vertex_words(self.bits)

    @functools.cached_property
    def relabel(self) -> tuple[list[int], list[int], list[int]]:
        """(perm, bits, adj) of the graph the Python kernel's omega and
        nontrivial searches share: edge i of it is edge perm[i], perm
        sorted by descending intersection degree, ties by index, and bits
        and adj are its edge bitsets and its adjacency, built the same way
        as the originals."""
        perm = sorted(range(self.m), key=lambda i: (-self.adj[i].bit_count(), i))
        members = [self.members[old] for old in perm]
        return (perm, [self.bits[old] for old in perm],
                _star_adjacency(members, _vertex_stars(self.n, members)))


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


def _first_classes(cadj, P: int, kmin: int) -> int:
    """What is left of the candidate set P once greedy coloring in index
    order has taken its first kmin classes (nothing when |P| <= kmin);
    cadj[v] is the complement of v's closed neighbourhood (see
    _complement_adjacency).  It is nonempty exactly when the coloring needs
    more than kmin colors."""
    if P.bit_count() <= kmin:
        return 0
    rest = P
    for _ in range(kmin):
        avail = rest
        while avail:
            b = avail & -avail
            avail &= cadj[b.bit_length() - 1]
            rest ^= b
    return rest


def _color_order(cadj, P: int, kmin: int):
    """Greedy coloring of the candidate set P in index order.

    Returns (vertices, colors), vertices grouped class by class, so colors is
    nondecreasing and colors[-1] is the clique-size upper bound for P.  The
    classes numbered <= kmin are colored (_first_classes) but not returned:
    a search cuts their vertices anyway.
    """
    order = []
    colors = []
    rest = _first_classes(cadj, P, kmin)
    color = max(kmin, 0)
    while rest:
        color += 1
        avail = rest
        start = len(order)
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            order.append(v)
            avail &= cadj[v]
            rest ^= b
        colors += [color] * (len(order) - start)
    return order, colors


def _pair_color_order(cadj, P: int, kmin: int):
    """Matching-based coloring for the dense regime (n < 3k), where every
    independent set of the intersection graph has at most two members.

    Classes are the pairs of a greedy maximal matching on the disjointness
    graph, improved by length-3 augmentation sweeps, plus singletons; the
    class count |P| - matching size is a much tighter clique bound here than
    first-fit coloring.  Pairs come first, by lower vertex, then singletons
    ascending; as in _color_order, classes numbered <= kmin are not returned.
    """
    size = P.bit_count()
    if size <= kmin:
        return [], []
    # the matching only grows, so once it has size - kmin pairs every class
    # is numbered <= kmin
    need = size - kmin
    # seed: fewest remaining partners first, so hard-to-pair vertices go
    # early; key = (partners, v) packed into one int, v < width
    width = P.bit_length()
    keys = [(cadj[v] & P).bit_count() * width + v
            for v, bit in enumerate(reversed(bin(P))) if bit == "1"]
    keys.sort()
    mate = {}
    free = 0                # bitmask of the unmatched vertices
    free_list = []
    untaken = P
    for key in keys:
        v = key % width
        if not untaken >> v & 1:
            continue
        avail = cadj[v] & untaken
        if avail:
            wb = avail & -avail
            w = wb.bit_length() - 1
            mate[v] = w
            mate[w] = v
            untaken ^= (1 << v) | wb
        else:
            free |= 1 << v
            free_list.append(v)
            untaken ^= 1 << v
    if len(mate) // 2 >= need:
        return [], []
    free_list.sort()
    changed = True
    while changed and len(free_list) > 1:
        changed = False
        for u in free_list:
            if not free >> u & 1:
                continue
            ub = 1 << u
            amask = cadj[u] & P
            while amask:
                ab = amask & -amask
                a = ab.bit_length() - 1
                amask ^= ab
                # the matching is maximal (no two free vertices are disjoint,
                # and augmenting keeps it so), hence a is matched: a takes u,
                # and a's mate takes the lowest free vertex it misses
                bp = mate[a]
                wmask = cadj[bp] & free & ~ub
                if wmask:
                    wb = wmask & -wmask
                    w = wb.bit_length() - 1
                    mate[u] = a
                    mate[a] = u
                    mate[bp] = w
                    mate[w] = bp
                    free ^= ub | wb
                    changed = True
                    break
        free_list = [u for u in free_list if free >> u & 1]
    npairs = len(mate) // 2
    if npairs >= need:
        return [], []
    pairs = [v for v in sorted(mate) if v < mate[v]]
    order = []
    colors = []
    for c in range(max(kmin, 0), npairs):
        v = pairs[c]
        order += (v, mate[v])
        colors += (c + 1, c + 1)
    skip = max(kmin - npairs, 0)
    order += free_list[skip:]
    colors += range(npairs + skip + 1, npairs + len(free_list) + 1)
    return order, colors


def _dense_pairs(n: int, k: int) -> bool:
    return n < 3 * k        # no 3 disjoint k-sets: _make_coloring's pair coloring


def _make_coloring(adj, m: int, dense_pairs: bool):
    """Pick the coloring bound: matching-based when independent sets of the
    intersection graph cannot exceed two edges (n < 3k), first-fit otherwise.

    Both color with the complement adjacency, built once here.  The returned
    function maps (P, kmin) to (order, colors).
    """
    cadj = _complement_adjacency(adj, m)
    color_order = _pair_color_order if dense_pairs else _color_order
    return lambda P, kmin: color_order(cadj, P, kmin)


def _complement_adjacency(adj, m: int) -> list[int]:
    """cadj[v] = the vertices neither adjacent to nor equal to v."""
    full = (1 << m) - 1
    return [full & ~a & ~(1 << v) for v, a in enumerate(adj)]


def _branch_and_bound(adj, node_budget: int, floor: int, target, root,
                      accept, branches, child, narrow=None):
    """Depth-first branch and bound over the cliques of the graph adj, on an
    explicit stack.

    A node is a clique R, its candidate set P (vertices adjacent to all of
    R and not yet branched on) and a caller state (root for the empty
    clique).  Visiting a node costs one unit of node_budget.  The node is
    recorded when len(R) > best and accept(P, state), best starting at
    floor; the search stops once best >= target.  branches(kmin, P, state)
    returns (order, colors): candidates are taken from the back of order,
    and order[idx] together with every candidate before it cannot add more
    than colors[idx] vertices to R, so the node's remaining branches are cut
    once len(R) + colors[idx] <= best.  kmin = best - len(R) is that cut as
    it stands when the node is expanded (best only grows), so branches may
    leave out every candidate whose colors entry would be <= kmin.  An
    order of None takes the lowest candidate of P left each time, so with
    colors = range(1, |P| + 1) it branches on all of P, lowest first, cut
    once len(R) + (candidates left) <= best.  child(state, v) is the state
    of R + [v], or None to skip v.  narrow(P, state, new), when given, cuts
    the child's candidate set P & adj[v] further, from the parent's state
    and the child's; the child's frame holds what it returns, and a child
    left with len(R) + 1 + |P| <= best candidates is skipped like an
    infeasible one, unvisited and uncounted (MCS's test before expansion):
    it could record no clique above best.  Returns (best, recorded clique
    or None, nodes visited).
    """
    R, best, found = [], floor, None
    left = node_budget
    stack = []
    P, state = (1 << len(adj)) - 1, root
    while True:
        left -= 1
        if left < 0:
            raise ResourceLimitError("branch-and-bound node budget exceeded")
        size = len(R)
        if size > best and accept(P, state):
            best, found = size, R.copy()
            if best >= target:
                break
        order, colors = branches(best - size, P, state)
        stack.append([P, order, colors, len(colors), state])
        # next node: the deepest frame's next unpruned, feasible candidate
        while stack:
            frame = stack[-1]
            P, order, colors, idx, state = frame
            idx -= 1
            if idx < 0 or len(R) + colors[idx] <= best:
                stack.pop()
                if R:
                    R.pop()
                continue
            v = order[idx] if order is not None else (P & -P).bit_length() - 1
            frame[0] = P & ~(1 << v)
            frame[3] = idx
            new = child(state, v)
            if new is not None:
                Q = P & adj[v]
                if narrow is not None:
                    Q = narrow(Q, state, new)
                    if len(R) + 1 + Q.bit_count() <= best:
                        continue
                R.append(v)
                P, state = Q, new
                break
        else:
            break       # the stack is empty: every branch is done
    return best, found, node_budget - left


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
    m = inst.m
    if m == 0:
        return 0, [], 0
    kernel = _native.kernel()
    if kernel:
        # the kernel reads Delta, relabels by degree and maps back, or lists the star
        return _native.search(kernel, _native.OMEGA, inst.words, dense=inst.dense_pairs,
                              floor=0, target=m + 1, node_budget=node_budget)
    perm, _, adj = inst.relabel
    coloring = _make_coloring(adj, m, inst.dense_pairs)
    omega, clique, nodes = _branch_and_bound(
        adj, node_budget, inst.Delta, math.inf, 0,
        accept=lambda P, _: not P,
        branches=lambda kmin, P, _: coloring(P, kmin),
        child=lambda state, v: state)
    if clique is None:
        return omega, list(bits_of(inst.stars[inst.deg.index(inst.Delta)])), nodes
    return omega, _mapped_back(perm, clique), nodes


def _mapped_back(perm, clique):
    """A clique of the relabelled graph as ascending original edge indices
    (None stays None)."""
    return None if clique is None else sorted(perm[v] for v in clique)


def find_nontrivial_clique(H: Hypergraph, target: int,
                           node_budget: int = DEFAULT_NODE_BUDGET):
    """Search for a clique of size target whose common intersection is empty.

    Prunes a branch when the partial clique plus its candidate set cannot
    reach the goal size (popcount and coloring bounds) and when every
    completion keeps some vertex common (AND over partial clique and all
    remaining candidates nonempty).  Deterministic: it searches the edges
    relabelled by descending intersection degree, as the omega search does,
    and returns the first clique it finds as ascending edge indices.
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
    kernel = _native.kernel()
    if kernel:
        return _native.search(kernel, _native.NONTRIVIAL, inst.words,
                              dense=inst.dense_pairs, floor=floor, target=target,
                              node_budget=node_budget)
    perm, bits, adj = inst.relabel
    coloring = _make_coloring(adj, inst.m, inst.dense_pairs)

    def branches(kmin, P, common):
        c, rest = common, P
        while rest and c:
            b = rest & -rest
            c &= bits[b.bit_length() - 1]
            rest ^= b
        # with c != 0 every extension of R from P keeps a common vertex
        return ((), ()) if c else coloring(P, kmin)

    best, found, nodes = _branch_and_bound(
        adj, node_budget, floor, target, -1,
        accept=lambda P, common: not common,
        branches=branches,
        child=lambda common, v: common & bits[v])
    return best, _mapped_back(perm, found), nodes


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
    kernel = _native.kernel()
    if kernel:
        Delta, omega, witness, nodes = _native.decide(kernel, inst.words,
                                                      dense=inst.dense_pairs,
                                                      node_budget=node_budget)
        return EkrVerdict(witness is None, omega, Delta, witness), nodes
    Delta = inst.Delta
    t = max(Delta, 3)
    if t > inst.m:
        return EkrVerdict(True, Delta, Delta, None), 0
    try:
        _, found, nodes = _nontrivial_search(inst, t, node_budget, t - 1)
    except ResourceLimitError as exc:
        out_of_budget, found, nodes = exc, None, node_budget
    else:
        if found is None:
            return EkrVerdict(True, Delta, Delta, None), nodes
        out_of_budget = None
    omega, clique, more = _max_clique(inst, node_budget)
    if omega > Delta:
        # cannot have a common vertex: |C| <= d(x) <= Delta < omega
        return EkrVerdict(False, omega, Delta, tuple(clique)), nodes + more
    if out_of_budget is not None:
        raise out_of_budget
    return EkrVerdict(False, omega, Delta, tuple(found)), nodes + more


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
