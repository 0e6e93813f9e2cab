"""Exact decision of the strong EKR property.

A family is strong-EKR when every maximum intersecting subfamily (clique in
the intersection graph of the edges) is a full star.  The decision reduces
to two exact searches:

  1. omega = maximum clique in the graph on edge indices with adjacency
     "edges intersect" (branch and bound, greedy-coloring upper bounds,
     seeded by the largest star, so the lower bound starts at Delta);
  2. if omega == Delta, a second branch and bound looking for one
     omega-clique whose common intersection (bitwise AND) is empty.

Why that is equivalent to "every largest clique is a star": stars are
cliques, so omega >= Delta.  A maximum clique C with a common vertex x has
|C| <= d(x) <= Delta <= omega = |C|, forcing d(x) = |C| and C = H_x, the
full star of x.  Hence every maximum clique is either a full star or has
empty common intersection, and EKR fails exactly when omega > Delta (such a
maximum clique cannot have a common vertex) or some omega-clique has empty
intersection.  Cliques of size <= 2 always share a vertex, so omega <= 2
(including the empty hypergraph) verdicts "holds".

Each family is prepared once (_Instance) from its edge bitsets.  Its
degree structure is the per-vertex star masks (star[x] = the edge indices
containing x): Delta is the largest popcount, the seed star is the star of
the lowest vertex of that degree (listed only by max_intersecting_family,
when no clique beats it), event R's pair maxima are popcounts of
ANDs of stars, and the intersection adjacency (adj[i] = OR of star[x] over
x in edge i, minus i) follows in O(m k) operations.  verify_ekr is its
input checks plus _decide on that one structure; a Monte Carlo trial on
the Python path hands _decide the instance it built for event R, and the
native trials (_kernel.c's ekr_trials) run _decide's two searches themselves.

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
colorings work on complement-adjacency bitsets built once per search.

The three searches run on a compiled twin of that kernel (_kernel.c, with
the three callers' rules and both colorings), built with the system gcc
on the first search and loaded through ctypes (see _native).  When it
cannot be built or loaded they run on _branch_and_bound, which stays the
reference: both kernels visit the same nodes and record the same cliques,
so verdicts, witnesses, node counts and budget errors are identical.  With
the native kernel an instance marshals the edges' vertex bitsets once, and
the kernel builds the star words from them: one call in its STATS mode
gives Delta, its lowest vertex and event R's pair maxima, and each search
builds the adjacency and the omega relabel itself, so that path builds no
Python star masks, member tuples or adjacency.  With the Python kernel the
instance builds them from the members (read through
hypergraph.edge_members) in big-int operations; that path is the reference.

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
from .hypergraph import Hypergraph, _star_maxima, _vertex_stars, edge_members

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
    """A family's derived structure, built once and shared by the searches:
    Delta, centre (the lowest vertex of degree Delta, -1 when m = 0) and
    pair_maxima (max d(x, y) over x != y, max |W_x|), degrees counting
    multiplicity.

    With the native kernel these come from one STATS call on words, the
    edges' vertex bitsets marshalled once.  Otherwise they are read off the
    star masks, the reference.  members, stars, deg = the popcounts of the
    stars, and the adjacency (m^2 bits) are built on first use, only by the
    Python kernel and witnesses.find_hilton_milner; the adjacency is never
    built for a family over the edge cap."""

    def __init__(self, H: Hypergraph):
        self.n, self.m = H.n, H.m
        self.dense_pairs = H.n < 3 * H.k        # see _make_coloring
        self.bits = H.edge_bits
        kernel = _native.kernel()
        if kernel:
            # the cached properties words and pair_maxima, filled in here
            self.words = _native.vertex_words(self.bits)
            self.Delta, self.centre, *maxima = _native.stats(kernel, self.words)
            self.pair_maxima = tuple(maxima)
        else:
            self.Delta = max(self.deg, default=0)
            self.centre = self.deg.index(self.Delta) if self.m else -1

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
    def pair_maxima(self) -> tuple[int, int]:
        return _star_maxima(self.stars)

    @functools.cached_property
    def adj(self) -> list[int]:
        return _star_adjacency(self.members, self.stars)

    @functools.cached_property
    def words(self):
        return _native.vertex_words(self.bits)


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


def _color_order(cadj, P: int, kmin: int):
    """Greedy coloring of the candidate set P in index order; cadj[v] is the
    complement of v's closed neighbourhood (see _make_coloring).

    Returns (vertices, colors), vertices grouped class by class, so colors is
    nondecreasing and colors[-1] is the clique-size upper bound for P.  The
    classes numbered <= kmin are colored but not returned: a search cuts
    their vertices anyway.
    """
    order = []
    colors = []
    if P.bit_count() <= kmin:
        return order, colors
    color = 0
    rest = P
    while rest:
        color += 1
        avail = rest
        if color <= kmin:
            while avail:
                b = avail & -avail
                avail &= cadj[b.bit_length() - 1]
                rest ^= b
            continue
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


def _make_coloring(adj, m: int, dense_pairs: bool):
    """Pick the coloring bound: matching-based when independent sets of the
    intersection graph cannot exceed two edges (n < 3k), first-fit otherwise.

    Both color with the complement adjacency cadj[v] (the vertices neither
    adjacent to nor equal to v), built once here.  The returned function
    maps (P, kmin) to (order, colors).
    """
    full = (1 << m) - 1
    cadj = [full & ~a & ~(1 << v) for v, a in enumerate(adj)]
    color_order = _pair_color_order if dense_pairs else _color_order
    return lambda P, kmin: color_order(cadj, P, kmin)


def _branch_and_bound(adj, node_budget: int, floor: int, target, root,
                      accept, branches, child):
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
    leave out every candidate whose colors entry would be <= kmin.
    child(state, v) is the state of R + [v], or None to skip v.  Returns
    (best, recorded clique or None, nodes visited).
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
        stack.append([P, order, colors, len(order), state])
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
            v = order[idx]
            frame[0] = P & ~(1 << v)
            frame[3] = idx
            state = child(state, v)
            if state is not None:
                R.append(v)
                P &= adj[v]
                break
        else:
            break       # the stack is empty: every branch is done
    return best, found, node_budget - left


def max_intersecting_family(H: Hypergraph, edge_cap: int = DEFAULT_EDGE_CAP,
                            node_budget: int = DEFAULT_NODE_BUDGET):
    """(omega, witness clique as edge indices), exact.

    Branch and bound over edge indices ordered by descending intersection
    degree (ties by index, i.e. input/colex order), greedy-coloring bounds,
    lower bound seeded with the largest star.
    """
    check_limits(edge_cap, node_budget)
    _check_edge_cap(H.m, edge_cap)
    inst = _Instance(H)
    omega, clique, _ = _max_clique(inst, node_budget)
    if clique is None:       # no clique beats the largest star: return it
        return omega, [i for i, b in enumerate(H.edge_bits) if b >> inst.centre & 1]
    return omega, clique


def _max_clique(inst: _Instance, node_budget: int):
    """(omega, clique as ascending edge indices, nodes visited); the clique
    is None when none beats the largest star, of size Delta."""
    m = inst.m
    if m == 0:
        return 0, [], 0
    kernel = _native.kernel()
    if kernel:
        # the kernel relabels by degree itself and maps the clique back
        omega, clique, nodes = _native.search(
            kernel, _native.OMEGA, inst.words, dense=inst.dense_pairs,
            floor=inst.Delta, target=m + 1, node_budget=node_budget)
    else:
        # relabel by descending degree for better coloring bounds: the stars
        # and adjacency of the permuted edge order, built the same way as
        # the originals
        perm = sorted(range(m), key=lambda i: (-inst.adj[i].bit_count(), i))
        members = [inst.members[old] for old in perm]
        radj = _star_adjacency(members, _vertex_stars(inst.n, members))
        coloring = _make_coloring(radj, m, inst.dense_pairs)
        omega, clique, nodes = _branch_and_bound(
            radj, node_budget, inst.Delta, math.inf, 0,
            accept=lambda P, _: not P,
            branches=lambda kmin, P, _: coloring(P, kmin),
            child=lambda state, v: state)
        if clique is not None:
            clique = [perm[v] for v in clique]
    return omega, None if clique is None else sorted(clique), nodes


def find_nontrivial_clique(H: Hypergraph, target: int,
                           node_budget: int = DEFAULT_NODE_BUDGET,
                           initial_best: int | None = None,
                           maximize: bool = False):
    """Search for a clique of size target (or, with maximize, the largest
    clique of size > initial_best) whose common intersection is empty.

    Prunes a branch when the partial clique plus its candidate set cannot
    reach the goal size (popcount and coloring bounds) and when every
    completion keeps some vertex common (AND over partial clique and all
    remaining candidates nonempty).  Deterministic: candidates explored in
    index order.
    """
    check_limits(node_budget=node_budget)
    if maximize:
        floor = initial_best if initial_best is not None else 2
    else:
        floor = initial_best if initial_best is not None else target - 1
    if H.m == 0 or target > H.m:
        return (floor, None) if maximize else None
    best, found, _ = _nontrivial_search(_Instance(H), math.inf if maximize else target,
                                        node_budget, floor)
    if maximize:
        return best, (tuple(found) if found else None)
    if found is not None and len(found) >= target:
        return tuple(found)
    return None


def _nontrivial_search(inst: _Instance, target, node_budget: int, floor: int):
    """(best, first clique recorded, nodes visited): the search records a
    clique with empty common intersection whenever it beats best (from
    floor) and stops once best >= target."""
    kernel = _native.kernel()
    if kernel:
        return _native.search(kernel, _native.NONTRIVIAL, inst.words,
                              dense=inst.dense_pairs, floor=floor, target=target,
                              node_budget=node_budget)
    bits = inst.bits
    coloring = _make_coloring(inst.adj, inst.m, inst.dense_pairs)

    def branches(kmin, P, common):
        c, rest = common, P
        while rest and c:
            b = rest & -rest
            c &= bits[b.bit_length() - 1]
            rest ^= b
        # with c != 0 every extension of R from P keeps a common vertex
        return ((), ()) if c else coloring(P, kmin)

    return _branch_and_bound(
        inst.adj, node_budget, floor, target, -1,
        accept=lambda P, common: not common,
        branches=branches,
        child=lambda common, v: common & bits[v])


def max_nontrivial_clique(H: Hypergraph, node_budget: int = DEFAULT_NODE_BUDGET,
                          initial_best: int | None = None):
    """(size, witness) of the largest clique with empty common intersection.

    Size is reported as the initial floor (default 2: cliques that small
    always share a vertex) when nothing larger exists.
    """
    return find_nontrivial_clique(H, target=3, node_budget=node_budget,
                                  initial_best=initial_best, maximize=True)


def verify_ekr(H: Hypergraph, edge_cap: int = DEFAULT_EDGE_CAP,
               node_budget: int = DEFAULT_NODE_BUDGET) -> EkrVerdict:
    """Exact strong-EKR verdict; see the module docstring for the argument."""
    if H.has_duplicates():
        raise DomainError("EKR is undefined for multisets: duplicate edges present")
    check_limits(edge_cap, node_budget)
    _check_edge_cap(H.m, edge_cap)
    return _decide(_Instance(H), node_budget)


def _decide(inst: _Instance, node_budget: int) -> EkrVerdict:
    """verify_ekr's verdict on a prepared family of distinct edges."""
    Delta = inst.Delta
    omega, clique, _ = _max_clique(inst, node_budget)
    if omega > Delta:
        # cannot have a common vertex: |C| <= d(x) <= Delta < omega
        return EkrVerdict(False, omega, Delta, tuple(clique))
    if omega <= 2:
        return EkrVerdict(True, omega, Delta, None)
    _, found, _ = _nontrivial_search(inst, omega, node_budget, omega - 1)
    witness = None if found is None else tuple(found)
    return EkrVerdict(witness is None, omega, Delta, witness)


def brute_force_ekr(H: Hypergraph, max_edges: int = 20) -> EkrVerdict:
    """Test oracle: walk every clique of the subfamily lattice.

    Identical contract to verify_ekr; guarded to |H| <= max_edges.
    """
    if H.m > max_edges:
        raise ResourceLimitError(f"brute force limited to |H| <= {max_edges}")
    if H.has_duplicates():
        raise DomainError("EKR is undefined for multisets: duplicate edges present")
    # Delta and the adjacency by direct counts, not from the star masks
    bits = H.edge_bits
    Delta = max((sum(b >> x & 1 for b in bits) for x in range(H.n)), default=0)
    m = H.m
    adj = [sum(1 << j for j in range(m) if j != i and bits[i] & bits[j])
           for i in range(m)]
    best = [0]                # omega
    best_nontrivial = [0, None]

    def walk(R: list, common: int, cand: int):
        size = len(R)
        best[0] = max(best[0], size)
        if common == 0 and size > best_nontrivial[0]:
            best_nontrivial[0] = size
            best_nontrivial[1] = R.copy()
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            R.append(v)
            walk(R, common & bits[v], cand & adj[v])
            R.pop()

    walk([], -1, (1 << m) - 1)
    omega = best[0]
    if best_nontrivial[0] == omega and omega >= 3:
        return EkrVerdict(False, omega, Delta, tuple(best_nontrivial[1]))
    return EkrVerdict(True, omega, Delta, None)


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
