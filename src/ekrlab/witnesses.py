"""Structured obstructions to EKR: Hilton-Milner families, generic cliques,
and the A/B/C event taxonomy for nontrivial cliques.

Multisets are allowed everywhere in this module; degrees count multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _native
from .analytics import RegimeParams
from .errors import DomainError
from .exact import bits_of
from .hypergraph import Hypergraph, edge_members
from .verifier import DEFAULT_NODE_BUDGET, _branch_and_bound, _complement_adjacency, \
    _first_classes, _Instance, check_limits, is_trivial_clique


# ---------------------------------------------------------------------------
# Hilton-Milner families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HMWitness:
    """{B0} plus >= d petals through a common vertex x outside B0, all
    meeting B0; the extremal nontrivial clique shape."""

    center: int
    b0_index: int
    petal_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return 1 + len(self.petal_indices)


def find_hilton_milner(H: Hypergraph, d: int) -> Optional[HMWitness]:
    """First (x ascending, B0 by edge index) witness with >= d petals, or None.

    The petals are star[x] & adj[B0], the OR over B0's vertices v of the
    pair star star[x] & star[v] (star[x] lacks B0, so its own bit does not
    matter).  The pair stars are built once for each x of degree >= d and
    dropped after it, so the detector holds O(n m) bits, never the m^2 of
    the adjacency.
    """
    if d <= 0:
        raise DomainError("d must be a positive integer")
    inst = _Instance(H)
    stars = inst.stars
    for x, star in enumerate(stars):
        if star.bit_count() < d:
            continue
        pairs = [star & s for s in stars]
        for b0, members in enumerate(inst.members):
            if x in members:        # B0 is in star[x]
                continue
            petals = 0
            for v in members:
                petals |= pairs[v]
            if petals.bit_count() >= d:
                return HMWitness(x, b0, tuple(bits_of(petals)))
    return None


def hm_count_bound(params, d: int) -> float:
    """Dominant union-bound term phi^(d+1) k^(2d-1) n^(-(d-2)) for the
    probability that a Hilton-Milner family of size d+1 appears."""
    if d <= 0:
        raise DomainError("d must be a positive integer")
    phi = float(params.phi)
    return phi ** (d + 1) * float(params.k) ** (2 * d - 1) * float(params.n) ** (-(d - 2))


# ---------------------------------------------------------------------------
# Generic cliques
# ---------------------------------------------------------------------------

def _clique_degrees(H: Hypergraph, indices) -> dict[int, int]:
    deg: dict[int, int] = {}
    for i in indices:
        for v in bits_of(H.edge_bits[i]):
            deg[v] = deg.get(v, 0) + 1
    return deg


def _require_clique(H: Hypergraph, indices) -> None:
    idx = list(indices)
    bits = H.edge_bits
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if not bits[idx[a]] & bits[idx[b]]:
                raise DomainError(
                    f"not a clique: edges {idx[a]} and {idx[b]} are disjoint")


def is_generic_clique(H: Hypergraph, indices, zeta_cap: float) -> bool:
    """Max vertex degree <= 3 and at most zeta_cap vertices of degree
    exactly 3, degrees counted with multiplicity; input must be a clique."""
    if zeta_cap != zeta_cap:        # NaN: every count compares false with it
        raise DomainError("zeta cap must be a number, got nan")
    _require_clique(H, indices)
    deg = _clique_degrees(H, indices)
    if not deg:
        return True
    if max(deg.values()) > 3:
        return False
    return sum(1 for c in deg.values() if c == 3) <= zeta_cap


def find_generic_clique(H: Hypergraph, size_t: int, zeta_cap: float,
                        node_budget: int = DEFAULT_NODE_BUDGET) -> Optional[tuple[int, ...]]:
    """First generic clique of the given size in deterministic (index) order.

    Runs the verifier's branch-and-bound kernel (native or Python, with
    the same result) over edge indices in ascending order.  A node carries
    the vertices of clique-degree >= 1, >= 2 and exactly 3 as bitsets; edge
    e is infeasible when it meets a degree-3 vertex or would raise the
    degree-3 count above zeta_cap.  d2 and d3 only grow down the tree, so
    a child drops from its candidates every edge that is infeasible there:
    those through a degree-3 vertex and, once |d3| + 1 > zeta_cap, those
    through a degree-2 one.  A node branches only when the greedy coloring
    of its candidates needs more than size_t - 1 - |R| colors, which it
    tests by coloring that many classes and looking for a candidate left
    (verifier._first_classes); it then takes its candidates lowest first,
    and a branch dies once the candidates left cannot reach size_t.  A child
    whose narrowed candidates cannot reach size_t is not made at all: it
    costs no node.  A dropped edge or child extends no generic clique of the
    node's, and the order is lowest first, so the clique returned is the
    first generic one in combinations(range(m), size_t) order.
    """
    check_limits(node_budget=node_budget)
    if zeta_cap != zeta_cap:        # NaN: the search would run with no cap
        raise DomainError("zeta cap must be a number, got nan")
    if size_t < 0:
        raise DomainError("size_t must be nonnegative")
    if size_t == 0:
        return ()
    if size_t > H.m:
        return None
    _, found, _ = _generic_search(_Instance(H), size_t, zeta_cap, node_budget)
    return None if found is None else tuple(found)


def _generic_search(inst: _Instance, size_t: int, zeta_cap: float, node_budget: int):
    """find_generic_clique's search: (best, clique or None, nodes visited)."""
    kernel = _native.kernel()
    if kernel:
        return _native.search(kernel, _native.GENERIC, inst.words, floor=size_t - 1,
                              target=size_t, zeta_cap=zeta_cap, node_budget=node_budget)
    bits, adj, stars = inst.bits, inst.adj, inst.stars
    cadj = _complement_adjacency(adj, inst.m)

    def branches(kmin, P, _):
        # kmin = size_t - 1 - len(R): the popcount and first-fit coloring
        # bounds of P must exceed it; then all of P, lowest first
        if not _first_classes(cadj, P, kmin):
            return (), ()
        return None, range(1, P.bit_count() + 1)

    def child(degrees, v):
        d1, d2, d3 = degrees
        e = bits[v]
        if e & d3 or (d3 | e & d2).bit_count() > zeta_cap:
            return None
        return d1 | e, d2 | e & d1, d3 | e & d2

    def narrow(P, before, after):
        # drop the edges that child() rejects here, which stay rejected
        # below: through a degree-3 vertex, and through a degree-2 one once
        # |d3| + 1 > zeta_cap.  P lacks those of before's vertices already
        done = before[1] if before[2].bit_count() + 1 > zeta_cap else before[2]
        drop = after[1] if after[2].bit_count() + 1 > zeta_cap else after[2]
        for x in bits_of(drop & ~done):
            P &= ~stars[x]
        return P

    return _branch_and_bound(adj, node_budget, size_t - 1, size_t, (0, 0, 0),
                             accept=lambda P, _: True, branches=branches, child=child,
                             narrow=narrow)


# ---------------------------------------------------------------------------
# A/B/C event taxonomy for nontrivial cliques
# ---------------------------------------------------------------------------

def classify_nontrivial_clique(H: Hypergraph, clique_indices, regime: RegimeParams,
                               eps: float) -> Optional[str]:
    """Which of the three unlikely-event shapes the clique realizes: "A",
    "B", "C", or None.

    Checked in fixed priority order (the shapes overlap; the derivation only
    needs "at least one", so determinism requires an order):

      A: some x with clique-degree >= tau, |C| >= d(x) (degree in H), and
         |C| >= alpha or |C| - d_C(x) >= 2/eps;
      B: two vertices of clique-degree at least lambda;
      C: |C| >= gamma, at most one vertex of clique-degree greater than
         lambda (strict, as opposed to B's non-strict), max degree < tau.
    """
    idx = list(clique_indices)
    _require_clique(H, idx)
    trivial, _ = is_trivial_clique(H.edge_bits[i] for i in idx)
    if trivial:
        raise DomainError("taxonomy applies to nontrivial cliques only")
    cdeg = _clique_degrees(H, idx)
    size = len(idx)
    # (A); d(x) in H is counted only for the x that reach the test
    if any(c >= regime.tau and size >= sum(b >> x & 1 for b in H.edge_bits)
           and (size >= regime.alpha or size - c >= 2.0 / eps) for x, c in cdeg.items()):
        return "A"
    # (B)
    if sum(1 for c in cdeg.values() if c >= regime.lam) >= 2:
        return "B"
    # (C)
    if (size >= regime.gamma and sum(1 for c in cdeg.values() if c > regime.lam) <= 1
            and max(cdeg.values()) < regime.tau):
        return "C"
    return None


# ---------------------------------------------------------------------------
# Witness JSON
# ---------------------------------------------------------------------------

def witness_to_json(H: Hypergraph, kind: str, indices) -> dict:
    """Clique JSON in the verifier's format plus a "kind" tag."""
    return {
        "kind": kind,
        "witness": [[v + 1 for v in edge_members(H.edge_bits[i])] for i in indices],
    }
