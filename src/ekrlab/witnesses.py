"""Structured obstructions to EKR: Hilton-Milner families, generic cliques,
sequential degree profiles, and the A/B/C event taxonomy for nontrivial
cliques.

Multisets are allowed everywhere in this module; degrees count multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import _native
from .analytics import RegimeParams
from .errors import DomainError
from .exact import bits_of
from .hypergraph import Hypergraph, edge_members
from .verifier import DEFAULT_NODE_BUDGET, _branch_and_bound, _Instance, _make_coloring, \
    check_limits, is_trivial_clique


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
    """First (x ascending, B0 by edge index) witness with >= d petals, or None."""
    if d <= 0:
        raise DomainError("d must be a positive integer")
    inst = _Instance(H)
    for x, star in enumerate(inst.stars):
        if star.bit_count() < d:
            continue
        for b0 in range(H.m):
            if star >> b0 & 1:
                continue
            petals = star & inst.adj[b0]
            if petals.bit_count() >= d:
                return HMWitness(x, b0, tuple(bits_of(petals)))
    return None


def brute_force_hilton_milner(H: Hypergraph, d: int) -> bool:
    """Oracle: literal scan over all (x, B0) pairs counting petals."""
    if d <= 0:
        raise DomainError("d must be a positive integer")
    bits = H.edge_bits
    for x in range(H.n):
        for b0, e0 in enumerate(bits):
            if e0 >> x & 1:
                continue
            count = sum(1 for i, e in enumerate(bits)
                        if i != b0 and e >> x & 1 and e & e0)
            if count >= d:
                return True
    return False


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
    degree-3 count above zeta_cap.  A branch dies when the candidate count
    or coloring bound cannot reach size_t.
    """
    check_limits(node_budget=node_budget)
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
    bits, adj = inst.bits, inst.adj
    coloring = _make_coloring(adj, inst.m, False)

    def branches(kmin, P, _):
        # kmin = size_t - 1 - len(R): the popcount and first-fit coloring
        # bounds of P must exceed it
        if not coloring(P, kmin)[0]:
            return (), ()
        # ascending index order; order[idx] leaves idx + 1 candidates
        order = list(bits_of(P))[::-1]
        return order, range(1, len(order) + 1)

    def child(degrees, v):
        d1, d2, d3 = degrees
        e = bits[v]
        if e & d3 or (d3 | e & d2).bit_count() > zeta_cap:
            return None
        return d1 | e, d2 | e & d1, d3 | e & d2

    return _branch_and_bound(adj, node_budget, size_t - 1, size_t, (0, 0, 0),
                             accept=lambda P, _: True, branches=branches, child=child)


def brute_force_generic_clique(H: Hypergraph, size_t: int, zeta_cap: float) -> bool:
    """Oracle: test every size_t subfamily directly."""
    from itertools import combinations
    bits = H.edge_bits
    for idx in combinations(range(H.m), size_t):
        if all(bits[a] & bits[b] for a, b in combinations(idx, 2)):
            if is_generic_clique(H, idx, zeta_cap):
                return True
    return False


# ---------------------------------------------------------------------------
# Sequential degree profile of an ordered clique
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliqueProfile:
    """Edge-by-edge revelation stats: W_i (degree exactly 2), Z_i (>= 3),
    U_i = union; s_i = |A_i cap W_{i-1}|, r_i = |A_i cap Z_{i-1}|.

    Identities: s = |Z| and r = sum over Z of (d_v - 3); if every degree is
    <= lambda_cap then Psi = sum over Z of [C(d_v,2) - 1] <= X(r, s).
    """

    w_sizes: tuple[int, ...]
    z_sizes: tuple[int, ...]
    u_sizes: tuple[int, ...]
    s_vec: tuple[int, ...]
    r_vec: tuple[int, ...]
    s: int
    r: int
    psi: int
    x_rs: float
    max_deg: int
    num_deg3: int      # vertices with final degree exactly 3


def x_rs(r: int, s: int, lambda_cap: float) -> float:
    """X(r, s) = (lambda_cap + 2) r / 2 + 2 s."""
    return (lambda_cap + 2.0) * r / 2.0 + 2.0 * s


def clique_profile(H: Hypergraph, ordered_indices, lambda_cap: float) -> CliqueProfile:
    deg: dict[int, int] = {}
    W: set[int] = set()
    Z: set[int] = set()
    w_sizes, z_sizes, u_sizes, s_vec, r_vec = [], [], [], [], []
    for i in ordered_indices:
        mem = edge_members(H.edge_bits[i])
        s_vec.append(sum(1 for v in mem if v in W))
        r_vec.append(sum(1 for v in mem if v in Z))
        for v in mem:
            c = deg.get(v, 0) + 1
            deg[v] = c
            if c == 2:
                W.add(v)
            elif c == 3:
                W.discard(v)
                Z.add(v)
        w_sizes.append(len(W))
        z_sizes.append(len(Z))
        u_sizes.append(len(W) + len(Z))
    s = sum(s_vec)
    r = sum(r_vec)
    psi = sum(math.comb(deg[v], 2) - 1 for v in Z)
    return CliqueProfile(
        tuple(w_sizes), tuple(z_sizes), tuple(u_sizes), tuple(s_vec), tuple(r_vec),
        s, r, psi, x_rs(r, s, lambda_cap),
        max(deg.values()) if deg else 0,
        sum(1 for c in deg.values() if c == 3),
    )


# ---------------------------------------------------------------------------
# A/B/C event taxonomy for nontrivial cliques
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliqueClassification:
    kind: Optional[str]                 # "A", "B", "C", or None
    vertices: tuple[int, ...]           # certifying vertex/vertices


def classify_nontrivial_clique(H: Hypergraph, clique_indices, regime: RegimeParams,
                               eps: float) -> CliqueClassification:
    """Which of the three unlikely-event shapes the clique realizes.

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
    for x in sorted(cdeg):
        if (cdeg[x] >= regime.tau and size >= sum(b >> x & 1 for b in H.edge_bits)
                and (size >= regime.alpha or size - cdeg[x] >= 2.0 / eps)):
            return CliqueClassification("A", (x,))
    # (B)
    heavy = sorted(v for v, c in cdeg.items() if c >= regime.lam)
    if len(heavy) >= 2:
        return CliqueClassification("B", tuple(heavy[:2]))
    # (C)
    over_lambda = [v for v, c in cdeg.items() if c > regime.lam]
    if (size >= regime.gamma and len(over_lambda) <= 1
            and max(cdeg.values()) < regime.tau):
        return CliqueClassification("C", tuple(sorted(over_lambda)))
    return CliqueClassification(None, ())


# ---------------------------------------------------------------------------
# Witness JSON
# ---------------------------------------------------------------------------

def witness_to_json(H: Hypergraph, kind: str, indices) -> dict:
    """Clique JSON in the verifier's format plus a "kind" tag."""
    return {
        "kind": kind,
        "witness": [[v + 1 for v in edge_members(H.edge_bits[i])] for i in indices],
    }
