"""Reference implementations that only the tests call: brute-force
enumerations the library's searches and closed forms are checked against,
each a literal reading of its definition, small and slow on purpose, and
the per-trial CSV that pins every field of a trial record.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from itertools import combinations

from ekrlab import exact
from ekrlab.errors import DomainError, ResourceLimitError
from ekrlab.hypergraph import Hypergraph
from ekrlab.montecarlo import SCHEMA_VERSION, _fmt
from ekrlab.verifier import EkrVerdict
from ekrlab.witnesses import is_generic_clique


# ---------------------------------------------------------------------------
# analytics
# ---------------------------------------------------------------------------

def brute_force_intersection_probability(n: int, k: int) -> Fraction:
    """Fraction of intersecting ordered pairs over all C(n,k)^2."""
    masks = [exact.mask_from(c) for c in combinations(range(n), k)]
    hits = sum(1 for a in masks for b in masks if a & b)
    return Fraction(hits, len(masks) ** 2)


def chernoff_mult_rescaled(rho: float, mu: float, K: float) -> float:
    """The honest bound e^(K mu - rho) (K mu / rho)^(-K mu) behind the
    relaxed corollary; decreasing in mu >= rho, equal to chernoff_mult at
    mu = rho."""
    if rho <= 0 or rho > mu:
        raise DomainError("need 0 < rho <= mu")
    if K <= 1:
        raise DomainError("need K > 1")
    Kmu = K * mu
    return math.exp(Kmu - rho - Kmu * math.log(Kmu / rho))


def exact_conditional_intersection(n: int, k: int, w: int, z: int, b_in_w: int) -> Fraction:
    """Exact Pr(A meets B \\ W | A cap W = Z) by counting.

    |W| = w, |Z| = z (Z subseteq W cap A), |B cap W| = b_in_w; A uniform
    from the k-sets of [n].  Depends only on these sizes.
    """
    if not (0 <= z <= min(w, k) and 0 <= b_in_w <= min(w, k) and w < n):
        raise DomainError("infeasible (w, z, b_in_w) configuration")
    rest = k - z            # A \ Z drawn from V \ W
    pool = n - w
    b_out = k - b_in_w      # |B \ W|
    total = math.comb(pool, rest)
    if total == 0:
        raise DomainError("no completion of A exists for this configuration")
    avoid = math.comb(pool - b_out, rest) if pool - b_out >= rest else 0
    return 1 - Fraction(avoid, total)


def binom_tail_ge_fractions(M: int, p, t: int) -> Fraction:
    """Pr(X >= t), X ~ Bin(M, p), as a sum of Fraction terms
    C(M, j) p^j (1-p)^(M-j) over the side exact.binom_tail_ge_exact sums:
    its formula before it summed integer numerators."""
    p = Fraction(p)
    if t <= 0:
        return Fraction(1)
    if t > M or p == 0:
        return Fraction(0)
    if p == 1:
        return Fraction(1)
    if t <= M * p:
        return 1 - sum(math.comb(M, j) * p**j * (1 - p) ** (M - j) for j in range(t))
    return sum(math.comb(M, j) * p**j * (1 - p) ** (M - j) for j in range(t, M + 1))


# ---------------------------------------------------------------------------
# colex ranking: the reference for the samplers' and the kernel's unrank
# ---------------------------------------------------------------------------

def colex_rank(members) -> int:
    """Rank of a k-subset in colexicographic order (0-based vertices)."""
    rank = 0
    for i, v in enumerate(sorted(members)):
        rank += math.comb(v, i + 1)
    return rank


def colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    """Inverse of colex_rank: the k-subset at the given colex rank."""
    if rank < 0 or k < 0:
        raise ValueError("rank and k must be nonnegative")
    out = []
    r = rank
    for i in range(k, 0, -1):
        v = i - 1  # C(i-1, i) = 0 <= r always
        while math.comb(v + 1, i) <= r:
            v += 1
        r -= math.comb(v, i)
        out.append(v)
    if r != 0:
        raise ValueError("rank exceeds C(max_element+1, k)")
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# verifier and witnesses
# ---------------------------------------------------------------------------

def brute_force_ekr(H: Hypergraph, max_edges: int = 20) -> EkrVerdict:
    """Walk every clique of the subfamily lattice.

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


def brute_force_hilton_milner(H: Hypergraph, d: int) -> bool:
    """Literal scan over all (x, B0) pairs counting petals."""
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


def brute_force_generic_clique(H: Hypergraph, size_t: int, zeta_cap: float):
    """The first size_t subfamily in combinations(range(m), size_t) order
    that is a generic clique, as a tuple of edge indices, or None: each is
    tested directly."""
    bits = H.edge_bits
    for idx in combinations(range(H.m), size_t):
        if all(bits[a] & bits[b] for a, b in combinations(idx, 2)):
            if is_generic_clique(H, idx, zeta_cap):
                return idx
    return None


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

TRIAL_CSV_FIELDS = (
    "trial_index", "seed", "m", "delta", "omega", "ekr_holds",
    "lambda_prime_of_delta", "witness_kind", "error",
)


def trial_records_to_csv(records) -> str:
    """Every field of each trial record, one CSV row per record, in the
    sweep CSV's number format; the golden trial hash is taken over it."""
    out = io.StringIO()
    out.write(f"# ekrlab trials schema={SCHEMA_VERSION}\n")
    out.write(",".join(TRIAL_CSV_FIELDS) + "\n")
    for r in records:
        row = (r.trial_index, r.seed, r.m, r.Delta, r.omega, r.ekr_holds,
               r.lambda_prime_of_Delta, r.witness_kind, r.error)
        out.write(",".join(_fmt(v) for v in row) + "\n")
    return out.getvalue()
