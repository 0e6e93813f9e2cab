"""Reference implementations that only the tests call: brute-force
enumerations the library's searches and closed forms are checked against,
each a literal reading of its definition, small and slow on purpose; the
numpy samplers, whose streams the compiled kernel's draws are checked
against byte for byte; the Python twin of the compiled search kernel, which
the kernel is checked against node for node; the witness classifier on a
clique's degree table, which the library's bit-sliced one is checked
against; and the per-trial CSV that pins every field of a trial record.
"""

from __future__ import annotations

import decimal
import functools
import io
import math
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, combinations
from types import SimpleNamespace

import numpy as np

from ekrlab import exact
from ekrlab import verifier as vf
from ekrlab import witnesses as wt
from ekrlab.errors import DomainError, ParseError, ResourceLimitError
from ekrlab.exact import bits_of
from ekrlab.hypergraph import (MAX_N, Hypergraph, _check_draws, _vertex_stars, check_nk,
                               m_window)
from ekrlab.montecarlo import SCHEMA_VERSION, _fmt
from ekrlab.verifier import EkrVerdict, _star_adjacency


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


# Bernoulli numbers B_2, B_4, ..., B_20 of the Stirling series for log n!
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
              Fraction(43867, 798), Fraction(-174611, 330)]


def _decimal_pi() -> Decimal:
    """pi at the current decimal precision (the decimal module's recipe)."""
    decimal.getcontext().prec += 2
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def _log_factorial(n: int, log_2pi: Decimal) -> Decimal:
    """log n! at the current decimal precision: of the exact int below
    1000, else Stirling's series to B_20, whose remainder there is below
    1e-60 of its last term."""
    if n < 1000:
        return Decimal(math.factorial(n)).ln()
    x = Decimal(n)
    s = (x + Decimal("0.5")) * x.ln() - x + log_2pi / 2
    for i, b in enumerate(_BERNOULLI, 1):
        s += Decimal(b.numerator) / (Decimal(b.denominator) * (2 * i) * (2 * i - 1)
                                     * x ** (2 * i - 1))
    return s


def binom_tail_ge_decimal(M: int, p: float, t: int, digits: int = 60) -> Decimal:
    """Pr(X >= t), X ~ Bin(M, p), p's exact binary value, in stdlib decimal
    at digits + 40 digits (log C(M, j) of M ~ 1e26 cancels ~30): the pmf at
    the boundary term from log C(M, j) + j log p + (M - j) log(1 - p), then
    the terms away from it by their exact ratios, until one is below
    10^-(digits + 5) of the sum; the lower side is summed, and subtracted
    from 1, when t is at most the mean."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 40
        if t <= 0:
            return Decimal(1)
        if t > M:
            return Decimal(0)
        P = Decimal(p)
        Q = 1 - P
        upper = t > M * Fraction(p)
        j = t if upper else t - 1
        log_2pi = (2 * _decimal_pi()).ln()
        log_c = (_log_factorial(M, log_2pi) - _log_factorial(j, log_2pi)
                 - _log_factorial(M - j, log_2pi))
        term = (log_c + j * P.ln() + (M - j) * Q.ln()).exp()
        total, eps = term, Decimal(10) ** -(digits + 5)
        while term > eps * total:
            if upper:
                if j == M:
                    break
                term = term * (M - j) * P / ((j + 1) * Q)
                j += 1
            else:
                if j == 0:
                    break
                term = term * j * Q / ((M - j + 1) * P)
                j -= 1
            total += term
        return +total if upper else 1 - total


# ---------------------------------------------------------------------------
# k = 2: exact EKR curves
# ---------------------------------------------------------------------------

# a_m, the number of strong-EKR m-edge graphs on [n], m = 0..C(n, 2), as
# k2_ekr_counts enumerates them; (6, 2)'s were counted independently against
# the compiled kernel's decide on every family
K2_EKR_COUNTS = {
    5: [1, 10, 45, 110, 140, 102, 85, 90, 45, 10, 1],
    6: [1, 15, 105, 435, 1125, 1953, 2790, 4170, 5535, 4945, 3003, 1365, 455, 105, 15, 1],
}


def k2_ekr_fails(n: int, edge_mask: int) -> bool:
    """Whether strong EKR fails for the graph (k = 2) on [n] whose edges are
    the set bits of edge_mask, pair (a, b), a < b, at its index in
    combinations(range(n), 2): an intersecting family of 2-sets is a star
    or a triangle, so EKR fails iff H has a triangle and Delta <= 3."""
    stars, triangles = _k2_masks(n)
    return (any(edge_mask & t == t for t in triangles)
            and max((edge_mask & s).bit_count() for s in stars) <= 3)


@functools.lru_cache(maxsize=None)
def _k2_masks(n: int) -> tuple[list[int], list[int]]:
    """The edge masks of each vertex's star and of each triangle on [n]."""
    bit = {e: 1 << i for i, e in enumerate(combinations(range(n), 2))}
    stars = [sum(b for e, b in bit.items() if v in e) for v in range(n)]
    return stars, [bit[(a, b)] | bit[(a, c)] | bit[(b, c)]
                   for a, b, c in combinations(range(n), 3)]


def k2_ekr_counts(n: int) -> list[int]:
    """a_m for m = 0..C(n, 2): k2_ekr_fails over all 2^C(n, 2) graphs."""
    N = math.comb(n, 2)
    counts = [0] * (N + 1)
    for mask in range(1 << N):
        counts[mask.bit_count()] += not k2_ekr_fails(n, mask)
    return counts


def k2_ekr_probability(n: int, p: float) -> float:
    """f(p) = sum_m a_m p^m (1 - p)^(N - m): Pr(EKR) of G(n, p)."""
    a = K2_EKR_COUNTS[n]
    N = len(a) - 1
    return math.fsum(c * p**m * (1 - p) ** (N - m) for m, c in enumerate(a))


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
# samplers: numpy's streams, the reference for the kernel's draws
# ---------------------------------------------------------------------------

FY_CHUNK = 1 << 16          # Fisher-Yates steps sample_independent draws per call


def generator(seed) -> np.random.Generator:
    """Philox generator from an int seed, SeedSequence, or pass-through."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


@functools.lru_cache(maxsize=16)
def _unrank_columns(n: int, k: int) -> np.ndarray:
    """The k x n int64 array whose row k - i holds C(v, i) for v < n,
    clipped at N = C(n, k), read-only."""
    N = math.comb(n, k)
    col = [1] * n                        # C(v, 0)
    columns = []
    for _ in range(k):
        # hockey stick: C(v, i) = sum_{u < v} C(u, i - 1); clipping each
        # partial sum at N leaves min(C(v, i), N) exact
        col = list(accumulate(col[:-1], lambda a, b: min(a + b, N), initial=0))
        columns.append(col)
    columns = np.array(columns[::-1], dtype=np.int64)
    columns.flags.writeable = False
    return columns


def colex_unrank_bits(ranks, n: int, k: int) -> list[int]:
    """Edge bitsets of the k-subsets of [n] at the given colex ranks (< C(n, k)),
    vectorised: for i = k..1 the i-th largest member is the largest v with
    C(v, i) <= r, a searchsorted over the column C(v, i), v < n."""
    r = np.asarray(ranks, dtype=np.int64)
    if not r.size:
        return []
    vertex_bit = np.array([1 << v for v in range(n)], dtype=object)
    out = np.zeros(r.shape, dtype=object)    # Python-int zeros
    for column in _unrank_columns(n, k):
        v = np.searchsorted(column, r, side="right") - 1
        r = r - column[v]
        out |= vertex_bit[v]
    return out.tolist()


def sample_bernoulli(n: int, k: int, p: float, seed) -> Hypergraph:
    """Each k-set independently present with probability p; colex edge order."""
    N = _check_draws("bernoulli", n, k, p)
    if p in (0, 1):
        ranks = np.arange(N if p else 0)
    else:
        ranks = np.flatnonzero(generator(seed).random(N) < p)
    return Hypergraph._unchecked(n, k, tuple(colex_unrank_bits(ranks, n, k)))


def sample_independent(n: int, k: int, m: int, seed) -> Hypergraph:
    """m edges i.i.d. uniform from C([n],k); duplicates possible; draw order.

    An edge is the first k entries of one pool of [n] after a partial
    Fisher-Yates, step j swapping in entry j + rng.integers(0, n - j); a
    chunk of edges' steps is one call, with the values and generator state
    of scalar draws."""
    check_nk(n, k)
    if m < 0:
        raise DomainError("m must be nonnegative")
    rng = generator(seed)
    pool, bits, per = list(range(n)), [], max(1, FY_CHUNK // k)
    for lo in range(0, m, per):
        count = min(per, m - lo)
        steps = iter(rng.integers(0, np.tile(np.arange(n, n - k, -1), count)).tolist())
        for _ in range(count):
            b = 0
            for j in range(k):
                t = j + next(steps)
                pool[j], pool[t] = pool[t], pool[j]
                b |= 1 << pool[j]
            bits.append(b)
    return Hypergraph._unchecked(n, k, tuple(bits))


def distinct_ranks(rng: np.random.Generator, N: int, m: int) -> list[int]:
    """Floyd's uniform m-subset of {0..N-1}, ascending, from rng: t_j uniform
    on [0, j] for j = N-m .. N-1, all m in one call (the same values and
    generator state as m scalar draws); keep t_j, or j when t_j is taken."""
    chosen = set()
    for j, t in zip(range(N - m, N), rng.integers(0, np.arange(N - m + 1, N + 1)).tolist()):
        chosen.add(t if t not in chosen else j)
    return sorted(chosen)


def sample_conditioned(n: int, k: int, p: float, seed,
                       psi: float | None = None) -> tuple[Hypergraph, bool]:
    """m ~ Bin(C(n,k), p), then m distinct uniform edges (colex order), and
    whether m landed inside the window (mbar - psi sqrt(mbar), mbar + psi sqrt(mbar))."""
    N = _check_draws("conditioned", n, k, p)
    rng = generator(seed)
    ranks = distinct_ranks(rng, N, int(rng.binomial(N, p)))
    H = Hypergraph._unchecked(n, k, tuple(colex_unrank_bits(ranks, n, k)))
    psi = math.log(n) if psi is None else psi
    return H, m_window(H.m, p * N, psi)


def sample(mode: str, n: int, k: int, p: float, seed) -> Hypergraph:
    """One Monte Carlo trial's family under a sampler mode (SAMPLER_MODES),
    as the kernel's trials draw it; independent is the coupling
    m ~ Bin(C(n,k), p), then m i.i.d. edges, deduplicated for the EKR
    verdict (repeats are o(1) here anyway)."""
    if mode == "bernoulli":
        return sample_bernoulli(n, k, p, seed)
    if mode == "conditioned":
        return sample_conditioned(n, k, p, seed)[0]
    N = _check_draws(mode, n, k, p)
    rng = generator(seed)
    return sample_independent(n, k, int(rng.binomial(N, p)), rng).dedupped()


# ---------------------------------------------------------------------------
# file format: every line through int(), the reference for the parser's
# token table
# ---------------------------------------------------------------------------

def parse_hypergraph(text: str) -> Hypergraph:
    """hypergraph.parse_hypergraph with every edge line read by int(): the
    same Hypergraph, or the same ParseError text, on any text.  Lines end
    at \\n, \\r\\n or \\r only."""
    if not text:
        raise ParseError("empty hypergraph file")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"header must be 'n k m', got {lines[0]!r}")
    try:
        n, k, m = (int(x) for x in head)
    except ValueError as exc:
        raise ParseError(f"non-integer header field: {lines[0]!r}") from exc
    body = [(idx, ln) for idx, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != m:
        raise ParseError(f"header says m={m} but file has {len(body)} edge lines")
    edges = []
    for idx, ln in body:
        try:
            verts = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise ParseError(f"line {idx}: non-integer vertex") from exc
        if len(verts) != k:
            raise ParseError(f"line {idx}: expected {k} vertices, got {len(verts)}")
        if any(not 1 <= v <= n for v in verts):
            raise ParseError(f"line {idx}: vertex out of range 1..{n}")
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise ParseError(f"line {idx}: vertices must be strictly increasing")
        if n <= MAX_N:
            edges.append(sum(1 << (v - 1) for v in verts))
    try:
        check_nk(n, k)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
    return Hypergraph(n, k, tuple(edges))


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


def bron_kerbosch_ekr(H: Hypergraph) -> tuple[bool, int]:
    """(EKR holds, omega) by Bron-Kerbosch with Tomita's pivot over int
    bitsets (Bron & Kerbosch, CACM 16(9), 1973; Tomita, Tanaka & Takahashi,
    TCS 363, 2006): it enumerates the maximal cliques of the intersection
    graph, cut only where |R| + |P| < best, and EKR fails exactly when some
    clique of omega >= 3 edges has an empty common intersection.  It shares
    no bound with the kernel: no coloring, no relabel, no Delta floor, and
    its own adjacency, so it reads only H.  Practical to m ~ 90."""
    bits, m = H.edge_bits, H.m
    adj = [sum(1 << j for j in range(m) if j != i and bits[i] & bits[j]) for i in range(m)]
    best = [0, False]       # omega so far, and whether a clique of that size is nontrivial

    def expand(size: int, common: int, P: int, X: int) -> None:
        if not P and not X:
            if size > best[0]:
                best[:] = [size, not common]
            elif size == best[0]:
                best[1] = best[1] or not common
            return
        if size + P.bit_count() < best[0]:
            return
        pivot = max(bits_of(P | X), key=lambda u: (P & adj[u]).bit_count())
        for v in bits_of(P & ~adj[pivot]):
            if size + P.bit_count() < best[0]:
                return
            expand(size + 1, common & bits[v], P & adj[v], X & adj[v])
            P &= ~(1 << v)
            X |= 1 << v

    expand(0, (1 << H.n) - 1, (1 << m) - 1, 0)
    omega, nontrivial = best
    return not (omega >= 3 and nontrivial), omega


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


def clique_degrees(H: Hypergraph, indices) -> dict[int, int]:
    """Each vertex's degree in the clique, with multiplicity, where nonzero."""
    deg: dict[int, int] = {}
    for i in indices:
        for v in bits_of(H.edge_bits[i]):
            deg[v] = deg.get(v, 0) + 1
    return deg


def is_generic_clique(H: Hypergraph, indices, zeta_cap: float) -> bool:
    """witnesses.is_generic_clique read off the clique's degree table: max
    degree <= 3 and at most zeta_cap vertices of degree exactly 3;
    DomainError on a NaN zeta_cap or a non-clique."""
    if zeta_cap != zeta_cap:
        raise DomainError("zeta cap must be a number, got nan")
    idx = list(indices)
    for a, b in combinations(idx, 2):
        if not H.edge_bits[a] & H.edge_bits[b]:
            raise DomainError(f"not a clique: edges {a} and {b} are disjoint")
    deg = clique_degrees(H, idx)
    if not deg:
        return True
    if max(deg.values()) > 3:
        return False
    return sum(1 for c in deg.values() if c == 3) <= zeta_cap


def classify_witness_kind(H: Hypergraph, witness_indices, params, regime) -> str:
    """montecarlo.classify_witness_kind read literally: generic (the degree
    table's check, other on its DomainError), then the Hilton-Milner shape
    by a pass over every vertex, then the event classifier."""
    idx = list(witness_indices)
    zeta = regime.zeta_cap if regime is not None else len(idx)
    try:
        if is_generic_clique(H, idx, zeta):
            return "generic"
    except DomainError:
        return "other"
    # a single member B0 missing some vertex x that all other members
    # share, every x-member meeting B0
    bits = [H.edge_bits[i] for i in idx]
    for x in range(H.n):
        outside = [b for b in bits if not (b >> x) & 1]
        if len(outside) == 1:
            b0 = outside[0]
            if all(b & b0 for b in bits if b is not b0):
                return "hm"
    kind = None if regime is None else wt.classify_nontrivial_clique(H, idx, regime, params.eps)
    return "other" if kind is None else "event" + kind


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
# search kernel: the Python twin of _kernel.c's searches
# ---------------------------------------------------------------------------
#
# Each search visits the same nodes in the same order as the compiled
# kernel and records the same cliques, so the tests compare verdicts,
# cliques, node counts and node-budget errors one for one.  The searches
# take a verifier._Instance and read its members and stars, and Delta from
# them (delta); they build the intersection adjacency and the degree
# relabel from the stars in big-int operations.

def delta(inst) -> int:
    """Delta of a verifier._Instance: its largest star, degrees counting
    multiplicity."""
    return max((s.bit_count() for s in inst.stars), default=0)


def first_classes(cadj, P: int, kmin: int) -> int:
    """What is left of the candidate set P once greedy coloring in index
    order has taken its first kmin classes (nothing when |P| <= kmin);
    cadj[v] is the complement of v's closed neighbourhood (see
    complement_adjacency).  It is nonempty exactly when the coloring needs
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


def color_order(cadj, P: int, kmin: int):
    """Greedy coloring of the candidate set P in index order.

    Returns (vertices, colors), vertices grouped class by class, so colors is
    nondecreasing and colors[-1] is the clique-size upper bound for P.  The
    classes numbered <= kmin are colored (first_classes) but not returned:
    a search cuts their vertices anyway.
    """
    order = []
    colors = []
    rest = first_classes(cadj, P, kmin)
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


def pair_color_order(cadj, P: int, kmin: int):
    """Matching-based coloring for the dense regime (n < 3k), where every
    independent set of the intersection graph has at most two members.

    Classes are the pairs of a greedy maximal matching on the disjointness
    graph, improved by length-3 augmentation sweeps, plus singletons; the
    class count |P| - matching size is a much tighter clique bound here than
    first-fit coloring.  Pairs come first, by lower vertex, then singletons
    ascending; as in color_order, classes numbered <= kmin are not returned.
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


def make_coloring(adj, m: int, dense_pairs: bool):
    """Pick the coloring bound: matching-based when independent sets of the
    intersection graph cannot exceed two edges (n < 3k), first-fit otherwise.

    Both color with the complement adjacency, built once here.  The returned
    function maps (P, kmin) to (order, colors).
    """
    cadj = complement_adjacency(adj, m)
    coloring = pair_color_order if dense_pairs else color_order
    return lambda P, kmin: coloring(cadj, P, kmin)


def complement_adjacency(adj, m: int) -> list[int]:
    """cadj[v] = the vertices neither adjacent to nor equal to v."""
    full = (1 << m) - 1
    return [full & ~a & ~(1 << v) for v, a in enumerate(adj)]


def branch_and_bound(adj, node_budget: int, floor: int, target, root,
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

def relabel(inst):
    """(perm, bits, adj) of the graph the omega and nontrivial searches
    share: edge i of it is edge perm[i] of inst (a verifier._Instance),
    perm sorted by descending intersection degree, ties by index, and bits
    and adj are its edge bitsets and its adjacency, built the same way as
    the originals'."""
    adj = _star_adjacency(inst.members, inst.stars)
    perm = sorted(range(inst.m), key=lambda i: (-adj[i].bit_count(), i))
    members = [inst.members[old] for old in perm]
    return (perm, [inst.bits[old] for old in perm],
            _star_adjacency(members, _vertex_stars(inst.n, members)))


def mapped_back(perm, clique):
    """A clique of the relabelled graph as ascending original edge indices
    (None stays None)."""
    return None if clique is None else sorted(perm[v] for v in clique)


def max_clique(inst, node_budget: int):
    """verifier._max_clique: (omega, a maximum clique as ascending edge
    indices, nodes visited), the star of the lowest vertex of degree Delta
    when no clique beats it."""
    m = inst.m
    if m == 0:
        return 0, [], 0
    perm, _, adj = relabel(inst)
    coloring = make_coloring(adj, m, inst.dense_pairs)
    omega, clique, nodes = branch_and_bound(
        adj, node_budget, delta(inst), math.inf, 0,
        accept=lambda P, _: not P,
        branches=lambda kmin, P, _: coloring(P, kmin),
        child=lambda state, v: state)
    if clique is None:
        deg = [s.bit_count() for s in inst.stars]
        return omega, list(bits_of(inst.stars[deg.index(delta(inst))])), nodes
    return omega, mapped_back(perm, clique), nodes


def nontrivial_search(inst, target, node_budget: int, floor: int):
    """verifier._nontrivial_search: (best, first clique recorded as
    ascending edge indices, nodes visited), recording a clique with empty
    common intersection whenever it beats best (from floor), stopping once
    best >= target, on max_clique's relabel."""
    perm, bits, adj = relabel(inst)
    coloring = make_coloring(adj, inst.m, inst.dense_pairs)

    def branches(kmin, P, common):
        c, rest = common, P
        while rest and c:
            b = rest & -rest
            c &= bits[b.bit_length() - 1]
            rest ^= b
        # with c != 0 every extension of R from P keeps a common vertex
        return ((), ()) if c else coloring(P, kmin)

    best, found, nodes = branch_and_bound(
        adj, node_budget, floor, target, -1,
        accept=lambda P, common: not common,
        branches=branches,
        child=lambda common, v: common & bits[v])
    return best, mapped_back(perm, found), nodes


def decide(inst, node_budget: int) -> tuple[EkrVerdict, int]:
    """verifier._decide: the verdict and the nodes its searches visited.
    The nontrivial search runs first, at target t = max(Delta, 3); the
    omega search only when that one finds a clique or runs out, each on its
    own node_budget."""
    Delta = delta(inst)
    t = max(Delta, 3)
    if t > inst.m:
        return EkrVerdict(True, Delta, Delta, None), 0
    try:
        _, found, nodes = nontrivial_search(inst, t, node_budget, t - 1)
    except ResourceLimitError as exc:
        out_of_budget, found, nodes = exc, None, node_budget
    else:
        if found is None:
            return EkrVerdict(True, Delta, Delta, None), nodes
        out_of_budget = None
    omega, clique, more = max_clique(inst, node_budget)
    if omega > Delta:
        # cannot have a common vertex: |C| <= d(x) <= Delta < omega
        return EkrVerdict(False, omega, Delta, tuple(clique)), nodes + more
    if out_of_budget is not None:
        raise out_of_budget
    return EkrVerdict(False, omega, Delta, tuple(found)), nodes + more


def pair_cover(n1: int, n2: int, n3: int, incidences: int, zeta_cap: float) -> int:
    """The most vertex-sharing edge pairs that `incidences` more vertex
    incidences can make, every degree kept <= 3 and at most zeta_cap
    vertices of degree 3, from n1 vertices of degree 1, n2 of degree 2 and
    n3 of degree 3; -1 when n3 > zeta_cap.  The kernel's covers() in closed
    form: a step from degree j to j + 1 makes j pairs, so this is the
    largest x + 2y over x steps 1 -> 2, y steps 2 -> 3 and z steps 0 -> 1
    with x + y + z = incidences, y <= zeta - n3, y <= n2 + x and
    x <= n1 + z, zeta clamped to [-1, 256] as the kernel's is (a family has
    at most 256 vertices, so n3 + y <= 256 holds anyway)."""
    y = math.floor(max(min(zeta_cap, 256), -1)) - n3
    if y < 0:
        return -1
    y = min(y, incidences, (incidences + n2) // 2, (n1 + 2 * n2 + incidences) // 3)
    return min(incidences - y, (n1 + incidences - y) // 2) + 2 * y


def covers(degrees, r: int, size_t: int, k: int, zeta_cap: float) -> bool:
    """The pair-coverage bound: whether a clique R of r edges of at least
    k vertices each, whose vertices of degree >= 1, >= 2 and 3 are the
    bitsets degrees, can cover the r (size_t - r) + C(size_t - r, 2) edge
    pairs it lacks with the (size_t - r) k incidences of its missing edges.
    Every generic clique of size_t edges passes it at each of its
    prefixes."""
    d1, d2, d3 = degrees
    left = size_t - r
    most = pair_cover((d1 & ~d2).bit_count(), (d2 & ~d3).bit_count(), d3.bit_count(),
                      left * k, zeta_cap)
    return most >= r * left + math.comb(left, 2)


def generic_search(inst, size_t: int, zeta_cap: float, node_budget: int):
    """witnesses._generic_search: (best, the first generic clique of size_t
    edges in index order or None, nodes visited)."""
    bits, stars = inst.bits, inst.stars
    adj = _star_adjacency(inst.members, stars)
    cadj = complement_adjacency(adj, inst.m)
    k = min((b.bit_count() for b in bits), default=256)

    def bound(degrees):
        # a family is k-uniform, so R's edges make r k incidences
        return covers(degrees, sum(d.bit_count() for d in degrees) // k, size_t, k, zeta_cap)

    def branches(kmin, P, _):
        # kmin = size_t - 1 - len(R): the popcount and first-fit coloring
        # bounds of P must exceed it; then all of P, lowest first
        if not first_classes(cadj, P, kmin):
            return (), ()
        return None, range(1, P.bit_count() + 1)

    def child(degrees, v):
        d1, d2, d3 = degrees
        e = bits[v]
        if e & d3 or (d3 | e & d2).bit_count() > zeta_cap:
            return None
        # the pair-coverage bound; the kernel also tests the root, which
        # changes no node count, as every child of a root that fails it fails
        new = d1 | e, d2 | e & d1, d3 | e & d2
        return new if bound(new) else None

    def narrow(P, before, after):
        # drop the edges that child() rejects here, which stay rejected
        # below: through a degree-3 vertex, and through a degree-2 one once
        # |d3| + 1 > zeta_cap.  P lacks those of before's vertices already
        done = before[1] if before[2].bit_count() + 1 > zeta_cap else before[2]
        drop = after[1] if after[2].bit_count() + 1 > zeta_cap else after[2]
        for x in bits_of(drop & ~done):
            P &= ~stars[x]
        return P

    return branch_and_bound(adj, node_budget, size_t - 1, size_t, (0, 0, 0),
                            accept=lambda P, _: True, branches=branches, child=child,
                            narrow=narrow)



# each kernel's searches, called alike on a verifier._Instance: the
# library's, on the compiled kernel, and their Python twin above
KERNELS = {
    "native": SimpleNamespace(max_clique=vf._max_clique, nontrivial_search=vf._nontrivial_search,
                              decide=vf._decide, generic_search=wt._generic_search),
    "python": SimpleNamespace(max_clique=max_clique, nontrivial_search=nontrivial_search,
                              decide=decide, generic_search=generic_search),
}

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
