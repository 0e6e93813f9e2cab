"""k-uniform hypergraphs, the two sampling models, and degree stats read off
the per-vertex star masks, the structure the verifier prepares.

Vertices are 0-based internally (0..n-1); the text file format and all JSON
surfaces are 1-based.  A Hypergraph stores each edge only as a Python-int
bitset (bit v for vertex v); edge_members reads an edge's vertices through
one bounded cache keyed by the bitset, through which from_edges also makes
equal parsed edges share one int object.

Sampling determinism contract: every sampler is a pure function of
(parameters, seed).  Seeds feed a counter-based Philox generator through
numpy's SeedSequence, and each trial of the Monte Carlo engine gets its own
substream derived from (master seed, trial index), so parallel execution
reproduces serial output bit for bit.  The Bernoulli and conditioned
samplers unrank all drawn colex ranks in one vectorised pass, which returns
the same edges, in the same order, as exact.colex_unrank rank by rank.
Their draws (_draws) are shared with the compiled Monte Carlo trial, which
dedups and unranks them in C, so both read one random stream.  Ranks are
int64: C(n, k) >= 2**63 is refused with ResourceLimitError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import exact
from .errors import DomainError, ParseError, ResourceLimitError

MAX_N = 256                 # bitset width ceiling
DEFAULT_ENUM_CAP = 10**7    # refuse to enumerate C(n,k) beyond this
MEMBERS_CACHE = 8192        # distinct k-sets whose bits and members are kept


@functools.lru_cache(maxsize=MEMBERS_CACHE)
def _shared(bits: int) -> tuple[int, tuple[int, ...]]:
    """(bits, members): the first bits object seen for a k-set, and its
    vertices ascending.

    A least-recently-used cache of at most MEMBERS_CACHE = 8192 entries, key
    included ~270 bytes each at k <= 10 and ~2.2 KB at the k = 255 extreme
    (tracemalloc): ~2.2 MB and ~17.5 MB when full.  Hypergraph.from_edges
    keeps the int held here, so equal edges of parsed families share one int
    object and a family kept in memory costs one pointer per cached edge."""
    return bits, tuple(exact.bits_of(bits))


def edge_members(bits: int) -> tuple[int, ...]:
    """The vertices of an edge bitset, ascending, shared through _shared."""
    return _shared(bits)[1]


def check_nk(n: int, k: int) -> None:
    """DomainError unless 0 < k <= n <= MAX_N, the shape every Hypergraph
    and sampler accepts (n > 2k is enforced at the model level)."""
    if not 0 < k <= n <= MAX_N:
        raise DomainError(f"need 0 < k <= n <= {MAX_N}; got n={n}, k={k}")


@dataclass(frozen=True)
class Hypergraph:
    """Ordered multiset of k-subsets of [n]; edge i is the int bitset
    edge_bits[i], with bit v set for vertex v."""

    n: int
    k: int
    edge_bits: tuple[int, ...]

    def __post_init__(self):
        # public constructors validate; samplers build through _unchecked
        check_nk(self.n, self.k)
        for b in self.edge_bits:
            if b.bit_count() != self.k:
                raise DomainError("bitset popcount != k")
            if b >> self.n:
                raise DomainError("bitset has members >= n")

    @classmethod
    def from_edge_bits(cls, n: int, k: int, bits_list) -> "Hypergraph":
        return cls(n, k, tuple(bits_list))

    @classmethod
    def _unchecked(cls, n: int, k: int, edge_bits: tuple[int, ...]) -> "Hypergraph":
        """A Hypergraph without __post_init__'s checks, for edges built valid
        (the samplers, dedupped and the native trial's words)."""
        H = object.__new__(cls)
        H.__dict__.update(n=n, k=k, edge_bits=edge_bits)
        return H

    @classmethod
    def from_edges(cls, n: int, k: int, member_lists) -> "Hypergraph":
        # (n, k) first: a parsed vertex may be as large as the header's n.
        # A negative member fails as a shift, and one >= n in __post_init__:
        # a range check on every member would cost parse_hypergraph over a
        # quarter of its time.
        check_nk(n, k)
        try:
            bits = tuple(_shared(exact.mask_from(m))[0] for m in member_lists)
        except ValueError as exc:       # "negative shift count"
            raise DomainError("edge has members < 0") from exc
        return cls(n, k, bits)

    @property
    def m(self) -> int:
        return len(self.edge_bits)

    def has_duplicates(self) -> bool:
        return len(set(self.edge_bits)) != self.m

    def dedupped(self) -> "Hypergraph":
        """The first copy of each edge, in order."""
        return Hypergraph._unchecked(self.n, self.k, tuple(dict.fromkeys(self.edge_bits)))


# ---------------------------------------------------------------------------
# Degree and pair-degree statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeStats:
    deg: tuple[int, ...]                       # d(x) for x in [n]
    Delta: int                                 # max degree
    pair_deg: dict                             # (x, y) x<y -> d(x, y), only nonzero
    W: dict                                    # x -> frozenset {y : d(x,y) >= 2}


def _vertex_stars(n: int, members) -> list[int]:
    """stars[x] = bitmask of the edge indices whose edge contains vertex x:
    d(x) = |stars[x]| and d(x, y) = |stars[x] & stars[y]|, with multiplicity."""
    stars = [0] * n
    for i, mem in enumerate(members):
        bit = 1 << i
        for x in mem:
            stars[x] |= bit
    return stars


def degree_stats(H: Hypergraph) -> DegreeStats:
    stars = _vertex_stars(H.n, map(edge_members, H.edge_bits))
    deg = tuple(s.bit_count() for s in stars)
    pair = {}
    W = [set() for _ in stars]
    live = [x for x, s in enumerate(stars) if s]
    for i, x in enumerate(live):
        sx = stars[x]
        for y in live[i + 1:]:
            c = (sx & stars[y]).bit_count()
            if c:
                pair[x, y] = c
                if c >= 2:
                    W[x].add(y)
                    W[y].add(x)
    return DegreeStats(deg, max(deg, default=0), pair,
                       {x: frozenset(s) for x, s in enumerate(W)})


@dataclass(frozen=True)
class EventRReport:
    """Per-conjunct booleans of the event R, plus the numbers behind them."""

    m_in_window: bool        # m in (mbar - psi sqrt(mbar), mbar + psi sqrt(mbar))
    delta_le_beta: bool
    delta_ge_alpha: bool
    pair_deg_le_8: bool      # d(x,y) <= 8 for all x, y
    wx_bounded: bool         # |W_x| < max{phi^2 k^2/n, 6 log n} for all x
    m: int
    Delta: int
    alpha: int
    beta: int
    w_bound: float

    @property
    def all_hold(self) -> bool:
        return (self.m_in_window and self.delta_le_beta and self.delta_ge_alpha
                and self.pair_deg_le_8 and self.wx_bounded)


def m_window(m: int, mbar: float, psi: float) -> bool:
    if mbar == 0:
        return m == 0  # degenerate model: the open window collapses
    half = psi * math.sqrt(mbar)
    return mbar - half < m < mbar + half


def _star_maxima(stars) -> tuple[int, int]:
    """(max d(x, y) over x != y, max |W_x|) from the star masks, with
    W_x = {y : d(x, y) >= 2}: the two numbers event R reads, in one pass over
    the pairs of live vertices (0 when there are none)."""
    live = [s for s in stars if s]
    w = [0] * len(live)
    top = 0
    for i, sx in enumerate(live):
        for j in range(i + 1, len(live)):
            c = (sx & live[j]).bit_count()
            if c > top:
                top = c
            if c >= 2:
                w[i] += 1
                w[j] += 1
    return top, max(w, default=0)


def _event_r(m: int, Delta: int, max_pair: int, max_w: int, mbar: float, psi: float,
             w_bound: float, alpha: int, beta: int) -> tuple[bool, bool, bool, bool, bool]:
    """The conjuncts of event R, in EventRReport's order, from m, Delta,
    max d(x, y) and max |W_x|, with mbar and w_bound as analytics.derive
    gives them."""
    return (m_window(m, mbar, psi), Delta <= beta, Delta >= alpha, max_pair <= 8,
            max_w < w_bound)


def check_event_r(H: Hypergraph, params, stats: DegreeStats | None = None,
                  alpha: int | None = None, beta: int | None = None) -> EventRReport:
    """Evaluate each conjunct of the high-probability event R on one sample."""
    from . import analytics

    if alpha is None or beta is None:
        ab = analytics.compute_alpha_beta(params)
        alpha = ab.alpha if alpha is None else alpha
        beta = ab.beta if beta is None else beta
    if stats is None:
        stars = _vertex_stars(H.n, map(edge_members, H.edge_bits))
        Delta = max((s.bit_count() for s in stars), default=0)
        maxima = _star_maxima(stars)
    else:
        Delta = stats.Delta
        maxima = (max(stats.pair_deg.values(), default=0),
                  max((len(s) for s in stats.W.values()), default=0))
    d = analytics.derive(params)
    conj = _event_r(H.m, Delta, *maxima, float(d.mbar), params.psi, d.w, alpha, beta)
    return EventRReport(*conj, m=H.m, Delta=Delta, alpha=alpha, beta=beta, w_bound=d.w)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def generator(seed) -> np.random.Generator:
    """Philox generator from an int seed, SeedSequence, or pass-through."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def _check_enum_cap(n: int, k: int, cap: int, hint: str) -> int:
    N = math.comb(n, k)
    if N > cap:
        raise ResourceLimitError(
            f"C({n},{k}) = {N} exceeds the enumeration cap {cap}; {hint}")
    if N >= 2**63:
        raise ResourceLimitError(
            f"C({n},{k}) = {N} is not below 2**63, the int64 limit of the sampled colex ranks")
    return N


@functools.lru_cache(maxsize=16)
def _unrank_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(columns, vertex_bit) for _colex_unrank_bits at (n, k), read-only:
    the k x n int64 array columns has row k - i holding C(v, i) for v < n,
    clipped at N = C(n, k), and vertex_bit[v] = 1 << v.  Each entry is
    O(n k) words."""
    N = math.comb(n, k)
    vertex_bit = np.array([1 << v for v in range(n)], dtype=object)
    col = [1] * n                        # C(v, 0)
    columns = []
    for _ in range(k):
        # hockey stick: C(v, i) = sum_{u < v} C(u, i - 1); clipping each
        # partial sum at N leaves min(C(v, i), N) exact
        col = list(accumulate(col[:-1], lambda a, b: min(a + b, N), initial=0))
        columns.append(col)
    columns = np.array(columns[::-1], dtype=np.int64)
    for table in (columns, vertex_bit):
        table.flags.writeable = False
    return columns, vertex_bit


def _colex_unrank_bits(ranks, n: int, k: int) -> list[int]:
    """Edge bitsets of the k-subsets of [n] at the given colex ranks (< C(n, k)).

    Vectorised exact.colex_unrank: for i = k..1 the i-th largest member is
    the largest v with C(v, i) <= r, found by a searchsorted over the column
    C(v, i), v < n.  Column entries are clipped at C(n, k), which keeps them
    in int64 and changes no answer, since every remaining r is below it.
    Memory is O(m + n k); no table of all C(n, k) sets is built, and the
    columns are built once per (n, k) (_unrank_tables).
    """
    r = np.asarray(ranks, dtype=np.int64)
    if not r.size:
        return []
    columns, vertex_bit = _unrank_tables(n, k)
    out = np.zeros(r.shape, dtype=object)    # Python-int zeros
    for column in columns:
        v = np.searchsorted(column, r, side="right") - 1
        r = r - column[v]
        out |= vertex_bit[v]
    return out.tolist()


def _draws(sampler: str, n: int, k: int, p: float, seed, cap: int) -> tuple[int, np.ndarray]:
    """(N = C(n, k), the int64 draws) of the bernoulli or conditioned sampler,
    after the checks both make: for "bernoulli" the colex ranks of the
    present k-sets, ascending; for "conditioned" m ~ Bin(N, p), then
    Floyd's draws (_floyd_draws).  montecarlo's native trial hands them to
    the kernel, so both paths read the same random stream."""
    check_nk(n, k)
    if not 0 <= p <= 1:
        raise DomainError("p must lie in [0, 1]")
    N = _check_enum_cap(n, k, cap, "use sample_independent for graphs this large")
    rng = generator(seed)
    if sampler == "conditioned":
        return N, _floyd_draws(rng, N, int(rng.binomial(N, p)))
    if p == 0:
        return N, np.zeros(0, dtype=np.int64)
    if p == 1:
        return N, np.arange(N)
    return N, np.flatnonzero(rng.random(N) < p)


def sample_bernoulli(n: int, k: int, p: float, seed, cap: int = DEFAULT_ENUM_CAP) -> Hypergraph:
    """Each k-set independently present with probability p; colex edge order."""
    _, ranks = _draws("bernoulli", n, k, p, seed, cap)
    return Hypergraph._unchecked(n, k, tuple(_colex_unrank_bits(ranks, n, k)))


def _uniform_edge_bits(rng: np.random.Generator, n: int, k: int, pool: list[int]) -> int:
    # partial Fisher-Yates: first k entries of a uniformly shuffled [n]
    bits = 0
    for j in range(k):
        t = j + int(rng.integers(0, n - j))
        pool[j], pool[t] = pool[t], pool[j]
        bits |= 1 << pool[j]
    return bits


def sample_independent(n: int, k: int, m: int, seed) -> Hypergraph:
    """m edges i.i.d. uniform from C([n],k); duplicates possible; draw order."""
    check_nk(n, k)
    if m < 0:
        raise DomainError("m must be nonnegative")
    rng = generator(seed)
    pool = list(range(n))
    bits = tuple(_uniform_edge_bits(rng, n, k, pool) for _ in range(m))
    return Hypergraph._unchecked(n, k, bits)


def _floyd_draws(rng: np.random.Generator, N: int, m: int) -> np.ndarray:
    """Floyd's draws for a uniform m-subset of {0..N-1}: t_j uniform on
    [0, j] for j = N-m .. N-1, all m in one call (the same values and
    generator state as m scalar draws)."""
    return rng.integers(0, np.arange(N - m + 1, N + 1))


def _floyd_ranks(N: int, draws) -> list[int]:
    """Floyd's m-subset from its draws, ascending: keep t_j, or j when t_j
    is already chosen."""
    chosen = set()
    for j, t in zip(range(N - len(draws), N), draws.tolist()):
        chosen.add(t if t not in chosen else j)
    return sorted(chosen)


def _distinct_ranks(rng: np.random.Generator, N: int, m: int) -> list[int]:
    """Floyd's uniform m-subset of {0..N-1}, ascending, from rng."""
    return _floyd_ranks(N, _floyd_draws(rng, N, m))


def sample_conditioned(n: int, k: int, p: float, seed, cap: int = DEFAULT_ENUM_CAP,
                       psi: float | None = None) -> tuple[Hypergraph, bool]:
    """m ~ Bin(C(n,k), p), then m distinct uniform edges (colex order).

    Same law as sample_bernoulli; also reports whether m landed inside the
    window (mbar - psi sqrt(mbar), mbar + psi sqrt(mbar)).
    """
    N, draws = _draws("conditioned", n, k, p, seed, cap)
    H = Hypergraph._unchecked(n, k, tuple(_colex_unrank_bits(_floyd_ranks(N, draws), n, k)))
    psi = math.log(n) if psi is None else psi
    return H, m_window(H.m, p * N, psi)


# ---------------------------------------------------------------------------
# File format: header "n k m", then one edge per line, sorted 1-based vertices
# ---------------------------------------------------------------------------

def dump_hypergraph(H: Hypergraph) -> str:
    lines = [f"{H.n} {H.k} {H.m}"]
    for b in H.edge_bits:
        lines.append(" ".join(str(v + 1) for v in edge_members(b)))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise ParseError("empty hypergraph file")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"header must be 'n k m', got {lines[0]!r}")
    try:
        n, k, m = (int(x) for x in head)
    except ValueError as exc:
        raise ParseError(f"non-integer header field: {lines[0]!r}") from exc
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ParseError(f"header says m={m} but file has {len(body)} edge lines")
    edges = []
    for idx, ln in enumerate(body, start=2):
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
        edges.append([v - 1 for v in verts])
    try:
        return Hypergraph.from_edges(n, k, edges)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def write_hypergraph(H: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_hypergraph(H))


def read_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())
