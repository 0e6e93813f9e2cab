"""k-uniform hypergraphs, the two sampling models, and degree stats read off
the per-vertex star masks, the structure the verifier prepares.

Vertices are 0-based internally (0..n-1); the text file format and all JSON
surfaces are 1-based.  A Hypergraph stores each edge only as a Python-int
bitset (bit v for vertex v); edge_members reads an edge's vertices through
one bounded cache keyed by the bitset, through which from_edges and
parse_hypergraph also make equal edges share one int object.

Sampling determinism contract: every sampler is a pure function of
(parameters, seed), an int >= 0 or a SeedSequence of one, and each Monte
Carlo trial gets its own substream derived from (master seed, trial index),
so parallel execution reproduces serial output bit for bit.  The compiled
kernel (_native) is the samplers' one implementation: it re-derives numpy's
Philox streams, edge for edge those of the numpy samplers kept in
tests/oracles.py as its reference; a seed it cannot re-derive is a
DomainError.  _check_draws(mode, ...) guards every draw at p: C(n, k) <
2**63 (ranks are int64) and at most DRAW_CAP = 10**7 draws, the C(n, k)
uniforms bernoulli enumerates or the p C(n, k) edges expected otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import exact
from .errors import DomainError, ParseError, ResourceLimitError

MAX_N = 256                 # bitset width ceiling
DRAW_CAP = 10**7            # the most k-sets a sampler enumerates or expects to draw
VERTEX_DRAW_CAP = 5 * 10**7  # the most vertices sample_independent draws, m k
SAMPLER_MODES = ("bernoulli", "conditioned", "independent")
MEMBERS_CACHE = 8192        # distinct k-sets whose bits and members are kept
DUMP_BLOCK = 1 << 16        # edges dump_hypergraph writes per block


@functools.lru_cache(maxsize=MEMBERS_CACHE)
def _shared(bits: int) -> tuple[int, tuple[int, ...]]:
    """(bits, members): the first bits object seen for a k-set, and its
    vertices ascending.

    A least-recently-used cache of at most MEMBERS_CACHE = 8192 entries, key
    included ~270 bytes each at k <= 10 and ~2.2 KB at the k = 255 extreme
    (tracemalloc): ~2.2 MB and ~17.5 MB when full.  Hypergraph.from_edges
    and parse_hypergraph keep the int held here, so equal edges of parsed
    families share one int object and a family kept in memory costs one
    pointer per cached edge."""
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
    def _unchecked(cls, n: int, k: int, edge_bits: tuple[int, ...]) -> "Hypergraph":
        """A Hypergraph without __post_init__'s checks, for edges built valid
        (the samplers, dedupped and the native trials' words)."""
        H = object.__new__(cls)
        H.__dict__.update(n=n, k=k, edge_bits=edge_bits)
        return H

    @classmethod
    def from_edges(cls, n: int, k: int, member_lists) -> "Hypergraph":
        # (n, k) first: a member may be as large as n.  A negative member
        # fails as a shift, and one >= n in __post_init__.
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


def check_event_r(H: Hypergraph, params, stats: DegreeStats | None = None,
                  alpha: int | None = None, beta: int | None = None) -> EventRReport:
    """Evaluate each conjunct of the high-probability event R on one sample,
    from stats, or from degree_stats(H) when none are given."""
    from . import analytics

    if alpha is None or beta is None:
        ab = analytics.compute_alpha_beta(params)
        alpha = ab.alpha if alpha is None else alpha
        beta = ab.beta if beta is None else beta
    stats = stats or degree_stats(H)
    d = analytics.derive(params)
    return EventRReport(
        m_in_window=m_window(H.m, float(d.mbar), params.psi),
        delta_le_beta=stats.Delta <= beta,
        delta_ge_alpha=stats.Delta >= alpha,
        pair_deg_le_8=max(stats.pair_deg.values(), default=0) <= 8,
        wx_bounded=max(map(len, stats.W.values()), default=0) < d.w,
        m=H.m, Delta=stats.Delta, alpha=alpha, beta=beta, w_bound=d.w)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _check_draws(mode: str, n: int, k: int, p: float) -> int:
    """N = C(n, k), after the checks every sampler mode (and montecarlo's
    native trials) makes before drawing: (n, k), p in [0, 1], N < 2**63, and
    DRAW_CAP on bernoulli's N k-sets, or on any mode's p N edges expected."""
    check_nk(n, k)
    if mode not in SAMPLER_MODES:
        raise DomainError(f"unknown sampler mode {mode!r}; pick from {SAMPLER_MODES}")
    if not 0 <= p <= 1:
        raise DomainError("p must lie in [0, 1]")
    N = math.comb(n, k)
    if N >= 2**63:
        raise ResourceLimitError(
            f"C({n},{k}) = {N} is not below 2**63, the int64 limit of the sampled colex ranks")
    if mode == "bernoulli" and N > DRAW_CAP:
        raise ResourceLimitError(f"C({n},{k}) = {N} exceeds the enumeration cap {DRAW_CAP}; "
                                 "--sampler conditioned draws the same law in O(m)")
    if p * N > DRAW_CAP:
        raise ResourceLimitError(f"the expected edge count p*C({n},{k}) = {p * N:.4g} "
                                 f"exceeds {DRAW_CAP}")
    return N


def _draw(mode: str, n: int, k: int, N: int, p: float, seed, m: int = -1) -> tuple[int, ...]:
    from . import _native       # it imports numpy, which this module does not
    return _native.draw(seed, n, k, N, p, mode, m)


def sample_bernoulli(n: int, k: int, p: float, seed) -> Hypergraph:
    """Each k-set independently present with probability p; colex edge order."""
    N = _check_draws("bernoulli", n, k, p)
    return Hypergraph._unchecked(n, k, _draw("bernoulli", n, k, N, p, seed))


def sample_independent(n: int, k: int, m: int, seed) -> Hypergraph:
    """m edges i.i.d. uniform from C([n],k); duplicates possible; draw order.
    At most DRAW_CAP edges and VERTEX_DRAW_CAP vertices (m k) are drawn."""
    check_nk(n, k)
    if m < 0:
        raise DomainError("m must be nonnegative")
    if m > DRAW_CAP or m * k > VERTEX_DRAW_CAP:
        raise ResourceLimitError(f"m = {m} edges of {k} vertices exceed {DRAW_CAP} edges or "
                                 f"{VERTEX_DRAW_CAP} vertex draws")
    return Hypergraph._unchecked(n, k, _draw("independent", n, k, 0, 0.0, seed, m))


def sample_conditioned(n: int, k: int, p: float, seed,
                       psi: float | None = None) -> tuple[Hypergraph, bool]:
    """m ~ Bin(C(n,k), p), then m distinct uniform edges (colex order): the
    law of sample_bernoulli in O(m + n k) at any C(n, k) < 2**63, and whether
    m landed inside the window (mbar - psi sqrt(mbar), mbar + psi sqrt(mbar)).
    """
    N = _check_draws("conditioned", n, k, p)
    H = Hypergraph._unchecked(n, k, _draw("conditioned", n, k, N, p, seed))
    return H, m_window(H.m, p * N, math.log(n) if psi is None else psi)


# ---------------------------------------------------------------------------
# File format: header "n k m", then one edge per line, sorted 1-based vertices
# ---------------------------------------------------------------------------

def dump_hypergraph(H: Hypergraph) -> str:
    """The file text.  The edges go in blocks of DUMP_BLOCK: a block builds
    the line of each distinct edge in it once, so sample_independent's
    repeated draws cost a lookup each, and the text is built block by block,
    never as one str per edge."""
    parts = [f"{H.n} {H.k} {H.m}\n"]
    for lo in range(0, H.m, DUMP_BLOCK):
        block = H.edge_bits[lo:lo + DUMP_BLOCK]
        line = {b: " ".join([str(v + 1) for v in exact.bits_of(b)]) for b in set(block)}
        parts.append("\n".join(map(line.__getitem__, block)) + "\n")
    return "".join(parts)


def parse_hypergraph(text: str) -> Hypergraph:
    """The Hypergraph of a file's text: the header "n k m", then m edge
    lines of k strictly increasing vertices in 1..n.  Blank lines are
    skipped, and an error names the line's number in the file.

    A line whose tokens are all canonical vertex names "1" .. str(top), top
    = min(n, MAX_N), is built from the table {str(v): 1 << (v - 1)}: its
    bits are powers of two, so the vertices strictly increase exactly when
    each bit is above the OR of those before it.  Any other line ("05",
    "+7", Unicode digits, a vertex out of range, a repeat, a short line)
    goes through int() in _parse_line, which raises its error.

    Lines end only at \\n, \\r\\n or \\r, Python's universal newlines, as
    read_hypergraph reads a file.  \\x0b, \\x0c, \\x1c-\\x1e, \\x85, \\u2028
    and \\u2029, where str.splitlines would also end a line, separate tokens
    within it, as str.split() reads them."""
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
    top = min(n, MAX_N)         # no shift past MAX_N: check_nk refuses such an n
    token_bit = {str(v): 1 << (v - 1) for v in range(1, top + 1)}
    edges = []
    for idx, ln in body:
        tokens = ln.split()
        if len(tokens) == k:
            bits = 0
            try:
                for t in tokens:
                    b = token_bit[t]
                    if b <= bits:
                        break
                    bits |= b
                else:
                    edges.append(_shared(bits)[0])
                    continue
            except KeyError:
                pass
        edges.append(_parse_line(idx, tokens, n, k, top))
    try:
        check_nk(n, k)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
    # k members strictly increasing in 1..n: each edge is valid for (n, k)
    return Hypergraph._unchecked(n, k, tuple(edges))


def _parse_line(idx: int, tokens: list[str], n: int, k: int, top: int) -> int:
    """The edge bitset of line idx's tokens read by int(), or the ParseError
    of a line that is not k strictly increasing vertices in 1..n, its
    checks in their documented order.  A line that passes them with a
    vertex in MAX_N < v <= n gives 0, and check_nk then refuses n."""
    try:
        verts = [int(x) for x in tokens]
    except ValueError as exc:
        raise ParseError(f"line {idx}: non-integer vertex") from exc
    # one pass builds the edge (bit v for 1-based v, shifted down once)
    # while checking each vertex is above the last and at most top
    bits = last = 0
    for v in verts:
        if not last < v <= top:
            break
        bits |= 1 << v
        last = v
    else:
        if len(verts) == k:
            return _shared(bits >> 1)[0]
    if len(verts) != k:
        raise ParseError(f"line {idx}: expected {k} vertices, got {len(verts)}")
    if any(not 1 <= v <= n for v in verts):
        raise ParseError(f"line {idx}: vertex out of range 1..{n}")
    if any(a >= b for a, b in zip(verts, verts[1:])):
        raise ParseError(f"line {idx}: vertices must be strictly increasing")
    return 0


def read_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())
