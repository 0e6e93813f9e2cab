/* Compiled branch-and-bound kernel for ekrlab's three clique searches.
 *
 * A line-by-line twin of verifier._branch_and_bound together with the rules
 * its callers supply: the omega search (accept an empty candidate set), the
 * nontrivial search (accept an empty common intersection; no branches while
 * the AND over R and all of P is nonempty) and the generic search (degree
 * bitsets d1/d2/d3, zeta_cap).  The colorings reproduce _color_order and
 * _pair_color_order class for class, so visited cliques, node counts and the
 * recorded clique are those of the Python kernel.
 *
 * The kernel builds its own graph from each edge's vertex bitset (VW words,
 * n <= 256): per-vertex star words, then the intersection adjacency by
 * verifier._star_adjacency's rule, and for the omega search the relabel by
 * descending adjacency degree.  Edge bitsets take W = ceil(m/64) words.
 * The search runs on an explicit stack of m + 1 levels.  A level keeps its
 * candidate set, its state, and its candidates in branching order with the
 * start of each color class; colors are consecutive from the level's first.
 *
 * A fourth mode, STATS, runs no search: from the same star words it returns
 * Delta, its lowest vertex, max d(x, y) and max |W_x| (verifier._Instance).
 *
 * A second entry point, ekr_trials, runs a batch of sweep trials.  It
 * re-derives each trial's numpy stream (numpy's SeedSequence key, Philox
 * with numpy's buffering, numpy's binomial and bounded-integer samplers from
 * its libnpyrandom.a), then runs Floyd's dedup, the colex unrank into vertex
 * words and, on star words and an adjacency built once, STATS and the omega
 * and nontrivial searches of verifier._decide.
 *
 * Built with `gcc -O2 -shared -fPIC -I<numpy include>`, linked with numpy's
 * libnpyrandom.a and -lm, and called through ctypes (_native).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <numpy/random/bitgen.h>    /* bitgen_t */

typedef uint64_t u64;
#define VW 4                            /* vertex bitset words, n <= 256 */
#define BIT(v) (1ULL << ((v) & 63))

enum { OMEGA = 0, NONTRIVIAL = 1, GENERIC = 2, STATS = 3 };
enum { DONE = 0, OUT_OF_BUDGET = 1, OUT_OF_MEMORY = 2 };

typedef struct { int32_t *v; size_t len, cap; } ivec;

typedef struct {
    size_t off, coff;     /* first candidate in order, first class in starts */
    int64_t idx, cls, c0; /* candidates left, class of the last, first color */
} level;

typedef struct {
    int m, W, mode, dense;
    const u64 *adj, *cadj, *bits;
    double zeta;
    ivec order, starts;   /* every level's candidates and class starts */
    u64 *rest, *avail, *untaken, *free;
    int32_t *mate, *cnt, *vs, *sorted, *hist, *fl;
} search;

static inline int popc(u64 x) { return __builtin_popcountll(x); }

static int popcount(const u64 *s, int W)
{
    int c = 0;
    for (int w = 0; w < W; w++) c += popc(s[w]);
    return c;
}

static int zero(const u64 *s, int W)
{
    for (int w = 0; w < W; w++)
        if (s[w]) return 0;
    return 1;
}

/* lowest set bit at or above word *lo, or -1; *lo moves to its word */
static inline int lowest(const u64 *s, int W, int *lo)
{
    while (*lo < W && !s[*lo]) ++*lo;
    return *lo < W ? *lo * 64 + __builtin_ctzll(s[*lo]) : -1;
}

static int reserve(ivec *a, size_t extra)
{
    if (a->len + extra <= a->cap) return 0;
    size_t cap = a->cap ? a->cap : 256;
    while (cap < a->len + extra) cap *= 2;
    int32_t *p = realloc(a->v, cap * sizeof *p);
    if (!p) return -1;
    a->v = p;
    a->cap = cap;
    return 0;
}

static inline void push(ivec *a, int32_t x) { a->v[a->len++] = x; }

/* _color_order: first-fit classes in index order; those numbered > kmin
 * are appended, with their starts relative to the level's first candidate */
static void first_fit(search *s, const u64 *P, int64_t kmin)
{
    int W = s->W, rlo = 0;
    size_t base = s->order.len;
    if (popcount(P, W) <= kmin) return;
    memcpy(s->rest, P, W * sizeof(u64));
    for (int64_t color = 1; lowest(s->rest, W, &rlo) >= 0; color++) {
        int alo = rlo, keep = color > kmin, v;
        memcpy(s->avail + rlo, s->rest + rlo, (W - rlo) * sizeof(u64));
        if (keep) push(&s->starts, (int32_t)(s->order.len - base));
        while ((v = lowest(s->avail, W, &alo)) >= 0) {
            const u64 *c = s->cadj + (size_t)v * W;
            if (keep) push(&s->order, v);
            for (int w = alo; w < W; w++) s->avail[w] &= c[w];
            s->rest[v >> 6] &= ~BIT(v);
        }
    }
}

/* lowest vertex of a & b & ~bit(skip), or -1 */
static int lowest_and(const u64 *a, const u64 *b, int skip, int W)
{
    for (int w = 0; w < W; w++) {
        u64 x = a[w] & b[w];
        if (w == skip >> 6) x &= ~BIT(skip);
        if (x) return w * 64 + __builtin_ctzll(x);
    }
    return -1;
}

/* _pair_color_order: a greedy maximal matching of the disjointness graph
 * (fewest partners first, ties by index), length-3 augmentation sweeps over
 * the free vertices ascending; pairs by lower vertex, then singletons */
static void pair_color(search *s, const u64 *P, int64_t kmin)
{
    int W = s->W, size = popcount(P, W), n = 0, lo = 0, v, npairs = 0, nfree = 0;
    size_t base = s->order.len;
    if (size <= kmin) return;
    int64_t need = size - kmin;
    memcpy(s->rest, P, W * sizeof(u64));
    memcpy(s->untaken, P, W * sizeof(u64));
    memset(s->free, 0, W * sizeof(u64));
    memset(s->hist, 0, (size + 1) * sizeof(int32_t));
    while ((v = lowest(s->rest, W, &lo)) >= 0) {
        const u64 *c = s->cadj + (size_t)v * W;
        int k = 0;
        for (int w = 0; w < W; w++) k += popc(c[w] & P[w]);
        s->rest[v >> 6] &= ~BIT(v);
        s->vs[n++] = v;
        s->cnt[v] = k;
        s->mate[v] = -1;
        s->hist[k + 1]++;
    }
    /* counting sort by partner count, stable, so ties stay ascending */
    for (int k = 1; k <= size; k++) s->hist[k] += s->hist[k - 1];
    for (int i = 0; i < n; i++) s->sorted[s->hist[s->cnt[s->vs[i]]]++] = s->vs[i];
    for (int i = 0; i < n; i++) {
        v = s->sorted[i];
        if (!(s->untaken[v >> 6] & BIT(v))) continue;
        int w = lowest_and(s->cadj + (size_t)v * W, s->untaken, v, W);
        s->untaken[v >> 6] &= ~BIT(v);
        if (w >= 0) {
            s->mate[v] = w;
            s->mate[w] = v;
            s->untaken[w >> 6] &= ~BIT(w);
            npairs++;
        } else {
            s->free[v >> 6] |= BIT(v);
        }
    }
    if (npairs >= need) return;
    lo = 0;
    memcpy(s->rest, s->free, W * sizeof(u64));
    while ((v = lowest(s->rest, W, &lo)) >= 0) {
        s->fl[nfree++] = v;
        s->rest[v >> 6] &= ~BIT(v);
    }
    for (int changed = 1; changed && nfree > 1;) {
        changed = 0;
        for (int i = 0; i < nfree; i++) {
            int u = s->fl[i], alo = 0, a;
            if (!(s->free[u >> 6] & BIT(u))) continue;
            for (int w = 0; w < W; w++) s->avail[w] = s->cadj[(size_t)u * W + w] & P[w];
            /* the matching is maximal, so a is matched: a takes u, and a's
             * mate takes the lowest free vertex it misses */
            while ((a = lowest(s->avail, W, &alo)) >= 0) {
                s->avail[a >> 6] &= ~BIT(a);
                int bp = s->mate[a];
                int w = lowest_and(s->cadj + (size_t)bp * W, s->free, u, W);
                if (w >= 0) {
                    s->mate[u] = a;
                    s->mate[a] = u;
                    s->mate[bp] = w;
                    s->mate[w] = bp;
                    s->free[u >> 6] &= ~BIT(u);
                    s->free[w >> 6] &= ~BIT(w);
                    npairs++;
                    changed = 1;
                    break;
                }
            }
        }
        int kept = 0;
        for (int i = 0; i < nfree; i++)
            if (s->free[s->fl[i] >> 6] & BIT(s->fl[i])) s->fl[kept++] = s->fl[i];
        nfree = kept;
    }
    if (npairs >= need) return;
    int64_t c = 0, first = kmin > 0 ? kmin : 0;
    for (int i = 0; i < n; i++) {
        v = s->vs[i];
        if (s->mate[v] > v && c++ >= first) {
            push(&s->starts, (int32_t)(s->order.len - base));
            push(&s->order, v);
            push(&s->order, s->mate[v]);
        }
    }
    for (int64_t i = kmin > npairs ? kmin - npairs : 0; i < nfree; i++) {
        push(&s->starts, (int32_t)(s->order.len - base));
        push(&s->order, s->fl[i]);
    }
}

/* the branches of a node at depth r: appends its candidates and classes
 * and fills in L */
static int branches(search *s, level *L, const u64 *P, const u64 *S, int64_t kmin)
{
    int W = s->W, size = popcount(P, W);
    L->off = s->order.len;
    L->coff = s->starts.len;
    L->c0 = (kmin > 0 ? kmin : 0) + 1;
    if (reserve(&s->order, size) || reserve(&s->starts, size)) return -1;
    if (s->mode == NONTRIVIAL) {
        /* with a common vertex left every extension of R from P keeps one */
        u64 c[VW];
        int lo = 0, v;
        memcpy(c, S, sizeof c);
        memcpy(s->rest, P, W * sizeof(u64));
        while (!zero(c, VW) && (v = lowest(s->rest, W, &lo)) >= 0) {
            for (int w = 0; w < VW; w++) c[w] &= s->bits[(size_t)v * VW + w];
            s->rest[v >> 6] &= ~BIT(v);
        }
        if (!zero(c, VW)) size = 0;
    }
    if (size && s->dense) pair_color(s, P, kmin);
    else if (size) first_fit(s, P, kmin);
    if (s->mode == GENERIC && s->order.len > L->off) {
        /* a feasible node branches on all of P in ascending index order;
         * order[idx] leaves idx + 1 candidates */
        s->order.len = L->off;
        s->starts.len = L->coff;
        for (int w = W - 1; w >= 0; w--)
            for (u64 x = P[w]; x;) {
                int hi = 63 - __builtin_clzll(x);
                x ^= 1ULL << hi;
                push(&s->starts, (int32_t)(s->order.len - L->off));
                push(&s->order, w * 64 + hi);
            }
        L->c0 = 1;
    }
    L->idx = (int64_t)(s->order.len - L->off);
    L->cls = (int64_t)(s->starts.len - L->coff) - 1;
    return 0;
}

/* the state of R + [v] from S into C; 0 when v is infeasible */
static int child(const search *s, const u64 *S, u64 *C, int v)
{
    if (s->mode == OMEGA) return 1;
    const u64 *e = s->bits + (size_t)v * VW;
    if (s->mode == NONTRIVIAL) {
        for (int w = 0; w < VW; w++) C[w] = S[w] & e[w];
    } else {
        const u64 *d1 = S, *d2 = S + VW, *d3 = S + 2 * VW;
        int k = 0;
        for (int w = 0; w < VW; w++) {
            if (e[w] & d3[w]) return 0;
            k += popc(d3[w] | (e[w] & d2[w]));
        }
        if (k > s->zeta) return 0;
        for (int w = 0; w < VW; w++) {
            C[w] = d1[w] | e[w];
            C[VW + w] = d2[w] | (e[w] & d1[w]);
            C[2 * VW + w] = d3[w] | (e[w] & d2[w]);
        }
    }
    return 1;
}

/* hypergraph._vertex_stars over the edge order e[i] = bits[perm[i]] (or
 * bits[i] without perm): star[x] has bit i when e[i] holds vertex x */
static void vertex_stars(int m, int W, const u64 *bits, const int32_t *perm, u64 *star)
{
    memset(star, 0, (size_t)64 * VW * W * sizeof(u64));
    for (int i = 0; i < m; i++) {
        const u64 *e = bits + (size_t)(perm ? perm[i] : i) * VW;
        for (int w = 0; w < VW; w++)
            for (u64 x = e[w]; x; x &= x - 1)
                star[(size_t)(w * 64 + __builtin_ctzll(x)) * W + (i >> 6)] |= BIT(i);
    }
}

/* verifier._star_adjacency over that edge order, from its star words:
 * adj[i] is the OR of the stars of e[i]'s vertices minus bit i, so repeated
 * edges stay adjacent */
static void adjacency(int m, int W, const u64 *bits, const int32_t *perm,
                      const u64 *star, u64 *adj)
{
    for (int i = 0; i < m; i++) {
        const u64 *e = bits + (size_t)(perm ? perm[i] : i) * VW;
        u64 *a = adj + (size_t)i * W;
        memset(a, 0, W * sizeof(u64));
        for (int w = 0; w < VW; w++)
            for (u64 x = e[w]; x; x &= x - 1) {
                const u64 *st = star + (size_t)(w * 64 + __builtin_ctzll(x)) * W;
                for (int j = 0; j < W; j++) a[j] |= st[j];
            }
        a[i >> 6] &= ~BIT(i);
    }
}

/* STATS: Delta, its lowest vertex (-1 when m = 0), max d(x, y) over x != y
 * and max |W_x|, W_x = {y : d(x, y) >= 2}, into result[0..3], from the
 * star words, or when star is NULL its own; the pairs are those of the live
 * vertices, as in hypergraph._star_maxima */
static int stats(int m, int W, const u64 *bits, const u64 *star, int64_t *result)
{
    u64 *own = star ? NULL : malloc((size_t)64 * VW * W * sizeof(u64) + sizeof(u64));
    if (!star && !own) return OUT_OF_MEMORY;
    if (own) vertex_stars(m, W, bits, NULL, own), star = own;
    int live[64 * VW], wx[64 * VW] = {0}, L = 0;
    result[0] = result[2] = result[3] = 0;
    result[1] = -1;
    for (int x = 0; x < 64 * VW; x++) {
        int d = popcount(star + (size_t)x * W, W);
        if (d > result[0]) result[0] = d, result[1] = x;
        if (d) live[L++] = x;
    }
    for (int i = 0; i < L; i++)
        for (int j = i + 1; j < L; j++) {
            const u64 *a = star + (size_t)live[i] * W, *b = star + (size_t)live[j] * W;
            int c = 0;
            for (int w = 0; w < W; w++) c += popc(a[w] & b[w]);
            if (c > result[2]) result[2] = c;
            if (c >= 2) wx[i]++, wx[j]++;
        }
    for (int i = 0; i < L; i++)
        if (wx[i] > result[3]) result[3] = wx[i];
    free(own);
    return DONE;
}

/* One search over the intersection graph of m edges, bits holding each
 * edge's vertex bitset (VW words), on its adjacency adj0 or, when adj0 is
 * NULL, one built here.  The omega search runs on that graph relabelled by
 * descending degree, ties by index (vertex i is old vertex perm[i]), and
 * its clique is mapped back to the old indices.  Writes best, the recorded
 * clique's size (-1 for none) and the nodes used to result[0..2] and the
 * clique to clique[]; returns DONE, OUT_OF_BUDGET or OUT_OF_MEMORY.  Mode
 * STATS runs stats() instead. */
int ekr_search(int mode, int m, const u64 *bits, const u64 *adj0, int dense, int64_t best0,
               int64_t target, double zeta, int64_t budget, int32_t *clique,
               int64_t *result)
{
    if (mode == STATS) return stats(m, (m + 63) / 64, bits, NULL, result);
    int W = (m + 63) / 64, SW = 3 * VW, r = 0, status = DONE;
    size_t rows = (size_t)m * W + 1;
    search s = {.m = m, .W = W, .mode = mode, .dense = dense, .bits = bits,
                .zeta = zeta};
    u64 *adj = malloc(rows * sizeof(u64));
    u64 *star = malloc((size_t)64 * VW * W * sizeof(u64) + sizeof(u64));
    u64 *cadj = malloc(rows * sizeof(u64));
    u64 *Ps = calloc(((size_t)m + 1) * W + 1, sizeof(u64));
    u64 *St = calloc(((size_t)m + 1) * SW, sizeof(u64));
    u64 *scratch = malloc(4 * (size_t)(W + 1) * sizeof(u64));
    int32_t *ints = malloc(8 * ((size_t)m + 2) * sizeof(int32_t));
    level *lv = malloc(((size_t)m + 1) * sizeof(level));
    int64_t best = best0, found = -1, nodes = 0;
    if (!adj || !star || !cadj || !Ps || !St || !scratch || !ints || !lv) {
        status = OUT_OF_MEMORY;
        goto out;
    }
    s.rest = scratch;
    s.avail = scratch + (W + 1);
    s.untaken = scratch + 2 * (W + 1);
    s.free = scratch + 3 * (W + 1);
    s.mate = ints;
    s.cnt = ints + (m + 2);
    s.vs = ints + 2 * (m + 2);
    s.sorted = ints + 3 * (m + 2);
    s.hist = ints + 4 * (m + 2);
    s.fl = ints + 5 * (m + 2);
    int32_t *R = ints + 6 * (m + 2), *perm = ints + 7 * (m + 2);
    if (!adj0) {
        vertex_stars(m, W, bits, NULL, star);
        adjacency(m, W, bits, NULL, star, adj);
    }
    s.adj = adj0 = adj0 ? adj0 : adj;
    if (mode == OMEGA) {
        /* sorted(range(m), key=(-degree, index)) as a stable counting sort
         * on m - 1 - degree, then the graph again in that order */
        memset(s.hist, 0, ((size_t)m + 1) * sizeof(int32_t));
        for (int i = 0; i < m; i++) {
            s.cnt[i] = m - 1 - popcount(adj0 + (size_t)i * W, W);
            s.hist[s.cnt[i] + 1]++;
        }
        for (int d = 1; d < m; d++) s.hist[d] += s.hist[d - 1];
        for (int i = 0; i < m; i++) perm[s.hist[s.cnt[i]]++] = i;
        vertex_stars(m, W, bits, perm, star);
        adjacency(m, W, bits, perm, star, adj);
        s.adj = adj;
    }
    for (int v = 0; v < m; v++) {
        for (int w = 0; w < W; w++) {
            int top = m - 64 * w;
            u64 full = top >= 64 ? ~0ULL : (1ULL << top) - 1;
            cadj[(size_t)v * W + w] = full & ~s.adj[(size_t)v * W + w];
        }
        cadj[(size_t)v * W + (v >> 6)] &= ~BIT(v);
    }
    s.cadj = cadj;
    for (int v = 0; v < m; v++) Ps[v >> 6] |= BIT(v);
    if (mode == NONTRIVIAL) memset(St, 0xff, VW * sizeof(u64));
    for (;;) {
        u64 *P = Ps + (size_t)r * W, *S = St + (size_t)r * SW;
        if (++nodes > budget) {
            status = OUT_OF_BUDGET;
            goto out;
        }
        if (r > best && (mode == OMEGA ? zero(P, W) : mode == GENERIC || zero(S, VW))) {
            best = found = r;
            memcpy(clique, R, r * sizeof(int32_t));
            if (best >= target) break;
        }
        if (branches(&s, &lv[r], P, S, best - r)) {
            status = OUT_OF_MEMORY;
            goto out;
        }
        /* next node: the deepest level's next unpruned, feasible candidate */
        for (;;) {
            level *L = &lv[r];
            int64_t idx = L->idx - 1;
            if (idx >= 0)
                while (s.starts.v[L->coff + L->cls] > idx) L->cls--;
            if (idx < 0 || r + L->c0 + L->cls <= best) {
                s.order.len = L->off;
                s.starts.len = L->coff;
                if (r == 0) goto out;
                r--;
                continue;
            }
            int v = s.order.v[L->off + idx];
            u64 *Pv = Ps + (size_t)r * W;
            L->idx = idx;
            if (child(&s, St + (size_t)r * SW, St + (size_t)(r + 1) * SW, v)) {
                const u64 *a = s.adj + (size_t)v * W;
                for (int w = 0; w < W; w++) Pv[W + w] = Pv[w] & a[w];
                Pv[v >> 6] &= ~BIT(v);
                R[r++] = v;
                break;
            }
            Pv[v >> 6] &= ~BIT(v);
        }
    }
out:
    if (mode == OMEGA && status == DONE)
        for (int64_t j = 0; j < found; j++) clique[j] = perm[clique[j]];
    result[0] = best;
    result[1] = found;
    result[2] = nodes;
    free(adj);
    free(star);
    free(cadj);
    free(Ps);
    free(St);
    free(scratch);
    free(ints);
    free(lv);
    free(s.order.v);
    free(s.starts.v);
    return status;
}

static int cmp64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* the slot of x in an open-addressing set of 2^lg ranks, or the empty
 * (-1) slot where x goes */
static u64 slot(const int64_t *set, int lg, int64_t x)
{
    u64 h = (u64)x * 0x9e3779b97f4a7c15ULL >> (64 - lg);
    while (set[h] >= 0 && set[h] != x) h = (h + 1) & (((u64)1 << lg) - 1);
    return h;
}

/* hypergraph._distinct_ranks in place: draw[i] = t_j, j = N - m + i, stays,
 * or becomes j when taken (j is not: every earlier rank is below it) */
static int floyd(int64_t N, int64_t m, int64_t *draw)
{
    int lg = 1;
    while (((int64_t)1 << lg) < 2 * m) lg++;
    int64_t *set = malloc(sizeof(int64_t) << lg);
    if (!set) return OUT_OF_MEMORY;
    memset(set, 0xff, sizeof(int64_t) << lg);
    for (int64_t i = 0; i < m; i++) {
        u64 h = slot(set, lg, draw[i]);
        if (set[h] >= 0) h = slot(set, lg, draw[i] = N - m + i);
        set[h] = draw[i];
    }
    free(set);
    qsort(draw, m, sizeof *draw, cmp64);
    return DONE;
}

/* numpy's SeedSequence (bit_generator.pyx), in uint32 arithmetic */
static uint32_t hashmix(uint32_t v, uint32_t *h, uint32_t mult)
{
    v ^= *h;
    *h *= mult;
    v *= *h;
    return v ^ v >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9dd * x - 0x4973f715 * y;
    return r ^ r >> 16;
}

/* SeedSequence(seed, spawn_key=(*stream, t)).generate_state(2, uint64) into
 * key: ent[0..len) holds its entropy words (the seed's, padded to 4, then
 * the stream's), and t's words follow */
static void seed_key(const uint32_t *ent, int64_t len, u64 t, u64 *key)
{
    uint32_t pool[4], tw[2] = {(uint32_t)t, (uint32_t)(t >> 32)}, h = 0x43b0d7e5;
    for (int i = 0; i < 4; i++) pool[i] = hashmix(ent[i], &h, 0x931e8875);
    for (int i = 0; i < 4; i++)
        for (int j = 0; j < 4; j++)
            if (i != j) pool[j] = mix(pool[j], hashmix(pool[i], &h, 0x931e8875));
    for (int64_t i = 4; i < len + 1 + (t >> 32 != 0); i++)
        for (int j = 0; j < 4; j++)
            pool[j] = mix(pool[j], hashmix(i < len ? ent[i] : tw[i - len], &h, 0x931e8875));
    h = 0x8b51f9dd;
    key[0] = key[1] = 0;
    for (int i = 0; i < 4; i++)
        key[i / 2] |= (u64)hashmix(pool[i], &h, 0x58f38ded) << 32 * (i % 2);
}

/* Philox4x64-10 (Salmon et al., SC'11) buffered as numpy's philox.h: the
 * counter is bumped before each block of four words, and a 32-bit draw
 * takes the low half of a word first, keeping the high half */
typedef struct {
    u64 ctr[4], key[2], buf[4];
    int pos, has32;
    uint32_t u32;
} philox;

static u64 next64(void *st)
{
    philox *g = st;
    if (g->pos < 4) return g->buf[g->pos++];
    for (int i = 0; i < 4 && !++g->ctr[i]; i++);
    u64 *c = g->buf, k0 = g->key[0], k1 = g->key[1];
    memcpy(c, g->ctr, sizeof g->ctr);
    for (int r = 0; r < 10; r++, k0 += 0x9E3779B97F4A7C15ULL, k1 += 0xBB67AE8584CAA73BULL) {
        __uint128_t a = (__uint128_t)0xD2E7470EE14C6C93ULL * c[0];
        __uint128_t b = (__uint128_t)0xCA5A826395121157ULL * c[2];
        c[0] = (u64)(b >> 64) ^ c[1] ^ k0, c[1] = (u64)b;
        c[2] = (u64)(a >> 64) ^ c[3] ^ k1, c[3] = (u64)a;
    }
    g->pos = 1;
    return c[0];
}

static uint32_t next32(void *st)
{
    philox *g = st;
    if (!(g->has32 = !g->has32)) return g->u32;
    u64 x = next64(st);
    g->u32 = (uint32_t)(x >> 32);
    return (uint32_t)x;
}

static double next_double(void *st) { return (next64(st) >> 11) * (1.0 / 9007199254740992.0); }

/* numpy/random/distributions.h's binomial_t and two of its samplers, linked
 * from numpy's libnpyrandom.a */
typedef struct {
    int has_binomial;
    double psave;
    int64_t nsave;
    double r, q, fm;
    int64_t m;
    double p1, xm, xl, xr, c, laml, lamr, p2, p3, p4;
} binomial_t;
int64_t random_binomial(bitgen_t *bitgen_state, double p, int64_t n, binomial_t *binomial);
uint64_t random_bounded_uint64(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                               uint64_t mask, bool use_masked);

/* *a holds at least need int64s, or OUT_OF_MEMORY */
static int grow(int64_t **a, int64_t *cap, int64_t need)
{
    if (need <= *cap) return DONE;
    int64_t *p = realloc(*a, (2 * need + 16) * sizeof *p);
    if (p) *a = p, *cap = 2 * need + 16;
    return p ? DONE : OUT_OF_MEMORY;
}

/* The colex unrank (hypergraph._colex_unrank_bits) of m ascending ranks
 * into words: the i-th largest member of rank r is the largest v with
 * C(v, i) = col[(k - i) n + v] <= r (clipped at C(n, k)).  Then STATS into
 * result[0..3] and, when m <= edge_cap, verifier._decide's searches, each on
 * its own budget: result[4] = omega, result[5] = the size of the failing
 * clique, which follows the words, or -1 when EKR holds or is undecided. */
static int trial(int n, int k, const int64_t *col, int64_t m, const int64_t *rank, int dense,
                 int64_t edge_cap, int64_t budget, u64 *words, int64_t *result)
{
    int W = (int)((m + 63) / 64), status = DONE;
    int64_t found[3];
    size_t stars = (size_t)64 * VW * W + 1;
    u64 *star = malloc((stars + (size_t)m * W + m + 2) * sizeof(u64));
    result[4] = result[5] = -1;
    if (!star) return OUT_OF_MEMORY;
    u64 *adj = star + stars;
    int32_t *clique = (int32_t *)(adj + (size_t)m * W + 1);
    memset(words, 0, (size_t)m * VW * sizeof(u64));
    for (int64_t e = 0; e < m; e++)
        for (int64_t i = 0, v = n, r = rank[e]; i < k; r -= col[i++ * n + v]) {
            do v--; while (col[i * n + v] > r);     /* below the member before */
            words[e * VW + (v >> 6)] |= BIT(v);
        }
    vertex_stars((int)m, W, words, NULL, star);
    stats((int)m, W, words, star, result);
    if (m <= edge_cap) {
        adjacency((int)m, W, words, NULL, star, adj);
        status = ekr_search(OMEGA, (int)m, words, adj, dense, result[0], m + 1, 0, budget,
                            clique, found);
        result[4] = found[0];
        if (!status && found[0] == result[0] && found[0] > 2)
            status = ekr_search(NONTRIVIAL, (int)m, words, adj, dense, found[0] - 1, found[0],
                                0, budget, clique, found);
        result[5] = status ? -1 : found[1];
    }
    for (int64_t j = 0; j < result[5]; j++) words[VW * m + j] = (u64)clique[j];
    free(star);
    return status;
}

/* Trials [lo, hi) of montecarlo.run_one_trial on k-sets of [n], N = C(n, k)
 * < 2^63.  Trial t draws from Philox keyed by seed_key(ent, len, t) what
 * numpy's Generator would: m = random_binomial(N, p), then Floyd's t_j on
 * [0, j], j = N - m .. N - 1 (conditioned), or the ranks r < N whose
 * next_double < p (bernoulli).  Row t - lo takes m, trial()'s result and
 * status; trial() writes into out (cap words), where a failing trial's
 * words and clique stay (any trial's words with keep_all).  Returns the
 * trials done, fewer when the next one's words may not fit, or
 * -OUT_OF_MEMORY. */
int64_t ekr_trials(const uint32_t *ent, int64_t len, int64_t lo, int64_t hi, int n, int k,
                   const int64_t *col, int64_t N, double p, int conditioned, int dense,
                   int64_t edge_cap, int64_t budget, int keep_all, int64_t *rows, u64 *out,
                   int64_t cap)
{
    philox g;
    bitgen_t bg = {&g, next64, next32, next_double, next64};
    int64_t t, used = 0, dcap = 0, *draw = NULL;
    int status = DONE;
    for (t = lo; t < hi && status != OUT_OF_MEMORY; t++) {
        int64_t m = 0, *row = rows + (t - lo) * 8;
        memset(&g, 0, sizeof g);
        g.pos = 4;
        seed_key(ent, len, (u64)t, g.key);
        if (conditioned) {
            binomial_t b = {0};
            m = random_binomial(&bg, p, N, &b);
            status = grow(&draw, &dcap, m);
            for (int64_t i = 0; !status && i < m; i++)
                draw[i] = (int64_t)random_bounded_uint64(&bg, 0, (u64)(N - m + i), 0, 0);
            status = status ? status : floyd(N, m, draw);
        } else {
            status = DONE;
            for (int64_t r = 0; r < N && !status; r++)
                if (next_double(&g) < p && !(status = grow(&draw, &dcap, m + 1))) draw[m++] = r;
        }
        row[0] = m;
        if (status || used + (VW + 1) * m > cap) break;
        status = row[7] = trial(n, k, col, m, draw, dense, edge_cap, budget, out + used, row + 1);
        if (keep_all || row[6] >= 0) used += VW * m + (row[6] > 0 ? row[6] : 0);
    }
    free(draw);
    return status == OUT_OF_MEMORY ? -OUT_OF_MEMORY : t - lo;
}
