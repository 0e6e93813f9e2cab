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
 * A second entry point, ekr_trial, runs a whole sweep trial on a sampler's
 * draws: Floyd's dedup, the colex unrank into vertex words, STATS, then the
 * omega and nontrivial searches of verifier._decide.
 *
 * Built with `gcc -O2 -shared -fPIC` and called through ctypes (_native).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* verifier._star_adjacency over that edge order: adj[i] is the OR of the
 * stars of e[i]'s vertices minus bit i, so repeated edges stay adjacent */
static void star_adjacency(int m, int W, const u64 *bits, const int32_t *perm,
                           u64 *star, u64 *adj)
{
    vertex_stars(m, W, bits, perm, star);
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
 * and max |W_x|, W_x = {y : d(x, y) >= 2}, into result[0..3]; the pairs are
 * those of the live vertices, as in hypergraph._star_maxima */
static int stats(int m, int W, const u64 *bits, int64_t *result)
{
    u64 *star = malloc((size_t)64 * VW * W * sizeof(u64) + sizeof(u64));
    int live[64 * VW], wx[64 * VW] = {0}, L = 0;
    if (!star) return OUT_OF_MEMORY;
    vertex_stars(m, W, bits, NULL, star);
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
    free(star);
    return DONE;
}

/* One search over the intersection graph of m edges, bits holding each
 * edge's vertex bitset (VW words).  The omega search runs on that graph
 * relabelled by descending degree, ties by index (vertex i is old vertex
 * perm[i]), and its clique is mapped back to the old indices.  Writes best,
 * the recorded clique's size (-1 for none) and the nodes used to
 * result[0..2] and the clique to clique[]; returns DONE, OUT_OF_BUDGET or
 * OUT_OF_MEMORY.  Mode STATS runs stats() instead. */
int ekr_search(int mode, int m, const u64 *bits, int dense, int64_t best0,
               int64_t target, double zeta, int64_t budget, int32_t *clique,
               int64_t *result)
{
    if (mode == STATS) return stats(m, (m + 63) / 64, bits, result);
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
    star_adjacency(m, W, bits, NULL, star, adj);
    if (mode == OMEGA) {
        /* sorted(range(m), key=(-degree, index)) as a stable counting sort
         * on m - 1 - degree, then the graph again in that order */
        memset(s.hist, 0, ((size_t)m + 1) * sizeof(int32_t));
        for (int i = 0; i < m; i++) {
            s.cnt[i] = m - 1 - popcount(adj + (size_t)i * W, W);
            s.hist[s.cnt[i] + 1]++;
        }
        for (int d = 1; d < m; d++) s.hist[d] += s.hist[d - 1];
        for (int i = 0; i < m; i++) perm[s.hist[s.cnt[i]]++] = i;
        star_adjacency(m, W, bits, perm, star, adj);
    }
    s.adj = adj;
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

/* hypergraph._floyd_ranks in place: draw[i] = t_j, j = N - m + i, stays,
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

/* One trial of montecarlo.run_one_trial on m sampled k-sets of [n] (C(n, k)
 * = N < 2^63), from Floyd's draws when floyd_draws is set (draw is then
 * overwritten with the ranks) or from ascending ranks.  The colex unrank
 * (hypergraph._colex_unrank_bits) fills words: the i-th largest member of
 * rank r is the largest v with C(v, i) = col[(k - i) n + v] <= r (clipped at
 * N).  STATS fills result[0..3]; when m <= edge_cap, verifier._decide's
 * searches follow, each on its own budget: result[4] = omega and result[5]
 * = the size of the failing clique in clique[], or -1 when EKR holds. */
int ekr_trial(int n, int k, const int64_t *col, int64_t N, int64_t m, int64_t *draw,
              int floyd_draws, int dense, int64_t edge_cap, int64_t budget, u64 *words,
              int32_t *clique, int64_t *result)
{
    int64_t found[3];
    int status;
    if (floyd_draws && floyd(N, m, draw)) return OUT_OF_MEMORY;
    memset(words, 0, (size_t)m * VW * sizeof(u64));
    for (int64_t e = 0; e < m; e++)
        for (int64_t i = 0, v = n, r = draw[e]; i < k; r -= col[i++ * n + v]) {
            do v--; while (col[i * n + v] > r);     /* below the member before */
            words[e * VW + (v >> 6)] |= BIT(v);
        }
    result[4] = result[5] = -1;
    if ((status = stats((int)m, (int)((m + 63) / 64), words, result)) || m > edge_cap)
        return status;
    status = ekr_search(OMEGA, (int)m, words, dense, result[0], m + 1, 0, budget, clique, found);
    result[4] = found[0];
    if (!status && found[0] == result[0] && found[0] > 2)
        status = ekr_search(NONTRIVIAL, (int)m, words, dense, found[0] - 1, found[0], 0,
                            budget, clique, found);
    result[5] = found[1];
    return status;
}
