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
 * verifier._star_adjacency's rule.  The omega and nontrivial searches run
 * on its relabel by descending adjacency degree, ties by index (MCQ's
 * initial order, as verifier._Instance.relabel): the relabelled edges'
 * words, star words and adjacency, built once per instance, and each
 * recorded clique is mapped back to ascending original indices.  The
 * generic search keeps index order, by which its first clique is defined.
 * Edge bitsets take W = ceil(m/64) words.
 * The search runs on an explicit stack of m + 1 levels.  A level keeps its
 * candidate set and its state.  An omega or nontrivial level also keeps its
 * candidates in branching order with the start of each color class; colors
 * are consecutive from the level's first.  A generic level keeps no order:
 * greedy coloring is only its feasibility test (does anything outlast kmin
 * classes?), and it branches on the lowest bit of its candidate set, cut
 * once r + popcount <= best, which is what _generic_search's
 * (None, range(1, |P| + 1)) encodes.  A generic child's candidate set also
 * loses every edge that child() rejects there (narrow()): those through a
 * degree-3 vertex, and once |d3| + 1 > zeta those through a degree-2 one.
 * d2 and d3 only grow down the tree, so such an edge is rejected at every
 * node below: no clique the search can record is lost, candidates are still
 * taken lowest first, and the first generic clique found, the first in
 * index order, is unchanged, while the popcount cut and the coloring test
 * see fewer candidates.  A generic child that cannot reach the target,
 * r + 1 + |P_child| <= best after narrow(), is never pushed (MCS's test
 * before expansion): its subtree records nothing, so only node counts and
 * budget errors change.  The omega and nontrivial searches keep no such
 * test, since their colorings already cut those children.
 *
 * decide() is verifier._decide: Delta from the star words, then within the
 * edge cap the adjacency and relabel, once, for the nontrivial search and,
 * only when that one records a clique or runs out, the omega search.  A
 * clique above Delta edges has no common vertex, and one of Delta edges
 * with a common vertex x is the star of x, so EKR holds exactly when no
 * clique of t = max(Delta, 3) or more edges has an empty intersection
 * (cliques of two edges always share a vertex): the nontrivial search,
 * floored at t - 1 with target t, decides a family that holds alone, and
 * omega = Delta there.  The omega search (floored at Delta) then tells
 * omega > Delta, whose maximum clique is the witness, from omega = Delta,
 * where the nontrivial clique is.  ekr_search runs decide() as its fourth
 * mode, DECIDE, and ekr_trials on every trial.  Its lone omega search
 * floors itself at Delta too and, when no clique beats that, returns the
 * star of the lowest vertex of degree Delta.
 *
 * A second entry point, ekr_trials, runs a batch of sweep trials.  It
 * re-derives each trial's numpy stream (numpy's SeedSequence key, Philox
 * with numpy's buffering, numpy's binomial and bounded-integer samplers from
 * its libnpyrandom.a), then runs Floyd's dedup and a bucket sort of its
 * ranks (one counting pass into buckets monotone in the rank, then one
 * insertion pass: expected O(m), as the ranks are a uniform m-subset), the
 * colex unrank into vertex words (ranks ascend, so each edge's largest
 * member starts from the last edge's) and decide().  Star words are kept
 * only for the live vertex rows: below n in a trial, below the highest
 * vertex present in ekr_search.
 *
 * Memory.  A search (run()) works in a workspace its caller hands it: its
 * complement adjacency, its P and state stacks (not zeroed: only row 0 is
 * set, and descend() and child() write every deeper row before it is
 * read), its levels and int scratch; only its candidate orders are its own,
 * grown as they fill.  A graph's block (graph_words()) holds its star
 * words, adjacency, relabel and that workspace: an ekr_search call
 * allocates one, and an ekr_trials call grows one (with the clique, its
 * draws and Floyd's hash set) to its largest trial so far, reuses it for
 * every trial and search, and frees it on return.  A trial above the edge
 * cap grows it by star words only.
 *
 * Built with `gcc -O2 -shared -fPIC [-mpopcnt] -I<numpy include>`, linked
 * with numpy's libnpyrandom.a and -lm, and called through ctypes (_native),
 * which adds -mpopcnt on an x86-64 CPU that reports POPCNT: every
 * __builtin_popcountll is then one popcnt instruction, not a call to
 * libgcc's table-based __popcountdi2.  ctypes releases the GIL for each
 * call, and a sweep's thread pool calls ekr_trials from several threads at
 * once, so the kernel keeps no mutable static or global state: every call
 * works on its arguments and on memory it allocates and frees itself.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <numpy/random/bitgen.h>    /* bitgen_t */

typedef uint64_t u64;
#define VW 4                            /* vertex bitset words, n <= 256 */
#define BIT(v) (1ULL << ((v) & 63))
#define SW (3 * VW)                     /* state words of a level: d1, d2, d3 */

enum { OMEGA = 0, NONTRIVIAL = 1, GENERIC = 2, DECIDE = 3 };
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
    const u64 *star;      /* GENERIC: the star words, W per vertex */
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

/* takes the next first-fit class, in index order, out of rest (its lowest
 * bit in word lo), appending it to order when keep */
static inline void take_class(search *s, int lo, int keep)
{
    int W = s->W, v;
    memcpy(s->avail + lo, s->rest + lo, (W - lo) * sizeof(u64));
    while ((v = lowest(s->avail, W, &lo)) >= 0) {
        const u64 *c = s->cadj + (size_t)v * W;
        if (keep) push(&s->order, v);
        for (int w = lo; w < W; w++) s->avail[w] &= c[w];
        s->rest[v >> 6] &= ~BIT(v);
    }
}

/* _first_classes: rest = P less the first kmin first-fit classes (empty
 * when |P| <= kmin); returns whether any vertex is left */
static int first_classes(search *s, const u64 *P, int64_t kmin)
{
    int W = s->W, lo = 0;
    if (popcount(P, W) <= kmin) return 0;
    memcpy(s->rest, P, W * sizeof(u64));
    for (int64_t color = 0; color < kmin && lowest(s->rest, W, &lo) >= 0; color++)
        take_class(s, lo, 0);
    return lowest(s->rest, W, &lo) >= 0;
}

/* _color_order: the first-fit classes numbered > kmin are appended, with
 * their starts relative to the level's first candidate */
static void first_fit(search *s, const u64 *P, int64_t kmin)
{
    int lo = 0;
    size_t base = s->order.len;
    if (!first_classes(s, P, kmin)) return;
    while (lowest(s->rest, s->W, &lo) >= 0) {
        push(&s->starts, (int32_t)(s->order.len - base));
        take_class(s, lo, 1);
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
 * and fills in L.  A GENERIC node appends none: when greedy coloring needs
 * more than kmin colors it branches on all of P, lowest first, idx of them
 * left, else on none */
static int branches(search *s, level *L, const u64 *P, const u64 *S, int64_t kmin)
{
    int W = s->W, size = popcount(P, W);
    L->off = s->order.len;
    L->coff = s->starts.len;
    if (s->mode == GENERIC) {
        L->idx = first_classes(s, P, kmin) ? size : 0;
        return 0;
    }
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

/* GENERIC: clears from the child's candidates Q the edges child() rejects
 * there and below (see the header): those through its degree-3 vertices,
 * or its degree-2 ones once |d3| + 1 > zeta.  The parent's P (state S)
 * lacks those through the parent's, so only the vertices the child adds to
 * that set have their stars cleared. */
static inline void narrow(const search *s, u64 *Q, const u64 *S)
{
    const u64 *C = S + SW;
    int W = s->W, d3 = 0, c3 = 0;
    /* most d3 words are empty: skipping them pays even with popcnt */
    for (int w = 0; w < VW; w++)
        if (C[2 * VW + w]) d3 += popc(S[2 * VW + w]), c3 += popc(C[2 * VW + w]);
    const u64 *done = S + (d3 + 1 > s->zeta ? VW : 2 * VW);
    const u64 *drop = C + (c3 + 1 > s->zeta ? VW : 2 * VW);
    for (int w = 0; w < VW; w++)
        for (u64 x = drop[w] & ~done[w]; x; x &= x - 1) {
            const u64 *st = s->star + (size_t)(w * 64 + __builtin_ctzll(x)) * W;
            for (int j = 0; j < W; j++) Q[j] &= ~st[j];
        }
}

/* The next node: the deepest level's next unpruned, feasible candidate v.
 * Pushes v onto R and its candidates into the next P row, and returns the
 * new depth, or -1 once every branch is done.  A generic level (a constant,
 * so each mode gets its own copy of the loop) takes the lowest bit of its P
 * row, which holds its idx candidates left, and is cut once r + idx <= best;
 * its child is skipped, as an infeasible one is, when r + 1 + |P_child| <=
 * best (verifier._branch_and_bound's cut when narrow is given). */
static inline __attribute__((always_inline)) int
descend(search *s, level *lv, u64 *Ps, u64 *St, int32_t *R, int r, int64_t best, int generic)
{
    int W = s->W;
    for (;;) {
        level *L = &lv[r];
        u64 *P = Ps + (size_t)r * W;
        int64_t idx = L->idx - 1;
        if (!generic && idx >= 0)
            while (s->starts.v[L->coff + L->cls] > idx) L->cls--;
        if (idx < 0 || r + (generic ? idx + 1 : L->c0 + L->cls) <= best) {
            s->order.len = L->off;
            s->starts.len = L->coff;
            if (r == 0) return -1;
            r--;
            continue;
        }
        int lo = 0, v = generic ? lowest(P, W, &lo) : s->order.v[L->off + idx];
        L->idx = idx;
        P[v >> 6] &= ~BIT(v);
        const u64 *a = s->adj + (size_t)v * W;
        int left = 0;
        for (int w = 0; w < W; w++) left += popc(P[W + w] = P[w] & a[w]);
        /* a generic child dead on arrival is skipped: sooner when P & adj[v]
         * is already too small, so child() and narrow() never run for it */
        if (generic && r + 1 + left <= best) continue;
        if (!child(s, St + (size_t)r * SW, St + (size_t)(r + 1) * SW, v)) continue;
        if (generic) {
            narrow(s, P + W, St + (size_t)r * SW);
            if (r + 1 + popcount(P + W, W) <= best) continue;
        }
        R[r] = v;
        return r + 1;
    }
}

/* one past the highest vertex of the m edges in bits, 0 when m = 0: the
 * star rows that can be nonempty */
static int live_rows(int m, const u64 *bits)
{
    u64 any[VW] = {0};
    for (int i = 0; i < m; i++)
        for (int w = 0; w < VW; w++) any[w] |= bits[(size_t)i * VW + w];
    for (int w = VW - 1; w >= 0; w--)
        if (any[w]) return 64 * w + 64 - __builtin_clzll(any[w]);
    return 0;
}

/* hypergraph._vertex_stars: star[x], x < rows, has bit i when edge i
 * (bits[i]) holds vertex x; every vertex of the edges is below rows */
static void vertex_stars(int m, int W, int rows, const u64 *bits, u64 *star)
{
    memset(star, 0, (size_t)rows * W * sizeof(u64));
    for (int i = 0; i < m; i++) {
        const u64 *e = bits + (size_t)i * VW;
        for (int w = 0; w < VW; w++)
            for (u64 x = e[w]; x; x &= x - 1)
                star[(size_t)(w * 64 + __builtin_ctzll(x)) * W + (i >> 6)] |= BIT(i);
    }
}

/* verifier._star_adjacency from the edges' star words: adj[i] is the OR
 * of the stars of edge i's vertices minus bit i, so repeated edges stay
 * adjacent */
static void adjacency(int m, int W, const u64 *bits, const u64 *star, u64 *adj)
{
    for (int i = 0; i < m; i++) {
        const u64 *e = bits + (size_t)i * VW;
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

/* a clique of size vertices of the relabelled graph as the old edges
 * perm[v], ascending (an insertion sort as they are mapped) */
static void map_back(int32_t *clique, int64_t size, const int32_t *perm)
{
    for (int64_t j = 0; j < size; j++) {
        int32_t x = perm[clique[j]];
        int64_t i = j;
        for (; i > 0 && clique[i - 1] > x; i--) clique[i] = clique[i - 1];
        clique[i] = x;
    }
}

/* An intersection graph of m edges over the vertices below rows, in a
 * block of graph_words(): the star words, then for a search the adjacency,
 * the relabel's words (rbits), perm and 2m + 1 ints of scratch, and run()'s
 * workspace.  bits are the edges' words the searches read: the caller's,
 * or rbits once relabelled.  centre is the lowest vertex of degree Delta. */
typedef struct {
    int m, W, rows, centre;
    int64_t Delta;
    const u64 *bits;
    u64 *star, *adj, *rbits, *work;
    int32_t *perm;
} graph;

static size_t graph_words(int64_t m, int rows, int search)
{
    size_t M = (size_t)m, W = (M + 63) / 64;
    return (size_t)rows * W + 1 + (search ? M * W + 1 + M * VW + (3 * M + 2) / 2 + M * W + 1
           + (M + 1) * W + 1 + (M + 1) * SW + 4 * (W + 1)
           + (M + 1) * sizeof(level) / sizeof(u64) + (7 * (M + 2) + 1) / 2 : 0);
}

/* the graph of the m edges in bits over block: its star words and Delta */
static graph stars(int m, int rows, const u64 *bits, u64 *block)
{
    graph g = {.m = m, .W = (m + 63) / 64, .rows = rows, .centre = -1, .bits = bits,
               .star = block};
    vertex_stars(m, g.W, rows, bits, g.star);
    for (int x = 0; x < rows; x++) {
        int d = popcount(g.star + (size_t)x * g.W, g.W);
        if (d > g.Delta) g.Delta = d, g.centre = x;
    }
    return g;
}

/* The adjacency of g from its star words, and when asked the relabel the
 * omega and nontrivial searches run on: new edge i is old edge perm[i],
 * perm = sorted(range(m), key=(-degree, index)) as a stable counting sort
 * on m - 1 - degree (MCQ's initial order), whose words go to rbits, and
 * whose star words and adjacency overwrite the old. */
static void connect(graph *g, int relabelled)
{
    int m = g->m, W = g->W;
    g->adj = g->star + (size_t)g->rows * W + 1;
    g->rbits = g->adj + (size_t)m * W + 1;
    g->perm = (int32_t *)(g->rbits + (size_t)m * VW);
    g->work = g->rbits + (size_t)m * VW + (3 * (size_t)m + 2) / 2;
    adjacency(m, W, g->bits, g->star, g->adj);
    if (!relabelled) return;
    int32_t *key = g->perm + m, *hist = key + m;
    memset(hist, 0, ((size_t)m + 1) * sizeof *hist);
    for (int i = 0; i < m; i++) {
        key[i] = m - 1 - popcount(g->adj + (size_t)i * W, W);
        hist[key[i] + 1]++;
    }
    for (int d = 1; d < m; d++) hist[d] += hist[d - 1];
    for (int i = 0; i < m; i++) g->perm[hist[key[i]]++] = i;
    for (int i = 0; i < m; i++)
        memcpy(g->rbits + (size_t)i * VW, g->bits + (size_t)g->perm[i] * VW, VW * sizeof(u64));
    g->bits = g->rbits;
    vertex_stars(m, W, g->rows, g->bits, g->star);
    adjacency(m, W, g->bits, g->star, g->adj);
}

/* One search over g (its adjacency built, and read with its star words by
 * GENERIC only), in g's workspace, of whose stacks only row 0 is set,
 * below.  Writes best, the recorded clique's size (-1 for none) and the
 * nodes visited (budget when it ran out) to result[0..2] and the clique,
 * in g's edge indices, to clique[]; returns DONE, OUT_OF_BUDGET or
 * OUT_OF_MEMORY. */
static int run(int mode, const graph *g, int dense, int64_t best0, int64_t target, double zeta,
               int64_t budget, int32_t *clique, int64_t *result)
{
    int m = g->m, W = g->W, r = 0, status = DONE;
    search s = {.m = m, .W = W, .mode = mode, .dense = dense, .bits = g->bits, .adj = g->adj,
                .star = g->star, .zeta = zeta};
    size_t rows = (size_t)m * W + 1, pw = ((size_t)m + 1) * W + 1, sw = ((size_t)m + 1) * SW;
    size_t xw = 4 * (size_t)(W + 1), lw = ((size_t)m + 1) * sizeof(level) / sizeof(u64);
    int64_t best = best0, found = -1, nodes = 0;
    u64 *cadj = g->work, *Ps = cadj + rows, *St = Ps + pw, *scratch = St + sw;
    level *lv = (level *)(scratch + xw);
    int32_t *ints = (int32_t *)(scratch + xw + lw);
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
    int32_t *R = ints + 6 * (m + 2);
    for (int v = 0; v < m; v++) {
        for (int w = 0; w < W; w++) {
            int top = m - 64 * w;
            u64 full = top >= 64 ? ~0ULL : (1ULL << top) - 1;
            cadj[(size_t)v * W + w] = full & ~g->adj[(size_t)v * W + w];
        }
        cadj[(size_t)v * W + (v >> 6)] &= ~BIT(v);
    }
    s.cadj = cadj;
    memset(Ps, 0, W * sizeof(u64));
    for (int v = 0; v < m; v++) Ps[v >> 6] |= BIT(v);
    memset(St, mode == NONTRIVIAL ? 0xff : 0, SW * sizeof(u64));
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
        r = mode == GENERIC ? descend(&s, lv, Ps, St, R, r, best, 1)
                            : descend(&s, lv, Ps, St, R, r, best, 0);
        if (r < 0) goto out;
    }
out:
    result[0] = best;
    result[1] = found;
    result[2] = status == OUT_OF_BUDGET ? budget : nodes;
    free(s.order.v);
    free(s.starts.v);
    return status;
}

/* verifier._decide on g, its star words built: Delta, omega, the size of
 * the failing clique (-1 when EKR holds or no search decided; omega and
 * size -1 when m > edge_cap) and the nodes of both searches into
 * result[0..3], the clique, as ascending edge indices, into clique[].
 * The nontrivial search, floor t - 1 and target t = max(Delta, 3), runs
 * first (see the header): when it records nothing EKR holds and omega =
 * Delta.  Otherwise the omega search, floored at Delta, decides: omega >
 * Delta fails with its clique, omega = Delta with the nontrivial clique,
 * or is undecided when that search ran out.  Floored at Delta, the omega
 * search writes clique[] only for a clique above Delta, so the nontrivial
 * clique stays in place.  Each search runs on its own budget. */
static int decide(graph *g, int dense, int64_t edge_cap, int64_t budget, int32_t *clique,
                  int64_t *result)
{
    int m = g->m, status = DONE, omega_status;
    int64_t t = g->Delta > 3 ? g->Delta : 3, found[3] = {0, -1, 0};
    result[0] = g->Delta;
    result[1] = result[2] = -1;
    result[3] = 0;
    if (m > edge_cap) return DONE;
    result[1] = g->Delta;
    if (t <= m) {                       /* else no clique is that large */
        connect(g, 1);
        status = run(NONTRIVIAL, g, dense, t - 1, t, 0, budget, clique, found);
    }
    result[2] = status ? -1 : found[1];
    result[3] = found[2];
    if (status == OUT_OF_MEMORY || (!status && found[1] < 0)) return status;
    omega_status = run(OMEGA, g, dense, g->Delta, m + 1, 0, budget, clique, found);
    result[3] += found[2];
    if (omega_status) {
        result[2] = -1;
        return omega_status;
    }
    if (found[1] >= 0) {
        result[1] = result[2] = found[1];
        status = DONE;
    }
    map_back(clique, result[2], g->perm);
    return status;
}

/* One call on the graph of the m edges whose vertex bitsets (VW words
 * each) are bits, in one block: DECIDE runs decide() with no edge cap
 * (result[0..3]), any other mode one search (run(), result[0..2]).  OMEGA
 * floors it at Delta, not best0, and records the star of g.centre when no
 * clique beats that.  The omega and nontrivial searches' cliques come back
 * as ascending old indices. */
int ekr_search(int mode, int m, const u64 *bits, int dense, int64_t best0, int64_t target,
               double zeta, int64_t budget, int32_t *clique, int64_t *result)
{
    int rows = live_rows(m, bits), status;
    u64 *block = malloc(graph_words(m, rows, 1) * sizeof(u64));
    if (!block) return OUT_OF_MEMORY;
    graph g = stars(m, rows, bits, block);
    if (mode == DECIDE) {
        status = decide(&g, dense, m, budget, clique, result);
    } else {
        connect(&g, mode != GENERIC);
        status = run(mode, &g, dense, mode == OMEGA ? g.Delta : best0, target, zeta, budget,
                     clique, result);
        if (mode == OMEGA && !status && result[1] < 0 && g.centre >= 0)
            for (int i = result[1] = 0; i < m; i++)     /* list the star */
                if (g.star[(size_t)g.centre * g.W + (i >> 6)] & BIT(i)) clique[result[1]++] = i;
        if (mode != GENERIC && !status) map_back(clique, result[1], g.perm);
    }
    free(block);
    return status;
}

/* the slot of x in an open-addressing set of 2^lg ranks, or the empty
 * (-1) slot where x goes */
static u64 slot(const int64_t *set, int lg, int64_t x)
{
    u64 h = (u64)x * 0x9e3779b97f4a7c15ULL >> (64 - lg);
    while (set[h] >= 0 && set[h] != x) h = (h + 1) & (((u64)1 << lg) - 1);
    return h;
}

/* rank r's bucket of m: floor(r m / N) as the float product r scale,
 * scale = m / N, clamped to m - 1; monotone in r, as rounding is */
static inline int64_t bucket(int64_t r, double scale, int64_t m)
{
    int64_t b = (int64_t)((double)r * scale);
    return b < m - 1 ? b : m - 1;
}

/* hypergraph._distinct_ranks in place, then sorted: draw[i] = t_j,
 * j = N - m + i, stays, or becomes j when taken (j is not: every earlier
 * rank is below it).  set holds at least 2^lg >= 2m + 1 int64s, lg >= 1.
 * The sort is one bucket pass: rank r goes to bucket(r), monotone, so
 * every bucket's ranks lie below the next one's.  A counting pass (counts
 * in set[m..2m]) places the buckets in order in set[0..m), and one
 * insertion pass copies them back, sorted: it sorts any order, and the
 * buckets keep its moves within a bucket.  The m ranks are a uniform
 * m-subset of [0, N), so a bucket holds O(1) of them in expectation. */
static void floyd(int64_t N, int64_t m, int64_t *draw, int lg, int64_t *set)
{
    memset(set, 0xff, sizeof(int64_t) << lg);
    for (int64_t i = 0; i < m; i++) {
        u64 h = slot(set, lg, draw[i]);
        if (set[h] >= 0) h = slot(set, lg, draw[i] = N - m + i);
        set[h] = draw[i];
    }
    int64_t *start = set + m;
    double scale = (double)m / (double)N;
    memset(start, 0, (size_t)(m + 1) * sizeof *start);
    for (int64_t i = 0; i < m; i++) start[bucket(draw[i], scale, m) + 1]++;
    for (int64_t b = 0; b < m; b++) start[b + 1] += start[b];
    for (int64_t i = 0; i < m; i++) set[start[bucket(draw[i], scale, m)]++] = draw[i];
    for (int64_t i = 0; i < m; i++) {
        int64_t x = set[i], j = i;
        for (; j > 0 && draw[j - 1] > x; j--) draw[j] = draw[j - 1];
        draw[j] = x;
    }
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
 * C(v, i) = col[(k - i) n + v] <= r (clipped at C(n, k)), then decide(),
 * whose Delta, omega and clique size go to result[0..2] and whose clique
 * follows the words.  *block, grown to fit, takes the graph and, within
 * the edge cap only, the clique. */
static int trial(int n, int k, const int64_t *col, int64_t m, const int64_t *rank, int dense,
                 int64_t edge_cap, int64_t budget, u64 *words, int64_t *result,
                 int64_t **block, int64_t *bcap)
{
    size_t gw = graph_words(m, n, m <= edge_cap);
    if (grow(block, bcap, gw + (m <= edge_cap ? (m + 2) / 2 : 0))) return OUT_OF_MEMORY;
    int32_t *clique = (int32_t *)((u64 *)*block + gw);
    memset(words, 0, (size_t)m * VW * sizeof(u64));
    /* ranks ascend, and so does the largest member, top (k >= 1, so
     * col[0] = C(0, k) = 0): it climbs from the edge before's */
    for (int64_t e = 0, top = 0; e < m; e++) {
        int64_t r = rank[e];
        while (top + 1 < n && col[top + 1] <= r) top++;
        for (int64_t i = 0, v = top + 1; i < k; r -= col[i++ * n + v]) {
            do v--; while (col[i * n + v] > r);     /* below the member before */
            words[e * VW + (v >> 6)] |= BIT(v);
        }
    }
    graph g = stars((int)m, n, words, (u64 *)*block);
    int64_t res[4];
    int status = decide(&g, dense, edge_cap, budget, clique, res);
    memcpy(result, res, 3 * sizeof *res);
    for (int64_t j = 0; j < res[2]; j++) words[VW * m + j] = (u64)clique[j];
    return status;
}

/* Trials [lo, hi) of montecarlo.run_one_trial on k-sets of [n], N = C(n, k)
 * < 2^63.  Trial t draws from Philox keyed by seed_key(ent, len, t) what
 * numpy's Generator would: m = random_binomial(N, p), then Floyd's t_j on
 * [0, j], j = N - m .. N - 1 (conditioned), or the ranks r < N whose
 * next_double < p (bernoulli).  Row t - lo takes m, trial()'s result
 * (Delta, omega, the failing clique's size) and status; trial() writes into out (cap words), where a failing trial's
 * words and clique stay (any trial's words with keep_all).  Returns the
 * trials done, fewer when the next one's words may not fit, or
 * -OUT_OF_MEMORY.  The draws, Floyd's set and trial()'s block are the
 * call's own, grown to the largest trial so far and freed on return. */
int64_t ekr_trials(const uint32_t *ent, int64_t len, int64_t lo, int64_t hi, int n, int k,
                   const int64_t *col, int64_t N, double p, int conditioned, int dense,
                   int64_t edge_cap, int64_t budget, int keep_all, int64_t *rows, u64 *out,
                   int64_t cap)
{
    philox g;
    bitgen_t bg = {&g, next64, next32, next_double, next64};
    int64_t t, used = 0, dcap = 0, scap = 0, bcap = 0, *draw = NULL, *set = NULL, *block = NULL;
    int status = DONE;
    for (t = lo; t < hi && status != OUT_OF_MEMORY; t++) {
        int64_t m = 0, *row = rows + (t - lo) * 5;
        memset(&g, 0, sizeof g);
        g.pos = 4;
        seed_key(ent, len, (u64)t, g.key);
        if (conditioned) {
            binomial_t b = {0};
            int lg = 1;
            m = random_binomial(&bg, p, N, &b);
            while (((int64_t)1 << lg) < 2 * m + 1) lg++;
            status = grow(&draw, &dcap, m) || grow(&set, &scap, (int64_t)1 << lg)
                         ? OUT_OF_MEMORY : DONE;
            for (int64_t i = 0; !status && i < m; i++)
                draw[i] = (int64_t)random_bounded_uint64(&bg, 0, (u64)(N - m + i), 0, 0);
            if (!status) floyd(N, m, draw, lg, set);
        } else {
            status = DONE;
            for (int64_t r = 0; r < N && !status; r++)
                if (next_double(&g) < p && !(status = grow(&draw, &dcap, m + 1))) draw[m++] = r;
        }
        row[0] = m;
        if (status || used + (VW + 1) * m > cap) break;
        status = row[4] = trial(n, k, col, m, draw, dense, edge_cap, budget, out + used, row + 1,
                                &block, &bcap);
        if (keep_all || row[3] >= 0) used += VW * m + (row[3] > 0 ? row[3] : 0);
    }
    free(draw);
    free(set);
    free(block);
    return status == OUT_OF_MEMORY ? -OUT_OF_MEMORY : t - lo;
}
