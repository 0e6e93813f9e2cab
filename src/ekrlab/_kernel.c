/* Compiled kernel for ekrlab's three clique searches and three samplers.
 *
 * The library's only search and only sampler.  The search has a
 * line-by-line Python twin in the tests (tests/oracles.py: branch_and_bound
 * together with the rules its callers supply), which it is checked against:
 * the omega search (accept an empty candidate set), the nontrivial search
 * (accept an empty common intersection; no branches while the AND over R
 * and all of P is nonempty) and the generic search (degree bitsets
 * d1/d2/d3, zeta_cap).  The colorings reproduce the twin's color_order and
 * pair_color_order class for class, so
 * visited cliques, node counts and the recorded clique are the twin's.
 * The first-fit classes (color_classes(), which the sparse omega and
 * nontrivial searches and the generic search's feasibility test share) are
 * compiled once for each constant W = 1..CW, m <= 256, with the class's
 * available set in registers and no scan for the lowest word; m > 256 runs
 * the same source as a loop over W words.
 * A node counts its candidates once, in branches(), for its coloring, and
 * pair_color (the dense regime's matching, n < 3k) and the nontrivial
 * search's common-vertex test walk a candidate set's words bit by bit
 * (x &= x - 1, as BBMC, San Segundo et al., C&OR 38, 2011), never a copy
 * of it rescanned from its lowest word.
 *
 * The kernel builds its own graph from each edge's vertex bitset of VW
 * words, a compile-time constant: the one source is built once per vertex
 * width, with -DVW=1 for n <= 64 and at the default VW = 4 for n <= 256,
 * so that a family on at most 64 vertices carries, ANDs and copies one
 * word an edge and a level's state is three words.  From them it builds
 * per-vertex star words, then the intersection adjacency by
 * verifier._star_adjacency's rule (adjacency(): each row the OR of its
 * vertices' stars, at a constant W = 1..CW in locals, as the classes are).  The omega and nontrivial searches run
 * on its relabel by descending adjacency degree, ties by index (MCQ's
 * initial order, as the twin's relabel): the relabelled edges'
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
 * once r + popcount <= best, which is what the twin's generic_search's
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
 * test, since their colorings already cut those children.  Nor is a
 * generic child pushed that fails the pair-coverage bound (covers()), and
 * a root that fails it gets no candidates: every two edges of a clique
 * share a vertex, so R's r edges and the target's t - r others make
 * r (t - r) + C(t - r, 2) pairs that the others' (t - r) k vertex
 * incidences must cover, k the fewest vertices of an edge.  Raising a
 * vertex from degree j to j + 1 covers j new pairs, and degrees stay <= 3
 * with at most floor(zeta) of them 3, so the most those incidences cover
 * has a closed form in R's counts of vertices of degree 1, 2 and 3.  A
 * cut R extends to no generic t-clique, so only node counts and budget
 * errors change.
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
 * The samplers re-derive numpy's streams (its SeedSequence key, Philox with
 * its buffering, its binomial and bounded-integer samplers from
 * libnpyrandom.a), edge for edge those of the numpy samplers in
 * tests/oracles.py.  draw() draws one family.  Bernoulli and conditioned
 * ranks ascend: the conditioned ones after Floyd's dedup and a bucket sort
 * (floyd(): one counting pass into buckets monotone in the rank, then one
 * insertion pass: expected O(m), as the ranks are a uniform m-subset), and
 * both are colex unranked into vertex words (each edge's largest member
 * starts from the last edge's).  A batch of ekr_trials may also keep two
 * tables over the N ranks, each only when N <= SMALL_N = 2^16 and it pays
 * (internal constants, not settings):
 *   - the rank bitmap, for a conditioned batch with 64 p >= 1, so that its
 *     N / 64 words are no more than the edges a trial expects: Floyd's
 *     step tests and takes a rank by one bit, and a scan of the bitmap
 *     reads the ranks back ascending and clears it (floyd_bitmap());
 *   - the unrank memo, for a Bernoulli or conditioned batch with (hi - lo)
 *     p >= 1, so that it expects at least N draws and ranks repeat: each
 *     rank's VW words, unranked once, and a bitmap of the ranks it holds;
 *     every later draw of a rank copies them.
 * Below those gates, where the tables would be scanned or paged in for a
 * few draws (ungated, a (34, 4) batch at phi = 0.3 ran ~60% slower), and in
 * ekr_draw, whose one family repeats no rank, floyd() and the plain unrank
 * run.  The ranks, words and rows are the same either way.  An
 * independent family draws each edge by partial
 * Fisher-Yates; a trial keeps the first copy of each, in draw order, by its
 * colex rank in Floyd's hash set.  ekr_trials draws a batch of sweep trials
 * on their spawned streams and runs decide() on each, and ekr_draw draws
 * one family.  Star words are kept only for the live vertex rows: below n
 * in a trial, below the highest vertex present in ekr_search.  A build
 * draws and unranks for n <= 64 VW only: draw_edges()'s Fisher-Yates pool
 * holds 64 VW vertices.
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
 * cap grows it by star words only.  An ekr_trials call also allocates its
 * own rank bitmap (N bits) and unrank memo (N VW words and N bits) when
 * their gates open, and frees them on return: at N = 2^16 the memo is
 * 512 KiB + 8 KiB when n <= 64 (VW = 1) and 2 MiB + 8 KiB at VW = 4, and
 * the bitmap 8 KiB.
 *
 * Built with `gcc -O2 -shared -fPIC [-mpopcnt] -DVW=<1 or 4> -I<numpy
 * include>`, linked with numpy's libnpyrandom.a and -lm, and called through
 * ctypes (_native), which loads the build of each width on first use, picks
 * it by n, and adds -mpopcnt on an x86-64 CPU that reports POPCNT: every
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
#ifndef VW
#define VW 4                            /* vertex bitset words: n <= 64 VW */
#endif
#if VW < 1 || VW > 4
#error "VW, the vertex bitset words, must be 1..4 (n <= 256)"
#endif
#define CW 4                            /* edge words compiled as constants: m <= 256 */
#define BIT(v) (1ULL << ((v) & 63))
#define SW (3 * VW)                     /* state words of a level: d1, d2, d3 */
#define SMALL_N (1 << 16)               /* the most ranks a rank bitmap or memo covers */

enum { OMEGA = 0, NONTRIVIAL = 1, GENERIC = 2, DECIDE = 3 };
enum { DONE = 0, OUT_OF_BUDGET = 1, OUT_OF_MEMORY = 2 };
enum { BERNOULLI = 0, CONDITIONED = 1, INDEPENDENT = 2 };    /* hypergraph.SAMPLER_MODES */

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
    int64_t target;       /* GENERIC: the clique size sought, and for */
    int k, zfloor;        /* covers() an edge's fewest vertices, floor(zeta) */
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

/* the lowest word of rest at or above lo that holds a bit, or W.  At a
 * constant W <= CW it is 0 while any word does: every index is a constant */
static inline __attribute__((always_inline)) int first_word(const u64 *rest, int lo, const int W)
{
    if (W <= CW) {
        u64 any = 0;
        for (int w = 0; w < W; w++) any |= rest[w];
        return any ? 0 : W;
    }
    while (lo < W && !rest[lo]) lo++;
    return lo;
}

/* takes the next first-fit class, in index order, out of rest (W words, none
 * set below word lo), appending it to order when keep.  At a constant W <=
 * CW, lo stays 0, so rest and avail are indexed by constants only and can
 * live in registers; above, lo moves up to the lowest word left */
static inline __attribute__((always_inline)) void
take_class(search *s, u64 *rest, u64 *avail, int lo, int keep, const int W)
{
    for (int w = lo; w < W; w++) avail[w] = rest[w];
    for (;;) {
        int v = -1;
        for (int w = lo; w < W; w++)
            if (avail[w]) {
                v = 64 * w + __builtin_ctzll(avail[w]);
                rest[w] &= ~BIT(v);
                if (W > CW) lo = w;
                break;
            }
        if (v < 0) return;
        if (keep) push(&s->order, v);
        const u64 *c = s->cadj + (size_t)v * W;
        for (int w = lo; w < W; w++) avail[w] &= c[w];
    }
}

/* the twin's first_classes: rest = P less the first kmin first-fit classes,
 * and with fit its color_order too: each class after those is appended,
 * with its start relative to the level's first candidate.  Returns whether
 * any vertex outlasts kmin classes.  rest and avail are locals at W <= CW,
 * the workspace's words above */
static inline __attribute__((always_inline)) int
color_classes(search *s, const u64 *P, int64_t kmin, int fit, const int W)
{
    u64 r[CW], a[CW], *rest = W <= CW ? r : s->rest, *avail = W <= CW ? a : s->avail;
    int lo = 0;
    size_t base = s->order.len;
    for (int w = 0; w < W; w++) rest[w] = P[w];
    for (int64_t color = 0; color < kmin && (lo = first_word(rest, lo, W)) < W; color++)
        take_class(s, rest, avail, lo, 0, W);
    if ((lo = first_word(rest, lo, W)) == W || !fit) return lo < W;
    for (; lo < W; lo = first_word(rest, lo, W)) {
        push(&s->starts, (int32_t)(s->order.len - base));
        take_class(s, rest, avail, lo, 1, W);
    }
    return 1;
}

/* color_classes() on P (size vertices), with W a constant for W = 1..CW */
static int classes(search *s, const u64 *P, int size, int64_t kmin, int fit)
{
    if (size <= kmin) return 0;
    switch (s->W) {
    case 1: return color_classes(s, P, kmin, fit, 1);
    case 2: return color_classes(s, P, kmin, fit, 2);
    case 3: return color_classes(s, P, kmin, fit, 3);
    case 4: return color_classes(s, P, kmin, fit, 4);
    default: return color_classes(s, P, kmin, fit, s->W);
    }
}

/* lowest vertex of a & b, or -1 */
static inline int lowest_and(const u64 *a, const u64 *b, int W)
{
    for (int w = 0; w < W; w++)
        if (a[w] & b[w]) return w * 64 + __builtin_ctzll(a[w] & b[w]);
    return -1;
}

/* the twin's pair_color_order on P, size vertices: a greedy maximal
 * matching of the disjointness graph (fewest partners first, ties by
 * index), length-3 augmentation sweeps over the free vertices ascending;
 * pairs by lower vertex, then singletons.  Each phase walks the set bits
 * of P, of free or of P & cadj[u] word by word (x &= x - 1). */
static void pair_color(search *s, const u64 *P, int size, int64_t kmin)
{
    int W = s->W, n = 0, v, npairs = 0, nfree = 0;
    const u64 *cadj = s->cadj;
    size_t base = s->order.len;
    if (size <= kmin) return;
    int64_t need = size - kmin;
    memcpy(s->untaken, P, W * sizeof(u64));
    memset(s->free, 0, W * sizeof(u64));
    memset(s->hist, 0, (size + 1) * sizeof(int32_t));
    for (int w = 0; w < W; w++)
        for (u64 x = P[w]; x; x &= x - 1) {
            v = w * 64 + __builtin_ctzll(x);
            const u64 *c = cadj + (size_t)v * W;
            int k = 0;
            for (int j = 0; j < W; j++) k += popc(c[j] & P[j]);
            s->vs[n++] = v;
            s->cnt[v] = k;
            s->mate[v] = -1;
            s->hist[k + 1]++;
        }
    /* counting sort by partner count, stable, so ties stay ascending */
    for (int k = 1; k <= size; k++) s->hist[k] += s->hist[k - 1];
    for (int i = 0; i < n; i++) s->sorted[s->hist[s->cnt[s->vs[i]]]++] = s->vs[i];
    /* v takes the lowest untaken vertex it misses: no cadj row holds its
     * own vertex (run() clears it), so v needs no skip */
    for (int i = 0; i < n; i++) {
        v = s->sorted[i];
        if (!(s->untaken[v >> 6] & BIT(v))) continue;
        s->untaken[v >> 6] &= ~BIT(v);
        int w = lowest_and(cadj + (size_t)v * W, s->untaken, W);
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
    for (int w = 0; w < W; w++)
        for (u64 x = s->free[w]; x; x &= x - 1) s->fl[nfree++] = w * 64 + __builtin_ctzll(x);
    for (int changed = 1; changed && nfree > 1;) {
        changed = 0;
        for (int i = 0; i < nfree; i++) {
            int u = s->fl[i];
            if (!(s->free[u >> 6] & BIT(u))) continue;
            /* u leaves free while its sweep runs, so that no mate takes it.
             * The matching is maximal, so each a that u misses is matched:
             * a takes u, and a's mate takes the lowest free vertex it misses */
            s->free[u >> 6] &= ~BIT(u);
            const u64 *cu = cadj + (size_t)u * W;
            for (int j = 0; j < W; j++)
                for (u64 x = cu[j] & P[j]; x; x &= x - 1) {
                    int a = j * 64 + __builtin_ctzll(x), bp = s->mate[a];
                    int w = lowest_and(cadj + (size_t)bp * W, s->free, W);
                    if (w >= 0) {
                        s->mate[u] = a;
                        s->mate[a] = u;
                        s->mate[bp] = w;
                        s->mate[w] = bp;
                        s->free[w >> 6] &= ~BIT(w);
                        npairs++;
                        changed = 1;
                        goto matched;
                    }
                }
            s->free[u >> 6] |= BIT(u);
        matched:;
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
        L->idx = classes(s, P, size, kmin, 0) ? size : 0;
        return 0;
    }
    L->c0 = (kmin > 0 ? kmin : 0) + 1;
    if (reserve(&s->order, size) || reserve(&s->starts, size)) return -1;
    if (s->mode == NONTRIVIAL) {
        /* with a common vertex left every extension of R from P keeps one */
        u64 c[VW];
        memcpy(c, S, sizeof c);
        for (int j = 0; j < W && !zero(c, VW); j++)
            for (u64 x = P[j]; x && !zero(c, VW); x &= x - 1) {
                const u64 *e = s->bits + (size_t)(j * 64 + __builtin_ctzll(x)) * VW;
                for (int w = 0; w < VW; w++) c[w] &= e[w];
            }
        if (!zero(c, VW)) size = 0;
    }
    if (size && s->dense) pair_color(s, P, size, kmin);
    else if (size) classes(s, P, size, kmin, 1);
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

/* GENERIC: whether R, r edges with state S, passes the pair-coverage bound
 * (see the header): can the I = (t - r) k incidences of its missing edges
 * cover the r (t - r) + C(t - r, 2) pairs those edges make?  Among the I,
 * x steps 1 -> 2 cover a pair each and y steps 2 -> 3 two, with y <=
 * floor(zeta) - |d3|, y <= n2 + x and x <= n1 + z, z = I - x - y steps
 * 0 -> 1, n1 and n2 R's vertices of degree exactly 1 and 2.  For a given y
 * the largest x is min(I - y, (n1 + I - y) / 2), and x + 2y then grows with
 * y, so the most is at the largest y that fits: min(floor(zeta) - |d3|, I,
 * (I + n2) / 2, (n1 + 2 n2 + I) / 3).  O(1), not a loop over y. */
static inline int covers(const search *s, const u64 *S, int64_t r)
{
    const u64 *d1 = S, *d2 = S + VW, *d3 = S + 2 * VW;
    int64_t n1 = 0, n2 = 0, y = s->zfloor, left = s->target - r, I = left * s->k;
    for (int w = 0; w < VW; w++) {
        if (!d1[w]) continue;           /* d1 holds d2 and d3 */
        n1 += popc(d1[w] & ~d2[w]);
        n2 += popc(d2[w] & ~d3[w]);
        y -= popc(d3[w]);
    }
    if (y < 0) return 0;
    if (y > I) y = I;
    if (y > (I + n2) / 2) y = (I + n2) / 2;
    if (y > (n1 + 2 * n2 + I) / 3) y = (n1 + 2 * n2 + I) / 3;
    int64_t x = I - y < (n1 + I - y) / 2 ? I - y : (n1 + I - y) / 2;
    return x + 2 * y >= r * left + left * (left - 1) / 2;
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
 * its child is skipped, as an infeasible one is, when it fails covers() or
 * r + 1 + |P_child| <= best (the twin's branch_and_bound cut when narrow is
 * given). */
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
            if (!covers(s, St + (size_t)(r + 1) * SW, r + 1)) continue;
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
 * adjacent.  At a constant W <= CW a row is ORed in locals, then stored */
static inline __attribute__((always_inline)) void
star_rows(int m, const u64 *bits, const u64 *star, u64 *adj, const int W)
{
    for (int i = 0; i < m; i++) {
        const u64 *e = bits + (size_t)i * VW;
        u64 row[CW], *a = W <= CW ? row : adj + (size_t)i * W;
        for (int j = 0; j < W; j++) a[j] = 0;
        for (int w = 0; w < VW; w++)
            for (u64 x = e[w]; x; x &= x - 1) {
                const u64 *st = star + (size_t)(w * 64 + __builtin_ctzll(x)) * W;
                for (int j = 0; j < W; j++) a[j] |= st[j];
            }
        if (W <= CW)
            for (int j = 0; j < W; j++) adj[(size_t)i * W + j] = a[j];
        adj[(size_t)i * W + (i >> 6)] &= ~BIT(i);
    }
}

/* star_rows(), with W a constant for W = 1..CW */
static void adjacency(int m, int W, const u64 *bits, const u64 *star, u64 *adj)
{
    switch (W) {
    case 1: star_rows(m, bits, star, adj, 1); break;
    case 2: star_rows(m, bits, star, adj, 2); break;
    case 3: star_rows(m, bits, star, adj, 3); break;
    case 4: star_rows(m, bits, star, adj, 4); break;
    default: star_rows(m, bits, star, adj, W);
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
    memset(St, mode == NONTRIVIAL ? 0xff : 0, SW * sizeof(u64));
    if (mode == GENERIC) {
        s.target = target;
        s.zfloor = zeta < 0 ? -1 : zeta > 256 ? 256 : (int)zeta;
        s.k = 64 * VW;
        for (int v = 0; v < m; v++) {
            int size = popcount(g->bits + (size_t)v * VW, VW);
            if (size < s.k) s.k = size;
        }
    }
    /* a root that fails the pair-coverage bound has no candidates.  Its
     * children would each fail it too (a child's steps, with its edge's,
     * are the parent's), so this only spares their m tests */
    if (mode != GENERIC || covers(&s, St, 0))
        for (int v = 0; v < m; v++) Ps[v >> 6] |= BIT(v);
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

/* oracles.distinct_ranks (tests) in place, then sorted: draw[i] = t_j,
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

/* floyd() with the bitmap seen (N bits, all clear) for its set: the same
 * draws, each tested and taken by one bit, then read back ascending by a
 * scan that clears each word it reads and stops at the m-th rank, so seen
 * is clear again on return */
static void floyd_bitmap(int64_t N, int64_t m, int64_t *draw, u64 *seen)
{
    for (int64_t i = 0; i < m; i++) {
        int64_t x = draw[i];
        if (seen[x >> 6] & BIT(x)) x = draw[i] = N - m + i;
        seen[x >> 6] |= BIT(x);
    }
    for (int64_t w = 0, i = 0; i < m; seen[w++] = 0)
        for (u64 x = seen[w]; x; x &= x - 1) draw[i++] = 64 * w + __builtin_ctzll(x);
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

/* g as numpy's Philox(SeedSequence(...)) starts: keyed by generate_state(2,
 * uint64) of the SeedSequence whose assembled entropy is the len >= 4 words
 * ent (a seed's words, padded to 4 as numpy pads them before a spawn key,
 * then the spawn key's) followed by the nt words tail */
static void seed(philox *g, const uint32_t *ent, int64_t len, const uint32_t *tail, int nt)
{
    uint32_t pool[4], h = 0x43b0d7e5;
    memset(g, 0, sizeof *g);
    g->pos = 4;
    for (int i = 0; i < 4; i++) pool[i] = hashmix(ent[i], &h, 0x931e8875);
    for (int i = 0; i < 4; i++)
        for (int j = 0; j < 4; j++)
            if (i != j) pool[j] = mix(pool[j], hashmix(pool[i], &h, 0x931e8875));
    for (int64_t i = 4; i < len + nt; i++)
        for (int j = 0; j < 4; j++)
            pool[j] = mix(pool[j], hashmix(i < len ? ent[i] : tail[i - len], &h, 0x931e8875));
    h = 0x8b51f9dd;
    for (int i = 0; i < 4; i++)
        g->key[i / 2] |= (u64)hashmix(pool[i], &h, 0x58f38ded) << 32 * (i % 2);
}

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

/* The colex column table, or NULL: col[(k - i) n + v] = min(C(v, i), N),
 * N = C(n, k) < 2^63, for 1 <= i <= k and v < n, by the hockey stick
 * C(v, i) = sum of C(u, i - 1) over u < v, each partial sum clipped at N */
static int64_t *columns(int n, int k, int64_t N)
{
    int64_t *col = malloc((size_t)k * n * sizeof *col);
    for (int i = 1; col && i <= k; i++) {
        int64_t *c = col + (size_t)(k - i) * n;
        u64 s = 0;
        for (int v = 0; v < n; v++) {
            c[v] = (int64_t)s;
            s += i == 1 ? 1 : (u64)c[n + v];    /* C(v, i - 1), one row down */
            if (s > (u64)N) s = (u64)N;
        }
    }
    return col;
}

/* The colex unrank of m ascending ranks into words, ew words an edge: the
 * i-th largest member of rank r is the largest v with
 * C(v, i) = col[(k - i) n + v] <= r.  With memo (ew = VW), a rank whose bit
 * is set in have is copied from memo[r], and any other is unranked into
 * memo[r] too and gets its bit. */
static void unrank(int n, int k, const int64_t *col, int64_t m, const int64_t *rank, int ew,
                   u64 *words, u64 *memo, u64 *have)
{
    memset(words, 0, (size_t)m * ew * sizeof(u64));
    /* ranks ascend, and so does the largest member, top (k >= 1, so
     * col[0] = C(0, k) = 0): it climbs from the last edge unranked's */
    for (int64_t e = 0, top = 0; e < m; e++) {
        int64_t r = rank[e];
        u64 *w = words + e * ew;
        if (memo && have[r >> 6] & BIT(r)) {
            memcpy(w, memo + r * VW, VW * sizeof(u64));
            continue;
        }
        while (top + 1 < n && col[top + 1] <= r) top++;
        for (int64_t i = 0, v = top + 1, left = r; i < k; left -= col[i++ * n + v]) {
            do v--; while (col[i * n + v] > left);  /* below the member before */
            w[v >> 6] |= BIT(v);
        }
        if (memo) {
            memcpy(memo + r * VW, w, VW * sizeof(u64));
            have[r >> 6] |= BIT(r);
        }
    }
}

/* m i.i.d. edges into words, ew words an edge, each a partial Fisher-Yates
 * over one pool of [n] kept for the whole draw, step j a bounded draw on
 * [0, n - j - 1], as rng.integers(0, n - j); returns the edges kept.  With
 * col, a repeat, by its colex rank (C(v, i) summed over its i-th smallest
 * members v) in set (2^lg >= 2m + 1 int64s), is overwritten by the next. */
static int64_t draw_edges(bitgen_t *bg, int n, int k, const int64_t *col, int64_t m, int lg,
                          int64_t *set, int ew, u64 *words)
{
    uint8_t pool[VW * 64];
    int64_t kept = 0;
    for (int v = 0; v < n; v++) pool[v] = (uint8_t)v;
    if (col) memset(set, 0xff, sizeof(int64_t) << lg);
    for (int64_t e = 0; e < m; e++) {
        u64 *w = words + kept * ew;
        int64_t r = 0;
        memset(w, 0, ew * sizeof(u64));
        for (int j = 0; j < k; j++) {
            int t = j + (int)random_bounded_uint64(bg, 0, (u64)(n - j - 1), 0, 0);
            uint8_t v = pool[t];
            pool[t] = pool[j], pool[j] = v;
            w[v >> 6] |= BIT(v);
        }
        if (!col) {
            kept++;
            continue;
        }
        for (int x = 0, i = 1; x < ew; x++)
            for (u64 b = w[x]; b; b &= b - 1) r += col[(k - i++) * n + 64 * x + __builtin_ctzll(b)];
        u64 h = slot(set, lg, r);
        if (set[h] < 0) set[h] = r, kept++;
    }
    return kept;
}

/* Floyd's draws and hash set, each grown to the largest draw so far, and
 * an ekr_trials call's rank bitmap (seen) and unrank memo (memo, have),
 * when its gates open them (see the header), else NULL */
typedef struct {
    int64_t *draw, *set, dcap, scap;
    u64 *seen, *memo, *have;
} scratch;

/* One family from g into words, ew words an edge, as the sampler
 * SAMPLER_MODES[sampler] draws it: the ranks r < N whose next_double < p
 * (bernoulli), or m = random_binomial(N, p) and then Floyd's t_j on [0, j],
 * j = N - m .. N - 1 (conditioned: floyd(), or floyd_bitmap() on s->seen),
 * or m edges, deduplicated (independent, draw_edges()); without col, *m
 * independent edges, repeats kept, at any N.  *m becomes the edges drawn,
 * written only when they fit in room edges (unrank() reads s's memo).
 * Returns DONE or OUT_OF_MEMORY. */
static int draw(philox *g, int sampler, int n, int k, const int64_t *col, int64_t N, double p,
                int64_t *m, int64_t room, int ew, u64 *words, scratch *s)
{
    bitgen_t bg = {g, next64, next32, next_double, next64};
    int lg = 1;
    if (sampler == BERNOULLI) {
        *m = 0;
        for (int64_t r = 0; r < N; r++)
            if (next_double(g) < p) {
                if (grow(&s->draw, &s->dcap, *m + 1)) return OUT_OF_MEMORY;
                s->draw[(*m)++] = r;
            }
    } else if (col) {
        binomial_t b = {0};
        *m = random_binomial(&bg, p, N, &b);
        while (((int64_t)1 << lg) < 2 * *m + 1) lg++;
        if (!s->seen && grow(&s->set, &s->scap, (int64_t)1 << lg)) return OUT_OF_MEMORY;
        if (sampler == CONDITIONED) {
            if (grow(&s->draw, &s->dcap, *m)) return OUT_OF_MEMORY;
            for (int64_t i = 0; i < *m; i++)
                s->draw[i] = (int64_t)random_bounded_uint64(&bg, 0, (u64)(N - *m + i), 0, 0);
            if (s->seen) floyd_bitmap(N, *m, s->draw, s->seen);
            else floyd(N, *m, s->draw, lg, s->set);
        }
    }
    if (*m > room) return DONE;
    if (sampler == INDEPENDENT) *m = draw_edges(&bg, n, k, col, *m, lg, s->set, ew, words);
    else unrank(n, k, col, *m, s->draw, ew, words, s->memo, s->have);
    return DONE;
}

/* decide() on the m edges in words, whose Delta, omega and clique size go
 * to result[0..2] and whose clique follows the words.  *block, grown to
 * fit, takes the graph and, within the edge cap only, the clique. */
static int trial(int n, int64_t m, int dense, int64_t edge_cap, int64_t budget, u64 *words,
                 int64_t *result, int64_t **block, int64_t *bcap)
{
    size_t gw = graph_words(m, n, m <= edge_cap);
    if (grow(block, bcap, gw + (m <= edge_cap ? (m + 2) / 2 : 0))) return OUT_OF_MEMORY;
    int32_t *clique = (int32_t *)((u64 *)*block + gw);
    graph g = stars((int)m, n, words, (u64 *)*block);
    int64_t res[4];
    int status = decide(&g, dense, edge_cap, budget, clique, res);
    memcpy(result, res, 3 * sizeof *res);
    for (int64_t j = 0; j < res[2]; j++) words[VW * m + j] = (u64)clique[j];
    return status;
}

/* Trials [lo, hi) of montecarlo.run_one_trial on k-sets of [n], N = C(n, k)
 * < 2^63, each drawn by draw() on the stream of SeedSequence(seed,
 * spawn_key=(*stream, t)): seed() on ent, the words of (seed, stream),
 * then t's.  Row t - lo takes the distinct edges' m, trial()'s result (Delta,
 * omega, the failing clique's size) and status.  The words go into out (cap
 * words), where a failing trial's words and clique stay (any trial's with
 * keep_all).  Returns the trials done, fewer when the next one's m draws
 * may not fit (its row then holds that m), or -OUT_OF_MEMORY.  The column
 * table, draw()'s scratch and trial()'s block are the call's own, grown to
 * the largest trial so far and freed on return, as are the rank bitmap and
 * unrank memo when their gates (see the header) open. */
int64_t ekr_trials(const uint32_t *ent, int64_t len, int64_t lo, int64_t hi, int n, int k,
                   int64_t N, double p, int sampler, int dense, int64_t edge_cap, int64_t budget,
                   int keep_all, int64_t *rows, u64 *out, int64_t cap)
{
    philox g;
    scratch s = {0};
    int64_t t = lo, used = 0, bcap = 0, *block = NULL, *col = columns(n, k, N);
    size_t bitmap = ((size_t)N + 63) / 64;
    int memo = N <= SMALL_N && sampler != INDEPENDENT && (double)(hi - lo) * p >= 1;
    int seen = N <= SMALL_N && sampler == CONDITIONED && 64 * p >= 1;
    if (memo) s.memo = malloc((size_t)N * VW * sizeof(u64)), s.have = calloc(bitmap, sizeof(u64));
    if (seen) s.seen = calloc(bitmap, sizeof(u64));
    int status = col && (!memo || (s.memo && s.have)) && (!seen || s.seen) ? DONE : OUT_OF_MEMORY;
    for (; t < hi && status != OUT_OF_MEMORY; t++) {
        int64_t m = -1, *row = rows + (t - lo) * 5, room = (cap - used) / (VW + 1);
        uint32_t tw[2] = {(uint32_t)t, (uint32_t)(t >> 32)};
        seed(&g, ent, len, tw, 1 + (t >> 32 != 0));
        status = draw(&g, sampler, n, k, col, N, p, &m, room, VW, out + used, &s);
        row[0] = m;
        if (status || m > room) break;
        status = row[4] = trial(n, m, dense, edge_cap, budget, out + used, row + 1, &block, &bcap);
        if (keep_all || row[3] >= 0) used += VW * m + (row[3] > 0 ? row[3] : 0);
    }
    free(col);
    free(s.draw);
    free(s.set);
    free(s.seen);
    free(s.memo);
    free(s.have);
    free(block);
    return status == OUT_OF_MEMORY ? -OUT_OF_MEMORY : t - lo;
}

/* One family, draw() on the stream of the SeedSequence whose words are ent
 * (no trial index), into out, ceil(n / 64) words an edge: the public
 * samplers' draw.  m >= 0 independent edges need no column table and no
 * N < 2^63.  Returns the edges drawn, written only when they fit in cap
 * words, or -OUT_OF_MEMORY. */
int64_t ekr_draw(const uint32_t *ent, int64_t len, int n, int k, int64_t N, double p,
                 int sampler, int64_t m, u64 *out, int64_t cap)
{
    philox g;
    scratch s = {0};
    int ew = (n + 63) / 64, given = sampler == INDEPENDENT && m >= 0, status = OUT_OF_MEMORY;
    int64_t *col = given ? NULL : columns(n, k, N);
    seed(&g, ent, len, NULL, 0);
    if (given || col) status = draw(&g, sampler, n, k, col, N, p, &m, cap / ew, ew, out, &s);
    free(col);
    free(s.draw);
    free(s.set);
    return status ? -OUT_OF_MEMORY : m;
}
