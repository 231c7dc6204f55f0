/* Fused min-sum BP iterations over a CSR Tanner graph (``native`` backend).
 *
 * C port of the multi-iteration fusion API driven by
 * repro.decoders.bp.MinSumBP._decode_chunk_fused.  Built by
 * repro/decoders/kernels/native.py with
 *     cc -O2 -fPIC -shared -ffp-contract=off -pthread
 * (no -ffast-math, no -march=native) and loaded through cffi's ABI mode.
 *
 * Lanes.  Rows are independent BP instances, so the kernel advances
 * LANES = 4 of them at once with GCC vector extensions: row r lives in
 * lane r % 4 of block r / 4, and the message state is laid out
 * (blocks, n_edges, 4).  float lanes fill one 16-byte vector, double
 * lanes two (run one after the other), so every operation is a plain
 * SSE2 instruction at the default -O2 and no -march.  A partly filled
 * block (a one-row batch, a chunk's tail) runs the same code; its
 * padding lanes compute on stale or zero data and are never read.  The
 * block keeps its own marginals, hard decisions and flip counts; each
 * row is copied out to the row-major outputs (``marg``, ``hard``,
 * ``flips``) once per call: at the iteration its stop group froze, or
 * at the end of the call.  A frozen lane goes on computing until its
 * block has no live lane left, but is never copied out again.
 *
 * Threads.  One bp_run call may spread its blocks over up to
 * ``threads`` POSIX threads, started inside the call and joined before
 * it returns (no pool, no barrier).  A call that runs one iteration
 * hands out single blocks -- rows of one stop group are independent
 * within an iteration, and the group freeze is resolved after the join;
 * a longer call hands out runs of blocks closed over stop groups (a
 * block that straddles two groups joins them into one unit), so a
 * group's freeze stays on one thread.  Units are claimed through an
 * atomic cursor.  Each lane's arithmetic is the same in any lane, block
 * or thread, so results never depend on the thread count, the chunk
 * size or a row's neighbours.
 *
 * Every float result is bit-identical to the numpy ``fused`` kernel:
 * arithmetic stays in the working dtype, min/max/xor and compare+select
 * are exact (the two smallest magnitudes come from a branch-free
 * min/max recurrence), signs come from ``x < 0`` compares (so -0.0
 * counts as non-negative, as in numpy), and the one order-sensitive
 * reduction -- the per-variable sum of check messages -- reproduces
 * numpy's ``add.reduceat`` exactly: s = a0 + pairwise(a1 .. a_{n-1}),
 * with numpy's pairwise summation, lane by lane.
 */
#ifdef __linux__
#define _GNU_SOURCE          /* sched_getcpu, pthread_attr_setaffinity_np */
#include <sched.h>
#endif
#include <math.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>           /* _mm_min_ps and friends (PICK_LT_*) */
#endif

/* BEGIN ABI -- native.py hands this block to cffi as its cdef. */
typedef struct {
    int64_t n_checks;        /* non-empty checks                        */
    int64_t n_vars;          /* all variables                           */
    int64_t n_active;        /* variables with at least one edge        */
    int64_t n_edges;
    const int64_t *chk_ptr;  /* n_checks + 1: check-sorted edge bounds  */
    const int64_t *edge_var; /* n_edges: variable of each edge          */
    const int64_t *var_ptr;  /* n_active + 1: var-sorted edge bounds    */
    const int64_t *var_ids;  /* n_active: variable of each var segment  */
    const int64_t *var_pos;  /* n_edges: var-sorted slot of each edge   */
    const int64_t *var_edge; /* n_edges: edge of each var-sorted slot   */
} bp_graph;

/* Per-chunk state, rows [0, m) live in blocks [0, ceil(m / 4)).  Float
 * buffers hold float or double; "mask" buffers int32 or int64 of the
 * same width (0 or -1 per lane).  Lane buffers are 16-byte aligned.
 * The row-major inputs (prior_rows, synd_rows) are read only by a run
 * that starts at iteration 0, which lays them out in lanes. */
typedef struct {
    const void *prior_rows;  /* 1 x n_vars (shared) or cap x n_vars      */
    int64_t prior_stride;    /* 0 (shared) or n_vars                     */
    const uint8_t *synd_rows;/* cap x n_checks (non-empty checks)        */
    void *prior;             /* blocks x n_vars x 4                      */
    void *synd;              /* blocks x n_checks x 4 syndrome masks     */
    void *v2c;               /* blocks x n_edges x 4, check-sorted       */
    void *lane_marg;         /* blocks x n_vars x 4                      */
    void *lane_hard;         /* blocks x n_vars x 4 masks                */
    void *lane_flips;        /* blocks x n_vars x 4 counts (mask width)  */
    void *scratch;           /* threads x n_edges x 4: var-sorted c2v of */
                             /* one block, one slice per thread          */
    void *alphas;            /* alphas[i]: damping of iteration i + 1    */
    void *marg;              /* cap x n_vars, published marginals        */
    uint8_t *hard;           /* cap x n_vars, published hard decisions   */
    int32_t *flips;          /* cap x n_vars, or NULL when untracked     */
    uint8_t *feasible;       /* cap: no syndrome bit on an empty check   */
    int64_t *groups;         /* cap stop-group ids, or NULL (singletons) */
    uint8_t *conv;           /* cap: converged during the last run       */
    uint8_t *frozen;         /* cap: group stopped during the last run   */
    int64_t *stop_rel;       /* cap: iterations run during the last run  */
} bp_state;

const char *bp_compiler(void);
int64_t bp_lanes(void);
void bp_compact(const bp_graph *g, const bp_state *s, int64_t m,
                const uint8_t *keep, int64_t float_bytes);
void bp_run_f32(const bp_graph *g, const bp_state *s, int64_t m,
                int64_t it0, int64_t n_iter, double clamp, int64_t threads);
void bp_run_f64(const bp_graph *g, const bp_state *s, int64_t m,
                int64_t it0, int64_t n_iter, double clamp, int64_t threads);
void bp_segment_sums_f32(const float *a, const int64_t *ptr,
                         int64_t n_seg, float *out);
void bp_segment_sums_f64(const double *a, const int64_t *ptr,
                         int64_t n_seg, double *out);
/* END ABI */

#define LANES 4

typedef float f32_lanes __attribute__((vector_size(16)));
typedef int32_t i32_lanes __attribute__((vector_size(16)));
/* Two lanes per double vector: GCC lowers 32-byte vector compares to
 * scalar code without AVX, so a block's double lanes are two of these. */
typedef double f64_lanes __attribute__((vector_size(16)));
typedef int64_t i64_lanes __attribute__((vector_size(16)));

const char *bp_compiler(void)
{
#if defined(__clang__)
    return "clang " __VERSION__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown compiler";
#endif
}

int64_t bp_lanes(void)
{
    return LANES;
}

/* Compact rows: row r moves to the next free slot when keep[r]. */
static void compact_rows(void *buf, int64_t row_bytes, int64_t m,
                         const uint8_t *keep)
{
    char *base = (char *)buf;
    int64_t dst = 0;
    for (int64_t r = 0; r < m; r++) {
        if (!keep[r])
            continue;
        if (dst != r)
            memcpy(base + dst * row_bytes, base + r * row_bytes, row_bytes);
        dst++;
    }
}

/* Compact lanes of a blocks x n x 4 buffer of U: lane r moves to the
 * next free lane when keep[r]. */
#define DEFINE_COMPACT_LANES(U)                                              \
static void compact_lanes_##U(U *buf, int64_t n, int64_t m,                 \
                              const uint8_t *keep)                           \
{                                                                            \
    int64_t dst = 0;                                                         \
    for (int64_t r = 0; r < m; r++) {                                        \
        if (!keep[r])                                                        \
            continue;                                                        \
        if (dst != r) {                                                      \
            U *to = buf + dst / LANES * n * LANES + dst % LANES;             \
            const U *from = buf + r / LANES * n * LANES + r % LANES;         \
            for (int64_t i = 0; i < n * LANES; i += LANES)                   \
                to[i] = from[i];                                             \
        }                                                                    \
        dst++;                                                               \
    }                                                                        \
}
DEFINE_COMPACT_LANES(uint32_t)
DEFINE_COMPACT_LANES(uint64_t)

static void compact_lanes(void *buf, int64_t n, int64_t m,
                          const uint8_t *keep, int64_t bytes)
{
    if (bytes == 4)
        compact_lanes_uint32_t(buf, n, m, keep);
    else
        compact_lanes_uint64_t(buf, n, m, keep);
}

void bp_compact(const bp_graph *g, const bp_state *s, int64_t m,
                const uint8_t *keep, int64_t float_bytes)
{
    int64_t fb = float_bytes;
    compact_lanes(s->v2c, g->n_edges, m, keep, fb);
    compact_lanes(s->lane_hard, g->n_vars, m, keep, fb);
    compact_lanes(s->synd, g->n_checks, m, keep, fb);
    compact_lanes(s->prior, g->n_vars, m, keep, fb);
    if (s->flips) {
        compact_lanes(s->lane_flips, g->n_vars, m, keep, fb);
        compact_rows(s->flips, g->n_vars * 4, m, keep);
    }
    compact_rows(s->marg, g->n_vars * fb, m, keep);
    compact_rows(s->hard, g->n_vars, m, keep);
    compact_rows(s->feasible, 1, m, keep);
    if (s->groups)
        compact_rows(s->groups, 8, m, keep);
}

/* A call below this many row edge-iterations (rows x n_edges x n_iter)
 * stays on the calling thread: starting and joining a thread (~0.1 ms)
 * costs more than it saves.  On a 2-vCPU host one-iteration calls
 * broke even at 60k-100k (a 256-row coprime-154 call, 118k, ran
 * ~1.15x faster on two threads).  A constant, not a tuning knob. */
#define MIN_THREADED_WORK 100000

/* One bp_run call: the work queue its threads share. */
typedef struct {
    const bp_graph *g;
    const bp_state *s;
    int64_t m, it0, n_iter;
    double clamp;
    int per_block;           /* units are blocks (else stop-group runs)  */
    _Atomic int64_t next;    /* first unclaimed block                    */
} bp_job;

/* Claim the next unit: one block, or the run of blocks starting at the
 * cursor that no stop group crosses.  Returns 0 when the queue is
 * empty. */
static int claim(bp_job *j, int64_t *lo, int64_t *hi)
{
    const int64_t *groups = j->per_block ? NULL : j->s->groups;
    int64_t blocks = (j->m + LANES - 1) / LANES;
    int64_t a = atomic_load(&j->next);
    for (;;) {
        if (a >= blocks)
            return 0;
        int64_t b = a + 1;
        if (groups)
            while (b < blocks
                   && groups[b * LANES - 1] == groups[b * LANES])
                b++;
        if (atomic_compare_exchange_weak(&j->next, &a, b)) {
            *lo = a;
            *hi = b;
            return 1;
        }
    }
}

typedef struct {
    bp_job *job;
    int64_t slot;            /* this thread's scratch slice              */
} bp_worker;

/* Thread attributes that start a thread on another CPU than the
 * caller's.  Linux places a new thread on its creator's CPU, where it
 * waits for the load balancer (1-2 ms on a small VM) while the creator
 * computes; started elsewhere it runs within ~0.1 ms.  Returns NULL (the
 * default attributes) when there is no other CPU or no way to ask. */
static pthread_attr_t *away_from_caller(pthread_attr_t *attr)
{
#ifdef __linux__
    cpu_set_t set;
    int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof set, &set) != 0)
        return NULL;
    CPU_CLR(cpu, &set);
    if (CPU_COUNT(&set) == 0 || pthread_attr_init(attr) != 0)
        return NULL;
    if (pthread_attr_setaffinity_np(attr, sizeof set, &set) == 0)
        return attr;
    pthread_attr_destroy(attr);
#else
    (void)attr;
#endif
    return NULL;
}

/* Run iterations it0+1 .. it0+n_iter over every live row on up to
 * ``threads`` threads (the caller's included); ``work`` drains the
 * job's queue.  Stop groups freeze at their first success; singleton
 * groups when s->groups is NULL.  If a thread cannot be started, the
 * threads that did start take its share. */
static void run_job(bp_job *j, void *(*work)(void *), int64_t threads)
{
    const bp_state *s = j->s;
    int64_t m = j->m;
    int64_t blocks = (m + LANES - 1) / LANES;
    if (threads > blocks)
        threads = blocks;
    if (m * j->g->n_edges * j->n_iter < MIN_THREADED_WORK || threads < 1)
        threads = 1;
    bp_worker workers[threads];
    pthread_t tids[threads];
    pthread_attr_t attr_buf, *attr = NULL;
    int64_t started = 0;
    for (int64_t t = 0; t < threads; t++)
        workers[t] = (bp_worker){j, t};
    if (threads > 1)
        attr = away_from_caller(&attr_buf);
    for (int64_t t = 1; t < threads; t++) {
        if (pthread_create(&tids[started], attr, work, &workers[t]) != 0)
            break;
        started++;
    }
    if (attr)
        pthread_attr_destroy(attr);
    work(&workers[0]);
    for (int64_t t = 0; t < started; t++)
        pthread_join(tids[t], NULL);
    if (j->per_block && s->groups) {
        /* One iteration ran on every row: a group stops when any of its
         * rows converged. */
        int64_t lo = 0;
        while (lo < m) {
            int64_t hi = lo + 1;
            uint8_t stopped = s->conv[lo];
            while (hi < m && s->groups[hi] == s->groups[lo])
                stopped |= s->conv[hi++];
            for (int64_t r = lo; r < hi; r++)
                s->frozen[r] = stopped;
            lo = hi;
        }
    }
}

/* Where mask: a, else b (exact: a bitwise select of vectors of type VT
 * with an integer vector mask of type IT). */
#define SELECT(VT, IT, mask, a, b) \
    ((VT)(((IT)(a) & (mask)) | ((IT)(b) & ~(mask))))

/* x < y ? x : y and x > y ? x : y, lane by lane.  SSE2's min/max
 * instructions are exactly these (NaN in either operand yields y); GCC
 * does not find them in the generic select, which costs ~30%. */
#ifdef __SSE2__
#define PICK_LT_f32(x, y) ((f32_lanes)_mm_min_ps((__m128)(x), (__m128)(y)))
#define PICK_GT_f32(x, y) ((f32_lanes)_mm_max_ps((__m128)(x), (__m128)(y)))
#define PICK_LT_f64(x, y) ((f64_lanes)_mm_min_pd((__m128d)(x), (__m128d)(y)))
#define PICK_GT_f64(x, y) ((f64_lanes)_mm_max_pd((__m128d)(x), (__m128d)(y)))
#else
#define PICK_LT_f32(x, y) SELECT(f32_lanes, i32_lanes, (x) < (y), x, y)
#define PICK_GT_f32(x, y) SELECT(f32_lanes, i32_lanes, (x) > (y), x, y)
#define PICK_LT_f64(x, y) SELECT(f64_lanes, i64_lanes, (x) < (y), x, y)
#define PICK_GT_f64(x, y) SELECT(f64_lanes, i64_lanes, (x) > (y), x, y)
#endif

/* The kernel for float type T, vector type VT (16 bytes, so NV = 1 or 2
 * of them hold a block's four lanes of one edge or variable), mask
 * vector type IT and its scalar type IS.  A block's lanes of item i are
 * the NV vectors at i * NV; "half" h (0 <= h < NV) is the vector at
 * i * NV + h, and each function below runs one half at a time.  The
 * scalar element (i, l) sits at i * LANES + l whatever NV is. */
#define DEFINE_KERNEL(T, SUFFIX, VT, IT, IS, NV)                             \
                                                                             \
/* numpy's pairwise summation (pairwise_sum in loops_utils.h.src) of     */ \
/* a[0], a[NV], .., a[(n - 1) * NV], lane by lane; the sum goes to *out. */ \
static void pairwise_##SUFFIX(const VT *a, int64_t n, VT *out)               \
{                                                                            \
    if (n < 8) {                                                             \
        VT res = -(VT){0};  /* -0.0 in every lane */                         \
        for (int64_t i = 0; i < n; i++)                                      \
            res += a[i * NV];                                                \
        *out = res;                                                          \
    } else if (n <= 128) {                                                   \
        VT r[8], res;                                                        \
        int64_t i;                                                           \
        for (int k = 0; k < 8; k++)                                          \
            r[k] = a[k * NV];                                                \
        for (i = 8; i < n - (n % 8); i += 8)                                 \
            for (int k = 0; k < 8; k++)                                      \
                r[k] += a[(i + k) * NV];                                     \
        res = ((r[0] + r[1]) + (r[2] + r[3]))                                \
            + ((r[4] + r[5]) + (r[6] + r[7]));                               \
        for (; i < n; i++)                                                   \
            res += a[i * NV];                                                \
        *out = res;                                                          \
    } else {                                                                 \
        int64_t n2 = n / 2;                                                  \
        VT rest;                                                             \
        n2 -= n2 % 8;                                                        \
        pairwise_##SUFFIX(a, n2, out);                                       \
        pairwise_##SUFFIX(a + n2 * NV, n - n2, &rest);                       \
        *out += rest;                                                        \
    }                                                                        \
}                                                                            \
                                                                             \
/* add.reduceat over one segment: the first element, then the rest. */     \
/* (The short case of pairwise is repeated inline: most segments are.) */  \
static inline void segment_sum_##SUFFIX(const VT *a, int64_t n, VT *out)    \
{                                                                            \
    if (n == 1) {                                                            \
        *out = a[0];                                                         \
    } else if (n <= 8) {                                                     \
        VT rest = -(VT){0};                                                  \
        for (int64_t i = 1; i < n; i++)                                      \
            rest += a[i * NV];                                               \
        *out = a[0] + rest;                                                  \
    } else {                                                                 \
        pairwise_##SUFFIX(a + NV, n - 1, out);                               \
        *out = a[0] + *out;                                                  \
    }                                                                        \
}                                                                            \
                                                                             \
/* Segment sums of four lanes: a is (ptr[n_seg], 4), out (n_seg, 4).   */   \
/* Exposed so the tests can pin the order against numpy.               */   \
void bp_segment_sums_##SUFFIX(const T *a, const int64_t *ptr,               \
                              int64_t n_seg, T *out)                         \
{                                                                            \
    for (int64_t i = 0; i < n_seg; i++)                                      \
        for (int h = 0; h < NV; h++)                                         \
            segment_sum_##SUFFIX((const VT *)a + ptr[i] * NV + h,            \
                                 ptr[i + 1] - ptr[i],                        \
                                 (VT *)out + i * NV + h);                    \
}                                                                            \
                                                                             \
/* One BP iteration of half h of block b.  Check update (paper Eq. 6)   */  \
/* with a branch-free two-smallest recurrence that counts a repeated    */  \
/* minimum twice, written straight into var-sorted order; then          */  \
/* marginals (Eq. 7), next v2c (Eq. 5), hard decisions and, when        */  \
/* count_flips, flip counts.                                            */  \
static void iterate_half_##SUFFIX(const bp_graph *g, const bp_state *s,     \
                                  int64_t b, int h, VT *cv, T alpha,         \
                                  T clamp, int count_flips)                  \
{                                                                            \
    VT *v2c = (VT *)s->v2c + b * g->n_edges * NV + h;                        \
    VT *marg = (VT *)s->lane_marg + b * g->n_vars * NV + h;                  \
    IT *hard = (IT *)s->lane_hard + b * g->n_vars * NV + h;                  \
    IT *flips = (IT *)s->lane_flips + b * g->n_vars * NV + h;                \
    const VT *prior = (const VT *)s->prior + b * g->n_vars * NV + h;         \
    const IT *synd = (const IT *)s->synd + b * g->n_checks * NV + h;         \
    const IT sign = (IT){0} + ((IS)1 << (8 * sizeof(IS) - 1));               \
    const VT inf = (VT){0} + (T)INFINITY;                                    \
    const VT vclamp = (VT){0} + clamp, vnclamp = -vclamp;                    \
    for (int64_t c = 0; c < g->n_checks; c++) {                              \
        int64_t lo = g->chk_ptr[c], hi = g->chk_ptr[c + 1];                  \
        VT min1 = inf, min2 = inf;                                           \
        IT par = synd[c * NV];                                               \
        for (int64_t e = lo; e < hi; e++) {                                  \
            VT x = v2c[e * NV];                                              \
            VT a = (VT)((IT)x & ~sign);                                      \
            par ^= x < 0;                                                    \
            min2 = PICK_LT_##SUFFIX(PICK_GT_##SUFFIX(a, min1), min2);        \
            min1 = PICK_LT_##SUFFIX(a, min1);                                \
        }                                                                    \
        VT m1 = PICK_LT_##SUFFIX(min1, vclamp) * alpha;                      \
        VT m2 = PICK_LT_##SUFFIX(min2, vclamp) * alpha;                      \
        for (int64_t e = lo; e < hi; e++) {                                  \
            VT x = v2c[e * NV];                                              \
            VT a = (VT)((IT)x & ~sign);                                      \
            VT mag = SELECT(VT, IT, a == min1, m2, m1);                      \
            cv[g->var_pos[e] * NV] =                                         \
                (VT)((IT)mag ^ ((par ^ (x < 0)) & sign));                    \
        }                                                                    \
    }                                                                        \
    if (g->n_active != g->n_vars)                                            \
        for (int64_t v = 0; v < g->n_vars; v++)                              \
            marg[v * NV] = prior[v * NV] + (T)0.0;                           \
    for (int64_t i = 0; i < g->n_active; i++) {                              \
        int64_t lo = g->var_ptr[i], hi = g->var_ptr[i + 1];                  \
        int64_t v = g->var_ids[i];                                           \
        VT mv;                                                               \
        segment_sum_##SUFFIX(cv + lo * NV, hi - lo, &mv);                    \
        mv = prior[v * NV] + mv;                                             \
        marg[v * NV] = mv;                                                   \
        for (int64_t j = lo; j < hi; j++) {                                  \
            /* t > clamp ? clamp : t < -clamp ? -clamp : t */                \
            VT t = mv - cv[j * NV];                                          \
            v2c[g->var_edge[j] * NV] =                                       \
                PICK_LT_##SUFFIX(vclamp, PICK_GT_##SUFFIX(vnclamp, t));      \
        }                                                                    \
    }                                                                        \
    for (int64_t v = 0; v < g->n_vars; v++) {                                \
        IT hv = marg[v * NV] <= 0;                                           \
        if (count_flips)                                                     \
            flips[v * NV] += (hv ^ hard[v * NV]) & 1;                        \
        hard[v * NV] = hv;                                                   \
    }                                                                        \
}                                                                            \
                                                                             \
/* Clear the lanes of *open (a mask over half h of block b) that fail   */  \
/* the edge-domain parity check H @ hard == synd (mod 2).  Stops once   */  \
/* no lane is left open.                                                */  \
static void converged_half_##SUFFIX(const bp_graph *g, const bp_state *s,   \
                                    int64_t b, int h, IT *open)              \
{                                                                            \
    const IT *hard = (const IT *)s->lane_hard + b * g->n_vars * NV + h;      \
    const IT *synd = (const IT *)s->synd + b * g->n_checks * NV + h;         \
    IT ok = *open;                                                           \
    for (int64_t c = 0; c < g->n_checks; c++) {                              \
        IT p = synd[c * NV];                                                 \
        for (int64_t e = g->chk_ptr[c]; e < g->chk_ptr[c + 1]; e++)          \
            p ^= hard[g->edge_var[e] * NV];                                  \
        ok &= ~p;                                                            \
        IS any = 0;                                                          \
        for (int l = 0; l < LANES / NV; l++)                                 \
            any |= ok[l];                                                    \
        if (!any)                                                            \
            break;                                                           \
    }                                                                        \
    *open = ok;                                                              \
}                                                                            \
                                                                             \
/* Lay out the inputs of block b for a run from iteration 0: its rows' */   \
/* priors and syndrome masks in lanes (zero in padding lanes), zero flip */ \
/* counts, and the initial messages v2c = prior.                         */ \
static void start_block_##SUFFIX(const bp_graph *g, const bp_state *s,      \
                                 int64_t b, int64_t m)                       \
{                                                                            \
    int64_t n = g->n_vars, nc = g->n_checks;                                 \
    T *prior = (T *)s->prior + b * n * LANES;                                \
    IS *synd = (IS *)s->synd + b * nc * LANES;                               \
    for (int l = 0; l < LANES; l++) {                                        \
        int64_t r = b * LANES + l;                                           \
        if (r < m) {                                                         \
            const T *row = (const T *)s->prior_rows + r * s->prior_stride;   \
            const uint8_t *bits = s->synd_rows + r * nc;                     \
            for (int64_t v = 0; v < n; v++)                                  \
                prior[v * LANES + l] = row[v];                               \
            for (int64_t c = 0; c < nc; c++)                                 \
                synd[c * LANES + l] = -(IS)bits[c];                          \
        } else {                                                             \
            for (int64_t v = 0; v < n; v++)                                  \
                prior[v * LANES + l] = 0;                                    \
            for (int64_t c = 0; c < nc; c++)                                 \
                synd[c * LANES + l] = 0;                                     \
        }                                                                    \
    }                                                                        \
    if (s->flips)                                                            \
        memset((IS *)s->lane_flips + b * n * LANES, 0,                       \
               n * LANES * sizeof(IS));                                      \
    VT *v2c = (VT *)s->v2c + b * g->n_edges * NV;                            \
    const VT *lanes = (const VT *)prior;                                     \
    for (int64_t e = 0; e < g->n_edges; e++)                                 \
        for (int h = 0; h < NV; h++)                                         \
            v2c[e * NV + h] = lanes[g->edge_var[e] * NV + h];                \
}                                                                            \
                                                                             \
/* Run one iteration on block b; return the lanes (bit l for lane l)    */  \
/* among ``need`` whose syndrome is satisfied afterwards.               */  \
static int iterate_block_##SUFFIX(const bp_graph *g, const bp_state *s,     \
                                  int64_t b, VT *cv, T alpha, T clamp,       \
                                  int count_flips, int need)                 \
{                                                                            \
    int ok = 0;                                                              \
    for (int h = 0; h < NV; h++) {                                           \
        iterate_half_##SUFFIX(g, s, b, h, cv, alpha, clamp, count_flips);   \
        IT open;                                                             \
        int half_need = 0;                                                   \
        for (int l = 0; l < LANES / NV; l++) {                               \
            int bit = (need >> (h * LANES / NV + l)) & 1;                    \
            open[l] = -(IS)bit;                                              \
            half_need |= bit;                                                \
        }                                                                    \
        if (!half_need)                                                      \
            continue;                                                        \
        converged_half_##SUFFIX(g, s, b, h, &open);                          \
        for (int l = 0; l < LANES / NV; l++)                                 \
            ok |= (open[l] != 0) << (h * LANES / NV + l);                    \
    }                                                                        \
    return ok;                                                               \
}                                                                            \
                                                                             \
/* Copy row r (lane r % 4 of its block) to the row-major outputs. */        \
static void publish_##SUFFIX(const bp_graph *g, const bp_state *s,          \
                             int64_t r)                                      \
{                                                                            \
    int64_t n = g->n_vars, at = r / LANES * n * LANES + r % LANES;           \
    const T *marg = (const T *)s->lane_marg + at;                            \
    const IS *hard = (const IS *)s->lane_hard + at;                          \
    T *out_marg = (T *)s->marg + r * n;                                      \
    uint8_t *out_hard = s->hard + r * n;                                     \
    for (int64_t v = 0; v < n; v++) {                                        \
        out_marg[v] = marg[v * LANES];                                       \
        out_hard[v] = (uint8_t)(hard[v * LANES] & 1);                        \
    }                                                                        \
    if (s->flips) {                                                          \
        const IS *flips = (const IS *)s->lane_flips + at;                    \
        int32_t *out_flips = s->flips + r * n;                               \
        for (int64_t v = 0; v < n; v++)                                      \
            out_flips[v] = (int32_t)flips[v * LANES];                        \
    }                                                                        \
}                                                                            \
                                                                             \
/* Run iterations it0+1 .. it0+n_iter over blocks [b0, b1) of one unit. */  \
/* A stop group freezes at the first iteration any of its rows          */  \
/* converges (first success wins) and is published then; rows still     */  \
/* live at the end are published then.  In a one-block-per-unit job    */  \
/* each row is its own group here and run_job joins the groups.         */  \
static void run_unit_##SUFFIX(const bp_job *j, int64_t b0, int64_t b1,      \
                              VT *scratch)                                   \
{                                                                            \
    const bp_graph *g = j->g;                                                \
    const bp_state *s = j->s;                                                \
    const T clamp = (T)j->clamp;                                             \
    const T *alphas = (const T *)s->alphas;                                  \
    const int64_t *groups = j->per_block ? NULL : s->groups;                 \
    int64_t lo = b0 * LANES, hi = b1 * LANES < j->m ? b1 * LANES : j->m;     \
    int64_t live = hi - lo, ran = 0;                                         \
    for (int64_t r = lo; r < hi; r++)                                        \
        s->conv[r] = s->frozen[r] = 0;                                       \
    if (j->it0 == 0)                                                         \
        for (int64_t b = b0; b < b1; b++)                                    \
            start_block_##SUFFIX(g, s, b, j->m);                             \
    for (int64_t k = 0; k < j->n_iter && live; k++) {                        \
        int64_t it = j->it0 + k;  /* 0-based iteration index */              \
        int found = 0;                                                       \
        for (int64_t b = b0; b < b1; b++) {                                  \
            int busy = 0, need = 0;                                          \
            for (int l = 0; l < LANES; l++) {                                \
                int64_t r = b * LANES + l;                                   \
                if (r < hi && !s->frozen[r]) {                               \
                    busy = 1;                                                \
                    need |= (s->feasible[r] != 0) << l;                      \
                }                                                            \
            }                                                                \
            if (!busy)                                                       \
                continue;                                                    \
            int ok = iterate_block_##SUFFIX(g, s, b, scratch, alphas[it],    \
                                            clamp, s->flips && it > 0,       \
                                            need);                           \
            for (int l = 0; l < LANES; l++)                                  \
                if ((ok >> l) & 1) {                                         \
                    s->conv[b * LANES + l] = 1;                              \
                    found = 1;                                               \
                }                                                            \
        }                                                                    \
        ran = k + 1;                                                         \
        if (!found)                                                          \
            continue;                                                        \
        for (int64_t a = lo; a < hi;) {                                      \
            int64_t z = a + 1;                                               \
            uint8_t stopped = s->conv[a];                                    \
            if (groups)                                                      \
                while (z < hi && groups[z] == groups[a])                     \
                    stopped |= s->conv[z++];                                 \
            if (stopped && !s->frozen[a])                                    \
                for (int64_t r = a; r < z; r++) {                            \
                    s->frozen[r] = 1;                                        \
                    s->stop_rel[r] = ran;                                    \
                    publish_##SUFFIX(g, s, r);                               \
                    live--;                                                  \
                }                                                            \
            a = z;                                                           \
        }                                                                    \
    }                                                                        \
    for (int64_t r = lo; r < hi; r++)                                        \
        if (!s->frozen[r]) {                                                 \
            s->stop_rel[r] = ran;                                            \
            publish_##SUFFIX(g, s, r);                                       \
        }                                                                    \
}                                                                            \
                                                                             \
/* Thread body: run units until the job's queue is empty.              */  \
static void *work_##SUFFIX(void *arg)                                        \
{                                                                            \
    bp_worker *w = (bp_worker *)arg;                                         \
    bp_job *j = w->job;                                                      \
    VT *scratch = (VT *)j->s->scratch + w->slot * j->g->n_edges * NV;        \
    int64_t lo, hi;                                                          \
    while (claim(j, &lo, &hi))                                               \
        run_unit_##SUFFIX(j, lo, hi, scratch);                               \
    return NULL;                                                             \
}                                                                            \
                                                                             \
void bp_run_##SUFFIX(const bp_graph *g, const bp_state *s, int64_t m,       \
                     int64_t it0, int64_t n_iter, double clamp,              \
                     int64_t threads)                                        \
{                                                                            \
    bp_job j = {g, s, m, it0, n_iter, clamp, n_iter == 1, 0};                \
    run_job(&j, work_##SUFFIX, threads);                                     \
}

DEFINE_KERNEL(float, f32, f32_lanes, i32_lanes, int32_t, 1)
DEFINE_KERNEL(double, f64, f64_lanes, i64_lanes, int64_t, 2)
