/* Fused min-sum BP iterations over a CSR Tanner graph (``native`` backend).
 *
 * C port of the multi-iteration fusion API driven by
 * repro.decoders.bp.MinSumBP._decode_chunk_fused.  Built by
 * repro/decoders/kernels/native.py with
 *     cc -O2 -fPIC -shared -ffp-contract=off -pthread
 * (no -ffast-math, no -march=native) and loaded through cffi's ABI mode.
 *
 * Lanes.  Rows are independent BP instances, so the kernel advances
 * LANES = 4 of them at once with GCC vector extensions: a lane block
 * holds four rows, one per lane, and its message state is laid out
 * (n_edges, 4).  float lanes fill one 16-byte vector, double lanes two
 * (run one after the other), so every operation is a plain SSE2
 * instruction at the default -O2 and no -march.  Lanes are refilled:
 * each thread owns a pool of lane blocks, and the moment a row's stop
 * group freezes, the group's rows are copied out to the row-major
 * outputs (``marg``, ``hard``, ``flips``, ``conv``, ``iterations``) and
 * their lanes are loaded with the next rows of the chunk.  Each lane
 * keeps its own iteration count, hence its own damping factor and its
 * own "count flips from iteration 2" mask.  An idle lane (nothing left
 * to load, or waiting for a group that does not fit yet) computes on
 * stale data and is never read; a block with no live lane is skipped.
 *
 * Stop groups.  A group is loaded whole, in chunk order, and only when
 * it fits in the thread's free lanes (which need not be contiguous);
 * its rows run in lockstep from iteration 1 and freeze together at the
 * first iteration any of them converges, or at max_iter.  A pool is
 * max(1, ceil(largest group / 4)) blocks, so an empty pool takes any
 * group.
 *
 * Threads.  One bp_run call may spread the chunk's groups over up to
 * ``threads`` POSIX threads, started inside the call and joined before
 * it returns (no pool, no barrier).  Groups are claimed through an
 * atomic cursor, so a group's freeze stays on one thread.  Each lane's
 * arithmetic is the same in any lane, block or thread, and a lane load
 * resets everything the row reads, so results never depend on the
 * thread count, the chunk size, a row's neighbours or when it entered
 * its lane.
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

/* Per-chunk state.  Rows [0, m) are read from the row-major inputs when
 * they are loaded into lanes and written to the row-major outputs when
 * their group leaves its lanes.  A thread owns lane blocks
 * [slot * pool, (slot + 1) * pool).  Float buffers hold float or double;
 * "mask" buffers int32 or int64 of the same width (0 or -1 per lane).
 * Lane buffers are 16-byte aligned. */
typedef struct {
    const void *prior_rows;  /* 1 x n_vars (shared) or m x n_vars        */
    int64_t prior_stride;    /* 0 (shared) or n_vars                     */
    const uint8_t *synd_rows;/* m x n_checks (non-empty checks)          */
    const uint8_t *feasible; /* m: no syndrome bit on an empty check     */
    const int64_t *groups;   /* m stop-group ids, or NULL (singletons)   */
    const void *alphas;      /* alphas[i]: damping of iteration i + 1    */
    int64_t pool;            /* lane blocks per thread                   */
    void *prior;             /* blocks x n_vars x 4                      */
    void *synd;              /* blocks x n_checks x 4 syndrome masks     */
    void *v2c;               /* blocks x n_edges x 4, check-sorted       */
    void *lane_marg;         /* blocks x n_vars x 4                      */
    void *lane_hard;         /* blocks x n_vars x 4 masks                */
    void *lane_flips;        /* blocks x n_vars x 4 counts (mask width)  */
    int64_t *lane_row;       /* blocks x 4: row in the lane, -1 if idle  */
    int64_t *lane_iter;      /* blocks x 4: iterations the row has run   */
    int64_t *lane_group;     /* blocks x 4: first row of the row's group */
    void *scratch;           /* threads x n_edges x 4: var-sorted c2v of */
                             /* one block, one slice per thread          */
    void *marg;              /* m x n_vars, published marginals          */
    uint8_t *hard;           /* m x n_vars, published hard decisions     */
    int32_t *flips;          /* m x n_vars, or NULL when untracked       */
    uint8_t *conv;           /* m: the row's own syndrome was satisfied  */
    int64_t *iterations;     /* m: iterations the row ran                */
} bp_state;

const char *bp_compiler(void);
int64_t bp_lanes(void);
void bp_run_f32(const bp_graph *g, const bp_state *s, int64_t m,
                int64_t max_iter, double clamp, int64_t threads);
void bp_run_f64(const bp_graph *g, const bp_state *s, int64_t m,
                int64_t max_iter, double clamp, int64_t threads);
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

/* A call with fewer than this many edge updates in one iteration of
 * every row (rows x n_edges) stays on the calling thread: one thread
 * already runs four rows per block, and starting and joining another
 * (~0.1 ms) costs more than it saves.  Calls at a budget of 2 on a
 * 2-vCPU host broke even at 16-24 rows on coprime-154 (462 edges;
 * 2-16 rows ran 12-35% slower threaded) and at 12-16 rows on BB-144
 * (6,156 edges; 2-12 rows ran at most 7% slower).  A constant, not a
 * tuning knob. */
#define MIN_THREADED_WORK 10000

/* One bp_run call: the queue of stop groups its threads share. */
typedef struct {
    const bp_graph *g;
    const bp_state *s;
    int64_t m, max_iter;
    double clamp;
    _Atomic int64_t next;    /* first row of the first unclaimed group   */
} bp_job;

/* Claim the next stop group, rows [*lo, *hi), if it has at most
 * ``room`` rows.  Returns 1 if claimed, 0 if it does not fit, -1 when
 * the queue is empty. */
static int claim(bp_job *j, int64_t room, int64_t *lo, int64_t *hi)
{
    const int64_t *groups = j->s->groups;
    int64_t a = atomic_load(&j->next);
    for (;;) {
        if (a >= j->m)
            return -1;
        int64_t b = a + 1;
        if (groups)
            while (b < j->m && groups[b] == groups[a])
                b++;
        if (b - a > room)
            return 0;
        if (atomic_compare_exchange_weak(&j->next, &a, b)) {
            *lo = a;
            *hi = b;
            return 1;
        }
    }
}

typedef struct {
    bp_job *job;
    int64_t slot;            /* this thread's lane pool and scratch      */
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

/* Decode every row of the job on up to ``threads`` threads (the
 * caller's included), each draining the shared queue into its own lane
 * pool with ``work``.  If a thread cannot be started, the threads that
 * did start take its share. */
static void run_job(bp_job *j, void *(*work)(void *), int64_t threads)
{
    if (j->m * j->g->n_edges < MIN_THREADED_WORK || threads < 1)
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
/* minimum twice and each lane's own damping factor, written straight   */  \
/* into var-sorted order; then marginals (Eq. 7), next v2c (Eq. 5),     */  \
/* hard decisions and, when flips are tracked, flip counts in the lanes */  \
/* where ``count`` is 1 (it is 0 on a lane's first iteration).          */  \
static void iterate_half_##SUFFIX(const bp_graph *g, const bp_state *s,     \
                                  int64_t b, int h, VT *cv, VT alpha,        \
                                  IT count, T clamp)                         \
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
        if (s->flips)                                                        \
            flips[v * NV] += (hv ^ hard[v * NV]) & count;                    \
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
/* Load row r into lane l (a lane of the whole workspace): its prior   */ \
/* and syndrome mask, zero flip counts and the initial messages          */ \
/* v2c = prior.  Nothing else of the lane is read before it is written.  */ \
static void load_lane_##SUFFIX(const bp_graph *g, const bp_state *s,        \
                               int64_t l, int64_t r)                         \
{                                                                            \
    int64_t n = g->n_vars, nc = g->n_checks, b = l / LANES, k = l % LANES;   \
    const T *row = (const T *)s->prior_rows + r * s->prior_stride;           \
    const uint8_t *bits = s->synd_rows + r * nc;                             \
    T *prior = (T *)s->prior + b * n * LANES + k;                            \
    IS *synd = (IS *)s->synd + b * nc * LANES + k;                           \
    T *v2c = (T *)s->v2c + b * g->n_edges * LANES + k;                       \
    for (int64_t v = 0; v < n; v++)                                          \
        prior[v * LANES] = row[v];                                           \
    for (int64_t c = 0; c < nc; c++)                                         \
        synd[c * LANES] = -(IS)bits[c];                                      \
    if (s->flips) {                                                          \
        IS *flips = (IS *)s->lane_flips + b * n * LANES + k;                 \
        for (int64_t v = 0; v < n; v++)                                      \
            flips[v * LANES] = 0;                                            \
    }                                                                        \
    for (int64_t e = 0; e < g->n_edges; e++)                                 \
        v2c[e * LANES] = row[g->edge_var[e]];                                \
}                                                                            \
                                                                             \
/* Run one iteration on block b, lane k damped by alpha[k] and counting */  \
/* flips where count[k] is 1; return the lanes (bit k for lane k) among */  \
/* ``need`` whose syndrome is satisfied afterwards.                     */  \
static int iterate_block_##SUFFIX(const bp_graph *g, const bp_state *s,     \
                                  int64_t b, VT *cv, const T *alpha,         \
                                  const IS *count, T clamp, int need)        \
{                                                                            \
    int ok = 0;                                                              \
    for (int h = 0; h < NV; h++) {                                           \
        VT half_alpha;                                                       \
        IT half_count, open;                                                 \
        memcpy(&half_alpha, alpha + h * LANES / NV, sizeof half_alpha);      \
        memcpy(&half_count, count + h * LANES / NV, sizeof half_count);      \
        iterate_half_##SUFFIX(g, s, b, h, cv, half_alpha, half_count,        \
                              clamp);                                        \
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
/* Copy lane l out to row r of the row-major outputs. */                    \
static void publish_##SUFFIX(const bp_graph *g, const bp_state *s,          \
                             int64_t l, int64_t r)                           \
{                                                                            \
    int64_t n = g->n_vars, at = l / LANES * n * LANES + l % LANES;           \
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
/* Thread body: decode stop groups from the job's queue in this         */  \
/* thread's pool of lane blocks until the queue is empty and every lane */  \
/* is idle.  Each step refills free lanes with whole groups, runs one   */  \
/* iteration on every block with a live lane, then publishes and frees  */  \
/* each group that converged (first success wins) or ran max_iter.      */  \
static void *work_##SUFFIX(void *arg)                                        \
{                                                                            \
    bp_worker *w = (bp_worker *)arg;                                         \
    bp_job *j = w->job;                                                      \
    const bp_graph *g = j->g;                                                \
    const bp_state *s = j->s;                                                \
    const T *alphas = (const T *)s->alphas;                                  \
    const T clamp = (T)j->clamp;                                             \
    int64_t b0 = w->slot * s->pool, lanes = s->pool * LANES, l0 = b0 * LANES;\
    int64_t *row = s->lane_row + l0, *iters = s->lane_iter + l0;             \
    int64_t *group = s->lane_group + l0;                                     \
    VT *scratch = (VT *)s->scratch + w->slot * g->n_edges * NV;              \
    int64_t live = 0, lo, hi;                                                \
    int queued = 1;                                                          \
    for (int64_t l = 0; l < lanes; l++)                                      \
        row[l] = -1;                                                         \
    for (;;) {                                                               \
        while (queued) {                                                     \
            int got = claim(j, lanes - live, &lo, &hi);                      \
            queued = got >= 0;                                               \
            if (got <= 0)                                                    \
                break;                                                       \
            for (int64_t r = lo, l = 0; r < hi; r++, l++) {                  \
                while (row[l] >= 0)                                          \
                    l++;                                                     \
                load_lane_##SUFFIX(g, s, l0 + l, r);                         \
                row[l] = r;                                                  \
                iters[l] = 0;                                                \
                group[l] = lo;                                               \
                s->conv[r] = 0;                                              \
            }                                                                \
            live += hi - lo;                                                 \
        }                                                                    \
        if (!live)                                                           \
            return NULL;                                                     \
        for (int64_t b = 0; b < s->pool; b++) {                              \
            T alpha[LANES];                                                  \
            IS count[LANES];                                                 \
            int busy = 0, need = 0;                                          \
            for (int k = 0; k < LANES; k++) {                                \
                int64_t l = b * LANES + k, r = row[l];                       \
                alpha[k] = r < 0 ? 0 : alphas[iters[l]];                     \
                count[k] = r >= 0 && iters[l] > 0;                           \
                busy |= r >= 0;                                              \
                need |= (r >= 0 && s->feasible[r]) << k;                     \
            }                                                                \
            if (!busy)                                                       \
                continue;                                                    \
            int ok = iterate_block_##SUFFIX(g, s, b0 + b, scratch, alpha,    \
                                            count, clamp, need);             \
            for (int k = 0; k < LANES; k++)                                  \
                if ((ok >> k) & 1)                                           \
                    s->conv[row[b * LANES + k]] = 1;                         \
        }                                                                    \
        for (int64_t l = 0; l < lanes; l++)                                  \
            iters[l] += row[l] >= 0;                                         \
        for (int64_t l = 0; l < lanes; l++) {                                \
            if (row[l] < 0                                                   \
                || !(s->conv[row[l]] || iters[l] == j->max_iter))            \
                continue;                                                    \
            int64_t first = group[l];                                        \
            for (int64_t k = 0; k < lanes; k++)                              \
                if (row[k] >= 0 && group[k] == first) {                      \
                    publish_##SUFFIX(g, s, l0 + k, row[k]);                  \
                    s->iterations[row[k]] = iters[k];                        \
                    row[k] = -1;                                             \
                    live--;                                                  \
                }                                                            \
        }                                                                    \
    }                                                                        \
}                                                                            \
                                                                             \
/* Decode rows [0, m) with at most max_iter iterations each. */             \
void bp_run_##SUFFIX(const bp_graph *g, const bp_state *s, int64_t m,       \
                     int64_t max_iter, double clamp, int64_t threads)        \
{                                                                            \
    bp_job j = {g, s, m, max_iter, clamp, 0};                                \
    run_job(&j, work_##SUFFIX, threads);                                     \
}

DEFINE_KERNEL(float, f32, f32_lanes, i32_lanes, int32_t, 1)
DEFINE_KERNEL(double, f64, f64_lanes, i64_lanes, int64_t, 2)
