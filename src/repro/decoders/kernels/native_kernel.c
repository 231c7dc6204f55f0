/* Fused min-sum BP iterations over a CSR Tanner graph (``native`` backend).
 *
 * Single-threaded C port of the multi-iteration fusion API driven by
 * repro.decoders.bp.MinSumBP._decode_chunk_fused.  Built by
 * repro/decoders/kernels/native.py with
 *     cc -O2 -fPIC -shared -ffp-contract=off
 * (no -ffast-math, no -march=native) and loaded through cffi's ABI mode.
 *
 * Every float result is bit-identical to the numpy ``fused`` kernel:
 * arithmetic stays in the working dtype, min/max/xor are exact in any
 * order, and the one order-sensitive reduction -- the per-variable sum
 * of check messages -- reproduces numpy's ``add.reduceat`` exactly:
 * s = a0 + pairwise(a1 .. a_{n-1}), with numpy's pairwise summation.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

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

/* Per-chunk state, rows [0, m) live; float buffers are float or double. */
typedef struct {
    void *v2c;               /* cap x n_edges, check-sorted              */
    void *marg;              /* cap x n_vars                             */
    void *scratch;           /* n_edges: var-sorted c2v of one row       */
    void *alphas;            /* alphas[i]: damping of iteration i + 1    */
    const void *prior;       /* 1 x n_vars (shared) or cap x n_vars      */
    int64_t prior_stride;    /* 0 (shared) or n_vars                     */
    uint8_t *hard;           /* cap x n_vars, hard decisions             */
    int32_t *flips;          /* cap x n_vars, or NULL when untracked     */
    uint8_t *synd;           /* cap x n_checks (non-empty checks)        */
    uint8_t *feasible;       /* cap: no syndrome bit on an empty check   */
    int64_t *groups;         /* cap stop-group ids, or NULL (singletons) */
    uint8_t *conv;           /* cap: converged during the last run       */
    uint8_t *frozen;         /* cap: group stopped during the last run   */
    int64_t *stop_rel;       /* cap: iterations run during the last run  */
} bp_state;

const char *bp_compiler(void);
void bp_compact(const bp_graph *g, const bp_state *s, int64_t m,
                const uint8_t *keep, int64_t float_bytes);
void bp_run_f32(const bp_graph *g, const bp_state *s, int64_t m,
                int64_t it0, int64_t n_iter, double clamp);
void bp_run_f64(const bp_graph *g, const bp_state *s, int64_t m,
                int64_t it0, int64_t n_iter, double clamp);
void bp_segment_sums_f32(const float *a, const int64_t *ptr,
                         int64_t n_seg, float *out);
void bp_segment_sums_f64(const double *a, const int64_t *ptr,
                         int64_t n_seg, double *out);
/* END ABI */

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

void bp_compact(const bp_graph *g, const bp_state *s, int64_t m,
                const uint8_t *keep, int64_t float_bytes)
{
    compact_rows(s->v2c, g->n_edges * float_bytes, m, keep);
    compact_rows(s->marg, g->n_vars * float_bytes, m, keep);
    compact_rows(s->hard, g->n_vars, m, keep);
    compact_rows(s->synd, g->n_checks, m, keep);
    compact_rows(s->feasible, 1, m, keep);
    if (s->prior_stride)
        compact_rows((void *)s->prior, g->n_vars * float_bytes, m, keep);
    if (s->flips)
        compact_rows(s->flips, g->n_vars * 4, m, keep);
    if (s->groups)
        compact_rows(s->groups, 8, m, keep);
}

/* Edge-domain parity check H @ hard == synd (mod 2) for one row. */
static int syndrome_ok(const bp_graph *g, const uint8_t *hard,
                       const uint8_t *synd)
{
    for (int64_t c = 0; c < g->n_checks; c++) {
        uint8_t p = 0;
        for (int64_t e = g->chk_ptr[c]; e < g->chk_ptr[c + 1]; e++)
            p ^= hard[g->edge_var[e]];
        if (p != synd[c])
            return 0;
    }
    return 1;
}

#define DEFINE_KERNEL(T, SUFFIX, ABS)                                        \
                                                                             \
/* numpy's pairwise summation (pairwise_sum in loops_utils.h.src).  */      \
static T pairwise_##SUFFIX(const T *a, int64_t n)                           \
{                                                                            \
    if (n < 8) {                                                             \
        T res = -0.0;                                                        \
        for (int64_t i = 0; i < n; i++)                                      \
            res += a[i];                                                     \
        return res;                                                          \
    }                                                                        \
    if (n <= 128) {                                                          \
        T r[8], res;                                                         \
        int64_t i;                                                           \
        for (int k = 0; k < 8; k++)                                          \
            r[k] = a[k];                                                     \
        for (i = 8; i < n - (n % 8); i += 8)                                 \
            for (int k = 0; k < 8; k++)                                      \
                r[k] += a[i + k];                                            \
        res = ((r[0] + r[1]) + (r[2] + r[3]))                                \
            + ((r[4] + r[5]) + (r[6] + r[7]));                               \
        for (; i < n; i++)                                                   \
            res += a[i];                                                     \
        return res;                                                          \
    }                                                                        \
    int64_t n2 = n / 2;                                                      \
    n2 -= n2 % 8;                                                            \
    return pairwise_##SUFFIX(a, n2) + pairwise_##SUFFIX(a + n2, n - n2);    \
}                                                                            \
                                                                             \
/* add.reduceat over one segment: the first element, then the rest. */     \
static T segment_sum_##SUFFIX(const T *a, int64_t n)                        \
{                                                                            \
    return n == 1 ? a[0] : a[0] + pairwise_##SUFFIX(a + 1, n - 1);          \
}                                                                            \
                                                                             \
void bp_segment_sums_##SUFFIX(const T *a, const int64_t *ptr,               \
                              int64_t n_seg, T *out)                         \
{                                                                            \
    for (int64_t i = 0; i < n_seg; i++)                                      \
        out[i] = segment_sum_##SUFFIX(a + ptr[i], ptr[i + 1] - ptr[i]);      \
}                                                                            \
                                                                             \
/* One BP iteration of one row.  Check update (paper Eq. 6) with the     */ \
/* duplicate-counting two-smallest recurrence, written straight into    */  \
/* var-sorted order; then marginals (Eq. 7), next v2c (Eq. 5), hard     */  \
/* decisions and flip counts.                                           */  \
static void iterate_row_##SUFFIX(const bp_graph *g, T *v2c, T *cv,         \
                                 T *marg, const T *prior, uint8_t *hard,    \
                                 int32_t *flips, const uint8_t *synd,       \
                                 T alpha, T clamp)                           \
{                                                                            \
    for (int64_t c = 0; c < g->n_checks; c++) {                              \
        int64_t lo = g->chk_ptr[c], hi = g->chk_ptr[c + 1];                  \
        T min1 = (T)INFINITY, min2 = (T)INFINITY;                            \
        uint8_t par = synd[c];                                               \
        for (int64_t e = lo; e < hi; e++) {                                  \
            T x = v2c[e];                                                    \
            T a = ABS(x);                                                    \
            par ^= (x < 0);                                                  \
            if (a < min1) {                                                  \
                min2 = min1;                                                 \
                min1 = a;                                                    \
            } else if (a < min2) {                                           \
                min2 = a;                                                    \
            }                                                                \
        }                                                                    \
        T m1 = (min1 < clamp ? min1 : clamp) * alpha;                        \
        T m2 = (min2 < clamp ? min2 : clamp) * alpha;                        \
        for (int64_t e = lo; e < hi; e++) {                                  \
            T x = v2c[e];                                                    \
            T mag = ABS(x) == min1 ? m2 : m1;                                \
            cv[g->var_pos[e]] = (par ^ (x < 0)) ? -mag : mag;                \
        }                                                                    \
    }                                                                        \
    if (g->n_active != g->n_vars)                                            \
        for (int64_t v = 0; v < g->n_vars; v++)                              \
            marg[v] = prior[v] + (T)0.0;                                     \
    for (int64_t i = 0; i < g->n_active; i++) {                              \
        int64_t lo = g->var_ptr[i], hi = g->var_ptr[i + 1];                  \
        int64_t v = g->var_ids[i];                                           \
        T mv = prior[v] + segment_sum_##SUFFIX(cv + lo, hi - lo);            \
        marg[v] = mv;                                                        \
        for (int64_t j = lo; j < hi; j++) {                                  \
            T t = mv - cv[j];                                                \
            if (t > clamp)                                                   \
                t = clamp;                                                   \
            else if (t < -clamp)                                             \
                t = -clamp;                                                  \
            v2c[g->var_edge[j]] = t;                                         \
        }                                                                    \
    }                                                                        \
    for (int64_t v = 0; v < g->n_vars; v++) {                                \
        uint8_t h = marg[v] <= 0;                                            \
        if (flips)                                                           \
            flips[v] += h ^ hard[v];                                         \
        hard[v] = h;                                                         \
    }                                                                        \
}                                                                            \
                                                                             \
/* Run iterations it0+1 .. it0+n_iter over every live row, group by      */ \
/* group.  The moment any row of a stop group converges the whole group */  \
/* freezes at that iteration (first success wins); singleton groups     */  \
/* when s->groups is NULL.                                              */  \
void bp_run_##SUFFIX(const bp_graph *g, const bp_state *s, int64_t m,       \
                     int64_t it0, int64_t n_iter, double clamp_d)            \
{                                                                            \
    const T clamp = (T)clamp_d;                                              \
    const T *alphas = (const T *)s->alphas;                                  \
    int64_t lo = 0;                                                          \
    while (lo < m) {                                                         \
        int64_t hi = lo + 1;                                                 \
        if (s->groups)                                                       \
            while (hi < m && s->groups[hi] == s->groups[lo])                 \
                hi++;                                                        \
        int64_t ran = 0;                                                     \
        uint8_t stopped = 0;                                                 \
        for (int64_t r = lo; r < hi; r++)                                    \
            s->conv[r] = 0;                                                  \
        for (int64_t k = 0; k < n_iter && !stopped; k++) {                   \
            int64_t it = it0 + k;  /* 0-based iteration index */             \
            for (int64_t r = lo; r < hi; r++) {                              \
                uint8_t *hard = s->hard + r * g->n_vars;                     \
                const uint8_t *synd = s->synd + r * g->n_checks;             \
                iterate_row_##SUFFIX(                                        \
                    g, (T *)s->v2c + r * g->n_edges, (T *)s->scratch,        \
                    (T *)s->marg + r * g->n_vars,                            \
                    (const T *)s->prior + r * s->prior_stride, hard,         \
                    (s->flips && it > 0) ? s->flips + r * g->n_vars : NULL,  \
                    synd, alphas[it], clamp);                                \
                if (s->feasible[r] && syndrome_ok(g, hard, synd)) {          \
                    s->conv[r] = 1;                                          \
                    stopped = 1;                                             \
                }                                                            \
            }                                                                \
            ran = k + 1;                                                     \
        }                                                                    \
        for (int64_t r = lo; r < hi; r++) {                                  \
            s->stop_rel[r] = ran;                                            \
            s->frozen[r] = stopped;                                          \
        }                                                                    \
        lo = hi;                                                             \
    }                                                                        \
}

DEFINE_KERNEL(float, f32, fabsf)
DEFINE_KERNEL(double, f64, fabs)
