"""JIT-compiled min-sum kernel (``numba`` backend) with iteration fusion.

The paper's thesis is that *fully parallel* BP wins once the decoder
actually exploits hardware parallelism; this backend is the compiled
realisation of that claim on CPU.  Strategy (vs.
:class:`~repro.decoders.kernels.fused.FusedKernel`):

* **CSR-flattened Tanner graph.**  Check and variable adjacency become
  four contiguous ``int64`` index arrays at construction (``chk_ptr`` /
  ``edge_var`` on the check side, ``var_ptr`` / ``var_edge`` on the
  variable side), so every update is a pointer walk — no ``reduceat``
  per-segment dispatch, no gather/scatter temporaries.
* **Fused per-row iteration.**  Check update (streaming two-smallest
  min-sum whose duplicate-counting ``min2`` equals ``min1`` on a
  degenerate minimum — the reference's ``n_min`` rule, value for
  value), variable update, hard decision and the edge-domain parity
  check run back to back over one row inside a single
  ``@njit(parallel=True, cache=True)`` kernel with ``prange`` over
  shots (or over ``stop_groups`` groups).
* **Multi-iteration fusion.**  :meth:`fused_run` executes up to K
  iterations per JIT call, checking convergence *every* iteration
  in-kernel and freezing a row (or its whole group — first success
  wins) at the exact iteration it converges, so results are identical
  to the one-iteration-per-call protocol loop while Python leaves the
  hot path entirely.  K is adaptive: the decode loop keeps K=1 until
  the first convergence activity, then grows it (see
  ``MinSumBP._decode_chunk_fused``).
* **Preallocated workspaces + compaction.**  Capacity-sized buffers are
  sliced per chunk and forward-compacted as rows retire, so chunked
  decoding and BP-SF trial pooling work verbatim; pickling drops the
  workspace exactly like the fused backend.

Determinism: all arithmetic stays in the working dtype and segment
sums accumulate scalar left-to-right in var-sorted order, but numpy's
``add.reduceat`` (the reference) uses SIMD partial sums with no fixed
associativity, so the two differ by ulps from iteration one and the
backend declares ``deterministic_sums = False``.  Those ulps amplify
roughly a decade per ~5 iterations along oscillating min-sum
trajectories: in float64 (or bounded float32 runs) integer/sign
outputs remain bit-identical to the reference, while a float32 shot
that oscillates for tens of iterations may retire onto a different —
equally valid, syndrome-satisfying — solution.  LLR columns are
always tolerance-compared by the parity suite.  The backend is
self-deterministic: repeated decodes of the same batch are bit-equal.

Import is always safe: without ``numba`` the module falls back to a
no-op ``njit`` (``prange = range``) so the *algorithm* stays testable
in pure Python, while :mod:`repro.decoders.kernels` only registers the
backend loader — ``KERNEL_BACKENDS["numba"]`` appears solely when the
real dependency imports (`NUMBA_AVAILABLE`).
"""

from __future__ import annotations

import numpy as np

from repro.decoders.kernels.base import BPKernel

__all__ = ["NUMBA_AVAILABLE", "NUMBA_IMPORT_ERROR", "NumbaKernel"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import njit, prange

    NUMBA_AVAILABLE = True
    NUMBA_IMPORT_ERROR = None
    _RUNTIME = f"numba {numba.__version__} (numpy {np.__version__})"
except ImportError as _exc:  # pure-Python fallback: same code, no JIT
    NUMBA_AVAILABLE = False
    NUMBA_IMPORT_ERROR = str(_exc)
    _RUNTIME = f"pure-python fallback (numpy {np.__version__})"
    prange = range

    def njit(*args, **kwargs):
        """Identity decorator standing in for ``numba.njit``."""
        if args and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(func):
            return func

        return wrap


# -- row-level building blocks ------------------------------------------
#
# Each helper operates on one shot's 1-D slices so the prange drivers
# below parallelise over rows/groups with zero shared writes.  All float
# scalars (alpha, clamp) arrive as working-dtype values; nothing here
# promotes to float64.


@njit(cache=True)
def _row_check_update(v2c_r, c2v_r, synd_r, chk_ptr, edge_var, alpha, clamp):
    """Min-sum check update for one row (paper Eq. 6).

    Streaming two-smallest recurrence: ``min2`` counts duplicates (it
    equals ``min1`` when the minimum is degenerate), so emitting it at
    every per-check-minimum edge reproduces the reference's
    ``n_min == 1`` masked-``min2`` rule value for value.  A degree-1
    check has no "other" input; the reference's masked minimum is
    ``inf`` there, clipped to ``clamp`` — so ``clamp`` is the seed.
    """
    for c in range(chk_ptr.shape[0] - 1):
        lo = chk_ptr[c]
        hi = chk_ptr[c + 1]
        x = v2c_r[lo]
        par = synd_r[c] != 0
        if x < 0:
            par = not par
            a = -x
        else:
            a = x
        min1 = a
        min2 = clamp
        have2 = False
        for e in range(lo + 1, hi):
            x = v2c_r[e]
            if x < 0:
                par = not par
                a = -x
            else:
                a = x
            if a < min1:
                min2 = min1
                min1 = a
                have2 = True
            elif (not have2) or a < min2:
                min2 = a
                have2 = True
        m1 = min1 if min1 < clamp else clamp
        m1 = m1 * alpha
        m2 = min2 if min2 < clamp else clamp
        m2 = m2 * alpha
        for e in range(lo, hi):
            x = v2c_r[e]
            if x < 0:
                neg = True
                a = -x
            else:
                neg = False
                a = x
            mag = m2 if a == min1 else m1
            # sign = (-1)^{parity-excluding-e ^ s_c}; `par` already
            # folds s_c and *all* sign bits, so exclusion is `!= neg`.
            if par != neg:
                c2v_r[e] = -mag
            else:
                c2v_r[e] = mag


@njit(cache=True)
def _row_variable_update(
    c2v_r, prior_r, marg_r, v2c_r, var_ptr, var_edge, var_ids, edge_var, clamp
):
    """Marginals (Eq. 7) and next v2c (Eq. 5) for one row.

    Sums accumulate left to right in var-sorted edge order and are
    added to the prior as one final op — the reference's ``prior +
    reduceat(c2v_v)`` order, so scalar results match it exactly.
    """
    for v in range(marg_r.shape[0]):
        marg_r[v] = prior_r[v]
    for vi in range(var_ptr.shape[0] - 1):
        lo = var_ptr[vi]
        hi = var_ptr[vi + 1]
        s = c2v_r[var_edge[lo]]
        for j in range(lo + 1, hi):
            s = s + c2v_r[var_edge[j]]
        v = var_ids[vi]
        marg_r[v] = marg_r[v] + s
    for e in range(v2c_r.shape[0]):
        t = marg_r[edge_var[e]] - c2v_r[e]
        if t > clamp:
            t = clamp
        elif t < -clamp:
            t = -clamp
        v2c_r[e] = t


@njit(cache=True)
def _row_hard(marg_r, hard_r):
    for v in range(marg_r.shape[0]):
        hard_r[v] = 1 if marg_r[v] <= 0 else 0


@njit(cache=True)
def _row_syndrome_ok(hard_r, synd_r, chk_ptr, edge_var):
    """Edge-domain parity check ``H @ hard == s (mod 2)`` for one row."""
    for c in range(chk_ptr.shape[0] - 1):
        p = 0
        for e in range(chk_ptr[c], chk_ptr[c + 1]):
            p ^= hard_r[edge_var[e]]
        if p != synd_r[c]:
            return False
    return True


# -- per-step prange drivers (generic BPKernel protocol) ----------------


@njit(cache=True, parallel=True)
def _check_update_batch(v2c, c2v, synd, chk_ptr, edge_var, alpha, clamp):
    for r in prange(v2c.shape[0]):
        _row_check_update(
            v2c[r], c2v[r], synd[r], chk_ptr, edge_var, alpha, clamp
        )


@njit(cache=True, parallel=True)
def _variable_update_batch(
    c2v, prior, marg, v2c, var_ptr, var_edge, var_ids, edge_var, clamp
):
    shared_prior = prior.shape[0] == 1
    for r in prange(c2v.shape[0]):
        pr = prior[0] if shared_prior else prior[r]
        _row_variable_update(
            c2v[r], pr, marg[r], v2c[r], var_ptr, var_edge, var_ids,
            edge_var, clamp,
        )


@njit(cache=True, parallel=True)
def _hard_batch(marg, hard):
    for r in prange(marg.shape[0]):
        _row_hard(marg[r], hard[r])


@njit(cache=True, parallel=True)
def _converged_batch(hard, synd, feasible, done, chk_ptr, edge_var):
    for r in prange(hard.shape[0]):
        done[r] = feasible[r] and _row_syndrome_ok(
            hard[r], synd[r], chk_ptr, edge_var
        )


# -- multi-iteration fusion driver --------------------------------------


@njit(cache=True, parallel=True)
def _fused_iterations(
    v2c, c2v, prior, marg, hard, prev_hard, flips, track_flips,
    synd, feasible, chk_ptr, edge_var, var_ptr, var_edge, var_ids,
    alphas, clamp, it0, group_ptr, conv, frozen, stop_rel,
):
    """Run up to ``len(alphas)`` iterations per ``stop_groups`` group.

    Convergence is checked in-kernel after *every* iteration; the
    moment any row of a group converges the whole group freezes at that
    iteration (first-success-wins), reproducing the generic decode
    loop's retirement semantics exactly.  Ungrouped decoding passes
    singleton groups.  Frozen rows report ``stop_rel`` iterations
    relative to ``it0``; surviving rows ran the full span.
    """
    n_vars = marg.shape[1]
    n_iter = alphas.shape[0]
    shared_prior = prior.shape[0] == 1
    for g in prange(group_ptr.shape[0] - 1):
        lo = group_ptr[g]
        hi = group_ptr[g + 1]
        stopped = False
        ran = 0
        for k in range(n_iter):
            alpha = alphas[k]
            any_done = False
            for r in range(lo, hi):
                pr = prior[0] if shared_prior else prior[r]
                _row_check_update(
                    v2c[r], c2v[r], synd[r], chk_ptr, edge_var, alpha, clamp
                )
                _row_variable_update(
                    c2v[r], pr, marg[r], v2c[r], var_ptr, var_edge,
                    var_ids, edge_var, clamp,
                )
                _row_hard(marg[r], hard[r])
                if track_flips and it0 + k > 0:
                    for v in range(n_vars):
                        flips[r, v] += hard[r, v] ^ prev_hard[r, v]
                for v in range(n_vars):
                    prev_hard[r, v] = hard[r, v]
                if feasible[r] and _row_syndrome_ok(
                    hard[r], synd[r], chk_ptr, edge_var
                ):
                    conv[r] = True
                    any_done = True
            ran = k + 1
            if any_done:
                stopped = True
                break
        for r in range(lo, hi):
            stop_rel[r] = ran
            frozen[r] = stopped


class _Workspace:
    """Preallocated per-chunk buffers (capacity rows, sliced to batch)."""

    def __init__(self, cap, edges, n_checks_live, dtype):
        e, n = edges.n_edges, edges.n_vars
        c = n_checks_live
        self.v2c = np.empty((cap, e), dtype)
        self.c2v = np.empty((cap, e), dtype)
        self.sign_syn = np.empty((cap, e), dtype)
        self.synd = np.empty((cap, c), np.uint8)
        self.feasible = np.ones(cap, bool)
        self.marg = np.empty((cap, n), dtype)
        # hard[0] doubles as the fused path's current hard decision and
        # hard[1] as its previous-iteration copy (oscillation counting).
        self.hard = [
            np.empty((cap, n), np.uint8), np.empty((cap, n), np.uint8)
        ]
        self.flips = None  # lazy; fused oscillation tracking only
        self.done = np.empty(cap, bool)
        self.conv = np.empty(cap, bool)
        self.frozen = np.empty(cap, bool)
        self.stop_rel = np.empty(cap, np.int64)
        self.iota = np.arange(cap + 1, dtype=np.int64)


_EMPTY_FLIPS = np.zeros((0, 0), dtype=np.int32)


class NumbaKernel(BPKernel):
    """CSR-flattened, thread-parallel, iteration-fusing min-sum kernel."""

    name = "numba"
    deterministic_sums = False
    supports_iteration_fusion = True
    runtime_version = _RUNTIME

    def __init__(self, edges, check_matrix, *, clamp, dtype):
        super().__init__(edges, check_matrix, clamp=clamp, dtype=dtype)
        # CSR index arrays (int64: numba-friendly, platform independent).
        if edges.check_ids.size:
            self._chk_ptr = np.ascontiguousarray(np.concatenate(
                [edges.check_starts, [edges.n_edges]]
            ), dtype=np.int64)
        else:  # degenerate edge-free matrix: zero checks, zero segments
            self._chk_ptr = np.zeros(1, dtype=np.int64)
        if edges.var_ids.size:
            self._var_ptr = np.ascontiguousarray(np.concatenate(
                [edges.var_starts, [edges.n_edges]]
            ), dtype=np.int64)
        else:
            self._var_ptr = np.zeros(1, dtype=np.int64)
        self._edge_var = np.ascontiguousarray(edges.edge_var, dtype=np.int64)
        self._var_edge = np.ascontiguousarray(
            edges.to_var_order, dtype=np.int64
        )
        self._var_ids = np.ascontiguousarray(edges.var_ids, dtype=np.int64)
        self._clamp_t = self.dtype.type(self.clamp)
        self._ws = None
        self._cap = 0
        self._m = 0          # live rows of the current chunk
        self._flip = 0       # hard-decision ping-pong toggle
        self._track = False  # fused path: oscillation counters on?

    # -- pickling: workspace is transient scratch, never ship it --------

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_ws"] = None
        state["_cap"] = 0
        state["_m"] = 0
        state["_flip"] = 0
        state["_track"] = False
        return state

    # -- chunk lifecycle ------------------------------------------------

    def _ensure(self, batch):
        if self._ws is None or batch > self._cap:
            self._cap = batch
            self._ws = _Workspace(
                batch, self.edges, self.edges.check_ids.shape[0], self.dtype
            )
        return self._ws

    def _begin(self, syndromes, prior):
        """Shared chunk setup: syndrome context + initial messages."""
        edges = self.edges
        batch = syndromes.shape[0]
        ws = self._ensure(batch)
        self._m = batch
        self._flip = 0
        syndromes.take(edges.check_ids, axis=1, out=ws.synd[:batch])
        if edges.all_checks_nonempty:
            ws.feasible[:batch] = True
        else:
            empty_bits = syndromes[:, edges.empty_check_ids]
            np.logical_not(empty_bits.any(axis=1), out=ws.feasible[:batch])
        v2c = ws.v2c[:batch]
        if prior.shape[0] == batch:
            prior.take(edges.edge_var, axis=1, out=v2c)
        else:
            v2c[...] = prior[:, edges.edge_var]
        return ws, batch, v2c

    def start(self, syndromes, prior):
        ws, batch, v2c = self._begin(syndromes, prior)
        # (-1)^{s_c} per edge — only the generic protocol loop (Mem-BP /
        # sum-product subclass hooks) reads it; the fused path skips it.
        ws.sign_syn[:batch] = 1.0
        ws.sign_syn[:batch][
            syndromes[:, self.edges.edge_check] != 0
        ] = -1.0
        return v2c

    @property
    def sign_syn(self):
        return self._ws.sign_syn[: self._m]

    # -- per-iteration steps (generic protocol) -------------------------

    def check_update(self, v2c, sign_syn, alpha):
        m = v2c.shape[0]
        ws = self._ws
        _check_update_batch(
            np.ascontiguousarray(v2c), ws.c2v[:m], ws.synd[:m],
            self._chk_ptr, self._edge_var,
            self.dtype.type(alpha), self._clamp_t,
        )
        return ws.c2v[:m]

    def variable_update(self, c2v, prior):
        m = c2v.shape[0]
        ws = self._ws
        _variable_update_batch(
            np.ascontiguousarray(c2v, dtype=self.dtype),
            np.ascontiguousarray(prior, dtype=self.dtype),
            ws.marg[:m], ws.v2c[:m],
            self._var_ptr, self._var_edge, self._var_ids, self._edge_var,
            self._clamp_t,
        )
        return ws.marg[:m], ws.v2c[:m]

    def hard_decision(self, marg):
        m = marg.shape[0]
        self._flip ^= 1
        hard = self._ws.hard[self._flip][:m]
        _hard_batch(np.ascontiguousarray(marg), hard)
        return hard

    def converged(self, hard):
        m = hard.shape[0]
        ws = self._ws
        _converged_batch(
            np.ascontiguousarray(hard), ws.synd[:m], ws.feasible[:m],
            ws.done[:m], self._chk_ptr, self._edge_var,
        )
        return ws.done[:m]

    # -- retirement -----------------------------------------------------

    def compact(self, v2c, keep):
        m = self._m
        ws = self._ws
        kept = int(np.count_nonzero(keep))
        ws.v2c[:kept] = v2c[keep]
        ws.sign_syn[:kept] = ws.sign_syn[:m][keep]
        ws.synd[:kept] = ws.synd[:m][keep]
        ws.feasible[:kept] = ws.feasible[:m][keep]
        self._m = kept
        return ws.v2c[:kept]

    # -- multi-iteration fusion API -------------------------------------

    def fused_start(self, syndromes, prior, track_flips):
        """Begin a fused-path chunk (no v2c handed back to Python)."""
        ws, batch, _ = self._begin(syndromes, prior)
        self._track = bool(track_flips)
        ws.marg[:batch] = prior
        ws.hard[1][:batch] = 0  # prev_hard; unread before iteration 2
        if self._track:
            if ws.flips is None:
                ws.flips = np.zeros(
                    (self._cap, self.edges.n_vars), dtype=np.int32
                )
            else:
                ws.flips[:batch] = 0

    def fused_run(self, alphas, it0, prior, groups):
        """Run up to ``len(alphas)`` fused iterations over live rows.

        Returns ``(conv, frozen, stop_rel)`` views: per-row convergence,
        per-row retirement (a frozen row's group saw a convergence at
        relative iteration ``stop_rel``), both valid until the next
        kernel call.
        """
        m = self._m
        ws = self._ws
        if groups is None:
            group_ptr = ws.iota[: m + 1]
        else:
            bounds = np.nonzero(np.diff(groups) != 0)[0] + 1
            group_ptr = np.concatenate(
                ([0], bounds, [m])
            ).astype(np.int64)
        conv = ws.conv[:m]
        conv[:] = False
        flips = ws.flips[:m] if self._track else _EMPTY_FLIPS
        _fused_iterations(
            ws.v2c[:m], ws.c2v[:m],
            np.ascontiguousarray(prior, dtype=self.dtype),
            ws.marg[:m], ws.hard[0][:m], ws.hard[1][:m],
            flips, self._track,
            ws.synd[:m], ws.feasible[:m],
            self._chk_ptr, self._edge_var,
            self._var_ptr, self._var_edge, self._var_ids,
            np.ascontiguousarray(alphas, dtype=self.dtype),
            self._clamp_t, np.int64(it0), group_ptr,
            conv, ws.frozen[:m], ws.stop_rel[:m],
        )
        return conv, ws.frozen[:m], ws.stop_rel[:m]

    @property
    def fused_marg(self):
        return self._ws.marg[: self._m]

    @property
    def fused_hard(self):
        return self._ws.hard[0][: self._m]

    @property
    def fused_flips(self):
        return self._ws.flips[: self._m] if self._track else None

    def fused_compact(self, keep):
        """Drop retired rows from every fused-path state buffer."""
        m = self._m
        ws = self._ws
        kept = int(np.count_nonzero(keep))
        for buf in (ws.v2c, ws.synd, ws.marg, ws.hard[0], ws.hard[1]):
            buf[:kept] = buf[:m][keep]
        ws.feasible[:kept] = ws.feasible[:m][keep]
        if self._track:
            ws.flips[:kept] = ws.flips[:m][keep]
        self._m = kept
