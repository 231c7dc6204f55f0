"""Fused CPU kernel: zero-allocation inner loop + edge-domain parity.

Strategy (vs. :class:`~repro.decoders.kernels.reference.ReferenceKernel`):

* **One per-chunk workspace.**  Every temporary of the min-sum check
  update, the variable update and the parity check is preallocated once
  (and reused across iterations and chunks) with ``out=`` ufunc
  arguments, replacing the ~10 fresh ``(batch, n_edges)`` arrays the
  reference allocates per iteration.
* **Uniform-degree strided reductions.**  qLDPC check matrices have a
  uniform check degree ``d``, so the check-sorted edge axis reshapes to
  a contiguous ``(batch, checks, d)`` view and each segment reduction
  becomes ``d - 1`` strided elementwise ops on column slices — an order
  of magnitude cheaper than ``ufunc.reduceat``'s per-segment dispatch.
  ``min``/``xor`` are exact under any evaluation order, so this is
  bit-identical; the min-sum magnitudes use a streaming two-smallest
  recurrence whose duplicate-counting ``min2`` equals ``min1`` whenever
  the minimum is degenerate — selecting it at *every* per-check-minimum
  edge reproduces the reference's ``n_min``/masked-``min2`` logic value
  for value.  Order-*sensitive* float sums (the variable update) always
  go through ``reduceat`` itself.  Mixed-degree graphs (circuit-level
  DEMs) fall back to ``reduceat`` over the same workspace.
* **Per-check scaling + sign-bit application.**  ``alpha * min(m,
  clamp)`` is computed on the two per-check magnitudes before edge
  expansion (checks ≪ edges), and the combined message sign
  ``(-1)^{parity ⊕ neg ⊕ s_c}`` is applied by XORing the IEEE sign bit
  through a uint view — multiplying a float by exactly ``±1.0`` is a
  pure sign flip, so this matches the reference's float64
  ``sign * sign_syn`` detour bit for bit.
* **Edge-domain parity check.**  The per-iteration syndrome
  verification drops the sparse int32 matmul (``mod2_right_mul``) for
  a uint8 xor of ``hard[:, edge_var]`` over check segments.  Checks
  with no edges are handled by a per-chunk feasibility mask (a row
  whose syndrome is 1 on an empty check can never converge — exactly
  what the matmul reports).

``tests/decoders/test_kernel_parity.py`` asserts equality with the
reference on every output column, across dtypes, damping schedules,
subclasses and ``stop_groups``.

The variable-side sums use the :meth:`TannerEdges.scatter_var_sums`
fast path when every variable has an edge (the common case): the
per-variable sum array *is* the full-width array, no zeros allocation
or fancy assignment.
"""

from __future__ import annotations

import numpy as np

from repro.decoders.kernels.base import BPKernel

__all__ = ["FusedKernel"]

# uint view type used to flip IEEE sign bits in-dtype.
_SIGN_VIEWS = {
    np.dtype(np.float32): (np.uint32, np.uint32(1 << 31)),
    np.dtype(np.float64): (np.uint64, np.uint64(1 << 63)),
}


class _Workspace:
    """Preallocated per-chunk buffers (capacity rows, sliced to batch)."""

    def __init__(self, cap, edges, dtype):
        e, n = edges.n_edges, edges.n_vars
        c = edges.check_ids.shape[0]
        v = edges.var_ids.shape[0]
        f = dtype
        uniform = edges.uniform_check_degree is not None
        # Edge-domain scratch (check-sorted unless noted).
        self.v2c = np.empty((cap, e), f)
        self.c2v = np.empty((cap, e), f)
        self.sign_syn = np.empty((cap, e), f)
        self.magnitude = np.empty((cap, e), f)      # also reused as take dest
        self.c2v_v = np.empty((cap, e), f)          # var-sorted messages
        self.syn_neg = np.empty((cap, e), bool)     # sign_syn < 0, per chunk
        self.neg = np.empty((cap, e), bool)
        self.is_min = np.empty((cap, e), bool)
        self.bxor = np.empty((cap, e), bool)
        self.hard_e = np.empty((cap, e), np.uint8)
        if dtype in _SIGN_VIEWS:
            self.signbits = np.empty((cap, e), _SIGN_VIEWS[dtype][0])
        else:
            self.signbits = None
            self.signbuf = np.empty((cap, e), f)
        # Check-domain scratch (non-empty checks).
        self.parity = np.empty((cap, c), bool)
        self.min1 = np.empty((cap, c), f)
        self.min2 = np.empty((cap, c), f)
        self.tmp_c = np.empty((cap, c), f)
        self.par_u8 = np.empty((cap, c), np.uint8)
        self.synd_e = np.empty((cap, c), np.uint8)
        self.neq = np.empty((cap, c), bool)
        # The reduceat fallback additionally needs masked magnitudes,
        # minimum multiplicities and per-edge gathers of them.
        self.masked = None if uniform else np.empty((cap, e), f)
        self.others = None if uniform else np.empty((cap, e), f)
        self.use2 = None if uniform else np.empty((cap, e), bool)
        self.n_min = None if uniform else np.empty((cap, c), np.int64)
        self.nmin_e = None if uniform else np.empty((cap, e), np.int64)
        # Variable-domain scratch.
        self.sums = np.empty((cap, v), f)
        self.marg = np.empty((cap, n), f)
        # Isolated columns stay zero forever; zero once here, never again.
        self.scatter = (
            None if edges.all_vars_active else np.zeros((cap, n), f)
        )
        # Hard-decision ping-pong (the loop keeps `prev_hard` bound to
        # the buffer the previous iteration wrote).
        self.hard = [np.empty((cap, n), np.uint8), np.empty((cap, n), np.uint8)]
        self.done = np.empty(cap, bool)
        self.feasible = (
            None if edges.all_checks_nonempty else np.empty(cap, bool)
        )


class FusedKernel(BPKernel):
    """Workspace-reusing min-sum kernel with edge-domain parity checks.

    Float sums deliberately stay on ``add.reduceat``, matching the
    reference's reduction order bit for bit.
    """

    name = "fused"

    def __init__(self, edges, check_matrix, *, clamp, dtype):
        super().__init__(edges, check_matrix, clamp=clamp, dtype=dtype)
        self._d_chk = edges.uniform_check_degree
        self._ws = None
        self._cap = 0
        self._m = 0          # live rows of the current chunk
        self._flip = 0       # hard-decision ping-pong toggle

    # -- pickling: workspace is transient scratch, never ship it --------

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_ws"] = None
        state["_cap"] = 0
        state["_m"] = 0
        state["_flip"] = 0
        return state

    # -- chunk lifecycle ------------------------------------------------

    def _ensure(self, batch):
        if self._ws is None or batch > self._cap:
            self._cap = batch
            self._ws = _Workspace(batch, self.edges, self.dtype)
        return self._ws

    def start(self, syndromes, prior):
        edges = self.edges
        batch = syndromes.shape[0]
        ws = self._ensure(batch)
        self._m = batch
        self._flip = 0

        # (-1)^{s_c} per edge, in-dtype (values are exactly +-1.0),
        # plus its bool form for the fused sign application.
        syndromes.take(edges.edge_check, axis=1, out=ws.hard_e[:batch])
        np.multiply(ws.hard_e[:batch], -2.0, out=ws.sign_syn[:batch])
        np.add(ws.sign_syn[:batch], 1.0, out=ws.sign_syn[:batch])
        np.not_equal(ws.hard_e[:batch], 0, out=ws.syn_neg[:batch])

        # Syndrome restricted to non-empty checks (the comparison
        # target of the edge-domain parity check), plus feasibility of
        # rows whose syndrome touches an empty check.
        syndromes.take(edges.check_ids, axis=1, out=ws.synd_e[:batch])
        if ws.feasible is not None:
            empty_bits = syndromes[:, edges.empty_check_ids]
            np.logical_not(empty_bits.any(axis=1), out=ws.feasible[:batch])

        v2c = ws.v2c[:batch]
        if prior.shape[0] == batch:
            prior.take(edges.edge_var, axis=1, out=v2c)
        else:
            v2c[...] = prior[:, edges.edge_var]
        return v2c

    @property
    def sign_syn(self):
        return self._ws.sign_syn[: self._m]

    # -- check-node update ----------------------------------------------

    def check_update(self, v2c, sign_syn, alpha):
        """Min-sum check update.

        The combined sign is applied from the kernel's own syndrome
        mask, so the ``sign_syn`` argument is assumed to be
        :attr:`sign_syn` (which is what the decode loop passes).
        """
        m = v2c.shape[0]
        ws = self._ws
        neg = ws.neg[:m]
        magnitude = ws.magnitude[:m]
        c2v = ws.c2v[:m]
        bxor = ws.bxor[:m]

        np.less(v2c, 0, out=neg)
        np.abs(v2c, out=magnitude)
        # The helpers fill c2v with the scaled magnitudes and bxor with
        # the per-edge parity-exclusion bit (parity ^ neg).
        if self._d_chk is not None:
            self._magnitudes_uniform(m, alpha, c2v)
        else:
            self._magnitudes_reduceat(m, alpha, c2v)

        # Combined sign (-1)^{parity ^ neg ^ s_c}: parity of the other
        # inputs' signs times the syndrome sign.  The factors are
        # exactly +-1.0, so flipping the IEEE sign bit through a uint
        # view matches the reference's float64 multiply detour bit for
        # bit.
        np.bitwise_xor(bxor, ws.syn_neg[:m], out=bxor)
        if ws.signbits is not None:
            view_type, bit = _SIGN_VIEWS[self.dtype]
            signbits = ws.signbits[:m]
            np.multiply(bxor, bit, out=signbits)
            cv = c2v.view(view_type)
            np.bitwise_xor(cv, signbits, out=cv)
        else:
            np.copyto(ws.signbuf[:m], 1.0)
            np.copyto(ws.signbuf[:m], -1.0, where=bxor)
            np.multiply(c2v, ws.signbuf[:m], out=c2v)
        return c2v

    def _magnitudes_uniform(self, m, alpha, c2v):
        """Check magnitudes via strided two-smallest recurrence.

        ``min2`` counts duplicates (it equals ``min1`` when the minimum
        is degenerate), so selecting it at *every* minimum edge equals
        the reference's unique-minimum (``n_min == 1``) rule: with a
        degenerate minimum the reference keeps ``min1`` — the very same
        value.  ``min``/``max`` are exact in any order, so the strided
        evaluation is bit-identical to ``reduceat``'s.
        """
        ws = self._ws
        d = self._d_chk
        c = self.edges.check_ids.shape[0]
        mag3 = ws.magnitude[:m].reshape(m, c, d)
        neg3 = ws.neg[:m].reshape(m, c, d)
        min1 = ws.min1[:m]
        min2 = ws.min2[:m]
        tmp = ws.tmp_c[:m]
        parity = ws.parity[:m]

        np.copyto(min1, mag3[:, :, 0])
        min2.fill(np.inf)
        np.copyto(parity, neg3[:, :, 0])
        for k in range(1, d):
            x = mag3[:, :, k]
            np.maximum(min1, x, out=tmp)
            np.minimum(min2, tmp, out=min2)
            np.minimum(min1, x, out=min1)
            np.bitwise_xor(parity, neg3[:, :, k], out=parity)

        is_min3 = ws.is_min[:m].reshape(m, c, d)
        np.equal(mag3, min1[:, :, None], out=is_min3)
        np.bitwise_xor(parity[:, :, None], neg3, out=ws.bxor[:m].reshape(m, c, d))
        # Scale per check (checks << edges), then expand to edges.
        np.minimum(min1, self.clamp, out=min1)
        np.multiply(min1, alpha, out=min1)
        np.minimum(min2, self.clamp, out=min2)
        np.multiply(min2, alpha, out=min2)
        c2v3 = c2v.reshape(m, c, d)
        np.copyto(c2v3, min1[:, :, None])
        np.copyto(c2v3, min2[:, :, None], where=is_min3)

    def _magnitudes_reduceat(self, m, alpha, c2v):
        """Mixed-degree fallback: reduceat over the shared workspace."""
        edges = self.edges
        starts = edges.check_starts
        seg = edges.edge_segment
        ws = self._ws
        magnitude = ws.magnitude[:m]
        is_min = ws.is_min[:m]
        masked = ws.masked[:m]
        others = ws.others[:m]
        use2 = ws.use2[:m]

        np.bitwise_xor.reduceat(ws.neg[:m], starts, axis=1, out=ws.parity[:m])
        np.minimum.reduceat(magnitude, starts, axis=1, out=ws.min1[:m])
        ws.min1[:m].take(seg, axis=1, out=others)          # min1 per edge
        np.equal(magnitude, others, out=is_min)
        np.copyto(masked, magnitude)
        np.copyto(masked, np.inf, where=is_min)
        np.minimum.reduceat(masked, starts, axis=1, out=ws.min2[:m])
        np.add.reduceat(is_min, starts, axis=1, out=ws.n_min[:m])
        ws.n_min[:m].take(seg, axis=1, out=ws.nmin_e[:m])
        np.equal(ws.nmin_e[:m], 1, out=use2)
        np.logical_and(is_min, use2, out=use2)
        ws.min2[:m].take(seg, axis=1, out=magnitude)       # min2 per edge
        np.copyto(others, magnitude, where=use2)
        np.minimum(others, self.clamp, out=others)
        np.multiply(others, alpha, out=c2v)
        ws.parity[:m].take(seg, axis=1, out=ws.bxor[:m])
        np.bitwise_xor(ws.bxor[:m], ws.neg[:m], out=ws.bxor[:m])

    # -- variable-node update -------------------------------------------

    def variable_update(self, c2v, prior):
        edges = self.edges
        m = c2v.shape[0]
        ws = self._ws
        c2v_v = ws.c2v_v[:m]
        sums = ws.sums[:m]
        marg = ws.marg[:m]
        marg_e = ws.magnitude[:m]
        v2c = ws.v2c[:m]

        c2v.take(edges.to_var_order, axis=1, out=c2v_v)
        # Float addition is order-sensitive, and reduceat's in-segment
        # accumulation order is an implementation detail — so the sums
        # always go through reduceat itself to stay bit-identical to
        # the reference (only order-free reductions use the strided
        # fast path).
        np.add.reduceat(c2v_v, edges.var_starts, axis=1, out=sums)
        if ws.scatter is None:
            np.add(prior, sums, out=marg)
        else:
            scatter = ws.scatter[:m]
            scatter[:, edges.var_ids] = sums
            np.add(prior, scatter, out=marg)
        marg.take(edges.edge_var_sorted, axis=1, out=marg_e)
        np.subtract(marg_e, c2v_v, out=c2v_v)
        c2v_v.take(edges.from_var_order, axis=1, out=v2c)
        np.clip(v2c, -self.clamp, self.clamp, out=v2c)
        return marg, v2c

    # -- hard decision + parity check -----------------------------------

    def hard_decision(self, marg):
        m = marg.shape[0]
        self._flip ^= 1
        hard = self._ws.hard[self._flip][:m]
        np.less_equal(marg, 0, out=hard)
        return hard

    def converged(self, hard):
        edges = self.edges
        m = hard.shape[0]
        ws = self._ws
        hard_e = ws.hard_e[:m]
        par = ws.par_u8[:m]
        hard.take(edges.edge_var, axis=1, out=hard_e)
        if self._d_chk is not None:
            d = self._d_chk
            h3 = hard_e.reshape(m, edges.check_ids.shape[0], d)
            np.copyto(par, h3[:, :, 0])
            for k in range(1, d):
                np.bitwise_xor(par, h3[:, :, k], out=par)
        else:
            np.bitwise_xor.reduceat(
                hard_e, edges.check_starts, axis=1, out=par
            )
        np.not_equal(par, ws.synd_e[:m], out=ws.neq[:m])
        done = ws.done[:m]
        np.logical_or.reduce(ws.neq[:m], axis=1, out=done)
        np.logical_not(done, out=done)
        if ws.feasible is not None:
            np.logical_and(done, ws.feasible[:m], out=done)
        return done

    # -- retirement -----------------------------------------------------

    def compact(self, v2c, keep):
        m = self._m
        ws = self._ws
        kept = int(np.count_nonzero(keep))
        # Forward copy into the head of each live-state buffer (the
        # boolean gather makes one shrinking temp per buffer; all other
        # scratch is rewritten from scratch each iteration).
        ws.v2c[:kept] = v2c[keep]
        ws.sign_syn[:kept] = ws.sign_syn[:m][keep]
        ws.syn_neg[:kept] = ws.syn_neg[:m][keep]
        ws.synd_e[:kept] = ws.synd_e[:m][keep]
        if ws.feasible is not None:
            ws.feasible[:kept] = ws.feasible[:m][keep]
        self._m = kept
        return ws.v2c[:kept]
