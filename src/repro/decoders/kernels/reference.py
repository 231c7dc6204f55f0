"""Reference CPU kernel: the historical allocating reduceat inner loop.

This is the pre-seam implementation of
:class:`~repro.decoders.bp.MinSumBP` moved behind the
:class:`~repro.decoders.kernels.base.BPKernel` protocol *verbatim*:
every update allocates fresh ``(batch, n_edges)`` temporaries and the
syndrome is verified with the sparse int32 matmul
:func:`repro._matrix.mod2_right_mul`.  It is the semantic ground truth
the fused kernel (and any future GPU kernel) must match bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro._matrix import mod2_right_mul
from repro.decoders.kernels.base import BPKernel

__all__ = ["ReferenceKernel"]


class ReferenceKernel(BPKernel):
    """Allocating reduceat kernel + sparse-matmul parity check.

    Its float sums define the reduction order every other backend
    reproduces bit for bit.
    """

    name = "reference"

    def __init__(self, edges, check_matrix, *, clamp, dtype):
        super().__init__(edges, check_matrix, clamp=clamp, dtype=dtype)
        self._synd = None
        self._sign_syn = None

    def __getstate__(self):
        # Per-chunk scratch, overwritten by start(); never ship it to
        # worker processes (mirrors FusedKernel's workspace dropping).
        state = self.__dict__.copy()
        state["_synd"] = None
        state["_sign_syn"] = None
        return state

    # -- chunk lifecycle ------------------------------------------------

    def start(self, syndromes, prior):
        edges = self.edges
        batch = syndromes.shape[0]
        self._synd = syndromes
        self._sign_syn = (
            1.0 - 2.0 * syndromes[:, edges.edge_check]
        ).astype(self.dtype)
        return np.broadcast_to(
            prior[:, edges.edge_var], (batch, edges.n_edges)
        ).copy()

    @property
    def sign_syn(self):
        return self._sign_syn

    # -- per-iteration steps --------------------------------------------

    def check_update(self, v2c, sign_syn, alpha):
        edges = self.edges
        starts = edges.check_starts
        seg = edges.edge_segment

        neg = v2c < 0
        magnitude = np.abs(v2c)
        parity = np.bitwise_xor.reduceat(neg, starts, axis=1)
        min1 = np.minimum.reduceat(magnitude, starts, axis=1)
        min1_e = min1[:, seg]
        is_min = magnitude == min1_e
        masked = np.where(is_min, np.inf, magnitude)
        min2 = np.minimum.reduceat(masked, starts, axis=1)
        n_min = np.add.reduceat(is_min, starts, axis=1)
        use_second = is_min & (n_min[:, seg] == 1)
        others_min = np.where(use_second, min2[:, seg], min1_e)
        others_min = np.minimum(others_min, self.clamp)
        sign = 1.0 - 2.0 * (parity[:, seg] ^ neg)
        return (alpha * others_min * sign * sign_syn).astype(self.dtype)

    def variable_update(self, c2v, prior):
        edges = self.edges
        c2v_v = c2v[:, edges.to_var_order]
        sums = np.add.reduceat(c2v_v, edges.var_starts, axis=1)
        marg = prior + edges.scatter_var_sums(sums)
        v2c_v = marg[:, edges.edge_var_sorted] - c2v_v
        v2c = np.empty_like(c2v)
        v2c[:, edges.to_var_order] = v2c_v
        np.clip(v2c, -self.clamp, self.clamp, out=v2c)
        return marg, v2c

    def hard_decision(self, marg):
        return (marg <= 0).astype(np.uint8)

    def converged(self, hard):
        syn_hat = mod2_right_mul(hard, self.check_matrix)
        return ~np.any(syn_hat ^ self._synd, axis=1)

    # -- retirement -----------------------------------------------------

    def compact(self, v2c, keep):
        self._synd = self._synd[keep]
        self._sign_syn = self._sign_syn[keep]
        return v2c[keep]
