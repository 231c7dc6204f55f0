"""Normalised min-sum belief propagation (paper Sec. II-B, Eqs. 4-8).

The decoder is fully vectorised over a *batch* of syndromes: messages
live in ``(batch, n_edges)`` arrays and every update is a segment
reduction.  Batching is what makes the speculative BP-SF trials cheap —
decoding 100 trial syndromes costs one batched run, mirroring the
paper's "fully parallelizable" claim on SIMD hardware.

Features reproduced from the paper:

* normalised min-sum check update with damping factor ``α``,
* the adaptive schedule ``α_i = 1 - 2^{-i}``,
* bit-level oscillation tracking (``flip_count``) used by BP-SF to
  choose candidate bits,
* per-shot iteration counts for the convergence/latency studies
  (Figs. 2, 12, 13).
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import ArrayLike, DTypeLike

from repro.decoders.base import BatchDecodeResult, DecodeResult, Decoder
from repro.decoders.kernels import make_kernel, resolve_backend
from repro.decoders.tanner import shared_tanner_edges
from repro.problem import DecodingProblem

__all__ = ["DampingSchedule", "MinSumBP"]

# Cap on the multi-iteration fusion depth: how many BP iterations an
# iteration-fusing kernel may run inside one backend call.  Purely a
# latency/throughput trade (convergence is still checked in-kernel every
# iteration, so results never depend on the depth): a huge span would
# only delay Python-side retirement bookkeeping, never change it.
_FUSION_MAX_SPAN = 32


class DampingSchedule:
    """Damping factor per iteration.

    ``DampingSchedule.adaptive()`` follows the paper:
    ``α_i = 1 - 2^{-i}`` (0.5, 0.75, 0.875, ... -> 1).  A float gives a
    constant factor.
    """

    def __init__(self, kind: str | float = "adaptive") -> None:
        self._constant: float | None
        if isinstance(kind, str):
            if kind != "adaptive":
                raise ValueError(f"unknown damping schedule {kind!r}")
            self._constant = None
        else:
            if not 0.0 < float(kind) <= 1.0:
                raise ValueError("constant damping must lie in (0, 1]")
            self._constant = float(kind)
        self.kind = kind

    @classmethod
    def adaptive(cls) -> "DampingSchedule":
        """The paper's schedule ``α_i = 1 - 2^{-i}``."""
        return cls("adaptive")

    def alpha(self, iteration: int) -> float:
        """Damping factor for a 1-based iteration index."""
        if self._constant is not None:
            return self._constant
        return 1.0 - 2.0 ** (-iteration)


class MinSumBP(Decoder):
    """Flooding-schedule normalised min-sum decoder.

    Parameters
    ----------
    problem:
        The decoding problem (check matrix + priors).
    max_iter:
        Iteration budget per syndrome.
    damping:
        ``"adaptive"`` (paper default) or a constant in (0, 1].
    clamp:
        Message magnitude clip, guards degree-1 checks and saturation.
    track_oscillations:
        Accumulate per-bit flip counters (needed by BP-SF).
    batch_size:
        Rows per internal chunk (at least 1; a memory knob).  Each
        chunk decodes once with the full ``max_iter`` budget.
    backend:
        Inner-loop kernel backend: ``"reference"``, ``"fused"``,
        ``"native"`` or ``"auto"``/``None`` (defer to an active
        :func:`repro.decoders.kernels.use_backend` scope, then the
        ``REPRO_BP_BACKEND`` environment variable, then the default).
        All backends are bit-identical; see
        :mod:`repro.decoders.kernels`.
    """

    def __init__(
        self,
        problem: DecodingProblem,
        *,
        max_iter: int = 100,
        damping: str | float | DampingSchedule = "adaptive",
        clamp: float = 50.0,
        track_oscillations: bool = False,
        dtype: DTypeLike = np.float32,
        batch_size: int = 32,
        backend: str | None = None,
    ) -> None:
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.problem = problem
        self.max_iter = int(max_iter)
        self.damping = (
            damping if isinstance(damping, DampingSchedule)
            else DampingSchedule(damping)
        )
        self.clamp = float(clamp)
        self.track_oscillations = bool(track_oscillations)
        self.dtype = dtype
        self.batch_size = int(batch_size)
        self.edges = shared_tanner_edges(problem.check_matrix)
        self.backend = resolve_backend(backend)
        self._kernel = make_kernel(
            self.backend, self.edges, problem.check_matrix,
            clamp=self.clamp, dtype=dtype,
        )
        self._prior_llr = problem.llr_priors().astype(dtype)
        # Multi-iteration fusion runs K iterations per kernel call, so
        # it is only sound when no subclass hook intercepts the
        # per-iteration protocol (Mem-BP's prior blend, sum-product's
        # check rule).  Such subclasses fall back to the generic loop,
        # which every backend — fusing or not — implements.
        cls = type(self)
        self._uses_fusion = (
            self._kernel.supports_iteration_fusion
            and cls._iteration_prior is MinSumBP._iteration_prior
            and cls._check_update is MinSumBP._check_update
            and cls._variable_update is MinSumBP._variable_update
        )

    # -- public API -----------------------------------------------------

    def decode(
        self, syndrome: np.ndarray, *, prior_llr: ArrayLike | None = None
    ) -> DecodeResult:
        return self.decode_many(
            np.atleast_2d(syndrome), prior_llr=prior_llr
        )[0]

    def decode_many(
        self,
        syndromes: np.ndarray,
        *,
        prior_llr: ArrayLike | None = None,
        stop_groups: ArrayLike | None = None,
    ) -> BatchDecodeResult:
        """Decode a ``(batch, n_checks)`` array of syndromes.

        ``prior_llr`` optionally overrides the channel LLRs: a ``(n,)``
        vector applies to every shot, a ``(batch, n)`` matrix gives each
        shot its own priors.  Per-shot priors are what decimation-style
        post-processors (GDG, posterior modification, perturbed-prior
        ensembles) build on.

        ``stop_groups`` optionally assigns each row a group id (an
        integer array of length ``batch``; rows of one group must be
        contiguous): the moment one row of a group converges, the
        group's other rows stop decoding (reported unconverged, with
        ``iterations`` frozen at the stop point).  This is the
        first-success-wins semantics of the paper's fully parallel
        trial execution — speculative trials of one shot form a group,
        and the first convergence retires the rest of the group's work.
        Groups are never split across internal chunks, so every group
        runs in lockstep and its outcome is independent of what else
        shares the batch.
        """
        syndromes = np.atleast_2d(np.asarray(syndromes, dtype=np.uint8))
        if syndromes.shape[1] != self.edges.n_checks:
            raise ValueError(
                f"syndrome width {syndromes.shape[1]} does not match "
                f"{self.edges.n_checks} checks"
            )
        batch = syndromes.shape[0]
        if batch == 0:
            raise ValueError("at least one syndrome is required")
        prior = self._normalise_prior(prior_llr, batch)
        groups: np.ndarray | None = None
        if stop_groups is None:
            segment_ends: np.ndarray = np.arange(1, batch + 1)
        else:
            groups = np.asarray(stop_groups).reshape(-1)
            if groups.shape[0] != batch:
                raise ValueError(
                    f"stop_groups length {groups.shape[0]} does not "
                    f"match {batch} shots"
                )
            starts = np.nonzero(np.diff(groups) != 0)[0] + 1
            heads = groups[np.append(0, starts)]
            if np.unique(heads).size != heads.size:
                raise ValueError("rows of one stop_group must be contiguous")
            segment_ends = np.append(starts, batch)
        parts = [
            self._decode_chunk(
                syndromes[lo:hi],
                prior if prior.shape[0] == 1 else prior[lo:hi],
                None if groups is None else groups[lo:hi],
            )
            for lo, hi in self._plan_chunks(segment_ends)
        ]
        return BatchDecodeResult.concat(parts)

    def _plan_chunks(self, segment_ends: np.ndarray) -> list[tuple[int, int]]:
        """Row bounds of the chunks, packing whole segments.

        ``segment_ends`` holds the exclusive end row of every
        ``stop_groups`` group, in order.  Each chunk closes at the first
        segment end at least ``batch_size`` rows past its start (the
        last chunk takes the rest), so a group larger than
        ``batch_size`` gets an oversized chunk and no group is ever
        split: every group runs in lockstep from iteration 1, whatever
        else shares the batch.  Plain decoding passes singleton
        segments, which gives a fixed stride of ``batch_size`` rows.
        """
        batch = int(segment_ends[-1])
        bounds: list[tuple[int, int]] = []
        lo = 0
        while lo < batch:
            k = int(np.searchsorted(segment_ends, lo + self.batch_size))
            hi = int(segment_ends[k]) if k < segment_ends.size else batch
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def _normalise_prior(
        self, prior_llr: ArrayLike | None, batch: int
    ) -> np.ndarray:
        """Coerce a prior override to a ``(1, n)`` or ``(batch, n)`` array."""
        if prior_llr is None:
            return self._prior_llr[None, :]
        prior = np.atleast_2d(np.asarray(prior_llr, dtype=self.dtype))
        if prior.shape[1] != self.edges.n_vars:
            raise ValueError(
                f"prior width {prior.shape[1]} does not match "
                f"{self.edges.n_vars} variables"
            )
        if prior.shape[0] not in (1, batch):
            raise ValueError(
                f"prior batch {prior.shape[0]} does not match {batch} shots"
            )
        return prior

    # -- core -----------------------------------------------------------

    def _decode_chunk(
        self,
        syndromes: np.ndarray,
        prior: np.ndarray,
        groups: np.ndarray | None,
    ) -> BatchDecodeResult:
        """Decode one chunk through the kernel backend.

        The loop owns scheduling, damping, convergence retirement and
        the ``stop_groups`` semantics; every array-heavy step (message
        updates, hard decision, parity check, active-state compaction)
        is delegated to ``self._kernel`` so backends can trade
        allocation strategy without touching decode semantics.  The
        ``_iteration_prior`` / ``_check_update`` / ``_variable_update``
        hooks stay on the decoder, so Mem-BP and sum-product subclasses
        work identically on every backend.
        """
        if self._uses_fusion:
            return self._decode_chunk_fused(syndromes, prior, groups)
        kernel = self._kernel
        batch = syndromes.shape[0]
        n = self.edges.n_vars
        max_iter = self.max_iter

        errors = np.zeros((batch, n), dtype=np.uint8)
        marginals = np.broadcast_to(prior, (batch, n)).copy()
        iterations = np.full(batch, max_iter, dtype=np.int64)
        converged = np.zeros(batch, dtype=bool)
        flips_out: np.ndarray | None = (
            np.zeros((batch, n), dtype=np.int32)
            if self.track_oscillations else None
        )

        # Active-state arrays (compacted as shots converge).  The
        # kernel owns the syndrome context and message buffers; the
        # loop keeps the row-index map and the oscillation counters.
        index: np.ndarray = np.arange(batch)
        v2c = kernel.start(syndromes, prior)
        prev_hard: np.ndarray = np.zeros((batch, n), dtype=np.uint8)
        flips: np.ndarray | None = (
            np.zeros((batch, n), dtype=np.int32)
            if self.track_oscillations else None
        )

        marg: np.ndarray = np.broadcast_to(prior, (batch, n))
        for it in range(1, max_iter + 1):
            alpha = self.damping.alpha(it)
            prior_it = self._iteration_prior(prior, marg, it)
            c2v = self._check_update(v2c, kernel.sign_syn, alpha)
            marg, v2c = self._variable_update(c2v, prior_it)
            hard = kernel.hard_decision(marg)

            if flips is not None and it > 1:
                flips += hard ^ prev_hard
            prev_hard = hard

            done = kernel.converged(hard)
            if done.any():
                done_idx = index[done]
                errors[done_idx] = hard[done]
                marginals[done_idx] = marg[done]
                iterations[done_idx] = it
                converged[done_idx] = True
                if flips is not None and flips_out is not None:
                    flips_out[done_idx] = flips[done]
                retire = done
                if groups is not None:
                    # First-success-wins: a converged row retires every
                    # other row of its group at this very iteration.
                    fresh = np.unique(groups[done])
                    killed = ~done & np.isin(groups, fresh)
                    if killed.any():
                        kill_idx = index[killed]
                        errors[kill_idx] = hard[killed]
                        marginals[kill_idx] = marg[killed]
                        iterations[kill_idx] = it
                        if flips is not None and flips_out is not None:
                            flips_out[kill_idx] = flips[killed]
                        retire = done | killed
                keep = ~retire
                if not keep.any():
                    return BatchDecodeResult(
                        errors, converged, iterations, marginals, flips_out
                    )
                index = index[keep]
                v2c = kernel.compact(v2c, keep)
                prev_hard = prev_hard[keep]
                if flips is not None:
                    flips = flips[keep]
                if prior.shape[0] != 1:
                    prior = prior[keep]
                if groups is not None:
                    groups = groups[keep]
                marg = marg[keep]
                hard = hard[keep]

        # Leftovers did not converge within the budget.
        errors[index] = hard
        marginals[index] = marg
        if flips is not None and flips_out is not None:
            flips_out[index] = flips
        return BatchDecodeResult(
            errors, converged, iterations, marginals, flips_out
        )

    def _decode_chunk_fused(
        self,
        syndromes: np.ndarray,
        prior: np.ndarray,
        groups: np.ndarray | None,
    ) -> BatchDecodeResult:
        """Decode one chunk through an iteration-fusing kernel.

        The kernel runs spans of up to ``_FUSION_MAX_SPAN`` iterations
        per call, checking convergence in-kernel every iteration and
        freezing each row (or its whole ``stop_groups`` group — first
        success wins) at the exact iteration it converged, so outputs
        match the generic one-call-per-iteration loop; only the
        Python-side bookkeeping cadence changes.  The span is adaptive:
        1 until the first convergence activity (early iterations rarely
        converge but cheap spans keep retirement prompt on easy
        batches), then doubling — converged rows are compacted away
        between calls, so long spans run only on the shrinking hard
        tail.
        """
        # The fusion API is an optional extension outside ``BPKernel``.
        kernel: Any = self._kernel
        batch = syndromes.shape[0]
        n = self.edges.n_vars
        max_iter = self.max_iter

        errors = np.zeros((batch, n), dtype=np.uint8)
        marginals = np.broadcast_to(prior, (batch, n)).copy()
        iterations = np.full(batch, max_iter, dtype=np.int64)
        converged = np.zeros(batch, dtype=bool)
        flips_out = (
            np.zeros((batch, n), dtype=np.int32)
            if self.track_oscillations else None
        )

        index: np.ndarray = np.arange(batch)
        alphas = np.array(
            [self.damping.alpha(i) for i in range(1, max_iter + 1)],
            dtype=self.dtype,
        )
        kernel.fused_start(
            syndromes, prior, groups, alphas, self.track_oscillations
        )

        it = 0
        span = 1
        active = False
        while it < max_iter:
            width = min(span, max_iter - it)
            conv, frozen, stop_rel = kernel.fused_run(it, width)
            if frozen.any():
                active = True
                gone = np.nonzero(frozen)[0]
                done_idx = index[gone]
                errors[done_idx] = kernel.fused_hard[gone]
                marginals[done_idx] = kernel.fused_marg[gone]
                iterations[done_idx] = it + stop_rel[gone]
                converged[done_idx] = conv[gone]
                if flips_out is not None:
                    flips_out[done_idx] = kernel.fused_flips[gone]
                keep = ~frozen
                if not keep.any():
                    return BatchDecodeResult(
                        errors, converged, iterations, marginals, flips_out
                    )
                index = index[keep]
                kernel.fused_compact(keep)
            it += width
            if active:
                span = min(span * 2, _FUSION_MAX_SPAN)

        # Leftovers did not converge within the budget.
        errors[index] = kernel.fused_hard
        marginals[index] = kernel.fused_marg
        if flips_out is not None:
            flips_out[index] = kernel.fused_flips
        return BatchDecodeResult(
            errors, converged, iterations, marginals, flips_out
        )

    def _iteration_prior(
        self, prior: np.ndarray, marg_prev: np.ndarray, iteration: int
    ) -> np.ndarray:
        """Prior used at ``iteration`` (hook for memory-augmented BP).

        Plain BP uses the channel prior every iteration; Mem-BP blends
        it with the previous marginals (:mod:`repro.decoders.membp`).
        """
        return prior

    def _check_update(
        self, v2c: np.ndarray, sign_syn: np.ndarray, alpha: float
    ) -> np.ndarray:
        """Normalised min-sum check-node update (Eq. 6).

        Subclass hook: sum-product BP replaces this with the exact
        tanh rule; the default delegates to the kernel backend.
        """
        return self._kernel.check_update(v2c, sign_syn, alpha)

    def _variable_update(
        self, c2v: np.ndarray, prior: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Marginals (Eq. 7) and next variable-to-check messages (Eq. 5)."""
        return self._kernel.variable_update(c2v, prior)

