"""BP-SF: belief propagation with syndrome-flip post-processing.

The paper's contribution (Algorithm 1).  The flow is:

1. run BP with oscillation tracking;
2. on failure, take the ``|Φ|`` most oscillating bits as candidates and
   generate trial vectors ``t`` (subsets of ``Φ``);
3. for each trial, flip the syndrome — ``s' = s ⊕ t·Hᵀ`` — and decode
   ``s'`` with a short, independent BP instance;
4. return ``ê ⊕ t`` for the first trial whose BP converges (flipping
   ``t`` back restores consistency with the original syndrome).

Because any syndrome-satisfying solution is very likely in the correct
coset for degenerate high-distance qLDPC codes, no maximum-likelihood
selection is performed — first success wins (paper Sec. IV).

All trials decode in one *batched* BP call, which is the software
analogue of the fully parallel hardware execution the paper targets.
``decode_many`` goes further and pools trials **across shots**: the
trial syndromes of every failed shot in a batch are decoded by a single
trial-BP call, so a batch with ``F`` failures costs one pooled BP run
instead of ``F`` sequential ones.
Latency accounting distinguishes

* ``iterations`` — serial-equivalent cost (initial + every trial up to
  and including the first success, failed trials charged ``max_iter``),
* ``parallel_iterations`` — initial + the fastest successful trial.
"""

from __future__ import annotations

import time

import numpy as np

from repro._matrix import mod2_right_mul
from repro.decoders.base import (
    BatchDecodeResult,
    DecodeResult,
    Decoder,
    distribute_batch_time,
)
from repro.decoders.bp import MinSumBP
from repro.decoders.layered import LayeredMinSumBP
from repro.decoders.trial_vectors import (
    exhaustive_trials,
    sampled_trials,
    top_oscillating_bits,
    weighted_trials,
)
from repro.problem import DecodingProblem

__all__ = ["BPSFDecoder"]


def attribute_pooled_trials(
    pooled, shot_counts, budget, selection, out, error_for
) -> None:
    """Write per-shot winner accounting for a pooled trial decode.

    ``pooled`` is the trial BP's :class:`BatchDecodeResult` over the
    concatenated trial rows of every failed shot; ``shot_counts`` is
    the shot-index map ``[(shot, n_trials), ...]`` in pool order.  The
    winner columns of ``out`` (an under-construction batch result) are
    updated in place; ``error_for(shot, winner, pool_row)`` returns the
    corrected error vector for a rescued shot.  Shared by BP-SF and the
    prior-modification ensembles so their accounting cannot drift.

    Selection rules: ``"serial"`` returns the first success in
    generation order and charges every earlier trial its own cost
    (failed trials cost the full budget); ``"parallel"`` returns the
    first success in time (fewest iterations, ties to the lowest
    index) and charges the full budget for every trial ahead of the
    winner, an upper bound since retired trials never report.
    """
    offset = 0
    for i, k in shot_counts:
        conv = pooled.converged[offset:offset + k]
        iters = pooled.iterations[offset:offset + k]
        out.trials_attempted[i] = k
        if conv.any():
            if selection == "parallel":
                conv_idx = np.nonzero(conv)[0]
                winner = int(conv_idx[np.argmin(iters[conv_idx])])
                out.iterations[i] += winner * budget + int(iters[winner])
                out.parallel_iterations[i] += int(iters[winner])
            else:
                winner = int(np.argmax(conv))
                out.iterations[i] += int(
                    np.where(conv[:winner], iters[:winner], budget).sum()
                ) + int(iters[winner])
                out.parallel_iterations[i] += int(iters[conv].min())
            out.errors[i] = error_for(i, winner, offset + winner)
            out.converged[i] = True
            out.stage[i] = "post"
            out.winning_trial[i] = winner
        else:
            out.iterations[i] += budget * k
            out.parallel_iterations[i] += budget
        offset += k


class BPSFDecoder(Decoder):
    """The paper's speculative syndrome-flip decoder.

    Parameters
    ----------
    problem:
        Decoding problem (check matrix, priors, logicals).
    max_iter:
        Iteration budget of the initial BP attempt (``BP100`` in the
        paper's labels).
    phi:
        Candidate set size ``|Φ|``.
    w_max:
        Maximum trial-vector weight.
    n_s:
        Samples per weight (sampled strategy only).
    strategy:
        ``"exhaustive"`` (code capacity, all subsets up to ``w_max``),
        ``"sampled"`` (circuit level, ``n_s`` uniform subsets per
        weight) or ``"weighted"`` (subsets sampled proportionally to
        oscillation counts — the paper's future-work variant).
    trial_max_iter:
        Iteration budget per trial BP (defaults to ``max_iter``).
    selection:
        Winner-selection rule among converged trials.  ``"serial"``
        (default) returns the first success in *generation* order —
        the serial-execution return rule the repository's accounting
        has always used.  ``"parallel"`` returns the first success in
        *time* (fewest iterations; ties break to the lowest generation
        index) — the paper's fully-parallel hardware semantics, where
        all trials run in lockstep and the first to converge wins.  In
        the parallel mode the pooled batch path retires a shot's
        remaining trials the moment one converges (group early-stop),
        so rescued shots stop paying for trials that can no longer win.
        The early-stop execution needs a flooding-schedule trial BP
        (:class:`MinSumBP` or a subclass); with a layered or custom
        ``bp_cls`` the pooled trials simply run to their full budget —
        identical results and accounting, none of the savings.  Either
        way, ``iterations`` charges the full trial budget for every
        trial ahead of the winner in generation order (an upper bound,
        since retired trials never report their own counts).
    layered:
        Use the layered schedule for both the initial and trial BP.
    backend:
        Kernel backend for the inner BP (``"reference"``/``"fused"``/
        ``"native"``/``"auto"``; see :mod:`repro.decoders.kernels`).  Forwarded to
        both the initial and trial decoders when the inner BP is a
        :class:`~repro.decoders.bp.MinSumBP` subclass; the layered
        schedule has its own update structure and ignores the knob.
    seed:
        Seed for the trial-sampling RNG (sampled strategy).
    candidate_selector:
        Optional override ``f(flip_counts, phi, marginals, rng) ->
        indices`` replacing oscillation-based selection (used by the
        ablation studies in ``benchmarks/``).
    """

    def __init__(
        self,
        problem: DecodingProblem,
        *,
        max_iter: int = 100,
        phi: int = 50,
        w_max: int = 10,
        n_s: int = 10,
        strategy: str = "sampled",
        trial_max_iter: int | None = None,
        selection: str = "serial",
        damping: str | float = "adaptive",
        layered: bool = False,
        backend: str | None = None,
        seed: int = 0,
        bp_kwargs: dict | None = None,
        candidate_selector=None,
        bp_cls=None,
    ):
        if strategy not in ("sampled", "exhaustive", "weighted"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if selection not in ("serial", "parallel"):
            raise ValueError(f"unknown selection {selection!r}")
        if bp_cls is not None and layered:
            raise ValueError("pass either bp_cls or layered, not both")
        self.candidate_selector = candidate_selector
        self.selection = selection
        self.problem = problem
        self.phi = int(phi)
        self.w_max = int(w_max)
        self.n_s = int(n_s)
        self.strategy = strategy
        self._rng = np.random.default_rng(seed)
        kwargs = dict(bp_kwargs or {})
        # Sec. VII: BP-SF composes with any inner BP whose failures
        # oscillate — pass e.g. SumProductBP or MemoryMinSumBP here.
        if bp_cls is None:
            bp_cls = LayeredMinSumBP if layered else MinSumBP
        if backend is not None and issubclass(bp_cls, MinSumBP):
            kwargs["backend"] = backend
        self.bp_initial = bp_cls(
            problem,
            max_iter=max_iter,
            damping=damping,
            track_oscillations=True,
            **kwargs,
        )
        self.bp_trial = bp_cls(
            problem,
            max_iter=trial_max_iter or max_iter,
            damping=damping,
            **kwargs,
        )
        tag = ", par" if selection == "parallel" else ""
        self.name = (
            f"BP-SF(BP{max_iter}, wmax={w_max}, phi={phi}, ns={n_s}{tag})"
        )

    def reseed(self, rng: np.random.Generator) -> None:
        """Reset the trial-sampling stream (sharded-engine discipline)."""
        self._rng = rng

    # -- trial generation -------------------------------------------------

    def generate_trials(self, flip_counts, marginals) -> list[tuple[int, ...]]:
        """Trial vectors for one failed decode (Algorithm 1's inner set)."""
        if self.candidate_selector is not None:
            candidates = self.candidate_selector(
                flip_counts, self.phi, marginals, self._rng
            )
        else:
            candidates = top_oscillating_bits(flip_counts, self.phi, marginals)
        if self.strategy == "exhaustive":
            return exhaustive_trials(candidates, self.w_max)
        if self.strategy == "weighted":
            flips = np.asarray(flip_counts)
            return weighted_trials(
                candidates, flips[candidates], self.w_max, self.n_s,
                self._rng,
            )
        return sampled_trials(candidates, self.w_max, self.n_s, self._rng)

    def trial_syndromes(self, syndrome, trials) -> np.ndarray:
        """Flipped syndromes ``s ⊕ t·Hᵀ`` for each trial vector.

        The flip matrix is built in one fancy-indexed assignment from
        the flattened trial tuples — with hundreds of trials per failed
        shot (exhaustive strategy) a per-trial Python loop is
        measurably slower than the decode itself.
        """
        n = self.problem.n_mechanisms
        flips = np.zeros((len(trials), n), dtype=np.uint8)
        lens = np.fromiter(
            (len(t) for t in trials), dtype=np.intp, count=len(trials)
        )
        if lens.sum() > 0:
            rows = np.repeat(np.arange(len(trials), dtype=np.intp), lens)
            cols = np.fromiter(
                (bit for trial in trials for bit in trial),
                dtype=np.intp,
                count=int(lens.sum()),
            )
            flips[rows, cols] = 1
        deltas = mod2_right_mul(flips, self.problem.check_matrix)
        return np.asarray(syndrome, dtype=np.uint8)[None, :] ^ deltas

    # -- decoding ----------------------------------------------------------

    def decode(self, syndrome) -> DecodeResult:
        start = time.perf_counter()
        result = self.decode_many(np.atleast_2d(syndrome))[0]
        result.time_seconds = time.perf_counter() - start
        return result

    def decode_many(self, syndromes) -> BatchDecodeResult:
        """Batch decode with *cross-shot trial pooling*.

        The initial BP runs vectorised over the whole batch; then the
        trial syndromes of **every** failed shot are collected into one
        pooled array and decoded by a **single** ``decode_many`` call on
        the trial BP — the software analogue of the paper's fully
        parallel hardware execution.  A batch with ``F`` failures costs
        one pooled BP run instead of ``F`` sequential runs; a shot-index
        map attributes winners back to their shots.

        All branches (converged, no-trials, post-processed, failed)
        share the same column bookkeeping, so ``marginals``,
        ``flip_counts`` and ``parallel_iterations`` are preserved for
        every shot exactly as the single-shot path reports them.
        """
        start = time.perf_counter()
        syndromes = np.atleast_2d(np.asarray(syndromes, dtype=np.uint8))
        initial = self.bp_initial.decode_many(syndromes)

        # Columns start from the initial BP; __post_init__ derives the
        # stage/parallel/initial defaults the attribution then updates.
        result = BatchDecodeResult(
            errors=initial.errors.copy(),
            converged=initial.converged.copy(),
            iterations=initial.iterations.astype(np.int64).copy(),
            marginals=initial.marginals,
            flip_counts=initial.flip_counts,
        )

        # Pool the trial syndromes of all failed shots; `shot_trials`
        # is the shot-index map used to attribute winners afterwards.
        shot_trials: list[tuple[int, list[tuple[int, ...]]]] = []
        pooled_synd: list[np.ndarray] = []
        for i in np.nonzero(~initial.converged)[0]:
            trials = self.generate_trials(
                initial.flip_counts[i], initial.marginals[i]
            )
            if not trials:
                continue
            shot_trials.append((int(i), trials))
            pooled_synd.append(self.trial_syndromes(syndromes[i], trials))

        if pooled_synd:
            all_synd = np.concatenate(pooled_synd)
            if self.selection == "parallel" and isinstance(
                self.bp_trial, MinSumBP
            ):
                # Group early-stop: a shot's first converging trial
                # retires the rest of that shot's pool rows.
                groups = np.repeat(
                    np.arange(len(shot_trials)),
                    [len(t) for _, t in shot_trials],
                )
                pooled = self.bp_trial.decode_many(
                    all_synd, stop_groups=groups
                )
            else:
                pooled = self.bp_trial.decode_many(all_synd)

            trials_of = dict(shot_trials)

            def error_for(shot, winner, pool_row):
                error = pooled.errors[pool_row].copy()
                error[list(trials_of[shot][winner])] ^= 1
                return error

            attribute_pooled_trials(
                pooled,
                [(i, len(t)) for i, t in shot_trials],
                self.bp_trial.max_iter,
                self.selection,
                result,
                error_for,
            )

        elapsed = time.perf_counter() - start
        distribute_batch_time(result, elapsed)
        return result
