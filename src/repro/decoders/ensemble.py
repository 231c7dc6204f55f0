"""Prior/posterior-modification post-processors (related-work baselines).

The paper's Sec. IV stresses that BP-SF flips the **syndrome** rather
than the decoder's soft information, "which distinguishes our BP-SF
approach from that in [15], which modifies the posterior information
instead of the syndrome".  To make that comparison concrete this
module implements the posterior-modification family as decoders with
the same interface:

* :class:`PosteriorFlipDecoder` — Chytas et al. [5] / Koutsioumpas et
  al. [15] style: candidate (oscillating) bits have their *prior* LLR
  modified — erased to 0 or asserted to "this bit is an error" — and
  BP re-runs on the **original** syndrome once per trial subset.
* :class:`PerturbedEnsembleBP` — Poulin & Chung [19] style: on failure
  BP re-runs with randomly perturbed priors until one attempt
  converges.

Both use the per-shot-prior interface of
:class:`~repro.decoders.bp.MinSumBP`, so all trials of one shot decode
as a single vectorised batch, and both share BP-SF's first-success
return rule and iteration accounting, making ablations head-to-head
(``benchmarks/test_ablations.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.decoders.base import (
    BatchDecodeResult,
    DecodeResult,
    Decoder,
    distribute_batch_time,
)
from repro.decoders.bp import MinSumBP
from repro.decoders.bpsf import attribute_pooled_trials
from repro.decoders.trial_vectors import (
    exhaustive_trials,
    sampled_trials,
    top_oscillating_bits,
)
from repro.problem import DecodingProblem

__all__ = ["PosteriorFlipDecoder", "PerturbedEnsembleBP"]


class _SpeculativePriorDecoder(Decoder):
    """Shared skeleton: initial BP, then prior-modified retries."""

    def __init__(
        self,
        problem: DecodingProblem,
        *,
        max_iter: int = 100,
        trial_iter: int | None = None,
        seed: int | None = None,
        **kwargs,
    ):
        self.problem = problem
        kwargs.setdefault("track_oscillations", True)
        self.bp_initial = MinSumBP(problem, max_iter=max_iter, **kwargs)
        kwargs_trial = dict(kwargs, track_oscillations=False)
        self.bp_trial = MinSumBP(
            problem,
            max_iter=max_iter if trial_iter is None else trial_iter,
            **kwargs_trial,
        )
        self._rng = np.random.default_rng(seed)

    def reseed(self, rng: np.random.Generator) -> None:
        """Reset the trial-sampling stream (sharded-engine discipline)."""
        self._rng = rng

    def decode(self, syndrome) -> DecodeResult:
        start = time.perf_counter()
        result = self.decode_many(np.atleast_2d(syndrome))[0]
        result.time_seconds = time.perf_counter() - start
        return result

    def decode_many(self, syndromes) -> BatchDecodeResult:
        """Batch decode with cross-shot trial pooling.

        The per-shot-prior interface of :class:`MinSumBP` lets the
        prior-modified retries of **all** failed shots decode as one
        ``decode_many`` call (each trial row carries its own prior); a
        shot-index map attributes winners, mirroring
        :meth:`repro.decoders.bpsf.BPSFDecoder.decode_many`.
        """
        start = time.perf_counter()
        syndromes = np.atleast_2d(np.asarray(syndromes, dtype=np.uint8))
        initial = self.bp_initial.decode_many(syndromes)

        result = BatchDecodeResult(
            errors=initial.errors.copy(),
            converged=initial.converged.copy(),
            iterations=initial.iterations.astype(np.int64).copy(),
            marginals=initial.marginals,
            flip_counts=initial.flip_counts,
        )

        shot_counts: list[tuple[int, int]] = []   # (shot, n_trials)
        pooled_priors: list[np.ndarray] = []
        pooled_synd: list[np.ndarray] = []
        for i in np.nonzero(~initial.converged)[0]:
            priors = self._trial_priors(initial[int(i)])
            if priors.shape[0] == 0:
                continue
            shot_counts.append((int(i), priors.shape[0]))
            pooled_priors.append(priors)
            pooled_synd.append(
                np.broadcast_to(
                    syndromes[i], (priors.shape[0], syndromes.shape[1])
                )
            )

        if pooled_synd:
            pooled = self.bp_trial.decode_many(
                np.concatenate(pooled_synd),
                prior_llr=np.concatenate(pooled_priors),
            )
            attribute_pooled_trials(
                pooled,
                shot_counts,
                self.bp_trial.max_iter,
                "serial",
                result,
                # No syndrome was modified, so no flip-back is needed.
                lambda shot, winner, pool_row: pooled.errors[pool_row].copy(),
            )

        elapsed = time.perf_counter() - start
        distribute_batch_time(result, elapsed)
        return result

    def _trial_priors(self, initial: DecodeResult) -> np.ndarray:
        raise NotImplementedError


class PosteriorFlipDecoder(_SpeculativePriorDecoder):
    """Oscillation-guided prior modification on the original syndrome.

    Candidate bits are selected exactly as in BP-SF (top-``|Φ|``
    oscillating); each trial subset has its members' prior LLR replaced
    by ``mode``:

    * ``"erase"`` — LLR 0 (the bit becomes an erasure, maximum
      uncertainty);
    * ``"assert"`` — LLR ``-saturation`` (the bit is declared an
      error, the soft-domain analogue of BP-SF's hard flip).

    Parameters mirror :class:`~repro.decoders.bpsf.BPSFDecoder`
    (``phi``, ``w_max``, ``n_s``, ``strategy``).
    """

    def __init__(
        self,
        problem: DecodingProblem,
        *,
        phi: int = 8,
        w_max: int = 1,
        n_s: int = 5,
        strategy: str = "exhaustive",
        mode: str = "erase",
        saturation: float | None = None,
        **kwargs,
    ):
        if strategy not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if mode not in ("erase", "assert"):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__(problem, **kwargs)
        self.phi = int(phi)
        self.w_max = int(w_max)
        self.n_s = int(n_s)
        self.strategy = strategy
        self.mode = mode
        self.saturation = (
            self.bp_trial.clamp if saturation is None else float(saturation)
        )
        self.name = f"PosteriorFlip({mode},phi={phi},w={w_max})"

    def _trial_priors(self, initial: DecodeResult) -> np.ndarray:
        candidates = top_oscillating_bits(
            initial.flip_counts, self.phi, initial.marginals
        )
        if self.strategy == "exhaustive":
            trials = exhaustive_trials(candidates, self.w_max)
        else:
            trials = sampled_trials(
                candidates, self.w_max, self.n_s, self._rng
            )
        base = self.bp_trial._prior_llr.astype(np.float64)
        value = 0.0 if self.mode == "erase" else -self.saturation
        priors = np.tile(base, (len(trials), 1))
        for row, trial in enumerate(trials):
            priors[row, list(trial)] = value
        return priors


class PerturbedEnsembleBP(_SpeculativePriorDecoder):
    """Random prior perturbation ensemble (Poulin-Chung style).

    On failure, ``n_attempts`` BP retries run with priors multiplied by
    iid ``U(1-spread, 1+spread)`` noise (a fresh draw per attempt).
    """

    def __init__(
        self,
        problem: DecodingProblem,
        *,
        n_attempts: int = 10,
        spread: float = 0.5,
        **kwargs,
    ):
        if n_attempts < 1:
            raise ValueError("n_attempts must be at least 1")
        if not 0.0 < spread < 1.0:
            raise ValueError("spread must lie in (0, 1)")
        super().__init__(problem, **kwargs)
        self.n_attempts = int(n_attempts)
        self.spread = float(spread)
        self.name = f"PerturbedBP(x{n_attempts},±{spread})"

    def _trial_priors(self, initial: DecodeResult) -> np.ndarray:
        base = self.bp_trial._prior_llr.astype(np.float64)
        noise = self._rng.uniform(
            1.0 - self.spread,
            1.0 + self.spread,
            size=(self.n_attempts, base.shape[0]),
        )
        return base[None, :] * noise
