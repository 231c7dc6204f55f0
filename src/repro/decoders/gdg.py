"""Guided decimation guessing (GDG) — related-work baseline.

Gong, Cammerer & Renes (arXiv:2403.18901), discussed in the paper's
Sec. I, accelerate BP convergence by *decimation*: when BP stalls, the
least reliable bit is guessed and frozen to each of its two values,
forking the decoding state into a small tree of BP instances.  The
paper contrasts BP-SF with GDG because the decision-tree structure of
the guessing phase limits parallelism — level ``ℓ`` of the tree cannot
start before level ``ℓ-1`` finished.

This implementation forks on the most *oscillating* undecided bit
(matching the repository's oscillation statistics; the original paper
guesses from BP history averages, which agree with flip counts on
stalled bits) and freezes bits by saturating their prior LLR through
the per-shot-prior interface of :class:`~repro.decoders.bp.MinSumBP`.
All branches of one tree level decode as a single vectorised batch.

Accounting matches the paper's latency model: ``iterations`` sums
every branch (serial execution), ``parallel_iterations`` charges one
BP budget per *tree level*, since levels are sequential but branches
within a level are not.
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
from repro.problem import DecodingProblem

__all__ = ["GDGDecoder"]


class GDGDecoder(Decoder):
    """BP with guided decimation guessing.

    Parameters
    ----------
    problem:
        The decoding problem.
    max_iter:
        Iteration budget of the initial BP attempt *and* of each
        decimated branch.
    max_depth:
        Maximum number of guessing levels (bits frozen per branch).
    beam_width:
        Maximum number of simultaneously open branches; the least
        promising branches (largest residual-syndrome weight) are
        pruned first.
    saturation:
        Magnitude of the frozen prior LLR (defaults to the BP clamp).
    kwargs:
        Forwarded to the underlying :class:`MinSumBP`.
    """

    def __init__(
        self,
        problem: DecodingProblem,
        *,
        max_iter: int = 60,
        max_depth: int = 4,
        beam_width: int = 8,
        saturation: float | None = None,
        **kwargs,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if beam_width < 2:
            raise ValueError("beam_width must be at least 2")
        self.problem = problem
        self.max_depth = int(max_depth)
        self.beam_width = int(beam_width)
        kwargs.setdefault("track_oscillations", True)
        self.bp = MinSumBP(problem, max_iter=max_iter, **kwargs)
        self.saturation = (
            self.bp.clamp if saturation is None else float(saturation)
        )
        self.name = f"GDG{max_iter}d{max_depth}w{beam_width}"

    # -- public API -----------------------------------------------------

    def decode(self, syndrome) -> DecodeResult:
        start = time.perf_counter()
        result = self.decode_many(np.atleast_2d(syndrome))[0]
        result.time_seconds = time.perf_counter() - start
        return result

    def decode_many(self, syndromes) -> BatchDecodeResult:
        """Batch decode: initial BP vectorised, guessing per failed shot.

        The decision tree of the guessing phase is sequential by level
        (the paper's Sec. I argument against GDG), so the fallback runs
        per shot; branches within a level still decode as one batch.
        """
        start = time.perf_counter()
        syndromes = np.atleast_2d(np.asarray(syndromes, dtype=np.uint8))
        batch = syndromes.shape[0]
        initial = self.bp.decode_many(syndromes)
        rescued = {
            int(i): self._guess(syndromes[i], initial[int(i)])
            for i in np.nonzero(~initial.converged)[0]
        }
        elapsed = time.perf_counter() - start
        if not rescued:
            result = initial
            distribute_batch_time(result, elapsed)
            return result
        result = BatchDecodeResult.from_results(
            [
                rescued[i] if i in rescued else initial[i]
                for i in range(batch)
            ]
        )
        distribute_batch_time(result, elapsed)
        return result

    # -- internals -------------------------------------------------------

    def _guess(self, syndrome, initial: DecodeResult) -> DecodeResult:
        """Beam search over decimated BP branches."""
        base_prior = self.bp._prior_llr.astype(np.float64)
        budget = self.bp.max_iter
        init_iters = int(initial.iterations)

        # A branch is (prior vector, frozen bit set); level 0 forks the
        # failed initial run on its most oscillating bit.
        branch_priors = [base_prior]
        frozen: list[set[int]] = [set()]
        branch_flips = [np.asarray(initial.flip_counts)]
        serial = init_iters
        parallel = init_iters
        branches_tried = 0

        for depth in range(1, self.max_depth + 1):
            next_priors: list[np.ndarray] = []
            next_frozen: list[set[int]] = []
            for prior, fixed, flips in zip(
                branch_priors, frozen, branch_flips
            ):
                bit = self._pick_bit(flips, fixed)
                if bit is None:
                    continue
                for value in (0, 1):
                    forked = prior.copy()
                    forked[bit] = (
                        self.saturation if value == 0 else -self.saturation
                    )
                    next_priors.append(forked)
                    next_frozen.append(fixed | {bit})
            if not next_priors:
                break

            priors = np.stack(next_priors)
            synd = np.broadcast_to(
                syndrome, (priors.shape[0], syndrome.shape[0])
            )
            batch = self.bp.decode_many(synd, prior_llr=priors)
            branches_tried += len(next_priors)

            if batch.converged.any():
                # Serial execution stops at the first success in branch
                # order; parallel execution finishes with the fastest
                # converged branch of this (final) level.
                winner = int(np.argmax(batch.converged))
                serial += int(
                    np.where(
                        batch.converged[:winner],
                        batch.iterations[:winner],
                        budget,
                    ).sum()
                ) + int(batch.iterations[winner])
                parallel += int(batch.iterations[batch.converged].min())
                return DecodeResult(
                    error=batch.errors[winner].copy(),
                    converged=True,
                    iterations=serial,
                    # Levels are sequential; branches within one are not.
                    parallel_iterations=parallel,
                    initial_iterations=init_iters,
                    stage="post",
                    trials_attempted=branches_tried,
                    winning_trial=winner,
                    marginals=initial.marginals,
                    flip_counts=initial.flip_counts,
                )
            serial += budget * len(next_priors)
            parallel += budget

            # Prune to the beam: fewest unsatisfied checks first.
            residual = np.abs(
                self.problem.syndromes(batch.errors)
                ^ np.asarray(syndrome, dtype=np.uint8)[None, :]
            ).sum(axis=1)
            keep = np.argsort(residual, kind="stable")[: self.beam_width]
            branch_priors = [next_priors[i] for i in keep]
            frozen = [next_frozen[i] for i in keep]
            branch_flips = [np.asarray(batch.flip_counts[i]) for i in keep]

        return DecodeResult(
            error=initial.error,
            converged=False,
            iterations=serial,
            parallel_iterations=parallel,
            initial_iterations=init_iters,
            stage="failed",
            trials_attempted=branches_tried,
            marginals=initial.marginals,
            flip_counts=initial.flip_counts,
        )

    def _pick_bit(self, flips: np.ndarray, fixed: set[int]) -> int | None:
        """Most oscillating bit not yet frozen on this branch."""
        if flips is None:
            return None
        order = np.argsort(-flips, kind="stable")
        for bit in order:
            if int(bit) not in fixed:
                # A bit that never oscillated carries no guess signal.
                if flips[bit] <= 0 and fixed:
                    return None
                return int(bit)
        return None
