"""Relay-BP: chained memory-BP legs (related-work baseline).

Müller et al. (arXiv:2506.01779), discussed in the paper's Sec. I,
improve BP by *relaying*: a first uniform-memory leg runs, and every
shot it fails to converge is handed to a chain of DMem-BP legs whose
disordered per-bit memory strengths differ leg to leg.  Each leg starts
from the **posteriors of the previous leg** (that is the relay), so
information accumulates along the chain.  Optionally the chain keeps
running after the first success to collect several distinct solutions
and return the lightest one.

The paper positions BP-SF against Relay-BP on latency grounds: relay
legs are inherently *sequential* (each consumes its predecessor's
posteriors) while BP-SF trials are independent and embarrassingly
parallel.  The ``iterations`` / ``parallel_iterations`` accounting
below reflects exactly that: for Relay-BP the two are equal, because
there is nothing to parallelise across legs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.decoders.base import (
    _STAGE_DTYPE,
    BatchDecodeResult,
    DecodeResult,
    Decoder,
    distribute_batch_time,
)
from repro.decoders.membp import MemoryMinSumBP, disordered_gammas
from repro.problem import DecodingProblem

__all__ = ["RelayBP"]


class RelayBP(Decoder):
    """Chained Mem-BP ensemble (Relay-BP).

    Parameters
    ----------
    problem:
        The decoding problem.
    gamma0:
        Uniform memory strength of the first leg.
    gamma_dist:
        ``(low, high)`` interval for the disordered per-bit strengths
        of the relay legs.
    num_legs:
        Maximum number of relay legs after the first.
    leg_iters:
        Iteration budget per leg.
    stop_after:
        Number of *distinct converged solutions* to collect before
        stopping; with the default of 1 the first success returns
        immediately, larger values trade latency for picking the
        lightest solution (the ensemble-decoding mode).
    seed:
        Seed for the per-leg disorder draws (legs differ by draw).
    kwargs:
        Forwarded to the underlying BP legs (``damping``, ``clamp``,
        ``dtype``, ``batch_size``).
    """

    def __init__(
        self,
        problem: DecodingProblem,
        *,
        gamma0: float = 0.65,
        gamma_dist: tuple[float, float] = (-0.24, 0.66),
        num_legs: int = 3,
        leg_iters: int = 60,
        stop_after: int = 1,
        seed: int | None = None,
        **kwargs,
    ):
        if num_legs < 0:
            raise ValueError("num_legs must be non-negative")
        if stop_after < 1:
            raise ValueError("stop_after must be at least 1")
        self.problem = problem
        self.gamma0 = float(gamma0)
        self.gamma_dist = (float(gamma_dist[0]), float(gamma_dist[1]))
        self.num_legs = int(num_legs)
        self.leg_iters = int(leg_iters)
        self.stop_after = int(stop_after)
        self.name = f"RelayBP{leg_iters}x{1 + num_legs}"
        rng = np.random.default_rng(seed)
        self._first_leg = MemoryMinSumBP(
            problem, gamma=self.gamma0, max_iter=self.leg_iters, **kwargs
        )
        low, high = self.gamma_dist
        self._relay_legs = [
            MemoryMinSumBP(
                problem,
                gamma=disordered_gammas(problem.n_mechanisms, low, high, rng),
                max_iter=self.leg_iters,
                **kwargs,
            )
            for _ in range(self.num_legs)
        ]
        self._weights = problem.llr_priors()

    # -- public API -----------------------------------------------------

    def decode(self, syndrome) -> DecodeResult:
        return self.decode_many(np.atleast_2d(syndrome))[0]

    def decode_many(self, syndromes) -> BatchDecodeResult:
        """Decode a batch, relaying posteriors across legs per shot."""
        start = time.perf_counter()
        syndromes = np.atleast_2d(np.asarray(syndromes, dtype=np.uint8))
        batch = syndromes.shape[0]

        first = self._first_leg.decode_many(syndromes)
        solutions: list[list[np.ndarray]] = [[] for _ in range(batch)]
        iterations = first.iterations.astype(np.int64).copy()
        first_leg_iters = first.iterations.astype(np.int64).copy()
        errors = first.errors.copy()
        marginals = first.marginals.copy()
        for i in np.nonzero(first.converged)[0]:
            solutions[int(i)].append(first.errors[i].copy())

        # A shot stays active while it still wants more solutions and
        # legs remain; posteriors carry over as the next leg's priors.
        active = np.asarray(
            [len(solutions[i]) < self.stop_after for i in range(batch)]
        )
        priors = first.marginals.copy()
        for leg in self._relay_legs:
            if not active.any():
                break
            idx = np.nonzero(active)[0]
            prior_act = self._relay_prior(priors[idx])
            res = leg.decode_many(syndromes[idx], prior_llr=prior_act)
            iterations[idx] += res.iterations
            priors[idx] = res.marginals
            marginals[idx] = res.marginals
            for row, i in enumerate(idx):
                if res.converged[row]:
                    solutions[int(i)].append(res.errors[row].copy())
                    if len(solutions[int(i)]) >= self.stop_after:
                        active[i] = False

        # Per-shot winner: the lightest distinct solution found.
        converged = np.zeros(batch, dtype=bool)
        stage = np.full(batch, "failed", dtype=_STAGE_DTYPE)
        trials_attempted = np.zeros(batch, dtype=np.int64)
        for i in range(batch):
            found = solutions[i]
            if not found:
                continue
            best = min(
                found, key=lambda e: float(self._weights[e == 1].sum())
            )
            errors[i] = best
            converged[i] = True
            stage[i] = "initial" if first.converged[i] else "post"
            trials_attempted[i] = len(found)

        elapsed = time.perf_counter() - start
        result = BatchDecodeResult(
            errors=errors,
            converged=converged,
            iterations=iterations,
            marginals=marginals,
            flip_counts=first.flip_counts,
            # Relay legs are sequential by construction; parallel and
            # serial latency coincide (the paper's latency argument).
            parallel_iterations=iterations.copy(),
            initial_iterations=first_leg_iters,
            stage=stage,
            trials_attempted=trials_attempted,
        )
        distribute_batch_time(result, elapsed)
        return result

    # -- internals -------------------------------------------------------

    def _relay_prior(self, posteriors: np.ndarray) -> np.ndarray:
        """Clip relayed posteriors so no leg starts fully saturated."""
        clamp = self._first_leg.clamp
        return np.clip(posteriors, -0.9 * clamp, 0.9 * clamp)
