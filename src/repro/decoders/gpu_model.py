"""Analytic GPU latency models ("GPU Est", paper Sec. VI).

The paper's GPU numbers are themselves an *estimate*: CUDA-Q decodes
the initial syndrome; on failure, trial syndromes are decoded
**one-by-one** because CUDA-Q's batch decode call blocks on the
slowest member.
We reproduce that estimator as an explicit latency model instead of a
GPU (none is available offline — see DESIGN.md).  Decode *results* come
from the exact same BP/BP-SF implementations; only ``time_seconds`` is
modelled.

Model: a BP call of ``k`` iterations costs
``launch_overhead_us + k * per_iteration_us``; a triggered OSD stage
costs ``osd_us``.  Defaults are calibrated so the BP1000-OSD10 baseline
lands near the paper's measured 7.4 ms average / 40 ms max on a V100
(Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.decoders.base import BatchDecodeResult, DecodeResult, Decoder
from repro.decoders.bposd import BPOSDDecoder
from repro.decoders.bpsf import BPSFDecoder

__all__ = ["GPULatencyModel", "GPUEstimatedBPSF", "GPUEstimatedBPOSD"]


@dataclass(frozen=True)
class GPULatencyModel:
    """Latency parameters of the modelled GPU decoder."""

    per_iteration_us: float = 25.0
    launch_overhead_us: float = 150.0
    osd_us: float = 30000.0

    def bp_seconds(self, iterations) -> float | np.ndarray:
        """Modelled wall time of one BP invocation (vectorises)."""
        return (self.launch_overhead_us
                + iterations * self.per_iteration_us) * 1e-6

    def batch_bp_seconds(self, iteration_counts) -> float:
        """Batched-launch semantics: one launch, blocks on the slowest."""
        counts = np.asarray(iteration_counts)
        if counts.size == 0:
            return 0.0
        return self.bp_seconds(int(counts.max()))


class GPUEstimatedBPSF(Decoder):
    """BP-SF with modelled GPU timing (the paper's pessimistic estimate).

    Trial syndromes are charged as sequential launches up to the first
    success, exactly like the paper's CUDA-Q workflow; with
    ``batched=True`` the optimistic all-at-once submission described in
    the paper's discussion is modelled instead.
    """

    def __init__(self, decoder: BPSFDecoder, *,
                 model: GPULatencyModel | None = None,
                 batched: bool = False):
        self.decoder = decoder
        self.model = model or GPULatencyModel()
        self.batched = batched
        self.name = "BP-SF (GPU_Est)"

    def decode(self, syndrome) -> DecodeResult:
        return self.decode_many(np.atleast_2d(syndrome))[0]

    def decode_many(self, syndromes) -> BatchDecodeResult:
        """Batch decode with the GPU time model applied column-wise.

        Trials before the winner are charged a full-budget launch each
        (they all failed); the winner's own iterations are recovered as
        ``iterations - initial_iterations - winner * budget``, which is
        exact under both winner-selection rules because pre-winner
        trials are always charged the full budget.
        """
        batch = self.decoder.decode_many(syndromes)
        model = self.model
        elapsed = model.bp_seconds(batch.initial_iterations.astype(float))
        post = (batch.stage != "initial") & (batch.trials_attempted > 0)
        trial_budget = self.decoder.bp_trial.max_iter
        if self.batched:
            # One batch launch; blocks on the slowest trial.
            elapsed = elapsed + post * model.bp_seconds(trial_budget)
        else:
            winner = batch.winning_trial
            no_winner = post & (winner < 0)
            elapsed = elapsed + np.where(
                no_winner,
                batch.trials_attempted * model.bp_seconds(trial_budget),
                0.0,
            )
            won = post & (winner >= 0)
            winner_iters = np.maximum(
                batch.iterations - batch.initial_iterations
                - winner * trial_budget,
                1,
            )
            elapsed = elapsed + np.where(
                won,
                winner * model.bp_seconds(trial_budget)
                + model.bp_seconds(winner_iters.astype(float)),
                0.0,
            )
        batch.time_seconds = np.asarray(elapsed, dtype=np.float64)
        return batch


class GPUEstimatedBPOSD(Decoder):
    """BP-OSD with modelled GPU timing."""

    def __init__(self, decoder: BPOSDDecoder, *,
                 model: GPULatencyModel | None = None):
        self.decoder = decoder
        self.model = model or GPULatencyModel()
        self.name = "BP1000-OSD10 (GPU)"

    def decode(self, syndrome) -> DecodeResult:
        return self.decode_many(np.atleast_2d(syndrome))[0]

    def decode_many(self, syndromes) -> BatchDecodeResult:
        """Batch decode with the GPU time model applied column-wise."""
        batch = self.decoder.decode_many(syndromes)
        elapsed = self.model.bp_seconds(batch.iterations.astype(float))
        elapsed = elapsed + (batch.stage == "post") * (self.model.osd_us * 1e-6)
        batch.time_seconds = np.asarray(elapsed, dtype=np.float64)
        return batch
