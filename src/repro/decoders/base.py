"""Decoder interface and result records.

Two result types share the same vocabulary:

* :class:`DecodeResult` — one decoded syndrome, scalar fields;
* :class:`BatchDecodeResult` — a whole batch, one **array column** per
  field.  This is the first-class interchange format of the decoding
  pipeline: decoders produce it natively via :meth:`Decoder.decode_many`
  and the simulation/analysis layers consume its columns directly
  (failure masks, iteration histograms, latency models) without ever
  materialising per-shot Python objects on the hot path.

``batch[i]`` gives shot ``i`` as a :class:`DecodeResult`, so iterating
a batch yields per-shot records where a test or report wants them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "DecodeResult",
    "BatchDecodeResult",
    "Decoder",
    "distribute_batch_time",
]

# Fixed-width stage vocabulary shared by both result types.
_STAGE_DTYPE = "<U7"  # "initial" | "post" | "failed"


@dataclass
class DecodeResult:
    """Outcome of decoding one syndrome.

    Attributes
    ----------
    error:
        Estimated error vector (one bit per mechanism).
    converged:
        Whether the estimate satisfies the syndrome.
    iterations:
        *Serial-equivalent* BP iterations spent (the paper's Fig. 12
        accounting: cumulative over the initial attempt and every trial
        attempted before the first success).
    parallel_iterations:
        Latency in iterations when all trials run concurrently (initial
        iterations plus the fastest successful trial).
    initial_iterations:
        Iterations of the initial BP stage alone (equals ``iterations``
        when no post-processing ran).
    stage:
        ``"initial"`` (plain BP sufficed), ``"post"`` (post-processing
        produced the result) or ``"failed"``.
    trials_attempted / winning_trial:
        Speculative-decoding bookkeeping (BP-SF only).
    marginals / flip_counts:
        Posterior LLRs and bit-flip oscillation counters of the
        (initial) BP run, when tracked.
    time_seconds:
        Wall-clock or modelled decode time, when measured.
    """

    error: np.ndarray
    converged: bool
    iterations: int = 0
    parallel_iterations: int | None = None
    initial_iterations: int | None = None
    stage: str = "initial"
    trials_attempted: int = 0
    winning_trial: int | None = None
    marginals: np.ndarray | None = field(default=None, repr=False)
    flip_counts: np.ndarray | None = field(default=None, repr=False)
    time_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.parallel_iterations is None:
            self.parallel_iterations = self.iterations
        if self.initial_iterations is None:
            self.initial_iterations = self.iterations


@dataclass
class BatchDecodeResult:
    """Array-first outcome of decoding a batch of syndromes.

    Every per-shot attribute of :class:`DecodeResult` appears here as a
    column indexed by shot.  Optional columns default sensibly in
    ``__post_init__`` so plain-BP decoders can construct the record from
    their core arrays alone:

    * ``parallel_iterations`` / ``initial_iterations`` default to copies
      of ``iterations`` (no post-processing ran);
    * ``stage`` defaults to ``"initial"`` where ``converged`` else
      ``"failed"``;
    * ``trials_attempted`` defaults to zeros, ``winning_trial`` to
      ``-1`` (the array encoding of "no winning trial");
    * ``time_seconds`` defaults to zeros.

    The leading columns ``errors, converged, iterations, marginals,
    flip_counts`` may be passed positionally.
    """

    errors: np.ndarray                         # (batch, n) uint8
    converged: np.ndarray                      # (batch,) bool
    iterations: np.ndarray                     # (batch,) int64
    marginals: np.ndarray | None = field(default=None, repr=False)
    flip_counts: np.ndarray | None = field(default=None, repr=False)
    parallel_iterations: np.ndarray | None = None   # (batch,) int64
    initial_iterations: np.ndarray | None = None    # (batch,) int64
    stage: np.ndarray | None = None                 # (batch,) <U7
    trials_attempted: np.ndarray | None = None      # (batch,) int64
    winning_trial: np.ndarray | None = None         # (batch,) int64, -1 = none
    time_seconds: np.ndarray | None = None          # (batch,) float64

    def __post_init__(self) -> None:
        batch = self.errors.shape[0]
        self.converged = np.asarray(self.converged, dtype=bool)
        self.iterations = np.asarray(self.iterations, dtype=np.int64)
        if self.parallel_iterations is None:
            self.parallel_iterations = self.iterations.copy()
        else:
            self.parallel_iterations = np.asarray(
                self.parallel_iterations, dtype=np.int64
            )
        if self.initial_iterations is None:
            self.initial_iterations = self.iterations.copy()
        else:
            self.initial_iterations = np.asarray(
                self.initial_iterations, dtype=np.int64
            )
        if self.stage is None:
            self.stage = np.where(
                self.converged, "initial", "failed"
            ).astype(_STAGE_DTYPE)
        else:
            self.stage = np.asarray(self.stage, dtype=_STAGE_DTYPE)
        if self.trials_attempted is None:
            self.trials_attempted = np.zeros(batch, dtype=np.int64)
        else:
            self.trials_attempted = np.asarray(
                self.trials_attempted, dtype=np.int64
            )
        if self.winning_trial is None:
            self.winning_trial = np.full(batch, -1, dtype=np.int64)
        else:
            self.winning_trial = np.asarray(
                self.winning_trial, dtype=np.int64
            )
        if self.time_seconds is None:
            self.time_seconds = np.zeros(batch, dtype=np.float64)
        else:
            self.time_seconds = np.asarray(
                self.time_seconds, dtype=np.float64
            )

    # -- container protocol ---------------------------------------------

    def __len__(self) -> int:
        return self.errors.shape[0]

    def __getitem__(self, i: int) -> DecodeResult:
        """Per-shot view as a :class:`DecodeResult`."""
        i = int(i)
        winner = int(self.winning_trial[i])
        return DecodeResult(
            error=self.errors[i],
            converged=bool(self.converged[i]),
            iterations=int(self.iterations[i]),
            parallel_iterations=int(self.parallel_iterations[i]),
            initial_iterations=int(self.initial_iterations[i]),
            stage=str(self.stage[i]),
            trials_attempted=int(self.trials_attempted[i]),
            winning_trial=None if winner < 0 else winner,
            marginals=None if self.marginals is None else self.marginals[i],
            flip_counts=(
                None if self.flip_counts is None else self.flip_counts[i]
            ),
            time_seconds=float(self.time_seconds[i]),
        )

    # -- aggregate views -------------------------------------------------

    @property
    def n_initial(self) -> int:
        """Shots solved by the initial BP stage alone."""
        return int((self.stage == "initial").sum())

    @property
    def n_post(self) -> int:
        """Shots rescued by post-processing."""
        return int((self.stage == "post").sum())

    @property
    def n_unconverged(self) -> int:
        """Shots with no syndrome-satisfying output."""
        return int((~self.converged).sum())

    # -- conversion -------------------------------------------------------

    @classmethod
    def from_results(cls, results: list[DecodeResult]) -> "BatchDecodeResult":
        """Pack per-shot records into one array-first batch.

        Used by the default :meth:`Decoder.decode_many` so decoders
        without a native batch path still speak the array contract.
        ``marginals``/``flip_counts`` columns are kept only when every
        shot carries them (a ragged column has no array form).
        """
        if not results:
            raise ValueError("at least one result is required")
        marginals = None
        if all(r.marginals is not None for r in results):
            marginals = np.stack([r.marginals for r in results])
        flip_counts = None
        if all(r.flip_counts is not None for r in results):
            flip_counts = np.stack([r.flip_counts for r in results])
        return cls(
            errors=np.stack([np.asarray(r.error) for r in results]),
            converged=np.asarray([r.converged for r in results], dtype=bool),
            iterations=np.asarray(
                [r.iterations for r in results], dtype=np.int64
            ),
            marginals=marginals,
            flip_counts=flip_counts,
            parallel_iterations=np.asarray(
                [r.parallel_iterations for r in results], dtype=np.int64
            ),
            initial_iterations=np.asarray(
                [r.initial_iterations for r in results], dtype=np.int64
            ),
            stage=np.asarray([r.stage for r in results], dtype=_STAGE_DTYPE),
            trials_attempted=np.asarray(
                [r.trials_attempted for r in results], dtype=np.int64
            ),
            winning_trial=np.asarray(
                [-1 if r.winning_trial is None else r.winning_trial
                 for r in results],
                dtype=np.int64,
            ),
            time_seconds=np.asarray(
                [r.time_seconds for r in results], dtype=np.float64
            ),
        )

    @staticmethod
    def concat(chunks: list["BatchDecodeResult"]) -> "BatchDecodeResult":
        """Concatenate batches along the shot axis."""
        if not chunks:
            raise ValueError("at least one chunk is required")
        if len(chunks) == 1:
            return chunks[0]

        def _cat(column: str) -> Any:
            parts = [getattr(c, column) for c in chunks]
            if any(p is None for p in parts):
                return None
            return np.concatenate(parts)

        return BatchDecodeResult(
            errors=_cat("errors"),
            converged=_cat("converged"),
            iterations=_cat("iterations"),
            marginals=_cat("marginals"),
            flip_counts=_cat("flip_counts"),
            parallel_iterations=_cat("parallel_iterations"),
            initial_iterations=_cat("initial_iterations"),
            stage=_cat("stage"),
            trials_attempted=_cat("trials_attempted"),
            winning_trial=_cat("winning_trial"),
            time_seconds=_cat("time_seconds"),
        )


def distribute_batch_time(
    result: "BatchDecodeResult", elapsed: float
) -> None:
    """Attribute a batch's wall time to shots proportionally to cost.

    Batch decoders measure one wall-clock figure for the whole
    ``decode_many`` call.  Smearing it uniformly (``elapsed / batch``)
    flattens the latency distribution that ``summarize_times`` and the
    Fig. 15-style CPU plots report.  Instead, each shot is charged a
    share of ``elapsed`` proportional to its serial-equivalent
    ``iterations`` column — the best available per-shot cost proxy —
    so the column sums to the measured batch wall time while cheap
    initial-convergence shots stay cheap and trial-heavy shots stay
    expensive.  A batch whose iteration column is all zeros falls back
    to the uniform split.
    """
    weights = result.iterations.astype(np.float64)
    total = weights.sum()
    batch = weights.shape[0]
    if total > 0:
        result.time_seconds = elapsed * weights / total
    else:
        result.time_seconds = np.full(batch, elapsed / batch)


class Decoder(ABC):
    """Base class: decoders are bound to a problem at construction.

    The batch-native entry point is :meth:`decode_many`, returning a
    :class:`BatchDecodeResult`.  Decoders with a vectorised core
    override it; the default loops :meth:`decode` and packs the records
    into arrays so every decoder honours the array contract.
    """

    @abstractmethod
    def decode(self, syndrome: np.ndarray) -> DecodeResult:
        """Decode a single syndrome vector."""

    def decode_many(self, syndromes: np.ndarray) -> BatchDecodeResult:
        """Decode a ``(batch, n_checks)`` array of syndromes."""
        return BatchDecodeResult.from_results(
            [self.decode(s) for s in np.atleast_2d(syndromes)]
        )

    def reseed(self, rng: np.random.Generator) -> None:
        """Reset the decoder's decode-time sampling stream, if any.

        The sharded experiment engine calls this once per shard with a
        generator spawned from the shard's ``SeedSequence``, so
        decoders that sample during decoding (BP-SF trial generation,
        prior-perturbation ensembles) produce identical results for a
        given master seed regardless of how shards are spread over
        workers.  Deterministic decoders need not override the default
        no-op.
        """
