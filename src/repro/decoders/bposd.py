"""BP-OSD: belief propagation with OSD fallback (the paper's baseline).

Runs min-sum BP; when it converges the result is returned directly,
otherwise the BP posterior LLRs seed an ordered-statistics search
(`BP1000-OSD10` in the paper's labels means 1000 BP iterations + OSD-CS
of order 10).
"""

from __future__ import annotations

import time

import numpy as np

from repro.decoders.base import (
    _STAGE_DTYPE,
    BatchDecodeResult,
    DecodeResult,
    Decoder,
)
from repro.decoders.bp import MinSumBP
from repro.decoders.layered import LayeredMinSumBP
from repro.decoders.osd import OrderedStatisticsDecoder
from repro.problem import DecodingProblem

__all__ = ["BPOSDDecoder"]


class BPOSDDecoder(Decoder):
    """Min-sum BP followed by OSD post-processing on failure."""

    def __init__(
        self,
        problem: DecodingProblem,
        *,
        max_iter: int = 1000,
        osd_order: int = 10,
        osd_method: str = "cs",
        damping: str | float = "adaptive",
        layered: bool = False,
        bp_kwargs: dict | None = None,
    ):
        self.problem = problem
        bp_cls = LayeredMinSumBP if layered else MinSumBP
        self.bp = bp_cls(problem, max_iter=max_iter, damping=damping,
                         **(bp_kwargs or {}))
        self.osd = OrderedStatisticsDecoder(
            problem, order=osd_order, method=osd_method
        )
        self.name = (
            f"BP{max_iter}-OSD{osd_order if osd_method != '0' else 0}"
        )

    def decode(self, syndrome) -> DecodeResult:
        start = time.perf_counter()
        result = self.decode_many(np.atleast_2d(syndrome))[0]
        result.time_seconds = time.perf_counter() - start
        return result

    def decode_many(self, syndromes) -> BatchDecodeResult:
        """Batch decode: BP vectorised, OSD per failing shot.

        The OSD stage is an inherently sequential Gaussian-elimination
        search, so it runs per failing shot; everything else stays in
        array columns (``stage`` marks which shots it rescued and
        ``time_seconds`` carries its per-shot cost).
        """
        syndromes = np.atleast_2d(np.asarray(syndromes, dtype=np.uint8))
        bp = self.bp.decode_many(syndromes)
        errors = bp.errors.copy()
        converged = bp.converged.copy()
        stage = np.where(converged, "initial", "failed").astype(_STAGE_DTYPE)
        time_seconds = np.zeros(len(bp), dtype=np.float64)
        for i in np.nonzero(~bp.converged)[0]:
            start = time.perf_counter()
            error = self.osd.decode_from_marginals(
                syndromes[i], bp.marginals[i]
            )
            time_seconds[i] = time.perf_counter() - start
            if error is not None:
                errors[i] = error
                converged[i] = True
                stage[i] = "post"
        return BatchDecodeResult(
            errors=errors,
            converged=converged,
            iterations=bp.iterations,
            marginals=bp.marginals,
            flip_counts=bp.flip_counts,
            stage=stage,
            time_seconds=time_seconds,
        )
