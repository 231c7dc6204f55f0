"""Decoders: min-sum BP, layered BP, OSD, BP-OSD, BP-SF and baselines.

``BPSFDecoder`` is the paper's contribution; ``BPOSDDecoder`` is the
baseline it is compared against.  ``ParallelBPSFDecoder`` and the GPU
latency models reproduce the execution variants of Sec. VI.

The related-work decoders the paper positions itself against are also
implemented so the comparisons of Sec. I can be run head-to-head:
``MemoryMinSumBP`` / ``RelayBP`` (Mem-BP and its chained ensemble),
``GDGDecoder`` (guided decimation guessing) and the
prior/posterior-modification family (``PosteriorFlipDecoder``,
``PerturbedEnsembleBP``).
"""

from repro.decoders.base import BatchDecodeResult, DecodeResult, Decoder
from repro.decoders.bp import DampingSchedule, MinSumBP
from repro.decoders.bposd import BPOSDDecoder
from repro.decoders.bpsf import BPSFDecoder
from repro.decoders.ensemble import PerturbedEnsembleBP, PosteriorFlipDecoder
from repro.decoders.gdg import GDGDecoder
from repro.decoders.gpu_model import (
    GPUEstimatedBPOSD,
    GPUEstimatedBPSF,
    GPULatencyModel,
)
from repro.decoders.kernels import (
    KERNEL_BACKENDS,
    BPKernel,
    resolve_backend,
    use_backend,
)
from repro.decoders.layered import LayeredMinSumBP, check_conflict_layers
from repro.decoders.membp import MemoryMinSumBP, disordered_gammas
from repro.decoders.osd import OrderedStatisticsDecoder
from repro.decoders.parallel import ParallelBPSFDecoder
from repro.decoders.registry import (
    DECODER_REGISTRY,
    get_decoder,
    make_decoder_factory,
)
from repro.decoders.relay import RelayBP
from repro.decoders.selectors import SELECTORS, get_selector
from repro.decoders.sum_product import SumProductBP
from repro.decoders.tanner import TannerEdges, shared_tanner_edges
from repro.decoders.trial_vectors import (
    exhaustive_trials,
    sampled_trials,
    top_oscillating_bits,
    weighted_trials,
)

__all__ = [
    "DecodeResult",
    "Decoder",
    "BatchDecodeResult",
    "DampingSchedule",
    "DECODER_REGISTRY",
    "get_decoder",
    "make_decoder_factory",
    "BPKernel",
    "KERNEL_BACKENDS",
    "resolve_backend",
    "use_backend",
    "MinSumBP",
    "BPOSDDecoder",
    "BPSFDecoder",
    "GDGDecoder",
    "GPUEstimatedBPOSD",
    "GPUEstimatedBPSF",
    "GPULatencyModel",
    "LayeredMinSumBP",
    "MemoryMinSumBP",
    "PerturbedEnsembleBP",
    "PosteriorFlipDecoder",
    "RelayBP",
    "check_conflict_layers",
    "disordered_gammas",
    "OrderedStatisticsDecoder",
    "ParallelBPSFDecoder",
    "SELECTORS",
    "get_selector",
    "SumProductBP",
    "TannerEdges",
    "shared_tanner_edges",
    "exhaustive_trials",
    "sampled_trials",
    "top_oscillating_bits",
    "weighted_trials",
]
