"""Decoder registry: canonical factory per decoder family.

One place that knows how to build every decoder in the repository with
small, deterministic, test-scale parameters.  The batch/serial parity
suite iterates this registry to assert that ``decode_many`` and a loop
of ``decode`` calls agree for *every* decoder; experiment drivers can
use it to sweep families without repeating configuration.

Factories take a :class:`~repro.problem.DecodingProblem` and return a
fresh decoder.  Every factory is deterministic (seeded where the
decoder samples), so two instances built from the same problem decode
identically.  :class:`~repro.decoders.parallel.ParallelBPSFDecoder` is
excluded: its first-success collection over a process pool depends on
worker scheduling, so per-shot fields like ``winning_trial`` are not
reproducible.
"""

from __future__ import annotations

from typing import Callable

from repro.decoders.base import Decoder
from repro.decoders.bp import MinSumBP
from repro.decoders.bposd import BPOSDDecoder
from repro.decoders.bpsf import BPSFDecoder
from repro.decoders.ensemble import PerturbedEnsembleBP, PosteriorFlipDecoder
from repro.decoders.gdg import GDGDecoder
from repro.decoders.kernels import use_backend
from repro.decoders.layered import LayeredMinSumBP
from repro.decoders.membp import MemoryMinSumBP
from repro.decoders.relay import RelayBP
from repro.decoders.sum_product import SumProductBP
from repro.problem import DecodingProblem

__all__ = ["DECODER_REGISTRY", "get_decoder", "make_decoder_factory"]

DecoderFactory = Callable[[DecodingProblem], Decoder]

DECODER_REGISTRY: dict[str, DecoderFactory] = {
    "min_sum_bp": lambda p: MinSumBP(p, max_iter=12),
    "sum_product_bp": lambda p: SumProductBP(p, max_iter=12),
    "layered_bp": lambda p: LayeredMinSumBP(p, max_iter=12),
    "memory_bp": lambda p: MemoryMinSumBP(p, gamma=0.5, max_iter=12),
    "bpsf": lambda p: BPSFDecoder(
        p, max_iter=10, phi=8, w_max=1, strategy="exhaustive"
    ),
    "bpsf_sampled": lambda p: BPSFDecoder(
        p, max_iter=10, phi=10, w_max=2, n_s=4, strategy="sampled", seed=11
    ),
    "bpsf_parallel": lambda p: BPSFDecoder(
        p, max_iter=10, phi=8, w_max=1, strategy="exhaustive",
        selection="parallel",
    ),
    "bposd": lambda p: BPOSDDecoder(p, max_iter=10, osd_order=4),
    "relay_bp": lambda p: RelayBP(
        p, leg_iters=10, num_legs=2, seed=5
    ),
    "gdg": lambda p: GDGDecoder(
        p, max_iter=10, max_depth=2, beam_width=4
    ),
    "posterior_flip": lambda p: PosteriorFlipDecoder(
        p, max_iter=10, phi=6, w_max=1, strategy="exhaustive"
    ),
    "perturbed_bp": lambda p: PerturbedEnsembleBP(
        p, max_iter=10, n_attempts=4, spread=0.4, seed=13
    ),
}


def get_decoder(
    name: str, problem: DecodingProblem, *, backend: str | None = None
) -> Decoder:
    """Build the registry decoder ``name`` for ``problem``.

    ``backend`` optionally pins the BP kernel backend
    (``"reference"``/``"fused"``/``"native"``) for every BP instance the factory
    builds — including inner decoders of composites like BP-SF — via a
    scoped :func:`repro.decoders.kernels.use_backend` override, so
    factories whose signatures predate the knob still honour it.
    """
    try:
        factory = DECODER_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown decoder {name!r}; one of {sorted(DECODER_REGISTRY)}"
        ) from None
    if backend is None:
        return factory(problem)
    with use_backend(backend):
        return factory(problem)


class _RegistryFactory:
    """Picklable ``f(problem) -> Decoder`` carrying a backend choice.

    The sharded experiment engine resolves registry *names* inside each
    worker process, where a CLI-selected backend would otherwise be
    lost; shipping this factory instead pins the backend in the worker
    too, keeping sharded runs bit-identical to serial ones for every
    backend.
    """

    def __init__(self, name: str, backend: str | None = None) -> None:
        self.name = name
        self.backend = backend

    def __call__(self, problem: DecodingProblem) -> Decoder:
        return get_decoder(self.name, problem, backend=self.backend)

    def __repr__(self) -> str:
        return f"_RegistryFactory({self.name!r}, backend={self.backend!r})"


def make_decoder_factory(
    name: str, backend: str | None = None
) -> _RegistryFactory:
    """A picklable factory for registry decoder ``name``.

    Validates the name eagerly (same ``KeyError`` as
    :func:`get_decoder`) so misconfiguration fails before any worker
    pool spins up.
    """
    if name not in DECODER_REGISTRY:
        raise KeyError(
            f"unknown decoder {name!r}; one of {sorted(DECODER_REGISTRY)}"
        )
    return _RegistryFactory(name, backend)
