"""Pluggable BP kernel backends (the ROADMAP's GPU-seam, CPU-first).

``MinSumBP`` (and its Mem-BP / sum-product / BP-SF-inner subclasses)
delegate their inner loop to a :class:`BPKernel`:

* ``"reference"`` — :class:`ReferenceKernel`, the historical allocating
  reduceat implementation with a sparse-matmul parity check;
* ``"fused"`` — :class:`FusedKernel`, one preallocated per-chunk
  workspace reused across iterations plus an edge-domain
  ``bitwise_xor.reduceat`` parity check;
* ``"native"`` — :class:`~repro.decoders.kernels.native.NativeKernel`,
  a ``FusedKernel`` whose multi-iteration fusion API runs in a small C
  kernel: one call per chunk, four rows at once, one per SIMD lane,
  each lane refilled with the next row as soon as its row's stop group
  freezes; GIL released during each call, which may spread the chunk's
  stop groups over up to :data:`THREAD_BUDGET` threads (started and
  joined inside the call),
  compiled on first use with ``$CC`` (default ``cc``) into
  ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``) and loaded
  through cffi.  *Optional*:
  registered by loader, so without cffi or a working compiler it is
  reported unavailable (``python -m repro backends`` shows the build
  error) and the default falls back to ``fused``;
* ``"auto"`` (default) — defer to :func:`use_backend` /
  ``REPRO_BP_BACKEND`` / the built-in default (``native`` whenever it
  builds, else ``fused``).

Every backend is bit-identical to the reference on every output,
marginals included (enforced by ``tests/decoders/test_kernel_parity.py``),
for any thread budget.  The budget defaults to 1; only the offline
engine grants more (:func:`use_threads`), so the decode services stay
single-threaded per call.  The knob exists for debugging, benchmarking
(``benchmarks/test_kernel_backends.py``) and as the seam further
kernels (wider SIMD, GPU) plug into.
"""

from __future__ import annotations

from repro.decoders.kernels.base import (
    BACKEND_ENV_VAR,
    KERNEL_BACKENDS,
    OPTIONAL_BACKENDS,
    THREAD_BUDGET,
    BPKernel,
    available_backends,
    backend_availability,
    default_backend,
    make_kernel,
    register_optional_backend,
    resolve_backend,
    usable_cpus,
    use_backend,
    use_threads,
)
from repro.decoders.kernels.fused import FusedKernel
from repro.decoders.kernels.reference import ReferenceKernel

__all__ = [
    "BACKEND_ENV_VAR",
    "BPKernel",
    "FusedKernel",
    "KERNEL_BACKENDS",
    "OPTIONAL_BACKENDS",
    "ReferenceKernel",
    "THREAD_BUDGET",
    "available_backends",
    "backend_availability",
    "default_backend",
    "make_kernel",
    "register_optional_backend",
    "resolve_backend",
    "usable_cpus",
    "use_backend",
    "use_threads",
]

KERNEL_BACKENDS["reference"] = ReferenceKernel
KERNEL_BACKENDS["fused"] = FusedKernel


def _load_native_backend() -> type:
    """Loader for the C backend: builds (or opens the cached) kernel."""
    from repro.decoders.kernels import native

    native.load_library()
    return native.NativeKernel


register_optional_backend("native", _load_native_backend)
