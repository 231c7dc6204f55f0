"""Kernel-backend seam for the flooding BP inner loop.

:class:`~repro.decoders.bp.MinSumBP` runs one generic decode loop
(scheduling, damping, convergence retirement, ``stop_groups``
first-success semantics) and delegates every array-heavy inner-loop
step to a :class:`BPKernel`:

* the min-sum check-node update,
* the variable-node marginal/message update,
* the hard decision and the per-iteration syndrome parity check,
* per-chunk state (syndrome sign context, message buffers) and its
  compaction as shots retire.

Three CPU backends ship today — :class:`~repro.decoders.kernels
.reference.ReferenceKernel` (the historical allocating implementation),
:class:`~repro.decoders.kernels.fused.FusedKernel` (preallocated
workspace + edge-domain parity check) and :class:`~repro.decoders
.kernels.native.NativeKernel` (``fused`` plus a C multi-iteration
driver) — and they are **bit-identical**;
``tests/decoders/test_kernel_parity.py`` enforces it.  A GPU/SIMD
kernel plugs in by implementing the same protocol.

Backend selection
-----------------
``resolve_backend(None | "auto")`` consults, in order: an active
:func:`use_backend` override (how the registry threads an explicit
choice into decoders it builds), the ``REPRO_BP_BACKEND`` environment
variable, and finally :func:`default_backend` (``native`` whenever its
C kernel builds, else ``fused``).  Explicit names
(``"reference"``/``"fused"``/``"native"``) always win.

Optional backends
-----------------
Backends with external dependencies (``native`` needs cffi and a C
compiler) register a *loader* via :func:`register_optional_backend`
instead of a class: ``KERNEL_BACKENDS`` gains the entry only once the
loader succeeds, which :func:`resolve_backend`,
:func:`available_backends`, :func:`backend_availability` and
:func:`default_backend` all trigger lazily.  A failed load is
remembered and surfaces in ``resolve_backend``'s error ("registered but
unavailable"), never as a silent omission.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro.decoders.tanner import TannerEdges

__all__ = [
    "BPKernel",
    "KERNEL_BACKENDS",
    "OPTIONAL_BACKENDS",
    "available_backends",
    "backend_availability",
    "default_backend",
    "make_kernel",
    "register_optional_backend",
    "resolve_backend",
    "use_backend",
]

#: Environment knob read by ``resolve_backend`` (bench config + CLI).
BACKEND_ENV_VAR = "REPRO_BP_BACKEND"

_BACKEND_OVERRIDE: list[str] = []


class BPKernel(ABC):
    """Inner-loop engine contract for one decode chunk.

    A kernel is bound to a decoder instance (one per
    :class:`~repro.decoders.bp.MinSumBP`), is (re)initialised per chunk
    via :meth:`start`, and owns whatever scratch state its strategy
    needs.  The decode loop guarantees the call order per iteration::

        check_update -> variable_update -> hard_decision -> converged

    with :meth:`compact` between iterations whenever rows retire.

    Determinism contract: every output (``hard_decision``,
    ``converged``, the syndrome context and the LLR columns) must be
    *bit-identical* across backends, so float sums must follow the
    reference's reduction order exactly; a backend states that by
    declaring :attr:`deterministic_sums` ``True``.
    """

    #: Registry name of the backend ("reference", "fused", ...).
    name: str = ""

    #: Whether order-sensitive float sums reproduce the reference's
    #: reduction order bit for bit (see the determinism contract above).
    deterministic_sums: bool = True

    #: Whether the backend implements the multi-iteration fusion API
    #: (``fused_start``/``fused_run``/``fused_compact`` + the
    #: ``fused_marg``/``fused_hard``/``fused_flips`` views) that lets
    #: :class:`~repro.decoders.bp.MinSumBP` run K iterations per
    #: backend call instead of one protocol round-trip per iteration.
    supports_iteration_fusion: bool = False

    #: Human-readable runtime the backend executes on (shown by
    #: ``python -m repro backends``).
    runtime_version: str = f"numpy {np.__version__}"

    def __init__(
        self,
        edges: TannerEdges,
        check_matrix: Any,
        *,
        clamp: float,
        dtype: Any,
    ) -> None:
        self.edges = edges
        self.check_matrix = check_matrix
        self.clamp = float(clamp)
        self.dtype = np.dtype(dtype)

    # -- chunk lifecycle ------------------------------------------------

    @abstractmethod
    def start(self, syndromes: np.ndarray, prior: np.ndarray) -> np.ndarray:
        """Begin a chunk: set syndrome context, return the initial v2c.

        ``syndromes`` is ``(batch, n_checks)`` uint8; ``prior`` is the
        ``(1, n)`` or ``(batch, n)`` LLR array.  Returns the initial
        variable-to-check messages ``prior[:, edge_var]`` as a
        ``(batch, n_edges)`` array the kernel may own.
        """

    @property
    @abstractmethod
    def sign_syn(self) -> np.ndarray:
        """Per-edge syndrome signs ``(-1)^{s_c}`` for the live rows."""

    # -- per-iteration steps --------------------------------------------

    @abstractmethod
    def check_update(
        self, v2c: np.ndarray, sign_syn: np.ndarray, alpha: float
    ) -> np.ndarray:
        """Normalised min-sum check-node update (paper Eq. 6)."""

    @abstractmethod
    def variable_update(
        self, c2v: np.ndarray, prior: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Marginals (Eq. 7) and next v2c messages (Eq. 5)."""

    @abstractmethod
    def hard_decision(self, marg: np.ndarray) -> np.ndarray:
        """Hard decisions ``marg <= 0`` as uint8 ``(batch, n)``."""

    @abstractmethod
    def converged(self, hard: np.ndarray) -> np.ndarray:
        """Per-row syndrome match ``H @ hard == s (mod 2)`` as bool."""

    # -- retirement -----------------------------------------------------

    @abstractmethod
    def compact(self, v2c: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Drop retired rows from kernel state; return compacted v2c."""


def default_backend() -> str:
    """The backend used when nothing selects one explicitly.

    ``native`` whenever its C kernel builds and loads (the first call
    may compile it), otherwise ``fused``.
    """
    return "native" if _load_optional("native") else "fused"


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend request to a concrete kernel name.

    ``None``/``"auto"`` defers to an active :func:`use_backend`
    override, then ``REPRO_BP_BACKEND``, then :func:`default_backend`.
    Raises ``ValueError`` for unknown names (including an unknown env
    value) so misconfiguration fails at decoder construction, not
    mid-decode.  Naming a registered optional backend loads it on the
    spot; if its dependency is missing the error says so (with the
    import error) instead of pretending the name is unknown.
    """
    if backend is None:
        backend = "auto"
    if backend == "auto":
        if _BACKEND_OVERRIDE:
            backend = _BACKEND_OVERRIDE[-1]
        else:
            backend = os.environ.get(BACKEND_ENV_VAR, "auto")
        if backend == "auto":
            backend = default_backend()
    if backend not in KERNEL_BACKENDS:
        if backend in OPTIONAL_BACKENDS:
            if not _load_optional(backend):
                raise ValueError(
                    f"unknown BP kernel backend {backend!r}: the "
                    f"optional backend is registered but is unavailable "
                    f"({_OPTIONAL_ERRORS[backend]})"
                )
        else:
            known = "auto, " + ", ".join(sorted(KERNEL_BACKENDS))
            missing = sorted(
                name for name in OPTIONAL_BACKENDS
                if name not in KERNEL_BACKENDS
            )
            extra = (
                f" (optional, unavailable: {', '.join(missing)})"
                if missing else ""
            )
            raise ValueError(
                f"unknown BP kernel backend {backend!r}; one of "
                f"{known}{extra}"
            )
    return backend


@contextmanager
def use_backend(backend: str) -> Iterator[str]:
    """Scope a default backend for decoders built inside the block.

    Used by the decoder registry (and ultimately the CLI / sharded
    engine) to thread an explicit backend choice into factories whose
    signatures predate the knob.  Explicit ``backend=`` arguments on a
    constructor still win over the override.
    """
    resolved = resolve_backend(backend)
    _BACKEND_OVERRIDE.append(resolved)
    try:
        yield resolved
    finally:
        _BACKEND_OVERRIDE.pop()


def make_kernel(
    backend: str | None,
    edges: TannerEdges,
    check_matrix: Any,
    *,
    clamp: float,
    dtype: Any,
) -> BPKernel:
    """Build the kernel for ``backend`` (resolving ``None``/"auto")."""
    name = resolve_backend(backend)
    return KERNEL_BACKENDS[name](edges, check_matrix, clamp=clamp, dtype=dtype)


# Populated at the bottom of the package __init__ to avoid circular
# imports; maps backend name -> kernel class.  Optional backends appear
# here only once their dependency has actually imported.
KERNEL_BACKENDS: dict[str, type[BPKernel]] = {}

# Optional backends: name -> zero-arg loader returning the kernel class
# (raising ImportError when the dependency is missing).  Failed loads
# are remembered in _OPTIONAL_ERRORS so availability can be reported
# without re-importing on every probe.
OPTIONAL_BACKENDS: dict[str, Callable[[], type[BPKernel]]] = {}
_OPTIONAL_ERRORS: dict[str, str] = {}


def register_optional_backend(
    name: str, loader: Callable[[], type[BPKernel]]
) -> None:
    """Register a dependency-gated backend by loader, not class.

    The loader runs at most once per failure mode: on success the class
    lands in ``KERNEL_BACKENDS`` (and the loader is never called
    again); on ``ImportError`` the message is cached and re-raised as a
    friendly ``resolve_backend`` error on every later request.
    """
    OPTIONAL_BACKENDS[name] = loader


def _load_optional(name: str) -> bool:
    """Try to load optional backend ``name``; True when usable."""
    if name in KERNEL_BACKENDS:
        return True
    if name in _OPTIONAL_ERRORS:
        return False
    try:
        KERNEL_BACKENDS[name] = OPTIONAL_BACKENDS[name]()
        return True
    except ImportError as exc:
        _OPTIONAL_ERRORS[name] = str(exc)
        return False


def available_backends() -> tuple[str, ...]:
    """Sorted names of every backend that is actually usable now.

    Probes (and thereby lazily loads) each registered optional backend,
    so "usable" means *imported*, not merely registered.
    """
    for name in OPTIONAL_BACKENDS:
        _load_optional(name)
    return tuple(sorted(KERNEL_BACKENDS))


def backend_availability() -> dict[str, dict[str, Any]]:
    """Availability report for ``python -m repro backends``.

    Maps every registered backend name (built-in and optional) to
    ``{"available", "optional", "default", "runtime", "error"}`` —
    ``error`` carries the cached import error for an optional backend
    whose dependency is missing.
    """
    available_backends()  # force optional probes
    report: dict[str, dict[str, Any]] = {}
    for name in sorted(set(KERNEL_BACKENDS) | set(OPTIONAL_BACKENDS)):
        cls = KERNEL_BACKENDS.get(name)
        report[name] = {
            "available": cls is not None,
            "optional": name in OPTIONAL_BACKENDS,
            "default": name == default_backend(),
            "runtime": getattr(cls, "runtime_version", None),
            "error": _OPTIONAL_ERRORS.get(name),
        }
    return report
