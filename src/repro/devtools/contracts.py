"""Import-time registry contract checker (``repro lint --contracts``).

Loads ``DECODER_REGISTRY`` and ``KERNEL_BACKENDS`` for real and
verifies every entry against the contracts the rest of the system
assumes but cannot test locally:

* **Protocol conformance** (``REP101``) — every registry decoder
  implements ``decode`` / ``decode_many`` / ``reseed``; every kernel
  backend implements ``start`` / ``check_update`` / ``variable_update``
  / ``hard_decision`` / ``converged`` / ``compact`` plus the
  ``sign_syn`` property, and a backend claiming
  ``supports_iteration_fusion`` really ships the fusion API.
* **Determinism declaration** (``REP102``) — every kernel backend
  *explicitly* declares its ``deterministic_sums`` tier (a bool in the
  class body, not a silent inherit), so a new backend states on purpose
  that its float sums follow the reference's reduction order.
* **Picklability** (``REP103``) — decoder factories, built decoder
  instances and kernel instances round-trip ``pickle``: the
  engine-worker contract that lets sharded runs ship decoder specs to
  worker processes.
* **Constructibility** (``REP104``) — every registry factory builds on
  a real (tiny) problem; a factory that only explodes at worker
  startup is a contract violation, not a runtime surprise.
* **Name agreement** (``REP105``) — a kernel class's declared ``name``
  matches its registry key, so error messages, the ``backends`` CLI
  verb and the bench artifact all talk about the same backend.

Violations are reported in the same :class:`~repro.devtools.lint
.LintViolation` shape as the static rules — anchored at the offending
class's source file and line — so ``--format json`` consumers see one
schema for both passes.
"""

from __future__ import annotations

import inspect
import pickle
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.devtools.lint import LintReport, LintViolation

__all__ = [
    "check_contracts",
    "check_decoder_contracts",
    "check_kernel_contracts",
    "contract_report",
]

#: Protocol surface of :class:`repro.decoders.base.Decoder`.
DECODER_PROTOCOL = ("decode", "decode_many", "reseed")

#: Protocol surface of :class:`repro.decoders.kernels.base.BPKernel`.
KERNEL_PROTOCOL = (
    "start",
    "check_update",
    "variable_update",
    "hard_decision",
    "converged",
    "compact",
)

#: Extra surface required when ``supports_iteration_fusion`` is True.
KERNEL_FUSION_API = ("fused_start", "fused_run", "fused_compact")

#: Tiny registry code every contract check builds against — smallest
#: code in the registry, so ``--contracts`` stays sub-second.
_TINY_CODE = "surface_3"
_TINY_P = 0.05


def _tiny_problem():
    from repro.spec import ProblemSpec

    return ProblemSpec(
        code=_TINY_CODE, model="code_capacity", p=_TINY_P
    ).problem()


def _anchor(obj: Any) -> tuple[str, int]:
    """Source location of a class/function for violation anchoring."""
    target = obj if inspect.isclass(obj) else type(obj)
    try:
        source = inspect.getsourcefile(target)
        line = inspect.getsourcelines(target)[1]
    except (OSError, TypeError):
        return "<contracts>", 0
    if source is None:
        return "<contracts>", 0
    path = Path(source)
    try:
        rel = path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    return rel, line


def _violation(obj: Any, code: str, message: str) -> LintViolation:
    path, line = _anchor(obj)
    return LintViolation(
        path=path, line=line, col=0, code=code, message=message
    )


def _pickle_roundtrip(value: Any) -> Exception | None:
    """Round-trip through pickle; the exception on failure, else None."""
    try:
        pickle.loads(pickle.dumps(value))
    except Exception as exc:  # pickling can raise nearly anything
        return exc
    return None


def check_decoder_contracts(problem=None) -> Iterator[LintViolation]:
    """Contract-check every ``DECODER_REGISTRY`` entry."""
    from repro.decoders.registry import DECODER_REGISTRY, \
        make_decoder_factory

    problem = problem if problem is not None else _tiny_problem()
    for name in sorted(DECODER_REGISTRY):
        factory: Callable[[Any], Any] = DECODER_REGISTRY[name]
        # The engine ships *factories* to worker processes; the
        # canonical wrapper must round-trip pickle even when the raw
        # registry lambda cannot.
        exc = _pickle_roundtrip(make_decoder_factory(name))
        if exc is not None:
            yield _violation(
                factory,
                "REP103",
                f"decoder factory {name!r} does not pickle "
                f"({type(exc).__name__}: {exc}); the engine cannot ship "
                f"it to worker processes",
            )
        try:
            decoder = factory(problem)
        except Exception as exc:
            yield _violation(
                factory,
                "REP104",
                f"decoder factory {name!r} failed to build on "
                f"{_TINY_CODE}: {type(exc).__name__}: {exc}",
            )
            continue
        missing = [
            method
            for method in DECODER_PROTOCOL
            if not callable(getattr(decoder, method, None))
        ]
        for method in missing:
            yield _violation(
                decoder,
                "REP101",
                f"decoder {name!r} ({type(decoder).__name__}) is missing "
                f"protocol method {method!r}",
            )
        if "reseed" not in missing:
            # The engine calls reseed(Generator) once per shard; a
            # signature drift shows up here, not mid-run.
            try:
                decoder.reseed(np.random.default_rng(0))
            except Exception as exc:
                yield _violation(
                    decoder,
                    "REP101",
                    f"decoder {name!r} reseed(Generator) raised "
                    f"{type(exc).__name__}: {exc}",
                )
        exc = _pickle_roundtrip(decoder)
        if exc is not None:
            yield _violation(
                decoder,
                "REP103",
                f"decoder {name!r} instance does not pickle "
                f"({type(exc).__name__}: {exc}); the engine accepts "
                f"pickled-instance decoder specs",
            )


def _declares(cls: type, attribute: str, base: type) -> bool:
    """Whether ``cls`` declares ``attribute`` below ``base`` in its MRO."""
    for klass in cls.__mro__:
        if klass is base:
            return False
        if attribute in vars(klass):
            return True
    return False


def check_kernel_contracts(problem=None) -> Iterator[LintViolation]:
    """Contract-check every *available* ``KERNEL_BACKENDS`` entry.

    Optional backends whose dependency is missing are skipped (their
    clean-degradation story is REP003's and the CLI's job); everything
    registered and importable is held to the full protocol.
    """
    from repro.decoders.kernels import (
        KERNEL_BACKENDS,
        available_backends,
        make_kernel,
    )
    from repro.decoders.kernels.base import BPKernel
    from repro.decoders.tanner import shared_tanner_edges

    problem = problem if problem is not None else _tiny_problem()
    edges = shared_tanner_edges(problem.check_matrix)
    for name in available_backends():
        cls = KERNEL_BACKENDS[name]
        declared = getattr(cls, "name", "")
        if declared != name:
            yield _violation(
                cls,
                "REP105",
                f"kernel backend registered as {name!r} declares "
                f"name={declared!r}; registry key and class name must "
                f"agree",
            )
        if not _declares(cls, "deterministic_sums", BPKernel) or not \
                isinstance(cls.deterministic_sums, bool):
            yield _violation(
                cls,
                "REP102",
                f"kernel backend {name!r} must explicitly declare its "
                f"deterministic_sums tier (bool) in the class body; "
                f"its float sums must follow the reference's order",
            )
        abstract = getattr(cls, "__abstractmethods__", frozenset())
        for method in KERNEL_PROTOCOL:
            attr = getattr(cls, method, None)
            if attr is None or not callable(attr) or method in abstract:
                yield _violation(
                    cls,
                    "REP101",
                    f"kernel backend {name!r} is missing protocol "
                    f"method {method!r}",
                )
        sign_syn = inspect.getattr_static(cls, "sign_syn", None)
        if sign_syn is None or "sign_syn" in abstract:
            yield _violation(
                cls,
                "REP101",
                f"kernel backend {name!r} does not implement the "
                f"sign_syn property",
            )
        if getattr(cls, "supports_iteration_fusion", False):
            for method in KERNEL_FUSION_API:
                if not callable(getattr(cls, method, None)):
                    yield _violation(
                        cls,
                        "REP101",
                        f"kernel backend {name!r} claims "
                        f"supports_iteration_fusion but is missing "
                        f"{method!r}",
                    )
        if abstract:
            # Cannot instantiate a backend with abstract holes; the
            # per-method REP101s above already name them.
            continue
        try:
            kernel = make_kernel(
                name, edges, problem.check_matrix,
                clamp=50.0, dtype=np.float32,
            )
        except Exception as exc:
            yield _violation(
                cls,
                "REP104",
                f"kernel backend {name!r} failed to construct on "
                f"{_TINY_CODE}: {type(exc).__name__}: {exc}",
            )
            continue
        exc = _pickle_roundtrip(kernel)
        if exc is not None:
            yield _violation(
                cls,
                "REP103",
                f"kernel backend {name!r} instance does not pickle "
                f"({type(exc).__name__}: {exc}); decoders embedding it "
                f"must ship to engine workers",
            )


def check_contracts(problem=None) -> list[LintViolation]:
    """All registry contract violations, decoders then kernels."""
    problem = problem if problem is not None else _tiny_problem()
    violations = list(check_decoder_contracts(problem))
    violations.extend(check_kernel_contracts(problem))
    return sorted(violations)


def contract_report(problem=None) -> LintReport:
    """Contract-check both registries and wrap as a lint report.

    ``files_checked`` counts registry entries here (decoders plus
    available kernel backends), keeping the text/JSON summary line
    meaningful in both modes.
    """
    from repro.decoders.kernels import available_backends
    from repro.decoders.registry import DECODER_REGISTRY

    violations = check_contracts(problem)
    n_entries = len(DECODER_REGISTRY) + len(available_backends())
    return LintReport(
        violations=tuple(violations),
        files_checked=n_entries,
        mode="contracts",
    )
