"""The repository's lint rules (``REP001``–``REP005``).

Each rule encodes one of the repo contracts described in
``docs/invariants.md``:

* ``REP001`` — global-state randomness: ``np.random.*`` module
  functions, the stdlib ``random`` module, and unseeded
  ``default_rng()`` all draw from process-global or OS entropy, which
  breaks the ``SeedSequence``-only discipline the sharded engine's
  bit-identical guarantee rests on.
* ``REP002`` — wall-clock reads inside *stream-determining* modules
  (shard seeding, BP kernels, sweep-point hashing).  A timestamp that
  leaks into a seed, a message schedule or a content hash makes two
  runs of the same spec silently different.
* ``REP003`` — unguarded optional imports: ``cffi``/``cupy``/``numba``
  must be wrapped in ``try/except ImportError`` (and backends registered via
  ``register_optional_backend``) so the base install degrades to a
  clean "unavailable" report.
* ``REP004`` — mutable default arguments and bare ``except:``: the
  former is shared mutable state across calls (a reproducibility
  hazard, not just a style nit), the latter swallows
  ``KeyboardInterrupt``/``SystemExit`` and hides worker crashes the
  engine's retry logic must see.
* ``REP005`` — direct ``code_capacity_problem`` /
  ``circuit_level_problem`` calls outside the canonical problem plane
  (:mod:`repro.spec`): a bypassed :class:`~repro.spec.ProblemSpec`
  means a workload whose identity, validation and caching diverge from
  every other layer's.  Bench drivers and examples are explicitly
  allowlisted in ``lint.toml`` — visible debt, not silent exemption.

All rules resolve *aliases* (``import numpy as np``, ``from numpy
import random as npr``, ``from time import perf_counter as clock``)
rather than string-matching, so renamed imports cannot dodge them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.devtools.lint import LintViolation, Rule, register_rule

__all__ = [
    "GlobalRandomnessRule",
    "MutableStateHygieneRule",
    "ProblemBuilderBypassRule",
    "UnguardedOptionalImportRule",
    "WallClockRule",
]

# numpy.random attributes that are *not* global-state: the generator
# construction surface of the SeedSequence discipline.
_NP_RANDOM_ALLOWED = frozenset({
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
})

# stdlib random attributes that construct seeded instances instead of
# touching the module-global generator.
_STD_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

# time-module functions that read a wall/CPU clock.
_WALL_CLOCK_FNS = frozenset({
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock_gettime",
    "clock_gettime_ns",
})

_DATETIME_NOW_FNS = frozenset({"now", "utcnow", "today"})

# Top-level packages that are optional dependencies of the repo.
_OPTIONAL_MODULES = frozenset({"cffi", "cupy", "numba"})


@dataclass
class _AliasIndex:
    """Which local names alias the modules/functions the rules watch."""

    numpy: set[str] = field(default_factory=set)
    numpy_random: set[str] = field(default_factory=set)
    std_random: set[str] = field(default_factory=set)
    default_rng: set[str] = field(default_factory=set)
    std_random_funcs: dict[str, str] = field(default_factory=dict)
    time_mod: set[str] = field(default_factory=set)
    time_funcs: dict[str, str] = field(default_factory=dict)
    datetime_mod: set[str] = field(default_factory=set)
    datetime_cls: set[str] = field(default_factory=set)


def _collect_aliases(tree: ast.Module) -> _AliasIndex:
    idx = _AliasIndex()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if alias.asname is None:
                    # ``import numpy.random`` binds the *top* package.
                    top = alias.name.partition(".")[0]
                    if top == "numpy":
                        idx.numpy.add(bound)
                    elif top == "random":
                        idx.std_random.add(bound)
                    elif top == "time":
                        idx.time_mod.add(bound)
                    elif top == "datetime":
                        idx.datetime_mod.add(bound)
                else:
                    if alias.name == "numpy":
                        idx.numpy.add(bound)
                    elif alias.name == "numpy.random":
                        idx.numpy_random.add(bound)
                    elif alias.name == "random":
                        idx.std_random.add(bound)
                    elif alias.name == "time":
                        idx.time_mod.add(bound)
                    elif alias.name == "datetime":
                        idx.datetime_mod.add(bound)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                bound = alias.asname or alias.name
                if module == "numpy" and alias.name == "random":
                    idx.numpy_random.add(bound)
                elif module == "numpy.random":
                    if alias.name == "default_rng":
                        idx.default_rng.add(bound)
                elif module == "random":
                    if alias.name not in _STD_RANDOM_ALLOWED:
                        idx.std_random_funcs[bound] = alias.name
                elif module == "time":
                    if alias.name in _WALL_CLOCK_FNS:
                        idx.time_funcs[bound] = alias.name
                elif module == "datetime":
                    if alias.name == "datetime":
                        idx.datetime_cls.add(bound)
    return idx


def _resolve_call(func: ast.expr, idx: _AliasIndex) -> str | None:
    """Canonical dotted name of a watched callable, or ``None``.

    Handles bare names bound by ``from``-imports and one- or two-level
    attribute chains rooted at a watched module alias
    (``np.random.rand``, ``npr.rand``, ``time.time``,
    ``datetime.datetime.now``).
    """
    if isinstance(func, ast.Name):
        if func.id in idx.default_rng:
            return "numpy.random.default_rng"
        if func.id in idx.std_random_funcs:
            return f"random.{idx.std_random_funcs[func.id]}"
        if func.id in idx.time_funcs:
            return f"time.{idx.time_funcs[func.id]}"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    if isinstance(base, ast.Name):
        if base.id in idx.numpy_random:
            return f"numpy.random.{func.attr}"
        if base.id in idx.std_random:
            return f"random.{func.attr}"
        if base.id in idx.time_mod:
            return f"time.{func.attr}"
        if base.id in idx.datetime_cls:
            return f"datetime.datetime.{func.attr}"
        return None
    if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
        if base.value.id in idx.numpy and base.attr == "random":
            return f"numpy.random.{func.attr}"
        if base.value.id in idx.datetime_mod and base.attr == "datetime":
            return f"datetime.datetime.{func.attr}"
    return None


@register_rule
class GlobalRandomnessRule(Rule):
    """REP001: every random draw must flow from an explicit seed."""

    code = "REP001"
    name = "global-randomness"
    description = (
        "ban np.random module functions, the stdlib random module and "
        "unseeded default_rng(): randomness must derive from an "
        "explicit SeedSequence-rooted generator"
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        idx = _collect_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_call(node.func, idx)
            if target is None:
                continue
            message = None
            if target == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    message = (
                        "unseeded default_rng() draws OS entropy; pass a "
                        "seed or a SeedSequence-spawned child (see "
                        "sim/seeding.py)"
                    )
            elif target.startswith("numpy.random."):
                attr = target.rpartition(".")[2]
                if attr not in _NP_RANDOM_ALLOWED:
                    message = (
                        f"np.random.{attr}() uses the process-global "
                        f"legacy RNG; use a seeded np.random.Generator "
                        f"instead"
                    )
            elif target.startswith("random."):
                attr = target.rpartition(".")[2]
                if attr not in _STD_RANDOM_ALLOWED:
                    message = (
                        f"stdlib random.{attr}() uses the module-global "
                        f"RNG; use a seeded np.random.Generator instead"
                    )
            if message is not None:
                yield LintViolation(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=self.code,
                    message=message,
                )


@register_rule
class WallClockRule(Rule):
    """REP002: stream-determining modules never read wall clocks."""

    code = "REP002"
    name = "wall-clock"
    description = (
        "ban time.time/perf_counter/monotonic and datetime.now inside "
        "stream-determining modules (shard seeding, BP kernels, "
        "sweep-point hashing)"
    )
    # The repository's stream-determining modules; lint.toml can widen
    # or narrow this via [lint.REP002] include.
    default_include = (
        "src/repro/sim/seeding.py",
        "src/repro/decoders/kernels/*",
        "src/repro/spec.py",
        "src/repro/sweeps/spec.py",
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        idx = _collect_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_call(node.func, idx)
            if target is None:
                continue
            fn = target.rpartition(".")[2]
            is_clock = (
                target.startswith("time.") and fn in _WALL_CLOCK_FNS
            ) or (
                target.startswith("datetime.datetime.")
                and fn in _DATETIME_NOW_FNS
            )
            if is_clock:
                yield LintViolation(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=self.code,
                    message=(
                        f"{target}() read inside a stream-determining "
                        f"module; timestamps here break bit-identical "
                        f"reproducibility (time results, don't derive "
                        f"streams from clocks)"
                    ),
                )


def _catches_import_error(node: ast.Try) -> bool:
    """Whether any handler of a ``try`` catches a missing import."""

    def names(expr: ast.expr | None) -> Iterator[str]:
        if expr is None:
            return
        if isinstance(expr, ast.Tuple):
            for element in expr.elts:
                yield from names(element)
        elif isinstance(expr, ast.Name):
            yield expr.id
        elif isinstance(expr, ast.Attribute):
            yield expr.attr

    catching = {"ImportError", "ModuleNotFoundError", "Exception",
                "BaseException"}
    for handler in node.handlers:
        if handler.type is None:  # bare except (REP004's problem, but
            return True           # it does guard the import)
        if catching & set(names(handler.type)):
            return True
    return False


@register_rule
class UnguardedOptionalImportRule(Rule):
    """REP003: optional dependencies import behind an ImportError guard."""

    code = "REP003"
    name = "unguarded-optional-import"
    description = (
        "cffi/cupy/numba imports must sit inside try/except ImportError "
        "(and register backends via register_optional_backend) so the "
        "base install degrades cleanly"
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        yield from self._visit(tree, path, guarded=False)

    def _visit(
        self, node: ast.AST, path: str, guarded: bool
    ) -> Iterator[LintViolation]:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from self._check_import(node, path, guarded)
            return
        if isinstance(node, ast.Try):
            body_guarded = guarded or _catches_import_error(node)
            for stmt in node.body:
                yield from self._visit(stmt, path, body_guarded)
            for handler in node.handlers:
                for stmt in handler.body:
                    yield from self._visit(stmt, path, guarded)
            for stmt in (*node.orelse, *node.finalbody):
                yield from self._visit(stmt, path, guarded)
            return
        for child in ast.iter_child_nodes(node):
            yield from self._visit(child, path, guarded)

    def _check_import(
        self, node: ast.Import | ast.ImportFrom, path: str, guarded: bool
    ) -> Iterator[LintViolation]:
        if guarded:
            return
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = [alias.name for alias in node.names]
        for module in modules:
            top = module.partition(".")[0]
            if top in _OPTIONAL_MODULES:
                yield LintViolation(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=self.code,
                    message=(
                        f"unguarded import of optional dependency "
                        f"{top!r}; wrap in try/except ImportError and "
                        f"register backends via "
                        f"register_optional_backend so missing deps "
                        f"degrade to a clean 'unavailable' report"
                    ),
                )


# Default-argument expressions that evaluate once at ``def`` time and
# are then shared, mutable, across every call.
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)
_MUTABLE_BUILTIN_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
})


@register_rule
class MutableStateHygieneRule(Rule):
    """REP004: no mutable default arguments, no bare ``except:``."""

    code = "REP004"
    name = "mutable-state-hygiene"
    description = (
        "ban mutable default arguments (call-to-call shared state) and "
        "bare except: clauses (swallow KeyboardInterrupt and hide "
        "worker crashes) in src/repro"
    )
    default_include = ("src/repro/*",)

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if self._is_mutable(default):
                        label = getattr(node, "name", "<lambda>")
                        yield LintViolation(
                            path=path,
                            line=default.lineno,
                            col=default.col_offset,
                            code=self.code,
                            message=(
                                f"mutable default argument in "
                                f"{label}(): evaluated once at def "
                                f"time and shared across calls; "
                                f"default to None and build inside"
                            ),
                        )
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield LintViolation(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=self.code,
                    message=(
                        "bare 'except:' also catches KeyboardInterrupt/"
                        "SystemExit; catch Exception (or something "
                        "narrower) instead"
                    ),
                )

    @staticmethod
    def _is_mutable(default: ast.expr) -> bool:
        if isinstance(default, _MUTABLE_LITERALS):
            return True
        return (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in _MUTABLE_BUILTIN_CALLS
        )


#: The physics builders only :mod:`repro.spec` may call directly.
_PROBLEM_BUILDERS = frozenset({
    "code_capacity_problem",
    "circuit_level_problem",
})


@register_rule
class ProblemBuilderBypassRule(Rule):
    """REP005: problems are built through the canonical problem plane."""

    code = "REP005"
    name = "problem-builder-bypass"
    description = (
        "ban direct code_capacity_problem/circuit_level_problem calls "
        "outside repro.spec: a bypassed ProblemSpec means a workload "
        "whose identity, validation and caching diverge from the "
        "canonical problem plane (bench drivers and examples are "
        "allowlisted in lint.toml)"
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        if path.replace("\\", "/").endswith("repro/spec.py"):
            return  # the canonical plane itself
        bound: dict[str, str] = {}
        repro_aliases: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "repro" or module.startswith("repro."):
                    for alias in node.names:
                        if alias.name in _PROBLEM_BUILDERS:
                            bound[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] != "repro":
                        continue
                    # ``import repro.circuits`` binds the top package;
                    # an asname binds the full module path.
                    repro_aliases.add(alias.asname or "repro")
        if not bound and not repro_aliases:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            builder = self._builder_call(node.func, bound, repro_aliases)
            if builder is not None:
                yield LintViolation(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=self.code,
                    message=(
                        f"direct {builder}() call bypasses the canonical "
                        f"problem plane; build the workload through "
                        f"repro.spec.ProblemSpec (one grammar, one "
                        f"builder, one content hash)"
                    ),
                )

    @staticmethod
    def _builder_call(
        func: ast.expr, bound: dict[str, str], repro_aliases: set[str]
    ) -> str | None:
        if isinstance(func, ast.Name):
            return bound.get(func.id)
        if isinstance(func, ast.Attribute) and func.attr in _PROBLEM_BUILDERS:
            base = func.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in repro_aliases:
                return func.attr
        return None
