"""Developer tooling: the ``repro lint`` static-analysis pass.

The repository's reproducibility story — bit-identical results across
worker counts, kernel backends and resume points — rests on a handful
of *repo contracts* that no unit test can watch globally:

* **Seed discipline** — every random draw flows from an explicit
  :class:`numpy.random.SeedSequence`-derived generator; global-state
  randomness (``np.random.*`` module functions, the stdlib ``random``
  module, unseeded ``default_rng()``) is banned outside allowlisted
  files (rule ``REP001``).
* **Clock discipline** — stream-determining modules (shard seeding,
  BP kernels, sweep-point hashing) must never read wall clocks
  (``REP002``).
* **Optional-dependency guarding** — ``cffi``/``cupy``/``numba``
  imports must be guarded so the base install degrades to a clean
  "unavailable" report instead of an import crash (``REP003``).
* **Python hygiene** — mutable default arguments and bare ``except:``
  in ``src/repro`` (``REP004``).
* **Registry protocol conformance** — every ``DECODER_REGISTRY`` and
  ``KERNEL_BACKENDS`` entry implements its full protocol, declares its
  determinism tier, and round-trips ``pickle`` (the engine-worker
  contract; ``REP101``–``REP105``).

Three entry points:

* :mod:`repro.devtools.lint` — the AST rule framework behind
  ``python -m repro lint`` (rule registry, config-driven allowlists,
  ``--format text|json``, exit 2 on violations);
* :mod:`repro.devtools.contracts` — the import-time registry contract
  checker behind ``python -m repro lint --contracts``;
* :mod:`repro.devtools.sanitizer` — the runtime leak sanitizer: a
  pytest plugin (``--leak-check``) failing tests that leak processes,
  threads or unclosed executors, plus the strict-``errstate`` helper
  the kernel suites run under.

The checked invariants are catalogued in ``docs/invariants.md``.
"""

from __future__ import annotations

from repro.devtools.lint import (
    LintConfig,
    LintReport,
    LintViolation,
    RULE_REGISTRY,
    Rule,
    RuleConfig,
    register_rule,
    run_lint,
)

__all__ = [
    "LintConfig",
    "LintReport",
    "LintViolation",
    "RULE_REGISTRY",
    "Rule",
    "RuleConfig",
    "register_rule",
    "run_lint",
]
