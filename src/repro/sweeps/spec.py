"""Declarative sweep specifications: family × p × decoder grids.

A *sweep spec* describes an entire figure's worth of logical-error-rate
points — code family, noise model, physical error rates, round counts,
decoders and budgets — as data (TOML or JSON), so that regenerating a
figure is one resumable command instead of a pile of ad-hoc
``run_sweep`` call sites.

TOML schema
-----------
::

    [sweep]                      # run-level defaults
    name = "paper_figures"
    seed = 7                     # master seed (part of point identity)
    shots = 4096                 # shot cap per point (budget)
    max_failures = 100           # adaptive target (optional)
    target_rse = 0.1             # Wilson-CI relative half-width (optional)
    shard_shots = 256            # shard size (part of point identity)
    batch_size = 128             # decode batch (part of point identity)
    backend = "auto"             # BP kernel backend (never part of identity)

    [[grid]]                     # one cartesian grid; many allowed
    figure = "fig5"              # export group label
    codes = ["coprime_154_6_16"]
    model = "code_capacity"      # or "circuit"
    p = [0.08, 0.05, 0.03]
    decoders = ["bpsf", "bposd"]             # registry names, and/or:
    [[grid.decoder]]                          # inline configured decoder
    label = "BP-SF(BP50,w1,phi8)"
    type = "bpsf"
    max_iter = 50
    phi = 8
    w_max = 1
    strategy = "exhaustive"

Grids may override any ``[sweep]`` default (``shots``, ``seed``,
``target_rse``, ``max_failures``, ``shard_shots``, ``batch_size``,
``backend``, ``basis``); circuit-level grids may set ``rounds`` (a
list; default is one entry, the code distance).

Point identity
--------------
Every expanded :class:`SweepPoint` has a stable content hash
(:attr:`SweepPoint.key`) over exactly the parameters that determine the
*sampled shot stream and decoding behaviour*: code, noise model, basis,
``p``, rounds, the decoder configuration, master seed, ``shard_shots``
and ``batch_size``.  Budgets (``shots``, ``max_failures``,
``target_rse``) are **not** part of the identity — raising a budget
refines the *same* store entry with incremental shots.  The BP kernel
``backend`` is excluded too, because backends are bit-identical (see
README "Kernel backends"): re-running a sweep on a different backend
reuses every stored shot.

Shot budgets are rounded **up** to a whole number of shards (and
``shard_shots`` is clamped to the budget when the budget is smaller),
so that a stored prefix of shards can always be extended without
re-sampling: partial trailing shards would make resumed streams diverge
from fresh ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "DECODER_TYPES",
    "ConfiguredDecoderFactory",
    "DecoderSpec",
    "SweepPoint",
    "SweepSpec",
    "load_spec",
    "spec_from_mapping",
]

from repro.spec import (  # noqa: F401  (re-exports: the decoder
    DECODER_TYPES,        # machinery moved to the canonical problem
    SPEC_HASH_VERSION,    # plane in repro.spec; sweeps re-export it
    ConfiguredDecoderFactory,  # for compatibility)
    DecoderSpec,
    ProblemSpec,
    _canonical,
    _decoder_types,
)

_MODELS = ("code_capacity", "circuit")


@dataclass(frozen=True)
class SweepPoint:
    """One fully expanded LER point of a sweep grid."""

    figure: str
    code: str
    model: str
    basis: str
    p: float
    rounds: int | None
    decoder: DecoderSpec
    backend: str | None
    seed: int
    shots: int
    shard_shots: int
    batch_size: int
    max_failures: int | None = None
    target_rse: float | None = None

    # -- identity ------------------------------------------------------

    def spec(self) -> ProblemSpec:
        """The point's canonical problem-plane spec.

        Identity, problem construction and the decoder factory all
        delegate here — one grammar, one builder, one hash.
        """
        return ProblemSpec(
            code=self.code,
            model=self.model,
            p=self.p,
            rounds=self.rounds,
            basis=self.basis,
            decoder=self.decoder,
            backend=self.backend,
        )

    def identity(self) -> dict:
        """The content-hash payload: stream- and behaviour-determining
        parameters only (budgets and the bit-identical kernel backend
        are deliberately excluded — see the module docstring).

        Composed from :meth:`ProblemSpec.payload` plus the stream
        parameters; the layout is **byte-frozen** (golden-hash test) —
        existing stores must resolve unchanged.
        """
        return {
            "version": SPEC_HASH_VERSION,
            **self.spec().payload(),
            "seed": _canonical(self.seed),
            "shard_shots": _canonical(self.shard_shots),
            "batch_size": _canonical(self.batch_size),
        }

    @property
    def key(self) -> str:
        """Stable content-addressed store key (sha256 hex digest)."""
        blob = json.dumps(
            self.identity(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def n_shards(self) -> int:
        """Shard count of the (whole-shard-aligned) budget."""
        return self.shots // self.shard_shots

    @property
    def label(self) -> str:
        """Human-readable point label for reports and tables."""
        rounds = f"/r{self.rounds}" if self.model == "circuit" else ""
        return (
            f"{self.figure}/{self.code}/{self.model}{rounds}"
            f"/p={self.p:g}/{self.decoder.label}"
        )

    # -- materialisation ----------------------------------------------

    def problem(self):
        """Build the decoding problem for this point (via the spec)."""
        return self.spec().problem()

    def decoder_factory(self):
        """A picklable decoder factory honouring the point's backend."""
        return self.spec().decoder_factory()

    def seed_root(self) -> np.random.SeedSequence:
        """The point's master seed root.

        Derived from the content hash (which already folds in the
        spec-level ``seed``), so the stream a point samples never
        depends on its position in the spec file — reordering grids or
        adding points leaves every existing store entry valid.
        """
        return np.random.SeedSequence(int(self.key[:32], 16))

    def with_budget(
        self,
        shots: int | None = None,
        max_failures: int | None = None,
        target_rse: float | None = None,
        override_targets: bool = False,
    ) -> "SweepPoint":
        """A copy with overridden budgets (re-aligned to whole shards).

        ``shots`` overrides the cap; when it undercuts ``shard_shots``
        the shard size shrinks with it — note that *changes the point
        identity* (shard size is part of the sampled-stream contract),
        so overridden runs live in separate store entries.
        ``override_targets`` replaces ``max_failures``/``target_rse``
        even with ``None`` (i.e. clears adaptive stopping).
        """
        point = self
        if override_targets:
            point = replace(
                point, max_failures=max_failures, target_rse=target_rse
            )
        else:
            if max_failures is not None:
                point = replace(point, max_failures=max_failures)
            if target_rse is not None:
                point = replace(point, target_rse=target_rse)
        if shots is not None:
            shard = min(point.shard_shots, shots)
            point = replace(
                point,
                shots=_align_shots(shots, shard),
                shard_shots=shard,
            )
        return point


def _align_shots(shots: int, shard_shots: int) -> int:
    """Round a budget up to a whole number of shards."""
    if shots < 1:
        raise ValueError("shots must be positive")
    if shard_shots < 1:
        raise ValueError("shard_shots must be positive")
    full, rest = divmod(shots, shard_shots)
    return (full + (1 if rest else 0)) * shard_shots


@dataclass
class SweepSpec:
    """A named, validated collection of expanded sweep points."""

    name: str
    seed: int
    points: list[SweepPoint] = field(default_factory=list)
    source: str | None = None

    def __post_init__(self):
        keys = {}
        for point in self.points:
            other = keys.setdefault(point.key, point)
            if other is not point:
                raise ValueError(
                    f"duplicate sweep point: {point.label} and "
                    f"{other.label} hash to the same identity — remove "
                    "one (identical physics under two labels would race "
                    "for one store entry)"
                )

    def figures(self) -> list[str]:
        """Distinct grid/figure labels, in spec order."""
        seen = dict.fromkeys(point.figure for point in self.points)
        return list(seen)

    def with_budget(self, **overrides) -> "SweepSpec":
        """Apply :meth:`SweepPoint.with_budget` to every point."""
        return SweepSpec(
            name=self.name,
            seed=self.seed,
            points=[p.with_budget(**overrides) for p in self.points],
            source=self.source,
        )


#: Keys accepted in the [sweep] defaults table and in [[grid]] tables.
#: Anything else is a typo (e.g. ``max_failure``) that would silently
#: drop a budget knob — rejected loudly instead.
_SWEEP_KEYS = frozenset({
    "name", "seed", "shots", "max_failures", "target_rse",
    "shard_shots", "batch_size", "backend", "basis", "model", "rounds",
})
_GRID_KEYS = frozenset({
    "figure", "label", "codes", "code", "model", "basis", "backend",
    "p", "rounds", "decoders", "decoder", "shots", "shard_shots",
    "batch_size", "max_failures", "target_rse", "seed",
})


def _check_keys(table: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise ValueError(
            f"{where}: unknown key(s) {unknown}; "
            f"allowed: {sorted(allowed)}"
        )


def _grid_value(grid: dict, defaults: dict, key, fallback=None):
    if key in grid:
        return grid[key]
    return defaults.get(key, fallback)


def _as_list(value, what: str) -> list:
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [value]
    if not items:
        raise ValueError(f"{what} must not be empty")
    return items


def spec_from_mapping(data: dict, *, source: str | None = None) -> SweepSpec:
    """Build a validated :class:`SweepSpec` from a parsed mapping.

    ``data`` is the structure a TOML/JSON spec file parses to: a
    ``sweep`` table of defaults and a list of ``grid`` tables.  Raises
    ``ValueError`` with an actionable message on any unknown code,
    decoder, model or malformed axis — before any shot is sampled.
    """
    from repro.codes import list_codes
    from repro.decoders.kernels import resolve_backend

    if not isinstance(data, dict):
        raise ValueError("sweep spec must be a mapping (TOML/JSON table)")
    _check_keys(data, frozenset({"sweep", "grid"}), "sweep spec")
    defaults = dict(data.get("sweep", {}))
    _check_keys(defaults, _SWEEP_KEYS, "[sweep]")
    grids = data.get("grid", [])
    if not grids:
        raise ValueError("sweep spec has no [[grid]] tables")
    name = defaults.get("name", "sweep")
    seed = int(defaults.get("seed", 0))
    known_codes = set(list_codes())

    points: list[SweepPoint] = []
    for index, grid in enumerate(grids):
        figure = grid.get("figure") or grid.get("label") or f"grid{index}"
        _check_keys(grid, _GRID_KEYS, f"[[grid]] {figure}")
        model = _grid_value(grid, defaults, "model", "code_capacity")
        if model not in _MODELS:
            raise ValueError(
                f"[[grid]] {figure}: unknown model {model!r}; "
                f"one of {_MODELS}"
            )
        basis = _grid_value(
            grid, defaults, "basis", "x" if model == "code_capacity" else "z"
        )
        backend = _grid_value(grid, defaults, "backend", "auto")
        if backend in (None, "auto"):
            backend = None  # ambient default; identical results anyway
        else:
            try:
                # Loads optional backends (native) on the spot; an
                # unavailable one fails here with its build error
                # rather than mid-sweep.
                resolve_backend(backend)
            except ValueError as exc:
                raise ValueError(f"[[grid]] {figure}: {exc}") from None
        raw_codes = grid.get("codes", grid.get("code"))
        if raw_codes is None:
            raise ValueError(f"[[grid]] {figure}: needs a 'codes' list")
        codes = _as_list(raw_codes, "codes")
        unknown = [c for c in codes if c not in known_codes]
        if unknown:
            raise ValueError(
                f"[[grid]] {figure}: unknown code(s) {unknown}; "
                f"available: {sorted(known_codes)}"
            )
        if grid.get("p") is None:
            raise ValueError(f"[[grid]] {figure}: needs a 'p' list")
        ps = [float(v) for v in _as_list(grid.get("p"), "p values")]
        decoder_entries = []
        if grid.get("decoders") is not None:
            decoder_entries += _as_list(grid["decoders"], "decoders")
        if grid.get("decoder"):
            decoder_entries += _as_list(grid["decoder"], "decoders")
        if not decoder_entries:
            raise ValueError(
                f"[[grid]] {figure}: needs 'decoders' names and/or "
                "[[grid.decoder]] tables"
            )
        decoders = [DecoderSpec.from_entry(e) for e in decoder_entries]
        if len({d.label for d in decoders}) != len(decoders):
            raise ValueError(
                f"[[grid]] {figure}: decoder labels must be unique"
            )

        rounds_axis: list[int | None]
        if model == "circuit":
            raw_rounds = grid.get("rounds", defaults.get("rounds"))
            if raw_rounds is None:
                rounds_axis = [_default_rounds(code) for code in codes]
                rounds_by_code = dict(zip(codes, rounds_axis))
                rounds_axis = None
            else:
                rounds_axis = [int(r) for r in _as_list(raw_rounds, "rounds")]
                rounds_by_code = None
        else:
            rounds_axis, rounds_by_code = [None], None

        shots = int(_grid_value(grid, defaults, "shots", 1024))
        shard_shots = int(_grid_value(grid, defaults, "shard_shots", 256))
        batch_size = int(_grid_value(grid, defaults, "batch_size", 128))
        if batch_size < 1:
            raise ValueError(f"[[grid]] {figure}: batch_size must be >= 1")
        max_failures = _grid_value(grid, defaults, "max_failures")
        target_rse = _grid_value(grid, defaults, "target_rse")
        if max_failures is not None:
            max_failures = int(max_failures)
            if max_failures < 1:
                raise ValueError(
                    f"[[grid]] {figure}: max_failures must be >= 1"
                )
        if target_rse is not None:
            target_rse = float(target_rse)
            if target_rse <= 0:
                raise ValueError(
                    f"[[grid]] {figure}: target_rse must be positive"
                )
        grid_seed = int(_grid_value(grid, defaults, "seed", seed))
        shard = min(shard_shots, shots)
        shots = _align_shots(shots, shard)

        for code in codes:
            code_rounds = (
                [rounds_by_code[code]] if rounds_by_code is not None
                else rounds_axis
            )
            for p, rounds, decoder in itertools.product(
                ps, code_rounds, decoders
            ):
                points.append(
                    SweepPoint(
                        figure=figure,
                        code=code,
                        model=model,
                        basis=basis,
                        p=p,
                        rounds=rounds,
                        decoder=decoder,
                        backend=backend,
                        seed=grid_seed,
                        shots=shots,
                        shard_shots=shard,
                        batch_size=batch_size,
                        max_failures=max_failures,
                        target_rse=target_rse,
                    )
                )
    return SweepSpec(name=name, seed=seed, points=points, source=source)


def _default_rounds(code_name: str) -> int:
    from repro.codes import get_code

    distance = get_code(code_name).distance
    if distance is None:
        raise ValueError(
            f"code {code_name!r} has no recorded distance; circuit-level "
            "grids over it need an explicit 'rounds' list"
        )
    return int(distance)


def load_spec(path) -> SweepSpec:
    """Load and validate a sweep spec from a ``.toml`` or ``.json`` file."""
    text_path = str(path)
    if text_path.endswith(".json"):
        with open(text_path, "rb") as handle:
            data = json.load(handle)
    else:
        import tomllib

        with open(text_path, "rb") as handle:
            try:
                data = tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                raise ValueError(
                    f"cannot parse sweep spec {text_path}: {exc}"
                ) from exc
    return spec_from_mapping(data, source=text_path)
