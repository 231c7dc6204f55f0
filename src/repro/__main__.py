"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``codes`` — list the registered codes with their parameters;
* ``run <experiment-id> [...]`` — regenerate paper figures/tables
  (``python -m repro run fig5 fig12``; ``run all`` for everything);
* ``decode <code> [--p P] [--shots N]`` — quick decode demo printing
  per-shot BP-SF outcomes;
* ``ler <code> [--decoder NAME] [--workers K] [--target-rse R]
  [--backend B]`` — logical-error-rate estimation through the sharded
  multi-process experiment engine (seed-reproducible for any worker
  count and BP kernel backend);
* ``sweep run|show|export <spec.toml>`` — declarative sweep specs
  with a persistent, content-addressed results store: ``run`` computes
  only missing/under-resolved points (a re-run computes 0 new shots),
  ``show`` prints each point's plan without computing, ``export``
  renders benchmark-style tables or CSV from the store
  (see ``docs/reproducing-figures.md`` for the figure-by-figure map);
* ``analyze <code>`` — Tanner-graph / trapping-set census and an
  oscillation-cluster report from live BP failures (Sec. III);
* ``stream <code> [--rounds R]`` — streaming-queue simulation under
  the hardware latency model (the intro's backlog argument);
* ``serve <code> [--clients M] [--workers K] [--max-batch B]`` — live
  asyncio decode service: concurrent clients stream syndromes through
  the cross-client batcher + worker pool, with backpressure and
  queueing telemetry (the backlog argument on a *real* server);
* ``serve-net [--problem KEY ...] [--clients M] [--pools K]`` — the
  networked multi-problem front end: a TCP server speaking the
  length-prefixed binary protocol routes requests by problem key
  through a consistent-hash ring to per-problem pools (priority
  lanes, deadlines, adaptive batching), driven by real-socket
  clients and verified bit-identical against offline ``decode_many``;
* ``hardware`` — the Discussion's real-time latency budget table;
* ``backends`` — registered BP kernel backends with availability,
  runtime version and the error keeping an optional backend
  (``native``: cffi + a C compiler) out of the registry;
* ``lint`` — the repo-contract static-analysis pass (seed discipline,
  wall-clock bans, optional-import guarding, hygiene) and, with
  ``--contracts``, the import-time registry contract checker
  (protocol conformance, determinism declarations, picklability).
  Exit 0 when clean, 2 on violations; see ``docs/invariants.md``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

_EPILOG = """\
subcommand overview:
  codes                 list registered code constructions
  run ID [ID...]        regenerate paper figures/tables by experiment id
  decode CODE           per-shot BP-SF decode demo
  ler CODE              one LER point via the sharded engine
                        (--workers/--target-rse/--max-failures/--backend)
  sweep run SPEC        compute a declarative sweep; resumable — only
                        missing or under-resolved points cost shots
  sweep show SPEC       plan a sweep against the store (no compute)
  sweep export SPEC     tables/CSV from stored results (no compute)
  analyze CODE          Tanner-graph + oscillation-cluster census
  stream CODE           streaming-queue simulation (hardware model)
  serve CODE            live decode service: concurrent clients,
                        cross-client batching, backpressure, telemetry
  serve-net             networked multi-problem service: TCP framing,
                        consistent-hash routing, priority lanes,
                        deadlines, per-pool telemetry + parity check
  hardware              real-time latency budget table
  backends              BP kernel backends: availability + runtime
  lint                  repo-contract static analysis (exit 2 on
                        violations); --contracts checks the decoder/
                        kernel registries instead

docs: docs/reproducing-figures.md maps every paper figure to its sweep
spec and command; docs/architecture.md describes the layer stack;
docs/invariants.md catalogues the lint rule codes and the contracts
they enforce.
"""


def _cmd_codes(_args) -> int:
    from repro.codes import get_code, list_codes

    for name in list_codes():
        code = get_code(name)
        d = code.distance if code.distance is not None else "?"
        print(f"{name:22s} [[{code.n}, {code.k}, {d}]]")
    return 0


def _cmd_run(args) -> int:
    from repro.bench import ALL_EXPERIMENTS

    requested = args.experiments
    if requested == ["all"]:
        requested = list(ALL_EXPERIMENTS)
    unknown = [e for e in requested if e not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    for experiment_id in requested:
        table = ALL_EXPERIMENTS[experiment_id]()
        print(table.render())
        print()
    return 0


def _cmd_decode(args) -> int:
    from repro import BPSFDecoder, get_code
    from repro.spec import ProblemSpec

    code = get_code(args.code)
    problem = ProblemSpec(
        code=args.code, model="code_capacity", p=args.p
    ).problem()
    decoder = BPSFDecoder(
        problem, max_iter=50, phi=max(4, code.k // 2), w_max=1,
        strategy="exhaustive",
    )
    rng = np.random.default_rng(args.seed)
    errors = problem.sample_errors(args.shots, rng)
    syndromes = problem.syndromes(errors)
    failures = 0
    for i in range(args.shots):
        result = decoder.decode(syndromes[i])
        failed = bool(problem.is_failure(errors[i], result.error)[0])
        failures += failed
        print(
            f"shot {i:3d}: stage={result.stage:8s} "
            f"iterations={result.iterations:4d} "
            f"{'FAIL' if failed else 'ok'}"
        )
    print(f"\nlogical error rate: {failures}/{args.shots}")
    return 0


class _ProgressPrinter:
    """Single-line ``done/total`` progress meter on stderr.

    Matches the engine's ``on_progress(done, total)`` signature — the
    same instance serves ``ler``/``sweep run`` shard counters and the
    decode service's per-request telemetry loop.
    """

    def __init__(self, label: str):
        self.label = label
        self._last = None

    def __call__(self, done: int, total: int) -> None:
        line = f"{self.label}: {done}/{total}"
        if line == self._last:
            return
        # Pad to the previous line's length: an adaptive stop can
        # *shrink* the total, and a shorter overwrite would otherwise
        # leave stale digits from the longer one.
        pad = " " * max(0, len(self._last or "") - len(line))
        self._last = line
        print(f"\r{line}{pad}", end="", file=sys.stderr, flush=True)

    def close(self) -> None:
        """Terminate the progress line before normal output resumes."""
        if self._last is not None:
            print(file=sys.stderr, flush=True)


def _progress_arg(args, label: str):
    """``(on_progress, close)`` pair for a ``--progress`` flag."""
    if not getattr(args, "progress", False):
        return None, lambda: None
    printer = _ProgressPrinter(label)
    return printer, printer.close


def _shard_timeout_arg(value):
    """Normalize a ``--shard-timeout`` flag shared by ler and sweep run.

    Returns ``(timeout, error)``: ``None`` timeout waits forever (flag
    value 0), absent flag means the engine default, and a negative
    value — almost certainly a typo — is an error rather than a silent
    disabling of the hang watchdog.
    """
    from repro.sim.engine import DEFAULT_SHARD_TIMEOUT

    if value is None:
        return DEFAULT_SHARD_TIMEOUT, None
    if value < 0:
        return None, "--shard-timeout must be >= 0 (0 waits forever)"
    return (value if value > 0 else None), None


def _decode_workload(args):
    """Validate the (code, decoder, backend) triple and build the task.

    The shared front half of ``ler`` and ``serve``, expressed as a
    :class:`~repro.spec.ProblemSpec` — the canonical problem plane:
    registry checks with friendly errors, then the problem (code
    capacity or circuit level) and a **picklable** decoder factory
    carrying the *resolved* kernel backend — so worker processes build
    the decoder with that backend and sharded/served runs stay
    bit-identical across backends and worker counts.  Returns
    ``(problem, factory, None)`` or ``(None, None, 2)`` after printing
    the error.
    """
    from repro.decoders.kernels import resolve_backend
    from repro.spec import DecoderSpec, ProblemSpec

    try:
        spec = ProblemSpec(
            code=args.code,
            model="circuit" if args.circuit else "code_capacity",
            p=args.p,
            rounds=args.rounds,
            basis=getattr(args, "basis", None),
            decoder=DecoderSpec(label=args.decoder, registry=args.decoder),
            backend=args.backend,
        ).validate()
    except ValueError as exc:
        # validate() reports unknown components in the historical
        # decoder -> code -> backend order with the historical texts
        # (resolve_backend's message lists the known backends and any
        # registered-but-unavailable optional ones, e.g. native).
        print(str(exc), file=sys.stderr)
        return None, None, 2
    try:
        problem = spec.problem()
    except ValueError as exc:
        # E.g. a distance-less code needs an explicit --rounds.
        print(f"cannot build problem for {args.code!r}: {exc}",
              file=sys.stderr)
        return None, None, 2
    # Pin the *resolved* backend (not "auto") into the factory: an
    # active use_backend override or REPRO_BP_BACKEND in this process
    # must reach spawned workers.
    return problem, spec.decoder.factory(resolve_backend(args.backend)), \
        None


def _cmd_ler(args) -> int:
    from repro.sim import run_ler_parallel

    if args.workers < 1 or args.shots < 1:
        print("--workers and --shots must be positive", file=sys.stderr)
        return 2
    shard_timeout, timeout_error = _shard_timeout_arg(args.shard_timeout)
    if timeout_error:
        print(timeout_error, file=sys.stderr)
        return 2
    if args.max_worker_restarts is not None and args.max_worker_restarts < 0:
        print("--max-worker-restarts must be non-negative", file=sys.stderr)
        return 2
    restarts = {}
    if args.max_worker_restarts is not None:
        restarts["max_worker_restarts"] = args.max_worker_restarts
    problem, factory, code = _decode_workload(args)
    if problem is None:
        return code
    on_progress, close_progress = _progress_arg(args, "shards")
    try:
        result = run_ler_parallel(
            problem,
            factory,
            args.shots,
            args.seed,
            n_workers=args.workers,
            max_failures=args.max_failures,
            target_rse=args.target_rse,
            shard_shots=args.shard_shots,
            shard_timeout=shard_timeout,
            on_progress=on_progress,
            **restarts,
        )
    finally:
        close_progress()
    print(result)
    lo, hi = result.confidence_interval
    rse = (hi - lo) / (2 * result.ler) if result.failures else float("inf")
    print(
        f"workers={args.workers} shots={result.shots} "
        f"failures={result.failures} CI-rel-halfwidth={rse:.3f}"
    )
    return 0


def _load_sweep_spec(args):
    """Load + budget-override the spec named on the command line.

    Returns ``(spec, None)`` or ``(None, exit_code)`` after printing a
    friendly error.  The same overrides must be passed to ``run``,
    ``show`` and ``export``: ``--shots`` below the spec's shard size
    shrinks the shard size with it, which is part of the point identity
    (overridden runs live in separate store entries).
    """
    from repro.sweeps import load_spec

    try:
        spec = load_spec(args.spec)
    except FileNotFoundError:
        print(f"sweep spec not found: {args.spec}", file=sys.stderr)
        return None, 2
    except ValueError as exc:
        print(f"invalid sweep spec {args.spec}: {exc}", file=sys.stderr)
        return None, 2
    if args.shots is not None and args.shots < 1:
        print("--shots must be positive", file=sys.stderr)
        return None, 2
    if args.max_failures is not None and args.max_failures < 1:
        print("--max-failures must be positive", file=sys.stderr)
        return None, 2
    if args.target_rse is not None and args.target_rse <= 0:
        print("--target-rse must be positive", file=sys.stderr)
        return None, 2
    override_targets = args.max_failures is not None or (
        args.target_rse is not None
    )
    try:
        spec = spec.with_budget(
            shots=args.shots,
            max_failures=args.max_failures,
            target_rse=args.target_rse,
            override_targets=override_targets,
        )
    except ValueError as exc:
        # E.g. a --shots clamp collapsing two grids' shard sizes into
        # identical point identities.
        print(f"invalid budget override for {args.spec}: {exc}",
              file=sys.stderr)
        return None, 2
    return spec, None


def _sweep_store(args):
    from repro.sweeps import ResultsStore

    return ResultsStore(args.store)


def _point_status_line(plan) -> str:
    point = plan.point
    if plan.entry is None:
        detail = "no stored shots"
    else:
        result = plan.entry.result
        detail = (
            f"{result.shots} shots, {result.failures} failures, "
            f"{plan.shards_done}/{point.n_shards} shards"
        )
    return f"  [{plan.status:9s}] {point.label} ({detail})"


def _cmd_sweep_run(args) -> int:
    from repro.sweeps import StoreCorruptionError, run_sweep_spec, \
        sweep_tables

    spec, code = _load_sweep_spec(args)
    if spec is None:
        return code
    if args.workers < 1:
        print("--workers must be positive", file=sys.stderr)
        return 2
    shard_timeout, timeout_error = _shard_timeout_arg(args.shard_timeout)
    if timeout_error:
        print(timeout_error, file=sys.stderr)
        return 2
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        print("--checkpoint-every must be positive", file=sys.stderr)
        return 2
    if args.max_worker_restarts is not None and args.max_worker_restarts < 0:
        print("--max-worker-restarts must be non-negative", file=sys.stderr)
        return 2
    restarts = {}
    if args.max_worker_restarts is not None:
        restarts["max_worker_restarts"] = args.max_worker_restarts
    store = _sweep_store(args)
    on_progress, close_progress = _progress_arg(args, "shards")
    try:
        report = run_sweep_spec(
            spec, store,
            n_workers=args.workers,
            shard_timeout=shard_timeout,
            checkpoint_every=args.checkpoint_every,
            progress=print,
            on_progress=on_progress,
            **restarts,
        )
    except StoreCorruptionError as exc:
        print(f"results store is corrupted: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # E.g. a store entry whose identity payload no longer matches
        # the spec point that hashes to it (hand-edited store), or a
        # problem parameter the physics layer rejects.
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    finally:
        close_progress()
    counts = report.counts()
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"sweep {spec.name}: {summary}")
    print(f"total new shots: {report.new_shots}")
    # Render from the results already in memory — no second store read.
    for table in sweep_tables(spec, store, results=report.results):
        print()
        print(table.render())
    return 0


def _cmd_sweep_show(args) -> int:
    from repro.sweeps import StoreCorruptionError, plan_sweep

    spec, code = _load_sweep_spec(args)
    if spec is None:
        return code
    store = _sweep_store(args)
    try:
        plans = plan_sweep(spec, store)
    except StoreCorruptionError as exc:
        print(f"results store is corrupted: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    print(f"sweep {spec.name} vs store {store.root}:")
    for plan in plans:
        print(_point_status_line(plan))
    pending = sum(1 for p in plans if p.status != "resolved")
    print(
        f"{len(plans)} points: {len(plans) - pending} resolved, "
        f"{pending} would run"
    )
    return 0


def _cmd_sweep_export(args) -> int:
    from repro.sweeps import StoreCorruptionError, sweep_csv, sweep_tables

    spec, code = _load_sweep_spec(args)
    if spec is None:
        return code
    store = _sweep_store(args)
    try:
        if args.format == "csv":
            text = sweep_csv(spec, store)
        else:
            text = "\n\n".join(
                table.render() for table in sweep_tables(spec, store)
            ) + "\n"
    except StoreCorruptionError as exc:
        print(f"results store is corrupted: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_sweep(args) -> int:
    handlers = {
        "run": _cmd_sweep_run,
        "show": _cmd_sweep_show,
        "export": _cmd_sweep_export,
    }
    return handlers[args.sweep_command](args)


def _cmd_analyze(args) -> int:
    from repro.analysis.failures import failure_census
    from repro.analysis.trapping_sets import (
        count_four_cycles,
        degenerate_mechanisms,
        girth,
        oscillation_clusters,
    )
    from repro.codes import get_code
    from repro.decoders import MinSumBP
    from repro.spec import ProblemSpec

    code = get_code(args.code)
    problem = ProblemSpec(
        code=args.code, model="code_capacity", p=args.p
    ).problem()
    print(f"{code.name}: girth={girth(code.hx)}, "
          f"4-cycles={count_four_cycles(code.hx)}, "
          f"degenerate column groups="
          f"{len(degenerate_mechanisms(problem.check_matrix))}")

    bp = MinSumBP(problem, max_iter=args.max_iter, track_oscillations=True)
    rng = np.random.default_rng(args.seed)
    errors = problem.sample_errors(args.shots, rng)
    batch = bp.decode_many(problem.syndromes(errors))
    failures = np.nonzero(~batch.converged)[0]
    print(f"BP{args.max_iter} failures: {failures.size}/{args.shots} "
          f"shots at p={args.p}")
    for i in failures[: args.max_reports]:
        clusters = oscillation_clusters(
            problem.check_matrix, batch.flip_counts[i], phi=args.phi
        )
        labels = " ".join(f"({c.a},{c.b})" for c in clusters) or "-"
        print(f"  shot {int(i):4d}: oscillation clusters {labels}")

    census = failure_census(
        problem, MinSumBP(problem, max_iter=args.max_iter),
        args.shots, np.random.default_rng(args.seed),
    )
    print(census)
    histogram = census.weight_histogram("failed")
    if histogram:
        spread = " ".join(f"w{w}:{c}" for w, c in histogram.items())
        print(f"defeating-error weights: {spread}")
    return 0


def _cmd_stream(args) -> int:
    from repro import BPSFDecoder
    from repro.analysis.hardware import HardwareLatencyModel
    from repro.sim import run_streaming
    from repro.spec import ProblemSpec

    problem = ProblemSpec(
        code=args.code, model="circuit", p=args.p, rounds=args.rounds
    ).problem()
    decoder = BPSFDecoder(
        problem, max_iter=100, phi=50, w_max=6, n_s=5,
        strategy="sampled", seed=args.seed,
    )
    hardware = HardwareLatencyModel()
    rng = np.random.default_rng(args.seed)
    report = run_streaming(
        problem, decoder, args.shots, rng, hardware=hardware
    )
    print(f"{problem.name}: arrival period "
          f"{hardware.syndrome_budget_us(problem.rounds):.1f} us")
    print(report)
    print(f"worst response {report.worst_response:.2f} us, "
          f"mean wait {report.mean_wait:.3f} us")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import ServiceConfig, run_service_stream
    from repro.sim.timing import measure_latency

    if args.workers < 0:
        print("--workers must be >= 0 (0 decodes in-process)",
              file=sys.stderr)
        return 2
    if args.shots < 1 or args.clients < 1:
        print("--shots and --clients must be positive", file=sys.stderr)
        return 2
    if args.max_batch < 1 or args.max_pending < 1:
        print("--max-batch and --max-pending must be positive",
              file=sys.stderr)
        return 2
    if args.period_us is not None and args.period_us <= 0:
        print("--period-us must be positive", file=sys.stderr)
        return 2
    if args.rho <= 0:
        print("--rho must be positive (values >= 1 demonstrate an "
              "overloaded, diverging queue)", file=sys.stderr)
        return 2
    if args.flush_ms is not None and args.flush_ms < 0:
        print("--flush-ms must be non-negative", file=sys.stderr)
        return 2
    problem, factory, code = _decode_workload(args)
    if problem is None:
        return code

    if args.period_us is not None:
        period = args.period_us * 1e-6
        calibration = "fixed by --period-us"
    else:
        # Calibrate the arrival period to a target utilisation: time
        # per-syndrome decodes offline (a throwaway decoder instance,
        # so the service's own RNG streams are untouched) and set the
        # period so mean service / period == --rho.  Single-shot
        # latency is the conservative basis — cross-client batching
        # only lowers the live per-shot service time below it.
        warmup = min(32, args.shots)
        timing = measure_latency(
            problem, factory(problem), shots=warmup,
            rng=np.random.default_rng(args.seed),
        )
        period = timing.wall_summary.mean / args.rho
        calibration = (
            f"calibrated from {warmup} warmup shots at target "
            f"rho {args.rho:.2f}"
        )

    config = ServiceConfig(
        max_batch=args.max_batch,
        flush_latency=(
            args.flush_ms * 1e-3 if args.flush_ms is not None else None
        ),
        max_pending=args.max_pending,
        n_workers=args.workers,
        period=period,
    )
    on_progress, close_progress = _progress_arg(args, "responses")
    print(
        f"serving {problem.name}: decoder {args.decoder}, "
        f"workers={args.workers or 'in-process'}, "
        f"max_batch={config.max_batch}, "
        f"flush={config.effective_flush_latency * 1e3:.2f} ms, "
        f"max_pending={config.max_pending}"
    )
    print(f"arrival period {period * 1e6:.1f} us ({calibration}); "
          f"{args.clients} clients x "
          f"{-(-args.shots // args.clients)} syndromes")
    try:
        result = run_service_stream(
            problem, factory, args.shots, args.seed,
            period=period, n_clients=args.clients, config=config,
            on_progress=on_progress,
        )
    finally:
        close_progress()
    failures = int(
        problem.is_failure(result.errors, result.batch.errors).sum()
    )
    print(f"responses decoded: {result.n_decoded}/{args.shots} "
          f"({failures} logical failures)")
    print(result.snapshot)
    print(f"queue model on recorded service times: {result.model}")
    return 0


# Default catalog for `serve-net` demos/smokes: two problems sharing a
# code but not a decoder, so the ring has something to spread.
_SERVE_NET_DEFAULT_PROBLEMS = (
    "surface_3:capacity:p=0.08:r=1:min_sum_bp:auto",
    "surface_3:capacity:p=0.08:r=1:bpsf:auto",
)


def _cmd_serve_net(args) -> int:
    import asyncio

    from repro.service.net import (
        NetClient,
        NetDecodeServer,
        NetServerConfig,
        ProblemKey,
        Status,
    )

    if args.shots < 1 or args.clients < 1:
        print("--shots and --clients must be positive", file=sys.stderr)
        return 2
    if args.pools < 1 or args.vnodes < 1 or args.pool_threads < 1:
        print("--pools, --vnodes and --pool-threads must be positive",
              file=sys.stderr)
        return 2
    if args.max_batch < 1 or args.min_batch < 1 \
            or args.min_batch > args.max_batch:
        print("need 1 <= --min-batch <= --max-batch", file=sys.stderr)
        return 2
    if args.max_pending < 1 or args.max_lane_depth < 1:
        print("--max-pending and --max-lane-depth must be positive",
              file=sys.stderr)
        return 2
    if args.flush_ms is not None and args.flush_ms < 0:
        print("--flush-ms must be non-negative", file=sys.stderr)
        return 2
    if args.period_us is not None and args.period_us <= 0:
        print("--period-us must be positive", file=sys.stderr)
        return 2
    if args.deadline_us < 0:
        print("--deadline-us must be non-negative (0 = no deadline)",
              file=sys.stderr)
        return 2

    raw_keys = args.problem or list(_SERVE_NET_DEFAULT_PROBLEMS)
    try:
        keys = [str(ProblemKey.parse(k)) for k in raw_keys]
        server = NetDecodeServer(keys, NetServerConfig(
            port=args.port,
            n_pools=args.pools,
            vnodes=args.vnodes,
            pool_threads=args.pool_threads,
            max_batch=args.max_batch,
            min_batch=args.min_batch,
            flush_latency=(
                args.flush_ms * 1e-3 if args.flush_ms is not None else None
            ),
            max_pending=args.max_pending,
            max_lane_depth=args.max_lane_depth,
            period=(
                args.period_us * 1e-6 if args.period_us is not None
                else None
            ),
        ))
    except ValueError as exc:
        print(f"cannot serve this problem set: {exc}", file=sys.stderr)
        return 2

    # One deterministic request schedule: request i targets problem
    # i mod n_problems, with per-problem seeded sampling — so the
    # offline parity reference is exactly reproducible.
    per_key_problems = {
        key: server.router.catalog[key][0] for key in keys
    }
    per_key_count = {
        key: len(range(i, args.shots, len(keys)))
        for i, key in enumerate(keys)
    }
    per_key_syndromes = {}
    for i, key in enumerate(keys):
        problem = per_key_problems[key]
        rng = np.random.default_rng([args.seed, i])
        errors = problem.sample_errors(per_key_count[key], rng)
        per_key_syndromes[key] = problem.syndromes(errors)
    schedule = []           # (request index, key, per-key syndrome index)
    cursors = {key: 0 for key in keys}
    for i in range(args.shots):
        key = keys[i % len(keys)]
        schedule.append((i, key, cursors[key]))
        cursors[key] += 1

    deadline = args.deadline_us * 1e-6
    period = args.period_us * 1e-6 if args.period_us is not None else None
    on_progress, close_progress = _progress_arg(args, "responses")
    answered = 0

    async def _client_stream(client, slots, t0):
        nonlocal answered
        loop = asyncio.get_running_loop()
        admitted = []
        for slot, key, index in slots:
            if period is not None:
                delay = t0 + slot * period - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            admitted.append((slot, key, index, await client.enqueue(
                key, per_key_syndromes[key][index],
                priority=(0 if slot % 4 == 0 else 1),
                deadline=deadline,
            )))
        out = []
        for slot, key, index, future in admitted:
            out.append((slot, key, index, await future))
            answered += 1
            if on_progress is not None:
                on_progress(answered, args.shots)
        return out

    async def _run():
        async with server:
            clients = [
                await NetClient.connect("127.0.0.1", server.port)
                for _ in range(args.clients)
            ]
            try:
                t0 = asyncio.get_running_loop().time()
                stripes = [
                    schedule[c::args.clients] for c in range(args.clients)
                ]
                results = await asyncio.gather(*(
                    _client_stream(client, stripe, t0)
                    for client, stripe in zip(clients, stripes)
                ))
                await server.drain()
            finally:
                for client in clients:
                    await client.close()
            return [r for stripe in results for r in stripe], \
                server.snapshot()

    try:
        responses, snapshot = asyncio.run(_run())
    finally:
        close_progress()

    by_status = {}
    for _, _, _, response in responses:
        name = Status(response.status).name
        by_status[name] = by_status.get(name, 0) + 1
    breakdown = ", ".join(
        f"{v} {k}" for k, v in sorted(by_status.items())
    )
    print(f"responses decoded: {len(responses)}/{args.shots} ({breakdown})")

    # Bit-parity audit: every OK response must match the per-problem
    # offline decode_many on the identical syndromes.
    from repro.sim.engine import resolve_decoder

    mismatches = 0
    for key in keys:
        factory = server.router.catalog[key][1]
        offline = resolve_decoder(factory, per_key_problems[key]) \
            .decode_many(per_key_syndromes[key])
        for _, k, index, response in responses:
            if k != key or not response.ok:
                continue
            if not (
                np.array_equal(response.error, offline.errors[index])
                and response.converged == bool(offline.converged[index])
                and response.iterations == int(offline.iterations[index])
            ):
                mismatches += 1
    ok_count = by_status.get("OK", 0)
    print(f"offline parity: {ok_count - mismatches}/{ok_count} OK "
          f"responses bit-identical"
          + (" — PARITY FAILURE" if mismatches else ""))
    print(snapshot)
    return 1 if mismatches else 0


def _cmd_backends(_args) -> int:
    """List BP kernel backends with availability and runtime version."""
    from repro.decoders.kernels import backend_availability

    report = backend_availability()
    width = max(len(name) for name in report)
    for name, info in report.items():
        flags = []
        if info["default"]:
            flags.append("default")
        if info["optional"]:
            flags.append("optional")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        if info["available"]:
            status = f"available ({info['runtime']})"
        else:
            status = f"unavailable: {info['error']}"
        print(f"{name:{width}s}  {status}{suffix}")
    return 0


def _cmd_lint(args) -> int:
    """Repo-contract static analysis; exit 0 clean, 2 on violations."""
    from repro.devtools.lint import LintConfig, RULE_REGISTRY, run_lint

    if args.list_rules:
        for code in sorted(RULE_REGISTRY):
            rule = RULE_REGISTRY[code]
            scope = (
                ", ".join(rule.default_include)
                if rule.default_include is not None
                else "all files"
            )
            print(f"{code} {rule.name}: {rule.description} [{scope}]")
        return 0

    config = LintConfig()
    config_path = args.config
    if config_path is None:
        # Auto-discover the repository config when run from the root.
        from pathlib import Path

        default = Path("lint.toml")
        if default.is_file():
            config_path = str(default)
    if config_path is not None:
        try:
            config = LintConfig.from_toml(config_path)
        except FileNotFoundError:
            print(f"lint config not found: {config_path}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"invalid lint config {config_path}: {exc}",
                  file=sys.stderr)
            return 2

    if args.contracts:
        from repro.devtools.contracts import contract_report

        report = contract_report()
    else:
        try:
            report = run_lint(paths=args.paths or None, config=config)
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    print(report.render(args.format))
    return 0 if report.clean else 2


def _cmd_hardware(args) -> int:
    from repro.analysis.hardware import HardwareLatencyModel

    model = HardwareLatencyModel(
        iteration_ns=args.iteration_ns, round_time_us=args.round_time_us
    )
    worst = model.worst_case_us(args.initial_iters, args.trial_iters)
    print(f"BP iteration latency : {model.iteration_ns:.0f} ns")
    print(f"round time           : {model.round_time_us:.1f} us")
    print(f"worst-case decode    : {worst:.2f} us "
          f"({args.initial_iters}+{args.trial_iters} iterations)")
    for rounds in (6, 12, 18):
        budget = model.syndrome_budget_us(rounds)
        verdict = "real-time" if worst <= budget else "TOO SLOW"
        print(f"d={rounds:2d} budget {budget:5.1f} us -> {verdict}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="BP-SF reproduction command line",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("codes", help="list registered codes")

    run = sub.add_parser("run", help="run experiments by id")
    run.add_argument("experiments", nargs="+",
                     help="experiment ids (e.g. fig5 tab1) or 'all'")

    decode = sub.add_parser("decode", help="decode demo on one code")
    decode.add_argument("code", help="registry name, e.g. bb_144_12_12")
    decode.add_argument("--p", type=float, default=0.05,
                        help="physical error rate (default 0.05)")
    decode.add_argument("--shots", type=int, default=20)
    decode.add_argument("--seed", type=int, default=0)

    ler = sub.add_parser(
        "ler", help="LER estimation via the sharded experiment engine"
    )
    ler.add_argument("code", help="registry name, e.g. bb_144_12_12")
    ler.add_argument("--decoder", default="bpsf",
                     help="decoder registry name (default bpsf)")
    ler.add_argument("--backend", default="auto",
                     help="BP kernel backend: auto, reference, fused "
                          "or native (default auto; outputs are "
                          "bit-identical across backends — see "
                          "README 'Kernel backends' and 'python -m "
                          "repro backends')")
    ler.add_argument("--p", type=float, default=0.05,
                     help="physical error rate (default 0.05)")
    ler.add_argument("--circuit", action="store_true",
                     help="circuit-level noise instead of code capacity")
    ler.add_argument("--rounds", type=int, default=None,
                     help="syndrome-extraction rounds (circuit level)")
    ler.add_argument("--basis", choices=("x", "z"), default=None,
                     help="memory basis (default: x for code capacity, "
                          "z for circuit level)")
    ler.add_argument("--shots", type=int, default=2000,
                     help="shot budget cap (default 2000)")
    ler.add_argument("--workers", type=int, default=1,
                     help="worker processes (default 1; results are "
                          "seed-reproducible for any count)")
    ler.add_argument("--max-failures", type=int, default=None,
                     help="adaptive stop: failure target")
    ler.add_argument("--target-rse", type=float, default=None,
                     help="adaptive stop: Wilson-CI relative half-width")
    ler.add_argument("--shard-shots", type=int, default=None,
                     help="shots per shard (default max(batch, 256))")
    ler.add_argument("--shard-timeout", type=float, default=None,
                     help="seconds to wait for any shard before "
                          "presuming its worker hung and retrying the "
                          "shard elsewhere (default 600; 0 waits "
                          "forever — does not affect results)")
    ler.add_argument("--max-worker-restarts", type=int, default=None,
                     help="dead/wedged workers the elastic pool may "
                          "respawn before the run fails (default 8; "
                          "recovered shards are recomputed "
                          "bit-identically)")
    ler.add_argument("--progress", action="store_true",
                     help="print a live shards-done counter to stderr")
    ler.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep",
        help="declarative sweep specs + persistent results store",
        description="Declarative sweeps: a TOML/JSON spec expands to "
                    "content-hashed LER points; 'run' computes only "
                    "missing or under-resolved points into the store, "
                    "'show' plans without computing, 'export' renders "
                    "stored results.  See docs/reproducing-figures.md.",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    def _sweep_common(p, budget_help_suffix):
        p.add_argument("spec", help="sweep spec file (.toml or .json)")
        p.add_argument("--store", default="sweep-store",
                       help="results store directory (default "
                            "./sweep-store)")
        p.add_argument("--shots", type=int, default=None,
                       help="override every point's shot cap"
                            + budget_help_suffix)
        p.add_argument("--max-failures", type=int, default=None,
                       help="override adaptive failure target"
                            + budget_help_suffix)
        p.add_argument("--target-rse", type=float, default=None,
                       help="override adaptive Wilson-CI target"
                            + budget_help_suffix)

    note = (" (pass the same overrides to run/show/export: a --shots "
            "below the spec's shard size changes point identity)")
    sweep_run = sweep_sub.add_parser(
        "run", help="compute missing/under-resolved points (resumable)"
    )
    _sweep_common(sweep_run, note)
    sweep_run.add_argument("--workers", type=int, default=1,
                           help="engine worker processes (default 1; "
                                "results identical for any count)")
    sweep_run.add_argument("--shard-timeout", type=float, default=None,
                           help="seconds to wait for any shard before "
                                "presuming its worker hung and "
                                "retrying elsewhere (default 600; 0 "
                                "waits forever)")
    sweep_run.add_argument("--checkpoint-every", type=int, default=None,
                           help="persist each point's partial shard "
                                "prefix to the store every N shards, "
                                "so a killed run loses at most the "
                                "in-flight shards (default: only "
                                "completed points are persisted)")
    sweep_run.add_argument("--max-worker-restarts", type=int,
                           default=None,
                           help="dead/wedged workers the elastic pool "
                                "may respawn before the run fails "
                                "(default 8)")
    sweep_run.add_argument("--progress", action="store_true",
                           help="print a live shards-done counter to "
                                "stderr")

    sweep_show = sweep_sub.add_parser(
        "show",
        help="plan a sweep against the store without computing "
             "(reads and checksums every entry — doubles as an "
             "integrity check)",
    )
    _sweep_common(sweep_show, note)

    sweep_export = sweep_sub.add_parser(
        "export", help="render stored results as tables or CSV"
    )
    _sweep_common(sweep_export, note)
    sweep_export.add_argument("--format", choices=("table", "csv"),
                              default="table",
                              help="output format (default table)")
    sweep_export.add_argument("--out", default=None,
                              help="write to a file instead of stdout")

    analyze = sub.add_parser(
        "analyze", help="Tanner-graph and oscillation-cluster census"
    )
    analyze.add_argument("code", help="registry name")
    analyze.add_argument("--p", type=float, default=0.08)
    analyze.add_argument("--shots", type=int, default=300)
    analyze.add_argument("--max-iter", type=int, default=50)
    analyze.add_argument("--phi", type=int, default=16)
    analyze.add_argument("--max-reports", type=int, default=5)
    analyze.add_argument("--seed", type=int, default=0)

    stream = sub.add_parser(
        "stream", help="streaming-queue simulation (hardware model)"
    )
    stream.add_argument("code", help="registry name")
    stream.add_argument("--p", type=float, default=2e-3)
    stream.add_argument("--rounds", type=int, default=6)
    stream.add_argument("--shots", type=int, default=100)
    stream.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="live asyncio decode service (cross-client batching, "
             "backpressure, telemetry)",
        description="Start the asyncio decode service for one "
                    "(code, decoder) pair and replay a paced syndrome "
                    "stream through concurrent in-process clients.  "
                    "Requests coalesce across clients into decode_many "
                    "batches (flush on --max-batch or a deadline "
                    "derived from the arrival period); a bounded "
                    "pending queue applies backpressure; telemetry "
                    "reports utilisation, backlog and response "
                    "percentiles, cross-checked against the offline "
                    "D/G/1 queue model.",
    )
    serve.add_argument("code", help="registry name, e.g. bb_144_12_12")
    serve.add_argument("--decoder", default="bpsf",
                       help="decoder registry name (default bpsf)")
    serve.add_argument("--backend", default="auto",
                       help="BP kernel backend: auto, reference, fused "
                            "or native")
    serve.add_argument("--p", type=float, default=0.05,
                       help="physical error rate (default 0.05)")
    serve.add_argument("--circuit", action="store_true",
                       help="circuit-level noise instead of code capacity")
    serve.add_argument("--rounds", type=int, default=None,
                       help="syndrome-extraction rounds (circuit level)")
    serve.add_argument("--basis", choices=("x", "z"), default=None,
                       help="memory basis (default: x for code capacity, "
                            "z for circuit level)")
    serve.add_argument("--shots", type=int, default=200,
                       help="stream length in syndromes (default 200)")
    serve.add_argument("--clients", type=int, default=4,
                       help="concurrent in-process clients (default 4)")
    serve.add_argument("--workers", type=int, default=0,
                       help="decode worker processes (default 0: decode "
                            "in-process on an executor thread)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="largest cross-client batch (default 32)")
    serve.add_argument("--flush-ms", type=float, default=None,
                       help="batch flush deadline in ms (default: half "
                            "the arrival period)")
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="backpressure bound on admitted-but-"
                            "unanswered requests (default 1024)")
    serve.add_argument("--period-us", type=float, default=None,
                       help="arrival period in us (default: calibrate "
                            "from warmup shots to --rho)")
    serve.add_argument("--rho", type=float, default=0.5,
                       help="target utilisation for period calibration "
                            "(default 0.5; >= 1 demonstrates overload)")
    serve.add_argument("--progress", action="store_true",
                       help="print a live responses counter to stderr")
    serve.add_argument("--seed", type=int, default=0)

    serve_net = sub.add_parser(
        "serve-net",
        help="networked multi-problem decode service "
             "(TCP framing, consistent-hash routing, priority lanes)",
        description="Start the TCP decode front end for a set of "
                    "problem keys (code:model:p=..:r=..:decoder:"
                    "backend), drive a request stream through real-"
                    "socket clients, and audit every OK response "
                    "bit-for-bit against offline decode_many.  "
                    "Requests route by problem key through a "
                    "consistent-hash ring with virtual nodes to "
                    "per-problem pools (two priority lanes, deadline "
                    "drops before dispatch, backlog-adaptive "
                    "max_batch).  Exit 1 on a parity failure.",
    )
    serve_net.add_argument("--problem", action="append", default=None,
                           metavar="KEY",
                           help="problem key to serve (repeatable): "
                                "code:model:p=..:r=..[:b=x|z]:decoder:"
                                "backend, basis defaulting to the "
                                "model's convention; default: two "
                                "surface_3 capacity problems "
                                "(min_sum_bp + bpsf)")
    serve_net.add_argument("--shots", type=int, default=40,
                           help="total requests, striped round-robin "
                                "over the problem keys (default 40)")
    serve_net.add_argument("--clients", type=int, default=2,
                           help="concurrent socket clients (default 2)")
    serve_net.add_argument("--pools", type=int, default=2,
                           help="pool nodes on the consistent-hash "
                                "ring (default 2)")
    serve_net.add_argument("--vnodes", type=int, default=64,
                           help="virtual nodes per pool (default 64)")
    serve_net.add_argument("--pool-threads", type=int, default=1,
                           help="decode threads per pool node "
                                "(default 1)")
    serve_net.add_argument("--port", type=int, default=0,
                           help="TCP port (default 0: ephemeral)")
    serve_net.add_argument("--max-batch", type=int, default=32,
                           help="adaptive batching cap (default 32)")
    serve_net.add_argument("--min-batch", type=int, default=1,
                           help="adaptive batching floor (default 1)")
    serve_net.add_argument("--max-pending", type=int, default=1024,
                           help="per-pool decode-service backpressure "
                                "bound (default 1024)")
    serve_net.add_argument("--max-lane-depth", type=int, default=1024,
                           help="per-priority-lane load-shed bound "
                                "(default 1024)")
    serve_net.add_argument("--flush-ms", type=float, default=None,
                           help="batch flush deadline in ms")
    serve_net.add_argument("--period-us", type=float, default=None,
                           help="paced arrivals: one request per "
                                "period per global slot (default: "
                                "fire as admitted)")
    serve_net.add_argument("--deadline-us", type=float, default=0.0,
                           help="per-request deadline in us (0 = "
                                "none; expired requests are dropped "
                                "before dispatch with EXPIRED status)")
    serve_net.add_argument("--progress", action="store_true",
                           help="print a live responses counter to "
                                "stderr")
    serve_net.add_argument("--seed", type=int, default=0)

    sub.add_parser(
        "backends",
        help="list BP kernel backends (availability, runtime version)",
        description="Registered BP kernel backends.  Optional backends "
                    "(native) are probed on the spot: a failed build "
                    "or missing dependency is reported with its error "
                    "instead of silently hiding the backend.",
    )

    lint = sub.add_parser(
        "lint",
        help="repo-contract static analysis (exit 2 on violations)",
        description="Static-analysis pass over the repository's "
                    "reproducibility contracts: seed discipline "
                    "(REP001), wall-clock bans in stream-determining "
                    "modules (REP002), optional-import guarding "
                    "(REP003), mutable-default/bare-except hygiene "
                    "(REP004).  --contracts instead loads the decoder "
                    "and kernel registries and verifies protocol "
                    "conformance, constructibility, names and pickle "
                    "round-trips (REP101, REP103-REP105).  Rule codes are "
                    "catalogued in docs/invariants.md.",
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: the "
                           "configured roots: src/repro, examples, "
                           "benchmarks)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="output format (default text)")
    lint.add_argument("--config", default=None,
                      help="lint config TOML (default: ./lint.toml "
                           "when present, else built-in defaults)")
    lint.add_argument("--contracts", action="store_true",
                      help="check the decoder/kernel registry "
                           "contracts instead of linting files")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")

    hardware = sub.add_parser(
        "hardware", help="real-time latency budget (Sec. VI discussion)"
    )
    hardware.add_argument("--iteration-ns", type=float, default=20.0)
    hardware.add_argument("--round-time-us", type=float, default=1.0)
    hardware.add_argument("--initial-iters", type=int, default=100)
    hardware.add_argument("--trial-iters", type=int, default=100)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "codes": _cmd_codes,
        "run": _cmd_run,
        "decode": _cmd_decode,
        "ler": _cmd_ler,
        "sweep": _cmd_sweep,
        "analyze": _cmd_analyze,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
        "serve-net": _cmd_serve_net,
        "hardware": _cmd_hardware,
        "backends": _cmd_backends,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
