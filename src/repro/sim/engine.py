"""Sharded multi-process Monte-Carlo experiment engine.

The paper's headline evidence is Monte-Carlo: every LER point needs on
the order of 100 logical failures, and deep points (BB-288 at circuit
level) need millions of shots.  This engine fans batches of shots out
to a pool of **persistent worker processes**:

* the shot budget is cut into fixed-size *shards*;
* shard ``i`` derives its sampling and decoder RNG streams from the
  run's master seed via :mod:`repro.sim.seeding` — independent of the
  worker count, so a run is bit-reproducible for any ``n_workers``;
* each worker materialises its ``(problem, decoder)`` pair once and
  decodes whole shards, streaming :class:`MonteCarloResult`-shaped
  column chunks back to the controller;
* the controller merges chunks through :meth:`MonteCarloResult.merge`
  in shard order.

Adaptive shot allocation
------------------------
With ``max_failures`` or ``target_rse`` set, the controller keeps
dispatching shards until the *prefix* of completed shards (in shard
order) meets the target, then cancels outstanding shards.  The stopping
rule is evaluated on shard prefixes only, so the merged result — and
therefore every statistic derived from it — is identical for any
worker count and any completion timing; at most one shard of overshoot
past the shard where the target is reached.

Resumable point tasks
---------------------
:func:`run_point_tasks` is the general entry point: each
:class:`PointTask` carries its own budget (``shots`` /
``max_failures`` / ``target_rse`` / ``shard_shots`` / ``batch_size``)
and an optional resume offset (``start_shard`` plus the prior prefix's
cumulative counters).  Because shard ``i``'s streams depend only on the
task's seed root and ``i``, a resumed task computes exactly the shards
a fresh, bigger-budget run would have appended — the property the
persistent sweep store (:mod:`repro.sweeps`) uses to merge incremental
shots into stored results bit-identically.  :func:`run_ler_parallel`
and :func:`run_sweep` are uniform-task wrappers.

Fault tolerance
---------------
Three cooperating mechanisms keep a run alive — and its results
bit-identical — under worker failure (see ``docs/architecture.md``,
"Surviving failures"):

* **Mid-point checkpointing** — ``on_checkpoint`` +
  ``checkpoint_every`` stream each task's contiguous shard prefix out
  of the run as it solidifies, so a killed *run* loses at most the
  in-flight shards (the sweep layer persists every checkpoint
  atomically and resumes from the cursor).
* **Elastic worker pool** — workers live in a
  :class:`repro.sim.pool.PoolController`: a worker process that dies
  or wedges is killed and respawned (up to ``max_worker_restarts`` per
  run) and its shard recomputed on a healthy worker; the pool can also
  be resized between shard dispatches (``on_pool`` exposes the
  controller).
* **Hang watchdog** — a shard attempt that blows ``shard_timeout`` is
  presumed wedged: its worker is reclaimed on the spot and the shard
  retried on a fresh worker, up to ``shard_retries`` times per shard.

Attempts are deterministic (shard streams depend only on the seed root
and index), so whichever attempt of a shard completes first yields the
canonical chunk; late duplicates are counter-checked and dropped.  The
fault-injection harness (:mod:`repro.devtools.chaos`, armed via the
``REPRO_CHAOS`` environment variable) drives exactly these paths with
seeded kill/hang/delay schedules.

Decoder specifications
----------------------
Workers need to build the decoder, so ``decoder`` may be

* a name from :data:`repro.decoders.registry.DECODER_REGISTRY`
  (resolved inside each worker),
* a picklable factory ``f(problem) -> Decoder`` (a module-level
  function; lambdas and closures do not pickle), or
* a :class:`~repro.decoders.base.Decoder` instance (pickled into each
  worker; its :meth:`~repro.decoders.base.Decoder.reseed` hook is
  invoked per shard, which is what makes sampling decoders
  reproducible).

:func:`repro.sim.monte_carlo.run_ler` is the ``n_workers = 1`` case of
this engine and shares every code path but the pool.

Threads inside BP calls
-----------------------
The engine is the one caller that grants the native BP kernel more
than one thread per call (:data:`repro.decoders.kernels.THREAD_BUDGET`):
the serial path decodes with a budget of every usable CPU, and each
pooled worker with ``max(1, cpus // n_workers)``, so workers never
oversubscribe the host.  Kernel threads live only inside one C call, so
none is alive when the pool forks a worker or between shards.  Results
do not depend on the budget.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass

import numpy as np

from repro.decoders.base import Decoder
from repro.decoders.kernels import THREAD_BUDGET, usable_cpus, use_threads
from repro.problem import DecodingProblem
from repro.sim.monte_carlo import MonteCarloResult
from repro.sim.pool import (
    DEFAULT_MAX_WORKER_RESTARTS,
    PoolController,
    WorkerDiedError,
)
from repro.sim.seeding import run_root, shard_streams
from repro.sim.stats import wilson_interval

__all__ = [
    "DEFAULT_MAX_WORKER_RESTARTS",
    "DEFAULT_SHARD_RETRIES",
    "DEFAULT_SHARD_TIMEOUT",
    "PointTask",
    "PoolController",
    "budget_satisfied",
    "resolve_decoder",
    "run_ler_parallel",
    "run_point_tasks",
    "run_sweep",
    "shard_sizes",
]

# Default wall-clock budget per shard before the controller declares
# the pool hung (a worker that died without reporting, a deadlocked
# fork).  Generous enough for paper-scale shards; ``None`` disables.
DEFAULT_SHARD_TIMEOUT = 600.0

# How many times a presumed-hung shard is re-dispatched before the run
# gives up.  A retry is handed to the pool's task queue, which only
# idle workers drain — the hung worker is still occupied by the stale
# attempt — so a retry lands on a different worker by construction.
DEFAULT_SHARD_RETRIES = 2


def resolve_decoder(spec, problem: DecodingProblem) -> Decoder:
    """Materialise a decoder from a spec (name / factory / instance).

    A :class:`~repro.spec.ProblemSpec` also resolves — to its own
    configured decoder factory applied to ``problem`` — so engine call
    sites can hand the canonical problem plane straight through.
    """
    from repro.spec import ProblemSpec

    if isinstance(spec, ProblemSpec):
        return spec.decoder_factory()(problem)
    if isinstance(spec, str):
        from repro.decoders.registry import get_decoder

        return get_decoder(spec, problem)
    if isinstance(spec, Decoder):
        return spec
    if callable(spec):
        return spec(problem)
    raise TypeError(
        f"decoder spec {spec!r} is neither a registry name, a factory "
        "callable, nor a Decoder instance"
    )


def shard_sizes(shots: int, shard_shots: int) -> list[int]:
    """Cut a shot budget into fixed-size shards (last one may be short).

    The decomposition depends only on ``(shots, shard_shots)`` — never
    on the worker count — which is the backbone of cross-worker-count
    reproducibility.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    if shard_shots < 1:
        raise ValueError("shard_shots must be positive")
    full, rest = divmod(shots, shard_shots)
    return [shard_shots] * full + ([rest] if rest else [])


def _decode_shard(
    problem: DecodingProblem,
    decoder: Decoder,
    shots: int,
    root: np.random.SeedSequence,
    shard: int,
    batch_size: int,
) -> MonteCarloResult:
    """Decode one shard; the unit of work shared by all worker counts."""
    sample_rng, decoder_rng = shard_streams(root, shard)
    decoder.reseed(decoder_rng)
    failures = 0
    initial = 0
    post = 0
    unconverged = 0
    iteration_chunks: list[np.ndarray] = []
    parallel_chunks: list[np.ndarray] = []
    for lo in range(0, shots, batch_size):
        batch = min(batch_size, shots - lo)
        errors = problem.sample_errors(batch, sample_rng)
        syndromes = problem.syndromes(errors)
        results = decoder.decode_many(syndromes)
        failures += int(problem.is_failure(errors, results.errors).sum())
        initial += results.n_initial
        post += results.n_post
        unconverged += results.n_unconverged
        iteration_chunks.append(results.iterations)
        parallel_chunks.append(results.parallel_iterations)
    return MonteCarloResult(
        problem_name=problem.name,
        decoder_name=getattr(decoder, "name", type(decoder).__name__),
        shots=shots,
        failures=failures,
        rounds=problem.rounds,
        initial_successes=initial,
        post_processed=post,
        unconverged=unconverged,
        iterations=np.concatenate(iteration_chunks),
        parallel_iterations=np.concatenate(parallel_chunks),
    )


# -- worker-process plumbing ----------------------------------------------

_WORKER_POINTS: dict = {}
_WORKER_CACHE: dict = {}
_WORKER_CHAOS = None


def _init_worker(points: dict, n_workers: int) -> None:
    """Executor initializer: stash every point's (problem, spec) pair.

    Grants this worker's BP calls its share of the host,
    ``max(1, cpus // n_workers)`` threads.  Also arms the
    fault-injection hook when ``REPRO_CHAOS`` names a schedule file
    (see :mod:`repro.devtools.chaos`) — the import is lazy and the hook
    is ``None`` in production runs, so the chaos machinery costs
    nothing unless explicitly requested.
    """
    global _WORKER_POINTS, _WORKER_CACHE, _WORKER_CHAOS
    _WORKER_POINTS = points
    _WORKER_CACHE = {}
    _WORKER_CHAOS = None
    THREAD_BUDGET.set(max(1, usable_cpus() // n_workers))
    if os.environ.get("REPRO_CHAOS"):
        from repro.devtools.chaos import injector_from_env

        _WORKER_CHAOS = injector_from_env()


def _worker_shard(key, shard: int, shots: int, root, batch_size: int):
    """Task body: decode one shard of one sweep point."""
    if _WORKER_CHAOS is not None:
        _WORKER_CHAOS.fire(key, shard)
    pair = _WORKER_CACHE.get(key)
    if pair is None:
        problem, spec = _WORKER_POINTS[key]
        pair = (problem, resolve_decoder(spec, problem))
        _WORKER_CACHE[key] = pair
    problem, decoder = pair
    return shard, _decode_shard(
        problem, decoder, shots, root, shard, batch_size
    )


def budget_satisfied(
    failures: int,
    shots: int,
    max_failures: int | None,
    target_rse: float | None,
) -> bool:
    """Whether accumulated ``(failures, shots)`` meet the adaptive target.

    ``max_failures`` is the paper's ≥-N-failures rule; ``target_rse``
    bounds the Wilson 95% interval's relative half-width
    ``(hi - lo) / (2 · LER)``.  This is the *single* stopping predicate
    of the engine — the sweep store evaluates it on persisted results to
    decide whether a point is already resolved, so stored and live runs
    can never disagree about resolution.
    """
    if max_failures is not None and failures >= max_failures:
        return True
    if target_rse is not None and failures > 0 and shots > 0:
        p = failures / shots
        lo, hi = wilson_interval(failures, shots)
        if (hi - lo) / (2.0 * p) <= target_rse:
            return True
    return False


@dataclass
class PointTask:
    """One resumable unit of sweep work: a (problem, decoder) point.

    The task-level API generalises :func:`run_ler_parallel` in two ways
    the declarative sweep layer (:mod:`repro.sweeps`) needs:

    * **per-point budgets** — each task carries its own ``shots`` cap,
      ``max_failures`` / ``target_rse`` targets, ``shard_shots`` and
      ``batch_size`` (``None`` falls back to the run-level default);
    * **resume** — ``start_shard`` says how many leading shards a
      previous run already computed; their cumulative ``prior_failures``
      / ``prior_shots`` seed the stopping rule, so a resumed run stops
      at exactly the shard a fresh, bigger-budget run would have
      stopped at, and the new chunks merge bit-identically onto the
      stored prefix.

    ``seed`` may be anything :func:`repro.sim.seeding.run_root`
    accepts; shard ``i`` of this task always derives its streams from
    that root's ``i``-th child, whether or not shards 0..start-1 are
    re-run.
    """

    label: object
    problem: DecodingProblem
    decoder: object
    shots: int
    seed: object
    max_failures: int | None = None
    target_rse: float | None = None
    start_shard: int = 0
    prior_failures: int = 0
    prior_shots: int = 0
    shard_shots: int | None = None
    batch_size: int | None = None


class _PrefixController:
    """Shard-prefix stopping rule shared by the serial and pooled paths.

    Feed completed shard chunks in any order; :attr:`stop_at` becomes
    the index of the first shard at which the *contiguous prefix* of
    results satisfies the failure / CI target.  Only chunks up to that
    shard enter the merge, so the outcome is independent of completion
    timing and worker count.

    With ``start_shard > 0`` the controller resumes an earlier run:
    shards below ``start_shard`` are never dispatched, their cumulative
    ``(prior_failures, prior_shots)`` pre-load the stopping counters,
    and :meth:`merged` returns only the **new** chunks.
    """

    def __init__(
        self,
        n_shards,
        max_failures,
        target_rse,
        *,
        start_shard: int = 0,
        prior_failures: int = 0,
        prior_shots: int = 0,
    ):
        self.n_shards = n_shards
        self.max_failures = max_failures
        self.target_rse = target_rse
        self.start_shard = start_shard
        self.chunks: dict[int, MonteCarloResult] = {}
        self.stop_at: int | None = None
        self._frontier = start_shard
        self._failures = prior_failures
        self._shots = prior_shots
        self._done = 0  # chunks counting toward progress (see add)
        self._ckpt_cursor = start_shard  # checkpoint drain position

    def add(self, shard: int, chunk: MonteCarloResult) -> None:
        prior = self.chunks.get(shard)
        if prior is not None:
            # A retried shard can complete twice (the stale attempt
            # eventually wakes up).  Attempts are deterministic — shard
            # streams depend only on the seed root and index — so the
            # duplicate must be bit-identical; check the cheap counters
            # before dropping it.  A mismatch means the determinism
            # contract is broken (a decoder sampling outside its
            # reseeded stream, torn worker state) and neither copy can
            # be trusted — keeping the first silently would corrupt the
            # merged result.
            if (chunk.failures, chunk.shots) != (
                prior.failures, prior.shots
            ):
                raise RuntimeError(
                    f"shard {shard} completed twice with diverging "
                    f"counters: kept failures={prior.failures} "
                    f"shots={prior.shots}, duplicate "
                    f"failures={chunk.failures} shots={chunk.shots} — "
                    "retried attempts must be bit-identical (decoder "
                    "sampling outside its reseeded stream?); results "
                    "cannot be trusted"
                )
            return
        self.chunks[shard] = chunk
        if self.stop_at is None:
            self._done += 1
        while self.stop_at is None and self._frontier in self.chunks:
            front = self.chunks[self._frontier]
            self._failures += front.failures
            self._shots += front.shots
            if budget_satisfied(
                self._failures, self._shots,
                self.max_failures, self.target_rse,
            ):
                self.stop_at = self._frontier
                # One-off correction: overshoot chunks beyond the stop
                # no longer count toward progress (the prefix up to
                # ``stop_at`` is complete by construction).
                self._done = self.stop_at + 1 - self.start_shard
            self._frontier += 1

    @property
    def done(self) -> bool:
        """Whether no further shards can change the merged result."""
        if self.stop_at is not None:
            return True
        return self._frontier >= self.n_shards

    def next_needed(self, dispatched: int) -> int | None:
        """Next shard index worth dispatching, or ``None``."""
        if self.stop_at is not None or dispatched >= self.n_shards:
            return None
        return dispatched

    def merged(self) -> MonteCarloResult:
        last = self.stop_at if self.stop_at is not None else self.n_shards - 1
        ordered = [self.chunks[i] for i in range(self.start_shard, last + 1)]
        return MonteCarloResult.merge(ordered)

    def _counted_end(self) -> int:
        """One past the last shard whose counters are committed.

        With the stopping rule triggered this is the stop shard (prefix
        complete by construction); otherwise it is the contiguous
        frontier — shards beyond it may exist in :attr:`chunks` but are
        not yet part of any durable prefix.
        """
        if self.stop_at is not None:
            return self.stop_at + 1
        return self._frontier

    def checkpoint_pending(self) -> int:
        """Contiguous counted shards not yet drained by a checkpoint."""
        return self._counted_end() - self._ckpt_cursor

    def drain_checkpoint(self):
        """``(shards_done, failures, shots, chunks)`` for persistence.

        ``chunks`` is the new contiguous slice since the last drain, in
        shard order; ``shards_done`` is the absolute cursor (one past
        the last drained shard) and ``failures`` / ``shots`` are the
        **cumulative** prefix counters including resumed priors — the
        exact triple the sweep store records, so a crash after the
        persist resumes as if the run had started there.  Draining only
        advances the checkpoint cursor: :meth:`merged` still returns
        every newly computed chunk.
        """
        end = self._counted_end()
        chunks = [self.chunks[i] for i in range(self._ckpt_cursor, end)]
        self._ckpt_cursor = end
        return end, self._failures, self._shots, chunks

    def progress(self) -> tuple[int, int]:
        """``(done, planned)`` newly computed shards for this task.

        ``planned`` shrinks when the adaptive rule stops the task early
        (shards past ``stop_at`` are cancelled, not computed), so a
        progress bar driven by summed controller progress converges to
        ``done == planned`` exactly when the run finishes.  O(1):
        the counter is maintained incrementally by :meth:`add`, so a
        per-shard progress callback costs constant work per shard even
        on paper-scale runs.
        """
        if self.stop_at is not None:
            planned = self.stop_at + 1 - self.start_shard
        else:
            planned = self.n_shards - self.start_shard
        return min(self._done, planned), planned


def _validate_knobs(shots, n_workers, batch_size, target_rse):
    if shots < 1:
        raise ValueError("shots must be positive")
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if target_rse is not None and target_rse <= 0:
        raise ValueError("target_rse must be positive")


def _controller_for(task: PointTask, n_shards: int) -> _PrefixController:
    return _PrefixController(
        n_shards,
        task.max_failures,
        task.target_rse,
        start_shard=task.start_shard,
        prior_failures=task.prior_failures,
        prior_shots=task.prior_shots,
    )


def _run_task_serial(
    task: PointTask,
    sizes,
    root,
    batch_size,
    on_shard=None,
    on_checkpoint=None,
    checkpoint_every: int | None = None,
) -> MonteCarloResult:
    decoder = resolve_decoder(task.decoder, task.problem)
    controller = _controller_for(task, len(sizes))
    for shard in range(task.start_shard, len(sizes)):
        controller.add(
            shard,
            _decode_shard(
                task.problem, decoder, sizes[shard], root, shard,
                batch_size,
            ),
        )
        if on_shard is not None:
            on_shard(controller)
        if controller.done:
            break
        if (
            on_checkpoint is not None
            and checkpoint_every is not None
            and controller.checkpoint_pending() >= checkpoint_every
        ):
            shards_done, failures, shots, chunks = (
                controller.drain_checkpoint()
            )
            on_checkpoint(task.label, shards_done, failures, shots, chunks)
    return controller.merged()


def _run_tasks_pooled(
    pool: PoolController,
    tasks: list[PointTask],
    roots_by_key,
    sizes_by_key,
    batch_by_key,
    shard_timeout,
    on_result=None,
    on_progress=None,
    shard_retries: int = DEFAULT_SHARD_RETRIES,
    on_checkpoint=None,
    checkpoint_every: int | None = None,
) -> dict:
    """Drive every task's shards through one interleaved dispatch loop.

    Shards of all points share a single in-flight window, so a sweep
    whose points each have only a few shards (laptop-scale benchmarks)
    still keeps every worker busy across point boundaries instead of
    idling at each point's tail.  Each point keeps its own
    :class:`_PrefixController`, so results are identical to running the
    points one at a time.

    Worker-death recovery: a shard whose worker process died surfaces
    as :class:`WorkerDiedError` on exactly that future; the pool has
    already respawned a replacement (within ``pool.max_restarts``), and
    the shard is simply re-submitted — deterministic shard streams make
    the recomputed chunk bit-identical.  The run fails loudly only when
    deaths outpace the restart budget and no live worker remains.

    Hang recovery: when no shard completes within ``shard_timeout``,
    every *running* in-flight attempt is presumed hung; its worker is
    killed and replaced via :meth:`PoolController.kill_task` and the
    shard is re-dispatched (up to ``shard_retries`` times per shard),
    landing on a fresh worker immediately instead of queueing behind
    the wedged one.  Whichever attempt of a shard finishes first wins;
    late duplicates are counter-checked and dropped by the controller,
    so the merged result is bit-identical to an un-hung run.

    Checkpointing: with ``on_checkpoint`` and ``checkpoint_every`` set,
    each task's contiguous counted prefix is drained every
    ``checkpoint_every`` shards and handed to the callback as
    ``(label, shards_done, failures, shots, chunks)`` — cumulative
    counters, new chunks only (see
    :meth:`_PrefixController.drain_checkpoint`).  A task's final merged
    result still contains **all** of its new chunks; checkpoints are a
    crash-durability side channel, not a hand-off.
    """
    order = [task.label for task in tasks]
    controllers = {
        task.label: _controller_for(task, len(sizes_by_key[task.label]))
        for task in tasks
    }
    dispatched = {task.label: task.start_shard for task in tasks}
    reported: set = set()

    def _maybe_report(key) -> None:
        # Fire the completion callback the moment a point's merged
        # result is final, while other points are still decoding — the
        # hook the sweep layer uses to persist each point as it lands.
        if on_result is None or key in reported:
            return
        controller = controllers[key]
        if controller.done:
            reported.add(key)
            on_result(key, controller.merged())

    def _maybe_checkpoint(key) -> None:
        # Stream the solidified prefix out mid-task.  Completed tasks
        # are excluded: their full result goes through _maybe_report,
        # and persisting both would do the same write twice.
        if on_checkpoint is None or checkpoint_every is None:
            return
        controller = controllers[key]
        if controller.done:
            return
        if controller.checkpoint_pending() < checkpoint_every:
            return
        shards_done, failures, shots, chunks = (
            controller.drain_checkpoint()
        )
        on_checkpoint(key, shards_done, failures, shots, chunks)

    def _report_progress() -> None:
        if on_progress is None:
            return
        done = 0
        planned = 0
        for controller in controllers.values():
            d, p = controller.progress()
            done += d
            planned += p
        on_progress(done, planned)

    in_flight: dict = {}  # Future -> (key, shard)
    retries: dict = {}    # (key, shard) -> retry attempts used

    def _submit(key, shard) -> None:
        future = pool.submit(
            _worker_shard,
            key,
            shard,
            sizes_by_key[key][shard],
            roots_by_key[key],
            batch_by_key[key],
        )
        in_flight[future] = (key, shard)

    def _no_workers_left(key, shard, cause) -> RuntimeError:
        return RuntimeError(
            f"worker running {key}[shard {shard}] was lost and the "
            f"restart budget ({pool.max_restarts} respawns, "
            f"{pool.restarts_used} used) is exhausted with no live "
            "worker left — raise --max-worker-restarts if the host is "
            f"flaky, or investigate the crashes: {cause}"
        )

    def next_task():
        for key in order:
            nxt = controllers[key].next_needed(dispatched[key])
            if nxt is not None:
                return key, nxt
        return None

    while any(not c.done for c in controllers.values()):
        # The window tracks the live worker count, so a resize (or an
        # un-respawned death) is reflected at the next refill.
        max_in_flight = 2 * max(1, pool.n_alive)
        while len(in_flight) < max_in_flight:
            item = next_task()
            if item is None:
                break
            key, shard = item
            _submit(key, shard)
            dispatched[key] += 1
        if not in_flight:
            break
        completed, _ = wait(
            in_flight, timeout=shard_timeout, return_when=FIRST_COMPLETED
        )
        if not completed:
            # Watchdog fired: presume the *running* attempts hung
            # (queued ones are merely waiting behind them), reclaim
            # their workers, and retry each such shard on the fresh
            # capacity — within the per-shard retry budget.
            hung = [
                (future, pair) for future, pair in in_flight.items()
                if future.running()
            ] or list(in_flight.items())
            exhausted = []
            resubmitted = 0
            for future, (key, shard) in sorted(
                hung, key=lambda it: (order.index(it[1][0]), it[1][1])
            ):
                used = retries.get((key, shard), 0)
                if used >= shard_retries:
                    exhausted.append((key, shard, used + 1))
                    continue
                retries[(key, shard)] = used + 1
                # Kill the wedged worker now so the retry starts
                # immediately on its replacement instead of queueing
                # behind a permanently-occupied slot.
                pool.kill_task(future)
                del in_flight[future]
                _submit(key, shard)
                resubmitted += 1
            if resubmitted and pool.n_alive == 0:
                key, shard, _ = (
                    exhausted[0] if exhausted
                    else (*next(iter(in_flight.values())), 0)
                )
                raise _no_workers_left(
                    key, shard, "every replacement worker wedged too"
                )
            if resubmitted == 0:
                for future in in_flight:
                    future.cancel()
                shards = "; ".join(
                    f"{key}[shard {shard}] after {attempts} attempt(s) "
                    f"of {shard_timeout:.0f}s each"
                    for key, shard, attempts in exhausted
                )
                raise RuntimeError(
                    f"no shard completed within {shard_timeout:.0f}s "
                    f"and the retry budget ({shard_retries} per shard) "
                    f"is exhausted — {shards} — worker pool looks "
                    "hung; raise shard_timeout (CLI --shard-timeout, "
                    "bench REPRO_SHARD_TIMEOUT; 0 waits forever) if "
                    "shards are legitimately this slow"
                )
            continue
        for future in completed:
            key, submitted_shard = in_flight.pop(future)
            try:
                shard, chunk = future.result()
            except WorkerDiedError as exc:
                # The worker died mid-shard (crash, OOM kill, injected
                # fault).  The pool respawned a replacement within its
                # budget; recompute the shard there — deterministic
                # streams make the redo bit-identical.
                if pool.n_alive == 0:
                    raise _no_workers_left(
                        key, submitted_shard, exc
                    ) from exc
                _submit(key, submitted_shard)
                continue
            controllers[key].add(shard, chunk)
            _maybe_report(key)
            _maybe_checkpoint(key)
        _report_progress()
    for future in in_flight:
        future.cancel()
    for key in order:
        _maybe_report(key)
    return {key: controllers[key].merged() for key in order}


def _mp_context(name: str | None):
    """Fork by default (cheap, inherits warm imports); fallback clean."""
    if name is not None:
        return mp.get_context(name)
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else None)


def _pickled_points(points: dict) -> dict:
    """Validate that every (problem, spec) pair survives pickling."""
    try:
        pickle.dumps(points)
    except Exception as exc:
        raise TypeError(
            "decoder spec or problem is not picklable for worker "
            "processes — pass a registry name or a module-level "
            f"factory instead (lambdas do not pickle): {exc}"
        ) from exc
    return points


def run_point_tasks(
    tasks: list[PointTask],
    *,
    n_workers: int = 1,
    batch_size: int = 128,
    shard_shots: int | None = None,
    mp_context: str | None = None,
    shard_timeout: float | None = DEFAULT_SHARD_TIMEOUT,
    shard_retries: int = DEFAULT_SHARD_RETRIES,
    max_worker_restarts: int = DEFAULT_MAX_WORKER_RESTARTS,
    on_result=None,
    on_progress=None,
    on_checkpoint=None,
    checkpoint_every: int | None = None,
    on_pool=None,
) -> dict:
    """Run a list of :class:`PointTask`\\ s through one worker pool.

    The general (per-point budgets, resumable) entry point of the
    engine; :func:`run_ler_parallel` and :func:`run_sweep` are thin
    wrappers that build uniform task lists.  ``batch_size`` and
    ``shard_shots`` act as defaults for tasks that leave their own
    ``None``.

    Returns ``{label: MonteCarloResult | None}`` in task order, where
    the result merges only the **newly computed** shard chunks (shards
    ``start_shard`` onward, up to the adaptive stop).  A task whose
    prior counters already satisfy its target — or whose ``start_shard``
    consumes the whole budget — contributes ``None``: zero new shots.

    ``on_result(label, result)`` — when given — is invoked in the
    calling process the moment each task's merged result becomes final,
    while the remaining tasks are still decoding.  The sweep layer uses
    it to persist completed points immediately, so an interrupted
    multi-point run keeps everything that finished.  An exception from
    the callback aborts the run.

    ``on_progress(done, total)`` — when given — is invoked in the
    calling process after every completed shard with the cumulative
    count of newly computed shards and the current planned total across
    all tasks.  ``total`` can *shrink* as adaptive targets stop tasks
    early; ``done == total`` exactly when the run finishes.  The CLI
    ``--progress`` flag and the decode service's telemetry loop share
    this signature.

    ``shard_retries`` bounds how many times a shard whose attempt blew
    through ``shard_timeout`` is re-dispatched to another worker before
    the run raises (see :func:`_run_tasks_pooled`); it only applies to
    the pooled path — the serial path has no hang watchdog.
    ``max_worker_restarts`` is the elastic pool's respawn budget for
    dead or wedged worker processes (also pooled-path only).

    ``on_checkpoint(label, shards_done, failures, shots, chunks)`` —
    when given together with ``checkpoint_every`` — fires in the
    calling process whenever a task's contiguous shard prefix has
    advanced ``checkpoint_every`` shards past the last checkpoint:
    ``chunks`` are the newly solidified chunks in shard order,
    ``shards_done`` the absolute prefix cursor and ``failures`` /
    ``shots`` the cumulative prefix counters (priors included).  The
    sweep layer persists these mid-task so a crashed run loses at most
    the in-flight shards.  Works on both the serial and pooled paths.

    ``on_pool(pool)`` — when given — receives the
    :class:`PoolController` right after construction (pooled path
    only), giving callers a handle for runtime ``resize()`` and
    restart-budget introspection while the run is in flight.
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be positive")
    if max_worker_restarts < 0:
        raise ValueError("max_worker_restarts must be non-negative")
    if not tasks:
        raise ValueError("at least one point task is required")
    labels = [task.label for task in tasks]
    if len(set(labels)) != len(labels):
        raise ValueError("point task labels must be unique")
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    sizes_by_key = {}
    batch_by_key = {}
    roots_by_key = {}
    active: list[PointTask] = []
    out = dict.fromkeys(labels)
    for task in tasks:
        _validate_knobs(
            task.shots, n_workers,
            task.batch_size or batch_size, task.target_rse,
        )
        if task.start_shard < 0:
            raise ValueError("start_shard must be non-negative")
        task_batch = task.batch_size or batch_size
        task_shard = task.shard_shots or shard_shots or max(task_batch, 256)
        sizes = shard_sizes(task.shots, task_shard)
        already_satisfied = task.prior_shots > 0 and budget_satisfied(
            task.prior_failures, task.prior_shots,
            task.max_failures, task.target_rse,
        )
        if task.start_shard >= len(sizes) or already_satisfied:
            continue  # nothing left to compute for this task
        sizes_by_key[task.label] = sizes
        batch_by_key[task.label] = task_batch
        roots_by_key[task.label] = run_root(task.seed)
        active.append(task)
    if not active:
        return out

    if n_workers == 1:
        progress_state = {
            task.label: (
                0, len(sizes_by_key[task.label]) - task.start_shard
            )
            for task in active
        }

        def _serial_progress(label):
            def on_shard(controller):
                if on_progress is None:
                    return
                progress_state[label] = controller.progress()
                on_progress(
                    sum(d for d, _ in progress_state.values()),
                    sum(p for _, p in progress_state.values()),
                )
            return on_shard

        for task in active:
            with use_threads(usable_cpus()):
                result = _run_task_serial(
                    task,
                    sizes_by_key[task.label],
                    roots_by_key[task.label],
                    batch_by_key[task.label],
                    on_shard=_serial_progress(task.label),
                    on_checkpoint=on_checkpoint,
                    checkpoint_every=checkpoint_every,
                )
            if on_result is not None:
                on_result(task.label, result)
            out[task.label] = result
        return out

    payload = _pickled_points(
        {task.label: (task.problem, task.decoder) for task in active}
    )
    pool = PoolController(
        n_workers,
        mp_context=_mp_context(mp_context),
        initializer=_init_worker,
        initargs=(payload, n_workers),
        max_restarts=max_worker_restarts,
    )
    if on_pool is not None:
        on_pool(pool)
    try:
        merged = _run_tasks_pooled(
            pool, active, roots_by_key, sizes_by_key, batch_by_key,
            shard_timeout, on_result=on_result,
            on_progress=on_progress, shard_retries=shard_retries,
            on_checkpoint=on_checkpoint,
            checkpoint_every=checkpoint_every,
        )
    finally:
        # PoolController.shutdown kills still-busy workers (their
        # results are void by now) and joins everything — safe whether
        # the run finished, raised, or left wedged attempts behind.
        pool.shutdown()
    out.update(merged)
    return out


def run_ler_parallel(
    problem: DecodingProblem,
    decoder,
    shots: int,
    seed,
    *,
    n_workers: int = 1,
    batch_size: int = 128,
    shard_shots: int | None = None,
    max_failures: int | None = None,
    target_rse: float | None = None,
    mp_context: str | None = None,
    shard_timeout: float | None = DEFAULT_SHARD_TIMEOUT,
    shard_retries: int = DEFAULT_SHARD_RETRIES,
    max_worker_restarts: int = DEFAULT_MAX_WORKER_RESTARTS,
    on_progress=None,
) -> MonteCarloResult:
    """Estimate a logical error rate with sharded (multi-process) shots.

    Parameters
    ----------
    decoder:
        Registry name, picklable factory, or :class:`Decoder` instance
        (see the module docstring).
    shots:
        Hard cap on the number of sampled shots.
    seed:
        Master seed — ``int``, ``SeedSequence`` or ``Generator``; see
        :func:`repro.sim.seeding.run_root`.
    n_workers:
        Worker processes.  ``1`` runs in-process (no pool, no pickling)
        and returns bit-identical results to any other worker count.
    shard_shots:
        Shots per shard (default ``max(batch_size, 256)``).  Part of
        the reproducibility contract: changing it changes the shard
        decomposition and therefore the sampled streams.
    max_failures:
        Adaptive allocation: stop once the completed shard prefix has
        this many failures (within one shard of the target).
    target_rse:
        Adaptive allocation: stop once the Wilson 95% interval's
        relative half-width ``(hi - lo) / (2 * LER)`` of the completed
        prefix drops to this value.
    shard_timeout:
        Seconds to wait for *any* shard to complete before presuming
        the running attempts hung (``None`` waits forever).  A hung
        shard is retried on another worker up to ``shard_retries``
        times — results stay bit-identical because whichever attempt
        completes first computes the same chunk — and the run raises
        only once a shard's retry budget is exhausted.
    max_worker_restarts:
        How many dead or wedged worker processes the elastic pool may
        respawn over the whole run before giving up (see
        :mod:`repro.sim.pool`).
    on_progress:
        Optional ``f(done, total)`` shard-progress callback (see
        :func:`run_point_tasks`).
    """
    _validate_knobs(shots, n_workers, batch_size, target_rse)
    task = PointTask(
        label=0,
        problem=problem,
        decoder=decoder,
        shots=shots,
        seed=run_root(seed),
        max_failures=max_failures,
        target_rse=target_rse,
    )
    return run_point_tasks(
        [task],
        n_workers=n_workers,
        batch_size=batch_size,
        shard_shots=shard_shots,
        mp_context=mp_context,
        shard_timeout=shard_timeout,
        shard_retries=shard_retries,
        max_worker_restarts=max_worker_restarts,
        on_progress=on_progress,
    )[0]


def run_sweep(
    points,
    shots: int,
    seed,
    *,
    n_workers: int = 1,
    batch_size: int = 128,
    shard_shots: int | None = None,
    max_failures: int | None = None,
    target_rse: float | None = None,
    mp_context: str | None = None,
    shard_timeout: float | None = DEFAULT_SHARD_TIMEOUT,
    shard_retries: int = DEFAULT_SHARD_RETRIES,
    max_worker_restarts: int = DEFAULT_MAX_WORKER_RESTARTS,
    on_progress=None,
) -> dict[str, MonteCarloResult]:
    """Run many LER points through one persistent worker pool.

    ``points`` is ``{label: (problem, decoder_spec)}`` or an iterable
    of ``(label, problem, decoder_spec)`` triples.  Every point gets an
    independent master-seed child (by point order), the same shot
    budget and the same adaptive-stopping knobs; workers cache each
    point's materialised decoder, so an ``n``-point sweep pays decoder
    construction once per point per worker, not once per shard.  All
    points' shards share one interleaved dispatch window, so few-shard
    points do not serialise the sweep.

    Returns ``{label: MonteCarloResult}`` in point order.
    """
    if isinstance(points, dict):
        triples = [(k, p, d) for k, (p, d) in points.items()]
    else:
        triples = [tuple(t) for t in points]
    if not triples:
        raise ValueError("at least one sweep point is required")
    _validate_knobs(shots, n_workers, batch_size, target_rse)
    root = run_root(seed)
    roots = root.spawn(len(triples))
    tasks = [
        PointTask(
            label=label,
            problem=problem,
            decoder=spec,
            shots=shots,
            seed=point_root,
            max_failures=max_failures,
            target_rse=target_rse,
        )
        for (label, problem, spec), point_root in zip(triples, roots)
    ]
    return run_point_tasks(
        tasks,
        n_workers=n_workers,
        batch_size=batch_size,
        shard_shots=shard_shots,
        mp_context=mp_context,
        shard_timeout=shard_timeout,
        shard_retries=shard_retries,
        max_worker_restarts=max_worker_restarts,
        on_progress=on_progress,
    )
