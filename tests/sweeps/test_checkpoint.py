"""Mid-point checkpointing: durable prefixes, crash/resume parity.

The tentpole contract (ISSUE 8): with ``checkpoint_every`` set, a run
killed at an arbitrary moment loses at most the in-flight shards — the
store holds each point's last durable prefix under its ``shards_done``
cursor — and the resumed run recomputes **only** non-persisted shards
while merging bit-identically to a never-interrupted run.

Crashes are simulated by raising out of the runner's progress hooks:
that unwinds ``run_sweep_spec`` at a precisely chosen moment exactly
like a SIGKILL would (nothing after the last atomic ``store.put`` is
durable either way), but keeps the suite fast and leak-check-clean.
"""

import numpy as np
import pytest

from repro.sim import run_point_tasks
from repro.sweeps import ResultsStore, plan_sweep, run_sweep_spec, \
    spec_from_mapping


def _spec(shots=640, decoders=None, seed=13):
    return spec_from_mapping({
        "sweep": {
            "name": "ckpt",
            "seed": seed,
            "shots": shots,
            "shard_shots": 64,
            "batch_size": 64,
        },
        "grid": [{
            "figure": "g",
            "codes": ["surface_3"],
            "model": "code_capacity",
            "p": [0.1],
            "decoders": decoders or ["min_sum_bp"],
        }],
    })


@pytest.fixture
def store(tmp_path):
    return ResultsStore(tmp_path / "store")


class _Boom(Exception):
    """The simulated crash."""


def _crash_after_checkpoints(k):
    """Progress hook that raises right after the k-th checkpoint put.

    The runner emits its "checkpoint at N shards" message *after* the
    atomic ``store.put`` — so raising here models dying with exactly k
    durable checkpoints.
    """
    state = {"seen": 0}

    def say(message):
        if "checkpoint at" in message:
            state["seen"] += 1
            if state["seen"] >= k:
                raise _Boom(message)

    return say


def _assert_same_result(a, b):
    assert a.shots == b.shots
    assert a.failures == b.failures
    assert (a.initial_successes, a.post_processed, a.unconverged) == (
        b.initial_successes, b.post_processed, b.unconverged
    )
    assert np.array_equal(a.iterations, b.iterations)
    assert np.array_equal(a.parallel_iterations, b.parallel_iterations)


class TestEngineCheckpointHook:
    """run_point_tasks(on_checkpoint=...) semantics, both paths."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_checkpoints_stream_the_whole_prefix(
        self, n_workers, tmp_path, monkeypatch
    ):
        from repro.codes import surface_code
        from repro.devtools.chaos import Fault, write_schedule
        from repro.noise import code_capacity_problem
        from repro.sim import PointTask

        if n_workers > 1:
            # Pooled shards complete in any order, and a task whose
            # prefix jumps straight to done (shard 0 finishing last)
            # never has a mid-task checkpoint to take.  Holding back the
            # last shard keeps the task open while the head of the
            # prefix solidifies, so mid-task checkpoints must fire.
            monkeypatch.setenv("REPRO_CHAOS", write_schedule(
                tmp_path / "chaos.json",
                [Fault(shard=7, kind="delay", seconds=1.0)],
            ))
        problem = code_capacity_problem(surface_code(3), 0.1)
        task = PointTask(label="p", problem=problem, decoder="min_sum_bp",
                         shots=512, seed=3, shard_shots=64)
        drained = []

        def on_checkpoint(label, shards_done, failures, shots, chunks):
            drained.append((label, shards_done, failures, shots, chunks))

        out = run_point_tasks(
            [task], n_workers=n_workers,
            on_checkpoint=on_checkpoint, checkpoint_every=2,
        )
        assert drained, "no checkpoint ever fired"
        cursors = [d[1] for d in drained]
        assert cursors == sorted(cursors)  # monotone prefix cursor
        assert cursors[0] < 8  # fired mid-task, not at the end
        # Cumulative counters at each checkpoint equal the merge of
        # everything drained so far — the exact payload the sweep layer
        # persists as the durable prefix.
        running_shots = 0
        running_failures = 0
        for label, shards_done, failures, shots, chunks in drained:
            assert label == "p"
            running_shots += sum(c.shots for c in chunks)
            running_failures += sum(c.failures for c in chunks)
            assert shots == running_shots
            assert failures == running_failures
            assert shards_done * 64 == running_shots
        # Checkpoints never eat the final result: it still merges every
        # newly computed chunk.
        assert out["p"].shots == 512

    def test_checkpoint_every_validation(self):
        from repro.codes import surface_code
        from repro.noise import code_capacity_problem
        from repro.sim import PointTask

        problem = code_capacity_problem(surface_code(3), 0.1)
        task = PointTask(label="p", problem=problem, decoder="min_sum_bp",
                         shots=64, seed=3, shard_shots=64)
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_point_tasks([task], checkpoint_every=0)
        with pytest.raises(ValueError, match="max_worker_restarts"):
            run_point_tasks([task], max_worker_restarts=-1)


class TestCrashResume:
    """The satellite property test: kill after k checkpoints, resume."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_resume_is_bit_identical_and_recomputes_nothing(
        self, store, tmp_path, k
    ):
        spec = _spec()  # 10 shards of 64 shots
        point = spec.points[0]
        with pytest.raises(_Boom):
            run_sweep_spec(
                spec, store, checkpoint_every=2,
                progress=_crash_after_checkpoints(k),
            )
        # The crash left a durable partial prefix behind …
        entry = store.get(point.key)
        assert entry is not None
        persisted = entry.shards_done
        assert persisted == 2 * k
        assert entry.result.shots == 64 * persisted
        # … the planner resumes from it …
        assert [p.status for p in plan_sweep(spec, store)] == ["extend"]
        resumed = run_sweep_spec(spec, store)
        # … recomputing only the non-persisted shards …
        assert resumed.new_shots == 640 - 64 * persisted
        assert store.get(point.key).shards_done == 10
        # … and the merged result is bit-identical to a clean run.
        clean = run_sweep_spec(spec, ResultsStore(tmp_path / "clean"))
        _assert_same_result(
            resumed.results[point.key], clean.results[point.key]
        )

    def test_pooled_crash_resume_bit_identical(self, store, tmp_path):
        spec = _spec()
        point = spec.points[0]
        with pytest.raises(_Boom):
            run_sweep_spec(
                spec, store, n_workers=2, checkpoint_every=1,
                progress=_crash_after_checkpoints(3),
            )
        persisted = store.get(point.key).shards_done
        assert 0 < persisted < 10
        resumed = run_sweep_spec(spec, store, n_workers=2)
        assert resumed.new_shots == 640 - 64 * persisted
        clean = run_sweep_spec(spec, ResultsStore(tmp_path / "clean"))
        _assert_same_result(
            resumed.results[point.key], clean.results[point.key]
        )

    def test_two_point_interrupt_resume_smoke(self, store, tmp_path):
        # The CI fast-gate smoke: interrupt a 2-point sweep, resume it,
        # end with both points resolved and a bit-identical store.
        spec = _spec(decoders=["min_sum_bp", "bpsf"])
        with pytest.raises(_Boom):
            run_sweep_spec(
                spec, store, checkpoint_every=2,
                progress=_crash_after_checkpoints(2),
            )
        resumed = run_sweep_spec(spec, store)
        assert resumed.counts() == {"resolved": 2}
        assert 0 < resumed.new_shots < 2 * 640
        clean = run_sweep_spec(spec, ResultsStore(tmp_path / "clean"))
        for point in spec.points:
            _assert_same_result(
                resumed.results[point.key], clean.results[point.key]
            )


class TestCheckpointTransparency:
    def test_checkpointed_run_equals_uncheckpointed(self, store, tmp_path):
        spec = _spec()
        point = spec.points[0]
        with_ckpt = run_sweep_spec(spec, store, checkpoint_every=1)
        plain = run_sweep_spec(spec, ResultsStore(tmp_path / "plain"))
        assert with_ckpt.new_shots == plain.new_shots == 640
        _assert_same_result(
            with_ckpt.results[point.key], plain.results[point.key]
        )
        assert store.get(point.key).shards_done == 10

    def test_checkpointing_an_extension_run(self, store):
        # Checkpoints during a resume must account for the stored
        # prior: cumulative counters start at the prior, cursors start
        # at the stored shards_done.
        small = _spec(shots=256)
        run_sweep_spec(small, store)
        grown = _spec(shots=640)
        point = grown.points[0]
        report = run_sweep_spec(grown, store, checkpoint_every=2)
        assert report.new_shots == 640 - 256
        entry = store.get(point.key)
        assert entry.shards_done == 10
        assert entry.result.shots == 640
