"""The ``native`` C kernel backend: summation order, fusion, fallback.

Cross-backend bit-parity on random and real graphs lives in
``test_kernel_parity.py`` (``native`` joins its ``BACKENDS`` wherever
the C kernel builds).  This module pins what that suite cannot see:

* the C segment sum reproduces ``np.add.reduceat``'s exact order, so a
  numpy change to that order fails here by name, not as a parity diff;
* the fused driver, one C call per chunk (routing, workspace reuse,
  pickling, worker processes);
* threads inside one C call: results equal ``fused`` at any thread
  budget on both benchmark graphs, no thread outlives a call, only the
  offline engine grants a budget above 1, and a forked worker decodes
  correctly after its parent ran threaded calls;
* four rows per lane block: partly filled blocks, stop groups
  straddling blocks, signed zeros and tied minima, and a row's result
  independent of its lane and its neighbours;
* lane refill: rows and whole stop groups streaming into the lanes that
  frozen groups free, each lane on its own iteration count (damping,
  flip counting), groups larger than a pool of one block;
* a missing compiler degrades to ``fused``, and a cold build cache
  survives two processes racing on it.
"""

import asyncio
import contextvars
import json
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.circuits import circuit_level_problem
from repro.codes import get_code
from repro.decoders import BPSFDecoder, MinSumBP
from repro.decoders.kernels import (
    THREAD_BUDGET,
    available_backends,
    usable_cpus,
    use_threads,
)
from repro.decoders.membp import MemoryMinSumBP
from repro.decoders.sum_product import SumProductBP
from repro.noise import code_capacity_problem
from repro.service import DecodeService, ServiceConfig
from repro.service.net import NetClient, NetDecodeServer
from repro.sim import run_ler_parallel
from repro.sim.engine import _init_worker
from tests.decoders.test_kernel_parity import (
    assert_identical,
    problem_from_matrix,
    syndromes_for,
)

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)

needs_native = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native C kernel did not build here",
)


@pytest.fixture
def small_problem():
    h = np.array(
        [
            [1, 1, 0, 0, 1, 0, 1, 0],
            [0, 1, 1, 0, 0, 1, 0, 1],
            [1, 0, 1, 1, 0, 0, 1, 0],
            [0, 0, 0, 1, 1, 1, 0, 1],
            [1, 0, 0, 0, 1, 1, 1, 0],
        ],
        dtype=np.uint8,
    )
    return problem_from_matrix(h)


def _pair(problem, **kwargs):
    return (
        MinSumBP(problem, backend="fused", **kwargs),
        MinSumBP(problem, backend="native", **kwargs),
    )


@needs_native
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_sums_match_reduceat_order(dtype):
    from repro.decoders.kernels.native import _aligned_zeros, load_library

    ffi, lib = load_library()
    rng = np.random.default_rng(3)
    lengths = np.tile(np.arange(1, 301), 2)
    rng.shuffle(lengths)
    ptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    # Four rows, one per lane; mixed magnitudes, so a different
    # summation order shows up.
    values = rng.normal(size=(4, ptr[-1])) * 10.0 ** rng.integers(
        -3, 4, size=(4, ptr[-1])
    )
    values = values.astype(dtype)
    expected = np.add.reduceat(values, ptr[:-1], axis=1)
    lanes = _aligned_zeros((ptr[-1], 4), dtype)
    lanes[...] = values.T
    got = _aligned_zeros((lengths.size, 4), dtype)
    ctype = "float" if dtype == np.float32 else "double"
    run = lib.bp_segment_sums_f32 if dtype == np.float32 \
        else lib.bp_segment_sums_f64
    run(ffi.cast(f"{ctype} *", lanes.ctypes.data),
        ffi.cast("int64_t *", ptr.ctypes.data), lengths.size,
        ffi.cast(f"{ctype} *", got.ctypes.data))
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    assert np.array_equal(got.T.view(bits), expected.view(bits))
    # The test has teeth: a plain left-to-right sum differs somewhere.
    naive = np.array([
        np.cumsum(values[0, lo:hi])[-1] for lo, hi in zip(ptr, ptr[1:])
    ])
    assert not np.array_equal(naive, expected[0])


@needs_native
class TestFusedDriver:
    def test_routing(self, small_problem):
        assert MinSumBP(small_problem, backend="native")._uses_fusion
        assert not MinSumBP(
            small_problem, backend="native", dtype=np.float16
        )._uses_fusion
        # Subclasses hooking the per-iteration protocol take the
        # inherited numpy path, bit-identical to fused.
        synd = syndromes_for(small_problem, 6, 17)
        for cls, kwargs in ((MemoryMinSumBP, {"gamma": 0.5}),
                            (SumProductBP, {})):
            native = cls(small_problem, backend="native", **kwargs)
            assert not native._uses_fusion
            fused = cls(small_problem, backend="fused", **kwargs)
            assert_identical(
                fused.decode_many(synd), native.decode_many(synd)
            )

    def test_workspace_reuse_and_pickling(self, small_problem):
        fused, native = _pair(small_problem, max_iter=15)
        caps = []
        for batch, seed in ((10, 0), (2, 1), (14, 2), (1, 3), (6, 4)):
            synd = syndromes_for(small_problem, batch, seed)
            assert_identical(
                fused.decode_many(synd), native.decode_many(synd)
            )
            caps.append(native._kernel._state.cap)
        assert caps == [10, 10, 14, 14, 14]
        clone = pickle.loads(pickle.dumps(native))
        assert clone._kernel._state is None
        assert clone._kernel._graph is None
        assert_identical(native.decode_many(synd), clone.decode_many(synd))

    def test_bpsf_worker_count_parity(self):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.08)

        def run(n_workers, backend):
            decoder = BPSFDecoder(
                problem, max_iter=30, phi=8, w_max=2, n_s=4,
                strategy="sampled", seed=5, backend=backend,
            )
            assert decoder.bp_initial.backend == backend
            return run_ler_parallel(
                problem, decoder, 192, 21, n_workers=n_workers,
                shard_shots=64,
            )

        serial, pooled = run(1, "native"), run(2, "native")
        fused = run(1, "fused")
        assert serial.post_processed > 0
        for other in (pooled, fused):
            assert other.failures == serial.failures
            assert other.post_processed == serial.post_processed
            assert np.array_equal(other.iterations, serial.iterations)
            assert np.array_equal(
                other.parallel_iterations, serial.parallel_iterations
            )


# -- threads inside one C call -------------------------------------------


def _with_budget(threads, fn, *args, **kwargs):
    """Run ``fn`` with :data:`THREAD_BUDGET` set to ``threads``.

    Sets the variable directly, so a budget above the host's CPUs (which
    :func:`use_threads` would cap) reaches the kernel and forces more
    threads than cores.
    """
    token = THREAD_BUDGET.set(threads)
    try:
        return fn(*args, **kwargs)
    finally:
        THREAD_BUDGET.reset(token)


def _native_matches_fused(problem, synd, dtype, decode_kwargs=None,
                          **kwargs):
    """Native equals fused in every column at thread budgets 1-3.

    Returns the fused result, so a caller can check what it exercised.
    """
    def decode(backend):
        return MinSumBP(
            problem, backend=backend, dtype=dtype,
            track_oscillations=True, **kwargs,
        ).decode_many(synd, **(decode_kwargs or {}))

    want = decode("fused")
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    for threads in (1, 2, 3):
        got = _with_budget(threads, decode, "native")
        assert_identical(want, got)
        # Bit for bit, so the sign of a zero marginal counts too.
        assert np.array_equal(
            got.marginals.view(bits), want.marginals.view(bits)
        )
        assert got.flip_counts is not None
    return want


@pytest.fixture(scope="module")
def bench_problems():
    """The two benchmark graphs: BB-144 circuit DEM, coprime-154 capacity."""
    return {
        "bb144": circuit_level_problem("bb_144_12_12", 3e-3, rounds=2),
        "coprime154": code_capacity_problem(
            get_code("coprime_154_6_16"), 0.08
        ),
    }


@pytest.fixture
def budgets_seen(monkeypatch):
    """Thread budget in force at every native ``fused_run`` call."""
    from repro.decoders.kernels.native import NativeKernel

    seen = []
    original = NativeKernel.fused_run

    def spy(self, max_iter):
        seen.append(THREAD_BUDGET.get())
        return original(self, max_iter)

    monkeypatch.setattr(NativeKernel, "fused_run", spy)
    return seen


class _BudgetProbe(MinSumBP):
    """MinSumBP that appends each decode's thread budget to a file."""

    log = ""

    def decode_many(self, syndromes, **kwargs):
        with open(self.log, "a") as fh:
            fh.write(f"{THREAD_BUDGET.get()}\n")
        return super().decode_many(syndromes, **kwargs)


def _task_count():
    return len(os.listdir("/proc/self/task"))


@needs_native
class TestThreads:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("graph", ["bb144", "coprime154"])
    def test_any_budget_matches_fused(self, bench_problems, graph, dtype):
        problem = bench_problems[graph]
        rows = 128
        synd = syndromes_for(problem, rows, 23)
        n = problem.n_mechanisms
        prior = np.abs(
            np.random.default_rng(4).normal(3.0, 1.0, size=(rows, n))
        ).astype(dtype)
        # One 30-row group (a BP-SF trial pool), then mixed group sizes
        # and singletons.
        sizes = [30, 1, 7, 2, 16, 1, 1, 30, 4, 11, 9, 3, 13]
        assert sum(sizes) == rows
        groups = np.repeat(np.arange(len(sizes)), sizes)
        cases = [
            ({"damping": "adaptive"}, {"stop_groups": groups}),
            ({"damping": 0.75}, {"prior_llr": prior}),
            ({"damping": 0.625}, {"prior_llr": prior,
                                   "stop_groups": groups}),
            ({"damping": "adaptive"}, {}),
        ]
        for kwargs, decode_kwargs in cases:
            _native_matches_fused(
                problem, synd, dtype, decode_kwargs, max_iter=40, **kwargs
            )

    def test_workspace_has_a_scratch_row_per_thread(self, bench_problems):
        problem = bench_problems["coprime154"]
        decoder = MinSumBP(problem, backend="native", max_iter=10)
        synd = syndromes_for(problem, 64, 3)
        decoder.decode_many(synd)
        assert decoder._kernel._state.scratch.shape[0] == 1
        _with_budget(3, decoder.decode_many, synd)
        assert decoder._kernel._state.scratch.shape[0] == 3
        # A smaller budget later reuses the workspace.
        state = decoder._kernel._state
        _with_budget(2, decoder.decode_many, synd)
        assert decoder._kernel._state is state

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs /proc"
    )
    def test_no_thread_outlives_a_call(self, bench_problems):
        problem = bench_problems["bb144"]
        decoder = MinSumBP(problem, backend="native", max_iter=30)
        synd = syndromes_for(problem, 128, 5)
        before = _task_count()
        _with_budget(3, decoder.decode_many, synd)
        assert _task_count() == before

    def test_budget_is_one_outside_the_engine(
        self, small_problem, budgets_seen
    ):
        decoder = MinSumBP(small_problem, backend="native", max_iter=10)
        decoder.decode_many(syndromes_for(small_problem, 8, 1))
        assert budgets_seen and set(budgets_seen) == {1}
        # A thread started inside a grant begins at the default.
        with use_threads(2):
            worker = threading.Thread(
                target=decoder.decode_many,
                args=(syndromes_for(small_problem, 8, 2),),
            )
            worker.start()
            worker.join()
        assert set(budgets_seen) == {1}

    def test_use_threads_caps_at_usable_cpus(self):
        with use_threads(10**6) as granted:
            assert granted == THREAD_BUDGET.get() == usable_cpus()
        with use_threads(0) as granted:
            assert granted == THREAD_BUDGET.get() == 1
        assert THREAD_BUDGET.get() == 1

    def test_engine_grants_the_budget(self, small_problem, tmp_path):
        cpus = usable_cpus()
        for n_workers, want in ((1, cpus), (2, max(1, cpus // 2))):
            probe = _BudgetProbe(small_problem, backend="native",
                                 max_iter=10)
            probe.log = str(tmp_path / f"budget-{n_workers}.txt")
            run_ler_parallel(
                small_problem, probe, 64, 3, n_workers=n_workers,
                shard_shots=16,
            )
            with open(probe.log) as fh:
                seen = {int(line) for line in fh}
            assert seen == {want}, n_workers
        # The grant ends with the run.
        assert THREAD_BUDGET.get() == 1

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 64])
    def test_pooled_worker_budget_is_its_share(self, n_workers):
        def init_and_read():
            _init_worker({}, n_workers)
            return THREAD_BUDGET.get()

        got = contextvars.Context().run(init_and_read)
        assert got == max(1, usable_cpus() // n_workers)
        assert THREAD_BUDGET.get() == 1

    def test_decode_service_decodes_at_budget_one(
        self, small_problem, budgets_seen
    ):
        synd = syndromes_for(small_problem, 12, 4)

        async def scenario():
            service = DecodeService(
                small_problem, "min_sum_bp",
                ServiceConfig(max_batch=4, flush_latency=0.001),
            )
            async with service:
                await asyncio.gather(*(
                    service.submit(row) for row in synd
                ))

        with use_threads(2):
            asyncio.run(scenario())
        assert budgets_seen and set(budgets_seen) == {1}

    def test_net_server_decodes_at_budget_one(self, budgets_seen):
        key = "surface_3:capacity:p=0.08:r=1:min_sum_bp:auto"

        async def scenario():
            async with NetDecodeServer([key]) as server:
                problem = server.router.catalog[key][0]
                rng = np.random.default_rng(6)
                synd = problem.syndromes(problem.sample_errors(6, rng))
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    for row in synd:
                        await asyncio.wait_for(
                            client.decode(key, row), timeout=30
                        )

        with use_threads(2):
            asyncio.run(scenario())
        assert budgets_seen and set(budgets_seen) == {1}

    def test_forked_worker_after_threaded_parent(self, bench_problems):
        problem = bench_problems["coprime154"]
        # Threaded calls in the parent first, then fork the pool.
        decoder = MinSumBP(problem, backend="native", max_iter=30)
        _with_budget(2, decoder.decode_many, syndromes_for(problem, 128, 8))

        def run(n_workers):
            return run_ler_parallel(
                problem, MinSumBP(problem, backend="native", max_iter=30),
                256, 17, n_workers=n_workers, shard_shots=64,
                mp_context="fork",
            )

        serial, pooled = run(1), run(2)
        assert pooled.failures == serial.failures
        assert np.array_equal(pooled.iterations, serial.iterations)


# -- row-interleaved lanes -----------------------------------------------


def tied_priors(problem, rows, dtype, seed):
    """Per-shot priors drawn from a few values: exact +-0.0, tied minima."""
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 0.5], dtype)
    return np.random.default_rng(seed).choice(
        values, size=(rows, problem.n_mechanisms)
    )


def straddling_groups(sizes):
    """Stop-group ids for consecutive groups of ``sizes`` rows."""
    groups = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes)[:-1]
    assert np.any(starts % 4), "no group straddles a lane block"
    return groups


@needs_native
class TestLanes:
    """Four rows per lane block: partial blocks, groups, neighbours."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 63, 257])
    def test_partial_blocks(self, bench_problems, rows, dtype):
        problem = bench_problems["coprime154"]
        synd = syndromes_for(problem, rows, 40 + rows)
        _native_matches_fused(
            problem, synd, dtype, max_iter=30, batch_size=rows
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("graph", ["bb144", "coprime154"])
    def test_stop_groups_straddle_blocks(self, bench_problems, graph, dtype):
        problem = bench_problems[graph]
        groups = straddling_groups([3, 5, 30, 5, 3, 30, 3, 3, 5])
        rows = groups.size
        synd = syndromes_for(problem, rows, 12)
        _native_matches_fused(
            problem, synd, dtype, max_iter=30,
            decode_kwargs={"stop_groups": groups},
        )
        _native_matches_fused(
            problem, synd, dtype, max_iter=30, damping=0.75,
            decode_kwargs={
                "stop_groups": groups,
                "prior_llr": tied_priors(problem, rows, dtype, 3),
            },
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_and_tied_priors(self, bench_problems, dtype):
        problem = bench_problems["coprime154"]
        synd = syndromes_for(problem, 37, 5)
        prior = tied_priors(problem, 37, dtype, 8)
        assert np.any(np.signbit(prior) & (prior == 0))
        _native_matches_fused(
            problem, synd, dtype, max_iter=20,
            decode_kwargs={"prior_llr": prior},
        )

    def test_row_result_independent_of_lane_and_neighbours(
        self, bench_problems
    ):
        problem = bench_problems["coprime154"]
        synd = syndromes_for(problem, 13, 31)
        other = syndromes_for(problem, 3, 32)
        decoder = MinSumBP(
            problem, backend="native", max_iter=30, track_oscillations=True
        )
        whole = decoder.decode_many(synd)
        for shift in (1, 2, 3):
            moved = decoder.decode_many(np.vstack([other[:shift], synd]))
            for name in ("errors", "converged", "iterations", "marginals",
                         "flip_counts"):
                assert np.array_equal(
                    getattr(moved, name)[shift:], getattr(whole, name)
                ), (shift, name)
        for row in range(synd.shape[0]):
            alone = decoder.decode_many(synd[row: row + 1])
            assert np.array_equal(alone.marginals[0], whole.marginals[row])
            assert np.array_equal(
                alone.flip_counts[0], whole.flip_counts[row]
            )
            assert alone.iterations[0] == whole.iterations[row]


@needs_native
class TestRefill:
    """Frozen groups free their lanes, and the next groups load at once.

    A lane loaded mid-call is on its own iteration count, so these cases
    fail if a lane takes another lane's damping factor, counts flips on
    its first iteration, or if a group is admitted in parts.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("graph", ["bb144", "coprime154"])
    def test_rows_converging_at_mixed_iterations(
        self, bench_problems, graph, dtype
    ):
        problem = bench_problems[graph]
        synd = syndromes_for(problem, 96, 51)
        want = _native_matches_fused(problem, synd, dtype, max_iter=40)
        # Many more rows than lanes, freed at many different iterations.
        assert np.unique(want.iterations[want.converged]).size >= 3
        assert np.any(want.flip_counts)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("graph", ["bb144", "coprime154"])
    def test_mixed_stop_groups(self, bench_problems, graph, dtype):
        problem = bench_problems[graph]
        # A 30-row group sizes the pool at 8 blocks (32 lanes); groups
        # of 3 and 5 rows then often wait for room behind it.
        sizes = [1, 3, 5, 30, 1, 5, 3, 30, 1, 1, 30, 5, 3, 1, 30, 3, 5]
        groups = straddling_groups(sizes)
        synd = syndromes_for(problem, groups.size, 52)
        want = _native_matches_fused(
            problem, synd, dtype, max_iter=30,
            decode_kwargs={"stop_groups": groups},
        )
        stopped = ~want.converged & (want.iterations < 30)
        assert stopped.any(), "no group was stopped by a sibling's success"
        _native_matches_fused(
            problem, synd, dtype, max_iter=30, damping=0.75,
            decode_kwargs={
                "stop_groups": groups,
                "prior_llr": tied_priors(problem, groups.size, dtype, 6),
            },
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_group_larger_than_a_default_pool(self, bench_problems, dtype):
        problem = bench_problems["coprime154"]
        sizes = [3, 1, 260, 1, 5, 1]
        groups = straddling_groups(sizes)
        synd = syndromes_for(problem, groups.size, 53)
        _native_matches_fused(
            problem, synd, dtype, max_iter=25,
            decode_kwargs={"stop_groups": groups},
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("graph", ["bb144", "coprime154"])
    def test_per_shot_priors(self, bench_problems, graph, dtype):
        problem = bench_problems[graph]
        rows = 72
        synd = syndromes_for(problem, rows, 54)
        prior = np.abs(np.random.default_rng(55).normal(
            3.0, 1.5, size=(rows, problem.n_mechanisms)
        )).astype(dtype)
        want = _native_matches_fused(
            problem, synd, dtype, max_iter=40,
            decode_kwargs={"prior_llr": prior},
        )
        assert np.unique(want.iterations).size >= 3


def test_missing_compiler_falls_back_to_fused(tmp_path):
    code = (
        "import json\n"
        "import numpy as np\n"
        "from repro.codes import get_code\n"
        "from repro.decoders import MinSumBP\n"
        "from repro.decoders.kernels import backend_availability, "
        "default_backend\n"
        "from repro.noise import code_capacity_problem\n"
        "problem = code_capacity_problem(get_code('surface_3'), 0.05)\n"
        "decoder = MinSumBP(problem)\n"
        "errors = problem.sample_errors(4, np.random.default_rng(0))\n"
        "result = decoder.decode_many(problem.syndromes(errors))\n"
        "print(json.dumps({'native': backend_availability()['native'], "
        "'default': default_backend(), 'backend': decoder.backend, "
        "'rows': len(result.converged)}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": _SRC, "CC": "false",
                          "XDG_CACHE_HOME": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert not report["native"]["available"]
    assert "C compiler failed: false" in report["native"]["error"]
    assert report["default"] == report["backend"] == "fused"
    assert report["rows"] == 4
    assert not os.listdir(tmp_path / "repro")


@needs_native
def test_cold_cache_race_between_processes(tmp_path):
    code = (
        "from repro.decoders.kernels.native import load_library\n"
        "ffi, lib = load_library()\n"
        "print(ffi.string(lib.bp_compiler()).decode())\n"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": _SRC,
                 "XDG_CACHE_HOME": str(tmp_path)},
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert out.strip()
    built = sorted(os.listdir(tmp_path / "repro"))
    assert len(built) == 1 and built[0].endswith(".so"), built
