"""The ``native`` C kernel backend: summation order, fusion, fallback.

Cross-backend bit-parity on random and real graphs lives in
``test_kernel_parity.py`` (``native`` joins its ``BACKENDS`` wherever
the C kernel builds).  This module pins what that suite cannot see:

* the C segment sum reproduces ``np.add.reduceat``'s exact order, so a
  numpy change to that order fails here by name, not as a parity diff;
* the fused multi-iteration driver (routing, mid-chunk compaction,
  span independence, pickling, worker processes);
* a missing compiler degrades to ``fused``, and a cold build cache
  survives two processes racing on it.
"""

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro.decoders.bp as bp_mod
from repro.codes import get_code
from repro.decoders import BPSFDecoder, MinSumBP
from repro.decoders.kernels import available_backends
from repro.decoders.membp import MemoryMinSumBP
from repro.decoders.sum_product import SumProductBP
from repro.noise import code_capacity_problem
from repro.sim import run_ler_parallel
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
    from repro.decoders.kernels.native import load_library

    ffi, lib = load_library()
    rng = np.random.default_rng(3)
    lengths = np.tile(np.arange(1, 301), 2)
    rng.shuffle(lengths)
    ptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    # Mixed magnitudes, so a different summation order shows up.
    values = rng.normal(size=(2, ptr[-1])) * 10.0 ** rng.integers(
        -3, 4, size=(2, ptr[-1])
    )
    values = values.astype(dtype)
    expected = np.add.reduceat(values, ptr[:-1], axis=1)
    ctype = "float" if dtype == np.float32 else "double"
    run = lib.bp_segment_sums_f32 if dtype == np.float32 \
        else lib.bp_segment_sums_f64
    for row, want in zip(values, expected):
        got = np.empty(lengths.size, dtype)
        run(ffi.cast(f"{ctype} *", row.ctypes.data),
            ffi.cast("int64_t *", ptr.ctypes.data), lengths.size,
            ffi.cast(f"{ctype} *", got.ctypes.data))
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
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

    def test_compact_mid_decode(self, small_problem, monkeypatch):
        from repro.decoders.kernels.native import NativeKernel

        synd = syndromes_for(small_problem, 16, 7)
        fused, native = _pair(
            small_problem, max_iter=40, batch_size=4,
            track_oscillations=True,
        )
        calls = []
        original = NativeKernel.fused_compact
        monkeypatch.setattr(
            NativeKernel, "fused_compact",
            lambda self, keep: calls.append(int(keep.sum()))
            or original(self, keep),
        )
        assert_identical(fused.decode_many(synd), native.decode_many(synd))
        assert calls, "decode never exercised mid-decode compaction"

    def test_span_size_never_changes_results(
        self, small_problem, monkeypatch
    ):
        synd = syndromes_for(small_problem, 12, 19)
        groups = np.repeat(np.arange(4), 3)

        def decode():
            return MinSumBP(
                small_problem, backend="native", max_iter=30,
                track_oscillations=True,
            ).decode_many(synd, stop_groups=groups)

        wide = decode()
        monkeypatch.setattr(bp_mod, "_FUSION_MAX_SPAN", 1)
        assert_identical(wide, decode())

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
