"""Numba kernel backend: fallback-mode algorithm tests + a JIT tier.

``repro.decoders.kernels.numba_kernel`` always imports: without numba
the ``@njit`` decorators are identity functions and ``prange`` is
``range``, so the complete algorithm — CSR flattening, the fused
multi-iteration driver, workspace management, ``compact`` — is
testable on any machine.  Most tests here therefore monkeypatch the
registry to expose :class:`NumbaKernel` as backend ``"numba"``
regardless of whether the real dependency is installed (when it *is*
installed the same tests exercise the compiled kernels instead).

A final tier covers JIT-specific behaviour and **skips, never fails**,
when numba is absent; conversely one test asserts the clean-skip
story: an environment without numba must report the backend as
unavailable with the import error attached, not explode.

Graphs are kept tiny because the fallback executes the per-row loops
in pure Python.
"""

import pickle

import numpy as np
import pytest

import repro.decoders.bp as bp_mod
from repro.decoders import MinSumBP, make_decoder_factory
from repro.decoders.kernels import (
    KERNEL_BACKENDS,
    available_backends,
    backend_availability,
)
from repro.decoders.kernels.numba_kernel import (
    NUMBA_AVAILABLE,
    NUMBA_IMPORT_ERROR,
    NumbaKernel,
)
from repro.decoders.membp import MemoryMinSumBP
from repro.decoders.sum_product import SumProductBP
from tests.decoders.test_kernel_parity import (
    assert_identical,
    problem_from_matrix,
    syndromes_for,
)


@pytest.fixture
def numba_backend(monkeypatch):
    """Expose NumbaKernel as backend "numba" even without the dependency."""
    monkeypatch.setitem(KERNEL_BACKENDS, "numba", NumbaKernel)


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


def _pair(problem, *, numba_kwargs=None, **kwargs):
    numba = MinSumBP(
        problem, backend="numba", **{**kwargs, **(numba_kwargs or {})}
    )
    ref = MinSumBP(problem, backend="reference", **kwargs)
    return ref, numba


class TestRegistration:
    def test_availability_matches_dependency(self):
        info = backend_availability()
        assert "numba" in info
        if NUMBA_AVAILABLE:
            assert "numba" in available_backends()
            assert info["numba"]["available"]
        else:
            # Clean skip, not an import crash: the backend is reported
            # unavailable and carries the underlying import error.
            assert "numba" not in available_backends()
            assert not info["numba"]["available"]
            assert info["numba"]["error"] == NUMBA_IMPORT_ERROR

    def test_runtime_version_names_execution_mode(self):
        expected = "numba" if NUMBA_AVAILABLE else "pure-python fallback"
        assert NumbaKernel.runtime_version.startswith(expected)

    def test_declared_contract(self):
        assert NumbaKernel.name == "numba"
        assert NumbaKernel.supports_iteration_fusion
        assert not NumbaKernel.deterministic_sums


class TestFusionRouting:
    def test_min_sum_uses_fusion(self, numba_backend, small_problem):
        assert MinSumBP(small_problem, backend="numba")._uses_fusion
        assert not MinSumBP(small_problem, backend="fused")._uses_fusion

    def test_subclasses_fall_back_to_protocol_path(
        self, numba_backend, small_problem
    ):
        # Mem-BP and sum-product override iteration hooks; they must
        # take the generic per-iteration path (which NumbaKernel also
        # implements) and still match the reference bit-for-bit on
        # integer outputs.
        assert not MemoryMinSumBP(
            small_problem, gamma=0.5, backend="numba"
        )._uses_fusion
        assert not SumProductBP(small_problem, backend="numba")._uses_fusion
        synd = syndromes_for(small_problem, 6, 17)
        for cls, kwargs in (
            (MemoryMinSumBP, {"gamma": 0.5}),
            (SumProductBP, {}),
        ):
            ref = cls(small_problem, backend="reference", max_iter=12,
                      **kwargs).decode_many(synd)
            out = cls(small_problem, backend="numba", max_iter=12,
                      **kwargs).decode_many(synd)
            assert_identical(ref, out, sums_exact=False)


class TestDecodeParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtypes(self, numba_backend, small_problem, dtype):
        synd = syndromes_for(small_problem, 10, 23)
        ref, numba = _pair(
            small_problem, max_iter=20, dtype=dtype,
            track_oscillations=True,
        )
        assert_identical(
            ref.decode_many(synd), numba.decode_many(synd),
            sums_exact=False, dtype=dtype,
        )

    def test_empty_check_and_isolated_variable_graph(self, numba_backend):
        # Row 2 has no edges (a syndrome there is unsatisfiable) and
        # column 3 touches no check (its marginal must stay the prior).
        h = np.array(
            [[1, 1, 0, 0, 1], [0, 1, 1, 0, 0], [0, 0, 0, 0, 0]],
            dtype=np.uint8,
        )
        problem = problem_from_matrix(h)
        synd = np.array(
            [[1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=np.uint8
        )
        ref, numba = _pair(problem, max_iter=10)
        a, b = ref.decode_many(synd), numba.decode_many(synd)
        assert_identical(a, b, sums_exact=False)
        # Rows 0 and 2 carry a syndrome bit on the empty check: no
        # error pattern can satisfy them, so they must not converge.
        assert not b.converged[0] and not b.converged[2]

    def test_stop_groups_first_success(self, numba_backend, small_problem):
        synd = syndromes_for(small_problem, 12, 5)
        groups = np.repeat(np.arange(3), 4)
        ref, numba = _pair(small_problem, max_iter=25)
        assert_identical(
            ref.decode_many(synd, stop_groups=groups),
            numba.decode_many(synd, stop_groups=groups),
            sums_exact=False,
        )

    def test_per_shot_priors(self, numba_backend, small_problem):
        synd = syndromes_for(small_problem, 8, 31)
        prior = np.abs(
            np.random.default_rng(4).normal(
                2.0, 0.7, size=(8, small_problem.n_mechanisms)
            )
        ).astype(np.float32)
        ref, numba = _pair(small_problem, max_iter=15)
        assert_identical(
            ref.decode_many(synd, prior_llr=prior),
            numba.decode_many(synd, prior_llr=prior),
            sums_exact=False,
        )


class TestWorkspace:
    def test_compact_mid_decode(self, numba_backend, small_problem,
                                monkeypatch):
        # batch > batch_size spreads the batch over several chunks with
        # a 40-iteration budget; rows retire at different iterations,
        # so the fused driver must compact mid-decode.
        synd = syndromes_for(small_problem, 16, 7)
        ref, numba = _pair(
            small_problem, max_iter=40, batch_size=4,
            track_oscillations=True,
        )
        calls = []
        original = NumbaKernel.fused_compact
        monkeypatch.setattr(
            NumbaKernel, "fused_compact",
            lambda self, keep: calls.append(int(keep.sum()))
            or original(self, keep),
        )
        assert_identical(
            ref.decode_many(synd), numba.decode_many(synd),
            sums_exact=False,
        )
        assert calls, "decode never exercised mid-decode compaction"

    def test_workspace_reuse_across_chunk_sizes(
        self, numba_backend, small_problem
    ):
        # Shrinking and growing batches reuse / reallocate the
        # workspace; results must stay independent of call history,
        # and capacity must only ever grow.
        ref, numba = _pair(small_problem, max_iter=15)
        caps = []
        for batch, seed in ((10, 0), (2, 1), (14, 2), (1, 3), (6, 4)):
            synd = syndromes_for(small_problem, batch, seed)
            assert_identical(
                ref.decode_many(synd), numba.decode_many(synd),
                sums_exact=False,
            )
            caps.append(numba._kernel._cap)
        assert caps == sorted(caps)
        assert caps[-1] == 14

    def test_span_size_never_changes_results(
        self, numba_backend, small_problem, monkeypatch
    ):
        # The adaptive fusion span is a pure scheduling knob: capping
        # it at one iteration per kernel call must reproduce the
        # default-span decode exactly.  Both decodes run the same
        # backend, so even marginals must match bit-for-bit — span
        # width changes how iterations are batched per kernel call,
        # never the per-row arithmetic sequence.
        synd = syndromes_for(small_problem, 12, 19)
        wide = MinSumBP(
            small_problem, backend="numba", max_iter=30,
            track_oscillations=True,
        ).decode_many(synd)
        monkeypatch.setattr(bp_mod, "_FUSION_MAX_SPAN", 1)
        narrow = MinSumBP(
            small_problem, backend="numba", max_iter=30,
            track_oscillations=True,
        ).decode_many(synd)
        assert_identical(wide, narrow, sums_exact=True)

    def test_pickle_drops_workspace(self, numba_backend, small_problem):
        synd = syndromes_for(small_problem, 9, 13)
        decoder = MinSumBP(small_problem, backend="numba", max_iter=15)
        decoder.decode_many(synd[:4])   # populate the workspace
        assert decoder._kernel._ws is not None
        clone = pickle.loads(pickle.dumps(decoder))
        assert clone._kernel._ws is None
        assert_identical(
            decoder.decode_many(synd), clone.decode_many(synd),
            sums_exact=True,   # same backend on both sides: bit-exact
        )

    def test_factory_pickles_through_worker_path(
        self, numba_backend, small_problem
    ):
        # The sim engine ships decoder *factories* to workers; the
        # factory must survive a pickle round-trip and rebuild a numba
        # decoder whose results match a locally built one bit-for-bit.
        factory = make_decoder_factory("min_sum_bp", backend="numba")
        clone = pickle.loads(pickle.dumps(factory))
        rebuilt = clone(small_problem)
        assert rebuilt.backend == "numba"
        assert isinstance(rebuilt._kernel, NumbaKernel)
        synd = syndromes_for(small_problem, 8, 2)
        local = factory(small_problem)
        assert_identical(
            local.decode_many(synd), rebuilt.decode_many(synd),
            sums_exact=True,
        )


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
class TestCompiledTier:
    """Only meaningful with the real dependency; skipped otherwise."""

    def test_registered_without_monkeypatching(self):
        assert "numba" in available_backends()

    def test_compiled_decode_matches_reference(self, small_problem):
        synd = syndromes_for(small_problem, 12, 41)
        ref, numba = _pair(
            small_problem, max_iter=25, track_oscillations=True
        )
        assert_identical(
            ref.decode_many(synd), numba.decode_many(synd),
            sums_exact=False,
        )
