"""Cross-backend parity: every registered kernel must equal the reference.

Every backend reproduces the reference's reduction order, so each must
match it bit-exactly on every output array, marginals included, at any
thread budget.  ``BACKENDS`` is discovered at
import time via ``available_backends()``: ``reference``, ``fused`` and,
wherever its C kernel builds, ``native``.  The suite sweeps the
contract over

* random Tanner graphs (hypothesis), including empty checks, isolated
  variables and mixed node degrees (the fused kernel's reduceat
  fallback),
* structured uniform-degree graphs (the strided fast path),
* float32 and float64, adaptive and constant damping,
* per-shot prior overrides, including exact +-0.0 and tied minima,
* chunk sizes that leave the native kernel's four-row lane blocks
  partly filled,
* ``stop_groups`` first-success semantics,
* thread budgets 1, 2 and 3 (3 exceeds a 2-core host),
* the Mem-BP and sum-product subclasses (whose ``_iteration_prior`` /
  ``_check_update`` hooks must survive the seam),
* multi-chunk batches with long trajectories and workspace reuse
  across differently-sized batches,
* pickling (workers receive kernels without workspace state).
"""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codes import get_code
from repro.decoders import MinSumBP, get_decoder, make_decoder_factory
from repro.decoders.kernels import (
    OPTIONAL_BACKENDS,
    THREAD_BUDGET,
    available_backends,
    resolve_backend,
    use_backend,
)
from repro.decoders.kernels import base as kernels_base
from repro.decoders.membp import MemoryMinSumBP
from repro.decoders.sum_product import SumProductBP
from repro.noise import code_capacity_problem
from repro.problem import DecodingProblem

# Every backend actually usable in this environment; "reference" is the
# comparison baseline and always sorts present.
BACKENDS = available_backends()


def problem_from_matrix(h) -> DecodingProblem:
    """Wrap a binary matrix in a DecodingProblem with varied priors."""
    h = np.asarray(h, dtype=np.uint8)
    n = h.shape[1]
    priors = 0.02 + 0.4 * (np.arange(n) % 7) / 7.0
    return DecodingProblem(
        check_matrix=sp.csr_matrix(h),
        priors=priors,
        logical_matrix=sp.csr_matrix(np.zeros((1, n), dtype=np.uint8)),
        name="parity-test",
    )


def syndromes_for(problem, batch, seed):
    rng = np.random.default_rng(seed)
    return problem.syndromes(problem.sample_errors(batch, rng))


def assert_identical(a, b):
    """Two backend results agree bit-for-bit on every output array."""
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.converged, b.converged)
    assert np.array_equal(a.iterations, b.iterations)
    assert np.array_equal(a.marginals, b.marginals)
    if a.flip_counts is not None or b.flip_counts is not None:
        assert np.array_equal(a.flip_counts, b.flip_counts)


def assert_all_identical(results):
    """Assert every backend's result matches the reference baseline."""
    ref = results["reference"]
    for out in results.values():
        assert_identical(ref, out)


def decode_all(cls, problem, synd, *, decode_kwargs=None, **kwargs):
    results = {}
    for backend in BACKENDS:
        decoder = cls(problem, backend=backend, **kwargs)
        assert decoder.backend == backend
        results[backend] = decoder.decode_many(
            synd, **(decode_kwargs or {})
        )
    return results




def matrices(max_checks=8, max_vars=12):
    shapes = st.tuples(
        st.integers(2, max_checks), st.integers(3, max_vars)
    )
    return shapes.flatmap(
        lambda s: arrays(np.uint8, s, elements=st.integers(0, 1))
    )


class TestRandomGraphs:
    @given(matrices(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_min_sum_parity_on_random_graphs(self, h, seed):
        if int(h.sum()) == 0:
            return  # edge-free graphs are rejected upstream of BP
        problem = problem_from_matrix(h)
        synd = syndromes_for(problem, 9, seed)
        assert_all_identical(decode_all(
            MinSumBP, problem, synd, max_iter=12, track_oscillations=True
        ))

    def test_empty_check_rows_never_converge_identically(self):
        # Row 2 has no edges: a syndrome bit there is unsatisfiable.
        h = np.array(
            [[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 0, 0]], dtype=np.uint8
        )
        problem = problem_from_matrix(h)
        synd = np.array(
            [[1, 0, 1], [1, 0, 0], [0, 1, 1], [0, 0, 0]], dtype=np.uint8
        )
        results = decode_all(MinSumBP, problem, synd, max_iter=10)
        assert_all_identical(results)
        # The infeasible rows (syndrome on the empty check) failed.
        ref = results["reference"]
        assert not ref.converged[0] and not ref.converged[2]

    def test_isolated_variables_identical(self):
        h = np.array(
            [[1, 0, 1, 0, 1], [1, 0, 0, 0, 1], [0, 0, 1, 0, 1]],
            dtype=np.uint8,
        )  # columns 1 and 3 are isolated
        problem = problem_from_matrix(h)
        synd = syndromes_for(problem, 12, 3)
        assert_all_identical(decode_all(
            MinSumBP, problem, synd, max_iter=15, track_oscillations=True
        ))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_priors_keep_zero_signs(self, dtype):
        # Every check has even degree, so with all-zero priors and
        # syndromes each row converges at iteration 1 with zero
        # marginals.  Their signs follow from treating -0.0 as
        # non-negative (``x < 0``), not from its sign bit.
        h = np.array(
            [[1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1, 0, 0],
             [1, 0, 0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 0, 1, 1]],
            dtype=np.uint8,
        )
        problem = problem_from_matrix(h)
        synd = np.zeros((11, 4), dtype=np.uint8)
        prior = np.random.default_rng(1).choice(
            np.array([0.0, -0.0], dtype), size=(11, 8)
        )
        results = decode_all(
            MinSumBP, problem, synd, max_iter=5, dtype=dtype,
            decode_kwargs={"prior_llr": prior},
        )
        assert_all_identical(results)
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        ref = results["reference"].marginals.view(bits)
        assert np.all(results["reference"].iterations == 1)
        for out in results.values():
            assert np.array_equal(out.marginals.view(bits), ref)

    def test_uniform_degree_graph_uses_strided_path(self):
        # A (3,6)-regular-ish structured graph: every check degree 3.
        rng = np.random.default_rng(0)
        h = np.zeros((8, 12), dtype=np.uint8)
        for row in h:
            row[rng.choice(12, size=3, replace=False)] = 1
        problem = problem_from_matrix(h)
        fused = MinSumBP(problem, max_iter=12, backend="fused")
        if fused.edges.uniform_check_degree is None:
            pytest.skip("construction did not yield uniform degrees")
        synd = syndromes_for(problem, 16, 5)
        assert_all_identical(decode_all(
            MinSumBP, problem, synd, max_iter=12, track_oscillations=True
        ))


@pytest.fixture(scope="module")
def coprime_problem():
    return code_capacity_problem(get_code("coprime_154_6_16"), 0.07)


@pytest.fixture(scope="module")
def coprime_syndromes(coprime_problem):
    return syndromes_for(coprime_problem, 96, 11)


class TestRealCode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("damping", ["adaptive", 0.75])
    def test_dtype_damping_sweep(
        self, coprime_problem, coprime_syndromes, dtype, damping
    ):
        assert_all_identical(decode_all(
            MinSumBP, coprime_problem, coprime_syndromes,
            max_iter=24, dtype=dtype, damping=damping,
            track_oscillations=True,
        ))

    def test_per_shot_priors(self, coprime_problem, coprime_syndromes):
        n = coprime_problem.n_mechanisms
        batch = coprime_syndromes.shape[0]
        rng = np.random.default_rng(2)
        prior = np.abs(rng.normal(2.5, 0.8, size=(batch, n))).astype(
            np.float32
        )
        assert_all_identical(decode_all(
            MinSumBP, coprime_problem, coprime_syndromes, max_iter=25,
            decode_kwargs={"prior_llr": prior},
        ))

    def test_stop_groups_first_success(
        self, coprime_problem, coprime_syndromes
    ):
        batch = coprime_syndromes.shape[0]
        groups = np.repeat(np.arange(batch // 4), 4)
        assert_all_identical(decode_all(
            MinSumBP, coprime_problem, coprime_syndromes, max_iter=40,
            decode_kwargs={"stop_groups": groups},
        ))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_thread_budget_never_changes_results(
        self, coprime_problem, coprime_syndromes, threads
    ):
        batch = coprime_syndromes.shape[0]
        groups = np.repeat(np.arange(batch // 32), 32)
        token = THREAD_BUDGET.set(threads)
        try:
            results = decode_all(
                MinSumBP, coprime_problem, coprime_syndromes, max_iter=40,
                track_oscillations=True,
                decode_kwargs={"stop_groups": groups},
            )
        finally:
            THREAD_BUDGET.reset(token)
        assert_all_identical(results)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 63, 257])
    def test_chunk_sizes_across_lane_blocks(
        self, coprime_problem, rows, dtype
    ):
        # The native kernel runs four rows per lane block: chunks that
        # leave a block partly filled must decode like any other.
        synd = syndromes_for(coprime_problem, rows, 50 + rows)
        assert_all_identical(decode_all(
            MinSumBP, coprime_problem, synd, max_iter=20, dtype=dtype,
            batch_size=rows, track_oscillations=True,
        ))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_and_tied_priors(
        self, coprime_problem, coprime_syndromes, dtype
    ):
        # -0.0 is non-negative to every backend's sign rule, and tied
        # minima take the duplicate-counting second minimum.
        batch = coprime_syndromes.shape[0]
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 0.5], dtype)
        prior = np.random.default_rng(6).choice(
            values, size=(batch, coprime_problem.n_mechanisms)
        )
        sizes = [3, 5, 30, 5, 3, 30, 3, 3, 5, 3, 3, 3]
        groups = np.repeat(np.arange(len(sizes)), sizes)
        assert groups.size == batch
        assert_all_identical(decode_all(
            MinSumBP, coprime_problem, coprime_syndromes, max_iter=20,
            dtype=dtype, track_oscillations=True,
            decode_kwargs={"prior_llr": prior, "stop_groups": groups},
        ))

    def test_memory_bp_subclass(self, coprime_problem, coprime_syndromes):
        assert_all_identical(decode_all(
            MemoryMinSumBP, coprime_problem, coprime_syndromes,
            gamma=0.5, max_iter=25, dtype=np.float64,
            track_oscillations=True,
        ))

    def test_disordered_memory_bp(self, coprime_problem, coprime_syndromes):
        n = coprime_problem.n_mechanisms
        gamma = np.random.default_rng(7).uniform(-0.2, 0.6, size=n)
        assert_all_identical(decode_all(
            MemoryMinSumBP, coprime_problem, coprime_syndromes,
            gamma=gamma, max_iter=25, dtype=np.float64,
        ))

    def test_sum_product_subclass(self, coprime_problem, coprime_syndromes):
        assert_all_identical(decode_all(
            SumProductBP, coprime_problem, coprime_syndromes,
            max_iter=20, track_oscillations=True,
        ))

    def test_multi_chunk_long_trajectories(
        self, coprime_problem, coprime_syndromes
    ):
        # batch > batch_size spreads the batch over several chunks, each
        # decoded with the full 60-iteration budget on every backend.
        assert_all_identical(decode_all(
            MinSumBP, coprime_problem, coprime_syndromes,
            max_iter=60, batch_size=16,
        ))

    def test_workspace_survives_batch_resizing(self, coprime_problem):
        # Shrinking and growing batches reuse / reallocate the fused
        # workspace; results must stay independent of call history.
        fused = MinSumBP(coprime_problem, max_iter=20, backend="fused")
        ref = MinSumBP(coprime_problem, max_iter=20, backend="reference")
        for batch, seed in ((40, 0), (3, 1), (64, 2), (1, 3), (17, 4)):
            synd = syndromes_for(coprime_problem, batch, seed)
            assert_identical(
                ref.decode_many(synd), fused.decode_many(synd)
            )

    def test_fused_decoder_pickles_without_workspace(
        self, coprime_problem, coprime_syndromes
    ):
        decoder = MinSumBP(coprime_problem, max_iter=20, backend="fused")
        decoder.decode_many(coprime_syndromes[:8])   # populate workspace
        clone = pickle.loads(pickle.dumps(decoder))
        assert clone._kernel._ws is None
        assert_identical(
            decoder.decode_many(coprime_syndromes),
            clone.decode_many(coprime_syndromes),
        )


@pytest.fixture
def broken_optional(monkeypatch):
    """A registered optional backend whose dependency fails to load."""

    def loader():
        raise ImportError("No module named 'warpdrive'")

    monkeypatch.setitem(OPTIONAL_BACKENDS, "warp9", loader)
    monkeypatch.setattr(kernels_base, "_OPTIONAL_ERRORS", {})
    return "warp9"


class TestBackendSelection:
    def test_resolve_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown BP kernel backend"):
            resolve_backend("simd9000")

    def test_unknown_name_error_mentions_uninstalled_optionals(
        self, broken_optional
    ):
        with pytest.raises(
            ValueError, match="unknown BP kernel backend"
        ) as excinfo:
            resolve_backend("simd9000")
        # Registered-but-unavailable optionals must be named, not
        # silently omitted.
        assert broken_optional in str(excinfo.value)
        assert "unavailable" in str(excinfo.value)

    def test_optional_backend_unavailable_error_carries_cause(
        self, broken_optional
    ):
        with pytest.raises(ValueError, match="is unavailable.*warpdrive"):
            resolve_backend(broken_optional)
        assert broken_optional not in available_backends()

    def test_env_var_selects_default(self, monkeypatch, coprime_problem):
        monkeypatch.setenv("REPRO_BP_BACKEND", "reference")
        assert resolve_backend(None) == "reference"
        assert MinSumBP(coprime_problem).backend == "reference"
        # Explicit argument beats the environment.
        assert MinSumBP(
            coprime_problem, backend="fused"
        ).backend == "fused"

    def test_env_var_unknown_fails_at_construction(
        self, monkeypatch, coprime_problem
    ):
        monkeypatch.setenv("REPRO_BP_BACKEND", "warp")
        with pytest.raises(ValueError, match="unknown BP kernel backend"):
            MinSumBP(coprime_problem)

    def test_use_backend_scope(self, coprime_problem):
        with use_backend("reference"):
            assert MinSumBP(coprime_problem).backend == "reference"
        assert MinSumBP(coprime_problem).backend == resolve_backend(None)

    def test_registry_threads_backend_into_composites(
        self, coprime_problem
    ):
        decoder = get_decoder(
            "bpsf", coprime_problem, backend="reference"
        )
        assert decoder.bp_initial.backend == "reference"
        assert decoder.bp_trial.backend == "reference"

    def test_factory_pickles_with_backend(self, coprime_problem):
        factory = make_decoder_factory("min_sum_bp", backend="reference")
        clone = pickle.loads(pickle.dumps(factory))
        assert clone(coprime_problem).backend == "reference"

    def test_factory_rejects_unknown_decoder(self):
        with pytest.raises(KeyError, match="unknown decoder"):
            make_decoder_factory("nope")

    def test_bpsf_backend_parity(self, coprime_problem, coprime_syndromes):
        outs = {}
        for backend in BACKENDS:
            decoder = get_decoder(
                "bpsf", coprime_problem, backend=backend
            )
            outs[backend] = decoder.decode_many(coprime_syndromes)
        a = outs["reference"]
        for b in outs.values():
            assert np.array_equal(a.errors, b.errors)
            assert np.array_equal(a.converged, b.converged)
            assert np.array_equal(a.iterations, b.iterations)
            assert np.array_equal(a.stage, b.stage)
            assert np.array_equal(a.winning_trial, b.winning_trial)
