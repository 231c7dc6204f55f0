"""Tests for the flooding min-sum BP decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import hamming_code, repetition_code, surface_code
from repro.decoders import DampingSchedule, LayeredMinSumBP, MinSumBP
from repro.noise import code_capacity_problem
from repro.problem import DecodingProblem


def classical_problem(code, p=0.05) -> DecodingProblem:
    return DecodingProblem(
        check_matrix=code.parity_check,
        priors=np.full(code.n, p),
        logical_matrix=code.generator,
        name=code.name,
    )


class TestDampingSchedule:
    def test_adaptive_matches_paper_formula(self):
        sched = DampingSchedule.adaptive()
        assert sched.alpha(1) == pytest.approx(0.5)
        assert sched.alpha(2) == pytest.approx(0.75)
        assert sched.alpha(10) == pytest.approx(1 - 2**-10)

    def test_constant(self):
        assert DampingSchedule(0.8).alpha(5) == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            DampingSchedule("linear")
        with pytest.raises(ValueError):
            DampingSchedule(0.0)


class TestBasicDecoding:
    def test_zero_syndrome_gives_zero_error(self):
        bp = MinSumBP(classical_problem(repetition_code(7)), max_iter=10)
        result = bp.decode(np.zeros(6, dtype=np.uint8))
        assert result.converged
        assert not result.error.any()

    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_single_error_on_repetition_code(self, position):
        code = repetition_code(7)
        problem = classical_problem(code)
        bp = MinSumBP(problem, max_iter=20)
        error = np.zeros(7, dtype=np.uint8)
        error[position] = 1
        result = bp.decode(problem.syndromes(error))
        assert result.converged
        assert np.array_equal(result.error, error)

    def test_single_error_on_hamming_code(self):
        # The Hamming Tanner graph has girth 4, so min-sum is not exact:
        # it may return a syndrome-equivalent pattern instead of the
        # unique weight-1 error.  Require syndrome-validity always and
        # the exact answer most of the time.
        code = hamming_code(3)
        problem = classical_problem(code, p=0.01)
        bp = MinSumBP(problem, max_iter=30)
        exact = 0
        for position in range(code.n):
            error = np.zeros(code.n, dtype=np.uint8)
            error[position] = 1
            syndrome = problem.syndromes(error)
            result = bp.decode(syndrome)
            assert result.converged
            assert np.array_equal(problem.syndromes(result.error), syndrome)
            exact += int(np.array_equal(result.error, error))
        assert exact >= code.n - 2

    def test_surface_code_single_qubit_errors(self):
        code = surface_code(3)
        problem = code_capacity_problem(code, 0.01)
        bp = MinSumBP(problem, max_iter=30)
        for q in range(code.n):
            error = np.zeros(code.n, dtype=np.uint8)
            error[q] = 1
            result = bp.decode(problem.syndromes(error))
            assert result.converged
            # Residual must be non-logical (degenerate match allowed).
            residual = result.error ^ error
            assert not problem.logical_flips(residual).any()


class TestInvariants:
    @given(st.integers(0, 2**16), st.floats(0.02, 0.15))
    @settings(max_examples=30, deadline=None)
    def test_converged_results_satisfy_syndrome(self, seed, p):
        rng = np.random.default_rng(seed)
        problem = code_capacity_problem(surface_code(3), p)
        bp = MinSumBP(problem, max_iter=25)
        errors = problem.sample_errors(8, rng)
        syndromes = problem.syndromes(errors)
        batch = bp.decode_many(syndromes)
        got = problem.syndromes(batch.errors[batch.converged])
        assert np.array_equal(got, syndromes[batch.converged])

    def test_batch_matches_single_shot(self, rng):
        problem = code_capacity_problem(surface_code(3), 0.08)
        bp = MinSumBP(problem, max_iter=25)
        errors = problem.sample_errors(12, rng)
        syndromes = problem.syndromes(errors)
        batch = bp.decode_many(syndromes)
        for i, s in enumerate(syndromes):
            single = bp.decode(s)
            assert single.converged == batch.converged[i]
            assert single.iterations == batch.iterations[i]
            assert np.array_equal(single.error, batch.errors[i])

    def test_iterations_bounded_by_budget(self, rng):
        problem = code_capacity_problem(surface_code(3), 0.12)
        bp = MinSumBP(problem, max_iter=7)
        syndromes = problem.syndromes(problem.sample_errors(20, rng))
        batch = bp.decode_many(syndromes)
        assert (batch.iterations <= 7).all()
        assert (batch.iterations >= 1).all()

    def test_syndrome_width_validated(self):
        problem = code_capacity_problem(surface_code(3), 0.05)
        bp = MinSumBP(problem, max_iter=5)
        with pytest.raises(ValueError):
            bp.decode(np.zeros(3, dtype=np.uint8))

    def test_max_iter_validated(self):
        problem = code_capacity_problem(surface_code(3), 0.05)
        with pytest.raises(ValueError):
            MinSumBP(problem, max_iter=0)

    @pytest.mark.parametrize("cls", [MinSumBP, LayeredMinSumBP])
    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_validated(self, cls, batch_size):
        problem = code_capacity_problem(surface_code(3), 0.05)
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            cls(problem, batch_size=batch_size)

    @pytest.mark.parametrize("grouped", [False, True],
                             ids=["plain", "stop_groups"])
    def test_empty_batch_rejected(self, grouped):
        problem = code_capacity_problem(surface_code(3), 0.05)
        bp = MinSumBP(problem, max_iter=5)
        syndromes = np.zeros((0, problem.n_checks), dtype=np.uint8)
        stop_groups = np.zeros(0, dtype=int) if grouped else None
        with pytest.raises(ValueError, match="at least one syndrome"):
            bp.decode_many(syndromes, stop_groups=stop_groups)


class TestOscillationTracking:
    def test_flip_counts_returned_when_tracking(self, rng):
        problem = code_capacity_problem(surface_code(3), 0.1)
        bp = MinSumBP(problem, max_iter=15, track_oscillations=True)
        syndromes = problem.syndromes(problem.sample_errors(6, rng))
        batch = bp.decode_many(syndromes)
        assert batch.flip_counts is not None
        assert batch.flip_counts.shape == batch.errors.shape
        assert (batch.flip_counts >= 0).all()

    def test_flip_counts_absent_by_default(self, rng):
        problem = code_capacity_problem(surface_code(3), 0.1)
        bp = MinSumBP(problem, max_iter=15)
        batch = bp.decode_many(
            problem.syndromes(problem.sample_errors(4, rng))
        )
        assert batch.flip_counts is None

    def test_fast_convergence_has_no_flips(self):
        # A trivially decodable syndrome converges in one iteration,
        # before any flip comparison happens.
        problem = code_capacity_problem(surface_code(3), 0.05)
        bp = MinSumBP(problem, max_iter=15, track_oscillations=True)
        result = bp.decode(np.zeros(problem.n_checks, dtype=np.uint8))
        assert result.iterations == 1
        assert not result.flip_counts.any()


class TestNumerics:
    def test_float64_option(self, rng):
        problem = code_capacity_problem(surface_code(3), 0.08)
        bp32 = MinSumBP(problem, max_iter=20)
        bp64 = MinSumBP(problem, max_iter=20, dtype=np.float64)
        syndromes = problem.syndromes(problem.sample_errors(10, rng))
        r32 = bp32.decode_many(syndromes)
        r64 = bp64.decode_many(syndromes)
        assert np.array_equal(r32.converged, r64.converged)
        assert np.array_equal(r32.errors, r64.errors)

    def test_degree_one_check_does_not_produce_nan(self):
        h = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        problem = DecodingProblem(
            check_matrix=h,
            priors=np.full(2, 0.05),
            logical_matrix=np.zeros((0, 2), dtype=np.uint8),
        )
        bp = MinSumBP(problem, max_iter=10)
        result = bp.decode(np.array([1, 1], dtype=np.uint8))
        assert np.isfinite(result.marginals).all()
        assert result.converged
        assert result.error.tolist() == [1, 0]

    # Group 0 (five rows) is larger than batch_size=3, so it must get
    # one oversized chunk rather than be split.
    @pytest.mark.parametrize(
        "stop_groups",
        [None, np.array([0, 0, 0, 0, 0, 1, 1, 2, 3, 3])],
        ids=["plain", "stop_groups"],
    )
    def test_chunking_equivalent_to_one_chunk(self, rng, stop_groups):
        problem = code_capacity_problem(surface_code(3), 0.08)
        syndromes = problem.syndromes(problem.sample_errors(10, rng))
        kw = dict(max_iter=20, track_oscillations=True)
        small = MinSumBP(problem, batch_size=3, **kw)
        large = MinSumBP(problem, batch_size=64, **kw)
        r_small = small.decode_many(syndromes, stop_groups=stop_groups)
        r_large = large.decode_many(syndromes, stop_groups=stop_groups)
        for column in (
            "errors", "converged", "iterations", "marginals", "flip_counts",
            "parallel_iterations", "initial_iterations", "stage",
            "trials_attempted", "winning_trial", "time_seconds",
        ):
            np.testing.assert_array_equal(
                getattr(r_small, column), getattr(r_large, column),
                err_msg=column,
            )
