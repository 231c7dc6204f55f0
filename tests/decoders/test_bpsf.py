"""Tests for the BP-SF decoder (the paper's Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import get_code, surface_code
from repro.decoders import BPSFDecoder, MinSumBP
from repro.noise import code_capacity_problem


@pytest.fixture(scope="module")
def coprime_problem():
    return code_capacity_problem(get_code("coprime_154_6_16"), 0.06)


class TestFastPath:
    def test_initial_convergence_skips_trials(self, rng):
        problem = code_capacity_problem(surface_code(3), 0.05)
        dec = BPSFDecoder(problem, max_iter=30, phi=4, w_max=1,
                          strategy="exhaustive")
        error = np.zeros(problem.n_mechanisms, dtype=np.uint8)
        error[0] = 1
        result = dec.decode(problem.syndromes(error))
        assert result.converged
        assert result.stage == "initial"
        assert result.trials_attempted == 0


class TestFlipBackConsistency:
    """Core Algorithm-1 invariant: the returned error must satisfy the
    *original* syndrome even though trials decoded flipped syndromes."""

    @given(st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_syndrome_restored(self, seed):
        rng = np.random.default_rng(seed)
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.06)
        dec = BPSFDecoder(problem, max_iter=12, phi=8, w_max=1,
                          strategy="exhaustive")
        errors = problem.sample_errors(6, rng)
        syndromes = problem.syndromes(errors)
        for i, result in enumerate(dec.decode_many(syndromes)):
            if result.converged:
                assert np.array_equal(
                    problem.syndromes(result.error), syndromes[i]
                ), f"shot {i} stage={result.stage}"

    def test_post_stage_reports_winner(self, coprime_problem, rng):
        dec = BPSFDecoder(coprime_problem, max_iter=8, phi=8, w_max=1,
                          strategy="exhaustive")
        # Hunt for a shot that needs post-processing.
        errors = coprime_problem.sample_errors(60, rng)
        syndromes = coprime_problem.syndromes(errors)
        results = dec.decode_many(syndromes)
        post = [r for r in results if r.stage == "post"]
        assert post, "expected at least one SF-rescued shot at this p"
        for r in post:
            assert r.winning_trial is not None
            assert r.trials_attempted >= 1
            assert r.converged


class TestIterationAccounting:
    def test_parallel_never_exceeds_serial(self, coprime_problem, rng):
        dec = BPSFDecoder(coprime_problem, max_iter=10, phi=8, w_max=1,
                          strategy="exhaustive")
        syndromes = coprime_problem.syndromes(
            coprime_problem.sample_errors(40, rng)
        )
        for r in dec.decode_many(syndromes):
            assert r.parallel_iterations <= r.iterations
            assert r.initial_iterations <= r.iterations

    def test_serial_iterations_include_failed_trials(self, coprime_problem, rng):
        dec = BPSFDecoder(coprime_problem, max_iter=10, phi=8, w_max=1,
                          strategy="exhaustive")
        syndromes = coprime_problem.syndromes(
            coprime_problem.sample_errors(50, rng)
        )
        for r in dec.decode_many(syndromes):
            if r.stage == "post" and r.winning_trial is not None:
                floor = r.initial_iterations + 10 * r.winning_trial
                assert r.iterations >= floor


class TestErrorSuppression:
    def test_bpsf_beats_plain_bp(self, rng):
        """The headline claim, at test scale: BP-SF converges where BP
        fails on the coprime-BB code."""
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.05)
        errors = problem.sample_errors(150, rng)
        syndromes = problem.syndromes(errors)
        bp = MinSumBP(problem, max_iter=50)
        plain = bp.decode_many(syndromes)
        dec = BPSFDecoder(problem, max_iter=50, phi=8, w_max=1,
                          strategy="exhaustive")
        results = dec.decode_many(syndromes)
        sf_converged = sum(r.converged for r in results)
        assert sf_converged >= plain.converged.sum()
        # The run must actually have exercised the SF stage.
        assert any(r.stage == "post" for r in results)

    def test_logical_error_rate_not_worse(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.05)
        errors = problem.sample_errors(150, rng)
        syndromes = problem.syndromes(errors)
        plain = MinSumBP(problem, max_iter=50).decode_many(syndromes)
        ler_bp = problem.is_failure(errors, plain.errors).mean()
        dec = BPSFDecoder(problem, max_iter=50, phi=8, w_max=1,
                          strategy="exhaustive")
        est = np.array([r.error for r in dec.decode_many(syndromes)])
        ler_sf = problem.is_failure(errors, est).mean()
        assert ler_sf <= ler_bp + 1e-9


class TestStrategies:
    def test_sampled_strategy_on_circuit_problem(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.07)
        dec = BPSFDecoder(problem, max_iter=8, phi=12, w_max=3, n_s=4,
                          strategy="sampled", seed=7)
        syndromes = problem.syndromes(problem.sample_errors(20, rng))
        results = dec.decode_many(syndromes)
        for r in results:
            if r.stage == "post":
                assert r.trials_attempted <= 12  # <= n_s * w_max

    def test_unknown_strategy_rejected(self, coprime_problem):
        with pytest.raises(ValueError):
            BPSFDecoder(coprime_problem, strategy="grid")

    def test_trial_syndromes_are_flipped_correctly(self, coprime_problem):
        dec = BPSFDecoder(coprime_problem, max_iter=5, phi=4, w_max=1,
                          strategy="exhaustive")
        s = np.zeros(coprime_problem.n_checks, dtype=np.uint8)
        trials = [(0,), (1, 2)]
        flipped = dec.trial_syndromes(s, trials)
        h = coprime_problem.check_matrix.toarray()
        expected0 = h[:, 0] % 2
        expected1 = (h[:, 1] + h[:, 2]) % 2
        assert np.array_equal(flipped[0], expected0.astype(np.uint8))
        assert np.array_equal(flipped[1], expected1.astype(np.uint8))

    def test_trial_syndromes_match_per_trial_loop(self, coprime_problem):
        """The fancy-indexed flip-matrix build equals the old row loop."""
        dec = BPSFDecoder(coprime_problem, max_iter=5, phi=8, w_max=3,
                          strategy="exhaustive")
        rng = np.random.default_rng(17)
        syndrome = rng.integers(
            0, 2, coprime_problem.n_checks, dtype=np.uint8
        )
        n = coprime_problem.n_mechanisms
        trials = [
            tuple(sorted(rng.choice(n, size=w, replace=False)))
            for w in (1, 1, 2, 3, 5)
        ]
        from repro._matrix import mod2_right_mul

        flips = np.zeros((len(trials), n), dtype=np.uint8)
        for row, trial in enumerate(trials):
            flips[row, list(trial)] = 1
        expected = syndrome[None, :] ^ mod2_right_mul(
            flips, coprime_problem.check_matrix
        )
        assert np.array_equal(
            dec.trial_syndromes(syndrome, trials), expected
        )


class TestBatchTimeAttribution:
    """Regression: batch wall time must not be smeared uniformly."""

    def test_time_proportional_to_iterations(self, coprime_problem, rng):
        import time

        dec = BPSFDecoder(coprime_problem, max_iter=10, phi=8, w_max=2,
                          strategy="exhaustive")
        errors = coprime_problem.sample_errors(96, rng)
        start = time.perf_counter()
        batch = dec.decode_many(coprime_problem.syndromes(errors))
        outer = time.perf_counter() - start
        # Shots that needed post-processing must be charged more than
        # shots the initial BP solved (the Fig. 15 distribution shape).
        assert batch.n_post > 0
        assert batch.time_seconds.std() > 0
        assert np.allclose(
            batch.time_seconds / batch.time_seconds.sum(),
            batch.iterations / batch.iterations.sum(),
        )
        # The attribution conserves the measured batch wall time.
        assert 0 < batch.time_seconds.sum() <= outer

    def test_cheap_shots_charged_less(self, coprime_problem, rng):
        dec = BPSFDecoder(coprime_problem, max_iter=10, phi=8, w_max=2,
                          strategy="exhaustive")
        errors = coprime_problem.sample_errors(96, rng)
        batch = dec.decode_many(coprime_problem.syndromes(errors))
        post = batch.stage == "post"
        assert post.any() and (~post).any()
        assert (
            batch.time_seconds[post].mean()
            > batch.time_seconds[~post].mean()
        )
