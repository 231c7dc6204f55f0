"""Tests for Mem-BP, DMem-BP and Relay-BP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import get_code
from repro.decoders import MemoryMinSumBP, MinSumBP, RelayBP, disordered_gammas
from repro.noise import code_capacity_problem
from repro.sim import run_ler


@pytest.fixture(scope="module")
def problem():
    return code_capacity_problem(get_code("bb_72_12_6"), 0.05)


@pytest.fixture(scope="module")
def hard_problem():
    """The coprime-BB code where plain BP struggles (paper Fig. 5)."""
    return code_capacity_problem(get_code("coprime_154_6_16"), 0.05)


class TestDisorderedGammas:
    def test_range(self):
        rng = np.random.default_rng(0)
        g = disordered_gammas(1000, -0.2, 0.7, rng)
        assert g.shape == (1000,)
        assert g.min() >= -0.2 and g.max() < 0.7

    def test_rejects_inverted_interval(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            disordered_gammas(10, 0.7, -0.2, rng)

    def test_rejects_divergent_strengths(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            disordered_gammas(10, 0.5, 1.5, rng)


class TestMemoryMinSumBP:
    def test_zero_gamma_matches_plain_bp(self, problem):
        """γ = 0 must reduce Mem-BP to plain min-sum exactly."""
        rng = np.random.default_rng(1)
        errors = problem.sample_errors(32, rng)
        syndromes = problem.syndromes(errors)
        plain = MinSumBP(problem, max_iter=30).decode_many(syndromes)
        mem = MemoryMinSumBP(problem, gamma=0.0, max_iter=30).decode_many(
            syndromes
        )
        np.testing.assert_array_equal(plain.errors, mem.errors)
        np.testing.assert_array_equal(plain.iterations, mem.iterations)

    def test_converged_outputs_satisfy_syndrome(self, problem):
        rng = np.random.default_rng(2)
        errors = problem.sample_errors(64, rng)
        syndromes = problem.syndromes(errors)
        dec = MemoryMinSumBP(problem, gamma=0.5, max_iter=50)
        batch = dec.decode_many(syndromes)
        got = problem.syndromes(batch.errors)
        assert np.array_equal(got[batch.converged], syndromes[batch.converged])

    def test_per_bit_gamma_shape_validated(self, problem):
        with pytest.raises(ValueError):
            MemoryMinSumBP(problem, gamma=np.zeros(3))

    def test_gamma_at_least_one_rejected(self, problem):
        with pytest.raises(ValueError):
            MemoryMinSumBP(problem, gamma=1.0)

    def test_disordered_constructor(self, problem):
        dec = MemoryMinSumBP.disordered(
            problem, low=-0.1, high=0.5, rng=np.random.default_rng(3)
        )
        assert dec.gamma.shape == (problem.n_mechanisms,)
        assert np.unique(dec.gamma).size > 1

    def test_memory_rescues_plain_bp_failures(self):
        """On the [[154,6,16]] code, re-decoding plain-BP failures with a
        moderate memory term rescues a substantial fraction of them."""
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.08)
        rng = np.random.default_rng(4)
        errors = problem.sample_errors(500, rng)
        syndromes = problem.syndromes(errors)
        plain = MinSumBP(problem, max_iter=60).decode_many(syndromes)
        failed = syndromes[~plain.converged]
        assert failed.shape[0] >= 20, "expected plenty of BP failures"
        mem = MemoryMinSumBP(problem, gamma=0.2, max_iter=60).decode_many(
            failed
        )
        assert mem.converged.sum() >= 0.2 * failed.shape[0]

    @settings(deadline=None, max_examples=10)
    @given(gamma=st.floats(min_value=-0.5, max_value=0.95))
    def test_any_gamma_returns_valid_shapes(self, gamma):
        problem = code_capacity_problem(get_code("bb_72_12_6"), 0.03)
        dec = MemoryMinSumBP(problem, gamma=gamma, max_iter=10)
        syndrome = np.zeros(problem.n_checks, dtype=np.uint8)
        result = dec.decode(syndrome)
        assert result.error.shape == (problem.n_mechanisms,)
        assert result.converged  # zero syndrome decodes trivially


class TestRelayBP:
    def test_trivial_syndrome(self, problem):
        dec = RelayBP(problem, leg_iters=20, num_legs=2, seed=0)
        result = dec.decode(np.zeros(problem.n_checks, dtype=np.uint8))
        assert result.converged
        assert result.error.sum() == 0
        assert result.stage == "initial"

    def test_solutions_satisfy_syndrome(self, problem):
        rng = np.random.default_rng(5)
        errors = problem.sample_errors(48, rng)
        syndromes = problem.syndromes(errors)
        dec = RelayBP(problem, leg_iters=30, num_legs=3, seed=1)
        for res, syndrome in zip(dec.decode_many(syndromes), syndromes):
            if res.converged:
                assert np.array_equal(
                    problem.syndromes(res.error[None, :])[0], syndrome
                )

    def test_relay_rescues_first_leg_failures(self, hard_problem):
        rng = np.random.default_rng(6)
        errors = hard_problem.sample_errors(150, rng)
        syndromes = hard_problem.syndromes(errors)
        first_only = RelayBP(
            hard_problem, leg_iters=40, num_legs=0, seed=2
        ).decode_many(syndromes)
        chained = RelayBP(
            hard_problem, leg_iters=40, num_legs=4, seed=2
        ).decode_many(syndromes)
        conv0 = sum(r.converged for r in first_only)
        conv4 = sum(r.converged for r in chained)
        assert conv4 > conv0

    def test_sequential_latency_accounting(self, hard_problem):
        """Relay legs are serial: parallel latency equals serial."""
        rng = np.random.default_rng(7)
        errors = hard_problem.sample_errors(60, rng)
        syndromes = hard_problem.syndromes(errors)
        dec = RelayBP(hard_problem, leg_iters=30, num_legs=3, seed=3)
        for res in dec.decode_many(syndromes):
            assert res.parallel_iterations == res.iterations
            assert res.iterations >= res.initial_iterations

    def test_stop_after_collects_multiple_solutions(self, hard_problem):
        rng = np.random.default_rng(8)
        errors = hard_problem.sample_errors(100, rng)
        syndromes = hard_problem.syndromes(errors)
        dec = RelayBP(
            hard_problem, leg_iters=30, num_legs=5, stop_after=2, seed=4
        )
        results = dec.decode_many(syndromes)
        # At least one shot should have kept going past its first
        # solution (trials_attempted counts collected solutions).
        assert any(r.trials_attempted >= 2 for r in results)

    def test_parameter_validation(self, problem):
        with pytest.raises(ValueError):
            RelayBP(problem, num_legs=-1)
        with pytest.raises(ValueError):
            RelayBP(problem, stop_after=0)

    def test_run_ler_integration(self, problem):
        rng = np.random.default_rng(9)
        dec = RelayBP(problem, leg_iters=25, num_legs=2, seed=5)
        mc = run_ler(problem, dec, shots=64, rng=rng)
        assert mc.shots == 64
        assert 0.0 <= mc.ler <= 1.0
