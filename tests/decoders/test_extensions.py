"""Tests for the paper's Sec. VII future-work extensions:
sum-product inner decoder, candidate selectors, weighted trial sampling."""

import numpy as np
import pytest

from repro.codes import get_code, repetition_code, surface_code
from repro.decoders import (
    BPSFDecoder,
    MinSumBP,
    SELECTORS,
    SumProductBP,
    get_selector,
    weighted_trials,
)
from repro.noise import code_capacity_problem
from repro.problem import DecodingProblem


class TestSumProductBP:
    def test_single_errors_on_repetition_code(self):
        code = repetition_code(7)
        problem = DecodingProblem(
            check_matrix=code.parity_check,
            priors=np.full(7, 0.05),
            logical_matrix=code.generator,
        )
        dec = SumProductBP(problem, max_iter=20)
        for position in range(7):
            error = np.zeros(7, dtype=np.uint8)
            error[position] = 1
            result = dec.decode(problem.syndromes(error))
            assert result.converged
            assert np.array_equal(result.error, error)

    def test_converged_results_satisfy_syndrome(self, rng):
        problem = code_capacity_problem(surface_code(3), 0.08)
        dec = SumProductBP(problem, max_iter=25)
        errors = problem.sample_errors(20, rng)
        syndromes = problem.syndromes(errors)
        batch = dec.decode_many(syndromes)
        got = problem.syndromes(batch.errors[batch.converged])
        assert np.array_equal(got, syndromes[batch.converged])

    def test_messages_stay_finite(self, rng):
        problem = code_capacity_problem(get_code("bb_72_12_6"), 0.05)
        dec = SumProductBP(problem, max_iter=30)
        syndromes = problem.syndromes(problem.sample_errors(10, rng))
        batch = dec.decode_many(syndromes)
        assert np.isfinite(batch.marginals).all()

    def test_convergence_comparable_to_min_sum(self, rng):
        problem = code_capacity_problem(get_code("bb_72_12_6"), 0.04)
        syndromes = problem.syndromes(problem.sample_errors(60, rng))
        ms = MinSumBP(problem, max_iter=30).decode_many(syndromes)
        sp = SumProductBP(problem, max_iter=30).decode_many(syndromes)
        assert sp.converged.sum() >= ms.converged.sum() - 5

    def test_bpsf_runs_on_sum_product_marginals(self, rng):
        """BP-SF's oscillation machinery composes with the exact rule."""
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.06)
        sp = SumProductBP(problem, max_iter=12, track_oscillations=True)
        dec = BPSFDecoder(problem, max_iter=12, phi=8, w_max=1,
                          strategy="exhaustive")
        dec.bp_initial = sp
        syndromes = problem.syndromes(problem.sample_errors(30, rng))
        for i, result in enumerate(dec.decode_many(syndromes)):
            if result.converged:
                assert np.array_equal(
                    problem.syndromes(result.error), syndromes[i]
                )


class TestSelectors:
    def test_registry_lookup(self):
        assert set(SELECTORS) == {
            "oscillation", "least_reliable", "random", "combined"
        }
        assert get_selector("oscillation") is SELECTORS["oscillation"]
        with pytest.raises(KeyError):
            get_selector("magic")

    def test_all_selectors_return_phi_indices(self, rng):
        flips = rng.integers(0, 10, size=40)
        marginals = rng.normal(size=40)
        for name, selector in SELECTORS.items():
            out = np.asarray(selector(flips, 7, marginals, rng))
            assert out.shape == (7,), name
            assert len(set(out.tolist())) == 7, name
            assert (out >= 0).all() and (out < 40).all(), name

    def test_combined_prefers_oscillating_unreliable_bits(self, rng):
        flips = np.zeros(10, dtype=np.int64)
        marginals = np.full(10, 10.0)
        flips[3] = 9          # strongly oscillating
        marginals[7] = 0.01   # strongly unreliable
        selector = get_selector("combined")
        picked = set(np.asarray(selector(flips, 2, marginals, rng)).tolist())
        assert picked == {3, 7}

    def test_selector_plugs_into_bpsf(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.06)
        dec = BPSFDecoder(
            problem, max_iter=10, phi=8, w_max=1, strategy="exhaustive",
            candidate_selector=get_selector("combined"),
        )
        syndromes = problem.syndromes(problem.sample_errors(25, rng))
        for i, result in enumerate(dec.decode_many(syndromes)):
            if result.converged:
                assert np.array_equal(
                    problem.syndromes(result.error), syndromes[i]
                )


class TestWeightedTrials:
    def test_respects_weights(self, rng):
        candidates = np.arange(10)
        weights = np.zeros(10)
        weights[4] = 100.0
        trials = weighted_trials(candidates, weights, w_max=1, n_s=30,
                                 rng=rng)
        # The dominant candidate must appear among the weight-1 trials.
        assert (4,) in trials

    def test_dedupe_and_weight_range(self, rng):
        trials = weighted_trials(
            np.arange(20), np.arange(20, dtype=float), w_max=3, n_s=10,
            rng=rng,
        )
        assert len(trials) == len(set(trials))
        assert {len(t) for t in trials} <= {1, 2, 3}

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            weighted_trials([0, 1], [1.0], 1, 1, rng)
        with pytest.raises(ValueError):
            weighted_trials([0], [-1.0], 1, 1, rng)
        with pytest.raises(ValueError):
            weighted_trials([0], [1.0], 0, 1, rng)

    def test_weighted_strategy_in_bpsf(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.06)
        dec = BPSFDecoder(problem, max_iter=8, phi=12, w_max=2, n_s=5,
                          strategy="weighted", seed=3)
        syndromes = problem.syndromes(problem.sample_errors(60, rng))
        exercised = False
        for i, result in enumerate(dec.decode_many(syndromes)):
            if result.stage == "post":
                exercised = True
            if result.converged:
                assert np.array_equal(
                    problem.syndromes(result.error), syndromes[i]
                )
        assert exercised
