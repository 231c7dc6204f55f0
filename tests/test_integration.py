"""End-to-end integration tests across the whole stack.

These exercise the exact pipelines the paper's evaluation uses: code
construction -> (channel | circuit) -> decoding problem -> decoder ->
Monte-Carlo verdicts, including the headline BP-SF-vs-baselines
comparisons at test scale.
"""

import numpy as np
import pytest

from repro import (
    BPOSDDecoder,
    BPSFDecoder,
    MinSumBP,
    circuit_level_problem,
    code_capacity_problem,
    get_code,
    run_ler,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def bb72_circuit():
    return circuit_level_problem("bb_72_12_6", 3e-3)


class TestCircuitLevelEndToEnd:
    def test_bp_sf_rescues_bp_failures(self, bb72_circuit, rng):
        problem = bb72_circuit
        errors = problem.sample_errors(150, rng)
        syndromes = problem.syndromes(errors)
        bp = MinSumBP(problem, max_iter=50)
        plain = bp.decode_many(syndromes)
        dec = BPSFDecoder(problem, max_iter=50, phi=20, w_max=4, n_s=5)
        results = dec.decode_many(syndromes)
        converged_sf = sum(r.converged for r in results)
        assert converged_sf >= plain.converged.sum()
        for i, r in enumerate(results):
            if r.converged:
                assert np.array_equal(
                    problem.syndromes(r.error), syndromes[i]
                )

    def test_bpsf_ler_comparable_to_bposd(self, bb72_circuit, rng):
        """Fig. 17c's claim at test scale: the two overlap."""
        problem = bb72_circuit
        errors = problem.sample_errors(200, rng)
        syndromes = problem.syndromes(errors)
        sf = BPSFDecoder(problem, max_iter=50, phi=20, w_max=4, n_s=5)
        osd = BPOSDDecoder(problem, max_iter=50, osd_order=10)
        est_sf = np.stack([r.error for r in sf.decode_many(syndromes)])
        est_osd = np.stack([r.error for r in osd.decode_many(syndromes)])
        ler_sf = problem.is_failure(errors, est_sf).mean()
        ler_osd = problem.is_failure(errors, est_osd).mean()
        # Allow generous Monte-Carlo slack at 200 shots.
        assert abs(ler_sf - ler_osd) <= 0.05

    def test_x_basis_pipeline(self, rng):
        problem = circuit_level_problem("bb_72_12_6", 3e-3, basis="x")
        decoder = MinSumBP(problem, max_iter=50)
        result = run_ler(problem, decoder, 50, rng)
        assert result.shots == 50
        assert 0.0 <= result.ler <= 1.0

    def test_round_scaling_changes_problem(self):
        short = circuit_level_problem("bb_72_12_6", 3e-3, rounds=2)
        longer = circuit_level_problem("bb_72_12_6", 3e-3, rounds=4)
        assert longer.n_checks > short.n_checks
        assert longer.n_mechanisms > short.n_mechanisms


class TestDeterminism:
    def test_same_seed_same_verdicts(self):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.06)
        decoder = BPSFDecoder(problem, max_iter=20, phi=8, w_max=1,
                              strategy="exhaustive", seed=5)
        a = run_ler(problem, decoder, 80, np.random.default_rng(42))
        decoder_b = BPSFDecoder(problem, max_iter=20, phi=8, w_max=1,
                                strategy="exhaustive", seed=5)
        b = run_ler(problem, decoder_b, 80, np.random.default_rng(42))
        assert a.failures == b.failures
        assert np.array_equal(a.iterations, b.iterations)


class TestAllPaperCodesDecode:
    """Every code in the paper's evaluation decodes through BP-SF."""

    @pytest.mark.parametrize("name", [
        "bb_72_12_6", "bb_144_12_12", "bb_288_12_18",
        "coprime_126_12_10", "coprime_154_6_16", "gb_254_28",
        "shyps_225_16_8",
    ])
    def test_code_capacity_pipeline(self, name, rng):
        code = get_code(name)
        problem = code_capacity_problem(code, 0.02)
        decoder = BPSFDecoder(problem, max_iter=30, phi=8, w_max=1,
                              strategy="exhaustive")
        result = run_ler(problem, decoder, 40, rng)
        assert result.shots == 40
        # At p=0.02 these codes decode almost everything.
        assert result.unconverged <= 4
