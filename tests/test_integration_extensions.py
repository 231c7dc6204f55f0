"""End-to-end integration of the extension systems.

Exercises the full pipeline — circuit-level DEM -> related-work
decoders -> hardware latency model -> streaming queue — the way the
extension experiments (``ext_*``) wire it together, but at unit-test
scale.
"""

import numpy as np
import pytest

from repro.analysis.hardware import HardwareLatencyModel
from repro.analysis.trapping_sets import oscillation_clusters
from repro.circuits import circuit_level_problem
from repro.decoders import (
    BPSFDecoder,
    GDGDecoder,
    MinSumBP,
    PosteriorFlipDecoder,
    RelayBP,
)
from repro.sim import run_ler, simulate_stream

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def circuit_problem():
    """A small circuit-level DEM ([[72,12,6]], 3 rounds)."""
    return circuit_level_problem("bb_72_12_6", 3e-3, rounds=3)


class TestRelatedWorkDecodersOnCircuitNoise:
    """The new decoder families must handle hyperedge DEMs, not just
    code-capacity matrices."""

    def test_relay_bp_on_dem(self, circuit_problem):
        rng = np.random.default_rng(31)
        decoder = RelayBP(
            circuit_problem, leg_iters=40, num_legs=2, seed=0
        )
        mc = run_ler(circuit_problem, decoder, shots=48, rng=rng)
        assert mc.shots == 48
        assert mc.unconverged <= mc.shots // 4

    def test_gdg_on_dem(self, circuit_problem):
        rng = np.random.default_rng(32)
        decoder = GDGDecoder(
            circuit_problem, max_iter=40, max_depth=2, beam_width=4
        )
        mc = run_ler(circuit_problem, decoder, shots=48, rng=rng)
        assert mc.shots == 48

    def test_posterior_flip_on_dem(self, circuit_problem):
        rng = np.random.default_rng(33)
        decoder = PosteriorFlipDecoder(
            circuit_problem, max_iter=40, phi=20, w_max=2, n_s=5,
            strategy="sampled", mode="erase", seed=1,
        )
        mc = run_ler(circuit_problem, decoder, shots=48, rng=rng)
        assert mc.shots == 48


class TestHardwarePipeline:
    def test_decode_trace_to_realtime_report(self, circuit_problem):
        rng = np.random.default_rng(34)
        decoder = BPSFDecoder(
            circuit_problem, max_iter=60, phi=30, w_max=4, n_s=5,
            strategy="sampled", seed=2,
        )
        errors = circuit_problem.sample_errors(40, rng)
        results = decoder.decode_many(circuit_problem.syndromes(errors))
        report = HardwareLatencyModel().real_time_report(
            results, rounds=circuit_problem.rounds
        )
        # 3 rounds -> 3 us budget; BP-SF at 20 ns/iter with <= 120
        # parallel iterations fits comfortably.
        assert report.budget_us == pytest.approx(3.0)
        assert report.mean_latency_us < report.budget_us

    def test_trace_to_streaming_queue(self, circuit_problem):
        rng = np.random.default_rng(35)
        decoder = BPSFDecoder(
            circuit_problem, max_iter=60, phi=30, w_max=4, n_s=5,
            strategy="sampled", seed=3,
        )
        hardware = HardwareLatencyModel()
        errors = circuit_problem.sample_errors(40, rng)
        results = decoder.decode_many(circuit_problem.syndromes(errors))
        service = hardware.latencies_us(results, parallel=True)
        report = simulate_stream(
            service, hardware.syndrome_budget_us(circuit_problem.rounds)
        )
        assert report.stable
        assert report.n_tasks == 40


class TestOscillationToTrappingSets:
    def test_failed_dem_decodes_yield_clusters(self, circuit_problem):
        """Flip counters from circuit-noise BP failures feed the
        trapping-set clustering unchanged."""
        rng = np.random.default_rng(36)
        bp = MinSumBP(
            circuit_problem, max_iter=12, track_oscillations=True
        )
        # High enough shot count to see at least one failure at a
        # 12-iteration budget.
        errors = circuit_problem.sample_errors(200, rng)
        batch = bp.decode_many(circuit_problem.syndromes(errors))
        failures = np.nonzero(~batch.converged)[0]
        if failures.size == 0:
            pytest.skip("no BP failures sampled at this budget")
        clusters = oscillation_clusters(
            circuit_problem.check_matrix,
            batch.flip_counts[failures[0]],
            phi=20,
        )
        for cluster in clusters:
            assert cluster.a >= 1
            assert 0 <= cluster.b <= cluster.a * 12
