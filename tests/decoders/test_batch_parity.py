"""Batch/serial parity: ``decode_many`` must equal a loop of ``decode``.

The batch-native pipeline (array-first ``BatchDecodeResult``, cross-shot
trial pooling in BP-SF) is a pure execution-layer optimisation — it must
be invisible in the results.  For every decoder in the registry these
tests decode the same syndromes twice, once through ``decode_many`` and
once shot-by-shot through ``decode`` on a freshly built (identically
seeded) instance, and require the full accounting to match: errors,
convergence, serial/parallel/initial iterations, stage, trial counts and
winning trials.
"""

import numpy as np
import pytest

from repro.codes import get_code
from repro.decoders import BPSFDecoder, BatchDecodeResult, DECODER_REGISTRY
from repro.noise import code_capacity_problem

# Oscillation-heavy operating point: small budgets at high p so a
# meaningful fraction of shots fails initial BP and every post-
# processing path (trial pooling included) is exercised.
_P = 0.12
_SHOTS = 24


@pytest.fixture(scope="module")
def problem():
    return code_capacity_problem(get_code("coprime_154_6_16"), _P)


@pytest.fixture(scope="module")
def syndromes(problem):
    rng = np.random.default_rng(20260729)
    return problem.syndromes(problem.sample_errors(_SHOTS, rng))


def _assert_parity(batch: BatchDecodeResult, singles, name: str):
    assert len(batch) == len(singles)
    np.testing.assert_array_equal(
        batch.errors, np.stack([r.error for r in singles]), err_msg=name
    )
    np.testing.assert_array_equal(
        batch.converged, [r.converged for r in singles], err_msg=name
    )
    np.testing.assert_array_equal(
        batch.iterations, [r.iterations for r in singles], err_msg=name
    )
    np.testing.assert_array_equal(
        batch.parallel_iterations,
        [r.parallel_iterations for r in singles],
        err_msg=name,
    )
    np.testing.assert_array_equal(
        batch.initial_iterations,
        [r.initial_iterations for r in singles],
        err_msg=name,
    )
    np.testing.assert_array_equal(
        batch.stage, [r.stage for r in singles], err_msg=name
    )
    np.testing.assert_array_equal(
        batch.trials_attempted,
        [r.trials_attempted for r in singles],
        err_msg=name,
    )
    np.testing.assert_array_equal(
        batch.winning_trial,
        [-1 if r.winning_trial is None else r.winning_trial
         for r in singles],
        err_msg=name,
    )


@pytest.mark.parametrize("name", sorted(DECODER_REGISTRY))
def test_decode_many_matches_serial_loop(name, problem, syndromes):
    # Two fresh instances: sampling decoders consume their RNG in shot
    # order on both paths, so identical seeds give identical trials.
    batch = DECODER_REGISTRY[name](problem).decode_many(syndromes)
    serial = DECODER_REGISTRY[name](problem)
    singles = [serial.decode(s) for s in syndromes]
    _assert_parity(batch, singles, name)


class TestPooledTrialPath:
    """The tentpole invariant: BP-SF pools trials across failed shots."""

    def _decoder_and_counter(self, problem):
        decoder = BPSFDecoder(
            problem, max_iter=6, phi=8, w_max=2, strategy="exhaustive"
        )
        calls: list[int] = []
        inner = decoder.bp_trial.decode_many

        def counting(synd, **kwargs):
            calls.append(synd.shape[0])
            return inner(synd, **kwargs)

        decoder.bp_trial.decode_many = counting
        return decoder, calls

    def test_exactly_one_trial_call_per_batch(self, problem, syndromes):
        decoder, calls = self._decoder_and_counter(problem)
        batch = decoder.decode_many(syndromes)
        failing = int((batch.stage != "initial").sum())
        assert failing >= 2, "operating point must produce several failures"
        assert len(calls) == 1, (
            f"expected one pooled trial-BP call, saw {len(calls)} "
            f"for {failing} failing shots"
        )
        # The pooled call covers every failed shot's trials at once.
        assert calls[0] == int(batch.trials_attempted.sum())

    def test_no_trial_call_when_all_converge(self, problem):
        decoder, calls = self._decoder_and_counter(problem)
        # All-zero syndromes are satisfied by the all-zero error, so
        # every shot converges in the initial stage by construction.
        syndromes = np.zeros((8, problem.n_checks), dtype=np.uint8)
        batch = decoder.decode_many(syndromes)
        assert batch.n_unconverged == 0 and batch.n_post == 0
        assert calls == []

    def test_pooled_parity_with_multiple_failing_shots(self, problem,
                                                       syndromes):
        pooled = BPSFDecoder(
            problem, max_iter=6, phi=8, w_max=2, strategy="exhaustive"
        )
        batch = pooled.decode_many(syndromes)
        assert (batch.stage != "initial").sum() >= 2
        serial = BPSFDecoder(
            problem, max_iter=6, phi=8, w_max=2, strategy="exhaustive"
        )
        _assert_parity(batch, [serial.decode(s) for s in syndromes],
                       "bpsf-pooled")

    def test_sampled_strategy_rng_parity(self, problem, syndromes):
        """RNG consumption order (shot order) matches across paths."""
        pooled = BPSFDecoder(problem, max_iter=6, phi=10, w_max=2, n_s=4,
                             strategy="sampled", seed=17)
        serial = BPSFDecoder(problem, max_iter=6, phi=10, w_max=2, n_s=4,
                             strategy="sampled", seed=17)
        batch = pooled.decode_many(syndromes)
        _assert_parity(batch, [serial.decode(s) for s in syndromes],
                       "bpsf-sampled")


class TestParallelSelection:
    """The ``selection="parallel"`` mode: first success in time wins and
    a shot's remaining pooled trials retire at that instant."""

    def _pair(self, problem, **kw):
        base = dict(max_iter=6, phi=8, w_max=2, strategy="exhaustive",
                    selection="parallel")
        base.update(kw)
        return (BPSFDecoder(problem, **base), BPSFDecoder(problem, **base))

    def test_parallel_decode_matches_decode_many(self, problem, syndromes):
        pooled, serial = self._pair(problem)
        batch = pooled.decode_many(syndromes)
        _assert_parity(batch, [serial.decode(s) for s in syndromes],
                       "bpsf-parallel")

    def test_parallel_results_satisfy_syndrome(self, problem, syndromes):
        pooled, _ = self._pair(problem)
        batch = pooled.decode_many(syndromes)
        assert batch.n_post >= 1
        got = problem.syndromes(batch.errors[batch.converged])
        np.testing.assert_array_equal(got, syndromes[batch.converged])

    def test_parallel_latency_never_worse_than_serial(self, problem,
                                                      syndromes):
        pooled, _ = self._pair(problem)
        par = pooled.decode_many(syndromes)
        ser = BPSFDecoder(problem, max_iter=6, phi=8, w_max=2,
                          strategy="exhaustive").decode_many(syndromes)
        # Fastest-wins can only lower the fully-parallel latency.
        assert (par.parallel_iterations <= ser.parallel_iterations).all()
        assert (par.parallel_iterations <= par.iterations).all()

    def test_unknown_selection_rejected(self, problem):
        with pytest.raises(ValueError):
            BPSFDecoder(problem, selection="quantum")


class TestMultiChunkParity:
    """Chunking in ``MinSumBP.decode_many`` must be invisible: with a
    batch spread over many chunks (small ``batch_size``) and long
    trajectories (``max_iter`` 40, some shots running past 16
    iterations), every column must match the single-shot loop."""

    def _columns(self, batch):
        return (batch.errors, batch.converged, batch.iterations,
                batch.parallel_iterations, batch.initial_iterations,
                batch.stage, batch.marginals)

    def test_plain_bp_long_trajectory_columns_match_serial(
        self, problem, syndromes
    ):
        from repro.decoders import MinSumBP

        bp = MinSumBP(problem, max_iter=40, batch_size=4)
        batch = bp.decode_many(syndromes)
        singles = [bp.decode(s) for s in syndromes]
        assert int(batch.iterations.max()) > 16, (
            "operating point must produce trajectories past 16 iterations"
        )
        np.testing.assert_array_equal(
            batch.errors, np.stack([r.error for r in singles])
        )
        np.testing.assert_array_equal(
            batch.converged, [r.converged for r in singles]
        )
        np.testing.assert_array_equal(
            batch.iterations, [r.iterations for r in singles]
        )
        np.testing.assert_array_equal(
            batch.parallel_iterations,
            [r.parallel_iterations for r in singles],
        )
        np.testing.assert_array_equal(
            batch.initial_iterations,
            [r.initial_iterations for r in singles],
        )
        np.testing.assert_array_equal(
            batch.stage, [r.stage for r in singles]
        )
        np.testing.assert_array_equal(
            batch.marginals, np.stack([r.marginals for r in singles])
        )

    def test_bpsf_parallel_multi_chunk_parity(self, problem, syndromes):
        kw = dict(max_iter=40, phi=8, w_max=2, strategy="exhaustive",
                  selection="parallel", bp_kwargs=dict(batch_size=4))
        batch = BPSFDecoder(problem, **kw).decode_many(syndromes)
        serial = BPSFDecoder(problem, **kw)
        _assert_parity(batch, [serial.decode(s) for s in syndromes],
                       "bpsf-multi-chunk")


class TestGroupEarlyStop:
    """The ``stop_groups`` primitive of ``MinSumBP.decode_many``."""

    def test_first_success_retires_group(self, problem, syndromes):
        from repro.decoders import MinSumBP

        bp = MinSumBP(problem, max_iter=40)
        plain = bp.decode_many(syndromes)
        grouped = bp.decode_many(
            syndromes, stop_groups=np.zeros(len(syndromes), dtype=int)
        )
        if plain.converged.any():
            t_first = int(plain.iterations[plain.converged].min())
            # Exactly the fastest rows converge; the rest stop at that
            # iteration (one lockstep group).
            assert grouped.converged.any()
            assert int(
                grouped.iterations[grouped.converged].min()
            ) == t_first
            assert (grouped.iterations <= t_first).all()

    def test_groups_are_independent(self, problem, syndromes):
        from repro.decoders import MinSumBP

        bp = MinSumBP(problem, max_iter=40)
        groups = np.arange(len(syndromes))  # singleton groups: no stops
        grouped = bp.decode_many(syndromes, stop_groups=groups)
        plain = bp.decode_many(syndromes)
        np.testing.assert_array_equal(grouped.errors, plain.errors)
        np.testing.assert_array_equal(grouped.converged, plain.converged)
        np.testing.assert_array_equal(grouped.iterations, plain.iterations)

    def test_group_length_mismatch_rejected(self, problem, syndromes):
        from repro.decoders import MinSumBP

        bp = MinSumBP(problem, max_iter=10)
        with pytest.raises(ValueError):
            bp.decode_many(syndromes, stop_groups=np.zeros(3, dtype=int))


class TestBatchBookkeeping:
    """Converged and no-trial shots of a batch keep the
    marginals/flip_counts/parallel_iterations accounting that the
    single-shot path always carried."""

    def test_all_shots_carry_bp_soft_information(self, problem, syndromes):
        decoder = BPSFDecoder(
            problem, max_iter=6, phi=8, w_max=1, strategy="exhaustive"
        )
        batch = decoder.decode_many(syndromes)
        assert batch.marginals is not None
        assert batch.marginals.shape == (len(batch), problem.n_mechanisms)
        assert batch.flip_counts is not None
        assert batch.flip_counts.shape == (len(batch), problem.n_mechanisms)
        for result in batch:
            assert result.marginals is not None
            assert result.flip_counts is not None
            assert result.parallel_iterations <= result.iterations
            assert result.initial_iterations <= result.iterations

    def test_from_results_round_trip(self, problem, syndromes):
        decoder = BPSFDecoder(
            problem, max_iter=6, phi=8, w_max=1, strategy="exhaustive"
        )
        batch = decoder.decode_many(syndromes)
        rebuilt = BatchDecodeResult.from_results(list(batch))
        _assert_parity(rebuilt, list(batch), "round-trip")
        np.testing.assert_array_equal(batch.time_seconds,
                                      rebuilt.time_seconds)
