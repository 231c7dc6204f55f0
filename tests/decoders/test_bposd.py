"""Tests for the BP-OSD baseline decoder."""

import numpy as np
import pytest

from repro.codes import get_code, surface_code
from repro.decoders import BPOSDDecoder, MinSumBP
from repro.noise import code_capacity_problem


class TestStages:
    def test_easy_syndrome_stays_in_bp(self):
        problem = code_capacity_problem(surface_code(3), 0.05)
        dec = BPOSDDecoder(problem, max_iter=30, osd_order=4)
        error = np.zeros(problem.n_mechanisms, dtype=np.uint8)
        error[2] = 1
        result = dec.decode(problem.syndromes(error))
        assert result.converged
        assert result.stage == "initial"

    def test_osd_invoked_on_bp_failure(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.06)
        dec = BPOSDDecoder(problem, max_iter=6, osd_order=4)
        errors = problem.sample_errors(40, rng)
        syndromes = problem.syndromes(errors)
        results = dec.decode_many(syndromes)
        stages = {r.stage for r in results}
        assert "post" in stages
        for r in results:
            assert r.converged  # OSD always satisfies a feasible syndrome

    def test_all_results_satisfy_syndrome(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.06)
        dec = BPOSDDecoder(problem, max_iter=6, osd_order=4)
        errors = problem.sample_errors(25, rng)
        syndromes = problem.syndromes(errors)
        for i, r in enumerate(dec.decode_many(syndromes)):
            assert np.array_equal(problem.syndromes(r.error), syndromes[i])


class TestQuality:
    def test_bposd_ler_not_worse_than_bp(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.05)
        errors = problem.sample_errors(120, rng)
        syndromes = problem.syndromes(errors)
        bp = MinSumBP(problem, max_iter=25).decode_many(syndromes)
        ler_bp = problem.is_failure(errors, bp.errors).mean()
        dec = BPOSDDecoder(problem, max_iter=25, osd_order=6)
        est = np.array([r.error for r in dec.decode_many(syndromes)])
        ler_osd = problem.is_failure(errors, est).mean()
        assert ler_osd <= ler_bp + 1e-9

    def test_single_decode_matches_batch(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.05)
        dec = BPOSDDecoder(problem, max_iter=10, osd_order=4)
        errors = problem.sample_errors(6, rng)
        syndromes = problem.syndromes(errors)
        singles = [dec.decode(s) for s in syndromes]
        batched = dec.decode_many(syndromes)
        for s, b in zip(singles, batched):
            assert s.stage == b.stage
            assert np.array_equal(s.error, b.error)


class TestConfiguration:
    def test_name_reflects_settings(self):
        problem = code_capacity_problem(surface_code(3), 0.05)
        dec = BPOSDDecoder(problem, max_iter=1000, osd_order=10)
        assert dec.name == "BP1000-OSD10"

    def test_osd0_label(self):
        problem = code_capacity_problem(surface_code(3), 0.05)
        dec = BPOSDDecoder(problem, max_iter=1000, osd_order=0,
                           osd_method="0")
        assert dec.name == "BP1000-OSD0"

    def test_layered_variant_constructs(self):
        problem = code_capacity_problem(surface_code(3), 0.05)
        dec = BPOSDDecoder(problem, max_iter=10, osd_order=2, layered=True)
        error = np.zeros(problem.n_mechanisms, dtype=np.uint8)
        error[1] = 1
        result = dec.decode(problem.syndromes(error))
        assert result.converged
