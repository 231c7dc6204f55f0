"""Kernel-backend throughput comparison across every registered backend.

The measurement core behind ``benchmarks/test_kernel_backends.py`` and
the fast-gate smoke test: decode identical syndrome batches with every
*available* BP kernel backend (``reference`` and ``fused`` always;
``native`` wherever its C kernel builds) and report wall-clock,
shots/s and BP-iterations/s per backend, per workload.  ``native``
runs at the default thread budget of 1; a ``native_2_threads`` row
repeats it with a 2-thread grant (capped at the usable CPUs), recording
thread scaling without gating on it, since scaling depends on the host.
For plain BP both native rows also record µs per row-iteration (the
paper's per-iteration unit) over all ``repeats`` timings: min, median
and spread (max - min):

* ``coprime_154_code_capacity`` — the paper's oscillation-heavy code
  under code capacity, decoded by plain min-sum BP.  This workload is
  *BP-dominated* (no post-processing), so its ``bp.speedup`` is the
  acceptance number for the fused kernel.
* ``bb_144_circuit`` — the BB-144 circuit-level DEM (mixed node
  degrees, so the fused kernel's reduceat fallback), decoded by plain
  BP and by the full BP-SF pipeline.
* ``bb_144_circuit_r12`` — the same code over 12 rounds (Fig. 7's
  34,776-edge graph, too large for the cache), plain BP only, on a
  small batch.

Parity is recorded alongside throughput so a silent numeric drift
fails the benchmark rather than skewing LER tables: every backend must
match the reference bit-for-bit on integer outputs (``bit_identical``:
errors + converged + iterations).

Timing excludes one-off set-up: every backend's first (untimed) decode
in ``_time_decode`` allocates its workspaces before the stopwatch runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.circuits import circuit_level_problem
from repro.codes import get_code
from repro.decoders import BPSFDecoder, MinSumBP
from repro.decoders.kernels import (
    available_backends,
    usable_cpus,
    use_threads,
)
from repro.noise import code_capacity_problem

__all__ = ["BACKENDS", "kernel_backend_report"]

# Every backend usable in this environment (probes optional backends
# such as native at import, which may compile its C kernel).  "reference" is the comparison baseline.
BACKENDS = available_backends()


def _time_decode(make_decoder, syndromes, repeats):
    """Wall times of ``repeats`` decode_many calls, and the fastest's result.

    Every repeat uses a *fresh* decoder instance: sampling decoders
    (BP-SF's trial generation) advance their RNG per decode, so reusing
    one instance would time a different trial workload on every repeat
    — and a different workload per backend.  Construction is cheap (the
    Tanner index arrays are shared), and it keeps the best-of wall time
    and the returned result describing the same decode.

    The untimed warm-up decode also absorbs one-off costs outside the
    measurement's scope (first-touch workspace allocation).
    """
    make_decoder().decode_many(syndromes[: min(8, syndromes.shape[0])])
    times = []
    result = None
    for _ in range(repeats):
        decoder = make_decoder()
        start = time.perf_counter()
        attempt = decoder.decode_many(syndromes)
        times.append(time.perf_counter() - start)
        if times[-1] == min(times):
            result = attempt
    return times, result


def _compare_backends(make_decoder, syndromes, repeats, *, row_iters=False):
    """Per-backend timings + cross-backend parity for one decoder family.

    With ``row_iters`` (plain BP, where the iteration counts are the
    row-iterations run) the native rows also record µs per
    row-iteration over every repeat.
    """
    entry = {}
    results = {}

    def measure(row, backend):
        times, result = _time_decode(
            lambda: make_decoder(backend), syndromes, repeats
        )
        seconds = min(times)
        shots = syndromes.shape[0]
        iters = int(result.iterations.sum())
        results[row] = result
        entry[row] = {
            "seconds": round(seconds, 4),
            "shots_per_second": round(shots / seconds, 2),
            "iters_per_second": round(iters / seconds, 1),
        }
        if row_iters and backend == "native":
            per = np.array(times) * 1e6 / iters
            entry[row]["us_per_row_iter"] = {
                "k": len(times),
                "min": round(float(per.min()), 3),
                "median": round(float(np.median(per)), 3),
                "spread": round(float(per.max() - per.min()), 3),
            }

    for backend in BACKENDS:
        measure(backend, backend)
    ref = results["reference"]
    entry["speedup"] = round(
        entry["reference"]["seconds"] / entry["fused"]["seconds"], 3
    )
    if "native" in results:
        entry["native_vs_fused_speedup"] = round(
            entry["fused"]["seconds"] / entry["native"]["seconds"], 3
        )
        with use_threads(2) as granted:
            measure("native_2_threads", "native")
        entry["native_2_threads"]["threads"] = granted
        entry["native_thread_scaling"] = round(
            entry["native"]["seconds"]
            / entry["native_2_threads"]["seconds"], 3
        )
    entry["bit_identical"] = all(
        np.array_equal(ref.errors, out.errors)
        and np.array_equal(ref.converged, out.converged)
        and np.array_equal(ref.iterations, out.iterations)
        for out in results.values()
    )
    return entry


def kernel_backend_report(
    *,
    coprime_shots: int = 512,
    bb_shots: int = 128,
    bb_r12_shots: int = 16,
    repeats: int = 3,
) -> dict:
    """Measure every registered backend's throughput on the bench codes."""
    payload = {
        "cores": usable_cpus(),
        "strict": os.environ.get("REPRO_BENCH_STRICT", "1") != "0",
        "backends": list(BACKENDS),
        "workloads": {},
    }

    # Coprime-BB [[154,6,16]] code capacity: uniform node degrees, the
    # fused kernel's strided fast path; plain BP only (BP-dominated).
    cop = code_capacity_problem(get_code("coprime_154_6_16"), 0.08)
    rng = np.random.default_rng(29)
    cop_synd = cop.syndromes(cop.sample_errors(coprime_shots, rng))
    payload["workloads"]["coprime_154_code_capacity"] = {
        "problem": cop.name,
        "shots": int(cop_synd.shape[0]),
        "bp": _compare_backends(
            lambda backend: MinSumBP(cop, max_iter=50, backend=backend),
            cop_synd, repeats, row_iters=True,
        ),
        "bpsf": _compare_backends(
            lambda backend: BPSFDecoder(
                cop, max_iter=50, phi=8, w_max=1, strategy="exhaustive",
                backend=backend,
            ),
            cop_synd, repeats,
        ),
    }

    # BB [[144,12,12]] circuit level (2 rounds): mixed degrees, the
    # reduceat fallback, with the full BP-SF pipeline on top.
    bb = circuit_level_problem("bb_144_12_12", 5e-3, rounds=2)
    rng = np.random.default_rng(31)
    bb_synd = bb.syndromes(bb.sample_errors(bb_shots, rng))
    payload["workloads"]["bb_144_circuit"] = {
        "problem": bb.name,
        "shots": int(bb_synd.shape[0]),
        "bp": _compare_backends(
            lambda backend: MinSumBP(bb, max_iter=100, backend=backend),
            bb_synd, repeats, row_iters=True,
        ),
        "bpsf": _compare_backends(
            lambda backend: BPSFDecoder(
                bb, max_iter=100, phi=50, w_max=6, n_s=5,
                strategy="sampled", seed=1, backend=backend,
            ),
            bb_synd, repeats,
        ),
    }

    # The same code over 12 rounds: Fig. 7's largest graph, whose
    # messages no longer fit in the cache; plain BP on a small batch.
    bb12 = circuit_level_problem("bb_144_12_12", 3e-3, rounds=12)
    rng = np.random.default_rng(37)
    bb12_synd = bb12.syndromes(bb12.sample_errors(bb_r12_shots, rng))
    payload["workloads"]["bb_144_circuit_r12"] = {
        "problem": bb12.name,
        "shots": int(bb12_synd.shape[0]),
        "bp": _compare_backends(
            lambda backend: MinSumBP(bb12, max_iter=100, backend=backend),
            bb12_synd, repeats, row_iters=True,
        ),
    }
    return payload
