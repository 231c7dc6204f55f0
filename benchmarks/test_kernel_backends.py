"""Kernel-backend throughput: every registered backend, per workload.

Runs :func:`repro.bench.kernel_backends.kernel_backend_report` at
benchmark scale, prints the comparison table, asserts cross-backend
parity on integer outputs, and records everything in
``BENCH_kernels.json`` at the repository root so later PRs (and the
eventual GPU kernel) can track the throughput trajectory.  The backend
list is dynamic: ``reference`` and ``fused`` always, ``native``
wherever its C kernel builds (the build happens when the backend list
is probed, before any timing).

Two perf-optimisation acceptance gates live here, both on the
BP-dominated ``coprime_154_code_capacity`` workload:

* the fused kernel must reach **>= 1.5x BP-iteration throughput** over
  the reference;
* the native C kernel, when it builds, must reach **>= 1.5x** over the
  fused kernel (its multi-iteration fusion in compiled code is exactly
  what the compiler dependency buys).

As with the other wall-clock gates, they are enforced only where the
hardware can express them (>= 2 cores and ``REPRO_BENCH_STRICT``
unset/1); the measured ratios are always recorded in the artifact.

The native kernel is also measured with a 2-thread budget (the
``native_2_threads`` rows next to the 1-thread ``native`` rows).  That
scaling is recorded, not gated: it depends on the host.  So are the
native rows' µs per row-iteration on plain BP (min, median and spread
over the repeats) and the plain-BP-only ``bb_144_circuit_r12`` workload
(Fig. 7's largest graph).
"""

import json
import os

import pytest

from repro.bench.kernel_backends import BACKENDS, kernel_backend_report
from repro.bench.tables import ExperimentTable

_ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_kernels.json",
)


def _decoders(data):
    """The decoder families measured on one workload."""
    return [decoder for decoder in ("bp", "bpsf") if decoder in data]


@pytest.fixture(scope="module")
def report():
    payload = kernel_backend_report()
    with open(_ARTIFACT, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return payload


def test_backend_table(report):
    table = ExperimentTable(
        experiment_id="kernel_backends",
        title="BP kernel backends: throughput vs reference",
        columns=["workload", "decoder", "backend", "shots/s",
                 "BP-iters/s", "speedup", "us/row-iter (min, median)"],
    )
    for workload, data in report["workloads"].items():
        for decoder in _decoders(data):
            ref_seconds = data[decoder]["reference"]["seconds"]
            rows = [(backend, backend) for backend in BACKENDS]
            if "native_2_threads" in data[decoder]:
                threads = data[decoder]["native_2_threads"]["threads"]
                rows.append(
                    ("native_2_threads", f"native ({threads} threads)")
                )
            for row, label in rows:
                entry = data[decoder][row]
                per = entry.get("us_per_row_iter")
                table.add_row(
                    workload, decoder, label,
                    entry["shots_per_second"], entry["iters_per_second"],
                    round(ref_seconds / entry["seconds"], 3),
                    f"{per['min']}, {per['median']}" if per else "",
                )
    table.notes.append(
        f"{report['cores']} cores visible; artifact saved to "
        "BENCH_kernels.json"
    )
    print()
    print(table.render())
    table.save()
    assert table.rows


def test_backends_bit_identical(report):
    """The correctness half of the gate — enforced on every machine.

    Every backend must match the reference bit-for-bit.
    """
    for workload, data in report["workloads"].items():
        for decoder in _decoders(data):
            assert data[decoder]["bit_identical"], (
                f"{workload}/{decoder}: a backend's integer outputs "
                "diverged from reference"
            )


def test_fused_meets_throughput_bar(report):
    """>= 1.5x BP-iteration throughput on the BP-dominated workload.

    The measured ratio is always recorded in the artifact; the hard
    gate needs >= 2 cores and strict mode (``REPRO_BENCH_STRICT`` not
    ``0``) — single-core shared runners jitter too much for a
    wall-clock assertion.
    """
    speedup = report["workloads"]["coprime_154_code_capacity"]["bp"][
        "speedup"
    ]
    if report["cores"] < 2:
        pytest.skip(
            f"only {report['cores']} core(s) visible; measured "
            f"{speedup}x (recorded in artifact)"
        )
    if not report["strict"]:
        pytest.skip(
            f"non-strict mode: measured {speedup}x (recorded in artifact)"
        )
    assert speedup >= 1.5, (
        f"fused kernel only {speedup}x over reference on the "
        "BP-dominated workload"
    )


def test_native_meets_throughput_bar(report):
    """Native >= 1.5x over fused on the BP-dominated workload.

    Recorded always when the C kernel builds (the build is excluded
    from timing); the hard gate additionally needs >= 2 cores and
    strict mode, like the other wall-clock gates.
    """
    if "native" not in report["backends"]:
        pytest.skip("native backend did not build; nothing to gate")
    speedup = report["workloads"]["coprime_154_code_capacity"]["bp"][
        "native_vs_fused_speedup"
    ]
    if report["cores"] < 2:
        pytest.skip(
            f"only {report['cores']} core(s) visible; measured "
            f"{speedup}x (recorded in artifact)"
        )
    if not report["strict"]:
        pytest.skip(
            f"non-strict mode: measured {speedup}x (recorded in artifact)"
        )
    assert speedup >= 1.5, (
        f"native kernel only {speedup}x over fused on the "
        "BP-dominated workload"
    )


def test_artifact_written(report):
    with open(_ARTIFACT) as handle:
        data = json.load(handle)
    assert set(data["workloads"]) == {
        "coprime_154_code_capacity", "bb_144_circuit", "bb_144_circuit_r12"
    }
    assert {"reference", "fused"} <= set(data["backends"])
    for workload in data["workloads"].values():
        for decoder in _decoders(workload):
            for backend in data["backends"]:
                assert workload[decoder][backend]["shots_per_second"] > 0
            if "native" in data["backends"]:
                scaled = workload[decoder]["native_2_threads"]
                assert scaled["shots_per_second"] > 0
                assert 1 <= scaled["threads"] <= 2
                assert workload[decoder]["native_thread_scaling"] > 0
                if decoder == "bp":
                    for row in ("native", "native_2_threads"):
                        per = workload[decoder][row]["us_per_row_iter"]
                        assert 0 < per["min"] <= per["median"]
                        assert per["spread"] >= 0 and per["k"] >= 1
