"""Tiny-shot smoke of the kernel-backend benchmark (fast-gate tier).

``benchmarks/test_kernel_backends.py`` is marked ``slow`` wholesale
with the rest of the benchmark suite; this smoke runs the same
measurement core at a few shots so the fast CI gate still exercises
every registered backend end to end (construction, timing harness,
parity comparison, payload shape) on every push — including native
wherever its C kernel builds.
"""

from repro.bench.kernel_backends import BACKENDS, kernel_backend_report


def test_report_shape_and_parity():
    report = kernel_backend_report(
        coprime_shots=24, bb_shots=8, repeats=1
    )
    assert report["cores"] >= 1
    assert set(report["workloads"]) == {
        "coprime_154_code_capacity", "bb_144_circuit"
    }
    assert report["backends"] == list(BACKENDS)
    assert {"reference", "fused"} <= set(report["backends"])
    for data in report["workloads"].values():
        for decoder in ("bp", "bpsf"):
            entry = data[decoder]
            # Every backend must agree bit-for-bit even at smoke scale.
            assert entry["bit_identical"]
            assert entry["speedup"] > 0
            if "native" in report["backends"]:
                assert entry["native_vs_fused_speedup"] > 0
            for backend in BACKENDS:
                assert entry[backend]["seconds"] > 0
                assert entry[backend]["shots_per_second"] > 0
                assert entry[backend]["iters_per_second"] > 0
