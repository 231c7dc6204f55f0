"""The benchmark's own tests: determinism, the reference guard, schema.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
from pathlib import Path

import pytest

import host
import ler
import run as bench
import serve

WORK_COUNTS = (
    "bp_initial.row_iters", "bp_trial.row_iters", "bpsf.trial_rows",
    "bpsf.post_shots",
)


@pytest.fixture
def one_build(monkeypatch):
    monkeypatch.setattr(ler, "SETUP_ROUNDS", 1)
    monkeypatch.setattr(ler, "MIN_SETUP_S", 0.0)
    monkeypatch.setattr(serve, "N_BUILDS", 1)


@pytest.mark.parametrize("workload", sorted(ler.WORKLOADS))
def test_same_seed_gives_identical_work(workload, one_build):
    workload_ = ler.WORKLOADS[workload]
    seconds = 2 * workload_.shard_shots / workload_.nominal_shots_per_s
    runs = [ler.run(workload, 5, seconds, trace=True) for _ in range(2)]
    for out in runs:
        assert out["correct"]
        assert out["summary"]["bad_decodes"] == 0
        assert out["metrics"]["bp_initial.row_iters"] > 0
    first, second = (
        {k: out["metrics"][k] for k in WORK_COUNTS} for out in runs
    )
    assert first == second
    assert runs[0]["metrics"]["engine.other_s"] >= 0


def test_serve_round_trip(one_build):
    out = serve.run("serve-bb144-circuit", 3, 1.0, trace=True)
    assert out["correct"], out["summary"]
    assert out["attempted"] == 20
    metrics = out["metrics"]
    assert metrics["bp_initial.rows"] >= 20
    assert metrics["serve.decode_ms_p50"] > 0


def test_guard_rejects_busy_thread():
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        with pytest.raises(host.ReferenceGuardError):
            for _ in range(5):
                host.reference_sample()
    finally:
        stop.set()
        worker.join(5.0)
    assert not worker.is_alive()


def test_guard_rejects_live_child():
    child = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(30,)
    )
    child.start()
    try:
        with pytest.raises(host.ReferenceGuardError):
            host.reference_sample()
    finally:
        child.kill()
        child.join(5.0)
    assert not child.is_alive()


def test_normalisation_scales_work_and_skips_reference_windows():
    clock = host.HostClock()
    # References at [0, 1] reading nominal and [3, 4] reading twice it.
    clock._starts = [0.0, 3.0]
    clock._ends = [1.0, 4.0]
    clock.samples = [host.NOMINAL_REF_S, 2 * host.NOMINAL_REF_S]
    assert clock.raw(0.0, 4.0) == pytest.approx(2.0)
    assert clock.normalised(0.0, 4.0) == pytest.approx(2.0 / 1.5)
    assert clock.normalised(1.5, 2.5) == pytest.approx(1.0 / 1.5)


@pytest.mark.parametrize("var", bench.REFUSED_ENV)
def test_refuses_program_changing_environment(var, monkeypatch, capsys):
    monkeypatch.setenv(var, "fused")
    code = bench.main(["--workload", "ler-coprime154-cc", "--seed", "1",
                       "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_schema():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text()
    )
    assert [w["name"] for w in spec["workloads"]] == list(
        bench.WORKLOAD_NAMES
    )
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER
