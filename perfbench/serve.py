"""Serve workload: ``NetDecodeServer`` under an open-loop request stream.

The server runs with its default config in a child process (this file
run as a script), which talks JSON lines over its stdin and stdout.
The child builds it cold several times (construction plus ``start()``,
bracketed by host references: ``setup_s``) and keeps the last one
serving.  The benchmark process samples syndromes from the seed before
the child starts, sends a short warm-up that builds the pool's decoder,
then sends ``RATE`` requests/s on a fixed schedule over ``CONNECTIONS``
connections, round-robin, whatever the server does (an open loop).
Each request is timed from when it was *due* to its response, so a
stall charges every request queued behind it.  Latency is raw wall
clock: it repeated within bounds without normalisation.

40 requests/s is about 30% utilisation; at twice the rate p99 swung
between runs, so there is one fixed rate and no rate search.
"""

from __future__ import annotations

import asyncio
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from host import HostClock, InvalidRun, wait_quiet
from spans import Recorder, instrument_bpsf, stage_metrics

__all__ = ["KEY", "run"]

KEY = "bb_144_12_12:circuit:p=0.003:r=2:bpsf:auto"
RATE = 40.0
CONNECTIONS = 2
WARMUP = 20
#: Cold server builds in the child; ``setup_s`` is their median.
N_BUILDS = 11
#: A pass whose generator ran later than this at p99 is invalid.
MAX_LATENESS_P99_S = 0.010
#: Seconds the child may take to answer a command (the first answer
#: waits for its cold builds), and a pass's requests may stay unanswered
#: after the last was sent; they keep a hung server's run under 180 s.
CHILD_TIMEOUT_S = 60.0
ANSWER_TIMEOUT_S = 30.0


def _instrument_child(rec: Recorder) -> list[float]:
    """Trace the spec build and every decoder the server constructs.

    Returns the list the decoder build times are appended to (a pool
    builds its decoder on its first request, before tracing is on).
    """
    from repro.spec import ProblemSpec

    builds: list[float] = []
    rec.wrap(ProblemSpec, "problem", "spec.problem")
    decoder_factory = ProblemSpec.decoder_factory

    def traced_decoder_factory(spec):
        factory = decoder_factory(spec)

        def build(problem):
            start = time.perf_counter()
            decoder = factory(problem)
            builds.append(time.perf_counter() - start)
            decode_many = decoder.decode_many

            def next_batch(syndromes):
                rec.key += 1
                return decode_many(syndromes)

            decoder.decode_many = next_batch
            instrument_bpsf(rec, decoder, keep_decodes=False)
            return decoder

        return build

    ProblemSpec.decoder_factory = traced_decoder_factory
    return builds


def _send(message) -> None:
    print(json.dumps(message), flush=True)


async def _child(trace: bool) -> None:
    from repro.circuits import cache_stats, clear_caches
    from repro.service.net import NetDecodeServer

    wait_quiet()
    clock = HostClock()
    rec = Recorder()
    rec.enabled = False
    decoder_builds = _instrument_child(rec) if trace else []
    setup, raw, problem_s = [], [], []
    server = None
    for _ in range(N_BUILDS):
        if server is not None:
            await server.stop()
        clear_caches()
        first_span = len(rec.spans)
        rec.enabled = trace
        clock.reference()
        t0 = time.perf_counter()
        server = NetDecodeServer([KEY])
        await server.start()
        t1 = time.perf_counter()
        clock.reference()
        rec.enabled = False
        setup.append(clock.normalised(t0, t1))
        raw.append(clock.raw(t0, t1))
        problem_s.extend(
            clock.normalised(s, e) for _, s, e, _, _ in rec.spans[first_span:]
        )
    _send({
        "port": server.port,
        "setup_s": statistics.median(setup),
        "setup_s_raw": statistics.median(raw),
        "spec.problem_s": statistics.median(problem_s) if problem_s else 0.0,
        "circuits.structural_builds": cache_stats()["structure"]["misses"],
        "host.ref_ms": clock.median_ms(),
    })
    loop = asyncio.get_running_loop()
    try:
        while True:
            command = await loop.run_in_executor(None, sys.stdin.readline)
            if command == "trace\n":
                rec.enabled = trace
                _send("tracing")
            elif command == "report\n":
                rec.enabled = False
                _send(_child_report(server, rec, decoder_builds))
            else:  # "stop", or the benchmark process went away
                break
    finally:
        await server.stop()


def _child_report(server, rec: Recorder, decoder_builds) -> dict:
    import resource

    (pool,) = server.snapshot().pools.values()
    tot = rec.totals()
    return {
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "serve.mean_batch": pool.service.mean_batch,
        "serve.peak_pending": pool.service.peak_pending,
        "spec.decoder_s": decoder_builds[0] if decoder_builds else 0.0,
        "bpsf.self_s": rec.self_time("bpsf.decode_many"),
        "spans": rec.spans,
        **stage_metrics(tot, rec.counts),
    }


class _ChildLink:
    """The benchmark's end of the JSON-lines channel to the server child."""

    def __init__(self, trace: bool):
        args = [sys.executable, str(Path(__file__).resolve())]
        self.proc = subprocess.Popen(
            args + (["--trace"] if trace else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def recv(self):
        # One message per command, so nothing is left buffered between
        # calls and ``select`` sees every message arrive.
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    CHILD_TIMEOUT_S)
        if not ready:
            raise InvalidRun("server child did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server child exited (see its stderr)")
        message = json.loads(line)
        if isinstance(message, dict) and "error" in message:
            raise InvalidRun(f"server child: {message['error']}")
        return message

    def close(self) -> None:
        """Stop the child and wait for it; kill it if it does not stop."""
        try:
            if self.proc.poll() is None:
                self.send("stop")
            self.proc.wait(30.0)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()


async def _load(port: int, syndromes, warmup, rec: Recorder | None):
    """Send one open-loop pass; returns per-request timings and responses."""
    from repro.service.net import NetClient

    clients = [
        await NetClient.connect("127.0.0.1", port)
        for _ in range(CONNECTIONS)
    ]
    try:
        for syndrome in warmup:
            await clients[0].decode(KEY, syndrome)
        n = len(syndromes)
        answered = np.full(n, np.nan)
        lateness = np.empty(n)
        futures = []
        first_due = time.perf_counter() + 0.05
        for i in range(n):
            due = first_due + i / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            lateness[i] = sent - due
            future = await clients[i % CONNECTIONS].enqueue(KEY, syndromes[i])
            if rec is not None:
                rec.key = i
                rec.record("net.enqueue", sent, time.perf_counter())

            def stamp(_, i=i):
                answered[i] = time.perf_counter()

            future.add_done_callback(stamp)
            futures.append(future)
        done, _ = await asyncio.wait(futures, timeout=ANSWER_TIMEOUT_S)
        responses = [
            f.result() if f in done and f.exception() is None else None
            for f in futures
        ]
        due = first_due + np.arange(n) / RATE
        return {
            "latency": answered - due,
            "lateness": lateness,
            "responses": responses,
            "window": np.nanmax(answered) - first_due,
        }
    finally:
        for client in clients:
            await client.close()


def _check(problem, syndromes, responses) -> tuple[int, int]:
    """``(failed, bad)``: missing or non-OK responses, and converged
    errors that do not reproduce their syndrome."""
    failed = bad = 0
    for syndrome, response in zip(syndromes, responses):
        if response is None or not response.ok:
            failed += 1
        elif response.converged:
            got = type(problem).syndromes(problem, response.error)
            bad += int((got != syndrome).any())
    return failed, bad


def _pass_metrics(load) -> dict:
    latency_ms = load["latency"] * 1e3
    ok = sum(r is not None and r.ok for r in load["responses"])
    return {
        "shots_per_s": ok / load["window"],
        "latency_p50_ms": float(np.nanpercentile(latency_ms, 50)),
        "latency_p99_ms": float(np.nanpercentile(latency_ms, 99)),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the serve workload; returns the benchmark result fields."""
    from repro.spec import ProblemSpec

    # A traced run sends the schedule twice (untraced, then traced) at
    # half length, so it lasts as long as an untraced run.
    n = max(1, round(RATE * (seconds / 2 if trace else seconds)))
    problem = ProblemSpec.parse(KEY).problem()
    rec = Recorder() if trace else None
    if rec is not None:
        rec.wrap(problem, "sample_errors", "problem.sample_errors")
        rec.wrap(problem, "syndromes", "problem.syndromes")
    rng = np.random.default_rng(seed)
    syndromes = problem.syndromes(problem.sample_errors(n + WARMUP, rng))
    warmup, syndromes = syndromes[:WARMUP], syndromes[WARMUP:]

    child = _ChildLink(trace)
    try:
        ready = child.recv()
        passes = [asyncio.run(_load(ready["port"], syndromes, warmup, None))]
        if trace:
            child.send("trace")
            child.recv()
            passes.append(
                asyncio.run(_load(ready["port"], syndromes, warmup[:0], rec))
            )
        child.send("report")
        report = child.recv()
    finally:
        child.close()

    for load in passes:
        late = float(np.percentile(load["lateness"], 99))
        if late > MAX_LATENESS_P99_S:
            raise InvalidRun(
                f"load generator ran {late * 1e3:.1f} ms late at p99"
            )
    checks = [_check(problem, syndromes, p["responses"]) for p in passes]
    failed = max(f for f, _ in checks)
    bad = sum(b for _, b in checks)
    converged = sum(
        r is not None and r.converged for r in passes[0]["responses"]
    )
    out = {
        "correct": failed == 0 and bad == 0,
        "attempted": n,
        "failed": failed + bad,
        "summary": {"requests": n, "failed": failed, "bad_decodes": bad,
                    "converged": converged},
    }
    base = _pass_metrics(passes[0])
    if not trace:
        out["metrics"] = {
            **base,
            "setup_s": ready["setup_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        return out

    traced = passes[1]
    decode_ms = np.array([
        r.time_seconds * 1e3 for r in traced["responses"] if r is not None
    ])
    overhead_ms = traced["latency"] * 1e3 - np.array([
        r.time_seconds * 1e3 if r is not None else np.nan
        for r in traced["responses"]
    ])
    offset = len(rec.spans)
    rec.spans.extend(
        (name_, s, e, parent + offset if parent >= 0 else -1, key)
        for name_, s, e, parent, key in report.pop("spans")
    )
    enqueue_us = [
        (e - s) * 1e6 for name_, s, e, _, _ in rec.spans
        if name_ == "net.enqueue"
    ]
    tot = rec.totals()
    out["recorder"] = rec
    out["metrics"] = {
        key: value for key, value in report.items() if key != "peak_rss_mb"
    }
    out["metrics"].update({
        "spec.problem_s": ready["spec.problem_s"],
        "circuits.structural_builds": ready["circuits.structural_builds"],
        "problem.sample_s": tot.get("problem.sample_errors", 0.0),
        "problem.syndrome_s": tot.get("problem.syndromes", 0.0),
        "serve.decode_ms_p50": float(np.percentile(decode_ms, 50)),
        "serve.decode_ms_p99": float(np.percentile(decode_ms, 99)),
        "serve.overhead_ms_p50": float(np.nanpercentile(overhead_ms, 50)),
        "serve.overhead_ms_p99": float(np.nanpercentile(overhead_ms, 99)),
        "serve.utilisation": decode_ms.sum() / 1e3 / traced["window"],
        "net.enqueue_us_p50": float(np.median(enqueue_us)),
        "gen.lateness_ms_p99":
            float(np.percentile(traced["lateness"], 99)) * 1e3,
        "host.ref_ms": ready["host.ref_ms"],
        "shots_per_s_raw": base["shots_per_s"],
        "setup_s_raw": ready["setup_s_raw"],
        "trace.wall_s": traced["window"],
        "trace.overhead_pct":
            (_pass_metrics(traced)["latency_p50_ms"]
             / base["latency_p50_ms"] - 1.0) * 100.0,
    })
    return out


if __name__ == "__main__":
    # The server child of ``run()`` (see ``_ChildLink``).
    import run

    sys.path.insert(0, str(run.SRC))
    try:
        asyncio.run(_child(trace="--trace" in sys.argv))
    except InvalidRun as exc:
        _send({"error": str(exc)})
