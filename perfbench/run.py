"""The repository's benchmark: LER throughput and serve-net latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ler-coprime154-cc --seed 1 \\
        --seconds 30 --trace 0 [--out DIR]

Workloads:

* ``ler-bb144-circuit`` -- BB [[144,12,12]] circuit-level DEM decoded by
  the paper's Fig. 7 BP-SF through ``run_ler_parallel``; BP on a large,
  irregular Tanner graph is nearly all of the work.
* ``ler-coprime154-cc`` -- coprime-BB [[154,6,16]] code capacity with
  the Fig. 5 BP-SF; a cache-resident matrix, so per-call overhead,
  chunking and straggler re-batching dominate.
* ``serve-bb144-circuit`` -- ``NetDecodeServer`` in a child process fed
  an open loop of 40 requests/s over two connections.

End-to-end metrics.  ``shots_per_s``: shots over the wall time of
``run_ler_parallel`` (LER), or answered requests per second, which stays
at the offered 40/s unless requests fail or the server falls behind
(serve).  ``setup_s``: median cold build of problem plus decoder from a
``ProblemSpec`` (LER), or of ``NetDecodeServer`` plus ``start()`` in the
server process (serve).  ``peak_rss_mb``: peak RSS of the process that
runs the program.  ``latency_p50_ms`` / ``latency_p99_ms``: per request
from its due time to its response (serve), or per shot, its batch's
decode time shared out by fully parallel iteration count (LER).  LER
times and all set-up times are host-normalised (see ``host.py``); serve
latency is raw wall clock.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric
(layers a workload does not exercise read 0).  Before it, one JSON line
carries the environment fingerprint.  The run's full record (and with
``--trace 1`` every span) is written under ``--out``.

Exit codes: 0 ok; 1 an output check failed (the result line says
``"correct": false``); 2 the run was refused (program missing, or an
environment variable that changes the program is set); 3 the run is
invalid (the host reference was contaminated, or the serve load
generator fell behind its schedule).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = {
    "shots_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

#: Per-layer metrics (traced runs) and their units.
PER_LAYER = {
    "spec.problem_s": "s",
    "spec.decoder_s": "s",
    "circuits.structural_builds": "count",
    "problem.sample_s": "s",
    "problem.syndrome_s": "s",
    "bp_initial.s": "s",
    "bp_initial.rows": "count",
    "bp_initial.row_iters": "count",
    "bp_initial.us_per_row_iter": "us",
    "bp_initial.converged_frac": "frac",
    "bpsf.trial_gen_s": "s",
    "bpsf.trial_synd_s": "s",
    "bpsf.trial_rows": "count",
    "bpsf.post_shots": "count",
    "bpsf.rescue_frac": "frac",
    "bpsf.self_s": "s",
    "bp_trial.s": "s",
    "bp_trial.row_iters": "count",
    "bp_trial.us_per_row_iter": "us",
    "bp_trial.useful_frac": "frac",
    "engine.other_s": "s",
    "engine.shards": "count",
    "serve.decode_ms_p50": "ms",
    "serve.decode_ms_p99": "ms",
    "serve.overhead_ms_p50": "ms",
    "serve.overhead_ms_p99": "ms",
    "serve.mean_batch": "rows",
    "serve.utilisation": "frac",
    "serve.peak_pending": "count",
    "net.enqueue_us_p50": "us",
    "gen.lateness_ms_p99": "ms",
    "host.ref_ms": "ms",
    "shots_per_s_raw": "1/s",
    "setup_s_raw": "s",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}

#: Environment variables that change the program being measured.
REFUSED_ENV = ("REPRO_BP_BACKEND", "REPRO_CHAOS")

WORKLOAD_NAMES = (
    "ler-bb144-circuit", "ler-coprime154-cc", "serve-bb144-circuit",
)


def git_sha(root: Path) -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy
    import scipy

    from repro.decoders.kernels import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
        "kernel_backend": resolve_backend("auto"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name.startswith("ler-"):
        import ler

        out = ler.run(name, seed, seconds, trace)
        out["metrics"].setdefault("peak_rss_mb", peak_rss_mb())
        return out
    import serve

    return serve.run(name, seed, seconds, trace)


def result_line(out: dict, trace: bool) -> dict:
    schema = PER_LAYER if trace else END_TO_END
    metrics = out["metrics"]
    unknown = set(metrics) - set(END_TO_END) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics outside the schema: {sorted(unknown)}")
    return {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in schema.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_out",
                        help="directory for the run record and spans")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    refused = [var for var in REFUSED_ENV if os.environ.get(var)]
    if refused:
        print(f"refusing to run: {', '.join(refused)} set; it changes "
              "the program being measured", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"refusing to run: no program source under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from host import InvalidRun, wait_quiet

    env = fingerprint()
    print(json.dumps({"fingerprint": env}), flush=True)
    trace = bool(args.trace)
    try:
        wait_quiet()
        out = run_workload(args.workload, args.seed, args.seconds, trace)
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    line = result_line(out, trace)

    record_dir = Path(args.out)
    record_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "fingerprint": env,
        "args": vars(args),
        "summary": out.get("summary", {}),
        "result": line,
    }
    if out.get("clock") is not None:
        record["host_timeline"] = out["clock"].timeline()
        record["run_interval"] = out["run_interval"]
    with open(record_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if out.get("recorder") is not None:
        out["recorder"].dump(record_dir / f"{stem}-spans.json")

    print(json.dumps(out.get("summary", {})), flush=True)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
