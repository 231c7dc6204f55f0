"""Tests for the ``python -m repro`` command line."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_multiple_ids(self):
        args = build_parser().parse_args(["run", "fig5", "tab1"])
        assert args.experiments == ["fig5", "tab1"]

    def test_decode_defaults(self):
        args = build_parser().parse_args(["decode", "bb_72_12_6"])
        assert args.p == 0.05
        assert args.shots == 20


class TestCommands:
    def test_codes_lists_registry(self, capsys):
        assert main(["codes"]) == 0
        out = capsys.readouterr().out
        assert "bb_144_12_12" in out
        assert "[[144, 12, 12]]" in out
        assert "shyps_225_16_8" in out
        assert "bb_90_8_10" in out

    def test_run_rejects_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_backends_reports_every_registered_backend(self, capsys):
        from repro.decoders.kernels import available_backends

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "fused" in out and "default" in out
        assert "reference" in out
        # The optional native backend is always listed: "available"
        # where its C kernel builds, otherwise "unavailable" with the
        # build error.
        assert "native" in out and "optional" in out
        if "native" in available_backends():
            assert "unavailable" not in out
        else:
            assert "unavailable" in out

    def test_decode_small_demo(self, capsys):
        assert main(["decode", "surface_3", "--p", "0.02",
                     "--shots", "3"]) == 0
        out = capsys.readouterr().out
        assert "logical error rate" in out
        assert "shot   0" in out

    def test_ler_runs_engine(self, capsys):
        assert main(["ler", "surface_3", "--p", "0.08", "--shots", "200",
                     "--decoder", "min_sum_bp", "--workers", "2",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "LER=" in out
        assert "workers=2" in out

    def test_ler_is_worker_count_reproducible(self, capsys):
        argv = ["ler", "surface_3", "--p", "0.08", "--shots", "200",
                "--decoder", "min_sum_bp", "--seed", "4"]
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out.splitlines()[0]
        assert main(argv + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out.splitlines()[0]
        assert serial == pooled

    def test_ler_rejects_unknown_decoder(self, capsys):
        assert main(["ler", "surface_3", "--decoder", "nope"]) == 2
        assert "unknown decoder" in capsys.readouterr().err

    def test_ler_rejects_unknown_code(self, capsys):
        assert main(["ler", "no_such_code"]) == 2
        assert "unknown code" in capsys.readouterr().err

    def test_ler_rejects_bad_workers(self, capsys):
        assert main(["ler", "surface_3", "--workers", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_ler_rejects_unknown_backend(self, capsys):
        assert main(["ler", "surface_3", "--backend", "warp"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend" in err
        assert "reference" in err and "fused" in err

    def test_ler_is_backend_reproducible(self, capsys):
        # Backends are bit-identical, so the reported LER line (and the
        # failure count) must not depend on the kernel — even with the
        # sharded pool resolving the decoder inside workers.
        argv = ["ler", "surface_3", "--p", "0.08", "--shots", "200",
                "--decoder", "min_sum_bp", "--seed", "4"]
        assert main(argv + ["--backend", "reference"]) == 0
        reference = capsys.readouterr().out.splitlines()[0]
        assert main(argv + ["--backend", "fused", "--workers", "2"]) == 0
        fused = capsys.readouterr().out.splitlines()[0]
        assert reference == fused

    def test_ler_explains_missing_rounds(self, capsys):
        # gb_254_28 has no recorded distance, so --circuit needs --rounds.
        assert main(["ler", "gb_254_28", "--circuit"]) == 2
        assert "cannot build problem" in capsys.readouterr().err

    def test_analyze_reports_structure(self, capsys):
        assert main(["analyze", "bb_72_12_6", "--shots", "40",
                     "--p", "0.1", "--max-reports", "2"]) == 0
        out = capsys.readouterr().out
        assert "girth=6" in out
        assert "4-cycles=0" in out
        assert "failures:" in out

    def test_stream_reports_queue(self, capsys):
        assert main(["stream", "bb_72_12_6", "--shots", "12",
                     "--rounds", "4"]) == 0
        out = capsys.readouterr().out
        assert "arrival period 4.0 us" in out
        assert "streaming queue" in out

    def test_serve_replays_stream_with_stable_queue(self, capsys):
        assert main(["serve", "surface_3", "--p", "0.08",
                     "--decoder", "min_sum_bp", "--shots", "40",
                     "--clients", "4", "--max-batch", "8",
                     "--rho", "0.3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "responses decoded: 40/40" in out
        assert "service: rho=" in out
        assert "queue model on recorded service times" in out

    def test_serve_accepts_fixed_period(self, capsys):
        assert main(["serve", "surface_3", "--p", "0.08",
                     "--decoder", "min_sum_bp", "--shots", "20",
                     "--clients", "2", "--period-us", "500"]) == 0
        out = capsys.readouterr().out
        assert "arrival period 500.0 us (fixed by --period-us)" in out
        assert "responses decoded: 20/20" in out

    def test_serve_rejects_unknown_decoder(self, capsys):
        assert main(["serve", "surface_3", "--decoder", "nope"]) == 2
        assert "unknown decoder" in capsys.readouterr().err

    def test_serve_rejects_unknown_code(self, capsys):
        assert main(["serve", "no_such_code"]) == 2
        assert "unknown code" in capsys.readouterr().err

    def test_serve_rejects_unknown_backend(self, capsys):
        assert main(["serve", "surface_3", "--backend", "warp"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_serve_rejects_negative_workers(self, capsys):
        assert main(["serve", "surface_3", "--workers", "-1"]) == 2
        assert "--workers must be >= 0" in capsys.readouterr().err

    def test_serve_rejects_bad_knobs(self, capsys):
        assert main(["serve", "surface_3", "--max-batch", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert main(["serve", "surface_3", "--rho", "0"]) == 2
        assert "--rho must be positive" in capsys.readouterr().err
        assert main(["serve", "surface_3", "--period-us", "-5"]) == 2
        assert "--period-us must be positive" in capsys.readouterr().err

    def test_serve_explains_missing_rounds(self, capsys):
        assert main(["serve", "gb_254_28", "--circuit"]) == 2
        assert "cannot build problem" in capsys.readouterr().err

    def test_ler_progress_prints_shard_counter(self, capsys):
        assert main(["ler", "surface_3", "--p", "0.08", "--shots",
                     "400", "--decoder", "min_sum_bp",
                     "--shard-shots", "100", "--progress",
                     "--seed", "4"]) == 0
        captured = capsys.readouterr()
        assert "shards: 4/4" in captured.err
        assert "LER=" in captured.out

    def test_hardware_reproduces_discussion(self, capsys):
        assert main(["hardware"]) == 0
        out = capsys.readouterr().out
        assert "worst-case decode    : 4.10 us" in out
        assert "d=12 budget" in out
        assert "TOO SLOW" not in out

    def test_hardware_detects_slow_configuration(self, capsys):
        assert main(["hardware", "--iteration-ns", "500"]) == 0
        assert "TOO SLOW" in capsys.readouterr().out


class TestSweepCommands:
    SPEC = "sweeps/smoke.toml"

    def test_run_show_export_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", self.SPEC, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "total new shots: 384" in out
        assert "surface_3" in out  # final table rendered
        assert main(["sweep", "show", self.SPEC, "--store", store]) == 0
        shown = capsys.readouterr().out
        assert "2 points: 2 resolved, 0 would run" in shown
        target = str(tmp_path / "out.csv")
        assert main(["sweep", "export", self.SPEC, "--store", store,
                     "--format", "csv", "--out", target]) == 0
        with open(target, encoding="utf-8") as handle:
            assert handle.readline().startswith("figure,code,model")

    def test_run_is_worker_count_reproducible(self, tmp_path, capsys):
        serial = str(tmp_path / "serial")
        pooled = str(tmp_path / "pooled")
        assert main(["sweep", "run", self.SPEC, "--store", serial]) == 0
        capsys.readouterr()
        assert main(["sweep", "run", self.SPEC, "--store", pooled,
                     "--workers", "2"]) == 0
        capsys.readouterr()
        import json
        import os

        def failures(store):
            out = {}
            for name in os.listdir(store):
                if name.endswith(".json"):
                    meta = json.load(open(os.path.join(store, name)))
                    out[meta["key"]] = (meta["shots"], meta["failures"])
            return out

        assert failures(serial) == failures(pooled)

    def test_missing_spec_exits_2(self, capsys):
        assert main(["sweep", "run", "no/such/spec.toml"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(
            "[sweep]\nname='x'\n[[grid]]\ncodes=['nope']\n"
            "p=[0.1]\ndecoders=['bpsf']\n"
        )
        assert main(["sweep", "run", str(bad)]) == 2
        assert "unknown code" in capsys.readouterr().err

    def test_unparsable_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[sweep\n")
        assert main(["sweep", "show", str(bad)]) == 2
        assert "invalid sweep spec" in capsys.readouterr().err

    def test_bad_workers_exits_2(self, capsys):
        assert main(["sweep", "run", self.SPEC, "--workers", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_bad_shots_exits_2(self, capsys):
        assert main(["sweep", "run", self.SPEC, "--shots", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_override_identity_collision_exits_2(self, tmp_path, capsys):
        # Two grids identical except shard size are distinct points —
        # until a tiny --shots clamp collapses both shard sizes to the
        # override, at which point the identities collide.  That must
        # be a friendly exit-2, not a traceback.
        spec = tmp_path / "twin.toml"
        spec.write_text(
            "[sweep]\nname='twin'\nshots=192\n"
            "[[grid]]\ncodes=['surface_3']\np=[0.1]\n"
            "decoders=['min_sum_bp']\nshard_shots=64\n"
            "[[grid]]\ncodes=['surface_3']\np=[0.1]\n"
            "decoders=['min_sum_bp']\nshard_shots=96\n"
        )
        assert main(["sweep", "show", str(spec)]) == 0
        capsys.readouterr()
        assert main(["sweep", "show", str(spec), "--shots", "8"]) == 2
        err = capsys.readouterr().err
        assert "invalid budget override" in err
        assert "duplicate sweep point" in err

    def test_bad_budget_overrides_exit_2(self, capsys):
        assert main(["sweep", "run", self.SPEC,
                     "--target-rse", "-0.5"]) == 2
        assert "--target-rse must be positive" in \
            capsys.readouterr().err
        assert main(["sweep", "show", self.SPEC,
                     "--max-failures", "0"]) == 2
        assert "--max-failures must be positive" in \
            capsys.readouterr().err

    def test_negative_shard_timeout_exits_2(self, capsys):
        assert main(["sweep", "run", self.SPEC,
                     "--shard-timeout", "-5"]) == 2
        assert "--shard-timeout must be >= 0" in \
            capsys.readouterr().err
        assert main(["ler", "surface_3", "--shard-timeout", "-5"]) == 2
        assert "--shard-timeout must be >= 0" in \
            capsys.readouterr().err

    def test_hand_edited_store_identity_exits_2(self, tmp_path, capsys):
        import json
        import os

        store = str(tmp_path / "store")
        assert main(["sweep", "run", self.SPEC, "--store", store]) == 0
        capsys.readouterr()
        name = next(n for n in os.listdir(store)
                    if n.endswith(".json"))
        path = os.path.join(store, name)
        meta = json.load(open(path))
        meta["identity"]["p"] = 0.31
        json.dump(meta, open(path, "w"))
        assert main(["sweep", "show", self.SPEC, "--store", store]) == 2
        err = capsys.readouterr().err
        assert "sweep failed" in err and "hand-edited" in err

    def test_corrupt_store_exits_2(self, tmp_path, capsys):
        import os

        store = str(tmp_path / "store")
        assert main(["sweep", "run", self.SPEC, "--store", store]) == 0
        capsys.readouterr()
        for name in os.listdir(store):
            if name.endswith(".npz"):
                os.remove(os.path.join(store, name))
                break
        assert main(["sweep", "show", self.SPEC, "--store", store]) == 2
        assert "corrupted" in capsys.readouterr().err

    def test_sweep_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "run", "x.toml"])
        assert args.store == "sweep-store"
        assert args.workers == 1
        assert args.shots is None and args.target_rse is None
        args = build_parser().parse_args(
            ["sweep", "export", "x.toml", "--format", "csv",
             "--out", "y.csv"]
        )
        assert args.format == "csv" and args.out == "y.csv"

    def test_help_epilog_covers_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for token in ("sweep run", "sweep show", "sweep export",
                      "ler CODE", "docs/reproducing-figures.md"):
            assert token in out


class TestNewParsers:
    def test_ler_defaults(self):
        args = build_parser().parse_args(["ler", "bb_144_12_12"])
        assert args.decoder == "bpsf"
        assert args.workers == 1
        assert args.target_rse is None
        assert args.max_failures is None
        assert args.backend == "auto"

    def test_ler_backend_flag(self):
        args = build_parser().parse_args(
            ["ler", "bb_144_12_12", "--backend", "reference"]
        )
        assert args.backend == "reference"

    def test_ler_engine_flags(self):
        args = build_parser().parse_args(
            ["ler", "bb_144_12_12", "--workers", "8",
             "--target-rse", "0.1", "--circuit", "--rounds", "4"]
        )
        assert args.workers == 8
        assert args.target_rse == 0.1
        assert args.circuit
        assert args.rounds == 4

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "bb_72_12_6"])
        assert args.p == 0.08
        assert args.phi == 16

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream", "bb_144_12_12"])
        assert args.rounds == 6
        assert args.p == 2e-3

    def test_hardware_overrides(self):
        args = build_parser().parse_args(
            ["hardware", "--iteration-ns", "10", "--trial-iters", "50"]
        )
        assert args.iteration_ns == 10.0
        assert args.trial_iters == 50
