"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.batch == "1_Data_Intensive"
        assert args.policy == "ITS"
        assert args.seed == 1

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "Magic"])

    def test_rejects_unknown_batch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--batch", "nope"])

    def test_seed_list_parsing(self):
        args = build_parser().parse_args(["figures", "--seeds", "1,2,5"])
        assert args.seeds == (1, 2, 5)

    def test_bad_seed_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--seeds", "1,x"])

    def test_exec_flags_on_grid_commands(self):
        for command in ("figures", "crossover", "report"):
            args = build_parser().parse_args(
                [command, "--workers", "4", "--cache-dir", "/tmp/c", "--no-cache"]
            )
            assert args.workers == 4
            assert args.cache_dir == "/tmp/c"
            assert args.no_cache is True

    def test_exec_flags_default_to_serial_cached(self):
        args = build_parser().parse_args(["crossover"])
        assert args.workers == 1
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_cache_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])

    def test_fault_profile_flag(self):
        args = build_parser().parse_args(["run", "--fault-profile", "tail_bimodal"])
        assert args.fault_profile == "tail_bimodal"
        args = build_parser().parse_args(["run"])
        assert args.fault_profile is None

    def test_rejects_unknown_fault_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fault-profile", "chaos_monkey"])

    def test_tail_model_flag(self):
        args = build_parser().parse_args(["stats", "--tail-model", "lognormal"])
        assert args.tail_model == "lognormal"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--tail-model", "weibull"])

    def test_tails_defaults(self):
        args = build_parser().parse_args(["tails"])
        assert args.batch == "1_Data_Intensive"
        assert "none" in args.profiles and "tail_bimodal" in args.profiles
        assert args.workers == 1

    def test_adaptive_defaults(self):
        args = build_parser().parse_args(["adaptive"])
        assert list(args.latencies) == [1, 3, 7, 15, 30, 60, 100]
        assert "tail_bimodal" in args.profiles
        assert list(args.static_policies) == ["Sync", "Async", "ITS"]
        assert args.batch == "1_Data_Intensive"

    def test_adaptive_rejects_adaptive_as_static(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adaptive", "--static-policies", "Adaptive"])

    def test_policy_names_case_insensitive(self):
        args = build_parser().parse_args(["run", "--policy", "adaptive"])
        assert args.policy == "Adaptive"
        args = build_parser().parse_args(["run", "--policy", "sync_prefetch"])
        assert args.policy == "Sync_Prefetch"

    def test_cores_flag(self):
        args = build_parser().parse_args(["run", "--cores", "4"])
        assert args.cores == 4
        args = build_parser().parse_args(["run"])
        assert args.cores is None

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_rejects_bad_core_counts(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--cores", value])
        # A clean usage error (exit 2, no traceback), not a crash.
        assert excinfo.value.code == 2
        assert "--cores" in capsys.readouterr().err

    def test_cores_verb_defaults(self):
        args = build_parser().parse_args(["cores"])
        assert list(args.counts) == [1, 2, 4]
        assert list(args.policies) == ["Sync", "Async", "ITS"]
        assert args.batch == "1_Data_Intensive"

    def test_serve_verb_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert list(args.rate) == [500.0, 2000.0, 4000.0]
        assert list(args.policies) == [
            "Async", "Sync", "Sync_Runahead", "Sync_Prefetch", "ITS", "Adaptive",
        ]
        assert args.arrival == "poisson"
        assert args.slo_ms == 2.0
        assert args.slo_percentile == 0.99
        assert args.admission == "admit_all"
        assert args.scale == 0.1  # serve sweeps many cells; small default
        assert args.workers == 1

    def test_path_serve_flag(self):
        args = build_parser().parse_args(["path", "--serve"])
        assert args.serve is True
        assert args.rate == 2000.0  # single rate, not a sweep
        args = build_parser().parse_args(["path"])
        assert args.serve is False

    @pytest.mark.parametrize("value", ["0", "-5", "x"])
    def test_rejects_bad_rates(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--rate", value])
        # A clean usage error (exit 2, no traceback), not a crash.
        assert excinfo.value.code == 2
        assert "--rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["serve", "--workers", "0"], "--workers"),
            (["run", "--scale", "-1"], "--scale"),
            (["bench", "--repeats", "0"], "--repeats"),
            (["serve", "--queue-cap", "0"], "--queue-cap"),
        ],
    )
    def test_rejects_non_positive_knobs(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_rejects_unknown_arrival_and_admission(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "uniform"])

    def test_tiers_flag_case_insensitive(self):
        args = build_parser().parse_args(["run", "--tiers", "ULL,NVMe"])
        assert args.tiers == ("ull", "nvme")
        args = build_parser().parse_args(["run"])
        assert args.tiers is None and args.placement is None

    def test_rejects_unknown_tier_preset(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--tiers", "ull,optane"])
        # A clean usage error (exit 2, no traceback), not a crash.
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--tiers" in err and "optane" in err

    def test_rejects_empty_tier_list(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--tiers", ","])
        assert excinfo.value.code == 2
        assert "--tiers" in capsys.readouterr().err

    def test_rejects_unknown_placement(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--placement", "hottest"])

    def test_placement_without_tiers_is_usage_error(self, capsys):
        assert main(["run", "--placement", "hot_cold", "--scale", "0.01"]) == 1
        assert "--placement requires --tiers" in capsys.readouterr().err

    def test_tiers_verb_defaults(self):
        args = build_parser().parse_args(["tiers"])
        assert args.tiers is None  # cmd_tiers falls back to ull,far_memory
        assert args.placement is None  # sweeps every placement
        assert args.batch == "2_Data_Intensive"
        assert args.scale == 0.2  # one run per placement; small default
        assert args.promote_threshold == 0
        assert args.demote_watermark == 1.0

    def test_tiers_verb_rejects_negative_threshold(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["tiers", "--promote-threshold", "-1"])
        assert excinfo.value.code == 2
        assert "--promote-threshold" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--admission", "lottery"])


class TestCommands:
    def test_workloads_lists_everything(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("caffe", "random_walk", "3_Data_Intensive", "ITS"):
            assert name in out

    def test_run_prints_summary(self, capsys):
        code = main(
            ["run", "--batch", "No_Data_Intensive", "--policy", "Sync", "--scale", "0.2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy=Sync" in out
        assert "total CPU idle time" in out

    def test_run_save_and_compare(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["run", "--policy", "Sync", "--scale", "0.2", "--save", str(a)])
        main(["run", "--policy", "ITS", "--scale", "0.2", "--save", str(b)])
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "major faults" in out

    def test_observation_runs(self, capsys):
        code = main(["observation", "--counts", "2", "3", "--scale", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "idle/makespan" in out

    def test_crossover_runs(self, capsys):
        code = main(
            ["crossover", "--latencies", "1", "30", "--scale", "0.2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "winner" in out
        assert "Sync" in out and "Async" in out

    def test_figures_single_panel(self, capsys):
        code = main(
            ["figures", "--figure", "4a", "--seeds", "1", "--scale", "0.2", "--normalize"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 4a" in out
        assert "normalized to ITS" in out

    def test_crossover_cached_rerun_matches(self, capsys, tmp_path):
        argv = [
            "crossover", "--latencies", "1", "30", "--scale", "0.2",
            "--workers", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        cold = captured.out
        assert "0 cache hits, 4 simulated" in captured.err
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cold  # cached run is bit-identical
        assert "4 cache hits, 0 simulated" in captured.err

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        main(
            [
                "crossover", "--latencies", "1", "--scale", "0.2",
                "--cache-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:    2" in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2 cache entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_figures_chart_mode(self, capsys):
        code = main(
            ["figures", "--figure", "4b", "--seeds", "1", "--scale", "0.2", "--chart"]
        )
        assert code == 0
        assert "█" in capsys.readouterr().out

    def test_compare_rejects_multi_result_files(self, capsys, tmp_path):
        from repro.analysis.store import save_results
        from repro.analysis.experiments import run_batch_policy
        from repro.common.config import MachineConfig

        result = run_batch_policy(
            MachineConfig(), "No_Data_Intensive", "Sync", seed=1, scale=0.2
        )
        path = tmp_path / "two.json"
        save_results(path, [result, result])
        assert main(["compare", str(path), str(path)]) == 2


class TestTelemetryCommands:
    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "run.trace.json"
        code = main(
            ["trace", "--policy", "Sync", "--scale", "0.1", "--out", str(out)]
        )
        assert code == 0
        assert "perfetto" in capsys.readouterr().out
        with out.open() as f:
            doc = json.load(f)
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_jsonl_format(self, tmp_path):
        import json

        out = tmp_path / "run.jsonl"
        code = main(
            [
                "trace", "--policy", "Sync", "--scale", "0.1",
                "--out", str(out), "--format", "jsonl",
            ]
        )
        assert code == 0
        last = json.loads(out.read_text().splitlines()[-1])
        assert last["type"] == "metrics"

    def test_stats_prints_span_table(self, capsys):
        code = main(["stats", "--policy", "ITS", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "span latency" in out
        assert "fault.its" in out
        assert "p99" in out

    def test_stats_under_fault_profile_shows_fault_counters(self, capsys):
        code = main(
            [
                "stats", "--policy", "ITS", "--scale", "0.1",
                "--fault-profile", "tail_bimodal",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults.injected.tail" in out
        assert "its.demote.count" in out

    def test_tails_prints_crossover_table(self, capsys, tmp_path):
        code = main(
            [
                "tails", "--latencies", "3", "30", "--scale", "0.1",
                "--profiles", "none", "tail_bimodal",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile" in out and "crossover" in out
        assert "tail_bimodal" in out

    def test_adaptive_prints_gap_table(self, capsys, tmp_path):
        code = main(
            [
                "adaptive", "--latencies", "3", "15", "--scale", "0.2",
                "--profiles", "none",
                "--static-policies", "Sync", "ITS",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile" in out and "best-static" in out
        assert "Adaptive" in out
        assert "worst adaptive gap" in out

    def test_run_adaptive_policy(self, capsys):
        code = main(
            ["run", "--policy", "adaptive", "--batch", "No_Data_Intensive",
             "--scale", "0.2"]
        )
        assert code == 0
        assert "policy=Adaptive" in capsys.readouterr().out

    def test_run_with_cores(self, capsys):
        code = main(
            ["run", "--policy", "Async", "--scale", "0.1", "--cores", "2"]
        )
        assert code == 0
        assert "policy=Async" in capsys.readouterr().out

    def test_cores_prints_scaling_table(self, capsys, tmp_path):
        code = main(
            [
                "cores", "--counts", "1", "2", "--policies", "Async",
                "--scale", "0.1", "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "best speedup" in out
        assert "Async" in out

    def test_run_trace_out(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code = main(
            ["run", "--policy", "ITS", "--scale", "0.1", "--trace-out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "trace (" in capsys.readouterr().out

    def test_run_events_csv_shares_the_trace_handle(self, capsys, tmp_path):
        import json

        events = tmp_path / "new" / "x.csv"  # the directory does not exist
        trace = tmp_path / "t.json"
        code = main(
            ["run", "--policy", "ITS", "--scale", "0.1",
             "--events", str(events), "--trace-out", str(trace)]
        )
        assert code == 0
        lines = events.read_text().splitlines()
        assert lines[:2] == ["# dropped=0", "time_ns,kind,pid,vpn"]
        metrics = json.loads(trace.read_text())["otherData"]["metrics"]
        logged = sum(v for k, v in metrics.items() if k.startswith("events."))
        assert len(lines) - 2 == logged > 0
        out = capsys.readouterr().out
        assert f"event log ({logged} events: " in out
        assert "trace (" in out

    @pytest.mark.parametrize(
        "argv",
        [["trace", "--out"], ["run", "--events"], ["run", "--trace-out"]],
        ids=["trace-out", "run-events", "run-trace-out"],
    )
    def test_unwritable_output_is_a_clean_error(self, capsys, tmp_path, argv):
        blocker = tmp_path / "regular-file"
        blocker.write_text("")
        target = blocker / "x.out"
        code = main(
            [argv[0], "--policy", "Sync", "--batch", "No_Data_Intensive",
             "--scale", "0.1", argv[1], str(target)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert str(target) in err and "Traceback" not in err


class TestTraceStats:
    SAMPLE = str(
        __import__("pathlib").Path(__file__).resolve().parents[2]
        / "examples"
        / "data"
        / "sample.lackey"
    )

    def test_lackey_stats(self, capsys):
        code = main(["trace-stats", self.SAMPLE, "--lackey"])
        assert code == 0
        out = capsys.readouterr().out
        assert "instructions" in out and "footprint pages" in out

    def test_trace_file_stats(self, capsys, tmp_path):
        from repro.cpu.isa import Compute, Load
        from repro.trace.tracefile import save_trace

        path = tmp_path / "t.trace"
        save_trace(path, [Load(dst=0, vaddr=0x1000), Compute(dst=1)])
        assert main(["trace-stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "loads           1" in out

    def test_max_instructions(self, capsys):
        code = main(
            ["trace-stats", self.SAMPLE, "--lackey", "--max-instructions", "10"]
        )
        assert code == 0
        assert "instructions    10" in capsys.readouterr().out

    @pytest.mark.parametrize("lackey", [False, True])
    @pytest.mark.parametrize("content", [b"\xff\xfe L 1000,8\n", None])
    def test_unreadable_file_is_a_clean_error(self, capsys, tmp_path, lackey, content):
        path = tmp_path / "bad.trace"
        if content is not None:  # None: the file does not exist
            path.write_bytes(content)
        argv = ["trace-stats", str(path)] + (["--lackey"] if lackey else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert str(path) in err


class TestFiguresCSVExport:
    def test_save_csv_writes_panels(self, capsys, tmp_path):
        out = tmp_path / "csv"
        code = main(
            [
                "figures",
                "--figure",
                "4a",
                "--seeds",
                "1",
                "--scale",
                "0.2",
                "--save-csv",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "fig4a.csv").exists()
        text = (out / "fig4a.csv").read_text()
        assert "policy," in text and "ITS" in text


class TestObservabilityVerbs:
    def test_ledger_prints_conservation(self, capsys):
        code = main(["ledger", "--policy", "ITS", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "time ledger" in out
        assert "spin_wait" in out and "stolen_run" in out
        assert "conservation:" in out

    def test_ledger_smp_has_core_columns(self, capsys):
        code = main(
            ["ledger", "--policy", "Async", "--scale", "0.1", "--cores", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "core0" in out and "core1" in out

    @pytest.mark.parametrize("cores", [1, 2])
    def test_ledger_reads_the_machine_without_telemetry(
        self, capsys, monkeypatch, cores
    ):
        from repro.telemetry import LEDGER_CATEGORIES, Telemetry

        def refuse(*args, **kwargs):
            raise AssertionError("repro ledger attached a Telemetry handle")

        monkeypatch.setattr(Telemetry, "__init__", refuse)
        argv = ["ledger", "--policy", "ITS", "--scale", "0.1", "--cores", str(cores)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        makespan = int(lines[1].split("makespan ")[1].split()[0].replace(",", ""))
        rows = {line.split()[0]: line.split() for line in lines[4:17]}
        assert list(rows) == list(LEDGER_CATEGORIES) + ["total"]
        # Each row: category, one cell per core, total, share.
        totals = [int(row[cores + 1].replace(",", "")) for row in rows.values()]
        assert sum(totals[:-1]) == totals[-1] == makespan * cores

    def test_path_prints_fault_chains(self, capsys):
        code = main(["path", "--policy", "ITS", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "causal fault graph" in out
        assert "0 unresolved" in out
        assert "critical process" in out

    def test_bench_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.repeats == 3
        assert args.scale == 0.1
        assert args.threshold == 1.5
        assert args.hard_threshold == 2.0
        assert not args.check and not args.update_baseline

    def test_bench_writes_report(self, capsys, tmp_path, monkeypatch):
        import repro.analysis.perf as perf

        monkeypatch.setattr(
            perf, "BENCH_CASES", (perf.BenchCase("single_core", "Sync"),)
        )
        code = main(
            ["bench", "--repeats", "1", "--scale", "0.01",
             "--out", str(tmp_path),
             "--baseline", str(tmp_path / "missing.json")]
        )
        assert code == 0
        written = list(tmp_path.glob("BENCH_*.json"))
        assert len(written) == 1
        assert "records/s" in capsys.readouterr().out

    def test_serve_reports_slo_table(self, capsys, tmp_path):
        code = main(
            [
                "serve", "--rate", "500", "--policies", "Sync", "ITS",
                "--slo-ms", "2", "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "open-loop serving: poisson arrivals" in out
        assert "p99" in out and "attain" in out
        assert "Sync" in out and "ITS" in out
        assert "headline:" in out

    def test_serve_is_deterministic_across_reruns(self, capsys, tmp_path):
        argv = [
            "serve", "--rate", "500", "--policies", "Sync",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_serve_trace_arrival_needs_a_file(self, capsys):
        assert main(["serve", "--arrival", "trace"]) == 1
        assert "--arrival-trace" in capsys.readouterr().err

    def test_serve_trace_file_only_with_trace_arrival(self, capsys, tmp_path):
        trace = tmp_path / "arrivals.txt"
        trace.write_text("100 200 300\n")
        assert main(["serve", "--arrival-trace", str(trace)]) == 1
        assert "--arrival trace" in capsys.readouterr().err

    def test_serve_replays_arrival_trace(self, capsys, tmp_path):
        trace = tmp_path / "arrivals.txt"
        # A handful of early-window timestamps: tiny, fast run.
        trace.write_text(" ".join(str(i * 200_000) for i in range(8)))
        code = main(
            [
                "serve", "--arrival", "trace", "--arrival-trace", str(trace),
                "--policies", "Sync", "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace arrivals" in out
        assert "8" in out  # all replayed timestamps arrive

    def test_path_serve_classifies_deadline_misses(self, capsys):
        code = main(
            [
                "path", "--policy", "Sync", "--serve", "--rate", "2000",
                "--slo-ms", "2", "--scale", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "causal fault graph" in out
        assert "deadline misses:" in out

    def test_bench_check_fails_on_hard_regression(self, capsys, tmp_path, monkeypatch):
        import json as _json

        import repro.analysis.perf as perf

        monkeypatch.setattr(
            perf, "BENCH_CASES", (perf.BenchCase("single_core", "Sync"),)
        )
        baseline = tmp_path / "base.json"
        baseline.write_text(
            _json.dumps(
                {"cases": [{"name": "single_core", "wall_s": 1e-9}]}
            )
        )
        code = main(
            ["bench", "--check", "--repeats", "1", "--scale", "0.01",
             "--out", str(tmp_path), "--baseline", str(baseline)]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestSweepVerbs:
    """Parsing and end-to-end behaviour of the `repro sweep` group."""

    def test_sweep_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_init_defaults(self):
        args = build_parser().parse_args(["sweep", "init"])
        assert args.batches == ["1_Data_Intensive"]
        assert args.policies == ["Sync", "Async", "ITS"]
        assert args.seeds == (1, 2, 3)
        assert args.manifest == "sweep_manifest.json"

    def test_run_worker_flags(self):
        args = build_parser().parse_args(
            ["sweep", "run", "--manifest", "m.json", "--workers", "3",
             "--lease-s", "5", "--max-retries", "0", "--backoff-s", "0",
             "--poll-s", "0.1", "--max-cells", "2", "--worker-id", "w9"]
        )
        assert args.workers == 3
        assert args.lease_s == 5.0
        assert args.max_retries == 0
        assert args.backoff_s == 0.0
        assert args.max_cells == 2
        assert args.worker_id == "w9"

    def test_bad_worker_flags_rejected(self):
        for argv in (
            ["sweep", "run", "--lease-s", "0"],
            ["sweep", "run", "--max-retries", "-1"],
            ["sweep", "run", "--backoff-s", "-1"],
            ["sweep", "run", "--max-cells", "0"],
            ["sweep", "status", "--lease-s", "-3"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_status_has_no_worker_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "status", "--workers", "2"])

    def test_init_run_status_cycle(self, tmp_path, capsys):
        manifest = str(tmp_path / "m.json")
        code = main(
            ["sweep", "init", "--manifest", manifest,
             "--cache-dir", str(tmp_path / "cache"),
             "--batches", "No_Data_Intensive", "--policies", "Sync",
             "--seeds", "1,2", "--scale", "0.2"]
        )
        assert code == 0
        assert "2 cells" in capsys.readouterr().out
        code = main(["sweep", "run", "--manifest", manifest])
        assert code == 0
        assert "2/2 done" in capsys.readouterr().out
        code = main(["sweep", "status", "--manifest", manifest])
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out
        assert "2/2 manifest cells cached" in out

    def test_resume_clears_failures_and_finishes(self, tmp_path, capsys):
        from repro.analysis.manifest import FailureLog, SweepManifest

        manifest_path = str(tmp_path / "m.json")
        main(
            ["sweep", "init", "--manifest", manifest_path,
             "--cache-dir", str(tmp_path / "cache"),
             "--batches", "No_Data_Intensive", "--policies", "Sync",
             "--seeds", "1", "--scale", "0.2"]
        )
        capsys.readouterr()
        manifest = SweepManifest.load(manifest_path)
        cache = manifest.resolve_cache()
        failures = FailureLog(manifest.failures_root(cache))
        failures.record(
            manifest.keys[0], label="cell", attempts=3, error="e", worker="w"
        )
        code = main(["sweep", "resume", "--manifest", manifest_path])
        assert code == 0
        assert "1/1 done" in capsys.readouterr().out

    def test_missing_manifest_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "run", "--manifest", str(tmp_path / "absent.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
