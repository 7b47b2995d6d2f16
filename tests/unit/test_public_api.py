"""Guards against API drift: everything ``__all__`` promises exists,
and the core documented surface is importable from the top level."""

import pytest

import repro
import repro.analysis as analysis


class TestTopLevelAll:
    def test_all_symbols_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_core_surface_present(self):
        for name in (
            "MachineConfig",
            "Simulation",
            "WorkloadInstance",
            "build_batch",
            "ITSPolicy",
            "SyncIOPolicy",
            "AsyncIOPolicy",
            "SyncRunaheadPolicy",
            "SyncPrefetchPolicy",
            "Telemetry",
            "DeterministicRNG",
        ):
            assert name in repro.__all__, name


class TestAnalysisAll:
    def test_all_symbols_exist(self):
        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_runners_present(self):
        for name in (
            "run_figure4",
            "run_figure5",
            "run_observation",
            "run_batch_policy",
            "generate_report",
            "validate_figure4",
            "sweep_device_latency",
            "utilization",
        ):
            assert name in analysis.__all__, name


class TestVersion:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_cli_version_matches(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out
