"""Unit tests for the wall-clock perf regression harness."""

import json

import pytest

from repro.analysis.perf import (
    BENCH_CASES,
    BenchCase,
    compare_bench,
    load_baseline,
    render_bench_report,
    run_case,
    write_bench_json,
)
from repro.common.errors import ReproError


def _report(cases):
    return {
        "schema": 1,
        "repeats": 1,
        "scale": 0.1,
        "host": {},
        "peak_rss_bytes": 1 << 20,
        "cases": cases,
    }


def _case(name, wall_s):
    return {
        "name": name,
        "wall_s": wall_s,
        "records_per_s": 1000,
        "sim_ns_per_wall_s": 1000,
    }


class TestCases:
    def test_canonical_suite_shape(self):
        names = [c.name for c in BENCH_CASES]
        assert names == [
            "single_core",
            "smp_4core",
            "tail_bimodal",
            "adaptive",
            "hot_loop",
        ]
        by_name = {c.name: c for c in BENCH_CASES}
        assert by_name["smp_4core"].cores == 4
        assert by_name["tail_bimodal"].fault_profile == "tail_bimodal"
        assert by_name["adaptive"].policy == "Adaptive"
        assert by_name["hot_loop"].config().memory.dram_frames == 8192

    def test_run_case_record(self):
        record = run_case(
            BenchCase("tiny", "Sync"), repeats=1, scale=0.01
        )
        assert record["name"] == "tiny"
        assert record["wall_s"] > 0
        assert record["instructions_committed"] > 0
        assert record["records_per_s"] > 0


class TestCompare:
    def test_ok_warn_fail_new(self):
        baseline = _report([_case("a", 1.0), _case("b", 1.0), _case("c", 1.0)])
        current = _report(
            [_case("a", 1.1), _case("b", 1.7), _case("c", 2.5), _case("d", 1.0)]
        )
        comparison = compare_bench(current, baseline)
        statuses = {c.name: c.status for c in comparison.cases}
        assert statuses == {"a": "ok", "b": "warn", "c": "fail", "d": "new"}
        assert comparison.failed and comparison.warned
        assert comparison.worst_ratio == pytest.approx(2.5)

    def test_new_case_alone_fails(self):
        # A case with no baseline entry must fail the check: otherwise
        # adding suite cases silently passes until the baseline is
        # refreshed.
        baseline = _report([_case("a", 1.0)])
        current = _report([_case("a", 1.0), _case("b", 1.0)])
        comparison = compare_bench(current, baseline)
        assert comparison.failed
        assert comparison.failed_names == ["b"]

    def test_missing_baseline_case_fails(self):
        # The comparison is keyed in both directions: a baseline case
        # absent from the current run also fails.
        baseline = _report([_case("a", 1.0), _case("gone", 1.0)])
        current = _report([_case("a", 1.0)])
        comparison = compare_bench(current, baseline)
        statuses = {c.name: c.status for c in comparison.cases}
        assert statuses == {"a": "ok", "gone": "missing"}
        assert comparison.failed
        assert comparison.failed_names == ["gone"]

    def test_thresholds_configurable(self):
        baseline = _report([_case("a", 1.0)])
        current = _report([_case("a", 1.2)])
        comparison = compare_bench(
            current, baseline, warn_threshold=1.1, hard_threshold=1.15
        )
        assert comparison.cases[0].status == "fail"

    def test_faster_is_ok(self):
        comparison = compare_bench(
            _report([_case("a", 0.5)]), _report([_case("a", 1.0)])
        )
        assert comparison.cases[0].status == "ok"
        assert not comparison.failed and not comparison.warned


class TestIO:
    def test_write_bench_json(self, tmp_path):
        path = write_bench_json(_report([_case("a", 1.0)]), tmp_path, stamp="X")
        assert path.name == "BENCH_X.json"
        assert json.loads(path.read_text())["cases"][0]["name"] == "a"

    def test_load_baseline_missing(self, tmp_path):
        with pytest.raises(ReproError, match="no bench baseline"):
            load_baseline(tmp_path / "nope.json")

    def test_load_baseline_corrupt(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(ReproError, match="corrupt"):
            load_baseline(bad)

    def test_committed_baseline_matches_suite(self):
        from pathlib import Path

        from repro.analysis.perf import BASELINE_PATH

        repo_root = Path(__file__).resolve().parents[2]
        baseline = load_baseline(repo_root / BASELINE_PATH)
        assert {c["name"] for c in baseline["cases"]} == {
            c.name for c in BENCH_CASES
        }


class TestRender:
    def test_render_with_and_without_baseline(self):
        report = _report([_case("a", 1.0)])
        assert "a" in render_bench_report(report, None)
        comparison = compare_bench(report, _report([_case("a", 0.4)]))
        text = render_bench_report(report, comparison)
        assert "FAIL" in text
