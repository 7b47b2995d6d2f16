"""Unit tests for the parallel sweep engine and its result cache."""

import dataclasses
import json
import threading

import pytest

from repro.analysis.runner import (
    EXECUTOR_NAMES,
    CellExecutionError,
    ResultCache,
    SweepCell,
    cache_key,
    default_cache_dir,
    run_cells,
    stable_hash,
)
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError

FAST = dict(batch="No_Data_Intensive", policy="Sync", seed=1, scale=0.2)


def fast_cell(config=None, **overrides):
    params = {**FAST, **overrides}
    return SweepCell(config=config or MachineConfig(), **params)


class TestStableHash:
    def test_dict_order_invariance(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_nested_dict_order_invariance(self):
        left = {"outer": {"x": 1, "y": [1, 2]}, "z": 3}
        right = {"z": 3, "outer": {"y": [1, 2], "x": 1}}
        assert stable_hash(left) == stable_hash(right)

    def test_value_changes_hash(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_list_order_matters(self):
        assert stable_hash({"a": [1, 2]}) != stable_hash({"a": [2, 1]})


class TestCacheKey:
    def test_config_round_trip_keys_identically(self):
        config = MachineConfig()
        rebuilt = MachineConfig.from_dict(config.to_dict())
        assert cache_key(fast_cell(config)) == cache_key(fast_cell(rebuilt))

    def test_stable_across_calls(self):
        assert cache_key(fast_cell()) == cache_key(fast_cell())

    def test_config_knob_changes_key(self):
        config = MachineConfig()
        tweaked = dataclasses.replace(
            config,
            device=dataclasses.replace(config.device, access_latency_ns=999),
        )
        assert cache_key(fast_cell(config)) != cache_key(fast_cell(tweaked))

    def test_each_cell_input_changes_key(self):
        base = cache_key(fast_cell())
        assert cache_key(fast_cell(batch="1_Data_Intensive")) != base
        assert cache_key(fast_cell(policy="Async")) != base
        assert cache_key(fast_cell(seed=2)) != base
        assert cache_key(fast_cell(scale=0.3)) != base


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = fast_cell()
        key = cache_key(cell)
        assert cache.get(key) is None
        [result] = run_cells([cell], cache=cache)
        assert cache.get(key) == result
        assert cache.hits == 1

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = fast_cell()
        [result] = run_cells([cell], cache=cache)
        key = cache_key(cell)
        path = cache.path_for(key)
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(key) is None  # corrupted -> miss
        assert not path.exists()  # ...and the entry is deleted
        [again] = run_cells([cell], cache=cache)  # re-simulates and re-stores
        assert again == result
        assert cache.get(key) == result

    def test_wrong_format_version_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = fast_cell()
        run_cells([cell], cache=cache)
        key = cache_key(cell)
        path = cache.path_for(key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["result"]["_format"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(key) is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cells([fast_cell(), fast_cell(policy="Async")], cache=cache)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.puts == 2
        assert stats.misses == 2
        assert stats.size_bytes > 0
        assert cache.clear() == 2
        assert cache.stats().entries == 0

    def test_flush_stats_accumulates(self, tmp_path):
        cell = fast_cell()
        run_cells([cell], cache=ResultCache(tmp_path))  # miss + put
        run_cells([cell], cache=ResultCache(tmp_path))  # hit
        stats = ResultCache(tmp_path).stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.puts == 1

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert ResultCache(None).root == tmp_path / "custom"


class TestRunCells:
    def test_results_in_input_order(self):
        cells = [fast_cell(policy="Async"), fast_cell(policy="Sync")]
        results = run_cells(cells)
        assert [r.policy for r in results] == ["Async", "Sync"]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigError):
            run_cells([fast_cell()], workers=0)

    def test_cached_equals_fresh(self, tmp_path):
        cells = [fast_cell(), fast_cell(policy="Async")]
        fresh = run_cells(cells)
        cache = ResultCache(tmp_path)
        first = run_cells(cells, cache=cache)
        second = run_cells(cells, cache=cache)
        assert fresh == first == second

    def test_telemetry_counters(self, tmp_path):
        from repro.telemetry import Telemetry

        cache = ResultCache(tmp_path)
        cells = [fast_cell(), fast_cell(policy="Async")]
        t1 = Telemetry()
        run_cells(cells, cache=cache, telemetry=t1)
        assert t1.counter("runner.cache.miss").value == 2
        assert t1.counter("runner.cells.executed").value == 2
        assert t1.histogram("runner.cell_wall_ns").count == 2
        t2 = Telemetry()
        run_cells(cells, cache=cache, telemetry=t2)
        assert t2.counter("runner.cache.hit").value == 2
        assert t2.counter("runner.cache.miss").value == 0
        assert t2.counter("runner.cells.total").value == 2

    def test_progress_reports_every_cell(self, tmp_path):
        seen = []
        cells = [fast_cell(), fast_cell(policy="Async")]
        run_cells(
            cells,
            cache=ResultCache(tmp_path),
            progress=lambda done, total, cell, cached: seen.append(
                (done, total, cell.policy, cached)
            ),
        )
        assert [s[0] for s in seen] == [1, 2]
        assert all(s[1] == 2 and s[3] is False for s in seen)

    def test_unknown_policy_surfaces_cell_error(self):
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells([fast_cell(policy="Nope")])
        assert isinstance(excinfo.value.__cause__, ConfigError)


class TestRunCellsFailures:
    """Satellite: a raising cell names itself and keeps done/total sane."""

    def test_error_names_the_failed_cell(self):
        bad = fast_cell(policy="Nope")
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells([bad])
        assert bad.describe() in str(excinfo.value)

    def test_other_cells_still_complete_and_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = [fast_cell(), fast_cell(policy="Async")]
        cells = [good[0], fast_cell(policy="Nope"), good[1]]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, cache=cache)
        err = excinfo.value
        assert err.completed == 2
        assert err.total == 3
        assert len(err.failures) == 1
        assert err.failures[0][0].policy == "Nope"
        # the two good cells were cached despite the failure
        assert all(cache.get(cache_key(cell)) is not None for cell in good)

    def test_progress_stays_consistent_on_failure(self, tmp_path):
        seen = []
        cells = [fast_cell(), fast_cell(policy="Nope"), fast_cell(policy="Async")]
        with pytest.raises(CellExecutionError):
            run_cells(
                cells,
                cache=ResultCache(tmp_path),
                progress=lambda done, total, cell, cached: seen.append(
                    (done, total)
                ),
            )
        assert seen == [(1, 3), (2, 3)]

    def test_failure_in_pool_mode_matches_serial(self, tmp_path):
        cells = [fast_cell(), fast_cell(policy="Nope")]
        with pytest.raises(CellExecutionError) as serial:
            run_cells(cells, cache=ResultCache(tmp_path / "a"))
        with pytest.raises(CellExecutionError) as pooled:
            run_cells(cells, cache=ResultCache(tmp_path / "b"), workers=2)
        assert serial.value.completed == pooled.value.completed == 1
        assert (
            serial.value.failures[0][0].describe()
            == pooled.value.failures[0][0].describe()
        )

    def test_message_caps_listed_failures(self):
        cells = [fast_cell(policy="Nope", seed=seed) for seed in range(1, 9)]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells)
        message = str(excinfo.value)
        assert "8 of 8 cells failed" in message
        assert "3 more" in message


class TestExecutorSelection:
    """Tentpole: the executor backend is pluggable and validated."""

    def test_known_names(self):
        assert EXECUTOR_NAMES == ("inline", "pool", "queue")

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigError, match="executor"):
            run_cells([fast_cell()], executor="magic")

    def test_queue_requires_cache(self):
        with pytest.raises(ConfigError, match="cache"):
            run_cells([fast_cell()], executor="queue")

    def test_inline_and_explicit_inline_agree(self, tmp_path):
        cells = [fast_cell(), fast_cell(policy="Async")]
        assert run_cells(cells) == run_cells(cells, executor="inline")

    def test_queue_matches_inline_bit_for_bit(self, tmp_path):
        cells = [fast_cell(), fast_cell(policy="Async")]
        inline = run_cells(cells, cache=ResultCache(tmp_path / "a"))
        queued = run_cells(
            cells, cache=ResultCache(tmp_path / "b"), executor="queue"
        )
        assert inline == queued

    def test_queue_second_run_all_hits(self, tmp_path):
        from repro.telemetry import Telemetry

        cells = [fast_cell(), fast_cell(policy="Async")]
        cache = ResultCache(tmp_path)
        run_cells(cells, cache=cache, executor="queue")
        telemetry = Telemetry()
        run_cells(cells, cache=cache, executor="queue", telemetry=telemetry)
        assert telemetry.counter("runner.cache.hit").value == 2
        assert telemetry.counter("runner.cells.executed").value == 0


class TestFlushStatsMerge:
    """Satellite: concurrent flush_stats merges instead of clobbering."""

    def test_concurrent_flushes_all_counted(self, tmp_path):
        instances = []
        for _ in range(8):
            cache = ResultCache(tmp_path)
            cache.hits = 3
            cache.misses = 2
            cache.puts = 1
            instances.append(cache)
        barrier = threading.Barrier(len(instances))

        def flush(cache):
            barrier.wait()
            cache.flush_stats()

        threads = [
            threading.Thread(target=flush, args=(c,)) for c in instances
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = ResultCache(tmp_path).stats()
        assert stats.hits == 3 * len(instances)
        assert stats.misses == 2 * len(instances)
        assert stats.puts == 1 * len(instances)

    def test_flush_resets_in_memory_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.hits = 5
        cache.flush_stats()
        assert cache.hits == 0
        cache.flush_stats()  # second flush adds nothing
        assert ResultCache(tmp_path).stats().hits == 5

    def test_stale_stats_lock_is_broken(self, tmp_path):
        cache = ResultCache(tmp_path)
        lock = cache.root / "stats.json.lock"
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.touch()
        import os
        import time

        old = time.time() - 60.0
        os.utime(lock, times=(old, old))
        cache.hits = 1
        cache.flush_stats()
        assert ResultCache(tmp_path).stats().hits == 1
        assert not lock.exists()
