"""Parallel/cached sweep execution matches serial execution exactly.

The ISSUE-2 acceptance contract: ``workers=1`` and ``workers=4``
produce identical sweep rows, and a repeated run against the same cache
is 100% hits (verified through the runner's telemetry counters).
"""

from repro.analysis.runner import ResultCache, run_grid
from repro.analysis.sweeps import sweep_device_latency
from repro.common.config import MachineConfig
from repro.sim.batch import batch_names
from repro.telemetry import Telemetry

FAST = dict(policies=("Sync", "Async"), batch="No_Data_Intensive", seed=1, scale=0.2)
LATENCIES = [1, 30]


class TestWorkerCountInvariance:
    def test_serial_and_parallel_rows_identical(self):
        serial = sweep_device_latency(LATENCIES, workers=1, **FAST)
        parallel = sweep_device_latency(LATENCIES, workers=4, **FAST)
        assert [r.value for r in serial] == [r.value for r in parallel]
        for s_row, p_row in zip(serial, parallel):
            assert s_row.results == p_row.results  # bit-for-bit dataclass equality

    def test_parallel_grid_matches_serial_grid(self):
        config = MachineConfig()
        kwargs = dict(
            batches=batch_names()[:1],
            policies=["Sync", "ITS"],
            seeds=(1,),
            scale=0.2,
        )
        serial = run_grid(config, workers=1, **kwargs)
        parallel = run_grid(config, workers=4, **kwargs)
        assert serial == parallel


class TestResumability:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold_t = Telemetry()
        cold = sweep_device_latency(
            LATENCIES, workers=4, cache=cache, telemetry=cold_t, **FAST
        )
        expected_cells = len(LATENCIES) * len(FAST["policies"])
        assert cold_t.counter("runner.cache.miss").value == expected_cells
        assert cold_t.counter("runner.cache.hit").value == 0

        warm_t = Telemetry()
        warm = sweep_device_latency(
            LATENCIES, workers=4, cache=cache, telemetry=warm_t, **FAST
        )
        assert warm_t.counter("runner.cache.hit").value == expected_cells
        assert warm_t.counter("runner.cache.miss").value == 0
        assert warm_t.counter("runner.cells.executed").value == 0
        for c_row, w_row in zip(cold, warm):
            assert c_row.results == w_row.results

    def test_interrupted_grid_resumes(self, tmp_path):
        """Cells cached by a partial run are reused by the full run."""
        cache = ResultCache(tmp_path)
        sweep_device_latency(LATENCIES[:1], cache=cache, **FAST)  # "interrupted"
        telemetry = Telemetry()
        sweep_device_latency(LATENCIES, cache=cache, telemetry=telemetry, **FAST)
        assert telemetry.counter("runner.cache.hit").value == len(FAST["policies"])
        assert telemetry.counter("runner.cache.miss").value == len(FAST["policies"])
