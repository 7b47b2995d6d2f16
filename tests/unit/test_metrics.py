"""Unit tests for metrics collection and the simulation result record."""

import pytest

from repro.sim.metrics import IdleBreakdown, ProcessRecord, SimulationResult
from repro.telemetry.ledger import CATEGORIES, TimeLedger


def record(pid, priority, finish, data_intensive=False):
    return ProcessRecord(
        pid=pid,
        name=f"p{pid}",
        priority=priority,
        data_intensive=data_intensive,
        finish_time_ns=finish,
        cpu_time_ns=0,
        memory_stall_ns=0,
        storage_wait_ns=0,
        major_faults=0,
        minor_faults=0,
        context_switches=0,
    )


def make_result(records):
    return SimulationResult(
        policy="Sync",
        batch="test",
        makespan_ns=100,
        idle=IdleBreakdown(),
        processes=records,
        demand_cache_misses=0,
        demand_cache_accesses=0,
        major_faults=0,
        minor_faults=0,
        context_switches=0,
        prefetch_issued=0,
        prefetch_hits=0,
        preexec_instructions=0,
        preexec_lines_warmed=0,
        instructions_committed=0,
    )


class TestIdleBreakdown:
    def test_total_includes_ctx_switch_time(self):
        idle = IdleBreakdown(
            memory_stall_ns=10,
            sync_storage_ns=20,
            async_idle_ns=30,
            ctx_switch_overhead_ns=40,
            handler_overhead_ns=99,
        )
        assert idle.total_idle_ns == 100
        assert idle.total_overhead_ns == 99

    def test_view_of_ledger_cells(self):
        ledger = TimeLedger()
        for ns, category in enumerate(CATEGORIES, start=1):
            ledger.charge(0, None, category, ns)
        idle = IdleBreakdown.from_cells(ledger.cells())
        assert idle == IdleBreakdown(
            memory_stall_ns=2,  # memory_stall
            sync_storage_ns=4 + 5,  # spin_wait + stolen_run
            async_idle_ns=10 + 11 + 12,  # idle + dma_wait + demoted_wait
            ctx_switch_overhead_ns=7,  # ctx_switch
            handler_overhead_ns=3,  # handler
        )


class TestFinishTimeSplit:
    def test_priority_ordering(self):
        result = make_result(
            [record(0, 5, 100), record(1, 30, 200), record(2, 10, 300)]
        )
        ordered = result.finish_times_by_priority()
        assert [r.priority for r in ordered] == [30, 10, 5]

    def test_top_and_bottom_half_means(self):
        result = make_result(
            [
                record(0, 40, 100),
                record(1, 30, 200),
                record(2, 20, 300),
                record(3, 10, 400),
            ]
        )
        assert result.mean_finish_top_half_ns() == 150  # priorities 40, 30
        assert result.mean_finish_bottom_half_ns() == 350

    def test_odd_count_gives_bottom_the_middle(self):
        result = make_result(
            [record(0, 30, 100), record(1, 20, 200), record(2, 10, 300)]
        )
        assert result.mean_finish_top_half_ns() == 100
        assert result.mean_finish_bottom_half_ns() == 250

    def test_single_process_is_both_halves(self):
        result = make_result([record(0, 10, 100)])
        assert result.mean_finish_top_half_ns() == 100
        assert result.mean_finish_bottom_half_ns() == 100

    def test_total_idle_property(self):
        result = make_result([record(0, 10, 100)])
        assert result.total_idle_ns == result.idle.total_idle_ns
