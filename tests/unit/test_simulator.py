"""Unit tests for the simulation loop itself."""

import pytest

from repro.baselines import AsyncIOPolicy, SyncIOPolicy
from repro.common.errors import SimulationError
from repro.cpu.isa import Compute, Load
from repro.sim.simulator import Simulation, WorkloadInstance

from tests.conftest import make_linear_trace


class TestConstruction:
    def test_rejects_empty_batch(self, small_config):
        with pytest.raises(SimulationError):
            Simulation(small_config, [], SyncIOPolicy())

    def test_rejects_memoryless_workload(self, small_config):
        workloads = [
            WorkloadInstance(name="w", trace=[Compute(dst=0)], priority=1)
        ]
        with pytest.raises(SimulationError):
            Simulation(small_config, workloads, SyncIOPolicy())

    def test_rejects_touch_outside_mapping(self, small_config):
        workloads = [
            WorkloadInstance(
                name="w",
                trace=[Load(dst=0, vaddr=0x100000)],
                priority=1,
                mapped_vpns=frozenset({0x999}),
            )
        ]
        with pytest.raises(SimulationError):
            Simulation(small_config, workloads, SyncIOPolicy())

    def test_mapped_vpns_register_extra_pages(self, small_config):
        workloads = [
            WorkloadInstance(
                name="w",
                trace=[Load(dst=0, vaddr=0x100 << 12)],
                priority=1,
                mapped_vpns=frozenset({0x100, 0x101, 0x102}),
            )
        ]
        sim = Simulation(small_config, workloads, SyncIOPolicy())
        assert sim.machine.memory.mm_of(0).footprint_pages == 3


class TestExecutionAccounting:
    def test_every_instruction_commits(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(3), priority=10),
            WorkloadInstance(
                name="w1", trace=make_linear_trace(3, base_va=0x900000), priority=20
            ),
        ]
        total = sum(len(w.trace) for w in workloads)
        result = Simulation(small_config, workloads, SyncIOPolicy()).run()
        assert result.instructions_committed == total

    def test_all_processes_finish(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(3), priority=10),
        ]
        result = Simulation(small_config, workloads, SyncIOPolicy()).run()
        assert all(p.finish_time_ns <= result.makespan_ns for p in result.processes)

    def test_makespan_positive_and_bounded(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(2), priority=10)
        ]
        result = Simulation(small_config, workloads, SyncIOPolicy()).run()
        assert 0 < result.makespan_ns < 10**9

    def test_finished_process_memory_released(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(3), priority=10)
        ]
        sim = Simulation(small_config, workloads, SyncIOPolicy())
        sim.run()
        assert sim.machine.memory.frames.used_frames == 0

    def test_result_batch_and_policy_names(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(2), priority=10)
        ]
        result = Simulation(
            small_config, workloads, SyncIOPolicy(), batch_name="mybatch"
        ).run()
        assert result.batch == "mybatch"
        assert result.policy == "Sync"


class TestPrefetchService:
    def test_issue_prefetch_lands_in_swap_cache(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(4), priority=10)
        ]
        sim = Simulation(small_config, workloads, SyncIOPolicy())
        assert sim.issue_prefetch(0, 0x100 + 1)
        sim.machine.advance(10**6)
        assert sim.machine.memory.swap_cache.contains(0, 0x101)

    def test_duplicate_prefetch_rejected(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(4), priority=10)
        ]
        sim = Simulation(small_config, workloads, SyncIOPolicy())
        assert sim.issue_prefetch(0, 0x101)
        assert not sim.issue_prefetch(0, 0x101)  # in flight

    def test_prefetch_of_unmapped_page_rejected(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(4), priority=10)
        ]
        sim = Simulation(small_config, workloads, SyncIOPolicy())
        assert not sim.issue_prefetch(0, 0x999)

    def test_prefetch_of_resident_page_rejected(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(4), priority=10)
        ]
        sim = Simulation(small_config, workloads, SyncIOPolicy())
        sim.machine.memory.install_page(0, 0x100)
        assert not sim.issue_prefetch(0, 0x100)

    def test_prefetch_after_finish_not_installed(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(2), priority=10)
        ]
        sim = Simulation(small_config, workloads, SyncIOPolicy())
        sim.issue_prefetch(0, 0x101)
        sim.run()  # finishes, releasing memory; completion fires mid-run
        assert sim.machine.memory.frames.used_frames == 0


class TestContextSwitchAccounting:
    def test_switches_between_different_pids_cost(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(3), priority=10),
            WorkloadInstance(
                name="w1", trace=make_linear_trace(3, base_va=0x900000), priority=10
            ),
        ]
        result = Simulation(small_config, workloads, AsyncIOPolicy()).run()
        assert result.context_switches > 0
        assert result.idle.ctx_switch_overhead_ns == (
            result.context_switches * small_config.scheduler.context_switch_ns
        )

    def test_solo_process_never_switches(self, small_config):
        workloads = [
            WorkloadInstance(name="w0", trace=make_linear_trace(3), priority=10)
        ]
        result = Simulation(small_config, workloads, SyncIOPolicy()).run()
        assert result.context_switches == 0
