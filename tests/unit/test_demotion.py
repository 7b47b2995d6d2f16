"""Graceful degradation: ITS demotes stalled steal windows to async.

Covers the demotion decision (window vs deadline), state-recovery
correctness (registers equal the pre-ITS checkpoint), the async-style
block/resume mechanics, and the accounting contract.
"""

import dataclasses

import pytest

from repro.common.config import FaultConfig, MachineConfig
from repro.core import ITSPolicy
from repro.faults import with_fault_profile
from repro.kernel.process import ProcessState
from repro.sim.metrics import IdleBreakdown
from repro.sim.simulator import Simulation, WorkloadInstance
from repro.telemetry.ledger import SPIN_WAIT, STOLEN_RUN

from tests.conftest import make_linear_trace


def demoting_config(base: MachineConfig, demote_after_ns: int = 1000) -> MachineConfig:
    """Fault layer on, fixed latencies, deadline below every window —
    every self-improving steal window demotes deterministically."""
    return dataclasses.replace(
        base,
        faults=FaultConfig(enabled=True, demote_after_ns=demote_after_ns),
    )


def make_sim(config, workloads, policy):
    return Simulation(config, workloads, policy, batch_name="demotion")


class TestDemotionDecision:
    def test_every_window_demotes_under_tiny_deadline(self, small_config):
        policy = ITSPolicy()
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(5), priority=30)
        ]
        sim = make_sim(demoting_config(small_config), workloads, policy)
        result = sim.run()
        assert policy.improving.demotions > 0
        assert policy.demotions == policy.improving.demotions
        assert result.major_faults > 0

    def test_no_demotion_with_roomy_deadline(self, small_config):
        policy = ITSPolicy()
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(5), priority=30)
        ]
        config = demoting_config(small_config, demote_after_ns=10**9)
        sim = make_sim(config, workloads, policy)
        sim.run()
        assert policy.improving.demotions == 0
        assert policy.improving.windows_stolen > 0

    def test_no_demotion_when_faults_disabled(self, small_config):
        policy = ITSPolicy()
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(5), priority=30)
        ]
        sim = make_sim(small_config, workloads, policy)
        sim.run()
        assert policy.improving.demotions == 0

    def test_results_identical_across_reruns(self, small_config):
        config = demoting_config(small_config)
        outcomes = []
        for _ in range(2):
            policy = ITSPolicy()
            workloads = [
                WorkloadInstance(name="hi", trace=make_linear_trace(6), priority=30)
            ]
            outcomes.append(make_sim(config, workloads, policy).run())
        assert outcomes[0] == outcomes[1]


class TestDemotionMechanics:
    def _demote_one_fault(self, small_config):
        """Drive one fault through the demotion path by hand; returns
        (sim, policy, process, shadow checkpoint taken pre-fault)."""
        policy = ITSPolicy()
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(5), priority=30)
        ]
        sim = make_sim(demoting_config(small_config), workloads, policy)
        process = sim.scheduler.dispatch()
        before = process.registers.checkpoint()
        policy.improving.handle_fault(sim, process, vpn=0x100)
        return sim, policy, process, before

    def test_registers_restored_to_pre_its_checkpoint(self, small_config):
        sim, policy, process, before = self._demote_one_fault(small_config)
        assert policy.improving.demotions == 1
        # Whatever the speculative pre-execution scribbled, state
        # recovery put the architectural state back.
        assert process.registers.checkpoint() == before

    def test_process_blocks_then_resumes_at_queue_head(self, small_config):
        sim, policy, process, _ = self._demote_one_fault(small_config)
        assert process.state is ProcessState.BLOCKED
        assert sim.scheduler.current is None
        # Let the demand I/O complete: the process re-enters at the
        # queue head flagged for resume with its residual slice.
        sim.machine.advance(10**9)
        assert process.state is ProcessState.READY
        assert sim.scheduler.peek_next() is process
        assert process.resume_pending

    def test_page_installed_on_completion(self, small_config):
        sim, policy, process, _ = self._demote_one_fault(small_config)
        assert not sim.machine.memory.is_resident_or_cached(process.pid, 0x100)
        sim.machine.advance(10**9)
        assert sim.machine.memory.is_resident_or_cached(process.pid, 0x100)

    def test_accounting_counts_fault_as_async(self, small_config):
        sim, policy, process, _ = self._demote_one_fault(small_config)
        assert process.stats.async_faults == 1
        assert process.stats.sync_faults == 0
        # Only the stolen deadline slice is synchronous storage wait.
        deadline = sim.config.faults.demote_after_ns
        ledger = sim.machine.ledger
        assert IdleBreakdown.from_cells(ledger.cells()).sync_storage_ns == deadline
        cells = ledger.cells_by_process()[process.pid]
        assert cells[SPIN_WAIT] + cells[STOLEN_RUN] == deadline

    def test_recovery_balanced_after_demotion_run(self, small_config):
        policy = ITSPolicy()
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(6), priority=30),
            WorkloadInstance(
                name="lo", trace=make_linear_trace(6, base_va=0x90_0000), priority=3
            ),
        ]
        sim = make_sim(demoting_config(small_config), workloads, policy)
        sim.run()
        assert policy.improving.demotions > 0
        assert policy.recovery.checkpoints == policy.recovery.restores
        assert not policy.recovery.armed


class TestDemotionTelemetry:
    def test_counters_and_spans_emitted(self, small_config):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        policy = ITSPolicy()
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(5), priority=30)
        ]
        sim = Simulation(
            demoting_config(small_config),
            workloads,
            policy,
            batch_name="demotion",
            telemetry=telemetry,
        )
        sim.run()
        assert telemetry.counter("its.demote.count").value == policy.improving.demotions
        names = set(telemetry.tracer.names())
        assert "fault.its.demote" in names
        assert "fault.its.demote.blocked" in names
