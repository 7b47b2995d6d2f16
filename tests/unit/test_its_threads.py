"""Direct unit tests of the two ITS kernel threads."""

import dataclasses

import pytest

from repro.common.config import MachineConfig
from repro.core import ITSPolicy
from repro.core.recovery import StateRecoveryPolicy
from repro.core.self_improving import SelfImprovingThread
from repro.cpu.isa import Load
from repro.kernel.kthread import KernelThread
from repro.kernel.process import ProcessState
from repro.sim.simulator import Simulation, WorkloadInstance
from repro.telemetry.ledger import STOLEN_RUN

from tests.conftest import make_linear_trace


def make_sim(config, workloads, policy):
    return Simulation(config, workloads, policy, batch_name="threads")


class TestSelfImproving:
    def test_steals_window_on_high_priority_fault(self, small_config):
        policy = ITSPolicy()
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(4), priority=30),
        ]
        sim = make_sim(small_config, workloads, policy)
        sim.run()
        assert policy.improving.windows_stolen > 0
        assert sim.machine.ledger.cells_by_process()[0][STOLEN_RUN] > 0
        assert policy.improving.kthread.activations == policy.selection.high_selections

    def test_too_small_window_steals_nothing(self, small_config):
        # Kernel entry cost above the whole wait window: the thread
        # activates but gets a zero budget and never checkpoints.
        config = dataclasses.replace(
            small_config,
            its=dataclasses.replace(small_config.its, kernel_entry_ns=10**7),
        )
        policy = ITSPolicy()
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(3), priority=30)
        ]
        sim = make_sim(config, workloads, policy)
        result = sim.run()
        assert policy.improving.windows_stolen == 0
        assert policy.recovery.checkpoints == 0
        assert result.major_faults > 0  # faults still serviced

    def test_window_accounted_as_sync_idle(self, small_config):
        policy = ITSPolicy(prefetch=False, preexec=False, self_sacrifice=False)
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(3), priority=30)
        ]
        sim = make_sim(small_config, workloads, policy)
        result = sim.run()
        # With all stealing disabled, ITS degenerates to Sync: the full
        # wait is idle.
        assert result.idle.sync_storage_ns > 0
        per_fault = result.idle.sync_storage_ns / result.major_faults
        assert per_fault > small_config.device.access_latency_ns

    def test_recovery_always_balanced(self, small_config):
        policy = ITSPolicy()
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(6), priority=30),
            WorkloadInstance(
                name="lo", trace=make_linear_trace(6, base_va=0x90_0000), priority=3
            ),
        ]
        make_sim(small_config, workloads, policy).run()
        assert policy.recovery.checkpoints == policy.recovery.restores
        assert not policy.recovery.armed

    def test_registers_clean_after_run(self, small_config):
        policy = ITSPolicy()
        workloads = [
            WorkloadInstance(name="hi", trace=make_linear_trace(5), priority=30)
        ]
        sim = make_sim(small_config, workloads, policy)
        sim.run()
        for process in sim.processes:
            assert process.registers.invalid_count() == 0


class TestSelfSacrificing:
    def _two_tier(self, small_config, policy):
        # lo faults while hi sits at the queue head -> demotion.
        workloads = [
            WorkloadInstance(
                name="lo", trace=make_linear_trace(6), priority=2
            ),
            WorkloadInstance(
                name="hi", trace=make_linear_trace(6, base_va=0x90_0000), priority=35
            ),
        ]
        sim = make_sim(small_config, workloads, policy)
        return sim, sim.run()

    def test_low_priority_faults_demoted(self, small_config):
        policy = ITSPolicy()
        __, result = self._two_tier(small_config, policy)
        assert policy.sacrificing.sacrifices > 0
        lo = next(p for p in result.processes if p.name == "lo")
        assert lo.context_switches > 0  # it yielded the CPU

    def test_sacrifice_prefetches_over_dma(self, small_config):
        policy = ITSPolicy()
        self._two_tier(small_config, policy)
        # The demoted swap-ins keep the kernel's cluster readahead.
        assert policy.sacrificing.prefetcher is not None

    def test_sacrifice_disabled_keeps_low_synchronous(self, small_config):
        policy = ITSPolicy(self_sacrifice=False)
        __, result = self._two_tier(small_config, policy)
        assert policy.sacrificing.sacrifices == 0
        lo = next(p for p in result.processes if p.name == "lo")
        assert lo.storage_wait_ns > 0  # busy-waited instead


class TestKthreadBudgetArithmetic:
    def test_budget_never_negative(self):
        thread = KernelThread("t", entry_cost_ns=500)
        for window in (0, 100, 499, 500, 501, 10_000):
            __, budget = thread.activate(0, window)
            assert budget >= 0
            assert budget == max(0, window - 500)
