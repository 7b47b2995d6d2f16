"""Unit tests for the context-switch model, the page-fault handler, and
the kernel-thread abstraction."""

import pytest

from repro.common.config import SchedulerConfig
from repro.kernel.kthread import KernelThread


class TestContextSwitch:
    def test_direct_cost(self, machine):
        cost = machine.context_switch.perform(outgoing_pid=None)
        assert cost == machine.config.scheduler.context_switch_ns
        assert machine.context_switch.switches == 1

    def test_flushes_tlb(self, machine):
        machine.tlb.insert(1, 5, 7)
        machine.context_switch.perform(outgoing_pid=1)
        assert machine.tlb.lookup(1, 5) is None

    def test_pollutes_outgoing_cache_lines(self, machine):
        for i in range(10):
            machine.hierarchy.llc.access(i * 64, owner=1)
        machine.context_switch.perform(outgoing_pid=1)
        fraction = machine.config.scheduler.switch_pollution_fraction
        assert machine.context_switch.lines_polluted == int(10 * fraction)

    def test_no_pollution_without_outgoing(self, machine):
        for i in range(10):
            machine.hierarchy.llc.access(i * 64, owner=1)
        machine.context_switch.perform(outgoing_pid=None)
        assert machine.context_switch.lines_polluted == 0


class TestFaultHandler:
    def test_major_fault_timing(self, machine):
        machine.memory.register_process(1, [0x100])
        fault = machine.fault_handler.begin_major_fault(1, 0x100, now_ns=1000)
        assert fault.handler_done_ns == 1000 + machine.config.fault_handler_ns
        # Device latency + PCIe transfer on top of the handler exit.
        assert fault.io_done_ns > fault.handler_done_ns + machine.config.device.access_latency_ns

    def test_completion_event_fires(self, machine):
        machine.memory.register_process(1, [0x100])
        seen = []
        fault = machine.fault_handler.begin_major_fault(
            1, 0x100, now_ns=0, on_complete=lambda req, t: seen.append((req.vpn, t))
        )
        machine.advance_to(fault.io_done_ns)
        assert seen == [(0x100, fault.io_done_ns)]

    def test_counters(self, machine):
        machine.memory.register_process(1, [0x100, 0x101])
        machine.fault_handler.begin_major_fault(1, 0x100, 0)
        machine.fault_handler.begin_major_fault(1, 0x101, 0)
        assert machine.fault_handler.major_faults == 2
        assert (
            machine.fault_handler.handler_time_ns
            == 2 * machine.config.fault_handler_ns
        )


class TestKernelThread:
    def test_activation_shrinks_budget_by_entry_cost(self):
        thread = KernelThread("t", entry_cost_ns=300)
        start, budget = thread.activate(now_ns=1000, budget_ns=2000)
        assert start == 1300
        assert budget == 1700
        assert thread.activations == 1

    def test_window_smaller_than_entry_yields_zero(self):
        thread = KernelThread("t", entry_cost_ns=300)
        _, budget = thread.activate(now_ns=0, budget_ns=200)
        assert budget == 0
