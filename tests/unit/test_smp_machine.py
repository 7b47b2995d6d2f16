"""Unit tests for the SMP machine: per-core clocks, the ledger cells
their gaps and overheads are charged to, and cross-core TLB shootdowns
over the shared memory hierarchy."""

import pytest

from repro.common.config import with_cores
from repro.common.errors import SimulationError
from repro.sim.machine import SMPMachine
from repro.telemetry.ledger import IDLE, MIGRATION, TLB_SHOOTDOWN
from repro.vm.replacement import GlobalLRUPolicy


@pytest.fixture
def smp(small_config):
    return SMPMachine(with_cores(small_config, 2), GlobalLRUPolicy())


class TestTopology:
    def test_core_zero_adopts_base_components(self, smp):
        assert smp.cores[0].tlb is smp.tlb
        assert smp.cores[0].cpu is smp.cpu
        assert smp.cores[0].context_switch is smp.context_switch

    def test_private_components_are_distinct(self, smp):
        assert smp.cores[0].tlb is not smp.cores[1].tlb
        assert smp.cores[0].cpu is not smp.cores[1].cpu

    def test_memory_hierarchy_is_shared(self, smp):
        assert smp.cores[0].cpu.hierarchy is smp.cores[1].cpu.hierarchy

    def test_activate_rebinds_aliases(self, smp):
        smp.activate(1)
        assert smp.tlb is smp.cores[1].tlb
        assert smp.cpu is smp.cores[1].cpu
        assert smp.context_switch is smp.cores[1].context_switch
        assert smp.now_ns == smp.cores[1].now_ns


class TestTimeBuckets:
    def test_advance_moves_only_the_active_clock(self, smp):
        smp.activate(0)
        smp.advance(100)
        assert smp.cores[0].now_ns == 100
        assert smp.cores[1].now_ns == 0
        # Plain advance charges nothing: its caller owns the category.
        assert smp.ledger.total_ns() == 0

    def test_advance_idle_to_charges_gap(self, smp):
        smp.advance(100)
        smp.advance_idle_to(250)
        assert smp.ledger.cells_by_core()[0][IDLE] == 150
        assert smp.cores[0].now_ns == 250

    def test_advance_idle_to_past_time_is_noop(self, smp):
        smp.advance(100)
        smp.advance_idle_to(50)
        assert smp.ledger.total_ns() == 0
        assert smp.cores[0].now_ns == 100

    def test_charge_steal(self, smp):
        smp.activate(1)
        smp.charge_steal(2000)
        assert smp.ledger.cells_by_core()[1][MIGRATION] == 2000
        assert smp.ledger.core_total_ns(0) == 0
        assert smp.cores[1].now_ns == 2000

    def test_clocks_are_independent(self, smp):
        smp.activate(0)
        smp.advance(100)
        smp.activate(1)
        smp.advance(40)
        assert smp.cores[0].now_ns == 100
        assert smp.cores[1].now_ns == 40

    def test_finalize_drags_laggards_to_makespan(self, smp):
        smp.activate(0)
        smp.advance(100)
        smp.activate(1)
        smp.advance(40)
        makespan = smp.finalize()
        assert makespan == 100
        assert smp.ledger.cells_by_core()[1][IDLE] == 60
        assert 0 not in smp.ledger.cells_by_core()
        assert all(core.now_ns == 100 for core in smp.cores)
        assert smp.now_ns == 100


class TestEvents:
    def test_fire_next_event_without_events_is_deadlock(self, smp):
        with pytest.raises(SimulationError):
            smp.fire_next_event()

    def test_fire_next_event_leaves_clocks_alone(self, smp):
        fired = []
        smp.events.schedule_at(500, tag="t", callback=lambda e: fired.append(e))
        smp.fire_next_event()
        assert fired
        assert smp.cores[0].now_ns == 0
        assert smp.cores[1].now_ns == 0


class TestShootdown:
    def install(self, smp, pid, vpn):
        smp.memory.register_process(pid, [vpn])
        return smp.memory.install_page(pid, vpn)

    def test_remote_entry_costs_one_ipi(self, smp):
        frame = self.install(smp, 7, 3)
        smp.cores[1].tlb.insert(7, 3, frame)
        smp.activate(0)
        smp._on_page_evicted(7, 3, frame)
        assert smp.shootdown_ipis == 1
        cost = smp.config.cores.tlb_shootdown_ns
        assert smp.cores[0].pending_shootdown_ns == cost
        assert smp.cores[1].tlb.lookup(7, 3) is None

    def test_local_entry_is_free(self, smp):
        frame = self.install(smp, 7, 3)
        smp.activate(0)
        smp.tlb.insert(7, 3, frame)
        smp._on_page_evicted(7, 3, frame)
        assert smp.shootdown_ipis == 0
        assert smp.cores[0].pending_shootdown_ns == 0
        assert smp.cores[0].tlb.lookup(7, 3) is None

    def test_absent_entry_costs_nothing(self, smp):
        frame = self.install(smp, 7, 3)
        smp.activate(0)
        smp._on_page_evicted(7, 3, frame)
        assert smp.shootdown_ipis == 0

    def test_drain_pays_cost_into_shootdown_bucket(self, smp):
        frame = self.install(smp, 7, 3)
        smp.cores[1].tlb.insert(7, 3, frame)
        smp.activate(0)
        smp._on_page_evicted(7, 3, frame)
        smp.drain_pending_shootdowns()
        cost = smp.config.cores.tlb_shootdown_ns
        assert smp.ledger.cells_by_core()[0][TLB_SHOOTDOWN] == cost
        assert smp.cores[0].now_ns == cost
        assert smp.cores[0].pending_shootdown_ns == 0
        # Draining again is a no-op.
        smp.drain_pending_shootdowns()
        assert smp.ledger.cells_by_core()[0][TLB_SHOOTDOWN] == cost


class TestAggregates:
    def test_instructions_sum_over_cores(self, smp):
        smp.cores[0].cpu.instructions_committed = 10
        smp.cores[1].cpu.instructions_committed = 5
        assert smp.total_instructions_committed() == 15

    def test_context_switches_sum_over_cores(self, smp):
        smp.cores[0].context_switch.switches = 3
        smp.cores[1].context_switch.switches = 4
        assert smp.total_context_switches() == 7
