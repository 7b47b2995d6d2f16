"""Paper-spec conformance: Section 2.1 context-switch claims and the
two evaluation footnotes defining the Sync_Runahead and Sync_Prefetch
baselines."""

import pytest

from repro.baselines import SyncIOPolicy, SyncPrefetchPolicy, SyncRunaheadPolicy
from repro.sim.simulator import Simulation, WorkloadInstance

from tests.conftest import make_linear_trace


class TestSection211_ContextSwitch:
    """'Frequently performing context switching may cause frequent CPU
    cache misses and TLB shootdown.'"""

    def test_switch_flushes_tlb(self, machine):
        machine.memory.register_process(1, [0x100])
        machine.memory.install_page(1, 0x100)
        frame = machine.memory.mm_of(1).pte_for(0x100).frame
        machine.tlb.insert(1, 0x100, frame)
        machine.context_switch.perform(outgoing_pid=1)
        assert machine.tlb.lookup(1, 0x100) is None
        assert machine.tlb.stats.flushes == 1

    def test_switch_displaces_cache_footprint(self, machine):
        for i in range(20):
            machine.hierarchy.llc.access(i * 64, owner=1)
        before = machine.hierarchy.llc.resident_lines_of(1)
        machine.context_switch.perform(outgoing_pid=1)
        after = machine.hierarchy.llc.resident_lines_of(1)
        assert after < before

    def test_switch_cost_is_microseconds(self, machine):
        cost = machine.context_switch.perform(outgoing_pid=None)
        assert cost >= 1_000  # 'several microseconds' territory


def _two_process_sim(config, policy):
    workloads = [
        WorkloadInstance(name="a", trace=make_linear_trace(6, per_page=8), priority=20),
        WorkloadInstance(
            name="b",
            trace=make_linear_trace(6, base_va=0x90_0000, per_page=8),
            priority=5,
        ),
    ]
    sim = Simulation(config, workloads, policy, batch_name="footnotes")
    return sim, sim.run()


class TestFootnote4_RunaheadTrigger:
    """'Traditional runahead execution runs the pre-execution during
    handling cache misses, but ours does the pre-execution during
    handling page faults.'"""

    def test_runahead_triggers_without_any_page_fault(self, small_config):
        # Pre-install every page: zero major faults remain, yet cache
        # misses still open pre-execute episodes — the trigger is the
        # miss, not the fault.
        trace = make_linear_trace(4, per_page=8)
        workloads = [WorkloadInstance(name="w", trace=trace, priority=10)]
        sim = Simulation(
            small_config, workloads, SyncRunaheadPolicy(), batch_name="fn4"
        )
        for vpn in range(0x100, 0x104):
            sim.machine.memory.install_page(0, vpn)
        result = sim.run()
        assert result.major_faults == 0
        assert sim.machine.preexec_engine.stats.episodes > 0

    def test_plain_sync_never_preexecutes(self, small_config):
        __, result = _two_process_sim(small_config, SyncIOPolicy())
        assert result.preexec_instructions == 0


class TestFootnote5_PageOnPageUnit:
    """'It groups a static number of pages with continuous page id into
    a page-on-page unit and fetches an entire unit during handling a
    page fault.'"""

    def test_unit_is_aligned_not_sliding(self, small_config):
        # A fault on the unit's LAST page must prefetch the unit's
        # earlier pages (aligned grouping), not the following ones
        # (which a sliding window would).
        from repro.telemetry import Telemetry

        policy = SyncPrefetchPolicy(unit_pages=4)
        base_vpn = 0x90_0000 >> 12
        assert base_vpn % 4 == 0  # the unit boundary sits at base_vpn
        trace = [
            # Touch the last page of the first unit, then nothing else.
            *make_linear_trace(1, base_va=0x90_0000 + 3 * 4096)
        ]
        telemetry = Telemetry()
        workloads = [
            WorkloadInstance(
                name="w",
                trace=trace,
                priority=5,
                mapped_vpns=frozenset(range(base_vpn, base_vpn + 8)),
            )
        ]
        Simulation(
            small_config, workloads, policy, batch_name="unit", telemetry=telemetry
        ).run()
        issued = {
            e.args["vpn"]
            for e in telemetry.tracer.of_track("events")
            if e.name == "prefetch_issue"
        }
        # The aligned unit's other members were fetched; nothing beyond.
        assert issued == {base_vpn, base_vpn + 1, base_vpn + 2}

    def test_unit_fetch_happens_during_the_fault(self, small_config):
        sim, result = _two_process_sim(small_config, SyncPrefetchPolicy(unit_pages=4))
        # Prefetches were issued (during fault handling) and converted
        # later majors to minors.
        assert result.prefetch_issued > 0
        assert result.minor_faults > 0
