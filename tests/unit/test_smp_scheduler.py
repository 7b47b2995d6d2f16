"""Unit tests for the SMP scheduler facade: placement, fault affinity,
and work stealing over per-core round-robin queues."""

import pytest

from repro.common.config import CoreConfig, SchedulerConfig
from repro.common.errors import SimulationError
from repro.cpu.isa import Compute
from repro.kernel.process import Process
from repro.kernel.smp import SMPScheduler
from repro.telemetry import Telemetry

CONFIG = SchedulerConfig(max_time_slice_ns=800, min_time_slice_ns=5)


def make_process(pid, priority=10):
    return Process(pid=pid, name=f"p{pid}", priority=priority, trace=[Compute(dst=0)])


def make_sched(count=2, clock=lambda: 0, **core_kw):
    return SMPScheduler(CONFIG, CoreConfig(count=count, **core_kw), clock)


class TestPlacement:
    def test_round_robin_places_by_pid(self):
        sched = make_sched(count=2)
        for pid in range(4):
            sched.add(make_process(pid))
        assert sched.core_of == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_least_loaded_picks_shortest_queue(self):
        sched = make_sched(count=2, placement="least_loaded")
        sched.queues[0].add(make_process(10))
        sched.add(make_process(0))  # core 1 is empty
        assert sched.core_of[0] == 1

    def test_least_loaded_ties_to_lowest_core(self):
        sched = make_sched(count=3, placement="least_loaded")
        assert sched.place(make_process(99)) == 0

    def test_hook_overrides_policy(self):
        sched = make_sched(count=4)
        sched.set_placement(lambda process, s: 3)
        sched.add(make_process(0))  # pid % 4 would say core 0
        assert sched.core_of[0] == 3
        sched.set_placement(None)
        sched.add(make_process(1))
        assert sched.core_of[1] == 1

    def test_hook_out_of_range_raises(self):
        sched = make_sched(count=2)
        sched.set_placement(lambda process, s: 2)
        with pytest.raises(SimulationError):
            sched.add(make_process(0))

    def test_add_stamps_ready_since_from_clock(self):
        now = [1234]
        sched = make_sched(count=2, clock=lambda: now[0])
        p = make_process(0)
        sched.add(p)
        assert p.ready_since_ns == 1234


class TestFaultAffinity:
    def test_unblock_routes_to_owning_core(self):
        sched = make_sched(count=2)
        a = make_process(1)  # core 1
        sched.add(a)
        sched.active = 1
        sched.dispatch()
        sched.block_current()
        # Completion processing may run while core 0 is active.
        sched.active = 0
        sched.unblock(a)
        assert sched.queues[1].ready_count() == 1
        assert sched.queues[0].ready_count() == 0

    def test_unblock_unowned_pid_raises(self):
        sched = make_sched(count=2)
        with pytest.raises(SimulationError):
            sched.unblock(make_process(7))

    def test_unblock_ready_ns_stamps_process(self):
        sched = make_sched(count=2)
        a = make_process(0)
        sched.add(a)
        sched.dispatch()
        sched.block_current()
        sched.unblock(a, ready_ns=5555)
        assert a.ready_since_ns == 5555

    def test_blocked_count_sums_cores(self):
        sched = make_sched(count=2)
        for pid in range(2):
            sched.add(make_process(pid))
        for core in range(2):
            sched.active = core
            sched.dispatch()
            sched.block_current()
        assert sched.blocked_count() == 2

    def test_finish_drops_ownership(self):
        sched = make_sched(count=2)
        sched.add(make_process(0))
        sched.dispatch()
        sched.finish_current(0)
        assert 0 not in sched.core_of
        assert not sched.has_work()

    def test_preempt_restamps_ready_since(self):
        now = [0]
        sched = make_sched(count=2, clock=lambda: now[0])
        a = make_process(0)
        sched.add(a)
        sched.dispatch()
        now[0] = 777
        sched.preempt_current()
        assert a.ready_since_ns == 777


class TestFacade:
    def test_active_core_selects_queue(self):
        sched = make_sched(count=2)
        a, b = make_process(0), make_process(1)
        sched.add(a)
        sched.add(b)
        sched.active = 0
        assert sched.peek_next() is a
        sched.active = 1
        assert sched.peek_next() is b

    def test_core_runnable(self):
        sched = make_sched(count=2)
        sched.add(make_process(0))
        assert sched.core_runnable(0)
        assert not sched.core_runnable(1)
        sched.dispatch()
        assert sched.core_runnable(0)  # a running process counts
        sched.block_current()
        assert not sched.core_runnable(0)  # blocked-only does not

    def test_has_work_any_core(self):
        sched = make_sched(count=2)
        assert not sched.has_work()
        sched.add(make_process(1))  # core 1
        assert sched.has_work()


class TestWorkStealing:
    def loaded_sched(self, victim_pids=(0, 2, 4)):
        """Core 0 loaded (one running + rest ready), core 1 empty."""
        sched = make_sched(count=2)
        for pid in victim_pids:
            sched.add(make_process(pid))
        sched.active = 0
        sched.dispatch()
        return sched

    def test_steal_moves_tail_and_ownership(self):
        sched = self.loaded_sched()
        stolen = sched.try_steal(1)
        assert stolen is not None
        assert stolen.pid == 4  # tail of core 0's queue
        assert sched.core_of[4] == 1
        assert sched.queues[1].ready_count() == 1
        assert sched.queues[0].ready_count() == 1
        assert sched.steal_stats.attempts == 1
        assert sched.steal_stats.steals == 1

    def test_victim_is_most_loaded_tie_lowest(self):
        sched = make_sched(count=3)
        for pid in (0, 3, 1, 4):  # two each on cores 0 and 1
            sched.add(make_process(pid))
        assert sched.steal_victim(2) == 0

    def test_steal_leaves_victim_runnable(self):
        # Victim between dispatches with a single ready process: taking
        # it would leave the core with nothing to run.
        sched = make_sched(count=2)
        sched.add(make_process(0))
        assert sched.try_steal(1) is None
        assert sched.steal_stats.steals == 0

    def test_steal_allows_single_ready_behind_running(self):
        sched = self.loaded_sched(victim_pids=(0, 2))
        assert sched.try_steal(1) is not None

    def test_steal_refuses_resume_pending_tail(self):
        sched = self.loaded_sched()
        sched.queues[0]._ready[-1].resume_pending = True
        assert sched.try_steal(1) is None
        assert sched.steal_stats.attempts == 1
        assert sched.steal_stats.steals == 0
        assert sched.queues[0].ready_count() == 2  # nothing dropped

    def test_work_steal_disabled(self):
        sched = make_sched(count=2, work_steal=False)
        for pid in (0, 2, 4):
            sched.add(make_process(pid))
        assert sched.try_steal(1) is None
        assert sched.steal_stats.attempts == 0


class TestReporting:
    def test_stats_aggregate_across_cores(self):
        sched = make_sched(count=2)
        for pid in range(2):
            sched.add(make_process(pid))
        for core in range(2):
            sched.active = core
            sched.dispatch()
            sched.preempt_current()
        total = sched.stats
        assert total.dispatches == 2
        assert total.preemptions == 2

    def test_publish_telemetry_per_core_and_aggregate(self):
        sched = make_sched(count=2)
        for pid in range(2):
            sched.add(make_process(pid))
        sched.dispatch()
        sched.try_steal(1)  # no victim: attempts only
        registry = Telemetry().registry
        sched.publish_telemetry(registry)
        assert registry.gauge("sched.core0.dispatches").value == 1
        assert registry.gauge("sched.core1.dispatches").value == 0
        assert registry.gauge("sched.dispatches").value == 1
        assert registry.gauge("sched.steal.attempts").value == 1
        assert registry.gauge("sched.steal.count").value == 0
        assert registry.gauge("sched.steal.migration_ns").value == 0
