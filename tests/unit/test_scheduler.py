"""Unit tests for the SCHED_RR scheduler."""

import pytest

from repro.common.config import SchedulerConfig
from repro.common.errors import SimulationError
from repro.cpu.isa import Compute
from repro.kernel.process import Process, ProcessState
from repro.kernel.scheduler import RoundRobinScheduler


def make_process(pid, priority=10):
    return Process(pid=pid, name=f"p{pid}", priority=priority, trace=[Compute(dst=0)])


@pytest.fixture
def sched():
    return RoundRobinScheduler(
        SchedulerConfig(max_time_slice_ns=800, min_time_slice_ns=5)
    )


class TestDispatch:
    def test_dispatch_empty_returns_none(self, sched):
        assert sched.dispatch() is None

    def test_dispatch_grants_priority_slice(self, sched):
        process = make_process(1, priority=39)
        sched.add(process)
        dispatched = sched.dispatch()
        assert dispatched is process
        assert dispatched.state is ProcessState.RUNNING
        assert dispatched.slice_remaining_ns == 800

    def test_fifo_order(self, sched):
        a, b = make_process(1), make_process(2)
        sched.add(a)
        sched.add(b)
        assert sched.dispatch() is a

    def test_double_dispatch_raises(self, sched):
        sched.add(make_process(1))
        sched.dispatch()
        with pytest.raises(SimulationError):
            sched.dispatch()

    def test_add_requires_ready_state(self, sched):
        process = make_process(1)
        process.state = ProcessState.BLOCKED
        with pytest.raises(SimulationError):
            sched.add(process)

    def test_peek_next(self, sched):
        a, b = make_process(1), make_process(2)
        sched.add(a)
        sched.add(b)
        sched.dispatch()
        assert sched.peek_next() is b

    def test_peek_next_empty(self, sched):
        assert sched.peek_next() is None


class TestRoundRobin:
    def test_preempt_requeues_at_tail(self, sched):
        a, b = make_process(1), make_process(2)
        sched.add(a)
        sched.add(b)
        sched.dispatch()
        sched.preempt_current()
        assert sched.dispatch() is b
        assert sched.peek_next() is a

    def test_yield_counts_voluntary(self, sched):
        sched.add(make_process(1))
        sched.dispatch()
        sched.yield_current()
        assert sched.stats.voluntary_switches == 1

    def test_preempt_without_current_raises(self, sched):
        with pytest.raises(SimulationError):
            sched.preempt_current()


class TestBlocking:
    def test_block_and_unblock(self, sched):
        a, b = make_process(1), make_process(2)
        sched.add(a)
        sched.add(b)
        sched.dispatch()
        sched.block_current()
        assert a.state is ProcessState.BLOCKED
        assert sched.blocked_count() == 1
        sched.unblock(a)
        assert a.state is ProcessState.READY
        # Tail: b runs first.
        assert sched.dispatch() is b

    def test_unblock_resume_goes_to_head(self, sched):
        a, b, c = make_process(1), make_process(2), make_process(3)
        for p in (a, b, c):
            sched.add(p)
        sched.dispatch()  # a
        sched.block_current()
        sched.unblock(a, resume=True)
        assert sched.dispatch() is a  # ahead of b and c

    def test_resume_keeps_residual_slice(self, sched):
        a = make_process(1, priority=39)
        sched.add(a)
        sched.dispatch()
        a.slice_remaining_ns = 123
        sched.block_current()
        sched.unblock(a, resume=True)
        sched.dispatch()
        assert a.slice_remaining_ns == 123

    def test_plain_unblock_gets_fresh_slice(self, sched):
        a = make_process(1, priority=39)
        sched.add(a)
        sched.dispatch()
        a.slice_remaining_ns = 123
        sched.block_current()
        sched.unblock(a)
        sched.dispatch()
        assert a.slice_remaining_ns == 800

    def test_resume_with_exhausted_slice_gets_fresh(self, sched):
        a = make_process(1, priority=39)
        sched.add(a)
        sched.dispatch()
        a.slice_remaining_ns = 0
        sched.block_current()
        sched.unblock(a, resume=True)
        sched.dispatch()
        assert a.slice_remaining_ns == 800

    def test_unblock_not_blocked_raises(self, sched):
        a = make_process(1)
        with pytest.raises(SimulationError):
            sched.unblock(a)


class TestResumePreemption:
    def test_resume_preempts_lower_priority_current(self, sched):
        low, high = make_process(1, priority=5), make_process(2, priority=30)
        sched.add(high)
        sched.add(low)
        sched.dispatch()  # high
        sched.block_current()  # high blocks (hypothetically)
        sched.dispatch()  # low runs
        sched.unblock(high, resume=True)
        assert sched.resume_preempts_current()
        displaced = sched.preempt_for_resume()
        assert displaced is low
        assert sched.current is high
        assert low.resume_pending
        # Displaced process is next in line.
        assert sched.peek_next() is low

    def test_no_preemption_for_higher_current(self, sched):
        low, high = make_process(1, priority=5), make_process(2, priority=30)
        sched.add(low)
        sched.add(high)
        sched.dispatch()  # low
        sched.block_current()
        sched.dispatch()  # high
        sched.unblock(low, resume=True)
        assert not sched.resume_preempts_current()

    def test_no_preemption_for_plain_unblock(self, sched):
        low, high = make_process(1, priority=5), make_process(2, priority=30)
        sched.add(high)
        sched.add(low)
        sched.dispatch()
        sched.block_current()
        sched.dispatch()  # low
        sched.unblock(high)  # tail, not resume
        assert not sched.resume_preempts_current()

    def test_preempt_without_qualifying_head_raises(self, sched):
        with pytest.raises(SimulationError):
            sched.preempt_for_resume()


class TestFinish:
    def test_finish_records_time(self, sched):
        a = make_process(1)
        sched.add(a)
        sched.dispatch()
        sched.finish_current(12345)
        assert a.state is ProcessState.FINISHED
        assert a.stats.finish_time_ns == 12345

    def test_has_work(self, sched):
        assert not sched.has_work()
        a = make_process(1)
        sched.add(a)
        assert sched.has_work()
        sched.dispatch()
        assert sched.has_work()
        sched.finish_current(0)
        assert not sched.has_work()

    def test_has_work_with_blocked_only(self, sched):
        a = make_process(1)
        sched.add(a)
        sched.dispatch()
        sched.block_current()
        assert sched.has_work()


class TestStealTail:
    def test_pops_queue_tail(self, sched):
        a, b, c = make_process(1), make_process(2), make_process(3)
        for p in (a, b, c):
            sched.add(p)
        assert sched.steal_tail() is c
        assert sched.ready_count() == 2
        assert sched.peek_next() is a

    def test_empty_queue_returns_none(self, sched):
        assert sched.steal_tail() is None

    def test_refuses_resume_pending_tail(self, sched):
        a, b = make_process(1), make_process(2)
        sched.add(a)
        sched.add(b)
        b.resume_pending = True
        assert sched.steal_tail() is None
        # The process was put back where it was, not dropped.
        assert sched.ready_count() == 2
        sched.dispatch()
        assert sched.peek_next() is b


class TestUnblockReadyStamp:
    def test_ready_ns_sets_ready_since(self, sched):
        a = make_process(1)
        sched.add(a)
        sched.dispatch()
        sched.block_current()
        sched.unblock(a, ready_ns=4242)
        assert a.ready_since_ns == 4242

    def test_omitted_ready_ns_leaves_stamp(self, sched):
        a = make_process(1)
        a.ready_since_ns = 99
        sched.add(a)
        sched.dispatch()
        sched.block_current()
        sched.unblock(a)
        assert a.ready_since_ns == 99


class TestPublishTelemetry:
    def test_gauges_carry_counters(self, sched):
        from repro.telemetry import Telemetry

        sched.add(make_process(1))
        sched.dispatch()
        sched.preempt_current()
        registry = Telemetry().registry
        sched.publish_telemetry(registry)
        assert registry.gauge("sched.dispatches").value == 1
        assert registry.gauge("sched.preemptions").value == 1

    def test_republish_is_idempotent(self, sched):
        """A scheduler rebuilt inside one telemetry handle (the sweep
        resume path) republishes under the same gauge names without
        raising; the latest counters win."""
        from repro.common.config import SchedulerConfig
        from repro.telemetry import Telemetry

        registry = Telemetry().registry
        sched.add(make_process(1))
        sched.dispatch()
        sched.publish_telemetry(registry)
        assert registry.gauge("sched.dispatches").value == 1

        rebuilt = RoundRobinScheduler(
            SchedulerConfig(max_time_slice_ns=800, min_time_slice_ns=5)
        )
        for pid in (1, 2):
            rebuilt.add(make_process(pid))
            rebuilt.dispatch()
            rebuilt.finish_current(0)
        rebuilt.publish_telemetry(registry)
        assert registry.gauge("sched.dispatches").value == 2

    def test_prefix_scopes_names(self, sched):
        from repro.telemetry import Telemetry

        registry = Telemetry().registry
        sched.publish_telemetry(registry, prefix="sched.core0.")
        assert registry.gauge("sched.core0.dispatches").value == 0
