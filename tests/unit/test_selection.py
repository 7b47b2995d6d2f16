"""Unit tests for the priority-aware thread selection policy."""

import pytest

from repro.common.config import SchedulerConfig
from repro.core.selection import PriorityClass, PrioritySelectionPolicy
from repro.cpu.isa import Compute
from repro.kernel.process import Process
from repro.kernel.scheduler import RoundRobinScheduler
from repro.telemetry import Telemetry


def make_process(pid, priority):
    return Process(pid=pid, name=f"p{pid}", priority=priority, trace=[Compute(dst=0)])


@pytest.fixture
def sched():
    return RoundRobinScheduler(SchedulerConfig())


class TestClassification:
    def test_low_when_next_outranks(self, sched):
        current, waiter = make_process(1, 5), make_process(2, 30)
        sched.add(current)
        sched.add(waiter)
        sched.dispatch()
        policy = PrioritySelectionPolicy()
        assert policy.classify(current, sched) is PriorityClass.LOW
        assert policy.low_selections == 1

    def test_high_when_next_is_weaker(self, sched):
        current, waiter = make_process(1, 30), make_process(2, 5)
        sched.add(current)
        sched.add(waiter)
        sched.dispatch()
        policy = PrioritySelectionPolicy()
        assert policy.classify(current, sched) is PriorityClass.HIGH
        assert policy.high_selections == 1

    def test_tie_counts_as_high(self, sched):
        current, waiter = make_process(1, 10), make_process(2, 10)
        sched.add(current)
        sched.add(waiter)
        sched.dispatch()
        assert (
            PrioritySelectionPolicy().classify(current, sched) is PriorityClass.HIGH
        )

    def test_empty_queue_is_high(self, sched):
        current = make_process(1, 1)
        sched.add(current)
        sched.dispatch()
        assert (
            PrioritySelectionPolicy().classify(current, sched) is PriorityClass.HIGH
        )

    def test_classification_does_not_touch_queue(self, sched):
        current, waiter = make_process(1, 5), make_process(2, 30)
        sched.add(current)
        sched.add(waiter)
        sched.dispatch()
        PrioritySelectionPolicy().classify(current, sched)
        assert sched.peek_next() is waiter
        assert sched.current is current


class TestTelemetryExport:
    def test_counters_mirror_python_tallies(self, sched):
        high, low = make_process(1, 30), make_process(2, 5)
        sched.add(high)
        sched.add(low)
        sched.dispatch()
        telemetry = Telemetry()
        policy = PrioritySelectionPolicy()
        policy.classify(high, sched, telemetry=telemetry)  # HIGH: outranks waiter
        policy.classify(low, sched, telemetry=telemetry)  # HIGH: tie with itself
        snapshot = telemetry.registry.snapshot()
        assert snapshot["its.selection.high"] == policy.high_selections
        assert snapshot.get("its.selection.low", 0) == policy.low_selections
        assert policy.high_selections + policy.low_selections == 2

    def test_both_counter_names_appear(self, sched):
        current, waiter = make_process(1, 5), make_process(2, 30)
        sched.add(current)
        sched.add(waiter)
        sched.dispatch()
        telemetry = Telemetry()
        policy = PrioritySelectionPolicy()
        policy.classify(current, sched, telemetry=telemetry)  # LOW: waiter outranks
        policy.hint = lambda p: PriorityClass.HIGH
        policy.classify(current, sched, telemetry=telemetry)  # HIGH via hint
        snapshot = telemetry.registry.snapshot()
        assert snapshot["its.selection.low"] == 1
        assert snapshot["its.selection.high"] == 1

    def test_no_telemetry_keeps_pure_python_path(self, sched):
        current = make_process(1, 1)
        sched.add(current)
        sched.dispatch()
        policy = PrioritySelectionPolicy()
        policy.classify(current, sched)
        assert policy.high_selections == 1


class TestModeHint:
    def test_hint_forces_low_despite_priorities(self, sched):
        current, waiter = make_process(1, 30), make_process(2, 5)
        sched.add(current)
        sched.add(waiter)
        sched.dispatch()
        policy = PrioritySelectionPolicy(hint=lambda p: PriorityClass.LOW)
        assert policy.classify(current, sched) is PriorityClass.LOW
        assert policy.low_selections == 1

    def test_none_hint_defers_to_comparison(self, sched):
        current, waiter = make_process(1, 5), make_process(2, 30)
        sched.add(current)
        sched.add(waiter)
        sched.dispatch()
        seen = []
        policy = PrioritySelectionPolicy(hint=lambda p: seen.append(p) or None)
        assert policy.classify(current, sched) is PriorityClass.LOW
        assert seen == [current]
