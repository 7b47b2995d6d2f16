"""Unit tests for the simulation event stream: the instants
``Telemetry.on_event`` records on the tracer's ``events`` track (the
CSV export is tested with the other exporters, in test_telemetry.py)."""

from collections import Counter

from repro.baselines import SyncIOPolicy
from repro.core import ITSPolicy
from repro.sim.simulator import Simulation, WorkloadInstance
from repro.telemetry import Telemetry

from tests.conftest import make_linear_trace


def kinds(telemetry):
    """Events per kind, read back from the ``events`` track."""
    return Counter(e.name for e in telemetry.tracer.of_track("events"))


class TestEventStream:
    def test_of_kind_and_pid(self):
        t = Telemetry()
        t.on_event(1, "a", pid=1)
        t.on_event(2, "b", pid=2)
        t.on_event(3, "a", pid=2)
        t.record_span("a", 0, 5, pid=2)  # a span, not an event
        events = t.tracer.of_track("events")
        assert [e.start_ns for e in events if e.name == "a"] == [1, 3]
        assert [e.start_ns for e in events if e.pid == 2] == [2, 3]

    def test_counts(self):
        # The counters see every event, even those the ring dropped.
        t = Telemetry(span_capacity=2)
        for kind in ("a", "a", "b"):
            t.on_event(0, kind)
        assert t.registry.snapshot() == {"events.a": 2, "events.b": 1}
        assert kinds(t) == {"a": 1, "b": 1}

    def test_capacity_drops_oldest(self):
        # Events share the tracer's ring with spans.
        t = Telemetry(span_capacity=3)
        t.record_span("s", 0, 1)
        for time_ns in range(1, 5):
            t.on_event(time_ns, "x")
        assert t.tracer.dropped == 2
        assert [e.start_ns for e in t.tracer.of_track("events")] == [2, 3, 4]

    def test_ring_wraps_many_times(self):
        t = Telemetry(span_capacity=4)
        for time_ns in range(25):
            t.on_event(time_ns, "x", pid=time_ns % 3)
        events = t.tracer.of_track("events")
        assert t.tracer.dropped == 21
        assert [e.start_ns for e in events] == [21, 22, 23, 24]
        # Filtered views follow the ring order too.
        assert [e.start_ns for e in events if e.pid == 0] == [21, 24]
        assert kinds(t) == {"x": 4}
        assert t.registry.snapshot() == {"events.x": 25}


class TestSimulationIntegration:
    def test_sync_run_logs_faults_and_finishes(self, small_config):
        telemetry = Telemetry()
        workloads = [
            WorkloadInstance(name="w", trace=make_linear_trace(4), priority=10)
        ]
        result = Simulation(
            small_config, workloads, SyncIOPolicy(), telemetry=telemetry
        ).run()
        counts = kinds(telemetry)
        assert counts["major_fault"] == result.major_faults
        assert counts["minor_fault"] == result.minor_faults
        assert counts["finish"] == 1
        assert counts["dispatch"] >= 1

    def test_its_run_logs_steals(self, small_config):
        telemetry = Telemetry()
        workloads = [
            WorkloadInstance(name="w", trace=make_linear_trace(6), priority=10),
            WorkloadInstance(
                name="v", trace=make_linear_trace(6, base_va=0x90_0000), priority=20
            ),
        ]
        Simulation(small_config, workloads, ITSPolicy(), telemetry=telemetry).run()
        counts = kinds(telemetry)
        assert counts["steal"] > 0
        assert counts["prefetch_issue"] > 0

    def test_no_log_attached_is_fine(self, small_config):
        workloads = [
            WorkloadInstance(name="w", trace=make_linear_trace(2), priority=10)
        ]
        result = Simulation(small_config, workloads, SyncIOPolicy()).run()
        assert result.makespan_ns > 0

    def test_event_times_monotone(self, small_config):
        telemetry = Telemetry()
        workloads = [
            WorkloadInstance(name="w", trace=make_linear_trace(4), priority=10)
        ]
        Simulation(
            small_config, workloads, SyncIOPolicy(), telemetry=telemetry
        ).run()
        times = [e.start_ns for e in telemetry.tracer.of_track("events")]
        assert times == sorted(times)
