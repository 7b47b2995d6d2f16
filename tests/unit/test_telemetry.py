"""Unit tests for the telemetry subsystem.

Covers the registry instruments (histogram bucketing and percentile
estimation in particular), the span tracer (post-hoc records, context
managers on a fake clock, ring-buffer bounds), the ``Telemetry`` handle,
and the exporters (Chrome trace schema round-trip, JSONL, event CSV,
text report, output-path errors).
"""

import csv
import json
import re

import pytest

from repro.common.errors import ReproError, SimulationError
from repro.telemetry import (
    DEFAULT_COUNT_BOUNDS,
    DEFAULT_LATENCY_BOUNDS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Span,
    SpanTracer,
    Telemetry,
    chrome_trace_dict,
    export_chrome_trace,
    export_events_csv,
    export_jsonl,
    render_stats_report,
)
from repro.telemetry.registry import _one_two_five


class TestBounds:
    def test_one_two_five_ladder(self):
        assert _one_two_five(1, 100) == (1, 2, 5, 10, 20, 50, 100)

    def test_ladder_respects_lo(self):
        assert _one_two_five(100, 1000) == (100, 200, 500, 1000)

    def test_default_bounds_ascend(self):
        for bounds in (DEFAULT_LATENCY_BOUNDS_NS, DEFAULT_COUNT_BOUNDS):
            assert list(bounds) == sorted(set(bounds))


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_last_write_wins(self):
        g = Gauge("x")
        g.set(3)
        g.set(7.5)
        assert g.value == 7.5


class TestHistogram:
    def test_bucketing_inclusive_upper_edge(self):
        h = Histogram("h", bounds=(10, 20, 50))
        for v in (1, 10, 11, 20, 21, 50, 51, 1000):
            h.observe(v)
        # Buckets: <=10, <=20, <=50, overflow.
        assert h.bucket_counts == [2, 2, 2, 2]
        assert h.count == 8
        assert h.min == 1 and h.max == 1000

    def test_empty_histogram(self):
        h = Histogram("h", bounds=(10,))
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        assert h.snapshot()["count"] == 0

    def test_percentile_extremes_are_exact(self):
        h = Histogram("h", bounds=(10, 100, 1000))
        for v in (3, 42, 720):
            h.observe(v)
        assert h.percentile(0) == 3
        assert h.percentile(100) == 720

    def test_percentile_single_value(self):
        h = Histogram("h", bounds=(10, 100))
        for _ in range(5):
            h.observe(42)
        # min == max == 42 clamps every bucket to a point.
        assert h.percentile(50) == 42
        assert h.percentile(99) == 42

    def test_percentile_interpolates_within_bucket(self):
        h = Histogram("h", bounds=(100, 200))
        for v in (110, 120, 180, 190):
            h.observe(v)
        # All mass in the (100, 200] bucket; p50 interpolates across it,
        # clamped to the observed [110, 190].
        p50 = h.percentile(50)
        assert 110 <= p50 <= 190

    def test_percentile_monotone(self):
        h = Histogram("h")
        for v in (150, 3_000, 3_500, 80_000, 2_000_000, 2_100_000):
            h.observe(v)
        ps = [h.percentile(p) for p in (5, 25, 50, 75, 95, 100)]
        assert ps == sorted(ps)
        assert ps[-1] == 2_100_000

    def test_percentile_out_of_range_raises(self):
        h = Histogram("h")
        with pytest.raises(SimulationError):
            h.percentile(101)

    def test_bad_bounds_raise(self):
        with pytest.raises(SimulationError):
            Histogram("h", bounds=())
        with pytest.raises(SimulationError):
            Histogram("h", bounds=(10, 10, 20))
        with pytest.raises(SimulationError):
            Histogram("h", bounds=(20, 10))

    def test_snapshot_keys(self):
        h = Histogram("h")
        h.observe(500)
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "mean", "min", "max", "p50", "p95", "p99"}
        assert snap["count"] == 1 and snap["sum"] == 500


class TestMetricRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")

    def test_kind_conflict_raises(self):
        r = MetricRegistry()
        r.counter("x")
        with pytest.raises(SimulationError):
            r.gauge("x")
        with pytest.raises(SimulationError):
            r.histogram("x")

    def test_first_bounds_win(self):
        r = MetricRegistry()
        h = r.histogram("h", bounds=(1, 2))
        assert r.histogram("h", bounds=(5, 10)) is h
        assert h.bounds == (1, 2)

    def test_snapshot_and_names(self):
        r = MetricRegistry()
        r.counter("b").inc(3)
        r.gauge("a").set(1.5)
        r.histogram("c").observe(100)
        assert r.names() == ["a", "b", "c"]
        snap = r.snapshot()
        assert snap["a"] == 1.5 and snap["b"] == 3
        assert snap["c"]["count"] == 1
        assert len(r) == 3

    def test_render_report_groups(self):
        r = MetricRegistry()
        r.counter("fault.major").inc()
        r.histogram("fault.service_ns").observe(3_000)
        text = r.render_report()
        assert "scalars:" in text and "histograms:" in text
        assert "fault.major" in text and "fault.service_ns" in text

    def test_render_report_empty(self):
        assert MetricRegistry().render_report() == "(no metrics recorded)"


class TestSpanTracer:
    def test_record_and_query(self):
        t = SpanTracer()
        t.record("a", 10, 30, pid=1)
        t.record("a", 50, 55)
        t.record("b", 60, 60)
        assert len(t) == 3
        assert t.total_duration_ns("a") == 25
        assert t.durations_ns("a") == [20, 5]
        assert t.names() == ["a", "b"]
        assert [s.name for s in t.of_prefix("a")] == ["a", "a"]

    def test_negative_duration_raises(self):
        t = SpanTracer()
        with pytest.raises(SimulationError):
            t.record("bad", 100, 50)

    def test_instants_have_no_duration(self):
        t = SpanTracer()
        t.instant("mark", 42, args={"vpn": 7})
        (span,) = list(t)
        assert span.is_instant and span.end_ns == 42
        assert t.durations_ns("mark") == []

    def test_ring_drops_oldest(self):
        # One partial wrap, then many: iteration and the filtered views
        # follow ring order either way.
        for capacity, count in ((3, 5), (4, 25)):
            t = SpanTracer(capacity=capacity)
            for i in range(count):
                t.record("s", i * 10, i * 10 + 1, track=f"t{i % 3}")
            kept = range(count - capacity, count)
            assert len(t) == capacity
            assert t.dropped == count - capacity
            assert [s.start_ns for s in t] == [i * 10 for i in kept]
            assert [s.start_ns for s in t.of_track("t0")] == [
                i * 10 for i in kept if i % 3 == 0
            ]

    def test_context_manager_needs_clock(self):
        t = SpanTracer()
        with pytest.raises(SimulationError):
            with t.span("x"):
                pass

    def test_context_manager_nesting_on_fake_clock(self):
        now = [0]
        t = SpanTracer()
        t.bind_clock(lambda: now[0])
        with t.span("outer"):
            now[0] = 10
            assert t.active_depth == 1
            with t.span("inner"):
                now[0] = 25
                assert t.active_depth == 2
            now[0] = 40
        assert t.active_depth == 0
        # Inner closes first; both read the clock at their own boundaries.
        inner, outer = list(t)
        assert (inner.name, inner.start_ns, inner.dur_ns) == ("inner", 10, 15)
        assert (outer.name, outer.start_ns, outer.dur_ns) == ("outer", 0, 40)

    def test_context_manager_records_on_exception(self):
        now = [0]
        t = SpanTracer()
        t.bind_clock(lambda: now[0])
        with pytest.raises(ValueError):
            with t.span("failing"):
                now[0] = 5
                raise ValueError("boom")
        assert t.total_duration_ns("failing") == 5

    def test_bad_capacity_raises(self):
        with pytest.raises(SimulationError):
            SpanTracer(capacity=0)


class TestTelemetryHandle:
    def test_defaults(self):
        t = Telemetry()
        assert t.causal is None
        assert t.tracer.capacity == 1_000_000
        assert len(t.registry) == 0 and len(t.tracer) == 0

    def test_shortcuts_hit_registry_and_tracer(self):
        t = Telemetry()
        t.counter("c").inc()
        t.gauge("g").set(2)
        t.histogram("h").observe(150)
        t.record_span("s", 0, 10)
        t.instant("i", 5)
        assert t.registry.snapshot()["c"] == 1
        assert len(t.tracer) == 2

    def test_on_event_mirrors_into_registry_and_tracer(self):
        t = Telemetry()
        t.on_event(100, "major_fault", pid=2, vpn=9)
        t.on_event(200, "major_fault", pid=3)
        assert t.registry.snapshot()["events.major_fault"] == 2
        marks = t.tracer.of_name("major_fault")
        assert len(marks) == 2 and all(m.is_instant for m in marks)
        assert marks[0].args == {"vpn": 9} and marks[1].args is None

    def test_span_context_manager_via_bound_clock(self):
        now = [7]
        t = Telemetry()
        t.bind_clock(lambda: now[0])
        with t.span("work", track="its"):
            now[0] = 19
        (span,) = list(t.tracer)
        assert (span.start_ns, span.dur_ns, span.track) == (7, 12, "its")


def _sample_telemetry() -> Telemetry:
    t = Telemetry()
    t.record_span("fault.sync", 1_000, 4_000, track="cpu", pid=1, args={"vpn": 3})
    t.record_span("dma.demand_read", 1_500, 3_900, track="dma")
    t.instant("major_fault", 1_000, track="events", pid=1)
    t.counter("fault.major").inc()
    t.histogram("fault.service_ns").observe(3_000)
    return t


FILE_EXPORTERS = [export_chrome_trace, export_jsonl, export_events_csv]


class TestExporters:
    def test_chrome_trace_schema(self):
        d = chrome_trace_dict(_sample_telemetry())
        events = d["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2 and len(instants) == 1
        assert meta, "expects process/thread metadata events"
        fault = next(e for e in complete if e["name"] == "fault.sync")
        assert fault["ts"] == 1.0 and fault["dur"] == 3.0  # microseconds
        assert fault["args"]["vpn"] == 3
        assert d["otherData"]["spans"] == 3

    def test_chrome_trace_file_roundtrip(self, tmp_path):
        path = tmp_path / "out.trace.json"
        export_chrome_trace(_sample_telemetry(), path)
        with path.open() as f:
            d = json.load(f)
        assert {"traceEvents", "displayTimeUnit", "otherData"} <= set(d)
        for event in d["traceEvents"]:
            assert event["ph"] in ("X", "i", "M")
            if event["ph"] == "X":
                assert event["dur"] >= 0 and event["ts"] >= 0
            if event["ph"] != "M":
                assert isinstance(event["pid"], int)
                assert isinstance(event["tid"], int)

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        export_jsonl(_sample_telemetry(), path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [line["type"] for line in lines]
        assert kinds.count("span") == 2 and kinds.count("instant") == 1
        assert kinds[-1] == "metrics"
        assert lines[-1]["metrics"]["fault.major"] == 1

    def test_stats_report_mentions_spans_and_metrics(self):
        text = render_stats_report(_sample_telemetry(), title="unit")
        assert "unit" in text
        assert "fault.sync" in text
        assert "fault.major" in text

    def test_events_csv_roundtrip(self, tmp_path):
        t = Telemetry()
        t.on_event(5, "major_fault", pid=1, vpn=0x10)
        t.record_span("fault.sync", 5, 9, pid=1)  # spans are not rows
        t.on_event(9, "finish", pid=1)
        t.on_event(9, "steal")
        path = export_events_csv(t, tmp_path / "events.csv")
        with path.open(newline="") as f:
            comment = f.readline().strip()
            rows = list(csv.reader(f))
        assert comment == "# dropped=0"
        assert rows == [
            ["time_ns", "kind", "pid", "vpn"],
            ["5", "major_fault", "1", "16"],
            ["9", "finish", "1", ""],
            ["9", "steal", "", ""],
        ]

    def test_events_csv_header_reports_drops(self, tmp_path):
        t = Telemetry(span_capacity=2)
        for time_ns in range(5):
            t.on_event(time_ns, "x")
        path = export_events_csv(t, tmp_path / "events.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "# dropped=3"
        assert len(lines) == 2 + 2  # comment, header, the two survivors

    @pytest.mark.parametrize("export", FILE_EXPORTERS)
    def test_file_exporters_create_missing_dirs(self, tmp_path, export):
        path = export(_sample_telemetry(), tmp_path / "new" / "deeper" / "out")
        assert path.is_file() and path.stat().st_size > 0

    @pytest.mark.parametrize("export", FILE_EXPORTERS)
    def test_file_exporters_name_an_unwritable_path(self, tmp_path, export):
        blocker = tmp_path / "regular-file"
        blocker.write_text("")
        target = blocker / "out"
        with pytest.raises(ReproError, match=re.escape(str(target))):
            export(_sample_telemetry(), target)


class TestPublicSurface:
    def test_top_level_export(self):
        import repro

        assert repro.Telemetry is Telemetry
        assert "Telemetry" in repro.__all__

    def test_span_dataclass_defaults(self):
        s = Span("x", 5, None)
        assert s.is_instant and s.track == "cpu" and s.pid is None
