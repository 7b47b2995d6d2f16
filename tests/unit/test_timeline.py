"""Unit tests for timeline rendering."""

import pytest

from repro.analysis.timeline import (
    bucket_events,
    render_density,
    render_strip,
    render_timeline,
)
from repro.common.errors import SimulationError
from repro.telemetry import Span, Telemetry


def events_at(*times):
    return [Span("x", t, None, "events") for t in times]


class TestBucketing:
    def test_counts_land_in_right_buckets(self):
        counts = bucket_events(events_at(0, 5, 99), makespan_ns=100, buckets=10)
        assert counts[0] == 2
        assert counts[9] == 1
        assert sum(counts) == 3

    def test_event_at_makespan_clamped(self):
        counts = bucket_events(events_at(100), makespan_ns=100, buckets=10)
        assert counts[9] == 1

    def test_empty(self):
        assert bucket_events([], makespan_ns=100, buckets=4) == [0, 0, 0, 0]

    def test_bad_args_rejected(self):
        with pytest.raises(SimulationError):
            bucket_events([], makespan_ns=0, buckets=4)
        with pytest.raises(SimulationError):
            bucket_events([], makespan_ns=100, buckets=0)


class TestStrips:
    def test_strip_marks_occupied_buckets(self):
        strip = render_strip(events_at(0, 55), makespan_ns=100, buckets=10)
        assert len(strip) == 10
        assert strip[0] == "*"
        assert strip[5] == "*"
        assert strip[1] == " "

    def test_custom_symbol(self):
        strip = render_strip(events_at(0), makespan_ns=100, buckets=4, symbol="F")
        assert strip[0] == "F"

    def test_density_scales_with_counts(self):
        events = events_at(*([1] * 8 + [99]))
        strip = render_density(events, makespan_ns=100, buckets=10)
        assert strip[0] == "█"  # the peak bucket
        assert strip[9] != " "  # the single event still shows
        assert strip[5] == " "  # empty buckets stay blank

    def test_density_empty(self):
        assert render_density([], makespan_ns=100, buckets=5) == " " * 5


class TestTimeline:
    def _log(self):
        telemetry = Telemetry()
        telemetry.on_event(10, "steal", pid=0)
        telemetry.on_event(20, "sacrifice", pid=1)
        telemetry.record_span("steal", 30, 60)  # a span, not an event
        telemetry.on_event(90, "steal", pid=0)
        return telemetry

    def test_one_row_per_kind(self):
        text = render_timeline(self._log(), makespan_ns=100, buckets=10)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("steal")
        assert lines[1].startswith("sacrifice")

    def test_explicit_kind_selection(self):
        text = render_timeline(
            self._log(), makespan_ns=100, kinds=("sacrifice",), buckets=10
        )
        assert "steal" not in text

    def test_rows_read_only_event_instants(self):
        text = render_timeline(self._log(), makespan_ns=100, buckets=10)
        assert text.splitlines()[0] == "steal     | *       *|"

    def test_strips_aligned(self):
        text = render_timeline(self._log(), makespan_ns=100, buckets=10)
        positions = [line.index("|") for line in text.splitlines()]
        assert len(set(positions)) == 1
