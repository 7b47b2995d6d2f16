"""First-class observability for the simulator.

The telemetry subsystem answers *where the virtual nanoseconds go*
inside a run: per-phase fault spans (selection -> checkpoint ->
prefetch walk -> runahead -> restore), fixed-bucket latency histograms
with p50/p95/p99, and event counters — exported as Chrome/Perfetto
``trace_event`` JSON, JSONL streams, an event CSV, or a plain-text
stats report.

Its modules:

* :mod:`repro.telemetry.registry` — counters, gauges and histograms
  under hierarchical dotted names;
* :mod:`repro.telemetry.spans` — the span tracer on the virtual clock,
  which also holds the run's event stream (one instant per simulator
  event on the ``events`` track);
* :mod:`repro.telemetry.ledger` — the time-attribution ledger (every
  nanosecond on every core in exactly one of twelve categories, with a
  conservation audit; each machine owns one);
* :mod:`repro.telemetry.causal` — the causal event graph (parent-linked
  fault lifecycles, critical-path and steal-payoff analysis);
* :mod:`repro.telemetry.exporters` — the output formats.

:class:`Telemetry` bundles the registry, the tracer and the optional
causal graph behind the single optional handle that
``Simulation(..., telemetry=...)`` threads through every instrumented
component.  See ``docs/TELEMETRY.md`` for the span naming convention
and a Perfetto walkthrough.
"""

from repro.telemetry.causal import CausalGraph, CausalNode, render_path_report
from repro.telemetry.exporters import (
    chrome_trace_dict,
    export_chrome_trace,
    export_events_csv,
    export_jsonl,
    render_span_table,
    render_stats_report,
    span_latency_rows,
)
from repro.telemetry.handle import Telemetry
from repro.telemetry.ledger import CATEGORIES as LEDGER_CATEGORIES
from repro.telemetry.ledger import TimeLedger
from repro.telemetry.registry import (
    DEFAULT_COUNT_BOUNDS,
    DEFAULT_LATENCY_BOUNDS_NS,
    PERCENT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.telemetry.spans import Span, SpanTracer

__all__ = [
    "Telemetry",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BOUNDS_NS",
    "DEFAULT_COUNT_BOUNDS",
    "PERCENT_BOUNDS",
    "Span",
    "SpanTracer",
    "TimeLedger",
    "LEDGER_CATEGORIES",
    "CausalGraph",
    "CausalNode",
    "render_path_report",
    "chrome_trace_dict",
    "export_chrome_trace",
    "export_events_csv",
    "export_jsonl",
    "render_span_table",
    "render_stats_report",
    "span_latency_rows",
]
