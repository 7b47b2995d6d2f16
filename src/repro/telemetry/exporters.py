"""Telemetry exporters: Chrome/Perfetto trace JSON, JSONL, CSV, text.

Four consumers, four formats:

* :func:`export_chrome_trace` writes the Chrome ``trace_event`` JSON
  object format — load it at https://ui.perfetto.dev (or
  ``chrome://tracing``) to scrub through a run's fault phases on the
  virtual timeline.  Spans become complete (``"ph": "X"``) events with
  microsecond ``ts``/``dur``; instants become ``"ph": "i"`` markers;
  tracks become named threads.
* :func:`export_jsonl` streams one JSON object per line (spans, then
  instants, then a final metrics snapshot) for ad-hoc ``jq``/pandas
  processing.
* :func:`export_events_csv` writes the run's event stream (the
  ``events``-track instants) as ``time_ns,kind,pid,vpn`` CSV — the
  ``repro run --events`` file.
* :func:`render_stats_report` renders the registry plus a per-span-name
  latency table (count, total, p50/p95/p99) as aligned plain text — the
  ``repro stats`` output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import IO, Optional, Sequence, TYPE_CHECKING

from repro.common.errors import ReproError
from repro.telemetry.spans import Span, SpanTracer

if TYPE_CHECKING:
    from repro.telemetry.handle import Telemetry


def _create(path: Path, newline: Optional[str] = None) -> IO[str]:
    """Open *path* for writing, creating missing parent directories.

    An unwritable path raises :class:`ReproError` naming it, so the CLI
    exits with one ``error:`` line instead of a traceback.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ReproError(f"cannot write {path}: {exc}") from exc


def _track_ids(spans: Sequence[Span]) -> dict[str, int]:
    """Stable track-name -> tid mapping (first-seen order)."""
    ids: dict[str, int] = {}
    for span in spans:
        if span.track not in ids:
            ids[span.track] = len(ids)
    return ids


def chrome_trace_dict(
    telemetry: "Telemetry", *, process_name: str = "repro-sim"
) -> dict:
    """Build the Chrome ``trace_event`` JSON object for a run.

    ``ts``/``dur`` are microseconds (floats), per the trace-event spec;
    virtual nanoseconds survive exactly in ``args.start_ns``/
    ``args.dur_ns``.
    """
    spans = list(telemetry.tracer)
    tracks = _track_ids(spans)
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for track, tid in tracks.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": 0,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    for span in spans:
        args: dict = {"start_ns": span.start_ns}
        if span.pid is not None:
            args["sim_pid"] = span.pid
        if span.args:
            args.update(span.args)
        entry: dict = {
            "name": span.name,
            "cat": span.track,
            "pid": 0,
            "tid": tracks[span.track],
            "ts": span.start_ns / 1000,
            "args": args,
        }
        if span.is_instant:
            entry["ph"] = "i"
            entry["s"] = "t"
        else:
            entry["ph"] = "X"
            entry["dur"] = span.dur_ns / 1000
            args["dur_ns"] = span.dur_ns
        events.append(entry)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "spans": len(spans),
            "spans_dropped": telemetry.tracer.dropped,
            "metrics": telemetry.registry.snapshot(),
        },
    }


def export_chrome_trace(
    telemetry: "Telemetry",
    path: str | Path,
    *,
    process_name: str = "repro-sim",
) -> Path:
    """Write the Chrome/Perfetto trace JSON to *path*; returns the path."""
    path = Path(path)
    with _create(path) as f:
        json.dump(chrome_trace_dict(telemetry, process_name=process_name), f)
    return path


def export_jsonl(telemetry: "Telemetry", path: str | Path) -> Path:
    """Write spans, instants and a metrics snapshot as JSON lines."""
    path = Path(path)
    with _create(path) as f:
        for span in telemetry.tracer:
            record: dict = {
                "type": "instant" if span.is_instant else "span",
                "name": span.name,
                "track": span.track,
                "start_ns": span.start_ns,
            }
            if not span.is_instant:
                record["dur_ns"] = span.dur_ns
            if span.pid is not None:
                record["pid"] = span.pid
            if span.args:
                record["args"] = span.args
            f.write(json.dumps(record) + "\n")
        f.write(
            json.dumps({"type": "metrics", "metrics": telemetry.registry.snapshot()})
            + "\n"
        )
    return path


def export_events_csv(telemetry: "Telemetry", path: str | Path) -> Path:
    """Write the run's event stream as ``time_ns,kind,pid,vpn`` CSV.

    One row per ``events``-track instant, in recording order; ``pid``
    and ``vpn`` are empty where the event has none.  The first line is
    a ``# dropped=N`` comment with the tracer's drop count: events share
    the tracer's ring with spans, so a non-zero N means the file is a
    suffix of the run rather than the whole of it.
    """
    path = Path(path)
    with _create(path, newline="") as f:
        f.write(f"# dropped={telemetry.tracer.dropped}\n")
        writer = csv.writer(f)
        writer.writerow(["time_ns", "kind", "pid", "vpn"])
        for event in telemetry.tracer.of_track("events"):
            writer.writerow(
                [
                    event.start_ns,
                    event.name,
                    "" if event.pid is None else event.pid,
                    (event.args or {}).get("vpn", ""),
                ]
            )
    return path


def _exact_percentile(sorted_values: Sequence[int], p: float) -> float:
    """Exact percentile over a sorted sample (nearest-rank with
    interpolation)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = p / 100 * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    fraction = rank - lo
    return sorted_values[lo] + fraction * (sorted_values[hi] - sorted_values[lo])


def span_latency_rows(
    tracer: SpanTracer, names: Optional[Sequence[str]] = None
) -> list[dict]:
    """Per-span-name latency summary rows (count, total, percentiles).

    Percentiles here are *exact* (computed over the retained span
    durations), unlike the bucketed estimates of
    :class:`~repro.telemetry.registry.Histogram`.
    """
    if names is None:
        names = [
            name
            for name in tracer.names()
            if any(s.dur_ns is not None for s in tracer.of_name(name))
        ]
    rows = []
    for name in names:
        durations = sorted(tracer.durations_ns(name))
        if not durations:
            continue
        rows.append(
            {
                "name": name,
                "count": len(durations),
                "total_ns": sum(durations),
                "mean_ns": sum(durations) / len(durations),
                "p50_ns": _exact_percentile(durations, 50),
                "p95_ns": _exact_percentile(durations, 95),
                "p99_ns": _exact_percentile(durations, 99),
                "max_ns": durations[-1],
            }
        )
    return rows


def render_span_table(
    tracer: SpanTracer, names: Optional[Sequence[str]] = None
) -> str:
    """Aligned text table of :func:`span_latency_rows`."""
    rows = span_latency_rows(tracer, names)
    if not rows:
        return "(no spans recorded)"
    width = max(len(r["name"]) for r in rows)
    lines = [
        f"{'span':<{width}}  {'count':>8} {'total_ns':>14} {'mean_ns':>12} "
        f"{'p50_ns':>12} {'p95_ns':>12} {'p99_ns':>12} {'max_ns':>12}"
    ]
    for r in rows:
        lines.append(
            f"{r['name']:<{width}}  {r['count']:>8} {r['total_ns']:>14} "
            f"{r['mean_ns']:>12.1f} {r['p50_ns']:>12.1f} {r['p95_ns']:>12.1f} "
            f"{r['p99_ns']:>12.1f} {r['max_ns']:>12}"
        )
    return "\n".join(lines)


def render_stats_report(telemetry: "Telemetry", *, title: str = "telemetry") -> str:
    """The full plain-text stats report: spans table + metric registry."""
    parts = [f"== {title} =="]
    parts.append("")
    parts.append("span latency (virtual ns):")
    parts.append(render_span_table(telemetry.tracer))
    parts.append("")
    parts.append(telemetry.registry.render_section_report())
    if telemetry.tracer.dropped:
        parts.append("")
        parts.append(
            f"note: {telemetry.tracer.dropped} oldest spans were dropped "
            f"(capacity {telemetry.tracer.capacity})"
        )
    return "\n".join(parts)
