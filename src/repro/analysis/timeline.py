"""ASCII timelines over a run's event stream.

Renders when things happened across a run's makespan: one fixed-width
strip per event kind, bucketed over virtual time.  The events are the
instants :meth:`~repro.telemetry.Telemetry.on_event` records on the
tracer's ``events`` track.  The `examples/event_timeline.py` walkthrough
is built on these.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.common.errors import SimulationError
from repro.telemetry.spans import Span

if TYPE_CHECKING:
    from repro.telemetry import Telemetry


def bucket_events(
    events: Iterable[Span],
    makespan_ns: int,
    buckets: int = 60,
) -> list[int]:
    """Histogram of event instants over *buckets* equal time slices."""
    if makespan_ns <= 0:
        raise SimulationError("makespan must be positive")
    if buckets <= 0:
        raise SimulationError("need at least one bucket")
    counts = [0] * buckets
    for event in events:
        index = min(buckets - 1, event.start_ns * buckets // makespan_ns)
        counts[index] += 1
    return counts


def render_strip(
    events: Iterable[Span],
    makespan_ns: int,
    *,
    buckets: int = 60,
    symbol: str = "*",
) -> str:
    """A one-line occupancy strip: *symbol* where any event landed."""
    counts = bucket_events(events, makespan_ns, buckets)
    return "".join(symbol if c else " " for c in counts)


def render_density(
    events: Iterable[Span],
    makespan_ns: int,
    *,
    buckets: int = 60,
) -> str:
    """A one-line density strip using eight block levels."""
    counts = bucket_events(events, makespan_ns, buckets)
    peak = max(counts) if counts else 0
    if peak == 0:
        return " " * buckets
    blocks = " ▁▂▃▄▅▆▇█"
    return "".join(blocks[min(8, round(c / peak * 8))] for c in counts)


def render_timeline(
    telemetry: "Telemetry",
    makespan_ns: int,
    *,
    kinds: Optional[Sequence[str]] = None,
    buckets: int = 60,
    density: bool = False,
) -> str:
    """Multi-row timeline, one labelled strip per event kind.

    ``kinds`` defaults to every kind the run logged, in first-seen
    order.  ``density=True`` uses block levels instead of occupancy
    marks.
    """
    by_kind: dict[str, list[Span]] = {}
    for event in telemetry.tracer.of_track("events"):
        by_kind.setdefault(event.name, []).append(event)
    if kinds is None:
        kinds = list(by_kind)
    label_width = max((len(k) for k in kinds), default=4)
    render = render_density if density else render_strip
    lines = []
    for kind in kinds:
        strip = render(by_kind.get(kind, []), makespan_ns, buckets=buckets)
        lines.append(f"{kind:<{label_width}} |{strip}|")
    return "\n".join(lines)
