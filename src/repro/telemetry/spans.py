"""Span tracing on the virtual clock.

A *span* is a named interval of virtual time (``fault.its.prefetch_walk``
from 12_300 ns to 14_100 ns, attributed to pid 3); an *instant* is a
zero-width marker.  Spans can be recorded two ways:

* post hoc, via :meth:`SpanTracer.record` — the natural fit for the
  simulator, where a fault's phase boundaries (handler exit, walk end,
  I/O completion, restore) are all known the moment the fault is
  serviced;
* as a nestable context manager, via :meth:`SpanTracer.span`, which
  reads the bound virtual clock at entry and exit — the natural fit for
  code whose duration emerges from the clock advancing inside the block.

The tracer is a bounded ring buffer: long runs overwrite the oldest
spans and count them in :attr:`SpanTracer.dropped`.  It is also the
run's event record: :meth:`~repro.telemetry.handle.Telemetry.on_event`
appends one instant per simulator event on the ``events`` track, which
:meth:`SpanTracer.of_track` reads back.  Telemetry-aware
call sites hold an ``Optional[Telemetry]`` and skip everything on
``None`` — a detached run pays one pointer comparison per site.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.common.errors import SimulationError


@dataclass(frozen=True)
class Span:
    """One recorded interval (or instant, when ``dur_ns`` is ``None``).

    ``track`` names the horizontal lane the span belongs to in a trace
    viewer (``cpu``, ``its``, ``dma``, ``events``); ``args`` carries
    small key/value payloads (vpn, candidate count) into the exported
    trace.
    """

    name: str
    start_ns: int
    dur_ns: Optional[int]
    track: str = "cpu"
    pid: Optional[int] = None
    args: Optional[dict] = None

    @property
    def end_ns(self) -> int:
        """Exclusive end time (equals ``start_ns`` for instants)."""
        return self.start_ns + (self.dur_ns or 0)

    @property
    def is_instant(self) -> bool:
        """True for zero-width markers."""
        return self.dur_ns is None


class SpanTracer:
    """Bounded recorder of spans and instants on the virtual clock."""

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity <= 0:
            raise SimulationError("span tracer capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._buffer: list[Span] = []
        self._head = 0  # index of the oldest span once the ring is full
        self._clock: Optional[Callable[[], int]] = None
        self._depth = 0

    # -- recording -----------------------------------------------------------

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Attach the virtual-clock reader used by :meth:`span`."""
        self._clock = clock

    def _push(self, span: Span) -> None:
        if len(self._buffer) < self.capacity:
            self._buffer.append(span)
        else:
            self._buffer[self._head] = span
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        track: str = "cpu",
        pid: Optional[int] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a completed span from *start_ns* to *end_ns*."""
        if end_ns < start_ns:
            raise SimulationError(
                f"span {name!r} ends before it starts ({end_ns} < {start_ns})"
            )
        self._push(Span(name, start_ns, end_ns - start_ns, track, pid, args))

    def instant(
        self,
        name: str,
        ts_ns: int,
        *,
        track: str = "events",
        pid: Optional[int] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a zero-width marker at *ts_ns*."""
        self._push(Span(name, ts_ns, None, track, pid, args))

    @contextmanager
    def span(
        self,
        name: str,
        *,
        track: str = "cpu",
        pid: Optional[int] = None,
        args: Optional[dict] = None,
    ):
        """Context manager recording the virtual time spent inside.

        Requires :meth:`bind_clock`; nests freely (each exit records one
        span, so an inner block shows up inside its enclosing block in
        the exported trace).
        """
        if self._clock is None:
            raise SimulationError("span() needs bind_clock() first")
        start = self._clock()
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1
            self.record(name, start, self._clock(), track=track, pid=pid, args=args)

    @property
    def active_depth(self) -> int:
        """How many :meth:`span` context managers are currently open."""
        return self._depth

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Span]:
        if self._head == 0:
            return iter(list(self._buffer))
        return iter(self._buffer[self._head :] + self._buffer[: self._head])

    def of_name(self, name: str) -> list[Span]:
        """All spans with exactly this name, in recording order."""
        return [s for s in self if s.name == name]

    def of_track(self, track: str) -> list[Span]:
        """All spans and instants on *track*, in recording order."""
        return [s for s in self if s.track == track]

    def of_prefix(self, prefix: str) -> list[Span]:
        """All spans whose name starts with *prefix*."""
        return [s for s in self if s.name.startswith(prefix)]

    def total_duration_ns(self, name: str) -> int:
        """Summed duration of every (non-instant) span named *name*."""
        return sum(s.dur_ns for s in self if s.name == name and s.dur_ns is not None)

    def names(self) -> list[str]:
        """Distinct span names, sorted."""
        return sorted({s.name for s in self})

    def durations_ns(self, name: str) -> list[int]:
        """Durations of every (non-instant) span named *name*."""
        return [s.dur_ns for s in self if s.name == name and s.dur_ns is not None]
