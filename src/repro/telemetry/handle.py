"""The ``Telemetry`` handle: one object threaded through a run.

Bundles the telemetry primitives — a
:class:`~repro.telemetry.registry.MetricRegistry` and a
:class:`~repro.telemetry.spans.SpanTracer` — behind a single handle that
:class:`~repro.sim.simulator.Simulation` and the machine components
accept as an optional argument.  Attach one to get counters, latency
histograms, spans and the run's event stream (one instant per
simulator event on the tracer's ``events`` track)::

    from repro.telemetry import Telemetry, export_chrome_trace

    telemetry = Telemetry()
    result = Simulation(config, batch, ITSPolicy(), telemetry=telemetry).run()
    export_chrome_trace(telemetry, "run.trace.json")
    print(telemetry.registry.render_report())

Detached (``telemetry=None``) is the zero-cost mode: every instrumented
site guards with a single ``None`` check.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.telemetry.causal import CausalGraph
from repro.telemetry.registry import (
    DEFAULT_LATENCY_BOUNDS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.telemetry.spans import SpanTracer

_CORE_TRACKS = frozenset({"cpu", "its"})
"""Tracks that are core-local under SMP (``dma`` is a shared controller
and ``events`` is the run-wide marker lane; both stay unsplit)."""


class Telemetry:
    """Registry + span tracer, under one optional handle.

    ``span_capacity`` bounds the tracer's ring, which holds spans and
    event instants alike (the oldest are dropped first and counted in
    ``tracer.dropped``).  ``causal=True`` attaches a
    :class:`~repro.telemetry.causal.CausalGraph` (parent-linked fault
    lifecycles); it defaults off so an ordinary telemetry run's output
    is unchanged.

    ``ledger`` is accepted and ignored.  The time ledger is not a
    telemetry rider: every machine owns one (``machine.ledger``) and
    every run is audited against it, with or without a handle.  The
    keyword stays so existing callers (``perfbench/harness.py`` among
    them) keep constructing ``Telemetry(ledger=True)``.
    """

    def __init__(
        self,
        *,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        ledger: bool = False,
        causal: bool = False,
        span_capacity: int = 1_000_000,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer(span_capacity)
        self.causal: Optional[CausalGraph] = CausalGraph() if causal else None
        self._core_of: Optional[Callable[[], int]] = None

    # -- clock binding -------------------------------------------------------

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Point the span tracer at the run's virtual clock."""
        self.tracer.bind_clock(clock)

    def bind_core(self, core_of: Callable[[], int]) -> None:
        """Attach the active-core reader (SMP runs only).

        Once bound, spans on core-local tracks are recorded on
        ``cpu.core{i}`` / ``its.core{i}`` so each core gets its own row
        (and tid) in the exported Chrome/Perfetto trace instead of all
        cores interleaving on one lane.
        """
        self._core_of = core_of

    def _resolve_track(self, track: str) -> str:
        if self._core_of is not None and track in _CORE_TRACKS:
            return f"{track}.core{self._core_of()}"
        return track

    # -- registry shortcuts --------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create a counter (see :class:`MetricRegistry`)."""
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge (see :class:`MetricRegistry`)."""
        return self.registry.gauge(name)

    def histogram(
        self, name: str, bounds: Sequence[int] = DEFAULT_LATENCY_BOUNDS_NS
    ) -> Histogram:
        """Get or create a histogram (see :class:`MetricRegistry`)."""
        return self.registry.histogram(name, bounds)

    # -- tracer shortcuts ----------------------------------------------------

    def record_span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        track: str = "cpu",
        pid: Optional[int] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a completed span (see :meth:`SpanTracer.record`)."""
        self.tracer.record(
            name, start_ns, end_ns,
            track=self._resolve_track(track), pid=pid, args=args,
        )

    def instant(
        self,
        name: str,
        ts_ns: int,
        *,
        track: str = "events",
        pid: Optional[int] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a zero-width marker (see :meth:`SpanTracer.instant`)."""
        self.tracer.instant(
            name, ts_ns, track=self._resolve_track(track), pid=pid, args=args
        )

    def span(
        self,
        name: str,
        *,
        track: str = "cpu",
        pid: Optional[int] = None,
        args: Optional[dict] = None,
    ):
        """Nestable context manager on the virtual clock (see
        :meth:`SpanTracer.span`)."""
        return self.tracer.span(
            name, track=self._resolve_track(track), pid=pid, args=args
        )

    # -- the event stream ----------------------------------------------------

    def on_event(
        self,
        time_ns: int,
        kind: str,
        pid: Optional[int] = None,
        vpn: Optional[int] = None,
    ) -> None:
        """Record one simulator event (:meth:`Simulation.log_event`).

        Bumps the ``events.<kind>`` counter and appends one instant on
        the ``events`` track, the run's only event record: the
        ``--events`` CSV (:func:`~repro.telemetry.exporters
        .export_events_csv`) and the ASCII timelines read it back.
        """
        self.registry.counter(f"events.{kind}").inc()
        args = None if vpn is None else {"vpn": vpn}
        self.tracer.instant(kind, time_ns, track="events", pid=pid, args=args)
