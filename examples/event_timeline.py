#!/usr/bin/env python3
"""Inspecting a run's event stream.

Attaches a :class:`Telemetry` handle to an ITS simulation, then renders
(a) the per-kind event counts, (b) an ASCII timeline of when the
self-improving thread stole windows and the self-sacrificing thread
demoted faults, and (c) each process's fault-rate sparkline over its
lifetime.  The events are the instants the handle records on its
tracer's ``events`` track.

Run:  python examples/event_timeline.py
"""

from collections import Counter

from repro import ITSPolicy, MachineConfig, Simulation, Telemetry, build_batch
from repro.analysis.charts import render_sparkline
from repro.analysis.timeline import render_timeline
from repro.analysis.utilization import render_utilization, utilization
from repro.common.units import format_time_ns

BUCKETS = 60


def main() -> None:
    config = MachineConfig()
    telemetry = Telemetry()
    batch = build_batch("2_Data_Intensive", seed=7)
    sim = Simulation(
        config, batch, ITSPolicy(), batch_name="timeline", telemetry=telemetry
    )
    result = sim.run()
    events = telemetry.tracer.of_track("events")

    print(f"run finished: makespan {format_time_ns(result.makespan_ns)}")
    print()
    print("event counts:")
    for kind, count in sorted(Counter(e.name for e in events).items()):
        print(f"  {kind:<15s} {count}")

    print()
    print(f"timeline ({BUCKETS} buckets across the makespan):")
    print(
        render_timeline(
            telemetry,
            result.makespan_ns,
            kinds=("steal", "sacrifice", "major_fault", "finish"),
            buckets=BUCKETS,
            density=True,
        )
    )

    print()
    print("per-process major-fault rate over time (sparklines):")
    faults = [e for e in events if e.name == "major_fault"]
    for record in result.finish_times_by_priority():
        times = [e.start_ns for e in faults if e.pid == record.pid]
        series = [0.0] * 24
        for t in times:
            series[min(23, t * 24 // max(1, record.finish_time_ns))] += 1
        print(
            f"  prio={record.priority:2d} {record.name:<12s} "
            f"{render_sparkline(series)} ({len(times)} majors)"
        )

    print()
    print("resource utilisation:")
    print(render_utilization(utilization(sim)))


if __name__ == "__main__":
    main()
