"""Resource utilisation of a finished simulation.

Breaks the run down by resource: how the CPU's time divided between
useful execution, idle (the paper's metric) and kernel overhead, and how
busy the storage device and the PCIe link were.  Operates on a finished
:class:`~repro.sim.simulator.Simulation` (the machine holds the
device/link counters that the result record does not carry).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SimulationError
from repro.common.units import format_time_ns
from repro.sim.metrics import IdleBreakdown
from repro.telemetry.ledger import MIGRATION, TLB_SHOOTDOWN


@dataclass(frozen=True)
class UtilizationReport:
    """Fractions of the makespan each resource was occupied."""

    makespan_ns: int
    cpu_useful_frac: float
    cpu_idle_frac: float
    cpu_overhead_frac: float
    device_util: float
    link_util: float
    device_busy_ns: int
    link_busy_ns: int


def utilization(sim) -> UtilizationReport:
    """Compute the utilisation breakdown of a finished simulation.

    The CPU fractions are of the machine's total core time (makespan ×
    cores), read from its time ledger.  Kernel overhead is fault-handler
    time plus, on SMP, work-steal migration and TLB-shootdown IPIs.
    """
    makespan = sim.machine.now_ns
    if makespan <= 0:
        raise SimulationError("simulation has not run yet")
    core_time = makespan * sim.config.cores.count
    cells = sim.machine.ledger.cells()
    idle = IdleBreakdown.from_cells(cells)
    overhead = idle.handler_overhead_ns + cells[MIGRATION] + cells[TLB_SHOOTDOWN]
    useful = core_time - idle.total_idle_ns - overhead
    device_busy = sim.machine.device.stats.busy_ns
    link_busy = sim.machine.link.busy_ns
    channels = sim.machine.device.config.channels
    return UtilizationReport(
        makespan_ns=makespan,
        cpu_useful_frac=useful / core_time,
        cpu_idle_frac=idle.total_idle_ns / core_time,
        cpu_overhead_frac=overhead / core_time,
        # The device has `channels` independent servers; utilisation is
        # per-channel-normalised so 100% means all channels saturated.
        device_util=min(1.0, device_busy / (makespan * channels)),
        link_util=min(1.0, link_busy / makespan),
        device_busy_ns=device_busy,
        link_busy_ns=link_busy,
    )


def render_utilization(report: UtilizationReport) -> str:
    """Human-readable utilisation table."""
    return "\n".join(
        [
            f"makespan           {format_time_ns(report.makespan_ns)}",
            f"CPU useful         {report.cpu_useful_frac:6.1%}",
            f"CPU idle           {report.cpu_idle_frac:6.1%}",
            f"CPU kernel overhead{report.cpu_overhead_frac:7.1%}",
            f"device busy        {report.device_util:6.1%}"
            f" ({format_time_ns(report.device_busy_ns)})",
            f"PCIe link busy     {report.link_util:6.1%}"
            f" ({format_time_ns(report.link_busy_ns)})",
        ]
    )
