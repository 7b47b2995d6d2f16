"""The synchronous I/O baseline ("Sync").

The mode Intel and IBM advocate for ULL devices: on a major fault the CPU
busy-waits for the DMA swap-in instead of context switching.  The whole
wait is CPU idle time — nothing useful happens — which is precisely the
waste the ITS design steals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.base import IOPolicy
from repro.kernel.process import Process

if TYPE_CHECKING:
    from repro.sim.simulator import Simulation


def busy_wait_fault(sim: "Simulation", process: Process, vpn: int) -> int:
    """Synchronous-fault mechanics: handler, DMA, busy-wait, install.

    Returns the length of the busy-wait window (handler exit to I/O
    completion).  Shared by Sync, Sync_Runahead, Sync_Prefetch and the
    ITS self-improving path (which steals the returned window).
    """
    machine = sim.machine
    start_ns = machine.now_ns
    fault = machine.fault_handler.begin_major_fault(process.pid, vpn, machine.now_ns)
    wait_ns = fault.io_done_ns - fault.handler_done_ns
    # Ledger split: the handler's software time, then the busy-wait.
    sim.consume_time(process, fault.io_done_ns - machine.now_ns, category=None)
    sim.charge_time(process.pid, "handler", machine.config.fault_handler_ns)
    sim.charge_time(process.pid, "spin_wait", wait_ns)
    process.stats.sync_faults += 1
    machine.memory.install_page(process.pid, vpn)
    telemetry = sim.telemetry
    if telemetry is not None and telemetry.causal is not None:
        # Synchronous servicing: the process resumes in place at I/O
        # completion, closing the fault's lifecycle.
        telemetry.causal.add(
            "resume", fault.io_done_ns,
            pid=process.pid, vpn=vpn,
            parent=telemetry.causal.fault_of(process.pid),
        )
    if telemetry is not None:
        telemetry.record_span(
            "fault.sync", start_ns, fault.io_done_ns,
            track="cpu", pid=process.pid, args={"vpn": vpn},
        )
        telemetry.record_span(
            "fault.sync.wait", fault.handler_done_ns, fault.io_done_ns,
            track="cpu", pid=process.pid,
        )
        telemetry.histogram("fault.service_ns").observe(fault.io_done_ns - start_ns)
    return wait_ns


class SyncIOPolicy(IOPolicy):
    """Busy-wait on every major fault."""

    name = "Sync"

    def on_major_fault(self, sim: "Simulation", process: Process, vpn: int) -> None:
        busy_wait_fault(sim, process, vpn)
