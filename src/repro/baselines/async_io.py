"""The asynchronous I/O baseline ("Async").

Traditional swap behaviour: on a major fault the OS marks the DMA and
context-switches to another ready process.  With ULL devices the 7 us
switch dwarfs the 3 us access — and the fine-grained interleaving it
causes lets the processes thrash each other's pages and caches, which is
what Figures 4b/4c measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.base import IOPolicy
from repro.kernel.process import Process
from repro.storage.dma import DMARequest

if TYPE_CHECKING:
    from repro.sim.simulator import Simulation


def block_on_fault(
    sim: "Simulation", process: Process, vpn: int, *, resume: bool = False
) -> None:
    """Asynchronous-fault mechanics: handler, DMA, block, unblock on
    completion.  Shared by Async (``resume=False``: queue tail) and the
    ITS self-sacrificing thread (``resume=True``: the forced-off process
    re-enters at the queue head with its residual slice)."""
    machine = sim.machine
    start_ns = machine.now_ns
    causal = sim.telemetry.causal if sim.telemetry is not None else None

    def complete(request: DMARequest, time_ns: int) -> None:
        if not machine.memory.is_resident_or_cached(request.pid, request.vpn):
            machine.memory.install_page(request.pid, request.vpn)
        sim.scheduler.unblock(process, resume=resume, ready_ns=time_ns)
        if causal is not None:
            # The process cannot fault while blocked, so fault_of still
            # names the fault this completion unblocks.
            unblock_id = causal.add(
                "unblock", time_ns,
                pid=request.pid, vpn=request.vpn,
                parent=causal.fault_of(request.pid),
            )
            causal.note_unblock(request.pid, unblock_id)

    fault = machine.fault_handler.begin_major_fault(
        process.pid, vpn, machine.now_ns, on_complete=complete
    )
    # The handler itself runs on the CPU before the switch.
    sim.consume_time(process, machine.config.fault_handler_ns, category="handler")
    process.stats.async_faults += 1
    sim.scheduler.block_current()
    telemetry = sim.telemetry
    if telemetry is not None:
        # The I/O completion time is already determined, so the whole
        # blocked interval can be recorded up front.
        name = "fault.sacrifice.blocked" if resume else "fault.async"
        telemetry.record_span(
            name, start_ns, fault.io_done_ns,
            track="cpu", pid=process.pid, args={"vpn": vpn},
        )
        telemetry.histogram("fault.service_ns").observe(fault.io_done_ns - start_ns)


class AsyncIOPolicy(IOPolicy):
    """Block on every major fault; resume when the DMA completes."""

    name = "Async"

    def on_major_fault(self, sim: "Simulation", process: Process, vpn: int) -> None:
        block_on_fault(sim, process, vpn)
