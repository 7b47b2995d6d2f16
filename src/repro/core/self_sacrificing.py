"""The self-sacrificing kernel thread (Section 3.3).

When a *low-priority* process takes a major fault, the thread switches
the request to asynchronous mode and forces the process off the CPU even
though its time slice remains: high-priority processes get the CPU (and,
with the priority-aware replacement policy, the memory pool) sooner, and
the low-priority process still finishes no later because it gets
dedicated resources once the high-priority ones complete.

The demoted swap-in keeps the kernel's swap-cluster readahead (the ITS
kernel is crafted from Linux 4.4, whose ``swapin_readahead`` clusters
neighbouring swap pages into the same DMA): the thread runs the same
virtual-address-based prefetch walk before switching out, dispatching
the candidates over DMA.  This costs only the walk (charged to the
faulting process before it yields) — the transfers themselves never
touch the CPU.  Without it, every demotion would strictly starve the
low-priority process relative to the Sync_Prefetch baseline, which is
the opposite of the paper's Figure 5b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.baselines.async_io import block_on_fault
from repro.core.prefetch import VirtualAddressPrefetcher
from repro.kernel.kthread import KernelThread
from repro.kernel.process import Process
from repro.telemetry.registry import DEFAULT_COUNT_BOUNDS

if TYPE_CHECKING:
    from repro.sim.simulator import Simulation


@dataclass
class SelfSacrificingThread:
    """Demotes low-priority faults from synchronous to asynchronous."""

    kthread: KernelThread
    prefetcher: Optional[VirtualAddressPrefetcher] = None
    sacrifices: int = 0

    def handle_fault(self, sim: "Simulation", process: Process, vpn: int) -> None:
        """Switch the fault to asynchronous mode and yield the CPU."""
        telemetry = sim.telemetry
        causal = telemetry.causal if telemetry is not None else None
        start_ns = sim.machine.now_ns
        self.sacrifices += 1
        sim.log_event("sacrifice", process.pid, vpn)
        if causal is not None:
            # The sacrifice decision precedes the fault record (the
            # fault is registered when the async servicing begins), so
            # it opens a scope the fault will attach under.
            sacrifice_id = causal.add(
                "sacrifice", start_ns, pid=process.pid, vpn=vpn,
                parent=causal.parent,
            )
            causal.push(sacrifice_id)
        self.kthread.activate(sim.machine.now_ns, self.kthread.entry_cost_ns)
        # The mode-switch decision itself runs in kernel space for a few
        # hundred nanoseconds on the faulting process's time (ledger:
        # kernel-thread run — ITS thread work outside any stolen window).
        sim.consume_time(
            process, self.kthread.entry_cost_ns, category="kthread_run"
        )
        entry_done_ns = sim.machine.now_ns
        if self.prefetcher is not None:
            candidates, walk_cost_ns = self.prefetcher.collect(process.pid, vpn)
            sim.consume_time(process, walk_cost_ns, category="kthread_run")
            for candidate in candidates:
                sim.issue_prefetch(process.pid, candidate)
            if telemetry is not None:
                if walk_cost_ns > 0:
                    telemetry.record_span(
                        "fault.sacrifice.prefetch_walk",
                        entry_done_ns,
                        entry_done_ns + walk_cost_ns,
                        track="its",
                        pid=process.pid,
                    )
                distance_hist = telemetry.histogram(
                    "its.prefetch.distance_pages", DEFAULT_COUNT_BOUNDS
                )
                for candidate in candidates:
                    distance_hist.observe(abs(candidate - vpn))
        if telemetry is not None:
            telemetry.record_span(
                "fault.sacrifice", start_ns, sim.machine.now_ns,
                track="its", pid=process.pid, args={"vpn": vpn},
            )
        try:
            block_on_fault(sim, process, vpn, resume=True)
        finally:
            if causal is not None:
                causal.pop()
