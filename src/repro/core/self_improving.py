"""The self-improving kernel thread (Section 3.4).

For a high-priority process, the major fault is served synchronously,
and the busy-wait window is stolen: the thread activates (kernel-entry
cost only, Section 3.2), runs the page-prefetch policy over DMA, spends
whatever window remains on fault-aware pre-execution, and finally the
state-recovery policy restores the checkpointed context when the demand
I/O completes.

Graceful degradation: when fault injection is active and a steal window
stretches past ``FaultConfig.demote_after_ns`` (tail read, DMA retries,
fallback path), committing to the synchronous wait would be worse than a
context switch.  The thread then *demotes* the fault: it steals only up
to the deadline, restores the checkpoint via the state-recovery policy,
and blocks the process so the rest of the wait behaves like the async
baseline (queue-head resume with the residual slice, mirroring the
self-sacrificing path).  Demotions surface as ``its.demote.*`` counters
and ``fault.its.demote`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.preexec import FaultAwarePreExecutePolicy
from repro.core.prefetch import VirtualAddressPrefetcher
from repro.core.recovery import StateRecoveryPolicy
from repro.kernel.kthread import KernelThread
from repro.kernel.process import Process
from repro.telemetry.registry import DEFAULT_COUNT_BOUNDS, PERCENT_BOUNDS

if TYPE_CHECKING:
    from repro.sim.simulator import Simulation


@dataclass
class SelfImprovingThread:
    """Steals synchronous busy-wait windows for prefetch + pre-execution."""

    kthread: KernelThread
    prefetcher: Optional[VirtualAddressPrefetcher]
    preexec: Optional[FaultAwarePreExecutePolicy]
    recovery: StateRecoveryPolicy
    prefetch_discovered: bool = False
    """Also prefetch the non-resident pages the speculative stream
    touched.  An extension beyond the paper (its prefetcher is purely
    VA-adjacent); off by default, available for the ablation bench."""
    windows_stolen: int = 0
    demotions: int = 0

    def handle_fault(self, sim: "Simulation", process: Process, vpn: int) -> None:
        """Serve a high-priority major fault synchronously, stealing the
        wait window."""
        machine = sim.machine
        telemetry = sim.telemetry
        fault_start = machine.now_ns
        fault = machine.fault_handler.begin_major_fault(
            process.pid, vpn, machine.now_ns
        )
        window_ns = fault.io_done_ns - fault.handler_done_ns
        faults_cfg = machine.config.faults
        if (
            faults_cfg.enabled
            and faults_cfg.demote_after_ns > 0
            and window_ns > faults_cfg.demote_after_ns
        ):
            self._demote(sim, process, vpn, fault, fault_start, window_ns)
            return
        causal = telemetry.causal if telemetry is not None else None
        if causal is not None:
            # The steal window scopes everything the kernel thread does
            # (entry, prefetch issues, pre-execution) under one node.
            steal_id = causal.add(
                "steal", fault.handler_done_ns,
                pid=process.pid, vpn=vpn,
                parent=causal.fault_of(process.pid), window_ns=window_ns,
            )
            causal.push(steal_id)
        work_start, budget_ns = self.kthread.activate(fault.handler_done_ns, window_ns)
        # For tracing, the entry/checkpoint phase cannot outlast the
        # window itself (a too-small window means the thread never ran).
        entry_end_ns = min(work_start, fault.io_done_ns)
        walk_end_ns = entry_end_ns
        preexec_end_ns = entry_end_ns

        recovery_latency = 0
        if budget_ns > 0 and not process.finished:
            self.windows_stolen += 1
            sim.log_event("steal", process.pid, vpn)
            self.recovery.checkpoint(process.registers)

            if self.prefetcher is not None:
                candidates, walk_cost_ns = self.prefetcher.collect(process.pid, vpn)
                budget_ns = max(0, budget_ns - walk_cost_ns)
                walk_end_ns = min(work_start + walk_cost_ns, fault.io_done_ns)
                for candidate in candidates:
                    sim.issue_prefetch(process.pid, candidate, at_ns=work_start)
                if telemetry is not None:
                    distance_hist = telemetry.histogram(
                        "its.prefetch.distance_pages", DEFAULT_COUNT_BOUNDS
                    )
                    for candidate in candidates:
                        distance_hist.observe(abs(candidate - vpn))
            preexec_end_ns = walk_end_ns

            if self.preexec is not None and process.pc + 1 < len(process.trace):
                episode, discovered = self.preexec.run(process, budget_ns)
                preexec_end_ns = min(
                    walk_end_ns
                    + episode.instructions * machine.config.its.preexec_instr_ns,
                    fault.io_done_ns,
                )
                # Pages the speculative stream found missing are known
                # future faults — prime prefetch candidates (extension,
                # see ``prefetch_discovered``).
                if self.prefetch_discovered and self.prefetcher is not None:
                    for candidate in discovered[: self.prefetcher.degree]:
                        sim.issue_prefetch(process.pid, candidate, at_ns=work_start)

            recovery_latency = self.recovery.restore(process.registers)

        if causal is not None:
            causal.pop()
            causal.add(
                "resume", fault.io_done_ns + recovery_latency,
                pid=process.pid, vpn=vpn,
                parent=causal.fault_of(process.pid),
            )
        # The window itself is still CPU idle time — committed progress
        # is stalled on storage throughout (the stolen work pays off as
        # *fewer future* faults and misses, which is what Section 4.2.1
        # attributes the idle-time reduction to).  Ledger split: the
        # handler, the kernel-thread phases inside the window (entry,
        # walk, runahead) as stolen run, the residual busy-wait as spin,
        # and the register restore after the I/O as kernel-thread run.
        sim.consume_time(
            process, fault.io_done_ns - machine.now_ns + recovery_latency,
            category=None,
        )
        sim.charge_time(process.pid, "handler", machine.config.fault_handler_ns)
        sim.charge_time(
            process.pid, "stolen_run", preexec_end_ns - fault.handler_done_ns
        )
        sim.charge_time(
            process.pid, "spin_wait", fault.io_done_ns - preexec_end_ns
        )
        sim.charge_time(process.pid, "kthread_run", recovery_latency)
        process.stats.sync_faults += 1
        machine.memory.install_page(process.pid, vpn)
        if telemetry is not None:
            self._trace_fault_phases(
                telemetry,
                pid=process.pid,
                vpn=vpn,
                fault_start=fault_start,
                handler_done=fault.handler_done_ns,
                work_start=entry_end_ns,
                walk_end=walk_end_ns,
                preexec_end=preexec_end_ns,
                io_done=fault.io_done_ns,
                recovery_latency=recovery_latency,
                window_ns=window_ns,
            )

    def _demote(
        self,
        sim: "Simulation",
        process: Process,
        vpn: int,
        fault,
        fault_start: int,
        window_ns: int,
    ) -> None:
        """Gracefully degrade a stalled steal window to the async path.

        The window turned out longer than the demotion deadline (tail
        read, DMA retries, fallback recovery), so committing to the
        synchronous wait would cost more than a context switch.  The
        thread steals only up to the deadline — checkpoint, prefetch
        walk, pre-execution within the truncated budget — then the
        state-recovery policy restores the checkpointed registers and
        the process blocks.  The remainder of the wait is ordinary
        asynchronous idle; on completion the process re-enters at the
        queue head with its residual slice (the self-sacrificing resume
        contract), so demotion never costs it a turn.
        """
        machine = sim.machine
        telemetry = sim.telemetry
        causal = telemetry.causal if telemetry is not None else None
        deadline_ns = machine.config.faults.demote_after_ns
        deadline_abs = fault.handler_done_ns + deadline_ns
        self.demotions += 1
        sim.log_event("demote", process.pid, vpn)

        if causal is not None:
            demote_id = causal.add(
                "demote", fault.handler_done_ns,
                pid=process.pid, vpn=vpn,
                parent=causal.fault_of(process.pid),
                window_ns=window_ns, deadline_ns=deadline_ns,
            )
            causal.push(demote_id)
        work_start, budget_ns = self.kthread.activate(
            fault.handler_done_ns, deadline_ns
        )
        stole = budget_ns > 0 and not process.finished
        recovery_latency = 0
        if budget_ns > 0 and not process.finished:
            self.windows_stolen += 1
            self.recovery.checkpoint(process.registers)
            if self.prefetcher is not None:
                candidates, walk_cost_ns = self.prefetcher.collect(process.pid, vpn)
                budget_ns = max(0, budget_ns - walk_cost_ns)
                for candidate in candidates:
                    sim.issue_prefetch(process.pid, candidate, at_ns=work_start)
            if self.preexec is not None and process.pc + 1 < len(process.trace):
                self.preexec.run(process, budget_ns)
            recovery_latency = self.recovery.restore(process.registers)

        if causal is not None:
            causal.pop()
        # The CPU is occupied from the fault through the deadline and the
        # register restore; only that truncated slice of the window stays
        # synchronous idle — the abandoned remainder is async wait.
        # Ledger: the occupied slice is stolen run when the kernel thread
        # got a budget (the restore after it kernel-thread run), residual
        # spin otherwise; the abandoned remainder books as demoted_wait
        # from the idle loop while this fault is pending.
        sim.consume_time(
            process, deadline_abs - machine.now_ns + recovery_latency,
            category=None,
        )
        sim.charge_time(process.pid, "handler", machine.config.fault_handler_ns)
        occupied_ns = deadline_abs - fault.handler_done_ns
        if stole:
            sim.charge_time(process.pid, "stolen_run", occupied_ns)
            sim.charge_time(process.pid, "kthread_run", recovery_latency)
        else:
            sim.charge_time(process.pid, "spin_wait", occupied_ns)
        process.stats.async_faults += 1
        blocked_from = machine.now_ns
        resume_at = max(fault.io_done_ns, blocked_from)
        sim.note_demote_blocked(+1)

        def complete(__event) -> None:
            if not machine.memory.is_resident_or_cached(process.pid, vpn):
                machine.memory.install_page(process.pid, vpn)
            sim.scheduler.unblock(process, resume=True, ready_ns=resume_at)
            sim.note_demote_blocked(-1)
            if causal is not None:
                unblock_id = causal.add(
                    "unblock", resume_at,
                    pid=process.pid, vpn=vpn,
                    parent=causal.fault_of(process.pid),
                )
                causal.note_unblock(process.pid, unblock_id)

        machine.events.schedule_at(
            resume_at, tag=f"demote:{process.pid}:{vpn:#x}", callback=complete
        )
        sim.scheduler.block_current()
        if telemetry is not None:
            telemetry.counter("its.demote.count").inc()
            telemetry.histogram("its.demote.window_ns").observe(window_ns)
            telemetry.record_span(
                "fault.its.demote", fault_start, blocked_from,
                track="its", pid=process.pid, args={"vpn": vpn},
            )
            telemetry.record_span(
                "fault.its.demote.blocked", blocked_from, resume_at,
                track="cpu", pid=process.pid, args={"vpn": vpn},
            )
            telemetry.histogram("fault.service_ns").observe(resume_at - fault_start)

    def _trace_fault_phases(
        self,
        telemetry,
        *,
        pid: int,
        vpn: int,
        fault_start: int,
        handler_done: int,
        work_start: int,
        walk_end: int,
        preexec_end: int,
        io_done: int,
        recovery_latency: int,
        window_ns: int,
    ) -> None:
        """Emit the per-phase spans and window histograms of one stolen
        fault.

        The child phases tile the parent ``fault.its`` span exactly:
        handler -> checkpoint (kernel entry + register snapshot) ->
        prefetch_walk -> runahead -> wait (residual busy-wait) ->
        restore, so summed child durations equal the parent duration.
        """
        end = io_done + recovery_latency
        args = {"vpn": vpn}
        telemetry.record_span(
            "fault.its", fault_start, end, track="its", pid=pid, args=args
        )
        telemetry.record_span(
            "fault.its.checkpoint", handler_done, work_start, track="its", pid=pid
        )
        if walk_end > work_start:
            telemetry.record_span(
                "fault.its.prefetch_walk", work_start, walk_end, track="its", pid=pid
            )
        if preexec_end > walk_end:
            telemetry.record_span(
                "fault.its.runahead", walk_end, preexec_end, track="its", pid=pid
            )
        if io_done > preexec_end:
            telemetry.record_span(
                "fault.its.wait", preexec_end, io_done, track="its", pid=pid
            )
        if recovery_latency > 0:
            telemetry.record_span(
                "fault.its.restore", io_done, end, track="its", pid=pid
            )
        telemetry.histogram("fault.service_ns").observe(end - fault_start)
        telemetry.histogram("its.steal.window_ns").observe(window_ns)
        if window_ns > 0:
            used_ns = preexec_end - handler_done  # entry + walk + runahead
            telemetry.histogram(
                "its.steal.utilization_pct", PERCENT_BOUNDS
            ).observe(100 * used_ns / window_ns)
