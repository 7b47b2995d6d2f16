"""The multi-programmed, trace-driven simulation loop.

One CPU executes the admitted processes under SCHED_RR; the installed
:class:`~repro.baselines.base.IOPolicy` decides what happens at every
major page fault.  Device-side progress (demand swap-ins, prefetches,
asynchronous completions) fires from the event queue as the clock
advances, so CPU and DMA overlap exactly as the paper's design intends.

The paper's premise — only the window around a page fault needs exact,
cycle-level treatment — applies to the simulator itself.  A single-core
run commits fault-free stretches of a trace in *windows*
(:meth:`Simulation._run_window`) and hands every fault-adjacent decision
to the same code the per-record step (:meth:`Simulation._step_current`)
uses; both leave the same result and machine state (docs/MODEL.md, "How
a run commits records").
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.baselines.base import IOPolicy
from repro.baselines.sync_runahead import SyncRunaheadPolicy
from repro.common.config import MachineConfig
from repro.common.errors import SimulationError
from repro.cpu.core import StepOutcome, StepResult
from repro.cpu.isa import Branch, Compute, Instruction, Load, Store
from repro.kernel.process import Process
from repro.kernel.scheduler import RoundRobinScheduler
from repro.kernel.smp import SMPScheduler
from repro.serving.admission import AdmissionView, Decision, build_admission
from repro.serving.request import (
    OUTCOME_ADMITTED,
    OUTCOME_COMPLETED,
    OUTCOME_DROPPED,
    Request,
    ServingSummary,
)
from repro.sim.machine import Machine, SMPMachine
from repro.sim.metrics import IdleBreakdown, ProcessRecord, SimulationResult, process_times
from repro.storage.dma import DMARequest
from repro.telemetry.ledger import (
    BUSY,
    CTX_SWITCH,
    HANDLER,
    MEMORY_STALL,
    MIGRATION,
    NO_TIME,
    RUN,
    TLB_SHOOTDOWN,
    WAITING,
)
from repro.trace.record import footprint_vpns
from repro.vm.mm import FaultKind
from repro.vm.replacement import (
    GlobalLRUPolicy,
    PriorityAwareLRUPolicy,
    ResidentPage,
)

if TYPE_CHECKING:
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class WorkloadInstance:
    """One process to admit: a named trace with a priority.

    ``mapped_vpns`` optionally declares the process's full mapped
    address space; when omitted it defaults to the pages the trace
    touches.  Mapping more than is touched is how graph workloads expose
    a real prefetch-accuracy problem (candidates may never be used).
    """

    name: str
    trace: list[Instruction]
    priority: int
    data_intensive: bool = False
    mapped_vpns: Optional[frozenset[int]] = None


def _rescale_vpns(vpns_4k: frozenset[int], page_size: int) -> set[int]:
    """Convert 4 KiB-based VPNs (the declaration convention used by the
    workload catalogue) to the machine's page granularity."""
    shift = page_size.bit_length() - 1
    delta = shift - 12
    if delta == 0:
        return set(vpns_4k)
    if delta > 0:  # huge pages: many 4K pages per machine page
        return {v >> delta for v in vpns_4k}
    # sub-4K pages: each 4K page spans several machine pages
    per_page = 1 << (-delta)
    return {
        (v << (-delta)) + i for v in vpns_4k for i in range(per_page)
    }


_COMPUTE = 0
_LOAD = 1
_STORE = 2
_UNKNOWN = 3

_ISA_TYPES = (Compute, Branch, Store, Load)
"""Record types in the core's dispatch order (Store before Load, as the
core decides ``is_write`` by ``isinstance(instr, Store)``)."""


@dataclass(frozen=True)
class TraceColumns:
    """Columnar view of one trace, in flat machine-int arrays.

    ``kind`` holds one ``_COMPUTE``/``_LOAD``/``_STORE``/``_UNKNOWN``
    byte per record (branches are compute).  ``cum`` has
    ``len(trace) + 1`` entries: ``cum[j] - cum[i]`` is the compute cost
    of records ``[i, j)`` (memory ops contribute zero), so a compute run
    fast-forwards the clock by one subtraction.  ``next_mem[i]`` is the
    first index ``>= i`` holding a non-compute record, or ``len(trace)``.
    """

    kind: bytearray
    cum: array
    vpn: array
    off: array
    next_mem: array


def build_columns(trace, page_shift: int, page_mask: int, compute_ns: int) -> TraceColumns:
    """Preprocess *trace* into :class:`TraceColumns` in one pass."""
    kind = bytearray()
    cum = array("q", [0])
    vpn = array("q")
    off = array("q")
    next_mem = array("q")
    total = 0
    for i, instr in enumerate(trace):
        t = instr.__class__
        if t not in _ISA_TYPES:
            # A subclass dispatches like its base; anything else raises
            # the core's TypeError if execution reaches it.
            t = next((base for base in _ISA_TYPES if isinstance(instr, base)), None)
        vaddr = 0
        if t is Compute:
            total += instr.cycles * compute_ns
            kind.append(_COMPUTE)
        elif t is Branch:
            total += compute_ns
            kind.append(_COMPUTE)
        else:
            # A non-compute record closes the compute run before it.
            next_mem.extend([i] * (i + 1 - len(next_mem)))
            if t is Load or t is Store:
                kind.append(_LOAD if t is Load else _STORE)
                vaddr = instr.vaddr
            else:
                kind.append(_UNKNOWN)
        cum.append(total)
        vpn.append(vaddr >> page_shift)
        off.append(vaddr & page_mask)
    n = len(kind)
    next_mem.extend([n] * (n + 1 - len(next_mem)))
    return TraceColumns(kind=kind, cum=cum, vpn=vpn, off=off, next_mem=next_mem)


class Simulation:
    """A single run: one machine, one process batch, one I/O policy."""

    MAX_STEPS = 200_000_000
    """Hard safety bound on loop iterations (a run that needs more than
    this has diverged)."""

    def __init__(
        self,
        config: MachineConfig,
        workloads: Sequence[WorkloadInstance],
        policy,
        *,
        batch_name: str = "custom",
        telemetry: Optional["Telemetry"] = None,
        requests: Optional[Sequence[Request]] = None,
    ) -> None:
        if not workloads:
            raise SimulationError("a simulation needs at least one workload")
        if requests is not None and len(requests) != len(workloads):
            raise SimulationError(
                "open-loop runs need exactly one request per workload"
            )
        self.config = config
        self.policy = policy
        self.batch_name = batch_name
        self.telemetry = telemetry

        self.processes: list[Process] = [
            Process(
                pid=index,
                name=w.name,
                priority=w.priority,
                trace=w.trace,
                data_intensive=w.data_intensive,
            )
            for index, w in enumerate(workloads)
        ]
        replacement = policy.create_replacement(self.processes)
        self._smp = config.cores.count > 1
        machine_cls = SMPMachine if self._smp else Machine
        self.machine = machine_cls(
            config,
            replacement,
            with_preexec_cache=policy.uses_preexec_cache,
            telemetry=telemetry,
        )
        if telemetry is not None:
            telemetry.bind_clock(lambda: self.machine.now_ns)
            if self._smp:
                telemetry.bind_core(lambda: self.machine.active)
        # The causal graph is an opt-in rider on the telemetry handle;
        # it stays None (and costs one comparison per site) on ordinary
        # runs.
        self._causal = telemetry.causal if telemetry is not None else None
        self._demoted_pending = 0
        page_size = config.memory.page_size
        for process, workload in zip(self.processes, workloads):
            vpns = set(footprint_vpns(process.trace, page_size))
            if workload.mapped_vpns is not None:
                declared = _rescale_vpns(workload.mapped_vpns, page_size)
                missing = vpns - declared
                if missing:
                    raise SimulationError(
                        f"workload {process.name!r} touches pages outside its "
                        f"declared mapping (e.g. vpn {min(missing):#x})"
                    )
                vpns = declared
            if not vpns:
                raise SimulationError(f"workload {process.name!r} touches no memory")
            self.machine.memory.register_process(process.pid, sorted(vpns))

        if self._smp:
            self.scheduler = SMPScheduler(
                config.scheduler,
                config.cores,
                lambda: self.machine.now_ns,
                telemetry=telemetry,
            )
        else:
            self.scheduler = RoundRobinScheduler(config.scheduler)

        # Open-loop serving mode: processes are *not* admitted at t=0;
        # each arrives through the event queue at its request's arrival
        # time and passes admission first (docs/SERVING.md).  Closed-loop
        # runs take the legacy everything-at-zero path, bit-identically.
        self._serving = requests is not None
        self._requests: list[Request] = list(requests) if requests else []
        self._arrivals_outstanding = 0
        self._admission = build_admission(config.serving) if self._serving else None
        if self._serving:
            for process, request in zip(self.processes, self._requests):
                if request.rid != process.pid:
                    raise SimulationError(
                        f"request {request.rid} paired with pid {process.pid}"
                    )
                self._arrivals_outstanding += 1
                self.machine.events.schedule_at(
                    request.arrival_ns, "arrival", self._on_arrival,
                    payload=process.pid,
                )
        else:
            for process in self.processes:
                self.scheduler.add(process)

        self._last_pid: Optional[int] = None
        self._prefetch_inflight: set[tuple[int, int]] = set()

        # Window state, filled lazily by run(): trace columns keyed by
        # id(trace), and (pid, vpn) -> (PageTableEntry, ResidentPage) so
        # one lookup serves the walk and the replacement touch on a hit.
        self._columns: dict[int, TraceColumns] = {}
        self._page_cache: dict = {}
        hook = type(policy).on_instruction_complete
        # The runahead hook is a no-op unless the record stalled, so a
        # window calls it on stalls only.
        self._hook = (
            None if hook is IOPolicy.on_instruction_complete
            else policy.on_instruction_complete
        )
        # Shapes that commit one record per step: SMP cores interleave
        # per record; any other instruction hook could observe every
        # record.
        self._per_record = (
            self._smp
            or hook not in (
                IOPolicy.on_instruction_complete,
                SyncRunaheadPolicy.on_instruction_complete,
            )
        )
        policy.attach(self)

    # -- driving the run ----------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute until every process finishes; returns the result.

        A single-core run commits records in windows
        (:meth:`_run_window`) unless its shape needs one record per step
        (``_per_record``: SMP, an unknown instruction hook).
        """
        if self._smp:
            return self._run_smp()
        return self._run_single(
            self._step_current if self._per_record else self._run_window
        )

    def _run_per_record(self) -> SimulationResult:
        """:meth:`run` committing every record through
        :meth:`_step_current`: the oracle windowed runs are tested
        against."""
        if self._smp:
            return self._run_smp()
        return self._run_single(self._step_current)

    def _run_single(self, commit) -> SimulationResult:
        """The single-core driving loop: dispatch (or idle to the next
        event), then let *commit* run the current process."""
        steps = 0
        while self.scheduler.has_work() or self._arrivals_outstanding > 0:
            steps += 1
            if steps > self.MAX_STEPS:
                raise SimulationError("simulation exceeded MAX_STEPS; diverged?")
            if self.scheduler.current is None:
                if not self._dispatch_or_idle():
                    continue
            commit()
        return self._build_result()

    def _run_smp(self) -> SimulationResult:
        """The SMP driving loop: interleave cores lowest-clock first.

        Each core runs its own clock, advanced only while the core is
        active.  One iteration: (a) if no core has runnable work, fire
        the earliest pending event batch without moving any clock;
        (b) let idle cores steal from loaded ones; (c) activate the
        runnable core with the smallest clock (ties to the lowest id),
        pay any pending TLB-shootdown IPIs, clamp its clock to the
        dispatchee's ready time, and run one single-core step on it
        unchanged.  Lowest-clock-first selection bounds cross-core
        causality skew to one execution step (docs/SMP.md).
        """
        machine = self.machine
        scheduler = self.scheduler
        cores = machine.cores
        indices = range(len(cores))
        migration_ns = self.config.cores.migration_cost_ns
        steps = 0
        while scheduler.has_work() or self._arrivals_outstanding > 0:
            steps += 1
            if steps > self.MAX_STEPS:
                raise SimulationError("simulation exceeded MAX_STEPS; diverged?")

            runnable = [i for i in indices if scheduler.core_runnable(i)]
            if not runnable:
                # Everything is blocked on I/O: deliver the earliest
                # completions; they unblock onto their owning cores.
                machine.fire_next_event()
                continue

            for thief in indices:
                if scheduler.core_runnable(thief):
                    continue
                stolen = scheduler.try_steal(thief)
                if stolen is None:
                    continue
                machine.activate(thief)
                scheduler.active = thief
                machine.advance_idle_to(stolen.ready_since_ns)
                machine.charge_steal(migration_ns)
                stolen.ready_since_ns = machine.now_ns
                runnable.append(thief)
                self.log_event("steal", stolen.pid)

            index = min(runnable, key=lambda i: (cores[i].now_ns, i))
            machine.activate(index)
            scheduler.active = index
            machine.drain_pending_shootdowns()
            self._last_pid = cores[index].last_pid
            if scheduler.current is None:
                head = scheduler.peek_next()
                if head is not None:
                    # The core idled until the event that readied the
                    # process it is about to run.
                    machine.advance_idle_to(head.ready_since_ns)
                if not self._dispatch_or_idle():
                    cores[index].last_pid = self._last_pid
                    continue
            self._step_current()
            cores[index].last_pid = self._last_pid

        machine.finalize()
        return self._build_result()

    def _dispatch_or_idle(self) -> bool:
        """Bring a process onto the CPU; returns True if one is running."""
        process = self.scheduler.dispatch()
        if process is None:
            self._idle_until_next_event()
            return False
        if self._last_pid is not None and self._last_pid != process.pid:
            switch_start = self.machine.now_ns
            cost = self.machine.context_switch.perform(self._last_pid)
            self.machine.advance(cost)
            self.charge_time(process.pid, "ctx_switch", cost)
            process.stats.context_switches += 1
            self.log_event("ctx_switch", process.pid)
            if self.telemetry is not None:
                self.telemetry.record_span(
                    "sched.ctx_switch", switch_start, switch_start + cost,
                    track="cpu", pid=process.pid,
                )
        self._last_pid = process.pid
        if self._serving:
            request = self._requests[process.pid]
            if request.start_ns is None:
                request.start_ns = self.machine.now_ns
        self.log_event("dispatch", process.pid)
        if self._causal is not None:
            unblock_id = self._causal.take_unblock(process.pid)
            if unblock_id is not None:
                self._causal.add(
                    "resume", self.machine.now_ns,
                    pid=process.pid, parent=unblock_id,
                )
        return True

    def _idle_until_next_event(self) -> None:
        next_time = self.machine.events.peek_time()
        if next_time is None:
            raise SimulationError(
                "no runnable process and no pending I/O: the machine is deadlocked"
            )
        gap = max(0, next_time - self.machine.now_ns)
        idle_start = self.machine.now_ns
        # Classify the gap while its reason is still observable: DMA in
        # flight means the core sleeps on storage; a pending demoted
        # fault means it waits out a demoted tail; anything else is
        # plain idle.
        if self.machine.dma.inflight > 0:
            category = "dma_wait"
        elif self._demoted_pending > 0:
            category = "demoted_wait"
        else:
            category = "idle"
        self.charge_time(None, category, gap)
        self.machine.advance_to(max(next_time, self.machine.now_ns))
        if self.telemetry is not None and gap > 0:
            self.telemetry.record_span(
                "cpu.idle", idle_start, idle_start + gap, track="cpu"
            )
            self.telemetry.histogram("cpu.idle_gap_ns").observe(gap)

    def _step_current(self) -> None:
        """Commit one record of the current process (the per-record path)."""
        process = self.scheduler.current
        if process is None:  # the fault handler may have blocked it
            return
        machine = self.machine
        instr = process.current_instruction
        result = machine.cpu.execute(process.pid, instr)

        if result.outcome is StepOutcome.MAJOR_FAULT:
            self._major_fault(process, result.fault_vpn)
            return

        time_ns = result.time_ns
        stall = result.stall_ns
        handler = self.config.fault_handler_ns if result.minor_fault else 0
        row = machine.ledger.row(machine.active, process.pid)
        row[RUN] += time_ns - stall - handler
        row[MEMORY_STALL] += stall
        row[HANDLER] += handler
        machine.advance(time_ns)
        process.slice_remaining_ns -= time_ns
        if result.minor_fault:
            process.stats.minor_faults += 1
            self.log_event("minor_fault", process.pid)
        self.policy.on_instruction_complete(self, process, instr, result)
        process.advance()

        if process.finished:
            self._finish_current(process)
        elif process.slice_remaining_ns <= 0:
            self.scheduler.preempt_current()
        elif self.scheduler.resume_preempts_current():
            self._resume_preempt()

    def _major_fault(self, process: Process, vpn: int) -> None:
        """Hand a major fault to the policy; preempt the process if the
        fault used up its slice and it still holds the CPU."""
        process.stats.major_faults += 1
        self.log_event("major_fault", process.pid, vpn)
        self.policy.on_major_fault(self, process, vpn)
        if self.scheduler.current is process and process.slice_remaining_ns <= 0:
            self.scheduler.preempt_current()

    def _finish_current(self, process: Process) -> None:
        """Retire the current process after its last record."""
        self.scheduler.finish_current(self.machine.now_ns)
        self._release_process_memory(process.pid)
        self.log_event("finish", process.pid)
        if self._serving:
            self._finish_request(process.pid)

    def _resume_preempt(self) -> None:
        """A sacrificed process's I/O completed and it outranks the
        running process: RT semantics let it take the CPU back."""
        displaced = self.scheduler.preempt_for_resume()
        switch_start = self.machine.now_ns
        cost = self.machine.context_switch.perform(displaced.pid)
        self.machine.advance(cost)
        resumed = self.scheduler.current
        self.charge_time(
            resumed.pid if resumed is not None else None,
            "ctx_switch", cost,
        )
        if resumed is not None:
            resumed.stats.context_switches += 1
            self._last_pid = resumed.pid
            if self._causal is not None:
                unblock_id = self._causal.take_unblock(resumed.pid)
                if unblock_id is not None:
                    self._causal.add(
                        "resume", self.machine.now_ns,
                        pid=resumed.pid, parent=unblock_id,
                    )
        if self.telemetry is not None:
            self.telemetry.record_span(
                "sched.ctx_switch", switch_start, switch_start + cost,
                track="cpu",
                pid=resumed.pid if resumed is not None else None,
            )

    def _columns_for(self, trace) -> TraceColumns:
        columns = self._columns.get(id(trace))
        if columns is None:
            page_size = self.config.memory.page_size
            columns = build_columns(
                trace,
                page_size.bit_length() - 1,
                page_size - 1,
                self.config.compute_ns_per_instr,
            )
            self._columns[id(trace)] = columns
        return columns

    def _run_window(self) -> None:
        """Run the current process until it faults, finishes, is
        preempted, or yields to a resuming sacrificer.

        Compute runs fast-forward the clock by a prefix-sum difference,
        cut by binary search at the record that exhausts the slice or
        reaches the next device event.  Memory ops take an inlined TLB
        probe and page-table-hit path that makes the core's mutations in
        the core's order.  Anything fault-adjacent defers to
        :meth:`MemoryManager.classify_touch`, and a MAJOR fault leaves
        through :meth:`_major_fault`, as in :meth:`_step_current`.

        Local mirrors of the hot state (clock, pc, slice, stat counters)
        are flushed back at every externally observable point — event
        firing, logged events, policy hooks, fault paths, window exit —
        so code outside this method sees the state the per-record path
        would have left at the same virtual instant.
        """
        process = self.scheduler.current
        if process is None:  # the fault handler may have blocked it
            return
        pid = process.pid
        trace = process.trace
        columns = self._columns_for(trace)
        kind = columns.kind
        cum = columns.cum
        vpns = columns.vpn
        offs = columns.off
        next_mem = columns.next_mem
        n = len(trace)

        machine = self.machine
        scheduler = self.scheduler
        events = machine.events
        run_due = events.run_due
        peek_time = events.peek_time
        resume_preempts = scheduler.resume_preempts_current
        memory = machine.memory
        mm = memory.mm_of(pid)
        pte_for = mm.pte_for
        classify = memory.classify_touch
        replacement = memory.replacement
        on_touch = replacement.on_touch
        # Both LRU-family policies implement on_touch as "move to MRU if
        # tracked"; inline that as a single OrderedDict op.  Other (or
        # subclassed) policies keep the virtual call.
        lru_move = (
            replacement._lru.move_to_end
            if type(replacement) in (GlobalLRUPolicy, PriorityAwareLRUPolicy)
            else None
        )
        frames_info_get = memory.frames._info.get
        tlb = machine.tlb
        entries = tlb._entries
        entries_get = entries.get
        move_to_end = entries.move_to_end
        tlb_insert = tlb.insert
        tlb_hit_ns = tlb.config.hit_latency_ns
        tlb_miss_ns = tlb.config.miss_walk_latency_ns
        hierarchy = machine.hierarchy
        full_hierarchy = hierarchy.l1 is not None
        hier_access = hierarchy.access
        llc = hierarchy.llc
        llc_access = llc.access
        llc_sets = llc._sets
        llc_line_bits = llc._line_bits
        llc_set_mask = llc._set_mask
        llc_tag_shift = llc_set_mask.bit_length()
        llc_stats = llc.stats
        llc_hit_ns = llc.config.hit_latency_ns
        line_size = llc.config.line_size
        dram_read = hierarchy.dram.read_latency_ns
        dram_write = hierarchy.dram.write_latency_ns
        page_size = memory.frames.page_size
        fault_handler_ns = self.config.fault_handler_ns
        cpu = machine.cpu
        stats = process.stats
        registers = process.registers
        row = machine.ledger.row(machine.active, pid)
        tlb_stats = tlb.stats
        page_cache = self._page_cache
        page_cache_get = page_cache.get
        hook = self._hook
        telemetry = self.telemetry

        now = machine.now_ns
        pc = process.pc
        slice_left = process.slice_remaining_ns

        # Same-page streak state: while consecutive memory ops touch one
        # vpn and nothing external runs in between, the TLB entry, the
        # replacement-LRU position, the PTE accessed bit and the frame's
        # prefetched flag are all provably already in their post-touch
        # state, so the repeat probe reduces to a hit count + latency.
        # Reset (-1) at every external call: events, hooks, fault paths.
        last_v = -1
        last_pte = None
        last_frame = 0

        d_committed = 0
        d_cpu = 0
        d_stall = 0
        d_minor = 0
        d_hits = 0
        d_misses = 0
        d_llc_hits = 0

        def flush() -> None:
            nonlocal d_committed, d_cpu, d_stall, d_minor, d_hits, d_misses
            nonlocal d_llc_hits
            machine.now_ns = now
            process.pc = pc
            registers.pc = pc
            process.slice_remaining_ns = slice_left
            if d_committed:
                cpu.instructions_committed += d_committed
                d_committed = 0
            if d_cpu:
                handler = d_minor * fault_handler_ns
                row[RUN] += d_cpu - d_stall - handler
                row[MEMORY_STALL] += d_stall
                row[HANDLER] += handler
                d_cpu = d_stall = 0
            if d_minor:
                stats.minor_faults += d_minor
                d_minor = 0
            if d_hits:
                tlb_stats.hits += d_hits
                d_hits = 0
            if d_misses:
                tlb_stats.misses += d_misses
                d_misses = 0
            if d_llc_hits:
                llc_stats.demand_hits += d_llc_hits
                d_llc_hits = 0

        next_event = peek_time()
        resume_pending = resume_preempts()

        while True:
            k = kind[pc]
            if k == _COMPUTE:
                # Fast-forward a fault-free compute/branch run [pc, stop).
                base = cum[pc]
                stop = next_mem[pc]
                if cum[stop] - base >= slice_left:
                    stop = bisect_left(cum, base + slice_left, pc + 1, stop)
                if next_event is not None and cum[stop] - base >= next_event - now:
                    stop = bisect_left(cum, base + (next_event - now), pc + 1, stop)
                if resume_pending and stop > pc + 1:
                    # A higher-priority resume is already pending: the
                    # per-record path would yield after one record.
                    stop = pc + 1
                dt = cum[stop] - base
                d_committed += stop - pc
                d_cpu += dt
                now += dt
                slice_left -= dt
                # The record "in flight" at the cut, for any event
                # callback that observes process.pc (per-record timing:
                # events fire before the pc advances).
                pc = stop - 1
                stall = 0
                minor = False
            elif k == _UNKNOWN:
                flush()
                raise TypeError(f"unknown instruction {trace[pc]!r}")
            else:
                v = vpns[pc]
                if v == last_v:
                    # Same-page streak: the previous op left (pid, v) at
                    # TLB MRU and replacement MRU, accessed set and
                    # prefetched cleared — the repeat probe is a pure
                    # hit, every LRU move a no-op.
                    d_hits += 1
                    time_ns = tlb_hit_ns
                    pte = last_pte
                    frame2 = last_frame
                    minor = False
                else:
                    key = (pid, v)
                    frame = entries_get(key)
                    tlb_hit = frame is not None
                    if tlb_hit:
                        move_to_end(key)
                        d_hits += 1
                        time_ns = tlb_hit_ns
                    else:
                        d_misses += 1
                        time_ns = tlb_miss_ns
                    ent = page_cache_get(key)
                    if ent is not None:
                        pte, rp = ent
                    else:
                        pte = pte_for(v)
                        if pte is not None:
                            rp = ResidentPage(pid, v)
                            page_cache[key] = (pte, rp)
                    if pte is not None and pte.present:
                        # Inlined FaultKind.HIT classification: identical
                        # mutations in identical order to classify_touch().
                        pte.accessed = True
                        if lru_move is not None:
                            try:  # on_touch(): move to MRU if tracked
                                lru_move(rp)
                            except KeyError:
                                pass
                        else:
                            on_touch(rp)
                        info = frames_info_get(pte.frame)
                        if info is not None:  # clear_prefetched()
                            info.prefetched = False
                        frame2 = pte.frame
                        minor = False
                    else:
                        # Cold path (minor/major/unmapped): the classifier
                        # takes every decision.
                        flush()
                        touch = classify(pid, v)
                        if touch.kind is FaultKind.MAJOR:
                            if tlb_hit:
                                tlb.shootdown(pid, v)
                            self._major_fault(process, v)
                            return
                        pte = touch.pte
                        frame2 = touch.frame
                        minor = touch.kind is FaultKind.MINOR
                        if minor:
                            time_ns += fault_handler_ns
                            d_minor += 1
                        resume_pending = resume_preempts()
                        last_v = -1
                    if tlb_hit:
                        if frame != frame2:
                            entries[key] = frame2
                    else:
                        tlb_insert(pid, v, frame2)
                    if not minor:
                        last_v = v
                        last_pte = pte
                        last_frame = frame2
                is_write = k == _STORE
                if is_write:
                    pte.dirty = True
                paddr = frame2 * page_size + offs[pc]
                if full_hierarchy:
                    access = hier_access(
                        paddr, is_write=is_write, owner=pid, preexec=False
                    )
                    lat = access.latency_ns
                    stall = access.stall_ns
                else:
                    # Inlined SetAssociativeCache.access() hit path; a
                    # miss defers to the real method (fill + eviction).
                    # Read hits need one OrderedDict op (the LRU move);
                    # only writes fetch the line, to set its dirty bit.
                    line_key = paddr >> llc_line_bits
                    cache_set = llc_sets[line_key & llc_set_mask]
                    tag = line_key >> llc_tag_shift
                    if is_write:
                        cache_line = cache_set.get(tag)
                        if cache_line is not None:
                            cache_set.move_to_end(tag)
                            cache_line.dirty = True
                            d_llc_hits += 1
                            lat = llc_hit_ns
                            stall = 0
                        else:
                            llc_access(paddr, is_write=True, owner=pid, preexec=False)
                            stall = dram_write(line_size)
                            lat = llc_hit_ns + stall
                    else:
                        try:
                            cache_set.move_to_end(tag)
                            d_llc_hits += 1
                            lat = llc_hit_ns
                            stall = 0
                        except KeyError:
                            llc_access(paddr, is_write=False, owner=pid, preexec=False)
                            stall = dram_read(line_size)
                            lat = llc_hit_ns + stall
                time_ns += lat
                d_committed += 1
                d_cpu += time_ns
                d_stall += stall
                now += time_ns
                slice_left -= time_ns

            if next_event is not None and now >= next_event:
                flush()
                run_due(now)
                next_event = peek_time()
                now = machine.now_ns
                pc = process.pc
                slice_left = process.slice_remaining_ns
                resume_pending = resume_preempts()
                last_v = -1
            if minor and telemetry is not None:
                # Logged where the per-record step logs it: after due
                # events fire, before the instruction hook.
                flush()
                self.log_event("minor_fault", pid)
            if hook is not None and stall > 0:
                flush()
                hook(
                    self,
                    process,
                    trace[pc],
                    StepResult(
                        outcome=StepOutcome.COMPLETED,
                        time_ns=time_ns,
                        stall_ns=stall,
                        minor_fault=minor,
                    ),
                )
                next_event = peek_time()
                now = machine.now_ns
                slice_left = process.slice_remaining_ns
                resume_pending = resume_preempts()
                last_v = -1

            pc += 1
            if pc >= n:
                flush()
                self._finish_current(process)
                return
            if slice_left <= 0:
                flush()
                scheduler.preempt_current()
                return
            if resume_pending:
                flush()
                self._resume_preempt()
                return

    # -- open-loop serving ---------------------------------------------------

    def _serving_load(self) -> int:
        """Admitted-but-unfinished requests (the admission queue depth)."""
        return sum(1 for r in self._requests if r.outcome == OUTCOME_ADMITTED)

    def _on_arrival(self, event) -> None:
        """An arrival (or deferred re-arrival) event: run admission.

        The event time, not the possibly-ahead machine clock, is the
        arrival stamp: the request became ready at its scheduled instant
        even if the CPU only notices while committing an instruction.
        """
        pid = event.payload
        request = self._requests[pid]
        process = self.processes[pid]
        now = event.time_ns
        first_attempt = request.deferrals == 0 and request.enqueue_ns is None
        if first_attempt:
            self.log_event("request_arrival", pid)

        assert self._admission is not None
        view = AdmissionView(now_ns=now, in_system=self._serving_load())
        decision = self._admission.decide(request, view)

        if decision is Decision.DEFER:
            request.deferrals += 1
            self.machine.events.schedule_at(
                now + self.config.serving.defer_ns, "arrival",
                self._on_arrival, payload=pid,
            )
            self.log_event("request_defer", pid)
            return

        self._arrivals_outstanding -= 1
        if decision is Decision.DROP:
            request.outcome = OUTCOME_DROPPED
            self.log_event("request_drop", pid)
            return

        if decision is Decision.DEMOTE:
            request.demoted = True
            process.priority = 0
            self.log_event("request_demote", pid)

        request.outcome = OUTCOME_ADMITTED
        request.enqueue_ns = now
        self.scheduler.add(process)
        # The SMP scheduler stamps ready_since_ns with the admitting
        # core's clock; the request was ready at its arrival instant.
        process.ready_since_ns = now
        self.log_event("request_admit", pid)
        if self._causal is not None:
            node = self._causal.add("request_arrival", now, pid=pid)
            self._causal.note_unblock(pid, node)

    def _finish_request(self, pid: int) -> None:
        """Stamp completion and publish the request's latency."""
        request = self._requests[pid]
        now = self.machine.now_ns
        request.finish_ns = now
        request.outcome = OUTCOME_COMPLETED
        self.log_event("request_done", pid)
        if now > request.deadline_ns:
            self.log_event("deadline_miss", pid)
        if self.telemetry is not None:
            latency = request.latency_ns
            assert latency is not None
            self.telemetry.histogram("serving.latency_ns").observe(latency)
            self.telemetry.record_span(
                "serving.request", request.arrival_ns, now,
                track="serving", pid=pid,
            )

    def _build_serving_summary(self) -> ServingSummary:
        unresolved = [r.rid for r in self._requests if r.outcome == OUTCOME_ADMITTED]
        if unresolved or self._arrivals_outstanding:
            raise SimulationError(
                f"serving run ended with unresolved requests: {unresolved}"
            )
        return ServingSummary.from_config(
            self.config.serving, [r.to_record() for r in self._requests]
        )

    # -- services used by policies ------------------------------------------

    def log_event(
        self, kind: str, pid: Optional[int] = None, vpn: Optional[int] = None
    ) -> None:
        """Record an event on the attached telemetry handle (an
        ``events.<kind>`` counter and one instant on the ``events``
        track; see :meth:`Telemetry.on_event`).  A no-op when detached.
        """
        if self.telemetry is not None:
            self.telemetry.on_event(self.machine.now_ns, kind, pid, vpn)

    def consume_time(
        self, process: Process, dt_ns: int, *, category: Optional[str] = "run"
    ) -> None:
        """Charge *dt_ns* of CPU occupancy to *process* and advance the
        clock (firing any device events that come due).

        *category* is the time-ledger attribution (default ``run``);
        a policy that splits one consumed interval into several ledger
        segments passes ``category=None`` and calls :meth:`charge_time`
        itself for each segment.
        """
        if category is not None:
            self.charge_time(process.pid, category, dt_ns)
        self.machine.advance(dt_ns)
        process.slice_remaining_ns -= dt_ns

    def charge_time(self, pid: Optional[int], category: str, ns: int) -> None:
        """Attribute *ns* on the active core to (*pid*, *category*) in
        the machine's time ledger."""
        self.machine.ledger.charge(self.machine.active, pid, category, ns)

    def note_demote_blocked(self, delta: int) -> None:
        """Track how many demoted faults are waiting out their tail
        (lets the idle loop label the gap ``demoted_wait``)."""
        self._demoted_pending += delta

    def process_by_pid(self, pid: int) -> Process:
        """Look up a process by pid."""
        return self.processes[pid]

    def issue_prefetch(self, pid: int, vpn: int, *, at_ns: Optional[int] = None) -> bool:
        """Start a prefetch DMA for (pid, vpn) if it is worthwhile.

        Skips pages already resident, swap-cached, in flight, or not
        mapped by the process.  The completed page lands in the swap
        cache (a later touch is a minor fault).  ``at_ns`` lets a caller
        inside a busy-wait window submit at the logical issue time rather
        than the (not yet advanced) clock.  Returns True if a DMA was
        issued.
        """
        key = (pid, vpn)
        if key in self._prefetch_inflight:
            return False
        mm = self.machine.memory.mm_of(pid)
        pte = mm.pte_for(vpn)
        if pte is None or self.machine.memory.is_resident_or_cached(pid, vpn):
            return False
        self._prefetch_inflight.add(key)
        request = DMARequest(
            pid=pid, vpn=vpn, page_bytes=self.machine.memory.frames.page_size, prefetch=True
        )
        submit_ns = max(self.machine.now_ns, at_ns if at_ns is not None else 0)
        if self._causal is not None:
            issue_id = self._causal.add(
                "prefetch_issue", submit_ns,
                pid=pid, vpn=vpn, parent=self._causal.parent,
            )
            self._causal.note_prefetch(pid, vpn, issue_id)
            with self._causal.under(issue_id):
                self.machine.dma.read_page(
                    submit_ns, request, self._prefetch_complete
                )
        else:
            self.machine.dma.read_page(submit_ns, request, self._prefetch_complete)
        self.log_event("prefetch_issue", pid, vpn)
        return True

    def _prefetch_complete(self, request: DMARequest, time_ns: int) -> None:
        self._prefetch_inflight.discard((request.pid, request.vpn))
        process = self.process_by_pid(request.pid)
        installed = False
        if not process.finished and not self.machine.memory.is_resident_or_cached(
            request.pid, request.vpn
        ):
            self.machine.memory.install_page(request.pid, request.vpn, prefetched=True)
            self.log_event("prefetch_done", request.pid, request.vpn)
            installed = True
        if self._causal is not None:
            issue_id = self._causal.take_prefetch(request.pid, request.vpn)
            if issue_id is not None:
                self._causal.add(
                    "prefetch_done", time_ns,
                    pid=request.pid, vpn=request.vpn,
                    parent=issue_id, installed=installed,
                )

    def _release_process_memory(self, pid: int) -> None:
        """Free a finished process's frames and swap slots (process exit)."""
        self.machine.memory.release_process(pid)

    # -- result assembly -----------------------------------------------------

    def _publish_telemetry(self) -> None:
        """Dump end-of-run component statistics into the registry.

        The structures with per-access hot paths (caches, TLB) are not
        instrumented inline — their existing counters are published as
        gauges once the run completes, so enabling telemetry never
        perturbs the cache/TLB fast paths.
        """
        telemetry = self.telemetry
        assert telemetry is not None
        registry = telemetry.registry
        machine = self.machine
        machine.hierarchy.llc.publish_telemetry(registry, "llc")
        if machine.hierarchy.l1 is not None:
            machine.hierarchy.l1.publish_telemetry(registry, "l1")
        machine.tlb.publish_telemetry(registry, "tlb")
        self.scheduler.publish_telemetry(registry)
        registry.gauge("dma.completed").set(machine.dma.completed)
        registry.gauge("dma.prefetches_issued").set(machine.dma.prefetches_issued)
        registry.gauge("dma.writebacks_issued").set(machine.dma.writebacks_issued)
        registry.gauge("fault.handler_time_ns").set(machine.fault_handler.handler_time_ns)
        registry.gauge("swap_cache.hits").set(machine.memory.swap_cache.hits)
        ledger = machine.ledger
        idle = IdleBreakdown.from_cells(ledger.cells())
        registry.gauge("idle.memory_stall_ns").set(idle.memory_stall_ns)
        registry.gauge("idle.sync_storage_ns").set(idle.sync_storage_ns)
        registry.gauge("idle.async_idle_ns").set(idle.async_idle_ns)
        registry.gauge("idle.ctx_switch_overhead_ns").set(idle.ctx_switch_overhead_ns)
        registry.gauge("idle.total_ns").set(idle.total_idle_ns)
        registry.gauge("overhead.handler_ns").set(idle.handler_overhead_ns)
        registry.gauge("cpu.instructions_committed").set(
            machine.total_instructions_committed()
        )
        registry.gauge("sim.makespan_ns").set(machine.now_ns)
        if machine.tiers is not None:
            machine.tiers.publish_telemetry(registry)
        for category, ns in ledger.by_category().items():
            registry.gauge(f"ledger.{category}_ns").set(ns)
        if self._smp:
            self._publish_smp_telemetry(registry)

    def _publish_smp_telemetry(self, registry) -> None:
        """Per-core ``cpu.core{i}.*`` time buckets (views of each core's
        ledger cells), per-core TLBs, and the cross-core shootdown and
        migration totals (SMP runs only, so single-core telemetry output
        carries no per-core names)."""
        machine = self.machine
        ledger = machine.ledger
        per_core = ledger.cells_by_core()
        for core in machine.cores:
            cells = per_core.get(core.index, NO_TIME)
            prefix = f"cpu.core{core.index}."
            registry.gauge(f"{prefix}busy_ns").set(sum(cells[BUSY]))
            registry.gauge(f"{prefix}idle_ns").set(sum(cells[WAITING]))
            registry.gauge(f"{prefix}steal_ns").set(cells[MIGRATION])
            registry.gauge(f"{prefix}ctx_ns").set(cells[CTX_SWITCH])
            registry.gauge(f"{prefix}shootdown_ns").set(cells[TLB_SHOOTDOWN])
            registry.gauge(f"{prefix}instructions").set(
                core.cpu.instructions_committed
            )
            core.tlb.publish_telemetry(registry, f"tlb.core{core.index}")
        totals = ledger.cells()
        registry.gauge("tlb.shootdown.count").set(machine.shootdown_ipis)
        registry.gauge("tlb.shootdown.cost_ns").set(totals[TLB_SHOOTDOWN])
        registry.gauge("sched.steal.migration_ns").set(totals[MIGRATION])

    def _build_result(self) -> SimulationResult:
        # The conservation law is an invariant of every run, not just a
        # test-suite assertion: a charge-site bug fails the run loudly
        # instead of skewing the breakdown silently.
        ledger = self.machine.ledger
        ledger.audit(self.machine.now_ns, self.config.cores.count)
        per_pid = ledger.cells_by_process()
        records = []
        majors = minors = 0
        for process in self.processes:
            mm = self.machine.memory.mm_of(process.pid)
            majors += mm.major_faults
            minors += mm.minor_faults
            if (
                self._serving
                and self._requests[process.pid].outcome == OUTCOME_DROPPED
            ):
                # Shed by admission: the process never entered the run
                # queue, so it has no finish time and no record; its
                # absence is accounted on the request side.
                continue
            if process.stats.finish_time_ns is None:
                raise SimulationError(f"process {process.pid} never finished")
            records.append(
                ProcessRecord(
                    pid=process.pid,
                    name=process.name,
                    priority=process.priority,
                    data_intensive=process.data_intensive,
                    finish_time_ns=process.stats.finish_time_ns,
                    **process_times(per_pid.get(process.pid, NO_TIME)),
                    major_faults=mm.major_faults,
                    minor_faults=mm.minor_faults,
                    context_switches=process.stats.context_switches,
                )
            )
        if self.telemetry is not None:
            self._publish_telemetry()
        llc = self.machine.hierarchy.llc.stats
        engine = self.machine.preexec_engine
        return SimulationResult(
            policy=self.policy.name,
            batch=self.batch_name,
            makespan_ns=self.machine.now_ns,
            idle=IdleBreakdown.from_cells(ledger.cells()),
            processes=records,
            demand_cache_misses=llc.demand_misses,
            demand_cache_accesses=llc.demand_accesses,
            major_faults=majors,
            minor_faults=minors,
            context_switches=self.machine.total_context_switches(),
            prefetch_issued=self.machine.dma.prefetches_issued,
            prefetch_hits=self.machine.memory.swap_cache.hits,
            preexec_instructions=engine.stats.instructions if engine else 0,
            preexec_lines_warmed=engine.stats.lines_warmed if engine else 0,
            instructions_committed=self.machine.total_instructions_committed(),
            serving=self._build_serving_summary() if self._serving else None,
            tiers=(
                self.machine.tiers.summary()
                if self.machine.tiers is not None
                else None
            ),
        )
