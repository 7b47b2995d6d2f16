"""Machine assembly: every hardware and kernel component, plus the clock.

A :class:`Machine` wires the component models together the way Figure 1
draws them: CPU core over TLB/LLC/DRAM, the memory manager over the frame
pool and swap, the DMA controller over the device and PCIe link, and the
page-fault handler on top.  Policies that pre-execute get half the LLC
carved out as the pre-execute cache (Section 4.1).

Virtual time lives here: ``advance(dt)`` moves the clock and fires every
device event that came due, so DMA completions interleave with CPU
progress at the right instants.  So does its account: ``ledger`` is the
:class:`~repro.telemetry.ledger.TimeLedger` every charge site writes to
(``active`` names the core a charge lands on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.config import MachineConfig
from repro.common.errors import SimulationError
from repro.common.events import EventQueue
from repro.cpu.core import SimCPU
from repro.cpu.runahead import PreExecuteEngine
from repro.faults.injector import FaultInjector
from repro.kernel.context import ContextSwitchModel
from repro.kernel.fault import PageFaultHandler
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.preexec_cache import PreExecuteCache
from repro.mem.tlb import TLB
from repro.storage.device import ULLDevice
from repro.storage.dma import DMAController, DMARequest
from repro.storage.pcie import PCIeLink
from repro.telemetry.ledger import TimeLedger
from repro.vm.frames import FrameAllocator
from repro.vm.mm import MemoryManager
from repro.vm.replacement import ReplacementPolicy
from repro.vm.swap import SwapArea


class Machine:
    """One simulated platform instance."""

    def __init__(
        self,
        config: MachineConfig,
        replacement: ReplacementPolicy,
        *,
        with_preexec_cache: bool = False,
        telemetry=None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self.ledger = TimeLedger()
        self.active = 0
        self.now_ns = 0
        self.events = EventQueue()

        llc_config = config.llc.halved() if with_preexec_cache else config.llc
        self.hierarchy = MemoryHierarchy(llc_config, config.memory, config.l1)
        self.tlb = TLB(config.tlb)

        frames = FrameAllocator(config.memory.dram_frames, config.memory.page_size)
        self.injector: Optional[FaultInjector] = None
        self.tiers = None  # TierRegistry on tiered machines
        if config.tiers.enabled:
            # Heterogeneous storage: swap capacity is the sum over tiers,
            # the placement map rides the swap allocator's observers, and
            # a routing facade stands in for the single DMA controller.
            # Imported lazily so tier-disabled machines never touch the
            # tiering package.
            from repro.tiering import (
                MigrationEngine,
                PagePlacement,
                TieredDMAController,
                TierRegistry,
            )

            placement = PagePlacement(config.tiers, config.memory.page_size)
            swap = SwapArea(placement.total_slots)
            swap.on_allocate(placement.note_allocate)
            swap.on_free(placement.note_free)
            self.memory = MemoryManager(frames, swap, replacement)
            self.memory.on_evict(self._on_page_evicted)
            self.tiers = TierRegistry(
                config, self.events, self.memory, placement, telemetry=telemetry
            )
            # ``device``/``link`` alias the fast tier's stack so code
            # written against the single-device machine keeps working.
            self.device = self.tiers.tiers[0].device
            self.link = self.tiers.tiers[0].link
            self.injector = self.tiers.tiers[0].injector
            self.dma = TieredDMAController(self.tiers)
            if config.tiers.promote_threshold > 0:
                self.tiers.migration = MigrationEngine(
                    self.tiers, self.memory, config.tiers, telemetry=telemetry
                )
        else:
            swap_slots = max(1, config.device.capacity_bytes // config.memory.page_size)
            self.memory = MemoryManager(frames, SwapArea(swap_slots), replacement)
            self.memory.on_evict(self._on_page_evicted)

            # The injector exists only when faults are enabled; with it
            # absent every storage component takes its deterministic fast
            # path, so a fault-free machine is bit-identical to one built
            # before the fault layer existed.
            if config.faults.enabled:
                self.injector = FaultInjector(config.faults, telemetry=telemetry)
            self.device = ULLDevice(config.device, injector=self.injector)
            self.link = PCIeLink(config.pcie, injector=self.injector)
            self.dma = DMAController(
                self.device, self.link, self.events,
                telemetry=telemetry, injector=self.injector,
            )

        self.cpu = SimCPU(config, self.hierarchy, self.tlb, self.memory)
        self.fault_handler = PageFaultHandler(
            config, self.memory, self.dma, telemetry=telemetry
        )
        self.context_switch = ContextSwitchModel(config.scheduler, self.tlb, self.hierarchy)

        self.preexec_cache: Optional[PreExecuteCache] = None
        self.preexec_engine: Optional[PreExecuteEngine] = None
        if with_preexec_cache:
            self.preexec_cache = PreExecuteCache(config.llc.halved())
            self.preexec_engine = PreExecuteEngine(
                config,
                self.hierarchy,
                self.memory,
                self.preexec_cache,
                telemetry=telemetry,
            )

    # -- the clock ----------------------------------------------------------

    def advance(self, dt_ns: int) -> None:
        """Move the clock forward by *dt_ns*, firing due device events."""
        if dt_ns < 0:
            raise SimulationError(f"cannot advance clock by negative {dt_ns}")
        self.now_ns += dt_ns
        self.events.run_due(self.now_ns)

    def advance_to(self, t_ns: int) -> None:
        """Move the clock to absolute time *t_ns* (monotone)."""
        if t_ns < self.now_ns:
            raise SimulationError(f"clock would move backwards ({t_ns} < {self.now_ns})")
        self.advance(t_ns - self.now_ns)

    # -- aggregate counters --------------------------------------------------

    def total_instructions_committed(self) -> int:
        """Instructions committed machine-wide (summed over cores)."""
        return self.cpu.instructions_committed

    def total_context_switches(self) -> int:
        """Context switches performed machine-wide (summed over cores)."""
        return self.context_switch.switches

    # -- wiring --------------------------------------------------------------

    def add_fault_observer(self, observer) -> None:
        """Watch every major fault's :class:`~repro.kernel.fault.FaultContext`.

        Convenience delegate to
        :meth:`~repro.kernel.fault.PageFaultHandler.add_observer`; the
        adaptive I/O-mode controller feeds its latency estimators here.
        """
        self.fault_handler.add_observer(observer)

    def _on_page_evicted(self, pid: int, vpn: int, frame: int) -> None:
        """Eviction side effects: TLB shootdown, LLC invalidation, and
        dirty write-back over DMA (occupying link + device bandwidth)."""
        self.tlb.shootdown(pid, vpn)
        self._invalidate_evicted_frame(pid, vpn, frame)

    def _invalidate_evicted_frame(self, pid: int, vpn: int, frame: int) -> None:
        """The TLB-independent half of an eviction: LLC invalidation and
        dirty write-back (shared by the single-core and SMP paths)."""
        base = self.memory.frames.frame_base_address(frame)
        self.hierarchy.invalidate_frame(base, self.memory.frames.page_size)
        if not self.config.memory.writeback_dirty:
            return
        pte = self.memory.mm_of(pid).pte_for(vpn)
        if pte is not None and pte.dirty:
            pte.dirty = False
            self.dma.write_page(
                self.now_ns,
                DMARequest(pid=pid, vpn=vpn, page_bytes=self.memory.frames.page_size),
            )


@dataclass
class CoreState:
    """One core's private components and clock.

    Each core owns the state that is per-CPU on a real SMP platform — a
    TLB, an execution engine, a context-switch model — and a private
    clock.  Where the clock's time went lives in the machine's ledger:
    the core's cells sum to the makespan after
    :meth:`SMPMachine.finalize` (the per-core conservation law).
    """

    index: int
    tlb: TLB
    cpu: SimCPU
    context_switch: ContextSwitchModel
    now_ns: int = 0
    pending_shootdown_ns: int = 0
    last_pid: Optional[int] = None


class SMPMachine(Machine):
    """N cores over one shared memory and storage subsystem.

    Core 0 adopts the components the base :class:`Machine` built; cores
    1..N-1 get their own TLB, :class:`SimCPU` and context-switch model,
    all sharing the LLC/DRAM hierarchy, memory manager, event queue and
    DMA path.  The simulator calls :meth:`activate` before operating on
    a core; the familiar ``machine.cpu`` / ``machine.tlb`` /
    ``machine.now_ns`` attributes always alias the active core's, so the
    single-core execution step runs unchanged on whichever core is live.

    Timekeeping is per-core: each core's clock advances only while the
    core is active, and the simulator interleaves cores lowest-clock
    first (docs/SMP.md documents the resulting bounded causality skew).
    """

    def __init__(
        self,
        config: MachineConfig,
        replacement: ReplacementPolicy,
        *,
        with_preexec_cache: bool = False,
        telemetry=None,
    ) -> None:
        super().__init__(
            config,
            replacement,
            with_preexec_cache=with_preexec_cache,
            telemetry=telemetry,
        )
        self.cores = [CoreState(0, self.tlb, self.cpu, self.context_switch)]
        for index in range(1, config.cores.count):
            tlb = TLB(config.tlb)
            self.cores.append(
                CoreState(
                    index,
                    tlb,
                    SimCPU(config, self.hierarchy, tlb, self.memory),
                    ContextSwitchModel(config.scheduler, tlb, self.hierarchy),
                )
            )
        self.shootdown_ipis = 0

    # -- core selection ------------------------------------------------------

    def activate(self, index: int) -> None:
        """Make core *index* the one the ``cpu``/``tlb``/``now_ns``
        aliases point at."""
        core = self.cores[index]
        self.active = index
        self.tlb = core.tlb
        self.cpu = core.cpu
        self.context_switch = core.context_switch
        self.now_ns = core.now_ns

    # -- per-core clocks -----------------------------------------------------

    def advance(self, dt_ns: int) -> None:
        """Advance the active core's clock (the caller charges the time)."""
        super().advance(dt_ns)
        self.cores[self.active].now_ns = self.now_ns

    def advance_idle_to(self, t_ns: int) -> None:
        """Catch the active core's clock up to *t_ns*, charging the gap
        as ``idle`` (the core had nothing runnable before then)."""
        if t_ns <= self.now_ns:
            return
        gap = t_ns - self.now_ns
        self.advance(gap)
        # SMP idle gaps stay plain ``idle``: by the time a core catches
        # up to a process's ready time, the completion that readied it
        # has already fired, so the single-core dma-wait / demoted-wait
        # refinement is not observable here.
        self.ledger.charge(self.active, None, "idle", gap)

    def charge_steal(self, dt_ns: int) -> None:
        """Charge migration overhead on the active (thief) core."""
        self.advance(dt_ns)
        self.ledger.charge(self.active, None, "migration", dt_ns)

    def drain_pending_shootdowns(self) -> None:
        """Pay IPI costs queued against the active core before it runs."""
        core = self.cores[self.active]
        if core.pending_shootdown_ns <= 0:
            return
        cost = core.pending_shootdown_ns
        core.pending_shootdown_ns = 0
        self.advance(cost)
        self.ledger.charge(self.active, None, "tlb_shootdown", cost)

    def fire_next_event(self) -> None:
        """No core has runnable work: fire the earliest pending event
        batch without moving any core's clock (the processes it readies
        carry their own ``ready_since_ns``; dispatch clamps to it)."""
        t_ns = self.events.peek_time()
        if t_ns is None:
            raise SimulationError(
                "all cores idle with no pending events: simulation deadlocked"
            )
        self.events.run_due(t_ns)

    def finalize(self) -> int:
        """Drag every core's clock to the makespan (idle time) and return
        it.  Called once after the last process finishes."""
        makespan = max(core.now_ns for core in self.cores)
        for core in self.cores:
            self.ledger.charge(core.index, None, "idle", makespan - core.now_ns)
            core.now_ns = makespan
        self.now_ns = makespan
        return makespan

    # -- aggregate counters --------------------------------------------------

    def total_instructions_committed(self) -> int:
        return sum(core.cpu.instructions_committed for core in self.cores)

    def total_context_switches(self) -> int:
        return sum(core.context_switch.switches for core in self.cores)

    # -- eviction hook -------------------------------------------------------

    def _on_page_evicted(self, pid: int, vpn: int, frame: int) -> None:
        """SMP eviction: shoot the translation down on *every* core.

        Each remote core that actually held the entry costs one IPI
        round-trip (``cores.tlb_shootdown_ns``), queued against the core
        performing the eviction and paid before its next step — event
        callbacks must not move clocks directly.
        """
        evictor = self.cores[self.active]
        for core in self.cores:
            dropped = core.tlb.shootdown(pid, vpn)
            if dropped and core.index != self.active:
                evictor.pending_shootdown_ns += self.config.cores.tlb_shootdown_ns
                self.shootdown_ipis += 1
        self._invalidate_evicted_frame(pid, vpn, frame)
