"""SMP scheduling: per-core run queues, placement, and work stealing.

:class:`SMPScheduler` is a facade over N per-core
:class:`~repro.kernel.scheduler.RoundRobinScheduler` queues.  It keeps
the exact single-queue semantics the paper's policies were written
against — ``current``/``peek_next``/``dispatch``/... operate on the
*active* core's queue, selected by the simulator before each step — and
adds the three things a multi-core kernel needs on top:

* **placement** — a new process is admitted to one core's queue, chosen
  by the configured policy (``round_robin`` by pid, ``least_loaded`` by
  shortest ready queue) or by a caller-installed hook
  (:meth:`set_placement`), the affinity seam for future experiments;
* **fault affinity** — a process that blocks on I/O stays owned by the
  core it faulted on; the DMA completion routes the unblock back to
  that core's queue (:attr:`core_of`), like a per-CPU wait queue;
* **work stealing** — an idle core takes the *tail* of the most loaded
  core's ready queue (:meth:`try_steal`), paying the migration cost
  modelled in :class:`~repro.common.config.CoreConfig`.

Time is deliberately absent from this module: queue surgery happens
here, clocks and cost accounting stay in the simulator (docs/SMP.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.config import CoreConfig, SchedulerConfig
from repro.common.errors import SimulationError
from repro.kernel.process import Process
from repro.kernel.scheduler import RoundRobinScheduler, SchedulerStats

PlacementHook = Callable[[Process, "SMPScheduler"], int]


@dataclass
class StealStats:
    """Work-stealing activity counters."""

    attempts: int = 0
    steals: int = 0


class SMPScheduler:
    """Per-core round-robin queues with work stealing.

    *clock* is a zero-argument callable returning the active core's
    current simulated time; it stamps :attr:`Process.ready_since_ns`
    whenever a process re-enters a ready queue, so that another core
    picking the process up later cannot run it before the event that
    readied it.
    """

    def __init__(
        self,
        config: SchedulerConfig,
        cores: CoreConfig,
        clock: Callable[[], int],
        *,
        telemetry=None,
    ) -> None:
        self.config = config
        self.cores = cores
        self.queues = [RoundRobinScheduler(config) for _ in range(cores.count)]
        self.core_of: dict[int, int] = {}
        self.active = 0
        self.steal_stats = StealStats()
        self._clock = clock
        self._causal = getattr(telemetry, "causal", None)
        self._placement: Optional[PlacementHook] = None

    # -- facade over the active core's queue ----------------------------------

    @property
    def _q(self) -> RoundRobinScheduler:
        return self.queues[self.active]

    @property
    def current(self) -> Optional[Process]:
        """The process running on the active core."""
        return self._q.current

    def peek_next(self) -> Optional[Process]:
        """Head of the active core's ready queue."""
        return self._q.peek_next()

    def ready_count(self) -> int:
        """Ready processes on the active core's queue.

        Deliberately per-core: the ITS selection policy and the adaptive
        controller reason about what *this* CPU would run next, exactly
        as they do on a single core.
        """
        return self._q.ready_count()

    def blocked_count(self) -> int:
        """Blocked processes across all cores."""
        return sum(q.blocked_count() for q in self.queues)

    def has_work(self) -> bool:
        """True while any core has current, ready, or blocked work."""
        return any(q.has_work() for q in self.queues)

    def core_runnable(self, index: int) -> bool:
        """True if core *index* could execute right now (a process holds
        it or is waiting on its queue)."""
        q = self.queues[index]
        return q.current is not None or q.ready_count() > 0

    # -- admission -------------------------------------------------------------

    def set_placement(self, hook: Optional[PlacementHook]) -> None:
        """Install an affinity hook: ``hook(process, sched) -> core``.
        Overrides the configured placement policy; ``None`` restores it."""
        self._placement = hook

    def place(self, process: Process) -> int:
        """Pick the core that should admit *process*."""
        if self._placement is not None:
            index = self._placement(process, self)
            if not 0 <= index < len(self.queues):
                raise SimulationError(
                    f"placement hook returned core {index} of {len(self.queues)}"
                )
            return index
        if self.cores.placement == "least_loaded":
            return min(
                range(len(self.queues)), key=lambda i: (self.queues[i].ready_count(), i)
            )
        return process.pid % len(self.queues)

    def add(self, process: Process) -> None:
        """Admit a new READY process on the core chosen by placement."""
        index = self.place(process)
        process.ready_since_ns = self._clock()
        self.core_of[process.pid] = index
        self.queues[index].add(process)

    # -- transitions on the active core ---------------------------------------

    def dispatch(self) -> Optional[Process]:
        """Dispatch the active core's queue head (see
        :meth:`RoundRobinScheduler.dispatch`)."""
        return self._q.dispatch()

    def preempt_current(self) -> Process:
        """Slice expired on the active core: requeue at its tail."""
        process = self._q.preempt_current()
        process.ready_since_ns = self._clock()
        return process

    def yield_current(self) -> Process:
        """Voluntary yield on the active core."""
        process = self._q.yield_current()
        process.ready_since_ns = self._clock()
        return process

    def block_current(self) -> Process:
        """The active core's process blocks on I/O.  It stays owned by
        this core: the completion will unblock it here."""
        return self._q.block_current()

    def unblock(
        self,
        process: Process,
        *,
        resume: bool = False,
        ready_ns: Optional[int] = None,
    ) -> None:
        """Route an I/O completion back to the core the process faulted
        on, regardless of which core's event processing fired it."""
        index = self.core_of.get(process.pid)
        if index is None:
            raise SimulationError(f"unblocking pid {process.pid} which no core owns")
        self.queues[index].unblock(process, resume=resume, ready_ns=ready_ns)

    def resume_preempts_current(self) -> bool:
        """Resume-preemption check on the active core."""
        return self._q.resume_preempts_current()

    def preempt_for_resume(self) -> Process:
        """Resume-preemption swap on the active core."""
        displaced = self._q.preempt_for_resume()
        displaced.ready_since_ns = self._clock()
        return displaced

    def finish_current(self, now_ns: int) -> Process:
        """The active core's process finished; drop its core ownership."""
        process = self._q.finish_current(now_ns)
        self.core_of.pop(process.pid, None)
        return process

    # -- work stealing ---------------------------------------------------------

    def steal_victim(self, thief: int) -> Optional[int]:
        """The core *thief* should steal from, or ``None``.

        The victim is the core with the longest ready queue (ties to the
        lowest id) that can spare a process: it must keep at least one
        runnable process behind — its running process, or the head of
        its queue if the core itself is between dispatches.
        """
        best: Optional[int] = None
        best_len = 0
        for index, q in enumerate(self.queues):
            if index == thief:
                continue
            spare = q.ready_count() >= (1 if q.current is not None else 2)
            if spare and q.ready_count() > best_len:
                best, best_len = index, q.ready_count()
        return best

    def try_steal(self, thief: int) -> Optional[Process]:
        """Steal one process onto core *thief*'s queue.

        Takes the tail of the victim's queue (least disturbance to its
        round-robin order; never a resume-pending process) and re-admits
        it on the thief.  Returns the migrated process, or ``None`` if
        no victim can spare one.  The caller charges the migration cost
        and clamps the thief's clock to the process's ready time.
        """
        if not self.cores.work_steal:
            return None
        self.steal_stats.attempts += 1
        victim = self.steal_victim(thief)
        if victim is None:
            return None
        process = self.queues[victim].steal_tail()
        if process is None:
            return None
        self.core_of[process.pid] = thief
        self.queues[thief].add(process)
        self.steal_stats.steals += 1
        if self._causal is not None:
            # Link the migration to whatever last touched the process:
            # the unblock that readied it, or its latest fault.
            parent = self._causal.peek_unblock(process.pid)
            if parent is None:
                parent = self._causal.fault_of(process.pid)
            self._causal.add(
                "migrate", self._clock(),
                pid=process.pid, parent=parent,
                src=victim, dst=thief,
            )
        return process

    # -- reporting -------------------------------------------------------------

    @property
    def stats(self) -> SchedulerStats:
        """Aggregate scheduling counters summed across cores."""
        total = SchedulerStats()
        for q in self.queues:
            total.dispatches += q.stats.dispatches
            total.preemptions += q.stats.preemptions
            total.voluntary_switches += q.stats.voluntary_switches
            total.blocks += q.stats.blocks
            total.unblocks += q.stats.unblocks
        return total

    def publish_telemetry(self, registry, prefix: str = "sched.") -> None:
        """Publish aggregate ``sched.*`` gauges (same names the
        single-core scheduler uses), per-core ``sched.core{i}.*``
        breakdowns, and the ``sched.steal.*`` counters (the simulator
        adds ``sched.steal.migration_ns`` from its time ledger)."""
        for index, q in enumerate(self.queues):
            q.publish_telemetry(registry, prefix=f"{prefix}core{index}.")
        total = self.stats
        registry.gauge(f"{prefix}dispatches").set(total.dispatches)
        registry.gauge(f"{prefix}preemptions").set(total.preemptions)
        registry.gauge(f"{prefix}voluntary_switches").set(total.voluntary_switches)
        registry.gauge(f"{prefix}blocks").set(total.blocks)
        registry.gauge(f"{prefix}unblocks").set(total.unblocks)
        registry.gauge(f"{prefix}steal.attempts").set(self.steal_stats.attempts)
        registry.gauge(f"{prefix}steal.count").set(self.steal_stats.steals)
