"""Kernel-thread abstraction for the ITS design.

The ITS threads (self-improving, self-sacrificing) run *in kernel space*
during otherwise-idle CPU time; Section 3.2 argues this keeps activation
to hundreds of nanoseconds because no mode switch or full context
movement is needed.  :class:`KernelThread` captures that cost model plus
activation bookkeeping; the actual policy bodies live in
:mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass
class KernelThread:
    """A named kernel thread with an activation cost.

    ``entry_cost_ns`` models the page-fault-handler -> ITS-thread
    transition (kernel-level, so hundreds of nanoseconds rather than the
    several microseconds a user-level design would pay).
    """

    name: str
    entry_cost_ns: int
    activations: int = 0
    telemetry: object = None
    """Optional :class:`~repro.telemetry.Telemetry` handle; when set,
    each activation feeds a per-thread budget histogram."""

    def activate(self, now_ns: int, budget_ns: int) -> tuple[int, int]:
        """Account one activation starting at *now_ns* with *budget_ns*
        of stolen time available.

        Returns ``(work_start_ns, work_budget_ns)``: the entry cost is
        paid out of the stolen window, so the useful budget shrinks by
        it.  A window smaller than the entry cost yields a zero budget —
        the thread does not run ("running for a maximum of several
        microseconds to avoid impeding process progress").
        """
        self.activations += 1
        start = now_ns + self.entry_cost_ns
        budget = max(0, budget_ns - self.entry_cost_ns)
        if self.telemetry is not None:
            self.telemetry.counter(f"kthread.{self.name}.activations").inc()
            self.telemetry.histogram(f"kthread.{self.name}.budget_ns").observe(budget)
            causal = getattr(self.telemetry, "causal", None)
            if causal is not None and causal.parent is not None:
                causal.add(
                    "kthread_entry", now_ns, parent=causal.parent,
                    thread=self.name, budget_ns=budget,
                )
        return start, budget
