"""Metric collection and the simulation result record.

The paper's headline metric is **total CPU idle time**: "the aggregated
time of the CPU busy waiting for the response of memory and storage
devices during the cache misses and page faults" (Section 2.2).  We
decompose it, each part a sum of the machine's time-ledger cells
(:mod:`repro.telemetry.ledger`):

* ``memory_stall_ns``       — DRAM waits on demand LLC misses
  (``memory_stall``);
* ``sync_storage_ns``       — busy-waits on synchronous major faults,
  stolen or not (``spin_wait + stolen_run``);
* ``async_idle_ns``         — time with no runnable process
  (``idle + dma_wait + demoted_wait``);
* ``ctx_switch_overhead_ns`` — direct context-switch time
  (``ctx_switch``).

Context-switch time counts as idle: during the switch the CPU moves
register state around and "cannot proceed with process progress"
(Section 2.2's definition) — this is exactly why the paper's Async
baseline shows *more* idle time than Sync once device latency drops
below the switch cost.  Fault-handler software time is genuine kernel
work and is kept as overhead, outside the idle metric (``handler``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.telemetry.ledger import (
    BUSY,
    CTX_SWITCH,
    HANDLER,
    MEMORY_STALL,
    SPIN_WAIT,
    STOLEN_RUN,
    WAITING,
)

if TYPE_CHECKING:
    from repro.serving.request import ServingSummary
    from repro.tiering.summary import TierSummary


@dataclass
class IdleBreakdown:
    """The three idle components plus the overhead components."""

    memory_stall_ns: int = 0
    sync_storage_ns: int = 0
    async_idle_ns: int = 0
    ctx_switch_overhead_ns: int = 0
    handler_overhead_ns: int = 0

    @property
    def total_idle_ns(self) -> int:
        """The paper's CPU idle time: every nanosecond in which the CPU
        advanced no process's committed instructions."""
        return (
            self.memory_stall_ns
            + self.sync_storage_ns
            + self.async_idle_ns
            + self.ctx_switch_overhead_ns
        )

    @property
    def total_overhead_ns(self) -> int:
        """Kernel-work time outside the idle metric."""
        return self.handler_overhead_ns

    @classmethod
    def from_cells(cls, cells: Sequence[int]) -> "IdleBreakdown":
        """The breakdown as a view of per-category ledger totals
        (:meth:`~repro.telemetry.ledger.TimeLedger.cells`)."""
        return cls(
            memory_stall_ns=cells[MEMORY_STALL],
            sync_storage_ns=cells[SPIN_WAIT] + cells[STOLEN_RUN],
            async_idle_ns=sum(cells[WAITING]),
            ctx_switch_overhead_ns=cells[CTX_SWITCH],
            handler_overhead_ns=cells[HANDLER],
        )


def process_times(cells: Sequence[int]) -> dict[str, int]:
    """A :class:`ProcessRecord`'s time fields as a view of the process's
    ledger cells: all its CPU time, its DRAM stalls, and its synchronous
    storage waits (stolen or not)."""
    return {
        "cpu_time_ns": sum(cells[BUSY]),
        "memory_stall_ns": cells[MEMORY_STALL],
        "storage_wait_ns": cells[SPIN_WAIT] + cells[STOLEN_RUN],
    }


@dataclass(frozen=True)
class ProcessRecord:
    """Per-process outcome, the unit of Figure 5's analysis."""

    pid: int
    name: str
    priority: int
    data_intensive: bool
    finish_time_ns: int
    cpu_time_ns: int
    memory_stall_ns: int
    storage_wait_ns: int
    major_faults: int
    minor_faults: int
    context_switches: int


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    policy: str
    batch: str
    makespan_ns: int
    idle: IdleBreakdown
    processes: list[ProcessRecord]
    demand_cache_misses: int
    demand_cache_accesses: int
    major_faults: int
    minor_faults: int
    context_switches: int
    prefetch_issued: int
    prefetch_hits: int
    preexec_instructions: int
    preexec_lines_warmed: int
    instructions_committed: int
    serving: Optional["ServingSummary"] = None
    """Per-request serving summary of an open-loop run; ``None`` on
    closed-loop runs (and omitted from the stored encoding, so legacy
    payloads stay byte-identical — see :mod:`repro.analysis.store`)."""
    tiers: Optional["TierSummary"] = None
    """Per-tier accounting of a tiered-storage run; ``None`` (and
    omitted from the stored encoding) on single-device runs."""

    @property
    def total_idle_ns(self) -> int:
        """Total CPU idle time (the Figure 4a metric)."""
        return self.idle.total_idle_ns

    def finish_times_by_priority(self) -> list[ProcessRecord]:
        """Process records sorted from highest to lowest priority."""
        return sorted(self.processes, key=lambda r: -r.priority)

    def mean_finish_top_half_ns(self) -> float:
        """Average finish time of the top-50%-priority processes
        (Figure 5a)."""
        ordered = self.finish_times_by_priority()
        top = ordered[: len(ordered) // 2] or ordered
        return sum(r.finish_time_ns for r in top) / len(top)

    def mean_finish_bottom_half_ns(self) -> float:
        """Average finish time of the bottom-50%-priority processes
        (Figure 5b)."""
        ordered = self.finish_times_by_priority()
        bottom = ordered[len(ordered) // 2 :] or ordered
        return sum(r.finish_time_ns for r in bottom) / len(bottom)
