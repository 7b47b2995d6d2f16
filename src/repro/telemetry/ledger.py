"""The time-attribution ledger: where every simulated nanosecond went.

The paper's argument is an accounting claim — the busy-wait window of a
synchronous page fault is CPU idle time that ITS can *steal* — so the
simulator should be able to answer "where did every nanosecond go?"
exactly.  :class:`TimeLedger` is the one place simulated time is
recorded: every machine owns one (``machine.ledger``), every run charges
every nanosecond of every core's clock to exactly one of the twelve
:data:`CATEGORIES`, and every run ends with the conservation audit.

Every other time figure is a view summed from these cells at the end of
a run: :class:`~repro.sim.metrics.IdleBreakdown`, each process record's
CPU/stall/storage times, each SMP core's busy/idle/ctx/steal/shootdown
buckets and the ``ledger.*`` gauges (docs/OBSERVABILITY.md tabulates
them).  The first six categories (:data:`BUSY`) are CPU time a process
owns; the last three (:data:`WAITING`) are a core with nothing to run.

Cells are stored as one ``list[int]`` row per ``(core, pid)``, indexed
by the category constants below; ``pid=None`` marks time no process
owns (idle gaps, IPIs, migrations).  Hot sites add straight into a row
(:meth:`TimeLedger.row`); cold sites go through :meth:`TimeLedger.charge`,
which rejects negative amounts and unknown category names.  The
**conservation law** is the whole point: after a run,

    ``sum(every cell) == makespan_ns × cores``

and per core, ``sum(core's cells) == makespan_ns``.  :meth:`audit`
checks both and raises :class:`~repro.common.errors.SimulationError`
naming the leaking core.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.common.errors import SimulationError

CATEGORIES: tuple[str, ...] = (
    "run",  # committed execution, minus DRAM stall and minor-fault handler time
    "memory_stall",  # DRAM wait on a demand LLC miss
    "handler",  # page-fault handler software time (minor and major)
    "spin_wait",  # residual synchronous busy-wait on a demand swap-in
    "stolen_run",  # ITS work in a stolen window: entry, checkpoint, walk, runahead
    "kthread_run",  # ITS work outside windows: post-I/O restore, sacrificing thread
    "ctx_switch",  # context switch
    "migration",  # work-steal migration, on the thief core
    "tlb_shootdown",  # cross-core TLB-shootdown IPI servicing
    "idle",  # nothing runnable and no attributable wait reason
    "dma_wait",  # core idle with demand/prefetch DMA in flight
    "demoted_wait",  # core idle while a demoted fault waits out its tail
)
"""The twelve mutually exclusive, collectively exhaustive time categories."""

(RUN, MEMORY_STALL, HANDLER, SPIN_WAIT, STOLEN_RUN, KTHREAD_RUN, CTX_SWITCH,
 MIGRATION, TLB_SHOOTDOWN, IDLE, DMA_WAIT, DEMOTED_WAIT) = range(len(CATEGORIES))

BUSY = slice(RUN, KTHREAD_RUN + 1)
"""Row slice of the CPU time a process owns (its ``cpu_time_ns``)."""

WAITING = slice(IDLE, DEMOTED_WAIT + 1)
"""Row slice of a core with no runnable process (``async_idle_ns``)."""

NO_TIME = (0,) * len(CATEGORIES)
"""The cells of a core or process never charged."""

_INDEX = {category: index for index, category in enumerate(CATEGORIES)}

Row = list[int]


def _summed(rows: Iterable[Row]) -> Row:
    """Column sums of *rows* (all zeros when there are none)."""
    return [sum(column) for column in zip(NO_TIME, *rows)]


class TimeLedger:
    """Per-(core, pid) nanosecond rows with a conservation audit."""

    def __init__(self) -> None:
        self._rows: dict[tuple[int, Optional[int]], Row] = {}

    # -- recording -----------------------------------------------------------

    def row(self, core: int, pid: Optional[int]) -> Row:
        """The live cell row of (*core*, *pid*), created on first use.

        Hot charge sites add into it directly, indexed by the category
        constants; every amount they add must be non-negative.
        """
        key = (core, pid)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = list(NO_TIME)
        return row

    def charge(
        self, core: int, pid: Optional[int], category: str, ns: int
    ) -> None:
        """Attribute *ns* nanoseconds on *core* to (*pid*, *category*).

        ``pid=None`` books time no process owns (idle gaps, IPI
        servicing, migrations).  Zero-length charges are dropped;
        negative ones and unknown categories are accounting bugs and
        raise.
        """
        if ns == 0:
            return
        if ns < 0:
            raise SimulationError(
                f"ledger charge of {ns} ns ({category!r}, core {core}, "
                f"pid {pid}) is negative"
            )
        index = _INDEX.get(category)
        if index is None:
            raise SimulationError(f"unknown ledger category {category!r}")
        self.row(core, pid)[index] += ns

    # -- views ---------------------------------------------------------------

    def cells(self) -> Row:
        """Per-category totals across every core and process."""
        return _summed(self._rows.values())

    def _grouped(self, part: int) -> dict:
        groups: dict = {}
        for key, row in self._rows.items():
            groups.setdefault(key[part], []).append(row)
        return {key: _summed(rows) for key, rows in groups.items()}

    def cells_by_core(self) -> dict[int, Row]:
        """Core -> per-category totals, for every core with a row."""
        return self._grouped(0)

    def cells_by_process(self) -> dict[Optional[int], Row]:
        """Pid -> per-category totals across every core; the ``None``
        key is unattributed time."""
        return self._grouped(1)

    def total_ns(self) -> int:
        """Every nanosecond the ledger has attributed, summed."""
        return sum(map(sum, self._rows.values()))

    def core_total_ns(self, core: int) -> int:
        """Every nanosecond attributed on one core."""
        return sum(self.cells_by_core().get(core, NO_TIME))

    def by_category(self) -> dict[str, int]:
        """Category -> total ns across all cores and processes."""
        return dict(zip(CATEGORIES, self.cells()))

    # -- the conservation law ------------------------------------------------

    def audit(self, makespan_ns: int, cores: int) -> None:
        """Assert the conservation law; raise on any leaked or invented time.

        Checks both the machine-wide identity
        ``total == makespan × cores`` and the per-core identity
        ``core total == makespan`` (the latter subsumes the former but
        pinpoints the leaking core in the error message).
        """
        per_core = self.cells_by_core()
        for core in range(cores):
            cells = per_core.get(core, NO_TIME)
            core_total = sum(cells)
            if core_total != makespan_ns:
                breakdown = ", ".join(
                    f"{cat}={ns}"
                    for cat, ns in sorted(zip(CATEGORIES, cells))
                    if ns
                )
                raise SimulationError(
                    f"time-ledger conservation violated on core {core}: "
                    f"attributed {core_total} ns != makespan {makespan_ns} ns "
                    f"(delta {core_total - makespan_ns:+d} ns; {breakdown})"
                )
        total = self.total_ns()
        if total != makespan_ns * cores:
            raise SimulationError(
                f"time-ledger conservation violated: attributed {total} ns "
                f"!= makespan {makespan_ns} ns x {cores} cores"
            )

    # -- rendering -----------------------------------------------------------

    def render(self, makespan_ns: int, cores: int) -> str:
        """The ``repro ledger`` breakdown table (the Fig. 4 implication:
        one row per category, one column per core, plus the per-process
        split)."""
        per_core_cells = self.cells_by_core()
        per_core = [per_core_cells.get(core, NO_TIME) for core in range(cores)]
        totals = self.cells()
        grand = makespan_ns * cores
        name_w = max(len(c) for c in CATEGORIES)
        core_w = max(len("tlb_shootdown") + 1, len(f"{makespan_ns:,}") + 1)
        lines = [
            f"time ledger: {cores} core(s), makespan {makespan_ns:,} ns",
            "",
            (
                f"{'category':<{name_w}}  "
                + "".join(f"{f'core{i}':>{core_w}} " for i in range(cores))
                + f"{'total':>{core_w}} {'share':>7}"
            ),
        ]
        for index, category in enumerate(CATEGORIES):
            share = 100 * totals[index] / grand if grand else 0.0
            lines.append(
                f"{category:<{name_w}}  "
                + "".join(f"{cells[index]:>{core_w},} " for cells in per_core)
                + f"{totals[index]:>{core_w},} {share:>6.1f}%"
            )
        lines.append(
            f"{'total':<{name_w}}  "
            + "".join(f"{sum(cells):>{core_w},} " for cells in per_core)
            + f"{self.total_ns():>{core_w},} {100.0 if grand else 0.0:>6.1f}%"
        )
        per_process = {
            pid: row for pid, row in self.cells_by_process().items() if any(row)
        }
        if per_process:
            lines.append("")
            lines.append("per-process (ns; pid '-' is unattributed time):")
            lines.append(
                f"{'pid':>4}  "
                + "".join(f"{category:>{core_w}} " for category in CATEGORIES)
            )
            for pid in sorted(per_process, key=lambda p: (p is None, p or 0)):
                label = "-" if pid is None else str(pid)
                lines.append(
                    f"{label:>4}  "
                    + "".join(f"{ns:>{core_w},} " for ns in per_process[pid])
                )
        return "\n".join(lines)
