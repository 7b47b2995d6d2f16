"""Trace inspection helpers.

A trace is simply ``list[Instruction]`` (see :mod:`repro.cpu.isa`); these
helpers compute the aggregate properties the simulator needs up front —
most importantly the memory footprint (the set of virtual pages touched),
which sizes the swap area and registers the process's address space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import TraceError
from repro.cpu.isa import Instruction, Load, Store
from repro.cpu.registers import NUM_REGISTERS


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate shape of one trace."""

    instructions: int
    loads: int
    stores: int
    computes: int
    branches: int
    footprint_pages: int
    unique_lines: int

    @property
    def memory_ops(self) -> int:
        """Loads plus stores."""
        return self.loads + self.stores

    @property
    def memory_ratio(self) -> float:
        """Fraction of instructions that touch memory."""
        return self.memory_ops / self.instructions if self.instructions else 0.0


def check_instruction(instr: Instruction, where: str) -> Instruction:
    """Return *instr* if every register it names lies in
    ``[0, NUM_REGISTERS)`` and its address is non-negative; otherwise
    raise :class:`TraceError` naming *where* (a line or record)."""
    if getattr(instr, "vaddr", 0) < 0:
        raise TraceError(f"negative address {instr.vaddr} on {where}")
    named = (getattr(instr, field, None) for field in ("dst", "src", "addr_reg"))
    for reg in (*named, *getattr(instr, "srcs", ())):
        if reg is not None and not 0 <= reg < NUM_REGISTERS:
            raise TraceError(f"register {reg} outside [0, {NUM_REGISTERS}) on {where}")
    return instr


def footprint_vpns(trace: list[Instruction], page_size: int = 4096) -> set[int]:
    """The set of virtual page numbers the trace touches.

    ``page_size`` selects the page granularity (2 MiB for huge-page
    experiments); the default matches the x86-64 base page.
    """
    shift = page_size.bit_length() - 1
    vpns: set[int] = set()
    for instr in trace:
        if isinstance(instr, (Load, Store)):
            vpns.add(instr.vaddr >> shift)
            if instr.size > 1:
                vpns.add((instr.vaddr + instr.size - 1) >> shift)
    return vpns


def summarize(trace: list[Instruction], line_size: int = 64) -> TraceSummary:
    """Compute a :class:`TraceSummary` for *trace*."""
    loads = stores = computes = branches = 0
    lines: set[int] = set()
    for instr in trace:
        kind = instr.kind
        if kind == "load":
            loads += 1
        elif kind == "store":
            stores += 1
        elif kind == "compute":
            computes += 1
        elif kind == "branch":
            branches += 1
        if isinstance(instr, (Load, Store)):
            lines.add(instr.vaddr // line_size)
    return TraceSummary(
        instructions=len(trace),
        loads=loads,
        stores=stores,
        computes=computes,
        branches=branches,
        footprint_pages=len(footprint_vpns(trace)),
        unique_lines=len(lines),
    )
