"""Parser for Valgrind ``lackey`` memory traces.

The paper's front end "adopts the dynamic binary instruction tools,
Valgrind, to capture the accessed virtual addresses".  Lackey's
``--trace-mem=yes`` output has one record per line::

    I  0023C790,2   # instruction fetch
     L 04E2C790,8   # data load
     S 04E2C794,4   # data store
     M 0421D7F0,8   # modify (load + store)

This parser converts such a stream into the trace ISA: instruction
fetches become single-cycle computes (their address stream is not
simulated), loads/stores map directly, and a modify becomes a load
followed by a store to the same address.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.errors import TraceError
from repro.cpu.isa import Compute, Instruction, Load, Store
from repro.cpu.registers import NUM_REGISTERS


def parse_lackey(lines: Iterable[str], *, max_instructions: int | None = None) -> list[Instruction]:
    """Parse lackey ``--trace-mem`` lines into a trace.

    Unrecognised lines (lackey prints headers and summaries too) are
    skipped silently; malformed *record* lines raise :class:`TraceError`.
    """
    trace: list[Instruction] = []
    reg = 0

    def next_reg() -> int:
        nonlocal reg
        reg = (reg + 1) % NUM_REGISTERS
        return reg

    for raw in lines:
        if max_instructions is not None and len(trace) >= max_instructions:
            break
        line = raw.rstrip("\n")
        if not line:
            continue
        marker = line[:2].strip()
        if marker not in {"I", "L", "S", "M"}:
            continue
        body = line[2:].strip()
        try:
            addr_text, size_text = body.split(",", 1)
            addr = int(addr_text, 16)
            size = int(size_text.strip())
        except ValueError as exc:
            raise TraceError(f"malformed lackey record: {line!r}") from exc
        if size <= 0:
            raise TraceError(f"non-positive access size in record: {line!r}")
        if addr < 0:
            raise TraceError(f"negative address in record: {line!r}")
        if marker == "I":
            trace.append(Compute(dst=next_reg(), srcs=(), cycles=1))
        elif marker == "L":
            trace.append(Load(dst=next_reg(), vaddr=addr, size=size))
        elif marker == "S":
            trace.append(Store(src=reg, vaddr=addr, size=size))
        else:  # M: modify = load then store
            dst = next_reg()
            trace.append(Load(dst=dst, vaddr=addr, size=size))
            trace.append(Store(src=dst, vaddr=addr, size=size))
    return trace
