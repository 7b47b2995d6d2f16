"""A plain-text trace file format.

One instruction per line, whitespace-separated::

    C <dst> <cycles> <src>*        # compute
    L <dst> <vaddr-hex> <size> [<addr_reg>]
    S <src> <vaddr-hex> <size> [<addr_reg>]
    B <taken:0|1> <src>*

Lines starting with ``#`` are comments.  The format round-trips every
field of the trace ISA, so captured or synthesised traces can be stored
and replayed byte-identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.common.errors import TraceError
from repro.cpu.isa import Branch, Compute, Instruction, Load, Store
from repro.trace.record import check_instruction


def _format(instr: Instruction) -> str:
    if isinstance(instr, Compute):
        return " ".join(["C", str(instr.dst), str(instr.cycles), *map(str, instr.srcs)])
    if isinstance(instr, Load):
        parts = ["L", str(instr.dst), f"{instr.vaddr:x}", str(instr.size)]
        if instr.addr_reg is not None:
            parts.append(str(instr.addr_reg))
        return " ".join(parts)
    if isinstance(instr, Store):
        parts = ["S", str(instr.src), f"{instr.vaddr:x}", str(instr.size)]
        if instr.addr_reg is not None:
            parts.append(str(instr.addr_reg))
        return " ".join(parts)
    if isinstance(instr, Branch):
        return " ".join(["B", "1" if instr.taken else "0", *map(str, instr.srcs)])
    raise TraceError(f"cannot serialise {instr!r}")


def _parse(line: str, lineno: int) -> Instruction:
    fields = line.split()
    kind = fields[0]
    try:
        if kind == "C":
            return Compute(
                dst=int(fields[1]),
                cycles=int(fields[2]),
                srcs=tuple(int(f) for f in fields[3:]),
            )
        if kind == "L":
            return Load(
                dst=int(fields[1]),
                vaddr=int(fields[2], 16),
                size=int(fields[3]),
                addr_reg=int(fields[4]) if len(fields) > 4 else None,
            )
        if kind == "S":
            return Store(
                src=int(fields[1]),
                vaddr=int(fields[2], 16),
                size=int(fields[3]),
                addr_reg=int(fields[4]) if len(fields) > 4 else None,
            )
        if kind == "B":
            return Branch(
                taken=fields[1] == "1",
                srcs=tuple(int(f) for f in fields[2:]),
            )
    except (ValueError, IndexError) as exc:
        raise TraceError(f"malformed trace line {lineno}: {line!r}") from exc
    raise TraceError(f"unknown instruction kind {kind!r} on line {lineno}")


def save_trace(path: str | Path, trace: Iterable[Instruction], *, header: str = "") -> None:
    """Write *trace* to *path*; *header* becomes a leading comment."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        if header:
            for line in header.splitlines():
                f.write(f"# {line}\n")
        for instr in trace:
            f.write(_format(instr) + "\n")


def load_trace(path: str | Path) -> list[Instruction]:
    """Read a trace written by :func:`save_trace`.  An unreadable or
    non-UTF-8 file raises :class:`TraceError` naming the path, a
    malformed line one naming the line."""
    path = Path(path)
    trace: list[Instruction] = []
    try:
        with path.open("r", encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                trace.append(check_instruction(_parse(line, lineno), f"line {lineno}"))
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    return trace
