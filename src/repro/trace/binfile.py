"""A compact binary trace format.

The text format (:mod:`repro.trace.tracefile`) is human-readable but
bulky — a real Valgrind capture of a few hundred million records needs
something denser.  This format packs each instruction into a fixed
12-byte little-endian record:

``<B kind> <B reg> <B aux> <B size> <Q value>``

| kind | reg | aux | size | value |
|---|---|---|---|---|
| 0 compute | dst | source count | cycles (≤255) | sources, 8 bits each |
| 1 load | dst | addr_reg + 1 (0 = none) | access size | vaddr |
| 2 store | src | addr_reg + 1 (0 = none) | access size | vaddr |
| 3 branch | source count | taken flag | 0 | sources, 8 bits each |

A 16-byte header carries a magic, a format version and the record
count.  Round-trips every field of the trace ISA.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable

from repro.common.errors import TraceError
from repro.cpu.isa import Branch, Compute, Instruction, Load, Store
from repro.trace.record import check_instruction

MAGIC = b"ITSTRACE"
VERSION = 1
_HEADER = struct.Struct("<8sII")
_RECORD = struct.Struct("<BBBBQ")

_KIND_COMPUTE, _KIND_LOAD, _KIND_STORE, _KIND_BRANCH = 0, 1, 2, 3
_MAX_PACKED_SRCS = 8


def _pack_srcs(srcs: tuple[int, ...]) -> int:
    if len(srcs) > _MAX_PACKED_SRCS:
        raise TraceError(f"cannot pack {len(srcs)} source registers (max {_MAX_PACKED_SRCS})")
    value = 0
    for i, reg in enumerate(srcs):
        if not 0 <= reg < 256:
            raise TraceError(f"register {reg} out of byte range")
        value |= reg << (8 * i)
    return value


def _unpack_srcs(value: int, count: int) -> tuple[int, ...]:
    return tuple((value >> (8 * i)) & 0xFF for i in range(count))


def _encode(instr: Instruction) -> bytes:
    if isinstance(instr, Compute):
        return _RECORD.pack(
            _KIND_COMPUTE, instr.dst, len(instr.srcs), min(instr.cycles, 255),
            _pack_srcs(instr.srcs),
        )
    if isinstance(instr, Load):
        aux = 0 if instr.addr_reg is None else instr.addr_reg + 1
        return _RECORD.pack(_KIND_LOAD, instr.dst, aux, instr.size, instr.vaddr)
    if isinstance(instr, Store):
        aux = 0 if instr.addr_reg is None else instr.addr_reg + 1
        return _RECORD.pack(_KIND_STORE, instr.src, aux, instr.size, instr.vaddr)
    if isinstance(instr, Branch):
        return _RECORD.pack(
            _KIND_BRANCH, len(instr.srcs), int(instr.taken), 0, _pack_srcs(instr.srcs)
        )
    raise TraceError(f"cannot serialise {instr!r}")


def _decode(record: bytes) -> Instruction:
    kind, reg, aux, size, value = _RECORD.unpack(record)
    if kind == _KIND_COMPUTE:
        return Compute(dst=reg, srcs=_unpack_srcs(value, aux), cycles=size)
    if kind == _KIND_LOAD:
        return Load(
            dst=reg, vaddr=value, size=size, addr_reg=None if aux == 0 else aux - 1
        )
    if kind == _KIND_STORE:
        return Store(
            src=reg, vaddr=value, size=size, addr_reg=None if aux == 0 else aux - 1
        )
    if kind == _KIND_BRANCH:
        return Branch(srcs=_unpack_srcs(value, reg), taken=bool(aux))
    raise TraceError(f"unknown record kind {kind}")


def save_trace_binary(path: str | Path, trace: Iterable[Instruction]) -> int:
    """Write *trace* in binary form; returns the byte size written."""
    path = Path(path)
    records = [_encode(instr) for instr in trace]
    with path.open("wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, len(records)))
        for record in records:
            f.write(record)
    return _HEADER.size + len(records) * _RECORD.size


def load_trace_binary(path: str | Path) -> list[Instruction]:
    """Read a trace written by :func:`save_trace_binary`.  An unreadable
    file raises :class:`TraceError` naming the path, a malformed record
    one naming the record."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise TraceError(f"{path} is too short to be a binary trace")
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceError(f"{path} is not a binary trace (bad magic)")
    if version != VERSION:
        raise TraceError(f"unsupported binary trace version {version}")
    expected = _HEADER.size + count * _RECORD.size
    if len(data) != expected:
        raise TraceError(
            f"{path} truncated: {len(data)} bytes, expected {expected}"
        )
    trace = []
    offset = _HEADER.size
    for index in range(count):
        record = _decode(data[offset : offset + _RECORD.size])
        trace.append(check_instruction(record, f"record {index}"))
        offset += _RECORD.size
    return trace
