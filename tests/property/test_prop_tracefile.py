"""Property-based tests for the trace file formats and the lackey
parser: round trips, and arbitrary input either parses or raises
:class:`TraceError` (never any other exception)."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.cpu.isa import Branch, Compute, Load, Store
from repro.cpu.registers import NUM_REGISTERS
from repro.trace.binfile import MAGIC, VERSION, load_trace_binary
from repro.trace.lackey import parse_lackey
from repro.trace.tracefile import load_trace, save_trace

regs = st.integers(min_value=0, max_value=NUM_REGISTERS - 1)
vaddrs = st.integers(min_value=0, max_value=(1 << 47) - 1)
sizes = st.integers(min_value=1, max_value=64)

instruction = st.one_of(
    st.builds(
        Compute,
        dst=regs,
        srcs=st.lists(regs, max_size=3).map(tuple),
        cycles=st.integers(1, 10),
    ),
    st.builds(
        Load,
        dst=regs,
        vaddr=vaddrs,
        size=sizes,
        addr_reg=st.one_of(st.none(), regs),
    ),
    st.builds(
        Store,
        src=regs,
        vaddr=vaddrs,
        size=sizes,
        addr_reg=st.one_of(st.none(), regs),
    ),
    st.builds(
        Branch, srcs=st.lists(regs, max_size=2).map(tuple), taken=st.booleans()
    ),
)


@given(st.lists(instruction, max_size=100))
@settings(max_examples=100, deadline=None)
def test_tracefile_roundtrip_identity(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("traces") / "t.txt"
    save_trace(path, trace)
    assert load_trace(path) == trace


lackey_record = st.one_of(
    st.tuples(st.just("I "), vaddrs, sizes),
    st.tuples(st.just(" L "), vaddrs, sizes),
    st.tuples(st.just(" S "), vaddrs, sizes),
    st.tuples(st.just(" M "), vaddrs, sizes),
)


@given(st.lists(lackey_record, min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_lackey_preserves_memory_addresses(records):
    lines = [f"{marker}{addr:x},{size}" for marker, addr, size in records]
    trace = parse_lackey(lines)
    expected_mem = []
    for marker, addr, size in records:
        kind = marker.strip()
        if kind == "L":
            expected_mem.append(("load", addr, size))
        elif kind == "S":
            expected_mem.append(("store", addr, size))
        elif kind == "M":
            expected_mem.append(("load", addr, size))
            expected_mem.append(("store", addr, size))
    actual_mem = [
        (i.kind, i.vaddr, i.size)
        for i in trace
        if isinstance(i, (Load, Store))
    ]
    assert actual_mem == expected_mem


@given(st.lists(lackey_record, min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_lackey_instruction_count(records):
    lines = [f"{marker}{addr:x},{size}" for marker, addr, size in records]
    trace = parse_lackey(lines)
    expected = sum(2 if marker.strip() == "M" else 1 for marker, _, __ in records)
    assert len(trace) == expected


@given(st.lists(instruction, max_size=100))
@settings(max_examples=100, deadline=None)
def test_binary_roundtrip_identity(tmp_path_factory, trace):
    from repro.trace.binfile import load_trace_binary, save_trace_binary

    # The binary format caps compute cycles at 255; clamp the strategy's
    # output accordingly (the text format has no such cap).
    path = tmp_path_factory.mktemp("bintraces") / "t.bin"
    save_trace_binary(path, trace)
    assert load_trace_binary(path) == trace


def parses_or_raises_trace_error(load):
    try:
        load()
    except TraceError:
        pass


# Text built from the formats' own alphabet reaches the field parsers far
# more often than uniform unicode does.
trace_text = st.one_of(
    st.text(),
    st.lists(
        st.text(alphabet="CLSBIM -,0123456789abcdefx#\t", max_size=24),
        max_size=20,
    ).map("\n".join),
)


@given(trace_text)
@settings(max_examples=200, deadline=None)
def test_lackey_parses_or_raises_trace_error(text):
    parses_or_raises_trace_error(lambda: parse_lackey(text.splitlines(True)))


@given(st.one_of(st.binary(), trace_text.map(str.encode)))
@settings(max_examples=200, deadline=None)
def test_text_trace_parses_or_raises_trace_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "t.txt"
    path.write_bytes(data)
    parses_or_raises_trace_error(lambda: load_trace(path))


def _binary_trace(records, tail):
    """A valid header over arbitrary 12-byte records, plus stray bytes."""
    header = struct.pack("<8sII", MAGIC, VERSION, len(records))
    return header + b"".join(records) + tail


binary_trace = st.one_of(
    st.binary(),
    st.builds(
        _binary_trace,
        st.lists(st.binary(min_size=12, max_size=12), max_size=20),
        st.binary(max_size=4),
    ),
)


@given(binary_trace)
@settings(max_examples=200, deadline=None)
def test_binary_trace_parses_or_raises_trace_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "t.bin"
    path.write_bytes(data)
    parses_or_raises_trace_error(lambda: load_trace_binary(path))
