"""Unit tests for the binary trace format."""

import struct

import pytest

from repro.common.errors import TraceError
from repro.common.rng import DeterministicRNG
from repro.cpu.isa import Branch, Compute, Load, Store
from repro.trace.binfile import MAGIC, load_trace_binary, save_trace_binary
from repro.trace.synthetic import sequential_scan
from repro.trace.tracefile import save_trace


class TestRoundTrip:
    def test_all_kinds(self, tmp_path):
        trace = [
            Compute(dst=1, srcs=(2, 3), cycles=4),
            Load(dst=5, vaddr=0x1234_5678_9ABC, size=8),
            Load(dst=5, vaddr=0x1000, size=8, addr_reg=0),
            Store(src=6, vaddr=0xABCD, size=4),
            Store(src=6, vaddr=0xABCD, size=4, addr_reg=15),
            Branch(taken=True, srcs=(7, 8)),
            Branch(taken=False),
        ]
        path = tmp_path / "t.bin"
        save_trace_binary(path, trace)
        assert load_trace_binary(path) == trace

    def test_synthetic_trace_roundtrip(self, tmp_path):
        trace = sequential_scan(DeterministicRNG(2), pages=10)
        path = tmp_path / "t.bin"
        save_trace_binary(path, trace)
        assert load_trace_binary(path) == trace

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.bin"
        save_trace_binary(path, [])
        assert load_trace_binary(path) == []

    def test_size_is_deterministic(self, tmp_path):
        trace = sequential_scan(DeterministicRNG(2), pages=20)
        bin_path = tmp_path / "t.bin"
        bin_size = save_trace_binary(bin_path, trace)
        assert bin_size == bin_path.stat().st_size
        assert bin_size == 16 + 12 * len(trace)  # header + fixed records

    def test_denser_than_text_for_memory_heavy_traces(self, tmp_path):
        # Fixed 12-byte records beat text once addresses are wide — the
        # regime real lackey captures live in.
        trace = [
            Load(dst=i % 16, vaddr=0x7FFF_0000_0000 + i * 64, size=8)
            for i in range(500)
        ]
        bin_path = tmp_path / "t.bin"
        txt_path = tmp_path / "t.txt"
        bin_size = save_trace_binary(bin_path, trace)
        save_trace(txt_path, trace)
        assert bin_size < txt_path.stat().st_size


class TestErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTTRACE" + b"\x00" * 8)
        with pytest.raises(TraceError, match="magic"):
            load_trace_binary(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        save_trace_binary(path, [Compute(dst=0)])
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TraceError, match="truncated"):
            load_trace_binary(path)

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(TraceError):
            load_trace_binary(path)

    @pytest.mark.parametrize(
        "record",
        [
            (1, 16, 0, 8, 0x1000),  # load into register 16
            (2, 255, 0, 8, 0x1000),  # store from register 255
            (1, 0, 255, 8, 0x1000),  # address register 254
            (0, 0, 1, 1, 0x20),  # compute reading register 32
            (3, 1, 0, 0, 0x11),  # branch on register 17
        ],
    )
    def test_bad_register_byte_rejected_naming_record(self, tmp_path, record):
        path = tmp_path / "t.bin"
        save_trace_binary(path, [Compute(dst=0)] * 2)
        data = bytearray(path.read_bytes())
        data[-12:] = struct.pack("<BBBBQ", *record)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="record 1"):
            load_trace_binary(path)

    def test_missing_file_raises_naming_path(self, tmp_path):
        with pytest.raises(TraceError, match="absent.bin"):
            load_trace_binary(tmp_path / "absent.bin")

    def test_too_many_srcs_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        with pytest.raises(TraceError):
            save_trace_binary(path, [Compute(dst=0, srcs=tuple(range(9)))])
