"""Unit tests for the Valgrind lackey parser and the trace file format."""

import pytest

from repro.common.errors import TraceError
from repro.cpu.isa import Branch, Compute, Load, Store
from repro.trace.lackey import parse_lackey
from repro.trace.tracefile import load_trace, save_trace


class TestLackey:
    def test_load_record(self):
        trace = parse_lackey([" L 04e2c790,8"])
        assert len(trace) == 1
        assert isinstance(trace[0], Load)
        assert trace[0].vaddr == 0x04E2C790
        assert trace[0].size == 8

    def test_store_record(self):
        trace = parse_lackey([" S 0423c6a4,4"])
        assert isinstance(trace[0], Store)
        assert trace[0].size == 4

    def test_modify_becomes_load_store(self):
        trace = parse_lackey([" M 0421d7f0,8"])
        assert [type(i) for i in trace] == [Load, Store]
        assert trace[0].vaddr == trace[1].vaddr
        assert trace[1].src == trace[0].dst

    def test_instruction_fetch_becomes_compute(self):
        trace = parse_lackey(["I  0023c790,2"])
        assert isinstance(trace[0], Compute)

    def test_headers_skipped(self):
        lines = [
            "==123== Lackey, an example Valgrind tool",
            " L 1000,8",
            "==123== exiting",
        ]
        assert len(parse_lackey(lines)) == 1

    def test_blank_lines_skipped(self):
        assert parse_lackey(["", " L 1000,8", ""]) != []

    def test_malformed_record_raises(self):
        with pytest.raises(TraceError):
            parse_lackey([" L zzzz"])

    def test_non_positive_size_raises(self):
        with pytest.raises(TraceError):
            parse_lackey([" L 1000,0"])

    def test_negative_address_raises(self):
        with pytest.raises(TraceError, match="negative address"):
            parse_lackey([" L -1000,8"])

    def test_max_instructions_cap(self):
        lines = [" L 1000,8"] * 100
        assert len(parse_lackey(lines, max_instructions=10)) == 10


class TestTraceFile:
    def _roundtrip(self, tmp_path, trace):
        path = tmp_path / "trace.txt"
        save_trace(path, trace)
        return load_trace(path)

    def test_roundtrip_all_kinds(self, tmp_path):
        trace = [
            Compute(dst=1, srcs=(2, 3), cycles=4),
            Load(dst=5, vaddr=0x1234, size=8),
            Load(dst=5, vaddr=0x1234, size=8, addr_reg=2),
            Store(src=6, vaddr=0xABCD, size=4),
            Store(src=6, vaddr=0xABCD, size=4, addr_reg=1),
            Branch(taken=True, srcs=(7,)),
            Branch(taken=False),
        ]
        assert self._roundtrip(tmp_path, trace) == trace

    def test_header_written_as_comment(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(path, [Compute(dst=0)], header="generated by test\nsecond line")
        text = path.read_text()
        assert text.startswith("# generated by test\n# second line\n")
        assert load_trace(path) == [Compute(dst=0)]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# comment\n\nC 0 1\n")
        assert load_trace(path) == [Compute(dst=0, cycles=1)]

    def test_malformed_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("C 0 1\nL bogus\n")
        with pytest.raises(TraceError, match="line 2"):
            load_trace(path)

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("X 1 2 3\n")
        with pytest.raises(TraceError):
            load_trace(path)

    @pytest.mark.parametrize(
        "line", ["L -3 ff 4", "L 16 ff 4", "S 1 ff 4 99", "C 0 1 2 -1", "B 1 20"]
    )
    def test_register_out_of_range_raises_with_lineno(self, tmp_path, line):
        path = tmp_path / "trace.txt"
        path.write_text(f"C 0 1\n{line}\n")
        with pytest.raises(TraceError, match="register .* on line 2"):
            load_trace(path)

    def test_negative_address_raises_with_lineno(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("L 1 -ff 4\n")
        with pytest.raises(TraceError, match="negative address .* on line 1"):
            load_trace(path)

    def test_unreadable_file_raises_naming_path(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(b"C 0 1\n\xff\n")
        with pytest.raises(TraceError, match="trace.txt"):
            load_trace(path)
        with pytest.raises(TraceError, match="absent.txt"):
            load_trace(tmp_path / "absent.txt")

    def test_lackey_to_file_roundtrip(self, tmp_path):
        trace = parse_lackey([" L 1000,8", " S 2000,4", " M 3000,8"])
        assert self._roundtrip(tmp_path, trace) == trace
