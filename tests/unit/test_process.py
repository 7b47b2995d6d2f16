"""Unit tests for the process control block."""

from repro.cpu.isa import Compute
from repro.kernel.process import Process, ProcessState, ProcessStats


def make_process(n_instr=3, priority=10):
    return Process(
        pid=1,
        name="test",
        priority=priority,
        trace=[Compute(dst=i % 16) for i in range(n_instr)],
    )


class TestLifecycle:
    def test_initial_state(self):
        process = make_process()
        assert process.state is ProcessState.READY
        assert process.pc == 0
        assert not process.finished

    def test_advance_moves_pc(self):
        process = make_process(2)
        process.advance()
        assert process.pc == 1
        assert process.registers.pc == 1

    def test_finished_after_all_instructions(self):
        process = make_process(2)
        process.advance()
        process.advance()
        assert process.finished

    def test_current_instruction(self):
        process = make_process(3)
        first = process.current_instruction
        process.advance()
        assert process.current_instruction is not first

    def test_remaining_instructions(self):
        process = make_process(3)
        process.advance()
        assert process.remaining_instructions() == 2


class TestStats:
    def test_defaults(self):
        stats = ProcessStats()
        assert stats.finish_time_ns is None
        assert stats.major_faults == 0
