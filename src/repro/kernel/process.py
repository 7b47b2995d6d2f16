"""Process control blocks.

A simulated process is a trace of instructions plus the scheduling state
the mini kernel needs: priority (Linux RT convention — larger value means
more important), the program counter into the trace, the register file,
and per-process statistics used by the evaluation (finish time, fault
and switch counts; the time breakdown lives in the machine's ledger).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.isa import Instruction
from repro.cpu.registers import RegisterFile


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


@dataclass
class ProcessStats:
    """Per-process counters for the paper's metrics."""

    finish_time_ns: Optional[int] = None
    major_faults: int = 0
    minor_faults: int = 0
    context_switches: int = 0
    sync_faults: int = 0
    async_faults: int = 0


@dataclass
class Process:
    """One traced workload instance under the mini kernel."""

    pid: int
    name: str
    priority: int
    trace: list[Instruction]
    data_intensive: bool = False
    state: ProcessState = ProcessState.READY
    pc: int = 0
    slice_remaining_ns: int = 0
    resume_pending: bool = False
    ready_since_ns: int = 0
    """Simulated time at which the process last became READY.  Under SMP
    each core runs its own clock, so a core dispatching this process must
    first catch its clock up to this point (the process cannot run before
    the event that readied it)."""
    registers: RegisterFile = field(default_factory=RegisterFile)
    stats: ProcessStats = field(default_factory=ProcessStats)

    @property
    def finished(self) -> bool:
        """True once every trace instruction has committed."""
        return self.pc >= len(self.trace)

    @property
    def current_instruction(self) -> Instruction:
        """The next instruction to commit."""
        return self.trace[self.pc]

    def advance(self) -> None:
        """Commit the current instruction."""
        self.pc += 1
        self.registers.pc = self.pc

    def remaining_instructions(self) -> int:
        """Instructions left to commit."""
        return len(self.trace) - self.pc
