"""The trace-driven multi-programmed simulator."""

from repro.sim.metrics import IdleBreakdown, ProcessRecord, SimulationResult
from repro.sim.machine import CoreState, Machine, SMPMachine
from repro.sim.simulator import Simulation, WorkloadInstance
from repro.sim.batch import PAPER_BATCHES, BatchSpec, build_batch, batch_names

__all__ = [
    "IdleBreakdown",
    "ProcessRecord",
    "SimulationResult",
    "CoreState",
    "Machine",
    "SMPMachine",
    "Simulation",
    "WorkloadInstance",
    "PAPER_BATCHES",
    "BatchSpec",
    "build_batch",
    "batch_names",
]
