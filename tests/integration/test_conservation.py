"""Time-conservation invariants of the simulation loop.

Virtual time only advances through three channels: CPU occupancy charged
to a process (`consume_time`), context-switch costs, and idle gaps while
every process waits on I/O.  The makespan must therefore decompose
exactly — no time is created or lost — and every run audits that on
its machine's time ledger.
"""

import pytest

from repro import MachineConfig, Simulation, build_batch
from repro.analysis.experiments import POLICY_FACTORIES
from repro.common.config import with_cores
from repro.common.errors import SimulationError
from repro.telemetry.ledger import CATEGORIES, TimeLedger


@pytest.mark.parametrize("policy_name", list(POLICY_FACTORIES))
@pytest.mark.parametrize("batch_name", ["No_Data_Intensive", "3_Data_Intensive"])
def test_makespan_decomposes_exactly(policy_name, batch_name):
    batch = build_batch(batch_name, seed=5, scale=0.25)
    sim = Simulation(
        MachineConfig(), batch, POLICY_FACTORIES[policy_name](), batch_name=batch_name
    )
    result = sim.run()
    cpu_occupancy = sum(p.cpu_time_ns for p in result.processes)
    accounted = (
        cpu_occupancy
        + result.idle.ctx_switch_overhead_ns
        + result.idle.async_idle_ns
    )
    assert accounted == result.makespan_ns


@pytest.mark.parametrize("policy_name", ["Sync", "Async", "ITS"])
def test_idle_components_within_makespan(policy_name):
    batch = build_batch("2_Data_Intensive", seed=5, scale=0.25)
    result = Simulation(
        MachineConfig(), batch, POLICY_FACTORIES[policy_name]()
    ).run()
    idle = result.idle
    assert 0 <= idle.memory_stall_ns
    assert 0 <= idle.sync_storage_ns
    assert 0 <= idle.async_idle_ns
    assert idle.total_idle_ns <= result.makespan_ns


@pytest.mark.parametrize("policy_name", list(POLICY_FACTORIES))
def test_storage_waits_match_process_records(policy_name):
    batch = build_batch("1_Data_Intensive", seed=5, scale=0.25)
    result = Simulation(
        MachineConfig(), batch, POLICY_FACTORIES[policy_name]()
    ).run()
    per_process = sum(p.storage_wait_ns for p in result.processes)
    assert per_process == result.idle.sync_storage_ns


def test_memory_stalls_match_process_records():
    batch = build_batch("1_Data_Intensive", seed=5, scale=0.25)
    result = Simulation(MachineConfig(), batch, POLICY_FACTORIES["Sync"]()).run()
    per_process = sum(p.memory_stall_ns for p in result.processes)
    assert per_process == result.idle.memory_stall_ns


@pytest.mark.parametrize("cores", [1, 2])
def test_every_run_audits_its_ledger(cores, monkeypatch):
    """A dropped charge fails a bare run (no telemetry attached)."""
    charge = TimeLedger.charge

    def drop_ctx_switch(self, core, pid, category, ns):
        if category != "ctx_switch":
            charge(self, core, pid, category, ns)

    monkeypatch.setattr(TimeLedger, "charge", drop_ctx_switch)
    config = with_cores(MachineConfig(), cores)
    batch = build_batch("1_Data_Intensive", seed=5, scale=0.05, config=config)
    sim = Simulation(config, batch, POLICY_FACTORIES["Async"]())
    with pytest.raises(SimulationError, match=r"conservation violated on core \d"):
        sim.run()


class _MonotoneRow(list):
    """A ledger row that refuses to shrink: every charge adds time."""

    def __setitem__(self, index, value):
        assert value >= self[index], f"{CATEGORIES[index]} cell decreased"
        super().__setitem__(index, value)


@pytest.mark.parametrize("policy_name", ["Async", "ITS"])
def test_windowed_ledger_cells_never_decrease(policy_name, monkeypatch):
    """A window flush adds a record's stall and minor-fault time together
    with the record itself, so no flushed ``run`` delta is negative even
    when a device event cuts the window between them."""
    row = TimeLedger.row

    def monotone_row(self, core, pid):
        cells = row(self, core, pid)
        if type(cells) is list:
            cells = self._rows[(core, pid)] = _MonotoneRow(cells)
        return cells

    monkeypatch.setattr(TimeLedger, "row", monotone_row)
    batch = build_batch("No_Data_Intensive", seed=3, scale=0.2)
    Simulation(MachineConfig(), batch, POLICY_FACTORIES[policy_name]()).run()
