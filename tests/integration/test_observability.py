"""The observability layer against real simulations.

Three invariants anchor this file (docs/OBSERVABILITY.md):

* **conservation** — every simulated nanosecond on every core lands in
  exactly one time-ledger category, for every paper policy at 1, 2 and
  4 cores, and every other time figure is a view of those cells;
* **zero perturbation** — attaching telemetry and the causal graph
  changes nothing about the simulated outcome;
* **causal soundness** — the fault graph is acyclic and complete
  (every fault reaches a ``resume``).
"""

import pytest

from repro import MachineConfig, Telemetry
from repro.analysis.experiments import (
    PAPER_POLICIES,
    build_batch_policy,
    run_batch_policy,
)
from repro.telemetry import LEDGER_CATEGORIES
from repro.telemetry.ledger import BUSY, MEMORY_STALL, SPIN_WAIT, STOLEN_RUN

SCALE = 0.1
BATCH = "2_Data_Intensive"
SEED = 3


def _run(policy_name, *, cores=None, telemetry=None, config=None):
    return run_batch_policy(
        config or MachineConfig(),
        BATCH,
        policy_name,
        seed=SEED,
        scale=SCALE,
        cores=cores,
        telemetry=telemetry,
    )


def _sim(policy_name, *, cores=None):
    """A bare (no telemetry) cell, run; its machine's ledger is live."""
    sim = build_batch_policy(
        MachineConfig(), BATCH, policy_name, seed=SEED, scale=SCALE, cores=cores
    )
    return sim, sim.run()


@pytest.mark.parametrize("policy_name", PAPER_POLICIES)
@pytest.mark.parametrize("cores", [1, 2, 4])
def test_ledger_conservation_across_policies_and_cores(policy_name, cores):
    sim, result = _sim(policy_name, cores=cores)
    ledger = sim.machine.ledger
    # The simulator audits at _build_result time; re-assert explicitly.
    ledger.audit(result.makespan_ns, cores)
    assert ledger.total_ns() == result.makespan_ns * cores
    for core in range(cores):
        assert ledger.core_total_ns(core) == result.makespan_ns
    assert set(ledger.by_category()) == set(LEDGER_CATEGORIES)
    # Per-process records are views of the process's cells.
    per_pid = ledger.cells_by_process()
    for record in result.processes:
        cells = per_pid[record.pid]
        assert record.cpu_time_ns == sum(cells[BUSY])
        assert record.memory_stall_ns == cells[MEMORY_STALL]
        assert record.storage_wait_ns == cells[SPIN_WAIT] + cells[STOLEN_RUN]


@pytest.mark.parametrize("policy_name", PAPER_POLICIES)
def test_observability_does_not_perturb_results(policy_name):
    bare = _run(policy_name)
    telemetry = Telemetry(causal=True)
    observed = _run(policy_name, telemetry=telemetry)
    assert bare.makespan_ns == observed.makespan_ns
    assert bare.major_faults == observed.major_faults
    assert bare.total_idle_ns == observed.total_idle_ns
    assert bare.instructions_committed == observed.instructions_committed


@pytest.mark.parametrize("policy_name", ["ITS", "Adaptive", "Async"])
@pytest.mark.parametrize("cores", [1, 2])
def test_causal_graph_acyclic_and_complete(policy_name, cores):
    telemetry = Telemetry(causal=True)
    result = _run(policy_name, cores=cores, telemetry=telemetry)
    graph = telemetry.causal
    graph.check_acyclic()
    faults = graph.of_kind("fault")
    assert len(faults) == result.major_faults
    assert graph.unresolved_faults() == []
    # Parent ids always precede children (acyclic by construction).
    for node in graph:
        if node.parent is not None:
            assert node.parent < node.id


def test_causal_steal_windows_classified_on_its():
    telemetry = Telemetry(causal=True)
    _run("ITS", telemetry=telemetry)
    windows = telemetry.causal.steal_windows()
    assert windows, "an ITS run must record stolen windows"
    assert any(w["paid_off"] for w in windows)
    for row in windows:
        assert row["prefetches_useful"] <= row["prefetches_installed"]
        assert row["prefetches_installed"] <= row["prefetches_issued"]


class TestSyncLedgerIdentities:
    """Single-core Sync: the ledger agrees with the idle breakdown."""

    @pytest.fixture(scope="class")
    def run(self):
        sim, result = _sim("Sync")
        return result, sim.machine.ledger

    def test_spin_wait_is_the_sync_storage_wait(self, run):
        result, ledger = run
        assert ledger.by_category()["spin_wait"] == result.idle.sync_storage_ns

    def test_ctx_switch_matches_overhead(self, run):
        result, ledger = run
        assert (
            ledger.by_category()["ctx_switch"]
            == result.idle.ctx_switch_overhead_ns
        )

    def test_no_its_categories_on_a_baseline(self, run):
        _result, ledger = run
        totals = ledger.by_category()
        assert totals["stolen_run"] == 0
        assert totals["kthread_run"] == 0
        assert totals["tlb_shootdown"] == 0
        assert totals["migration"] == 0


class TestSMPSpanTiling:
    """Per-core track suffixes: ITS fault phases tile per core.

    A major fault is serviced entirely on the core it hit, so its
    ``fault.handler`` span (``cpu.core{i}`` track) and ``fault.its.*``
    phases (``its.core{i}`` track) must sum to exactly that core's
    ``fault.its`` parent spans — per core, not just in aggregate.
    """

    ITS_PHASES = (
        "fault.its.checkpoint",
        "fault.its.prefetch_walk",
        "fault.its.runahead",
        "fault.its.wait",
        "fault.its.restore",
    )

    @pytest.fixture(scope="class")
    def tracer(self):
        from repro import Simulation, build_batch
        from repro.common.config import with_cores
        from repro.core import ITSPolicy

        # All-self-improving: a sacrificed fault records a handler span
        # but no ``fault.its`` parent, which would break the identity.
        config = with_cores(MachineConfig(), 2)
        batch = build_batch(BATCH, seed=SEED, scale=SCALE, config=config)
        telemetry = Telemetry()
        Simulation(
            config, batch, ITSPolicy(self_sacrifice=False), telemetry=telemetry
        ).run()
        return telemetry.tracer

    def test_core_tracks_present(self, tracer):
        tracks = {span.track for span in tracer}
        assert {"its.core0", "its.core1"} <= tracks
        # Shared resources stay on shared tracks.
        assert not any(t.startswith("dma.core") for t in tracks)

    def test_phases_tile_parent_per_core(self, tracer):
        for core in range(2):
            parent_total = sum(
                s.dur_ns or 0
                for s in tracer
                if s.name == "fault.its" and s.track == f"its.core{core}"
            )
            assert parent_total > 0
            child_total = sum(
                s.dur_ns or 0
                for s in tracer
                if (s.name in self.ITS_PHASES and s.track == f"its.core{core}")
                or (s.name == "fault.handler" and s.track == f"cpu.core{core}")
            )
            assert child_total == parent_total


def test_ledger_gauges_published():
    telemetry = Telemetry()
    _run("ITS", telemetry=telemetry)
    snap = telemetry.registry.snapshot()
    for category in LEDGER_CATEGORIES:
        assert f"ledger.{category}_ns" in snap
    assert snap["ledger.run_ns"] > 0
    assert snap["ledger.stolen_run_ns"] > 0


def test_ledger_keyword_is_accepted_and_ignored():
    telemetry = Telemetry(ledger=True)
    assert not hasattr(telemetry, "ledger")
