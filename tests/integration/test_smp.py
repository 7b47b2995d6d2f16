"""SMP invariants of the full simulation loop.

Three contracts anchor the multi-core model:

* **per-core time conservation** — each core's time-ledger cells tile
  its wall clock exactly, the SMP analogue of test_conservation.py's
  makespan decomposition;
* **single-core bit-identity** — ``cores=1`` serialises to nothing, so
  sweep-cache keys and batch results are byte-identical to the seed
  repo (the pinned digests of test_adaptive_policy.py must not move);
* **determinism** — the same seed at the same core count reproduces
  the run exactly, at any core count.
"""

import dataclasses

import pytest

from repro.analysis.experiments import POLICY_FACTORIES, run_core_scaling
from repro.analysis.runner import SweepCell, cache_key
from repro.common.config import CoreConfig, MachineConfig, with_cores
from repro.common.errors import ConfigError
from repro.sim.batch import build_batch, run_batch_instrumented
from repro.sim.simulator import Simulation
from repro.telemetry.ledger import WAITING

SMP_POLICIES = ["Sync", "Async", "ITS"]


def run_smp(policy_name, cores, *, scale=0.2, seed=5, batch="1_Data_Intensive",
            config=None, **core_kw):
    """Run one batch on an SMP machine; return the live Simulation and
    its result (the machine's ledger stays inspectable)."""
    config = with_cores(config or MachineConfig(), cores, **core_kw)
    workloads = build_batch(batch, seed=seed, scale=scale, config=config)
    sim = Simulation(
        config, workloads, POLICY_FACTORIES[policy_name](), batch_name=batch
    )
    return sim, sim.run()


class TestPerCoreConservation:
    @pytest.mark.parametrize("policy_name", SMP_POLICIES)
    @pytest.mark.parametrize("cores", [2, 4])
    def test_buckets_tile_each_cores_clock(self, policy_name, cores):
        sim, result = run_smp(policy_name, cores)
        for core in sim.machine.cores:
            assert sim.machine.ledger.core_total_ns(core.index) == result.makespan_ns
            assert core.now_ns == result.makespan_ns

    def test_conservation_survives_disabled_stealing(self):
        sim, result = run_smp("Async", 2, work_steal=False)
        assert sim.scheduler.steal_stats.steals == 0
        assert sim.machine.ledger.by_category()["migration"] == 0
        for core in sim.machine.cores:
            assert sim.machine.ledger.core_total_ns(core.index) == result.makespan_ns

    def test_async_idle_equals_summed_core_idle(self):
        sim, result = run_smp("Async", 2)
        assert result.idle.async_idle_ns == sum(
            sum(sim.machine.ledger.cells_by_core()[core.index][WAITING])
            for core in sim.machine.cores
        )

    def test_instructions_sum_over_cores(self):
        sim, result = run_smp("ITS", 2)
        assert result.instructions_committed == sum(
            core.cpu.instructions_committed for core in sim.machine.cores
        )
        assert result.context_switches == sum(
            core.context_switch.switches for core in sim.machine.cores
        )


class TestSingleCoreBitIdentity:
    # The pinned pre-SMP digests (default MachineConfig, 1_Data_Intensive,
    # seed 1, scale 0.2) — shared with test_adaptive_policy.py.
    SEED_DIGESTS = {
        "ITS": "6a50da2424f49f20b1ec536a29c882339af854b9ace480f71c119cbbd4010966",
        "Sync": "91e1e4ff33f2da8dd5b059e2563f0739cfb65ec63ca06ef83630c7a5b5a0ddd8",
    }

    def make_cell(self, policy, config):
        return SweepCell(
            config=config, batch="1_Data_Intensive", policy=policy, seed=1, scale=0.2
        )

    def test_explicit_single_core_block_keeps_seed_digests(self):
        config = dataclasses.replace(MachineConfig(), cores=CoreConfig())
        for policy, digest in self.SEED_DIGESTS.items():
            assert cache_key(self.make_cell(policy, config)) == digest

    def test_with_cores_one_keeps_seed_digests(self):
        config = with_cores(MachineConfig(), 1)
        assert cache_key(self.make_cell("ITS", config)) == self.SEED_DIGESTS["ITS"]

    def test_multi_core_changes_the_key(self):
        config = with_cores(MachineConfig(), 2)
        assert cache_key(self.make_cell("ITS", config)) != self.SEED_DIGESTS["ITS"]

    @pytest.mark.parametrize("policy_name", ["Sync", "ITS"])
    def test_single_core_results_identical_to_baseline(self, policy_name):
        _, baseline = run_smp(policy_name, 1)
        workloads = build_batch("1_Data_Intensive", seed=5, scale=0.2)
        plain = Simulation(
            MachineConfig(),
            workloads,
            POLICY_FACTORIES[policy_name](),
            batch_name="1_Data_Intensive",
        ).run()
        assert baseline == plain


class TestDeterminism:
    @pytest.mark.parametrize("policy_name,cores", [("ITS", 2), ("Async", 4)])
    def test_same_seed_same_result(self, policy_name, cores):
        _, first = run_smp(policy_name, cores)
        _, second = run_smp(policy_name, cores)
        assert first == second

    def test_steal_counters_reproduce(self):
        sim_a, _ = run_smp("Async", 2)
        sim_b, _ = run_smp("Async", 2)
        assert sim_a.scheduler.steal_stats == sim_b.scheduler.steal_stats


class TestScaling:
    def test_more_cores_shrink_fault_heavy_makespan(self):
        _, single = run_smp("ITS", 1, scale=0.1, batch="3_Data_Intensive")
        _, quad = run_smp("ITS", 4, scale=0.1, batch="3_Data_Intensive")
        assert quad.makespan_ns < single.makespan_ns

    def test_work_actually_migrates(self):
        sim, _ = run_smp("Async", 2)
        assert sim.scheduler.steal_stats.steals > 0
        assert sim.machine.ledger.by_category()["migration"] == (
            sim.scheduler.steal_stats.steals * sim.config.cores.migration_cost_ns
        )

    def test_run_core_scaling_rows_and_speedups(self):
        rows = run_core_scaling(core_counts=(1, 2), policies=("Async",), scale=0.1)
        assert [row.cores for row in rows] == [1, 2]
        assert rows[0].speedup["Async"] == 1.0
        assert rows[1].speedup["Async"] > 1.0
        assert rows[1].makespan_ns["Async"] < rows[0].makespan_ns["Async"]

    def test_run_core_scaling_requires_baseline(self):
        with pytest.raises(ConfigError):
            run_core_scaling(core_counts=(2, 4), policies=("Async",), scale=0.1)


class TestTelemetry:
    def test_per_core_gauges_published(self):
        result, telemetry = run_batch_instrumented(
            "1_Data_Intensive",
            POLICY_FACTORIES["Async"](),
            seed=5,
            scale=0.2,
            cores=2,
        )
        registry = telemetry.registry
        busy = [registry.gauge(f"cpu.core{i}.busy_ns").value for i in range(2)]
        assert all(value > 0 for value in busy)
        # The five per-core buckets are views of the core's ledger cells
        # and tile its clock.
        for i in range(2):
            assert sum(
                registry.gauge(f"cpu.core{i}.{bucket}_ns").value
                for bucket in ("busy", "idle", "steal", "ctx", "shootdown")
            ) == result.makespan_ns
        migration = registry.gauge("sched.steal.migration_ns").value
        assert migration == registry.gauge("ledger.migration_ns").value > 0
        assert registry.gauge("sched.steal.count").value > 0
        assert registry.gauge("sched.core0.dispatches").value > 0
        assert registry.gauge("tlb.shootdown.count").value >= 0
        # The aggregate view still carries the familiar names.
        assert registry.gauge("sched.dispatches").value > 0
        assert registry.gauge("cpu.instructions_committed").value == (
            result.instructions_committed
        )

    def test_single_core_publishes_no_core_gauges(self):
        _, telemetry = run_batch_instrumented(
            "1_Data_Intensive", POLICY_FACTORIES["Sync"](), seed=5, scale=0.2
        )
        names = {metric.name for metric in telemetry.registry}
        assert not any(name.startswith("cpu.core") for name in names)
        assert "tlb.shootdown.count" not in names
