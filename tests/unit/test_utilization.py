"""Unit tests for the utilisation report."""

import pytest

from repro.analysis.utilization import render_utilization, utilization
from repro.baselines import AsyncIOPolicy, SyncIOPolicy
from repro.common.config import with_cores
from repro.common.errors import SimulationError
from repro.sim.simulator import Simulation, WorkloadInstance

from tests.conftest import make_linear_trace


def run_sim(config, policy):
    workloads = [
        WorkloadInstance(name="w", trace=make_linear_trace(6), priority=10),
        WorkloadInstance(
            name="v", trace=make_linear_trace(6, base_va=0x90_0000), priority=20
        ),
    ]
    sim = Simulation(config, workloads, policy, batch_name="util")
    sim.run()
    return sim


class TestUtilization:
    def test_fractions_sum_to_one(self, small_config):
        sim = run_sim(small_config, SyncIOPolicy())
        report = utilization(sim)
        total = (
            report.cpu_useful_frac
            + report.cpu_idle_frac
            + report.cpu_overhead_frac
        )
        assert total == pytest.approx(1.0)

    def test_all_fractions_bounded(self, small_config):
        sim = run_sim(small_config, AsyncIOPolicy())
        report = utilization(sim)
        for value in (
            report.cpu_useful_frac,
            report.cpu_idle_frac,
            report.cpu_overhead_frac,
            report.device_util,
            report.link_util,
        ):
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("cores", [2, 4])
    def test_smp_fractions_are_of_total_core_time(self, small_config, cores):
        sim = run_sim(with_cores(small_config, cores), SyncIOPolicy())
        report = utilization(sim)
        fractions = (
            report.cpu_useful_frac,
            report.cpu_idle_frac,
            report.cpu_overhead_frac,
        )
        assert all(0.0 <= value <= 1.0 for value in fractions)
        assert sum(fractions) == pytest.approx(1.0)

    def test_device_sees_traffic(self, small_config):
        sim = run_sim(small_config, SyncIOPolicy())
        report = utilization(sim)
        assert report.device_busy_ns > 0
        assert report.link_busy_ns > 0

    def test_unrun_simulation_rejected(self, small_config):
        workloads = [
            WorkloadInstance(name="w", trace=make_linear_trace(2), priority=10)
        ]
        sim = Simulation(small_config, workloads, SyncIOPolicy())
        with pytest.raises(SimulationError):
            utilization(sim)

    def test_render_mentions_resources(self, small_config):
        sim = run_sim(small_config, SyncIOPolicy())
        text = render_utilization(utilization(sim))
        for token in ("CPU useful", "CPU idle", "device busy", "PCIe link busy"):
            assert token in text
