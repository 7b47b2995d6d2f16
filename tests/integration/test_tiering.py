"""Integration tests for heterogeneous storage tiers.

The headline acceptance check reproduces the paper's regime boundary
*within one machine*: with per-tier adaptation enabled, the controller
must select sync/steal servicing for the faults an ULL-class device
backs while routing far-memory-backed faults through the async path —
concurrently, in a single run (docs/TIERING.md).
"""

import dataclasses

import pytest

from repro.adaptive.policy import AdaptivePolicy
from repro.analysis.store import result_from_dict, result_to_dict
from repro.analysis.tiering import format_tier_table, run_tier_sweep
from repro.common.config import (
    CacheConfig,
    MachineConfig,
    MemoryConfig,
    SchedulerConfig,
    TLBConfig,
    with_serving,
)
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRNG
from repro.common.units import KIB, US
from repro.cpu.isa import Load
from repro.sim.simulator import Simulation, WorkloadInstance
from repro.tiering import with_tier_presets
from repro.trace.workloads import build_workload

PAGE = 4096


def adaptive_tiered_config(tiers=("ull", "far_memory"), **tier_overrides):
    """Per-tier adaptation on heterogeneous storage: the controller
    warms quickly and re-decides per fault, prefetching disabled so the
    estimators see raw device latencies."""
    base = MachineConfig()
    base = dataclasses.replace(
        base,
        its=dataclasses.replace(base.its, prefetch_degree=0),
        adaptive=dataclasses.replace(
            base.adaptive, enabled=True, warmup_faults=4, min_dwell_faults=1
        ),
    )
    return with_tier_presets(base, tiers, **tier_overrides)


def balanced_roster(count=6, scale=0.5, seed=1):
    """*count* identical data-intensive processes: co-running persists
    through the whole run, so the ready queue stays populated and the
    async path's context-switch economics are representative."""
    config = MachineConfig()
    rng = DeterministicRNG(seed)
    priorities = rng.sample(range(config.scheduler.priority_levels), count)
    instances = []
    for index in range(count):
        build = build_workload("random_walk", rng.fork(index + 1), scale)
        instances.append(
            WorkloadInstance(
                name=f"rw{index}",
                trace=build.trace,
                priority=priorities[index],
                data_intensive=True,
                mapped_vpns=build.mapped_vpns,
            )
        )
    return instances


class TestRegimeBoundaryByTier:
    """ISSUE acceptance: >= 90% sync/steal on ULL, >= 90% async on far
    memory, in the same adaptive run under the ``none`` fault profile."""

    def test_adaptive_splits_modes_by_device(self):
        config = adaptive_tiered_config(placement="pid_hash")
        sim = Simulation(
            config, balanced_roster(), AdaptivePolicy(), batch_name="tiered"
        )
        result = sim.run()
        summary = result.tiers
        assert summary is not None
        ull = summary.usage_of("ull")
        far = summary.usage_of("far_memory")
        # Both tiers must actually have served faults for the check to
        # mean anything.
        assert ull.total_decisions > 50
        assert far.total_decisions > 50
        assert ull.decision_fraction("sync", "steal") >= 0.9
        assert far.decision_fraction("async") >= 0.9


def tiny_config():
    return MachineConfig(
        llc=CacheConfig(size_bytes=8 * KIB, ways=2),
        tlb=TLBConfig(entries=4),
        memory=MemoryConfig(dram_frames=12),
        scheduler=SchedulerConfig(max_time_slice_ns=200 * US, min_time_slice_ns=20 * US),
    )


def tiny_workloads():
    return [
        WorkloadInstance(
            name=f"w{i}",
            trace=[Load(dst=1, vaddr=0x40_0000 + p * PAGE) for p in range(8)],
            priority=i,
        )
        for i in range(2)
    ]


class TestFastEngineFallback:
    """Tiered configs need no per-record fallback: they commit through
    windows, bit-identically to the per-record reference path, because
    a window issues no I/O of its own."""

    def test_forced_reference_is_bit_identical(self):
        tiered = with_tier_presets(tiny_config(), ["ull", "nvme"])

        def build():
            return Simulation(
                tiered, tiny_workloads(), AdaptivePolicy(), batch_name="t"
            )

        windowed = build()
        assert not windowed._per_record
        assert result_to_dict(windowed.run()) == result_to_dict(
            build()._run_per_record()
        )


class TestResultPayload:
    def test_tiered_result_round_trips(self):
        config = with_tier_presets(tiny_config(), ["ull", "nvme"])
        result = Simulation(
            config, tiny_workloads(), AdaptivePolicy(), batch_name="t"
        ).run()
        payload = result_to_dict(result)
        assert payload["tiers"]["placement"] == "pid_hash"
        assert [t["name"] for t in payload["tiers"]["tiers"]] == ["ull", "nvme"]
        assert result_from_dict(payload) == result

    def test_untier_result_omits_key(self):
        result = Simulation(
            tiny_config(), tiny_workloads(), AdaptivePolicy(), batch_name="t"
        ).run()
        assert result.tiers is None
        assert "tiers" not in result_to_dict(result)


class TestTierSweep:
    def test_rows_per_placement_and_tier(self, tmp_path):
        from repro.analysis.runner import ResultCache

        cache = ResultCache(tmp_path)
        kwargs = dict(
            tiers=("ull", "nvme"),
            placements=("pid_hash", "hot_cold"),
            batch="1_Data_Intensive",
            seed=1,
            scale=0.05,
            promote_threshold=1,
            cache=cache,
        )
        rows = run_tier_sweep(**kwargs)
        assert [(r.placement, r.tier) for r in rows] == [
            ("pid_hash", "ull"),
            ("pid_hash", "nvme"),
            ("hot_cold", "ull"),
            ("hot_cold", "nvme"),
        ]
        for row in rows:
            assert row.makespan_ns > 0
            assert 0.0 <= row.sync_steal_fraction <= 1.0
            assert 0.0 <= row.async_fraction <= 1.0
        # Pages start cold under hot_cold and threshold 1 promotes on
        # the first fault, so migration traffic must appear.
        hot_cold = [r for r in rows if r.placement == "hot_cold"]
        assert hot_cold[0].migrations_in == hot_cold[1].migrations_out
        assert hot_cold[0].migrations_in > 0
        # The second run must be served from cache, through the result
        # store's tiers codec, and produce identical rows.
        assert run_tier_sweep(**kwargs) == rows
        table = format_tier_table(rows)
        assert "pid_hash" in table and "hot_cold" in table

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigError, match="unknown placement"):
            run_tier_sweep(placements=("hottest",), scale=0.05)


class TestServingWithTiers:
    def test_open_loop_run_reports_both_summaries(self):
        from repro.analysis.experiments import run_batch_policy

        config = with_serving(
            with_tier_presets(MachineConfig(), ["ull", "nvme"]),
            rate_per_s=2000.0,
            duration_ms=2.0,
        )
        result = run_batch_policy(
            config, "1_Data_Intensive", "Adaptive", seed=1, scale=0.05
        )
        assert result.serving is not None
        assert result.tiers is not None
        assert {t.name for t in result.tiers.tiers} == {"ull", "nvme"}
