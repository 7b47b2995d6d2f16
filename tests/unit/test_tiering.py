"""Unit tests for the heterogeneous storage-tier subsystem.

Covers the preset registry, the ``TierConfig`` block's serialisation
contract, slot placement policies, the tier-routing DMA facade, and the
threshold migration engine (docs/TIERING.md).
"""

import pytest

from repro.common.config import (
    TIER_PLACEMENTS,
    DeviceConfig,
    MachineConfig,
    PCIeConfig,
    TierConfig,
    TierSpec,
    with_tiers,
)
from repro.common.errors import ConfigError, SimulationError
from repro.common.events import EventQueue
from repro.common.units import US
from repro.storage.device import ULLDevice
from repro.storage.dma import DMARequest
from repro.telemetry import Telemetry
from repro.tiering import (
    MigrationEngine,
    TIER_PRESETS,
    PagePlacement,
    TieredDMAController,
    TierRegistry,
    get_tier_preset,
    resolve_tier_specs,
    with_tier_presets,
)
from repro.vm.frames import FrameAllocator
from repro.vm.mm import MemoryManager
from repro.vm.replacement import GlobalLRUPolicy
from repro.vm.swap import SwapArea

PAGE = 4096


def small_spec(name: str, *, latency_ns: int = 3 * US, slots: int = 64) -> TierSpec:
    """A tier with a test-sized capacity (in swap slots)."""
    return TierSpec(
        name=name,
        device=DeviceConfig(
            access_latency_ns=latency_ns, channels=2, capacity_bytes=slots * PAGE
        ),
        pcie=PCIeConfig(lanes=4),
    )


def build_tiered(specs, *, placement="pid_hash", promote_threshold=0,
                 demote_watermark=1.0):
    """A minimal tiered VM harness: memory + placement + registry + facade."""
    config = with_tiers(
        MachineConfig(),
        specs,
        placement=placement,
        promote_threshold=promote_threshold,
        demote_watermark=demote_watermark,
    )
    page = config.memory.page_size
    plc = PagePlacement(config.tiers, page)
    swap = SwapArea(plc.total_slots)
    swap.on_allocate(plc.note_allocate)
    swap.on_free(plc.note_free)
    memory = MemoryManager(
        FrameAllocator(config.memory.dram_frames, page), swap, GlobalLRUPolicy()
    )
    registry = TierRegistry(config, EventQueue(), memory, plc)
    if promote_threshold > 0:
        registry.migration = MigrationEngine(registry, memory, config.tiers)
    return memory, plc, registry, TieredDMAController(registry)


class TestPresets:
    def test_known_names(self):
        assert set(TIER_PRESETS) == {"ull", "nvme", "far_memory"}

    def test_case_insensitive_lookup(self):
        assert get_tier_preset("ULL") is TIER_PRESETS["ull"]
        assert get_tier_preset("NVMe") is TIER_PRESETS["nvme"]
        assert get_tier_preset("Far_Memory") is TIER_PRESETS["far_memory"]

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigError, match="far_memory, nvme, ull"):
            get_tier_preset("optane")

    def test_ull_is_fastest(self):
        latencies = {
            name: spec.device.access_latency_ns for name, spec in TIER_PRESETS.items()
        }
        assert latencies["ull"] < latencies["far_memory"] < latencies["nvme"]

    def test_resolve_mixes_names_and_specs(self):
        custom = small_spec("custom")
        specs = resolve_tier_specs(["ull", custom])
        assert specs == (TIER_PRESETS["ull"], custom)

    def test_with_tier_presets_enables(self):
        config = with_tier_presets(MachineConfig(), ["ull", "nvme"])
        assert config.tiers.enabled
        assert [t.name for t in config.tiers.tiers] == ["ull", "nvme"]


class TestTierConfig:
    def test_default_omitted_from_to_dict(self):
        assert "tiers" not in MachineConfig().to_dict()

    def test_enabled_round_trips(self):
        config = with_tier_presets(
            MachineConfig(), ["ull", "far_memory"],
            placement="round_robin", promote_threshold=3, demote_watermark=0.75,
        )
        payload = config.to_dict()
        assert "tiers" in payload
        assert MachineConfig.from_dict(payload) == config

    def test_round_trip_changes_cache_identity(self):
        base = MachineConfig()
        tiered = with_tier_presets(base, ["ull", "nvme"])
        assert tiered.to_dict() != base.to_dict()

    def test_tiered_config_gets_its_own_cache_key(self):
        from repro.analysis.runner import SweepCell, cache_key

        def key(config):
            return cache_key(
                SweepCell(
                    config=config, batch="1_Data_Intensive",
                    policy="ITS", seed=1, scale=0.2,
                )
            )

        # The pinned single-device ITS key (see test_engine_digests.py).
        seed_key = "6a50da2424f49f20b1ec536a29c882339af854b9ace480f71c119cbbd4010966"
        assert key(MachineConfig()) == seed_key
        assert key(with_tier_presets(MachineConfig(), ["ull", "nvme"])) != seed_key

    def test_enabled_needs_tiers(self):
        with pytest.raises(ConfigError):
            TierConfig(enabled=True, tiers=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            TierConfig(tiers=(small_spec("a"), small_spec("a")))

    def test_bad_placement_rejected(self):
        with pytest.raises(ConfigError):
            TierConfig(placement="hottest_first")

    def test_hot_cold_needs_promotion(self):
        with pytest.raises(ConfigError, match="promote_threshold"):
            with_tier_presets(
                MachineConfig(), ["ull", "nvme"], placement="hot_cold"
            )

    def test_watermark_bounds(self):
        with pytest.raises(ConfigError):
            TierConfig(demote_watermark=0.0)
        with pytest.raises(ConfigError):
            TierConfig(demote_watermark=1.5)

    def test_malformed_dict(self):
        with pytest.raises(ConfigError):
            TierConfig.from_dict({"placement": "pid_hash", "bogus": 1})
        with pytest.raises(ConfigError):
            TierSpec.from_dict({"name": "x"})


class TestPagePlacement:
    def placement(self, n_tiers=2, *, policy="pid_hash", slots=4):
        config = TierConfig(
            enabled=True,
            tiers=tuple(small_spec(f"t{i}", slots=slots) for i in range(n_tiers)),
            placement=policy,
            promote_threshold=1 if policy == "hot_cold" else 0,
        )
        return PagePlacement(config, PAGE)

    def test_total_slots_sums_capacities(self):
        assert self.placement(slots=4).total_slots == 8

    def test_pid_hash_routes_by_pid(self):
        plc = self.placement()
        plc.note_allocate(0, pid=2, vpn=0)
        plc.note_allocate(1, pid=3, vpn=0)
        assert plc.tier_of_slot(0) == 0
        assert plc.tier_of_slot(1) == 1

    def test_round_robin_stripes(self):
        plc = self.placement(policy="round_robin")
        for slot in range(4):
            plc.note_allocate(slot, pid=1, vpn=slot)
        assert [plc.tier_of_slot(s) for s in range(4)] == [0, 1, 0, 1]

    def test_hot_cold_starts_cold(self):
        plc = self.placement(policy="hot_cold")
        plc.note_allocate(0, pid=1, vpn=0)
        assert plc.tier_of_slot(0) == 1

    def test_capacity_spill_to_next_tier(self):
        plc = self.placement(slots=2)
        for slot in range(3):
            plc.note_allocate(slot, pid=2, vpn=slot)  # prefers tier 0
        assert [plc.tier_of_slot(s) for s in range(3)] == [0, 0, 1]

    def test_all_full_raises(self):
        plc = self.placement(slots=1)
        plc.note_allocate(0, pid=2, vpn=0)
        plc.note_allocate(1, pid=2, vpn=1)
        with pytest.raises(SimulationError, match="full"):
            plc.note_allocate(2, pid=2, vpn=2)

    def test_free_releases_capacity(self):
        plc = self.placement(slots=1)
        plc.note_allocate(0, pid=2, vpn=0)
        plc.note_free(0)
        assert plc.used == [0, 0]
        plc.note_allocate(1, pid=4, vpn=1)
        assert plc.tier_of_slot(1) == 0

    def test_pin_overrides_policy(self):
        plc = self.placement()
        plc.pin(2, 7, 1)
        plc.note_allocate(0, pid=2, vpn=7)
        assert plc.tier_of_slot(0) == 1
        assert plc.pinned_tier(2, 7) == 1

    def test_unmapped_slot_raises(self):
        with pytest.raises(SimulationError):
            self.placement().tier_of_slot(9)

    def test_slots_on_is_sorted(self):
        plc = self.placement(policy="round_robin")
        # Allocation order alternates tiers: slot 5 -> 0, 1 -> 1, 3 -> 0.
        for slot in (5, 1, 3):
            plc.note_allocate(slot, pid=1, vpn=slot)
        assert plc.slots_on(0) == [3, 5]
        assert plc.slots_on(1) == [1]


class TestDeviceRetriedNs:
    def test_retry_reads_book_retried_time(self):
        device = ULLDevice(DeviceConfig(access_latency_ns=1000, channels=1))
        device.submit_read(0)
        assert device.stats.retried_ns == 0
        start, done = device.submit_read(0, retry=True)
        assert device.stats.retried_ns == done - start
        assert device.stats.retried_ops == 1
        assert device.stats.first_attempt_ns == device.stats.busy_ns - (done - start)


class TestTieredFacade:
    def build(self, **kwargs):
        specs = [small_spec("fast", latency_ns=3 * US),
                 small_spec("slow", latency_ns=40 * US)]
        return build_tiered(specs, **kwargs)

    def test_routes_by_pid_hash(self):
        memory, plc, registry, dma = self.build()
        memory.register_process(2, range(4))
        memory.register_process(3, range(4))
        assert dma.tier_of(2, 0) == 0
        assert dma.tier_of(3, 0) == 1

    def test_demand_read_counts_and_wait(self):
        memory, plc, registry, dma = self.build()
        memory.register_process(3, range(4))
        done = dma.read_page(0, DMARequest(pid=3, vpn=1, page_bytes=PAGE))
        slow = registry.tiers[1]
        assert slow.demand_reads == 1 and slow.prefetch_reads == 0
        assert slow.read_wait_ns == done
        assert registry.tiers[0].demand_reads == 0

    def test_prefetch_and_writeback_counts(self):
        memory, plc, registry, dma = self.build()
        memory.register_process(2, range(4))
        dma.read_page(0, DMARequest(pid=2, vpn=0, page_bytes=PAGE, prefetch=True))
        dma.write_page(0, DMARequest(pid=2, vpn=1, page_bytes=PAGE))
        fast = registry.tiers[0]
        assert fast.prefetch_reads == 1 and fast.demand_reads == 0
        assert fast.writebacks == 1

    def test_aggregate_counters_sum_tiers(self):
        memory, plc, registry, dma = self.build()
        memory.register_process(2, range(4))
        memory.register_process(3, range(4))
        a = dma.read_page(0, DMARequest(pid=2, vpn=0, page_bytes=PAGE))
        b = dma.read_page(0, DMARequest(pid=3, vpn=0, page_bytes=PAGE))
        assert dma.inflight == 2
        # Both per-tier controllers share one event queue; draining it
        # completes both transfers through the aggregate view.
        registry.tiers[0].dma.events.run_due(max(a, b))
        assert dma.inflight == 0
        assert dma.completed == 2
        assert dma.retries == 0

    def test_estimate_is_fastest_tier(self):
        memory, plc, registry, dma = self.build()
        fast = dma.estimate_tier_read_latency(0, 0)
        slow = dma.estimate_tier_read_latency(0, 1)
        assert fast < slow
        assert dma.estimate_read_latency(0) == fast

    def test_unregistered_page_raises(self):
        memory, plc, registry, dma = self.build()
        with pytest.raises(SimulationError):
            dma.tier_of(9, 0)

    def test_summary_and_decisions(self):
        memory, plc, registry, dma = self.build()
        memory.register_process(2, range(2))
        dma.read_page(0, DMARequest(pid=2, vpn=0, page_bytes=PAGE))
        registry.note_decision(0, "steal")
        registry.note_decision(0, "steal")
        registry.note_decision(0, "async")
        summary = registry.summary()
        assert summary.placement == "pid_hash"
        usage = summary.usage_of("fast")
        assert usage.demand_reads == 1
        assert usage.decisions == {"sync": 0, "steal": 2, "async": 1}
        assert usage.decision_fraction("sync", "steal") == pytest.approx(2 / 3)
        assert usage.decision_fraction("async") == pytest.approx(1 / 3)
        with pytest.raises(KeyError):
            summary.usage_of("nope")

    def test_decision_fraction_empty_is_zero(self):
        memory, plc, registry, dma = self.build()
        assert registry.summary().usage_of("slow").decision_fraction("sync") == 0.0


class TestMigration:
    def build(self, *, threshold=2, watermark=1.0, fast_slots=2):
        specs = [
            small_spec("fast", latency_ns=3 * US, slots=fast_slots),
            small_spec("slow", latency_ns=40 * US, slots=64),
        ]
        return build_tiered(
            specs, promote_threshold=threshold, demote_watermark=watermark
        )

    def fault(self, dma, pid, vpn, times=1):
        for _ in range(times):
            dma.read_page(0, DMARequest(pid=pid, vpn=vpn, page_bytes=PAGE))

    def test_promotion_after_threshold(self):
        memory, plc, registry, dma = self.build(threshold=2)
        memory.register_process(3, range(4))  # pid 3 -> slow tier
        assert dma.tier_of(3, 0) == 1
        self.fault(dma, 3, 0, times=2)
        assert dma.tier_of(3, 0) == 0
        assert registry.migration.promotions == 1
        assert registry.migration.migration_ns > 0
        assert registry.tiers[1].migrations_out == 1
        assert registry.tiers[0].migrations_in == 1

    def test_promotion_resets_heat(self):
        memory, plc, registry, dma = self.build(threshold=2)
        memory.register_process(3, range(4))
        self.fault(dma, 3, 0, times=2)
        assert registry.migration.heat_of(3, 0) == 0

    def test_fast_tier_pages_never_promote(self):
        memory, plc, registry, dma = self.build(threshold=1)
        memory.register_process(2, range(2))  # pid 2 -> fast tier
        self.fault(dma, 2, 0, times=3)
        assert registry.migration.promotions == 0

    def test_migration_preserves_swap_owner(self):
        memory, plc, registry, dma = self.build(threshold=1)
        memory.register_process(3, range(4))
        self.fault(dma, 3, 2)
        pte = memory.mm_of(3).pte_for(2)
        assert pte.swap_slot is not None
        assert memory.swap.owner_of(pte.swap_slot) == (3, 2)
        assert plc.tier_of_slot(pte.swap_slot) == 0

    def test_full_fast_tier_demotes_coldest(self):
        memory, plc, registry, dma = self.build(threshold=1, fast_slots=2)
        memory.register_process(3, range(4))
        # Promote two pages: the fast tier (2 slots) is now full.
        self.fault(dma, 3, 0)
        self.fault(dma, 3, 1, times=3)  # vpn 1 much hotter
        assert registry.migration.demotions == 0
        # A third promotion must demote the coldest resident (vpn 0).
        self.fault(dma, 3, 2)
        assert registry.migration.promotions == 3
        assert registry.migration.demotions == 1
        assert dma.tier_of(3, 0) == 1  # cold page pushed back down
        assert dma.tier_of(3, 1) == 0  # hot page kept
        assert dma.tier_of(3, 2) == 0

    def test_causal_graph_records_each_migration(self):
        memory, plc, registry, dma = self.build(threshold=1, fast_slots=2)
        telemetry = Telemetry(causal=True)
        registry.migration.telemetry = telemetry
        memory.register_process(3, range(4))
        self.fault(dma, 3, 0)
        self.fault(dma, 3, 1, times=3)
        self.fault(dma, 3, 2)  # the fast tier is full: demote vpn 0 first
        nodes = telemetry.causal.of_kind("tier_migrate")
        assert [(n.vpn, n.args["direction"]) for n in nodes] == [
            (0, "promote"), (1, "promote"), (0, "demote"), (2, "promote")
        ]
        assert nodes[2].args["src"] == "fast" and nodes[2].args["dst"] == "slow"

    def test_disabled_threshold_never_migrates(self):
        memory, plc, registry, dma = self.build(threshold=0)
        assert registry.migration is None
        memory.register_process(3, range(4))
        self.fault(dma, 3, 0, times=10)
        assert dma.tier_of(3, 0) == 1
