"""Threshold-based page promotion and demotion between tiers.

Every demand fault bumps the faulting page's heat count; once it
crosses ``TierConfig.promote_threshold`` on a non-fast tier, the page's
swap copy is promoted one tier toward index 0.  The copy is charged
through the real device and link models on *both* sides — a flash read
and outbound transfer on the source, an inbound transfer and flash
program on the destination — so migrations compete with demand traffic
for channels and link time instead of happening for free.

When a promotion would push the destination past
``demote_watermark * capacity``, the coldest page there (lowest heat
count, deterministic ``(pid, vpn)`` tie-break) is first demoted one
tier toward the slow end, making room without ever spilling hot pages
via the placement layer's capacity fallback.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import TierConfig


class MigrationEngine:
    """Tracks page heat and executes promotion/demotion copies."""

    def __init__(
        self,
        registry,
        memory,
        config: TierConfig,
        *,
        telemetry=None,
    ) -> None:
        self.registry = registry
        self.memory = memory
        self.config = config
        self.telemetry = telemetry
        self.fault_counts: dict[tuple[int, int], int] = {}
        self.promotions = 0
        self.demotions = 0
        self.migration_ns = 0

    def heat_of(self, pid: int, vpn: int) -> int:
        """Demand-fault count of (pid, vpn) since its last migration."""
        return self.fault_counts.get((pid, vpn), 0)

    def on_demand_read(self, pid: int, vpn: int, tier_index: int, now_ns: int) -> None:
        """Account one demand fault; promote once the threshold is hit."""
        if self.config.promote_threshold <= 0:
            return
        key = (pid, vpn)
        count = self.fault_counts.get(key, 0) + 1
        self.fault_counts[key] = count
        if tier_index == 0 or count < self.config.promote_threshold:
            return
        self.fault_counts[key] = 0
        self._migrate(pid, vpn, tier_index, tier_index - 1, now_ns, promotion=True)

    # -- the copy -------------------------------------------------------------

    def _migrate(
        self,
        pid: int,
        vpn: int,
        src_index: int,
        dst_index: int,
        now_ns: int,
        *,
        promotion: bool,
    ) -> None:
        registry = self.registry
        placement = registry.placement
        if promotion:
            capacity = placement.capacity_slots[dst_index]
            if placement.used[dst_index] + 1 > self.config.demote_watermark * capacity:
                victim = self._coldest_on(dst_index, exclude=(pid, vpn))
                if victim is not None:
                    self._migrate(
                        victim[0], victim[1], dst_index, dst_index + 1,
                        now_ns, promotion=False,
                    )
        src = registry.tiers[src_index]
        dst = registry.tiers[dst_index]
        page_bytes = self.memory.frames.page_size
        # Device-to-device copy through both hardware models.
        __, flash_done = src.device.submit_read(now_ns)
        __, out_done = src.link.schedule_transfer(flash_done, page_bytes)
        __, in_done = dst.link.schedule_transfer(out_done, page_bytes)
        __, done = dst.device.submit_write(in_done)
        self.migration_ns += done - now_ns
        # Re-place the swap copy: pin so the fresh allocation lands on
        # the destination, then swap slots under the page's feet.
        placement.pin(pid, vpn, dst_index)
        pte = self.memory.mm_of(pid).pte_for(vpn)
        if pte is not None and pte.swap_slot is not None:
            self.memory.swap.free(pte.swap_slot)
            pte.swap_slot = self.memory.swap.allocate(pid, vpn)
        src.migrations_out += 1
        dst.migrations_in += 1
        kind = "promote" if promotion else "demote"
        if promotion:
            self.promotions += 1
        else:
            self.demotions += 1
        if self.telemetry is not None:
            self.telemetry.record_span(
                "tier.migrate", now_ns, done,
                track="dma", pid=pid,
                args={
                    "vpn": vpn, "kind": kind,
                    "from": src.spec.name, "to": dst.spec.name,
                },
            )
            self.telemetry.counter(f"tier.migrate.{kind}").inc()
            self.telemetry.histogram("tier.migrate_ns").observe(done - now_ns)
            causal = self.telemetry.causal
            if causal is not None:
                causal.add(
                    "tier_migrate", now_ns,
                    pid=pid, vpn=vpn, parent=causal.parent,
                    direction=kind, src=src.spec.name, dst=dst.spec.name,
                )

    def _coldest_on(
        self, tier_index: int, exclude: tuple[int, int]
    ) -> Optional[tuple[int, int]]:
        """The least-hot (pid, vpn) whose swap slot lives on *tier_index*."""
        best: Optional[tuple[int, int]] = None
        best_heat = None
        for slot in self.registry.placement.slots_on(tier_index):
            owner = self.memory.swap.owner_of(slot)
            if owner is None or owner == exclude:
                continue
            heat = self.fault_counts.get(owner, 0)
            if best_heat is None or (heat, owner) < (best_heat, best):
                best, best_heat = owner, heat
        return best
