#!/usr/bin/env python3
"""Does the crossover argument survive a real device's read tail?

The paper's premise compares the *nominal* device latency against the
context-switch cost — but real ULL SSDs are not fixed-latency machines:
"Faster than Flash" measures an order of magnitude between the median
and the P99.9 read (garbage collection, program suspends, internal
retries).  This example re-runs the sync-vs-async device-latency sweep
under the fault layer's tail profiles and shows how the crossover point
moves when tails get heavy: the synchronous bet has to clear not the
median read, but the reads that stall.

It also demonstrates graceful degradation: under a tail profile the ITS
self-improving thread demotes steal windows that outgrow the
``demote_after_ns`` deadline to the async path, so a final instrumented
ITS run reports nonzero ``its.demote.count`` and ``faults.injected.*``
counters.

Fault profiles live in the `MachineConfig`, so the content-addressed
result cache keys them automatically — cells for different profiles
never collide, and a fault-free config hashes exactly as it did before
the fault layer existed.

Run:  python examples/tail_latency.py [CACHE_DIR]
"""

import sys
import tempfile
from pathlib import Path

from repro import MachineConfig, with_fault_profile
from repro.analysis.experiments import run_batch_policy, run_tail_sensitivity
from repro.analysis.runner import ResultCache
from repro.common.units import US
from repro.telemetry import Telemetry

LATENCIES_US = (1, 3, 5, 6, 7, 8)
PROFILES = ("none", "tail_bimodal", "tail_p999")


def main() -> None:
    base = MachineConfig()
    switch_us = base.scheduler.context_switch_ns / US
    print(f"context switch cost: {switch_us:.0f} us; sweeping nominal device latency")
    print(f"profiles: {', '.join(PROFILES)}")
    print()

    cache_dir = (
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(tempfile.gettempdir()) / "repro-tails-cache"
    )
    rows = run_tail_sensitivity(
        base,
        profiles=PROFILES,
        latencies_us=LATENCIES_US,
        batch="1_Data_Intensive",
        seed=7,
        scale=0.3,
        cache=ResultCache(cache_dir),
    )

    print(f"{'profile':>14s} {'crossover':>10s} {'Sync wins':>10s}")
    baseline = None
    for row in rows:
        cross = f"{row.crossover_us:g} us" if row.crossover_us is not None else "none"
        print(f"{row.profile:>14s} {cross:>10s} {row.sync_wins:>7d}/{len(row.points)}")
        if row.profile == "none":
            baseline = row
    print()
    if baseline is not None and baseline.crossover_us is not None:
        for row in rows:
            if row.profile == "none" or row.crossover_us is None:
                continue
            shift = row.crossover_us - baseline.crossover_us
            direction = "earlier" if shift < 0 else "later"
            print(
                f"under {row.profile}, async takes over {abs(shift):g} us "
                f"{direction} than with an idealised device"
            )
    print()

    # One instrumented ITS run under the heaviest profile: watch the
    # injector and the demotion machinery at work.
    telemetry = Telemetry()
    faulty = with_fault_profile(base, "tail_bimodal")
    run_batch_policy(
        faulty, "1_Data_Intensive", "ITS", seed=7, scale=0.3, telemetry=telemetry
    )
    tail = telemetry.counter("faults.injected.tail").value
    demoted = telemetry.counter("its.demote.count").value
    print(
        f"ITS under tail_bimodal: {tail} slow-path reads injected, "
        f"{demoted} steal windows demoted to the async path"
    )


if __name__ == "__main__":
    main()
