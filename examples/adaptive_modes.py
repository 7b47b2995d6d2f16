#!/usr/bin/env python3
"""Can an online controller pick the right I/O mode without being told?

The paper's conclusion — busy-wait when the device is fast, context
switch when it is slow, steal the window either way if you can — assumes
somebody *knows* the device latency.  The adaptive controller
(`repro.adaptive`) does not: it estimates the read-wait distribution
from the completions it observes (EWMA mean, P² streaming quantiles, a
sliding window), prices sync-spin / ITS-steal / async-demote per fault,
and applies hysteresis so close calls don't flap.

This example runs the controller head-to-head against the static
policies across device latencies and tail profiles, then replays one
instrumented run to show the decision and estimate telemetry: how many
faults went to each mode, how far off the latency estimate ran, and
what the controller believed about the tail at the end.

Run:  python examples/adaptive_modes.py [CACHE_DIR]
"""

import sys
import tempfile
from pathlib import Path

from repro import MachineConfig, with_fault_profile
from repro.analysis.experiments import run_adaptive_comparison, run_batch_policy
from repro.analysis.runner import ResultCache
from repro.common.units import US
from repro.telemetry import Telemetry

LATENCIES_US = (1, 3, 7, 15, 30)
PROFILES = ("none", "tail_bimodal")


def main() -> None:
    base = MachineConfig()
    switch_us = base.scheduler.context_switch_ns / US
    print(f"context switch cost: {switch_us:.0f} us; comparing I/O modes")
    print()

    cache_dir = (
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(tempfile.gettempdir()) / "repro-adaptive-cache"
    )
    rows = run_adaptive_comparison(
        base,
        profiles=PROFILES,
        latencies_us=LATENCIES_US,
        batch="1_Data_Intensive",
        seed=7,
        scale=0.3,
        cache=ResultCache(cache_dir),
    )

    print(f"{'profile':>14s} {'lat(us)':>8s} {'best static':>11s} {'adaptive gap':>12s}")
    worst_gap = 0.0
    for row in rows:
        print(
            f"{row.profile:>14s} {row.latency_us:>8g} "
            f"{row.best_static:>11s} {row.adaptive_gap:>+11.1%}"
        )
        worst_gap = max(worst_gap, row.adaptive_gap)
    print()
    print(
        f"adaptive tracked the best static policy within {worst_gap:.1%} "
        "at every point, without knowing the device latency"
    )
    print()

    # One instrumented run under the heavy tail: watch the controller's
    # decisions and what its estimators converged to.
    telemetry = Telemetry()
    faulty = with_fault_profile(base, "tail_bimodal")
    run_batch_policy(
        faulty, "1_Data_Intensive", "Adaptive", seed=7, scale=0.3, telemetry=telemetry
    )
    snap = telemetry.registry.snapshot()
    decisions = {
        mode: snap.get(f"adaptive.decision.{mode}", 0)
        for mode in ("sync", "steal", "async")
    }
    print("adaptive decisions under tail_bimodal:")
    for mode, count in decisions.items():
        print(f"  {mode:>5s}: {count}")
    print(f"  cold (warming up): {snap.get('adaptive.decision.cold', 0)}")
    print(f"  mode switches:     {snap.get('adaptive.decision.switch', 0)}")
    print()
    print("controller's view of the read-wait distribution (ns):")
    for key in ("mean", "p50", "p95", "p99", "error"):
        value = snap.get(f"adaptive.estimate.{key}_ns")
        if value is not None:
            print(f"  {key:>5s}: {value:,.0f}")


if __name__ == "__main__":
    main()
