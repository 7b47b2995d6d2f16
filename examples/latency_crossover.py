#!/usr/bin/env python3
"""When does synchronous I/O become promising?

The paper's premise: once device latency drops below the context-switch
cost (7 us measured), busy-waiting beats blocking.  This example sweeps
the storage device's access latency from 1 us (Z-NAND class) to 100 us
(commodity NVMe class) and reports which I/O mode finishes the batch
first at each point — reproducing the crossover that motivates the
whole design.

It also demonstrates the sweep engine (`repro.analysis.runner`): the
latency x policy grid is executed through `sweep_device_latency` with a
content-addressed result cache, so running this script a second time
simulates nothing — every cell is served from the cache directory and
the run is near-instant.  Pass a different cache directory (or delete
it) to re-simulate; results are identical either way, and adding
``workers=4`` to the `sweep_device_latency` call fans the first run out
across processes without changing a single output bit.

Run:  python examples/latency_crossover.py [CACHE_DIR]
"""

import sys
import tempfile
from pathlib import Path

from repro import MachineConfig
from repro.analysis.runner import ResultCache
from repro.analysis.sweeps import find_crossover, sweep_device_latency
from repro.common.units import US, format_time_ns
from repro.telemetry import Telemetry

LATENCIES_US = (1, 2, 3, 5, 7, 10, 15, 30, 60, 100)


def main() -> None:
    base = MachineConfig()
    switch_us = base.scheduler.context_switch_ns / US
    print(f"context switch cost: {switch_us:.0f} us (paper's i7-7800X measurement)")
    print()

    # The cache is keyed by content (config + batch + policy + seed +
    # scale), so any directory works: re-runs hit, changed knobs miss.
    cache_dir = (
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(tempfile.gettempdir()) / "repro-crossover-cache"
    )
    cache = ResultCache(cache_dir)
    telemetry = Telemetry()  # counts runner.cache.hit / .miss

    rows = sweep_device_latency(
        LATENCIES_US,
        policies=("Sync", "Async"),
        batch="1_Data_Intensive",
        seed=7,
        scale=0.5,
        base=base,
        cache=cache,          # second invocation: 100% cache hits
        telemetry=telemetry,  # workers=4 would parallelise the misses
    )

    print(f"{'device latency':>14s} {'Sync makespan':>14s} {'Async makespan':>15s}  winner")
    for row in rows:
        print(
            f"{row.value:11g} us {format_time_ns(row.results['Sync'].makespan_ns):>14s} "
            f"{format_time_ns(row.results['Async'].makespan_ns):>15s}  "
            f"{row.winner_by_makespan()}"
        )
    print()

    crossover = find_crossover(rows, "Sync", "Async")
    if crossover is not None:
        print(
            f"crossover: asynchronous mode takes over around {crossover:g} us — "
            "synchronous I/O is promising precisely in the ULL regime."
        )

    hits = telemetry.counter("runner.cache.hit").value
    misses = telemetry.counter("runner.cache.miss").value
    print(
        f"cache: {hits} hits, {misses} simulated (dir {cache_dir}) — "
        "run me again and every cell is a hit."
    )


if __name__ == "__main__":
    main()
