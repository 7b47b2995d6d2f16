"""Shared infrastructure for the benchmark harness.

The three Figure 4 panels and both Figure 5 panels come from the same
(batch x policy x seed) grid; this module caches that grid per
(seeds, scale) so each bench file reuses it instead of re-simulating.

Two cache layers stack here:

* **In-process** (``_GRID_CACHE``): one pytest invocation collecting
  several bench files simulates the grid once and shares it.
* **On-disk** (:class:`repro.analysis.runner.ResultCache`): every grid
  cell is content-addressed by its config/batch/policy/seed/scale hash,
  so a *repeated* bench invocation — or one interrupted halfway and
  restarted — re-simulates nothing.  Benches discover the cache
  directory from ``--cache-dir``, falling back to ``$REPRO_CACHE_DIR``
  and then ``~/.cache/repro-its`` (the same resolution the CLI uses;
  ``repro cache stats`` / ``repro cache clear`` manage it).  ``--no-cache``
  opts out.

``--workers N`` fans uncached cells out on a process pool; because each
cell is seeded independently and shares no state, the grid is bit-for-bit
identical at any worker count.  A per-cell progress line and a final
hit/miss summary (fed by the runner's ``runner.cache.*`` telemetry
counters) are printed to stderr as the grid fills.
"""

from __future__ import annotations

import sys
from typing import Sequence

from repro import MachineConfig
from repro.analysis.experiments import (
    PAPER_POLICIES,
    run_batch_policy,
)
from repro.analysis.results import FigureSeries, MetricKind, average_results
from repro.sim.batch import batch_names

SEEDS = (1, 2, 3)
SCALE = 1.0

TRACE_OUT: str | None = None
"""Directory for per-cell Chrome traces; set by ``--trace-out`` in
``benchmarks/conftest.py``, ``None`` disables tracing (the default).
Tracing forces the serial, uncached path."""

WORKERS: int = 1
"""Process-pool size for grid simulation; set by ``--workers``."""

CACHE_DIR: str | None = None
"""Result-cache directory override; set by ``--cache-dir``."""

NO_CACHE: bool = False
"""Bypass the on-disk result cache; set by ``--no-cache``."""

_GRID_CACHE: dict = {}


def _run_cell_traced(config, batch: str, policy: str, seed: int, scale: float):
    """One grid cell with telemetry attached and its trace exported."""
    from pathlib import Path

    from repro.telemetry import Telemetry, export_chrome_trace

    telemetry = Telemetry()
    result = run_batch_policy(
        config, batch, policy, seed=seed, scale=scale, telemetry=telemetry
    )
    out_dir = Path(TRACE_OUT)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_chrome_trace(
        telemetry,
        out_dir / f"{batch}.{policy}.seed{seed}.trace.json",
        process_name=f"{policy} on {batch} (seed {seed})",
    )
    return result


def _traced_grid(config, seeds: Sequence[int], scale: float):
    """Serial, uncached grid for ``--trace-out`` (per-cell telemetry)."""
    grid = {}
    for batch in batch_names():
        grid[batch] = {policy: [] for policy in PAPER_POLICIES}
        for seed in seeds:
            for policy in PAPER_POLICIES:
                grid[batch][policy].append(
                    _run_cell_traced(config, batch, policy, seed, scale)
                )
    return grid


def _engine_grid(config, seeds: Sequence[int], scale: float):
    """Grid via the parallel/cached sweep engine (the default path)."""
    from repro.analysis.runner import ResultCache, run_grid
    from repro.telemetry import Telemetry

    cache = None if NO_CACHE else ResultCache(CACHE_DIR)
    telemetry = Telemetry()

    def progress(done, total, cell, cached):
        tag = "cache" if cached else "ran"
        print(f"  [grid {done}/{total}] {cell.describe()} ({tag})", file=sys.stderr)

    grid = run_grid(
        config,
        batches=batch_names(),
        policies=list(PAPER_POLICIES),
        seeds=seeds,
        scale=scale,
        workers=WORKERS,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
    )
    hits = telemetry.counter("runner.cache.hit").value
    misses = telemetry.counter("runner.cache.miss").value
    where = "cache disabled" if cache is None else f"cache {cache.root}"
    print(
        f"grid: {hits} cache hits, {misses} simulated "
        f"(workers={WORKERS}, {where})",
        file=sys.stderr,
    )
    return grid


def figure_grid(seeds: Sequence[int] = SEEDS, scale: float = SCALE):
    """results[batch][policy] -> list of per-seed SimulationResult."""
    key = (tuple(seeds), scale)
    if key not in _GRID_CACHE:
        config = MachineConfig()
        if TRACE_OUT is not None:
            _GRID_CACHE[key] = _traced_grid(config, seeds, scale)
        else:
            _GRID_CACHE[key] = _engine_grid(config, seeds, scale)
    return _GRID_CACHE[key]


def series_from_grid(grid, metric: MetricKind, title: str) -> FigureSeries:
    """Collapse the cached grid into one figure's series."""
    policies = list(PAPER_POLICIES)
    series = {policy: [] for policy in policies}
    for batch in grid:
        averages = average_results(grid[batch], metric)
        for policy in policies:
            series[policy].append(averages.values[policy])
    return FigureSeries(
        title=title, metric=metric, x_labels=list(grid), series=series
    )


def print_with_expectation(series: FigureSeries, expectation: str) -> None:
    """Print the measured series (normalised to ITS) plus the paper's
    expected shape, in the same orientation as the paper's figures."""
    from repro.analysis.tables import render_series_table

    print()
    print(render_series_table(series.normalized_to("ITS")))
    print(f"paper expectation: {expectation}")
