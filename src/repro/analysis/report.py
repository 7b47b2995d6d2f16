"""One-shot reproduction report.

Runs every paper experiment (Section 2.2 observation, Figures 4a-4c,
Figures 5a-5b) on the given seeds/scale and renders a self-contained
Markdown report with raw and ITS-normalised tables — the artefact a
reviewer would ask for.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.experiments import (
    DEFAULT_SEEDS,
    run_figure4,
    run_figure5,
    run_observation,
)
from repro.analysis.results import FigureSeries
from repro.common.config import MachineConfig
from repro.common.units import format_time_ns


def _markdown_table(series: FigureSeries, *, precision: int = 2) -> str:
    header = "| policy | " + " | ".join(series.x_labels) + " |"
    rule = "|---|" + "---|" * len(series.x_labels)
    rows = [
        "| " + name + " | " + " | ".join(f"{v:.{precision}f}" for v in values) + " |"
        for name, values in series.series.items()
    ]
    return "\n".join([header, rule, *rows])


def generate_report(
    config: Optional[MachineConfig] = None,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    scale: float = 1.0,
    workers: int = 1,
    cache=None,
) -> str:
    """Run all experiments and return the report as Markdown text.

    ``workers``/``cache`` are forwarded to the figure grids (see
    :mod:`repro.analysis.runner`); Figures 4 and 5 share one grid, so
    with a cache the second ``run_figure*`` call is entirely hits.
    """
    config = config or MachineConfig()
    out = io.StringIO()
    write = out.write

    write("# ITS reproduction report\n\n")
    write(
        f"Machine: LLC {config.llc.size_bytes // 1024} KiB/{config.llc.ways}-way, "
        f"DRAM {config.memory.dram_frames} frames x {config.memory.page_size} B, "
        f"device {format_time_ns(config.device.access_latency_ns)}, "
        f"switch {format_time_ns(config.scheduler.context_switch_ns)}.\n\n"
    )
    write(f"Seeds: {tuple(seeds)}; trace scale: {scale}.\n\n")

    obs = run_observation(config, scale=scale, seed=seeds[0])
    write("## Section 2.2 observation\n\n")
    write("| processes | idle | idle/makespan | normalised |\n|---|---|---|---|\n")
    for count, idle, frac, norm in zip(
        obs.process_counts, obs.idle_ns, obs.idle_fraction, obs.normalized_idle
    ):
        write(f"| {count} | {format_time_ns(idle)} | {frac:.1%} | {norm:.2f} |\n")
    write("\n")

    fig4 = run_figure4(config, seeds=seeds, scale=scale, workers=workers, cache=cache)
    fig5 = run_figure5(config, seeds=seeds, scale=scale, workers=workers, cache=cache)

    from repro.analysis.validate import (
        render_claims,
        validate_figure4,
        validate_figure5,
        validate_observation,
    )

    checks = [
        *validate_observation(obs),
        *validate_figure4(fig4),
        *validate_figure5(fig5),
    ]
    write("## Claim verification\n\n```\n")
    write(render_claims(checks))
    write("\n```\n\n")

    panels = [
        ("Figure 4a — total CPU idle time", fig4.idle_time),
        ("Figure 4b — major page faults", fig4.page_faults),
        ("Figure 4c — CPU cache misses", fig4.cache_misses),
        ("Figure 5a — top-50% priority finish time", fig5.top_half),
        ("Figure 5b — bottom-50% priority finish time", fig5.bottom_half),
    ]
    for title, series in panels:
        write(f"## {title}\n\n")
        write("Normalised to ITS:\n\n")
        write(_markdown_table(series.normalized_to("ITS")))
        write("\n\nRaw values:\n\n")
        write(_markdown_table(series, precision=0))
        write("\n\n")

    write(_fault_latency_section(config, seed=seeds[0], scale=scale))

    write(_serving_section(config, seed=seeds[0], workers=workers, cache=cache))

    write(
        "---\nSee EXPERIMENTS.md for paper-vs-measured discussion and the "
        "documented deviations.\n"
    )
    return out.getvalue()


def _fault_latency_section(
    config: MachineConfig,
    *,
    seed: int,
    scale: float,
    batch: str = "2_Data_Intensive",
) -> str:
    """Per-policy major-fault service-latency percentiles.

    Re-runs one representative batch per policy with telemetry attached
    and tabulates the ``fault.service_ns`` histogram — the paper's core
    claim restated as a latency distribution rather than a makespan bar.
    """
    from repro.analysis.experiments import POLICY_FACTORIES, run_batch_policy
    from repro.telemetry import Telemetry

    out = io.StringIO()
    out.write(f"## Major-fault service latency ({batch}, seed {seed})\n\n")
    out.write(
        "Per-policy `fault.service_ns` distribution (handler entry to "
        "page installed, virtual ns):\n\n"
    )
    out.write("| policy | faults | p50 | p95 | p99 | mean |\n|---|---|---|---|---|---|\n")
    for policy in POLICY_FACTORIES:
        telemetry = Telemetry()
        run_batch_policy(
            config, batch, policy, seed=seed, scale=scale, telemetry=telemetry
        )
        snap = telemetry.histogram("fault.service_ns").snapshot()
        if snap["count"] == 0:
            out.write(f"| {policy} | 0 | - | - | - | - |\n")
            continue
        out.write(
            f"| {policy} | {snap['count']} | {snap['p50']:.0f} | "
            f"{snap['p95']:.0f} | {snap['p99']:.0f} | {snap['mean']:.0f} |\n"
        )
    out.write("\n")
    return out.getvalue()


def _serving_section(
    config: MachineConfig,
    *,
    seed: int,
    workers: int = 1,
    cache=None,
    rates: Sequence[float] = (500.0, 2000.0),
    batch: str = "1_Data_Intensive",
    serving_scale: float = 0.1,
) -> str:
    """Open-loop latency under Poisson load (the serving layer's view).

    Unlike the figure sections this one runs at a fixed small trace
    scale: the point is the *relative* latency/attainment shape across
    policies and offered rates, and a fixed scale keeps report time
    bounded.  ``repro serve`` exposes the full parameter space.
    """
    from repro.analysis.serving import run_serving_sweep
    from repro.common.config import with_serving

    serving = config.serving if config.serving.enabled else None
    slo_ms = serving.slo_ms if serving else 2.0
    base = config if serving else with_serving(config, slo_ms=slo_ms)

    rows = run_serving_sweep(
        base,
        rates=rates,
        batch=batch,
        seed=seed,
        scale=serving_scale,
        workers=workers,
        cache=cache,
    )
    out = io.StringIO()
    out.write(f"## Open-loop serving latency ({batch}, seed {seed})\n\n")
    out.write(
        f"Poisson arrivals, trace scale {serving_scale}, SLO p99 <= "
        f"{slo_ms:g} ms.  Request latency is arrival to finish "
        "(queueing included); attainment counts drops against the SLO.\n\n"
    )
    for rate in sorted(rows):
        out.write(f"### {rate:g} req/s\n\n")
        out.write(
            "| policy | arrivals | completed | p50 | p95 | p99 | attainment | SLO |\n"
            "|---|---|---|---|---|---|---|---|\n"
        )
        for row in rows[rate]:
            fmt = lambda v: format_time_ns(v) if v is not None else "-"
            out.write(
                f"| {row.policy} | {row.arrivals} | {row.completed} | "
                f"{fmt(row.p50_ns)} | {fmt(row.p95_ns)} | {fmt(row.p99_ns)} | "
                f"{row.attainment:.3f} | {'met' if row.slo_met else 'MISS'} |\n"
            )
        out.write("\n")
    return out.getvalue()


def write_report(
    path: str | Path,
    config: Optional[MachineConfig] = None,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    scale: float = 1.0,
    workers: int = 1,
    cache=None,
) -> Path:
    """Generate the report and write it to *path*; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        generate_report(config, seeds=seeds, scale=scale, workers=workers, cache=cache),
        encoding="utf-8",
    )
    return path
