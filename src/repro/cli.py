"""Command-line interface.

Subcommands::

    repro run          one simulation (batch x policy x seed)
    repro trace        run instrumented; export a Perfetto-loadable trace
    repro stats        run instrumented; print the telemetry stats report
    repro ledger       run one cell; print the time-attribution ledger
    repro path         run one cell; print the causal critical-path report
    repro bench        wall-clock perf suite with baseline regression check
    repro figures      regenerate the paper's Figure 4 / Figure 5 series
    repro observation  the Section 2.2 motivation experiment
    repro crossover    sync-vs-async sweep over device latency
    repro tails        crossover shift under fault/tail-latency profiles
    repro adaptive     adaptive mode selection vs static policies
    repro cores        SMP core-count scaling per policy
    repro serve        open-loop serving: arrivals, latency SLOs, admission
    repro tiers        heterogeneous storage: per-tier adaptive mode selection
    repro workloads    list workloads and batches
    repro compare      diff two saved result files
    repro cache        result-cache statistics / clearing
    repro sweep        distributed grids: init / run / status / resume

``--policy`` accepts names case-insensitively (``--policy adaptive``
selects the ``Adaptive`` controller), as does ``--tiers``
(``--tiers ULL,NVMe`` works).  Every sim verb accepts
``--tiers``/``--placement`` to put the simulated machine on
heterogeneous storage (see docs/TIERING.md).

Grid-shaped commands (``figures``, ``crossover``, ``report``) accept
``--workers N`` (process-pool fan-out), ``--cache-dir`` and
``--no-cache`` — see docs/RUNNING.md for the full execution story,
including the ``repro sweep`` work-queue backend for multi-process /
multi-host grids.

Also usable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Optional, Sequence

from repro import __version__
from repro.analysis.charts import render_bar_chart
from repro.analysis.experiments import (
    DEFAULT_ADAPTIVE_PROFILES,
    DEFAULT_CORE_COUNTS,
    DEFAULT_STATIC_POLICIES,
    DEFAULT_TAIL_PROFILES,
    POLICY_FACTORIES,
    build_batch_policy,
    run_adaptive_comparison,
    run_batch_policy,
    run_core_scaling,
    run_figure4,
    run_figure5,
    run_observation,
    run_tail_sensitivity,
)
from repro.analysis.store import load_results, save_results
from repro.analysis.report import write_report
from repro.analysis.sweeps import find_crossover, sweep_device_latency
from repro.analysis.tables import render_result_summary, render_series_table
from repro.common.config import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    TIER_PLACEMENTS,
    MachineConfig,
    with_cores,
    with_serving,
)
from repro.common.errors import ConfigError, ReproError, TraceError
from repro.common.units import format_time_ns
from repro.faults.profiles import (
    FAULT_PROFILES,
    TAIL_MODELS,
    with_fault_profile,
    with_tail_model,
)
from repro.sim.batch import PAPER_BATCHES, batch_names
from repro.trace.workloads import EXTRA_WORKLOADS, WORKLOADS


def _machine_config(
    args: argparse.Namespace, *, apply_tiers: bool = True
) -> MachineConfig:
    config = MachineConfig.paper() if getattr(args, "paper", False) else MachineConfig()
    profile = getattr(args, "fault_profile", None)
    if profile:
        config = with_fault_profile(config, profile)
    tail_model = getattr(args, "tail_model", None)
    if tail_model:
        config = with_tail_model(config, tail_model)
    cores = getattr(args, "cores", None)
    if cores is not None:
        config = with_cores(config, cores)
    if apply_tiers:
        tiers = getattr(args, "tiers", None)
        placement = getattr(args, "placement", None)
        if tiers:
            from repro.tiering import with_tier_presets

            # hot_cold needs migration to ever populate the fast tier;
            # the sim verbs have no threshold flag, so default it on
            # (the tiers verb exposes --promote-threshold properly).
            overrides = {"promote_threshold": 4} if placement == "hot_cold" else {}
            config = with_tier_presets(
                config, tiers, placement=placement or "pid_hash", **overrides
            )
        elif placement:
            raise ConfigError("--placement requires --tiers")
    return config


def _core_count(text: str) -> int:
    """``--cores`` converter: a positive integer, rejected cleanly."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid core count {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"a machine needs at least one core, got {count}"
        )
    return count


def _positive_float(text: str) -> float:
    """Converter for flags that only make sense strictly positive
    (``--scale``, ``--rate``, ``--slo-ms``, ...): rejected with a clean
    one-line usage error instead of a downstream traceback."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value:g}")
    return value


def _positive_int(text: str) -> int:
    """Converter for strictly positive integer flags (``--workers``,
    ``--repeats``, ``--queue-cap``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from exc


_POLICY_BY_LOWER = {name.lower(): name for name in POLICY_FACTORIES}


def _policy_name(text: str) -> str:
    """Case-insensitive ``--policy`` converter (``adaptive`` -> ``Adaptive``)."""
    return _POLICY_BY_LOWER.get(text.lower(), text)


def _tier_list(text: str) -> tuple[str, ...]:
    """``--tiers`` converter: a comma-separated, case-insensitive list of
    tier preset names, canonicalised (``ULL,NVMe`` -> ``("ull", "nvme")``)
    and rejected with a clean one-line usage error when unknown."""
    from repro.tiering import get_tier_preset

    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of tier presets"
        )
    canonical = []
    for name in names:
        try:
            canonical.append(get_tier_preset(name).name)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return tuple(canonical)


def _non_negative_int(text: str) -> int:
    """Converter for integer flags where zero means "off"
    (``--promote-threshold``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """Converter for float flags where zero is meaningful
    (``--backoff-s``: 0 retries immediately)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value:g}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=_positive_float, default=1.0, help="trace length multiplier"
    )
    parser.add_argument(
        "--paper",
        action="store_true",
        help="use the full-scale Section 4.1 platform instead of the scaled default",
    )
    parser.add_argument(
        "--fault-profile",
        choices=sorted(FAULT_PROFILES),
        default=None,
        help="enable fault injection with a named profile (see docs/FAULTS.md)",
    )
    parser.add_argument(
        "--tail-model",
        choices=list(TAIL_MODELS),
        default=None,
        help="override the active fault profile's read-latency tail model",
    )
    parser.add_argument(
        "--cores",
        type=_core_count,
        default=None,
        help="simulate an SMP machine with this many cores (see docs/SMP.md)",
    )
    parser.add_argument(
        "--tiers",
        type=_tier_list,
        default=None,
        metavar="TIER[,TIER...]",
        help="back the machine with heterogeneous storage tiers "
        "(presets: ull, nvme, far_memory; see docs/TIERING.md)",
    )
    parser.add_argument(
        "--placement",
        choices=list(TIER_PLACEMENTS),
        default=None,
        help="page-placement policy across --tiers (default: pid_hash)",
    )


def _add_serving(parser: argparse.ArgumentParser, *, sweep: bool) -> None:
    """Serving-layer flags (``repro serve``; ``repro path --serve``).

    ``sweep=True`` makes ``--rate`` accept several offered loads (the
    serve verb sweeps them); ``sweep=False`` keeps it a single value.
    """
    parser.add_argument(
        "--arrival",
        choices=list(ARRIVAL_PROCESSES),
        default="poisson",
        help="arrival process (see docs/SERVING.md)",
    )
    if sweep:
        parser.add_argument(
            "--rate", type=_positive_float, nargs="+", default=[500.0, 2000.0, 4000.0],
            metavar="REQ_PER_S", help="offered load(s) in requests/second",
        )
    else:
        parser.add_argument(
            "--rate", type=_positive_float, default=2000.0,
            metavar="REQ_PER_S", help="offered load in requests/second",
        )
    parser.add_argument(
        "--slo-ms", type=_positive_float, default=2.0,
        help="latency SLO target in milliseconds (arrival to finish)",
    )
    parser.add_argument(
        "--slo-percentile", type=float, default=0.99,
        help="fraction of requests that must meet the target (0..1)",
    )
    parser.add_argument(
        "--duration", type=_positive_float, default=40.0,
        help="open-loop window in milliseconds of simulated time",
    )
    parser.add_argument(
        "--admission",
        choices=list(ADMISSION_POLICIES),
        default="admit_all",
        help="load-shedding hook applied at admission",
    )
    parser.add_argument(
        "--queue-cap", type=_positive_int, default=None,
        help="in-system request cap for drop/defer/demote admission",
    )
    parser.add_argument(
        "--arrival-trace", metavar="FILE", default=None,
        help="timestamp file for --arrival trace (ns; JSON array or one per line)",
    )


def _load_arrival_trace(path: str) -> tuple[int, ...]:
    """Read replayed arrival timestamps: a JSON array, or whitespace-
    separated integers (ns since window start)."""
    from pathlib import Path

    try:
        text = Path(path).read_text(encoding="utf-8").strip()
    except OSError as exc:
        raise ConfigError(f"cannot read arrival trace {path}: {exc}") from exc
    if not text:
        raise ConfigError(f"arrival trace {path} is empty")
    try:
        if text.startswith("["):
            values = json.loads(text)
        else:
            values = text.split()
        return tuple(int(v) for v in values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(
            f"arrival trace {path} must hold integer nanosecond timestamps: {exc}"
        ) from exc


def _serving_overrides(args: argparse.Namespace, *, rate: float) -> dict:
    """Cross-validate the serving flags and build ``with_serving``
    overrides (ConfigError -> one-line usage error via ``main``)."""
    if args.arrival == "trace" and not args.arrival_trace:
        raise ConfigError("--arrival trace requires --arrival-trace FILE")
    if args.arrival != "trace" and args.arrival_trace:
        raise ConfigError("--arrival-trace only applies with --arrival trace")
    overrides = dict(
        arrival=args.arrival,
        rate_per_s=rate,
        duration_ms=args.duration,
        slo_ms=args.slo_ms,
        slo_percentile=args.slo_percentile,
        admission=args.admission,
    )
    if args.queue_cap is not None:
        overrides["queue_cap"] = args.queue_cap
    if args.arrival_trace:
        overrides["arrivals_ns"] = _load_arrival_trace(args.arrival_trace)
    return overrides


def _add_exec(parser: argparse.ArgumentParser) -> None:
    """Sweep-execution flags shared by the grid-shaped commands."""
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="simulate cells on a process pool of this size (1 = in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-its)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache for this run",
    )


def _make_exec(args: argparse.Namespace):
    """Build the (cache, telemetry, progress) trio from the exec flags."""
    from repro.analysis.runner import ResultCache
    from repro.telemetry import Telemetry

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    telemetry = Telemetry()

    def progress(done: int, total: int, cell, cached: bool) -> None:
        tag = "cache" if cached else "ran"
        print(f"  [{done}/{total}] {cell.describe()} ({tag})", file=sys.stderr)

    return cache, telemetry, progress


def _print_exec_summary(args: argparse.Namespace, cache, telemetry) -> None:
    """One stderr line: cells run vs served from cache."""
    hits = telemetry.counter("runner.cache.hit").value
    misses = telemetry.counter("runner.cache.miss").value
    if cache is None:
        print(f"cells: {misses} simulated (cache disabled)", file=sys.stderr)
    else:
        print(
            f"cells: {hits} cache hits, {misses} simulated "
            f"(workers={args.workers}, cache {cache.root})",
            file=sys.stderr,
        )


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: simulate one (batch, policy, seed) cell."""
    from repro.telemetry import Telemetry, export_chrome_trace, export_events_csv

    config = _machine_config(args)
    # --events and --trace-out read the same handle.
    telemetry = Telemetry() if args.events or args.trace_out else None
    result = run_batch_policy(
        config,
        args.batch,
        args.policy,
        seed=args.seed,
        scale=args.scale,
        telemetry=telemetry,
    )
    print(render_result_summary(result))
    if args.save:
        save_results(args.save, [result])
        print(f"saved to {args.save}")
    if args.events:
        export_events_csv(telemetry, args.events)
        kinds = Counter(e.name for e in telemetry.tracer.of_track("events"))
        counts = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        print(
            f"event log ({sum(kinds.values())} events: {counts}) "
            f"written to {args.events}"
        )
    if args.trace_out:
        export_chrome_trace(telemetry, args.trace_out)
        print(
            f"trace ({len(telemetry.tracer)} spans) written to {args.trace_out} "
            "(open in ui.perfetto.dev or chrome://tracing)"
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: run one cell instrumented and export the trace."""
    from repro.telemetry import Telemetry, export_chrome_trace, export_jsonl

    config = _machine_config(args)
    telemetry = Telemetry()
    result = run_batch_policy(
        config,
        args.batch,
        args.policy,
        seed=args.seed,
        scale=args.scale,
        telemetry=telemetry,
    )
    print(render_result_summary(result))
    if args.format == "jsonl":
        export_jsonl(telemetry, args.out)
    else:
        export_chrome_trace(telemetry, args.out)
    dropped = telemetry.tracer.dropped
    note = f", {dropped} dropped" if dropped else ""
    print(f"trace ({len(telemetry.tracer)} spans{note}) written to {args.out}")
    if args.format == "chrome":
        print("open in ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: run one cell instrumented and print the report."""
    from repro.telemetry import Telemetry, render_stats_report

    config = _machine_config(args)
    telemetry = Telemetry()
    run_batch_policy(
        config,
        args.batch,
        args.policy,
        seed=args.seed,
        scale=args.scale,
        telemetry=telemetry,
    )
    title = f"{args.policy} on {args.batch} (seed {args.seed}, scale {args.scale})"
    print(render_stats_report(telemetry, title=title))
    return 0


def cmd_ledger(args: argparse.Namespace) -> int:
    """``repro ledger``: run one cell and print the machine's
    time-attribution ledger (docs/OBSERVABILITY.md).  No telemetry is
    attached, so the run takes its ordinary commit path."""
    config = _machine_config(args)
    sim = build_batch_policy(
        config, args.batch, args.policy, seed=args.seed, scale=args.scale
    )
    result = sim.run()
    ledger = sim.machine.ledger
    cores = config.cores.count
    title = f"{args.policy} on {args.batch} (seed {args.seed}, scale {args.scale})"
    print(f"time-attribution ledger: {title}")
    print(ledger.render(result.makespan_ns, cores))
    print(
        f"conservation: {ledger.total_ns():,} ns attributed == "
        f"{result.makespan_ns:,} ns makespan x {cores} core(s)"
    )
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    """``repro path``: run one cell with causal tracing and print the
    per-process critical-path report."""
    from repro.telemetry import Telemetry, render_path_report

    config = _machine_config(args)
    if args.serve:
        config = with_serving(config, **_serving_overrides(args, rate=args.rate))
    telemetry = Telemetry(causal=True)
    result = run_batch_policy(
        config,
        args.batch,
        args.policy,
        seed=args.seed,
        scale=args.scale,
        telemetry=telemetry,
    )
    graph = telemetry.causal
    assert graph is not None
    title = f"{args.policy} on {args.batch} (seed {args.seed}, scale {args.scale})"
    print(f"causal critical-path report: {title}")
    print(render_path_report(graph, result))
    if result.serving is not None:
        print()
        print(_render_deadline_misses(result.serving))
    return 0


def _render_deadline_misses(summary) -> str:
    """Classify each SLO deadline miss: shed at admission, queued (wait
    for a CPU dominated), or service (execution dominated)."""
    misses = [r for r in summary.requests if r.deadline_missed]
    lines = [
        f"deadline misses: {len(misses)} of {summary.arrivals} requests "
        f"(SLO {format_time_ns(summary.slo_target_ns)})"
    ]
    if not misses:
        return lines[0]

    def classify(r) -> str:
        if r.finish_ns is None:
            return "shed"
        return "queued" if (r.queue_wait_ns or 0) >= (r.service_ns or 0) else "service"

    census: dict[str, int] = {}
    for r in misses:
        census[classify(r)] = census.get(classify(r), 0) + 1
    lines.append(
        "  by cause: "
        + ", ".join(f"{k}={census[k]}" for k in ("shed", "queued", "service") if k in census)
        + "  (queued: waiting for a CPU; service: execution incl. faults)"
    )
    completed = [r for r in misses if r.finish_ns is not None]
    worst = sorted(completed, key=lambda r: r.latency_ns, reverse=True)[:10]
    if worst:
        lines.append("  worst completed misses (latency = queue wait + service):")
        for r in worst:
            lines.append(
                f"    rid={r.rid:<4d} {r.workload:<12s} [{classify(r):7s}] "
                f"latency={format_time_ns(r.latency_ns)} = "
                f"wait {format_time_ns(r.queue_wait_ns)} + "
                f"service {format_time_ns(r.service_ns)}"
                + (f"  ({r.deferrals} deferrals)" if r.deferrals else "")
            )
    return "\n".join(lines)


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: wall-clock perf suite with baseline regression
    check (docs/OBSERVABILITY.md)."""
    import datetime
    from pathlib import Path

    from repro.analysis.perf import (
        BASELINE_PATH,
        compare_bench,
        load_baseline,
        render_bench_report,
        run_bench,
        write_bench_json,
    )

    report = run_bench(
        repeats=args.repeats,
        scale=args.scale,
        progress=lambda line: print(line, file=sys.stderr),
    )
    baseline_path = Path(args.baseline) if args.baseline else BASELINE_PATH

    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(render_bench_report(report, None))
        print(f"baseline updated: {baseline_path}")
        return 0

    comparison = None
    if baseline_path.exists() or args.check:
        baseline = load_baseline(baseline_path)
        comparison = compare_bench(
            report,
            baseline,
            warn_threshold=args.threshold,
            hard_threshold=args.hard_threshold,
        )

    stamp = datetime.datetime.now().strftime("%Y%m%d_%H%M%S")
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = write_bench_json(report, out_dir, stamp=stamp)
    print(render_bench_report(report, comparison))
    print(f"bench report written to {written}")
    if comparison is not None and args.check:
        if comparison.failed:
            print(
                f"bench check FAILED ({', '.join(comparison.failed_names)}): "
                f"worst slowdown {comparison.worst_ratio:.2f}x "
                f"(hard-fail at {args.hard_threshold:.1f}x; new/missing "
                "cases also fail — refresh with --update-baseline)",
                file=sys.stderr,
            )
            return 1
        if comparison.warned:
            print(
                f"bench check: warnings only (worst {comparison.worst_ratio:.2f}x; "
                f"hard-fail at {args.hard_threshold:.1f}x)"
            )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """``repro figures``: regenerate the Figure 4 / 5 series."""
    config = _machine_config(args)
    wanted = args.figure

    def emit(key: str, series) -> None:
        shown = series.normalized_to("ITS") if args.normalize else series
        print(render_bar_chart(shown) if args.chart else render_series_table(shown))
        print()
        if args.save_csv:
            from pathlib import Path

            out_dir = Path(args.save_csv)
            out_dir.mkdir(parents=True, exist_ok=True)
            target = out_dir / f"fig{key}.csv"
            shown.to_csv(target)
            print(f"saved {target}")

    cache, telemetry, progress = _make_exec(args)
    exec_kwargs = dict(
        workers=args.workers, cache=cache, telemetry=telemetry, progress=progress
    )
    if wanted in ("4a", "4b", "4c", "all"):
        fig4 = run_figure4(config, seeds=args.seeds, scale=args.scale, **exec_kwargs)
        panels = {
            "4a": fig4.idle_time,
            "4b": fig4.page_faults,
            "4c": fig4.cache_misses,
        }
        for key, series in panels.items():
            if wanted in (key, "all"):
                emit(key, series)
    if wanted in ("5a", "5b", "all"):
        fig5 = run_figure5(config, seeds=args.seeds, scale=args.scale, **exec_kwargs)
        panels = {"5a": fig5.top_half, "5b": fig5.bottom_half}
        for key, series in panels.items():
            if wanted in (key, "all"):
                emit(key, series)
    _print_exec_summary(args, cache, telemetry)
    return 0


def cmd_observation(args: argparse.Namespace) -> int:
    """``repro observation``: the Section 2.2 experiment."""
    config = _machine_config(args)
    data = run_observation(
        config, process_counts=tuple(args.counts), scale=args.scale
    )
    print("Sec 2.2: CPU idle time under Sync vs number of processes")
    print("processes  idle          idle/makespan  normalized-to-first")
    for count, idle, frac, norm in zip(
        data.process_counts, data.idle_ns, data.idle_fraction, data.normalized_idle
    ):
        print(
            f"{count:9d}  {format_time_ns(idle):>12s}  {frac:13.1%}  {norm:19.2f}"
        )
    return 0


def cmd_crossover(args: argparse.Namespace) -> int:
    """``repro crossover``: Sync-vs-Async device-latency sweep."""
    config = _machine_config(args)
    cache, telemetry, progress = _make_exec(args)
    rows = sweep_device_latency(
        args.latencies,
        policies=("Sync", "Async"),
        batch=args.batch,
        seed=args.seed,
        scale=args.scale,
        base=config,
        workers=args.workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
    )
    _print_exec_summary(args, cache, telemetry)
    print("device latency sweep: Sync vs Async makespan")
    print(f"{'latency(us)':>11s}  {'Sync':>10s}  {'Async':>10s}  winner")
    for row in rows:
        print(
            f"{row.value:11g}  "
            f"{format_time_ns(row.results['Sync'].makespan_ns):>10s}  "
            f"{format_time_ns(row.results['Async'].makespan_ns):>10s}  "
            f"{row.winner_by_makespan()}"
        )
    crossover = find_crossover(rows, "Sync", "Async")
    if crossover is not None:
        print(f"crossover: Async takes over around {crossover:g} us")
    return 0


def cmd_tails(args: argparse.Namespace) -> int:
    """``repro tails``: tail-sensitivity sweep across fault profiles."""
    config = _machine_config(args)
    cache, telemetry, progress = _make_exec(args)
    rows = run_tail_sensitivity(
        config,
        profiles=tuple(args.profiles),
        latencies_us=args.latencies,
        batch=args.batch,
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
    )
    _print_exec_summary(args, cache, telemetry)
    print("tail sensitivity: Sync-vs-Async crossover under fault profiles")
    print(f"{'profile':>16s}  {'crossover(us)':>13s}  {'Sync wins':>9s}  of")
    for row in rows:
        cross = f"{row.crossover_us:g}" if row.crossover_us is not None else "none"
        print(
            f"{row.profile:>16s}  {cross:>13s}  {row.sync_wins:>9d}  {len(row.points)}"
        )
    baseline = next((r for r in rows if r.profile == "none"), None)
    if baseline is not None and baseline.crossover_us is not None:
        for row in rows:
            if row.profile == "none" or row.crossover_us is None:
                continue
            shift = row.crossover_us - baseline.crossover_us
            print(f"  {row.profile}: crossover shifts {shift:+g} us vs none")
    return 0


def cmd_adaptive(args: argparse.Namespace) -> int:
    """``repro adaptive``: adaptive controller vs static policies."""
    config = _machine_config(args)
    cache, telemetry, progress = _make_exec(args)
    rows = run_adaptive_comparison(
        config,
        profiles=tuple(args.profiles),
        latencies_us=args.latencies,
        static_policies=tuple(args.static_policies),
        batch=args.batch,
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
    )
    _print_exec_summary(args, cache, telemetry)
    policies = tuple(args.static_policies) + ("Adaptive",)
    print("adaptive I/O-mode selection vs static policies (makespan)")
    header = f"{'profile':>16s} {'lat(us)':>8s}"
    for name in policies:
        header += f"  {name:>10s}"
    header += "  best-static  gap"
    print(header)
    for row in rows:
        line = f"{row.profile:>16s} {row.latency_us:>8g}"
        for name in policies:
            line += f"  {format_time_ns(row.makespan_ns[name]):>10s}"
        line += f"  {row.best_static:>11s}  {row.adaptive_gap:+.1%}"
        print(line)
    worst = max(rows, key=lambda r: r.adaptive_gap)
    print(
        f"worst adaptive gap: {worst.adaptive_gap:+.1%} vs {worst.best_static} "
        f"({worst.profile} @ {worst.latency_us:g} us)"
    )
    return 0


def cmd_cores(args: argparse.Namespace) -> int:
    """``repro cores``: SMP core-count scaling per policy."""
    config = _machine_config(args)
    cache, telemetry, progress = _make_exec(args)
    rows = run_core_scaling(
        config,
        core_counts=tuple(args.counts),
        policies=tuple(args.policies),
        batch=args.batch,
        profile=None,  # _machine_config already applied --fault-profile
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
    )
    _print_exec_summary(args, cache, telemetry)
    policies = tuple(args.policies)
    print("SMP core scaling (makespan, speedup vs 1 core)")
    header = f"{'cores':>5s}"
    for name in policies:
        header += f"  {name:>10s} {'speedup':>8s}"
    print(header)
    for row in rows:
        line = f"{row.cores:>5d}"
        for name in policies:
            line += (
                f"  {format_time_ns(row.makespan_ns[name]):>10s}"
                f" {row.speedup[name]:>7.2f}x"
            )
        print(line)
    multi = [r for r in rows if r.cores > 1]
    if multi:
        best_row = max(multi, key=lambda r: max(r.speedup.values()))
        best_policy = max(best_row.speedup, key=best_row.speedup.__getitem__)
        print(
            f"best speedup: {best_row.speedup[best_policy]:.2f}x "
            f"({best_policy} @ {best_row.cores} cores)"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: open-loop serving sweep — latency percentiles
    and SLO attainment per (policy, offered rate)."""
    from repro.analysis.serving import run_serving_sweep, serving_headline
    from repro.analysis.tables import render_serving_table

    config = _machine_config(args)
    rates = tuple(dict.fromkeys(args.rate))
    overrides = _serving_overrides(args, rate=rates[0])
    if args.arrival == "trace" and len(rates) > 1:
        print(
            "note: --arrival trace replays fixed timestamps; "
            "sweeping --rate has no effect, using one point",
            file=sys.stderr,
        )
        rates = rates[:1]
    base = with_serving(config, **overrides)
    cache, telemetry, progress = _make_exec(args)
    rows = run_serving_sweep(
        base,
        rates=rates,
        policies=tuple(args.policies),
        batch=args.batch,
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
    )
    _print_exec_summary(args, cache, telemetry)
    print(
        f"open-loop serving: {args.arrival} arrivals, "
        f"SLO p{args.slo_percentile * 100:g} <= {args.slo_ms:g} ms, "
        f"window {args.duration:g} ms "
        f"({args.batch}, seed {args.seed}, scale {args.scale:g}, "
        f"admission {args.admission})"
    )
    print()
    print(render_serving_table(rows))
    head = serving_headline(rows)
    if head is not None:
        heaviest = max(rows)
        if head.slo_met:
            print(
                f"\nheadline: {head.policy} holds the SLO at {heaviest:g} req/s "
                f"(p99 {format_time_ns(head.p99_ns)})"
            )
        else:
            print(
                f"\nheadline: no policy meets the SLO at {heaviest:g} req/s; "
                f"{head.policy} attains most ({head.attainment:.1%})"
            )
    return 0


def cmd_tiers(args: argparse.Namespace) -> int:
    """``repro tiers``: heterogeneous-storage sweep — the adaptive
    controller's per-device decision mix under each placement policy."""
    from repro.analysis.tiering import (
        DEFAULT_TIER_NAMES,
        format_tier_table,
        run_tier_sweep,
    )

    config = _machine_config(args, apply_tiers=False)
    tiers = args.tiers or DEFAULT_TIER_NAMES
    placements = (args.placement,) if args.placement else tuple(TIER_PLACEMENTS)
    cache, telemetry, progress = _make_exec(args)
    rows = run_tier_sweep(
        config,
        tiers=tiers,
        placements=placements,
        batch=args.batch,
        seed=args.seed,
        scale=args.scale,
        promote_threshold=args.promote_threshold,
        demote_watermark=args.demote_watermark,
        workers=args.workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
    )
    _print_exec_summary(args, cache, telemetry)
    print(
        f"tiered storage: adaptive I/O-mode selection per backing device "
        f"({args.batch}, seed {args.seed}, scale {args.scale:g}, "
        f"tiers {','.join(tiers)})"
    )
    print()
    table = format_tier_table(rows)
    print(table)
    lead = [row for row in rows if row.placement == placements[0]]
    parts = []
    for row in lead:
        if row.sync_steal_fraction >= row.async_fraction:
            parts.append(f"{row.tier} -> sync/steal ({row.sync_steal_fraction:.1%})")
        else:
            parts.append(f"{row.tier} -> async ({row.async_fraction:.1%})")
    if parts:
        print(f"\nheadline ({placements[0]}): " + ", ".join(parts))
    if args.save:
        from pathlib import Path

        Path(args.save).write_text(table + "\n", encoding="utf-8")
        print(f"table saved to {args.save}")
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    """``repro workloads``: list workloads, batches and policies."""
    print("workloads:")
    for spec in WORKLOADS.values():
        tag = "data-intensive" if spec.data_intensive else "general-purpose"
        print(f"  {spec.name:<13s} {tag:<15s} {spec.description}")
    for spec in EXTRA_WORKLOADS.values():
        tag = "data-intensive" if spec.data_intensive else "general-purpose"
        print(f"  {spec.name:<13s} {tag:<15s} {spec.description} [extension]")
    print()
    print("batches:")
    for name in batch_names():
        spec = PAPER_BATCHES[name]
        print(f"  {name:<18s} {', '.join(spec.workloads)}")
    print()
    print(f"policies: {', '.join(POLICY_FACTORIES)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: write the full reproduction report."""
    config = _machine_config(args)
    cache = None
    if not args.no_cache:
        from repro.analysis.runner import ResultCache

        cache = ResultCache(args.cache_dir)
    path = write_report(
        args.out,
        config,
        seeds=args.seeds,
        scale=args.scale,
        workers=args.workers,
        cache=cache,
    )
    print(f"report written to {path}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache``: stats for / clearing of the result cache."""
    from repro.analysis.runner import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        print(cache.stats().render())
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
    return 0


def _sweep_options(args: argparse.Namespace):
    """Build :class:`~repro.analysis.worker.QueueOptions` from the
    ``sweep run`` / ``sweep resume`` flags."""
    from repro.analysis.worker import QueueOptions

    return QueueOptions(
        lease_s=args.lease_s,
        max_retries=args.max_retries,
        backoff_s=args.backoff_s,
        poll_s=args.poll_s,
        max_cells=getattr(args, "max_cells", None),
        worker_id=getattr(args, "worker_id", None),
    )


def _sweep_spawn_workers(args: argparse.Namespace, count: int) -> int:
    """Launch *count* single-worker ``repro sweep run`` subprocesses
    against the same manifest and wait for all of them; returns the
    worst child exit code."""
    import os
    import subprocess
    from pathlib import Path

    import repro

    argv = [
        sys.executable, "-m", "repro", "sweep", "run",
        "--manifest", args.manifest,
        "--workers", "1",
        "--lease-s", str(args.lease_s),
        "--max-retries", str(args.max_retries),
        "--backoff-s", str(args.backoff_s),
        "--poll-s", str(args.poll_s),
    ]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if getattr(args, "max_cells", None) is not None:
        argv += ["--max-cells", str(args.max_cells)]
    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    procs = [subprocess.Popen(argv, env=env) for _ in range(count)]
    print(
        f"launched {count} workers (pids {', '.join(str(p.pid) for p in procs)})",
        file=sys.stderr,
    )
    return max(proc.wait() for proc in procs)


def _render_sweep_summary(summary, telemetry) -> str:
    """One stderr line describing what a worker pass actually did."""
    hits = telemetry.counter("runner.cache.hit").value
    return (
        f"worker {summary.worker_id}: {summary.executed} executed, "
        f"{summary.reclaimed} stale reclaimed, {summary.retries} retries, "
        f"{summary.failed} failed, {hits} cache hits"
    )


def cmd_sweep_init(args: argparse.Namespace) -> int:
    """``repro sweep init``: build and save a cell-grid manifest."""
    from itertools import product
    from pathlib import Path

    from repro.analysis.manifest import SweepManifest
    from repro.analysis.runner import ResultCache, SweepCell

    config = _machine_config(args)
    cells = [
        SweepCell(config=config, batch=batch, policy=policy, seed=seed, scale=args.scale)
        for batch, policy, seed in product(args.batches, args.policies, args.seeds)
    ]
    cache = ResultCache(args.cache_dir)
    manifest = SweepManifest(
        name=args.name or Path(args.manifest).stem,
        cache_dir=str(cache.root),
        cells=cells,
    )
    path = manifest.save(args.manifest)
    print(
        f"manifest {manifest.name!r}: {len(manifest)} cells "
        f"({len(args.batches)} batches x {len(args.policies)} policies x "
        f"{len(args.seeds)} seeds, scale {args.scale:g})"
    )
    print(f"cache: {cache.root}")
    print(f"written to {path}")
    return 0


def cmd_sweep_run(args: argparse.Namespace) -> int:
    """``repro sweep run``: work a manifest until drained (one worker
    in-process, or ``--workers N`` real subprocesses)."""
    from repro.analysis.manifest import SweepManifest
    from repro.analysis.worker import run_manifest_worker
    from repro.telemetry import Telemetry

    manifest = SweepManifest.load(args.manifest)
    if args.workers > 1:
        code = _sweep_spawn_workers(args, args.workers)
        cache = manifest.resolve_cache(args.cache_dir)
        print(_sweep_status_text(manifest, cache, args.lease_s))
        return code
    telemetry = Telemetry()
    summary = run_manifest_worker(
        manifest,
        cache=manifest.resolve_cache(args.cache_dir),
        options=_sweep_options(args),
        telemetry=telemetry,
        log=lambda line: print(line, file=sys.stderr),
    )
    print(_render_sweep_summary(summary, telemetry), file=sys.stderr)
    assert summary.progress is not None
    print(summary.progress.render())
    return 1 if summary.progress.failed else 0


def _sweep_status_text(manifest, cache, lease_s: float) -> str:
    """The ``sweep status`` report: progress, cache occupancy, claims,
    and failure records for one manifest."""
    from repro.analysis.claims import ClaimStore
    from repro.analysis.manifest import FailureLog, scan_progress

    claims = ClaimStore(manifest.claims_root(cache), lease_s=lease_s)
    failures = FailureLog(manifest.failures_root(cache))
    progress = scan_progress(manifest, cache, claims, failures)
    lines = [progress.render()]
    stats = cache.stats()
    lines.append(
        f"cache: {progress.done}/{progress.total} manifest cells cached "
        f"({stats.entries} entries total in {cache.root})"
    )
    live = [c for c in claims.claims() if c.key in set(manifest.keys)]
    for claim in live:
        state = "STALE" if claim.stale else "live"
        lines.append(
            f"claim [{state}] {claim.key[:12]}... held by {claim.worker} "
            f"(age {claim.age_s:.1f}s, lease {lease_s:g}s)"
        )
    failed_keys = failures.keys() & set(manifest.keys)
    for key in sorted(failed_keys):
        record = failures.get(key) or {}
        lines.append(
            f"failed {key[:12]}... {record.get('cell', '?')} "
            f"after {record.get('attempts', '?')} attempts: "
            f"{record.get('error', '?')}"
        )
    return "\n".join(lines)


def cmd_sweep_status(args: argparse.Namespace) -> int:
    """``repro sweep status``: render manifest progress, cache
    occupancy, live/stale claims, and failure records."""
    from repro.analysis.manifest import SweepManifest

    manifest = SweepManifest.load(args.manifest)
    cache = manifest.resolve_cache(args.cache_dir)
    print(_sweep_status_text(manifest, cache, args.lease_s))
    return 0


def cmd_sweep_resume(args: argparse.Namespace) -> int:
    """``repro sweep resume``: clear failure records, reclaim stale
    claims, and run the grid to completion."""
    from repro.analysis.manifest import FailureLog, SweepManifest

    manifest = SweepManifest.load(args.manifest)
    cache = manifest.resolve_cache(args.cache_dir)
    failures = FailureLog(manifest.failures_root(cache))
    cleared = failures.clear(manifest.keys)
    if cleared:
        print(f"cleared {cleared} failure records for retry", file=sys.stderr)
    return cmd_sweep_run(args)


def cmd_trace_stats(args: argparse.Namespace) -> int:
    """``repro trace-stats``: summarise a trace or lackey capture."""
    from pathlib import Path

    from repro.trace.lackey import parse_lackey
    from repro.trace.record import summarize
    from repro.trace.tracefile import load_trace

    path = Path(args.path)
    if args.lackey:
        try:
            with path.open("r", encoding="utf-8") as f:
                trace = parse_lackey(f, max_instructions=args.max_instructions)
        except (OSError, UnicodeDecodeError) as exc:
            raise TraceError(f"cannot read lackey trace {path}: {exc}") from exc
    else:
        trace = load_trace(path)
        if args.max_instructions is not None:
            trace = trace[: args.max_instructions]
    summary = summarize(trace)
    print(f"trace: {path}")
    print(f"  instructions    {summary.instructions}")
    print(f"  loads           {summary.loads}")
    print(f"  stores          {summary.stores}")
    print(f"  computes        {summary.computes}")
    print(f"  branches        {summary.branches}")
    print(f"  memory ratio    {summary.memory_ratio:.1%}")
    print(f"  footprint pages {summary.footprint_pages}")
    print(f"  unique lines    {summary.unique_lines}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: diff two saved result files."""
    left = load_results(args.left)
    right = load_results(args.right)
    if len(left) != 1 or len(right) != 1:
        print("compare expects files holding exactly one result each", file=sys.stderr)
        return 2
    a, b = left[0], right[0]
    print(f"{'metric':24s} {a.policy + '/' + a.batch:>20s} {b.policy + '/' + b.batch:>20s}")
    rows = [
        ("makespan", a.makespan_ns, b.makespan_ns, True),
        ("total idle", a.total_idle_ns, b.total_idle_ns, True),
        ("major faults", a.major_faults, b.major_faults, False),
        ("minor faults", a.minor_faults, b.minor_faults, False),
        ("cache misses", a.demand_cache_misses, b.demand_cache_misses, False),
        ("context switches", a.context_switches, b.context_switches, False),
    ]
    for name, va, vb, is_time in rows:
        fa = format_time_ns(va) if is_time else str(va)
        fb = format_time_ns(vb) if is_time else str(vb)
        print(f"{name:24s} {fa:>20s} {fb:>20s}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ITS (Idle-Time-Stealing) trace-based simulator — DAC 2024 reproduction",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("--batch", choices=batch_names(), default="1_Data_Intensive")
    run_p.add_argument("--policy", type=_policy_name, choices=list(POLICY_FACTORIES), default="ITS")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--save", help="write the result to a JSON file")
    run_p.add_argument("--events", help="write a CSV event log of the run")
    run_p.add_argument(
        "--trace-out", help="also capture telemetry and write a Chrome/Perfetto trace"
    )
    _add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    trace_p = sub.add_parser("trace", help="run instrumented and export a trace")
    trace_p.add_argument("--batch", choices=batch_names(), default="1_Data_Intensive")
    trace_p.add_argument("--policy", type=_policy_name, choices=list(POLICY_FACTORIES), default="ITS")
    trace_p.add_argument("--seed", type=int, default=1)
    trace_p.add_argument("--out", default="repro.trace.json", help="trace output path")
    trace_p.add_argument(
        "--format",
        choices=["chrome", "jsonl"],
        default="chrome",
        help="chrome: Perfetto-loadable JSON; jsonl: one span per line",
    )
    _add_common(trace_p)
    trace_p.set_defaults(func=cmd_trace)

    stats_p2 = sub.add_parser(
        "stats", help="run instrumented and print the telemetry report"
    )
    stats_p2.add_argument("--batch", choices=batch_names(), default="1_Data_Intensive")
    stats_p2.add_argument("--policy", type=_policy_name, choices=list(POLICY_FACTORIES), default="ITS")
    stats_p2.add_argument("--seed", type=int, default=1)
    _add_common(stats_p2)
    stats_p2.set_defaults(func=cmd_stats)

    ledger_p = sub.add_parser(
        "ledger", help="run one cell and print the time-attribution ledger"
    )
    ledger_p.add_argument("--batch", choices=batch_names(), default="1_Data_Intensive")
    ledger_p.add_argument("--policy", type=_policy_name, choices=list(POLICY_FACTORIES), default="ITS")
    ledger_p.add_argument("--seed", type=int, default=1)
    _add_common(ledger_p)
    ledger_p.set_defaults(func=cmd_ledger)

    path_p = sub.add_parser(
        "path", help="run one cell and print the causal critical-path report"
    )
    path_p.add_argument("--batch", choices=batch_names(), default="1_Data_Intensive")
    path_p.add_argument("--policy", type=_policy_name, choices=list(POLICY_FACTORIES), default="ITS")
    path_p.add_argument("--seed", type=int, default=1)
    path_p.add_argument(
        "--serve",
        action="store_true",
        help="run open-loop and classify SLO deadline misses (queued vs service)",
    )
    _add_serving(path_p, sweep=False)
    _add_common(path_p)
    path_p.set_defaults(func=cmd_path)

    bench_p = sub.add_parser(
        "bench", help="wall-clock perf suite with baseline regression check"
    )
    bench_p.add_argument(
        "--repeats", type=_positive_int, default=3, help="timings per case (min is kept)"
    )
    bench_p.add_argument(
        "--scale", type=_positive_float, default=0.1, help="trace length multiplier"
    )
    bench_p.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON to compare against (default: benchmarks/baseline_bench.json)",
    )
    bench_p.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="warn when a case is this many times slower than baseline",
    )
    bench_p.add_argument(
        "--hard-threshold",
        type=float,
        default=2.0,
        help="with --check, exit non-zero at this slowdown",
    )
    bench_p.add_argument(
        "--check",
        action="store_true",
        help="compare against the baseline and fail on a hard regression",
    )
    bench_p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the committed baseline from this run",
    )
    bench_p.add_argument(
        "--out", default=None, help="directory for BENCH_<stamp>.json (default: .)"
    )
    bench_p.set_defaults(func=cmd_bench)

    fig_p = sub.add_parser("figures", help="regenerate paper figures")
    fig_p.add_argument(
        "--figure", choices=["4a", "4b", "4c", "5a", "5b", "all"], default="all"
    )
    fig_p.add_argument("--seeds", type=_parse_seeds, default=(1, 2, 3))
    fig_p.add_argument("--normalize", action="store_true", help="normalise to ITS")
    fig_p.add_argument("--chart", action="store_true", help="ASCII bars instead of a table")
    fig_p.add_argument("--save-csv", help="also write each panel as CSV into this directory")
    _add_common(fig_p)
    _add_exec(fig_p)
    fig_p.set_defaults(func=cmd_figures)

    obs_p = sub.add_parser("observation", help="Section 2.2 experiment")
    obs_p.add_argument("--counts", type=int, nargs="+", default=[2, 3, 4, 5])
    _add_common(obs_p)
    obs_p.set_defaults(func=cmd_observation)

    cross_p = sub.add_parser("crossover", help="sync-vs-async latency sweep")
    cross_p.add_argument(
        "--latencies", type=_positive_float, nargs="+", default=[1, 3, 7, 15, 30, 60, 100],
        help="device latencies in microseconds",
    )
    cross_p.add_argument("--batch", choices=batch_names(), default="1_Data_Intensive")
    cross_p.add_argument("--seed", type=int, default=1)
    _add_common(cross_p)
    _add_exec(cross_p)
    cross_p.set_defaults(func=cmd_crossover)

    tails_p = sub.add_parser(
        "tails", help="crossover shift under fault/tail-latency profiles"
    )
    tails_p.add_argument(
        "--latencies", type=_positive_float, nargs="+", default=[1, 3, 7, 15, 30, 60, 100],
        help="device latencies in microseconds",
    )
    tails_p.add_argument(
        "--profiles", nargs="+", choices=sorted(FAULT_PROFILES),
        default=list(DEFAULT_TAIL_PROFILES),
        help="fault profiles to compare (always include 'none' for the baseline)",
    )
    tails_p.add_argument("--batch", choices=batch_names(), default="1_Data_Intensive")
    tails_p.add_argument("--seed", type=int, default=1)
    _add_common(tails_p)
    _add_exec(tails_p)
    tails_p.set_defaults(func=cmd_tails)

    adapt_p = sub.add_parser(
        "adaptive", help="adaptive mode selection vs static policies"
    )
    adapt_p.add_argument(
        "--latencies", type=_positive_float, nargs="+", default=[1, 3, 7, 15, 30, 60, 100],
        help="device latencies in microseconds",
    )
    adapt_p.add_argument(
        "--profiles", nargs="+", choices=sorted(FAULT_PROFILES),
        default=list(DEFAULT_ADAPTIVE_PROFILES),
        help="fault profiles to sweep under",
    )
    adapt_p.add_argument(
        "--static-policies", nargs="+", type=_policy_name,
        choices=[p for p in POLICY_FACTORIES if p != "Adaptive"],
        default=list(DEFAULT_STATIC_POLICIES),
        help="fixed-mode policies the controller is measured against",
    )
    adapt_p.add_argument("--batch", choices=batch_names(), default="1_Data_Intensive")
    adapt_p.add_argument("--seed", type=int, default=1)
    _add_common(adapt_p)
    _add_exec(adapt_p)
    adapt_p.set_defaults(func=cmd_adaptive)

    cores_p = sub.add_parser("cores", help="SMP core-count scaling per policy")
    cores_p.add_argument(
        "--counts", type=_core_count, nargs="+", default=list(DEFAULT_CORE_COUNTS),
        help="core counts to sweep (must include 1, the speedup baseline)",
    )
    cores_p.add_argument(
        "--policies", nargs="+", type=_policy_name,
        choices=list(POLICY_FACTORIES),
        default=["Sync", "Async", "ITS"],
        help="policies to scale across cores",
    )
    cores_p.add_argument("--batch", choices=batch_names(), default="1_Data_Intensive")
    cores_p.add_argument("--seed", type=int, default=1)
    _add_common(cores_p)
    _add_exec(cores_p)
    cores_p.set_defaults(func=cmd_cores)

    serve_p = sub.add_parser(
        "serve", help="open-loop serving: arrivals, latency SLOs, admission"
    )
    serve_p.add_argument("--batch", choices=batch_names(), default="1_Data_Intensive")
    serve_p.add_argument(
        "--policies", nargs="+", type=_policy_name,
        choices=list(POLICY_FACTORIES),
        default=list(POLICY_FACTORIES),
        help="policies to serve under (default: all, incl. Adaptive)",
    )
    serve_p.add_argument("--seed", type=int, default=1)
    _add_serving(serve_p, sweep=True)
    _add_common(serve_p)
    _add_exec(serve_p)
    serve_p.set_defaults(func=cmd_serve, scale=0.1)

    tiers_p = sub.add_parser(
        "tiers", help="heterogeneous storage: per-tier adaptive mode selection"
    )
    tiers_p.add_argument("--batch", choices=batch_names(), default="2_Data_Intensive")
    tiers_p.add_argument("--seed", type=int, default=1)
    tiers_p.add_argument(
        "--promote-threshold", type=_non_negative_int, default=0,
        help="promote a page after this many faults on a slower tier "
        "(0 disables migration; hot_cold defaults to 4)",
    )
    tiers_p.add_argument(
        "--demote-watermark", type=_positive_float, default=1.0,
        help="occupancy fraction above which promotion demotes a cold victim",
    )
    tiers_p.add_argument(
        "--save", metavar="FILE", default=None,
        help="also write the table to FILE (CI artifact)",
    )
    _add_common(tiers_p)
    _add_exec(tiers_p)
    tiers_p.set_defaults(func=cmd_tiers, scale=0.2)

    wl_p = sub.add_parser("workloads", help="list workloads, batches, policies")
    wl_p.set_defaults(func=cmd_workloads)

    report_p = sub.add_parser("report", help="write a full reproduction report")
    report_p.add_argument("--out", default="REPORT.md", help="output Markdown path")
    report_p.add_argument("--seeds", type=_parse_seeds, default=(1, 2, 3))
    _add_common(report_p)
    _add_exec(report_p)
    report_p.set_defaults(func=cmd_report)

    cache_p = sub.add_parser("cache", help="result-cache stats / clear")
    cache_p.add_argument("action", choices=["stats", "clear"])
    cache_p.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-its)",
    )
    cache_p.set_defaults(func=cmd_cache)

    sweep_p = sub.add_parser(
        "sweep", help="distributed cell grids: init / run / status / resume"
    )
    sweep_sub = sweep_p.add_subparsers(dest="sweep_command", required=True)

    def _add_sweep_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--manifest", default="sweep_manifest.json",
            help="manifest JSON path (written by 'sweep init')",
        )
        p.add_argument(
            "--cache-dir", default=None,
            help="override the cache directory recorded in the manifest",
        )
        p.add_argument(
            "--lease-s", type=_positive_float, default=30.0,
            help="heartbeat silence after which a worker's claim is stale",
        )

    def _add_sweep_worker(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=_positive_int, default=1,
            help="worker subprocesses to launch (1 = work in-process)",
        )
        p.add_argument(
            "--max-retries", type=_non_negative_int, default=2,
            help="re-executions after a cell's first failure",
        )
        p.add_argument(
            "--backoff-s", type=_non_negative_float, default=0.25,
            help="first retry delay; doubles per attempt",
        )
        p.add_argument(
            "--poll-s", type=_positive_float, default=0.5,
            help="idle wait between scans while peers hold live claims",
        )
        p.add_argument(
            "--max-cells", type=_positive_int, default=None,
            help="stop this worker after executing this many cells",
        )
        p.add_argument(
            "--worker-id", default=None,
            help="claim-file identity (default: host-pid-nonce)",
        )

    sweep_init_p = sweep_sub.add_parser(
        "init", help="build and save a cell-grid manifest"
    )
    sweep_init_p.add_argument(
        "--name", default=None, help="sweep name (default: manifest file stem)"
    )
    sweep_init_p.add_argument(
        "--batches", nargs="+", choices=batch_names(),
        default=["1_Data_Intensive"], help="batches in the grid",
    )
    sweep_init_p.add_argument(
        "--policies", nargs="+", type=_policy_name,
        choices=list(POLICY_FACTORIES),
        default=["Sync", "Async", "ITS"], help="policies in the grid",
    )
    sweep_init_p.add_argument(
        "--seeds", type=_parse_seeds, default=(1, 2, 3),
        help="comma-separated seeds in the grid",
    )
    sweep_init_p.add_argument(
        "--manifest", default="sweep_manifest.json",
        help="manifest JSON path to write",
    )
    sweep_init_p.add_argument(
        "--cache-dir", default=None,
        help="cache directory recorded in the manifest "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-its)",
    )
    _add_common(sweep_init_p)
    sweep_init_p.set_defaults(func=cmd_sweep_init)

    sweep_run_p = sweep_sub.add_parser(
        "run", help="launch a worker (or N subprocesses) against a manifest"
    )
    _add_sweep_shared(sweep_run_p)
    _add_sweep_worker(sweep_run_p)
    sweep_run_p.set_defaults(func=cmd_sweep_run)

    sweep_status_p = sweep_sub.add_parser(
        "status", help="render manifest progress, claims, and failures"
    )
    _add_sweep_shared(sweep_status_p)
    sweep_status_p.set_defaults(func=cmd_sweep_status)

    sweep_resume_p = sweep_sub.add_parser(
        "resume", help="clear failure records and run the grid to completion"
    )
    _add_sweep_shared(sweep_resume_p)
    _add_sweep_worker(sweep_resume_p)
    sweep_resume_p.set_defaults(func=cmd_sweep_resume)

    stats_p = sub.add_parser("trace-stats", help="summarise a trace file")
    stats_p.add_argument("path", help="trace file (or lackey capture with --lackey)")
    stats_p.add_argument(
        "--lackey", action="store_true", help="parse as Valgrind lackey output"
    )
    stats_p.add_argument(
        "--max-instructions", type=int, default=None, help="replay-prefix bound"
    )
    stats_p.set_defaults(func=cmd_trace_stats)

    cmp_p = sub.add_parser("compare", help="diff two saved results")
    cmp_p.add_argument("left")
    cmp_p.add_argument("right")
    cmp_p.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
