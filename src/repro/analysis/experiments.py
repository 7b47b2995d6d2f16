"""Experiment runners: one per paper artefact.

Every runner is deterministic in its ``seeds`` argument and averages
across them, since the paper's priority assignment is random and single
assignments can flip which process is the makespan laggard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.adaptive import AdaptivePolicy
from repro.analysis.results import (
    FigureSeries,
    MetricKind,
    average_results,
)
from repro.baselines import (
    AsyncIOPolicy,
    IOPolicy,
    SyncIOPolicy,
    SyncPrefetchPolicy,
    SyncRunaheadPolicy,
)
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRNG
from repro.core import ITSPolicy
from repro.sim.batch import batch_names, build_batch
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import Simulation, WorkloadInstance
from repro.trace.workloads import build_workload

POLICY_FACTORIES: dict[str, Callable[[], IOPolicy]] = {
    "Async": AsyncIOPolicy,
    "Sync": SyncIOPolicy,
    "Sync_Runahead": SyncRunaheadPolicy,
    "Sync_Prefetch": SyncPrefetchPolicy,
    "ITS": ITSPolicy,
    "Adaptive": AdaptivePolicy,
}
"""Every runnable policy: the paper's five designs in legend order, plus
the adaptive I/O-mode controller (:mod:`repro.adaptive`)."""

PAPER_POLICIES = ("Async", "Sync", "Sync_Runahead", "Sync_Prefetch", "ITS")
"""The five designs the paper evaluates, in legend order.  The figure
runners default to these so regenerated figures match the paper; pass
``policies=tuple(POLICY_FACTORIES)`` to overlay Adaptive as well."""

DEFAULT_SEEDS = (1, 2, 3)
"""Priority-assignment seeds averaged by default."""


def build_batch_policy(
    config: MachineConfig,
    batch_name: str,
    policy_name: str,
    *,
    seed: int = 1,
    scale: float = 1.0,
    cores: Optional[int] = None,
    telemetry=None,
) -> Simulation:
    """Build (but do not run) one (batch, policy, seed) cell.

    Pass a :class:`~repro.telemetry.Telemetry` handle as *telemetry* to
    collect events, spans and metrics from the run.  ``cores``
    overrides the config's SMP core count.  The returned
    :class:`~repro.sim.simulator.Simulation` keeps its machine, so a
    caller can read ``sim.machine.ledger`` after ``sim.run()``.
    """
    import dataclasses

    factory = POLICY_FACTORIES.get(policy_name)
    if factory is None:
        raise ConfigError(
            f"unknown policy {policy_name!r}; known: {', '.join(POLICY_FACTORIES)}"
        )
    if cores is not None:
        config = dataclasses.replace(
            config, cores=dataclasses.replace(config.cores, count=cores)
        )
    requests = None
    if config.serving.enabled:
        # Open-loop serving cell: the batch is a workload *mix* that
        # requests draw from, not a fixed six-process roster.
        from repro.serving.schedule import build_request_load

        workloads, requests = build_request_load(
            config, batch_name, seed=seed, scale=scale
        )
    else:
        workloads = build_batch(batch_name, seed=seed, scale=scale, config=config)
    return Simulation(
        config,
        workloads,
        factory(),
        batch_name=batch_name,
        telemetry=telemetry,
        requests=requests,
    )


def run_batch_policy(
    config: MachineConfig, batch_name: str, policy_name: str, **options
) -> SimulationResult:
    """Run one (batch, policy, seed) cell and return its raw result
    (keyword options as for :func:`build_batch_policy`)."""
    return build_batch_policy(config, batch_name, policy_name, **options).run()


def _run_grid(
    config: MachineConfig,
    seeds: Sequence[int],
    scale: float,
    policies: Sequence[str],
    batches: Sequence[str],
    *,
    workers: int = 1,
    cache=None,
    telemetry=None,
    progress=None,
    executor=None,
) -> dict[str, dict[str, list[SimulationResult]]]:
    """results[batch][policy] = list of per-seed results.

    Delegates to :func:`repro.analysis.runner.run_grid`, so the figure
    grids inherit process-pool parallelism and the content-addressed
    result cache.
    """
    from repro.analysis.runner import run_grid

    return run_grid(
        config,
        batches=batches,
        policies=policies,
        seeds=seeds,
        scale=scale,
        workers=workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
        executor=executor,
    )


def _series_from_grid(
    grid: Mapping[str, Mapping[str, Sequence[SimulationResult]]],
    metric: MetricKind,
    title: str,
    policies: Sequence[str],
) -> FigureSeries:
    batches = list(grid)
    series: dict[str, list[float]] = {policy: [] for policy in policies}
    for batch in batches:
        averages = average_results(grid[batch], metric)
        for policy in policies:
            series[policy].append(averages.values[policy])
    return FigureSeries(title=title, metric=metric, x_labels=batches, series=series)


@dataclass
class Figure4Data:
    """Figures 4a-4c: idle time, page faults, cache misses per batch."""

    idle_time: FigureSeries
    page_faults: FigureSeries
    cache_misses: FigureSeries

    def normalized_idle(self, reference: str = "ITS") -> FigureSeries:
        """Figure 4a's y-axis: idle time normalised to ITS."""
        return self.idle_time.normalized_to(reference)


@dataclass
class Figure5Data:
    """Figures 5a-5b: average finish time of top/bottom half."""

    top_half: FigureSeries
    bottom_half: FigureSeries

    def normalized(self, reference: str = "ITS") -> tuple[FigureSeries, FigureSeries]:
        """Both panels normalised to ITS."""
        return (
            self.top_half.normalized_to(reference),
            self.bottom_half.normalized_to(reference),
        )


@dataclass
class ObservationData:
    """Section 2.2: idle time vs number of co-running processes."""

    process_counts: list[int]
    idle_ns: list[float]
    idle_fraction: list[float]
    normalized_idle: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.normalized_idle and self.idle_ns:
            base = self.idle_ns[0]
            self.normalized_idle = [v / base for v in self.idle_ns]


def run_figure4(
    config: Optional[MachineConfig] = None,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    scale: float = 1.0,
    policies: Sequence[str] = PAPER_POLICIES,
    batches: Optional[Sequence[str]] = None,
    workers: int = 1,
    cache=None,
    telemetry=None,
    progress=None,
    executor=None,
) -> Figure4Data:
    """Regenerate Figure 4 (all three panels).

    ``workers``/``cache`` are forwarded to the sweep engine (see
    :mod:`repro.analysis.runner`); results are identical at any worker
    count.
    """
    config = config or MachineConfig()
    batches = list(batches) if batches is not None else batch_names()
    grid = _run_grid(
        config, seeds, scale, policies, batches,
        workers=workers, cache=cache, telemetry=telemetry, progress=progress,
        executor=executor,
    )
    return Figure4Data(
        idle_time=_series_from_grid(
            grid, MetricKind.IDLE_TIME, "Fig 4a: total CPU idle time (ns)", policies
        ),
        page_faults=_series_from_grid(
            grid, MetricKind.PAGE_FAULTS, "Fig 4b: number of major page faults", policies
        ),
        cache_misses=_series_from_grid(
            grid, MetricKind.CACHE_MISSES, "Fig 4c: number of CPU cache misses", policies
        ),
    )


def run_figure5(
    config: Optional[MachineConfig] = None,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    scale: float = 1.0,
    policies: Sequence[str] = PAPER_POLICIES,
    batches: Optional[Sequence[str]] = None,
    workers: int = 1,
    cache=None,
    telemetry=None,
    progress=None,
    executor=None,
) -> Figure5Data:
    """Regenerate Figure 5 (both panels).

    ``workers``/``cache`` are forwarded to the sweep engine (see
    :mod:`repro.analysis.runner`); results are identical at any worker
    count.
    """
    config = config or MachineConfig()
    batches = list(batches) if batches is not None else batch_names()
    grid = _run_grid(
        config, seeds, scale, policies, batches,
        workers=workers, cache=cache, telemetry=telemetry, progress=progress,
        executor=executor,
    )
    return Figure5Data(
        top_half=_series_from_grid(
            grid,
            MetricKind.FINISH_TOP_HALF,
            "Fig 5a: avg finish time, top 50% priority (ns)",
            policies,
        ),
        bottom_half=_series_from_grid(
            grid,
            MetricKind.FINISH_BOTTOM_HALF,
            "Fig 5b: avg finish time, bottom 50% priority (ns)",
            policies,
        ),
    )


@dataclass(frozen=True)
class TailSensitivityRow:
    """One fault profile's crossover picture over the latency sweep.

    ``crossover_us`` is the first swept device latency (µs) at which the
    makespan winner flips from the first to the second swept policy
    (``None`` when it never flips); ``sync_wins`` counts sweep points the
    first policy wins; ``points`` keeps the underlying
    :class:`~repro.analysis.sweeps.SweepRow` list for deeper inspection.
    """

    profile: str
    crossover_us: Optional[float]
    sync_wins: int
    points: list


DEFAULT_TAIL_PROFILES = ("none", "tail_lognormal", "tail_bimodal", "tail_p999")
"""Fault profiles compared by the tail-sensitivity experiment."""


def run_tail_sensitivity(
    config: Optional[MachineConfig] = None,
    *,
    profiles: Sequence[str] = DEFAULT_TAIL_PROFILES,
    latencies_us: Sequence[float] = (1, 3, 7, 15, 30, 60, 100),
    policies: Sequence[str] = ("Sync", "Async"),
    batch: str = "1_Data_Intensive",
    seed: int = 1,
    scale: float = 0.5,
    workers: int = 1,
    cache=None,
    telemetry=None,
    progress=None,
    executor=None,
) -> list[TailSensitivityRow]:
    """How the sync/async crossover shifts under read-tail variability.

    The paper's crossover argument assumes every read takes the nominal
    device latency; this experiment re-runs the device-latency sweep
    under each named fault profile (see
    :data:`repro.faults.profiles.FAULT_PROFILES`) and reports where the
    makespan winner flips.  Heavy P99.9 tails make the busy-wait bet
    worse at a given *nominal* latency, so the crossover moves toward
    faster devices — quantifying how much idealised-device conclusions
    overstate the synchronous mode's window.

    Cells are cached per (config, batch, policy, seed, scale) like any
    sweep; distinct fault profiles hash to distinct cache keys.
    """
    from repro.analysis.sweeps import find_crossover, sweep_device_latency
    from repro.faults.profiles import with_fault_profile

    if len(policies) < 2:
        raise ConfigError("tail sensitivity compares at least two policies")
    config = config or MachineConfig()
    rows: list[TailSensitivityRow] = []
    for profile in profiles:
        base = with_fault_profile(config, profile)
        points = sweep_device_latency(
            latencies_us,
            policies=policies,
            batch=batch,
            seed=seed,
            scale=scale,
            base=base,
            workers=workers,
            cache=cache,
            telemetry=telemetry,
            progress=progress,
            executor=executor,
        )
        first, second = policies[0], policies[1]
        crossover = find_crossover(points, first, second)
        sync_wins = sum(
            1
            for point in points
            if point.results[first].makespan_ns < point.results[second].makespan_ns
        )
        rows.append(
            TailSensitivityRow(
                profile=profile,
                crossover_us=crossover,
                sync_wins=sync_wins,
                points=points,
            )
        )
    return rows


@dataclass(frozen=True)
class AdaptiveComparisonRow:
    """One (fault profile, device latency) point of the adaptive study.

    ``makespan_ns`` / ``mean_finish_ns`` map every compared policy
    (statics plus ``"Adaptive"``) to its batch makespan and mean
    process-finish time; ``best_static`` names the static policy with
    the smallest makespan at this point, and ``adaptive_gap`` is the
    adaptive makespan's relative distance from it (negative when
    adaptive beats every static policy).
    """

    profile: str
    latency_us: float
    makespan_ns: Mapping[str, int]
    mean_finish_ns: Mapping[str, float]
    best_static: str
    adaptive_gap: float


DEFAULT_ADAPTIVE_PROFILES = ("none", "tail_lognormal", "tail_bimodal")
"""Fault profiles swept by :func:`run_adaptive_comparison`."""

DEFAULT_STATIC_POLICIES = ("Sync", "Async", "ITS")
"""Fixed-mode policies the adaptive controller is measured against."""


def _mean_finish_ns(result: SimulationResult) -> float:
    """Mean finish time across all processes of one run."""
    records = result.processes
    return sum(r.finish_time_ns for r in records) / len(records)


def run_adaptive_comparison(
    config: Optional[MachineConfig] = None,
    *,
    profiles: Sequence[str] = DEFAULT_ADAPTIVE_PROFILES,
    latencies_us: Sequence[float] = (1, 3, 7, 15, 30, 60, 100),
    static_policies: Sequence[str] = DEFAULT_STATIC_POLICIES,
    batch: str = "1_Data_Intensive",
    seed: int = 1,
    scale: float = 0.5,
    workers: int = 1,
    cache=None,
    telemetry=None,
    progress=None,
    executor=None,
) -> list[AdaptiveComparisonRow]:
    """Adaptive mode selection vs every static policy, across tails.

    For each fault profile, sweeps the nominal device latency and runs
    the static policies plus ``Adaptive`` at every point.  The question
    the grid answers: does online estimation recover (close to) the best
    static choice without being told the device's latency distribution?
    Under the idealised ``none`` profile the adaptive controller should
    track the best static policy within a few percent at every latency;
    under heavy tails it should beat at least the statics caught on the
    wrong side of the sync/async trade.

    The machine config is *not* modified for the adaptive cells beyond
    the fault profile — :class:`~repro.adaptive.AdaptivePolicy` reads
    ``config.adaptive`` whether or not the block is enabled, so the
    static cells keep their historical cache keys.
    """
    from repro.analysis.sweeps import sweep_device_latency
    from repro.faults.profiles import with_fault_profile

    if "Adaptive" in static_policies:
        raise ConfigError("static_policies must not include 'Adaptive'")
    if not static_policies:
        raise ConfigError("adaptive comparison needs at least one static policy")
    config = config or MachineConfig()
    policies = tuple(static_policies) + ("Adaptive",)
    rows: list[AdaptiveComparisonRow] = []
    for profile in profiles:
        base = with_fault_profile(config, profile)
        points = sweep_device_latency(
            latencies_us,
            policies=policies,
            batch=batch,
            seed=seed,
            scale=scale,
            base=base,
            workers=workers,
            cache=cache,
            telemetry=telemetry,
            progress=progress,
            executor=executor,
        )
        for point in points:
            makespans = {
                name: point.results[name].makespan_ns for name in policies
            }
            best_static = min(static_policies, key=makespans.__getitem__)
            gap = (
                makespans["Adaptive"] - makespans[best_static]
            ) / makespans[best_static]
            rows.append(
                AdaptiveComparisonRow(
                    profile=profile,
                    latency_us=point.value,
                    makespan_ns=makespans,
                    mean_finish_ns={
                        name: _mean_finish_ns(point.results[name])
                        for name in policies
                    },
                    best_static=best_static,
                    adaptive_gap=gap,
                )
            )
    return rows


@dataclass(frozen=True)
class CoreScalingRow:
    """One core count of the SMP scaling study.

    ``makespan_ns`` maps every policy to its batch makespan at this core
    count; ``speedup`` maps it to ``makespan(cores=1) / makespan(here)``
    (1.0 for the single-core row by construction).
    """

    cores: int
    makespan_ns: Mapping[str, int]
    mean_finish_ns: Mapping[str, float]
    speedup: Mapping[str, float]


DEFAULT_CORE_COUNTS = (1, 2, 4)
"""Core counts swept by :func:`run_core_scaling`."""


def run_core_scaling(
    config: Optional[MachineConfig] = None,
    *,
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    policies: Sequence[str] = ("Sync", "Async", "ITS"),
    batch: str = "1_Data_Intensive",
    profile: Optional[str] = None,
    seed: int = 1,
    scale: float = 0.5,
    workers: int = 1,
    cache=None,
    telemetry=None,
    progress=None,
    executor=None,
) -> list[CoreScalingRow]:
    """How does each I/O policy scale with cores on one batch?

    Sweeps the SMP core count and reports per-policy makespans plus the
    speedup over the single-core run (docs/SMP.md).  ``profile``
    optionally applies a fault profile first — fault-heavy batches are
    where cross-core pickup of sacrificed processes pays off.  Requires
    ``1 in core_counts`` (the speedup baseline).
    """
    from repro.analysis.sweeps import sweep_cores
    from repro.faults.profiles import with_fault_profile

    if 1 not in core_counts:
        raise ConfigError("core scaling needs the cores=1 baseline in core_counts")
    if sorted(set(core_counts)) != sorted(core_counts):
        raise ConfigError("core_counts must be distinct")
    config = config or MachineConfig()
    if profile is not None:
        config = with_fault_profile(config, profile)
    points = sweep_cores(
        tuple(core_counts),
        policies=tuple(policies),
        batch=batch,
        seed=seed,
        scale=scale,
        base=config,
        workers=workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
        executor=executor,
    )
    baseline = {
        name: result.makespan_ns
        for point in points
        if point.value == 1
        for name, result in point.results.items()
    }
    rows: list[CoreScalingRow] = []
    for point in points:
        makespans = {name: r.makespan_ns for name, r in point.results.items()}
        rows.append(
            CoreScalingRow(
                cores=int(point.value),
                makespan_ns=makespans,
                mean_finish_ns={
                    name: _mean_finish_ns(r) for name, r in point.results.items()
                },
                speedup={
                    name: baseline[name] / makespans[name] for name in makespans
                },
            )
        )
    return rows


OBSERVATION_WORKLOADS = ("wrf", "blender", "pagerank", "random_walk", "graph500")
"""Section 2.2's five representative processes: Wrf, Blender, page rank,
random walk, and single shortest path."""


def run_observation(
    config: Optional[MachineConfig] = None,
    *,
    process_counts: Sequence[int] = (2, 3, 4, 5),
    seed: int = 1,
    scale: float = 1.0,
) -> ObservationData:
    """Regenerate the Section 2.2 motivation experiment.

    Runs the first *k* of the five representative processes under the
    synchronous I/O mode and reports total idle time, the idle fraction
    of the makespan (the paper observes >22 %), and idle normalised to
    the 2-process run (the paper's normalisation).
    """
    config = config or MachineConfig()
    if min(process_counts) < 1 or max(process_counts) > len(OBSERVATION_WORKLOADS):
        raise ConfigError(
            f"process counts must lie in [1, {len(OBSERVATION_WORKLOADS)}]"
        )
    rng = DeterministicRNG(seed)
    levels = config.scheduler.priority_levels
    priorities = rng.sample(range(levels), len(OBSERVATION_WORKLOADS))
    builds = [
        build_workload(name, rng.fork(i + 1), scale)
        for i, name in enumerate(OBSERVATION_WORKLOADS)
    ]
    idle_ns: list[float] = []
    idle_fraction: list[float] = []
    for count in process_counts:
        workloads = [
            WorkloadInstance(
                name=OBSERVATION_WORKLOADS[i],
                trace=builds[i].trace,
                priority=priorities[i],
                mapped_vpns=builds[i].mapped_vpns,
            )
            for i in range(count)
        ]
        result = Simulation(
            config, workloads, SyncIOPolicy(), batch_name=f"observation_{count}"
        ).run()
        idle_ns.append(float(result.total_idle_ns))
        idle_fraction.append(result.total_idle_ns / result.makespan_ns)
    return ObservationData(
        process_counts=list(process_counts),
        idle_ns=idle_ns,
        idle_fraction=idle_fraction,
    )
