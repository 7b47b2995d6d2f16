"""Validated configuration dataclasses for the simulated machine.

The paper's evaluation platform (Section 4.1) is captured by
:meth:`MachineConfig.paper`; the default constructor produces a
proportionally scaled-down machine that regenerates every figure in seconds
on a laptop.  All times are nanoseconds, all sizes bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.errors import ConfigError
from repro.common.units import GIB, KIB, MIB, MS, PAGE_SIZE, US


def _require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigError` with *message* unless *condition* holds."""
    if not condition:
        raise ConfigError(message)


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of a set-associative cache.

    The paper simulates a 16-way, 8 MiB last-level cache with 64-byte
    lines; half of its capacity is reconfigured as the pre-execute cache
    for Sync_Runahead and ITS.
    """

    size_bytes: int = 1 * MIB
    ways: int = 16
    line_size: int = 64
    hit_latency_ns: int = 20

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.ways > 0, "cache associativity must be positive")
        _require(_is_power_of_two(self.line_size), "cache line size must be a power of two")
        _require(self.hit_latency_ns >= 0, "cache hit latency must be non-negative")
        _require(
            self.size_bytes % (self.ways * self.line_size) == 0,
            "cache size must be a multiple of ways * line_size",
        )
        _require(
            _is_power_of_two(self.num_sets),
            "number of cache sets must be a power of two",
        )

    @property
    def num_sets(self) -> int:
        """Number of sets (size / (ways * line_size))."""
        return self.size_bytes // (self.ways * self.line_size)

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_size

    def halved(self) -> "CacheConfig":
        """Return the same cache with half the capacity.

        Used to carve the pre-execute cache out of the LLC (the paper
        dedicates half of the 8 MiB LLC to pre-execution under
        Sync_Runahead and ITS).
        """
        return dataclasses.replace(self, size_bytes=self.size_bytes // 2)


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of the translation look-aside buffer."""

    entries: int = 64
    hit_latency_ns: int = 1
    miss_walk_latency_ns: int = 100
    flush_on_switch: bool = True
    """Flush the TLB on every context switch.  Setting this False models
    ASID/PCID-tagged TLBs, which avoid the flush (translations are still
    shot down individually when pages are evicted)."""

    def __post_init__(self) -> None:
        _require(self.entries > 0, "TLB must have at least one entry")
        _require(self.hit_latency_ns >= 0, "TLB hit latency must be non-negative")
        _require(self.miss_walk_latency_ns >= 0, "TLB walk latency must be non-negative")


@dataclass(frozen=True)
class DeviceConfig:
    """An Ultra-Low-Latency storage device (e.g. Samsung Z-NAND).

    ``access_latency_ns`` is the device-internal latency of one page-sized
    read; ``channels`` models internal parallelism exploited by the DMA
    prefetcher ("Leveraging the substantial parallelism offered by SSDs").
    """

    access_latency_ns: int = 3 * US
    channels: int = 8
    capacity_bytes: int = 4 * GIB

    def __post_init__(self) -> None:
        _require(self.access_latency_ns > 0, "device latency must be positive")
        _require(self.channels > 0, "device must have at least one channel")
        _require(self.capacity_bytes >= PAGE_SIZE, "device must hold at least one page")


@dataclass(frozen=True)
class PCIeConfig:
    """The host interface between DRAM and the ULL device.

    The paper simulates a 4-lane PCIe 5.x link with ~3.983 GB/s per lane.
    """

    lanes: int = 4
    bandwidth_per_lane_bytes_per_sec: float = 3.983e9

    def __post_init__(self) -> None:
        _require(self.lanes > 0, "PCIe link needs at least one lane")
        _require(self.bandwidth_per_lane_bytes_per_sec > 0, "PCIe lane bandwidth must be positive")

    @property
    def total_bandwidth_bytes_per_sec(self) -> float:
        """Aggregate link bandwidth across all lanes."""
        return self.lanes * self.bandwidth_per_lane_bytes_per_sec

    def transfer_time_ns(self, n_bytes: int) -> int:
        """Time to move *n_bytes* across the link, in nanoseconds."""
        _require(n_bytes >= 0, "transfer size must be non-negative")
        return round(n_bytes / self.total_bandwidth_bytes_per_sec * 1e9)


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM sizing and timing.

    ``dram_frames`` bounds the global frame pool; the paper sizes DRAM to
    the working set so that the combined footprints of a batch exceed it
    and page replacement is exercised.
    """

    dram_frames: int = 448
    dram_latency_ns: int = 50
    page_size: int = PAGE_SIZE
    writeback_dirty: bool = True
    """Write dirty pages back to the device on eviction (occupying a
    device channel and PCIe bandwidth)."""

    def __post_init__(self) -> None:
        _require(self.dram_frames > 0, "DRAM must have at least one frame")
        _require(self.dram_latency_ns >= 0, "DRAM latency must be non-negative")
        _require(_is_power_of_two(self.page_size), "page size must be a power of two")
        _require(self.page_size >= 512, "page size must be at least 512 bytes")

    @property
    def dram_bytes(self) -> int:
        """Total DRAM capacity in bytes."""
        return self.dram_frames * self.page_size


@dataclass(frozen=True)
class SchedulerConfig:
    """SCHED_RR parameters.

    The paper follows the Linux NICE mechanism: the highest-priority
    process receives an 800 ms time slice, the lowest 5 ms, interpolated
    in between.  ``context_switch_ns`` is the measured 7 us switch cost.
    """

    max_time_slice_ns: int = 800 * MS
    min_time_slice_ns: int = 5 * MS
    context_switch_ns: int = 7 * US
    priority_levels: int = 40
    switch_pollution_fraction: float = 0.3

    def __post_init__(self) -> None:
        _require(self.min_time_slice_ns > 0, "minimum time slice must be positive")
        _require(
            self.max_time_slice_ns >= self.min_time_slice_ns,
            "maximum time slice must be >= minimum time slice",
        )
        _require(self.context_switch_ns >= 0, "context switch cost must be non-negative")
        _require(self.priority_levels >= 2, "need at least two priority levels")
        _require(
            0.0 <= self.switch_pollution_fraction <= 1.0,
            "switch pollution fraction must lie in [0, 1]",
        )

    def time_slice_ns(self, priority: int) -> int:
        """Map a priority in ``[0, priority_levels)`` to a time slice.

        Linux RT convention: a *larger* priority value means a more
        important process.  The most important level gets the 800 ms
        slice, the least important the 5 ms slice, with the NICE table's
        monotone mapping approximated linearly in between.
        """
        _require(
            0 <= priority < self.priority_levels,
            f"priority {priority} outside [0, {self.priority_levels})",
        )
        span = self.max_time_slice_ns - self.min_time_slice_ns
        frac = priority / (self.priority_levels - 1)
        return round(self.min_time_slice_ns + frac * span)


@dataclass(frozen=True)
class ITSConfig:
    """Tunables of the Idle-Time-Stealing design itself."""

    prefetch_degree: int = 8
    """Candidate pages the VA-based prefetcher gathers per fault (*n*).

    Note: *which* ITS components run (prefetch / pre-execute /
    self-sacrifice) is chosen on the :class:`~repro.core.its.ITSPolicy`
    constructor, since it also determines machine assembly (the
    pre-execute cache carve-out); this config holds the components'
    tunables only.
    """

    kernel_entry_ns: int = 300
    """Transition cost from the fault handler into an ITS kernel thread
    (hundreds of nanoseconds: the design stays in kernel space)."""

    preexec_instr_ns: int = 2
    """Virtual cost of pre-executing one instruction (used to bound the
    pre-execute window to the remaining busy-wait time)."""

    preexec_max_instructions: int = 1024
    """Hard cap on instructions per pre-execute episode: warming too far
    ahead self-pollutes the (halved) LLC faster than it helps."""

    def __post_init__(self) -> None:
        _require(self.prefetch_degree >= 0, "prefetch degree must be non-negative")
        _require(self.kernel_entry_ns >= 0, "kernel entry cost must be non-negative")
        _require(self.preexec_instr_ns > 0, "pre-execute instruction cost must be positive")
        _require(
            self.preexec_max_instructions > 0,
            "pre-execute episode cap must be positive",
        )


_LATENCY_MODELS = ("fixed", "lognormal", "bimodal", "table")
"""Read-latency distribution families understood by :mod:`repro.faults`."""


@dataclass(frozen=True)
class FaultConfig:
    """Device-variability and failure-injection model (see docs/FAULTS.md).

    The default instance (``enabled=False``) is the idealised legacy
    device: fixed latencies, infallible DMA.  It deliberately serialises
    to *nothing* in :meth:`MachineConfig.to_dict`, so configurations
    that never enable faults keep their historical sweep-cache keys and
    bit-identical results.

    All stochastic draws flow from ``seed`` through one
    :class:`~repro.common.rng.DeterministicRNG`, so a fault sequence is
    reproducible from the config alone.
    """

    enabled: bool = False
    profile: str = "none"
    """Name of the profile this config was built from (informational)."""

    seed: int = 0xFA017
    """Seed of the injector's private RNG stream."""

    # -- latency variability ------------------------------------------------
    read_latency_model: str = "fixed"
    """One of ``fixed`` / ``lognormal`` / ``bimodal`` / ``table``; the
    sampled value replaces ``DeviceConfig.access_latency_ns`` per op."""
    lognormal_sigma: float = 0.0
    """Shape of the lognormal multiplier (mean multiplier is always 1)."""
    bimodal_slow_prob: float = 0.0
    """Probability a read takes the device's slow path."""
    bimodal_slow_multiplier: float = 1.0
    """Latency multiplier of the slow path (>= 1)."""
    table_percentiles: tuple = ()
    """``((cum_prob, multiplier), ...)`` step CDF, cum_probs ascending
    and ending at 1.0 — e.g. a measured P50/P99/P99.9 read-tail table."""
    pcie_jitter_ns: int = 0
    """Uniform [0, jitter] ns added to every PCIe transfer."""

    # -- injectable error outcomes ------------------------------------------
    crc_error_prob: float = 0.0
    """Per-read probability the transfer arrives corrupted (DMA CRC)."""
    timeout_prob: float = 0.0
    """Per-read probability the device stalls past the watchdog."""
    drop_completion_prob: float = 0.0
    """Per-read probability the completion interrupt is lost."""
    timeout_ns: int = 50_000
    """Watchdog deadline: stalls and dropped completions are detected
    this long after submission."""

    # -- retry / fallback ---------------------------------------------------
    max_retries: int = 3
    """Re-submissions after a failed attempt before falling back."""
    retry_backoff_ns: int = 2_000
    """Backoff before the first retry; grows by ``backoff_multiplier``."""
    backoff_multiplier: float = 2.0
    """Exponential backoff growth factor between retries."""
    fallback_penalty_ns: int = 100_000
    """Cost of the slow recovery path taken when retries are exhausted."""

    # -- graceful degradation (ITS) -----------------------------------------
    demote_after_ns: int = 0
    """Steal-window deadline: an ITS busy-wait predicted or observed to
    outlast this is abandoned (state restored) and the request demoted
    to the asynchronous baseline path.  0 disables demotion."""

    def __post_init__(self) -> None:
        _require(
            self.read_latency_model in _LATENCY_MODELS,
            f"unknown read latency model {self.read_latency_model!r}; "
            f"known: {', '.join(_LATENCY_MODELS)}",
        )
        _require(self.lognormal_sigma >= 0.0, "lognormal sigma must be non-negative")
        _require(
            0.0 <= self.bimodal_slow_prob <= 1.0,
            "bimodal slow-path probability must lie in [0, 1]",
        )
        _require(
            self.bimodal_slow_multiplier >= 1.0,
            "bimodal slow-path multiplier must be >= 1",
        )
        for prob, name in (
            (self.crc_error_prob, "CRC error"),
            (self.timeout_prob, "timeout"),
            (self.drop_completion_prob, "dropped completion"),
        ):
            _require(0.0 <= prob <= 1.0, f"{name} probability must lie in [0, 1]")
        _require(
            self.crc_error_prob + self.timeout_prob + self.drop_completion_prob <= 1.0,
            "error probabilities must sum to at most 1",
        )
        if self.read_latency_model == "table":
            _require(bool(self.table_percentiles), "percentile table must be non-empty")
            last = 0.0
            for entry in self.table_percentiles:
                _require(
                    len(entry) == 2,
                    "percentile table entries must be (cum_prob, multiplier) pairs",
                )
                cum, mult = entry
                _require(cum > last, "percentile table cum_probs must ascend")
                _require(mult > 0.0, "percentile table multipliers must be positive")
                last = float(cum)
            _require(last == 1.0, "percentile table must end at cum_prob 1.0")
        _require(self.pcie_jitter_ns >= 0, "PCIe jitter must be non-negative")
        _require(self.timeout_ns > 0, "watchdog timeout must be positive")
        _require(self.max_retries >= 0, "retry count must be non-negative")
        _require(self.retry_backoff_ns >= 0, "retry backoff must be non-negative")
        _require(self.backoff_multiplier >= 1.0, "backoff multiplier must be >= 1")
        _require(self.fallback_penalty_ns >= 0, "fallback penalty must be non-negative")
        _require(self.demote_after_ns >= 0, "demotion deadline must be non-negative")

    @property
    def error_prob(self) -> float:
        """Total per-read probability of any injected error outcome."""
        return self.crc_error_prob + self.timeout_prob + self.drop_completion_prob

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "FaultConfig":
        """Reconstruct from :meth:`MachineConfig.to_dict` output.

        ``None`` (the key was omitted, i.e. a legacy or fault-free
        config) yields the disabled default.  JSON round-trips turn the
        percentile-table tuples into lists; they are normalised back.
        """
        if data is None:
            return cls()
        try:
            data = dict(data)
            data["table_percentiles"] = tuple(
                (float(cum), float(mult))
                for cum, mult in data.get("table_percentiles", ())
            )
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed FaultConfig dict: {exc}") from exc


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tunables of the adaptive I/O-mode controller (docs/ADAPTIVE.md).

    The default instance (``enabled=False``) deliberately serialises to
    *nothing* in :meth:`MachineConfig.to_dict`: configurations that never
    touch the adaptive layer keep their historical sweep-cache keys and
    bit-identical results, exactly like :class:`FaultConfig`.

    The controller itself is installed by choosing the ``Adaptive`` I/O
    policy; this block only carries its parameters.  ``enabled=True``
    marks a deliberately configured block (and makes it serialise), but
    the :class:`~repro.adaptive.AdaptivePolicy` reads the parameters
    either way, so ``--policy adaptive`` works on a stock config.
    """

    enabled: bool = False

    # -- online latency estimation ------------------------------------------
    ewma_alpha: float = 0.2
    """Weight of the newest observation in the EWMA mean estimator."""
    quantile_window: int = 128
    """Observations kept by the sliding-window histogram (per device)."""
    warmup_faults: int = 16
    """Confidence gate: observed read completions required before the
    cost model is trusted; a cold controller falls back to plain ITS."""
    tail_weight: float = 0.3
    """Risk blend of the expected-wait estimate: ``(1 - w) * p50 +
    w * p95``.  0 trusts the median, 1 plans for the tail."""

    # -- hysteresis ---------------------------------------------------------
    min_dwell_faults: int = 8
    """Faults a process must spend in its current mode before the
    controller may switch it again (mode flapping guard)."""
    switch_margin: float = 0.1
    """Relative cost advantage a challenger mode needs over the
    incumbent before a switch is worth the transient."""

    # -- cost model ---------------------------------------------------------
    demotion_penalty_ns: int = 10_000
    """Cost of demoting a fault to the asynchronous path beyond the two
    context switches themselves: cache/TLB pollution on return and the
    fine-grained interleaving it invites (Figure 4's thrash)."""

    def __post_init__(self) -> None:
        _require(0.0 < self.ewma_alpha <= 1.0, "EWMA alpha must lie in (0, 1]")
        _require(self.quantile_window >= 8, "quantile window must hold at least 8 samples")
        _require(self.warmup_faults >= 0, "warmup fault count must be non-negative")
        _require(0.0 <= self.tail_weight <= 1.0, "tail weight must lie in [0, 1]")
        _require(self.min_dwell_faults >= 0, "minimum dwell must be non-negative")
        _require(0.0 <= self.switch_margin < 1.0, "switch margin must lie in [0, 1)")
        _require(self.demotion_penalty_ns >= 0, "demotion penalty must be non-negative")

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "AdaptiveConfig":
        """Reconstruct from :meth:`MachineConfig.to_dict` output.

        ``None`` (the key was omitted, i.e. a legacy or non-adaptive
        config) yields the disabled default.
        """
        if data is None:
            return cls()
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed AdaptiveConfig dict: {exc}") from exc


ARRIVAL_PROCESSES = ("poisson", "mmpp", "diurnal", "trace")
"""Arrival-process families understood by :mod:`repro.serving`."""

ADMISSION_POLICIES = ("admit_all", "drop", "defer", "demote")
"""Admission/load-shedding policies understood by :mod:`repro.serving`."""


@dataclass(frozen=True)
class ServingConfig:
    """Open-loop serving workload: request arrivals, SLOs, admission
    (docs/SERVING.md).

    The default instance (``enabled=False``) is the closed-loop legacy
    mode — the whole batch is admitted at t=0 and runs to completion.
    It deliberately serialises to *nothing* in
    :meth:`MachineConfig.to_dict`, so configurations that never enable
    serving keep their historical sweep-cache keys and bit-identical
    results, exactly like :class:`FaultConfig`, :class:`AdaptiveConfig`
    and :class:`CoreConfig`.

    All stochastic draws (arrival times, per-request workload mix and
    priorities) flow from ``seed`` mixed with the cell seed through
    :class:`~repro.common.rng.DeterministicRNG`, so a request schedule
    is reproducible from the config alone.
    """

    enabled: bool = False

    # -- arrival process ------------------------------------------------------
    arrival: str = "poisson"
    """One of ``poisson`` / ``mmpp`` / ``diurnal`` / ``trace``."""
    rate_per_s: float = 400.0
    """Offered load: mean request arrival rate (requests per second of
    virtual time).  For ``diurnal`` this is the mid-line of the cycle;
    for ``mmpp`` the quiet-state rate."""
    duration_ms: float = 40.0
    """Length of the arrival window; requests arrive in
    ``[0, duration)`` and the run ends when the last admitted request
    completes."""
    seed: int = 0x5E12
    """Seed of the serving layer's private RNG stream (mixed with the
    cell seed, so sweeps over seeds re-draw the schedule)."""

    # -- SLO ------------------------------------------------------------------
    slo_ms: float = 20.0
    """Per-request latency target (arrival to finish)."""
    slo_percentile: float = 0.99
    """The SLO is met when this fraction of requests land within the
    target (dropped requests always count against it)."""

    # -- admission / load shedding -------------------------------------------
    admission: str = "admit_all"
    """One of ``admit_all`` / ``drop`` / ``defer`` / ``demote``; the
    shedding policies act when in-system requests reach ``queue_cap``."""
    queue_cap: int = 0
    """In-system request bound consulted by the shedding policies
    (required >= 1 for ``drop`` / ``defer`` / ``demote``)."""
    defer_ns: int = 200_000
    """Retry delay of a deferred arrival (the request re-attempts
    admission this much later, keeping its original arrival stamp)."""

    # -- mmpp (2-state Markov-modulated Poisson) ------------------------------
    burst_multiplier: float = 4.0
    """Burst-state rate as a multiple of ``rate_per_s``."""
    mean_dwell_ms: float = 10.0
    """Mean dwell time in the quiet state (exponential)."""
    mean_burst_ms: float = 2.0
    """Mean dwell time in the burst state (exponential)."""

    # -- diurnal (sinusoidal rate schedule) -----------------------------------
    amplitude: float = 0.8
    """Peak rate modulation depth in [0, 1): rate swings between
    ``rate * (1 - amplitude)`` and ``rate * (1 + amplitude)``."""
    period_ms: float = 0.0
    """Cycle length; 0 stretches one full cycle across the duration."""

    # -- trace replay ---------------------------------------------------------
    arrivals_ns: tuple = ()
    """Explicit arrival timestamps (ns, ascending) replayed verbatim
    when ``arrival == "trace"``; timestamps at or past the duration are
    ignored.  Inlined (not a file path) so cache keys stay
    content-addressed."""

    def __post_init__(self) -> None:
        _require(
            self.arrival in ARRIVAL_PROCESSES,
            f"unknown arrival process {self.arrival!r}; "
            f"known: {', '.join(ARRIVAL_PROCESSES)}",
        )
        _require(self.rate_per_s > 0, "arrival rate must be positive")
        _require(self.duration_ms > 0, "serving duration must be positive")
        _require(self.slo_ms > 0, "SLO latency target must be positive")
        _require(
            0.0 < self.slo_percentile <= 1.0,
            "SLO percentile must lie in (0, 1]",
        )
        _require(
            self.admission in ADMISSION_POLICIES,
            f"unknown admission policy {self.admission!r}; "
            f"known: {', '.join(ADMISSION_POLICIES)}",
        )
        _require(self.queue_cap >= 0, "queue cap must be non-negative")
        if self.admission != "admit_all":
            _require(
                self.queue_cap >= 1,
                f"admission policy {self.admission!r} needs --queue-cap >= 1",
            )
        _require(self.defer_ns > 0, "defer delay must be positive")
        _require(self.burst_multiplier >= 1.0, "burst multiplier must be >= 1")
        _require(self.mean_dwell_ms > 0, "mean dwell time must be positive")
        _require(self.mean_burst_ms > 0, "mean burst time must be positive")
        _require(0.0 <= self.amplitude < 1.0, "amplitude must lie in [0, 1)")
        _require(self.period_ms >= 0, "period must be non-negative")
        if self.arrival == "trace":
            _require(
                bool(self.arrivals_ns),
                "trace arrivals need a non-empty timestamp list "
                "(--arrival trace requires --arrival-trace FILE)",
            )
            last = -1
            for t in self.arrivals_ns:
                _require(
                    isinstance(t, int) and t >= 0,
                    "trace arrival timestamps must be non-negative integers",
                )
                _require(t >= last, "trace arrival timestamps must ascend")
                last = t

    @property
    def duration_ns(self) -> int:
        """The arrival window in nanoseconds."""
        return round(self.duration_ms * 1e6)

    @property
    def slo_target_ns(self) -> int:
        """The latency target in nanoseconds."""
        return round(self.slo_ms * 1e6)

    @property
    def period_ns(self) -> int:
        """The diurnal cycle in nanoseconds (defaults to the duration)."""
        return round(self.period_ms * 1e6) if self.period_ms > 0 else self.duration_ns

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "ServingConfig":
        """Reconstruct from :meth:`MachineConfig.to_dict` output.

        ``None`` (the key was omitted, i.e. a legacy or closed-loop
        config) yields the disabled default.  JSON round-trips turn the
        arrival-timestamp tuple into a list; it is normalised back.
        """
        if data is None:
            return cls()
        try:
            data = dict(data)
            data["arrivals_ns"] = tuple(int(t) for t in data.get("arrivals_ns", ()))
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed ServingConfig dict: {exc}") from exc


def with_serving(config: "MachineConfig", **overrides: Any) -> "MachineConfig":
    """Return *config* with an explicitly configured serving block.

    ``enabled`` is forced on (so the block serialises and the sweep
    cache distinguishes the configuration); keyword overrides set
    individual :class:`ServingConfig` fields.
    """
    overrides.setdefault("enabled", True)
    return dataclasses.replace(config, serving=ServingConfig(**overrides))


_PLACEMENTS = ("round_robin", "least_loaded")
"""Placement policies understood by the SMP scheduler: ``round_robin``
spreads admitted processes across cores by pid, ``least_loaded`` puts
each new process on the core with the shortest ready queue."""


@dataclass(frozen=True)
class CoreConfig:
    """Multi-core topology and cross-core cost model (docs/SMP.md).

    The default instance (``count=1``) is the single-core machine the
    paper simulates and deliberately serialises to *nothing* in
    :meth:`MachineConfig.to_dict`: configurations that never go SMP keep
    their historical sweep-cache keys and bit-identical results, exactly
    like :class:`FaultConfig` and :class:`AdaptiveConfig`.
    """

    count: int = 1
    """Number of cores.  Each core owns a private TLB, run queue and
    context-switch model; LLC, DRAM, swap and the DMA path are shared."""

    work_steal: bool = True
    """Idle cores steal ready processes from the tail of the most
    loaded core's run queue."""

    migration_cost_ns: int = 2 * US
    """Cost of migrating a stolen process onto the thief core (cold
    private-TLB refill, run-queue locking, inter-processor signalling)."""

    tlb_shootdown_ns: int = 1 * US
    """Cost of one cross-core TLB shootdown IPI, charged to the evicting
    core per *remote* core that held the translation."""

    placement: str = "round_robin"
    """Initial placement policy; one of ``round_robin`` / ``least_loaded``.
    The SMP scheduler also exposes a programmatic affinity hook that
    overrides this (see :meth:`repro.kernel.smp.SMPScheduler.set_placement`)."""

    def __post_init__(self) -> None:
        _require(self.count >= 1, "a machine needs at least one core")
        _require(self.migration_cost_ns >= 0, "migration cost must be non-negative")
        _require(self.tlb_shootdown_ns >= 0, "TLB shootdown cost must be non-negative")
        _require(
            self.placement in _PLACEMENTS,
            f"unknown placement {self.placement!r}; known: {', '.join(_PLACEMENTS)}",
        )

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "CoreConfig":
        """Reconstruct from :meth:`MachineConfig.to_dict` output.

        ``None`` (the key was omitted, i.e. a legacy or single-core
        config) yields the single-core default.
        """
        if data is None:
            return cls()
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed CoreConfig dict: {exc}") from exc


TIER_PLACEMENTS = ("pid_hash", "round_robin", "hot_cold")
"""Page-placement policies understood by :mod:`repro.tiering`:
``pid_hash`` maps every page of a process to one tier by pid modulo,
``round_robin`` stripes allocations across tiers, ``hot_cold`` starts
every page on the slowest tier and relies on promotion to move hot
pages toward tier 0."""


@dataclass(frozen=True)
class TierSpec:
    """One storage tier: a named device + link pair (docs/TIERING.md).

    ``fault_profile`` names a :data:`repro.faults.FAULT_PROFILES` entry
    applied to this tier's device and link only; the empty string
    inherits the machine-level ``faults`` block, so a single profile
    flag still covers every tier.
    """

    name: str
    device: DeviceConfig = field(default_factory=DeviceConfig)
    pcie: PCIeConfig = field(default_factory=PCIeConfig)
    fault_profile: str = ""

    def __post_init__(self) -> None:
        _require(bool(self.name), "a storage tier needs a name")

    @classmethod
    def from_dict(cls, data: dict) -> "TierSpec":
        """Reconstruct from :meth:`MachineConfig.to_dict` output."""
        try:
            return cls(
                name=data["name"],
                device=DeviceConfig(**data["device"]),
                pcie=PCIeConfig(**data["pcie"]),
                fault_profile=data.get("fault_profile", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed TierSpec dict: {exc}") from exc


@dataclass(frozen=True)
class TierConfig:
    """Heterogeneous storage tiers (docs/TIERING.md).

    The default instance (``enabled=False``) is the single-device legacy
    machine and deliberately serialises to *nothing* in
    :meth:`MachineConfig.to_dict`: configurations that never enable
    tiering keep their historical sweep-cache keys and bit-identical
    results, exactly like :class:`FaultConfig`, :class:`AdaptiveConfig`,
    :class:`CoreConfig` and :class:`ServingConfig`.

    Tier order is the promotion ladder: ``tiers[0]`` is the fast tier
    promotion moves pages toward, and demotion pushes victims one index
    toward the tail.  Presets (``ull`` / ``nvme`` / ``far_memory``) live
    in :mod:`repro.tiering.presets`.
    """

    enabled: bool = False
    tiers: tuple = ()
    """Ordered :class:`TierSpec` tuple (fastest / preferred tier first)."""
    placement: str = "pid_hash"
    """Static placement policy; one of :data:`TIER_PLACEMENTS`."""
    promote_threshold: int = 0
    """Major faults on one page before it is promoted one tier up
    (migration charges a device-to-device copy).  0 disables migration."""
    demote_watermark: float = 1.0
    """Used-slot fraction of the promotion target above which the
    coldest page is demoted to make room (1.0 = only when full)."""

    def __post_init__(self) -> None:
        _require(
            self.placement in TIER_PLACEMENTS,
            f"unknown tier placement {self.placement!r}; "
            f"known: {', '.join(TIER_PLACEMENTS)}",
        )
        _require(self.promote_threshold >= 0, "promote threshold must be non-negative")
        _require(
            0.0 < self.demote_watermark <= 1.0,
            "demote watermark must lie in (0, 1]",
        )
        if self.enabled:
            _require(bool(self.tiers), "enabled tiering needs at least one tier")
        names = [spec.name for spec in self.tiers]
        _require(len(names) == len(set(names)), "tier names must be unique")
        if self.placement == "hot_cold":
            _require(
                self.promote_threshold >= 1,
                "hot_cold placement needs promote_threshold >= 1 "
                "(pages only leave the cold tier via promotion)",
            )

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "TierConfig":
        """Reconstruct from :meth:`MachineConfig.to_dict` output.

        ``None`` (the key was omitted, i.e. a legacy or single-device
        config) yields the disabled default.
        """
        if data is None:
            return cls()
        try:
            data = dict(data)
            data["tiers"] = tuple(
                TierSpec.from_dict(dict(t)) for t in data.get("tiers", ())
            )
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed TierConfig dict: {exc}") from exc


def with_tiers(config: "MachineConfig", tiers, **overrides: Any) -> "MachineConfig":
    """Return *config* with an explicitly configured tier block.

    *tiers* is an iterable of :class:`TierSpec`; ``enabled`` is forced
    on (so the block serialises and the sweep cache distinguishes the
    configuration).  Name-based preset resolution lives in
    :func:`repro.tiering.presets.with_tier_presets`.
    """
    overrides.setdefault("enabled", True)
    return dataclasses.replace(
        config, tiers=TierConfig(tiers=tuple(tiers), **overrides)
    )


def with_cores(config: "MachineConfig", count: int, **overrides: Any) -> "MachineConfig":
    """Return *config* with an SMP ``cores`` block of *count* cores.

    Keyword overrides set individual :class:`CoreConfig` fields;
    ``with_cores(config, 1)`` restores the default block (which
    serialises to nothing, preserving single-core cache keys).
    """
    return dataclasses.replace(config, cores=CoreConfig(count=count, **overrides))


def with_adaptive(config: "MachineConfig", **overrides: Any) -> "MachineConfig":
    """Return *config* with an explicitly configured adaptive block.

    ``enabled`` is forced on (so the block serialises and the sweep cache
    distinguishes the configuration); keyword overrides set individual
    :class:`AdaptiveConfig` fields.
    """
    overrides.setdefault("enabled", True)
    return dataclasses.replace(config, adaptive=AdaptiveConfig(**overrides))


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of the simulated platform.

    The default instance is a scaled-down machine for fast regeneration of
    the paper's figures; :meth:`paper` reproduces the Section 4.1 platform
    at full scale.
    """

    llc: CacheConfig = field(default_factory=CacheConfig)
    l1: Optional[CacheConfig] = None
    """Optional L1 level above the LLC (fidelity extension; the paper's
    simulator models the LLC only).  ``CacheConfig(size_bytes=32*KIB,
    ways=8, hit_latency_ns=4)`` is a typical choice."""
    tlb: TLBConfig = field(default_factory=TLBConfig)
    device: DeviceConfig = field(default_factory=DeviceConfig)
    pcie: PCIeConfig = field(default_factory=PCIeConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    scheduler: SchedulerConfig = field(
        default_factory=lambda: SchedulerConfig(
            # Scaled-down slices: traces are milliseconds long, so the
            # 800 ms/5 ms paper slices are shrunk proportionally (the
            # 7 us switch cost is kept at its measured value).
            max_time_slice_ns=2 * MS,
            min_time_slice_ns=100 * US,
        )
    )
    its: ITSConfig = field(default_factory=ITSConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    """Device variability / failure injection; disabled by default (the
    idealised device).  Serialised only when it differs from the
    default, so fault-free cache keys are stable across versions."""
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    """Adaptive I/O-mode controller parameters; disabled by default.
    Serialised only when it differs from the default, so non-adaptive
    cache keys are stable across versions."""
    cores: CoreConfig = field(default_factory=CoreConfig)
    """SMP topology; a single core by default.  Serialised only when it
    differs from the default, so single-core cache keys are stable
    across versions."""
    serving: ServingConfig = field(default_factory=ServingConfig)
    """Open-loop serving workload; disabled (closed-loop) by default.
    Serialised only when it differs from the default, so closed-loop
    cache keys are stable across versions."""
    tiers: TierConfig = field(default_factory=TierConfig)
    """Heterogeneous storage tiers; disabled (single device) by default.
    Serialised only when it differs from the default, so single-device
    cache keys are stable across versions."""

    compute_ns_per_instr: int = 1
    """CPU cost of one non-memory instruction."""

    fault_handler_ns: int = 500
    """Software cost of entering/servicing the page-fault handler."""

    def __post_init__(self) -> None:
        _require(
            self.memory.page_size % self.llc.line_size == 0,
            "page size must be a multiple of the cache line size",
        )
        if self.l1 is not None:
            _require(
                self.l1.line_size == self.llc.line_size,
                "L1 and LLC must share a line size",
            )
            _require(
                self.l1.size_bytes <= self.llc.size_bytes,
                "L1 must not be larger than the LLC",
            )
        _require(self.compute_ns_per_instr >= 0, "compute cost must be non-negative")
        _require(self.fault_handler_ns >= 0, "fault handler cost must be non-negative")

    @classmethod
    def paper(cls) -> "MachineConfig":
        """The Section 4.1 platform: 8 MiB 16-way LLC, 3 us Z-NAND,
        50 ns DRAM, 7 us context switch, PCIe 5.x x4."""
        return cls(
            llc=CacheConfig(size_bytes=8 * MIB, ways=16, line_size=64, hit_latency_ns=20),
            memory=MemoryConfig(dram_frames=64 * 1024, dram_latency_ns=50),
            scheduler=SchedulerConfig(),  # the full 800 ms / 5 ms NICE slices
        )

    @classmethod
    def small(cls) -> "MachineConfig":
        """A deliberately tiny machine for unit tests."""
        return cls(
            llc=CacheConfig(size_bytes=16 * KIB, ways=4, line_size=64, hit_latency_ns=10),
            tlb=TLBConfig(entries=16),
            memory=MemoryConfig(dram_frames=64, dram_latency_ns=50),
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a plain nested dict (JSON-compatible).

        The ``faults`` block is omitted while it equals the disabled
        default: sweep-cache keys are SHA-256 digests of this dict, and
        fault-free configurations must keep addressing the results they
        produced before the fault layer existed.
        """
        data = dataclasses.asdict(self)
        if self.faults == FaultConfig():
            del data["faults"]
        if self.adaptive == AdaptiveConfig():
            del data["adaptive"]
        if self.cores == CoreConfig():
            del data["cores"]
        if self.serving == ServingConfig():
            del data["serving"]
        if self.tiers == TierConfig():
            del data["tiers"]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MachineConfig":
        """Reconstruct a config from :meth:`to_dict` output."""
        try:
            return cls(
                llc=CacheConfig(**data["llc"]),
                l1=CacheConfig(**data["l1"]) if data.get("l1") else None,
                tlb=TLBConfig(**data["tlb"]),
                device=DeviceConfig(**data["device"]),
                pcie=PCIeConfig(**data["pcie"]),
                memory=MemoryConfig(**data["memory"]),
                scheduler=SchedulerConfig(**data["scheduler"]),
                its=ITSConfig(**data["its"]),
                faults=FaultConfig.from_dict(data.get("faults")),
                adaptive=AdaptiveConfig.from_dict(data.get("adaptive")),
                cores=CoreConfig.from_dict(data.get("cores")),
                serving=ServingConfig.from_dict(data.get("serving")),
                tiers=TierConfig.from_dict(data.get("tiers")),
                compute_ns_per_instr=data["compute_ns_per_instr"],
                fault_handler_ns=data["fault_handler_ns"],
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed MachineConfig dict: {exc}") from exc
