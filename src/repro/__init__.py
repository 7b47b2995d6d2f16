"""repro: a full reproduction of "How to Steal CPU Idle Time When
Synchronous I/O Mode Becomes Promising" (Wu, Chang, Yang, Kuo — DAC
2024).

The package implements the paper's in-house trace-based simulator — a
simulated CPU (LLC, TLB, register file with INV bits, pre-execute
engine), a mini Linux-style kernel (4-level page tables, swap, SCHED_RR,
page-fault handler), and an ULL storage substrate (Z-NAND-class device,
PCIe link, DMA) — plus the proposed Idle-Time-Stealing (ITS) design and
the four baseline I/O policies it is evaluated against.

Quickstart::

    from repro import MachineConfig, Simulation, build_batch
    from repro import ITSPolicy, SyncIOPolicy

    config = MachineConfig()
    batch = build_batch("1_Data_Intensive", seed=7)
    result = Simulation(config, batch, ITSPolicy(), batch_name="demo").run()
    print(result.total_idle_ns, result.major_faults)
"""

from repro.adaptive import AdaptiveController, AdaptivePolicy
from repro.common import (
    AdaptiveConfig,
    CacheConfig,
    ConfigError,
    CoreConfig,
    DeviceConfig,
    DeterministicRNG,
    FaultConfig,
    ITSConfig,
    MachineConfig,
    MemoryConfig,
    PCIeConfig,
    ReproError,
    SchedulerConfig,
    ServingConfig,
    SimulationError,
    TierConfig,
    TierSpec,
    TIER_PLACEMENTS,
    TLBConfig,
    TraceError,
    with_adaptive,
    with_cores,
    with_serving,
    with_tiers,
)
from repro.faults import (
    FAULT_PROFILES,
    FaultInjector,
    with_fault_profile,
    with_tail_model,
)
from repro.baselines import (
    AsyncIOPolicy,
    IOPolicy,
    SyncIOPolicy,
    SyncPrefetchPolicy,
    SyncRunaheadPolicy,
)
from repro.core import ITSPolicy
from repro.sim import (
    PAPER_BATCHES,
    BatchSpec,
    Machine,
    Simulation,
    SimulationResult,
    WorkloadInstance,
    batch_names,
    build_batch,
)
from repro.serving import Request, RequestRecord, ServingSummary, SLO
from repro.telemetry import Telemetry
from repro.tiering import TIER_PRESETS, TierSummary, TierUsage, with_tier_presets
from repro.trace import WORKLOADS, build_workload, workload_names
from repro.vm import VMA, AddressSpace

build_simulation = Simulation
"""Alias of :class:`Simulation`:
``build_simulation(config, workloads, policy, **kwargs).run()``.
In-tree code constructs :class:`Simulation` directly."""

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "MachineConfig",
    "CacheConfig",
    "TLBConfig",
    "DeviceConfig",
    "PCIeConfig",
    "MemoryConfig",
    "SchedulerConfig",
    "ITSConfig",
    "FaultConfig",
    "AdaptiveConfig",
    "with_adaptive",
    "CoreConfig",
    "with_cores",
    "ServingConfig",
    "with_serving",
    "TierConfig",
    "TierSpec",
    "TIER_PLACEMENTS",
    "with_tiers",
    # faults
    "FAULT_PROFILES",
    "FaultInjector",
    "with_fault_profile",
    "with_tail_model",
    # errors
    "ReproError",
    "ConfigError",
    "TraceError",
    "SimulationError",
    # policies
    "IOPolicy",
    "AsyncIOPolicy",
    "SyncIOPolicy",
    "SyncRunaheadPolicy",
    "SyncPrefetchPolicy",
    "ITSPolicy",
    "AdaptivePolicy",
    "AdaptiveController",
    # simulation
    "Machine",
    "Simulation",
    "build_simulation",
    "SimulationResult",
    "WorkloadInstance",
    "BatchSpec",
    "PAPER_BATCHES",
    "batch_names",
    "build_batch",
    # serving
    "Request",
    "RequestRecord",
    "ServingSummary",
    "SLO",
    # tiering
    "TIER_PRESETS",
    "TierSummary",
    "TierUsage",
    "with_tier_presets",
    # telemetry
    "Telemetry",
    # traces
    "WORKLOADS",
    "build_workload",
    "workload_names",
    "DeterministicRNG",
    "VMA",
    "AddressSpace",
]
