"""Property: windowed runs are bit-identical to the per-record path.

Random tiny workload sets, every registered policy, a sample of fault
profiles, single-device and tiered storage: ``Simulation.run()``, which
commits fault-free stretches in windows, must produce the same
serialised ``SimulationResult`` as the per-record reference path
(``Simulation._run_per_record``) — not just the same headline numbers,
the whole payload (per-process stats, idle breakdown, cache counters,
tier summary).  An observed run (a ``Telemetry(causal=True)`` handle
attached) also commits in windows, and must record the same span and
event stream, metric snapshot and causal graph as the per-record path.
This is the windows' one contract (docs/MODEL.md, "How a run commits
records"); everything else about them is an implementation detail.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import POLICY_FACTORIES
from repro.analysis.store import result_to_dict
from repro.common.config import (
    CacheConfig,
    MachineConfig,
    MemoryConfig,
    SchedulerConfig,
    TLBConfig,
)
from repro.common.units import KIB, US
from repro.cpu.isa import Branch, Compute, Load, Store
from repro.faults.profiles import with_fault_profile
from repro.sim.simulator import Simulation, WorkloadInstance
from repro.telemetry import Telemetry
from repro.tiering import with_tier_presets


def tiny_config(profile, tiers):
    config = MachineConfig(
        llc=CacheConfig(size_bytes=8 * KIB, ways=2),
        tlb=TLBConfig(entries=4),
        memory=MemoryConfig(dram_frames=12),
        scheduler=SchedulerConfig(
            max_time_slice_ns=200 * US, min_time_slice_ns=20 * US
        ),
    )
    if profile != "none":
        config = with_fault_profile(config, profile)
    if tiers is not None:
        names, placement, promote_threshold = tiers
        config = with_tier_presets(
            config, names, placement=placement,
            promote_threshold=promote_threshold,
        )
    return config


@st.composite
def tiny_trace(draw):
    n = draw(st.integers(4, 40))
    base = 0x40_0000
    instructions = []
    for i in range(n):
        kind = draw(st.sampled_from(["load", "store", "compute", "branch"]))
        if kind == "compute":
            instructions.append(
                Compute(dst=i % 16, srcs=((i + 1) % 16,), cycles=draw(st.integers(1, 50)))
            )
            continue
        if kind == "branch":
            instructions.append(Branch(srcs=(i % 16,), taken=draw(st.booleans())))
            continue
        page = draw(st.integers(0, 19))
        offset = draw(st.integers(0, 63)) * 64
        vaddr = base + page * 4096 + offset
        if kind == "load":
            instructions.append(Load(dst=i % 16, vaddr=vaddr))
        else:
            instructions.append(Store(src=i % 16, vaddr=vaddr))
    # Guarantee at least one memory touch.
    instructions.append(Load(dst=0, vaddr=base))
    return instructions


@st.composite
def workload_sets(draw):
    count = draw(st.integers(1, 3))
    priorities = draw(
        st.lists(st.integers(0, 39), min_size=count, max_size=count, unique=True)
    )
    return [
        WorkloadInstance(
            name=f"w{i}", trace=draw(tiny_trace()), priority=priorities[i]
        )
        for i in range(count)
    ]


policy_names = st.sampled_from(list(POLICY_FACTORIES))
# A fault-free profile, the paper's bimodal tail, and the DMA-error
# profile: between them they reach the demotion, retry and jitter paths.
profile_names = st.sampled_from(["none", "tail_bimodal", "flaky_dma"])


@st.composite
def tier_setups(draw):
    """Single-device storage (None), or two/three tiers under every
    placement, with and without threshold migration."""
    if draw(st.booleans()):
        return None
    names = draw(
        st.sampled_from(
            [("ull", "nvme"), ("ull", "far_memory"), ("nvme", "far_memory", "ull")]
        )
    )
    placement = draw(st.sampled_from(["pid_hash", "round_robin", "hot_cold"]))
    # hot_cold pages leave the cold tier only by promotion.
    thresholds = [1, 2, 4] if placement == "hot_cold" else [0, 1, 2, 4]
    return names, placement, draw(st.sampled_from(thresholds))


@given(
    workload_sets(), policy_names, profile_names, tier_setups(), st.booleans()
)
@settings(max_examples=100, deadline=None)
def test_fast_engine_bit_identical(workloads, policy_name, profile, tiers, observed):
    def build():
        return Simulation(
            tiny_config(profile, tiers),
            workloads,
            POLICY_FACTORIES[policy_name](),
            batch_name="prop",
            telemetry=Telemetry(causal=True) if observed else None,
        )

    windowed, oracle = build(), build()
    assert not windowed._per_record
    assert result_to_dict(windowed.run()) == result_to_dict(
        oracle._run_per_record()
    )
    if observed:
        seen, expected = windowed.telemetry, oracle.telemetry
        assert list(seen.tracer) == list(expected.tracer)
        assert seen.registry.snapshot() == expected.registry.snapshot()
        assert seen.causal.nodes == expected.causal.nodes
