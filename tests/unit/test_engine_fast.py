"""Unit tests for the windowed commit path (docs/MODEL.md, "How a run
commits records").

The contract under test is bit-identity: for every shape a single-core
``Simulation.run()`` commits through windows, it must produce the same
``SimulationResult`` *and* leave the machine in the same state as the
per-record reference path (``Simulation._run_per_record``).  The
crafted traces here aim at the window boundaries where control passes
to the per-record code: faults on the first and last record of a
window, back-to-back faults, zero-length fast-forwards at slice/event
cuts.
"""

import pytest

from repro.analysis.experiments import POLICY_FACTORIES
from repro.analysis.store import result_to_dict
from repro.common.config import (
    CacheConfig,
    MachineConfig,
    MemoryConfig,
    SchedulerConfig,
    TLBConfig,
    with_cores,
)
from repro.common.units import KIB, US
from repro.cpu.isa import Branch, Compute, Load, Store
from repro.sim.simulator import (
    _COMPUTE,
    _LOAD,
    _STORE,
    Simulation,
    WorkloadInstance,
    build_columns,
)
from repro.telemetry import Telemetry

PAGE = 4096


def tiny_config(**overrides) -> MachineConfig:
    config = MachineConfig(
        llc=CacheConfig(size_bytes=8 * KIB, ways=2),
        tlb=TLBConfig(entries=4),
        memory=MemoryConfig(dram_frames=12),
        scheduler=SchedulerConfig(
            max_time_slice_ns=200 * US, min_time_slice_ns=20 * US
        ),
    )
    if overrides:
        import dataclasses

        config = dataclasses.replace(config, **overrides)
    return config


def load(page, offset=0):
    return Load(dst=1, vaddr=0x40_0000 + page * PAGE + offset)


def store(page, offset=0):
    return Store(src=1, vaddr=0x40_0000 + page * PAGE + offset)


def run_both(traces, policy="Sync", config=None, priorities=None, observed=False):
    """Build two identical simulations of the same workloads.

    The first is run per record, the second windowed; the deep-equality
    helper below runs both and compares them.  ``observed`` attaches a
    ``Telemetry(causal=True)`` handle to each.
    """
    if config is None:
        config = tiny_config()
    factory = POLICY_FACTORIES[policy]

    def build():
        workloads = [
            WorkloadInstance(
                name=f"w{i}",
                trace=list(trace),
                priority=(priorities[i] if priorities else i),
            )
            for i, trace in enumerate(traces)
        ]
        telemetry = Telemetry(causal=True) if observed else None
        return Simulation(
            config, workloads, factory(), batch_name="t", telemetry=telemetry
        )

    oracle, windowed = build(), build()
    assert not windowed._per_record
    return oracle, windowed


def assert_bit_identical(oracle, windowed):
    ref_result = oracle._run_per_record()
    fast_result = windowed.run()
    assert result_to_dict(fast_result) == result_to_dict(ref_result)
    # Deep machine state, beyond the published result payload: TLB
    # content *and* LRU order, TLB counters, LLC counters, page tables.
    assert list(windowed.machine.tlb._entries.items()) == list(
        oracle.machine.tlb._entries.items()
    )
    assert windowed.machine.tlb.stats == oracle.machine.tlb.stats
    assert (
        windowed.machine.hierarchy.llc.stats
        == oracle.machine.hierarchy.llc.stats
    )
    for process in oracle.processes:
        pid = process.pid
        assert (
            windowed.machine.memory.mm_of(pid).page_table.stats
            == oracle.machine.memory.mm_of(pid).page_table.stats
        )
    return ref_result


class TestBuildColumns:
    TRACE = [
        Compute(dst=0, cycles=3),
        Load(dst=1, vaddr=5 * PAGE + 64),
        Branch(srcs=(1,), taken=True),
        Store(src=2, vaddr=9 * PAGE + 128),
        Compute(dst=0, cycles=2),
    ]

    def test_columns(self):
        columns = build_columns(self.TRACE, 12, PAGE - 1, 10)
        assert list(columns.kind) == [_COMPUTE, _LOAD, _COMPUTE, _STORE, _COMPUTE]
        # compute_ns=10: costs are 30, 0, 10, 0, 20 -> prefix sums.
        assert list(columns.cum) == [0, 30, 30, 40, 40, 60]
        assert list(columns.vpn) == [0, 5, 0, 9, 0]
        assert list(columns.off) == [0, 64, 0, 128, 0]
        # next_mem[i]: first non-compute index >= i, else len(trace).
        assert list(columns.next_mem) == [1, 1, 3, 3, 5, 5]


def watcher():
    """A Sync policy with an instruction hook the windows do not know."""
    from repro.baselines.sync_io import SyncIOPolicy

    class Watcher(SyncIOPolicy):
        def on_instruction_complete(self, sim, process, instr, step):
            pass

    return Watcher()


class TestForceReference:
    """Shapes that need one record per step must take the per-record
    reference path for the whole run."""

    def workloads(self):
        return [
            WorkloadInstance(
                name="w", trace=[load(p) for p in range(6)], priority=0
            )
        ]

    def build(self, config=None, policy=None, **kwargs):
        return Simulation(
            config or tiny_config(),
            self.workloads(),
            policy or POLICY_FACTORIES["Sync"](),
            batch_name="t",
            **kwargs,
        )

    def test_single_core_defaults_use_fast_path(self):
        assert not self.build()._per_record

    def test_smp_forces_reference(self):
        assert self.build(with_cores(tiny_config(), 2))._per_record

    def test_observers_keep_windows(self):
        # A telemetry handle sees nothing a window cannot emit.
        assert not self.build(telemetry=Telemetry())._per_record
        assert not self.build(telemetry=Telemetry(causal=True))._per_record

    def test_unknown_instruction_hook_forces_reference(self):
        assert self.build(policy=watcher())._per_record

    def test_forced_reference_still_bit_identical(self):
        # An unknown instruction hook forces the per-record path; the
        # result must match the windowed run of the same workloads.
        forced = self.build(policy=watcher())
        assert forced._per_record
        assert result_to_dict(forced.run()) == result_to_dict(self.build().run())


class TestBatchBoundaries:
    """Crafted traces hitting the window-cut edges."""

    @pytest.mark.parametrize("policy", ["Sync", "ITS"])
    def test_fault_on_first_record(self, policy):
        # The very first record of the first window is a cold touch: the
        # window must exit through the exact per-record fault path
        # before any batch state accumulates.
        traces = [[load(0)] + [Compute(dst=0, cycles=2)] * 8 + [load(1)]]
        assert_bit_identical(*run_both(traces, policy=policy))

    @pytest.mark.parametrize("policy", ["Sync", "ITS"])
    def test_fault_on_last_record(self, policy):
        # The fault is the trace's final record: the finish path runs
        # directly out of a fault window.
        traces = [[Compute(dst=0, cycles=2)] * 8 + [load(0), load(1)]]
        assert_bit_identical(*run_both(traces, policy=policy))

    @pytest.mark.parametrize("policy", ["Sync", "ITS", "Adaptive"])
    def test_back_to_back_faults(self, policy):
        # Every record is a cold touch to a distinct page — more pages
        # than DRAM frames, so the run faults *and* evicts continuously
        # and no window commits more than one record.
        traces = [
            [load(p) for p in range(20)],
            [store(p) for p in range(20, 40)],
        ]
        result = assert_bit_identical(*run_both(traces, policy=policy))
        # ITS/Adaptive prefetching converts some majors into minors, but
        # the cold stream must still fault somewhere.
        assert result.major_faults >= 10

    def test_zero_length_fast_forward_at_slice_cut(self):
        # A compute run long enough to exhaust the slice several times:
        # the window must cut exactly where the per-record path
        # preempts, including the degenerate cut after zero records.
        traces = [
            [load(0)] + [Compute(dst=0, cycles=1000)] * 400,
            [load(1)] + [Compute(dst=0, cycles=1000)] * 400,
        ]
        ref_result = assert_bit_identical(*run_both(traces))
        assert all(p.context_switches > 0 for p in ref_result.processes)

    def test_same_page_streak_with_interleaved_stores(self):
        # Repeat loads/stores to one page exercise the streak shortcut;
        # the page switch and the TLB-capacity page set exercise its
        # reset.
        trace = []
        for p in (0, 0, 1, 1, 1, 0, 2, 3, 4, 5, 0, 2):
            trace.append(load(p, offset=(p * 64) % PAGE))
            trace.append(store(p, offset=(p * 128) % PAGE))
        assert_bit_identical(*run_both([trace]))

    @pytest.mark.parametrize("policy", list(POLICY_FACTORIES))
    def test_mixed_workload_every_policy(self, policy):
        # A blend of all record kinds across three processes, enough
        # pages to spill the tiny DRAM, under every registered policy.
        def mix(base):
            trace = []
            for i in range(30):
                trace.append(load((base + i) % 16))
                trace.append(Compute(dst=i % 8, cycles=1 + i % 5))
                trace.append(Branch(srcs=(i % 8,), taken=i % 2 == 0))
                trace.append(store((base + 2 * i) % 16, offset=64))
            return trace

        traces = [mix(0), mix(5), mix(11)]
        assert_bit_identical(
            *run_both(traces, policy=policy, priorities=[30, 10, 20])
        )


class TestObservedWindows:
    """An attached handle keeps the windows and records the stream the
    per-record path records."""

    @pytest.mark.parametrize("policy", list(POLICY_FACTORIES))
    def test_same_stream_as_per_record(self, policy):
        # Re-touching a spilled page set under a prefetching policy
        # lands minor faults inside windows.
        traces = [
            [load(p) for p in range(16)] * 2,
            [store(p + 4, offset=64) for p in range(8)] * 3,
        ]
        oracle, windowed = run_both(traces, policy=policy, observed=True)
        result = assert_bit_identical(oracle, windowed)
        seen, expected = windowed.telemetry, oracle.telemetry
        assert list(seen.tracer) == list(expected.tracer)
        assert seen.registry.snapshot() == expected.registry.snapshot()
        assert seen.causal.nodes == expected.causal.nodes
        minors = seen.tracer.of_name("minor_fault")
        assert len(minors) == result.minor_faults
