"""Telemetry attached to real simulations: invariants across the stack.

The key checks: attaching telemetry must not perturb the simulation
(identical results with and without), the ITS fault-phase spans must
tile their parent span exactly, and the span/metric surfaces must agree
with the simulator's own accounting.
"""

import json
from collections import Counter

import pytest

from repro import MachineConfig, Simulation, Telemetry, build_batch
from repro.analysis.experiments import POLICY_FACTORIES, run_batch_policy
from repro.core import ITSPolicy
from repro.sim.batch import run_batch_instrumented
from repro.telemetry import export_chrome_trace

SCALE = 0.1
BATCH = "2_Data_Intensive"


def _run(policy_name: str, telemetry=None):
    config = MachineConfig()
    return run_batch_policy(
        config, BATCH, policy_name, seed=3, scale=SCALE, telemetry=telemetry
    )


@pytest.mark.parametrize("policy_name", list(POLICY_FACTORIES))
def test_telemetry_does_not_perturb_results(policy_name):
    bare = _run(policy_name)
    instrumented = _run(policy_name, telemetry=Telemetry())
    assert bare.makespan_ns == instrumented.makespan_ns
    assert bare.major_faults == instrumented.major_faults
    assert bare.total_idle_ns == instrumented.total_idle_ns
    assert bare.demand_cache_misses == instrumented.demand_cache_misses


class TestITSFaultPhases:
    """Span identities on an all-self-improving ITS run."""

    PHASES = (
        "fault.handler",
        "fault.its.checkpoint",
        "fault.its.prefetch_walk",
        "fault.its.runahead",
        "fault.its.wait",
        "fault.its.restore",
    )

    @pytest.fixture(scope="class")
    def run(self):
        config = MachineConfig()
        batch = build_batch(BATCH, seed=3, scale=SCALE, config=config)
        telemetry = Telemetry()
        result = Simulation(
            config, batch, ITSPolicy(self_sacrifice=False), telemetry=telemetry
        ).run()
        return config, result, telemetry

    def test_every_major_fault_has_a_parent_span(self, run):
        _config, result, telemetry = run
        assert len(telemetry.tracer.of_name("fault.its")) == result.major_faults

    def test_phases_tile_parent_exactly(self, run):
        _config, _result, telemetry = run
        tracer = telemetry.tracer
        parent_total = tracer.total_duration_ns("fault.its")
        child_total = sum(tracer.total_duration_ns(name) for name in self.PHASES)
        assert child_total == parent_total

    def test_handler_spans_match_configured_cost(self, run):
        config, result, telemetry = run
        handler_total = telemetry.tracer.total_duration_ns("fault.handler")
        assert handler_total == result.major_faults * config.fault_handler_ns

    def test_service_histogram_counts_every_fault(self, run):
        _config, result, telemetry = run
        hist = telemetry.registry.get("fault.service_ns")
        assert hist is not None and hist.count == result.major_faults
        # Every fault's busy window includes the DMA access, so the
        # minimum service time is bounded below by the device latency.
        assert hist.min >= _config_device_floor(run)

    def test_published_gauges_match_result(self, run):
        _config, result, telemetry = run
        snap = telemetry.registry.snapshot()
        assert snap["sim.makespan_ns"] == result.makespan_ns
        assert snap["fault.major"] == result.major_faults
        assert snap["idle.total_ns"] == result.total_idle_ns
        assert snap["overhead.handler_ns"] == result.idle.total_overhead_ns

    def test_event_instants_and_counters_agree(self, run):
        # Nothing dropped, so the events-track instants and the
        # events.* counters are two views of the same stream.
        _config, result, telemetry = run
        assert telemetry.tracer.dropped == 0
        log_counts = Counter(e.name for e in telemetry.tracer.of_track("events"))
        snap = telemetry.registry.snapshot()
        counters = {
            name[len("events."):]: value
            for name, value in snap.items()
            if name.startswith("events.")
        }
        assert counters == dict(log_counts)
        assert log_counts["major_fault"] == result.major_faults
        assert log_counts["minor_fault"] == result.minor_faults


def test_run_batch_instrumented_exports_loadable_trace(tmp_path):
    result, telemetry = run_batch_instrumented(
        BATCH, ITSPolicy(), seed=3, scale=SCALE
    )
    path = export_chrome_trace(telemetry, tmp_path / "its.trace.json")
    with path.open() as f:
        doc = json.load(f)
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"fault.its", "fault.its.runahead", "dma.demand_read"} <= names
    assert doc["otherData"]["metrics"]["sim.makespan_ns"] == result.makespan_ns
    # Chrome's ts/dur are microseconds; the exact ns live in args.
    complete = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    assert complete["ts"] * 1000 == complete["args"]["start_ns"]
    assert complete["dur"] * 1000 == complete["args"]["dur_ns"]


def _config_device_floor(run) -> int:
    """Lower bound on any major-fault service time: one device access."""
    config, _result, _telemetry = run
    return config.device.access_latency_ns
