"""Unit tests for the open-loop serving layer (docs/SERVING.md).

Covers the pieces in isolation: arrival-process determinism and
moments, nearest-rank/SLO arithmetic, admission-policy dispatch and
observers, the request lifecycle records, and the ServingConfig
validation + cache-key contract.
"""

import dataclasses
import json
import math
import types

import pytest

from repro.common.config import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    MachineConfig,
    ServingConfig,
    with_serving,
)
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRNG
from repro.serving.admission import (
    AdmissionPolicy,
    AdmissionView,
    Decision,
    DeferWhenFull,
    DemoteWhenFull,
    DropWhenFull,
    build_admission,
)
from repro.serving.arrivals import (
    build_arrivals,
    diurnal_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
    trace_arrivals,
)
from repro.serving.request import (
    OUTCOME_COMPLETED,
    OUTCOME_DROPPED,
    Request,
    RequestRecord,
    ServingSummary,
)
from repro.serving.slo import SLO, latency_percentiles, nearest_rank

MS = 1_000_000  # ns


def _gaps(arrivals):
    return [b - a for a, b in zip(arrivals, arrivals[1:])]


def _cv(values):
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(var) / mean


class TestArrivalProcesses:
    def test_poisson_deterministic_in_seed(self):
        a = poisson_arrivals(DeterministicRNG(7), 2000.0, 40 * MS)
        b = poisson_arrivals(DeterministicRNG(7), 2000.0, 40 * MS)
        c = poisson_arrivals(DeterministicRNG(8), 2000.0, 40 * MS)
        assert a == b
        assert a != c
        assert a == sorted(a)
        assert all(0 <= t < 40 * MS for t in a)

    def test_poisson_moments(self):
        # 50k req/s over 100 ms -> ~5000 gaps: enough to pin the mean
        # within 5% and the exponential's unit CV within 10%.
        arrivals = poisson_arrivals(DeterministicRNG(3), 50_000.0, 100 * MS)
        gaps = _gaps(arrivals)
        assert len(gaps) > 3000
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(1e9 / 50_000.0, rel=0.05)
        assert _cv(gaps) == pytest.approx(1.0, abs=0.1)

    def test_rate_sweep_compresses_one_schedule(self):
        # Same seed -> same uniform draws, so doubling the rate halves
        # every gap exactly: a rate sweep is the same traffic replayed
        # at a different compression (the pairing SERVING.md documents).
        slow = poisson_arrivals(DeterministicRNG(11), 1000.0, 40 * MS)
        fast = poisson_arrivals(DeterministicRNG(11), 2000.0, 40 * MS)
        assert len(fast) >= len(slow)
        for i, t in enumerate(slow):
            assert abs(fast[i] - t / 2) <= 1

    def test_mmpp_is_burstier_than_poisson(self):
        rng_kwargs = dict(
            rate_per_s=20_000.0,
            burst_multiplier=8.0,
            mean_dwell_ns=5.0 * MS,
            mean_burst_ns=2.0 * MS,
            duration_ns=200 * MS,
        )
        bursty = mmpp_arrivals(DeterministicRNG(5), **rng_kwargs)
        plain = poisson_arrivals(DeterministicRNG(5), 20_000.0, 200 * MS)
        assert len(bursty) > 500
        # Rate modulation adds variance on top of the exponential's CV=1.
        assert _cv(_gaps(bursty)) > _cv(_gaps(plain))
        assert _cv(_gaps(bursty)) > 1.1

    def test_diurnal_front_loads_one_cycle(self):
        # period == duration stretches one sine cycle across the window:
        # the rate sits above the mid-line for the whole first half.
        duration = 100 * MS
        arrivals = diurnal_arrivals(
            DeterministicRNG(9), 20_000.0, 0.8, duration, duration
        )
        first = sum(1 for t in arrivals if t < duration // 2)
        second = len(arrivals) - first
        assert first > second * 1.3

    def test_trace_replay_clips_to_window(self):
        kept = trace_arrivals((0, 5, 10_000, 40 * MS - 1, 40 * MS, 41 * MS), 40 * MS)
        assert kept == [0, 5, 10_000, 40 * MS - 1]

    def test_build_arrivals_dispatches_on_config(self):
        poisson_cfg = ServingConfig(enabled=True, rate_per_s=2000.0)
        assert build_arrivals(poisson_cfg, DeterministicRNG(7)) == poisson_arrivals(
            DeterministicRNG(7), 2000.0, poisson_cfg.duration_ns
        )
        trace_cfg = ServingConfig(
            enabled=True, arrival="trace", arrivals_ns=(100, 200, 300)
        )
        assert build_arrivals(trace_cfg, DeterministicRNG(7)) == [100, 200, 300]


class TestSLOMath:
    def test_nearest_rank_returns_observed_samples(self):
        values = list(range(1, 101))
        assert nearest_rank(values, 0.50) == 50
        assert nearest_rank(values, 0.99) == 99
        assert nearest_rank(values, 1.0) == 100
        assert nearest_rank(values, 0.001) == 1  # rank floors at 1
        assert nearest_rank([42], 0.99) == 42

    def test_nearest_rank_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            nearest_rank([], 0.5)
        with pytest.raises(ConfigError):
            nearest_rank([1], 0.0)
        with pytest.raises(ConfigError):
            nearest_rank([1], 1.5)

    def test_latency_percentiles_empty_sample(self):
        assert latency_percentiles([]) == {"p50": None, "p95": None, "p99": None}

    def test_attainment_counts_shed_against(self):
        slo = SLO(target_ns=20, percentile=0.75)
        latencies = [5, 10, 20, 30]
        assert slo.attainment(latencies) == pytest.approx(3 / 4)
        assert slo.attainment(latencies, shed=1) == pytest.approx(3 / 5)
        assert slo.met(latencies)
        assert not slo.met(latencies, shed=1)
        assert slo.violations(latencies, shed=2) == 3

    def test_empty_load_attains_trivially(self):
        slo = SLO(target_ns=1)
        assert slo.attainment([]) == 1.0
        assert slo.met([])

    def test_slo_validation(self):
        with pytest.raises(ConfigError):
            SLO(target_ns=0)
        with pytest.raises(ConfigError):
            SLO(target_ns=10, percentile=0.0)
        with pytest.raises(ConfigError):
            SLO(target_ns=10, percentile=1.5)


def _request(rid=0):
    return Request(
        rid=rid, workload="caffe", priority=3, arrival_ns=0, deadline_ns=100
    )


class TestAdmission:
    def test_builder_maps_names_to_policies(self):
        for name, cls in (
            ("admit_all", AdmissionPolicy),
            ("drop", DropWhenFull),
            ("defer", DeferWhenFull),
            ("demote", DemoteWhenFull),
        ):
            cap = 0 if name == "admit_all" else 4
            policy = build_admission(
                ServingConfig(enabled=True, admission=name, queue_cap=cap)
            )
            assert type(policy) is cls
            assert policy.queue_cap == cap

    def test_builder_rejects_unknown_policy(self):
        bogus = types.SimpleNamespace(admission="bogus", queue_cap=1)
        with pytest.raises(ConfigError, match="bogus"):
            build_admission(bogus)

    @pytest.mark.parametrize(
        "name,verdict",
        [("drop", Decision.DROP), ("defer", Decision.DEFER), ("demote", Decision.DEMOTE)],
    )
    def test_shedding_policies_act_at_the_cap(self, name, verdict):
        policy = build_admission(
            ServingConfig(enabled=True, admission=name, queue_cap=4)
        )
        below = AdmissionView(now_ns=0, in_system=3)
        at_cap = AdmissionView(now_ns=0, in_system=4)
        assert policy.decide(_request(), below) is Decision.ADMIT
        assert policy.decide(_request(), at_cap) is verdict

    def test_admit_all_never_sheds(self):
        policy = AdmissionPolicy()
        view = AdmissionView(now_ns=0, in_system=10_000)
        assert policy.decide(_request(), view) is Decision.ADMIT


class TestRequestLifecycle:
    def test_latency_splits_into_wait_and_service(self):
        record = _request().to_record()
        assert record.latency_ns is None
        assert record.queue_wait_ns is None
        assert record.service_ns is None

        req = _request()
        req.enqueue_ns, req.start_ns, req.finish_ns = 10, 40, 90
        req.outcome = OUTCOME_COMPLETED
        record = req.to_record()
        assert record.latency_ns == 90
        assert record.queue_wait_ns == 40
        assert record.service_ns == 50
        assert record.latency_ns == record.queue_wait_ns + record.service_ns
        assert not record.deadline_missed

    def test_deadline_miss_classification(self):
        late = _request()
        late.finish_ns = 150  # deadline_ns == 100
        assert late.deadline_missed
        shed = _request()
        shed.outcome = OUTCOME_DROPPED
        assert shed.deadline_missed  # a drop never finished: always a miss

    def test_summary_census_and_slo(self):
        def record(rid, finish, outcome=OUTCOME_COMPLETED, deferrals=0, demoted=False):
            return RequestRecord(
                rid=rid, workload="xz", priority=1, arrival_ns=0,
                deadline_ns=50, enqueue_ns=0, start_ns=0, finish_ns=finish,
                outcome=outcome, deferrals=deferrals, demoted=demoted,
            )

        summary = ServingSummary(
            arrival="poisson", rate_per_s=100.0, duration_ns=1000,
            slo_target_ns=50, slo_percentile=0.5,
            requests=[
                record(0, 10),
                record(1, 40, deferrals=2),
                record(2, 80, demoted=True),
                record(3, None, outcome=OUTCOME_DROPPED),
            ],
        )
        assert summary.arrivals == 4
        assert summary.completed == 3
        assert summary.dropped == 1
        assert summary.demoted == 1
        assert summary.deferrals == 2
        assert summary.latencies_ns() == [10, 40, 80]
        assert summary.p50_ns == 40
        # 2 of (3 completed + 1 dropped) within 50 ns.
        assert summary.attainment == pytest.approx(0.5)
        assert summary.slo_met  # percentile 0.5
        assert summary.slo_violations == 2
        assert summary.deadline_misses == summary.slo_violations


class TestServingConfigContract:
    def test_disabled_block_vanishes_from_to_dict(self):
        config = MachineConfig()
        assert config.serving == ServingConfig()
        assert not config.serving.enabled
        assert "serving" not in config.to_dict()

    def test_with_serving_forces_enabled_and_serialises(self):
        config = with_serving(MachineConfig(), rate_per_s=1234.0, slo_ms=2.0)
        assert config.serving.enabled
        block = config.to_dict()["serving"]
        assert block["rate_per_s"] == 1234.0
        assert block["slo_ms"] == 2.0

    def test_round_trips_through_json(self):
        config = with_serving(
            MachineConfig(), arrival="trace", arrivals_ns=(100, 200, 300)
        )
        # JSON turns the timestamp tuple into a list; from_dict must
        # normalise it back so configs compare equal.
        data = json.loads(json.dumps(config.to_dict()))
        assert MachineConfig.from_dict(data) == config
        assert MachineConfig.from_dict(MachineConfig().to_dict()) == MachineConfig()

    def test_unit_conversions(self):
        serving = ServingConfig(enabled=True, duration_ms=40.0, slo_ms=2.0)
        assert serving.duration_ns == 40 * MS
        assert serving.slo_target_ns == 2 * MS
        assert serving.period_ns == serving.duration_ns  # period 0 -> window
        assert ServingConfig(enabled=True, period_ms=5.0).period_ns == 5 * MS

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(arrival="uniform"),
            dict(rate_per_s=0.0),
            dict(duration_ms=0.0),
            dict(slo_ms=-1.0),
            dict(slo_percentile=1.5),
            dict(admission="lottery"),
            dict(admission="drop"),  # shedding needs queue_cap >= 1
            dict(arrival="trace"),  # trace needs arrivals_ns
            dict(amplitude=1.0),
            dict(burst_multiplier=0.5),
            dict(defer_ns=0),
        ],
    )
    def test_validation_rejects(self, overrides):
        with pytest.raises(ConfigError):
            ServingConfig(enabled=True, **overrides)

    def test_public_name_catalogues(self):
        assert tuple(ARRIVAL_PROCESSES) == ("poisson", "mmpp", "diurnal", "trace")
        assert tuple(ADMISSION_POLICIES) == ("admit_all", "drop", "defer", "demote")


class TestRequestSchedule:
    def test_build_request_load_pairs_pids_with_rids(self):
        from repro.serving.schedule import build_request_load

        config = with_serving(MachineConfig(), rate_per_s=500.0)
        workloads, requests = build_request_load(
            config, "1_Data_Intensive", seed=1, scale=0.1
        )
        assert len(workloads) == len(requests) > 0
        for rid, (wl, req) in enumerate(zip(workloads, requests)):
            assert req.rid == rid
            assert wl.name == f"{req.workload}#{rid}"
            assert wl.priority == req.priority
            assert req.deadline_ns == req.arrival_ns + config.serving.slo_target_ns

    def test_schedule_is_deterministic_and_seed_sensitive(self):
        from repro.serving.schedule import build_request_load

        config = with_serving(MachineConfig(), rate_per_s=500.0)
        _, first = build_request_load(config, "1_Data_Intensive", seed=1, scale=0.1)
        _, again = build_request_load(config, "1_Data_Intensive", seed=1, scale=0.1)
        _, other = build_request_load(config, "1_Data_Intensive", seed=2, scale=0.1)
        assert [dataclasses.astuple(r) for r in first] == [
            dataclasses.astuple(r) for r in again
        ]
        assert [r.arrival_ns for r in first] != [r.arrival_ns for r in other]

    def test_raising_the_rate_only_appends(self):
        from repro.serving.schedule import build_request_load

        config = with_serving(MachineConfig(), rate_per_s=500.0)
        _, slow = build_request_load(config, "1_Data_Intensive", seed=1, scale=0.1)
        fast_config = with_serving(MachineConfig(), rate_per_s=2000.0)
        _, fast = build_request_load(fast_config, "1_Data_Intensive", seed=1, scale=0.1)
        assert len(fast) > len(slow)
        # Request i keeps its workload and priority at every rate — the
        # paired-comparison property latency-vs-load curves rely on.
        for old, new in zip(slow, fast):
            assert (old.workload, old.priority) == (new.workload, new.priority)

    def test_empty_schedule_is_a_config_error(self):
        from repro.serving.schedule import build_request_load

        config = with_serving(MachineConfig(), rate_per_s=0.001, duration_ms=1.0)
        with pytest.raises(ConfigError, match="empty"):
            build_request_load(config, "1_Data_Intensive", seed=1, scale=0.1)

    def test_disabled_serving_is_rejected(self):
        from repro.serving.schedule import build_request_load

        with pytest.raises(ConfigError, match="enabled"):
            build_request_load(MachineConfig(), "1_Data_Intensive")
