"""End-to-end tests for the open-loop serving layer (docs/SERVING.md).

What must hold across the whole stack:

* an open-loop run stamps every request through the full lifecycle and
  is bit-reproducible across reruns and worker counts;
* Sync's p99 latency is monotone non-decreasing in offered load (the
  latency-vs-load story `repro serve` tells);
* admission policies visibly shed/defer/demote under a tight cap;
* serving composes with the SMP machine model;
* with the ``ServingConfig`` block left at its disabled default, sweep
  cache keys are bit-identical to what the repo produced before the
  serving layer existed (pinned digests), so no historical cached
  result is orphaned.
"""

import dataclasses

import pytest

from repro.analysis.experiments import run_batch_policy
from repro.analysis.runner import SweepCell, cache_key, run_cells
from repro.analysis.serving import (
    row_from_result,
    run_serving_sweep,
    serving_headline,
)
from repro.analysis.store import result_from_dict, result_to_dict
from repro.analysis.tables import render_serving_table
from repro.common.config import (
    MachineConfig,
    ServingConfig,
    with_cores,
    with_serving,
)
from repro.serving.request import OUTCOME_COMPLETED, OUTCOME_DROPPED
from repro.telemetry import Telemetry

BATCH = "1_Data_Intensive"
SCALE = 0.1


def serve_config(**overrides):
    overrides.setdefault("rate_per_s", 2000.0)
    overrides.setdefault("slo_ms", 2.0)
    return with_serving(MachineConfig(), **overrides)


@pytest.fixture(scope="module")
def sync_run():
    """One shared Sync open-loop run at 2000 req/s."""
    return run_batch_policy(serve_config(), BATCH, "Sync", seed=1, scale=SCALE)


@pytest.fixture(scope="module")
def sweep():
    """One shared rate sweep: Sync and ITS across three offered loads."""
    return run_serving_sweep(
        rates=(500.0, 2000.0, 4000.0),
        policies=("Sync", "ITS"),
        batch=BATCH,
        seed=1,
        scale=SCALE,
    )


class TestOpenLoopRun:
    def test_every_request_runs_the_full_lifecycle(self, sync_run):
        summary = sync_run.serving
        assert summary is not None
        assert summary.arrivals > 0
        # admit_all: nothing shed, the run ends when the last finishes.
        assert summary.dropped == 0
        assert summary.completed == summary.arrivals
        for record in summary.requests:
            assert record.outcome == OUTCOME_COMPLETED
            assert (
                record.arrival_ns
                <= record.enqueue_ns
                <= record.start_ns
                <= record.finish_ns
            )
            assert record.latency_ns > 0
            assert record.latency_ns == record.queue_wait_ns + record.service_ns

    def test_rerun_is_bit_identical(self, sync_run):
        again = run_batch_policy(serve_config(), BATCH, "Sync", seed=1, scale=SCALE)
        assert result_to_dict(again) == result_to_dict(sync_run)

    def test_closed_loop_results_omit_the_serving_key(self):
        result = run_batch_policy(
            MachineConfig(), "No_Data_Intensive", "Sync", seed=1, scale=0.2
        )
        assert result.serving is None
        assert "serving" not in result_to_dict(result)

    def test_serving_payload_round_trips_through_store(self, sync_run):
        payload = result_to_dict(sync_run)
        assert len(payload["serving"]["requests"]) == sync_run.serving.arrivals
        restored = result_from_dict(payload)
        assert restored.serving.requests == sync_run.serving.requests
        assert result_to_dict(restored) == payload

    def test_worker_pool_matches_serial_execution(self):
        cells = [
            SweepCell(
                config=serve_config(rate_per_s=500.0),
                batch=BATCH,
                policy=policy,
                seed=1,
                scale=SCALE,
            )
            for policy in ("Sync", "ITS")
        ]
        serial = run_cells(cells)
        pooled = run_cells(cells, workers=2)
        assert [result_to_dict(r) for r in serial] == [
            result_to_dict(r) for r in pooled
        ]


class TestLatencyVsLoad:
    def test_sync_p99_is_monotone_in_offered_load(self, sweep):
        p99s = [
            next(row for row in sweep[rate] if row.policy == "Sync").p99_ns
            for rate in sorted(sweep)
        ]
        assert all(a <= b for a, b in zip(p99s, p99s[1:])), p99s

    def test_rows_cover_the_grid(self, sweep):
        assert sorted(sweep) == [500.0, 2000.0, 4000.0]
        for rate, rows in sweep.items():
            assert [row.policy for row in rows] == ["Sync", "ITS"]
            for row in rows:
                assert row.rate_per_s == rate
                assert row.arrivals == row.completed + row.dropped
                assert 0.0 <= row.attainment <= 1.0
                assert row.p50_ns <= row.p95_ns <= row.p99_ns

    def test_rate_sweep_compresses_one_schedule(self, sweep):
        # Same serving seed at every rate: the arrival count grows with
        # the offered load (the same uniforms, compressed).
        arrivals = [sweep[rate][0].arrivals for rate in sorted(sweep)]
        assert arrivals[0] < arrivals[1] < arrivals[2]

    def test_table_and_headline_render(self, sweep):
        table = render_serving_table(sweep)
        assert "offered load 500 req/s" in table
        assert "offered load 4000 req/s" in table
        assert "Sync" in table and "ITS" in table
        head = serving_headline(sweep)
        assert head is not None
        assert head.rate_per_s == 4000.0
        assert head in sweep[4000.0]

    def test_row_from_result_matches_summary(self, sync_run):
        row = row_from_result(sync_run)
        assert row.policy == "Sync"
        assert row.arrivals == sync_run.serving.arrivals
        assert row.p99_ns == sync_run.serving.p99_ns
        assert row.attainment == sync_run.serving.attainment


class TestAdmissionUnderLoad:
    def run_with(self, admission, queue_cap):
        config = serve_config(admission=admission, queue_cap=queue_cap)
        return run_batch_policy(config, BATCH, "Sync", seed=1, scale=SCALE)

    def test_drop_sheds_over_the_cap(self, sync_run):
        result = self.run_with("drop", 2)
        summary = result.serving
        assert summary.arrivals == sync_run.serving.arrivals  # same schedule
        assert summary.dropped > 0
        assert summary.completed + summary.dropped == summary.arrivals
        for record in summary.requests:
            if record.outcome == OUTCOME_DROPPED:
                assert record.enqueue_ns is None
                assert record.finish_ns is None
                assert record.deadline_missed
        # Shed load means the survivors wait less than the admit-all run.
        assert summary.p99_ns <= sync_run.serving.p99_ns

    def test_defer_delays_but_never_sheds(self, sync_run):
        summary = self.run_with("defer", 2).serving
        assert summary.deferrals > 0
        assert summary.dropped == 0
        assert summary.completed == summary.arrivals
        deferred = [r for r in summary.requests if r.deferrals]
        assert deferred
        for record in deferred:
            # The arrival stamp survives deferral; latency keeps accruing.
            assert record.enqueue_ns >= record.arrival_ns + 200_000

    def test_demote_admits_at_the_floor_priority(self, sync_run):
        summary = self.run_with("demote", 2).serving
        assert summary.dropped == 0
        assert summary.completed == summary.arrivals
        demoted = [r for r in summary.requests if r.demoted]
        assert demoted
        # Demoted requests entered the queue immediately (no deferrals).
        assert all(r.deferrals == 0 for r in demoted)


    @pytest.mark.parametrize("admission", ["drop", "defer", "demote"])
    def test_event_counters_match_the_summary(self, admission):
        telemetry = Telemetry()
        config = serve_config(admission=admission, queue_cap=2)
        summary = run_batch_policy(
            config, BATCH, "Sync", seed=1, scale=SCALE, telemetry=telemetry
        ).serving
        snap = telemetry.registry.snapshot()

        def events(kind):
            return snap.get(f"events.{kind}", 0)

        assert summary.dropped + summary.deferrals + summary.demoted > 0
        assert events("request_arrival") == summary.arrivals
        assert events("request_done") == summary.completed
        assert events("request_drop") == summary.dropped
        assert events("request_demote") == summary.demoted
        assert events("request_defer") == summary.deferrals
        assert events("request_admit") == summary.arrivals - summary.dropped
        assert events("deadline_miss") == sum(
            1
            for r in summary.requests
            if r.outcome == OUTCOME_COMPLETED and r.deadline_missed
        )


class TestServingOnSMP:
    def test_two_core_run_completes_and_replays(self):
        config = with_cores(serve_config(rate_per_s=500.0), 2)
        first = run_batch_policy(config, BATCH, "Sync", seed=1, scale=SCALE)
        summary = first.serving
        assert summary is not None
        assert summary.completed == summary.arrivals > 0
        again = run_batch_policy(config, BATCH, "Sync", seed=1, scale=SCALE)
        assert result_to_dict(again) == result_to_dict(first)


class TestCacheKeyContract:
    # Digests recorded before the serving layer existed (default
    # MachineConfig, 1_Data_Intensive, seed 1, scale 0.2).  If one of
    # these moves, every previously cached result is orphaned.
    SEED_DIGESTS = {
        "ITS": "6a50da2424f49f20b1ec536a29c882339af854b9ace480f71c119cbbd4010966",
        "Sync": "91e1e4ff33f2da8dd5b059e2563f0739cfb65ec63ca06ef83630c7a5b5a0ddd8",
    }

    def make_cell(self, policy, config=None):
        return SweepCell(
            config=config or MachineConfig(),
            batch=BATCH,
            policy=policy,
            seed=1,
            scale=0.2,
        )

    def test_disabled_serving_keys_bit_identical_to_seed(self):
        for policy, digest in self.SEED_DIGESTS.items():
            assert cache_key(self.make_cell(policy)) == digest

    def test_explicit_default_block_also_hashes_identically(self):
        config = dataclasses.replace(MachineConfig(), serving=ServingConfig())
        assert (
            cache_key(self.make_cell("ITS", config)) == self.SEED_DIGESTS["ITS"]
        )

    def test_enabled_serving_changes_the_key(self):
        assert (
            cache_key(self.make_cell("ITS", with_serving(MachineConfig())))
            != self.SEED_DIGESTS["ITS"]
        )

    def test_every_offered_rate_gets_its_own_key(self):
        keys = {
            cache_key(self.make_cell("ITS", serve_config(rate_per_s=rate)))
            for rate in (500.0, 2000.0, 4000.0)
        }
        assert len(keys) == 3
