"""Unit tests for the adaptive I/O-mode controller: estimators, cost
model, hysteresis/confidence gating, and the config cache-key contract."""

import json
import random
import statistics

import pytest

from repro.adaptive import (
    AdaptiveController,
    AdaptivePolicy,
    EwmaEstimator,
    LatencyEstimator,
    Mode,
    ModeCosts,
    P2QuantileEstimator,
    SlidingWindowHistogram,
    estimate_costs,
)
from repro.common.config import AdaptiveConfig, MachineConfig, with_adaptive
from repro.common.errors import ConfigError


class TestEwma:
    def test_first_observation_is_the_value(self):
        est = EwmaEstimator(0.2)
        est.observe(100.0)
        assert est.value == 100.0

    def test_moves_toward_new_observations(self):
        est = EwmaEstimator(0.5)
        est.observe(0.0)
        est.observe(100.0)
        assert est.value == 50.0
        est.observe(100.0)
        assert est.value == 75.0

    def test_none_before_observations(self):
        assert EwmaEstimator(0.2).value is None

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            EwmaEstimator(0.0)
        with pytest.raises(ValueError):
            EwmaEstimator(1.5)


class TestP2Quantile:
    def test_exact_for_small_samples(self):
        est = P2QuantileEstimator(0.5)
        for x in (5.0, 1.0, 3.0):
            est.observe(x)
        assert est.value == 3.0

    def test_median_converges_on_uniform(self):
        est = P2QuantileEstimator(0.5)
        rng = random.Random(42)
        for _ in range(5000):
            est.observe(rng.uniform(0.0, 1000.0))
        assert est.value == pytest.approx(500.0, rel=0.1)

    def test_p95_converges_on_uniform(self):
        est = P2QuantileEstimator(0.95)
        rng = random.Random(7)
        for _ in range(5000):
            est.observe(rng.uniform(0.0, 1000.0))
        assert est.value == pytest.approx(950.0, rel=0.1)

    def test_tracks_bimodal_tail(self):
        # 10% of reads take 10x: p95 must land in the slow mode.
        est = P2QuantileEstimator(0.95)
        rng = random.Random(3)
        for _ in range(5000):
            est.observe(30_000.0 if rng.random() < 0.1 else 3_000.0)
        assert est.value > 20_000.0

    def test_quantile_validated(self):
        with pytest.raises(ValueError):
            P2QuantileEstimator(0.0)
        with pytest.raises(ValueError):
            P2QuantileEstimator(1.0)

    def test_constant_stream_is_exact(self):
        est = P2QuantileEstimator(0.5)
        for _ in range(100):
            est.observe(7.0)
        assert est.value == 7.0


class TestSlidingWindow:
    def test_evicts_beyond_capacity(self):
        hist = SlidingWindowHistogram(4)
        for x in range(10):
            hist.observe(float(x))
        assert len(hist) == 4
        assert hist.total == 10
        assert hist.mean() == statistics.mean([6, 7, 8, 9])

    def test_nearest_rank_quantile(self):
        hist = SlidingWindowHistogram(8)
        for x in (1.0, 2.0, 3.0, 4.0):
            hist.observe(x)
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(1.0) == 4.0

    def test_exceedance(self):
        hist = SlidingWindowHistogram(8)
        for x in (1.0, 2.0, 3.0, 4.0):
            hist.observe(x)
        assert hist.exceedance(2.0) == 0.5
        assert hist.exceedance(100.0) == 0.0

    def test_empty_window(self):
        hist = SlidingWindowHistogram(4)
        assert hist.mean() is None
        assert hist.quantile(0.5) is None
        assert hist.exceedance(1.0) == 0.0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SlidingWindowHistogram(0)


class TestLatencyEstimator:
    def make(self, **kw):
        kw.setdefault("alpha", 0.2)
        kw.setdefault("window", 64)
        return LatencyEstimator(**kw)

    def test_empty_returns_none(self):
        est = self.make()
        assert est.mean() is None
        assert est.quantile(0.5) is None
        assert est.expected_wait(0.3) is None

    def test_small_samples_use_exact_window(self):
        est = self.make()
        for x in (10, 20, 30):
            est.observe(x)
        assert est.quantile(0.5) == 20.0

    def test_expected_wait_blends_p50_and_p95(self):
        est = self.make()
        rng = random.Random(11)
        for _ in range(2000):
            est.observe(30_000 if rng.random() < 0.1 else 3_000)
        p50, p95 = est.quantile(0.5), est.quantile(0.95)
        blended = est.expected_wait(0.3)
        assert blended == pytest.approx(0.7 * p50 + 0.3 * p95)
        # Risk-blending plans above the median under a heavy tail.
        assert blended > p50

    def test_tail_weight_zero_is_median(self):
        est = self.make()
        for x in (10, 20, 30, 40, 50, 60, 70):
            est.observe(x)
        assert est.expected_wait(0.0) == est.quantile(0.5)


class TestCostModel:
    KW = dict(
        kernel_entry_ns=300,
        context_switch_ns=7_000,
        demotion_penalty_ns=10_000,
    )

    def test_sync_wins_tiny_windows_without_payoff(self):
        costs = estimate_costs(
            expected_wait_ns=500.0, steal_value_ns=0.0, ready_count=2, **self.KW
        )
        assert costs.best(Mode.SYNC) is Mode.SYNC
        assert costs.sync_ns == 500.0

    def test_steal_wins_when_payoff_covers_budget(self):
        costs = estimate_costs(
            expected_wait_ns=3_000.0, steal_value_ns=10_000.0, ready_count=2, **self.KW
        )
        # Recoups the full stealable budget: only the entry cost remains.
        assert costs.steal_ns == pytest.approx(600.0)
        assert costs.best(Mode.STEAL) is Mode.STEAL

    def test_payoff_capped_by_budget(self):
        costs = estimate_costs(
            expected_wait_ns=1_000.0, steal_value_ns=1e9, ready_count=2, **self.KW
        )
        # Cannot recoup more than the window minus the entry.
        assert costs.steal_ns >= 2 * self.KW["kernel_entry_ns"]

    def test_async_wins_long_windows_without_payoff(self):
        costs = estimate_costs(
            expected_wait_ns=100_000.0, steal_value_ns=0.0, ready_count=2, **self.KW
        )
        assert costs.async_ns == 2 * 7_000 + 10_000
        assert costs.best(Mode.SYNC) is Mode.ASYNC

    def test_empty_ready_queue_charges_async_the_window(self):
        busy = estimate_costs(
            expected_wait_ns=100_000.0, steal_value_ns=0.0, ready_count=1, **self.KW
        )
        idle = estimate_costs(
            expected_wait_ns=100_000.0, steal_value_ns=0.0, ready_count=0, **self.KW
        )
        assert idle.async_ns == busy.async_ns + 100_000.0

    def test_tie_break_prefers_incumbent(self):
        costs = ModeCosts(sync_ns=10.0, steal_ns=10.0, async_ns=10.0)
        for mode in Mode:
            assert costs.best(mode) is mode


def make_controller(config=None, **kw):
    kw.setdefault("kernel_entry_ns", 300)
    kw.setdefault("context_switch_ns", 7_000)
    kw.setdefault("fault_handler_ns", 500)
    return AdaptiveController(config or AdaptiveConfig(), **kw)


class _Ctx:
    """Stand-in FaultContext: only the two window endpoints matter."""

    def __init__(self, window_ns, at_ns=0):
        self.handler_done_ns = at_ns
        self.io_done_ns = at_ns + window_ns


class TestController:
    def test_cold_controller_falls_back_to_steal(self):
        ctrl = make_controller(AdaptiveConfig(warmup_faults=16))
        assert not ctrl.confident
        assert ctrl.decide(pid=1, ready_count=3) is Mode.STEAL
        assert ctrl.stats.cold == 1

    def test_confidence_gate_opens_after_warmup(self):
        ctrl = make_controller(AdaptiveConfig(warmup_faults=4))
        for _ in range(4):
            ctrl.observe(_Ctx(3_000))
        assert ctrl.confident
        ctrl.decide(pid=1, ready_count=3)
        assert ctrl.stats.cold == 0

    def test_observe_feeds_estimator_not_ground_truth(self):
        ctrl = make_controller()
        ctrl.observe(_Ctx(window_ns=4_000, at_ns=123))
        assert ctrl.estimator.count == 1
        assert ctrl.estimator.mean() == 4_000.0

    def test_long_waits_without_payoff_demote(self):
        config = AdaptiveConfig(warmup_faults=4, min_dwell_faults=2)
        ctrl = make_controller(config)
        for _ in range(8):
            ctrl.observe(_Ctx(200_000))
        for _ in range(8):
            mode = ctrl.decide(pid=1, ready_count=3)
        assert mode is Mode.ASYNC
        assert ctrl.stats.switches == 1

    def test_short_waits_without_payoff_stay_sync_or_steal(self):
        config = AdaptiveConfig(warmup_faults=4, min_dwell_faults=0)
        ctrl = make_controller(config)
        for _ in range(8):
            ctrl.observe(_Ctx(400))
        mode = ctrl.decide(pid=1, ready_count=3)
        assert mode in (Mode.SYNC, Mode.STEAL)

    def test_min_dwell_holds_the_incumbent(self):
        config = AdaptiveConfig(warmup_faults=1, min_dwell_faults=100)
        ctrl = make_controller(config)
        for _ in range(4):
            ctrl.observe(_Ctx(200_000))
        for _ in range(10):
            assert ctrl.decide(pid=1, ready_count=3) is Mode.STEAL
        assert ctrl.stats.held_by_dwell > 0
        assert ctrl.stats.switches == 0

    def test_switch_margin_blocks_marginal_challengers(self):
        # With 500 ns windows SYNC costs 500 vs STEAL's 800 (entry both
        # ways, nothing recouped) — better, but not by the 50% margin,
        # so the incumbent STEAL mode holds.
        config = AdaptiveConfig(
            warmup_faults=1, min_dwell_faults=0, switch_margin=0.5
        )
        ctrl = make_controller(config)
        for _ in range(4):
            ctrl.observe(_Ctx(500))
        assert ctrl.decide(pid=1, ready_count=3) is Mode.STEAL
        assert ctrl.stats.held_by_margin > 0

    def test_modes_tracked_per_process(self):
        config = AdaptiveConfig(warmup_faults=1, min_dwell_faults=0)
        ctrl = make_controller(config)
        for _ in range(4):
            ctrl.observe(_Ctx(200_000))
        ctrl.decide(pid=1, ready_count=3)
        assert ctrl.mode_of(1) is Mode.ASYNC
        # pid 2 never decided: still at the STEAL default.
        assert ctrl.mode_of(2) is Mode.STEAL

    def test_payoff_needs_observations(self):
        ctrl = make_controller()
        ctrl.note_payoff(prefetch_hits=100, stolen_windows=40)
        assert ctrl.steal_value_ns == 0.0  # no wait estimate yet
        ctrl.observe(_Ctx(3_000))
        ctrl.note_payoff(prefetch_hits=100, stolen_windows=40)
        assert ctrl.steal_value_ns == pytest.approx(2.5 * 3_500.0)

    def test_decision_counters_mirror_python_tallies(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        ctrl = make_controller(
            AdaptiveConfig(warmup_faults=2), telemetry=telemetry
        )
        ctrl.decide(pid=1, ready_count=1)
        for _ in range(4):
            ctrl.observe(_Ctx(3_000))
        ctrl.decide(pid=1, ready_count=1)
        snap = telemetry.registry.snapshot()
        assert snap["adaptive.decision.cold"] == ctrl.stats.cold == 1
        assert snap["adaptive.decision.steal"] == ctrl.stats.by_mode[Mode.STEAL]
        assert snap["adaptive.estimate.observations"] == 4
        assert "adaptive.estimate.p50_ns" in snap


class TestAdaptiveConfig:
    def test_defaults_disabled(self):
        assert not AdaptiveConfig().enabled

    def test_validation(self):
        with pytest.raises(ConfigError):
            AdaptiveConfig(ewma_alpha=0.0)
        with pytest.raises(ConfigError):
            AdaptiveConfig(quantile_window=2)
        with pytest.raises(ConfigError):
            AdaptiveConfig(tail_weight=1.5)
        with pytest.raises(ConfigError):
            AdaptiveConfig(switch_margin=1.0)
        with pytest.raises(ConfigError):
            AdaptiveConfig(demotion_penalty_ns=-1)

    def test_default_block_serialises_to_nothing(self):
        data = MachineConfig().to_dict()
        assert "adaptive" not in data

    def test_enabled_block_serialises(self):
        config = with_adaptive(MachineConfig(), warmup_faults=8)
        data = config.to_dict()
        assert data["adaptive"]["enabled"] is True
        assert data["adaptive"]["warmup_faults"] == 8

    def test_round_trip(self):
        config = with_adaptive(MachineConfig(), tail_weight=0.5)
        blob = json.dumps(config.to_dict())
        restored = MachineConfig.from_dict(json.loads(blob))
        assert restored == config

    def test_round_trip_without_block(self):
        config = MachineConfig()
        restored = MachineConfig.from_dict(config.to_dict())
        assert restored.adaptive == AdaptiveConfig()
        assert restored == config

    def test_malformed_dict_raises(self):
        with pytest.raises(ConfigError):
            AdaptiveConfig.from_dict({"no_such_field": 1})

    def test_with_adaptive_forces_enabled(self):
        config = with_adaptive(MachineConfig())
        assert config.adaptive.enabled


class TestAdaptivePolicyUnit:
    def test_name_and_preexec_cache(self):
        policy = AdaptivePolicy()
        assert policy.name == "Adaptive"
        assert policy.uses_preexec_cache

    def test_ablation_kwargs_pass_through(self):
        policy = AdaptivePolicy(prefetch=False, self_sacrifice=False)
        assert not policy.prefetch_enabled
        assert not policy.self_sacrifice_enabled
