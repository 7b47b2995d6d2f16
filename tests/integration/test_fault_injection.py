"""Integration: the fault layer end-to-end.

The contract under test: ``fault_profile=none`` is bit-identical to a
config that never heard of faults; enabled profiles are deterministic,
produce nonzero injection/demotion telemetry, and shift the crossover.
"""

import dataclasses

import pytest

from repro.analysis.experiments import run_batch_policy, run_tail_sensitivity
from repro.analysis.runner import SweepCell, cache_key
from repro.common.config import FaultConfig, MachineConfig
from repro.faults import with_fault_profile
from repro.telemetry import Telemetry

BATCH = "1_Data_Intensive"
SCALE = 0.1
SEED = 7


class TestNoneProfileBitIdentity:
    def test_results_identical_to_unfaulted_config(self):
        plain = MachineConfig()
        none_profile = with_fault_profile(MachineConfig(), "none")
        assert none_profile == plain
        for policy in ("Sync", "Async", "ITS"):
            a = run_batch_policy(plain, BATCH, policy, seed=SEED, scale=SCALE)
            b = run_batch_policy(none_profile, BATCH, policy, seed=SEED, scale=SCALE)
            assert a == b, policy

    def test_disabled_faults_never_sample(self):
        # An *explicit* but disabled FaultConfig with tail parameters set
        # must also change nothing: Machine only builds an injector when
        # enabled.
        sleeper = dataclasses.replace(
            MachineConfig(),
            faults=FaultConfig(
                enabled=False,
                read_latency_model="bimodal",
                bimodal_slow_prob=0.5,
                bimodal_slow_multiplier=10.0,
            ),
        )
        a = run_batch_policy(MachineConfig(), BATCH, "ITS", seed=SEED, scale=SCALE)
        b = run_batch_policy(sleeper, BATCH, "ITS", seed=SEED, scale=SCALE)
        assert a == b

    def test_cache_key_unchanged_by_none_profile(self):
        cell = lambda cfg: SweepCell(
            config=cfg, batch=BATCH, policy="ITS", seed=SEED, scale=SCALE
        )
        assert cache_key(cell(MachineConfig())) == cache_key(
            cell(with_fault_profile(MachineConfig(), "none"))
        )


class TestFaultyRunsDeterministic:
    @pytest.mark.parametrize("profile", ["tail_bimodal", "flaky_dma", "worst_case"])
    def test_same_config_same_result(self, profile):
        config = with_fault_profile(MachineConfig(), profile)
        a = run_batch_policy(config, BATCH, "ITS", seed=SEED, scale=SCALE)
        b = run_batch_policy(config, BATCH, "ITS", seed=SEED, scale=SCALE)
        assert a == b

    def test_injector_seed_changes_result(self):
        base = with_fault_profile(MachineConfig(), "tail_bimodal")
        reseeded = dataclasses.replace(
            base, faults=dataclasses.replace(base.faults, seed=12345)
        )
        a = run_batch_policy(base, BATCH, "ITS", seed=SEED, scale=SCALE)
        b = run_batch_policy(reseeded, BATCH, "ITS", seed=SEED, scale=SCALE)
        assert a.makespan_ns != b.makespan_ns


class TestTelemetrySurface:
    def test_tail_profile_injects_and_demotes(self):
        telemetry = Telemetry()
        config = with_fault_profile(MachineConfig(), "tail_bimodal")
        run_batch_policy(
            config, BATCH, "ITS", seed=SEED, scale=SCALE, telemetry=telemetry
        )
        assert telemetry.counter("faults.injected.tail").value > 0
        assert telemetry.counter("its.demote.count").value > 0

    def test_flaky_profile_retries(self):
        telemetry = Telemetry()
        config = with_fault_profile(MachineConfig(), "flaky_dma")
        run_batch_policy(
            config, BATCH, "ITS", seed=SEED, scale=SCALE, telemetry=telemetry
        )
        injected = (
            telemetry.counter("faults.injected.crc").value
            + telemetry.counter("faults.injected.timeout").value
            + telemetry.counter("faults.injected.dropped").value
        )
        assert injected > 0
        assert telemetry.counter("io.retry.attempts").value > 0

    def test_clean_run_emits_no_fault_telemetry(self):
        telemetry = Telemetry()
        run_batch_policy(
            MachineConfig(), BATCH, "ITS", seed=SEED, scale=SCALE, telemetry=telemetry
        )
        snapshot = telemetry.registry.snapshot()
        assert not any(
            name.startswith(("faults.", "io.retry.", "its.demote."))
            for name in snapshot
        )


class TestTailSensitivity:
    def test_produces_crossover_rows(self, tmp_path):
        from repro.analysis.runner import ResultCache

        rows = run_tail_sensitivity(
            MachineConfig(),
            profiles=("none", "tail_bimodal"),
            latencies_us=(3, 30),
            batch=BATCH,
            seed=SEED,
            scale=SCALE,
            cache=ResultCache(tmp_path / "cache"),
        )
        assert [r.profile for r in rows] == ["none", "tail_bimodal"]
        for row in rows:
            assert len(row.points) == 2
            assert 0 <= row.sync_wins <= 2
            assert {"Sync", "Async"} <= set(row.points[0].results)
        # At 3 us nominal the idealised device favours Sync; at 30 us
        # Async wins everywhere, so the baseline sees the flip.
        assert rows[0].crossover_us == 30

    def test_rejects_single_policy(self):
        with pytest.raises(Exception):
            run_tail_sensitivity(MachineConfig(), policies=("Sync",))
