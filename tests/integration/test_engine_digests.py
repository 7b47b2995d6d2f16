"""Commit-path equivalence on the paper's own cells.

The unit and property tests cover crafted and random shapes; this file
pins the contract on the real thing: on the seed-digest cell the CI
smoke jobs assert on (``1_Data_Intensive``, seed 1, scale 0.2), the
windowed ``Simulation.run()`` and the per-record reference path must
produce the same result digest for every paper policy plus the adaptive
controller, and the default configuration must keep the pinned
sweep-cache keys.
"""

import pytest

from repro.analysis.experiments import PAPER_POLICIES, POLICY_FACTORIES
from repro.analysis.runner import SweepCell, cache_key, stable_hash
from repro.analysis.store import result_to_dict
from repro.common.config import MachineConfig
from repro.sim.batch import build_batch
from repro.sim.simulator import Simulation

# The same pinned input digests the CI smoke jobs assert on: the seed
# cell's cache key.
SEED_DIGESTS = {
    "ITS": "6a50da2424f49f20b1ec536a29c882339af854b9ace480f71c119cbbd4010966",
    "Sync": "91e1e4ff33f2da8dd5b059e2563f0739cfb65ec63ca06ef83630c7a5b5a0ddd8",
}

POLICIES = tuple(PAPER_POLICIES) + ("Adaptive",)


def run_cell(policy_name, per_record):
    config = MachineConfig()
    batch = build_batch("1_Data_Intensive", seed=1, scale=0.2, config=config)
    sim = Simulation(
        config,
        batch,
        POLICY_FACTORIES[policy_name](),
        batch_name="1_Data_Intensive",
    )
    return sim._run_per_record() if per_record else sim.run()


@pytest.mark.parametrize("policy_name", POLICIES)
def test_result_digest_identical_under_both_engines(policy_name):
    reference = stable_hash(result_to_dict(run_cell(policy_name, per_record=True)))
    windowed = stable_hash(result_to_dict(run_cell(policy_name, per_record=False)))
    assert windowed == reference


@pytest.mark.parametrize("policy_name", sorted(SEED_DIGESTS))
def test_default_engine_keeps_pinned_cache_keys(policy_name):
    key = cache_key(
        SweepCell(
            config=MachineConfig(),
            batch="1_Data_Intensive",
            policy=policy_name,
            seed=1,
            scale=0.2,
        )
    )
    assert key == SEED_DIGESTS[policy_name]
