"""Pinned result digests: the simulated outcome of representative cells.

The sweep-cache keys pin a cell's *inputs*, and the windowed-vs-per-record
tests compare two commit paths of the same code; neither pins what a run
*produces*.  This file does: ``stable_hash(result_to_dict(result))`` for

* all six policies at 1, 2 and 4 cores, fault-free and under the
  ``tail_bimodal`` profile, on ``1_Data_Intensive`` (seed 1, scale 0.2);
* ``Async`` and ``Adaptive`` on the open-loop serving shape: 4 cores,
  2000 req/s for 16 ms, ``tail_bimodal``, ``ull`` + ``far_memory`` tiers
  with promotion at 4 (seed 1, scale 0.05);
* ``ITS`` and ``Adaptive`` on a single core over the same two tiers.

Any refactor that moves one of these digests has changed a result, not
just its bookkeeping.  The digests do not depend on ``PYTHONHASHSEED``.
"""

import pytest

from repro.analysis.experiments import POLICY_FACTORIES
from repro.analysis.runner import stable_hash
from repro.analysis.store import result_to_dict
from repro.common.config import MachineConfig, with_cores, with_serving
from repro.faults.profiles import with_fault_profile
from repro.serving.schedule import build_request_load
from repro.sim.batch import build_batch
from repro.sim.simulator import Simulation
from repro.tiering.presets import with_tier_presets

BATCH = "1_Data_Intensive"

GRID_DIGESTS = {
    ("Async", 1, "none"): "d19e4a031a37d3e702737d5ba3b6004dfaa6eaabc34cc53adea835d66ef74fc9",
    ("Async", 1, "tail_bimodal"): "78e7d019e0eaff84d611fb4bf30834a52a0661e5c84545ed4fc891aec2be6a9c",
    ("Async", 2, "none"): "bd1e1816dfa3ad506450c205e1e7f722ba830fe71f6f41179f92b49bc04fc1da",
    ("Async", 2, "tail_bimodal"): "ae3e4926631bb28cb4c9f543893ba36c75b2e9211b2b08850e3fc91923889080",
    ("Async", 4, "none"): "e1b649f4df710714a1dc7065e65695afc702950e501c7e2ff477de386edd8d65",
    ("Async", 4, "tail_bimodal"): "0e1a11eb5d9eb89f7fad75b9a589d239257158dcf790a6478f1f9276aaafaaaa",
    ("Sync", 1, "none"): "8edd38764edf6335b00e82dde641fe69e2f6ce288ce37e0edaea79e93c77a65f",
    ("Sync", 1, "tail_bimodal"): "b382a8cd27b5acdb691fa95bda2db42a7f0a2878c4784117d396622d40caed44",
    ("Sync", 2, "none"): "2d73b83ba0972250d16a2c44ec44d7a20528ee19967f70148ae72062757aca2d",
    ("Sync", 2, "tail_bimodal"): "77780822295f504bc65123a21d53bf15638995a762553a9ec633cf20ae2d7a94",
    ("Sync", 4, "none"): "b336ff43a79a966e356394215b88ffb0f1a7703a266a8bcc0f8cb26443bb940a",
    ("Sync", 4, "tail_bimodal"): "746330a01e8c63103603a2dbb3a71084f31e684775c4a2dc71218f7678881109",
    ("Sync_Runahead", 1, "none"): "5703e0118373d5dc343b45f0424ab2a8186e545e6cf90c1e65732fa00e54aa40",
    ("Sync_Runahead", 1, "tail_bimodal"): "290067e5d558edbb98db0fefead505612d83ece361bb251b6f7ad68b87316b94",
    ("Sync_Runahead", 2, "none"): "6fd3e689e8db8f485c72c61f85ff7323c9d3128ae4c4bc8d43d6c58901eca9da",
    ("Sync_Runahead", 2, "tail_bimodal"): "c619f8b22b58e5063fdd7536debf17d2f4bdfe863cd83906999785cd85e332e4",
    ("Sync_Runahead", 4, "none"): "add2a62c9ff4599fe8760e4fdfa615427b91bd9d49c419e49b90650203c3835c",
    ("Sync_Runahead", 4, "tail_bimodal"): "5f2651ded52e372f484d7427eea4962022b7e0a5f34eebcaf95a6427b7450a97",
    ("Sync_Prefetch", 1, "none"): "1880360b572f6254f9656e51e98cea5073cdc97f1c916ef8fff72d6b6c0dc69c",
    ("Sync_Prefetch", 1, "tail_bimodal"): "54bbf645303a75ef2c519ce2cca635f7f648622e451e8b20c0a2881d04b6c22f",
    ("Sync_Prefetch", 2, "none"): "2eb6bd919748b182aff8d7f77082b4ad38abf592a07a5553c5a0720405d7b710",
    ("Sync_Prefetch", 2, "tail_bimodal"): "ccbc8489ba39cc996a5d87d1dc74fa6df4159968c8de7e949697305608ce687d",
    ("Sync_Prefetch", 4, "none"): "15b5ca70c117e0589e6c4fd578c1681c8af56d6f2d07e0247e5ef38f0bc41fab",
    ("Sync_Prefetch", 4, "tail_bimodal"): "9d8277937b24893a9c4407b99061c37be1a8d0a3815ebf153230ec906fe3c065",
    ("ITS", 1, "none"): "80693c593811868ca4e09b79b70deeaaa63131a1f3c860c8fbf56541db7980a3",
    ("ITS", 1, "tail_bimodal"): "4b03dd8c074200216ca3c8c2aed7590dfad882d118eb34b8de3aa2024d3c9f9c",
    ("ITS", 2, "none"): "91d37f160f3f3cef94943dafea74390fc1b804d57f589d67a4052ab33b8d16ba",
    ("ITS", 2, "tail_bimodal"): "0ad7394d263e05330627e708dc3829f10e4d2f175995cde410a0d3b4293609d8",
    ("ITS", 4, "none"): "dc0af23209722b7ebc04203b59f6f79b54583c5efe29777c30d9b65f793dcb01",
    ("ITS", 4, "tail_bimodal"): "7a1e4b58e3e2a75a163c7c23c66bcd1c8857983ad7a07caa8d698be23d77726f",
    ("Adaptive", 1, "none"): "7b6452ec99b181f81944a9f7d94f0d532e1b211848504c7fcb5bda51795d6a7a",
    ("Adaptive", 1, "tail_bimodal"): "f7a55d29ced710ee2b1d197d37ec7ea0cacd2d78cc7525c74d9b32b84dc82e40",
    ("Adaptive", 2, "none"): "956b4a67ed056ad901c3773850012bb67d54728971435e3b550bdef946d832ac",
    ("Adaptive", 2, "tail_bimodal"): "761dcd693ddd1a09121016f87f64b2cc872b514edb0685427ef38d4098e4eba2",
    ("Adaptive", 4, "none"): "246cb75eccd4a3b317b27f8edebec62af1569e5a75f7245291394047935be9ac",
    ("Adaptive", 4, "tail_bimodal"): "560c39b0619d5220b56b756808f6c9353ddf432a48a9bce056c6b45347fbf903",
}

SERVING_DIGESTS = {
    "Async": "b12f5db4a5551de7d84edee0ac70314d9049656820dce95b86824bbe01623e9e",
    "Adaptive": "7bea0a43a4ae4e8307f97331d5ec407d6c5809527202e5c45ed82fbf068766ac",
}

TIERED_DIGESTS = {
    "ITS": "59f87cd0192203bc71e62413a7a4720b941e75216011bc1648da38c3c04ef1d4",
    "Adaptive": "8221d7248c2e083f778fec28812031479b42359eb790e713e352a243e20ffeb3",
}


def digest(config, policy_name, workloads, requests=None):
    result = Simulation(
        config,
        workloads,
        POLICY_FACTORIES[policy_name](),
        batch_name=BATCH,
        requests=requests,
    ).run()
    return stable_hash(result_to_dict(result))


def test_grid_covers_every_policy():
    assert {policy for policy, _, _ in GRID_DIGESTS} == set(POLICY_FACTORIES)


@pytest.mark.parametrize("policy_name,cores,profile", sorted(GRID_DIGESTS))
def test_grid_cell_digest(policy_name, cores, profile):
    config = with_fault_profile(with_cores(MachineConfig(), cores), profile)
    workloads = build_batch(BATCH, seed=1, scale=0.2, config=config)
    assert digest(config, policy_name, workloads) == GRID_DIGESTS[
        (policy_name, cores, profile)
    ]


@pytest.mark.parametrize("policy_name", sorted(SERVING_DIGESTS))
def test_serving_cell_digest(policy_name):
    config = with_serving(MachineConfig(), rate_per_s=2000.0, duration_ms=16.0)
    config = with_cores(config, 4)
    config = with_fault_profile(config, "tail_bimodal")
    config = with_tier_presets(config, ["ull", "far_memory"], promote_threshold=4)
    workloads, requests = build_request_load(config, BATCH, seed=1, scale=0.05)
    assert (
        digest(config, policy_name, workloads, requests)
        == SERVING_DIGESTS[policy_name]
    )


@pytest.mark.parametrize("policy_name", sorted(TIERED_DIGESTS))
def test_tiered_cell_digest(policy_name):
    config = with_tier_presets(
        MachineConfig(), ["ull", "far_memory"], promote_threshold=4
    )
    workloads = build_batch(BATCH, seed=1, scale=0.2, config=config)
    assert digest(config, policy_name, workloads) == TIERED_DIGESTS[policy_name]
