"""Pinned SHA-256 digests of simulated outcomes (the outcome ledger).

The differential suites prove that the engines agree with each other;
these digests prove that a refactor of the engines changes no outcome
at all.  Each digest hashes a run's hit vectors (L1 then L2 for a
hierarchy) and its canonical policy statistics, so a change to any
single access's hit/miss outcome, or to any policy counter, fails the
pin.

Two grids are pinned:

- the hierarchy grid: the paper-style geometry (a 64x8 LRU L1I in
  front of a 1024x8 L2) under every policy variant, over the ``loop``
  (a footprint of 1.5x the L2), ``call`` and ``shift`` traces and a
  2:1 two-core interleave, at 200k and 1M accesses;
- the flat cells: a one-chunk :meth:`BatchedEngine.simulate_stream`
  (single- and two-core, with a cost channel) and the per-access
  :meth:`ReferenceEngine.simulate_stream` on a short prefix.

Hit vectors are hashed as one byte per access and the statistics as
sorted-key JSON, so the digests do not depend on the host.
"""

import hashlib
import json
from typing import Any

import numpy as np
import pytest

from emissary.api import PolicySpec, SimRequest, simulate
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.hierarchy import HierarchyConfig
from emissary.traces import InterleaveSpec, TraceSpec

HIER = HierarchyConfig(l1=CacheConfig(num_sets=64, ways=8),
                       l2=CacheConfig(num_sets=1024, ways=8))
FLAT = CacheConfig(num_sets=1024, ways=8)
POLICIES = {
    "lru": PolicySpec("lru"),
    "srrip": PolicySpec("srrip"),
    "random": PolicySpec("random"),
    "emissary": PolicySpec("emissary", {"min_l1_misses": 2}),
    "emissary_partitioned": PolicySpec(
        "emissary", {"min_l1_misses": 2, "hp_budget": "partitioned"}),
}
SEED = 11
#: Accesses the per-access reference engine runs.
REFERENCE_PREFIX = 20_000


def trace(kind: str, n: int) -> Any:
    """The trace spec of one grid column at ``n`` accesses."""
    if kind == "loop":
        return TraceSpec("loop", n, 7, {"footprint_lines": 12288})
    if kind == "mix":
        first = 2 * n // 3
        return InterleaveSpec(cores=(trace("loop", first),
                                     TraceSpec("call", n - first, 8)),
                              weights=(2, 1))
    return TraceSpec(kind, n, 7)


def digest(hit_vectors: list[Any], stats: list[dict[str, Any]]) -> str:
    h = hashlib.sha256()
    for hits in hit_vectors:
        h.update(np.ascontiguousarray(hits, dtype=np.uint8).tobytes())
        h.update(b"|")
    h.update(json.dumps(stats, sort_keys=True).encode())
    return h.hexdigest()


#: (policy, trace kind, n) -> digest of a batched hierarchy run.
HIERARCHY_DIGESTS = {
    ("lru", "loop", 200000):
        "8a39ec947111470e53a0c962f8f8ef01ef27604907d6381b7b15baa907328fdc",
    ("lru", "loop", 1000000):
        "f01bd0ee2ea06aa637b12b1d627dcd3bce2a23b7a99aa0ef2b8f784fe0b86c91",
    ("lru", "call", 200000):
        "8815fb2f6a42ca4b427ae3b015cb5631bb2ca43cbb1c009a4318bbe8194560b9",
    ("lru", "call", 1000000):
        "6e6f22226a0173baad946399b0a5c26c6e72c78a3cf84940e0af02df399a5a61",
    ("lru", "shift", 200000):
        "da60166c51fb74a1476d2d0ed0eda144777821da26dd03d7c17ed83e3fba6a2a",
    ("lru", "shift", 1000000):
        "7cfba46650e829669ced603fd5e11a1a1a5abf05a759646ea31fe59090824f82",
    ("lru", "mix", 200000):
        "7c387d7862ffaebb8d349bc297b660a6d55f13199be2c263046e66f60f205d00",
    ("lru", "mix", 1000000):
        "e790579cf8bd4596f7b8e41b1197291aab14a223f156cfd1fa47d72c55af9356",
    ("srrip", "loop", 200000):
        "9f78a62dda54fdc140a5b80b629f65bb1d6d040637cee962da444ce7c5293696",
    ("srrip", "loop", 1000000):
        "296f21741a10caf572936fdeeb8f037615c0275dec0e49cc4ae312539676aa52",
    ("srrip", "call", 200000):
        "8815fb2f6a42ca4b427ae3b015cb5631bb2ca43cbb1c009a4318bbe8194560b9",
    ("srrip", "call", 1000000):
        "6e6f22226a0173baad946399b0a5c26c6e72c78a3cf84940e0af02df399a5a61",
    ("srrip", "shift", 200000):
        "780159f2505f24958b713232e2741e536ae02ac37d6e80be29a238c2df5d9f31",
    ("srrip", "shift", 1000000):
        "7cfba46650e829669ced603fd5e11a1a1a5abf05a759646ea31fe59090824f82",
    ("srrip", "mix", 200000):
        "3bce74b6a03632233c642a62d37b50adbe6e442c25fa000ba1c447bff8045f8e",
    ("srrip", "mix", 1000000):
        "1bd056d0994a3bd32ed7c05e68d361c63a42683d68d9caca85b5580d5a0981c2",
    ("random", "loop", 200000):
        "56ba995d9508fe2e843d951540b6ffd39e6a37cd3f53258a66eb94e1464051e0",
    ("random", "loop", 1000000):
        "5bb6740ce7862914215206471711001f78aa39c23c0b679fb8efdea22fd274ca",
    ("random", "call", 200000):
        "8815fb2f6a42ca4b427ae3b015cb5631bb2ca43cbb1c009a4318bbe8194560b9",
    ("random", "call", 1000000):
        "6e6f22226a0173baad946399b0a5c26c6e72c78a3cf84940e0af02df399a5a61",
    ("random", "shift", 200000):
        "7ff4645093ac17c568a2ad489530499b7ed27832ae48188f1eb6e0f402b4e66b",
    ("random", "shift", 1000000):
        "2b9a84505b7c946e0d6fcf8f2ba91edd204f0f8a78b1ee037aa6463d76e46404",
    ("random", "mix", 200000):
        "bc1f353b2569b3f53c7811503c3e676e97570ee3ef2e44ffd8e538b226a861a5",
    ("random", "mix", 1000000):
        "8c4ba316177b0636151bd246795c5ff22f6459f4959958bc72dd65bf8f2842b9",
    ("emissary", "loop", 200000):
        "189ae9321e70b7d846f47c68ea0fdc6118021d4b52b6e0bc6e71b4d048692233",
    ("emissary", "loop", 1000000):
        "2f4322ea1001cd9e16ecd10d158c506419c6880c0d11de3447c82edddac85820",
    ("emissary", "call", 200000):
        "0fa563fea9f42e829c7413e265f0d69f6c5b50800218e69d3c2a05af413071a7",
    ("emissary", "call", 1000000):
        "f51f0f90064c0e0731eb33db544e20290378ad0ed943ab0e70f7fdeaf96005c6",
    ("emissary", "shift", 200000):
        "f3f510ec8ac8d34940283295ce01d8f3ff5d0f10fa7d55d9a133ecdab0d412db",
    ("emissary", "shift", 1000000):
        "3d52fe4faafa430b410b5c2d6a6657eec323c75aa63a7c6c24e05c5212524d9d",
    ("emissary", "mix", 200000):
        "ae537a6f09976e361c8790d1d0e74631c131bdad629cbed62d44f9ac156aa0c7",
    ("emissary", "mix", 1000000):
        "0fbf98ba4c7c2c4f9b6be4145e25c09988dade0492b6e95536f68efabccc42fc",
    ("emissary_partitioned", "loop", 200000):
        "358a51e37773cc7e6098b3d46aa7da01255175a98240a1d52537d6d8c42d5a4c",
    ("emissary_partitioned", "loop", 1000000):
        "91b1d267dc9e2c4f69c27e3e15c3ceaf6ea2577f73ad9b9462906f38fce481b8",
    ("emissary_partitioned", "call", 200000):
        "253ddc73c0bb981152d72bc9e1d25af35cf646f59d4a534c5b045da55aa11f7d",
    ("emissary_partitioned", "call", 1000000):
        "da9a8adb80e03cd2c1887530a210ee2923f12669d74f281797893eaf52e34b72",
    ("emissary_partitioned", "shift", 200000):
        "a06ec240e9ed29b555e21010d6d5076181bd10e1f787fa2ef0e5b8f6a86acd0f",
    ("emissary_partitioned", "shift", 1000000):
        "8167e742d6d1fec26526c335020dbdc2a796503b62efe1846d14e825bebb7795",
    ("emissary_partitioned", "mix", 200000):
        "5e224b18f4057352104143937f1de3e1c2566754d713d5ea3064bf2180af5a71",
    ("emissary_partitioned", "mix", 1000000):
        "a26fa004f053084609d1ba03d98cd20e30cda3786e87ed41ae4a083ce2bd9237",
}

#: (engine, policy, cell) -> digest of a flat run.
FLAT_DIGESTS = {
    ("batched", "lru", "loop"):
        "4392b113f47bab0e93aca425e222beffdfb3ff29f8f090f1a3bbe05fe8523687",
    ("batched", "lru", "loop-cost"):
        "4392b113f47bab0e93aca425e222beffdfb3ff29f8f090f1a3bbe05fe8523687",
    ("batched", "lru", "mix"):
        "2ab4bc388a199eaf2c5649059415f17490258805481b3fa72aced12cefc38280",
    ("batched", "srrip", "loop"):
        "427082b5aac825b191827bc4c903e486449a169d4b2a57f13e8e7cfa5a8d9779",
    ("batched", "srrip", "loop-cost"):
        "427082b5aac825b191827bc4c903e486449a169d4b2a57f13e8e7cfa5a8d9779",
    ("batched", "srrip", "mix"):
        "418d29777ea1a917a151e71ec8e95d35e8ccaeed03d8c7b7a2c05e81f51f7c3d",
    ("batched", "random", "loop"):
        "0ec76d52ebdc252050ce2fa6c848fc3f6f7df3f0ad24435ebb65172a8b4aaba4",
    ("batched", "random", "loop-cost"):
        "0ec76d52ebdc252050ce2fa6c848fc3f6f7df3f0ad24435ebb65172a8b4aaba4",
    ("batched", "random", "mix"):
        "1ea8002456c9bd9e7f98be9f80cc68d124e104808e2095346434fb3d04ac67c5",
    ("batched", "emissary", "loop"):
        "84356d3150ac30062496026a24b1d16f9d857b4fe797ef91581eeb1835d7351f",
    ("batched", "emissary", "loop-cost"):
        "e3fc8ee4797817ff80f8fcfd0879ff0565d3f6f7e8d78f2f62ebc6ec50a730b6",
    ("batched", "emissary", "mix"):
        "db0471db4a3aa09d1a77b552c8b0ac872f71327d4b2879df668ef34c9d523400",
    ("batched", "emissary_partitioned", "loop"):
        "438c203abba406fdd8d49bdde53bb626adbe32e148b039819d3c9273f39829eb",
    ("batched", "emissary_partitioned", "loop-cost"):
        "cea6b179cfa9bc8c2d99304ae3497c8cafafd20fcc02bd1e26d70b1c48a8f161",
    ("batched", "emissary_partitioned", "mix"):
        "73d646bafcdebe3aad49be8c3786eb33c4b9541801df0313fd383c1a76bbef58",
    ("reference", "lru", "loop"):
        "4b681ae6db7b456a2866f81906edbc50305600da8167f013dc7587a4620e1d05",
    ("reference", "lru", "loop-cost"):
        "4b681ae6db7b456a2866f81906edbc50305600da8167f013dc7587a4620e1d05",
    ("reference", "lru", "mix"):
        "4323bcdcd702a271adafd44da1aa780c945bb54b96b3bfde10fd3c967dbdadfc",
    ("reference", "srrip", "loop"):
        "4b681ae6db7b456a2866f81906edbc50305600da8167f013dc7587a4620e1d05",
    ("reference", "srrip", "loop-cost"):
        "4b681ae6db7b456a2866f81906edbc50305600da8167f013dc7587a4620e1d05",
    ("reference", "srrip", "mix"):
        "4323bcdcd702a271adafd44da1aa780c945bb54b96b3bfde10fd3c967dbdadfc",
    ("reference", "random", "loop"):
        "4b681ae6db7b456a2866f81906edbc50305600da8167f013dc7587a4620e1d05",
    ("reference", "random", "loop-cost"):
        "4b681ae6db7b456a2866f81906edbc50305600da8167f013dc7587a4620e1d05",
    ("reference", "random", "mix"):
        "4323bcdcd702a271adafd44da1aa780c945bb54b96b3bfde10fd3c967dbdadfc",
    ("reference", "emissary", "loop"):
        "78bb4f5105c9344f7840e2bc41e77de8b84dd64ade3da68ae3362586ce4b3d96",
    ("reference", "emissary", "loop-cost"):
        "6493ff8113d0d9d75126eff6946926dba393ce50ab55b7d892d239c482e56952",
    ("reference", "emissary", "mix"):
        "854d249ef2d7a9be2613ba6c5ac7a33ac4043a8e02c8d3a7965150dc7336beb0",
    ("reference", "emissary_partitioned", "loop"):
        "44c1e4a57eb07e2c11ef24cd98a4b0aa6c93a2929d6f9456f432848b7fde06c2",
    ("reference", "emissary_partitioned", "loop-cost"):
        "b1a55e66b290e66760ea8607c49f727b28d4998579b6159b1f7d1e0543651b1f",
    ("reference", "emissary_partitioned", "mix"):
        "f4785f82da5a5b9ae6173708ceb3c5f29fe80464e7166700ff9c17a625778299",
}


@pytest.mark.parametrize("key", sorted(HIERARCHY_DIGESTS), ids=str)
def test_hierarchy_outcome_digest(key):
    policy, kind, n = key
    result = simulate(SimRequest(trace(kind, n), POLICIES[policy], HIER,
                                 seed=SEED))
    got = digest([result.l1.hits, result.l2.hits],
                 [result.l1.policy_stats, result.l2.policy_stats])
    assert got == HIERARCHY_DIGESTS[key]


def flat_inputs(cell: str) -> tuple[tuple[Any, Any, Any], int | None]:
    """The chunk item ``(addresses, core_ids, cost)`` and core count of a
    flat cell: ``loop`` plain, ``loop-cost`` with a per-access cost
    channel, and ``mix`` a two-core interleave with core ids and costs."""
    if cell == "mix":
        addrs, core = trace("mix", 200_000).generate()
        cost = (np.arange(len(addrs), dtype=np.int64) % 5) + 1
        return (addrs, core, cost), 2
    addrs = trace("loop", 200_000).generate()
    if cell == "loop-cost":
        return (addrs, None, (np.arange(len(addrs)) % 3) + 1), None
    return (addrs, None, None), None


@pytest.mark.parametrize("key", sorted(FLAT_DIGESTS), ids=str)
def test_flat_outcome_digest(key):
    engine, policy, cell = key
    columns, num_cores = flat_inputs(cell)
    if engine == "reference":
        columns = tuple(None if c is None else c[:REFERENCE_PREFIX]
                        for c in columns)
        eng: Any = ReferenceEngine(FLAT)
    else:
        eng = BatchedEngine(FLAT)
    result = eng.simulate_stream([columns], POLICIES[policy],
                                 num_cores=num_cores, seed=SEED)
    assert digest([result.hits], [result.policy_stats]) == FLAT_DIGESTS[key]
