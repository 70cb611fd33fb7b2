"""Cross-check: the batched set-major engine must produce bit-identical
hit/miss sequences to the naive per-access reference implementation, for
every policy and every trace family.  Test ids keep a ``collapse-``
prefix: every batched run collapses MRU runs.
"""

import numpy as np
import pytest

from emissary.api import PolicySpec, simulate
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine, SimResult
from emissary.policies import POLICY_NAMES
from emissary.traces import TraceSpec

N = 30_000
SEED = 7

POLICY_SPECS = {
    "lru": PolicySpec("lru"),
    "random": PolicySpec("random"),
    "srrip": PolicySpec("srrip"),
    "emissary": PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 8}),
}


def trace_cases():
    cases = {
        "loop": TraceSpec("loop", N, 3, {"footprint_lines": 500}).generate(),
        "shift": TraceSpec("shift", N, 4, {"footprint_lines": 300}).generate(),
        "call": TraceSpec("call", N, 5).generate(),
    }
    rng = np.random.default_rng(1)
    cases["uniform_random"] = rng.integers(0, 1 << 20, N).astype(np.uint64) * 64
    cases["random_with_runs"] = np.repeat(
        rng.integers(0, 1 << 14, N // 4).astype(np.uint64) * 64,
        rng.integers(1, 9, N // 4))[:N]
    return cases


TRACES = trace_cases()


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("trace_name", sorted(TRACES),
                         ids=[f"collapse-{name}" for name in sorted(TRACES)])
def test_batched_matches_reference(policy, trace_name):
    trace = TRACES[trace_name]
    cfg = CacheConfig(num_sets=64, ways=4)
    spec = POLICY_SPECS[policy]
    batched = BatchedEngine(cfg).simulate_stream([trace], spec, seed=SEED)
    reference = ReferenceEngine(cfg).simulate_stream([trace], spec, seed=SEED)
    assert batched.n == reference.n == len(trace)
    assert np.array_equal(batched.hits, reference.hits), (
        f"first divergence at access "
        f"{int(np.argmax(batched.hits != reference.hits))}")
    assert batched.hit_count == reference.hit_count
    assert batched.miss_count == reference.miss_count
    assert batched.policy_stats == reference.policy_stats


@pytest.mark.parametrize("policy", POLICY_NAMES,
                         ids=[f"collapse-{name}" for name in POLICY_NAMES])
def test_batched_matches_reference_with_cost(policy):
    """A synthetic cost vector must not break equivalence — cost-blind
    policies ignore it, EMISSARY gates HP candidacy on it identically in
    both engines."""
    trace = TRACES["call"]
    cfg = CacheConfig(num_sets=64, ways=4)
    cost = np.random.default_rng(9).integers(1, 5, len(trace))
    spec = (PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 4,
                                    "min_l1_misses": 3})
            if policy == "emissary" else POLICY_SPECS[policy])
    batched = BatchedEngine(cfg).simulate_stream(
        [(trace, None, cost)], spec, seed=SEED)
    reference = ReferenceEngine(cfg).simulate_stream([(trace, None, cost)],
                                                     spec, seed=SEED)
    assert np.array_equal(batched.hits, reference.hits)
    assert batched.policy_stats == reference.policy_stats


def test_cost_gating_changes_emissary_outcomes():
    trace = TRACES["loop"]
    cfg = CacheConfig(num_sets=16, ways=8)
    spec = PolicySpec("emissary", {"hp_threshold": 6, "prob_inv": 2,
                                   "min_l1_misses": 2})
    never = BatchedEngine(cfg).simulate_stream(
        [(trace, None, np.ones(len(trace), dtype=np.int64))], spec, seed=SEED)
    always = BatchedEngine(cfg).simulate_stream(
        [(trace, None, np.full(len(trace), 5, dtype=np.int64))], spec,
        seed=SEED)
    assert never.policy_stats["hp_promotions"] == 0
    assert always.policy_stats["hp_promotions"] > 0


def test_cost_length_mismatch_rejected():
    trace = TRACES["loop"]
    with pytest.raises(ValueError):
        BatchedEngine().simulate_stream([(trace, None, np.ones(3))],
                                        POLICY_SPECS["emissary"])
    with pytest.raises(ValueError):
        ReferenceEngine().simulate_stream([(trace, None, np.ones(3))],
                                          POLICY_SPECS["emissary"])


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_seed_reproducibility(policy):
    trace = TRACES["call"]
    a = simulate(trace, POLICY_SPECS[policy], seed=123)
    b = simulate(trace, POLICY_SPECS[policy], seed=123)
    assert np.array_equal(a.hits, b.hits)


def test_different_seeds_differ_for_rng_policies():
    trace = TRACES["uniform_random"][:5000]
    cfg = CacheConfig(num_sets=16, ways=4)
    a = BatchedEngine(cfg).simulate_stream([trace], PolicySpec("random"),
                                           seed=1)
    b = BatchedEngine(cfg).simulate_stream([trace], PolicySpec("random"),
                                           seed=2)
    # Same misses on a cold uniform trace is astronomically unlikely to
    # coincide hit-for-hit once the sets are warm under different victims.
    assert a.n == b.n
    # Deterministic policies must not depend on the seed at all.
    c = BatchedEngine(cfg).simulate_stream([trace], PolicySpec("lru"), seed=1)
    d = BatchedEngine(cfg).simulate_stream([trace], PolicySpec("lru"), seed=2)
    assert np.array_equal(c.hits, d.hits)


def test_empty_trace():
    result = simulate(np.empty(0, dtype=np.uint64), PolicySpec("lru"))
    assert result.n == 0
    assert result.hit_count == 0
    assert result.mpki == 0.0


def test_single_access_trace():
    result = simulate(np.array([0x1000], dtype=np.uint64),
                      POLICY_SPECS["emissary"], seed=3)
    assert result.n == 1
    assert result.miss_count == 1


def test_stats_derivations():
    trace = TRACES["loop"]
    result = simulate(trace, PolicySpec("lru"))
    assert result.hit_count + result.miss_count == result.n
    assert result.hit_rate == pytest.approx(result.hit_count / result.n)
    assert result.mpki == pytest.approx(1000.0 * result.miss_count / result.n)
    d = result.to_dict()
    assert d["policy"] == "lru"
    assert d["accesses_per_s"] > 0


def test_sim_result_round_trips_through_dicts():
    result = simulate(TRACES["call"], POLICY_SPECS["emissary"], seed=SEED)
    rebuilt = SimResult.from_dict(result.to_dict())
    assert rebuilt.to_dict() == result.to_dict()
    assert rebuilt.hits is None  # hit vectors are not serialized


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        simulate(TRACES["loop"], PolicySpec("lru"), engine="gpu")


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(num_sets=1000)  # not a power of two
    with pytest.raises(ValueError):
        CacheConfig(line_size=48)
    with pytest.raises(ValueError):
        CacheConfig(ways=0)


def test_cache_config_round_trips_through_dicts():
    cfg = CacheConfig(num_sets=128, ways=16, line_size=32)
    assert CacheConfig.from_dict(cfg.to_dict()) == cfg
