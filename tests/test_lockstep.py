"""The set-parallel lockstep path of the SRRIP, Random and EMISSARY
kernels, and its handoff to the per-set scalar loop.

A dispatch steps in lockstep only while at least ``LANE_FLOOR`` sets
are active (see :mod:`emissary.policies.base`), so the tiny geometries
of the property suites never reach it at the default floor.  Here the
floor is forced down to rerun those properties through the lockstep
path (floor 1) and through a handoff after a few steps (floor 3), and
two deterministic workloads cross the default floor: a dispatch whose
hot set outlives every other set, and a stream whose chunks alternate
between dispatches above and below the floor.
"""

import numpy as np
import pytest

import emissary.policies.base as kernel_base
import test_property_differential as prop
from emissary.analysis.sanitizer import Sanitizer
from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.hierarchy import (BatchedHierarchyEngine, HierarchyConfig,
                                HierarchyReferenceEngine)
from emissary.policies.base import PolicyKernel
from emissary.telemetry import Telemetry

FLAT_POLICIES = [
    PolicySpec("srrip"),
    PolicySpec("random"),
    PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 3}),
]
MULTICORE_POLICIES = [
    PolicySpec("srrip"),
    PolicySpec("emissary", {"hp_threshold": 3, "prob_inv": 2}),
    PolicySpec("emissary", {"hp_threshold": 3, "prob_inv": 2,
                            "hp_budget": "partitioned"}),
]
SPEC_IDS = ["srrip", "random", "emissary"]
MULTICORE_IDS = ["srrip", "emissary", "partitioned"]


def _hot_set_cases(specs, ids):
    """(spec, ways, telemetry) cases of a hot-set hand-off: every spec
    at 4 ways, SRRIP also at 16 (past its packed loop), each with
    telemetry off (the bare id) and on (``-tel``)."""
    cases = [(spec, 4, name) for spec, name in zip(specs, ids)]
    cases.append((PolicySpec("srrip"), 16, "srrip-16way"))
    return [pytest.param(spec, ways, telemetry,
                         id=name + ("-tel" if telemetry else ""))
            for telemetry in (False, True) for spec, ways, name in cases]


#: A power-of-two set count of at least twice the default floor.
WIDE_SETS = 1 << (2 * kernel_base.LANE_FLOOR - 1).bit_length()

#: The properties run with the floor forced down.  Their geometries
#: have 2 to 8 sets: at 1 every step is in lockstep, at 3 the narrow
#: tail of each dispatch goes to the scalar loop.
PROPERTIES = [
    prop.test_flat_batched_matches_reference,
    prop.test_hierarchy_batched_matches_reference,
    prop.test_stream_matches_oneshot,
    prop.test_hierarchy_stream_matches_oneshot,
    prop.test_multicore_batched_matches_reference,
    prop.test_multicore_stream_matches_oneshot,
    prop.test_partitioned_budget_equals_shared_on_one_core,
    prop.test_shared_budget_ignores_core_ids,
    prop.test_multicore_folds_match_no_collapse,
]


@pytest.mark.parametrize("floor", [1, 3])
@pytest.mark.parametrize("prop_test", PROPERTIES,
                         ids=[p.__name__ for p in PROPERTIES])
def test_properties_at_low_floor(monkeypatch, floor, prop_test):
    monkeypatch.setattr(kernel_base, "LANE_FLOOR", floor)
    prop_test()


def _hot_set_trace(num_sets, per_set, hot_factor, seed, pool=6):
    """Round-robin accesses over ``num_sets`` sets, ``per_set`` each,
    except set 0, which gets ``hot_factor`` times as many.  Each set
    walks a pool of ``pool`` tags in random steps that never repeat a
    tag, so no access folds away and a set of ``pool - 2`` ways both
    hits and evicts."""
    rng = np.random.default_rng(seed)
    rounds = per_set * hot_factor
    tags = np.cumsum(rng.integers(1, pool, (rounds, num_sets)),
                     axis=0) % pool
    sets = np.broadcast_to(np.arange(num_sets), (rounds, num_sets))
    keep = (sets == 0) | (np.arange(rounds)[:, None] < per_set)
    lines = tags[keep] * num_sets + sets[keep]
    return lines.astype(np.uint64) * np.uint64(64)


def _spy_dispatch(monkeypatch):
    """Record, per ``run_sets`` call of the SRRIP, Random and EMISSARY
    kernels, the accesses dispatched, the lockstep steps taken and the
    sets the scalar loop finished."""
    calls = []
    run_sets = PolicyKernel.run_sets

    def spy_run_sets(self, sets, starts, ends, lines, *args):
        calls.append({"accesses": len(lines), "steps": 0, "scalar": []})
        return run_sets(self, sets, starts, ends, lines, *args)

    def spy_lockstep(inner):
        def lockstep(self, lanes, active, *args):
            calls[-1]["steps"] = len(active)
            return inner(self, lanes, active, *args)
        return lockstep

    def spy_scalar(inner):
        def run_set(self, set_index, *args):
            calls[-1]["scalar"].append(set_index)
            return inner(self, set_index, *args)
        return run_set

    monkeypatch.setattr(PolicyKernel, "run_sets", spy_run_sets)
    for cls in PolicyKernel.__subclasses__():
        if "_lockstep" in cls.__dict__:
            monkeypatch.setattr(cls, "_lockstep", spy_lockstep(cls._lockstep))
            monkeypatch.setattr(cls, "run_set", spy_scalar(cls.run_set))
    return calls


@pytest.mark.parametrize("spec,ways,telemetry",
                         _hot_set_cases(FLAT_POLICIES, SPEC_IDS))
def test_hot_set_hands_off_mid_dispatch(monkeypatch, spec, ways, telemetry):
    """One dispatch over at least twice the floor's sets, one of them 10x
    longer:
    the lockstep steps stop when the other sets run out, and the scalar
    loop finishes the hot set from the same state.  Hits, counts and
    policy statistics equal the reference engine's, sanitized, and so
    does every telemetry counter and histogram when instrumented."""
    num_sets = WIDE_SETS
    config = CacheConfig(num_sets=num_sets, ways=ways)
    addresses = _hot_set_trace(num_sets, per_set=12, hot_factor=10, seed=3,
                               pool=ways + 2)
    calls = _spy_dispatch(monkeypatch)
    sanitizer = Sanitizer()
    tels = [Telemetry(), Telemetry()] if telemetry else [None, None]
    batched = BatchedEngine(config, telemetry=tels[0],
                            sanitizer=sanitizer).simulate_stream([addresses],
                                                                 spec, seed=4)
    reference = ReferenceEngine(config, telemetry=tels[1],
                                sanitizer=Sanitizer()).simulate_stream(
        [addresses], spec, seed=4)
    assert np.array_equal(batched.hits, reference.hits)
    assert batched.hit_count == reference.hit_count
    assert batched.policy_stats == reference.policy_stats
    if telemetry:
        assert _policy_payload(tels[0]) == _policy_payload(tels[1])
    # A one-shot run is a one-chunk stream: the hand-off happens in the
    # chunk's dispatch, and the trailing access resolves on its own at
    # the flush.  An instrumented run's counters are checked at the end.
    assert len(calls) == 2
    assert sanitizer.checks == len(calls) + telemetry
    hand_off, flush = calls
    assert hand_off["steps"] == 12
    assert hand_off["scalar"] == [0]
    assert flush["accesses"] == 1


@pytest.mark.parametrize("spec,ways,telemetry",
                         _hot_set_cases(MULTICORE_POLICIES, MULTICORE_IDS))
def test_hot_set_hands_off_in_shared_l2(monkeypatch, spec, ways, telemetry):
    """The same handoff in a two-core shared L2 (the partitioned budget
    reads the core column in both phases), against the reference."""
    num_sets = WIDE_SETS
    config = HierarchyConfig(l1=CacheConfig(num_sets=1, ways=1),
                             l2=CacheConfig(num_sets=num_sets, ways=ways))
    addresses = _hot_set_trace(num_sets, per_set=12, hot_factor=10, seed=5,
                               pool=ways + 2)
    cores = np.random.default_rng(6).integers(0, 2, len(addresses))
    calls = _spy_dispatch(monkeypatch)
    tels = [Telemetry(), Telemetry()] if telemetry else [None, None]
    batched = BatchedHierarchyEngine(config, telemetry=tels[0],
                                     sanitizer=Sanitizer()) \
        .simulate_stream([(addresses, cores)], spec, num_cores=2, seed=4)
    reference = HierarchyReferenceEngine(config, telemetry=tels[1],
                                         sanitizer=Sanitizer()) \
        .simulate_stream([(addresses, cores)], spec, num_cores=2, seed=4)
    assert np.array_equal(batched.l2.hits, reference.l2.hits)
    assert batched.per_core == reference.per_core
    assert batched.l2.policy_stats == reference.l2.policy_stats
    if telemetry:
        assert _policy_payload(tels[0]) == _policy_payload(tels[1])
    l2_calls = [call for call in calls if call["steps"]]
    assert len(l2_calls) == 1 and 0 in l2_calls[0]["scalar"]


def _policy_payload(tel):
    """Counters and histograms, less the engines' own (``engine.*``,
    ``l1.engine.*``, ...), which only the batched engines keep."""
    return ({k: v for k, v in tel.counters.items()
             if "engine." not in k}, tel.histograms)


@pytest.mark.parametrize("floor", [1, 3])
@pytest.mark.parametrize("spec", MULTICORE_POLICIES + [FLAT_POLICIES[1]],
                         ids=MULTICORE_IDS + ["random"])
def test_telemetry_matches_reference_at_low_floor(monkeypatch, floor, spec):
    """Instrumented dispatches step in lockstep too: every counter and
    histogram of a two-core hierarchy run equals the reference
    engine's, and so do the hits."""
    monkeypatch.setattr(kernel_base, "LANE_FLOOR", floor)
    config = HierarchyConfig(l1=CacheConfig(num_sets=4, ways=2),
                             l2=CacheConfig(num_sets=8, ways=4))
    rng = np.random.default_rng(9)
    addresses = (rng.integers(0, 96, 3000) * 64).astype(np.uint64)
    cores = rng.integers(0, 2, len(addresses))
    tels = [Telemetry(), Telemetry()]
    results = [engine(config, telemetry=tel, sanitizer=Sanitizer())
               .simulate_stream([(addresses, cores)], spec, num_cores=2,
                                seed=2)
               for engine, tel in zip((BatchedHierarchyEngine,
                                       HierarchyReferenceEngine), tels)]
    assert np.array_equal(results[0].l2.hits, results[1].l2.hits)
    assert _policy_payload(tels[0]) == _policy_payload(tels[1])


@pytest.mark.parametrize("spec", FLAT_POLICIES, ids=SPEC_IDS)
def test_stream_alternates_wide_and_narrow_dispatches(monkeypatch, spec):
    """Chunks alternate between touching every set (a lockstep
    dispatch) and touching three (a scalar one); state carries across
    both kinds, so the stream equals the one-shot run — hits, policy
    statistics and every telemetry counter and histogram."""
    num_sets = WIDE_SETS
    config = CacheConfig(num_sets=num_sets, ways=4)
    rng = np.random.default_rng(7)
    chunks = []
    for i in range(8):
        width = num_sets if i % 2 == 0 else 3
        sets = np.tile(rng.permutation(num_sets)[:width], 8).astype(np.uint64)
        tags = rng.integers(0, 6, len(sets)).astype(np.uint64)
        chunks.append((tags * np.uint64(num_sets) + sets) * np.uint64(64))
    calls = _spy_dispatch(monkeypatch)
    oneshot_tel, stream_tel = Telemetry(), Telemetry()
    oneshot = BatchedEngine(config, telemetry=oneshot_tel).simulate_stream(
        [np.concatenate(chunks)], spec, seed=8)
    calls.clear()
    sanitizer = Sanitizer()
    streamed = BatchedEngine(config, telemetry=stream_tel,
                             sanitizer=sanitizer).simulate_stream(
        chunks, spec, seed=8)
    assert np.array_equal(streamed.hits, oneshot.hits)
    assert streamed.policy_stats == oneshot.policy_stats
    assert _policy_payload(stream_tel) == _policy_payload(oneshot_tel)
    # Wide chunks step in lockstep, narrow ones only run the scalar loop.
    steps = [call["steps"] for call in calls]
    assert any(steps) and 0 in steps
    # Every dispatch is checked, and so are the counters at the end.
    assert sanitizer.checks == len(calls) + 1
