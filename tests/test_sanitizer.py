"""Tests for the runtime kernel-state sanitizer.

Covers the attach pattern (both engine families, with and without
telemetry), bit-identical outcomes with the sanitizer on, corruption
detection for every policy checker, the whole-run counter consistency
check, and the error payload (set index + access position).
"""

import numpy as np
import pytest

from emissary.analysis.sanitizer import Sanitizer, SanitizerError
from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.hierarchy import (
    BatchedHierarchyEngine,
    HierarchyConfig,
    HierarchyReferenceEngine,
)
from emissary.policies import make_kernel, make_naive
from emissary.telemetry import Telemetry
from emissary.traces import TraceSpec

CONFIG = CacheConfig(num_sets=8, ways=4)
SPECS = [
    PolicySpec("lru"),
    PolicySpec("random"),
    PolicySpec("srrip"),
    PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 4}),
]


@pytest.fixture(scope="module")
def addresses():
    footprint = int(CONFIG.num_sets * CONFIG.ways * 1.5)
    return TraceSpec("loop", 4_000, 11, {"footprint_lines": footprint}).generate()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
def test_batched_sanitized_outcomes_identical(addresses, spec, telemetry):
    baseline = BatchedEngine(CONFIG).simulate_stream([addresses], spec, seed=3)
    sanitizer = Sanitizer()
    tel = Telemetry() if telemetry else None
    result = BatchedEngine(CONFIG, telemetry=tel,
                           sanitizer=sanitizer).simulate_stream([addresses],
                                                                spec, seed=3)
    assert np.array_equal(result.hits, baseline.hits)
    assert sanitizer.checks > 0
    # MRU run collapsing folds immediate repeats, so the dispatched
    # access count is positive but never exceeds the trace length.
    assert 0 < sanitizer.accesses <= len(addresses)
    assert sanitizer.attached == [spec.name]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_reference_sanitized_outcomes_identical(addresses, spec):
    baseline = ReferenceEngine(CONFIG).simulate_stream([addresses[:800]], spec,
                                                       seed=3)
    sanitizer = Sanitizer()
    result = ReferenceEngine(CONFIG, sanitizer=sanitizer).simulate_stream(
        [addresses[:800]], spec, seed=3)
    assert np.array_equal(result.hits, baseline.hits)
    # Every access dispatches on_hit or on_fill, each of which checks.
    assert sanitizer.checks >= len(addresses[:800])


def test_stream_sanitized_matches_oneshot(addresses):
    spec = PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 4})
    oneshot = BatchedEngine(CONFIG).simulate_stream([addresses], spec, seed=3)
    sanitizer = Sanitizer()
    chunks = np.array_split(addresses, 5)
    streamed = BatchedEngine(CONFIG, sanitizer=sanitizer).simulate_stream(
        chunks, spec, seed=3)
    assert np.array_equal(streamed.hits, oneshot.hits)
    assert sanitizer.checks > 0


def test_hierarchy_engines_share_one_sanitizer(addresses):
    spec = PolicySpec("emissary",
                      {"hp_threshold": 2, "prob_inv": 4, "min_l1_misses": 2})
    config = HierarchyConfig(l1=CacheConfig(num_sets=4, ways=2), l2=CONFIG)
    baseline = BatchedHierarchyEngine(config).simulate_stream([addresses],
                                                              spec, seed=3)
    sanitizer = Sanitizer()
    result = BatchedHierarchyEngine(config, sanitizer=sanitizer).simulate_stream(
        [addresses], spec, seed=3)
    assert np.array_equal(result.l1.hits, baseline.l1.hits)
    assert np.array_equal(result.l2.hits, baseline.l2.hits)
    # Both stages attach to the same instance: L1 policy plus L2 policy.
    assert len(sanitizer.attached) == 2
    assert sanitizer.checks > 0

    ref_sanitizer = Sanitizer()
    reference = HierarchyReferenceEngine(
        config, sanitizer=ref_sanitizer).simulate_stream(
            [addresses[:800]], spec, seed=3)
    assert np.array_equal(reference.l1.hits, baseline.l1.hits[:800])
    assert ref_sanitizer.checks > 0


def test_emissary_hp_count_corruption_detected():
    kernel = make_kernel("emissary", num_sets=4, ways=2,
                         hp_threshold=1, prob_inv=2)
    sanitizer = Sanitizer()
    sanitizer.attach_kernel(kernel)
    kernel._hp[0] = 5
    set_0 = (np.array([0]), np.array([0]), np.array([2]))
    with pytest.raises(SanitizerError, match=r"hp_counts\[0\] = 5") as exc:
        kernel.run_sets(*set_0, np.array([4, 8], dtype=np.uint64),
                        np.array([0.9, 0.9]))
    assert exc.value.set_index == 0
    assert exc.value.access_position == 2
    assert "[set 0, access 2]" in str(exc.value)


def _tally_short(kernel):
    kernel._hp_by_pool[0] -= 1


def _owner_outside(kernel):
    kernel._owner[int(np.flatnonzero(kernel._owner[:2] >= 0)[0])] = 7


@pytest.mark.parametrize("budget", ["shared", "partitioned"])
@pytest.mark.parametrize("corrupt,message", [
    (_tally_short, "disagrees with the owner map tally"),
    (_owner_outside, "owner pool 7 outside"),
], ids=["tally", "owner"])
def test_emissary_pool_corruption_detected(budget, corrupt, message):
    """The HP pools of either budget: a per-pool count that disagrees
    with the owners, or an owner naming no pool, is caught after a
    dispatch that only hits."""
    kernel = make_kernel("emissary", num_sets=4, ways=2, hp_threshold=2,
                         prob_inv=1, hp_budget=budget, num_cores=2)
    sanitizer = Sanitizer()
    sanitizer.attach_kernel(kernel)
    set_0 = (np.array([0]), np.array([0]), np.array([2]))
    kernel.run_sets(*set_0, np.array([4, 8], dtype=np.uint64),
                    np.array([0.0, 0.0]))
    corrupt(kernel)
    with pytest.raises(SanitizerError, match=message) as exc:
        kernel.run_sets(*set_0, np.array([4, 8], dtype=np.uint64),
                        np.array([0.0, 0.0]))
    assert exc.value.set_index == 0


@pytest.mark.parametrize("policy", ["srrip", "random"])
def test_flat_duplicate_tag_detected(policy):
    """The flat rows of the SRRIP and Random kernels: a tag smuggled into
    a second way survives a dispatch that evicts nothing."""
    kernel = make_kernel(policy, num_sets=2, ways=4)
    sanitizer = Sanitizer()
    sanitizer.attach_kernel(kernel)
    set_0 = (np.array([0]), np.array([0]))

    def dispatch(tags):
        lines = np.array(tags, dtype=np.uint64) << np.uint64(1)
        return kernel.run_sets(*set_0, np.array([len(tags)]), lines,
                               np.full(len(tags), 0.5),
                               np.zeros(len(tags), dtype=bool))

    dispatch([1, 2])
    kernel._tag[1] = kernel._tag[0]
    with pytest.raises(SanitizerError, match="duplicate resident tags") as exc:
        dispatch([3])
    assert exc.value.set_index == 0


def test_lru_overfull_set_detected():
    kernel = make_kernel("lru", num_sets=2, ways=2)
    closed_form = kernel.run_sets

    def smuggling_run_sets(*args):
        hits = closed_form(*args)
        # Smuggle a third resident line past the eviction logic.
        kernel._size[0] = 3
        return hits

    kernel.run_sets = smuggling_run_sets
    sanitizer = Sanitizer()
    sanitizer.attach_kernel(kernel)
    set_0 = (np.array([0]), np.array([0]), np.array([2]))
    with pytest.raises(SanitizerError, match="exceed 2 ways") as exc:
        kernel.run_sets(*set_0, np.array([2, 4], dtype=np.uint64))
    assert exc.value.set_index == 0
    assert exc.value.access_position == 2


def test_naive_srrip_rrpv_corruption_detected():
    impl = make_naive("srrip", num_sets=2, ways=2)
    sanitizer = Sanitizer()
    sanitizer.attach_naive(impl)
    impl.on_fill(0, 0, 0, 0.5)
    impl.rrpv[1] = 99  # way 1 of set 0; the post-dispatch scan covers the set
    with pytest.raises(SanitizerError, match="RRPV 99"):
        impl.on_hit(0, 0, 1)


def test_naive_random_counts_dispatches_without_checker():
    impl = make_naive("random", num_sets=2, ways=2)
    sanitizer = Sanitizer()
    sanitizer.attach_naive(impl)
    impl.on_fill(0, 0, 0, 0.5)
    impl.on_hit(0, 0, 1)
    assert sanitizer.checks == 2  # stateless policy: count-only wrapping


def _telemetry_with(**counters):
    tel = Telemetry()
    for name, value in counters.items():
        tel.inc(name, value)
    return tel


def test_check_counters_accepts_consistent_payload():
    tel = _telemetry_with(hits=6, misses=4, fills=4, evictions=2,
                          dead_on_fill=1, evictions_hp=1, evictions_lp=1,
                          hp_promotions=3, hp_demotions=2, hp_lines_final=1)
    sanitizer = Sanitizer()
    sanitizer.check_counters(tel, n=10, hit_count=6)
    assert sanitizer.checks == 1


@pytest.mark.parametrize("counters, pattern", [
    ({"hits": 5, "misses": 4, "fills": 4}, "counter hits = 5"),
    ({"hits": 6, "misses": 4, "fills": 9}, "counter fills = 9"),
    ({"hits": 6, "misses": 4, "fills": 4, "evictions": 7},
     "evictions = 7 exceeds fills"),
    ({"hits": 6, "misses": 4, "fills": 4, "evictions": 2, "dead_on_fill": 3},
     "dead_on_fill = 3 exceeds evictions"),
    ({"hits": 6, "misses": 4, "fills": 4, "evictions": 2,
      "evictions_hp": 2, "evictions_lp": 1}, "!= evictions"),
    ({"hp_promotions": 3, "hp_demotions": 1, "hp_lines_final": 1},
     "!= hp_lines_final"),
])
def test_check_counters_rejects_inconsistency(counters, pattern):
    sanitizer = Sanitizer()
    with pytest.raises(SanitizerError, match=pattern):
        sanitizer.check_counters(_telemetry_with(**counters), n=10, hit_count=6)


def test_sanitizer_error_without_location_has_no_suffix():
    err = SanitizerError("boom")
    assert str(err) == "boom"
    assert err.set_index is None and err.access_position is None
