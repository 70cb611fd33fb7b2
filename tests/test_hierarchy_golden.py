"""Hand-derived golden traces for the two-level L1I -> L2 hierarchy.

The differential suites prove the engines agree with each other; these
cases pin down what they must agree *on*.  Each trace is small enough to
follow by hand on a 2-set L1I (direct-mapped, LRU) in front of a 2-set,
2-way EMISSARY L2 with ``hp_threshold=1``, ``prob_inv=1`` (a fill that
is eligible always wins candidacy while the set has budget) and
``min_l1_misses=2``.  Line numbers are chosen so every line except ``B``
maps to set 0 of both levels.

Every case runs on the batched python engine, the compiled kernel
backend, the per-access reference engine, and the streamed engine with
a chunk cut in the middle of the trace.

A hypothesis property closes the file: on both hierarchy engines a
single-core run is the multi-core run with every access on core 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emissary.analysis.sanitizer import Sanitizer
from emissary.api import PolicySpec
from emissary.compiled import CompiledUnavailableError, get_kernels
from emissary.engine import CacheConfig
from emissary.hierarchy import (BatchedHierarchyEngine, HierarchyConfig,
                                HierarchyReferenceEngine)

CONFIG = HierarchyConfig(l1=CacheConfig(num_sets=2, ways=1),
                         l2=CacheConfig(num_sets=2, ways=2))
SPEC = PolicySpec("emissary", {"hp_threshold": 1, "prob_inv": 1,
                               "min_l1_misses": 2})
A, B, C, E = 0, 1, 2, 4  # A, C, E share set 0 of both levels; B is in set 1

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False

ENGINES = ["batched",
           pytest.param("compiled", marks=[
               pytest.mark.needs_compiled,
               pytest.mark.skipif(not COMPILED_AVAILABLE,
                                  reason="no compiled kernel provider")]),
           "reference", "streamed"]


def _addresses(lines):
    return np.array(lines, dtype=np.uint64) * np.uint64(CONFIG.l1.line_size)


def _engine(kind):
    if kind == "reference":
        return HierarchyReferenceEngine(CONFIG)
    backend = "compiled" if kind == "compiled" else "batched"
    return BatchedHierarchyEngine(CONFIG, kernel_backend=backend)


def _cut(n):
    return ((0, n // 2), (n // 2, n))


def _single_core(kind, lines):
    addresses = _addresses(lines)
    if kind == "streamed":
        return _engine(kind).simulate_stream(
            [addresses[lo:hi] for lo, hi in _cut(len(lines))], SPEC, seed=0)
    return _engine(kind).simulate_stream([addresses], SPEC, seed=0)


def _two_cores(kind, lines, cores):
    addresses = _addresses(lines)
    core_ids = np.array(cores, dtype=np.int64)
    if kind == "streamed":
        return _engine(kind).simulate_stream(
            [(addresses[lo:hi], core_ids[lo:hi])
             for lo, hi in _cut(len(lines))], SPEC, num_cores=2, seed=0)
    return _engine(kind).simulate_stream([(addresses, core_ids)], SPEC,
                                         num_cores=2, seed=0)


@pytest.mark.parametrize("kind", ENGINES)
def test_single_core_line_is_hp_eligible_from_its_second_l1_miss(kind):
    """``A C E A B B C E`` on one core.

    L1I set 0 is direct-mapped, so A, C and E evict each other there;
    the second B is an L1I hit.  Miss stream with running L1I miss
    counts: A1 C1 E1 A2 B1 C2 E2.  In L2 set 0:

    * A1, C1 fill low priority (one L1I miss is below the gate); E1
      evicts the LRU low-priority line A.
    * A2 is A's second L1I miss: it evicts C and fills *high* priority.
    * B1 fills set 1 low priority.
    * C2 is eligible too, but the set now holds ``hp_threshold`` HP
      lines, so the victim is the LRU HP line, A (an HP eviction); C2
      then fills high priority.
    * E2 hits: the gate applies at fill time only, so a hit promotes
      nothing.
    """
    result = _single_core(kind, [A, C, E, A, B, B, C, E])
    assert result.l1.hits.tolist() == [False, False, False, False,
                                       False, True, False, False]
    assert result.l2.hits.tolist() == [False, False, False, False,
                                       False, False, True]
    assert result.l2.policy_stats == {
        "hp_threshold": 1, "prob_inv": 1, "min_l1_misses": 2,
        "hp_promotions": 2, "hp_evictions": 1, "hp_lines_final": 1,
        "unique_l1_miss_lines": 4}
    assert result.l1.policy_stats == {}


@pytest.mark.parametrize("kind", ENGINES)
def test_two_cores_count_l1_misses_per_core_and_line(kind):
    """``A0 C0 E0 A1 A0 A1 C0`` (line, core) on two private L1Is.

    Both L1Is miss on A, and each keeps its own count.  Core 0: A, C, E
    thrash its set 0 (counts A1 C1 E1), then A misses again (A2) and C
    again (C2).  Core 1 misses on A once (its count A1), and its second
    A is an L1I hit, even though the access before it in the trace is
    core 0's A.  Shared-L2 miss stream:
    ``A(c0,1) C(c0,1) E(c0,1) A(c1,1) A(c0,2) C(c0,2)``.  In L2 set 0:

    * A, C fill low priority; E evicts the LRU line A.
    * Core 1's A evicts C and fills *low* priority: its count is 1.  A
      count shared by both cores would be 2 here and would promote it.
    * Core 0's A (count 2) hits, and promotes nothing.
    * Core 0's C (count 2) evicts E and fills high priority.
    """
    result = _two_cores(kind, [A, C, E, A, A, A, C], [0, 0, 0, 1, 0, 1, 0])
    assert result.l1.hits.tolist() == [False, False, False, False,
                                       False, True, False]
    assert result.l2.hits.tolist() == [False, False, False, False,
                                       True, False]
    assert result.l2.policy_stats == {
        "hp_threshold": 1, "prob_inv": 1, "min_l1_misses": 2,
        "hp_promotions": 1, "hp_evictions": 0, "hp_lines_final": 1,
        "unique_l1_miss_lines": 4}
    assert result.per_core == [
        {"core": 0, "n": 5, "l1_misses": 5, "l2_misses": 4, "l2_hits": 1,
         "l1_mpki": 1000.0, "l2_mpki": 800.0},
        {"core": 1, "n": 2, "l1_misses": 1, "l2_misses": 1, "l2_hits": 0,
         "l1_mpki": 500.0, "l2_mpki": 500.0}]


@pytest.mark.parametrize("engine_cls", [BatchedHierarchyEngine,
                                        HierarchyReferenceEngine])
@settings(max_examples=25, deadline=None)
@given(policy=st.sampled_from([
           PolicySpec("lru"), PolicySpec("random"), PolicySpec("srrip"), SPEC,
           PolicySpec("emissary", {"hp_threshold": 1, "prob_inv": 2,
                                   "hp_budget": "partitioned"})]),
       lines=st.lists(st.integers(0, 11), min_size=1, max_size=200))
def test_single_core_run_is_the_one_core_multicore_run(engine_cls, policy,
                                                      lines):
    """A single-core run equals a ``num_cores=1`` run with every access
    on core 0: the same hits, counts and policy statistics, and one
    per-core row that is the totals.  Both runs are sanitized."""
    addresses = _addresses(lines)
    solo = engine_cls(CONFIG, sanitizer=Sanitizer()).simulate_stream(
        [addresses], policy, seed=3)
    one = engine_cls(CONFIG, sanitizer=Sanitizer()).simulate_stream(
        [(addresses, np.zeros(len(lines), dtype=np.int64))], policy,
        num_cores=1, seed=3)
    for a, b in ((solo.l1, one.l1), (solo.l2, one.l2)):
        assert np.array_equal(a.hits, b.hits)
        assert (a.n, a.hit_count, a.miss_count) == (b.n, b.hit_count,
                                                    b.miss_count)
        assert a.policy_stats == b.policy_stats
    assert one.per_core == [{
        "core": 0, "n": solo.n, "l1_misses": solo.l1.miss_count,
        "l2_misses": solo.l2.miss_count, "l2_hits": solo.l2.hit_count,
        "l1_mpki": solo.l1_mpki, "l2_mpki": solo.l2_mpki}]
