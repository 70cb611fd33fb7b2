"""Hand-derived golden traces for the set-order MRU fold.

After the stable set sort, an access to the line last accessed *in its
own set* is an MRU hit that changes no replacement state, so the python
set-major path sends only the first access of each such run to the
kernel.  Each case below is small enough to follow by hand on a 2-set
cache, and each runs one-shot and streamed (with a chunk cut between the
two touches of the folded line), checked against the per-access
:class:`ReferenceEngine`: hit vectors, policy statistics, and every
telemetry counter and histogram outside the engine-internal ``engine.*``
names.
"""

import numpy as np

from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.telemetry import Telemetry

#: 2 sets x 2 ways, 64 B lines: even line numbers map to set 0, odd to set 1.
CONFIG = CacheConfig(num_sets=2, ways=2)
A, B, C, E = 0, 1, 2, 4  # A, C, E share set 0; B lives in set 1


def _addresses(lines):
    return np.array(lines, dtype=np.uint64) * np.uint64(CONFIG.line_size)


def _observable(result):
    counters = {k: v for k, v in result.telemetry["counters"].items()
                if not k.startswith("engine.")}
    return counters, result.telemetry["histograms"]


def _streamed(spec, addresses, core, num_cores):
    """The same trace fed as two chunks split after the second access.

    Every trace below starts ``A B A``: the stream holds each chunk's
    last run back until the next line arrives, so the first A is
    dispatched with chunk one and the second A with chunk two."""
    engine = BatchedEngine(CONFIG, telemetry=Telemetry(), num_cores=num_cores)
    stream = engine.stream(spec, seed=0)
    for lo, hi in ((0, 2), (2, len(addresses))):
        stream.feed(addresses[lo:hi],
                    core=core[lo:hi] if core is not None else None)
    return stream.finish()


def _check_against_reference(spec, lines, expected_hits,
                             kernel_accesses, core=None, num_cores=1):
    addresses = _addresses(lines)
    core_ids = np.array(core, dtype=np.int64) if core is not None else None
    reference = ReferenceEngine(CONFIG, telemetry=Telemetry(),
                                num_cores=num_cores).run(
        addresses, spec, seed=0, core=core_ids)
    oneshot = BatchedEngine(CONFIG, telemetry=Telemetry(),
                            num_cores=num_cores).run(
        addresses, spec, seed=0, core=core_ids)
    streamed = _streamed(spec, addresses, core_ids, num_cores)

    assert reference.hits.tolist() == expected_hits
    for result in (oneshot, streamed):
        assert result.hits.tolist() == expected_hits
        assert result.policy_stats == reference.policy_stats
        assert _observable(result) == _observable(reference)
        counters = result.telemetry["counters"]
        # No two consecutive accesses share a line: trace-order collapse
        # finds nothing, only the set-order fold does.
        assert counters["engine.edge_accesses"] == len(lines)
    # One-shot folds across the whole trace; the chunk cut puts the two
    # touches of A in different dispatches, so nothing folds there.
    assert oneshot.telemetry["counters"]["engine.kernel_accesses"] \
        == kernel_accesses
    assert streamed.telemetry["counters"]["engine.kernel_accesses"] \
        == len(lines)
    return oneshot


def test_lru_second_touch_in_own_set_is_folded():
    """LRU ``A B A``: sorted by set the trace is ``A A | B``, so the
    second A is an MRU repeat and never reaches the kernel.  It still
    counts as one hit on A's line (the folded-hit count rides on the
    first A)."""
    result = _check_against_reference(
        PolicySpec("lru"), [A, B, A],
        expected_hits=[False, False, True], kernel_accesses=2)
    counters = result.telemetry["counters"]
    assert counters["fills"] == 2
    assert counters["hits"] == 1
    assert result.telemetry["histograms"]["resident_line_hits"] \
        == {"0": 1, "1": 1}


def test_srrip_retouched_fill_keeps_its_victim():
    """SRRIP ``A B A C E A`` on set 0 (RRPV max 3, fills insert at 2, a
    hit promotes to 0):

    - A fills and is re-touched (in set order, immediately), so A ends
      at RRPV 0 — the fold passes the repeat flag and the kernel fills
      A straight at 0;
    - C fills at 2, giving ``[A:0, C:2]``;
    - E misses in a full set: aging adds 1 (``[1, 3]``) and C, the first
      way at 3, is the victim.  Had the fold dropped the repeat flag, A
      would sit at 2, aging would give ``[3, 3]`` and A would be evicted;
    - so the final A hits.
    """
    _check_against_reference(
        PolicySpec("srrip"), [A, B, A, C, E, A],
        expected_hits=[False, False, True, False, False, True],
        kernel_accesses=5)


def test_partitioned_emissary_cross_core_hit_keeps_owner():
    """2-core partitioned EMISSARY (``hp_threshold=2`` split 1 + 1,
    ``prob_inv=1`` so every eligible fill promotes): core 0 fills A as
    HP in set 0, core 1 fills B as HP in set 1, then core 1 hits A — a
    folded repeat in set order.  A stays core 0's line, so core 1's set-0
    quota is still free and its fill of C promotes as well."""
    spec = PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 1,
                                   "hp_budget": "partitioned"})
    result = _check_against_reference(
        spec, [A, B, A, C],
        expected_hits=[False, False, True, False], kernel_accesses=3,
        core=[0, 1, 1, 1], num_cores=2)
    stats = result.policy_stats
    assert stats["hp_promotions"] == 3
    assert stats["hp_evictions"] == 0
    assert stats["hp_lines_final"] == 3
    assert stats["hp_lines_final_by_core"] == [1, 2]


def test_collapse_off_folds_nothing():
    """``collapse_runs=False`` disables both folds: every access reaches
    the kernel, with the same outcomes."""
    addresses = _addresses([A, B, A, A, C, E, A])
    spec = PolicySpec("srrip")
    tel = Telemetry()
    plain = BatchedEngine(CONFIG, collapse_runs=False, telemetry=tel).run(
        addresses, spec)
    folded = BatchedEngine(CONFIG, telemetry=Telemetry()).run(addresses, spec)
    assert plain.hits.tolist() == folded.hits.tolist()
    assert tel.counters["engine.kernel_accesses"] == len(addresses)
    assert folded.telemetry["counters"]["engine.kernel_accesses"] == 5
