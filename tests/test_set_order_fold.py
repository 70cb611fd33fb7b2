"""Hand-derived golden traces for the set-order MRU fold and its lag fold.

After the stable set sort, an access to the line last accessed *in its
own set* is an MRU hit that changes no replacement state, so the python
set-major path sends only the first access of each such run to the
kernel.  Each case below is small enough to follow by hand on a 2-set
cache, and each runs one-shot and streamed (with a chunk cut between the
two touches of the folded line), checked against the per-access
:class:`ReferenceEngine`: hit vectors, policy statistics, and every
telemetry counter and histogram outside the engine-internal ``engine.*``
names.  The cases at the end do the same for the lag fold, which drops
interleaved cores' MRU re-touches before the sort, through a 2-core
hierarchy checked against :class:`HierarchyReferenceEngine`.
"""

import numpy as np

from emissary import engine as engine_module
from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.hierarchy import (
    BatchedHierarchyEngine,
    HierarchyConfig,
    HierarchyReferenceEngine,
)
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


# -- the lag fold: interleaved cores' MRU re-touches -----------------------
#
# An engine fed by N interleaved cores also drops, before the set sort,
# edge i when edge i - d (2 <= d <= N + 1) is the same line and no edge
# between them maps to i's set.  The cases below run a 2-core hierarchy
# whose core-virtualised L1I has 4 sets: core 0's even lines map to set
# 0, core 1's odd lines to set 3.  So A, C, E (even) share core 0's set
# and X, Y, Z (odd) share core 1's, and no core-1 access ever blocks a
# core-0 drop.  The last access of a one-shot run is dispatched on its
# own when the stream is flushed, so each trace ends with a core-1 access
# after the touches of interest.

X, Y, Z = 1, 3, 5
HIER = HierarchyConfig(l1=CacheConfig(num_sets=2, ways=2),
                       l2=CacheConfig(num_sets=8, ways=2))
V_L1_SETS = 4


def _spy_lag_fold(monkeypatch):
    """Record the kept edge positions of every L1I lag-fold call."""
    kept = []
    real = engine_module._lag_fold

    def spy(lines, lengths, num_sets, num_cores):
        keep, kept_lengths = real(lines, lengths, num_sets, num_cores)
        if num_sets == V_L1_SETS:
            kept.append(keep.tolist())
        return keep, kept_lengths

    monkeypatch.setattr(engine_module, "_lag_fold", spy)
    return kept


def _two_core(monkeypatch, trace, expected_hits, lag_kept,
              l1_policy="lru", cut=2):
    """Run ``trace`` (``(line, core)`` pairs) one-shot and streamed with
    a chunk cut after access ``cut``, with telemetry off and on, against
    :class:`HierarchyReferenceEngine`; check the one-shot L1I dispatch
    keeps exactly the edges ``lag_kept``.  Returns the reference's and
    the one-shot run's telemetry payloads."""
    config = HierarchyConfig(l1=HIER.l1, l2=HIER.l2, l1_policy=l1_policy)
    addresses = _addresses([line for line, _ in trace])
    core_ids = np.array([core for _, core in trace], dtype=np.int64)
    spec = PolicySpec("lru")
    ref_tel = Telemetry()
    reference = HierarchyReferenceEngine(config, telemetry=ref_tel) \
        .run_multicore(addresses, core_ids, spec, num_cores=2)
    assert reference.l1.hits.tolist() == expected_hits

    kept = _spy_lag_fold(monkeypatch)
    plain = BatchedHierarchyEngine(config).run_multicore(
        addresses, core_ids, spec, num_cores=2)
    assert kept == [lag_kept]
    one_tel = Telemetry()
    runs = [(plain, None),
            (BatchedHierarchyEngine(config, telemetry=one_tel).run_multicore(
                addresses, core_ids, spec, num_cores=2), one_tel)]
    chunks = [(addresses[:cut], core_ids[:cut]),
              (addresses[cut:], core_ids[cut:])]
    for tel in (None, Telemetry()):
        runs.append((BatchedHierarchyEngine(config, telemetry=tel)
                     .simulate_stream_multicore(chunks, spec, num_cores=2),
                     tel))
    ref_d = ref_tel.to_dict()
    for result, tel in runs:
        assert np.array_equal(result.l1.hits, reference.l1.hits)
        assert np.array_equal(result.l2.hits, reference.l2.hits)
        assert result.per_core == reference.per_core
        assert result.l1.policy_stats == reference.l1.policy_stats
        assert result.l2.policy_stats == reference.l2.policy_stats
        if tel is not None:
            d = tel.to_dict()
            assert _hierarchy_observable(d) == _hierarchy_observable(ref_d)
    return ref_d, one_tel.to_dict()


def _hierarchy_observable(payload):
    counters = {k: v for k, v in payload["counters"].items()
                if "engine." not in k}
    return counters, payload["histograms"]


def test_lag_two_retouch_is_dropped(monkeypatch):
    """``A0 X1 A0``: the second A's partner is two edges back and the
    edge between is core 1's, so it is dropped before the sort (and
    would be folded after it)."""
    _two_core(monkeypatch, [(A, 0), (X, 1), (A, 0), (Y, 1)],
              expected_hits=[False, False, True, False], lag_kept=[0, 1])


def test_lag_three_retouch_is_dropped(monkeypatch):
    """``A0 X1 Y1 A0``: core 1 moves on to a new line between A's
    touches, so the partner is three edges back."""
    _two_core(monkeypatch, [(A, 0), (X, 1), (Y, 1), (A, 0), (Z, 1)],
              expected_hits=[False, False, False, True, False],
              lag_kept=[0, 1, 2])


def test_same_set_access_blocks_the_drop(monkeypatch):
    """``A0 X1 C0 A0``: A is three edges back, but C (core 0, even) maps
    to A's set in between, so the last A is no MRU re-touch and stays."""
    _two_core(monkeypatch, [(A, 0), (X, 1), (C, 0), (A, 0), (Y, 1)],
              expected_hits=[False, False, False, True, False],
              lag_kept=[0, 1, 2, 3])


def test_chain_of_drops_keeps_its_root(monkeypatch):
    """``A0 X1 A0 Y1 A0 Z1 A0``: three lag-2 drops chain back to the
    first A.  Core 1's X, Y, Z share one 2-way set, so Z evicts X and
    the final X misses."""
    _two_core(monkeypatch,
              [(A, 0), (X, 1), (A, 0), (Y, 1), (A, 0), (Z, 1), (A, 0),
               (X, 1)],
              expected_hits=[False, False, True, False, True, False, True,
                             False],
              lag_kept=[0, 1, 3, 5])


def test_no_drop_partners_a_smaller_lag_drop(monkeypatch):
    """The lags run in increasing order, and a drop's partner must not
    have been dropped at a smaller lag:

    - ``A0 X1 A0 Y1 Z1 A0``: the last A is a lag-3 re-touch of a lag-2
      drop, so it stays for the set-order fold;
    - ``A0 X1 Y1 A0 Z1 A0``: the last A drops at lag 2 onto the second
      A, which then drops at lag 3 onto the first, taking the last A's
      length with it (A's lifetime has two hits).
    """
    _two_core(monkeypatch,
              [(A, 0), (X, 1), (A, 0), (Y, 1), (Z, 1), (A, 0), (X, 1)],
              expected_hits=[False, False, True, False, False, True, False],
              lag_kept=[0, 1, 3, 4, 5])
    ref_d, _ = _two_core(
        monkeypatch,
        [(A, 0), (X, 1), (Y, 1), (A, 0), (Z, 1), (A, 0), (X, 1)],
        expected_hits=[False, False, False, True, False, True, False],
        lag_kept=[0, 1, 2, 4])
    assert ref_d["histograms"]["l1.resident_line_hits"]["2"] == 1


def test_srrip_lag_dropped_retouch_keeps_its_repeat_flag(monkeypatch):
    """The SRRIP case of ``test_srrip_retouched_fill_keeps_its_victim``
    with core 1 interleaved: the second A is lag-dropped, so the first
    A's repeat flag must come from the chain's length.  With it A fills
    at RRPV 0, E evicts C, and the final A hits; without it A would be
    the victim."""
    _two_core(monkeypatch,
              [(A, 0), (X, 1), (A, 0), (C, 0), (E, 0), (A, 0), (Y, 1)],
              expected_hits=[False, False, True, False, False, True, False],
              lag_kept=[0, 1, 3, 4, 5], l1_policy="srrip")


def test_lag_dropped_runs_count_as_line_hits(monkeypatch):
    """Runs ``A0 A0 | X1 | A0 A0 A0 | Y1 | A0 | X1``: the two later A
    runs are lag-dropped, so their lengths ride on the first run's
    (2 + 3 + 1 = 6 accesses, 5 hits on A's lifetime)."""
    trace = [(A, 0), (A, 0), (X, 1), (A, 0), (A, 0), (A, 0), (Y, 1),
             (A, 0), (X, 1)]
    ref_d, one_d = _two_core(
        monkeypatch, trace,
        expected_hits=[False, True, False, True, True, True, False, True,
                       True],
        lag_kept=[0, 1, 3], cut=3)
    assert one_d["histograms"]["l1.resident_line_hits"] \
        == {"0": 1, "1": 1, "5": 1}
    counters = one_d["counters"]
    assert counters["l1.engine.edge_accesses"] == 6
    # The one-shot L1I dispatch folds the three A edges into one (and
    # the flushed trailing X is a dispatch of its own).
    assert counters["l1.engine.kernel_accesses"] == 4
