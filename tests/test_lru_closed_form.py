"""Adversarial differential tests for the closed-form LRU kernel.

The batched LRU kernel decides every hit from the line's reuse window
(:mod:`emissary.policies.lru`), scanning long windows in rounds.  These
properties aim hypothesis at the regimes that stress that scan: long
windows holding few distinct lines (two-line alternations inside another
line's window), windows just under and just over the associativity,
and stream chunk cuts anywhere, including inside a window.  Each example
must match the per-access reference engine on the hit vector, the
counts, and every telemetry counter and histogram.  A deterministic
worst case closes the file.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from emissary.analysis.sanitizer import Sanitizer
from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.telemetry import Telemetry
from emissary.traces import LINE_BYTES

LRU = PolicySpec("lru")

geometries = st.sampled_from([
    CacheConfig(num_sets=1, ways=1),
    CacheConfig(num_sets=1, ways=2),
    CacheConfig(num_sets=1, ways=4),
    CacheConfig(num_sets=2, ways=3),
    CacheConfig(num_sets=4, ways=8),
])

#: Lines come from a pool of 12: a few sets' worth, so windows hold
#: few distinct lines and depths hover around the associativity.
line_ids = st.integers(0, 11)
segments = st.one_of(
    # A two-line alternation: a long window with two distinct lines.
    st.tuples(line_ids, line_ids, st.integers(1, 150)).map(
        lambda t: [t[0], t[1]] * t[2]),
    # A run of one line (MRU repeats, folded by the engine).
    st.tuples(line_ids, st.integers(1, 5)).map(lambda t: [t[0]] * t[1]),
    # A short burst of arbitrary lines.
    st.lists(line_ids, min_size=1, max_size=12),
)
traces = st.lists(segments, min_size=1, max_size=12).map(
    lambda segs: [line for seg in segs for line in seg])


def _addresses(lines):
    return np.asarray(lines, dtype=np.uint64) * np.uint64(LINE_BYTES)


def _policy_payload(tel):
    counters = {k: v for k, v in tel.counters.items()
                if not k.startswith("engine.")}
    return counters, tel.histograms


def _assert_matches_reference(config, addresses, result, tel):
    ref_tel = Telemetry()
    ref = ReferenceEngine(config, telemetry=ref_tel).run(addresses, LRU)
    assert np.array_equal(result.hits, ref.hits)
    assert (result.hit_count, result.miss_count) == (ref.hit_count,
                                                     ref.miss_count)
    assert _policy_payload(tel) == _policy_payload(ref_tel)


@settings(max_examples=150, deadline=None)
@given(config=geometries, lines=traces)
def test_batched_matches_reference(config, lines):
    addresses = _addresses(lines)
    tel = Telemetry()
    result = BatchedEngine(config, telemetry=tel,
                           sanitizer=Sanitizer()).run(addresses, LRU)
    _assert_matches_reference(config, addresses, result, tel)


@settings(max_examples=150, deadline=None)
@given(config=geometries, lines=traces, data=st.data())
def test_stream_with_random_cuts_matches_reference(config, lines, data):
    addresses = _addresses(lines)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(lines)),
                                     max_size=8)))
    chunks = np.split(addresses, cuts)
    tel = Telemetry()
    result = BatchedEngine(config, telemetry=tel, sanitizer=Sanitizer()
                           ).simulate_stream(chunks, LRU)
    _assert_matches_reference(config, addresses, result, tel)


def test_long_alternation_worst_case():
    """In each of 64 sets: lines A1..A6, then 20k alternations of B and
    C, then A1..A6 again (8 ways).  Every second A hits, behind a 40k
    access window with only 7 distinct lines, so each of the 384 A scans
    runs the whole window: the scan's worst case."""
    num_sets, ways = 64, 8
    sets = np.arange(num_sets, dtype=np.uint64)
    a_lines = [sets + np.uint64(num_sets * k) for k in range(1, 7)]
    b_line = sets + np.uint64(num_sets * 7)
    c_line = sets + np.uint64(num_sets * 8)
    steps = a_lines + [b_line, c_line] * 20_000 + a_lines
    addresses = _addresses(np.concatenate(steps))  # set-interleaved
    config = CacheConfig(num_sets=num_sets, ways=ways)
    batched = BatchedEngine(config).run(addresses, LRU)
    ref = ReferenceEngine(config).run(addresses, LRU)
    assert np.array_equal(batched.hits, ref.hits)
    assert batched.miss_count == num_sets * 8  # A1..A6, B, C once each
