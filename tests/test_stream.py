"""Streaming (chunked) simulation must be bit-identical to one-shot runs.

The acceptance bar for ``simulate_stream``: for every policy, on both the
flat and the two-level engine, across several chunk sizes — including one
that splits an MRU run across a chunk boundary — the streamed hit vector,
counts, and policy stats equal a one-chunk run of the concatenated
trace.
"""

import numpy as np
import pytest

from emissary.api import PolicySpec
from emissary.compiled import CompiledUnavailableError, get_kernels
from emissary.engine import BatchedEngine, CacheConfig, EngineStream
from emissary.hierarchy import (BatchedHierarchyEngine, HierarchyConfig,
                                MissCountTable)
from emissary.policies import POLICY_NAMES
from emissary.telemetry import Telemetry
from emissary.traces import TraceSpec

CONFIG = CacheConfig(num_sets=64, ways=4)
HIER = HierarchyConfig(l1=CacheConfig(num_sets=16, ways=2),
                       l2=CacheConfig(num_sets=64, ways=4))
# 7 : tiny, every chunk boundary lands mid-whatever; 997 : prime, unaligned;
# 10**9 : one chunk (degenerate case).
CHUNK_SIZES = (7, 997, 10**9)
N = 20_000
SEED = 11

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False


def _spec(policy):
    if policy == "emissary":
        return PolicySpec(policy, {"hp_threshold": 4, "prob_inv": 8})
    return PolicySpec(policy)


def _chunks(addresses, size):
    return [addresses[i:i + size] for i in range(0, len(addresses), size)]


def _trace():
    return TraceSpec("call", N, SEED).generate()


def _assert_same(streamed, oneshot):
    assert streamed.n == oneshot.n
    assert streamed.hit_count == oneshot.hit_count
    assert streamed.miss_count == oneshot.miss_count
    assert np.array_equal(streamed.hits, oneshot.hits)
    assert streamed.policy_stats == oneshot.policy_stats


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_flat_stream_bit_identical(policy, chunk):
    addresses = _trace()
    spec = _spec(policy)
    oneshot = BatchedEngine(CONFIG).simulate_stream([addresses], spec,
                                                    seed=SEED)
    streamed = BatchedEngine(CONFIG).simulate_stream(
        _chunks(addresses, chunk), spec, seed=SEED)
    _assert_same(streamed, oneshot)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_boundary_splits_mru_run(policy):
    """A chunk boundary landing inside a long same-line run must not
    change the run's repeat flag or folded hit count."""
    line = np.uint64(0x400000)
    addresses = np.concatenate([
        np.full(10, line, dtype=np.uint64),          # run of 10 ...
        np.full(7, line + np.uint64(64), np.uint64),
        np.full(10, line, dtype=np.uint64),
    ])
    spec = _spec(policy)
    oneshot = BatchedEngine(CONFIG).simulate_stream([addresses], spec,
                                                    seed=SEED)
    # Split at 4: mid-first-run.  Split at 12: mid-second-run.  Split at
    # 1: every boundary is mid-run somewhere.
    for cut in (1, 4, 12):
        streamed = BatchedEngine(CONFIG).simulate_stream(
            _chunks(addresses, cut), spec, seed=SEED)
        _assert_same(streamed, oneshot)


def test_run_spanning_many_chunks_carries_in_o1():
    """A single MRU run longer than many chunks is carried as one
    compressed (line, u, cost, core, length) tuple, not buffered
    accesses."""
    addresses = np.full(5_000, np.uint64(0x400000))
    spec = _spec("srrip")
    engine = BatchedEngine(CONFIG)
    stream = EngineStream(engine, spec, seed=SEED)
    for chunk in _chunks(addresses, 13):
        stream.feed(chunk)
    assert stream._pending is not None
    assert stream._pending[4] == 5_000  # whole run, one carried tuple
    assert not stream._hit_chunks  # nothing resolved yet
    result = stream.finish()
    oneshot = engine.simulate_stream([addresses], spec, seed=SEED)
    _assert_same(result, oneshot)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_hierarchy_stream_bit_identical(policy, chunk):
    addresses = _trace()
    spec = _spec(policy)
    oneshot = BatchedHierarchyEngine(HIER).simulate_stream([addresses], spec,
                                                           seed=SEED)
    streamed = BatchedHierarchyEngine(HIER).simulate_stream(
        _chunks(addresses, chunk), spec, seed=SEED)
    assert np.array_equal(streamed.l1.hits, oneshot.l1.hits)
    assert np.array_equal(streamed.l2.hits, oneshot.l2.hits)
    assert streamed.l1.hit_count == oneshot.l1.hit_count
    assert streamed.l2.hit_count == oneshot.l2.hit_count
    assert streamed.l2.policy_stats == oneshot.l2.policy_stats


@pytest.mark.parametrize("budget", [None, 1, 64, 1 << 20])
def test_hierarchy_coalescing_budgets_bit_identical(budget):
    """L1-miss coalescing (batching misses up to ``chunk_bytes`` before
    forwarding to L2) must never change outcomes: None forwards every
    chunk's misses immediately, 1 byte degenerates to the same, and a
    large budget defers almost everything to the final flush."""
    addresses = _trace()
    spec = _spec("emissary")
    oneshot = BatchedHierarchyEngine(HIER).simulate_stream([addresses], spec,
                                                           seed=SEED)
    streamed = BatchedHierarchyEngine(HIER).simulate_stream(
        _chunks(addresses, 997), spec, seed=SEED, chunk_bytes=budget)
    assert np.array_equal(streamed.l1.hits, oneshot.l1.hits)
    assert np.array_equal(streamed.l2.hits, oneshot.l2.hits)
    assert streamed.l2.policy_stats == oneshot.l2.policy_stats


def test_hierarchy_coalescing_rejects_nonpositive_budget():
    spec = _spec("lru")
    with pytest.raises(ValueError, match="chunk_bytes"):
        BatchedHierarchyEngine(HIER).simulate_stream(
            _chunks(_trace(), 997), spec, seed=SEED, chunk_bytes=0)


def test_hierarchy_coalescing_reduces_l2_dispatches():
    """The point of the budget: far fewer (larger) L2 batches than L1
    chunks.  Telemetry's stream_chunk spans count the actual batches."""
    addresses = _trace()
    spec = _spec("lru")

    def l2_chunks(budget):
        tel = Telemetry()
        BatchedHierarchyEngine(HIER, telemetry=tel).simulate_stream(
            _chunks(addresses, 97), spec, seed=SEED, chunk_bytes=budget)
        return sum(1 for s in tel.to_dict()["spans"]
                   if s["name"] == "l2.stream_chunk")

    eager, coalesced = l2_chunks(None), l2_chunks(1 << 20)
    assert coalesced < eager


def test_feed_outcomes_concatenate_to_oneshot():
    """feed() returns outcomes for *resolved* accesses only; cumulatively
    they reassemble the exact one-shot hit vector and miss lines."""
    addresses = _trace()
    spec = _spec("lru")
    engine = BatchedEngine(CONFIG)
    oneshot = engine.simulate_stream([addresses], spec, seed=SEED)
    stream = EngineStream(engine, spec, seed=SEED)
    pieces, miss_pieces = [], []
    for chunk in _chunks(addresses, 101):
        hits, miss_lines = stream.feed(chunk)
        pieces.append(hits)
        miss_pieces.append(miss_lines)
    hits, miss_lines = stream.flush()
    pieces.append(hits)
    miss_pieces.append(miss_lines)
    assert np.array_equal(np.concatenate(pieces), oneshot.hits)
    lines = addresses >> np.uint64(CONFIG.offset_bits)
    edge = np.ones(len(lines), dtype=bool)
    edge[1:] = lines[1:] != lines[:-1]
    expect_miss = lines[edge][~oneshot.hits[np.flatnonzero(edge)]]
    assert np.array_equal(np.concatenate(miss_pieces), expect_miss)


def test_telemetry_parity_with_oneshot():
    addresses = _trace()
    spec = _spec("emissary")
    t_run, t_stream = Telemetry(), Telemetry()
    BatchedEngine(CONFIG, telemetry=t_run).simulate_stream([addresses], spec,
                                                           seed=SEED)
    BatchedEngine(CONFIG, telemetry=t_stream).simulate_stream(
        _chunks(addresses, 997), spec, seed=SEED)
    run_d, stream_d = t_run.to_dict(), t_stream.to_dict()
    stream_counters = dict(stream_d["counters"])
    assert stream_counters.pop("engine.stream_chunks") == (N + 996) // 997
    # A one-shot run is a stream of one chunk.
    run_counters = dict(run_d["counters"])
    assert run_counters.pop("engine.stream_chunks") == 1
    # The set-order fold works per dispatch, so how many accesses reach
    # the kernel depends on the chunk cuts (never below the one-shot run).
    assert (stream_counters.pop("engine.kernel_accesses")
            >= run_counters.pop("engine.kernel_accesses"))
    assert stream_counters == run_counters
    assert stream_d["histograms"] == run_d["histograms"]
    names = {s["name"] for s in stream_d["spans"]}
    assert "stream_chunk" in names and "stream_ingest" in names


def test_cost_chunks_match_oneshot_cost():
    addresses = _trace()
    rng = np.random.default_rng(0)
    cost = rng.integers(0, 5, size=len(addresses)).astype(np.int64)
    spec = _spec("emissary")
    oneshot = BatchedEngine(CONFIG).simulate_stream([(addresses, None, cost)],
                                                    spec, seed=SEED)
    stream = EngineStream(BatchedEngine(CONFIG), spec, seed=SEED)
    for chunk, cost_chunk in zip(_chunks(addresses, 313), _chunks(cost, 313)):
        stream.feed(chunk, cost=cost_chunk)
    _assert_same(stream.finish(), oneshot)


def test_keep_hits_false_drops_vector_keeps_counts():
    addresses = _trace()
    spec = _spec("srrip")
    oneshot = BatchedEngine(CONFIG).simulate_stream([addresses], spec,
                                                    seed=SEED)
    streamed = BatchedEngine(CONFIG).simulate_stream(
        _chunks(addresses, 997), spec, seed=SEED, keep_hits=False)
    assert streamed.hits is None
    assert streamed.hit_count == oneshot.hit_count
    assert streamed.policy_stats == oneshot.policy_stats


def test_collapse_runs_false_streams_identically():
    addresses = _trace()
    spec = _spec("lru")
    oneshot = BatchedEngine(CONFIG, collapse_runs=False).simulate_stream(
        [addresses], spec, seed=SEED)
    streamed = BatchedEngine(CONFIG, collapse_runs=False).simulate_stream(
        _chunks(addresses, 251), spec, seed=SEED)
    _assert_same(streamed, oneshot)
    # And collapse on/off agree with each other, streamed or not.
    assert np.array_equal(
        streamed.hits,
        BatchedEngine(CONFIG).simulate_stream(
            _chunks(addresses, 251), spec, seed=SEED).hits)


def test_empty_chunks_are_noops():
    addresses = _trace()
    spec = _spec("lru")
    empty = np.zeros(0, dtype=np.uint64)
    chunks = [empty, *_chunks(addresses, 997), empty]
    streamed = BatchedEngine(CONFIG).simulate_stream(chunks, spec, seed=SEED)
    _assert_same(streamed, BatchedEngine(CONFIG).simulate_stream([addresses],
                                                                 spec,
                                                                 seed=SEED))


def test_stream_lifecycle_errors():
    spec = _spec("lru")
    stream = EngineStream(BatchedEngine(CONFIG), spec, seed=SEED)
    stream.feed(np.full(4, np.uint64(0x400000)))
    stream.flush()
    with pytest.raises(RuntimeError, match="flushed"):
        stream.feed(np.full(4, np.uint64(0x400000)))
    with pytest.raises(RuntimeError, match="flushed"):
        stream.flush()
    # finish() after an explicit flush is fine (idempotent assembly).
    result = stream.finish()
    assert result.n == 4


def _miss_table_cases():
    """Key batches for the miss-count table: small keys, pools spread
    across each 16-bit radix digit boundary (up to the full 64 bits),
    core-virtualized lines, keys near ``2**64 - 1``, one repeated key."""
    rng = np.random.default_rng(7)
    yield rng.integers(0, 50, size=3_000).astype(np.uint64)
    top = 2**64 - 1
    for bits in (15, 17, 31, 33, 47, 49, 64):
        base = int(rng.integers(0, 2**64 - 2**bits, endpoint=True,
                                dtype=np.uint64))
        pool = base + rng.integers(0, 2**bits, size=40, dtype=np.uint64)
        yield rng.choice(pool, size=1_000)
    pool = np.array([0, 1, 2**16, 2**32 + 5, 2**48 - 1, top - 1, top],
                    dtype=np.uint64)
    yield rng.choice(pool, size=1_000)
    lines = np.uint64(0x400000 >> 6) + rng.integers(0, 300, size=1_000,
                                                    dtype=np.uint64)
    cores = rng.integers(0, 4, size=1_000, dtype=np.uint64)
    yield (lines << np.uint64(2)) | cores
    yield np.uint64(top) - rng.integers(0, 30, size=1_000, dtype=np.uint64)
    yield np.full(500, top, dtype=np.uint64)
    yield np.full(500, 12_345, dtype=np.uint64)
    yield np.array([top], dtype=np.uint64)


def test_miss_count_table_matches_dict_walk():
    """MissCountTable.advance must be outcome-identical to the plain
    per-key dict walk it replaced, across arbitrary chunk cuts (a cut of
    1 feeds one-key batches)."""
    for keys in _miss_table_cases():
        reference: dict[int, int] = {}
        expect = np.zeros(len(keys), dtype=np.int64)
        for i, key in enumerate(keys.tolist()):
            reference[key] = reference.get(key, 0) + 1
            expect[i] = reference[key]
        for cut in (1, 7, 997, 10**9):
            table = MissCountTable()
            got = np.concatenate(
                [table.advance(c) for c in _chunks(keys, cut)] or
                [np.zeros(0, dtype=np.int64)])
            assert np.array_equal(got, expect)
            assert len(table) == len(reference)
            assert np.array_equal(table.keys, np.array(sorted(reference),
                                                       dtype=np.uint64))
            assert table.counts.tolist() == [reference[k]
                                             for k in sorted(reference)]


def test_miss_count_table_footprint_bounded_by_unique_keys():
    """The streamed hierarchy's miss-count state must scale with the
    *unique* miss-line footprint (16 bytes per key), not with the number
    of accesses — that was the point of replacing the unbounded dict."""
    unique = 1_000
    table = MissCountTable()
    rng = np.random.default_rng(3)
    total = 0
    for _ in range(50):  # 500k accesses over a fixed 1k-line footprint
        chunk = rng.integers(0, unique, size=10_000).astype(np.uint64)
        table.advance(chunk)
        total += len(chunk)
    assert total == 500_000
    assert len(table) <= unique
    assert table.nbytes == len(table) * 16
    assert table.counts.sum() == total


def test_mismatched_cost_length_rejected():
    spec = _spec("emissary")
    stream = EngineStream(BatchedEngine(CONFIG), spec, seed=SEED)
    with pytest.raises(ValueError, match="cost"):
        stream.feed(np.full(4, np.uint64(0x400000)),
                    cost=np.zeros(3, dtype=np.int64))


def test_cost_on_some_chunks_only_rejected():
    """Buffered batches merge column by column, so a stream's chunks
    carry a cost column on every chunk or on none."""
    stream = EngineStream(BatchedEngine(CONFIG), _spec("emissary"),
                          seed=SEED)
    stream.feed(np.full(4, np.uint64(0x400000)),
                cost=np.ones(4, dtype=np.int64))
    with pytest.raises(ValueError, match="every chunk"):
        stream.feed(np.full(4, np.uint64(0x400040)))


@pytest.mark.parametrize("backend", [
    # The batched backend runs the NumPy/Python kernels; its test id
    # stays "python".
    pytest.param("batched", id="python"),
    pytest.param("compiled", marks=[
        pytest.mark.needs_compiled,
        pytest.mark.skipif(not COMPILED_AVAILABLE,
                           reason="no compiled kernel provider available")]),
])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_feed_lines_matches_feed_addresses(policy, backend):
    """The line entry is the body ``feed(addresses)`` runs after its
    decode: per chunk the same hits, miss lines and miss cores, and at
    the end the same policy stats and ``engine.*`` counters."""
    addresses = _trace()
    rng = np.random.default_rng(SEED)
    cost = rng.integers(0, 5, size=len(addresses)).astype(np.int64)
    core = rng.integers(0, 2, size=len(addresses)).astype(np.int64)
    lines = addresses >> np.uint64(CONFIG.offset_bits)
    results, counters = [], []
    for feed_lines in (False, True):
        tel = Telemetry()
        engine = BatchedEngine(CONFIG, telemetry=tel, kernel_backend=backend)
        stream = EngineStream(engine, _spec(policy), seed=SEED, num_cores=2)
        feed = stream.feed_lines if feed_lines else stream.feed
        source = lines if feed_lines else addresses
        outcomes = []
        for sl in (slice(i, i + 997) for i in range(0, N, 997)):
            hits, miss_lines = feed(source[sl], cost=cost[sl], core=core[sl])
            outcomes.append((hits, miss_lines, stream.last_miss_cores))
        results.append((outcomes, stream.finish()))
        counters.append({k: v for k, v in tel.to_dict()["counters"].items()
                         if k.startswith("engine.")})
    (by_address, address_result), (by_line, line_result) = results
    for got, want in zip(by_line, by_address):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    assert np.array_equal(line_result.hits, address_result.hits)
    assert line_result.policy_stats == address_result.policy_stats
    assert counters[1] == counters[0]
    assert counters[0]["engine.accesses"] == N
