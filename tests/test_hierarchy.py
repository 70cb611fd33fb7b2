"""Two-level L1I -> L2 hierarchy: the batched filter+policy pipeline must
be bit-identical to the per-access interleaved oracle — L1 hit vectors,
L2 hit vectors, and per-level counts — for every policy, trace family,
and seed, and EMISSARY's HP decisions must be driven by measured L1I
miss counts."""

import tracemalloc

import numpy as np
import pytest

from emissary.api import PolicySpec, SimRequest, simulate
from emissary.engine import BatchedEngine, CacheConfig
from emissary.hierarchy import (BatchedHierarchyEngine, HierarchyConfig,
                                HierarchyReferenceEngine, HierarchyResult,
                                MissCountTable, MultiCoreHierarchyResult)
from emissary.policies import POLICY_NAMES
from emissary.telemetry import Telemetry
from emissary.traces import MAX_CORES, InterleaveSpec, TraceSpec

N = 30_000

POLICY_SPECS = {
    "lru": PolicySpec("lru"),
    "random": PolicySpec("random"),
    "srrip": PolicySpec("srrip"),
    "emissary": PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 8,
                                        "min_l1_misses": 2}),
}

CONFIG = HierarchyConfig(l1=CacheConfig(num_sets=16, ways=4),
                         l2=CacheConfig(num_sets=64, ways=4))


def trace_cases():
    cases = {
        "loop": TraceSpec("loop", N, 3, {"footprint_lines": 500}).generate(),
        "shift": TraceSpec("shift", N, 4, {"footprint_lines": 300}).generate(),
        "call": TraceSpec("call", N, 5).generate(),
    }
    rng = np.random.default_rng(1)
    cases["uniform_random"] = rng.integers(0, 1 << 16, N).astype(np.uint64) * 64
    return cases


TRACES = trace_cases()


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("seed", [7, 21])
def test_batched_matches_reference(policy, trace_name, seed):
    trace = TRACES[trace_name]
    spec = POLICY_SPECS[policy]
    batched = BatchedHierarchyEngine(CONFIG).simulate_stream([trace], spec,
                                                             seed=seed)
    reference = HierarchyReferenceEngine(CONFIG).simulate_stream(
        [trace], spec, seed=seed)

    assert batched.n == reference.n == len(trace)
    assert np.array_equal(batched.l1.hits, reference.l1.hits), (
        f"first L1 divergence at access "
        f"{int(np.argmax(batched.l1.hits != reference.l1.hits))}")
    assert np.array_equal(batched.l2.hits, reference.l2.hits), (
        f"first L2 divergence at miss-stream position "
        f"{int(np.argmax(batched.l2.hits != reference.l2.hits))}")
    # Per-level stats: counts, rates, and the measured miss-line census.
    assert batched.l1.hit_count == reference.l1.hit_count
    assert batched.l2.n == reference.l2.n == batched.l1.miss_count
    assert batched.l2.hit_count == reference.l2.hit_count
    assert batched.l2.miss_count == reference.l2.miss_count
    assert (batched.l2.policy_stats["unique_l1_miss_lines"]
            == reference.l2.policy_stats["unique_l1_miss_lines"])
    assert batched.l1.policy_stats == reference.l1.policy_stats
    assert batched.l2.policy_stats == reference.l2.policy_stats


def test_l2_only_sees_l1_misses():
    trace = TRACES["loop"]
    result = BatchedHierarchyEngine(CONFIG).simulate_stream(
        [trace], PolicySpec("lru"), seed=0)
    assert result.l2.n == result.l1.miss_count
    assert result.l1.n == len(trace)
    # An L1I that fits the whole footprint would filter everything.
    big_l1 = HierarchyConfig(l1=CacheConfig(num_sets=1024, ways=8),
                             l2=CacheConfig(num_sets=64, ways=4))
    filtered = BatchedHierarchyEngine(big_l1).simulate_stream(
        [trace], PolicySpec("lru"), seed=0)
    assert filtered.l2.n < result.l2.n


def test_running_miss_counts():
    """A fresh miss table's first batch gives each position's inclusive
    running count."""
    lines = np.array([5, 7, 5, 5, 7, 9], dtype=np.uint64)
    assert MissCountTable().advance(lines).tolist() == [1, 1, 2, 3, 2, 1]
    assert MissCountTable().advance(np.empty(0, dtype=np.uint64)).tolist() == []


def test_emissary_hp_driven_by_measured_counts():
    """min_l1_misses above any measured count must kill every promotion;
    min_l1_misses=1 must reproduce the paper's binary signal (every L2
    fill was an L1I miss -> candidate)."""
    trace = TRACES["loop"]
    base = {"hp_threshold": 4, "prob_inv": 4}
    huge = simulate(trace, PolicySpec("emissary",
                                      {**base, "min_l1_misses": 10**9}),
                    CONFIG, seed=7)
    assert huge.l2.policy_stats["hp_promotions"] == 0
    binary = simulate(trace, PolicySpec("emissary",
                                        {**base, "min_l1_misses": 1}),
                      CONFIG, seed=7)
    assert binary.l2.policy_stats["hp_promotions"] > 0


def test_min_l1_misses_one_matches_costless_single_level_on_miss_stream():
    """With min_l1_misses=1 the hierarchy's L2 stage must equal running
    the single-level engine directly over the recorded miss stream."""
    trace = TRACES["call"]
    spec = PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 8})
    hier = BatchedHierarchyEngine(CONFIG).simulate_stream([trace], spec,
                                                          seed=7)
    miss_stream = trace[~BatchedEngine(CONFIG.l1).simulate_stream(
        [trace], PolicySpec(CONFIG.l1_policy), seed=7).hits]
    direct = BatchedEngine(CONFIG.l2).simulate_stream([miss_stream], spec,
                                                      seed=7)
    assert np.array_equal(hier.l2.hits, direct.hits)


def test_mpki_renormalization():
    trace = TRACES["shift"]
    result = BatchedHierarchyEngine(CONFIG).simulate_stream(
        [trace], PolicySpec("srrip"), seed=0)
    assert result.l2_mpki == pytest.approx(1000.0 * result.l2.miss_count / result.n)
    assert result.l2_local_hit_rate == pytest.approx(result.l2.hit_rate)
    assert result.l1_hit_rate == pytest.approx(result.l1.hit_rate)
    assert result.accesses_per_s > 0


def test_hierarchy_result_round_trips_through_dicts():
    result = BatchedHierarchyEngine(CONFIG).simulate_stream(
        [TRACES["loop"]], POLICY_SPECS["emissary"], seed=7)
    rebuilt = HierarchyResult.from_dict(result.to_dict())
    assert rebuilt.to_dict() == result.to_dict()


def test_hierarchy_config_round_trips_through_dicts():
    assert HierarchyConfig.from_dict(CONFIG.to_dict()) == CONFIG


def test_hierarchy_config_validation():
    with pytest.raises(ValueError):
        HierarchyConfig(l1=CacheConfig(num_sets=16, ways=4, line_size=32),
                        l2=CacheConfig(num_sets=64, ways=4, line_size=64))
    with pytest.raises(ValueError):
        HierarchyConfig(l1_policy="random")  # RNG-consuming L1I filter
    with pytest.raises(ValueError):
        HierarchyConfig(l1_policy="optimal")  # unknown policy
    with pytest.raises(TypeError):
        HierarchyConfig(l1={"num_sets": 16, "ways": 4})


def test_srrip_l1_filter_supported():
    config = HierarchyConfig(l1=CacheConfig(num_sets=16, ways=4),
                             l2=CacheConfig(num_sets=64, ways=4),
                             l1_policy="srrip")
    trace = TRACES["call"]
    batched = BatchedHierarchyEngine(config).simulate_stream(
        [trace], POLICY_SPECS["emissary"], seed=3)
    reference = HierarchyReferenceEngine(config).simulate_stream(
        [trace], POLICY_SPECS["emissary"], seed=3)
    assert np.array_equal(batched.l1.hits, reference.l1.hits)
    assert np.array_equal(batched.l2.hits, reference.l2.hits)


def test_simulate_dispatches_on_hierarchy_request():
    request = SimRequest(TraceSpec("loop", 5_000, 1, {"footprint_lines": 300}),
                         POLICY_SPECS["emissary"], CONFIG, seed=7)
    result = simulate(request)
    assert isinstance(result, HierarchyResult)
    reference = simulate(request.trace.generate(), request.policy,
                         config=CONFIG, seed=7, engine="reference")
    assert np.array_equal(result.l2.hits, reference.l2.hits)


def test_empty_trace_hierarchy():
    result = BatchedHierarchyEngine(CONFIG).simulate_stream(
        [np.empty(0, dtype=np.uint64)], PolicySpec("lru"))
    assert result.n == 0
    assert result.l2.n == 0
    assert result.l2_mpki == 0.0


# -- multi-core shared L2 --------------------------------------------------

MIX = InterleaveSpec(cores=(TraceSpec("loop", 9_000, 3,
                                      {"footprint_lines": 500}),
                            TraceSpec("call", 6_000, 5)),
                     weights=(2, 1))
MIX_ADDRESSES, MIX_CORE_IDS = MIX.generate()


def test_multicore_per_core_rows_fold_to_totals():
    result = BatchedHierarchyEngine(CONFIG).simulate_stream(
        [(MIX_ADDRESSES, MIX_CORE_IDS)], POLICY_SPECS["emissary"],
        num_cores=2, seed=7)
    assert result.num_cores == 2
    assert [row["core"] for row in result.per_core] == [0, 1]
    assert [row["n"] for row in result.per_core] == [9_000, 6_000]
    assert sum(row["l1_misses"] for row in result.per_core) \
        == result.l1.miss_count
    assert sum(row["l2_misses"] for row in result.per_core) \
        == result.l2.miss_count
    for row in result.per_core:
        assert row["l2_hits"] == row["l1_misses"] - row["l2_misses"]
        assert row["l2_mpki"] == pytest.approx(
            1000.0 * row["l2_misses"] / row["n"])


def test_multicore_result_round_trips_through_dicts():
    result = BatchedHierarchyEngine(CONFIG).simulate_stream(
        [(MIX_ADDRESSES, MIX_CORE_IDS)], POLICY_SPECS["emissary"],
        num_cores=2, seed=7)
    rebuilt = MultiCoreHierarchyResult.from_dict(result.to_dict())
    assert rebuilt.to_dict() == result.to_dict()
    assert rebuilt.num_cores == 2
    assert rebuilt.per_core == result.per_core


def test_multicore_telemetry_parity_batched_vs_oracle():
    """Per-core counters and histograms must agree exactly between the
    core-virtualized batched engine and the per-access oracle.  Spans
    (and the engine-internal dispatch counters) differ by construction —
    the two engines batch work differently — so only the observable
    surface is compared."""
    tel_b, tel_r = Telemetry(), Telemetry()
    BatchedHierarchyEngine(CONFIG, telemetry=tel_b).simulate_stream(
        [(MIX_ADDRESSES, MIX_CORE_IDS)], POLICY_SPECS["emissary"],
        num_cores=2, seed=7)
    HierarchyReferenceEngine(CONFIG, telemetry=tel_r).simulate_stream(
        [(MIX_ADDRESSES, MIX_CORE_IDS)], POLICY_SPECS["emissary"],
        num_cores=2, seed=7)
    b, r = tel_b.to_dict(), tel_r.to_dict()

    def observable(counters):
        return {k: v for k, v in counters.items() if "engine." not in k}

    assert observable(b["counters"]) == observable(r["counters"])
    assert b["histograms"] == r["histograms"]
    assert b["counters"]["core0.n"] == 9_000
    assert b["counters"]["core1.n"] == 6_000


def test_multicore_engines_dispatch_and_agree():
    spec = POLICY_SPECS["emissary"]
    batched = BatchedHierarchyEngine(CONFIG).simulate_stream(
        [(MIX_ADDRESSES, MIX_CORE_IDS)], spec, num_cores=2, seed=7)
    reference = HierarchyReferenceEngine(CONFIG).simulate_stream(
        [(MIX_ADDRESSES, MIX_CORE_IDS)], spec, num_cores=2, seed=7)
    assert np.array_equal(batched.l1.hits, reference.l1.hits)
    assert np.array_equal(batched.l2.hits, reference.l2.hits)
    assert batched.per_core == reference.per_core
    assert batched.l1.policy_stats == reference.l1.policy_stats
    assert batched.l2.policy_stats == reference.l2.policy_stats


def test_benchmark_wrappers_are_one_chunk_streams():
    """``run`` and ``run_multicore`` stay only for the benchmark's traced
    pass: each is ``simulate_stream`` fed the whole trace as one chunk."""
    spec = POLICY_SPECS["emissary"]
    engine = BatchedHierarchyEngine(CONFIG)
    for got, want in (
            (engine.run(MIX_ADDRESSES, spec, seed=7),
             engine.simulate_stream([MIX_ADDRESSES], spec, seed=7)),
            (engine.run_multicore(MIX_ADDRESSES, MIX_CORE_IDS, spec,
                                  num_cores=2, seed=7),
             engine.simulate_stream([(MIX_ADDRESSES, MIX_CORE_IDS)], spec,
                                    num_cores=2, seed=7))):
        assert type(got) is type(want)
        assert np.array_equal(got.l1.hits, want.l1.hits)
        assert np.array_equal(got.l2.hits, want.l2.hits)
        assert got.l2.policy_stats == want.l2.policy_stats
        assert getattr(got, "per_core", None) == getattr(want, "per_core",
                                                         None)


def test_multicore_interleave_stream_matches_oneshot():
    """Feeding the InterleaveSpec's own chunked generator through the
    streamed engine equals the one-shot run on the full interleave."""
    spec = POLICY_SPECS["emissary"]
    oneshot = BatchedHierarchyEngine(CONFIG).simulate_stream(
        [(MIX_ADDRESSES, MIX_CORE_IDS)], spec, num_cores=2, seed=7)
    streamed = BatchedHierarchyEngine(CONFIG).simulate_stream(
        MIX.generate_chunks(chunk_bytes=4_096), spec,
        num_cores=MIX.num_cores, seed=7)
    assert np.array_equal(streamed.l1.hits, oneshot.l1.hits)
    assert np.array_equal(streamed.l2.hits, oneshot.l2.hits)
    assert streamed.per_core == oneshot.per_core


def test_multicore_core_id_validation():
    engine = BatchedHierarchyEngine(CONFIG)
    addresses = MIX_ADDRESSES[:4]
    with pytest.raises(ValueError, match="length"):
        engine.simulate_stream([(addresses, np.zeros(3, dtype=np.int64))],
                               PolicySpec("lru"), num_cores=2)
    with pytest.raises(ValueError, match="negative"):
        engine.simulate_stream([(addresses, np.array([0, -1, 0, 0]))],
                               PolicySpec("lru"), num_cores=2)
    with pytest.raises(ValueError, match="num_cores"):
        engine.simulate_stream([(addresses, np.array([0, 3, 0, 0]))],
                               PolicySpec("lru"), num_cores=2)
    with pytest.raises(ValueError, match=str(MAX_CORES)):
        engine.simulate_stream([(addresses, np.array([0, MAX_CORES, 0, 0]))],
                               PolicySpec("lru"), num_cores=MAX_CORES + 1)
    with pytest.raises(TypeError, match="integers"):
        engine.simulate_stream([(addresses, np.array([0.2, 1.9, 0.0, 1.0]))],
                               PolicySpec("lru"), num_cores=2)


@pytest.mark.parametrize("bad_id, exc, match", [
    (-1, ValueError, "negative"),
    ("at", ValueError, "num_cores"),
    ("above", ValueError, "num_cores"),
    ("float", TypeError, "integers"),
])
def test_multicore_stream_checks_later_chunks(bad_id, exc, match):
    """A streamed run's second chunk goes through the same core-id check
    as the first, and a bad id there fails the run.  Three cores pad the
    core field to two bits, so id 3 would fit it unnoticed."""
    num_cores = 3
    addresses = MIX_ADDRESSES[:8]
    good = np.arange(8, dtype=np.int64) % num_cores
    bad = good[4:].copy()
    if bad_id == "float":
        bad = bad.astype(np.float64)
    else:
        bad[1] = {"at": num_cores, "above": num_cores + 5}.get(bad_id, bad_id)
    chunks = [(addresses[:4], good[:4]), (addresses[4:], bad)]
    with pytest.raises(exc, match=match):
        BatchedHierarchyEngine(CONFIG).simulate_stream(
            iter(chunks), PolicySpec("lru"), num_cores=num_cores)


def test_multicore_counts_cores():
    """Per-core access counts match a direct tally, with idle cores
    above the highest id and without."""
    ids = np.arange(300, dtype=np.int64) % 6
    addresses = MIX_ADDRESSES[:300]
    for num_cores in (6, 7):
        result = BatchedHierarchyEngine(CONFIG).simulate_stream(
            [(addresses, ids)], PolicySpec("lru"), num_cores=num_cores)
        assert [row["n"] for row in result.per_core] == (
            np.bincount(ids, minlength=num_cores).tolist())
    narrow = BatchedHierarchyEngine(CONFIG).simulate_stream(
        [(addresses, ids % 3)], PolicySpec("lru"), num_cores=3)
    assert [row["n"] for row in narrow.per_core] == [100, 100, 100]


#: Line ``2**58 - 1``: needs 58 bits, one more than a 2-core virtual
#: line leaves below its core bit (64 - 6 offset bits - 1 core bit).
_WIDE = np.uint64(0xFFFF_FFFF_FFFF_FFC0)
#: Line ``2**57 - 1``, the widest that still fits.
_WIDEST_FIT = np.uint64(0x7FFF_FFFF_FFFF_FFC0)


def test_multicore_line_headroom():
    """Lines too wide to leave room for the core bits fail, one-shot and
    streamed; the widest line that fits runs, and one core needs no
    headroom."""
    addresses = np.array([0x400000, 0x400040, _WIDE, 0x400080],
                         dtype=np.uint64)
    ids = np.array([0, 1, 0, 1], dtype=np.int64)
    engine = BatchedHierarchyEngine(CONFIG)
    spec = PolicySpec("lru")
    match = "need more than 57 bits; no headroom for 1 core bits"
    with pytest.raises(ValueError, match=match):
        engine.simulate_stream([(addresses, ids)], spec, num_cores=2)
    with pytest.raises(ValueError, match=match):
        engine.simulate_stream(
            [(addresses[:2], ids[:2]), (addresses[2:], ids[2:])], spec,
            num_cores=2)
    fits = addresses.copy()
    fits[2] = _WIDEST_FIT
    result = engine.simulate_stream([(fits, ids)], spec, num_cores=2)
    assert result.l1.miss_count == 4
    assert engine.simulate_stream([addresses], spec).l1.miss_count == 4
    assert engine.simulate_stream(
        [(addresses, np.zeros(4, dtype=np.int64))], spec,
        num_cores=1).l1.miss_count == 4


def test_multicore_peak_memory_bounded_by_trace_buffers():
    """Deterministic memory guard for the N-core path (tracemalloc peak
    of a one-chunk ``simulate_stream`` above its inputs, ~120k two-core
    accesses).

    At its peak, inside the L1 stage's lag fold, the path holds the
    core-virtualized line buffer (8 B per access) and, per trace-order
    edge of that line stream, its position and its line (8 B each) plus
    the lag fold's set key, masks and kept positions (under 8 B), with
    the kernels' state below 512 KiB.  The line buffer is counted as
    alive there on every Python: CPython 3.10, where the caller's stack
    keeps the call's argument until ``feed_lines`` returns, also holds
    it through the L1 dispatch, but the dispatch peaks lower (about
    2.2 x 8 B per access against the collapse's 3.0).  A path that also
    keeps the virtual byte addresses alive through the L1 feed needs
    another 8 B per access, past this bound."""
    bench_hier = HierarchyConfig(l1=CacheConfig(num_sets=64, ways=8),
                                 l2=CacheConfig(num_sets=1024, ways=8))
    trace = InterleaveSpec(cores=(
        TraceSpec("loop", 80_000, 11, {"footprint_lines": 12288}),
        TraceSpec("call", 40_000, 12)), weights=(2, 1))
    addresses, core_ids = trace.generate()
    vlines = (addresses >> np.uint64(6)) << np.uint64(1)
    vlines |= core_ids.view(np.uint64)
    edges = 1 + int(np.count_nonzero(vlines[1:] != vlines[:-1]))
    del vlines
    bound = 8 * len(addresses) + 3 * 8 * edges + (512 << 10)
    engine = BatchedHierarchyEngine(bench_hier)
    spec = PolicySpec("emissary", {"min_l1_misses": 2})
    engine.simulate_stream([(addresses[:1000], core_ids[:1000])], spec,
                           num_cores=2, seed=3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine.simulate_stream([(addresses, core_ids)], spec, num_cores=2,
                               seed=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, (f"peak {peak / 2**20:.2f} MiB over the "
                           f"{bound / 2**20:.2f} MiB bound")
