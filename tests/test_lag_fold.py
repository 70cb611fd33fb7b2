"""Property tests for the lag fold of interleaved multi-core input.

An engine fed by ``num_cores`` interleaved front-ends drops, before the
set sort, each edge whose same line sits 2 to ``num_cores + 1`` edges
back with no edge to its set in between (see
:func:`emissary.engine._lag_fold`).  Hypothesis draws interleaves of 2,
3, 4 and 8 cores with uneven weights and random chunk cuts, and checks:

- the batched and compiled backends match the per-access reference bit
  for bit, one-shot and streamed, through the hierarchy and a flat
  shared cache;
- ``engine.edge_accesses`` counts the trace-order edges, and on the
  python backend ``engine.kernel_accesses`` equals a set-order fold of
  each dispatch's edges, both computed here from the trace alone.

A single-core run never enters the lag pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emissary import engine as engine_module
from emissary.analysis.sanitizer import Sanitizer
from emissary.api import PolicySpec
from emissary.compiled import CompiledUnavailableError, get_kernels
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.hierarchy import (
    BatchedHierarchyEngine,
    HierarchyConfig,
    HierarchyReferenceEngine,
)
from emissary.telemetry import Telemetry
from emissary.traces import LINE_BYTES

SEED = 3
CONFIG = HierarchyConfig(l1=CacheConfig(num_sets=2, ways=2),
                         l2=CacheConfig(num_sets=4, ways=2))
FLAT = CacheConfig(num_sets=4, ways=2)

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False

BACKENDS = [
    # The batched backend runs the NumPy/Python kernels; its test id
    # stays "python".
    pytest.param("batched", id="python"),
    pytest.param("compiled", marks=[
        pytest.mark.needs_compiled,
        pytest.mark.skipif(not COMPILED_AVAILABLE,
                           reason="no compiled kernel provider available")]),
]

policies = st.sampled_from([
    PolicySpec("lru"),
    PolicySpec("srrip"),
    PolicySpec("emissary", {"hp_threshold": 1, "prob_inv": 2,
                            "hp_budget": "partitioned"}),
])


@st.composite
def interleaves(draw):
    """``num_cores`` streams of short repeat runs over small per-core
    line pools, interleaved with uneven weights (core ``c`` issues
    ``weights[c]`` accesses per round), plus random chunk cuts."""
    num_cores = draw(st.sampled_from([2, 3, 4, 8]))
    weights = draw(st.lists(st.integers(1, 4), min_size=num_cores,
                            max_size=num_cores))
    rounds = draw(st.integers(4, 40))
    streams = []
    for _ in range(num_cores):
        pool = draw(st.integers(1, 6))
        runs = draw(st.lists(st.tuples(st.integers(0, pool - 1),
                                       st.integers(1, 5)),
                             min_size=1, max_size=40))
        lines = np.repeat([line for line, _ in runs],
                          [reps for _, reps in runs])
        streams.append(np.resize(lines, rounds * 4).tolist())
    lines, cores = [], []
    for r in range(rounds):
        for c, w in enumerate(weights):
            lines += streams[c][r * w:(r + 1) * w]
            cores += [c] * w
    addresses = (np.array(lines, dtype=np.uint64) * np.uint64(LINE_BYTES)
                 + np.uint64(0x10000))
    core_ids = np.array(cores, dtype=np.int64)
    n = len(addresses)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6)))
    return num_cores, addresses, core_ids, [0, *cuts, n]


def _edge_counts(vlines, bounds, num_sets):
    """Trace-order edges, and the set-order fold of each dispatch: an
    edge is resolved by the chunk holding the start of the next run (the
    last run at the flush, a one-shot run's too: it is a one-chunk
    stream), and reaches a python kernel unless its set's previous edge
    in that dispatch is the same line."""
    n = len(vlines)
    edges = [0] + [i for i in range(1, n) if vlines[i] != vlines[i - 1]]
    run_ends = edges[1:] + [n]
    kernel = 0
    last = {}
    group = None
    for e, end in zip(edges, run_ends):
        g = -1 if end == n else np.searchsorted(bounds, end, side="right")
        if g != group:
            group, last = g, {}
        s = vlines[e] % num_sets
        if last.get(s) != vlines[e]:
            kernel += 1
        last[s] = vlines[e]
    return len(edges), kernel


def _virtual_lines(addresses, core_ids, num_cores):
    """The core-virtualised L1I's lines and set count."""
    core_bits = (num_cores - 1).bit_length()
    lines = (addresses // LINE_BYTES).astype(np.int64)
    vlines = (lines << core_bits) | core_ids
    return vlines.tolist(), CONFIG.l1.num_sets << core_bits


def _observable(tel):
    """Counters and histograms less the engines' own (``engine.*``)."""
    d = tel.to_dict()
    return ({k: v for k, v in d["counters"].items() if "engine." not in k},
            d["histograms"])


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(policy=policies, l1_policy=st.sampled_from(["lru", "srrip"]),
       mc=interleaves())
def test_hierarchy_lag_fold_matches_reference(backend, policy, l1_policy,
                                              mc):
    num_cores, addresses, core_ids, bounds = mc
    config = HierarchyConfig(l1=CONFIG.l1, l2=CONFIG.l2, l1_policy=l1_policy)
    ref_tel = Telemetry()
    reference = HierarchyReferenceEngine(config, telemetry=ref_tel) \
        .simulate_stream([(addresses, core_ids)], policy,
                         num_cores=num_cores, seed=SEED)
    vlines, v_sets = _virtual_lines(addresses, core_ids, num_cores)
    for cut in ([0, len(addresses)], bounds):
        tel = Telemetry()
        engine = BatchedHierarchyEngine(config, telemetry=tel,
                                        sanitizer=Sanitizer(),
                                        kernel_backend=backend)
        chunks = [(addresses[lo:hi], core_ids[lo:hi])
                  for lo, hi in zip(cut[:-1], cut[1:])]
        result = engine.simulate_stream(
            chunks, policy, num_cores=num_cores, seed=SEED)
        assert np.array_equal(result.l1.hits, reference.l1.hits)
        assert np.array_equal(result.l2.hits, reference.l2.hits)
        assert result.per_core == reference.per_core
        assert result.l1.policy_stats == reference.l1.policy_stats
        assert result.l2.policy_stats == reference.l2.policy_stats
        assert _observable(tel) == _observable(ref_tel)
        edges, kernel = _edge_counts(vlines, cut, v_sets)
        counters = tel.counters
        assert counters["l1.engine.edge_accesses"] == edges
        if backend == "batched":
            assert counters["l1.engine.kernel_accesses"] == kernel
        else:
            assert kernel <= counters["l1.engine.kernel_accesses"] <= edges


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(policy=policies, mc=interleaves())
def test_flat_shared_cache_lag_fold_matches_reference(backend, policy, mc):
    """A flat cache the cores share: another core's access to the same
    set blocks a drop."""
    num_cores, addresses, core_ids, bounds = mc
    ref_tel = Telemetry()
    reference = ReferenceEngine(FLAT, telemetry=ref_tel).simulate_stream(
        [(addresses, core_ids)], policy, num_cores=num_cores, seed=SEED)
    lines = (addresses // LINE_BYTES).astype(np.int64).tolist()
    for cut in ([0, len(addresses)], bounds):
        tel = Telemetry()
        engine = BatchedEngine(FLAT, telemetry=tel, sanitizer=Sanitizer(),
                               kernel_backend=backend)
        result = engine.simulate_stream(
            [(addresses[lo:hi], core_ids[lo:hi])
             for lo, hi in zip(cut[:-1], cut[1:])],
            policy, num_cores=num_cores, seed=SEED)
        assert np.array_equal(result.hits, reference.hits)
        assert result.policy_stats == reference.policy_stats
        assert _observable(tel) == _observable(ref_tel)
        edges, kernel = _edge_counts(lines, cut, FLAT.num_sets)
        assert tel.counters["engine.edge_accesses"] == edges
        if backend == "batched":
            assert tel.counters["engine.kernel_accesses"] == kernel
    tel = Telemetry()
    oneshot = BatchedEngine(FLAT, telemetry=tel,
                            kernel_backend=backend).simulate_stream(
        [(addresses, core_ids)], policy, num_cores=num_cores, seed=SEED)
    assert np.array_equal(oneshot.hits, reference.hits)
    assert oneshot.policy_stats == reference.policy_stats
    assert _observable(tel) == _observable(ref_tel)
    edges, kernel = _edge_counts(lines, [0, len(addresses)], FLAT.num_sets)
    assert tel.counters["engine.edge_accesses"] == edges
    if backend == "batched":
        assert tel.counters["engine.kernel_accesses"] == kernel


def test_single_core_never_enters_the_lag_pass(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("lag pass called on a single-core engine")

    monkeypatch.setattr(engine_module, "_lag_fold", forbidden)
    rng = np.random.default_rng(0)
    addresses = (rng.integers(0, 64, 5000).astype(np.uint64)
                 * np.uint64(LINE_BYTES))
    spec = PolicySpec("srrip")
    BatchedEngine(FLAT, telemetry=Telemetry()).simulate_stream([addresses],
                                                               spec)
    BatchedEngine(FLAT).simulate_stream(np.array_split(addresses, 7), spec)
    engine = BatchedHierarchyEngine(CONFIG, telemetry=Telemetry())
    engine.simulate_stream([addresses], spec)
    engine.simulate_stream(
        [(addresses, np.zeros(len(addresses), dtype=np.int64))], spec,
        num_cores=1)
