"""Property-based differential testing (hypothesis).

Hand-picked traces in ``test_engine_equivalence`` cover the known trace
families; this suite lets hypothesis search the space of short adversarial
access patterns, cache geometries, and chunk splits for divergence between

* the batched set-major engine and the naive per-access reference
  (flat and two-level),
* the streaming (chunked) path and the one-shot path, with the chunk
  boundaries themselves generated — including ones that split MRU runs,
  and
* the compiled kernel backend (:mod:`emissary.compiled`) against both,
  one-shot and streamed, flat and two-level — skipped only when no
  compiled provider (numba or a C compiler) is available, and
* the multi-core shared-L2 paths: N interleaved instruction streams
  (generated core counts, per-access core-id patterns, chunk cuts)
  through the batched, streamed, and compiled engines against the
  per-access multi-core reference — including the partitioned
  EMISSARY HP budget, and the invariant that a one-core partitioned
  run is bit-identical to a shared one.

Address pools are tiny (a handful of lines, few sets) so traces constantly
collide in sets, re-reference immediately (repeat-flag paths), and evict —
the regimes where the engines could plausibly disagree.

Every engine in this suite runs with the runtime state sanitizer
attached, so each hypothesis example also validates the per-set kernel
invariants (occupancy, HP budgets, RRPV bounds, recency structure) after
every dispatch — a violated invariant surfaces as a
:class:`~emissary.analysis.sanitizer.SanitizerError` with the shrunken
counterexample, not just a diverging hit vector.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emissary.analysis.sanitizer import Sanitizer
from emissary.api import PolicySpec
from emissary.compiled import CompiledUnavailableError, get_kernels
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.hierarchy import (
    BatchedHierarchyEngine,
    HierarchyConfig,
    HierarchyReferenceEngine,
)
from emissary.traces import LINE_BYTES

SEED = 5

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False

_needs_compiled_skip = pytest.mark.skipif(
    not COMPILED_AVAILABLE,
    reason="no compiled kernel provider (numba or a C compiler) available")


def needs_compiled(func):  # noqa: ANN001, ANN201 - pytest decorator
    return pytest.mark.needs_compiled(_needs_compiled_skip(func))

policies = st.sampled_from([
    PolicySpec("lru"),
    PolicySpec("random"),
    PolicySpec("srrip"),
    PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 4}),
    PolicySpec("emissary", {"hp_threshold": 1, "prob_inv": 2,
                            "min_l1_misses": 2}),
])

# ways >= 2 everywhere: the emissary specs above use hp_threshold up to
# 2, which the kernel (correctly) rejects on a 1-way cache.
geometries = st.sampled_from([
    CacheConfig(num_sets=2, ways=2),
    CacheConfig(num_sets=4, ways=2),
    CacheConfig(num_sets=8, ways=4),
])


@st.composite
def traces(draw, max_len=400, min_events=1):
    """A short line-granular access pattern over a tiny address pool,
    with explicit repeat runs so MRU collapsing always has work."""
    pool = draw(st.integers(min_value=1, max_value=24))
    events = draw(st.lists(
        st.tuples(st.integers(0, pool - 1),      # which line
                  st.integers(1, 6)),            # immediate repeats
        min_size=min_events, max_size=max_len // 2))
    lines = np.repeat(np.array([line for line, _ in events], dtype=np.uint64),
                      [reps for _, reps in events])[:max_len]
    return lines * np.uint64(LINE_BYTES) + np.uint64(0x400000)


@st.composite
def chunked_traces(draw):
    """A trace plus a random partition of it into contiguous chunks."""
    addresses = draw(traces())
    n = len(addresses)
    if n > 1:
        cut_count = draw(st.integers(min_value=0, max_value=min(8, n - 1)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1),
                                   min_size=cut_count, max_size=cut_count)))
    else:
        cuts = []
    bounds = [0, *cuts, n]
    return addresses, [addresses[lo:hi]
                       for lo, hi in zip(bounds[:-1], bounds[1:])]


def _sanitized(engine_cls, config):
    """An engine with a fresh sanitizer attached; every kernel dispatch in
    the differential runs below is invariant-checked."""
    return engine_cls(config, sanitizer=Sanitizer())


def _sanitized_compiled(engine_cls, config):
    """Same, on the compiled kernel backend: the sanitizer validates the
    flat per-set state arrays after every compiled dispatch."""
    return engine_cls(config, sanitizer=Sanitizer(), kernel_backend="compiled")


@settings(max_examples=40, deadline=None)
@given(policy=policies, config=geometries, addresses=traces())
def test_flat_batched_matches_reference(policy, config, addresses):
    batched_engine = _sanitized(BatchedEngine, config)
    reference_engine = _sanitized(ReferenceEngine, config)
    batched = batched_engine.run(addresses, policy, seed=SEED)
    reference = reference_engine.run(addresses, policy, seed=SEED)
    assert np.array_equal(batched.hits, reference.hits)
    assert batched.hit_count == reference.hit_count
    assert batched.policy_stats == reference.policy_stats
    assert batched_engine.sanitizer.checks > 0
    assert reference_engine.sanitizer.checks > 0


@settings(max_examples=40, deadline=None)
@given(policy=policies, addresses=traces())
def test_hierarchy_batched_matches_reference(policy, addresses):
    config = HierarchyConfig(l1=CacheConfig(num_sets=2, ways=1),
                             l2=CacheConfig(num_sets=4, ways=2))
    batched = _sanitized(BatchedHierarchyEngine, config).run(
        addresses, policy, seed=SEED)
    reference = _sanitized(HierarchyReferenceEngine, config).run(
        addresses, policy, seed=SEED)
    assert np.array_equal(batched.l1.hits, reference.l1.hits)
    assert np.array_equal(batched.l2.hits, reference.l2.hits)
    assert batched.l1.policy_stats == reference.l1.policy_stats
    assert batched.l2.policy_stats == reference.l2.policy_stats


@settings(max_examples=40, deadline=None)
@given(policy=policies, config=geometries, chunked=chunked_traces())
def test_stream_matches_oneshot(policy, config, chunked):
    addresses, chunks = chunked
    oneshot = _sanitized(BatchedEngine, config).run(addresses, policy, seed=SEED)
    streamed = _sanitized(BatchedEngine, config).simulate_stream(
        chunks, policy, seed=SEED)
    assert np.array_equal(streamed.hits, oneshot.hits)
    assert streamed.policy_stats == oneshot.policy_stats


@settings(max_examples=25, deadline=None)
@given(policy=policies, chunked=chunked_traces())
def test_hierarchy_stream_matches_oneshot(policy, chunked):
    addresses, chunks = chunked
    config = HierarchyConfig(l1=CacheConfig(num_sets=2, ways=1),
                             l2=CacheConfig(num_sets=4, ways=2))
    oneshot = _sanitized(BatchedHierarchyEngine, config).run(
        addresses, policy, seed=SEED)
    streamed = _sanitized(BatchedHierarchyEngine, config).simulate_stream(
        chunks, policy, seed=SEED)
    assert np.array_equal(streamed.l1.hits, oneshot.l1.hits)
    assert np.array_equal(streamed.l2.hits, oneshot.l2.hits)
    assert streamed.l2.policy_stats == oneshot.l2.policy_stats


@needs_compiled
@settings(max_examples=40, deadline=None)
@given(policy=policies, config=geometries, addresses=traces())
def test_flat_compiled_matches_reference(policy, config, addresses):
    compiled_engine = _sanitized_compiled(BatchedEngine, config)
    reference_engine = _sanitized(ReferenceEngine, config)
    compiled = compiled_engine.run(addresses, policy, seed=SEED)
    reference = reference_engine.run(addresses, policy, seed=SEED)
    assert np.array_equal(compiled.hits, reference.hits)
    assert compiled.hit_count == reference.hit_count
    assert compiled.policy_stats == reference.policy_stats
    assert compiled_engine.sanitizer.checks > 0


@needs_compiled
@settings(max_examples=40, deadline=None)
@given(policy=policies, config=geometries, chunked=chunked_traces())
def test_compiled_stream_matches_python_oneshot(policy, config, chunked):
    addresses, chunks = chunked
    oneshot = _sanitized(BatchedEngine, config).run(addresses, policy, seed=SEED)
    compiled_engine = _sanitized_compiled(BatchedEngine, config)
    streamed = compiled_engine.simulate_stream(chunks, policy, seed=SEED)
    assert np.array_equal(streamed.hits, oneshot.hits)
    assert streamed.policy_stats == oneshot.policy_stats
    assert compiled_engine.sanitizer.checks > 0


@needs_compiled
@settings(max_examples=25, deadline=None)
@given(policy=policies, chunked=chunked_traces())
def test_hierarchy_compiled_matches_python(policy, chunked):
    addresses, chunks = chunked
    config = HierarchyConfig(l1=CacheConfig(num_sets=2, ways=1),
                             l2=CacheConfig(num_sets=4, ways=2))
    oneshot = _sanitized(BatchedHierarchyEngine, config).run(
        addresses, policy, seed=SEED)
    compiled = _sanitized_compiled(BatchedHierarchyEngine, config).run(
        addresses, policy, seed=SEED)
    streamed = _sanitized_compiled(BatchedHierarchyEngine, config).simulate_stream(
        chunks, policy, seed=SEED)
    for other in (compiled, streamed):
        assert np.array_equal(other.l1.hits, oneshot.l1.hits)
        assert np.array_equal(other.l2.hits, oneshot.l2.hits)
        assert other.l2.policy_stats == oneshot.l2.policy_stats


# -- multi-core shared L2 --------------------------------------------------

multicore_policies = st.sampled_from([
    PolicySpec("lru"),
    PolicySpec("srrip"),
    PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 4}),
    PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 4,
                            "hp_budget": "partitioned"}),
])

MC_CONFIG = HierarchyConfig(l1=CacheConfig(num_sets=2, ways=1),
                            l2=CacheConfig(num_sets=4, ways=2))


@st.composite
def multicore_traces(draw, max_len=300, min_events=1):
    """An adversarial shared-L2 workload: a tiny-pool access pattern plus
    a drawn per-access core-id pattern (tiled across the trace), so the
    cores' streams constantly interleave and contend in the same sets.
    Cores may be absent from the pattern — ``num_cores`` is explicit."""
    num_cores = draw(st.integers(min_value=1, max_value=4))
    addresses = draw(traces(max_len=max_len, min_events=min_events))
    pattern = draw(st.lists(st.integers(0, num_cores - 1),
                            min_size=1, max_size=12))
    core_ids = np.resize(np.array(pattern, dtype=np.int64), len(addresses))
    return num_cores, addresses, core_ids


@st.composite
def chunked_multicore(draw, min_events=1):
    """A multi-core workload plus a random partition of the aligned
    (addresses, core_ids) pair into contiguous chunk tuples."""
    num_cores, addresses, core_ids = draw(multicore_traces(
        min_events=min_events))
    n = len(addresses)
    if n > 1:
        cut_count = draw(st.integers(min_value=0, max_value=min(8, n - 1)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1),
                                   min_size=cut_count, max_size=cut_count)))
    else:
        cuts = []
    bounds = [0, *cuts, n]
    chunks = [(addresses[lo:hi], core_ids[lo:hi])
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    return num_cores, addresses, core_ids, chunks


@settings(max_examples=30, deadline=None)
@given(policy=multicore_policies, mc=multicore_traces())
def test_multicore_batched_matches_reference(policy, mc):
    num_cores, addresses, core_ids = mc
    batched = _sanitized(BatchedHierarchyEngine, MC_CONFIG).run_multicore(
        addresses, core_ids, policy, num_cores=num_cores, seed=SEED)
    reference = _sanitized(HierarchyReferenceEngine, MC_CONFIG).run_multicore(
        addresses, core_ids, policy, num_cores=num_cores, seed=SEED)
    assert np.array_equal(batched.l1.hits, reference.l1.hits)
    assert np.array_equal(batched.l2.hits, reference.l2.hits)
    assert batched.per_core == reference.per_core
    assert (batched.l2.policy_stats["unique_l1_miss_lines"]
            == reference.l2.policy_stats["unique_l1_miss_lines"])
    # The oracle reports the full policy statistics too (including the
    # partitioned budget's per-core HP lines), so a reference-computed
    # result is interchangeable with a batched one.
    assert batched.l1.policy_stats == reference.l1.policy_stats
    assert batched.l2.policy_stats == reference.l2.policy_stats


@settings(max_examples=30, deadline=None)
@given(policy=multicore_policies, mc=chunked_multicore())
def test_multicore_stream_matches_oneshot(policy, mc):
    num_cores, addresses, core_ids, chunks = mc
    oneshot = _sanitized(BatchedHierarchyEngine, MC_CONFIG).run_multicore(
        addresses, core_ids, policy, num_cores=num_cores, seed=SEED)
    streamed = _sanitized(
        BatchedHierarchyEngine, MC_CONFIG).simulate_stream_multicore(
        chunks, policy, num_cores=num_cores, seed=SEED)
    assert np.array_equal(streamed.l1.hits, oneshot.l1.hits)
    assert np.array_equal(streamed.l2.hits, oneshot.l2.hits)
    assert streamed.per_core == oneshot.per_core
    assert streamed.l2.policy_stats == oneshot.l2.policy_stats


@needs_compiled
@settings(max_examples=25, deadline=None)
@given(policy=multicore_policies, mc=chunked_multicore())
def test_multicore_compiled_matches_python(policy, mc):
    num_cores, addresses, core_ids, chunks = mc
    oneshot = _sanitized(BatchedHierarchyEngine, MC_CONFIG).run_multicore(
        addresses, core_ids, policy, num_cores=num_cores, seed=SEED)
    compiled = _sanitized_compiled(
        BatchedHierarchyEngine, MC_CONFIG).run_multicore(
        addresses, core_ids, policy, num_cores=num_cores, seed=SEED)
    streamed = _sanitized_compiled(
        BatchedHierarchyEngine, MC_CONFIG).simulate_stream_multicore(
        chunks, policy, num_cores=num_cores, seed=SEED)
    for other in (compiled, streamed):
        assert np.array_equal(other.l1.hits, oneshot.l1.hits)
        assert np.array_equal(other.l2.hits, oneshot.l2.hits)
        assert other.per_core == oneshot.per_core
        assert other.l2.policy_stats == oneshot.l2.policy_stats


@settings(max_examples=20, deadline=None)
@given(addresses=traces())
def test_partitioned_budget_equals_shared_on_one_core(addresses):
    """With one core the partitioned HP budget degenerates to the whole
    shared budget, so the two modes must be bit-identical — this is what
    lets single-core solo baselines drop the ``hp_budget`` param."""
    core_ids = np.zeros(len(addresses), dtype=np.int64)
    shared = PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 4})
    partitioned = PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 4,
                                          "hp_budget": "partitioned"})
    a = _sanitized(BatchedHierarchyEngine, MC_CONFIG).run_multicore(
        addresses, core_ids, shared, num_cores=1, seed=SEED)
    b = _sanitized(BatchedHierarchyEngine, MC_CONFIG).run_multicore(
        addresses, core_ids, partitioned, num_cores=1, seed=SEED)
    assert np.array_equal(a.l2.hits, b.l2.hits)
    assert a.per_core == b.per_core
    # Partitioned runs annotate two extra stat keys; everything the two
    # modes share must be identical, and the one quota holds everything.
    b_stats = dict(b.l2.policy_stats)
    assert b_stats.pop("hp_budget") == "partitioned"
    by_core = b_stats.pop("hp_lines_final_by_core")
    assert sum(by_core) == b_stats["hp_lines_final"]
    assert a.l2.policy_stats == b_stats


@settings(max_examples=60, deadline=None)
@given(policy=multicore_policies, mc=chunked_multicore(min_events=60))
def test_multicore_folds_match_no_collapse(policy, mc):
    """The trace-order collapse and the set-order fold only skip kernel
    work: on interleaved multi-core input (where the set-order fold does
    most of the folding) the python backend gives the same outcomes with
    ``collapse_runs=True`` as with both folds off, one-shot and
    streamed.  Traces are kept long enough that sets fill and evict, so
    a wrong repeat flag or a dropped state update changes a victim."""
    num_cores, addresses, core_ids, chunks = mc

    def engine(collapse):
        return BatchedHierarchyEngine(MC_CONFIG, collapse_runs=collapse,
                                      sanitizer=Sanitizer())

    plain = engine(False).run_multicore(
        addresses, core_ids, policy, num_cores=num_cores, seed=SEED)
    oneshot = engine(True).run_multicore(
        addresses, core_ids, policy, num_cores=num_cores, seed=SEED)
    streamed = engine(True).simulate_stream_multicore(
        chunks, policy, num_cores=num_cores, seed=SEED)
    for folded in (oneshot, streamed):
        assert np.array_equal(folded.l1.hits, plain.l1.hits)
        assert np.array_equal(folded.l2.hits, plain.l2.hits)
        assert folded.per_core == plain.per_core
        assert folded.l2.policy_stats == plain.l2.policy_stats
