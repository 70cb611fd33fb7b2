"""Property-based differential testing (hypothesis).

Hand-picked traces in ``test_engine_equivalence`` cover the known trace
families; this suite lets hypothesis search the space of short adversarial
access patterns, cache geometries, and chunk splits for divergence between

* the batched set-major engine and the naive per-access reference
  (flat and two-level), both fed the same generated chunk cuts,
* the streaming (chunked) path and the one-shot path, with the chunk
  boundaries themselves generated — including ones that split MRU runs
  — and the streams' dispatch budget cut to a few dozen kept accesses,
  so buffered batches merge into dispatches that cut the stream
  elsewhere, and
* the compiled kernel backend (:mod:`emissary.compiled`) against both,
  one-shot and streamed, flat and two-level — skipped only when the C
  kernels cannot be built (no C compiler), and
* the multi-core shared-L2 paths: N interleaved instruction streams
  (generated core counts, per-access core-id patterns, chunk cuts)
  through the batched, streamed, and compiled engines against the
  per-access multi-core reference — including the partitioned
  EMISSARY HP budget, and the invariant that a one-core partitioned
  run is bit-identical to a shared one, and
* each reference oracle against itself: any chunk cut reproduces the
  uncut run, telemetry included, and
* one kernel's dispatches alternating between the C kernels and the
  Python kernel they wrap: the two step one state, so the mixed run
  matches an all-Python one dispatch for dispatch.

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

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emissary.engine as engine_module
import emissary.policies.base as kernel_base
from emissary.analysis.sanitizer import Sanitizer
from emissary.api import PolicySpec
from emissary.compiled import CompiledUnavailableError, get_kernels, make_compiled_kernel
from emissary.engine import (BatchedEngine, CacheConfig, ReferenceEngine,
                             SimResult)
from emissary.hierarchy import (
    BatchedHierarchyEngine,
    HierarchyConfig,
    HierarchyReferenceEngine,
)
from emissary.policies import make_kernel
from emissary.telemetry import Telemetry
from emissary.traces import LINE_BYTES

SEED = 5

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False

_needs_compiled_skip = pytest.mark.skipif(
    not COMPILED_AVAILABLE,
    reason="no compiled kernels (no C compiler) available")


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


#: Dispatch budgets of a few dozen kept accesses: at these trace lengths
#: the default budget buffers every batch until the flush, so a streamed
#: run dispatches merged batches only under a budget cut this small.
dispatch_budgets = st.integers(min_value=1, max_value=48)


def _dispatch_budget(budget):
    """Patch the streams' dispatch budget for the ``with`` block."""
    return mock.patch.object(engine_module, "_DISPATCH_BUDGET", budget)


#: Telemetry counters that depend on where a stream is cut or dispatched.
CUT_COUNTERS = ("engine.kernel_accesses", "engine.stream_chunks")


def _cut_free_telemetry(result):
    """A flat result's telemetry counters (less the cut-dependent ones)
    and histograms, or None without telemetry."""
    tel = result.telemetry
    if tel is None:
        return None
    return ({k: v for k, v in tel["counters"].items()
             if k not in CUT_COUNTERS}, tel["histograms"])


def _sanitized(engine_cls, config):
    """An engine with a fresh sanitizer attached; every kernel dispatch in
    the differential runs below is invariant-checked."""
    return engine_cls(config, sanitizer=Sanitizer())


def _sanitized_compiled(engine_cls, config):
    """Same, on the compiled kernel backend: the sanitizer validates the
    flat per-set state arrays after every compiled dispatch."""
    return engine_cls(config, sanitizer=Sanitizer(), kernel_backend="compiled")


@settings(max_examples=40, deadline=None)
@given(policy=policies, config=geometries, chunked=chunked_traces())
def test_flat_batched_matches_reference(policy, config, chunked):
    _, chunks = chunked
    batched_engine = _sanitized(BatchedEngine, config)
    reference_engine = _sanitized(ReferenceEngine, config)
    batched = batched_engine.simulate_stream(chunks, policy, seed=SEED)
    reference = reference_engine.simulate_stream(chunks, policy, seed=SEED)
    assert np.array_equal(batched.hits, reference.hits)
    assert batched.hit_count == reference.hit_count
    assert batched.policy_stats == reference.policy_stats
    assert batched_engine.sanitizer.checks > 0
    assert reference_engine.sanitizer.checks > 0


@settings(max_examples=40, deadline=None)
@given(policy=policies, chunked=chunked_traces())
def test_hierarchy_batched_matches_reference(policy, chunked):
    _, chunks = chunked
    config = HierarchyConfig(l1=CacheConfig(num_sets=2, ways=1),
                             l2=CacheConfig(num_sets=4, ways=2))
    batched = _sanitized(BatchedHierarchyEngine, config).simulate_stream(
        chunks, policy, seed=SEED)
    reference = _sanitized(HierarchyReferenceEngine, config).simulate_stream(
        chunks, policy, seed=SEED)
    assert np.array_equal(batched.l1.hits, reference.l1.hits)
    assert np.array_equal(batched.l2.hits, reference.l2.hits)
    assert batched.l1.policy_stats == reference.l1.policy_stats
    assert batched.l2.policy_stats == reference.l2.policy_stats


@settings(max_examples=40, deadline=None)
@given(policy=policies, config=geometries, chunked=chunked_traces(),
       budget=dispatch_budgets, telemetry=st.booleans())
def test_stream_matches_oneshot(policy, config, chunked, budget, telemetry):
    """Chunk cuts and merged dispatches of a few dozen kept accesses
    give the one-shot run's hits, statistics and telemetry."""
    addresses, chunks = chunked

    def engine():
        return BatchedEngine(config, sanitizer=Sanitizer(),
                             telemetry=Telemetry() if telemetry else None)

    oneshot = engine().simulate_stream([addresses], policy, seed=SEED)
    with _dispatch_budget(budget):
        streamed = engine().simulate_stream(chunks, policy, seed=SEED)
    assert np.array_equal(streamed.hits, oneshot.hits)
    assert streamed.policy_stats == oneshot.policy_stats
    assert _cut_free_telemetry(streamed) == _cut_free_telemetry(oneshot)


@settings(max_examples=25, deadline=None)
@given(policy=policies, chunked=chunked_traces(), budget=dispatch_budgets)
def test_hierarchy_stream_matches_oneshot(policy, chunked, budget):
    addresses, chunks = chunked
    config = HierarchyConfig(l1=CacheConfig(num_sets=2, ways=1),
                             l2=CacheConfig(num_sets=4, ways=2))
    oneshot = _sanitized(BatchedHierarchyEngine, config).simulate_stream(
        [addresses], policy, seed=SEED)
    with _dispatch_budget(budget):
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
    compiled = compiled_engine.simulate_stream([addresses], policy, seed=SEED)
    reference = reference_engine.simulate_stream([addresses], policy,
                                                 seed=SEED)
    assert np.array_equal(compiled.hits, reference.hits)
    assert compiled.hit_count == reference.hit_count
    assert compiled.policy_stats == reference.policy_stats
    assert compiled_engine.sanitizer.checks > 0


@needs_compiled
@settings(max_examples=40, deadline=None)
@given(policy=policies, config=geometries, chunked=chunked_traces(),
       budget=dispatch_budgets)
def test_compiled_stream_matches_python_oneshot(policy, config, chunked,
                                                budget):
    addresses, chunks = chunked
    oneshot = _sanitized(BatchedEngine, config).simulate_stream([addresses],
                                                                policy,
                                                                seed=SEED)
    compiled_engine = _sanitized_compiled(BatchedEngine, config)
    with _dispatch_budget(budget):
        streamed = compiled_engine.simulate_stream(chunks, policy, seed=SEED)
    assert np.array_equal(streamed.hits, oneshot.hits)
    assert streamed.policy_stats == oneshot.policy_stats
    assert compiled_engine.sanitizer.checks > 0


@needs_compiled
@settings(max_examples=25, deadline=None)
@given(policy=policies, chunked=chunked_traces(), budget=dispatch_budgets)
def test_hierarchy_compiled_matches_python(policy, chunked, budget):
    addresses, chunks = chunked
    config = HierarchyConfig(l1=CacheConfig(num_sets=2, ways=1),
                             l2=CacheConfig(num_sets=4, ways=2))
    oneshot = _sanitized(BatchedHierarchyEngine, config).simulate_stream(
        [addresses], policy, seed=SEED)
    compiled = _sanitized_compiled(BatchedHierarchyEngine, config).simulate_stream(
        [addresses], policy, seed=SEED)
    with _dispatch_budget(budget):
        streamed = _sanitized_compiled(
            BatchedHierarchyEngine, config).simulate_stream(
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
#: The flat oracle's geometry in the chunk-cut property.
FLAT_CONFIG = CacheConfig(num_sets=4, ways=2)


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
@given(policy=multicore_policies, mc=chunked_multicore())
def test_multicore_batched_matches_reference(policy, mc):
    num_cores, _, _, chunks = mc
    batched = _sanitized(BatchedHierarchyEngine, MC_CONFIG).simulate_stream(
        chunks, policy, num_cores=num_cores, seed=SEED)
    reference = _sanitized(HierarchyReferenceEngine, MC_CONFIG).simulate_stream(
        chunks, policy, num_cores=num_cores, seed=SEED)
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
@given(policy=multicore_policies, mc=chunked_multicore(),
       budget=dispatch_budgets)
def test_multicore_stream_matches_oneshot(policy, mc, budget):
    num_cores, addresses, core_ids, chunks = mc
    oneshot = _sanitized(BatchedHierarchyEngine, MC_CONFIG).simulate_stream(
        [(addresses, core_ids)], policy, num_cores=num_cores, seed=SEED)
    with _dispatch_budget(budget):
        streamed = _sanitized(
            BatchedHierarchyEngine, MC_CONFIG).simulate_stream(
            chunks, policy, num_cores=num_cores, seed=SEED)
    assert np.array_equal(streamed.l1.hits, oneshot.l1.hits)
    assert np.array_equal(streamed.l2.hits, oneshot.l2.hits)
    assert streamed.per_core == oneshot.per_core
    assert streamed.l2.policy_stats == oneshot.l2.policy_stats


@needs_compiled
@settings(max_examples=25, deadline=None)
@given(policy=multicore_policies, mc=chunked_multicore(),
       budget=dispatch_budgets)
def test_multicore_compiled_matches_python(policy, mc, budget):
    num_cores, addresses, core_ids, chunks = mc
    oneshot = _sanitized(BatchedHierarchyEngine, MC_CONFIG).simulate_stream(
        [(addresses, core_ids)], policy, num_cores=num_cores, seed=SEED)
    compiled = _sanitized_compiled(
        BatchedHierarchyEngine, MC_CONFIG).simulate_stream(
        [(addresses, core_ids)], policy, num_cores=num_cores, seed=SEED)
    with _dispatch_budget(budget):
        streamed = _sanitized_compiled(
            BatchedHierarchyEngine, MC_CONFIG).simulate_stream(
            chunks, policy, num_cores=num_cores, seed=SEED)
    for other in (compiled, streamed):
        assert np.array_equal(other.l1.hits, oneshot.l1.hits)
        assert np.array_equal(other.l2.hits, oneshot.l2.hits)
        assert other.per_core == oneshot.per_core
        assert other.l2.policy_stats == oneshot.l2.policy_stats


def _cut_free(d):
    """A result dict without what may differ between runs of the same
    outcome: the timings and the telemetry spans."""
    if not isinstance(d, dict):
        return d
    return {k: _cut_free(v) for k, v in d.items()
            if k not in ("elapsed_s", "accesses_per_s", "spans")}


def _hit_vectors(result):
    if isinstance(result, SimResult):
        return [result.hits]
    return [result.l1.hits, result.l2.hits]


@settings(max_examples=30, deadline=None)
@given(policy=st.one_of(policies, multicore_policies), mc=chunked_multicore())
def test_reference_chunk_cuts_match_uncut(policy, mc):
    """The oracles carry every piece of state across chunk cuts: any cut
    gives the uncut run's hits, counts, policy statistics, per-core rows
    and telemetry counters and histograms — flat and two-level, on one
    core and on N, with the uniforms drawn per chunk."""
    num_cores, addresses, core_ids, chunks = mc
    flat_chunks = [chunk for chunk, _ in chunks]
    runs = [(engine_cls, config, [addresses], flat_chunks, None)
            for engine_cls, config in ((ReferenceEngine, FLAT_CONFIG),
                                       (HierarchyReferenceEngine, MC_CONFIG))]
    runs += [(engine_cls, config, [(addresses, core_ids)], chunks, num_cores)
             for engine_cls, config in ((ReferenceEngine, FLAT_CONFIG),
                                        (HierarchyReferenceEngine, MC_CONFIG))]
    for engine_cls, config, uncut, cut, cores in runs:
        whole, pieces = (
            engine_cls(config, telemetry=Telemetry(),
                       sanitizer=Sanitizer()).simulate_stream(
                trace, policy, num_cores=cores, seed=SEED)
            for trace in (uncut, cut))
        for got, want in zip(_hit_vectors(pieces), _hit_vectors(whole)):
            assert np.array_equal(got, want)
        assert _cut_free(pieces.to_dict()) == _cut_free(whole.to_dict())


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
    a = _sanitized(BatchedHierarchyEngine, MC_CONFIG).simulate_stream(
        [(addresses, core_ids)], shared, num_cores=1, seed=SEED)
    b = _sanitized(BatchedHierarchyEngine, MC_CONFIG).simulate_stream(
        [(addresses, core_ids)], partitioned, num_cores=1, seed=SEED)
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
    """The trace-order collapse, the lag fold and the set-order fold only
    skip kernel work: on interleaved multi-core input (where the
    set-order fold does most of the folding) the batched backend gives
    the outcomes of the per-access reference, which collapses nothing,
    one-shot and streamed.  Traces are kept long enough that sets fill
    and evict, so a wrong repeat flag or a dropped state update changes
    a victim."""
    num_cores, addresses, core_ids, chunks = mc
    reference = _sanitized(HierarchyReferenceEngine, MC_CONFIG).simulate_stream(
        [(addresses, core_ids)], policy, num_cores=num_cores, seed=SEED)
    oneshot = _sanitized(BatchedHierarchyEngine, MC_CONFIG).simulate_stream(
        [(addresses, core_ids)], policy, num_cores=num_cores, seed=SEED)
    streamed = _sanitized(BatchedHierarchyEngine, MC_CONFIG).simulate_stream(
        chunks, policy, num_cores=num_cores, seed=SEED)
    for folded in (oneshot, streamed):
        assert np.array_equal(folded.l1.hits, reference.l1.hits)
        assert np.array_equal(folded.l2.hits, reference.l2.hits)
        assert folded.per_core == reference.per_core
        assert folded.l2.policy_stats == reference.l2.policy_stats


def _shared_budget_run(kernel, lines, u, cost, core, compiled):
    """Dispatch ``lines`` (trace order) to ``kernel`` in two halves,
    passing ``core`` as the core column; returns the hit vector."""
    num_sets = getattr(kernel, "inner", kernel).num_sets
    hits = []
    for half in np.array_split(np.arange(len(lines)), 2):
        sets = (lines[half] & np.uint64(num_sets - 1)).astype(np.int64)
        cols = [u[half], cost[half], None if core is None else core[half]]
        if compiled:
            hits.append(kernel.run_batch(
                sets, (lines[half] >> np.uint64(2)).astype(np.int64),
                u=cols[0], cost=cols[1], core=cols[2]))
            continue
        order = np.argsort(sets, kind="stable")
        uniq, starts = np.unique(sets[order], return_index=True)
        ends = np.append(starts[1:], len(order))
        out = np.empty(len(order), dtype=bool)
        out[order] = kernel.run_sets(
            uniq, starts, ends, lines[half][order], cols[0][order], None,
            cols[1][order], None, None if core is None else cols[2][order])
        hits.append(out)
    return np.concatenate(hits)


def _check_shared_budget_ignores_core_ids(addresses, num_cores, compiled):
    rng = np.random.default_rng(len(addresses))
    lines = addresses >> np.uint64(6)
    u = rng.random(len(lines))
    cost = rng.integers(1, 4, len(lines))
    core = rng.integers(0, num_cores, len(lines))
    params = {"hp_threshold": 2, "prob_inv": 2, "min_l1_misses": 2,
              "num_cores": num_cores}
    runs = []
    for core_ids in (core, None):
        kernel = (make_compiled_kernel("emissary", 4, 4, **params) if compiled
                  else make_kernel("emissary", 4, 4, **params))
        Sanitizer().attach_kernel(kernel)
        hits = _shared_budget_run(kernel, lines, u, cost, core_ids, compiled)
        runs.append((hits, kernel.extra_stats()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


@settings(max_examples=30, deadline=None)
@given(addresses=traces(min_events=20), num_cores=st.sampled_from([2, 4]))
def test_shared_budget_ignores_core_ids(addresses, num_cores):
    """The shared HP budget is one pool at any core count: a kernel built
    for 2 or 4 cores gives bit-identical hits and stats whether its
    dispatches carry random core ids or none (``core=None``)."""
    _check_shared_budget_ignores_core_ids(addresses, num_cores, compiled=False)


@needs_compiled
@settings(max_examples=30, deadline=None)
@given(addresses=traces(min_events=20), num_cores=st.sampled_from([2, 4]))
def test_compiled_shared_budget_ignores_core_ids(addresses, num_cores):
    """The same on the compiled kernels."""
    _check_shared_budget_ignores_core_ids(addresses, num_cores, compiled=True)


#: The mixed-backend property's kernels: every policy, and EMISSARY with
#: a shared and a partitioned budget over two cores.
MIXED_KERNELS = [
    ("lru", {}),
    ("random", {}),
    ("srrip", {}),
    ("emissary", {"hp_threshold": 2, "prob_inv": 2, "min_l1_misses": 2,
                  "num_cores": 2}),
    ("emissary", {"hp_threshold": 2, "prob_inv": 2, "min_l1_misses": 2,
                  "hp_budget": "partitioned", "num_cores": 2}),
]


def _run_sets(kernel, lines, cols):
    """One dispatch of ``lines`` (trace order) through a Python kernel's
    ``run_sets``, every per-access column of ``cols`` (None stays None)
    sorted by set alongside; returns the hits in trace order."""
    sets = (lines & np.uint64(kernel.num_sets - 1)).astype(np.int64)
    order = np.argsort(sets, kind="stable")
    uniq, starts = np.unique(sets[order], return_index=True)
    ends = np.append(starts[1:], len(order))
    hits = np.empty(len(lines), dtype=bool)
    hits[order] = kernel.run_sets(
        uniq, starts, ends, lines[order],
        *(None if col is None else col[order] for col in cols))
    return hits


def _flat_state(kernel):
    """A Python kernel's flat state arrays.  EMISSARY's slots are read in
    each set's timestamp order and its clock is left out: the scalar
    loop restamps and reorders the sets it finishes, so only the order
    of the stamps within a set is shared state."""
    if kernel.name != "emissary":
        return {name: getattr(kernel, name).tolist()
                for name in ("_tag", "_size", "_rrpv", "_line_hits")
                if getattr(kernel, name, None) is not None}
    state = {name: getattr(kernel, name).tolist()
             for name in ("_size", "_hp", "_hp_by_pool", "_stats")}
    rows = [kernel._tag, kernel._owner]
    if kernel._line_hits is not None:
        rows.append(kernel._line_hits)
    ways = kernel.ways
    sets = []
    for s, size in enumerate(kernel._size.tolist()):
        slots = s * ways + np.argsort(kernel._ts[s * ways:s * ways + size])
        sets.append([row[slots].tolist() for row in rows])
    state["sets"] = sets
    return state


@needs_compiled
@settings(max_examples=40, deadline=None)
@given(kernel_spec=st.sampled_from(MIXED_KERNELS), config=geometries,
       addresses=traces(min_events=10), dispatches=st.integers(2, 6),
       compiled_first=st.booleans(), telemetry=st.booleans(),
       floor=st.sampled_from([1, kernel_base.LANE_FLOOR]))
def test_mixed_backend_dispatches_share_one_state(
        kernel_spec, config, addresses, dispatches, compiled_first,
        telemetry, floor):
    """Dispatches alternating between ``CompiledKernel.run_batch`` and
    the wrapped Python kernel's ``run_sets`` give the hits, flat state,
    ``extra_stats`` and telemetry of an all-Python run: the C kernels
    step the Python kernel's own arrays, in its own layout.  The drawn
    lane floor sends the Python dispatches through the lockstep steps
    (1) or the scalar loop alone (the default)."""
    name, params = kernel_spec
    mixed = make_compiled_kernel(name, config.num_sets, config.ways,
                                 **params)
    python = make_kernel(name, config.num_sets, config.ways, **params)
    tels = (Telemetry(), Telemetry()) if telemetry else None
    if tels is not None:
        mixed.attach_telemetry(tels[0])
        python.attach_telemetry(tels[1])
    Sanitizer().attach_kernel(mixed)
    Sanitizer().attach_kernel(mixed.inner)
    Sanitizer().attach_kernel(python)
    n = len(addresses)
    rng = np.random.default_rng(n)
    lines = addresses >> np.uint64(6)
    # (u, rep, cost, extra, core), in run_sets order; extra only when
    # instrumented.
    cols = (rng.random(n), rng.random(n) < 0.3, rng.integers(1, 4, n),
            rng.integers(0, 3, n) if telemetry else None,
            rng.integers(0, 2, n))
    set_bits = np.uint64(config.num_sets.bit_length() - 1)
    with mock.patch.object(kernel_base, "LANE_FLOOR", floor):
        for k, part in enumerate(np.array_split(np.arange(n), dispatches)):
            part_cols = [None if col is None else col[part] for col in cols]
            want = _run_sets(python, lines[part], part_cols)
            if (k % 2 == 0) == compiled_first:
                u, rep, cost, extra, core = part_cols
                sets = (lines[part] & np.uint64(config.num_sets - 1))
                got = mixed.run_batch(
                    sets.astype(np.int64),
                    (lines[part] >> set_bits).astype(np.int64),
                    u, rep, cost, extra, core)
            else:
                got = _run_sets(mixed.inner, lines[part], part_cols)
            assert np.array_equal(got, want)
            assert _flat_state(mixed.inner) == _flat_state(python)
    assert mixed.extra_stats() == python.extra_stats()
    if tels is not None:
        mixed.telemetry_finalize()
        python.telemetry_finalize()
        assert tels[0].counters == tels[1].counters
        assert tels[0].histograms == tels[1].histograms
