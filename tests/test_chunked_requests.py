"""Requests run in chunk-budget pieces, with the outcomes of a whole-array run.

On a batched backend ``api.simulate(SimRequest)`` generates its trace
one chunk budget at a time and streams it, and the hierarchy engine
works through every incoming chunk in views of at most one budget of
accesses.  With the budget shrunk to a few dozen accesses, the pieces
cut MRU runs (a ``loop`` line is 16 fetches), whole interleave rounds
and the engine's carried trailing run (pieces that lie inside one run),
and the outcomes must still be those of the whole-array run, which at
these sizes is a single piece.  An SRRIP L1I reads each run's length
(its repeat flag), so it checks the carried run's length, and a small
L2 coalescing budget cuts the miss stream and its carry as well.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

import emissary.hierarchy as hierarchy
import emissary.traces as traces
from emissary.api import PolicySpec, SimRequest, simulate
from emissary.compiled import CompiledUnavailableError, get_kernels
from emissary.engine import CacheConfig
from emissary.hierarchy import BatchedHierarchyEngine, HierarchyConfig
from emissary.telemetry import Telemetry
from emissary.traces import DEFAULT_CHUNK_BYTES, InterleaveSpec, TraceSpec

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False

BACKENDS = [
    pytest.param("batched"),
    pytest.param("compiled", marks=[
        pytest.mark.needs_compiled,
        pytest.mark.skipif(not COMPILED_AVAILABLE,
                           reason="no compiled kernel provider available")]),
]

CONFIG = HierarchyConfig(l1=CacheConfig(num_sets=16, ways=4),
                         l2=CacheConfig(num_sets=64, ways=4))
EMISSARY = {"hp_threshold": 2, "prob_inv": 4, "min_l1_misses": 2}
POLICIES = {
    "lru": PolicySpec("lru"),
    "srrip": PolicySpec("srrip"),
    "emissary": PolicySpec("emissary", EMISSARY),
    "emissary_partitioned": PolicySpec(
        "emissary", {**EMISSARY, "hp_budget": "partitioned"}),
}
SOLO = TraceSpec("loop", 6_000, 5, {"footprint_lines": 96})
MIX = InterleaveSpec(cores=(TraceSpec("loop", 4_000, 5, {"footprint_lines": 96}),
                            TraceSpec("call", 2_000, 6)), weights=(2, 1))
#: Generated chunks of 37 accesses (a whole number of 2:1 rounds is 36)
#: and engine pieces of 11: both are prime to the 16-fetch runs of a
#: ``loop`` line and to the 3-access rounds.
GEN_BYTES = 37 * 8
PIECE = 11
#: An L2 coalescing budget of 5 misses.
L2_BYTES = 5 * 8


#: Telemetry counters that depend on where the stream is cut.
CUT_COUNTERS = {f"{level}.engine.{name}" for level in ("l1", "l2")
                for name in ("stream_chunks", "kernel_accesses")}


def _outcomes(result):
    """Everything a request must reproduce: both hit vectors, the result
    dict's counts and policy statistics (and per-core rows), and with
    telemetry its histograms and its counters but the cut-dependent
    ones, without the timings."""
    d = result.to_dict()
    tel = d.pop("telemetry", None)
    if tel is not None:
        d["histograms"] = tel["histograms"]
        d["counters"] = {name: value for name, value in tel["counters"].items()
                         if name not in CUT_COUNTERS}
    for key in ("elapsed_s", "accesses_per_s"):
        d.pop(key, None)
        for level in ("l1", "l2"):
            d[level].pop(key, None)
    return (result.l1.hits.tobytes(), result.l2.hits.tobytes(), d)


def _whole_run(request):
    """The whole-array engine run: at these sizes a single piece."""
    engine = BatchedHierarchyEngine(
        request.config,
        telemetry=Telemetry() if request.telemetry else None,
        kernel_backend=request.backend)
    if request.is_multicore:
        addresses, core_ids = request.trace.generate()
        return engine.run_multicore(addresses, core_ids, request.policy,
                                    num_cores=request.trace.num_cores,
                                    seed=request.seed)
    return engine.run(request.trace.generate(), request.policy,
                      seed=request.seed)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("telemetry", [False, True])
@pytest.mark.parametrize("l1_policy", ["lru", "srrip"])
@pytest.mark.parametrize("trace", [SOLO, MIX], ids=["1core", "2core"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_small_budget_request_matches_whole_run(monkeypatch, backend,
                                                telemetry, l1_policy, trace,
                                                policy):
    config = dataclasses.replace(CONFIG, l1_policy=l1_policy)
    request = SimRequest(trace, POLICIES[policy], config, seed=9,
                         telemetry=telemetry, backend=backend)
    assert trace.n <= DEFAULT_CHUNK_BYTES // 8  # one piece unpatched
    want = _outcomes(_whole_run(request))
    monkeypatch.setattr(traces, "DEFAULT_CHUNK_BYTES", GEN_BYTES)
    monkeypatch.setattr(hierarchy, "_PIECE", PIECE)
    got = simulate(request)
    assert _outcomes(got) == want
    if telemetry:
        counters = got.telemetry["counters"]
        assert counters["l1.engine.stream_chunks"] >= -(-trace.n // PIECE)
        assert counters["l1.engine.accesses"] == trace.n
    # The engine's own stream, its L2 coalescing budget cut small too.
    engine = BatchedHierarchyEngine(
        config, telemetry=Telemetry() if telemetry else None,
        kernel_backend=backend)
    if trace is MIX:
        streamed = engine.simulate_stream_multicore(
            trace.generate_chunks(GEN_BYTES), request.policy,
            num_cores=trace.num_cores, seed=9, chunk_bytes=L2_BYTES)
    else:
        streamed = engine.simulate_stream(
            trace.generate_chunks(GEN_BYTES), request.policy, seed=9,
            chunk_bytes=L2_BYTES)
    assert _outcomes(streamed) == want


@pytest.mark.parametrize("backend", BACKENDS)
def test_generator_chunks_reach_the_engine(monkeypatch, backend):
    """The request streams from the generator: with pieces larger than
    the generated chunks, the L1 stream gets exactly one piece per
    generated chunk."""
    request = SimRequest(MIX, POLICIES["emissary"], CONFIG, seed=9,
                         telemetry=True, backend=backend)
    monkeypatch.setattr(traces, "DEFAULT_CHUNK_BYTES", GEN_BYTES)
    counters = simulate(request).telemetry["counters"]
    chunks = sum(1 for _ in MIX.generate_chunks(GEN_BYTES))
    assert counters["l1.engine.stream_chunks"] == chunks > 1


def test_reference_backend_runs_whole(monkeypatch):
    """The oracle keeps the whole-trace path (it has no stream)."""
    request = SimRequest(MIX, POLICIES["emissary_partitioned"], CONFIG,
                         seed=9, backend="reference")

    def no_chunks(*args, **kwargs):
        raise AssertionError("the reference backend must not stream")

    monkeypatch.setattr(InterleaveSpec, "generate_chunks", no_chunks)
    got = simulate(request)
    assert _outcomes(got) == _outcomes(_whole_run(
        SimRequest(MIX, request.policy, CONFIG, seed=9)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_lag_fold_cuts_kernel_work_on_every_backend(backend):
    """On an interleave the lag fold runs before the set sort on every
    backend, so even the compiled one, which has no set-order fold,
    sends the L1 kernel fewer accesses than there are edges."""
    request = SimRequest(MIX, POLICIES["lru"], CONFIG, seed=9,
                         telemetry=True, backend=backend)
    counters = simulate(request).telemetry["counters"]
    edges = counters["l1.engine.edge_accesses"]
    assert counters["l1.engine.kernel_accesses"] < edges < MIX.n


def test_request_peak_memory_bounded_by_budget_and_hits():
    """Deterministic memory guard for a streamed 2-core request
    (tracemalloc peak of ``simulate`` above its inputs, the
    ``multicore-2c`` benchmark's 1.2M-access 2:1 ``loop``/``call``
    interleave, EMISSARY, hit vectors kept).

    The trace is never whole: the interleave generator holds one block
    and each core's chunk (3 budgets of addresses plus one of core ids),
    an L1 piece its lines and the run collapse's and lag fold's per-edge
    arrays (about 5 budgets), and an L2 batch its coalesced misses,
    costs and uniforms (about 5).  So the bound is 14 budgets plus the
    kept hit vectors, one byte per access per level, counted twice for
    the concatenation at the end: 16.5 MiB here.  This path reads
    13.6 MiB; the whole-trace path it replaced peaked at 44.1 MiB."""
    trace = InterleaveSpec(cores=(
        TraceSpec("loop", 800_000, 11, {"footprint_lines": 12288}),
        TraceSpec("call", 400_000, 12)), weights=(2, 1))
    config = HierarchyConfig(l1=CacheConfig(num_sets=64, ways=8),
                             l2=CacheConfig(num_sets=1024, ways=8))
    request = SimRequest(trace, PolicySpec("emissary", {"min_l1_misses": 2}),
                         config, seed=3)
    warm = InterleaveSpec(cores=tuple(
        TraceSpec(core.kind, 3_000, core.seed, core.params)
        for core in trace.cores), weights=trace.weights)
    simulate(SimRequest(warm, request.policy, config, seed=3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = simulate(request)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    hit_bytes = 2 * (result.l1.n + result.l2.n)
    bound = 14 * DEFAULT_CHUNK_BYTES + hit_bytes
    assert peak <= bound, (f"peak {peak / 2**20:.2f} MiB over the "
                           f"{bound / 2**20:.2f} MiB bound")

