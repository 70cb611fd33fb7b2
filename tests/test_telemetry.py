"""Tests for the telemetry subsystem.

Three hard guarantees from the design:

1. Telemetry must never perturb outcomes — hit vectors are bit-identical
   with telemetry on and off, for every policy, on both engines, single
   level and hierarchy.
2. Telemetry-off records nothing — a kernel allocates no accounting
   state and its dispatches record nothing until
   :meth:`attach_telemetry`.
3. Batched and reference engines agree on every policy counter and
   histogram (engine-internal ``engine.*`` keys excluded: the two
   pipelines legitimately differ there).
"""

import json

import numpy as np
import pytest

from emissary import (PolicySpec, SimRequest, Telemetry, simulate)
from emissary.compiled import CompiledUnavailableError, get_kernels
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine, SimResult
from emissary.hierarchy import HierarchyConfig
from emissary.policies import make_kernel
from emissary.telemetry import (TELEMETRY_SCHEMA_VERSION, null_span, span_factory,
                                spans_to_chrome_trace)
from emissary.traces import InterleaveSpec, TraceSpec

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False

_COMPILED_MARKS = [pytest.mark.needs_compiled,
                   pytest.mark.skipif(not COMPILED_AVAILABLE,
                                      reason="no compiled kernels available")]

#: Kernel backends whose telemetry must match the reference oracle.
BACKENDS = ["batched", pytest.param("compiled", marks=_COMPILED_MARKS)]

POLICY_SPECS = [
    PolicySpec("lru"),
    PolicySpec("random"),
    PolicySpec("srrip"),
    PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 8}),
]


#: (spec, backend) cases: a batched case keeps the bare policy name as id.
SPEC_BACKENDS = [case for spec in POLICY_SPECS for case in (
    pytest.param(spec, "batched", id=spec.name),
    pytest.param(spec, "compiled", id=f"{spec.name}-compiled",
                 marks=_COMPILED_MARKS))]


def _addresses(n=6_000, seed=0):
    return TraceSpec("loop", n, seed, {"footprint_lines": 150}).generate()


def _policy_payload(telemetry):
    """Counters + histograms minus engine-internal keys, for cross-engine
    comparison."""
    counters = {k: v for k, v in telemetry["counters"].items() if "engine." not in k}
    return counters, telemetry["histograms"]


# -- guarantee 1: outcomes are never perturbed -------------------------------

@pytest.mark.parametrize("spec", POLICY_SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("engine_cls", [BatchedEngine, ReferenceEngine])
def test_outcomes_bit_identical_with_telemetry(spec, engine_cls):
    addresses = _addresses()
    config = CacheConfig(num_sets=32, ways=4)
    off = engine_cls(config).simulate_stream([addresses], spec, seed=3)
    on = engine_cls(config, telemetry=Telemetry()).simulate_stream(
        [addresses], spec, seed=3)
    assert np.array_equal(off.hits, on.hits)
    assert off.telemetry is None
    assert on.telemetry is not None


@pytest.mark.parametrize("spec", POLICY_SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_hierarchy_outcomes_bit_identical_with_telemetry(spec, engine):
    config = HierarchyConfig(l1=CacheConfig(num_sets=8, ways=2),
                             l2=CacheConfig(num_sets=32, ways=4))
    trace = TraceSpec("call", 6_000, 1, {"caller_lines": 128, "num_callees": 32})
    off = simulate(SimRequest(trace, spec, config, seed=3), engine=engine)
    on = simulate(SimRequest(trace, spec, config, seed=3, telemetry=True),
                  engine=engine)
    assert np.array_equal(off.l1.hits, on.l1.hits)
    assert np.array_equal(off.l2.hits, on.l2.hits)
    assert on.telemetry is not None and off.telemetry is None


# -- guarantee 2: telemetry-off records nothing -------------------------------

@pytest.mark.parametrize("spec", POLICY_SPECS, ids=lambda s: s.name)
def test_kernel_fast_path_untouched_until_attach(spec, monkeypatch):
    """A telemetry-off kernel allocates no per-slot hit counts, and a
    dispatch through both its lockstep steps and its scalar tail leaves
    ``_tel`` unset and records nothing; attaching never rebinds the
    kernel's methods on the instance."""
    kernel = make_kernel(spec.name, 8, 2, **spec.params)

    def no_recording(*args):
        raise AssertionError(f"telemetry-off {spec.name} recorded")

    if spec.name == "lru":
        # LRU's one closed-form body skips its lifetime accounting, and
        # never allocates the per-slot hit counts, until attached.
        monkeypatch.setattr(kernel, "_account", no_recording)
        kernel.run_sets(np.array([0]), np.array([0]), np.array([3]),
                        np.array([0, 8, 16], dtype=np.uint64))
        assert kernel._line_hits is None
        kernel.attach_telemetry(Telemetry())
        assert "run_sets" not in kernel.__dict__
        assert kernel._line_hits is not None
        return
    # At a floor of two lanes, set 1's two accesses are stepped in
    # lockstep with set 0's first two; the scalar tail finishes set 0.
    monkeypatch.setattr("emissary.policies.base.LANE_FLOOR", 2)
    monkeypatch.setattr("emissary.policies.base.LaneHits.__init__",
                        no_recording)
    for module in ("random_policy", "srrip", "emissary"):
        monkeypatch.setattr(f"emissary.policies.{module}.record_lifetimes",
                            no_recording)
    phases = []
    for name in ("_lockstep", "run_set"):
        def spy(*args, _inner=getattr(type(kernel), name), _name=name):
            phases.append(_name)
            return _inner(*args)
        monkeypatch.setattr(type(kernel), name, spy)
    tags = [1, 2, 3, 1, 4, 2, 5, 6]
    sets = [0] * 6 + [1] * 2
    lines = np.array(tags, dtype=np.uint64) * np.uint64(8) \
        + np.array(sets, dtype=np.uint64)
    kernel.run_sets(np.array([0, 1]), np.array([0, 6]), np.array([6, 8]),
                    lines, u=np.random.default_rng(0).random(8),
                    rep=np.zeros(8, dtype=bool))
    assert phases == ["_lockstep", "run_set"]
    assert kernel._tel is None and kernel._line_hits is None
    monkeypatch.undo()
    kernel.attach_telemetry(Telemetry())
    assert "run_set" not in kernel.__dict__
    assert kernel._line_hits is not None


def test_null_span_is_reusable_noop():
    cm = null_span("anything", key=1)
    with cm:
        with cm:
            pass
    tel = Telemetry()
    assert span_factory(None) is null_span
    assert span_factory(tel) == tel.span


# -- guarantee 3: cross-engine counter/histogram parity ----------------------

@pytest.mark.parametrize("spec,backend", SPEC_BACKENDS)
def test_counters_match_across_engines(spec, backend):
    addresses = _addresses()
    config = CacheConfig(num_sets=32, ways=4)
    batched = BatchedEngine(config, telemetry=Telemetry(),
                            kernel_backend=backend).simulate_stream(
                                [addresses], spec, seed=3)
    reference = ReferenceEngine(config, telemetry=Telemetry()).simulate_stream(
        [addresses], spec, seed=3)
    assert _policy_payload(batched.telemetry) == _policy_payload(reference.telemetry)


@pytest.mark.parametrize("spec,backend", SPEC_BACKENDS)
def test_hierarchy_counters_match_across_engines(spec, backend):
    config = HierarchyConfig(l1=CacheConfig(num_sets=8, ways=2),
                             l2=CacheConfig(num_sets=32, ways=4))
    trace = TraceSpec("call", 6_000, 1, {"caller_lines": 128, "num_callees": 32})
    request = SimRequest(trace, spec, config, seed=3, telemetry=True)
    batched = simulate(request, engine=backend)
    reference = simulate(request, engine="reference")
    assert _policy_payload(batched.telemetry) == _policy_payload(reference.telemetry)
    # Both levels are present under their prefixes.
    for prefix in ("l1.", "l2."):
        assert batched.telemetry["counters"][prefix + "fills"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_partitioned_interleave_counters_match_across_engines(backend):
    """Two cores into a shared L2 under a partitioned HP budget: the
    per-core quota path keeps every counter and histogram in step."""
    config = HierarchyConfig(l1=CacheConfig(num_sets=8, ways=2),
                             l2=CacheConfig(num_sets=32, ways=4))
    trace = InterleaveSpec(
        cores=(TraceSpec("loop", 4_000, 1, {"footprint_lines": 150}),
               TraceSpec("call", 2_000, 2, {"caller_lines": 128,
                                            "num_callees": 32})),
        weights=(2, 1))
    spec = PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 2,
                                   "hp_budget": "partitioned"})
    request = SimRequest(trace, spec, config, seed=3, telemetry=True)
    batched = simulate(request, engine=backend)
    reference = simulate(request, engine="reference")
    assert _policy_payload(batched.telemetry) == _policy_payload(reference.telemetry)
    counters = batched.telemetry["counters"]
    assert counters["l2.hp_promotions"] > 0
    assert counters["l2.evictions_hp"] > 0


# -- counter correctness on hand-computed traces -----------------------------

def _tiny_run(lines, spec, engine_cls=BatchedEngine, **config_kw):
    """2-set x 2-way cache; ``lines`` are line numbers (set = line & 1)."""
    config = CacheConfig(num_sets=2, ways=2, line_size=64, **config_kw)
    addresses = np.array([line * 64 for line in lines], dtype=np.uint64)
    return engine_cls(config, telemetry=Telemetry()).simulate_stream(
        [addresses], spec, seed=0)


@pytest.mark.parametrize("engine_cls", [BatchedEngine, ReferenceEngine])
def test_lru_counters_all_miss_thrash(engine_cls):
    # Tags 0,1,2 cycle through a 2-way set: every access misses, the two
    # oldest fills are evicted each round, and no line is ever hit.
    result = _tiny_run([0, 2, 4, 0, 2, 4], PolicySpec("lru"), engine_cls)
    assert result.hit_count == 0
    counters = result.telemetry["counters"]
    assert counters["fills"] == 6
    assert counters["evictions"] == 4
    assert counters["dead_on_fill"] == 4
    assert result.telemetry["histograms"]["line_hits"] == {"0": 4}
    assert result.telemetry["histograms"]["resident_line_hits"] == {"0": 2}


@pytest.mark.parametrize("engine_cls", [BatchedEngine, ReferenceEngine])
def test_lru_counters_count_hits_per_line(engine_cls):
    # Line 0 collects two hits (one an MRU-collapsed repeat) before being
    # evicted; line 2 is evicted dead.  The collapsed repeat must still
    # land in the per-line hit accounting (the `extra` array).
    result = _tiny_run([0, 2, 0, 0, 4, 2], PolicySpec("lru"), engine_cls)
    assert result.hits.tolist() == [False, False, True, True, False, False]
    counters = result.telemetry["counters"]
    assert counters["fills"] == 4
    assert counters["evictions"] == 2
    assert counters["dead_on_fill"] == 1
    assert result.telemetry["histograms"]["line_hits"] == {"0": 1, "2": 1}
    assert result.telemetry["histograms"]["resident_line_hits"] == {"0": 2}


@pytest.mark.parametrize("engine_cls", [BatchedEngine, ReferenceEngine])
def test_emissary_counters_hand_computed(engine_cls):
    # hp_threshold=1, prob_inv=1 (promotion certain while budget lasts):
    # tag0 fills HP; tag1 fills LP (budget full); tag2's miss finds the
    # set saturated, so two-class search evicts the *HP* LRU (tag0, dead),
    # freeing budget for tag2 to promote.
    spec = PolicySpec("emissary", {"hp_threshold": 1, "prob_inv": 1})
    result = _tiny_run([0, 2, 4], spec, engine_cls)
    counters = result.telemetry["counters"]
    assert counters["fills"] == 3
    assert counters["evictions"] == 1
    assert counters["evictions_hp"] == 1
    assert counters["evictions_lp"] == 0
    assert counters["hp_promotions"] == 2
    assert counters["hp_demotions"] == 1
    assert counters["dead_on_fill"] == 1
    assert counters["hp_lines_final"] == 1
    hists = result.telemetry["histograms"]
    assert hists["hp_set_occupancy"] == {"0": 1, "1": 1}
    assert hists["line_hits"] == {"0": 1}


# -- spans and chrome trace export -------------------------------------------

def test_engine_phase_spans_recorded():
    result = BatchedEngine(CacheConfig(num_sets=32, ways=4),
                           telemetry=Telemetry()).simulate_stream(
        [_addresses()], PolicySpec("lru"), seed=0)
    names = [s["name"] for s in result.telemetry["spans"]]
    # A one-shot run is a one-chunk stream: the chunk is pulled and
    # collapsed inside its ``stream_chunk`` span, its kept accesses wait
    # in the dispatch buffer, the next pull finds the end, then the
    # flush dispatches them with the trailing run.
    assert names == ["stream_ingest", "decode", "run_collapse",
                     "stream_chunk", "stream_ingest", "stable_sort",
                     "kernel_loop"]
    for span in result.telemetry["spans"]:
        assert span["dur_us"] >= 0.0


def test_hierarchy_spans_cover_both_levels():
    config = HierarchyConfig(l1=CacheConfig(num_sets=8, ways=2),
                             l2=CacheConfig(num_sets=32, ways=4))
    trace = TraceSpec("loop", 3_000, 0, {"footprint_lines": 100})
    result = simulate(SimRequest(trace, PolicySpec("lru"), config, telemetry=True))
    names = {s["name"] for s in result.telemetry["spans"]}
    assert {"l1_stage", "miss_extract", "l2_stage"} <= names
    assert any(name.startswith("l1.") for name in names)
    assert any(name.startswith("l2.") for name in names)


def test_chrome_trace_export_structure():
    tel = Telemetry()
    with tel.span("outer", n=2):
        with tel.span("inner"):
            pass
    trace = tel.to_chrome_trace()
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    events = trace["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]  # sorted by start
    assert all(e["ph"] == "X" and e["ts"] >= 0.0 for e in events)
    assert events[0]["args"] == {"n": 2}
    json.dumps(trace)  # must be directly serializable


def test_spans_to_chrome_trace_honors_per_span_track_ids():
    spans = [{"name": "a", "ts_us": 5.0, "dur_us": 1.0, "pid": 7, "tid": 3},
             {"name": "b", "ts_us": 1.0, "dur_us": 1.0}]
    events = spans_to_chrome_trace(spans, pid=1, tid=2)["traceEvents"]
    assert [(e["name"], e["pid"], e["tid"]) for e in events] == [("b", 1, 2),
                                                                ("a", 7, 3)]
    assert events[0]["ts"] == 0.0  # rebased to the earliest span


# -- registry / serialization behavior ---------------------------------------

def test_telemetry_merge_prefixed():
    parent, child = Telemetry(), Telemetry()
    child.inc("fills", 3)
    child.observe("line_hits", 2)
    with child.span("stage"):
        pass
    parent.inc("l1.fills", 1)
    parent.merge_prefixed(child, "l1.")
    assert parent.counters == {"l1.fills": 4}
    assert parent.histograms == {"l1.line_hits": {2: 1}}
    assert [s["name"] for s in parent.spans] == ["l1.stage"]
    assert child.spans[0]["name"] == "stage"  # child is not mutated


def test_telemetry_to_dict_is_schema_versioned_and_json_safe():
    tel = Telemetry()
    tel.inc("fills")
    tel.observe_many("line_hits", [2, 0, 2])
    payload = tel.to_dict()
    assert payload["schema_version"] == TELEMETRY_SCHEMA_VERSION
    assert payload["histograms"]["line_hits"] == {"0": 1, "2": 2}
    json.dumps(payload)


def test_telemetry_from_dict_round_trips():
    tel = Telemetry()
    tel.inc("fills", 3)
    tel.observe_many("line_hits", [2, 0, 2])
    tel.spans.append({"name": "kernel_loop", "ts_us": 1.0, "dur_us": 2.0,
                      "args": {}})
    decoded = Telemetry.from_dict(json.loads(json.dumps(tel.to_dict())))
    assert decoded.counters == tel.counters
    assert decoded.histograms == tel.histograms  # keys back to ints
    assert decoded.spans == tel.spans
    assert decoded.to_dict() == tel.to_dict()


def test_telemetry_from_dict_wire_discipline():
    payload = Telemetry().to_dict()
    # Unknown keys rejected (strict decode, emissary.wire convention).
    with pytest.raises(ValueError, match="unknown"):
        Telemetry.from_dict({**payload, "surprise": 1})
    # A payload declaring a newer schema refuses to half-parse.
    with pytest.raises(ValueError, match="schema_version"):
        Telemetry.from_dict({**payload,
                             "schema_version": TELEMETRY_SCHEMA_VERSION + 1})
    # A missing version field decodes as version 0 (pre-stamp layout).
    legacy = {k: v for k, v in payload.items() if k != "schema_version"}
    assert Telemetry.from_dict(legacy).to_dict() == payload


def test_sim_request_telemetry_roundtrip_and_cache_key_compat():
    request = SimRequest(TraceSpec("loop", 100, 0), PolicySpec("lru"),
                         CacheConfig(num_sets=16, ways=2))
    # Off by default, and absent from the canonical encoding so every
    # pre-telemetry results-cache key is unchanged.
    assert request.telemetry is False
    assert "telemetry" not in request.to_dict()
    instrumented = SimRequest(request.trace, request.policy, request.config,
                              telemetry=True)
    assert instrumented.to_dict()["telemetry"] is True
    assert SimRequest.from_dict(instrumented.to_dict()) == instrumented
    assert SimRequest.from_dict(request.to_dict()) == request
    with pytest.raises(TypeError):
        SimRequest(request.trace, request.policy, request.config, telemetry=1)


def test_sim_result_accesses_per_s_null_safe():
    result = SimResult(policy="lru", n=100, hit_count=50, miss_count=50,
                       elapsed_s=0.0)
    assert result.accesses_per_s is None
    payload = json.loads(json.dumps(result.to_dict()))  # no Infinity leaks
    assert payload["accesses_per_s"] is None
    assert SimResult.from_dict(payload).accesses_per_s is None
    timed = SimResult(policy="lru", n=100, hit_count=50, miss_count=50,
                      elapsed_s=2.0)
    assert timed.accesses_per_s == 50.0


def test_results_cache_counts_hits_and_misses(tmp_path):
    from emissary.results_cache import ResultsCache

    store = ResultsCache(tmp_path)
    config = {"x": 1}
    assert store.load(config) is None
    store.store(config, {"ok": True})
    assert store.load(config) == {"ok": True}
    next(tmp_path.glob("*.json")).write_text("corrupt")
    assert store.load(config) is None
    assert store.stats() == {"hits": 1, "misses": 2}
