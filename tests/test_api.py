"""Typed PolicySpec/SimRequest API: validation, the versioned wire
contract (schema_version stamping, strict decode, v0 migration, stable
legacy cache keys), and rejection of the removed legacy string-policy
form."""

import numpy as np
import pytest

from emissary.api import PolicySpec, SimRequest, require_policy_spec, simulate
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine, SimResult
from emissary.hierarchy import (BatchedHierarchyEngine, HierarchyConfig,
                                HierarchyResult, MultiCoreHierarchyResult)
from emissary.results_cache import ResultsCache, config_key
from emissary.traces import InterleaveSpec, TraceSpec
from emissary.wire import (WIRE_SCHEMA_KEY, WIRE_SCHEMA_VERSION,
                           check_known_keys, check_wire_version,
                           migrate_wire_dict)

TRACE = TraceSpec("loop", 2_000, 1, {"footprint_lines": 100})


class TestPolicySpec:
    def test_valid_specs(self):
        assert PolicySpec("lru").params == {}
        spec = PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 8,
                                       "min_l1_misses": 3})
        assert spec.params["min_l1_misses"] == 3

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            PolicySpec("optimal")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            PolicySpec("emissary", {"hp_treshold": 2})  # typo caught at build
        with pytest.raises(ValueError, match="does not accept parameter"):
            PolicySpec("lru", {"hp_threshold": 2})

    def test_mistyped_param_rejected(self):
        with pytest.raises(TypeError, match="must be int"):
            PolicySpec("emissary", {"hp_threshold": "2"})
        with pytest.raises(TypeError, match="must be int"):
            PolicySpec("emissary", {"prob_inv": True})  # bools are not ints here

    def test_params_copied_from_caller(self):
        params = {"hp_threshold": 2}
        spec = PolicySpec("emissary", params)
        params["hp_threshold"] = 99
        assert spec.params["hp_threshold"] == 2

    def test_round_trip(self):
        spec = PolicySpec("emissary", {"hp_threshold": 4, "prob_inv": 16})
        assert PolicySpec.from_dict(spec.to_dict()) == spec
        assert isinstance(spec.to_dict()["params"], dict)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown wire keys"):
            PolicySpec.from_dict({"name": "lru", "params": {}, "extra": 1})

    def test_spec_is_frozen_and_hashable(self):
        a = PolicySpec("emissary", {"hp_threshold": 4})
        b = PolicySpec("emissary", {"hp_threshold": 4})
        assert hash(a) == hash(b) and {a: 1}[b] == 1
        with pytest.raises(TypeError):
            a.params["hp_threshold"] = 99


class TestSimRequest:
    def test_defaults(self):
        request = SimRequest(TRACE, PolicySpec("lru"))
        assert request.config == CacheConfig()
        assert request.seed == 0
        assert not request.is_hierarchy

    def test_hierarchy_request(self):
        request = SimRequest(TRACE, PolicySpec("lru"), HierarchyConfig())
        assert request.is_hierarchy

    def test_type_validation(self):
        with pytest.raises(TypeError):
            SimRequest("loop", PolicySpec("lru"))
        with pytest.raises(TypeError):
            SimRequest(TRACE, "lru")
        with pytest.raises(TypeError):
            SimRequest(TRACE, PolicySpec("lru"), {"num_sets": 16})
        with pytest.raises(TypeError):
            SimRequest(TRACE, PolicySpec("lru"), seed="42")

    @pytest.mark.parametrize("config", [None, CacheConfig(num_sets=16, ways=4),
                                        HierarchyConfig()],
                             ids=["default", "single", "hierarchy"])
    def test_round_trip(self, config):
        request = SimRequest(TRACE, PolicySpec("emissary", {"hp_threshold": 2}),
                             config, seed=9)
        assert SimRequest.from_dict(request.to_dict()) == request

    def test_results_cache_accepts_requests(self, tmp_path):
        request = SimRequest(TRACE, PolicySpec("lru"), seed=3)
        assert config_key(request) == config_key(request.to_dict())
        cache = ResultsCache(tmp_path)
        cache.store(request, {"hit_rate": 0.5})
        assert cache.load(request) == {"hit_rate": 0.5}
        assert cache.load(request.to_dict()) == {"hit_rate": 0.5}


MIX = InterleaveSpec(cores=(TraceSpec("loop", 4_000, 1,
                                      {"footprint_lines": 200}),
                            TraceSpec("call", 2_000, 2)),
                     weights=(2, 1))


class TestMultiCoreRequest:
    """SimRequest over an InterleaveSpec: N cores into one shared L2."""

    def test_requires_hierarchy_config(self):
        request = SimRequest(MIX, PolicySpec("lru"), HierarchyConfig())
        assert request.is_multicore and request.is_hierarchy
        with pytest.raises(TypeError, match="[Hh]ierarchy"):
            SimRequest(MIX, PolicySpec("lru"))
        with pytest.raises(TypeError, match="[Hh]ierarchy"):
            SimRequest(MIX, PolicySpec("lru"), CacheConfig())

    def test_round_trip_and_cache_key(self, tmp_path):
        request = SimRequest(MIX, PolicySpec("emissary",
                                             {"hp_threshold": 2,
                                              "hp_budget": "partitioned"}),
                             HierarchyConfig(), seed=9)
        assert SimRequest.from_dict(request.to_dict()) == request
        cache = ResultsCache(tmp_path)
        cache.store(request, {"l2_mpki": 1.0})
        assert cache.load(request.to_dict()) == {"l2_mpki": 1.0}

    @pytest.mark.parametrize("stream", [False, True])
    def test_simulate_dispatches_multicore(self, stream):
        request = SimRequest(MIX, PolicySpec("emissary", {"hp_threshold": 2}),
                             HierarchyConfig(), seed=9)
        result = simulate(request, stream=stream)
        assert isinstance(result, MultiCoreHierarchyResult)
        assert result.num_cores == 2
        assert [row["n"] for row in result.per_core] == [4_000, 2_000]
        addresses, core_ids = MIX.generate()
        direct = BatchedHierarchyEngine(HierarchyConfig()).simulate_stream(
            [(addresses, core_ids)], request.policy, num_cores=2, seed=9)
        assert result.per_core == direct.per_core
        assert np.array_equal(result.l2.hits, direct.l2.hits)

    def test_reference_backend_dispatches(self):
        request = SimRequest(MIX, PolicySpec("lru"), HierarchyConfig(),
                             seed=9, backend="reference")
        result = simulate(request)
        assert isinstance(result, MultiCoreHierarchyResult)
        batched = simulate(SimRequest(MIX, PolicySpec("lru"),
                                      HierarchyConfig(), seed=9))
        assert result.per_core == batched.per_core


class TestWireSchema:
    """The versioned wire contract shared by HTTP and the results cache."""

    def test_request_payload_is_version_stamped(self):
        d = SimRequest(TRACE, PolicySpec("lru")).to_dict()
        assert d[WIRE_SCHEMA_KEY] == WIRE_SCHEMA_VERSION

    def test_v0_dict_migrates(self):
        request = SimRequest(TRACE, PolicySpec("lru"), HierarchyConfig(), seed=3)
        v0 = request.to_dict()
        del v0[WIRE_SCHEMA_KEY]  # the pre-versioned layout
        assert SimRequest.from_dict(v0) == request
        migrated = migrate_wire_dict(v0, "SimRequest")
        assert migrated[WIRE_SCHEMA_KEY] == WIRE_SCHEMA_VERSION
        assert WIRE_SCHEMA_KEY not in v0  # migration never mutates its input
        assert SimRequest.from_dict(migrated) == request

    def test_newer_version_refused(self):
        d = SimRequest(TRACE, PolicySpec("lru")).to_dict()
        d[WIRE_SCHEMA_KEY] = WIRE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer than this process"):
            SimRequest.from_dict(d)

    def test_bad_version_type_refused(self):
        with pytest.raises(ValueError, match="must be an int"):
            check_wire_version({WIRE_SCHEMA_KEY: "1"}, "SimRequest")
        with pytest.raises(ValueError, match=">= 0"):
            check_wire_version({WIRE_SCHEMA_KEY: -1}, "SimRequest")

    def test_unknown_keys_rejected_everywhere(self):
        request = SimRequest(TRACE, PolicySpec("lru"), HierarchyConfig())
        d = request.to_dict()
        for mutate in (
            lambda p: p.update(injected=1),
            lambda p: p["trace"].update(injected=1),
            lambda p: p["config"].update(injected=1),
            lambda p: p["config"]["l1"].update(injected=1),
        ):
            payload = SimRequest.from_dict(d).to_dict()  # fresh deep copy
            mutate(payload)
            with pytest.raises(ValueError, match="unknown wire keys"):
                SimRequest.from_dict(payload)

    @pytest.mark.parametrize("field, value", [
        ("n", 5.7), ("n", 12.0), ("n", "12"), ("n", True), ("n", None),
        ("seed", 1.9), ("seed", "1"), ("seed", False),
    ])
    def test_trace_numbers_never_truncated(self, field, value):
        # Regression: from_dict cast with int(), so "n": 5.7 ran as n=5
        # and "n": "12" / true were accepted.
        d = TraceSpec("loop", 100, 1).to_dict()
        d[field] = value
        with pytest.raises(TypeError, match=f"TraceSpec.{field}"):
            TraceSpec.from_dict(d)
        payload = SimRequest(TraceSpec("loop", 100, 1),
                             PolicySpec("lru")).to_dict()
        payload["trace"] = d
        with pytest.raises(TypeError, match=f"TraceSpec.{field}"):
            SimRequest.from_dict(payload)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", True])
    def test_request_seed_never_truncated(self, seed):
        d = SimRequest(TRACE, PolicySpec("lru")).to_dict()
        d["seed"] = seed
        with pytest.raises(TypeError, match="SimRequest.seed"):
            SimRequest.from_dict(d)

    @pytest.mark.parametrize("telemetry", ["false", "no", [0], 0, 1, None])
    def test_request_telemetry_must_be_bool(self, telemetry):
        # Regression: from_dict cast with bool(), so "false", "no" and
        # [0] all ran instrumented under a separate cache key.
        d = SimRequest(TRACE, PolicySpec("lru")).to_dict()
        d["telemetry"] = telemetry
        with pytest.raises(TypeError, match="telemetry must be a bool"):
            SimRequest.from_dict(d)
        for flag in (True, False):
            d["telemetry"] = flag
            assert SimRequest.from_dict(d).telemetry is flag

    def test_interleave_weights_never_truncated(self):
        d = InterleaveSpec(cores=(TRACE, TRACE), weights=(2, 1)).to_dict()
        d["weights"] = [1.5, 1]
        with pytest.raises(TypeError, match="weights"):
            InterleaveSpec.from_dict(d)

    def test_nonpositive_n_fails_at_decode(self):
        # Regression: "n": 0 decoded and failed only inside the worker.
        d = SimRequest(TRACE, PolicySpec("lru")).to_dict()
        for n in (0, -3):
            d["trace"]["n"] = n
            with pytest.raises(ValueError, match="n must be positive"):
                SimRequest.from_dict(d)

    def test_numpy_integers_normalised(self):
        spec = TraceSpec("loop", np.int64(100), np.int32(1))
        assert spec == TraceSpec("loop", 100, 1)
        assert type(spec.n) is int and type(spec.seed) is int
        assert spec.to_dict() == TraceSpec("loop", 100, 1).to_dict()

    def test_advisory_keys_still_tolerated(self):
        # _-prefixed keys carry location hints (e.g. a file trace's
        # _path); strict decode must not trip over them.
        check_known_keys({"kind": "loop", "_path": "/tmp/x"},
                         ("kind",), "TraceSpec")

    def test_legacy_cache_keys_are_stable(self):
        """Golden keys captured before schema_version existed: the wire
        stamp must never leak into the content hash."""
        r1 = SimRequest(TRACE, PolicySpec("emissary", {"hp_threshold": 2}),
                        CacheConfig(num_sets=16, ways=4), seed=9)
        r2 = SimRequest(TRACE, PolicySpec("lru"), HierarchyConfig(), seed=3)
        r3 = SimRequest(TRACE, PolicySpec("lru"), seed=3, telemetry=True)
        assert config_key(r1) == ("3bffcec6ed32d7bdb56cb1f42c570e7ef2"
                                  "c90bf208b81a1f4637caa3a8b9d9d8")
        assert config_key(r2) == ("2616cdc3b1b6d920754b94c2c4464ea791"
                                  "9c71c84bb192ec4d35a99bac977506")
        assert config_key(r3) == ("cb11e2907b1d473bca0b738492fef8b590"
                                  "ea9aeabd082156837784f44d16340c")
        # ... and v0/v1 encodings of one request share one key.
        v1 = r2.to_dict()
        v0 = dict(v1)
        del v0[WIRE_SCHEMA_KEY]
        assert config_key(v0) == config_key(v1)

    def test_sim_result_round_trip_and_strictness(self):
        result = simulate(SimRequest(TRACE, PolicySpec("lru"),
                                     CacheConfig(num_sets=16, ways=4)))
        d = result.to_dict()
        assert d[WIRE_SCHEMA_KEY] == WIRE_SCHEMA_VERSION
        rebuilt = SimResult.from_dict(d)
        assert rebuilt.hit_count == result.hit_count
        assert rebuilt.to_dict() == d
        v0 = dict(d)
        del v0[WIRE_SCHEMA_KEY]
        assert SimResult.from_dict(v0).hit_count == result.hit_count
        d["injected"] = 1
        with pytest.raises(ValueError, match="unknown wire keys"):
            SimResult.from_dict(d)

    def test_hierarchy_result_round_trip_and_strictness(self):
        result = simulate(SimRequest(TRACE, PolicySpec("lru"),
                                     HierarchyConfig()))
        d = result.to_dict()
        assert d[WIRE_SCHEMA_KEY] == WIRE_SCHEMA_VERSION
        rebuilt = HierarchyResult.from_dict(d)
        assert rebuilt.l1.hit_count == result.l1.hit_count
        assert rebuilt.to_dict() == d
        d[WIRE_SCHEMA_KEY] = WIRE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer than this process"):
            HierarchyResult.from_dict(d)


class TestLegacyFormRemoved:
    """The PR 2 ``policy: str, **policy_params`` shim is gone: strings
    fail fast with the migration spelled out, and the kwargs sink no
    longer exists on any entry point."""

    def test_engine_run_with_str_policy_raises(self):
        trace = TRACE.generate()[:500]
        with pytest.raises(TypeError, match="PolicySpec"):
            BatchedEngine().simulate_stream([trace], "emissary")

    def test_reference_run_with_str_policy_raises(self):
        trace = TRACE.generate()[:500]
        with pytest.raises(TypeError, match="PolicySpec"):
            ReferenceEngine().simulate_stream([trace], "lru")

    def test_simulate_with_str_policy_raises(self):
        trace = TRACE.generate()[:500]
        with pytest.raises(TypeError, match="legacy string-policy form"):
            simulate(trace, "lru")

    def test_policy_kwargs_sink_removed(self):
        trace = TRACE.generate()[:500]
        with pytest.raises(TypeError):
            BatchedEngine().simulate_stream([trace], PolicySpec("emissary"),
                                            hp_threshold=2)

    def test_require_rejects_other_types(self):
        with pytest.raises(TypeError, match="must be a PolicySpec"):
            require_policy_spec(42)

    def test_make_config_requires_request(self):
        from emissary.sweep import make_config

        typed = make_config(SimRequest(TRACE, PolicySpec("lru"),
                                       CacheConfig(num_sets=16, ways=4), 1))
        assert typed[WIRE_SCHEMA_KEY] == WIRE_SCHEMA_VERSION
        with pytest.raises(TypeError, match="legacy positional form"):
            make_config(TRACE)  # first arg of the removed signature


class TestUnifiedSimulate:
    def test_request_matches_array_form(self):
        request = SimRequest(TRACE, PolicySpec("srrip"),
                             CacheConfig(num_sets=16, ways=4), seed=5)
        from_request = simulate(request)
        from_array = simulate(TRACE.generate(), PolicySpec("srrip"),
                              config=CacheConfig(num_sets=16, ways=4), seed=5)
        assert np.array_equal(from_request.hits, from_array.hits)

    def test_request_with_extra_args_rejected(self):
        request = SimRequest(TRACE, PolicySpec("lru"))
        with pytest.raises(TypeError):
            simulate(request, PolicySpec("lru"))

    def test_reference_engine_selectable(self):
        request = SimRequest(TRACE, PolicySpec("lru"),
                             CacheConfig(num_sets=16, ways=4))
        batched = simulate(request)
        reference = simulate(TRACE.generate(), PolicySpec("lru"),
                             config=CacheConfig(num_sets=16, ways=4),
                             engine="reference")
        assert np.array_equal(batched.hits, reference.hits)


class TestStreamingSimulate:
    def test_stream_matches_oneshot_for_synthetic_request(self):
        request = SimRequest(TRACE, PolicySpec("srrip"),
                             CacheConfig(num_sets=16, ways=4), seed=5)
        oneshot = simulate(request)
        streamed = simulate(request, stream=True, chunk_bytes=1024)
        assert np.array_equal(streamed.hits, oneshot.hits)
        assert streamed.policy_stats == oneshot.policy_stats

    def test_stream_file_trace_from_disk(self, tmp_path):
        from emissary import trace_io

        path = tmp_path / "t.champsim.gz"
        trace_io.write_trace(path, [TRACE.generate()])
        request = SimRequest(trace_io.file_spec(path), PolicySpec("srrip"),
                             CacheConfig(num_sets=16, ways=4), seed=5)
        oneshot = simulate(SimRequest(TRACE, PolicySpec("srrip"),
                                      CacheConfig(num_sets=16, ways=4), seed=5))
        streamed = simulate(request, stream=True, chunk_bytes=2048)
        assert np.array_equal(streamed.hits, oneshot.hits)

    def test_stream_hierarchy_request(self):
        request = SimRequest(TRACE, PolicySpec("lru"),
                             HierarchyConfig(l1=CacheConfig(num_sets=8, ways=2),
                                             l2=CacheConfig(num_sets=16, ways=4)),
                             seed=5)
        oneshot = simulate(request)
        streamed = simulate(request, stream=True, chunk_bytes=1024)
        assert np.array_equal(streamed.l1.hits, oneshot.l1.hits)
        assert np.array_equal(streamed.l2.hits, oneshot.l2.hits)

    def test_stream_guards(self):
        request = SimRequest(TRACE, PolicySpec("lru"))
        with pytest.raises(TypeError, match="chunk_bytes"):
            simulate(request, chunk_bytes=1024)
        with pytest.raises(TypeError, match="progress"):
            simulate(request, progress=lambda done, total: None)

    def test_stream_on_the_reference_backend(self):
        """``stream=True``, ``chunk_bytes`` and ``progress`` go through the
        one engine call on the reference oracle as on the batched
        engine."""
        request = SimRequest(TRACE, PolicySpec("random"),
                             CacheConfig(num_sets=16, ways=4), seed=5)
        oneshot = simulate(request)
        for backend in ("batched", "reference"):
            ticks = []
            streamed = simulate(request, engine=backend, stream=True,
                                chunk_bytes=1024,
                                progress=lambda done, total: ticks.append(done))
            assert np.array_equal(streamed.hits, oneshot.hits)
            assert streamed.policy_stats == oneshot.policy_stats
            assert ticks[-1] == TRACE.n and len(ticks) == -(-TRACE.n // 128)
