"""Serving layer: admission, single-flight, worker pool, wire surface.

Failure paths get explicit coverage: a client that disconnects
mid-stream, a worker process that dies abruptly (the pool is rebuilt
and an error row returned), admission past the queue watermark (429),
and duplicate-submission accounting (telemetry counters prove N
identical requests ran exactly one simulation).

Injected worker functions are module-level so they pickle under the
``fork`` start method the service's ProcessPoolExecutor uses.
"""

import asyncio
import json
import os
import time
import tracemalloc

import pytest

from emissary.api import PolicySpec, SimRequest, simulate
from emissary.engine import CacheConfig
from emissary.hierarchy import HierarchyConfig
from emissary.obs import parse_prometheus, sample_value
from emissary.obs.tracing import SERVER_TRACK_PID, derive_trace_id
from emissary.results_cache import BudgetedResultsCache, config_key
from emissary.serve.__main__ import _stream_simulate
from emissary.serve.loadgen import build_request_mix, fetch_json, fetch_text
from emissary.serve.server import start_server
from emissary.serve.service import (DEFAULT_RETRY_AFTER_S, MAX_RETRY_AFTER_S,
                                    QueueFullError, SimService,
                                    run_simulation_worker)
from emissary.traces import TraceSpec

TRACE = TraceSpec("loop", 2_000, 1, {"footprint_lines": 100})


def make_request(seed: int = 0, hierarchy: bool = False) -> SimRequest:
    config = HierarchyConfig() if hierarchy \
        else CacheConfig(num_sets=16, ways=4)
    return SimRequest(TRACE, PolicySpec("lru"), config, seed=seed)


# -- injectable worker functions (module-level: picklable under fork) ----

def fake_worker(request_dict, progress_path, chunk_bytes):
    return {"hit_rate": 0.5, "seed": request_dict.get("seed", 0)}


def slow_worker(request_dict, progress_path, chunk_bytes):
    time.sleep(0.6)
    return {"hit_rate": 0.5, "seed": request_dict.get("seed", 0)}


def crashing_worker(request_dict, progress_path, chunk_bytes):
    if request_dict.get("seed") == 666:
        os._exit(17)  # abrupt death: no exception, no cleanup
    return {"hit_rate": 0.5, "seed": request_dict.get("seed", 0)}


def failing_worker(request_dict, progress_path, chunk_bytes):
    raise RuntimeError("synthetic simulation failure")


def backend_worker(request_dict, progress_path, chunk_bytes):
    # Reports the backend it received under an advisory ``_`` key.
    return {"hit_rate": 0.5, "_backend": request_dict["backend"]}


def run(coro, timeout=60.0):
    async def bounded():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(bounded())


class TestBudgetedResultsCache:
    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError, match="budget_bytes"):
            BudgetedResultsCache(tmp_path, budget_bytes=0)

    def test_unbounded_without_budget(self, tmp_path):
        cache = BudgetedResultsCache(tmp_path)
        for seed in range(10):
            cache.store(make_request(seed), {"row": seed})
        assert cache.evictions == 0

    def test_evicts_to_budget(self, tmp_path):
        cache = BudgetedResultsCache(tmp_path, budget_bytes=1)  # min budget
        first, second = make_request(1), make_request(2)
        cache.store(first, {"row": 1})
        cache.store(second, {"row": 2})
        # The just-stored entry is never evicted; the older one goes.
        assert cache.load(second) == {"row": 2}
        assert cache.load(first) is None
        assert cache.evictions == 1

    def test_lru_touch_protects_hot_entries(self, tmp_path):
        requests = [make_request(seed) for seed in range(3)]
        cache = BudgetedResultsCache(tmp_path)
        for i, request in enumerate(requests):
            cache.store(request, {"row": i})
        entry_bytes = cache.total_bytes() // 3
        cache.budget_bytes = entry_bytes * 2 + entry_bytes // 2  # fits 2
        time.sleep(0.02)  # ensure the touch moves mtime forward
        assert cache.load(requests[0]) is not None  # touch: now the hottest
        cache.store(make_request(99), {"row": 99})
        assert cache.load(requests[0]) is not None  # survived (recently used)
        assert cache.evictions >= 1
        assert cache.total_bytes() <= cache.budget_bytes

    def test_eviction_counts_in_telemetry(self, tmp_path):
        from emissary.telemetry import Telemetry

        telemetry = Telemetry()
        cache = BudgetedResultsCache(tmp_path, budget_bytes=1,
                                     telemetry=telemetry)
        cache.store(make_request(1), {"row": 1})
        cache.store(make_request(2), {"row": 2})
        assert telemetry.counters["serve.cache_evictions"] == 1
        assert telemetry.counters["serve.cache_evicted_bytes"] > 0


class TestSingleFlight:
    def test_n_identical_requests_one_simulation(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path, worker_fn=slow_worker)
            try:
                payload = make_request(seed=7).to_dict()
                admissions = [service.admit(payload) for _ in range(10)]
                outcomes = await asyncio.gather(
                    *[a.future for a in admissions])
            finally:
                await service.aclose()
            return service, admissions, outcomes

        service, admissions, outcomes = run(scenario())
        assert [a.status for a in admissions] == ["accepted"] + ["joined"] * 9
        assert len({id(a.future) for a in admissions}) == 1
        assert all(o["ok"] and o["result"]["seed"] == 7 for o in outcomes)
        counters = service.telemetry.counters
        assert counters["serve.requests"] == 10
        assert counters["serve.simulations"] == 1
        assert counters["serve.dedupe_joined"] == 9

    def test_completed_request_serves_from_cache(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path, worker_fn=fake_worker)
            try:
                payload = make_request(seed=3).to_dict()
                first = service.admit(payload)
                await first.future
                second = service.admit(payload)
            finally:
                await service.aclose()
            return first, second, service

        first, second, service = run(scenario())
        assert first.status == "accepted"
        assert second.status == "cached"
        assert second.result == {"hit_rate": 0.5, "seed": 3}
        assert service.telemetry.counters["serve.cache_hits"] == 1

    def test_queue_full_rejects_with_429_semantics(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path, worker_fn=slow_worker,
                                 queue_watermark=2)
            try:
                first = service.admit(make_request(seed=1).to_dict())
                second = service.admit(make_request(seed=2).to_dict())
                with pytest.raises(QueueFullError) as excinfo:
                    service.admit(make_request(seed=3).to_dict())
                # Joining an in-flight key is admission-exempt: it adds
                # no work, so it succeeds even at the watermark.
                joined = service.admit(make_request(seed=1).to_dict())
                await asyncio.gather(first.future, second.future)
            finally:
                await service.aclose()
            return service, excinfo.value, joined

        service, exc, joined = run(scenario())
        assert exc.retry_after_s >= 1
        assert joined.status == "joined"
        assert service.telemetry.counters["serve.rejected"] == 1

    def test_retry_after_derived_from_queue_depth_and_p50(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path, worker_fn=slow_worker,
                                 queue_watermark=2)
            try:
                # Cold start: nothing observed yet -> static default.
                cold = service.retry_after_s(10)
                # Median service time 0.5s (the 9.0 outlier must not
                # drag the hint up the way a mean would).
                for latency in (0.4, 0.5, 0.6, 9.0):
                    service.observe_latency(latency)
                shallow = service.retry_after_s(1)      # ceil(0.5) = 1
                deep = service.retry_after_s(8)         # ceil(4.0) = 4
                clamped = service.retry_after_s(10_000)  # hits the ceiling

                # The derived hint rides the raised QueueFullError.
                first = service.admit(make_request(seed=1).to_dict())
                second = service.admit(make_request(seed=2).to_dict())
                with pytest.raises(QueueFullError) as excinfo:
                    service.admit(make_request(seed=3).to_dict())
                await asyncio.gather(first.future, second.future)
            finally:
                await service.aclose()
            return cold, shallow, deep, clamped, excinfo.value

        cold, shallow, deep, clamped, exc = run(scenario())
        assert cold == DEFAULT_RETRY_AFTER_S
        assert shallow == 1
        assert deep == 4
        assert clamped == MAX_RETRY_AFTER_S
        assert exc.retry_after_s == 1  # depth 2 x 0.5s p50, rounded up

    def test_worker_crash_returns_error_row_and_pool_survives(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path, worker_fn=crashing_worker)
            try:
                crash = service.admit(make_request(seed=666).to_dict())
                crash_outcome = await crash.future
                # The pool was rebuilt: the next simulation succeeds.
                ok = service.admit(make_request(seed=1).to_dict())
                ok_outcome = await ok.future
            finally:
                await service.aclose()
            return service, crash_outcome, ok_outcome

        service, crash_outcome, ok_outcome = run(scenario())
        assert crash_outcome == {"ok": False,
                                 "error": crash_outcome["error"]}
        assert "died" in crash_outcome["error"]
        assert ok_outcome["ok"] and ok_outcome["result"]["seed"] == 1
        counters = service.telemetry.counters
        assert counters["serve.worker_crashes"] == 1
        assert counters["serve.errors"] == 1

    def test_clean_worker_exception_is_error_row_without_rebuild(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path, worker_fn=failing_worker)
            try:
                admission = service.admit(make_request(seed=1).to_dict())
                outcome = await admission.future
            finally:
                await service.aclose()
            return service, outcome

        service, outcome = run(scenario())
        assert not outcome["ok"]
        assert "synthetic simulation failure" in outcome["error"]
        counters = service.telemetry.counters
        assert counters["serve.errors"] == 1
        assert "serve.worker_crashes" not in counters

    def test_malformed_payload_raises_before_any_work(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path, worker_fn=fake_worker)
            try:
                payload = make_request().to_dict()
                payload["injected"] = 1
                with pytest.raises(ValueError, match="unknown wire keys"):
                    service.admit(payload)
            finally:
                await service.aclose()
            return service

        service = run(scenario())
        assert "serve.simulations" not in service.telemetry.counters


class TestRequestBackend:
    """The worker runs the request on its own backend, while dedupe and
    cache keys stay backend-invariant."""

    def test_worker_receives_the_request_backend(self, tmp_path):
        def wire(seed, backend):
            return dict(make_request(seed=seed).to_dict(), backend=backend)

        async def scenario():
            service = SimService(cache_dir=tmp_path, worker_fn=backend_worker)
            try:
                ran = {}
                for seed, backend in ((1, "compiled"), (2, "reference")):
                    admission = service.admit(wire(seed, backend))
                    ran[backend] = (await admission.future)["result"]
                # Same request on another backend: same key, so served
                # from the cache entry the compiled run left.
                cached = service.admit(wire(1, "reference"))
                # Concurrent submissions differing only in backend share
                # one simulation.
                first = service.admit(wire(3, "reference"))
                joined = service.admit(wire(3, "batched"))
                await first.future
            finally:
                await service.aclose()
            return ran, cached, first, joined, service

        ran, cached, first, joined, service = run(scenario())
        assert ran["compiled"]["_backend"] == "compiled"
        assert ran["reference"]["_backend"] == "reference"
        assert cached.status == "cached"
        assert cached.key == config_key(make_request(seed=1))
        assert cached.result["_backend"] == "compiled"
        assert (first.status, joined.status) == ("accepted", "joined")
        assert first.key == joined.key
        assert service.telemetry.counters["serve.simulations"] == 3

    def test_reference_request_streams_the_oracle(self, tmp_path):
        request = make_request(seed=4, hierarchy=True)
        progress = tmp_path / "progress.json"
        payload = run_simulation_worker(
            dict(request.to_dict(), backend="reference"), str(progress), 4096)
        # Streamed like any backend: the chunk boundaries tick.
        assert progress.exists()
        expected = simulate(request, engine="reference").to_dict()

        def outcomes(d):
            if not isinstance(d, dict):
                return d
            return {k: outcomes(v) for k, v in d.items()
                    if k not in ("elapsed_s", "accesses_per_s", "_worker_pid")}

        assert outcomes(payload) == outcomes(expected)


def test_worker_memory_stays_flat_in_trace_length():
    """Deterministic memory guard for the serve worker (tracemalloc peak
    of ``run_simulation_worker`` on a 4M-access flat ``call`` request,
    streamed in 256 KiB chunks).

    The streamed path holds one generated chunk and a handful of
    chunk-sized temporaries (decoded lines, run collapse, set sort,
    kernel scratch): about 7.4 chunk budgets, 1.5-1.9 MiB at 250k, 1M
    and 4M accesses alike.  The bound is 12 chunk budgets (3 MiB).  A
    worker that keeps the hit vector holds one more byte per access,
    3.8 MiB at this length on its own, and reads 7.7 MiB here."""
    chunk_bytes = 256 * 1024
    request = SimRequest(TraceSpec("call", 4_000_000, 1), PolicySpec("lru"),
                         CacheConfig()).to_dict()
    warm = dict(request, trace=TraceSpec("call", 10_000, 1).to_dict())
    run_simulation_worker(warm, None, chunk_bytes)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_simulation_worker(request, None, chunk_bytes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = 12 * chunk_bytes
    assert peak <= bound, (f"peak {peak / 2**20:.2f} MiB over the "
                           f"{bound / 2**20:.2f} MiB bound")


class TestHttpServer:
    """End-to-end over a real socket with the real simulation worker."""

    def test_simulate_matches_library_and_caches(self, tmp_path):
        request = make_request(seed=5)

        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 chunk_bytes=4096)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                status, first = await fetch_json(
                    "127.0.0.1", port, "/v1/simulate", "POST",
                    request.to_dict())
                status2, again = await fetch_json(
                    "127.0.0.1", port, "/v1/simulate", "POST",
                    request.to_dict())
                _, stats = await fetch_json("127.0.0.1", port, "/v1/stats")
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return status, first, status2, again, stats

        status, first, status2, again, stats = run(scenario())
        assert status == 200 and status2 == 200
        assert first["status"] == "accepted"
        assert again["status"] == "cached"
        assert first["key"] == again["key"] == config_key(request)
        direct = simulate(request)
        assert first["result"]["hit_count"] == direct.hit_count
        assert again["result"] == first["result"]
        assert stats["simulations"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["telemetry"]["counters"]["serve.requests"] == 2

    def test_streamed_response_carries_progress_and_result(self, tmp_path):
        request = make_request(seed=6, hierarchy=True)

        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 chunk_bytes=2048)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                events = await _stream_simulate("127.0.0.1", port,
                                                request.to_dict())
                replay = await _stream_simulate("127.0.0.1", port,
                                                request.to_dict())
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return events, replay

        events, replay = run(scenario())
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted" and kinds[-1] == "result"
        progress = [e for e in events if e["event"] == "progress"]
        assert progress, f"no progress ticks in {kinds}"
        assert progress[-1]["done"] == TRACE.n
        direct = simulate(request)
        assert events[-1]["result"]["l2_mpki"] == \
            pytest.approx(direct.to_dict()["l2_mpki"])
        assert replay[-1]["status"] == "cached"

    def test_http_errors(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 worker_fn=fake_worker)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            results = {}
            try:
                results["not_json"] = await fetch_json(
                    "127.0.0.1", port, "/v1/simulate", "POST", "not a dict")
                bad = make_request().to_dict()
                bad["injected"] = 1
                results["unknown_key"] = await fetch_json(
                    "127.0.0.1", port, "/v1/simulate", "POST", bad)
                results["no_route"] = await fetch_json(
                    "127.0.0.1", port, "/v1/nope")
                results["bad_method"] = await fetch_json(
                    "127.0.0.1", port, "/v1/simulate")
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return results

        results = run(scenario())
        assert results["not_json"][0] == 400
        assert results["unknown_key"][0] == 400
        assert "unknown wire keys" in results["unknown_key"][1]["error"]
        assert results["no_route"][0] == 404
        assert results["bad_method"][0] == 405

    def test_bad_trace_numbers_are_400_at_decode(self, tmp_path):
        # Regression: "n": 0 decoded and failed only in the worker, and
        # "n": 5.7 silently ran as n=5.
        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 worker_fn=fake_worker)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            results = []
            try:
                for n in (0, 5.7, "12"):
                    bad = make_request().to_dict()
                    bad["trace"]["n"] = n
                    results.append(await fetch_json(
                        "127.0.0.1", port, "/v1/simulate", "POST", bad))
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return results

        results = run(scenario())
        assert [status for status, _ in results] == [400, 400, 400]
        assert "n must be positive" in results[0][1]["error"]
        assert "TraceSpec.n must be an int" in results[1][1]["error"]

    def test_non_bool_telemetry_is_400(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 worker_fn=fake_worker)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                bad = dict(make_request().to_dict(), telemetry="false")
                return await fetch_json("127.0.0.1", port, "/v1/simulate",
                                        "POST", bad), service
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        (status, body), service = run(scenario())
        assert status == 400
        assert "telemetry must be a bool" in body["error"]
        assert "serve.simulations" not in service.telemetry.counters

    def test_queue_full_gets_429_with_retry_after(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 worker_fn=slow_worker, queue_watermark=1)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1",
                                                               port)
                async def post(seed):
                    body = json.dumps(make_request(seed=seed).to_dict()).encode()
                    writer.write(
                        (f"POST /v1/simulate HTTP/1.1\r\nHost: t\r\n"
                         f"Content-Length: {len(body)}\r\n\r\n"
                         ).encode() + body)
                    await writer.drain()
                    header_block = await reader.readuntil(b"\r\n\r\n")
                    status = int(header_block.split(b" ", 2)[1])
                    headers = header_block.decode("latin-1").lower()
                    length = 0
                    for line in headers.split("\r\n"):
                        if line.startswith("content-length:"):
                            length = int(line.split(":")[1])
                    await reader.readexactly(length)
                    return status, headers

                first = asyncio.create_task(post(1))
                await asyncio.sleep(0.1)  # let the first occupy the queue
                # second distinct request on a fresh connection -> 429
                status2, headers2 = await fetch_json(
                    "127.0.0.1", port, "/v1/simulate", "POST",
                    make_request(seed=2).to_dict()), None
                status1, _ = await first
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return status1, status2

        status1, status2 = run(scenario())
        assert status1 == 200
        assert status2[0] == 429
        assert "retry" in json.dumps(status2[1]).lower()

    def test_client_disconnect_mid_stream_keeps_simulation_alive(self, tmp_path):
        request = make_request(seed=9)
        key = config_key(request)

        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 worker_fn=slow_worker)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1",
                                                               port)
                body = json.dumps(request.to_dict()).encode()
                writer.write(
                    (f"POST /v1/simulate?stream=1 HTTP/1.1\r\nHost: t\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")   # response headers
                await reader.readline()               # first chunk size line
                # Hang up abruptly, mid-stream, while the worker is busy.
                writer.close()
                task = service._inflight[key]
                outcome = await asyncio.shield(task)
                # The server keeps serving other clients afterwards.
                status, _ = await fetch_json("127.0.0.1", port, "/v1/healthz")
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return outcome, status, service

        outcome, status, service = run(scenario())
        assert outcome["ok"] and outcome["result"]["seed"] == 9
        assert status == 200
        # The disconnected client's simulation still landed in the cache.
        assert service.cache.load(request) == outcome["result"]


class TestObservability:
    """Tracing, metrics, and structured-log surfaces over a live server."""

    def test_trace_propagates_across_process_pool(self, tmp_path):
        """A telemetry=True request produces one merged trace: server
        spans on pid 0 and the worker's real-pid spans under the same
        deterministic trace id."""
        body = make_request(seed=11).to_dict()
        body["telemetry"] = True

        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache", obs_seed=42)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                missing = await fetch_json("127.0.0.1", port, "/v1/trace")
                status, _ = await fetch_json("127.0.0.1", port,
                                             "/v1/simulate", "POST", body)
                assert status == 200
                traced = await fetch_json("127.0.0.1", port, "/v1/trace")
                summary = await fetch_json("127.0.0.1", port,
                                           "/v1/trace?summary=1")
                by_id = await fetch_json(
                    "127.0.0.1", port,
                    f"/v1/trace?id={traced[1]['trace_id']}")
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return missing, traced, summary, by_id

        missing, (status, entry), (_, summary), (_, by_id) = run(scenario())
        assert missing[0] == 404  # nothing traced before the request
        assert status == 200
        # The id is derived from (obs_seed, counter): replayable, no clock.
        assert entry["trace_id"] == derive_trace_id(42, 0)
        assert entry["trace"]["otherData"]["trace_id"] == entry["trace_id"]
        spans = [e for e in entry["trace"]["traceEvents"]
                 if e.get("ph") == "X"]
        server_names = {e["name"] for e in spans
                        if e["pid"] == SERVER_TRACK_PID}
        assert "serve.request" in server_names
        assert "serve.admit" in server_names
        worker_pids = {e["pid"] for e in spans
                       if e["pid"] != SERVER_TRACK_PID}
        assert len(worker_pids) == 1  # one worker process track
        assert entry["worker_pid"] in worker_pids
        worker_names = {e["name"] for e in spans
                        if e["pid"] == entry["worker_pid"]}
        assert any("kernel" in n or "run" in n or "stream" in n
                   or "decode" in n for n in worker_names), worker_names
        assert summary["count"] == 1
        assert "trace" not in summary["traces"][0]
        assert by_id["trace_id"] == entry["trace_id"]

    def test_untraced_requests_produce_no_trace(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 worker_fn=fake_worker)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                status, _ = await fetch_json(
                    "127.0.0.1", port, "/v1/simulate", "POST",
                    make_request(seed=1).to_dict())
                assert status == 200
                trace = await fetch_json("127.0.0.1", port, "/v1/trace")
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return trace, service.stats()

        trace, stats = run(scenario())
        assert trace[0] == 404
        assert stats["obs"]["enabled"] is True
        assert stats["obs"]["traces"] == 0

    def test_metrics_exposition_parses_and_matches_stats(self, tmp_path):
        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 worker_fn=fake_worker)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                for seed in (1, 2):
                    await fetch_json("127.0.0.1", port, "/v1/simulate",
                                     "POST", make_request(seed=seed).to_dict())
                status, text = await fetch_text("127.0.0.1", port,
                                                "/v1/metrics")
                _, stats = await fetch_json("127.0.0.1", port, "/v1/stats")
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return status, text, stats

        status, text, stats = run(scenario())
        assert status == 200
        families = parse_prometheus(text)  # the strict golden parser
        assert sample_value(families, "emissary_serve_requests_total") == \
            stats["requests"] == 2
        assert sample_value(families, "emissary_serve_latency_us_count") == 2
        assert sample_value(families, "emissary_serve_latency_us_bucket",
                            {"le": "+Inf"}) == 2
        assert sample_value(families, "emissary_serve_queue_depth") == 0
        assert sample_value(families,
                            "emissary_serve_queue_watermark") is not None

    def test_logz_correlates_events_with_trace_ids(self, tmp_path):
        body = make_request(seed=3).to_dict()
        body["telemetry"] = True

        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 worker_fn=fake_worker)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                await fetch_json("127.0.0.1", port, "/v1/simulate", "POST",
                                 body)
                _, trace = await fetch_json("127.0.0.1", port, "/v1/trace")
                _, logz = await fetch_json("127.0.0.1", port, "/v1/logz")
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return trace, logz

        trace, logz = run(scenario())
        assert logz["enabled"] is True
        completions = [r for r in logz["records"]
                       if r.get("event") == "request"]
        assert completions, logz["records"]
        assert completions[-1]["trace_id"] == trace["trace_id"]
        assert completions[-1]["request_key"] == trace["key"]

    def test_results_bit_identical_with_obs_on_and_off(self, tmp_path):
        request = make_request(seed=21)

        async def one_pass(obs, cache_dir):
            service = SimService(cache_dir=cache_dir, obs=obs)
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                status, payload = await fetch_json(
                    "127.0.0.1", port, "/v1/simulate", "POST",
                    request.to_dict())
                assert status == 200
                trace = await fetch_json("127.0.0.1", port, "/v1/trace")
                stats = service.stats()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return payload, trace, stats

        async def scenario():
            on = await one_pass(True, tmp_path / "on")
            off = await one_pass(False, tmp_path / "off")
            return on, off

        (res_on, _, stats_on), (res_off, trace_off, stats_off) = \
            run(scenario())
        wall_clock = ("elapsed_s", "accesses_per_s")
        outcome_on = {k: v for k, v in res_on["result"].items()
                      if k not in wall_clock}
        outcome_off = {k: v for k, v in res_off["result"].items()
                       if k not in wall_clock}
        assert outcome_on == outcome_off  # bit-identical simulation outcome
        assert trace_off[0] == 404  # obs off records nothing
        assert stats_off["obs"]["enabled"] is False
        assert stats_off["obs"]["log_records"] == 0
        assert stats_on["obs"]["enabled"] is True

    def test_spool_cleanup_is_tracked_and_fires(self, tmp_path):
        """The grace-period spool unlink is a *tracked* timer: it fires
        after ``spool_grace_s`` even when no streaming relay is reading,
        and ``aclose`` drains any timer still pending."""
        request = make_request(seed=4)
        key = config_key(request)

        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 worker_fn=fake_worker,
                                 spool_dir=tmp_path / "spool",
                                 spool_grace_s=0.05)
            spool = service.progress_path(key)
            try:
                admission = service.admit(request.to_dict())
                await admission.future
                assert key in service._spool_timers  # tracked, not fired
                # Stand-in for the worker's final tick: written before the
                # grace timer fires, visible to late-polling relays.
                spool.write_text('{"done": 1}')  # emi: ignore[EMI102]
                await asyncio.sleep(0.2)
                fired = not spool.exists() and key not in service._spool_timers

                # Second pass: aclose before the timer fires must still
                # remove the spool (the loop dies with the timer pending).
                spool.write_text('{"done": 2}')  # emi: ignore[EMI102]
                service._schedule_spool_cleanup(asyncio.get_running_loop(),
                                                key, spool)
            finally:
                await service.aclose()
            return fired, spool.exists(), dict(service._spool_timers)

        fired, exists_after_close, timers = run(scenario())
        assert fired
        assert not exists_after_close
        assert timers == {}

    def test_orphan_spools_purged_at_init(self, tmp_path):
        spool_dir = tmp_path / "spool"
        spool_dir.mkdir()
        orphan = spool_dir / "deadbeef.progress.json"
        orphan.write_text('{"done": 10}')
        (spool_dir / "unrelated.txt").write_text("keep me")

        async def scenario():
            service = SimService(cache_dir=tmp_path / "cache",
                                 worker_fn=fake_worker, spool_dir=spool_dir)
            try:
                records = service.log_ring.records()
            finally:
                await service.aclose()
            return records

        records = run(scenario())
        assert not orphan.exists()
        assert (spool_dir / "unrelated.txt").exists()
        evictions = [r for r in records if r.get("event") == "spool_evicted"]
        assert any("deadbeef" in r["message"] for r in evictions)


class TestLoadgenPieces:
    def test_request_mix_is_valid_and_deterministic(self):
        mix_a = build_request_mix(16)
        mix_b = build_request_mix(16)
        assert mix_a == mix_b
        assert len({config_key(d) for d in mix_a}) == 16
        decoded = [SimRequest.from_dict(d) for d in mix_a]
        assert any(r.is_hierarchy for r in decoded)
        assert any(not r.is_hierarchy for r in decoded)

    def test_percentile_edges(self):
        from emissary.serve.loadgen import _percentile

        assert _percentile([], 0.5) == 0.0
        assert _percentile([3.0], 0.99) == 3.0
        values = [float(i) for i in range(1, 101)]
        assert _percentile(values, 0.50) == pytest.approx(50.0, abs=1.0)
        assert _percentile(values, 0.99) == pytest.approx(99.0, abs=1.0)
