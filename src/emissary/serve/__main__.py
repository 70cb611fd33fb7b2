"""CLI for the serving layer.

Subcommands::

    python -m emissary.serve serve    # run the HTTP server
    python -m emissary.serve loadgen  # drive a running server, write bench JSON
    python -m emissary.serve bench    # server + loadgen in one shot
    python -m emissary.serve smoke    # start, POST flat + hierarchy, verify
    python -m emissary.serve top      # live dashboard over /v1/stats

``smoke`` is the CI gate: it boots an in-process server on an ephemeral
port, streams one single-level and one hierarchy request (asserting
progress ticks arrive), re-posts both (asserting they answer from the
results cache without a new simulation), posts one ``telemetry=True``
request and verifies the observability plane end to end — the merged
request trace at ``/v1/trace`` carries server- and worker-side spans
under one trace id, ``/v1/metrics`` round-trips through the strict
exposition parser, ``/v1/logz`` records correlate by trace id — and
checks ``/v1/stats`` accounting: an end-to-end pass over the wire API
in a few seconds.  ``--trace-out`` additionally writes the merged
Chrome trace JSON (loadable in Perfetto) for CI artifact upload.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import socket
import subprocess
import sys
import tempfile
import time
from typing import Any

from emissary.api import PolicySpec, SimRequest
from emissary.engine import CacheConfig
from emissary.hierarchy import HierarchyConfig
from emissary.obs import parse_prometheus, sample_value, setup_serve_logging
from emissary.serve.loadgen import fetch_json, fetch_text, run_loadgen
from emissary.serve.server import DEFAULT_HOST, DEFAULT_PORT, start_server
from emissary.serve.service import (DEFAULT_QUEUE_WATERMARK,
                                    DEFAULT_SERVE_CHUNK_BYTES, SimService)
from emissary.traces import TraceSpec

logger = logging.getLogger(__name__)


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=".results_cache",
                        help="results cache directory (default: %(default)s)")
    parser.add_argument("--cache-budget-bytes", type=int, default=None,
                        help="LRU byte budget for the results cache "
                             "(default: unbounded)")
    parser.add_argument("--workers", type=int, default=1,
                        help="simulation worker processes (default: %(default)s)")
    parser.add_argument("--queue-watermark", type=int,
                        default=DEFAULT_QUEUE_WATERMARK,
                        help="in-flight depth past which requests get 429 "
                             "(default: %(default)s)")
    parser.add_argument("--chunk-bytes", type=int,
                        default=DEFAULT_SERVE_CHUNK_BYTES,
                        help="streaming chunk budget per progress tick "
                             "(default: %(default)s)")
    parser.add_argument("--no-obs", action="store_true",
                        help="disable the observability plane (per-request "
                             "traces, /v1/logz ring)")
    parser.add_argument("--obs-seed", type=int, default=0,
                        help="seed for deterministic trace ids "
                             "(default: %(default)s)")


def _service_from_args(args: argparse.Namespace) -> SimService:
    return SimService(cache_dir=args.cache_dir,
                      cache_budget_bytes=args.cache_budget_bytes,
                      max_workers=args.workers,
                      queue_watermark=args.queue_watermark,
                      chunk_bytes=args.chunk_bytes,
                      obs=not args.no_obs,
                      obs_seed=args.obs_seed)


async def _run_serve(args: argparse.Namespace) -> int:
    from emissary.serve.server import run_server

    await run_server(_service_from_args(args), args.host, args.port)
    return 0


async def _run_loadgen(args: argparse.Namespace) -> int:
    payload = await run_loadgen(args.host, args.port, clients=args.clients,
                                requests_per_client=args.requests_per_client,
                                distinct=args.distinct, seed=args.seed)
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        # One-shot CLI coroutine: the loadgen has already finished, so
        # nothing else shares this loop while the result file is written.
        with open(args.out, "w") as fh:  # emi: ignore[EMI102]
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    print(text)
    return 0


async def _run_load_bench(args: argparse.Namespace) -> int:
    """Boot a server *subprocess*, drive the fleet against it, tear down.

    A subprocess rather than in-process serving on purpose: at 10k+
    clients the client sockets and their server-side peers would live in
    one process and need 2x the fd budget; splitting them gives each
    process its own ``RLIMIT_NOFILE`` headroom.
    """
    with socket.socket() as probe:  # reserve an ephemeral port
        probe.bind((args.host, 0))
        port = probe.getsockname()[1]
    cmd = [sys.executable, "-m", "emissary.serve", "serve",
           "--host", args.host, "--port", str(port),
           "--cache-dir", args.cache_dir,
           "--workers", str(args.workers),
           "--queue-watermark", str(args.queue_watermark),
           "--chunk-bytes", str(args.chunk_bytes),
           "--obs-seed", str(args.obs_seed)]
    if args.cache_budget_bytes is not None:
        cmd += ["--cache-budget-bytes", str(args.cache_budget_bytes)]
    if args.no_obs:
        cmd += ["--no-obs"]
    # Popen only spawns (no wait); the bench loop is otherwise idle here.
    proc = subprocess.Popen(cmd)  # emi: ignore[EMI102]
    try:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                status, _payload = await fetch_json(args.host, port,
                                                    "/v1/healthz")
                if status == 200:
                    break
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not come up in 30s") from None
                await asyncio.sleep(0.1)
        payload = await run_loadgen(args.host, port, clients=args.clients,
                                    requests_per_client=args.requests_per_client,
                                    distinct=args.distinct, seed=args.seed)
    finally:
        proc.terminate()
        proc.wait(timeout=10)
    text = json.dumps(payload, indent=1, sort_keys=True)
    # One-shot CLI coroutine: server subprocess is down, loop is idle.
    with open(args.out, "w") as fh:  # emi: ignore[EMI102]
        fh.write(text + "\n")
    print(f"wrote {args.out}")
    print(text)
    return 0


async def _stream_simulate(host: str, port: int,
                           body: dict[str, Any]) -> list[dict[str, Any]]:
    """POST ?stream=1 and return the decoded NDJSON event list.

    Parses chunked framing up to the terminal chunk instead of reading
    to EOF — the HTTP-correct behaviour, and required because worker
    processes forked mid-service can pin a copy of the socket open.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        encoded = json.dumps(body).encode()
        head = (f"POST /v1/simulate?stream=1 HTTP/1.1\r\nHost: smoke\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(encoded)}\r\nConnection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + encoded)
        await writer.drain()
        header_block = await reader.readuntil(b"\r\n\r\n")
        status = int(header_block.split(b" ", 2)[1])
        if status != 200:
            rest = await reader.read(200)
            raise RuntimeError(f"stream POST failed with {status}: {rest!r}")
        events: list[dict[str, Any]] = []
        while True:
            size_line = await reader.readline()
            size = int(size_line.strip(), 16)
            if size == 0:
                await reader.readline()  # trailing CRLF of the last chunk
                break
            chunk = await reader.readexactly(size)
            await reader.readexactly(2)  # chunk's trailing CRLF
            for line in chunk.splitlines():
                if line.strip():
                    events.append(json.loads(line))
        return events
    finally:
        writer.close()
        await writer.wait_closed()


def _smoke_requests() -> tuple[dict[str, Any], dict[str, Any]]:
    trace = TraceSpec("loop", 200_000, seed=1,
                      params={"footprint_lines": 4096})
    flat = SimRequest(trace, PolicySpec("emissary", {"hp_threshold": 2}),
                      CacheConfig(num_sets=64, ways=8), seed=1)
    hier = SimRequest(trace, PolicySpec("lru"), HierarchyConfig(), seed=1)
    return flat.to_dict(), hier.to_dict()


def _check_smoke_trace(entry: dict[str, Any], failures: list[str]) -> None:
    """Assert one merged request trace has server + worker tracks under
    one trace id."""
    trace = entry.get("trace", {})
    if trace.get("otherData", {}).get("trace_id") != entry.get("trace_id"):
        failures.append(f"trace: otherData/entry trace_id mismatch ({entry})")
    spans = [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
    server_names = {s["name"] for s in spans if s.get("pid") == 0}
    worker_pids = {s["pid"] for s in spans if s.get("pid") != 0}
    if "serve.request" not in server_names:
        failures.append(f"trace: no server-side serve.request span "
                        f"({sorted(server_names)})")
    if not worker_pids:
        failures.append("trace: no worker-side spans in the merged trace")
    worker_names = {s["name"] for s in spans if s.get("pid") != 0}
    if not any(tag in name for name in worker_names
               for tag in ("kernel", "run", "stream", "decode")):
        failures.append(f"trace: worker spans carry no engine phases "
                        f"({sorted(worker_names)})")


async def _smoke_obs(port: int, traced_body: dict[str, Any],
                     failures: list[str],
                     trace_out: str | None) -> None:
    """The observability leg of the smoke: trace, metrics, logz."""
    status, _payload = await fetch_json(DEFAULT_HOST, port, "/v1/trace")
    if status != 404:
        failures.append(f"obs: expected no trace before any telemetry=True "
                        f"request, got {status}")
    status, traced = await fetch_json(DEFAULT_HOST, port, "/v1/simulate",
                                      method="POST", payload=traced_body)
    if status != 200:
        failures.append(f"obs: traced request failed with {status}: {traced}")
        return
    status, entry = await fetch_json(DEFAULT_HOST, port, "/v1/trace")
    if status != 200:
        failures.append(f"obs: /v1/trace returned {status} after a "
                        f"telemetry=True request")
        return
    _check_smoke_trace(entry, failures)

    status, text = await fetch_text(DEFAULT_HOST, port, "/v1/metrics")
    if status != 200:
        failures.append(f"obs: /v1/metrics returned {status}")
        return
    try:
        families = parse_prometheus(text)
    except ValueError as exc:
        failures.append(f"obs: /v1/metrics failed the exposition parser: {exc}")
        return
    _status, stats = await fetch_json(DEFAULT_HOST, port, "/v1/stats")
    requests_total = sample_value(families, "emissary_serve_requests_total")
    if requests_total is None or requests_total < stats.get("requests", 0) - 1:
        failures.append(f"obs: emissary_serve_requests_total {requests_total} "
                        f"vs stats requests {stats.get('requests')}")
    if "emissary_serve_latency_us" not in families:
        failures.append("obs: no emissary_serve_latency_us histogram family")

    status, logz = await fetch_json(DEFAULT_HOST, port, "/v1/logz")
    correlated = [r for r in logz.get("records", [])
                  if r.get("trace_id") == entry.get("trace_id")]
    if status != 200 or not correlated:
        failures.append(f"obs: no /v1/logz records correlated with trace "
                        f"{entry.get('trace_id')}")
    print(f"smoke obs: trace {entry.get('trace_id')} "
          f"({entry.get('span_count')} spans), "
          f"{len(families)} metric families, "
          f"{len(correlated)} correlated log records")
    if trace_out:
        # One-shot smoke coroutine: all requests already completed.
        with open(trace_out, "w") as fh:  # emi: ignore[EMI102]
            json.dump(entry.get("trace", {}), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {trace_out}")


async def _run_smoke(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory(prefix="emissary-smoke-") as tmp:
        service = SimService(cache_dir=tmp, cache_budget_bytes=64 * 1024 * 1024,
                             chunk_bytes=64 * 1024, obs=not args.no_obs,
                             obs_seed=args.obs_seed)
        server = await start_server(service, DEFAULT_HOST, port=0)
        port = server.sockets[0].getsockname()[1]
        failures: list[str] = []
        try:
            flat, hier = _smoke_requests()
            for label, body in (("flat", flat), ("hierarchy", hier)):
                events = await _stream_simulate(DEFAULT_HOST, port, body)
                kinds = [e.get("event") for e in events]
                if kinds[0] != "accepted" or kinds[-1] != "result":
                    failures.append(f"{label}: bad event envelope {kinds}")
                if "progress" not in kinds:
                    failures.append(f"{label}: no progress ticks in {kinds}")
                replay = await _stream_simulate(DEFAULT_HOST, port, body)
                statuses = [e.get("status") for e in replay]
                if "cached" not in statuses:
                    failures.append(f"{label}: re-fetch not served from cache "
                                    f"({statuses})")
                print(f"smoke {label}: {len(events)} events "
                      f"({kinds.count('progress')} progress ticks), "
                      f"re-fetch cached")
            expected_sims = 2
            if not args.no_obs:
                traced_body = dict(flat)
                traced_body["telemetry"] = True
                await _smoke_obs(port, traced_body, failures, args.trace_out)
                expected_sims = 3
            _status, stats = await fetch_json(DEFAULT_HOST, port, "/v1/stats")
            if stats.get("simulations") != expected_sims:
                failures.append(f"expected {expected_sims} simulations, stats "
                                f"says {stats.get('simulations')}")
            if stats.get("cache", {}).get("hits", 0) < 2:
                failures.append(f"expected >=2 cache hits, stats says "
                                f"{stats.get('cache')}")
        finally:
            server.close()
            await server.wait_closed()
            await service.aclose()
    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve smoke OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="emissary.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run the HTTP server")
    p_serve.add_argument("--host", default=DEFAULT_HOST)
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_serve.add_argument("--log-json", action="store_true",
                         help="emit one JSON object per log line on stderr")
    _add_service_args(p_serve)

    p_load = sub.add_parser("loadgen", help="drive a running server")
    p_load.add_argument("--host", default=DEFAULT_HOST)
    p_load.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_load.add_argument("--clients", type=int, default=100)
    p_load.add_argument("--requests-per-client", type=int, default=2)
    p_load.add_argument("--distinct", type=int, default=24,
                        help="distinct configurations in the request mix")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--out", default=None,
                        help="also write the payload to this path")

    p_bench = sub.add_parser("bench",
                             help="in-process server + loadgen, one shot")
    p_bench.add_argument("--host", default=DEFAULT_HOST)
    p_bench.add_argument("--clients", type=int, default=10_000)
    p_bench.add_argument("--requests-per-client", type=int, default=2)
    p_bench.add_argument("--distinct", type=int, default=24)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="BENCH_serve.json")
    _add_service_args(p_bench)

    p_smoke = sub.add_parser("smoke", help="end-to-end wire API check")
    p_smoke.add_argument("--trace-out", default=None,
                         help="write the smoke's merged Chrome trace JSON "
                              "here (CI artifact)")
    _add_service_args(p_smoke)

    p_top = sub.add_parser("top", help="live dashboard over /v1/stats")
    p_top.add_argument("--host", default=DEFAULT_HOST)
    p_top.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between polls (default: %(default)s)")
    p_top.add_argument("--iterations", type=int, default=None,
                       help="stop after N frames (default: run until ^C)")

    args = parser.parse_args(argv)
    if args.command == "serve" and args.log_json:
        setup_serve_logging(json_lines=True)
    else:
        logging.basicConfig(
            level=logging.INFO,
            format="%(asctime)s %(name)s %(levelname)s %(message)s")
    if args.command == "top":
        from emissary.obs.top import run_top

        try:
            return asyncio.run(run_top(args.host, args.port,
                                       interval_s=args.interval,
                                       iterations=args.iterations))
        except KeyboardInterrupt:
            return 0
    runner = {"serve": _run_serve, "loadgen": _run_loadgen,
              "bench": _run_load_bench, "smoke": _run_smoke}[args.command]
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
