"""Asyncio HTTP server exposing the versioned simulation wire API.

Routes:

``POST /v1/simulate``
    Body: a schema-versioned :class:`~emissary.api.SimRequest` wire dict
    (:mod:`emissary.wire`).  Default response is one JSON object
    ``{"key", "status", "result"}``.  With ``?stream=1`` the response is
    chunked NDJSON: an ``accepted`` event, ``progress`` events relayed
    from the worker's chunk-boundary ticks, then a terminal ``result``
    or ``error`` event.
``GET /v1/stats``
    Service counters, cache/LRU state, and the full telemetry payload.
``GET /v1/metrics``
    Prometheus text exposition (format 0.0.4) of every telemetry counter
    and histogram plus point-in-time gauges — a pure render of
    ``Telemetry.to_dict()`` (:func:`emissary.obs.metrics.
    render_prometheus`).
``GET /v1/trace``
    The most recent merged request trace (Chrome trace-event JSON,
    server + worker tracks under one trace id); ``?id=<trace_id>``
    fetches a specific ring entry, ``?summary=1`` lists the ring without
    trace payloads.
``GET /v1/logz``
    The bounded in-memory ring of structured log records (trace-id
    correlated serve lifecycle events).
``GET /v1/healthz``
    Liveness probe.

Error mapping: malformed HTTP or JSON → 400; unknown route → 404;
admission past the queue watermark → 429 with ``Retry-After``; worker
failure → 500 (error row, the connection and the pool both survive).
A client that disconnects mid-stream only ends its own relay — the
underlying simulation keeps running for any deduped waiters and still
lands in the results cache.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import time
from typing import Any

from emissary.obs import (PROMETHEUS_CONTENT_TYPE, bind_log_context,
                          render_prometheus)
from emissary.serve.http import (MAX_HEADER_BYTES, ChunkedNdjsonWriter,
                                 HttpError, HttpRequest, read_request,
                                 response_bytes, text_response_bytes)
from emissary.serve.service import Admission, QueueFullError, SimService
from emissary.telemetry import Telemetry, span_factory

logger = logging.getLogger(__name__)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8351

#: How often the streaming relay polls the progress spool while the
#: simulation future is pending.
PROGRESS_POLL_INTERVAL_S = 0.05

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class ServeApp:
    """Connection handler: keep-alive loop + route dispatch."""

    def __init__(self, service: SimService) -> None:
        self.service = service

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(response_bytes(exc.status,
                                                {"error": exc.message}))
                    await writer.drain()
                    break
                if request is None:
                    break  # client closed between requests
                await self._dispatch(request, writer)
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError,
                TimeoutError) as exc:
            logger.debug("connection dropped: %r", exc)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError) as exc:
                # CancelledError lands here when the server is torn down
                # mid-connection; the transport is already closing.
                logger.debug("close raced with client reset: %r", exc)

    async def _dispatch(self, request: HttpRequest,
                        writer: asyncio.StreamWriter) -> None:
        if request.path == "/v1/simulate":
            if request.method != "POST":
                await self._respond(writer, 405,
                                    {"error": "POST /v1/simulate"})
                return
            await self._simulate(request, writer)
        elif request.path == "/v1/stats":
            await self._respond(writer, 200, self.service.stats())
        elif request.path == "/v1/metrics":
            text = render_prometheus(self.service.telemetry.to_dict(),
                                     gauges=self.service.metric_gauges())
            writer.write(text_response_bytes(200, text,
                                             PROMETHEUS_CONTENT_TYPE))
            await writer.drain()
        elif request.path == "/v1/trace":
            await self._trace(request, writer)
        elif request.path == "/v1/logz":
            await self._respond(writer, 200, {
                "enabled": self.service.obs,
                "dropped": self.service.log_ring.dropped,
                "records": self.service.log_ring.records(),
            })
        elif request.path == "/v1/healthz":
            await self._respond(writer, 200, {"ok": True})
        else:
            await self._respond(writer, 404,
                                {"error": f"no route {request.path}"})

    async def _trace(self, request: HttpRequest,
                     writer: asyncio.StreamWriter) -> None:
        store = self.service.traces
        if request.query.get("summary", "").lower() in _TRUTHY:
            await self._respond(writer, 200, {"count": len(store),
                                              "traces": store.summaries()})
            return
        trace_id = request.query.get("id")
        entry = store.get(trace_id) if trace_id else store.latest()
        if entry is None:
            await self._respond(writer, 404, {
                "error": (f"no trace {trace_id}" if trace_id
                          else "no traces recorded yet")})
            return
        await self._respond(writer, 200, entry)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any,
                       extra_headers: dict[str, str] | None = None) -> None:
        writer.write(response_bytes(status, payload,
                                    extra_headers=extra_headers))
        await writer.drain()

    async def _simulate(self, request: HttpRequest,
                        writer: asyncio.StreamWriter) -> None:
        payload = request.json()
        if not isinstance(payload, dict):
            await self._respond(writer, 400,
                                {"error": "body must be a JSON object"})
            return
        stream = request.query.get("stream", "").lower() in _TRUTHY
        telemetry_enabled = payload.get("telemetry", False) is True
        ctx = self.service.next_trace_context()
        # Server-side phase spans exist only for requests that opted into
        # telemetry — they are the only ones whose trace is recorded, and
        # the un-instrumented bulk path must stay cheap (the serve arm of
        # `bench --telemetry-overhead` guards this).
        server_tel = Telemetry() if ctx is not None and telemetry_enabled \
            else None
        span = span_factory(server_tel)
        start = time.perf_counter()
        # bind_log_context wraps admission too: the simulation task is
        # created inside admit(), and create_task copies the bound
        # context, so worker-crash logs emitted long after this handler
        # returns still carry this request's trace id.
        with bind_log_context(trace_id=ctx.trace_id if ctx else None):
            with span("serve.request"):
                try:
                    with span("serve.admit"):
                        admission = self.service.admit(payload)
                except QueueFullError as exc:
                    await self._respond(
                        writer, 429, {"error": str(exc)},
                        extra_headers={"Retry-After": str(exc.retry_after_s)})
                    return
                except (KeyError, TypeError, ValueError) as exc:
                    await self._respond(writer, 400, {"error": str(exc)})
                    return
                with span("serve.await_result"):
                    if stream:
                        outcome = await self._stream_response(admission, writer)
                    else:
                        outcome = await self._plain_response(admission, writer)
            elapsed = time.perf_counter() - start
            self.service.observe_latency(elapsed)
            self.service.finish_request(ctx, admission, outcome, server_tel,
                                        telemetry_enabled=telemetry_enabled,
                                        elapsed_s=elapsed)

    async def _plain_response(self, admission: Admission,
                              writer: asyncio.StreamWriter) -> dict[str, Any]:
        if admission.future is None:
            outcome: dict[str, Any] = {"ok": True, "result": admission.result}
        else:
            outcome = await admission.future
        if outcome["ok"]:
            await self._respond(writer, 200, {"key": admission.key,
                                              "status": admission.status,
                                              "result": outcome["result"]})
        else:
            await self._respond(writer, 500, {"key": admission.key,
                                              "error": outcome["error"]})
        return outcome

    async def _stream_response(self, admission: Admission,
                               writer: asyncio.StreamWriter) -> dict[str, Any]:
        ndjson = ChunkedNdjsonWriter(writer)
        await ndjson.start()
        await ndjson.event({"event": "accepted", "key": admission.key,
                            "status": admission.status})
        if admission.future is None:
            await ndjson.event({"event": "result", "key": admission.key,
                                "status": "cached",
                                "result": admission.result})
            await ndjson.finish()
            return {"ok": True, "result": admission.result}

        last_tick: dict[str, Any] | None = None
        while True:
            done, _ = await asyncio.wait({admission.future},
                                         timeout=PROGRESS_POLL_INTERVAL_S)
            tick = self.service.read_progress(admission.key)
            if tick is not None and tick != last_tick:
                await ndjson.event({"event": "progress",
                                    "key": admission.key, **tick})
                last_tick = tick
            if done:
                break
        outcome = admission.future.result()
        if outcome["ok"]:
            await ndjson.event({"event": "result", "key": admission.key,
                                "status": admission.status,
                                "result": outcome["result"]})
        else:
            await ndjson.event({"event": "error", "key": admission.key,
                                "error": outcome["error"]})
        await ndjson.finish()
        return outcome


async def start_server(service: SimService, host: str = DEFAULT_HOST,
                       port: int = DEFAULT_PORT) -> asyncio.Server:
    """Bind and return the listening server (caller owns its lifetime)."""
    app = ServeApp(service)
    server = await asyncio.start_server(app.handle_connection, host, port,
                                        backlog=4096,
                                        limit=2 * MAX_HEADER_BYTES)
    return server


async def run_server(service: SimService, host: str = DEFAULT_HOST,
                     port: int = DEFAULT_PORT) -> None:
    """Serve until SIGINT/SIGTERM (the CLI entry point's main coroutine).

    Shutdown must be graceful: dying abruptly would strand the forked
    worker processes blocked on their call-queue pipe (each worker
    inherits a copy of the queue's write end, so parent death alone
    never EOFs it); :meth:`SimService.aclose` shuts the pool down
    properly.
    """
    server = await start_server(service, host, port)
    addrs = ", ".join(str(sock.getsockname()) for sock in server.sockets)
    logger.info("emissary serve listening on %s", addrs)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # non-unix event loops
            logger.debug("no signal handler support for %s", sig)
    try:
        async with server:
            await stop.wait()
    finally:
        await service.aclose()
