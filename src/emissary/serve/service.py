"""The simulation service: admission, single-flight dedupe, worker pool.

This module is the policy layer between the HTTP surface
(:mod:`emissary.serve.server`) and the engine: it decides, per wire
request, whether to answer from the budgeted results cache, join an
identical in-flight simulation, run a new one on the worker pool, or
push back with 429 when the queue is past its watermark.

Design points:

single-flight
    Requests are keyed by :func:`~emissary.results_cache.config_key` —
    the same content hash the results cache uses.  N identical
    submissions while one is in flight produce exactly **one**
    simulation; every waiter shares the same :class:`asyncio.Task` and
    the telemetry counters prove it (``serve.simulations`` vs
    ``serve.dedupe_joined``).

process workers
    Simulations run on a bounded :class:`~concurrent.futures.
    ProcessPoolExecutor` so the asyncio loop never blocks on a kernel
    loop.  A *clean* worker exception is surfaced as an error row; an
    *abrupt* worker death breaks the whole pool (CPython semantics), so
    the service catches :class:`BrokenProcessPool`, rebuilds the
    executor, and keeps serving — one crashed request never takes the
    server down.

progress spool
    The worker can't call back into the server's event loop, so it
    publishes progress ticks (one per ``simulate_stream`` chunk
    boundary) as an atomically-replaced JSON file per request key; the
    streaming handler polls the spool and relays ticks as NDJSON events.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import logging
import math
import os
import time
import uuid
from collections.abc import Callable, Mapping
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from emissary.api import SimRequest, simulate
from emissary.obs import (DEFAULT_LOG_CAPACITY, DEFAULT_TRACE_CAPACITY,
                          LogRing, TraceContext, TraceStore, derive_trace_id)
from emissary.results_cache import (DEFAULT_CACHE_DIR, BudgetedResultsCache,
                                    config_key)
from emissary.telemetry import Telemetry

logger = logging.getLogger(__name__)

#: Accepted-but-unfinished requests beyond this depth are refused with
#: 429 + Retry-After instead of queued without bound.
DEFAULT_QUEUE_WATERMARK = 64

#: Streaming chunk budget for served simulations.  Small relative to the
#: library default on purpose: each chunk boundary is a progress tick,
#: and a served request should tick several times, not once.
DEFAULT_SERVE_CHUNK_BYTES = 256 * 1024

#: Suggested client back-off for 429 responses, seconds — the floor and
#: the cold-start fallback before any service latency has been observed.
DEFAULT_RETRY_AFTER_S = 1

#: Ceiling for derived Retry-After hints, seconds: a deep queue should
#: push clients back, not tell them to go away for minutes.
MAX_RETRY_AFTER_S = 30

#: How long a finished request's progress spool file lingers so
#: streaming relays (polling at their own cadence) can still observe the
#: final tick before cleanup.
SPOOL_GRACE_S = 2.0


def _histogram_p50(hist: Mapping[int, int]) -> float | None:
    """Median observed value of a ``{value: count}`` histogram, or None
    for an empty one."""
    total = sum(hist.values())
    if total <= 0:
        return None
    midpoint = (total + 1) // 2
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= midpoint:
            return float(value)
    return None


def _unlink_quietly(path: Path) -> None:
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        logger.debug("spool cleanup of %s raced: %s", path, exc)


class QueueFullError(Exception):
    """Admission refused: the in-flight queue is past its watermark."""

    def __init__(self, depth: int, watermark: int,
                 retry_after_s: int = DEFAULT_RETRY_AFTER_S) -> None:
        super().__init__(
            f"queue depth {depth} is at the admission watermark "
            f"{watermark}; retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s


def _warmup_worker() -> int:
    """No-op warm-up task; submitting it forces the pool to fork."""
    return os.getpid()


def _write_progress_file(path: Path, done: int, total: int) -> None:
    """Atomically publish a progress tick (readers never see torn JSON)."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(json.dumps({"done": done, "total": total}))
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _progress_tick(spool: Path, done: int, total: int) -> None:
    """A worker's progress callback: publish the tick, and log instead of
    raising when it cannot be written."""
    try:
        _write_progress_file(spool, done, total)
    except OSError as exc:
        # Ticks are advisory; the simulation must not die because the
        # spool directory vanished under it.
        logger.warning("progress tick for %s failed: %s", spool, exc)


def run_simulation_worker(request_dict: dict[str, Any], progress_path: str | None,
                          chunk_bytes: int) -> dict[str, Any]:
    """Executed inside a worker process: decode, stream, encode.

    This is deliberately the same typed path a library user takes —
    :func:`emissary.api.simulate` on a :class:`~emissary.api.SimRequest`
    — on the request's own ``backend``.  Batched backends stream in
    ``chunk_bytes`` pieces (the progress-tick budget) without hit
    vectors, ticking to the spool file at ``progress_path`` when one is
    given, so a worker's memory stays near the chunk budget however long
    the trace; the ``"reference"`` oracle has no chunks to tick at and
    runs one-shot.
    """
    request = SimRequest.from_dict(request_dict)
    if request.backend == "reference":
        result = simulate(request, keep_hits=False)
    else:
        progress = (None if progress_path is None
                    else functools.partial(_progress_tick, Path(progress_path)))
        result = simulate(request, stream=True, chunk_bytes=chunk_bytes,
                          progress=progress, keep_hits=False)
    payload = dict(result.to_dict())
    # Advisory key (always allowed by check_known_keys, stripped by the
    # service before caching): lets the merged request trace put worker
    # spans on the real worker pid's track.
    payload["_worker_pid"] = os.getpid()
    return payload


@dataclass
class Admission:
    """Outcome of admitting one wire request (not a wire payload itself).

    ``status`` is ``"cached"`` (answered immediately, ``result`` set),
    ``"joined"`` (deduped onto an identical in-flight simulation), or
    ``"accepted"`` (a new simulation was scheduled).  For the latter two
    ``future`` resolves to the outcome row ``{"ok": True, "result": ...}``
    or ``{"ok": False, "error": ...}`` — error rows, not raised
    exceptions, so N waiters all observe the same terminal state.
    """

    key: str
    status: str
    result: dict[str, Any] | None = None
    future: "asyncio.Task[dict[str, Any]] | None" = None


class SimService:
    """Admission control + single-flight + worker pool + budgeted cache."""

    def __init__(self, cache_dir: str | Path = DEFAULT_CACHE_DIR,
                 cache_budget_bytes: int | None = None,
                 max_workers: int = 1,
                 queue_watermark: int = DEFAULT_QUEUE_WATERMARK,
                 chunk_bytes: int = DEFAULT_SERVE_CHUNK_BYTES,
                 spool_dir: str | Path | None = None,
                 telemetry: Telemetry | None = None,
                 worker_fn: Callable[..., dict[str, Any]] | None = None,
                 obs: bool = True,
                 obs_seed: int = 0,
                 trace_capacity: int = DEFAULT_TRACE_CAPACITY,
                 log_capacity: int = DEFAULT_LOG_CAPACITY,
                 spool_grace_s: float = SPOOL_GRACE_S) -> None:
        if queue_watermark < 1:
            raise ValueError(f"queue_watermark must be >= 1, got {queue_watermark}")
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.cache = BudgetedResultsCache(cache_dir,
                                          budget_bytes=cache_budget_bytes,
                                          telemetry=self.telemetry)
        self.queue_watermark = queue_watermark
        self.chunk_bytes = chunk_bytes
        self.spool_dir = Path(spool_dir) if spool_dir is not None \
            else Path(cache_dir) / "progress"
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.spool_grace_s = spool_grace_s
        self._max_workers = max_workers
        self._worker_fn = worker_fn if worker_fn is not None \
            else run_simulation_worker
        self._executor = self._new_executor()
        self._inflight: dict[str, asyncio.Task[dict[str, Any]]] = {}
        self._spool_timers: dict[str, tuple[asyncio.TimerHandle, Path]] = {}
        self._started = time.monotonic()
        self.obs = obs
        self.obs_seed = obs_seed
        self._trace_counter = itertools.count()
        self.traces = TraceStore(capacity=trace_capacity)
        self.log_ring = LogRing(capacity=log_capacity)
        self._obs_logger: logging.Logger | None = None
        self._obs_prev_level: int | None = None
        if obs:
            self._attach_log_ring()
        self._purge_orphan_spools()

    def _attach_log_ring(self) -> None:
        """Attach the ``/v1/logz`` ring to the package logger tree.

        The ring needs INFO records even when the process-level logging
        config is quieter, so the ``emissary`` logger's level is bumped
        (and restored at :meth:`aclose`) — handlers attached elsewhere
        keep filtering at their own levels.
        """
        root = logging.getLogger("emissary")
        self._obs_logger = root
        if root.getEffectiveLevel() > logging.INFO:
            self._obs_prev_level = root.level
            root.setLevel(logging.INFO)
        root.addHandler(self.log_ring)

    def _purge_orphan_spools(self) -> None:
        """Evict progress spools orphaned by a previous process.

        A crash (or a SIGKILL mid-grace-period) can strand spool files
        that no live request owns; sweeping them at startup keeps the
        spool directory bounded by the in-flight set.
        """
        for orphan in sorted(self.spool_dir.glob("*.progress.json")):
            _unlink_quietly(orphan)
            logger.info("evicted orphan progress spool %s", orphan.name,
                        extra={"event": "spool_evicted"})

    def _new_executor(self) -> ProcessPoolExecutor:
        """Build the pool and fork its workers *eagerly*.

        Under the default ``fork`` start method the pool forks on first
        submit, and a fork performed mid-service would hand every worker
        a copy of every accepted connection socket — keeping clients
        from ever seeing EOF after the server closes their connection.
        A warm-up submit here forks the full complement while the only
        open fds are the service's own.
        """
        # EMI104 exception, by design: reachable from async _run only on
        # the BrokenProcessPool *rebuild* path, where the broken pool's
        # workers are already dead and the replacement must fork while
        # the server holds its listen socket.  Documented trade-off in
        # _rebuild_executor; normal construction happens in __init__
        # before any socket exists.
        executor = ProcessPoolExecutor(  # emi: ignore[EMI104]
            max_workers=self._max_workers)
        executor.submit(_warmup_worker).result()
        return executor

    # -- admission --------------------------------------------------------

    def admit(self, payload: Mapping[str, Any]) -> Admission:
        """Admit one wire request dict (strictly decoded).

        Raises ``ValueError`` / ``TypeError`` / ``KeyError`` for a
        malformed payload (the HTTP layer maps those to 400) and
        :class:`QueueFullError` past the watermark (mapped to 429).
        Cache-hit and dedupe-join admissions never count against the
        watermark — they add no work.
        """
        self.telemetry.inc("serve.requests")
        request = SimRequest.from_dict(dict(payload))
        key = config_key(request)

        cached = self.cache.load(request)
        if cached is not None:
            self.telemetry.inc("serve.cache_hits")
            return Admission(key=key, status="cached", result=cached)

        existing = self._inflight.get(key)
        if existing is not None:
            self.telemetry.inc("serve.dedupe_joined")
            logger.info("joined in-flight simulation %s", key[:16],
                        extra={"event": "dedupe_joined", "request_key": key})
            return Admission(key=key, status="joined", future=existing)

        depth = len(self._inflight)
        if depth >= self.queue_watermark:
            self.telemetry.inc("serve.rejected")
            logger.warning(
                "admission rejected: queue depth %d at watermark %d",
                depth, self.queue_watermark,
                extra={"event": "admission_rejected", "request_key": key})
            raise QueueFullError(depth, self.queue_watermark,
                                 retry_after_s=self.retry_after_s(depth))

        self.telemetry.inc("serve.cache_misses")
        self.telemetry.inc("serve.simulations")
        task = asyncio.get_running_loop().create_task(self._run(key, request))
        self._inflight[key] = task
        return Admission(key=key, status="accepted", future=task)

    async def _run(self, key: str, request: SimRequest) -> dict[str, Any]:
        """Run one simulation on the pool; always resolves to an outcome
        row (never raises), so every deduped waiter sees the same row."""
        loop = asyncio.get_running_loop()
        progress_path = self.progress_path(key)
        _unlink_quietly(progress_path)  # drop any stale tick from a prior run
        try:
            try:
                result = await loop.run_in_executor(
                    self._executor, self._worker_fn,
                    dict(request.to_dict(), backend=request.backend),
                    str(progress_path), self.chunk_bytes)
            except BrokenProcessPool:
                # Abrupt worker death poisons the whole executor; rebuild
                # it so the *service* survives the crash.
                self.telemetry.inc("serve.worker_crashes")
                self.telemetry.inc("serve.errors")
                logger.error("worker process died simulating %s; "
                             "rebuilding pool", key[:16],
                             extra={"event": "worker_crash",
                                    "request_key": key})
                self._rebuild_executor()
                return {"ok": False,
                        "error": f"worker process died simulating {key[:16]}"}
            except Exception as exc:
                # A clean worker exception leaves the pool healthy.
                self.telemetry.inc("serve.errors")
                logger.error("simulation %s failed: %s", key[:16], exc,
                             extra={"event": "simulation_failed",
                                    "request_key": key})
                return {"ok": False, "error": f"simulation failed: {exc}"}
            worker_pid = result.pop("_worker_pid", None)
            self.cache.store(request, result)
            return {"ok": True, "result": result, "worker_pid": worker_pid}
        finally:
            self._inflight.pop(key, None)
            self._schedule_spool_cleanup(loop, key, progress_path)

    def _rebuild_executor(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
        # The replacement pool re-forks while connections may be open, so
        # the new workers can inherit live socket fds.  That only delays
        # EOF for clients that ignore HTTP framing; correct clients stop
        # at Content-Length / the terminal chunk either way.
        self._executor = self._new_executor()

    # -- progress spool ---------------------------------------------------

    def progress_path(self, key: str) -> Path:
        return self.spool_dir / f"{key}.progress.json"

    def _schedule_spool_cleanup(self, loop: asyncio.AbstractEventLoop,
                                key: str, progress_path: Path) -> None:
        """Unlink ``key``'s spool after one grace period, *tracked*.

        Streaming relays poll every ``PROGRESS_POLL_INTERVAL_S``, so
        unlinking at resolution would race a fast simulation's only tick
        away from them — but an untracked ``call_later`` leaks the spool
        whenever the loop dies before the timer fires (client disconnect
        tearing the test loop down, service shutdown).  Timers are kept
        in ``_spool_timers`` and drained by :meth:`aclose`.
        """
        stale = self._spool_timers.pop(key, None)
        if stale is not None:
            stale[0].cancel()

        def _cleanup() -> None:
            self._spool_timers.pop(key, None)
            _unlink_quietly(progress_path)

        self._spool_timers[key] = (
            loop.call_later(self.spool_grace_s, _cleanup), progress_path)

    def read_progress(self, key: str) -> dict[str, Any] | None:
        """Latest published tick for ``key``, or None before the first
        tick (or after completion cleaned the spool)."""
        try:
            payload = json.loads(self.progress_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None  # not yet published; atomic replace makes torn reads rare
        return payload if isinstance(payload, dict) else None

    # -- observability ----------------------------------------------------

    def observe_latency(self, seconds: float) -> None:
        """Record one request's service latency (microsecond histogram —
        bounded cardinality, unlike per-request spans)."""
        self.telemetry.observe("serve.latency_us", int(seconds * 1e6))

    def retry_after_s(self, depth: int) -> int:
        """Back-off hint for a refused request, in whole seconds.

        A static hint is either uselessly short under a deep queue or
        punitively long under a shallow one, so the hint is the time the
        queue plausibly needs to drain to the caller's position: queue
        depth x the observed p50 service time (read from the
        ``serve.latency_us`` histogram that :meth:`observe_latency`
        feeds), rounded up and clamped to
        [``DEFAULT_RETRY_AFTER_S``, ``MAX_RETRY_AFTER_S``].  Before any
        latency has been observed the static default stands.
        """
        p50_us = _histogram_p50(
            self.telemetry.histograms.get("serve.latency_us", {}))
        if p50_us is None:
            return DEFAULT_RETRY_AFTER_S
        drain_s = depth * p50_us / 1e6
        return max(DEFAULT_RETRY_AFTER_S,
                   min(MAX_RETRY_AFTER_S, math.ceil(drain_s)))

    def next_trace_context(self) -> TraceContext | None:
        """Mint the next deterministic trace identity (None with obs off).

        Ids come from ``sha256(obs_seed, counter)``, so a server replayed
        from the same seed names its traces identically — no wall clock,
        no process entropy.
        """
        if not self.obs:
            return None
        index = next(self._trace_counter)
        return TraceContext(trace_id=derive_trace_id(self.obs_seed, index),
                            index=index)

    def finish_request(self, ctx: TraceContext | None, admission: Admission,
                       outcome: Mapping[str, Any] | None,
                       server_telemetry: Telemetry | None, *,
                       telemetry_enabled: bool, elapsed_s: float) -> None:
        """Request epilogue: the completion log plus the merged trace.

        A trace is recorded only when the request itself asked for
        telemetry (``telemetry=False`` requests must not accrete trace
        state).  Cached admissions contribute server-side spans only —
        the stored result's worker spans carry timestamps from whenever
        the simulation originally ran, and rebasing them onto this
        request's timeline would be a lie.
        """
        ok = outcome is None or bool(outcome.get("ok"))
        # Per-request completion records are INFO only for requests that
        # opted into telemetry; the bulk path logs at DEBUG so a hot
        # server's obs cost stays in the noise (rejections, joins, and
        # crashes are still logged unconditionally at their own sites).
        level = logging.INFO if telemetry_enabled else logging.DEBUG
        logger.log(level, "request %s %s in %.1f ms", admission.status,
                   admission.key[:16], elapsed_s * 1e3,
                   extra={"event": "request", "request_key": admission.key})
        if ctx is None or not telemetry_enabled:
            return
        worker_spans: list[dict[str, Any]] = []
        worker_pid: int | None = None
        if admission.status != "cached" and ok and outcome is not None:
            result = outcome.get("result")
            if isinstance(result, Mapping):
                tel = result.get("telemetry")
                if isinstance(tel, Mapping) and isinstance(tel.get("spans"),
                                                           list):
                    worker_spans = list(tel["spans"])
            pid = outcome.get("worker_pid")
            worker_pid = pid if isinstance(pid, int) else None
        server_spans = server_telemetry.spans if server_telemetry is not None \
            else []
        self.traces.record(ctx, admission.key, admission.status,
                           server_spans, worker_spans, worker_pid=worker_pid)

    def metric_gauges(self) -> dict[str, float]:
        """Point-in-time gauges for the Prometheus exposition."""
        return {
            "serve.queue_depth": float(len(self._inflight)),
            "serve.queue_watermark": float(self.queue_watermark),
            "serve.cache_total_bytes": float(self.cache.total_bytes()),
            "serve.trace_ring_size": float(len(self.traces)),
            "serve.log_ring_dropped": float(self.log_ring.dropped),
        }

    def stats(self) -> dict[str, Any]:
        counters = self.telemetry.counters
        return {
            "uptime_s": time.monotonic() - self._started,
            "queue_depth": len(self._inflight),
            "queue_watermark": self.queue_watermark,
            "workers": self._max_workers,
            "requests": counters.get("serve.requests", 0),
            "simulations": counters.get("serve.simulations", 0),
            "dedupe_joined": counters.get("serve.dedupe_joined", 0),
            "rejected": counters.get("serve.rejected", 0),
            "errors": counters.get("serve.errors", 0),
            "worker_crashes": counters.get("serve.worker_crashes", 0),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "budget_bytes": self.cache.budget_bytes,
                "total_bytes": self.cache.total_bytes(),
            },
            "obs": {
                "enabled": self.obs,
                "seed": self.obs_seed,
                "traces": len(self.traces),
                "log_records": len(self.log_ring.records()),
                "log_dropped": self.log_ring.dropped,
            },
            "telemetry": self.telemetry.to_dict(),
        }

    # -- lifecycle --------------------------------------------------------

    async def aclose(self) -> None:
        """Cancel in-flight work, drain spool timers, release the pool."""
        for task in list(self._inflight.values()):
            task.cancel()
        for task in list(self._inflight.values()):
            try:
                await task
            except asyncio.CancelledError:
                logger.debug("in-flight simulation cancelled during shutdown")
        self._inflight.clear()
        # Pending grace-period timers would never fire after the loop
        # dies; run their cleanup now so no spool outlives the service.
        for handle, path in self._spool_timers.values():
            handle.cancel()
            _unlink_quietly(path)
        self._spool_timers.clear()
        if self._obs_logger is not None:
            self._obs_logger.removeHandler(self.log_ring)
            if self._obs_prev_level is not None:
                self._obs_logger.setLevel(self._obs_prev_level)
            # Single-task discipline: aclose is the shutdown path, called
            # once after the server stops accepting; no task races it.
            self._obs_logger = None  # emi: ignore[EMI105]
            self._obs_prev_level = None  # emi: ignore[EMI105]
        self._executor.shutdown(wait=False, cancel_futures=True)
