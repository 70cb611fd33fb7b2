"""Explicitly-enabled instrumentation layer: counters, histograms, spans.

Telemetry is **off by default and cheap when off**: engines hold
``telemetry=None`` and never touch this module, and policy kernels
record only after :meth:`~emissary.policies.base.PolicyKernel.
attach_telemetry` is called — their loops test a flag (per step, or per
hit and per eviction in the scalar loops) and allocate no accounting
state while it is off.  When enabled, instrumentation may cost time
but must never perturb outcomes: the telemetry test suite asserts
bit-identical hit vectors with telemetry on and off, on both engines.

A :class:`Telemetry` instance collects three kinds of data:

counters
    Monotonic named integers (``fills``, ``evictions``, ``evictions_hp``,
    ``hp_promotions``, ``dead_on_fill``, ...).  Policy kernels and naive
    impls record the paper's diagnostic events here; engines record
    pipeline facts under an ``engine.`` prefix.

histograms
    Named integer-value -> count maps (``line_hits`` — hits accumulated
    by each line by the time it is evicted; ``resident_line_hits`` — the
    same for lines still resident at end of trace; ``hp_set_occupancy``
    — final per-set high-priority line counts).  These reproduce the
    per-line accounting EMISSARY's argument rests on.

spans
    Named wall-clock intervals around engine pipeline phases (decode,
    run collapse, stable sort, per-set kernel loop; L1 vs L2 stage in
    the hierarchy engine), exportable as Chrome trace-event JSON via
    :func:`spans_to_chrome_trace` and loadable in Perfetto or
    chrome://tracing.

The serialized form (:meth:`Telemetry.to_dict`) is schema-versioned JSON
and is what :class:`~emissary.engine.SimResult` carries, the sweep's run
report embeds per config, and ``python -m emissary.report`` renders.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from typing import Any

from emissary.wire import check_known_keys, check_wire_version

#: Version of the ``Telemetry.to_dict`` payload layout.  The payload has
#: carried this field since PR 3; it follows the same strict wire
#: discipline as the PR 7 request/result payloads (:mod:`emissary.wire`):
#: :meth:`Telemetry.from_dict` rejects unknown keys and refuses newer
#: versions, and a missing field decodes as version 0 (layout identical
#: to version 1 minus the stamp).
TELEMETRY_SCHEMA_VERSION = 1

#: Keys a ``Telemetry.to_dict`` payload may carry.
_TELEMETRY_WIRE_KEYS = ("schema_version", "counters", "histograms", "spans")


class Telemetry:
    """Counter / histogram registry plus phase-span recorder.

    One instance covers one simulation run (the hierarchy engine merges
    its per-level children into a single parent with ``l1.`` / ``l2.``
    name prefixes).  All mutators are plain dict operations — cheap
    enough for instrumented inner loops, but only ever reached when the
    caller explicitly enabled telemetry.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, dict[int, int]] = {}
        self.spans: list[dict[str, Any]] = []

    # -- counters ---------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- histograms -------------------------------------------------------

    def observe(self, name: str, value: int) -> None:
        """Count one occurrence of integer ``value`` in histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = {}
        hist[value] = hist.get(value, 0) + 1

    def observe_many(self, name: str, values: Iterable[int]) -> None:
        """Bulk :meth:`observe` — used by end-of-run finalizers."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = {}
        for value in values:
            hist[value] = hist.get(value, 0) + 1

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        """Record a named wall-clock interval around the ``with`` body.

        Timestamps are absolute ``perf_counter`` microseconds; the Chrome
        trace exporter rebases them to the earliest span.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append({
                "name": name,
                "ts_us": start * 1e6,
                "dur_us": (end - start) * 1e6,
                "args": dict(args),
            })

    # -- composition ------------------------------------------------------

    def merge_prefixed(self, child: "Telemetry", prefix: str) -> None:
        """Fold ``child`` into this registry with every name prefixed.

        The hierarchy engine uses this to combine its per-level stage
        telemetries into one payload (``l1.fills``, ``l2.evictions_hp``).
        """
        for name, value in child.counters.items():
            self.inc(prefix + name, value)
        for name, hist in child.histograms.items():
            target = self.histograms.setdefault(prefix + name, {})
            for value, count in hist.items():
                target[value] = target.get(value, 0) + count
        for span in child.spans:
            merged = dict(span)
            merged["name"] = prefix + span["name"]
            self.spans.append(merged)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned JSON-safe payload (histogram keys stringified)."""
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "counters": dict(self.counters),
            "histograms": {name: {str(value): count
                                  for value, count in sorted(hist.items())}
                           for name, hist in self.histograms.items()},
            "spans": [dict(span) for span in self.spans],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Telemetry":
        """Strictly decode a ``to_dict`` payload (wire discipline of
        :mod:`emissary.wire`): unknown keys are rejected, histogram
        value keys are de-stringified back to ints, and a payload
        declaring a newer ``schema_version`` than this process
        understands refuses to half-parse."""
        check_wire_version(d, "Telemetry",
                           max_version=TELEMETRY_SCHEMA_VERSION)
        check_known_keys(d, _TELEMETRY_WIRE_KEYS, "Telemetry")
        counters = d.get("counters", {})
        histograms = d.get("histograms", {})
        spans = d.get("spans", [])
        if not isinstance(counters, Mapping):
            raise ValueError("Telemetry: counters must be a mapping")
        if not isinstance(histograms, Mapping):
            raise ValueError("Telemetry: histograms must be a mapping")
        if not isinstance(spans, list):
            raise ValueError("Telemetry: spans must be a list")
        tel = cls()
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"Telemetry: counter {name!r} must be an "
                                 f"int, got {type(value).__name__}")
            tel.counters[str(name)] = value
        for name, hist in histograms.items():
            if not isinstance(hist, Mapping):
                raise ValueError(f"Telemetry: histogram {name!r} must be a "
                                 f"mapping")
            try:
                tel.histograms[str(name)] = {int(value): int(count)
                                             for value, count in hist.items()}
            except (TypeError, ValueError) as exc:
                raise ValueError(f"Telemetry: histogram {name!r} has a "
                                 f"non-integer bucket: {exc}") from exc
        for span in spans:
            if not isinstance(span, Mapping):
                raise ValueError("Telemetry: spans must be span dicts")
            tel.spans.append(dict(span))
        return tel

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON for this instance's spans."""
        return spans_to_chrome_trace(self.spans)


def null_span(name: str, **args: Any):
    """Drop-in for :meth:`Telemetry.span` when telemetry is disabled."""
    return _NULL_CONTEXT


class _ReusableNull:
    """A re-enterable no-op context manager (``nullcontext`` per call is
    avoidable allocation on the disabled path)."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_CONTEXT = _ReusableNull()


def span_factory(telemetry: Telemetry | None):
    """``telemetry.span`` when enabled, a shared no-op otherwise."""
    return telemetry.span if telemetry is not None else null_span


def spans_to_chrome_trace(spans: Iterable[dict[str, Any]], pid: int = 0,
                          tid: int = 0) -> dict[str, Any]:
    """Convert span records to the Chrome trace-event JSON object format.

    Each span becomes a complete ("ph": "X") event; timestamps are
    rebased so the earliest span starts at 0.  Load the written file in
    Perfetto (https://ui.perfetto.dev) or chrome://tracing.

    Span records may carry their own ``pid`` / ``tid`` (the sweep report
    assigns worker pids and per-config tids); the arguments are defaults
    for records without one.
    """
    records = list(spans)
    base = min((s["ts_us"] for s in records), default=0.0)
    events = [{
        "name": s["name"],
        "ph": "X",
        "ts": s["ts_us"] - base,
        "dur": s["dur_us"],
        "pid": s.get("pid", pid),
        "tid": s.get("tid", tid),
        "args": s.get("args", {}),
    } for s in records]
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
