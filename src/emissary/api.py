"""Typed public API: :class:`PolicySpec` and :class:`SimRequest`.

Historically every entry point took ``policy: str, **policy_params`` —
stringly-typed kwargs that cannot be validated up front, cannot describe
a multi-level (L1I -> L2) request, and leak policy parameters into every
call signature.  This module replaces that form with two frozen
dataclasses:

:class:`PolicySpec`
    A validated (name, params) pair.  The name must be registered and
    every parameter is checked against the policy's declared schema at
    construction time, so a typo'd parameter fails immediately instead
    of being silently swallowed by a ``**params`` sink.

:class:`SimRequest`
    One fully-described simulation: trace spec, policy spec, cache
    geometry (single-level :class:`~emissary.engine.CacheConfig` or
    two-level :class:`~emissary.hierarchy.HierarchyConfig`), and seed.
    Its :meth:`~SimRequest.to_dict` encoding is both the canonical
    results cache key and the version-stamped wire payload the serving
    layer (:mod:`emissary.serve`) accepts over HTTP.

The legacy ``policy: str, **policy_params`` form was deprecated in PR 2
(with CI escalating :class:`EmissaryDeprecationWarning` to an error) and
has since been **removed**: every entry point now requires a
:class:`PolicySpec`, and passing a string raises ``TypeError`` with the
migration spelled out.  Every public dataclass round-trips through
``to_dict`` / ``from_dict``; decoding follows the strict wire
discipline of :mod:`emissary.wire` (schema versioning, unknown-key
rejection, v0 migration).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from emissary.policies import PARAM_SCHEMAS, REGISTRY
from emissary.traces import (FrozenParams, InterleaveSpec, TraceSpec,
                             trace_spec_from_dict)
from emissary.wire import (WIRE_SCHEMA_KEY, WIRE_SCHEMA_VERSION,
                           check_int, check_known_keys, check_wire_version)

#: Backends that run on the batched engines, which take them as their
#: ``kernel_backend``: NumPy/Python kernels or native ones.
BATCHED_BACKENDS = ("batched", "compiled")

#: Backends a :class:`SimRequest` may select: the batched ones plus the
#: per-access oracle.  All produce bit-identical outcomes (the
#: differential suite enforces it); they differ only in speed.
BACKENDS = BATCHED_BACKENDS + ("reference",)

#: The backend a request, the array form of :func:`simulate`, the
#: engines and the sweep CLI use when none is named.
DEFAULT_BACKEND = "batched"


@dataclass(frozen=True)
class PolicySpec:
    """Validated replacement-policy selection: registered name + typed params."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in REGISTRY:
            raise ValueError(f"unknown policy {self.name!r}; known: {sorted(REGISTRY)}")
        schema = PARAM_SCHEMAS[self.name]
        for key, value in self.params.items():
            if key not in schema:
                raise ValueError(
                    f"policy {self.name!r} does not accept parameter {key!r}; "
                    f"allowed: {sorted(schema) or 'none'}")
            expected = schema[key]
            if isinstance(value, bool) or not isinstance(value, expected):
                raise TypeError(
                    f"policy {self.name!r} parameter {key!r} must be "
                    f"{expected.__name__}, got {type(value).__name__}")
        # Freeze into a canonical immutable mapping: the spec is hashable
        # and later mutation of the caller's dict cannot change an
        # already-validated spec (or its results-cache key) in place.
        object.__setattr__(self, "params", FrozenParams(self.params))

    def to_dict(self) -> dict[str, Any]:
        params = self.params.thaw() if isinstance(self.params, FrozenParams) \
            else dict(self.params)
        return {"name": self.name, "params": params}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PolicySpec":
        check_known_keys(d, ("name", "params"), "PolicySpec")
        return cls(name=d["name"], params=dict(d.get("params", {})))


def require_policy_spec(policy: Any, caller: str = "simulate") -> PolicySpec:
    """Validate that ``policy`` is a :class:`PolicySpec`.

    The PR 2 ``str, **policy_params`` shim is gone; a string now fails
    with the migration spelled out so old call sites get a one-line fix
    instead of a bare ``AttributeError`` deep in a kernel.
    """
    if isinstance(policy, PolicySpec):
        return policy
    if isinstance(policy, str):
        raise TypeError(
            f"{caller}: the legacy string-policy form was removed; pass "
            f"PolicySpec({policy!r}, {{...params}}) instead")
    raise TypeError(f"{caller}: policy must be a PolicySpec, "
                    f"got {type(policy).__name__}")


@dataclass(frozen=True)
class SimRequest:
    """One fully-described simulation (trace x policy x geometry x seed).

    ``telemetry`` opts the run into the instrumentation layer
    (:mod:`emissary.telemetry`): the result then carries counters,
    histograms, and engine phase spans.  It never changes outcomes, and
    it participates in :meth:`to_dict` (the results-cache key) only when
    enabled, so every pre-existing cache entry keeps its key.

    ``backend`` selects the execution engine (:data:`BACKENDS`,
    default :data:`DEFAULT_BACKEND`): ``"batched"`` is the vectorized
    NumPy engine, ``"compiled"`` the same engine with native per-set
    kernels (C, built on demand), ``"reference"`` the
    per-access Python oracle.  Because all three are bit-identical,
    ``backend`` is deliberately *excluded* from :meth:`to_dict`: the
    encoding is a results-cache content key, and the same request run on
    any backend must hit the same cache entry (and keep every
    pre-existing key byte-identical).  Sweep and serve workers receive
    the request as that encoding plus its ``backend`` key, which
    :meth:`from_dict` accepts.
    """

    trace: TraceSpec | InterleaveSpec
    policy: PolicySpec
    config: Any = None  # CacheConfig (single-level) or HierarchyConfig (L1I -> L2)
    seed: int = 0
    telemetry: bool = False
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        from emissary.engine import CacheConfig
        from emissary.hierarchy import HierarchyConfig

        if not isinstance(self.trace, (TraceSpec, InterleaveSpec)):
            raise TypeError(f"trace must be a TraceSpec or InterleaveSpec, "
                            f"got {type(self.trace).__name__}")
        if isinstance(self.trace, InterleaveSpec) and not isinstance(
                self.config, HierarchyConfig):
            raise TypeError(
                "multi-core traces (InterleaveSpec) describe N L1I "
                "front-ends sharing one L2, so the config must be a "
                f"HierarchyConfig, got {type(self.config).__name__}")
        if not isinstance(self.policy, PolicySpec):
            raise TypeError(
                f"policy must be a PolicySpec, got {type(self.policy).__name__} "
                f"(the str form is only shimmed in engine entry points)")
        if self.config is None:
            object.__setattr__(self, "config", CacheConfig())
        elif not isinstance(self.config, (CacheConfig, HierarchyConfig)):
            raise TypeError(f"config must be a CacheConfig or HierarchyConfig, "
                            f"got {type(self.config).__name__}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be an int, got {type(self.seed).__name__}")
        if not isinstance(self.telemetry, bool):
            raise TypeError(
                f"telemetry must be a bool, got {type(self.telemetry).__name__}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; known: {list(BACKENDS)}")

    @property
    def is_hierarchy(self) -> bool:
        from emissary.hierarchy import HierarchyConfig

        return isinstance(self.config, HierarchyConfig)

    @property
    def is_multicore(self) -> bool:
        """True when the trace interleaves multiple cores (the request
        then runs the N-core shared-L2 engines)."""
        return isinstance(self.trace, InterleaveSpec)

    def to_dict(self) -> dict[str, Any]:
        """Version-stamped canonical encoding — the wire payload *and*
        the results-cache content key.

        ``schema_version`` (:data:`emissary.wire.WIRE_SCHEMA_VERSION`)
        stamps the layout for cross-process decoding; the results cache
        strips it before hashing, so every pre-versioning cache key is
        still byte-identical.  ``telemetry`` appears only when enabled:
        instrumented results carry extra payload, so they cache under
        their own key, while every default (telemetry-off) key matches
        the pre-telemetry encoding.  ``backend`` never appears: backends
        are bit-identical, so the key is backend-invariant by design (a
        sweep run on the compiled backend warms the cache for the
        batched one and vice versa)."""
        d = {
            WIRE_SCHEMA_KEY: WIRE_SCHEMA_VERSION,
            "trace": self.trace.to_dict(),
            "policy": self.policy.to_dict(),
            "config": self.config.to_dict(),
            "seed": self.seed,
        }
        if self.telemetry:
            d["telemetry"] = True
        return d

    #: Keys a wire/cache ``SimRequest`` dict may carry.  ``backend`` is
    #: accepted on decode (a client may pin the execution engine) even
    #: though :meth:`to_dict` never emits it — see the cache-key note.
    _WIRE_KEYS = frozenset({WIRE_SCHEMA_KEY, "trace", "policy", "config",
                            "seed", "telemetry", "backend"})

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SimRequest":
        """Strictly decode a v0/v1 wire dict (see :mod:`emissary.wire`):
        unknown keys are rejected, a missing ``schema_version`` means
        the pre-versioned v0 layout, and a newer version than this
        process understands refuses to half-parse.  ``telemetry`` must
        be a JSON boolean: ``"false"`` is a ``TypeError``, not a truthy
        opt-in."""
        from emissary.engine import CacheConfig
        from emissary.hierarchy import HierarchyConfig

        check_wire_version(d, "SimRequest")
        check_known_keys(d, cls._WIRE_KEYS, "SimRequest")
        cfg = d["config"]
        config = (HierarchyConfig.from_dict(cfg) if "l1" in cfg
                  else CacheConfig.from_dict(cfg))
        return cls(trace=trace_spec_from_dict(d["trace"]),
                   policy=PolicySpec.from_dict(d["policy"]),
                   config=config,
                   seed=check_int(d.get("seed", 0), "SimRequest.seed"),
                   telemetry=d.get("telemetry", False),
                   backend=str(d.get("backend", DEFAULT_BACKEND)))


def _array_chunks(addresses: Any, chunk_bytes: int):
    """Split an in-memory address array into chunk-budget-sized views."""
    import numpy as np

    arr = np.ascontiguousarray(addresses, dtype=np.uint64)
    step = max(1, chunk_bytes // arr.itemsize)
    for start in range(0, len(arr), step):
        yield arr[start:start + step]


def _progress_chunks(chunks: Any, progress: Any, total: int):
    """Wrap a chunk iterable so ``progress(done, total)`` fires at every
    chunk boundary, *after* the engine has consumed the chunk (the
    callback runs when the engine asks for the next one, so reported
    work is always completed work).  Chunks are either address arrays or
    multi-core ``(addresses, core_ids)`` pairs; ``done`` counts accesses
    either way."""
    done = 0
    for chunk in chunks:
        yield chunk
        done += len(chunk[0]) if isinstance(chunk, tuple) else len(chunk)
        progress(done, total)


def simulate(target: Any, policy: PolicySpec | None = None, config: Any = None,
             seed: int = 0, engine: str | None = None, telemetry: bool = False,
             stream: bool = False, chunk_bytes: int | None = None,
             progress: Any = None, keep_hits: bool = True):
    """Unified typed entry point: the one place a request becomes an
    engine run.

    ``simulate(SimRequest(...))`` picks the engine from the backend and
    the config type (single-level vs hierarchy), and calls its
    ``simulate_stream`` once, with ``num_cores`` when the trace is an
    interleave.  The sweep and serve workers run every request through
    it.  On every backend a request's trace is generated (or, for a
    file-backed spec, read) one chunk budget at a time
    (:meth:`~emissary.traces.TraceSpec.generate_chunks`), so the trace
    itself is never resident whole.  The array form
    ``simulate(addresses, PolicySpec(...), ...)`` runs a policy over an
    in-memory trace, as one chunk; the PR 2 string-policy shim has been
    removed.

    ``engine`` selects the backend (:data:`BACKENDS`): ``"batched"``
    (vectorized NumPy), ``"compiled"`` (native per-set kernels — see
    :mod:`emissary.compiled`), or ``"reference"`` (per-access oracle).
    When ``None`` it defaults to the request's ``backend`` field (or
    :data:`DEFAULT_BACKEND` for the array form); an explicit value
    overrides the request.  All backends produce bit-identical outcomes.

    ``stream=True`` asks for the streamed path explicitly, on any
    backend: it lets ``chunk_bytes`` (default
    :data:`emissary.traces.DEFAULT_CHUNK_BYTES`) set the chunk budget
    and ``progress`` watch the chunks, and feeds the array form through
    the engine in chunks instead of one array.  Outcomes are
    bit-identical to the one-shot path, which is the same engine call
    fed a single chunk.

    ``keep_hits`` is forwarded to the engine: with the default ``True``
    the result keeps one hit byte per access per level, so a streamed
    run's memory grows with the trace; ``False`` drops the vectors and
    keeps only the counts, which is all a result's ``to_dict`` carries.

    ``telemetry=True`` (or a request with ``telemetry=True``) enables
    the instrumentation layer: the returned result's ``telemetry``
    attribute holds the counters, histograms, and phase spans.  Outcomes
    are bit-identical either way.

    ``progress`` (streaming only) is called as ``progress(done, total)``
    at every chunk boundary with the number of accesses already fed
    through the engine.  The serving layer's worker uses this to publish
    progress ticks; the callback must never raise.
    """
    from emissary.engine import BatchedEngine, ReferenceEngine
    from emissary.hierarchy import (BatchedHierarchyEngine, HierarchyConfig,
                                    HierarchyReferenceEngine)
    from emissary.telemetry import Telemetry
    from emissary.traces import DEFAULT_CHUNK_BYTES

    if chunk_bytes is not None and not stream:
        raise TypeError("chunk_bytes only applies to stream=True")
    if progress is not None and not stream:
        raise TypeError("progress only applies to stream=True")
    chunk_bytes = chunk_bytes or DEFAULT_CHUNK_BYTES

    request = target if isinstance(target, SimRequest) else None
    if request is not None:
        if policy is not None or config is not None:
            raise TypeError("simulate(SimRequest) takes no policy/config "
                            "arguments — they live inside the request")
        spec, config, seed = request.policy, request.config, request.seed
        telemetry = telemetry or request.telemetry
        if engine is None:
            engine = request.backend
    else:
        spec = require_policy_spec(policy, caller="simulate")
    if engine is None:
        engine = DEFAULT_BACKEND
    if engine not in BACKENDS:
        raise ValueError(f"unknown engine {engine!r}; known: {list(BACKENDS)}")

    tel = Telemetry() if telemetry else None
    hierarchy = isinstance(config, HierarchyConfig)
    eng: Any
    if engine == "reference":
        reference = HierarchyReferenceEngine if hierarchy else ReferenceEngine
        eng = reference(config, telemetry=tel)
    else:
        batched = BatchedHierarchyEngine if hierarchy else BatchedEngine
        eng = batched(config, telemetry=tel, kernel_backend=engine)
    num_cores = None
    if request is not None:
        chunks = request.trace.generate_chunks(chunk_bytes=chunk_bytes)
        if request.is_multicore:
            num_cores = request.trace.num_cores
    elif stream:
        chunks = _array_chunks(target, chunk_bytes)
    else:
        chunks = [target]
    if progress is not None:
        total = request.trace.n if request is not None else len(target)
        chunks = _progress_chunks(chunks, progress, total)
    return eng.simulate_stream(chunks, spec, num_cores=num_cores, seed=seed,
                               keep_hits=keep_hits)
