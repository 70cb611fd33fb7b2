"""Trace-driven set-associative cache simulation engines.

Two engines with bit-identical outcomes:

:class:`BatchedEngine` (the hot path)
    Decodes the whole trace once into NumPy line vectors, folds MRU
    repeats at two levels (see below), stable-sorts the survivors by set,
    and dispatches each non-empty set's accesses to the policy kernel as
    one contiguous chunk.  Per-access Python overhead (address math,
    attribute lookups, method dispatch) is paid once per *chunk* instead
    of once per access, and the per-set inner loops run over plain lists.
    Legal because set-associative replacement state is independent
    across sets, so reordering accesses *between* sets (while preserving
    order *within* each set — hence the stable sort) cannot change any
    hit/miss outcome.

    The two folds drop an access to the line accessed last before it in
    the trace, or in its own set: an MRU hit that changes no state.

:class:`ReferenceEngine` (the oracle)
    The straightforward implementation: one Python iteration per access,
    decoding the address and calling zsim-style policy methods.  It
    exists to validate the batched engine (the equivalence test suite
    compares full hit/miss sequences) and to anchor the benchmark's
    speedup figure.

Randomness: the engine pre-generates one uniform per trace access from a
single ``numpy.random.Generator`` seeded once per run.  Policies index
it by global access position, so RNG consumption is identical no matter
the execution order.

Streaming: :meth:`BatchedEngine.simulate_stream` (and the incremental
:class:`EngineStream` behind it) accepts the trace as a sequence of
``uint64`` address chunks — e.g. a :class:`~emissary.trace_io.
TraceSource` reading a multi-GB file under a memory budget — and carries
all replacement state, the RNG stream, and the MRU run collapsing across
chunk boundaries, producing hit vectors and stats bit-identical to the
one-shot :meth:`BatchedEngine.run` path.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, TypeVar, overload

import numpy as np
from numpy.typing import NDArray

from emissary.api import PolicySpec, require_policy_spec
from emissary.wire import (WIRE_SCHEMA_KEY, WIRE_SCHEMA_VERSION,
                           check_known_keys, check_wire_version)
from emissary.compiled import (
    CompiledKernel,
    CompiledUnavailableError,
    make_compiled_kernel,
)
from emissary.policies import make_kernel, make_naive, policy_needs_rng
from emissary.policies.base import PolicyKernel
from emissary.telemetry import Telemetry, null_span, span_factory
from emissary.traces import AddressArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.analysis.sanitizer import Sanitizer

#: Kernel backends a :class:`BatchedEngine` can execute with.
KERNEL_BACKENDS = ("python", "compiled")


def _make_engine_kernel(spec: PolicySpec, config: "CacheConfig",
                        kernel_backend: str,
                        compiled_provider: str | None,
                        num_cores: int = 1
                        ) -> "PolicyKernel | CompiledKernel":
    """Build the policy kernel for one run.

    ``kernel_backend="compiled"`` tries the compiled providers; if none
    loads and no provider was pinned, it **warns and falls back** to the
    batched Python kernels (outcomes are bit-identical, only slower), so
    ``backend="compiled"`` requests stay portable to hosts without numba
    or a C compiler.  A pinned ``compiled_provider`` turns that fallback
    into a hard :class:`~emissary.compiled.CompiledUnavailableError` —
    benchmarks must fail loudly rather than silently time Python.

    ``num_cores`` is the engine's execution context (how many front-ends
    feed this cache), not a policy parameter — it is injected into the
    kernel rather than carried in ``spec.params`` so multi-core and solo
    requests keep their natural results-cache keys.  Only EMISSARY's
    partitioned HP budget consumes it.
    """
    extra = {"num_cores": num_cores} if spec.name == "emissary" else {}
    if kernel_backend == "compiled":
        try:
            return make_compiled_kernel(
                spec.name, config.num_sets, config.ways,
                provider=compiled_provider, **spec.params, **extra)
        except CompiledUnavailableError as exc:
            if compiled_provider is not None:
                raise
            warnings.warn(
                f"compiled kernel backend unavailable ({exc}); falling "
                "back to the batched Python kernels (outcomes are "
                "bit-identical, only slower)",
                RuntimeWarning, stacklevel=3)
    elif kernel_backend != "python":
        raise ValueError(f"unknown kernel_backend {kernel_backend!r} "
                         f"(expected one of {KERNEL_BACKENDS})")
    return make_kernel(spec.name, config.num_sets, config.ways,
                       **spec.params, **extra)


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


#: Per-access hit/miss outcomes.
BoolArray = NDArray[np.bool_]
#: Decoded int64 payloads: tags, set indices, costs, run lengths.
IndexArray = NDArray[np.int64]
#: Per-access uniform draws aligned with the trace.
UniformArray = NDArray[np.float64]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the simulated cache (defaults: 512 KiB, 8-way, 64 B lines)."""

    num_sets: int = 1024
    ways: int = 8
    line_size: int = 64

    def __post_init__(self) -> None:
        if not _is_pow2(self.num_sets):
            raise ValueError("num_sets must be a power of two")
        if not _is_pow2(self.line_size):
            raise ValueError("line_size must be a power of two")
        if self.ways < 1:
            raise ValueError("ways must be >= 1")

    @property
    def offset_bits(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def set_bits(self) -> int:
        return self.num_sets.bit_length() - 1

    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.ways * self.line_size

    def to_dict(self) -> dict[str, int]:
        return {"num_sets": self.num_sets, "ways": self.ways, "line_size": self.line_size}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CacheConfig":
        check_known_keys(d, ("num_sets", "ways", "line_size"), "CacheConfig")
        return cls(num_sets=int(d["num_sets"]), ways=int(d["ways"]),
                   line_size=int(d.get("line_size", 64)))


@dataclass
class SimResult:
    """Outcome of one (trace, policy, config) simulation.

    ``telemetry`` is the schema-versioned payload from
    :class:`~emissary.telemetry.Telemetry` when the run was instrumented,
    else None (and omitted from :meth:`to_dict`).
    """

    policy: str
    n: int
    hit_count: int
    miss_count: int
    elapsed_s: float
    hits: BoolArray | None = None
    policy_stats: dict[str, Any] = field(default_factory=dict)
    telemetry: dict[str, Any] | None = None

    @property
    def hit_rate(self) -> float:
        return self.hit_count / self.n if self.n else 0.0

    @property
    def mpki(self) -> float:
        """Misses per kilo-instruction (each trace entry is one fetch)."""
        return 1000.0 * self.miss_count / self.n if self.n else 0.0

    @property
    def accesses_per_s(self) -> float | None:
        """Throughput, or None when no time elapsed — None (JSON null)
        rather than ``inf``, which ``json`` emits as non-roundtrippable
        ``Infinity``.  Tables render it as ``-``."""
        return self.n / self.elapsed_s if self.elapsed_s > 0 else None

    #: Wire keys of the :meth:`to_dict` payload (see :mod:`emissary.wire`).
    _WIRE_KEYS = frozenset({WIRE_SCHEMA_KEY, "policy", "n", "hit_count",
                            "miss_count", "hit_rate", "mpki", "elapsed_s",
                            "accesses_per_s", "policy_stats", "telemetry"})

    def to_dict(self) -> dict[str, Any]:
        d = {
            WIRE_SCHEMA_KEY: WIRE_SCHEMA_VERSION,
            "policy": self.policy,
            "n": self.n,
            "hit_count": self.hit_count,
            "miss_count": self.miss_count,
            "hit_rate": self.hit_rate,
            "mpki": self.mpki,
            "elapsed_s": self.elapsed_s,
            "accesses_per_s": self.accesses_per_s,
            "policy_stats": self.policy_stats,
        }
        if self.telemetry is not None:
            d["telemetry"] = self.telemetry
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SimResult":
        """Rebuild from :meth:`to_dict` output (strict wire decode: v0
        dicts are accepted, unknown keys and newer versions rejected).
        Derived fields are recomputed from the counts; the hit vector is
        not serialized."""
        check_wire_version(d, "SimResult")
        check_known_keys(d, cls._WIRE_KEYS, "SimResult")
        return cls(
            policy=d["policy"],
            n=int(d["n"]),
            hit_count=int(d["hit_count"]),
            miss_count=int(d["miss_count"]),
            elapsed_s=float(d["elapsed_s"]),
            policy_stats=dict(d.get("policy_stats", {})),
            telemetry=d.get("telemetry"),
        )


def decode_trace(addresses: AddressArray,
                 config: CacheConfig) -> tuple[IndexArray, IndexArray]:
    """Vectorized address -> (tag, set index) decode for the whole trace."""
    addrs = np.ascontiguousarray(addresses, dtype=np.uint64)
    lines = addrs >> np.uint64(config.offset_bits)
    set_idx = (lines & np.uint64(config.num_sets - 1)).astype(np.int64)
    tags = (lines >> np.uint64(config.set_bits)).astype(np.int64)
    return tags, set_idx


def _uniforms(n: int, policy: str, seed: int) -> UniformArray | None:
    if not policy_needs_rng(policy):
        return None
    return np.random.default_rng(seed).random(n)


def _run_flags(kernel: "PolicyKernel | CompiledKernel", with_extra: bool,
               lengths: IndexArray | None,
               m: int) -> tuple[BoolArray | None, IndexArray | None]:
    """Kernel side channels from each dispatched access's run length
    (None: all 1): repeat flags for kernels that need them, and
    folded-hit counts when instrumented."""
    if lengths is None:
        lengths = np.ones(m, dtype=np.int64)
    return (lengths > 1 if kernel.needs_repeat_flags else None,
            lengths - 1 if with_extra else None)


_Array = TypeVar("_Array", bound="NDArray[Any]")


@overload
def _prepend(value: Any, arr: _Array) -> _Array: ...


@overload
def _prepend(value: Any, arr: None) -> None: ...


def _prepend(value: Any, arr: NDArray[Any] | None) -> NDArray[Any] | None:
    """``arr`` with ``value`` in front (None stays None)."""
    if arr is None:
        return None
    out = np.empty(len(arr) + 1, dtype=arr.dtype)
    out[0] = value
    out[1:] = arr
    return out


def _dispatch(kernel: "PolicyKernel | CompiledKernel", config: CacheConfig,
              lines: AddressArray, u: UniformArray | None,
              cost: IndexArray | None, core: IndexArray | None,
              lengths: IndexArray | None, fold: bool, with_extra: bool,
              span: Callable[..., Any] = null_span) -> tuple[BoolArray, int]:
    """Run accesses (in trace order) through ``kernel``; return their
    hits in trace order and how many accesses reached the kernel.

    ``lengths`` is each access's trace-order run length (None: all 1).
    A compiled kernel takes the batch in trace order in one call.  A
    python kernel gets it stable-sorted by set, one call per non-empty
    set; with ``fold``, a run of equal lines in sorted order (one set,
    one tag) sends only its first access — the rest re-touch the set's
    MRU line — carrying the run's total length.
    """
    m = len(lines)
    if isinstance(kernel, CompiledKernel):
        with span("kernel_batch"):
            set_idx = (lines & np.uint64(config.num_sets - 1)).astype(np.int64)
            tags = (lines >> np.uint64(config.set_bits)).astype(np.int64)
            rep, extra = _run_flags(kernel, with_extra, lengths, m)
            return kernel.run_batch(set_idx, tags, u, rep, cost, extra,
                                    core), m
    if m == 0:
        return np.zeros(0, dtype=bool), 0
    num_sets = config.num_sets
    # Temporaries are freed early: one-shot batches are whole traces.
    with span("stable_sort"):
        # A 16-bit key lets NumPy's stable sort use radix sort.
        set_key = (lines & np.uint64(num_sets - 1)).astype(
            np.int16 if num_sets <= 1 << 15 else np.int64)
        order = np.argsort(set_key, kind="stable")
        if fold:
            sorted_lines = lines[order]
            head = np.empty(m, dtype=bool)
            head[0] = True
            np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=head[1:])
            del sorted_lines
            heads = np.flatnonzero(head)
            del head
        else:
            heads = np.arange(m, dtype=np.intp)
        kidx = order[heads]
        totals: IndexArray | None = None
        if kernel.needs_repeat_flags or with_extra:
            totals = (np.add.reduceat(lengths[order], heads)
                      if lengths is not None else np.diff(heads, append=m))
        del order, heads
        counts = np.bincount(set_key[kidx], minlength=num_sets)
        del set_key
        nonempty = np.flatnonzero(counts)
        ends = np.cumsum(counts)[nonempty]
        starts = ends - counts[nonempty]
        rep, extra = _run_flags(kernel, with_extra, totals, len(kidx))

    with span("kernel_loop"):
        # Lists are made one set at a time: a whole-batch list of Python
        # ints or floats would cost ~5x the array's memory.
        tags = lines[kidx] >> np.uint64(config.set_bits)
        # run_set's optional (u, rep, cost, extra, core) arguments: only
        # the supplied ones are sliced per set, the rest stay None.
        args: list[list[Any] | None] = [None] * 5
        columns = [(i, col) for i, col in enumerate((
            u[kidx] if u is not None else None, rep,
            cost[kidx] if cost is not None else None, extra,
            core[kidx] if core is not None else None)) if col is not None]
        run_set = kernel.run_set
        kernel_hits = np.empty(len(kidx), dtype=bool)
        for s, lo, hi in zip(nonempty.tolist(), starts.tolist(), ends.tolist()):
            for i, col in columns:
                args[i] = col[lo:hi].tolist()
            kernel_hits[lo:hi] = run_set(s, tags[lo:hi].tolist(), *args)
    hits = np.ones(m, dtype=bool)  # folded accesses are always hits
    hits[kidx] = kernel_hits
    return hits, len(kidx)


class BatchedEngine:
    """Batched set-major execution core.

    Three steps run before any Python-loop work:

    1. **MRU run collapsing** — instruction streams touch the same cache
       line many times in a row (sequential fetch within a 64 B line).
       An access to the line accessed immediately before it is always a
       hit and changes no replacement state under every shipped policy
       (LRU/EMISSARY: the line is already MRU; SRRIP: RRPV is already 0;
       Random: hits don't update state).  Only "edge" accesses — line
       transitions — go on; collapsed accesses are recorded as hits
       directly.  On single-stream instruction traces this removes ~90%
       of kernel iterations while keeping outcomes bit-identical (the
       equivalence suite checks this per access).
    2. **Set-major batching** — edge accesses are stable-sorted by set
       index and dispatched to the kernel one contiguous chunk per
       non-empty set, paying Python dispatch overhead per chunk instead
       of per access.
    3. **Set-order fold** — in sorted order, an edge access to the line
       of the previous access *to its set* is again an MRU hit, so only
       the first access of each such run enters the kernel.  On a 2-core
       2:1 interleave, 68% of L1I accesses survive step 1, under 8% this.

    A kernel access gets its run's total length (SRRIP's repeat flag,
    telemetry's folded hits).  The compiled backend skips steps 2 and 3;
    ``collapse_runs=False`` skips steps 1 and 3.
    """

    def __init__(self, config: CacheConfig | None = None,
                 collapse_runs: bool = True,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None,
                 kernel_backend: str = "python",
                 compiled_provider: str | None = None,
                 num_cores: int = 1) -> None:
        self.config = config or CacheConfig()
        self.collapse_runs = collapse_runs
        #: How many front-ends feed this cache (execution context, not a
        #: policy parameter).  Injected into core-aware kernels; 1 for
        #: the ordinary single-stream engine.
        self.num_cores = num_cores
        #: Optional :class:`~emissary.telemetry.Telemetry` registry; when
        #: None (the default) the run takes the uninstrumented fast path.
        self.telemetry = telemetry
        #: Optional :class:`~emissary.analysis.sanitizer.Sanitizer`
        #: (debug mode): validates per-set kernel state after every
        #: dispatch.  None (the default) costs one ``is None`` test per run.
        self.sanitizer = sanitizer
        if kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(f"unknown kernel_backend {kernel_backend!r} "
                             f"(expected one of {KERNEL_BACKENDS})")
        #: ``"python"`` runs the per-set list kernels; ``"compiled"``
        #: dispatches whole batches in trace order to a native provider
        #: (see :mod:`emissary.compiled`), skipping the set-major sort.
        self.kernel_backend = kernel_backend
        self.compiled_provider = compiled_provider

    def run(self, addresses: AddressArray, policy: PolicySpec, seed: int = 0,
            keep_hits: bool = True, cost: IndexArray | None = None,
            core: IndexArray | None = None) -> SimResult:
        spec = require_policy_spec(policy, caller="BatchedEngine.run")
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        n = len(addresses)
        start = time.perf_counter()
        with span("decode"):
            addrs = np.ascontiguousarray(addresses, dtype=np.uint64)
            lines = addrs >> np.uint64(config.offset_bits)
            del addrs
            u = _uniforms(n, spec.name, seed)

        kernel = _make_engine_kernel(spec, config, self.kernel_backend,
                                     self.compiled_provider,
                                     num_cores=self.num_cores)
        if tel is not None:
            kernel.attach_telemetry(tel)
        if self.sanitizer is not None:
            # After attach_telemetry, so the wrapper sees the bound loop.
            self.sanitizer.attach_kernel(kernel)
        if cost is not None:
            if len(cost) != n:
                raise ValueError(f"cost has {len(cost)} entries for {n} accesses")
            if not kernel.consumes_cost:
                cost = None  # cost-blind policy: skip the slicing work
            else:
                cost = np.ascontiguousarray(cost, dtype=np.int64)
        if core is not None:
            if len(core) != n:
                raise ValueError(f"core has {len(core)} entries for {n} accesses")
            if not getattr(kernel, "consumes_core", False):
                core = None  # core-blind policy: skip the slicing work
            else:
                core = np.ascontiguousarray(core, dtype=np.int64)

        # Run length per edge access (> 1: the line is re-referenced
        # immediately after); only kept when a side channel consumes it.
        run_lengths: IndexArray | None = None
        with span("run_collapse"):
            if self.collapse_runs and n > 1:
                edge_mask = np.empty(n, dtype=bool)
                edge_mask[0] = True
                np.not_equal(lines[1:], lines[:-1], out=edge_mask[1:])
                edge_idx = np.flatnonzero(edge_mask)
                del edge_mask
                lines = lines[edge_idx]
                u = u[edge_idx] if u is not None else None
                cost = cost[edge_idx] if cost is not None else None
                core = core[edge_idx] if core is not None else None
                if kernel.needs_repeat_flags or tel is not None:
                    run_lengths = np.diff(edge_idx, append=n)
            else:
                edge_idx = None
        m = len(lines)

        work_hits, k = _dispatch(kernel, config, lines, u, cost, core,
                                 run_lengths, fold=self.collapse_runs,
                                 with_extra=tel is not None, span=span)
        if edge_idx is None:
            hits = work_hits
        else:
            hits = np.ones(n, dtype=bool)  # collapsed accesses are always hits
            hits[edge_idx] = work_hits
        elapsed = time.perf_counter() - start
        hit_count = int(hits.sum())
        if tel is not None:
            kernel.telemetry_finalize()
            tel.inc("engine.accesses", n)
            tel.inc("engine.edge_accesses", m)  # after trace-order collapse
            tel.inc("engine.kernel_accesses", k)  # after both folds
            tel.inc("engine.collapsed_hits", n - m)
            tel.inc("hits", hit_count)
            tel.inc("misses", n - hit_count)
            if self.sanitizer is not None:
                self.sanitizer.check_counters(tel, n, hit_count)
        return SimResult(
            policy=spec.name,
            n=n,
            hit_count=hit_count,
            miss_count=n - hit_count,
            elapsed_s=elapsed,
            hits=hits if keep_hits else None,
            policy_stats=kernel.extra_stats(),
            telemetry=tel.to_dict() if tel is not None else None,
        )

    def stream(self, policy: PolicySpec, seed: int = 0,
               keep_hits: bool = True) -> "EngineStream":
        """Open an incremental :class:`EngineStream` for chunked feeding."""
        spec = require_policy_spec(policy, caller="BatchedEngine.stream")
        return EngineStream(self, spec, seed=seed, keep_hits=keep_hits)

    def simulate_stream(self, chunks: Iterable[AddressArray],
                        policy: PolicySpec, seed: int = 0,
                        keep_hits: bool = True) -> SimResult:
        """Run ``policy`` over a chunked trace in bounded memory.

        ``chunks`` is any iterable of ``uint64`` address arrays in trace
        order — typically a :class:`~emissary.trace_io.TraceSource`
        reading a file under a memory budget.  Outcomes (hit vector,
        counts, policy stats) are bit-identical to :meth:`run` on the
        concatenated trace.  Per-access costs go through
        :meth:`EngineStream.feed`.
        """
        stream = self.stream(policy, seed=seed, keep_hits=keep_hits)
        span = span_factory(self.telemetry)
        chunk_iter = iter(chunks)
        while True:
            with span("stream_ingest"):
                chunk = next(chunk_iter, None)
            if chunk is None:
                break
            stream.feed(chunk)
        return stream.finish()


class EngineStream:
    """Incremental counterpart of :meth:`BatchedEngine.run`.

    Feed ``uint64`` address chunks in trace order with :meth:`feed`; all
    replacement state (per-set kernel state, the RNG stream, MRU run
    collapsing) carries across chunk boundaries, so the assembled result
    is bit-identical to running the concatenated trace in one shot —
    while only one chunk (plus O(1) carried state) is resident at a time.

    The subtlety is run collapsing at chunk boundaries: an access's
    repeat flag (a fill immediately re-referenced — SRRIP inserts it at
    RRPV 0) and its folded-hit count are only knowable once its MRU run
    *ends*, which may be several chunks later.  The stream therefore
    holds back each chunk's trailing run as a compressed carry
    ``(line, u, cost, core, length)`` — O(1) memory however long the
    run — and dispatches it the moment a different line arrives (or the
    stream is flushed).  Consequently :meth:`feed` returns outcomes for
    the accesses it *resolved*, which can trail the accesses fed so far
    by one run.

    The set-order fold (see :class:`BatchedEngine`) works within each
    dispatch: a run of same-set repeats cut by a chunk boundary reaches
    the kernel once per dispatch instead of once.  Outcomes are the same
    either way, but the ``engine.kernel_accesses`` counter depends on
    where chunks are cut; ``engine.edge_accesses`` does not.
    """

    def __init__(self, engine: "BatchedEngine", spec: PolicySpec, seed: int = 0,
                 keep_hits: bool = True) -> None:
        config = engine.config
        self.config = config
        self.spec = spec
        self.keep_hits = keep_hits
        self.collapse_runs = engine.collapse_runs
        self.telemetry = engine.telemetry
        self._span = span_factory(self.telemetry)
        self.kernel = _make_engine_kernel(spec, config, engine.kernel_backend,
                                          engine.compiled_provider,
                                          num_cores=engine.num_cores)
        if self.telemetry is not None:
            self.kernel.attach_telemetry(self.telemetry)
        self.sanitizer = engine.sanitizer
        if self.sanitizer is not None:
            # After attach_telemetry, so the wrapper sees the bound loop.
            self.sanitizer.attach_kernel(self.kernel)
        self._rng = (np.random.default_rng(seed)
                     if policy_needs_rng(spec.name) else None)
        self.n = 0
        self._edge_count = 0
        self._kernel_count = 0
        self._hit_count = 0
        self._hit_chunks: list[BoolArray] = []
        self._chunk_index = 0
        #: Trailing unresolved MRU run: (line, u, cost, core, length) or None.
        self._pending: tuple[int, float | None, int | None, int | None,
                             int] | None = None
        #: Core ids of the misses returned by the latest ``feed``/``flush``
        #: (aligned with its ``miss_lines``), or None for core-blind runs.
        #: Per-chunk attribution can't be read off the *fed* cores because
        #: resolved accesses trail fed accesses by the pending run.
        self.last_miss_cores: IndexArray | None = None
        self._track_cores = False
        self._flushed = False
        self._start = time.perf_counter()

    def feed(self, addresses: AddressArray,
             cost: IndexArray | None = None,
             core: IndexArray | None = None) -> tuple[BoolArray, AddressArray]:
        """Process the next chunk of addresses (with optional per-access
        cost and issuing-core ids).

        Returns ``(hits, miss_lines)`` for the accesses *resolved* by
        this call: ``hits`` is their hit/miss outcomes in access order
        (cumulatively concatenating to the one-shot hit vector), and
        ``miss_lines`` the line numbers of the missing accesses in
        order — what a hierarchy feeds to the next level.
        """
        if self._flushed:
            raise RuntimeError("stream already flushed; start a new stream")
        k_total = len(addresses)
        if cost is not None:
            if len(cost) != k_total:
                raise ValueError(f"cost has {len(cost)} entries for "
                                 f"{k_total} accesses")
            if self.kernel.consumes_cost:
                cost = np.ascontiguousarray(cost, dtype=np.int64)
            else:
                cost = None
        if core is not None:
            if len(core) != k_total:
                raise ValueError(f"core has {len(core)} entries for "
                                 f"{k_total} accesses")
            # Kept even for core-blind kernels: ``last_miss_cores``
            # attribution is an engine concern, not a policy one.
            core = np.ascontiguousarray(core, dtype=np.int64)
            self._track_cores = True
        if self._track_cores:
            # Reset every call so early returns (empty chunk, run
            # continuation) never leave a stale attribution array.
            self.last_miss_cores = np.zeros(0, dtype=np.int64)
        self.n += k_total
        index = self._chunk_index
        self._chunk_index += 1
        if k_total == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.uint64)
        span = self._span
        with span("stream_chunk", chunk=index, accesses=k_total):
            with span("decode"):
                lines = np.ascontiguousarray(addresses, dtype=np.uint64) \
                    >> np.uint64(self.config.offset_bits)
                u = self._rng.random(k_total) if self._rng is not None else None

            if not self.collapse_runs:
                # Every access is its own length-1 run; nothing is carried.
                return self._dispatch(lines, u, cost, core, None, None, 0)

            # Trace-length temporaries are dropped before the dispatch: a
            # one-shot run is a single chunk holding the whole trace.
            with span("run_collapse"):
                pending = self._pending
                k = carried = 0
                if pending is not None:
                    pline, pu, pcost, pcore, carried = pending
                    differs = lines != np.uint64(pline)
                    k = int(differs.argmax())
                    if not differs[k]:
                        # Whole chunk continues the carried run.
                        self._pending = (pline, pu, pcost, pcore,
                                         carried + k_total)
                        return (np.zeros(0, dtype=bool),
                                np.zeros(0, dtype=np.uint64))
                    del differs
                edge_mask = np.empty(k_total - k, dtype=bool)
                edge_mask[0] = True
                np.not_equal(lines[k + 1:], lines[k:-1], out=edge_mask[1:])
                edges = np.flatnonzero(edge_mask)
                del edge_mask
                edges += k
                last_edge = int(edges[-1])
                self._pending = (
                    int(lines[last_edge]),
                    float(u[last_edge]) if u is not None else None,
                    int(cost[last_edge]) if cost is not None else None,
                    int(core[last_edge]) if core is not None else None,
                    k_total - last_edge,
                )
                # Resolved runs: the carried one (if any), then every run
                # that starts in this chunk except the last.
                lengths: IndexArray | None = None
                if self.kernel.needs_repeat_flags or self.telemetry is not None:
                    lengths = np.diff(edges)
                edges = edges[:-1]
                run_lines = lines[edges]
                del lines
                run_u = u[edges] if u is not None else None
                del u
                run_cost = cost[edges] if cost is not None else None
                run_core = core[edges] if core is not None else None
                if pending is not None:
                    run_lines = _prepend(pline, run_lines)
                    run_u = _prepend(pu, run_u)
                    run_cost = _prepend(pcost, run_cost)
                    run_core = _prepend(pcore, run_core)
                    lengths = _prepend(carried + k, lengths)
                    # Positions among this call's resolved accesses, which
                    # start with the carried run.
                    edges = _prepend(0, edges + carried)
            return self._dispatch(run_lines, run_u, run_cost, run_core,
                                  lengths, edges, carried + last_edge)

    def _dispatch(self, run_lines: AddressArray, run_u: UniformArray | None,
                  run_cost: IndexArray | None,
                  run_core: IndexArray | None,
                  run_lengths: IndexArray | None,
                  starts: IndexArray | None,
                  total: int) -> tuple[BoolArray, AddressArray]:
        """Run the resolved runs' edge accesses through the kernel
        (exactly like the one-shot path) and expand outcomes back to
        per-access hits.

        ``run_lengths`` is None when no side channel needs it; ``starts``
        gives each run's first position among the ``total`` resolved
        accesses (None: every access is its own run)."""
        if len(run_lines) == 0:
            if run_core is not None:
                self.last_miss_cores = np.zeros(0, dtype=np.int64)
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.uint64)
        kernel = self.kernel
        # Core-blind kernels never see the array, but miss attribution
        # (``last_miss_cores``) still tracks it.
        kern_core = (run_core
                     if getattr(kernel, "consumes_core", False) else None)
        edge_hits, k = _dispatch(kernel, self.config, run_lines, run_u,
                                 run_cost, kern_core, run_lengths,
                                 fold=self.collapse_runs,
                                 with_extra=self.telemetry is not None,
                                 span=self._span)
        self._kernel_count += k
        self._edge_count += len(edge_hits)
        if starts is None:
            hits = edge_hits
        else:
            hits = np.ones(total, dtype=bool)  # collapsed accesses are hits
            hits[starts] = edge_hits
        self._hit_count += int(np.count_nonzero(hits))
        if self.keep_hits:
            self._hit_chunks.append(hits)
        misses = ~edge_hits
        if run_core is not None:
            self.last_miss_cores = run_core[misses]
        return hits, run_lines[misses]

    def flush(self) -> tuple[BoolArray, AddressArray]:
        """Resolve the carried trailing run (stream end).  Returns its
        ``(hits, miss_lines)``; :meth:`feed` is an error afterwards."""
        if self._flushed:
            raise RuntimeError("stream already flushed")
        self._flushed = True
        if self._track_cores:
            self.last_miss_cores = np.zeros(0, dtype=np.int64)
        pending = self._pending
        self._pending = None
        if pending is None:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.uint64)
        pline, pu, pcost, pcore, pcount = pending
        return self._dispatch(
            np.array([pline], dtype=np.uint64),
            np.array([pu], dtype=np.float64) if pu is not None else None,
            np.array([pcost], dtype=np.int64) if pcost is not None else None,
            np.array([pcore], dtype=np.int64) if pcore is not None else None,
            np.array([pcount], dtype=np.int64), np.zeros(1, dtype=np.intp),
            pcount)

    def finish(self) -> SimResult:
        """Flush (if not already flushed) and assemble the SimResult."""
        if not self._flushed:
            self.flush()
        tel = self.telemetry
        if tel is not None:
            self.kernel.telemetry_finalize()
            tel.inc("engine.accesses", self.n)
            tel.inc("engine.edge_accesses", self._edge_count)
            tel.inc("engine.kernel_accesses", self._kernel_count)
            tel.inc("engine.collapsed_hits", self.n - self._edge_count)
            tel.inc("engine.stream_chunks", self._chunk_index)
            tel.inc("hits", self._hit_count)
            tel.inc("misses", self.n - self._hit_count)
            if self.sanitizer is not None:
                self.sanitizer.check_counters(tel, self.n, self._hit_count)
        hits: BoolArray | None = None
        if self.keep_hits:
            hits = (np.concatenate(self._hit_chunks) if self._hit_chunks
                    else np.zeros(0, dtype=bool))
        return SimResult(
            policy=self.spec.name,
            n=self.n,
            hit_count=self._hit_count,
            miss_count=self.n - self._hit_count,
            elapsed_s=time.perf_counter() - self._start,
            hits=hits,
            policy_stats=self.kernel.extra_stats(),
            telemetry=tel.to_dict() if tel is not None else None,
        )


class ReferenceEngine:
    """Naive per-access reference implementation (one Python step per access).

    With a :class:`~emissary.telemetry.Telemetry` attached, the engine
    does the generic line-lifetime accounting itself (it resolves tags
    and victims), and the naive policy contributes its policy-specific
    counters via ``telemetry_finalize`` — producing the same counter and
    histogram names as the instrumented batched kernels, which the
    telemetry test suite compares across engines.
    """

    def __init__(self, config: CacheConfig | None = None,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None,
                 num_cores: int = 1) -> None:
        self.config = config or CacheConfig()
        self.telemetry = telemetry
        self.sanitizer = sanitizer
        self.num_cores = num_cores

    def run(self, addresses: AddressArray, policy: PolicySpec, seed: int = 0,
            keep_hits: bool = True, cost: IndexArray | None = None,
            core: IndexArray | None = None) -> SimResult:
        spec = require_policy_spec(policy, caller="ReferenceEngine.run")
        config = self.config
        tel = self.telemetry
        n = len(addresses)
        num_sets, ways = config.num_sets, config.ways
        offset_bits, set_bits = config.offset_bits, config.set_bits
        set_mask = num_sets - 1
        if cost is not None and len(cost) != n:
            raise ValueError(f"cost has {len(cost)} entries for {n} accesses")
        if core is not None and len(core) != n:
            raise ValueError(f"core has {len(core)} entries for {n} accesses")

        start = time.perf_counter()
        u_arr = _uniforms(n, spec.name, seed)
        u_list = u_arr.tolist() if u_arr is not None else None
        cost_list = (np.asarray(cost, dtype=np.int64).tolist()
                     if cost is not None else None)
        core_list = (np.asarray(core, dtype=np.int64).tolist()
                     if core is not None else None)
        extra = {"num_cores": self.num_cores} if spec.name == "emissary" else {}
        impl = make_naive(spec.name, num_sets, ways, **spec.params, **extra)
        if self.sanitizer is not None:
            self.sanitizer.attach_naive(impl)
        tag_table = [[None] * ways for _ in range(num_sets)]
        hits = np.empty(n, dtype=bool)
        # Per-(set, way) hits-since-fill; only maintained when instrumented.
        track = tel is not None
        line_hits = [0] * (num_sets * ways) if track else None
        fills = evictions = dead = 0
        span = span_factory(tel)

        with span("naive_loop"):
            for i, addr in enumerate(addresses.tolist()):
                line = addr >> offset_bits
                s = line & set_mask
                tag = line >> set_bits
                u_i = u_list[i] if u_list is not None else 0.0
                set_tags = tag_table[s]
                way = -1
                for w in range(ways):
                    if set_tags[w] == tag:
                        way = w
                        break
                if way >= 0:
                    impl.on_hit(s, way, i)
                    if track:
                        line_hits[s * ways + way] += 1
                    hits[i] = True
                    continue
                for w in range(ways):
                    if set_tags[w] is None:
                        way = w
                        break
                else:
                    way = impl.find_victim(s, u_i)
                    impl.replaced(s, way)
                    if track:
                        victim_hits = line_hits[s * ways + way]
                        tel.observe("line_hits", victim_hits)
                        evictions += 1
                        if victim_hits == 0:
                            dead += 1
                set_tags[way] = tag
                impl.on_fill(s, way, i, u_i,
                             cost_list[i] if cost_list is not None else None,
                             core_list[i] if core_list is not None else None)
                if track:
                    line_hits[s * ways + way] = 0
                    fills += 1
                hits[i] = False

        elapsed = time.perf_counter() - start
        hit_count = int(hits.sum())
        if track:
            tel.inc("fills", fills)
            tel.inc("evictions", evictions)
            tel.inc("dead_on_fill", dead)
            tel.inc("hits", hit_count)
            tel.inc("misses", n - hit_count)
            tel.inc("engine.accesses", n)
            for s in range(num_sets):
                set_tags = tag_table[s]
                for w in range(ways):
                    if set_tags[w] is not None:
                        tel.observe("resident_line_hits", line_hits[s * ways + w])
            impl.telemetry_finalize(tel)
            if self.sanitizer is not None:
                self.sanitizer.check_counters(tel, n, hit_count)
        return SimResult(
            policy=spec.name,
            n=n,
            hit_count=hit_count,
            miss_count=n - hit_count,
            elapsed_s=elapsed,
            hits=hits if keep_hits else None,
            policy_stats=impl.extra_stats(),
            telemetry=tel.to_dict() if tel is not None else None,
        )


def simulate(addresses: AddressArray, policy: PolicySpec,
             config: CacheConfig | None = None, seed: int = 0,
             engine: str = "batched") -> SimResult:
    """Array-level convenience wrapper: run ``policy`` over ``addresses``.

    For spec-described traces (and two-level hierarchies) prefer
    :func:`emissary.api.simulate` with a :class:`~emissary.api.SimRequest`.
    """
    if engine == "batched":
        return BatchedEngine(config).run(addresses, policy, seed=seed)
    if engine == "compiled":
        return BatchedEngine(config, kernel_backend="compiled").run(
            addresses, policy, seed=seed)
    if engine == "reference":
        return ReferenceEngine(config).run(addresses, policy, seed=seed)
    raise ValueError(f"unknown engine {engine!r} "
                     "(expected 'batched', 'compiled', or 'reference')")
