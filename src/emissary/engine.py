"""Trace-driven set-associative cache simulation engines.

Two engines with bit-identical outcomes:

:class:`BatchedEngine` (the hot path)
    Decodes each chunk of the trace into NumPy line vectors, folds MRU
    repeats at two levels (see below), stable-sorts the survivors by set,
    and hands the sorted batch to the policy kernel in one ``run_sets``
    call with each non-empty set's range.  The ``run_sets`` protocol
    (:meth:`~emissary.policies.base.PolicyKernel.run_sets`): the default
    resolves the k-th access of every set in one vectorised lockstep
    step while enough sets are active, then runs the kernel's
    ``run_set`` on each longer set's remaining chunk, a loop over plain
    lists; LRU's closed form overrides ``run_sets`` and has no
    per-access loop at all.
    Legal because set-associative replacement state is independent
    across sets, so reordering accesses *between* sets (while preserving
    order *within* each set — hence the stable sort) cannot change any
    hit/miss outcome.

    The folds drop an access to the line accessed last before it in
    the trace, or in its own set: an MRU hit that changes no state.  With
    several interleaved cores the set-order fold's short-lag cases are
    decided before the sort (the lag fold), so the sort never sees them.

:class:`ReferenceEngine` (the oracle)
    The straightforward implementation: one Python step per access
    through :class:`_NaiveLevel`, the tag lookup and zsim-style policy
    calls the hierarchy oracle also walks.  It exists to validate the
    batched engine (the equivalence test suite compares full hit/miss
    sequences) and to anchor the benchmark's speedup figure.

One entry point: both engines run a trace through ``simulate_stream``,
which takes it as an iterable of chunks — e.g. a
:class:`~emissary.trace_io.TraceSource` reading a multi-GB file under a
memory budget — and carries all replacement state, the RNG stream and
the counts across chunk boundaries.  A one-shot run is a stream of one
chunk.  Every batched run goes through the incremental
:class:`EngineStream`, which also carries the MRU run collapsing.

Randomness: each chunk draws one uniform per access from a single
``numpy.random.Generator`` seeded once per run, on both engines.  Draws
are positional, so the sequence is the same however the trace is
chunked, and policies index it by global access position, so RNG
consumption is identical no matter the execution order.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np
from numpy.typing import NDArray

from emissary.api import (BATCHED_BACKENDS, DEFAULT_BACKEND, PolicySpec,
                          require_policy_spec)
from emissary.wire import (WIRE_SCHEMA_KEY, WIRE_SCHEMA_VERSION,
                           check_known_keys, check_wire_version)
from emissary.compiled import (
    CompiledKernel,
    CompiledUnavailableError,
    make_compiled_kernel,
)
from emissary.policies import make_kernel, make_naive, policy_needs_rng
from emissary.policies.base import NaivePolicy, PolicyKernel
from emissary.telemetry import Telemetry, null_span, span_factory
from emissary.traces import DEFAULT_CHUNK_BYTES, AddressArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.analysis.sanitizer import Sanitizer

def _make_engine_kernel(spec: PolicySpec, config: "CacheConfig",
                        kernel_backend: str, num_cores: int = 1
                        ) -> "PolicyKernel | CompiledKernel":
    """Build the policy kernel for one run.

    ``kernel_backend="compiled"`` loads the C kernels; if they cannot be
    loaded it **warns and falls back** to the batched Python kernels
    (outcomes are bit-identical, only slower), so ``backend="compiled"``
    requests stay portable to hosts without a C compiler.  Benchmarks
    that must not silently time Python call
    :func:`~emissary.compiled.get_kernels` first, which raises
    :class:`~emissary.compiled.CompiledUnavailableError`.

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
                **spec.params, **extra)
        except CompiledUnavailableError as exc:
            warnings.warn(
                f"compiled kernel backend unavailable ({exc}); falling "
                "back to the batched Python kernels (outcomes are "
                "bit-identical, only slower)",
                RuntimeWarning, stacklevel=3)
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


_Column = TypeVar("_Column", bound="NDArray[Any]")


def _gather(col: _Column | None, at: IndexArray, lead: bool,
            head: Any = None) -> _Column | None:
    """``col[at]`` (None stays None), with ``head`` in front when
    ``lead``: one allocation, where a gather and then a prepend copy the
    result twice.  ``mode="clip"`` lets ``take`` write straight into the
    output (the positions are in range)."""
    if col is None:
        return None
    out = np.empty(len(at) + lead, dtype=col.dtype)
    col.take(at, out=out[lead:], mode="clip")
    if lead:
        out[0] = head
    return out


def _set_key(lines: AddressArray, num_sets: int) -> NDArray[Any]:
    """Set index of each line in the narrowest integer type: a 16-bit key
    lets NumPy's stable sort use radix sort, and an 8-bit one (the L1I's
    sets) needs a single radix pass.  The narrowing cast keeps the low
    bits, so the mask applies to the narrow copy."""
    dtype = (np.uint8 if num_sets <= 1 << 8
             else np.uint16 if num_sets <= 1 << 16 else np.int64)
    key = lines.astype(dtype)
    key &= dtype(num_sets - 1)
    return key


def _lag_fold(lines: AddressArray, lengths: IndexArray | None,
              num_sets: int, num_cores: int
              ) -> tuple[IndexArray, IndexArray | None]:
    """The set-order fold's cheap part, decided in edge space for
    ``num_cores`` interleaved front-ends.

    Drops edge ``i`` when edge ``i - d``, for some ``2 <= d <=
    num_cores + 1``, is the same line and no edge between them maps to
    ``i``'s set: the set's previous access was that line, so ``i`` is an
    MRU hit that changes no state.  The lags run in increasing order,
    and a lag-``d`` drop needs a partner not dropped at a smaller lag,
    so each lag's drops form chains within one residue class mod ``d``,
    each behind a root still kept at that lag.

    Returns the kept positions and, when ``lengths`` is given, each kept
    access's length plus those of the drops that chain back to it
    (``lengths`` is updated in place: each lag moves its chains' lengths
    onto their roots, and a root dropped at a larger lag carries them
    on).
    """
    m = len(lines)
    sets = _set_key(lines, num_sets)
    # clear[i]: no edge in (i - d, i) maps to i's set, for the current d.
    clear = np.ones(m, dtype=bool)
    kept = np.ones(m, dtype=bool)
    drop = np.empty(m, dtype=bool)
    for d in range(2, min(num_cores + 1, m - 1) + 1):
        np.not_equal(sets[d - 1:], sets[:m + 1 - d], out=drop[d - 1:])
        clear[d - 1:] &= drop[d - 1:]
        drop[:d] = False
        np.equal(lines[d:], lines[:-d], out=drop[d:])
        drop[d:] &= clear[d:]
        drop[d:] &= kept[:-d]
        if not drop.any():
            continue
        np.greater(kept, drop, out=kept)  # kept & ~drop
        if lengths is not None:
            _add_chain_sums(lengths, drop, d)
    keep = np.flatnonzero(kept)
    return keep, lengths[keep] if lengths is not None else None


def _add_chain_sums(lengths: IndexArray, drop: BoolArray, d: int) -> None:
    """Add to each lag-``d`` chain's root the lengths of its drops.

    Within one residue class mod ``d`` a chain is a run of drops and its
    root the class member just before it (a class's first member is
    never a drop).  Cut where drops start and stop, a class alternates
    kept and dropped segments, so every other segment sum is a chain's."""
    for r in range(d):
        dropped = drop[r::d]
        cuts = np.flatnonzero(dropped[1:] != dropped[:-1])
        if not len(cuts):
            continue
        cuts += 1
        sums = np.add.reduceat(lengths[r::d], cuts)[::2]
        # Scatter through the contiguous array: fancy indexing into the
        # strided class view takes NumPy's slow path.
        roots = cuts[::2] - 1
        roots *= d
        roots += r
        lengths[roots] += sums


#: A resolved MRU run held back at a stream chunk's end:
#: ``(line, u, cost, core, length)``.
_Pending = tuple[int, float | None, int | None, int | None, int]


@dataclass
class _Batch:
    """Accesses resolved by one dispatch, after the trace-order collapse.

    ``starts`` gives each kept access's position among the ``total``
    resolved accesses (None: every access is kept); ``lengths`` its run
    length plus those of lag-folded accesses chained to it (None: all 1,
    or no side channel needs it); ``edges`` counts the line transitions
    before the lag fold."""

    lines: AddressArray
    u: UniformArray | None
    cost: IndexArray | None
    core: IndexArray | None
    lengths: IndexArray | None
    starts: IndexArray | None
    total: int
    edges: int


#: Kept accesses a stream buffers per dispatch, so a streamed run pays
#: each dispatch's fixed costs (the set sort, LRU's closed form, the
#: lockstep's per-step calls) once per budget of accesses that reach a
#: kernel, not once per chunk.  A kept access buffers at least its line
#: and its position (16 B), so this many fill one chunk budget.  A
#: stream fed smaller chunks dispatches at half the longest one's
#: accesses instead: its memory follows the budget it is fed in.
_DISPATCH_BUDGET = DEFAULT_CHUNK_BYTES // 16

_COLUMNS = ("lines", "u", "cost", "core", "lengths", "starts")


def _no_outcomes() -> tuple[BoolArray, AddressArray]:
    """``(hits, miss_lines)`` of a call that dispatched nothing."""
    return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.uint64)


def _merged(batches: list[_Batch]) -> _Batch:
    """Consecutive batches as one, in trace order: each column
    concatenated (a column is None in all of them or in none), each
    batch's ``starts`` offset by the totals before it.  Empties the
    list, and drops each column from the batches once joined, so the
    merge holds one joined column at a time on top of the buffer."""
    if len(batches) == 1:
        return batches.pop()
    offset = edges = 0
    for batch in batches:
        if batch.starts is not None and offset:
            batch.starts += offset
        offset += batch.total
        edges += batch.edges
    joined: dict[str, Any] = {}
    for name in _COLUMNS:
        cols = [getattr(batch, name) for batch in batches]
        for batch in batches:
            setattr(batch, name, None)
        joined[name] = None if cols[0] is None else np.concatenate(cols)
    batches.clear()
    return _Batch(**joined, total=offset, edges=edges)


def _collapse(lines: AddressArray, u: UniformArray | None,
              cost: IndexArray | None, core: IndexArray | None,
              pending: _Pending | None, want_lengths: bool,
              num_sets: int, num_cores: int
              ) -> tuple[_Batch | None, _Pending]:
    """The trace-order collapse of one chunk.

    Keeps each MRU run's first access, preceded by the carried run
    ``pending`` (resolved as soon as a different line arrives).  The
    chunk's trailing run is returned as the new carry instead of
    resolved; the batch is None when the whole chunk continues the
    carried run.  With ``num_cores > 1`` the
    :func:`_lag_fold` then drops the interleaved cores' MRU re-touches
    among the resolved edges (never across a dispatch: the carry is a
    single lag-1 run)."""
    n = len(lines)
    k = carried = 0
    lead = pending is not None
    pline = pu = pcost = pcore = None
    if pending is not None:
        pline, pu, pcost, pcore, carried = pending
        differs = lines != np.uint64(pline)
        k = int(differs.argmax())
        if not differs[k]:
            return None, (pline, pu, pcost, pcore, carried + n)
        del differs
    edge_mask = np.empty(n - k, dtype=bool)
    edge_mask[0] = True
    np.not_equal(lines[k + 1:], lines[k:-1], out=edge_mask[1:])
    edges = np.flatnonzero(edge_mask)
    del edge_mask
    if k:
        edges += k
    bound = int(edges[-1])
    carry = (int(lines[bound]),
             float(u[bound]) if u is not None else None,
             int(cost[bound]) if cost is not None else None,
             int(core[bound]) if core is not None else None,
             n - bound)
    # The chunk's resolved run starts (its trailing run is carried); a
    # carried run in front is resolved access 0.
    resolved = edges[:-1]
    m = len(resolved) + lead
    edge_lines = _gather(lines, resolved, lead, pline)
    assert edge_lines is not None
    lengths: IndexArray | None = None
    if want_lengths:
        lengths = np.empty(m, dtype=np.int64)
        np.subtract(edges[1:], resolved, out=lengths[lead:])
        if lead:
            lengths[0] = carried + k
    starts = resolved
    if lead:
        starts = np.empty(m, dtype=resolved.dtype)
        starts[0] = 0
        np.add(resolved, carried, out=starts[1:])
    del edges
    if num_cores > 1 and m > 2:
        keep, lengths = _lag_fold(edge_lines, lengths, num_sets, num_cores)
        edge_lines, starts = edge_lines[keep], starts[keep]
        # The kept chunk positions (the lag fold never drops access 0).
        resolved = starts[1:] - carried if lead else starts
    # Side channels are gathered once, at the kept chunk positions.
    return _Batch(edge_lines, _gather(u, resolved, lead, pu),
                  _gather(cost, resolved, lead, pcost),
                  _gather(core, resolved, lead, pcore),
                  lengths, starts, carried + bound, m), carry


def _dispatch(kernel: "PolicyKernel | CompiledKernel", config: CacheConfig,
              lines: AddressArray, u: UniformArray | None,
              cost: IndexArray | None, core: IndexArray | None,
              lengths: IndexArray | None, fold: bool, with_extra: bool,
              span: Callable[..., Any] = null_span) -> tuple[BoolArray, int]:
    """Run accesses (in trace order) through ``kernel``; return their
    hits in trace order and how many accesses reached the kernel.

    ``lengths`` is each access's trace-order run length (None: all 1).
    A compiled kernel takes the batch in trace order in one call.  A
    python kernel gets it stable-sorted by set, in one
    :meth:`~emissary.policies.base.PolicyKernel.run_sets` call with each
    non-empty set's range (the default steps the sets in lockstep, then
    finishes long sets with the kernel's ``run_set``; LRU resolves the
    batch in closed form); with
    ``fold``, a run of equal lines in sorted order (one set, one tag)
    sends only its first access — the rest re-touch the set's MRU line
    — carrying the run's total length.
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
        set_key = _set_key(lines, num_sets)
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
        kernel_hits = kernel.run_sets(
            nonempty, starts, ends, lines[kidx],
            u[kidx] if u is not None else None, rep,
            cost[kidx] if cost is not None else None, extra,
            core[kidx] if core is not None else None)
    hits = np.ones(m, dtype=bool)  # folded accesses are always hits
    hits[kidx] = kernel_hits
    return hits, len(kidx)


def _chunk_items(chunks: Iterable[Any], num_cores: int | None,
                 span: Callable[..., Any], width: int = 3
                 ) -> Iterator[tuple[Any, ...]]:
    """The chunk contract every engine's ``simulate_stream`` shares.

    An item is an address array, or ``(addresses, core_ids)`` for a
    multi-core run; a flat engine's item may also carry the cost column,
    as ``(addresses, core_ids, cost)`` with ``core_ids`` None on one
    core.  Yields each item as a ``width``-tuple, absent columns None,
    pulled under the ``stream_ingest`` span.  Items carry core ids
    exactly when ``num_cores`` is given."""
    chunk_iter = iter(chunks)
    while True:
        with span("stream_ingest"):
            item = next(chunk_iter, None)
        if item is None:
            return
        if not isinstance(item, tuple):
            item = (item,)
        if len(item) > width:
            raise ValueError(f"a chunk has at most {width} columns here, "
                             f"got {len(item)}")
        item += (None,) * (width - len(item))
        if (item[1] is None) != (num_cores is None):
            raise ValueError("chunks carry core ids exactly when num_cores "
                             "is given")
        yield item
        # Drop the chunk before the next is pulled.
        del item


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
    2. **Lag fold** — with ``num_cores > 1`` interleaved front-ends, an
       edge whose line is 2 to ``num_cores + 1`` edges back, with no edge
       to its set in between, is an MRU hit of its set: it is dropped
       before the sort (see :func:`_lag_fold`).  On a 2-core 2:1
       interleave, 68% of L1I accesses survive step 1, under 10% this.
       Single-core engines skip it.
    3. **Set-major batching** — edge accesses are stable-sorted by set
       index and dispatched to the kernel's ``run_sets`` in one call,
       which by default pays Python dispatch overhead per set chunk
       instead of per access.
    4. **Set-order fold** — in sorted order, an edge access to the line
       of the previous access *to its set* is again an MRU hit, so only
       the first access of each such run enters the kernel (under 8% of
       the interleave's L1I accesses); it also catches the repeats at
       longer lags than step 2's.

    A kernel access gets its run's total length, plus those of the
    accesses folded into it (SRRIP's repeat flag, telemetry's folded
    hits).  The compiled backend skips steps 3 and 4;
    ``collapse_runs=False`` skips steps 1, 2 and 4.  Every run goes
    through :class:`EngineStream`.
    """

    def __init__(self, config: CacheConfig | None = None,
                 collapse_runs: bool = True,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None,
                 kernel_backend: str = DEFAULT_BACKEND) -> None:
        self.config = config or CacheConfig()
        self.collapse_runs = collapse_runs
        #: Optional :class:`~emissary.telemetry.Telemetry` registry; when
        #: None (the default) the run takes the uninstrumented fast path.
        self.telemetry = telemetry
        #: Optional :class:`~emissary.analysis.sanitizer.Sanitizer`
        #: (debug mode): validates per-set kernel state after every
        #: dispatch.  None (the default) costs one ``is None`` test per run.
        self.sanitizer = sanitizer
        if kernel_backend not in BATCHED_BACKENDS:
            raise ValueError(f"unknown kernel_backend {kernel_backend!r} "
                             f"(expected one of {BATCHED_BACKENDS})")
        #: ``"batched"`` runs the NumPy/Python kernels; ``"compiled"``
        #: dispatches whole batches in trace order to the C kernels
        #: (see :mod:`emissary.compiled`), skipping the set-major sort.
        self.kernel_backend = kernel_backend

    def simulate_stream(self, chunks: Iterable[Any], policy: PolicySpec, *,
                        num_cores: int | None = None, seed: int = 0,
                        keep_hits: bool = True) -> SimResult:
        """Run ``policy`` over a chunked trace in bounded memory.

        ``chunks`` is any iterable of chunk items in trace order (see
        :func:`_chunk_items`): ``uint64`` address arrays — typically a
        :class:`~emissary.trace_io.TraceSource` reading a file under a
        memory budget — or, with ``num_cores`` front-ends feeding this
        cache, ``(addresses, core_ids)`` pairs; either may carry a cost
        column.  ``num_cores`` is execution context, not a policy
        parameter: it sets the lag fold's window and is injected into
        core-aware kernels.  Outcomes (hit vector, counts, policy stats)
        are bit-identical however the trace is cut; a one-shot run is a
        list of one chunk.
        """
        spec = require_policy_spec(policy,
                                   caller="BatchedEngine.simulate_stream")
        stream = EngineStream(self, spec, seed=seed, keep_hits=keep_hits,
                              num_cores=1 if num_cores is None else num_cores)
        for addresses, core, cost in _chunk_items(
                chunks, num_cores, span_factory(self.telemetry)):
            stream.feed(addresses, cost=cost, core=core)
        return stream.finish()


class EngineStream:
    """The batched engine's one execution path, which
    :meth:`BatchedEngine.simulate_stream` and the hierarchy's stages
    feed.

    Feed ``uint64`` address chunks in trace order with :meth:`feed` (or
    chunks already decoded to lines with :meth:`feed_lines`); all
    replacement state (per-set kernel state, the RNG stream, MRU run
    collapsing) carries across chunk boundaries, so the assembled result
    is bit-identical however the trace is cut — while only one chunk,
    the dispatch buffer (below) and O(1) carried state are resident at a
    time.  The kept hit vector (``keep_hits``) is the exception: it
    grows by one byte per resolved access.

    The subtlety is run collapsing at chunk boundaries: an access's
    repeat flag (a fill immediately re-referenced — SRRIP inserts it at
    RRPV 0) and its folded-hit count are only knowable once its MRU run
    *ends*, which may be several chunks later.  The stream therefore
    holds back each chunk's trailing run as a compressed carry
    ``(line, u, cost, core, length)`` — O(1) memory however long the
    run — and resolves it the moment a different line arrives (or the
    stream is flushed).

    Each chunk's resolved accesses, once collapsed and lag-folded, are
    buffered, and the buffer goes to the kernel in one dispatch once it
    holds a budget of kept accesses (see :data:`_DISPATCH_BUDGET`), or
    at the flush, together with the carried run: the dispatch's fixed
    costs are paid per budget of kernel work, not per chunk.
    Consequently :meth:`feed` returns outcomes for the accesses it
    *dispatched*, which can trail the accesses fed so far by up to one
    budget of kept accesses and the carried run.

    The lag fold (see :class:`BatchedEngine`) works within each chunk's
    collapse: the carry is a single trace-order run, so a lag drop never
    reaches back into an earlier chunk.  The set-order fold works within
    each dispatch, so a run of same-set repeats cut by a dispatch
    boundary reaches the kernel once per dispatch instead of once.
    Outcomes are the same either way, but the ``engine.kernel_accesses``
    counter depends on where chunks are cut; ``engine.edge_accesses``
    (counted before the lag fold) does not.
    """

    def __init__(self, engine: "BatchedEngine", spec: PolicySpec, seed: int = 0,
                 keep_hits: bool = True, num_cores: int = 1) -> None:
        config = engine.config
        self.config = config
        self.spec = spec
        self.keep_hits = keep_hits
        self.collapse_runs = engine.collapse_runs
        #: How many front-ends feed this cache (1: a single stream).
        self.num_cores = num_cores
        self.telemetry = engine.telemetry
        self._span = span_factory(self.telemetry)
        self.kernel = _make_engine_kernel(spec, config, engine.kernel_backend,
                                          num_cores=num_cores)
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
        #: Trailing unresolved MRU run, or None.
        self._pending: _Pending | None = None
        self._want_lengths = (self.kernel.needs_repeat_flags
                              or self.telemetry is not None)
        #: Resolved batches awaiting a dispatch, and their kept accesses.
        self._buffer: list[_Batch] = []
        self._buffered = 0
        self._longest_chunk = 0
        #: Whether the stream's chunks carry cost and core columns, fixed
        #: by its first chunk: buffered batches join column by column.
        self._columns: tuple[bool, bool] | None = None
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

        Returns ``(hits, miss_lines)`` for the accesses *dispatched* by
        this call, which may trail the fed accesses by up to one budget
        of kept accesses (both empty while the buffer fills): ``hits``
        is their hit/miss outcomes in access order (cumulatively
        concatenating to the one-shot hit vector), and ``miss_lines``
        the line numbers of the missing accesses in order — what a
        hierarchy feeds to the next level.  The chunk is decoded to line
        numbers and handed to :meth:`feed_lines`.  Every chunk of a
        stream carries ``cost`` (and ``core``), or none does.
        """
        # A call temporary, so feed_lines' ``del`` after the collapse
        # frees the lines (CPython 3.11+ moves call arguments into the
        # callee's frame).
        return self.feed_lines(self._decode(addresses), cost=cost, core=core)

    def _decode(self, addresses: AddressArray) -> AddressArray:
        with self._span("decode"):
            return (np.ascontiguousarray(addresses, dtype=np.uint64)
                    >> np.uint64(self.config.offset_bits))

    def feed_lines(self, lines: AddressArray,
                   cost: IndexArray | None = None,
                   core: IndexArray | None = None
                   ) -> tuple[BoolArray, AddressArray]:
        """:meth:`feed` for a chunk already decoded to line numbers
        (``address >> offset_bits``), e.g. a hierarchy's miss lines.
        ``lines`` is only read, and dropped before the dispatch: pass a
        temporary to have its buffer freed there."""
        if self._flushed:
            raise RuntimeError("stream already flushed; start a new stream")
        k_total = len(lines)
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
            return _no_outcomes()
        self._longest_chunk = max(self._longest_chunk, k_total)
        columns = (cost is not None, core is not None)
        if self._columns is None:
            self._columns = columns
        elif columns != self._columns:
            raise ValueError("cost and core ids come with every chunk of a "
                             "stream or with none")
        span = self._span
        with span("stream_chunk", chunk=index, accesses=k_total):
            lines = np.ascontiguousarray(lines, dtype=np.uint64)
            u = None
            if self._rng is not None:
                with span("decode"):  # the policy's uniforms
                    u = self._rng.random(k_total)

            if not self.collapse_runs:
                # Every access is its own length-1 run; nothing is carried.
                return self._enqueue(_Batch(lines, u, cost, core, None,
                                            None, k_total, k_total))

            # Trace-length temporaries are dropped before the dispatch: a
            # one-shot run is a single chunk holding the whole trace.
            with span("run_collapse"):
                batch, self._pending = _collapse(
                    lines, u, cost, core, self._pending,
                    want_lengths=self._want_lengths,
                    num_sets=self.config.num_sets,
                    num_cores=self.num_cores)
                del lines, u, cost, core
            if batch is None:  # the whole chunk continues the carried run
                return _no_outcomes()
            return self._enqueue(batch)

    def _enqueue(self, batch: _Batch) -> tuple[BoolArray, AddressArray]:
        """Buffer a resolved batch; dispatch the buffer once it holds a
        budget of kept accesses."""
        self._buffer.append(batch)
        self._buffered += len(batch.lines)
        if self._buffered < min(_DISPATCH_BUDGET, self._longest_chunk // 2):
            return _no_outcomes()
        return self._dispatch_buffer()

    def _dispatch_buffer(self) -> tuple[BoolArray, AddressArray]:
        self._buffered = 0
        return self._dispatch(_merged(self._buffer))

    def _dispatch(self, batch: _Batch) -> tuple[BoolArray, AddressArray]:
        """Run a batch's kept accesses through the kernel and expand
        outcomes back to per-access hits."""
        if len(batch.lines) == 0:
            if batch.core is not None:
                self.last_miss_cores = np.zeros(0, dtype=np.int64)
            return _no_outcomes()
        kernel = self.kernel
        run_core = batch.core
        # Core-blind kernels never see the array, but miss attribution
        # (``last_miss_cores``) still tracks it.
        kern_core = (run_core
                     if getattr(kernel, "consumes_core", False) else None)
        edge_hits, k = _dispatch(kernel, self.config, batch.lines, batch.u,
                                 batch.cost, kern_core, batch.lengths,
                                 fold=self.collapse_runs,
                                 with_extra=self.telemetry is not None,
                                 span=self._span)
        self._kernel_count += k
        self._edge_count += batch.edges
        if batch.starts is None:
            hits = edge_hits
        else:
            hits = np.ones(batch.total, dtype=bool)  # collapsed: hits
            hits[batch.starts] = edge_hits
        self._hit_count += int(np.count_nonzero(hits))
        if self.keep_hits:
            self._hit_chunks.append(hits)
        misses = ~edge_hits
        if run_core is not None:
            self.last_miss_cores = run_core[misses]
        return hits, batch.lines[misses]

    def flush(self) -> tuple[BoolArray, AddressArray]:
        """Resolve the carried trailing run (stream end) and dispatch it
        with the buffered batches, in one dispatch.  Returns their
        ``(hits, miss_lines)``, with ``last_miss_cores`` covering both;
        :meth:`feed` is an error afterwards."""
        if self._flushed:
            raise RuntimeError("stream already flushed")
        self._flushed = True
        if self._track_cores:
            self.last_miss_cores = np.zeros(0, dtype=np.int64)
        pending = self._pending
        self._pending = None
        if pending is not None:
            pline, pu, pcost, pcore, pcount = pending
            self._buffer.append(_Batch(
                np.array([pline], dtype=np.uint64),
                np.array([pu], dtype=np.float64) if pu is not None else None,
                np.array([pcost], dtype=np.int64) if pcost is not None else None,
                np.array([pcore], dtype=np.int64) if pcore is not None else None,
                (np.array([pcount], dtype=np.int64) if self._want_lengths
                 else None),
                np.zeros(1, dtype=np.intp), pcount, 1))
        if not self._buffer:
            return _no_outcomes()
        return self._dispatch_buffer()

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
        return SimResult(
            policy=self.spec.name,
            n=self.n,
            hit_count=self._hit_count,
            miss_count=self.n - self._hit_count,
            elapsed_s=time.perf_counter() - self._start,
            hits=_joined(self._hit_chunks) if self.keep_hits else None,
            policy_stats=self.kernel.extra_stats(),
            telemetry=tel.to_dict() if tel is not None else None,
        )


def _joined(hit_chunks: list[BoolArray]) -> BoolArray:
    """A run's kept per-chunk hit vectors as one vector."""
    return (np.concatenate(hit_chunks) if hit_chunks
            else np.zeros(0, dtype=bool))


class _NaiveLevel:
    """One cache level of the per-access oracle: tag lookup, then
    fill/victim selection through a naive policy, plus the generic
    per-(set, way) line-lifetime accounting when instrumented (the
    names the instrumented batched kernels produce)."""

    def __init__(self, impl: NaivePolicy, config: CacheConfig,
                 tel: Telemetry | None, prefix: str) -> None:
        self.impl = impl
        self.ways = config.ways
        self.set_mask = config.num_sets - 1
        self.set_bits = config.set_bits
        self.tags: list[list[int | None]] = [
            [None] * config.ways for _ in range(config.num_sets)]
        self.tel = tel
        self.prefix = prefix
        #: Hits since fill per (set, way); only kept when instrumented.
        self.line_hits = ([0] * (config.num_sets * config.ways)
                          if tel is not None else [])
        self.fills = self.evictions = self.dead = 0

    def access(self, line: int, pos: int, u: float = 0.0,
               cost: int | None = None, core: int | None = None) -> bool:
        """Look ``line`` up at access position ``pos``; fill on a miss.
        Returns whether it hit."""
        s = line & self.set_mask
        tag = line >> self.set_bits
        set_tags = self.tags[s]
        impl = self.impl
        tel = self.tel
        line_hits = self.line_hits
        if tag in set_tags:
            way = set_tags.index(tag)
            impl.on_hit(s, way, pos)
            if tel is not None:
                line_hits[s * self.ways + way] += 1
            return True
        if None in set_tags:
            way = set_tags.index(None)
        else:
            way = impl.find_victim(s, u)
            impl.replaced(s, way)
            if tel is not None:
                victim_hits = line_hits[s * self.ways + way]
                tel.observe(self.prefix + "line_hits", victim_hits)
                self.evictions += 1
                if victim_hits == 0:
                    self.dead += 1
        set_tags[way] = tag
        impl.on_fill(s, way, pos, u, cost, core)
        if tel is not None:
            line_hits[s * self.ways + way] = 0
            self.fills += 1
        return False


def _record_levels(tel: Telemetry, levels: list[_NaiveLevel]) -> None:
    """Lifetime counters of one level's instances (the N private L1Is
    count as one level), plus the resident lines' hit histogram."""
    prefix = levels[0].prefix
    tel.inc(prefix + "fills", sum(level.fills for level in levels))
    tel.inc(prefix + "evictions", sum(level.evictions for level in levels))
    tel.inc(prefix + "dead_on_fill", sum(level.dead for level in levels))
    for level in levels:
        for s, set_tags in enumerate(level.tags):
            for w, tag in enumerate(set_tags):
                if tag is not None:
                    tel.observe(prefix + "resident_line_hits",
                                level.line_hits[s * level.ways + w])


class ReferenceEngine:
    """Naive per-access reference implementation (one Python step per access).

    One :class:`_NaiveLevel` walk, the same the hierarchy oracle steps
    per level.  With a :class:`~emissary.telemetry.Telemetry` attached,
    the level does the generic line-lifetime accounting (it resolves
    tags and victims), and the naive policy contributes its
    policy-specific counters via ``telemetry_finalize`` — producing the
    same counter and histogram names as the instrumented batched
    kernels, which the telemetry test suite compares across engines.
    """

    def __init__(self, config: CacheConfig | None = None,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None) -> None:
        self.config = config or CacheConfig()
        self.telemetry = telemetry
        self.sanitizer = sanitizer

    def simulate_stream(self, chunks: Iterable[Any], policy: PolicySpec, *,
                        num_cores: int | None = None, seed: int = 0,
                        keep_hits: bool = True) -> SimResult:
        """:meth:`BatchedEngine.simulate_stream`'s contract, one access at
        a time.  The level, the RNG stream and the counts carry across
        chunks, and each chunk draws its own uniforms, so only one
        chunk's columns are resident at a time (plus the kept hits)."""
        spec = require_policy_spec(policy,
                                   caller="ReferenceEngine.simulate_stream")
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        start = time.perf_counter()
        extra = ({"num_cores": 1 if num_cores is None else num_cores}
                 if spec.name == "emissary" else {})
        level = _NaiveLevel(make_naive(spec.name, config.num_sets, config.ways,
                                       **spec.params, **extra),
                            config, tel, prefix="")
        if self.sanitizer is not None:
            self.sanitizer.attach_naive(level.impl)
        rng = (np.random.default_rng(seed)
               if policy_needs_rng(spec.name) else None)
        offset_bits = np.uint64(config.offset_bits)
        n = hit_count = 0
        hit_chunks: list[BoolArray] = []
        for addresses, core, cost in _chunk_items(chunks, num_cores, span):
            k = len(addresses)
            for name, column in (("cost", cost), ("core", core)):
                if column is not None and len(column) != k:
                    raise ValueError(f"{name} has {len(column)} entries for "
                                     f"{k} accesses")
            lines = (np.asarray(addresses, dtype=np.uint64)
                     >> offset_bits).tolist()
            u = rng.random(k).tolist() if rng is not None else repeat(0.0)
            costs = (np.asarray(cost, dtype=np.int64).tolist()
                     if cost is not None else repeat(None))
            cores = (np.asarray(core, dtype=np.int64).tolist()
                     if core is not None else repeat(None))
            with span("naive_loop"):
                hits = np.fromiter(map(level.access, lines, range(n, n + k),
                                       u, costs, cores), dtype=bool, count=k)
            # Drop the chunk before the next is pulled: its Python-object
            # columns take about 40 B per access each.
            del addresses, core, cost, lines, u, costs, cores
            n += k
            hit_count += int(np.count_nonzero(hits))
            if keep_hits:
                hit_chunks.append(hits)

        elapsed = time.perf_counter() - start
        if tel is not None:
            _record_levels(tel, [level])
            tel.inc("hits", hit_count)
            tel.inc("misses", n - hit_count)
            tel.inc("engine.accesses", n)
            level.impl.telemetry_finalize(tel)
            if self.sanitizer is not None:
                self.sanitizer.check_counters(tel, n, hit_count)
        return SimResult(
            policy=spec.name,
            n=n,
            hit_count=hit_count,
            miss_count=n - hit_count,
            elapsed_s=elapsed,
            hits=_joined(hit_chunks) if keep_hits else None,
            policy_stats=level.impl.extra_stats(),
            telemetry=tel.to_dict() if tel is not None else None,
        )
