"""Two-level L1I -> L2 instruction-cache hierarchy engines.

EMISSARY is an *L2* instruction cache policy: its miss-awareness signal
is which lines cost L1I demand misses, so the paper's setting is an L2
behind L1I filters, shared by several cores.  This module provides it:

:class:`BatchedHierarchyEngine` (the hot path)
    One streamed N-core path,
    :meth:`~BatchedHierarchyEngine.simulate_stream`; a one-shot run is
    a stream of one chunk, a single-core run has one core.  The N
    private L1Is run core-virtualized on one incremental batched
    engine (MRU run collapsing and the set-order fold drop the fetches
    that re-touch a line, which can never reach L2).  Only the L1I
    *miss stream* goes on, with each miss's running per-(core, line)
    L1I miss count (the paper's priority signal, measured rather than
    assumed), into a second stream for the shared L2.  Cost-aware
    policies (EMISSARY) receive the counts through the kernel ``cost``
    channel and gate HP candidacy on them (``min_l1_misses``).

:class:`HierarchyReferenceEngine` (the oracle)
    One straightforward Python iteration per trace access through N
    separate naive L1Is and one shared naive L2, interleaving the L1I
    lookup, the miss counter, and the L2 access exactly as a real fetch
    would.  It takes the same chunks as the batched path, and the
    equivalence suites assert bit-identical hit vectors, per-level
    stats and per-core rows against it on the same chunk cuts.

Randomness: only the L2 policy may consume uniforms (the L1I policy is
required to be deterministic — LRU or SRRIP), drawn positionally over
the miss stream.  NumPy's ``Generator.random(m)`` and ``m`` successive
scalar ``Generator.random()`` calls yield the same sequence, so the
per-access oracle draws lazily and still matches the batched engine's
pre-generated array bit for bit.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from emissary.api import (BATCHED_BACKENDS, DEFAULT_BACKEND, PolicySpec,
                          require_policy_spec)
from emissary.wire import (WIRE_SCHEMA_KEY, WIRE_SCHEMA_VERSION,
                           check_known_keys, check_wire_version)
from emissary.engine import (BatchedEngine, BoolArray, CacheConfig,
                             EngineStream, IndexArray, SimResult, _chunk_items,
                             _joined, _NaiveLevel, _record_levels)
from emissary.policies import make_naive, policy_needs_rng
from emissary.policies.base import stable_argsort
from emissary.telemetry import Telemetry, span_factory
from emissary.traces import (DEFAULT_CHUNK_BYTES, MAX_CORES, AddressArray,
                             CoreIdArray)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.analysis.sanitizer import Sanitizer

#: Default L1I: 64 sets x 8 ways x 64 B lines = 32 KiB, the common size.
DEFAULT_L1 = CacheConfig(num_sets=64, ways=8)

#: Accesses per L1 stage piece: the chunk budget's worth of addresses.
_PIECE = DEFAULT_CHUNK_BYTES // np.dtype(np.uint64).itemsize


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of the two-level hierarchy (L1I filter + L2 under test)."""

    l1: CacheConfig = DEFAULT_L1
    l2: CacheConfig = CacheConfig()
    l1_policy: str = "lru"

    def __post_init__(self) -> None:
        if not isinstance(self.l1, CacheConfig) or not isinstance(self.l2, CacheConfig):
            raise TypeError("l1 and l2 must be CacheConfig instances")
        if self.l1.line_size != self.l2.line_size:
            raise ValueError(
                f"L1 and L2 line sizes must match for the miss stream to be "
                f"line-addressed consistently (got {self.l1.line_size} vs "
                f"{self.l2.line_size})")
        if policy_needs_rng(self.l1_policy):  # also rejects unknown names
            raise ValueError(
                f"l1_policy {self.l1_policy!r} consumes RNG; the L1I filter must "
                f"be deterministic so the uniform stream belongs to L2 alone")

    def to_dict(self) -> dict[str, Any]:
        return {"l1": self.l1.to_dict(), "l2": self.l2.to_dict(),
                "l1_policy": self.l1_policy}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "HierarchyConfig":
        check_known_keys(d, ("l1", "l2", "l1_policy"), "HierarchyConfig")
        return cls(l1=CacheConfig.from_dict(d["l1"]), l2=CacheConfig.from_dict(d["l2"]),
                   l1_policy=d.get("l1_policy", "lru"))


@dataclass
class HierarchyResult:
    """Outcome of one two-level simulation.

    ``l1`` covers the full trace; ``l2`` covers only the L1I miss stream
    (``l2.n == l1.miss_count``), so ``l2.hit_rate`` is the *local* L2 hit
    rate and :attr:`l2_mpki` renormalizes L2 misses to the full trace.
    """

    policy: str
    n: int
    l1: SimResult
    l2: SimResult
    elapsed_s: float
    #: Merged instrumentation payload (``l1.`` / ``l2.`` prefixed names
    #: plus hierarchy-stage spans) when the run was instrumented.
    telemetry: dict[str, Any] | None = None

    @property
    def l1_hit_rate(self) -> float:
        return self.l1.hit_rate

    @property
    def l2_local_hit_rate(self) -> float:
        return self.l2.hit_rate

    @property
    def l1_mpki(self) -> float:
        return self.l1.mpki

    @property
    def l2_mpki(self) -> float:
        """L2 misses per kilo-access of the *original* trace."""
        return 1000.0 * self.l2.miss_count / self.n if self.n else 0.0

    @property
    def accesses_per_s(self) -> float | None:
        """Throughput, or None when no time elapsed (see
        :attr:`emissary.engine.SimResult.accesses_per_s`)."""
        return self.n / self.elapsed_s if self.elapsed_s > 0 else None

    #: Wire keys of the :meth:`to_dict` payload (see :mod:`emissary.wire`).
    _WIRE_KEYS = frozenset({WIRE_SCHEMA_KEY, "policy", "n", "l1", "l2",
                            "l1_hit_rate", "l2_local_hit_rate", "l1_mpki",
                            "l2_mpki", "elapsed_s", "accesses_per_s",
                            "telemetry"})

    def to_dict(self) -> dict[str, Any]:
        d = {
            WIRE_SCHEMA_KEY: WIRE_SCHEMA_VERSION,
            "policy": self.policy,
            "n": self.n,
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "l1_hit_rate": self.l1_hit_rate,
            "l2_local_hit_rate": self.l2_local_hit_rate,
            "l1_mpki": self.l1_mpki,
            "l2_mpki": self.l2_mpki,
            "elapsed_s": self.elapsed_s,
            "accesses_per_s": self.accesses_per_s,
        }
        if self.telemetry is not None:
            d["telemetry"] = self.telemetry
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "HierarchyResult":
        """Strict wire decode (see :mod:`emissary.wire`): v0 accepted,
        unknown keys and newer versions rejected."""
        check_wire_version(d, "HierarchyResult")
        check_known_keys(d, cls._WIRE_KEYS, "HierarchyResult")
        return cls(policy=d["policy"], n=int(d["n"]),
                   l1=SimResult.from_dict(d["l1"]), l2=SimResult.from_dict(d["l2"]),
                   elapsed_s=float(d["elapsed_s"]), telemetry=d.get("telemetry"))


@dataclass
class MultiCoreHierarchyResult(HierarchyResult):
    """Multi-core variant of :class:`HierarchyResult`.

    ``l1`` aggregates all N private L1I front-ends; ``l2`` is the single
    shared L2.  :attr:`per_core` breaks both levels down by core — the
    raw material for the fairness analysis (per-core MPKI deltas against
    solo runs), so every engine computes it identically.
    """

    num_cores: int = 1
    #: One row per core: ``core``, ``n``, ``l1_misses``, ``l2_misses``,
    #: ``l2_hits``, ``l1_mpki``, ``l2_mpki`` (MPKI per that core's own
    #: accesses, not the combined trace).
    per_core: list[dict[str, Any]] = field(default_factory=list)

    _WIRE_KEYS = HierarchyResult._WIRE_KEYS | {"num_cores", "per_core"}

    def to_dict(self) -> dict[str, Any]:
        d = super().to_dict()
        d["num_cores"] = self.num_cores
        d["per_core"] = self.per_core
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "MultiCoreHierarchyResult":
        check_wire_version(d, "MultiCoreHierarchyResult")
        check_known_keys(d, cls._WIRE_KEYS, "MultiCoreHierarchyResult")
        return cls(policy=d["policy"], n=int(d["n"]),
                   l1=SimResult.from_dict(d["l1"]), l2=SimResult.from_dict(d["l2"]),
                   elapsed_s=float(d["elapsed_s"]), telemetry=d.get("telemetry"),
                   num_cores=int(d["num_cores"]),
                   per_core=[dict(row) for row in d["per_core"]])


def _check_num_cores(num_cores: int) -> None:
    """A core count must be in ``[1, MAX_CORES]``."""
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1, got {num_cores}")
    if num_cores > MAX_CORES:
        raise ValueError(f"num_cores {num_cores} exceeds MAX_CORES ({MAX_CORES})")


def _check_core_ids(core_ids: CoreIdArray, n: int, num_cores: int
                    ) -> tuple[IndexArray, IndexArray]:
    """Validate one chunk's per-access core-id array (the only place they
    are checked); return the ids as ``int64`` and the accesses per core.

    The counting doubles as the range check: one
    ``count_nonzero(core == c)`` pass per core (about 0.6 ms per core on
    1.2M ids), and the counts sum to ``n`` exactly when every id is in
    ``[0, num_cores)``."""
    # The inferred dtype is only inspected: a float id must fail loudly,
    # not be truncated by the int64 cast below.
    core = np.asarray(core_ids)  # emi: ignore[EMI006]
    if core.dtype.kind not in "iu":
        raise TypeError(f"core_ids must be integers, got dtype {core.dtype}")
    core = np.ascontiguousarray(core, dtype=np.int64)
    if len(core) != n:
        raise ValueError(f"core_ids length {len(core)} != trace length {n}")
    counts = np.array([np.count_nonzero(core == c)
                       for c in range(num_cores)], dtype=np.int64)
    if int(counts.sum()) == n:
        return core, counts
    if int(core.min()) < 0:
        raise ValueError("core_ids must be non-negative")
    raise ValueError(f"core_ids contain {int(core.max())} but num_cores is "
                     f"{num_cores}")


def _core_virtual_layout(l1: CacheConfig,
                         num_cores: int) -> tuple[int, int, CacheConfig]:
    """Core-virtualized combined L1I: one engine simulates all N private
    L1Is by widening the set index with the core id.

    A virtual line ``(line << core_bits) | core`` maps core ``c``'s
    accesses onto a disjoint bank of ``l1.num_sets`` sets (the padded
    core field keeps the set math a pure mask), with the original tag
    preserved — so each bank behaves exactly like that core's private
    L1I while the single engine preserves global trace order for the
    shared-L2 miss stream.  Returns ``(core_bits, core_pad, virtual_config)``.
    """
    core_bits = (num_cores - 1).bit_length()
    core_pad = 1 << core_bits
    virtual = CacheConfig(num_sets=l1.num_sets * core_pad, ways=l1.ways,
                          line_size=l1.line_size)
    return core_bits, core_pad, virtual


#: Accesses, L1I misses and L2 misses per core.
_PerCoreCounts = tuple[Iterable[Any], Iterable[Any], Iterable[Any]]


def _hierarchy_result(policy: str, l1: SimResult, l2: SimResult,
                      elapsed: float, tel: Telemetry | None,
                      by_core: _PerCoreCounts | None) -> HierarchyResult:
    """Wrap both levels' results.  ``by_core`` (accesses, L1I misses and
    L2 misses per core) makes it a :class:`MultiCoreHierarchyResult`
    whose per-core rows are built here for every engine, so they compare
    bit for bit, and mirrored into ``core{c}.*`` telemetry counters."""
    if by_core is None:
        return HierarchyResult(policy=policy, n=l1.n, l1=l1, l2=l2,
                               elapsed_s=elapsed,
                               telemetry=tel.to_dict() if tel is not None
                               else None)
    per_core = []
    for c, counts in enumerate(zip(*by_core)):
        n_c, l1m, l2m = (int(x) for x in counts)
        per_core.append({
            "core": c,
            "n": n_c,
            "l1_misses": l1m,
            "l2_misses": l2m,
            "l2_hits": l1m - l2m,
            "l1_mpki": 1000.0 * l1m / n_c if n_c else 0.0,
            "l2_mpki": 1000.0 * l2m / n_c if n_c else 0.0,
        })
        if tel is not None:
            tel.inc(f"core{c}.n", n_c)
            tel.inc(f"core{c}.l1_misses", l1m)
            tel.inc(f"core{c}.l2_misses", l2m)
    return MultiCoreHierarchyResult(
        policy=policy, n=l1.n, l1=l1, l2=l2, elapsed_s=elapsed,
        telemetry=tel.to_dict() if tel is not None else None,
        num_cores=len(per_core), per_core=per_core)


class MissCountTable:
    """Compacted running miss counters for the streamed hierarchy.

    The keys (miss lines, or core-virtualized ``(core, line)`` keys in
    multi-core runs) live in one sorted ``uint64`` array with an
    ``int64`` count array alongside: 16 bytes per unique key, where a
    ``dict`` slot costs ~100.  :meth:`advance` is outcome-identical to
    the per-key dict walk and sorts each batch once: for a batch of keys
    in stream order it returns each position's inclusive running count,
    then folds the new totals in.
    """

    def __init__(self) -> None:
        self._keys: AddressArray = np.zeros(0, dtype=np.uint64)
        self._counts: IndexArray = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def nbytes(self) -> int:
        """Resident footprint of the table arrays."""
        return self._keys.nbytes + self._counts.nbytes

    @property
    def keys(self) -> AddressArray:
        """Sorted unique keys seen so far (read-only view for callers)."""
        return self._keys

    @property
    def counts(self) -> IndexArray:
        """Total count per key, aligned with :attr:`keys`."""
        return self._counts

    def advance(self, keys: AddressArray) -> IndexArray:
        """Inclusive running count per position of ``keys`` (in stream
        order, continuing across calls), folding the batch into the
        table.

        One stable radix argsort groups equal keys in stream order, so a
        position's count is its key's prior total plus its rank in the
        group.  Known keys are updated in place; new ones are inserted
        at the positions the prior lookup already found."""
        m = len(keys)
        if m == 0:
            return np.zeros(0, dtype=np.int64)
        order = stable_argsort(keys)
        sorted_keys = keys[order]
        head = np.empty(m, dtype=bool)
        head[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        uniq = sorted_keys[starts]
        del sorted_keys, head
        sizes = np.diff(starts, append=m)
        pos = np.searchsorted(self._keys, uniq)
        known = pos < len(self._keys)
        known[known] = self._keys[pos[known]] == uniq[known]
        at = pos[known]
        prior = np.zeros(len(uniq), dtype=np.int64)
        prior[known] = self._counts[at]
        rank = np.arange(1, m + 1, dtype=np.int64)
        rank += np.repeat(prior - starts, sizes)
        cost = np.empty(m, dtype=np.int64)
        cost[order] = rank
        self._counts[at] += sizes[known]
        new = ~known
        # Merge the new keys in at the positions the lookup found (each
        # shifted past the new keys before it): ``np.insert`` would
        # argsort those positions again, twice.
        at_new = pos[new]
        at_new += np.arange(len(at_new), dtype=at_new.dtype)
        grown = len(self._keys) + len(at_new)
        old = np.ones(grown, dtype=bool)
        old[at_new] = False
        keys_out = np.empty(grown, dtype=np.uint64)
        keys_out[old] = self._keys
        keys_out[at_new] = uniq[new]
        counts_out = np.empty(grown, dtype=np.int64)
        counts_out[old] = self._counts
        counts_out[at_new] = sizes[new]
        self._keys, self._counts = keys_out, counts_out
        return cost


class BatchedHierarchyEngine:
    """L1I filter stage + L2 policy stage, both on the batched engine.

    One path, :meth:`simulate_stream`: N private L1Is over a chunked
    trace feeding one shared L2.  One-shot runs are a single chunk;
    single-core runs have one core.
    """

    def __init__(self, config: HierarchyConfig | None = None,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None,
                 kernel_backend: str = DEFAULT_BACKEND) -> None:
        self.config = config or HierarchyConfig()
        #: Optional :class:`~emissary.telemetry.Telemetry`; each stage
        #: records into its own child registry, merged here with ``l1.``
        #: / ``l2.`` prefixes.
        self.telemetry = telemetry
        #: Optional :class:`~emissary.analysis.sanitizer.Sanitizer`,
        #: shared by both stage engines (one instance checks both levels).
        self.sanitizer = sanitizer
        if kernel_backend not in BATCHED_BACKENDS:
            raise ValueError(f"unknown kernel_backend {kernel_backend!r} "
                             f"(expected one of {BATCHED_BACKENDS})")
        #: Kernel backend for *both* stage engines, one of
        #: :data:`~emissary.api.BATCHED_BACKENDS` ("batched" or
        #: "compiled"); outcomes are bit-identical either way.
        self.kernel_backend = kernel_backend

    def _stage_stream(self, config: CacheConfig, telemetry: Telemetry | None,
                      spec: PolicySpec, seed: int, keep_hits: bool,
                      num_cores: int) -> EngineStream:
        engine = BatchedEngine(config, telemetry=telemetry,
                               sanitizer=self.sanitizer,
                               kernel_backend=self.kernel_backend)
        return EngineStream(engine, spec, seed=seed, keep_hits=keep_hits,
                            num_cores=num_cores)

    def run(self, addresses: AddressArray, policy: PolicySpec,
            seed: int = 0) -> HierarchyResult:
        """:meth:`simulate_stream` of one chunk.  Kept only for the
        benchmark's traced pass, which calls it; it goes when that pass
        times the request path instead."""
        return self.simulate_stream([addresses], policy, seed=seed)

    def run_multicore(self, addresses: AddressArray, core_ids: CoreIdArray,
                      policy: PolicySpec, num_cores: int,
                      seed: int = 0) -> MultiCoreHierarchyResult:
        """:meth:`simulate_stream` of one ``num_cores`` chunk.  Kept, as
        :meth:`run` is, only for the benchmark's traced pass."""
        result = self.simulate_stream([(addresses, core_ids)], policy,
                                      num_cores=num_cores, seed=seed)
        assert isinstance(result, MultiCoreHierarchyResult)
        return result

    def simulate_stream(self, chunks: Iterable[Any], policy: PolicySpec, *,
                        num_cores: int | None = None, seed: int = 0,
                        keep_hits: bool = True,
                        chunk_bytes: int = DEFAULT_CHUNK_BYTES
                        ) -> HierarchyResult:
        """Run the two-level hierarchy over a chunked trace in bounded
        memory: the one execution path, both stages as incremental
        :class:`~emissary.engine.EngineStream`\\ s.

        ``chunks`` is any iterable of ``uint64`` address arrays in trace
        order (e.g. a :class:`~emissary.trace_io.TraceSource`) or, with
        ``num_cores`` private L1Is, of ``(addresses, core_ids)`` pairs in
        interleaved trace order (e.g.
        :meth:`emissary.traces.InterleaveSpec.generate_chunks`): the
        interleave *is* the arrival order at the shared L2.  Each
        chunk's ids go through :func:`_check_core_ids`.  With
        ``num_cores`` the result is a :class:`MultiCoreHierarchyResult`
        with per-core rows and ``core{c}.*`` counters, at any core
        count; without, a plain :class:`HierarchyResult`.

        The private L1Is share one core-virtualized engine (see
        :func:`_core_virtual_layout`), whose lag fold and set-order fold
        still find each core's line repeats that interleaving hides from
        trace-order collapse.  On a 300k-access 2:1 ``loop``/``call``
        interleave, 204,004 accesses (68%) are trace-order edges and
        about 22.8k (7.6%) reach the L1 kernel.  The lag fold runs
        before the set sort on every backend, so the compiled backend,
        which skips only the set-order fold, still sends just 29.4k
        (9.8%).  The shared L2 gets the issuing core on the core
        channel, so a partitioned-budget EMISSARY L2 can enforce
        per-core HP quotas.

        Each chunk is cut into views of at most one chunk budget
        (:data:`~emissary.traces.DEFAULT_CHUNK_BYTES`) of accesses,
        without copies, so the line build, the collapse and the lag fold
        work on cache-resident arrays whoever the caller is.  Each piece
        is decoded to lines once, with the core ORed in below the line
        when there are several (the L1 stage's ``decode`` span), and
        enters the L1 stream as lines.  At one core ``core_bits`` is 0:
        the virtual line is the line, and none of the core bookkeeping
        runs.

        Each L1I dispatch's miss lines go into the L2 stream, again as
        lines, with their running per-``(core, line)`` L1I miss counts,
        carried across chunks in a :class:`MissCountTable`.  They are
        buffered and forwarded once ``chunk_bytes`` of them have
        accumulated (or at end of trace): the L1I filters out most
        accesses, and forwarding each sliver separately would make the
        L2 stage's miss-count update pay its fixed costs per sliver.
        L1/L2 hit vectors and per-level stats are bit-identical for any
        budget and any chunk cuts: the cost computation depends only on
        the order of the miss stream, not on where it is cut.
        """
        spec = require_policy_spec(
            policy, caller="BatchedHierarchyEngine.simulate_stream")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, "
                             f"got {chunk_bytes}")
        cores = 1 if num_cores is None else num_cores
        _check_num_cores(cores)
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        l1_tel = Telemetry() if tel is not None else None
        l2_tel = Telemetry() if tel is not None else None
        l1_span = span_factory(l1_tel)
        start = time.perf_counter()
        core_bits, core_pad, v_l1 = _core_virtual_layout(config.l1, cores)
        offset_bits = np.uint64(config.l1.offset_bits)
        line_cap_bits = 64 - config.l1.offset_bits - core_bits

        l1_stream = self._stage_stream(v_l1, l1_tel, PolicySpec(config.l1_policy),
                                       seed, keep_hits, cores)
        l2_stream = self._stage_stream(config.l2, l2_tel, spec, seed,
                                       keep_hits, cores)
        miss_counts = MissCountTable()
        pending: list[AddressArray] = []
        pending_bytes = 0
        n_by_core = np.zeros(cores, dtype=np.int64)
        l2_miss_by_core = np.zeros(cores, dtype=np.int64)

        def tally_l2_misses() -> None:
            """Fold the L2 stream's latest per-miss core attribution
            (None: no core channel) into the fairness tally."""
            miss_cores = l2_stream.last_miss_cores
            if miss_cores is not None:
                l2_miss_by_core[:] += np.bincount(miss_cores, minlength=cores)

        def advance(miss_vlines: AddressArray) -> None:
            """Extend the running L1I miss counts and feed the resolved
            miss stream (with measured costs) into L2."""
            with span("miss_extract"):
                cost = miss_counts.advance(miss_vlines)
                miss_lines, miss_cores = miss_vlines, None
                if core_bits:
                    miss_cores = (miss_vlines
                                  & np.uint64(core_pad - 1)).astype(np.int64)
                    miss_lines = miss_vlines >> np.uint64(core_bits)
            with span("l2_stage"):
                l2_stream.feed_lines(miss_lines, cost=cost, core=miss_cores)
            tally_l2_misses()

        def enqueue(miss_vlines: AddressArray, flush: bool = False) -> None:
            """Buffer miss lines; forward to L2 once the coalescing
            budget fills (or unconditionally on flush)."""
            nonlocal pending_bytes
            if len(miss_vlines):
                pending.append(miss_vlines)
                pending_bytes += miss_vlines.nbytes
            if pending and (flush or pending_bytes >= chunk_bytes):
                batch = (pending[0] if len(pending) == 1
                         else np.concatenate(pending))
                pending.clear()
                pending_bytes = 0
                advance(batch)

        def l1_lines(addrs: AddressArray,
                     core: IndexArray | None) -> AddressArray:
            """A chunk's L1 stage lines, in one new buffer: the lines,
            core-virtualized in place when there are several cores."""
            with l1_span("decode"):
                lines = (np.ascontiguousarray(addrs, dtype=np.uint64)
                         >> offset_bits)
                if core_bits:
                    assert core is not None
                    if len(lines) and int(lines.max()) >> line_cap_bits:
                        raise ValueError(
                            f"address lines need more than {line_cap_bits} "
                            f"bits; no headroom for {core_bits} core bits")
                    lines <<= np.uint64(core_bits)
                    lines |= core.view(np.uint64)  # validated >= 0
                return lines

        for addrs, core in _chunk_items(chunks, num_cores, span, width=2):
            if core is not None:
                with span("stream_ingest"):
                    core, counts = _check_core_ids(core, len(addrs), cores)
                n_by_core += counts
            for lo in range(0, len(addrs), _PIECE):
                with span("l1_stage"):
                    # The lines are a call temporary: the stream frees
                    # them after its collapse.
                    _, miss_vlines = l1_stream.feed_lines(l1_lines(
                        addrs[lo:lo + _PIECE],
                        None if core is None else core[lo:lo + _PIECE]))
                enqueue(miss_vlines)
            del addrs, core
        with span("l1_stage"):
            _, miss_vlines = l1_stream.flush()
        enqueue(miss_vlines, flush=True)
        with span("l2_stage"):
            l2_stream.flush()
        tally_l2_misses()

        l1_result = l1_stream.finish()
        l2_result = l2_stream.finish()
        l2_result.policy_stats.setdefault("unique_l1_miss_lines",
                                          len(miss_counts))
        by_core: _PerCoreCounts | None = None
        if num_cores is not None and core_bits:
            # Per-core L1I misses come straight off the compacted table:
            # the key's low bits are the core, the count is that
            # (core, line)'s total misses.
            key_cores = (miss_counts.keys
                         & np.uint64(core_pad - 1)).astype(np.int64)
            by_core = (n_by_core,
                       np.bincount(key_cores, weights=miss_counts.counts,
                                   minlength=cores).astype(np.int64),
                       l2_miss_by_core)
        elif num_cores is not None:  # one core: its row is the totals
            by_core = ([l1_result.n], [l1_result.miss_count],
                       [l2_result.miss_count])
        elapsed = time.perf_counter() - start
        if tel is not None:
            tel.merge_prefixed(l1_tel, "l1.")
            tel.merge_prefixed(l2_tel, "l2.")
            # The merged payload is the single canonical blob; drop the
            # per-stage copies so the serialized result stays compact.
            l1_result.telemetry = None
            l2_result.telemetry = None
        return _hierarchy_result(spec.name, l1_result, l2_result, elapsed,
                                 tel, by_core)


class HierarchyReferenceEngine:
    """Naive per-access oracle: L1I lookup, miss counting, and L2 access
    interleaved in trace order, one Python step per fetch.

    One loop, :meth:`simulate_stream`: N genuinely separate naive L1I
    instances (one per core) in front of one shared naive L2 — the
    ground truth the core-virtualized batched path must reproduce bit
    for bit, on the same chunks.
    """

    def __init__(self, config: HierarchyConfig | None = None,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.telemetry = telemetry
        self.sanitizer = sanitizer

    def simulate_stream(self, chunks: Iterable[Any], policy: PolicySpec, *,
                        num_cores: int | None = None, seed: int = 0,
                        keep_hits: bool = True) -> HierarchyResult:
        """:meth:`BatchedHierarchyEngine.simulate_stream`'s contract, one
        access at a time.  The levels, the miss counts, the RNG stream
        and the hit, miss and per-core tallies carry across chunks, so
        only one chunk's columns are resident at a time (plus the kept
        hits)."""
        spec = require_policy_spec(
            policy, caller="HierarchyReferenceEngine.simulate_stream")
        cores = 1 if num_cores is None else num_cores
        _check_num_cores(cores)
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        start = time.perf_counter()

        l1 = [_NaiveLevel(make_naive(config.l1_policy, config.l1.num_sets,
                                     config.l1.ways), config.l1, tel, "l1.")
              for _ in range(cores)]
        extra = {"num_cores": cores} if spec.name == "emissary" else {}
        l2 = _NaiveLevel(make_naive(spec.name, config.l2.num_sets,
                                    config.l2.ways, **spec.params, **extra),
                         config.l2, tel, "l2.")
        if self.sanitizer is not None:
            for level in (*l1, l2):
                self.sanitizer.attach_naive(level.impl)
        rng = (np.random.default_rng(seed)
               if policy_needs_rng(spec.name) else None)
        miss_counts: dict[tuple[int, int], int] = {}
        offset_bits = np.uint64(config.l1.offset_bits)  # == l2's (validated)
        n = m = l1_hit_count = l2_hit_count = 0
        n_by_core = np.zeros(cores, dtype=np.int64)
        l1_miss_by_core = np.zeros(cores, dtype=np.int64)
        l2_miss_by_core = np.zeros(cores, dtype=np.int64)
        l1_chunks: list[BoolArray] = []
        l2_chunks: list[BoolArray] = []

        for addrs, core_ids in _chunk_items(chunks, num_cores, span, width=2):
            k = len(addrs)
            core = (np.zeros(k, dtype=np.int64) if core_ids is None
                    else _check_core_ids(core_ids, k, cores)[0])
            l1_hits = np.empty(k, dtype=bool)
            l2_list: list[bool] = []
            lines = (np.asarray(addrs, dtype=np.uint64) >> offset_bits).tolist()
            with span("naive_loop"):
                for i, (line, c) in enumerate(zip(lines, core.tolist())):
                    if l1[c].access(line, n + i):
                        l1_hits[i] = True
                        continue
                    # Private L1I miss: bump that core's measured miss
                    # count for the line, then access the shared L2.
                    l1_hits[i] = False
                    cost = miss_counts.get((c, line), 0) + 1
                    miss_counts[(c, line)] = cost
                    u = rng.random() if rng is not None else 0.0
                    l2_list.append(l2.access(line, m + len(l2_list), u,
                                             cost, c))
            # Drop the chunk before the next is pulled.
            del addrs, core_ids, lines
            l2_hits = np.array(l2_list, dtype=bool)
            miss_cores = core[~l1_hits]  # the L2 access stream's cores
            n_by_core += np.bincount(core, minlength=cores)
            l1_miss_by_core += np.bincount(miss_cores, minlength=cores)
            l2_miss_by_core += np.bincount(miss_cores[~l2_hits],
                                           minlength=cores)
            n += k
            m += len(l2_hits)
            l1_hit_count += int(np.count_nonzero(l1_hits))
            l2_hit_count += int(np.count_nonzero(l2_hits))
            if keep_hits:
                l1_chunks.append(l1_hits)
                l2_chunks.append(l2_hits)

        elapsed = time.perf_counter() - start
        if tel is not None:
            _record_levels(tel, l1)
            _record_levels(tel, [l2])
            tel.inc("l1.hits", l1_hit_count)
            tel.inc("l1.misses", n - l1_hit_count)
            tel.inc("l2.hits", l2_hit_count)
            tel.inc("l2.misses", m - l2_hit_count)
            tel.inc("engine.accesses", n)
            for level in (*l1, l2):
                level.impl.telemetry_finalize(tel, prefix=level.prefix)
        l1_result = SimResult(policy=config.l1_policy, n=n,
                              hit_count=l1_hit_count,
                              miss_count=n - l1_hit_count, elapsed_s=elapsed,
                              hits=_joined(l1_chunks) if keep_hits else None,
                              # The L1I policy is deterministic (LRU or
                              # SRRIP) and keeps no statistics, so any
                              # core's instance speaks for all of them.
                              policy_stats=l1[0].impl.extra_stats())
        l2_result = SimResult(policy=spec.name, n=m, hit_count=l2_hit_count,
                              miss_count=m - l2_hit_count, elapsed_s=elapsed,
                              hits=_joined(l2_chunks) if keep_hits else None,
                              policy_stats={**l2.impl.extra_stats(),
                                            "unique_l1_miss_lines":
                                            len(miss_counts)})
        by_core = (None if num_cores is None
                   else (n_by_core, l1_miss_by_core, l2_miss_by_core))
        return _hierarchy_result(spec.name, l1_result, l2_result, elapsed,
                                 tel, by_core)
