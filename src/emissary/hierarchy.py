"""Two-level L1I -> L2 instruction-cache hierarchy engines.

EMISSARY is an *L2* instruction cache policy: its miss-awareness signal
is which lines cost L1I demand misses, so the paper's setting is an L2
sitting behind an L1I filter.  This module provides that setting:

:class:`BatchedHierarchyEngine` (the hot path)
    Stage 1 simulates the L1I over the full trace with the batched
    set-major engine (MRU run collapsing removes the ~90% of fetches
    that re-touch the current line — those can never reach L2).  Only
    the L1I *miss stream* proceeds to stage 2, together with each miss
    line's running L1I miss count — the paper's priority signal,
    measured rather than assumed.  Stage 2 runs the policy under test
    over the miss stream on a second batched engine; cost-aware policies
    (EMISSARY) receive the measured counts through the kernel ``cost``
    channel and gate HP candidacy on them (``min_l1_misses``).

:class:`HierarchyReferenceEngine` (the oracle)
    One straightforward Python iteration per trace access, interleaving
    the L1I lookup, the per-line miss counter, and the L2 access exactly
    as a real fetch would.  The equivalence suite asserts bit-identical
    L1 hit vectors, L2 hit vectors, and per-level stats against the
    batched path.

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

from emissary.api import PolicySpec, require_policy_spec
from emissary.wire import (WIRE_SCHEMA_KEY, WIRE_SCHEMA_VERSION,
                           check_known_keys, check_wire_version)
from emissary.engine import BatchedEngine, CacheConfig, IndexArray, SimResult
from emissary.policies import make_naive, policy_needs_rng
from emissary.telemetry import Telemetry, span_factory
from emissary.traces import MAX_CORES, AddressArray, CoreIdArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.analysis.sanitizer import Sanitizer

#: Default L1I: 64 sets x 8 ways x 64 B lines = 32 KiB, the common size.
DEFAULT_L1 = CacheConfig(num_sets=64, ways=8)

#: Default byte budget for coalescing L1I miss chunks before forwarding
#: them to the L2 stream (1 MiB of uint64 lines ~= 128k misses).  Small
#: ingest chunks on low-miss-rate traces otherwise produce many tiny L2
#: dispatches; coalescing is outcome-invariant because the running
#: per-line miss counts carry across batch boundaries in a counter table.
DEFAULT_L2_CHUNK_BYTES = 1 << 20


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


def _check_core_ids(core_ids: CoreIdArray, n: int,
                    num_cores: int | None) -> tuple[IndexArray, int]:
    """Validate the per-access core-id channel; resolve ``num_cores``
    (``None`` means infer from the ids)."""
    core = np.ascontiguousarray(core_ids, dtype=np.int64)
    if len(core) != n:
        raise ValueError(f"core_ids length {len(core)} != trace length {n}")
    observed_max = int(core.max()) if n else 0
    if n and int(core.min()) < 0:
        raise ValueError("core_ids must be non-negative")
    if num_cores is None:
        num_cores = observed_max + 1 if n else 1
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1, got {num_cores}")
    if num_cores > MAX_CORES:
        raise ValueError(f"num_cores {num_cores} exceeds MAX_CORES ({MAX_CORES})")
    if n and observed_max >= num_cores:
        raise ValueError(f"core_ids contain {observed_max} but num_cores is "
                         f"{num_cores}")
    return core, num_cores


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


def _per_core_stats(num_cores: int, n_by_core: IndexArray,
                    l1_miss_by_core: IndexArray,
                    l2_miss_by_core: IndexArray) -> list[dict[str, Any]]:
    """Assemble the per-core breakdown rows (shared by every engine so
    the payloads are comparable bit for bit)."""
    rows = []
    for c in range(num_cores):
        n_c = int(n_by_core[c])
        l1m = int(l1_miss_by_core[c])
        l2m = int(l2_miss_by_core[c])
        rows.append({
            "core": c,
            "n": n_c,
            "l1_misses": l1m,
            "l2_misses": l2m,
            "l2_hits": l1m - l2m,
            "l1_mpki": 1000.0 * l1m / n_c if n_c else 0.0,
            "l2_mpki": 1000.0 * l2m / n_c if n_c else 0.0,
        })
    return rows


def _record_per_core(tel: Telemetry | None,
                     per_core: list[dict[str, Any]]) -> None:
    """Mirror the per-core breakdown into telemetry counters
    (``core{c}.n`` / ``core{c}.l1_misses`` / ``core{c}.l2_misses``)."""
    if tel is None:
        return
    for row in per_core:
        c = row["core"]
        tel.inc(f"core{c}.n", row["n"])
        tel.inc(f"core{c}.l1_misses", row["l1_misses"])
        tel.inc(f"core{c}.l2_misses", row["l2_misses"])


class MissCountTable:
    """Compacted running miss counters for the streamed hierarchy.

    Replaces the previous unbounded ``dict[int, int]``: the keys (miss
    lines, or core-virtualized ``(core, line)`` keys in multi-core runs)
    live in one sorted ``uint64`` array with an ``int64`` count array
    alongside — 16 bytes per unique key instead of ~100 for a dict slot,
    and the whole table stays cache-friendly for the vectorized prior
    lookups.  :meth:`advance` is outcome-identical to the dict walk: for
    a batch of keys in stream order it returns each position's inclusive
    running count, then folds the new totals in.
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
        table."""
        if len(keys) == 0:
            return np.zeros(0, dtype=np.int64)
        uniq, inverse = np.unique(keys, return_inverse=True)
        prior = np.zeros(len(uniq), dtype=np.int64)
        if len(self._keys):
            pos = np.searchsorted(self._keys, uniq)
            pos_c = np.minimum(pos, len(self._keys) - 1)
            known = self._keys[pos_c] == uniq
            prior[known] = self._counts[pos_c[known]]
        cost = prior[inverse] + running_miss_counts(keys)
        totals = prior + np.bincount(inverse, minlength=len(uniq))
        merged = np.union1d(self._keys, uniq)
        counts = np.zeros(len(merged), dtype=np.int64)
        if len(self._keys):
            counts[np.searchsorted(merged, self._keys)] = self._counts
        counts[np.searchsorted(merged, uniq)] = totals
        self._keys = merged
        self._counts = counts
        return cost


def running_miss_counts(lines: AddressArray) -> IndexArray:
    """For each position, how many times its value has occurred so far
    (inclusive).  Vectorized: stable-sort groups equal lines, the rank
    within each group is the running count."""
    m = len(lines)
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=new_group[1:])
    positions = np.arange(m, dtype=np.int64)
    starts = np.maximum.accumulate(np.where(new_group, positions, 0))
    counts = np.empty(m, dtype=np.int64)
    counts[order] = positions - starts + 1
    return counts


class BatchedHierarchyEngine:
    """L1I filter stage + L2 policy stage, both on the batched engine."""

    def __init__(self, config: HierarchyConfig | None = None,
                 collapse_runs: bool = True,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None,
                 kernel_backend: str = "python",
                 compiled_provider: str | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.collapse_runs = collapse_runs
        #: Optional :class:`~emissary.telemetry.Telemetry`; each stage
        #: records into its own child registry, merged here with ``l1.``
        #: / ``l2.`` prefixes.
        self.telemetry = telemetry
        #: Optional :class:`~emissary.analysis.sanitizer.Sanitizer`,
        #: shared by both stage engines (one instance checks both levels).
        self.sanitizer = sanitizer
        #: Kernel backend for *both* stage engines ("python" or
        #: "compiled"); outcomes are bit-identical either way.  Validated
        #: by the stage :class:`~emissary.engine.BatchedEngine`\ s.
        self.kernel_backend = kernel_backend
        self.compiled_provider = compiled_provider

    def _stage_engine(self, config: CacheConfig,
                      telemetry: Telemetry | None,
                      num_cores: int = 1) -> BatchedEngine:
        return BatchedEngine(config, collapse_runs=self.collapse_runs,
                             telemetry=telemetry, sanitizer=self.sanitizer,
                             kernel_backend=self.kernel_backend,
                             compiled_provider=self.compiled_provider,
                             num_cores=num_cores)

    def run(self, addresses: AddressArray, policy: PolicySpec, seed: int = 0,
            keep_hits: bool = True) -> HierarchyResult:
        spec = require_policy_spec(policy, caller="BatchedHierarchyEngine.run")
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        l1_tel = Telemetry() if tel is not None else None
        l2_tel = Telemetry() if tel is not None else None
        n = len(addresses)
        start = time.perf_counter()
        addrs = np.ascontiguousarray(addresses, dtype=np.uint64)

        l1 = self._stage_engine(config.l1, l1_tel)
        with span("l1_stage"):
            l1_result = l1.run(addrs, PolicySpec(config.l1_policy), seed=seed,
                               keep_hits=True)

        with span("miss_extract"):
            miss_addrs = addrs[~l1_result.hits]
            miss_lines = miss_addrs >> np.uint64(config.l1.offset_bits)
            l1_miss_counts = running_miss_counts(miss_lines)

        l2 = self._stage_engine(config.l2, l2_tel)
        with span("l2_stage"):
            l2_result = l2.run(miss_addrs, spec, seed=seed, keep_hits=keep_hits,
                               cost=l1_miss_counts)
        l2_result.policy_stats.setdefault(
            "unique_l1_miss_lines", int(len(np.unique(miss_lines))))

        if not keep_hits:
            l1_result.hits = None
        elapsed = time.perf_counter() - start
        telemetry_payload = None
        if tel is not None:
            tel.merge_prefixed(l1_tel, "l1.")
            tel.merge_prefixed(l2_tel, "l2.")
            # The merged payload is the single canonical blob; drop the
            # per-stage copies so the serialized result stays compact.
            l1_result.telemetry = None
            l2_result.telemetry = None
            telemetry_payload = tel.to_dict()
        return HierarchyResult(policy=spec.name, n=n, l1=l1_result, l2=l2_result,
                               elapsed_s=elapsed, telemetry=telemetry_payload)

    def run_multicore(self, addresses: AddressArray, core_ids: CoreIdArray,
                      policy: PolicySpec, num_cores: int | None = None,
                      seed: int = 0,
                      keep_hits: bool = True) -> MultiCoreHierarchyResult:
        """Run N private L1I front-ends feeding one shared L2.

        ``core_ids`` gives, per access, which core issued it (the
        interleaved trace order *is* the arrival order at the shared
        L2).  The private L1Is are simulated core-virtualized in one
        batched engine (see :func:`_core_virtual_layout`); the combined
        miss stream — still in global order — then drives the shared L2
        with per-``(core, line)`` measured L1I miss counts on the cost
        channel and the issuing core on the core channel, so a
        partitioned-budget EMISSARY L2 can enforce per-core HP quotas.

        Interleaving defeats trace-order run collapse (consecutive
        accesses usually come from different cores), but each core's
        accesses land in its own bank of virtual sets.  So the L1
        engine's set-order fold (see :class:`~emissary.engine.
        BatchedEngine`) still finds each core's line repeats: on a 2:1
        two-core interleave about 8% of accesses reach the L1 kernel,
        against 68% after trace-order collapse alone.  The compiled
        backend applies only the trace-order collapse.
        """
        spec = require_policy_spec(
            policy, caller="BatchedHierarchyEngine.run_multicore")
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        l1_tel = Telemetry() if tel is not None else None
        l2_tel = Telemetry() if tel is not None else None
        n = len(addresses)
        start = time.perf_counter()
        addrs = np.ascontiguousarray(addresses, dtype=np.uint64)
        core, num_cores = _check_core_ids(core_ids, n, num_cores)
        core_bits, core_pad, v_l1 = _core_virtual_layout(config.l1, num_cores)
        offset_bits = config.l1.offset_bits

        # One trace-length buffer turns, in place, from lines into the
        # core-virtualized addresses the L1 stage reads, so no separate
        # line or virtual-line copy is live during that stage.
        vaddrs = addrs >> np.uint64(offset_bits)
        if n and core_bits and (
                int(vaddrs.max()) >> (64 - offset_bits - core_bits)):
            raise ValueError(
                f"address lines need more than {64 - offset_bits - core_bits} "
                f"bits; no headroom for {core_bits} core bits")
        vaddrs <<= np.uint64(core_bits)
        vaddrs |= core.view(np.uint64)  # ids are validated non-negative
        vaddrs <<= np.uint64(offset_bits)

        l1 = self._stage_engine(v_l1, l1_tel)
        with span("l1_stage"):
            l1_result = l1.run(vaddrs, PolicySpec(config.l1_policy),
                               seed=seed, keep_hits=True)

        with span("miss_extract"):
            miss_vlines = vaddrs[~l1_result.hits] >> np.uint64(offset_bits)
            del vaddrs
            miss_cores = (miss_vlines
                          & np.uint64(core_pad - 1)).astype(np.int64)
            miss_addrs = (miss_vlines >> np.uint64(core_bits)) \
                << np.uint64(offset_bits)
            # Per-(core, line) running counts: the virtual line *is* the
            # (core, line) key, so each private L1I's miss count for a
            # line advances independently.
            l1_miss_counts = running_miss_counts(miss_vlines)

        l2 = self._stage_engine(config.l2, l2_tel, num_cores=num_cores)
        with span("l2_stage"):
            l2_result = l2.run(miss_addrs, spec, seed=seed, keep_hits=True,
                               cost=l1_miss_counts, core=miss_cores)
        l2_result.policy_stats.setdefault(
            "unique_l1_miss_lines", int(len(np.unique(miss_vlines))))

        n_by_core = np.bincount(core, minlength=num_cores)
        l1_miss_by_core = np.bincount(miss_cores, minlength=num_cores)
        l2_miss_by_core = np.bincount(miss_cores[~l2_result.hits],
                                      minlength=num_cores)
        per_core = _per_core_stats(num_cores, n_by_core, l1_miss_by_core,
                                   l2_miss_by_core)

        if not keep_hits:
            l1_result.hits = None
            l2_result.hits = None
        elapsed = time.perf_counter() - start
        telemetry_payload = None
        if tel is not None:
            tel.merge_prefixed(l1_tel, "l1.")
            tel.merge_prefixed(l2_tel, "l2.")
            _record_per_core(tel, per_core)
            l1_result.telemetry = None
            l2_result.telemetry = None
            telemetry_payload = tel.to_dict()
        return MultiCoreHierarchyResult(
            policy=spec.name, n=n, l1=l1_result, l2=l2_result,
            elapsed_s=elapsed, telemetry=telemetry_payload,
            num_cores=num_cores, per_core=per_core)

    def simulate_stream(self, chunks: Iterable[AddressArray],
                        policy: PolicySpec, seed: int = 0,
                        keep_hits: bool = True,
                        chunk_bytes: int | None = DEFAULT_L2_CHUNK_BYTES
                        ) -> HierarchyResult:
        """Run the two-level hierarchy over a chunked trace in bounded memory.

        ``chunks`` is any iterable of ``uint64`` address arrays in trace
        order (e.g. a :class:`~emissary.trace_io.TraceSource`).  Both
        stages run as incremental :class:`~emissary.engine.EngineStream`\\ s:
        each resolved L1I chunk's miss lines flow into the L2 stream
        together with their running L1I miss counts, which carry across
        chunk boundaries in a per-line counter table.

        Because the L1I filters out most accesses, per-chunk miss arrays
        can be tiny; forwarding each one separately makes the L2 stage
        pay fixed dispatch overhead per sliver.  Miss lines are therefore
        buffered and forwarded only once ``chunk_bytes`` of them have
        accumulated (or at end of trace).  Pass ``chunk_bytes=None`` to
        forward every chunk's misses immediately.  Either way, L1/L2 hit
        vectors and per-level stats are bit-identical to :meth:`run` on
        the concatenated trace: the cost computation depends only on the
        order of the miss stream, not on where it is cut.
        """
        spec = require_policy_spec(
            policy, caller="BatchedHierarchyEngine.simulate_stream")
        if chunk_bytes is not None and chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive or None, "
                             f"got {chunk_bytes}")
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        l1_tel = Telemetry() if tel is not None else None
        l2_tel = Telemetry() if tel is not None else None
        start = time.perf_counter()

        l1_engine = self._stage_engine(config.l1, l1_tel)
        l2_engine = self._stage_engine(config.l2, l2_tel)
        l1_stream = l1_engine.stream(PolicySpec(config.l1_policy), seed=seed,
                                     keep_hits=keep_hits)
        l2_stream = l2_engine.stream(spec, seed=seed, keep_hits=keep_hits)

        offset_bits = np.uint64(config.l1.offset_bits)
        miss_counts = MissCountTable()
        pending: list[AddressArray] = []
        pending_bytes = 0

        def advance(miss_lines: AddressArray) -> None:
            """Extend the running per-line L1I miss counts and feed the
            resolved miss stream (with measured costs) into L2."""
            if len(miss_lines) == 0:
                return
            with span("miss_extract"):
                cost = miss_counts.advance(miss_lines)
            l2_stream.feed(miss_lines << offset_bits, cost=cost)

        def enqueue(miss_lines: AddressArray, flush: bool = False) -> None:
            """Buffer miss lines; forward to L2 once the coalescing
            budget fills (or unconditionally on flush)."""
            nonlocal pending_bytes
            if len(miss_lines):
                pending.append(miss_lines)
                pending_bytes += miss_lines.nbytes
            if pending and (flush or chunk_bytes is None
                            or pending_bytes >= chunk_bytes):
                batch = (pending[0] if len(pending) == 1
                         else np.concatenate(pending))
                pending.clear()
                pending_bytes = 0
                advance(batch)

        chunk_iter = iter(chunks)
        while True:
            with span("stream_ingest"):
                chunk = next(chunk_iter, None)
            if chunk is None:
                break
            _, miss_lines = l1_stream.feed(chunk)
            enqueue(miss_lines)
        _, tail_miss = l1_stream.flush()
        enqueue(tail_miss, flush=True)

        l1_result = l1_stream.finish()
        l2_result = l2_stream.finish()
        l2_result.policy_stats.setdefault("unique_l1_miss_lines",
                                          len(miss_counts))
        elapsed = time.perf_counter() - start
        telemetry_payload = None
        if tel is not None:
            tel.merge_prefixed(l1_tel, "l1.")
            tel.merge_prefixed(l2_tel, "l2.")
            l1_result.telemetry = None
            l2_result.telemetry = None
            telemetry_payload = tel.to_dict()
        return HierarchyResult(policy=spec.name, n=l1_result.n, l1=l1_result,
                               l2=l2_result, elapsed_s=elapsed,
                               telemetry=telemetry_payload)

    def simulate_stream_multicore(
            self, chunks: Iterable[tuple[AddressArray, CoreIdArray]],
            policy: PolicySpec, num_cores: int, seed: int = 0,
            keep_hits: bool = True,
            chunk_bytes: int | None = DEFAULT_L2_CHUNK_BYTES
            ) -> MultiCoreHierarchyResult:
        """Streamed N-core shared-L2 run in bounded memory.

        ``chunks`` yields ``(addresses, core_ids)`` pairs in interleaved
        trace order (e.g. :meth:`emissary.traces.InterleaveSpec.generate_chunks`).
        Same contract as :meth:`simulate_stream`: bit-identical to
        :meth:`run_multicore` on the concatenated trace for any chunk
        cuts, because the per-``(core, line)`` miss-count carry (keyed by
        virtual line in a :class:`MissCountTable`) and the L2 stream's
        pending-run carry are both cut-invariant.  ``num_cores`` must be
        given up front: the core-virtualized L1 geometry depends on it.
        """
        spec = require_policy_spec(
            policy, caller="BatchedHierarchyEngine.simulate_stream_multicore")
        if chunk_bytes is not None and chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive or None, "
                             f"got {chunk_bytes}")
        if num_cores is None:
            raise ValueError("simulate_stream_multicore needs an explicit "
                             "num_cores (the virtual L1 geometry is fixed "
                             "before the first chunk arrives)")
        _, num_cores = _check_core_ids(np.zeros(0, dtype=np.int64), 0,
                                       num_cores)
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        l1_tel = Telemetry() if tel is not None else None
        l2_tel = Telemetry() if tel is not None else None
        start = time.perf_counter()
        core_bits, core_pad, v_l1 = _core_virtual_layout(config.l1, num_cores)
        offset_bits = config.l1.offset_bits
        line_cap_bits = 64 - offset_bits - core_bits

        l1_engine = self._stage_engine(v_l1, l1_tel)
        l2_engine = self._stage_engine(config.l2, l2_tel,
                                       num_cores=num_cores)
        l1_stream = l1_engine.stream(PolicySpec(config.l1_policy), seed=seed,
                                     keep_hits=keep_hits)
        l2_stream = l2_engine.stream(spec, seed=seed, keep_hits=keep_hits)

        miss_counts = MissCountTable()
        pending: list[AddressArray] = []
        pending_bytes = 0
        n_by_core = np.zeros(num_cores, dtype=np.int64)
        l2_miss_by_core = np.zeros(num_cores, dtype=np.int64)

        def take_l2_misses() -> None:
            """Fold the L2 stream's latest per-miss core attribution into
            the fairness tally (valid right after a feed or flush)."""
            nonlocal l2_miss_by_core
            attributed = l2_stream.last_miss_cores
            if attributed is not None and len(attributed):
                l2_miss_by_core += np.bincount(attributed,
                                               minlength=num_cores)

        def advance(miss_vlines: AddressArray) -> None:
            if len(miss_vlines) == 0:
                return
            with span("miss_extract"):
                cost = miss_counts.advance(miss_vlines)
                miss_cores = (miss_vlines
                              & np.uint64(core_pad - 1)).astype(np.int64)
                miss_addrs = (miss_vlines >> np.uint64(core_bits)) \
                    << np.uint64(offset_bits)
            l2_stream.feed(miss_addrs, cost=cost, core=miss_cores)
            take_l2_misses()

        def enqueue(miss_vlines: AddressArray, flush: bool = False) -> None:
            nonlocal pending_bytes
            if len(miss_vlines):
                pending.append(miss_vlines)
                pending_bytes += miss_vlines.nbytes
            if pending and (flush or chunk_bytes is None
                            or pending_bytes >= chunk_bytes):
                batch = (pending[0] if len(pending) == 1
                         else np.concatenate(pending))
                pending.clear()
                pending_bytes = 0
                advance(batch)

        chunk_iter = iter(chunks)
        while True:
            with span("stream_ingest"):
                pair = next(chunk_iter, None)
            if pair is None:
                break
            addr_chunk, core_chunk = pair
            addr_chunk = np.ascontiguousarray(addr_chunk, dtype=np.uint64)
            core_chunk, _ = _check_core_ids(core_chunk, len(addr_chunk),
                                            num_cores)
            # Lines -> core-virtualized addresses in one buffer, in place
            # (as in :meth:`run_multicore`).
            vaddrs = addr_chunk >> np.uint64(offset_bits)
            if len(vaddrs) and core_bits and (
                    int(vaddrs.max()) >> line_cap_bits):
                raise ValueError(
                    f"address lines need more than {line_cap_bits} bits; "
                    f"no headroom for {core_bits} core bits")
            n_by_core += np.bincount(core_chunk, minlength=num_cores)
            vaddrs <<= np.uint64(core_bits)
            vaddrs |= core_chunk.view(np.uint64)
            vaddrs <<= np.uint64(offset_bits)
            _, miss_vlines = l1_stream.feed(vaddrs)
            del vaddrs
            enqueue(miss_vlines)
        _, tail_miss = l1_stream.flush()
        enqueue(tail_miss, flush=True)
        l2_stream.flush()
        take_l2_misses()

        l1_result = l1_stream.finish()
        l2_result = l2_stream.finish()
        l2_result.policy_stats.setdefault("unique_l1_miss_lines",
                                          len(miss_counts))
        # Per-core L1I misses come straight off the compacted table: the
        # key's low bits are the core, the count is that (core, line)'s
        # total misses.
        key_cores = (miss_counts.keys
                     & np.uint64(core_pad - 1)).astype(np.int64)
        l1_miss_by_core = np.bincount(
            key_cores, weights=miss_counts.counts,
            minlength=num_cores).astype(np.int64)
        per_core = _per_core_stats(num_cores, n_by_core, l1_miss_by_core,
                                   l2_miss_by_core)
        elapsed = time.perf_counter() - start
        telemetry_payload = None
        if tel is not None:
            tel.merge_prefixed(l1_tel, "l1.")
            tel.merge_prefixed(l2_tel, "l2.")
            _record_per_core(tel, per_core)
            l1_result.telemetry = None
            l2_result.telemetry = None
            telemetry_payload = tel.to_dict()
        return MultiCoreHierarchyResult(
            policy=spec.name, n=l1_result.n, l1=l1_result, l2=l2_result,
            elapsed_s=elapsed, telemetry=telemetry_payload,
            num_cores=num_cores, per_core=per_core)


class HierarchyReferenceEngine:
    """Naive per-access oracle: L1I lookup, miss counting, and L2 access
    interleaved in trace order, one Python step per fetch."""

    def __init__(self, config: HierarchyConfig | None = None,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.telemetry = telemetry
        self.sanitizer = sanitizer

    def run(self, addresses: AddressArray, policy: PolicySpec, seed: int = 0,
            keep_hits: bool = True) -> HierarchyResult:
        spec = require_policy_spec(policy, caller="HierarchyReferenceEngine.run")
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        l1c, l2c = config.l1, config.l2
        n = len(addresses)
        start = time.perf_counter()

        l1_impl = make_naive(config.l1_policy, l1c.num_sets, l1c.ways)
        l2_impl = make_naive(spec.name, l2c.num_sets, l2c.ways, **spec.params)
        if self.sanitizer is not None:
            self.sanitizer.attach_naive(l1_impl)
            self.sanitizer.attach_naive(l2_impl)
        rng = (np.random.default_rng(seed)
               if policy_needs_rng(spec.name) else None)

        l1_tags = [[None] * l1c.ways for _ in range(l1c.num_sets)]
        l2_tags = [[None] * l2c.ways for _ in range(l2c.num_sets)]
        miss_counts: dict[int, int] = {}

        l1_hits = np.empty(n, dtype=bool)
        l2_hits_list = []
        l1_set_mask = l1c.num_sets - 1
        l2_set_mask = l2c.num_sets - 1
        offset_bits = l1c.offset_bits  # == l2c.offset_bits (validated)
        j = 0  # L2 access index (position in the miss stream)

        # Generic per-(set, way) lifetime accounting, per level, matching
        # the names the instrumented batched kernels produce.
        track = tel is not None
        l1_line_hits = [0] * (l1c.num_sets * l1c.ways) if track else None
        l2_line_hits = [0] * (l2c.num_sets * l2c.ways) if track else None
        l1_fills = l1_evictions = l1_dead = 0
        l2_fills = l2_evictions = l2_dead = 0

        with span("naive_loop"):
            for i, addr in enumerate(addresses.tolist()):
                line = addr >> offset_bits
                s1 = line & l1_set_mask
                t1 = line >> l1c.set_bits
                set_tags = l1_tags[s1]
                way = -1
                for w in range(l1c.ways):
                    if set_tags[w] == t1:
                        way = w
                        break
                if way >= 0:
                    l1_impl.on_hit(s1, way, i)
                    if track:
                        l1_line_hits[s1 * l1c.ways + way] += 1
                    l1_hits[i] = True
                    continue
                # L1I miss: fill L1, bump the line's measured miss count, go to L2.
                l1_hits[i] = False
                for w in range(l1c.ways):
                    if set_tags[w] is None:
                        way = w
                        break
                else:
                    way = l1_impl.find_victim(s1, 0.0)
                    l1_impl.replaced(s1, way)
                    if track:
                        victim_hits = l1_line_hits[s1 * l1c.ways + way]
                        tel.observe("l1.line_hits", victim_hits)
                        l1_evictions += 1
                        if victim_hits == 0:
                            l1_dead += 1
                set_tags[way] = t1
                l1_impl.on_fill(s1, way, i, 0.0)
                if track:
                    l1_line_hits[s1 * l1c.ways + way] = 0
                    l1_fills += 1

                cost_i = miss_counts.get(line, 0) + 1
                miss_counts[line] = cost_i
                u_j = rng.random() if rng is not None else 0.0

                s2 = line & l2_set_mask
                t2 = line >> l2c.set_bits
                set_tags2 = l2_tags[s2]
                way = -1
                for w in range(l2c.ways):
                    if set_tags2[w] == t2:
                        way = w
                        break
                if way >= 0:
                    l2_impl.on_hit(s2, way, j)
                    if track:
                        l2_line_hits[s2 * l2c.ways + way] += 1
                    l2_hits_list.append(True)
                else:
                    for w in range(l2c.ways):
                        if set_tags2[w] is None:
                            way = w
                            break
                    else:
                        way = l2_impl.find_victim(s2, u_j)
                        l2_impl.replaced(s2, way)
                        if track:
                            victim_hits = l2_line_hits[s2 * l2c.ways + way]
                            tel.observe("l2.line_hits", victim_hits)
                            l2_evictions += 1
                            if victim_hits == 0:
                                l2_dead += 1
                    set_tags2[way] = t2
                    l2_impl.on_fill(s2, way, j, u_j, cost_i)
                    if track:
                        l2_line_hits[s2 * l2c.ways + way] = 0
                        l2_fills += 1
                    l2_hits_list.append(False)
                j += 1

        elapsed = time.perf_counter() - start
        l1_hit_count = int(l1_hits.sum())
        l2_hits = np.array(l2_hits_list, dtype=bool)
        l2_hit_count = int(l2_hits.sum())
        if track:
            for prefix, fills, evictions, dead, cfg, tags_table, hits_table in (
                    ("l1.", l1_fills, l1_evictions, l1_dead, l1c, l1_tags,
                     l1_line_hits),
                    ("l2.", l2_fills, l2_evictions, l2_dead, l2c, l2_tags,
                     l2_line_hits)):
                tel.inc(prefix + "fills", fills)
                tel.inc(prefix + "evictions", evictions)
                tel.inc(prefix + "dead_on_fill", dead)
                for s in range(cfg.num_sets):
                    for w in range(cfg.ways):
                        if tags_table[s][w] is not None:
                            tel.observe(prefix + "resident_line_hits",
                                        hits_table[s * cfg.ways + w])
            tel.inc("l1.hits", l1_hit_count)
            tel.inc("l1.misses", n - l1_hit_count)
            tel.inc("l2.hits", l2_hit_count)
            tel.inc("l2.misses", j - l2_hit_count)
            tel.inc("engine.accesses", n)
            l1_impl.telemetry_finalize(tel, prefix="l1.")
            l2_impl.telemetry_finalize(tel, prefix="l2.")
        l1_result = SimResult(policy=config.l1_policy, n=n, hit_count=l1_hit_count,
                              miss_count=n - l1_hit_count, elapsed_s=elapsed,
                              hits=l1_hits if keep_hits else None,
                              policy_stats=l1_impl.extra_stats())
        l2_result = SimResult(policy=spec.name, n=j, hit_count=l2_hit_count,
                              miss_count=j - l2_hit_count, elapsed_s=elapsed,
                              hits=l2_hits if keep_hits else None,
                              policy_stats={**l2_impl.extra_stats(),
                                            "unique_l1_miss_lines": len(miss_counts)})
        return HierarchyResult(policy=spec.name, n=n, l1=l1_result, l2=l2_result,
                               elapsed_s=elapsed,
                               telemetry=tel.to_dict() if tel is not None else None)

    def run_multicore(self, addresses: AddressArray, core_ids: CoreIdArray,
                      policy: PolicySpec, num_cores: int | None = None,
                      seed: int = 0,
                      keep_hits: bool = True) -> MultiCoreHierarchyResult:
        """Per-access multi-core oracle: N genuinely separate naive L1I
        instances (one per core) in front of one shared naive L2, walked
        in interleaved trace order — the ground truth the
        core-virtualized batched path must reproduce bit for bit.
        """
        spec = require_policy_spec(
            policy, caller="HierarchyReferenceEngine.run_multicore")
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        l1c, l2c = config.l1, config.l2
        n = len(addresses)
        core, num_cores = _check_core_ids(core_ids, n, num_cores)
        core_list = core.tolist()
        start = time.perf_counter()

        l1_impls = [make_naive(config.l1_policy, l1c.num_sets, l1c.ways)
                    for _ in range(num_cores)]
        extra = {"num_cores": num_cores} if spec.name == "emissary" else {}
        l2_impl = make_naive(spec.name, l2c.num_sets, l2c.ways,
                             **spec.params, **extra)
        if self.sanitizer is not None:
            for impl in l1_impls:
                self.sanitizer.attach_naive(impl)
            self.sanitizer.attach_naive(l2_impl)
        rng = (np.random.default_rng(seed)
               if policy_needs_rng(spec.name) else None)

        l1_tags = [[[None] * l1c.ways for _ in range(l1c.num_sets)]
                   for _ in range(num_cores)]
        l2_tags = [[None] * l2c.ways for _ in range(l2c.num_sets)]
        miss_counts: dict[tuple[int, int], int] = {}

        l1_hits = np.empty(n, dtype=bool)
        l2_hits_list = []
        l2_miss_cores = []
        l1_set_mask = l1c.num_sets - 1
        l2_set_mask = l2c.num_sets - 1
        offset_bits = l1c.offset_bits  # == l2c.offset_bits (validated)
        j = 0  # L2 access index (position in the combined miss stream)
        n_by_core = [0] * num_cores
        l1_miss_by_core = [0] * num_cores

        track = tel is not None
        l1_line_hits = ([[0] * (l1c.num_sets * l1c.ways)
                         for _ in range(num_cores)] if track else None)
        l2_line_hits = [0] * (l2c.num_sets * l2c.ways) if track else None
        l1_fills = l1_evictions = l1_dead = 0
        l2_fills = l2_evictions = l2_dead = 0

        with span("naive_loop"):
            for i, addr in enumerate(addresses.tolist()):
                c = core_list[i]
                n_by_core[c] += 1
                line = addr >> offset_bits
                s1 = line & l1_set_mask
                t1 = line >> l1c.set_bits
                l1_impl = l1_impls[c]
                set_tags = l1_tags[c][s1]
                way = -1
                for w in range(l1c.ways):
                    if set_tags[w] == t1:
                        way = w
                        break
                if way >= 0:
                    l1_impl.on_hit(s1, way, i)
                    if track:
                        l1_line_hits[c][s1 * l1c.ways + way] += 1
                    l1_hits[i] = True
                    continue
                # Private L1I miss: fill that core's L1I, bump its
                # per-(core, line) miss count, go to the shared L2.
                l1_hits[i] = False
                l1_miss_by_core[c] += 1
                for w in range(l1c.ways):
                    if set_tags[w] is None:
                        way = w
                        break
                else:
                    way = l1_impl.find_victim(s1, 0.0)
                    l1_impl.replaced(s1, way)
                    if track:
                        victim_hits = l1_line_hits[c][s1 * l1c.ways + way]
                        tel.observe("l1.line_hits", victim_hits)
                        l1_evictions += 1
                        if victim_hits == 0:
                            l1_dead += 1
                set_tags[way] = t1
                l1_impl.on_fill(s1, way, i, 0.0)
                if track:
                    l1_line_hits[c][s1 * l1c.ways + way] = 0
                    l1_fills += 1

                cost_i = miss_counts.get((c, line), 0) + 1
                miss_counts[(c, line)] = cost_i
                u_j = rng.random() if rng is not None else 0.0

                s2 = line & l2_set_mask
                t2 = line >> l2c.set_bits
                set_tags2 = l2_tags[s2]
                way = -1
                for w in range(l2c.ways):
                    if set_tags2[w] == t2:
                        way = w
                        break
                if way >= 0:
                    l2_impl.on_hit(s2, way, j)
                    if track:
                        l2_line_hits[s2 * l2c.ways + way] += 1
                    l2_hits_list.append(True)
                else:
                    for w in range(l2c.ways):
                        if set_tags2[w] is None:
                            way = w
                            break
                    else:
                        way = l2_impl.find_victim(s2, u_j)
                        l2_impl.replaced(s2, way)
                        if track:
                            victim_hits = l2_line_hits[s2 * l2c.ways + way]
                            tel.observe("l2.line_hits", victim_hits)
                            l2_evictions += 1
                            if victim_hits == 0:
                                l2_dead += 1
                    set_tags2[way] = t2
                    l2_impl.on_fill(s2, way, j, u_j, cost_i, c)
                    if track:
                        l2_line_hits[s2 * l2c.ways + way] = 0
                        l2_fills += 1
                    l2_hits_list.append(False)
                    l2_miss_cores.append(c)
                j += 1

        elapsed = time.perf_counter() - start
        l1_hit_count = int(l1_hits.sum())
        l2_hits = np.array(l2_hits_list, dtype=bool)
        l2_hit_count = int(l2_hits.sum())
        l2_miss_by_core = np.bincount(
            np.array(l2_miss_cores, dtype=np.int64), minlength=num_cores)
        per_core = _per_core_stats(num_cores,
                                   np.array(n_by_core, dtype=np.int64),
                                   np.array(l1_miss_by_core, dtype=np.int64),
                                   l2_miss_by_core)
        if track:
            tel.inc("l1.fills", l1_fills)
            tel.inc("l1.evictions", l1_evictions)
            tel.inc("l1.dead_on_fill", l1_dead)
            for c in range(num_cores):
                for s in range(l1c.num_sets):
                    for w in range(l1c.ways):
                        if l1_tags[c][s][w] is not None:
                            tel.observe("l1.resident_line_hits",
                                        l1_line_hits[c][s * l1c.ways + w])
            tel.inc("l2.fills", l2_fills)
            tel.inc("l2.evictions", l2_evictions)
            tel.inc("l2.dead_on_fill", l2_dead)
            for s in range(l2c.num_sets):
                for w in range(l2c.ways):
                    if l2_tags[s][w] is not None:
                        tel.observe("l2.resident_line_hits",
                                    l2_line_hits[s * l2c.ways + w])
            tel.inc("l1.hits", l1_hit_count)
            tel.inc("l1.misses", n - l1_hit_count)
            tel.inc("l2.hits", l2_hit_count)
            tel.inc("l2.misses", j - l2_hit_count)
            tel.inc("engine.accesses", n)
            for impl in l1_impls:
                impl.telemetry_finalize(tel, prefix="l1.")
            l2_impl.telemetry_finalize(tel, prefix="l2.")
            _record_per_core(tel, per_core)
        l1_result = SimResult(policy=config.l1_policy, n=n,
                              hit_count=l1_hit_count,
                              miss_count=n - l1_hit_count, elapsed_s=elapsed,
                              hits=l1_hits if keep_hits else None,
                              # The L1I policy is deterministic (LRU or
                              # SRRIP) and keeps no statistics, so any
                              # core's instance speaks for all of them.
                              policy_stats=l1_impls[0].extra_stats())
        l2_result = SimResult(policy=spec.name, n=j, hit_count=l2_hit_count,
                              miss_count=j - l2_hit_count, elapsed_s=elapsed,
                              hits=l2_hits if keep_hits else None,
                              policy_stats={**l2_impl.extra_stats(),
                                            "unique_l1_miss_lines":
                                            len(miss_counts)})
        return MultiCoreHierarchyResult(
            policy=spec.name, n=n, l1=l1_result, l2=l2_result,
            elapsed_s=elapsed,
            telemetry=tel.to_dict() if tel is not None else None,
            num_cores=num_cores, per_core=per_core)


def simulate_multicore(addresses: AddressArray, core_ids: CoreIdArray,
                       policy: PolicySpec,
                       config: HierarchyConfig | None = None,
                       num_cores: int | None = None, seed: int = 0,
                       engine: str = "batched") -> MultiCoreHierarchyResult:
    """Convenience wrapper: run the N-core shared-L2 hierarchy on any
    engine."""
    if engine == "batched":
        return BatchedHierarchyEngine(config).run_multicore(
            addresses, core_ids, policy, num_cores=num_cores, seed=seed)
    if engine == "compiled":
        return BatchedHierarchyEngine(config, kernel_backend="compiled") \
            .run_multicore(addresses, core_ids, policy, num_cores=num_cores,
                           seed=seed)
    if engine == "reference":
        return HierarchyReferenceEngine(config).run_multicore(
            addresses, core_ids, policy, num_cores=num_cores, seed=seed)
    raise ValueError(f"unknown engine {engine!r} "
                     f"(expected 'batched', 'compiled', or 'reference')")


def simulate_hierarchy(addresses: AddressArray, policy: PolicySpec,
                       config: HierarchyConfig | None = None, seed: int = 0,
                       engine: str = "batched") -> HierarchyResult:
    """Convenience wrapper: run the two-level hierarchy on any engine."""
    if engine == "batched":
        return BatchedHierarchyEngine(config).run(addresses, policy, seed=seed)
    if engine == "compiled":
        return BatchedHierarchyEngine(config, kernel_backend="compiled").run(
            addresses, policy, seed=seed)
    if engine == "reference":
        return HierarchyReferenceEngine(config).run(addresses, policy, seed=seed)
    raise ValueError(f"unknown engine {engine!r} "
                     f"(expected 'batched', 'compiled', or 'reference')")
