"""Synthetic instruction-stream trace generators and trace specs.

Each generator returns a NumPy ``uint64`` array of byte addresses that
mimics a class of L2 instruction-access behaviour, so the simulator is
exercisable without external trace files.  Generators are deterministic
for a given :class:`TraceSpec` (kind, size, params, seed), which is also
what the sweep runner uses as the content key for its results cache.

That makes a generator's output bits part of the cache's identity, so
the generators keep one draw-order contract: each trace seeds one NumPy
``Generator`` and consumes it positionally.  NumPy's draws are
positional — ``random(a)`` then ``random(b)`` equals ``random(a + b)``,
and a bounded ``integers`` call with array bounds draws each element
from the same Lemire bounded-integer stream as one scalar call per
element — so a generator may draw in blocks of any size, scalar or
broadcast, without changing a bit.  The chunked twins and the vectorised ``call`` builder
rely on this; ``tests/test_trace_digests.py`` pins the output digests
that guard it.

Beyond the synthetic kinds, a spec with ``kind="file"`` describes a
trace stored on disk (ChampSim-style binary, gzip variant, or
``.npy``/``.npz`` — see :mod:`emissary.trace_io`).  Its content identity
is the file's SHA-256, carried in ``params["sha256"]``; the location on
disk travels in the advisory ``params["_path"]`` field, which the
results cache excludes from the content key, so moving or renaming a
trace file never invalidates cached results.

:class:`TraceSpec` is genuinely immutable: ``params`` is canonicalized
into a :class:`FrozenParams` mapping at construction, so a spec is
hashable and its results-cache key cannot be changed in place after the
spec has been handed out.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from emissary.wire import check_int, check_known_keys
from numpy.typing import NDArray

#: Byte-granular instruction fetch addresses — the currency every
#: generator produces and every engine consumes.
AddressArray = NDArray[np.uint64]

LINE_BYTES = 64
INSTR_BYTES = 4

#: Spec kind for file-backed traces (read via :mod:`emissary.trace_io`).
FILE_KIND = "file"


def _rng(seed: int) -> np.random.Generator:
    """Single Generator per trace, seeded once (never reseeded per call)."""
    return np.random.default_rng(seed)


#: Generator parameters that count accesses, lines, callees, instructions
#: or phases: each must be a positive int.
_COUNT_PARAMS = frozenset({"n", "footprint_lines", "caller_lines",
                           "num_callees", "callee_lines", "call_period",
                           "phases"})


def _check_params(**params: Any) -> None:
    """Validate generator parameters by name, one rule per name.

    Count params must be positive ints, ``base`` a non-negative int and
    ``branch_noise`` a finite probability in [0, 1].  A wrong type
    raises ``TypeError``, a bad value ``ValueError``; other names pass
    through unchecked.
    """
    for name, value in params.items():
        if name == "branch_noise":
            if (isinstance(value, (bool, np.bool_))
                    or not isinstance(value, numbers.Real)):
                raise TypeError(f"branch_noise must be a real number, got "
                                f"{type(value).__name__} {value!r}")
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"branch_noise must be in [0, 1], "
                                 f"got {value!r}")
        elif name == "base":
            if check_int(value, name) < 0:
                raise ValueError(f"base must be non-negative, got {value!r}")
        elif name in _COUNT_PARAMS:
            if check_int(value, name) <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


def _loop_addresses(start: int, k: int, span: int, base: int) -> AddressArray:
    """Byte addresses ``base + INSTR_BYTES * ((start + arange(k)) % span)``
    without a 64-bit modulo: one period rotated to ``start``, scaled and
    offset, then tiled into exactly ``k`` entries."""
    r = start % span
    period = np.arange(r, r + min(span, k), dtype=np.uint64)
    period[span - r:] -= np.uint64(span)
    period *= np.uint64(INSTR_BYTES)
    period += np.uint64(base)
    if len(period) == k:
        return period
    seq = np.empty(k, dtype=np.uint64)
    whole = k - k % span
    seq[:whole].reshape(-1, span)[...] = period
    seq[whole:] = period[:k - whole]
    return seq


def looping_code(
    n: int,
    footprint_lines: int = 4096,
    branch_noise: float = 0.02,
    base: int = 0x400000,
    seed: int = 0,
) -> AddressArray:
    """A hot loop sweeping a fixed code footprint.

    The PC walks sequentially through ``footprint_lines`` cache lines and
    wraps, with a small probability per access of branching to a random
    line inside the footprint (taken branches / indirect calls).

    The one-chunk case of :func:`looping_code_chunks`.
    """
    _check_params(n=n, footprint_lines=footprint_lines,
                  branch_noise=branch_noise, base=base)
    return next(_loop_chunks(n, n, footprint_lines, branch_noise, base, seed))


def working_set_shift(
    n: int,
    phases: int = 4,
    footprint_lines: int = 4096,
    branch_noise: float = 0.02,
    base: int = 0x400000,
    seed: int = 0,
) -> AddressArray:
    """Phased execution: the footprint relocates every ``n // phases`` accesses.

    Models a program moving between program regions (init, steady state,
    teardown), which defeats policies that over-protect stale lines.
    """
    _check_params(n=n, phases=phases, footprint_lines=footprint_lines,
                  branch_noise=branch_noise, base=base)
    rng = _rng(seed)
    chunks = []
    per_phase = max(1, n // phases)
    produced = 0
    phase = 0
    while produced < n:
        take = min(per_phase, n - produced)
        phase_base = base + phase * footprint_lines * LINE_BYTES * 2
        chunks.append(
            looping_code(
                take,
                footprint_lines=footprint_lines,
                branch_noise=branch_noise,
                base=phase_base,
                seed=int(rng.integers(0, 2**31)),
            )
        )
        produced += take
        phase += 1
    return np.concatenate(chunks)[:n]


def _call_blocks(n: int, block: int, caller_lines: int, num_callees: int,
                 callee_lines: int, call_period: int, base: int,
                 seed: int) -> Iterator[AddressArray]:
    """:func:`call_heavy`'s addresses as consecutive blocks of about
    ``block`` accesses (the last block ends exactly at ``n``).

    The trace alternates caller runs of ``call_period`` instructions
    with callee bursts.  Each block draws ``k`` (callee, burst) pairs in
    one broadcast ``integers`` call, in the order the per-call scalar
    draws would make them, lays out the ``2k`` segment lengths (caller
    run, burst, caller run, ...) and their origins, cuts them at ``n``
    and fills the addresses in instruction units in one pass: each
    segment's origin, less its start, repeated over the segment, plus
    the position.  Caller origins are reduced into the caller region
    per segment; a caller run no longer than the region crosses its end
    at most once, so only the tails of the runs that cross it move back
    by the region's size (a longer run takes a remainder pass over the
    caller accesses).  A block that ends before ``n`` has used every
    pair it drew; pairs drawn past ``n`` in the last block are never
    used, so over-drawing changes no address.  The caller PC carries
    across blocks.
    """
    rng = _rng(seed)
    instrs_per_line = LINE_BYTES // INSTR_BYTES
    caller_span = caller_lines * instrs_per_line
    callee_span = callee_lines * instrs_per_line
    # The callee region starts 4x the caller region past ``base``.
    callee_origin = caller_lines * instrs_per_line * 4
    low = np.array([0, 4], dtype=np.int64)
    high = np.array([num_callees, callee_span + 1], dtype=np.int64)
    mean_pair = call_period + (4 + callee_span) / 2
    caller_pc = 0
    produced = 0
    while produced < n:
        remaining = n - produced
        # ~5% over the expected need: a short draw costs one more block.
        k = int(min(block, remaining) * 1.05 / mean_pair) + 1
        draws = rng.integers(np.tile(low, k), np.tile(high, k))
        lens = np.full(2 * k, call_period, dtype=np.int64)
        lens[1::2] = draws[1::2]
        origins = np.empty(2 * k, dtype=np.int64)
        caller = np.arange(caller_pc, caller_pc + call_period * k,
                           call_period, dtype=np.int64)
        np.remainder(caller, caller_span, out=origins[0::2])
        origins[1::2] = callee_origin + callee_span * draws[0::2]
        ends = np.cumsum(lens)
        starts = ends - lens  # before the cut below shortens lens[-1]
        size = min(int(ends[-1]), remaining)
        segs = int(np.searchsorted(ends, size)) + 1
        lens, origins, starts = lens[:segs], origins[:segs], starts[:segs]
        lens[-1] = size - starts[-1]
        units = np.repeat(origins - starts, lens)
        units += np.arange(size, dtype=np.int64)
        if call_period <= caller_span:
            run_lens = lens[0::2]
            over = origins[0::2] + run_lens - caller_span
            crossing = np.flatnonzero(over > 0)
            if len(crossing):
                tail = over[crossing]
                first = starts[0::2][crossing] + run_lens[crossing] - tail
                first -= np.cumsum(tail) - tail
                wrapped = np.repeat(first, tail)
                wrapped += np.arange(len(wrapped), dtype=np.int64)
                units[wrapped] -= caller_span
        else:
            is_caller = np.repeat(np.arange(segs, dtype=np.int64) % 2 == 0,
                                  lens)
            np.remainder(units, caller_span, out=units, where=is_caller)
        addresses = units.view(np.uint64)
        addresses *= np.uint64(INSTR_BYTES)
        addresses += np.uint64(base)
        yield addresses
        del units, addresses  # before the next block is built
        produced += size
        caller_pc = (caller_pc + k * call_period) % caller_span


def call_heavy(
    n: int,
    caller_lines: int = 1024,
    num_callees: int = 64,
    callee_lines: int = 32,
    call_period: int = 24,
    base: int = 0x400000,
    seed: int = 0,
) -> AddressArray:
    """Caller code interleaved with bursts into many small callees.

    A main region executes sequentially; every ``call_period`` instructions
    it calls a randomly chosen callee (a short sequential run in a distant
    region) and returns.  This produces the call-dense interleavings that
    EMISSARY targets: many discontinuities, each touching a few lines.

    Draw order: call ``j`` draws its callee index from ``[0,
    num_callees)`` and then its burst length from ``[4, callee_lines *
    16]``, so the RNG stream is callee, burst, callee, burst, ...  The
    builder draws those pairs in broadcast blocks, which NumPy serves
    from the same stream as one scalar call per draw; the output is
    bit-identical to a per-call loop, and the digests in
    ``tests/test_trace_digests.py`` pin it.  Blocks of one chunk budget
    are filled into the output in turn, so the generator's temporaries
    never grow with ``n``.
    """
    _check_params(n=n, caller_lines=caller_lines, num_callees=num_callees,
                  callee_lines=callee_lines, call_period=call_period,
                  base=base)
    out = np.empty(n, dtype=np.uint64)
    lo = 0
    for block in _call_blocks(n, _chunk_step(DEFAULT_CHUNK_BYTES),
                              caller_lines, num_callees, callee_lines,
                              call_period, base, seed):
        out[lo:lo + len(block)] = block
        lo += len(block)
        del block
    return out


GENERATORS: dict[str, Callable[..., AddressArray]] = {
    "loop": looping_code,
    "shift": working_set_shift,
    "call": call_heavy,
}

#: The one chunk budget: bytes of addresses per piece wherever a trace
#: is generated, read or simulated in pieces (chunked generation, trace
#: file readers, streamed requests, the hierarchy engine's L1 pieces and
#: its L2 coalescing).  1 MiB is 128Ki accesses, so one piece and its
#: chunk-sized temporaries stay resident in a per-core L2 cache of a
#: few MiB; larger pieces run each pass over the piece out of DRAM.
DEFAULT_CHUNK_BYTES = 1 << 20

_ADDR_ITEMSIZE = np.dtype(np.uint64).itemsize


def _chunk_step(chunk_bytes: int) -> int:
    if chunk_bytes <= 0:
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    return max(1, chunk_bytes // _ADDR_ITEMSIZE)


def _emit_chunks(segments: Iterator[AddressArray],
                 step: int) -> Iterator[AddressArray]:
    """Regroup a stream of small arrays into exactly ``step``-element
    chunks (last one shorter); concatenation order is preserved."""
    buf: list[AddressArray] = []
    size = 0
    for seg in segments:
        if len(seg) == 0:
            continue
        buf.append(seg)
        size += len(seg)
        while size >= step:
            arr = buf[0] if len(buf) == 1 else np.concatenate(buf)
            yield arr[:step]
            rest = arr[step:]
            buf = [rest] if len(rest) else []
            size = len(rest)
    if size:
        yield buf[0] if len(buf) == 1 else np.concatenate(buf)


#: Noise uniforms drawn per block, into one buffer that a generator
#: reuses for every block of every chunk: the draws are positional, so
#: blocks give the same bits as one draw of a chunk's, without 8 B per
#: access.  Fresh per-block allocations cost peak RSS in the
#: ``multicore-2c`` benchmark (512 KiB blocks read about 7% over
#: whole-chunk draws, 32 KiB blocks 2%); a reused 128 KiB buffer is
#: allocated once.
_NOISE_BLOCK = 1 << 14


def _noise_positions(rng: np.random.Generator, k: int, branch_noise: float,
                     u: NDArray[np.float64],
                     below: NDArray[np.bool_]) -> NDArray[np.intp]:
    """Positions among the next ``k`` accesses whose uniform from ``rng``
    falls below ``branch_noise``, drawn block by block into ``u`` and
    compared into ``below`` (scratch buffers of ``_NOISE_BLOCK``)."""
    parts = []
    for lo in range(0, k, _NOISE_BLOCK):
        m = min(_NOISE_BLOCK, k - lo)
        rng.random(out=u[:m])
        at = np.flatnonzero(np.less(u[:m], branch_noise, out=below[:m]))
        at += lo
        parts.append(at)
    return np.concatenate(parts)


def _loop_chunks(n: int, step: int, footprint_lines: int,
                 branch_noise: float, base: int,
                 seed: int) -> Iterator[AddressArray]:
    """The body of :func:`looping_code` and :func:`looping_code_chunks`:
    validated parameters, ``step`` accesses per chunk."""
    span = footprint_lines * (LINE_BYTES // INSTR_BYTES)
    rng_jump = _rng(seed)
    rng_jump.bit_generator.advance(int(n))  # past the n noise uniforms
    rng_noise = _rng(seed)
    u = np.empty(min(_NOISE_BLOCK, n), dtype=np.float64)
    below = np.empty(len(u), dtype=bool)
    for start in range(0, n, step):
        k = min(step, n - start)
        seq = _loop_addresses(start, k, span, base)
        at = _noise_positions(rng_noise, k, branch_noise, u, below)
        jumps = rng_jump.integers(0, span, size=len(at)).astype(np.uint64)
        jumps *= np.uint64(INSTR_BYTES)
        jumps += np.uint64(base)
        seq[at] = jumps
        yield seq


def looping_code_chunks(
    n: int,
    footprint_lines: int = 4096,
    branch_noise: float = 0.02,
    base: int = 0x400000,
    seed: int = 0,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Iterator[AddressArray]:
    """Chunked :func:`looping_code`: bit-identical concatenation, peak
    memory bounded by ``chunk_bytes`` instead of the trace size.

    :func:`looping_code` consumes its RNG in two phases — all ``n``
    noise uniforms first, then one bounded integer per noise hit.  Both
    NumPy draws are positional (``random(a)`` then ``random(b)`` equals
    ``random(a + b)``, and likewise for bounded ``integers``), so two
    generators reproduce the stream chunk by chunk: one replays the
    noise uniforms in place, the other is pre-advanced past all of them
    and then serves each chunk's jump targets.  Each float64 uniform is
    one 64-bit PCG64 draw, so ``advance(n)`` jumps past all ``n`` in
    O(log n) instead of drawing and discarding them.
    """
    _check_params(n=n, footprint_lines=footprint_lines,
                  branch_noise=branch_noise, base=base)
    yield from _loop_chunks(n, _chunk_step(chunk_bytes), footprint_lines,
                            branch_noise, base, seed)


def working_set_shift_chunks(
    n: int,
    phases: int = 4,
    footprint_lines: int = 4096,
    branch_noise: float = 0.02,
    base: int = 0x400000,
    seed: int = 0,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Iterator[AddressArray]:
    """Chunked :func:`working_set_shift`: per-phase seeds are drawn in
    the same order as the one-shot generator, each phase streams through
    :func:`looping_code_chunks`, and phase boundaries are regrouped so
    every emitted chunk except the last fills the whole budget."""
    _check_params(n=n, phases=phases, footprint_lines=footprint_lines,
                  branch_noise=branch_noise, base=base)
    step = _chunk_step(chunk_bytes)  # validate before the first yield
    rng = _rng(seed)
    per_phase = max(1, n // phases)

    def segments() -> Iterator[AddressArray]:
        produced = 0
        phase = 0
        while produced < n:
            take = min(per_phase, n - produced)
            phase_base = base + phase * footprint_lines * LINE_BYTES * 2
            phase_seed = int(rng.integers(0, 2**31))
            yield from looping_code_chunks(
                take, footprint_lines=footprint_lines,
                branch_noise=branch_noise, base=phase_base, seed=phase_seed,
                chunk_bytes=chunk_bytes)
            produced += take
            phase += 1

    yield from _emit_chunks(segments(), step)


def call_heavy_chunks(
    n: int,
    caller_lines: int = 1024,
    num_callees: int = 64,
    callee_lines: int = 32,
    call_period: int = 24,
    base: int = 0x400000,
    seed: int = 0,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Iterator[AddressArray]:
    """Chunked :func:`call_heavy`: the same block builder, with blocks
    sized from the chunk budget instead of ``n`` (identical RNG
    consumption order), regrouped into budget-sized chunks."""
    _check_params(n=n, caller_lines=caller_lines, num_callees=num_callees,
                  callee_lines=callee_lines, call_period=call_period,
                  base=base)
    step = _chunk_step(chunk_bytes)
    yield from _emit_chunks(
        _call_blocks(n, step, caller_lines, num_callees, callee_lines,
                     call_period, base, seed), step)


CHUNK_GENERATORS: dict[str, Callable[..., Iterator[AddressArray]]] = {
    "loop": looping_code_chunks,
    "shift": working_set_shift_chunks,
    "call": call_heavy_chunks,
}


def _freeze_value(value: Any) -> Any:
    """Recursively convert ``value`` into an immutable, hashable form."""
    if isinstance(value, FrozenParams):
        return value
    if isinstance(value, Mapping):
        return FrozenParams(value)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    if isinstance(value, (str, bytes, int, float, bool, type(None))):
        return value
    raise TypeError(f"trace/policy parameter values must be JSON-like scalars, "
                    f"mappings, or sequences; got {type(value).__name__}")


def _thaw_value(value: Any) -> Any:
    if isinstance(value, FrozenParams):
        return value.thaw()
    if isinstance(value, tuple):
        return [_thaw_value(v) for v in value]
    return value


class FrozenParams(Mapping):
    """Canonical immutable parameter mapping (sorted keys, frozen values).

    Used by :class:`TraceSpec` and :class:`emissary.api.PolicySpec` so
    the "frozen" dataclasses actually are: the mapping is hashable (the
    spec can key dicts/sets) and cannot be edited in place, which would
    silently change the spec's results-cache key after construction.
    Compares equal to any mapping with the same items, so existing
    ``spec.params == {...}`` call sites keep working.
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, mapping: Mapping[str, Any] = ()) -> None:
        data = {}
        for key, value in dict(mapping).items():
            if not isinstance(key, str):
                raise TypeError(f"parameter names must be strings, got "
                                f"{type(key).__name__}")
            data[key] = _freeze_value(value)
        self._data = {key: data[key] for key in sorted(data)}
        self._hash = hash(tuple(self._data.items()))

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> Any:
        if isinstance(other, Mapping):
            return dict(self._data) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FrozenParams({dict(self._data)!r})"

    def thaw(self) -> dict[str, Any]:
        """Plain (mutable, JSON-ready) dict copy with values recursively thawed."""
        return {key: _thaw_value(value) for key, value in self._data.items()}


@dataclass(frozen=True)
class TraceSpec:
    """Declarative, immutable, hashable description of a trace.

    Synthetic kinds (``loop`` / ``shift`` / ``call``) generate on demand;
    ``kind="file"`` loads a trace file via :mod:`emissary.trace_io` —
    build those with :func:`emissary.trace_io.file_spec`, which fills in
    the content identity (``sha256``, ``format``, record count) and the
    advisory ``_path``.

    Construction validates what generation would otherwise reject late:
    ``n`` and ``seed`` must be ints (``TypeError``; NumPy integers are
    normalised to ``int``), and a synthetic spec needs ``n > 0`` and
    generator params that pass the generators' own checks.
    """

    kind: str
    n: int
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        known = sorted(GENERATORS) + [FILE_KIND]
        if self.kind not in known:
            raise ValueError(f"unknown trace kind {self.kind!r}; known: {known}")
        object.__setattr__(self, "n", check_int(self.n, "TraceSpec.n"))
        object.__setattr__(self, "seed", check_int(self.seed, "TraceSpec.seed"))
        object.__setattr__(self, "params", FrozenParams(self.params))
        if self.kind != FILE_KIND:
            _check_params(n=self.n, **self.params)
        else:
            sha = self.params.get("sha256")
            if not isinstance(sha, str) or len(sha) != 64:
                raise ValueError(
                    "file trace specs need params['sha256'] (the 64-hex-digit "
                    "content hash); build them with emissary.trace_io.file_spec()")

    def generate(self) -> AddressArray:
        if self.kind == FILE_KIND:
            from emissary import trace_io

            return trace_io.load_spec_addresses(self)
        return GENERATORS[self.kind](self.n, seed=self.seed, **self.params)

    def generate_chunks(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES
                        ) -> Iterator[AddressArray]:
        """Stream the trace as address chunks of at most ``chunk_bytes``.

        Concatenating the chunks is bit-identical to :meth:`generate`,
        but peak memory is bounded by the chunk budget rather than the
        trace size — synthetic sweeps at large ``n`` no longer need the
        whole array resident.  File-backed specs read incrementally via
        :mod:`emissary.trace_io`.
        """
        if self.kind == FILE_KIND:
            from emissary import trace_io

            return trace_io.spec_source(self, chunk_bytes=chunk_bytes)
        return CHUNK_GENERATORS[self.kind](self.n, seed=self.seed,
                                           chunk_bytes=chunk_bytes,
                                           **self.params)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "n": self.n, "seed": self.seed,
                "params": self.params.thaw()}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TraceSpec":
        check_known_keys(d, ("kind", "n", "seed", "params"), "TraceSpec")
        return cls(kind=d["kind"], n=d["n"], seed=d.get("seed", 0),
                   params=dict(d.get("params", {})))


#: Per-access core ids accompanying an interleaved multi-core trace.
CoreIdArray = NDArray[np.int64]

#: Hard cap on front-ends per :class:`InterleaveSpec`.  Keeps the
#: (core, line) key packing (`line << core_bits | core`) comfortably
#: inside 64 bits and matches any real shared-L2 fan-in.
MAX_CORES = 64


class _CoreFeed:
    """Buffered puller over one core's chunk iterator: ``take(k)``
    returns exactly the core's next ``k`` addresses (fewer at end of
    stream), regardless of where the underlying generator cut chunks."""

    def __init__(self, chunks: Iterator[AddressArray]) -> None:
        self._chunks = iter(chunks)
        self._buf: list[AddressArray] = []
        self._have = 0
        self._done = False

    def take(self, k: int) -> AddressArray:
        while self._have < k and not self._done:
            chunk = next(self._chunks, None)
            if chunk is None:
                self._done = True
            elif len(chunk):
                self._buf.append(chunk)
                self._have += len(chunk)
        k = min(k, self._have)
        parts: list[AddressArray] = []
        need = k
        while need:
            head = self._buf[0]
            if len(head) <= need:
                parts.append(self._buf.pop(0))
                need -= len(head)
            else:
                parts.append(head[:need])
                self._buf[0] = head[need:]
                need = 0
        self._have -= k
        if not parts:
            return np.empty(0, dtype=np.uint64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _tile(out: CoreIdArray, period: CoreIdArray) -> None:
    """Fill ``out`` (a whole number of periods long) with ``period``
    repeated: one period, then contiguous copies of the filled prefix,
    doubling it each time."""
    k = len(period)
    out[:k] = period
    while k < len(out):
        step = min(k, len(out) - k)
        out[k:k + step] = out[:step]
        k += step


#: Smallest interleave weight whose columns are copied as one 2-D slice
#: rather than one column at a time.  On 128Ki-access blocks the column
#: copies win at weights 1-3 (weights 2:1, 150 against 300-480 us) and
#: lose from 4 on (weights 8:8, 360 against 165 us; 256:256, 1.1 ms
#: against 80 us), timed on a 2-vCPU x86-64 VM.
_SLAB_MIN_WEIGHT = 4


def _interleave(parts: Sequence[AddressArray], weights: Sequence[int]
                ) -> tuple[AddressArray, CoreIdArray]:
    """Weighted round-robin merge of per-core address arrays.

    Round ``r`` takes core ``i``'s accesses ``[r * w_i, (r + 1) * w_i)``,
    cores in index order; a core that cannot fill a round contributes
    what it has left and drops out.  While a set of cores is active, the
    ``R`` full rounds they can all supply form one ``(R, sum(w))`` block
    of the output, and each core's ``R * w_i`` accesses go into its
    columns; then one partial round is written, which drops at least one
    core.  So the loop runs at most once per core.

    A core of weight below :data:`_SLAB_MIN_WEIGHT` has its columns
    copied one at a time: a 2-D slice copy of so few columns steps
    through rows a couple of elements at a time, 1.4-3x slower on a
    cache-resident block.  Wider cores take one 2-D slice copy, which
    costs one call however large the weight.  The block's core ids, one
    round's ids repeated, are filled by doubling contiguous copies.
    """
    counts = [len(part) for part in parts]
    total = sum(counts)
    addresses = np.empty(total, dtype=np.uint64)
    core_ids: CoreIdArray = np.empty(total, dtype=np.int64)
    active = [i for i, count in enumerate(counts) if count]
    pos = 0
    rounds_done = 0
    while active:
        widths = [weights[i] for i in active]
        rounds = min(counts[i] // weights[i] for i in active) - rounds_done
        if rounds:
            end = pos + rounds * sum(widths)
            block = addresses[pos:end].reshape(rounds, -1)
            col = 0
            for i, w in zip(active, widths):
                lo = rounds_done * w
                src = parts[i][lo:lo + rounds * w]
                if w < _SLAB_MIN_WEIGHT:
                    for j in range(w):
                        block[:, col + j] = src[j::w]
                else:
                    block[:, col:col + w] = src.reshape(rounds, w)
                col += w
            _tile(core_ids[pos:end], np.repeat(active, widths))
            pos = end
            rounds_done += rounds
        still_active = []
        for i, w in zip(active, widths):
            lo = rounds_done * w
            take = min(w, counts[i] - lo)
            addresses[pos:pos + take] = parts[i][lo:lo + take]
            core_ids[pos:pos + take] = i
            pos += take
            if counts[i] - lo > w:
                still_active.append(i)
        active = still_active
        rounds_done += 1
    return addresses, core_ids


@dataclass(frozen=True)
class InterleaveSpec:
    """Deterministic weighted round-robin interleaving of per-core traces.

    Describes N L1I front-ends feeding one shared L2: core ``i`` runs its
    own :class:`TraceSpec` and contributes ``weights[i]`` consecutive
    accesses per round (plain round-robin when weights are omitted).  A
    core that exhausts its trace drops out of later rounds; the
    interleaved stream always contains every access of every core, so
    ``n == sum(core.n)``.

    Like :class:`TraceSpec` it is frozen, hashable, and wire-encodable —
    ``to_dict`` / ``from_dict`` round-trips, and the encoding doubles as
    the results-cache content key for multi-core requests.
    """

    cores: tuple[TraceSpec, ...]
    weights: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cores = tuple(self.cores)
        if not cores:
            raise ValueError("InterleaveSpec needs at least one core trace")
        if len(cores) > MAX_CORES:
            raise ValueError(f"at most {MAX_CORES} cores supported, "
                             f"got {len(cores)}")
        for spec in cores:
            if not isinstance(spec, TraceSpec):
                raise TypeError(f"cores must be TraceSpec instances, "
                                f"got {type(spec).__name__}")
        weights = tuple(self.weights) or (1,) * len(cores)
        if len(weights) != len(cores):
            raise ValueError(f"got {len(weights)} weights for "
                             f"{len(cores)} cores")
        weights = tuple(check_int(w, "InterleaveSpec.weights") for w in weights)
        for w in weights:
            if w <= 0:
                raise ValueError(f"weights must be positive ints, got {w!r}")
        object.__setattr__(self, "cores", cores)
        object.__setattr__(self, "weights", weights)

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def n(self) -> int:
        return sum(spec.n for spec in self.cores)

    def generate(self) -> tuple[AddressArray, CoreIdArray]:
        """(interleaved byte addresses, aligned per-access core ids)."""
        return _interleave([spec.generate() for spec in self.cores],
                           self.weights)

    def generate_chunks(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES
                        ) -> Iterator[tuple[AddressArray, CoreIdArray]]:
        """Stream the interleave as ``(addresses, core_ids)`` chunk pairs.

        Blocks cover a whole number of rounds, so interleaving each block
        on its own reproduces the global schedule restricted to that
        block: concatenating the chunks is bit-identical to
        :meth:`generate`.  Peak memory is one block (~``chunk_bytes``)
        plus each core's own chunk buffer — bounded by the budget times
        ``num_cores + 1``, never by the trace size.
        """
        step = _chunk_step(chunk_bytes)
        rounds = max(1, step // sum(self.weights))
        feeds = [_CoreFeed(spec.generate_chunks(chunk_bytes))
                 for spec in self.cores]
        while True:
            parts = [feed.take(rounds * self.weights[i])
                     for i, feed in enumerate(feeds)]
            if not any(len(part) for part in parts):
                return
            yield _interleave(parts, self.weights)

    def to_dict(self) -> dict[str, Any]:
        return {"cores": [spec.to_dict() for spec in self.cores],
                "weights": list(self.weights)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "InterleaveSpec":
        check_known_keys(d, ("cores", "weights"), "InterleaveSpec")
        return cls(cores=tuple(TraceSpec.from_dict(c) for c in d["cores"]),
                   weights=tuple(d.get("weights", ())))


def trace_spec_from_dict(d: Mapping[str, Any]) -> "TraceSpec | InterleaveSpec":
    """Decode a trace wire dict, dispatching on shape: a ``cores`` key
    means a multi-core :class:`InterleaveSpec`, else a :class:`TraceSpec`."""
    if "cores" in d:
        return InterleaveSpec.from_dict(d)
    return TraceSpec.from_dict(d)
