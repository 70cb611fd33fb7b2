"""Trace file I/O: ChampSim-style binary, gzip variants, ``.npy``/``.npz``.

EMISSARY's evaluation lives on real instruction streams, and the
trace-driven simulator ecosystem (ChampSim, MANA, the BSC front-end
studies) exchanges them as packed binary instruction records.  This
module reads and writes those files and exposes every format as a
:class:`TraceSource`: an iterable of fixed-size ``uint64`` byte-address
chunks under a configurable memory budget, which the engines'
``simulate_stream`` entry points consume so multi-GB traces run in
bounded memory.

Formats
-------

``champsim``
    Packed 64-byte instruction records (little-endian), matching
    ChampSim's ``trace_instr_format``: ``ip`` (u64), ``is_branch`` /
    ``branch_taken`` (u8), 2 destination + 4 source register ids (u8),
    2 destination + 4 source memory operands (u64).  Only ``ip`` — the
    instruction fetch address — drives an instruction-cache simulation;
    the writer zero-fills the rest.
``champsim.gz`` / ``champsim.xz``
    The same records gzip- or xz-compressed (``.gz`` / ``.xz`` suffix —
    ChampSim traces in the wild ship as ``.trace.xz``), decompressed
    incrementally while streaming.  One codec table of zlib and lzma
    (de)compressor objects serves reader and writer.  Written ``.gz``
    files are deflate level 6 with mtime 0 and no file name, so the same
    addresses always give the same bytes; ``.xz`` files use liblzma's
    defaults.  Concatenated members or streams read as one trace, with
    zero padding between them skipped.
``npy``
    A 1-D unsigned integer array of byte addresses, memory-mapped so
    chunks are sliced straight off the file without loading it.
``npz``
    The same array inside a (compressed) NumPy archive under the key
    ``"addresses"``.  The zip member is read as an incrementally
    decompressing stream (its ``.npy`` header parsed off the stream,
    element bytes pulled per chunk), so ``.npz`` traces stream in
    bounded memory like every other format.

File-backed trace specs
-----------------------

:func:`file_spec` turns a trace file into a
:class:`~emissary.traces.TraceSpec` with ``kind="file"``.  The spec's
content identity — and therefore its results-cache key — is the file's
SHA-256 (``params["sha256"]``); the on-disk location travels in the
advisory ``params["_path"]``, which the cache excludes from the key, so
a moved or renamed trace file keeps every cached result.

Errors
------

A malformed trace file raises ``ValueError`` naming the path, whether
it is iterated or counted: a ChampSim payload that ends inside a
record; in ``.gz``/``.xz`` files, any decoder error (a bad header, a
corrupt body, a failed CRC-32, length or xz check), a file that ends
inside a member or stream, and non-zero trailing data that is no
member or stream; an ``.npy``/``.npz`` array that is not 1-D integer
or holds a negative address; an ``.npz`` member cut short.  An empty
``.gz``/``.xz`` file is an empty trace.  The CLI prints such an error
as one ``error: ...`` line on stderr and exits with status 2.

CLI
---

::

    python -m emissary.trace_io inspect trace.champsim.gz
    python -m emissary.trace_io convert trace.champsim trace.npy
    python -m emissary.trace_io convert synth:call out.champsim.gz \
        --n 1000000 --seed 42 --param num_callees=128
"""

from __future__ import annotations

import argparse
import hashlib
import lzma
import sys
import zipfile
import zlib
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any, BinaryIO, NamedTuple

import numpy as np
from numpy.typing import NDArray

from emissary.traces import (DEFAULT_CHUNK_BYTES, FILE_KIND, GENERATORS,
                             LINE_BYTES, AddressArray, TraceSpec)

#: ChampSim's packed ``trace_instr_format`` (64 bytes per instruction).
CHAMPSIM_DTYPE = np.dtype([
    ("ip", "<u8"),
    ("is_branch", "u1"),
    ("branch_taken", "u1"),
    ("destination_registers", "u1", (2,)),
    ("source_registers", "u1", (4,)),
    ("destination_memory", "<u8", (2,)),
    ("source_memory", "<u8", (4,)),
])
assert CHAMPSIM_DTYPE.itemsize == 64

FORMATS = ("champsim", "champsim.gz", "champsim.xz", "npy", "npz")

#: Raw (uncompressed) ChampSim record suffixes.
_RAW_SUFFIXES = (".champsim", ".bin", ".trace")

#: zlib window bits selecting the gzip wrapper (header, CRC-32, ISIZE).
_GZIP_WBITS = 16 + zlib.MAX_WBITS

#: Deflate level of written ``.gz`` traces: zlib's default.  On a
#: 500k-record synthetic trace, level 9 (what ``gzip.open`` writes) took
#: about 5x as long and its file was no smaller; both read equally fast.
_GZ_LEVEL = 6

#: Compressed bytes the reader takes from the file at a time.
_BLOCK_BYTES = 64 << 10

#: Records the writer hands the compressor at a time (1 MiB).
_WRITE_PIECE_RECORDS = 1 << 14


class _Codec(NamedTuple):
    compressor: Callable[[], Any]
    decompressor: Callable[[], Any]
    error: type[Exception]
    unit: str  # what one compressed piece of a file is called


#: ChampSim compression codec -> (de)compressor factories and error type.
_CODECS = {
    "gz": _Codec(lambda: zlib.compressobj(_GZ_LEVEL, zlib.DEFLATED,
                                          _GZIP_WBITS),
                 lambda: zlib.decompressobj(_GZIP_WBITS), zlib.error,
                 "member"),
    "xz": _Codec(lzma.LZMACompressor, lzma.LZMADecompressor, lzma.LZMAError,
                 "stream"),
}


def detect_format(path: str | Path) -> str:
    """Infer the trace format from the file name."""
    name = str(path).lower()
    if name.endswith(".npy"):
        return "npy"
    if name.endswith(".npz"):
        return "npz"
    if name.endswith(".gz"):
        return "champsim.gz"
    if name.endswith(".xz"):
        return "champsim.xz"
    if name.endswith(_RAW_SUFFIXES):
        return "champsim"
    raise ValueError(
        f"cannot infer trace format from {str(path)!r}; expected a suffix in "
        f"{_RAW_SUFFIXES} (raw ChampSim records), .gz (gzip ChampSim), "
        f".xz (xz ChampSim), .npy, or .npz")


def file_sha256(path: str | Path) -> str:
    """Streaming SHA-256 of the file's on-disk bytes (the content key)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


#: Per-process verification memo: (resolved path, size, mtime_ns) -> sha256.
#: A sweep worker simulating many configs against one trace file pays the
#: full-file hash once, not once per config; any rewrite of the file
#: changes size or mtime and forces a re-hash.
_SHA_MEMO: dict[tuple, str] = {}


def verified_sha256(path: str | Path) -> str:
    """:func:`file_sha256` with a per-process (path, size, mtime) memo."""
    resolved = Path(path).resolve()
    stat = resolved.stat()
    key = (str(resolved), stat.st_size, stat.st_mtime_ns)
    cached = _SHA_MEMO.get(key)
    if cached is None:
        cached = _SHA_MEMO[key] = file_sha256(resolved)
    return cached


class TraceSource:
    """One trace file, iterable as bounded ``uint64`` address chunks.

    ``chunk_bytes`` is the memory budget for a single yielded chunk (the
    engines hold at most one chunk plus carried state at a time).  Every
    format fills it alike: each chunk but the last holds exactly
    ``max(1, chunk_bytes // 8)`` addresses, and the last the rest.  Every
    yielded array is a fresh contiguous ``uint64`` buffer — safe to hold
    across iterations.
    """

    format: str = "?"

    def __init__(self, path: str | Path,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        if chunk_bytes < 8:
            raise ValueError("chunk_bytes must be at least 8 (one address)")
        self.path = Path(path)
        self.chunk_bytes = chunk_bytes

    def __iter__(self) -> Iterator[AddressArray]:
        raise NotImplementedError

    def count(self) -> int:
        """Number of accesses in the trace (may scan the file once)."""
        raise NotImplementedError

    def read_all(self) -> AddressArray:
        """The whole trace in memory (chunks concatenated)."""
        chunks = list(self)
        if not chunks:
            return np.zeros(0, dtype=np.uint64)
        return np.concatenate(chunks)


class _Decompressed:
    """The payload of a ``.gz`` or ``.xz`` file, inflated incrementally.

    The file is read in compressed blocks of ``_BLOCK_BYTES``, and each
    decompressor call is capped at the bytes still wanted, so the reader
    holds one compressed block plus the output being returned.  A member
    (gz) or stream (xz) that ends hands its unused input to a fresh
    decompressor, after skipping zero padding, so concatenated members
    and streams read as one payload.  zlib in gzip mode checks each
    member's header CRC (when present), CRC-32 and length; liblzma checks
    each stream's integrity check.  Every failure — a decoder error,
    trailing non-zero data that is no member, a file that ends inside a
    member — raises ``ValueError`` naming the path.  An empty file is an
    empty payload.
    """

    def __init__(self, path: Path, compression: str) -> None:
        self._path = path
        self._name = compression
        self._codec = _CODECS[compression]
        self._dec = self._codec.decompressor()
        self._member = 1
        self._input = b""        # compressed bytes not yet fed to _dec
        self._started = False    # _dec has been fed part of a member
        self._padding = False    # after a member: skip zero bytes
        self._fh = open(path, "rb")

    def __enter__(self) -> _Decompressed:
        return self

    def __exit__(self, *exc: object) -> None:
        self._fh.close()

    def read(self, size: int) -> bytes:
        """``size`` payload bytes, or fewer only at the end of the file."""
        parts = []
        got = 0
        while got < size:
            part = self._part(size - got)
            if not part:
                break
            parts.append(part)
            got += len(part)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def _part(self, limit: int) -> bytes:
        """The next 1 to ``limit`` payload bytes; ``b""`` at a clean end."""
        while True:
            if self._padding and self._input:
                self._input = self._input.lstrip(b"\0")
                self._padding = not self._input
            if self._input or self._started:
                # With no input left this still drains output the
                # decompressor holds back from an earlier capped call.
                out = self._decompress(limit)
                if out:
                    return out
                if self._input:  # the input after a member that ended
                    continue
            block = self._fh.read(_BLOCK_BYTES)
            if not block:
                if self._started:
                    raise ValueError(
                        f"{self._path}: truncated {self._name} data — the "
                        f"file ends inside {self._name} {self._codec.unit} "
                        f"{self._member}")
                return b""
            self._input = block

    def _decompress(self, limit: int) -> bytes:
        dec = self._dec
        try:
            out = dec.decompress(self._input, limit)
        except self._codec.error as exc:
            raise ValueError(
                f"{self._path}: corrupt {self._name} data in "
                f"{self._codec.unit} {self._member}: {exc}") from None
        if dec.eof:
            # zlib may leave the bytes past the member in unconsumed_tail
            # as well as unused_data: continue from unused_data alone.
            self._input = dec.unused_data
            self._dec = self._codec.decompressor()
            self._member += 1
            self._started = False
            self._padding = True
        else:
            # liblzma keeps unread input itself; zlib hands it back.
            self._input = getattr(dec, "unconsumed_tail", b"")
            self._started = True
        return out


class ChampSimSource(TraceSource):
    """Raw, gzip- or xz-compressed packed instruction records -> fetch
    addresses.

    ``compression`` is ``"gz"``, ``"xz"``, or None (raw); by default it
    is inferred from the file suffix.  The legacy boolean ``compressed``
    keyword still selects gzip.

    Records are read and decoded in pieces of at most
    ``max(1, chunk_bytes // 64)`` records, each piece's ``ip`` field
    copied straight into the current chunk's preallocated address
    buffer, so the resident set is one address chunk plus one record
    piece.  A trailing partial record raises ``ValueError``.
    """

    def __init__(self, path: str | Path,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 compression: str | None = None,
                 compressed: bool | None = None) -> None:
        super().__init__(path, chunk_bytes)
        if compression is None:
            if compressed is not None:
                compression = "gz" if compressed else None
            else:
                name = str(path).lower()
                if name.endswith(".gz"):
                    compression = "gz"
                elif name.endswith(".xz"):
                    compression = "xz"
        elif compression not in _CODECS:
            raise ValueError(f"unknown compression {compression!r}; "
                             f"known: {sorted(_CODECS)} or None")
        self.compression = compression
        self.compressed = compression is not None
        self.format = f"champsim.{compression}" if compression else "champsim"

    def _open(self) -> BinaryIO | _Decompressed:
        if self.compression is not None:
            return _Decompressed(self.path, self.compression)
        return open(self.path, "rb")

    def __iter__(self) -> Iterator[AddressArray]:
        record_bytes = CHAMPSIM_DTYPE.itemsize
        per_chunk = max(1, self.chunk_bytes // 8)
        piece = max(1, self.chunk_bytes // record_bytes)
        with self._open() as fh:
            while True:
                chunk = np.empty(per_chunk, dtype=np.uint64)
                filled = 0
                while filled < per_chunk:
                    want = min(piece, per_chunk - filled)
                    buf = fh.read(want * record_bytes)
                    if len(buf) % record_bytes:
                        raise ValueError(
                            f"{self.path}: truncated ChampSim trace — trailing "
                            f"{len(buf) % record_bytes} bytes do not form a "
                            f"{record_bytes}-byte record")
                    got = len(buf) // record_bytes
                    chunk[filled:filled + got] = np.frombuffer(
                        buf, dtype=CHAMPSIM_DTYPE)["ip"]
                    filled += got
                    if got < want:  # end of file
                        break
                if filled:
                    yield chunk[:filled]
                if filled < per_chunk:
                    return

    def count(self) -> int:
        record_bytes = CHAMPSIM_DTYPE.itemsize
        if not self.compressed:
            size = self.path.stat().st_size
            if size % record_bytes:
                raise ValueError(f"{self.path}: size {size} is not a multiple "
                                 f"of the {record_bytes}-byte record")
            return size // record_bytes
        # Compressed: the payload size is only knowable by decompressing.
        total = 0
        with self._open() as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                total += len(block)
        if total % record_bytes:
            raise ValueError(f"{self.path}: decompressed size {total} is not "
                             f"a multiple of the {record_bytes}-byte record")
        return total // record_bytes


def _as_addresses(arr: NDArray[Any], path: Path, offset: int) -> AddressArray:
    """``arr`` as contiguous ``uint64`` addresses.  A signed array must
    hold no negative value, which the cast would wrap silently to a huge
    address; ``offset`` is the index of ``arr[0]`` in the file's array."""
    if arr.dtype.kind == "i" and len(arr) and arr.min() < 0:
        index = int(np.argmax(arr < 0))
        raise ValueError(f"{path}: negative address {int(arr[index])} at "
                         f"index {offset + index}")
    return np.ascontiguousarray(arr, dtype=np.uint64)


class NpySource(TraceSource):
    """``.npy`` address array, memory-mapped and sliced per chunk."""

    format = "npy"

    def _mmap(self) -> AddressArray:
        arr = np.load(self.path, mmap_mode="r")
        if arr.ndim != 1 or arr.dtype.kind not in "ui":
            raise ValueError(f"{self.path}: expected a 1-D unsigned/integer "
                             f"address array, got {arr.dtype} {arr.shape}")
        return arr

    def __iter__(self) -> Iterator[AddressArray]:
        arr = self._mmap()
        step = max(1, self.chunk_bytes // 8)
        for lo in range(0, len(arr), step):
            yield _as_addresses(arr[lo:lo + step], self.path, lo)

    def count(self) -> int:
        return int(len(self._mmap()))


class NpzSource(TraceSource):
    """``.npz`` archive holding the address array under ``"addresses"``.

    Zip members cannot be memory-mapped, but they *can* be read as an
    incrementally-decompressing stream: the member's ``.npy`` header is
    parsed off the stream, then element bytes are pulled chunk by chunk,
    so the resident set is bounded by ``chunk_bytes`` — the archive is
    never materialized, however large the trace.
    """

    format = "npz"

    def _member_name(self, zf: zipfile.ZipFile) -> str:
        names = zf.namelist()
        if "addresses.npy" in names:
            return "addresses.npy"
        if len(names) != 1:
            raise ValueError(
                f"{self.path}: expected an 'addresses' array (or a "
                f"single-array archive), found {sorted(names)}")
        return names[0]

    def _read_header(self, fh: Any) -> tuple[int, np.dtype]:
        """Parse the member's ``.npy`` header; returns (count, dtype)."""
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        else:
            raise ValueError(f"{self.path}: unsupported .npy format version "
                             f"{version} inside the archive")
        if len(shape) != 1 or dtype.kind not in "ui" or dtype.hasobject:
            raise ValueError(f"{self.path}: expected a 1-D unsigned/integer "
                             f"address array, got {dtype} {shape}")
        return int(shape[0]), dtype

    def __iter__(self) -> Iterator[AddressArray]:
        with zipfile.ZipFile(self.path) as zf:
            with zf.open(self._member_name(zf)) as fh:
                total, dtype = self._read_header(fh)
                itemsize = dtype.itemsize
                per_chunk = max(1, self.chunk_bytes // max(itemsize, 8))
                remaining = total
                while remaining > 0:
                    take = min(per_chunk, remaining)
                    buf = fh.read(take * itemsize)
                    if len(buf) != take * itemsize:
                        raise ValueError(
                            f"{self.path}: truncated archive member — expected "
                            f"{take * itemsize} bytes, got {len(buf)}")
                    arr = np.frombuffer(buf, dtype=dtype)
                    yield _as_addresses(arr, self.path, total - remaining)
                    remaining -= take

    def count(self) -> int:
        with zipfile.ZipFile(self.path) as zf:
            with zf.open(self._member_name(zf)) as fh:
                total, _ = self._read_header(fh)
        return total


def open_trace(path: str | Path, chunk_bytes: int = DEFAULT_CHUNK_BYTES,
               format: str | None = None) -> TraceSource:
    """Open a trace file as a chunked :class:`TraceSource`."""
    fmt = format or detect_format(path)
    if fmt == "champsim":
        return ChampSimSource(path, chunk_bytes, compression=None,
                              compressed=False)
    if fmt == "champsim.gz":
        return ChampSimSource(path, chunk_bytes, compression="gz")
    if fmt == "champsim.xz":
        return ChampSimSource(path, chunk_bytes, compression="xz")
    if fmt == "npy":
        return NpySource(path, chunk_bytes)
    if fmt == "npz":
        return NpzSource(path, chunk_bytes)
    raise ValueError(f"unknown trace format {fmt!r}; known: {FORMATS}")


# -- writers ---------------------------------------------------------------


def _write_champsim(path: str | Path, chunks: Iterable[AddressArray],
                    compression: str | None) -> int:
    """Stream ``chunks`` out as ChampSim records, ``_WRITE_PIECE_RECORDS``
    at a time through one reused zero-filled record buffer (only ``ip``
    is ever written), each piece handed to the file or the compressor as
    a buffer."""
    records = np.zeros(_WRITE_PIECE_RECORDS, dtype=CHAMPSIM_DTYPE)
    ips = records["ip"]
    compressor = (_CODECS[compression].compressor() if compression
                  else None)
    written = 0
    with open(path, "wb") as fh:
        for chunk in chunks:
            for lo in range(0, len(chunk), _WRITE_PIECE_RECORDS):
                piece = chunk[lo:lo + _WRITE_PIECE_RECORDS]
                ips[:len(piece)] = piece
                out = records[:len(piece)]
                fh.write(out if compressor is None
                         else compressor.compress(out))
            written += len(chunk)
        if compressor is not None:
            fh.write(compressor.flush())
    return written


def write_trace(path: str | Path, chunks: Iterable[AddressArray],
                format: str | None = None) -> int:
    """Write address chunks to ``path`` (format from suffix unless given).

    ChampSim formats stream chunk by chunk; ``npy``/``npz`` buffer the
    full array (NumPy's writers are not incremental).  Returns the
    number of addresses written.
    """
    fmt = format or detect_format(path)
    if isinstance(chunks, np.ndarray):
        chunks = [chunks]
    if fmt in ("champsim", "champsim.gz", "champsim.xz"):
        return _write_champsim(path, chunks, fmt.partition(".")[2] or None)
    buffered = [np.ascontiguousarray(c, dtype=np.uint64) for c in chunks]
    addresses = (np.concatenate(buffered) if buffered
                 else np.zeros(0, dtype=np.uint64))
    if fmt == "npy":
        np.save(path, addresses)
    elif fmt == "npz":
        np.savez_compressed(path, addresses=addresses)
    else:
        raise ValueError(f"unknown trace format {fmt!r}; known: {FORMATS}")
    return len(addresses)


def convert(src: str | Path | TraceSource, dst: str | Path,
            chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> int:
    """Convert a trace file (or an opened source) to another format."""
    source = src if isinstance(src, TraceSource) else open_trace(src, chunk_bytes)
    return write_trace(dst, iter(source))


# -- file-backed TraceSpec -------------------------------------------------


def file_spec(path: str | Path, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> TraceSpec:
    """Describe a trace file as an immutable ``kind="file"`` spec.

    The spec's params carry the content identity (``sha256``, ``format``)
    plus the advisory ``_path`` (excluded from results-cache keys); its
    ``n`` is the file's access count.
    """
    source = open_trace(path, chunk_bytes)
    return TraceSpec(FILE_KIND, source.count(), seed=0, params={
        "sha256": file_sha256(path),
        "format": source.format,
        "_path": str(Path(path).resolve()),
    })


def spec_source(spec: TraceSpec,
                chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                verify: bool = True) -> TraceSource:
    """Open the :class:`TraceSource` behind a ``kind="file"`` spec.

    ``verify`` hashes the file and demands it still matches the spec's
    ``sha256`` — the spec *is* the cache key, so simulating a file that
    drifted from its recorded content would poison the cache.  The hash
    is memoized per process keyed on (path, size, mtime), so a sweep
    worker verifying one trace against many configs pays the full-file
    SHA-256 pass once.
    """
    if spec.kind != FILE_KIND:
        raise ValueError(f"spec kind {spec.kind!r} is not {FILE_KIND!r}")
    path = spec.params.get("_path")
    if not path:
        raise ValueError(
            "file trace spec carries no '_path' advisory param (it was "
            "probably rebuilt from a cache entry on another machine); "
            "re-create it with emissary.trace_io.file_spec(<path>)")
    if verify:
        actual = verified_sha256(path)
        if actual != spec.params["sha256"]:
            raise ValueError(
                f"{path}: content hash {actual[:16]}... does not match the "
                f"spec's sha256 {spec.params['sha256'][:16]}... — the file "
                f"changed since file_spec() recorded it")
    return open_trace(path, chunk_bytes, format=spec.params.get("format"))


def load_spec_addresses(spec: TraceSpec,
                        verify: bool = True) -> AddressArray:
    """Load a ``kind="file"`` spec fully into memory (TraceSpec.generate)."""
    addresses = spec_source(spec, verify=verify).read_all()
    if len(addresses) != spec.n:
        raise ValueError(f"{spec.params.get('_path')}: holds {len(addresses)} "
                         f"accesses but the spec records n={spec.n}")
    return addresses


# -- CLI -------------------------------------------------------------------

_SYNTH_PREFIX = "synth:"


def _parse_param(text: str) -> tuple[str, Any]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"--param needs key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value: Any = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    return key, value


def _synth_chunks(kind: str, n: int, seed: int,
                  params: dict[str, Any]) -> Iterable[AddressArray]:
    if kind not in GENERATORS:
        raise SystemExit(f"unknown synthetic trace kind {kind!r}; "
                         f"known: {sorted(GENERATORS)}")
    spec = TraceSpec(kind, n, seed, params)
    return [spec.generate()]


def _cmd_convert(args: argparse.Namespace) -> int:
    params = dict(args.param or [])
    if args.src.startswith(_SYNTH_PREFIX):
        kind = args.src[len(_SYNTH_PREFIX):]
        chunks = _synth_chunks(kind, args.n, args.seed, params)
        src_label = f"{kind} (synthetic, n={args.n}, seed={args.seed})"
    else:
        if params or args.n != DEFAULT_SYNTH_N or args.seed != 0:
            print("note: --n/--seed/--param only apply to synth: sources",
                  file=sys.stderr)
        chunks = iter(open_trace(args.src, args.chunk_bytes))
        src_label = args.src
    written = write_trace(args.dst, chunks)
    spec = file_spec(args.dst, args.chunk_bytes)
    print(f"{src_label} -> {args.dst} [{spec.params['format']}]: "
          f"{written} accesses, sha256 {spec.params['sha256'][:16]}...")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    source = open_trace(args.path, args.chunk_bytes)
    total = 0
    lines: set = set()
    head: list[int] = []
    for chunk in source:
        if len(head) < args.head:
            head.extend(chunk[:args.head - len(head)].tolist())
        total += len(chunk)
        lines.update(np.unique(chunk >> np.uint64(
            LINE_BYTES.bit_length() - 1)).tolist())
    sha = file_sha256(args.path)
    print(f"path:         {args.path}")
    print(f"format:       {source.format}")
    print(f"accesses:     {total}")
    print(f"unique lines: {len(lines)} "
          f"({len(lines) * LINE_BYTES / 1024:.1f} KiB footprint)")
    print(f"sha256:       {sha}")
    if head:
        shown = "  ".join(f"0x{a:x}" for a in head)
        print(f"head:         {shown}")
    return 0


DEFAULT_SYNTH_N = 1_000_000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="emissary.trace_io", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    convert_p = sub.add_parser(
        "convert", help="convert a trace file (or synth:<kind>) to another format")
    convert_p.add_argument("src", help=f"source trace file, or "
                                       f"'{_SYNTH_PREFIX}<kind>' for a synthetic "
                                       f"trace ({', '.join(sorted(GENERATORS))})")
    convert_p.add_argument("dst", help="destination file (format from suffix)")
    convert_p.add_argument("--n", type=int, default=DEFAULT_SYNTH_N,
                           help="synthetic trace length (synth: sources)")
    convert_p.add_argument("--seed", type=int, default=0,
                           help="synthetic trace seed (synth: sources)")
    convert_p.add_argument("--param", type=_parse_param, action="append",
                           help="synthetic generator parameter key=value "
                                "(repeatable)")
    convert_p.add_argument("--chunk-bytes", type=int, default=DEFAULT_CHUNK_BYTES,
                           help="streaming memory budget per chunk")
    convert_p.set_defaults(func=_cmd_convert)

    inspect_p = sub.add_parser("inspect", help="summarize a trace file")
    inspect_p.add_argument("path")
    inspect_p.add_argument("--head", type=int, default=4,
                           help="leading addresses to print")
    inspect_p.add_argument("--chunk-bytes", type=int, default=DEFAULT_CHUNK_BYTES)
    inspect_p.set_defaults(func=_cmd_inspect)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a malformed trace file or bad argument
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
