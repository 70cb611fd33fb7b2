"""The compressed ChampSim boundary: ``.champsim.gz`` and ``.champsim.xz``.

Files for the reader are built with the standard ``gzip`` and ``lzma``
modules (or by hand, for header fields those modules never write), so
the reader is checked against writers independent of its own.  Every
malformed file must raise ``ValueError`` naming the path, from both
iteration and ``count()``.
"""

import gzip
import lzma
import struct
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emissary import trace_io
from emissary.results_cache import config_key
from emissary.trace_io import (CHAMPSIM_DTYPE, file_sha256, file_spec,
                               open_trace, write_trace)
from emissary.traces import TraceSpec

CODECS = ("gz", "xz")


@pytest.fixture
def addresses():
    return TraceSpec("call", 3_000, 5).generate()


def _payload(addresses):
    records = np.zeros(len(addresses), dtype=CHAMPSIM_DTYPE)
    records["ip"] = addresses
    return records.tobytes()


def _compress(codec, data):
    """One gzip member or one xz stream, from the standard library."""
    return gzip.compress(data, mtime=0) if codec == "gz" else lzma.compress(data)


def _write(tmp_path, codec, raw, name="t"):
    path = tmp_path / f"{name}.champsim.{codec}"
    path.write_bytes(raw)
    return path


def _rejected(path, match):
    """Both iteration and ``count()`` raise ``ValueError`` naming ``path``."""
    for read in (lambda: open_trace(path).read_all(),
                 lambda: open_trace(path).count()):
        with pytest.raises(ValueError, match=match) as info:
            read()
        assert str(path) in str(info.value)


def _gzip_member_with_header_crc(data):
    """A gzip member with FHCRC set, which ``gzip`` never writes."""
    header = b"\x1f\x8b\x08\x02" + b"\0\0\0\0" + b"\x00\xff"
    deflate = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = deflate.compress(data) + deflate.flush()
    return (header + struct.pack("<H", zlib.crc32(header) & 0xFFFF) + body
            + struct.pack("<II", zlib.crc32(data), len(data)))


class TestAccepted:
    @pytest.mark.parametrize("codec", CODECS)
    def test_concatenated_members_and_padding(self, tmp_path, addresses,
                                              codec):
        data = _payload(addresses)
        cut1, cut2 = 64 * 1000 + 17, 64 * 2000  # one cut inside a record
        raw = (_compress(codec, data[:cut1]) + b"\0" * 4
               + _compress(codec, data[cut1:cut2])
               + _compress(codec, data[cut2:]) + b"\0" * 7)
        path = _write(tmp_path, codec, raw)
        assert np.array_equal(open_trace(path, chunk_bytes=1000).read_all(),
                              addresses)
        assert open_trace(path).count() == len(addresses)

    @pytest.mark.parametrize("codec", CODECS)
    def test_empty_file_yields_no_records(self, tmp_path, codec):
        path = _write(tmp_path, codec, b"")
        assert list(open_trace(path)) == []
        assert open_trace(path).count() == 0

    @pytest.mark.parametrize("codec", CODECS)
    def test_empty_member_yields_no_records(self, tmp_path, codec):
        path = _write(tmp_path, codec, _compress(codec, b""))
        assert list(open_trace(path)) == []
        assert open_trace(path).count() == 0

    def test_gzip_header_crc_checked(self, tmp_path, addresses):
        member = _gzip_member_with_header_crc(_payload(addresses))
        assert gzip.decompress(member) == _payload(addresses)
        path = _write(tmp_path, "gz", member)
        assert np.array_equal(open_trace(path).read_all(), addresses)
        bad = bytearray(member)
        bad[10] ^= 0x01  # the header CRC's low byte
        _rejected(_write(tmp_path, "gz", bytes(bad), "bad"), "header crc")


class TestRejected:
    @pytest.mark.parametrize("cut", [5, 0.5, -3])
    @pytest.mark.parametrize("codec", CODECS)
    def test_truncated_stream(self, tmp_path, addresses, codec, cut):
        """Cut inside the header, the body and the trailer."""
        raw = _compress(codec, _payload(addresses))
        end = int(len(raw) * cut) if isinstance(cut, float) else cut
        _rejected(_write(tmp_path, codec, raw[:end]), "truncated")

    @pytest.mark.parametrize("codec", CODECS)
    def test_corrupt_body(self, tmp_path, addresses, codec):
        raw = bytearray(_compress(codec, _payload(addresses)))
        middle = len(raw) // 2
        raw[middle:middle + 4] = bytes(b ^ 0xFF for b in raw[middle:middle + 4])
        _rejected(_write(tmp_path, codec, bytes(raw)), "corrupt")

    @pytest.mark.parametrize("offset, what", [(-8, "data check"),
                                              (-4, "length check")])
    def test_gzip_crc32_and_isize_checked(self, tmp_path, addresses, offset,
                                          what):
        raw = bytearray(_compress("gz", _payload(addresses)))
        raw[offset] ^= 0x01
        _rejected(_write(tmp_path, "gz", bytes(raw)), what)

    def test_xz_integrity_check_checked(self, tmp_path, addresses):
        """Flip one byte of the block's stored CRC-64, the 8 bytes before
        the index: the data decodes, but the check fails."""
        raw = bytearray(_compress("xz", _payload(addresses)))
        index_bytes = (struct.unpack("<I", raw[-8:-4])[0] + 1) * 4
        raw[len(raw) - 12 - index_bytes - 1] ^= 0x01
        _rejected(_write(tmp_path, "xz", bytes(raw)), "corrupt")

    @pytest.mark.parametrize("tail", [b"garbage!", b"\0\0\x01\x02", b"\x1f"])
    @pytest.mark.parametrize("codec", CODECS)
    def test_trailing_data(self, tmp_path, addresses, codec, tail):
        raw = _compress(codec, _payload(addresses)) + tail
        _rejected(_write(tmp_path, codec, raw), "corrupt|truncated")

    @pytest.mark.parametrize("codec", CODECS)
    def test_not_compressed_at_all(self, tmp_path, addresses, codec):
        _rejected(_write(tmp_path, codec, _payload(addresses)), "corrupt")

    @pytest.mark.parametrize("codec", CODECS)
    def test_zero_bytes_before_the_first_member(self, tmp_path, addresses,
                                                codec):
        """Zero padding is skipped only after a member, as ``gzip`` does."""
        raw = b"\0" * 4 + _compress(codec, _payload(addresses))
        _rejected(_write(tmp_path, codec, raw), "corrupt")

    @pytest.mark.parametrize("codec", CODECS)
    def test_partial_record(self, tmp_path, addresses, codec):
        raw = _compress(codec, _payload(addresses)[:-13])
        _rejected(_write(tmp_path, codec, raw), "record")


class TestWriter:
    def test_gz_bytes_ignore_time_and_name(self, tmp_path, addresses,
                                           monkeypatch):
        first = tmp_path / "a.champsim.gz"
        write_trace(first, [addresses])
        monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
        second = tmp_path / "elsewhere" / "renamed.trace.gz"
        second.parent.mkdir()
        write_trace(second, np.array_split(addresses, 3))
        assert file_sha256(first) == file_sha256(second)
        assert (config_key(file_spec(first).to_dict())
                == config_key(file_spec(second).to_dict()))
        header = first.read_bytes()[:10]
        assert header[3] == 0 and header[4:8] == b"\0\0\0\0"  # no FNAME, mtime 0

    def test_gz_is_level_6_deflate(self, tmp_path, addresses):
        path = tmp_path / "t.champsim.gz"
        write_trace(path, np.array_split(addresses, 4))
        reference = gzip.compress(_payload(addresses), compresslevel=6, mtime=0)
        assert path.read_bytes()[10:] == reference[10:]  # past the header

    def test_standard_modules_read_written_files(self, tmp_path, addresses):
        data = _payload(addresses)
        gz, xz = tmp_path / "t.champsim.gz", tmp_path / "t.champsim.xz"
        write_trace(gz, np.array_split(addresses, 5))
        write_trace(xz, np.array_split(addresses, 5))
        with gzip.open(gz, "rb") as fh:
            assert fh.read() == data
        with lzma.open(xz, "rb") as fh:
            assert fh.read() == data

    def test_xz_bytes_match_lzma_open(self, tmp_path, addresses):
        ours = tmp_path / "ours.champsim.xz"
        write_trace(ours, np.array_split(addresses, 5))
        theirs = tmp_path / "theirs.champsim.xz"
        with lzma.open(theirs, "wb") as fh:
            fh.write(_payload(addresses))
        assert ours.read_bytes() == theirs.read_bytes()

    def test_reads_files_from_standard_modules(self, tmp_path, addresses):
        gz = tmp_path / "t.champsim.gz"
        with gzip.open(gz, "wb") as fh:  # level 9, with FNAME and mtime
            fh.write(_payload(addresses))
        assert gz.read_bytes()[3] & 0x08  # FNAME set
        xz = tmp_path / "t.champsim.xz"
        with lzma.open(xz, "wb") as fh:
            fh.write(_payload(addresses))
        for path in (gz, xz):
            assert np.array_equal(open_trace(path).read_all(), addresses)
            assert open_trace(path).count() == len(addresses)

    def test_writer_pieces_span_chunks(self, tmp_path, monkeypatch):
        """Chunks longer and shorter than the writer's record piece."""
        monkeypatch.setattr(trace_io, "_WRITE_PIECE_RECORDS", 7)
        addresses = TraceSpec("loop", 100, 2).generate()
        parts = [addresses[:3], addresses[3:40], addresses[40:]]
        for codec in ("champsim", *CODECS):
            path = tmp_path / f"t.{codec}"
            assert write_trace(path, parts) == len(addresses)
            assert np.array_equal(open_trace(path).read_all(), addresses)


@settings(max_examples=60, deadline=None)
@given(codec=st.sampled_from(CODECS), n=st.integers(0, 200),
       seed=st.integers(0, 2**32 - 1), chunk_bytes=st.integers(8, 3000),
       cuts=st.lists(st.floats(0, 1), max_size=4),
       pads=st.lists(st.integers(0, 9), min_size=5, max_size=5),
       block=st.sampled_from([1, 7, 64, 64 << 10]))
def test_reader_property(tmp_path_factory, codec, n, seed, chunk_bytes, cuts,
                         pads, block):
    """Any split into members or streams (cuts may fall inside a record),
    any zero padding after each, any chunk budget and compressed block
    size: the reader returns exactly the written addresses."""
    addresses = np.random.default_rng(seed).integers(
        0, 2**63, n, dtype=np.uint64)
    data = _payload(addresses)
    bounds = [0, *sorted(int(c * len(data)) for c in cuts), len(data)]
    raw = b"".join(_compress(codec, data[lo:hi]) + b"\0" * pad
                   for lo, hi, pad in zip(bounds, bounds[1:], pads))
    path = _write(tmp_path_factory.mktemp("prop"), codec, raw)
    old_block = trace_io._BLOCK_BYTES
    trace_io._BLOCK_BYTES = block
    try:
        source = open_trace(path, chunk_bytes=chunk_bytes)
        assert np.array_equal(source.read_all(), addresses)
        assert source.count() == n
    finally:
        trace_io._BLOCK_BYTES = old_block


class TestCli:
    @pytest.fixture
    def truncated(self, tmp_path, addresses):
        path = tmp_path / "t.champsim.gz"
        write_trace(path, [addresses])
        path.write_bytes(path.read_bytes()[:2000])
        return path

    def test_inspect_reports_malformed_file(self, truncated, capsys):
        assert trace_io.main(["inspect", str(truncated)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(truncated) in err and "truncated" in err

    def test_convert_reports_malformed_file(self, truncated, tmp_path,
                                            capsys):
        dst = tmp_path / "out.npy"
        assert trace_io.main(["convert", str(truncated), str(dst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated" in err
