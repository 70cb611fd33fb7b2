"""Tests for trace file I/O: formats, chunking, specs, and the CLI."""

import gzip

import numpy as np
import pytest

from emissary import trace_io
from emissary.results_cache import config_key
from emissary.trace_io import (
    CHAMPSIM_DTYPE,
    FORMATS,
    NpySource,
    convert,
    detect_format,
    file_sha256,
    file_spec,
    load_spec_addresses,
    open_trace,
    spec_source,
    write_trace,
)
from emissary.traces import FILE_KIND, TraceSpec


@pytest.fixture
def addresses():
    return TraceSpec("call", 5_000, 3).generate()


def _path_for(tmp_path, fmt):
    return tmp_path / f"trace.{fmt}"


@pytest.mark.parametrize("fmt", FORMATS)
def test_roundtrip_every_format(tmp_path, addresses, fmt):
    path = _path_for(tmp_path, fmt)
    written = write_trace(path, [addresses])
    assert written == len(addresses)
    source = open_trace(path)
    assert source.format == fmt
    assert source.count() == len(addresses)
    assert np.array_equal(source.read_all(), addresses)


@pytest.mark.parametrize("fmt", FORMATS)
def test_chunks_respect_memory_budget(tmp_path, addresses, fmt):
    path = _path_for(tmp_path, fmt)
    write_trace(path, [addresses])
    budget = 1024  # 128 addresses per chunk, in every format
    chunks = list(open_trace(path, chunk_bytes=budget))
    assert len(chunks) > 1
    assert all(c.nbytes <= budget for c in chunks)
    assert all(c.dtype == np.uint64 and c.flags.c_contiguous for c in chunks)
    assert np.array_equal(np.concatenate(chunks), addresses)


@pytest.mark.parametrize("budget", [775, 1000])
@pytest.mark.parametrize("fmt", FORMATS)
def test_every_format_chunks_alike(tmp_path, addresses, fmt, budget):
    """Every non-final chunk holds exactly ``chunk_bytes // 8``
    addresses and the last holds the rest, whatever the format."""
    path = _path_for(tmp_path, fmt)
    write_trace(path, [addresses])
    per_chunk = budget // 8
    sizes = [len(c) for c in open_trace(path, chunk_bytes=budget)]
    full, rest = divmod(len(addresses), per_chunk)
    assert sizes == [per_chunk] * full + ([rest] if rest else [])


def test_chunked_writer_streams(tmp_path, addresses):
    path = _path_for(tmp_path, "champsim.gz")
    parts = np.array_split(addresses, 7)
    write_trace(path, parts)
    assert np.array_equal(open_trace(path).read_all(), addresses)


def test_champsim_layout_matches_reference(tmp_path, addresses):
    """The on-disk bytes are genuine 64-byte ChampSim records with the
    fetch address in the leading ``ip`` field."""
    path = _path_for(tmp_path, "champsim")
    write_trace(path, [addresses])
    raw = path.read_bytes()
    assert len(raw) == 64 * len(addresses)
    records = np.frombuffer(raw, dtype=CHAMPSIM_DTYPE)
    assert np.array_equal(records["ip"], addresses)
    assert not records["is_branch"].any()


def test_truncated_champsim_rejected(tmp_path, addresses):
    path = _path_for(tmp_path, "champsim")
    write_trace(path, [addresses])
    path.write_bytes(path.read_bytes()[:-13])  # tear the last record
    with pytest.raises(ValueError, match="truncated|record"):
        open_trace(path).read_all()
    with pytest.raises(ValueError, match="record"):
        open_trace(path).count()


@pytest.mark.parametrize("fmt", ["champsim", "champsim.gz"])
def test_truncated_record_in_a_later_piece_rejected(tmp_path, addresses, fmt):
    """A 256-byte budget is 32 addresses per chunk, decoded 4 records at
    a time: 70 whole records plus a torn one put the tear in the second
    piece of the third chunk.  The two full chunks come out first."""
    path = _path_for(tmp_path, fmt)
    records = np.zeros(71, dtype=CHAMPSIM_DTYPE)
    records["ip"] = addresses[:71]
    payload = records.tobytes()[:-13]
    if fmt == "champsim.gz":
        with gzip.open(path, "wb") as fh:
            fh.write(payload)
    else:
        path.write_bytes(payload)
    chunks = iter(open_trace(path, chunk_bytes=256))
    assert np.array_equal(next(chunks), addresses[:32])
    assert np.array_equal(next(chunks), addresses[32:64])
    with pytest.raises(ValueError, match="truncated ChampSim trace — "
                                         "trailing 51 bytes do not form a "
                                         "64-byte record"):
        next(chunks)


def test_truncated_gzip_payload_rejected(tmp_path, addresses):
    path = _path_for(tmp_path, "champsim.gz")
    records = np.zeros(4, dtype=CHAMPSIM_DTYPE)
    with gzip.open(path, "wb") as fh:
        fh.write(records.tobytes()[:-5])
    with pytest.raises(ValueError, match="record"):
        open_trace(path).count()


def test_npy_source_memory_maps(tmp_path, addresses):
    path = _path_for(tmp_path, "npy")
    write_trace(path, [addresses])
    mapped = NpySource(path)._mmap()
    assert isinstance(mapped, np.memmap)


def test_npy_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.npy"
    np.save(path, np.zeros((4, 4), dtype=np.uint64))
    with pytest.raises(ValueError, match="1-D"):
        open_trace(path).read_all()


def test_npy_rejects_negative_signed_address(tmp_path):
    """A signed array's negative entry would wrap to a huge uint64
    address; it is refused with the path and the entry's index."""
    path = tmp_path / "signed.npy"
    np.save(path, np.array([64, -64, 128], dtype=np.int64))
    with pytest.raises(ValueError, match=r"signed\.npy.*index 1"):
        open_trace(path).read_all()


def test_npy_negative_index_counts_across_chunks(tmp_path):
    path = tmp_path / "late.npy"
    values = np.arange(0, 64 * 100, 64, dtype=np.int32)
    values[70] = -1
    np.save(path, values)
    with pytest.raises(ValueError, match="index 70"):
        list(open_trace(path, chunk_bytes=128))


def test_npy_signed_non_negative_streams(tmp_path, addresses):
    path = tmp_path / "signed_ok.npy"
    np.save(path, addresses.astype(np.int64))
    assert np.array_equal(open_trace(path).read_all(), addresses)


def test_npz_accepts_single_unnamed_array(tmp_path, addresses):
    path = tmp_path / "other.npz"
    np.savez(path, stream=addresses)  # not the canonical "addresses" key
    assert np.array_equal(open_trace(path).read_all(), addresses)


def test_npz_rejects_ambiguous_archive(tmp_path, addresses):
    path = tmp_path / "multi.npz"
    np.savez(path, a=addresses, b=addresses)
    with pytest.raises(ValueError, match="addresses"):
        open_trace(path).read_all()


class TestNpzStreaming:
    """The npz source reads zip members as an incrementally-decompressing
    stream — never through ``np.load``, never the whole array at once."""

    def test_iteration_never_calls_np_load(self, tmp_path, addresses,
                                           monkeypatch):
        path = tmp_path / "t.npz"
        write_trace(path, [addresses])
        monkeypatch.setattr(np, "load", lambda *a, **k: pytest.fail(
            "NpzSource must stream via zipfile, not materialize via np.load"))
        chunks = list(open_trace(path, chunk_bytes=1024))
        assert len(chunks) > 1
        assert np.array_equal(np.concatenate(chunks), addresses)
        assert open_trace(path).count() == len(addresses)

    def test_streams_nondefault_member_and_dtype(self, tmp_path, addresses):
        path = tmp_path / "other.npz"
        np.savez(path, stream=addresses.astype(np.int64))
        chunks = list(open_trace(path, chunk_bytes=512))
        assert all(c.dtype == np.uint64 and c.flags.c_contiguous
                   for c in chunks)
        assert np.array_equal(np.concatenate(chunks), addresses)

    def test_compressed_archive_streams(self, tmp_path, addresses):
        path = tmp_path / "packed.npz"
        np.savez_compressed(path, addresses=addresses)
        chunks = list(open_trace(path, chunk_bytes=1024))
        assert len(chunks) > 1
        assert np.array_equal(np.concatenate(chunks), addresses)

    def test_truncated_member_rejected(self, tmp_path):
        import io
        import zipfile

        buf = io.BytesIO()
        np.lib.format.write_array(buf, np.arange(100, dtype=np.uint64))
        path = tmp_path / "torn.npz"
        with zipfile.ZipFile(path, "w") as zf:
            # Header claims 100 elements; payload carries only half.
            zf.writestr("addresses.npy", buf.getvalue()[:-400])
        with pytest.raises(ValueError, match="truncated"):
            open_trace(path).read_all()

    def test_rejects_negative_signed_address(self, tmp_path):
        path = tmp_path / "signed.npz"
        values = np.arange(0, 64 * 100, 64, dtype=np.int64)
        values[70] = -64
        np.savez(path, addresses=values)
        with pytest.raises(ValueError, match=r"signed\.npz.*index 70"):
            list(open_trace(path, chunk_bytes=128))

    def test_rejects_float_member(self, tmp_path):
        path = tmp_path / "f.npz"
        np.savez(path, addresses=np.zeros(8, dtype=np.float64))
        with pytest.raises(ValueError, match="address array"):
            open_trace(path).read_all()

    def test_rejects_multidimensional_member(self, tmp_path):
        path = tmp_path / "m.npz"
        np.savez(path, addresses=np.zeros((4, 4), dtype=np.uint64))
        with pytest.raises(ValueError, match="1-D"):
            open_trace(path).count()


def test_detect_format():
    assert detect_format("t.champsim") == "champsim"
    assert detect_format("t.bin") == "champsim"
    assert detect_format("T.TRACE") == "champsim"
    assert detect_format("t.champsim.gz") == "champsim.gz"
    assert detect_format("t.npy") == "npy"
    assert detect_format("t.npz") == "npz"
    with pytest.raises(ValueError, match="infer"):
        detect_format("t.dat")


@pytest.mark.parametrize("dst_fmt", FORMATS)
def test_convert_between_formats(tmp_path, addresses, dst_fmt):
    src = _path_for(tmp_path, "champsim")
    write_trace(src, [addresses])
    dst = tmp_path / f"out.{dst_fmt}"
    assert convert(src, dst) == len(addresses)
    assert np.array_equal(open_trace(dst).read_all(), addresses)


def test_tiny_chunk_budget_clamps_to_one_record(tmp_path, addresses):
    path = _path_for(tmp_path, "champsim")
    write_trace(path, [addresses[:16]])
    chunks = list(open_trace(path, chunk_bytes=8))  # < one 64-byte record
    assert all(len(c) == 1 for c in chunks)
    with pytest.raises(ValueError, match="chunk_bytes"):
        open_trace(path, chunk_bytes=4)


class TestFileSpec:
    def test_spec_fields_and_generate(self, tmp_path, addresses):
        path = _path_for(tmp_path, "npy")
        write_trace(path, [addresses])
        spec = file_spec(path)
        assert spec.kind == FILE_KIND
        assert spec.n == len(addresses)
        assert spec.params["sha256"] == file_sha256(path)
        assert spec.params["format"] == "npy"
        assert spec.params["_path"] == str(path.resolve())
        assert np.array_equal(spec.generate(), addresses)

    def test_cache_key_tracks_content_not_location(self, tmp_path, addresses):
        a = _path_for(tmp_path, "champsim")
        write_trace(a, [addresses])
        spec_a = file_spec(a)
        moved = tmp_path / "elsewhere.champsim"
        a.rename(moved)
        spec_b = file_spec(moved)
        # Same bytes, different path: identical cache keys.
        assert config_key(spec_a.to_dict()) == config_key(spec_b.to_dict())
        # Different bytes: different key.
        write_trace(moved, [addresses[::-1].copy()])
        spec_c = file_spec(moved)
        assert config_key(spec_b.to_dict()) != config_key(spec_c.to_dict())

    def test_spec_source_verifies_content(self, tmp_path, addresses):
        path = _path_for(tmp_path, "champsim")
        write_trace(path, [addresses])
        spec = file_spec(path)
        assert np.array_equal(spec_source(spec).read_all(), addresses)
        write_trace(path, [addresses[:100]])  # file drifts under the spec
        with pytest.raises(ValueError, match="hash|changed"):
            spec_source(spec)
        # verify=False trusts the caller, but generate() still checks n.
        with pytest.raises(ValueError, match="n="):
            load_spec_addresses(spec, verify=False)

    def test_spec_without_path_is_rejected(self):
        spec = TraceSpec(FILE_KIND, 10, params={"sha256": "0" * 64})
        with pytest.raises(ValueError, match="_path"):
            spec_source(spec)

    def test_spec_roundtrips_through_dict(self, tmp_path, addresses):
        path = _path_for(tmp_path, "npy")
        write_trace(path, [addresses])
        spec = file_spec(path)
        again = TraceSpec.from_dict(spec.to_dict())
        assert again == spec
        assert np.array_equal(again.generate(), addresses)


class TestCli:
    def test_convert_synth_and_inspect(self, tmp_path, capsys):
        out = tmp_path / "t.champsim.gz"
        rc = trace_io.main(["convert", "synth:loop", str(out),
                            "--n", "2000", "--seed", "7",
                            "--param", "footprint_lines=64"])
        assert rc == 0
        assert "2000 accesses" in capsys.readouterr().out
        expected = TraceSpec("loop", 2000, 7, {"footprint_lines": 64}).generate()
        assert np.array_equal(open_trace(out).read_all(), expected)

        rc = trace_io.main(["inspect", str(out), "--head", "3"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "accesses:     2000" in text
        assert f"sha256:       {file_sha256(out)}" in text
        assert "unique lines: 64" in text

    def test_convert_file_to_file(self, tmp_path, capsys):
        src = tmp_path / "t.npy"
        addresses = TraceSpec("loop", 500, 1, {"footprint_lines": 16}).generate()
        write_trace(src, [addresses])
        dst = tmp_path / "t.champsim"
        assert trace_io.main(["convert", str(src), str(dst)]) == 0
        assert np.array_equal(open_trace(dst).read_all(), addresses)

    def test_convert_unknown_synth_kind_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            trace_io.main(["convert", "synth:fractal", str(tmp_path / "t.npy")])


class TestXzAndShaMemo:
    def test_xz_roundtrip_and_detection(self, tmp_path, addresses):
        path = tmp_path / "t.trace.xz"
        write_trace(path, [addresses])
        assert detect_format(path) == "champsim.xz"
        source = open_trace(path)
        assert source.format == "champsim.xz"
        assert source.count() == len(addresses)
        assert np.array_equal(source.read_all(), addresses)
        # xz actually compresses: the payload is 16 bytes per record raw.
        assert path.stat().st_size < 16 * len(addresses)

    def test_xz_file_spec_sweepable(self, tmp_path, addresses):
        path = tmp_path / "t.champsim.xz"
        write_trace(path, [addresses])
        spec = file_spec(path)
        assert spec.params["format"] == "champsim.xz"
        assert np.array_equal(spec_source(spec).read_all(), addresses)

    def test_verified_sha256_memoizes_per_process(self, tmp_path, addresses,
                                                  monkeypatch):
        path = _path_for(tmp_path, "champsim")
        write_trace(path, [addresses])
        trace_io._SHA_MEMO.clear()
        first = trace_io.verified_sha256(path)
        assert first == file_sha256(path)

        hashes = []
        real = trace_io.file_sha256
        monkeypatch.setattr(trace_io, "file_sha256",
                            lambda p: hashes.append(p) or real(p))
        # Unchanged file: memo hit, no re-hash.
        assert trace_io.verified_sha256(path) == first
        assert hashes == []
        # Rewriting the file changes size/mtime and forces a re-hash.
        write_trace(path, [addresses[:100]])
        second = trace_io.verified_sha256(path)
        assert len(hashes) == 1
        assert second != first

    def test_spec_source_uses_memo(self, tmp_path, addresses, monkeypatch):
        path = _path_for(tmp_path, "champsim")
        write_trace(path, [addresses])
        spec = file_spec(path)
        trace_io._SHA_MEMO.clear()
        spec_source(spec)  # first verify pays the hash
        monkeypatch.setattr(trace_io, "file_sha256", lambda p: pytest.fail(
            "spec_source should reuse the per-process sha memo"))
        spec_source(spec)
