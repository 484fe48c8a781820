"""Legacy LZ4 (CompressionCodec id 5) — both public dialects — and the
named LZO error (VERDICT r4 task 3; CompressionCodecName.java:29-31,
parquet-hadoop/.../codec/NonBlockedDecompressorStream.java)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import parquet_write
from rayenc.codecs.lz4hadoop import Lz4HadoopCodec, _lz4_block_decompress
from rayenc.parquet_compat import codec_for_id, read_table_conformance
from rayenc.parquet_read_enc import read_table_filtered
from rayenc.selector import EncodeConfig


def _lineitem():
    return pq.read_table(
        "/root/testdata/sf0.001/lineitem.parquet",
        columns=["l_orderkey", "l_quantity", "l_returnflag", "l_shipdate"],
    )


def test_pure_python_lz4_block_matches_arrow():
    rng = np.random.default_rng(7)
    for size in (0, 1, 17, 1000, 70_000):
        # compressible data (runs + noise) exercises literals AND matches,
        # including overlapping matches (offset < match length)
        data = (
            rng.integers(0, 8, size=size).astype(np.uint8).tobytes()
            + b"abcabcabc" * 50
        )
        comp = pa.Codec("lz4_raw").compress(data).to_pybytes()
        assert _lz4_block_decompress(comp) == data


def test_hadoop_framing_roundtrip_small_and_multichunk():
    c = Lz4HadoopCodec()
    for data in (b"", b"x", b"hello world " * 100, bytes(range(256)) * 3000):
        framed = c.compress(data).to_pybytes()
        # outer frame: one big block whose BE32 prefix is the payload size
        assert int.from_bytes(framed[:4], "big") == len(data)
        assert c.decompress(framed, len(data)) == data
    # 700 KiB payload -> 3 chunks of <=256 KiB inside one block
    big = (b"0123456789abcdef" * 45_000)[: 700 * 1024]
    framed = c.compress(big).to_pybytes()
    assert c.decompress(framed, len(big)) == big


def test_raw_dialect_fallback():
    # old parquet-cpp wrote the page body as ONE raw LZ4 block
    data = b"raw dialect page body " * 64
    comp = pa.Codec("lz4_raw").compress(data).to_pybytes()
    assert Lz4HadoopCodec().decompress(comp, len(data)) == data


def test_write_lz4_hadoop_read_by_rayenc_and_pyarrow(tmp_path):
    import duckdb

    table = _lineitem()
    path = str(tmp_path / "lz4h.parquet")
    parquet_write.write_table(
        table, path, EncodeConfig(compression="lz4_hadoop"), row_group_size=2500
    )
    # codec id 5 on disk (duckdb names it LZ4; pyarrow's metadata API has no
    # string for LZ4_HADOOP and reports UNKNOWN, though its reader accepts it;
    # duckdb's reader refuses legacy LZ4 entirely)
    names = {
        r[0]
        for r in duckdb.sql(
            f"SELECT DISTINCT compression FROM parquet_metadata('{path}')"
        ).fetchall()
    }
    assert names == {"LZ4"}
    # rayenc's own conformance reader
    back = read_table_conformance(path)
    for col in table.column_names:
        assert back.column(col).to_pylist() == table.column(col).to_pylist(), col
    # independent reader: Arrow's Lz4HadoopCodec accepts the hadoop framing
    assert pq.read_table(path).sort_by("l_orderkey").equals(
        table.sort_by("l_orderkey")
    )


def test_read_pyarrow_written_lz4_raw_dialect(tmp_path):
    # pyarrow compression='LZ4' stamps codec id 5 with RAW block bodies —
    # the parquet-cpp legacy dialect our reader must also accept
    table = _lineitem()
    path = str(tmp_path / "lz4cpp.parquet")
    pq.write_table(table, path, compression="LZ4", use_dictionary=False)
    back = read_table_conformance(path)
    for col in table.column_names:
        assert back.column(col).to_pylist() == table.column(col).to_pylist(), col


def test_filtered_read_over_lz4_hadoop(tmp_path):
    table = _lineitem()
    path = str(tmp_path / "lz4f.parquet")
    parquet_write.write_table(
        table, path, EncodeConfig(compression="lz4_hadoop"), row_group_size=2000
    )
    got = read_table_filtered(path, [("l_orderkey", "<=", 500)])
    want = table.filter(pa.compute.field("l_orderkey") <= 500)
    assert got.sort_by("l_orderkey").equals(
        want.select(got.column_names).sort_by("l_orderkey")
    )


def test_legacy_codec_ids_resolve():
    # id 3 decodes now (clean-room LZO1X, tests/test_lzo.py); unknown ids
    # still fail with a named error, not a KeyError
    from rayenc.codecs.lzo import LzoHadoopCodec

    assert isinstance(codec_for_id(3), LzoHadoopCodec)
    with pytest.raises(NotImplementedError, match="CompressionCodec id 8"):
        codec_for_id(8)


def test_transcompress_raw_from_and_to_legacy_lz4(tmp_path):
    # raw page recompression used to map codec id 5 to None (silently
    # treating compressed pages as UNCOMPRESSED); both directions now work
    from rayenc.parquet_read_enc import read_table_encrypted
    from rayenc.rewrite import transcompress_parquet_raw

    t = _lineitem()
    # our hadoop-framed writer output -> zstd
    src1 = str(tmp_path / "h.parquet")
    parquet_write.write_table(
        t, src1, EncodeConfig(compression="lz4_hadoop"), row_group_size=2000
    )
    out1 = str(tmp_path / "h2z.parquet")
    transcompress_parquet_raw(src1, out1, "zstd")
    assert pq.read_table(out1).cast(t.schema).equals(t)
    # pyarrow's raw-dialect codec-5 output -> snappy
    src2 = str(tmp_path / "c.parquet")
    pq.write_table(t, src2, compression="LZ4", use_dictionary=False)
    out2 = str(tmp_path / "c2s.parquet")
    transcompress_parquet_raw(src2, out2, "snappy")
    assert pq.read_table(out2).cast(t.schema).equals(t)
    # zstd -> lz4_hadoop as the TARGET codec
    src3 = str(tmp_path / "z.parquet")
    parquet_write.write_table(
        t, src3, EncodeConfig(compression="zstd"), row_group_size=2000
    )
    out3 = str(tmp_path / "z2h.parquet")
    transcompress_parquet_raw(src3, out3, "lz4_hadoop")
    assert pq.read_table(out3).cast(t.schema).equals(t)  # Arrow reads it
    assert read_table_encrypted(out3).cast(t.schema).equals(t)  # so do we


def test_nonstandard_compressor_buffer_framing():
    # a writer configured with a small io.compression.codec.lz4.buffersize
    # produces sub-256KiB middle chunks; the fast walk's final-chunk size
    # guess breaks structurally and the pure-python re-walk must recover
    import struct

    data = bytes(range(251)) * 611  # ~150 KB
    raw = pa.Codec("lz4_raw")
    for buf in (16 * 1024, 64 * 1024):
        parts = [struct.pack(">I", len(data))]
        for pos in range(0, len(data), buf):
            c = raw.compress(data[pos : pos + buf]).to_pybytes()
            parts += [struct.pack(">I", len(c)), c]
        framed = b"".join(parts)
        assert Lz4HadoopCodec().decompress(framed, len(data)) == data
    # garbage is an error, not silent passthrough
    with pytest.raises((ValueError, OSError)):
        Lz4HadoopCodec().decompress(b"\x00\x01\x02 definitely not lz4", 64)
