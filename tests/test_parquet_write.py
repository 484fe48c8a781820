"""Parquet files written by rayenc encoders, verified by independent readers
(pyarrow C++ and DuckDB) — the write-side format-parity proof."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rayenc import data, parquet_write
from rayenc.selector import EncodeConfig

SF = "/root/testdata/sf0.001"


def roundtrip(table, tmp_path, config=None):
    path = str(tmp_path / "ours.parquet")
    parquet_write.write_table(table, path, config)
    got = pq.read_table(path)
    for c in table.column_names:
        assert got.column(c).to_pylist() == table.column(c).to_pylist(), c
    return path, got


def test_flat_types(tmp_path):
    rng = np.random.default_rng(0)
    table = pa.table(
        {
            "i32": pa.array(np.sort(rng.integers(0, 10**6, 5000)).astype(np.int32)),
            "i64": pa.array(rng.integers(-(2**60), 2**60, 5000, dtype=np.int64)),
            "f32": pa.array(rng.random(5000).astype(np.float32)),
            "f64": pa.array(rng.random(5000)),
            "s": pa.array([f"src-{i % 9}" for i in range(5000)]),
            "b": pa.array((np.arange(5000) % 3 == 0).tolist(), pa.bool_()),
        }
    )
    path, _ = roundtrip(table, tmp_path)
    # selector chose real parquet encodings per column
    meta = pq.ParquetFile(path).metadata.row_group(0)
    encs = {meta.column(i).path_in_schema: meta.column(i).encodings for i in range(meta.num_columns)}
    assert "DELTA_BINARY_PACKED" in encs["i32"]  # sorted ints
    assert any("RLE_DICTIONARY" in e or "PLAIN_DICTIONARY" in e for e in encs["s"])


def test_tokenized_table_with_lists(tmp_path):
    table = data.make_table(2000, mean_tokens=40.0)
    path, got = roundtrip(table, tmp_path)
    import duckdb

    n = duckdb.connect().execute(
        f"SELECT SUM(len(tokens)) = SUM(n_tok) FROM read_parquet('{path}')"
    ).fetchone()[0]
    assert n is True


def test_lineitem_timestamps(tmp_path):
    table = pq.read_table(f"{SF}/lineitem.parquet")
    path, got = roundtrip(table, tmp_path)
    assert got.schema.field("l_shipdate").type == table.schema.field("l_shipdate").type


def test_duckdb_reads_every_table(tmp_path):
    import duckdb

    for name in ("region", "nation", "supplier"):
        table = pq.read_table(f"{SF}/{name}.parquet")
        path = str(tmp_path / f"{name}.parquet")
        parquet_write.write_table(table, path)
        cnt = duckdb.connect().execute(
            f"SELECT COUNT(*) FROM read_parquet('{path}')"
        ).fetchone()[0]
        assert cnt == table.num_rows


def test_size_close_to_pyarrow(tmp_path):
    import os

    table = data.make_table(5000, mean_tokens=60.0)
    ours = str(tmp_path / "ours.parquet")
    parquet_write.write_table(table, ours)
    theirs = str(tmp_path / "theirs.parquet")
    pq.write_table(table, theirs, compression="none", use_dictionary=True)
    ratio = os.path.getsize(ours) / os.path.getsize(theirs)
    assert ratio <= 1.05, ratio  # within 5% of pyarrow (no sorted-dict trick in-format)


def test_roundtrip_through_our_reader(tmp_path):
    """Full circle: our writer's pages decoded by our conformance reader."""
    from rayenc import parquet_compat

    rng = np.random.default_rng(5)
    table = pa.table({"v": pa.array(rng.integers(0, 5000, 20000).astype(np.int32))})
    path = str(tmp_path / "circle.parquet")
    parquet_write.write_table(table, path)
    got = parquet_compat.read_column_chunk(path, "v")
    np.testing.assert_array_equal(got, table.column("v").to_numpy())


def test_empty_lists(tmp_path):
    table = pa.table({"l": pa.array([[1], [], [2, 3], [], []], pa.list_(pa.int32()))})
    path = str(tmp_path / "x.parquet")
    parquet_write.write_table(table, path)
    assert pq.read_table(path).column("l").to_pylist() == [[1], [], [2, 3], [], []]


def test_nullable_columns(tmp_path):
    table = pa.table(
        {
            "i": pa.array([1, None, 3, None, 5], pa.int64()),
            "s": pa.array(["a", None, "c", "d", None], pa.string()),
            "f": pa.array([1.5, 2.5, None, 4.5, None], pa.float64()),
        }
    )
    path = str(tmp_path / "nulls.parquet")
    parquet_write.write_table(table, path)
    got = pq.read_table(path)
    for c in table.column_names:
        assert got.column(c).to_pylist() == table.column(c).to_pylist(), c


def test_multiple_row_groups(tmp_path):
    rng = np.random.default_rng(9)
    table = pa.table({"v": pa.array(rng.integers(0, 10**6, 50_000).astype(np.int32))})
    path = str(tmp_path / "rg.parquet")
    parquet_write.write_table(table, path, row_group_size=8_000)
    f = pq.ParquetFile(path)
    assert f.metadata.num_row_groups == 7
    np.testing.assert_array_equal(
        pq.read_table(path).column("v").to_numpy(), table.column("v").to_numpy()
    )
    import duckdb

    assert duckdb.connect().execute(
        f"SELECT COUNT(*) FROM read_parquet('{path}')"
    ).fetchone()[0] == 50_000


def test_run_heavy_boolean_rle(tmp_path):
    # V1 RLE data pages need the 4-byte LE length prefix
    # (RunLengthBitPackingHybridValuesWriter.getBytes)
    table = pa.table({"b": pa.array(np.repeat([True, False], 5000))})
    path = str(tmp_path / "b.parquet")
    parquet_write.write_table(table, path)
    md = pq.ParquetFile(path).metadata.row_group(0).column(0)
    assert "RLE" in md.encodings
    assert pq.read_table(path).column("b").to_pylist() == table.column("b").to_pylist()
    import duckdb

    assert duckdb.sql(f"SELECT SUM(b::int) FROM '{path}'").fetchone()[0] == 5000


def test_binary_column_stays_binary(tmp_path):
    # UTF8 annotation must only go on string fields, not raw binary
    table = pa.table({"raw": pa.array([b"\xff\x00\x01", b"abc", b"\x80\x81"], pa.binary())})
    path = str(tmp_path / "bin.parquet")
    parquet_write.write_table(table, path)
    got = pq.read_table(path)
    assert pa.types.is_binary(got.schema.field("raw").type) or pa.types.is_large_binary(
        got.schema.field("raw").type
    )
    assert got.column("raw").to_pylist() == table.column("raw").to_pylist()


def test_zero_row_table(tmp_path):
    table = pa.table({"x": pa.array([], pa.int64()), "s": pa.array([], pa.string())})
    path = str(tmp_path / "empty.parquet")
    parquet_write.write_table(table, path)
    got = pq.read_table(path)
    assert got.num_rows == 0
    assert got.column_names == ["x", "s"]


def test_decimal_and_fixed_len(tmp_path):
    import decimal
    import duckdb

    rng = np.random.default_rng(7)
    vals = [decimal.Decimal(int(v)).scaleb(-2) for v in rng.integers(-10**8, 10**8, 300)]
    vals[5] = None
    table = pa.table(
        {
            "d": pa.array(vals, pa.decimal128(12, 2)),
            "f": pa.array([bytes([65 + i % 26] * 4) for i in range(300)], pa.binary(4)),
        }
    )
    path = str(tmp_path / "dec.parquet")
    parquet_write.write_table(table, path)
    got = pq.read_table(path)
    assert got.column("d").to_pylist() == vals
    assert got.column("f").to_pylist() == table.column("f").to_pylist()
    cnt, mx = duckdb.sql(f"SELECT COUNT(d), MAX(d) FROM '{path}'").fetchone()
    assert cnt == 299
    assert mx == max(v for v in vals if v is not None)


@pytest.mark.parametrize("comp,ver", [
    ("snappy", "1.0"), ("zstd", "1.0"), ("gzip", "2.0"), ("zstd", "2.0"), (None, "2.0"),
])
def test_compressed_and_v2_pages(tmp_path, comp, ver):
    from rayenc.selector import EncodeConfig
    import duckdb

    table = pq.read_table("/root/testdata/sf0.001/lineitem.parquet")
    path = str(tmp_path / "c.parquet")
    parquet_write.write_table(
        table, path, EncodeConfig(compression=comp, parquet_page_version=ver),
        row_group_size=2500,
    )
    back = pq.read_table(path)
    for c in table.column_names:
        assert back.column(c).to_pylist() == table.column(c).to_pylist(), c
    md = pq.ParquetFile(path).metadata.row_group(0).column(0)
    assert md.compression == (comp or "uncompressed").upper().replace("GZIP", "GZIP")
    n = duckdb.sql(f"SELECT COUNT(*) FROM '{path}'").fetchone()[0]
    assert n == table.num_rows


@pytest.mark.parametrize(
    "comp", [None, "snappy", "gzip", "brotli", "zstd", "lz4", "lz4_hadoop", "lzo"]
)
def test_every_page_codec_roundtrips(tmp_path, comp):
    """Full CompressionCodec matrix (CompressionCodecName.java:26-33)
    through our writer: our conformance reader decodes every codec; pyarrow
    cross-checks all but LZO (not built there — the clean-room decoder in
    codecs/lzo.py exists precisely because of that)."""
    from rayenc.parquet_compat import read_table_conformance
    from rayenc.selector import EncodeConfig

    table = pq.read_table(
        "/root/testdata/sf0.001/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate", "l_quantity"],
    )
    path = str(tmp_path / f"{comp}.parquet")
    parquet_write.write_table(
        table, path, EncodeConfig(compression=comp), row_group_size=2500
    )
    back = read_table_conformance(path)
    for c in table.column_names:
        assert back.column(c).to_pylist() == table.column(c).to_pylist(), (comp, c)
    if comp != "lzo":
        pa_back = pq.read_table(path)
        for c in table.column_names:
            assert pa_back.column(c).to_pylist() == table.column(c).to_pylist()


def test_footer_statistics_and_size_statistics(tmp_path):
    import duckdb

    li = pq.read_table("/root/testdata/sf0.001/lineitem.parquet")
    path = str(tmp_path / "st.parquet")
    parquet_write.write_table(li, path, row_group_size=1500)
    md = pq.ParquetFile(path).metadata
    st = md.row_group(0).column(0).statistics
    assert st.has_min_max and st.null_count == 0
    ok = li.column("l_orderkey")[:1500]
    assert st.min == min(ok.to_pylist()) and st.max == max(ok.to_pylist())
    flag = duckdb.sql(
        f"SELECT stats_min_value, stats_max_value FROM parquet_metadata('{path}')"
        " WHERE path_in_schema='l_returnflag' AND row_group_id=0"
    ).fetchone()
    assert flag == ("A", "R")


def test_nested_null_counts_and_level_histograms(tmp_path):
    from tests.test_nested import gnarly_table

    t = gnarly_table()
    path = str(tmp_path / "nested.parquet")
    parquet_write.write_table(t, path)
    md = pq.ParquetFile(path).metadata.row_group(0)
    by_path = {
        md.column(i).path_in_schema: md.column(i) for i in range(md.num_columns)
    }
    # l = [[1,2], None, [], [None,5]] -> one null element + null/empty lists
    assert by_path["l.list.element"].statistics.null_count == 3  # null list + empty + null elem
    assert by_path["i"].statistics.null_count == 1


# -- minimal thrift compact reader (lists included) for page-index validation


def _rz(buf, i):
    from rayenc.codecs.varint import read_uvarint

    v, i = read_uvarint(buf, i)
    return (v >> 1) ^ -(v & 1), i


def _tvalue(buf, i, ftype):
    from rayenc.codecs.varint import read_uvarint

    if ftype == 3:
        return buf[i], i + 1
    if ftype in (4, 5, 6):
        return _rz(buf, i)
    if ftype == 8:
        ln, i = read_uvarint(buf, i)
        return bytes(buf[i : i + ln]), i + ln
    if ftype == 9:
        return _tlist(buf, i)
    if ftype == 12:
        return _tstruct(buf, i)
    raise AssertionError(ftype)


def _tlist(buf, i):
    from rayenc.codecs.varint import read_uvarint

    hdr = buf[i]
    i += 1
    size, etype = hdr >> 4, hdr & 0xF
    if size == 15:
        size, i = read_uvarint(buf, i)
    out = []
    for _ in range(size):
        if etype in (1, 2):
            out.append(buf[i] == 1)
            i += 1
        else:
            v, i = _tvalue(buf, i, etype)
            out.append(v)
    return out, i


def _tstruct(buf, i):
    fields, last = {}, 0
    while True:
        b = buf[i]
        i += 1
        if b == 0:
            return fields, i
        delta, ftype = b >> 4, b & 0xF
        if delta == 0:
            fid, i = _rz(buf, i)
            fid = int(fid)
        else:
            fid = last + delta
        last = fid
        if ftype == 1:
            fields[fid] = True
        elif ftype == 2:
            fields[fid] = False
        else:
            fields[fid], i = _tvalue(buf, i, ftype)


def test_column_and_offset_index_written(tmp_path):
    """Page-index structures (ColumnIndexBuilder / OffsetIndexBuilder output):
    per-page bounds, null pages, and page locations that point at real page
    headers."""
    from rayenc import parquet_compat
    from rayenc.selector import EncodeConfig

    n = 60_000
    table = pa.table(
        {
            "v": pa.array(np.arange(n, dtype=np.int64)),
            "s": pa.array([f"k{i:06d}" if i % 7 else None for i in range(n)]),
        }
    )
    path = str(tmp_path / "pi.parquet")
    parquet_write.write_table(table, path, EncodeConfig(page_rows=8000))
    raw = np.frombuffer(open(path, "rb").read(), np.uint8)
    flen = int.from_bytes(raw[-8:-4].tobytes(), "little")
    footer, _ = _tstruct(raw, len(raw) - 8 - flen)
    for ci_col, name in ((0, "v"), (1, "s")):
        cc = footer[4][0][1][ci_col]
        ci, _ = _tstruct(raw, cc[6])
        oi, _ = _tstruct(raw, cc[4])
        assert len(ci[1]) == len(oi[1]) >= 7  # pages
        assert not any(ci[1])  # no all-null pages here
        if name == "v":
            mins = [int.from_bytes(m, "little", signed=True) for m in ci[2]]
            maxs = [int.from_bytes(m, "little", signed=True) for m in ci[3]]
            assert mins[0] == 0 and maxs[-1] == n - 1
            assert mins == sorted(mins)
        else:
            assert sum(ci[5]) == len([1 for i in range(n) if i % 7 == 0])
        rows_total = 0
        for loc in oi[1]:
            h = parquet_compat.read_page_header(raw, loc[1])
            assert loc[2] == h.header_len + h.compressed_size
            assert loc[3] == rows_total
            rows_total += h.num_values
        assert rows_total == n
    # file remains readable by independent readers
    assert pq.read_table(path).num_rows == n


def test_write_tables_multi_rowgroup_merge(tmp_path):
    from rayenc.rewrite import merge_parquet

    t = pq.read_table(f"{SF}/orders.parquet")
    ins = []
    for i, p in enumerate([t.slice(0, 500), t.slice(500, 500), t.slice(1000)]):
        path = str(tmp_path / f"in{i}.parquet")
        pq.write_table(p, path)
        ins.append(path)
    out = str(tmp_path / "merged.parquet")
    merge_parquet(ins, out)
    assert pq.ParquetFile(out).metadata.num_row_groups == 3
    assert pq.read_table(out).cast(t.schema).equals(t)


def test_merge_encrypted_inputs_and_output(tmp_path):
    from rayenc.parquet_crypto import FileDecryption, FileEncryption
    from rayenc.parquet_read_enc import read_table_encrypted
    from rayenc.rewrite import merge_parquet

    fk = b"0123456789abcdef"
    t = pq.read_table(f"{SF}/region.parquet")
    ins = []
    for i, p in enumerate([t.slice(0, 2), t.slice(2)]):
        path = str(tmp_path / f"e{i}.parquet")
        parquet_write.write_table(p, path, encryption=FileEncryption(footer_key=fk))
        ins.append(path)
    out = str(tmp_path / "m.parquet")
    merge_parquet(
        ins, out,
        decryption=FileDecryption(footer_key=fk),
        encryption=FileEncryption(footer_key=fk),
    )
    got = read_table_encrypted(out, FileDecryption(footer_key=fk))
    assert got.cast(t.schema).equals(t)


# ------------------------------- FLOAT16 logical type (FLBA-2, field 15)


def test_float16_roundtrip_and_interop(tmp_path):
    """float16 writes as FLBA(2) + FLOAT16 logical type (parquet-format
    2.10; LogicalTypeAnnotation float16): our readers and pyarrow both
    recover halffloat exactly."""
    import numpy as np

    from rayenc.parquet_compat import read_table_conformance
    from rayenc.parquet_read_enc import read_table_encrypted

    vals = np.array([1.5, -2.25, 0.0, 65504.0, -0.0, 3.1], np.float16)
    t = pa.table({"h": pa.array(vals), "i": pa.array(range(6), pa.int64())})
    path = str(tmp_path / "f16.parquet")
    parquet_write.write_table(t, path, row_group_size=3)
    for reader in (read_table_encrypted, read_table_conformance):
        got = reader(path)
        assert got.column("h").type == pa.float16()
        assert got.column("h").to_pylist() == vals.tolist()
    back = pq.read_table(path)
    assert back.column("h").type == pa.float16()
    assert back.column("h").to_pylist() == vals.tolist()


def test_float16_statistics_order_and_zero_rule(tmp_path):
    """FLOAT16 stats order numerically (Float16Statistics): bounds are the
    2-byte halves, a zero min widens to -0.0 / zero max to +0.0, and NaN
    suppresses the bounds entirely."""
    import numpy as np

    from rayenc.parquet_read_enc import EncryptedFile

    t = pa.table({"h": pa.array(np.array([0.0, 2.5, 7.0], np.float16))})
    path = str(tmp_path / "f16s.parquet")
    parquet_write.write_table(t, path)
    st = EncryptedFile(path).chunk_meta(0, 0)[12]
    assert np.frombuffer(st[6], "<f2")[0] == 0.0
    assert np.signbit(np.frombuffer(st[6], "<f2")[0])  # min +0.0 -> -0.0
    assert np.frombuffer(st[5], "<f2")[0] == np.float16(7.0)

    t2 = pa.table({"h": pa.array(np.array([1.0, np.nan], np.float16))})
    path2 = str(tmp_path / "f16n.parquet")
    parquet_write.write_table(t2, path2)
    md = EncryptedFile(path2).chunk_meta(0, 0)
    assert md.get(12) is None or md[12].get(5) is None


def test_float16_reads_foreign_file(tmp_path):
    """A pyarrow-written FLOAT16 file decodes through our conformance
    reader with the halffloat type recovered."""
    import numpy as np

    from rayenc.parquet_compat import read_table_conformance

    vals = np.arange(20, dtype=np.float16) / 4
    path = str(tmp_path / "pa_f16.parquet")
    pq.write_table(pa.table({"h": pa.array(vals)}), path)
    got = read_table_conformance(path)
    assert got.column("h").type == pa.float16()
    assert got.column("h").to_pylist() == vals.tolist()


def test_float16_with_nulls(tmp_path):
    import numpy as np

    from rayenc.parquet_read_enc import read_table_encrypted

    arr = pa.array([np.float16(1.5), None, np.float16(-8.0), None],
                   pa.float16())
    t = pa.table({"h": arr})
    path = str(tmp_path / "f16null.parquet")
    parquet_write.write_table(t, path)
    got = read_table_encrypted(path)
    assert got.column("h").to_pylist() == arr.to_pylist()


# ---------------- per-column encoding overrides + extended BSS over FLBA


def test_parquet_column_encoding_overrides_apply(tmp_path):
    """column_encodings must reach the parquet encode planner (it was
    rebuilt without overrides); DELTA_BINARY_PACKED forced on an int
    column shows up in the chunk's encodings list."""
    import numpy as np

    from rayenc.parquet_read_enc import EncryptedFile, read_table_encrypted

    t = pa.table({"i": pa.array(np.arange(5000, dtype=np.int64))})
    path = str(tmp_path / "dbp.parquet")
    parquet_write.write_table(
        t, path, EncodeConfig(column_encodings={"i": "DELTA_BINARY_PACKED"})
    )
    assert 5 in EncryptedFile(path).chunk_meta(0, 0)[2]  # DELTA_BINARY_PACKED
    assert read_table_encrypted(path).equals(t)


def test_flba_byte_stream_split_override(tmp_path):
    """Extended BYTE_STREAM_SPLIT over FLBA (format 2.11) via explicit
    override: float16 byte planes transpose, read back by our readers AND
    pyarrow; auto-selection still avoids it for DuckDB compatibility."""
    import numpy as np

    from rayenc.parquet_compat import read_table_conformance
    from rayenc.parquet_read_enc import EncryptedFile, read_table_encrypted

    vals = np.linspace(-100, 100, 5000).astype(np.float16)
    t = pa.table({"h": pa.array(vals)})
    path = str(tmp_path / "bss.parquet")
    parquet_write.write_table(
        t, path,
        EncodeConfig(column_encodings={"h": "BYTE_STREAM_SPLIT"},
                     compression="zstd"),
    )
    assert 9 in EncryptedFile(path).chunk_meta(0, 0)[2]  # BYTE_STREAM_SPLIT
    for rd in (read_table_encrypted, read_table_conformance):
        assert rd(path).column("h").to_pylist() == vals.tolist()
    assert pq.read_table(path).column("h").to_pylist() == vals.tolist()
    auto = str(tmp_path / "auto.parquet")
    parquet_write.write_table(t, auto, EncodeConfig(compression="zstd"))
    import os

    # byte planes compress far better than row-major halves
    assert os.path.getsize(path) < 0.5 * os.path.getsize(auto)
    assert 9 not in EncryptedFile(auto).chunk_meta(0, 0)[2]


def test_non_parquet_override_falls_back(tmp_path):
    """An FSST override (container-only encoding) on a parquet file must
    fall back to automatic candidates, not crash or emit illegal pages."""
    from rayenc.parquet_read_enc import read_table_encrypted

    t = pa.table({"s": pa.array(["ab" * (i % 37) for i in range(500)])})
    path = str(tmp_path / "fsst.parquet")
    parquet_write.write_table(
        t, path, EncodeConfig(column_encodings={"s": "FSST"})
    )
    assert read_table_encrypted(path).equals(t)
    assert pq.read_table(path).equals(t)


def test_float16_predicate_pushdown(tmp_path):
    """Predicates on halffloat columns: FLBA-2 stats bounds decode as IEEE
    halves ('<e'), pages/groups prune numerically, and the exact filter
    widens to float32 (arrow has no halffloat comparison kernels)."""
    import numpy as np

    from rayenc.parquet_read_enc import read_table_filtered
    from rayenc.selector import EncodeConfig as EC

    vals = np.linspace(-10, 10, 10000).astype(np.float16)
    t = pa.table({
        "h": pa.array(vals),
        "i": pa.array(np.arange(10000, dtype=np.int64)),
    })
    path = str(tmp_path / "f16p.parquet")
    parquet_write.write_table(t, path, EC(page_rows=1000), row_group_size=2000)
    got = read_table_filtered(path, [("h", ">", 9.0)])
    assert got.num_rows == int((vals.astype(np.float32) > 9.0).sum())
    # out-of-range predicate: stats veto every row group -> empty result
    assert read_table_filtered(path, [("h", ">", 100.0)]).num_rows == 0
    assert read_table_filtered(path, [("h", "<=", -10.0)]).num_rows == int(
        (vals.astype(np.float32) <= -10.0).sum()
    )


# ---------------------------- raw chunk-copy merge (no value re-encode)


def test_merge_parquet_raw_stitches_chunks(tmp_path):
    """merge_parquet_raw copies column chunks verbatim and rewrites only
    footer offsets (the ParquetRewriter no-transform path): statistics,
    encodings and blooms carry over, all readers read the merged file,
    and the chunk payload bytes are bit-identical to the inputs."""
    import pyarrow.compute as pc

    from rayenc.parquet_read_enc import (
        EncryptedFile,
        bloom_might_contain,
        read_table_encrypted,
    )
    from rayenc.rewrite import merge_parquet_raw

    t = pq.read_table("/root/testdata/sf0.001/orders.parquet")
    a, b = t.slice(0, 1000), t.slice(1000)
    cfg = EncodeConfig(bloom_columns={"o_orderpriority"}, compression="zstd")
    pa_path, pb_path = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    parquet_write.write_table(a, pa_path, cfg, row_group_size=500)
    parquet_write.write_table(b, pb_path, cfg)
    out = str(tmp_path / "m.parquet")
    merge_parquet_raw([pa_path, pb_path], out)

    got = read_table_encrypted(out)
    assert got.cast(t.schema).equals(t)
    assert pq.read_table(out).cast(t.schema).equals(t)
    f = EncryptedFile(out)
    assert len(f.row_groups) == 3  # 2 + 1 stitched
    md = f.chunk_meta(0, 0)
    src = EncryptedFile(pa_path).chunk_meta(0, 0)
    assert md[12] == src[12]  # statistics copied verbatim
    assert md[2] == src[2]  # encodings list
    # chunk payload bytes identical to the source file
    fa = EncryptedFile(pa_path)
    s0 = src.get(11, src[9])
    d0 = md.get(11, md[9])
    assert bytes(fa.raw[s0 : s0 + src[7]]) == bytes(f.raw[d0 : d0 + md[7]])
    # blooms survive with shifted offsets
    assert all(bloom_might_contain(out, "o_orderpriority", "1-URGENT"))
    assert not any(bloom_might_contain(out, "o_orderpriority", "9-NOPE"))


def test_merge_parquet_raw_rejects_mismatch(tmp_path):
    import pytest as _pytest

    from rayenc.parquet_crypto import FileEncryption
    from rayenc.rewrite import merge_parquet_raw

    t = pq.read_table("/root/testdata/sf0.001/nation.parquet")
    p1, p2 = str(tmp_path / "1.parquet"), str(tmp_path / "2.parquet")
    parquet_write.write_table(t, p1)
    parquet_write.write_table(t.select(["n_nationkey"]), p2)
    with _pytest.raises(ValueError, match="schema"):
        merge_parquet_raw([p1, p2], str(tmp_path / "x.parquet"))
    p3 = str(tmp_path / "3.parquet")
    parquet_write.write_table(
        t, p3, encryption=FileEncryption(footer_key=b"0123456789abcdef")
    )
    # encrypted input refused (keyless parse already fails; with a key the
    # explicit plaintext check fires)
    with _pytest.raises(ValueError, match="plaintext|footer key"):
        merge_parquet_raw([p1, p3], str(tmp_path / "y.parquet"))


def test_prune_parquet_raw(tmp_path):
    """prune_parquet_raw drops columns by chunk copy: surviving chunks are
    bit-identical, the schema shrinks, and every reader agrees."""
    import pytest as _pytest

    from rayenc.parquet_read_enc import EncryptedFile, read_table_encrypted
    from rayenc.rewrite import prune_parquet_raw

    t = pq.read_table(f"{SF}/lineitem.parquet")
    src = str(tmp_path / "in.parquet")
    parquet_write.write_table(t, src, row_group_size=2000)
    out = str(tmp_path / "out.parquet")
    prune_parquet_raw(src, out, ["l_partkey", "l_shipdate"])
    want = t.drop_columns(["l_partkey", "l_shipdate"])
    got = read_table_encrypted(out)
    assert got.cast(want.schema).equals(want)
    assert pq.read_table(out).cast(want.schema).equals(want)
    assert "l_partkey" not in pq.read_schema(out).names
    # statistics survive on a kept column
    f = EncryptedFile(out)
    names = [lf.path[0] for lf in f.leaves]
    assert 12 in f.chunk_meta(0, names.index("l_orderkey"))
    with _pytest.raises(ValueError, match="no such columns"):
        prune_parquet_raw(src, out, ["nope"])
    with _pytest.raises(ValueError, match="every column"):
        prune_parquet_raw(src, out, list(t.column_names))


def test_mask_parquet_raw_hybrid(tmp_path):
    """Hybrid mask: the masked string column re-encodes as 16-hex content
    hashes (equal inputs -> equal masks, NDV preserved); every other
    chunk is a verbatim copy."""
    import pytest as _pytest

    from rayenc.parquet_read_enc import EncryptedFile, read_table_encrypted
    from rayenc.rewrite import mask_parquet_raw

    t = pq.read_table(f"{SF}/orders.parquet")
    src = str(tmp_path / "in.parquet")
    parquet_write.write_table(t, src, row_group_size=5000)
    out = str(tmp_path / "m.parquet")
    mask_parquet_raw(src, out, ["o_orderpriority"])
    got = read_table_encrypted(out)
    assert got.num_rows == t.num_rows and got.column_names == t.column_names
    op = got.column("o_orderpriority").to_pylist()
    orig = t.column("o_orderpriority").to_pylist()
    assert all(len(v) == 16 for v in op)
    assert len(set(op)) == len(set(orig))  # bijection on distinct values
    m = dict(zip(orig, op))
    assert all(m[o] == v for o, v in zip(orig, op))
    rest = t.drop_columns(["o_orderpriority"])
    assert got.drop_columns(["o_orderpriority"]).cast(rest.schema).equals(rest)
    # unmasked chunk payloads are bit-identical to the source
    fi, fo = EncryptedFile(src), EncryptedFile(out)
    ci = [lf.path[0] for lf in fi.leaves].index("o_custkey")
    mi, mo = fi.chunk_meta(0, ci), fo.chunk_meta(0, ci)
    s0, d0 = mi.get(11, mi[9]), mo.get(11, mo[9])
    assert bytes(fi.raw[s0 : s0 + mi[7]]) == bytes(fo.raw[d0 : d0 + mo[7]])
    assert pq.read_table(out).num_rows == t.num_rows
    with _pytest.raises(ValueError, match="string"):
        mask_parquet_raw(src, out, ["o_custkey"])


def test_mask_parquet_raw_keeps_chunk_statistics(tmp_path):
    # the masked chunk carries the Statistics of its hashes: the source's
    # null count, and the min/max of the masked values
    from rayenc.rewrite import mask_parquet_raw

    t = pa.table({"s": pa.array([None if i % 3 == 0 else f"v{i:03d}" for i in range(30)])})
    src, out = str(tmp_path / "in.parquet"), str(tmp_path / "m.parquet")
    parquet_write.write_table(t, src)
    mask_parquet_raw(src, out, ["s"])
    st = pq.ParquetFile(out).metadata.row_group(0).column(0).statistics
    hashes = pq.read_table(out)["s"]
    assert st is not None and st.has_min_max and st.null_count == 10 == hashes.null_count
    assert (st.min, st.max) == (pc.min(hashes).as_py(), pc.max(hashes).as_py())


@pytest.mark.parametrize("src_comp,src_ver,dst", [
    (None, "1.0", "zstd"), ("gzip", "2.0", "snappy"), ("zstd", "1.0", None),
])
def test_transcompress_parquet_raw(tmp_path, src_comp, src_ver, dst):
    """Page-level recompression without value decode: every page body is
    treated as opaque bytes, headers re-emit with fresh sizes/CRCs, the
    footer keeps statistics/encodings and only codec fields change."""
    from rayenc.parquet_read_enc import EncryptedFile, read_table_encrypted
    from rayenc.rewrite import transcompress_parquet_raw

    t = pq.read_table(f"{SF}/lineitem.parquet")
    src = str(tmp_path / "in.parquet")
    parquet_write.write_table(
        t, src,
        EncodeConfig(compression=src_comp, parquet_page_version=src_ver),
        row_group_size=2000,
    )
    out = str(tmp_path / "out.parquet")
    transcompress_parquet_raw(src, out, dst)
    got = read_table_encrypted(out)
    assert got.cast(t.schema).equals(t)
    assert pq.read_table(out).cast(t.schema).equals(t)
    fi, fo = EncryptedFile(src), EncryptedFile(out)
    mi, mo = fi.chunk_meta(0, 0), fo.chunk_meta(0, 0)
    assert mo.get(12) == mi.get(12)  # statistics survive untouched
    assert mo[2] == mi[2]  # encodings survive
    want_codec = {"zstd": 6, "snappy": 1, None: 0}[dst]
    assert mo[4] == want_codec


def test_transcompress_v2_with_nulls(tmp_path):
    """DataPageHeaderV2 num_nulls/num_rows must survive the header
    re-emit (they were not parsed before this round)."""
    from rayenc.rewrite import transcompress_parquet_raw

    vals = [None if i % 7 == 0 else float(i) for i in range(5000)]
    t = pa.table({"v": pa.array(vals, pa.float64())})
    src = str(tmp_path / "in.parquet")
    parquet_write.write_table(
        t, src,
        EncodeConfig(compression="gzip", parquet_page_version="2.0"),
        row_group_size=2000,
    )
    out = str(tmp_path / "out.parquet")
    transcompress_parquet_raw(src, out, "zstd")
    assert pq.read_table(out).cast(t.schema).equals(t)


def test_rename_parquet_raw(tmp_path):
    from rayenc.parquet_read_enc import read_table_encrypted
    from rayenc.rewrite import rename_parquet_raw

    t = pq.read_table(f"{SF}/nation.parquet")
    src = str(tmp_path / "in.parquet")
    parquet_write.write_table(t, src)
    out = str(tmp_path / "rn.parquet")
    rename_parquet_raw(src, out, {"n_name": "nation_name"})
    got = pq.read_table(out)
    assert got.column_names == ["n_nationkey", "nation_name", "n_regionkey"]
    assert got.column("nation_name").to_pylist() == t.column("n_name").to_pylist()
    assert read_table_encrypted(out).column_names == got.column_names


def test_row_group_bytes_flush(tmp_path):
    """Size-based row-group flush (InternalParquetRecordWriter.java:177-208
    checkBlockSizeReached): skewed list lengths still produce near-equal
    group byte sizes, and the file round-trips."""
    import numpy as np

    from rayenc.parquet_write import _row_byte_sizes, _slice_by_bytes

    rng = np.random.default_rng(7)
    lens = rng.integers(1, 1500, 3000)
    t = pa.table({
        "doc_id": [f"d{i:05d}" for i in range(3000)],
        "tokens": pa.array([list(range(int(l))) for l in lens], pa.list_(pa.int32())),
        "n_tok": pa.array(lens, pa.int32()),
        "source": pa.array([f"s{i % 5}" for i in range(3000)]),
    })
    target = 1_000_000
    slices = _slice_by_bytes(t, target)
    assert len(slices) > 3
    for s in slices[:-1]:
        got = int(_row_byte_sizes(s).sum())
        assert abs(got - target) <= target * 0.25 + 6000  # one max-row overshoot
    path = str(tmp_path / "rgb.parquet")
    parquet_write.write_table(t, path, row_group_bytes=target)
    f = pq.ParquetFile(path)
    assert f.metadata.num_row_groups == len(slices)
    back = pq.read_table(path)
    assert back.equals(t.cast(back.schema))
    # tiny table: single group, no degenerate empty slices
    parquet_write.write_table(t.slice(0, 3), path, row_group_bytes=target)
    assert pq.ParquetFile(path).metadata.num_row_groups == 1


def test_sorting_columns_and_kv_metadata(tmp_path):
    """SortingColumn (RowGroup field 4, ParquetProperties.sortingColumns)
    and user FileMetaData key/values (ParquetWriter extraMetaData) round
    through pyarrow AND our own footer parser."""
    from rayenc.parquet_read_enc import EncryptedFile

    t = pa.table({"a": pa.array(range(100), pa.int64()),
                  "b": [f"s{i}" for i in range(100)]}).sort_by(
        [("a", "descending")]
    )
    path = str(tmp_path / "skv.parquet")
    parquet_write.write_table(
        t, path, row_group_size=40,
        sorting_columns=[("a", True, False)],
        key_value_metadata={"origin": "unit-test"},
    )
    f = pq.ParquetFile(path)
    for rg in range(f.metadata.num_row_groups):
        (sc,) = f.metadata.row_group(rg).sorting_columns
        assert (sc.column_index, sc.descending, sc.nulls_first) == (0, True, False)
    assert f.metadata.metadata[b"origin"] == b"unit-test"
    ef = EncryptedFile(path)
    for rg in range(len(ef.row_groups)):
        (raw,) = ef.row_groups[rg].get(4)
        assert (raw.get(1), raw.get(2), raw.get(3)) == (0, True, False)
    assert pq.read_table(path).equals(t.cast(pq.read_table(path).schema))
    with pytest.raises(ValueError):
        parquet_write.write_table(
            t, path, sorting_columns=[("zzz", False, False)]
        )


def test_column_index_boundary_order(tmp_path):
    """calculateBoundaryOrder parity (ColumnIndexBuilder / BoundaryOrder):
    ASCENDING / DESCENDING when min+max page bounds are monotone under the
    column comparator, UNORDERED otherwise; unsigned columns order in the
    unsigned domain."""
    from rayenc.selector import EncodeConfig

    n = 30_000
    rng = np.random.default_rng(7)
    table = pa.table(
        {
            "asc": pa.array(np.arange(n, dtype=np.int64)),
            "desc": pa.array(np.arange(n, 0, -1, dtype=np.int32)),
            "rand": pa.array(rng.permutation(n).astype(np.int64)),
            "s_asc": pa.array([f"k{i:06d}" for i in range(n)]),
            # unsigned: sign-wrapped int32 view of ascending uint32 values
            # crossing 2^31 — signed ordering would call it UNORDERED
            "u_asc": pa.array(
                np.arange(n, dtype=np.uint32) + np.uint32((1 << 31) - n // 2),
                pa.uint32(),
            ),
        }
    )
    path = str(tmp_path / "bo.parquet")
    parquet_write.write_table(table, path, EncodeConfig(page_rows=4000))
    raw = np.frombuffer(open(path, "rb").read(), np.uint8)
    flen = int.from_bytes(raw[-8:-4].tobytes(), "little")
    footer, _ = _tstruct(raw, len(raw) - 8 - flen)
    orders = {}
    for ci_col, name in enumerate(table.column_names):
        cc = footer[4][0][1][ci_col]
        ci, _ = _tstruct(raw, cc[6])
        orders[name] = ci.get(4, 0)
    assert orders == {"asc": 1, "desc": 2, "rand": 0, "s_asc": 1, "u_asc": 1}
    assert pq.read_table(path).num_rows == n


def test_zstd_parquet_keeps_integer_byte_stream_split_forced_only(tmp_path):
    # the container ranks zstd chunks by compressed bytes and may pick
    # BYTE_STREAM_SPLIT for integers; Parquet files do not (DuckDB reads
    # it only for FLOAT/DOUBLE) unless a column_encodings entry forces it
    t = data.make_table(2000)
    auto = str(tmp_path / "auto.parquet")
    parquet_write.write_table(t, auto, EncodeConfig(compression="zstd"))
    md = pq.ParquetFile(auto).metadata
    ints = [
        md.row_group(g).column(i)
        for g in range(md.num_row_groups) for i in range(md.num_columns)
        if md.row_group(g).column(i).physical_type in ("INT32", "INT64")
    ]
    assert ints and not any("BYTE_STREAM_SPLIT" in c.encodings for c in ints)
    forced = str(tmp_path / "forced.parquet")
    parquet_write.write_table(
        t, forced,
        EncodeConfig(compression="zstd", column_encodings={"tokens/list/element": "BYTE_STREAM_SPLIT"}),
    )
    col = pq.ParquetFile(forced).metadata.row_group(0).column(1)
    assert col.path_in_schema == "tokens.list.element"
    assert "BYTE_STREAM_SPLIT" in col.encodings
    assert pq.read_table(forced).equals(t)
