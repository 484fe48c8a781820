"""Format conformance: rayenc decoders read pyarrow-written parquet pages
(SURVEY.md §5(c) cross-validation against independent ground truth)."""

import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import parquet_compat
from rayenc.codecs.dictionary import binary_array
from rayenc.parquet_read_enc import EncryptedFile


def write(tmp_path, table, **kw):
    path = str(tmp_path / "t.parquet")
    pq.write_table(table, path, compression="none", **kw)
    return path


def test_plain_int32_int64_float_double(tmp_path):
    rng = np.random.default_rng(0)
    table = pa.table(
        {
            "i32": pa.array(rng.integers(-(2**31), 2**31, 5000, dtype=np.int64).astype(np.int32)),
            "i64": pa.array(rng.integers(-(2**62), 2**62, 5000, dtype=np.int64)),
            "f32": pa.array(rng.random(5000).astype(np.float32)),
            "f64": pa.array(rng.random(5000)),
        }
    )
    path = write(tmp_path, table, use_dictionary=False)
    for col in table.column_names:
        got = parquet_compat.read_column_chunk(path, col)
        np.testing.assert_array_equal(got, table.column(col).to_numpy())


def test_delta_binary_packed(tmp_path):
    rng = np.random.default_rng(1)
    table = pa.table(
        {
            "sorted32": pa.array(np.sort(rng.integers(0, 10**6, 20000)).astype(np.int32)),
            "rand64": pa.array(rng.integers(-(2**40), 2**40, 20000, dtype=np.int64)),
        }
    )
    path = write(
        tmp_path,
        table,
        use_dictionary=False,
        column_encoding={"sorted32": "DELTA_BINARY_PACKED", "rand64": "DELTA_BINARY_PACKED"},
    )
    for col in table.column_names:
        got = parquet_compat.read_column_chunk(path, col)
        np.testing.assert_array_equal(got, table.column(col).to_numpy())


def test_dictionary_pages(tmp_path):
    rng = np.random.default_rng(2)
    strings = [f"source-{i}" for i in rng.integers(0, 30, 20000)]
    table = pa.table(
        {
            "s": pa.array(strings),
            "i": pa.array(rng.integers(0, 50, 20000).astype(np.int32)),
        }
    )
    path = write(tmp_path, table, use_dictionary=True)
    o, d = parquet_compat.read_column_chunk(path, "s")
    assert binary_array(o, d).cast(pa.string()).to_pylist() == strings
    np.testing.assert_array_equal(
        parquet_compat.read_column_chunk(path, "i"), table.column("i").to_numpy()
    )


def test_delta_strings_and_lengths(tmp_path):
    strings = sorted(f"prefix/shared/doc-{i:08d}" for i in range(5000))
    table = pa.table({"dba": pa.array(strings), "dlba": pa.array(strings)})
    path = write(
        tmp_path,
        table,
        use_dictionary=False,
        column_encoding={"dba": "DELTA_BYTE_ARRAY", "dlba": "DELTA_LENGTH_BYTE_ARRAY"},
    )
    for col in table.column_names:
        o, d = parquet_compat.read_column_chunk(path, col)
        assert binary_array(o, d).cast(pa.string()).to_pylist() == strings


def test_byte_stream_split(tmp_path):
    rng = np.random.default_rng(3)
    table = pa.table({"f": pa.array(rng.random(8000).astype(np.float32))})
    path = write(
        tmp_path, table, use_dictionary=False, column_encoding={"f": "BYTE_STREAM_SPLIT"}
    )
    np.testing.assert_array_equal(
        parquet_compat.read_column_chunk(path, "f"), table.column("f").to_numpy()
    )


def test_multiple_pages_and_row_groups(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.integers(0, 1000, 300_000).astype(np.int32)
    table = pa.table({"v": pa.array(vals)})
    path = str(tmp_path / "t.parquet")
    pq.write_table(
        table, path, compression="none", use_dictionary=False,
        data_page_size=4096, row_group_size=120_000,
        column_encoding={"v": "DELTA_BINARY_PACKED"},
    )
    f = pq.ParquetFile(path)
    got = np.concatenate(
        [parquet_compat.read_column_chunk(path, "v", rg) for rg in range(f.metadata.num_row_groups)]
    )
    np.testing.assert_array_equal(got, vals)


def test_real_testdata_snappy_pages():
    """The conformance reader handles the driver's actual (snappy) testdata."""
    path = "/root/testdata/sf0.001/lineitem.parquet"
    got = parquet_compat.read_column_chunk(path, "l_orderkey")
    want = pq.read_table(path, columns=["l_orderkey"])["l_orderkey"].to_numpy()
    np.testing.assert_array_equal(got, want)
    o, d = parquet_compat.read_column_chunk(path, "l_linestatus")
    want2 = pq.read_table(path, columns=["l_linestatus"])["l_linestatus"].to_pylist()
    assert binary_array(o, d).cast(pa.string()).to_pylist() == want2


def test_mixed_encoding_chunk_dict_fallback(tmp_path):
    """SURVEY §7.4: the reference can emit dict-encoded pages followed by
    plain pages in one chunk when the dictionary overflows mid-chunk
    (lastUsedDictionarySize semantics). Our page reader must handle the mix."""
    vals = [f"value-{i}" for i in range(50_000)]  # all distinct -> dict overflow
    path = str(tmp_path / "mixed.parquet")
    pq.write_table(
        pa.table({"s": pa.array(vals)}), path, compression="none",
        use_dictionary=True, dictionary_pagesize_limit=4096, data_page_size=16384,
    )
    encs = pq.ParquetFile(path).metadata.row_group(0).column(0).encodings
    assert "RLE_DICTIONARY" in encs and "PLAIN" in encs  # genuinely mixed
    o, d = parquet_compat.read_column_chunk(path, "s")
    assert binary_array(o, d).cast(pa.string()).to_pylist() == vals


def test_v2_data_pages(tmp_path):
    """DataPageHeaderV2 layout (ColumnWriterV2.java:43-56 analog): levels
    outside the (possibly compressed) body, counts in the header."""
    rng = np.random.default_rng(0)
    vals = np.sort(rng.integers(0, 10**6, 30000)).astype(np.int32)
    p1 = str(tmp_path / "v2.parquet")
    pq.write_table(
        pa.table({"v": pa.array(vals)}), p1, compression="none",
        use_dictionary=False, column_encoding={"v": "DELTA_BINARY_PACKED"},
        data_page_version="2.0",
    )
    np.testing.assert_array_equal(parquet_compat.read_column_chunk(p1, "v"), vals)
    strs = [f"s-{i % 50}" for i in range(30000)]
    p2 = str(tmp_path / "v2s.parquet")
    pq.write_table(
        pa.table({"s": pa.array(strs)}), p2, compression="none",
        use_dictionary=True, data_page_version="2.0",
    )
    o, d = parquet_compat.read_column_chunk(p2, "s")
    assert binary_array(o, d).cast(pa.string()).to_pylist() == strs


def test_v2_compressed_pages(tmp_path):
    """V2 + codec: levels uncompressed, body compressed (is_compressed flag)."""
    rng = np.random.default_rng(1)
    vals = rng.integers(0, 10**6, 30000).astype(np.int64)
    p = str(tmp_path / "v2c.parquet")
    pq.write_table(
        pa.table({"v": pa.array(vals)}), p, compression="snappy",
        use_dictionary=True, data_page_version="2.0",
    )
    np.testing.assert_array_equal(parquet_compat.read_column_chunk(p, "v"), vals)


def test_flba_and_decimal_chunks(tmp_path):
    rng = np.random.default_rng(2)
    vals = [bytes(rng.integers(0, 8, 16).tolist()) for _ in range(5000)]
    p1 = str(tmp_path / "flba.parquet")
    pq.write_table(
        pa.table({"f": pa.array(vals, pa.binary(16))}), p1,
        compression="none", use_dictionary=True,
    )
    got = parquet_compat.read_column_chunk(p1, "f")
    assert [bytes(r) for r in got] == vals
    import decimal

    decs = [decimal.Decimal(f"{i}.{i % 100:02d}") for i in range(5000)]
    p2 = str(tmp_path / "dec.parquet")
    pq.write_table(
        pa.table({"d": pa.array(decs, pa.decimal128(12, 2))}), p2,
        compression="none", use_dictionary=False,
    )
    got2 = parquet_compat.read_column_chunk(p2, "d")
    # parquet decimal-over-FLBA is big-endian two's complement of the scaled int
    assert int.from_bytes(bytes(got2[7]), "big", signed=True) == 707


def test_nullable_column_chunks(tmp_path):
    """Def levels with real nulls: reader returns (dense values, validity)."""
    vals = [1, None, 3, None, 5] * 1000
    p = str(tmp_path / "nulls.parquet")
    pq.write_table(
        pa.table({"v": pa.array(vals, pa.int64())}), p,
        compression="none", use_dictionary=False,
    )
    dense, valid = parquet_compat.read_column_chunk(p, "v")
    assert len(dense) == 3000 and valid.sum() == 3000
    restored = np.full(len(valid), -1, np.int64)
    restored[valid] = dense
    want = np.array([v if v is not None else -1 for v in vals])
    np.testing.assert_array_equal(restored, want)
    # V2 pages too
    p2 = str(tmp_path / "nulls2.parquet")
    pq.write_table(
        pa.table({"v": pa.array(vals, pa.int64())}), p2,
        compression="none", use_dictionary=True, data_page_version="2.0",
    )
    dense2, valid2 = parquet_compat.read_column_chunk(p2, "v")
    restored2 = np.full(len(valid2), -1, np.int64)
    restored2[valid2] = dense2
    np.testing.assert_array_equal(restored2, want)


def test_int96_timestamps():
    # deprecated Spark/Impala layout (Encoding.java:63): nanos-in-day + Julian day
    import datetime

    ts = [
        datetime.datetime(2020, 1, 1) + datetime.timedelta(seconds=i * 12345)
        for i in range(5000)
    ]
    t = pa.table({"ts": pa.array(ts, pa.timestamp("ns"))})
    path = tempfile.mktemp(suffix=".parquet")
    pq.write_table(t, path, use_deprecated_int96_timestamps=True, compression="NONE")
    assert pq.ParquetFile(path).metadata.row_group(0).column(0).physical_type == "INT96"
    vals = parquet_compat.read_column_chunk(path, "ts")
    ns = parquet_compat.int96_to_timestamp_ns(vals)
    np.testing.assert_array_equal(ns, t.column("ts").cast(pa.int64()).to_numpy())


def test_page_crc_written_and_verified():
    from rayenc import parquet_write

    li = pq.read_table("/root/testdata/sf0.001/lineitem.parquet")
    path = tempfile.mktemp(suffix=".parquet")
    parquet_write.write_table(li, path)
    # pyarrow verifies our CRCs
    assert pq.read_table(path, page_checksum_verification=True).num_rows == li.num_rows
    # our reader verifies them too, and detects corruption
    v = parquet_compat.read_column_chunk(path, "l_orderkey")
    np.testing.assert_array_equal(np.asarray(v), li.column("l_orderkey").to_numpy())
    raw = bytearray(open(path, "rb").read())
    off = pq.ParquetFile(path).metadata.row_group(0).column(0).data_page_offset
    raw[off + 60] ^= 0xFF
    bad = tempfile.mktemp(suffix=".parquet")
    open(bad, "wb").write(bytes(raw))
    with pytest.raises(ValueError, match="CRC"):
        parquet_compat.read_column_chunk(bad, "l_orderkey")


def _read_field(path, name):
    """Column ``name`` of row group 0, decoded with rayenc's kernels."""
    f = EncryptedFile(path)
    return f.read_field(0, f.arrow_schema().field(name))


class TestListConformance:
    """Repeated-column read path: real rep/def levels decoded by rayenc only
    (List3Levels.java shape), verified against pyarrow's own read."""

    def test_embeddings_list_floats(self):
        p = "/root/testdata/sf0.001/embeddings.parquet"
        got = _read_field(p, "embedding")
        assert got.equals(pq.read_table(p).column("embedding").combine_chunks())

    def test_nullable_lists_with_null_elements(self):
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(20000):
            r = rng.random()
            if r < 0.1:
                rows.append(None)
            elif r < 0.2:
                rows.append([])
            else:
                rows.append(
                    [
                        None if rng.random() < 0.1 else int(x)
                        for x in rng.integers(0, 1000, rng.integers(1, 6))
                    ]
                )
        t = pa.table({"l": pa.array(rows, pa.list_(pa.int32()))})
        path = tempfile.mktemp(suffix=".parquet")
        pq.write_table(t, path, compression="NONE", data_page_size=4096)
        got = _read_field(path, "l")
        assert got.equals(pq.read_table(path).column("l").combine_chunks())

    def test_snappy_string_lists(self):
        t = pa.table(
            {"s": pa.array([["a", "bb"], None, [], ["ccc", None]] * 500, pa.list_(pa.string()))}
        )
        path = tempfile.mktemp(suffix=".parquet")
        pq.write_table(t, path, compression="SNAPPY")
        got = _read_field(path, "s")
        assert got.equals(pq.read_table(path).column("s").combine_chunks())

    def test_own_writer_roundtrip_through_conformance_reader(self):
        from rayenc import parquet_write
        from rayenc.selector import EncodeConfig

        t = pa.table(
            {"l": pa.array([[1, 2], None, [], [None, 5]] * 400, pa.list_(pa.int64()))}
        )
        path = tempfile.mktemp(suffix=".parquet")
        parquet_write.write_table(t, path, EncodeConfig(compression="zstd"))
        got = _read_field(path, "l")
        assert got.equals(pq.read_table(path).column("l").combine_chunks())
        assert got.to_pylist() == t.column("l").to_pylist()


def test_read_table_conformance_all_tables():
    d = "/root/testdata/sf0.001"
    import os

    import pyarrow.compute  # noqa: F401

    from rayenc.parquet_read_enc import read_table_encrypted, read_table_filtered

    for name in [
        "region", "nation", "customer", "supplier", "part",
        "orders", "lineitem", "events", "documents", "embeddings",
    ]:
        p = os.path.join(d, f"{name}.parquet")
        got = parquet_compat.read_table_conformance(p)
        want = pq.read_table(p)
        for c in want.column_names:
            assert got.column(c).combine_chunks().equals(
                want.column(c).combine_chunks()
            ), (name, c)
        # the encrypted and filtered entry points share the body, and the
        # schema comes from the footer: timestamp units follow the leaf,
        # not the writer's ARROW:schema (sf0.001 stores timestamp[s]/[ns]
        # there over microsecond pages)
        first_int = next(
            f.name for f in want.schema if pa.types.is_integer(f.type)
        )
        lo = pa.compute.min(want.column(first_int)).as_py()
        for read in (
            parquet_compat.read_table_conformance,
            read_table_encrypted,
            lambda p: read_table_filtered(p, [(first_int, ">=", lo)]),
        ):
            assert read(p).equals(want), (name, read)


def test_struct_column_conformance():
    t = pa.table(
        {
            "s": pa.array(
                [{"a": 1, "b": "x"}, None, {"a": None, "b": "z"}, {"a": 4, "b": None}]
                * 3000,
                pa.struct([("a", pa.int64()), ("b", pa.string())]),
            ),
            "i": pa.array(list(range(12000)), pa.int64()),
        }
    )
    for comp in ("NONE", "SNAPPY"):
        path = tempfile.mktemp(suffix=".parquet")
        pq.write_table(t, path, compression=comp, data_page_size=8192)
        got = parquet_compat.read_table_conformance(path)
        want = pq.read_table(path)
        for c in want.column_names:
            assert got.column(c).combine_chunks().equals(
                want.column(c).combine_chunks()
            ), (comp, c)


def test_bit_packed_levels_reference_semantics():
    """Deprecated BIT_PACKED level encoding, BIG_ENDIAN per the reference
    (Encoding.java:155-158). parquet-cpp/pyarrow reads these levels LSB-first
    instead (a cross-implementation discrepancy in the deprecated encoding),
    so the round trip here is rayenc writer -> rayenc reader."""
    from rayenc import parquet_write
    from rayenc.codecs.bitpack import pack_msb, unpack_msb
    from rayenc.selector import EncodeConfig

    rng = np.random.default_rng(2)
    for w in range(1, 9):
        vals = rng.integers(0, 1 << w, 300, dtype=np.uint64)
        back = unpack_msb(
            np.frombuffer(pack_msb(vals, w), np.uint8), 300, w, np.uint64
        )
        np.testing.assert_array_equal(back, vals)

    t = pa.table(
        {
            "x": pa.array([1, None, 3, None, 5] * 2000, pa.int64()),
            "l": pa.array(
                [[1, 2], None, [], [3], [4, 5, 6]] * 2000, pa.list_(pa.int32())
            ),
        }
    )
    path = tempfile.mktemp(suffix=".parquet")
    parquet_write.write_table(t, path, EncodeConfig(level_encoding="BIT_PACKED"))
    vals, valid = parquet_compat.read_column_chunk(path, "x")
    assert valid.sum() == 6000 and len(valid) == 10000
    np.testing.assert_array_equal(
        np.asarray(vals), np.tile([1, 3, 5], 2000)
    )
    lc = _read_field(path, "l")
    assert lc.to_pylist() == t.column("l").to_pylist()


def test_boolean_rle_values_read():
    # RLE as VALUE encoding (boolean): framed in both V1 and V2 pages
    t = pa.table({"b": pa.array(np.repeat([True, False], 3000))})
    p1 = tempfile.mktemp(suffix=".parquet")
    pq.write_table(t, p1, data_page_version="2.0", compression="NONE", use_dictionary=False)
    assert parquet_compat.read_table_conformance(p1).column("b").to_pylist() == t.column("b").to_pylist()
    from rayenc import parquet_write

    p2 = tempfile.mktemp(suffix=".parquet")
    parquet_write.write_table(t, p2)
    assert parquet_compat.read_table_conformance(p2).column("b").to_pylist() == t.column("b").to_pylist()


@pytest.mark.parametrize("comp,ver", [("NONE", "1.0"), ("SNAPPY", "2.0"), ("ZSTD", "2.0")])
def test_read_table_conformance_pyarrow_variants(comp, ver):
    src = pq.read_table("/root/testdata/sf0.001/lineitem.parquet")
    path = tempfile.mktemp(suffix=".parquet")
    pq.write_table(src, path, compression=comp, data_page_version=ver, row_group_size=2000)
    got = parquet_compat.read_table_conformance(path)
    want = pq.read_table(path)
    for c in want.column_names:
        assert got.column(c).combine_chunks().equals(want.column(c).combine_chunks()), c


def _nested_fixture(n=4000, seed=7):
    import decimal

    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "m": pa.array(
                [
                    None
                    if i % 7 == 0
                    else [
                        (f"k{j}", int(rng.integers(0, 100)))
                        for j in range(int(rng.integers(0, 4)))
                    ]
                    for i in range(n)
                ],
                pa.map_(pa.string(), pa.int64()),
            ),
            "d": pa.array(
                [
                    None
                    if i % 11 == 0
                    else decimal.Decimal(int(rng.integers(-(10**11), 10**11))) / 100
                    for i in range(n)
                ],
                pa.decimal128(12, 2),
            ),
            "ls": pa.array(
                [
                    None
                    if i % 13 == 0
                    else [
                        {
                            "x": None if j % 3 == 0 else j,
                            "y": None if j % 5 == 0 else f"s{j}",
                        }
                        for j in range(int(rng.integers(0, 3)))
                    ]
                    for i in range(n)
                ],
                pa.list_(pa.struct([("x", pa.int64()), ("y", pa.string())])),
            ),
        }
    )


def test_conformance_map_decimal_list_struct_pyarrow():
    t = _nested_fixture()
    path = tempfile.mktemp(suffix=".parquet")
    pq.write_table(t, path, row_group_size=1100)
    got = parquet_compat.read_table_conformance(path)
    assert got.cast(t.schema).equals(t)


def test_conformance_map_decimal_list_struct_own_writer():
    # read-what-we-write: our Dremel writer's nested output through our reader
    from rayenc import parquet_write

    t = _nested_fixture()
    path = tempfile.mktemp(suffix=".parquet")
    parquet_write.write_table(t, path, row_group_size=1500)
    got = parquet_compat.read_table_conformance(path)
    assert got.cast(t.schema).equals(t)


def test_conformance_duckdb_decimal_storage():
    # DuckDB stores DECIMAL(<=9) as INT32, (<=18) as INT64, wider as FLBA
    import duckdb

    path = tempfile.mktemp(suffix=".parquet")
    duckdb.connect().execute(
        "COPY (SELECT (i/100.0)::DECIMAL(9,2) AS d9,"
        " (i*1000000/100.0)::DECIMAL(18,2) AS d18,"
        " (i/100.0)::DECIMAL(30,4) AS d30 FROM range(-500,500) t(i))"
        f" TO '{path}' (FORMAT PARQUET)"
    )
    got = parquet_compat.read_table_conformance(path)
    assert got.equals(pq.read_table(path))


def test_conformance_struct_with_decimal_child():
    import decimal

    t = pa.table(
        {
            "s": pa.array(
                [
                    None if i % 5 == 0 else
                    {"a": decimal.Decimal(i) / 4 if i % 3 else None, "b": i}
                    for i in range(1000)
                ],
                pa.struct([("a", pa.decimal128(10, 2)), ("b", pa.int64())]),
            )
        }
    )
    path = tempfile.mktemp(suffix=".parquet")
    pq.write_table(t, path)
    got = parquet_compat.read_table_conformance(path)
    assert got.cast(t.schema).equals(t)


def _deep_nested_fixture(n=3000, seed=11):
    import decimal

    rng = np.random.default_rng(seed)

    def rlist(f, p_null=0.1, mx=3):
        return [
            None if rng.random() < p_null
            else [f(j) for j in range(int(rng.integers(0, mx)))]
            for _ in range(n)
        ]

    return pa.table(
        {
            "ll": pa.array(
                rlist(lambda j: None if j % 4 == 0
                      else [int(x) for x in rng.integers(0, 100, j)]),
                pa.list_(pa.list_(pa.int64())),
            ),
            "sl": pa.array(
                [
                    None if i % 7 == 0 else
                    {"name": f"n{i}",
                     "vals": None if i % 5 == 0
                     else [int(x) for x in rng.integers(0, 9, i % 4)]}
                    for i in range(n)
                ],
                pa.struct([("name", pa.string()), ("vals", pa.list_(pa.int32()))]),
            ),
            "ss": pa.array(
                [
                    None if i % 11 == 0 else
                    {"a": {"x": i, "y": None if i % 3 else f"y{i}"}, "b": float(i)}
                    for i in range(n)
                ],
                pa.struct(
                    [("a", pa.struct([("x", pa.int64()), ("y", pa.string())])),
                     ("b", pa.float64())]
                ),
            ),
            "mv": pa.array(
                [
                    None if i % 13 == 0 else
                    [(f"k{j}", {"q": j, "d": decimal.Decimal(j * 7) / 4})
                     for j in range(i % 3)]
                    for i in range(n)
                ],
                pa.map_(pa.string(),
                        pa.struct([("q", pa.int64()), ("d", pa.decimal128(10, 2))])),
            ),
            "flat": pa.array(rng.integers(0, 1000, n)),
        }
    )


@pytest.mark.parametrize("writer", ["pyarrow", "rayenc"])
def test_general_dremel_assembly_deep_nesting(writer):
    # two-level lists, list-in-struct, struct-in-struct, map-of-struct —
    # every shape the writer emits must read back (read-what-we-write)
    from rayenc import parquet_write

    t = _deep_nested_fixture()
    path = tempfile.mktemp(suffix=".parquet")
    if writer == "pyarrow":
        pq.write_table(t, path, row_group_size=1000)
    else:
        parquet_write.write_table(t, path, row_group_size=1000)
    got = parquet_compat.read_table_conformance(path)
    assert got.cast(t.schema).equals(t)


def test_general_dremel_assembly_encrypted():
    from rayenc import parquet_write
    from rayenc.parquet_crypto import FileDecryption, FileEncryption
    from rayenc.parquet_read_enc import read_table_encrypted

    fk = b"0123456789abcdef"
    t = _deep_nested_fixture(n=1200)
    path = tempfile.mktemp(suffix=".parquet")
    parquet_write.write_table(
        t, path, row_group_size=500, encryption=FileEncryption(footer_key=fk)
    )
    got = read_table_encrypted(path, FileDecryption(footer_key=fk))
    assert got.cast(t.schema).equals(t)


def test_dictionary_fallback_mixed_pages():
    # pyarrow overflows its dictionary mid-chunk and falls back to PLAIN
    # pages after the RLE_DICTIONARY ones (DictionaryValuesWriter fallback
    # semantics) — the page walk must dispatch per-page encoding
    rng = np.random.default_rng(0)
    vals = [f"value-{i:08d}-{rng.integers(0, 10**9)}" for i in range(50_000)]
    t = pa.table({"s": pa.array(vals)})
    path = tempfile.mktemp(suffix=".parquet")
    pq.write_table(
        t, path, use_dictionary=True, dictionary_pagesize_limit=4096,
        data_page_size=16 << 10, row_group_size=25_000,
    )
    encodings = pq.ParquetFile(path).metadata.row_group(0).column(0).encodings
    assert "PLAIN" in encodings and "RLE_DICTIONARY" in encodings
    assert parquet_compat.read_table_conformance(path).equals(t)


# ---------------------------------------------------------------------------
# Schema evolution (MessageType.union / GlobalMetaData merged-footer reads)
# ---------------------------------------------------------------------------


def test_union_schemas_strict_matches_reference_rules():
    a = pa.schema([("k", pa.int64()), ("v", pa.int32())])
    b = pa.schema([("v", pa.int32()), ("extra", pa.string())])
    uni = parquet_compat.union_schemas([a, b])
    # first schema's order, new fields appended nullable
    assert uni.names == ["k", "v", "extra"]
    assert uni.field("extra").nullable
    # strict refuses differing primitive types (PrimitiveType.java:887)
    c = pa.schema([("v", pa.int64())])
    with pytest.raises(parquet_compat.IncompatibleSchemaError):
        parquet_compat.union_schemas([a, c])
    # FLBA length conflict (decimal precision changes byte width)
    f1 = pa.schema([("d", pa.decimal128(10, 2))])
    f2 = pa.schema([("d", pa.decimal128(20, 2))])
    with pytest.raises(parquet_compat.IncompatibleSchemaError):
        parquet_compat.union_schemas([f1, f2])


def test_union_schemas_widening():
    uni = parquet_compat.union_schemas(
        [
            pa.schema([("a", pa.int32()), ("b", pa.float32()), ("c", pa.int32()),
                       ("d", pa.uint32()), ("e", pa.decimal128(10, 2))]),
            pa.schema([("a", pa.int64()), ("b", pa.float64()), ("c", pa.float32()),
                       ("d", pa.int32()), ("e", pa.decimal128(20, 2))]),
        ],
        strict=False,
    )
    assert uni.field("a").type == pa.int64()
    assert uni.field("b").type == pa.float64()
    assert uni.field("c").type == pa.float64()   # int32 + float -> double
    assert uni.field("d").type == pa.int64()     # uint32 + int32 -> int64
    assert uni.field("e").type == pa.decimal128(20, 2)
    # int64 + float32 has no lossless widening
    with pytest.raises(parquet_compat.IncompatibleSchemaError):
        parquet_compat.union_schemas(
            [pa.schema([("x", pa.int64())]), pa.schema([("x", pa.float32())])],
            strict=False,
        )
    # string + int is never mergeable
    with pytest.raises(parquet_compat.IncompatibleSchemaError):
        parquet_compat.union_schemas(
            [pa.schema([("x", pa.string())]), pa.schema([("x", pa.int32())])],
            strict=False,
        )


def test_union_schemas_recurses_into_groups():
    a = pa.schema([("s", pa.struct([("x", pa.int64())])),
                   ("l", pa.list_(pa.int32()))])
    b = pa.schema([("s", pa.struct([("x", pa.int64()), ("y", pa.string())])),
                   ("l", pa.list_(pa.int64()))])
    uni = parquet_compat.union_schemas([a, b], strict=False)
    assert uni.field("s").type == pa.struct([("x", pa.int64()), ("y", pa.string())])
    assert uni.field("l").type == pa.list_(pa.int64())
    # strict still recurses but refuses the widened leaf
    with pytest.raises(parquet_compat.IncompatibleSchemaError):
        parquet_compat.union_schemas([a, b])


def test_read_tables_evolved_own_writer(tmp_path):
    from rayenc import parquet_write

    a = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                  "v": pa.array([10, 20, 30], pa.int32()),
                  "s": ["a", "b", "c"]})
    b = pa.table({"k": pa.array([4, 5], pa.int64()),
                  "v": pa.array([2 ** 40, -7], pa.int64()),
                  "t": pa.array([0.5, 1.5], pa.float64())})
    pa_, pb = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    parquet_write.write_table(a, pa_)
    parquet_write.write_table(b, pb)
    got = parquet_compat.read_tables_evolved([pa_, pb], strict=False)
    want = pa.table({
        "k": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "v": pa.array([10, 20, 30, 2 ** 40, -7], pa.int64()),
        "s": pa.array(["a", "b", "c", None, None]),
        "t": pa.array([None, None, None, 0.5, 1.5], pa.float64()),
    })
    assert got.equals(want.cast(got.schema))
    # column projection over the union
    got2 = parquet_compat.read_tables_evolved([pa_, pb], strict=False,
                                              columns=["k", "t"])
    assert got2.column_names == ["k", "t"]
    assert got2.column("t").to_pylist() == [None, None, None, 0.5, 1.5]
    # strict mode refuses the widened column
    with pytest.raises(parquet_compat.IncompatibleSchemaError):
        parquet_compat.read_tables_evolved([pa_, pb])


def test_align_table_struct_added_subfield(tmp_path):
    a = pa.table({"s": pa.array([{"x": 1}, None], pa.struct([("x", pa.int64())]))})
    uni = pa.schema([
        ("s", pa.struct([("x", pa.int64()), ("y", pa.string())])),
        ("n", pa.int32()),
    ])
    out = parquet_compat.align_table(a, uni)
    assert out.schema.equals(uni)
    assert out.column("s").to_pylist() == [{"x": 1, "y": None}, None]
    assert out.column("n").to_pylist() == [None, None]


def test_read_parquet_evolved_distributed(tmp_path, ray_session):
    import ray

    from rayenc import parquet_write, pipeline

    paths = []
    for i in range(3):
        cols = {"k": pa.array([i * 10 + j for j in range(4)], pa.int64()),
                "v": pa.array([j + i for j in range(4)], pa.int32())}
        if i == 2:
            cols["v"] = cols["v"].cast(pa.int64())
            cols["w"] = pa.array([float(j) for j in range(4)], pa.float64())
        p = str(tmp_path / f"f{i}.parquet")
        parquet_write.write_table(pa.table(cols), p)
        paths.append(p)
    ds = pipeline.read_parquet_evolved(paths, strict=False)
    got = pa.concat_tables(
        [ray.get(r) for r in ds.to_arrow_refs()]
    ).sort_by("k")
    want = parquet_compat.read_tables_evolved(paths, strict=False).sort_by("k")
    assert got.equals(want)


def test_read_table_conformance_column_pruning(tmp_path):
    t = pa.table({"a": pa.array(range(100), pa.int64()),
                  "b": [f"s{i}" for i in range(100)],
                  "c": pa.array([float(i) for i in range(100)])})
    path = write(tmp_path, t)
    got = parquet_compat.read_table_conformance(path, columns=["c", "a"])
    assert got.column_names == ["c", "a"]
    assert got.column("a").to_pylist() == list(range(100))
    # unknown names are ignored (evolved-schema callers pass union names)
    got2 = parquet_compat.read_table_conformance(path, columns=["a", "zzz"])
    assert got2.column_names == ["a"]


def test_read_parquet_evolved_with_predicate(tmp_path, ray_session):
    """Predicate pushdown composed with evolution: files lacking the
    predicate column contribute no rows (SQL null semantics), files that
    have it get the pushdown path, Or-trees mix both."""
    import ray

    from rayenc import parquet_write, pipeline
    from rayenc.predicate import Eq, Gt, Or

    a = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                  "v": pa.array([10, 20, 30], pa.int32())})
    b = pa.table({"k": pa.array([4, 5, 6], pa.int64()),
                  "v": pa.array([40, 50, 60], pa.int64()),
                  "t": pa.array([0.1, 0.9, 0.5], pa.float64())})
    pa_, pb = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    parquet_write.write_table(a, pa_)
    parquet_write.write_table(b, pb)

    def run(pred, cols=None):
        ds = pipeline.read_parquet_evolved(
            [pa_, pb], strict=False, predicate=pred, columns=cols
        )
        parts = [ray.get(r) for r in ds.to_arrow_refs()]
        parts = [p for p in parts if p.num_rows]
        return (pa.concat_tables(parts).sort_by("k") if parts
                else pa.table({"k": pa.array([], pa.int64())}))

    # predicate column only in gen1: gen0 rows all fail (null > 0.4 is null)
    got = run(Gt("t", 0.4))
    assert got.column("k").to_pylist() == [5, 6]
    # both-generations column, widened type
    got = run(Gt("v", 25))
    assert got.column("k").to_pylist() == [3, 4, 5, 6]
    # Or across a missing and a present column (Kleene: null OR true = true)
    got = run(Or(Eq("t", 0.1), Eq("v", 20)))
    assert got.column("k").to_pylist() == [2, 4]
    # predicate column dropped from a projection that excludes it
    got = run(Gt("t", 0.4), cols=["k"])
    assert got.column_names == ["k"] and got.column("k").to_pylist() == [5, 6]
    # predicate on a column no file has
    with pytest.raises(ValueError):
        run(Eq("zzz", 1))


def test_empty_table_and_zero_row_row_groups(tmp_path):
    """ParquetFileWriter writes NO row group for zero records; readers must
    also survive foreign files that do carry 0-row row groups."""
    from rayenc import parquet_write
    from rayenc.parquet_read_enc import read_table_filtered

    t = pa.table({"a": pa.array([], pa.int64()), "s": pa.array([], pa.string())})
    p = str(tmp_path / "empty.parquet")
    parquet_write.write_table(t, p)
    assert pq.ParquetFile(p).metadata.num_row_groups == 0
    got = parquet_compat.read_table_conformance(p)
    assert got.num_rows == 0 and got.schema.names == ["a", "s"]
    assert pq.read_table(p).num_rows == 0
    assert read_table_filtered(p, [("a", ">", 0)]).num_rows == 0
    # foreign file with an interior 0-row row group
    p2 = str(tmp_path / "zrg.parquet")
    w = pq.ParquetWriter(p2, t.schema)
    w.write_table(pa.table({"a": pa.array([1], pa.int64()), "s": pa.array(["x"])}))
    w.write_table(t)
    w.close()
    assert pq.ParquetFile(p2).metadata.num_row_groups == 2
    got2 = parquet_compat.read_table_conformance(p2)
    assert got2.num_rows == 1 and got2["a"].to_pylist() == [1]


def test_thrift_parser_raises_value_error_on_bad_input():
    """The one compact-protocol parser is total: truncated page headers and
    footers, and unknown field types, raise ValueError — never IndexError
    or NotImplementedError."""
    import struct

    from rayenc import parquet_write
    from rayenc.parquet_compat import _read_struct, read_page_header

    path = tempfile.mktemp(suffix=".parquet")
    parquet_write.write_table(pa.table({"v": pa.array(np.arange(100))}), path)
    raw = open(path, "rb").read()
    h = read_page_header(raw, 4)
    for cut in range(h.header_len):
        with pytest.raises(ValueError):
            read_page_header(raw[4 : 4 + cut], 0)
    with pytest.raises(ValueError, match="unknown thrift compact type"):
        _read_struct(bytes([0x1D, 0x00]), 0)  # field 1 of type 13
    # a truncated footer: the length word claims fewer bytes than the
    # FileMetaData struct spans
    (flen,) = struct.unpack("<i", raw[-8:-4])
    start = len(raw) - 8 - flen
    for keep in (1, flen // 2, flen - 1):
        bad = tempfile.mktemp(suffix=".parquet")
        open(bad, "wb").write(raw[: start + keep] + struct.pack("<i", keep) + b"PAR1")
        with pytest.raises(ValueError):
            EncryptedFile(bad)


@pytest.mark.parametrize(
    "kw",
    [{}, {"store_schema": False},
     {"store_schema": False, "use_compliant_nested_type": False}],
    ids=["arrow-schema", "no-arrow-schema", "legacy-list-names"],
)
def test_footer_schema_matches_pyarrow(tmp_path, kw):
    """The Arrow schema comes from the footer alone: nesting and
    nullability from the Parquet schema, types from ARROW:schema when
    stored, timestamp units from the leaf with the stored time zone kept."""
    import datetime
    import decimal

    t = pa.table({
        "u32": pa.array([1, None], pa.uint32()),
        "ts_s": pa.array([1, 2], pa.timestamp("s")),
        "ts_tz": pa.array([1, 2], pa.timestamp("s", tz="America/New_York")),
        "ts_ns": pa.array([1000, 2000], pa.timestamp("ns")),
        "dec": pa.array([decimal.Decimal("1.23"), None], pa.decimal128(5, 2)),
        "l": pa.array([[1, None], None], pa.list_(pa.int32())),
        "ll": pa.array([[[1], [2, 3]], []], pa.list_(pa.list_(pa.int64()))),
        "m": pa.array([[("k", 1)], None], pa.map_(pa.string(), pa.int32())),
        "st": pa.array(
            [{"x": 1, "t": datetime.datetime(2020, 1, 1)}, None],
            pa.struct([("x", pa.int64()), ("t", pa.timestamp("us"))]),
        ),
    })
    path = str(tmp_path / "s.parquet")
    pq.write_table(t, path, **kw)
    want = pq.ParquetFile(path).schema_arrow
    got = EncryptedFile(path).arrow_schema()
    assert [f.name for f in got] == want.names
    for g, w in zip(got, want):
        assert g.equals(w), (g, w)
    assert parquet_compat.read_table_conformance(path).equals(pq.read_table(path))


def _small_page_tables():
    rng = np.random.default_rng(7)
    lens = rng.integers(0, 7, 1500)

    def lists(null_lists, null_items):
        return [
            None if null_lists and rng.random() < 0.1
            else [None if null_items and rng.random() < 0.15 else int(v)
                  for v in rng.integers(-50, 50, k)]
            for k in lens
        ]

    words = [f"w{k}" for k in range(40)]
    maps = [[(words[j], int(j * 7)) for j in rng.integers(0, 40, k)] for k in lens]
    structs = [None if k == 6 else {"a": [words[j] for j in rng.integers(0, 40, k)]} for k in lens]
    return {
        "list": pa.table({"x": pa.array(lists(False, False), pa.list_(pa.int32()))}),
        "list_nulls": pa.table({"x": pa.array(lists(True, True), pa.list_(pa.int32()))}),
        "map": pa.table({"m": pa.array(maps, pa.map_(pa.string(), pa.int64()))}),
        "struct_list": pa.table(
            {"s": pa.array(structs, pa.struct([("a", pa.list_(pa.string()))]))}
        ),
    }


def _per_page_levels(path, ci):
    """(rep, def, data pages) of a chunk, each page's levels decoded on
    their own, one stream per call."""
    from rayenc.codecs import rle_hybrid
    from rayenc.codecs.bitpack import bit_width32

    f = EncryptedFile(path, None)
    lf = f.leaves[ci]
    w_rep, w_def = bit_width32(lf.max_rep), bit_width32(lf.max_def)
    reps, defs = [], []
    for h, body in f._chunk_pages(0, ci, f.chunk_meta(0, ci)):
        n = h.num_values
        if h.type == parquet_compat.DATA_PAGE:
            rep, used = rle_hybrid.decode_framed(body, n, w_rep)
            dfv, _ = rle_hybrid.decode_framed(body[used:], n, w_def)
        elif h.type == parquet_compat.DATA_PAGE_V2:
            r, d = h.v2_rep_bytes, h.v2_def_bytes
            rep = rle_hybrid.decode(body[:r], n, w_rep)
            dfv = rle_hybrid.decode(body[r : r + d], n, w_def)
        else:
            continue
        reps.append(rep)
        defs.append(dfv)
    return np.concatenate(reps), np.concatenate(defs), len(reps)


@pytest.mark.parametrize("version", ["1.0", "2.0"])
@pytest.mark.parametrize("shape", sorted(_small_page_tables()))
def test_many_small_pages_conformance(tmp_path, shape, version):
    # pyarrow pages of ~256 bytes: each chunk's levels span dozens of pages,
    # decoded by one call per level kind
    t = _small_page_tables()[shape]
    path = write(tmp_path, t, data_page_size=256, data_page_version=version,
                 write_batch_size=64)
    assert parquet_compat.read_table_conformance(path).equals(pq.read_table(path))
    f = EncryptedFile(path, None)
    for ci, lf in enumerate(f.leaves):
        _, rep, dfv = parquet_compat.read_column_chunk(path, lf.dotted, raw_levels=True)
        want_rep, want_def, pages = _per_page_levels(path, ci)
        assert pages >= 20
        np.testing.assert_array_equal(rep, want_rep)
        np.testing.assert_array_equal(dfv, want_def)
        assert rep.dtype == dfv.dtype == np.uint8


def test_list_chunk_decodes_its_rep_levels_in_one_call(tmp_path, monkeypatch):
    from rayenc import parquet_write
    from rayenc.codecs import rle_hybrid
    from rayenc.selector import EncodeConfig

    vals = [[k, None, k + 1, k + 2] if k % 2 else None for k in range(800)]
    t = pa.table({"l": pa.array(vals, pa.list_(pa.int32()))})
    path = str(tmp_path / "l.parquet")
    parquet_write.write_table(t, path, EncodeConfig(page_rows=100))
    f = EncryptedFile(path, None)
    pages = [h for h, _ in f._chunk_pages(0, 0, f.chunk_meta(0, 0))
             if h.type != parquet_compat.DICTIONARY_PAGE]
    assert len(pages) == 20
    widths = []
    real = rle_hybrid.decode
    monkeypatch.setattr(rle_hybrid, "decode", lambda b, n, w, *a: widths.append(w) or real(b, n, w, *a))
    got = parquet_compat.read_table_conformance(path)
    assert got.equals(t)
    assert widths.count(1) == 1  # rep levels (max 1), one call for 20 pages
    assert widths.count(2) == 1  # def levels (max 3)
