"""TIME logical type + declared annotations (UUID/JSON/BSON/ENUM/INTERVAL)
— the LogicalTypeAnnotation.java members beyond the arrow-native set
(`LogicalTypeAnnotation.java` timeType/uuidType/jsonType/bsonType/enumType/
intervalType)."""

import os
import tempfile
import uuid

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import parquet_write
from rayenc.parquet_compat import read_table_conformance
from rayenc.selector import EncodeConfig


def _tmp():
    return tempfile.mktemp(suffix=".parquet", dir="/tmp")


class TestTimeTypes:
    def test_time_roundtrip_all_units(self):
        t = pa.table(
            {
                "t32": pa.array([1000, 2000, None], pa.time32("ms")),
                "t64": pa.array([123456789, 5, None], pa.time64("us")),
                "tns": pa.array([123456789123, 5, None], pa.time64("ns")),
            }
        )
        out = _tmp()
        parquet_write.write_table(t, out)
        got = read_table_conformance(out)
        assert got.equals(t)
        # pyarrow restores the same arrow types from our annotations
        assert pq.read_table(out).schema.equals(t.schema)

    def test_time_footer_annotations(self):
        t = pa.table(
            {
                "t32": pa.array([1], pa.time32("ms")),
                "t64": pa.array([1], pa.time64("us")),
                "tns": pa.array([1], pa.time64("ns")),
            }
        )
        out = _tmp()
        parquet_write.write_table(t, out)
        s = pq.ParquetFile(out).schema
        # TimeType(isAdjustedToUTC=false) has no ConvertedType equivalent
        # (spec: TIME_MILLIS/TIME_MICROS imply UTC-adjusted), so the logical
        # annotation carries the type alone
        for i, unit in enumerate(("milliseconds", "microseconds", "nanoseconds")):
            assert s.column(i).converted_type == "NONE"
            lt = str(s.column(i).logical_type)
            assert "isAdjustedToUTC=false" in lt and unit in lt

    def test_time32_seconds_normalized_to_millis(self):
        t = pa.table({"t": pa.array([1, 2, None], pa.time32("s"))})
        out = _tmp()
        parquet_write.write_table(t, out)
        got = pq.read_table(out).column("t")
        assert got.type == pa.time32("ms")
        assert got.cast(pa.time32("s")).to_pylist() == t.column("t").to_pylist()

    def test_time32_seconds_nested_normalized(self):
        # ADVICE r4: a time32[s] leaf nested in a struct/list used to reach
        # _logical_type and crash with KeyError: 's' — coercion is recursive
        t = pa.table(
            {
                "s": pa.array(
                    [{"t": 1, "x": 7}, {"t": None, "x": 8}],
                    pa.struct([("t", pa.time32("s")), ("x", pa.int32())]),
                ),
                "l": pa.array([[1, 2], [3]], pa.list_(pa.time32("s"))),
            }
        )
        out = _tmp()
        parquet_write.write_table(t, out)
        got = pq.read_table(out)
        assert got.column("s").type.field("t").type == pa.time32("ms")
        assert got.column("l").type.value_type == pa.time32("ms")
        assert (
            got.column("s").combine_chunks().field("t").to_pylist()
            == t.column("s").combine_chunks().field("t").to_pylist()
        )
        assert (
            got.column("l").combine_chunks().flatten().to_pylist()
            == t.column("l").combine_chunks().flatten().to_pylist()
        )

    def test_seconds_units_written_as_pyarrow_writes_them(self, tmp_path):
        # Parquet has no seconds unit: time32[s] and timestamp[s] leaves are
        # written in milliseconds at any depth, keeping the time zone and the
        # nullability of map items and list elements, as pyarrow writes them
        item = pa.field("item", pa.time32("s"), False)
        t = pa.table({
            "map": pa.array([[("a", 5)], [], None, [("b", 7), ("c", 9)]],
                            pa.map_(pa.string(), pa.field("value", pa.time32("s"), False))),
            "large": pa.array([[1, 2], None, [], [3]], pa.large_list(item)),
            "fixed": pa.array([[1, 2], [0, 59], [3, 4], [5, 6]], pa.list_(item, 2)),
            "ts": pa.array([0, -86_401, None, 253_402_300_799], pa.timestamp("s")),
            "ts_utc": pa.array([0, 1, 2, None], pa.timestamp("s", "UTC")),
            "ts_list": pa.array([[1], None, [], [2, None]], pa.list_(pa.timestamp("s"))),
        })
        ours, theirs = str(tmp_path / "ours.parquet"), str(tmp_path / "theirs.parquet")
        parquet_write.write_table(t, ours)
        pq.write_table(t, theirs)

        def shape(typ):
            kid = typ.item_field if pa.types.is_map(typ) else (
                typ.value_field if pa.types.is_nested(typ) else None)
            return (typ, None) if kid is None else (kid.type, kid.nullable)

        want = pq.read_schema(theirs)
        got_table = read_table_conformance(ours)
        for name in t.column_names:
            assert shape(got_table.schema.field(name).type) == shape(want.field(name).type), name
            got = shape(pq.read_schema(ours).field(name).type)
            if name == "map":
                # every map value in rayenc's Parquet schema is optional,
                # which pyarrow trusts over ARROW:schema: type only
                got = (got[0], False)
            assert got == shape(want.field(name).type), name
        expect = pq.read_table(theirs)
        for name in t.column_names:
            assert got_table.column(name).to_pylist() == expect.column(name).to_pylist(), name

    def test_duckdb_reads_our_time(self):
        t = pa.table({"t64": pa.array([3723000000], pa.time64("us"))})
        out = _tmp()
        parquet_write.write_table(t, out)
        v = duckdb.sql(
            f"SELECT CAST(t64 AS VARCHAR) v FROM read_parquet('{out}')"
        ).df()["v"][0]
        assert v == "01:02:03"

    def test_we_read_pyarrow_time(self):
        t = pa.table(
            {
                "t64": pa.array([1, 2, 3], pa.time64("us")),
                "t32": pa.array([1, 2, 3], pa.time32("ms")),
            }
        )
        out = _tmp()
        pq.write_table(t, out, version="2.6")
        assert read_table_conformance(out).equals(t)


class TestDeclaredAnnotations:
    def test_all_annotations_in_footer(self):
        t = pa.table(
            {
                "id": pa.array([uuid.uuid4().bytes for _ in range(3)], pa.binary(16)),
                "doc": pa.array(['{"a":1}', None, "{}"]),
                "kind": pa.array(["A", "B", None]),
                "blob": pa.array([b"\x01", None, b"\x02"], pa.binary()),
                "span": pa.array([os.urandom(12) for _ in range(3)], pa.binary(12)),
            }
        )
        cfg = EncodeConfig(
            logical_annotations={
                "id": "UUID",
                "doc": "JSON",
                "kind": "ENUM",
                "blob": "BSON",
                "span": "INTERVAL",
            }
        )
        out = _tmp()
        parquet_write.write_table(t, out, config=cfg)
        s = pq.ParquetFile(out).schema
        by_name = {s.column(i).name: s.column(i) for i in range(len(s))}
        assert str(by_name["id"].logical_type) == "UUID"
        assert by_name["id"].converted_type == "NONE"
        assert by_name["doc"].converted_type == "JSON"
        assert by_name["kind"].converted_type == "ENUM"
        assert by_name["blob"].converted_type == "BSON"
        assert by_name["span"].converted_type == "INTERVAL"
        # values survive byte-exact through pyarrow
        got = pq.read_table(out)
        assert got.column("id").to_pylist() == t.column("id").to_pylist()
        assert got.column("span").to_pylist() == t.column("span").to_pylist()
        # and through our own conformance reader
        ours = read_table_conformance(out)
        assert ours.column("id").to_pylist() == t.column("id").to_pylist()

    def test_uuid_requires_flba16(self):
        t = pa.table({"id": pa.array([b"short"], pa.binary())})
        with pytest.raises(ValueError, match="UUID"):
            parquet_write.write_table(
                t, _tmp(), config=EncodeConfig(logical_annotations={"id": "UUID"})
            )

    def test_interval_requires_flba12(self):
        t = pa.table({"s": pa.array([os.urandom(16)], pa.binary(16))})
        with pytest.raises(ValueError, match="INTERVAL"):
            parquet_write.write_table(
                t, _tmp(), config=EncodeConfig(logical_annotations={"s": "INTERVAL"})
            )

    def test_unknown_annotation_rejected(self):
        t = pa.table({"x": pa.array(["a"])})
        with pytest.raises(ValueError, match="unknown logical annotation"):
            parquet_write.write_table(
                t, _tmp(), config=EncodeConfig(logical_annotations={"x": "WAT"})
            )


class TestDecimalAsInteger:
    def _table(self):
        from decimal import Decimal

        return pa.table(
            {
                "d9": pa.array(
                    [Decimal("1.23"), Decimal("-99999.99"), None],
                    pa.decimal128(9, 2),
                ),
                "d18": pa.array(
                    [Decimal("123456789.123456"), Decimal("-1.000001"), None],
                    pa.decimal128(18, 6),
                ),
                "d38": pa.array(
                    [Decimal("1.5"), None, Decimal("-2.5")],
                    pa.decimal128(38, 10),
                ),
            }
        )

    def test_physical_types_and_roundtrip(self):
        t = self._table()
        out = _tmp()
        parquet_write.write_table(
            t, out, config=EncodeConfig(decimal_as_integer=True)
        )
        s = pq.ParquetFile(out).schema
        phys = {s.column(i).name: s.column(i).physical_type for i in range(len(s))}
        # p<=9 -> INT32, p<=18 -> INT64, beyond stays FLBA
        assert phys == {
            "d9": "INT32",
            "d18": "INT64",
            "d38": "FIXED_LEN_BYTE_ARRAY",
        }
        assert pq.read_table(out).equals(t)
        assert read_table_conformance(out).equals(t)

    def test_duckdb_reads_integer_decimals(self):
        t = self._table()
        out = _tmp()
        parquet_write.write_table(
            t, out, config=EncodeConfig(decimal_as_integer=True)
        )
        v = duckdb.sql(
            f"SELECT CAST(d18 AS VARCHAR) v FROM read_parquet('{out}')"
        ).df()["v"]
        assert v[0] == "123456789.123456"

    def test_off_by_default_stays_flba(self):
        t = self._table()
        out = _tmp()
        parquet_write.write_table(t, out)
        s = pq.ParquetFile(out).schema
        assert s.column(0).physical_type == "FIXED_LEN_BYTE_ARRAY"
        assert pq.read_table(out).equals(t)

    def test_smaller_than_flba(self):
        from decimal import Decimal

        vals = [Decimal(i) / 100 for i in range(20000)]
        t = pa.table({"d": pa.array(vals, pa.decimal128(12, 2))})
        out_flba, out_int = _tmp(), _tmp()
        parquet_write.write_table(t, out_flba)
        parquet_write.write_table(
            t, out_int, config=EncodeConfig(decimal_as_integer=True)
        )
        assert os.path.getsize(out_int) < os.path.getsize(out_flba) * 0.55
        assert pq.read_table(out_int).equals(t)


def test_pyarrow_coerced_date_and_time_read_as_stored():
    """pyarrow stores date64 as INT32 days and time32[s] as TIME(MILLIS)
    while ARROW:schema keeps the pre-coercion types: the reader takes the
    date/time type from the leaf, as pyarrow does, instead of reading days
    as milliseconds or milliseconds as seconds."""
    import datetime

    t = pa.table({
        "d": pa.array([datetime.date(2020, 1, 2), None], pa.date64()),
        "t": pa.array([3600, None], pa.time32("s")),
        "l": pa.array([[datetime.date(1999, 12, 31)], None], pa.list_(pa.date64())),
    })
    path = _tmp()
    pq.write_table(t, path)
    assert read_table_conformance(path).equals(pq.read_table(path))
    assert read_table_conformance(path).column("d").to_pylist() == [datetime.date(2020, 1, 2), None]


@pytest.mark.parametrize("store_schema", [True, False])
def test_null_columns_read_like_pyarrow(tmp_path, store_schema):
    # Parquet's Null logical type (UNKNOWN, union member 11), which
    # pyarrow writes for pa.nulls
    t = pa.table({"n": pa.nulls(5), "x": pa.array([1, 2, None, 4, 5], pa.int32())})
    path = str(tmp_path / "nulls.parquet")
    pq.write_table(t, path, store_schema=store_schema)
    got = read_table_conformance(path)
    assert got.equals(pq.read_table(path))
    assert got.schema.field("n").type == pa.null()


@pytest.mark.parametrize("version", ["1.0", "2.0"])
def test_null_columns_write_like_pyarrow(tmp_path, version):
    # pyarrow's shape: an optional INT32 leaf with the UNKNOWN logical type,
    # def levels all 0 and no values; 45 rows in 10-row pages
    import struct

    from rayenc import blocks
    from rayenc.thrift import _read_struct

    n = 45
    t = pa.table({"n": pa.nulls(n), "x": pa.array(range(n), pa.int64()),
                  "l": pa.array([[None], None, []] * (n // 3), pa.list_(pa.null()))})
    cfg = EncodeConfig(page_rows=10, parquet_page_version=version)
    ours, theirs = str(tmp_path / "ours.parquet"), str(tmp_path / "theirs.parquet")
    parquet_write.write_table(t, ours, cfg)
    pq.write_table(t, theirs)
    for path in (ours, theirs):
        raw = open(path, "rb").read()
        (size,) = struct.unpack("<i", raw[-8:-4])
        md, _ = _read_struct(raw[-8 - size : -8])
        elem = next(e for e in md[2] if e[4] == b"n")
        assert (elem[1], elem[3], elem[10]) == (1, 1, {11: {}})  # INT32, optional, UNKNOWN
    assert pq.read_table(ours).equals(t)
    assert read_table_conformance(ours).equals(t)
    assert pq.ParquetFile(ours).metadata.row_group(0).column(0).num_values == n
    blob, man = blocks.encode_block(t, cfg)
    assert blocks.decode_block(blob, man).equals(t)


def test_json_enum_bson_strings_read_as_binary_like_pyarrow(tmp_path):
    """A string column annotated JSON, ENUM or BSON has no STRING annotation,
    so pyarrow reads it as binary whatever ``ARROW:schema`` stores."""
    t = pa.table({
        "j": pa.array(['{"a":1}', None]),
        "e": pa.array(["x", "y"]),
        "b": pa.array([b"\x00", b"\x01"]),
        "lj": pa.array(["{}", "[]"], pa.large_string()),
        "s": pa.array(["a", "b"]),
    })
    path = str(tmp_path / "ann.parquet")
    cfg = EncodeConfig(logical_annotations={"j": "JSON", "e": "ENUM", "b": "BSON", "lj": "JSON"})
    parquet_write.write_table(t, path, config=cfg)
    ours, theirs = read_table_conformance(path), pq.read_table(path)
    assert ours.schema == theirs.schema
    assert [ours.schema.field(n).type for n in ("j", "e", "lj", "s")] == [
        pa.binary(), pa.binary(), pa.binary(), pa.string()
    ]
    assert ours.equals(theirs)
