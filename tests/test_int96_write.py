"""Opt-in INT96 timestamp write (EncodeConfig.int96_timestamps) — the
deprecated 12-byte [nanos-of-day][Julian day] physical layout parquet-java
still writes for Spark legacy interop (PrimitiveTypeName.INT96;
ParquetMetadataConverter omits min/max because the sort order is UNKNOWN).
Read support was already unconditional; this pins the write direction
against pyarrow, DuckDB and our own conformance reader.
"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import parquet_write
from rayenc.parquet_compat import read_table_conformance
from rayenc.selector import EncodeConfig


def _fixture():
    ts_us = pa.array(
        [0, 1_600_000_000_000_000, -123_456_789_000_000, None, 86_399_999_999],
        pa.timestamp("us"),
    )
    ts_ns = pa.array(
        [1, 2_000_000_000_000_000_000, None, -1, 1234567890123456789],
        pa.timestamp("ns"),
    )
    ts_tz = ts_us.cast(pa.timestamp("us", tz="UTC"))
    return pa.table(
        {"a": ts_us, "b": ts_ns, "c": ts_tz, "k": pa.array([1, 2, 3, 4, 5], pa.int32())}
    )


def _epoch_ns(col):
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    tz = getattr(arr.type, "tz", None)
    return arr.cast(pa.timestamp("ns", tz=tz)).cast(pa.int64()).to_pylist()


def test_int96_write_read_three_readers(tmp_path):
    import duckdb

    t = _fixture()
    path = str(tmp_path / "i96.parquet")
    parquet_write.write_table(
        t, path, EncodeConfig(int96_timestamps=True), row_group_size=3
    )
    md = pq.ParquetFile(path).metadata
    assert [md.row_group(0).column(i).physical_type for i in range(4)] == [
        "INT96", "INT96", "INT96", "INT32"
    ]
    # INT96 sort order is UNKNOWN: no min/max on the chunk
    st = md.row_group(0).column(0).statistics
    assert st is None or not st.has_min_max
    back = pq.read_table(path)
    ours = read_table_conformance(path)
    for col in ("a", "b", "c"):
        assert _epoch_ns(back.column(col)) == _epoch_ns(t.column(col)), col
        assert _epoch_ns(ours.column(col)) == _epoch_ns(t.column(col)), col
    # duckdb decodes INT96 too, at its native microsecond precision
    # (sub-us nanos floor away — duckdb semantics, not a write defect)
    rows = duckdb.sql(
        f"SELECT epoch_ns(b) FROM read_parquet('{path}') ORDER BY k"
    ).fetchall()
    want = [
        None if v is None else (v // 1000) * 1000
        for v in t.column("b").cast(pa.int64()).to_pylist()
    ]
    assert [r[0] for r in rows] == want


def test_int96_matches_pyarrow_own_legacy_files(tmp_path):
    # pyarrow's use_deprecated_int96_timestamps writes the same layout; our
    # conformance reader and writer must agree with it in both directions
    t = _fixture()
    pa_path = str(tmp_path / "pa96.parquet")
    pq.write_table(t, pa_path, use_deprecated_int96_timestamps=True)
    ours = read_table_conformance(pa_path)
    for col in ("a", "b", "c"):
        assert _epoch_ns(ours.column(col)) == _epoch_ns(t.column(col)), col
    # pyarrow normalizes INT96 to timestamp[ns] even for its own files —
    # unit/tz loss is inherent to the deprecated type, values are exact
    assert pq.read_table(pa_path).schema.field("a").type == pa.timestamp("ns")


@pytest.mark.parametrize("tz", [None, "UTC"])
def test_int96_far_dates_match_pyarrow(tmp_path, tz):
    # year 1000 and year 9999 do not fit int64 nanoseconds since the epoch:
    # days and nanos-of-day come from the source unit
    import datetime

    t = pa.table({"ts": pa.array(
        [datetime.datetime(9999, 12, 31, 23, 59, 59, 999999), datetime.datetime(1000, 1, 1),
         None, datetime.datetime(1970, 1, 2, 3, 4, 5, 6)],
        pa.timestamp("us", tz),
    )})
    ours, theirs = str(tmp_path / "ours.parquet"), str(tmp_path / "theirs.parquet")
    parquet_write.write_table(t, ours, EncodeConfig(int96_timestamps=True))
    pq.write_table(t, theirs, use_deprecated_int96_timestamps=True)
    got = pq.read_table(ours, coerce_int96_timestamp_unit="us")
    # pyarrow reads INT96 without a time zone, from either writer
    assert got.column("ts").to_pylist() == t.column("ts").cast(pa.timestamp("us")).to_pylist()
    assert got.equals(pq.read_table(theirs, coerce_int96_timestamp_unit="us"))


def test_nested_timestamps_stay_int64(tmp_path):
    t = pa.table(
        {
            "s": pa.array(
                [{"ts": 1_000_000}, {"ts": None}, None],
                pa.struct([("ts", pa.timestamp("us"))]),
            ),
            "top": pa.array([10, 20, 30], pa.timestamp("us")),
        }
    )
    path = str(tmp_path / "nested96.parquet")
    parquet_write.write_table(t, path, EncodeConfig(int96_timestamps=True))
    md = pq.ParquetFile(path).metadata
    phys = {
        md.schema.column(i).name: md.row_group(0).column(i).physical_type
        for i in range(md.num_columns)
    }
    assert phys["ts"] == "INT64"  # nested leaf keeps the modern type
    assert phys["top"] == "INT96"
    back = pq.read_table(path)
    assert back.column("s").to_pylist() == t.column("s").to_pylist()
    assert _epoch_ns(back.column("top")) == _epoch_ns(t.column("top"))


def test_filtered_read_alongside_int96(tmp_path):
    # predicate pushdown on a sibling column works even though the INT96
    # chunk carries no statistics or column index
    from rayenc.parquet_read_enc import read_table_filtered

    t = _fixture()
    path = str(tmp_path / "i96f.parquet")
    parquet_write.write_table(
        t, path, EncodeConfig(int96_timestamps=True), row_group_size=2
    )
    got = read_table_filtered(path, [("k", ">=", 3)])
    assert sorted(got.column("k").to_pylist()) == [3, 4, 5]
    assert _epoch_ns(got.sort_by("k").column("b")) == _epoch_ns(
        t.filter(pa.compute.field("k") >= 3).column("b")
    )


@pytest.mark.parametrize("encoding", ["DELTA_BYTE_ARRAY", "BYTE_STREAM_SPLIT"])
def test_int96_refuses_flba_only_encoding(tmp_path, encoding):
    """INT96 values are stored as FLBA(12), but an FLBA-only encoding under
    an INT96 footer type is a file no other reader accepts."""
    cfg = EncodeConfig(int96_timestamps=True, column_encodings={"a": encoding})
    path = str(tmp_path / "x.parquet")
    with pytest.raises(ValueError, match="'a'"):
        parquet_write.write_table(_fixture(), path, cfg)
