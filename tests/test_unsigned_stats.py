"""Unsigned-integer statistics regression (round-3 ADVICE): min/max for UINT
columns must be computed in the unsigned domain, not on the sign-wrapped
storage, in (a) the container manifest + page index and (b) written parquet
footer Statistics / ColumnIndex — otherwise readers prune row groups and
pages that contain matching rows."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from rayenc import blocks, parquet_write, predicate as P, stats
from rayenc.schema import shred


def _uint_table():
    return pa.table(
        {
            "u32": pa.array([1, 5, 4294967295, 2, 3], pa.uint32()),
            "u64": pa.array([7, 2**64 - 1, 9, 1, 4], pa.uint64()),
        }
    )


def test_chunk_stats_unsigned_domain():
    col = shred("u32", _uint_table().column("u32").combine_chunks())[0]
    assert col.unsigned
    st = stats.compute(col)
    assert st.min_value == 1
    assert st.max_value == 4294967295


def test_manifest_and_page_bounds_unsigned():
    table = _uint_table()
    blob, manifest = blocks.encode_block(table)
    by_name = {c["name"]: c for c in manifest["chunks"]}
    st = by_name["u32"]["stats"]
    assert st["min"] == 1 and st["max"] == 4294967295
    st64 = by_name["u64"]["stats"]
    assert st64["min"] == 1 and st64["max"] == 2**64 - 1
    pages = by_name["u32"]["pages"]
    if pages and "min" in pages[0]:
        assert max(p["max"] for p in pages) == 4294967295
    # decode with the equality predicate that the wrapped bounds would skip
    kept = P.page_rows(P.Leaf("u32", "==", 4294967295), blocks._page_granules(by_name["u32"]))
    assert kept is None or kept
    out = blocks.decode_block(blob, manifest)
    assert out.equals(table)


def test_decode_dataset_predicate_not_skipped(tmp_path):
    import ray.data

    from rayenc import pipeline

    src = str(tmp_path / "src.parquet")
    pq.write_table(_uint_table(), src)
    out_dir = str(tmp_path / "enc")
    pipeline.encode_job([src], out_dir).materialize()
    ds = pipeline.decode_dataset(out_dir, predicate=[("u32", "==", 4294967295)])
    got = ds.to_pandas()
    assert len(got) == 1
    assert int(got["u32"].iloc[0]) == 4294967295


def test_parquet_footer_stats_unsigned(tmp_path):
    table = _uint_table()
    path = str(tmp_path / "u.parquet")
    parquet_write.write_table(table, path)
    md = pq.ParquetFile(path).metadata
    cs = {
        md.row_group(0).column(i).path_in_schema: md.row_group(0).column(i).statistics
        for i in range(md.num_columns)
    }
    assert cs["u32"].min == 1 and cs["u32"].max == 4294967295
    assert cs["u64"].min == 1 and cs["u64"].max == 2**64 - 1
    # pyarrow dataset row-group pruning must keep the matching row
    dset = pads.dataset(path, format="parquet")
    got = dset.to_table(filter=pc.field("u32") == 4294967295)
    assert got.num_rows == 1


def test_bit_packed_write_warns():
    import warnings

    import pyarrow.parquet as pq

    from rayenc import parquet_write
    from rayenc.selector import EncodeConfig

    t = pa.table({"a": pa.array([1, 2, 3], pa.int64())})
    import tempfile

    path = tempfile.mktemp(suffix=".parquet")
    cfg = EncodeConfig()
    cfg.level_encoding = "BIT_PACKED"
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        parquet_write.write_table(t, path, cfg)
    assert any("BIT_PACKED" in str(x.message) for x in w)


def test_grouped_encode_tolerates_null_keys(tmp_path):
    import ray.data

    from rayenc import pipeline

    src = str(tmp_path / "s.parquet")
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(100)]),
            "tokens": pa.array([[i, i + 1] for i in range(100)], pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 100, pa.int32()),
            "source": pa.array(
                [None if i % 7 == 0 else f"s{i % 3}" for i in range(100)]
            ),
        }
    )
    pq.write_table(t, src)
    out = str(tmp_path / "enc")
    # a null key value must fall back to a bucket, not KeyError the job
    pipeline.encode_grouped_job(
        [src], out, key="source", salt_col=None, max_block_rows=1000
    ).materialize()
    got = pipeline.decode_dataset(out).to_pandas()
    assert len(got) == 100
    # nulls survive the grouped encode untouched (sentinel is shuffle-only)
    assert got["source"].isna().sum() == sum(1 for i in range(100) if i % 7 == 0)


def test_nan_float_stats_omitted_and_pruning_sound(tmp_path):
    # NaN-poisoned float pages write NO min/max (the spec-safe choice:
    # poisoned bounds must never prune) and filtered reads stay exact
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayenc import parquet_write
    from rayenc.parquet_read_enc import read_table_filtered

    p = str(tmp_path / "nan.parquet")
    v = np.array([1.5, float("nan"), -3.0, 2.0, float("nan")] * 200)
    t = pa.table({"f": pa.array(v), "k": pa.array(range(1000))})
    parquet_write.write_table(t, p, row_group_size=250)
    st = pq.ParquetFile(p).metadata.row_group(0).column(0).statistics
    assert st is None or not st.has_min_max
    got = read_table_filtered(p, [("f", ">", 1.9)])
    assert got.num_rows == 200


def test_chunk_stats_at_the_type_extremes_warn_nothing():
    # adjacent values whose difference overflows: int64 wraps, float64
    # overflows; the stats take only min/max and the NDV sample
    import warnings

    t = pa.table({
        "i": pa.array([2**63 - 1, -(2**63)], pa.int64()),
        "f": pa.array([-1.7e308, 1.7e308], pa.float64()),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = {c: stats.compute(shred(c, t.column(c).combine_chunks())[0]) for c in t.column_names}
        blob, man = blocks.encode_block(t)
    assert (got["i"].min_value, got["i"].max_value) == (-(2**63), 2**63 - 1)
    assert (got["f"].min_value, got["f"].max_value) == (-1.7e308, 1.7e308)
    assert not hasattr(got["i"], "run_count") and not hasattr(got["i"], "is_sorted")
    assert blocks.decode_block(blob, man).equals(t)


def test_container_and_parquet_bounds_agree(tmp_path):
    # one bounds layer: each container page's min/max is the Parquet
    # ColumnIndex bound of the same page, and the chunk bounds agree with
    # the footer Statistics; a NaN page leaves the Parquet chunk without a
    # ColumnIndex and the container page unbounded
    from rayenc.parquet_read_enc import EncryptedFile, _parse_index
    from rayenc.selector import EncodeConfig

    n = 600
    t = pa.table({
        "u64": pa.array([i if i < 300 else 2**64 - 1 - i for i in range(n)], pa.uint64()),
        "i32": pa.array([(i * 37) % 1000 - 500 for i in range(n)], pa.int32()),
        "f64": pa.array([float("nan") if i == 250 else i / 4 for i in range(n)], pa.float64()),
        "long": pa.array([b"\xff" * 70 + bytes([i % 256]) if i == 250
                          else b"p" * 66 + i.to_bytes(2, "big") for i in range(n)]),
    })
    cfg = EncodeConfig(page_rows=100)
    _, man = blocks.encode_block(t, cfg)
    path = str(tmp_path / "b.parquet")
    parquet_write.write_table(t, path, cfg)
    f = EncryptedFile(path)

    def stored(lo, hi):
        return (lo.encode("latin-1"), hi.encode("latin-1")) if isinstance(lo, str) else (lo, hi)

    for ci, entry in enumerate(man["chunks"]):
        leaf = f.leaves[ci]
        dec = stats.bound_decoder(leaf.ptype, leaf.type)
        assert leaf.path == [entry["name"]] and len(entry["pages"]) == 6
        pages = [stored(p["min"], p["max"]) for p in entry["pages"]]
        idx = _parse_index(f, 0, ci)
        if entry["name"] == "f64":
            assert idx is None and pages[2] == (None, None)
            # a null count with no min/max, as parquet-java writes it
            assert entry["stats"]["min"] is None and f.chunk_meta(0, ci)[12] == {3: 0}
            continue
        cidx, _ = idx
        assert pages == [dec(lo, hi) for lo, hi in zip(cidx[2], cidx[3])]
        st = f.chunk_meta(0, ci)[12]
        assert stored(entry["stats"]["min"], entry["stats"]["max"]) == dec(st[6], st[5])
    long_page0, long_chunk = pages[0], stored(entry["stats"]["min"], entry["stats"]["max"])
    assert long_page0 == (b"p" * 64, b"p" * 63 + b"q")  # truncated, max incremented
    assert long_chunk[1] == b"\xff" * 70 + bytes([250])  # an all-0xFF prefix stays whole
    u64 = man["chunks"][0]["pages"][5]
    assert (u64["min"], u64["max"]) == (2**64 - 600, 2**64 - 501)


def test_bound_codec_round_trips_and_rejects_wrong_lengths():
    # the one Parquet bound codec: what bound_bytes packs, bound_decoder
    # reads back in the same domain; a bound of the wrong length (or a
    # missing one) decodes as None and INT96 has no decoder
    cases = [
        (pa.array([-5, 7], pa.int32()), "INT32", (-5, 7)),
        (pa.array([2**32 - 2, 2**32 - 1], pa.uint32()), "INT32", (2**32 - 2, 2**32 - 1)),
        (pa.array([2**63, 2**64 - 1], pa.uint64()), "INT64", (2**63, 2**64 - 1)),
        (pa.array([0.5, 2.25], pa.float64()), "DOUBLE", (0.5, 2.25)),
        (pa.array([False, True]), "BOOLEAN", (False, True)),
        (pa.array(np.array([-1.5, 2.0], np.float16)), "FIXED_LEN_BYTE_ARRAY", (-1.5, 2.0)),
        (pa.array(["ab", "cd"]), "BYTE_ARRAY", (b"ab", b"cd")),
    ]
    for arr, ptype, bounds in cases:
        (col,) = shred("c", arr)
        raw = stats.bound_bytes(col, bounds)
        dec = stats.bound_decoder(ptype, arr.type)
        assert dec(*raw) == bounds, (arr.type, raw)
        if ptype != "BYTE_ARRAY":
            assert dec(raw[0] + b"\x00", raw[1]) is None and dec(raw[0], raw[1][:-1]) is None
        assert dec(None, raw[1]) is None
    dec = stats.bound_decoder("FIXED_LEN_BYTE_ARRAY", pa.decimal128(20, 2))
    lo, hi = (v.to_bytes(9, "big", signed=True) for v in (-3, 12345))
    assert dec(lo, hi) == (-3, 12345)
    assert stats.bound_decoder("INT96", pa.timestamp("ns")) is None
