"""Raw Parquet rewrites (merge / prune / mask / rename / trans-compression):
the output keeps the input's content exactly — the source schema elements,
key-value metadata and created_by re-emit through the one footer spec."""

import datetime
import glob
import struct

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rayenc import parquet_write
from rayenc.created_by import should_ignore_statistics
from rayenc.parquet_read_enc import EncryptedFile, read_table_encrypted
from rayenc.rewrite import (
    mask_parquet_raw,
    merge_parquet_raw,
    prune_parquet_raw,
    rename_parquet_raw,
    transcompress_parquet_raw,
)
from rayenc.selector import EncodeConfig
from rayenc.thrift import FILE_META, _read_struct, _thrift

SF = "/root/testdata/sf0.001"


def _footer(path: str) -> tuple[bytes, bytes]:
    """(bytes before the footer, footer bytes) of a plaintext file."""
    raw = open(path, "rb").read()
    (n,) = struct.unpack("<i", raw[-8:-4])
    return raw[: len(raw) - 8 - n], raw[len(raw) - 8 - n : -8]


def _refooter(src: str, dst: str, edit) -> str:
    """Copy ``src`` with its FileMetaData edited in place by ``edit(md)``
    and re-emitted through the footer spec."""
    body, footer = _footer(src)
    md, _ = _read_struct(footer, 0)
    edit(md)
    meta = _thrift(FILE_META, md)
    with open(dst, "wb") as fo:
        fo.write(body + meta + len(meta).to_bytes(4, "little") + b"PAR1")
    return dst


@pytest.mark.parametrize("path", sorted(glob.glob(f"{SF}/*.parquet")))
def test_footer_reemits_byte_identical(path):
    _, footer = _footer(path)
    md, end = _read_struct(footer, 0)
    assert _thrift(FILE_META, md) == footer[:end]


def _fixture(tmp_path, kind: str) -> str:
    path = str(tmp_path / f"{kind}.parquet")
    n = [1, 2, 3, 4]
    s = ["a", None, "c", "a"]
    if kind == "int96":
        ts = [datetime.datetime(2020, 1, 1), None,
              datetime.datetime(1999, 12, 31, 23, 59, 59, 123456),
              datetime.datetime(1970, 1, 2)]
        t = pa.table({"ts": pa.array(ts, pa.timestamp("ns")), "s": s, "n": n})
        pq.write_table(t, path, use_deprecated_int96_timestamps=True)
    elif kind == "field_id":
        schema = pa.schema(
            [pa.field(c, ty, metadata={b"PARQUET:field_id": str(i).encode()})
             for i, (c, ty) in enumerate(
                 [("id", pa.int64()), ("s", pa.string()), ("n", pa.int32())])],
            metadata={b"user": b"kept"},
        )
        pq.write_table(pa.table([[7, 8, 9, 10], s, n], schema=schema), path)
    elif kind == "no_stored_schema":
        t = pa.table({"u": pa.array(n, pa.uint32()), "s": s, "n": n})
        pq.write_table(t, path, store_schema=False)
    else:  # legacy list naming
        lst = pa.array([[1, 2], None, [], [3]], pa.list_(pa.int32()))
        pq.write_table(pa.table({"l": lst, "s": s, "n": n}), path,
                       use_compliant_nested_type=False)
    return path


@pytest.mark.parametrize(
    "kind", ["int96", "field_id", "no_stored_schema", "legacy_list"]
)
def test_raw_rewrites_keep_pyarrow_files_exact(tmp_path, kind):
    src = _fixture(tmp_path, kind)
    t = pq.read_table(src)
    first = t.column_names[0]
    out = {op: str(tmp_path / f"{op}.parquet") for op in
           ("rename", "prune", "merge", "transcompress", "mask")}
    rename_parquet_raw(src, out["rename"], {first: "renamed"})
    prune_parquet_raw(src, out["prune"], ["n"])
    merge_parquet_raw([src, src], out["merge"])
    transcompress_parquet_raw(src, out["transcompress"], "zstd")
    mask_parquet_raw(src, out["mask"], ["s"])
    want = {
        "rename": t.rename_columns(["renamed", *t.column_names[1:]]),
        "prune": t.drop_columns(["n"]),
        "merge": pa.concat_tables([t, t]),
        "transcompress": t,
    }
    for op, expect in want.items():
        got = pq.read_table(out[op])
        assert got.equals(expect), op
        assert got.schema.equals(expect.schema), op
    masked = pq.read_table(out["mask"])
    assert masked.schema.equals(t.schema)
    assert masked.drop_columns(["s"]).equals(t.drop_columns(["s"]))
    assert pc.utf8_length(masked["s"]).to_pylist() == [16, None, 16, 16]
    assert masked["s"][0] == masked["s"][3] != masked["s"][2]
    src_kv = pq.read_metadata(src).metadata or {}
    for op, path in out.items():
        kv = pq.read_metadata(path).metadata or {}
        assert kv.keys() == src_kv.keys(), op
        for k in kv:
            # rename and prune re-serialize the stored Arrow schema
            if k != b"ARROW:schema" or op not in ("rename", "prune"):
                assert kv[k] == src_kv[k], (op, k)
    if kind == "field_id":
        assert pq.read_metadata(out["prune"]).metadata[b"user"] == b"kept"
        fid = pq.read_schema(out["rename"]).field("renamed").metadata
        assert fid[b"PARQUET:field_id"] == b"0"


def test_raw_rewrites_with_zero_dictionary_page_offset(tmp_path):
    """dictionary_page_offset = 0 means "no dictionary" (offset 0 is the
    magic): every raw rewrite reads the chunk from its data page."""
    t = pq.read_table(f"{SF}/orders.parquet")
    plain = str(tmp_path / "plain.parquet")
    pq.write_table(t, plain, use_dictionary=False, row_group_size=5000)

    def zero_dict_offsets(md):
        for rg in md[4]:
            for cc in rg[1]:
                assert 11 not in cc[3]
                cc[3][11] = 0

    src = _refooter(plain, str(tmp_path / "zero.parquet"), zero_dict_offsets)
    assert pq.read_table(src).equals(t)
    outs = {op: str(tmp_path / f"{op}.parquet") for op in
            ("rename", "prune", "merge", "transcompress", "mask")}
    rename_parquet_raw(src, outs["rename"], {"o_custkey": "custkey"})
    prune_parquet_raw(src, outs["prune"], ["o_custkey"])
    merge_parquet_raw([src, src], outs["merge"])
    transcompress_parquet_raw(src, outs["transcompress"], "zstd")
    mask_parquet_raw(src, outs["mask"], ["o_orderpriority"])
    want = {
        "rename": t.rename_columns(
            [c if c != "o_custkey" else "custkey" for c in t.column_names]
        ),
        "prune": t.drop_columns(["o_custkey"]),
        "merge": pa.concat_tables([t, t]),
        "transcompress": t,
    }
    for op, expect in want.items():
        assert pq.read_table(outs[op]).equals(expect), op
        assert read_table_encrypted(outs[op]).equals(expect), op
    for reader in (pq.read_table, read_table_encrypted):
        masked = reader(outs["mask"])
        rest = masked.drop_columns(["o_orderpriority"])
        assert rest.equals(t.drop_columns(["o_orderpriority"]))


def test_raw_rewrites_keep_created_by(tmp_path):
    """The writer-version gates (PARQUET-251 statistics, PARQUET-246
    sequential reads) judge the writer of the copied pages and
    statistics: a rewrite keeps the source's created_by."""
    legacy = "parquet-mr version 1.6.0 (build abcd)"
    t = pq.read_table(f"{SF}/nation.parquet")
    plain = str(tmp_path / "plain.parquet")
    pq.write_table(t, plain)

    def stamp(md):
        md[6] = legacy.encode()

    src = _refooter(plain, str(tmp_path / "legacy.parquet"), stamp)
    outs = [
        rename_parquet_raw(src, str(tmp_path / "r.parquet"), {"n_name": "name"}),
        prune_parquet_raw(src, str(tmp_path / "p.parquet"), ["n_regionkey"]),
        mask_parquet_raw(src, str(tmp_path / "m.parquet"), ["n_name"]),
        transcompress_parquet_raw(src, str(tmp_path / "z.parquet"), "zstd"),
        merge_parquet_raw([src, src], str(tmp_path / "g.parquet")),
    ]
    for path in outs:
        f = EncryptedFile(path)
        assert f.created_by == legacy, path
        assert should_ignore_statistics(f.created_by, "BYTE_ARRAY"), path
    # inputs from two writers: no writer vouches for the merged file
    mixed = merge_parquet_raw([src, plain], str(tmp_path / "x.parquet"))
    assert EncryptedFile(mixed).created_by is None
    assert pq.read_metadata(mixed).created_by in (None, "")
    assert pq.read_table(mixed).equals(pa.concat_tables([t, t]))


def test_prune_keeps_nested_columns(tmp_path):
    lst = pa.array([[1, 2], None, [], [3, None]], pa.list_(pa.int32()))
    src = str(tmp_path / "nested.parquet")
    pq.write_table(pa.table({"a": [1, 2, 3, 4], "l": lst, "b": ["w", "x", "y", "z"]}), src)
    t = pq.read_table(src)
    for drop in ("a", "l"):
        out = prune_parquet_raw(src, str(tmp_path / f"no_{drop}.parquet"), [drop])
        assert pq.read_table(out).equals(t.drop_columns([drop])), drop
        assert read_table_encrypted(out).equals(t.drop_columns([drop])), drop


def test_prune_remaps_sorting_columns(tmp_path):
    t = pq.read_table(f"{SF}/orders.parquet")
    src = str(tmp_path / "sorted.parquet")
    parquet_write.write_table(
        t, src, EncodeConfig(), sorting_columns=[("o_totalprice", False, False)]
    )
    keep = prune_parquet_raw(src, str(tmp_path / "k.parquet"), ["o_orderkey"])
    (sc,) = pq.ParquetFile(keep).metadata.row_group(0).sorting_columns
    assert sc.column_index == t.column_names.index("o_totalprice") - 1
    gone = prune_parquet_raw(src, str(tmp_path / "g.parquet"), ["o_totalprice"])
    assert not pq.ParquetFile(gone).metadata.row_group(0).sorting_columns


def test_bloom_without_declared_length_carries(tmp_path):
    """bloom_filter_length is optional (older writers omit it): the copied
    bloom is the header plus the bitset size it declares."""
    from rayenc.parquet_read_enc import bloom_might_contain

    t = pa.table({"k": pa.array(range(1000), pa.int64())})
    base = str(tmp_path / "b.parquet")
    parquet_write.write_table(t, base, EncodeConfig(bloom_columns={"k"}))

    def drop_length(md):
        for rg in md[4]:
            for cc in rg[1]:
                del cc[3][15]

    src = _refooter(base, str(tmp_path / "nolen.parquet"), drop_length)
    out = rename_parquet_raw(src, str(tmp_path / "r.parquet"), {"k": "kk"})
    assert bloom_might_contain(out, "kk", 7) == [True]
    assert bloom_might_contain(out, "kk", 5000) == [False]


def test_merge_refuses_same_names_with_other_types(tmp_path):
    """Copied pages are only as good as the schema elements over them: an
    INT96 file and an INT64 file with the same column names do not merge."""
    t = pa.table({"ts": pa.array([datetime.datetime(2020, 1, 1)], pa.timestamp("ns"))})
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(t, a, use_deprecated_int96_timestamps=True)
    pq.write_table(t, b)
    with pytest.raises(ValueError, match="schema"):
        merge_parquet_raw([a, b], str(tmp_path / "m.parquet"))
