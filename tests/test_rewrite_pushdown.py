"""Rewriter (prune/mask/trans-compression) + decode-side pushdown + CLI."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray

from rayenc import pipeline, predicate as P, rewrite
from rayenc.selector import EncodeConfig

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def encoded_lineitem(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("li"))
    pipeline.encode_job(f"{SF}/lineitem.parquet", out, target_block_bytes=1 << 19).materialize()
    return out


def _read_all(out_dir, **kw):
    refs = pipeline.decode_dataset(out_dir, **kw).to_arrow_refs()
    tables = [ray.get(r) for r in refs]
    return pa.concat_tables([t for t in tables if t.num_rows])


class TestPushdown:
    def test_column_pruning(self, encoded_lineitem):
        t = _read_all(encoded_lineitem, columns=["l_orderkey", "l_quantity"])
        assert t.column_names == ["l_orderkey", "l_quantity"]
        want = pq.read_table(f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_quantity"])
        assert t.equals(want)

    def test_predicate_partition_skip_and_filter(self, encoded_lineitem):
        pred = [("l_orderkey", "<=", 100)]
        t = _read_all(encoded_lineitem, predicate=pred)
        want = pq.read_table(f"{SF}/lineitem.parquet")
        want = want.filter(pa.compute.less_equal(want.column("l_orderkey"), 100))
        assert t.sort_by("l_orderkey").equals(want.sort_by("l_orderkey"))
        # stats skipping: a worker must report skips for an impossible predicate
        w = pipeline.DecodeWorker(encoded_lineitem, predicate=[("l_orderkey", ">", 10**12)])
        names = [n for n in os.listdir(encoded_lineitem) if n.endswith(".manifest.json")]
        skipped = sum(
            w._skip_by_stats(json.loads(open(os.path.join(encoded_lineitem, n)).read()))
            for n in names
        )
        assert skipped == len(names)


class TestRewrite:
    def test_prune(self, encoded_lineitem, tmp_path):
        out = str(tmp_path / "pruned")
        rewrite.rewrite_job(encoded_lineitem, out, drop_columns=["l_comment", "l_shipdate"]).materialize()
        t = _read_all(out)
        assert "l_shipdate" not in t.column_names
        want = pq.read_table(f"{SF}/lineitem.parquet").drop_columns(["l_shipdate"])
        assert t.equals(want)

    def test_mask(self, encoded_lineitem, tmp_path):
        out = str(tmp_path / "masked")
        rewrite.rewrite_job(encoded_lineitem, out, mask_columns=["l_returnflag"]).materialize()
        t = _read_all(out)
        vals = set(t.column("l_returnflag").to_pylist())
        orig = set(pq.read_table(f"{SF}/lineitem.parquet").column("l_returnflag").to_pylist())
        assert vals.isdisjoint(orig)  # masked to 16-hex-char hashes
        assert all(len(v) == 16 for v in vals)
        # same-value rows still mask to the same token (join-preserving mask)
        assert len(vals) == len(orig)

    def test_trans_compression(self, encoded_lineitem, tmp_path):
        out = str(tmp_path / "zstd")
        rewrite.rewrite_job(encoded_lineitem, out, compression="zstd").materialize()
        t = _read_all(out)
        assert t.equals(pq.read_table(f"{SF}/lineitem.parquet"))
        in_bytes = sum(
            os.path.getsize(os.path.join(encoded_lineitem, f))
            for f in os.listdir(encoded_lineitem)
            if f.endswith(".renc")
        )
        out_bytes = sum(
            os.path.getsize(os.path.join(out, f))
            for f in os.listdir(out)
            if f.endswith(".renc")
        )
        assert out_bytes < in_bytes  # zstd on top of encodings still helps
        # and back to uncompressed
        out2 = str(tmp_path / "uncomp")
        rewrite.rewrite_job(out, out2, compression=None).materialize()
        assert _read_all(out2).equals(t)


class TestCli:
    def test_schema_meta_pages_column_sizes(self, encoded_lineitem, capsys):
        from rayenc import cli

        cli.main(["schema", encoded_lineitem])
        assert "l_orderkey" in capsys.readouterr().out
        cli.main(["meta", encoded_lineitem])
        meta = json.loads(capsys.readouterr().out)
        assert meta["rows"] == 6000 and meta["ratio"] > 1
        cli.main(["pages", encoded_lineitem, "--column", "l_orderkey"])
        assert "l_orderkey" in capsys.readouterr().out
        cli.main(["column-sizes", encoded_lineitem])
        assert "l_quantity" in capsys.readouterr().out


def test_page_level_skipping_single_column(ray_session, tmp_path):
    """Column-index analog: single-column scans skip pages by per-page
    min/max; results match the exact filter."""
    import numpy as np
    from rayenc import blocks
    from rayenc.selector import EncodeConfig

    path = str(tmp_path / "t.parquet")
    vals = np.arange(1_000_000, dtype=np.int64)
    pq.write_table(pa.table({"k": vals, "v": vals * 3}), path)
    out = str(tmp_path / "enc")
    pipeline.encode_job(path, out, target_block_bytes=64 << 20).materialize()
    # manifest carries per-page min/max
    m = json.loads(open(os.path.join(out, sorted(
        f for f in os.listdir(out) if f.endswith(".manifest.json"))[0])).read())
    kchunk = next(c for c in m["chunks"] if c["name"] == "k")
    assert "min" in kchunk["pages"][0] and len(kchunk["pages"]) > 1
    # page bounds: only the page containing the target survives
    assert len(P.page_rows(P.Leaf("k", "==", 777_777), blocks._page_granules(kchunk))) == 1
    # end-to-end single-column scan with predicate
    t = _read_all(out, columns=["k"], predicate=[("k", "==", 777_777)])
    assert t.num_rows == 1 and t.column("k")[0].as_py() == 777_777
    rng = _read_all(out, columns=["k"], predicate=[("k", ">=", 999_000)])
    assert rng.num_rows == 1000


def test_rewrite_materializes_alias_when_target_dropped(ray_session, tmp_path):
    from rayenc import data as data_mod

    path = str(tmp_path / "tok.parquet")
    pq.write_table(data_mod.make_table(2000, mean_tokens=30.0), path)
    src = str(tmp_path / "enc")
    pipeline.encode_job(path, src, target_block_bytes=64 << 20).materialize()
    out = str(tmp_path / "pruned")
    rewrite.rewrite_job(src, out, drop_columns=["tokens"]).materialize()
    t = _read_all(out)
    want = pq.read_table(path).drop_columns(["tokens"])
    assert t.equals(want)  # n_tok survived its dropped alias target


def test_string_stats_partition_skipping(tmp_path, ray_session):
    # sorted string column -> disjoint per-partition min/max -> real skipping
    import pyarrow.parquet as pq

    from rayenc import pipeline

    n = 4000
    keys = [f"key-{i:06d}" for i in range(n)]
    table = pa.table({"k": pa.array(keys), "v": pa.array(np.arange(n, dtype=np.int64))})
    src = str(tmp_path / "sorted.parquet")
    pq.write_table(table, src, row_group_size=500)
    enc = str(tmp_path / "enc")
    pipeline.encode_job(src, enc, target_block_bytes=16 << 10).materialize()
    import json, os

    pred = [("k", ">=", "key-003500")]
    w = pipeline.DecodeWorker(enc, predicate=pred)
    manifests = [
        json.loads(open(os.path.join(enc, f)).read())
        for f in sorted(os.listdir(enc))
        if f.endswith(".manifest.json")
    ]
    skipped = sum(w._skip_by_stats(m) for m in manifests)
    assert len(manifests) >= 4 and skipped >= len(manifests) // 2, (
        len(manifests), skipped,
    )
    parts = [
        ray.get(r)
        for r in pipeline.decode_dataset(enc, predicate=pred).to_arrow_refs()
    ]
    got = pa.concat_tables([p for p in parts if p.num_rows])
    assert sorted(got.column("k").to_pylist()) == [k for k in keys if k >= "key-003500"]


def test_multicolumn_page_skipping_block_level(decoded_pages):
    from rayenc.blocks import encode_block, decode_block
    from rayenc.selector import EncodeConfig

    n = 50_000
    t = pa.table(
        {
            "a": pa.array(np.arange(n, dtype=np.int64)),
            "b": pa.array((np.arange(n, dtype=np.int64) * 7) % 1000),
            "s": pa.array([f"s{i:05d}" for i in range(n)]),
        }
    )
    cfg = EncodeConfig(page_rows=4000)
    blob, manifest = encode_block(t, cfg)
    pred = [("a", ">=", 20_000), ("a", "<", 24_000), ("s", "<", "s30000")]
    got = decode_block(blob, manifest, predicate=pred)
    # the a and s pages intersect to one page; b decodes only its rows
    for name in ("a", "s", "b"):
        entry = next(c for c in manifest["chunks"] if c["name"] == name)
        pages = [blob[p["offset"] : p["offset"] + p["length"]] for p in entry["pages"]]
        touched = [b for b in decoded_pages if b in pages]
        assert 1 <= len(touched) < len(pages) / 2
    # the read is exact: the matching rows, still row-aligned across columns
    assert got.num_rows == 4000
    assert got.column("a").to_pylist() == list(range(20_000, 24_000))
    import pyarrow.compute as pc

    want = t.filter(
        pc.and_(
            pc.and_(pc.greater_equal(t.column("a"), 20_000), pc.less(t.column("a"), 24_000)),
            pc.less(t.column("s"), "s30000"),
        )
    )
    assert got.equals(want)


def test_rewrite_rename_columns(ray_session, tmp_path):
    from rayenc import blocks, pipeline, rewrite

    src = f"{SF}/nation.parquet"
    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    pipeline.encode_job([src], in_dir).materialize()
    rewrite.rewrite_job(
        in_dir, out_dir,
        drop_columns=["n_regionkey"],
        rename_columns={"n_name": "nation_name"},
    ).to_pandas()
    got = pipeline.decode_dataset(out_dir).to_pandas()
    assert sorted(got.columns) == ["n_nationkey", "nation_name"]
    want = pq.read_table(src).to_pandas()
    got = got.sort_values("n_nationkey").reset_index(drop=True)
    want = want.sort_values("n_nationkey").reset_index(drop=True)
    assert (got["nation_name"] == want["n_name"]).all()


def test_transcompress_raw_preserves_page_index(tmp_path):
    """CompressionConverter keeps page indexes: the ColumnIndex copies
    verbatim (bounds are codec-independent), the OffsetIndex re-emits with
    the new page offsets/sizes, and filtered reads keep page-skipping."""
    from rayenc import parquet_write
    from rayenc.parquet_read_enc import (
        EncryptedFile,
        _parse_index,
        read_table_filtered,
    )
    from rayenc.rewrite import transcompress_parquet_raw
    from rayenc.selector import EncodeConfig
    from rayenc.validate import validate_column_index

    src = str(tmp_path / "s.parquet")
    t = pa.table(
        {
            "k": pa.array(np.arange(50_000, dtype=np.int64)),
            "s": pa.array([f"v{i % 977:04d}" for i in range(50_000)]),
        }
    )
    parquet_write.write_table(t, src, EncodeConfig(page_rows=5000))
    out = str(tmp_path / "z.parquet")
    transcompress_parquet_raw(src, out, "zstd")
    f = EncryptedFile(out)
    cidx, oidx = _parse_index(f, 0, 0)
    assert len(oidx[1]) == 10  # pages survive with locations
    assert cidx.get(4) == 1  # boundary order preserved (ascending k)
    assert validate_column_index(out) == []
    got = read_table_filtered(out, [("k", ">=", 42_000), ("k", "<", 43_000)])
    assert got.num_rows == 1000
    # round-trip back to uncompressed keeps it again
    out2 = str(tmp_path / "u.parquet")
    transcompress_parquet_raw(out, out2, None)
    assert validate_column_index(out2) == []
    assert pq.read_table(out2).equals(t)


def test_raw_rewrites_carry_blooms_and_indexes(tmp_path):
    """Every raw rewrite (prune, mask, rename, merge, transcompress) must
    carry bloom filters (previously a stale-offset crash: field 14 was
    shifted but the bytes never copied) and page indexes (ColumnIndex
    verbatim, OffsetIndex rebased). Every output chunk has Statistics with
    a null count and a page index where its source chunk had one; the
    masked chunk gets a new index from the writer, but no bloom."""
    from rayenc import parquet_write
    from rayenc.parquet_read_enc import (
        EncryptedFile,
        _parse_index,
        read_bloom_filter,
        read_table_filtered,
    )
    from rayenc.rewrite import (
        mask_parquet_raw,
        merge_parquet_raw,
        prune_parquet_raw,
        rename_parquet_raw,
        transcompress_parquet_raw,
    )
    from rayenc.selector import EncodeConfig
    from rayenc.validate import validate_column_index

    src = str(tmp_path / "s.parquet")
    t = pa.table(
        {
            "k": pa.array(np.arange(20_000, dtype=np.int64)),
            "s": pa.array([None if i % 13 == 5 else f"v{i % 977:04d}" for i in range(20_000)]),
            "x": pa.array(np.arange(20_000).astype(np.float64)),
            "n": pa.array([None if 6_000 <= i < 9_000 else i for i in range(20_000)]),
        }
    )
    parquet_write.write_table(
        t, src, EncodeConfig(page_rows=4000, bloom_columns={"k", "s"})
    )
    outs = {
        "prune": prune_parquet_raw(src, str(tmp_path / "p.parquet"), ["x"]),
        "mask": mask_parquet_raw(src, str(tmp_path / "m.parquet"), ["s"]),
        "rename": rename_parquet_raw(src, str(tmp_path / "r.parquet"), {"k": "kk"}),
        "merge": merge_parquet_raw([src, src], str(tmp_path / "g.parquet")),
        "zstd": transcompress_parquet_raw(src, str(tmp_path / "z.parquet"), "zstd"),
    }
    fs = EncryptedFile(src)
    src_ord = {lf.dotted: i for i, lf in enumerate(fs.leaves)}
    for name, path in outs.items():
        f = EncryptedFile(path)
        for rg in range(len(f.row_groups)):
            for ci, lf in enumerate(f.leaves):
                so = src_ord[{"kk": "k"}.get(lf.dotted, lf.dotted)]
                where = (name, rg, lf.dotted)
                assert 3 in f.chunk_meta(rg, ci)[12], where
                had_index = _parse_index(fs, 0, so) is not None
                assert (_parse_index(f, rg, ci) is not None) == had_index, where
                had_bloom = read_bloom_filter(fs, 0, so) is not None
                carried = had_bloom and (name, lf.dotted) != ("mask", "s")
                assert (read_bloom_filter(f, rg, ci) is not None) == carried, where
        assert validate_column_index(path) == [], name
        got = pq.read_table(path)
        want = pa.concat_tables([t, t]) if name == "merge" else t
        if name == "prune":
            want = want.drop_columns(["x"])
        if name == "rename":
            want = want.rename_columns(["kk", "s", "x", "n"])
        if name == "mask":
            hashed = got["s"]
            assert {len(v) for v in hashed.drop_null().to_pylist()} == {16}
            assert hashed.is_null().equals(t["s"].is_null())
            got, want = got.drop_columns(["s"]), want.drop_columns(["s"])
        assert got.equals(want), name
    assert all(_parse_index(fs, 0, i) is not None for i in range(4))
    assert read_table_filtered(outs["prune"], [("k", "==", 123)]).num_rows == 1
    assert read_table_filtered(outs["rename"], [("kk", ">=", 19_000)]).num_rows == 1000
    assert read_table_filtered(outs["merge"], [("k", "==", 7)]).num_rows == 2
    assert read_table_filtered(outs["zstd"], [("n", "is_null", None)]).num_rows == 3000


def test_transcompress_raw_carries_blooms(tmp_path):
    from rayenc import parquet_write
    from rayenc.parquet_read_enc import EncryptedFile, read_bloom_filter, read_table_filtered
    from rayenc.rewrite import transcompress_parquet_raw
    from rayenc.selector import EncodeConfig
    from rayenc.validate import validate_column_index

    src = str(tmp_path / "s.parquet")
    t = pa.table({"k": pa.array(np.arange(20_000, dtype=np.int64))})
    parquet_write.write_table(
        t, src, EncodeConfig(page_rows=4000, bloom_columns={"k"})
    )
    out = str(tmp_path / "z.parquet")
    transcompress_parquet_raw(src, out, "zstd")
    f = EncryptedFile(out)
    assert read_bloom_filter(f, 0, 0) is not None
    assert validate_column_index(out) == []
    assert read_table_filtered(out, [("k", "==", 123)]).num_rows == 1
