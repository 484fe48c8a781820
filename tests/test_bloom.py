"""The split-block bloom filter (BlockSplitBloomFilter analog) + pipeline wiring."""

import base64

import numpy as np
import pyarrow as pa
import pytest

from rayenc import bloom
from rayenc.schema import PhysicalColumn
from rayenc.selector import EncodeConfig
from rayenc.codecs.dictionary import binary_parts

CFG = EncodeConfig()


def test_no_false_negatives_ints():
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 10**9, 50_000).astype(np.int64)
    col = PhysicalColumn("c", "INT64", vals)
    f = bloom.build(col, CFG)
    h = bloom.column_hashes(col)
    assert f.might_contain_hashes(h).all()


def test_fpp_reasonable():
    rng = np.random.default_rng(1)
    vals = rng.integers(0, 10**12, 20_000).astype(np.int64)
    f = bloom.build(PhysicalColumn("c", "INT64", vals), CFG)
    absent = rng.integers(10**13, 10**14, 20_000).astype(np.int64)
    fp = f.might_contain_hashes(
        bloom.column_hashes(PhysicalColumn("c", "INT64", absent))
    ).mean()
    assert fp < 0.03, fp  # target fpp 1%


def test_strings_and_value_hash():
    strings = [f"user-{i}" for i in range(5000)]
    offsets, data = binary_parts(pa.array(strings, pa.string()))
    col = PhysicalColumn("c", "BINARY", (offsets, data))
    f = bloom.build(col, CFG)
    assert bool(f.might_contain_hashes(bloom.literal_hashes(("user-42",), "BINARY"))[0])
    misses = f.might_contain_hashes(
        bloom.literal_hashes(tuple(f"nope-{i}" for i in range(500)), "BINARY")
    ).sum()
    assert misses < 25


def test_serialize_roundtrip():
    vals = np.arange(1000, dtype=np.int64)
    col = PhysicalColumn("c", "INT64", vals)
    f = bloom.build(col, CFG)
    f2 = bloom.SpecBloom.from_bitset(base64.b64decode(f.serialize()))
    h = bloom.column_hashes(col)
    np.testing.assert_array_equal(
        f.might_contain_hashes(h), f2.might_contain_hashes(h)
    )


@pytest.mark.parametrize("num_bytes", [32, 64, 128, 4096])
def test_probe_serialized_matches_deserialized(num_bytes):
    # both base64 padding cases (32 and 128 bytes end in one pad character,
    # 64 and 4096 in two) and blocks straddling 3-byte base64 groups
    f = bloom.SpecBloom(num_bytes)
    h = bloom.column_hashes(PhysicalColumn("c", "INT64", np.arange(3000, dtype=np.int64)))
    f.add_hashes(h[: num_bytes // 8])
    got = bloom.SpecBloom.probe_serialized(f.serialize(), h)
    np.testing.assert_array_equal(got, f.might_contain_hashes(h))
    assert got[: num_bytes // 8].all() and not got.all()


def test_pipeline_bloom_skipping(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from rayenc import pipeline
    from rayenc.selector import EncodeConfig

    path = str(tmp_path / "t.parquet")
    table = pa.table(
        {
            "k": pa.array(np.arange(0, 100_000, 7), pa.int64()),
            "v": pa.array(np.arange(0, 100_000, 7) * 2, pa.int64()),
        }
    )
    pq.write_table(table, path, row_group_size=2000)
    out = str(tmp_path / "enc")
    cfg = EncodeConfig(bloom_columns={"k"})
    pipeline.encode_job(path, out, config=cfg, target_block_bytes=1 << 16).materialize()
    import json, os

    names = [n for n in os.listdir(out) if n.endswith(".manifest.json")]
    m0 = json.loads(open(os.path.join(out, names[0])).read())
    assert any(c.get("bloom") for c in m0["chunks"] if c["name"] == "k")
    # a key that is in range everywhere but absent (multiples of 7 only):
    w = pipeline.DecodeWorker(out, predicate=[("k", "==", 15)])
    skipped = sum(
        w._skip_by_stats(json.loads(open(os.path.join(out, n)).read()))
        for n in names
    )
    assert skipped >= len(names) - 1  # bloom skips ~everything (fpp aside)
    # present key: the right partition survives and yields the row
    import ray

    refs = pipeline.decode_dataset(out, predicate=[("k", "==", 14)]).to_arrow_refs()
    tables = [ray.get(r) for r in refs]
    got = pa.concat_tables([t for t in tables if t.num_rows])
    assert got.num_rows == 1 and got.column("v")[0].as_py() == 28


def _count_hashes_and_probes(monkeypatch):
    """Record every literal ``bloom.literal_hashes`` hashes and every bloom
    probe (a container's base64 bitset or a Parquet chunk's filter), with
    the literal-hash memo cleared."""
    from rayenc.codecs import xxh

    hashed, probes = [], []
    real_hash = xxh.xxh64
    real_serialized = bloom.SpecBloom.probe_serialized
    real_probe = bloom.SpecBloom.might_contain_hashes
    monkeypatch.setattr(xxh, "xxh64", lambda v, *a: hashed.append(v) or real_hash(v, *a))
    monkeypatch.setattr(
        bloom.SpecBloom, "probe_serialized",
        classmethod(lambda cls, s, h: probes.append(s) or real_serialized(s, h)),
    )
    monkeypatch.setattr(
        bloom.SpecBloom, "might_contain_hashes",
        lambda self, h: probes.append(self) or real_probe(self, h),
    )
    bloom.literal_hashes.cache_clear()
    return hashed, probes


def test_lookup_hashes_the_literal_once(tmp_path, monkeypatch):
    # every partition spans the same doc_id range, so a lookup passes the
    # bounds everywhere and probes each partition's bloom; the literal is
    # hashed once per lookup, not once per partition
    import json

    from rayenc import blocks, pipeline

    keys = [f"once-{i:05d}" for i in range(0, 4000, 3)]
    names = []
    for k in range(4):
        t = pa.table({"doc_id": keys[k::4], "v": np.arange(len(keys[k::4]))})
        blob, man = blocks.encode_block(t, EncodeConfig(bloom_columns={"doc_id"}))
        man["blob"] = f"p{k}.renc"
        (tmp_path / f"p{k}.renc").write_bytes(blob)
        (tmp_path / f"p{k}.manifest.json").write_text(json.dumps(man))
        names.append(f"p{k}.manifest.json")
    hashed, probes = _count_hashes_and_probes(monkeypatch)
    for key, rows in (("once-00300", 1), ("once-00301", 0), ("once-02001", 1)):
        hashed.clear(), probes.clear()
        w = pipeline.DecodeWorker(str(tmp_path), predicate=[("doc_id", "==", key)])
        assert sum(x.num_rows for x in w({"manifest": names})) == rows
        assert hashed == [key.encode()] and len(probes) == 4


def test_parquet_lookup_hashes_the_literal_once(tmp_path, monkeypatch, capsys):
    # the case above as one Parquet file: four row groups over one doc_id
    # range, each probed through its bloom; planning and the CLI probe hash
    # the literal once, not once per row group
    from rayenc import cli, parquet_read_enc, parquet_write, predicate as P

    keys = [f"once-{i:05d}" for i in range(0, 4000, 3)]
    spread = [k for j in range(4) for k in keys[j::4]]
    t = pa.table({"doc_id": spread, "v": np.arange(len(spread))})
    path = str(tmp_path / "docs.parquet")
    parquet_write.write_table(t, path, EncodeConfig(bloom_columns={"doc_id"}),
                              row_group_size=len(keys[0::4]) + 1)
    f = parquet_read_enc.EncryptedFile(path)
    assert len(f.row_groups) == 4
    hashed, probes = _count_hashes_and_probes(monkeypatch)
    for key, kept in (("once-00300", [0]), ("once-00301", []), ("once-02001", [3])):
        hashed.clear(), probes.clear()
        tree = P.normalize([("doc_id", "==", key)])
        assert parquet_read_enc.plan_row_groups(f, tree) == kept
        assert hashed == [key.encode()] and len(probes) == 4
    hashed.clear()
    cli.main(["show-bloom-filter", path, "--column", "doc_id", "--test-value", "once-02001"])
    assert capsys.readouterr().out.count("-> maybe") == 1
    assert hashed == [b"once-02001"]


@pytest.mark.parametrize("adaptive", [False, True], ids=["optimal", "adaptive"])
def test_container_and_parquet_store_one_bloom(tmp_path, adaptive):
    # one builder: a container chunk's bloom is the bitset the Parquet
    # writer stores for the same rows as one row group, sized by the same
    # bloom_fpp or adaptive candidate rule
    from rayenc import blocks, data, parquet_read_enc, parquet_write

    rng = np.random.default_rng(3)
    t = data.make_table(4000).select(["doc_id"]).append_column(
        "k", pa.array(rng.integers(-(10**12), 10**12, 4000), pa.int64())
    )
    cfg = EncodeConfig(bloom_columns={"doc_id", "k"}, bloom_adaptive=adaptive)
    _, man = blocks.encode_block(t, cfg)
    path = str(tmp_path / "t.parquet")
    parquet_write.write_table(t, path, cfg)
    f = parquet_read_enc.EncryptedFile(path)
    assert len(f.row_groups) == 1
    for ci, name in enumerate(["doc_id", "k"]):
        entry = next(c for c in man["chunks"] if c["name"] == name)
        assert entry["bloom_v"] == bloom.MANIFEST_V
        stored = base64.b64decode(entry["bloom"])
        assert stored == parquet_read_enc.read_bloom_filter(f, 0, ci).bitset_bytes()
        ndv = len(np.unique(t[name].to_numpy()))
        want = bloom.adaptive_candidate_bytes(ndv) if adaptive else bloom.optimal_bytes(ndv)
        assert len(stored) == want
    if adaptive:  # 4,000 keys: the 64 KiB candidate, not the 8 KiB optimum
        assert len(stored) == 64 << 10 and bloom.optimal_bytes(4000) == 8 << 10


def test_manifest_bloom_without_version_is_ignored(tmp_path):
    # a `bloom` without "bloom_v" is an older, differently hashed filter:
    # readers must not trust it. An all-zero bitset would veto every probe
    import json

    from rayenc import blocks, pipeline

    t = pa.table({"k": pa.array(np.arange(0, 7000, 7), pa.int64()), "v": np.arange(1000)})
    blob, man = blocks.encode_block(t, EncodeConfig(bloom_columns={"k"}))
    entry = next(c for c in man["chunks"] if c["name"] == "k")
    entry["bloom"] = base64.b64encode(bytes(len(base64.b64decode(entry["bloom"])))).decode()
    man["blob"] = "p.renc"
    (tmp_path / "p.renc").write_bytes(blob)
    w = pipeline.DecodeWorker(str(tmp_path), predicate=[("k", "==", 700)])
    assert w._skip_by_stats(man)  # trusted, the zero bitset vetoes
    del entry["bloom_v"]
    (tmp_path / "p.manifest.json").write_text(json.dumps(man))
    assert not w._skip_by_stats(man)
    got = list(w({"manifest": ["p.manifest.json"]}))
    assert sum(x.num_rows for x in got) == 1 and got[0]["v"][0].as_py() == 100


def test_decimal_chunk_gets_no_container_bloom(tmp_path):
    # decimals are bounds-only to pruning, so the container builds no bloom
    # for them; lookups read the same rows. The Parquet writer keeps its
    # decimal bloom: other readers probe it
    from decimal import Decimal

    import pyarrow.compute as pc

    from rayenc import blocks, parquet_read_enc, parquet_write

    d = pa.array([Decimal(k).scaleb(-2) for k in range(0, 4000, 3)], pa.decimal128(12, 2))
    t = pa.table({"d": d, "k": pa.array(np.arange(len(d)), pa.int64())})
    cfg = EncodeConfig(bloom_columns={"d", "k"})
    blob, man = blocks.encode_block(t, cfg)
    assert cfg.bloom_columns == {"d", "k"}  # the caller's config is not changed
    entries = {c["name"]: c for c in man["chunks"]}
    assert "bloom" not in entries["d"] and "bloom_v" not in entries["d"]
    assert entries["k"]["bloom_v"] == bloom.MANIFEST_V
    for lit in (Decimal("12.34"), Decimal("12.35"), Decimal("39.99"), Decimal("-1.00")):
        got = blocks.decode_block(blob, man, predicate=[("d", "==", lit)])
        assert got.equals(t.filter(pc.equal(t["d"], pa.scalar(lit, d.type))))
    path = str(tmp_path / "d.parquet")
    parquet_write.write_table(t, path, cfg)
    f = parquet_read_enc.EncryptedFile(path)
    assert parquet_read_enc.read_bloom_filter(f, 0, 0) is not None


def test_nested_column_streams_get_no_container_bloom():
    # predicates name top-level columns, so no reader probes a bloom on a
    # list's #lengths or #values stream; a flat column named beside it
    # keeps its bloom
    from rayenc import blocks, data

    t = data.make_table(2000)
    _, man = blocks.encode_block(t, EncodeConfig(bloom_columns={"tokens", "doc_id"}))
    blooms = {c["name"] for c in man["chunks"] if "bloom" in c}
    assert blooms == {"doc_id"}
    _, man = blocks.encode_block(t, EncodeConfig(bloom_columns={"tokens"}))
    assert not any("bloom" in c for c in man["chunks"])
