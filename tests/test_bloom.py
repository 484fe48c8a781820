"""Split-block bloom filters (BlockSplitBloomFilter analog) + pipeline wiring."""

import numpy as np
import pyarrow as pa
import pytest

from rayenc import bloom
from rayenc.schema import PhysicalColumn
from rayenc.codecs.dictionary import binary_parts


def test_no_false_negatives_ints():
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 10**9, 50_000).astype(np.int64)
    col = PhysicalColumn("c", "INT64", vals)
    f = bloom.build_for_column(col)
    h = bloom.hashes_for_column(col)
    assert f.might_contain_hashes(h).all()


def test_fpp_reasonable():
    rng = np.random.default_rng(1)
    vals = rng.integers(0, 10**12, 20_000).astype(np.int64)
    f = bloom.build_for_column(PhysicalColumn("c", "INT64", vals))
    absent = rng.integers(10**13, 10**14, 20_000).astype(np.int64)
    fp = f.might_contain_hashes(
        bloom._hash64(absent.view(np.uint64))
    ).mean()
    assert fp < 0.03, fp  # target fpp 1%


def test_strings_and_value_hash():
    strings = [f"user-{i}" for i in range(5000)]
    offsets, data = binary_parts(pa.array(strings, pa.string()))
    col = PhysicalColumn("c", "BINARY", (offsets, data))
    f = bloom.build_for_column(col)
    assert bool(f.might_contain_hashes(bloom.value_hash("user-42"))[0])
    misses = sum(
        bool(f.might_contain_hashes(bloom.value_hash(f"nope-{i}"))[0])
        for i in range(500)
    )
    assert misses < 25


def test_serialize_roundtrip():
    vals = np.arange(1000, dtype=np.int64)
    f = bloom.build_for_column(PhysicalColumn("c", "INT64", vals))
    f2 = bloom.BloomFilter.deserialize(f.serialize())
    h = bloom._hash64(vals.view(np.uint64))
    np.testing.assert_array_equal(
        f.might_contain_hashes(h), f2.might_contain_hashes(h)
    )


@pytest.mark.parametrize("num_bytes", [32, 64, 128, 4096])
def test_probe_serialized_matches_deserialized(num_bytes):
    # both base64 padding cases (32 and 128 bytes end in one pad character,
    # 64 and 4096 in two) and blocks straddling 3-byte base64 groups
    f = bloom.BloomFilter(num_bytes)
    h = bloom._hash64(np.arange(3000, dtype=np.uint64))
    f.add_hashes(h[: num_bytes // 8])
    got = bloom.BloomFilter.probe_serialized(f.serialize(), h)
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


def test_lookup_hashes_the_literal_once(tmp_path, monkeypatch):
    # every partition spans the same doc_id range, so a lookup passes the
    # bounds everywhere and probes each partition's bloom; the literal is
    # hashed once per lookup, not once per partition
    import json

    from rayenc import blocks, pipeline
    from rayenc.selector import EncodeConfig

    keys = [f"once-{i:05d}" for i in range(0, 4000, 3)]
    names = []
    for k in range(4):
        t = pa.table({"doc_id": keys[k::4], "v": np.arange(len(keys[k::4]))})
        blob, man = blocks.encode_block(t, EncodeConfig(bloom_columns={"doc_id"}))
        man["blob"] = f"p{k}.renc"
        (tmp_path / f"p{k}.renc").write_bytes(blob)
        (tmp_path / f"p{k}.manifest.json").write_text(json.dumps(man))
        names.append(f"p{k}.manifest.json")
    hashed, probes = [], []
    real_hash, real_probe = bloom.value_hash, bloom.BloomFilter.probe_serialized
    monkeypatch.setattr(bloom, "value_hash", lambda v, *a: hashed.append(v) or real_hash(v, *a))
    monkeypatch.setattr(
        bloom.BloomFilter, "probe_serialized",
        classmethod(lambda cls, s, h: probes.append(s) or real_probe(s, h)),
    )
    blocks._literal_hashes.cache_clear()
    for key, rows in (("once-00300", 1), ("once-00301", 0), ("once-02001", 1)):
        hashed.clear(), probes.clear()
        w = pipeline.DecodeWorker(str(tmp_path), predicate=[("doc_id", "==", key)])
        assert sum(x.num_rows for x in w({"manifest": names})) == rows
        assert len(hashed) == 1 and len(probes) == 4
