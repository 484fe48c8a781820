"""Ray Data encode/decode pipeline: end-to-end round trip, resume
(FIXTURES.md F4), deterministic partitioning, skew handling."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from rayenc import data, pipeline, rewrite
from rayenc.selector import EncodeConfig

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def token_parquet(tmp_path_factory):
    d = tmp_path_factory.mktemp("tok")
    path = str(d / "tokens.parquet")
    table = data.make_table(3000, mean_tokens=60.0)
    pq.write_table(table, path, row_group_size=500)
    return path


def test_plan_partitions_deterministic(token_parquet):
    p1 = pipeline.plan_partitions(token_parquet, target_block_bytes=1 << 17)
    p2 = pipeline.plan_partitions(token_parquet, target_block_bytes=1 << 17)
    assert p1 == p2
    assert len(p1) >= 2  # multiple row groups -> multiple partitions
    assert [d["pid"] for d in p1] == list(range(len(p1)))


def test_plan_partitions_splits_giant_row_group(tmp_path):
    table = data.make_table(2000, mean_tokens=200.0, seed=7)
    path = str(tmp_path / "big.parquet")
    pq.write_table(table, path, row_group_size=10**9)  # single giant row group
    descs = pipeline.plan_partitions(path, target_block_bytes=1 << 18)
    assert len(descs) > 1
    assert all(d.get("row_start", -1) >= 0 for d in descs)
    total = sum(d["row_count"] for d in descs)
    assert total == 2000


def test_encode_decode_roundtrip(ray_session, token_parquet, tmp_path):
    out = str(tmp_path / "enc")
    summary = pipeline.encode_job(token_parquet, out, concurrency=2).to_pandas()
    assert summary["rows"].sum() == 3000
    assert (summary["blob_bytes"] < summary["raw_bytes"]).all()
    res = pipeline.verify_roundtrip(token_parquet, out, key="doc_id")
    assert res["equal"] and res["rows"] == 3000


def test_resume_skips_completed(ray_session, token_parquet, tmp_path):
    out = str(tmp_path / "enc")
    pipeline.encode_job(token_parquet, out, concurrency=2).materialize()
    manifests = sorted(f for f in os.listdir(out) if f.endswith(".manifest.json"))
    blobs = sorted(f for f in os.listdir(out) if f.endswith(".renc"))
    # FIXTURES F4 resume: delete half the blobs (keep manifests only for survivors)
    killed = blobs[: len(blobs) // 2]
    for b in killed:
        os.remove(os.path.join(out, b))
        os.remove(os.path.join(out, b.replace(".renc", ".manifest.json")))
    before = {
        f: os.path.getmtime(os.path.join(out, f))
        for f in os.listdir(out)
        if f.endswith(".renc")
    }
    summary = pipeline.encode_job(token_parquet, out, concurrency=2).to_pandas()
    # only the missing partitions were re-encoded
    assert len(summary) == len(killed)
    after = {
        f: os.path.getmtime(os.path.join(out, f))
        for f in os.listdir(out)
        if f.endswith(".renc")
    }
    for f, mt in before.items():
        assert after[f] == mt, f"{f} was re-encoded"
    res = pipeline.verify_roundtrip(token_parquet, out, key="doc_id")
    assert res["equal"]


def test_resume_detects_manifest_without_blob(ray_session, token_parquet, tmp_path):
    out = str(tmp_path / "enc")
    pipeline.encode_job(token_parquet, out, concurrency=2).materialize()
    blobs = sorted(f for f in os.listdir(out) if f.endswith(".renc"))
    os.remove(os.path.join(out, blobs[0]))  # blob gone, manifest stays
    summary = pipeline.encode_job(token_parquet, out, concurrency=2).to_pandas()
    assert len(summary) == 1  # that one partition re-ran
    assert pipeline.verify_roundtrip(token_parquet, out, key="doc_id")["equal"]


def test_deterministic_blobs_across_runs(ray_session, token_parquet, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    pipeline.encode_job(token_parquet, out1, concurrency=2).materialize()
    pipeline.encode_job(token_parquet, out2, concurrency=1).materialize()
    for f in sorted(os.listdir(out1)):
        if f.endswith(".renc"):
            a = open(os.path.join(out1, f), "rb").read()
            b = open(os.path.join(out2, f), "rb").read()
            assert a == b, f"{f} not deterministic"


def test_testdata_table_roundtrip(ray_session, tmp_path):
    out = str(tmp_path / "li")
    path = f"{SF}/lineitem.parquet"
    pipeline.encode_job(path, out, concurrency=2).materialize()
    res = pipeline.verify_roundtrip(path, out)
    assert res["equal"] and res["rows"] == 6000


def test_manifest_lineage_and_stats(ray_session, token_parquet, tmp_path):
    out = str(tmp_path / "enc")
    pipeline.encode_job(token_parquet, out, concurrency=1).materialize()
    m = sorted(f for f in os.listdir(out) if f.endswith(".manifest.json"))[0]
    manifest = json.loads(open(os.path.join(out, m)).read())
    assert manifest["lineage"]["path"].endswith("tokens.parquet")
    assert manifest["timings"]["encode_s"] > 0
    chunks = {c["name"]: c for c in manifest["chunks"]}
    assert chunks["n_tok"]["stats"]["null_count"] == 0
    assert chunks["n_tok"]["stats"]["min"] >= 1


def test_grouped_encode_skew_capped(ray_session, tmp_path):
    """FIXTURES.md F4 skew: 95% of rows in one source; the grouped encode must
    bound the largest block and still round-trip."""
    import pyarrow.compute as pc

    rng = np.random.default_rng(3)
    n = 4000
    rare = np.char.add("rare-", rng.integers(0, 5, n).astype("U1"))
    src = np.where(rng.random(n) < 0.95, "dominant", rare)
    n_tok = rng.integers(5, 50, n).astype(np.int32)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    values = rng.integers(0, 50257, int(n_tok.sum()), dtype=np.int32)
    tokens = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), pa.array(values, pa.int32())
    ).cast(pa.list_(pa.int32()))
    table = pa.table(
        {
            "doc_id": [f"{s}/{i:09d}" for i, s in enumerate(src)],
            "tokens": tokens,
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(src.tolist(), pa.string()),
        }
    )
    path = str(tmp_path / "skew.parquet")
    pq.write_table(table, path)
    out = str(tmp_path / "enc")
    summary = pipeline.encode_grouped_job(
        path, out, key="source", max_block_value_bytes=60_000
    ).to_pandas()
    # the dominant source was split across multiple sub-buckets BEFORE the
    # shuffle: more buckets than distinct sources
    assert summary.bucket.nunique() > 6, summary
    # no task materialized more than ~2x the block budget (the VERDICT bound:
    # one giant source must not become one giant group)
    per_bucket_bytes = summary.groupby("bucket").value_bytes.sum()
    assert per_bucket_bytes.max() <= 2 * 60_000, per_bucket_bytes.max()
    # lossless, order-insensitive
    res = pipeline.verify_roundtrip(path, out, key="doc_id")
    assert res["equal"] and res["rows"] == n


def test_transcode_parquet_job(ray_session, tmp_path):
    """Distributed parquet->parquet re-encode; output readable by pyarrow."""
    src = f"{SF}/lineitem.parquet"
    out = str(tmp_path / "pq")
    df = pipeline.transcode_parquet_job(src, out, target_block_bytes=1 << 19).to_pandas()
    assert len(df) >= 1
    files = sorted(os.listdir(out))
    got = pa.concat_tables([pq.read_table(os.path.join(out, f)) for f in files])
    want = pq.read_table(src)
    assert got.sort_by("l_orderkey").to_pydict() == want.sort_by("l_orderkey").to_pydict()
    # resume: nothing left to do on re-submit
    again = pipeline.transcode_parquet_job(src, out, target_block_bytes=1 << 19).to_pandas()
    assert len(again) == 0


def test_kill_mid_run_then_resume(ray_session, tmp_path):
    """SURVEY §5(f): SIGKILL an encode job mid-run; the re-submitted job
    completes only the missing partitions and the result is lossless."""
    import signal
    import subprocess
    import sys
    import time as _t

    path = data.cached_parquet(20_000, mean_tokens=60.0)
    out = str(tmp_path / "enc")
    script = f"""
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False, log_to_driver=False)
import sys; sys.path.insert(0, "/root/repo")
from rayenc import pipeline
pipeline.encode_job({path!r}, {out!r}, target_block_bytes=1 << 19, concurrency=2).materialize()
"""
    proc = subprocess.Popen(
        [sys.executable, "-c", script], start_new_session=True
    )
    # deterministic trigger: kill as soon as >= 4 manifests exist on disk
    deadline = _t.time() + 120
    while _t.time() < deadline:
        done = len(pipeline.completed_pids(out))
        if done >= 4:
            break
        if proc.poll() is not None:
            break  # finished before we could kill — still a valid resume test
        _t.sleep(0.2)
    if proc.poll() is None:
        # kill the whole process group: Ray worker processes must stop too,
        # or in-flight tasks keep writing manifests after the driver dies
        # (the source of the old timing flake)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    # wait for the manifest set to quiesce before counting
    prev = -1
    stable_since = _t.time()
    while _t.time() - stable_since < 1.5:
        cur = len(pipeline.completed_pids(out))
        if cur != prev:
            prev = cur
            stable_since = _t.time()
        _t.sleep(0.25)
    killed_done = len(pipeline.completed_pids(out))
    total = len(pipeline.plan_partitions(path, target_block_bytes=1 << 19))
    # resume in-process
    summary = pipeline.encode_job(
        path, out, target_block_bytes=1 << 19, concurrency=2
    ).to_pandas()
    assert len(summary) == total - killed_done
    assert pipeline.verify_roundtrip(path, out, key="doc_id")["equal"]


def test_export_parquet_job(ray_session, tmp_path):
    """container -> parquet export closes the lifecycle; output readable by
    DuckDB and equal to the original input."""
    import duckdb

    src = f"{SF}/events.parquet"
    enc = str(tmp_path / "enc")
    out = str(tmp_path / "pq")
    pipeline.encode_job(src, enc, target_block_bytes=1 << 20).materialize()
    from rayenc.selector import EncodeConfig

    df = pipeline.export_parquet_job(
        enc, out, EncodeConfig(compression="zstd")
    ).to_pandas()
    assert df["rows"].sum() == 1000
    want = pq.read_table(src).sort_by("event_id")
    got = pa.concat_tables(
        [pq.read_table(str(p)) for p in sorted((tmp_path / "pq").iterdir())]
    ).sort_by("event_id")
    for c in want.column_names:
        assert got.column(c).combine_chunks().equals(want.column(c).combine_chunks()), c
    n = duckdb.sql(f"SELECT COUNT(*) FROM '{out}/*.parquet'").fetchone()[0]
    assert n == 1000
    # resume: nothing left to do
    assert len(pipeline.export_parquet_job(enc, out).to_pandas()) == 0


def test_encode_dataset_job(ray_session, tmp_path):
    """Dataset-source encode: stage + deterministic partitioned job."""
    import ray

    table = pq.read_table(f"{SF}/orders.parquet")
    out = str(tmp_path / "dsenc")
    summary = pipeline.encode_dataset_job(
        ray.data.from_arrow(table), out,
        staging_dir=str(tmp_path / "stage"), target_block_bytes=1 << 20,
    ).to_pandas()
    assert summary["rows"].sum() == table.num_rows
    got = pa.concat_tables(
        [ray.get(r) for r in pipeline.decode_dataset(out).to_arrow_refs()]
    ).sort_by("o_orderkey")
    want = table.sort_by("o_orderkey")
    for c in want.column_names:
        assert got.column(c).combine_chunks().equals(want.column(c).combine_chunks()), c


def test_default_staging_dir_multi_node_raises(monkeypatch):
    from rayenc import pipeline

    monkeypatch.setattr(
        pipeline.ray, "nodes",
        lambda: [{"Alive": True}, {"Alive": True}, {"Alive": False}],
    )
    with pytest.raises(ValueError, match="staging_dir"):
        pipeline.default_staging_dir(None, "x-")
    # explicit path always accepted
    assert pipeline.default_staging_dir("/shared/x", "x-") == "/shared/x"


def test_decode_dataset_in_predicate(tmp_path):
    from rayenc import pipeline

    src = str(tmp_path / "src.parquet")
    t = pa.table(
        {
            "k": pa.array(list(range(100)), pa.int64()),
            "s": pa.array([f"v{i:03d}" for i in range(100)]),
        }
    )
    pq.write_table(t, src, row_group_size=10)
    out = str(tmp_path / "enc")
    pipeline.encode_job([src], out, target_block_bytes=1 << 12).materialize()
    got = pipeline.decode_dataset(out, predicate=[("k", "in", [3, 55, 999])]).to_pandas()
    assert sorted(got["k"].tolist()) == [3, 55]
    got2 = pipeline.decode_dataset(
        out, predicate=[("s", "in", ["v007", "v099", "nope"])]
    ).to_pandas()
    assert sorted(got2["s"].tolist()) == ["v007", "v099"]
    # empty member set inside bounds of nothing -> no rows
    got3 = pipeline.decode_dataset(out, predicate=[("k", "in", [1000, 2000])]).to_pandas()
    assert len(got3) == 0


def test_encode_evolved_job(ray_session, tmp_path):
    """Evolved parquet generations ingest into ONE uniform container:
    widened/null-filled at encode time, decode needs no special handling,
    resume still skips completed partitions."""
    import ray

    from rayenc import parquet_write
    from rayenc.parquet_compat import read_tables_evolved

    a = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                  "v": pa.array([10, 20, 30], pa.int32()),
                  "s": ["a", "b", "c"]})
    b = pa.table({"k": pa.array([4, 5], pa.int64()),
                  "v": pa.array([2 ** 40, -7], pa.int64()),
                  "t": pa.array([0.5, 1.5], pa.float64())})
    pa_, pb = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    parquet_write.write_table(a, pa_)
    parquet_write.write_table(b, pb)
    out = str(tmp_path / "container")
    s1 = pipeline.encode_evolved_job([pa_, pb], out).to_pandas()
    assert len(s1) == 2
    got = pa.concat_tables(
        [ray.get(r) for r in pipeline.decode_dataset(out).to_arrow_refs()]
    ).sort_by("k")
    want = read_tables_evolved([pa_, pb], strict=False).sort_by("k")
    assert got.cast(want.schema).equals(want)
    # resume: everything already done -> zero new partitions
    s2 = pipeline.encode_evolved_job([pa_, pb], out).to_pandas()
    assert len(s2) == 0


def test_decode_dataset_dictionary_strings(tmp_path):
    """dictionary_strings=True streams low-NDV string columns as
    DictionaryArray blocks end-to-end (object store carries ids + NDV
    dictionary, not materialized strings)."""
    import ray

    from rayenc import pipeline

    src = str(tmp_path / "src.parquet")
    t = pa.table(
        {
            "k": pa.array(list(range(1000)), pa.int64()),
            "flag": pa.array(["A", "N", "R"][i % 3] for i in range(1000)),
        }
    )
    pq.write_table(t, src, row_group_size=250)
    out = str(tmp_path / "enc")
    pipeline.encode_job([src], out, target_block_bytes=1 << 14).materialize()

    tbl = pa.concat_tables(
        ray.get(pipeline.decode_dataset(out, dictionary_strings=True).to_arrow_refs())
    )
    assert pa.types.is_dictionary(tbl.schema.field("flag").type)
    assert tbl.num_rows == 1000
    assert set(tbl.column("flag").cast(pa.string()).to_pylist()) == {"A", "N", "R"}

    # predicate on the dictionary column filters correctly
    got = pipeline.decode_dataset(
        out, predicate=[("flag", "==", "R")], dictionary_strings=True
    ).to_pandas()
    assert len(got) == sum(1 for i in range(1000) if ["A", "N", "R"][i % 3] == "R")


def test_decode_dataset_nan_chunk_not_skipped(tmp_path):
    # a float chunk containing NaN must stay unbounded in manifest stats
    # (NaN bounds compare false for every range predicate and would wrongly
    # veto the whole chunk; parquet-mr skips min/max on NaN)
    from rayenc import pipeline

    src = str(tmp_path / "src.parquet")
    t = pa.table(
        {
            "k": pa.array(list(range(20)), pa.int64()),
            "x": pa.array([1.0, 2.0, float("nan"), 4.0] * 5, pa.float64()),
        }
    )
    pq.write_table(t, src, row_group_size=20)
    out = str(tmp_path / "enc")
    pipeline.encode_job([src], out, target_block_bytes=1 << 12).materialize()
    man = json.loads(
        open(os.path.join(out, next(n for n in os.listdir(out) if n.endswith(".json")))).read()
    )
    st = next(c for c in man["chunks"] if c["name"] == "x")["stats"]
    assert st["min"] is None and st["max"] is None
    got = pipeline.decode_dataset(out, predicate=[("x", ">", 1.5)]).to_pandas()
    assert sorted(got["x"].tolist()) == [2.0] * 5 + [4.0] * 5
    # != matches NaN rows under IEEE semantics; the chunk must survive too
    got2 = pipeline.decode_dataset(out, predicate=[("x", "!=", 1.0)]).to_pandas()
    assert len(got2) == 15


def test_decode_bad_block_threshold(ray_session, token_parquet, tmp_path):
    # UnmaterializableRecordCounter analog: corrupt one partition's blob;
    # default decode fails fast, a threshold skips it with the rest intact
    out = str(tmp_path / "enc")
    pipeline.encode_job(
        token_parquet, out, concurrency=2, target_block_bytes=1 << 14
    ).materialize()
    mans = sorted(n for n in os.listdir(out) if n.endswith(".manifest.json"))
    assert len(mans) >= 2
    victim = json.loads(open(os.path.join(out, mans[0])).read())
    total = sum(
        json.loads(open(os.path.join(out, m)).read())["num_rows"] for m in mans
    )
    blob_path = os.path.join(out, victim["blob"])
    open(blob_path, "wb").write(b"\x00" * 16)  # truncated garbage
    with pytest.raises(Exception):
        pipeline.decode_dataset(out, concurrency=1).materialize()
    got = pipeline.decode_dataset(
        out, concurrency=1, bad_block_threshold=0.5
    ).count()
    assert got == total - victim["num_rows"]
    # a zero threshold behaves like fail-fast
    with pytest.raises(Exception):
        pipeline.decode_dataset(
            out, concurrency=1, bad_block_threshold=0.0
        ).materialize()


def test_predicate_errors_are_not_bad_partitions(tmp_path):
    # a predicate that cannot be evaluated is a fault of the query: it
    # raises under any bad_block_threshold instead of skipping partitions
    # (here each worker sees one of four partitions, so a counted error
    # would stay within 0.5 and be skipped with a warning)
    from rayenc import blocks
    from rayenc import predicate as P

    class Raises(P.UserPredicate):
        def keep(self, array):
            raise ValueError("udp failed")

    names = []
    for i in range(4):
        t = pa.table({"k": pa.array(range(i * 10, i * 10 + 10), pa.int64())})
        blob, manifest = blocks.encode_block(t, EncodeConfig(page_rows=4))
        manifest["blob"] = f"p{i}.renc"
        (tmp_path / f"p{i}.renc").write_bytes(blob)
        (tmp_path / f"p{i}.manifest.json").write_text(json.dumps(manifest))
        names.append(f"p{i}.manifest.json")
    for pred in ([("k", "==", "5")], [("k", "udp", Raises())], [("nope", "==", 1)]):
        for name in names:
            worker = pipeline.DecodeWorker(
                str(tmp_path), predicate=pred, bad_block_threshold=0.5, total_partitions=4
            )
            with pytest.raises(P.PredicateError):
                list(worker({"manifest": [name]}))
    # the Parquet read runs the same two-phase read and raises the same error
    from rayenc.parquet_read_enc import read_table_filtered

    path = str(tmp_path / "k.parquet")
    pq.write_table(pa.table({"k": pa.array(range(40), pa.int64())}), path, row_group_size=10)
    for pred in ([("k", "==", "5")], [("k", "udp", Raises())]):
        with pytest.raises(P.PredicateError):
            read_table_filtered(path, pred)


def _write_part(d, name: str, table: pa.Table) -> None:
    from rayenc import blocks

    blob, manifest = blocks.encode_block(table)
    manifest["blob"] = f"{name}.renc"
    (d / f"{name}.renc").write_bytes(blob)
    (d / f"{name}.manifest.json").write_text(json.dumps(manifest))


def test_manifest_is_parsed_once_until_the_partition_is_replaced(tmp_path, monkeypatch):
    parsed = []
    real = json.loads
    monkeypatch.setattr(pipeline.json, "loads", lambda b: parsed.append(1) or real(b))
    _write_part(tmp_path, "p", pa.table({"k": [1, 2, 3]}))
    worker = pipeline.DecodeWorker(str(tmp_path))
    for _ in range(3):
        assert pa.concat_tables(worker({"manifest": ["p.manifest.json"]}))["k"].to_pylist() == [1, 2, 3]
    assert len(parsed) == 1
    # a partition rewritten by os.replace (a new inode) reads its new rows
    staged = tmp_path / "new"
    staged.mkdir()
    _write_part(staged, "p", pa.table({"k": [7, 8, 9, 10]}))
    os.replace(staged / "p.renc", tmp_path / "p.renc")
    os.replace(staged / "p.manifest.json", tmp_path / "p.manifest.json")
    got = pa.concat_tables(pipeline.DecodeWorker(str(tmp_path))({"manifest": ["p.manifest.json"]}))
    assert got["k"].to_pylist() == [7, 8, 9, 10] and len(parsed) == 2


def test_corrupt_manifest_is_not_kept_and_counts_as_bad(tmp_path):
    _write_part(tmp_path, "p", pa.table({"k": [1, 2, 3]}))
    good = (tmp_path / "p.manifest.json").read_bytes()
    (tmp_path / "p.manifest.json").write_bytes(good[:-5])
    with pytest.raises(json.JSONDecodeError):
        list(pipeline.DecodeWorker(str(tmp_path))({"manifest": ["p.manifest.json"]}))
    worker = pipeline.DecodeWorker(str(tmp_path), bad_block_threshold=1.0)
    assert list(worker({"manifest": ["p.manifest.json"]})) == [] and worker._bad == 1
    # mended, it reads: the failed parse was not kept
    staged = tmp_path / "mended.json"
    staged.write_bytes(good)
    os.replace(staged, tmp_path / "p.manifest.json")
    got = pa.concat_tables(worker({"manifest": ["p.manifest.json"]}))
    assert got["k"].to_pylist() == [1, 2, 3] and worker._bad == 1


def test_decode_dataset_null_predicates(tmp_path):
    # IS NULL / IS NOT NULL pushdown: null_count stats veto partitions
    from rayenc import pipeline

    src = str(tmp_path / "src.parquet")
    t = pa.table(
        {
            "k": pa.array(list(range(30)), pa.int64()),
            "x": pa.array(
                [None if (i < 10 and i % 2) else float(i) for i in range(10)]
                + [float(i) for i in range(10, 20)]  # rg without nulls
                + [None] * 10,  # all-null rg
                pa.float64(),
            ),
        }
    )
    pq.write_table(t, src, row_group_size=10)
    out = str(tmp_path / "enc")
    pipeline.encode_job([src], out, target_block_bytes=350).materialize()
    got = pipeline.decode_dataset(out, predicate=[("x", "is_null", None)]).to_pandas()
    assert sorted(got["k"].tolist()) == [1, 3, 5, 7, 9] + list(range(20, 30))
    got2 = pipeline.decode_dataset(out, predicate=[("x", "not_null", None)]).to_pandas()
    assert len(got2) == 15
    # stats veto: the no-null partition is skipped for is_null, the
    # all-null partition for not_null
    mans = sorted(n for n in os.listdir(out) if n.endswith(".manifest.json"))
    w_isnull = pipeline.DecodeWorker(out, predicate=[("x", "is_null", None)])
    w_notnull = pipeline.DecodeWorker(out, predicate=[("x", "not_null", None)])
    skips_is = [
        w_isnull._skip_by_stats(json.loads(open(os.path.join(out, n)).read()))
        for n in mans
    ]
    skips_not = [
        w_notnull._skip_by_stats(json.loads(open(os.path.join(out, n)).read()))
        for n in mans
    ]
    assert skips_is == [False, True, False]
    assert skips_not == [False, False, True]


def test_plan_partitions_parallel_matches_serial(ray_session, token_parquet, tmp_path):
    # parallel footer reading must produce byte-identical descriptors
    paths = [token_parquet]
    for i in range(3):
        p = str(tmp_path / f"c{i}.parquet")
        pq.write_table(data.make_table(500, seed=i), p, row_group_size=200)
        paths.append(p)
    a = pipeline.plan_partitions(paths, target_block_bytes=1 << 17, parallel=False)
    b = pipeline.plan_partitions(paths, target_block_bytes=1 << 17, parallel=True)
    assert a == b


def test_merge_containers(ray_session, token_parquet, tmp_path):
    # appendFile analog at container granularity: blobs copy verbatim,
    # pids renumber, the merged container decodes to the union
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    t = data.make_table(800, mean_tokens=40.0, seed=5)
    p1, p2 = str(tmp_path / "p1.parquet"), str(tmp_path / "p2.parquet")
    pq.write_table(t.slice(0, 500), p1, row_group_size=200)
    pq.write_table(t.slice(500), p2, row_group_size=200)
    pipeline.encode_job(p1, a, target_block_bytes=1 << 14).materialize()
    pipeline.encode_job(p2, b, target_block_bytes=1 << 14).materialize()
    out = str(tmp_path / "m")
    n = pipeline.merge_containers([a, b], out)
    assert n >= 2
    res = pipeline.verify_roundtrip([p1, p2], out, key="doc_id")
    assert res["equal"] and res["rows"] == 800
    # schema mismatch is loud
    c = str(tmp_path / "c")
    pq.write_table(pa.table({"z": [1]}), str(tmp_path / "z.parquet"))
    pipeline.encode_job(str(tmp_path / "z.parquet"), c).materialize()
    with pytest.raises(ValueError):
        pipeline.merge_containers([a, c], str(tmp_path / "bad"))


def test_read_parquet_filtered_many_files(ray_session, tmp_path):
    # >64 files triggers the parallel footer-counting path
    paths = []
    for i in range(70):
        p = str(tmp_path / f"f{i:03d}.parquet")
        pq.write_table(
            pa.table({"k": pa.array([i * 10 + j for j in range(10)], pa.int64())}), p
        )
        paths.append(p)
    ds = pipeline.read_parquet_filtered(paths, [("k", "<", 25)])
    got = sorted(r["k"] for r in ds.take_all())
    assert got == list(range(25))


def test_decode_dataset_rejects_unknown_columns_at_plan_time(
    ray_session, token_parquet, tmp_path
):
    out = str(tmp_path / "cval")
    pipeline.encode_job([token_parquet], out).materialize()
    with pytest.raises(ValueError, match="not in container"):
        pipeline.decode_dataset(out, predicate=[("nope", "==", 1)])
    with pytest.raises(ValueError, match="not in container"):
        pipeline.decode_dataset(out, columns=["zzz"])
    # known columns still plan fine
    assert pipeline.decode_dataset(out, columns=["doc_id"]).count() > 0


def test_decode_dataset_validation_unions_manifest_schemas(
    ray_session, tmp_path
):
    # merged containers can have per-part schemas: a column present only in
    # LATER manifests must not be rejected at plan time (ADVICE r4)
    import pyarrow.parquet as pq

    a = str(tmp_path / "a.parquet")
    b = str(tmp_path / "b.parquet")
    pq.write_table(pa.table({"x": [1, 2, 3]}), a)
    pq.write_table(pa.table({"x": [4, 5], "extra": [1.0, 2.0]}), b)
    out = str(tmp_path / "cmerge")
    pipeline.encode_job([a, b], out).materialize()
    manifests = sorted(
        n for n in os.listdir(out) if n.endswith(".manifest.json")
    )
    assert len(manifests) == 2
    # "extra" exists only in the second part: plan must accept it
    got = pipeline.decode_dataset(out, columns=["extra"])
    assert got.count() >= 1
    with pytest.raises(ValueError, match="not in container"):
        pipeline.decode_dataset(out, columns=["really_missing"])


def test_encode_job_rerun_after_out_dir_deleted(
    ray_session, token_parquet, tmp_path
):
    # the output dir is deleted between two jobs: the second job's tasks
    # must create it again
    import shutil

    out = str(tmp_path / "rerun")
    pipeline.encode_job([token_parquet], out, resume=False).materialize()
    shutil.rmtree(out)
    pipeline.encode_job([token_parquet], out, resume=False).materialize()
    assert pipeline.decode_dataset(out).count() > 0


def test_ingest_jsonl_roundtrip(ray_session, tmp_path):
    import json

    rows = [
        {"doc_id": f"d{i:04d}", "text": f"body {i} " * (1 + i % 7),
         "source": ["web", "books"][i % 2]}
        for i in range(500)
    ]
    src = str(tmp_path / "corpus.jsonl")
    with open(src, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
    out = str(tmp_path / "jl")
    pipeline.ingest_jsonl_job(
        src, out, columns=["doc_id", "text", "source"],
        staging_dir=str(tmp_path / "stage"),
    ).materialize()
    got = (
        pipeline.decode_dataset(out).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    import pandas as pd

    want = pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["doc_id", "text", "source"]], want)


def _empty_summary_read(d):
    from rayenc import summary

    lake = d("lake")
    pq.write_table(pa.table({"k": pa.array([1, 2, 3], pa.int64())}), f"{lake}/f0.parquet")
    summary.write_summary(lake)
    return pipeline.read_parquet_summary(lake, [("k", ">", 10**9)])


# every public Ray job with an input that holds no work; merge_containers
# runs on the driver and rejects an empty input by design
EMPTY_JOBS = {
    "encode_job": lambda d: pipeline.encode_job([], d("out")),
    "encode_dataset_job": lambda d: pipeline.encode_dataset_job(
        ray.data.from_items([]), d("out"), staging_dir=d("stage")
    ),
    "ingest_jsonl_job": lambda d: pipeline.ingest_jsonl_job([], d("out")),
    "transcode_parquet_job": lambda d: pipeline.transcode_parquet_job([], d("out")),
    "encode_grouped_job": lambda d: pipeline.encode_grouped_job([], d("out")),
    "export_parquet_job": lambda d: pipeline.export_parquet_job(d("empty"), d("out")),
    "decode_dataset": lambda d: pipeline.decode_dataset(d("empty")),
    "read_parquet_filtered": lambda d: pipeline.read_parquet_filtered([], [("k", "==", 1)]),
    "read_parquet_summary": _empty_summary_read,
    "read_parquet_evolved": lambda d: pipeline.read_parquet_evolved([]),
    "encode_evolved_job": lambda d: pipeline.encode_evolved_job([], d("out")),
    "rewrite_job": lambda d: rewrite.rewrite_job(d("empty"), d("out")),
}


def test_empty_input_table_lists_every_job():
    jobs = {
        n for n in dir(pipeline)
        if n.endswith("_job") or n.startswith("read_parquet_") or n == "decode_dataset"
    }
    assert jobs | {"rewrite_job"} == set(EMPTY_JOBS)


@pytest.mark.parametrize("job", sorted(EMPTY_JOBS))
def test_every_job_accepts_empty_input(ray_session, tmp_path, job):
    def d(name):
        (tmp_path / name).mkdir(exist_ok=True)
        return str(tmp_path / name)

    ds = EMPTY_JOBS[job](d)
    assert isinstance(ds, ray.data.Dataset)
    assert ds.take_all() == []


def test_unknown_projected_columns_raise_on_the_driver(ray_session, tmp_path):
    from rayenc import summary
    from rayenc.parquet_compat import read_table_conformance
    from rayenc.parquet_read_enc import read_table_filtered

    lake = str(tmp_path / "lake")
    os.makedirs(lake)
    path = f"{lake}/f0.parquet"
    pq.write_table(pa.table({"k": pa.array([1, 2, 3], pa.int64())}), path)
    summary.write_summary(lake)
    pred = [("k", ">=", 2)]
    with pytest.raises(ValueError, match="nope"):
        read_table_filtered(path, pred, columns=["nope"])
    # the jobs check before they launch: building the Dataset raises
    with pytest.raises(ValueError, match="nope"):
        pipeline.read_parquet_filtered([path], pred, columns=["nope"])
    for p in (None, pred):
        with pytest.raises(ValueError, match="nope"):
            pipeline.read_parquet_summary(lake, p, columns=["nope"])
    # evolved reads pass the union's names: the conformance read ignores
    # the ones a file lacks
    assert read_table_conformance(path, columns=["nope", "k"]).column_names == ["k"]
    got = pipeline.read_parquet_summary(lake, columns=["k"]).to_pandas()
    assert sorted(got["k"]) == [1, 2, 3]
