"""The one pruning calculus (predicate.Granule / may_match / row_ranges) on
every surface: container partitions, Parquet row groups and `_metadata`
plans. Literals are mapped into each column's stats domain before the
bounds, bloom and dictionary see them, so a literal of another Python type
neither prunes a granule that holds its row nor raises."""

import datetime
from decimal import Decimal
import json
import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import blocks, parquet_read_enc, parquet_write, pipeline, predicate as P, stats
from rayenc.parquet_read_enc import read_table_filtered
from rayenc.selector import EncodeConfig
from rayenc.summary import plan_from_summary, write_summary

N, PARTS = 1000, 4
T0 = datetime.datetime(2020, 1, 1)
TABLE = pa.table({
    "i": pa.array(np.arange(N), pa.int64()),
    "f": pa.array(np.arange(N, dtype=np.float64)),
    "s": pa.array([f"k{v:04d}" for v in range(N)]),
    "ts": pa.array(np.arange(N) * 1_000_000 + 1_577_836_800_000_000, pa.timestamp("us")),
    "tz": pa.array(np.arange(N) * 1_000, pa.timestamp("ms", tz="UTC")),
    "d": pa.array(np.arange(N, dtype=np.int32) + 18000, pa.date32()),
})
BLOOMS = EncodeConfig(bloom_columns=set(TABLE.column_names))
WHEN = T0 + datetime.timedelta(seconds=700)
WHEN_TZ = datetime.datetime(1970, 1, 1, 0, 11, 40, tzinfo=datetime.timezone.utc)
DAY = datetime.date(1970, 1, 1) + datetime.timedelta(days=18700)


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("renc"))
    names, rows = [], N // PARTS
    for k in range(PARTS):
        blob, man = blocks.encode_block(TABLE.slice(k * rows, rows), BLOOMS)
        man["blob"] = f"part-{k}.renc"
        with open(os.path.join(d, man["blob"]), "wb") as f:
            f.write(blob)
        names.append(f"part-{k}.manifest.json")
        with open(os.path.join(d, names[-1]), "w") as f:
            json.dump(man, f)
    return d, names


@pytest.fixture(scope="module")
def parquet_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pq") / "t.parquet")
    parquet_write.write_table(TABLE, path, BLOOMS, row_group_size=N // PARTS)
    return path


def _container_read(container, pred):
    d, names = container
    w = pipeline.DecodeWorker(d, predicate=pred)
    rows = sum(t.num_rows for t in w({"manifest": names}))
    pruned = 0
    for name in names:
        with open(os.path.join(d, name)) as f:
            pruned += w._skip_by_stats(json.load(f))
    return rows, pruned


BLOOM_CASES = [
    [("f", "==", 700)],
    [("i", "==", 700.0)],
    [("f", "in", [700, 5])],
    [("i", "in", [700.0, 5.0])],
]


@pytest.mark.parametrize("pred", BLOOM_CASES, ids=str)
def test_container_bloom_hashes_literal_in_column_type(container, pred):
    # the bloom was built over float64 (int64) values; the literal is an
    # int (float) equal to one of them
    want = P.filter_table(P.normalize(pred), TABLE).num_rows
    assert want >= 1
    rows, pruned = _container_read(container, pred)
    assert rows == want
    assert pruned == PARTS - want


@pytest.mark.parametrize("pred", BLOOM_CASES, ids=str)
def test_parquet_bloom_hashes_literal_in_column_type(parquet_file, pred):
    want = P.filter_table(P.normalize(pred), TABLE)
    assert read_table_filtered(parquet_file, pred).equals(want)


@pytest.mark.parametrize("pred", [
    [("s", "==", b"k0700")],
    [("ts", "==", WHEN)],
    [("d", "==", DAY)],
    [("tz", "==", WHEN_TZ)],
], ids=str)
def test_container_veto_accepts_every_filter_literal(container, pred):
    want = P.filter_table(P.normalize(pred), TABLE).num_rows
    assert want == 1
    assert _container_read(container, pred) == (1, PARTS - 1)


@pytest.mark.parametrize("pred", [
    [("s", "==", b"k0700")],
    [("ts", "==", WHEN)],
    [("d", "==", DAY)],
    [("tz", "==", WHEN_TZ)],
], ids=str)
def test_parquet_veto_accepts_every_filter_literal(parquet_file, pred):
    want = P.filter_table(P.normalize(pred), TABLE)
    assert want.num_rows == 1
    assert read_table_filtered(parquet_file, pred).equals(want)


def _decoded_row_groups(monkeypatch, path, pred, table=TABLE) -> set:
    seen = set()
    orig_leaf = parquet_read_enc.EncryptedFile.decode_leaf
    orig_pages = parquet_read_enc._decode_selected_pages

    def decode_leaf(self, rg_ord, *a, **k):
        seen.add(rg_ord)
        return orig_leaf(self, rg_ord, *a, **k)

    def decode_pages(f, rg_ord, *a, **k):
        seen.add(rg_ord)
        return orig_pages(f, rg_ord, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(parquet_read_enc.EncryptedFile, "decode_leaf", decode_leaf)
        m.setattr(parquet_read_enc, "_decode_selected_pages", decode_pages)
        got = read_table_filtered(path, pred)
    assert got.equals(P.filter_table(P.normalize(pred), table))
    return seen


TEMPORAL = [
    [("ts", "==", WHEN)],
    [("ts", ">=", T0 + datetime.timedelta(seconds=800))],
    [("tz", "<", datetime.datetime(1970, 1, 1, 0, 4, tzinfo=datetime.timezone.utc))],
    [("d", "==", DAY)],
]


@pytest.mark.parametrize("pred", TEMPORAL, ids=str)
def test_temporal_literals_prune_every_surface(container, tmp_path, monkeypatch, pred):
    # no blooms on the Parquet files: the bounds alone must prune
    path = str(tmp_path / "t.parquet")
    pq.write_table(TABLE, path, row_group_size=N // PARTS)
    assert _decoded_row_groups(monkeypatch, path, pred) == {
        g for g in range(PARTS)
        if P.filter_table(P.normalize(pred), TABLE.slice(g * 250, 250)).num_rows
    }
    want = P.filter_table(P.normalize(pred), TABLE).num_rows
    rows, pruned = _container_read(container, pred)
    assert rows == want and pruned == PARTS - len(_decoded_row_groups(monkeypatch, path, pred))
    d = str(tmp_path / "ds")
    os.makedirs(d)
    for k in range(2):
        pq.write_table(TABLE.slice(k * 500, 500), os.path.join(d, f"part-{k}.parquet"),
                       row_group_size=N // PARTS)
    write_summary(d)
    plan = plan_from_summary(d, pred)
    assert len(plan) == PARTS - pruned


@pytest.fixture(scope="module")
def paged_file(tmp_path_factory):
    """A pyarrow file of 20 pages per column: ``k`` ascending, ``grp``
    constant per 1,000 rows, ``v`` random (its page bounds prune nothing)."""
    n = 20_000
    rng = np.random.default_rng(11)
    t = pa.table({"k": np.arange(n), "grp": np.arange(n) // 1000, "v": rng.integers(0, 1 << 40, n)})
    path = str(tmp_path_factory.mktemp("paged") / "t.parquet")
    pq.write_table(t, path, write_page_index=True, data_page_size=8000,
                   use_dictionary=False, compression="none")
    return path, t


def _pages_read(monkeypatch, path, pred, columns) -> dict:
    """Column -> data pages that ``read_table_filtered`` read (whole-chunk
    and selected-page decodes alike)."""
    seen: dict = {}
    real = parquet_read_enc.EncryptedFile.read_page

    def read_page(self, rg_ord, col_ord, pos, page_ord=None, *a, **k):
        if page_ord is not None:
            seen.setdefault(self.leaves[col_ord].dotted, set()).add(page_ord)
        return real(self, rg_ord, col_ord, pos, page_ord, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(parquet_read_enc.EncryptedFile, "read_page", read_page)
        got = read_table_filtered(path, pred, columns=columns)
    full = read_table_filtered(path, None)
    assert got.equals(P.filter_table(P.normalize(pred), full).select(columns))
    return {c: len(p) for c, p in seen.items()}


def test_parquet_phase_two_decodes_only_matching_pages(paged_file, monkeypatch):
    path, t = paged_file
    assert len(parquet_read_enc._parse_index(parquet_read_enc.EncryptedFile(path), 0, 0)[1][1]) == 20
    key = t["v"][4500].as_py()
    pages = _pages_read(monkeypatch, path, [("v", "==", key)], ["k", "grp"])
    assert pages == {"v": 20, "k": 1, "grp": 1}


def test_parquet_predicate_matching_every_row_decodes_every_page(paged_file, monkeypatch):
    path, _ = paged_file
    pages = _pages_read(monkeypatch, path, [("v", ">=", 0)], ["k", "grp"])
    assert pages == {"v": 20, "k": 20, "grp": 20}


def test_summary_distrusts_legacy_binary_stats(tmp_path):
    """PARQUET-251: a `_metadata` merged from a parquet-mr 1.6.0 part keeps
    every row group for a binary predicate, and still prunes on ints."""
    sys.path.insert(0, os.path.dirname(__file__))
    from test_parquet_raw_rewrite import _refooter

    src = str(tmp_path / "plain.parquet")
    pq.write_table(pa.table({"s": [f"k{i:03d}" for i in range(400)], "i": list(range(400))}),
                   src, row_group_size=100)
    d = str(tmp_path / "ds")
    os.makedirs(d)

    def stamp(md):
        md[6] = b"parquet-mr version 1.6.0 (build abcd)"

    _refooter(src, os.path.join(d, "part-0.parquet"), stamp)
    write_summary(d)
    assert len(plan_from_summary(d, [("s", "==", "k350")])) == 4
    assert plan_from_summary(d, [("i", "==", 350)]) == [(os.path.join(d, "part-0.parquet"), 3)]


def test_row_ranges_union_is_order_free():
    def leaf_rows(leaf):
        return {"a": [(8, 10)], "b": [(0, 2)], "c": [(1, 9)]}[leaf.col]

    tree = P.Or(P.Eq("a", 1), P.Eq("b", 1))
    assert P.row_ranges(tree, 10, leaf_rows) == [(0, 2), (8, 10)]
    tree = P.And(P.Or(P.Eq("a", 1), P.Eq("b", 1)), P.Eq("c", 1))
    assert P.row_ranges(tree, 10, leaf_rows) == [(1, 2), (8, 9)]
    assert P.row_ranges(None, 10, leaf_rows) == [(0, 10)]


def test_granule_veto_order_and_null_counts():
    probes = []

    def bloom(values):
        probes.append(values)
        return False

    t = pa.int64()
    # bounds veto first: the bloom is never probed
    assert not P.leaf_may_match(P.Eq("c", 50), P.Granule(1, 9, 0, 9, t, bloom))
    assert probes == []
    assert not P.leaf_may_match(P.Eq("c", 5), P.Granule(1, 9, 0, 9, t, bloom))
    assert probes == [(5,)]
    # 5.5 has no int64 value: the bloom is skipped and the granule kept
    assert P.leaf_may_match(P.Eq("c", 5.5), P.Granule(1, 9, 0, 9, t, bloom))
    assert probes == [(5,)]
    # 5.0 has one: the bloom sees the int
    assert not P.leaf_may_match(P.In("c", [5.0, 7]), P.Granule(1, 9, 0, 9, t, bloom))
    assert probes == [(5,), (5, 7)] and all(type(v) is int for v in probes[-1])
    # an all-null granule fails comparisons, keeps is_null
    g = P.Granule(nulls=4, count=0, type=t)
    assert not P.leaf_may_match(P.Gt("c", 0), g)
    assert P.leaf_may_match(P.IsNull("c"), g)
    assert not P.leaf_may_match(P.NotNull("c"), g)
    assert P.leaf_may_match(P.Gt("c", 0), None)


DEC = pa.table({
    "p": pa.array([Decimal(c).scaleb(-2) for c in range(50, 450)], pa.decimal128(9, 2)),
    "q": pa.array([Decimal(c).scaleb(-2) for c in range(-200, 200)], pa.decimal128(18, 2)),
})
DEC_CASES = [
    [("p", "<", 1)],  # unscaled bounds 50..149 are not below 1
    [("p", "==", 2)],
    [("p", ">=", Decimal("3.5"))],
    [("p", "in", [1, Decimal("4.49")])],
    [("p", "!=", 2)],
    [("p", "<", 0.75)],  # Arrow compares a float with a decimal as floats
    [("p", "==", Decimal("1.005"))],  # finer than the scale
    [("q", ">", -1)],
    P.Or(P.Lt("p", 1), P.Gt("q", 1)),
]


def _write_decimals(table, path, storage):
    if storage == "int":  # the writer's decimal_as_integer
        cfg = EncodeConfig(decimal_as_integer=True, page_rows=25)
        parquet_write.write_table(table, path, cfg, row_group_size=100)
    else:  # pyarrow: FIXED_LEN_BYTE_ARRAY with signed bounds
        pq.write_table(table, path, row_group_size=100, write_page_index=True,
                       data_page_size=64, write_batch_size=25)


@pytest.fixture(scope="module", params=["int", "flba"])
def decimal_files(request, tmp_path_factory):
    """The decimals stored as unscaled INT32/INT64 (parquet-cpp's
    ``store_decimal_as_integer``) or as FIXED_LEN_BYTE_ARRAY: one file of 4
    row groups with 4 indexed pages each, and a `_metadata` dataset of two
    such parts."""
    d = tmp_path_factory.mktemp("dec")
    path = str(d / "dec.parquet")
    _write_decimals(DEC, path, request.param)
    ds = str(d / "ds")
    os.makedirs(ds)
    for k in range(2):
        _write_decimals(DEC.slice(k * 200, 200), os.path.join(ds, f"part-{k}.parquet"),
                        request.param)
    write_summary(ds)
    return request.param, path, ds


@pytest.mark.parametrize("pred", DEC_CASES, ids=str)
def test_decimal_literals_compare_at_the_column_scale(decimal_files, pred):
    storage, path, ds = decimal_files
    f = parquet_read_enc.EncryptedFile(path)
    assert [lf.ptype for lf in f.leaves] == (
        ["INT32", "INT64"] if storage == "int" else ["FIXED_LEN_BYTE_ARRAY"] * 2)
    assert parquet_read_enc._parse_index(f, 0, 0)[1][1][3][3] == 75  # 4 pages
    want = P.filter_table(P.normalize(pred), DEC)
    # row groups and pages
    assert read_table_filtered(path, pred).equals(want)
    # `_metadata` plans: every kept row group read, no matching one vetoed
    plan = plan_from_summary(ds, pred)
    got = pa.concat_tables([read_table_filtered(p, pred, row_groups=[g]) for p, g in plan])
    assert got.equals(want)
    for p, g in {(os.path.join(ds, f"part-{k}.parquet"), g) for k in range(2) for g in range(2)}:
        if (p, g) not in plan:
            rg = pq.ParquetFile(p).read_row_group(g)
            assert P.filter_table(P.normalize(pred), rg).num_rows == 0


def test_decimal_bounds_prune(decimal_files, monkeypatch):
    _, path, ds = decimal_files
    assert len(plan_from_summary(ds, [("p", "<", 1)])) == 1
    assert len(plan_from_summary(ds, [("p", ">=", Decimal("3.5"))])) == 1
    assert len(plan_from_summary(ds, [("q", "<", -1)])) == 1  # negative bounds
    assert len(plan_from_summary(ds, [("p", "<", 0.75)])) == 4
    assert _decoded_row_groups(monkeypatch, path, [("p", "==", 2)], DEC) == {1}


FLBA_KEYS = [v.to_bytes(16, "big") for v in range(400)]


def test_parquet_bloom_prunes_fixed_size_binary_keys(tmp_path, monkeypatch):
    keys = FLBA_KEYS
    t = pa.table({"k": pa.array(keys, pa.binary(16))})
    path = str(tmp_path / "k.parquet")
    cfg = EncodeConfig(bloom_columns={"k"}, disable_dictionary={"k"})
    parquet_write.write_table(t, path, cfg, row_group_size=100)
    f = parquet_read_enc.EncryptedFile(path)
    # no chunk bounds for FIXED_LEN_BYTE_ARRAY: only the bloom can prune
    dec = stats.bound_decoder(f.leaves[0].ptype, f.leaves[0].type)
    assert all(dec(st.get(6), st.get(5)) is None
               for st in (f.chunk_meta(g, 0).get(12) or {} for g in range(4)))
    for pred, kept in (([("k", "==", keys[250])], {2}),
                       ([("k", "in", [keys[5], keys[399]])], {0, 3})):
        assert _decoded_row_groups(monkeypatch, path, pred, t) == kept
    # a literal of another width equals no key
    assert read_table_filtered(path, [("k", "==", b"x")]).num_rows == 0


def test_container_bloom_prunes_fixed_size_binary_keys(tmp_path):
    # the keys of the Parquet case above, dealt round-robin so every
    # partition spans the same range: only the bloom can prune
    keys = FLBA_KEYS
    names = []
    for k in range(4):
        t = pa.table({"k": pa.array(keys[k::4], pa.binary(16))})
        blob, man = blocks.encode_block(t, EncodeConfig(bloom_columns={"k"}))
        man["blob"] = f"part-{k}.renc"
        (tmp_path / man["blob"]).write_bytes(blob)
        names.append(f"part-{k}.manifest.json")
        (tmp_path / names[-1]).write_text(json.dumps(man))
    for pred, kept in (([("k", "==", keys[250])], {2}),
                       ([("k", "in", [keys[5], keys[399]])], {1, 3})):
        w = pipeline.DecodeWorker(str(tmp_path), predicate=pred)
        assert {k for k, n in enumerate(names)
                if not w._skip_by_stats(json.loads((tmp_path / n).read_text()))} == kept
        assert sum(t.num_rows for t in w({"manifest": names})) == len(kept)
    # a literal of another width equals no key
    w = pipeline.DecodeWorker(str(tmp_path), predicate=[("k", "==", b"x")])
    assert sum(t.num_rows for t in w({"manifest": names})) == 0


def test_bloom_probe_skips_leaves_it_cannot_hash(tmp_path, capsys):
    # FLOAT16 rides FIXED_LEN_BYTE_ARRAY(2), and its bloom hashes those
    # bytes; a float literal has no plain encoding the probe can hash
    from rayenc import cli

    t = pa.table({"h": pa.array(np.arange(8, dtype=np.float16))})
    path = str(tmp_path / "h.parquet")
    parquet_write.write_table(t, path, EncodeConfig(bloom_columns={"h"}), row_group_size=4)
    assert parquet_read_enc.EncryptedFile(path).chunk_meta(0, 0).get(14) is not None
    assert parquet_read_enc.bloom_might_contain(path, "h", 1.5) == [True, True]
    assert read_table_filtered(path, [("h", "==", 5.0)]).num_rows == 1
    cli.main(["show-bloom-filter", path, "--test-value", "1.5"])
    assert capsys.readouterr().out.count("-> maybe") == 2


def test_summary_probes_only_chunks_whose_data_is_in_the_file(tmp_path):
    # `_metadata` chunks name the part holding their data, so the summary
    # plans on statistics; a part changed after the summary is planned from
    # its own footer, bloom included
    rng = np.random.default_rng(7)
    d = str(tmp_path / "ds")
    os.makedirs(d)
    keys = rng.permutation(800)
    for k in range(2):
        t = pa.table({"k": pa.array(keys[k * 400:(k + 1) * 400], pa.int64())})
        parquet_write.write_table(t, os.path.join(d, f"part-{k}.parquet"),
                                  EncodeConfig(bloom_columns={"k"}), row_group_size=100)
    write_summary(d)
    v = int(keys[650])  # part-1, row group 2
    summary_only = plan_from_summary(d, [("k", "==", v)])
    assert len(summary_only) == 8  # shuffled keys: the bounds keep every group
    os.utime(os.path.join(d, "part-1.parquet"), ns=(1, 1))
    plan = plan_from_summary(d, [("k", "==", v)])
    assert plan == summary_only[:4] + [(os.path.join(d, "part-1.parquet"), 2)]


def test_both_readers_keep_the_same_pages(tmp_path, monkeypatch):
    # one page pruner: a container block and a Parquet file of the same
    # flat, non-null table with the same pages keep the same row intervals
    # for every op (no BOOLEAN or NaN pages: the container has no BOOLEAN
    # page bounds and Parquet drops the ColumnIndex of a chunk with a NaN)
    n, big, pad = 600, 2**63, "x" * 70
    t = pa.table({
        "i64": pa.array([i // 100 for i in range(n)], pa.int64()),
        "u64": pa.array([big + 3 * i for i in range(n)], pa.uint64()),
        "s": pa.array([f"{i:05d}{pad}" for i in range(n)]),
    })
    cfg = EncodeConfig(page_rows=100)
    blob, man = blocks.encode_block(t, cfg)
    path = str(tmp_path / "t.parquet")
    parquet_write.write_table(t, path, cfg)
    readers = (lambda p: blocks.decode_block(blob, man, predicate=p),
               lambda p: read_table_filtered(path, p))
    calls, real = [], P.row_ranges
    monkeypatch.setattr(P, "row_ranges", lambda *a: calls.append(real(*a)) or calls[-1])
    literals = {"i64": (2, 5), "u64": (big + 750, big + 1770), "s": (f"00250{pad}", f"00590{pad}")}
    for col, (v, w) in literals.items():
        for op in ("==", "!=", "<", "<=", ">", ">=", "in", "not_in", "is_null", "not_null"):
            value = {"in": (v, w), "not_in": (v,), "is_null": None, "not_null": None}.get(op, v)
            kept = []
            for read in readers:
                calls.clear()
                read([(col, op, value)])
                kept.append(calls[-1] if calls else [])  # [] when a row group is vetoed
            assert kept[0] == kept[1], (col, op, kept)
            if op == "==":
                assert kept[0] == [(200, 300)], (col, kept)


def test_malformed_column_index_prunes_nothing(paged_file):
    # index lists that disagree on the page count keep every row, for the
    # null-count ops too, instead of dropping the pages they leave out
    path, _ = paged_file
    f = parquet_read_enc.EncryptedFile(path)
    cidx, oidx = parquet_read_enc._parse_index(f, 0, 0)
    leaf, rows = f.leaves[0], f.row_groups[0][3]
    assert len(parquet_read_enc._page_granules(cidx, oidx, leaf, rows)) == len(cidx[1]) > 1
    for field in (1, 2, 3, 5):
        short = {**cidx, field: cidx[field][:-1]}
        for nulls_only in (False, True):
            assert parquet_read_enc._page_granules(short, oidx, leaf, rows, nulls_only) is None


_SURROGATE_ENCODINGS = ("PLAIN", "DELTA_LENGTH_BYTE_ARRAY", "RLE_DICTIONARY", "FSST")


@pytest.mark.parametrize("op", ["==", "!=", "<", "in", "not_in"])
def test_lone_surrogate_literal_prunes_nothing_and_raises_predicate_error(tmp_path, op):
    # "\ud800" has no UTF-8 bytes: in_domain cannot map it, so no granule or
    # page is pruned by it, and the exact read rejects it as every reader
    # rejects a literal it cannot evaluate
    bad = "\ud800"
    value = [bad, "k0001"] if op in ("in", "not_in") else bad
    words = [f"k{i:04d}" for i in range(300)]
    t = pa.table({"s": pa.array(words), "bb": pa.array([w.encode() + b"." for w in words])})
    for col in ("s", "bb"):
        assert P.in_domain(P.Leaf(col, op, value), t.schema.field(col).type) == (None, False)
        g = P.Granule(b"k0000", b"k0299", 0, 300, t.schema.field(col).type)
        assert P.leaf_may_match(P.Leaf(col, op, value), g)
        assert P.page_rows(P.Leaf(col, op, value), [(0, 300, g)]) is None
    for enc in _SURROGATE_ENCODINGS:
        cfg = EncodeConfig(page_rows=100, column_encodings={"s": enc, "bb": enc})
        blob, manifest = blocks.encode_block(t, cfg)
        assert {c["encoding"] for c in manifest["chunks"]} == {enc}
        for col in ("s", "bb"):
            with pytest.raises(P.PredicateError):
                blocks.decode_block(blob, manifest, predicate=[(col, op, value)])
    path = str(tmp_path / "s.parquet")
    parquet_write.write_table(t, path, EncodeConfig(page_rows=100))
    for col in ("s", "bb"):
        with pytest.raises(P.PredicateError):
            read_table_filtered(path, [(col, op, value)])
