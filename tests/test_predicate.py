"""Compound predicate trees (filter2 algebra: And/Or/Not/NotIn/Udp) across
the container and parquet-file pushdown surfaces, plus the round-4 ADVICE
fixes (predicate columns outside the projection; unsigned page bounds) and
dictionary-level row-group filtering (DictionaryFilter.java analog)."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rayenc import blocks, parquet_write, predicate as P
from rayenc.selector import EncodeConfig

SF = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")


# ------------------------------------------------------------ normalization


def test_nnf_flips_comparisons():
    t = P.normalize(P.Not(P.Lt("a", 5)))
    assert t == P.GtEq("a", 5)
    t = P.normalize(P.Not(P.Not(P.Eq("a", 1))))
    assert t == P.Eq("a", 1)
    t = P.normalize(P.Not(P.In("a", [1, 2])))
    assert t == P.NotIn("a", (1, 2))


def test_nnf_de_morgan():
    t = P.normalize(P.Not(P.And(P.Eq("a", 1), P.Lt("b", 2))))
    assert isinstance(t, P.Or)
    assert t.preds == (P.NotEq("a", 1), P.GtEq("b", 2))
    t = P.normalize(P.Not(P.Or(P.Eq("a", 1), P.Gt("b", 2))))
    assert isinstance(t, P.And)
    assert t.preds == (P.NotEq("a", 1), P.LtEq("b", 2))


def test_legacy_list_normalizes_to_and():
    t = P.normalize([("a", "==", 1), ("b", "<", 2)])
    assert isinstance(t, P.And)
    assert P.columns(t) == {"a", "b"}
    assert P.normalize([]) is None
    assert P.normalize(None) is None


# ------------------------------------------------------------- exact masks


def test_mask_or_and_not_with_nulls():
    t = pa.table(
        {
            "a": pa.array([1, None, 3, 4], pa.int64()),
            "b": pa.array(["x", "y", None, "y"]),
        }
    )
    # SQL: a = 1 OR b = 'y'  (row 1 null-a but b hits -> kept, Kleene or)
    pred = P.normalize(P.Or(P.Eq("a", 1), P.Eq("b", "y")))
    got = P.filter_table(pred, t)
    assert got.column("a").to_pylist() == [1, None, 4]
    # SQL: NOT (a = 3) drops nulls (NOT NULL is NULL)
    pred = P.normalize(P.Not(P.Eq("a", 3)))
    got = P.filter_table(pred, t)
    assert got.column("a").to_pylist() == [1, 4]
    # SQL: a NOT IN (1, 3) drops null a
    pred = P.normalize(P.NotIn("a", [1, 3]))
    got = P.filter_table(pred, t)
    assert got.column("a").to_pylist() == [4]


def test_mask_matches_duckdb_three_valued():
    import duckdb

    t = pa.table(
        {
            "a": pa.array([1, None, 3, 4, None], pa.int64()),
            "b": pa.array([10.0, 20.0, None, 40.0, 50.0]),
        }
    )
    pred = P.normalize(
        P.And(P.Or(P.Eq("a", 1), P.Gt("b", 25.0)), P.Not(P.Eq("a", 4)))
    )
    got = P.filter_table(pred, t)
    want = duckdb.connect().execute(
        "SELECT * FROM t WHERE (a = 1 OR b > 25.0) AND NOT (a = 4)"
    ).arrow()
    assert got.equals(want.cast(got.schema))


# --------------------------------------------- pruning boundary correctness


def test_noteq_bounds_boundary():
    leaf = P.NotEq("c", 7)
    assert P.leaf_vs_bounds(leaf, 7, 7) is False  # constant == excluded
    assert P.leaf_vs_bounds(leaf, 7, 8) is True
    assert P.leaf_vs_bounds(leaf, 6, 7) is True
    assert P.leaf_may_match(leaf, P.Granule(7, 7, count=0)) is False


def test_notin_bounds_boundary():
    leaf = P.NotIn("c", [7, 9])
    assert P.leaf_vs_bounds(leaf, 7, 7) is False
    assert P.leaf_vs_bounds(leaf, 9, 9) is False
    assert P.leaf_vs_bounds(leaf, 8, 8) is True
    assert P.leaf_vs_bounds(leaf, 7, 9) is True  # range spans non-members


def test_comparison_bounds_boundary():
    assert P.leaf_vs_bounds(P.Lt("c", 5), 5, 9) is False
    assert P.leaf_vs_bounds(P.Lt("c", 5), 4, 9) is True
    assert P.leaf_vs_bounds(P.LtEq("c", 5), 5, 9) is True
    assert P.leaf_vs_bounds(P.Gt("c", 5), 1, 5) is False
    assert P.leaf_vs_bounds(P.GtEq("c", 5), 1, 5) is True
    assert P.leaf_vs_bounds(P.Eq("c", 5), 6, 9) is False
    # incomparable type -> no pruning
    assert P.leaf_vs_bounds(P.Eq("c", "x"), 6, 9) is True
    # string bounds compare bytewise
    assert P.leaf_vs_bounds(P.Eq("c", "bb"), b"aa", b"az") is False
    assert P.leaf_vs_bounds(P.Eq("c", "ab"), b"aa", b"az") is True


def test_udp_pruning_and_inverse():
    class Mod7(P.UserPredicate):
        def keep(self, arr):
            return pc.equal(pc.bit_wise_and(arr, 7), 0)

        def can_drop(self, lo, hi):
            return hi - lo < 8 and lo % 8 != 0 and hi % 8 != 0 and lo // 8 == hi // 8

    tree = P.normalize(P.Udp("c", Mod7()))
    assert P.leaf_vs_bounds(tree, 1, 3) is False
    assert P.leaf_vs_bounds(tree, 1, 9) is True
    inv = P.normalize(P.Not(P.Udp("c", Mod7())))
    # inverse_can_drop defaults False -> Not(udp) never prunes
    assert P.leaf_vs_bounds(inv, 1, 3) is True
    t = pa.table({"c": pa.array([0, 3, 8, 11], pa.int64())})
    assert P.filter_table(tree, t).column("c").to_pylist() == [0, 8]
    assert P.filter_table(inv, t).column("c").to_pylist() == [3, 11]


# ------------------------------------------------- container page intervals


def _block_manifest(tbl, cfg=None):
    blob, manifest = blocks.encode_block(tbl, cfg or EncodeConfig(page_rows=100))
    return blob, manifest


def _pages(blob, manifest, name):
    """The page bodies stored for chunk ``name``, in page order."""
    entry = next(c for c in manifest["chunks"] if c["name"] == name)
    return [bytes(blob[p["offset"] : p["offset"] + p["length"]]) for p in entry["pages"]]


def test_container_or_tree_page_skip_and_decode(decoded_pages):
    n = 1000
    tbl = pa.table(
        {
            "k": pa.array(np.arange(n, dtype=np.int64)),
            "v": pa.array(np.arange(n, dtype=np.int64) % 97),
        }
    )
    blob, manifest = _block_manifest(tbl)
    pred = P.Or(P.Lt("k", 50), P.GtEq("k", 950))
    got = blocks.decode_block(blob, manifest, predicate=pred)
    # pages are 100 rows, so only pages 0 and 9 decode; the read is exact
    for name in ("k", "v"):
        pages = _pages(blob, manifest, name)
        assert len(pages) == 10
        assert [b for b in decoded_pages if b in pages] == [pages[0], pages[9]]
    assert got.equals(P.filter_table(pred, tbl))
    assert got.column("k").to_pylist() == list(range(50)) + list(range(950, n))


def test_decode_dataset_compound_predicate(tmp_path, ray_session):
    from rayenc import pipeline

    src = os.path.join(SF, "lineitem.parquet")
    out = str(tmp_path / "enc")
    pipeline.encode_job(src, out, concurrency=2).materialize()
    pred = P.And(
        P.Or(P.Eq("l_returnflag", "A"), P.Lt("l_quantity", 3.0)),
        P.Not(P.Eq("l_linestatus", "F")),
    )
    got = pa.concat_tables(
        [pa.table(b) for b in
         pipeline.decode_dataset(out, concurrency=2, predicate=pred)
         .iter_batches(batch_format="pyarrow")]
    ).sort_by("l_orderkey")
    full = pq.read_table(src)
    m = pc.and_kleene(
        pc.or_kleene(
            pc.equal(full.column("l_returnflag"), "A"),
            pc.less(full.column("l_quantity"), 3.0),
        ),
        pc.invert(pc.equal(full.column("l_linestatus"), "F")),
    )
    want = full.filter(m).sort_by("l_orderkey")
    assert got.cast(want.schema).equals(want)


def test_decode_dataset_predicate_outside_projection(tmp_path, ray_session):
    """ADVICE round-3 high: a predicate on a column excluded from `columns`
    must still filter (decode, mask, drop)."""
    from rayenc import pipeline

    src = os.path.join(SF, "lineitem.parquet")
    out = str(tmp_path / "enc")
    pipeline.encode_job(src, out, concurrency=2).materialize()
    got = pa.concat_tables(
        [pa.table(b) for b in
         pipeline.decode_dataset(
             out, concurrency=2, columns=["l_orderkey"],
             predicate=[("l_quantity", ">=", 40.0)],
         ).iter_batches(batch_format="pyarrow")]
    )
    assert got.column_names == ["l_orderkey"]
    full = pq.read_table(src)
    want = full.filter(pc.greater_equal(full.column("l_quantity"), 40.0))
    assert got.num_rows == want.num_rows
    assert sorted(got.column("l_orderkey").to_pylist()) == sorted(
        want.column("l_orderkey").to_pylist()
    )


# -------------------------------------------------- parquet file pushdown


def _write_file(tbl, **kw):
    out = tempfile.mktemp(suffix=".parquet", dir="/tmp")
    parquet_write.write_table(tbl, out, **kw)
    return out


def test_read_table_filtered_or_tree():
    from rayenc.parquet_read_enc import read_table_filtered

    tbl = pq.read_table(os.path.join(SF, "lineitem.parquet"))
    path = _write_file(tbl)
    pred = P.And(
        P.Or(P.Eq("l_returnflag", "A"), P.Lt("l_quantity", 3.0)),
        P.Not(P.Eq("l_linestatus", "F")),
    )
    got = read_table_filtered(path, pred).sort_by("l_orderkey")
    m = pc.and_kleene(
        pc.or_kleene(
            pc.equal(tbl.column("l_returnflag"), "A"),
            pc.less(tbl.column("l_quantity"), 3.0),
        ),
        pc.invert(pc.equal(tbl.column("l_linestatus"), "F")),
    )
    want = tbl.filter(m).sort_by("l_orderkey")
    assert got.cast(want.schema).equals(want)


def test_read_table_filtered_predicate_outside_projection():
    """ADVICE round-3 high: read_table_filtered silently skipped predicates
    on non-projected columns; they must now be decoded, applied, dropped."""
    from rayenc.parquet_read_enc import read_table_filtered

    tbl = pq.read_table(os.path.join(SF, "lineitem.parquet"))
    path = _write_file(tbl)
    got = read_table_filtered(
        path, [("l_quantity", ">=", 40.0)], columns=["l_orderkey"]
    )
    assert got.column_names == ["l_orderkey"]
    want = tbl.filter(pc.greater_equal(tbl.column("l_quantity"), 40.0))
    assert got.num_rows == want.num_rows
    with pytest.raises(ValueError):
        read_table_filtered(path, [("no_such_col", "==", 1)])


def test_read_table_filtered_notin_and_udp():
    from rayenc.parquet_read_enc import read_table_filtered

    tbl = pq.read_table(os.path.join(SF, "lineitem.parquet"))
    path = _write_file(tbl)
    got = read_table_filtered(path, P.NotIn("l_returnflag", ["A", "N"]))
    assert set(got.column("l_returnflag").to_pylist()) == {"R"}

    class BigOrder(P.UserPredicate):
        def keep(self, arr):
            return pc.greater(arr, 1000)

        def can_drop(self, lo, hi):
            return hi <= 1000

    got = read_table_filtered(path, P.Udp("l_orderkey", BigOrder()))
    want = tbl.filter(pc.greater(tbl.column("l_orderkey"), 1000))
    assert got.num_rows == want.num_rows


def test_unsigned_page_bounds_not_misread():
    """ADVICE round-3 medium: UINT32/UINT64 ColumnIndex bounds beyond the
    signed max decoded as negative and wrongly pruned matching pages."""
    from rayenc.parquet_read_enc import read_table_filtered

    n = 4000
    vals = (np.arange(n, dtype=np.uint64) + 2**31).astype(np.uint32)
    tbl = pa.table({"u": pa.array(vals), "i": np.arange(n, dtype=np.int64)})
    path = _write_file(tbl, config=EncodeConfig(page_rows=500), row_group_size=2000)
    lo = int(2**31 + 3500)
    got = read_table_filtered(path, [("u", ">=", lo)])
    assert got.num_rows == n - 3500
    assert int(pc.min(got.column("u")).as_py()) == lo
    # equality on the max value (page 8's bounds) must survive too
    got = read_table_filtered(path, [("u", "==", int(2**31 + n - 1))])
    assert got.num_rows == 1


def test_dictionary_level_row_group_filter(monkeypatch):
    """DictionaryFilter.java analog: with blooms disabled and inconclusive
    stats, a fully dictionary-encoded chunk whose dictionary lacks the
    predicate value vetoes the whole row group — nothing is decoded."""
    import rayenc.parquet_read_enc as pre

    n = 5000
    tbl = pa.table(
        {
            "source": pa.array((["alpha", "gamma"] * (n // 2))),
            "v": np.arange(n, dtype=np.int64),
        }
    )
    path = _write_file(tbl, row_group_size=n)
    f = pre.EncryptedFile(path)
    md = f.chunk_meta(0, 0)
    assert pre._all_pages_dict_encoded(md), "fixture must be fully dict-encoded"
    # 'beta' lies inside [alpha, gamma] -> stats keep; no bloom; dictionary
    # proves absence. Decode must never run.
    def boom(*a, **k):
        raise AssertionError("row group should have been vetoed")

    monkeypatch.setattr(pre, "_decode_selected_pages", boom)
    monkeypatch.setattr(pre.EncryptedFile, "decode_leaf", boom)
    got = pre.read_table_filtered(path, [("source", "==", "beta")])
    assert got.num_rows == 0
    monkeypatch.undo()
    # the veto is correctness-neutral: a present value still decodes
    got = pre.read_table_filtered(path, [("source", "==", "gamma")])
    assert got.num_rows == n // 2


class TestNullPredicates:
    """is_null / not_null leaves (filter2's eq(col, null) / notEq(col, null)
    pair, exposed as explicit ops; SQL IS [NOT] NULL semantics)."""

    def test_leaf_mask(self):
        import pyarrow.compute as pc

        from rayenc import predicate as P

        arr = pa.array([1, None, 3, None], pa.int64())
        m = P.leaf_mask(P.Leaf("x", "is_null", None), arr)
        assert m.to_pylist() == [False, True, False, True]
        m2 = P.leaf_mask(P.Leaf("x", "not_null", None), arr)
        assert m2.to_pylist() == [True, False, True, False]
        # dictionary arrays: null rows are null indices — must still be True
        d = pa.array(["a", None, "a", "b"]).dictionary_encode()
        m3 = P.leaf_mask(P.Leaf("x", "is_null", None), d)
        assert m3.to_pylist() == [False, True, False, False]

    def test_normalize_inverse(self):
        from rayenc import predicate as P

        t = P.normalize(P.Not(P.Leaf("x", "is_null", None)))
        assert isinstance(t, P.Leaf) and t.op == "not_null"

    def test_filter_table_tree(self):
        from rayenc import predicate as P

        t = pa.table(
            {
                "x": pa.array([1, None, 3, None], pa.int64()),
                "y": pa.array([10, 20, 30, 40], pa.int64()),
            }
        )
        got = P.filter_table(
            P.normalize(P.Or(P.Leaf("x", "is_null", None), P.Leaf("y", ">", 35))),
            t,
        )
        assert got["y"].to_pylist() == [20, 40]

    def test_bounds_pruning_semantics(self):
        from rayenc import predicate as P

        # not_null prunes all-null granules; is_null never prunes on bounds
        assert P.leaf_may_match(P.Leaf("x", "not_null", None), P.Granule(count=0)) is False
        assert P.leaf_may_match(P.Leaf("x", "not_null", None), P.Granule(1, 5)) is True
        assert P.leaf_may_match(P.Leaf("x", "is_null", None), P.Granule(1, 5)) is True


def test_nan_comparison_semantics_ieee_like_reference():
    # IEEE/parquet-java semantics: every comparison with NaN is false, and
    # Not() is NNF-rewritten (not(f<=x) -> f>x), so NaN rows are dropped by
    # BOTH polarities — unlike SQL engines that totally order NaN greatest
    # (documented divergence in the module docstring)
    import numpy as np
    import pyarrow as pa

    from rayenc import predicate as P

    t = pa.table({"f": pa.array([1.0, float("nan"), -5.0])})
    kept_pos = P.filter_table(P.normalize(P.LtEq("f", 0.0)), t)
    assert kept_pos.num_rows == 1  # -5.0 only
    kept_neg = P.filter_table(P.normalize(P.Not(P.LtEq("f", 0.0))), t)
    assert kept_neg.num_rows == 1  # 1.0 only; NaN dropped in both


# --------------------------------------------- FSST leaves, compressed strings


def _fsst_block(encoding: str = "FSST"):
    """A 3000-row block: sorted ``k`` (its page bounds keep row intervals),
    and nullable ``s`` (string) and ``bb`` (binary) chunks forced to
    ``encoding`` with non-ASCII, empty and 0xFF-escaped values, 250 values
    a page."""
    rng = np.random.default_rng(11)
    words = ["", "é", "naïve café", "key007", "key0070", "日本語", "zz"] + [f"doc-{i:03d}" for i in range(30)]
    raw = [b"", b"\xff", b"\xff\xff", b"a\xff", b"\xff\x00\xff", b"abc"]
    n = 3000
    pick = rng.integers(0, len(words) + 3, n)
    table = pa.table({
        "k": pa.array(np.arange(n), pa.int64()),
        "s": pa.array([words[p] if p < len(words) else None for p in pick], pa.string()),
        "bb": pa.array([raw[p % 6] if p % 11 else None for p in pick], pa.binary()),
    })
    cfg = EncodeConfig(page_rows=250, column_encodings={"s": encoding, "bb": encoding})
    blob, manifest = blocks.encode_block(table, cfg)
    chunks = {c["name"]: c for c in manifest["chunks"]}
    assert chunks["s"]["encoding"] == chunks["bb"]["encoding"] == encoding
    assert chunks["s"]["validity"] and len(chunks["s"]["pages"]) > 8
    return table, blob, manifest


_S, _BB, _K = pc.field("s"), pc.field("bb"), pc.field("k")
_FSST_CASES = [
    (P.Eq("s", "é"), _S == "é"),
    (P.Eq("s", ""), _S == ""),
    (P.Eq("s", "absent"), _S == "absent"),
    (P.NotEq("s", "key007"), _S != "key007"),
    (P.In("s", ["", "日本語", "nope"]), _S.isin(["", "日本語", "nope"])),
    # SQL NOT IN: a null value is no match
    (P.NotIn("s", ["", "é"]), ~_S.isin(["", "é"]) & _S.is_valid()),
    (P.IsNull("s"), _S.is_null()),
    (P.NotNull("s"), _S.is_valid()),
    (P.Lt("s", "key"), _S < "key"),  # a range leaf: evaluated on the values
    (P.And(P.GtEq("k", 700), P.Lt("k", 1900), P.Eq("s", "naïve café")),
     (_K >= 700) & (_K < 1900) & (_S == "naïve café")),
    (P.And(P.Lt("k", 1000), P.In("s", ["zz", "key0070"]), P.LtEq("s", "zz")),
     (_K < 1000) & _S.isin(["zz", "key0070"]) & (_S <= "zz")),
    (P.Or(P.Eq("s", "zz"), P.Lt("k", 10)), (_S == "zz") | (_K < 10)),
    (P.Not(P.And(P.In("s", ["doc-001", "key0070"]), P.GtEq("k", 500))),
     (~_S.isin(["doc-001", "key0070"]) & _S.is_valid()) | (_K < 500)),
    (P.Eq("bb", b"\xff"), _BB == b"\xff"),
    (P.Eq("bb", "abc"), _BB == b"abc"),  # a str literal on a binary column
    (P.In("bb", [b"", b"\xff\x00\xff"]), _BB.isin([b"", b"\xff\x00\xff"])),
    (P.NotEq("bb", b"a\xff"), _BB != b"a\xff"),
    (P.In("bb", ["abc", ""]), _BB.isin([b"abc", b""])),
    (P.NotIn("bb", ["abc"]), ~_BB.isin([b"abc"]) & _BB.is_valid()),
]


@pytest.mark.parametrize("case", range(len(_FSST_CASES)))
def test_fsst_leaves_match_pyarrow_filter(case):
    table, blob, manifest = _fsst_block()
    pred, expr = _FSST_CASES[case]
    want = table.filter(expr)
    assert 0 < want.num_rows < table.num_rows or P.Eq("s", "absent") == pred
    for columns in (None, ["k"], ["s", "bb"]):
        got = blocks.decode_block(blob, manifest, columns=columns, predicate=pred)
        assert got.equals(want.select(columns or table.column_names)), (pred, columns)


def test_fsst_leaves_keep_page_intervals():
    table, blob, manifest = _fsst_block()
    pred = P.And(P.GtEq("k", 700), P.Lt("k", 1900), P.Eq("s", "naïve café"))
    reader = blocks._BlockReader(blob, {c["name"]: c for c in manifest["chunks"]})
    kept = blocks._kept_row_intervals(manifest, reader, P.normalize(pred))
    assert kept and kept != [(0, table.num_rows)]


@pytest.mark.parametrize(
    "pred",
    [P.Eq("s", 5), P.In("s", [1, 2]), P.In("s", ["a", 2]), P.Eq("bb", 5), P.NotIn("bb", [1.5])],
    ids=["eq-int", "in-ints", "in-mixed", "binary-eq-int", "binary-notin-float"],
)
def test_fsst_wrong_type_literal_raises(pred):
    _table, blob, manifest = _fsst_block()
    with pytest.raises(P.PredicateError):
        blocks.decode_block(blob, manifest, predicate=pred)


# longer than blocks.MAX_ENCODED_LITERALS: evaluated on the decompressed values
_LONG_IN = ["é", "zz"] + [f"doc-{i:03d}" for i in range(0, 30, 2)] + [f"miss-{i}" for i in range(60)]


@pytest.mark.parametrize("op", [P.In, P.NotIn])
def test_fsst_long_in_list_matches_pyarrow_filter(op):
    assert len(_LONG_IN) > blocks.MAX_ENCODED_LITERALS
    table, blob, manifest = _fsst_block()
    hit = _S.isin(_LONG_IN)
    want = table.filter(hit if op is P.In else ~hit & _S.is_valid())
    assert 0 < want.num_rows < table.num_rows
    for columns in (None, ["k"]):
        got = blocks.decode_block(blob, manifest, columns=columns, predicate=op("s", _LONG_IN))
        assert got.equals(want.select(columns or table.column_names))


_BINARY_LEAVES = [
    P.Eq("bb", "abc"), P.NotEq("bb", "abc"), P.In("bb", ["abc", ""]), P.NotIn("bb", ["abc"]),
    P.In("bb", ["abc", b""]), P.Eq("s", b"abc"), P.In("s", [b"abc"]),
]


@pytest.mark.parametrize("other", ["PLAIN", "DELTA_LENGTH_BYTE_ARRAY", "RLE_DICTIONARY"])
@pytest.mark.parametrize("case", range(len(_BINARY_LEAVES)))
def test_fsst_str_bytes_literals_agree_with_other_encodings(case, other):
    # a str literal on a binary column, a bytes one on a string column or a
    # mix: FSST answers exactly as the other encodings do, or raises as they do
    pred = _BINARY_LEAVES[case]

    def outcome(encoding):
        _table, blob, manifest = _fsst_block(encoding)
        try:
            return blocks.decode_block(blob, manifest, predicate=pred)
        except P.PredicateError:
            return "PredicateError"

    want = outcome(other)
    got = outcome("FSST")
    assert got == want if isinstance(want, str) else got.equals(want), (pred, other)
