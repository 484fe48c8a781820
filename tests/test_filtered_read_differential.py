"""Differential filtered-read conformance: read_table_filtered vs DuckDB
over pyarrow-written files spanning logical types (decimal, date, uint64
beyond int64, nullable), writer versions, page-index presence, multi
row-group layouts, and the full predicate algebra (conjunctions, in,
is_null, Or/Not/And trees). Every row count must match SQL semantics.

The same predicates also run on the other pruning surfaces — a container
with blooms (DecodeWorker partitions and pages) and `_metadata` planning
followed by read_table_filtered — where the rows must equal filter_table
over the whole table and no vetoed granule may hold a matching row."""

import datetime
import decimal
import itertools
import json
import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayenc import blocks, pipeline, predicate as P
from rayenc.parquet_read_enc import read_table_filtered
from rayenc.selector import EncodeConfig
from rayenc.summary import plan_from_summary, write_summary

N = 5000
RNG = np.random.default_rng(7)
U64 = RNG.integers(0, 2**63, N, dtype=np.uint64) * 2
BIG = int(U64[17])

TABLE = pa.table({
    "i32": pa.array(RNG.integers(-1000, 1000, N), pa.int32()),
    "i64": pa.array(np.sort(RNG.integers(0, 10**9, N)), pa.int64()),
    "f64": pa.array(RNG.normal(size=N)),
    "s": pa.array([f"key{v:03d}" for v in RNG.integers(0, 50, N)]),
    "b": pa.array(RNG.integers(0, 2, N).astype(bool)),
    "d": pa.array(RNG.integers(0, 20000, N).astype("int32"), pa.date32()),
    "dec": pa.array(
        [decimal.Decimal(int(x)) / 100 for x in RNG.integers(7000, 13000, N)],
        pa.decimal128(10, 2),
    ),
    "u64": pa.array(U64, pa.uint64()),
    "opt": pa.array(
        [None if v % 7 == 0 else int(v) for v in RNG.integers(0, 100, N)],
        pa.int64(),
    ),
    # integral floats (int literals must find them through blooms) and a
    # sorted timestamp, which also orders the rows like i64
    "fi": pa.array(RNG.integers(0, 100, N).astype(np.float64)),
    "ts": pa.array(
        np.sort(RNG.integers(0, 10**12, N)) + 1_577_836_800_000_000,
        pa.timestamp("us"),
    ),
})
TS = TABLE.column("ts").to_pylist()
I64 = TABLE.column("i64").to_pylist()
DAY = datetime.date(1970, 1, 1) + datetime.timedelta(days=10000)

PREDS = [
    ([("i32", ">", 500)], "i32 > 500"),
    ([("s", "==", "key007")], "s = 'key007'"),
    ([("s", "in", ["key001", "key049", "nope"])],
     "s in ('key001','key049','nope')"),
    ([("dec", ">=", decimal.Decimal("110"))], "dec >= 110"),
    ([("u64", ">", 2**63)], "u64 > 9223372036854775808"),
    ([("u64", "in", [BIG, 3])], f"u64 in ({BIG}, 3)"),
    ([("opt", "is_null", None)], "opt is null"),
    ([("opt", "not_null", None), ("i32", "<", 0)],
     "opt is not null and i32 < 0"),
    (P.Or([P.Eq("s", "key001"), P.Eq("s", "key002")]),
     "s = 'key001' or s = 'key002'"),
    (P.Not(P.Gt("i32", 0)), "not (i32 > 0)"),
    (P.And(P.Or(P.Gt("f64", 1.0), P.Lt("f64", -1.0)), P.Eq("b", True)),
     "(f64 > 1.0 or f64 < -1.0) and b"),
    ([("fi", "==", 42)], "fi = 42"),
    ([("fi", "in", [7, 42.5])], "fi in (7, 42.5)"),
    ([("ts", "==", TS[1234])], f"ts = TIMESTAMP '{TS[1234]}'"),
    ([("ts", ">=", TS[4000])], f"ts >= TIMESTAMP '{TS[4000]}'"),
    ([("d", "<", DAY)], f"d < DATE '{DAY}'"),
    # the second branch keeps rows BEFORE the first one's: the RowRanges
    # union must not assume its inputs arrive in row order
    (P.Or(P.Gt("i64", I64[4500]), P.Lt("ts", TS[300])),
     f"i64 > {I64[4500]} or ts < TIMESTAMP '{TS[300]}'"),
    # a nullable column's pages map to rows through its validity
    ([("opt", "<", 5)], "opt < 5"),
]

# one modern multi-row-group file with page indexes, one legacy v1 file
# without stored Arrow schema, one compressed single-group file
CONFIGS = [
    ("2.6", "zstd", True, 7),
    ("1.0", "none", False, 7),
    ("2.6", "snappy", False, 1),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("diff")
    out = []
    for ver, comp, store, rgs in CONFIGS:
        p = str(d / f"t_{ver}_{comp}_{store}_{rgs}.parquet")
        pq.write_table(
            TABLE, p, version=ver, compression=comp, store_schema=store,
            row_group_size=N // rgs, write_page_index=True,
            use_dictionary=["s"], data_page_size=4096,
        )
        out.append(p)
    return out


@pytest.mark.parametrize("pi", range(len(PREDS)), ids=[w for _, w in PREDS])
def test_filtered_read_matches_duckdb(files, pi):
    pred, where = PREDS[pi]
    for path in files:
        got = read_table_filtered(path, pred)
        want = duckdb.sql(
            f"select count(*) from read_parquet('{path}') where {where}"
        ).fetchone()[0]
        assert got.num_rows == want, (path, where)
        # values, not just counts: the i64 column is unique per row, so a
        # sorted compare against pyarrow's own filtered read pins the rows
        expect = pq.read_table(path).filter(
            pa.compute.is_in(
                pq.read_table(path, columns=["i64"]).column("i64"),
                value_set=got.column("i64").combine_chunks(),
            )
        )
        assert got.sort_by("i64").cast(expect.schema).equals(
            expect.sort_by("i64")
        ), (path, where)


@pytest.mark.parametrize("seed", range(6))
def test_random_predicate_trees_match_duckdb(tmp_path, seed):
    # bounded randomized campaign: random tables x random And/Or/Not trees
    # over nullable strings + floats (NaN-free: NaN Not-semantics follow the
    # reference's IEEE comparisons, documented in rayenc.predicate) must
    # match DuckDB row counts
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(50, 4000))
    t = pa.table({
        "i": pa.array(rng.integers(-10**6, 10**6, n), pa.int64()),
        "f": pa.array(rng.normal(0, 100, n)),
        "s": pa.array([f"k{v:04d}" if v % 11 else None
                       for v in rng.integers(0, 200, n)]),
    })
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path, row_group_size=max(10, n // 5),
                   write_page_index=True, data_page_size=2048)
    iv = int(rng.integers(-10**6, 10**6))
    fv = float(rng.normal(0, 100))
    sv = f"k{int(rng.integers(0, 200)):04d}"
    leaves = [
        (P.Gt("i", iv), f"i > {iv}"),
        (P.LtEq("f", fv), f"f <= {fv}"),
        (P.Eq("s", sv), f"s = '{sv}'"),
        (P.IsNull("s"), "s is null"),
        (P.NotIn("s", [sv, "k0001"]), f"s not in ('{sv}', 'k0001')"),
    ]
    for shape in ("and", "or", "notand", "notor"):
        sel = rng.choice(len(leaves), 3, replace=False)
        preds = [leaves[i] for i in sel]
        body = [p for p, _ in preds]
        ws = [f"({w})" for _, w in preds]
        if shape == "and":
            tree, where = P.And(body), " and ".join(ws)
        elif shape == "or":
            tree, where = P.Or(body), " or ".join(ws)
        elif shape == "notand":
            tree, where = P.Not(P.And(body)), "not (" + " and ".join(ws) + ")"
        else:
            tree, where = P.Not(P.Or(body)), "not (" + " or ".join(ws) + ")"
        got = read_table_filtered(path, tree)
        want = duckdb.sql(
            f"select count(*) from read_parquet('{path}') where {where}"
        ).fetchone()[0]
        assert got.num_rows == want, (seed, where)


# ----------------------------------------------------- the other surfaces

PARTS = 4


def _container(d, column_encodings=None):
    """TABLE as a 4-partition container in ``d`` with a bloom on every
    column that can carry one and several pages per chunk."""
    cfg = EncodeConfig(bloom_columns=set(TABLE.column_names), page_size=2048,
                       column_encodings=column_encodings or {})
    names = []
    rows = N // PARTS
    for k in range(PARTS):
        blob, man = blocks.encode_block(TABLE.slice(k * rows, rows), cfg)
        man["blob"] = f"part-{k}.renc"
        with open(os.path.join(d, man["blob"]), "wb") as f:
            f.write(blob)
        names.append(f"part-{k}.manifest.json")
        with open(os.path.join(d, names[-1]), "w") as f:
            json.dump(man, f)
    return d, names


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    return _container(str(tmp_path_factory.mktemp("renc")))


@pytest.fixture(scope="module")
def fsst_container(tmp_path_factory):
    """The same container with ``s`` FSST-encoded: its leaves are answered
    on the compressed strings."""
    return _container(str(tmp_path_factory.mktemp("renc_fsst")), {"s": "FSST"})


def _hits(tree, table) -> np.ndarray:
    return np.flatnonzero(P.mask(tree, table).fill_null(False).to_numpy(zero_copy_only=False))


@pytest.mark.parametrize("pi", range(len(PREDS)), ids=[w for _, w in PREDS])
def test_container_surface_matches_filter_table(container, pi):
    _check_container_surface(container, *PREDS[pi])


@pytest.mark.parametrize("pi", range(len(PREDS)), ids=[w for _, w in PREDS])
def test_fsst_container_surface_matches_filter_table(fsst_container, pi):
    _check_container_surface(fsst_container, *PREDS[pi])


def _check_container_surface(container, pred, where):
    d, names = container
    tree = P.normalize(pred)
    want = P.filter_table(tree, TABLE)
    w = pipeline.DecodeWorker(d, predicate=pred)
    parts = list(w({"manifest": names}))
    got = pa.concat_tables(parts) if parts else want.schema.empty_table()
    assert got.sort_by("i64").equals(want.sort_by("i64")), where
    for name in names:
        with open(os.path.join(d, name)) as f:
            man = json.load(f)
        with open(os.path.join(d, man["blob"]), "rb") as f:
            blob = f.read()
        hits = _hits(tree, blocks.decode_block(blob, man))
        if w._skip_by_stats(man):
            assert len(hits) == 0, (where, name)
            continue
        reader = blocks._BlockReader(blob, {c["name"]: c for c in man["chunks"]})
        kept = blocks._kept_row_intervals(man, reader, tree)
        assert all(any(a <= r < b for a, b in kept) for r in hits), (where, name)


@pytest.fixture(scope="module")
def summary_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("summary"))
    rows = N // PARTS
    for k in range(PARTS):
        pq.write_table(
            TABLE.slice(k * rows, rows), os.path.join(d, f"part-{k}.parquet"),
            row_group_size=rows // 3, write_page_index=True, data_page_size=4096,
        )
    write_summary(d)
    return d


@pytest.mark.parametrize("pi", range(len(PREDS)), ids=[w for _, w in PREDS])
def test_summary_surface_matches_filter_table(summary_dir, pi):
    pred, where = PREDS[pi]
    tree = P.normalize(pred)
    plan = plan_from_summary(summary_dir, pred)
    parts = [read_table_filtered(p, pred, row_groups=[rg]) for p, rg in plan]
    want = P.filter_table(tree, TABLE)
    got = pa.concat_tables(parts) if parts else want.schema.empty_table()
    assert got.sort_by("i64").cast(want.schema).equals(want.sort_by("i64")), where
    planned = set(plan)
    for k in range(PARTS):
        path = os.path.join(summary_dir, f"part-{k}.parquet")
        for rg in range(pq.ParquetFile(path).metadata.num_row_groups):
            if (path, rg) not in planned:
                vetoed = read_table_filtered(path, None, row_groups=[rg])
                assert len(_hits(tree, vetoed)) == 0, (where, path, rg)


# ------------------------------------------ FSST leaves on compressed strings

_WORDS = ["", "é", "naïve café", "key007", "key0070", "日本語", "\x00\x7f", "zz"] + [
    f"doc-{i:03d}" for i in range(12)
]
_BYTES = [b"", b"\xff", b"\xff\xff", b"a\xff", b"\xff\x00\xff", b"\xfe\xff", b"abc"]
_word = st.none() | st.sampled_from(_WORDS)
_fsst_leaf = st.one_of(
    st.tuples(st.just("s"), st.sampled_from(["==", "!=", "<"]), st.sampled_from(_WORDS + ["nope"])),
    st.tuples(st.just("s"), st.sampled_from(["in", "not_in"]),
              st.lists(st.sampled_from(_WORDS + ["nope"]), min_size=1, max_size=3)),
    st.tuples(st.just("bb"), st.sampled_from(["==", "!="]), st.sampled_from(_BYTES)),
    st.tuples(st.just("bb"), st.sampled_from(["in", "not_in"]),
              st.lists(st.sampled_from(_BYTES), min_size=1, max_size=3)),
    st.tuples(st.sampled_from(["s", "bb"]), st.sampled_from(["is_null", "not_null"]), st.none()),
    st.tuples(st.just("k"), st.sampled_from(["<", ">="]), st.integers(0, 60)),
).map(lambda t: P.Leaf(*t))
_fsst_tree = st.recursive(
    _fsst_leaf,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(P.And),
        st.lists(kids, min_size=1, max_size=3).map(P.Or),
        kids.map(P.Not),
    ),
    max_leaves=4,
)


@given(
    words=st.lists(st.tuples(_word, st.none() | st.sampled_from(_BYTES)), min_size=1, max_size=60),
    page_rows=st.integers(1, 9),
    tree=_fsst_tree,
    columns=st.sampled_from([None, ["k"], ["s", "k"], ["bb"]]),
)
@settings(max_examples=150, deadline=None)
def test_fsst_leaves_match_filter_on_values(words, page_rows, tree, columns):
    # nullable string and binary columns forced to FSST (non-ASCII, empty
    # and escaped values) in multi-page blocks: the encoded-domain read
    # returns the rows filter_table finds on the decoded values
    table = pa.table({
        "k": pa.array(np.arange(len(words)), pa.int64()),
        "s": pa.array([w for w, _ in words], pa.string()),
        "bb": pa.array([b for _, b in words], pa.binary()),
    })
    cfg = EncodeConfig(page_rows=page_rows, column_encodings={"s": "FSST", "bb": "FSST"})
    blob, manifest = blocks.encode_block(table, cfg)
    want = P.filter_table(P.normalize(tree), table)
    got = blocks.decode_block(blob, manifest, columns=columns, predicate=tree)
    assert got.equals(want.select(columns or table.column_names))
