"""Two-phase reads against the one-phase oracle, in both formats.

``blocks.decode_block(..., predicate=...)`` and
``parquet_read_enc.read_table_filtered`` decode the predicate columns,
evaluate the predicate, then decode the other columns only on the pages
that hold the matching rows. Whatever the table and predicate, the answer
must equal a full decode followed by ``predicate.filter_table``; small
``page_rows`` make empty and null lists straddle page boundaries."""

import inspect
import json
import math
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings, strategies as st

from rayenc import blocks, parquet_write, pipeline
from rayenc import predicate as P
from rayenc.codecs import alp, dictionary, rle_for
from rayenc.parquet_read_enc import read_table_filtered
from rayenc.selector import EncodeConfig

SCHEMA = pa.schema([
    ("k", pa.int64()),
    ("f", pa.float64()),
    ("d", pa.string()),
    ("s", pa.string()),
    ("li", pa.list_(pa.int32())),
    ("tok", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("ll", pa.large_list(pa.string())),
    ("m", pa.map_(pa.string(), pa.int32())),
    ("st", pa.struct([("a", pa.int32()), ("b", pa.list_(pa.int16()))])),
    ("fl", pa.list_(pa.int32(), 3)),
])

_int = st.none() | st.integers(-3, 3)
_str = st.none() | st.sampled_from(["", "x", "yy", "zzz"])
_row = st.fixed_dictionaries({
    "k": _int,
    "f": st.none() | st.sampled_from([-1.5, 0.0, 2.5, math.nan]),
    "d": st.sampled_from(["a", "b", "c"]),
    "s": _str,
    "li": st.none() | st.lists(_int, max_size=4),
    "tok": st.lists(st.integers(0, 50), max_size=5),
    "ll": st.none() | st.lists(_str, max_size=3),
    "m": st.none() | st.dictionaries(st.sampled_from(["p", "q", "r"]), _int, max_size=3).map(
        lambda d: list(d.items())
    ),
    "st": st.none() | st.fixed_dictionaries({
        "a": _int, "b": st.none() | st.lists(st.integers(-5, 5), max_size=3),
    }),
    "fl": st.none() | st.lists(_int, min_size=3, max_size=3),
})


def _table(rows):
    cols = {f.name: [r[f.name] for r in rows] for f in SCHEMA if f.name != "n_tok"}
    cols["n_tok"] = [len(r["tok"]) for r in rows]
    return pa.table({f.name: pa.array(cols[f.name], f.type) for f in SCHEMA}, schema=SCHEMA)


_FLAT_LEAVES = [
    st.tuples(st.just("k"), st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), st.integers(-4, 4)),
    st.tuples(st.just("k"), st.just("in"), st.lists(st.integers(-3, 3), max_size=3)),
    st.tuples(st.just("f"), st.sampled_from(["==", "<", ">="]), st.sampled_from([0.0, 2.5, math.nan])),
    st.tuples(st.just("d"), st.sampled_from(["==", "!=", ">"]), st.sampled_from(["a", "b", "c"])),
    st.tuples(st.just("s"), st.sampled_from(["==", "<"]), st.sampled_from(["x", "yy"])),
    st.tuples(st.just("n_tok"), st.sampled_from([">=", "<"]), st.integers(0, 5)),
    st.tuples(st.just("k"), st.just(">"), st.just(100)),  # matches no row
    st.tuples(st.sampled_from(["k", "f", "s"]), st.sampled_from(["is_null", "not_null"]), st.none()),
]
# Parquet predicates take flat columns only
_LEAVES = _FLAT_LEAVES + [
    st.tuples(st.sampled_from(["li", "ll", "m", "st", "fl"]),
              st.sampled_from(["is_null", "not_null"]), st.none()),
]


def _trees(leaves):
    return st.recursive(
        st.one_of(*leaves).map(lambda t: P.Leaf(*t)),
        lambda kids: st.one_of(
            st.lists(kids, min_size=1, max_size=3).map(P.And),
            st.lists(kids, min_size=1, max_size=3).map(P.Or),
            kids.map(P.Not),
        ),
        max_leaves=4,
    )


def _comparable(table):
    """``table`` with dictionary columns decoded to their value type and
    NaN (which ``equals`` never matches) replaced by a value ``f`` never
    holds."""
    cols = {}
    for name, col in zip(table.column_names, table.columns):
        if pa.types.is_dictionary(col.type):
            col = col.cast(col.type.value_type)
        if pa.types.is_floating(col.type):
            col = pc.if_else(pc.is_nan(col), 99.0, col)
        cols[name] = col
    return pa.table(cols)


@given(
    rows=st.lists(_row, max_size=40),
    page_rows=st.integers(1, 6),
    tree=_trees(_LEAVES),
    flat_tree=_trees(_FLAT_LEAVES),
    columns=st.none() | st.lists(st.sampled_from(SCHEMA.names), min_size=1, unique=True),
    dictionary_strings=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_two_phase_read_matches_filter_after_full_decode(
    rows, page_rows, tree, flat_tree, columns, dictionary_strings
):
    table = _table(rows)
    cfg = EncodeConfig(page_rows=page_rows, column_encodings={"d": "RLE_DICTIONARY"})
    blob, manifest = blocks.encode_block(table, cfg)
    assert {c["name"]: c for c in manifest["chunks"]}["n_tok"].get("alias")
    full = blocks.decode_block(blob, manifest)
    assert _comparable(full).equals(_comparable(table))
    want = P.filter_table(P.normalize(tree), full)
    if columns is not None:
        want = want.select(columns)  # the projection in the order asked
    got = blocks.decode_block(
        blob, manifest, columns=columns, predicate=tree, dictionary_strings=dictionary_strings
    )
    if dictionary_strings and (columns is None or "d" in columns):
        assert pa.types.is_dictionary(got.schema.field("d").type)
    assert _comparable(got).equals(_comparable(want))

    # the same table and page size as a Parquet file, through the same two-phase read
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        parquet_write.write_table(table, path, cfg)
        # (fixed-size lists read back as lists)
        want = P.filter_table(P.normalize(flat_tree), read_table_filtered(path, None))
        if columns is not None:
            want = want.select(columns)
        got = read_table_filtered(path, flat_tree, columns=columns)
        assert _comparable(got).equals(_comparable(want))


# ------------------------------------------------------------ pages decoded


def _token_partition(tmp_path, rows=3000):
    """One tokens-shaped partition (doc_id, tokens, n_tok) whose
    ``tokens#values`` chunk spans many pages."""
    docs = [f"doc-{i:06d}" for i in range(rows)]
    tokens = [[(i * 7 + j) % 101 for j in range(i % 9 + 1)] for i in range(rows)]
    table = pa.table({
        "doc_id": docs,
        "tokens": pa.array(tokens, pa.list_(pa.int32())),
        "n_tok": pa.array([len(t) for t in tokens], pa.int32()),
    })
    blob, manifest = blocks.encode_block(table, EncodeConfig(page_rows=500))
    manifest["blob"] = "p.renc"
    (tmp_path / "p.renc").write_bytes(blob)
    (tmp_path / "p.manifest.json").write_text(json.dumps(manifest))
    entry = next(c for c in manifest["chunks"] if c["name"] == "tokens#values")
    pages = {blob[p["offset"] : p["offset"] + p["length"]] for p in entry["pages"]}
    assert len(pages) == len(entry["pages"])  # no two pages alike
    return table, pages


def test_lookup_decodes_only_the_pages_of_the_matching_row(tmp_path, decoded_pages):
    table, pages = _token_partition(tmp_path)
    assert len(pages) > 20
    for row in (0, 1234, 2999):
        decoded_pages.clear()
        key = table["doc_id"][row].as_py()
        worker = pipeline.DecodeWorker(str(tmp_path), predicate=[("doc_id", "==", key)])
        (got,) = list(worker({"manifest": ["p.manifest.json"]}))
        assert got.equals(table.slice(row, 1))
        assert 1 <= len([b for b in decoded_pages if b in pages]) <= 2


def test_lookup_hands_the_decoders_only_the_selected_positions(tmp_path, decoded_pages, monkeypatch):
    # single-page RLE_FOR, ALP and RLE_DICTIONARY chunks: a lookup decodes
    # the key chunk whole (phase 1) and hands the other chunks' decoders
    # only the matching row's position; every page is decoded once
    n = 6000
    rng = np.random.default_rng(7)
    table = pa.table({
        "k": np.arange(n, dtype=np.int64),
        "f": rng.integers(0, 5000, n),
        "p": np.round(rng.random(n) * 1000, 2),
        "s": [f"flag-{x}" for x in rng.integers(0, 3, n)],
    })
    forced = {"k": "DELTA_BINARY_PACKED", "f": "RLE_FOR", "p": "ALP", "s": "RLE_DICTIONARY"}
    blob, manifest = blocks.encode_block(table, EncodeConfig(page_rows=n, column_encodings=forced))
    assert {c["name"]: (c["encoding"], len(c["pages"])) for c in manifest["chunks"]} == {
        c: (e, 1) for c, e in forced.items()
    }
    manifest["blob"] = "p.renc"
    (tmp_path / "p.renc").write_bytes(blob)
    (tmp_path / "p.manifest.json").write_text(json.dumps(manifest))
    handed = []
    for module, name in ((rle_for, "decode"), (alp, "decode"), (dictionary, "decode_ids")):
        real = getattr(module, name)

        def recording(*args, _real=real, _name=f"{module.__name__}.{name}", **kwargs):
            at = inspect.signature(_real).bind(*args, **kwargs).arguments.get("at")
            handed.append((_name, None if at is None else np.asarray(at).tolist()))
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    for row in (0, 2345, n - 1):
        decoded_pages.clear()
        handed.clear()
        worker = pipeline.DecodeWorker(str(tmp_path), predicate=[("k", "==", row)])
        (got,) = list(worker({"manifest": ["p.manifest.json"]}))
        assert got.equals(table.slice(row, 1))
        assert sorted(handed) == sorted([
            ("rayenc.codecs.rle_for.decode", [row]),  # f
            ("rayenc.codecs.alp.decode", [row]),
            ("rayenc.codecs.rle_for.decode", [row]),  # p's integer stream
            ("rayenc.codecs.dictionary.decode_ids", [row]),
        ])
        pages = [blob[p["offset"] : p["offset"] + p["length"]] for c in manifest["chunks"] for p in c["pages"]]
        assert sorted(b for b in decoded_pages if b in pages) == sorted(pages)


def test_a_kept_prefix_serves_only_the_positions_it_holds():
    # a prefix read keeps the chunk's first values; a later read past
    # them decodes the pages again, on one page or several
    for page_rows in (1000, 100):
        blob, manifest = blocks.encode_block(
            pa.table({"k": np.arange(1000) * 3}), EncodeConfig(page_rows=page_rows)
        )
        reader = blocks._BlockReader(blob, {c["name"]: c for c in manifest["chunks"]}, ["k"])
        entry = reader.target("k")
        assert reader.values(entry, np.arange(150)).tolist() == list(range(0, 450, 3))
        assert reader.values(entry, np.array([5, 149])).tolist() == [15, 447]
        assert reader.values(entry, np.array([120, 199])).tolist() == [360, 597]
        assert reader.values(entry, None).tolist() == list(range(0, 3000, 3))


def test_predicate_matching_every_row_decodes_every_page(tmp_path, decoded_pages):
    table, pages = _token_partition(tmp_path)
    assert len(pages) > 20
    worker = pipeline.DecodeWorker(
        str(tmp_path), columns=["tokens"], predicate=[("doc_id", "!=", "none")]
    )
    (got,) = list(worker({"manifest": ["p.manifest.json"]}))
    assert got.equals(table.select(["tokens"]))
    assert sorted(b for b in decoded_pages if b in pages) == sorted(pages)


def test_predicate_columns_need_not_be_projected(tmp_path):
    table, _pages = _token_partition(tmp_path, rows=600)
    worker = pipeline.DecodeWorker(
        str(tmp_path), columns=["tokens", "doc_id"], predicate=[("n_tok", ">=", 8)]
    )
    (got,) = list(worker({"manifest": ["p.manifest.json"]}))
    want = table.filter(pc.greater_equal(table["n_tok"], 8)).select(["tokens", "doc_id"])
    assert got.equals(want)


def test_nullable_predicate_column_has_page_bounds(decoded_pages):
    # pages split values, not rows: page k of a nullable column starts at
    # the row of its first value
    n = 20_000
    k = pa.array([None if i % 1000 == 999 else i for i in range(n)], pa.int64())
    blob, manifest = blocks.encode_block(pa.table({"k": k}), EncodeConfig(page_rows=1000))
    (entry,) = manifest["chunks"]
    assert entry["validity"] and len(entry["pages"]) == 20
    pages = [blob[p["offset"] : p["offset"] + p["length"]] for p in entry["pages"]]
    got = blocks.decode_block(blob, manifest, predicate=[("k", "==", 12345)])
    assert got["k"].to_pylist() == [12345]
    assert len([b for b in decoded_pages if b in pages]) == 1
    got = blocks.decode_block(blob, manifest, predicate=[("k", "is_null", None)])
    assert got.num_rows == 20 and got["k"].null_count == 20
    # the same for a nullable string column
    s = pa.array([None if i % 1000 == 999 else f"k{i:08d}" for i in range(n)])
    blob, manifest = blocks.encode_block(pa.table({"s": s}), EncodeConfig(page_rows=1000))
    (entry,) = manifest["chunks"]
    assert entry["validity"] and len(entry["pages"]) == 20
    pages = [blob[p["offset"] : p["offset"] + p["length"]] for p in entry["pages"]]
    decoded_pages.clear()
    got = blocks.decode_block(blob, manifest, predicate=[("s", "==", "k00012345")])
    assert got["s"].to_pylist() == ["k00012345"]
    assert len([b for b in decoded_pages if b in pages]) == 1
    # a page ends at the row after its last value: a null run between two
    # pages is a value-less span that only is_null keeps
    nint = pa.array([None if 300 <= i < 400 else i for i in range(600)], pa.int64())
    blob, manifest = blocks.encode_block(pa.table({"nint": nint}), EncodeConfig(page_rows=100))
    reader = blocks._BlockReader(blob, {c["name"]: c for c in manifest["chunks"]})
    kept = lambda pred: blocks._kept_row_intervals(manifest, reader, P.normalize(pred))
    assert kept([("nint", "==", 250)]) == [(200, 300)]
    assert kept([("nint", "is_null", None)]) == [(300, 400)]
    assert kept([("nint", "not_null", None)]) == [(0, 300), (400, 600)]
    got = blocks.decode_block(blob, manifest, predicate=[("nint", "is_null", None)])
    assert got.num_rows == 100 and got["nint"].null_count == 100


def test_fsst_reads_decompress_only_the_returned_strings(monkeypatch):
    # FSST leaves are answered on the compressed strings: a lookup
    # decompresses its matched string, a filter the rows it returns, and a
    # full decode every string once
    from rayenc import data
    from rayenc.codecs import fsst

    table = data.make_table(2000, 20.0)
    cfg = EncodeConfig(page_rows=500, column_encodings={"doc_id": "FSST"})
    blob, manifest = blocks.encode_block(table, cfg)
    entry = next(c for c in manifest["chunks"] if c["name"] == "doc_id")
    assert entry["encoding"] == "FSST" and len(entry["pages"]) == 4
    handed = []
    real = fsst.decompress

    def counting(symbols, offsets, values):
        handed.append(len(offsets) - 1)
        return real(symbols, offsets, values)

    monkeypatch.setattr(fsst, "decompress", counting)
    for row in (0, 777, 1999):
        handed.clear()
        key = table["doc_id"][row].as_py()
        got = blocks.decode_block(blob, manifest, predicate=[("doc_id", "==", key)])
        assert got.equals(table.slice(row, 1))
        assert sum(handed) == 1
    handed.clear()
    assert blocks.decode_block(blob, manifest, predicate=[("doc_id", "==", "absent")]).num_rows == 0
    assert sum(handed) == 0

    source = table["source"][0].as_py()
    pred = [("source", "==", source), ("n_tok", ">=", 20)]
    handed.clear()
    got = blocks.decode_block(blob, manifest, columns=["doc_id", "n_tok"], predicate=pred)
    want = table.filter(
        pc.and_(pc.equal(table["source"], source), pc.greater_equal(table["n_tok"], 20))
    ).select(["doc_id", "n_tok"])
    assert got.equals(want) and 0 < got.num_rows < table.num_rows // 4
    assert sum(handed) == got.num_rows

    handed.clear()
    assert blocks.decode_block(blob, manifest).equals(table)
    assert sum(handed) == table.num_rows
