"""Block container: shred/assemble, chunk encode/decode, selector choices
(FIXTURES.md F3), page split rule, compression, nulls."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import blocks, predicate as P, selector, stats
from rayenc.schema import PhysicalColumn, shred, assemble

SF = "/root/testdata/sf0.001"


def roundtrip_table(table: pa.Table, config=None):
    blob, manifest = blocks.encode_block(table, config)
    out = blocks.decode_block(blob, manifest)
    assert out.schema == table.schema
    assert out.equals(table), "decoded table differs"
    return blob, manifest


@pytest.mark.parametrize(
    "name", ["region", "nation", "supplier", "customer", "part", "orders", "lineitem", "events", "documents", "embeddings"]
)
def test_testdata_roundtrip(name):
    table = pq.read_table(f"{SF}/{name}.parquet")
    blob, manifest = roundtrip_table(table)
    assert manifest["num_rows"] == table.num_rows


def test_tokenized_schema_roundtrip():
    rng = np.random.default_rng(42)
    n = 2000
    n_tok = rng.integers(1, 50, n)
    tokens = [rng.integers(0, 50257, k).astype(np.int32) for k in n_tok]
    table = pa.table(
        {
            "doc_id": [f"src{i % 5}/{i:010d}" for i in range(n)],
            "tokens": pa.array([t.tolist() for t in tokens], pa.list_(pa.int32())),
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": [f"source-{i % 7}" for i in range(n)],
        }
    )
    blob, manifest = roundtrip_table(table)
    names = {c["name"]: c for c in manifest["chunks"]}
    assert set(names) == {"doc_id", "tokens#lengths", "tokens#values", "n_tok", "source"}
    # zipf-ish low-NDV source must pick dictionary
    assert names["source"]["encoding"] == "RLE_DICTIONARY"


def test_selector_fixture_choices():
    """FIXTURES.md F3: engineered single-column blocks -> expected encodings."""
    rng = np.random.default_rng(0)
    cfg = selector.EncodeConfig()

    def encoding_of(table):
        _, manifest = blocks.encode_block(table, cfg)
        return manifest["chunks"][0]["encoding"]

    # dictionary: zipf NDV=20 strings
    zipf = [f"source-{min(int(rng.zipf(1.3)), 20)}" for _ in range(5000)]
    assert encoding_of(pa.table({"c": zipf})) == "RLE_DICTIONARY"
    # delta-binary-packed: sorted ints
    assert (
        encoding_of(pa.table({"c": pa.array(np.sort(rng.integers(0, 10**6, 5000)), pa.int32())}))
        == "DELTA_BINARY_PACKED"
    )
    # plain stays competitive for uniform random doubles
    assert encoding_of(pa.table({"c": rng.random(5000)})) in ("PLAIN", "BYTE_STREAM_SPLIT")
    # high-NDV id-like strings in random order -> FSST beats delta/plain
    ids = [f"web/shard-{i // 100:05d}/doc-{i:012d}" for i in range(5000)]
    shuffled = [ids[j] for j in rng.permutation(5000)]
    assert encoding_of(pa.table({"c": shuffled})) == "FSST"
    # sorted high-NDV strings -> prefix coding wins
    assert encoding_of(pa.table({"c": sorted(ids)})) == "DELTA_BYTE_ARRAY"


def test_chosen_is_min_over_candidates():
    rng = np.random.default_rng(1)
    table = pa.table({"c": pa.array(rng.integers(0, 100, 3000), pa.int32())})
    blob, manifest = blocks.encode_block(table)
    entry = manifest["chunks"][0]
    # re-encode each candidate and confirm the winner is minimal
    col = shred("c", table["c"])[0]
    cfg = selector.EncodeConfig()
    st = stats.compute(col)
    ranges = blocks.page_ranges(col, cfg)
    sizes = {}
    for enc in selector.candidates_for(col, st, cfg):
        cand = blocks._plan_candidate(col, enc, ranges, cfg)
        if cand is None:
            continue
        aux, pages = cand.emit()
        actual = (len(aux) if aux else 0) + sum(len(p) for p in pages)
        if not cand.estimated:
            assert actual == cand.size, (enc, actual, cand.size)  # plans are exact
        sizes[enc] = actual
    assert entry["encoded_bytes"] == min(sizes.values())


def test_page_split_rule():
    cfg = selector.EncodeConfig(page_size=1 << 10, page_rows=100)
    col = PhysicalColumn("c", "INT32", np.arange(1000, dtype=np.int32))
    ranges = blocks.page_ranges(col, cfg)
    assert all(b - a <= 100 for a, b in ranges)
    assert ranges[0] == (0, 100)  # row limit trips before 1KiB/4B=256
    col2 = PhysicalColumn("c", "INT64", np.arange(1000, dtype=np.int64))
    ranges2 = blocks.page_ranges(col2, selector.EncodeConfig(page_size=1 << 10))
    assert ranges2[0] == (0, 128)  # 1KiB / 8B per value
    assert sum(b - a for a, b in ranges2) == 1000


def test_nulls_flat_columns():
    table = pa.table(
        {
            "i": pa.array([1, None, 3, None, 5], pa.int64()),
            "s": pa.array(["a", None, "c", "d", None]),
            "f": pa.array([1.0, 2.0, None, 4.0, 5.0]),
        }
    )
    roundtrip_table(table)


def test_compressed_pages():
    table = pq.read_table(f"{SF}/documents.parquet")
    for codec in ("zstd", "lz4", "gzip", "snappy"):
        cfg = selector.EncodeConfig(compression=codec)
        blob, manifest = blocks.encode_block(table, cfg)
        out = blocks.decode_block(blob, manifest)
        assert out.equals(table), codec


def test_column_encoding_override():
    cfg = selector.EncodeConfig(column_encodings={"c": "PLAIN"})
    table = pa.table({"c": pa.array(np.sort(np.arange(1000)), pa.int32())})
    _, manifest = blocks.encode_block(table, cfg)
    assert manifest["chunks"][0]["encoding"] == "PLAIN"


def test_size_beats_pyarrow_parquet_baseline():
    """The north-star size gate at block level: our encoded bytes <= parquet
    (uncompressed, default dictionary behavior) for the tokenized table."""
    import io

    rng = np.random.default_rng(7)
    n = 5000
    n_tok = np.clip(rng.lognormal(4.0, 1.0, n).astype(np.int64), 1, 2000)
    tokens = [rng.integers(0, 50257, k).astype(np.int32) for k in n_tok]
    table = pa.table(
        {
            "doc_id": [f"src{i % 5}/{i:010d}" for i in range(n)],
            "tokens": pa.array([t.tolist() for t in tokens], pa.list_(pa.int32())),
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": [f"source-{min(int(rng.zipf(1.3)), 20)}" for i in range(n)],
        }
    )
    blob, manifest = blocks.encode_block(table)
    buf = io.BytesIO()
    pq.write_table(table, buf, compression="none", use_dictionary=True)
    assert len(blob) <= buf.tell(), (len(blob), buf.tell())


def test_rle_for_roundtrip_and_choice():
    from rayenc.codecs import rle_for

    rng = np.random.default_rng(9)
    # uniform vocab: FOR bit-pack should beat delta (16 vs ~17 bits)
    vals = rng.integers(0, 50257, 100_000).astype(np.int32)
    buf = rle_for.encode(vals)
    np.testing.assert_array_equal(rle_for.decode(buf, len(vals), np.int32), vals)
    assert len(buf) <= len(vals) * 2 + 300  # 1 header byte per 504-value run
    table = pa.table({"c": pa.array(vals, pa.int32())})
    _, manifest = blocks.encode_block(table)
    assert manifest["chunks"][0]["encoding"] == "RLE_FOR"
    # runs also collapse under the hybrid
    runs = np.repeat(rng.integers(1000, 1100, 500), 50).astype(np.int64)
    buf = rle_for.encode(runs)
    np.testing.assert_array_equal(rle_for.decode(buf, len(runs), np.int64), runs)
    assert len(buf) < len(runs)  # rle runs, far below 1 byte/value
    # 64-bit range -> inapplicable
    wide = np.array([0, 2**40], np.int64)
    assert rle_for.encode(wide) is None


def test_flba_and_decimal_and_boolean_roundtrip():
    import decimal

    rng = np.random.default_rng(11)
    fsb = [bytes(rng.integers(0, 4, 16).tolist()) for _ in range(3000)]  # low-NDV-ish bytes
    table = pa.table(
        {
            "uuidish": pa.array(fsb, pa.binary(16)),
            "price": pa.array(
                [decimal.Decimal(f"{i % 997}.{i % 100:02d}") for i in range(3000)],
                pa.decimal128(12, 2),
            ),
            "flag": pa.array((np.arange(3000) % 3 == 0).tolist(), pa.bool_()),
        }
    )
    blob, manifest = roundtrip_table(table)
    encs = {c["name"]: c["encoding"] for c in manifest["chunks"]}
    assert encs["flag"] in ("RLE", "PLAIN")
    assert all(
        c["encoding"] in ("PLAIN", "BYTE_STREAM_SPLIT", "DELTA_BYTE_ARRAY")
        for c in manifest["chunks"]
        if c["ptype"] == "FIXED_LEN_BYTE_ARRAY"
    )


def test_dictionary_rejected_above_1mib_threshold():
    """TestDictionary.testBinaryDictionaryFallBack analog: cumulative dict
    bytes (4 + len per entry) above maxDictionaryByteSize must reject the
    dictionary attempt entirely (DictionaryValuesWriter.java:117-120)."""
    # 40k distinct 30-byte strings -> dict cost ~= 40k * 34 = 1.36 MiB > 1 MiB
    vals = [f"unique-padding-padding-{i:08d}" for i in range(40_000)]
    col = shred("c", pa.table({"c": vals})["c"])[0]
    assert selector.try_dictionary(col, selector.EncodeConfig()) is None
    # under the threshold it is accepted
    small = shred("c", pa.table({"c": vals[:1000] * 3})["c"])[0]
    assert selector.try_dictionary(small, selector.EncodeConfig()) is not None
    # and the pipeline still picks something lossless
    _, manifest = blocks.encode_block(pa.table({"c": vals}))
    assert manifest["chunks"][0]["encoding"] != "RLE_DICTIONARY"


def test_dictionary_cost_rule_binary():
    """Entry cost is exactly 4 + len (DictionaryValuesWriter.java:241-250)."""
    from rayenc.codecs.dictionary import dictionary_cost_bytes

    cap = selector.MAX_DICT_BYTES
    entry_len = 60
    n_over = cap // (4 + entry_len) + 1
    vals = [f"{'x' * (entry_len - 8)}{i:08d}" for i in range(n_over)]
    dic = pa.array(vals)
    assert dictionary_cost_bytes(dic) == n_over * (4 + entry_len)
    assert dictionary_cost_bytes(dic) > cap
    assert dictionary_cost_bytes(dic.slice(0, n_over - 2)) <= cap


def test_unicode_roundtrip():
    vals = ["héllo wörld", "日本語のテキスト", "emoji 🎉🚀", "mixé", ""] * 100
    roundtrip_table(pa.table({"s": pa.array(vals, pa.string())}))
    # force each string codec over multibyte content
    for enc in ("FSST", "DELTA_BYTE_ARRAY", "DELTA_LENGTH_BYTE_ARRAY", "PLAIN"):
        cfg = selector.EncodeConfig(column_encodings={"s": enc})
        blob, manifest = blocks.encode_block(pa.table({"s": vals}), cfg)
        assert manifest["chunks"][0]["encoding"] == enc
        assert blocks.decode_block(blob, manifest).column("s").to_pylist() == vals


def test_empty_table_roundtrip():
    table = pa.table({"a": pa.array([], pa.int64()), "s": pa.array([], pa.string())})
    roundtrip_table(table)


def test_float16_roundtrip():
    vals = np.array([0.5, -1.25, 65504.0, 0.0, 6.1e-5], np.float16)
    roundtrip_table(pa.table({"h": pa.array(vals, pa.float16())}))


def test_alias_chunks_for_identical_columns():
    """n_tok duplicates tokens#lengths in the input_hint schema: the block
    encodes the stream once and aliases the duplicate."""
    from rayenc import data as data_mod

    table = data_mod.make_table(3000, mean_tokens=40.0)
    blob, manifest = blocks.encode_block(table)
    byname = {c["name"]: c for c in manifest["chunks"]}
    assert byname["n_tok"]["encoding"] == "ALIAS"
    assert byname["n_tok"]["alias"] == "tokens#lengths"
    out = blocks.decode_block(blob, manifest)
    assert out.equals(table)
    # column-pruned decode of just the aliased column still works
    just = blocks.decode_block(blob, manifest, columns=["n_tok"])
    assert just.column("n_tok").to_pylist() == table.column("n_tok").to_pylist()


def test_exotic_fixed_types_roundtrip():
    # same-width unsigned ints travel through signed storage bit-identically
    t = pa.table(
        {
            "i8": pa.array([1, -2, None], pa.int8()),
            "u8": pa.array([0, 255, None], pa.uint8()),
            "u16": pa.array([1, 65535, 2], pa.uint16()),
            "u32": pa.array([1, 2**32 - 1, 2], pa.uint32()),
            "u64": pa.array([1, 2**63, 2**64 - 1], pa.uint64()),
            "f16": pa.array(np.array([1.5, 2.5, 3.5], np.float16)),
            "date": pa.array([1, 2, 3], pa.date32()),
            "t32": pa.array([1, 2, 3], pa.time32("ms")),
            "t64": pa.array([1, 2, 3], pa.time64("us")),
            "dur": pa.array([1, 2, 3], pa.duration("ms")),
        }
    )
    blob, m = blocks.encode_block(t)
    back = blocks.decode_block(blob, m)
    for c in t.column_names:
        assert t.column(c).combine_chunks().equals(back.column(c).combine_chunks()), c


def test_dictionary_typed_columns_roundtrip():
    for arr in (
        pa.array(["a", "b", "a", None, "c"] * 100).dictionary_encode(),
        pa.array([1, 2, 1, None, 3] * 100).dictionary_encode(),
    ):
        t = pa.table({"d": arr})
        blob, m = blocks.encode_block(t)
        back = blocks.decode_block(blob, m)
        assert t.column("d").combine_chunks().equals(back.column("d").combine_chunks())


def test_dictionary_strings_decode_block():
    """dictionary_strings=True keeps flat RLE_DICTIONARY strings encoded as
    DictionaryArray (DictionaryValuesReader.java:49-55 semantics: readers see
    ids + dictionary, not materialized values)."""
    import pyarrow.compute as pc

    rng = np.random.default_rng(7)
    n = 20000
    s = np.array(["alpha", "beta", "gamma", "delta"])[rng.integers(0, 4, n)]
    t = pa.table({"s": pa.array(s), "x": pa.array(np.arange(n, dtype=np.int64))})
    blob, man = blocks.encode_block(t)
    ent = next(e for e in man["chunks"] if e["name"] == "s")
    assert ent["encoding"] == "RLE_DICTIONARY"

    out = blocks.decode_block(blob, man, dictionary_strings=True)
    f = out.schema.field("s")
    assert pa.types.is_dictionary(f.type)
    assert out.column("s").cast(pa.string()).combine_chunks().equals(
        t.column("s").combine_chunks()
    )
    assert out.column("x").equals(t.column("x"))

    # predicate evaluation happens on the NDV-sized dictionary, verdicts
    # gathered by id — row counts must match materialized evaluation
    pred = P.normalize([("s", "==", "beta")])
    got = P.filter_table(pred, out)
    want = int(pc.sum(pc.equal(t.column("s"), "beta")).as_py())
    assert got.num_rows == want

    # composes with the two-phase predicate read: exactly the matching rows
    out2 = blocks.decode_block(
        blob, man, predicate=[("x", ">=", 15000)], dictionary_strings=True
    )
    assert pa.types.is_dictionary(out2.schema.field("s").type)
    want2 = t.filter(pc.greater_equal(t.column("x"), 15000))
    assert out2.num_rows == want2.num_rows == 5000
    assert out2.column("s").cast(pa.string()).equals(want2.column("s"))
    assert out2.column("x").equals(want2.column("x"))


def test_dictionary_strings_ineligible_falls_back():
    """Nullable or non-dictionary string chunks materialize as before."""
    t = pa.table({
        "s": pa.array(["a", None, "b", "a"] * 100),      # nullable -> fallback
        "u": pa.array([f"u{i}" for i in range(400)]),    # high NDV -> not dict
    })
    blob, man = blocks.encode_block(t)
    out = blocks.decode_block(blob, man, dictionary_strings=True)
    assert out.schema.field("s").type == pa.string()
    assert out.schema.field("u").type == pa.string()
    assert out.equals(t)


def test_nan_pages_unbounded_and_kept():
    # pages holding NaN get (None, None) bounds (JSON-safe, parquet-mr NaN
    # rule) and the page bounds must keep them for range predicates
    cfg = selector.EncodeConfig(page_rows=4)
    vals = np.array([1.0, 2.0, np.nan, 4.0] + [10.0, 11.0, 12.0, 13.0], np.float64)
    table = pa.table({"x": pa.array(vals, pa.float64())})
    blob, manifest = blocks.encode_block(table, cfg)
    entry = next(c for c in manifest["chunks"] if c["name"] == "x")
    pages = entry["pages"]
    assert len(pages) == 2
    assert pages[0]["min"] is None and pages[0]["max"] is None
    assert pages[1]["min"] == 10.0 and pages[1]["max"] == 13.0
    assert P.page_rows(P.Leaf("x", ">", 3.0), blocks._page_granules(entry)) == [(0, 4), (4, 8)]
    assert P.page_rows(P.Leaf("x", ">", 20.0), blocks._page_granules(entry)) == [(0, 4)]
    out = blocks.decode_block(blob, manifest, predicate=[("x", ">", 3.0)])
    assert out["x"].to_pylist() == [4.0, 10.0, 11.0, 12.0, 13.0]


def test_devnull_write_only_columns():
    # DevNullValuesWriter semantics: values consumed, zero bytes written,
    # full decode silently omits the column, explicit selection errors
    cfg = selector.EncodeConfig(column_encodings={"noise": "DEVNULL"})
    table = pa.table(
        {
            "k": pa.array(np.arange(100, dtype=np.int64)),
            "noise": pa.array([f"junk{i}" for i in range(100)]),
        }
    )
    blob, manifest = blocks.encode_block(table, cfg)
    entry = next(c for c in manifest["chunks"] if c["name"] == "noise")
    assert entry["encoding"] == "DEVNULL" and entry["pages"] == []
    assert entry["encoded_bytes"] == 0
    out = blocks.decode_block(blob, manifest)
    assert out.column_names == ["k"]
    assert out["k"].to_pylist() == list(range(100))
    with pytest.raises(NotImplementedError):
        blocks.decode_block(blob, manifest, columns=["noise"])
    # list columns: the top-level name covers the shredded leaves
    cfg2 = selector.EncodeConfig(column_encodings={"tokens": "DEVNULL"})
    t2 = pa.table(
        {
            "k": pa.array([1, 2], pa.int64()),
            "tokens": pa.array([[1, 2], [3]], pa.list_(pa.int32())),
        }
    )
    blob2, man2 = blocks.encode_block(t2, cfg2)
    assert all(
        c["encoding"] == "DEVNULL"
        for c in man2["chunks"]
        if c["name"].startswith("tokens")
    )
    assert blocks.decode_block(blob2, man2).column_names == ["k"]


def test_devnull_never_aliased():
    # n_tok's content equals tokens#lengths; with tokens devnulled, n_tok
    # must encode for real instead of aliasing the page-less chunk
    cfg = selector.EncodeConfig(column_encodings={"tokens": "DEVNULL"})
    table = pa.table(
        {
            "tokens": pa.array([[1, 2], [3], [4, 5, 6]], pa.list_(pa.int32())),
            "n_tok": pa.array([2, 1, 3], pa.int32()),
        }
    )
    blob, man = blocks.encode_block(table, cfg)
    nt = next(c for c in man["chunks"] if c["name"] == "n_tok")
    assert nt["encoding"] not in ("ALIAS", "DEVNULL")
    out = blocks.decode_block(blob, man)
    assert out.column_names == ["n_tok"]
    assert out["n_tok"].to_pylist() == [2, 1, 3]


def test_two_phase_selection_matches_exhaustive_on_bench_table():
    # the sampled selector must pick the same encodings and produce
    # byte-identical blobs on the headline table; exhaustive_selection=True
    # restores the plan-everything behavior for guaranteed min bytes
    import numpy as np

    from rayenc.selector import EncodeConfig

    rng = np.random.default_rng(0)
    v = np.concatenate(
        [np.arange(200_000, dtype=np.int64),
         rng.integers(0, 2**40, 200_000)]
    )
    t = pa.table({"x": pa.array(v),
                  "s": pa.array([f"k{i%40:02d}" for i in range(400_000)])})
    b1, m1 = blocks.encode_block(t, EncodeConfig(exhaustive_selection=True))
    b2, m2 = blocks.encode_block(t, EncodeConfig())
    assert [c["encoding"] for c in m1["chunks"]] == [
        c["encoding"] for c in m2["chunks"]
    ]
    assert b1 == b2


def test_two_phase_selection_bounded_on_heterogeneous_blocks():
    # adversarially heterogeneous columns (distribution changes mid-block):
    # the sampled selector may pick a near-miss encoding, but its exact
    # emitted size must stay within 30% of the exhaustive minimum
    import numpy as np

    from rayenc.selector import EncodeConfig

    rng = np.random.default_rng(7)
    shapes = [
        np.concatenate([np.arange(300_000, dtype=np.int64),
                        rng.integers(0, 2**45, 300_000)]),
        np.concatenate([np.repeat(rng.integers(0, 50, 100), 3000),
                        rng.integers(-2**60, 2**60, 300_000)]),
        np.concatenate([rng.integers(0, 8, 300_000),
                        np.cumsum(rng.integers(0, 3, 300_000))]),
    ]
    for v in shapes:
        t = pa.table({"x": pa.array(v)})
        b_ex, _ = blocks.encode_block(t, EncodeConfig(exhaustive_selection=True))
        b_s, _ = blocks.encode_block(t, EncodeConfig())
        assert len(b_s) <= 1.3 * len(b_ex), (len(b_s), len(b_ex))


def _chunks(manifest):
    return {c["name"]: c for c in manifest["chunks"]}


def test_compressed_ranking_flips_token_ids_to_byte_stream_split():
    # under zstd the sampled candidates rank by the bytes the codec leaves:
    # the token ids' byte planes beat their RLE-hybrid dictionary ids
    from rayenc import data
    from rayenc.selector import EncodeConfig

    t = data.make_table(2000)
    raw_blob, raw_man = blocks.encode_block(t, EncodeConfig())
    z_blob, z_man = blocks.encode_block(t, EncodeConfig(compression="zstd"))
    dict_blob, _ = blocks.encode_block(
        t, EncodeConfig(compression="zstd", column_encodings={"tokens#values": "RLE_DICTIONARY"})
    )
    raw, z = _chunks(raw_man)["tokens#values"], _chunks(z_man)["tokens#values"]
    assert len(raw["pages"]) > 4
    assert raw["encoding"] == "RLE_DICTIONARY"
    assert z["encoding"] == "BYTE_STREAM_SPLIT"
    assert len(z_blob) < len(dict_blob)
    assert blocks.decode_block(z_blob, z_man).equals(t)
    # the estimate it won on sits beside the exact compressed lengths
    exact = sum(p["length"] for p in z["pages"])
    assert 0.8 * exact < z["est_bytes"] < 1.25 * exact
    # uncompressed manifests carry no estimate
    assert not any("est_bytes" in c for c in raw_man["chunks"])


def test_compressed_ranking_plans_only_the_winner_over_every_page(monkeypatch):
    from rayenc import data
    from rayenc.schema import shred
    from rayenc.selector import EncodeConfig

    t = data.make_table(2000)
    (_, col) = shred("tokens", t["tokens"])
    real = blocks._plan_candidate
    # with a page codec and without one (ranked by the bytes it would store
    # as emitted), the one sampled ranking
    for cfg, winner in ((EncodeConfig(compression="zstd"), "BYTE_STREAM_SPLIT"),
                        (EncodeConfig(), "RLE_DICTIONARY")):
        ranges = blocks.page_ranges(col, cfg)
        sample = [ranges[0], ranges[len(ranges) // 2], ranges[-1]]
        beyond = []

        def plan(c, e, r, *a, **k):
            if r != sample:
                beyond.append((e, r))
            return real(c, e, r, *a, **k)

        monkeypatch.setattr(blocks, "_plan_candidate", plan)
        best = blocks.choose_encoding(col, stats.compute(col), ranges, cfg)
        # the winner alone is planned past the sample, over the other pages
        assert [e for e, _ in beyond] == [winner] and best.encoding == winner
        assert sorted(beyond[0][1] + sample) == ranges
        aux, pages = best.emit()
        want = real(col, winner, ranges, cfg).emit()
        assert (aux, pages) == want
        assert (best.est_bytes is None) == (cfg.compression is None)


def test_compressed_ranking_compresses_each_winner_page_once(monkeypatch):
    # encode_chunk keeps the compressed bytes the ranking made of the
    # winner's sample pages and aux page: every page and the aux page of the
    # chunk are compressed once, and the blob is the one of a plain emit
    import io

    from rayenc import data
    from rayenc.schema import shred
    from rayenc.selector import EncodeConfig

    (_, col) = shred("tokens", data.make_table(2000)["tokens"])
    cfg = EncodeConfig(compression="zstd", column_encodings={})
    codec = pa.Codec("zstd")
    seen = []

    class Counting:
        def compress(self, b):
            seen.append(bytes(b))
            return codec.compress(b)

    monkeypatch.setattr(blocks, "_compressor", lambda config: Counting())
    out = io.BytesIO()
    entry = blocks.encode_chunk(col, out, cfg)
    ranges = blocks.page_ranges(col, cfg)
    assert len(entry["pages"]) == len(ranges) > 4
    best = blocks._plan_candidate(col, entry["encoding"], ranges, cfg, {})
    aux, pages = best.emit()
    for page in pages + ([aux] if aux is not None else []):
        assert seen.count(page) == 1
    blob = out.getvalue()
    for p, page in zip(entry["pages"], pages):
        assert blob[p["offset"] : p["offset"] + p["length"]] == codec.compress(page).to_pybytes()


def test_compressed_ranking_leaves_small_chunks_alone():
    # a chunk of <= 4 pages ranks by encoded size under a codec too, with
    # the same candidates: the token ids stay dictionary ids (they flip at
    # 17 pages), and random ints stay PLAIN
    from rayenc import data
    from rayenc.schema import shred
    from rayenc.selector import EncodeConfig

    rng = np.random.default_rng(3)
    (_, tokens) = shred("tokens", data.make_table(400)["tokens"])
    (rand,) = shred("x", pa.chunked_array([rng.integers(-2**62, 2**62, 60_000)]))
    for col, want in ((tokens, "RLE_DICTIONARY"), (rand, "PLAIN")):
        ranges = blocks.page_ranges(col, EncodeConfig())
        assert 1 < len(ranges) <= 4
        st = stats.compute(col)
        a = blocks.choose_encoding(col, st, ranges, EncodeConfig())
        b = blocks.choose_encoding(col, st, ranges, EncodeConfig(compression="zstd"))
        assert a.encoding == b.encoding == want
        assert a.emit() == b.emit() and b.est_bytes is None
