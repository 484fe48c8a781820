"""One page codec layer: both file formats choose encodings through
``blocks.choose_encoding`` and decode value pages through
``codecs.decode_pages``. Each Parquet-legal (encoding, physical type) pair is
forced on a nullable multi-page column and read back by the container
decoder, rayenc's Parquet reader and pyarrow."""

import datetime

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayenc import blocks, codecs, parquet_write, selector
from rayenc.codecs import fsst
from rayenc.parquet_compat import ENCODING_ID, read_table_conformance
from rayenc.parquet_read_enc import EncryptedFile
from rayenc.schema import PhysicalColumn
from rayenc.selector import EncodeConfig

N = 450
PAGE_ROWS = 100


def _column(kind: str) -> pa.Array:
    """``N`` values of one physical type, few distinct (so the dictionary
    applies), null every 7th row and on all of rows 100-199: that whole
    Parquet page holds no values."""
    rng = np.random.default_rng(len(kind))
    k = rng.integers(0, 23, N)
    vals = {
        "INT32": lambda: pa.array(k * 1009 - 5000, pa.int32()),
        "INT64": lambda: pa.array(k * 10**12 + 7, pa.int64()),
        "FLOAT": lambda: pa.array(k.astype(np.float32) / 8),
        "DOUBLE": lambda: pa.array(k / 3.0),
        "BOOLEAN": lambda: pa.array(k % 3 == 0),
        "BINARY": lambda: pa.array([f"key-{v:03d}" * (v % 4) for v in k], pa.string()),
        "FIXED_LEN_BYTE_ARRAY": lambda: pa.array(
            [bytes([v, 255 - v, 7, v, 0]) for v in k], pa.binary(5)
        ),
    }[kind]()
    null = (np.arange(N) % 7 == 3) | ((np.arange(N) >= 100) & (np.arange(N) < 200))
    return pa.array(vals.to_pylist(), vals.type, mask=null)


PAIRS = [
    *[(t, e) for t in ("INT32", "INT64") for e in
      ("PLAIN", "RLE_DICTIONARY", "DELTA_BINARY_PACKED", "BYTE_STREAM_SPLIT")],
    *[(t, e) for t in ("FLOAT", "DOUBLE") for e in
      ("PLAIN", "RLE_DICTIONARY", "BYTE_STREAM_SPLIT")],
    ("BOOLEAN", "PLAIN"),
    ("BOOLEAN", "RLE"),
    *[("BINARY", e) for e in
      ("PLAIN", "RLE_DICTIONARY", "DELTA_LENGTH_BYTE_ARRAY", "DELTA_BYTE_ARRAY")],
    *[("FIXED_LEN_BYTE_ARRAY", e) for e in
      ("PLAIN", "BYTE_STREAM_SPLIT", "DELTA_BYTE_ARRAY")],
]


@pytest.mark.parametrize("ptype,encoding", PAIRS, ids=[f"{t}-{e}" for t, e in PAIRS])
@pytest.mark.parametrize("version", ["1.0", "2.0"])
def test_forced_encoding_reads_back_in_both_formats(tmp_path, ptype, encoding, version):
    t = pa.table({"c": _column(ptype)})
    cfg = EncodeConfig(page_rows=PAGE_ROWS, column_encodings={"c": encoding},
                       parquet_page_version=version)
    blob, manifest = blocks.encode_block(t, cfg)
    assert manifest["chunks"][0]["encoding"] == encoding
    assert len(manifest["chunks"][0]["pages"]) > 1
    assert blocks.decode_block(blob, manifest).equals(t)

    path = str(tmp_path / "c.parquet")
    parquet_write.write_table(t, path, cfg)
    assert ENCODING_ID[encoding] in EncryptedFile(path).chunk_meta(0, 0)[2]
    assert pq.ParquetFile(path).metadata.row_group(0).column(0).statistics.null_count
    assert read_table_conformance(path).equals(t)
    assert pq.read_table(path).equals(t)


def test_int96_pages_read_back(tmp_path):
    base = datetime.datetime(2020, 1, 1)
    ts = [base + datetime.timedelta(seconds=37 * i) for i in range(N)]
    t = pa.table({"ts": pa.array(ts, pa.timestamp("ns"), mask=np.arange(N) % 5 == 0)})
    cfg = EncodeConfig(page_rows=PAGE_ROWS, int96_timestamps=True)
    path = str(tmp_path / "i96.parquet")
    parquet_write.write_table(t, path, cfg)
    assert pq.ParquetFile(path).schema.column(0).physical_type == "INT96"
    assert read_table_conformance(path).equals(t)
    assert pq.read_table(path).equals(t)
    blob, manifest = blocks.encode_block(t, cfg)
    assert blocks.decode_block(blob, manifest).equals(t)


def test_pyarrow_dictionary_file_reads_back(tmp_path):
    """pyarrow's format-1.0 dictionary pages carry PLAIN_DICTIONARY (id 2),
    the deprecated alias of RLE_DICTIONARY."""
    t = pa.table({"s": _column("BINARY"), "i": _column("INT64"), "f": _column("DOUBLE")})
    path = str(tmp_path / "dict.parquet")
    pq.write_table(t, path, version="1.0", use_dictionary=True, data_page_size=64,
                   compression="snappy")
    for i in range(3):
        assert ENCODING_ID["PLAIN_DICTIONARY"] in EncryptedFile(path).chunk_meta(0, i)[2]
    assert read_table_conformance(path).equals(t)
    blob, manifest = blocks.encode_block(t, EncodeConfig(page_rows=PAGE_ROWS))
    assert blocks.decode_block(blob, manifest).equals(t)


def test_decode_pages_rejects_undecodable_pairs():
    with pytest.raises(ValueError, match="ALP pages of INT64"):
        codecs.decode_pages("ALP", "INT64", [(b"", 0)])
    with pytest.raises(ValueError, match="RLE pages of INT32"):
        codecs.decode_pages("RLE", "INT32", [(b"", 0)])


# ------------------------------------------------- forced encodings

def _write(fmt: str, t: pa.Table, cfg: EncodeConfig, path: str) -> list:
    """Write ``t`` in one format; -> the encodings each column got."""
    if fmt == "container":
        blob, manifest = blocks.encode_block(t, cfg)
        assert blocks.decode_block(blob, manifest).equals(t)
        return [c["encoding"] for c in manifest["chunks"]]
    parquet_write.write_table(t, path, cfg)
    assert read_table_conformance(path).equals(t)
    f = EncryptedFile(path)
    return [sorted(f.chunk_meta(0, i)[2]) for i in range(t.num_columns)]


def _table() -> pa.Table:
    return pa.table({
        "x": pa.array(np.arange(3000, dtype=np.int64) % 97),
        "s": pa.array([f"k{i % 13}" for i in range(3000)]),
        "fx": pa.array([bytes([i % 11] * 4) for i in range(3000)], pa.binary(4)),
    })


@pytest.mark.parametrize("fmt", ["container", "parquet"])
@pytest.mark.parametrize("col,enc", [
    ("x", "ALP"), ("s", "DELTA_BINARY_PACKED"), ("fx", "RLE_DICTIONARY"),
    ("x", "FSST"), ("fx", "FSST"),
])
def test_inapplicable_override_falls_back_in_both_formats(tmp_path, fmt, col, enc):
    t = _table()
    auto = _write(fmt, t, EncodeConfig(), str(tmp_path / "auto.parquet"))
    forced = _write(fmt, t, EncodeConfig(column_encodings={col: enc}),
                    str(tmp_path / "forced.parquet"))
    assert forced == auto


@pytest.mark.parametrize("fmt", ["container", "parquet"])
def test_unknown_override_names_the_column(tmp_path, fmt):
    cfg = EncodeConfig(column_encodings={"s": "BOGUS"})
    with pytest.raises(ValueError, match="'BOGUS'.*'s'"):
        _write(fmt, _table(), cfg, str(tmp_path / "bogus.parquet"))


_INT32 = st.integers(-(2**31), 2**31 - 1)
_PAGE_VALUES = {
    "INT32": st.lists(_INT32 | st.integers(-3, 3)).map(lambda v: np.array(v, np.int32)),
    "INT64": st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3)).map(
        lambda v: np.array(v, np.int64)),
    "FLOAT": st.lists(st.floats(width=32) | st.sampled_from([0.5, 1.25])).map(
        lambda v: np.array(v, np.float32)),
    "DOUBLE": st.lists(st.floats() | st.sampled_from([0.5, 1.25, 10.01])).map(
        lambda v: np.array(v, np.float64)),
    "BOOLEAN": st.lists(st.booleans()).map(lambda v: np.array(v, bool)),
    "BINARY": st.lists(st.binary(max_size=12) | st.sampled_from([b"", b"ab", b"abc"])),
    "FIXED_LEN_BYTE_ARRAY": st.integers(1, 4).flatmap(
        lambda w: st.lists(st.binary(min_size=w, max_size=w)).map(
            lambda v: np.frombuffer(b"".join(v), np.uint8).reshape(len(v), w))),
}


def _values_key(ptype, values):
    """Comparable bytes of a chunk's values (floats by bit pattern)."""
    if ptype == "BINARY":
        offsets, data = values
        return (offsets - offsets[0]).tobytes(), np.asarray(data, np.uint8).tobytes()
    return np.ascontiguousarray(values).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ptype=st.sampled_from(sorted(_PAGE_VALUES)))
def test_every_page_plan_is_exact_and_decodes(data, ptype):
    # every (encoding, physical type) pair _plan_candidate plans: its size is
    # the bytes it emits (FSST's is an estimate) and codecs.decode_pages reads
    # its pages back, empty and 1-value pages included
    vals = data.draw(_PAGE_VALUES[ptype])
    n = len(vals)
    if ptype == "BINARY":
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum([len(v) for v in vals], out=offsets[1:])
        vals = (offsets, np.frombuffer(b"".join(vals), np.uint8))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)) + [0, min(1, n), n])
    ranges = list(zip(cuts[:-1], cuts[1:]))
    col = PhysicalColumn("c", ptype, vals)
    width = vals.shape[1] if ptype == "FIXED_LEN_BYTE_ARRAY" else 0
    planned = set()
    for enc in selector.ENCODINGS:
        cand = blocks._plan_candidate(col, enc, ranges, EncodeConfig(), {})
        if cand is None:
            continue
        planned.add(enc)
        aux, pages = cand.emit()
        assert len(pages) == len(ranges)
        if not cand.estimated:
            assert cand.size == (len(aux) if aux else 0) + sum(len(p) for p in pages), enc
        dictionary = None
        if enc == "FSST":
            dictionary = fsst.SymbolTable.deserialize(aux)[0]
        elif aux is not None:
            kind = blocks._AUX_ENCODING[cand.aux_meta["kind"]]
            dictionary = codecs.decode_pages(kind, ptype, [(aux, cand.aux_meta["count"])], width=width)
        got = codecs.decode_pages(
            enc, ptype, [(p, b - a) for p, (a, b) in zip(pages, ranges)], dictionary, width)
        assert _values_key(ptype, got) == _values_key(ptype, vals), enc
    assert "PLAIN" in planned
    if ptype == "FIXED_LEN_BYTE_ARRAY":
        assert {"DELTA_BYTE_ARRAY", "BYTE_STREAM_SPLIT"} <= planned
