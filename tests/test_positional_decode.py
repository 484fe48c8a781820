"""Positional decode: ``codecs.decode_pages(..., at=p)`` returns exactly
``decode_pages(...)`` taken at the ascending positions ``p``, for every
(encoding, physical type) pair it decodes, and the container's filtered
reads that use it return what pyarrow does."""

import contextlib
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayenc import blocks, codecs
from rayenc.codecs import dictionary, fsst, rle_hybrid
from rayenc.selector import EncodeConfig

# every pair decode_pages decodes, forced on a container chunk
PAIRS = [
    ("INT32", e) for e in ("PLAIN", "BYTE_STREAM_SPLIT", "DELTA_BINARY_PACKED", "RLE_FOR", "RLE_DICTIONARY")
] + [
    ("INT64", e) for e in ("PLAIN", "BYTE_STREAM_SPLIT", "DELTA_BINARY_PACKED", "RLE_FOR", "RLE_DICTIONARY")
] + [
    (t, e) for t in ("FLOAT", "DOUBLE") for e in ("PLAIN", "BYTE_STREAM_SPLIT", "ALP", "RLE_DICTIONARY")
] + [
    ("BINARY", e)
    for e in ("PLAIN", "DELTA_LENGTH_BYTE_ARRAY", "DELTA_BYTE_ARRAY", "RLE_DICTIONARY", "FSST")
] + [
    ("FIXED_LEN_BYTE_ARRAY", e) for e in ("PLAIN", "BYTE_STREAM_SPLIT", "DELTA_BYTE_ARRAY", "RLE_DICTIONARY")
] + [("BOOLEAN", "PLAIN"), ("BOOLEAN", "RLE")]


def _values(ptype: str, n: int, bits: int, runs: bool, rng) -> pa.Array:
    """``n`` values of ``ptype`` spanning ``bits`` bits (the hybrid width of
    RLE_FOR), run-structured or not."""
    k = rng.integers(0, 1 << bits, n, dtype=np.uint64).astype(np.int64)
    if runs:
        k = np.repeat(k, rng.integers(1, 20, n))[:n]
    if ptype == "INT32":
        return pa.array((k - (1 << 31) * (bits == 32)).astype(np.int32))
    if ptype == "INT64":
        return pa.array(k + 10**15)
    if ptype == "FLOAT":
        return pa.array(k.astype(np.float32) / 4)
    if ptype == "DOUBLE":  # two decimals, and some values ALP cannot hold
        v = k / 100.0
        v[rng.random(n) < 0.05] = np.pi
        return pa.array(v)
    if ptype == "BINARY":
        return pa.array([f"s{x % 997}" * int(x % 3) for x in k.tolist()])
    if ptype == "FIXED_LEN_BYTE_ARRAY":
        return pa.array([int(x % 65536).to_bytes(2, "little") + b"x" for x in k.tolist()], pa.binary(3))
    return pa.array(k % 2 == 1)


def _chunk(ptype: str, encoding: str, values: pa.Array, page_rows: int):
    """(pages, dictionary, width, entry, aux bytes, page bytes) of ``values``
    encoded as one forced container chunk. The container writes no
    dictionary for FIXED_LEN_BYTE_ARRAY: those pages are built as a
    Parquet writer's, with no container chunk."""
    if (ptype, encoding) == ("FIXED_LEN_BYTE_ARRAY", "RLE_DICTIONARY"):
        ids, dic = dictionary.factorize(values)
        rows = np.frombuffer(dic.buffers()[1], np.uint8).reshape(len(dic), 3)
        pages = [(dictionary.encode_ids(ids[a : a + page_rows], len(dic)), len(ids[a : a + page_rows]))
                 for a in range(0, len(ids), page_rows)]
        return pages, rows, 3, None, None, None
    blob, manifest = blocks.encode_block(
        pa.table({"c": values}), EncodeConfig(page_rows=page_rows, column_encodings={"c": encoding})
    )
    (entry,) = manifest["chunks"]
    assert (entry["ptype"], entry["encoding"]) == (ptype, encoding)
    aux_buf, bufs, _ = blocks._read_chunk(blob, entry, None, None)
    pages = [(b, p["num_values"]) for b, p in zip(bufs, entry["pages"])]
    width = entry.get("flba_width", 0)
    dic = None
    if encoding == "FSST":
        dic = fsst.SymbolTable.deserialize(aux_buf)[0]
    elif entry["aux"]:
        aux = entry["aux"]
        dic = codecs.decode_pages(
            blocks._AUX_ENCODING[aux["kind"]], ptype, [(aux_buf, aux["count"])], width=width
        )
    return pages, dic, width, entry, aux_buf, bufs


def _taken(ptype, values, at):
    if ptype == "BINARY":
        offsets, data = values
        return [data[offsets[i] : offsets[i + 1]].tobytes() for i in at]
    return np.asarray(values)[at].tolist()


def _listed(ptype, values):
    if ptype == "BINARY":
        offsets, data = values
        return [data[offsets[i] : offsets[i + 1]].tobytes() for i in range(len(offsets) - 1)]
    return np.asarray(values).tolist()


@st.composite
def _positions(draw, n: int, ends: list):
    """Ascending positions in ``range(n)``: none, the first, the last, all,
    a run across a page boundary, or any subset."""
    kind = draw(st.sampled_from(["none", "first", "last", "all", "boundary", "any"]))
    if kind == "none" or n == 0:
        return []
    if kind == "first":
        return [0]
    if kind == "last":
        return [n - 1]
    if kind == "all":
        return list(range(n))
    if kind == "boundary" and len(ends) > 1:
        cut = draw(st.sampled_from(ends[:-1]))
        return list(range(max(0, cut - 3), min(n, cut + 3)))
    return sorted(draw(st.sets(st.integers(0, n - 1), max_size=40)))


@pytest.mark.parametrize("ptype, encoding", PAIRS, ids=[f"{t}-{e}" for t, e in PAIRS])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_decode_at_is_decode_taken(ptype, encoding, data):
    n = data.draw(st.integers(1, 700))
    bits = data.draw(st.integers(0, 32))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = _values(ptype, n, bits, data.draw(st.booleans()), rng)
    page_rows = data.draw(st.sampled_from([50, 173, 1000]))
    pages, dic, width, entry, aux_buf, bufs = _chunk(ptype, encoding, values, page_rows)
    whole = codecs.decode_pages(encoding, ptype, pages, dic, width)
    ends = np.cumsum([k for _, k in pages]).tolist()
    at = np.array(data.draw(_positions(n, ends)), np.int64)
    got = codecs.decode_pages(encoding, ptype, pages, dic, width, at)
    assert _listed(ptype, got) == _taken(ptype, whole, at)
    if entry is not None and encoding != "FSST":  # the container frames FSST itself
        # the container's positional read: the ids first, then the
        # dictionary values of those ids only
        col = blocks._decode_pages(entry, aux_buf, bufs, at=at)
        assert _listed(ptype, col.values) == _taken(ptype, whole, at)


@contextlib.contextmanager
def _walk(name):
    """Force the python or the array run walk through their thresholds."""
    big = 1 << 62
    lo, dens = (big, big) if name == "python" else (0, 0)
    with mock.patch.multiple(rle_hybrid, VECTOR_MIN_BYTES=lo, VECTOR_MIN_DENSITY=dens):
        yield


_RUN_LENGTHS = st.sampled_from(list(range(1, 21)) + list(range(8, 15)) * 3 + [600])


@st.composite
def _stream(draw):
    """A run-structured hybrid stream of width 0-32."""
    width = draw(st.integers(0, 32))
    value = st.integers(0, (1 << width) - 1)
    runs = draw(st.lists(st.tuples(value, _RUN_LENGTHS), max_size=60))
    return np.array([v for v, k in runs for _ in range(k)][:3000], np.uint64), width


@given(case=_stream(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_hybrid_decode_at_is_decode_taken(case, data):
    values, width = case
    buf = rle_hybrid.encode(values, width)
    at = np.array(data.draw(_positions(len(values), [len(values)])), np.int64)
    span = data.draw(st.sampled_from([1, rle_hybrid.PICK_SPAN, 1 << 30]))  # fill, either, pick
    for walk in ("python", "vector"):
        with _walk(walk), mock.patch.object(rle_hybrid, "PICK_SPAN", span):
            got = rle_hybrid.decode(buf, len(values), width, at=at)
            assert got.tolist() == values.astype(np.uint32)[at].tolist()


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_nullable_filtered_reads_match_pyarrow(data):
    # sparse reads of nullable chunks (value positions through the
    # validity) in every encoding the selector picks for them
    n = data.draw(st.integers(20, 3000))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    nulls = rng.random(n) < data.draw(st.sampled_from([0.0, 0.1, 0.9]))
    k = rng.integers(0, 1 << data.draw(st.integers(1, 20)), n)
    table = pa.table({
        "id": np.arange(n),
        "i": pa.array(k, mask=nulls),
        "d": pa.array(k / 100.0, mask=nulls),
        "s": pa.array([f"v{x % 37}" for x in k.tolist()], mask=nulls),
        "l": pa.array([list(range(x % 4)) if x % 5 else None for x in k.tolist()], pa.list_(pa.int64())),
    })
    page_rows = data.draw(st.sampled_from([64, 500, 5000]))
    blob, manifest = blocks.encode_block(table, EncodeConfig(page_rows=page_rows))
    rows = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=6)))
    got = blocks.decode_block(blob, manifest, predicate=[("id", "in", rows)])
    assert got.equals(table.filter(pc.is_in(table["id"], pa.array(rows))))
