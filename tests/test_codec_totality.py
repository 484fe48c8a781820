"""Decoder totality: arbitrary bytes fed to the legacy page decompressors
and the RLE/bit-packed hybrid decoder must either decode or raise a clean
``ValueError`` — never an unnamed exception type and never a hang.

This is the contract the readers rely on (``rayenc/parquet_read_enc.py``
surfaces decode failures per-page with file/column context, and
``decode_dataset``'s ``bad_block_threshold`` counts them); a raw
``IndexError``/``struct.error`` escaping a codec would bypass both.  The
reference decodes these formats through aircompressor / Hadoop native
codecs which enforce the same fail-closed behavior
(parquet-hadoop/.../codec/NonBlockedDecompressorStream.java).
"""

import contextlib
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayenc import codecs
from rayenc.codecs import delta_bp, fsst, plain, rle_hybrid
from rayenc.codecs.dictionary import binary_parts
from rayenc.codecs.lz4hadoop import Lz4HadoopCodec, _lz4_block_decompress
from rayenc.codecs.lzo import LzoHadoopCodec, lzo1x_decompress

_garbage = st.binary(min_size=0, max_size=512)
_sizes = st.integers(min_value=0, max_value=1 << 20)


@settings(max_examples=300, deadline=1000)
@given(_garbage)
def test_lzo1x_decompress_total(data):
    try:
        out = lzo1x_decompress(data)
    except ValueError:
        return
    assert isinstance(out, bytes)


@settings(max_examples=300, deadline=1000)
@given(_garbage, _sizes)
def test_lzo_hadoop_page_total(data, size):
    try:
        out = LzoHadoopCodec().decompress(data, size)
    except ValueError:
        return
    assert isinstance(out, bytes) and len(out) == size


@settings(max_examples=300, deadline=1000)
@given(_garbage, _sizes)
def test_lz4_hadoop_page_total(data, size):
    try:
        out = Lz4HadoopCodec().decompress(data, size)
    except ValueError:
        return
    # either dialect may accept; the Hadoop walk enforces the exact size,
    # the raw fallback trusts Arrow's stated size
    assert isinstance(out, bytes)


@settings(max_examples=300, deadline=1000)
@given(_garbage)
def test_lz4_pure_block_total(data):
    try:
        out = _lz4_block_decompress(data)
    except (ValueError, IndexError):
        # IndexError is this internal helper's documented truncation signal;
        # both are caught at its only call site (lz4hadoop.py _try_hadoop)
        return
    assert isinstance(out, bytes)


@settings(max_examples=300, deadline=1000)
@given(_garbage, st.integers(0, 2000), st.integers(0, 32))
def test_rle_hybrid_decode_total(data, n, width):
    try:
        out = rle_hybrid.decode(data, n, width)
    except rle_hybrid.RleHybridError:
        return
    assert len(out) == n


@settings(max_examples=300, deadline=1000)
@given(_garbage, st.integers(0, 2000), st.integers(0, 32))
def test_rle_hybrid_decode_framed_total(data, n, width):
    try:
        out, used = rle_hybrid.decode_framed(data, n, width)
    except rle_hybrid.RleHybridError:
        return
    assert len(out) == n and used <= len(data)


@settings(max_examples=300, deadline=1000)
@given(st.binary(max_size=64), st.integers(0, 4096))
def test_plain_decode_binary_total(data, n):
    try:
        offsets, values = plain.decode_binary(data, n)
    except ValueError:
        return
    assert len(offsets) == n + 1 and offsets[-1] == len(values) <= len(data) - 4 * n


@pytest.mark.parametrize(
    "buf, n",
    [
        (b"\x00" * 7, 2),  # second length prefix cut off
        (b"\x05\x00\x00\x00abc", 1),  # value runs past the body
        (b"\xff\xff\xff\xff", 1),  # 4 GiB length on a 4-byte body
        (b"", 1 << 40),  # value count the body cannot hold
    ],
)
def test_plain_decode_binary_short_body_raises(buf, n):
    with pytest.raises(plain.PlainBinaryError):
        plain.decode_binary(buf, n)


@pytest.mark.parametrize(
    "buf, n, width",
    [
        (bytes([16]), 8, 16),  # rle-run of 8 whose 2 value bytes are missing
        (bytes([3, 0xFF]), 8, 2),  # bit-packed group short of its 2 bytes
        (b"\x80", 10, 3),  # header varint cut off
        (b"", 5, 1),
        (b"\x00" * 16, 5, 3),  # zero-count rle-runs up to the end
    ],
)
def test_rle_hybrid_truncated_stream_raises(buf, n, width):
    with pytest.raises(rle_hybrid.RleHybridError):
        rle_hybrid.decode(buf, n, width)


def test_rle_hybrid_width0_group_count_is_not_allocated():
    # a 5-byte header declares 2**34 bit-packed groups of width 0: only the
    # n values asked for are materialized, one stream or many, either walk
    buf = bytes([0xFF, 0xFF, 0xFF, 0xFF, 0x0F])
    assert rle_hybrid.decode(buf, 5, 0).tolist() == [0] * 5
    for walk in ("python", "vector"):
        tracemalloc.start()
        try:
            with _walk(walk):
                out = rle_hybrid.decode([buf] * 40, [5] * 40, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tolist() == [0] * 200 and peak < 1 << 20


@contextlib.contextmanager
def _walk(name):
    """Force the python or the array walk through their thresholds."""
    big = 1 << 62
    lo, dens = (big, big) if name == "python" else (0, 0)
    with mock.patch.multiple(rle_hybrid, VECTOR_MIN_BYTES=lo, VECTOR_MIN_DENSITY=dens):
        yield


def _outcome(walk, streams, counts, width):
    """The decoded values or the error message, under an allocation cap."""
    tracemalloc.start()
    try:
        with _walk(walk):
            out = rle_hybrid.decode(streams, counts, width)
    except rle_hybrid.RleHybridError as ex:
        return str(ex)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert len(out) == sum(counts) and peak < 8 << 20
    return out.tolist()


@settings(max_examples=300, deadline=1000)
@given(
    data=_garbage,
    cuts=st.lists(st.integers(0, 512), max_size=12),
    counts=st.lists(st.integers(0, 2000), min_size=13, max_size=13),
    width=st.integers(0, 32),
)
def test_rle_hybrid_decode_many_streams_total(data, cuts, counts, width):
    # random bytes cut into random streams: values for every stream, or the
    # named error, under the allocation cap of the width-0 test above; both
    # walks give the same values or the same message
    edges = [0, *sorted(min(c, len(data)) for c in cuts), len(data)]
    streams = [data[a:b] for a, b in zip(edges, edges[1:])]
    counts = counts[: len(streams)]
    assert _outcome("python", streams, counts, width) == _outcome("vector", streams, counts, width)


@pytest.mark.parametrize("walk", ["python", "vector"])
def test_rle_hybrid_run_never_reads_the_next_stream(walk):
    # stream 1's last bit-packed run claims 6 payload bytes and has 5;
    # stream 2 follows with bytes enough to satisfy the claim
    one = rle_hybrid.encode(np.arange(16, dtype=np.uint32) % 8, 3)
    assert one[0] == (2 << 1) | 1 and len(one) == 7
    two = rle_hybrid.encode(np.full(3000, 5, np.uint32), 3)
    with _walk(walk), pytest.raises(
        rle_hybrid.RleHybridError, match="run at byte 0 overruns its 6-byte stream"
    ):
        rle_hybrid.decode([one[:-1], two], [16, 3000], 3)
    with _walk(walk):
        got = rle_hybrid.decode([one, two], [16, 3000], 3)
    assert got.tolist() == [k % 8 for k in range(16)] + [5] * 3000


_FSST_STRINGS = [f"doc-{i:05d}/é" for i in range(300)] + ["", "\xff"]
_FSST_TABLE = fsst.train(*binary_parts(pa.array(_FSST_STRINGS)))


def _fsst_page(strings: list[bytes], table=_FSST_TABLE) -> bytes:
    offsets = np.zeros(len(strings) + 1, np.int64)
    np.cumsum([len(x) for x in strings], out=offsets[1:])
    c_off, c_dat = fsst.compress(table, offsets, np.frombuffer(b"".join(strings), np.uint8))
    return delta_bp.encode(np.diff(c_off).astype(np.int32)) + c_dat.tobytes()


_FSST_PAGE = _fsst_page([x.encode() for x in _FSST_STRINGS[:120]])


def _fsst_decode(body, n):
    """A page's strings, or None when it raises the named error."""
    try:
        offsets, values = codecs.decode_pages("FSST", "BINARY", [(body, n)], _FSST_TABLE)
    except fsst.FsstError:
        return None
    assert len(offsets) == n + 1 and offsets[0] == 0 and offsets[-1] == len(values)
    assert (np.diff(offsets) >= 0).all()
    return offsets, values


@settings(max_examples=300, deadline=1000)
@given(_garbage, st.integers(0, 200))
def test_fsst_page_decode_total(data, n):
    _fsst_decode(data, n)


@settings(max_examples=300, deadline=1000)
@given(st.lists(st.tuples(st.integers(0, len(_FSST_PAGE) - 1), st.integers(0, 255)), max_size=4),
       st.integers(0, len(_FSST_PAGE)), st.integers(118, 122), st.data())
def test_fsst_corrupt_page_decode_total(flips, cut, n, draw):
    # a real page with bytes overwritten and its tail cut: values or the
    # named error, and the strings a row-selective read decompresses are
    # those rows of the whole page's
    body = bytearray(_FSST_PAGE)
    for at, value in flips:
        body[at] = value
    body = bytes(body[:cut])
    whole = _fsst_decode(body, n)
    if whole is None:
        return
    rows = np.array(sorted(draw.draw(st.sets(st.integers(0, n - 1), max_size=8))), np.int64)
    c_off, c_dat = fsst.read_page(body, n)
    lens = c_off[rows + 1] - c_off[rows]
    sel_off = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    got_off, got = fsst.decompress(_FSST_TABLE, sel_off, c_dat[plain._ranges(c_off[rows], lens)])
    want = [whole[1][whole[0][r] : whole[0][r + 1]].tobytes() for r in rows]
    assert [got[got_off[i] : got_off[i + 1]].tobytes() for i in range(len(rows))] == want


@settings(max_examples=300, deadline=1000)
@given(st.binary(max_size=64))
def test_fsst_symbol_table_total(data):
    try:
        table, used = fsst.SymbolTable.deserialize(data)
    except fsst.FsstError:
        return
    assert used <= len(data) and all(1 <= len(x) <= fsst.MAX_SYMBOL_LEN for x in table.symbols)


def _header(*fields) -> bytes:
    """A delta_bp header: LEB128 block size, miniblock count, value count
    and first value."""
    out = bytearray()
    for v in fields:
        while v >= 0x80:
            out.append(v & 0x7F | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


@pytest.mark.parametrize(
    "body, n, table",
    [
        (_fsst_page([b"ab", b"c", b""]), 4, _FSST_TABLE),  # 3 lengths, 4 values
        (delta_bp.encode(np.array([2, -1, 1], np.int32)) + b"\x01\x02", 3, _FSST_TABLE),
        (delta_bp.encode(np.array([2, 1], np.int32)) + b"\x01\x02", 2, _FSST_TABLE),  # short
        (delta_bp.encode(np.array([1], np.int32)) + b"\x01\x02", 1, _FSST_TABLE),  # long
        (_header(0, 4, 100, 2) + b"\x00" * 12, 100, _FSST_TABLE),  # zero block
        (_header(128, 0, 100, 2) + b"\x00" * 12, 100, _FSST_TABLE),  # zero miniblocks
        (delta_bp.encode(np.array([1, 1], np.int32)) + b"\x00\xff", 2, _FSST_TABLE),  # lone escape
        (delta_bp.encode(np.array([1], np.int32)) + b"\x05", 1, fsst.SymbolTable([b"a", b"b"])),
    ],
    ids=["count", "negative", "short-payload", "long-payload", "zero-block",
         "zero-miniblocks", "lone-escape", "code-beyond-table"],
)
def test_fsst_page_checks_raise(body, n, table):
    with pytest.raises(fsst.FsstError):
        codecs.decode_pages("FSST", "BINARY", [(body, n)], table)


# the (physical type, encoding) pairs whose page decode gives values or a
# ValueError on any bytes
TOTAL_PAIRS = [("BINARY", "PLAIN"), ("BINARY", "FSST"), ("BOOLEAN", "PLAIN"), ("BOOLEAN", "RLE")] + [
    (t, e)
    for t in ("INT32", "INT64", "FLOAT", "DOUBLE", "FIXED_LEN_BYTE_ARRAY")
    for e in ("PLAIN", "BYTE_STREAM_SPLIT")
]


@pytest.mark.parametrize("ptype, encoding", TOTAL_PAIRS, ids=[f"{t}-{e}" for t, e in TOTAL_PAIRS])
@given(data=_garbage, n=st.integers(0, 200), draw=st.data())
@settings(max_examples=100, deadline=1000)
def test_positional_page_decode_total(ptype, encoding, data, n, draw):
    # random bytes read at random positions (or whole): the values asked
    # for, or a named ValueError subclass, never an IndexError
    at = None
    if draw.draw(st.booleans()):
        at = np.array(sorted(draw.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=20))) if n else [],
                      np.int64)
    table = _FSST_TABLE if encoding == "FSST" else None
    try:
        out = codecs.decode_pages(encoding, ptype, [(data, n)], table, 3, at)
    except ValueError as ex:
        assert type(ex) is not ValueError, ex
        return
    got = len(out[0]) - 1 if ptype == "BINARY" else len(out)
    assert got == (n if at is None else len(at))


def test_rle_hybrid_frame_past_buffer_raises():
    framed = rle_hybrid.encode_framed(np.arange(64, dtype=np.uint32) % 4, 2)
    with pytest.raises(rle_hybrid.RleHybridError):
        rle_hybrid.decode_framed(framed[:-1], 64, 2)


def _lzo_bomb(extension_bytes: int) -> bytes:
    """One literal, then an M3 match at distance 1 whose 255-run length
    extension repeats it ~255 times per input byte."""
    return (
        bytes([17 + 1]) + b"a"
        + bytes([0x20]) + b"\x00" * extension_bytes + b"\x01" + b"\x00\x00"
        + b"\x11\x00\x00"
    )


def test_lzo1x_output_cap_raises_before_expanding():
    bomb = _lzo_bomb(40_000)  # expands to ~10 MB uncapped
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds"):
            lzo1x_decompress(bomb, max_out=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lzo_hadoop_chunk_capped_by_block_length():
    bomb = _lzo_bomb(40_000)
    page = struct.pack(">II", 4096, len(bomb)) + bomb
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            LzoHadoopCodec().decompress(page, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_decode_checks_survive_python_O():
    """Under ``python -O`` asserts vanish: a bad block magic and a
    DELTA_LENGTH_BYTE_ARRAY length count that is not the page's value count
    must still raise a named ValueError."""
    import os
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(
        """
        import numpy as np, pyarrow as pa
        from rayenc import blocks, codecs
        from rayenc.codecs import delta_bp, delta_length

        assert False, "asserts must be off"
        blob, man = blocks.encode_block(pa.table({"x": [1, 2, 3]}))
        try:
            blocks.decode_block(b"XXXXXX" + bytes(blob[6:]), man)
        except blocks.BlockFormatError as ex:
            print("magic:", type(ex).__mro__[1].__name__)
        body = delta_length.encode(np.array([0, 1, 3, 6]), np.frombuffer(b"abcdef", np.uint8))
        try:
            codecs.decode_pages("DELTA_LENGTH_BYTE_ARRAY", "BINARY", [(body, 4)])
        except delta_bp.LengthCountError as ex:
            print("count:", type(ex).__mro__[1].__name__)
        """
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["magic: ValueError", "count: ValueError"]
