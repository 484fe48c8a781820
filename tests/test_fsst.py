"""FSST fixtures from FIXTURES.md F2: id-like strings, URLs, random bytes
(escape-path correctness, must-not-inflate-beyond-escape-bound), plus
python-scalar oracles proving the array parse and the array trainer
exact: a greedy parser and the per-byte trainer."""

import time

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayenc.codecs import fsst
from rayenc.codecs.dictionary import binary_array, binary_parts


def parts(strings):
    return binary_parts(pa.array(strings, pa.string()))


def roundtrip(strings):
    offsets, data = parts(strings)
    buf = fsst.encode_column(offsets, data)
    o, d = fsst.decode_column(buf, len(strings))
    assert binary_array(o, d).cast(pa.string()).to_pylist() == strings
    return buf, offsets, data


def scalar_compress(table: fsst.SymbolTable, s: bytes) -> bytes:
    """Greedy longest-match reference implementation."""
    by_len = {}
    for code, sym in enumerate(table.symbols):
        by_len.setdefault(len(sym), {})[sym] = code
    lens = sorted(by_len, reverse=True)
    out = bytearray()
    p = 0
    while p < len(s):
        for ln in lens:
            if p + ln <= len(s) and s[p : p + ln] in by_len[ln]:
                out.append(by_len[ln][s[p : p + ln]])
                p += ln
                break
        else:
            out += bytes([fsst.ESCAPE, s[p]])
            p += 1
    return bytes(out)


def scalar_train(offsets: np.ndarray, data: np.ndarray) -> list[bytes]:
    """``fsst.train``'s symbols, one token and one dict update at a time:
    the same deterministic sample, TRAIN_ITERATIONS greedy parses counting
    the gains of symbols and adjacent pairs, ranked by (-gain, bytes) with
    at most two symbols of >= 3 bytes per 2-byte prefix."""
    n = len(offsets) - 1
    if n == 0 or len(data) == 0:
        return []
    avg = max(1, len(data) // n)
    take = max(1, min(n, fsst.SAMPLE_TARGET // avg))
    stride = max(1, n // take)
    sample: list[bytes] = []
    total = 0
    raw = data.tobytes()
    for i in range(0, n, stride):
        s = raw[offsets[i] : offsets[i + 1]]
        sample.append(s)
        total += len(s)
        if total >= fsst.SAMPLE_TARGET:
            break
    table: list[bytes] = []
    for _ in range(fsst.TRAIN_ITERATIONS):
        by_len: dict[int, set] = {}
        for s in table:
            by_len.setdefault(len(s), set()).add(s)
        lens_desc = sorted(by_len, reverse=True)
        gain: dict[bytes, int] = {}
        for s in sample:
            prev = None
            p = 0
            while p < len(s):
                sym = next(
                    (s[p : p + ln] for ln in lens_desc if p + ln <= len(s) and s[p : p + ln] in by_len[ln]),
                    s[p : p + 1],
                )
                gain[sym] = gain.get(sym, 0) + len(sym)
                if prev is not None and len(prev) + len(sym) <= fsst.MAX_SYMBOL_LEN:
                    cat = prev + sym
                    gain[cat] = gain.get(cat, 0) + len(cat)
                prev = sym
                p += len(sym)
        table = []
        prefix_slots: dict[bytes, int] = {}
        for s, _ in sorted(gain.items(), key=lambda kv: (-kv[1], kv[0])):
            if len(s) >= 3:
                if prefix_slots.get(s[:2], 0) >= 2:
                    continue
                prefix_slots[s[:2]] = prefix_slots.get(s[:2], 0) + 1
            table.append(s)
            if len(table) == fsst.MAX_SYMBOLS:
                break
    return table


def frame(strings: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(strings) + 1, np.int64)
    np.cumsum([len(x) for x in strings], out=offsets[1:])
    return offsets, np.frombuffer(b"".join(strings), np.uint8)


def test_idlike_strings_compress_and_roundtrip():
    strings = [f"web/shard-{i // 100:05d}/doc-{i:012d}" for i in range(2000)]
    buf, offsets, data = roundtrip(strings)
    assert len(buf) < len(data)  # must actually compress id-like text


def test_urls():
    strings = [
        f"https://example.org/path/to/resource/{i}?session={i * 7:x}&lang=en"
        for i in range(500)
    ]
    buf, offsets, data = roundtrip(strings)
    assert len(buf) < len(data)


def test_random_bytes_escape_path_no_blowup():
    rng = np.random.default_rng(0)
    strings = [
        bytes(rng.integers(0, 256, int(rng.integers(1, 40))).tolist()).decode(
            "latin-1"
        )
        for _ in range(300)
    ]
    offsets, data = parts(strings)
    buf = fsst.encode_column(offsets, data)
    o, d = fsst.decode_column(buf, len(strings))
    got = binary_array(o, d).cast(pa.string()).to_pylist()
    assert got == strings
    # worst case is 2x (all escapes) + table + lengths
    assert len(buf) <= 2 * len(data) + 600 + len(strings) * 2


def test_embedded_escape_bytes():
    # strings containing 0xff bytes exercise the marker/literal parity logic
    strings = ["\xff", "\xff\xff", "a\xffb", "\xff" * 7, "x" * 5 + "\xff"] * 20
    roundtrip(strings)


def test_empty_and_edge_strings():
    roundtrip(["", "a", "", "ab" * 50, ""])


def test_vectorized_parse_matches_scalar_greedy():
    strings = [f"src-{i % 7}/item{i:06d}/end" for i in range(400)] + [
        "",
        "\xff\xff",
        "zzz",
    ]
    offsets, data = parts(strings)
    table = fsst.train(offsets, data)
    assert 0 < len(table.symbols) <= 255
    c_off, c_data = fsst.compress(table, offsets, data)
    raw = data.tobytes()
    pos = 0
    for i in range(len(strings)):
        s = raw[offsets[i] : offsets[i + 1]]
        expect = scalar_compress(table, s)
        got = c_data[c_off[i] : c_off[i + 1]].tobytes()
        assert got == expect, f"string {i}: {s!r}"


def test_table_serialization():
    strings = [f"prefix-common-{i}" for i in range(100)]
    offsets, data = parts(strings)
    table = fsst.train(offsets, data)
    blob = table.serialize()
    table2, consumed = fsst.SymbolTable.deserialize(blob)
    assert consumed == len(blob)
    assert table2.symbols == table.symbols


def test_low_ndv_column():
    strings = (["common_crawl", "wikipedia", "github"] * 500)[:1400]
    buf, offsets, data = roundtrip(strings)
    assert len(buf) < len(data) // 2


def test_deserialized_table_decodes_without_match_tables_and_compresses_alike():
    strings = [f"source-{i % 7:02d}/{i:08d}?q=tok{i % 13}" for i in range(400)]
    offsets, data = parts(strings)
    table = fsst.train(offsets, data)
    want = fsst.compress(table, offsets, data)
    back, end = fsst.SymbolTable.deserialize(table.serialize())
    assert end == len(table.serialize()) and back.symbols == table.symbols
    o, d = fsst.decompress(back, *want)
    assert binary_array(o, d).cast(pa.string()).to_pylist() == strings
    assert back._rows is None  # decoding reads the symbols only
    got = fsst.compress(back, offsets, data)
    assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()


# ------------------------------------------- one literal vs the page encoder


def _rows(table, strings: list[bytes]) -> list[bytes]:
    """Each string's row of the page encoder ``fsst.compress``."""
    c_off, c_dat = fsst.compress(table, *frame(strings))
    return [c_dat[c_off[i] : c_off[i + 1]].tobytes() for i in range(len(strings))]


# a four-byte alphabet (an escape byte and a UTF-8 lead byte among them):
# hand-built symbols over it overlap, share prefixes and repeat
_byte = st.sampled_from(b"ab\xc3\xff")
_symbol = st.lists(_byte, min_size=1, max_size=8).map(bytes)
_string = st.lists(_byte, max_size=30).map(bytes)


@settings(max_examples=200, deadline=None)
@given(st.lists(_symbol, max_size=40), st.lists(_string, min_size=1, max_size=20))
def test_compress_string_matches_page_rows_on_hand_built_tables(symbols, strings):
    table = fsst.SymbolTable(symbols)
    assert [fsst.compress_string(table, x) for x in strings] == _rows(table, strings)


def test_compress_string_matches_page_rows_on_the_general_match_path():
    # three symbols of >= 3 bytes share the prefix "ab" (no trained table
    # has that): its row has five slots
    table = fsst.SymbolTable([b"abc", b"abd", b"abcd", b"ab", b"b", b"\xff\xff\xff", b"a"])
    table._index()
    assert sorted(table._sval[:, table._rows[ord("a") | ord("b") << 8]] >> 8) == [1, 2, 3, 3, 4]
    strings = [b"", b"a", b"abcdabdab", b"abcabcd\xffab", b"\xff\xff\xff\xff", b"zab\xc3\xa9"]
    assert [fsst.compress_string(table, x) for x in strings] == _rows(table, strings)


def test_compress_string_matches_page_rows_on_trained_tables():
    rng = np.random.default_rng(5)
    strings = [f"src-{i % 5}/{i:07d}/é" for i in range(600)] + ["", "€", "x", "\x00\x7f"]
    strings = [x.encode() for x in strings] + [bytes(rng.integers(0, 256, 9).tolist()), b"\xff"]
    table = fsst.train(*frame(strings))
    assert len(table.symbols) > 100
    assert [fsst.compress_string(table, x) for x in strings] == _rows(table, strings)


def test_compress_string_edge_tables():
    empty = fsst.SymbolTable([])
    assert fsst.compress_string(empty, b"") == b""
    assert fsst.compress_string(empty, b"a\xff") == b"\xffa\xff\xff" == _rows(empty, [b"a\xff"])[0]
    long = fsst.SymbolTable([b"abcdefgh", b"xyz"])  # every string below is shorter
    for x in (b"", b"ab", b"xy", b"abcdefg"):
        assert fsst.compress_string(long, x) == _rows(long, [x])[0]
        assert fsst.compress_string(long, x) == b"".join(bytes((255, c)) for c in x)


def test_rows_equal_compares_only_strings_of_the_literal_length():
    strings = [b"ab", b"", b"abc", b"ab", b"\xff"]
    table = fsst.SymbolTable([b"ab", b"c"])
    c_off, c_dat = fsst.compress(table, *frame(strings))
    codes = [fsst.compress_string(table, x) for x in (b"ab", b"")]
    assert fsst.rows_equal(c_off, c_dat, None, codes).tolist() == [True, True, False, True, False]
    idx = np.array([2, 3, 4])
    assert fsst.rows_equal(c_off, c_dat, idx, codes[:1]).tolist() == [False, True, False]


@settings(max_examples=100, deadline=None)
@given(st.lists(_string, min_size=1, max_size=40), st.lists(_string, max_size=50),
       st.lists(st.integers(0, 39), unique=True, max_size=40))
def test_rows_equal_matches_a_set_lookup(strings, literals, picks):
    # long literal lists, literals of one length sharing a width, and code
    # strings with zero bytes ("a" is code 0): the verdict is plain set
    # membership
    table = fsst.SymbolTable([b"a", b"ab", b"\xc3", b"b\xff"])
    c_off, c_dat = fsst.compress(table, *frame(strings))
    codes = [fsst.compress_string(table, x) for x in literals]
    idx = np.array(sorted(p for p in picks if p < len(strings)), np.int64)
    for at in (None, idx):
        got = fsst.rows_equal(c_off, c_dat, at, codes)
        rows = strings if at is None else [strings[i] for i in at]
        assert got.tolist() == [x in set(literals) for x in rows]


# ------------------------------------------------- the trainer vs its oracle

_ALPHABETS = [b"\x00\xff", b"ab\x00", b"abc/-_\xff", b"0123456789", bytes(range(256))]


@st.composite
def string_sets(draw) -> list[bytes]:
    """Strings of 0-300 bytes over a drawn alphabet (0x00 and 0xFF among
    its bytes), the edge strings among them, and sometimes a string longer
    than the 8 KiB sample after 0-3 empty strings: the stride may sample
    only the empty strings, or the long string as the whole sample."""
    byte = st.sampled_from(draw(st.sampled_from(_ALPHABETS)))
    string = st.one_of(
        st.lists(byte, max_size=300).map(bytes),
        st.sampled_from([b"", b"\x00", b"\xff", b"a"]),
    )
    strings = draw(st.lists(string, min_size=1, max_size=40))
    if draw(st.booleans()):
        unit = bytes(draw(st.lists(byte, min_size=1, max_size=24)))
        size = draw(st.integers(fsst.SAMPLE_TARGET + 1, 3 * fsst.SAMPLE_TARGET))
        strings[:0] = [b""] * draw(st.integers(0, 3)) + [(unit * (size // len(unit) + 1))[:size]]
    return strings


@settings(max_examples=150, deadline=None)
@given(string_sets())
def test_train_matches_the_scalar_trainer(strings):
    offsets, data = frame(strings)
    want = scalar_train(offsets, data)
    assert fsst.train(offsets, data).symbols == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsst, "_TALLY_TOKENS", 7)  # tallies of 7 tokens, merged
        assert fsst.train(offsets, data).symbols == want


@settings(max_examples=150, deadline=None)
@given(string_sets())
def test_compress_matches_the_greedy_oracle_on_trained_tables(strings):
    offsets, data = frame(strings)
    table = fsst.train(offsets, data)
    rows = _rows(table, strings)
    assert [fsst.compress_string(table, x) for x in strings] == rows
    assert [scalar_compress(table, x) for x in strings] == rows


def test_train_edge_samples():
    # no strings, only empty strings, a lone 1-byte string, and a long
    # string the stride skips (it samples only the first, empty string)
    for strings in ([], [b""], [b"", b""], [b"\xff"], [b"\x00"], [b"", b"", b"x" * 20000]):
        offsets, data = frame(strings)
        assert fsst.train(offsets, data).symbols == scalar_train(offsets, data)
    offsets, data = frame([b"\xff"])
    assert fsst.train(offsets, data).symbols == [b"\xff"]


def test_one_long_string_costs_milliseconds():
    # a parse loops per token only while many strings are open: one 100 KB
    # string is followed by pointer doubling
    s = np.random.default_rng(3).integers(0, 256, 100_000, dtype=np.uint8).tobytes()
    offsets, data = frame([s])
    t0 = time.process_time()
    table = fsst.train(offsets, data)
    c_off, c_dat = fsst.compress(table, offsets, data)
    spent = time.process_time() - t0
    assert c_dat.tobytes() == fsst.compress_string(table, s) and c_off.tolist() == [0, len(c_dat)]
    assert spent < 0.5, f"train + compress of one 100 KB string took {spent:.2f} s"


@settings(max_examples=60, deadline=None)
@given(string_sets(), st.integers(1, 40))
def test_rounds_and_windowed_doubling_parse_alike(strings, window):
    # every string parsed by rounds alone, and every string by pointer
    # doubling in windows of a few bytes, give the default parse's bytes
    offsets, data = frame(strings)
    table = fsst.train(offsets, data)
    want = fsst.compress(table, offsets, data)
    for rounds, follow in ((1, fsst._FOLLOW_BYTES), (len(strings) + 1, window)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fsst, "_ROUND_STRINGS", rounds)
            mp.setattr(fsst, "_FOLLOW_BYTES", follow)
            got = fsst.compress(table, offsets, data)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_a_chunk_whose_sample_holds_only_empty_strings_encodes():
    # every other string is empty and the sample stride is even, so the
    # trainer sees only empty strings: automatic selection and forced FSST
    # must still write a chunk that reads back
    from rayenc import blocks
    from rayenc.selector import EncodeConfig

    strings = [b"" if i % 2 == 0 else b"%06d" % i * 30 for i in range(1000)]
    offsets, data = frame(strings)
    assert fsst.train(offsets, data).symbols == scalar_train(offsets, data) == []
    t = pa.table({"s": pa.array(strings, pa.binary())})
    for cfg in (EncodeConfig(), EncodeConfig(column_encodings={"s": "FSST"})):
        blob, man = blocks.encode_block(t, cfg)
        assert blocks.decode_block(blob, man).equals(t)
