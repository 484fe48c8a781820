"""FSST: Fast Static Symbol Table string compression.

Not present in apache/parquet-java (verified — no match for "fsst" in the
reference). Implemented from the published algorithm (Boncz, Neumann, Leis:
"FSST: Fast Random Access String Compression", VLDB 2020): a table of up to
255 symbols of 1-8 bytes is trained on a sample by iteratively counting
symbol and symbol-pair frequencies (gain = count * length); compression is
greedy longest-match; byte 255 escapes a literal byte.

This implementation is batch-vectorized for the encode hot path:

- per-position longest-match lengths come from packing every l-gram
  (l = 1..8) into a uint64 key and membership-testing against the symbol
  keys of that length (sorted arrays + searchsorted);
- the greedy left-to-right parse runs in *rounds*: round k emits the k-th
  token of every string simultaneously, so the python-level loop count is
  the max token count per string, not the total token count;
- decode separates escape markers from literals with a run-parity argument
  (every maximal run of 255 bytes starts at a token boundary, so markers
  are the even offsets within the run), then gathers symbol bytes with one
  scatter.

Column framing: ``[table][delta_bp lengths of compressed strings][payload]``
— composing with the DELTA_LENGTH framing like the reference composes
DELTA_BYTE_ARRAY from DELTA_BINARY_PACKED + DELTA_LENGTH
(`DeltaByteArrayWriter.java:91-103`).
"""

from __future__ import annotations

import numpy as np

from . import delta_bp
from .plain import _ranges
from .varint import read_uvarint

ESCAPE = 255
MAX_SYMBOLS = 255  # codes 0..254
MAX_SYMBOL_LEN = 8
TRAIN_ITERATIONS = 4
SAMPLE_TARGET = 1 << 13  # 8 KiB of sample text
# the largest lengths-stream block a page may declare (writers use 128)
MAX_LENGTHS_BLOCK = 1 << 16


class FsstError(ValueError):
    """An FSST symbol table or page the decoder cannot read: a truncated
    table, a lengths stream that does not frame the page's payload, an
    escape with no byte after it, or a code with no symbol."""


class SymbolTable:
    """Static symbol table: symbols[i] is the bytes for code i."""

    __slots__ = (
        "symbols", "_by_len", "_lengths_desc", "_fb_lenmask", "_one", "_two",
        "_long_by_prefix", "_has_long2", "_codes",
    )

    def __init__(self, symbols: list[bytes]):
        assert len(symbols) <= MAX_SYMBOLS
        self.symbols = symbols
        self._by_len = None  # the match tables: built by the first compress
        self._codes = None  # the literal parser's dict: built by compress_string

    def _index(self) -> None:
        """Build the tables ``compress`` matches against (decompress reads
        ``symbols`` only), once."""
        if self._by_len is not None:
            return
        symbols = self.symbols
        # per length: (sorted uint64 keys, code for each sorted key)
        self._by_len: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        groups: dict[int, list[tuple[int, int]]] = {}
        for code, s in enumerate(symbols):
            groups.setdefault(len(s), []).append((_pack_key(s), code))
        for ln, pairs in groups.items():
            pairs.sort()
            keys = np.array([k for k, _ in pairs], np.uint64)
            codes = np.array([c for _, c in pairs], np.uint16)
            # 16-bit fingerprint filter: most non-matching grams bail on one
            # multiply+gather instead of an 8-step binary search
            with np.errstate(over="ignore"):
                fp = ((keys * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(48)).astype(
                    np.int64
                )
            bloom = np.zeros(1 << 16, bool)
            bloom[fp] = True
            self._by_len[ln] = (keys, codes, bloom)
        self._lengths_desc = sorted(self._by_len, reverse=True)
        # first-byte prefilter: bit (ln-1) set iff some ln-symbol starts with
        # that byte — cuts the searchsorted candidate sets ~10x on text
        self._fb_lenmask = np.zeros(256, np.uint8)
        for s in symbols:
            self._fb_lenmask[s[0]] |= np.uint8(1 << (len(s) - 1))
        # direct-indexed tables for 1- and 2-byte symbols (no search at all)
        self._one = np.full(256, -1, np.int16)
        self._two = np.full(1 << 16, -1, np.int16)
        for code, s in enumerate(symbols):
            if len(s) == 1:
                self._one[s[0]] = code
            elif len(s) == 2:
                self._two[s[0] | (s[1] << 8)] = code
        # prefix-bounded fast path (the real FSST's structural constraint,
        # relaxed to two slots): when at most TWO symbols of length >= 3
        # share any 2-byte prefix (our trainer guarantees this),
        # longest-match is two direct probes — no per-length searchsorted
        from collections import defaultdict

        by_prefix: dict[int, list[tuple[int, bytes]]] = defaultdict(list)
        for code, s in enumerate(symbols):
            if len(s) >= 3:
                by_prefix[s[0] | (s[1] << 8)].append((code, s))
        self._long_by_prefix = None
        self._has_long2 = None
        if all(len(v) <= 2 for v in by_prefix.values()):
            tiers = []
            for slot in range(2):
                lcode = np.full(1 << 16, -1, np.int16)
                lkey = np.zeros(1 << 16, np.uint64)
                llen = np.zeros(1 << 16, np.uint8)
                tiers.append((lcode, lkey, llen))
            has_long = np.zeros(1 << 16, bool)
            for pfx, entries in by_prefix.items():
                entries.sort(key=lambda cs: -len(cs[1]))  # longest in slot 0
                has_long[pfx] = True
                for slot, (code, s) in enumerate(entries):
                    lcode, lkey, llen = tiers[slot]
                    lcode[pfx] = code
                    lkey[pfx] = _pack_key(s)
                    llen[pfx] = len(s)
            self._long_by_prefix = tiers
            self._has_long2 = has_long

    def serialize(self) -> bytes:
        out = bytearray([len(self.symbols)])
        for s in self.symbols:
            out.append(len(s))
        for s in self.symbols:
            out += s
        return bytes(out)

    @classmethod
    def deserialize(cls, buf) -> tuple["SymbolTable", int]:
        """(table, bytes read); FsstError when ``buf`` does not hold a table
        of at most 255 symbols of 1-8 bytes."""
        n = buf[0] if len(buf) else 0
        lens = bytes(buf[1 : 1 + n])
        pos = 1 + n
        if pos + sum(lens) > len(buf) or lens and not 1 <= min(lens) <= max(lens) <= MAX_SYMBOL_LEN:
            raise FsstError(f"bad FSST symbol table ({len(buf)} bytes)")
        symbols = []
        for ln in lens:
            symbols.append(bytes(buf[pos : pos + ln]))
            pos += ln
        return cls(symbols), pos


def _pack_key(s: bytes) -> int:
    """Little-endian uint64 key of a 1-8 byte symbol."""
    return int.from_bytes(s, "little")


_LEN_MASKS = np.array(
    [(1 << (8 * ln)) - 1 for ln in range(MAX_SYMBOL_LEN)] + [(1 << 64) - 1],
    np.uint64,
)


def _match_prefix_unique(table: SymbolTable, data, g8, pos_end):
    """Direct-probe longest match when each 2-byte prefix owns at most two
    symbols of length >= 3 (longest in slot 0): probe both slots, then the
    2-byte direct table, then the 1-byte table — all full-array gathers."""
    n = len(data)
    g2 = (g8 & np.uint64(0xFFFF)).astype(np.int64)
    slack = pos_end - np.arange(n, dtype=np.int64)  # bytes left in the string
    mlen = np.zeros(n, np.uint8)
    mcode = np.zeros(n, np.int16)
    rest = np.ones(n, bool)
    # the >=3-byte tier probes run only on the subset of positions whose
    # 2-byte prefix owns a long symbol (typically a small minority) —
    # full-array work stays one bool gather
    lp = np.flatnonzero(table._has_long2[g2] & (slack >= 3))
    if len(lp):
        g2l = g2[lp]
        g8l = g8[lp]
        slackl = slack[lp]
        restl = np.ones(len(lp), bool)
        for lcode_t, lkey_t, llen_t in table._long_by_prefix:
            llen = llen_t[g2l]
            hit = restl & (llen > 0) & (llen <= slackl)
            hit &= (g8l & _LEN_MASKS[llen]) == lkey_t[g2l]
            hp = lp[hit]
            mlen[hp] = llen[hit]
            mcode[hp] = lcode_t[g2l[hit]]
            restl &= ~hit
        rest[lp] = restl
    two = table._two[g2]
    two_hit = rest & (two >= 0) & (slack >= 2)
    mlen[two_hit] = 2
    mcode[two_hit] = two[two_hit]
    rest &= ~two_hit
    one = table._one[data]
    one_hit = rest & (one >= 0)
    mlen[one_hit] = 1
    mcode[one_hit] = one[one_hit]
    return mlen, mcode.astype(np.uint16)


_MATCH_CHUNK = 1 << 17  # positions per block: ~15 live arrays stay L2/L3-hot


def _match(table: SymbolTable, data: np.ndarray, pos_end: np.ndarray):
    """Per position: (longest symbol length or 0, code of that symbol).

    Prefix-unique tables (all trained tables) take the single-probe fast
    path, processed in cache-sized blocks — the probe sequence is ~18
    full-array passes, so blocking turns a memory-bandwidth-bound sweep
    into an L2-resident one (2x on this host). Arbitrary tables fall back
    to the longest-first per-length loop with a first-byte prefilter +
    16-bit fingerprint before each search."""
    n = len(data)
    if table._long_by_prefix is not None and n > _MATCH_CHUNK + MAX_SYMBOL_LEN:
        mlen = np.empty(n, np.uint8)
        mcode = np.empty(n, np.uint16)
        for a in range(0, n, _MATCH_CHUNK):
            b = min(a + _MATCH_CHUNK, n)
            ov = min(b + MAX_SYMBOL_LEN - 1, n)  # lookahead for the grams
            sub = np.ascontiguousarray(data[a:ov])
            ml, mc = _match(table, sub, pos_end[a:ov] - a)
            mlen[a:b] = ml[: b - a]
            mcode[a:b] = mc[: b - a]
        return mlen, mcode
    # one contiguous pass builds the 8-byte gram at every position; each
    # length's gram is then just a mask of it
    d64 = data.astype(np.uint64)
    g8 = np.zeros(n, np.uint64)
    for k in range(min(MAX_SYMBOL_LEN, n)):
        g8[: n - k] |= d64[k:] << np.uint64(8 * k)
    if table._long_by_prefix is not None:
        return _match_prefix_unique(table, data, g8, pos_end)
    mlen = np.zeros(n, np.uint8)
    mcode = np.zeros(n, np.uint16)
    unmatched = np.ones(n, bool)
    fbm = table._fb_lenmask[data]
    for ln in table._lengths_desc:
        cand = np.flatnonzero(unmatched & ((fbm & np.uint8(1 << (ln - 1))) != 0))
        if not len(cand):
            continue
        cand = cand[cand + ln <= pos_end[cand]]
        if not len(cand):
            continue
        if ln == 1:
            code = table._one[data[cand]]
            hit = code >= 0
        elif ln == 2:
            g2 = (g8[cand] & np.uint64(0xFFFF)).astype(np.int64)
            code = table._two[g2]
            hit = code >= 0
        else:
            keys, codes, bloom = table._by_len[ln]
            mask_ln = (
                np.uint64((1 << (8 * ln)) - 1) if ln < 8 else np.uint64(0xFFFFFFFFFFFFFFFF)
            )
            gk = g8[cand] & mask_ln
            with np.errstate(over="ignore"):
                fp = ((gk * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(48)).astype(
                    np.int64
                )
            pre = bloom[fp]
            hit = np.zeros(len(cand), bool)
            code = np.zeros(len(cand), np.int16)
            if pre.any():
                gk_p = gk[pre]
                idx = np.searchsorted(keys, gk_p)
                idx_c = np.minimum(idx, len(keys) - 1)
                sub_hit = keys[idx_c] == gk_p
                hit[pre] = sub_hit
                sub_code = np.zeros(len(gk_p), np.int16)
                sub_code[sub_hit] = codes[idx_c[sub_hit]].astype(np.int16)
                code[pre] = sub_code
        hp = cand[hit]
        mlen[hp] = ln
        mcode[hp] = code[hit].astype(np.uint16)
        unmatched[hp] = False
    return mlen, mcode


def compress(
    table: SymbolTable, offsets: np.ndarray, data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Compress strings -> (out_offsets int64[n+1], out_data uint8)."""
    offsets = np.asarray(offsets, np.int64)
    data = np.asarray(data, np.uint8)
    n = len(offsets) - 1
    if len(data) == 0:
        return offsets.copy(), np.empty(0, np.uint8)
    lengths = np.diff(offsets)
    pos_end = np.repeat(offsets[1:], lengths)  # string end for each byte pos
    table._index()
    mlen, mcode = _match(table, data, pos_end)

    # greedy parse by rounds: round k emits the k-th token of every string,
    # writing directly into a 2x-overallocated buffer at per-string cursors
    # (worst case is every byte escaped), then one compaction gather
    base = (offsets[:-1] * 2).astype(np.int64)  # per-string region start
    big = np.empty(int(offsets[-1]) * 2, np.uint8)
    cur = np.zeros(n, np.int64)  # bytes written per string
    frontier = offsets[:-1].copy()
    sidx = np.arange(n, dtype=np.int64)
    ends = offsets[1:]
    while len(frontier):
        active = frontier < ends[sidx]
        frontier = frontier[active]
        sidx = sidx[active]
        if not len(frontier):
            break
        ml = mlen[frontier]
        is_sym = ml > 0
        wpos = base[sidx] + cur[sidx]
        big[wpos] = np.where(is_sym, mcode[frontier].astype(np.uint8), np.uint8(ESCAPE))
        esc = ~is_sym
        big[wpos[esc] + 1] = data[frontier[esc]]
        cur[sidx] += np.where(is_sym, 1, 2)
        frontier = frontier + np.where(is_sym, ml.astype(np.int64), np.int64(1))

    out_offsets = np.zeros(n + 1, np.int64)
    np.cumsum(cur, out=out_offsets[1:])
    out = big[_ranges(base, cur)]
    return out_offsets, out


def decompress(
    table: SymbolTable, offsets: np.ndarray, data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decompress -> (out_offsets int64[n+1], out_data uint8). ``offsets``
    must frame ``data`` (``read_page`` checks a page's); FsstError when a
    string ends in a lone escape or holds a code the table lacks."""
    offsets = np.asarray(offsets, np.int64)
    data = np.asarray(data, np.uint8)
    n = len(offsets) - 1
    if offsets[-1] != len(data):
        raise FsstError(f"FSST offsets end at {offsets[-1]}, payload holds {len(data)} bytes")
    if len(data) == 0:
        return offsets.copy(), np.empty(0, np.uint8)

    # classify bytes: escape markers / literals / symbol codes.
    # Maximal runs of 255-bytes always begin at a token boundary, so within a
    # run the markers are the even offsets... EXCEPT runs that start exactly
    # at a string boundary following an odd-run spillover cannot happen:
    # tokens never span strings, and string starts are token starts.
    is_ff = data == ESCAPE
    # run starts: is_ff & (prev not ff or position is a string start)
    prev_ff = np.zeros(len(data), bool)
    prev_ff[1:] = is_ff[:-1]
    is_start = np.zeros(len(data), bool)
    is_start[offsets[:-1][offsets[:-1] < len(data)]] = True
    run_start = is_ff & (~prev_ff | is_start)
    ff_pos = np.flatnonzero(is_ff)
    if len(ff_pos):
        starts_mask = run_start[ff_pos]
        first_in_run = np.maximum.accumulate(np.where(starts_mask, ff_pos, 0))
        dist = ff_pos - first_in_run
        marker = np.zeros(len(data), bool)
        marker[ff_pos[dist % 2 == 0]] = True
    else:
        marker = np.zeros(len(data), bool)
    ends = offsets[1:][np.diff(offsets) > 0]
    if marker[ends - 1].any():
        raise FsstError("FSST string ends in an escape with no byte after it")
    literal = np.zeros(len(data), bool)
    literal[np.flatnonzero(marker) + 1] = True
    is_code = ~marker & ~literal  # never an escape byte, given the check above
    codes = data[is_code]
    k = len(table.symbols)
    if k < MAX_SYMBOLS and len(codes) and codes.max() >= k:
        raise FsstError(f"FSST code beyond the table's {k} symbols")

    # the symbols as rows of a zero-padded matrix, and their lengths
    sym_lens = np.zeros(256, np.int64)
    sym_lens[:k] = [len(s) for s in table.symbols]
    sym_matrix = np.zeros((256, MAX_SYMBOL_LEN), np.uint8)
    sym_matrix[:k][np.arange(MAX_SYMBOL_LEN) < sym_lens[:k, None]] = np.frombuffer(
        b"".join(table.symbols), np.uint8
    )
    # output byte count per token
    out_bytes = np.zeros(len(data), np.int64)
    out_bytes[is_code] = sym_lens[codes]
    out_bytes[marker] = 1  # marker+literal pair emits 1 byte

    # per-string output lengths
    str_id = np.repeat(np.arange(n), np.diff(offsets))
    out_lengths = np.bincount(str_id, weights=out_bytes, minlength=n).astype(np.int64)
    out_offsets = np.zeros(n + 1, np.int64)
    np.cumsum(out_lengths, out=out_offsets[1:])

    # tokens emit their bytes in input order: one padded row per token (a
    # code's symbol, or the literal after an escape marker), then the rows
    # compacted to their lengths
    tok = np.flatnonzero(out_bytes)
    rows = sym_matrix.view(np.uint64)[data[tok], 0].view(np.uint8).reshape(-1, MAX_SYMBOL_LEN)
    esc = marker[tok]
    rows[esc, 0] = data[tok[esc] + 1]
    keep = out_bytes[tok][:, None] > np.arange(MAX_SYMBOL_LEN)
    return out_offsets, rows.reshape(-1)[keep.reshape(-1)]


def compress_string(table: SymbolTable, s: bytes) -> bytes:
    """One string as ``compress`` writes its row: the same greedy
    longest-match parse, over a dict of the symbols instead of the batch
    match tables (a literal costs microseconds, not their build)."""
    if table._codes is None:
        codes: dict[bytes, int] = {}
        for code, sym in enumerate(table.symbols):
            # on a repeated symbol the batch tables keep the last code of a
            # 1-2 byte symbol and the first of a longer one
            if len(sym) <= 2 or sym not in codes:
                codes[sym] = code
        table._codes = codes, sorted({len(sym) for sym in codes}, reverse=True)
    codes, lens = table._codes
    out = bytearray()
    p, n = 0, len(s)
    while p < n:
        for ln in lens:
            code = codes.get(s[p : p + ln]) if p + ln <= n else None
            if code is not None:
                out.append(code)
                p += ln
                break
        else:
            out += bytes((ESCAPE, s[p]))
            p += 1
    return bytes(out)


def rows_equal(offsets: np.ndarray, data: np.ndarray, idx, codes: list[bytes]) -> np.ndarray:
    """Which compressed strings at positions ``idx`` (None: all) equal one
    of the compressed literals ``codes``: one bool per position. Exact,
    because a string compresses on its own and the parse is deterministic;
    the strings of each literal length are matched in one ``np.isin`` of
    fixed-width byte strings."""
    starts = offsets[:-1] if idx is None else offsets[idx]
    lens = (offsets[1:] if idx is None else offsets[idx + 1]) - starts
    hit = np.zeros(len(lens), bool)
    by_len: dict[int, set] = {}
    for c in codes:
        by_len.setdefault(len(c), set()).add(c)
    for ln, group in by_len.items():
        cand = np.flatnonzero(lens == ln)
        if ln and len(cand):
            # within one width an "S" compare is bytewise (trailing zero
            # bytes pad every row alike)
            rows = data[starts[cand][:, None] + np.arange(ln)].view(f"S{ln}").ravel()
            cand = cand[np.isin(rows, np.array(sorted(group), f"S{ln}"))]
        hit[cand] = True
    return hit


def write_page(table: SymbolTable, offsets: np.ndarray, data: np.ndarray) -> bytes:
    """One page of strings as ``read_page`` reads it: the lengths of their
    compressed forms (DELTA_BINARY_PACKED), then those forms."""
    c_offsets, c_data = compress(table, offsets, data)
    return delta_bp.encode(np.diff(c_offsets).astype(np.int32)) + c_data.tobytes()


def read_page(body, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A page's compressed strings: ``(offsets int64[n+1], payload uint8)``
    from its ``[delta_bp lengths][payload]`` body. FsstError unless the
    lengths stream declares ``n`` lengths in blocks of miniblocks, and its
    lengths are >= 0 and add up to the payload."""
    body = np.frombuffer(body, np.uint8)
    try:
        block, i = read_uvarint(body, 0)
        miniblocks, i = read_uvarint(body, i)
        count, _ = read_uvarint(body, i)
    except IndexError as ex:
        raise FsstError("truncated FSST lengths header") from ex
    if count != n:
        raise FsstError(f"FSST lengths stream holds {count} lengths, page has {n} values")
    if not (0 < miniblocks <= block // 8 and block <= MAX_LENGTHS_BLOCK):
        raise FsstError(f"bad FSST lengths block {block}/{miniblocks}")
    try:
        end = delta_bp.decoded_byte_end(body)
        lengths = delta_bp.decode(body[:end], np.int32)
    except (IndexError, ValueError, OverflowError) as ex:
        raise FsstError(f"unreadable FSST lengths stream: {ex}") from ex
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if (lengths < 0).any() or offsets[-1] != len(body) - end:
        raise FsstError(f"FSST lengths do not frame the page's {len(body) - end}-byte payload")
    return offsets, body[end:]


def train(offsets: np.ndarray, data: np.ndarray, seed: int = 0) -> SymbolTable:
    """Train a symbol table on a deterministic sample of the strings."""
    offsets = np.asarray(offsets, np.int64)
    data = np.asarray(data, np.uint8)
    n = len(offsets) - 1
    if n == 0 or len(data) == 0:
        return SymbolTable([])
    # deterministic sample: evenly strided strings until ~SAMPLE_TARGET bytes
    avg = max(1, len(data) // n)
    take = max(1, min(n, SAMPLE_TARGET // avg))
    stride = max(1, n // take)
    sample: list[bytes] = []
    total = 0
    raw = data.tobytes()
    for i in range(0, n, stride):
        s = raw[offsets[i] : offsets[i + 1]]
        sample.append(s)
        total += len(s)
        if total >= SAMPLE_TARGET:
            break

    table: list[bytes] = []
    for _ in range(TRAIN_ITERATIONS):
        by_len: dict[int, dict[bytes, int]] = {}
        for s in table:
            by_len.setdefault(len(s), {})[s] = table.index(s)
        lens_desc = sorted(by_len, reverse=True)
        gain: dict[bytes, int] = {}
        for s in sample:
            prev = None
            p = 0
            L = len(s)
            while p < L:
                sym = None
                for ln in lens_desc:
                    if p + ln <= L and s[p : p + ln] in by_len[ln]:
                        sym = s[p : p + ln]
                        break
                if sym is None:
                    sym = s[p : p + 1]
                gain[sym] = gain.get(sym, 0) + len(sym)
                if prev is not None and len(prev) + len(sym) <= MAX_SYMBOL_LEN:
                    cat = prev + sym
                    gain[cat] = gain.get(cat, 0) + len(cat)
                prev = sym
                p += len(sym)
        # keep top symbols by gain (deterministic tie-break on bytes), with
        # the FSST structural constraint relaxed to TWO symbols of length
        # >= 3 per 2-byte prefix (matching probes both slots, longest first)
        ranked = sorted(gain.items(), key=lambda kv: (-kv[1], kv[0]))
        table = []
        prefix_slots: dict[bytes, int] = {}
        for s, _ in ranked:
            if len(s) >= 3:
                if prefix_slots.get(s[:2], 0) >= 2:
                    continue
                prefix_slots[s[:2]] = prefix_slots.get(s[:2], 0) + 1
            table.append(s)
            if len(table) == MAX_SYMBOLS:
                break
    return SymbolTable(table)


def encode_column(offsets: np.ndarray, data: np.ndarray, table: SymbolTable | None = None) -> bytes:
    """[table][delta_bp lengths][compressed payload]."""
    if table is None:
        table = train(offsets, data)
    return table.serialize() + write_page(table, offsets, data)


def decode_column(buf, n: int) -> tuple[np.ndarray, np.ndarray]:
    table, pos = SymbolTable.deserialize(buf)
    return decompress(table, *read_page(buf[pos:], n))
