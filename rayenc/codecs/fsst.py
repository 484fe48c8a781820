"""FSST: Fast Static Symbol Table string compression.

Not present in apache/parquet-java (verified — no match for "fsst" in the
reference). Implemented from the published algorithm (Boncz, Neumann, Leis:
"FSST: Fast Random Access String Compression", VLDB 2020): a table of up to
255 symbols of 1-8 bytes is trained on a sample by iteratively counting
symbol and symbol-pair frequencies (gain = count * length); compression is
greedy longest-match; byte 255 escapes a literal byte.

This implementation is batch-vectorized:

- matching: every symbol that can start at an offset shares that offset's
  first two bytes, so ``SymbolTable._index`` lists them, longest first, in
  one row per 2-byte prefix (at most four slots for a trained table); the
  longest match at a set of offsets is one gather of their 8-byte grams,
  one of their rows and one compare of the row slots;
- parsing probes only the offsets where a token starts. Each round takes
  the next token of every string still open (the greedy parse's
  frontier), so a round costs the number of open strings, not bytes.
  Once fewer than ``_ROUND_STRINGS`` strings are open, the rest of each is
  probed at every byte and its tokens are found by pointer doubling over
  the next-token links: the loop count grows with the log of the longest
  string, so one long string costs milliseconds, not a loop per token;
- training parses its sample with that same parse in each iteration,
  counts the gains of symbols and of adjacent token pairs by sorting
  packed (key, length) values, and ranks them by (-gain, bytes) and
  applies the prefix rule as array operations;
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
from .plain import _ranges, _take_strings
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

    __slots__ = ("symbols", "_rows", "_sval", "_smask", "_skey", "_codes")

    def __init__(self, symbols: list[bytes]):
        assert len(symbols) <= MAX_SYMBOLS
        self.symbols = symbols
        self._rows = None  # the match tables: built by the first parse
        self._codes = None  # the literal parser's dict: built by compress_string

    def _index(self) -> None:
        """Build the rows ``_probe`` matches against (decompress reads
        ``symbols`` only), once.

        ``_rows[p]`` is the row of the 2-byte prefix ``p``: rows 0-255 hold
        only the 1-byte symbol of their byte, and each prefix that starts
        a longer symbol has a row of its own. A row lists every symbol that
        can match at an offset with that prefix, one slot each: its key,
        its length mask and ``length << 8 | 255 - code``, so the largest
        value that matches is the longest match (a repeated symbol: its
        first code). An empty slot's value is 0. Trained tables have at
        most two symbols of >= 3 bytes per prefix: rows of at most four
        slots. The arrays are slot-major, ``(slots, rows)``."""
        if self._rows is not None:
            return
        k = len(self.symbols)
        lens = np.fromiter(map(len, self.symbols), np.int64, k)
        mat = np.zeros((k, MAX_SYMBOL_LEN), np.uint8)
        mat[np.arange(MAX_SYMBOL_LEN) < lens[:, None]] = np.frombuffer(b"".join(self.symbols), np.uint8)
        keys = mat.view("<u8").reshape(k)
        multi = np.flatnonzero(lens >= 2)
        pfx, row = np.unique(keys[multi] & np.uint64(0xFFFF), return_inverse=True)
        self._rows = np.tile(np.arange(256, dtype=np.uint16), 256)
        self._rows[pfx.astype(np.intp)] = 256 + np.arange(len(pfx))
        # a 1-byte symbol sits in its byte's row and in each prefix row
        # that starts with its byte
        one = np.flatnonzero(lens == 1)
        hit_one, hit_row = np.nonzero(keys[one, None] == pfx[None, :] & np.uint64(0xFF))
        code = np.concatenate((multi, one, one[hit_one]))
        row = np.concatenate((256 + row.reshape(-1), keys[one].astype(np.int64), 256 + hit_row))
        order = np.lexsort((code, row))
        code, row = code[order], row[order]
        slot = np.arange(len(row)) - np.searchsorted(row, row)
        shape = (int(slot.max(initial=0)) + 1, 256 + len(pfx))
        self._sval = np.zeros(shape, np.uint16)
        self._skey = np.zeros(shape, np.uint64)
        self._sval[slot, row] = lens[code] << 8 | 255 - code
        self._skey[slot, row] = keys[code]
        self._smask = _LEN_MASKS[self._sval >> 8]

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


_LEN_MASKS = np.array(
    [(1 << (8 * ln)) - 1 for ln in range(MAX_SYMBOL_LEN)] + [(1 << 64) - 1],
    np.uint64,
)
# a parse follows the strings still open token by token while at least this
# many are; fewer are finished by pointer doubling, _FOLLOW_BYTES at a time
_ROUND_STRINGS = 32
_FOLLOW_BYTES = 1 << 16
_TALLY_TOKENS = 1 << 16  # training tokens tallied per pass


def _grams(data: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte gram at each offset of ``data`` (zeros past
    its end): a uint64 view, one byte apart, of a zero-padded copy."""
    pad = np.zeros(len(data) + MAX_SYMBOL_LEN, np.uint8)
    pad[: len(data)] = data
    return np.ndarray((len(data),), "<u8", pad, 0, (1,))


def _probe(table: SymbolTable, grams: np.ndarray, pos: np.ndarray, end: np.ndarray):
    """The longest symbol at each offset ``pos`` of a string ending at
    ``end``: (its length, 0 when none matches and the byte is escaped; its
    code). One gather of each offset's row, one compare of its slots."""
    g8 = grams[pos]
    rows = table._rows[(g8 & np.uint64(0xFFFF)).astype(np.intp)]
    val = table._sval.take(rows, axis=1)
    # a slot matches when its symbol's bytes are there and fit in the string
    fits = val < ((np.minimum(end - pos, MAX_SYMBOL_LEN) + 1) << 8).astype(np.uint16)
    fits &= (g8 & table._smask.take(rows, axis=1)) == table._skey.take(rows, axis=1)
    best = (val * fits).max(0)
    return (best >> 8).astype(np.uint8), (255 - best).astype(np.uint8)


def _parse(table: SymbolTable, grams: np.ndarray, offsets: np.ndarray):
    """Every token of each string's greedy longest-match parse, in data
    order: (start offsets, symbol lengths with 0 for an escaped byte,
    codes). Tokens are probed only where they start: each round takes the
    next token of every string still open, and once fewer than
    ``_ROUND_STRINGS`` are open, ``_follow`` finishes them."""
    table._index()
    mark = np.zeros(len(grams), np.uint8)  # 1 + symbol length at each token start
    code = np.zeros(len(grams), np.uint8)
    live = offsets[:-1] < offsets[1:]
    pos, end = offsets[:-1][live], offsets[1:][live]
    while len(pos) >= _ROUND_STRINGS:
        ml, mc = _probe(table, grams, pos, end)
        mark[pos] = ml + 1
        code[pos] = mc
        pos = pos + np.maximum(ml, 1)
        live = pos < end
        pos, end = pos[live], end[live]
    if len(pos):
        _follow(table, grams, pos, end, mark, code)
    tok = np.flatnonzero(mark)
    return tok, mark[tok] - 1, code[tok]


def _follow(table, grams, pos, end, mark, code) -> None:
    """Parse the rest ``[pos, end)`` of each string in passes of at most
    ``_FOLLOW_BYTES`` bytes: probe every byte of each string's next window,
    link it to the token that would follow a token starting there, and
    walk those links from ``pos`` by pointer doubling (step ``j`` adds the
    next ``2**j`` tokens of every string), so the loop count grows with the
    log of the window, not with its token count. A string's last token in
    a window gives its next ``pos``."""
    while len(pos):
        lens = np.minimum(end - pos, max(1, _FOLLOW_BYTES // len(pos)))
        at = _ranges(pos, lens)
        ml, mc = _probe(table, grams, at, np.repeat(end, lens))
        m = len(at)
        step = np.maximum(ml, 1)
        inside = at + step < np.repeat(pos + lens, lens)
        jump = np.full(m + 1, m, np.int64)  # m: past the window
        jump[:m][inside] = (np.arange(m) + step)[inside]
        got = np.cumsum(lens) - lens
        while True:
            nxt = jump[got]
            nxt = nxt[nxt < m]
            if not len(nxt):
                break
            got = np.concatenate((got, nxt))
            jump = jump[jump]
        mark[at[got]] = ml[got] + 1
        code[at[got]] = mc[got]
        last = np.sort(got[~inside[got]])
        pos = at[last] + step[last]
        live = pos < end
        pos, end = pos[live], end[live]


def compress(
    table: SymbolTable, offsets: np.ndarray, data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Compress strings -> (out_offsets int64[n+1], out_data uint8)."""
    offsets = np.asarray(offsets, np.int64)
    data = np.asarray(data, np.uint8)
    if len(data) == 0:
        return offsets.copy(), np.empty(0, np.uint8)
    tok, mlen, code = _parse(table, _grams(data), offsets)
    esc = mlen == 0
    at = np.zeros(len(tok) + 1, np.int64)
    np.cumsum(esc + 1, out=at[1:])
    out = np.empty(int(at[-1]), np.uint8)
    out[at[:-1]] = np.where(esc, np.uint8(ESCAPE), code)
    out[at[:-1][esc] + 1] = data[tok[esc]]
    return at[np.searchsorted(tok, offsets)], out


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
            codes.setdefault(sym, code)  # a repeated symbol keeps its first code
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
    idx = np.arange(0, n, max(1, n // take))
    keep = int(np.searchsorted(np.cumsum(offsets[idx + 1] - offsets[idx]), SAMPLE_TARGET)) + 1
    s_off, sample = _take_strings(offsets, data, idx[:keep])
    if len(sample) == 0:  # the stride found only empty strings
        return SymbolTable([])
    grams = _grams(sample)
    opens = np.zeros(len(sample) + 1, bool)  # where a sampled string starts
    opens[s_off[:-1]] = True
    table = SymbolTable([])
    for _ in range(TRAIN_ITERATIONS):
        table = SymbolTable(_best_symbols(table, grams, s_off, opens))
    return table


def _best_symbols(table: SymbolTable, grams: np.ndarray, s_off: np.ndarray, opens: np.ndarray) -> list[bytes]:
    """One training iteration: parse the sample with ``table`` and gain
    ``len(s)`` for each token ``s`` and each pair of adjacent tokens of one
    string that fits in a symbol; keep the top symbols by gain (ties by
    their bytes), at most TWO of length >= 3 per 2-byte prefix (the FSST
    structural constraint, relaxed to two slots). The tokens are tallied
    ``_TALLY_TOKENS`` at a time (a long first string can make the sample
    long) and the tallies merged."""
    tok, mlen, _ = _parse(table, grams, s_off)
    ln = np.maximum(mlen, 1).astype(np.uint64)
    parts = []
    for a in range(0, len(tok), _TALLY_TOKENS):
        # this slice's tokens, and the pair of each with the next token
        t, n = tok[a : a + _TALLY_TOKENS + 1], ln[a : a + _TALLY_TOKENS + 1]
        g8 = grams[t]
        pl = n[:-1] + n[1:]
        pair = np.flatnonzero(~opens[t[1:]] & (pl <= MAX_SYMBOL_LEN))
        lens = np.concatenate((n[:_TALLY_TOKENS], pl[pair]))
        keys = np.concatenate((g8[:_TALLY_TOKENS], g8[pair])) & _LEN_MASKS[lens]
        parts.append(_tally(keys.byteswap(), lens))
    keys, lens, gain = parts[0] if len(parts) == 1 else _tally(*map(np.concatenate, zip(*parts)))
    # by gain, ties in bytes order: a zero-padded key, then its length
    rank = np.lexsort((lens, keys, -gain))
    keys, lens = keys[rank], lens[rank]
    long = np.flatnonzero(lens >= 3)
    pfx = (keys[long] >> np.uint64(48)).astype(np.uint16)
    by = np.argsort(pfx, kind="stable")
    pfx = pfx[by]
    keep = np.ones(len(keys), bool)
    keep[long[by[np.arange(len(pfx)) - np.searchsorted(pfx, pfx) >= 2]]] = False
    keys, lens = keys[keep][:MAX_SYMBOLS].tolist(), lens[keep][:MAX_SYMBOLS].tolist()
    return [k.to_bytes(MAX_SYMBOL_LEN, "big")[:ln] for k, ln in zip(keys, lens)]


def _tally(keys: np.ndarray, lens: np.ndarray, gains: np.ndarray | None = None):
    """The distinct symbols of big-endian ``keys`` and ``lens``, in no set
    order, each with its gain: count * length, or the sum of ``gains`` when
    given. Below 8 bytes a key's low byte is zero and holds the length, so
    one sort of those values groups them; 8-byte keys (``8 % 8`` ORs in
    nothing) are grouped apart."""
    low = np.uint64(0xFF)
    (short, g_short), (full, g_full) = (
        _group(keys[part] | lens[part] % np.uint64(MAX_SYMBOL_LEN), None if gains is None else gains[part])
        for part in (lens < MAX_SYMBOL_LEN, lens == MAX_SYMBOL_LEN)
    )
    keys = np.concatenate((short & ~low, full))
    lens = np.concatenate((short & low, np.full(len(full), MAX_SYMBOL_LEN, np.uint64)))
    gain = np.concatenate((g_short, g_full))
    return keys, lens, gain if gains is not None else gain * lens.astype(np.int64)


def _group(values: np.ndarray, weights: np.ndarray | None):
    """The distinct ``values`` with their counts (``weights`` None) or
    summed weights."""
    if weights is None:
        return np.unique(values, return_counts=True)
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct, np.bincount(inverse.reshape(-1), weights, len(distinct)).astype(np.int64)


def encode_column(offsets: np.ndarray, data: np.ndarray, table: SymbolTable | None = None) -> bytes:
    """[table][delta_bp lengths][compressed payload]."""
    if table is None:
        table = train(offsets, data)
    return table.serialize() + write_page(table, offsets, data)


def decode_column(buf, n: int) -> tuple[np.ndarray, np.ndarray]:
    table, pos = SymbolTable.deserialize(buf)
    return decompress(table, *read_page(buf[pos:], n))
