"""RLE / bit-packed hybrid encoding.

Grammar (mirrors
`parquet-column/.../values/rle/RunLengthBitPackingHybridEncoder.java:36-51`):

    encoded-data      := <run>*
    run               := <bit-packed-run> | <rle-run>
    bit-packed-run    := varint((groups << 1) | 1) <groups*width bytes>   (groups <= 63)
    rle-run           := varint(count << 1) <value in ceil(width/8) bytes LE>

Run-emission rule (state machine at
`RunLengthBitPackingHybridEncoder.java:146-273`): values buffer in groups of
8; a value repeated >= 8 times consecutively *since the last 8-group flush*
becomes an rle-run; buffered groups flush into bit-packed runs capped at 63
groups (504 values); on final flush a partial group is zero-padded.

``encode`` reproduces that state machine byte-for-byte on whole arrays:
``Plan`` finds the rle-runs with array ops and ``Plan.emit`` packs every
bit-packed value of the page in one call; ``encode_scalar`` is a direct
transliteration of the state machine used by tests to prove equivalence.

``decode`` takes one stream or a column chunk's pages as many independent
streams. It finds the runs with a python skip-walk over the headers, or,
for level-dense streams, with an array walk (a next-header offset at every
byte, chained by pointer doubling) whose cost follows the bytes rather than
the runs; either way the values are filled by one ``np.repeat`` and one
``unpack_lsb`` call.
"""

from __future__ import annotations

import numpy as np

from .bitpack import pack_lsb, unpack_lsb
from .varint import uvarint_encode_batch, uvarint_lengths, write_uvarint

MAX_GROUPS = 63  # one-byte bit-packed header: (63 << 1) | 1 = 127
_NONE = np.empty(0, np.int64)


class RleHybridError(ValueError):
    """A hybrid stream that is truncated or overruns its buffer."""


class Plan:
    """Planned hybrid encoding: rle-run arrays + exact byte size, no payload
    materialization. ``emit`` does the (single) packing pass.

    The output alternates bit-packed spans and rle-runs: ``groups[i]`` 8-value
    groups, then the rle-run of ``counts[i]`` copies of ``values[starts[i]]``,
    and a final span of ``groups[-1]`` groups, zero-padded."""

    __slots__ = ("values", "width", "starts", "counts", "groups", "size")

    def __init__(self, values: np.ndarray, width: int):
        v = np.ascontiguousarray(values)
        self.values = v
        self.width = width
        n = len(v)
        starts = counts = lead = _NONE
        if n:
            eq = v[1:] == v[:-1]
            # an rle-run needs >= 8 equal values (>= 7 adjacent-equal pairs):
            # below that the page is one bit-packed span, no run arrays
            if np.count_nonzero(eq) >= 7:
                starts, counts, lead = _rle_runs(eq, n)
        tail = n - int(starts[-1] + counts[-1]) if len(starts) else n
        groups = np.append(lead, (tail + 7) >> 3)
        self.starts, self.counts, self.groups = starts, counts, groups
        headers = int(((groups + MAX_GROUPS - 1) // MAX_GROUPS).sum())
        self.size = (
            headers
            + int(groups.sum()) * width
            + int(uvarint_lengths(counts << 1).sum())
            + len(counts) * ((width + 7) // 8)
        )

    def emit(self) -> bytes:
        v, width, starts, counts, groups = (
            self.values, self.width, self.starts, self.counts, self.groups
        )
        if len(starts):
            # the spans before each rle-run and the tail, in order: the
            # bit-packed stream
            begin = np.concatenate(([0], starts + counts))
            span = np.minimum(groups << 3, len(v) - begin)
            shift = begin - (np.cumsum(span) - span)
            bp = v[np.repeat(shift, span) + np.arange(int(span.sum()))]
        else:
            bp = v  # one span: no gather
        payload = np.frombuffer(pack_lsb(bp, width), np.uint8)
        # per segment (span, run, span, ..., run, span): its output offset
        vbytes = (width + 7) // 8
        chunks = (groups + MAX_GROUPS - 1) // MAX_GROUPS
        hdr, hlen = uvarint_encode_batch(counts << 1)
        seg = np.empty(2 * len(groups) - 1, np.int64)
        seg[0::2] = chunks + groups * width
        seg[1::2] = hlen + vbytes
        off = np.cumsum(seg) - seg
        out = np.zeros(self.size, np.uint8)
        free = np.ones(self.size, bool)  # False where header/value bytes go
        # bit-packed headers, one per <= 63 groups
        nck = int(chunks.sum())
        cseg = np.repeat(np.arange(len(groups)), chunks)
        k = np.arange(nck) - np.repeat(np.cumsum(chunks) - chunks, chunks)
        cpos = off[0::2][cseg] + k * (1 + MAX_GROUPS * width)
        out[cpos] = (np.minimum(groups[cseg] - k * MAX_GROUPS, MAX_GROUPS) << 1) | 1
        free[cpos] = False
        if len(counts):
            # rle-run headers, then their values as vbytes-wide LE ints
            roff = off[1::2]
            hpos = np.repeat(roff - (np.cumsum(hlen) - hlen), hlen) + np.arange(len(hdr))
            out[hpos] = hdr
            free[hpos] = False
            vpos = (roff + hlen)[:, None] + np.arange(vbytes)
            rv = v[starts].astype("<u8").view(np.uint8).reshape(-1, 8)[:, :vbytes]
            out[vpos] = rv
            free[vpos] = False
        # payload bytes fill the rest in stream order; the final partial
        # group's padding stays zero
        out[np.flatnonzero(free)[: len(payload)]] = payload
        return out.tobytes()


def _rle_runs(eq: np.ndarray, n: int):
    """Apply the state machine's rle-run rule to whole arrays: returns each
    rle-run's first value index and count, and the groups of the bit-packed
    span before it (whole groups: the donation completes them).

    A candidate run (>= 8 equal values) first donates values to complete the
    pending span's last group (``-span % 8``, at most 7) and becomes an
    rle-run when >= 8 values remain, so runs of >= 15 always do; only the
    8-14 runs depend on the span since the previous rle-run, and only they
    are visited one by one."""
    change = np.flatnonzero(~eq) + 1
    starts = np.concatenate(([0], change))
    lengths = np.diff(np.concatenate((starts, [n])))
    cand = np.flatnonzero(lengths >= 8)
    s, ln = starts[cand], lengths[cand]
    rle = ln >= 15
    mid = np.flatnonzero(~rle)
    if len(mid):
        # end of the last long run before each candidate (0 if none)
        long_end = np.maximum.accumulate(np.where(rle, s + ln, 0))
        before = np.concatenate(([0], long_end[:-1]))[mid]
        last = 0
        for i, a, m, b in zip(mid.tolist(), s[mid].tolist(), ln[mid].tolist(), before.tolist()):
            if b > last:
                last = b
            if m - (last - a) % 8 >= 8:
                rle[i] = True
                last = a + m
    s, ln = s[rle], ln[rle]
    prev = np.concatenate(([0], (s + ln)[:-1]))
    donate = (prev - s) % 8
    return s + donate, ln - donate, (s + donate - prev) >> 3


def encode(values: np.ndarray, width: int) -> bytes:
    """Vectorized hybrid encode; byte-identical to the reference state machine."""
    return Plan(values, width).emit()


def encode_scalar(values, width: int) -> bytes:
    """Direct transliteration of the reference state machine
    (`RunLengthBitPackingHybridEncoder.java:146-273`); test oracle only."""
    out = bytearray()
    previous = 0
    buffered: list[int] = []
    repeat = 0
    group_count = 0
    header_ptr = -1

    def end_bp_run() -> None:
        nonlocal header_ptr, group_count
        if header_ptr == -1:
            return
        out[header_ptr] = (group_count << 1) | 1
        header_ptr = -1
        group_count = 0

    def write_bp_group() -> None:
        nonlocal header_ptr, group_count, buffered, repeat
        if group_count >= MAX_GROUPS:
            end_bp_run()
        if header_ptr == -1:
            out.append(0)
            header_ptr = len(out) - 1
        out.extend(pack_lsb(np.array(buffered, np.uint64), width))
        buffered = []
        repeat = 0
        group_count += 1

    def write_rle_run() -> None:
        nonlocal repeat, buffered
        end_bp_run()
        write_uvarint(out, repeat << 1)
        out.extend(int(previous).to_bytes((width + 7) // 8, "little"))
        repeat = 0
        buffered = []

    for value in values:
        value = int(value)
        if value == previous:
            repeat += 1
            if repeat >= 8:
                continue
        else:
            if repeat >= 8:
                write_rle_run()
            repeat = 1
            previous = value
        buffered.append(value)
        if len(buffered) == 8:
            write_bp_group()

    if repeat >= 8:
        write_rle_run()
    elif buffered:
        buffered += [0] * (8 - len(buffered))
        write_bp_group()
        end_bp_run()
    else:
        end_bp_run()
    return bytes(out)


def decode(buf, n, width: int, out_dtype=np.uint32) -> np.ndarray:
    """Decode ``n`` values of one stream, or of many: ``buf`` may be a list
    of independent streams (a column chunk's level runs, one per page) with
    ``n`` their value counts, decoded into one concatenated array. Mirrors
    RunLengthBitPackingHybridDecoder.java:61-108.

    Two passes. A walk lists each stream's runs and gathers their
    bit-packed payloads: a python skip-walk that touches only header bytes
    and slices each payload, or, for level-dense streams of at least
    ``VECTOR_MIN_BYTES``, ``_walk_vector``'s array walk and byte mask, whose
    cost follows the bytes rather than the runs. ``_fill`` then fills every
    rle-run with one ``np.repeat`` and unpacks every bit-packed payload with
    one ``unpack_lsb`` call (group packing is byte-aligned, so concatenated
    payloads form one valid stream). A stream that is truncated or whose
    run overruns it raises ``RleHybridError``."""
    if not 0 <= width <= 32:
        raise RleHybridError(f"hybrid bit width {width} is outside 0..32")
    counts = [int(c) for c in n] if isinstance(buf, (list, tuple)) else [n]
    total = sum(counts)
    if total == 0:
        return np.empty(0, out_dtype)
    if isinstance(buf, (list, tuple)):
        parts = [p if isinstance(p, np.ndarray) else np.frombuffer(p, np.uint8) for p in buf]
        raw = np.concatenate(parts) if len(parts) > 1 else parts[0]
        sizes = [len(p) for p in parts]
    else:
        raw = buf if isinstance(buf, np.ndarray) else np.frombuffer(buf, np.uint8)
        sizes = [len(raw)]
    if len(raw) >= VECTOR_MIN_BYTES and total >= VECTOR_MIN_DENSITY * len(raw):
        take, code, payload, got = _walk_vector(
            raw, np.array(sizes, np.int64), np.array(counts, np.int64), width
        )
    else:
        take, code, payload, got = _walk_python(raw, sizes, counts, width)
    out = _fill(take, code, payload, width, out_dtype)
    if len(out) == total:
        return out
    # a stream's last run, cut by its count, unpacked its whole last group:
    # each stream keeps its first count values
    start = (np.cumsum(got) - got).tolist()
    kept = [out[a : a + c] for a, c in zip(start, counts) if c]
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


# the array walk takes a decode of at least this many bytes with at least
# this many values per byte: rle-dense level streams, whose runs are a few
# bytes each. Sparse streams (dictionary ids: ~150 B per run) and single
# small pages stay on the python walk, whose cost is per run
VECTOR_MIN_BYTES = 2048
VECTOR_MIN_DENSITY = 8
MAX_HEADER_BYTES = 5  # a run header is the uvarint of an int32


def _truncated(at: int) -> RleHybridError:
    return RleHybridError(f"hybrid stream truncated in a run header at byte {at}")


def _overrun(at: int, size: int) -> RleHybridError:
    return RleHybridError(f"hybrid run at byte {at} overruns its {size}-byte stream")


def _walk_python(raw, sizes, counts, width: int):
    """Each stream's runs until its count is met, as ``_fill`` takes them:
    a value count per run and its rle value (-1: bit-packed), the
    bit-packed payloads in order, and the values each stream's runs hold.
    The last run is cut to the count, a bit-packed one to whole groups. The
    walk costs per run, and so does its gather: a slice per bit-packed run,
    which beats ``_walk_vector``'s byte mask on few runs or long ones
    (dictionary ids' ~1 KiB runs)."""
    vbytes = (width + 7) // 8
    take: list[int] = []
    code: list[int] = []
    got: list[int] = []
    parts: list[bytes] = []
    s = 0
    for size, n in zip(sizes, counts):
        rb = raw[s : s + size].tobytes()
        pos = i = 0
        try:
            while pos < n:
                at = i
                b = rb[i]
                i += 1
                header = b & 0x7F
                shift = 7
                while b & 0x80:
                    if shift == 7 * MAX_HEADER_BYTES:
                        raise _truncated(at)
                    b = rb[i]
                    i += 1
                    header |= (b & 0x7F) << shift
                    shift += 7
                cnt = header >> 1
                if header & 1:  # bit-packed run
                    code.append(-1)
                    parts.append(rb[i : i + cnt * width])
                    i += cnt * width
                    cnt <<= 3
                else:  # rle run
                    code.append(int.from_bytes(rb[i : i + vbytes], "little"))
                    i += vbytes
                if i > size:
                    raise _overrun(at, size)
                take.append(cnt)
                pos += cnt
        except IndexError:  # the stream ends inside, or before, a header
            raise _truncated(at) from None
        if pos > n:  # the last run, cut by the count
            over = pos - n if code[-1] >= 0 else (pos - n) & ~7
            take[-1] -= over
            pos -= over
            if code[-1] < 0:
                parts[-1] = parts[-1][: (take[-1] >> 3) * width]
        got.append(pos)
        s += size
    return take, code, np.frombuffer(b"".join(parts), np.uint8), got


def _walk_vector(raw, sizes, counts, width: int):
    """``_walk_python``'s runs with array ops. The header that would start
    at every byte gives that byte's next-header offset, clamped to a sink
    at the end of the byte's own stream (a run never reads into the next
    page), and pointer doubling from each stream's first byte collects its
    chain; the runs past a stream's count are dropped and the last is cut
    as there."""
    size = len(raw)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    at = np.arange(size, dtype=np.int64)
    end = np.repeat(ends, sizes)
    h, hl, bad = _headers(raw, at, end)
    cnt = h >> 1
    nxt = at + hl + np.where(h & 1, cnt * width, (width + 7) // 8)
    jump = np.append(np.where(bad | (nxt >= end), size, nxt), size).astype(np.intp)
    on = np.zeros(size + 1, bool)
    on[starts[(counts > 0) & (sizes > 0)]] = True
    while True:  # on: the chain runs < 2**k runs from a start; jump: 2**k runs
        dst = jump[on]
        dst = dst[dst < size]
        if not len(dst):
            break
        on[dst] = True
        jump = jump[jump]
    nodes = np.flatnonzero(on)
    sid = np.searchsorted(starts, nodes, "right") - 1
    bp = (h[nodes] & 1).astype(bool)
    nvals = np.where(bp, cnt[nodes] << 3, cnt[nodes])
    # values of its stream before each run; runs past the count are unread
    before = np.cumsum(nvals) - nvals
    before -= np.append(before, 0)[np.searchsorted(sid, np.arange(len(sizes)))][sid]
    need = counts[sid] - before
    live = need > 0
    nodes, sid, bp, nvals, need = nodes[live], sid[live], bp[live], nvals[live], need[live]
    take = np.minimum(nvals, np.where(bp, (need + 7) & ~7, need))
    got = np.bincount(sid, take, len(sizes)).astype(np.int64)
    fault = np.flatnonzero(bad[nodes] | (nxt[nodes] > end[nodes]))
    short = np.flatnonzero(got < counts)
    if len(fault) or len(short):
        k = min(sid[fault[0]] if len(fault) else len(sizes), short[0] if len(short) else len(sizes))
        if len(fault) and sid[fault[0]] == k:
            j = nodes[fault[0]]
            raise (_truncated(int(j - starts[k])) if bad[j]
                   else _overrun(int(j - starts[k]), int(sizes[k])))
        raise _truncated(int(sizes[k]))
    body = nodes + hl[nodes]
    code = np.full(len(nodes), -1, np.int64)
    rle = np.flatnonzero(~bp)
    code[rle] = 0
    for k in range((width + 7) // 8):
        code[rle] |= raw[body[rle] + k].astype(np.int64) << (8 * k)
    # the payloads are the bytes between the headers: one byte mask keeps
    # them, at a cost per byte like the walk's
    body = body[bp]
    span = np.empty(2 * len(body), np.int64)  # (gap, payload) byte counts
    span[1::2] = (take[bp] >> 3) * width
    span[0::2] = body
    span[2::2] -= body[:-1] + span[1:-1:2]
    payload = raw[: int(span.sum())][np.repeat((np.arange(len(span)) & 1).astype(bool), span)]
    return take, code, payload, got


def _headers(raw, at, end):
    """(value, length, bad) of the uvarint run header at each offset ``at``;
    bad where ``end`` cuts it off or it runs past MAX_HEADER_BYTES."""
    b = raw[at]
    h = (b & 0x7F).astype(np.int64)
    hl = np.ones(len(at), np.int64)
    bad = np.zeros(len(at), bool)
    more = np.flatnonzero(b & 0x80)
    for k in range(1, MAX_HEADER_BYTES):
        if not len(more):
            return h, hl, bad
        p = at[more] + k
        cut = p >= end[more]
        bad[more[cut]] = True
        more, p = more[~cut], p[~cut]
        b = raw[p]
        h[more] |= (b & 0x7F).astype(np.int64) << (7 * k)
        hl[more] += 1
        more = more[(b & 0x80) != 0]
    bad[more] = True
    return h, hl, bad


def _fill(take, code, payload, width: int, out_dtype) -> np.ndarray:
    """The runs' values in order: one ``np.repeat`` of the rle values, and
    the bit-packed runs' slots take their values from one ``unpack_lsb``
    call over all their payloads (whole groups)."""
    take = np.asarray(take, np.int64)
    code = np.asarray(code, np.int64)
    isbp = code < 0
    if not width or not isbp.any():  # rle runs only, or bit-packed zeros
        return np.repeat(np.maximum(code, 0).astype(out_dtype), take)
    vals = unpack_lsb(payload, int(take[isbp].sum()), width, out_dtype)
    if isbp.all():
        return vals
    out = np.repeat(np.maximum(code, 0).astype(out_dtype), take)
    out[np.repeat(isbp, take)] = vals
    return out


def encode_framed(values: np.ndarray, width: int) -> bytes:
    """4-byte LE length prefix + hybrid payload; mirrors
    RunLengthBitPackingHybridValuesWriter.java:66-71 (V1 levels / BOOLEAN V2)."""
    payload = encode(values, width)
    return len(payload).to_bytes(4, "little") + payload


def unframe(buf) -> tuple:
    """(hybrid payload, bytes used including the frame) of a 4-byte LE
    length-framed stream."""
    ln = int.from_bytes(bytes(buf[:4]), "little")
    if len(buf) < 4 + ln:
        raise RleHybridError(f"hybrid frame of {ln} bytes overruns a {len(buf)}-byte buffer")
    return buf[4 : 4 + ln], 4 + ln


def decode_framed(buf, n: int, width: int, out_dtype=np.uint32) -> tuple[np.ndarray, int]:
    """Returns (values, bytes_consumed_including_frame)."""
    payload, used = unframe(buf)
    return decode(payload, n, width, out_dtype), used
