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
``unpack_lsb`` call. ``decode(..., at=)`` walks one stream only up to the
run that holds its last selected position and reads a sparse selection's
values one by one from their runs.
"""

from __future__ import annotations

import bisect
import itertools

import numpy as np

from .bitpack import pack_lsb, unpack_lsb
from .varint import uvarint_encode_batch, uvarint_lengths, write_uvarint

MAX_GROUPS = 63  # one-byte bit-packed header: (63 << 1) | 1 = 127
_NONE = np.empty(0, np.int64)


class RleHybridError(ValueError):
    """A hybrid stream that is truncated or overruns its buffer."""


class Plan:
    """Planned hybrid encoding: rle-run arrays + exact byte sizes, no payload
    materialization. ``emit`` does the (single) packing pass.

    ``bounds`` plans a column chunk's pages in one pass: a list of
    ``(start, end)`` value ranges, in order, each planned as its own stream
    (a run breaks at a page start, where the state machine starts afresh).
    ``sizes`` holds each page's byte size and ``emit`` returns one payload
    per page, each equal to ``Plan(values[start:end], width).emit()``.
    Without ``bounds`` the values are one page and ``emit`` returns its
    payload.

    A page's output alternates bit-packed spans and rle-runs: a span of
    8-value groups, then an rle-run of ``counts[i]`` copies of
    ``values[starts[i]]``, ..., and a final span, zero-padded. ``groups``
    holds the 8-value groups of every page's spans in order (``k[p] + 1``
    spans for page ``p`` of ``k[p]`` rle-runs, ``tail[p]`` its final one),
    ``real`` their values, ``page`` the page of each rle-run and ``ends``
    where each page's bytes end."""

    __slots__ = ("values", "width", "edges", "paged", "starts", "counts", "groups",
                 "page", "k", "tail", "real", "ends", "size")

    def __init__(self, values: np.ndarray, width: int, bounds=None):
        v = np.ascontiguousarray(values)
        self.paged = bounds is not None
        if bounds is None:
            edges = np.array([0, len(v)], np.int64)
        else:
            r = np.asarray(bounds, np.int64).reshape(-1, 2)
            edges = np.zeros(len(r) + 1, np.int64)
            np.cumsum(r[:, 1] - r[:, 0], out=edges[1:])
            if len(r) and (r[1:, 0] == r[:-1, 1]).all():
                v = v[r[0, 0] : r[-1, 1]]  # pages that tile a slice: no copy
            else:  # a sample of pages: gather them
                v = np.concatenate([v[a:b] for a, b in r.tolist()] or [v[:0]])
        self.values, self.width, self.edges = v, width, edges
        n, npages = len(v), len(edges) - 1
        starts = counts = lead = page = _NONE
        if n:
            eq = v[1:] == v[:-1]
            if npages > 1:
                cut = edges[1:-1]
                eq[cut[(cut > 0) & (cut < n)] - 1] = False  # no run crosses a page start
            # an rle-run needs >= 8 equal values (>= 7 adjacent-equal pairs):
            # below that every page is one bit-packed span, no run arrays
            if np.count_nonzero(eq) >= 7:
                starts, counts, lead, page = _rle_runs(eq, edges)
        self.starts, self.counts, self.page = starts, counts, page
        if len(starts):
            k = np.bincount(page, minlength=npages)  # rle-runs per page
            tail = np.cumsum(k + 1) - 1  # each page's final span
            # a page's final span holds the values after its last rle-run
            # (or from its start); the spans before rle-runs are whole groups
            rest = edges[:-1].copy()
            some = np.flatnonzero(k)
            rest[some] = (starts + counts)[tail[some] - some - 1]
            real = np.empty(len(starts) + npages, np.int64)  # values per span
            real[np.arange(len(starts)) + page] = lead << 3
            real[tail] = edges[1:] - rest
        else:  # each page is one span
            k, tail, real = np.zeros(npages, np.int64), np.arange(npages), np.diff(edges)
        self.k, self.tail, self.real = k, tail, real
        groups = self.groups = (real + 7) >> 3
        span = (groups + MAX_GROUPS - 1) // MAX_GROUPS + groups * width
        run = uvarint_lengths(counts << 1) + (width + 7) // 8
        self.size = int(span.sum() + run.sum())
        # where each page's bytes end: its spans' bytes and its runs' bytes
        self.ends = np.cumsum(span)[tail]
        if len(starts):
            self.ends += np.concatenate(([0], np.cumsum(run)))[tail - np.arange(npages)]

    @property
    def sizes(self) -> np.ndarray:
        """Each page's byte size."""
        return np.diff(self.ends, prepend=0)

    def emit(self, lut=None):
        """The payload (one page) or the list of page payloads. ``lut``, a
        bijection of the values (a sorted-dictionary id remap), maps each
        value as it is written: runs and sizes are those of the plan."""
        v, width, starts, counts, groups, page = (
            self.values, self.width, self.starts, self.counts, self.groups, self.page
        )
        npages, k, tail, real = len(self.edges) - 1, self.k, self.tail, self.real
        # segments in stream order, per page: span, run, span, ..., span
        span_pos = 2 * np.arange(len(groups)) - np.repeat(np.arange(npages), k + 1)
        run_pos = 2 * np.arange(len(starts)) + page + 1
        # the bit-packed values, each span whole 8-value groups with each
        # page's final group zero-padded, so one pack serves every page
        bp = v
        if len(starts):
            seglen = np.empty(len(span_pos) + len(run_pos), np.int64)
            seglen[span_pos], seglen[run_pos] = real, counts
            packed = np.zeros(len(seglen), bool)
            packed[span_pos] = True
            bp = v[np.repeat(packed, seglen)]
        if lut is not None:
            bp = lut[bp]
        pad = (groups[tail] << 3) - real[tail]
        if npages > 1 and pad[:-1].any():
            keep = np.ones(int(groups.sum()) << 3, bool)
            ends = np.cumsum(groups)[tail] << 3
            keep[np.repeat(ends - np.cumsum(pad), pad) + np.arange(int(pad.sum()))] = False
            full = np.zeros(len(keep), bp.dtype)
            full[keep] = bp
            bp = full
        payload = np.frombuffer(pack_lsb(bp, width), np.uint8)
        vbytes = (width + 7) // 8
        chunks = (groups + MAX_GROUPS - 1) // MAX_GROUPS
        hdr, hlen = uvarint_encode_batch(counts << 1)
        seg = np.empty(len(span_pos) + len(run_pos), np.int64)
        seg[span_pos] = chunks + groups * width
        seg[run_pos] = hlen + vbytes
        off = np.cumsum(seg) - seg
        out = np.empty(self.size, np.uint8)
        free = np.ones(self.size, bool)  # False where header/value bytes go
        # bit-packed headers, one per <= 63 groups
        nck = int(chunks.sum())
        cseg = np.repeat(np.arange(len(groups)), chunks)
        c = np.arange(nck) - np.repeat(np.cumsum(chunks) - chunks, chunks)
        cpos = off[span_pos][cseg] + c * (1 + MAX_GROUPS * width)
        out[cpos] = (np.minimum(groups[cseg] - c * MAX_GROUPS, MAX_GROUPS) << 1) | 1
        free[cpos] = False
        if len(counts):
            # rle-run headers, then their values as vbytes-wide LE ints
            roff = off[run_pos]
            hpos = np.repeat(roff - (np.cumsum(hlen) - hlen), hlen) + np.arange(len(hdr))
            out[hpos] = hdr
            free[hpos] = False
            vpos = (roff + hlen)[:, None] + np.arange(vbytes)
            rv = v[starts] if lut is None else lut[v[starts]]
            out[vpos] = rv.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :vbytes]
            free[vpos] = False
        # payload bytes fill the rest in stream order; the last page's
        # padding bytes, if the pack stopped short of them, are zero
        nfree = len(free) - nck - len(hdr) - len(counts) * vbytes
        if len(payload) < nfree:
            payload = np.concatenate((payload, np.zeros(nfree - len(payload), np.uint8)))
        out[free] = payload
        if not self.paged:
            return out.tobytes()
        ends = self.ends.tolist()
        return [out[a:b].tobytes() for a, b in zip([0, *ends], ends)]


def _rle_runs(eq: np.ndarray, edges: np.ndarray):
    """Apply the state machine's rle-run rule to whole arrays: returns each
    rle-run's first value index and count, the groups of the bit-packed
    span before it (whole groups: the donation completes them) and its page.
    ``eq`` is False across every page start in ``edges``.

    A candidate run (>= 8 equal values) first donates values to complete the
    pending span's last group (``-span % 8``, at most 7) and becomes an
    rle-run when >= 8 values remain, so runs of >= 15 always do; only the
    8-14 runs depend on the span since the previous rle-run of their page
    (or the page start), and only they are visited one by one."""
    # a run of >= 8 equal values is a run of >= 7 equal pairs: AND the
    # pairs over windows of 2, 4, then 7, and the windows' True spans are
    # the candidates, found without listing every value change
    w2 = eq[:-1] & eq[1:]
    w4 = w2[:-2] & w2[2:]
    w7 = np.concatenate(([False], w4[:-3] & w4[3:], [False]))
    d = np.flatnonzero(w7[1:] != w7[:-1])
    s = d[0::2]
    ln = d[1::2] + 7 - s
    page = np.searchsorted(edges, s, "right") - 1
    home = edges[page]  # each run's page start
    rle = ln >= 15
    mid = np.flatnonzero(~rle)
    if len(mid):
        # end of the last long run before each candidate, or its page start
        long_end = np.maximum.accumulate(np.where(rle, s + ln, 0))
        before = np.maximum(np.concatenate(([0], long_end[:-1]))[mid], home[mid])
        last = 0
        for i, a, m, b in zip(mid.tolist(), s[mid].tolist(), ln[mid].tolist(), before.tolist()):
            if b > last:
                last = b
            if m - (last - a) % 8 >= 8:
                rle[i] = True
                last = a + m
    s, ln, home = s[rle], ln[rle], home[rle]
    prev = np.maximum(np.concatenate(([0], (s + ln)[:-1])), home)
    donate = (prev - s) % 8
    return s + donate, ln - donate, (s + donate - prev) >> 3, page[rle]


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


def decode(buf, n, width: int, out_dtype=np.uint32, at=None) -> np.ndarray:
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
    run overruns it raises ``RleHybridError``.

    ``at``, ascending positions within one stream's ``n`` values, returns
    only the values there: the stream is walked only up to the run that
    holds the last position, and ``_pick`` reads the selected values from
    the runs."""
    if not 0 <= width <= 32:
        raise RleHybridError(f"hybrid bit width {width} is outside 0..32")
    many = isinstance(buf, (list, tuple))
    if many and at is not None:
        raise TypeError("positions select from one stream")
    counts = [int(c) for c in n] if many else [n]
    walked = counts if at is None else [int(at[-1]) + 1 if len(at) else 0]
    total = sum(walked)
    if total == 0:
        return np.empty(0, out_dtype)
    if many:
        parts = [p if isinstance(p, np.ndarray) else np.frombuffer(p, np.uint8) for p in buf]
        raw = np.concatenate(parts) if len(parts) > 1 else parts[0]
        sizes = [len(p) for p in parts]
    else:
        raw = buf if isinstance(buf, np.ndarray) else np.frombuffer(buf, np.uint8)
        sizes = [len(raw)]
    if len(raw) >= VECTOR_MIN_BYTES and total >= VECTOR_MIN_DENSITY * len(raw):
        take, code, payload, got = _walk_vector(
            raw, np.array(sizes, np.int64), np.array(walked, np.int64), width
        )
    else:
        take, code, payload, got = _walk_python(raw, sizes, walked, width)
    if at is not None:
        return _pick(take, code, payload, width, out_dtype, np.asarray(at, np.int64))
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
    (dictionary ids: ~150 B per run)."""
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


# ``_pick`` reads the selected values one by one when they are fewer than
# one in this many of the walked values: on an 11,229-value lineitem
# RLE_FOR page, reading 128 values alone costs what filling them all does
PICK_SPAN = 96


def _pick(take, code, payload, width: int, out_dtype, q) -> np.ndarray:
    """The values at ascending positions ``q`` of the runs ``_fill`` would
    fill. A sparse selection reads each rle value from its run and each
    bit-packed value straight from the payload bytes that hold its bits (at
    most 5), rather than unpacking every group; a denser one fills the
    runs and takes."""
    if len(q) * PICK_SPAN >= sum(take):
        return _fill(take, code, payload, width, out_dtype)[q]
    if isinstance(take, np.ndarray):
        take, code = take.tolist(), code.tolist()
    ends = list(itertools.accumulate(take))
    # the bit-packed values through each run: they sit in ``payload`` back
    # to back
    packed = list(itertools.accumulate(t if c < 0 else 0 for t, c in zip(take, code)))
    data = payload.tobytes()
    nb = (width + 14) >> 3
    mask = (1 << width) - 1
    out = []
    for p in q.tolist():
        r = bisect.bisect_right(ends, p)
        value = code[r]
        if value < 0:
            bit = (packed[r] - ends[r] + p) * width
            value = int.from_bytes(data[bit >> 3 : (bit >> 3) + nb], "little") >> (bit & 7) & mask
        out.append(value)
    return np.array(out, out_dtype)


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
