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
"""

from __future__ import annotations

import numpy as np

from .bitpack import pack_lsb, unpack_lsb
from .varint import read_uvarint, uvarint_encode_batch, uvarint_lengths, write_uvarint

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


def decode(buf, n: int, width: int, out_dtype=np.uint32) -> np.ndarray:
    """Decode n values; mirrors RunLengthBitPackingHybridDecoder.java:61-108.

    Two passes: a python skip-walk collects run descriptors (touching only
    header bytes), then ALL bit-packed payloads unpack in one vectorized
    call (group packing is byte-aligned, so concatenated payloads form one
    valid stream) and scatter back by run; RLE runs are slice fills."""
    out = np.empty(n, out_dtype)
    if n == 0:
        return out
    raw = buf if isinstance(buf, np.ndarray) else np.frombuffer(buf, np.uint8)
    rb = raw.tobytes()
    vbytes = (width + 7) // 8
    pos = 0
    i = 0
    bp_runs: list[tuple[int, int, int, int, int]] = []
    rle_runs: list[tuple[int, int, int]] = []
    try:
        while pos < n:
            b = rb[i]
            i += 1
            header = b & 0x7F
            shift = 7
            while b & 0x80:
                b = rb[i]
                i += 1
                header |= (b & 0x7F) << shift
                shift += 7
            if header & 1:  # bit-packed run
                groups = header >> 1
                cnt = groups * 8
                nbytes = groups * width
                take = cnt if cnt <= n - pos else n - pos
                # width 0 has no payload: unpack only the values kept
                bp_runs.append((i, nbytes, cnt if width else take, pos, take))
                i += nbytes
                pos += take
            else:  # rle run
                cnt = header >> 1
                value = int.from_bytes(rb[i : i + vbytes], "little")
                i += vbytes
                rle_runs.append((pos, cnt, value))
                pos += cnt
    except IndexError:
        raise RleHybridError(f"hybrid stream truncated in a run header at byte {i}") from None
    if i > len(rb):  # i only grows: any payload or rle value past the end
        raise RleHybridError(f"hybrid stream needs {i} bytes, has {len(rb)}")
    if bp_runs:
        if len(bp_runs) == 1:
            s, nb, cnt, opos, take = bp_runs[0]
            vals = unpack_lsb(raw[s : s + nb], cnt, width, out_dtype)
            out[opos : opos + take] = vals[:take]
        else:
            payload = np.concatenate([raw[s : s + nb] for s, nb, _, _, _ in bp_runs])
            total = sum(c for _, _, c, _, _ in bp_runs)
            vals = unpack_lsb(payload, total, width, out_dtype)
            base = 0
            for _, _, cnt, opos, take in bp_runs:
                out[opos : opos + take] = vals[base : base + take]
                base += cnt
    for opos, cnt, value in rle_runs:
        out[opos : opos + cnt] = value
    return out


def encode_framed(values: np.ndarray, width: int) -> bytes:
    """4-byte LE length prefix + hybrid payload; mirrors
    RunLengthBitPackingHybridValuesWriter.java:66-71 (V1 levels / BOOLEAN V2)."""
    payload = encode(values, width)
    return len(payload).to_bytes(4, "little") + payload


def decode_framed(buf, n: int, width: int, out_dtype=np.uint32) -> tuple[np.ndarray, int]:
    """Returns (values, bytes_consumed_including_frame)."""
    ln = int.from_bytes(bytes(buf[:4]), "little")
    if len(buf) < 4 + ln:
        raise RleHybridError(f"hybrid frame of {ln} bytes overruns a {len(buf)}-byte buffer")
    return decode(buf[4 : 4 + ln], n, width, out_dtype), 4 + ln
