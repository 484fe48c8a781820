"""Legacy parquet ``LZO`` (CompressionCodec id 3) — clean-room LZO1X.

parquet-mr maps codec id 3 to ``com.hadoop.compression.lzo.LzoCodec``
(``CompressionCodecName.java:29``); at page level that is the same Hadoop
``BlockCompressorStream`` framing the legacy LZ4 codec uses
(``parquet-hadoop/.../codec/NonBlockedDecompressorStream.java``): big blocks
of ``[4-byte BE uncompressed length]`` then ``[4-byte BE compressed
length][raw LZO1X block]`` chunks until the block budget is filled.

The LZO1X *block* bitstream is public and documented independently of the
GPL liblzo2 implementation — the instruction grammar below follows the
format description in the Linux kernel's ``Documentation/lzo.txt`` (a spec
document, not code) and is the same format parquet-java itself decodes via
the Apache-2.0 pure-Java ``io.airlift.aircompressor`` ``LzoDecompressor``.
This module is a from-scratch Python implementation of that spec — no
liblzo2, no python-lzo.

Instruction grammar (opcode byte ``t``, ``state`` = literals copied by the
previous instruction):

* first byte ``> 17``: initial literal run of ``t-17`` bytes (``<4`` ⇒ the
  next instruction must be a match, interpreted with ``state = t-17``).
* ``t < 16``, ``state == 0``: long literal run, ``length = 3 + (L or
  15 + 255·zero_bytes + nonzero_byte)``.
* ``t < 16``, ``state ∈ 1..3``: M1 — copy 2 bytes, ``distance = (H<<2) +
  (t>>2) + 1`` (one extra byte ``H``).
* ``t < 16``, ``state == 4``: copy 3 bytes, ``distance = (H<<2) + (t>>2)
  + 2049``.
* ``16 ≤ t < 32`` (M4): ``length = 2 + (t&7 or 7 + 255-run)``, LE16 ⇒
  ``distance = 16384 + ((t>>3 & 1)<<14) + (le>>2)``; ``distance == 16384``
  is end-of-stream (the ``11 00 00`` marker every LZO1X stream ends with).
* ``32 ≤ t < 64`` (M3): ``length = 2 + (t&31 or 31 + 255-run)``, LE16 ⇒
  ``distance = (le>>2) + 1``.
* ``64 ≤ t < 128`` (M2): copy ``3 + (t>>5 & 1)``, ``distance = (H<<3) +
  (t>>2 & 7) + 1``.
* ``t ≥ 128`` (M2): copy ``5 + (t>>5 & 3)``, same distance form.
* every match carries ``S = 2 low bits`` trailing literals; ``state = S``.

The compressor here is a simple greedy hash-chain LZO1X encoder (M2/M3
matches, distance ≤ 16 KiB, min length 4) — it emits valid streams any
LZO1X decoder accepts; it does not try to be byte-identical to liblzo2's
lzo1x_1.  Pure Python on both sides: this is a *legacy-compat* path for
reading (and fixture-writing) old Hadoop/Spark LZO lakes, not a hot codec —
the selector never chooses it.
"""

from __future__ import annotations

import struct
import sys

import pyarrow as pa

_BE32 = struct.Struct(">I")

# Hadoop BlockCompressorStream chunk cap, same default the LZ4 path uses
_HADOOP_CHUNK = 256 * 1024

_EOF = b"\x11\x00\x00"  # M4 with distance == 16384: end-of-stream marker


# ---------------------------------------------------------------- decode


def lzo1x_decompress(src: bytes, max_out: int = sys.maxsize) -> bytes:
    """Decode one raw LZO1X block (self-terminating via the EOF marker).

    Raises ValueError as soon as the output would pass ``max_out`` bytes: a
    255-run length extension lets each input byte add 255 output bytes."""
    out = bytearray()
    i, n = 0, len(src)
    if n < 3:
        raise ValueError("LZO1X block too short")
    state = 0
    first = src[0]
    if first > 17:
        i = 1
        t = first - 17
        out += src[i : i + t]
        if len(out) != t:
            raise ValueError("LZO1X truncated initial literal run")
        i += t
        state = t if t < 4 else 4
    # first byte ≤ 17 falls through to the regular instruction loop (an
    # empty stream is just the EOF marker, whose opcode is 17)
    try:
        while True:
            t = src[i]
            i += 1
            if t < 16:
                if state == 0:  # long literal run
                    if t == 0:
                        length = 18
                        while src[i] == 0:
                            length += 255
                            i += 1
                        length += src[i]
                        i += 1
                    else:
                        length = t + 3
                    if len(out) + length > max_out:
                        raise ValueError(f"LZO1X output exceeds {max_out} bytes")
                    out += src[i : i + length]
                    i += length
                    if i > n:
                        raise ValueError("LZO1X truncated literal run")
                    state = 4
                    continue
                if state == 4:  # 3-byte copy from 2..3 kB back
                    h = src[i]
                    i += 1
                    dist = (h << 2) + (t >> 2) + 2049
                    length = 3
                else:  # state 1..3 — M1 2-byte copy within 1 kB
                    h = src[i]
                    i += 1
                    dist = (h << 2) + (t >> 2) + 1
                    length = 2
                s = t & 3
            elif t < 32:  # M4
                length = t & 7
                if length == 0:
                    length = 9
                    while src[i] == 0:
                        length += 255
                        i += 1
                    length += src[i]
                    i += 1
                else:
                    length += 2
                le = src[i] | (src[i + 1] << 8)
                i += 2
                dist = 16384 + ((t >> 3 & 1) << 14) + (le >> 2)
                s = le & 3
                if dist == 16384:
                    break  # end of stream
            elif t < 64:  # M3
                length = t & 31
                if length == 0:
                    length = 33
                    while src[i] == 0:
                        length += 255
                        i += 1
                    length += src[i]
                    i += 1
                else:
                    length += 2
                le = src[i] | (src[i + 1] << 8)
                i += 2
                dist = (le >> 2) + 1
                s = le & 3
            elif t < 128:  # M2 short
                length = 3 + (t >> 5 & 1)
                h = src[i]
                i += 1
                dist = (h << 3) + (t >> 2 & 7) + 1
                s = t & 3
            else:  # M2 long
                length = 5 + (t >> 5 & 3)
                h = src[i]
                i += 1
                dist = (h << 3) + (t >> 2 & 7) + 1
                s = t & 3
            if dist > len(out):
                raise ValueError("LZO1X match distance beyond output")
            if len(out) + length > max_out:
                raise ValueError(f"LZO1X output exceeds {max_out} bytes")
            start = len(out) - dist
            if dist >= length:
                out += out[start : start + length]
            else:  # overlapping match repeats the offset span
                pattern = out[start:]
                reps, rem = divmod(length, dist)
                out += pattern * reps + pattern[:rem]
            if s:
                out += src[i : i + s]
                i += s
                if i > n:
                    raise ValueError("LZO1X truncated trailing literals")
            state = s
    except IndexError:
        raise ValueError("LZO1X stream truncated") from None
    if len(out) > max_out:
        raise ValueError(f"LZO1X output exceeds {max_out} bytes")
    return bytes(out)


# ---------------------------------------------------------------- encode


def _emit_literals(
    out: bytearray, lits: memoryview, s_patch: int | None, at_start: bool
) -> None:
    """Append a pending literal run.

    ``s_patch`` is the index of the byte holding the previous match's S
    bits (always emitted 0): runs of 1..3 literals are attached there, the
    only legal encoding for short runs mid-stream.  Runs of ≥4 mid-stream
    use the ``0000LLLL`` form, which requires ``state == 0`` — guaranteed
    because the caller only patches S bits for runs ≤ 3.
    """
    t = len(lits)
    if t == 0:
        return
    if t <= 3:
        if at_start:  # first-byte short form: copy t literals, then a match
            out.append(17 + t)
        else:
            assert s_patch is not None, "short mid-stream run needs S bits"
            out[s_patch] |= t
        out += lits
        return
    if at_start and t <= 238:  # first-byte long form
        out.append(17 + t)
    elif t <= 18:  # 0000LLLL, length = L + 3 (state == 0 here)
        out.append(t - 3)
    else:  # 00000000 + 255-run extension, length = 18 + 255z + nz
        out.append(0)
        z, nz = divmod(t - 18 - 1, 255)
        out += b"\x00" * z
        out.append(nz + 1)
    out += lits


def lzo1x_compress(data: bytes) -> bytes:
    """Greedy LZO1X encoder: M2/M3 matches (distance ≤ 16 KiB, length ≥ 4),
    literal runs otherwise.  Output is a valid self-terminated LZO1X block.
    """
    src = memoryview(data)
    n = len(data)
    out = bytearray()
    table: dict[bytes, int] = {}
    lit_start = 0  # start of the pending literal run
    s_patch: int | None = None  # S-bits byte of the last emitted match
    i = 0
    while i + 4 <= n:
        key = bytes(src[i : i + 4])
        cand = table.get(key)
        table[key] = i
        if cand is None or i - cand > 16384:
            i += 1
            continue
        dist = i - cand
        # extend the match
        length = 4
        max_len = n - i
        while length < max_len and src[cand + length] == src[i + length]:
            length += 1
        # flush pending literals (1..3 go into the previous match's S bits)
        _emit_literals(out, src[lit_start:i], s_patch, at_start=s_patch is None)
        # emit the match with S = 0; patched later if short literals follow
        if length <= 8 and dist <= 2048:
            d = dist - 1
            if length <= 4:
                op = 0x40 | ((length - 3) << 5) | ((d & 7) << 2)
            else:
                op = 0x80 | ((length - 5) << 5) | ((d & 7) << 2)
            s_patch = len(out)
            out.append(op)
            out.append(d >> 3)
        else:  # M3: any length, distance ≤ 16384
            rem = length - 2
            if rem <= 31:
                out.append(0x20 | rem)
            else:
                out.append(0x20)
                z, nz = divmod(rem - 31 - 1, 255)
                out += b"\x00" * z
                out.append(nz + 1)
            le = (dist - 1) << 2
            s_patch = len(out)
            out.append(le & 0xFF)
            out.append(le >> 8)
        # seed the table along the match so later data can reference it
        end = i + length
        for j in range(i + 1, min(end, n - 3)):
            table[bytes(src[j : j + 4])] = j
        i = end
        lit_start = i
    # trailing literals + EOF
    _emit_literals(out, src[lit_start:n], s_patch, at_start=s_patch is None)
    out += _EOF
    return bytes(out)


class _Buf(bytes):
    """bytes that also answers ``to_pybytes()`` (pa.Buffer-compatible)."""

    def to_pybytes(self) -> bytes:
        return bytes(self)


class LzoHadoopCodec:
    """Duck-typed like ``pa.Codec`` for the page (de)compression call
    sites, carrying Hadoop block framing around raw LZO1X blocks."""

    name = "lzo"

    def compress(self, data: bytes):
        parts = [_BE32.pack(len(data))]
        for pos in range(0, len(data), _HADOOP_CHUNK):
            chunk = lzo1x_compress(bytes(data[pos : pos + _HADOOP_CHUNK]))
            parts.append(_BE32.pack(len(chunk)))
            parts.append(chunk)
        return pa.py_buffer(b"".join(parts))

    def decompress(self, data: bytes, uncompressed_size: int) -> bytes:
        out: list[bytes] = []
        pos, total = 0, 0
        data = bytes(data)
        while pos < len(data):
            if len(data) - pos < 4:
                raise ValueError("LZO page: truncated block header")
            (block_len,) = _BE32.unpack_from(data, pos)
            pos += 4
            if block_len > uncompressed_size - total:
                raise ValueError("LZO page: block length exceeds page size")
            produced = 0
            while produced < block_len:
                if len(data) - pos < 4:
                    raise ValueError("LZO page: truncated chunk header")
                (clen,) = _BE32.unpack_from(data, pos)
                pos += 4
                if clen > len(data) - pos:
                    raise ValueError("LZO page: chunk overruns page body")
                piece = lzo1x_decompress(data[pos : pos + clen], block_len - produced)
                pos += clen
                out.append(piece)
                produced += len(piece)
            total += block_len
        if total != uncompressed_size:
            raise ValueError(
                f"LZO page: decoded {total} bytes, footer says "
                f"{uncompressed_size}"
            )
        return _Buf(b"".join(out))
