"""Legacy parquet ``LZ4`` (codec id 5) — Hadoop block framing + the
parquet-cpp raw-block dialect.

The deprecated ``LZ4`` codec (``CompressionCodecName.java:31``) has two
incompatible on-disk dialects, both public:

* **Hadoop framing** (parquet-mr via ``Lz4Codec`` /
  ``parquet-hadoop/.../codec/NonBlockedDecompressorStream.java``): the page
  body is a sequence of *big blocks*, each ``[4-byte BE uncompressed length]``
  followed by one or more chunks of ``[4-byte BE compressed length][raw LZ4
  block]`` until the block's uncompressed budget is filled.  One chunk per
  block is the norm (chunk cap = the compressor buffer, 256 KiB default).
* **Raw block** (historical parquet-cpp, still what pyarrow writes for
  ``compression='LZ4'``): the page body is a single headerless LZ4 block.

Arrow's reader reconciles the two by *trying* Hadoop framing and falling
back to raw (``arrow/util/compression_lz4.cc`` ``Lz4HadoopCodec``); we do
the same so files from old Spark/parquet-mr lakes AND old parquet-cpp both
decode.  ``LZO`` (id 3, ``CompressionCodecName.java:29``) decodes through
the clean-room LZO1X implementation in ``codecs/lzo.py`` (same Hadoop
framing, different block format).
"""

from __future__ import annotations

import struct

import pyarrow as pa

_BE32 = struct.Struct(">I")

# Hadoop BlockCompressorStream chunk cap (io.compression.codec.lz4.buffersize)
_HADOOP_CHUNK = 256 * 1024


def _lz4_block_decompress(src: bytes) -> bytes:
    """Pure-python raw LZ4 block decode (size-free: runs to end of input).

    Only used for middle chunks of a multi-chunk Hadoop block, whose exact
    uncompressed size isn't recorded anywhere (pyarrow's lz4_raw needs the
    exact size).  The LZ4 block format is public: per sequence, a token byte
    (hi nibble literal length, lo nibble match length - 4), optional 255-run
    length extensions, literals, then a 2-byte LE match offset.
    """
    out = bytearray()
    i, n = 0, len(src)
    while i < n:
        token = src[i]
        i += 1
        lit = token >> 4
        if lit == 15:
            while True:
                b = src[i]
                i += 1
                lit += b
                if b != 255:
                    break
        out += src[i : i + lit]
        i += lit
        if i >= n:  # last sequence: literals only
            break
        off = src[i] | (src[i + 1] << 8)
        i += 2
        if off == 0 or off > len(out):
            raise ValueError("corrupt LZ4 block: bad match offset")
        ml = (token & 15) + 4
        if (token & 15) == 15:
            while True:
                b = src[i]
                i += 1
                ml += b
                if b != 255:
                    break
        start = len(out) - off
        if off >= ml:
            out += out[start : start + ml]
        else:  # overlapping match: the copied region repeats the offset span
            pattern = out[start:]
            reps, rem = divmod(ml, off)
            out += pattern * reps + pattern[:rem]
    return bytes(out)


class _Buf(bytes):
    """bytes that also answers ``to_pybytes()`` — pa.Buffer-compatible for
    call sites that do ``codec.decompress(...).to_pybytes()``."""

    def to_pybytes(self) -> bytes:
        return bytes(self)


class Lz4HadoopCodec:
    """Duck-typed like ``pa.Codec`` for the page (de)compression call sites:
    ``compress(bytes) -> buffer`` / ``decompress(bytes, uncompressed_size)``
    (the decompress result is bytes that also supports ``to_pybytes()``).
    """

    name = "lz4_hadoop"

    # -------------------------------------------------------------- write
    def compress(self, data: bytes):
        """Hadoop-frame ``data`` as ONE big block of <=256 KiB raw chunks
        (what parquet-mr's BlockCompressorStream emits per page)."""
        raw = pa.Codec("lz4_raw")
        parts = [_BE32.pack(len(data))]  # zero-length block carries no chunks
        for pos in range(0, len(data), _HADOOP_CHUNK):
            chunk = raw.compress(data[pos : pos + _HADOOP_CHUNK]).to_pybytes()
            parts.append(_BE32.pack(len(chunk)))
            parts.append(chunk)
        return pa.py_buffer(b"".join(parts))

    # --------------------------------------------------------------- read
    def decompress(self, data: bytes, uncompressed_size: int) -> bytes:
        out = self._try_hadoop(data, uncompressed_size)
        if out is not None:
            return _Buf(out)
        # parquet-cpp legacy dialect: the whole body is one raw LZ4 block
        try:
            return _Buf(
                pa.Codec("lz4_raw").decompress(data, uncompressed_size).to_pybytes()
            )
        except Exception:
            pass
        # last resort: Hadoop framing with a nonstandard compressor buffer
        # (the fast walk's 256 KiB chunk-size assumption broke) — re-walk
        # with the size-free pure-python block decoder
        out = self._try_hadoop(data, uncompressed_size, pure=True)
        if out is not None:
            return _Buf(out)
        raise ValueError(
            "legacy LZ4 page body matches neither the Hadoop framing nor "
            "the raw-block dialect"
        )

    @staticmethod
    def _try_hadoop(data: bytes, expected: int, pure: bool = False) -> bytes | None:
        """Walk the Hadoop framing; return None on any structural mismatch
        (then the caller falls back to the raw dialect, like Arrow).

        Arrow's lz4_raw decompress silently zero-extends when asked for
        more bytes than the block holds, so the exact uncompressed size is
        passed per chunk: the final chunk of a block is ``remaining``, a
        middle chunk is the compressor buffer size, learned by
        pure-python-decoding the first chunk of a multi-chunk block.  Any
        wrong inference breaks the structural walk (totals/offsets stop
        lining up) and returns None rather than corrupt data.
        """
        raw = pa.Codec("lz4_raw")
        pos, total = 0, 0
        out: list[bytes] = []
        while pos < len(data):
            if len(data) - pos < 4:
                return None
            (block_len,) = _BE32.unpack_from(data, pos)
            pos += 4
            if block_len > expected - total:
                return None
            produced = 0
            buf_size = None  # per-block compressor buffer, learned on demand
            while produced < block_len:
                if len(data) - pos < 4:
                    return None
                (clen,) = _BE32.unpack_from(data, pos)
                pos += 4
                if clen > len(data) - pos:
                    return None
                chunk = bytes(data[pos : pos + clen])
                pos += clen
                remaining = block_len - produced
                if pure:
                    size = None
                elif remaining <= _HADOOP_CHUNK or (
                    buf_size is not None and remaining <= buf_size
                ):
                    size = remaining  # final chunk of the block
                elif buf_size is not None:
                    size = buf_size  # middle chunk
                else:
                    size = None  # first chunk of a multi-chunk block
                if size is not None:
                    try:
                        piece = raw.decompress(chunk, size).to_pybytes()
                    except Exception:
                        return None
                else:
                    try:
                        piece = _lz4_block_decompress(chunk)
                    except (ValueError, IndexError):
                        return None
                    if buf_size is None and len(piece) < remaining:
                        buf_size = len(piece)
                if len(piece) > remaining:
                    return None
                out.append(piece)
                produced += len(piece)
            total += block_len
        if total != expected:
            return None
        return b"".join(out)
