"""ULEB128 varints and zigzag, scalar + vectorized.

Mirrors org.apache.parquet.bytes.BytesUtils
(`parquet-common/src/main/java/org/apache/parquet/bytes/BytesUtils.java`):
``writeUnsignedVarInt``, ``writeZigZagVarInt``, ``readUnsignedVarInt``.
"""

from __future__ import annotations

import numpy as np


def write_uvarint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        value &= 0xFFFFFFFF  # java int semantics: negative int32 -> 5-byte varint
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(buf, i: int) -> tuple[int, int]:
    """Read unsigned LEB128 varint at offset i; return (value, next_offset)."""
    result = 0
    shift = 0
    while True:
        b = int(buf[i])  # int() so numpy uint8 scalars don't overflow on <<
        i += 1
        result |= (b & 0x7F) << shift
        if not (b & 0x80):
            return result, i
        shift += 7


def zigzag32(v: int) -> int:
    v &= 0xFFFFFFFF
    if v >= 1 << 31:
        v -= 1 << 32
    return ((v << 1) ^ (v >> 31)) & 0xFFFFFFFF


def unzigzag32(u: int) -> int:
    v = (u >> 1) ^ -(u & 1)
    v &= 0xFFFFFFFF
    if v >= 1 << 31:
        v -= 1 << 32
    return v


def zigzag64(v: int) -> int:
    v &= 0xFFFFFFFFFFFFFFFF
    if v >= 1 << 63:
        v -= 1 << 64
    return ((v << 1) ^ (v >> 63)) & 0xFFFFFFFFFFFFFFFF


def unzigzag64(u: int) -> int:
    v = (u >> 1) ^ -(u & 1)
    v &= 0xFFFFFFFFFFFFFFFF
    if v >= 1 << 63:
        v -= 1 << 64
    return v


def write_zigzag_varint32(out: bytearray, value: int) -> None:
    write_uvarint(out, zigzag32(value))


def write_zigzag_varint64(out: bytearray, value: int) -> None:
    write_uvarint(out, zigzag64(value))


def read_zigzag_varint32(buf, i: int) -> tuple[int, int]:
    u, i = read_uvarint(buf, i)
    return unzigzag32(u), i


def read_zigzag_varint64(buf, i: int) -> tuple[int, int]:
    u, i = read_uvarint(buf, i)
    return unzigzag64(u), i


# the smallest value of each LEB128 length past one byte: 2**7, 2**14, ...
_UVARINT_STEPS = np.array([1 << (7 * k) for k in range(1, 10)], np.uint64)


def uvarint_lengths(values: np.ndarray) -> np.ndarray:
    """Byte count of each value's LEB128 encoding (non-negative ints)."""
    return np.searchsorted(_UVARINT_STEPS, np.asarray(values, np.uint64), "right") + 1


def uvarint_encode_batch(values: np.ndarray, max_bytes: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LEB128 of a uint64 array.

    Returns (flat_bytes: uint8 array, lengths: per-value byte counts).
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    lengths = uvarint_lengths(v)
    width = min(int(lengths.max()), max_bytes)
    # one column per byte of the longest value; a byte has the
    # continuation bit when more bytes of its value follow
    mat = np.empty((n, width), np.uint8)
    for k in range(width):
        mat[:, k] = ((v >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        mat[:, k] |= (lengths > k + 1).astype(np.uint8) << 7
    if width == 1:
        return mat.ravel(), lengths
    return mat[np.arange(width) < lengths[:, None]], lengths
