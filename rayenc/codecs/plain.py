"""PLAIN encoding for all physical types.

Mirrors `parquet-column/.../values/plain/PlainValuesWriter.java:49-76`
(little-endian fixed width; BINARY = len:int32 LE + bytes per value) and
`BooleanPlainValuesWriter.java` (bit-packed booleans, LSB first).
"""

from __future__ import annotations

import numpy as np

_FIXED = {
    "INT32": np.dtype("<i4"),
    "INT64": np.dtype("<i8"),
    "FLOAT": np.dtype("<f4"),
    "DOUBLE": np.dtype("<f8"),
}


class Plan:
    """One PLAIN page of ``ptype`` values in the container's shapes: numbers,
    bools, ``(offsets, data)`` BINARY strings or ``(n, width)`` uint8
    FIXED_LEN_BYTE_ARRAY rows. ``size`` is exact; ``emit`` writes it."""

    __slots__ = ("values", "ptype", "size")
    applicable = True

    def __init__(self, values, ptype: str):
        self.values, self.ptype = values, ptype
        if ptype == "BINARY":
            offsets, _ = values
            self.size = 4 * (len(offsets) - 1) + int(offsets[-1] - offsets[0])
        elif ptype == "BOOLEAN":
            self.size = (len(values) + 7) // 8
        elif ptype == "FIXED_LEN_BYTE_ARRAY":
            self.size = values.size
        else:
            self.size = len(values) * _FIXED[ptype].itemsize

    def emit(self) -> bytes:
        if self.ptype == "BINARY":
            return encode_binary(*self.values)
        if self.ptype == "BOOLEAN":
            return encode_boolean(self.values)
        if self.ptype == "FIXED_LEN_BYTE_ARRAY":
            return encode_fixed_len(self.values)
        return encode_fixed(self.values, self.ptype)


def encode_fixed(values: np.ndarray, ptype: str) -> bytes:
    return np.ascontiguousarray(values, dtype=_FIXED[ptype]).tobytes()


class PageSizeError(ValueError):
    """A fixed-width page body too short for its value count."""


def _fixed_view(buf, n: int, dtype) -> np.ndarray:
    """The first ``n`` ``dtype`` values of ``buf``, not copied."""
    if len(buf) < n * dtype.itemsize:
        raise PageSizeError(f"{len(buf)} bytes cannot hold {n} {dtype.itemsize}-byte values")
    return np.frombuffer(buf, dtype, count=n)


def decode_fixed(buf, n: int, ptype: str) -> np.ndarray:
    return _fixed_view(buf, n, _FIXED[ptype])


def encode_boolean(values: np.ndarray) -> bytes:
    return np.packbits(
        np.ascontiguousarray(values, dtype=np.uint8), bitorder="little"
    ).tobytes()


def decode_boolean(buf, n: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(buf, np.uint8), bitorder="little", count=n).astype(
        bool
    )


def encode_binary(offsets: np.ndarray, data: np.ndarray) -> bytes:
    """len:int32 LE + bytes, per value. offsets: int64[n+1], data: uint8."""
    n = len(offsets) - 1
    lengths = np.diff(offsets).astype(np.int64)
    total = 4 * n + int(lengths.sum())
    out = np.empty(total, np.uint8)
    # destination start of each length prefix
    dst_starts = np.zeros(n, np.int64)
    if n > 1:
        np.cumsum(lengths[:-1] + 4, out=dst_starts[1:])
    # write length prefixes
    len_le = lengths.astype("<i4").view(np.uint8).reshape(n, 4)
    idx4 = dst_starts[:, None] + np.arange(4)
    out[idx4.ravel()] = len_le.ravel()
    # write payload bytes via repeat-trick gather
    if lengths.sum() > 0:
        dst_payload = _ranges(dst_starts + 4, lengths)
        src_payload = _ranges(offsets[:-1].astype(np.int64), lengths)
        out[dst_payload] = np.asarray(data, np.uint8)[src_payload]
    return out.tobytes()


class PlainBinaryError(ValueError):
    """A PLAIN BINARY page body too short for its value count or lengths."""


def decode_binary(buf, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Returns (offsets int64[n+1], data uint8[...]). Raises
    PlainBinaryError when the body cannot hold ``n`` length-prefixed
    values."""
    raw = np.frombuffer(buf, np.uint8)
    if 4 * n > len(raw):
        raise PlainBinaryError(f"{len(raw)} bytes cannot hold {n} length prefixes")
    offsets = np.zeros(n + 1, np.int64)
    lengths = np.empty(n, np.int64)
    pos = 0
    # lengths are at variable positions; sequential scan over values would be
    # O(n) python — instead peel iteratively: read the first length, then jump.
    # Vectorized approach: iterate but in chunks is still sequential; n per page
    # is <= 20k and this is only used for PLAIN binary (rare fallback), so a
    # python loop is acceptable here.
    for k in range(n):
        ln = int.from_bytes(raw[pos : pos + 4].tobytes(), "little")
        lengths[k] = ln
        pos += 4 + ln
    if pos > len(raw):
        # a cut prefix or value runs past the body
        raise PlainBinaryError(f"{n} values need {pos} bytes, the body has {len(raw)}")
    np.cumsum(lengths, out=offsets[1:])
    data = np.empty(int(offsets[-1]), np.uint8)
    src_starts = np.zeros(n, np.int64)
    if n > 1:
        np.cumsum(lengths[:-1] + 4, out=src_starts[1:])
    src_starts += 4
    if len(data):
        data[_ranges(offsets[:-1], lengths)] = raw[_ranges(src_starts, lengths)]
    return offsets, data


def encode_fixed_len(values: np.ndarray) -> bytes:
    """FIXED_LEN_BYTE_ARRAY: raw bytes (values: (n, width) uint8)."""
    return np.ascontiguousarray(values, np.uint8).tobytes()


def decode_fixed_len(buf, n: int, width: int) -> np.ndarray:
    return _fixed_view(buf, n * width, np.dtype(np.uint8)).reshape(n, width)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat index array covering [starts[i], starts[i]+lengths[i]) for all i."""
    lengths = np.asarray(lengths, np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, np.int64)
    ends = np.cumsum(lengths)
    idx = np.arange(total, dtype=np.int64)
    shift = np.repeat(np.asarray(starts, np.int64) - (ends - lengths), lengths)
    return idx + shift


def _take_strings(offsets: np.ndarray, data: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The strings at positions ``idx``, framed on their own: (offsets
    int64[len(idx)+1], data)."""
    lens = offsets[idx + 1] - offsets[idx]
    new_off = np.zeros(len(idx) + 1, np.int64)
    np.cumsum(lens, out=new_off[1:])
    return new_off, data[_ranges(offsets[idx], lens)]
