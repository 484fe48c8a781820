"""BYTE_STREAM_SPLIT: byte-plane transpose of fixed-width values.

Mirrors `parquet-column/.../values/bytestreamsplit/ByteStreamSplitValuesWriter.java:36-100`:
byte i of every k-byte value is scattered into stream i; streams concatenated.
Helps downstream block compressors on float data. FIXED_LEN_BYTE_ARRAY
values split into one stream per byte of their width (format 2.11).
"""

from __future__ import annotations

import numpy as np

from .plain import PageSizeError


class Plan:
    """One BYTE_STREAM_SPLIT page of ``(n,)`` numbers or ``(n, width)``
    uint8 FIXED_LEN_BYTE_ARRAY rows: as large as the values."""

    __slots__ = ("values", "size")
    applicable = True

    def __init__(self, values: np.ndarray):
        self.values = values
        self.size = values.nbytes

    def emit(self) -> bytes:
        return encode(self.values)


def encode(values: np.ndarray) -> bytes:
    """The byte planes of ``values``, plane 0 (every value's first byte)
    first: written one plane at a time, each a strided gather into a
    contiguous row, rather than one transposing copy."""
    v = np.ascontiguousarray(values)
    k = v.dtype.itemsize * int(np.prod(v.shape[1:]))  # bytes per value
    rows = v.view(np.uint8).reshape(len(v), k)
    planes = np.empty((k, len(v)), np.uint8)
    for i in range(k):
        planes[i] = rows[:, i]
    return planes.tobytes()


def decode(buf, n: int, dtype, at=None) -> np.ndarray:
    """``n`` values of ``dtype`` from their byte planes, joined one plane
    at a time; ``at`` (ascending positions) gathers only those values'
    bytes."""
    dtype = np.dtype(dtype)
    k = dtype.itemsize
    if len(buf) < n * k:
        raise PageSizeError(f"{len(buf)} bytes cannot hold {n} {k}-byte values")
    planes = np.frombuffer(buf, np.uint8, count=n * k).reshape(k, n)
    if at is not None:
        return np.ascontiguousarray(planes[:, at].T).reshape(-1).view(dtype)
    rows = np.empty((n, k), np.uint8)
    for i in range(k):
        rows[:, i] = planes[i]
    return rows.reshape(-1).view(dtype)
