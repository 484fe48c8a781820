"""BYTE_STREAM_SPLIT: byte-plane transpose of fixed-width values.

Mirrors `parquet-column/.../values/bytestreamsplit/ByteStreamSplitValuesWriter.java:36-100`:
byte i of every k-byte value is scattered into stream i; streams concatenated.
Helps downstream block compressors on float data. FIXED_LEN_BYTE_ARRAY
values split into one stream per byte of their width (format 2.11).
"""

from __future__ import annotations

import numpy as np


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
    v = np.ascontiguousarray(values)
    k = v.dtype.itemsize * int(np.prod(v.shape[1:]))  # bytes per value
    return v.view(np.uint8).reshape(len(v), k).T.tobytes()


def decode(buf, n: int, dtype) -> np.ndarray:
    dtype = np.dtype(dtype)
    k = dtype.itemsize
    planes = np.frombuffer(buf, np.uint8, count=n * k).reshape(k, n)
    return np.ascontiguousarray(planes.T).reshape(-1).view(dtype)
