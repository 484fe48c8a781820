"""DELTA_LENGTH_BYTE_ARRAY: lengths DELTA_BINARY_PACKED, then concatenated bytes.

Mirrors `parquet-column/.../values/deltalengthbytearray/DeltaLengthByteArrayValuesWriter.java:63-86`.
An Arrow string column (offsets + data buffer) is already exactly this shape,
so encode is near zero-copy: delta-pack np.diff(offsets) and append the data.
"""

from __future__ import annotations

import numpy as np

from . import delta_bp


class Plan:
    """One DELTA_LENGTH_BYTE_ARRAY page of ``(offsets, data)`` strings: the
    lengths' DELTA_BINARY_PACKED plan, then ``data``."""

    __slots__ = ("lengths", "data", "size")
    applicable = True

    def __init__(self, values):
        offsets, self.data = values
        self.lengths = delta_bp.Plan(np.diff(np.asarray(offsets, np.int64)).astype(np.int32))
        self.size = self.lengths.size + len(self.data)

    def emit(self) -> bytes:
        return self.lengths.emit() + np.ascontiguousarray(self.data, np.uint8).tobytes()


def encode(offsets: np.ndarray, data: np.ndarray) -> bytes:
    return Plan((offsets, data)).emit()


def decode(buf, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Returns (offsets int64[n+1], data uint8)."""
    end = delta_bp.decoded_byte_end(buf)
    lengths = delta_bp.check_count(delta_bp.decode(buf[:end], np.int32), n)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(lengths, out=offsets[1:])
    data = np.frombuffer(buf, np.uint8, count=int(offsets[-1]), offset=end)
    return offsets, data
