"""Frame-of-reference + RLE/bit-packed hybrid for integer columns.

Layout: ``zigzag_varint(min) [bitwidth: 1 byte] <RLE/bit-packed hybrid of
(v - min)>``.

parquet-java only reaches this shape through dictionary ids
(`DictionaryValuesWriter.getBytes`, dict ids -> RLE hybrid) — the dense-id
indirection costs a dictionary page and a hash pass. When the *value range*
is already narrow (token ids in [0, vocab)), subtracting the min gives the
same bit width with no dictionary page, and runs of repeated tokens still
collapse to rle-runs. This is the "bit-pack, frame-of-reference" member of
the north-star encoding set; it reuses the exact reference RLE grammar
(`RunLengthBitPackingHybridEncoder.java:36-51`) so the decode path is shared.
"""

from __future__ import annotations

import numpy as np

from . import rle_hybrid
from .bitpack import bit_widths_of_or
from .varint import (
    read_zigzag_varint64,
    write_zigzag_varint64,
)

MAX_WIDTH = 32  # hybrid grammar is 32-bit; wider ranges fall back elsewhere


class Plan:
    """Planned FOR+RLE page: exact size, deferred packing."""

    __slots__ = ("header", "inner", "size")

    def __init__(self, values: np.ndarray):
        v = np.ascontiguousarray(values)
        out = bytearray()
        if len(v) == 0:
            write_zigzag_varint64(out, 0)
            out.append(0)
            self.header, self.inner, self.size = bytes(out), None, len(out)
            return
        mn = int(v.min())
        rng = int(v.max()) - mn
        if rng >= 1 << MAX_WIDTH:
            self.header, self.inner, self.size = None, None, None  # inapplicable
            return
        width = int(bit_widths_of_or(np.array([rng], np.uint64))[0])
        write_zigzag_varint64(out, mn)
        out.append(width)
        shifted = (v.astype(np.int64) - mn).astype(np.uint32)
        self.inner = rle_hybrid.Plan(shifted, width)
        self.header = bytes(out)
        self.size = len(out) + self.inner.size

    @property
    def applicable(self) -> bool:
        return self.size is not None

    def emit(self) -> bytes:
        if self.inner is None:
            return self.header
        return self.header + self.inner.emit()


def encode(values: np.ndarray) -> bytes | None:
    """Returns None when the value range exceeds 32 bits (inapplicable)."""
    plan = Plan(values)
    return plan.emit() if plan.applicable else None


def decode(buf, n: int, out_dtype=np.int32, at=None) -> np.ndarray:
    """The page's ``n`` values; ``at`` (ascending positions) only those,
    read from the hybrid stream at their positions."""
    mn, i = read_zigzag_varint64(buf, 0)
    width = int(buf[i])
    shifted = rle_hybrid.decode(buf[i + 1 :], n, width, np.uint32, at=at)
    with np.errstate(over="ignore"):
        return (shifted.astype(np.int64) + mn).astype(out_dtype)
