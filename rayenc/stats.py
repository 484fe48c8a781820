"""Per-chunk batch statistics: the one bounds layer of both writers and
both readers.

Mirrors the role of `column/statistics/Statistics.java` +
`column/impl/ColumnValueCollector.java:75-93` (one collector feeds the
chunk Statistics and ColumnIndexBuilder's per-page bounds) and
`SizeStatistics.java` (unencoded byte sizes), computed vectorized over the
whole batch instead of value-at-a-time. `compute(col, ranges)` takes each
page's ``(lo, hi)`` once (`page_bounds`) and derives the chunk min/max from
them; `written` applies ColumnIndexBuilder's 64-byte truncate/increment
rule. The container manifest (`blocks.encode_chunk`) and the Parquet
ColumnIndex + footer Statistics (`parquet_write`) only serialize these
values. The read half is the Parquet bound codec: `bound_bytes` packs a
bound pair and `bound_decoder` unpacks the chunk Statistics and ColumnIndex
bounds for the reader (`parquet_read_enc`) and `validate`; both readers
judge the decoded pages with `predicate.page_rows`. The selector
(rayenc/selector.py) consumes the extra signal (an NDV sample) that the
reference derives implicitly from its incremental fallback machinery
(`FallbackValuesWriter.java:160-190`).
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .schema import PhysicalColumn

BINARY_TRUNCATE = 64  # ColumnIndexBuilder default truncate length (ParquetProperties.java:59)
NDV_SAMPLE = 2048


@dataclass
class ChunkStats:
    num_values: int
    null_count: int
    raw_bytes: int  # PLAIN-equivalent size (binary: 4 + len per value)
    pages: list = field(default_factory=list)  # page_bounds of the chunk's pages
    min_value: object = None  # chunk bounds, untruncated; None when unbounded
    max_value: object = None
    ndv_sample_ratio: float = 1.0  # distinct/sampled in the first NDV_SAMPLE values
    ndv_estimate: float | None = None  # Chao1 estimate (binary columns)
    avg_len: float = 0.0  # mean value length (binary columns)


def truncate_max(value: bytes, limit: int) -> bytes:
    """Truncate an upper bound to ``limit`` bytes, incrementing the last kept
    byte so the result stays >= every value with that prefix
    (ColumnIndexBuilder's BinaryTruncator.incrementMax). Falls back to the
    full value when every kept byte is 0xFF."""
    if len(value) <= limit:
        return value
    kept = bytearray(value[:limit])
    for i in range(len(kept) - 1, -1, -1):
        if kept[i] != 0xFF:
            kept[i] += 1
            return bytes(kept[: i + 1])
    return value  # all 0xFF — cannot increment, keep untruncated


def written(bounds: tuple) -> tuple:
    """``(lo, hi, exact)`` as a writer stores one ``(lo, hi)``: byte strings
    go through the truncate/increment rule (a min prefix is still a lower
    bound, the incremented max prefix still an upper one), and ``exact``
    says neither was cut; other values pass through exact."""
    lo, hi = bounds
    if not isinstance(lo, bytes):
        return lo, hi, True
    exact = len(lo) <= BINARY_TRUNCATE and len(hi) <= BINARY_TRUNCATE
    return lo[:BINARY_TRUNCATE], truncate_max(hi, BINARY_TRUNCATE), exact


def monotone(bounds: list, ascending: bool) -> bool:
    """Whether the min list and the max list of ``bounds`` (``(lo, hi)``
    pairs) both never decrease (``ascending``) or never increase: the test
    of ColumnIndexBuilder.calculateBoundaryOrder."""
    ok = operator.le if ascending else operator.ge
    return all(ok(a[k], b[k]) for k in (0, 1) for a, b in zip(bounds, bounds[1:]))


# Statistics / ColumnIndex bound bytes: PLAIN of each ordered physical type,
# a FLOAT16 FLBA as an IEEE half; INT96 and other FLBA have no defined order
_BOUND_FMT = {"BOOLEAN": "<?", "INT32": "<i", "INT64": "<q", "FLOAT": "<f", "DOUBLE": "<d",
              "FIXED_LEN_BYTE_ARRAY": "<e"}


def _bound_fmt(ptype: str, unsigned: bool, f16: bool) -> str | None:
    """struct format of one leaf's bounds (None: byte strings); unsigned
    ints in the unsigned domain (TYPE_DEFINED_ORDER for UINT sorts
    unsigned, so stored bytes exceed the signed max for large values)."""
    if ptype == "FIXED_LEN_BYTE_ARRAY" and not f16:
        return None
    fmt = _BOUND_FMT.get(ptype)
    return fmt.upper() if unsigned and ptype in ("INT32", "INT64") else fmt


def bound_bytes(col: PhysicalColumn, bounds: tuple) -> tuple:
    """The Parquet bytes of one ``written`` ``(lo, hi)`` of ``col``; byte
    strings are their own bytes."""
    fmt = _bound_fmt(col.ptype, col.unsigned, col.f16)
    return bounds if fmt is None else tuple(struct.pack(fmt, b) for b in bounds)


def bound_decoder(ptype: str, t: pa.DataType):
    """``(lo_raw, hi_raw) -> (lo, hi)`` for the Statistics and ColumnIndex
    bounds of a Parquet leaf of physical type ``ptype`` and Arrow type
    ``t``, in the domain `page_bounds` computes (None when a bound is
    missing or has the wrong length); None for INT96 (no defined order).
    Byte-array DECIMALs are big-endian unscaled ints; other byte arrays are
    bytes."""
    if ptype == "INT96":
        return None
    fmt = _bound_fmt(ptype, pa.types.is_unsigned_integer(t), pa.types.is_float16(t))
    if fmt is not None:
        size = struct.calcsize(fmt)
        one = lambda raw: struct.unpack(fmt, raw)[0] if len(raw) == size else None
    elif pa.types.is_decimal(t):
        one = lambda raw: int.from_bytes(raw, "big", signed=True) if raw else None
    else:
        one = bytes

    def decode(lo, hi):
        if lo is None or hi is None:
            return None
        b = one(lo), one(hi)
        return None if None in b else b

    return decode


def page_bounds(col: PhysicalColumn, ranges, arr: pa.Array | None = None) -> list:
    """``(lo, hi)`` of ``col.values[a:b]`` for each page range, in the
    column's order: INT32/INT64 as ints (in the unsigned domain for unsigned
    columns, else uint32 4294967295 would bound a page at -1), FLOAT/DOUBLE
    and FLOAT16 FLBA as floats (a half-float zero widened to [-0.0, +0.0],
    like parquet-cpp, so an exact-zero predicate is never wrongly pruned),
    BOOLEAN as bools, BINARY as untruncated bytes. None for an empty page,
    a page holding a NaN (NaN poisons ordering: parquet-mr's skip-on-NaN
    rule) or an FLBA without a defined order. ``ranges`` partition the
    values in order; ``arr`` is the chunk's BINARY values as large_binary."""
    out = [None] * len(ranges)
    full = [k for k, (a, b) in enumerate(ranges) if b > a]
    if not full:
        return out
    if col.ptype == "BINARY":
        for k in full:
            a, b = ranges[k]
            mm = pc.min_max(arr.slice(a, b - a))
            out[k] = mm["min"].as_py(), mm["max"].as_py()
        return out
    if col.ptype == "FIXED_LEN_BYTE_ARRAY":
        if not col.f16:
            return out
        v = np.ascontiguousarray(col.values).view("<f2").ravel()
    else:
        v = np.asarray(col.values, bool if col.ptype == "BOOLEAN" else None)
        if col.unsigned and v.dtype.kind == "i":
            v = v.view(v.dtype.str.replace("i", "u"))
    v = v[: ranges[full[-1]][1]]
    starts = [ranges[k][0] for k in full]
    los = np.minimum.reduceat(v, starts)
    his = np.maximum.reduceat(v, starts)
    if v.dtype.kind == "f":
        bounded = ~np.isnan(los)  # minimum and maximum both propagate NaN
        if col.ptype == "FIXED_LEN_BYTE_ARRAY":
            los = np.where(los == 0, np.float16(-0.0), los)
            his = np.where(his == 0, np.float16(0.0), his)
    else:
        bounded = np.ones(len(full), bool)
    for k, lo, hi, ok in zip(full, los.tolist(), his.tolist(), bounded.tolist()):
        if ok:
            out[k] = lo, hi
    return out


def compute(col: PhysicalColumn, ranges=None) -> ChunkStats:
    """The chunk's statistics over its page ``ranges`` (default: one page):
    page bounds, the chunk bounds derived from them, and the NDV sample."""
    nulls = int(col.null_mask.sum()) if col.null_mask is not None else 0
    n = col.num_values
    if ranges is None:
        ranges = [(0, n)] if n else []
    arr = None
    if col.ptype == "BINARY":
        offsets, _ = col.values
        from rayenc.codecs.dictionary import binary_array

        arr = binary_array(*col.values).cast(pa.large_binary())
        st = ChunkStats(n, nulls, 4 * n + int(offsets[-1] - offsets[0]))
        if n:
            # Chao1 lower-bound NDV estimate from the frequency-of-frequencies
            # of a strided sample: ndv_hat = d + f1^2 / (2*f2)
            # (f1 = singletons, f2 = doubletons)
            idx = np.arange(0, n, max(1, n // NDV_SAMPLE))[:NDV_SAMPLE]
            counts = pc.value_counts(arr.take(idx)).field("counts").to_numpy()
            d, f1, f2 = len(counts), int((counts == 1).sum()), int((counts == 2).sum())
            chao = d + (f1 * f1) / (2 * f2) if f2 else (d * 2 if f1 == d else d)
            st.ndv_sample_ratio = d / len(idx)
            st.ndv_estimate = float(chao * max(1.0, n / len(idx)) if d == len(idx) else chao)
            st.avg_len = int(offsets[-1] - offsets[0]) / n
    elif col.ptype == "BOOLEAN":
        st = ChunkStats(n, nulls, (n + 7) // 8, ndv_sample_ratio=(2 / n) if n else 1.0)
    else:
        v = np.asarray(col.values)
        st = ChunkStats(n, nulls, v.nbytes)
        if n:
            sample = v[:: max(1, n // NDV_SAMPLE)][:NDV_SAMPLE]
            ndv = np.unique(sample, axis=0) if v.ndim == 2 else np.unique(sample)
            st.ndv_sample_ratio = len(ndv) / len(sample)
    st.pages = page_bounds(col, ranges, arr)
    full = [p for p, (a, b) in zip(st.pages, ranges) if b > a]
    if full and None not in full:
        st.min_value = min(lo for lo, _ in full)
        st.max_value = max(hi for _, hi in full)
    return st
