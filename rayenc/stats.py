"""Per-chunk batch statistics.

Mirrors the role of `column/statistics/Statistics.java` +
`column/impl/ColumnValueCollector.java:75-93` (typed min/max/null-count per
page/chunk) and `SizeStatistics.java` (unencoded byte sizes), computed
vectorized over the whole batch instead of value-at-a-time. The selector
(rayenc/selector.py) consumes the extra signal (an NDV sample) that the
reference derives implicitly from its incremental fallback machinery
(`FallbackValuesWriter.java:160-190`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .schema import PhysicalColumn

BINARY_TRUNCATE = 64  # ColumnIndexBuilder default truncate length (ParquetProperties.java:59)
NDV_SAMPLE = 2048


@dataclass
class ChunkStats:
    num_values: int
    null_count: int
    raw_bytes: int  # PLAIN-equivalent size (binary: 4 + len per value)
    min_value: object = None
    max_value: object = None
    ndv_sample_ratio: float = 1.0  # distinct/sampled in the first NDV_SAMPLE values
    ndv_estimate: float | None = None  # Chao1 estimate (binary columns)
    avg_len: float = 0.0  # mean value length (binary columns)

    def to_manifest(self) -> dict:
        mn, mx = self.min_value, self.max_value
        if isinstance(mn, bytes):
            # ColumnIndexBuilder truncation semantics: a min prefix is still a
            # lower bound; the max prefix is incremented to stay an upper
            # bound. latin-1 round-trips arbitrary bytes through JSON while
            # preserving bytewise order for pushdown comparisons.
            mn = mn[:BINARY_TRUNCATE].decode("latin-1")
            mx = truncate_max(self.max_value, BINARY_TRUNCATE).decode("latin-1")
        elif mn is not None and not isinstance(mn, (int, float, bool, str)):
            mn, mx = str(mn), str(mx)
        out = {
            "num_values": self.num_values,
            "null_count": self.null_count,
            "raw_bytes": self.raw_bytes,
            "min": mn,
            "max": mx,
        }
        if isinstance(self.min_value, bytes):
            # marks exact latin-1 truncate/increment bounds; older manifests
            # stored lossy utf-8-replace strings that are NOT valid bounds
            out["stats_v"] = 2
        return out


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


def compute(col: PhysicalColumn) -> ChunkStats:
    nulls = int(col.null_mask.sum()) if col.null_mask is not None else 0
    if col.ptype == "BINARY":
        offsets, data = col.values
        n = len(offsets) - 1
        raw = 4 * n + int(offsets[-1] - offsets[0])
        if n == 0:
            return ChunkStats(0, nulls, raw)
        lengths = np.diff(offsets)
        # sample NDV via python bytes on a stride (vectorized hash would need
        # full materialization; the sample is capped)
        stride = max(1, n // NDV_SAMPLE)
        idx = np.arange(0, n, stride)[:NDV_SAMPLE]
        raw_b = data.tobytes()
        from collections import Counter

        counts = Counter(raw_b[offsets[i] : offsets[i + 1]] for i in idx)
        sample = counts.keys()
        # Chao1 lower-bound NDV estimate from sample frequency-of-frequencies:
        # ndv_hat = d + f1^2 / (2*f2)  (f1 = singletons, f2 = doubletons)
        d = len(counts)
        f1 = sum(1 for c in counts.values() if c == 1)
        f2 = sum(1 for c in counts.values() if c == 2)
        chao = d + (f1 * f1) / (2 * f2) if f2 else (d * 2 if f1 == d else d)
        avg_len = (int(offsets[-1] - offsets[0]) / n) if n else 0
        # exact vectorized min/max (pyarrow kernel) — required for sound
        # string-predicate pushdown; truncation happens at manifest time
        import pyarrow.compute as pc

        from rayenc.codecs.dictionary import binary_array

        mm = pc.min_max(binary_array(offsets, data).cast(pa.large_binary()))
        mn = mm["min"].as_py()
        mx = mm["max"].as_py()
        st = ChunkStats(
            n,
            nulls,
            raw,
            mn,
            mx,
            ndv_sample_ratio=d / len(idx),
        )
        st.ndv_estimate = float(chao * max(1.0, n / len(idx)) if d == len(idx) else chao)
        st.avg_len = avg_len
        return st
    if col.ptype == "FIXED_LEN_BYTE_ARRAY":
        v = np.asarray(col.values)
        n, width = v.shape if v.ndim == 2 else (len(v), 1)
        if n == 0:
            return ChunkStats(0, nulls, 0)
        stride = max(1, n // NDV_SAMPLE)
        sample = v[::stride][:NDV_SAMPLE]
        ndv = len(np.unique(sample.reshape(len(sample), -1), axis=0))
        return ChunkStats(n, nulls, n * width, None, None, ndv_sample_ratio=ndv / len(sample))
    if col.ptype == "BOOLEAN":
        v = np.asarray(col.values, bool)
        n = len(v)
        return ChunkStats(
            n,
            nulls,
            (n + 7) // 8,
            bool(v.min()) if n else None,
            bool(v.max()) if n else None,
            ndv_sample_ratio=(2 / n) if n else 1.0,
        )
    v = np.asarray(col.values)
    n = len(v)
    raw = n * v.dtype.itemsize
    if n == 0:
        return ChunkStats(0, nulls, raw)
    stride = max(1, n // NDV_SAMPLE)
    sample = v[::stride][:NDV_SAMPLE]
    ndv = len(np.unique(sample))
    # unsigned source columns are stored sign-wrapped; min/max bounds for
    # skipping must be taken in the unsigned domain or a chunk holding
    # uint32 4294967295 records min=-1 and wrongly skips (manifest analog of
    # parquet UINT TYPE_DEFINED_ORDER)
    vb = v.view(v.dtype.str.replace("i", "u")) if (col.unsigned and v.dtype.kind == "i") else v
    mn, mx = vb.min(), vb.max()
    if v.dtype.kind == "f":
        mn, mx = float(mn), float(mx)
        if np.isnan(mn) or np.isnan(mx):
            # NaN poisons ordering: leave the chunk unbounded so pushdown
            # never skips it (mirrors parquet_write._value_bounds and
            # parquet-mr's skip-min/max-on-NaN rule,
            # column/statistics/DoubleStatistics semantics)
            mn = mx = None
    else:
        mn, mx = int(mn), int(mx)
    return ChunkStats(n, nulls, raw, mn, mx, ndv_sample_ratio=ndv / len(sample))
