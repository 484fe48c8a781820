"""DELTA_BYTE_ARRAY (incremental / prefix encoding) for strings.

Mirrors `parquet-column/.../values/deltastrings/DeltaByteArrayWriter.java:91-103`:
per value, the length of the shared prefix with the *previous* value is
DELTA_BINARY_PACKED; the suffixes are DELTA_LENGTH_BYTE_ARRAY.

Prefix computation is vectorized: consecutive values are compared in
64-byte chunks of a padded (n, cap) matrix, doubling cap while any pair's
prefix is still growing, so arbitrarily long shared prefixes are found exactly
(mirrors Arrays.mismatch semantics at `DeltaByteArrayWriter.java:96-99`).
"""

from __future__ import annotations

import numpy as np

from . import delta_bp, delta_length
from .plain import _ranges


def common_prefix_lengths(offsets: np.ndarray, data: np.ndarray) -> np.ndarray:
    """prefix[i] = shared prefix byte count of value i with value i-1 (prefix[0]=0)."""
    offsets = np.asarray(offsets, np.int64)
    data = np.asarray(data, np.uint8)
    n = len(offsets) - 1
    prefix = np.zeros(n, np.int64)
    if n <= 1:
        return prefix
    lengths = np.diff(offsets)
    maxcmp = np.minimum(lengths[1:], lengths[:-1])  # pair i compares value i+1 vs i

    cap = 64
    active = np.arange(1, n)  # indices i whose prefix may still grow
    base = np.zeros(n - 1, np.int64)  # confirmed prefix so far for pair (i-1, i)
    while len(active):
        ai = active - 1  # index into pair arrays
        cmp_len = np.minimum(maxcmp[ai] - base[ai], cap)
        m = int(cmp_len.max()) if len(cmp_len) else 0
        if m <= 0:
            break
        # gather m-byte windows of both strings at offset base
        prev_start = offsets[active - 1] + base[ai]
        cur_start = offsets[active] + base[ai]
        win = np.arange(m)
        pad_ok = win[None, :] < cmp_len[:, None]
        a = np.zeros((len(active), m), np.uint16)
        b = np.full((len(active), m), 0x100, np.uint16)  # differs from any byte
        src_a = np.minimum(prev_start[:, None] + win, len(data) - 1)
        src_b = np.minimum(cur_start[:, None] + win, len(data) - 1)
        a[pad_ok] = data[src_a[pad_ok]]
        b[pad_ok] = data[src_b[pad_ok]]
        eq = a == b
        matched = np.where(eq.all(axis=1), cmp_len, np.argmin(eq, axis=1))
        base[ai] += matched
        # keep pairs that matched the full window and still have bytes left
        keep = (matched == cmp_len) & (base[ai] < maxcmp[ai]) & (cmp_len == cap)
        active = active[keep]
        cap *= 2
    prefix[1:] = base
    return prefix


class Plan:
    """One DELTA_BYTE_ARRAY page of BINARY ``(offsets, data)`` strings or
    ``(n, width)`` uint8 FIXED_LEN_BYTE_ARRAY rows: the prefix lengths'
    and suffix lengths' DELTA_BINARY_PACKED plans, then the suffixes
    (a DELTA_LENGTH_BYTE_ARRAY body)."""

    __slots__ = ("prefix", "suffix", "size", "_suffixes")
    applicable = True

    def __init__(self, values):
        if isinstance(values, tuple):
            offsets, data = np.asarray(values[0], np.int64), np.asarray(values[1], np.uint8)
        else:
            rows = np.asarray(values, np.uint8)
            offsets = np.arange(len(rows) + 1, dtype=np.int64) * rows.shape[1]
            data = rows.reshape(-1)
        prefix = common_prefix_lengths(offsets, data)
        suffix_lengths = np.diff(offsets) - prefix
        self._suffixes = data, offsets[:-1] + prefix, suffix_lengths
        self.prefix = delta_bp.Plan(prefix.astype(np.int32))
        self.suffix = delta_bp.Plan(suffix_lengths.astype(np.int32))
        self.size = self.prefix.size + self.suffix.size + int(suffix_lengths.sum())

    def emit(self) -> bytes:
        data, starts, lengths = self._suffixes
        return self.prefix.emit() + self.suffix.emit() + data[_ranges(starts, lengths)].tobytes()


def encode(offsets: np.ndarray, data: np.ndarray) -> bytes:
    return Plan((offsets, data)).emit()


def decode(buf, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Returns (offsets int64[n+1], data uint8).

    The sequential prefix chain is resolved per *byte position* instead of per
    value: byte j of value i (j < prefix[i]) always originates from the
    nearest predecessor s with prefix[s] <= j, whose byte j is a suffix byte
    and hence already materialized. Each round is one vectorized gather, and
    the number of rounds is max(prefix) — independent of chain length, so a
    fully sorted column decodes in O(max_string_len) numpy passes.
    """
    end = delta_bp.decoded_byte_end(buf)
    prefix = delta_bp.check_count(delta_bp.decode(buf[:end], np.int32), n).astype(np.int64)
    soffsets, sdata = delta_length.decode(buf[end:], n)
    slengths = np.diff(soffsets)

    lengths = prefix + slengths
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(lengths, out=offsets[1:])
    out = np.empty(int(offsets[-1]), np.uint8)
    # place all suffixes first
    out[_ranges(offsets[:-1] + prefix, slengths)] = sdata
    if n == 0:
        return offsets, out
    maxp = int(prefix.max())
    arange_n = np.arange(n)
    starts = offsets[:-1]
    for j in range(maxp):
        need = prefix > j
        idx = np.flatnonzero(need)
        if not len(idx):
            continue
        # nearest predecessor whose byte j is a suffix byte (prefix <= j)
        src_id = np.maximum.accumulate(np.where(~need, arange_n, -1))
        out[starts[idx] + j] = out[starts[src_id[idx]] + j]
    return offsets, out
