"""ALP — Adaptive Lossless floating-Point compression (container encoding).

Implements the core scheme of the public ALP paper (Afroozeh & Boncz,
SIGMOD 2023): a FLOAT/DOUBLE page is losslessly transformed to integers
``i = rint(v * 10^e)`` for a per-page decimal exponent ``e`` chosen from a
sample; every value whose transform does not reproduce the original bit
pattern under ``i / 10^e`` (NaN/Inf, |i| beyond 2^53, negative zero,
non-decimal doubles) is stored as a patch (position + raw IEEE value) and
its slot encoded as 0.  The integer stream rides the cheaper of the
existing DELTA_BINARY_PACKED (delta_bp.py) and FoR+RLE (rle_for.py)
kernels — a deviation from the paper's FFOR, with the same
adaptive-bit-width effect; the decode division uses the identical
``10^e`` divisor as the encode-side verification, so round trips are
bit-exact by construction.

This is a rayenc-container encoding only (like FSST / RLE_FOR): it never
appears in written parquet files (parquet_write.PARQUET_LEGAL gates it).
There is no parquet-java counterpart; the reference anchor is the encoding
extension surface (ValuesWriterFactory, ParquetProperties.java:465-471).

Page layout:
    byte   exponent e (0..18)
    byte   flags (bit0 = FLOAT32 source, bit1 = FoR inner)
    uvarint n_exceptions
    uvarint len(ints_block)
    ints_block  : DELTA_BINARY_PACKED (flag bit1=0) or FoR+RLE
                  (rle_for.py, flag bit1=1) int64 stream — cheaper wins
    positions   : n_exceptions * uint32 LE
    raw values  : n_exceptions * (4|8) bytes IEEE LE
"""

from __future__ import annotations

import numpy as np

from . import delta_bp, rle_for
from .varint import read_uvarint, write_uvarint

MAX_EXP = 18  # 10^18 < 2^63; doubles are exact to 2^53
_POW10 = 10.0 ** np.arange(MAX_EXP + 1)  # exact doubles up to 10^18
_SAFE = float(1 << 53)  # |i| above this loses integer exactness in f64


def _transform(v64: np.ndarray, e: int, f32ref: np.ndarray | None = None):
    """(int64 slots, ok_mask) for exponent e.  The verification round-trips
    through the exact arithmetic decode uses — int64 -> float64 multiply
    (-> float32 cast when the source is FLOAT) — so -0.0, NaN/Inf and
    beyond-2^53 magnitudes all land in the exception set naturally."""
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = v64 * _POW10[e]
        intsf = np.rint(scaled)
        finite = np.isfinite(scaled) & (np.abs(intsf) < _SAFE)
        ints = np.where(finite, intsf, 0.0).astype(np.int64)
        # IEEE division by the exactly-representable 10^e is correctly
        # rounded, so any v that IS the nearest double of i/10^e comes
        # back bit-identical — the paper's inverse-multiply trades some
        # of that exactness ( ~13% patches on 2-decimal price columns)
        # for speed; we take the division
        back = ints.astype(np.float64) / _POW10[e]
        if f32ref is not None:
            ok = finite & (
                back.astype(np.float32).view(np.uint32) == f32ref.view(np.uint32)
            )
        else:
            ok = finite & (back.view(np.uint64) == v64.view(np.uint64))
    return ints, ok


def _pick_exponent(v64: np.ndarray, f32ref: np.ndarray | None = None) -> int:
    """Smallest exponent with a zero sample exception rate; larger
    exponents only grow the packed ints ~3.3 bits per step, so first-fit
    is also smallest-size (the paper's (e,f) search collapses to this when
    the integer stream is FoR/delta packed at real bit widths)."""
    if len(v64) > 512:
        step = len(v64) // 512
        sample, sref = v64[::step][:512], (
            f32ref[::step][:512] if f32ref is not None else None
        )
    else:
        sample, sref = v64, f32ref
    best_e, best_exc = 0, len(sample) + 1
    for e in range(MAX_EXP + 1):
        _, ok = _transform(sample, e, sref)
        exc = int((~ok).sum())
        if exc == 0:
            return e
        if exc < best_exc:
            best_e, best_exc = e, exc
    return best_e


class Plan:
    """Size-first planning like the other codec Plans: ``size`` is exact
    and no payload bytes are built until ``emit()``."""

    def __init__(self, vals: np.ndarray):
        self.is_f32 = vals.dtype == np.float32
        v64 = vals.astype(np.float64) if self.is_f32 else np.asarray(vals)
        f32ref = vals if self.is_f32 else None
        self.exp = _pick_exponent(v64, f32ref)
        ints, ok = _transform(v64, self.exp, f32ref)
        ints[~ok] = 0
        self.ints = ints
        self.exc_pos = np.nonzero(~ok)[0].astype(np.uint32)
        self.raw = vals
        # inner int stream: cheaper of delta-BP and FoR+RLE (low-NDV or
        # run-heavy decimal columns favor the RLE hybrid; FoR also saves
        # the ~1 delta bit on unsorted streams when the range fits 32 bits)
        self.inner_for = False
        self.inner = delta_bp.Plan(ints) if len(ints) else None
        if self.inner is not None:
            ffor = rle_for.Plan(ints)
            if ffor.applicable and ffor.size < self.inner.size:
                self.inner, self.inner_for = ffor, True
        inner_size = self.inner.size if self.inner else 0
        item = 4 if self.is_f32 else 8
        def _vlen(v: int) -> int:
            return max(1, (v.bit_length() + 6) // 7)

        self.size = (
            2
            + _vlen(len(self.exc_pos))
            + _vlen(inner_size)
            + inner_size
            + len(self.exc_pos) * (4 + item)
        )
        # exception-dominated pages are a poor fit; callers compare sizes,
        # but flag outright pathological pages so selectors can skip fast
        self.applicable = len(ints) == 0 or len(self.exc_pos) <= len(ints) // 2

    def emit(self) -> bytes:
        inner = self.inner.emit() if self.inner else b""
        out = bytearray()
        out.append(self.exp)
        out.append((1 if self.is_f32 else 0) | (2 if self.inner_for else 0))
        write_uvarint(out, len(self.exc_pos))
        write_uvarint(out, len(inner))
        out += inner
        if len(self.exc_pos):
            out += self.exc_pos.tobytes()
            out += self.raw[self.exc_pos.astype(np.int64)].tobytes()
        return bytes(out)


def encode(vals: np.ndarray) -> bytes:
    return Plan(vals).emit()


def decode(buf: bytes, count: int, dtype=np.float64, at=None) -> np.ndarray:
    """The page's ``count`` values; ``at`` (ascending positions) only
    those: the integer stream is read at them and only their exceptions
    are patched in."""
    mv = memoryview(buf)
    e = mv[0]
    is_f32 = bool(mv[1] & 1)
    inner_for = bool(mv[1] & 2)
    i = 2
    n_exc, i = read_uvarint(mv, i)
    inner_len, i = read_uvarint(mv, i)
    if inner_len and inner_for:
        ints = rle_for.decode(mv[i : i + inner_len], count, np.int64, at)
    elif inner_len:
        ints = delta_bp.decode(mv[i : i + inner_len], np.int64, at)
    else:
        ints = np.zeros(count if at is None else len(at), np.int64)
    i += inner_len
    out64 = ints.astype(np.float64) / _POW10[e]
    out = out64.astype(np.float32) if is_f32 else out64
    if n_exc:
        pos = np.frombuffer(mv, np.uint32, count=n_exc, offset=i)
        i += 4 * n_exc
        item_t = np.float32 if is_f32 else np.float64
        raw = np.frombuffer(mv, item_t, count=n_exc, offset=i)
        pos = pos.astype(np.int64)
        if at is not None:  # the exceptions at selected positions, in place
            j = np.searchsorted(at, pos)
            hit = j < len(at)
            hit[hit] = at[j[hit]] == pos[hit]
            pos, raw = j[hit], raw[hit]
        out[pos] = raw
    if dtype is not None and out.dtype != dtype:
        out = out.astype(dtype)
    return out
