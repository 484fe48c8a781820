"""ColumnIndex contract validation.

From-scratch analog of parquet-hadoop's
`hadoop/ColumnIndexValidator.java`: decode every data page of a file and
check the written ColumnIndex/OffsetIndex against the actual page contents
— null_pages flags, per-page null counts, bound containment in the column's
comparator domain (unsigned ints, IEEE half floats, bytewise strings with
truncate/increment uppers), and that a declared ASCENDING/DESCENDING
boundary_order is actually monotone. A page whose CRC does not match is
reported as a violation and its contents are still checked. Returns
human-readable violations instead of throwing, so the CLI can report all of
them at once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import stats
from .parquet_read_enc import (
    EncryptedFile,
    FileDecryption,
    PageCrcError,
    _decode_selected_pages,
    _parse_index,
)


def _actual_bounds(arr: pa.Array):
    """(min, max) of a page's non-null values in the stats domain."""
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t) \
            or pa.types.is_large_binary(t) or pa.types.is_fixed_size_binary(t):
        arr = arr.cast(pa.large_binary())
    mm = pc.min_max(arr)
    lo, hi = mm["min"].as_py(), mm["max"].as_py()
    if pa.types.is_decimal(t):  # bounds are unscaled ints
        return int(lo.scaleb(t.scale)), int(hi.scaleb(t.scale))
    return lo, hi


def validate_column_index(
    path: str, decryption: FileDecryption | None = None
) -> list[str]:
    """All ColumnIndex contract violations in ``path`` (empty = valid).

    Flat leaves are fully checked (bounds, null counts, null_pages,
    boundary_order); nested leaves are checked for index shape only, since
    per-page row alignment under repetition needs record assembly."""
    f = EncryptedFile(path, decryption)
    schema = f.arrow_schema()
    issues: list[str] = []
    for rg in range(len(f.row_groups)):
        for ci, leaf in enumerate(f.leaves):
            idx = _parse_index(f, rg, ci)
            if idx is None:
                continue
            cidx, oidx = idx
            where = f"rg {rg} col {leaf.dotted}"
            nulls = cidx.get(1, [])
            mins, maxs = cidx.get(2, []), cidx.get(3, [])
            counts = cidx.get(5, [])
            locs = oidx.get(1, [])
            if not (len(nulls) == len(mins) == len(maxs) == len(locs)):
                issues.append(
                    f"{where}: index length mismatch "
                    f"(null_pages {len(nulls)}, mins {len(mins)}, "
                    f"maxs {len(maxs)}, locations {len(locs)})"
                )
                continue
            if leaf.max_rep > 0 or len(leaf.path) > 1:
                continue  # nested: shape-checked only
            try:
                arrow_t = schema.field(leaf.dotted).type
            except KeyError:
                continue
            written, dec = [], stats.bound_decoder(leaf.ptype, leaf.type)
            for p in range(len(locs)):
                try:
                    arr = _decode_selected_pages(f, rg, ci, locs, [p], arrow_t)
                except PageCrcError as ex:
                    # report it, then still check what the page holds
                    issues.append(f"{where} page {p}: {ex}")
                    arr = _decode_selected_pages(
                        f, rg, ci, locs, [p], arrow_t, check_crc=False
                    )
                if isinstance(arr, pa.ChunkedArray):
                    arr = arr.combine_chunks()
                defined = len(arr) - arr.null_count
                if bool(nulls[p]) != (defined == 0):
                    issues.append(
                        f"{where} page {p}: null_pages={bool(nulls[p])} but "
                        f"{defined} non-null values"
                    )
                if p < len(counts) and counts[p] != arr.null_count:
                    issues.append(
                        f"{where} page {p}: null_count {counts[p]} != "
                        f"actual {arr.null_count}"
                    )
                if defined == 0 or dec is None:  # INT96 has no defined order
                    continue
                bounds = dec(mins[p], maxs[p])
                if bounds is None:
                    issues.append(f"{where} page {p}: malformed bounds")
                    continue
                written.append(bounds)
                lo, hi = bounds
                amn, amx = _actual_bounds(arr)
                if isinstance(lo, bytes) and isinstance(amn, str):
                    amn, amx = amn.encode(), amx.encode()
                if amn < lo:
                    issues.append(
                        f"{where} page {p}: value {amn!r} below written "
                        f"min {lo!r}"
                    )
                # truncated uppers were incremented: containment, not equality
                if amx > hi:
                    issues.append(
                        f"{where} page {p}: value {amx!r} above written "
                        f"max {hi!r}"
                    )
            order = cidx.get(4, 0)
            if order == 1 and not stats.monotone(written, ascending=True):
                issues.append(f"{where}: boundary_order ASCENDING but bounds are not")
            if order == 2 and not stats.monotone(written, ascending=False):
                issues.append(f"{where}: boundary_order DESCENDING but bounds are not")
    return issues

