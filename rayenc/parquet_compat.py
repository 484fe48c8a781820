"""Parquet page decoding with rayenc kernels, and the conformance read.

SURVEY.md §5(c): cross-validation against parquet-format ground truth — pages
written by an independent implementation (pyarrow's C++ writer, configured
with explicit column encodings) are parsed and decoded by OUR kernels, which
proves byte-level compatibility with the formats the reference emits
(`Encoding.java:62-256` dispatch; page layout `ColumnWriterV1.java:61-81`).

This module holds the format plumbing every Parquet read shares: the
encoding-id and compression-codec tables, page headers (parsed by the one
thrift compact parser, ``thrift._read_struct``), the V1/V2 data-page layout
(rep/def levels + values, whose pages ``codecs.decode_pages`` decodes), and
Dremel record assembly. Files are opened, footers
parsed and pages located by ``parquet_read_enc.EncryptedFile`` (plaintext
and encrypted alike); ``read_table_conformance`` / ``read_column_chunk``
are thin entry points over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .codecs import concat_values, decode_pages, rle_hybrid
from .thrift import _read_struct

# parquet-format Encoding enum (parquet.thrift; Encoding.java), the one
# name <-> id table. PLAIN_DICTIONARY (2) is the deprecated spelling of
# RLE_DICTIONARY on data pages; BIT_PACKED (4) only ever encodes levels
ENCODING_ID = {
    "PLAIN": 0, "PLAIN_DICTIONARY": 2, "RLE": 3, "BIT_PACKED": 4,
    "DELTA_BINARY_PACKED": 5, "DELTA_LENGTH_BYTE_ARRAY": 6,
    "DELTA_BYTE_ARRAY": 7, "RLE_DICTIONARY": 8, "BYTE_STREAM_SPLIT": 9,
}
ENCODING_NAME = {v: k for k, v in ENCODING_ID.items()}

# parquet-format CompressionCodec enum (CompressionCodecName.java:26-33),
# keyed by the page codec names EncodeConfig.compression takes: "lz4" is
# LZ4_RAW (7), the raw-block variant readers implement; "lz4_hadoop" (5)
# and "lzo" (3) are the legacy Hadoop-framed codecs
CODEC_ID = {
    None: 0, "snappy": 1, "gzip": 2, "lzo": 3, "brotli": 4,
    "lz4_hadoop": 5, "zstd": 6, "lz4": 7,
}
CODEC_NAME = {v: k for k, v in CODEC_ID.items()}


def codec_for_name(name: "str | None"):
    """(CompressionCodec id, page codec or None) for a page codec name: the
    write direction of ``CODEC_ID``."""
    key = name.lower() if name else None
    if key not in CODEC_ID:
        raise ValueError(f"unsupported parquet page codec {name!r}")
    return CODEC_ID[key], codec_for_id(CODEC_ID[key])


def codec_for_id(codec_id: int):
    """Page codec for a CompressionCodec ordinal, None for UNCOMPRESSED: the
    read direction of ``CODEC_ID``. An unknown id gets a named error."""
    if codec_id not in CODEC_NAME:
        raise NotImplementedError(f"unsupported CompressionCodec id {codec_id}")
    name = CODEC_NAME[codec_id]
    if name == "lz4_hadoop":
        from .codecs.lz4hadoop import Lz4HadoopCodec

        return Lz4HadoopCodec()
    if name == "lzo":
        from .codecs.lzo import LzoHadoopCodec

        return LzoHadoopCodec()
    return pa.Codec("lz4_raw" if name == "lz4" else name) if name else None


DATA_PAGE = 0
INDEX_PAGE = 1
DICTIONARY_PAGE = 2
DATA_PAGE_V2 = 3


@dataclass
class PageHeader:
    type: int
    uncompressed_size: int
    compressed_size: int
    num_values: int
    encoding: int
    def_level_encoding: int | None = None
    rep_level_encoding: int | None = None
    v2_def_bytes: int = 0
    v2_rep_bytes: int = 0
    v2_is_compressed: bool = True
    v2_num_nulls: int = 0
    v2_num_rows: int = 0
    header_len: int = 0
    crc: int | None = None


def read_page_header(buf, i=0) -> PageHeader:
    """PageHeader at ``buf[i:]``; ValueError when it is truncated or lacks a
    required field."""
    if isinstance(buf, np.ndarray):
        buf = memoryview(buf)  # int indexing for the thrift parser
    fields, end = _read_struct(buf, i)
    try:
        ptype = fields[1]
        h = PageHeader(
            type=ptype,
            uncompressed_size=fields[2],
            compressed_size=fields[3],
            num_values=0,
            encoding=ENCODING_ID["PLAIN"],
            header_len=end - i,
            crc=fields.get(4),
        )
        if ptype == DATA_PAGE:
            d = fields[5]
            h.num_values = d[1]
            h.encoding = d[2]
            h.def_level_encoding = d[3]
            h.rep_level_encoding = d.get(4)
        elif ptype == DICTIONARY_PAGE:
            d = fields[7]
            h.num_values = d[1]
            h.encoding = d[2]
        elif ptype == DATA_PAGE_V2:
            d = fields[8]
            h.num_values = d[1]
            h.encoding = d[4]
            h.v2_def_bytes = d[5]
            h.v2_rep_bytes = d[6]
            h.v2_is_compressed = d.get(7, True)
            h.v2_num_nulls = d.get(2, 0)
            h.v2_num_rows = d.get(3, h.num_values)
        bad = min(h.compressed_size, h.uncompressed_size, h.num_values,
                  h.v2_def_bytes, h.v2_rep_bytes) < 0
    except (KeyError, TypeError, AttributeError) as ex:
        raise ValueError(f"malformed page header at offset {i}") from ex
    if bad:
        raise ValueError(f"negative size in page header at offset {i}")
    return h


# ------------------------------------------------------------- page decoding

def _value_type(ptype: str, type_length) -> tuple:
    """(type, FLBA width) a Parquet leaf's pages decode as: BYTE_ARRAY is
    the container's BINARY, and deprecated INT96 timestamps
    (Encoding.java:63; Spark legacy files) are 12-byte PLAIN rows."""
    if ptype == "INT96":
        return "FIXED_LEN_BYTE_ARRAY", 12
    return ("BINARY" if ptype == "BYTE_ARRAY" else ptype), type_length


def read_column_chunk(path: str, column: str, row_group: int = 0,
                      raw_levels: bool = False):
    """Decode one column chunk (leaf ``column``, dotted path) using ONLY
    rayenc decoders for levels and values. Returns a numpy array for fixed
    types or (offsets, data) for BYTE_ARRAY; nullable flat chunks with nulls
    add a validity array, repeated leaves their rep/def levels."""
    from .parquet_read_enc import _open_cached

    f = _open_cached(path, None)
    return f.decode_leaf(row_group, f.leaf_index(column), raw_levels=raw_levels)


def _decode_page_stream(
    pages, num_values, max_rep, max_def, ptype, type_length,
    raw_levels: bool = False,
):
    """Decode a stream of (PageHeader, decompressed body) pairs — the shared
    half of read_column_chunk, also fed by the modular-encryption page
    decryptor (rayenc.parquet_read_enc). Levels are read here; values go
    through the one page decoder, ``codecs.decode_pages``."""
    from .codecs.bitpack import bit_width32, unpack_msb

    w_rep = bit_width32(max_rep)
    w_def = bit_width32(max_def)
    ptype, width = _value_type(ptype, type_length)
    bit_packed = ENCODING_ID["BIT_PACKED"]
    remaining = num_values
    dictionary = None
    out_parts = []
    level_parts = []
    rep_parts = []
    for h, body in pages:
        if remaining <= 0:
            break
        if h.type == DICTIONARY_PAGE:
            dictionary = decode_pages("PLAIN", ptype, [(body, h.num_values)], width=width)
            continue
        nvals = h.num_values
        if h.type == DATA_PAGE:
            # V1 layout: [rep levels: framed RLE][def levels: framed RLE]
            # [values]; REQUIRED flat columns (max levels == 0) omit levels.
            # The deprecated BIT_PACKED levels are big-endian and unframed
            # (legacy parquet-java files)
            body_v = body
            if max_rep > 0:
                if h.rep_level_encoding == bit_packed:
                    nb = (h.num_values * w_rep + 7) // 8
                    rep_parts.append(unpack_msb(body_v[:nb], h.num_values, w_rep))
                    body_v = body_v[nb:]
                else:
                    rlv, consumed = rle_hybrid.decode_framed(
                        body_v, h.num_values, w_rep
                    )
                    rep_parts.append(rlv)
                    body_v = body_v[consumed:]
            if max_def > 0 and h.def_level_encoding == ENCODING_ID["RLE"]:
                levels, consumed = rle_hybrid.decode_framed(
                    body_v, h.num_values, w_def
                )
                level_parts.append(levels)
                nvals = int((levels == max_def).sum())  # nulls hold no value slot
                body_v = body_v[consumed:]
            elif max_def > 0 and h.def_level_encoding == bit_packed:
                nbytes = (h.num_values * w_def + 7) // 8
                levels = unpack_msb(body_v[:nbytes], h.num_values, w_def)
                level_parts.append(levels)
                nvals = int((levels == max_def).sum())
                body_v = body_v[nbytes:]
        elif h.type == DATA_PAGE_V2:
            if max_rep > 0 and h.v2_rep_bytes:
                rep_parts.append(
                    rle_hybrid.decode(body[: h.v2_rep_bytes], h.num_values, w_rep)
                )
            if max_def > 0 and h.v2_def_bytes:
                levels = rle_hybrid.decode(
                    body[h.v2_rep_bytes : h.v2_rep_bytes + h.v2_def_bytes],
                    h.num_values,
                    w_def,
                )
                level_parts.append(levels)
                nvals = int((levels == max_def).sum())
            body_v = body[h.v2_rep_bytes + h.v2_def_bytes :]
        else:
            remaining -= h.num_values
            continue
        encoding = ENCODING_NAME.get(h.encoding, h.encoding)
        if encoding in ("PLAIN_DICTIONARY", "RLE_DICTIONARY"):
            if dictionary is None:
                raise ValueError("dictionary-encoded page without a dictionary page")
            encoding = "RLE_DICTIONARY"
        elif encoding == "RLE":
            # RLE as a VALUE encoding (BOOLEAN) is 4-byte length framed in
            # both V1 and V2 pages (only LEVELS drop the frame in V2)
            body_v = body_v[4 : 4 + int.from_bytes(bytes(body_v[:4]), "little")]
        out_parts.append(decode_pages(encoding, ptype, [(body_v, nvals)], dictionary, width))
        remaining -= h.num_values
    values = concat_values(out_parts, ptype, width)
    if raw_levels:
        rep = np.concatenate(rep_parts) if rep_parts else None
        deflev = np.concatenate(level_parts) if level_parts else None
        return values, rep, deflev
    if max_rep > 0:
        rep = np.concatenate(rep_parts) if rep_parts else np.zeros(0, np.uint32)
        deflev = (
            np.concatenate(level_parts)
            if level_parts
            else np.full(len(rep), max_def, np.uint32)
        )
        return values, rep, deflev  # (dense values, rep levels, def levels)
    if level_parts:
        levels = np.concatenate(level_parts)
        valid = levels == max_def
        if not valid.all():
            return values, valid  # (dense values, validity)
    return values


def int96_to_timestamp_ns(vals: np.ndarray) -> np.ndarray:
    """Convert decoded INT96 rows (n, 12 bytes) to int64 epoch nanoseconds
    (nanos-in-day + Julian day, the deprecated Spark/Impala layout)."""
    v = np.ascontiguousarray(vals, np.uint8)
    nanos = v[:, :8].copy().view(np.int64).reshape(-1)
    julian = v[:, 8:12].copy().view(np.int32).reshape(-1).astype(np.int64)
    return (julian - 2440588) * 86_400_000_000_000 + nanos


def read_list_column(path: str, field_name: str, row_group: int = 0):
    """Decode one list (or any nested) column of one row group from real
    rep/def levels using rayenc decoders only; returns an array equal to
    pyarrow's read. Handles null lists, empty lists and null elements."""
    from .parquet_read_enc import _open_cached

    f = _open_cached(path, None)
    leaves = [
        f.decode_leaf(row_group, i, raw_levels=True)
        for i, leaf in enumerate(f.leaves)
        if leaf.path[0] == field_name
    ]
    return assemble_tree(f.arrow_schema().field(field_name), leaves)


def assemble_flat(r, t):
    """Decoded flat leaf chunk + arrow type -> pa.Array (nulls restored,
    logical type cast applied)."""
    if isinstance(r, tuple) and len(r) == 2 and r[1].dtype == bool:
        dense, valid = r
        return _scatter_dense(_to_dense_arrow(dense, t), valid, t)
    return _to_dense_arrow(r, t).cast(t)


def _decimal_dense(v: np.ndarray, t) -> "pa.Array":
    """Dense decoded decimal storage -> pa.Decimal128/256Array. Parquet
    DECIMAL rides on FLBA (big-endian two's complement, minimal width — our
    writer and pyarrow) or INT32/INT64 unscaled (DuckDB for small
    precisions); arrow decimal buffers are 16/32-byte little-endian two's
    complement, so the conversion is a byte reverse + sign extension."""
    import pyarrow as pa

    width = 32 if t.precision > 38 else 16  # decimal256 beyond p=38
    if v.ndim == 2:  # FLBA rows, big-endian
        n, L = v.shape
        out = np.zeros((n, width), np.uint8)
        out[:, :L] = v[:, ::-1]
        out[v[:, 0] >= 128, L:] = 0xFF
    else:  # INT32/INT64 unscaled
        n = len(v)
        out = np.zeros((n, width), np.uint8)
        out[:, :8] = v.astype("<i8").view(np.uint8).reshape(n, 8)
        out[v < 0, 8:] = 0xFF
    return pa.Array.from_buffers(t, n, [None, pa.py_buffer(out.tobytes())])


def _scatter_dense(dense, elem_valid: np.ndarray, elem_t):
    """Scatter dense leaf values over element slots (None where absent)."""
    import pyarrow as pa

    n_elem = len(elem_valid)
    take = np.full(n_elem, -1, np.int64)
    take[elem_valid] = np.arange(int(elem_valid.sum()))
    return dense.take(pa.array(take, pa.int64(), mask=take < 0)).cast(elem_t)


def _to_dense_arrow(vals, t):
    """Dense decoded leaf values -> pa.Array in the storage ``t`` casts
    from: INT96 rows become ns timestamps, FLBA(2) FLOAT16 halves, other
    FLBA fixed-size binary; unsigned logical ints reinterpret their signed
    physical bits."""
    import pyarrow as pa

    if isinstance(vals, tuple):  # BYTE_ARRAY
        from .codecs.dictionary import binary_array

        dense = binary_array(*vals)
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
            dense = dense.cast(pa.large_binary())
        return dense
    v = np.asarray(vals)
    if pa.types.is_decimal(t):
        return _decimal_dense(v, t)
    if v.ndim == 2 and v.shape[1] == 12 and pa.types.is_timestamp(t):
        return pa.array(int96_to_timestamp_ns(v), pa.timestamp("ns"))
    if v.ndim == 2 and pa.types.is_float16(t):
        # FLOAT16 logical type: FLBA(2) bytes ARE little-endian halves
        return pa.array(np.ascontiguousarray(v).view("<f2").ravel())
    if v.ndim == 2:
        return pa.array([bytes(row) for row in v], pa.binary(v.shape[1]))
    if pa.types.is_boolean(t):
        return pa.array(v.astype(bool))
    if pa.types.is_temporal(t):
        return pa.array(v, pa.int64() if v.dtype == np.int64 else pa.int32())
    if pa.types.is_unsigned_integer(t) and v.dtype.kind == "i":
        # UINT logical types store the same bit pattern in signed
        # physical ints — reassemble by view, not value cast
        return pa.array(v.view(v.dtype.str.replace("i", "u")))
    return pa.array(v)


def _count_leaves(t) -> int:
    import pyarrow as pa

    if pa.types.is_map(t):
        return _count_leaves(t.key_type) + _count_leaves(t.item_type)
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        return _count_leaves(t.value_type)
    if pa.types.is_struct(t):
        return sum(_count_leaves(c.type) for c in t)
    return 1


def assemble_tree(field, leaves: list):
    """General vectorized Dremel record assembly: rebuild one (arbitrarily
    nested) arrow column from its leaves' (dense values, rep, def) triples,
    in depth-first leaf order — the inverse of parquet_write._walk and the
    RecordReaderImplementation.java state machine, done level-at-a-time
    with numpy instead of per-record transitions.

    ``leaves``: [(vals, rep:np|None, def:np|None), ...]. Levels follow the
    writer's convention: a nullable node adds one def level; a list adds one
    rep and one def level, with entry slots at def >= that level."""
    import pyarrow as pa

    def build(f, lvs, r, d):
        t = f.type
        if f.nullable:
            d += 1
        if pa.types.is_map(t) or pa.types.is_list(t) or pa.types.is_large_list(t):
            is_map = pa.types.is_map(t)
            rep0, def0 = lvs[0][1], lvs[0][2]
            parent = rep0 <= r
            n_rec = int(parent.sum())
            r2, d2 = r + 1, d + 1
            keep = def0 >= d2  # slots inside surviving entries (any depth)
            # an ENTRY at this level starts at rep <= r2; deeper slots
            # (rep > r2) continue an entry's subtree and must not be counted
            entry = keep & (rep0 <= r2)
            rec_id = np.cumsum(parent) - 1
            counts = np.bincount(rec_id[entry], minlength=n_rec)
            offsets = np.zeros(n_rec + 1, np.int64)
            np.cumsum(counts, out=offsets[1:])
            null_rec = None
            if f.nullable:
                first_def = def0[parent]
                null_rec = first_def < d
            sub = [
                (vals, rp[keep], dv[keep]) for vals, rp, dv in lvs
            ]
            if is_map:
                elem_f = pa.field(
                    "entries",
                    pa.struct(
                        [pa.field("key", t.key_type, False),
                         pa.field("value", t.item_type, True)]
                    ),
                    False,
                )
            else:
                elem_f = pa.field(
                    "element", t.value_type, t.value_field.nullable
                )
            child = build(elem_f, sub, r2, d2)
            off_arr = pa.array(
                offsets, pa.int64(),
                mask=np.concatenate([null_rec, [False]])
                if null_rec is not None and null_rec.any() else None,
            )
            if is_map:
                out = pa.MapArray.from_arrays(
                    off_arr.cast(pa.int32()), child.field(0), child.field(1)
                )
                if null_rec is not None and null_rec.any():
                    # MapArray.from_arrays lacks a mask param: rebuild with
                    # the validity from the (masked) offsets array
                    out = pa.Array.from_buffers(
                        out.type, len(out),
                        [off_arr.cast(pa.int32()).buffers()[0],
                         off_arr.cast(pa.int32()).buffers()[1]],
                        children=[out.values],
                    )
                return out.cast(t)
            cls = pa.LargeListArray if pa.types.is_large_list(t) else pa.ListArray
            if pa.types.is_list(t):
                off_arr = off_arr.cast(pa.int32())
            return cls.from_arrays(off_arr, child).cast(t)
        if pa.types.is_struct(t):
            def0 = lvs[0][2]
            smask = None
            if f.nullable and def0 is not None:
                invalid = def0 < d
                smask = pa.array(invalid) if invalid.any() else None
            arrays = []
            pos = 0
            for child_f in t:
                k = _count_leaves(child_f.type)
                arrays.append(build(child_f, lvs[pos : pos + k], r, d))
                pos += k
            # pass the typed fields, not just names: a REQUIRED child
            # (e.g. list<struct<number int64 not null, ...>>, as written
            # by parquet-java's example model) must keep its
            # non-nullable flag — pyarrow refuses a later cast from an
            # all-nullable struct to one with a `not null` child
            return pa.StructArray.from_arrays(
                arrays, fields=list(t), mask=smask
            )
        # primitive leaf
        vals, rep0, def0 = lvs[0]
        dense = _to_dense_arrow(vals, t)
        if def0 is None:
            return dense.cast(t)
        valid = def0 == d
        return _scatter_dense(dense, valid, t)

    # normalize: nested leaves always carry levels; a leaf with neither is a
    # flat REQUIRED column (primitive fast path). rep may be absent for flat
    # OPTIONAL leaves — synthesize zeros so list math never sees None.
    norm = []
    for vals, rp, dv in leaves:
        if dv is not None and rp is None:
            rp = np.zeros(len(dv), np.int64)
        norm.append(
            (vals,
             None if rp is None else np.asarray(rp),
             None if dv is None else np.asarray(dv))
        )
    return build(field, norm, 0, 0)


def read_table_conformance(path: str, columns: "list[str] | None" = None) -> "pa.Table":
    """Decode a whole parquet file — flat, decimal and any nested columns,
    all row groups — with rayenc decoders only, returning a pa.Table equal
    to pyarrow's read: the file-level conformance gate. ``columns`` prunes
    at the chunk level: unlisted columns' pages are never read (column
    names the file lacks are ignored so evolved-schema callers can pass the
    union's names). The no-predicate case of
    ``parquet_read_enc.read_table_filtered``."""
    from .parquet_read_enc import _open_cached, read_table_filtered

    if columns is not None:
        have = set(_open_cached(path, None).arrow_schema().names)
        columns = [c for c in columns if c in have]
    return read_table_filtered(path, None, columns=columns)


# ---------------------------------------------------------------------------
# Schema evolution: merged-footer reads (GlobalMetaData / MessageType.union)
# ---------------------------------------------------------------------------

class IncompatibleSchemaError(ValueError):
    """IncompatibleSchemaModificationException analog
    (parquet-column/.../schema/GroupType.java:380, PrimitiveType.java:887)."""


_INT_RANK = {8: 0, 16: 1, 32: 2, 64: 3}


def _widen_types(a, b):
    """Smallest arrow type both ``a`` and ``b`` cast into losslessly, or
    None when there is none. This is the non-strict extension beyond
    MessageType.union(strict=false) (which keeps the first type): numeric
    widening the way engines evolve columns in practice (int32->int64,
    float->double, decimal precision growth at equal scale)."""
    import pyarrow as pa

    if a.equals(b):
        return a
    for t in (a, b):
        if not (
            pa.types.is_integer(t) or pa.types.is_floating(t)
            or pa.types.is_decimal(t)
        ):
            return None
    if pa.types.is_decimal(a) or pa.types.is_decimal(b):
        if (
            pa.types.is_decimal(a) and pa.types.is_decimal(b)
            and a.scale == b.scale
        ):
            prec = max(a.precision, b.precision)
            return pa.decimal128(prec, a.scale) if prec <= 38 else pa.decimal256(prec, a.scale)
        return None
    if pa.types.is_floating(a) or pa.types.is_floating(b):
        # float+float -> wider float; int+float -> float64 (lossless for
        # int32 and below; int64+float loses, refuse)
        if pa.types.is_floating(a) and pa.types.is_floating(b):
            return a if a.bit_width >= b.bit_width else b
        i = a if pa.types.is_integer(a) else b
        return pa.float64() if i.bit_width <= 32 else None
    if pa.types.is_signed_integer(a) != pa.types.is_signed_integer(b):
        # unsigned fits in the next-wider signed
        u = a if pa.types.is_unsigned_integer(a) else b
        s = b if u is a else a
        if s.bit_width > u.bit_width:
            return s
        wider = u.bit_width * 2 if u.bit_width >= s.bit_width else s.bit_width * 2
        return {16: pa.int16(), 32: pa.int32(), 64: pa.int64()}.get(wider)
    return a if a.bit_width >= b.bit_width else b


def _union_field(f, g, strict, path):
    import pyarrow as pa

    nullable = f.nullable or g.nullable
    ft, gt = f.type, g.type
    if pa.types.is_struct(ft) and pa.types.is_struct(gt):
        return pa.field(
            f.name, pa.struct(_union_fields(list(ft), list(gt), strict, path)),
            nullable,
        )
    if (
        (pa.types.is_list(ft) and pa.types.is_list(gt))
        or (pa.types.is_large_list(ft) and pa.types.is_large_list(gt))
    ):
        elem = _union_field(ft.value_field, gt.value_field, strict, path + ".list")
        return pa.field(
            f.name,
            pa.list_(elem) if pa.types.is_list(ft) else pa.large_list(elem),
            nullable,
        )
    if ft.equals(gt):
        return pa.field(f.name, ft, nullable)
    if strict:
        raise IncompatibleSchemaError(
            f"can not merge type {gt} into {ft} at {path!r}"
            " (MessageType.union strict: primitive type names, logical"
            " types and FLBA lengths must match)"
        )
    wide = _widen_types(ft, gt)
    if wide is None:
        raise IncompatibleSchemaError(
            f"can not merge type {gt} into {ft} at {path!r}: no lossless widening"
        )
    return pa.field(f.name, wide, nullable)


def _union_fields(a_fields, b_fields, strict, path):
    by_name = {f.name: f for f in b_fields}
    if len(by_name) != len(b_fields):
        raise IncompatibleSchemaError(f"duplicate field names under {path!r}")
    out = []
    for f in a_fields:
        g = by_name.get(f.name)
        out.append(f if g is None else _union_field(f, g, strict, f"{path}.{f.name}"))
    seen = {f.name for f in a_fields}
    # new fields appended in their own order, forced nullable: rows from
    # files that predate the field have no values for it
    # (GroupType.mergeFields "add new fields" tail loop)
    for g in b_fields:
        if g.name not in seen:
            out.append(g.with_nullable(True))
    return out


def union_schemas(schemas, strict: bool = True):
    """``MessageType.union`` over arrow schemas
    (parquet-column/.../schema/MessageType.java:134-140,
    GroupType.java:398-435): field order of the first schema with later
    files' new fields appended; struct/list types merge recursively;
    ``strict=True`` (the reference default) requires identical primitive
    types, ``strict=False`` additionally widens numerics losslessly."""
    import pyarrow as pa

    uni = list(schemas[0])
    for s in schemas[1:]:
        uni = _union_fields(uni, list(s), strict, "")
    return pa.schema(uni)


def _align_array(col, t):
    """Cast one column to its unified-schema type, recursing into structs
    so fields added by evolution materialize as nulls."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.type.equals(t):
        return col
    if pa.types.is_struct(t) and pa.types.is_struct(col.type):
        have = {f.name for f in col.type}
        children = [
            _align_array(col.field(f.name), f.type) if f.name in have
            else pa.nulls(len(col), f.type)
            for f in t
        ]
        return pa.StructArray.from_arrays(
            children, fields=list(t), mask=pc.is_null(col)
        )
    if (pa.types.is_list(t) or pa.types.is_large_list(t)) and (
        pa.types.is_list(col.type) or pa.types.is_large_list(col.type)
    ):
        values = _align_array(col.values, t.value_type)
        cls = pa.ListArray if pa.types.is_list(t) else pa.LargeListArray
        return cls.from_arrays(col.offsets, values, mask=pc.is_null(col))
    return pc.cast(col, t)


def align_table(table, unified):
    """Project one file's table onto the unified schema: present columns
    cast/recursed, absent columns as typed nulls — what the reference's
    read path does when the requested MessageType has fields a file lacks
    (ColumnIOFactory builds null readers for missing paths)."""
    import pyarrow as pa

    cols = [
        _align_array(table.column(f.name), f.type)
        if f.name in table.column_names else pa.nulls(table.num_rows, f.type)
        for f in unified
    ]
    return pa.Table.from_arrays(cols, schema=unified)


def read_tables_evolved(paths, strict: bool = True, columns=None):
    """Merged-footer multi-file read (ParquetFileWriter.getGlobalMetaData,
    hadoop/ParquetFileWriter.java:2371-2395): union the file schemas, then
    conformance-read every file with OUR decoders and align each to the
    union — missing columns become nulls, widened columns cast. The
    distributed variant is pipeline.read_parquet_evolved."""
    import pyarrow as pa

    from .parquet_read_enc import _open_cached

    schemas = [_open_cached(p, None).arrow_schema() for p in paths]
    uni = union_schemas(schemas, strict)
    if columns is not None:
        uni = pa.schema([uni.field(c) for c in columns])
    parts = [
        align_table(read_table_conformance(p, columns=uni.names), uni)
        for p in paths
    ]
    return pa.concat_tables(parts)
