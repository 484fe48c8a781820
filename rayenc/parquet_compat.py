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
the conversion of a column's leaf levels into the container's per-level
streams, which ``schema.assemble`` rebuilds. Files are opened, footers
parsed and pages located by ``parquet_read_enc.EncryptedFile`` (plaintext
and encrypted alike), which takes each leaf's Arrow type from
``message_type``'s one SchemaElement -> Arrow derivation;
``read_table_conformance`` / ``read_column_chunk`` are thin entry points
over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .codecs import concat_values, decode_pages, rle_hybrid
from .schema import assemble, spread
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
    add a validity array, repeated leaves their rep/def levels.
    ``raw_levels`` always returns (values, rep, def), None where the max
    level is 0."""
    from .parquet_read_enc import _open_cached

    f = _open_cached(path, None)
    i = f.leaf_index(column)
    values, rep, dfv = f.decode_leaf(row_group, i)
    if raw_levels or rep is not None:
        return values, rep, dfv
    if dfv is not None:
        valid = dfv == f.leaves[i].max_def
        if not valid.all():
            return values, valid
    return values


BIT_PACKED = ENCODING_ID["BIT_PACKED"]


class _ChunkLevels:
    """One level (rep or def) of a chunk's data pages, gathered page by
    page and decoded by one ``rle_hybrid.decode`` call over all the pages'
    hybrid runs, in the smallest unsigned dtype that holds ``max_level``."""

    def __init__(self, max_level: int):
        from .codecs.bitpack import bit_width32

        self.width = bit_width32(max_level)
        self.dtype = np.min_scalar_type(max_level)
        self.streams: list = []
        self.counts: list = []
        self.pages: list = []  # per page: None for a hybrid stream, else its levels

    def hybrid(self, payload, n: int) -> None:
        self.streams.append(payload)
        self.counts.append(n)
        self.pages.append(None)

    def constant(self, n: int, level: int) -> None:
        """A page that stores no levels of this kind."""
        self.pages.append(np.full(n, level, self.dtype))

    def v1(self, body, encoding: int, n: int):
        """Take one V1 page's levels off the front of ``body``, returning
        the rest: the 4-byte framed hybrid run, or the deprecated
        big-endian unframed BIT_PACKED levels (legacy parquet-java files),
        which ``_v1_levels`` decodes here."""
        if encoding == BIT_PACKED:
            levels, used = _v1_levels(body, n, self.width)
            self.pages.append(levels.astype(self.dtype))
        else:
            payload, used = rle_hybrid.unframe(body)
            self.hybrid(payload, n)
        return body[used:]

    def decode(self) -> np.ndarray:
        levels = rle_hybrid.decode(self.streams, self.counts, self.width, self.dtype)
        if all(p is None for p in self.pages):
            return levels
        runs = iter(np.split(levels, np.cumsum(self.counts)[:-1]))
        return np.concatenate([next(runs) if p is None else p for p in self.pages])


def _v1_levels(buf, n: int, width: int):
    """(levels, bytes used) of one V1 page's deprecated BIT_PACKED level
    run: big-endian, unframed."""
    from .codecs.bitpack import unpack_msb

    nbytes = (n * width + 7) // 8
    return unpack_msb(buf[:nbytes], n, width), nbytes


def _decode_page_stream(pages, num_values, max_rep, max_def, ptype, type_length):
    """Decode a stream of (PageHeader, decompressed body) pairs into
    (dense values, rep levels, def levels) — the shared half of every
    Parquet chunk read, whole or page-selected, plain or decrypted.

    Levels are decoded per chunk, in two passes. The first splits each data
    page into its level runs (V1 length-framed, V2 unframed) and its value
    body. The second decodes all the pages' rep levels in one
    ``rle_hybrid.decode`` call and their def levels in another, counts each
    page's values from the def levels, and decodes the value pages through
    the one page decoder, ``codecs.decode_pages``. A chunk without levels
    decodes each value page in the first pass, holding no body. Levels are
    None where the max level is 0, else in the smallest unsigned dtype that
    holds it; a page without them reads as rep 0 and def ``max_def``."""
    ptype, width = _value_type(ptype, type_length)
    reps, defs = _ChunkLevels(max_rep), _ChunkLevels(max_def)
    remaining = num_values
    dictionary = None
    data = []  # (num_values, encoding, value body) per data page with levels
    out_parts = []

    def page_values(enc, body_v, nvals):
        encoding = ENCODING_NAME.get(enc, enc)
        if encoding in ("PLAIN_DICTIONARY", "RLE_DICTIONARY"):
            if dictionary is None:
                raise ValueError("dictionary-encoded page without a dictionary page")
            encoding = "RLE_DICTIONARY"
        elif encoding == "RLE":
            # RLE as a VALUE encoding (BOOLEAN) is 4-byte length framed in
            # both V1 and V2 pages (only LEVELS drop the frame in V2)
            body_v = body_v[4 : 4 + int.from_bytes(bytes(body_v[:4]), "little")]
        out_parts.append(decode_pages(encoding, ptype, [(body_v, nvals)], dictionary, width))

    for h, body in pages:
        if remaining <= 0:
            break
        if h.type == DICTIONARY_PAGE:
            dictionary = decode_pages("PLAIN", ptype, [(body, h.num_values)], width=width)
            continue
        n = h.num_values
        if h.type == DATA_PAGE:
            # V1 layout: [rep levels][def levels][values]; REQUIRED flat
            # columns (max levels == 0) omit levels
            body_v = body
            if max_rep > 0:
                body_v = reps.v1(body_v, h.rep_level_encoding, n)
            if max_def > 0:
                if h.def_level_encoding in (ENCODING_ID["RLE"], BIT_PACKED):
                    body_v = defs.v1(body_v, h.def_level_encoding, n)
                else:
                    defs.constant(n, max_def)
        elif h.type == DATA_PAGE_V2:
            r, d = h.v2_rep_bytes, h.v2_def_bytes
            if max_rep > 0 and r:
                reps.hybrid(body[:r], n)
            elif max_rep > 0:
                reps.constant(n, 0)
            if max_def > 0 and d:
                defs.hybrid(body[r : r + d], n)
            elif max_def > 0:
                defs.constant(n, max_def)
            body_v = body[r + d :]
        else:
            remaining -= n
            continue
        if max_def > 0:
            data.append((n, h.encoding, body_v))
        else:  # no levels: the header's value count is the page's
            page_values(h.encoding, body_v, n)
        remaining -= n
    rep = reps.decode() if max_rep > 0 else None
    dfv = None
    if max_def > 0:
        dfv = defs.decode()
        defined = dfv == max_def  # nulls hold no value slot
        end = 0
        for n, enc, body_v in data:
            page_values(enc, body_v, int(np.count_nonzero(defined[end : end + n])))
            end += n
    return concat_values(out_parts, ptype, width), rep, dfv


def int96_to_timestamp_ns(vals: np.ndarray) -> np.ndarray:
    """Convert decoded INT96 rows (n, 12 bytes) to int64 epoch nanoseconds
    (nanos-in-day + Julian day, the deprecated Spark/Impala layout)."""
    v = np.ascontiguousarray(vals, np.uint8)
    nanos = v[:, :8].copy().view(np.int64).reshape(-1)
    julian = v[:, 8:12].copy().view(np.int32).reshape(-1).astype(np.int64)
    return (julian - 2440588) * 86_400_000_000_000 + nanos


def _decimal_storage(v: np.ndarray, t) -> np.ndarray:
    """Decoded Parquet DECIMAL values -> the container's decimal storage,
    16/32-byte little-endian two's complement rows. Parquet DECIMAL rides
    on FLBA (big-endian two's complement, minimal width — our writer and
    pyarrow) or INT32/INT64 unscaled (DuckDB for small precisions), so the
    conversion is a byte reverse + sign extension."""
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
    return out


def _parquet_values(vals, t):
    """Dense decoded Parquet leaf values -> the container's storage
    convention for arrow type ``t`` (what ``schema.assemble`` reads):
    INT96 rows become ns timestamps and decimals little-endian full-width
    rows; everything else already is container storage."""
    if isinstance(vals, tuple):  # BYTE_ARRAY (offsets, data)
        return vals
    v = np.asarray(vals)
    if pa.types.is_decimal(t):
        return _decimal_storage(v, t)
    if v.ndim == 2 and v.shape[1] == 12 and pa.types.is_timestamp(t):
        return int96_to_timestamp_ns(v)
    return v


def _count_leaves(t) -> int:
    if pa.types.is_map(t):
        return _count_leaves(t.key_type) + _count_leaves(t.item_type)
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        return _count_leaves(t.value_type)
    if pa.types.is_struct(t):
        return sum(_count_leaves(c.type) for c in t)
    return 1


def _slot_nulls(dfv, slots, d):
    """Which slots of a level are below definition level ``d`` (a -1 slot,
    under a null fixed-size-list parent, reads the 0 pad), or None; a leaf
    whose def levels are all at max (``dfv`` None) has none."""
    if dfv is None:
        return None
    null = dfv < d if slots is None else np.append(dfv, 0)[slots] < d
    return null if null.any() else None


def _all_defined(dfv, max_def: int) -> bool:
    """Whether a leaf has no def levels or all at ``max_def``: no null
    anywhere above the leaf, and no empty list."""
    return dfv is None or not len(dfv) or int(dfv.min()) == int(dfv.max()) == max_def


def assemble_leaves(field: pa.Field, level_field: pa.Field, leaves: list) -> pa.Array:
    """Rebuild one column through ``schema.assemble`` from its Parquet
    leaves, one (dense values, rep, def, max_def) each in depth-first order:
    the inverse of ``parquet_write.leaf_levels``. The levels become the
    container's per-level streams — ``#lengths`` of lists and maps,
    ``#valid`` of structs and fixed-size lists, each leaf's null mask.
    ``level_field`` is the field as the Parquet schema shapes it
    (``message_type._node_field``): its nullability says which nodes own a definition
    level, while ``field`` has the arrow types. A level's slots are the
    entries that start one; the children of a null fixed-size list get
    null slots, which the container keeps, and a required leaf under a
    null parent its type's zero. A leaf whose def levels are all at max
    skips every def pass: its elements start where its rep level allows,
    so a list over it takes ``#lengths`` from the rep-0 positions alone."""
    chunks: dict = {}

    def walk(t, g, name, lvs, r, d):
        # lvs: [values, rep, def, max_def, slots] per leaf; def is None
        # when all at max; slots are the entries starting this level's
        # slots (-1: none), None for all
        if pa.types.is_dictionary(t):
            t = t.value_type
        d += g.nullable
        if not pa.types.is_nested(t):
            ((values, _, dfv, max_def, slots),) = lvs
            values = _parquet_values(values, t)
            null = _slot_nulls(dfv, slots, max_def)
            if null is not None and not g.nullable:
                # no value under a null parent: the type's zero, as pyarrow
                # reads it, not a null in a non-nullable field
                values, null = spread(values, ~null), None
            chunks[name] = (values, null)
            return
        null = _slot_nulls(lvs[0][2], lvs[0][4], d) if g.nullable else None
        fsl = pa.types.is_fixed_size_list(t)
        if (fsl or pa.types.is_struct(t)) and null is not None:
            chunks[f"{name}#valid"] = (~null, None)
        if pa.types.is_struct(t):
            for c, gc in zip(t, g.type):
                k = _count_leaves(c.type)
                walk(c.type, gc, f"{name}#f:{c.name}", lvs[:k], r, d)
                lvs = lvs[k:]
            return
        r += 1
        d += 1  # the repeated level: an empty list stays one def below
        for lv in lvs:
            _, rep, dfv, _, slots = lv
            n = len(rep)
            slots = np.arange(n) if slots is None else slots
            if dfv is not None:
                child = np.flatnonzero((dfv >= d) & (rep <= r))  # element starts
            elif n and int(rep.max()) > r:  # a deeper list
                child = np.flatnonzero(rep <= r)
            else:
                child = None  # every entry starts an element
            if fsl:
                child = np.arange(n) if child is None else child
                full = (slots >= 0) if dfv is None else np.append(dfv, 0)[slots] >= d
                if len(child) != int(full.sum()) * t.list_size:
                    raise ValueError(f"fixed_size_list {name!r}: elements do not fill its width")
                grid = np.full((len(slots), t.list_size), -1, np.int64)
                grid[full] = child.reshape(-1, t.list_size)
                child = grid.reshape(-1)
            elif lv is lvs[0]:
                real = slots >= 0
                at = slots[real] if child is None else np.searchsorted(child, slots[real])
                lengths = np.zeros(len(slots), np.int32)
                lengths[real] = np.diff(np.append(at, n if child is None else len(child)))
                chunks[f"{name}#lengths"] = (lengths, None) if null is None else (lengths[~null], null)
            if child is not None and len(child) == n and (child >= 0).all():
                child = None
            lv[4] = child
        if pa.types.is_map(t):
            nk = _count_leaves(t.key_type)
            walk(t.key_type, g.type.key_field, f"{name}#values#f:key", lvs[:nk], r, d)
            walk(t.item_type, g.type.item_field, f"{name}#values#f:value", lvs[nk:], r, d)
        else:
            walk(t.value_type, g.type.value_field, f"{name}#values", lvs, r, d)

    lvs = [
        [v, rep, None if _all_defined(dfv, max_def) else dfv, max_def,
         None if rep is None else np.flatnonzero(rep == 0)]
        for v, rep, dfv, max_def in leaves
    ]
    walk(field.type, level_field, field.name, lvs, 0, 0)
    return assemble(field, chunks)


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

    if not schemas:
        return pa.schema([])
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
