"""Write real parquet files using rayenc encoders only.

The inverse of rayenc.parquet_compat: values are encoded by our kernels
(selector-chosen among the parquet-legal encodings), arrow columns of any
nesting are shredded once by ``schema.shred`` and each leaf's
repetition/definition levels (Dremel, `MessageColumnIO.java:508`) derived
from those streams, and pages are laid out as V1
(`ColumnWriterV1.java:61-81`: framed RLE levels + values) or V2 data pages
(`ColumnWriterV2.java`: unframed levels before the compressed values), with
CRC-32 checksums, page compression, page indexes, bloom filters and modular
encryption. A table is written as one or more row groups inside the `PAR1`
framing (`ParquetFileWriter.java:110-113,596,1874`).

Every thrift structure (page headers, page indexes, bloom headers, column,
file and crypto metadata) is a ``{field id: value}`` dict emitted through
``thrift._thrift``, the spec the reader and the rewriter share. Each leaf's
pages are written by ``write_chunk``, which returns the chunk record
``Chunk``; ``_assemble``, the one file assembler of the writer and of every
raw rewrite (``rewrite._stitch``), places the chunks' page indexes and
bloom filters and writes the footer. Output is
readable by pyarrow and DuckDB — independent-reader proof that our encoded
bytes are format-true.
"""

from __future__ import annotations

import dataclasses
import zlib
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import pyarrow as pa

from . import __version__
from . import parquet_crypto as pcrypt
from . import selector as sel
from . import stats as stats_mod
from .blocks import choose_encoding, page_ranges
from .codecs import rle_hybrid
from .codecs.bitpack import bit_width32, pack_msb
from .codecs.dictionary import (
    binary_array,
    binary_parts,
    dict_page_binary,
    dict_page_fixed,
    id_pages,
)
from .parquet_compat import (
    DATA_PAGE,
    DATA_PAGE_V2,
    DICTIONARY_PAGE,
    ENCODING_ID,
    codec_for_name,
)
from .message_type import ANNOTATIONS, PHYSICAL_ID, _decimal_flba_len, leaf_element, stamp
from .schema import PhysicalColumn, map_leaves, shred
from .thrift import (
    BLOOM_HEADER,
    COLUMN_INDEX,
    COLUMN_META,
    FILE_CRYPTO_META,
    FILE_META,
    OFFSET_INDEX,
    PAGE_HEADER,
    _read_struct,
    _thrift,
)

MAGIC = b"PAR1"
# FileMetaData.created_by in the reference's "<app> version <semver>" form
# (VersionParser.FORMAT): parquet-java ignores the binary min/max of any file
# whose created_by does not parse (CorruptStatistics.shouldIgnoreStatistics)
CREATED_BY = f"rayenc version {__version__}"


class _ChunkCrypto:
    """Per-column-chunk encryption state: the module AADs share the row-group
    and column ordinals; the page ordinal counts data pages only
    (ColumnChunkPageWriteStore.java pageOrdinal semantics, starting at -1)."""

    def __init__(self, props: "pcrypt.FileEncryption", file_aad: bytes, rg: int,
                 col: int, path: list):
        dotted = ".".join(path)
        self.key, with_column_key = props.key_for(dotted)
        self.file_aad = file_aad
        self.rg = rg
        self.col = col
        self.page_ord = -1
        # AES_GCM_CTR_V1: page BODIES use CTR (no tag); headers stay GCM
        self.ctr_pages = props.algorithm == "AES_GCM_CTR_V1"
        # ColumnCryptoMetaData: ENCRYPTION_WITH_COLUMN_KEY or _WITH_FOOTER_KEY
        self.column_crypto = {1: {}}
        if with_column_key:
            with_key = {1: [part.encode() for part in path]}
            km = props.column_key_metadata.get(dotted)
            if km:
                with_key[2] = km
            self.column_crypto = {2: with_key}
        # column-key columns (and every column when the footer is plaintext)
        # carry their ColumnMetaData separately encrypted in field 9
        # (ParquetMetadataConverter.java:664-693)
        self.hides_meta = with_column_key or props.plaintext_footer

    def next_page(self) -> None:
        self.page_ord += 1

    def _aad(self, mtype: int, paged: bool) -> bytes:
        return pcrypt.module_aad(
            self.file_aad, mtype, self.rg, self.col,
            self.page_ord if paged else -1,
        )

    def header(self, hdr: bytes, dict_page: bool = False) -> bytes:
        mt = pcrypt.M_DICT_PAGE_HEADER if dict_page else pcrypt.M_DATA_PAGE_HEADER
        return pcrypt.encrypt_module(self.key, hdr, self._aad(mt, not dict_page))

    def page(self, body: bytes, dict_page: bool = False) -> bytes:
        if self.ctr_pages:
            return pcrypt.encrypt_module_ctr(self.key, body)
        mt = pcrypt.M_DICT_PAGE if dict_page else pcrypt.M_DATA_PAGE
        return pcrypt.encrypt_module(self.key, body, self._aad(mt, not dict_page))

    def module(self, data: bytes, mtype: int) -> bytes:
        """A GCM module of this chunk that is not a page: page index, bloom
        header or bitset, column metadata."""
        return pcrypt.encrypt_module(self.key, data, self._aad(mtype, False))


# encodings a parquet file can hold (no FSST / RLE_FOR / ALP in files)
PARQUET_LEGAL = {e for e in sel.ENCODINGS if e in ENCODING_ID}
# spec-legal for FLBA (format 2.11 extended BSS) but common readers (DuckDB)
# only accept BSS for FLOAT/DOUBLE and DELTA_BYTE_ARRAY for BYTE_ARRAY: an
# FLBA chunk gets them only from an explicit column_encodings entry (our
# readers decode both), so auto-selected output stays widely readable
_FLBA_FORCED_ONLY = ("BYTE_STREAM_SPLIT", "DELTA_BYTE_ARRAY")
# RLE data pages (BOOLEAN) carry a 4-byte LE length prefix per page
# (RunLengthBitPackingHybridValuesWriter.getBytes); the chooser counts it so
# RLE only wins when it wins framed
_PAGE_FRAME = {"RLE": 4}


# ------------------------------------------------ Dremel levels from streams


class LeafLevels(NamedTuple):
    """One Parquet leaf: its dense defined values, named by its path parts
    joined with ``/``, rep/def levels (None where the max level is 0) and,
    for a repeated leaf, ``rec``: the slot where each record starts (the
    slots whose rep level is 0), ascending."""

    path: list
    col: PhysicalColumn
    rep: "np.ndarray | None"
    dfv: "np.ndarray | None"
    max_rep: int
    max_def: int
    type: pa.DataType
    rec: "np.ndarray | None" = None


def leaf_levels(field: pa.Field, streams: list[PhysicalColumn], n: int) -> list[LeafLevels]:
    """The Parquet leaves of an ``n``-row field, their Dremel levels
    (`MessageColumnIO.java:508`) derived from the streams ``schema.shred``
    made of it: ``#lengths`` and its null mask for lists and maps,
    ``#valid`` for structs and fixed-size lists, the leaf's null mask. One
    entry per level slot; a null or empty slot stops at its definition
    level. Parquet drops the child slots of a null struct or fixed-size-list
    parent, which the container keeps: only then are a leaf's values taken
    down to the live slots."""
    cols = {c.name: c for c in streams}
    out: list[LeafLevels] = []

    def walk(t, nullable, name, path, rep, dfv, idx, r, d, rec):
        # idx: each entry's slot in this level's stream, -1 once stopped
        # above (it reads the pad appended to per-slot arrays); None while
        # entries and slots coincide. rec: each record's first entry, None
        # while entries are records
        if pa.types.is_dictionary(t):
            t = t.value_type
        listy = pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t)
        grouped = pa.types.is_struct(t) or pa.types.is_fixed_size_list(t)
        if nullable:
            d += 1
            s = cols.get(f"{name}#valid" if grouped else f"{name}#lengths" if listy else name)
            null = None if s is None else ~s.values if grouped else s.null_mask
            if null is not None:
                slot = np.arange(len(null)) if idx is None else idx
                idx = np.where(np.append(null, True)[slot], -1, slot)
            dfv = dfv + (1 if idx is None else idx >= 0)
        if pa.types.is_struct(t):
            for c in t:
                walk(c.type, c.nullable, f"{name}#f:{c.name}", path + [c.name], rep, dfv, idx, r, d, rec)
            return
        if not grouped and not listy:
            col = cols[name]
            values = col.values
            if idx is not None and np.count_nonzero(idx >= 0) != col.num_values:
                pos = idx[idx >= 0]
                if col.null_mask is not None:
                    pos = (np.cumsum(~col.null_mask) - 1)[pos]
                if col.ptype == "BINARY":
                    values = binary_parts(binary_array(*values).take(pa.array(pos)))
                else:
                    values = np.asarray(values)[pos]
            leaf = PhysicalColumn("/".join(path), col.ptype, values, unsigned=col.unsigned, f16=col.f16)
            out.append(LeafLevels(path, leaf, rep if r else None, dfv if d else None, r, d, t,
                                  rec if r else None))
            return
        if listy:
            lens = cols[f"{name}#lengths"]
            length = np.zeros(lens.logical_count + 1, np.int64)
            length[:-1][slice(None) if lens.null_mask is None else ~lens.null_mask] = lens.values
            first = np.concatenate([[0], np.cumsum(length[:-1])])
            slot = slice(-1) if idx is None else idx
            first, length = first[slot], length[slot]
        else:  # fixed-size list: every slot holds list_size children
            length = np.full(len(rep), t.list_size, np.int64)
            first = (np.arange(len(rep)) if idx is None else idx) * t.list_size
        r += 1
        d += 1  # the repeated level: an empty list stays one def below
        nonempty = length > 0 if idx is None else (idx >= 0) & (length > 0)
        counts = np.where(nonempty, length, 1)
        starts = np.concatenate([[0], np.cumsum(counts[:-1])])
        child_rep = np.full(int(counts.sum()), r, np.uint8)
        child_rep[starts] = rep  # an entry's first slot keeps the entry's rep
        child_dfv = np.repeat(dfv + nonempty, counts)
        child_rec = starts if rec is None else starts[rec]
        child_idx = None
        if idx is not None or not nonempty.all():
            shift = np.where(nonempty, first - starts, -1 - starts)
            child_idx = np.repeat(shift, counts) + np.arange(len(child_rep))
        if pa.types.is_map(t):
            for key, nullable, kt in (("key", False, t.key_type), ("value", True, t.item_type)):
                walk(kt, nullable, f"{name}#values#f:{key}", path + ["key_value", key],
                     child_rep, child_dfv, child_idx, r, d, child_rec)
        else:
            walk(t.value_type, t.value_field.nullable, f"{name}#values",
                 path + ["list", "element"], child_rep, child_dfv, child_idx, r, d, child_rec)

    walk(field.type, field.nullable, field.name, [field.name],
         np.zeros(n, np.uint8), np.zeros(n, np.uint8), None, 0, 0, None)
    return out


# ------------------------------------------------------------- file assembly
#
# Every Parquet file rayenc writes is put together by one assembler,
# ``_assemble``. The writer (``write_tables``, one ``write_chunk`` per leaf)
# and every raw rewrite (``rewrite._stitch``) write each chunk's pages and
# hand over one ``Chunk`` record per column chunk; ``_assemble`` places the
# page indexes, then the blooms, then the footer.


class Chunk(NamedTuple):
    """One column chunk whose pages are written: the ColumnChunk dict
    (``2`` file_offset, ``3`` ColumnMetaData), its serialized (ColumnIndex,
    OffsetIndex) and its serialized bloom filter (header + bitset), each
    None when the chunk has none, and its module encryption (None in
    plaintext files)."""

    cc: dict
    index: "tuple[bytes, bytes] | None" = None
    bloom: "bytes | None" = None
    crypto: "_ChunkCrypto | None" = None


class _Column:
    """What the page encoder records of one chunk."""

    def __init__(self):
        self.encodings: set[int] = set()
        self.num_values = 0
        self.start_offset = 0
        self.dict_offset = None
        self.data_offset = None
        self.total_bytes = 0
        self.total_unc = 0  # uncompressed equivalent (incl. headers)
        self.codec = 0  # CompressionCodec enum
        # PageEncodingStats (field 13): {(page_type, encoding): count}
        self.page_stats: dict = {}
        # per-data-page records for the ColumnIndex / OffsetIndex
        self.page_index: list = []


def _encode_column_pages(
    leaf: LeafLevels,
    out: bytearray,
    meta: _Column,
    config: sel.EncodeConfig,
    crypto: "_ChunkCrypto | None" = None,
) -> stats_mod.ChunkStats:
    """Emit dictionary page (maybe) + data pages for one leaf's column
    chunk, and return the chunk's statistics.

    Levels cover *slots* (one per value, plus one per empty list / null row).
    Flat required columns omit levels entirely (the reference's DevNull level
    writers); page splitting happens over slots so num_values counts slots,
    and value ranges derive from the definition levels. Each level stream
    and the dictionary ids are planned once for all the chunk's pages
    (``rle_hybrid.Plan`` with page bounds)."""
    col, rep_levels, def_levels = leaf.col, leaf.rep, leaf.dfv
    max_rep, max_def = leaf.max_rep, leaf.max_def
    # every legal candidate over every page, by encoded size
    cfg = dataclasses.replace(config, compression=None, compression_level=None,
                              exhaustive_selection=True)
    if def_levels is None:
        ranges = slot_ranges = page_ranges(col, cfg)
    else:
        S = len(def_levels)
        step = cfg.page_rows
        if max_rep > 0:
            # pages must start on record boundaries (rep == 0) so V2
            # num_rows is exact and readers can seek by row
            rec = leaf.rec
            hits = np.searchsorted(rec, np.arange(step, S, step))
            cuts = np.unique(rec[hits[hits < len(rec)]])
            bounds = [0, *cuts.tolist(), S]
            rows = np.diff(np.searchsorted(rec, bounds)).tolist()
        else:
            bounds = [*range(0, max(S, 1), step), S]
            rows = np.diff(bounds).tolist()
        slot_ranges = list(zip(bounds[:-1], bounds[1:]))
        # each page's defined values (def == max_def): its value range
        ends = list(accumulate(
            (np.count_nonzero(def_levels[a:b] == max_def) for a, b in slot_ranges), initial=0
        ))
        ranges = list(zip(ends[:-1], ends[1:]))

    meta.start_offset = len(out)
    st = stats_mod.compute(col, ranges)
    if col.num_values == 0 and def_levels is None:
        # zero-row chunk: no data pages; data_offset must still be valid
        meta.encodings.add(ENCODING_ID["PLAIN"])
        meta.data_offset = meta.start_offset
        return st

    best = choose_encoding(
        col, st, ranges, cfg, legal=PARQUET_LEGAL,
        forced_only=_FLBA_FORCED_ONLY if col.ptype == "FIXED_LEN_BYTE_ARRAY" else (),
        page_frame=_PAGE_FRAME,
    )
    codec_id, codec = codec_for_name(config.compression)
    v2 = config.parquet_page_version == "2.0"
    meta.codec = codec_id

    def compress(b: bytes) -> bytes:
        return codec.compress(b).to_pybytes() if codec else b

    enc_code = ENCODING_ID[best.encoding]
    if best.encoding == "RLE_DICTIONARY":
        # emit the dictionary page in parquet shape (PLAIN keys in
        # first-occurrence order — parquet-java semantics, not our sorted
        # container variant) from the factorization the plan made;
        # compressed per page like ColumnChunkPageWriteStore.java:192-252
        _, dic = best.memo["dict_fac"]
        if col.ptype == "BINARY":
            dict_payload = dict_page_binary(dic)
        else:
            dict_payload = dict_page_fixed(dic, col.ptype)
        dict_comp = compress(dict_payload)
        if crypto is not None:
            # module encryption: compressed_page_size covers the ciphertext
            # frame (ColumnChunkPageWriteStore.java:517-521 takes the size
            # after encryption); CRC is over the stored (encrypted) bytes
            dict_comp = crypto.page(dict_comp, dict_page=True)
        meta.dict_offset = len(out)
        plain_code = ENCODING_ID["PLAIN"]
        hdr = _thrift(PAGE_HEADER, {
            1: DICTIONARY_PAGE, 2: len(dict_payload), 3: len(dict_comp),
            4: zlib.crc32(dict_comp), 7: {1: len(dic), 2: plain_code},
        })
        if crypto is not None:
            hdr = crypto.header(hdr, dict_page=True)
        out += hdr
        out += dict_comp
        meta.page_stats[(2, plain_code)] = meta.page_stats.get((2, plain_code), 0) + 1
        meta.total_unc += len(hdr) + len(dict_payload)
        meta.encodings |= {plain_code, enc_code}
        # the winner's ids, planned in first-occurrence order
        pages = id_pages(best.ids)
    else:
        meta.encodings.add(enc_code)
        _, pages = best.emit()
        if best.encoding == "RLE":
            pages = [len(p).to_bytes(4, "little") + p for p in pages]

    legacy = not v2 and config.level_encoding == "BIT_PACKED"

    def level_pages(levels, top):
        """Each page's bytes of one level stream, planned once for all
        the pages: length-framed in V1, bare in V2; legacy BIT_PACKED
        levels are packed page by page."""
        if levels is None:
            return [b""] * len(slot_ranges)
        if legacy:
            return [pack_msb(levels[a:b], bit_width32(top)) for a, b in slot_ranges]
        lp = rle_hybrid.Plan(levels, bit_width32(top), slot_ranges).emit()
        return lp if v2 else [len(p).to_bytes(4, "little") + p for p in lp]

    rep_pages, def_pages = level_pages(rep_levels, max_rep), level_pages(def_levels, max_def)
    for k, payload in enumerate(pages):
        sa, sb = slot_ranges[k]
        va, vb = ranges[k]
        nv = sb - sa
        nrows = rows[k] if def_levels is not None else nv
        rep_b, def_b = rep_pages[k], def_pages[k]
        if v2:
            # DataPageV2: unframed uncompressed levels, then compressed values
            vals = compress(payload)
            if crypto is not None:
                # V2 levels stay plaintext before the encrypted values blob
                # (ColumnChunkPageWriteStore.writePageV2:320-325)
                crypto.next_page()
                vals = crypto.page(vals)
            body = rep_b + def_b + vals
            unc_len = len(rep_b) + len(def_b) + len(payload)
            # DataPageHeaderV2 (ColumnWriterV2.java:43-112): levels sit
            # unframed and uncompressed before the (maybe compressed) values
            hdr = _thrift(PAGE_HEADER, {
                1: DATA_PAGE_V2, 2: unc_len, 3: len(body), 4: zlib.crc32(body),
                8: {1: nv, 2: nv - (vb - va), 3: nrows, 4: enc_code, 5: len(def_b),
                    6: len(rep_b), 7: codec is not None},
            })
        else:
            raw = rep_b + def_b + payload
            body = compress(raw)
            if crypto is not None:
                # V1 pages encrypt levels+values as one module
                crypto.next_page()
                body = crypto.page(body)
            level_enc = ENCODING_ID["BIT_PACKED" if legacy else "RLE"]
            hdr = _thrift(PAGE_HEADER, {
                1: DATA_PAGE, 2: len(raw), 3: len(body), 4: zlib.crc32(body),
                5: {1: nv, 2: enc_code, 3: level_enc, 4: level_enc},
            })
            unc_len = len(raw)
        if crypto is not None:
            hdr = crypto.header(hdr)
        if meta.data_offset is None:
            meta.data_offset = len(out)
        page_off = len(out)
        out += hdr
        out += body
        meta.num_values += nv
        meta.total_unc += len(hdr) + unc_len
        pt = 3 if v2 else 0
        meta.page_stats[(pt, enc_code)] = meta.page_stats.get((pt, enc_code), 0) + 1
        # ColumnIndex / OffsetIndex records (PageLocation.offset points at
        # the page header; sizes include the header); the boundary order
        # compares the written bounds
        keys = st.pages[k] and stats_mod.written(st.pages[k])[:2]
        meta.page_index.append(
            {
                "offset": page_off,
                "size": len(out) - page_off,
                "rows": nrows,
                "nulls": nv - (vb - va),
                "defined": vb - va,
                "bounds": keys and stats_mod.bound_bytes(col, keys),
                "keys": keys,
            }
        )
    if meta.data_offset is None:
        meta.data_offset = meta.start_offset
    meta.total_bytes = len(out) - meta.start_offset
    return st


def write_chunk(
    leaf: LeafLevels,
    out: bytearray,
    config: sel.EncodeConfig,
    int96: bool = False,
    crypto: "_ChunkCrypto | None" = None,
) -> Chunk:
    """Write the pages of one leaf to the end of ``out`` and return its
    chunk record: ColumnMetaData, page indexes and, for a
    ``config.bloom_columns`` leaf, the bloom filter."""
    col = leaf.col
    if col.ptype == "FIXED_LEN_BYTE_ARRAY" and pa.types.is_decimal(leaf.type):
        # arrow decimal storage is little-endian full-width; parquet
        # DECIMAL over FLBA is big-endian two's complement at the
        # *minimal* length for the precision (parquet-mr / pyarrow
        # convention; wider lengths trip DuckDB's decimal reader)
        be = np.asarray(col.values)[:, ::-1]
        L = _decimal_flba_len(leaf.type.precision)
        col.values = np.ascontiguousarray(be[:, be.shape[1] - L :])
    meta = _Column()
    st = _encode_column_pages(leaf, out, meta, config, crypto)
    # INT96 columns arrive as FLBA(12) (the _timestamps_to_int96 storage)
    # and encode as FLBA PLAIN pages — byte-identical to INT96 PLAIN — but
    # the footer stamps physical type INT96 (no min/max: sort order UNKNOWN)
    md = _column_meta(meta, leaf, st, "INT96" if int96 else col.ptype)
    dotted = ".".join(leaf.path)
    spec = config.geospatial.get(dotted) or config.geospatial.get(leaf.path[0])
    if spec is not None and spec.kind == "geometry" and col.ptype == "BINARY":
        from . import geo as geo_mod

        gd = geo_mod.to_footer_dict(geo_mod.compute_statistics(
            binary_array(*col.values).cast(pa.large_binary())
        ))
        if gd is not None:
            md[17] = gd  # GeospatialStatistics
    bloom = None
    if dotted in config.bloom_columns or leaf.path[0] in config.bloom_columns:
        from . import bloom as bloom_mod

        bitset = bloom_mod.build(col, config).bitset_bytes()
        # numBytes + BLOCK / XXHASH / UNCOMPRESSED (Util.writeBloomFilterHeader)
        hdr = _thrift(BLOOM_HEADER, {1: len(bitset), 2: {1: {}}, 3: {1: {}}, 4: {1: {}}})
        bloom = hdr + bitset
    return Chunk({2: meta.start_offset, 3: md}, _page_indexes_bytes(meta.page_index), bloom, crypto)


def _write_row_group(
    table: pa.Table,
    out: bytearray,
    config: sel.EncodeConfig,
    file_crypto: "tuple[pcrypt.FileEncryption, bytes] | None" = None,
    rg_ord: int = 0,
    int96_cols: "frozenset[str] | set[str]" = frozenset(),
) -> list[Chunk]:
    chunks: list[Chunk] = []
    for field in table.schema:
        streams = shred(field.name, table.column(field.name))
        for leaf in leaf_levels(field, streams, table.num_rows):
            crypto = None
            if file_crypto is not None:
                crypto = _ChunkCrypto(*file_crypto, rg_ord, len(chunks), leaf.path)
            int96 = len(leaf.path) == 1 and leaf.path[0] in int96_cols
            chunks.append(write_chunk(leaf, out, config, int96, crypto))
    return chunks


def _page_indexes_bytes(pages: list):
    """(ColumnIndex bytes, OffsetIndex bytes) for one chunk's ``pages``
    (`internal/column/columnindex/ColumnIndexBuilder.java` /
    `OffsetIndexBuilder.java` output shapes), or None when a non-null page
    has no representable bounds (NaNs, FLBA)."""
    if not pages:
        return None
    for p in pages:
        if p["defined"] > 0 and p["bounds"] is None:
            return None
    # boundary_order (ColumnIndexBuilder.calculateBoundaryOrder): ASCENDING /
    # DESCENDING when both the min and max lists of non-null pages are
    # monotone under the column comparator; vacuously ASCENDING for <=1 page
    keys = [p["keys"] for p in pages if p["defined"] > 0]
    order = 1 if stats_mod.monotone(keys, True) else 2 if stats_mod.monotone(keys, False) else 0
    ci = {
        1: [p["defined"] == 0 for p in pages],  # null_pages
        2: [p["bounds"][0] if p["defined"] else b"" for p in pages],
        3: [p["bounds"][1] if p["defined"] else b"" for p in pages],
        4: order,
        5: [p["nulls"] for p in pages],
    }
    firsts = accumulate((p["rows"] for p in pages[:-1]), initial=0)
    oi = {1: [{1: p["offset"], 2: p["size"], 3: first} for p, first in zip(pages, firsts)]}
    return _thrift(COLUMN_INDEX, ci), _thrift(OFFSET_INDEX, oi)


def _row_byte_sizes(table: pa.Table) -> "np.ndarray":
    """Approximate in-memory bytes per row (the `memSize / recordCount`
    estimate of InternalParquetRecordWriter.checkBlockSizeReached,
    parquet-hadoop/.../InternalParquetRecordWriter.java:177-208, computed
    exactly per row instead of as a running average)."""
    import pyarrow.compute as pc

    def sizes(arr, n):
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        t = arr.type
        if pa.types.is_string(t) or pa.types.is_binary(t):
            off = np.frombuffer(arr.buffers()[1], np.int32, n + 1, arr.offset * 4)
            return np.diff(off).astype(np.int64) + 4
        if pa.types.is_large_string(t) or pa.types.is_large_binary(t):
            off = np.frombuffer(arr.buffers()[1], np.int64, n + 1, arr.offset * 8)
            return np.diff(off) + 8
        if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
            width = 4 if pa.types.is_list(t) or pa.types.is_map(t) else 8
            lengths = np.asarray(
                pc.list_value_length(arr).fill_null(0), np.int64
            )
            nv = len(arr.values) if not pa.types.is_map(t) else len(arr.keys)
            per_elem = (
                arr.values.nbytes / max(1, nv)
                if not pa.types.is_map(t)
                else (arr.keys.nbytes + arr.items.nbytes) / max(1, nv)
            )
            return (lengths * per_elem).astype(np.int64) + width
        if pa.types.is_struct(t):
            out = np.zeros(n, np.int64)
            for i in range(t.num_fields):
                out += sizes(arr.field(i), n)
            return out
        # fixed-width primitives / decimals / FLBA: uniform
        return np.full(n, max(1, arr.nbytes // max(1, n)), np.int64)

    total = np.zeros(table.num_rows, np.int64)
    for name in table.column_names:
        total += sizes(table.column(name), table.num_rows)
    return total


def _parquet_unit(t: pa.DataType) -> pa.DataType:
    """Parquet has no seconds unit: time32[s] and timestamp[s] leaves are
    written as milliseconds, time zone kept (pyarrow's write coercion)."""
    if pa.types.is_time32(t) and t.unit == "s":
        return pa.time32("ms")
    if pa.types.is_timestamp(t) and t.unit == "s":
        return pa.timestamp("ms", t.tz)
    return t


def _slice_by_bytes(table: pa.Table, target_bytes: int) -> "list[pa.Table]":
    cum = np.cumsum(_row_byte_sizes(table))
    if not len(cum) or cum[-1] <= target_bytes:
        return [table]
    marks = np.arange(1, int(cum[-1] // target_bytes) + 1) * target_bytes
    cuts = np.unique(np.searchsorted(cum, marks, side="left") + 1)
    cuts = cuts[cuts < table.num_rows]
    bounds = [0, *cuts.tolist(), table.num_rows]
    return [table.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]


def write_table(
    table: pa.Table,
    path: str,
    config: sel.EncodeConfig | None = None,
    row_group_size: int | None = None,
    encryption: "pcrypt.FileEncryption | None" = None,
    row_group_bytes: int | None = None,
    sorting_columns: "list[tuple[str, bool, bool]] | None" = None,
    key_value_metadata: "dict[str, str] | None" = None,
) -> None:
    """``row_group_size`` caps rows per group; ``row_group_bytes`` flushes
    by estimated in-memory size like the reference's 128 MiB
    DEFAULT_BLOCK_SIZE (ParquetWriter.java) — per-row exact for
    variable-length columns, so token tables with skewed list lengths get
    even groups."""
    config = config or sel.EncodeConfig()
    if config.level_encoding == "BIT_PACKED":
        # parquet-java reads deprecated BIT_PACKED levels big-endian
        # (Encoding.java:155-158) but parquet-cpp/pyarrow/DuckDB read them
        # LSB-first, so such files silently misdecode everywhere but
        # parquet-java — warn loudly rather than produce them quietly
        import warnings

        warnings.warn(
            "level_encoding=BIT_PACKED writes big-endian levels "
            "(parquet-java semantics); parquet-cpp/pyarrow/DuckDB misread "
            "these files — use only for parquet-java interop testing",
            stacklevel=2,
        )
    if row_group_size is not None and row_group_size < table.num_rows:
        slices = [
            table.slice(a, row_group_size)
            for a in range(0, table.num_rows, row_group_size)
        ]
    elif row_group_bytes is not None:
        slices = _slice_by_bytes(table, row_group_bytes)
    else:
        slices = [table]
    write_tables(
        slices, path, config, encryption,
        sorting_columns=sorting_columns, key_value_metadata=key_value_metadata,
    )


def write_tables(
    slices: "list[pa.Table]",
    path: str,
    config: sel.EncodeConfig | None = None,
    encryption: "pcrypt.FileEncryption | None" = None,
    sorting_columns: "list[tuple[str, bool, bool]] | None" = None,
    key_value_metadata: "dict[str, str] | None" = None,
) -> None:
    """Write one parquet file with one row group per input table (all the
    same schema) — the row-group stitching shape of
    `rewrite/ParquetRewriter.java:99-127` merging multiple inputs.

    ``sorting_columns``: declared sort order of the rows as
    ``(leaf column name, descending, nulls_first)`` tuples, recorded as
    SortingColumn metadata on every row group (RowGroup field 4 — the
    ParquetProperties.sortingColumns surface); purely declarative, like
    the reference. ``key_value_metadata``: user FileMetaData key/value
    pairs (ParquetWriter extraMetaData)."""
    config = config or sel.EncodeConfig()
    if not slices:
        raise ValueError("write_tables needs at least one table")
    if any(not s.schema.equals(slices[0].schema) for s in slices[1:]):
        raise ValueError("all merged tables must share one schema")
    decimal_ints: dict[str, tuple[int, int]] = {}
    if config.decimal_as_integer:
        # DECIMAL(p<=18) -> INT32/INT64 physical, unscaled
        # (DecimalLogicalTypeAnnotation on INT32/INT64; the reader side —
        # ours, pyarrow, DuckDB — restores decimal128 from the annotation)
        slices = [_decimals_to_ints(s, decimal_ints) for s in slices]
    int96_map: dict[str, pa.DataType] = {}
    if config.int96_timestamps:
        # flat timestamps -> deprecated INT96 physical (opt-in legacy
        # interop; PrimitiveTypeName.INT96). Nested timestamps keep INT64.
        slices = [_timestamps_to_int96(s, int96_map) for s in slices]
        for name in int96_map:
            enc = config.column_encodings.get(name)
            if enc in ("BYTE_STREAM_SPLIT", "DELTA_BYTE_ARRAY"):
                # the 12-byte values are FLBA storage, but the footer says
                # INT96, for which the spec allows neither encoding
                raise ValueError(f"{enc} cannot encode INT96 column {name!r}")
    # coerce seconds-unit leaves at any depth up front, so stats,
    # ARROW:schema and the shredded values all agree
    cast_schema = pa.schema(
        [f.with_type(map_leaves(f.type, _parquet_unit)) for f in slices[0].schema]
    )
    if not cast_schema.equals(slices[0].schema):
        slices = [s.cast(cast_schema) for s in slices]
    table = slices[0] if len(slices) == 1 else pa.concat_tables(slices)
    crypto = None
    if encryption is not None:
        aad_unique, file_aad = encryption.make_file_aad()
        crypto = (encryption, file_aad, aad_unique)
    magic = (
        pcrypt.MAGIC_ENCRYPTED
        if encryption is not None and not encryption.plaintext_footer
        else MAGIC
    )
    out = bytearray(magic)
    row_groups: list[tuple[list[Chunk], int]] = []
    # ParquetFileWriter emits NO row group for zero records — drop empty
    # slices (schema-only files are valid; readers see num_rows=0)
    nonempty = [s for s in slices if s.num_rows]
    slices = nonempty or []
    for rg_ord, sl in enumerate(slices):
        cols = _write_row_group(
            sl, out, config,
            file_crypto=(crypto[0], crypto[1]) if crypto else None,
            rg_ord=rg_ord,
            int96_cols=frozenset(int96_map),
        )
        row_groups.append((cols, sl.num_rows))

    sorting = None
    if sorting_columns and row_groups:
        dotted = [b".".join(c.cc[3][3]).decode() for c in row_groups[0][0]]
        sorting = []
        for name, desc, nulls_first in sorting_columns:
            if name not in dotted:
                raise ValueError(f"sorting column {name!r} is not a leaf: {dotted}")
            sorting.append((dotted.index(name), bool(desc), bool(nulls_first)))
    footer = _file_metadata(
        table, row_groups, crypto=crypto, geo=config.geospatial or None,
        sorting=sorting, extra_kv=key_value_metadata,
        annotations=config.logical_annotations or None,
        decimal_ints=decimal_ints or None,
        int96_map=int96_map or None,
    )
    _assemble(out, footer, path, crypto)


def _assemble(out: bytearray, footer: dict, path: str, crypto=None) -> None:
    """The one Parquet file assembler. ``out`` holds the magic and every
    row group's pages; ``footer`` is the FileMetaData dict whose row groups
    (field 4) hold ``Chunk`` records as their columns. In row-group and
    column order it writes each chunk's ColumnIndex then OffsetIndex, then
    each bloom filter (ParquetFileWriter.end:1878-1880 order;
    serializeBloomFilters:2038), points the ColumnChunks at them, and ends
    the file with the footer tail: plaintext, signed plaintext or
    encrypted (``crypto`` is the writer's (FileEncryption, file AAD, AAD
    unique) triple). An encrypted chunk's index, bloom header, bitset and
    ColumnMetaData are each their own GCM module, encrypted in that order."""
    chunks = [c for rg in footer[4] for c in rg[1]]
    for c in chunks:
        if c.index is None:
            continue
        ci, oi = c.index
        if c.crypto is not None:
            ci = c.crypto.module(ci, pcrypt.M_COLUMN_INDEX)
            oi = c.crypto.module(oi, pcrypt.M_OFFSET_INDEX)
        c.cc[6], c.cc[7] = len(out), len(ci)
        out += ci
        c.cc[4], c.cc[5] = len(out), len(oi)
        out += oi
    for c in chunks:
        if c.bloom is None:
            continue
        bloom = c.bloom
        if c.crypto is not None:
            n = _read_struct(bloom)[1]  # header, then bitset
            bloom = (c.crypto.module(bloom[:n], pcrypt.M_BLOOM_HEADER)
                     + c.crypto.module(bloom[n:], pcrypt.M_BLOOM_BITSET))
        c.cc[3][14], c.cc[3][15] = len(out), len(bloom)
        out += bloom
    for c in chunks:
        if c.crypto is None:
            continue
        c.cc[8] = c.crypto.column_crypto
        if c.crypto.hides_meta:
            md = c.cc.pop(3)
            c.cc[9] = c.crypto.module(_thrift(COLUMN_META, md), pcrypt.M_COLUMN_METADATA)
            if crypto[0].plaintext_footer:
                # a copy without Statistics, PageEncodingStats and
                # GeospatialStatistics (ParquetMetadataConverter.java:687-692)
                c.cc[3] = {k: v for k, v in md.items() if k not in (12, 13, 17)}
    tail = _thrift(FILE_META, {**footer, 4: [{**rg, 1: [c.cc for c in rg[1]]} for rg in footer[4]]})
    if crypto is not None:
        props, file_aad, aad_unique = crypto
        footer_aad = pcrypt.module_aad(file_aad, pcrypt.M_FOOTER)
        if props.plaintext_footer:
            # signed plaintext footer: footer bytes + 28-byte nonce/tag signature
            tail += pcrypt.gcm_signature(props.footer_key, tail, footer_aad)
        else:
            # encrypted footer: plaintext FileCryptoMetaData, then the
            # footer as a GCM module (serializeFooter:2162-2170)
            fcm = {1: _encryption_algorithm(props, aad_unique)}
            if props.footer_key_metadata:
                fcm[2] = props.footer_key_metadata
            enc_footer = pcrypt.encrypt_module(props.footer_key, tail, footer_aad)
            tail = _thrift(FILE_CRYPTO_META, fcm) + enc_footer
    out += tail
    out += len(tail).to_bytes(4, "little")
    out += out[:4]  # the file ends with the magic it starts with: PAR1 or PARE
    with open(path, "wb") as f:
        f.write(out)


def _degrade_fsl(t: "pa.DataType") -> "pa.DataType":
    """fixed_size_list -> list and dictionary -> value type for the embedded
    schema: the parquet data is 3-level lists (null slots have zero
    elements) / plain values, which arrow readers cannot restore directly
    (dictionary restoration trips pyarrow's DictAccumulator on non-dict
    page encodings). List element and map key/item fields keep their names
    and nullability, and maps their ``keys_sorted``."""
    if pa.types.is_dictionary(t):
        return _degrade_fsl(t.value_type)
    if pa.types.is_fixed_size_list(t) or pa.types.is_list(t):
        return pa.list_(t.value_field.with_type(_degrade_fsl(t.value_type)))
    if pa.types.is_large_list(t):
        return pa.large_list(t.value_field.with_type(_degrade_fsl(t.value_type)))
    if pa.types.is_struct(t):
        return pa.struct([f.with_type(_degrade_fsl(f.type)) for f in t])
    if pa.types.is_map(t):
        return pa.map_(
            t.key_field.with_type(_degrade_fsl(t.key_type)),
            t.item_field.with_type(_degrade_fsl(t.item_type)),
            t.keys_sorted,
        )
    return t


def _arrow_schema_b64(schema: pa.Schema) -> str:
    """Serialized arrow schema (IPC stream framing + base64), the
    ARROW:schema convention arrow readers use to restore logical types."""
    import base64

    import pyarrow.ipc as ipc

    schema = pa.schema(
        [pa.field(f.name, _degrade_fsl(f.type), f.nullable) for f in schema]
    )
    sink = pa.BufferOutputStream()
    with ipc.new_stream(sink, schema):
        pass
    return base64.b64encode(sink.getvalue().to_pybytes()).decode()


def _schema_body(field: pa.Field) -> list[dict]:
    """SchemaElement dicts (parquet.thrift field ids) for one (possibly
    nested) field, depth-first in the same order `leaf_levels` emits
    leaves (MessageType tree of `schema/MessageType.java`, LIST/MAP shapes
    per the parquet logical-type spec / `parquet-arrow List3Levels.java`)."""
    t = field.type
    if pa.types.is_dictionary(t):
        t = t.value_type  # shredded as the value type
    rep = 1 if field.nullable else 0
    name = field.name.encode()
    # 1 type, 2 type_length, 3 repetition, 4 name, 5 num_children,
    # 6 converted_type, 7 scale, 8 precision, 10 logicalType
    if pa.types.is_map(t):
        return (
            [{3: rep, 4: name, 5: 1, 6: 1},  # MAP
             {3: 2, 4: b"key_value", 5: 2}]
            + _schema_body(pa.field("key", t.key_type, False))
            + _schema_body(pa.field("value", t.item_type, True))
        )
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        elem = t.value_field
        return (
            [{3: rep, 4: name, 5: 1, 6: 3},  # LIST
             {3: 2, 4: b"list", 5: 1}]
            + _schema_body(pa.field("element", t.value_type, elem.nullable))
        )
    if pa.types.is_struct(t):
        out = [{3: rep, 4: name, 5: t.num_fields}]
        for child in t:
            out += _schema_body(child)
        return out
    return [{3: rep, 4: name, **leaf_element(t)}]


def _column_meta(meta: _Column, leaf: LeafLevels, st: stats_mod.ChunkStats, ptype: str) -> dict:
    """ColumnMetaData dict (parquet.thrift field ids) of one written leaf.
    Statistics always carry the null count and carry min/max where ``st``
    has bounds (Statistics.java; binary bounds use the ColumnIndexBuilder
    truncate/increment rule with exactness flags); SizeStatistics carry the
    level histograms and unencoded byte-array bytes (SizeStatistics.java)."""
    col = leaf.col
    md = {
        1: PHYSICAL_ID[ptype],
        2: [*sorted(meta.encodings), ENCODING_ID["RLE"]],  # + the level encoding
        3: [part.encode() for part in leaf.path],
        4: meta.codec,
        5: meta.num_values,
        6: meta.total_unc,
        7: meta.total_bytes,
        9: meta.data_offset,
    }
    if meta.dict_offset is not None:
        md[11] = meta.dict_offset
    nulls = sum(p["nulls"] for p in meta.page_index)
    md[12] = {3: nulls}
    if st.min_value is not None:
        lo, hi, exact = stats_mod.written((st.min_value, st.max_value))
        lo, hi = stats_mod.bound_bytes(col, (lo, hi))
        # max_value, min_value, is_max_value_exact, is_min_value_exact
        md[12].update({5: hi, 6: lo, 7: exact, 8: exact})
    if meta.page_stats:
        md[13] = [  # PageEncodingStats
            {1: pt, 2: enc, 3: cnt} for (pt, enc), cnt in sorted(meta.page_stats.items())
        ]
    size = {}  # SizeStatistics
    if col.ptype == "BINARY" and col.num_values:
        offsets, _data = col.values
        size[1] = int(offsets[-1] - offsets[0])
    # level histograms: only the levels between the known counts are
    # counted, one pass each
    if leaf.rep is not None:
        # level 0 starts each record; the top level is the rest
        mid = [int(np.count_nonzero(leaf.rep == r)) for r in range(1, leaf.max_rep)]
        size[2] = [len(leaf.rec), *mid, len(leaf.rep) - len(leaf.rec) - sum(mid)]
    if leaf.dfv is not None:
        # the levels below the top hold the nulls; the top the values
        low = [int(np.count_nonzero(leaf.dfv == d)) for d in range(leaf.max_def - 1)]
        size[3] = [*low, nulls - sum(low), len(leaf.dfv) - nulls]
    if size:
        md[16] = size
    return md


def _encryption_algorithm(props: "pcrypt.FileEncryption", aad_file_unique: bytes) -> dict:
    """EncryptionAlgorithm union: AesGcmV1 (member 1) or AesGcmCtrV1
    (member 2, same field shape)."""
    alg = {2: aad_file_unique}
    if props.aad_prefix is not None:
        if props.store_aad_prefix:
            alg[1] = props.aad_prefix
        else:
            alg[3] = True  # supply_aad_prefix
    return {2 if props.algorithm == "AES_GCM_CTR_V1" else 1: alg}


# declared annotations (EncodeConfig.logical_annotations): the
# LogicalTypeAnnotation.java members with no arrow-16 native type, each with
# the FLBA width it needs (None: a BYTE_ARRAY leaf)
_DECLARED = {"ENUM": None, "JSON": None, "BSON": None, "UUID": 16, "INTERVAL": 12}


def _apply_declared_annotation(fb: list, name: str, kind: str) -> None:
    if kind not in _DECLARED:
        raise ValueError(f"unknown logical annotation {kind!r} for {name}")
    if len(fb) != 1 or 1 not in fb[0]:
        raise ValueError(f"logical annotation {kind} needs a flat leaf: {name}")
    e, width = fb[0], _DECLARED[kind]
    if e[1] != PHYSICAL_ID["BYTE_ARRAY" if width is None else "FIXED_LEN_BYTE_ARRAY"]:
        raise ValueError(
            f"{kind} annotation on {name} requires physical type "
            f"{'BYTE_ARRAY' if width is None else 'FLBA'}"
        )
    if width is not None and e.get(2) != width:
        raise ValueError(f"{kind} column {name} must be fixed_size_binary({width})")
    e.pop(6, None)
    e.pop(10, None)
    stamp(e, kind)


def _decimals_to_ints(table: pa.Table, decimal_ints: dict) -> pa.Table:
    """Replace flat decimal128(p<=18) columns with their unscaled INT32/
    INT64 storage, recording {name: (precision, scale)} for the footer."""
    import numpy as np

    cols, fields = [], []
    for i, f in enumerate(table.schema):
        col = table.column(i)
        t = f.type
        if pa.types.is_decimal128(t) and t.precision <= 18:
            arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            raw = np.frombuffer(arr.buffers()[1], np.int64)
            lo = raw.reshape(-1, 2)[arr.offset : arr.offset + len(arr), 0]
            out_t = pa.int32() if t.precision <= 9 else pa.int64()
            ints = pa.array(
                lo.astype(np.int32) if out_t == pa.int32() else lo, out_t
            )
            if arr.null_count:
                import pyarrow.compute as pc

                ints = pc.if_else(arr.is_valid(), ints, pa.scalar(None, out_t))
            decimal_ints[f.name] = (t.precision, t.scale)
            cols.append(ints)
            fields.append(pa.field(f.name, out_t, f.nullable))
        else:
            cols.append(col)
            fields.append(f)
    return pa.table(cols, schema=pa.schema(fields))


_JULIAN_EPOCH = 2440588  # Julian day number of 1970-01-01


def _timestamps_to_int96(table: pa.Table, int96_map: dict) -> pa.Table:
    """Replace flat timestamp columns with their 12-byte INT96 storage
    ([int64 LE nanos-of-day][int32 LE Julian day] — the layout
    ``parquet_compat.int96_to_timestamp_ns`` inverts), recording
    {name: original arrow type} for the footer's ARROW:schema."""
    import numpy as np
    import pyarrow.compute as pc

    cols, fields = [], []
    for i, f in enumerate(table.schema):
        col = table.column(i)
        t = f.type
        if not pa.types.is_timestamp(t):
            cols.append(col)
            fields.append(f)
            continue
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        raw = pc.fill_null(arr.cast(pa.int64()), 0).to_numpy()
        # floor divmod in the source unit: nanos-of-day stay non-negative
        # for pre-1970 values, and no year-1000 or year-9999 value has to
        # fit an int64 of nanoseconds since the epoch
        unit = np.timedelta64(1, t.unit)
        days, within = np.divmod(raw, np.timedelta64(1, "D") // unit)
        v = np.empty((len(arr), 12), np.uint8)
        nanos = within * (unit // np.timedelta64(1, "ns"))
        v[:, :8] = nanos.astype("<i8").view(np.uint8).reshape(-1, 8)
        v[:, 8:] = (days + _JULIAN_EPOCH).astype("<i4").view(np.uint8).reshape(-1, 4)
        fsb = pa.Array.from_buffers(
            pa.binary(12), len(arr), [None, pa.py_buffer(v.tobytes())]
        )
        if arr.null_count:
            fsb = pc.if_else(arr.is_valid(), fsb, pa.scalar(None, pa.binary(12)))
        int96_map[f.name] = t
        cols.append(fsb)
        fields.append(pa.field(f.name, pa.binary(12), f.nullable))
    return pa.table(cols, schema=pa.schema(fields))


def _file_metadata(
    table: pa.Table, row_groups, crypto=None, geo=None,
    sorting=None, extra_kv=None, annotations=None, decimal_ints=None,
    int96_map=None,
) -> dict:
    """The FileMetaData dict of a written table; its row groups hold the
    ``Chunk`` records ``_assemble`` turns into ColumnChunks."""
    body: list[dict] = []
    for field in table.schema:
        fb = _schema_body(field)
        # GEOMETRY/GEOGRAPHY logical type on flat binary leaves
        # (LogicalTypeAnnotation geometry/geography; union fields 17/18)
        if geo and field.name in geo and len(fb) == 1 and 1 in fb[0]:
            spec = geo[field.name]
            g = {}
            if spec.crs:
                g[1] = spec.crs.encode()
            if spec.kind == "geography" and spec.algorithm is not None:
                g[2] = spec.algorithm  # EdgeInterpolationAlgorithm
            fb[0][10] = {ANNOTATIONS[spec.kind.upper()][0]: g}
        if annotations and field.name in annotations:
            _apply_declared_annotation(fb, field.name, annotations[field.name])
        if decimal_ints and field.name in decimal_ints and len(fb) == 1:
            # DECIMAL on INT32/INT64 physical, as the ConvertedType alone
            stamp(fb[0], "DECIMAL", decimal_ints[field.name])
            del fb[0][10]
        if int96_map and field.name in int96_map and len(fb) == 1:
            # deprecated INT96 physical: no type_length, no logical type
            fb[0][1] = PHYSICAL_ID["INT96"]
            for k in (2, 6, 10):
                fb[0].pop(k, None)
        body += fb

    kv_schema = table.schema
    if decimal_ints:
        # advertise the original decimal arrow types, not the transformed
        # int storage — pyarrow restores decimal128 from this metadata
        kv_schema = pa.schema(
            [
                f.with_type(pa.decimal128(*decimal_ints[f.name]))
                if f.name in decimal_ints
                else f
                for f in kv_schema
            ]
        )
    if int96_map:
        # advertise the original timestamp types: pyarrow reads INT96 as
        # timestamp[ns] and restores unit/tz from this metadata
        kv_schema = pa.schema(
            [
                f.with_type(int96_map[f.name]) if f.name in int96_map else f
                for f in kv_schema
            ]
        )
    # ARROW:schema key-value metadata: readers restore the exact arrow types
    # (fixed-size lists, timestamp timezones) like pyarrow's own files
    kv_pairs = [("ARROW:schema", _arrow_schema_b64(kv_schema))]
    if extra_kv:
        kv_pairs += list(extra_kv.items())
    rgs = []
    for chunks, rg_rows in row_groups:
        rg = {
            1: chunks,
            2: sum(c.cc[3][6] for c in chunks),  # spec: UNCOMPRESSED size
            3: rg_rows,
        }
        if sorting:
            # SortingColumn list (parquet.thrift RowGroup field 4; written
            # by ParquetFileWriter from ParquetProperties.sortingColumns)
            rg[4] = [{1: i, 2: desc, 3: nulls_first} for i, desc, nulls_first in sorting]
        rgs.append(rg)
    md = {
        1: 2,  # version
        2: [{4: b"schema", 5: table.num_columns}, *body],
        3: table.num_rows,
        4: rgs,
        5: [{1: k.encode(), 2: v.encode()} for k, v in kv_pairs],
        6: CREATED_BY.encode(),
    }
    # column_orders: readers only honor min_value/max_value when the order
    # is declared TYPE_DEFINED_ORDER (parquet.thrift ColumnOrder union)
    if row_groups and row_groups[0][0]:
        md[7] = [{1: {}}] * len(row_groups[0][0])
    if crypto is not None and crypto[0].plaintext_footer:
        # plaintext-footer encrypted file: algorithm + signing-key metadata
        # live in FileMetaData itself (serializeFooter:2127-2134)
        props, _, aad_unique = crypto
        md[8] = _encryption_algorithm(props, aad_unique)
        if props.footer_key_metadata:
            md[9] = props.footer_key_metadata
    return md
