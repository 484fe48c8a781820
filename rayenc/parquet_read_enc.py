"""The Parquet file reader: footer, schema, pages — plaintext or encrypted.

``EncryptedFile`` is the one way rayenc opens a Parquet file
(`ParquetFileReader.java:129` shape: read the footer once, then pages per
row group). It parses the footer with the shared thrift compact parser
(``thrift._read_struct``) — a plaintext ``PAR1`` footer, a plaintext
footer of an encrypted file whose 28-byte GCM signature is verified
(`ParquetFileWriter.serializeFooter:2127-2158`), or FileCryptoMetaData +
encrypted FileMetaData behind the ``PARE`` magic (`:2162-2170`) — and
derives the Arrow schema from the footer alone: leaf types, lists, maps
and structs through ``message_type``'s one SchemaElement -> Arrow
derivation, or ``ARROW:schema`` types with the units the leaves hold.
``format_message_type`` prints the footer schema (it lives in
``message_type`` beside its parser). ``EncryptedFile.read_page``
is the one page-at-offset reader: it decrypts header and body modules
(`InternalFileDecryptor.java` / `ModuleCipherFactory.java` AAD semantics;
the page ordinal counts data pages only) and verifies page CRCs; whole
chunks and page-index-selected pages both go through it into the shared
``parquet_compat._decode_page_stream`` decoders.

``read_table_filtered`` is the one table read: with a predicate it prunes
row groups (stats, bloom, dictionary) and pages (ColumnIndex/OffsetIndex);
without one it decodes every selected chunk whole, which is what
``parquet_compat.read_table_conformance`` and ``read_table_encrypted`` are.

Key resolution: explicit keys on ``FileDecryption`` win; otherwise, if the
file carries pyarrow/parquet-mr "key material" JSON key_metadata
(``{"keyMaterialType":"PKMT1",...,"wrappedDEK":...}``), it is unwrapped —
single wrapping through ``FileDecryption.kms_unwrap``, double wrapping
(KEK->DEK, `crypto/keytools/FileKeyUnwrapper.java`) additionally through
``KeyToolkit.decryptKeyLocally`` semantics. Tests use the trivial base64
KMS to read files pyarrow encrypted in both wrapping modes.
"""

from __future__ import annotations

import base64
import functools
import struct
import zlib

import numpy as np
import pyarrow as pa

from . import predicate as P
from . import parquet_crypto as pcrypt
from . import stats
from .codecs import decode_pages
from .created_by import requires_sequential_reads, should_ignore_statistics
from .message_type import _name, _node_field, _walk_schema, format_message_type  # noqa: F401
from .parquet_compat import (
    DATA_PAGE_V2,
    DICTIONARY_PAGE,
    ENCODING_ID,
    _count_leaves,
    _decode_page_stream,
    _value_type,
    assemble_leaves,
    codec_for_id,
    read_page_header,
)
from .parquet_crypto import FileDecryption
from .schema import map_leaves
from .thrift import _read_struct

# ------------------------------------------------------------ footer model

def chunk_range(md: dict) -> tuple[int, int]:
    """(start, end) file offsets of one column chunk's pages, from its
    ColumnMetaData dict: the chunk starts at the dictionary page when it
    has one, else at the first data page
    (ParquetMetadataConverter.getOffset). Offset 0 holds the magic, so a
    dictionary_page_offset of 0 means "no dictionary"."""
    d = md.get(11) or 0
    start = d if 0 < d < md[9] else md[9]
    return start, start + md[7]


def _restore_units(t: pa.DataType, leaves) -> pa.DataType:
    """An ``ARROW:schema`` type with each timestamp's unit, and each date
    and time type, taken from its Parquet leaf (the stored type is the
    writer's pre-coercion type, not what the pages hold); the stored time
    zone survives on UTC-adjusted leaves, and a string over a BYTE_ARRAY
    leaf without the STRING annotation (JSON, ENUM, BSON) reads as the
    leaf's binary — pyarrow's ApplyOriginalStorageMetadata rules.
    ``leaves`` iterates the Parquet leaves in depth-first order."""

    def restore(t):
        leaf_t = next(leaves).type
        if pa.types.is_timestamp(t) and pa.types.is_timestamp(leaf_t):
            tz = t.tz if (leaf_t.tz == "UTC" and t.tz) else leaf_t.tz
            return pa.timestamp(leaf_t.unit, tz)
        if (pa.types.is_date(t) and pa.types.is_date(leaf_t)) or (
            pa.types.is_time(t) and pa.types.is_time(leaf_t)
        ):
            return leaf_t  # date64 over INT32 days, time32[s] over MILLIS
        if (pa.types.is_string(t) or pa.types.is_large_string(t)) and pa.types.is_binary(leaf_t):
            return leaf_t
        return t

    return map_leaves(t, restore)


def _unwrap_key_material(
    key_metadata: bytes, dec: FileDecryption, path: str | None = None
) -> bytes | None:
    """Unwrap parquet-mr/pyarrow key material (PKMT1 JSON): single wrapping
    resolves the DEK straight through the KMS; DOUBLE wrapping
    (`crypto/keytools/FileKeyUnwrapper.java:119-144`, the Spark default)
    unwraps the KEK through the KMS under the master key, then decrypts the
    DEK locally with AAD = raw kekID bytes (KeyToolkit.decryptKeyLocally).
    internalStorage=false metadata carries only a keyReference — the
    material itself is fetched from the `_KEY_MATERIAL_FOR_<name>.json`
    sidecar next to the file (`KeyMetadata.java:41-52` +
    `HadoopFSKeyMaterialStore`). Returns None when the metadata isn't that
    shape (caller falls back to explicit keys)."""
    import json

    try:
        km = json.loads(key_metadata)
        if km.get("keyMaterialType") != "PKMT1":
            return None
        if km.get("internalStorage") is False and "keyReference" in km:
            if path is None:
                return None
            store = pcrypt.read_key_material_store(path)
            km = json.loads(store[km["keyReference"]])
        master = km.get("masterKeyID", "")
        if not km.get("doubleWrapping"):
            return dec.unwrap(km["wrappedDEK"], master)
        kek = dec.unwrap(km["wrappedKEK"], master)
        kek_id = base64.b64decode(km["keyEncryptionKeyID"])
        return pcrypt.decrypt_key_locally(km["wrappedDEK"], kek, kek_id)
    except Exception:
        return None


def decompress_page(h, body: np.ndarray, codec) -> np.ndarray:
    """A page body as ``EncryptedFile.read_page`` returns it, with its values
    decompressed by the chunk's ``codec``. A V2 page's levels are stored
    uncompressed before the values, and its ``is_compressed`` field can
    opt the whole page out."""
    if codec is None or (h.type == DATA_PAGE_V2 and not h.v2_is_compressed):
        return body
    lv = h.v2_rep_bytes + h.v2_def_bytes if h.type == DATA_PAGE_V2 else 0
    vals = np.frombuffer(
        codec.decompress(body[lv:].tobytes(), h.uncompressed_size - lv), np.uint8
    )
    return np.concatenate([body[:lv], vals]) if lv else vals


class PageCrcError(ValueError):
    """A page's bytes do not match the CRC-32 its header declares."""


class EncryptedFile:
    """Parsed (and, where needed, decrypted) metadata of one parquet file,
    plus the page and chunk readers over its bytes."""

    def __init__(self, path: str, decryption: FileDecryption | None = None):
        self.path = path
        self.dec = decryption or FileDecryption()
        self._keys: dict = {}
        self._schema = None
        # mmap, not read(): decode tasks are planned one per (file, row
        # group), so each task touches only its row group's byte ranges —
        # a full read() would re-read and re-fault the whole file per task
        import mmap

        with open(path, "rb") as f:
            try:
                self.raw = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):  # zero-length or special file
                self.raw = f.read()
        if len(self.raw) < 12:
            raise ValueError(f"not a parquet file ({len(self.raw)} bytes): {path}")
        tail = self.raw[-8:]
        (flen,) = struct.unpack("<i", tail[:4])
        magic = tail[4:]
        if magic not in (b"PAR1", pcrypt.MAGIC_ENCRYPTED):
            raise ValueError(f"not a parquet file (magic {magic!r}): {path}")
        if not 0 < flen <= len(self.raw) - 12:
            raise ValueError(f"footer length {flen} out of range: {path}")
        region = self.raw[len(self.raw) - 8 - flen : len(self.raw) - 8]
        self.file_aad = b""
        self.algorithm = None
        if magic == pcrypt.MAGIC_ENCRYPTED:
            crypto_md, end = _read_struct(region, 0)
            self._load_algorithm(crypto_md[1])
            key = self._footer_key(crypto_md.get(2))
            footer_aad = pcrypt.module_aad(self.file_aad, pcrypt.M_FOOTER)
            footer_bytes, _ = pcrypt.decrypt_module(key, region, end, footer_aad)
            self.md, _ = _read_struct(footer_bytes, 0)
            self.footer_key = key
        else:
            self.md, end = _read_struct(region, 0)
            self.footer_key = None
            if 8 in self.md:  # plaintext footer of an encrypted file
                self._load_algorithm(self.md[8])
                try:
                    key = self._footer_key(self.md.get(9))
                except ValueError:
                    key = None  # metadata stays readable; columns won't be
                self.footer_key = key
                if key is not None:
                    sig = region[end : end + 28]
                    if len(sig) == 28 and not pcrypt.verify_gcm_signature(
                        key, region[:end], sig,
                        pcrypt.module_aad(self.file_aad, pcrypt.M_FOOTER),
                    ):
                        raise ValueError(f"footer signature verification failed: {path}")
        try:
            self.schema_elems = self.md[2]
            self.leaves, self._nodes = _walk_schema(self.schema_elems)
            self.num_rows = self.md.get(3, 0)
            self.row_groups = self.md.get(4, [])
            self.kv = {
                e[1].decode(): e[2].decode()
                for e in self.md.get(5, [])
                if 1 in e and 2 in e
            }
        except (KeyError, IndexError, TypeError, AttributeError,
                UnicodeDecodeError) as ex:
            raise ValueError(f"malformed footer: {path}") from ex
        cb = self.md.get(6)
        self.created_by = cb.decode(errors="replace") if cb else None

    # -- keys / algorithm ---------------------------------------------------

    def _load_algorithm(self, alg_union: dict) -> None:
        if 1 in alg_union:
            gcm = alg_union[1]
            self.algorithm = "AES_GCM_V1"
        elif 2 in alg_union:
            # AES_GCM_CTR_V1: same union field shape; page bodies are CTR
            gcm = alg_union[2]
            self.algorithm = "AES_GCM_CTR_V1"
        else:
            raise NotImplementedError(
                "only AES_GCM_V1 / AES_GCM_CTR_V1 are supported"
            )
        stored_prefix = gcm.get(1, b"")
        supply = gcm.get(3, False)
        prefix = self.dec.aad_prefix if (supply or not stored_prefix) else stored_prefix
        self.file_aad = (prefix or b"") + gcm.get(2, b"")

    def _footer_key(self, key_metadata) -> bytes:
        if self.dec.footer_key is not None:
            return self.dec.footer_key
        if key_metadata:
            k = _unwrap_key_material(key_metadata, self.dec, self.path)
            if k is not None:
                return k
        raise ValueError(f"no footer key available for {self.path}")

    def _column_key(self, dotted: str, key_metadata) -> bytes:
        k = self.dec.column_keys.get(dotted)
        if k is not None:
            return k
        if key_metadata:
            k = _unwrap_key_material(key_metadata, self.dec, self.path)
            if k is not None:
                return k
        if self.footer_key is not None:
            return self.footer_key
        raise ValueError(f"no key available for column {dotted!r}")

    # -- schema -------------------------------------------------------------

    def arrow_schema(self) -> pa.Schema:
        """The Arrow schema pyarrow would read, from the footer alone:
        names, nullability and nesting from the Parquet schema; types from
        ``ARROW:schema`` when the file stores one, with timestamp units
        from the leaves (``_restore_units``)."""
        if self._schema is not None:
            return self._schema
        origin = metadata = None
        b64 = self.kv.get("ARROW:schema")
        if b64:
            try:
                origin = pa.ipc.read_schema(pa.BufferReader(base64.b64decode(b64)))
            except (ValueError, pa.ArrowException):
                pass  # unreadable: the derived schema stands
        try:
            if (
                origin is not None
                and len(origin) == len(self._nodes)
                and sum(_count_leaves(o.type) for o in origin) == len(self.leaves)
            ):
                leaves = iter(self.leaves)
                fields = [
                    pa.field(_name(e), _restore_units(o.type, leaves), e.get(3, 0) == 1)
                    for (e, _, _), o in zip(self._nodes, origin)
                ]
                metadata = origin.metadata
            else:
                fields = [_node_field(n) for n in self._nodes]
        except (AttributeError, KeyError, TypeError, StopIteration) as ex:
            raise ValueError(f"malformed schema in footer: {self.path}") from ex
        self._schema = pa.schema(fields, metadata=metadata)
        return self._schema

    def leaf_index(self, dotted: str) -> int:
        for i, leaf in enumerate(self.leaves):
            if leaf.dotted == dotted:
                return i
        raise ValueError(f"no column {dotted!r} in {self.path}")

    # -- chunks -------------------------------------------------------------

    def chunk_meta(self, rg_ord: int, col_ord: int) -> dict:
        """ColumnMetaData dict for one chunk, decrypting
        encrypted_column_metadata when that is the only copy."""
        cc = self.row_groups[rg_ord][1][col_ord]
        crypto = cc.get(8)
        md = cc.get(3)
        if crypto is not None and 2 in crypto and cc.get(9):
            dotted = self.leaves[col_ord].dotted
            key = self._column_key(dotted, crypto[2].get(2))
            aad = pcrypt.module_aad(
                self.file_aad, pcrypt.M_COLUMN_METADATA, rg_ord, col_ord
            )
            plain, _ = pcrypt.decrypt_module(key, cc[9], 0, aad)
            md, _ = _read_struct(plain, 0)
        if md is None:
            raise ValueError(f"no readable ColumnMetaData for column {col_ord}")
        return md

    def _chunk_key(self, rg_ord: int, col_ord: int) -> bytes | None:
        """Key for the chunk's page modules, or None when unencrypted
        (memoized: key-material unwrapping goes through the KMS)."""
        if (rg_ord, col_ord) in self._keys:
            return self._keys[rg_ord, col_ord]
        crypto = self.row_groups[rg_ord][1][col_ord].get(8)
        if crypto is None:
            key = None
        elif 2 in crypto:
            key = self._column_key(self.leaves[col_ord].dotted, crypto[2].get(2))
        elif self.footer_key is None:
            raise ValueError("footer key required for footer-key column")
        else:
            key = self.footer_key
        self._keys[rg_ord, col_ord] = key
        return key

    def read_page(self, rg_ord: int, col_ord: int, pos: int, page_ord=None,
                  check_crc: bool = True):
        """The page at file offset ``pos`` of chunk (rg_ord, col_ord) ->
        (PageHeader, body, end offset). ``body`` is the page as stored,
        decrypted but still compressed; its CRC, when the header carries one,
        is checked over the on-disk bytes (ParquetFileWriter page checksum
        semantics). ``page_ord`` is the data-page ordinal within the chunk,
        None for the dictionary page; encrypted pages bind it into the
        header and body module AADs. A V2 page's levels stay plaintext
        between its header module and its values module. ``check_crc=False``
        is for the ColumnIndex validator only, which reports a mismatch and
        still checks the page contents."""
        if not 0 < pos < len(self.raw):
            raise ValueError(f"page offset {pos} outside {self.path}")
        key = self._chunk_key(rg_ord, col_ord)
        if key is None:
            h = read_page_header(self.raw, pos)
            start = pos + h.header_len
            end = start + h.compressed_size
            if end > len(self.raw):
                raise ValueError(f"page at offset {pos} runs past end of file")
            stored = self.raw[start:end]
            body = np.frombuffer(stored, np.uint8)
        else:
            is_dict = page_ord is None
            aad_ord = -1 if is_dict else page_ord
            hdr_type = pcrypt.M_DICT_PAGE_HEADER if is_dict else pcrypt.M_DATA_PAGE_HEADER
            try:
                hdr, start = pcrypt.decrypt_module(
                    key, self.raw, pos,
                    pcrypt.module_aad(self.file_aad, hdr_type, rg_ord, col_ord, aad_ord),
                )
                h = read_page_header(hdr)
                lv = h.v2_rep_bytes + h.v2_def_bytes if h.type == DATA_PAGE_V2 else 0
                if self.algorithm == "AES_GCM_CTR_V1":
                    vals, end = pcrypt.decrypt_module_ctr(key, self.raw, start + lv)
                else:
                    body_type = pcrypt.M_DICT_PAGE if is_dict else pcrypt.M_DATA_PAGE
                    vals, end = pcrypt.decrypt_module(
                        key, self.raw, start + lv,
                        pcrypt.module_aad(self.file_aad, body_type, rg_ord, col_ord, aad_ord),
                    )
            except struct.error as ex:
                raise ValueError(f"truncated page module at offset {pos}") from ex
            stored = self.raw[start:end]
            body = np.frombuffer(stored[:lv] + vals, np.uint8)
        if check_crc and h.crc is not None and zlib.crc32(stored) != (h.crc & 0xFFFFFFFF):
            raise PageCrcError(
                f"page CRC mismatch in {self.path!r} column "
                f"{self.leaves[col_ord].dotted!r} at offset {pos}"
            )
        return h, body, end

    def _chunk_pages(self, rg_ord: int, col_ord: int, md: dict):
        """Yield (PageHeader, decompressed body) for every page of one chunk
        in order."""
        codec = codec_for_id(md.get(4, 0))
        pos, end = chunk_range(md)
        expect_dict = pos == md.get(11)
        data_ord = 0
        remaining = md[5]
        while remaining > 0 and pos < end:
            h, body, pos = self.read_page(
                rg_ord, col_ord, pos, None if expect_dict else data_ord
            )
            expect_dict = False
            if h.type != DICTIONARY_PAGE:
                data_ord += 1
                remaining -= h.num_values
            yield h, decompress_page(h, body, codec)

    def decode_leaf(self, rg_ord: int, col_ord: int):
        """Decode one leaf chunk with rayenc kernels (any encryption state)
        into (dense values, rep levels, def levels)."""
        leaf = self.leaves[col_ord]
        md = self.chunk_meta(rg_ord, col_ord)
        return _decode_page_stream(
            self._chunk_pages(rg_ord, col_ord, md), md[5], leaf.max_rep,
            leaf.max_def, leaf.ptype, leaf.type_length,
        )

    def read_field(self, rg_ord: int, field: pa.Field) -> pa.Array:
        """One column of a row group, decoded whole: every leaf of the
        top-level ``field``, or the one leaf a dotted struct path names,
        assembled through ``schema.assemble``."""
        k = self.arrow_schema().get_field_index(field.name)
        if k < 0:
            cols, level_field = [self.leaf_index(field.name)], field
        else:
            cols = [i for i, lf in enumerate(self.leaves) if lf.path[0] == field.name]
            level_field = _node_field(self._nodes[k]) if pa.types.is_nested(field.type) else field
        return assemble_leaves(field, level_field, [
            (*self.decode_leaf(rg_ord, i), self.leaves[i].max_def) for i in cols
        ])


def _parse_index(f: "EncryptedFile", rg_ord: int, col_ord: int):
    """(ColumnIndex dict, OffsetIndex dict) for one chunk, decrypting the
    index modules (types 6/7) when the column is encrypted; None when the
    file carries no page index."""
    cc = f.row_groups[rg_ord][1][col_ord]
    if 6 not in cc or 4 not in cc:
        return None
    key = f._chunk_key(rg_ord, col_ord)

    def grab(off, length, mtype):
        region = f.raw[off : off + length]
        if key is None:
            return _read_struct(region, 0)[0]
        aad = pcrypt.module_aad(f.file_aad, mtype, rg_ord, col_ord)
        pt, _ = pcrypt.decrypt_module(key, region, 0, aad)
        return _read_struct(pt, 0)[0]

    return (
        grab(cc[6], cc[7], pcrypt.M_COLUMN_INDEX),
        grab(cc[4], cc[5], pcrypt.M_OFFSET_INDEX),
    )


def _page_granules(cidx: dict, oidx: dict, leaf, nrows: int, nulls_only: bool = False):
    """``(first_row, end_row, predicate.Granule)`` of each page of one chunk
    of ``nrows`` rows from its ColumnIndex and OffsetIndex: a null page has
    ``count=0``, ``null_counts`` give ``nulls`` and the bounds decode
    through ``stats.bound_decoder``. None when the index lists disagree on
    the page count, or when a bound does not decode (INT96, malformed)
    unless ``nulls_only`` (only the null counts are read)."""
    firsts = [loc[3] for loc in oidx.get(1, [])] + [nrows]
    n = len(firsts) - 1
    null_pages, counts = cidx.get(1) or [False] * n, cidx.get(5) or [None] * n
    mins, maxs = cidx.get(2, []), cidx.get(3, [])
    if not len(null_pages) == len(counts) == len(mins) == len(maxs) == n:
        return None
    dec = stats.bound_decoder(leaf.ptype, leaf.type)
    out = []
    for p, (null, nulls) in enumerate(zip(null_pages, counts)):
        b = (None, None) if null or nulls_only else dec and dec(mins[p], maxs[p])
        if b is None:
            return None
        out.append((firsts[p], firsts[p + 1], P.Granule(*b, nulls, 0 if null else None, leaf.type)))
    return out


# PageEncodingStats page types / encodings for the dictionary-filter check
_DICT_ENCODINGS = {ENCODING_ID["PLAIN_DICTIONARY"], ENCODING_ID["RLE_DICTIONARY"]}


def _all_pages_dict_encoded(md: dict) -> bool:
    """True when PageEncodingStats (ColumnMetaData field 13) proves every
    data page of the chunk is dictionary-encoded — the
    `DictionaryFilter.hasNonDictionaryPages` precondition. Without encoding
    stats the answer is unknowable from metadata -> False (no veto)."""
    enc_stats = md.get(13)
    if not enc_stats:
        return False
    saw_data = False
    for st in enc_stats:
        ptype, enc = st.get(1), st.get(2)
        if ptype in (0, 3):  # DATA_PAGE / DATA_PAGE_V2
            saw_data = True
            if enc not in _DICT_ENCODINGS:
                return False
    return saw_data


def read_dictionary_page(f: "EncryptedFile", rg_ord: int, col_ord: int):
    """(PageHeader, PLAIN-decoded values) of one chunk's dictionary page, or
    None when the chunk has no dictionary."""
    md = f.chunk_meta(rg_ord, col_ord)
    dict_off = md.get(11) or 0
    if dict_off <= 0:
        return None
    h, body, _ = f.read_page(rg_ord, col_ord, dict_off)
    if h.type != DICTIONARY_PAGE:
        return None
    body = decompress_page(h, body, codec_for_id(md.get(4, 0)))
    leaf = f.leaves[col_ord]
    ptype, width = _value_type(leaf.ptype, leaf.type_length)
    return h, decode_pages("PLAIN", ptype, [(body, h.num_values)], width=width)


def read_dictionary_values(f: "EncryptedFile", rg_ord: int, col_ord: int):
    """Decode ONE chunk's dictionary page into a pyarrow array of its
    distinct non-null values, or None when the chunk has no dictionary.
    This is the read half of `filter2/dictionarylevel/DictionaryFilter.java`:
    the dictionary is tiny (<=1 MiB) next to the data pages, so reading it
    to veto a row group is the cheapest inconclusive-stats fallback."""
    page = read_dictionary_page(f, rg_ord, col_ord)
    if page is None:
        return None
    h, vals = page
    leaf = f.leaves[col_ord]
    if leaf.ptype == "BYTE_ARRAY":
        offsets, data = vals
        return pa.Array.from_buffers(
            pa.large_binary(), h.num_values,
            [None, pa.py_buffer(np.ascontiguousarray(offsets, np.int64)),
             pa.py_buffer(np.ascontiguousarray(data))],
        )
    if leaf.ptype == "FIXED_LEN_BYTE_ARRAY":
        v = np.ascontiguousarray(vals, np.uint8)
        return pa.Array.from_buffers(
            pa.binary(leaf.type_length), h.num_values, [None, pa.py_buffer(v)]
        )
    v = np.asarray(vals)
    if pa.types.is_unsigned_integer(leaf.type) and v.dtype.kind == "i":
        v = v.view(v.dtype.str.replace("i", "u"))  # stored sign-wrapped
    return pa.array(v)


def plan_row_groups(f: "EncryptedFile", tree, row_groups=None) -> list[int]:
    """Ordinals of the row groups of ``f`` (all, or ``row_groups``) that may
    hold a row matching NNF ``tree``, for ``read_table_filtered`` and
    ``summary.plan_from_summary``. Each chunk's ``predicate.Granule`` holds
    its statistics (binary bounds only if the PARQUET-251 gate trusts the
    writer) and, when the chunk's data is in ``f`` (no ColumnChunk
    ``file_path``, which `_metadata` sets to the part holding it), its
    bloom filter and — when every data page is dictionary-encoded — its
    dictionary."""
    ords = list(range(len(f.row_groups)) if row_groups is None else row_groups)
    if tree is None:
        return ords
    leaf_ord = {leaf.dotted: i for i, leaf in enumerate(f.leaves)}
    distrust_binary = should_ignore_statistics(f.created_by, "BYTE_ARRAY")

    def granule_of(rg_ord):
        @functools.cache
        def granule(col):
            ci = leaf_ord.get(col)
            if ci is None:
                return None
            lf = f.leaves[ci]
            md = f.chunk_meta(rg_ord, ci)
            st = md.get(12) if isinstance(md.get(12), dict) else {}
            nulls, bounds = st.get(3), None
            dec = stats.bound_decoder(lf.ptype, lf.type)
            if dec and not (distrust_binary and lf.ptype in ("BYTE_ARRAY", "FIXED_LEN_BYTE_ARRAY")):
                bounds = dec(st.get(6), st.get(5))  # Statistics min_value/max_value
            g = P.Granule(
                *(bounds or (None, None)), nulls,
                None if nulls is None else md.get(5, 0) - nulls, lf.type,
            )
            if f.row_groups[rg_ord][1][ci].get(1):
                return g
            g.bloom = _bloom_probe(f, rg_ord, ci)
            if _all_pages_dict_encoded(md):
                g.dictionary = functools.cache(lambda: read_dictionary_values(f, rg_ord, ci))
            return g

        return granule

    return [g for g in ords if P.may_match(tree, granule_of(g))]


_FILE_CACHE: dict = {}


def _open_cached(path: str, decryption) -> "EncryptedFile":
    """Per-process EncryptedFile reuse: pipeline.read_parquet_filtered plans
    one task per (file, row group), and Ray's long-lived workers would
    otherwise re-parse the same footer once per row group. Keyed on the
    file's identity (inode, size, mtime) so rewrites invalidate; the mmap is
    read-only and shares pages across tasks. Bounded (reset at 8 files) —
    workers touch few distinct files at a time."""
    import os as _os

    try:
        st = _os.stat(path)
        ident = (st.st_ino, st.st_size, st.st_mtime_ns)
    except OSError:
        ident = None
    key = (path, ident, id(decryption) if decryption is not None else None)
    f = _FILE_CACHE.get(key)
    if f is None:
        if len(_FILE_CACHE) >= 8:
            _FILE_CACHE.clear()
        f = EncryptedFile(path, decryption)
        _FILE_CACHE[key] = f
    return f


def read_table_filtered(
    path: str,
    predicate,
    columns: list[str] | None = None,
    decryption: FileDecryption | None = None,
    row_groups: list[int] | None = None,
) -> pa.Table:
    """Predicate-pushdown read of a parquet FILE driven by OUR ColumnIndex /
    OffsetIndex parsing (the filter2/columnindex page-skipping surface,
    `internal/filter2/columnindex/ColumnIndexFilter.java` semantics).

    ``predicate`` is anything predicate.normalize accepts: the legacy
    ``[(col, op, value), ...]`` conjunction list or a full And/Or/Not tree
    with In/NotIn/UserPredicate leaves (`filter2/predicate/Operators.java`
    algebra). ``plan_row_groups`` prunes row groups, ``predicate.row_ranges``
    the pages of the survivors, and each surviving row group runs
    ``predicate.two_phase_read``, the container's exact read: the predicate
    columns decode over the kept pages, ``predicate.mask`` picks the
    matching rows, and every other column decodes only the pages that hold
    them (nested columns and chunks without a page index decode whole).
    Only the matching rows of ``columns`` come back; a predicate column
    outside ``columns`` is read in phase 1 only. Flat predicate columns;
    plaintext or encrypted files. A predicate that cannot be evaluated
    raises ``predicate.PredicateError``. ``predicate=None`` prunes nothing
    and decodes every selected chunk whole: the conformance and encrypted
    reads."""
    tree = P.normalize(predicate)
    f = _open_cached(path, decryption)
    schema = f.arrow_schema()
    leaf_ord = {leaf.dotted: i for i, leaf in enumerate(f.leaves)}

    def _pred_field(c: str) -> pa.Field:
        """Arrow field for a predicate column: a top-level flat column, or a
        dotted struct leaf (`FilterApi.intColumn("a.b.c")` paths). Repeated
        paths (through list/map) have Dremel record semantics the flat
        filter can't express — rejected like the reference's
        ColumnIndexFilter does for its row-ranges math."""
        if c not in leaf_ord:
            raise ValueError(f"predicate column {c!r} not in {path}")
        lf = f.leaves[leaf_ord[c]]
        if lf.max_rep > 0:
            raise ValueError(f"predicate column {c!r} is under a repeated path")
        if schema.get_field_index(c) >= 0:
            fld = schema.field(c)
            if pa.types.is_nested(fld.type):
                raise ValueError(f"predicate column {c!r} is nested")
            return fld
        # walk struct nesting to the leaf's arrow type
        fld = schema.field(lf.path[0])
        for seg in lf.path[1:]:
            fld = fld.type.field(seg)
        return pa.field(c, fld.type)

    pred_fields = [_pred_field(c) for c in sorted(P.columns(tree))]
    if columns is not None:
        missing = [c for c in columns if schema.get_field_index(c) < 0]
        if missing:
            raise ValueError(f"column(s) {missing} not in {path}")
    fields = list(schema) if columns is None else [schema.field(c) for c in columns]
    out_schema = schema if columns is None else pa.schema(fields)
    parts = []
    for rg_ord in plan_row_groups(f, tree, row_groups):
        rg_rows = f.row_groups[rg_ord].get(3)
        index = functools.cache(lambda col: _parse_index(f, rg_ord, leaf_ord[col]))

        def leaf_rows(leaf):
            """Rows of the pages whose ColumnIndex entry may satisfy
            ``leaf`` (None without a page index)."""
            parsed, lf = index(leaf.col), f.leaves[leaf_ord[leaf.col]]
            nulls_only = leaf.op in ("is_null", "not_null")
            return P.page_rows(leaf, parsed and _page_granules(*parsed, lf, rg_rows, nulls_only))

        def read(field: pa.Field, rows):
            """``field`` at ``rows`` of the row group: a flat leaf with an
            OffsetIndex decodes only the pages that hold them; a nested
            column, or a chunk without a page index, decodes whole."""
            if rows is None:
                return f.read_field(rg_ord, field)
            if not len(rows):
                return pa.nulls(0, field.type)
            ci = leaf_ord.get(field.name)
            parsed = None if ci is None or pa.types.is_nested(field.type) else index(field.name)
            if parsed is not None:
                # PARQUET-246: pre-1.8 parquet-mr DELTA_BYTE_ARRAY pages
                # share prefix state — page-selected decode would be garbage;
                # fall back to the sequential whole-chunk decode
                encs = f.chunk_meta(rg_ord, ci).get(2) or []
                if 7 in encs and requires_sequential_reads(f.created_by, 7):
                    parsed = None
            if parsed is None:
                return P.take(f.read_field(rg_ord, field), rows)
            locs = parsed[1].get(1, [])
            need, local = P.select_pages([loc[3] for loc in locs[1:]] + [rg_rows], rows)
            sel = range(len(locs)) if need is None else np.flatnonzero(need).tolist()
            return P.take(_decode_selected_pages(f, rg_ord, ci, locs, sel, field.type), local)

        intervals = P.row_ranges(tree, rg_rows, leaf_rows)
        if intervals:
            arrays = P.two_phase_read(tree, rg_rows, intervals, pred_fields, fields, read)
            parts.append(pa.Table.from_arrays(arrays, schema=out_schema))
    if len(parts) == 1:
        return parts[0]
    return pa.concat_tables(parts) if parts else out_schema.empty_table()


def _decode_selected_pages(f, rg_ord, col_ord, locs, page_sel, arrow_t,
                           check_crc=True):
    """Decode only the selected data pages of one flat chunk (dictionary
    page always decoded first when present)."""
    leaf = f.leaves[col_ord]
    md = f.chunk_meta(rg_ord, col_ord)
    pages = []
    dict_off = md.get(11) or 0
    if dict_off > 0:
        pages.append(f.read_page(rg_ord, col_ord, dict_off, None, check_crc)[:2])
    elif f._chunk_key(rg_ord, col_ord) is None and _DICT_ENCODINGS & set(md.get(2) or []):
        # parquet-mr quirk: dictionary_page_offset is often unset even for
        # dictionary-encoded chunks — the dict page sits at data_page_offset
        # and the OffsetIndex lists only data pages (ParquetMetadataConverter
        # keeps the field optional). Read the page at the chunk start and
        # claim it as the dictionary when its type says so.
        h, body, _ = f.read_page(rg_ord, col_ord, md[9], None, check_crc)
        if h.type == DICTIONARY_PAGE:
            pages.append((h, body))
    pages += [
        f.read_page(rg_ord, col_ord, locs[p][1], p, check_crc)[:2] for p in page_sel
    ]
    codec = codec_for_id(md.get(4, 0))
    # num_values budget: selected page value counts are unknown before the
    # headers are read; pass a large bound — the page list is finite
    values, rep, dfv = _decode_page_stream(
        [(h, decompress_page(h, body, codec)) for h, body in pages], 1 << 62,
        leaf.max_rep, leaf.max_def, leaf.ptype, leaf.type_length,
    )
    field = pa.field(leaf.dotted, arrow_t)
    return assemble_leaves(field, field, [(values, rep, dfv, leaf.max_def)])


def read_bloom_filter(f: "EncryptedFile", rg_ord: int, col_ord: int):
    """Parse the split-block bloom filter of one chunk from the file
    (BloomFilterHeader + bitset; encrypted files wrap both as GCM modules
    types 8/9 — serializeBloomFilters:2038-2100), or None when absent."""
    from .bloom import SpecBloom

    md = f.chunk_meta(rg_ord, col_ord)
    off = md.get(14)
    if off is None:
        return None
    key = f._chunk_key(rg_ord, col_ord)
    if key is None:
        hdr, end = _read_struct(f.raw, off)
        num_bytes = hdr[1]
        bitset = f.raw[end : end + num_bytes]
    else:
        hdr_pt, end = pcrypt.decrypt_module(
            key, f.raw, off,
            pcrypt.module_aad(f.file_aad, pcrypt.M_BLOOM_HEADER, rg_ord, col_ord),
        )
        hdr, _ = _read_struct(hdr_pt, 0)
        num_bytes = hdr[1]
        bitset, _ = pcrypt.decrypt_module(
            key, f.raw, end,
            pcrypt.module_aad(f.file_aad, pcrypt.M_BLOOM_BITSET, rg_ord, col_ord),
        )
    if 1 not in hdr.get(2, {1: {}}) or 1 not in hdr.get(3, {1: {}}):
        raise NotImplementedError("non-XXHASH/BLOCK bloom filter")
    if len(bitset) != num_bytes:
        raise ValueError("bloom bitset truncated")
    return SpecBloom.from_bitset(bytes(bitset))


def _bloom_probe(f: "EncryptedFile", rg_ord: int, col_ord: int):
    """``values -> bool``: may the chunk hold any of these values, by its
    bloom filter (read once, on the first probe); None without a filter or
    for a leaf ``bloom.probe`` cannot hash."""
    from . import bloom

    if f.chunk_meta(rg_ord, col_ord).get(14) is None:
        return None
    leaf = f.leaves[col_ord]
    filt = functools.cache(lambda: read_bloom_filter(f, rg_ord, col_ord))
    return bloom.probe(leaf.ptype, leaf.type, lambda h: filt().might_contain_hashes(h))


def bloom_might_contain(
    path: str, column: str, value, decryption: FileDecryption | None = None
) -> list[bool]:
    """Per-row-group bloom verdicts for ``column == value`` (True = row
    group may contain it). Row groups without a bloom return True."""
    f = EncryptedFile(path, decryption)
    col_ord = f.leaf_index(column)
    probes = [_bloom_probe(f, rg, col_ord) for rg in range(len(f.row_groups))]
    return [probe is None or probe([value]) for probe in probes]


def read_table_encrypted(
    path: str,
    decryption: FileDecryption | None = None,
    row_groups: list[int] | None = None,
) -> pa.Table:
    """Decode a (possibly encrypted) parquet file with rayenc decoders; pass
    ``row_groups`` to read a subset (e.g. after bloom-filter skipping). The
    no-predicate case of ``read_table_filtered``."""
    return read_table_filtered(path, None, decryption=decryption, row_groups=row_groups)


def geospatial_statistics(
    path: str, decryption: "FileDecryption | None" = None
) -> dict:
    """Merged per-column GeospatialStatistics from ColumnMetaData field 17
    (GeospatialStatistics{bbox, geospatial_types}; read shape of
    `ParquetMetadataConverter.fromParquetStatistics:1029-1060`, merge shape
    of `GeospatialStatistics.merge:153-160`).

    Returns {dotted column name: geo.GeospatialStatistics} for every column
    that declares the stats in at least one row group; chunks that omit
    field 17 contribute nothing (our writer omits it exactly when the chunk
    held no non-empty geometries, so the merged bbox stays tight)."""
    from . import geo as geo_mod

    f = EncryptedFile(path, decryption)
    out: dict = {}
    for rg_ord in range(len(f.row_groups)):
        for ci, leaf in enumerate(f.leaves):
            md = f.chunk_meta(rg_ord, ci)
            g = geo_mod.from_footer_dict(md.get(17))
            if g is None:
                continue
            if leaf.dotted in out:
                out[leaf.dotted].merge(g)
            else:
                out[leaf.dotted] = g
    return out


def plan_byte_splits(
    path: str, split_bytes: int, decryption=None
) -> "dict[int, list[int]]":
    """Assign row groups to fixed-size byte splits by midpoint — the
    reference's HDFS-split planning rule
    (ParquetMetadataConverter.filterFileMetaDataByMidpoint,
    parquet-hadoop/.../ParquetMetadataConverter.java:1531-1580): a row
    group belongs to the split whose byte range contains
    ``start + total_compressed/2``, where ``start`` is the first chunk's
    dictionary-page offset when present, else its data-page offset
    (getOffset, ibid.). Every row group lands in exactly one split, so a
    fleet of readers each handed one split covers the file exactly once
    without coordination. Returns {split_ordinal: [row-group ordinals]}."""
    f = EncryptedFile(path, decryption)
    out: dict[int, list[int]] = {}
    for rg_ord in range(len(f.row_groups)):
        ncols = len(f.row_groups[rg_ord][1])
        start = chunk_range(f.chunk_meta(rg_ord, 0))[0]
        total = sum(
            f.chunk_meta(rg_ord, c).get(7, 0) for c in range(ncols)
        )
        out.setdefault(int((start + total // 2) // split_bytes), []).append(rg_ord)
    return out
