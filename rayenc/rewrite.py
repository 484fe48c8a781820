"""Rewriters: change a container or a Parquet file without a full
decode-encode round trip (`parquet-hadoop/.../rewrite/ParquetRewriter.java:99-127`).

Container (``rewrite_partition`` / ``rewrite_job``): untouched column chunks
are stitched into the new blob as raw bytes, pages are re-compressed when
the codec changes (`ParquetRewriter.java:845`), and masked columns are
decoded, transformed and re-encoded through the normal selector. Runs as a
Ray Data job over partitions (one task per blob), same resume/atomic-write
discipline as the encode job.

Parquet files: merge, prune, mask, rename and trans-compression are one
chunk-stitch body, ``_stitch``. It walks (row group, kept column) of the
plaintext input(s); each chunk is copied verbatim with its offsets shifted,
or handed to the operation's per-chunk function (mask re-encodes hashed
values through the writer's ``parquet_write.write_chunk``,
trans-compression recompresses page by page). Every one of them returns
the writer's chunk record, ``parquet_write.Chunk`` (ColumnChunk, page
indexes, bloom), and the writer's one file assembler,
``parquet_write._assemble``, places the page indexes, blooms and footer.
The footer is the source's own FileMetaData dict with the operation's
edits, re-emitted through the thrift compact spec the reader and writer
share (``thrift.FILE_META``), so the schema, key-value metadata and
created_by of the input are kept exactly. ``merge_parquet`` /
``reencrypt_parquet`` instead decode and re-write through
``parquet_write`` (any encryption state).
"""

from __future__ import annotations

import base64
import io
import json
import os
import zlib
from itertools import takewhile

import numpy as np
import pyarrow as pa

from . import blocks, parquet_write
from .codecs import dictionary as dict_codec
from .parquet_compat import (
    DATA_PAGE_V2,
    DICTIONARY_PAGE,
    codec_for_id,
    codec_for_name,
)
from .parquet_read_enc import (
    EncryptedFile,
    _name,
    chunk_range,
    decompress_page,
    read_table_encrypted,
)
from .parquet_write import Chunk, _assemble, leaf_levels, write_chunk
from .pipeline import _launch, _load_partition, _manifests, _write_partition
from .schema import PhysicalColumn, shred
from .selector import EncodeConfig
from .thrift import OFFSET_INDEX, PAGE_HEADER, _read_struct, _thrift


def _copy_chunk(entry: dict, blob: bytes, out: io.BytesIO) -> dict:
    """Stitch a chunk into the new blob byte-for-byte (offsets rebased)."""
    new = json.loads(json.dumps(entry))
    if entry["validity"]:
        _copy_meta(entry["validity"], new["validity"], blob, out)
    if entry["aux"]:
        _copy_meta(entry["aux"], new["aux"], blob, out)
    for old_p, new_p in zip(entry["pages"], new["pages"]):
        _copy_meta(old_p, new_p, blob, out)
    return new


def _recompress_chunk(
    entry: dict, blob: bytes, out: io.BytesIO, old_codec, new_codec, new_name
) -> dict:
    new = json.loads(json.dumps(entry))

    def move(meta, new_meta):
        raw = blob[meta["offset"] : meta["offset"] + meta["length"]]
        if old_codec:
            raw = old_codec.decompress(raw, meta["raw_length"]).to_pybytes()
        new_meta["raw_length"] = len(raw)
        if new_codec:
            raw = new_codec.compress(raw).to_pybytes()
        new_meta["offset"] = out.tell()
        new_meta["length"] = len(raw)
        out.write(raw)

    if entry["validity"]:
        # validity streams are never compressed
        _copy_meta(entry["validity"], new["validity"], blob, out)
    if entry["aux"]:
        move(entry["aux"], new["aux"])
    for old_p, new_p in zip(entry["pages"], new["pages"]):
        move(old_p, new_p)
    if new_name:
        new["compression"] = new_name
    else:
        new.pop("compression", None)
    return new


def _copy_meta(meta, new_meta, blob, out):
    """Append one stream's bytes to ``out`` verbatim, at a new offset."""
    raw = blob[meta["offset"] : meta["offset"] + meta["length"]]
    new_meta["offset"] = out.tell()
    out.write(raw)


def mask_hash(col: PhysicalColumn) -> PhysicalColumn:
    """Mask a BINARY column by replacing values with their hex content hash
    (the reference's column masking mode)."""
    from .ops.dedup import hash_strings

    assert col.ptype == "BINARY", "hash masking is defined for string columns"
    arr = dict_codec.binary_array(*col.values)
    h = hash_strings(arr)
    hexes = np.char.mod("%016x", h)
    masked = pa.array(hexes.tolist(), pa.large_string())
    return PhysicalColumn(col.name, "BINARY", dict_codec.binary_parts(masked), col.null_mask)


def rewrite_partition(
    blob: bytes,
    manifest: dict,
    drop_columns: set[str] | None = None,
    mask_columns: set[str] | None = None,
    compression: str | None = "__keep__",
    config: EncodeConfig | None = None,
    rename_columns: dict | None = None,
) -> tuple[bytes, dict]:
    drop_columns = drop_columns or set()
    mask_columns = mask_columns or set()
    rename_columns = rename_columns or {}
    config = config or EncodeConfig()

    schema = pa.ipc.read_schema(pa.py_buffer(bytes.fromhex(manifest["schema"])))
    keep_fields = [
        pa.field(rename_columns.get(f.name, f.name), f.type, f.nullable)
        for f in schema
        if f.name not in drop_columns
    ]
    new_schema = pa.schema(keep_fields)

    def _rename_chunk_name(name: str) -> str:
        # physical stream names are "<top>" or "<top>#suffix..."
        top, sep, rest = name.partition("#")
        return rename_columns.get(top, top) + sep + rest

    out = io.BytesIO()
    out.write(blocks.MAGIC)
    new_chunks = []
    dropped_phys = {
        c["name"]
        for c in manifest["chunks"]
        if c["name"].split("#")[0] in drop_columns
    }
    by_name = {c["name"]: c for c in manifest["chunks"]}
    for entry in manifest["chunks"]:
        name = entry["name"]
        base = name.split("#")[0]
        if name in dropped_phys:
            continue
        if entry.get("alias") and entry["alias"] in dropped_phys:
            # the aliased source chunk is being pruned away: materialize
            col = blocks.decode_chunk(blob, by_name[entry["alias"]])
            col.name = name
            new_entry = blocks.encode_chunk(col, out, EncodeConfig())
            new_chunks.append(new_entry)
            continue
        old_name = entry.get("compression")
        old_codec = pa.Codec(old_name) if old_name else None
        if base in mask_columns:
            col = blocks.decode_chunk(blob, entry)
            col = mask_hash(col)
            mask_compression = old_name if compression == "__keep__" else compression
            mask_cfg = EncodeConfig(compression=mask_compression)
            new_entry = blocks.encode_chunk(col, out, mask_cfg)
            if mask_cfg.compression:
                new_entry["compression"] = mask_cfg.compression
            new_chunks.append(new_entry)
            continue
        if compression == "__keep__" or (compression or None) == old_name:
            new_chunks.append(_copy_chunk(entry, blob, out))
        else:
            new_codec = pa.Codec(compression) if compression else None
            new_chunks.append(
                _recompress_chunk(entry, blob, out, old_codec, new_codec, compression)
            )
    if rename_columns:
        # chunk stream names (and alias references) follow the new field
        # names; ParquetRewriter rename analog — values are never touched
        renamed = []
        for e in new_chunks:
            e = dict(e)
            e["name"] = _rename_chunk_name(e["name"])
            if e.get("alias"):
                e["alias"] = _rename_chunk_name(e["alias"])
            renamed.append(e)
        new_chunks = renamed
    new_manifest = dict(manifest)
    new_manifest["schema"] = new_schema.serialize().to_pybytes().hex()
    new_manifest["chunks"] = new_chunks
    blob_out = out.getvalue()
    new_manifest["blob_bytes"] = len(blob_out)
    return blob_out, new_manifest


def rewrite_job(
    in_dir: str,
    out_dir: str,
    drop_columns: list[str] | None = None,
    mask_columns: list[str] | None = None,
    compression: str | None = "__keep__",
    concurrency=None,
    rename_columns: dict | None = None,
):
    """Ray job: rewrite every partition of a container."""
    os.makedirs(out_dir, exist_ok=True)

    def do(item: dict) -> dict:
        name = item["manifest"]
        manifest, blob = _load_partition(in_dir, name)
        new_blob, new_manifest = rewrite_partition(
            blob,
            manifest,
            set(drop_columns or []),
            set(mask_columns or []),
            compression,
            rename_columns=rename_columns,
        )
        _write_partition(
            out_dir, name[: -len(".manifest.json")], new_blob, new_manifest
        )
        return {"pid": manifest["pid"], "in_bytes": len(blob), "out_bytes": len(new_blob)}

    return _launch([{"manifest": m} for m in _manifests(in_dir)], do, concurrency)


def merge_parquet(
    paths_in: list[str],
    path_out: str,
    decryption=None,
    encryption=None,
    config=None,
):
    """Merge multiple parquet files into one output file, one row group per
    input — the ParquetRewriter multi-input stitching shape
    (`rewrite/ParquetRewriter.java:99-127`). Inputs may be plaintext or
    modular-encrypted (``decryption``); the output re-encodes through our
    writers and can re-encrypt (``encryption``)."""
    tables = [read_table_encrypted(p, decryption) for p in paths_in]
    schema = tables[0].schema
    tables = [t.cast(schema) for t in tables]
    parquet_write.write_tables(tables, path_out, config, encryption)
    return path_out


def reencrypt_parquet(
    path_in: str,
    path_out: str,
    decryption=None,
    encryption=None,
    config=None,
):
    """Single-file (re-)encryption rewrite: a one-input ``merge_parquet``
    that decodes ``path_in`` (plaintext or modular-encrypted, with
    ``decryption`` keys) and re-writes it with ``encryption`` (None ->
    decrypt to plaintext) — the ParquetRewriter re-encryption path
    (`rewrite/ParquetRewriter.java:127` masks/keys swap). Row-group count
    collapses to one (values are re-encoded, not page-copied)."""
    return merge_parquet([path_in], path_out, decryption, encryption, config)


# ------------------------------ raw Parquet rewrites (verbatim chunk stitch)

def _open_plaintext(path: str, op: str) -> EncryptedFile:
    # AAD module ordinals bind encrypted pages to their place in the file,
    # so an encrypted chunk cannot move: use reencrypt_parquet
    f = EncryptedFile(path)
    if f.algorithm:
        raise ValueError(f"{op} requires plaintext input")
    return f


def _carry(f: EncryptedFile, src: dict, md: dict, relocate) -> Chunk:
    """Chunk record of the chunk ``md`` now describes, carrying the source
    chunk ``src``'s bloom filter and page index. Bloom and ColumnIndex
    bytes are layout-independent and copy verbatim; ``relocate`` maps the
    OffsetIndex page locations to the new ones (None drops the page
    index)."""
    index = bloom = None
    old = src[3]
    if 14 in old:
        off, n = old[14], old.get(15)
        if n is None:  # bloom_filter_length is optional: header + bitset
            hdr, end = _read_struct(f.raw, off)
            n = end - off + hdr.get(1, 0)
        bloom = bytes(f.raw[off : off + n])
    if 4 in src and 6 in src:
        oi = _read_struct(f.raw[src[4] : src[4] + src[5]])[0]
        locs = relocate(oi.get(1, []))
        if locs is not None:
            ci = bytes(f.raw[src[6] : src[6] + src[7]])
            index = (ci, _thrift(OFFSET_INDEX, {**oi, 1: locs}))
    return Chunk({2: chunk_range(md)[0], 3: md}, index, bloom)


def _copy_raw_chunk(f: EncryptedFile, rg_ord: int, col_ord: int, out: bytearray) -> Chunk:
    """Copy one chunk's pages verbatim to the end of ``out``, shifting its
    page offsets (the ParquetRewriter no-transform path)."""
    src = f.row_groups[rg_ord][1][col_ord]
    md = dict(src[3])
    start, end = chunk_range(md)
    shift = len(out) - start
    out += f.raw[start:end]
    for fid in (9, 10, 11):
        if md.get(fid):  # 0 is "none", not an offset
            md[fid] += shift
    return _carry(f, src, md, lambda locs: [{**loc, 1: loc[1] + shift} for loc in locs])


def _stitch(files: list, path_out: str, footer: dict, chunk=_copy_raw_chunk, cols=None) -> str:
    """The one raw rewrite body: write chunks ``cols`` (leaf ordinals, all
    by default) of every row group of ``files`` through ``chunk(f, rg_ord,
    col_ord, out) -> parquet_write.Chunk`` (a verbatim copy unless the
    operation transforms that chunk) and hand them, with ``footer`` — the
    source FileMetaData dict with the operation's edits — to the writer's
    file assembler, which places the page indexes, blooms and footer."""
    if cols is None:
        cols = range(len(files[0].leaves))
    out = bytearray(b"PAR1")
    new_ord = {c: i for i, c in enumerate(cols)}
    row_groups = []
    for f in files:
        for rg_ord, rg in enumerate(f.row_groups):
            chunks = [chunk(f, rg_ord, c, out) for c in cols]
            new = {**rg, 1: chunks, 2: sum(c.cc[3][6] for c in chunks)}
            if 4 in rg:  # a sort order holds up to its first dropped column
                keys = list(takewhile(lambda s: s[1] in new_ord, rg[4]))
                new[4] = [{**s, 1: new_ord[s[1]]} for s in keys]
                if not keys:
                    del new[4]
            if 5 in rg:
                new[5] = chunks[0].cc[2]
            if 6 in rg:
                new[6] = sum(c.cc[3][7] for c in chunks)
            if 7 in rg:
                new[7] = len(row_groups)
            row_groups.append(new)
    footer = {**footer, 3: sum(rg.get(3, 0) for rg in row_groups), 4: row_groups}
    _assemble(out, footer, path_out)
    return path_out


def _top_level_spans(elems: list) -> list:
    """[start, end) SchemaElement index range of each top-level field's
    subtree (elements are stored depth-first after the root)."""
    spans, pos = [], 1
    for _ in range(elems[0].get(5, 0)):
        start, todo = pos, 1
        while todo:
            todo += elems[pos].get(5, 0) - 1
            pos += 1
        spans.append((start, pos))
    return spans


def _edit_footer(f: EncryptedFile, drop=(), renames=None) -> dict:
    """The source FileMetaData minus the top-level fields ``drop`` and with
    top-level fields renamed per ``renames``: schema subtrees, column
    orders and the stored ARROW:schema follow; all else stays verbatim."""
    renames = renames or {}
    elems = f.md[2]
    spans = _top_level_spans(elems)
    keep = [i for i, (a, _) in enumerate(spans) if _name(elems[a]) not in drop]
    schema = [{**elems[0], 5: len(keep)}]
    for a, b in (spans[i] for i in keep):
        name = _name(elems[a])
        schema += [{**elems[a], 4: renames.get(name, name).encode()}, *elems[a + 1 : b]]
    footer = {**f.md, 2: schema}
    if len(f.md.get(7, [])) == len(f.leaves):
        footer[7] = [o for o, lf in zip(f.md[7], f.leaves) if lf.path[0] not in drop]
    if 5 in f.md:
        footer[5] = [
            {**kv, 2: _edit_arrow_schema(kv[2], len(spans), keep, renames)}
            if kv.get(1) == b"ARROW:schema" and 2 in kv else kv
            for kv in f.md[5]
        ]
    return footer


def _edit_arrow_schema(b64: bytes, n_fields: int, keep: list, renames: dict) -> bytes:
    """A stored ARROW:schema with only the top-level fields ``keep``,
    renamed per ``renames``; left as is when it does not describe the
    file's top-level fields one to one."""
    try:
        schema = pa.ipc.read_schema(pa.BufferReader(base64.b64decode(b64)))
    except (ValueError, pa.ArrowException):
        return b64
    if len(schema) != n_fields:
        return b64
    fields = [schema.field(i) for i in keep]
    fields = [fl.with_name(renames.get(fl.name, fl.name)) for fl in fields]
    schema = pa.schema(fields, metadata=schema.metadata)
    return base64.b64encode(schema.serialize().to_pybytes())


def merge_parquet_raw(paths_in: "list[str]", path_out: str) -> str:
    """Merge parquet files WITHOUT re-encoding: every column chunk's raw
    bytes are copied verbatim and only the footer offsets shift — the
    actual `rewrite/ParquetRewriter.java` stitching (its no-transform path
    copies chunks wholesale). Statistics, encodings, size statistics,
    geospatial statistics, bloom filters and page indexes carry over. The
    footer is the first input's with the row groups concatenated; it keeps
    ``created_by`` only when every input has the same one. Requires
    plaintext files with identical schemas."""
    files = [_open_plaintext(p, "merge_parquet_raw") for p in paths_in]
    base = files[0]
    if any(f.md[2][1:] != base.md[2][1:] for f in files[1:]):
        raise ValueError("all inputs must share one schema")
    footer = dict(base.md)
    if len({f.md.get(6) for f in files}) > 1:
        footer.pop(6, None)  # no writer vouches for all statistics
    return _stitch(files, path_out, footer)


def prune_parquet_raw(path_in: str, path_out: str, drop: "list[str]") -> str:
    """Drop top-level columns (flat or nested) from a parquet file WITHOUT
    re-encoding (PruneColumnsCommand / ParquetRewriter prune): kept chunks
    copy verbatim, the footer loses the dropped schema subtrees, chunks and
    column orders."""
    f = _open_plaintext(path_in, "prune_parquet_raw")
    dropset = set(drop)
    missing = dropset - {lf.path[0] for lf in f.leaves}
    if missing:
        raise ValueError(f"no such columns: {sorted(missing)}")
    cols = [i for i, lf in enumerate(f.leaves) if lf.path[0] not in dropset]
    if not cols:
        raise ValueError("cannot drop every column")
    return _stitch([f], path_out, _edit_footer(f, drop=dropset), cols=cols)


def mask_parquet_raw(path_in: str, path_out: str, mask: "list[str]") -> str:
    """ColumnMaskingCommand analog for parquet FILES, hybrid stitch:
    masked string columns re-encode as their 16-hex content hashes
    (`mask_hash` semantics); every OTHER chunk copies verbatim with
    shifted offsets — masking cost scales with the masked columns only.
    Plaintext inputs; masked columns must be flat strings."""
    f = _open_plaintext(path_in, "mask_parquet_raw")
    maskset = set(mask)
    missing = maskset - {lf.path[0] for lf in f.leaves}
    if missing:
        raise ValueError(f"no such columns: {sorted(missing)}")
    for lf in f.leaves:
        if lf.path[0] in maskset and not (
            len(lf.path) == 1 and pa.types.is_string(lf.type)
        ):
            raise ValueError(f"hash masking is defined for string columns: {lf.path[0]}")

    def masked(f, rg_ord, col_ord, out):
        lf = f.leaves[col_ord]
        if lf.path[0] not in maskset:
            return _copy_raw_chunk(f, rg_ord, col_ord, out)
        field = pa.field(lf.path[0], pa.large_string(), lf.max_def > 0)
        arr = f.read_field(rg_ord, field)
        (leaf,) = leaf_levels(field, [mask_hash(shred(field.name, arr)[0])], len(arr))
        return write_chunk(leaf, out, EncodeConfig())  # a new page index, no bloom

    return _stitch([f], path_out, f.md, masked)


def transcompress_parquet_raw(
    path_in: str, path_out: str, compression: "str | None"
) -> str:
    """TransCompressionCommand analog: change the page compression codec
    WITHOUT decoding values — each page body is decompressed and
    recompressed as opaque bytes, headers re-emitted with the new sizes
    (and refreshed CRCs), and the footer carries the original statistics
    and encodings with only codec/size/offset fields updated
    (`rewrite/ParquetRewriter.java` recompress path, `:845`). Plaintext
    flat-or-nested files; V1, V2 and dictionary pages. Bloom filters and
    ColumnIndex bytes are codec-independent and carry over; the OffsetIndex
    gets the new page locations."""
    f = _open_plaintext(path_in, "transcompress_parquet_raw")
    codec_id, codec = codec_for_name(compression)

    def recompress(f, rg_ord, col_ord, out):
        src = f.row_groups[rg_ord][1][col_ord]
        md = {k: v for k, v in src[3].items() if k not in (10, 11)}
        old = codec_for_id(md.get(4, 0))
        pos, end = chunk_range(src[3])
        chunk_start = len(out)
        pages = []  # (offset, header + body size) of each data page
        remaining = md[5]
        while remaining > 0 and pos < end:
            hdr = _read_struct(f.raw, pos)[0]
            h, body, pos = f.read_page(rg_ord, col_ord, pos)
            body = decompress_page(h, body, old).tobytes()
            v2 = h.type == DATA_PAGE_V2  # V2 levels stay plain
            lv = h.v2_rep_bytes + h.v2_def_bytes if v2 else 0
            vals = body[lv:]
            if codec:
                vals = codec.compress(vals).to_pybytes()
            body = body[:lv] + vals
            hdr[3] = len(body)
            if 4 in hdr:
                hdr[4] = zlib.crc32(body)
            if v2:
                hdr[8][7] = codec is not None
            off = len(out)
            out += _thrift(PAGE_HEADER, hdr) + body
            if h.type == DICTIONARY_PAGE:
                md[11] = off
            else:
                pages.append((off, len(out) - off))
                remaining -= h.num_values
        md.update({4: codec_id, 7: len(out) - chunk_start,
                   9: pages[0][0] if pages else chunk_start})

        def relocate(locs):
            if len(locs) != len(pages):
                return None
            return [{**loc, 1: o, 2: n} for loc, (o, n) in zip(locs, pages)]

        return _carry(f, src, md, relocate)

    return _stitch([f], path_out, f.md, recompress)


def rename_parquet_raw(path_in: str, path_out: str, renames: "dict[str, str]") -> str:
    """Rename top-level columns WITHOUT re-encoding (ParquetRewriter
    rename): chunks copy verbatim; only SchemaElement names, the
    path_in_schema lists and the stored Arrow schema change."""
    f = _open_plaintext(path_in, "rename_parquet_raw")
    missing = set(renames) - {lf.path[0] for lf in f.leaves}
    if missing:
        raise ValueError(f"no such columns: {sorted(missing)}")

    def renamed(f, rg_ord, col_ord, out):
        c = _copy_raw_chunk(f, rg_ord, col_ord, out)
        top, *rest = c.cc[3][3]
        c.cc[3][3] = [renames.get(top.decode(), top.decode()).encode(), *rest]
        return c

    return _stitch([f], path_out, _edit_footer(f, renames=renames), renamed)
