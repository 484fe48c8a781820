"""Container rewriter: prune / mask / re-compress / re-encode without a full
decode-encode round trip.

Mirrors `parquet-hadoop/.../rewrite/ParquetRewriter.java:99-127` (the
reference's own read->transform->write pipeline): untouched column chunks are
stitched into the new blob as raw bytes (no value re-encode, like the
rewriter's row-group stitching), pages are re-compressed when the codec
changes (`ParquetRewriter.java:845`), and masked columns are decoded,
transformed and re-encoded through the normal selector.

Runs as a Ray Data job over partitions (one task per blob), same
resume/atomic-write discipline as the encode job.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np
import pyarrow as pa

import ray
import ray.data

from . import blocks
from .codecs import dictionary as dict_codec
from .schema import PhysicalColumn
from .selector import EncodeConfig


def _copy_chunk(entry: dict, blob: bytes, out: io.BytesIO) -> dict:
    """Stitch a chunk into the new blob byte-for-byte (offsets rebased)."""
    new = json.loads(json.dumps(entry))

    def rel(meta, new_meta):
        raw = blob[meta["offset"] : meta["offset"] + meta["length"]]
        new_meta["offset"] = out.tell()
        out.write(raw)

    if entry["validity"]:
        rel(entry["validity"], new["validity"])
    if entry["aux"]:
        rel(entry["aux"], new["aux"])
    for old_p, new_p in zip(entry["pages"], new["pages"]):
        rel(old_p, new_p)
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
        _ = _copy_meta(entry["validity"], new["validity"], blob, out)
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
    manifests = sorted(n for n in os.listdir(in_dir) if n.endswith(".manifest.json"))

    def do(batch: dict) -> dict:
        from .pipeline import _atomic_write

        outs = []
        for name in batch["manifest"]:
            name = str(name)
            manifest = json.loads(open(os.path.join(in_dir, name)).read())
            with open(os.path.join(in_dir, manifest["blob"]), "rb") as f:
                blob = f.read()
            new_blob, new_manifest = rewrite_partition(
                blob,
                manifest,
                set(drop_columns or []),
                set(mask_columns or []),
                compression,
                rename_columns=rename_columns,
            )
            _atomic_write(os.path.join(out_dir, manifest["blob"]), new_blob)
            _atomic_write(
                os.path.join(out_dir, name), json.dumps(new_manifest).encode()
            )
            outs.append((manifest["pid"], len(blob), len(new_blob)))
        return {
            "pid": np.array([o[0] for o in outs]),
            "in_bytes": np.array([o[1] for o in outs]),
            "out_bytes": np.array([o[2] for o in outs]),
        }

    ds = ray.data.from_items([{"manifest": m} for m in manifests])
    if concurrency is None:
        concurrency = min(12, max(1, int(ray.cluster_resources().get("CPU", 4))))
    return ds.map_batches(do, batch_size=1, concurrency=min(concurrency, len(manifests)), num_cpus=1)


def reencrypt_parquet(
    path_in: str,
    path_out: str,
    decryption=None,
    encryption=None,
    config=None,
):
    """Single-file (re-)encryption rewrite: decode ``path_in`` (plaintext or
    modular-encrypted, with ``decryption`` keys) through our readers and
    re-write with ``encryption`` (None -> decrypt to plaintext) — the
    ParquetRewriter re-encryption path
    (`rewrite/ParquetRewriter.java:127` masks/keys swap). Row-group count
    collapses to one (values are re-encoded, not page-copied)."""
    from . import parquet_write
    from .parquet_read_enc import read_table_encrypted

    table = read_table_encrypted(path_in, decryption)
    parquet_write.write_table(table, path_out, config, encryption=encryption)
    return path_out


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
    from . import parquet_write
    from .parquet_read_enc import read_table_encrypted

    tables = [read_table_encrypted(p, decryption) for p in paths_in]
    schema = tables[0].schema
    tables = [t.cast(schema) for t in tables]
    parquet_write.write_tables(tables, path_out, config, encryption)
    return path_out


# ---------------------- zero-re-encode parquet merge (raw chunk stitching)

# thrift compact field types of ColumnMetaData (parquet.thrift), used to
# re-emit a parsed {fid: value} dict byte-compatibly. ("i32"/"i64" differ
# only in the type nibble; values are zigzag varints either way.)
_STATISTICS_SPEC = {1: "bin", 2: "bin", 3: "i64", 4: "i64", 5: "bin",
                    6: "bin", 7: "bool", 8: "bool"}
_PAGE_ENC_SPEC = {1: "i32", 2: "i32", 3: "i32"}
_SIZE_STATS_SPEC = {1: "i64", 2: ("list", "i64"), 3: ("list", "i64")}
_BBOX_SPEC = {i: "dbl" for i in range(1, 9)}
_GEO_SPEC = {1: ("struct", _BBOX_SPEC), 2: ("list", "i32")}
_COLUMN_META_SPEC = {
    1: "i32", 2: ("list", "i32"), 3: ("list", "bin"), 4: "i32", 5: "i64",
    6: "i64", 7: "i64", 9: "i64", 10: "i64", 11: "i64",
    12: ("struct", _STATISTICS_SPEC),
    13: ("list", ("struct", _PAGE_ENC_SPEC)),
    14: "i64", 15: "i32",
    16: ("struct", _SIZE_STATS_SPEC),
    17: ("struct", _GEO_SPEC),
}
# ColumnMetaData fields holding absolute file offsets to shift on copy
_CM_OFFSET_FIELDS = (9, 10, 11)  # bloom (14) is outside the chunk byte
# range: its bytes must be stashed and re-placed, never offset-shifted


def _stash_chunk_extras(f, cc: dict, md: dict, shift: int) -> None:
    """Capture the chunk-external regions of a verbatim-copied chunk so the
    writer can re-place them: split-block bloom bytes (ColumnMetaData
    fields 14/15 point OUTSIDE the chunk range) and the page-index regions
    (ColumnChunk fields 4..7). The ColumnIndex bytes copy verbatim (bounds
    are layout-independent); OffsetIndex page offsets rebase by ``shift``
    because the pages themselves moved exactly that far."""
    from .parquet_compat import _read_struct

    if 14 in md:
        md["_bloom"] = bytes(f.raw[md[14] : md[14] + md.get(15, 0)])
    if 6 in cc and 4 in cc:
        ci_raw = bytes(f.raw[cc[6] : cc[6] + cc[7]])
        oidx = _read_struct(f.raw[cc[4] : cc[4] + cc[5]], 0)[0]
        locs = [
            (loc[1] + shift, loc[2], loc[3]) for loc in oidx.get(1, [])
        ]
        md["_idx"] = (ci_raw, locs)


def _place_chunk_extras(out: bytearray, merged_rgs) -> None:
    """Write stashed index + bloom regions between the last row group and
    the footer (ParquetFileWriter layout) and stamp the new locations."""
    from .parquet_write import _W

    for ccs, _ in merged_rgs:
        for md in ccs:
            idx = md.pop("_idx", None)
            if idx is not None:
                ci_raw, locs = idx
                md["_ci"] = (len(out), len(ci_raw))
                out += ci_raw
                oi = _W()
                oi.begin_list(1, 12, len(locs))
                for off, size, first in locs:
                    pl = _W()
                    pl.i64(1, off)
                    pl.i(2, size)
                    pl.i64(3, first)
                    oi.out += pl.stop()
                b = oi.stop()
                md["_oi"] = (len(out), len(b))
                out += b
    for ccs, _ in merged_rgs:
        for md in ccs:
            bloom = md.pop("_bloom", None)
            if bloom is not None:
                md[14] = len(out)
                out += bloom


def _emit_cc(md: dict) -> bytes:
    """One footer ColumnChunk: file_offset + metadata + (when carried)
    offset/column-index locations (fields 4..7)."""
    from .parquet_write import _W

    cc = _W()
    cc.i64(2, md.get(11, md[9]))
    cc.begin_struct(3)
    _emit_struct_fields(
        cc, _COLUMN_META_SPEC,
        {k: v for k, v in md.items() if isinstance(k, int)},
    )
    cc.end_struct()
    if "_oi" in md:
        cc.i64(4, md["_oi"][0])
        cc.i(5, md["_oi"][1])
        cc.i64(6, md["_ci"][0])
        cc.i(7, md["_ci"][1])
    return cc.stop()


def _emit_typed(w, fid, ftype, val):
    from .parquet_write import _W, _wvarint, _zigzag

    if ftype == "i32":
        w.i(fid, val)
    elif ftype == "i64":
        w.i64(fid, val)
    elif ftype == "bin":
        w.binary(fid, val if isinstance(val, bytes) else str(val).encode())
    elif ftype == "bool":
        w.boolean(fid, bool(val))
    elif ftype == "dbl":
        w.dbl(fid, val)
    elif isinstance(ftype, tuple) and ftype[0] == "list":
        et = ftype[1]
        etype = (
            {"i32": 5, "i64": 6, "bin": 8}[et] if isinstance(et, str) else 12
        )
        w.begin_list(fid, etype, len(val))
        for v in val:
            if et in ("i32", "i64"):
                _wvarint(w.out, _zigzag(int(v)))
            elif et == "bin":
                b = v if isinstance(v, bytes) else str(v).encode()
                _wvarint(w.out, len(b))
                w.out += b
            else:  # struct element
                sw = _W()
                _emit_struct_fields(sw, ftype[1][1], v)
                w.out += sw.stop()
    elif isinstance(ftype, tuple) and ftype[0] == "struct":
        w.begin_struct(fid)
        _emit_struct_fields(w, ftype[1], val)
        w.end_struct()
    else:
        raise ValueError(ftype)


def _emit_struct_fields(w, spec: dict, values: dict) -> None:
    for fid in sorted(values):
        if fid in spec:
            _emit_typed(w, fid, spec[fid], values[fid])


def merge_parquet_raw(paths_in: "list[str]", path_out: str) -> str:
    """Merge parquet files WITHOUT re-encoding: every column chunk's raw
    bytes are copied verbatim and only the footer offsets shift — the
    actual `rewrite/ParquetRewriter.java` stitching (its no-transform path
    copies chunks wholesale). Statistics, encodings, size statistics and
    geospatial statistics carry over untouched; bloom filters and page
    indexes carry too (ColumnIndex bytes verbatim, OffsetIndex page
    offsets rebased by each chunk's displacement).
    Requires plaintext files with identical schemas (AAD module ordinals
    make encrypted chunk copy a re-encrypt job: use ``reencrypt_parquet``).
    """
    from .parquet_read_enc import EncryptedFile
    from .parquet_write import _W

    files = [EncryptedFile(p) for p in paths_in]
    if any(f.algorithm for f in files):
        raise ValueError("merge_parquet_raw requires plaintext inputs")
    base = files[0]
    for f in files[1:]:
        if [lf.path for lf in f.leaves] != [lf.path for lf in base.leaves]:
            raise ValueError("all inputs must share one schema")

    out = bytearray(b"PAR1")
    merged_rgs = []  # (list of (cc fields dict ready), rows)
    for f in files:
        for rg_ord, (rg_fields, ccs) in enumerate(
            (rg, rg[1]) for rg in f.row_groups
        ):
            new_ccs = []
            for ci, cc in enumerate(ccs):
                md = dict(cc[3])  # plaintext ColumnMetaData
                # chunk byte range: dictionary (or first data) page .. end
                start = md.get(11, md[9])
                if md.get(10):
                    start = min(start, md[10])
                length = md[7]
                shift = len(out) - start
                _stash_chunk_extras(f, cc, md, shift)
                out += f.raw[start : start + length]
                for fid in _CM_OFFSET_FIELDS:
                    if fid in md:
                        md[fid] = md[fid] + shift
                new_ccs.append(md)
            merged_rgs.append((new_ccs, f.row_groups[rg_ord].get(3, 0)))
    _place_chunk_extras(out, merged_rgs)

    # footer: schema elements re-emitted from the FIRST input's raw footer
    # region is not possible generically, so rebuild via parquet_write on
    # the shared arrow schema (identical by construction) + raw row groups
    schema = base.arrow_schema()
    from .parquet_write import _schema_body

    w = _W()
    w.i(1, 2)
    body = []
    for fld in schema:
        body += _schema_body(fld)
    elems = [{"name": "schema", "children": len(schema.names)}] + body
    w.begin_list(2, 12, len(elems))
    from .parquet_write import _emit_schema_elem

    for e in elems:
        _emit_schema_elem(w, e)
    w.i64(3, sum(rows for _, rows in merged_rgs))
    w.begin_list(4, 12, len(merged_rgs))
    for ccs, rows in merged_rgs:
        rg = _W()
        rg.begin_list(1, 12, len(ccs))
        for md in ccs:
            rg.out += _emit_cc(md)
        rg.i64(2, sum(m[6] for m in ccs))
        rg.i64(3, rows)
        w.out += rg.stop()
    from .parquet_write import _arrow_schema_b64

    kv = _W()
    w.begin_list(5, 12, 1)
    kv.string(1, "ARROW:schema")
    kv.string(2, _arrow_schema_b64(schema))
    w.out += kv.stop()
    w.string(6, "rayenc 0.1")
    if merged_rgs:
        w.begin_list(7, 12, len(merged_rgs[0][0]))
        for _ in merged_rgs[0][0]:
            co = _W()
            co.begin_struct(1)
            co.end_struct()
            w.out += co.stop()
    footer = w.stop()
    out += footer
    out += len(footer).to_bytes(4, "little")
    out += b"PAR1"
    with open(path_out, "wb") as fo:
        fo.write(out)
    return path_out


def prune_parquet_raw(path_in: str, path_out: str, drop: "list[str]") -> str:
    """Drop top-level columns from a parquet file WITHOUT re-encoding
    (PruneColumnsCommand / ParquetRewriter prune): kept chunks copy
    verbatim, the footer rewrites with the surviving schema and shifted
    offsets. Flat top-level drops on plaintext files."""
    import pyarrow as pa

    from .parquet_read_enc import EncryptedFile
    from .parquet_write import (
        _W,
        _arrow_schema_b64,
        _emit_schema_elem,
        _schema_body,
    )

    f = EncryptedFile(path_in)
    if f.algorithm:
        raise ValueError("prune_parquet_raw requires a plaintext input")
    dropset = set(drop)
    missing = dropset - {lf.path[0] for lf in f.leaves}
    if missing:
        raise ValueError(f"no such columns: {sorted(missing)}")
    keep = [i for i, lf in enumerate(f.leaves) if lf.path[0] not in dropset]
    if not keep:
        raise ValueError("cannot drop every column")
    for i in keep:
        if len(f.leaves[i].path) > 1:
            raise ValueError("nested schemas need the re-encode rewriter")

    schema = f.arrow_schema()
    kept_schema = pa.schema(
        [schema.field(n) for n in schema.names if n not in dropset],
        metadata=None,
    )
    out = bytearray(b"PAR1")
    merged_rgs = []
    for rg in f.row_groups:
        new_ccs = []
        for ci in keep:
            md = dict(rg[1][ci][3])
            start = md.get(11, md[9])
            if md.get(10):
                start = min(start, md[10])
            shift = len(out) - start
            _stash_chunk_extras(f, rg[1][ci], md, shift)
            out += f.raw[start : start + md[7]]
            for fid in _CM_OFFSET_FIELDS:
                if fid in md:
                    md[fid] = md[fid] + shift
            new_ccs.append(md)
        merged_rgs.append((new_ccs, rg.get(3, 0)))
    _place_chunk_extras(out, merged_rgs)

    w = _W()
    w.i(1, 2)
    body = []
    for fld in kept_schema:
        body += _schema_body(fld)
    elems = [{"name": "schema", "children": len(kept_schema.names)}] + body
    w.begin_list(2, 12, len(elems))
    for e in elems:
        _emit_schema_elem(w, e)
    w.i64(3, f.num_rows)
    w.begin_list(4, 12, len(merged_rgs))
    for ccs, rows in merged_rgs:
        rg = _W()
        rg.begin_list(1, 12, len(ccs))
        for md in ccs:
            rg.out += _emit_cc(md)
        rg.i64(2, sum(m[6] for m in ccs))
        rg.i64(3, rows)
        w.out += rg.stop()
    kv = _W()
    w.begin_list(5, 12, 1)
    kv.string(1, "ARROW:schema")
    kv.string(2, _arrow_schema_b64(kept_schema))
    w.out += kv.stop()
    w.string(6, "rayenc 0.1")
    w.begin_list(7, 12, len(keep))
    for _ in keep:
        co = _W()
        co.begin_struct(1)
        co.end_struct()
        w.out += co.stop()
    footer = w.stop()
    out += footer
    out += len(footer).to_bytes(4, "little")
    out += b"PAR1"
    with open(path_out, "wb") as fo:
        fo.write(out)
    return path_out


def mask_parquet_raw(path_in: str, path_out: str, mask: "list[str]") -> str:
    """ColumnMaskingCommand analog for parquet FILES, hybrid stitch:
    masked string columns re-encode as their 16-hex content hashes
    (`mask_hash` semantics); every OTHER chunk copies verbatim with
    shifted offsets — masking cost scales with the masked columns only.
    Plaintext inputs; masked columns must be flat strings."""
    import pyarrow as pa

    from . import selector as sel
    from .parquet_compat import _read_struct
    from .parquet_read_enc import EncryptedFile
    from .parquet_write import (
        _W,
        _Column,
        _arrow_schema_b64,
        _emit_column_meta_fields,
        _emit_schema_elem,
        _encode_column_pages,
        _schema_body,
    )
    from .parquet_compat import assemble_flat
    from .schema import shred

    f = EncryptedFile(path_in)
    if f.algorithm:
        raise ValueError("mask_parquet_raw requires a plaintext input")
    maskset = set(mask)
    names = [lf.path[0] for lf in f.leaves]
    missing = maskset - set(names)
    if missing:
        raise ValueError(f"no such columns: {sorted(missing)}")
    schema = f.arrow_schema()
    for c in maskset:
        t = schema.field(c).type
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
            raise ValueError(f"hash masking is defined for string columns: {c}")

    cfg = sel.EncodeConfig()
    out = bytearray(b"PAR1")
    merged_rgs = []
    for rg_ord, rg in enumerate(f.row_groups):
        new_ccs = []
        for ci, lf in enumerate(f.leaves):
            if lf.path[0] not in maskset:
                md = dict(rg[1][ci][3])
                start = md.get(11, md[9])
                if md.get(10):
                    start = min(start, md[10])
                shift = len(out) - start
                _stash_chunk_extras(f, rg[1][ci], md, shift)
                out += f.raw[start : start + md[7]]
                for fid in _CM_OFFSET_FIELDS:
                    if fid in md:
                        md[fid] = md[fid] + shift
                new_ccs.append(md)
                continue
            # masked column: decode this chunk, hash, re-encode in place
            r = f.decode_leaf(rg_ord, ci)
            arr = assemble_flat(r, schema.field(lf.path[0]).type)
            col = shred(lf.path[0], arr)[0]
            col = mask_hash(col)
            meta = _Column([lf.path[0]], "BINARY", lf.max_rep, lf.max_def)
            if lf.max_def == 0:
                _encode_column_pages(col, out, meta, cfg)
            else:
                dfv = (~(col.null_mask if col.null_mask is not None
                         else np.zeros(col.logical_count, bool))).astype(np.uint8)
                _encode_column_pages(
                    col, out, meta, cfg, def_levels=dfv, max_def=1
                )
            mw = _W()
            _emit_column_meta_fields(mw, meta)
            md, _ = _read_struct(mw.stop(), 0)
            new_ccs.append(md)
        merged_rgs.append((new_ccs, rg.get(3, 0)))
    _place_chunk_extras(out, merged_rgs)

    w = _W()
    w.i(1, 2)
    body = []
    for fld in schema:
        body += _schema_body(fld)
    elems = [{"name": "schema", "children": len(schema.names)}] + body
    w.begin_list(2, 12, len(elems))
    for e in elems:
        _emit_schema_elem(w, e)
    w.i64(3, f.num_rows)
    w.begin_list(4, 12, len(merged_rgs))
    for ccs, rows in merged_rgs:
        rg = _W()
        rg.begin_list(1, 12, len(ccs))
        for md in ccs:
            rg.out += _emit_cc(md)
        rg.i64(2, sum(m[6] for m in ccs))
        rg.i64(3, rows)
        w.out += rg.stop()
    kv = _W()
    w.begin_list(5, 12, 1)
    kv.string(1, "ARROW:schema")
    kv.string(2, _arrow_schema_b64(schema))
    w.out += kv.stop()
    w.string(6, "rayenc 0.1")
    w.begin_list(7, 12, len(f.leaves))
    for _ in f.leaves:
        co = _W()
        co.begin_struct(1)
        co.end_struct()
        w.out += co.stop()
    footer = w.stop()
    out += footer
    out += len(footer).to_bytes(4, "little")
    out += b"PAR1"
    with open(path_out, "wb") as fo:
        fo.write(out)
    return path_out


def transcompress_parquet_raw(
    path_in: str, path_out: str, compression: "str | None"
) -> str:
    """TransCompressionCommand analog: change the page compression codec
    WITHOUT decoding values — each page body is decompressed and
    recompressed as opaque bytes, headers re-emitted with the new sizes
    (and refreshed CRCs), and the footer carries the original statistics
    and encodings with only codec/size/offset fields updated
    (`rewrite/ParquetRewriter.java` recompress path, `:845`). Plaintext
    flat-or-nested files; V1, V2 and dictionary pages."""
    import zlib

    import pyarrow as pa

    from .parquet_read_enc import EncryptedFile
    from .parquet_write import (
        _W,
        _arrow_schema_b64,
        _emit_schema_elem,
        _schema_body,
    )

    from .parquet_read_enc import _parse_index

    f = EncryptedFile(path_in)
    if f.algorithm:
        raise ValueError("transcompress_parquet_raw requires plaintext input")
    from .parquet_write import _page_codec

    # _page_codec handles lz4_hadoop (codec 5) and validates the name
    new_codec_id, new_codec = _page_codec(compression)

    out = bytearray(b"PAR1")
    merged_rgs = []
    for rg_ord, rg in enumerate(f.row_groups):
        new_ccs = []
        for ci, lf in enumerate(f.leaves):
            orig_cc = rg[1][ci]
            orig_idx = _parse_index(f, rg_ord, ci)
            md = dict(rg[1][ci][3])
            # _resolve_codec decodes the legacy ids too (5 = LZ4 hadoop/raw,
            # 3 = LZO) — id 5 used to map to None here, which silently
            # treated compressed pages as UNCOMPRESSED
            from .parquet_read_enc import _resolve_codec

            old_codec = _resolve_codec(md.get(4, 0))
            start = md.get(11, md[9])
            if md.get(10):
                start = min(start, md[10])
            chunk_end = start + md[7]
            chunk_start = len(out)
            new_dict_off = new_data_off = None
            new_pages: list = []  # (offset, header+body size) per data page
            pos = start
            consumed = 0
            has_dict = 11 in md and md[11] is not None and md[11] >= 0
            expect_dict = has_dict
            while consumed < md[5] and pos < chunk_end:
                h, body, pos = f.read_page(rg_ord, ci, pos)
                body = body.tobytes()
                if h.type == 3:  # V2: levels stay plain, values recompress
                    lv = h.v2_rep_bytes + h.v2_def_bytes
                    vals = body[lv:]
                    if old_codec and h.v2_is_compressed:
                        vals = old_codec.decompress(
                            vals, h.uncompressed_size - lv
                        ).to_pybytes()
                    new_vals = (
                        new_codec.compress(vals).to_pybytes()
                        if new_codec
                        else vals
                    )
                    new_body = body[:lv] + new_vals
                else:
                    plain_body = (
                        old_codec.decompress(body, h.uncompressed_size).to_pybytes()
                        if old_codec
                        else body
                    )
                    new_body = (
                        new_codec.compress(plain_body).to_pybytes()
                        if new_codec
                        else plain_body
                    )
                crc = (zlib.crc32(new_body) & 0xFFFFFFFF) if h.crc is not None else None
                hw = _W()
                hw.i(1, h.type)
                hw.i(2, h.uncompressed_size)
                hw.i(3, len(new_body))
                if crc is not None:
                    hw.i(4, crc - (1 << 32) if crc >= (1 << 31) else crc)
                if h.type == 0:
                    hw.begin_struct(5)
                    hw.i(1, h.num_values)
                    hw.i(2, h.encoding)
                    hw.i(3, h.def_level_encoding)
                    hw.i(4, h.rep_level_encoding if h.rep_level_encoding is not None else h.def_level_encoding)
                    hw.end_struct()
                elif h.type == 2:
                    hw.begin_struct(7)
                    hw.i(1, h.num_values)
                    hw.i(2, h.encoding)
                    hw.end_struct()
                else:  # V2
                    hw.begin_struct(8)
                    hw.i(1, h.num_values)
                    hw.i(2, h.v2_num_nulls)
                    hw.i(3, h.v2_num_rows)
                    hw.i(4, h.encoding)
                    hw.i(5, h.v2_def_bytes)
                    hw.i(6, h.v2_rep_bytes)
                    hw.boolean(7, new_codec is not None)
                    hw.end_struct()
                if expect_dict and h.type == 2:
                    new_dict_off = len(out)
                    expect_dict = False
                elif new_data_off is None and h.type in (0, 3):
                    new_data_off = len(out)
                page_off = len(out)
                out += hw.stop()
                out += new_body
                if h.type in (0, 3):
                    consumed += h.num_values
                    new_pages.append((page_off, len(out) - page_off))
            md[4] = new_codec_id
            md[7] = len(out) - chunk_start
            md[9] = new_data_off if new_data_off is not None else chunk_start
            if new_dict_off is not None:
                md[11] = new_dict_off
            else:
                md.pop(11, None)
            md.pop(10, None)
            if 14 in md:  # bloom bytes are codec-independent: carry them
                md["_bloom"] = bytes(f.raw[md[14] : md[14] + md.get(15, 0)])
                md.pop(14)
            # page-index carry-over (CompressionConverter keeps indexes):
            # ColumnIndex bytes are codec-independent and copy verbatim;
            # the OffsetIndex re-emits below with the new page locations
            if orig_idx is not None:
                _, oidx = orig_idx
                firsts = [loc[3] for loc in oidx.get(1, [])]
                if len(firsts) == len(new_pages):
                    md["_ci_region"] = (orig_cc[6], orig_cc[7])
                    md["_new_pages"] = new_pages
                    md["_first_rows"] = firsts
            new_ccs.append(md)
        merged_rgs.append((new_ccs, rg.get(3, 0)))

    # index region between the last row group and the footer
    # (ParquetFileWriter layout)
    for ccs, _ in merged_rgs:
        for md in ccs:
            if "_ci_region" not in md:
                continue
            off, ln = md["_ci_region"]
            md["_ci"] = (len(out), ln)
            out += f.raw[off : off + ln]
            oi = _W()
            oi.begin_list(1, 12, len(md["_new_pages"]))
            for (p_off, p_size), first in zip(
                md["_new_pages"], md["_first_rows"]
            ):
                pl = _W()
                pl.i64(1, p_off)
                pl.i(2, p_size)
                pl.i64(3, first)
                oi.out += pl.stop()
            oi_b = oi.stop()
            md["_oi"] = (len(out), len(oi_b))
            out += oi_b
    for ccs, _ in merged_rgs:
        for md in ccs:
            bloom = md.pop("_bloom", None)
            if bloom is not None:
                md[14] = len(out)
                out += bloom

    schema = f.arrow_schema()
    w = _W()
    w.i(1, 2)
    body = []
    for fld in schema:
        body += _schema_body(fld)
    elems = [{"name": "schema", "children": len(schema.names)}] + body
    w.begin_list(2, 12, len(elems))
    for e in elems:
        _emit_schema_elem(w, e)
    w.i64(3, f.num_rows)
    w.begin_list(4, 12, len(merged_rgs))
    for ccs, rows in merged_rgs:
        rgw = _W()
        rgw.begin_list(1, 12, len(ccs))
        for md in ccs:
            rgw.out += _emit_cc(md)
        rgw.i64(2, sum(m[6] for m in ccs))
        rgw.i64(3, rows)
        w.out += rgw.stop()
    kv = _W()
    w.begin_list(5, 12, 1)
    kv.string(1, "ARROW:schema")
    kv.string(2, _arrow_schema_b64(schema))
    w.out += kv.stop()
    w.string(6, "rayenc 0.1")
    w.begin_list(7, 12, len(f.leaves))
    for _ in f.leaves:
        co = _W()
        co.begin_struct(1)
        co.end_struct()
        w.out += co.stop()
    footer = w.stop()
    out += footer
    out += len(footer).to_bytes(4, "little")
    out += b"PAR1"
    with open(path_out, "wb") as fo:
        fo.write(out)
    return path_out


def rename_parquet_raw(path_in: str, path_out: str, renames: "dict[str, str]") -> str:
    """Rename top-level columns WITHOUT re-encoding (ParquetRewriter
    rename): chunks copy verbatim; only SchemaElement names, the
    path_in_schema lists and the embedded Arrow schema change."""
    import pyarrow as pa

    from .parquet_read_enc import EncryptedFile
    from .parquet_write import (
        _W,
        _arrow_schema_b64,
        _emit_schema_elem,
        _schema_body,
    )

    f = EncryptedFile(path_in)
    if f.algorithm:
        raise ValueError("rename_parquet_raw requires a plaintext input")
    names = [lf.path[0] for lf in f.leaves]
    missing = set(renames) - set(names)
    if missing:
        raise ValueError(f"no such columns: {sorted(missing)}")
    schema = f.arrow_schema()
    new_schema = pa.schema(
        [
            pa.field(renames.get(fl.name, fl.name), fl.type, fl.nullable)
            for fl in schema
        ],
        metadata=None,
    )
    out = bytearray(b"PAR1")
    merged_rgs = []
    for rg in f.row_groups:
        new_ccs = []
        for ci, lf in enumerate(f.leaves):
            md = dict(rg[1][ci][3])
            start = md.get(11, md[9])
            if md.get(10):
                start = min(start, md[10])
            shift = len(out) - start
            _stash_chunk_extras(f, rg[1][ci], md, shift)
            out += f.raw[start : start + md[7]]
            for fid in _CM_OFFSET_FIELDS:
                if fid in md:
                    md[fid] = md[fid] + shift
            if lf.path[0] in renames:
                new_path = [renames[lf.path[0]].encode()] + [
                    p.encode() if isinstance(p, str) else p
                    for p in lf.path[1:]
                ]
                md[3] = new_path
            new_ccs.append(md)
        merged_rgs.append((new_ccs, rg.get(3, 0)))
    _place_chunk_extras(out, merged_rgs)

    w = _W()
    w.i(1, 2)
    body = []
    for fld in new_schema:
        body += _schema_body(fld)
    elems = [{"name": "schema", "children": len(new_schema.names)}] + body
    w.begin_list(2, 12, len(elems))
    for e in elems:
        _emit_schema_elem(w, e)
    w.i64(3, f.num_rows)
    w.begin_list(4, 12, len(merged_rgs))
    for ccs, rows in merged_rgs:
        rgw = _W()
        rgw.begin_list(1, 12, len(ccs))
        for md in ccs:
            rgw.out += _emit_cc(md)
        rgw.i64(2, sum(m[6] for m in ccs))
        rgw.i64(3, rows)
        w.out += rgw.stop()
    kv = _W()
    w.begin_list(5, 12, 1)
    kv.string(1, "ARROW:schema")
    kv.string(2, _arrow_schema_b64(new_schema))
    w.out += kv.stop()
    w.string(6, "rayenc 0.1")
    w.begin_list(7, 12, len(f.leaves))
    for _ in f.leaves:
        co = _W()
        co.begin_struct(1)
        co.end_struct()
        w.out += co.stop()
    footer = w.stop()
    out += footer
    out += len(footer).to_bytes(4, "little")
    out += b"PAR1"
    with open(path_out, "wb") as fo:
        fo.write(out)
    return path_out
