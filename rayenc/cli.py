"""rayenc command line — the parquet-cli analog for renc containers.

Mirrors `parquet-cli/src/main/java/org/apache/parquet/cli/Main.java:67` and
its command set (cat, schema, meta, pages, dictionary, column-size, prune,
masking, trans-compression, rewrite) over our container + the encode/decode/
verify jobs.

    python -m rayenc.cli encode  IN.parquet... -o OUT_DIR
    python -m rayenc.cli decode  DIR -o OUT.parquet
    python -m rayenc.cli cat     DIR [-n 10]
    python -m rayenc.cli schema  DIR
    python -m rayenc.cli meta    DIR
    python -m rayenc.cli pages   DIR [--column c]
    python -m rayenc.cli column-sizes DIR
    python -m rayenc.cli rewrite DIR -o OUT [--drop col ...] [--mask col ...]
                                 [--compress zstd|none] [--rename old=new]
    python -m rayenc.cli verify  IN.parquet... --dir DIR
    python -m rayenc.cli merge-containers DIR... -o OUT_DIR

Parquet FILE inspection / surgery (all take --key HEX for encrypted files):

    python -m rayenc.cli file-meta FILE.parquet
    python -m rayenc.cli show-dictionary FILE --column c [-n 20]
    python -m rayenc.cli show-bloom-filter FILE --column c [--test-value v]
    python -m rayenc.cli show-column-index FILE [--column c]
    python -m rayenc.cli show-size-statistics FILE [--column c]
    python -m rayenc.cli show-geospatial-statistics FILE [--column c]
    python -m rayenc.cli footer FILE.parquet           # raw footer JSON
    python -m rayenc.cli file-schema FILE.parquet      # message-type syntax
    python -m rayenc.cli validate-index FILE.parquet   # ColumnIndex contract
    python -m rayenc.cli scan FILE.parquet|DIR         # full decode + timing
    python -m rayenc.cli merge A.parquet B.parquet -o OUT.parquet
    python -m rayenc.cli reencrypt FILE -o OUT [--in-key HEX] [--out-key HEX]

CLI entry points own their Ray session (guarded init), per the driver
contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, log_to_driver=False)
    return ray


def _manifests(d):
    return sorted(n for n in os.listdir(d) if n.endswith(".manifest.json"))


def _load(d, name):
    return json.loads(open(os.path.join(d, name)).read())


def cmd_encode(args):
    ray = _ray()
    from rayenc import pipeline
    from rayenc.selector import EncodeConfig

    inputs = []
    for p in args.inputs:
        if p.endswith(".csv"):  # convert-csv analog (cli/convert commands)
            import pyarrow.csv as pacsv
            import pyarrow.parquet as pq
            import tempfile

            table = pacsv.read_csv(p)
            tmp = tempfile.mktemp(suffix=".parquet", dir="/tmp")
            pq.write_table(table, tmp, row_group_size=max(1000, table.num_rows // 32))
            inputs.append(tmp)
        else:
            inputs.append(p)
    cfg = EncodeConfig(compression=args.compress)
    kwargs = {}
    if getattr(args, "schema", None):
        # declare the write schema in message-type syntax (the reference's
        # MessageTypeParser config idiom): inputs align/cast to it
        from rayenc.message_type import message_type_to_arrow

        if getattr(args, "evolved", False):
            raise SystemExit("--schema and --evolved are mutually exclusive")
        with open(args.schema) as fh:
            kwargs["align_schema"] = message_type_to_arrow(fh.read())
    job = (
        pipeline.encode_evolved_job if getattr(args, "evolved", False)
        else pipeline.encode_job
    )
    df = job(
        inputs, args.out, config=cfg, resume=not args.no_resume, **kwargs
    ).to_pandas()
    total_raw = int(df.raw_bytes.sum()) if len(df) else 0
    total_blob = int(df.blob_bytes.sum()) if len(df) else 0
    print(
        f"encoded {len(df)} partitions, {int(df.rows.sum()) if len(df) else 0} rows: "
        f"{total_raw} raw -> {total_blob} bytes"
    )
    ray.shutdown()


def cmd_decode(args):
    ray = _ray()
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayenc import pipeline

    refs = pipeline.decode_dataset(args.dir, columns=args.column or None).to_arrow_refs()
    table = pa.concat_tables([ray.get(r) for r in refs])
    pq.write_table(table, args.out)
    print(f"decoded {table.num_rows} rows -> {args.out}")
    ray.shutdown()


def cmd_cat(args):
    ray = _ray()
    from rayenc import pipeline

    ds = pipeline.decode_dataset(args.dir)
    for row in ds.take(args.n):
        print(json.dumps({k: str(v)[:80] for k, v in row.items()}))
    ray.shutdown()


def cmd_schema(args):
    import pyarrow as pa

    m = _load(args.dir, _manifests(args.dir)[0])
    schema = pa.ipc.read_schema(pa.py_buffer(bytes.fromhex(m["schema"])))
    print(schema)


def cmd_merge_containers(args):
    """appendFile analog for renc containers: consolidate several container
    directories into one without decoding (blobs copy verbatim)."""
    from rayenc.pipeline import merge_containers

    n = merge_containers(args.dirs, args.out)
    print(f"merged {len(args.dirs)} containers -> {n} partitions in {args.out}")
    return 0


def cmd_write_summary(args):
    """ParquetFileWriter.writeMetadataFile analog: merge every part footer
    in a dataset directory into `_metadata` (+ `_common_metadata`)."""
    from rayenc.summary import part_files, write_summary

    parts = part_files(args.dir)
    out = write_summary(args.dir, parts)
    print(f"merged {len(parts)} part footers -> {out}")
    return 0


def cmd_meta(args):
    rows = 0
    blob = 0
    raw = 0
    encodings: dict[str, dict[str, int]] = {}
    names = _manifests(args.dir)
    for n in names:
        m = _load(args.dir, n)
        rows += m["num_rows"]
        blob += m["blob_bytes"]
        raw += m["raw_bytes"]
        for c in m["chunks"]:
            col = encodings.setdefault(c["name"], {})
            col[c["encoding"]] = col.get(c["encoding"], 0) + 1
    print(
        json.dumps(
            {
                "partitions": len(names),
                "rows": rows,
                "raw_bytes": raw,
                "blob_bytes": blob,
                "ratio": round(raw / blob, 3) if blob else None,
                # selector observability: which encoding won, per column,
                # across partitions (parquet-cli meta's encodings field)
                "encodings": encodings,
            },
            indent=2,
        )
    )


def cmd_pages(args):
    for n in _manifests(args.dir):
        m = _load(args.dir, n)
        for c in m["chunks"]:
            if args.column and c["name"] != args.column:
                continue
            pages = ", ".join(
                f"{p['num_values']}v/{p['length']}B" for p in c["pages"][:8]
            )
            aux = f" aux={c['aux']['kind']}({c['aux']['count']})" if c["aux"] else ""
            print(f"{m['pid']:4d} {c['name']:>20s} {c['encoding']:<22s}{aux} [{pages}]")


def cmd_column_sizes(args):
    sizes: dict[str, int] = {}
    raws: dict[str, int] = {}
    for n in _manifests(args.dir):
        m = _load(args.dir, n)
        for c in m["chunks"]:
            sizes[c["name"]] = sizes.get(c["name"], 0) + c["encoded_bytes"]
            raws[c["name"]] = raws.get(c["name"], 0) + c["stats"]["raw_bytes"]
    for name in sorted(sizes):
        r, s = raws[name], sizes[name]
        print(f"{name:>24s} {s:>12d} B ({r / s:.2f}x vs raw)" if s else name)


def _enc_file(args):
    from .parquet_crypto import FileDecryption
    from .parquet_read_enc import EncryptedFile

    dec = None
    if getattr(args, "key", None):
        dec = FileDecryption(footer_key=bytes.fromhex(args.key))
    return EncryptedFile(args.file, dec)


def cmd_file_meta(args):
    """parquet-cli `meta` analog for parquet FILES (incl. encrypted ones,
    with --key): schema leaves, row groups, per-chunk codec/sizes/encodings."""
    from .parquet_compat import CODEC_NAME, ENCODING_NAME

    f = _enc_file(args)
    enc = "encrypted" if f.algorithm else "plaintext"
    print(f"{args.file}: {f.num_rows} rows, {len(f.row_groups)} row groups, {enc}")
    for leaf in f.leaves:
        print(f"  leaf {leaf.dotted}: {leaf.ptype} R={leaf.max_rep} D={leaf.max_def}")
    for rg in range(len(f.row_groups)):
        print(f"  row group {rg}: {f.row_groups[rg].get(3)} rows")
        for ci, leaf in enumerate(f.leaves):
            try:
                md = f.chunk_meta(rg, ci)
            except Exception as exc:  # column-key chunk without its key
                print(f"    {leaf.dotted}: <unreadable: {exc}>")
                continue
            encs = ",".join(ENCODING_NAME.get(e, str(e)) for e in md.get(2, []))
            print(
                f"    {leaf.dotted}: {md.get(5)} values, "
                f"{CODEC_NAME.get(md.get(4, 0)) or 'none'}, {md.get(7)}B "
                f"({md.get(6)}B raw), enc=[{encs}]"
                + (" +bloom" if 14 in md else "")
            )


def cmd_show_dictionary(args):
    """ShowDictionaryCommand analog: decode and print the dictionary page
    of one column chunk of a parquet FILE (plaintext or encrypted)."""
    import numpy as np

    from .parquet_read_enc import read_dictionary_page

    f = _enc_file(args)
    for rg in range(len(f.row_groups)):
        for ci, leaf in enumerate(f.leaves):
            if args.column and leaf.dotted != args.column:
                continue
            page = read_dictionary_page(f, rg, ci)
            if page is None:
                print(f"rg {rg} {leaf.dotted}: no dictionary page")
                continue
            h, vals = page
            if isinstance(vals, tuple):
                offs, dat = vals
                shown = [
                    bytes(dat[offs[i] : offs[i + 1]]).decode("utf-8", "replace")
                    for i in range(min(h.num_values, args.n))
                ]
            else:
                shown = np.asarray(vals)[: args.n].tolist()
            print(f"rg {rg} {leaf.dotted}: {h.num_values} dictionary entries")
            for i, v in enumerate(shown):
                print(f"  [{i}] {v!r}")


def cmd_show_bloom(args):
    """show-bloom-filter analog (ShowBloomFilterCommand.java): parse the
    BloomFilterHeader+bitset of each chunk of a parquet FILE; with
    --test-value, probe membership."""
    from .parquet_read_enc import _bloom_probe, read_bloom_filter

    f = _enc_file(args)
    for rg in range(len(f.row_groups)):
        for ci, leaf in enumerate(f.leaves):
            if args.column and leaf.dotted != args.column:
                continue
            filt = read_bloom_filter(f, rg, ci)
            if filt is None:
                print(f"rg {rg} {leaf.dotted}: no bloom filter")
                continue
            nbytes = filt.words.nbytes
            line = f"rg {rg} {leaf.dotted}: BLOCK/XXHASH {nbytes} bytes ({filt.num_blocks} blocks)"
            if args.test_value is not None:
                v = args.test_value
                if leaf.ptype in ("INT32", "INT64"):
                    v = int(v)
                elif leaf.ptype in ("FLOAT", "DOUBLE"):
                    v = float(v)
                probe = _bloom_probe(f, rg, ci)
                hit = probe is None or probe([v])
                line += f" value={args.test_value!r} -> {'maybe' if hit else 'NO'}"
            print(line)


def cmd_file_schema(args):
    """SchemaCommand --parquet analog: print the file's schema in the
    parquet message-type text syntax (MessageTypeParser grammar)."""
    from .message_type import format_message_type

    f = _enc_file(args)
    print(format_message_type(f.schema_elems))
    return 0


def cmd_validate_index(args):
    """ColumnIndexValidator analog (hadoop/ColumnIndexValidator.java):
    decode every page and check the written ColumnIndex/OffsetIndex against
    actual contents (bounds containment, null counts, boundary_order)."""
    from .parquet_crypto import FileDecryption
    from .validate import validate_column_index

    dec = None
    if getattr(args, "key", None):
        dec = FileDecryption(footer_key=bytes.fromhex(args.key))
    issues = validate_column_index(args.file, dec)
    for line in issues:
        print(f"VIOLATION: {line}")
    if issues:
        print(f"{len(issues)} contract violation(s)")
        return 1
    print("column index: OK")
    return 0


def cmd_show_column_index(args):
    """show-column-index analog (ShowColumnIndexCommand.java): print the
    ColumnIndex/OffsetIndex structures of a parquet FILE."""
    from .parquet_read_enc import _parse_index

    f = _enc_file(args)
    for rg in range(len(f.row_groups)):
        for ci, leaf in enumerate(f.leaves):
            if args.column and leaf.dotted != args.column:
                continue
            idx = _parse_index(f, rg, ci)
            if idx is None:
                print(f"rg {rg} {leaf.dotted}: no column index")
                continue
            cidx, oidx = idx
            nulls = cidx.get(1, [])
            mins = cidx.get(2, [])
            maxs = cidx.get(3, [])
            locs = oidx.get(1, [])
            print(f"rg {rg} {leaf.dotted}: {len(locs)} pages, boundary_order={cidx.get(4)}")
            for p, loc in enumerate(locs):
                mn = mins[p] if p < len(mins) else b""
                mx = maxs[p] if p < len(maxs) else b""
                print(
                    f"  page {p}: offset={loc.get(1)} size={loc.get(2)}"
                    f" first_row={loc.get(3)} null_page={nulls[p] if p < len(nulls) else '?'}"
                    f" min={mn.hex() if isinstance(mn, bytes) else mn}"
                    f" max={mx.hex() if isinstance(mx, bytes) else mx}"
                )


def cmd_show_size_stats(args):
    """show-size-statistics analog (ShowSizeStatisticsCommand.java): print
    SizeStatistics (unencoded bytes + rep/def level histograms) per chunk."""
    f = _enc_file(args)
    for rg in range(len(f.row_groups)):
        for ci, leaf in enumerate(f.leaves):
            if args.column and leaf.dotted != args.column:
                continue
            md = f.chunk_meta(rg, ci)
            ss = md.get(16)
            if ss is None:
                print(f"rg {rg} {leaf.dotted}: no size statistics")
                continue
            print(
                f"rg {rg} {leaf.dotted}: unencoded_byte_array_data_bytes={ss.get(1)}"
                f" rep_hist={ss.get(2)} def_hist={ss.get(3)}"
            )


def cmd_show_geo_stats(args):
    """show-geospatial-statistics analog (ShowGeospatialStatisticsCommand):
    print GeospatialStatistics (bounding box + geometry type codes) per
    chunk, plus the file-level merge."""
    from . import geo as geo_mod

    f = _enc_file(args)
    merged: dict = {}
    for rg in range(len(f.row_groups)):
        for ci, leaf in enumerate(f.leaves):
            if args.column and leaf.dotted != args.column:
                continue
            g = geo_mod.from_footer_dict(f.chunk_meta(rg, ci).get(17))
            if g is None:
                continue
            print(f"rg {rg} {leaf.dotted}: {g!r}")
            if leaf.dotted in merged:
                merged[leaf.dotted].merge(g)
            else:
                merged[leaf.dotted] = g
    for name, g in merged.items():
        print(f"file {name}: {g!r}")
    if not merged:
        print("no geospatial statistics")


def cmd_check_stats(args):
    """CheckParquet251Command analog: report whether the file's binary
    min/max statistics are trustworthy given its created_by (PARQUET-251
    corrupt-stats bug in parquet-mr < 1.8.0)."""
    from .created_by import should_ignore_statistics

    f = _enc_file(args)
    print(f"created_by: {f.created_by!r}")
    bad = should_ignore_statistics(f.created_by, "BYTE_ARRAY")
    if bad:
        print("binary statistics: CORRUPT (ignored by filtered reads; "
              "PARQUET-251/297)")
    else:
        print("binary statistics: OK")


def cmd_footer(args):
    """ShowFooterCommand analog: dump the raw parquet footer as JSON from
    OUR thrift compact parser (field ids preserved; --raw skips the
    field-name annotation). Works on encrypted footers with --key."""
    f = _enc_file(args)

    def jsonable(v):
        if isinstance(v, bytes):
            try:
                s = v.decode()
                return s if s.isprintable() else "0x" + v.hex()
            except UnicodeDecodeError:
                return "0x" + v.hex()
        if isinstance(v, dict):
            return {str(k): jsonable(x) for k, x in v.items()}
        if isinstance(v, list):
            return [jsonable(x) for x in v]
        return v

    print(json.dumps(jsonable(f.md), indent=2))


def cmd_splits(args):
    """Byte-range split planning (filterFileMetaDataByMidpoint): print
    which row groups each fixed-size split owns."""
    from .parquet_read_enc import plan_byte_splits

    key = bytes.fromhex(args.key) if args.key else None
    dec = None
    if key is not None:
        from .parquet_crypto import FileDecryption

        dec = FileDecryption(footer_key=key)
    plan = plan_byte_splits(args.file, args.split_bytes, dec)
    for s in sorted(plan):
        print(f"split {s} [{s * args.split_bytes}, "
              f"{(s + 1) * args.split_bytes}): row groups {plan[s]}")


def cmd_schema_union(args):
    """Merged-footer schema across files (MessageType.union /
    GlobalMetaData): print the union schema, or the incompatibility."""
    import pyarrow.parquet as pq

    from .parquet_compat import IncompatibleSchemaError, union_schemas

    try:
        uni = union_schemas(
            [pq.ParquetFile(p).schema_arrow for p in args.inputs],
            strict=not args.widen,
        )
    except IncompatibleSchemaError as e:
        print(f"INCOMPATIBLE: {e}")
        return 1
    print(uni)
    return 0


def cmd_scan(args):
    """ScanCommand analog: decode every value of the file/container and
    report rows scanned + wall time (a read-path exerciser)."""
    import time

    t0 = time.perf_counter()
    if os.path.isdir(args.file):
        import ray

        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False)
        from .pipeline import decode_dataset

        n = decode_dataset(args.file).count()
    else:
        from .parquet_crypto import FileDecryption
        from .parquet_read_enc import read_table_encrypted

        dec = None
        if getattr(args, "key", None):
            dec = FileDecryption(footer_key=bytes.fromhex(args.key))
        n = read_table_encrypted(args.file, dec).num_rows
    dt = time.perf_counter() - t0
    print(f"scanned {n} rows in {dt:.3f} s ({n / max(dt, 1e-9):,.0f} rows/s)")


def cmd_prune(args):
    """PruneColumnsCommand analog for parquet FILES: drop columns by raw
    chunk copy — no value re-encode."""
    from .rewrite import prune_parquet_raw

    prune_parquet_raw(args.file, args.out, args.drop)
    print(f"pruned {args.drop} -> {args.out}")


def cmd_mask(args):
    """ColumnMaskingCommand analog for parquet FILES: masked string
    columns re-encode as content hashes, every other chunk copies raw."""
    from .rewrite import mask_parquet_raw

    mask_parquet_raw(args.file, args.out, args.mask)
    print(f"masked {args.mask} -> {args.out}")


def cmd_merge(args):
    """Merge parquet files into one — the ParquetRewriter multi-input
    stitch. --raw copies column chunks verbatim (no value re-encode);
    default re-encodes through our writers."""
    from .rewrite import merge_parquet, merge_parquet_raw

    if getattr(args, "raw", False):
        merge_parquet_raw(args.inputs, args.out)
    else:
        merge_parquet(args.inputs, args.out)
    print(f"merged {len(args.inputs)} files -> {args.out}")


def cmd_reencrypt(args):
    """Rotate or strip parquet modular encryption (ParquetRewriter
    re-encryption analog): --in-key decrypts, --out-key re-encrypts (omit
    to write plaintext). Keys are hex."""
    from .parquet_crypto import FileDecryption, FileEncryption
    from .rewrite import reencrypt_parquet

    dec = FileDecryption(footer_key=bytes.fromhex(args.in_key)) if args.in_key else None
    enc = FileEncryption(footer_key=bytes.fromhex(args.out_key)) if args.out_key else None
    reencrypt_parquet(args.file, args.out, dec, enc)
    print(f"wrote {args.out} ({'encrypted' if enc else 'plaintext'})")


def _parse_renames(pairs):
    return dict(p.split("=", 1) for p in pairs) if pairs else None


def cmd_rewrite(args):
    ray = _ray()
    from rayenc import rewrite

    compression = "__keep__"
    if args.compress is not None:
        compression = None if args.compress == "none" else args.compress
    df = rewrite.rewrite_job(
        args.dir,
        args.out,
        drop_columns=args.drop,
        mask_columns=args.mask,
        compression=compression,
        rename_columns=_parse_renames(getattr(args, "rename", None)),
    ).to_pandas()
    print(
        f"rewrote {len(df)} partitions: {int(df.in_bytes.sum())} -> "
        f"{int(df.out_bytes.sum())} bytes"
    )
    ray.shutdown()


def cmd_convert_csv(args):
    """CSV -> renc container (the reference CLI's convert-csv): arrow csv
    reader -> staged parquet -> distributed encode."""
    import os
    import tempfile

    _ray()  # local init like every other command (staging paths are node-local)

    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    from . import pipeline

    staging = tempfile.mkdtemp(prefix="rayenc-csv-", dir="/tmp")
    paths = []
    for i, src_path in enumerate(args.inputs):
        table = pacsv.read_csv(src_path)
        p = os.path.join(staging, f"part-{i:04d}.parquet")
        pq.write_table(table, p)
        paths.append(p)
    df = pipeline.encode_job(paths, args.out, resume=not args.no_resume).to_pandas()
    print(f"encoded {len(df)} partitions, {df['rows'].sum() if len(df) else 0} rows")


def cmd_convert_jsonl(args):
    """JSONL -> renc container: ray.data.read_json streamed ingestion
    (the shape web-crawl corpora arrive in)."""
    _ray()

    from . import pipeline

    df = pipeline.ingest_jsonl_job(
        list(args.inputs), args.out,
        columns=args.columns.split(",") if args.columns else None,
        resume=not args.no_resume,
    ).to_pandas()
    print(f"encoded {len(df)} partitions, {df['rows'].sum() if len(df) else 0} rows")


def cmd_transcode(args):
    from .selector import EncodeConfig

    if getattr(args, "raw", False):
        # TransCompressionCommand path: pages recompress, values untouched
        from .rewrite import transcompress_parquet_raw

        for p in args.inputs:
            dst = (
                args.out
                if len(args.inputs) == 1
                else os.path.join(args.out, os.path.basename(p))
            )
            transcompress_parquet_raw(p, dst, args.compress)
            print(f"recompressed {p} -> {dst}")
        return

    ray = _ray()
    from rayenc import pipeline

    cfg = EncodeConfig(
        compression=args.compress, parquet_page_version=args.page_version
    )
    df = pipeline.transcode_parquet_job(args.inputs, args.out, config=cfg).to_pandas()
    total = int(df.out_bytes.sum()) if len(df) else 0
    print(f"transcoded {len(df)} partitions -> {total} bytes of parquet")
    ray.shutdown()


def cmd_verify(args):
    ray = _ray()
    from rayenc import pipeline

    res = pipeline.verify_roundtrip(args.inputs, args.dir, key=args.key)
    print(json.dumps(res))
    ray.shutdown()
    sys.exit(0 if res["equal"] else 1)


def main(argv=None):
    p = argparse.ArgumentParser(prog="rayenc")
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("encode")
    e.add_argument("inputs", nargs="+")
    e.add_argument("-o", "--out", required=True)
    e.add_argument("--compress", default=None)
    e.add_argument("--no-resume", action="store_true")
    e.add_argument("--schema", default=None,
                   help="message-type schema file (MessageTypeParser "
                        "syntax): inputs align/cast to it before encoding")
    e.add_argument("--evolved", action="store_true",
                   help="union evolved input schemas (missing columns "
                        "null-fill, numerics widen) before encoding")
    e.set_defaults(fn=cmd_encode)

    d = sub.add_parser("decode")
    d.add_argument("dir")
    d.add_argument("-o", "--out", required=True)
    d.add_argument("--column", action="append")
    d.set_defaults(fn=cmd_decode)

    c = sub.add_parser("cat")
    c.add_argument("dir")
    c.add_argument("-n", type=int, default=10)
    c.set_defaults(fn=cmd_cat)

    s = sub.add_parser("schema")
    s.add_argument("dir")
    s.set_defaults(fn=cmd_schema)

    m = sub.add_parser("meta")
    m.add_argument("dir")
    m.set_defaults(fn=cmd_meta)

    ws = sub.add_parser("write-summary")
    ws.add_argument("dir")
    ws.set_defaults(fn=cmd_write_summary)

    mc = sub.add_parser("merge-containers")
    mc.add_argument("dirs", nargs="+")
    mc.add_argument("-o", "--out", required=True)
    mc.set_defaults(fn=cmd_merge_containers)

    pg = sub.add_parser("pages")
    pg.add_argument("dir")
    pg.add_argument("--column")
    pg.set_defaults(fn=cmd_pages)

    cs = sub.add_parser("column-sizes")
    cs.add_argument("dir")
    cs.set_defaults(fn=cmd_column_sizes)

    r = sub.add_parser("rewrite")
    r.add_argument("dir")
    r.add_argument("-o", "--out", required=True)
    r.add_argument("--drop", action="append", default=[])
    r.add_argument("--mask", action="append", default=[])
    r.add_argument("--compress", default=None)
    r.add_argument("--rename", action="append", default=[],
                   help="old=new (repeatable)")
    r.set_defaults(fn=cmd_rewrite)

    cj = sub.add_parser("convert-jsonl")
    cj.add_argument("inputs", nargs="+")
    cj.add_argument("-o", "--out", required=True)
    cj.add_argument("--columns", default=None, help="comma-separated projection")
    cj.add_argument("--no-resume", action="store_true")
    cj.set_defaults(fn=cmd_convert_jsonl)

    cv = sub.add_parser("convert-csv")
    cv.add_argument("inputs", nargs="+")
    cv.add_argument("-o", "--out", required=True)
    cv.add_argument("--no-resume", action="store_true")
    cv.set_defaults(fn=cmd_convert_csv)

    tc = sub.add_parser("transcode")
    tc.add_argument("inputs", nargs="+")
    tc.add_argument("-o", "--out", required=True)
    tc.add_argument("--compress", default=None,
                    help="page codec: snappy|gzip|zstd|brotli|lz4|lz4_hadoop")
    tc.add_argument("--page-version", default="1.0", choices=["1.0", "2.0"])
    tc.add_argument("--raw", action="store_true",
                    help="recompress pages only (no value re-encode)")
    tc.set_defaults(fn=cmd_transcode)

    for name, fn in (
        ("file-meta", cmd_file_meta),
        ("show-dictionary", cmd_show_dictionary),
        ("show-bloom-filter", cmd_show_bloom),
        ("show-column-index", cmd_show_column_index),
        ("show-size-statistics", cmd_show_size_stats),
        ("show-geospatial-statistics", cmd_show_geo_stats),
        ("footer", cmd_footer),
        ("scan", cmd_scan),
        ("check-stats", cmd_check_stats),
        ("validate-index", cmd_validate_index),
        ("file-schema", cmd_file_schema),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("file")
        sp.add_argument("--column", default=None)
        sp.add_argument("--key", default=None, help="footer key (hex) for encrypted files")
        if name == "show-bloom-filter":
            sp.add_argument("--test-value", default=None)
        if name == "show-dictionary":
            sp.add_argument("-n", type=int, default=20)
        sp.set_defaults(fn=fn)

    pr = sub.add_parser("prune")
    pr.add_argument("file")
    pr.add_argument("-o", "--out", required=True)
    pr.add_argument("--drop", nargs="+", required=True)
    pr.set_defaults(fn=cmd_prune)

    mk = sub.add_parser("mask")
    mk.add_argument("file")
    mk.add_argument("-o", "--out", required=True)
    mk.add_argument("--mask", nargs="+", required=True)
    mk.set_defaults(fn=cmd_mask)

    mg = sub.add_parser("merge")
    mg.add_argument("inputs", nargs="+")
    mg.add_argument("-o", "--out", required=True)
    mg.add_argument("--raw", action="store_true",
                    help="copy chunks verbatim (no re-encode)")
    mg.set_defaults(fn=cmd_merge)

    spl = sub.add_parser("splits")
    spl.add_argument("file")
    spl.add_argument("--split-bytes", type=int, default=128 << 20)
    spl.add_argument("--key", default=None, help="footer key (hex)")
    spl.set_defaults(fn=cmd_splits)

    su = sub.add_parser("schema-union")
    su.add_argument("inputs", nargs="+")
    su.add_argument("--widen", action="store_true",
                    help="allow lossless numeric widening (non-strict)")
    su.set_defaults(fn=cmd_schema_union)

    re_ = sub.add_parser("reencrypt")
    re_.add_argument("file")
    re_.add_argument("-o", "--out", required=True)
    re_.add_argument("--in-key", default=None, help="current footer key (hex)")
    re_.add_argument("--out-key", default=None, help="new footer key (hex); omit for plaintext")
    re_.set_defaults(fn=cmd_reencrypt)

    v = sub.add_parser("verify")
    v.add_argument("inputs", nargs="+")
    v.add_argument("--dir", required=True)
    v.add_argument("--key", default=None)
    v.set_defaults(fn=cmd_verify)

    args = p.parse_args(argv)
    import pyarrow as pa

    try:
        rc = args.fn(args)
        if rc:
            sys.exit(int(rc))
    except FileNotFoundError as e:
        sys.stderr.write(f"rayenc: not found: {e.filename or e}\n")
        sys.exit(2)
    except pa.ArrowInvalid as e:
        sys.stderr.write(f"rayenc: invalid input: {e}\n")
        sys.exit(2)
    except IndexError:
        target = getattr(args, "dir", None)
        sys.stderr.write(f"rayenc: no manifests in {target!r} (not a renc container?)\n")
        sys.exit(2)


if __name__ == "__main__":
    main()
