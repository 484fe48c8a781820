"""Byte-identity matrix for the Parquet writer and the raw rewriter.

Writes a fixed set of Parquet files with the rayenc tree this script sits in
and prints one ``sha256  name`` line per file. Run it from two checkouts and
diff the output: a refactor of the writer's shredding, levels, page layout
or footer must leave every line unchanged.

The matrix:

- every table of an sf0.001 directory, as V1 pages and as V2 pages + zstd;
- a nested table with null struct parents over non-null children,
  ``list<struct<a, list<string>>>``, maps with null values and empty maps,
  ``list<list<int64>>`` with null and empty lists at each level, a
  dictionary leaf and fixed-size lists with null elements and null parents
  (``nested``), plus non-nullable list elements and map values
  (``nested_required``), each V1, V2 + zstd and with small pages;
- decimals (FLBA and INT32/INT64) and INT96 timestamps;
- one flat column per leaf type the writer annotates, with the declared
  ENUM/JSON/BSON/UUID/INTERVAL annotations and a GEOMETRY column
  (``annotated``);
- encrypted files (footer key, column key, plaintext footer, CTR), with
  ``parquet_crypto.os.urandom`` replaced by a seeded stream;
- ``rewrite.mask_parquet_raw`` outputs of rayenc- and pyarrow-written files;
- ``rewrite.prune_parquet_raw``, ``merge_parquet_raw``,
  ``rename_parquet_raw`` and ``transcompress_parquet_raw`` (to zstd and
  back to none) outputs of ``raw_src``: the ``bounds`` columns whose chunks
  all carry min/max, in two row groups of 100-row pages with page indexes
  and blooms on four columns;
- a ``bounds`` table of 100-row pages whose page and chunk min/max hit
  every statistics rule: unsigned ints above the signed max, a NaN page of
  doubles, half floats with ±0 and a NaN page, byte strings over the
  64-byte truncation limit (one with an all-0xFF prefix), booleans,
  nullable strings and an all-null page, as V1 and as V2 pages + zstd;
- a ``data.make_table`` token table whose ``tokens`` chunk spans 7 default
  20,000-slot pages, and a copy with null lists, empty lists and null
  tokens (``tokens`` and ``tokens_nulls``), each V1 + zstd and V2: the
  writer plans level and dictionary-id streams of default-size multi-page
  chunks only here.

A ``container`` section follows: for every sf0.001 table, one line hashing
the ``pipeline.plan_partitions`` descriptors (at a 64 KiB block target, so
lineitem's row group splits into row ranges) and one line per blob and per
manifest that ``pipeline.EncodeWorker.encode_one`` writes for them, the
manifest without its ``timings`` and ``lineage.path``. A ``container_zstd``
section repeats it with zstd pages of 250 rows (``CONTAINER_ZSTD``): chunks
of 5 or more pages are where the selector ranks sampled candidates by
compressed bytes, so a selector change shows up as a line diff in one
section or the other. A ``container_bloom`` section repeats the default
plan with ``bloom_columns`` set to the tables' key columns (names ending
in ``key`` or ``_id``), so the manifests carry blooms; the blobs must match
the ``container`` section's. A ``container_bounds`` section hashes the
blob and manifest of the ``bounds`` table encoded as one container block.

A ``pruning`` section reads ``bounds.v1`` and that container block with one
predicate per (column, op) of ``PRUNING_COLUMNS`` x ``PRUNING_OPS`` and
prints the row intervals ``predicate.row_ranges`` returns in each reader
(one list per call: per row group in Parquet, per block in the container),
so a change to page pruning shows up as a line diff.

A ``container_pages`` section repeats the default container plan
uncompressed in 250-row pages (``CONTAINER_PAGES``) and adds a 1,500-row
``bounds`` table as one block: there chunks of every physical type span 5
or more pages, which the selector ranks on a sample without a page codec.

A ``container_tokens`` section encodes a 4,000-row ``data.make_table``
token table the way the benchmark's tokens-read workload does: 32 row
groups, a block target of a quarter of the raw bytes, zstd pages and a
bloom on ``doc_id`` (``CONTAINER_TOKENS``). Its ``doc_id`` chunks are
FSST, its ``tokens#values`` chunks BYTE_STREAM_SPLIT over 9 default pages
(and one RLE_DICTIONARY chunk of int32 keys): no other section writes
those.

Usage:
    python scripts/parquet_identity.py --sf DIR [--out DIR]
"""

from __future__ import annotations

import argparse
import datetime
import decimal
import glob
import hashlib
import json
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from rayenc import blocks, data, geo, parquet_crypto, parquet_read_enc, parquet_write, pipeline, predicate, rewrite  # noqa: E402
from rayenc.parquet_crypto import FileEncryption  # noqa: E402
from rayenc.selector import EncodeConfig  # noqa: E402

V1 = EncodeConfig()
V2_ZSTD = EncodeConfig(parquet_page_version="2.0", compression="zstd")
V1_ZSTD = EncodeConfig(compression="zstd")
V2 = EncodeConfig(parquet_page_version="2.0")
SMALL_PAGES = EncodeConfig(page_rows=7)
CONTAINER_TARGET = 64 << 10  # raw bytes per container partition
# 250-row pages: lineitem's 2000-row partitions get 8-page chunks
CONTAINER_ZSTD = EncodeConfig(compression="zstd", page_rows=250)
CONTAINER_PAGES = EncodeConfig(page_rows=250)
CONTAINER_TOKENS = EncodeConfig(compression="zstd", bloom_columns={"doc_id"})
BOUNDS = EncodeConfig(page_rows=100)
BOUNDS_V2_ZSTD = EncodeConfig(page_rows=100, parquet_page_version="2.0", compression="zstd")
RAW_SRC = EncodeConfig(page_rows=100, bloom_columns={"u32", "text", "nstr", "nint"})
# the pruning section: a literal each bounds_table column holds (row 250;
# row 450 of u64, row 260 of long) and one it does not hold
PRUNING_COLUMNS = {
    "u32": (2**32 - 1 - 7 * 250, 5),
    "u64": (2**64 - 1 - 450, 2**63),
    "f64": (100.0, -1.0),
    "long": (b"p" * 66 + (260).to_bytes(2, "big"), b"a"),
    "text": ("s" * 60 + "000250", "zz"),
    "nstr": ("k00250", "k00004"),
    "nint": (250, 350),
}
PRUNING_OPS = ("==", "!=", "<", "<=", ">", ">=", "in", "not_in", "is_null", "not_null")


def nested_table() -> pa.Table:
    n = 40
    rows = range(n)
    st = pa.StructArray.from_arrays(
        [pa.array([i for i in rows], pa.int64()), pa.array([f"s{i}" for i in rows])],
        ["a", "b"],
        mask=pa.array([i % 4 == 1 for i in rows]),
    )
    lsl = pa.array(
        [None if i % 7 == 3 else
         [{"a": i, "b": ["x", "y"][: i % 3]}, {"a": None, "b": None}][: i % 3]
         for i in rows],
        pa.list_(pa.struct([("a", pa.int64()), ("b", pa.list_(pa.string()))])),
    )
    m = pa.array(
        [None if i % 9 == 4 else [(f"k{j}", None if j == 1 else f"v{i}") for j in range(i % 4)]
         for i in rows],
        pa.map_(pa.string(), pa.string()),
    )
    ll = pa.array(
        [None if i % 5 == 2 else
         [None if j == 1 else [None if k == 2 else i + k for k in range(j)] for j in range(i % 4)]
         for i in rows],
        pa.list_(pa.list_(pa.int64())),
    )
    dic = pa.array([None if i % 6 == 0 else f"d{i % 3}" for i in rows]).dictionary_encode()
    fsl = pa.FixedSizeListArray.from_arrays(
        pa.array([None if k % 5 == 2 else k for k in range(2 * n)], pa.int32()), 2,
        mask=pa.array([i % 8 == 5 for i in rows]),
    )
    return pa.table({"id": pa.array(rows, pa.int64()), "st": st, "lsl": lsl,
                     "m": m, "ll": ll, "dic": dic, "fsl": fsl})


def nested_required_table() -> pa.Table:
    n = 30
    req = pa.field("item", pa.int32(), False)
    return pa.table({
        "req": pa.array([[i] * (i % 3) for i in range(n)], pa.list_(req)),
        "m": pa.array([[(f"k{i}", i)] if i % 2 else [] for i in range(n)],
                      pa.map_(pa.string(), pa.field("value", pa.int64(), False))),
        "ls": pa.array([None if i % 5 == 0 else [{"x": i}] for i in range(n)],
                       pa.list_(pa.struct([pa.field("x", pa.int64(), False)]))),
    })


def logical_table() -> pa.Table:
    n = 25
    base = datetime.datetime(2021, 3, 4, 5, 6, 7)
    return pa.table({
        "d9": pa.array([None if i % 4 == 0 else decimal.Decimal(i * 1001) / 100 for i in range(n)],
                       pa.decimal128(9, 2)),
        "d18": pa.array([decimal.Decimal(-i * 10**12) / 1000 for i in range(n)],
                        pa.decimal128(18, 3)),
        "d38": pa.array([decimal.Decimal(i) ** 20 for i in range(n)], pa.decimal128(38, 0)),
        "ts": pa.array([None if i % 3 == 0 else base + datetime.timedelta(seconds=i * 37)
                        for i in range(n)], pa.timestamp("ns")),
    })


ANNOTATED = EncodeConfig(
    decimal_as_integer=True,
    logical_annotations={"enum": "ENUM", "json": "JSON", "bson": "BSON",
                         "uuid": "UUID", "interval": "INTERVAL"},
    geospatial={"geometry": geo.GeoSpec("geometry")},
)


def annotated_table(n: int = 20) -> pa.Table:
    """One flat nullable column per leaf type the writer stamps an
    annotation for (or deliberately leaves bare), written with
    ``ANNOTATED``: decimals of precision 9 and 18 go to INT32/INT64 and
    precision 30 stays FLBA."""
    rows = range(n)

    def col(values, t):
        return pa.array([None if i % 5 == 3 else v for i, v in zip(rows, values)], t)

    signed = [i * 7 - 60 for i in rows]
    cols = {str(t): col(signed, t) for t in (pa.int8(), pa.int16(), pa.int32(), pa.int64())}
    cols |= {str(t): col([i * 13 for i in rows], t)
             for t in (pa.uint8(), pa.uint16(), pa.uint32(), pa.uint64())}
    cols["date32"] = col(signed, pa.date32())
    for t in (pa.time32("s"), pa.time32("ms"), pa.time64("us"), pa.time64("ns")):
        cols[f"time_{t.unit}"] = col([i * 4001 for i in rows], t)
    for unit in ("ms", "us", "ns"):
        for tz in (None, "UTC"):
            cols[f"ts_{unit}{'_utc' if tz else ''}"] = col([i * 10**12 - 7 for i in rows],
                                                         pa.timestamp(unit, tz))
    for p, s in ((9, 2), (18, 3), (30, 4)):
        cols[f"decimal{p}"] = col([decimal.Decimal(i * 1001 - 9000) / 10**s for i in rows],
                                  pa.decimal128(p, s))
    cols["float16"] = col(np.arange(n, dtype=np.float16) / 4, pa.float16())
    cols["string"] = col([f"s{i % 6}" for i in rows], pa.string())
    cols["binary"] = col([bytes([i, 0, i]) for i in rows], pa.binary())
    cols["enum"] = col(["RED", "GREEN", "BLUE", "RED"] * (n // 4), pa.string())
    cols["json"] = col([f'{{"k": {i}}}' for i in rows], pa.string())
    cols["bson"] = col([bytes([5, 0, 0, 0, i]) for i in rows], pa.binary())
    cols["uuid"] = col([bytes(range(i, i + 16)) for i in rows], pa.binary(16))
    cols["interval"] = col([bytes([i] * 12) for i in rows], pa.binary(12))
    cols["geometry"] = col([bytes([1, 1, 0, 0, 0]) + np.array([i, -i], "<f8").tobytes()
                            for i in rows], pa.binary())
    return pa.table(cols)


def bounds_table(n: int = 600) -> pa.Table:
    """Six 100-row pages per column (with ``BOUNDS``) whose bounds exercise
    the unsigned domain, the NaN rule, the half-float ±0 widening and the
    64-byte truncate/increment rule."""
    rows = range(n)
    f16 = ((np.arange(n) % 40 - 20) / 4).astype(np.float16)
    f16[np.arange(n) % 80 == 20] = np.float16(-0.0)
    f16nan = f16.copy()
    f16nan[450] = np.nan
    return pa.table({
        "u32": pa.array([2**32 - 1 - 7 * i for i in rows], pa.uint32()),
        "u64": pa.array([i if i < 300 else 2**64 - 1 - i for i in rows], pa.uint64()),
        "f64": pa.array([float("nan") if i == 250 else i / 4 for i in rows], pa.float64()),
        "f16": pa.array(f16, pa.float16()),
        "f16nan": pa.array(f16nan, pa.float16()),
        "long": pa.array([b"\xff" * 70 + bytes([i % 256]) if i % 100 == 50
                          else b"p" * 66 + i.to_bytes(2, "big") for i in rows], pa.binary()),
        "text": pa.array([f"{'s' * 60}{i:06d}" for i in rows], pa.string()),
        "flag": pa.array([i % 7 == 0 and i < 400 for i in rows], pa.bool_()),
        "nstr": pa.array([None if i % 9 == 4 else f"k{i:05d}" for i in rows], pa.string()),
        "nint": pa.array([None if 300 <= i < 400 else i for i in rows], pa.int64()),
    })


def token_tables(n: int = 800) -> "tuple[pa.Table, pa.Table]":
    """The token table (~138,000 tokens: 7 default pages of ``tokens``) and
    a copy whose ``tokens`` has a null list every 13th row, an empty list
    every 17th and a null token every 11th."""
    t = data.make_table(n)
    rows = t["tokens"].to_pylist()
    holes = [
        None if i % 13 == 5 else [] if i % 17 == 3
        else [None if j % 11 == 4 else v for j, v in enumerate(r)]
        for i, r in enumerate(rows)
    ]
    return t, t.set_column(1, "tokens", pa.array(holes, t.schema.field("tokens").type))


def seed_urandom(seed: int) -> None:
    rng = random.Random(seed)
    parquet_crypto.os.urandom = lambda k: bytes(rng.getrandbits(8) for _ in range(k))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sf", required=True, help="directory holding the sf0.001 tables")
    ap.add_argument("--out", default=None, help="output directory (default: a temp dir)")
    args = ap.parse_args()
    out = args.out or tempfile.mkdtemp(prefix="parquet_identity_")
    os.makedirs(out, exist_ok=True)
    written = []

    def write(name, table, config=V1, **kw):
        path = os.path.join(out, name + ".parquet")
        parquet_write.write_table(table, path, config, **kw)
        written.append(path)
        return path

    sources = sorted(glob.glob(os.path.join(args.sf, "*.parquet")))
    if not sources:
        raise SystemExit(f"no parquet tables in {args.sf}")
    for src in sources:
        stem = os.path.basename(src)[: -len(".parquet")]
        t = pq.read_table(src)
        write(f"sf_{stem}.v1", t)
        write(f"sf_{stem}.v2zstd", t, V2_ZSTD, row_group_size=1000)

    for stem, t in (("nested", nested_table()), ("nested_required", nested_required_table())):
        write(f"{stem}.v1", t)
        write(f"{stem}.v2zstd", t, V2_ZSTD, row_group_size=16)
        write(f"{stem}.small_pages", t, SMALL_PAGES)

    lt = logical_table()
    write("logical.v1", lt)
    write("logical.int_decimals", lt, EncodeConfig(decimal_as_integer=True))
    write("logical.int96", lt, EncodeConfig(int96_timestamps=True))
    write("annotated.v1", annotated_table(), ANNOTATED)
    bt = bounds_table()
    write("bounds.v1", bt, BOUNDS)
    write("bounds.v2zstd", bt, BOUNDS_V2_ZSTD)
    for stem, t in zip(("tokens", "tokens_nulls"), token_tables()):
        write(f"{stem}.v1zstd", t, V1_ZSTD)
        write(f"{stem}.v2", t, V2)

    fk, ck = b"0123456789abcdef", b"fedcba9876543210"
    lineitem = pq.read_table(os.path.join(args.sf, "lineitem.parquet"))
    encryptions = {
        "footer_key": FileEncryption(footer_key=fk),
        "column_key": FileEncryption(footer_key=fk, column_keys={"l_returnflag": ck, "lsl.list.element.a": ck}),
        "plaintext_footer": FileEncryption(footer_key=fk, plaintext_footer=True),
        "ctr": FileEncryption(footer_key=fk, algorithm="AES_GCM_CTR_V1"),
    }
    for k, (label, enc) in enumerate(encryptions.items()):
        seed_urandom(k)
        write(f"enc_{label}.lineitem", lineitem, V2_ZSTD if k % 2 else V1, encryption=enc)
        seed_urandom(100 + k)
        write(f"enc_{label}.nested", nested_table(), encryption=enc)

    masks = [
        (os.path.join(out, "sf_orders.v1.parquet"), "o_orderpriority"),
        (os.path.join(out, "sf_customer.v2zstd.parquet"), "c_name"),
        (os.path.join(out, "nested.v1.parquet"), "dic"),
        (os.path.join(args.sf, "documents.parquet"), "text"),
    ]
    for k, (src, col) in enumerate(masks):
        dst = os.path.join(out, f"mask{k}.{col}.parquet")
        rewrite.mask_parquet_raw(src, dst, [col])
        written.append(dst)

    raw = write("raw_src", bt.drop_columns(["f64", "f16nan"]), RAW_SRC, row_group_size=300)
    rewrites = {
        "prune": lambda dst: rewrite.prune_parquet_raw(raw, dst, ["u64", "long"]),
        "merge": lambda dst: rewrite.merge_parquet_raw([raw, raw], dst),
        "rename": lambda dst: rewrite.rename_parquet_raw(raw, dst, {"u32": "u", "nint": "n"}),
        "zstd": lambda dst: rewrite.transcompress_parquet_raw(raw, dst, "zstd"),
        "zstd_none": lambda dst: rewrite.transcompress_parquet_raw(
            os.path.join(out, "raw_zstd.parquet"), dst, None),
    }
    for name, run in rewrites.items():
        written.append(run(os.path.join(out, f"raw_{name}.parquet")))

    for path in written:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        print(f"{digest}  {os.path.basename(path)}")
    container_lines(sources, os.path.join(out, "container"))
    container_lines(sources, os.path.join(out, "container_zstd"), CONTAINER_ZSTD)
    keys = {n for src in sources for n in pq.read_schema(src).names if n.endswith(("key", "_id"))}
    container_lines(sources, os.path.join(out, "container_bloom"), EncodeConfig(bloom_columns=keys))
    blob, manifest = blocks.encode_block(bt, BOUNDS)
    print(f"{sha(blob)}  container_bounds/bounds.renc")
    print(f"{sha(json.dumps(manifest, sort_keys=True).encode())}  container_bounds/bounds.manifest.json")
    pruning_lines(os.path.join(out, "bounds.v1.parquet"), blob, manifest)
    container_lines(sources, os.path.join(out, "container_pages"), CONTAINER_PAGES)
    blob, manifest = blocks.encode_block(bounds_table(1500), CONTAINER_PAGES)
    print(f"{sha(blob)}  container_pages/bounds.renc")
    print(f"{sha(json.dumps(manifest, sort_keys=True).encode())}  container_pages/bounds.manifest.json")
    tokens = os.path.join(out, "container_tokens.parquet")
    pq.write_table(data.make_table(4000), tokens, row_group_size=4000 // 32)
    md = pq.ParquetFile(tokens).metadata
    raw = sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    container_lines([tokens], os.path.join(out, "container_tokens"), CONTAINER_TOKENS, -(-raw // 4))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def container_lines(
    sources: list, out: str, config: EncodeConfig = V1, target: int = CONTAINER_TARGET
) -> None:
    """A container section (named after ``out``): plan each table into
    blocks of ``target`` raw bytes and encode them in-process with
    ``config``."""
    section = os.path.basename(out)
    for src in sources:
        stem = os.path.basename(src)[: -len(".parquet")]
        descs = pipeline.plan_partitions([src], target)
        plan = [dict(d, path=os.path.basename(d["path"])) for d in descs]
        print(f"{sha(json.dumps(plan, sort_keys=True).encode())}  {section}/{stem}.plan")
        cdir = os.path.join(out, stem)
        worker = pipeline.EncodeWorker(cdir, config)
        for d in descs:
            worker.encode_one(d)
        for name in sorted(os.listdir(cdir)):
            with open(os.path.join(cdir, name), "rb") as fh:
                data = fh.read()
            if name.endswith(".manifest.json"):
                manifest = json.loads(data)
                del manifest["timings"], manifest["lineage"]["path"]
                data = json.dumps(manifest, sort_keys=True).encode()
            print(f"{sha(data)}  {section}/{stem}/{name}")


def pruning_lines(path: str, blob, manifest: dict) -> None:
    """The ``pruning`` section: every ``predicate.row_ranges`` result of a
    filtered read of ``path`` and of the container block, per predicate."""
    calls = []
    real = predicate.row_ranges

    def recorded(tree, nrows, leaf_ranges):
        iv = real(tree, nrows, leaf_ranges)
        calls.append([list(r) for r in iv])
        return iv

    readers = {
        "parquet": lambda pred: parquet_read_enc.read_table_filtered(path, pred),
        "container": lambda pred: blocks.decode_block(blob, manifest, predicate=pred),
    }
    predicate.row_ranges = recorded
    try:
        for col, (inside, outside) in PRUNING_COLUMNS.items():
            for op in PRUNING_OPS:
                value = {"in": (inside, outside), "not_in": (inside,)}.get(op, inside)
                if op in ("is_null", "not_null"):
                    value = None
                for name, read in readers.items():
                    calls.clear()
                    try:
                        rows = read([(col, op, value)]).num_rows
                    except Exception as exc:  # a reader fault is a line too
                        rows = type(exc).__name__
                    print(f"{json.dumps(calls)} rows={rows}  pruning/{name}/{col} {op}")
    finally:
        predicate.row_ranges = real


if __name__ == "__main__":
    main()
