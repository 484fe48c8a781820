"""Ray Data encode / decode / verify pipelines with checkpoint-resume.

The engine's job lifecycle (SURVEY.md §3.3 "our lifecycle"):

    plan_partitions(parquet paths)        deterministic (file, row-group,
                                          row-range) descriptors
    -> _launch(descriptors, task)         one Ray task per descriptor
                                          (from_items + map_batches,
                                          batch_size=1); each reads its
                                          fragment, encodes one block and
                                          commits it with _write_partition
    -> summary Dataset (tiny)             per-partition metrics

Every job is built from the same three pieces: the footer planner
(``plan_partitions``, ``_per_file``), the launcher (``_launch``: one item
per task, one concurrency policy) and the partition writer
(``_write_partition``: blob, then manifest, each an atomic rename).

Parallelism comes from Ray Data's streaming executor — the reference has no
distributed runtime of its own and leans on Hadoop/Spark tasks
(`ParquetInputFormat.java:342-390`); our unit of work mirrors its row-group
split. Checkpointing: a partition is complete iff its manifest file exists
and references an existing blob; `plan_partitions` + the `resume` filter skip
completed work, which is what a re-submitted `ray job submit` run does.

Determinism: encode is a pure function of (fragment bytes, config), so Ray
task retries and resumed runs produce byte-identical blobs (required for the
resume-equality tests; mirrors the determinism note in SURVEY.md §4.2).
"""

from __future__ import annotations

import json
import os
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from . import blocks, parquet_compat
from . import predicate as P
from .parquet_read_enc import _open_cached, read_table_filtered
from .selector import EncodeConfig

DEFAULT_TARGET_BLOCK_BYTES = 64 << 20  # raw bytes per encode partition


# ------------------------------------------------------------------ planning


def default_staging_dir(staging_dir: str | None, prefix: str) -> str:
    """Resolve a staging directory, refusing the node-local /tmp default on
    a multi-node cluster — a path only one node can see would silently
    stage a fraction of the data. Pass a shared-filesystem path instead."""
    if staging_dir is not None:
        return staging_dir
    import tempfile

    alive = [n for n in ray.nodes() if n.get("Alive", False)]
    if len(alive) > 1:
        raise ValueError(
            f"{len(alive)} alive nodes but no staging_dir given: the "
            "node-local /tmp default is not visible to other nodes — pass "
            "a shared filesystem path"
        )
    return tempfile.mkdtemp(prefix=prefix, dir="/tmp")


def _per_file(fn, paths: list[str], parallel: bool | None = None) -> list:
    """``[fn(path) for path in paths]``: the footer reads of planning.
    ``parallel`` runs them as Ray tasks — ParquetInputFormat's parallel
    summary reading. Default: on above 64 files (100 TB lakes have
    10^4–10^5 files; serial footer parsing would be minutes of driver
    time). Results keep path order whatever the task completion order."""
    if parallel is None:
        parallel = len(paths) > 64
    if parallel and paths:
        remote = ray.remote(num_cpus=0.25)(fn)
        return ray.get([remote.remote(p) for p in paths])
    return [fn(p) for p in paths]


def _plan_file(path: str, target_block_bytes: int, decryption=None) -> list[dict]:
    """Partition descriptors for ONE file, from its footer's RowGroup
    structs (field 2 total_byte_size, field 3 num_rows). rayenc's footer
    parser reads them, so modular-encrypted files plan like plaintext."""
    descs: list[dict] = []
    cur_rgs: list[int] = []
    cur_bytes = 0
    for rg, rg_meta in enumerate(_open_cached(path, decryption).row_groups):
        rg_bytes, rows = rg_meta[2], rg_meta[3]
        if rg_bytes > target_block_bytes * 2 and rows > 1:
            if cur_rgs:
                descs.append({"path": path, "row_groups": cur_rgs})
                cur_rgs, cur_bytes = [], 0
            # split one giant row group into row ranges
            nsplit = int(np.ceil(rg_bytes / target_block_bytes))
            step = (rows + nsplit - 1) // nsplit
            for s in range(0, rows, step):
                descs.append(
                    {
                        "path": path,
                        "row_groups": [rg],
                        "row_start": s,
                        "row_count": min(step, rows - s),
                    }
                )
            continue
        if cur_bytes + rg_bytes > target_block_bytes and cur_rgs:
            descs.append({"path": path, "row_groups": cur_rgs})
            cur_rgs, cur_bytes = [], 0
        cur_rgs.append(rg)
        cur_bytes += rg_bytes
    if cur_rgs:
        descs.append({"path": path, "row_groups": cur_rgs})
    return descs


def plan_partitions(
    paths: list[str] | str,
    target_block_bytes: int = DEFAULT_TARGET_BLOCK_BYTES,
    parallel: bool | None = None,
    decryption=None,
) -> list[dict]:
    """Deterministic partition descriptors from parquet row groups.

    One partition = one or more consecutive row groups of one file (small row
    groups coalesce up to the target), or a row-range slice of one row group
    (giant row groups split). Partition ids are stable across runs.

    ``parallel``: read footers with Ray tasks (see ``_per_file``).
    ``decryption`` (a parquet_crypto.FileDecryption) opens
    modular-encrypted footers. Determinism is unchanged — descriptors are
    ordered by sorted path regardless of task completion order."""
    if isinstance(paths, str):
        paths = [paths]

    def plan(path: str) -> list[dict]:
        return _plan_file(path, target_block_bytes, decryption)

    per_file = _per_file(plan, sorted(paths), parallel)
    descs = [d for file_descs in per_file for d in file_descs]
    for pid, d in enumerate(descs):
        d["pid"] = pid
    return descs


def _pending(descs: list[dict], done) -> list[dict]:
    """The descriptors for which ``done(desc)`` is false, each with
    ``row_start`` / ``row_count`` (-1 for whole row groups) so every
    ``from_items`` row has the same keys."""
    todo = [d for d in descs if not done(d)]
    for d in todo:
        d.setdefault("row_start", -1)
        d.setdefault("row_count", -1)
    return todo


def _check_columns(requested, known, where: str) -> None:
    """Fail at plan time on unknown columns — not from deep inside a Ray
    task after work has launched."""
    missing = set(requested or ()) - set(known)
    if missing:
        raise ValueError(
            f"column(s) {sorted(missing)} not in {where} schema {sorted(known)}"
        )


def _read_fragment(desc: dict, columns=None, decryption=None) -> pa.Table:
    path, rgs = desc["path"], [int(r) for r in desc["row_groups"]]
    # pyarrow cannot open a PARE footer without a KMS factory
    f = (pq.ParquetFile(path, memory_map=True) if decryption is None
         else _open_cached(path, decryption))
    schema = None
    if desc.get("align_schema"):
        # evolved-schema ingestion (encode_evolved_job): read only the
        # union columns this file has, widen/null-fill to the union after
        schema = pa.ipc.read_schema(pa.py_buffer(bytes(desc["align_schema"])))
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        have = (f.schema_arrow if decryption is None else f.arrow_schema()).names
        columns = [c for c in schema.names if c in have]
    if decryption is None:
        table = f.read_row_groups(rgs, columns=columns, use_threads=False)
    else:
        table = read_table_filtered(
            path, None, columns=columns, decryption=decryption, row_groups=rgs
        )
    if int(desc.get("row_start", -1)) >= 0:
        table = table.slice(int(desc["row_start"]), int(desc["row_count"]))
    if schema is not None:
        table = parquet_compat.align_table(table, schema)
    return table


# ------------------------------------------------------------------- launcher


def _cluster_cpus(default: int) -> int:
    """The cluster's CPU count (``default`` before any node reports)."""
    return int(ray.cluster_resources().get("CPU", default))


def _launch(items: list[dict], task, concurrency=None) -> "ray.data.Dataset":
    """Run ``task(item)`` once per item, one item per 1-CPU Ray task.

    ``task`` returns a summary row (a dict of scalars), an Arrow table or
    None; empty tables and None emit nothing. Tasks, not an actor pool: Ray
    reuses worker processes across tasks and jobs, so heaps warmed once
    stay warm (BASELINE.md). ``concurrency=None`` caps the tasks in flight
    at min(12, cluster CPUs): BASELINE.md measured that more than 12
    concurrently-faulting encode workers saturate the hypervisor page-fault
    path while memory bandwidth flattens; each node of a real cluster
    brings its own memory, so the cap is per node. An int is also capped
    at the item count; a tuple goes to Ray as is."""
    ds = ray.data.from_items(items)  # starts Ray if no session is up
    if not items:
        return ds
    if concurrency is None:
        concurrency = min(12, max(1, _cluster_cpus(4)))
    if isinstance(concurrency, int):
        concurrency = min(concurrency, len(items))
    return ds.map_batches(
        _run_task, fn_kwargs={"task": task}, batch_size=1,
        concurrency=concurrency, num_cpus=1,
    )


def _run_task(batch: dict, *, task):
    from .memtune import tune_process_memory

    tune_process_memory()
    out = task({key: _unbox(col[0]) for key, col in batch.items()})
    if isinstance(out, dict):
        yield {key: np.array([v]) for key, v in out.items()}
    elif out is not None and out.num_rows:
        yield out


def _unbox(v):
    return v.item() if hasattr(v, "item") and not isinstance(v, (list, np.ndarray)) else v


def _atomic_write(path: str, data: bytes) -> None:
    # the first write of a job creates its output directory (also when a
    # user deleted it since the job was planned)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def _write_partition(out_dir: str, stem: str, blob: bytes, manifest: dict) -> None:
    """Commit one container partition: ``{stem}.renc``, then
    ``{stem}.manifest.json`` naming it, each through ``_atomic_write``.
    The manifest is the commit record (``completed_pids``), so a task
    killed between the two writes leaves a partition that resume redoes —
    ParquetOutputCommitter's commit as one atomic put per object."""
    manifest["blob"] = f"{stem}.renc"
    _atomic_write(os.path.join(out_dir, manifest["blob"]), blob)
    _atomic_write(
        os.path.join(out_dir, f"{stem}.manifest.json"), json.dumps(manifest).encode()
    )


def _write_parquet(table: pa.Table, final: str, config, encryption) -> int:
    """Write one Parquet output file through a temporary name and an
    atomic rename; returns its size."""
    from . import parquet_write

    tmp = f"{final}.tmp-{uuid.uuid4().hex[:8]}"
    parquet_write.write_table(table, tmp, config, encryption=encryption)
    os.replace(tmp, final)
    return os.path.getsize(final)


def _manifests(out_dir: str) -> list[str]:
    return sorted(n for n in os.listdir(out_dir) if n.endswith(".manifest.json"))


# parsed manifests kept per process (``_read_manifest``); the cache starts
# afresh when it holds this many
MANIFEST_CACHE_SIZE = 256
_MANIFEST_CACHE: dict = {}


def _read_manifest(path: str) -> dict:
    """The parsed manifest at ``path``, parsed once per process while the
    file keeps its identity (inode, size, mtime): a DecodeWorker reads
    every manifest at every read, and Ray reuses worker processes across
    tasks. An ``os.replace``-rewritten partition has a new inode and is
    parsed anew; a rewrite in place that keeps the size within one mtime
    tick is not seen, as with ``parquet_read_enc._open_cached``. A manifest
    that fails to parse is not kept. The dict is shared: callers must not
    change it."""
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        key = (path, st.st_ino, st.st_size, st.st_mtime_ns)
        manifest = _MANIFEST_CACHE.get(key)
        if manifest is None:
            manifest = json.loads(f.read())
            if len(_MANIFEST_CACHE) >= MANIFEST_CACHE_SIZE:
                _MANIFEST_CACHE.clear()
            _MANIFEST_CACHE[key] = manifest
    return manifest


def _load_partition(out_dir: str, name: str) -> tuple[dict, bytes]:
    """The manifest ``name`` of a container and the blob it names."""
    with open(os.path.join(out_dir, name), "rb") as f:
        manifest = json.loads(f.read())
    with open(os.path.join(out_dir, manifest["blob"]), "rb") as f:
        return manifest, f.read()


# ------------------------------------------------------------------- workers


class EncodeWorker:
    """Reads a fragment, encodes it, commits blob + manifest with
    ``_write_partition`` and returns a summary row (SURVEY.md §7.2)."""

    def __init__(self, out_dir: str, config: EncodeConfig | None = None, columns=None,
                 decryption=None):
        self.out_dir = out_dir
        self.config = config or EncodeConfig()
        self.columns = columns
        self.decryption = decryption

    def encode_one(self, desc: dict) -> dict:
        pid = int(desc["pid"])
        t0 = time.perf_counter()
        table = _read_fragment(desc, self.columns, self.decryption)
        t_read = time.perf_counter() - t0
        t0 = time.perf_counter()
        blob, manifest = blocks.encode_block(table, self.config)
        t_enc = time.perf_counter() - t0
        manifest["lineage"] = {
            "path": desc["path"],
            "row_groups": [int(r) for r in desc["row_groups"]],
            "row_start": int(desc.get("row_start", -1)),
            "row_count": int(desc.get("row_count", -1)),
        }
        manifest["pid"] = pid
        manifest["timings"] = {"read_s": t_read, "encode_s": t_enc}
        _write_partition(self.out_dir, f"part-{pid:06d}", blob, manifest)
        return {
            "pid": pid,
            "rows": table.num_rows,
            "raw_bytes": manifest["raw_bytes"],
            "blob_bytes": len(blob),
            "read_s": t_read,
            "encode_s": t_enc,
        }


class DecodeWorker:
    """Streams container partitions back as Arrow tables, with read-side
    pruning: ``columns`` decodes only the needed chunks, ``predicate`` both
    skips whole partitions via manifest min/max statistics and blooms (the
    row-group skipping of `filter2/compat`) and is handed to
    ``blocks.decode_block``, whose two-phase read returns exactly the
    matching rows and decodes only the pages that hold them (the
    column-index skipping of `internal/filter2/columnindex`)."""

    def __init__(self, out_dir: str, columns=None, predicate=None,
                 dictionary_strings: bool = False,
                 bad_block_threshold: float | None = None,
                 total_partitions: int | None = None):
        self.out_dir = out_dir
        self.columns = list(columns) if columns else None
        # legacy conjunction list OR an And/Or/Not tree (filter2 algebra)
        self.pred = P.normalize(predicate)
        self.dictionary_strings = dictionary_strings
        # error-tolerant reads (UnmaterializableRecordCounter /
        # parquet.read.bad.record.threshold, per worker like the
        # reference's per-split counter): None = raise on the first bad
        # partition; a fraction in [0,1] tolerates that share of the
        # partitions THIS worker has seen, then raises. Only the data can
        # be bad: a predicate that cannot be evaluated always raises
        self.bad_block_threshold = bad_block_threshold
        # denominator: the job's partition count (the reference's counter
        # divides by the split's total record count, known up front)
        self.total_partitions = total_partitions
        self._seen = 0
        self._bad = 0

    def _skip_by_stats(self, manifest: dict) -> bool:
        """True when the manifest's chunk statistics and blooms prove that
        no row of the partition matches ``self.pred``."""
        if self.pred is None:
            return False
        return not P.may_match(self.pred, blocks.partition_granules(manifest))

    def __call__(self, batch: dict):
        for name in batch["manifest"]:
            table = self.decode_one(str(name))
            if table is not None:
                yield table

    def decode_one(self, name: str) -> "pa.Table | None":
        """The matching rows of partition ``name``; None when statistics
        prune it, no row matches, or it is unreadable and tolerated."""
        self._seen += 1
        try:
            manifest = _read_manifest(os.path.join(self.out_dir, name))
            if self._skip_by_stats(manifest):
                return None
            with open(os.path.join(self.out_dir, manifest["blob"]), "rb") as f:
                blob = f.read()
            table = blocks.decode_block(
                blob, manifest, columns=self.columns, predicate=self.pred,
                dictionary_strings=self.dictionary_strings,
            )
        except P.PredicateError:
            raise  # a fault of the query, not of this partition
        except Exception as exc:
            # UnmaterializableRecordCounter semantics
            # (hadoop/UnmaterializableRecordCounter.java): tolerate up
            # to bad_block_threshold of this worker's partitions, then
            # fail the task
            self._bad += 1
            if self.bad_block_threshold is None:
                raise
            denom = self.total_partitions or self._seen
            if self._bad > self.bad_block_threshold * denom:
                raise RuntimeError(
                    f"bad partition rate {self._bad}/{denom} exceeds "
                    f"threshold {self.bad_block_threshold}: {name}: {exc!r}"
                ) from exc
            import logging

            logging.getLogger(__name__).warning(
                "skipping unreadable partition %s: %r", name, exc
            )
            return None
        return table if table.num_rows else None


_WORKER_CACHE: dict = {}


def _decode_worker(*args) -> DecodeWorker:
    """This process's DecodeWorker for ``args``: Ray reuses worker
    processes across tasks, and a worker's bad-partition count spans every
    task it runs."""
    key = repr(args)
    w = _WORKER_CACHE.get(key)
    if w is None:
        w = _WORKER_CACHE[key] = DecodeWorker(*args)
    return w


# ---------------------------------------------------------------------- jobs


def completed_pids(out_dir: str) -> set[int]:
    """Partitions whose manifest exists and references an existing blob."""
    done = set()
    if not os.path.isdir(out_dir):
        return done
    for name in _manifests(out_dir):
        try:
            manifest = json.loads(open(os.path.join(out_dir, name), "rb").read())
        except (json.JSONDecodeError, OSError):
            continue
        if os.path.exists(os.path.join(out_dir, manifest["blob"])):
            done.add(int(manifest["pid"]))
    return done


def encode_job(
    paths: list[str] | str,
    out_dir: str,
    config: EncodeConfig | None = None,
    *,
    columns=None,
    resume: bool = True,
    concurrency: int | tuple | None = None,
    target_block_bytes: int = DEFAULT_TARGET_BLOCK_BYTES,
    align_schema: "pa.Schema | None" = None,
    decryption=None,
) -> "ray.data.Dataset":
    """Encode parquet files into the renc container. Returns the summary
    Dataset (one small row per partition) — consuming it drives the job.

    ``align_schema``: union schema for evolved inputs (see
    encode_evolved_job) — every fragment aligns to it before encoding.
    ``decryption`` (a parquet_crypto.FileDecryption): the inputs are
    modular-encrypted — the data-lake ingestion path where sources carry
    AES-GCM encryption. They plan from rayenc's footer parser and read
    through ``read_table_filtered``; the keys travel inside the task and
    are never written to a manifest.

    Encode state is per chunk (dictionary / FSST symbol tables live for one
    partition, the ``toDictPageAndClose`` scope), so each partition is one
    independent task."""
    descs = plan_partitions(paths, target_block_bytes, decryption=decryption)
    if align_schema is not None:
        blob = align_schema.serialize().to_pybytes()
        for d in descs:
            d["align_schema"] = blob
    done = completed_pids(out_dir) if resume else set()
    descs = _pending(descs, lambda d: d["pid"] in done)
    worker = EncodeWorker(out_dir, config, columns, decryption)
    return _launch(descs, worker.encode_one, concurrency)


def encode_dataset_job(
    ds: "ray.data.Dataset",
    out_dir: str,
    config: EncodeConfig | None = None,
    staging_dir: str | None = None,
    min_rows_per_file: int | None = None,
    **encode_kwargs,
) -> "ray.data.Dataset":
    """Encode an arbitrary Ray Dataset (not just parquet paths): the dataset
    is staged as parquet once (write_parquet — on a multi-node cluster pass a
    shared ``staging_dir``), then encoded through the deterministic
    partitioned job so resume/lineage semantics hold. The staging cost is one
    extra sequential write; sources that are already parquet should call
    ``encode_job`` directly."""
    staging = default_staging_dir(staging_dir, "rayenc-stage-")
    # sources that arrive as many tiny blocks (read_json on small files)
    # would otherwise stage one micro parquet file per block
    wkw = {"min_rows_per_file": min_rows_per_file} if min_rows_per_file else {}
    ds.write_parquet(staging, **wkw)
    paths = [
        os.path.join(staging, f)
        for f in sorted(os.listdir(staging))
        if f.endswith(".parquet")
    ]
    return encode_job(paths, out_dir, config=config, **encode_kwargs)


def ingest_jsonl_job(
    paths: list[str] | str,
    out_dir: str,
    config: EncodeConfig | None = None,
    columns: "list[str] | None" = None,
    staging_dir: str | None = None,
    min_rows_per_file: int | None = 100_000,
    **encode_kwargs,
) -> "ray.data.Dataset":
    """JSONL / JSON-lines corpus -> renc container: the ingestion shape web
    crawls actually arrive in (one JSON document per line, e.g.
    {"doc_id": ..., "text": ..., "source": ...}). ray.data.read_json
    streams the lines as Arrow blocks; ``columns`` prunes to the needed
    fields before staging; the rest is encode_dataset_job (stage as parquet
    once, then the deterministic resumable encode)."""
    if isinstance(paths, str):
        paths = [paths]
    if not paths:
        return ray.data.from_items([])
    ds = ray.data.read_json(paths)
    if columns is not None:
        ds = ds.select_columns(columns)
    return encode_dataset_job(
        ds, out_dir, config=config, staging_dir=staging_dir,
        min_rows_per_file=min_rows_per_file, **encode_kwargs
    )


def transcode_parquet_job(
    paths: list[str] | str,
    out_dir: str,
    config: EncodeConfig | None = None,
    *,
    resume: bool = True,
    concurrency=None,
    target_block_bytes: int = DEFAULT_TARGET_BLOCK_BYTES,
    encryption=None,
) -> "ray.data.Dataset":
    """Distributed parquet -> parquet re-encode using rayenc encoders: each
    partition becomes one parquet file written by rayenc.parquet_write (the
    reference's whole job — ParquetWriter at cluster scale). Output files are
    readable by any parquet reader; completed partitions are skipped on
    re-submit (presence of the final file marks completion — writes are
    atomic via rename). ``encryption`` (a parquet_crypto.FileEncryption)
    writes every output file modular-encrypted — the cluster-scale analog of
    ParquetRewriter re-encryption."""
    os.makedirs(out_dir, exist_ok=True)

    def final(pid: int) -> str:
        return os.path.join(out_dir, f"part-{pid:06d}.parquet")

    descs = _pending(
        plan_partitions(paths, target_block_bytes),
        lambda d: resume and os.path.exists(final(d["pid"])),
    )

    def transcode(desc: dict) -> dict:
        t0 = time.perf_counter()
        table = _read_fragment(desc)
        out_bytes = _write_parquet(table, final(desc["pid"]), config, encryption)
        return {"pid": desc["pid"], "rows": table.num_rows, "out_bytes": out_bytes,
                "seconds": time.perf_counter() - t0}

    return _launch(descs, transcode, concurrency)


def _grouped_value_bytes(batch: pa.Table) -> np.ndarray:
    """Per-row encoded-payload estimate used for block budgeting (tokens
    dominate the tokenized table; 64 B/row otherwise)."""
    if "tokens" in batch.column_names:
        lens = pa.compute.list_value_length(batch.column("tokens")).to_numpy(
            zero_copy_only=False
        )
        return lens.astype(np.int64) * 4
    return np.full(batch.num_rows, 64, np.int64)


def encode_grouped_job(
    paths: list[str] | str,
    out_dir: str,
    key: str = "source",
    config: EncodeConfig | None = None,
    salt_col: str | None = "doc_id",
    max_block_rows: int = 100_000,
    max_block_value_bytes: int = DEFAULT_TARGET_BLOCK_BYTES,
    concurrency=None,
) -> "ray.data.Dataset":
    """Encode with key co-location: rows are bucketed by ``key`` so each
    partition holds rows of one source (dictionary/FSST tables stay coherent
    per source — SURVEY.md §7.3).

    Skew is handled BEFORE the shuffle: a cheap pre-aggregation (per-batch
    partial sizes -> one tiny groupby) measures each key's payload, each key
    gets ceil(bytes / block_budget) sub-buckets, and rows salt into them by
    ``salt_col`` hash. No task ever materializes more than ~one block budget
    of rows — a giant source becomes many bounded groups instead of one
    straggler materializing a fixed fraction of the corpus.

    This is the one encode path with a shuffle; the pre-aggregation ships one
    row per (batch, key), then only the groupby exchange moves rows, once."""
    if isinstance(paths, str):
        paths = [paths]
    if not paths:
        return ray.data.from_items([])
    os.makedirs(out_dir, exist_ok=True)
    config = config or EncodeConfig()

    def _fill_key_nulls(colk):
        """Null key values break Ray Data's groupby sort (None vs str
        compare) — both passes normalize them to the same sentinel so null
        rows co-locate as one ordinary group."""
        if colk.null_count:
            import pyarrow.compute as _pc

            sentinel = (
                "\x00<null>"
                if pa.types.is_string(colk.type)
                or pa.types.is_large_string(colk.type)
                else -(1 << 62)
            )
            return _pc.fill_null(colk, sentinel)
        return colk

    # pass 1: per-key payload sizes (partial aggregate inside map_batches,
    # then a tiny shuffle of one row per key per batch)
    def partial_sizes(batch: pa.Table) -> pa.Table:
        vb = _grouped_value_bytes(batch)
        t = pa.table(
            {key: _fill_key_nulls(batch.column(key)), "vbytes": pa.array(vb)}
        )
        agg = t.group_by([key]).aggregate([("vbytes", "sum")])
        return agg.rename_columns([key, "vbytes"])

    src_ds = ray.data.read_parquet(paths)
    sizes = (
        src_ds.map_batches(partial_sizes, batch_format="pyarrow")
        .groupby(key)
        .sum("vbytes")
        .to_pandas()
    )
    vb_col = [c for c in sizes.columns if c != key][0]
    keys_sorted = sizes.sort_values(key).reset_index(drop=True)
    nblk = np.maximum(
        1, np.ceil(keys_sorted[vb_col].to_numpy() / max_block_value_bytes)
    ).astype(np.int64)
    base = np.zeros(len(nblk), np.int64)
    np.cumsum(nblk[:-1], out=base[1:])
    plan = {
        k: (int(b), int(nb))
        for k, b, nb in zip(keys_sorted[key], base, nblk)
    }
    plan_ref = ray.put(plan)

    def add_bucket(batch: pa.Table) -> pa.Table:
        from .ops.dedup import hash_strings

        p = ray.get(plan_ref)
        # same sentinel normalization as pass 1, so null keys find their
        # planned buckets (np.unique also cannot sort None-mixed arrays)
        kv = _fill_key_nulls(batch.column(key)).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(kv, return_inverse=True)
        # keys absent from the pass-1 plan (e.g. null key values, which
        # np.unique folds to a sentinel the census never saw) fall back to
        # bucket 0 rather than failing the job
        bases = np.array([p.get(u, (0, 1))[0] for u in uniq], np.int64)[inv]
        nb = np.array([p.get(u, (0, 1))[1] for u in uniq], np.int64)[inv]
        if salt_col and salt_col in batch.column_names:
            salt_arr = batch.column(salt_col)
            if not pa.types.is_string(salt_arr.type) and not pa.types.is_large_string(
                salt_arr.type
            ):
                salt_arr = salt_arr.cast(pa.large_string())
            salt = hash_strings(salt_arr).astype(np.int64) & 0x7FFFFFFF
        else:
            salt = np.arange(batch.num_rows, dtype=np.int64)
        return batch.append_column(
            "__bucket", pa.array(bases + (salt % np.maximum(nb, 1)))
        )

    def encode_bucket(group: pa.Table) -> pa.Table:
        group = group.sort_by([(key, "ascending")])
        bucket = int(group.column("__bucket")[0].as_py())
        group = group.drop_columns(["__bucket"])
        # split the bucket into blocks bounded by rows and value bytes (the
        # pre-shuffle sub-bucketing already bounds groups to ~one budget;
        # this is the exact-cut safety net)
        cum = np.cumsum(_grouped_value_bytes(group))
        out_rows = []
        start = 0
        seq = 0
        while start < group.num_rows:
            base = cum[start - 1] if start else 0
            hi = int(np.searchsorted(cum, base + max_block_value_bytes, "right"))
            end = max(start + 1, min(hi, start + max_block_rows, group.num_rows))
            block = group.slice(start, end - start)
            blob, manifest = blocks.encode_block(block, config)
            manifest["pid"] = bucket * 10_000 + seq
            manifest["lineage"] = {"bucket": bucket, "seq": seq, "key": key}
            _write_partition(out_dir, f"bucket-{bucket:04d}-{seq:04d}", blob, manifest)
            vb = int(cum[end - 1] - (cum[start - 1] if start else 0))
            out_rows.append((bucket, seq, block.num_rows, len(blob), vb))
            start = end
            seq += 1
        return pa.table(
            {
                "bucket": pa.array([r[0] for r in out_rows], pa.int64()),
                "seq": pa.array([r[1] for r in out_rows], pa.int64()),
                "rows": pa.array([r[2] for r in out_rows], pa.int64()),
                "blob_bytes": pa.array([r[3] for r in out_rows], pa.int64()),
                "value_bytes": pa.array([r[4] for r in out_rows], pa.int64()),
            }
        )

    return (
        src_ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(encode_bucket, batch_format="pyarrow")
    )


def export_parquet_job(
    container_dir: str,
    out_dir: str,
    config: EncodeConfig | None = None,
    *,
    resume: bool = True,
    concurrency=None,
    encryption=None,
) -> "ray.data.Dataset":
    """Distributed container -> parquet export: each renc partition decodes
    and re-writes as one standard parquet file through rayenc.parquet_write
    (the inverse of transcode_parquet_job; completes the
    parquet -> container -> parquet lifecycle). Completed partitions are
    skipped on re-submit."""
    os.makedirs(out_dir, exist_ok=True)

    def final(name: str) -> str:
        return os.path.join(out_dir, name.replace(".manifest.json", ".parquet"))

    manifests = [
        m for m in _manifests(container_dir) if not (resume and os.path.exists(final(m)))
    ]

    def export(item: dict) -> dict:
        name = item["manifest"]
        manifest, blob = _load_partition(container_dir, name)
        table = blocks.decode_block(blob, manifest)
        out_bytes = _write_parquet(table, final(name), config, encryption)
        return {"manifest": name, "rows": table.num_rows, "out_bytes": out_bytes}

    return _launch([{"manifest": m} for m in manifests], export, concurrency)


def decode_dataset(
    out_dir: str, concurrency=None, columns=None, predicate=None,
    dictionary_strings: bool = False, bad_block_threshold: float | None = None,
) -> "ray.data.Dataset":
    """Stream the encoded container back as a Dataset of Arrow blocks.

    columns: decode only these top-level columns (chunk-level pruning).
    predicate: anything ``predicate.normalize`` accepts (a
    ``[(col, op, value), ...]`` conjunction list or an And/Or/Not tree).
    Partitions whose manifest statistics and blooms exclude it are skipped
    without reading the blob; ``blocks.decode_block`` reads the rest in two
    phases — the predicate's columns over the pages their min/max keep,
    then only the pages that hold the matching rows — and returns exactly
    the matching rows.
    dictionary_strings: keep RLE_DICTIONARY flat string columns as Arrow
    DictionaryArray (ids + NDV-sized dictionary) instead of materializing —
    low-NDV columns stay small in the object store and predicates evaluate
    over the dictionary once (predicate.leaf_mask dictionary path).
    bad_block_threshold: error tolerance for 100 TB reads over imperfect
    storage (UnmaterializableRecordCounter / the reference's
    parquet.read.bad.record.threshold, counted per worker like its
    per-split counter) — None fails fast on the first unreadable
    partition; a fraction skips unreadable partitions (with a warning)
    until their share of a worker's partitions exceeds it."""
    manifests = _manifests(out_dir)
    if (predicate is not None or columns is not None) and manifests:
        requested = P.columns(P.normalize(predicate)) if predicate else set()
        requested |= set(columns or ())
        # merged containers may carry differing per-part schemas: a column
        # absent from the first manifest can exist in later parts, so the
        # remaining manifests are read only while something looks missing
        # (the common homogeneous case stays one driver read)
        known: set = set()
        for m in manifests:
            with open(os.path.join(out_dir, m)) as f:
                chunk_names = {c["name"] for c in json.load(f)["chunks"]}
            # nested columns shred to "name#..." chunks; the decoded table
            # exposes the top-level name
            known |= chunk_names | {n.split("#", 1)[0] for n in chunk_names}
            if requested <= known:
                break
        _check_columns(requested, known, "container")
    args = (out_dir, columns, predicate, dictionary_strings, bad_block_threshold,
            len(manifests))
    return _launch(
        [{"manifest": m} for m in manifests],
        lambda item: _decode_worker(*args).decode_one(item["manifest"]),
        concurrency,
    )


def verify_roundtrip(paths: list[str] | str, out_dir: str, key: str | None = None) -> dict:
    """Order-insensitive equality between the input parquet and the decoded
    container output. Small-data verification helper (drives both pipelines)."""
    decoded = decode_dataset(out_dir).to_arrow_refs()
    got = pa.concat_tables([ray.get(r) for r in decoded])
    if isinstance(paths, str):
        paths = [paths]
    want = pa.concat_tables([pq.read_table(p) for p in sorted(paths)])
    if key is not None:
        got = got.sort_by(key)
        want = want.sort_by(key)
    return {
        "rows_match": got.num_rows == want.num_rows,
        "equal": got.equals(want),
        "rows": got.num_rows,
    }


def merge_containers(in_dirs: list[str], out_dir: str) -> int:
    """Consolidate several renc containers into one WITHOUT decoding — the
    `ParquetFileWriter.appendFile` analog at container granularity: blobs
    copy verbatim (partitions are self-contained), manifests renumber pids
    and blob names densely in sorted (dir, pid) order. Schemas must match.
    Returns the merged partition count."""
    entries = [(d, n) for d in in_dirs for n in _manifests(d)]
    if not entries:
        raise ValueError("no partitions to merge")
    schema0 = None
    for pid, (d, n) in enumerate(entries):
        manifest, blob = _load_partition(d, n)
        if schema0 is None:
            schema0 = manifest["schema"]
        elif manifest["schema"] != schema0:
            raise ValueError(
                f"container schema mismatch: {d}/{n} differs from "
                f"{entries[0][0]}"
            )
        manifest["pid"] = pid
        _write_partition(out_dir, f"part-{pid:06d}", blob, manifest)
    return len(entries)


def read_parquet_filtered(
    paths: list[str] | str,
    predicate: list,
    columns: list[str] | None = None,
    decryption=None,
    concurrency: int | tuple | None = None,
) -> "ray.data.Dataset":
    """Distributed predicate-pushdown read of parquet FILES driven by OUR
    index structures: one task per (file, row group) runs
    parquet_read_enc.read_table_filtered — bloom row-group vetoes,
    ColumnIndex page skipping and the two-phase read (predicate columns
    first, then only the pages of matching rows) all happen inside the
    task, so only matching rows enter the object store. Works on plaintext and
    modular-encrypted files (pass parquet_crypto.FileDecryption)."""
    if isinstance(paths, str):
        paths = [paths]
    paths = sorted(paths)

    def row_groups(path: str) -> int:
        f = _open_cached(path, decryption)
        _check_columns(columns, f.arrow_schema().names, path)
        return len(f.row_groups)

    descs = [
        {"path": path, "rg": rg}
        for path, n in zip(paths, _per_file(row_groups, paths))
        for rg in range(n)
    ]

    def task(item: dict) -> pa.Table:
        return read_table_filtered(
            item["path"], predicate, columns=columns,
            decryption=decryption, row_groups=[item["rg"]],
        )

    return _launch(descs, task, concurrency)


def read_parquet_summary(
    dir_path: str,
    predicate=None,
    columns: list[str] | None = None,
    decryption=None,
    concurrency: int | tuple | None = None,
) -> "ray.data.Dataset":
    """Distributed read of a dataset directory planned from its
    `_metadata` summary file (ParquetFileWriter.writeMetadataFile /
    ParquetOutputCommitter): row groups are stats-pruned against
    ``predicate`` using ONLY the summary footer — no part footer is
    opened during planning — then each surviving (file, row group) runs
    the full pushdown read (bloom + dictionary + ColumnIndex page
    skipping + the two-phase read of ``read_table_filtered``) inside its
    task.  At lake scale this is one
    small driver read instead of ~len(files) footer fetches."""
    from .summary import METADATA, plan_from_summary

    known = _open_cached(os.path.join(dir_path, METADATA), None).arrow_schema().names
    _check_columns(columns, known, os.path.join(dir_path, METADATA))
    plan = plan_from_summary(dir_path, predicate)
    if predicate is None:
        # whole-file reads: one task per part, no duplication
        descs = [{"path": p, "rg": -1} for p in sorted({p for p, _ in plan})]
    else:
        descs = [{"path": p, "rg": rg} for p, rg in plan]

    def task(item: dict) -> pa.Table:
        return read_table_filtered(
            item["path"], predicate, columns=columns, decryption=decryption,
            row_groups=None if item["rg"] < 0 else [item["rg"]],
        )

    return _launch(descs, task, concurrency)


def read_parquet_evolved(
    paths: list[str],
    strict: bool = True,
    columns: list[str] | None = None,
    predicate=None,
    concurrency: int | tuple | None = None,
) -> "ray.data.Dataset":
    """Distributed merged-footer read of parquet files whose schemas
    evolved (ParquetFileWriter.getGlobalMetaData + MessageType.union):
    the driver unions the footer schemas (footers only — no payload I/O),
    then one task per file reads it with OUR decoders and aligns to the
    broadcast union schema (missing columns -> nulls, strict=False widens
    numerics). Payload bytes never touch the driver; at 100 TB the footer
    scan is O(files) metadata reads and every alignment is a per-task
    arrow cast.

    ``predicate`` (anything predicate.normalize accepts) composes with
    evolution per SQL semantics: files that carry every predicate column
    get the full pushdown read (stats + bloom + dictionary + page
    skipping via read_table_filtered); files that predate a predicate
    column align it to null first, so comparison leaves fail there
    (Kleene null verdicts drop the rows) instead of erroring."""
    paths = sorted(paths)
    tree = P.normalize(predicate)
    uni_full = parquet_compat.union_schemas(
        [_open_cached(p, None).arrow_schema() for p in paths], strict
    )
    _check_columns(columns, uni_full.names, "union")
    uni = uni_full
    if columns is not None:
        uni = pa.schema([uni_full.field(c) for c in columns])
    pred_cols = sorted(P.columns(tree)) if tree is not None else []
    for c in pred_cols:
        if uni_full.get_field_index(c) < 0:
            raise ValueError(f"predicate column {c!r} in no input file")
    ext = pa.schema(
        list(uni)
        + [uni_full.field(c) for c in pred_cols if uni.get_field_index(c) < 0]
    )
    uni_ref = ray.put((uni.serialize().to_pybytes(), ext.serialize().to_pybytes()))

    def task(item: dict) -> pa.Table:
        path = item["path"]
        uni_b, ext_b = ray.get(uni_ref)
        schema = pa.ipc.read_schema(pa.py_buffer(uni_b))
        avail = set(_open_cached(path, None).arrow_schema().names)
        if all(c in avail for c in pred_cols):
            t = read_table_filtered(
                path, tree, columns=[n for n in schema.names if n in avail]
            )
            return parquet_compat.align_table(t, schema)
        ext_schema = pa.ipc.read_schema(pa.py_buffer(ext_b))
        t = parquet_compat.align_table(
            parquet_compat.read_table_conformance(path, columns=ext_schema.names),
            ext_schema,
        )
        return t.filter(P.mask(tree, t)).select(schema.names)

    return _launch([{"path": p} for p in paths], task, concurrency)


def encode_evolved_job(
    paths: "list[str]",
    out_dir: str,
    config: EncodeConfig | None = None,
    strict: bool = False,
    **kw,
) -> "ray.data.Dataset":
    """Ingest schema-EVOLVED parquet files into one uniform renc container:
    the driver unions the footer schemas (MessageType.union /
    getGlobalMetaData; strict=False widens numerics losslessly), stamps
    every partition descriptor with the union, and runs the standard
    encode_job — each task aligns its fragment (missing columns -> nulls,
    widened columns cast) before encoding, so decode_dataset and every
    predicate/projection surface see a single schema with no special
    handling. Resume/lineage semantics are unchanged."""
    if isinstance(paths, str):
        paths = [paths]
    uni = parquet_compat.union_schemas(
        [pq.ParquetFile(p).schema_arrow for p in sorted(paths)], strict
    )
    return encode_job(paths, out_dir, config, align_schema=uni, **kw)
