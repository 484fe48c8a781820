"""Dataset summary files — `_metadata` / `_common_metadata`.

The reference writes these through `ParquetFileWriter.writeMetadataFile` +
`mergeFooters` (ParquetFileWriter.java:2222-2301) from the job committer
(`ParquetOutputCommitter.java`): `_metadata` is one footer holding every
part file's row groups with `ColumnChunk.file_path` set to the part's
relative name; `_common_metadata` is the schema-only footer.  Readers plan
an entire multi-file scan — including row-group predicate pruning — from
ONE footer instead of opening every part footer, which is the difference
between one small read and ~100k footer reads on a lake-scale dataset.

mergeFooters semantics kept: all parts must share one schema
(`GlobalMetaData.merge` throws on mismatch); key-value metadata is merged
with conflicting values dropped (ParquetFileWriter.mergeInto strict=false
behavior).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

METADATA = "_metadata"
COMMON_METADATA = "_common_metadata"
STALENESS_INDEX = "_metadata.index.json"


def part_files(dir_path: str) -> list[str]:
    """Data files of a dataset directory, sorted; `_`-prefixed (summary,
    markers) and hidden files excluded like parquet-mr's hiddenFileFilter."""
    return sorted(
        os.path.join(dir_path, f)
        for f in os.listdir(dir_path)
        if f.endswith(".parquet") and not f.startswith(("_", "."))
    )


def write_summary(dir_path: str, paths: list[str] | None = None) -> str:
    """Write `_metadata` + `_common_metadata` for the part files in
    ``dir_path`` (ParquetFileWriter.writeMetadataFile).  Returns the
    `_metadata` path."""
    paths = paths if paths is not None else part_files(dir_path)
    if not paths:
        raise ValueError(f"no parquet part files under {dir_path}")
    merged = None
    schema = None
    for p in paths:
        md = pq.read_metadata(p)
        if schema is None:
            schema = md.schema.to_arrow_schema()
        elif not md.schema.to_arrow_schema().equals(schema, check_metadata=False):
            # GlobalMetaData.merge: "could not merge metadata: key
            # parquet.schema has conflicting values"
            raise ValueError(
                f"could not merge footers: schema of {p} conflicts with "
                f"{paths[0]}"
            )
        md.set_file_path(os.path.relpath(p, dir_path))
        if merged is None:
            merged = md
        else:
            merged.append_row_groups(md)
    out = os.path.join(dir_path, METADATA)
    merged.write_metadata_file(out)
    pq.write_metadata(schema, os.path.join(dir_path, COMMON_METADATA))
    # staleness sidecar: a summary describes the files AS OF write time; a
    # part rewritten afterwards would be silently mis-pruned (its new values
    # judged by the old min/max). Record (size, mtime_ns) per part so
    # plan_from_summary can detect changed files and replan them from their
    # live footers instead of trusting stale stats.
    import json

    index = {
        os.path.relpath(p, dir_path): {
            "size": os.path.getsize(p),
            "mtime_ns": os.stat(p).st_mtime_ns,
        }
        for p in paths
    }
    with open(os.path.join(dir_path, STALENESS_INDEX), "w") as f:
        json.dump(index, f)
    return out


def read_summary(dir_path: str):
    """Parsed `_metadata` FileMetaData for a dataset directory."""
    return pq.read_metadata(os.path.join(dir_path, METADATA))


def plan_from_summary(
    dir_path: str, predicate=None
) -> list[tuple[str, int]]:
    """(part path, row-group ordinal WITHIN its part) for every row group
    that may match ``predicate``, planned purely from `_metadata` — no part
    footer is opened, except for parts rewritten or added after the summary,
    which are planned from their live footers. Both run the row-group loop
    of the per-file read (``parquet_read_enc.plan_row_groups``); `_metadata`
    chunks point into the parts, so the summary plans on statistics alone."""
    from . import predicate as P
    from .parquet_read_enc import EncryptedFile, _open_cached, plan_row_groups

    md = _open_cached(os.path.join(dir_path, METADATA), None)  # read_parquet_summary opened it
    tree = P.normalize(predicate)

    def live(rel):
        p = os.path.join(dir_path, rel)
        return [(p, g) for g in plan_row_groups(EncryptedFile(p), tree)]

    changed = _changed_parts(dir_path)
    keep = set(plan_row_groups(md, tree))
    out: list[tuple[str, int]] = []
    local_ord: dict[str, int] = {}
    for g, rg in enumerate(md.row_groups):
        fp = rg[1][0].get(1, b"").decode()
        ordn = local_ord[fp] = local_ord.get(fp, -1) + 1
        if fp in changed:
            # the part was rewritten after the summary: its summary stats
            # are stale and pruning on them is silently wrong — replan this
            # file from its LIVE footer
            if ordn == 0:
                out.extend(live(fp))
        elif g in keep:
            out.append((os.path.join(dir_path, fp), ordn))
    # parts ADDED after the summary have no summary row groups at all —
    # the loop above never visits them; plan them live too
    for rel in sorted(changed - set(local_ord)):
        out.extend(live(rel))
    return out


def _changed_parts(dir_path: str) -> set[str]:
    """Part files whose (size, mtime) no longer match the summary's
    staleness sidecar, plus parts ADDED after the summary was written.
    Raises FileNotFoundError for vanished parts. Without a sidecar
    (pre-sidecar summaries) returns an empty set — the legacy
    trust-the-summary behavior."""
    import json

    idx_path = os.path.join(dir_path, STALENESS_INDEX)
    if not os.path.exists(idx_path):
        return set()
    with open(idx_path) as f:
        index = json.load(f)
    changed = set()
    for rel, rec in index.items():
        p = os.path.join(dir_path, rel)
        if not os.path.exists(p):
            raise FileNotFoundError(
                f"part file {rel!r} listed in {METADATA} no longer exists "
                f"under {dir_path}; rewrite the summary (write_summary)"
            )
        st = os.stat(p)
        if st.st_size != rec["size"] or st.st_mtime_ns != rec["mtime_ns"]:
            changed.add(rel)
    for p in part_files(dir_path):
        rel = os.path.relpath(p, dir_path)
        if rel not in index:
            changed.add(rel)  # new part: the summary has no row groups for it
    return changed
