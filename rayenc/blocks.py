"""Block container: page split, chunk encode/decode, blob + manifest.

One *block* (a Ray Data block / one Arrow batch) encodes to one blob plus a
manifest dict. Per column chunk the layout mirrors parquet-java's column
chunk (`ColumnChunkPageWriteStore.java:76-128`): an optional chunk-level aux
page (dictionary page — `ColumnWriterBase.finalizeColumnChunk:280-302` — or
FSST symbol table), then data pages split by the (1 MiB, 20k rows) rule of
`ColumnWriteStoreBase.sizeCheck` (`ParquetProperties.java:50,62`). Pages are
optionally compressed with a block codec (`CompressionCodecName.java:26-33`,
default UNCOMPRESSED like `ParquetWriter.java:50`).

The manifest carries lineage + stats + chosen encodings per chunk — the
engine's equivalent of the footer metadata (`ParquetFileWriter.end`), in JSON
so a resumed driver can scan it cheaply.
"""

from __future__ import annotations

import dataclasses
import functools
import io

import numpy as np
import pyarrow as pa

from . import bloom, codecs
from . import predicate as P
from . import selector as sel
from . import stats as stats_mod
from .codecs import (
    alp,
    bytestream_split,
    delta_bp,
    delta_length,
    delta_strings,
    dictionary as dict_codec,
    fsst,
    plain,
    rle_for,
    rle_hybrid,
)
from .schema import PhysicalColumn, assemble, physical_type, shred

MAGIC = b"RENC1\x00"


class BlockFormatError(ValueError):
    """A container blob or chunk entry the decoder cannot read: a bad magic,
    or a dictionary fast path asked of a chunk it does not fit."""


# ---------------------------------------------------------------- page split


def page_ranges(col: PhysicalColumn, config: sel.EncodeConfig) -> list[tuple[int, int]]:
    """Split a chunk's rows into page row-ranges by cumulative PLAIN-equivalent
    size (~1 MiB) or row count (20k), whichever trips first."""
    n = col.num_values
    if n == 0:
        return []
    if col.ptype == "FIXED_LEN_BYTE_ARRAY":
        width = np.asarray(col.values).shape[1]
        rows_per_page = min(config.page_rows, max(1, config.page_size // max(1, width)))
        return [(a, min(a + rows_per_page, n)) for a in range(0, n, rows_per_page)]
    if col.ptype == "BINARY":
        offsets, _ = col.values
        ranges = []
        start = 0
        while start < n:
            # data-byte budget (the 4-byte length prefixes are second order;
            # clamp by rows afterwards)
            budget = offsets[start] + config.page_size
            hi = int(np.searchsorted(offsets, budget, side="right")) - 1
            end = max(start + 1, min(hi, start + config.page_rows, n))
            ranges.append((start, end))
            start = end
        return ranges
    if col.ptype == "BOOLEAN":
        rows_per_page = config.page_rows
    else:
        itemsize = np.asarray(col.values).dtype.itemsize
        rows_per_page = min(config.page_rows, max(1, config.page_size // itemsize))
    return [(a, min(a + rows_per_page, n)) for a in range(0, n, rows_per_page)]


# ------------------------------------------------------------- page encoding


def _binary_slice(values, a, b):
    offsets, data = values
    off = offsets[a : b + 1] - offsets[a]
    return off, data[offsets[a] : offsets[b]]


class _Candidate:
    """Planned chunk encoding: exact (or, for FSST, estimated) total size plus
    a deferred ``emit`` that materializes aux + page bytes exactly once."""

    __slots__ = ("encoding", "size", "estimated", "aux_meta", "_emit", "aux_size",
                 "memo", "est_bytes", "ids", "stored", "_out")

    def __init__(self, encoding, size, emit, aux_meta=None, estimated=False,
                 aux_size=0):
        self.encoding = encoding
        self.size = size
        self.estimated = estimated
        self.aux_meta = aux_meta
        self.aux_size = aux_size
        self._emit = emit
        self.memo = None  # set on the winner by choose_encoding
        # the compressed-size estimate it won on (set by choose_encoding)
        self.est_bytes = None
        # a dictionary candidate's id plan (``rle_hybrid.Plan`` over its
        # pages, ids in factorize order)
        self.ids = None
        # (compressed aux, {page index: compressed page}) the compressed
        # ranking already made of the winner
        self.stored = None
        self._out = None

    def emit(self):
        """-> (aux_bytes | None, [page_bytes])"""
        if self._out is None:
            self._out = self._emit()
        return self._out


def _plan_candidate(
    col: PhysicalColumn, encoding: str, ranges, config: sel.EncodeConfig,
    memo: dict | None = None,
) -> _Candidate | None:
    """Plan one encoding for the whole chunk without materializing payload
    bytes (except cheap aux). Returns None when inapplicable. The
    chunk-level plans are made here (the dictionary, the FSST table and its
    estimate, the BOOLEAN RLE hybrid); every other encoding is planned page
    by page by its codec module (``_PAGE_PLANS``). ``memo`` caches
    chunk-global work (dictionary factorize, FSST table training) across
    the sampled and full planning passes."""
    ptype = col.ptype
    v = col.values

    if encoding == "RLE_DICTIONARY":
        if memo is not None and "dict_fac" in memo:
            fac = memo["dict_fac"]
        else:
            fac = sel.try_dictionary(col, config)
            if memo is not None:
                memo["dict_fac"] = fac
        if fac is None:
            return None
        indices, dic = fac
        kind, lut = "dict", None
        if ptype == "BINARY":
            d_off, _d_dat = dict_codec.binary_parts(dic)
            aux_size = 4 * (len(d_off) - 1) + int(d_off[-1])
            aux_emit = lambda: dict_codec.dict_page_binary(dic)
        elif ptype == "BOOLEAN":
            return None
        elif ptype in ("INT32", "INT64"):
            # sorted keys delta-encode to near nothing; the ids are written
            # remapped to them (improvement over the reference's PLAIN
            # first-occurrence dict page, DictionaryValuesWriter.java:253-268).
            # The remap is a bijection, so the ids are planned in factorize
            # order (the order the Parquet writer emits) and remapped only
            # as the winner's pages are written. factorize's keys are
            # distinct, so any sort gives the one ascending order
            dvals = dic.to_numpy(zero_copy_only=False)
            order = np.argsort(dvals)
            lut = np.empty(len(order), np.uint32)
            lut[order] = np.arange(len(order), dtype=np.uint32)
            dict_plan = delta_bp.Plan(np.ascontiguousarray(dvals[order]))
            aux_size = dict_plan.size
            aux_emit = dict_plan.emit
            kind = "dicti"
        else:
            aux_size = len(dic) * (4 if ptype == "FLOAT" else 8)
            aux_emit = lambda: dict_codec.dict_page_fixed(dic, ptype)
        ids = rle_hybrid.Plan(indices, dict_codec.bit_width32(max(len(dic) - 1, 0)), ranges)
        size = aux_size + len(ranges) + ids.size
        cache = {} if memo is None else memo

        def emit():
            # the dictionary page depends on the chunk's dictionary only:
            # every plan of the chunk emits it once
            if "dict_page" not in cache:
                cache["dict_page"] = aux_emit()
            return cache["dict_page"], dict_codec.id_pages(ids, lut)

        cand = _Candidate(encoding, size, emit, {"kind": kind, "count": len(dic)},
                          aux_size=aux_size)
        cand.ids = ids
        return cand

    if encoding == "FSST" and ptype == "BINARY":
        offsets, data = v
        if memo is not None and "fsst_table" in memo:
            table = memo["fsst_table"]
        else:
            table = fsst.train(offsets, data)
            if memo is not None:
                memo["fsst_table"] = table
        aux = table.serialize()
        n = len(offsets) - 1
        # estimate: compress a strided sample of rows
        if n and len(data):
            take = max(1, min(n, 512))
            stride = max(1, n // take)
            s_off, s_dat = plain._take_strings(offsets, data, np.arange(0, n, stride)[:take])
            c_off, _c = fsst.compress(table, s_off, s_dat)
            ratio = (c_off[-1] / max(1, s_off[-1])) if s_off[-1] else 1.0
        else:
            ratio = 1.0
        est = len(aux) + int(len(data) * ratio * 1.03) + 2 * n + 64
        return _Candidate(
            encoding, est,
            lambda: (aux, [fsst.write_page(table, *_binary_slice(v, a, b)) for a, b in ranges]),
            {"kind": "fsst", "count": len(table.symbols)}, estimated=True, aux_size=len(aux),
        )

    if encoding == "RLE" and ptype == "BOOLEAN":
        plan = rle_hybrid.Plan(np.asarray(v, np.uint8), 1, ranges)
        return _Candidate(encoding, plan.size, lambda: (None, plan.emit()))

    page_plan, ptypes = _PAGE_PLANS.get(encoding, (None, ()))
    if ptype not in ptypes:
        return None
    if page_plan is plain.Plan:
        page_plan = functools.partial(plain.Plan, ptype=ptype)
    plans = [page_plan(_binary_slice(v, a, b) if ptype == "BINARY" else v[a:b]) for a, b in ranges]
    if not all(p.applicable for p in plans):
        return None  # an ALP page of non-decimal floats, an RLE_FOR range over 32 bits
    return _Candidate(encoding, sum(p.size for p in plans), lambda: (None, [p.emit() for p in plans]))


_NUMBERS = ("INT32", "INT64", "FLOAT", "DOUBLE")
# each encoding whose pages are planned one by one, by the page plan of its
# codec module (an exact ``size``, a lazy ``emit`` and ``applicable``), and
# the physical types it writes
_PAGE_PLANS = {
    "PLAIN": (plain.Plan, (*_NUMBERS, "BOOLEAN", "BINARY", "FIXED_LEN_BYTE_ARRAY")),
    "BYTE_STREAM_SPLIT": (bytestream_split.Plan, (*_NUMBERS, "FIXED_LEN_BYTE_ARRAY")),
    "DELTA_LENGTH_BYTE_ARRAY": (delta_length.Plan, ("BINARY",)),
    "DELTA_BYTE_ARRAY": (delta_strings.Plan, ("BINARY", "FIXED_LEN_BYTE_ARRAY")),
    "DELTA_BINARY_PACKED": (delta_bp.Plan, ("INT32", "INT64")),
    "RLE_FOR": (rle_for.Plan, ("INT32", "INT64")),
    "ALP": (alp.Plan, ("FLOAT", "DOUBLE")),
}


def choose_encoding(
    col: PhysicalColumn,
    stats,
    ranges,
    config: sel.EncodeConfig,
    legal=None,
    forced_only=(),
    page_frame=None,
) -> _Candidate:
    """Pick one chunk's encoding: the smallest planned candidate.

    ``config.column_encodings`` may force an encoding; one the chunk cannot
    use falls back to the automatic candidates, and a name no encoder knows
    is a ValueError. ``legal`` is the set of encodings the file format can
    hold (None: all), ``forced_only`` those it holds only when forced, and
    ``page_frame`` maps an encoding to the bytes the format adds around each
    of its pages. A chunk of at most 4 pages, or any chunk under
    ``config.exhaustive_selection``, plans every candidate over every page
    and keeps the smallest by encoded size. A larger chunk ranks its
    candidates on a 3-page sample: each one's sample pages and aux page are
    emitted and counted as they would be stored (compressed if
    ``config.compression`` names a page codec), the pages scaled to the
    chunk, and only the best is planned over the other pages. Under a page
    codec integer chunks also try BYTE_STREAM_SPLIT, and the winner carries
    its estimate as ``est_bytes`` and its compressed aux and sample pages as
    ``stored``. The winner carries ``memo``: the chunk-global work
    (dictionary factorize, FSST table) its plan used."""
    ovr = config.column_encodings.get(col.name)
    if ovr is not None and ovr not in sel.ENCODINGS and ovr != "DEVNULL":
        raise ValueError(f"unknown encoding {ovr!r} for column {col.name!r}")
    sampled = not config.exhaustive_selection and len(ranges) > 4
    codec = _compressor(config) if sampled else None
    auto = [
        e for e in sel.candidates_for(col, stats, config, compressed=codec is not None)
        if (legal is None or e in legal) and e not in forced_only
    ]
    names = [ovr] if ovr and (legal is None or ovr in legal) else auto
    frames = {e: n * len(ranges) for e, n in (page_frame or {}).items()}
    memo: dict = {}
    if sampled and len(names) > 1:
        # planning every candidate over every page is the dominant encode
        # cost (the selector, not the winning kernel): rank them on 3 pages
        # by the bytes they would store, scaling the pages (the aux page,
        # a dictionary or FSST table, is chunk-global), and plan only the
        # winner over the other pages (a page's bytes depend only on the
        # page and ``memo``)
        at = [0, len(ranges) // 2, len(ranges) - 1]
        sample = [ranges[i] for i in at]
        scale = sum(b - a for a, b in ranges) / max(1, sum(b - a for a, b in sample))
        ranked = []
        for e in names:
            c = _plan_candidate(col, e, sample, config, memo)
            if c is None:
                continue
            # the page codec decides the size: id streams that look small
            # encoded can compress worse than byte planes
            aux, pages = c.emit()
            if codec is not None:
                aux = None if aux is None else codec.compress(aux)
                pages = [codec.compress(p) for p in pages]
            est = (len(aux) if aux else 0) + scale * sum(len(p) for p in pages)
            ranked.append((est + frames.get(e, 0), e, c, aux, pages))
        ranked.sort(key=lambda r: r[:2])
        names = [r[1] for r in ranked[:1]]
        cands = []
        if ranked:
            est, e, c, aux, pages = ranked[0]
            rest = _plan_candidate(col, e, [r for i, r in enumerate(ranges) if i not in at],
                                   config, memo)
            if rest is not None:
                cands = [_joined(c, rest, at, len(ranges))]
                if codec is not None:
                    cands[0].est_bytes = round(est)
                    cands[0].stored = (None if aux is None else aux.to_pybytes(),
                                       {i: p.to_pybytes() for i, p in zip(at, pages)})
    else:
        cands = [_plan_candidate(col, e, ranges, config, memo) for e in names]
        cands = [c for c in cands if c is not None]
    if not cands:
        # a forced encoding the chunk cannot use, or a sampled winner that
        # proved inapplicable over the other pages (an ALP/RLE_FOR-breaking
        # page outside the sample): plan the other automatic candidates
        cands = [_plan_candidate(col, e, ranges, config, memo) for e in auto if e not in names]
        cands = [c for c in cands if c is not None]
    if not cands:
        raise ValueError(f"no applicable encoding for column {col.name!r} ({col.ptype})")
    cands.sort(key=lambda c: c.size + frames.get(c.encoding, 0))
    best = cands[0]
    if best.estimated and len(cands) > 1:
        aux, pages = best.emit()
        if (len(aux) if aux else 0) + sum(len(p) for p in pages) > cands[1].size:
            # the estimate overshot: take the next exact candidate so the
            # min-bytes guarantee holds
            best = cands[1]
    best.memo = memo
    return best


def _joined(sample: _Candidate, rest: _Candidate, at: list, n: int) -> _Candidate:
    """One encoding's candidate over a chunk's ``n`` pages from its plan
    over the pages at ``at`` (sorted) and its plan over the others."""

    def emit():
        aux, head = sample.emit()
        tail = iter(rest.emit()[1])
        taken = dict(zip(at, head))
        return aux, [taken[i] if i in taken else next(tail) for i in range(n)]

    return _Candidate(sample.encoding, sample.size + rest.size - rest.aux_size, emit,
                      sample.aux_meta, sample.estimated, sample.aux_size)


# how each aux kind's chunk-level page is encoded: the dictionary page is
# PLAIN, or the sorted integer keys delta-packed ("dicti")
_AUX_ENCODING = {"dict": "PLAIN", "dicti": "DELTA_BINARY_PACKED"}


def _decode_pages(entry: dict, aux_buf, page_bufs: list, compressed: bool = False, at=None) -> PhysicalColumn:
    """The values of a chunk's ``page_bufs`` (``entry["pages"]`` lists
    their entries), or with ``at`` only those at the ascending positions
    within them (``codecs.decode_pages``). An FSST chunk's pages are framed
    into one ``_FsstPages``, which ``compressed`` hands back as is."""
    ptype, aux = entry["ptype"], entry["aux"]
    width = entry.get("flba_width", 0)
    if entry["encoding"] == "FSST":
        pages = _FsstPages(aux_buf, page_bufs, entry["pages"])
        return PhysicalColumn(entry["name"], ptype, pages if compressed else pages.strings(None))
    pages = [(buf, p["num_values"]) for buf, p in zip(page_bufs, entry["pages"])]
    if aux is None:
        values = codecs.decode_pages(entry["encoding"], ptype, pages, None, width, at)
    elif at is None:
        dictionary = codecs.decode_pages(
            _AUX_ENCODING[aux["kind"]], ptype, [(aux_buf, aux["count"])], width=width
        )
        values = codecs.decode_pages(entry["encoding"], ptype, pages, dictionary, width)
    else:  # the selected ids, then the dictionary values of those ids only
        ids, inverse = np.unique(
            codecs.decode_pages(entry["encoding"], ptype, pages, None, width, at), return_inverse=True
        )
        dictionary = codecs.decode_pages(
            _AUX_ENCODING[aux["kind"]], ptype, [(aux_buf, aux["count"])], width=width, at=ids
        )
        values = codecs.lookup(dictionary, ptype, inverse)
    return PhysicalColumn(entry["name"], ptype, values)


def _content_key(col: PhysicalColumn):
    """Cheap exact-content key for intra-block chunk dedup, or None."""
    import hashlib

    if col.null_mask is not None:
        return None
    if col.ptype == "BINARY":
        offsets, data = col.values
        if len(data) > 1 << 22:  # don't hash very large string chunks
            return None
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(offsets).tobytes())
        h.update(np.ascontiguousarray(data).tobytes())
        return (col.ptype, h.hexdigest())
    v = np.ascontiguousarray(np.asarray(col.values))
    if v.nbytes > 1 << 22:
        return None
    return (col.ptype, str(v.dtype), hashlib.sha256(v.tobytes()).hexdigest())


# ------------------------------------------------------------- chunk + block


def _compressor(config: sel.EncodeConfig):
    if not config.compression:
        return None
    if config.compression == "lz4_hadoop":
        raise ValueError(
            "lz4_hadoop is a parquet-interop page codec (write_table / "
            "transcode); renc containers use lz4 (raw frames) instead"
        )
    return pa.Codec(config.compression, compression_level=config.compression_level)


def _manifest_bounds(bounds):
    """One ``stats.page_bounds`` entry as manifest ``(min, max)``: byte
    strings truncated and stored latin-1 (JSON-safe, bytewise order kept
    for pushdown); ``(None, None)`` when unbounded."""
    if bounds is None:
        return None, None
    lo, hi, _ = stats_mod.written(bounds)
    if isinstance(lo, bytes):
        return lo.decode("latin-1"), hi.decode("latin-1")
    return lo, hi


def _manifest_stats(col: PhysicalColumn, st: stats_mod.ChunkStats) -> dict:
    """A chunk's manifest ``stats``. FLBA chunks carry no bounds: the
    container reader decodes no half-float or decimal bounds."""
    bounded = col.ptype != "FIXED_LEN_BYTE_ARRAY" and st.min_value is not None
    lo, hi = _manifest_bounds((st.min_value, st.max_value) if bounded else None)
    out = {"num_values": st.num_values, "null_count": st.null_count,
           "raw_bytes": st.raw_bytes, "min": lo, "max": hi}
    if bounded and col.ptype == "BINARY":
        # marks exact latin-1 truncate/increment bounds; older manifests
        # stored lossy utf-8-replace strings that are NOT valid bounds
        out["stats_v"] = 2
    return out


def encode_chunk(
    col: PhysicalColumn, out: io.BytesIO, config: sel.EncodeConfig
) -> dict:
    ovr = config.column_encodings.get(col.name) or config.column_encodings.get(
        col.name.split("#")[0]
    )
    if ovr == "DEVNULL":
        # DevNullValuesWriter parity (column/values/DevNullValuesWriter.java):
        # values are consumed and dropped — used to measure shredding /
        # pipeline overhead without encode cost. Write-only: the chunk
        # appears in the manifest with zero pages and cannot be decoded.
        return {
            "name": col.name,
            "ptype": col.ptype,
            "encoding": "DEVNULL",
            "stats": _manifest_stats(col, stats_mod.compute(col)),
            "encoded_bytes": 0,
            "pages": [],
            "aux": None,
            "validity": None,
        }
    ranges = page_ranges(col, config)
    stats = stats_mod.compute(col, ranges)
    best = choose_encoding(col, stats, ranges, config)
    aux, pages = best.emit()
    best_size = (len(aux) if aux else 0) + sum(len(p) for p in pages)
    encoding, aux_meta = best.encoding, best.aux_meta

    codec = _compressor(config)
    entry: dict = {
        "name": col.name,
        "ptype": col.ptype,
        "encoding": encoding,
        "stats": _manifest_stats(col, stats),
        "encoded_bytes": best_size,
        "pages": [],
        "aux": None,
        "validity": None,
    }
    if best.est_bytes is not None:
        # the compressed-size estimate the chunk was ranked on, beside the
        # compressed lengths of its aux and pages below
        entry["est_bytes"] = best.est_bytes
    if col.ptype == "FIXED_LEN_BYTE_ARRAY":
        entry["flba_width"] = int(np.asarray(col.values).shape[1])
    if col.name in config.bloom_columns:
        filt = bloom.build(col, config)
        if filt is not None:
            entry["bloom"], entry["bloom_v"] = filt.serialize(), bloom.MANIFEST_V
    if col.null_mask is not None:
        vbuf = rle_hybrid.encode(
            (~col.null_mask).astype(np.uint8), 1
        )  # def levels, max_def=1
        entry["validity"] = {
            "offset": out.tell(),
            "length": len(vbuf),
            "count": len(col.null_mask),
        }
        out.write(vbuf)
    stored_aux, stored = best.stored or (None, {})
    if aux is not None:
        blob = stored_aux or (codec.compress(aux).to_pybytes() if codec else aux)
        entry["aux"] = {
            **aux_meta,
            "offset": out.tell(),
            "length": len(blob),
            "raw_length": len(aux),
        }
        out.write(blob)
    # per-page min/max: the column-index page-skipping statistics
    # (internal/column/columnindex/ColumnIndexBuilder.java analog); no
    # BOOLEAN pages (chunk bounds only) and no FLBA (see _manifest_stats)
    paged = col.ptype not in ("BOOLEAN", "FIXED_LEN_BYTE_ARRAY")
    for k, ((a, b), page) in enumerate(zip(ranges, pages)):
        blob = stored.get(k) or (codec.compress(page).to_pybytes() if codec else page)
        pentry = {
            "offset": out.tell(),
            "length": len(blob),
            "raw_length": len(page),
            "num_values": b - a,
        }
        if paged:
            pentry["min"], pentry["max"] = _manifest_bounds(stats.pages[k])
        entry["pages"].append(pentry)
        out.write(blob)
    return entry


def _stored_bounds(lo, hi) -> tuple:
    """Manifest ``(min, max)`` in the stats domain: string bounds are
    stored latin-1 (bytewise order, truncated max incremented —
    ColumnIndexBuilder semantics)."""
    if isinstance(lo, str):
        return lo.encode("latin-1"), hi.encode("latin-1")
    return lo, hi


def _page_granules(entry: dict, t=None, valid=None):
    """``(first_row, end_row, predicate.Granule)`` of each page of a chunk
    from its manifest page min/max (a None bound is an unbounded,
    NaN-bearing page), or None when the chunk has no page bounds. ``t`` is
    the column's Arrow type. Given the validity ``valid`` of a chunk with
    nulls, a page spans the rows of its first to its last value, and each
    null run before, between or after the pages is a span of its own with
    no values (``count=0``)."""
    pages = entry["pages"]
    if not pages or "min" not in pages[0]:
        return None
    rows = None if valid is None else np.flatnonzero(valid)  # row of each value
    out, prev, a = [], 0, 0
    for p in pages:
        n = p["num_values"]
        if n:
            first, end = (a, a + n) if rows is None else (int(rows[a]), int(rows[a + n - 1]) + 1)
            if first > prev:
                out.append((prev, first, P.Granule(nulls=first - prev, count=0, type=t)))
            bounds = _stored_bounds(p["min"], p["max"])
            out.append((first, end, P.Granule(*bounds, end - first - n, n, t)))
            prev, a = end, a + n
    nrows = a if valid is None else len(valid)
    if nrows > prev:
        out.append((prev, nrows, P.Granule(nulls=nrows - prev, count=0, type=t)))
    return out


@functools.lru_cache(maxsize=64)
def _schema(schema_hex: str) -> pa.Schema:
    """A manifest's Arrow schema, parsed once per distinct schema."""
    return pa.ipc.read_schema(pa.py_buffer(bytes.fromhex(schema_hex)))


@functools.lru_cache(maxsize=64)
def _column_types(schema_hex: str) -> dict:
    """Arrow type of each top-level column of a manifest's schema."""
    return {f.name: f.type for f in _schema(schema_hex)}


def partition_granules(manifest: dict):
    """``predicate.Granule`` of each column of one container partition, from
    its manifest's chunk statistics and bloom filters: the lookup that
    ``predicate.may_match`` prunes the partition with."""
    chunks = {c["name"]: c for c in manifest["chunks"]}
    types = _column_types(manifest["schema"])

    @functools.cache
    def granule(col: str):
        entry = chunks.get(col)
        if entry is None:
            return None
        st = entry.get("stats") or {}
        lo, hi = _stored_bounds(st.get("min"), st.get("max"))
        if isinstance(lo, bytes) and st.get("stats_v", 1) < 2:
            lo = hi = None  # lossy utf-8-replace strings, not bounds
        g = P.Granule(lo, hi, st.get("null_count"), st.get("num_values"), types.get(col))
        if entry.get("bloom") and entry.get("bloom_v") == bloom.MANIFEST_V:
            g.bloom = bloom.probe(
                entry["ptype"], g.type,
                functools.partial(bloom.SpecBloom.probe_serialized, entry["bloom"]),
            )
        return g

    return granule


def _read_chunk(blob, entry: dict, config, page_mask):
    """(aux bytes | None, page bytes, page entries) of one chunk, pages
    decompressed and, with ``page_mask``, only the kept ones."""
    compression = (config.compression if config else None) or entry.get("compression")
    codec = pa.Codec(compression) if compression else None

    def read(meta):
        raw = blob[meta["offset"] : meta["offset"] + meta["length"]]
        if codec:
            raw = codec.decompress(raw, meta["raw_length"]).to_pybytes()
        return raw

    pages = entry["pages"]
    if page_mask is not None:
        pages = [p for p, keep in zip(pages, page_mask) if keep]
    aux_buf = read(entry["aux"]) if entry["aux"] else None
    return aux_buf, [read(p) for p in pages], pages


def _validity(blob, entry: dict) -> np.ndarray | None:
    """The chunk's validity stream (True = a value slot), None when it has
    no nulls."""
    vmeta = entry["validity"]
    if not vmeta:
        return None
    vbuf = blob[vmeta["offset"] : vmeta["offset"] + vmeta["length"]]
    return rle_hybrid.decode(vbuf, vmeta["count"], 1, np.uint8).astype(bool)


def decode_chunk(blob, entry: dict, config: sel.EncodeConfig | None = None) -> PhysicalColumn:
    """One chunk's values and null mask."""
    aux_buf, page_bufs, pages = _read_chunk(blob, entry, config, None)
    col = _decode_pages({**entry, "pages": pages}, aux_buf, page_bufs)
    valid = _validity(blob, entry)
    if valid is not None:
        col.null_mask = ~valid
    return col


def decode_chunk_dictionary(
    blob,
    entry: dict,
    config: sel.EncodeConfig | None = None,
    page_mask: list[bool] | None = None,
) -> pa.Array:
    """Decode an RLE_DICTIONARY BINARY chunk to ``pa.DictionaryArray``
    WITHOUT materializing values: only the id pages and the (NDV-sized)
    dictionary page are touched — the reference's reader-visible
    `Dictionary` (`dictionary/DictionaryValuesReader.java:49-55`) kept
    end-to-end instead of eagerly materialized."""
    if (entry["encoding"], entry["ptype"], entry["validity"]) != ("RLE_DICTIONARY", "BINARY", None):
        raise BlockFormatError(
            f"dictionary fast path needs a non-null RLE_DICTIONARY BINARY chunk: {entry['name']!r}"
        )
    aux_buf, page_bufs, pages = _read_chunk(blob, entry, config, page_mask)
    ids = codecs.decode_pages(
        "RLE_DICTIONARY", "BINARY", [(b, p["num_values"]) for b, p in zip(page_bufs, pages)]
    )
    dic = codecs.decode_pages("PLAIN", "BINARY", [(aux_buf, entry["aux"]["count"])])
    return pa.DictionaryArray.from_arrays(
        pa.array(ids.astype(np.int32), pa.int32()), dict_codec.binary_array(*dic)
    )


def encode_block(table: pa.Table, config: sel.EncodeConfig | None = None) -> tuple[bytes, dict]:
    """Encode one Arrow table (one block / row group) -> (blob, manifest).

    Identical physical columns within a block (e.g. the tokenized table's
    ``n_tok`` == ``tokens#lengths`` invariant) are encoded once; duplicates
    become manifest aliases."""
    config = config or sel.EncodeConfig()
    # a decimal is bounds-only to pruning (predicate.in_domain): no reader
    # would probe its bloom
    unprobed = config.bloom_columns & {
        f.name for f in table.schema
        if pa.types.is_decimal(f.type.value_type if pa.types.is_dictionary(f.type) else f.type)
    }
    if unprobed:
        config = dataclasses.replace(config, bloom_columns=config.bloom_columns - unprobed)
    out = io.BytesIO()
    out.write(MAGIC)
    chunks = []
    seen: dict[tuple, str] = {}
    for field in table.schema:
        for col in shred(field.name, table.column(field.name)):
            key = _content_key(col)
            if key is not None and key in seen:
                chunks.append(
                    {
                        "name": col.name,
                        "ptype": col.ptype,
                        "alias": seen[key],
                        "encoding": "ALIAS",
                        "encoded_bytes": 0,
                        "stats": _manifest_stats(col, stats_mod.compute(col)),
                        "pages": [],
                        "aux": None,
                        "validity": None,
                    }
                )
                continue
            entry = encode_chunk(col, out, config)
            if config.compression:
                entry["compression"] = config.compression
            chunks.append(entry)
            if key is not None and entry["encoding"] != "DEVNULL":
                # never alias TO a write-only chunk (it has no pages)
                seen[key] = col.name
    blob = out.getvalue()
    manifest = {
        "format": "renc1",
        "num_rows": table.num_rows,
        "schema": table.schema.serialize().to_pybytes().hex(),
        "blob_bytes": len(blob),
        "raw_bytes": sum(c["stats"]["raw_bytes"] for c in chunks),
        "chunks": chunks,
    }
    return blob, manifest


def _kept_row_intervals(manifest, reader, tree):
    """Rows that can satisfy NNF ``tree``, from per-page min/max of every
    predicate column — the offset-index row-alignment of
    `internal/column/columnindex/` generalized to And/Or/Not trees across
    any number of columns; nullable columns map pages to rows through
    their validity."""
    types = _column_types(manifest["schema"])

    def leaf_rows(leaf):
        if leaf.col not in reader.by_name:
            return None
        e = reader.target(leaf.col)
        return P.page_rows(leaf, _page_granules(e, types.get(leaf.col), reader.validity(e)))

    return P.row_ranges(tree, manifest["num_rows"], leaf_rows)


def _take_values(ptype: str, values, idx: np.ndarray):
    """Physical ``values`` at ascending positions ``idx``; a run of
    consecutive positions is a slice."""
    a, b = int(idx[0]), int(idx[-1]) + 1
    run = b - a == len(idx)
    if ptype == "BINARY":
        if run:
            return _binary_slice(values, a, b)
        return plain._take_strings(*values, idx)
    values = np.asarray(values)
    return values[a:b] if run else values[idx]


def _no_values(entry: dict):
    """Zero values of ``entry``'s physical type."""
    ptype = entry["ptype"]
    if ptype == "BINARY":
        return np.zeros(1, np.int64), np.empty(0, np.uint8)
    if ptype == "FIXED_LEN_BYTE_ARRAY":
        return np.empty((0, entry.get("flba_width", 0)), np.uint8)
    return np.empty(0, bool if ptype == "BOOLEAN" else codecs._NUMERIC[ptype])


class _FsstPages:
    """Pages of an FSST chunk kept compressed: the symbol table, and the
    compressed strings' offsets (the prefix sum of the pages' length
    streams) and payload. A read decompresses only the strings it returns
    (all of them once, however often they are read), and ``==``/``in``
    compare the literals' compressed strings."""

    __slots__ = ("table", "offsets", "data", "_all")

    def __init__(self, aux_buf, page_bufs: list, pages: list):
        self.table, _ = fsst.SymbolTable.deserialize(aux_buf)
        parts = [fsst.read_page(b, p["num_values"]) for b, p in zip(page_bufs, pages)]
        self.offsets, self.data = codecs.concat_values(parts, "BINARY")
        self._all = None

    def strings(self, idx):
        """The strings at ascending positions ``idx`` (None: all)."""
        if idx is not None:
            return fsst.decompress(self.table, *_take_values("BINARY", (self.offsets, self.data), idx))
        if self._all is None:
            self._all = fsst.decompress(self.table, self.offsets, self.data)
        return self._all

    def equal(self, idx, literals: list[bytes]) -> np.ndarray:
        """Whether each string at positions ``idx`` (None: all) is one of
        ``literals``, compared compressed."""
        codes = [fsst.compress_string(self.table, v) for v in literals]
        return fsst.rows_equal(self.offsets, self.data, idx, codes)


# the leaves an FSST chunk answers on its compressed strings
_ENCODED_OPS = {"==": False, "in": False, "!=": True, "not_in": True}  # op -> negated
_STRING_TYPES = (pa.string(), pa.large_string())
_BINARY_TYPES = (pa.binary(), pa.large_binary())
# a literal costs about as much to compress and match (~4 us) as ten
# strings to decompress: a longer IN list goes to the decompressed values
# and one hashed ``pc.is_in`` (on a 3,200-string chunk the two paths meet
# near 300 literals)
MAX_ENCODED_LITERALS = 32


# a read that selects fewer than one value in this many of the pages that
# hold them decodes only the selected values (``codecs.decode_pages(at=)``)
SPARSE_READ = 8


class _BlockReader:
    """The streams of one block, read at a selection of slots: each chunk
    decodes only the pages that hold selected values, and a sparse read of
    a chunk that no other read needs decodes only the selected values. A
    chunk that several streams or both read phases need (aliases, the
    ``shared`` fields the predicate reads) decodes each of its pages once.
    A ``#lengths`` chunk decodes the prefix through its last selected slot:
    a list slot's child positions are a prefix sum over the lengths before
    it. An FSST chunk stays compressed (``_FsstPages``)."""

    def __init__(self, blob, by_name: dict, shared=()):
        self.blob = blob
        self.by_name = by_name
        self._valid: dict = {}  # chunk -> (validity | None, value rank | None)
        # (chunk, dictionary?) -> (page mask | None, values, how many of
        # the pages' values they are | None: all)
        self._pages: dict = {}
        shared = set(shared)
        self._shared = {e["alias"] for e in by_name.values() if e.get("alias")} | {
            self.target(name)["name"] for name in by_name if name.split("#")[0] in shared
        }

    def target(self, name: str) -> dict:
        entry = self.by_name[name]
        return self.by_name[entry["alias"]] if entry.get("alias") else entry

    def validity(self, entry: dict):
        """The chunk's validity, decoded once (None: no nulls)."""
        name = entry["name"]
        if name not in self._valid:
            self._valid[name] = (_validity(self.blob, entry), None)
        return self._valid[name][0]

    def dense(self, entry: dict, slots):
        """(value positions, null mask) of ``slots`` in ``entry``: nullable
        streams hold no values at null slots, so a slot's value position is
        the number of valid slots before it."""
        if slots is not None and not len(slots):
            return slots, np.empty(0, bool) if entry["validity"] else None
        valid = self.validity(entry)
        if valid is None:
            return slots, None
        if slots is None:
            return None, ~valid
        rank = self._valid[entry["name"]][1]
        if rank is None:
            rank = np.cumsum(valid) - 1
            self._valid[entry["name"]] = (valid, rank)
        picked = valid[slots]
        return rank[slots[picked]], ~picked

    def _chunk(self, entry: dict, idx, dictionary: bool = False):
        """(values, ``idx`` within them | None: all of them) of a chunk at
        ascending positions ``idx`` (None: all). A sparse read (below
        ``SPARSE_READ``) of a chunk no other read needs, and a read of a
        prefix of the pages it selects, decode only the values at ``idx``;
        any other read decodes the pages that hold them, as a
        ``pa.DictionaryArray`` with ``dictionary``, or as ``_FsstPages``
        for an FSST chunk. Pages and prefixes are kept for the reads after
        it."""
        key = (entry["name"], dictionary)
        got = self._pages.get(key)

        def held(idx):
            return got[2] is None or idx is not None and idx[-1] < got[2]

        if got is not None and got[0] is None and held(idx):  # every page at hand
            return got[1], idx
        need, pages = None, entry["pages"]
        if idx is not None and len(pages) > 1:
            ends = np.cumsum([p["num_values"] for p in pages])
            need, idx = P.select_pages(ends, idx, None if got is None else got[0])
        if got is not None and need is not None and (need == got[0]).all() and held(idx):
            return got[1], idx
        if need is not None:
            pages = [p for p, keep in zip(pages, need) if keep]
        prefix = idx is not None and int(idx[-1]) + 1 == len(idx)
        if (
            idx is not None and got is None and not dictionary and entry["encoding"] != "FSST"
            and (
                prefix
                or entry["name"] not in self._shared
                and len(idx) * SPARSE_READ < sum(p["num_values"] for p in pages)
            )
        ):
            aux_buf, page_bufs, pages = _read_chunk(self.blob, entry, None, need)
            out = _decode_pages({**entry, "pages": pages}, aux_buf, page_bufs, at=idx).values
            if prefix:  # the first values of the pages read: kept
                self._pages[key] = (need, out, len(idx))
            return out, None
        if dictionary:
            out = decode_chunk_dictionary(self.blob, entry, page_mask=need)
        else:
            aux_buf, page_bufs, pages = _read_chunk(self.blob, entry, None, need)
            out = _decode_pages({**entry, "pages": pages}, aux_buf, page_bufs, compressed=True).values
        self._pages[key] = (need, out, None)
        return out, idx

    def values(self, entry: dict, idx, dictionary: bool = False):
        """Values at ascending positions ``idx`` (None: all) of a chunk:
        physical values, or a ``pa.DictionaryArray`` with ``dictionary``."""
        if idx is not None and not len(idx):
            if dictionary:
                return pa.DictionaryArray.from_arrays(pa.array([], pa.int32()), pa.array([], pa.binary()))
            return _no_values(entry)
        out, idx = self._chunk(entry, idx, dictionary)
        if isinstance(out, _FsstPages):
            return out.strings(idx)
        if idx is None:
            return out
        if dictionary:
            return P.take(out, idx)
        return _take_values(entry["ptype"], out, idx)

    def verdict(self, leaf: P.Leaf, t: pa.DataType, slots):
        """``leaf``'s verdict at ``slots`` (None: all) of a flat column of
        type ``t``, from an FSST chunk's compressed strings: ``==``, ``!=``,
        ``in`` and ``not_in`` (of at most ``MAX_ENCODED_LITERALS``) of str
        literals (bytes ones on a binary column), null at null slots. None
        for any other leaf, literal or encoding: those need the column's
        values."""
        negate = _ENCODED_OPS.get(leaf.op)
        entry = self.target(leaf.col) if leaf.col in self.by_name else None
        if negate is None or entry is None or entry["encoding"] != "FSST":
            return None
        literals = leaf.value if leaf.op in ("in", "not_in") else (leaf.value,)
        if len(literals) > MAX_ENCODED_LITERALS:
            return None
        kinds = {type(v) for v in literals}
        if not (kinds == {str} and t in _STRING_TYPES + _BINARY_TYPES
                or kinds == {bytes} and t in _BINARY_TYPES):
            return None
        dleaf = P.in_domain(leaf, t)[0]
        if dleaf is None:  # a lone surrogate: Arrow rejects the literal
            return None
        literals = dleaf.value if leaf.op in ("in", "not_in") else (dleaf.value,)
        idx, nulls = self.dense(entry, slots)
        if idx is not None and not len(idx):
            hit = np.empty(0, bool)
        else:
            pages, idx = self._chunk(entry, idx)
            hit = pages.equal(idx, literals)
        if negate:
            hit = ~hit
        if nulls is None:
            return pa.array(hit)
        full = np.zeros(len(nulls), bool)
        full[~nulls] = hit
        return pa.array(full, mask=nulls)

    def streams(self, t: pa.DataType, name: str, slots, out: dict) -> None:
        """Put the streams of field ``name`` (type ``t``) at ``slots`` (None:
        all) into ``out`` as ``schema.assemble`` reads them, walking the
        ``schema.shred`` layout: a list's ``#lengths`` map its slots to
        child slots, a fixed-size list's slots scale by its width, and
        struct children share their parent's slots."""
        if pa.types.is_dictionary(t):
            t = t.value_type
        if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
            key = f"{name}#lengths"
            entry = self.target(key)
            idx, nulls = self.dense(entry, slots)
            if idx is not None and not len(idx):
                lengths, child = np.empty(0, np.int32), idx
            elif idx is None:
                lengths, child = self.values(entry, None), None
            else:
                # the lengths through the last slot, whose prefix sum places
                # each slot's children
                prefix = self.values(entry, np.arange(int(idx[-1]) + 1))
                lengths = prefix[idx]
                child = plain._ranges(np.cumsum(prefix, dtype=np.int64)[idx] - lengths, lengths)
            out[key] = (lengths, nulls)
            if pa.types.is_map(t):
                elem = pa.struct([t.key_field.with_name("key"), t.item_field.with_name("value")])
            else:
                elem = t.value_type
            self.streams(elem, f"{name}#values", child, out)
            return
        if pa.types.is_fixed_size_list(t) or pa.types.is_struct(t):
            key = f"{name}#valid"
            if key in self.by_name:
                self.streams(pa.bool_(), key, slots, out)
            if pa.types.is_struct(t):
                for c in t:
                    self.streams(c.type, f"{name}#f:{c.name}", slots, out)
                return
            width = t.list_size
            child = None if slots is None else (slots[:, None] * width + np.arange(width)).ravel()
            self.streams(t.value_type, f"{name}#values", child, out)
            return
        entry = self.target(name)
        idx, nulls = self.dense(entry, slots)
        out[name] = (self.values(entry, idx), nulls)


def decode_block(
    blob,
    manifest: dict,
    columns: list[str] | None = None,
    predicate=None,
    dictionary_strings: bool = False,
) -> pa.Table:
    """Decode a block; ``columns`` restricts decode to those top-level fields
    (their sub-chunks included), in the order asked — chunk-level
    projection pushdown.

    ``predicate`` (anything ``predicate.normalize`` accepts; its columns
    need not be projected) makes the read exact and two-phase through
    ``predicate.two_phase_read``, the one filtered read of both formats:
    the predicate columns decode over the pages whose min/max may match
    (``_kept_row_intervals``), then every other projected column decodes
    only the pages that hold the matching rows' values — list and map slots
    map to child values through ``#lengths``, nullable streams through
    their validity.

    Leaves are evaluated in the encoded domain where the chunk allows: an
    FSST chunk answers ``==``, ``!=``, ``in`` and ``not_in`` (of up to
    ``MAX_ENCODED_LITERALS``) of string literals by compressing each
    literal with the chunk's symbol table and comparing code strings
    (``_BlockReader.verdict``), so a column whose leaves were all answered
    this way is not decoded in phase 1, and any FSST chunk read at
    selected rows decompresses only those rows' strings.

    Only the matching rows come back. A predicate that cannot be evaluated
    (a column the block lacks, a literal of the wrong type, a user predicate
    that raises) raises ``predicate.PredicateError``.

    ``dictionary_strings=True`` keeps RLE_DICTIONARY-encoded flat string
    columns *encoded*: the chunk comes back as
    ``pa.DictionaryArray(int32 ids, values)`` instead of materialized
    strings (the reference hands readers the `Dictionary` object the same
    way — `dictionary/DictionaryValuesReader.java`). For low-NDV columns
    this shrinks the decoded block by ~avg_len/4 and predicates evaluate on
    the NDV-sized dictionary (predicate.leaf_mask), not per row."""
    if bytes(blob[: len(MAGIC)]) != MAGIC:
        raise BlockFormatError("bad block magic")
    schema = _schema(manifest["schema"])
    tree = P.normalize(predicate)
    pred_cols = sorted(P.columns(tree))
    # DEVNULL chunks (DevNullValuesWriter parity) are write-only: silently
    # absent from full decodes, an error when explicitly selected
    devnull = {
        e["name"].split("#")[0]
        for e in manifest["chunks"]
        if e.get("encoding") == "DEVNULL"
    }
    asked = devnull & (set(pred_cols) | set(columns or ()))
    if asked:
        raise NotImplementedError(
            f"columns {sorted(asked)} were encoded DEVNULL "
            "(write-only; DevNullValuesWriter semantics)"
        )
    names = set(schema.names)
    missing = sorted(set(pred_cols) - names)
    if missing:
        raise P.PredicateError(f"predicate columns {missing} are not in the block")
    # the projection in the order asked (the schema's order when None)
    fields = [
        schema.field(c)
        for c in (schema.names if columns is None else dict.fromkeys(columns))
        if c in names and c not in devnull
    ]
    by_name = {c["name"]: c for c in manifest["chunks"]}
    reader = _BlockReader(blob, by_name, pred_cols)

    def read(field: pa.Field, rows) -> pa.Array:
        entry = by_name.get(field.name)
        if dictionary_strings and entry is not None:
            target = reader.target(field.name)
            if (
                (target["encoding"], target["ptype"], target["validity"]) == ("RLE_DICTIONARY", "BINARY", None)
                and not pa.types.is_dictionary(field.type)
                and physical_type(field.type) == "BINARY"
            ):
                arr = reader.values(target, rows, dictionary=True)
                if arr.dictionary.type != field.type:
                    arr = pa.DictionaryArray.from_arrays(arr.indices, arr.dictionary.cast(field.type))
                return arr
        out: dict = {}
        reader.streams(field.type, field.name, rows, out)
        return assemble(field, out)

    def verdict(leaf: P.Leaf, rows):
        return reader.verdict(leaf, schema.field(leaf.col).type, rows)

    kept = None if tree is None else _kept_row_intervals(manifest, reader, tree)
    pred_fields = [schema.field(c) for c in pred_cols]
    arrays = P.two_phase_read(tree, manifest["num_rows"], kept, pred_fields, fields, read, verdict)
    return pa.Table.from_arrays(
        arrays, schema=pa.schema([f.with_type(a.type) for f, a in zip(fields, arrays)])
    )
