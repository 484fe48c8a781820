"""Per-column codec auto-selection.

The reference decides incrementally with one-way fallback inside a chunk
(`values/fallback/FallbackValuesWriter.java:58-215`: dictionary until
``dictionaryByteSize > maxDictionaryByteSize`` (1 MiB default,
`ParquetProperties.java:51`) or the first page is not
``isCompressionSatisfying`` (`DictionaryValuesWriter.java:117-125`), then the
static per-type V2 fallback (`factory/DefaultV2ValuesWriterFactory.java:45-192`:
ints -> DELTA_BINARY_PACKED, binary -> DELTA_BYTE_ARRAY, floats ->
PLAIN/BYTE_STREAM_SPLIT, boolean -> RLE)).

We see the whole chunk before choosing, so the same cost rule becomes a
minimum over *measured* candidate sizes: statistics gate which candidates are
worth encoding, every surviving candidate is actually encoded, and the
smallest wins. Because the reference's outcome (dictionary-until-fallback or
the V2 static pick) is always IN our candidate set, the encoded (pre-codec)
chunk size is <= the reference's by construction (SURVEY.md §2.3). A chunk
of more than 4 pages is instead ranked on a 3-page sample by the bytes each
candidate would store, compressed under a page codec
(``blocks.choose_encoding``), so there the bound is only as good as that
sample; under a codec the manifest records the estimate as ``est_bytes``
beside the exact compressed lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from .codecs import dictionary as dict_codec
from .schema import PhysicalColumn
from .stats import ChunkStats

MAX_DICT_BYTES = 1 << 20  # ParquetProperties.DEFAULT_DICTIONARY_PAGE_SIZE
MAX_DICT_ENTRIES = (1 << 31) - 2  # DictionaryValuesWriter.java:61
DICT_NDV_GATE = 0.5  # skip the dictionary attempt when a sample looks mostly distinct


@dataclass
class EncodeConfig:
    page_size: int = 1 << 20  # ParquetProperties.DEFAULT_PAGE_SIZE
    page_rows: int = 20_000  # DEFAULT_PAGE_ROW_COUNT_LIMIT
    max_dict_bytes: int = MAX_DICT_BYTES
    compression: str | None = None  # page codec: None|lz4|zstd|gzip|snappy|brotli
    compression_level: int | None = None
    # parquet_write data page layout: "1.0" (framed levels) or "2.0"
    # (DataPageHeaderV2, unframed uncompressed levels; ColumnWriterV2.java)
    parquet_page_version: str = "1.0"
    # V1 level encoding: "RLE" (default) or the deprecated big-endian
    # "BIT_PACKED" (parquet-java legacy parity: Encoding.java:155-158 reads
    # it BIG_ENDIAN; note parquet-cpp/pyarrow reads these levels LSB-first
    # instead — a real cross-implementation discrepancy in the deprecated
    # encoding, so only rayenc + parquet-java readers apply)
    level_encoding: str = "RLE"
    # per-column encoding override: {"colname": "DELTA_BINARY_PACKED", ...}
    # (the ColumnProperty / ValuesWriterFactory extension surface,
    #  ParquetProperties.java:465-471). One the column or file format cannot
    # use falls back to the automatic candidates; a name outside ENCODINGS
    # (and DEVNULL) is a ValueError
    column_encodings: dict = field(default_factory=dict)
    disable_dictionary: set = field(default_factory=set)
    # True: plan EVERY candidate over every page and pick exact min
    # encoded bytes (page codec ignored; the Parquet writer's selection);
    # False (default): a chunk of more than 4 pages ranks its candidates on
    # a 3-page sample by the bytes they would store (compressed, under a
    # page codec) and plans only the winner over the other pages. ~1.5x
    # faster encode, byte-identical to True on homogeneous uncompressed
    # blocks, possibly a near-miss encoding choice on heterogeneous ones
    exhaustive_selection: bool = False
    # columns to build split-block bloom filters for (ParquetProperties
    # bloom-filter column properties analog): `bloom.build` makes the same
    # spec filter for a Parquet chunk and a container chunk, sized for
    # bloom_fpp over the chunk's distinct count
    bloom_columns: set = field(default_factory=set)
    bloom_fpp: float = 0.01
    # adaptive bloom sizing (AdaptiveBlockSplitBloomFilter.java), in both
    # formats: pick the smallest surviving power-of-two candidate for the
    # chunk's distinct count instead of the direct optimal size.
    # bloom_max_bytes caps the largest candidate; bloom_candidates is the
    # halving count (ParquetProperties.DEFAULT_BLOOM_FILTER_CANDIDATES_NUMBER)
    bloom_adaptive: bool = False
    bloom_max_bytes: int = 1 << 20  # DEFAULT_MAX_BLOOM_FILTER_BYTES
    bloom_candidates: int = 5
    # geospatial columns: {"colname": geo.GeoSpec(...)} — BINARY columns
    # holding WKB; "geometry" collects BoundingBox + type-set statistics
    # into ColumnMetaData field 17 and stamps the GEOMETRY logical type,
    # "geography" stamps GEOGRAPHY with noop stats
    # (column/statistics/geospatial/GeospatialStatistics.java:94-104)
    geospatial: dict = field(default_factory=dict)
    # declared logical annotations: {"colname": "UUID"|"JSON"|"BSON"|"ENUM"
    # |"INTERVAL"} — the remaining LogicalTypeAnnotation.java members that
    # have no native arrow type in this pyarrow (uuidType/jsonType/bsonType/
    # enumType/intervalType). UUID requires fixed_size_binary(16), INTERVAL
    # fixed_size_binary(12), the rest string/binary; stamped as
    # ConvertedType + LogicalType on the leaf SchemaElement
    logical_annotations: dict = field(default_factory=dict)
    # store DECIMAL(p<=18) columns as INT32/INT64 physical (unscaled ints)
    # instead of FLBA — the spec's integer decimal storage
    # (LogicalTypeAnnotation.DecimalLogicalTypeAnnotation on INT32/INT64;
    # parquet-cpp store_decimal_as_integer). Ints delta/FoR-pack 2-4x
    # smaller than 16-byte FLBA and readers (pyarrow, DuckDB, ours)
    # restore decimal128 from the annotation
    decimal_as_integer: bool = False
    # write flat timestamp columns as the deprecated INT96 physical type
    # (12-byte nanos-of-day + Julian day, the Spark/Impala legacy layout
    # parquet-java still writes behind spark.sql.parquet's
    # writeLegacyFormat / int96 flags; PrimitiveTypeName.INT96). Read-side
    # support is unconditional; writing is opt-in because the type is
    # deprecated (PLAIN pages, no min/max stats — INT96 sort order is
    # UNKNOWN, matching ParquetMetadataConverter's stats omission)
    int96_timestamps: bool = False


# every encoding the chooser (blocks.choose_encoding) can plan: the names
# EncodeConfig.column_encodings may force, besides the container's DEVNULL
ENCODINGS = (
    "PLAIN", "RLE", "RLE_DICTIONARY", "DELTA_BINARY_PACKED",
    "DELTA_LENGTH_BYTE_ARRAY", "DELTA_BYTE_ARRAY", "BYTE_STREAM_SPLIT",
    "RLE_FOR", "ALP", "FSST",
)


def candidates_for(col: PhysicalColumn, stats: ChunkStats, config: EncodeConfig,
                   compressed: bool = False) -> list[str]:
    """Ordered automatic candidate encodings to actually encode and
    size-compare (a forced ``column_encodings`` entry is the chooser's
    business, not this list's). ``compressed``: they are ranked by the
    bytes the page codec leaves, not by their encoded size."""
    ptype = col.ptype
    cands: list[str] = []
    dict_ok = col.name not in config.disable_dictionary and stats.num_values > 0
    if dict_ok and stats.ndv_sample_ratio >= DICT_NDV_GATE:
        # mostly-distinct sample: still attempt the dictionary when a Chao1
        # NDV estimate says the table would fit the reference's 1 MiB cap
        # (medium-NDV columns under-sample badly; the estimate recovers them)
        est = stats.ndv_estimate
        if est is None or est * (4 + stats.avg_len) > config.max_dict_bytes:
            dict_ok = False
    if ptype in ("INT32", "INT64"):
        # ints always get the dictionary attempt: the sorted+delta dict page
        # is near-free, and sampled-NDV gating misjudges large vocabularies
        # (try_dictionary still enforces the reference's 1 MiB threshold)
        cands.append("RLE_DICTIONARY")
        cands += ["DELTA_BINARY_PACKED", "RLE_FOR", "PLAIN"]
        if compressed:
            # as large as PLAIN encoded, so only a ranking by compressed
            # bytes can pick it, where its byte planes often compress best
            cands.append("BYTE_STREAM_SPLIT")
    elif ptype in ("FLOAT", "DOUBLE"):
        if dict_ok:
            cands.append("RLE_DICTIONARY")
        # ALP (SIGMOD'23; container-only like FSST): decimal-like floats
        # become bit-packed scaled ints — high-NDV price/measurement
        # columns that the dictionary gate rejects compress 2-10x; the
        # plan's exact size loses to BSS/PLAIN on true-random floats
        cands += ["ALP", "BYTE_STREAM_SPLIT", "PLAIN"]
    elif ptype == "BINARY":
        if dict_ok:
            cands.append("RLE_DICTIONARY")
        if stats.ndv_sample_ratio >= DICT_NDV_GATE:
            # clearly-low-NDV strings are dictionary territory; training an
            # FSST table there is wasted work (it loses to dict ids by
            # orders). Medium/high-NDV chunks keep both candidates.
            cands.append("FSST")
        cands += ["DELTA_BYTE_ARRAY", "DELTA_LENGTH_BYTE_ARRAY", "PLAIN"]
    elif ptype == "FIXED_LEN_BYTE_ARRAY":
        # V2 FLBA: dict else DELTA_BYTE_ARRAY (DefaultV2ValuesWriterFactory:86-105)
        cands += ["DELTA_BYTE_ARRAY", "BYTE_STREAM_SPLIT", "PLAIN"]
    elif ptype == "BOOLEAN":
        cands += ["RLE", "PLAIN"]
    return cands


def try_dictionary(col: PhysicalColumn, config: EncodeConfig):
    """Factorize the chunk; return (indices, dictionary pa.Array) or None when
    the reference thresholds would reject the dictionary outright
    (shouldFallBack: DictionaryValuesWriter.java:117-120)."""
    if col.ptype == "BINARY":
        arr = dict_codec.binary_array(*col.values)
    elif col.ptype in ("BOOLEAN", "FIXED_LEN_BYTE_ARRAY"):
        return None
    else:
        arr = pa.array(np.asarray(col.values))
    indices, dic = dict_codec.factorize(arr)
    if len(dic) > MAX_DICT_ENTRIES:
        return None
    if dict_codec.dictionary_cost_bytes(dic) > config.max_dict_bytes:
        return None
    return indices, dic
