"""rayenc — a Ray-Data-native per-column lightweight-compression engine.

Re-implements the encoding stack of apache/parquet-java (PLAIN, RLE/bit-packed
hybrid, dictionary, DELTA_BINARY_PACKED, DELTA_LENGTH_BYTE_ARRAY,
DELTA_BYTE_ARRAY, BYTE_STREAM_SPLIT) plus FSST for strings, with a per-column
codec auto-selector, expressed as vectorized numpy kernels driven by Ray Data
``map_batches`` over zero-copy Arrow blocks.

Reference semantics: /root/reference (apache/parquet-java); citations in each
module point at the file:line whose behavior the kernel mirrors. No code is
copied — kernels are vectorized numpy re-derivations of the published formats.

Round-3 surface map: parquet modular encryption (``parquet_crypto`` write
side + ``parquet_read_enc`` self-contained decrypting reader), one spec
split-block bloom filter for files and container manifests alike
(``bloom.SpecBloom`` over ``codecs.xxh``), whole-file
conformance reads of arbitrary nesting (``schema.assemble`` via
``parquet_compat.assemble_leaves``), ColumnIndex page-skipping file reads
(``parquet_read_enc.read_table_filtered``), Variant encoding + shredding
(``variant``), media codecs (``ops.png``: PNG + WAV), and multi-file merge
(``rewrite.merge_parquet``).
"""

__version__ = "0.1.0"
