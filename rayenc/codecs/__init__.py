"""Pure numpy codec kernels (no Ray dependency).

Each codec exposes ``encode(...) -> bytes`` and ``decode(buf, n, ...) ->
numpy/arrow values``. The byte formats mirror the parquet encoding formats as
implemented by apache/parquet-java (see per-module citations), so that
grammar-level golden-byte tests from the reference test suite apply.

``decode_pages`` is the one value-page decoder both file formats call (the
reference's `Encoding.java:62-256` dispatch): the container's
``blocks._decode_pages`` and Parquet's ``parquet_compat._decode_page_stream``
keep only their own framing around it. ``concat_values`` joins decoded
pages.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import (
    alp,
    bytestream_split,
    delta_bp,
    delta_length,
    delta_strings,
    fsst,
    plain,
    rle_for,
    rle_hybrid,
)
from . import dictionary as dictionary_mod

_NUMERIC = {"INT32": np.int32, "INT64": np.int64, "FLOAT": np.float32, "DOUBLE": np.float64}


def decode_pages(encoding: str, ptype: str, pages: list, dictionary=None, width: int = 0):
    """Decode a run of value pages that share one encoding, ``[(body, n),
    ...]``, into one array of their values.

    ``ptype`` is a container physical type (BINARY, not BYTE_ARRAY);
    FIXED_LEN_BYTE_ARRAY values come back as ``(n, width)`` uint8 rows and
    BINARY values as ``(offsets int64[n+1], data uint8)``. RLE is the
    unframed boolean hybrid. ``dictionary`` is what the pages decode
    against: for RLE_DICTIONARY the PLAIN-decoded dictionary values, which
    the ids of the whole run index in one gather (a dictionary-less call
    returns the ids), for FSST the symbol table. ValueError when the pair
    is not decodable."""
    if encoding == "RLE_DICTIONARY":
        ids = [dictionary_mod.decode_ids(body, n) for body, n in pages]
        ids = ids[0] if len(ids) == 1 else np.concatenate(ids or [np.empty(0, np.uint32)])
        if dictionary is None:
            return ids
        if ptype == "BINARY":
            dic = dictionary_mod.binary_array(*dictionary)
            return dictionary_mod.binary_parts(dic.take(pa.array(ids, pa.int64())))
        return dictionary[ids]
    parts = [_page_values(encoding, ptype, body, n, dictionary, width) for body, n in pages]
    return concat_values(parts, ptype, width)


def _page_values(encoding: str, ptype: str, body, n: int, dictionary, width: int):
    if ptype == "BINARY":
        if encoding == "PLAIN":
            return plain.decode_binary(body, n)
        if encoding == "DELTA_LENGTH_BYTE_ARRAY":
            return delta_length.decode(body, n)
        if encoding == "DELTA_BYTE_ARRAY":
            return delta_strings.decode(body, n)
        if encoding == "FSST":
            return fsst.decompress(dictionary, *fsst.read_page(body, n))
    elif ptype == "FIXED_LEN_BYTE_ARRAY":
        if encoding == "PLAIN":
            return plain.decode_fixed_len(body, n, width)
        if encoding == "BYTE_STREAM_SPLIT":
            # extended BSS over FLBA (format 2.11): ``width`` byte planes
            rows = bytestream_split.decode(body, n, np.dtype((np.void, width)))
            return rows.view(np.uint8).reshape(n, width)
        if encoding == "DELTA_BYTE_ARRAY":
            return delta_strings.decode(body, n)[1].reshape(n, width)
    elif ptype == "BOOLEAN":
        if encoding == "PLAIN":
            return plain.decode_boolean(body, n)
        if encoding == "RLE":
            return rle_hybrid.decode(body, n, 1, np.uint8).astype(bool)
    elif ptype in _NUMERIC:
        dtype = _NUMERIC[ptype]
        if encoding == "PLAIN":
            return plain.decode_fixed(body, n, ptype)
        if encoding == "BYTE_STREAM_SPLIT":
            return bytestream_split.decode(body, n, dtype)
        if encoding == "DELTA_BINARY_PACKED" and ptype in ("INT32", "INT64"):
            return delta_bp.decode(body, dtype)
        if encoding == "RLE_FOR" and ptype in ("INT32", "INT64"):
            return rle_for.decode(body, n, dtype)
        if encoding == "ALP" and ptype in ("FLOAT", "DOUBLE"):
            return alp.decode(body, n, dtype)
    raise ValueError(f"cannot decode {encoding} pages of {ptype}")


def concat_values(parts: list, ptype: str, width: int = 0):
    """One chunk's values from its decoded pages (the shapes
    ``decode_pages`` returns; zero pages give an empty chunk)."""
    if ptype == "BINARY":
        if not parts:
            return np.zeros(1, np.int64), np.empty(0, np.uint8)
        if len(parts) == 1:
            return parts[0]
        starts = np.cumsum([0] + [int(o[-1]) for o, _ in parts[:-1]])
        offsets = np.concatenate(
            [parts[0][0]] + [o[1:] + s for (o, _), s in zip(parts[1:], starts[1:])]
        )
        return offsets, np.concatenate([d for _, d in parts])
    if not parts:
        if ptype == "FIXED_LEN_BYTE_ARRAY":
            return np.empty((0, width), np.uint8)
        return np.empty(0, _NUMERIC.get(ptype, np.bool_))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
