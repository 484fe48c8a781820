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

import itertools

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


def decode_pages(encoding: str, ptype: str, pages: list, dictionary=None, width: int = 0, at=None):
    """Decode a run of value pages that share one encoding, ``[(body, n),
    ...]``, into one array of their values.

    ``ptype`` is a container physical type (BINARY, not BYTE_ARRAY);
    FIXED_LEN_BYTE_ARRAY values come back as ``(n, width)`` uint8 rows and
    BINARY values as ``(offsets int64[n+1], data uint8)``. RLE is the
    unframed boolean hybrid. ``dictionary`` is what the pages decode
    against: for RLE_DICTIONARY the PLAIN-decoded dictionary values, which
    the ids of the whole run index in one gather (a dictionary-less call
    returns the ids), for FSST the symbol table. ValueError when the pair
    is not decodable.

    ``at``, ascending value positions within the run (each below the
    pages' value count), returns only the values there, each page handed
    only its own positions (a page without one is not read): the
    hybrid-backed encodings (RLE_DICTIONARY ids, RLE_FOR, ALP over
    RLE_FOR, boolean RLE) read the runs that hold them,
    DELTA_BINARY_PACKED (ALP's inner stream too) stops after the block of
    the last one, PLAIN and BYTE_STREAM_SPLIT gather their bytes, and
    RLE_DICTIONARY gathers dictionary values for the selected ids only.
    Every other pair decodes its pages whole and takes."""
    if at is None:
        parts = [_page_values(encoding, ptype, body, n, dictionary, width) for body, n in pages]
    else:
        at = np.asarray(at, np.int64)
        ends = list(itertools.accumulate(n for _, n in pages))
        cut = np.searchsorted(at, ends).tolist() if len(pages) > 1 else [len(at)]
        parts = [
            # a page whose every value is selected decodes whole
            _page_values(encoding, ptype, body, n, dictionary, width,
                         None if b - a == n else at[a:b] - (e - n))
            for (body, n), a, b, e in zip(pages, [0, *cut], cut, ends)
            if b > a
        ]
    if encoding == "RLE_DICTIONARY":
        ids = parts[0] if len(parts) == 1 else np.concatenate(parts or [np.empty(0, np.uint32)])
        return ids if dictionary is None else lookup(dictionary, ptype, ids)
    return concat_values(parts, ptype, width)


def lookup(dictionary, ptype: str, ids):
    """The values of dictionary ``ids`` in ``dictionary`` (decoded values,
    in ``decode_pages``' shapes), in one gather."""
    if ptype == "BINARY":
        dic = dictionary_mod.binary_array(*dictionary)
        return dictionary_mod.binary_parts(dic.take(pa.array(ids, pa.int64())))
    return dictionary[ids]


def _page_values(encoding: str, ptype: str, body, n: int, dictionary, width: int, at=None):
    """One page's values, or with ``at`` those at its ascending positions
    (RLE_DICTIONARY: its ids)."""
    if encoding == "RLE_DICTIONARY":
        return dictionary_mod.decode_ids(body, n, at)
    if ptype == "BOOLEAN" and encoding == "RLE":
        return rle_hybrid.decode(body, n, 1, np.uint8, at=at).astype(bool)
    if ptype in _NUMERIC:
        dtype = _NUMERIC[ptype]
        if encoding == "BYTE_STREAM_SPLIT":
            return bytestream_split.decode(body, n, dtype, at)
        if encoding == "DELTA_BINARY_PACKED" and ptype in ("INT32", "INT64"):
            return delta_bp.decode(body, dtype, at)
        if encoding == "RLE_FOR" and ptype in ("INT32", "INT64"):
            return rle_for.decode(body, n, dtype, at)
        if encoding == "ALP" and ptype in ("FLOAT", "DOUBLE"):
            return alp.decode(body, n, dtype, at)
    elif ptype == "FIXED_LEN_BYTE_ARRAY" and encoding == "BYTE_STREAM_SPLIT":
        # extended BSS over FLBA (format 2.11): ``width`` byte planes
        rows = bytestream_split.decode(body, n, np.dtype((np.void, width)), at)
        return rows.view(np.uint8).reshape(len(rows), width)
    # the rest decode whole (PLAIN fixed-width values are a view of the
    # body, so taking them gathers only the selected values' bytes)
    values = _whole_page(encoding, ptype, body, n, dictionary, width)
    if at is None:
        return values
    if ptype == "BINARY":
        return plain._take_strings(*values, at)
    return values[at]


def _whole_page(encoding: str, ptype: str, body, n: int, dictionary, width: int):
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
        if encoding == "DELTA_BYTE_ARRAY":
            return delta_strings.decode(body, n)[1].reshape(n, width)
    elif ptype == "BOOLEAN" and encoding == "PLAIN":
        return plain.decode_boolean(body, n)
    elif ptype in _NUMERIC and encoding == "PLAIN":
        return plain.decode_fixed(body, n, ptype)
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
