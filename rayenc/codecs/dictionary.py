"""Dictionary encoding (RLE_DICTIONARY data pages + PLAIN dictionary page).

Mirrors `parquet-column/.../values/dictionary/DictionaryValuesWriter.java`:
- data page = ``[bit-width: 1 byte][RLE/bit-packed hybrid of ids]``
  (`:153-180`), bit-width = width of (dictionary size - 1);
- dictionary page = PLAIN-encoded keys in *first-occurrence* order
  (`:253-268`, the reference keeps insertion-ordered linked hash maps
  `:23-29`);
- cost model: a new binary entry costs 4 + len bytes (`:241-250`), fixed
  4 / 8 bytes for int/float / long/double; fallback thresholds live in the
  selector (see rayenc/selector.py), not here.

Our engine makes the dictionary decision per column chunk from whole-batch
statistics instead of the reference's encode-then-regret per-value fallback
(`FallbackValuesWriter.java:160-190`), which can only produce smaller output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import plain, rle_hybrid
from .bitpack import bit_width32

MAX_DICTIONARY_ENTRIES = (1 << 31) - 2  # DictionaryValuesWriter.java:61


def factorize(arr: pa.Array) -> tuple[np.ndarray, pa.Array]:
    """First-occurrence-ordered (indices, dictionary) of an Arrow array.

    ``pc.dictionary_encode`` preserves first-occurrence order, matching the
    reference's insertion-ordered maps (DictionaryValuesWriter.java:23-29).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    denc = pc.dictionary_encode(arr)
    indices = denc.indices.to_numpy(zero_copy_only=False).astype(np.uint32)
    return indices, denc.dictionary


def encode_ids(indices: np.ndarray, dict_size: int) -> bytes:
    """Data page payload: [bitWidth byte][hybrid ids]
    (DictionaryValuesWriter.getBytes, :153-172)."""
    width = bit_width32(max(dict_size - 1, 0))
    return bytes([width]) + rle_hybrid.encode(indices, width)


def id_pages(plan: "rle_hybrid.Plan", lut=None) -> list[bytes]:
    """Data page payloads of a chunk's ids planned page by page
    (``rle_hybrid.Plan`` with page bounds, width from the dictionary size):
    each page's [bitWidth byte][hybrid ids]. ``lut`` remaps the ids as they
    are written."""
    head = bytes([plan.width])
    return [head + p for p in plan.emit(lut)]


def decode_ids(buf, n: int, at=None) -> np.ndarray:
    """A data page's ids; ``at`` (ascending positions) only those ids."""
    # a python int: a numpy-scalar width would make rle_hybrid's run walk
    # do numpy scalar arithmetic
    width = int(buf[0])
    return rle_hybrid.decode(buf[1:], n, width, at=at)


def dict_page_binary(dictionary: pa.Array) -> bytes:
    """PLAIN-encoded keys (PlainBinaryDictionaryValuesWriter.toDictPageAndClose,
    :253-268)."""
    offsets, data = binary_parts(dictionary)
    return plain.encode_binary(offsets, data)


def dict_page_fixed(dictionary: pa.Array, ptype: str) -> bytes:
    vals = dictionary.to_numpy(zero_copy_only=False)
    return plain.encode_fixed(vals, ptype)


def read_dict_page_binary(buf, dict_size: int) -> tuple[np.ndarray, np.ndarray]:
    return plain.decode_binary(buf, dict_size)


def read_dict_page_fixed(buf, dict_size: int, ptype: str) -> np.ndarray:
    return plain.decode_fixed(buf, dict_size, ptype)


def binary_parts(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64[n+1], data uint8) view of a string/binary Arrow array."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], off_dtype, count=len(arr) + 1 + arr.offset)[
        arr.offset :
    ].astype(np.int64)
    data = (
        np.frombuffer(buffers[2], np.uint8, count=int(offsets[-1]))
        if buffers[2] is not None
        else np.empty(0, np.uint8)
    )
    start = offsets[0]
    return offsets - start, data[start:] if start else data


def binary_array(offsets: np.ndarray, data: np.ndarray) -> pa.Array:
    """Zero-copy rebuild of a pa.large_string array from parts."""
    return pa.Array.from_buffers(
        pa.large_string(),
        len(offsets) - 1,
        [
            None,
            pa.py_buffer(np.ascontiguousarray(offsets, np.int64)),
            pa.py_buffer(np.ascontiguousarray(data, np.uint8)),
        ],
    )


def dictionary_cost_bytes(dictionary: pa.Array) -> int:
    """Cumulative dictionary byte size exactly as the reference accounts it
    (binary: 4 + len per entry, DictionaryValuesWriter.java:241-250;
    int/float: 4; long/double: 8)."""
    t = dictionary.type
    if pa.types.is_string(t) or pa.types.is_binary(t) or pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        offsets, _ = binary_parts(dictionary)
        return 4 * (len(offsets) - 1) + int(offsets[-1])
    return len(dictionary) * t.bit_width // 8
