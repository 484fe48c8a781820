"""The thrift *compact protocol* of parquet.thrift, in both directions.

Every Parquet struct rayenc reads or writes — page headers, the footer
(FileMetaData), page indexes, bloom headers and the crypto metadata — goes
through this module (`parquet-format-structures`; footer framing
`ParquetFileWriter.java:596,1874`). ``_read_struct`` parses any struct into
a ``{field id: value}`` dict and ``_thrift`` emits such a dict through a
spec table, so a parsed struct re-emits byte for byte.

A spec is ``{field id: type}``: a type is ``"bool"``, ``"i8"``, ``"i16"``,
``"i32"``, ``"i64"``, ``"dbl"`` or ``"bin"``; a dict is a nested struct (a
union is a struct with one member set); a one-element list is a list of
that element type. Fields a spec does not name are not emitted.
"""

from __future__ import annotations

import struct

from .codecs.varint import read_uvarint, write_uvarint, zigzag64

# ------------------------------------------------------------------- parser


def _read_value(buf, i, ftype):
    if ftype in (4, 5, 6):  # i16/i32/i64 zigzag varints
        v = buf[i]
        if v < 0x80:  # one-byte varint: most footer ints
            return (v >> 1) ^ -(v & 1), i + 1
        v, i = read_uvarint(buf, i)
        return (v >> 1) ^ -(v & 1), i
    if ftype in (1, 2):  # bool as a LIST element: one byte, 1=true
        return buf[i] == 1, i + 1
    if ftype == 3:  # byte
        v = buf[i]
        return (v - 256 if v > 127 else v), i + 1
    if ftype == 7:  # double
        return struct.unpack_from("<d", buf, i)[0], i + 8
    if ftype == 8:  # binary
        n, i = read_uvarint(buf, i)
        if i + n > len(buf):
            raise ValueError(f"thrift binary of {n} bytes runs past the buffer")
        return bytes(buf[i : i + n]), i + n
    if ftype in (9, 10):  # list / set
        head = buf[i]
        i += 1
        size = head >> 4
        etype = head & 0x0F
        if size == 15:
            size, i = read_uvarint(buf, i)
        if size > len(buf) - i:  # every element takes at least one byte
            raise ValueError(f"thrift list of {size} elements runs past the buffer")
        out = []
        for _ in range(size):
            v, i = _read_value(buf, i, etype)
            out.append(v)
        return out, i
    if ftype == 11:  # map: varint size, then (ktype<<4|vtype), then pairs
        size, i = read_uvarint(buf, i)
        if size > len(buf) - i:
            raise ValueError(f"thrift map of {size} entries runs past the buffer")
        out = {}
        if size:
            kv = buf[i]
            i += 1
            for _ in range(size):
                k, i = _read_value(buf, i, kv >> 4)
                v, i = _read_value(buf, i, kv & 0x0F)
                out[k] = v
        return out, i
    if ftype == 12:
        return _read_struct(buf, i)
    raise ValueError(f"unknown thrift compact type {ftype}")


def _read_struct(buf, i=0):
    """Parse a compact-protocol struct at ``buf[i:]`` -> ({field_id: value},
    next_offset), keeping every field type (bools, ints, doubles, binary,
    lists, maps, structs). ``buf`` is anything whose indexing yields ints
    (bytes, mmap, memoryview). Truncated or malformed input raises
    ValueError."""
    fields = {}
    last = 0
    try:
        while True:
            byte = buf[i]
            i += 1
            if byte == 0:  # stop
                return fields, i
            delta = byte >> 4
            ftype = byte & 0x0F
            if delta == 0:
                z, i = read_uvarint(buf, i)
                fid = (z >> 1) ^ -(z & 1)
            else:
                fid = last + delta
            last = fid
            if ftype == 1:
                fields[fid] = True
            elif ftype == 2:
                fields[fid] = False
            else:
                fields[fid], i = _read_value(buf, i, ftype)
    except (IndexError, struct.error, RecursionError) as ex:
        raise ValueError(f"truncated thrift struct at offset {i}") from ex


# ------------------------------------------------------------------ emitter

_COMPACT_TYPE = {"bool": 1, "i8": 3, "i16": 4, "i32": 5, "i64": 6, "dbl": 7, "bin": 8}
_DOUBLE = struct.Struct("<d")


def _compact_type(t) -> int:
    if isinstance(t, dict):
        return 12
    if isinstance(t, list):
        return 9
    return _COMPACT_TYPE[t]


def _emit_value(out: bytearray, t, v) -> None:
    if isinstance(t, dict):
        _emit_struct(out, t, v)
    elif isinstance(t, list):
        et = t[0]
        ct = _compact_type(et)
        if len(v) < 15:
            out.append(len(v) << 4 | ct)
        else:
            out.append(0xF0 | ct)
            write_uvarint(out, len(v))
        for x in v:
            _emit_value(out, et, x)
    elif t == "bin":
        write_uvarint(out, len(v))
        out += v
    elif t == "i32":
        v = int(v)
        if v >= 1 << 31:  # an unsigned 32-bit value (a CRC) as thrift's signed i32
            v -= 1 << 32
        write_uvarint(out, zigzag64(v))
    elif t == "bool":  # a list element; a bool field lives in its type nibble
        out.append(1 if v else 2)
    elif t == "i8":
        out.append(v & 0xFF)
    elif t == "dbl":
        out += _DOUBLE.pack(v)
    else:  # i16 / i64
        write_uvarint(out, zigzag64(int(v)))


def _emit_struct(out: bytearray, spec: dict, values: dict) -> None:
    last = 0
    for fid in sorted(k for k in values if k in spec):
        t, v = spec[fid], values[fid]
        ct = (1 if v else 2) if t == "bool" else _compact_type(t)
        if 0 < fid - last <= 15:
            out.append((fid - last) << 4 | ct)
        else:
            out.append(ct)
            write_uvarint(out, zigzag64(fid))
        last = fid
        if t != "bool":
            _emit_value(out, t, v)
    out.append(0)


def _thrift(spec: dict, values: dict) -> bytes:
    """One compact-protocol struct holding the fields of ``values`` that
    ``spec`` names, in field-id order."""
    out = bytearray()
    _emit_struct(out, spec, values)
    return bytes(out)


# -------------------------------------------------------------- spec tables

_EMPTY: dict = {}
KEY_VALUE = {1: "bin", 2: "bin"}
_UNIT = {1: _EMPTY, 2: _EMPTY, 3: _EMPTY}  # MILLIS / MICROS / NANOS
_TIMESTAMP = {1: "bool", 2: _UNIT}  # TIME too
LOGICAL_TYPE = {
    1: _EMPTY, 2: _EMPTY, 3: _EMPTY, 4: _EMPTY, 5: {1: "i32", 2: "i32"},
    6: _EMPTY, 7: _TIMESTAMP, 8: _TIMESTAMP, 10: {1: "i8", 2: "bool"},
    11: _EMPTY, 12: _EMPTY, 13: _EMPTY, 14: _EMPTY, 15: _EMPTY,
    16: {1: "i8"}, 17: {1: "bin"}, 18: {1: "bin", 2: "i32"},
}
SCHEMA_ELEMENT = {
    1: "i32", 2: "i32", 3: "i32", 4: "bin", 5: "i32", 6: "i32", 7: "i32",
    8: "i32", 9: "i32", 10: LOGICAL_TYPE,
}
STATISTICS = {
    1: "bin", 2: "bin", 3: "i64", 4: "i64", 5: "bin", 6: "bin", 7: "bool",
    8: "bool",
}
COLUMN_META = {
    1: "i32", 2: ["i32"], 3: ["bin"], 4: "i32", 5: "i64", 6: "i64", 7: "i64",
    8: [KEY_VALUE], 9: "i64", 10: "i64", 11: "i64", 12: STATISTICS,
    13: [{1: "i32", 2: "i32", 3: "i32"}], 14: "i64", 15: "i32",
    16: {1: "i64", 2: ["i64"], 3: ["i64"]},
    17: {1: {i: "dbl" for i in range(1, 9)}, 2: ["i32"]},
}
_AES_GCM = {1: "bin", 2: "bin", 3: "bool"}
ENCRYPTION_ALGORITHM = {1: _AES_GCM, 2: _AES_GCM}  # AES_GCM_V1 / AES_GCM_CTR_V1
COLUMN_CRYPTO_META = {1: _EMPTY, 2: {1: ["bin"], 2: "bin"}}  # footer / column key
FILE_CRYPTO_META = {1: ENCRYPTION_ALGORITHM, 2: "bin"}
COLUMN_CHUNK = {
    1: "bin", 2: "i64", 3: COLUMN_META, 4: "i64", 5: "i32", 6: "i64", 7: "i32",
    8: COLUMN_CRYPTO_META, 9: "bin",
}
ROW_GROUP = {
    1: [COLUMN_CHUNK], 2: "i64", 3: "i64", 4: [{1: "i32", 2: "bool", 3: "bool"}],
    5: "i64", 6: "i64", 7: "i16",
}
FILE_META = {
    1: "i32", 2: [SCHEMA_ELEMENT], 3: "i64", 4: [ROW_GROUP], 5: [KEY_VALUE],
    6: "bin", 7: [{1: _EMPTY}], 8: ENCRYPTION_ALGORITHM, 9: "bin",
}
COLUMN_INDEX = {
    1: ["bool"], 2: ["bin"], 3: ["bin"], 4: "i32", 5: ["i64"], 6: ["i64"],
    7: ["i64"],
}
OFFSET_INDEX = {1: [{1: "i64", 2: "i32", 3: "i64"}], 2: ["i64"]}
# algorithm BLOCK / hash XXHASH / compression UNCOMPRESSED, each member 1
BLOOM_HEADER = {1: "i32", 2: {1: _EMPTY}, 3: {1: _EMPTY}, 4: {1: _EMPTY}}
PAGE_HEADER = {
    1: "i32", 2: "i32", 3: "i32", 4: "i32",
    5: {1: "i32", 2: "i32", 3: "i32", 4: "i32", 5: STATISTICS},
    6: _EMPTY, 7: {1: "i32", 2: "i32", 3: "bool"},
    8: {1: "i32", 2: "i32", 3: "i32", 4: "i32", 5: "i32", 6: "i32", 7: "bool",
        8: STATISTICS},
}
