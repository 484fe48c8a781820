"""Arrow schema <-> physical column mapping.

Mirrors the role of parquet-java's MessageType / ColumnDescriptor
(`parquet-column/.../schema/MessageType.java`,
`column/ColumnDescriptor.java:33-34`): every Arrow field decomposes
*recursively* into flat physical streams — the Arrow-native equivalent of
Dremel record shredding (`io/MessageColumnIO.java:508`), expressing each
nesting level as its own structural stream instead of merged rep/def levels:

- primitive field           -> one chunk of its physical type
- string/binary field       -> one BINARY chunk
- timestamp/date/time field -> one INT32/INT64 chunk (+ arrow type in manifest)
- list / large_list         -> a ``name#lengths`` INT32 chunk (null lists =
  masked slots, canonical length 0) plus recursively-shredded
  ``name#values`` (so list<list<struct<...>>> works to any depth)
- fixed_size_list           -> optional ``name#valid`` plus ``name#values``
  (the child keeps all n*width slots, like Arrow's layout)
- struct                    -> optional ``name#valid`` BOOLEAN chunk plus one
  recursively-shredded ``name#f:<child>`` stream per child
- map                       -> list<struct<key,value>> layout: ``#lengths``
  plus ``#values#f:key`` / ``#values#f:value``

Nullable leaf columns carry a validity stream (RLE bit-width 1 — the
def-level encoding of `ColumnWriterV1.java:61-81` with max_def = 1); nulls
*inside* lists land on the child streams' validity, and null list/struct
slots on the structural streams — together these carry exactly the
information of parquet's repetition/definition levels
(`io/RecordReaderImplementation.java`), factored per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

PTYPES = ("BOOLEAN", "INT32", "INT64", "FLOAT", "DOUBLE", "BINARY", "FIXED_LEN_BYTE_ARRAY")


@dataclass
class PhysicalColumn:
    """A flat stream of values of one physical type, nulls removed."""

    name: str
    ptype: str
    # fixed types: np.ndarray; BINARY: (offsets int64[n+1], data uint8)
    values: object
    null_mask: np.ndarray | None = None  # True where null (length = logical n)
    # source arrow type was an unsigned integer: storage is the sign-wrapped
    # bit pattern, so min/max for statistics must be taken in the unsigned
    # domain (parquet UINT logical types order TYPE_DEFINED_ORDER unsigned)
    unsigned: bool = False
    # source arrow type was float16: FLBA(2) storage whose statistics order
    # numerically as IEEE half floats (FLOAT16 logical type)
    f16: bool = False

    @property
    def num_values(self) -> int:
        if self.ptype == "BINARY":
            return len(self.values[0]) - 1
        return len(self.values)

    @property
    def logical_count(self) -> int:
        return len(self.null_mask) if self.null_mask is not None else self.num_values


def physical_type(t: pa.DataType) -> str:
    if pa.types.is_boolean(t):
        return "BOOLEAN"
    if pa.types.is_null(t):
        # Parquet's UNKNOWN (null) type: INT32 slots that hold no value
        return "INT32"
    if pa.types.is_integer(t):
        return "INT32" if t.bit_width <= 32 else "INT64"
    if pa.types.is_float32(t):
        return "FLOAT"
    if pa.types.is_float64(t):
        return "DOUBLE"
    if pa.types.is_temporal(t):
        return "INT32" if t.bit_width == 32 else "INT64"
    if (
        pa.types.is_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_string(t)
        or pa.types.is_large_binary(t)
    ):
        return "BINARY"
    if (
        pa.types.is_fixed_size_binary(t)
        or pa.types.is_decimal(t)
        or pa.types.is_float16(t)
    ):
        # DECIMAL and FLOAT16 over FLBA, like the reference's logical-type
        # layering (LogicalTypeAnnotation.java:296-377 on PrimitiveType
        # FLBA; Float16 rides FLBA(2) per parquet-format 2.10)
        return "FIXED_LEN_BYTE_ARRAY"
    raise NotImplementedError(f"unsupported arrow type {t}")


_NUMPY_OF = {"INT32": np.int32, "INT64": np.int64, "FLOAT": np.float32, "DOUBLE": np.float64}


def _fixed_values(arr: pa.Array, ptype: str) -> np.ndarray:
    t = arr.type
    if pa.types.is_temporal(t):
        arr = arr.cast(pa.int32() if t.bit_width == 32 else pa.int64())
    elif pa.types.is_dictionary(t):
        arr = arr.dictionary_decode()
    np_dtype = _NUMPY_OF[ptype]
    if arr.null_count:
        arr = arr.drop_null()
    return arr.to_numpy(zero_copy_only=False).astype(np_dtype, copy=False)


def shred(field_name: str, arr) -> list[PhysicalColumn]:
    """Shred one Arrow column into flat physical streams, recursively (the
    Dremel shredding of `io/MessageColumnIO.java:508`, factored per nesting
    level — see the module docstring for the stream layout)."""
    import pyarrow.compute as pc

    from rayenc.codecs.dictionary import binary_parts

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        # dictionary-typed columns shred as their value type; the container's
        # own dictionary encoding re-derives the table (often smaller: sorted
        # + delta keys)
        arr = arr.dictionary_decode()
    t = arr.type
    null_mask = None
    if arr.null_count:
        null_mask = arr.is_null().to_numpy(zero_copy_only=False)

    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
        if pa.types.is_map(t):
            # maps share the list<struct<key,value>> layout — shred that view
            arr = arr.cast(
                pa.list_(pa.struct([pa.field("key", t.key_type, False),
                                    pa.field("value", t.item_type)]))
            )
        lengths = pc.list_value_length(arr)
        lengths = pc.fill_null(lengths, 0).cast(pa.int32()).to_numpy(
            zero_copy_only=False
        ).astype(np.int32)
        if null_mask is not None:
            lengths = lengths[~null_mask]  # dense contract: nulls removed
        values = pc.list_flatten(arr)  # null slots contribute no values
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        sub = shred(f"{field_name}#values", values)
        return [
            PhysicalColumn(f"{field_name}#lengths", "INT32", lengths, null_mask),
        ] + sub

    if pa.types.is_fixed_size_list(t):
        cols = []
        if null_mask is not None:
            cols.append(
                PhysicalColumn(f"{field_name}#valid", "BOOLEAN", ~null_mask)
            )
        # the child keeps all n*width slots (Arrow layout), so null parent
        # slots round-trip without re-inserting placeholder values
        width = t.list_size
        values = arr.values.slice(arr.offset * width, len(arr) * width)
        return cols + shred(f"{field_name}#values", values)

    if pa.types.is_struct(t):
        cols = []
        if null_mask is not None:
            cols.append(
                PhysicalColumn(f"{field_name}#valid", "BOOLEAN", ~null_mask)
            )
        for i, child in enumerate(t):
            cols += shred(f"{field_name}#f:{child.name}", arr.field(i))
        return cols

    ptype = physical_type(t)
    if ptype == "FIXED_LEN_BYTE_ARRAY":
        dense = arr.drop_null() if arr.null_count else arr
        # decimal storage IS fixed-width bytes — read the buffer directly
        # (pyarrow has no decimal<->fixed_size_binary cast)
        width = t.bit_width // 8
        buf = np.frombuffer(dense.buffers()[1], np.uint8)
        start = dense.offset * width
        flat = buf[start : start + len(dense) * width]
        return [
            PhysicalColumn(
                field_name, "FIXED_LEN_BYTE_ARRAY",
                flat.reshape(-1, width), null_mask,
                f16=pa.types.is_float16(t),
            )
        ]
    if ptype == "BINARY":
        if arr.null_count:
            arr_dense = arr.drop_null()
        else:
            arr_dense = arr
        offsets, data = binary_parts(arr_dense)
        return [PhysicalColumn(field_name, "BINARY", (offsets, data), null_mask)]
    if ptype == "BOOLEAN":
        dense = arr.drop_null() if arr.null_count else arr
        vals = dense.to_numpy(zero_copy_only=False).astype(bool)
        return [PhysicalColumn(field_name, "BOOLEAN", vals, null_mask)]
    return [
        PhysicalColumn(
            field_name, ptype, _fixed_values(arr, ptype), null_mask,
            unsigned=pa.types.is_unsigned_integer(t),
        )
    ]


def assemble(field: pa.Field, chunks: dict[str, tuple]) -> pa.Array:
    """Inverse of shred: rebuild the Arrow array for ``field`` from decoded
    physical streams. ``chunks[name] = (values, null_mask)``."""
    from rayenc.codecs.dictionary import binary_array

    t = field.type
    name = field.name
    if pa.types.is_dictionary(t):
        inner = assemble(pa.field(name, t.value_type), chunks)
        try:
            return inner.cast(t)
        except pa.lib.ArrowNotImplementedError:
            # e.g. int64 -> dictionary casts are unimplemented; re-encode
            # (first-occurrence order matches the decoded value order)
            return inner.dictionary_encode().cast(t)
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
        lengths, lmask = chunks[f"{name}#lengths"]
        lengths = np.asarray(lengths, np.int64)
        if lmask is not None:  # dense contract: null slots hold no length
            lengths = spread(lengths, ~np.asarray(lmask, bool))
        offsets = np.zeros(len(lengths) + 1, np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if pa.types.is_map(t):
            elem_type = pa.struct([t.key_field.with_name("key"), t.item_field.with_name("value")])
        else:
            elem_type = t.value_type
        values = assemble(pa.field(f"{name}#values", elem_type), chunks)
        off_arr = pa.array(offsets, pa.int64())
        mask = pa.array(np.asarray(lmask, bool)) if lmask is not None else None
        out = pa.LargeListArray.from_arrays(off_arr, values, mask=mask)
        if pa.types.is_map(t):
            # map shares the list-of-struct layout: rebuild via buffers
            lst = out.cast(pa.list_(elem_type))
            return pa.Array.from_buffers(
                t, len(lst), lst.buffers()[:2], children=[lst.values]
            )
        return out.cast(t)

    if pa.types.is_fixed_size_list(t):
        values = assemble(pa.field(f"{name}#values", t.value_type), chunks)
        vm = chunks.get(f"{name}#valid")
        n = len(values) // t.list_size
        if vm is None:
            return pa.FixedSizeListArray.from_arrays(values, t.list_size).cast(t)
        valid = np.asarray(vm[0], bool)
        validity = pa.array(valid).buffers()[1]
        return pa.Array.from_buffers(t, n, [validity], children=[values])

    if pa.types.is_struct(t):
        children = [
            assemble(pa.field(f"{name}#f:{c.name}", c.type), chunks) for c in t
        ]
        vm = chunks.get(f"{name}#valid")
        mask = pa.array(~np.asarray(vm[0], bool)) if vm is not None else None
        out = pa.StructArray.from_arrays(children, [c.name for c in t], mask=mask)
        if out.type != t:
            # rebuild with the exact field types (e.g. non-nullable map keys)
            out = pa.Array.from_buffers(
                t, len(out), out.buffers()[:1], children=children
            )
        return out

    values, null_mask = chunks[field.name]
    if pa.types.is_null(t):  # Parquet's UNKNOWN logical type: slots only
        return pa.nulls(len(values) if null_mask is None else len(null_mask))
    ptype = physical_type(t)
    if ptype == "FIXED_LEN_BYTE_ARRAY":
        vals = np.ascontiguousarray(values, np.uint8)
        # decimal and float16 are themselves fixed-width primitives: build
        # them straight from the byte buffer (no binary->halffloat cast
        # exists in arrow)
        direct = pa.types.is_decimal(t) or pa.types.is_float16(t)
        storage = t if direct else pa.binary(vals.shape[1])
        arr = pa.Array.from_buffers(storage, len(vals), [None, pa.py_buffer(vals)])
    elif ptype == "BINARY":
        arr = binary_array(*values)
    elif ptype == "BOOLEAN":
        arr = pa.array(np.asarray(values, bool))
    elif pa.types.is_temporal(t):
        arr = pa.array(values, pa.int32() if ptype == "INT32" else pa.int64())
    else:
        v = np.asarray(values)
        if pa.types.is_unsigned_integer(t) and t.bit_width == v.dtype.itemsize * 8:
            # same-width unsigned came through signed storage bit-identically;
            # reinterpret instead of a (range-checked) cast
            v = v.view(np.dtype(f"u{v.dtype.itemsize}"))
        arr = pa.array(v)
    arr = _restore_nulls(arr, null_mask)
    return arr if arr.type == t else arr.cast(t)


def map_leaves(t: pa.DataType, fn) -> pa.DataType:
    """``t`` with each leaf type replaced by ``fn(leaf)``, called once per
    leaf in depth-first order. Lists, large and fixed-size lists, structs,
    maps and dictionaries are rebuilt around changed leaves with their field
    names, nullability and ``keys_sorted``; an unchanged type comes back as
    it is."""
    if pa.types.is_dictionary(t):
        kids = [pa.field("", t.value_type)]
    elif pa.types.is_map(t):
        kids = [t.key_field, t.item_field]
    elif pa.types.is_struct(t):
        kids = list(t)
    elif pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        kids = [t.value_field]
    else:
        return fn(t)
    new = [f.with_type(map_leaves(f.type, fn)) for f in kids]
    if all(a.type.equals(b.type) for a, b in zip(new, kids)):
        return t
    if pa.types.is_dictionary(t):
        return pa.dictionary(t.index_type, new[0].type, t.ordered)
    if pa.types.is_map(t):
        return pa.map_(*new, t.keys_sorted)
    if pa.types.is_struct(t):
        return pa.struct(new)
    if pa.types.is_fixed_size_list(t):
        return pa.list_(new[0], t.list_size)
    return pa.large_list(new[0]) if pa.types.is_large_list(t) else pa.list_(new[0])


def spread(values, present: np.ndarray):
    """Dense stream values spread over the ``present`` slots, the type's
    zero (an empty BINARY value) elsewhere."""
    if isinstance(values, tuple):  # BINARY (offsets, data)
        offsets, data = values
        lengths = np.zeros(len(present), np.int64)
        lengths[present] = np.diff(offsets)
        return np.concatenate([[0], np.cumsum(lengths)]), data[int(offsets[0]) :]
    out = np.zeros((len(present),) + np.shape(values)[1:], np.asarray(values).dtype)
    out[present] = values
    return out


def _restore_nulls(dense: pa.Array, null_mask) -> pa.Array:
    """Scatter dense values over the valid slots of ``null_mask`` (True =
    null): one masked int64 take."""
    if null_mask is None:
        return dense
    mask = np.asarray(null_mask, bool)
    take = np.zeros(len(mask), np.int64)
    take[~mask] = np.arange(len(dense))
    return dense.take(pa.array(take, pa.int64(), mask=mask))

