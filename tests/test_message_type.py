"""MessageTypeParser parse direction (VERDICT r4 task 5): message-type text
-> SchemaElement dicts -> arrow schema; print->parse->print fixpoint;
``cli encode --schema`` (parquet-column/.../schema/MessageTypeParser.java)."""

import importlib.util
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import parquet_write
from rayenc.message_type import message_type_to_arrow, parse_message_type
from rayenc.parquet_read_enc import EncryptedFile, format_message_type

_spec = importlib.util.spec_from_file_location(
    "parquet_identity",
    os.path.join(os.path.dirname(__file__), "..", "scripts", "parquet_identity.py"),
)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def _catalogue() -> pa.Table:
    """The identity matrix's ``annotated`` table plus ``timestamp[s]``,
    which Parquet stores in milliseconds."""
    t = identity.annotated_table()
    for name, tz in (("ts_s", None), ("ts_s_utc", "UTC")):
        t = t.append_column(name, pa.array([i * 86_401 - 5 for i in range(t.num_rows)],
                                           pa.timestamp("s", tz)))
    return t


CATALOGUE = _catalogue().column_names
# the catalogue columns pyarrow cannot annotate the way rayenc does
_RAYENC_ONLY = set(identity.ANNOTATED.logical_annotations) | set(identity.ANNOTATED.geospatial)


@pytest.fixture(scope="module")
def catalogue(tmp_path_factory):
    t = _catalogue()
    d = tmp_path_factory.mktemp("catalogue")
    ours, theirs = str(d / "rayenc.parquet"), str(d / "pyarrow.parquet")
    parquet_write.write_table(t, ours, identity.ANNOTATED)
    pq.write_table(t, theirs, store_schema=False)
    return EncryptedFile(ours), theirs


NESTED = """message spark_schema {
  required int64 id (INTEGER(64,true));
  optional binary name (STRING);
  optional fixed_len_byte_array(16) uid (UUID);
  optional fixed_len_byte_array(7) price (DECIMAL(16,2));
  optional int32 day (DATE);
  optional int64 ts (TIMESTAMP(MICROS,true));
  optional group tags (LIST) {
    repeated group list {
      optional binary element (STRING);
    }
  }
  optional group attrs (MAP) {
    repeated group key_value {
      required binary key (STRING);
      optional double value;
    }
  }
  optional group meta {
    required int32 a;
    repeated int64 xs;
  }
}"""


@pytest.mark.parametrize("table", ["lineitem", "events", "embeddings", "documents"])
def test_fixpoint_over_real_footers(table):
    f = EncryptedFile(f"/root/testdata/sf0.001/{table}.parquet")
    s1 = format_message_type(f.schema_elems)
    assert format_message_type(parse_message_type(s1)) == s1
    assert len(message_type_to_arrow(s1)) >= 1


def test_fixpoint_nested_handwritten():
    s2 = format_message_type(parse_message_type(NESTED))
    # printed form re-parses to itself (the parser accepts its own output)
    assert format_message_type(parse_message_type(s2)) == s2


def test_arrow_conversion_shapes():
    sch = message_type_to_arrow(NESTED)
    assert sch.field("id").type == pa.int64() and not sch.field("id").nullable
    assert sch.field("name").type == pa.string()
    assert sch.field("uid").type == pa.binary(16)
    assert sch.field("price").type == pa.decimal128(16, 2)
    assert sch.field("day").type == pa.date32()
    assert sch.field("ts").type == pa.timestamp("us", "UTC")
    assert pa.types.is_list(sch.field("tags").type)
    assert sch.field("tags").type.value_type == pa.string()
    assert pa.types.is_map(sch.field("attrs").type)
    assert sch.field("attrs").type.item_type == pa.float64()
    meta = sch.field("meta").type
    assert pa.types.is_struct(meta) and pa.types.is_list(meta.field("xs").type)


def test_legacy_annotation_spellings():
    txt = """message m {
  required binary s (UTF8);
  optional int32 u8 (UINT_8);
  optional int32 i16 (INT_16);
  optional int64 tsm (TIMESTAMP_MILLIS);
  optional int64 tmu (TIME_MICROS);
  optional binary j (JSON);
}"""
    sch = message_type_to_arrow(txt)
    assert sch.field("s").type == pa.string()
    assert sch.field("u8").type == pa.uint8()
    assert sch.field("i16").type == pa.int16()
    assert sch.field("tsm").type == pa.timestamp("ms", "UTC")
    assert sch.field("tmu").type == pa.time64("us")
    # pyarrow derives binary for a JSON leaf (and for ENUM and BSON)
    assert sch.field("j").type == pa.binary()
    # legacy spellings normalize to the modern printed annotations
    printed = format_message_type(parse_message_type(txt))
    assert "(STRING)" in printed and "(INTEGER(8,false))" in printed
    assert "(TIMESTAMP(MILLIS,true))" in printed


def test_field_ids_and_errors():
    elems = parse_message_type("message m { required int32 a = 7; }")
    assert elems[1][9] == 7
    with pytest.raises(ValueError, match="repetition"):
        parse_message_type("message m { int32 a; }")
    with pytest.raises(ValueError, match="unknown primitive"):
        parse_message_type("message m { required varchar a; }")
    with pytest.raises(ValueError, match="unknown annotation"):
        parse_message_type("message m { required int32 a (BOGUS); }")
    # int96 leaves map to timestamp[ns] (the writer stores INT64 unless
    # EncodeConfig(int96_timestamps=True) opts into the legacy physical)
    import pyarrow as pa

    t96 = message_type_to_arrow("message m { required int96 t; }")
    assert t96.field("t").type == pa.timestamp("ns")


def test_write_path_with_declared_schema(tmp_path):
    # message-type string as the declared write schema: input casts to it
    txt = """message m {
  required int64 l_orderkey;
  optional int32 l_linenumber;
  optional binary l_returnflag (STRING);
}"""
    sch = message_type_to_arrow(txt)
    src = pq.read_table(
        "/root/testdata/sf0.001/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_returnflag"],
    )
    cast = src.cast(pa.schema(
        [sch.field(n) for n in src.column_names]
    ))
    from rayenc import parquet_write

    path = str(tmp_path / "declared.parquet")
    parquet_write.write_table(cast, path)
    f = EncryptedFile(path)
    printed = format_message_type(f.schema_elems)
    assert "required int64 l_orderkey" in printed
    assert "optional int32 l_linenumber" in printed
    back = pq.read_table(path)
    assert back.column("l_orderkey").to_pylist() == src.column("l_orderkey").to_pylist()


@pytest.mark.parametrize("column", CATALOGUE)
def test_leaf_catalogue_maps_through_one_layer(catalogue, column):
    f, theirs = catalogue
    i = CATALOGUE.index(column)
    text = format_message_type(f.schema_elems)
    # 1. print -> parse gives back the footer element. The text names one
    # annotation; where the footer holds only one of its two spellings
    # (LogicalType or legacy ConvertedType) the parser adds the other
    written = {**f.schema_elems[i + 1], 4: column}
    parsed = parse_message_type(text)[i + 1]
    assert {k: parsed[k] for k in written} == written
    extra = set(parsed) - set(written)
    assert not extra or extra == {6} and 10 in written or extra == {10} and 6 in written
    # 2. the printed text derives the reader's no-ARROW:schema type
    derived = message_type_to_arrow(f.schema_elems).field(column)
    assert message_type_to_arrow(text).field(column) == derived
    # 3. ... which is pyarrow's, for a type pyarrow can write
    if column not in _RAYENC_ONLY:
        assert derived == pq.read_schema(theirs).field(column)
        assert EncryptedFile(theirs).arrow_schema().field(column) == derived
