"""Nested schema shredding: structs, maps, multi-level lists, nulls at every
level — through the container (blocks) and the parquet writer.

Mirrors the coverage of the reference's record shredding/assembly tests
(`parquet-column/src/test/.../io/TestColumnIO.java`,
`column/mem/TestMemColumn.java`), expressed over Arrow arrays.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import parquet_write
from rayenc.blocks import decode_block, encode_block


def gnarly_table() -> pa.Table:
    return pa.table(
        {
            "i": pa.array([1, 2, None, 4], pa.int64()),
            "s": pa.array(
                [{"a": 1, "b": "x"}, None, {"a": None, "b": "z"}, {"a": 4, "b": None}],
                pa.struct([("a", pa.int64()), ("b", pa.string())]),
            ),
            "l": pa.array([[1, 2], None, [], [None, 5]], pa.list_(pa.int32())),
            "ll": pa.array(
                [[[1.5], [None]], [], None, [[2.5, 3.5]]],
                pa.list_(pa.list_(pa.float64())),
            ),
            "m": pa.array(
                [[("k1", "v1"), ("k2", None)], None, [], [("k3", "v3")]],
                pa.map_(pa.string(), pa.string()),
            ),
            "fsl": pa.array(
                [[1, 2, 3], None, [7, 8, 9], [0, 0, 0]], pa.list_(pa.int16(), 3)
            ),
            "sl": pa.array(
                [
                    {"xs": [1, 2], "n": None},
                    {"xs": None, "n": "q"},
                    None,
                    {"xs": [], "n": "r"},
                ],
                pa.struct([("xs", pa.list_(pa.int64())), ("n", pa.string())]),
            ),
        }
    )


def random_nested_table(n=2000, seed=11) -> pa.Table:
    rng = np.random.default_rng(seed)
    ids = np.arange(n, dtype=np.int64)
    # list<string> with null lists and null elements
    lens = rng.integers(0, 5, n)
    null_list = rng.random(n) < 0.15
    counts = np.where(null_list, 0, lens)
    starts = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=starts[1:])
    total = int(counts.sum())
    words = np.array(["alpha", "beta", "gamma", "delta", "epsilon"])
    elems = words[rng.integers(0, len(words), total)]
    elem_null = rng.random(total) < 0.1
    tags = pa.ListArray.from_arrays(
        pa.array(starts, pa.int32()),
        pa.array(elems, pa.string(), mask=elem_null),
        mask=pa.array(null_list),
    )
    # struct<f1: float64 nullable, f2: list<int32>>
    f1 = pa.array(rng.normal(size=n), pa.float64(), mask=rng.random(n) < 0.2)
    l2 = rng.integers(0, 3, n)
    s2 = np.zeros(n + 1, np.int64)
    np.cumsum(l2, out=s2[1:])
    f2 = pa.ListArray.from_arrays(
        pa.array(s2, pa.int32()),
        pa.array(rng.integers(-100, 100, int(l2.sum())), pa.int32()),
    )
    st = pa.StructArray.from_arrays([f1, f2], ["f1", "f2"], mask=pa.array(rng.random(n) < 0.1))
    return pa.table({"id": pa.array(ids), "tags": tags, "st": st})


@pytest.mark.parametrize("table_fn", [gnarly_table, random_nested_table])
def test_container_nested_roundtrip(table_fn):
    t = table_fn()
    blob, manifest = encode_block(t)
    back = decode_block(blob, manifest)
    for c in t.column_names:
        assert t.column(c).combine_chunks().equals(back.column(c).combine_chunks()), c


def test_container_nested_projection():
    t = gnarly_table()
    blob, manifest = encode_block(t)
    back = decode_block(blob, manifest, columns=["s", "m"])
    assert back.column_names == ["s", "m"]
    assert t.column("m").combine_chunks().equals(back.column("m").combine_chunks())


@pytest.mark.parametrize("table_fn", [gnarly_table, random_nested_table])
def test_parquet_write_nested_pyarrow_reads(table_fn, tmp_path):
    t = table_fn()
    path = str(tmp_path / "nested.parquet")
    parquet_write.write_table(t, path)
    back = pq.read_table(path)
    for c in t.column_names:
        assert back.column(c).to_pylist() == t.column(c).to_pylist(), c


def test_parquet_write_nested_duckdb_reads(tmp_path):
    import duckdb

    t = random_nested_table()
    path = str(tmp_path / "nested.parquet")
    parquet_write.write_table(t, path, row_group_size=700)
    n, tag_sum = duckdb.sql(
        f"SELECT COUNT(*), SUM(len(tags)) FROM '{path}'"
    ).fetchone()
    assert n == t.num_rows
    import pyarrow.compute as pc

    want = pc.sum(pc.list_value_length(t.column("tags"))).as_py()
    assert tag_sum == want
    # struct child aggregation through duckdb
    f1_cnt = duckdb.sql(f"SELECT COUNT(st.f1) FROM '{path}'").fetchone()[0]
    assert f1_cnt == t.num_rows - pc.sum(
        pc.cast(pc.is_null(pc.struct_field(t.column("st").combine_chunks(), "f1")), pa.int64())
    ).as_py()


def test_parquet_write_nested_multi_row_group(tmp_path):
    t = gnarly_table()
    big = pa.concat_tables([t] * 300).combine_chunks()
    path = str(tmp_path / "big.parquet")
    parquet_write.write_table(big, path, row_group_size=256)
    back = pq.read_table(path)
    assert pq.ParquetFile(path).metadata.num_row_groups == 5
    for c in big.column_names:
        assert back.column(c).to_pylist() == big.column(c).to_pylist(), c


# ------------------------------------------- Parquet level layer regressions

_LIST_STRUCT_LIST = pa.list_(pa.struct([("a", pa.int64()), ("b", pa.list_(pa.string()))]))


@pytest.mark.parametrize("writer", ["rayenc", "pyarrow"])
def test_list_of_struct_with_inner_list_reads_back(writer, tmp_path):
    """Every leaf under a list is sliced by its own levels: an inner list
    with two or more entries must not misalign its struct siblings."""
    from rayenc.parquet_compat import read_table_conformance

    t = pa.table({
        "x": pa.array(
            [[{"a": 1, "b": ["x", "y"]}], None, [], [{"a": None, "b": None}, {"a": 3, "b": []}],
             [{"a": 4, "b": ["p", None, "q"]}, {"a": 5, "b": ["r"]}]],
            _LIST_STRUCT_LIST,
        ),
    })
    path = str(tmp_path / "lsl.parquet")
    if writer == "rayenc":
        parquet_write.write_table(t, path)
    else:
        pq.write_table(t, path)
    assert read_table_conformance(path).equals(pq.read_table(path))
    assert read_table_conformance(path).column("x").to_pylist() == t.column("x").to_pylist()


def test_pyarrow_fixed_size_list_with_null_elements_reads_back(tmp_path):
    """pyarrow stores fixed_size_list in ARROW:schema; the reader rebuilds
    it from the list levels."""
    from rayenc.parquet_compat import read_table_conformance

    fsl = pa.list_(pa.int32(), 2)
    t = pa.table({
        "f": pa.array([[1, None], [None, None], [3, 4]], fsl),
        "fs": pa.array([[{"a": 1}, None], [{"a": None}, {"a": 4}]] + [[None, None]], pa.list_(
            pa.struct([("a", pa.int64())]), 2)),
    })
    path = str(tmp_path / "fsl.parquet")
    pq.write_table(t, path)
    got = read_table_conformance(path)
    assert got.equals(pq.read_table(path))
    assert got.column("f").type == fsl


def test_null_fixed_size_list_parents_fill_child_slots(tmp_path):
    """Parquet drops the child slots of a null fixed-size list (and of a
    null struct above one); the writer takes them out of the dense values
    and the reader null-fills them back to the container's width."""
    from rayenc.parquet_compat import read_table_conformance
    from rayenc.parquet_read_enc import EncryptedFile

    fsl = pa.list_(pa.int32(), 2)
    t = pa.table({
        "f": pa.array([[1, None], None, [3, 4], None], fsl),
        "sf": pa.StructArray.from_arrays(
            [pa.array([[1, 2], [3, None], [5, 6], [7, 8]], fsl), pa.array([1, 2, 3, 4])],
            ["v", "n"], mask=pa.array([False, True, False, True]),
        ),
        "ff": pa.array([[[1, 2], None], None, [[3, None], [5, 6]], [None, [7, 8]]], pa.list_(fsl, 2)),
    })
    path = str(tmp_path / "fsl_nulls.parquet")
    parquet_write.write_table(t, path)
    # the embedded schema says list: readers see the same values
    assert read_table_conformance(path).to_pylist() == t.to_pylist()
    assert pq.read_table(path).to_pylist() == t.to_pylist()
    f = EncryptedFile(path)
    for field in t.schema:
        got = f.read_field(0, field)
        assert got.type == field.type
        assert got.to_pylist() == t.column(field.name).to_pylist(), field.name


def test_embedded_schema_keeps_element_nullability(tmp_path):
    """ARROW:schema keeps list element and map key/item fields (names,
    nullability, keys_sorted), so a read returns the written types."""
    from rayenc.parquet_compat import read_table_conformance

    t = pa.table({
        "req": pa.array([[1], [2, 3], [], [4]], pa.list_(pa.field("item", pa.int32(), False))),
        "m": pa.array([[("a", 1)], [], [("b", 2), ("c", 3)], None],
                      pa.map_(pa.string(), pa.field("value", pa.int64(), False))),
        "ls": pa.array([[{"x": 1}], [], None, [{"x": 2}]],
                       pa.list_(pa.struct([pa.field("x", pa.int64(), False)]))),
        "ms": pa.array([[("a", 1)], [], None, [("b", None)]],
                       pa.map_(pa.string(), pa.int64(), keys_sorted=True)),
    })
    path = str(tmp_path / "required.parquet")
    parquet_write.write_table(t, path)
    assert read_table_conformance(path).equals(t)


@pytest.mark.parametrize("writer", ["rayenc", "pyarrow"])
def test_required_leaf_under_null_parent_reads_back(writer, tmp_path):
    """A required leaf has no value under a null struct parent: the reader
    fills the type's zero there, as pyarrow does, instead of a null in a
    non-nullable field."""
    from rayenc.parquet_compat import read_table_conformance

    elem = pa.struct([pa.field("a", pa.int16(), False), pa.field("s", pa.string(), False),
                      pa.field("l", pa.list_(pa.int32()), False)])
    t = pa.table({
        "ls": pa.array([[{"a": 1, "s": "x", "l": [1]}, None], None, [None]], pa.list_(elem)),
        "st": pa.array([None, {"a": 2, "s": "yz", "l": []}, None], elem),
    })
    path = str(tmp_path / "req.parquet")
    if writer == "rayenc":
        parquet_write.write_table(t, path)
    else:
        pq.write_table(t, path)
    got = read_table_conformance(path)
    assert got.equals(pq.read_table(path))
    assert got.to_pylist() == t.to_pylist()
