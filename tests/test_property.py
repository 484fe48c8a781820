"""Property-based round-trip tests (hypothesis) over the codec kernels.

The reference suite is seeded-random; hypothesis searches the input space
adversarially (degenerate runs, boundary values, tiny/huge alphabets)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from rayenc.codecs import delta_bp, delta_strings, fsst, rle_for, rle_hybrid
from rayenc.codecs.dictionary import binary_array, binary_parts
from rayenc import blocks

SETTINGS = dict(max_examples=40, deadline=None)


# run lengths weighted toward 8-14, where the rle-run decision depends on the
# bit-packed span before the run
_RUN_LENGTHS = st.sampled_from(list(range(1, 21)) + list(range(8, 15)) * 3)


@st.composite
def _run_structured(draw):
    width = draw(st.integers(0, 32))
    value = st.integers(0, (1 << width) - 1)
    runs = draw(st.lists(st.tuples(value, _RUN_LENGTHS), max_size=150))
    return [v for v, k in runs for _ in range(k)][:1200], width


@given(case=_run_structured())
@settings(max_examples=80, deadline=None)
def test_rle_hybrid_roundtrip_and_scalar_parity(case):
    vals, width = case
    arr = np.array(vals, np.uint64)
    fast = rle_hybrid.encode(arr, width)
    assert fast == rle_hybrid.encode_scalar(vals, width)
    assert rle_hybrid.Plan(arr, width).size == len(fast)
    if len(arr):
        np.testing.assert_array_equal(rle_hybrid.decode(fast, len(arr), width), arr)


@given(vals=st.lists(st.integers(-(2**31), 2**31 - 1), max_size=700))
@settings(**SETTINGS)
def test_delta_bp_int32_roundtrip(vals):
    arr = np.array(vals, np.int32)
    np.testing.assert_array_equal(delta_bp.decode(delta_bp.encode(arr), np.int32), arr)


@given(vals=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300))
@settings(**SETTINGS)
def test_delta_bp_int64_roundtrip(vals):
    arr = np.array(vals, np.int64)
    np.testing.assert_array_equal(delta_bp.decode(delta_bp.encode(arr), np.int64), arr)


@given(vals=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=400))
@settings(**SETTINGS)
def test_rle_for_roundtrip_or_inapplicable(vals):
    arr = np.array(vals, np.int64)
    buf = rle_for.encode(arr)
    if buf is None:
        assert int(arr.max()) - int(arr.min()) >= 1 << 32
    else:
        np.testing.assert_array_equal(rle_for.decode(buf, len(arr), np.int64), arr)


@given(strings=st.lists(st.text(max_size=40), max_size=200))
@settings(**SETTINGS)
def test_delta_strings_roundtrip(strings):
    offsets, data = binary_parts(pa.array(strings, pa.string()))
    o, d = delta_strings.decode(delta_strings.encode(offsets, data), len(strings))
    assert binary_array(o, d).cast(pa.string()).to_pylist() == strings


@given(strings=st.lists(st.binary(max_size=60), max_size=150))
@settings(max_examples=25, deadline=None)
def test_fsst_roundtrip_arbitrary_bytes(strings):
    arr = pa.array(strings, pa.binary())
    offsets, data = binary_parts(arr)
    buf = fsst.encode_column(offsets, data)
    o, d = fsst.decode_column(buf, len(strings))
    got = binary_array(o, d).cast(pa.binary()).to_pylist()
    assert got == strings


@given(
    ints=st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=300),
    strs=st.lists(st.text(max_size=20), min_size=1, max_size=300),
)
@settings(max_examples=20, deadline=None)
def test_block_roundtrip_mixed(ints, strs):
    n = min(len(ints), len(strs))
    table = pa.table(
        {
            "i": pa.array(ints[:n], pa.int32()),
            "s": pa.array(strs[:n], pa.string()),
        }
    )
    blob, manifest = blocks.encode_block(table)
    assert blocks.decode_block(blob, manifest).equals(table)


# ---------------------------------------------------- nested schema property

_prims = st.sampled_from(
    [pa.int64(), pa.int32(), pa.float64(), pa.string(), pa.bool_()]
)


def _nested_types(depth):
    if depth == 0:
        return _prims
    inner = _nested_types(depth - 1)
    return st.one_of(
        _prims,
        inner.map(pa.list_),
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), inner),
            min_size=1, max_size=3, unique_by=lambda kv: kv[0],
        ).map(lambda fs: pa.struct(fs)),
    )


@st.composite
def _nested_arrays(draw):
    t = draw(_nested_types(2))
    n = draw(st.integers(0, 25))
    pyvals = draw(
        st.lists(_pyval_for(t, 2), min_size=n, max_size=n)
    )
    return pa.array(pyvals, t)


def _pyval_for(t, depth):
    if pa.types.is_integer(t):
        base = st.integers(-(2**31), 2**31 - 1)
    elif pa.types.is_floating(t):
        base = st.floats(allow_nan=False, width=32)
    elif pa.types.is_string(t):
        base = st.text(max_size=8)
    elif pa.types.is_boolean(t):
        base = st.booleans()
    elif pa.types.is_list(t):
        base = st.lists(_pyval_for(t.value_type, depth - 1), max_size=4)
    elif pa.types.is_struct(t):
        base = st.fixed_dictionaries(
            {f.name: _pyval_for(f.type, depth - 1) for f in t}
        )
    else:
        raise AssertionError(t)
    return st.one_of(st.none(), base)


@given(arr=_nested_arrays())
@settings(max_examples=30, deadline=None)
def test_nested_shred_roundtrip_property(arr):
    t = pa.table({"x": arr})
    blob, manifest = blocks.encode_block(t)
    back = blocks.decode_block(blob, manifest)
    assert back.column("x").combine_chunks().equals(arr)


@given(arr=_nested_arrays())
@settings(max_examples=20, deadline=None)
def test_nested_parquet_write_property(arr):
    import tempfile

    import pyarrow.parquet as pq

    from rayenc import parquet_write

    t = pa.table({"x": arr})
    path = tempfile.mktemp(suffix=".parquet")
    parquet_write.write_table(t, path)
    assert pq.read_table(path).column("x").to_pylist() == arr.to_pylist()


# ---------------------------------------------------------------- round 3

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**62), 2**62),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=80),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


@given(v=json_values)
@settings(**SETTINGS)
def test_variant_value_roundtrip_property(v):
    from rayenc import variant as V

    m = V.Metadata()
    assert V.decode_value(V.encode_value(v, m), m) == v


@given(data=st.lists(st.binary(max_size=120), max_size=60))
@settings(**SETTINGS)
def test_xxh64_batch_matches_scalar_property(data):
    from rayenc.codecs.xxh import xxh64, xxh64_bytes

    offs = np.zeros(len(data) + 1, np.int64)
    offs[1:] = np.cumsum([len(s) for s in data])
    flat = np.frombuffer(b"".join(data), np.uint8)
    got = xxh64_bytes(offs, flat)
    assert got.tolist() == [xxh64(s) for s in data]


nested_rows = st.lists(
    st.one_of(
        st.none(),
        st.lists(
            st.one_of(
                st.none(),
                st.lists(st.one_of(st.none(), st.integers(-100, 100)), max_size=3),
            ),
            max_size=3,
        ),
    ),
    min_size=0,
    max_size=40,
)


@given(rows=nested_rows, extra=st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=40))
@settings(max_examples=25, deadline=None)
def test_general_assembly_two_level_lists_property(rows, extra):
    """write (our Dremel writer) -> read (assemble_tree) identity on random
    list<list<int64>> shapes incl. empty/null at every level."""
    import tempfile

    from rayenc import parquet_write
    from rayenc.parquet_compat import read_table_conformance

    n = len(rows)
    t = pa.table(
        {
            "ll": pa.array(rows, pa.list_(pa.list_(pa.int64()))),
            "x": pa.array((extra + [0] * n)[:n], pa.int64()),
        }
    )
    if n == 0:
        return
    path = tempfile.mktemp(suffix=".parquet")
    parquet_write.write_table(t, path)
    got = read_table_conformance(path)
    assert got.cast(t.schema).equals(t)


flat_tables = st.integers(1, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.one_of(st.none(), st.integers(-(2**40), 2**40)),
                 min_size=n, max_size=n),
        st.lists(st.one_of(st.none(), st.text(max_size=20)),
                 min_size=n, max_size=n),
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                 min_size=n, max_size=n),
    )
)


@given(cols=flat_tables)
@settings(max_examples=20, deadline=None)
def test_encrypted_roundtrip_property(cols):
    """write_table(encryption) -> read_table_encrypted identity on random
    flat tables with nulls (hypothesis searches degenerate shapes: all-null
    columns, empty strings, single rows)."""
    import tempfile

    from rayenc import parquet_write
    from rayenc.parquet_crypto import FileDecryption, FileEncryption
    from rayenc.parquet_read_enc import read_table_encrypted

    ints, strs, floats = cols
    t = pa.table(
        {
            "i": pa.array(ints, pa.int64()),
            "s": pa.array(strs, pa.string()),
            "f": pa.array(floats, pa.float64()),
        }
    )
    path = tempfile.mktemp(suffix=".parquet")
    fk = b"0123456789abcdef"
    parquet_write.write_table(
        t, path, row_group_size=16, encryption=FileEncryption(footer_key=fk)
    )
    got = read_table_encrypted(path, FileDecryption(footer_key=fk))
    assert got.cast(t.schema).equals(t)


struct_list_rows = st.lists(
    st.one_of(
        st.none(),
        st.lists(
            st.one_of(
                st.none(),
                st.fixed_dictionaries(
                    {"x": st.one_of(st.none(), st.integers(-50, 50)),
                     "y": st.one_of(st.none(), st.text(max_size=6))}
                ),
            ),
            max_size=3,
        ),
    ),
    max_size=30,
)


@given(rows=struct_list_rows)
@settings(max_examples=25, deadline=None)
def test_general_assembly_list_of_struct_property(rows):
    import tempfile

    from rayenc import parquet_write
    from rayenc.parquet_compat import read_table_conformance

    if not rows:
        return
    t = pa.table(
        {
            "ls": pa.array(
                rows, pa.list_(pa.struct([("x", pa.int64()), ("y", pa.string())]))
            ),
            "k": pa.array(range(len(rows)), pa.int64()),
        }
    )
    path = tempfile.mktemp(suffix=".parquet")
    parquet_write.write_table(t, path)
    got = read_table_conformance(path)
    assert got.cast(t.schema).equals(t)


_ints = st.one_of(st.none(), st.integers(-50, 50))
_strs = st.one_of(st.none(), st.sampled_from(["", "x", "yz", "uvw"]))
_REQ = pa.list_(pa.field("item", pa.int32(), False))
_FSL = pa.list_(pa.int32(), 2)


@st.composite
def _level_tables(draw):
    """One table with every nested shape the Parquet level layer maps:
    struct with null parents over non-null children, list<struct<a,
    list<string>>>, map with null values and empty maps, list<list<int64>>
    with null and empty lists at each level, a non-nullable list of
    required elements, a dictionary leaf and a fixed-size list with null
    elements."""
    n = draw(st.integers(1, 12))
    rows = lambda elem: draw(st.lists(elem, min_size=n, max_size=n))  # noqa: E731
    lists = lambda elem: st.one_of(st.none(), st.lists(elem, max_size=3))  # noqa: E731
    struct = pa.StructArray.from_arrays(
        [pa.array(rows(_ints), pa.int64()), pa.array(rows(_strs), pa.string())], ["a", "b"],
        mask=pa.array(rows(st.booleans())),
    )
    lsl = rows(lists(st.one_of(st.none(), st.fixed_dictionaries({"a": _ints, "b": lists(_strs)}))))
    maps = rows(st.one_of(st.none(), st.dictionaries(st.sampled_from("kpq"), _strs, max_size=3)))
    t = pa.table({
        "st": struct,
        "lsl": pa.array(lsl, pa.list_(pa.struct([("a", pa.int64()), ("b", pa.list_(pa.string()))]))),
        "m": pa.array([None if m is None else list(m.items()) for m in maps],
                      pa.map_(pa.string(), pa.string())),
        "ll": pa.array(rows(lists(lists(_ints))), pa.list_(pa.list_(pa.int64()))),
        "req": pa.array(rows(st.lists(st.integers(0, 9), max_size=3)), _REQ),
        "dic": pa.array(rows(_strs), pa.string()).dictionary_encode(),
        "fsl": pa.array(rows(st.lists(_ints, min_size=2, max_size=2)), _FSL),
    })
    return t.cast(t.schema.set(4, pa.field("req", _REQ, False)))


def _check_page_bookkeeping(path):
    """Every chunk's page and chunk counts in a written file equal those
    of the levels decoded from it: the footer null count, the SizeStatistics
    level histograms, each page's num_values (and a repeated page's first
    rep level 0), V2 num_rows/num_nulls, the ColumnIndex null counts and
    the OffsetIndex first_row_index."""
    from rayenc.parquet_compat import DATA_PAGE_V2, DICTIONARY_PAGE
    from rayenc.parquet_read_enc import EncryptedFile, _parse_index

    f = EncryptedFile(path)
    for i, leaf in enumerate(f.leaves):
        md = f.chunk_meta(0, i)
        _, rep, dfv = f.decode_leaf(0, i)
        slots = md[5]
        null = np.zeros(slots, bool) if dfv is None else dfv < leaf.max_def
        first = np.ones(slots, bool) if rep is None else rep == 0
        assert md[12][3] == null.sum()
        hist = md.get(16, {})
        if rep is not None:
            assert hist[2] == np.bincount(rep, minlength=leaf.max_rep + 1).tolist()
        if dfv is not None:
            assert hist[3] == np.bincount(dfv, minlength=leaf.max_def + 1).tolist()
        a, rows, nulls = 0, [], []
        for h, _ in f._chunk_pages(0, i, md):
            if h.type == DICTIONARY_PAGE:
                continue
            b = a + h.num_values
            assert first[a]  # pages start on a record
            rows.append(int(first[a:b].sum()))
            nulls.append(int(null[a:b].sum()))
            if h.type == DATA_PAGE_V2:
                assert (h.v2_num_rows, h.v2_num_nulls) == (rows[-1], nulls[-1])
            a = b
        assert a == slots
        index = _parse_index(f, 0, i)
        if index is not None:
            cidx, oidx = index
            assert cidx[5] == nulls
            assert [loc[3] for loc in oidx[1]] == np.cumsum([0, *rows[:-1]]).tolist()


@given(t=_level_tables(), page_rows=st.sampled_from([1, 2, 3, 20_000]), v2=st.booleans())
@settings(max_examples=40, deadline=None)
def test_parquet_levels_match_pyarrow_oracle(t, page_rows, v2):
    """pyarrow as the oracle of the Parquet level layer: rayenc writes the
    same rep/def levels as pyarrow for every leaf, pyarrow reads rayenc's
    file back as the input, rayenc reads pyarrow's file as pyarrow does,
    and the writer shreds each top-level field once. Small pages put page
    cuts next to empty lists, null lists and null elements, in V1 and V2
    pages, and each page's counts must match its levels."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from rayenc import parquet_write
    from rayenc.parquet_compat import read_column_chunk, read_table_conformance
    from rayenc.selector import EncodeConfig

    cfg = EncodeConfig(page_rows=page_rows, parquet_page_version="2.0" if v2 else "1.0")
    calls = []
    shred = parquet_write.shred
    with tempfile.TemporaryDirectory() as d:
        ours, theirs = os.path.join(d, "ours.parquet"), os.path.join(d, "theirs.parquet")
        parquet_write.shred = lambda *a: calls.append(a[0]) or shred(*a)
        try:
            parquet_write.write_table(t, ours, cfg)
        finally:
            parquet_write.shred = shred
        _check_page_bookkeeping(ours)
        assert calls == t.column_names
        pq.write_table(t, theirs, use_dictionary=False)

        paths = [c.path for c in pq.ParquetFile(theirs).schema]
        assert paths == [c.path for c in pq.ParquetFile(ours).schema]
        for leaf in paths:
            _, rep_o, def_o = read_column_chunk(ours, leaf, raw_levels=True)
            _, rep_t, def_t = read_column_chunk(theirs, leaf, raw_levels=True)
            for a, b in ((rep_o, rep_t), (def_o, def_t)):
                assert (a is None) == (b is None), leaf
                assert a is None or np.array_equal(a, b), leaf

        want = t.set_column(5, "dic", t.column("dic").cast(pa.string())).set_column(
            6, "fsl", t.column("fsl").cast(pa.list_(pa.int32())))
        assert pq.read_table(ours).equals(want)
        assert read_table_conformance(theirs).equals(pq.read_table(theirs))


@given(
    unscaled=st.lists(
        st.integers(-(10**49), 10**49), min_size=1, max_size=120
    ),
    nulls=st.lists(st.booleans(), max_size=120),
)
@settings(max_examples=25, deadline=None)
def test_decimal256_conformance_roundtrip(unscaled, nulls, tmp_path_factory):
    """decimal256(50,10) FLBA write -> conformance read (round-4 VERDICT
    #6: the last read-what-we-write hole)."""
    import decimal
    import tempfile

    from rayenc import parquet_write
    from rayenc.parquet_compat import read_table_conformance

    vals = [
        None
        if i < len(nulls) and nulls[i]
        else decimal.Decimal(u).scaleb(-10)
        for i, u in enumerate(unscaled)
    ]
    t = pa.table({"d": pa.array(vals, pa.decimal256(50, 10))})
    out = tempfile.mktemp(suffix=".parquet", dir="/tmp")
    parquet_write.write_table(t, out, row_group_size=50)
    got = read_table_conformance(out)
    assert got.cast(t.schema).equals(t)


_prim_types = st.sampled_from(
    ["int32", "int64", "float32", "float64", "string"]
)


@st.composite
def _schema_pair(draw):
    """Two schemas over a shared name pool with random presence/types."""
    import pyarrow as pa

    names = draw(st.lists(
        st.text("abcdef", min_size=1, max_size=4), min_size=1, max_size=6,
        unique=True,
    ))
    def build():
        fields = []
        for n in names:
            mode = draw(st.sampled_from(["skip", "use"]))
            if mode == "skip":
                continue
            fields.append(pa.field(n, getattr(pa, draw(_prim_types))()))
        return pa.schema(fields)
    return build(), build()


@given(_schema_pair())
@settings(max_examples=60, deadline=None)
def test_union_schemas_properties(pair):
    """MessageType.union laws: first-schema order preserved, every input
    field present, idempotent; non-strict widening (when it succeeds)
    admits lossless casts from both sides."""
    import pyarrow as pa

    from rayenc.parquet_compat import IncompatibleSchemaError, union_schemas

    a, b = pair
    for strict in (True, False):
        try:
            u = union_schemas([a, b], strict=strict)
        except IncompatibleSchemaError:
            if strict:
                continue
            # non-strict only refuses when no lossless widening exists
            bad = [
                n for n in a.names if n in b.names
                and not a.field(n).type.equals(b.field(n).type)
            ]
            assert bad
            continue
        assert u.names == a.names + [n for n in b.names if n not in a.names]
        # idempotent: union with itself is itself
        assert union_schemas([u, u], strict=strict).equals(u)
        # every widened type admits a lossless cast from both input types
        for n in u.names:
            for s in (a, b):
                if n in s.names:
                    src, dst = s.field(n).type, u.field(n).type
                    arr = pa.nulls(1, src)
                    arr.cast(dst)  # raises if arrow deems it unsafe


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_align_table_preserves_values_property(data):
    """align_table: present column values survive the widening cast,
    absent columns are fully null."""
    import numpy as np
    import pyarrow as pa

    from rayenc.parquet_compat import align_table

    n = data.draw(st.integers(1, 20))
    vals = data.draw(st.lists(
        st.integers(-(2 ** 31) + 1, 2 ** 31 - 1), min_size=n, max_size=n
    ))
    t = pa.table({"x": pa.array(vals, pa.int32())})
    uni = pa.schema([("x", pa.int64()), ("y", pa.float64())])
    out = align_table(t, uni)
    assert out.schema.equals(uni)
    assert out.column("x").to_pylist() == vals
    assert out.column("y").null_count == n


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_slice_by_bytes_property(data):
    """Byte-flush slicing: slices concatenate back to the input, none is
    empty, and every slice but the last stays within one max-row overshoot
    of the target."""
    import numpy as np
    import pyarrow as pa

    from rayenc.parquet_write import _row_byte_sizes, _slice_by_bytes

    n = data.draw(st.integers(1, 200))
    lens = data.draw(st.lists(st.integers(0, 300), min_size=n, max_size=n))
    t = pa.table({
        "s": pa.array(["x" * l for l in lens]),
        "i": pa.array(range(n), pa.int64()),
    })
    target = data.draw(st.integers(64, 4096))
    slices = _slice_by_bytes(t, target)
    assert all(s.num_rows > 0 for s in slices)
    assert pa.concat_tables(slices).equals(t)
    per_row = _row_byte_sizes(t)
    hi = target + int(per_row.max())
    for s in slices[:-1]:
        assert int(_row_byte_sizes(s).sum()) <= hi


@given(data=st.binary(max_size=4000))
@settings(max_examples=60, deadline=None)
def test_lz4_pure_decoder_matches_arrow(data):
    # pure-python LZ4 block decoder (lz4hadoop chunk-size inference path)
    from rayenc.codecs.lz4hadoop import _lz4_block_decompress

    comp = pa.Codec("lz4_raw").compress(data).to_pybytes()
    assert _lz4_block_decompress(comp) == data


@given(data=st.binary(max_size=300_000))
@settings(max_examples=20, deadline=None)
def test_lz4_hadoop_frame_roundtrip(data):
    from rayenc.codecs.lz4hadoop import Lz4HadoopCodec

    c = Lz4HadoopCodec()
    assert c.decompress(c.compress(data).to_pybytes(), len(data)) == data


# --- message-type parser fixpoint over random schemas -----------------

_MT_NAME = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_MT_PRIM = st.sampled_from([
    "boolean", "int32", "int64", "float", "double", "binary",
    "fixed_len_byte_array(5)",
])
_MT_ANN = st.sampled_from([
    "", " (STRING)", " (DECIMAL(9,2))", " (DATE)", " (JSON)",
    " (TIMESTAMP(MICROS,true))", " (INTEGER(32,false))", " (UUID)",
])
_MT_REP = st.sampled_from(["required", "optional", "repeated"])


def _mt_field(draw, depth, used):
    name = draw(_MT_NAME)
    while name in used or name in ("message", "group", "required",
                                   "optional", "repeated"):
        name = draw(_MT_NAME)
    used.add(name)
    rep = draw(_MT_REP)
    if depth > 0 and draw(st.booleans()):
        inner_used: set = set()
        n = draw(st.integers(1, 3))
        kids = "\n".join(_mt_field(draw, depth - 1, inner_used) for _ in range(n))
        return f"{rep} group {name} {{\n{kids}\n}}"
    prim = draw(_MT_PRIM)
    ann = draw(_MT_ANN)
    if prim.startswith("fixed") and ann in (" (STRING)", " (JSON)"):
        ann = ""  # string annotations need BINARY physical
    if ann in (" (DECIMAL(9,2))",) and prim not in (
        "int32", "int64", "binary", "fixed_len_byte_array(5)"
    ):
        ann = ""
    if ann in (" (DATE)", " (INTEGER(32,false))") and prim != "int32":
        ann = ""
    if ann == " (TIMESTAMP(MICROS,true))" and prim != "int64":
        ann = ""
    if ann == " (UUID)" and prim != "fixed_len_byte_array(5)":
        ann = ""
    return f"{rep} {prim} {name}{ann};"


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_message_type_parse_print_fixpoint(data):
    from rayenc.message_type import parse_message_type
    from rayenc.parquet_read_enc import format_message_type

    used: set = set()
    n = data.draw(st.integers(1, 4))
    body = "\n".join(_mt_field(data.draw, 2, used) for _ in range(n))
    txt = f"message m {{\n{body}\n}}"
    printed = format_message_type(parse_message_type(txt))
    # the printer's output is the canonical form: parse->print is idempotent
    assert format_message_type(parse_message_type(printed)) == printed


@given(
    data=st.binary(max_size=4000),
    reps=st.integers(1, 4),
    cut_frac=st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_lzo1x_roundtrip_property(data, reps, cut_frac):
    from rayenc.codecs.lzo import lzo1x_compress, lzo1x_decompress

    # splice in self-repeats so hypothesis exercises match opcodes
    # (M2/M3, S-bit literals, overlapping copies), not just literal runs
    if len(data) > 4:
        cut = max(1, int(len(data) * cut_frac))
        data = data[:cut] * reps + data[cut:]
    assert lzo1x_decompress(lzo1x_compress(data)) == data
