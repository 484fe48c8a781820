"""The one thrift compact spec (rayenc.thrift): every struct the Parquet
writer emits parses and re-emits byte for byte, and every dict drawn from a
spec survives emit -> parse."""

import struct

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from rayenc import data, parquet_crypto as pcrypt, parquet_write
from rayenc.parquet_compat import DICTIONARY_PAGE
from rayenc.parquet_crypto import FileDecryption, FileEncryption
from rayenc.parquet_read_enc import EncryptedFile, chunk_range
from rayenc.selector import EncodeConfig
from rayenc.thrift import (
    BLOOM_HEADER,
    COLUMN_INDEX,
    COLUMN_META,
    FILE_CRYPTO_META,
    FILE_META,
    LOGICAL_TYPE,
    OFFSET_INDEX,
    PAGE_HEADER,
    SCHEMA_ELEMENT,
    _read_struct,
    _thrift,
)

FK = b"0123456789abcdef"
CK = b"fedcba9876543210"


def _module(f, key, off, mtype, rg, col, page=-1):
    """(buffer, offset) of the struct at file offset ``off``: the file
    itself, or the decrypted module when ``key`` is set."""
    if key is None:
        return f.raw, off
    aad = pcrypt.module_aad(f.file_aad, mtype, rg, col, page)
    pt, _ = pcrypt.decrypt_module(key, f.raw, off, aad)
    return pt, 0


def _structs(path, dec=None):
    """(kind, spec, struct bytes) for every thrift struct in ``path``:
    footer, crypto metadata, decrypted column metadata, page headers, page
    indexes and bloom headers."""
    f = EncryptedFile(path, dec)
    raw = f.raw
    (flen,) = struct.unpack("<i", raw[-8:-4])
    region = bytes(raw[len(raw) - 8 - flen : -8])
    md, end = _read_struct(region)
    if raw[-4:] == pcrypt.MAGIC_ENCRYPTED:
        yield "file_crypto_meta", FILE_CRYPTO_META, region[:end]
        pt, _ = pcrypt.decrypt_module(f.footer_key, region, end,
                                      pcrypt.module_aad(f.file_aad, pcrypt.M_FOOTER))
        yield "file_meta", FILE_META, pt
    else:
        yield "file_meta_signed" if 8 in md else "file_meta", FILE_META, region[:end]
    for rg, group in enumerate(f.row_groups):
        for col, cc in enumerate(group[1]):
            key = f._chunk_key(rg, col)
            if 9 in cc:
                pt, _ = pcrypt.decrypt_module(
                    key, cc[9], 0, pcrypt.module_aad(f.file_aad, pcrypt.M_COLUMN_METADATA, rg, col))
                yield "column_meta_decrypted", COLUMN_META, pt
            cmd = f.chunk_meta(rg, col)
            pos, stop = chunk_range(cmd)
            page_ord = 0
            while pos < stop:
                is_dict = pos == cmd.get(11)
                mtype = pcrypt.M_DICT_PAGE_HEADER if is_dict else pcrypt.M_DATA_PAGE_HEADER
                buf, at = _module(f, key, pos, mtype, rg, col, -1 if is_dict else page_ord)
                hdr, hend = _read_struct(buf, at)
                kind = {0: "page_v1", 2: "page_dict", 3: "page_v2"}[hdr[1]]
                yield kind if 4 in hdr else kind + "_no_crc", PAGE_HEADER, bytes(buf[at:hend])
                _, _, pos = f.read_page(rg, col, pos, None if is_dict else page_ord)
                if hdr[1] != DICTIONARY_PAGE:
                    page_ord += 1
            if 6 in cc:
                for kind, spec, off, mtype in (
                    ("column_index", COLUMN_INDEX, cc[6], pcrypt.M_COLUMN_INDEX),
                    ("offset_index", OFFSET_INDEX, cc[4], pcrypt.M_OFFSET_INDEX),
                ):
                    buf, at = _module(f, key, off, mtype, rg, col)
                    yield kind, spec, bytes(buf[at:_read_struct(buf, at)[1]])
            if 14 in cmd:
                buf, at = _module(f, key, cmd[14], pcrypt.M_BLOOM_HEADER, rg, col)
                yield "bloom_header", BLOOM_HEADER, bytes(buf[at:_read_struct(buf, at)[1]])


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """(path, decryption) for files across the writer's config matrix."""
    d = tmp_path_factory.mktemp("thrift")
    n = 3000
    rng = np.random.default_rng(6)
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n, dtype=np.int64) * 4),
        "o_custkey": pa.array(rng.integers(1, 500, n)),
        "o_orderpriority": pa.array([f"{i % 5}-PRIORITY" for i in range(n)]),
        "o_totalprice": pa.array(rng.random(n) * 1e5),
        "o_comment": pa.array([None if i % 11 == 0 else f"comment {i * 7 % 997}" for i in range(n)]),
    })
    tokens = data.make_table(800, mean_tokens=20.0)
    bloom = EncodeConfig(bloom_columns={"o_custkey"}, compression="zstd")
    cases = [
        ("v1", orders, bloom, None, {"sorting_columns": [("o_orderkey", False, True)],
                                      "key_value_metadata": {"k": "v"}}),
        ("v2", tokens, EncodeConfig(parquet_page_version="2.0", bloom_columns={"doc_id"}),
         None, {}),
        ("footer_key", orders, bloom, FileEncryption(footer_key=FK, footer_key_metadata=b"fk"), {}),
        ("column_key", orders, EncodeConfig(parquet_page_version="2.0"),
         FileEncryption(footer_key=FK, column_keys={"o_comment": CK},
                        column_key_metadata={"o_comment": b"ck"}), {}),
        ("plaintext_footer", orders, bloom,
         FileEncryption(footer_key=FK, plaintext_footer=True, column_keys={"o_comment": CK}), {}),
        ("gcm_ctr", orders, bloom, FileEncryption(footer_key=FK, algorithm="AES_GCM_CTR_V1"), {}),
    ]
    out = []
    for name, table, cfg, enc, kw in cases:
        path = str(d / f"{name}.parquet")
        parquet_write.write_table(table, path, cfg, encryption=enc, row_group_size=1000, **kw)
        out.append((path, FileDecryption(footer_key=FK, column_keys={"o_comment": CK})))
    for ver in ("1.0", "2.0"):  # headers without a CRC, as pyarrow writes them
        path = str(d / f"pyarrow_{ver}.parquet")
        pq.write_table(orders, path, data_page_version=ver)
        out.append((path, None))
    return out


def test_writer_structs_reemit_byte_identical(written):
    seen = set()
    for path, dec in written:
        for kind, spec, b in _structs(path, dec):
            seen.add(kind)
            assert _thrift(spec, _read_struct(b)[0]) == b, (path, kind)
    assert seen >= {
        "file_meta", "file_meta_signed", "file_crypto_meta", "column_meta_decrypted",
        "page_v1", "page_v2", "page_dict", "page_v1_no_crc", "page_v2_no_crc",
        "page_dict_no_crc", "column_index", "offset_index", "bloom_header",
    }, seen


def test_compact_edge_cases():
    # field-id jump > 15: type nibble alone, then the id as a zigzag varint
    assert _thrift(LOGICAL_TYPE, {17: {}}) == b"\x0c\x22\x00\x00"
    # a bool field lives in the type nibble; a bool list element is 1 / 2
    assert _thrift(COLUMN_INDEX, {1: [True, False]}) == b"\x19\x21\x01\x02\x00"
    # a list of >= 15 elements takes the long size form
    assert _thrift(COLUMN_INDEX, {5: [0] * 15})[:3] == b"\x59\xf6\x0f"
    # an unsigned 32-bit CRC is emitted as thrift's signed i32
    assert _read_struct(_thrift(PAGE_HEADER, {4: 0xFFFFFFFF}))[0] == {4: -1}
    # fields a spec does not name are not emitted
    plain = _thrift(SCHEMA_ELEMENT, {4: b"x"})
    assert _thrift(SCHEMA_ELEMENT, {4: b"x", 99: 1, "_note": 0}) == plain


_RANGES = {"i8": 7, "i16": 15, "i32": 31, "i64": 63}


def _values(t):
    """Strategy for values of one spec type."""
    if isinstance(t, dict):
        return st.fixed_dictionaries({}, optional={fid: st.deferred(lambda t=ft: _values(t))
                                                   for fid, ft in t.items()})
    if isinstance(t, list):
        return st.lists(_values(t[0]), max_size=3 if isinstance(t[0], dict) else 40)
    if t in _RANGES:
        bits = _RANGES[t]
        return st.integers(-(1 << bits), (1 << bits) - 1)
    return {"bool": st.booleans(), "bin": st.binary(max_size=20),
            "dbl": st.floats(allow_nan=False)}[t]


_SPECS = {
    "FILE_META": FILE_META, "PAGE_HEADER": PAGE_HEADER, "COLUMN_INDEX": COLUMN_INDEX,
    "OFFSET_INDEX": OFFSET_INDEX, "BLOOM_HEADER": BLOOM_HEADER,
    "FILE_CRYPTO_META": FILE_CRYPTO_META, "COLUMN_META": COLUMN_META,
    "SCHEMA_ELEMENT": SCHEMA_ELEMENT, "LOGICAL_TYPE": LOGICAL_TYPE,
}


@pytest.mark.parametrize("name", sorted(_SPECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_spec_dicts_roundtrip(name, data):
    d = data.draw(_values(_SPECS[name]))
    assert _read_struct(_thrift(_SPECS[name], d))[0] == d


@pytest.mark.parametrize("spec,edge", [
    (LOGICAL_TYPE, lambda d: 17 in d or 18 in d),  # field-id jump > 15
    (COLUMN_INDEX, lambda d: len(d.get(1, ())) >= 15),  # long bool list
    (LOGICAL_TYPE, lambda d: d.get(10, {}).get(1, 0) < 0),  # negative i8
    (FILE_META, lambda d: any(rg.get(7, 0) < 0 for rg in d.get(4, ()))),  # negative i16
    (COLUMN_META, lambda d: d.get(5, 0) < -(1 << 40)),  # negative i64
], ids=["fid_jump", "bool_list_15", "i8", "i16", "i64"])
def test_spec_dicts_reach_edges(spec, edge):
    """The drawn dicts reach each compact-protocol edge, and it round-trips."""
    cfg = settings(database=None, derandomize=True, max_examples=5000, phases=[Phase.generate])
    d = find(_values(spec), edge, settings=cfg)
    assert _read_struct(_thrift(spec, d))[0] == d
