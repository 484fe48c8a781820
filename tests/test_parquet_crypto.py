"""Parquet modular encryption (AES_GCM_V1): write+read round trips in every
mode, tamper/wrong-key rejection, and bidirectional interop with pyarrow's
C++ encryption stack (CryptoFactory + in-memory KMS)."""

import base64
import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import parquet_write
from rayenc.parquet_crypto import (
    FileDecryption,
    FileEncryption,
    decrypt_module,
    encrypt_module,
    module_aad,
)
from rayenc.parquet_read_enc import EncryptedFile, read_table_encrypted

SF = "/root/testdata/sf0.001"
FK = b"0123456789abcdef"
CK = b"fedcba9876543210"
FK32 = bytes(range(32))


def test_module_roundtrip_and_aad_binding():
    aad = module_aad(b"12345678", 2, 0, 3, 7)
    ct = encrypt_module(FK, b"payload", aad)
    pt, end = decrypt_module(FK, ct, 0, aad)
    assert pt == b"payload" and end == len(ct)
    with pytest.raises(ValueError, match="GCM tag verification failed"):
        decrypt_module(FK, ct, 0, module_aad(b"12345678", 2, 0, 3, 8))
    with pytest.raises(ValueError, match="GCM tag verification failed"):
        decrypt_module(CK, ct, 0, aad)


@pytest.mark.parametrize("table_name", ["lineitem", "documents", "embeddings"])
def test_encrypted_footer_roundtrip(tmp_path, table_name):
    t = pq.read_table(f"{SF}/{table_name}.parquet")
    path = str(tmp_path / "e.parquet")
    parquet_write.write_table(t, path, encryption=FileEncryption(footer_key=FK))
    raw = open(path, "rb").read()
    assert raw[:4] == b"PARE" and raw[-4:] == b"PARE"
    with pytest.raises(Exception):
        pq.read_table(path)  # keyless pyarrow must not read it
    got = read_table_encrypted(path, FileDecryption(footer_key=FK))
    assert got.cast(t.schema).equals(t)


def test_column_key_and_aes256(tmp_path):
    t = pq.read_table(f"{SF}/orders.parquet")
    path = str(tmp_path / "e.parquet")
    enc = FileEncryption(footer_key=FK32, column_keys={"o_orderpriority": CK})
    parquet_write.write_table(t, path, encryption=enc)
    got = read_table_encrypted(
        path, FileDecryption(footer_key=FK32, column_keys={"o_orderpriority": CK})
    )
    assert got.cast(t.schema).equals(t)
    # footer key alone cannot decode the column-key column
    from cryptography.exceptions import InvalidTag

    with pytest.raises((InvalidTag, ValueError)):
        read_table_encrypted(path, FileDecryption(footer_key=FK32))


def test_plaintext_footer_signed(tmp_path):
    t = pq.read_table(f"{SF}/nation.parquet")
    path = str(tmp_path / "e.parquet")
    enc = FileEncryption(footer_key=FK, plaintext_footer=True)
    parquet_write.write_table(t, path, encryption=enc)
    raw = bytearray(open(path, "rb").read())
    assert raw[-4:] == b"PAR1"
    # keyless readers can still see the plaintext metadata (num_rows)
    f = EncryptedFile(path, FileDecryption())
    assert f.num_rows == t.num_rows
    got = read_table_encrypted(path, FileDecryption(footer_key=FK))
    assert got.cast(t.schema).equals(t)
    # flip a bit inside a string payload of the footer (keeps the thrift
    # structure parseable) -> signature verification fails
    idx = bytes(raw).rindex(parquet_write.CREATED_BY.encode())
    raw[idx] ^= 0x01
    bad = str(path) + ".tampered"
    open(bad, "wb").write(bytes(raw))
    with pytest.raises(ValueError, match="signature"):
        EncryptedFile(bad, FileDecryption(footer_key=FK))


def test_page_tamper_detected(tmp_path):
    t = pq.read_table(f"{SF}/nation.parquet")
    path = str(tmp_path / "e.parquet")
    parquet_write.write_table(t, path, encryption=FileEncryption(footer_key=FK))
    raw = bytearray(open(path, "rb").read())
    raw[100] ^= 0x01  # inside the first column chunk's ciphertext
    open(path, "wb").write(bytes(raw))
    from cryptography.exceptions import InvalidTag

    with pytest.raises((InvalidTag, ValueError)):
        read_table_encrypted(path, FileDecryption(footer_key=FK))


def test_aad_prefix_supplied_not_stored(tmp_path):
    t = pq.read_table(f"{SF}/region.parquet")
    path = str(tmp_path / "e.parquet")
    enc = FileEncryption(footer_key=FK, aad_prefix=b"tenant-7", store_aad_prefix=False)
    parquet_write.write_table(t, path, encryption=enc)
    got = read_table_encrypted(
        path, FileDecryption(footer_key=FK, aad_prefix=b"tenant-7")
    )
    assert got.cast(t.schema).equals(t)
    with pytest.raises(ValueError, match="GCM tag verification failed"):
        read_table_encrypted(
            path, FileDecryption(footer_key=FK, aad_prefix=b"tenant-8")
        )


def test_compressed_v2_multi_rowgroup(tmp_path):
    from rayenc.selector import EncodeConfig

    t = pq.read_table(f"{SF}/embeddings.parquet")
    path = str(tmp_path / "e.parquet")
    cfg = EncodeConfig(compression="zstd", parquet_page_version="2.0")
    parquet_write.write_table(
        t, path, cfg, row_group_size=200, encryption=FileEncryption(footer_key=FK)
    )
    got = read_table_encrypted(path, FileDecryption(footer_key=FK))
    assert got.cast(t.schema).equals(t)


# ------------------------------------------------------- pyarrow interop


def _factory():
    import pyarrow.parquet.encryption as pe

    class Kms(pe.KmsClient):
        def __init__(self, config):
            pe.KmsClient.__init__(self)

        def wrap_key(self, key_bytes, master_key_identifier):
            return base64.b64encode(key_bytes).decode()

        def unwrap_key(self, wrapped_key, master_key_identifier):
            return base64.b64decode(wrapped_key)

    return pe, pe.CryptoFactory(lambda config: Kms(config)), pe.KmsConnectionConfig()


def _key_material(key: bytes, master: str, footer: bool) -> bytes:
    d = {"keyMaterialType": "PKMT1", "internalStorage": True, "isFooterKey": footer}
    if footer:
        d.update({"kmsInstanceID": "DEFAULT", "kmsInstanceURL": "DEFAULT"})
    d.update(
        {
            "masterKeyID": master,
            "wrappedDEK": base64.b64encode(key).decode(),
            "doubleWrapping": False,
        }
    )
    return json.dumps(d).encode()


def test_our_reader_decodes_pyarrow_encrypted(tmp_path):
    pe, factory, kms_cfg = _factory()
    t = pq.read_table(f"{SF}/orders.parquet")
    conf = pe.EncryptionConfiguration(
        footer_key="fmaster",
        column_keys={"cmaster": ["o_orderpriority"]},
        encryption_algorithm="AES_GCM_V1",
        data_key_length_bits=128,
        internal_key_material=True,
        double_wrapping=False,
    )
    props = factory.file_encryption_properties(kms_cfg, conf)
    path = str(tmp_path / "pa.parquet")
    with pq.ParquetWriter(path, t.schema, encryption_properties=props) as w:
        w.write_table(t)
    got = read_table_encrypted(path)  # DEKs unwrap from key-material JSON
    assert got.cast(t.schema).equals(t)


def test_pyarrow_decodes_our_encrypted(tmp_path):
    pe, factory, kms_cfg = _factory()
    t = pq.read_table(f"{SF}/orders.parquet")
    enc = FileEncryption(
        footer_key=FK,
        column_keys={"o_orderpriority": CK},
        footer_key_metadata=_key_material(FK, "fmaster", True),
        column_key_metadata={"o_orderpriority": _key_material(CK, "cmaster", False)},
    )
    path = str(tmp_path / "ours.parquet")
    parquet_write.write_table(t, path, encryption=enc)
    dprops = factory.file_decryption_properties(kms_cfg, pe.DecryptionConfiguration())
    got = pq.ParquetFile(path, decryption_properties=dprops).read()
    assert got.cast(t.schema).equals(t)


def test_transcode_job_encrypted_output(tmp_path):
    import ray

    from rayenc import pipeline

    out = str(tmp_path / "enc_out")
    res = pipeline.transcode_parquet_job(
        f"{SF}/nation.parquet", out,
        encryption=FileEncryption(footer_key=FK),
    ).to_pandas()
    assert len(res) >= 1
    import os

    files = [f for f in os.listdir(out) if f.endswith(".parquet")]
    t = pq.read_table(f"{SF}/nation.parquet")
    got = pa.concat_tables(
        [
            read_table_encrypted(os.path.join(out, f), FileDecryption(footer_key=FK))
            for f in sorted(files)
        ]
    )
    assert got.cast(t.schema).sort_by("n_nationkey").equals(t.sort_by("n_nationkey"))
    with pytest.raises(Exception):
        pq.read_table(os.path.join(out, files[0]))


def test_reencrypt_rotation_and_strip(tmp_path):
    from rayenc.rewrite import reencrypt_parquet

    t = pq.read_table(f"{SF}/region.parquet")
    p1, p2, p3 = (str(tmp_path / f"r{i}.parquet") for i in (1, 2, 3))
    parquet_write.write_table(t, p1, encryption=FileEncryption(footer_key=FK))
    reencrypt_parquet(
        p1, p2, FileDecryption(footer_key=FK), FileEncryption(footer_key=CK)
    )
    got = read_table_encrypted(p2, FileDecryption(footer_key=CK))
    assert got.cast(t.schema).equals(t)
    from cryptography.exceptions import InvalidTag

    with pytest.raises((InvalidTag, ValueError)):
        read_table_encrypted(p2, FileDecryption(footer_key=FK))
    reencrypt_parquet(p2, p3, FileDecryption(footer_key=CK), None)
    assert pq.read_table(p3).cast(t.schema).equals(t)


def test_encrypted_nested_map_decimal_list_struct(tmp_path):
    import decimal

    rng = np.random.default_rng(3)
    n = 2000
    t = pa.table(
        {
            "m": pa.array(
                [
                    None if i % 7 == 0 else
                    [(f"k{j}", int(rng.integers(0, 50)))
                     for j in range(int(rng.integers(0, 3)))]
                    for i in range(n)
                ],
                pa.map_(pa.string(), pa.int64()),
            ),
            "d": pa.array(
                [
                    None if i % 5 == 0 else
                    decimal.Decimal(int(rng.integers(-(10**10), 10**10))) / 100
                    for i in range(n)
                ],
                pa.decimal128(12, 2),
            ),
            "ls": pa.array(
                [
                    None if i % 9 == 0 else
                    [{"x": None if j % 2 else j, "y": f"s{j}"}
                     for j in range(int(rng.integers(0, 3)))]
                    for i in range(n)
                ],
                pa.list_(pa.struct([("x", pa.int64()), ("y", pa.string())])),
            ),
        }
    )
    path = str(tmp_path / "n.parquet")
    parquet_write.write_table(
        t, path, row_group_size=700, encryption=FileEncryption(footer_key=FK)
    )
    got = read_table_encrypted(path, FileDecryption(footer_key=FK))
    assert got.cast(t.schema).equals(t)


def test_read_table_filtered_page_skipping(tmp_path):
    import pyarrow.compute as pc

    from rayenc.parquet_read_enc import read_table_filtered
    from rayenc.selector import EncodeConfig

    t = pq.read_table(f"{SF}/lineitem.parquet")
    path = str(tmp_path / "f.parquet")
    parquet_write.write_table(
        t, path, EncodeConfig(page_rows=500), row_group_size=2000
    )
    pred = [("l_orderkey", "<", 40)]
    got = read_table_filtered(path, pred)
    want = t.filter(pc.less(t.column("l_orderkey"), 40))
    ks = [(c, "ascending") for c in sorted(t.column_names)]
    assert got.cast(want.schema).sort_by(ks).equals(want.sort_by(ks))
    # multi-column conjunction + column pruning
    got2 = read_table_filtered(
        path,
        [("l_returnflag", "==", "R"), ("l_orderkey", ">=", 700)],
        columns=["l_orderkey", "l_returnflag", "l_quantity"],
    )
    want2 = t.filter(
        pc.and_(
            pc.equal(t.column("l_returnflag"), "R"),
            pc.greater_equal(t.column("l_orderkey"), 700),
        )
    ).select(["l_orderkey", "l_returnflag", "l_quantity"])
    assert want2.num_rows > 0
    ks2 = [(c, "ascending") for c in sorted(want2.column_names)]
    assert got2.cast(want2.schema).sort_by(ks2).equals(want2.sort_by(ks2))


def test_read_table_filtered_pyarrow_file_and_encrypted(tmp_path):
    import pyarrow.compute as pc

    from rayenc.parquet_read_enc import read_table_filtered
    from rayenc.selector import EncodeConfig

    t = pq.read_table(f"{SF}/lineitem.parquet")
    ks = [(c, "ascending") for c in sorted(t.column_names)]
    want = t.filter(pc.less(t.column("l_orderkey"), 40))
    # pyarrow-written file with page indexes
    p1 = str(tmp_path / "pa.parquet")
    pq.write_table(t, p1, row_group_size=2000, write_page_index=True,
                   data_page_size=8 << 10)
    got = read_table_filtered(p1, [("l_orderkey", "<", 40)])
    assert got.cast(want.schema).sort_by(ks).equals(want.sort_by(ks))
    # encrypted file: indexes + headers + pages all decrypt
    p2 = str(tmp_path / "enc.parquet")
    parquet_write.write_table(
        t, p2, EncodeConfig(page_rows=500), row_group_size=2000,
        encryption=FileEncryption(footer_key=FK),
    )
    got2 = read_table_filtered(
        p2, [("l_orderkey", "<", 40)], decryption=FileDecryption(footer_key=FK)
    )
    assert got2.cast(want.schema).sort_by(ks).equals(want.sort_by(ks))


def test_encode_encrypted_parquet_job(tmp_path, ray_session):
    """Data-lake ingestion: encrypted parquet sources -> renc container,
    planned and encoded by encode_job(decryption=)."""
    from rayenc import pipeline

    dec = FileDecryption(footer_key=FK)
    t = pq.read_table(f"{SF}/orders.parquet")
    srcs = []
    for i, sl in enumerate([t.slice(0, 700), t.slice(700)]):
        p = str(tmp_path / f"enc{i}.parquet")
        parquet_write.write_table(
            sl, p, row_group_size=400, encryption=FileEncryption(footer_key=FK)
        )
        srcs.append(p)
    out = str(tmp_path / "container")
    res = pipeline.encode_job(srcs, out, decryption=dec).to_pandas()
    assert res["rows"].sum() == t.num_rows
    got = pipeline.decode_dataset(out).to_pandas().sort_values("o_orderkey")
    want = t.to_pandas().sort_values("o_orderkey")
    assert (got["o_orderkey"].to_numpy() == want["o_orderkey"].to_numpy()).all()
    assert (got["o_totalprice"].to_numpy() == want["o_totalprice"].to_numpy()).all()
    # resume: nothing left to do
    assert pipeline.encode_job(srcs, out, decryption=dec).count() == 0


def test_encode_job_splits_encrypted_row_group(tmp_path, ray_session):
    """One encrypted row group larger than 2 x target_block_bytes splits
    into row ranges, like a plaintext one, and decodes equal to the source."""
    import ray

    from rayenc import pipeline

    dec = FileDecryption(footer_key=FK)
    t = pq.read_table(f"{SF}/lineitem.parquet")
    p = str(tmp_path / "big.parquet")
    parquet_write.write_table(t, p, encryption=FileEncryption(footer_key=FK))
    (rg,) = EncryptedFile(p, dec).row_groups
    target = rg[2] // 5
    descs = pipeline.plan_partitions(p, target, decryption=dec)
    assert len(descs) >= 5
    assert all(d["row_groups"] == [0] and d["row_start"] >= 0 for d in descs)
    out = str(tmp_path / "container")
    res = pipeline.encode_job(p, out, target_block_bytes=target, decryption=dec)
    assert sorted(res.to_pandas()["pid"]) == [d["pid"] for d in descs]
    keys = [(c, "ascending") for c in t.column_names]  # (orderkey, linenumber) repeats
    got = pa.concat_tables(
        ray.get(pipeline.decode_dataset(out).to_arrow_refs())
    ).sort_by(keys)
    assert got.equals(read_table_encrypted(p, dec).sort_by(keys))
    assert got.cast(t.schema).equals(t.sort_by(keys))


def test_read_table_filtered_in_predicate(tmp_path):
    import pyarrow.compute as pc

    from rayenc.parquet_read_enc import read_table_filtered
    from rayenc.selector import EncodeConfig

    t = pq.read_table(f"{SF}/lineitem.parquet")
    path = str(tmp_path / "f.parquet")
    parquet_write.write_table(t, path, EncodeConfig(page_rows=500), row_group_size=2000)
    got = read_table_filtered(path, [("l_orderkey", "in", [1, 40, 999999])])
    want = t.filter(
        pc.is_in(t.column("l_orderkey"),
                 value_set=pa.array([1, 40, 999999], pa.int64()))
    )
    ks = [(c, "ascending") for c in sorted(t.column_names)]
    assert got.cast(want.schema).sort_by(ks).equals(want.sort_by(ks))


def test_filtered_read_nested_selected_columns(tmp_path):
    import pyarrow.compute as pc

    from rayenc.parquet_read_enc import read_table_filtered
    from rayenc.selector import EncodeConfig

    n = 2000
    t = pa.table(
        {
            "k": pa.array(list(range(n)), pa.int64()),
            "tags": pa.array(
                [[f"t{i % 5}", f"u{i % 3}"] for i in range(n)],
                pa.list_(pa.string()),
            ),
        }
    )
    path = str(tmp_path / "n.parquet")
    parquet_write.write_table(t, path, EncodeConfig(page_rows=200), row_group_size=500)
    got = read_table_filtered(path, [("k", "<", 120)])
    want = t.filter(pc.less(t.column("k"), 120))
    assert got.cast(want.schema).sort_by("k").equals(want.sort_by("k"))


def test_read_parquet_filtered_distributed(tmp_path, ray_session):
    import pyarrow.compute as pc

    from rayenc import pipeline
    from rayenc.selector import EncodeConfig

    t = pq.read_table(f"{SF}/lineitem.parquet")
    path = str(tmp_path / "d.parquet")
    parquet_write.write_table(
        t, path,
        EncodeConfig(page_rows=500, bloom_columns={"l_orderkey"}),
        row_group_size=2000,
    )
    import ray

    ds = pipeline.read_parquet_filtered(path, [("l_orderkey", "<", 40)])
    got = pa.concat_tables([ray.get(r) for r in ds.to_arrow_refs()])
    want = t.filter(pc.less(t.column("l_orderkey"), 40))
    ks = [(c, "ascending") for c in sorted(t.column_names)]
    assert got.combine_chunks().cast(want.schema).sort_by(ks).equals(want.sort_by(ks))
    # encrypted distributed variant
    p2 = str(tmp_path / "de.parquet")
    parquet_write.write_table(
        t, p2, EncodeConfig(page_rows=500), row_group_size=2000,
        encryption=FileEncryption(footer_key=FK),
    )
    ds2 = pipeline.read_parquet_filtered(
        p2, [("l_orderkey", "<", 40)], decryption=FileDecryption(footer_key=FK)
    )
    got2 = pa.concat_tables([ray.get(r) for r in ds2.to_arrow_refs()])
    assert got2.combine_chunks().cast(want.schema).sort_by(ks).equals(want.sort_by(ks))


def test_encrypted_nested_stress_300k(tmp_path):
    """Volume check: 300k rows of nested lists through encrypted write+read,
    bit-lossless (the round-2 1M-row plaintext stress, encrypted)."""
    rng = np.random.default_rng(5)
    n = 300_000
    lens = rng.integers(0, 6, n)
    vals = rng.integers(0, 10**6, int(lens.sum())).astype(np.int64)
    offs = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    t = pa.table(
        {
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "l": pa.ListArray.from_arrays(
                pa.array(offs, pa.int64()).cast(pa.int32()), pa.array(vals)
            ),
        }
    )
    path = str(tmp_path / "big.parquet")
    parquet_write.write_table(
        t, path, row_group_size=100_000, encryption=FileEncryption(footer_key=FK)
    )
    got = read_table_encrypted(path, FileDecryption(footer_key=FK))
    assert got.cast(t.schema).equals(t)


def test_our_reader_decodes_pyarrow_double_wrapped(tmp_path):
    """Round-4 VERDICT #5: pyarrow CryptoFactory with double_wrapping=True
    (the Spark default) — KEK unwrapped through the KMS, DEK decrypted
    locally with AAD=kekID (FileKeyUnwrapper.java:119-144)."""
    pe, factory, kms_cfg = _factory()
    t = pq.read_table(f"{SF}/orders.parquet")
    conf = pe.EncryptionConfiguration(
        footer_key="fmaster",
        column_keys={"cmaster": ["o_orderpriority"]},
        encryption_algorithm="AES_GCM_V1",
        data_key_length_bits=128,
        internal_key_material=True,
        double_wrapping=True,
    )
    props = factory.file_encryption_properties(kms_cfg, conf)
    path = str(tmp_path / "pa-dw.parquet")
    with pq.ParquetWriter(path, t.schema, encryption_properties=props) as w:
        w.write_table(t)
    got = read_table_encrypted(path)  # KEK->DEK unwrap from key material
    assert got.cast(t.schema).equals(t)


def test_pyarrow_decodes_our_double_wrapped(tmp_path):
    from rayenc.parquet_crypto import double_wrapped_key_material

    pe, factory, kms_cfg = _factory()
    t = pq.read_table(f"{SF}/orders.parquet")
    kek, kek_id = b"K" * 16, b"I" * 16  # one KEK shared across the file
    enc = FileEncryption(
        footer_key=FK,
        column_keys={"o_orderpriority": CK},
        footer_key_metadata=double_wrapped_key_material(
            FK, "fmaster", True, kek=kek, kek_id=kek_id
        ),
        column_key_metadata={
            "o_orderpriority": double_wrapped_key_material(
                CK, "cmaster", False, kek=kek, kek_id=kek_id
            )
        },
    )
    path = str(tmp_path / "ours-dw.parquet")
    parquet_write.write_table(t, path, encryption=enc)
    dprops = factory.file_decryption_properties(kms_cfg, pe.DecryptionConfiguration())
    got = pq.ParquetFile(path, decryption_properties=dprops).read()
    assert got.cast(t.schema).equals(t)
    # and our own reader resolves the same double-wrapped material
    got2 = read_table_encrypted(path)
    assert got2.cast(t.schema).equals(t)


def test_key_toolkit_local_wrap_roundtrip():
    from rayenc import parquet_crypto as pc_

    dek, kek, aad = b"d" * 16, b"k" * 16, b"a" * 16
    wrapped = pc_.encrypt_key_locally(dek, kek, aad)
    assert pc_.decrypt_key_locally(wrapped, kek, aad) == dek
    import pytest as _pytest

    with _pytest.raises(Exception):
        pc_.decrypt_key_locally(wrapped, kek, b"wrong-aad-16byte")


# ------------------- external key material (FileSystemKeyMaterialStore)


def test_external_key_material_our_roundtrip(tmp_path):
    """Key material in the `_KEY_MATERIAL_FOR_<name>.json` sidecar
    (HadoopFSKeyMaterialStore naming), in-file metadata holding only the
    keyReference (KeyMetadata.java internalStorage=false): our writer
    emits it, our reader resolves references with no explicit keys."""
    import os

    from rayenc.parquet_crypto import (
        key_material_store_path,
        make_external_encryption,
        read_key_material_store,
    )

    t = pq.read_table(f"{SF}/orders.parquet")
    path = str(tmp_path / "ext.parquet")
    enc = make_external_encryption(
        path, FK, "fmaster", column_keys={"o_orderpriority": (CK, "cmaster")}
    )
    parquet_write.write_table(t, path, encryption=enc)
    side = key_material_store_path(path)
    assert os.path.basename(side) == "_KEY_MATERIAL_FOR_ext.parquet.json"
    store = read_key_material_store(path)
    assert set(store) == {"footerKey", "columnKey1"}
    assert json.loads(store["footerKey"])["doubleWrapping"] is True
    # reference resolution only — no keys passed to the reader
    got = read_table_encrypted(path)
    assert got.cast(t.schema).equals(t)


def test_master_key_rotation_external_material(tmp_path):
    """KeyToolkit.rotateMasterKeys:200-264 — re-wrap every DEK with fresh
    KEKs via the (re-keyed) KMS, replacing only the sidecar; the parquet
    file bytes never change, and readers resolve the rotated material.
    (pyarrow 16's Python CryptoFactory cannot pass the file path that
    external material requires, so interop is exercised structurally: our
    sidecar naming and PKMT1 field set match HadoopFSKeyMaterialStore /
    KeyMaterial.java exactly.)"""
    import os

    from rayenc.parquet_crypto import (
        make_external_encryption,
        read_key_material_store,
        rotate_master_keys,
    )

    t = pq.read_table(f"{SF}/orders.parquet")
    path = str(tmp_path / "rot.parquet")
    enc = make_external_encryption(
        path, FK, "fmaster", column_keys={"o_orderpriority": (CK, "cmaster")}
    )
    parquet_write.write_table(t, path, encryption=enc)
    before_store = read_key_material_store(path)
    before_bytes = open(path, "rb").read()

    rotated = rotate_master_keys(str(tmp_path))
    assert rotated == [path]
    after_store = read_key_material_store(path)
    assert set(after_store) == set(before_store)
    # fresh KEK: wrapped KEK and wrapped DEK both change, master ids stay
    for ref in before_store:
        b, a = json.loads(before_store[ref]), json.loads(after_store[ref])
        assert a["wrappedKEK"] != b["wrappedKEK"]
        assert a["wrappedDEK"] != b["wrappedDEK"]
        assert a["masterKeyID"] == b["masterKeyID"]
    assert open(path, "rb").read() == before_bytes  # file untouched
    assert not [
        n for n in os.listdir(tmp_path) if n.startswith("_TMP")
    ]  # temp store replaced atomically
    got = read_table_encrypted(path)  # resolves the rotated material
    assert got.cast(t.schema).equals(t)


def test_rotation_refuses_internal_material(tmp_path):
    import pytest as _pytest

    from rayenc.parquet_crypto import rotate_master_keys

    t = pq.read_table(f"{SF}/orders.parquet")
    path = str(tmp_path / "internal.parquet")
    parquet_write.write_table(t, path, encryption=FileEncryption(footer_key=FK))
    with _pytest.raises(ValueError, match="external key material"):
        rotate_master_keys(str(tmp_path))


# --------------------------------------- AES_GCM_CTR_V1 (CTR page bodies)


def test_gcm_ctr_our_roundtrip(tmp_path):
    """AES_GCM_CTR_V1: page bodies in CTR (nonce + ciphertext, no tag,
    counter starts at 1 — AesCtrEncryptor.java:45-47), thrift modules
    (headers/footer/metadata) stay GCM."""
    t = pq.read_table(f"{SF}/orders.parquet")
    path = str(tmp_path / "ctr.parquet")
    parquet_write.write_table(
        t, path, row_group_size=5000,
        encryption=FileEncryption(
            footer_key=FK, column_keys={"o_orderpriority": CK},
            algorithm="AES_GCM_CTR_V1",
        ),
    )
    dec = FileDecryption(footer_key=FK, column_keys={"o_orderpriority": CK})
    got = read_table_encrypted(path, dec)
    assert got.cast(t.schema).equals(t)
    # filtered reads decrypt page-index-selected pages and dictionary pages
    # through the same page reader: CTR bodies there too
    import pyarrow.compute as pc

    from rayenc.parquet_read_enc import read_table_filtered

    k = t.column("o_orderkey")[1000].as_py()
    got = read_table_filtered(path, [("o_orderkey", ">=", k)], decryption=dec)
    assert got.equals(t.filter(pc.greater_equal(t["o_orderkey"], k)))
    got = read_table_filtered(
        path, [("o_orderpriority", "==", "1-URGENT")], decryption=dec
    )
    assert got.equals(t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")))
    # wrong footer key still fails loudly (footer module stays GCM)
    with pytest.raises(Exception):
        read_table_encrypted(path, FileDecryption(footer_key=b"X" * 16))


def test_gcm_ctr_pyarrow_interop(tmp_path):
    """Bidirectional with pyarrow's AES_GCM_CTR_V1."""
    pe, factory, kms_cfg = _factory()
    t = pq.read_table(f"{SF}/orders.parquet")
    conf = pe.EncryptionConfiguration(
        footer_key="fmaster",
        column_keys={"cmaster": ["o_orderpriority"]},
        encryption_algorithm="AES_GCM_CTR_V1",
        data_key_length_bits=128,
        internal_key_material=True,
        double_wrapping=False,
    )
    props = factory.file_encryption_properties(kms_cfg, conf)
    pa_path = str(tmp_path / "pa-ctr.parquet")
    with pq.ParquetWriter(pa_path, t.schema, encryption_properties=props) as w:
        w.write_table(t)
    got = read_table_encrypted(pa_path)
    assert got.cast(t.schema).equals(t)

    our_path = str(tmp_path / "ours-ctr.parquet")
    parquet_write.write_table(
        t, our_path,
        encryption=FileEncryption(
            footer_key=FK, column_keys={"o_orderpriority": CK},
            footer_key_metadata=_key_material(FK, "fmaster", True),
            column_key_metadata={
                "o_orderpriority": _key_material(CK, "cmaster", False)
            },
            algorithm="AES_GCM_CTR_V1",
        ),
    )
    dprops = factory.file_decryption_properties(kms_cfg, pe.DecryptionConfiguration())
    got2 = pq.ParquetFile(our_path, decryption_properties=dprops).read()
    assert got2.cast(t.schema).equals(t)


def test_plan_byte_splits(tmp_path):
    """Midpoint split planning: each row group in exactly one split, and
    the assignment matches midpoints recomputed from pyarrow metadata."""
    import numpy as np

    from rayenc import parquet_write
    from rayenc.parquet_read_enc import plan_byte_splits

    t = pa.table({"a": pa.array(np.arange(50000), pa.int64()),
                  "b": [f"row{i}" for i in range(50000)]})
    path = str(tmp_path / "split.parquet")
    parquet_write.write_table(t, path, row_group_size=5000)
    split = 64 * 1024
    got = plan_byte_splits(path, split)
    all_rgs = sorted(r for v in got.values() for r in v)
    md = pq.ParquetFile(path).metadata
    assert all_rgs == list(range(md.num_row_groups))
    for s, rgs in got.items():
        for rg in rgs:
            r = md.row_group(rg)
            c0 = r.column(0)
            start = c0.data_page_offset
            if c0.dictionary_page_offset and c0.dictionary_page_offset < start:
                start = c0.dictionary_page_offset
            total = sum(r.column(i).total_compressed_size
                        for i in range(r.num_columns))
            assert (start + total // 2) // split == s


def test_format_message_type(tmp_path):
    """MessageTypeParser-syntax printer (SchemaCommand --parquet analog):
    nesting, repetition, logical annotations, FLBA width."""
    import decimal

    from rayenc import parquet_write
    from rayenc.parquet_read_enc import EncryptedFile, format_message_type

    t = pa.table(
        {
            "id": pa.array([1, 2], pa.int64()),
            "name": pa.array(["a", "b"]),
            "price": pa.array(
                [decimal.Decimal("1.50"), decimal.Decimal("2.25")],
                pa.decimal128(9, 2),
            ),
            "tags": pa.array([["x"], ["y", "z"]], pa.list_(pa.string())),
            "u": pa.array([1, 2], pa.uint32()),
        }
    )
    path = str(tmp_path / "s.parquet")
    parquet_write.write_table(t, path)
    txt = format_message_type(EncryptedFile(path).schema_elems)
    assert txt.startswith("message ") and txt.endswith("}")
    assert "optional int64 id;" in txt
    assert "optional binary name (STRING);" in txt
    assert "(DECIMAL(9,2))" in txt
    assert "(LIST)" in txt and "repeated group" in txt
    assert "(INTEGER(32,false))" in txt or "(UINT_32)" in txt
    # round-trips through pyarrow-written files too
    import pyarrow.parquet as pq

    pq.write_table(t, str(tmp_path / "pa.parquet"))
    txt2 = format_message_type(
        EncryptedFile(str(tmp_path / "pa.parquet")).schema_elems
    )
    assert "id" in txt2 and "(STRING)" in txt2


def test_read_table_filtered_null_predicates(tmp_path):
    """IS NULL / IS NOT NULL on file reads: Statistics.null_count vetoes
    row groups, ColumnIndex null_pages/null_counts prune pages."""
    from rayenc import parquet_write
    from rayenc.parquet_read_enc import read_table_filtered
    from rayenc.selector import EncodeConfig

    n = 4000
    x = [float(i) if (i // 1000) % 2 == 0 else None for i in range(n)]
    # rg0: defined, rg1: all null, rg2: defined, rg3: all null
    t = pa.table(
        {
            "k": pa.array(list(range(n)), pa.int64()),
            "x": pa.array(x, pa.float64()),
        }
    )
    path = str(tmp_path / "nulls.parquet")
    parquet_write.write_table(
        t, path, EncodeConfig(page_rows=500), row_group_size=1000
    )
    got = read_table_filtered(path, [("x", "not_null", None)])
    assert got.num_rows == 2000 and got["x"].null_count == 0
    got2 = read_table_filtered(path, [("x", "is_null", None)])
    assert got2.num_rows == 2000 and got2["x"].null_count == 2000
    # composition with a comparison in a tree
    from rayenc import predicate as P

    got3 = read_table_filtered(
        path, P.Or(P.Leaf("x", "is_null", None), P.Leaf("k", "<", 10))
    )
    assert got3.num_rows == 2010
    # mixed-null row groups still exact
    t2 = pa.table(
        {
            "k": pa.array(list(range(20)), pa.int64()),
            "x": pa.array(
                [None if i % 3 == 0 else float(i) for i in range(20)],
                pa.float64(),
            ),
        }
    )
    p2 = str(tmp_path / "mixed.parquet")
    parquet_write.write_table(t2, p2)
    g = read_table_filtered(p2, [("x", "is_null", None)])
    assert sorted(g["k"].to_pylist()) == [i for i in range(20) if i % 3 == 0]
