"""ColumnIndexValidator analog (rayenc/validate.py)."""

import numpy as np
import pyarrow as pa

from rayenc import parquet_write
from rayenc.selector import EncodeConfig
from rayenc.validate import validate_column_index


def _table(n=8000):
    rng = np.random.default_rng(3)
    return pa.table(
        {
            "x": pa.array(rng.permutation(n).astype(np.int64)),
            "y": pa.array(np.arange(n, dtype=np.int32)),
            "s": pa.array([f"v{i:05d}" if i % 5 else None for i in range(n)]),
        }
    )


def test_valid_file_passes(tmp_path):
    path = str(tmp_path / "ok.parquet")
    parquet_write.write_table(
        _table(), path, EncodeConfig(page_rows=2000, column_encodings={"x": "PLAIN"})
    )
    assert validate_column_index(path) == []


def test_corrupt_page_value_detected(tmp_path):
    path = str(tmp_path / "bad.parquet")
    parquet_write.write_table(
        _table(), path, EncodeConfig(page_rows=2000, column_encodings={"x": "PLAIN"})
    )
    from rayenc.parquet_compat import read_page_header
    from rayenc.parquet_read_enc import EncryptedFile, _parse_index

    f = EncryptedFile(path)
    ci = next(i for i, l in enumerate(f.leaves) if l.dotted == "x")
    _, oidx = _parse_index(f, 0, ci)
    pos = oidx[1][0][1]  # first page header offset
    raw = bytearray(open(path, "rb").read())
    h = read_page_header(np.frombuffer(bytes(raw[pos : pos + 65536]), np.uint8), 0)
    # blow the high byte of the first PLAIN int64 value out of the written
    # bounds (page CRCs are not enforced on the validation decode path);
    # the body is [framed def levels][PLAIN values]
    levels_len = h.compressed_size - 8 * h.num_values
    raw[pos + h.header_len + levels_len + 7] = 0x7F
    open(path, "wb").write(bytes(raw))
    issues = validate_column_index(path)
    assert any("above written max" in i for i in issues)


def test_validator_on_encrypted_file(tmp_path):
    from rayenc.parquet_crypto import FileDecryption, FileEncryption

    path = str(tmp_path / "enc.parquet")
    key = bytes(range(16))
    parquet_write.write_table(
        _table(2000),
        path,
        EncodeConfig(page_rows=500),
        encryption=FileEncryption(footer_key=key),
    )
    assert validate_column_index(path, FileDecryption(footer_key=key)) == []


def test_boolean_and_decimal_bounds_validate(tmp_path):
    # bounds decode like the pruning reads them: booleans as bools,
    # decimals as unscaled ints (INT32 or big-endian FIXED_LEN_BYTE_ARRAY)
    from decimal import Decimal

    import pyarrow.parquet as pq

    t = pa.table({
        "b": [True, False] * 50,
        "d": pa.array([Decimal(i).scaleb(-2) for i in range(-50, 50)], pa.decimal128(9, 2)),
    })
    paths = [str(tmp_path / f"{k}.parquet") for k in ("ours", "int", "arrow")]
    parquet_write.write_table(t, paths[0], EncodeConfig(page_rows=25))
    parquet_write.write_table(t, paths[1], EncodeConfig(page_rows=25, decimal_as_integer=True))
    pq.write_table(t, paths[2], write_page_index=True, data_page_size=64, write_batch_size=25)
    for path in paths:
        assert validate_column_index(path) == []
