"""Corruption fuzz: a bit-flipped parquet file must either raise cleanly or
decode unchanged (the flip landed in bytes the read never consumes, e.g.
page-index/bloom regions) — never return silently wrong data.  Page CRCs
(ParquetFileWriter page checksums) plus thrift/layout validation carry
this property."""

import tempfile

import numpy as np
import pyarrow as pa
import pytest

from rayenc import parquet_write
from rayenc.parquet_compat import read_table_conformance
from rayenc.parquet_read_enc import read_table_filtered


def _read_all_filtered(path):
    # an all-rows predicate: row groups and pages go through stats and
    # ColumnIndex pruning, and the selected pages through the page reader
    return read_table_filtered(path, [("a", ">=", 0)])


# the conformance read keeps the bare seed ids it has always had
@pytest.mark.parametrize(
    "seed,read",
    [(s, read_table_conformance) for s in (0, 1, 2)]
    + [(s, _read_all_filtered) for s in (0, 1, 2)],
    ids=["0", "1", "2", "filtered-0", "filtered-1", "filtered-2"],
)
def test_bitflip_never_silently_wrong(seed, read):
    rng = np.random.default_rng(seed)
    t = pa.table(
        {
            "a": pa.array(rng.integers(0, 1000, 5000)),
            "s": pa.array([f"v{i % 37}" for i in range(5000)]),
        }
    )
    out = tempfile.mktemp(suffix=".parquet", dir="/tmp")
    parquet_write.write_table(t, out)
    raw = bytearray(open(out, "rb").read())
    raised = unchanged = 0
    for _ in range(25):
        b = bytearray(raw)
        b[int(rng.integers(4, len(b) - 8))] ^= 0xFF
        p2 = tempfile.mktemp(suffix=".parquet", dir="/tmp")
        open(p2, "wb").write(bytes(b))
        try:
            got = read(p2)
        except Exception:
            raised += 1
            continue
        assert got.equals(t), "corrupted file decoded to different data"
        unchanged += 1
    # the overwhelming majority of flips must be *detected*
    assert raised >= 20, (raised, unchanged)
