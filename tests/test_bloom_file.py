"""Split-block bloom filters in written parquet FILES: spec XXH64 hashing
(public test vectors), multiply-shift block mapping, BloomFilterHeader +
bitset serialization referenced from ColumnMetaData, and read-side probing —
plain and encrypted (modules 8/9)."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rayenc import parquet_write
from rayenc.bloom import SpecBloom, build, literal_hashes
from rayenc.codecs.xxh import xxh64, xxh64_bytes, xxh64_fixed
from rayenc.parquet_crypto import FileDecryption, FileEncryption
from rayenc.parquet_read_enc import (
    EncryptedFile,
    bloom_might_contain,
    read_bloom_filter,
    read_table_encrypted,
)
from rayenc.schema import shred
from rayenc.selector import EncodeConfig

SF = "/root/testdata/sf0.001"


def test_xxh64_published_vectors():
    assert xxh64(b"") == 0xEF46DB3751D8E999
    assert xxh64(b"a") == 0xD24EC4F1A98C6E5B
    assert xxh64(b"abc") == 0x44BC2CF5AD770999
    assert xxh64(b"Nobody inspects the spammish repetition") == 0xFBCEA83C8A378BF1


def test_xxh64_batch_matches_scalar():
    rng = np.random.default_rng(0)
    strs = [
        rng.integers(0, 256, int(L)).astype(np.uint8).tobytes()
        for L in rng.integers(0, 100, 300)
    ]
    offs = np.zeros(len(strs) + 1, np.int64)
    offs[1:] = np.cumsum([len(s) for s in strs])
    data = np.frombuffer(b"".join(strs), np.uint8)
    assert (xxh64_bytes(offs, data) == [xxh64(s) for s in strs]).all()
    for dt in (np.int32, np.int64, np.float64):
        v = rng.integers(-1000, 1000, 100).astype(dt)
        assert (xxh64_fixed(v) == [xxh64(x.tobytes()) for x in v]).all()


def test_spec_bloom_no_false_negatives():
    col = shred("x", pa.array([f"doc{i}" for i in range(5000)]))[0]
    f = build(col, EncodeConfig())
    present = literal_hashes(tuple(f"doc{i}" for i in range(0, 5000, 97)), "BINARY")
    assert f.might_contain_hashes(present).all()
    absent = literal_hashes(tuple(f"no{i}" for i in range(2000)), "BINARY")
    fp = f.might_contain_hashes(absent).sum()
    assert fp / 2000 < 0.05  # target fpp 1%


def test_file_bloom_write_read_plain(tmp_path):
    t = pq.read_table(f"{SF}/lineitem.parquet")
    path = str(tmp_path / "b.parquet")
    cfg = EncodeConfig(bloom_columns={"l_orderkey", "l_returnflag"})
    parquet_write.write_table(t, path, cfg, row_group_size=2000)
    # file stays readable by an independent reader (fields are additive)
    assert pq.read_table(path).cast(t.schema).equals(t)
    f = EncryptedFile(path)
    ords = {leaf.dotted: i for i, leaf in enumerate(f.leaves)}
    filt = read_bloom_filter(f, 0, ords["l_orderkey"])
    assert isinstance(filt, SpecBloom) and filt.num_blocks >= 1
    assert read_bloom_filter(f, 0, ords["l_quantity"]) is None
    ok = t.column("l_orderkey")
    present, absent = int(pc.min(ok).as_py()), int(pc.max(ok).as_py()) + 10**9
    assert any(bloom_might_contain(path, "l_orderkey", present))
    assert not any(bloom_might_contain(path, "l_orderkey", absent))
    assert all(bloom_might_contain(path, "l_returnflag", "A"))
    assert not any(bloom_might_contain(path, "l_returnflag", "Z"))


def test_file_bloom_encrypted(tmp_path):
    t = pq.read_table(f"{SF}/lineitem.parquet")
    path = str(tmp_path / "b.parquet")
    cfg = EncodeConfig(bloom_columns={"l_orderkey"})
    fk = b"0123456789abcdef"
    parquet_write.write_table(
        t, path, cfg, row_group_size=2000,
        encryption=FileEncryption(footer_key=fk),
    )
    dec = FileDecryption(footer_key=fk)
    ok = t.column("l_orderkey")
    present, absent = int(pc.min(ok).as_py()), int(pc.max(ok).as_py()) + 10**9
    assert any(bloom_might_contain(path, "l_orderkey", present, dec))
    assert not any(bloom_might_contain(path, "l_orderkey", absent, dec))


def test_bloom_point_lookup_skips_row_groups(tmp_path):
    t = pq.read_table(f"{SF}/lineitem.parquet")
    path = str(tmp_path / "b.parquet")
    cfg = EncodeConfig(bloom_columns={"l_orderkey"})
    parquet_write.write_table(t, path, cfg, row_group_size=1000)
    key = int(pc.min(t.column("l_orderkey")).as_py())
    verdicts = bloom_might_contain(path, "l_orderkey", key)
    keep = [i for i, v in enumerate(verdicts) if v]
    assert 0 < len(keep) < len(verdicts)  # some groups skipped
    got = read_table_encrypted(path, row_groups=keep)
    got = got.filter(pc.equal(got.column("l_orderkey"), key))
    want = t.filter(pc.equal(t.column("l_orderkey"), key))
    assert got.cast(want.schema).equals(want)


def test_cli_inspection_commands(tmp_path, capsys):
    from rayenc import cli

    t = pq.read_table(f"{SF}/lineitem.parquet")
    path = str(tmp_path / "b.parquet")
    cfg = EncodeConfig(bloom_columns={"l_orderkey"})
    parquet_write.write_table(t, path, cfg, row_group_size=2000)

    class A:
        file = path
        column = "l_orderkey"
        key = None
        test_value = "1"

    cli.cmd_show_bloom(A())
    out = capsys.readouterr().out
    assert "BLOCK/XXHASH" in out and "maybe" in out
    A.test_value = "999999999"
    cli.cmd_show_bloom(A())
    assert "NO" in capsys.readouterr().out
    cli.cmd_show_column_index(A())
    out = capsys.readouterr().out
    assert "pages" in out and "min=" in out
    cli.cmd_show_size_stats(A())
    assert "def_hist" in capsys.readouterr().out


def test_filtered_read_composes_bloom_and_page_index(tmp_path):
    from rayenc.parquet_read_enc import read_table_filtered

    t = pq.read_table(f"{SF}/lineitem.parquet")
    path = str(tmp_path / "b.parquet")
    cfg = EncodeConfig(bloom_columns={"l_orderkey"}, page_rows=500)
    parquet_write.write_table(t, path, cfg, row_group_size=1000)
    key = int(pc.min(t.column("l_orderkey")).as_py())
    got = read_table_filtered(path, [("l_orderkey", "==", key)])
    want = t.filter(pc.equal(t.column("l_orderkey"), key))
    ks = [(c, "ascending") for c in sorted(t.column_names)]
    assert got.cast(want.schema).sort_by(ks).equals(want.sort_by(ks))
    # absent key: blooms veto every row group -> empty result, right schema
    absent = int(pc.max(t.column("l_orderkey")).as_py()) + 10**9
    got2 = read_table_filtered(path, [("l_orderkey", "==", absent)])
    assert got2.num_rows == 0 and got2.schema.names == t.schema.names


def test_cli_show_dictionary(tmp_path, capsys):
    from rayenc import cli

    t = pq.read_table(f"{SF}/lineitem.parquet")
    path = str(tmp_path / "d.parquet")
    parquet_write.write_table(t, path)

    class A:
        file = path
        column = "l_returnflag"
        key = None
        n = 10

    cli.cmd_show_dictionary(A())
    out = capsys.readouterr().out
    assert "dictionary entries" in out and "'A'" in out and "'R'" in out


def test_cli_page_commands_same_output_encrypted(tmp_path, capsys):
    """show-dictionary and show-column-index read pages and page indexes
    through the shared decrypting readers: an encrypted copy of a file
    prints the same dictionary and the same index bounds."""
    from rayenc import cli
    from rayenc.parquet_crypto import FileEncryption

    t = pq.read_table(f"{SF}/lineitem.parquet").slice(0, 3000)
    key = bytes(range(16))
    outs = []
    for name, enc in (("p", None), ("e", FileEncryption(footer_key=key))):
        path = str(tmp_path / f"{name}.parquet")
        parquet_write.write_table(
            t, path, EncodeConfig(page_rows=1000), encryption=enc
        )

        class A:
            file = path
            column = "l_returnflag"
            key = None if enc is None else bytes(range(16)).hex()
            n = 10

        cli.cmd_show_dictionary(A())
        A.column = "l_orderkey"
        cli.cmd_show_column_index(A())
        # page offsets differ (module framing); the rest must not
        outs.append(re.sub(r"offset=\d+ size=\d+", "", capsys.readouterr().out))
    assert "3 dictionary entries" in outs[0] and "3 pages" in outs[0]
    assert outs[0] == outs[1]


# --------------------------------- adaptive sizing (candidate elimination)


def test_adaptive_candidate_sizes_match_reference_rule():
    """AdaptiveBlockSplitBloomFilter: candidates are power-of-two halvings
    of max_bytes; smallest candidate whose stepped expected-NDV capacity
    covers the observed distinct count wins; overflow keeps the largest."""
    from rayenc.bloom import (
        LOWER_BOUND_BYTES,
        _expected_ndv,
        adaptive_candidate_bytes,
    )

    # 5 candidates from 1 MiB: 1M, 512K, 256K, 128K, 64K.
    # tiny NDV -> smallest candidate (64 KiB), not the analytic optimum
    assert adaptive_candidate_bytes(10) == 64 * 1024
    # NDV beyond every candidate's capacity -> largest candidate retained
    big = _expected_ndv(1 << 20, 0.01) + 1
    assert adaptive_candidate_bytes(big) == 1 << 20
    # monotone: more distinct values never shrink the filter
    sizes = [adaptive_candidate_bytes(n) for n in (1, 5_000, 50_000, 120_000)]
    assert sizes == sorted(sizes)
    # a max_bytes below the smallest legal filter still yields one candidate
    assert adaptive_candidate_bytes(5, max_bytes=8) == LOWER_BOUND_BYTES


def test_adaptive_expected_ndv_steps():
    from rayenc.bloom import NDV_STEP, _expected_ndv, optimal_num_of_bits

    cap = _expected_ndv(64 * 1024, 0.01)
    assert cap > 0 and cap % NDV_STEP == 0
    # capacity is "slightly smaller than what numBytes supports"
    assert optimal_num_of_bits(cap, 0.01) // 8 <= 64 * 1024
    assert optimal_num_of_bits(cap + NDV_STEP, 0.01) // 8 > 64 * 1024


def test_adaptive_bloom_file_roundtrip(tmp_path):
    """bloom_adaptive writes a candidate-sized filter that still answers
    membership with no false negatives through the file read path."""
    import os

    t = pq.read_table(os.path.join(SF, "lineitem.parquet"),
                      columns=["l_orderkey"])
    path = str(tmp_path / "adaptive.parquet")
    parquet_write.write_table(
        t, path,
        EncodeConfig(bloom_columns={"l_orderkey"}, bloom_adaptive=True),
    )
    f = EncryptedFile(path)
    filt = read_bloom_filter(f, 0, 0)
    assert filt is not None
    # candidate rule: NDV of sf0.001 l_orderkey (~1.5k) -> 64 KiB candidate
    assert len(filt.bitset_bytes()) == 64 * 1024
    keys = t.column("l_orderkey").to_pylist()
    for v in (keys[0], keys[-1], keys[len(keys) // 2]):
        assert all(bloom_might_contain(path, "l_orderkey", v))


def test_cli_footer_and_scan(tmp_path, capsys):
    """ShowFooterCommand / ScanCommand analogs over a written file."""
    import os

    from rayenc.cli import main

    t = pq.read_table(os.path.join(SF, "lineitem.parquet"),
                      columns=["l_orderkey"])
    path = str(tmp_path / "fs.parquet")
    parquet_write.write_table(t, path)
    main(["footer", path])
    out = capsys.readouterr().out
    doc = __import__("json").loads(out)
    assert doc["1"] == 2 and doc["3"] == t.num_rows  # version, num_rows
    main(["scan", path])
    out = capsys.readouterr().out
    assert f"scanned {t.num_rows} rows" in out
