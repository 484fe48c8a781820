"""created_by parsing + PARQUET-251 corrupt-statistics gate
(CorruptStatistics.java / VersionParser.java / SemanticVersion.java)."""

import re

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rayenc.created_by import (
    SemVer,
    parse_created_by,
    should_ignore_statistics,
)

SF = "/root/testdata/sf0.001"


def test_parse_created_by_formats():
    assert parse_created_by(
        "parquet-mr version 1.8.0 (build abcd)"
    ) == ("parquet-mr", "1.8.0", "abcd")
    assert parse_created_by("parquet-cpp-arrow version 16.1.0") == (
        "parquet-cpp-arrow", "16.1.0", None,
    )
    assert parse_created_by("rayenc 0.1") == ("rayenc 0.1", None, None)


def test_semver_ordering():
    assert SemVer.parse("1.7.9").compare(SemVer.parse("1.8.0")) < 0
    assert SemVer.parse("1.8.0").compare(SemVer.parse("1.8.0")) == 0
    assert SemVer.parse("1.10.0").compare(SemVer.parse("1.8.0")) > 0
    # prerelease sorts before release
    assert SemVer.parse("1.5.0-cdh5.5.0").compare(SemVer.parse("1.5.0")) < 0
    # dot-wise prerelease identifiers, numerics numerically
    assert SemVer.parse("1.5.0-cdh5.4.9").compare(
        SemVer.parse("1.5.0-cdh5.5.0")
    ) < 0
    # unknown trailing part sorts first (SemanticVersion.compareTo)
    assert SemVer.parse("1.8.0rc4").compare(SemVer.parse("1.8.0")) < 0


@pytest.mark.parametrize(
    "created_by,ptype,ignore",
    [
        # the bug only hits binary columns
        ("parquet-mr version 1.6.0 (build abcd)", "INT64", False),
        ("parquet-mr version 1.6.0 (build abcd)", "BYTE_ARRAY", True),
        ("parquet-mr version 1.6.0", "FIXED_LEN_BYTE_ARRAY", True),
        # fixed in 1.8.0
        ("parquet-mr version 1.8.0 (build abcd)", "BYTE_ARRAY", False),
        ("parquet-mr version 1.10.1 (build abcd)", "BYTE_ARRAY", False),
        # CDH backport window [1.5.0-cdh5.5.0, 1.5.0)
        ("parquet-mr version 1.5.0-cdh5.5.0 (build x)", "BYTE_ARRAY", False),
        ("parquet-mr version 1.5.0-cdh5.4.9 (build x)", "BYTE_ARRAY", True),
        # other writers assumed clean
        ("parquet-cpp-arrow version 16.1.0", "BYTE_ARRAY", False),
        ("rayenc 0.1", "BYTE_ARRAY", False),
        # missing / unparseable created_by -> distrust (PARQUET-297)
        (None, "BYTE_ARRAY", True),
        ("", "BYTE_ARRAY", True),
        ("parquet-mr version totally-not-semver (build b)", "BYTE_ARRAY", True),
        ("parquet-mr", "BYTE_ARRAY", True),
    ],
)
def test_should_ignore_statistics(created_by, ptype, ignore):
    assert should_ignore_statistics(created_by, ptype) is ignore


# VersionParser.FORMAT, matched whole (Matcher.matches)
# (parquet-common/src/main/java/org/apache/parquet/VersionParser.java); a miss
# makes CorruptStatistics.shouldIgnoreStatistics distrust every binary column
_VERSION_PARSER_FORMAT = r"(.*?)\s+version\s*(?:([^(]*?)\s*(?:\(\s*build\s*([^)]*?)\s*\))?)?"


def test_written_created_by_parses_in_the_reference(tmp_path):
    from rayenc import parquet_write

    path = str(tmp_path / "cb.parquet")
    parquet_write.write_table(pa.table({"s": ["a", "b"]}), path)
    written = pq.read_metadata(path).created_by
    m = re.fullmatch(_VERSION_PARSER_FORMAT, written)
    assert m is not None and m.group(1) == "rayenc", written
    assert written == parquet_write.CREATED_BY
    assert not should_ignore_statistics(written, "BYTE_ARRAY")


def test_filtered_read_ignores_legacy_binary_stats(tmp_path, monkeypatch):
    """A file whose created_by marks PARQUET-251 corruption must not prune
    row groups from binary min/max — the filtered read still returns every
    matching row even when the (corrupt) stats would veto the group."""
    from rayenc import parquet_write
    from rayenc.parquet_read_enc import EncryptedFile, read_table_filtered

    t = pq.read_table(f"{SF}/lineitem.parquet",
                      columns=["l_returnflag", "l_orderkey"])
    path = str(tmp_path / "legacy.parquet")
    parquet_write.write_table(t, path, row_group_size=2000)

    # forge a legacy created_by on the parsed footer
    real_init = EncryptedFile.__init__

    def fake_init(self, *a, **k):
        real_init(self, *a, **k)
        self.created_by = "parquet-mr version 1.6.0 (build abcd)"

    monkeypatch.setattr(EncryptedFile, "__init__", fake_init)
    got = read_table_filtered(path, [("l_returnflag", "==", "A")])
    want = t.filter(pc.equal(t.column("l_returnflag"), "A"))
    ks = [(c, "ascending") for c in sorted(t.column_names)]
    assert got.cast(want.schema).sort_by(ks).equals(want.sort_by(ks))
    # integer predicates still prune normally under the same created_by
    got2 = read_table_filtered(path, [("l_orderkey", "<", 100)])
    want2 = t.filter(pc.less(t.column("l_orderkey"), 100))
    assert got2.num_rows == want2.num_rows


def test_cli_check_stats(tmp_path, capsys):
    from rayenc import parquet_write
    from rayenc.cli import main

    t = pa.table({"s": pa.array(["a", "b"])})
    path = str(tmp_path / "ok.parquet")
    parquet_write.write_table(t, path)
    main(["check-stats", path])
    out = capsys.readouterr().out
    assert parquet_write.CREATED_BY in out and "OK" in out


def test_requires_sequential_reads_delta_byte_array():
    # CorruptDeltaByteArrays.requiresSequentialReads (PARQUET-246): pre-1.8
    # parquet-mr DELTA_BYTE_ARRAY pages share prefix state across pages
    from rayenc.created_by import requires_sequential_reads as rsr

    assert rsr("parquet-mr version 1.6.0 (build abc)", 7)
    assert not rsr("parquet-mr version 1.8.0 (build abc)", 7)
    assert not rsr("parquet-mr version 1.9.0 (build x)", 7)
    assert not rsr("parquet-cpp-arrow version 16.0.0", 7)
    assert rsr(None, 7)  # unknown writer: conservative
    # unparseable-version parquet-mr: conservative
    assert rsr("parquet-mr version ??? (build x)", 7)
    # other encodings unaffected
    assert not rsr("parquet-mr version 1.6.0 (build abc)", 4)


def test_page_selected_decode_falls_back_for_pre18_delta(tmp_path, monkeypatch):
    # a pyarrow-written DELTA_BYTE_ARRAY file read filtered stays page-
    # selected (clean writer); forcing a pre-1.8 created_by must produce
    # identical results through the sequential whole-chunk fallback
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayenc import parquet_read_enc as R

    p = str(tmp_path / "dba.parquet")
    t = pa.table(
        {
            "s": pa.array([f"prefix-common-{i:05d}" for i in range(5000)]),
            "k": pa.array(range(5000)),
        }
    )
    pq.write_table(
        t, p, use_dictionary=False,
        column_encoding={"s": "DELTA_BYTE_ARRAY", "k": "PLAIN"},
        write_page_index=True, data_page_size=2048,
    )
    clean = R.read_table_filtered(p, [("k", ">=", 4900)])
    assert clean.num_rows == 100

    orig_init = R.EncryptedFile.__init__

    def fake_init(self, *a, **kw):
        orig_init(self, *a, **kw)
        self.created_by = "parquet-mr version 1.6.0 (build abc)"

    monkeypatch.setattr(R.EncryptedFile, "__init__", fake_init)
    seq = R.read_table_filtered(p, [("k", ">=", 4900)])
    assert seq.num_rows == 100
    assert seq.equals(clean)
