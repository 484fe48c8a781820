"""PLAIN / BYTE_STREAM_SPLIT / DELTA_LENGTH_BYTE_ARRAY / DELTA_BYTE_ARRAY /
dictionary codecs — mirrors TestDeltaByteArray.java:38-135,
TestDeltaLengthByteArray.java, ByteStreamSplitValuesWriterTest, plain tests."""

import numpy as np
import pyarrow as pa
import pytest

from rayenc.codecs import (
    bytestream_split,
    delta_length,
    delta_strings,
    dictionary,
    plain,
)


def parts(strings):
    arr = pa.array(strings, pa.string())
    return dictionary.binary_parts(arr)


def rebuild(offsets, data):
    return dictionary.binary_array(offsets, data).to_pylist()


VALUES = ["parquet-mr", "lightning", "unleashed", "the", "white", "lightning-fast"]
SORTED_VALUES = sorted(["aaaa", "aaab", "aaac", "aabb", "abcd", "abcdef", "b"] * 3)


class TestPlain:
    @pytest.mark.parametrize(
        "ptype,dtype",
        [("INT32", np.int32), ("INT64", np.int64), ("FLOAT", np.float32), ("DOUBLE", np.float64)],
    )
    def test_fixed(self, ptype, dtype):
        rng = np.random.default_rng(0)
        vals = (rng.random(100) * 1000 - 500).astype(dtype)
        buf = plain.encode_fixed(vals, ptype)
        assert len(buf) == 100 * np.dtype(dtype).itemsize
        np.testing.assert_array_equal(plain.decode_fixed(buf, 100, ptype), vals)

    def test_boolean(self):
        vals = np.random.default_rng(1).random(37) < 0.5
        buf = plain.encode_boolean(vals)
        assert len(buf) == (37 + 7) // 8
        np.testing.assert_array_equal(plain.decode_boolean(buf, 37), vals)

    def test_binary(self):
        offsets, data = parts(VALUES)
        buf = plain.encode_binary(offsets, data)
        # format: len:int32 LE + payload per value
        assert int.from_bytes(buf[:4], "little") == len(VALUES[0])
        assert buf[4 : 4 + len(VALUES[0])] == VALUES[0].encode()
        o, d = plain.decode_binary(buf, len(VALUES))
        assert rebuild(o, d) == VALUES

    def test_binary_empty_strings(self):
        vals = ["", "a", "", "", "bc"]
        offsets, data = parts(vals)
        o, d = plain.decode_binary(plain.encode_binary(offsets, data), len(vals))
        assert rebuild(o, d) == vals

    def test_fixed_len(self):
        vals = np.random.default_rng(2).integers(0, 256, (50, 16), dtype=np.uint8)
        buf = plain.encode_fixed_len(vals)
        np.testing.assert_array_equal(plain.decode_fixed_len(buf, 50, 16), vals)


class TestByteStreamSplit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32, np.int64])
    def test_roundtrip(self, dtype):
        rng = np.random.default_rng(3)
        vals = (rng.random(1000) * 100).astype(dtype)
        buf = bytestream_split.encode(vals)
        assert len(buf) == 1000 * np.dtype(dtype).itemsize
        np.testing.assert_array_equal(bytestream_split.decode(buf, 1000, dtype), vals)

    def test_layout(self):
        vals = np.array([0x04030201, 0x08070605], np.uint32)
        assert bytestream_split.encode(vals) == bytes(
            [0x01, 0x05, 0x02, 0x06, 0x03, 0x07, 0x04, 0x08]
        )

    @pytest.mark.parametrize("n", [0, 1, 7, 20000])
    @pytest.mark.parametrize(
        "dtype",
        [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64,
         np.float16, np.float32, np.float64] + [np.dtype((np.void, w)) for w in range(1, 17)],
        ids=str,
    )
    def test_planes_are_the_transpose(self, dtype, n):
        # the definition: plane i is byte i of every value, planes in order
        dtype = np.dtype(dtype)
        k = dtype.itemsize
        raw = np.random.default_rng(n + k).integers(0, 256, (n, k), dtype=np.uint8)
        vals = raw if dtype.kind == "V" else raw.reshape(-1).view(dtype)  # FLBA rows are (n, width)
        planes = raw.T.tobytes()
        assert bytestream_split.encode(vals) == planes
        assert bytestream_split.decode(planes, n, dtype).tobytes() == raw.tobytes()


class TestDeltaLength:
    def test_roundtrip(self):
        offsets, data = parts(VALUES)
        buf = delta_length.encode(offsets, data)
        o, d = delta_length.decode(buf, len(VALUES))
        assert rebuild(o, d) == VALUES

    def test_lengths(self):
        # first section is a delta-binary-packed page of the lengths
        offsets, data = parts(VALUES)
        buf = delta_length.encode(offsets, data)
        from rayenc.codecs import delta_bp

        end = delta_bp.decoded_byte_end(buf)
        lengths = delta_bp.decode(buf[:end], np.int32)
        assert lengths.tolist() == [len(v) for v in VALUES]

    def test_random_strings(self):
        rng = np.random.default_rng(4)
        vals = ["x" * int(rng.integers(0, 30)) + str(i) for i in range(1000)]
        offsets, data = parts(vals)
        o, d = delta_length.decode(delta_length.encode(offsets, data), len(vals))
        assert rebuild(o, d) == vals


class TestDeltaByteArray:
    def test_prefix_lengths(self):
        offsets, data = parts(["abcdef", "abcdxy", "abd", ""])
        p = delta_strings.common_prefix_lengths(offsets, data)
        assert p.tolist() == [0, 4, 2, 0]

    def test_long_prefixes_beyond_chunk(self):
        base = "p" * 200
        vals = [base + "a", base + "b", base[:150] + "zz"]
        offsets, data = parts(vals)
        p = delta_strings.common_prefix_lengths(offsets, data)
        assert p.tolist() == [0, 200, 150]

    @pytest.mark.parametrize("vals", [VALUES, SORTED_VALUES, ["same"] * 20, [""] * 5])
    def test_roundtrip(self, vals):
        offsets, data = parts(vals)
        buf = delta_strings.encode(offsets, data)
        o, d = delta_strings.decode(buf, len(vals))
        assert rebuild(o, d) == vals

    def test_random_strings(self):
        rng = np.random.default_rng(5)
        vals = [
            "".join(chr(c) for c in rng.integers(97, 123, int(rng.integers(0, 25))))
            for _ in range(2000)
        ]
        offsets, data = parts(vals)
        o, d = delta_strings.decode(delta_strings.encode(offsets, data), len(vals))
        assert rebuild(o, d) == vals

    def test_sorted_beats_delta_length(self):
        vals = [f"user/shard-{i//100:04d}/doc-{i:08d}" for i in range(5000)]
        offsets, data = parts(vals)
        assert len(delta_strings.encode(offsets, data)) < len(
            delta_length.encode(offsets, data)
        )


class TestDictionary:
    def test_factorize_first_occurrence_order(self):
        arr = pa.array(["b", "a", "b", "c", "a"])
        idx, dic = dictionary.factorize(arr)
        assert dic.to_pylist() == ["b", "a", "c"]
        assert idx.tolist() == [0, 1, 0, 2, 1]

    def test_ids_page_layout(self):
        # [bitwidth byte][rle-hybrid ids] — DictionaryValuesWriter.getBytes
        idx = np.array([0, 1, 2, 3, 0, 1, 2, 3], np.uint32)
        buf = dictionary.encode_ids(idx, 4)
        assert buf[0] == 2  # width of maxId=3
        np.testing.assert_array_equal(dictionary.decode_ids(buf, 8), idx)

    def test_binary_dict_page_roundtrip(self):
        arr = pa.array(VALUES * 3)
        idx, dic = dictionary.factorize(arr)
        page = dictionary.dict_page_binary(dic)
        o, d = dictionary.read_dict_page_binary(page, len(dic))
        assert rebuild(o, d) == VALUES
        got = dictionary.binary_array(o, d).take(pa.array(idx, pa.int64()))
        assert got.to_pylist() == (VALUES * 3)

    def test_fixed_dict_page_roundtrip(self):
        arr = pa.array([1.5, 2.5, 1.5, 3.5] * 10, pa.float64())
        idx, dic = dictionary.factorize(arr)
        page = dictionary.dict_page_fixed(dic, "DOUBLE")
        vals = dictionary.read_dict_page_fixed(page, len(dic), "DOUBLE")
        np.testing.assert_array_equal(vals[idx], np.asarray(arr.to_numpy()))

    def test_dictionary_cost_binary(self):
        # 4 + len per entry — DictionaryValuesWriter.java:241-250
        dic = pa.array(["ab", "cdef"])
        assert dictionary.dictionary_cost_bytes(dic) == (4 + 2) + (4 + 4)

    def test_dictionary_cost_fixed(self):
        assert dictionary.dictionary_cost_bytes(pa.array([1, 2, 3], pa.int32())) == 12
        assert dictionary.dictionary_cost_bytes(pa.array([1.0, 2.0])) == 16
