"""RLE / bit-packed hybrid — grammar golden bytes mirrored from
`parquet-column/src/test/.../rle/TestRunLengthBitPackingHybridEncoder.java:44-287`
plus vectorized-vs-state-machine equivalence and round trips."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayenc.codecs import rle_hybrid
from rayenc.codecs.bitpack import unpack_lsb
from rayenc.codecs.varint import read_uvarint


def enc(values, width=3):
    return rle_hybrid.encode(np.asarray(values, np.uint32), width)


def test_rle_only():  # TestRunLengthBitPackingHybridEncoder.testRLEOnly
    buf = enc([4] * 100 + [5] * 100)
    h, i = read_uvarint(buf, 0)
    assert h == 200 and buf[i] == 4
    h, j = read_uvarint(buf, i + 1)
    assert h == 200 and buf[j] == 5
    assert j + 1 == len(buf)


def test_repeated_zeros():  # testRepeatedZeros: initial previousValue == 0
    buf = enc([0] * 10)
    h, i = read_uvarint(buf, 0)
    assert h == 20 and buf[i] == 0 and i + 1 == len(buf)


def test_bitwidth_zero():  # testBitWidthZero
    buf = rle_hybrid.encode(np.zeros(10, np.uint32), 0)
    h, i = read_uvarint(buf, 0)
    assert h == 20 and i == len(buf)


def test_bit_packing_only():  # testBitPackingOnly
    vals = [i % 3 for i in range(100)]
    buf = enc(vals)
    h, i = read_uvarint(buf, 0)
    assert h == 27  # ((104/8) << 1) | 1
    out = unpack_lsb(buf[i:], 104, 3)
    assert out[:100].tolist() == vals
    assert i + 104 * 3 // 8 == len(buf)


def test_bit_packing_overflow():  # testBitPackingOverflow: 504-value run cap
    vals = [i % 3 for i in range(1000)]
    buf = enc(vals)
    h, i = read_uvarint(buf, 0)
    assert h == 127  # ((504/8) << 1) | 1
    out = unpack_lsb(buf[i : i + 504 * 3 // 8], 504, 3)
    assert out.tolist() == vals[:504]
    i += 504 * 3 // 8
    h, i = read_uvarint(buf, i)
    assert h == 125  # ((496/8) << 1) | 1
    out = unpack_lsb(buf[i:], 496, 3)
    assert out[:496].tolist() == vals[504:]


def test_transition_bitpacked_to_rle():  # testTransitionFromBitPackingToRle
    vals = [0, 1, 0, 1, 0] + [2] * 103
    buf = enc(vals)
    h, i = read_uvarint(buf, 0)
    assert h == 3  # one group of 8: 5 literals + 3 donated repeats
    out = unpack_lsb(buf[i : i + 3], 8, 3)
    assert out.tolist() == [0, 1, 0, 1, 0, 2, 2, 2]
    h, i = read_uvarint(buf, i + 3)
    assert h == 200 and buf[i] == 2
    assert i + 1 == len(buf)


def test_padding_zeros_on_unfinished_group():
    # 7 values -> one zero-padded group
    vals = [1, 1, 1, 1, 0, 0, 0]
    buf = enc(vals, width=1)
    h, i = read_uvarint(buf, 0)
    assert h == 3
    out = unpack_lsb(buf[i:], 8, 1)
    assert out.tolist() == vals + [0]


@pytest.mark.parametrize(
    "pattern",
    [
        "random",
        "all_same",
        "alternating_runs8",
        "short_runs",
        "sorted_lowndv",
        "single",
        "group_boundary_7",
        "group_boundary_8",
        "group_boundary_9",
        "run_spanning_groups",
        "trailing_run",
    ],
)
def test_vectorized_matches_state_machine(pattern):
    rng = np.random.default_rng(42)
    if pattern == "random":
        vals = rng.integers(0, 32, 3000, dtype=np.uint32)
    elif pattern == "all_same":
        vals = np.full(777, 13, np.uint32)
    elif pattern == "alternating_runs8":
        vals = np.repeat(np.arange(50, dtype=np.uint32) % 2 * 3, 8)
    elif pattern == "short_runs":
        vals = np.repeat(rng.integers(0, 8, 500, dtype=np.uint32), rng.integers(1, 7))
    elif pattern == "sorted_lowndv":
        vals = np.sort(rng.integers(0, 5, 2000, dtype=np.uint32))
    elif pattern == "single":
        vals = np.array([7], np.uint32)
    elif pattern == "group_boundary_7":
        vals = rng.integers(0, 32, 7, dtype=np.uint32)
    elif pattern == "group_boundary_8":
        vals = rng.integers(0, 32, 8, dtype=np.uint32)
    elif pattern == "group_boundary_9":
        vals = rng.integers(0, 32, 9, dtype=np.uint32)
    elif pattern == "run_spanning_groups":
        vals = np.array([1, 2, 3] + [9] * 20 + [1, 2] + [9] * 9 + [4], np.uint32)
    else:  # trailing_run
        vals = np.array([1, 2, 3, 4, 5] + [6] * 50, np.uint32)
    width = 5
    fast = rle_hybrid.encode(vals, width)
    ref = rle_hybrid.encode_scalar(vals.tolist(), width)
    assert fast == ref, pattern
    out = rle_hybrid.decode(fast, len(vals), width)
    np.testing.assert_array_equal(out, vals)


def test_vectorized_matches_state_machine_fuzz():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(0, 400))
        # mixture of runs and noise to hit donation corners
        vals = []
        while len(vals) < n:
            if rng.random() < 0.5:
                vals += [int(rng.integers(0, 16))] * int(rng.integers(1, 30))
            else:
                vals += rng.integers(0, 16, int(rng.integers(1, 10))).tolist()
        vals = np.array(vals[:n], np.uint32)
        fast = rle_hybrid.encode(vals, 4)
        ref = rle_hybrid.encode_scalar(vals.tolist(), 4)
        assert fast == ref, f"trial {trial}"
        if n:
            np.testing.assert_array_equal(rle_hybrid.decode(fast, n, 4), vals)


def test_framed():
    vals = np.arange(100, dtype=np.uint32) % 4
    buf = rle_hybrid.encode_framed(vals, 2)
    assert int.from_bytes(buf[:4], "little") == len(buf) - 4
    out, consumed = rle_hybrid.decode_framed(buf, 100, 2)
    assert consumed == len(buf)
    np.testing.assert_array_equal(out, vals)


def test_multibyte_rle_header_and_wide_value():
    vals = np.full(100000, 70000, np.uint32)  # needs 17-bit width, 3-byte value
    buf = rle_hybrid.encode(vals, 17)
    h, i = read_uvarint(buf, 0)
    assert h == 100000 << 1
    assert int.from_bytes(buf[i : i + 3], "little") == 70000
    np.testing.assert_array_equal(rle_hybrid.decode(buf, 100000, 17), vals)


def _repetition_levels(rng, rows):
    """A list column's repetition levels: 0 then n-1 ones per row."""
    lens = rng.integers(1, 301, rows)
    levels = np.ones(int(lens.sum()), np.uint32)
    levels[np.cumsum(lens) - lens] = 0
    return levels


@pytest.mark.parametrize("page", ["repetition_levels", "runs_and_noise"])
def test_emit_packs_each_page_once(monkeypatch, page):
    # one pack_lsb call per emit: for one page, and for a chunk planned
    # with page bounds (7 pages, cuts inside runs and spans)
    rng = np.random.default_rng(3)
    if page == "repetition_levels":
        vals, width = _repetition_levels(rng, 2000), 1
    else:
        parts = [
            np.full(int(rng.integers(8, 40)), int(rng.integers(0, 64)), np.uint32)
            if k % 2
            else rng.integers(0, 64, int(rng.integers(1, 30)), dtype=np.uint32)
            for k in range(400)
        ]
        vals, width = np.concatenate(parts), 6
    cuts = np.sort(rng.choice(np.arange(1, len(vals)), 6, replace=False)).tolist()
    edges = [0, *cuts, len(vals)]
    real = rle_hybrid.pack_lsb
    for bounds in ([(0, len(vals))], list(zip(edges[:-1], edges[1:]))):
        plan = rle_hybrid.Plan(vals, width, bounds if len(bounds) > 1 else None)
        calls = []
        monkeypatch.setattr(
            rle_hybrid, "pack_lsb", lambda v, w: calls.append(len(v)) or real(v, w)
        )
        out = plan.emit()
        monkeypatch.setattr(rle_hybrid, "pack_lsb", real)
        assert len(calls) <= 1
        want = [rle_hybrid.encode_scalar(vals[a:b].tolist(), width) for a, b in bounds]
        assert (out if len(bounds) > 1 else [out]) == want


# run lengths weighted toward 8-14, where the rle-run decision depends on the
# bit-packed span before the run since the page start
_RUN_LENGTHS = st.sampled_from(list(range(1, 21)) + list(range(8, 15)) * 3 + [64, 600])


@st.composite
def _paged_chunk(draw):
    """Run-structured values of width 0-32 cut into pages at random
    bounds: 1-value and empty pages, cuts inside runs, and sometimes a
    sample of non-adjacent pages (the selector's 3-page sample)."""
    width = draw(st.integers(0, 32))
    value = st.integers(0, (1 << width) - 1)
    runs = draw(st.lists(st.tuples(value, _RUN_LENGTHS), max_size=120))
    vals = np.array([v for v, k in runs for _ in range(k)][:3000], np.uint64)
    n = len(vals)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=12)))
    ones = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3)) if n else []
    edges = sorted({0, n, *cuts, *ones, *(i + 1 for i in ones)})
    bounds = list(zip(edges[:-1], edges[1:]))
    bounds += [(e, e) for e in draw(st.lists(st.sampled_from(edges), max_size=2))]
    bounds.sort()
    if len(bounds) > 3 and draw(st.booleans()):
        bounds = [bounds[0], bounds[len(bounds) // 2], bounds[-1]]
    return vals, width, bounds


@given(case=_paged_chunk())
@settings(max_examples=150, deadline=None)
def test_paged_plan_is_each_page_planned_alone(case):
    vals, width, bounds = case
    plan = rle_hybrid.Plan(vals, width, bounds)
    want = [rle_hybrid.encode_scalar(vals[a:b].tolist(), width) for a, b in bounds]
    assert plan.sizes.tolist() == [len(w) for w in want]
    assert plan.size == sum(map(len, want))
    assert plan.emit() == want
    # a bijection of the values (a sorted-dictionary remap) moves no run
    if 0 < width <= 12:
        lut = ((1 << width) - 1 - np.arange(1 << width)).astype(np.uint32)
        assert plan.emit(lut) == [
            rle_hybrid.encode_scalar(lut[vals[a:b]].tolist(), width) for a, b in bounds
        ]


# the array walk's two thresholds: patched to force one walk or the other
WALKS = {"python": (1 << 62, 1 << 62), "vector": (0, 0)}


@contextlib.contextmanager
def _walk(name):
    with mock.patch.multiple(
        rle_hybrid, VECTOR_MIN_BYTES=WALKS[name][0], VECTOR_MIN_DENSITY=WALKS[name][1]
    ):
        yield


@st.composite
def _chunk(draw):
    """A column chunk as 1-40 independently encoded pages of one width:
    runs long enough for multi-byte rle headers (>= 64 values), noise spans
    of more than 63 groups, partial final groups, empty pages, and counts
    that stop inside a page's last runs."""
    width = draw(st.integers(0, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pages = []
    for _ in range(draw(st.integers(1, 40))):
        parts = []
        for kind, length in draw(
            st.lists(st.tuples(st.sampled_from("rn"), st.integers(1, 1100)), max_size=4)
        ):
            if kind == "r":
                parts.append(np.full(length, rng.integers(0, 1 << width), np.uint32))
            else:
                parts.append(rng.integers(0, 1 << width, length).astype(np.uint32))
        vals = np.concatenate(parts) if parts else np.zeros(0, np.uint32)
        n = draw(st.sampled_from([len(vals), len(vals) * 3 // 4]))
        pages.append((rle_hybrid.encode(vals, width), vals[:n]))
    return width, pages


@pytest.mark.parametrize("walk", sorted(WALKS))
@settings(max_examples=120, deadline=None)
@given(case=_chunk())
def test_decode_many_streams_is_the_concatenation(walk, case):
    width, pages = case
    bufs = [buf for buf, _ in pages]
    counts = [len(v) for _, v in pages]
    want = np.concatenate([v for _, v in pages])
    one_by_one = [rle_hybrid.decode(buf, n, width) for buf, n in zip(bufs, counts)]
    np.testing.assert_array_equal(np.concatenate(one_by_one), want)
    with _walk(walk):
        got = rle_hybrid.decode(bufs, counts, width, np.uint32)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == np.uint32


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_decode_walk_is_chosen_by_size_and_density(walk, monkeypatch):
    rep = _repetition_levels(np.random.default_rng(5), 1000)  # 148k levels, 4.7 KB
    pages = [rep[a : a + 2000] for a in range(0, len(rep), 2000)]
    bufs = [rle_hybrid.encode(p, 1) for p in pages]
    called = []
    for name in ("_walk_python", "_walk_vector"):
        real = getattr(rle_hybrid, name)
        monkeypatch.setattr(rle_hybrid, name, lambda *a, _r=real, _n=name: called.append(_n) or _r(*a))
    with _walk(walk):
        got = rle_hybrid.decode(bufs, [len(p) for p in pages], 1, np.uint8)
    np.testing.assert_array_equal(got, rep)
    # unpatched: a level-dense chunk takes the array walk, one small
    # dictionary-id-like page the python walk
    rle_hybrid.decode(bufs, [len(p) for p in pages], 1, np.uint8)
    ids = np.random.default_rng(6).integers(0, 1 << 12, 3000).astype(np.uint32)
    rle_hybrid.decode(rle_hybrid.encode(ids, 12), len(ids), 12)
    assert called == [f"_walk_{walk}", "_walk_vector", "_walk_python"]
