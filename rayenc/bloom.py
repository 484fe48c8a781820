"""The split-block bloom filter of the Parquet spec, for both formats.

Mirrors `parquet-column/.../values/bloomfilter/BlockSplitBloomFilter.java`:
each value hashes to XXH64 (seed 0) of its PLAIN encoding; the upper 32
bits pick one 256-bit block by the multiply-shift `((h >> 32) * numBlocks)
>> 32` (:244-263) and the lower 32 bits, times the 8 SALT constants, set
one bit in each of the block's 8 32-bit words. Defaults match the
reference (fpp 1%, max 1 MiB — `ParquetProperties.java:63-67`); insertion
and probing are vectorized over the whole key batch.

One builder (`build`) serves the Parquet writer, which stores the bitset
after a BloomFilterHeader, and the container, which stores it base64 in the
chunk's manifest entry beside ``"bloom_v": 2`` (a ``bloom`` without that
marker is an older, differently hashed filter that readers ignore). One
gate and one probe (`probe`) serve both readers: the gate drops the leaves
whose literals have no plain encoding to hash, and `literal_hashes` hashes
a lookup's literals once however many chunks it probes.
"""

from __future__ import annotations

import base64
import functools

import numpy as np

from .codecs import xxh

# BlockSplitBloomFilter.SALT (public parquet format constants)
SALT = np.array(
    [
        0x47B6137B,
        0x44974D91,
        0x8824AD5B,
        0xA2B7289D,
        0x705495C7,
        0x2DF1424B,
        0x9EFC4947,
        0x5C6BFB31,
    ],
    np.uint64,
)

BITS_PER_BLOCK = 256
DEFAULT_FPP = 0.01
MAX_BYTES = 1 << 20  # ParquetProperties.DEFAULT_MAX_BLOOM_FILTER_BYTES
MANIFEST_V = 2  # container manifests: "bloom_v" of a spec-layout "bloom"


def optimal_bytes(ndv: int, fpp: float = DEFAULT_FPP) -> int:
    """Bytes for the target fpp (BlockSplitBloomFilter.optimalNumOfBits)."""
    if ndv <= 0:
        return 32
    bits = -8.0 * ndv / np.log(1 - fpp ** (1.0 / 8))
    nbytes = 1 << int(np.ceil(np.log2(max(bits / 8, 32))))
    return int(min(nbytes, MAX_BYTES))


class SpecBloom:
    """A split-block bloom filter: 32-bit little-endian words, 8 per
    256-bit block, in the spec's bitset layout."""

    def __init__(self, num_bytes: int):
        # spec filters need not be power-of-two sized; only 32-byte blocks
        assert num_bytes >= 32 and num_bytes % 32 == 0
        self.words = np.zeros(num_bytes // 4, np.uint32)
        self.num_blocks = num_bytes // 32

    def _positions(self, hashes: np.ndarray):
        h = np.ascontiguousarray(hashes, np.uint64)
        with np.errstate(over="ignore"):
            block = ((h >> np.uint64(32)) * np.uint64(self.num_blocks)) >> np.uint64(32)
            lanes = (h[:, None] & np.uint64(0xFFFFFFFF)) * SALT[None, :]
        bit = (lanes >> np.uint64(27)).astype(np.uint32) & np.uint32(31)
        word_idx = (
            block[:, None] * np.uint64(8) + np.arange(8, dtype=np.uint64)
        ).astype(np.int64)
        return word_idx, np.uint32(1) << bit

    def add_hashes(self, hashes: np.ndarray) -> None:
        word_idx, masks = self._positions(hashes)
        np.bitwise_or.at(self.words, word_idx.ravel(), masks.ravel())

    def might_contain_hashes(self, hashes: np.ndarray) -> np.ndarray:
        word_idx, masks = self._positions(hashes)
        present = (self.words[word_idx] & masks) == masks
        return present.all(axis=1)

    def bitset_bytes(self) -> bytes:
        return self.words.tobytes()

    def serialize(self) -> str:
        """The bitset as base64 (a container manifest's ``bloom``)."""
        return base64.b64encode(self.bitset_bytes()).decode()

    @classmethod
    def from_bitset(cls, raw: bytes) -> "SpecBloom":
        f = cls.__new__(cls)
        f.words = np.frombuffer(raw, np.uint32).copy()
        f.num_blocks = len(f.words) // 8
        return f

    @classmethod
    def probe_serialized(cls, s: str, hashes: np.ndarray) -> np.ndarray:
        """``from_bitset(b64decode(s)).might_contain_hashes(hashes)``,
        base64-decoding only the 32-byte blocks the hashes land in, not
        the whole bitset."""
        f = cls.__new__(cls)
        f.num_blocks = (len(s) // 4 * 3 - s.count("=", len(s) - 2)) // 32
        word_idx, masks = f._positions(hashes)
        words = np.empty(masks.shape, np.uint32)
        for k, block in enumerate(word_idx[:, 0] // 8):
            lo = 32 * int(block)  # its bytes; 4 base64 chars per 3 bytes
            raw = base64.b64decode(s[lo // 3 * 4 : -(-(lo + 32) // 3) * 4])
            words[k] = np.frombuffer(raw, np.uint32, 8, lo % 3)
        return ((words & masks) == masks).all(axis=1)


def column_hashes(col) -> np.ndarray | None:
    """XXH64 (seed 0) of each non-null value's PLAIN encoding (None for a
    physical type without one the filter hashes: BOOLEAN)."""
    if col.ptype == "BINARY":
        offsets, data = col.values
        return xxh.xxh64_bytes(offsets, data)
    if col.ptype in ("INT32", "INT64", "FLOAT", "DOUBLE"):
        return xxh.xxh64_fixed(np.asarray(col.values))
    if col.ptype == "FIXED_LEN_BYTE_ARRAY":
        v = np.asarray(col.values)
        n, L = v.shape
        offsets = np.arange(0, (n + 1) * L, L, dtype=np.int64)
        return xxh.xxh64_bytes(offsets, v.reshape(-1))
    return None


_PLAIN = {"INT32": np.uint32, "INT64": np.uint64, "FLOAT": np.float32, "DOUBLE": np.float64}


@functools.lru_cache(maxsize=256)
def literal_hashes(values: tuple, ptype: str) -> np.ndarray:
    """XXH64 of each stats-domain lookup literal's PLAIN encoding for a
    leaf of physical type ``ptype`` (an unsigned int wraps to the signed
    storage), memoized: a lookup hashes its literals once, however many
    chunks it probes."""
    out = np.empty(len(values), np.uint64)
    for k, v in enumerate(values):
        if isinstance(v, str):
            v = v.encode()
        if not isinstance(v, bytes):
            dt = _PLAIN[ptype]
            if dt in (np.uint32, np.uint64):
                v = int(v) & int(np.iinfo(dt).max)
            v = np.array([v], dt).tobytes()
        out[k] = xxh.xxh64(v)
    out.flags.writeable = False  # one array serves every caller
    return out


def build(col, config) -> SpecBloom | None:
    """The bloom of one chunk under ``config``: ``bloom_fpp`` sizes it for
    the chunk's distinct-hash count, or with ``bloom_adaptive`` the
    candidate rule does (``bloom_max_bytes``, ``bloom_candidates``). None
    for a chunk without hashable values."""
    h = column_hashes(col)
    if h is None or len(h) == 0:
        return None
    ndv = len(np.unique(h))
    if config.bloom_adaptive:
        nbytes = adaptive_candidate_bytes(
            ndv, config.bloom_max_bytes, config.bloom_candidates, config.bloom_fpp
        )
    else:
        nbytes = optimal_bytes(ndv, config.bloom_fpp)
    f = SpecBloom(nbytes)
    f.add_hashes(h)
    return f


def probe(ptype: str, t, contains):
    """The bloom veto of one chunk, ``values -> bool`` (may it hold any of
    these stats-domain literals), or None for a leaf the probe cannot hash:
    BOOLEAN, INT96 and FLOAT16 (its filter hashes FIXED_LEN_BYTE_ARRAY(2)
    bytes, not a float). ``t`` is the leaf's Arrow type; ``contains(hashes)
    -> bool array`` answers from wherever the bitset lives."""
    import pyarrow as pa

    if ptype in ("BOOLEAN", "INT96") or (t is not None and pa.types.is_float16(t)):
        return None
    return lambda values: bool(contains(literal_hashes(tuple(values), ptype)).any())


# ------------------------------------------ adaptive sizing (candidate rule)

LOWER_BOUND_BYTES = 32  # BlockSplitBloomFilter.LOWER_BOUND_BYTES
UPPER_BOUND_BYTES = 128 << 20  # BlockSplitBloomFilter.UPPER_BOUND_BYTES
NDV_STEP = 500  # AdaptiveBlockSplitBloomFilter.NDV_STEP
DEFAULT_CANDIDATES = 5  # ParquetProperties.DEFAULT_BLOOM_FILTER_CANDIDATES


def optimal_num_of_bits(ndv: int, fpp: float) -> int:
    """Exact mirror of `BlockSplitBloomFilter.optimalNumOfBits:284-302`,
    including its `& ~BITS_PER_BLOCK` rounding quirk (clears bit 8 rather
    than rounding to a block multiple), so adaptive candidate NDV tables
    match the reference bit for bit."""
    m = -8.0 * ndv / np.log(1 - fpp ** (1.0 / 8))
    bits = int(m)
    if bits > UPPER_BOUND_BYTES << 3 or m < 0:
        bits = UPPER_BOUND_BYTES << 3
    bits = (bits + BITS_PER_BLOCK - 1) & ~BITS_PER_BLOCK
    if bits < LOWER_BOUND_BYTES << 3:
        bits = LOWER_BOUND_BYTES << 3
    return bits


def _expected_ndv(num_bytes: int, fpp: float) -> int:
    """`AdaptiveBlockSplitBloomFilter.expectedNDV:134-148`: largest NDV (in
    steps of 500) whose optimal size still fits in num_bytes."""
    ndv, optimal = 0, 0
    while optimal < num_bytes:
        ndv += NDV_STEP
        optimal = optimal_num_of_bits(ndv, fpp) // 8
    return max(ndv - NDV_STEP, 0)


def _bounded_pow2(num_bytes: int) -> int:
    """`calculateBoundedPowerOfTwo:156-167`: largest power of two <=
    num_bytes, clamped to [32, 128 MiB]."""
    num_bytes = max(num_bytes, LOWER_BOUND_BYTES)
    if num_bytes & (num_bytes - 1):
        num_bytes = 1 << (num_bytes.bit_length() - 1)
    return max(min(num_bytes, UPPER_BOUND_BYTES), LOWER_BOUND_BYTES)


def adaptive_candidate_bytes(
    ndv: int,
    max_bytes: int = MAX_BYTES,
    num_candidates: int = DEFAULT_CANDIDATES,
    fpp: float = DEFAULT_FPP,
) -> int:
    """Byte size the reference's AdaptiveBlockSplitBloomFilter would write
    for a chunk with ``ndv`` distinct hashes: candidates are successive
    power-of-two halvings of max_bytes (each with a stepped expected-NDV
    capacity); insertion drops every candidate whose capacity is exceeded;
    writeTo picks the smallest survivor (`optimalCandidate:175-177`,
    `insertHash:205-215`). With the whole chunk in memory we know the exact
    distinct-hash count up front, so the streaming elimination collapses to
    this direct selection — same output size, one pass."""
    sizes = []
    size = _bounded_pow2(max_bytes)
    for _ in range(num_candidates):
        if _expected_ndv(size, fpp) <= 0:
            break
        sizes.append(size)
        size = _bounded_pow2(size // 2)
    if not sizes:
        return LOWER_BOUND_BYTES  # minimum candidate (16-NDV, 32 bytes)
    survivors = [s for s in sizes if _expected_ndv(s, fpp) >= ndv]
    return min(survivors) if survivors else max(sizes)
