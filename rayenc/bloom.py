"""Split-block bloom filters for point-lookup partition skipping.

Mirrors `parquet-column/.../values/bloomfilter/BlockSplitBloomFilter.java`
(split-block construction: each key sets one bit in each of 8 32-bit words of
one 256-bit block, chosen by the SALT constants) with the same defaults
(fpp 1%, max 1 MiB — `ParquetProperties.java:63-67`). Hashing uses the
public xxhash-style 64-bit avalanche; insertion and probing are vectorized
over the whole key batch (one scatter per word lane instead of per-key
loops).

The reference's AdaptiveBlockSplitBloomFilter sizes the filter by testing
NDV *candidates* because it streams values; we see the whole chunk, compute
the exact NDV, and size once — strictly subsuming the adaptive variant.

Filters serialize into the partition manifest (like the reference stores
them per column chunk) and `might_contain` powers equality-predicate
partition skipping in the decode path.
"""

from __future__ import annotations

import base64

import numpy as np

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


def optimal_bytes(ndv: int, fpp: float = DEFAULT_FPP) -> int:
    """Bytes for the target fpp (BlockSplitBloomFilter.optimalNumOfBits)."""
    if ndv <= 0:
        return 32
    bits = -8.0 * ndv / np.log(1 - fpp ** (1.0 / 8))
    nbytes = 1 << int(np.ceil(np.log2(max(bits / 8, 32))))
    return int(min(nbytes, MAX_BYTES))


def _hash64(values: np.ndarray) -> np.ndarray:
    """64-bit avalanche of uint64 inputs (xxhash-style finalizer)."""
    x = np.ascontiguousarray(values, np.uint64).copy()
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xC4CEB9FE1A85EC53)
        x ^= x >> np.uint64(33)
    return x


class BloomFilter:
    def __init__(self, num_bytes: int):
        assert num_bytes >= 32 and (num_bytes & (num_bytes - 1)) == 0
        self.words = np.zeros(num_bytes // 4, np.uint32)  # 8 words per block
        self.num_blocks = num_bytes // 32

    def _positions(self, hashes: np.ndarray):
        h = np.ascontiguousarray(hashes, np.uint64)
        block = (h >> np.uint64(32)) % np.uint64(self.num_blocks)
        with np.errstate(over="ignore"):
            lanes = (h[:, None] & np.uint64(0xFFFFFFFF)) * SALT[None, :]
        bit = (lanes >> np.uint64(27)).astype(np.uint32) & np.uint32(31)
        word_idx = (block[:, None] * np.uint64(8) + np.arange(8, dtype=np.uint64)).astype(
            np.int64
        )
        return word_idx, np.uint32(1) << bit

    def add_hashes(self, hashes: np.ndarray) -> None:
        word_idx, masks = self._positions(hashes)
        np.bitwise_or.at(self.words, word_idx.ravel(), masks.ravel())

    def might_contain_hashes(self, hashes: np.ndarray) -> np.ndarray:
        word_idx, masks = self._positions(hashes)
        present = (self.words[word_idx] & masks) == masks
        return present.all(axis=1)

    def serialize(self) -> str:
        return base64.b64encode(self.words.tobytes()).decode()

    @classmethod
    def deserialize(cls, s: str) -> "BloomFilter":
        words = np.frombuffer(base64.b64decode(s), np.uint32)
        f = cls.__new__(cls)
        f.words = words.copy()
        f.num_blocks = len(words) // 8
        return f

    @classmethod
    def probe_serialized(cls, s: str, hashes: np.ndarray) -> np.ndarray:
        """``deserialize(s).might_contain_hashes(hashes)``, base64-decoding
        only the 32-byte blocks the hashes land in, not the whole bitset."""
        f = cls.__new__(cls)
        f.num_blocks = (len(s) // 4 * 3 - s.count("=", len(s) - 2)) // 32
        word_idx, masks = f._positions(hashes)
        words = np.empty(masks.shape, np.uint32)
        for k, block in enumerate(word_idx[:, 0] // 8):
            lo = 32 * int(block)  # its bytes; 4 base64 chars per 3 bytes
            raw = base64.b64decode(s[lo // 3 * 4 : -(-(lo + 32) // 3) * 4])
            words[k] = np.frombuffer(raw, np.uint32, 8, lo % 3)
        return ((words & masks) == masks).all(axis=1)


def hashes_for_column(col) -> np.ndarray | None:
    """64-bit hashes of a PhysicalColumn's values (None if unsupported)."""
    from .ops.dedup import hash_strings
    from .codecs.dictionary import binary_array

    if col.ptype == "BINARY":
        return _hash64(hash_strings(binary_array(*col.values)))
    if col.ptype in ("INT32", "INT64"):
        return _hash64(np.asarray(col.values).astype(np.int64).view(np.uint64))
    if col.ptype in ("FLOAT", "DOUBLE"):
        return _hash64(
            np.asarray(col.values).astype(np.float64).view(np.uint64)
        )
    return None


def build_for_column(col, ndv_hint: int | None = None, fpp: float = DEFAULT_FPP):
    h = hashes_for_column(col)
    if h is None or len(h) == 0:
        return None
    ndv = ndv_hint or len(np.unique(h))
    f = BloomFilter(optimal_bytes(ndv, fpp))
    f.add_hashes(h)
    return f


def value_hash(value, ptype: str = "BINARY") -> np.ndarray:
    """Hash one stats-domain value of physical type ``ptype`` the way
    ``hashes_for_column`` hashed the chunk (an unsigned int wraps to the
    signed storage the filter hashed)."""
    from .ops.dedup import hash_strings
    import pyarrow as pa

    if ptype == "BINARY":
        if isinstance(value, str):
            value = value.encode()
        return _hash64(hash_strings(pa.array([value], pa.large_binary())))
    if ptype in ("INT32", "INT64"):
        if ptype == "INT32":  # the filter hashed int32 storage sign-extended
            value = ((int(value) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000
        return _hash64(np.array([int(value) & 0xFFFFFFFFFFFFFFFF], np.uint64))
    if ptype in ("FLOAT", "DOUBLE"):
        return _hash64(np.array([value], np.float64).view(np.uint64))
    raise TypeError(ptype)


# ------------------------------------------------ parquet-file (spec) blooms


class SpecBloom(BloomFilter):
    """Spec-exact split-block bloom for parquet FILES: block index is the
    multiply-shift `((h >> 32) * numBlocks) >> 32` of
    BlockSplitBloomFilter.java:244-263 (the container variant above keeps
    its original modulo mapping for manifest compatibility), and hashes
    must be XXH64(seed 0) over the value's plain encoding."""

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

    def bitset_bytes(self) -> bytes:
        return self.words.tobytes()  # 32-bit LE words, spec layout

    @classmethod
    def from_bitset(cls, raw: bytes) -> "SpecBloom":
        f = cls.__new__(cls)
        f.words = np.frombuffer(raw, np.uint32).copy()
        f.num_blocks = len(f.words) // 8
        return f


def spec_hashes_for_column(col) -> np.ndarray | None:
    """XXH64(seed 0) of each value's PLAIN encoding — the file-spec bloom
    hash (BlockSplitBloomFilter XXHASH)."""
    from .codecs import xxh

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


def spec_value_hash(value, ptype: str) -> np.ndarray:
    """XXH64 of one lookup value's plain encoding."""
    from .codecs import xxh

    if isinstance(value, str):
        value = value.encode()
    if isinstance(value, bytes):
        return np.array([xxh.xxh64(value)], np.uint64)
    dt = {
        "INT32": np.uint32, "INT64": np.uint64,
        "FLOAT": np.float32, "DOUBLE": np.float64,
    }[ptype]
    if dt in (np.uint32, np.uint64):  # signed plain encoding, unsigned wraps
        value = int(value) & int(np.iinfo(dt).max)
    return np.array([xxh.xxh64(np.array([value], dt).tobytes())], np.uint64)


def build_spec_bloom(col, ndv_hint: int | None = None, fpp: float = DEFAULT_FPP):
    h = spec_hashes_for_column(col)
    if h is None or len(h) == 0:
        return None
    ndv = ndv_hint or len(np.unique(h))
    f = SpecBloom(optimal_bytes(ndv, fpp))
    f.add_hashes(h)
    return f


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


def build_adaptive_spec_bloom(
    col,
    max_bytes: int = MAX_BYTES,
    num_candidates: int = DEFAULT_CANDIDATES,
    fpp: float = DEFAULT_FPP,
):
    """Spec bloom sized by the adaptive candidate rule over the exact
    distinct-hash count (vectorized one-shot equivalent of
    AdaptiveBlockSplitBloomFilter's insert-and-eliminate loop)."""
    h = spec_hashes_for_column(col)
    if h is None or len(h) == 0:
        return None
    ndv = len(np.unique(h))
    f = SpecBloom(adaptive_candidate_bytes(ndv, max_bytes, num_candidates, fpp))
    f.add_hashes(h)
    return f
