"""Deterministic synthetic tokenized-sequence table (FIXTURES.md F1).

Schema = the BASELINE.json input_hint shape:
    doc_id: string, tokens: list<int32>, n_tok: int32, source: string

Token content is a seeded mixture exercising every codec path (uniform
random / sorted / constant runs / small alphabet / INT32 MIN-MAX alternating
/ short docs). Generation is vectorized and cached to parquet under /tmp so
benchmarks measure encode, not synthesis.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .codecs.plain import _ranges

VOCAB = 50257
SOURCES = 20
SEED = 42
GENERATOR_VERSION = 1  # bump when make_table's output changes (cache key)

# (share, kind) — FIXTURES.md F1 mixture
MIXTURE = [
    (0.40, "uniform"),
    (0.15, "sorted"),
    (0.15, "runs"),
    (0.15, "small_alphabet"),
    (0.05, "minmax"),
    (0.10, "short"),
]


def make_table(rows: int, mean_tokens: float = 200.0, seed: int = SEED) -> pa.Table:
    rng = np.random.default_rng(seed)
    # n_tok: log-normal heavy tail, clipped to [1, 32768]
    sigma = 1.0
    mu = np.log(mean_tokens) - sigma * sigma / 2
    n_tok = np.clip(rng.lognormal(mu, sigma, rows), 1, 32768).astype(np.int32)

    kinds = rng.choice(
        len(MIXTURE), size=rows, p=np.array([s for s, _ in MIXTURE])
    )
    n_tok[kinds == 5] = rng.integers(1, 9, int((kinds == 5).sum()))  # short docs

    total = int(n_tok.sum())
    offsets = np.zeros(rows + 1, np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    values = np.empty(total, np.int32)

    starts = offsets[:-1]
    for k, (_, kind) in enumerate(MIXTURE):
        sel = np.flatnonzero(kinds == k)
        if not len(sel):
            continue
        lens = n_tok[sel].astype(np.int64)
        tot = int(lens.sum())
        pos = _ranges(starts[sel], lens)
        if kind in ("uniform", "short"):
            values[pos] = rng.integers(0, VOCAB, tot, dtype=np.int32)
        elif kind == "sorted":
            base = rng.integers(0, VOCAB // 2, len(sel))
            step = rng.integers(1, 4, tot).astype(np.int64)
            cs = np.cumsum(step)
            doc_start = np.cumsum(lens) - lens
            within = cs - np.repeat(cs[doc_start] - step[doc_start], lens)
            vals = np.repeat(base, lens) + within
            values[pos] = np.minimum(vals, VOCAB - 1).astype(np.int32)
        elif kind == "runs":
            # runs of length >= 8 of a repeated token
            run_vals = rng.integers(0, VOCAB, tot, dtype=np.int32)
            run_len = 16
            values[pos] = run_vals[np.arange(tot) // run_len]
        elif kind == "small_alphabet":
            alphabet = rng.integers(0, VOCAB, 256, dtype=np.int32)
            values[pos] = alphabet[rng.integers(0, 256, tot)]
        elif kind == "minmax":
            v = np.empty(tot, np.int32)
            v[::2] = -(2**31)
            v[1::2] = 2**31 - 1
            values[pos] = v

    # zipfian source
    src_id = np.minimum(rng.zipf(1.3, rows), SOURCES) - 1
    src_names = [f"source-{i:02d}" for i in range(SOURCES)]
    source = np.array(src_names, object)[src_id]
    shard = rng.integers(0, 100, rows)
    doc_id = [
        f"{s}/{sh:05d}/{i:012d}" for i, (s, sh) in enumerate(zip(source, shard))
    ]

    tokens = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), pa.array(values, pa.int32())
    ).cast(pa.list_(pa.int32()))
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.string()),
            "tokens": tokens,
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(source.tolist(), pa.string()),
        }
    )


def cached_parquet(rows: int, mean_tokens: float = 200.0, seed: int = SEED, dir: str = "/tmp/rayenc-data") -> str:
    """Materialize (once) the synthetic table as a multi-row-group parquet file."""
    os.makedirs(dir, exist_ok=True)
    path = os.path.join(
        dir, f"tokens-v{GENERATOR_VERSION}-r{rows}-m{int(mean_tokens)}-s{seed}.parquet"
    )
    if not os.path.exists(path):
        table = make_table(rows, mean_tokens, seed)
        tmp = path + ".tmp"
        pq.write_table(table, tmp, row_group_size=max(1000, rows // 32))
        os.replace(tmp, path)
    return path
