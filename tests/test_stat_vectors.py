"""The whole-table stat merge and finalize against row-at-a-time
references.

``_ref_merge_partials_df`` and ``_ref_finalize_stat_vector`` are the
group-by-apply merge and the per-row finalize the engine used before it
computed both over the whole table; they stay here as the reference.
The engine's versions must return byte-identical counters and stat
vectors, so the lineage ``stats_digest`` of a partition does not depend
on which implementation built it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from pynomaly_ray.config import N_TOKEN_BUCKETS, PARTIAL_STATS_SCHEMA
from pynomaly_ray.functions.hashing import digest_floats, nul_safe_key
from pynomaly_ray.stages.stats import (
    N_LEN_BUCKETS,
    finalize_stat_vectors,
    merge_partials_df,
    partial_stats_batch,
)

SETTINGS = dict(max_examples=40, deadline=None)


def _ref_merge_partials_df(df: pd.DataFrame) -> pd.DataFrame:
    def _vsum(s: pd.Series) -> np.ndarray:
        return np.sum(np.stack([np.asarray(v) for v in s.to_numpy()]), axis=0)

    df = df.assign(partition_id=nul_safe_key(df["partition_id"]))
    g = df.groupby("partition_id", sort=False)
    out = g.agg(
        source=("source", "first"),
        n_rows=("n_rows", "sum"),
        n_tok_sum=("n_tok_sum", "sum"),
        n_tok_sum2=("n_tok_sum2", "sum"),
        n_tok_sum3=("n_tok_sum3", "sum"),
    )
    out["tok_hist"] = g["tok_hist"].apply(_vsum)
    out["len_hist"] = g["len_hist"].apply(_vsum)
    out = out.reset_index()
    out["partition_id"] = out["partition_id"].astype(object)
    return out


def _ref_hist_quantile(hist: np.ndarray, q: float) -> float:
    total = hist.sum()
    if total == 0:
        return 0.0
    target = q * total
    cum = np.cumsum(hist)
    b = int(np.searchsorted(cum, target, side="left"))
    return float(b * 16 + 8)


def _ref_finalize_stat_vector(row: pd.Series) -> np.ndarray:
    n = max(int(row["n_rows"]), 1)
    s1, s2, s3 = row["n_tok_sum"], row["n_tok_sum2"], row["n_tok_sum3"]
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    std = np.sqrt(var)
    if std > 0:
        skew = (s3 / n - 3 * mean * var - mean**3) / (std**3)
    else:
        skew = 0.0
    lh = np.asarray(row["len_hist"], dtype=np.float64)
    th = np.asarray(row["tok_hist"], dtype=np.float64)
    tok_frac = th / max(th.sum(), 1.0)
    return np.concatenate(
        [
            [mean, std, skew],
            [
                _ref_hist_quantile(lh, 0.5),
                _ref_hist_quantile(lh, 0.9),
                _ref_hist_quantile(lh, 0.99),
            ],
            tok_frac,
        ]
    )


def _assert_merged_identical(new: pd.DataFrame, ref: pd.DataFrame) -> None:
    assert list(new.columns) == list(ref.columns)
    assert new["partition_id"].tolist() == ref["partition_id"].tolist()
    assert new["source"].tolist() == ref["source"].tolist()
    for col in ("n_rows", "n_tok_sum", "n_tok_sum2", "n_tok_sum3"):
        a, b = new[col].to_numpy(), ref[col].to_numpy()
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), col
    for col in ("tok_hist", "len_hist"):
        a = np.stack(new[col].to_numpy())
        b = np.stack(ref[col].to_numpy())
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), col


def _assert_vectors_identical(merged: pd.DataFrame) -> None:
    merged = merged.sort_values("partition_id", kind="mergesort")
    merged = merged.reset_index(drop=True)
    new = finalize_stat_vectors(merged)
    ref = np.stack([_ref_finalize_stat_vector(r) for _, r in merged.iterrows()])
    assert new.shape == (len(merged), 6 + N_TOKEN_BUCKETS)
    assert new.dtype == ref.dtype and new.tobytes() == ref.tobytes()
    assert [digest_floats(v) for v in new] == [digest_floats(v) for v in ref]


# Partition ids that differ only after an embedded NUL byte.
_IDS = ["p0", "p0\x00a", "p0\x00b", "p1", "p1\x00", "q", "q\x00q"]


@st.composite
def _partials(draw):
    """Partial rows as ``partial_stats_batch`` emits them: integer-valued
    moment sums of token lengths, several rows per partition, some
    partitions of constant length (std == 0), some all-zero
    histograms."""
    n_parts = draw(st.integers(1, len(_IDS)))
    ids = _IDS[:n_parts]
    rows = []
    for _ in range(draw(st.integers(1, 16))):
        pid = draw(st.sampled_from(ids))
        n = draw(st.integers(0, 6))
        if draw(st.booleans()):  # constant length: std == 0
            lengths = [draw(st.integers(0, 5000))] * n
        else:
            lengths = draw(st.lists(st.integers(0, 5000), min_size=n, max_size=n))
        lf = np.asarray(lengths, dtype=np.float64)
        zero_hists = draw(st.booleans())

        def hist(width):
            if zero_hists:
                return np.zeros(width, dtype=np.int64)
            return np.asarray(
                draw(st.lists(st.integers(0, 50), min_size=width, max_size=width)),
                dtype=np.int64,
            )

        rows.append(
            {
                "partition_id": pid,
                "source": "src-" + pid[:2],
                "n_rows": n,
                "n_tok_sum": float(lf.sum()),
                "n_tok_sum2": float((lf * lf).sum()),
                "n_tok_sum3": float((lf * lf * lf).sum()),
                "tok_hist": hist(N_TOKEN_BUCKETS),
                "len_hist": hist(N_LEN_BUCKETS),
            }
        )
    return pd.DataFrame(rows, columns=PARTIAL_STATS_SCHEMA.names)


@settings(**SETTINGS)
@given(_partials())
def test_merge_and_finalize_match_row_references(partials):
    merged = merge_partials_df(partials)
    _assert_merged_identical(merged, _ref_merge_partials_df(partials))
    assert len(set(merged["partition_id"])) == len(merged)  # NUL ids apart
    _assert_vectors_identical(merged)


def _ref_histograms(batches, vocab: int) -> dict:
    """Per-partition ``(tok_hist, len_hist)`` counted one token and one
    row at a time in Python integers: token ``t`` in bucket
    ``min(t * 16 // vocab, 15)``, a row of ``k`` tokens in bucket
    ``min(k, 4095) // 16``."""
    out: dict = {}
    for batch, mask in batches:
        pids = batch["partition_id"].to_pylist()
        for pid, toks, ok in zip(pids, batch["tokens"].to_pylist(), mask):
            if not ok:
                continue
            tok, ln = out.setdefault(
                pid, ([0] * N_TOKEN_BUCKETS, [0] * N_LEN_BUCKETS)
            )
            for t in toks:
                tok[min(t * N_TOKEN_BUCKETS // vocab, N_TOKEN_BUCKETS - 1)] += 1
            ln[min(len(toks), 4095) // 16] += 1
    return out


def _assert_histograms(merged: pd.DataFrame, batches, vocab: int) -> None:
    ref = _ref_histograms(batches, vocab)
    assert sorted(merged["partition_id"]) == sorted(ref)
    for pid, tok, ln in zip(merged["partition_id"], merged["tok_hist"], merged["len_hist"]):
        assert list(tok) == ref[pid][0], pid
        assert list(ln) == ref[pid][1], pid


def _token_batch(pids, token_lists) -> pa.Table:
    return pa.table(
        {
            "partition_id": pa.array(list(pids), pa.string()),
            "source": pa.array(["web"] * len(pids), pa.string()),
            "tokens": pa.array(token_lists, pa.list_(pa.int32())),
        }
    )


@settings(**SETTINGS)
@given(
    # a power-of-two multiple of 16, a multiple of 16 that is not
    # (1040 = 16 * 65), and two vocabs that are not multiples of 16
    vocab=st.sampled_from([1024, 1040, 1000, 37]),
    seed=st.integers(0, 10_000),
    n_batches=st.integers(1, 4),
)
def test_stat_vectors_from_batches_match_row_references(vocab, seed, n_batches):
    """Partials straight from ``partial_stats_batch`` over several batches
    (so several partial rows per partition), including a vocab that is
    not a multiple of the token-bucket count.  The histograms are also
    checked against a per-token count of the raw rows."""
    rng = np.random.RandomState(seed)
    partials, batches = [], []
    for _ in range(n_batches):
        n = int(rng.randint(1, 40))
        pids = rng.choice(_IDS, n)
        lengths = rng.randint(0, 300, n)
        lengths[pids == "q"] = 7  # a constant-length partition
        tokens = [rng.randint(0, vocab, int(k)).astype(np.int32) for k in lengths]
        batch = _token_batch(pids.tolist(), tokens)
        mask = np.ones(n, dtype=bool)
        batches.append((batch, mask))
        partials.append(partial_stats_batch(batch, mask, vocab))
    df = pa.concat_tables(partials).to_pandas()
    merged = merge_partials_df(df)
    _assert_merged_identical(merged, _ref_merge_partials_df(df))
    _assert_vectors_identical(merged)
    _assert_histograms(merged, batches, vocab)


@pytest.mark.parametrize("vocab", [32768, 1040, 1000, 37])
@pytest.mark.parametrize("layout", ["one_partition", "interleaved"])
def test_histograms_match_per_token_reference(vocab, layout):
    """``tok_hist`` and ``len_hist`` of one batch against the per-token
    reference: every edge id (0, the bucket edges, ``vocab - 1``, ids at
    or above the vocab, which land in the last bucket), empty rows, rows
    past the tracked length, and rows masked out as invalid."""
    rng = np.random.RandomState(vocab)
    edges = sorted({0, vocab // 16, vocab // 2, vocab - 1})
    rows = [
        edges,
        [],
        [vocab - 1] * 3,
        [vocab, vocab + 5],
        rng.randint(0, vocab, 5000).tolist(),
        [],
    ] + [rng.randint(0, vocab, int(k)).tolist() for k in rng.randint(0, 400, 40)]
    if layout == "one_partition":
        pids = ["p0"] * len(rows)
    else:
        pids = [_IDS[i % 3] for i in range(len(rows))]
    mask = np.ones(len(rows), dtype=bool)
    mask[7::9] = False
    batch = _token_batch(pids, rows)
    merged = merge_partials_df(partial_stats_batch(batch, mask, vocab).to_pandas())
    assert len(merged) == len(set(pids))
    _assert_histograms(merged, [(batch, mask)], vocab)

def test_merge_of_empty_bucket_keeps_columns():
    """An empty ``hash_aggregate`` bucket merges to an empty frame with
    the partial columns, as the reference does."""
    empty = PARTIAL_STATS_SCHEMA.empty_table().to_pandas()
    out = merge_partials_df(empty)
    ref = _ref_merge_partials_df(empty)
    assert len(out) == 0
    assert list(out.columns) == list(ref.columns)
    assert out.dtypes.tolist() == ref.dtypes.tolist()
