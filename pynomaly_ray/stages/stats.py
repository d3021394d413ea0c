"""Per-partition column statistics: mergeable partials + final stat vectors.

The engine analogue of the reference's "observation matrix" construction:
each Parquet partition becomes ONE row of a small stat table (SURVEY.md
§1.2), which is what LoOP is fit on.  Partials are computed per batch
inside the stage-A scan (pure vector-adds: counts, moment sums, token-id
histogram, exact sequence-length histogram) and merged per partition
(``merge_partials_df``) — the classic partial+final aggregation
(SURVEY.md §2.5 A6), so hot partitions never hot-spot a reducer.  The
merge and the final stat vectors (``finalize_stat_vectors``) are
computed over the whole table at once, column by column, never row by
row: their cost stays a few ms at thousands of partitions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pynomaly_ray.config import (
    MAX_TRACKED_LEN,
    N_TOKEN_BUCKETS,
    PARTIAL_STATS_SCHEMA,
)

N_LEN_BUCKETS = MAX_TRACKED_LEN // 16


def _token_histogram(
    flat: np.ndarray,
    codes: np.ndarray,
    lengths: np.ndarray,
    n_parts: int,
    vocab_size: int,
) -> np.ndarray:
    """(n_parts, N_TOKEN_BUCKETS) counts of each partition's token ids by
    bucket ``min(t * N_TOKEN_BUCKETS // vocab_size, N_TOKEN_BUCKETS - 1)``.

    ``flat`` holds the batch's token ids row after row, ``lengths`` the
    row lengths and ``codes`` each row's partition code.  When the vocab
    is a multiple of the bucket count the bucket is ``t // width``, with
    ``width = vocab_size // N_TOKEN_BUCKETS``, and no per-token int64
    formula runs: one partition counts the raw ids and folds the counts
    into buckets; several count one intp key per token, partition code
    times the bucket count plus the bucket, built in place.  Ids at or
    above the vocab (rows ``token_out_of_range`` let through) land in the
    last bucket either way.
    """
    nb = N_TOKEN_BUCKETS
    width = vocab_size // nb
    if vocab_size % nb or not width:
        bucket = (flat.astype(np.int64) * nb // max(vocab_size, 1)).clip(0, nb - 1)
        if n_parts > 1:
            bucket += np.repeat(codes * nb, lengths)
        return np.bincount(bucket, minlength=n_parts * nb).reshape(n_parts, nb)
    if n_parts == 1:
        counts = np.bincount(flat, minlength=vocab_size)
        hist = counts[:vocab_size].reshape(nb, width).sum(axis=1)
        hist[-1] += counts[vocab_size:].sum()
        return hist.reshape(1, nb)
    bucket = flat // np.int32(width)
    np.minimum(bucket, nb - 1, out=bucket)
    key = np.repeat(codes * nb, lengths)
    key += bucket
    return np.bincount(key, minlength=n_parts * nb).reshape(n_parts, nb)


def partial_stats_batch(
    batch: pa.Table, valid_mask: np.ndarray, vocab_size: int
) -> pa.Table:
    """One partial-stats row per partition present in this batch.

    All accumulators are order-insensitive (sums / histogram adds) so the
    later merge is deterministic regardless of task scheduling — required
    for the identical-manifest resume guarantee (north_rule).
    """
    if not valid_mask.any():
        return PARTIAL_STATS_SCHEMA.empty_table()

    # the all-valid batch is the common case: skip the (token-payload
    # copying) filter entirely
    sub = batch if valid_mask.all() else batch.filter(pa.array(valid_mask))
    # null partition_id rows must not raise: bucket them under the same
    # sentinel the violation rows use.  Arrow dictionary_encode, not
    # pd.factorize / np.unique-on-object: pandas' object hash table
    # compares strings as C strings (partition ids differing only after
    # an embedded NUL byte silently merge into one stats group) and
    # np.unique on object arrays is an O(n log n) Python-compare sort —
    # ~60x slower than the length-prefixed Arrow C++ hash table, which
    # is both NUL-safe and faster than either pandas path.
    part_col = sub["partition_id"]
    if isinstance(part_col, pa.ChunkedArray):
        part_col = part_col.combine_chunks()
    enc = pc.dictionary_encode(pc.fill_null(part_col, "<null>"))
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniques = np.asarray(enc.dictionary.to_pylist(), dtype=object)
    source = sub["source"].to_pandas().to_numpy(dtype=object)
    n_parts = len(uniques)

    tokens = sub["tokens"]
    comb = tokens.combine_chunks() if isinstance(tokens, pa.ChunkedArray) else tokens
    offsets = comb.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = comb.values[offsets[0] : offsets[-1]].to_numpy(zero_copy_only=False)
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64)

    lf = lengths.astype(np.float64)
    n_rows = np.bincount(codes, minlength=n_parts).astype(np.int64)
    s1 = np.bincount(codes, weights=lf, minlength=n_parts)
    s2 = np.bincount(codes, weights=lf * lf, minlength=n_parts)
    s3 = np.bincount(codes, weights=lf * lf * lf, minlength=n_parts)

    tok_hist = _token_histogram(flat, codes, lengths, n_parts, vocab_size)

    # Exact sequence-length histogram (bucket width 16, cap MAX_TRACKED_LEN):
    # fully mergeable, exact quantiles at finalize time.
    len_bucket = np.minimum(lengths, MAX_TRACKED_LEN - 1) // 16
    len_hist = np.bincount(
        codes * N_LEN_BUCKETS + len_bucket, minlength=n_parts * N_LEN_BUCKETS
    ).reshape(n_parts, N_LEN_BUCKETS)

    # first source value seen per partition (constant within a partition)
    first_idx = np.full(n_parts, -1, dtype=np.int64)
    uniq_codes, first_pos = np.unique(codes, return_index=True)
    first_idx[uniq_codes] = first_pos
    src_vals = source[first_idx]

    return pa.table(
        {
            "partition_id": pa.array(list(uniques), pa.string()),
            "source": pa.array(list(src_vals), pa.string()),
            "n_rows": pa.array(n_rows, pa.int64()),
            "n_tok_sum": pa.array(s1, pa.float64()),
            "n_tok_sum2": pa.array(s2, pa.float64()),
            "n_tok_sum3": pa.array(s3, pa.float64()),
            "tok_hist": pa.array(list(tok_hist), pa.list_(pa.int64())),
            "len_hist": pa.array(list(len_hist), pa.list_(pa.int64())),
        },
        schema=PARTIAL_STATS_SCHEMA,
    )


def _hist_matrix(col: pd.Series) -> np.ndarray:
    """A histogram column (one int64 vector per row) as one (rows, width)
    matrix."""
    return np.stack(col.to_numpy()).astype(np.int64, copy=False)


def merge_partials_df(df: pd.DataFrame) -> pd.DataFrame:
    """Merge every partition's partial rows into one row per partition.

    The reducer of Stage B on both paths: once over all partials on the
    driver, and once per bucket as ``hash_aggregate``'s ``merge_fn``.
    The partition ids are factorized once by Arrow's hash table, which
    compares the full UTF-8 bytes: ids differing only after an embedded
    NUL stay apart (pandas' object hash table would merge them).  The
    scalar counters are summed by one group-by over those integer codes;
    each histogram column starts from the first partial row of every
    partition and adds the partition's other rows with one
    ``np.add.at``, so a partition seen in one batch costs no addition.
    Output rows follow the ids' first appearance.  Partition ids are
    never null: ``partial_stats_batch`` buckets null ids under
    ``"<null>"``.
    """
    if df.empty:
        return df[PARTIAL_STATS_SCHEMA.names].reset_index(drop=True)
    enc = pc.dictionary_encode(pa.array(df["partition_id"], pa.string()))
    codes = enc.indices.to_numpy(zero_copy_only=False)
    g = df.groupby(codes, sort=True)  # codes follow first appearance
    out = g[["n_rows", "n_tok_sum", "n_tok_sum2", "n_tok_sum3"]].sum()
    out.insert(0, "source", g["source"].first())
    ids = enc.dictionary.to_numpy(zero_copy_only=False)
    out.insert(0, "partition_id", ids)
    first = np.unique(codes, return_index=True)[1]
    rest = np.ones(len(codes), dtype=bool)
    rest[first] = False
    for col in ("tok_hist", "len_hist"):
        mat = _hist_matrix(df[col])
        summed = mat[first]
        np.add.at(summed, codes[rest], mat[rest])
        out[col] = list(summed)
    return out.reset_index(drop=True)


def _cube(x: np.ndarray) -> np.ndarray:
    """``x ** 3`` through the C library's ``pow``, one element at a time.
    NumPy's vectorized power differs from it in the last bits, and the
    stat vectors (so their lineage digests) must stay bit-stable."""
    return np.array([v**3 for v in x.tolist()], dtype=np.float64)


def _hist_quantiles(cum: np.ndarray, q: float) -> np.ndarray:
    """Per-row quantile from exact bucket-count histograms (bucket width
    16), given their row-wise cumulative sums: the midpoint of the first
    bucket whose cumulative count reaches ``q`` of the row's total, 0.0
    for an empty histogram."""
    total = cum[:, -1]
    b = (cum < (q * total)[:, None]).sum(axis=1)
    return np.where(total == 0, 0.0, b * 16.0 + 8.0)


def finalize_stat_vectors(stats: pd.DataFrame) -> np.ndarray:
    """Merged counters -> the (partitions, 22) float64 matrix LoOP sees,
    one stat vector per row of ``stats``, computed column-wise over the
    whole table.

    Features: [mean_n_tok, std_n_tok, skew_n_tok, len_p50, len_p90,
    len_p99, tok_hist_frac_0..N-1].  These are the "n_tok moments,
    token-id histograms, per-source sequence-length sketches" of the
    north_star, as per-partition observations.  Every entry is the same
    float64 operation sequence as a scalar evaluation of one row
    (``_cube`` keeps the C ``pow``), so the vectors are bit-identical to
    a row-at-a-time finalize and the lineage ``stats_digest`` values do
    not depend on how many partitions share the table.
    """
    n = np.maximum(stats["n_rows"].to_numpy(dtype=np.int64), 1)
    s1 = stats["n_tok_sum"].to_numpy(dtype=np.float64)
    s2 = stats["n_tok_sum2"].to_numpy(dtype=np.float64)
    s3 = stats["n_tok_sum3"].to_numpy(dtype=np.float64)
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0)
    std = np.sqrt(var)
    skew = np.zeros(len(n))
    pos = std > 0
    m, v = mean[pos], var[pos]
    skew[pos] = (s3[pos] / n[pos] - 3 * m * v - _cube(m)) / _cube(std[pos])
    len_cum = np.cumsum(_hist_matrix(stats["len_hist"]), axis=1)
    len_cum = len_cum.astype(np.float64)
    th = _hist_matrix(stats["tok_hist"]).astype(np.float64)
    tok_frac = th / np.maximum(th.sum(axis=1), 1.0)[:, None]
    return np.column_stack(
        [
            mean, std, skew,
            _hist_quantiles(len_cum, 0.5),
            _hist_quantiles(len_cum, 0.9),
            _hist_quantiles(len_cum, 0.99),
            tok_frac,
        ]
    )
