"""Distributed LoOP over large row sets (beyond the reference's reach).

The reference's LoOP is bounded by one machine: O(n^2/cluster) kNN with
the whole matrix in RAM (loop.py:648-694), ceiling ~10^4-10^5 rows.
This operator scales LoOP to arbitrarily many rows by exploiting the
algorithm's own structure: every LoOP statistic is computed *within* a
cluster (docs/how-it-works.md:79-81), so

    partition rows into co-located buckets  ->  exact LoOP per bucket

is EXACTLY ``loop_core`` with ``cluster_labels = bucket_id`` — not an
approximation of clustered LoOP (asserted by test).  Versus a *global*
single-cluster fit it is the standard locality approximation: a point's
k nearest neighbors are found inside its bucket, so bucket boundaries
can perturb scores for points whose true neighborhood crosses them.
Choose the bucketer accordingly:

- pre-existing semantic clusters (the reference's own cluster_labels
  use case): exact, no caveat;
- hyperplane-LSH buckets over embeddings: approximate global LoOP,
  quality improves with fewer/larger buckets.

Execution: one keyed :func:`~pynomaly_ray.functions.exchange.hash_aggregate`
exchange (the buckets are the shuffle) whose per-bucket reducer runs the
vectorized loop_core fit on its slice.  Bucket size must satisfy
``bucket_rows > n_neighbors`` (loop_core's ClusterSizeError contract)
and fit one worker's memory; size ``num_buckets`` to rows/target.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _fit_group(X: np.ndarray, n_neighbors: int, extent: int) -> np.ndarray:
    """Exact LoOP scores for one (sub-)cluster with the per-group k clamp
    (a 1-row group has no neighborhood and scores 0)."""
    import warnings

    from pynomaly_ray.loop_core import LocalOutlierProbability

    k = min(n_neighbors, len(X) - 1)
    if k < 1:
        return np.zeros(len(X))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.asarray(
            LocalOutlierProbability(X, n_neighbors=k, extent=extent)
            .fit()
            .local_outlier_probabilities,
            dtype=np.float64,
        )


def _loop_bucket(
    t: pa.Table,
    id_col: str,
    vec_col: str,
    label_col,
    n_neighbors: int,
    extent: int,
) -> pa.Table:
    """LoOP scores of one exchange bucket -> (id_col, loop_score)."""
    if t.num_rows == 0:
        # keep the id column's real type so all blocks unify
        return pa.table(
            {
                id_col: pa.array([], t.schema.field(id_col).type),
                "loop_score": pa.array([], pa.float64()),
            }
        )
    # the exchange delivers rows in no fixed order, and the fit's float
    # sums follow row order: fit in id order for reproducible scores
    t = t.take(pc.sort_indices(t, [(id_col, "ascending")]))
    # strip pandas metadata: Ray's tensor-extension reconstruction hints
    # don't round-trip through worker processes for ndarray cells
    df = t.replace_schema_metadata(None).to_pandas()
    ids = df[id_col].to_numpy()
    X = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])

    scores = np.empty(len(df), dtype=np.float64)
    if label_col is not None:
        # Several distinct bucketer labels can hash into the same task;
        # each label is an independent LoOP population — fit separately
        # so hash collisions never mix neighborhoods.
        labels = df[label_col].to_numpy()
        for lab in pd.unique(labels):
            rows = np.flatnonzero(labels == lab)
            scores[rows] = _fit_group(X[rows], n_neighbors, extent)
    else:
        scores[:] = _fit_group(X, n_neighbors, extent)
    return pa.table(
        {
            id_col: pa.array(ids),
            "loop_score": pa.array(scores, pa.float64()),
        }
    )


def distributed_loop_scores(
    ds,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    bucket_col: str = "bucket",
    n_neighbors: int = 10,
    extent: int = 3,
    num_buckets: int | None = None,
    bucketer: Optional[Callable] = None,
):
    """LoOP scores for every row of a (large) Dataset of vectors.

    ``bucketer``: optional ``map_batches`` callable adding ``bucket_col``
    (e.g. stages/similarity.HyperplaneLSH for embedding locality, or a
    pass-through when the data already carries semantic cluster labels).
    When None, rows are hash-bucketed by ``id_col`` — exact per-bucket
    LoOP with random buckets (useful as a parallel scoring baseline).

    ``num_buckets`` defaults to size-adaptive: the exchange fan-out rule
    (:func:`auto_num_partitions` over the materialized bytes — LoOP's
    per-bucket O(rows^2) work argues for MORE buckets, never fewer, so
    the memory-driven floor is safe), capped so an average bucket keeps
    more than ``n_neighbors`` rows (below that a bucket has no real
    neighborhood and scores degenerate toward 0).  Pass an explicit
    count only to pin semantics (e.g. 1 = the reference's global fit).

    Returns a Dataset of (id_col, loop_score).
    """
    if bucketer is not None:
        ds = ds.map_batches(bucketer, batch_format="pyarrow")
        key, label_col = [bucket_col], bucket_col
    else:
        key, label_col = [id_col], None

    from pynomaly_ray.functions.exchange import auto_num_partitions, hash_aggregate

    if num_buckets is None:
        ds = ds.materialize()
        max_p = max(1, ds.count() // (n_neighbors + 1))
        num_buckets = max(
            1, min(auto_num_partitions(ds.size_bytes() or 0), max_p)
        )
    return hash_aggregate(
        ds,
        key,
        functools.partial(
            _loop_bucket,
            id_col=id_col,
            vec_col=vec_col,
            label_col=label_col,
            n_neighbors=n_neighbors,
            extent=extent,
        ),
        num_partitions=num_buckets,
        arrow=True,
    )
