"""Distributed k-means over an embedding column — corpus clustering for
curation / mixture design and the bucketing step of SemDeDup-style
semantic dedup (cluster first, then near-dup only within clusters).

Engine shape (Lloyd's iterations, Ray-Data-first):

- **init**: deterministic and partitioning-independent — the centroids
  are the embeddings of the k smallest ``knuth32(vec_id)`` hash keys
  (map-side bottom-k per block, tiny driver merge of k-row partials).
- **iterate**: centroids are broadcast once per round via ``ray.put``;
  one ``map_batches`` pass computes per-batch partial (k x d) sums and
  k counts with one GEMM + ``np.add.at`` scatter — only k x d floats
  leave each task; the driver folds the tiny partials and recomputes
  centroids (empty clusters keep their previous centroid).  A fixed
  ``n_iter`` bounds the work; at 100 TB you fit on a hash-sampled
  subset (``hash_sample`` keep-rule) and run only ``kmeans_assign``
  over the full corpus.
- **assign**: one streaming pass; per batch the (n, k) squared-L2
  matrix comes from the ||x||^2 - 2 x.C^T + ||c||^2 expansion (one
  GEMM), argmin with lowest-cluster-index tie-break.

Float-determinism note: per-round partial sums are folded in block
order, so centroid bits can differ in ulps across different block
partitionings (standard for distributed k-means).  The oracle therefore
certifies the ASSIGNMENT + aggregation machinery over an
order-isomorphic int64 distance surface written by the same run (the
IVF survivors-surface pattern, engine_queries.q_knn_cosine_ivf), while
convergence/quality contracts are pinned by pytest.

Reference scope note: the reference engine (PyNomaly,
reference/PyNomaly/loop.py) has no clustering; this belongs to the
LLM-data-pipeline family layered on the reference's surface.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from pynomaly_ray.functions.hashing import knuth32


def _batch_matrix(t: pa.Table, vec_col: str) -> np.ndarray:
    """(n, d) float64 from a list<float> column — delegates to the one
    shared kernel (stages/similarity._embedding_matrix: offset-sliced
    zero-copy flats + Ray tensor-extension support), with a loud null
    guard: a null embedding row would otherwise silently reshape into a
    wrong-dimension matrix whenever the value count happens to divide
    evenly."""
    from pynomaly_ray.stages.similarity import _embedding_matrix

    col = t[vec_col]
    nulls = (
        col.null_count if hasattr(col, "null_count") else 0
    )
    if nulls:
        raise ValueError(
            f"{vec_col!r} contains {nulls} null embedding(s); drop or "
            "impute them before clustering"
        )
    return _embedding_matrix(t, col=vec_col)


_INIT_OVERSAMPLE = 32


def kmeans_init(emb_ds, k: int, id_col: str = "vec_id", vec_col: str = "embedding"):
    """Deterministic, partitioning-independent seed centroids.

    Two steps: (1) a hash-sampled candidate POOL — the ``k * 32``
    smallest (knuth32(id), id) keys, map-side bottom-k per block and a
    tiny driver merge, so the pool is identical whatever the block
    layout; (2) greedy farthest-point selection over the pool (the
    k-means++ max-min idea, deterministic variant): start from the
    smallest hash key, repeatedly add the candidate farthest from the
    chosen set (ties broken by pool order).  Plain bottom-k seeding
    lands multiple seeds in one dense region with high probability;
    farthest-point spreads them across the data's extent for the cost
    of a (k*32, d) driver-side matrix."""
    pool_n = max(k, k * _INIT_OVERSAMPLE)

    def bottomk(t: pa.Table, k: int = pool_n) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(ids):
            return pa.table(
                {"h": pa.array([], pa.int64()), id_col: pa.array([], pa.int64()),
                 vec_col: t[vec_col]}
            )
        h = knuth32(ids.astype(np.uint64)).astype(np.int64)
        order = np.lexsort((ids, h))[:k]
        return pa.table(
            {
                "h": pa.array(h[order]),
                id_col: pa.array(ids[order]),
                vec_col: t[vec_col].take(pa.array(order)),
            }
        )

    parts = ray.get(
        emb_ds.map_batches(bottomk, batch_format="pyarrow").to_arrow_refs()
    )
    merged = pa.concat_tables([p for p in parts if p.num_rows])
    df = merged.to_pandas().sort_values(["h", id_col], kind="mergesort").head(pool_n)
    idx = pa.array(df.index.to_numpy())
    pool = _batch_matrix(merged.take(idx), vec_col)
    if len(pool) <= k:
        return pool
    # greedy farthest-point over the pool: O(k * pool) distance updates
    chosen = [0]
    mind = ((pool - pool[0]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        nxt = int(mind.argmax())
        chosen.append(nxt)
        np.minimum(mind, ((pool - pool[nxt]) ** 2).sum(axis=1), out=mind)
    return pool[np.asarray(chosen)]


def kmeans_fit(
    emb_ds,
    k: int = 8,
    n_iter: int = 8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> np.ndarray:
    """Lloyd's iterations; returns the final (k, d) centroid matrix.

    The input is materialized ONCE up front: without it, the lazy
    upstream pipeline (parquet read + map stages) would re-execute per
    Lloyd's round plus init — n_iter+1 redundant scans.  Fit inputs are
    bounded by construction (at 100 TB you fit on a hash-sampled subset
    and run only :func:`kmeans_assign` over the full corpus, per the
    module docstring), so holding the fit set in the object store is the
    intended shape."""
    emb_ds = emb_ds.materialize()
    cents = kmeans_init(emb_ds, k, id_col=id_col, vec_col=vec_col)
    for _ in range(n_iter):
        ref = ray.put(cents)

        def partial(t: pa.Table, _ref=ref) -> pa.Table:
            C = ray.get(_ref)
            X = _batch_matrix(t, vec_col)
            if not X.size:
                z = np.zeros_like(C)
                return pa.table(
                    {
                        "sums": pa.array(list(z), pa.list_(pa.float64())),
                        "counts": pa.array(np.zeros(len(C), np.int64)),
                    }
                )
            d2 = (
                (X * X).sum(axis=1)[:, None]
                - 2.0 * X @ C.T
                + (C * C).sum(axis=1)[None, :]
            )
            a = d2.argmin(axis=1)
            sums = np.zeros_like(C)
            np.add.at(sums, a, X)
            counts = np.bincount(a, minlength=len(C)).astype(np.int64)
            return pa.table(
                {
                    "sums": pa.array(list(sums), pa.list_(pa.float64())),
                    "counts": pa.array(counts),
                }
            )

        parts = ray.get(
            emb_ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
        )
        sums = np.zeros_like(cents)
        counts = np.zeros(len(cents), np.int64)
        for p in parts:
            if not p.num_rows:
                continue
            sums += np.asarray(p["sums"].to_pylist(), dtype=np.float64)
            counts += p["counts"].to_numpy(zero_copy_only=False)
        nz = counts > 0
        cents = cents.copy()
        cents[nz] = sums[nz] / counts[nz, None]
    return cents


def kmeans_assign(
    emb_ds,
    centroids: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    surface_sink: str | None = None,
    keep_vec: bool = False,
):
    """Per-vector cluster assignment (one streaming pass).  Returns a
    Dataset of (id, cluster, dist_key) — dist_key is the
    order-isomorphic int64 bit pattern of the non-negative float64
    squared distance to the chosen centroid.  With ``surface_sink``
    set, each task also writes its full (id, cluster, dist_key)
    candidate rows, so a SQL oracle can reconstruct the argmin and
    certify the assignment + downstream aggregation byte-exactly
    without re-deriving floats.  ``keep_vec=True`` carries the
    embedding column through (the semantic-dedup path, where vectors
    ride the cluster exchange instead of being re-joined on)."""
    import os

    if surface_sink is not None:
        os.makedirs(surface_sink, exist_ok=True)
    ref = ray.put(np.ascontiguousarray(centroids, dtype=np.float64))

    def assign(t: pa.Table, _ref=ref) -> pa.Table:
        C = ray.get(_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        X = _batch_matrix(t, vec_col)
        if not len(ids):
            cols = {
                id_col: pa.array([], pa.int64()),
                "cluster": pa.array([], pa.int64()),
                "dist_key": pa.array([], pa.int64()),
            }
            if keep_vec:
                cols[vec_col] = t[vec_col]
            return pa.table(cols)
        d2 = (
            (X * X).sum(axis=1)[:, None]
            - 2.0 * X @ C.T
            + (C * C).sum(axis=1)[None, :]
        )
        # squared distances are >= 0 up to GEMM cancellation; clamp so the
        # int64-bit-pattern key stays order-isomorphic (negative float64
        # bit patterns sort inverted)
        np.maximum(d2, 0.0, out=d2)
        a = d2.argmin(axis=1)
        if surface_sink is not None:
            k = d2.shape[1]
            surf = pa.table(
                {
                    id_col: pa.array(np.repeat(ids, k)),
                    "cluster": pa.array(np.tile(np.arange(k, dtype=np.int64), len(ids))),
                    "dist_key": pa.array(d2.reshape(-1).view(np.int64)),
                }
            )
            import os
            import uuid

            import pyarrow.parquet as papq

            papq.write_table(
                surf, os.path.join(surface_sink, f"{uuid.uuid4().hex}.parquet")
            )
        chosen = d2[np.arange(len(ids)), a]
        cols = {
            id_col: pa.array(ids),
            "cluster": pa.array(a.astype(np.int64)),
            "dist_key": pa.array(chosen.view(np.int64)),
        }
        if keep_vec:
            cols[vec_col] = t[vec_col]
        return pa.table(cols)

    return emb_ds.map_batches(assign, batch_format="pyarrow")


def semantic_dedup_pairs(
    emb_ds,
    centroids: np.ndarray,
    e6_threshold: int,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    surface_sink: str | None = None,
    pair_chunk_cells: int = 4_000_000,
):
    """SemDeDup-style semantic near-dup pairs (Abbas et al. 2023,
    "SemDeDup: Data-efficient learning at web-scale through semantic
    deduplication"): cluster first, then exact pairwise cosine ONLY
    within each cluster — the cluster partitioning turns the corpus-wide
    O(n^2) into O(sum cluster_size^2).

    Vectors ride the cluster-keyed exchange (``keep_vec=True`` on the
    assignment pass) so no re-join ships them twice; each bucket holds
    whole clusters and computes the within-cluster upper-triangle cosine
    with one normalized GEMM per cluster, row-chunked to
    ``pair_chunk_cells`` score cells so the transient (chunk x n_c)
    matrix stays bounded regardless of cluster size.  The threshold cut
    happens on the ROUNDED integer e6 grid, matching the SQL twin's cut
    exactly.

    Scale contract: within-cluster pairwise is inherently quadratic in
    cluster size — at 100 TB pick k so clusters stay ~10^4-10^5 vectors
    (SemDeDup's own recipe: k grows with the corpus, cluster size stays
    fixed).  Pairs emit distributed (one bucket task per cluster set);
    nothing corpus-sized reaches the driver.
    """
    from pynomaly_ray.functions.exchange import hash_aggregate

    assigned = kmeans_assign(
        emb_ds,
        centroids,
        id_col=id_col,
        vec_col=vec_col,
        surface_sink=surface_sink,
        keep_vec=True,
    )

    empty = pa.schema(
        [
            ("vec_a", pa.int64()),
            ("vec_b", pa.int64()),
            ("cluster", pa.int64()),
            ("cosine_e6", pa.int64()),
        ]
    )

    def cluster_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty.empty_table()
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cl = t["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
        M = _batch_matrix(t, vec_col)
        n = np.linalg.norm(M, axis=1)
        M = M / np.where(n > 0, n, 1.0)[:, None]
        outs = []
        # O(#clusters-in-bucket) Python; all pair math is vectorized
        for c in np.unique(cl):
            sel = np.nonzero(cl == c)[0]
            if len(sel) < 2:
                continue
            ids_c, X = ids[sel], M[sel]
            n_c = len(sel)
            step = max(1, int(pair_chunk_cells) // n_c)
            for s in range(0, n_c, step):
                e = min(s + step, n_c)
                S = X[s:e] @ X.T
                e6 = np.floor(S * 1_000_000 + 0.5)
                mask = (e6 >= e6_threshold) & (
                    ids_c[s:e, None] < ids_c[None, :]
                )
                bi, cj = np.nonzero(mask)
                if len(bi):
                    outs.append(
                        pa.table(
                            {
                                "vec_a": pa.array(ids_c[s:e][bi]),
                                "vec_b": pa.array(ids_c[cj]),
                                "cluster": pa.array(
                                    np.full(len(bi), c, np.int64)
                                ),
                                "cosine_e6": pa.array(
                                    e6[bi, cj].astype(np.int64)
                                ),
                            }
                        )
                    )
        if not outs:
            return empty.empty_table()
        return pa.concat_tables(outs)

    return hash_aggregate(assigned, ["cluster"], cluster_pairs, arrow=True)
