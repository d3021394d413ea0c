"""Similarity search over embedding columns (list<float>).

- Brute-force cosine top-k: numpy matmul per batch against a broadcast
  query matrix, then a global top-k merge — the exact baseline.
- LSH-bucketed variant (random hyperplane signs): candidate buckets
  shrink the scanned set; the scale path when the corpus >> memory.
- Embedding near-dup: all pairs above a cosine threshold via the same
  bucketing.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa


def _embedding_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    if batch.num_rows == 0:
        return np.empty((0, 0), dtype=np.float64)
    emb = batch[col]
    comb = emb.combine_chunks() if isinstance(emb, pa.ChunkedArray) else emb
    if hasattr(comb, "offsets"):  # plain Arrow list<float>
        offs = comb.offsets.to_numpy(zero_copy_only=False)
        flat = comb.values[offs[0] : offs[-1]].to_numpy(zero_copy_only=False)
        return flat.astype(np.float64).reshape(batch.num_rows, -1)
    # Ray's ArrowTensorArray extension (fixed-shape tensors)
    return np.asarray(comb.to_numpy(zero_copy_only=False), dtype=np.float64)


class CosineTopK:
    """Actor-pool stage: per-batch cosine scores against Q broadcast query
    vectors, emitting each batch's local top-k per query.  A final tiny
    driver-side merge of (n_batches x k) rows yields the global top-k —
    no full-corpus sort."""

    def __init__(self, queries_ref, k: int = 10):
        import ray

        q = (
            ray.get(queries_ref)
            if isinstance(queries_ref, ray.ObjectRef)
            else queries_ref
        )
        q = np.asarray(q, dtype=np.float64)
        if q.ndim == 1:
            q = q[None, :]
        self.qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        M = _embedding_matrix(batch)
        norms = np.linalg.norm(M, axis=1)
        S = (M @ self.qn.T) / np.where(norms > 0, norms, 1.0)[:, None]
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        out_q, out_id, out_s = [], [], []
        k = min(self.k, len(vec_ids))
        for qi in range(S.shape[1]):
            col = S[:, qi]
            idx = np.argpartition(-col, k - 1)[:k]
            out_q.extend([qi] * k)
            out_id.extend(vec_ids[idx].tolist())
            out_s.extend(col[idx].tolist())
    # noqa: local top-k only; global merge happens downstream
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )


def _merge_topk(k: int):
    """Per-bucket exact top-k reducer: every query's survivor rows are
    key-co-located, so head(k) per bucket IS the global top-k."""

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(
                ["query_id", "score", "vec_id"], ascending=[True, False, True]
            )
            .groupby("query_id", sort=False)
            .head(k)
            .reset_index(drop=True)
        )

    return merge


def _present_topk(survivors_ds, k: int) -> pd.DataFrame:
    """Survivors -> exchange-merged top-k -> presentation-ordered frame.

    The merge runs as a hash_aggregate on query_id, so the driver only
    ever sees n_queries*k final rows — many-query workloads stay bounded
    where a driver concat of n_batches*Q*k survivor rows would not.
    """
    from pynomaly_ray.functions.exchange import hash_aggregate

    df = hash_aggregate(survivors_ds, ["query_id"], _merge_topk(k)).to_pandas()
    if df.empty:
        return pd.DataFrame(
            {
                "query_id": pd.Series(dtype=np.int64),
                "vec_id": pd.Series(dtype=np.int64),
                "score": pd.Series(dtype=np.float64),
            }
        )
    return df.sort_values(
        ["query_id", "score", "vec_id"], ascending=[True, False, True]
    ).reset_index(drop=True)


def cosine_topk(ds, queries: np.ndarray, k: int = 10) -> pd.DataFrame:
    """Global cosine top-k per query over an embeddings Dataset."""
    import ray

    qref = ray.put(np.asarray(queries, dtype=np.float64))
    local = ds.map_batches(
        CosineTopK,
        fn_constructor_kwargs={"queries_ref": qref, "k": k},
        batch_format="pyarrow",
        batch_size=8192,
        concurrency=(1, 4),
    )
    return _present_topk(local, k)


def _kmeans_spherical(
    M: np.ndarray, k: int, iters: int = 10, seed: int = 13
) -> np.ndarray:
    """Deterministic spherical k-means (cosine/dot assignment) for IVF
    coarse quantization: rows of ``M`` must be L2-normalized; returns
    (k, dim) normalized centroids.  Pure numpy Lloyd iterations — no
    sklearn in this environment."""
    rng = np.random.RandomState(seed)
    n = len(M)
    k = min(k, n)
    C = M[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(M @ C.T, axis=1)
        empty = []
        for c in range(k):
            rows = assign == c
            if rows.any():
                v = M[rows].sum(axis=0)
                norm = np.linalg.norm(v)
                if norm > 0:
                    C[c] = v / norm
            else:
                empty.append(c)
        if empty:
            _reseed_empty_centroids(C, M, assign, empty)
    return C


def _reseed_empty_centroids(
    C: np.ndarray, M: np.ndarray, assign: np.ndarray, empty: list[int]
) -> None:
    """Re-seed each empty centroid at a DISTINCT worst-served point
    (ascending cosine to its assigned centroid), deterministically.
    Several centroids emptying in the same Lloyd iteration must not all
    land on the identical point — duplicate centroids waste n_probe
    budget in cosine_topk_ivf."""
    served = (M * C[assign]).sum(axis=1)
    order = np.argsort(served, kind="stable")  # worst-served first
    for i, c in enumerate(empty):
        C[c] = M[order[i % len(order)]]


def cosine_topk_ivf(
    ds,
    queries: np.ndarray,
    k: int = 10,
    *,
    n_centroids: int = 16,
    n_probe: int = 4,
    train_rows: int = 16384,
    seed: int = 13,
    survivors_sink: Optional[str] = None,
) -> pd.DataFrame:
    """IVF approximate cosine top-k: the scale path beyond brute force.

    Coarse centroids are trained once on a bounded sample (driver-side,
    O(train_rows x dim)); every worker task then assigns its batch's
    vectors to centroids with one matmul and scores ONLY the rows whose
    centroid is among each query's ``n_probe`` closest — scanning
    n_probe/n_centroids of the corpus instead of all of it.  Same
    output schema as :func:`cosine_topk`; recall is the IVF tradeoff
    (raise n_probe toward n_centroids to approach exact).
    """
    import ray

    sample = ds.limit(train_rows).to_pandas()
    S = np.stack(sample["embedding"].to_numpy()).astype(np.float64)
    sn = np.linalg.norm(S, axis=1)
    C = _kmeans_spherical(
        S / np.where(sn > 0, sn, 1.0)[:, None], n_centroids, seed=seed
    )
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    n_probe = min(n_probe, len(C))
    # (Q, n_probe) centroid ids each query probes
    probes = np.argpartition(-(qn @ C.T), n_probe - 1, axis=1)[:, :n_probe]
    probe_masks = np.zeros((len(qn), len(C)), dtype=bool)
    for qi in range(len(qn)):
        probe_masks[qi, probes[qi]] = True
    cref = ray.put((C, qn, probe_masks))

    def scan(batch: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("query_id", pa.int64()),
                ("vec_id", pa.int64()),
                ("score", pa.float64()),
            ]
        )
        if batch.num_rows == 0:
            return out_schema.empty_table()
        C_l, qn_l, masks = ray.get(cref)
        M = _embedding_matrix(batch)
        norms = np.linalg.norm(M, axis=1)
        Mn = M / np.where(norms > 0, norms, 1.0)[:, None]
        assign = np.argmax(Mn @ C_l.T, axis=1)
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        out_q, out_id, out_s = [], [], []
        for qi in range(len(qn_l)):
            rows = np.flatnonzero(masks[qi][assign])
            if not len(rows):
                continue
            scores = Mn[rows] @ qn_l[qi]
            kk = min(k, len(rows))
            top = np.argpartition(-scores, kk - 1)[:kk]
            out_q.extend([qi] * kk)
            out_id.extend(vec_ids[rows[top]].tolist())
            out_s.extend(scores[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )

    local = ds.map_batches(scan, batch_format="pyarrow", batch_size=8192)
    if survivors_sink is not None:
        # Materialize the per-batch survivor candidates and re-read them,
        # so the exchange-merged top-k is computed from exactly the rows
        # an external oracle (SQL over the sink) can see.  score_key is
        # an order-isomorphic int64 view of the float score (IEEE-754
        # total-order trick; +0.0 normalizes -0.0) letting integer SQL
        # reproduce the merge's (score DESC, vec_id) selection exactly.
        from pynomaly_ray.sources.parquet import read_parquet_clean

        def add_key(t: pa.Table) -> pa.Table:
            s = t["score"].to_numpy(zero_copy_only=False) + 0.0
            b = s.view(np.int64)
            key = b ^ ((b >> np.int64(63)) & np.int64(0x7FFFFFFFFFFFFFFF))
            t = t.set_column(
                t.schema.get_field_index("score"), "score", pa.array(s)
            )
            return t.append_column("score_key", pa.array(key, pa.int64()))

        local.map_batches(add_key, batch_format="pyarrow").write_parquet(
            survivors_sink
        )
        local = read_parquet_clean(survivors_sink)
    out = _present_topk(local, k)
    return out.drop(columns=["score_key"], errors="ignore")


class HyperplaneLSH:
    """Random-hyperplane sign buckets: adds ``bucket: int64`` so that a
    groupby("bucket") co-locates probable neighbors (IVF/LSH scale path
    for similarity search and embedding near-dup)."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 11, col: str = "embedding"):
        rng = np.random.RandomState(seed)
        self.planes = rng.randn(dim, n_planes)
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("bucket", pa.array([], pa.int64()))
        M = _embedding_matrix(batch, self.col)
        signs = (M @ self.planes) > 0
        bucket = signs @ (1 << np.arange(signs.shape[1], dtype=np.int64))
        return batch.append_column(
            "bucket", pa.array(bucket.astype(np.int64), pa.int64())
        )


class MultiTableLSH:
    """L independent hyperplane tables of k planes each: emits the long
    format (vec_id, table_id, bucket) — L rows per vector.  With
    ``keep_embedding=True`` the vector column rides along (n·L vector
    copies through ONE exchange — far cheaper than re-joining vectors
    onto a candidate-PAIR stream, which is O(pairs) ≫ n·L whenever
    buckets actually collide).  OR-ing tables lifts recall from p^k to
    1-(1-p^k)^L, the standard LSH knob."""

    def __init__(
        self,
        dim: int,
        n_planes: int = 4,
        n_tables: int = 8,
        seed: int = 11,
        keep_embedding: bool = False,
    ):
        rng = np.random.RandomState(seed)
        # (dim, n_tables * n_planes): one matmul covers all tables
        self.planes = rng.randn(dim, n_tables * n_planes)
        self.n_planes = n_planes
        self.n_tables = n_tables
        self.keep_embedding = keep_embedding

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            cols = {
                "vec_id": pa.array([], pa.int64()),
                "table_id": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()),
            }
            if self.keep_embedding and "embedding" in batch.schema.names:
                cols["embedding"] = batch["embedding"]
            return pa.table(cols)
        M = _embedding_matrix(batch)
        signs = (M @ self.planes) > 0  # (n, T*k)
        signs = signs.reshape(n, self.n_tables, self.n_planes)
        bucket = signs @ (1 << np.arange(self.n_planes, dtype=np.int64))
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        out = pa.table(
            {
                "vec_id": pa.array(np.repeat(vec_ids, self.n_tables), pa.int64()),
                "table_id": pa.array(
                    np.tile(np.arange(self.n_tables, dtype=np.int64), n), pa.int64()
                ),
                "bucket": pa.array(bucket.astype(np.int64).ravel(), pa.int64()),
            }
        )
        if self.keep_embedding:
            # the vector rides the exchange with its bucket row (once per
            # table), so verification can run IN the bucket reducer
            idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), self.n_tables))
            out = out.append_column(
                "embedding", batch["embedding"].take(idx)
            )
        return out


_BUCKET_PAIR_CAP = 512


# Largest (groups x s x s) cosine tensor one einsum slice may build
# (cells); keeps the batched per-size verification within a fixed
# memory envelope regardless of how many same-size groups a bucket holds.
_VERIFY_CHUNK_CELLS = 4_000_000


def _verified_bucket_pairs(
    threshold: float, cap: int = _BUCKET_PAIR_CAP, e6_grid: bool = False
):
    """Bucket reducer: verify candidate pairs WHERE THE VECTORS ALREADY
    ARE.  Each (table_id, bucket) collision group's exact pairwise
    cosines are computed with one batched einsum per group SIZE (all
    groups of one size stack into a (m, s, dim) tensor — Python cost is
    O(#distinct sizes)), thresholded in place; only surviving pairs
    leave the reducer.  Oversized groups (> cap) verify member-vs-
    smallest-id star pairs, same rationale as the dedup star cap.

    This replaces the candidate-pair + double-hash-join design: a
    corpus whose buckets genuinely collide emits O(pairs) candidate
    rows and then ships TWO vectors per pair through the joins —
    O(pairs·dim) bytes, which at coarse bucketing dwarfs the n·L vector
    copies this path pays in the single bucket exchange (measured 1M
    candidate pairs from 2k vectors at sf0.1: 3 s -> the exchange-only
    path removes the joins entirely).

    ``e6_grid``: threshold on the ROUNDED integer surface
    floor(cos*1e6+0.5) instead of the raw float — shrinks the window
    where an external float recomputation (the DuckDB oracle) can
    disagree from the [t-5e-7, t) threshold band to the ~1-ulp
    neighborhoods of half-integer e6 boundaries (two double-precision
    evaluations with different op order can still round a value within
    ~1e-15 of k+0.5 to different integers — astronomically rare per
    value, not impossible); same rationale as
    q_embedding_neardup_exact's e6 cut."""
    t_e6 = int(np.floor(threshold * 1e6 + 0.5))

    def _keep(cosv: np.ndarray) -> np.ndarray:
        if e6_grid:
            return np.floor(cosv * 1e6 + 0.5) >= t_e6
        return cosv >= threshold

    def reducer(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "vec_a": pd.Series(dtype=np.int64),
                "vec_b": pd.Series(dtype=np.int64),
                "cosine": pd.Series(dtype=np.float64),
            }
        )
        if not len(df):
            return empty
        keys = ["table_id", "bucket"]
        d = df.drop_duplicates(keys + ["vec_id"]).sort_values(
            keys + ["vec_id"], kind="mergesort"
        )
        sizes_t = d.groupby(keys, sort=False)["vec_id"].transform("size")
        d = d[sizes_t >= 2]
        if not len(d):
            return empty
        gsizes = d.groupby(keys, sort=False).size().to_numpy()
        ids = d["vec_id"].to_numpy(dtype=np.int64)
        V = np.stack([np.asarray(v, dtype=np.float64) for v in d["embedding"]])
        norms = np.linalg.norm(V, axis=1)
        Vn = V / np.where(norms > 0, norms, 1.0)[:, None]
        offsets = np.concatenate([[0], np.cumsum(gsizes)])
        out_a, out_b, out_c = [], [], []
        small = gsizes <= cap
        for s in np.unique(gsizes[small]):
            gsel = np.flatnonzero(small & (gsizes == s))
            iu0, iu1 = np.triu_indices(s, k=1)
            step = max(1, _VERIFY_CHUNK_CELLS // (s * s))
            for lo in range(0, len(gsel), step):
                sel = gsel[lo : lo + step]
                rows = offsets[sel][:, None] + np.arange(s)[None, :]
                T = Vn[rows]  # (m, s, dim)
                S = np.einsum("mad,mbd->mab", T, T)
                I = ids[rows]
                cosv = S[:, iu0, iu1].ravel()
                keep = _keep(cosv)
                out_a.append(I[:, iu0].ravel()[keep])
                out_b.append(I[:, iu1].ravel()[keep])
                out_c.append(cosv[keep])
        for g in np.flatnonzero(~small):  # rare by construction
            seg = slice(offsets[g], offsets[g + 1])
            segids, segV = ids[seg], Vn[seg]
            cosv = segV[1:] @ segV[0]
            keep = _keep(cosv)
            out_a.append(np.full(int(keep.sum()), segids[0], dtype=np.int64))
            out_b.append(segids[1:][keep])
            out_c.append(cosv[keep])
        if not out_a:
            return empty
        return pd.DataFrame(
            {
                "vec_a": np.concatenate(out_a).astype(np.int64),
                "vec_b": np.concatenate(out_b).astype(np.int64),
                "cosine": np.concatenate(out_c).astype(np.float64),
            }
        )

    return reducer


def near_dup_pairs_embedding(
    ds,
    *,
    dim: int,
    threshold: float = 0.4,
    n_planes: int = 4,
    n_tables: int = 8,
    buckets_sink: Optional[str] = None,
    threshold_on_e6_grid: bool = False,
):
    """Embedding-cosine near-duplicate pairs via multi-table hyperplane
    LSH, fully distributed:

    1. L tables of k hyperplane signs per vector (one matmul), the
       vector column riding along (n·L copies — the only exchange);
    2. one hash exchange on (table_id, bucket): each bucket reducer
       verifies its own collision groups' exact cosines in place
       (batched einsum, star-capped) and emits only pairs >= threshold;
    3. the verified survivors reach the driver, which drops the pairs
       that collided in several tables.

    Recall for a pair at angle theta: 1-(1-p^k)^L with p = 1-theta/pi —
    raise n_tables for higher recall, n_planes for sparser buckets.

    ``buckets_sink``: optional parquet dir; the (vec_id, table_id,
    bucket, embedding) exchange input is materialized there and re-read,
    so an external oracle (SQL over the sink + the embeddings table) can
    reconstruct candidate groups, the star cap, and the cosine verify
    from exactly the rows the reducers consumed.  Pair it with
    ``threshold_on_e6_grid=True`` so the threshold compare happens on
    the integer e6 surface both sides.
    """
    from pynomaly_ray.functions.exchange import hash_aggregate

    # plane matrices are tiny and deterministic — plain callable, task pool
    buckets = ds.map_batches(
        MultiTableLSH(
            dim=dim, n_planes=n_planes, n_tables=n_tables, keep_embedding=True
        ),
        batch_format="pyarrow",
        batch_size=8192,
    )
    if buckets_sink is not None:
        from pynomaly_ray.sources.parquet import read_parquet_clean

        buckets.write_parquet(buckets_sink)
        buckets = read_parquet_clean(buckets_sink)
    verified = hash_aggregate(
        buckets,
        ["table_id", "bucket"],
        _verified_bucket_pairs(threshold, e6_grid=threshold_on_e6_grid),
    )
    df = verified.to_pandas()
    if df.empty:
        return pd.DataFrame({"vec_a": [], "vec_b": [], "cosine": []})
    return (
        df.drop_duplicates(["vec_a", "vec_b"])
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )
