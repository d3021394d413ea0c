"""Persisted IVF vector index — ANN search as a storage layout.

The in-memory IVF path (``stages/similarity.cosine_topk_ivf``) re-pays
clustering and assignment per query batch; this module persists the
inverted file ONCE and serves every later search from disk with
probe-only I/O — the vector-index twin of the bucketed/sorted layouts:

- :func:`write_ivf_index` fits k-means centroids (deterministic
  farthest-point init, see ``stages/clustering``), streams one
  assignment pass, and writes ``clusters/cluster=<cid>/`` hive
  partitions (published as one directory) plus ``centroids.parquet``;
  the ``_ivf.json`` manifest is written LAST as the commit marker and
  retracted first on a rewrite (a crash leaves a refuse-to-serve
  directory, never a half-index or a mix of two builds).
- :func:`ivf_probe_plan` ranks centroids per query (exact L2 on the
  tiny (k, d) matrix) — the query planner.
- :func:`ivf_search` reads ONLY the planned partitions (hive pruning
  pushed into the parquet read), scores candidates batch-vectorized on
  the e6 cosine grid with the (score DESC, id ASC) total order, and
  merges per-block top-k — at 100 TB a probe touches nprobe/k of the
  corpus bytes, and the read path PROVES it via ``input_files()``.

Recall semantics are IVF's usual: exact ranking within the probed
clusters; a neighbor assigned to an unprobed cluster is missed —
raising nprobe trades I/O for recall (nprobe == k is exact brute
force).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from pynomaly_ray.state.commit import (
    atomic_write,
    publish_dir,
    read_manifest,
    write_json,
)

_MANIFEST = "_ivf.json"


def write_ivf_index(
    emb_ds,
    path: str,
    k: int = 16,
    n_iter: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> dict:
    from pynomaly_ray.stages.clustering import kmeans_assign, kmeans_fit

    emb_ds = emb_ds.materialize()
    cents = kmeans_fit(
        emb_ds, k=k, n_iter=n_iter, id_col=id_col, vec_col=vec_col
    )
    os.makedirs(path, exist_ok=True)
    marker = os.path.join(path, _MANIFEST)
    if os.path.exists(marker):
        os.remove(marker)  # retract before rewrite
    assigned = kmeans_assign(
        emb_ds, cents, id_col=id_col, vec_col=vec_col, keep_vec=True
    )

    def drop_key(t: pa.Table) -> pa.Table:
        # `cid` duplicates the hive key INSIDE the data files so a
        # probe can read many partitions with ONE read_parquet over
        # the pruned dir list (a per-partition read + N-way union
        # plans N scan operators — 25x slower at 16 partitions)
        t = t.drop_columns(["dist_key"])
        return t.append_column(
            "cid", pc.cast(t["cluster"], pa.int64())
        )

    rows_ds = assigned.map_batches(drop_key, batch_format="pyarrow")
    clusters_dir = publish_dir(
        os.path.join(path, "clusters"),
        lambda tmp: rows_ds.write_parquet(tmp, partition_cols=["cluster"]),
    )

    import pyarrow.parquet as papq

    centroids = pa.table(
        {
            "cid": pa.array(np.arange(len(cents), dtype=np.int64)),
            "centroid": pa.array(
                [list(map(float, c)) for c in cents], pa.list_(pa.float64())
            ),
        }
    )
    atomic_write(
        os.path.join(path, "centroids.parquet"),
        lambda f: papq.write_table(centroids, f),
    )
    n_rows = sum(
        papq.read_metadata(os.path.join(dp, f)).num_rows
        for dp, _dn, fns in os.walk(clusters_dir)
        for f in fns
        if f.endswith(".parquet")
    )
    manifest = {
        "k": int(len(cents)),
        "d": int(cents.shape[1]),
        "rows": int(n_rows),
        "id_col": id_col,
        "vec_col": vec_col,
    }
    write_json(marker, manifest)  # commit marker
    return manifest


def load_manifest(path: str) -> dict:
    return read_manifest(
        os.path.join(path, _MANIFEST),
        "the IVF index is unfinished or not an index; rewrite it with "
        "write_ivf_index",
    )


def _centroids(path: str) -> np.ndarray:
    import pyarrow.parquet as papq

    t = papq.read_table(os.path.join(path, "centroids.parquet"))
    order = np.argsort(t["cid"].to_numpy(zero_copy_only=False))
    return np.asarray(
        [t["centroid"][int(i)].as_py() for i in order], dtype=np.float64
    )


def ivf_probe_plan(path: str, queries: np.ndarray, nprobe: int) -> np.ndarray:
    """(n_queries, nprobe) centroid ids, nearest first (exact L2 over
    the k×d centroid matrix — driver-sized)."""
    m = load_manifest(path)
    C = _centroids(path)
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    if q.shape[1] != m["d"]:
        raise ValueError(f"query dim {q.shape[1]} != index dim {m['d']}")
    nprobe = min(nprobe, m["k"])
    d2 = (
        (q * q).sum(axis=1)[:, None]
        - 2.0 * q @ C.T
        + (C * C).sum(axis=1)[None, :]
    )
    # deterministic tie-break: stable argsort on (distance, cid)
    return np.argsort(d2, axis=1, kind="stable")[:, :nprobe].astype(np.int64)


def _assert_probed_only(files, probed) -> None:
    """Every file read must sit directly in a probed ``cluster=<c>``
    directory — an exact path component, so ``cluster=12`` never
    passes for a probe of ``cluster=1``."""
    allowed = {f"cluster={c}" for c in probed}
    for f in files:
        if os.path.basename(os.path.dirname(f)) not in allowed:
            raise AssertionError(f"probe read escaped its partitions: {f}")


def ivf_search(
    path: str,
    queries: np.ndarray,
    nprobe: int = 4,
    topk: int = 5,
) -> pd.DataFrame:
    """Top-``topk`` per query by e6-grid cosine over the probed
    partitions only.  Returns (query_id, vec_id, score_e6), ranked
    (score_e6 DESC, vec_id ASC).  Raises if the read plan failed to
    prune (every partition opened despite nprobe < k)."""
    from pynomaly_ray.sources.parquet import read_parquet_clean

    m = load_manifest(path)
    plan = ivf_probe_plan(path, queries, nprobe)
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    probed = sorted({int(c) for row in plan for c in row})
    # structural pruning: ONLY the probed cluster=<c>/ partitions are
    # ever handed to the reader (this Ray version's parquet fragment
    # filter cannot see hive partition columns, so pruning-by-path is
    # the robust form).  All probed dirs go into ONE read_parquet —
    # a per-partition read + N-way union plans N scan operators and
    # is ~25x slower at 16 partitions; the per-row cluster id comes
    # from the `cid` data column the writer duplicated inside the
    # files.  An absent dir is an EMPTY cluster (the hive writer
    # creates no dir for zero rows), not an error.
    files = [
        os.path.join(d, f)
        for c in probed
        if os.path.isdir(d := os.path.join(path, "clusters", f"cluster={c}"))
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    if not files:
        return pd.DataFrame(
            {
                "query_id": pd.Series(dtype=np.int64),
                "vec_id": pd.Series(dtype=np.int64),
                "score_e6": pd.Series(dtype=np.int64),
            }
        )
    ds = read_parquet_clean(files, columns=[m["id_col"], m["vec_col"], "cid"])
    _assert_probed_only(ds.input_files(), probed)
    # per-query probe membership as a dense (n_queries, k) mask
    mask = np.zeros((len(qn), m["k"]), dtype=bool)
    for i, row in enumerate(plan):
        mask[i, row] = True
    qn_ref = ray.put(qn)
    mask_ref = ray.put(mask)
    id_col, vec_col = m["id_col"], m["vec_col"]

    def score(t: pa.Table, _q=qn_ref, _m=mask_ref) -> pa.Table:
        from pynomaly_ray.stages.similarity import _embedding_matrix

        if t.num_rows == 0 or vec_col not in t.schema.names:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "score_e6": pa.array([], pa.int64()),
                }
            )
        Q = ray.get(_q)
        M = ray.get(_m)
        X = _embedding_matrix(t, vec_col)
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-30)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        clusters = np.asarray(
            t["cid"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        dots = Q @ Xn.T  # (n_queries, n_rows); Q arrives normalized
        e6 = np.floor(dots * 1e6 + 0.5).astype(np.int64)
        out_q, out_i, out_s = [], [], []
        for qi in range(len(Q)):
            keep = M[qi, clusters]
            if not keep.any():
                continue
            s = e6[qi][keep]
            rid = ids[keep]
            # (score DESC, id ASC) local top-k
            order = np.lexsort((rid, -s))[:topk]
            out_q.append(np.full(len(order), qi, dtype=np.int64))
            out_i.append(rid[order])
            out_s.append(s[order])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "score_e6": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "vec_id": pa.array(np.concatenate(out_i)),
                "score_e6": pa.array(np.concatenate(out_s)),
            }
        )

    local = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    if local.empty:
        return pd.DataFrame(
            {
                "query_id": pd.Series(dtype=np.int64),
                "vec_id": pd.Series(dtype=np.int64),
                "score_e6": pd.Series(dtype=np.int64),
            }
        )
    local = local.sort_values(
        ["query_id", "score_e6", "vec_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    out = local.groupby("query_id", sort=True).head(topk).reset_index(drop=True)
    for c in ["query_id", "vec_id", "score_e6"]:
        out[c] = out[c].astype(np.int64)
    return out
