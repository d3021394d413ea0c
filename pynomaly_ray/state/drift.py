"""Stage C: LoOP distribution-drift detection over the partition-stat table.

The architectural inversion vs the reference (SURVEY.md §4): the reference
parallelizes *inside* its O(n^2) kNN over raw observations; this engine
shrinks n to the number of Parquet partitions (one stat vector each), so
the exact LoOP fit is cheap and runs in ONE place — a named Ray actor
holding the frozen model — while the trillion-row scan parallelizes in
stage A.  The stat table (10^3–10^5 rows even at 10^12 sequences, i.e.
#partitions) trivially fits one actor.

Scoring *new* partitions against a frozen fit (the reference's
``stream()``, loop.py:993-1046) is an actor-pool ``map_batches`` stage:
the frozen model is broadcast once with ``ray.put`` and loaded per actor
in ``__init__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pandas as pd

import ray

from pynomaly_ray.loop_core import LocalOutlierProbability
from pynomaly_ray.state.commit import atomic_write


@dataclass
class FrozenLoopModel:
    """Everything stream-scoring needs (reference loop.py:985,1033-1041)."""

    points: np.ndarray  # normalized stat vectors the model was fit on
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    prob_distances_ev_mean: float
    norm_plof: float
    n_neighbors: int
    extent: int


def normalize_features(mat: np.ndarray, mean=None, scale=None):
    """Column z-scoring so heterogeneous stat features share a metric.

    The reference leaves metric choice to the user (README.md:371-413);
    normalized-Euclidean is this engine's default, and the
    distance/neighbor-matrix escape hatch in loop_core remains available.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mean is None:
        mean = mat.mean(axis=0)
        scale = mat.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
    return (mat - mean) / scale, mean, scale


def fit_drift_scores(
    stats_df: pd.DataFrame,
    *,
    n_neighbors: int = 10,
    extent: int = 3,
    cluster_by_source: bool = False,
) -> tuple[np.ndarray, FrozenLoopModel]:
    """Exact LoOP fit over the partition-stat table.

    Returns per-partition loop scores (aligned with ``stats_df`` rows) and
    the frozen model for incremental scoring.  ``cluster_by_source`` maps
    the reference's ``cluster_labels`` partition key to the ``source``
    column (SURVEY.md §1.2) when every source has > n_neighbors
    partitions; otherwise a single cluster is used (and loop_core's
    ClusterSizeError contract applies, loop.py:257-273).
    """
    mat = np.stack(stats_df["stat_vector"].to_numpy()).astype(np.float64)
    normed, mean, scale = normalize_features(mat)

    # Tiny stat tables: loop_core clamps k to n_obs-1, and at n_obs == 1
    # that is k=0 -> sqrt(0/0) NaN scores silently reported as "pass"
    # (the clamp warning is suppressed by run_validation).  Mirror
    # loop_distributed._fit_group: with no neighbor to compare against,
    # every partition is definitionally non-outlying (score 0), and the
    # frozen model keeps the REQUESTED k so later incremental runs
    # against a larger population score normally.
    if len(normed) <= 1:
        frozen = FrozenLoopModel(
            points=normed,
            feat_mean=mean,
            feat_scale=scale,
            prob_distances_ev_mean=0.0,
            norm_plof=0.0,
            n_neighbors=max(n_neighbors, 1),
            extent=extent,
        )
        return np.zeros(len(normed), dtype=np.float64), frozen

    labels = None
    if cluster_by_source:
        # np.unique, not pd.factorize: pandas' object hash table
        # compares strings as C strings, aliasing source names that
        # differ only after an embedded NUL into one cluster
        labels = (
            np.unique(
                stats_df["source"].to_numpy(dtype=object),
                return_inverse=True,
            )[1]
            .astype(np.int64)
            .tolist()
        )

    model = LocalOutlierProbability(
        normed,
        n_neighbors=n_neighbors,
        extent=extent,
        cluster_labels=labels,
    ).fit()
    scores = np.asarray(model.local_outlier_probabilities, dtype=np.float64)
    frozen = FrozenLoopModel(
        points=normed,
        feat_mean=mean,
        feat_scale=scale,
        prob_distances_ev_mean=float(
            np.asarray(model.prob_distances_ev).mean()
        ),
        norm_plof=float(model.norm_prob_local_outlier_factor),
        n_neighbors=model.n_neighbors,
        extent=model.extent,
    )
    return scores, frozen


def save_frozen_model(model: FrozenLoopModel, path: str) -> str:
    """Persist the frozen fit (npz) so incremental runs resume scoring
    without a refit — the engine analogue of keeping the reference's
    fitted attributes alive across stream() calls."""
    import os

    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    return atomic_write(
        path,
        lambda f: np.savez_compressed(
            f,
            points=model.points,
            feat_mean=model.feat_mean,
            feat_scale=model.feat_scale,
            scalars=np.array(
                [
                    model.prob_distances_ev_mean,
                    model.norm_plof,
                    float(model.n_neighbors),
                    float(model.extent),
                ]
            ),
        ),
    )


def load_frozen_model(path: str) -> FrozenLoopModel:
    with np.load(path) as z:
        s = z["scalars"]
        return FrozenLoopModel(
            points=z["points"],
            feat_mean=z["feat_mean"],
            feat_scale=z["feat_scale"],
            prob_distances_ev_mean=float(s[0]),
            norm_plof=float(s[1]),
            n_neighbors=int(s[2]),
            extent=int(s[3]),
        )


@ray.remote
class LoopFitActor:
    """Named actor holding the LoOP fit (SURVEY.md §2.3 T1): the
    partition-stat table is tiny by design, so the exact fit runs in one
    place; the frozen model is then broadcast to the scorer pool."""

    def fit(
        self,
        stats_df: pd.DataFrame,
        n_neighbors: int,
        extent: int,
        cluster_by_source: bool,
    ):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return fit_drift_scores(
                stats_df,
                n_neighbors=n_neighbors,
                extent=extent,
                cluster_by_source=cluster_by_source,
            )


def score_new_partitions(stats_ds, frozen: FrozenLoopModel, concurrency=(1, 4)):
    """Incremental validation (the reference's stream() at engine scale):
    score NEW partition-stat rows against a frozen fit via an actor-pool
    map_batches stage; the model ships once per actor via ray.put."""
    model_ref = ray.put(frozen)
    return stats_ds.map_batches(
        StreamDriftScorer,
        fn_constructor_kwargs={"model_ref": model_ref},
        batch_format="pandas",
        concurrency=concurrency,
    )


class StreamDriftScorer:
    """Actor-pool stage scoring new partition-stat rows against a frozen fit.

    Use: ``stats_ds.map_batches(StreamDriftScorer,
    fn_constructor_kwargs={"model_ref": ray.put(frozen)},
    concurrency=(1, N), batch_format="pandas")``.

    Per-batch work is one vectorized distance computation against the
    frozen training matrix — the reference's stream() scan
    (loop.py:1024-1031) vectorized over the whole batch at once.
    """

    def __init__(self, model_ref):
        import ray

        self.m: FrozenLoopModel = (
            ray.get(model_ref)
            if isinstance(model_ref, ray.ObjectRef)
            else model_ref
        )

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        m = self.m
        if not len(batch):  # Ray Data may deliver an empty block
            out = batch.copy()
            out["loop_score"] = pd.Series(dtype=np.float64)
            return out
        X = np.stack(batch["stat_vector"].to_numpy()).astype(np.float64)
        X = (X - m.feat_mean) / m.feat_scale
        # pairwise distances (B, n_train) via the GEMM expansion —
        # O(B*n) memory; a broadcast-subtract temp would be O(B*n*dim)
        # and OOM at the 10^5-row stat tables this is sized for
        a2 = np.einsum("ij,ij->i", X, X)
        b2 = np.einsum("ij,ij->i", m.points, m.points)
        d2 = a2[:, None] - 2.0 * (X @ m.points.T) + b2[None, :]
        np.clip(d2, 0.0, None, out=d2)
        dist = np.sqrt(d2)
        k = m.n_neighbors
        n_train = dist.shape[1]
        if n_train >= k:
            knn = np.partition(dist, k - 1, axis=1)[:, :k]
        else:  # sentinel semantics of the reference's stream scan
            knn = np.full((dist.shape[0], k), 9e10)
            knn[:, :n_train] = np.sort(dist, axis=1)
        ssd = np.square(knn).sum(axis=1)
        std = np.sqrt(ssd / k)
        pdist = m.extent * std
        ev = m.prob_distances_ev_mean if m.prob_distances_ev_mean != 0 else 1e-8
        plof = pdist / ev - 1.0
        from pynomaly_ray.loop_core import erf_vec

        denom = m.norm_plof * np.sqrt(2.0)
        if denom == 0:
            scores = np.zeros(len(plof))
        else:
            scores = np.maximum(0.0, erf_vec(plof / denom))
        out = batch.copy()
        out["loop_score"] = scores
        return out
