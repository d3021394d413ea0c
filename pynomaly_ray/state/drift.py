"""Stage C: LoOP distribution-drift detection over the partition-stat table.

The architectural inversion vs the reference (SURVEY.md §4): the reference
parallelizes *inside* its O(n^2) kNN over raw observations; this engine
shrinks n to the number of Parquet partitions (one stat vector each), so
the exact LoOP fit runs in ONE place — the driver — while the
trillion-row scan parallelizes in stage A.  The stat table (10^3–10^5
rows even at 10^12 sequences, i.e. #partitions) fits one process; the
fit is O(n^2) in distances, computed in (256, n) BLAS chunks (loop_core's
``_pairwise_euclidean``), about 0.3 s and 15 MB of temporaries at 3,072
partitions of 22 features on one CPU.

Scoring *new* partitions against a frozen fit (the reference's
``stream()``, loop.py:993-1046) is :class:`StreamDriftScorer`, which
``run_validation(frozen_model=)`` applies to the run's stat table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from pynomaly_ray.loop_core import LocalOutlierProbability, erf_vec
from pynomaly_ray.loop_core.core import _CHUNK_ROWS, _pairwise_euclidean
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


class StreamDriftScorer:
    """Scores new partition-stat rows against a frozen fit.

    ``run_validation(frozen_model=)`` calls it once on the driver over
    the run's (partition_id, stat_vector) table and reads back its
    ``loop_score`` column.  This is the reference's stream() scan
    (loop.py:1024-1031) vectorized over the whole table, with the
    distances from the fit's own kernel (loop_core's
    ``_pairwise_euclidean``, in the fit's row chunks): a new partition equal
    to a training partition is at distance exactly 0.0, as in the fit.
    """

    def __init__(self, model: FrozenLoopModel):
        self.m = model

    def knn_distances(self, X: np.ndarray) -> np.ndarray:
        """Distances from each normalized row of ``X`` to its k nearest
        training rows; 9e10 sentinels fill the slots a training set of
        fewer than k rows cannot (the reference's stream scan)."""
        pts, k = self.m.points, self.m.n_neighbors
        knn = np.full((len(X), k), 9e10)
        m = min(k, len(pts))
        for lo in range(0, len(X), _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, len(X))
            dist = _pairwise_euclidean(X[lo:hi], pts)
            knn[lo:hi, :m] = np.partition(dist, m - 1, axis=1)[:, :m]
        return knn

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        m = self.m
        out = batch.copy()
        if not len(batch):
            out["loop_score"] = pd.Series(dtype=np.float64)
            return out
        X = np.stack(batch["stat_vector"].to_numpy()).astype(np.float64)
        knn = self.knn_distances((X - m.feat_mean) / m.feat_scale)
        ssd = np.square(knn).sum(axis=1)
        std = np.sqrt(ssd / m.n_neighbors)
        pdist = m.extent * std
        ev = m.prob_distances_ev_mean if m.prob_distances_ev_mean != 0 else 1e-8
        plof = pdist / ev - 1.0
        denom = m.norm_plof * np.sqrt(2.0)
        if denom == 0:
            out["loop_score"] = np.zeros(len(plof))
        else:
            out["loop_score"] = np.maximum(0.0, erf_vec(plof / denom))
        return out
