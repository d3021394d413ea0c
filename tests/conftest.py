"""Shared test fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@contextlib.contextmanager
def pinned_fanout(p: int):
    """Pin every size-adaptive exchange inside the block to ``p`` buckets.

    Each exchange looks ``auto_num_partitions`` up as a module global at
    call time, so replacing it reaches the joins, ``hash_aggregate``,
    ``range_sort`` and every stage built on them.  A plain context
    manager rather than a fixture, so one hypothesis example can pin its
    own ``p``.  Where a test only needs "many buckets",
    ``PNR_BUCKET_TARGET_BYTES`` set small does that through the real
    rule."""
    from pynomaly_ray.functions import exchange

    real = exchange.auto_num_partitions
    exchange.auto_num_partitions = lambda total_bytes: p
    try:
        yield
    finally:
        exchange.auto_num_partitions = real


# ---------------------------------------------------------------------------
# Numeric helpers replacing sklearn (unavailable in this environment).
# ---------------------------------------------------------------------------
def exact_knn(train: np.ndarray, query: np.ndarray, k: int):
    """Exact k-nearest-neighbors, sorted ascending by distance (stable on
    ties, like sklearn NearestNeighbors.kneighbors). When ``query is train``
    the self-neighbor (distance 0) appears first, as sklearn returns it."""
    diff = query[:, None, :] - train[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(dist, order, axis=1), order


def roc_auc(y_true, y_score) -> float:
    """ROC AUC via the Mann-Whitney U statistic with midranks for ties."""
    y_true = np.asarray(y_true)
    y_score = np.asarray(y_score, dtype=float)
    pos = y_true == np.max(y_true)
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    order = np.argsort(y_score, kind="mergesort")
    ranks = np.empty(len(y_score), dtype=float)
    sorted_scores = y_score[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def make_fake_media_table(n: int = 32, seed: int = 3):
    """Deterministic rows of random payload bytes conforming to
    ``stages.multimodal.MEDIA_SCHEMA`` (every decoder falls through to
    its fake tier on them)."""
    import pyarrow as pa

    from pynomaly_ray.stages.multimodal import MEDIA_SCHEMA

    rng = np.random.RandomState(seed)
    payloads = [rng.bytes(rng.randint(64, 2048)) for _ in range(n)]
    return pa.table(
        {
            "media_id": pa.array([f"m{i:05d}" for i in range(n)], pa.string()),
            "media_type": pa.array(["image"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(
                [
                    {"width": 8, "height": 8, "sample_rate": 0, "codec": "fake"}
                    for _ in range(n)
                ],
                MEDIA_SCHEMA.field("meta").type,
            ),
        },
        schema=MEDIA_SCHEMA,
    )


@pytest.fixture(scope="session")
def reference_loop():
    """The reference PyNomaly module, importable read-only as a live oracle
    (its only missing dependency, python_utils.terminal, is shimmed).
    Returns None when unavailable — dependent tests skip."""
    import sys
    import types

    if "python_utils" not in sys.modules:
        pu = types.ModuleType("python_utils")
        term = types.ModuleType("python_utils.terminal")
        term.get_terminal_size = lambda: (80, 24)
        pu.terminal = term
        sys.modules["python_utils"] = pu
        sys.modules["python_utils.terminal"] = term
    sys.path.insert(0, "/root/reference")
    try:
        from PyNomaly import loop as ref_loop

        return ref_loop
    except Exception:
        return None
    finally:
        sys.path.remove("/root/reference")
