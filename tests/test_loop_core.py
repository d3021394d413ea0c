"""LoOP-core parity tests, mirroring the reference suite's expectations
(/root/reference/tests/test_loop.py) without sklearn/scipy/numba.

Categories (SURVEY.md §5): golden regression (1e-9), planted-outlier
behavior, mode equivalence (data vs distance-matrix), invariants
(extent monotonicity, flip invariance, [0,1] range), warning/exception
contracts with exact message strings, stream tolerances, and a live
fuzz comparison against the reference module itself when importable.
"""

from __future__ import annotations

import collections
import warnings

import numpy as np
import pandas as pd
import pytest
from numpy.testing import assert_array_almost_equal, assert_array_equal

from pynomaly_ray.loop_core import (
    ClusterSizeError,
    LocalOutlierProbability,
    MissingValuesError,
)
from tests.conftest import exact_knn, roc_auc

# Module-level RNG consumed in the same order as the reference test module
# (tests/test_loop.py:38-42,141): permutation(150) first, then uniforms.
rng = np.random.RandomState(0)
_perm150 = rng.permutation(150)
_X_OUTLIERS = rng.uniform(low=-4, high=4, size=(20, 2))


@pytest.fixture()
def X_n8() -> np.ndarray:
    """8 observations; the last two are planted outliers
    (reference tests/test_loop.py:46-57)."""
    return np.array(
        [[-2, -1], [-1, -1], [-1, -2], [1, 2], [1, 2], [2, 1], [5, 3], [-4, 2]]
    )


@pytest.fixture()
def X_n20_scores():
    """Golden regression vector (reference tests/test_loop.py:60-116)."""
    input_data = np.array(
        [
            0.02059752, 0.32629926, 0.63036653, 0.94409321, 0.63251097,
            0.47598494, 0.80204026, 0.34845067, 0.81556468, 0.89183,
            0.25210317, 0.11460502, 0.19953434, 0.36955067, 0.06038041,
            0.34527368, 0.56621582, 0.90533649, 0.33773613, 0.71573306,
        ]
    )
    expected_scores = np.array(
        [
            0.6356276742921594, 0.0, 0.0, 0.48490790006974044, 0.0,
            0.0, 0.0, 0.0, 0.021728288376168012, 0.28285086151683225,
            0.0, 0.18881886507113213, 0.0, 0.0, 0.45350246469681843,
            0.0, 0.07886635748113013, 0.3349068501560546, 0.0, 0.0,
        ]
    )
    return input_data, expected_scores


@pytest.fixture()
def X_n120() -> np.ndarray:
    """0.3 * N(0,1) cloud, seed 2 (reference tests/test_loop.py:119-129)."""
    return 0.3 * np.random.RandomState(2).randn(120, 2)


@pytest.fixture()
def X_n140_outliers(X_n120) -> np.ndarray:
    return np.r_[X_n120, _X_OUTLIERS]


def scores_of(model) -> np.ndarray:
    return np.asarray(model.local_outlier_probabilities, dtype=float)


# ---------------------------------------------------------------------------
# Behavior on planted outliers
# ---------------------------------------------------------------------------
def test_loop_detects_planted_outliers(X_n8) -> None:
    for data in (X_n8, pd.DataFrame(X_n8)):
        clf = LocalOutlierProbability(data, n_neighbors=5)
        score = scores_of(clf.fit())
        share_outlier = 2.0 / 8.0
        predictions = [-1 if s > share_outlier else 1 for s in score]
        assert_array_equal(predictions, 6 * [1] + 2 * [-1])
        assert np.min(score[-2:]) > np.max(score[:-2])


def test_regression_golden_scores(X_n20_scores) -> None:
    input_data, expected_scores = X_n20_scores
    scores = scores_of(LocalOutlierProbability(input_data).fit())
    assert_array_almost_equal(scores, expected_scores, 6)
    # Engine bar is tighter than the reference's 6 decimals (BASELINE.md).
    assert np.abs(scores - expected_scores).max() <= 1e-9


def test_loop_performance_auc(X_n120) -> None:
    X_outliers = rng.uniform(low=-4, high=4, size=(20, 2))
    X_test = np.r_[X_n120, X_outliers]
    X_labels = np.r_[
        np.repeat(1, X_n120.shape[0]), np.repeat(-1, X_outliers.shape[0])
    ]
    clf = LocalOutlierProbability(
        X_test, n_neighbors=X_test.shape[0] - 1, progress_bar=True
    )
    score = scores_of(clf.fit())
    share_outlier = X_outliers.shape[0] / X_test.shape[0]
    X_pred = np.array([-1 if s > share_outlier else 1 for s in score])
    # The reference asserts AUC between thresholded predictions and labels
    # (tests/test_loop.py:230).
    assert roc_auc(X_pred, X_labels) >= 0.98


def test_scores_in_unit_interval(X_n140_outliers) -> None:
    scores = scores_of(LocalOutlierProbability(X_n140_outliers).fit())
    assert scores.min() >= 0.0 and scores.max() <= 1.0


def test_all_constant_data_scores_zero() -> None:
    X = np.ones((100, 4))
    scores = scores_of(LocalOutlierProbability(X, n_neighbors=10).fit())
    assert_array_equal(scores, np.zeros(100))


# ---------------------------------------------------------------------------
# Warning / exception contracts (exact messages)
# ---------------------------------------------------------------------------
def test_input_nodata() -> None:
    with pytest.warns(UserWarning) as record:
        LocalOutlierProbability(n_neighbors=139)
    assert len(record) == 1
    assert record[0].message.args[0] == "Data or a distance matrix must be provided."


def test_input_incorrect_type(X_n140_outliers) -> None:
    with pytest.warns(UserWarning) as record:
        LocalOutlierProbability(
            X_n140_outliers, n_neighbors=str(X_n140_outliers.shape[0] - 1)
        )
    assert len(record) == 1
    assert (
        record[0].message.args[0]
        == "Argument 'n_neighbors' is not of type (<class 'int'>, "
        "<class 'numpy.integer'>)."
    )


def test_input_neighbor_zero(X_n120) -> None:
    clf = LocalOutlierProbability(X_n120, n_neighbors=0)
    with pytest.warns(UserWarning) as record:
        clf.fit()
    assert len(record) == 1
    assert (
        record[0].message.args[0]
        == "n_neighbors must be greater than 0. Fit with 10 instead."
    )


def test_input_distonly(X_n120) -> None:
    d, _ = exact_knn(X_n120, X_n120, 10)
    with pytest.warns(UserWarning) as record:
        LocalOutlierProbability(distance_matrix=d)
    assert len(record) == 1
    assert (
        record[0].message.args[0]
        == "A neighbor index matrix and distance matrix must both "
        "be provided when not using raw input data."
    )


def test_input_neighboronly(X_n120) -> None:
    _, idx = exact_knn(X_n120, X_n120, 10)
    with pytest.warns(UserWarning) as record:
        LocalOutlierProbability(neighbor_matrix=idx)
    assert len(record) == 1
    assert record[0].message.args[0] == "Data or a distance matrix must be provided."


def test_input_too_many(X_n120) -> None:
    d, idx = exact_knn(X_n120, X_n120, 10)
    with pytest.warns(UserWarning) as record:
        LocalOutlierProbability(X_n120, distance_matrix=d, neighbor_matrix=idx)
    assert len(record) == 1
    assert (
        record[0].message.args[0]
        == "Only one of the following may be provided: data or a "
        "distance matrix (not both)."
    )


def test_distance_neighbor_shape_mismatch(X_n120) -> None:
    d, _ = exact_knn(X_n120, X_n120, 10)
    _, idx_2 = exact_knn(X_n120, X_n120, 5)
    with pytest.warns(UserWarning) as record:
        LocalOutlierProbability(
            distance_matrix=d, neighbor_matrix=idx_2, n_neighbors=5
        )
    assert len(record) == 1
    assert (
        record[0].message.args[0] == "The shape of the distance and neighbor "
        "index matrices must match."
    )


def test_input_neighbor_mismatch(X_n120) -> None:
    d, idx = exact_knn(X_n120, X_n120, 5)
    with pytest.warns(UserWarning) as record:
        LocalOutlierProbability(distance_matrix=d, neighbor_matrix=idx, n_neighbors=10)
    assert len(record) == 1
    assert (
        record[0].message.args[0] == "The shape of the distance or "
        "neighbor index matrix does not "
        "match the number of neighbors "
        "specified."
    )


def test_n_neighbors_clamped_to_n_minus_one() -> None:
    X = np.random.RandomState(3).randn(150, 4)
    clf = LocalOutlierProbability(X, n_neighbors=500).fit()
    assert clf.n_neighbors == X.shape[0] - 1

    clf = LocalOutlierProbability(X, n_neighbors=500)
    with pytest.warns(UserWarning) as record:
        clf.fit()
    assert len(record) == 1
    assert clf.n_neighbors == X.shape[0] - 1


def test_extent_invalid_warns() -> None:
    X = np.array([[1, 1], [1, 0]])
    clf = LocalOutlierProbability(X, n_neighbors=2, extent=4)
    with pytest.warns(UserWarning) as record:
        clf.fit()
    assert len(record) == 1  # the n_neighbors clamp warning inside fit()


def test_data_format_list_coerced() -> None:
    X = [1.3, 1.1, 0.9, 1.4, 1.5, 3.2]
    clf = LocalOutlierProbability(X, n_neighbors=3)
    with pytest.warns(UserWarning) as record:
        clf.fit()
    assert len(record) == 1


def test_missing_values_raise() -> None:
    X = np.array([1.3, 1.1, 0.9, 1.4, 1.5, np.nan, 3.2])
    clf = LocalOutlierProbability(X, n_neighbors=3)
    with pytest.raises(MissingValuesError) as record:
        clf.fit()
    assert (
        str(record.value) == "Method does not support missing values in input data."
    )


def test_small_cluster_size_raises(X_n140_outliers) -> None:
    cluster_labels = [0] * 120 + [1] * 18
    clf = LocalOutlierProbability(
        X_n140_outliers[:138], n_neighbors=50, cluster_labels=cluster_labels
    )
    with pytest.raises(ClusterSizeError) as record:
        clf.fit()
    assert (
        str(record.value)
        == "Number of neighbors specified larger than smallest "
        "cluster. Specify a number of neighbors smaller than "
        "the smallest cluster size (observations in smallest "
        "cluster minus one)."
    )


def test_n_jobs_invalid_values() -> None:
    X = np.array([[1, 2], [3, 4], [5, 6], [7, 8]])
    for bad in (0, -2):
        with pytest.warns(UserWarning) as record:
            clf = LocalOutlierProbability(X, n_neighbors=2, n_jobs=bad)
        messages = [r.message.args[0] for r in record]
        assert any("n_jobs must be -1 or a positive integer" in m for m in messages)
        assert clf.n_jobs == 1


def test_use_numba_unavailable_falls_back(X_n8) -> None:
    with pytest.warns(UserWarning, match="Numba is not available"):
        clf = LocalOutlierProbability(X_n8, n_neighbors=5, use_numba=True)
    assert clf.use_numba is False
    scores = scores_of(clf.fit())
    assert len(scores) == 8


# ---------------------------------------------------------------------------
# Invariants & mode equivalence
# ---------------------------------------------------------------------------
def test_lambda_extent_monotonicity(X_n140_outliers) -> None:
    means = [
        scores_of(
            LocalOutlierProbability(X_n140_outliers, extent=e).fit()
        ).mean()
        for e in (1, 2, 3)
    ]
    assert means[0] > means[1] > means[2]


def test_fitted_attributes_present(X_n120) -> None:
    clf = LocalOutlierProbability(X_n120).fit()
    assert clf.n_neighbors is not None
    assert clf.extent is not None
    assert clf._cluster_labels() is not None
    assert clf.prob_distances is not None
    assert clf.prob_distances_ev is not None
    assert clf.norm_prob_local_outlier_factor is not None
    assert clf.local_outlier_probabilities is not None


def test_loop_dist_matrix_close(X_n120) -> None:
    d, idx = exact_knn(X_n120, X_n120, 10)
    scores1 = scores_of(LocalOutlierProbability(X_n120).fit())
    scores2 = scores_of(
        LocalOutlierProbability(distance_matrix=d, neighbor_matrix=idx).fit()
    )
    assert np.abs(scores2 - scores1).max() <= 0.2


def test_distance_matrix_self_removed_equivalence(X_n120) -> None:
    """Self-neighbor-removed matrices with n_neighbors=k+1 reproduce the
    data-mode scores to 10 decimals (cardinality cancellation; reference
    tests/test_loop.py:788-829, loop.py:802)."""
    distances, indices = exact_knn(X_n120, X_n120, 11)
    indices = np.delete(indices, 0, 1)
    distances = np.delete(distances, 0, 1)
    scores_data = scores_of(
        LocalOutlierProbability(X_n120, n_neighbors=10).fit()
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scores_dist = scores_of(
            LocalOutlierProbability(
                distance_matrix=distances, neighbor_matrix=indices, n_neighbors=11
            ).fit()
        )
    assert_array_almost_equal(scores_data, scores_dist, decimal=10)


def test_data_flipping_invariance() -> None:
    np.random.seed(1)
    n = 9
    data = np.append(
        np.random.normal(2, 1, [n, 2]), np.random.normal(8, 1, [n, 2]), axis=0
    )
    clus = np.append(np.ones(n), 2 * np.ones(n)).tolist()
    fit = LocalOutlierProbability(data, n_neighbors=5, cluster_labels=clus).fit()
    res = scores_of(fit)

    data_flipped = np.flipud(data)
    clus_flipped = np.flipud(clus).tolist()
    fit2 = LocalOutlierProbability(
        data_flipped, n_neighbors=5, cluster_labels=clus_flipped
    ).fit()
    res2 = np.flipud(scores_of(fit2))

    assert_array_almost_equal(res, res2, decimal=6)
    assert_array_almost_equal(
        fit.norm_prob_local_outlier_factor,
        fit2.norm_prob_local_outlier_factor,
        decimal=6,
    )


def test_vectorized_1d_data() -> None:
    X = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 50.0])
    scores = scores_of(LocalOutlierProbability(X, n_neighbors=3).fit())
    assert len(scores) == len(X)
    assert scores[-1] > 0


# ---------------------------------------------------------------------------
# Streaming
# ---------------------------------------------------------------------------
def test_stream_before_fit_warns(X_n140_outliers) -> None:
    X_train = X_n140_outliers[0:138]
    X_test = X_n140_outliers[139]
    clf = LocalOutlierProbability(X_train)
    with pytest.warns(UserWarning) as record:
        clf.stream(X_test)
    messages = [i.message.args[0] for i in record]
    assert (
        "Must fit on historical data by calling fit() prior to "
        "calling stream(x)." in messages
    )


def test_stream_cluster_warns(X_n140_outliers) -> None:
    cluster_labels = [0] * 120 + [1] * 18
    X_train = X_n140_outliers[0:138]
    X_test = X_n140_outliers[139]
    clf = LocalOutlierProbability(
        X_train, cluster_labels=cluster_labels, n_neighbors=10
    ).fit()
    with pytest.warns(UserWarning) as record:
        clf.stream(X_test)
    assert len(record) == 1
    assert (
        record[0].message.args[0]
        == "Stream approach does not support clustered data. "
        "Automatically refit using single cluster of points."
    )
    assert clf.cluster_labels == cluster_labels  # restored afterwards


def test_stream_distance_rmse(X_n140_outliers) -> None:
    X_train = X_n140_outliers[0:100]
    X_test = X_n140_outliers[100:140]
    d, idx = exact_knn(X_train, X_train, 10)

    m = LocalOutlierProbability(X_train).fit()
    m_dist = LocalOutlierProbability(distance_matrix=d, neighbor_matrix=idx).fit()

    test_scores = np.array([float(np.asarray(m.stream(x))) for x in X_test])
    dist_scores = []
    for x in X_test:
        dd, _ = exact_knn(X_train, x.reshape(1, -1), 10)
        dist_scores.append(float(np.asarray(m_dist.stream(np.mean(dd)))))
    dist_scores = np.array(dist_scores)

    rmse = np.sqrt(((test_scores - dist_scores) ** 2).mean(axis=None))
    assert 0.075 >= rmse


def test_stream_performance_rmse(X_n140_outliers) -> None:
    X_train = X_n140_outliers[0:100]
    X_test = X_n140_outliers[100:140]

    scores_noclust = scores_of(LocalOutlierProbability(X_n140_outliers).fit())
    m_train = LocalOutlierProbability(X_train).fit()
    X_train_scores = scores_of(m_train)
    X_test_scores = np.array(
        [float(np.asarray(m_train.stream(x))) for x in X_test]
    )
    stream_scores = np.hstack((X_train_scores, X_test_scores))
    rmse = np.sqrt(((scores_noclust - stream_scores) ** 2).mean(axis=None))
    assert 0.35 > rmse


# ---------------------------------------------------------------------------
# Live oracle: fuzz against the reference implementation when importable
# ---------------------------------------------------------------------------
def test_fuzz_against_reference(reference_loop) -> None:
    if reference_loop is None:
        pytest.skip("reference PyNomaly not importable")
    fuzz = np.random.RandomState(7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(12):
            n = fuzz.randint(25, 150)
            f = fuzz.randint(1, 5)
            X = fuzz.randn(n, f) * fuzz.uniform(0.1, 3)
            k = int(fuzz.randint(3, min(21, n - 1)))
            ext = int(fuzz.choice([1, 2, 3]))
            ncl = fuzz.randint(1, 4)
            while True:
                labels = fuzz.randint(0, ncl, n).tolist()
                if min(collections.Counter(labels).values()) > k:
                    break
            ref = reference_loop.LocalOutlierProbability(
                X, n_neighbors=k, extent=ext, cluster_labels=labels
            ).fit()
            ours = LocalOutlierProbability(
                X, n_neighbors=k, extent=ext, cluster_labels=labels
            ).fit()
            assert (
                np.abs(scores_of(ref) - scores_of(ours)).max() <= 1e-9
            ), f"parity violation at n={n} f={f} k={k} extent={ext}"


def test_large_magnitude_data_gemm_path(reference_loop) -> None:
    """Regression: the BLAS distance expansion must not lose genuine
    distances to catastrophic cancellation on large-magnitude features
    (epoch-second-like values ~1.7e9 with separations <= 60)."""
    rng = np.random.RandomState(5)
    X = 1.7e9 + rng.uniform(0, 60, (3000, 1))
    ours = scores_of(LocalOutlierProbability(X, n_neighbors=10).fit())
    assert (ours > 0).sum() > 100  # not collapsed to zeros
    if reference_loop is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = scores_of(
                reference_loop.LocalOutlierProbability(X, n_neighbors=10).fit()
            )
        assert np.abs(ours - ref).max() <= 1e-9
    # the GEMM path proper (n large enough to cross the cell threshold)
    X20 = 1.7e9 + rng.uniform(0, 60, (20000, 1))
    s = scores_of(LocalOutlierProbability(X20, n_neighbors=10).fit())
    assert (s > 0).sum() > 1000 and np.isfinite(s).all()


def _per_feature_brute_force_loop(x: np.ndarray, k: int, extent: int):
    """LoOP by exact kNN over distances accumulated one feature at a time
    (the benchmark oracle's formula, without its z-scoring)."""
    import math

    n = len(x)
    knn_d = np.empty((n, k))
    knn_i = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, 256):
        hi = min(lo + 256, n)
        d2 = np.zeros((hi - lo, n))
        for f in range(x.shape[1]):
            diff = x[lo:hi, f, None] - x[None, :, f]
            d2 += diff * diff
        d = np.sqrt(d2)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        idx = np.argpartition(d, k, axis=1)[:, :k]
        knn_i[lo:hi] = idx
        knn_d[lo:hi] = np.take_along_axis(d, idx, axis=1)
    pdist = extent * np.sqrt((knn_d**2).sum(axis=1) / k)
    ev = pdist[knn_i].mean(axis=1)
    plof = pdist / np.where(ev == 0.0, 1e-8, ev) - 1.0
    nplof = extent * math.sqrt(float(np.mean(plof**2)))
    return np.array(
        [max(0.0, math.erf(p / (nplof * math.sqrt(2.0)))) for p in plof]
    )


def test_partition_scale_fit_bounded_memory_and_exact_zeros() -> None:
    """A 3,072 x 22 fit (the shape of a 3,072-partition stat table) takes
    the BLAS distance form: scores match a per-feature brute force,
    duplicate rows are at distance exactly 0.0, and the fit's
    temporaries stay at (chunk, points) size."""
    import tracemalloc

    from pynomaly_ray.loop_core import core

    n, f, k = 3072, 22, 10
    assert core._CHUNK_ROWS * n * f >= core._GEMM_MIN_CELLS
    rng = np.random.RandomState(11)
    X = rng.randn(n, f) * rng.uniform(0.1, 5.0, f) + rng.uniform(-3, 3, f)
    twins = [(10, 3000), (11, 12), (500, 2900), (1024, 1025)]
    for src, dst in twins:
        X[dst] = X[src]

    tracemalloc.start()
    try:
        model = LocalOutlierProbability(X, n_neighbors=k, extent=3).fit()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()

    np.testing.assert_allclose(
        scores_of(model), _per_feature_brute_force_loop(X, k, 3),
        rtol=0, atol=1e-9,
    )
    dist, nbr = model.distance_matrix, model.neighbor_matrix
    for a, b in twins:
        for row, twin in ((a, b), (b, a)):
            assert dist[row][nbr[row] == twin].tolist() == [0.0]
    assert peak_mb <= 32, f"fit peak {peak_mb:.1f} MB"
