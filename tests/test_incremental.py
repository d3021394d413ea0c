"""Incremental scoring (frozen-model stream mode), model persistence,
skew behavior, and hypothesis property tests."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pynomaly_ray.config import ValidationConfig
from pynomaly_ray.sources.datagen import SOURCES, GenSpec, generate_dataset_dir

DATA = "/tmp/pnr_test/data"
CFG = dict(valid_sources=list(SOURCES), n_neighbors=10, extent=3)


@pytest.fixture(scope="module")
def fitted(ray_session, tmp_path_factory):
    """A fitted run with a persisted frozen model."""
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import run_validation

    generate_dataset_dir(DATA, GenSpec(parts_per_source=16, rows_per_part=128))
    out = str(tmp_path_factory.mktemp("fit_out"))
    cfg = ValidationConfig(**CFG, run_id="base")
    res = run_validation(rd.read_parquet(DATA), cfg, out_dir=out)
    return res, out


def test_model_persisted_and_roundtrips(fitted):
    from pynomaly_ray.state.drift import load_frozen_model

    _, out = fitted
    path = os.path.join(out, "model", "base.npz")
    assert os.path.exists(path)
    m = load_frozen_model(path)
    assert m.n_neighbors == 10 and m.extent == 3
    assert m.points.ndim == 2 and np.isfinite(m.points).all()


def test_incremental_scoring_against_frozen_model(fitted, ray_session, tmp_path):
    """Scoring the SAME partitions against the frozen model (no refit)
    runs end-to-end and flags the same drifted partitions; a known-normal
    partition scores low, drifted ones score high."""
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import run_validation

    res_fit, out = fitted
    model_path = os.path.join(out, "model", "base.npz")
    cfg = ValidationConfig(**CFG, run_id="incr")
    res_incr = run_validation(
        rd.read_parquet(DATA),
        cfg,
        out_dir=None,
        frozen_model=model_path,
    )
    rep_fit = res_fit.report.to_pandas().set_index("partition_id")
    rep_incr = res_incr.report.to_pandas().set_index("partition_id")
    drifted = set(rep_fit[rep_fit.loop_score > 0.5].index)
    incr_flagged = set(rep_incr[rep_incr.loop_score > 0.5].index)
    # stream-mode tolerance mirrors the reference's stream-vs-fit RMSE
    # contract (tests/test_loop.py:712-741): same drifted set here
    assert drifted == incr_flagged
    both = rep_fit.join(rep_incr, lsuffix="_f", rsuffix="_i")
    rmse = np.sqrt(((both.loop_score_f - both.loop_score_i) ** 2).mean())
    assert rmse < 0.35


def test_frozen_scorer_uses_the_fit_kernel():
    """Frozen scoring computes its distances with the fit's kernel: a
    new partition identical to a training partition is at distance
    exactly 0.0 from it, also where the batch is large enough for the
    BLAS form, and each frozen score equals loop_core's stream() over
    the same frozen fit."""
    import warnings

    from pynomaly_ray.loop_core import LocalOutlierProbability
    from pynomaly_ray.loop_core import core
    from pynomaly_ray.state.drift import StreamDriftScorer, fit_drift_scores

    n, f = 3072, 22
    rng = np.random.RandomState(4)
    vecs = rng.randn(n, f) * rng.uniform(0.1, 5.0, f) + rng.uniform(-3, 3, f)
    stats = pd.DataFrame(
        {"partition_id": [f"p{i:05d}" for i in range(n)], "stat_vector": list(vecs)}
    )
    _, frozen = fit_drift_scores(stats, n_neighbors=10, extent=3)

    twins = np.arange(0, n, 12)  # 256 rows: one full chunk
    assert len(twins) * n * f >= core._GEMM_MIN_CELLS
    scorer = StreamDriftScorer(frozen)
    X = (vecs[twins] - frozen.feat_mean) / frozen.feat_scale
    knn = scorer.knn_distances(X)
    assert (knn.min(axis=1) == 0.0).all()

    scored = scorer(stats.iloc[twins].copy())["loop_score"].to_numpy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = LocalOutlierProbability(
            frozen.points, n_neighbors=frozen.n_neighbors, extent=frozen.extent
        ).fit()
        expected = [float(np.asarray(model.stream(x))) for x in X[:16]]
    np.testing.assert_allclose(scored[:16], expected, rtol=0, atol=1e-12)


def test_hot_doc_id_skew(ray_session):
    """A pathologically hot doc_id (2k copies across partitions) yields
    exactly c-1 duplicate violations and doesn't break the pipeline."""
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import run_validation

    n_copies, n_parts = 2000, 8
    rows_per_part = n_copies // n_parts
    rng = np.random.default_rng(5)
    frames = []
    for p in range(n_parts):
        n_norm = 120
        ids = [f"normal-{p}-{i}" for i in range(n_norm)] + ["HOT"] * rows_per_part
        toks = [rng.integers(0, 1000, rng.integers(8, 64)).astype(np.int32) for _ in ids]
        frames.append(
            pa.table(
                {
                    "doc_id": pa.array(ids, pa.string()),
                    "tokens": pa.array([t.tolist() for t in toks], pa.list_(pa.int32())),
                    "n_tok": pa.array([len(t) for t in toks], pa.int32()),
                    "source": pa.array(["web"] * len(ids), pa.string()),
                    "partition_id": pa.array([f"p{p:02d}"] * len(ids), pa.string()),
                }
            )
        )
    ds = rd.from_arrow(pa.concat_tables(frames))
    cfg = ValidationConfig(valid_sources=["web"], n_neighbors=5)
    res = run_validation(ds, cfg, out_dir=None)
    v = res.violations.to_pandas()
    dups = v[v.check == "duplicate_doc_id"]
    assert len(dups) == n_copies - 1
    assert set(dups.doc_id) == {"HOT"}
    # first (lowest-partition) occurrence tolerated: p00 has one fewer
    per_part = dups.groupby("partition_id").size()
    assert per_part["p00"] == rows_per_part - 1
    assert (per_part.drop("p00") == rows_per_part).all()


# ---------------------------------------------------------------------------
# Property-based invariants for the LoOP core (hypothesis)
# ---------------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    data=arrays(
        np.float64,
        st.tuples(st.integers(15, 60), st.integers(1, 4)),
        elements=st.floats(-100, 100, allow_nan=False, width=64),
    ),
    k=st.integers(2, 10),
    extent=st.sampled_from([1, 2, 3]),
)
def test_loop_scores_always_in_unit_interval(data, k, extent):
    import warnings

    from pynomaly_ray.loop_core import LocalOutlierProbability

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scores = np.asarray(
            LocalOutlierProbability(data, n_neighbors=k, extent=extent)
            .fit()
            .local_outlier_probabilities,
            dtype=float,
        )
    assert len(scores) == len(data)
    assert np.isfinite(scores).all()
    assert (scores >= 0.0).all() and (scores <= 1.0).all()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    n=st.integers(20, 40),
    f=st.integers(2, 3),
    data_seed=st.integers(0, 10_000),
    seed=st.integers(0, 1000),
)
def test_loop_permutation_invariance(n, f, data_seed, seed):
    """Permutation invariance holds for tie-free (continuous) data.
    With exact duplicate points the k-th-neighbor tie-break is order
    dependent — in the reference too (argpartition ties,
    loop.py:681-688) — so the property is stated over Gaussians."""
    import warnings

    from pynomaly_ray.loop_core import LocalOutlierProbability

    data = np.random.RandomState(data_seed).randn(n, f)
    perm = np.random.RandomState(seed).permutation(len(data))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s1 = np.asarray(
            LocalOutlierProbability(data, n_neighbors=5)
            .fit()
            .local_outlier_probabilities,
            dtype=float,
        )
        s2 = np.asarray(
            LocalOutlierProbability(data[perm], n_neighbors=5)
            .fit()
            .local_outlier_probabilities,
            dtype=float,
        )
    np.testing.assert_allclose(s1[perm], s2, atol=1e-9)


def test_distributed_loop_exactly_matches_clustered_loop_core(ray_session):
    """distributed_loop_scores with hash buckets == loop_core fit with
    cluster_labels = those buckets, to the last bit (per-cluster
    independence of every LoOP statistic; SURVEY.md §2.3 T1 inversion)."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import _bucket_of
    from pynomaly_ray.loop_core import LocalOutlierProbability
    from pynomaly_ray.stages.loop_distributed import distributed_loop_scores

    rng = np.random.RandomState(11)
    n = 600
    df = pd.DataFrame(
        {
            "vec_id": np.arange(n, dtype=np.int64),
            "embedding": list(rng.randn(n, 8)),
        }
    )
    num_buckets = 4
    scored = (
        distributed_loop_scores(
            rd.from_pandas(df),
            n_neighbors=8,
            extent=2,
            num_buckets=num_buckets,
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    # oracle: one loop_core fit with cluster_labels = the same buckets
    tbl = pa.table({"vec_id": pa.array(df.vec_id.to_numpy())})
    buckets = _bucket_of(tbl, ["vec_id"], num_buckets)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = LocalOutlierProbability(
            np.stack(df.embedding.to_numpy()),
            n_neighbors=8,
            extent=2,
            cluster_labels=buckets.tolist(),
        ).fit()
    expect = np.asarray(model.local_outlier_probabilities, dtype=float)
    assert np.abs(scored.loop_score.to_numpy() - expect).max() == 0.0


def test_loop_bucket_is_independent_of_row_order():
    """One exchange bucket fitted as delivered and as a permutation of
    the same rows: bit-identical (id, loop_score) rows, whatever order
    the exchange delivers them in."""
    from pynomaly_ray.stages.loop_distributed import _loop_bucket

    rng = np.random.RandomState(17)
    n = 300
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(rng.randn(n, 8) * 1e3)),
            "label": pa.array(rng.randint(0, 2, n)),
        }
    )
    for label_col in (None, "label"):
        want = _loop_bucket(t, "vec_id", "embedding", label_col, 8, 3)
        for seed in range(3):
            perm = np.random.RandomState(seed).permutation(n)
            got = _loop_bucket(t.take(perm), "vec_id", "embedding", label_col, 8, 3)
            assert got.sort_by("vec_id").equals(want.sort_by("vec_id"))


def test_distributed_loop_lsh_flags_outliers(ray_session):
    """With locality buckets (hyperplane LSH), planted far-out vectors
    still surface as the top LoOP scores."""
    import ray.data as rd

    from pynomaly_ray.stages.loop_distributed import distributed_loop_scores
    from pynomaly_ray.stages.similarity import HyperplaneLSH

    rng = np.random.RandomState(13)
    n = 400
    M = rng.randn(n, 8) * 0.3
    M[7] = 6.0 + rng.randn(8) * 0.1    # planted outliers
    M[123] = -6.0 + rng.randn(8) * 0.1
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64), "embedding": list(M)})
    scored = (
        distributed_loop_scores(
            rd.from_pandas(df),
            bucketer=HyperplaneLSH(dim=8, n_planes=2),
            n_neighbors=10,
            extent=3,
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("loop_score", ascending=False)
    )
    top = set(scored.head(2).vec_id)
    assert top == {7, 123}


def test_distributed_loop_size_adaptive_buckets(ray_session, monkeypatch):
    """num_buckets=None derives the fan-out from the exchanged bytes
    (exchange.auto_num_partitions) with an n_neighbors+1 rows-per-bucket
    floor: a tiny PNR_BUCKET_TARGET_BYTES forces multiple buckets, every
    row is still scored exactly once, and the floor keeps buckets from
    shrinking below a usable neighborhood."""
    import ray.data as rd

    from pynomaly_ray.stages.loop_distributed import distributed_loop_scores

    rng = np.random.RandomState(5)
    n = 600
    df = pd.DataFrame(
        {
            "vec_id": np.arange(n, dtype=np.int64),
            "embedding": list(rng.randn(n, 8)),
        }
    )

    # default target (64MB) on a ~40KB input -> memory term says 1 bucket
    scored_1 = distributed_loop_scores(
        rd.from_pandas(df), n_neighbors=10, extent=3
    ).materialize()

    monkeypatch.setenv("PNR_BUCKET_TARGET_BYTES", "4096")
    scored_n = distributed_loop_scores(
        rd.from_pandas(df), n_neighbors=10, extent=3
    ).materialize()
    assert scored_n.num_blocks() > scored_1.num_blocks()
    # rows-per-bucket floor: never more than n // (n_neighbors + 1) buckets
    assert scored_n.num_blocks() <= n // 11

    a = scored_1.to_pandas()
    b = scored_n.to_pandas()
    assert sorted(a.vec_id) == list(range(n))
    assert sorted(b.vec_id) == list(range(n))
    assert ((b.loop_score >= 0) & (b.loop_score <= 1)).all()
