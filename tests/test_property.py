"""Property-based tests (hypothesis) for the numeric core and the
vectorized kernels — invariants the example-based suite can't sweep."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings, strategies as st

SETTINGS = dict(max_examples=25, deadline=None)


# ---------------------------------------------------------------------------
# loop_core invariants
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(
    n=st.integers(min_value=12, max_value=60),
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    extent=st.sampled_from([1, 2, 3]),
)
def test_loop_scores_range_and_permutation_invariance(n, dim, seed, extent):
    """Scores always lie in [0,1]; permuting tie-free input rows permutes
    the scores identically (the reference's flipud test, generalized)."""
    import warnings

    from pynomaly_ray.loop_core import LocalOutlierProbability

    rng = np.random.RandomState(seed)
    X = rng.randn(n, dim)  # continuous -> ties have measure zero
    k = min(8, n - 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        s = np.asarray(
            LocalOutlierProbability(X, n_neighbors=k, extent=extent)
            .fit()
            .local_outlier_probabilities,
            dtype=np.float64,
        )
        perm = rng.permutation(n)
        s2 = np.asarray(
            LocalOutlierProbability(X[perm], n_neighbors=k, extent=extent)
            .fit()
            .local_outlier_probabilities,
            dtype=np.float64,
        )
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    np.testing.assert_allclose(s2, s[perm], atol=1e-9)


@settings(**SETTINGS)
@given(
    n=st.integers(min_value=12, max_value=50),
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.floats(min_value=0.01, max_value=100.0),
    shift=st.floats(min_value=-50.0, max_value=50.0),
)
def test_loop_scores_similarity_invariance(n, seed, scale, shift):
    """LoOP is invariant under similarity transforms (uniform scale +
    translation): all distances scale by the same constant, which cancels
    in the PLOF ratio."""
    import warnings

    from pynomaly_ray.loop_core import LocalOutlierProbability

    rng = np.random.RandomState(seed)
    X = rng.randn(n, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        a = np.asarray(
            LocalOutlierProbability(X, n_neighbors=8)
            .fit()
            .local_outlier_probabilities,
            dtype=np.float64,
        )
        b = np.asarray(
            LocalOutlierProbability(X * scale + shift, n_neighbors=8)
            .fit()
            .local_outlier_probabilities,
            dtype=np.float64,
        )
    np.testing.assert_allclose(a, b, atol=1e-6)


# ---------------------------------------------------------------------------
# vectorized kernel parity over arbitrary unicode text
# ---------------------------------------------------------------------------
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200
)


@settings(**SETTINGS)
@given(texts=st.lists(_text, min_size=1, max_size=8))
# pinned falsifying example from the round-4 NUL-hash bug: pandas'
# categorize path hashed '\x00' and '\x000' identically when batched
@example(texts=["\x00", "\x000"])
@example(texts=["a", "a\x00b", "a\x00c"])
def test_minhash_batch_single_parity_property(texts):
    from pynomaly_ray.stages.dedup import MinHasher

    mh = MinHasher(n_perm=16)
    batch = mh.signatures(texts)
    for i, t in enumerate(texts):
        np.testing.assert_array_equal(batch[i], mh.signature(t))


@settings(**SETTINGS)
@given(texts=st.lists(_text, min_size=1, max_size=8))
@example(texts=["\x00", "\x000"])
def test_simhash_batch_single_parity_property(texts):
    from pynomaly_ray.stages.dedup import SimHasher

    sh = SimHasher()
    batch = sh.simhash_batch(texts)
    for i, t in enumerate(texts):
        assert int(batch[i]) == int(sh.simhash(t))


@settings(**SETTINGS)
@given(
    texts=st.lists(_text, min_size=2, max_size=6),
    k=st.integers(min_value=1, max_value=7),
)
def test_ngram_jaccard_metric_properties(texts, k):
    """Jaccard similarity: symmetric, reflexive (==1 on identical text),
    bounded in [0,1]."""
    from pynomaly_ray.stages.dedup import ngram_jaccard

    a, b = texts[0], texts[1]
    ab = ngram_jaccard(a, b, k)
    ba = ngram_jaccard(b, a, k)
    assert ab == ba
    assert 0.0 <= ab <= 1.0
    assert ngram_jaccard(a, a, k) == 1.0


# ---------------------------------------------------------------------------
# exchange-layer reducers: associativity with arbitrary splits
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(
    vals=st.lists(
        st.tuples(st.integers(0, 5), st.integers(-1000, 1000)),
        min_size=1,
        max_size=200,
    ),
    cut=st.integers(min_value=0, max_value=200),
)
def test_partial_aggregate_split_invariance(vals, cut):
    """Partial-then-merge equals whole-batch aggregation for the
    sum/min/max/count reducer shape, regardless of where the batch was
    split — the correctness contract every map-side partial relies on."""
    df = pd.DataFrame(vals, columns=["key", "v"])
    cut = min(cut, len(df))

    def partial(d):
        return (
            d.groupby("key", sort=False)
            .agg(n=("v", "size"), s=("v", "sum"), lo=("v", "min"), hi=("v", "max"))
            .reset_index()
        )

    def merge(d):
        return (
            d.groupby("key", sort=False)
            .agg(n=("n", "sum"), s=("s", "sum"), lo=("lo", "min"), hi=("hi", "max"))
            .reset_index()
        )

    whole = partial(df).sort_values("key").reset_index(drop=True)
    split = (
        merge(pd.concat([partial(df.iloc[:cut]), partial(df.iloc[cut:])]))
        .sort_values("key")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(whole, split, check_dtype=False)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 120),
    n_users=st.integers(1, 6),
    span=st.integers(1, 10_000_000_000),
    seed=st.integers(0, 10_000),
)
def test_trailing_window_offset_searchsorted_property(n, n_users, span, seed):
    """The offset-keyed global searchsorted in q_trailing_events must
    equal a naive per-row window count for arbitrary user/ts data —
    including duplicate timestamps (RANGE peers), windows crossing
    segment starts, and probes dipping below a segment's first key."""
    import pynomaly_ray.pipelines.queries as Q

    rng = np.random.RandomState(seed)
    base = 1_600_000_000_000_000  # realistic epoch-us magnitude
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.randint(0, n_users, n).astype(np.int64),
            "ts": pd.to_datetime(base + rng.randint(0, span, n), unit="us"),
        }
    )
    out = (
        Q._trailing_window_kernel(df.copy())
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # naive O(n^2) reference
    us = df["ts"].astype("int64").to_numpy()
    uid = df["user_id"].to_numpy()
    naive = np.array(
        [
            int(
                (
                    (uid == uid[i])
                    & (us >= us[i] - Q._TRAIL_US)
                    & (us <= us[i])
                ).sum()
            )
            for i in range(n)
        ],
        dtype=np.int64,
    )
    expect = pd.DataFrame(
        {"event_id": df["event_id"], "n_trailing_1h": naive}
    ).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, expect)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(10, 400),
    n_keys=st.integers(1, 30),
    n_blocks=st.integers(1, 6),
    p=st.sampled_from([1, 2, 5]),
    seed=st.integers(0, 1000),
)
def test_hash_aggregate_split_and_fanout_invariance(
    n, n_keys, n_blocks, p, seed, ray_session
):
    """hash_aggregate results are independent of how the input is split
    into blocks AND of the exchange fan-out P — the invariant every
    adaptive-P decision relies on."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import hash_aggregate

    rng = np.random.RandomState(seed)
    df = pd.DataFrame(
        {
            "k": rng.randint(0, n_keys, n).astype(np.int64),
            "v": rng.randint(-100, 100, n).astype(np.int64),
        }
    )

    def merge(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("k", sort=False)["v"].sum().reset_index()

    out = (
        hash_aggregate(
            rd.from_pandas(df).repartition(n_blocks), ["k"], merge, num_partitions=p
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    expect = df.groupby("k", sort=True)["v"].sum().reset_index()
    pd.testing.assert_frame_equal(out, expect)


# ---------------------------------------------------------------------------
# round-4 operator kernels (pure, no Ray)
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=300),
    n_docs=st.integers(min_value=1, max_value=40),
    n_parts=st.integers(min_value=1, max_value=8),
)
def test_bulk_emit_matches_per_group_reference(seed, n, n_docs, n_parts):
    """The vectorized all-groups duplicate emitter equals the per-group
    reference for ANY occurrence table, including random prior-run
    splits (resume attribution) and hot keys."""
    from pynomaly_ray.config import VIOLATION_SCHEMA
    from pynomaly_ray.functions.hashing import hash_strings
    from pynomaly_ray.stages.uniqueness import (
        bulk_emit_violations,
        emit_duplicate_violations,
    )

    rng = np.random.RandomState(seed)
    docs = [f"d{rng.randint(n_docs)}" for _ in range(n)]
    parts = [f"p{rng.randint(n_parts)}" for _ in range(n)]
    df = pd.DataFrame(
        {
            "doc_id": docs,
            "partition_id": parts,
            "cnt": rng.randint(1, 4, n).astype(np.int64),
            "is_prior": (rng.rand(n) < 0.4).astype(np.int64),
        }
    )
    df["doc_hash"] = hash_strings(df["doc_id"]).view(np.int64)

    got = bulk_emit_violations(pa.Table.from_pandas(df, preserve_index=False))
    assert got.schema == VIOLATION_SCHEMA
    got = got.to_pandas()

    totals = df.groupby("doc_id")["cnt"].sum()
    dups = df[df["doc_id"].isin(totals[totals > 1].index)]
    frames = [
        emit_duplicate_violations(g)
        for _, g in dups.groupby("doc_id", sort=True)
    ]
    ref = (
        pd.concat(frames, ignore_index=True)
        if frames
        else pd.DataFrame(
            {c: pd.Series(dtype=object)
             for c in ["doc_id", "partition_id", "check", "detail"]}
        )
    )
    key = ["doc_id", "partition_id"]
    a = got.sort_values(key, kind="mergesort").reset_index(drop=True)
    b = ref.sort_values(key, kind="mergesort").reset_index(drop=True)
    assert len(a) == len(b)
    assert list(a["doc_id"]) == list(b["doc_id"])
    assert list(a["partition_id"]) == list(b["partition_id"])


@settings(**SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_nodes=st.integers(min_value=1, max_value=60),
    n_edges=st.integers(min_value=0, max_value=120),
)
def test_local_components_matches_union_find(seed, n_nodes, n_edges):
    """_local_components equals a plain union-find on arbitrary random
    graphs (self-loops, duplicate edges, arbitrary id values)."""
    from pynomaly_ray.functions.graph import _local_components

    rng = np.random.RandomState(seed)
    ids = rng.choice(10_000, size=n_nodes, replace=False)
    a = ids[rng.randint(n_nodes, size=n_edges)]
    b = ids[rng.randint(n_nodes, size=n_edges)]
    edges = pd.DataFrame({"a": a, "b": b})
    if not len(edges):
        return

    got = _local_components(edges, "a", "b")

    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    expect = {x: find(x) for x in set(a.tolist()) | set(b.tolist())}
    assert dict(zip(got["node"], got["lbl"])) == expect


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    n=st.integers(min_value=1, max_value=3000),
    p=st.integers(min_value=1, max_value=7),
    dup_range=st.sampled_from([3, 100, 10**9]),
    desc=st.booleans(),
)
def test_range_sort_randomized(ray_session, seed, n, p, dup_range, desc):
    """range_sort over random int data (heavy duplicates through nearly
    unique), any partition count, both directions: output is the exact
    sorted multiset, in order, for every configuration."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import range_sort

    rng = np.random.RandomState(seed)
    vals = rng.randint(0, dup_range, n).astype(np.int64)
    df = pd.DataFrame({"k": vals, "x": np.arange(n, dtype=np.int64)})
    out = range_sort(
        rd.from_pandas(df).repartition(min(4, n)), "k",
        num_partitions=p, descending=desc,
    ).to_pandas()
    got = out["k"].to_numpy()
    expect = np.sort(vals)
    if desc:
        expect = expect[::-1]
    assert np.array_equal(got, expect)
    assert sorted(out["x"]) == list(range(n))
