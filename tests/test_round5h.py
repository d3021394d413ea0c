"""Wave-15 surfaces: SMB bucketed layout, skyline, sweep-line, and the
new TPC-H shapes' edge semantics."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd


def _mkds(df: pd.DataFrame, blocks: int):
    return rd.from_pandas(df).repartition(blocks)


def test_bucketed_join_matches_pandas(ray_session, tmp_path):
    from pynomaly_ray.sources.bucketed import bucketed_join, write_bucketed

    rng = np.random.default_rng(7)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 40, 500),
            "v": rng.integers(0, 1000, 500),
        }
    )
    right = pd.DataFrame(
        {
            "rk": rng.integers(0, 40, 200),
            "w": rng.integers(0, 1000, 200),
        }
    )
    write_bucketed(_mkds(left, 5), ["k"], 7, str(tmp_path / "l"))
    write_bucketed(_mkds(right, 3), ["rk"], 7, str(tmp_path / "r"))
    got = (
        bucketed_join(str(tmp_path / "l"), str(tmp_path / "r"))
        .to_pandas()
        .sort_values(["k", "v", "rk", "w"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, left_on="k", right_on="rk")
        .sort_values(["k", "v", "rk", "w"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[want.columns].astype(np.int64), want.astype(np.int64)
    )


def test_bucketed_join_empty_buckets_schema_stable(ray_session, tmp_path):
    from pynomaly_ray.sources.bucketed import bucketed_join, write_bucketed

    # one hot key -> all rows land in one bucket; the other 7 buckets
    # are empty on both sides and must still produce typed (0-row) output
    left = pd.DataFrame({"k": np.full(50, 3), "v": np.arange(50)})
    right = pd.DataFrame({"k": np.full(10, 3), "w": np.arange(10)})
    write_bucketed(_mkds(left, 2), ["k"], 8, str(tmp_path / "l"))
    write_bucketed(_mkds(right, 2), ["k"], 8, str(tmp_path / "r"))
    out = bucketed_join(str(tmp_path / "l"), str(tmp_path / "r")).to_pandas()
    assert len(out) == 500
    assert set(out.columns) >= {"k", "v", "w"}


def test_bucketed_join_refuses_uncommitted_layout(ray_session, tmp_path):
    from pynomaly_ray.sources.bucketed import bucketed_join, write_bucketed

    left = pd.DataFrame({"k": np.arange(10), "v": np.arange(10)})
    write_bucketed(_mkds(left, 1), ["k"], 4, str(tmp_path / "l"))
    write_bucketed(_mkds(left, 1), ["k"], 4, str(tmp_path / "r"))
    os.remove(tmp_path / "r" / "_bucketed.json")  # simulate a crash
    with pytest.raises(FileNotFoundError, match="commit marker"):
        bucketed_join(str(tmp_path / "l"), str(tmp_path / "r"))


def test_bucketed_join_bucket_count_mismatch(ray_session, tmp_path):
    from pynomaly_ray.sources.bucketed import bucketed_join, write_bucketed

    left = pd.DataFrame({"k": np.arange(10), "v": np.arange(10)})
    write_bucketed(_mkds(left, 1), ["k"], 4, str(tmp_path / "l"))
    write_bucketed(_mkds(left, 1), ["k"], 8, str(tmp_path / "r"))
    with pytest.raises(ValueError, match="not co-partitioned"):
        bucketed_join(str(tmp_path / "l"), str(tmp_path / "r"))


def test_bucketed_write_idempotent_rewrite(ray_session, tmp_path):
    """Re-writing the same Dataset to the same path must not grow the
    layout (bucket-id file names overwrite, the retry contract)."""
    from pynomaly_ray.sources.bucketed import write_bucketed

    df = pd.DataFrame({"k": np.arange(100) % 9, "v": np.arange(100)})
    ds = rd.from_pandas(df).repartition(2)
    m1 = write_bucketed(ds, ["k"], 4, str(tmp_path / "l"))
    files1 = sorted(
        f
        for b in os.listdir(tmp_path / "l")
        if b.startswith("bucket=")
        for f in os.listdir(tmp_path / "l" / b)
    )
    m2 = write_bucketed(ds, ["k"], 4, str(tmp_path / "l"))
    files2 = sorted(
        f
        for b in os.listdir(tmp_path / "l")
        if b.startswith("bucket=")
        for f in os.listdir(tmp_path / "l" / b)
    )
    assert files1 == files2 and m1["rows"] == m2["rows"] == 100


def test_pareto_front_kernel_matches_bruteforce():
    from pynomaly_ray.pipelines.queries import _pareto_front

    rng = np.random.default_rng(11)
    df = pd.DataFrame(
        {
            "price_cents": rng.integers(0, 30, 300),
            "qty": rng.integers(0, 30, 300),
            "id": np.arange(300),
        }
    )
    got = set(_pareto_front(df)["id"])
    p = df["price_cents"].to_numpy()
    q = df["qty"].to_numpy()
    want = set()
    for i in range(len(df)):
        dominated = np.any(
            (p <= p[i]) & (q >= q[i]) & ((p < p[i]) | (q > q[i]))
        )
        if not dominated:
            want.add(i)
    assert got == want


def test_peak_concurrency_tiny_exact(ray_session, tmp_path, monkeypatch):
    """3 overlapping + 1 disjoint window -> peak 3, via the full
    distributed path (exchange + range_sort + block summaries)."""
    import pyarrow.parquet as papq

    base = np.datetime64("2001-01-01T00:00:00", "us")
    mins = np.array([0, 10, 20, 200], "timedelta64[m]")
    ev = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "ts": base + mins.astype("timedelta64[us]"),
            "user_id": np.int64([1, 2, 3, 4]),
            "event_type": ["view"] * 4,
            "value": [1.0] * 4,
            "props": ["{}"] * 4,
        }
    )
    papq.write_table(
        pa.Table.from_pandas(ev, preserve_index=False),
        str(tmp_path / "events.parquet"),
    )
    from pynomaly_ray.pipelines.queries import q_peak_concurrency

    out = q_peak_concurrency(str(tmp_path))
    assert int(out["peak"].iloc[0]) == 3
    assert int(out["n_keys"].iloc[0]) == 8


def test_bucketed_aggregate_matches_pandas(ray_session, tmp_path):
    from pynomaly_ray.sources.bucketed import bucketed_aggregate, write_bucketed

    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {"k": rng.integers(0, 25, 400), "v": rng.integers(0, 100, 400)}
    )
    write_bucketed(_mkds(df, 4), ["k"], 6, str(tmp_path / "t"))
    got = (
        bucketed_aggregate(
            str(tmp_path / "t"),
            lambda d: d.groupby("k", sort=False)["v"].sum().reset_index(),
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = df.groupby("k")["v"].sum().reset_index()
    pd.testing.assert_frame_equal(got.astype(np.int64), want.astype(np.int64))


def test_bucketed_join_live_matches_pandas(ray_session, tmp_path):
    """A live delta joins the persisted layout without the layout
    moving; result equals a plain pandas merge."""
    from pynomaly_ray.sources.bucketed import bucketed_join_live, write_bucketed

    rng = np.random.default_rng(19)
    master = pd.DataFrame(
        {"k": rng.integers(0, 50, 300), "w": rng.integers(0, 9, 300)}
    )
    write_bucketed(_mkds(master, 3), ["k"], 5, str(tmp_path / "m"))
    delta = pd.DataFrame(
        {"dk": rng.integers(0, 60, 120), "v": rng.integers(0, 9, 120)}
    )
    got = (
        bucketed_join_live(_mkds(delta, 4), str(tmp_path / "m"), ["dk"])
        .to_pandas()
        .sort_values(["dk", "v", "k", "w"])
        .reset_index(drop=True)
    )
    want = (
        delta.merge(master, left_on="dk", right_on="k")
        .sort_values(["dk", "v", "k", "w"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[want.columns].astype(np.int64), want.astype(np.int64)
    )


def test_bucketed_join_live_null_keys_route_correctly(ray_session, tmp_path):
    """A null in the live key column must not widen the frame and
    re-route the bucket id (review finding: pandas int->float trap)."""
    from pynomaly_ray.sources.bucketed import bucketed_join_live, write_bucketed

    master = pd.DataFrame({"k": np.arange(50), "w": np.arange(50) * 10})
    write_bucketed(_mkds(master, 2), ["k"], 5, str(tmp_path / "m"))
    delta = pd.DataFrame(
        {
            "dk": pd.array(list(range(20)) + [None], dtype="Int64"),
            "v": np.arange(21),
        }
    )
    got = (
        bucketed_join_live(_mkds(delta, 2), str(tmp_path / "m"), ["dk"])
        .to_pandas()
        .sort_values("dk")
        .reset_index(drop=True)
    )
    assert len(got) == 20  # every non-null key matched
    assert sorted(got["dk"].astype(int)) == list(range(20))
    assert (got.sort_values("dk")["w"].to_numpy() == np.arange(20) * 10).all()


def test_bucketed_join_live_rejects_right_outer(ray_session, tmp_path):
    from pynomaly_ray.sources.bucketed import bucketed_join_live, write_bucketed

    master = pd.DataFrame({"k": np.arange(10), "w": np.arange(10)})
    write_bucketed(_mkds(master, 1), ["k"], 3, str(tmp_path / "m"))
    with pytest.raises(ValueError, match="inner.*left|left.*inner"):
        bucketed_join_live(
            _mkds(master, 1), str(tmp_path / "m"), ["k"], how="right"
        )


def test_bucketed_rewrite_clears_stale_buckets(ray_session, tmp_path):
    """Rewriting a layout with fewer rows/buckets must not serve
    phantom rows from the previous layout (review finding)."""
    from pynomaly_ray.sources.bucketed import bucketed_aggregate, write_bucketed

    big = pd.DataFrame({"k": np.arange(20), "v": np.ones(20, np.int64)})
    write_bucketed(_mkds(big, 2), ["k"], 4, str(tmp_path / "t"))
    small = pd.DataFrame({"k": np.int64([3]), "v": np.int64([7])})
    m = write_bucketed(_mkds(small, 1), ["k"], 4, str(tmp_path / "t"))
    assert m["rows"] == 1
    got = bucketed_aggregate(
        str(tmp_path / "t"),
        lambda d: d.groupby("k", sort=False)["v"].sum().reset_index(),
    ).to_pandas()
    assert len(got) == 1 and int(got["v"].iloc[0]) == 7


def test_bucketed_write_empty_dataset(ray_session, tmp_path):
    """An empty delta day commits a rows=0 layout instead of crashing
    (review finding: schemaless empty merge outputs)."""
    from pynomaly_ray.sources.bucketed import load_manifest, write_bucketed

    empty = pd.DataFrame(
        {
            "k": pd.Series([], dtype=np.int64),
            "v": pd.Series([], dtype=np.int64),
        }
    )
    m = write_bucketed(_mkds(empty, 1), ["k"], 4, str(tmp_path / "t"))
    assert m["rows"] == 0
    assert load_manifest(str(tmp_path / "t"))["rows"] == 0
