"""PartitionedTable (build-once, probe-many) parity with hash_join.

The iterative graph queries (pagerank / bfs_hops / sssp / hits) now pay
the static side's exchange once; these tests pin that the cached-bucket
join is row-identical to a fresh hash_join under every shape that has
bitten an exchange before: nullable keys, NUL-bearing string keys,
empty probes, left joins, and repeated probes against one build.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from tests.conftest import pinned_fanout


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def test_partitioned_table_matches_hash_join(ray_session):
    import ray.data as rd

    from pynomaly_ray.functions.exchange import PartitionedTable, hash_join

    rng = np.random.default_rng(7)
    build = pd.DataFrame(
        {
            "k": rng.integers(0, 50, 400),
            "w": rng.integers(1, 9, 400),
        }
    )
    probe = pd.DataFrame(
        {
            "k": rng.integers(0, 60, 120),
            "x": rng.integers(0, 1000, 120),
        }
    )
    bds = rd.from_pandas(build).repartition(5)
    pds = rd.from_pandas(probe).repartition(3)
    with pinned_fanout(4):
        pt = PartitionedTable(bds, ["k"])
        got = _sorted(pt.join(pds).to_pandas())
        want = _sorted(hash_join(bds, pds, ["k"]).to_pandas())
    pd.testing.assert_frame_equal(got, want)


def test_partitioned_table_left_join_and_merge_fn(ray_session):
    import ray.data as rd

    from pynomaly_ray.functions.exchange import PartitionedTable, hash_join

    build = pd.DataFrame({"k": [1, 2, 3, 4], "v": [10, 20, 30, 40]})
    probe = pd.DataFrame({"k": [2, 4, 9], "s": [5, 6, 7]})

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        df["s"] = df["s"].fillna(0).astype(np.int64)
        return df

    bds, pds = rd.from_pandas(build), rd.from_pandas(probe)
    with pinned_fanout(3):
        pt = PartitionedTable(bds, ["k"])
        got = _sorted(pt.join(pds, merge_fn=fill, how="left").to_pandas())
        want = _sorted(
            hash_join(bds, pds, ["k"], merge_fn=fill, how="left").to_pandas()
        )
    pd.testing.assert_frame_equal(got, want)
    # every build key survives the left join
    assert set(got["k"]) == {1, 2, 3, 4}


def test_partitioned_table_repeated_probes_stay_consistent(ray_session):
    """One build, three different probes — the cached buckets must not
    be consumed or mutated by a probe (the whole point of the class)."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import PartitionedTable

    build = pd.DataFrame({"k": np.arange(100) % 10, "v": np.arange(100)})
    pt = PartitionedTable(rd.from_pandas(build).repartition(4), ["k"])
    sizes = []
    for lo, hi in [(0, 3), (3, 7), (0, 10)]:
        probe = rd.from_pandas(pd.DataFrame({"k": np.arange(lo, hi)}))
        sizes.append(pt.join(probe).count())
    assert sizes == [30, 40, 100]


def test_partitioned_table_nul_and_null_keys(ray_session):
    """NUL-bearing string keys route consistently (the round-4 hash bug
    class) and null keys behave exactly like hash_join's pd.merge."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import PartitionedTable, hash_join

    build = pd.DataFrame(
        {"k": ["a", "a\x00b", "a\x00c", None, "z"], "v": [1, 2, 3, 4, 5]}
    )
    probe = pd.DataFrame({"k": ["a\x00b", "a", "q", None], "x": [7, 8, 9, 1]})
    bds = rd.from_pandas(build).repartition(3)
    pds = rd.from_pandas(probe).repartition(2)
    with pinned_fanout(4):
        pt = PartitionedTable(bds, ["k"])
        got = _sorted(pt.join(pds).to_pandas())
        want = _sorted(hash_join(bds, pds, ["k"]).to_pandas())
    pd.testing.assert_frame_equal(got, want)
    # the NUL-distinct keys matched their exact twins only
    assert set(zip(got["k"], got["v"], got["x"])) >= {("a\x00b", 2, 7), ("a", 1, 8)}
    assert ("a\x00c",) not in set(zip(got["k"]))


def test_partitioned_table_empty_probe(ray_session):
    import ray.data as rd

    from pynomaly_ray.functions.exchange import PartitionedTable

    build = pd.DataFrame({"k": [1, 2], "v": [3, 4]})
    with pinned_fanout(2):
        pt = PartitionedTable(rd.from_pandas(build), ["k"])
    probe = rd.from_pandas(pd.DataFrame({"k": pd.Series(dtype=np.int64)}))
    assert pt.join(probe).count() == 0
