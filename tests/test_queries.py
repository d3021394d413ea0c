"""Query-suite tests: every oracle-checked pipeline is compared against
its DuckDB oracle at sf0.001 inside the test session (the same check the
driver performs at sf0.01), plus exchange-primitive unit tests."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from tests.conftest import pinned_fanout

SF = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def duck():
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()


def _oracle_names():
    # engine_queries registers its surface-certified entries into
    # ORACLE_QUERIES at import time; without this import the 10
    # surface oracles would silently get zero parity coverage here
    import pynomaly_ray.pipelines.engine_queries  # noqa: F401

    from pynomaly_ray.pipelines.queries import ORACLE_QUERIES

    return sorted(ORACLE_QUERIES)


@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_oracle(name, duck, ray_session):
    import pynomaly_ray.pipelines.engine_queries  # noqa: F401

    from pynomaly_ray.pipelines.queries import ORACLE_QUERIES

    fn, sql = ORACLE_QUERIES[name]
    ray_df = _to_df(fn(SF))
    sql_df = duck.execute(sql).fetchdf()
    assert sorted(ray_df.columns) == sorted(sql_df.columns)
    assert len(ray_df) == len(sql_df)
    a, b = _canon(ray_df), _canon(sql_df)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            assert np.allclose(
                av.astype(float), bv.astype(float), rtol=0, atol=0
            ), f"{name}.{c}"
        else:
            assert (av == bv).all(), f"{name}.{c}"


def test_engine_queries_run(ray_session):
    """Rows-only entries produce non-degenerate, deterministic output."""
    from pynomaly_ray.pipelines.engine_queries import ENGINE_QUERIES

    for name in ["loop_embeddings", "image_features"]:
        df1 = _to_df(ENGINE_QUERIES[name](SF))
        df2 = _to_df(ENGINE_QUERIES[name](SF))
        assert len(df1) > 0, name
        pd.testing.assert_frame_equal(
            df1.reset_index(drop=True), df2.reset_index(drop=True)
        )


def test_lang_id_query_shape(ray_session):
    """The testdata corpus's text is synthetic English-ish tokens
    regardless of its lang label, so accuracy vs the label is not
    meaningful here (real accuracy is asserted on a curated corpus in
    test_stages.py); this checks the aggregation covers every label."""
    from pynomaly_ray.pipelines.engine_queries import q_lang_id

    df = _to_df(q_lang_id(SF))
    assert set(df.lang) == {"de", "en", "es", "fr", "zh"}
    assert (df.n_docs > 0).all()
    assert (df.n_match <= df.n_docs).all()


def test_hash_join_matches_pandas(ray_session):
    import ray.data as rd

    from pynomaly_ray.functions.exchange import hash_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame(
        {"k": rng.randint(0, 50, 500), "x": rng.randn(500)}
    )
    right = pd.DataFrame({"k": np.arange(40), "y": np.arange(40) * 10})
    with pinned_fanout(4):
        out = hash_join(rd.from_pandas(left), rd.from_pandas(right), ["k"])
    out = out.to_pandas()
    expect = left.merge(right, on=["k"], how="inner")
    assert len(out) == len(expect)
    assert out["x"].sum() == pytest.approx(expect["x"].sum())
    assert int(out["y"].sum()) == int(expect["y"].sum())


def _two_sided(op, left, right):
    from pynomaly_ray.functions import exchange as ex

    if op == "hash_join":
        return ex.hash_join(left, right, ["k"])
    if op == "partitioned_table":
        return ex.PartitionedTable(left, ["k"]).join(right)
    if op == "hash_anti_join":
        return ex.hash_anti_join(left, right, "k")
    if op == "asof_join":
        return ex.asof_join(left, right, by="k", left_on="t", right_on="t")
    return ex.range_join(
        left, right, by="k", left_on="t", right_lo="lo", right_hi="hi"
    )


@pytest.mark.parametrize("empty_side", ["left", "right"])
@pytest.mark.parametrize(
    "op",
    ["hash_join", "partitioned_table", "hash_anti_join", "asof_join", "range_join"],
)
def test_two_sided_ops_take_a_side_with_no_blocks(ray_session, op, empty_side):
    """A side with zero blocks (``from_items([])``) is an empty side: every
    two-sided exchange answers as for a 0-row one, at one bucket and at
    several.  Only the anti-join with nothing on the right keeps rows."""
    import ray
    import ray.data as rd

    typed = rd.from_pandas(
        pd.DataFrame({"k": [1, 2, 3], "t": [5, 6, 7], "lo": 0, "hi": 10})
    )
    empty = rd.from_items([])
    left, right = (empty, typed) if empty_side == "left" else (typed, empty)
    keeps_left = op == "hash_anti_join" and empty_side == "right"
    for p in (1, 3):
        with pinned_fanout(p):
            out = _two_sided(op, left, right)
        tabs = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
        keys = sorted(k for t in tabs for k in t["k"].to_pylist())
        assert keys == ([1, 2, 3] if keeps_left else []), (op, empty_side, p)


def test_one_bucket_exchange_launches_no_split_task(ray_session, monkeypatch):
    """At one bucket, ``hash_aggregate`` and ``hash_join`` hand every
    block on whole: no ``_split_block`` task runs, the single bucket sees
    the rows in block order, and the results equal those at three
    buckets and the pandas reference."""
    import ray.data as rd

    from pynomaly_ray.functions import exchange
    from pynomaly_ray.functions.exchange import hash_aggregate, hash_join

    splits = []
    real = exchange._split_block

    class CountingSplit:
        def options(self, **kw):
            splits.append(kw)
            return real.options(**kw)

    monkeypatch.setattr(exchange, "_split_block", CountingSplit())
    df = pd.DataFrame({"k": np.arange(300) % 7, "v": np.arange(300)})
    right = pd.DataFrame({"k": np.arange(5), "w": np.arange(5) * 10})
    ds = rd.from_pandas([df.iloc[:100], df.iloc[100:250], df.iloc[250:]])
    want_sum = df.groupby("k", as_index=False)["v"].sum()
    want_join = df.merge(right, on="k").sort_values(["v"]).reset_index(drop=True)

    for p, n_splits in ((1, 0), (3, 3 + 3 + 3 + 1)):
        splits.clear()
        with pinned_fanout(p):
            rows = hash_aggregate(ds, ["k"], lambda d: d).to_pandas()
            sums = hash_aggregate(
                ds, ["k"], lambda d: d.groupby("k", as_index=False)["v"].sum()
            ).to_pandas()
            joined = hash_join(ds, rd.from_pandas(right), ["k"]).to_pandas()
        assert len(splits) == n_splits, p
        if p == 1:
            assert rows["v"].tolist() == df["v"].tolist()
        pd.testing.assert_frame_equal(
            sums.sort_values("k").reset_index(drop=True), want_sum
        )
        pd.testing.assert_frame_equal(
            joined[want_join.columns].sort_values("v").reset_index(drop=True),
            want_join,
        )


def test_auto_num_partitions_bounds(ray_session):
    import ray

    from pynomaly_ray.functions.exchange import (
        _MIN_BUCKET_BYTES,
        _bucket_target_bytes,
        auto_num_partitions,
    )

    t = _bucket_target_bytes()
    cpus = int(ray.cluster_resources()["CPU"])
    assert auto_num_partitions(0) == 1
    assert auto_num_partitions(_MIN_BUCKET_BYTES) == 1  # tiny exchange: 1 bucket
    assert auto_num_partitions(10**18) == 1024  # clamped
    # parallelism term: one bucket per ~4MB, bounded by cluster CPUs
    assert auto_num_partitions(t) == min(cpus, t // _MIN_BUCKET_BYTES)
    # memory floor: bucket size never exceeds the target even past CPUs
    assert auto_num_partitions(100 * t) >= 100


def test_hash_aggregate_adaptive_multi_partition(ray_session, monkeypatch):
    """With a tiny bucket target the exchange is forced onto the multi-P
    path; results must equal the single-bucket reduction exactly."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import hash_aggregate

    monkeypatch.setenv("PNR_BUCKET_TARGET_BYTES", "4096")
    df = pd.DataFrame(
        {"k": (np.arange(5000) % 97).astype(np.int64), "v": np.arange(5000, dtype=np.int64)}
    )

    def merge(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("k", sort=False)["v"].sum().reset_index()

    out_ds = hash_aggregate(rd.from_pandas(df), ["k"], merge)
    assert out_ds.num_blocks() > 1  # fan-out actually adapted
    out = out_ds.to_pandas().sort_values("k").reset_index(drop=True)
    ref = (
        hash_aggregate(rd.from_pandas(df), ["k"], merge, num_partitions=1)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    expect = df.groupby("k", sort=True)["v"].sum().reset_index()
    pd.testing.assert_frame_equal(out, expect)
    pd.testing.assert_frame_equal(ref, expect)


def test_hash_join_adaptive_matches_explicit(ray_session, monkeypatch):
    import ray.data as rd

    from pynomaly_ray.functions.exchange import hash_join

    monkeypatch.setenv("PNR_BUCKET_TARGET_BYTES", "2048")
    rng = np.random.RandomState(9)
    left = pd.DataFrame({"k": rng.randint(0, 200, 4000), "x": rng.randn(4000)})
    right = pd.DataFrame({"k": np.arange(150), "y": np.arange(150) * 3})
    out_ds = hash_join(rd.from_pandas(left), rd.from_pandas(right), ["k"])
    assert out_ds.num_blocks() > 1
    out = out_ds.to_pandas()
    expect = left.merge(right, on=["k"], how="inner")
    assert len(out) == len(expect)
    assert int(out["y"].sum()) == int(expect["y"].sum())


def test_cli_end_to_end(ray_session, tmp_path):
    from pynomaly_ray.cli import main

    data = str(tmp_path / "data")
    out = str(tmp_path / "out")
    assert main(["gen", "--out", data, "--parts", "4", "--rows", "48"]) == 0
    rc = main(
        [
            "validate", "--input", data, "--out", out,
            "--sources", "web,books,code,wiki", "--n-neighbors", "5",
        ]
    )
    assert rc == 1  # planted violations -> failures -> nonzero exit
    import os

    assert os.path.exists(os.path.join(out, "manifest"))


def test_asof_join_semantics(ray_session):
    """Inner semantics via row sentinel (holds when left_on == right_on),
    right dtypes preserved, stable schema across empty buckets."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import asof_join

    left = pd.DataFrame(
        {"k": [1, 1, 1, 2], "ts": [5, 50, 100, 10], "lv": [10, 20, 30, 40]}
    )
    right = pd.DataFrame(
        {"k": [1, 1, 2], "ts": [40, 90, 99], "val": np.array([7, 8, 9], dtype=np.int64)}
    )
    with pinned_fanout(4):
        out = asof_join(
            rd.from_pandas(left),
            rd.from_pandas(right),
            by="k",
            left_on="ts",
            right_on="ts",
        )
    out = (
        out.to_pandas()
        .sort_values(["k", "ts"])
        .reset_index(drop=True)
    )
    # (1,5): earlier than all right rows -> dropped; (2,10): right ts=99 > 10 -> dropped
    assert list(out.ts) == [50, 100]
    assert list(out.val) == [7, 8]
    assert list(out.ts_right) == [40, 90]
    assert out.val.dtype == np.int64  # no NaN-driven float widening
    # empty buckets (8 partitions, 2 keys) keep a stable schema
    with pinned_fanout(8):
        wide = asof_join(
            rd.from_pandas(left), rd.from_pandas(right),
            by="k", left_on="ts", right_on="ts",
        )
    assert wide.schema().names == ["k", "ts", "lv", "ts_right", "val"]
    assert wide.count() == 2


def test_cli_dedup_and_loop(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    from pynomaly_ray.cli import main

    docs = "/root/testdata/sf0.001/documents.parquet"
    emb = "/root/testdata/sf0.001/embeddings.parquet"

    out1 = str(tmp_path / "dedup_exact")
    assert main(["dedup", "--input", docs, "--out", out1, "--method", "exact"]) == 0
    groups = pq.read_table(os.path.join(out1, "groups")).to_pandas()
    assert len(groups) > 0 and {"content_hash", "doc_id", "copies"} <= set(groups)

    out2 = str(tmp_path / "dedup_mh")
    assert main(
        ["dedup", "--input", docs, "--out", out2, "--method", "minhash",
         "--threshold", "0.5"]
    ) == 0
    assert os.path.isdir(os.path.join(out2, "pairs"))  # distributed pair sink

    out3 = str(tmp_path / "loop")
    assert main(
        ["loop", "--input", emb, "--out", out3, "--buckets", "4",
         "--lsh-planes", "2"]
    ) == 0
    scores = pq.read_table(out3).to_pandas()
    assert len(scores) == 500
    assert scores["loop_score"].between(0, 1).all()


def test_hash_aggregate_hot_key_bounded_by_partials(ray_session):
    """A planted hot key (50% of ALL rows) reaches its reducer as at most
    one pre-aggregated partial row per upstream block — the documented
    skew bound of the map-side-combine + hash-exchange design (a hot key
    costs one reducer O(#blocks), not O(#rows))."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import hash_aggregate

    n_blocks = 16
    rng = np.random.RandomState(0)
    n = 32000
    keys = np.where(
        rng.rand(n) < 0.5, 0, rng.randint(1, 5000, n)
    ).astype(np.int64)
    df = pd.DataFrame({"k": keys, "v": np.ones(n, dtype=np.int64)})
    ds = rd.from_pandas(df).repartition(n_blocks)

    def partial(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("k", sort=False)["v"]
            .sum()
            .reset_index(name="cnt")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    # batch_size=None -> one combine per block, the worst-case partial count
    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)

    def merge(d: pd.DataFrame) -> pd.DataFrame:
        return (
            d.groupby("k", sort=False)
            .agg(cnt=("cnt", "sum"), n_partials=("cnt", "size"))
            .reset_index()
        )

    out = hash_aggregate(partials, ["k"], merge, num_partitions=4).to_pandas()
    hot = out[out["k"] == 0].iloc[0]
    assert int(hot["cnt"]) == int((df["k"] == 0).sum())
    assert int(hot["n_partials"]) <= n_blocks  # the skew bound
    assert int(out["cnt"].sum()) == n


def test_dim_lookup_guards_fact_tables():
    from pynomaly_ray.functions.exchange import dim_lookup

    small = pa.table({"k": [1, 2], "v": ["a", "b"]})
    assert dim_lookup(small, "k", "v") == {1: "a", 2: "b"}
    big = pa.table({"k": np.arange(200_000), "v": np.arange(200_000)})
    with pytest.raises(ValueError, match="broadcast-dimension limit"):
        dim_lookup(big, "k", "v")


def test_anti_membership_both_paths_identical(ray_session, monkeypatch):
    """anti_membership's broadcast and partitioned paths return the same
    rows (incl. null-key drop semantics); the switch is forced with
    PNR_BROADCAST_ANTI_CAP."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import anti_membership

    rng = np.random.RandomState(3)
    left = pd.DataFrame(
        {
            "k": pd.array(
                [int(v) if v >= 0 else None for v in rng.randint(-1, 50, 2000)],
                dtype="Int64",
            ),
            "x": np.arange(2000, dtype=np.int64),
        }
    )
    right = pd.DataFrame({"k": pd.array(np.arange(0, 50, 2), dtype="Int64")})

    def run():
        return (
            anti_membership(rd.from_pandas(left), rd.from_pandas(right), "k")
            .to_pandas()
            .sort_values("x")
            .reset_index(drop=True)
        )

    monkeypatch.setenv("PNR_BROADCAST_ANTI_CAP", "1000000")
    broadcast = run()
    monkeypatch.setenv("PNR_BROADCAST_ANTI_CAP", "0")
    monkeypatch.setenv("PNR_BUCKET_TARGET_BYTES", "2048")  # multi-P too
    partitioned = run()
    pd.testing.assert_frame_equal(broadcast, partitioned)

    expect = left[left["k"].notna() & (left["k"] % 2 == 1)]
    assert list(broadcast["x"]) == list(expect["x"])


def test_exchange_nullable_key_consistent_hashing(ray_session, monkeypatch):
    """A key value must land in the same bucket whether its block
    contains nulls or not (the int->float to_pandas widening trap):
    hash_aggregate over two blocks — one with nulls, one without — must
    produce exactly one row per key."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import hash_aggregate

    monkeypatch.setenv("PNR_BUCKET_TARGET_BYTES", "1024")  # force multi-P
    a = pa.table(
        {
            "k": pa.array(list(range(100)) + [None] * 5, pa.int64()),
            "v": pa.array([1] * 105, pa.int64()),
        }
    )
    b = pa.table(
        {
            "k": pa.array(list(range(100)), pa.int64()),
            "v": pa.array([1] * 100, pa.int64()),
        }
    )
    ds = rd.from_arrow([a, b])

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("k", sort=False, dropna=False)["v"]
            .sum()
            .reset_index(name="n")
        )

    out = hash_aggregate(ds, ["k"], merge).to_pandas()
    nn = out[out["k"].notna()]
    assert len(nn) == 100          # one row per key, never split
    assert (nn["n"] == 2).all()    # both blocks' copies merged
    assert out[out["k"].isna()]["n"].sum() == 5


def test_hash_join_hot_key_bounded_by_preaggregation(ray_session):
    """hash_join's documented skew prescription (exchange.py docstring):
    pre-aggregate the skewed side per key BEFORE joining, so a 50%-hot
    join key reaches its bucket as <= one partial row per upstream block
    and the in-bucket merge_fn collapses the join output before it
    materializes.  This pins both halves: bounded bucket input AND exact
    aggregated output under heavy skew."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import hash_join

    n_blocks = 16
    rng = np.random.RandomState(1)
    n = 32000
    keys = np.where(rng.rand(n) < 0.5, 0, rng.randint(1, 3000, n)).astype(
        np.int64
    )
    fact = pd.DataFrame({"k": keys, "v": np.ones(n, dtype=np.int64)})
    dim = pd.DataFrame(
        {"k": np.arange(3000, dtype=np.int64), "w": np.arange(3000) * 10}
    )

    def partial(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("k", sort=False)["v"]
            .sum()
            .reset_index(name="cnt")
        )
        g["n_partials"] = 1
        return pa.Table.from_pandas(g, preserve_index=False)

    fact_partials = (
        rd.from_pandas(fact)
        .repartition(n_blocks)
        .map_batches(partial, batch_format="pyarrow", batch_size=None)
    )

    def merge(joined: pd.DataFrame) -> pd.DataFrame:
        # in-bucket aggregation: the per-key join output never leaves
        # the bucket task unaggregated
        return (
            joined.groupby("k", sort=False)
            .agg(
                cnt=("cnt", "sum"),
                n_partials=("n_partials", "sum"),
                w=("w", "first"),
            )
            .reset_index()
        )

    with pinned_fanout(4):
        out = hash_join(fact_partials, rd.from_pandas(dim), ["k"], merge_fn=merge)
    out = out.to_pandas()
    hot = out[out["k"] == 0].iloc[0]
    assert int(hot["cnt"]) == int((fact["k"] == 0).sum())
    assert int(hot["n_partials"]) <= n_blocks  # the skew bound held
    assert int(hot["w"]) == 0
    assert int(out["cnt"].sum()) == n
    assert (out.merge(dim, on="k")["w_x"] == out.merge(dim, on="k")["w_y"]).all()


def test_range_sort_global_order(ray_session):
    """range_sort: blocks come back globally ordered (asc and desc),
    duplicates and nulls included (nulls last both directions), across
    a forced multi-range exchange; total multiset preserved."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import range_sort

    rng = np.random.RandomState(17)
    vals = rng.randint(0, 500, 20000).astype(np.float64)
    vals[rng.choice(20000, 300, replace=False)] = np.nan
    df = pd.DataFrame({"k": vals, "x": np.arange(20000, dtype=np.int64)})
    ds = rd.from_pandas(df).repartition(16)

    for desc in (False, True):
        out = range_sort(ds, "k", num_partitions=6, descending=desc).to_pandas()
        assert len(out) == 20000
        k = out["k"].to_numpy()
        n_null = int(np.isnan(k).sum())
        assert n_null == 300
        assert np.isnan(k[-n_null:]).all()  # nulls last either way
        body = k[: len(k) - n_null]
        diffs = np.diff(body)
        assert (diffs <= 0).all() if desc else (diffs >= 0).all()
        assert sorted(out["x"]) == list(range(20000))  # nothing lost


def test_connected_components_topologies(ray_session, monkeypatch):
    """Min-label propagation: chains (worst diameter), stars,
    multi-component graphs, and duplicate edges collapse to min-id
    component labels — identically through BOTH the driver-local
    union path and the forced distributed exchange rounds, for int
    and string node ids."""
    import ray.data as rd

    from pynomaly_ray.functions.graph import connected_components

    # chain 0-1-2-...-9 (diameter 9), star 100<-101..105,
    # pair (200, 201), duplicate edge repeated
    edges = pd.DataFrame(
        {
            "a": [*range(9), *[100] * 5, 200, 200],
            "b": [*range(1, 10), *range(101, 106), 201, 201],
        }
    )
    expect = {**{i: 0 for i in range(10)},
              **{i: 100 for i in range(100, 106)},
              200: 200, 201: 200}
    s_edges = edges.astype(str)
    s_expect = {str(k): str(v) for k, v in expect.items()}

    for cap, want, e in [
        ("1000000", expect, edges),        # local path
        ("0", expect, edges),              # forced distributed path
        ("1000000", s_expect, s_edges),    # string ids, local
        ("0", s_expect, s_edges),          # string ids, distributed
    ]:
        monkeypatch.setenv("PNR_LOCAL_CC_EDGES", cap)
        out = connected_components(rd.from_pandas(e)).to_pandas()
        assert dict(zip(out["node"], out["lbl"])) == want


def test_connected_components_empty_and_null_edges(ray_session):
    """Empty edge sets return a typed empty labels dataset; edges with a
    null endpoint are dropped instead of aliasing other nodes through
    factorize's -1 code (which silently merged unrelated components)."""
    import ray.data as rd

    from pynomaly_ray.functions.graph import connected_components

    empty = pd.DataFrame({"a": pd.Series(dtype=object), "b": pd.Series(dtype=object)})
    out_ds = connected_components(rd.from_pandas(empty))
    # (Ray's to_pandas drops columns on 0-row datasets; check the schema)
    assert out_ds.count() == 0
    assert out_ds.schema().names == ["node", "lbl"]

    edges = pd.DataFrame({"a": [None, "y"], "b": ["a", "z"]})
    out = connected_components(rd.from_pandas(edges)).to_pandas()
    assert dict(zip(out["node"], out["lbl"])) == {"y": "y", "z": "y"}


def test_range_sort_string_keys_with_nulls(ray_session):
    """range_sort handles object (string) keys containing nulls — the
    documented nulls-last contract — and nullable int keys without the
    int->float widening."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import range_sort

    words = [f"w{i:04d}" for i in range(5000)]
    rng = np.random.RandomState(2)
    rng.shuffle(words)
    ser = pd.Series(words, dtype=object)
    ser[rng.choice(5000, 100, replace=False)] = None
    df = pd.DataFrame({"k": ser, "x": np.arange(5000, dtype=np.int64)})
    out = range_sort(
        rd.from_pandas(df).repartition(8), "k", num_partitions=4
    ).to_pandas()
    k = out["k"].to_numpy()
    n_null = int(pd.isna(k).sum())
    assert n_null == 100
    assert pd.isna(k[-n_null:]).all()
    body = k[: len(k) - n_null]
    assert all(body[i] <= body[i + 1] for i in range(len(body) - 1))

    ints = pd.array(
        [int(v) if v % 7 else None for v in rng.randint(1, 10000, 4000)],
        dtype="Int64",
    )
    df2 = pd.DataFrame({"k": ints, "x": np.arange(4000, dtype=np.int64)})
    out2 = range_sort(
        rd.from_pandas(df2).repartition(4), "k", num_partitions=4
    ).to_pandas()
    k2 = out2["k"].to_numpy()
    nn2 = ~pd.isna(k2)
    body2 = k2[nn2]
    # nulls last + ordered body, and values stayed integral
    assert pd.isna(k2[len(body2):]).all()
    assert all(body2[i] <= body2[i + 1] for i in range(len(body2) - 1))


def test_connected_components_long_chain_distributed(ray_session, monkeypatch):
    """A pure chain of diameter 2000 (>> max_rounds) converges through
    the distributed path only because of pointer jumping (label[label]
    from round 3 on) — plain propagation would need diameter rounds."""
    import ray.data as rd

    from pynomaly_ray.functions.graph import connected_components

    monkeypatch.setenv("PNR_LOCAL_CC_EDGES", "0")  # force distributed
    n = 2000
    edges = pd.DataFrame(
        {
            "a": np.arange(n - 1, dtype=np.int64),
            "b": np.arange(1, n, dtype=np.int64),
        }
    )
    out = connected_components(rd.from_pandas(edges)).to_pandas()
    assert len(out) == n
    assert (out["lbl"] == 0).all()
