"""Wave-17 tests: distributed PCA exactness, triangle-count structure,
and the range_sort schemaless-empty-block hardening."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_pca_project_matches_driver_pca(ray_session):
    """Distributed PCA == single-machine numpy PCA, exactly: the
    engine's sufficient statistics are integer-exact (e6 sums / e12
    Gram), so the covariance — and hence eigh, sign canonicalization,
    and every projected coordinate — is bit-deterministic regardless
    of block layout."""
    import pyarrow.parquet as papq

    from pynomaly_ray.pipelines.queries_wave17 import q_pca_project

    got = q_pca_project(SF)
    tbl = papq.read_table(
        SF + "/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    x = np.stack(tbl["embedding"].to_pandas().to_numpy()).astype(np.float64)
    vid = tbl["vec_id"].to_numpy()

    # reference: the same exact-integer statistics path, driver-side
    e6 = np.floor(x * 1_000_000.0 + 0.5)
    n = e6.shape[0]
    s = e6.sum(axis=0)
    g = e6.T @ e6
    mu = s / n / 1e6
    cov = g / 1e12 / n - np.outer(mu, mu)
    vals, vecs = np.linalg.eigh(cov)
    comp = vecs[:, ::-1][:, :2]
    for j in range(2):
        k = int(np.argmax(np.abs(comp[:, j])))
        if comp[k, j] < 0:
            comp[:, j] = -comp[:, j]
    proj = (x - mu) @ comp
    pe6 = np.floor(proj * 1_000_000.0 + 0.5).astype(np.int64)
    want = (
        pd.DataFrame({"vec_id": vid, "pc1_e6": pe6[:, 0], "pc2_e6": pe6[:, 1]})
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    got = got.sort_values("vec_id").reset_index(drop=True)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(
        got[["vec_id", "pc1_e6", "pc2_e6"]].astype(np.int64), want
    )
    # the top component explains at least as much variance as the 2nd
    assert got["pc1_e6"].var() >= got["pc2_e6"].var()


def test_pca_project_batch_invariance(ray_session, tmp_path, monkeypatch):
    """Same vectors split across many tiny files -> identical output
    (the integer sufficient statistics make the reduction associative)."""
    import os

    import pyarrow.parquet as papq

    from pynomaly_ray.pipelines import queries_wave17
    from pynomaly_ray.sources.parquet import read_parquet_clean

    src = papq.read_table(SF + "/embeddings.parquet")
    d = tmp_path / "emb"
    os.makedirs(d)
    step = max(1, src.num_rows // 7)
    for i in range(0, src.num_rows, step):
        papq.write_table(
            src.slice(i, step), str(d / f"part-{i:05d}.parquet")
        )

    a = queries_wave17.q_pca_project(SF).reset_index(drop=True)

    def sharded_pq(sf_dir, table, columns=None, filter=None):
        assert table == "embeddings"
        return read_parquet_clean(
            str(d), columns=columns, override_num_blocks=7
        )

    monkeypatch.setattr(queries_wave17, "_pq", sharded_pq)
    b = queries_wave17.q_pca_project("ignored").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_triangle_count_on_known_graph(ray_session, tmp_path):
    """Hand-checkable graph: K4 plus a pendant vertex has exactly 4
    triangles, each counted at its minimum vertex."""
    import os

    import pyarrow.parquet as papq

    import ray.data as rd

    from pynomaly_ray.functions.exchange import hash_aggregate, hash_join

    # build edges directly (skip the knuth32 derivation) and run the
    # same wedge->close pipeline the query uses
    edges_df = pd.DataFrame(
        {
            "u": [0, 0, 0, 1, 1, 2, 3],
            "v": [1, 2, 3, 2, 3, 3, 4],
        }
    )
    edges = rd.from_pandas(edges_df).materialize()

    def rename_w(t: pa.Table) -> pa.Table:
        return pa.table({"u": t["u"], "w": t["v"]})

    def wedge_merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["v"] < df["w"]]
        return pd.DataFrame(
            {
                "apex": df["u"].to_numpy(np.int64),
                "v": df["v"].to_numpy(np.int64),
                "w": df["w"].to_numpy(np.int64),
            }
        )

    wedges = hash_join(
        edges,
        edges.map_batches(rename_w, batch_format="pyarrow"),
        ["u"],
        merge_fn=wedge_merge,
    )

    def close_edges(t: pa.Table) -> pa.Table:
        return pa.table({"v": t["u"], "w": t["v"]})

    tri = hash_join(
        wedges,
        edges.map_batches(close_edges, batch_format="pyarrow"),
        ["v", "w"],
    ).to_pandas()
    per_apex = tri.groupby("apex").size()
    # K4 on {0,1,2,3}: triangles 012,013,023 at apex 0; 123 at apex 1
    assert per_apex.to_dict() == {0: 3, 1: 1}


def test_range_sort_tolerates_schemaless_empty_block(ray_session):
    """A fully-pruned read can emit a 0-row block with NO schema; the
    sampler and router must treat it as empty, not KeyError (the
    round-5 full-suite flake)."""
    import ray
    import ray.data as rd

    from pynomaly_ray.functions.exchange import range_sort

    typed = pa.table({"k": pa.array([5, 3, 9, 1], pa.int64())})
    bare = pa.table({})
    ds = rd.from_arrow_refs([ray.put(typed), ray.put(bare), ray.put(typed)])
    out = range_sort(ds, "k", num_partitions=3).to_pandas()
    assert out["k"].tolist() == [1, 1, 3, 3, 5, 5, 9, 9]
    # an input with no blocks at all sorts to nothing
    assert range_sort(rd.from_items([]), "k").count() == 0


def test_range_sort_missing_key_on_nonempty_block_raises(ray_session):
    import ray
    import ray.data as rd

    from pynomaly_ray.functions.exchange import range_sort

    typed = pa.table({"k": pa.array([5, 3], pa.int64())})
    wrong = pa.table({"other": pa.array([1], pa.int64())})
    ds = rd.from_arrow_refs([ray.put(typed), ray.put(wrong)])
    with pytest.raises(Exception, match="missing|does not exist|k"):
        range_sort(ds, "k", num_partitions=2).materialize()


def test_anti_membership_fully_pruned_right(ray_session):
    """A right side whose every block is 0-row and schemaless (fully
    pruned pushdown read) excludes nothing; null left keys still drop."""
    import ray
    import ray.data as rd

    from pynomaly_ray.functions.exchange import anti_membership

    left = rd.from_arrow(
        pa.table({"k": pa.array([1, None, 3], pa.int64())})
    )
    bare = rd.from_arrow_refs([ray.put(pa.table({}))])
    out = anti_membership(left, bare, "k").to_pandas()
    assert out["k"].tolist() == [1, 3]


def test_pagerank_invariants(ray_session):
    """Integer PageRank on sf0.001: ranks positive, node set equals the
    derived graph's vertices, and a high-in-degree node outranks the
    teleport floor."""
    from pynomaly_ray.pipelines.queries_wave18 import (
        _PR_SCALE,
        q_pagerank,
    )

    out = q_pagerank(SF)
    assert len(out) > 0
    assert (out["rank_e12"] > 0).all()
    # total mass is bounded by the scale (floor division only loses)
    assert out["rank_e12"].sum() <= _PR_SCALE + len(out)
    # ranks differentiate (not all equal to the teleport base)
    assert out["rank_e12"].nunique() > 1


def _driver_kcore(edges_df: pd.DataFrame, k: int) -> pd.DataFrame:
    """Exact reference peeling on the driver for parity checks."""
    e = edges_df[["u", "v"]].drop_duplicates().to_numpy(np.int64)
    while len(e):
        nodes, cnt = np.unique(e.ravel(), return_counts=True)
        low = set(nodes[cnt < k].tolist())
        if not low:
            break
        keep = np.array(
            [u not in low and v not in low for u, v in e], dtype=bool
        )
        e = e[keep]
    if not len(e):
        return pd.DataFrame(
            {"node": pd.Series(dtype=np.int64),
             "core_deg": pd.Series(dtype=np.int64)}
        )
    nodes, cnt = np.unique(e.ravel(), return_counts=True)
    return pd.DataFrame(
        {"node": nodes.astype(np.int64), "core_deg": cnt.astype(np.int64)}
    )


def test_kcore_matches_driver_peeling(ray_session):
    """Distributed peel == exact driver peel on the sf0.001 derived
    graph at several k, including a k that dissolves the graph."""
    import ray

    from pynomaly_ray.functions.exchange import hash_aggregate
    from pynomaly_ray.pipelines.queries_wave19 import (
        derived_edges,
        kcore_edges,
    )

    edges = derived_edges(SF)
    edf = pa.concat_tables(
        ray.get(edges.to_arrow_refs()), promote_options="permissive"
    ).to_pandas()
    for k in (3, 16, 23, 40):
        core = kcore_edges(edges, k)

        def deg_partial(t: pa.Table) -> pa.Table:
            uu = t["u"].to_numpy(zero_copy_only=False)
            vv = t["v"].to_numpy(zero_copy_only=False)
            nodes, cnt = np.unique(
                np.concatenate([uu, vv]), return_counts=True
            )
            return pa.table(
                {
                    "node": pa.array(nodes),
                    "core_deg": pa.array(cnt.astype(np.int64)),
                }
            )

        if core.count() == 0:
            got = pd.DataFrame(
                {"node": pd.Series(dtype=np.int64),
                 "core_deg": pd.Series(dtype=np.int64)}
            )
        else:
            got = (
                hash_aggregate(
                    core.map_batches(deg_partial, batch_format="pyarrow"),
                    ["node"],
                    lambda df: df.groupby("node", sort=False)["core_deg"]
                    .sum()
                    .reset_index(),
                )
                .to_pandas()
                .sort_values("node")
                .reset_index(drop=True)
            )
        want = _driver_kcore(edf, k).sort_values("node").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype(np.int64), want.astype(np.int64), check_dtype=False
        ), f"k={k}"


def test_point_lookup_blooms_prune_and_serve(ray_session, tmp_path):
    """Sparse-keyed layout: blooms prune every in-range-absent probe to
    zero files; present probes return exactly their rows; a stale
    sidecar (after append) degrades to zone-only, never wrong."""
    import ray.data as rd

    from pynomaly_ray.sources.sorted_layout import (
        add_blooms,
        append_sorted,
        point_lookup,
        point_plan,
        write_sorted,
    )

    lay = str(tmp_path / "lay")
    df = pd.DataFrame({"key2": np.arange(0, 4000, 2), "val": np.arange(2000)})
    write_sorted(rd.from_pandas(df), "key2", lay, num_partitions=6)
    add_blooms(lay)

    odds = [3, 777, 1999, 3333]
    assert point_plan(lay, odds) == []
    hit = point_lookup(lay, [10, 3000, 777]).to_pandas()
    assert sorted(hit["key2"].tolist()) == [10, 3000]
    assert hit.loc[hit["key2"] == 10, "val"].item() == 5

    # append invalidates the sidecar generation: lookups still exact,
    # planner returns to zone-only (conservative, reads files again)
    append_sorted(
        rd.from_pandas(pd.DataFrame({"key2": [4001], "val": [9999]})), lay
    )
    assert point_plan(lay, odds) != []  # zone-only now (no false skips)
    after = point_lookup(lay, [10, 4001, 777]).to_pandas()
    assert sorted(after["key2"].tolist()) == [10, 4001]

    # re-blooming the appended layout restores full pruning
    add_blooms(lay)
    assert point_plan(lay, odds) == []


def test_point_lookup_string_and_timestamp_keys(ray_session, tmp_path):
    import ray.data as rd

    from pynomaly_ray.sources.sorted_layout import (
        add_blooms,
        point_lookup,
        point_plan,
        write_sorted,
    )

    lay_s = str(tmp_path / "s")
    sdf = pd.DataFrame(
        {"k": [f"doc-{i:04d}" for i in range(0, 1000, 2)], "v": range(500)}
    )
    write_sorted(rd.from_pandas(sdf), "k", lay_s, num_partitions=4)
    add_blooms(lay_s)
    assert point_plan(lay_s, ["doc-0005", "doc-0777"]) == []
    got = point_lookup(lay_s, ["doc-0004", "doc-0999"]).to_pandas()
    assert got["k"].tolist() == ["doc-0004"]

    lay_t = str(tmp_path / "t")
    ts = pd.date_range("2024-01-01", periods=500, freq="2h")
    tdf = pd.DataFrame({"k": ts, "v": range(500)})
    write_sorted(rd.from_pandas(tdf), "k", lay_t, num_partitions=4)
    add_blooms(lay_t)
    absent = [pd.Timestamp("2024-01-01 01:00")]
    present = [pd.Timestamp("2024-01-01 02:00")]
    assert point_plan(lay_t, absent) == []
    got = point_lookup(lay_t, present + absent).to_pandas()
    assert len(got) == 1 and got["v"].item() == 1


def test_ewma_recurrence_hand_checked(ray_session, monkeypatch):
    """Single user, known values: y1=100; y2=(15*200+85*100)//100=115;
    y3=(15*50+85*115)//100=105 — and the step-vectorized bucket reducer
    reproduces the scalar recurrence on interleaved multi-user input."""
    import ray.data as rd

    from pynomaly_ray.pipelines import queries_wave20

    df = pd.DataFrame(
        {
            "user_id": [1, 2, 1, 2, 1],
            "ts": pd.to_datetime(
                ["2024-01-01", "2024-01-01", "2024-01-02",
                 "2024-01-03", "2024-01-03"]
            ),
            "event_id": [10, 11, 12, 13, 14],
            "value": [1.0, 7.0, 2.0, 9.0, 0.5],
        }
    )

    def fake_pq(sf_dir, table, columns=None, filter=None):
        assert table == "events"
        return rd.from_pandas(df[columns] if columns else df)

    monkeypatch.setattr(queries_wave20, "_pq", fake_pq)
    out = queries_wave20.q_ewma_user_values("ignored")
    got = dict(zip(out["user_id"], out["ewma_cents"]))
    # user 1: 100 -> (15*200+85*100)//100=115 -> (15*50+85*115)//100=105
    # user 2: 700 -> (15*900+85*700)//100=730
    assert got == {1: 105, 2: 730}
    assert dict(zip(out["user_id"], out["n_events"])) == {1: 3, 2: 2}


def test_longest_streak_hand_checked(ray_session, monkeypatch):
    import ray.data as rd

    from pynomaly_ray.pipelines import queries_wave20

    days = (
        ["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-07"]  # u1: 3
        + ["2024-02-01", "2024-02-03", "2024-02-04"]              # u2: 2
    )
    df = pd.DataFrame(
        {
            "user_id": [1] * 4 + [2] * 3,
            "ts": pd.to_datetime(days) + pd.Timedelta(hours=5),
        }
    )

    def fake_pq(sf_dir, table, columns=None, filter=None):
        return rd.from_pandas(df[columns] if columns else df)

    monkeypatch.setattr(queries_wave20, "_pq", fake_pq)
    out = queries_wave20.q_longest_streak("ignored")
    assert dict(zip(out["user_id"], out["longest_streak"])) == {1: 3, 2: 2}


def test_zone_scan_ordered_matches_unordered_rows(ray_session, tmp_path):
    """ordered=True returns the same rows as the streaming scan, with
    the block stream pinned to file (= key) order; bounded ranges and
    column pruning behave identically on both paths."""
    import ray.data as rd

    from pynomaly_ray.sources.sorted_layout import (
        write_sorted,
        zone_pruned_scan,
    )

    rng = np.random.default_rng(11)
    ids = rng.permutation(3000).astype(np.int64)
    df = pd.DataFrame({"k": ids, "v": ids * 3})
    lay = str(tmp_path / "lay")
    write_sorted(rd.from_pandas(df), "k", lay, num_partitions=6)

    a = zone_pruned_scan(lay, 100, 900).to_pandas()
    b = zone_pruned_scan(lay, 100, 900, ordered=True).to_pandas()
    assert sorted(a["k"]) == sorted(b["k"]) == list(range(100, 901))
    assert (np.diff(b["k"].to_numpy()) > 0).all()  # ordered end-to-end

    c = zone_pruned_scan(lay, columns=["v"], ordered=True).to_pandas()
    assert list(c.columns) == ["v"]
    assert (c["v"].to_numpy() == np.sort(ids) * 3).all()


def test_bfs_hops_path_graph(ray_session, monkeypatch):
    """Path graph 0-1-...-9 plus the isolated edge (100,101): seeds are
    nodes % 50 == 0 -> {0, 100, 150?}; hop caps at 4, so nodes 5..9
    stay unreached; 101 is reached from seed 100 in one hop."""
    import ray.data as rd

    from pynomaly_ray.pipelines import queries_wave22

    edges = pd.DataFrame(
        {
            "u": list(range(9)) + [100, 150],
            "v": list(range(1, 10)) + [101, 151],
        }
    ).astype(np.int64)

    monkeypatch.setattr(
        queries_wave22,
        "derived_edges",
        lambda sf: rd.from_pandas(edges).materialize(),
    )
    out = queries_wave22.q_bfs_hops("ignored")
    got = dict(zip(out["node"], out["hop"]))
    want = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 100: 0, 101: 1, 150: 0, 151: 1}
    assert got == want


def test_salted_join_spreads_hot_keys(ray_session):
    """The salted fact side genuinely spreads one hot key over many
    (key, salt) sub-keys — and re-salting is deterministic per row."""
    from pynomaly_ray.functions.hashing import salt_of

    ids = np.arange(10_000, dtype=np.int64) * 10 + 7  # ONE hot key mod 10
    s1 = salt_of(ids, 16)
    s2 = salt_of(ids, 16)
    assert (s1 == s2).all()  # retry-deterministic
    # all 16 sub-buckets used, reasonably balanced (within 3x of even)
    counts = np.bincount(s1, minlength=16)
    assert (counts > 0).all()
    assert counts.max() < 3 * counts.mean()


def test_checkpointed_pagerank_resume_bit_identical(ray_session, tmp_path):
    """Run 3 checkpointed rounds; delete the round-3 artifacts to
    simulate pre-emption after round 2; resume — the final ranks must
    be bit-identical to the uninterrupted run, and rounds 0-2 must not
    recompute (their files keep their mtimes)."""
    import os

    from pynomaly_ray.state.iteration import (
        committed_rounds,
        pagerank_rounds_checkpointed,
    )

    sd_full = str(tmp_path / "full")
    full = (
        pagerank_rounds_checkpointed(SF, sd_full, iters=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert committed_rounds(sd_full) == [0, 1, 2, 3]

    # simulate the crash: rerun into a COPY whose round 3 never landed
    sd_crash = str(tmp_path / "crash")
    import shutil

    shutil.copytree(sd_full, sd_crash)
    os.remove(os.path.join(sd_crash, ".commit-00003"))
    shutil.rmtree(os.path.join(sd_crash, "round-00003"))
    mtimes_before = {
        f: os.path.getmtime(os.path.join(sd_crash, f))
        for f in os.listdir(sd_crash)
        if f.startswith("round-")
    }
    resumed = (
        pagerank_rounds_checkpointed(SF, sd_crash, iters=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(full, resumed)
    for f, t0 in mtimes_before.items():
        assert os.path.getmtime(os.path.join(sd_crash, f)) == t0, f

    # and it matches the un-checkpointed oracle-checked query
    from pynomaly_ray.pipelines.queries_wave18 import q_pagerank

    want = q_pagerank(SF).rename(columns={"rank_e12": "r"})
    got = full.sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["node", "r"]].astype(np.int64),
        want[["node", "r"]].astype(np.int64),
    )


def test_save_round_refuses_uncommitted_load(ray_session, tmp_path):
    import ray.data as rd

    from pynomaly_ray.state.iteration import load_round, save_round

    sd = str(tmp_path / "sd")
    import os

    os.makedirs(sd)
    save_round(sd, 0, rd.from_pandas(pd.DataFrame({"node": [1], "r": [2]})))
    with pytest.raises(FileNotFoundError, match="commit marker"):
        load_round(sd, 1)
    assert load_round(sd, 0).to_pandas()["r"].tolist() == [2]
