"""Round-5 regressions: anti_membership global-distinct switch,
minhash state compaction, CLI pair-dir protection, typed empty
components."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.conftest import pinned_fanout

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from the fence and the birds sing in the morning light of summer"
)


# ---------------------------------------------------------------------------
# anti_membership: broadcast-vs-partitioned switch on GLOBAL distinct keys
# ---------------------------------------------------------------------------
def test_anti_membership_cross_block_duplicates_pick_broadcast(
    ray_session, monkeypatch
):
    """A right side whose duplicates span blocks overshoots the cap in
    per-block-deduped rows but not in global distinct keys — the HLL
    estimate must still route it to the cheap broadcast path."""
    import ray.data as rd

    from pynomaly_ray.functions import exchange

    keys = [f"k{i:03d}" for i in range(30)]
    # 4 blocks, each holding ALL 30 keys: per-block-deduped rows = 120
    blocks = [pd.DataFrame({"doc_id": keys}) for _ in range(4)]
    right = rd.from_pandas(blocks)
    left = rd.from_pandas(
        pd.DataFrame({"doc_id": keys[:10] + ["only_left_1", "only_left_2"]})
    )

    monkeypatch.setenv("PNR_BROADCAST_ANTI_CAP", "50")

    def _boom(*a, **k):  # pragma: no cover - failure path
        raise AssertionError("partitioned path taken for a broadcast-sized key set")

    monkeypatch.setattr(exchange, "hash_anti_join", _boom)
    out = exchange.anti_membership(left, right, "doc_id").to_pandas()
    assert sorted(out["doc_id"]) == ["only_left_1", "only_left_2"]


def test_anti_membership_truly_large_distinct_goes_partitioned(
    ray_session, monkeypatch
):
    """Distinct keys genuinely above the cap still take the partitioned
    path (and the two paths stay row-identical)."""
    import ray.data as rd

    from pynomaly_ray.functions import exchange

    keys = [f"k{i:04d}" for i in range(200)]
    right = rd.from_pandas(pd.DataFrame({"doc_id": keys}))
    left = rd.from_pandas(pd.DataFrame({"doc_id": keys[:50] + ["extra"]}))

    monkeypatch.setenv("PNR_BROADCAST_ANTI_CAP", "50")
    called = {}
    orig = exchange.hash_anti_join

    def _spy(*a, **k):
        called["yes"] = True
        return orig(*a, **k)

    monkeypatch.setattr(exchange, "hash_anti_join", _spy)
    out = exchange.anti_membership(left, right, "doc_id").to_pandas()
    assert called.get("yes")
    assert sorted(out["doc_id"]) == ["extra"]


# ---------------------------------------------------------------------------
# minhash incremental state compaction
# ---------------------------------------------------------------------------
def test_minhash_state_compaction_preserves_pairs(ray_session, tmp_path):
    """3 runs -> compact -> 4th run emits exactly the pairs an
    uncompacted 4th run would, bands/ holds one compacted dir, and
    params.json / pins survive."""
    import shutil

    import ray.data as rd

    from pynomaly_ray.stages.dedup import (
        commit_run_state,
        compact_minhash_state,
        minhash_lsh_duplicates_incremental,
    )

    corpora = [
        pd.DataFrame({"doc_id": ["a1", "a2"], "text": [BASE, "unrelated stuff " * 8]}),
    ]
    corpora.append(
        pd.concat(
            [corpora[0], pd.DataFrame({"doc_id": ["b1"], "text": [BASE.replace("summer", "winter")]})],
            ignore_index=True,
        )
    )
    corpora.append(
        pd.concat(
            [corpora[1], pd.DataFrame({"doc_id": ["c1"], "text": ["third batch words " * 8]})],
            ignore_index=True,
        )
    )
    final = pd.concat(
        [corpora[2], pd.DataFrame({"doc_id": ["d1"], "text": [BASE]})],
        ignore_index=True,
    )

    kw = dict(n_perm=64, n_bands=16, jaccard_threshold=0.6)
    state = str(tmp_path / "state")
    for i, c in enumerate(corpora, 1):
        minhash_lsh_duplicates_incremental(
            rd.from_pandas(c), state, f"r{i}", **kw
        )
        commit_run_state(state, f"r{i}")

    # control: run4 over the UNCOMPACTED state (on a copy)
    ctrl = str(tmp_path / "ctrl")
    shutil.copytree(state, ctrl)
    p4_ctrl = minhash_lsh_duplicates_incremental(
        rd.from_pandas(final), ctrl, "r4", **kw
    )
    commit_run_state(ctrl, "r4")

    summary = compact_minhash_state(state)
    assert summary["compacted_runs"] == 3
    root = os.path.join(state, "bands")
    dirs = [d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))]
    assert dirs == [summary["target"]]
    assert os.path.exists(os.path.join(root, ".commit-" + summary["target"]))
    assert os.path.exists(os.path.join(root, "params.json"))
    # compacted band table is the union of the three runs' docs
    bands = pq.read_table(os.path.join(root, summary["target"])).to_pandas()
    assert set(bands["doc_id"]) == {"a1", "a2", "b1", "c1"}

    p4 = minhash_lsh_duplicates_incremental(
        rd.from_pandas(final), state, "r4", **kw
    )
    commit_run_state(state, "r4")
    assert set(zip(p4.doc_a, p4.doc_b)) == set(zip(p4_ctrl.doc_a, p4_ctrl.doc_b))
    assert any("d1" in p for p in zip(p4.doc_a, p4.doc_b))

    # idempotent: a second compaction folds {compact-0001, r4} again
    summary2 = compact_minhash_state(state)
    assert summary2["compacted_runs"] == 2
    assert summary2["target"] == "compact-0002"

    # no-op on a single remaining dir
    assert compact_minhash_state(state)["compacted_runs"] == 0


def test_minhash_state_compaction_ignores_uncommitted(ray_session, tmp_path):
    """An uncommitted (crashed) run's band dir is neither merged nor
    deleted by compaction."""
    import ray.data as rd

    from pynomaly_ray.stages.dedup import (
        commit_run_state,
        compact_minhash_state,
        minhash_lsh_duplicates_incremental,
    )

    docs1 = pd.DataFrame({"doc_id": ["x1"], "text": ["alpha words " * 8]})
    docs2 = pd.DataFrame(
        {"doc_id": ["x1", "x2"], "text": ["alpha words " * 8, "beta words " * 8]}
    )
    docs3 = pd.concat(
        [docs2, pd.DataFrame({"doc_id": ["x3"], "text": ["gamma words " * 8]})],
        ignore_index=True,
    )
    state = str(tmp_path / "state")
    minhash_lsh_duplicates_incremental(rd.from_pandas(docs1), state, "r1")
    commit_run_state(state, "r1")
    minhash_lsh_duplicates_incremental(rd.from_pandas(docs2), state, "r2")
    commit_run_state(state, "r2")
    minhash_lsh_duplicates_incremental(rd.from_pandas(docs3), state, "crashed")
    summary = compact_minhash_state(state)
    assert summary["compacted_runs"] == 2
    root = os.path.join(state, "bands")
    assert os.path.isdir(os.path.join(root, "crashed"))
    assert not os.path.exists(os.path.join(root, ".commit-crashed"))


# ---------------------------------------------------------------------------
# CLI pair-dir protection (ADVICE r4)
# ---------------------------------------------------------------------------
def _write_corpus(tmp_path, name="c.parquet"):
    docs = pd.DataFrame(
        {"doc_id": ["a", "b", "u"], "text": [BASE, BASE, "unique words " * 8]}
    )
    path = str(tmp_path / name)
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False), path)
    return path


def test_cli_nonincremental_refuses_incremental_out(ray_session, tmp_path):
    """A non-incremental minhash run pointed at an --out holding
    incremental per-run pair dirs refuses (the rmtree would silently
    lose pairs the band state never re-emits); --force overrides."""
    from pynomaly_ray.cli import main

    corpus = _write_corpus(tmp_path)
    out = str(tmp_path / "out")
    state = str(tmp_path / "state")
    assert main(
        ["dedup", "--input", corpus, "--out", out, "--method", "minhash",
         "--state-dir", state, "--run-id", "r1"]
    ) == 0
    assert os.path.isdir(os.path.join(out, "pairs", "r1"))

    with pytest.raises(SystemExit, match="incremental per-run pair"):
        main(["dedup", "--input", corpus, "--out", out, "--method", "minhash"])
    # accumulated pairs untouched by the refused run
    assert os.path.isdir(os.path.join(out, "pairs", "r1"))

    assert main(
        ["dedup", "--input", corpus, "--out", out, "--method", "minhash",
         "--force"]
    ) == 0
    assert not os.path.isdir(os.path.join(out, "pairs", "r1"))


def test_cli_keep_list_rejects_flat_pair_files(ray_session, tmp_path):
    """Incremental --keep-list errors when flat parquet files (a
    one-shot run's leftovers) sit directly under pairs/, and ignores
    pair dirs of uncommitted runs."""
    from pynomaly_ray.cli import main

    corpus = _write_corpus(tmp_path)
    out = str(tmp_path / "out")
    state = str(tmp_path / "state")
    args = ["dedup", "--input", corpus, "--out", out, "--method", "minhash",
            "--state-dir", state]
    assert main(args + ["--run-id", "r1"]) == 0

    # leftover flat file from a (hypothetical) one-shot run
    stray = os.path.join(out, "pairs", "stray.parquet")
    pq.write_table(
        pa.table({"doc_a": ["z1"], "doc_b": ["z2"], "jaccard": [1.0]}), stray
    )
    with pytest.raises(SystemExit, match="flat parquet"):
        main(args + ["--run-id", "r2", "--keep-list"])
    os.remove(stray)

    # an uncommitted run's pair dir is excluded from the keep-list union
    fake = os.path.join(out, "pairs", "ghost")
    os.makedirs(fake, exist_ok=True)
    pq.write_table(
        pa.table({"doc_a": ["u"], "doc_b": ["zz"], "jaccard": [1.0]}),
        os.path.join(fake, "part.parquet"),
    )
    assert main(args + ["--run-id", "r2", "--keep-list"]) == 0
    drop = pq.read_table(os.path.join(out, "drop")).to_pandas()
    assert "zz" not in set(drop["doc_id"]) | set(drop["kept_doc_id"])
    assert set(drop["doc_id"]) == {"b"}


# ---------------------------------------------------------------------------
# connected_components: typed empty result
# ---------------------------------------------------------------------------
def test_connected_components_empty_typed_from_input(ray_session):
    """Zero-edge inputs yield an empty labels table typed like the INPUT
    edge columns, so an int64 caller can union/write without a schema
    mismatch."""
    import ray.data as rd

    from pynomaly_ray.functions.graph import connected_components

    ints = pd.DataFrame({"a": pd.array([], dtype="int64"),
                         "b": pd.array([], dtype="int64")})
    out = connected_components(rd.from_pandas(ints))
    schema = out.schema()
    assert schema.names == ["node", "lbl"]
    assert pa.types.is_integer(schema.types[0])
    # all-null int64 edges (dropped at the cleaning stage) keep the
    # input's Arrow dtype too
    nulls = rd.from_arrow(
        pa.table({"a": pa.array([None], pa.int64()),
                  "b": pa.array([None], pa.int64())})
    )
    out2 = connected_components(nulls)
    assert pa.types.is_integer(out2.schema().types[0])
    # typed empties union cleanly with real int64 labels
    real = rd.from_arrow(
        pa.table({"node": pa.array([1], pa.int64()),
                  "lbl": pa.array([1], pa.int64())})
    )
    assert out.union(real).count() == 1


# ---------------------------------------------------------------------------
# bench.py per-query regression gate (verdict #10)
# ---------------------------------------------------------------------------
def test_bench_regression_gate(tmp_path, monkeypatch):
    """A deliberately slowed query is caught by the gate against its
    recorded best wall; new queries without a best never gate; recording
    keeps the minimum."""
    import json
    import sys

    sys.path.insert(0, "/root/repo")
    import bench

    best_file = tmp_path / "best.json"
    monkeypatch.setattr(bench, "_BEST_FILE", str(best_file))

    bench.record_best("sf0.1", {"q1": 0.5, "q2": 1.0, "q3": None})
    bench.record_best("sf0.1", {"q1": 0.8, "q2": 0.4})  # q1 keeps 0.5
    best = bench.load_best("sf0.1")
    assert best == {"q1": 0.5, "q2": 0.4}

    # q1 deliberately slowed past 3x its best -> flagged; q2 within
    # noise; brand-new q_new never gates; a crashed (None) wall skips
    timings = {"q1": 1.6, "q2": 1.1, "q_new": 99.0, "q4": None}
    assert bench.find_regressions(timings, best) == ["q1"]
    assert bench.find_regressions({"q1": 1.4}, best) == []
    # sub-second swings are host noise, not regressions: 4x a tiny best
    # without 1 s of absolute excess must NOT gate
    bench.record_best("sf0.1", {"tiny": 0.1})
    best2 = bench.load_best("sf0.1")
    assert bench.find_regressions({"tiny": 0.5}, best2) == []
    assert bench.find_regressions({"tiny": 1.2}, best2) == ["tiny"]
    assert bench.load_best("sf_other") == {}


# ---------------------------------------------------------------------------
# range_join: distributed equi-key interval join
# ---------------------------------------------------------------------------
def _range_join_reference(ldf, rdf, by, on, lo, hi):
    cand = ldf.merge(rdf, on=by, how="inner", suffixes=("", "_right"))
    return (
        cand[(cand[on] >= cand[lo]) & (cand[on] < cand[hi])]
        .sort_values(list(cand.columns), kind="mergesort")
        .reset_index(drop=True)
    )


def test_range_join_matches_pandas_reference(ray_session):
    """Overlapping windows, half-open boundaries, multi-interval hits and
    no-hit points, through the REAL multi-bucket exchange (p=4 == p=1)."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import range_join

    rng = np.random.RandomState(7)
    n_l, n_r = 400, 120
    ldf = pd.DataFrame(
        {
            "k": rng.randint(0, 20, n_l),
            "t": rng.randint(0, 1000, n_l).astype(np.int64),
            "lid": np.arange(n_l, dtype=np.int64),
        }
    )
    lo = rng.randint(0, 900, n_r).astype(np.int64)
    rdf = pd.DataFrame(
        {
            "k": rng.randint(0, 20, n_r),
            "lo": lo,
            "hi": lo + rng.randint(1, 300, n_r),  # overlapping windows
            "rid": np.arange(n_r, dtype=np.int64),
        }
    )
    # plant exact boundary rows: t == lo (must match), t == hi (must not)
    ldf.loc[0, ["k", "t"]] = [rdf.loc[0, "k"], rdf.loc[0, "lo"]]
    ldf.loc[1, ["k", "t"]] = [rdf.loc[1, "k"], rdf.loc[1, "hi"]]

    expect = _range_join_reference(ldf, rdf, "k", "t", "lo", "hi")
    for p in (1, 4):
        with pinned_fanout(p):
            got = range_join(
                rd.from_pandas(ldf),
                rd.from_pandas(rdf),
                by="k",
                left_on="t",
                right_lo="lo",
                right_hi="hi",
            ).to_pandas()
        got = got[expect.columns].sort_values(
            list(expect.columns), kind="mergesort"
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, expect)
    # boundary semantics really exercised
    assert (expect[["k", "t"]].values == ldf.loc[0, ["k", "t"]].values).all(
        axis=1
    ).any()


def test_range_join_merge_fn_and_empty_buckets(ray_session):
    """merge_fn collapses the pair blowup inside the bucket; a key-set
    with zero matches yields a typed empty result (schema from merge_fn
    output), not a crash."""
    import ray.data as rd

    from pynomaly_ray.functions.exchange import range_join

    ldf = pd.DataFrame({"k": [1, 1, 2], "t": [5, 6, 100], "v": [10, 20, 30]})
    rdf = pd.DataFrame({"k": [1, 1, 2], "lo": [0, 5, 0], "hi": [10, 7, 50]})

    def agg(df):
        if df.empty:
            return pd.DataFrame(
                {"k": pd.Series(dtype=np.int64), "n": pd.Series(dtype=np.int64)}
            )
        g = df.groupby("k", sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    with pinned_fanout(3):
        out = range_join(
            rd.from_pandas(ldf),
            rd.from_pandas(rdf),
            by="k",
            left_on="t",
            right_lo="lo",
            right_hi="hi",
            merge_fn=agg,
        )
    out = (
        out.to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    # k=1: t=5 hits [0,10) and [5,7); t=6 hits both too -> 4 pairs.
    # k=2: t=100 outside [0,50) -> no row.
    pd.testing.assert_frame_equal(out, pd.DataFrame({"k": [1], "n": [4]}).astype({"k": np.int64, "n": np.int64}))


def test_knn_join_tie_break_on_duplicate_embeddings(ray_session, tmp_path):
    """Exactly duplicated embeddings force score ties: the engine's local
    e6-grid pruning + exchange merge must pick the LOWEST vec_ids, the
    same total order the SQL twin's ROW_NUMBER uses."""
    from pynomaly_ray.pipelines.queries import q_knn_join

    rng = np.random.RandomState(3)
    base = rng.randn(40, 8)
    # vec_ids 20..27 duplicate vec 0's embedding exactly -> cosine 1.0 ties
    base[20:28] = base[0]
    emb = pa.table(
        {
            "vec_id": pa.array(np.arange(40, dtype=np.int64)),
            "embedding": pa.array(list(base), pa.list_(pa.float64())),
        }
    )
    pq.write_table(emb, os.path.join(tmp_path, "embeddings.parquet"))
    out = q_knn_join(str(tmp_path))
    q0 = out[out.query_id == 0]
    # ties at score 1.0: vec 0 and dup ids 20..27; top-5 = lowest ids
    assert list(q0.vec_id) == [0, 20, 21, 22, 23]
    assert (q0.score_e6 == 1_000_000).all()


def test_simhash_profile_popcount_matches_duckdb(ray_session):
    """q_simhash_profile's numpy popcount and distributed distinct-count
    must agree with the DuckDB twin (bit_count + COUNT DISTINCT) over
    the same materialized surface."""
    import duckdb

    from pynomaly_ray.pipelines.engine_queries import (
        SQL_SIMHASH_PROFILE,
        q_simhash_profile,
    )

    got = q_simhash_profile("/root/testdata/sf0.001")
    sql = duckdb.connect().execute(SQL_SIMHASH_PROFILE).df()
    got = got.sort_values("n_bits").reset_index(drop=True)
    sql = sql.sort_values("n_bits").reset_index(drop=True)
    assert got["n_bits"].tolist() == sql["n_bits"].tolist()
    assert got["n_docs"].tolist() == sql["n_docs"].tolist()
    assert got["n_distinct_fp"].tolist() == sql["n_distinct_fp"].tolist()
    assert got["n_docs"].sum() == 500  # every doc profiled exactly once


def test_keep_list_survives_state_compaction(ray_session, tmp_path):
    """Compaction keeps the per-run commit markers (only the band DIRS
    fold away), so a post-compaction --keep-list still trusts and unions
    pre-compaction runs' pair dirs.  Regression: marker deletion made
    the keep-list silently drop every earlier run's duplicates."""
    from pynomaly_ray.cli import main
    from pynomaly_ray.stages.dedup import compact_minhash_state

    # run 1 corpus has the a/b duplicate; run 2 only adds unique docs,
    # so the a-b pair exists ONLY in run 1's pair dir
    docs1 = pd.DataFrame(
        {"doc_id": ["a", "b", "u"], "text": [BASE, BASE, "unique words " * 8]}
    )
    docs2 = pd.concat(
        [docs1, pd.DataFrame({"doc_id": ["v"], "text": ["other words " * 9]})],
        ignore_index=True,
    )
    p1 = str(tmp_path / "c1.parquet")
    p2 = str(tmp_path / "c2.parquet")
    pq.write_table(pa.Table.from_pandas(docs1, preserve_index=False), p1)
    pq.write_table(pa.Table.from_pandas(docs2, preserve_index=False), p2)

    out = str(tmp_path / "out")
    state = str(tmp_path / "state")
    base = ["dedup", "--out", out, "--method", "minhash", "--state-dir", state]
    assert main(base + ["--input", p1, "--run-id", "r1"]) == 0
    assert main(base + ["--input", p2, "--run-id", "r2"]) == 0

    compact_minhash_state(state)
    root = os.path.join(state, "bands")
    # markers survive as tombstones; only the band dirs folded
    assert os.path.exists(os.path.join(root, ".commit-r1"))
    assert not os.path.isdir(os.path.join(root, "r1"))

    docs3 = pd.concat(
        [docs2, pd.DataFrame({"doc_id": ["w"], "text": ["final words " * 9]})],
        ignore_index=True,
    )
    p3 = str(tmp_path / "c3.parquet")
    pq.write_table(pa.Table.from_pandas(docs3, preserve_index=False), p3)
    assert main(base + ["--input", p3, "--run-id", "r3", "--keep-list"]) == 0
    drop = pq.read_table(os.path.join(out, "drop")).to_pandas()
    # the a-b duplicate from PRE-compaction run 1 is still in the list
    assert set(drop["doc_id"]) == {"b"}
    assert set(drop["kept_doc_id"]) == {"a"}


def test_bucket_candidate_pairs_nul_variant_doc_ids(ray_session):
    """doc_ids differing only after an embedded NUL byte must survive
    the candidate dedup and the cross-run prior labeling (pandas'
    object hash table would alias them)."""
    from pynomaly_ray.stages.dedup import (
        bucket_candidate_pairs,
        bucket_candidate_pairs_new_only,
    )

    band = pd.DataFrame(
        {
            "band_id": [0, 0, 0],
            "band_hash": [5, 5, 5],
            "doc_id": ["a\x00b", "a\x00c", "a\x00b"],  # dup row + NUL variant
        }
    )
    pairs = bucket_candidate_pairs(band)
    assert set(zip(pairs.doc_a, pairs.doc_b)) == {("a\x00b", "a\x00c")}

    # prior labeling: the NUL-variant NEW doc must not inherit its
    # prior sibling's flag
    band2 = band.drop_duplicates("doc_id", keep="first").assign(
        is_prior=[1, 0]
    )
    out = bucket_candidate_pairs_new_only(band2)
    assert set(zip(out.doc_a, out.doc_b)) == {("a\x00b", "a\x00c")}
    both_prior = band2.assign(is_prior=[1, 1])
    assert len(bucket_candidate_pairs_new_only(both_prior)) == 0


def test_minhash_sql_tokenizer_matches_python_split():
    """The DuckDB char class in SQL_MINHASH_DEDUP must tokenize exactly
    like the engine shingle kernel's str.split() — including every
    non-ASCII whitespace codepoint Python splits on (NBSP, NEL, file/
    group/record/unit separators, ideographic space, ...)."""
    import re

    import duckdb

    from pynomaly_ray.pipelines.engine_queries import SQL_MINHASH_DEDUP

    m = re.search(r"regexp_extract_all\(COALESCE\(text, ''\),\s*'([^']+)'", SQL_MINHASH_DEDUP)
    assert m, "tokenizer regexp not found in SQL_MINHASH_DEDUP"
    cls = m.group(1)
    hostile = [
        "foo\xa0bar\x85baz",          # NBSP + NEL
        "a\x1cb\x1dc\x1ed\x1fe",      # FS GS RS US separators
        "x y z",            # line/paragraph separators
        "wide　space end",   # ideographic + math space
        "plain ascii words here",
        "\t\n mixed \v\f\r ws   thin",
        "",
    ]
    con = duckdb.connect()
    for text in hostile:
        got = con.execute(
            "SELECT regexp_extract_all(?, ?)", [text, cls]
        ).fetchone()[0]
        assert got == text.split(), repr(text)
