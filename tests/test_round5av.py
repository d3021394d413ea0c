"""Wave-73 tests: cross-run incremental exact dedup state machine."""

from __future__ import annotations

import os

import pyarrow as pa


def _docs(ray, rows):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )


def _pairs(df):
    return sorted(zip(df["doc_keep"].tolist(), df["doc_dup"].tolist()))


def test_first_crawl_wins_across_three_runs(ray_session, tmp_path):
    from pynomaly_ray.stages.dedup import (
        commit_run_state,
        exact_duplicates_incremental,
    )

    state = str(tmp_path / "state")
    # run 1: docs 10, 11 (distinct), 12 dup of 10
    p1 = exact_duplicates_incremental(
        _docs(ray_session, [(10, "aaa"), (11, "bbb"), (12, "aaa")]),
        state,
        "run1",
    )
    commit_run_state(state, "run1", table="hashes")
    assert _pairs(p1) == [(10, 12)]
    # run 2 (accumulated corpus): new docs 5 (dup of 10 — SMALLER id,
    # but the keeper stays the first-seen doc 10) and 6 (new content)
    corpus2 = [(10, "aaa"), (11, "bbb"), (12, "aaa"), (5, "aaa"), (6, "ccc")]
    p2 = exact_duplicates_incremental(
        _docs(ray_session, corpus2), state, "run2"
    )
    commit_run_state(state, "run2", table="hashes")
    assert _pairs(p2) == [(10, 5)]
    # run 3: a dup of run-2's new content — keeper is run-2's doc 6
    corpus3 = corpus2 + [(7, "ccc")]
    p3 = exact_duplicates_incremental(_docs(ray_session, corpus3), state, "run3")
    assert _pairs(p3) == [(6, 7)]
    # union drops exactly all-but-first per content
    dropped = {d for p in (p1, p2, p3) for d in p["doc_dup"]}
    assert dropped == {12, 5, 7}


def test_uncommitted_run_does_not_suppress(ray_session, tmp_path):
    from pynomaly_ray.stages.dedup import (
        commit_run_state,
        exact_duplicates_incremental,
    )

    state = str(tmp_path / "state")
    rows = [(1, "x"), (2, "x")]
    # crash before delivery: the caller never commits
    p = exact_duplicates_incremental(
        _docs(ray_session, rows), state, "run1"
    )
    assert _pairs(p) == [(1, 2)]
    assert os.path.isdir(os.path.join(state, "hashes", "run1"))
    # retry of run1 re-hashes everything and re-emits the lost pairs
    p_retry = exact_duplicates_incremental(
        _docs(ray_session, rows), state, "run1"
    )
    commit_run_state(state, "run1", table="hashes")
    assert _pairs(p_retry) == [(1, 2)]
    # now committed: run2 sees the docs as prior and emits nothing new
    p2 = exact_duplicates_incremental(_docs(ray_session, rows), state, "run2")
    assert len(p2) == 0
    assert list(p2.columns) == ["doc_keep", "doc_dup"]


def test_null_doc_ids_excluded(ray_session, tmp_path):
    from pynomaly_ray.stages.dedup import exact_duplicates_incremental

    state = str(tmp_path / "state")
    ds = ray_session.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, None, 2], pa.int64()),
                "text": pa.array(["x", "x", "x"], pa.string()),
            }
        )
    )
    p = exact_duplicates_incremental(ds, state, "run1")
    assert _pairs(p) == [(1, 2)]  # the unkeyed row is ignored


def test_state_is_hashes_only_no_text(ray_session, tmp_path):
    """State stores (doc_id, content_hash) — never the text bytes."""
    import pyarrow.parquet as pq

    from pynomaly_ray.stages.dedup import exact_duplicates_incremental

    state = str(tmp_path / "state")
    exact_duplicates_incremental(
        _docs(ray_session, [(1, "secret text"), (2, "secret text")]),
        state,
        "run1",
    )
    d = os.path.join(state, "hashes", "run1")
    files = [f for f in os.listdir(d) if f.endswith(".parquet")]
    t = pq.read_table(os.path.join(d, files[0]))
    assert sorted(t.schema.names) == ["content_hash", "doc_id"]


def test_decontaminate_exact_planted(ray_session, tmp_path, monkeypatch):
    """Planted contamination: probe spans lifted from picked docs must
    flag every doc carrying them verbatim, counting distinct probes."""
    import pyarrow.parquet as pq

    from pynomaly_ray.pipelines import queries_wave74 as w74

    span_a = "A" * 30  # doc 0's span region
    span_b = "B" * 30  # doc 2's span region
    texts = [
        "x" * 9 + span_a + " tail",          # doc 0: probe source A
        "clean document with no overlap",    # doc 1: clean
        "y" * 9 + span_b + " tail",          # doc 2: probe source B
        "stolen " + span_a[:25] + " middle", # doc 3: contains probe A
        span_a[:25] + " and " + span_b[:25], # doc 4: contains BOTH
    ]
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(list(range(5)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(sf / "documents.parquet"),
    )
    monkeypatch.setattr(w74, "_NPROBES", 2)  # picks doc 0 and doc 2
    out = w74.q_decontaminate_exact(str(sf))
    got = dict(zip(out["doc_id"].tolist(), out["n_hits"].tolist()))
    assert got == {0: 1, 2: 1, 3: 1, 4: 2}


def test_cli_index_build_and_search(ray_session, tmp_path, capsys):
    import json as _json

    from pynomaly_ray.cli import main

    idx = str(tmp_path / "idx")
    rc = main(
        [
            "index", "build",
            "--input", "/root/testdata/sf0.001/embeddings.parquet",
            "--out", idx, "--k", "8", "--iters", "3",
        ]
    )
    assert rc == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["k"] == 8 and rep["rows"] > 0

    outdir = str(tmp_path / "nn")
    rc = main(
        [
            "index", "search", "--path", idx,
            "--query-ids", "0,5",
            "--queries-from", "/root/testdata/sf0.001/embeddings.parquet",
            "--nprobe", "2", "--topk", "3", "--out", outdir,
        ]
    )
    assert rc == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["rows"] == 6  # 2 queries x top-3
    import pyarrow.parquet as pq

    t = pq.read_table(outdir + "/neighbors.parquet")
    assert t.num_rows == 6
    # each query's own vector is its cosine-1.0 top hit
    df = t.to_pandas()
    for qid in (0, 5):
        top = df[df.query_id == qid].sort_values(
            ["score_e6", "vec_id"], ascending=[False, True]
        ).iloc[0]
        assert top["vec_id"] == qid and top["score_e6"] == 1_000_000


def test_cli_index_search_missing_id(ray_session, tmp_path, capsys):
    import json as _json

    from pynomaly_ray.cli import main

    idx = str(tmp_path / "idx")
    main(
        [
            "index", "build",
            "--input", "/root/testdata/sf0.001/embeddings.parquet",
            "--out", idx, "--k", "4",
        ]
    )
    capsys.readouterr()
    rc = main(
        [
            "index", "search", "--path", idx,
            "--query-ids", "0,999999999",
            "--queries-from", "/root/testdata/sf0.001/embeddings.parquet",
        ]
    )
    assert rc == 2
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "error" in rep


def test_compact_exact_state_preserves_keepers(ray_session, tmp_path):
    """After compaction, later runs must still elect the FIRST-SEEN
    keeper — not re-elect by doc_id and point new dups at docs that
    past runs already dropped."""
    from pynomaly_ray.stages.dedup import (
        commit_run_state,
        compact_exact_state,
        exact_duplicates_incremental,
    )

    state = str(tmp_path / "state")
    # run1: doc 10 introduces "aaa"; run2: doc 5 (smaller id!) dups it
    c1 = [(10, "aaa"), (11, "bbb")]
    c2 = c1 + [(5, "aaa")]
    p1 = exact_duplicates_incremental(_docs(ray_session, c1), state, "run1")
    commit_run_state(state, "run1", table="hashes")
    assert _pairs(p1) == []
    p2 = exact_duplicates_incremental(_docs(ray_session, c2), state, "run2")
    commit_run_state(state, "run2", table="hashes")
    assert _pairs(p2) == [(10, 5)]  # 5 dropped, 10 keeps

    rep = compact_exact_state(state)
    assert rep["compacted_runs"] == 2
    # the two source dirs folded into one compacted dir
    import os

    root = os.path.join(state, "hashes")
    dirs = [d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))]
    assert dirs == [rep["target"]]

    # run3: doc 99 dups "aaa".  Without per-row rank persistence the
    # keeper would be min doc_id = 5 — which run2 already DROPPED.
    c3 = c2 + [(99, "aaa")]
    p3 = exact_duplicates_incremental(_docs(ray_session, c3), state, "run3")
    assert _pairs(p3) == [(10, 99)]


def test_compact_exact_state_idempotent_and_rerunnable(ray_session, tmp_path):
    from pynomaly_ray.stages.dedup import (
        commit_run_state,
        compact_exact_state,
        exact_duplicates_incremental,
    )

    state = str(tmp_path / "state")
    exact_duplicates_incremental(_docs(ray_session, [(1, "a")]), state, "run1")
    commit_run_state(state, "run1", table="hashes")
    # single committed run: nothing to fold
    assert compact_exact_state(state)["compacted_runs"] == 0
    exact_duplicates_incremental(
        _docs(ray_session, [(1, "a"), (2, "b")]), state, "run2"
    )
    commit_run_state(state, "run2", table="hashes")
    r = compact_exact_state(state)
    assert r["compacted_runs"] == 2
    # compacting a compacted state is a no-op
    assert compact_exact_state(state)["compacted_runs"] == 0
    # and new increments keep working on top of it
    p3 = exact_duplicates_incremental(
        _docs(ray_session, [(1, "a"), (2, "b"), (3, "a")]), state, "run3"
    )
    assert _pairs(p3) == [(1, 3)]
