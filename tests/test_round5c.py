"""Round-5 wave-4 operators: PII scrub, duplicate-span profile,
embedding k-means clustering."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ---------------------------------------------------------------------------
# PII scrub
# ---------------------------------------------------------------------------
def test_pii_scrub_counts_and_redaction():
    from pynomaly_ray.stages.pii import scrub_batch

    texts = pd.Series(
        [
            "mail a.b+c@x-y.co and d@e.org today",
            "from 10.0.0.1 to 255.255.255.255 but not 1.2.3.4.5 tail",
            "call +1 555 123 4567 or +44 201-555-0101",
            "",
            None,
            "no pii here",
        ]
    )
    red, counts = scrub_batch(texts)
    assert list(counts["email"]) == [2, 0, 0, 0, 0, 0]
    # 1.2.3.4.5 contains one embedded ipv4 match (1.2.3.4) like RE2
    assert list(counts["ipv4"]) == [0, 3, 0, 0, 0, 0]
    assert list(counts["phone"]) == [0, 0, 2, 0, 0, 0]
    assert red[0] == "mail <EMAIL> and <EMAIL> today"
    assert red[1] == "from <IP> to <IP> but not <IP>.5 tail"
    assert red[2] == "call <PHONE> or <PHONE>"
    assert red[4] == ""


def test_pii_scrub_order_contract():
    """An IPv4-looking email domain is consumed by the email pass and
    must NOT be double-counted by the later IPv4 pass."""
    from pynomaly_ray.stages.pii import scrub_batch

    red, counts = scrub_batch(pd.Series(["bob@10.2.3.4.com then 9.9.9.9"]))
    assert counts["email"][0] == 1
    assert counts["ipv4"][0] == 1
    assert red[0] == "<EMAIL> then <IP>"


def test_pii_patterns_duckdb_parity_hostile():
    """Every pattern evaluates identically in Python re and DuckDB RE2
    on hostile inputs (boundary digits, NULs, adjacent matches) — the
    dialect contract the oracle's value-hash depends on."""
    import duckdb

    from pynomaly_ray.stages.pii import PII_PATTERNS, scrub_batch

    hostile = pd.Series(
        [
            "x1.2.3.4 5.6.7.8y 9.10.11.12",
            "a@b.co@c.de",
            "+1 234 567 8901+2 345 678 9012",
            "nul\x00byte 10.0.0.1 a\x00b@c.io",
            "....@....  @@ 1...2",
            "+123 456 789 0123 trailing",
        ]
    )
    red, counts = scrub_batch(hostile)
    con = duckdb.connect()
    s = hostile.tolist()
    for i, txt in enumerate(s):
        cur = txt
        for name, pat, repl in PII_PATTERNS:
            n_sql = con.execute(
                "SELECT len(regexp_extract_all(?, ?))", [cur, pat]
            ).fetchone()[0]
            assert n_sql == counts[name][i], (name, txt)
            cur = con.execute(
                "SELECT regexp_replace(?, ?, ?, 'g')", [cur, pat, repl]
            ).fetchone()[0]
        assert cur == red[i], txt


def test_pii_scrub_stage_schema(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.pii import pii_scrub

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": ["a@b.co", None],
            }
        )
    )
    out = pii_scrub(docs).to_pandas().sort_values("doc_id")
    assert list(out.columns) == [
        "doc_id",
        "text_red",
        "n_email",
        "n_ipv4",
        "n_phone",
    ]
    assert out["text_red"].tolist() == ["<EMAIL>", ""]
    assert out["n_email"].tolist() == [1, 0]


# ---------------------------------------------------------------------------
# duplicate-span profile
# ---------------------------------------------------------------------------
def test_duplicate_span_profile_handcrafted(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.decontam import duplicate_span_profile

    # k=2 bigrams. doc 1: "a b c"  -> {a b, b c}
    #              doc 2: "a b x"  -> {a b, b x}   shares "a b" with doc 1
    #              doc 3: "z z z"  -> {z z}        repeated within, unique across
    #              doc 4: "q"      -> excluded (< k tokens)
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": ["a b c", "a b x", "z z z", "q"],
            }
        )
    )
    out = (
        duplicate_span_profile(docs, k=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2, 3]
    assert out["n_sh"].tolist() == [2, 2, 1]
    assert out["n_dup"].tolist() == [1, 1, 0]
    assert out["dup_e6"].tolist() == [500000, 500000, 0]


def test_duplicate_span_profile_multi_partition(ray_session, monkeypatch):
    """Forced multi-bucket exchange path: per-shingle doc counts must be
    correct when (doc, shingle) rows spread across many blocks."""
    import ray.data as rd

    from pynomaly_ray.stages.decontam import duplicate_span_profile

    monkeypatch.setenv("PNR_BUCKET_TARGET_BYTES", "4096")
    n = 400
    # every even doc shares the SAME text (all its shingles cross-doc);
    # odd docs are unique
    texts = [
        "copy pasta boiler plate text" if i % 2 == 0 else f"unique u{i} v{i} w{i} x{i}"
        for i in range(n)
    ]
    docs = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array(range(n), pa.int64()), "text": texts}
        )
    ).repartition(16)
    out = duplicate_span_profile(docs, k=2).to_pandas()
    even = out[out["doc_id"] % 2 == 0]
    odd = out[out["doc_id"] % 2 == 1]
    assert len(out) == n
    assert (even["dup_e6"] == 1_000_000).all()
    assert (odd["dup_e6"] == 0).all()


# ---------------------------------------------------------------------------
# k-means clustering
# ---------------------------------------------------------------------------
def _blob_ds(rd, n_per=60, k=4, d=8, spread=0.05, seed=7):
    rng = np.random.RandomState(seed)
    centers = rng.uniform(-10, 10, size=(k, d))
    X = np.concatenate(
        [centers[i] + spread * rng.randn(n_per, d) for i in range(k)]
    )
    labels = np.repeat(np.arange(k), n_per)
    order = rng.permutation(len(X))
    X, labels = X[order], labels[order]
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(X), dtype=np.int64)),
            "embedding": pa.array(
                [row.astype(np.float32) for row in X], pa.list_(pa.float32())
            ),
            "true": pa.array(labels.astype(np.int64)),
        }
    )
    return rd.from_arrow(tbl).repartition(6), labels


def test_kmeans_recovers_separated_blobs(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.clustering import kmeans_assign, kmeans_fit

    ds, true = _blob_ds(rd)
    cents = kmeans_fit(ds, k=4, n_iter=10)
    assert cents.shape == (4, 8)
    out = (
        kmeans_assign(ds, cents)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    got = out["cluster"].to_numpy()
    # perfect purity both ways: every true blob maps to exactly one
    # fitted cluster and vice versa (farthest-point init spreads the
    # seeds across blobs; plain hash bottom-k init failed this)
    df = pd.DataFrame({"true": true, "got": got})
    grp = df.groupby("true")["got"].nunique()
    assert (grp == 1).all()
    assert df.groupby("got")["true"].nunique().eq(1).all()


def test_kmeans_init_partitioning_independent(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.clustering import kmeans_init

    ds1, _ = _blob_ds(rd)
    c1 = kmeans_init(ds1.repartition(1), 5)
    c8 = kmeans_init(ds1.repartition(8), 5)
    np.testing.assert_array_equal(c1, c8)


def test_kmeans_empty_cluster_keeps_centroid(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.clustering import kmeans_fit

    # 3 distinct points, k=3 works; duplicate-heavy data with k=3 but
    # only 2 distinct points leaves one cluster empty after round 1
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(10, dtype=np.int64)),
            "embedding": pa.array(
                [[0.0, 0.0]] * 5 + [[9.0, 9.0]] * 5, pa.list_(pa.float32())
            ),
        }
    )
    cents = kmeans_fit(rd.from_arrow(tbl), k=3, n_iter=4)
    assert np.isfinite(cents).all()


def test_semantic_dedup_pairs_matches_bruteforce(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.clustering import (
        kmeans_assign,
        kmeans_fit,
        semantic_dedup_pairs,
    )

    rng = np.random.RandomState(11)
    centers = rng.uniform(-10, 10, size=(3, 6))
    X = np.concatenate([centers[i] + 0.5 * rng.randn(40, 6) for i in range(3)])
    # plant exact duplicates and near-duplicates inside blobs
    X[5] = X[4]
    X[50] = X[49] * 1.0001
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(X), dtype=np.int64)),
            "embedding": pa.array(
                [r.astype(np.float32) for r in X], pa.list_(pa.float32())
            ),
        }
    )
    ds = rd.from_arrow(tbl).repartition(5)
    cents = kmeans_fit(ds, k=3, n_iter=6)
    thr = 999_000

    got = (
        semantic_dedup_pairs(ds, cents, e6_threshold=thr)
        .to_pandas()
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )
    # chunked GEMM path must emit the identical pair set
    got_chunked = (
        semantic_dedup_pairs(ds, cents, e6_threshold=thr, pair_chunk_cells=64)
        .to_pandas()
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got_chunked)

    # brute-force reference: within-cluster upper-triangle cosine
    assign = (
        kmeans_assign(ds, cents).to_pandas().sort_values("vec_id")["cluster"]
        .to_numpy()
    )
    Xf = X.astype(np.float32).astype(np.float64)
    N = Xf / np.linalg.norm(Xf, axis=1)[:, None]
    S = np.floor(N @ N.T * 1_000_000 + 0.5)
    ii, jj = np.nonzero(
        (S >= thr)
        & (np.arange(len(X))[:, None] < np.arange(len(X))[None, :])
        & (assign[:, None] == assign[None, :])
    )
    want = set(zip(ii.tolist(), jj.tolist()))
    assert set(zip(got["vec_a"], got["vec_b"])) == want
    assert (4, 5) in want and (49, 50) in want


def test_cli_scrub_and_cluster(ray_session, tmp_path):
    import pyarrow.parquet as papq

    from pynomaly_ray.cli import main

    src = tmp_path / "docs.parquet"
    papq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": ["mail me a@b.co", "ip 10.0.0.1 x", "clean"],
            }
        ),
        str(src),
    )
    out = tmp_path / "scrubbed"
    assert main(["scrub", "--input", str(src), "--out", str(out)]) == 0
    got = papq.read_table(str(out)).to_pandas().sort_values("doc_id")
    assert got["text_red"].tolist() == ["mail me <EMAIL>", "ip <IP> x", "clean"]

    emb = tmp_path / "emb.parquet"
    rng = np.random.RandomState(0)
    X = np.concatenate([rng.randn(30, 4), 50 + rng.randn(30, 4)])
    papq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(60, dtype=np.int64)),
                "embedding": pa.array(
                    [r.astype(np.float32) for r in X], pa.list_(pa.float32())
                ),
            }
        ),
        str(emb),
    )
    cout = tmp_path / "clusters"
    assert main(["cluster", "--input", str(emb), "--out", str(cout), "--k", "2"]) == 0
    a = papq.read_table(str(cout / "assign")).to_pandas().sort_values("vec_id")
    # the two far-separated halves land in two distinct clusters
    assert a["cluster"].iloc[:30].nunique() == 1
    assert a["cluster"].iloc[30:].nunique() == 1
    assert a["cluster"].iloc[0] != a["cluster"].iloc[59]
    cents = papq.read_table(str(cout / "centroids.parquet"))
    assert cents.num_rows == 2


# ---------------------------------------------------------------------------
# tf-idf top terms
# ---------------------------------------------------------------------------
def test_tfidf_top_terms_handcrafted(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.text import tfidf_top_terms

    # 3 docs, N=3.  "rare" appears only in doc 1 (df=1, idf=ln 3);
    # "common" in all three (idf=0).
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": [
                    "common rare rare common",
                    "common mid mid",
                    "common mid zz",
                ],
            }
        )
    )
    out = (
        tfidf_top_terms(docs)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["top_term"].tolist() == ["rare", "mid", "zz"]
    assert out.loc[0, "tf"] == 2 and out.loc[0, "df"] == 1
    n = 3
    assert out.loc[0, "score_e6"] == int(
        np.floor(2 * np.log(n / 1) * 1_000_000 + 0.5)
    )
    # doc 3: "mid" (tf=1, df=2) vs "zz" (tf=1, df=1) -> zz wins
    assert out.loc[2, "df"] == 1


def test_tfidf_nul_token_safety(ray_session):
    """Tokens differing only after an embedded NUL must stay distinct
    through the Arrow groupby and the exchange (the round-5 NUL class)."""
    import ray.data as rd

    from pynomaly_ray.stages.text import tfidf_top_terms

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": ["a\x00b a\x00b a\x00c", "a\x00c plain"],
            }
        )
    )
    out = (
        tfidf_top_terms(docs)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # doc 1: a\x00b tf=2 df=1 beats a\x00c (df=2); a NUL-truncating hash
    # would conflate them into tf=3
    assert out.loc[0, "top_term"] == "a\x00b"
    assert out.loc[0, "tf"] == 2 and out.loc[0, "df"] == 1


def test_bench_gate_host_normalized(tmp_path, monkeypatch):
    """A uniform suite-wide slowdown (host stall) must not gate; a query
    slow relative to the suite's median ratio must."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "bench_mod",
        os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench.py"),
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    best = {f"q{i}": 1.0 for i in range(10)}
    # whole suite at 3.5x: host effect, nothing flags
    uniform = {k: 3.5 for k in best}
    assert bench.find_regressions(uniform, best) == []
    # same host effect plus one genuine 15x outlier: only it flags
    uniform["q3"] = 15.0
    assert bench.find_regressions(uniform, best) == ["q3"]
    # small suites keep absolute semantics (median not believable)
    small = {"a": 3.5, "b": 3.6}
    assert bench.find_regressions(small, {"a": 1.0, "b": 1.0}) == ["a", "b"]


# ---------------------------------------------------------------------------
# exact global order statistic
# ---------------------------------------------------------------------------
def test_global_kth_smallest_exact_with_ties(ray_session):
    import ray.data as rd

    from pynomaly_ray.functions.exchange import global_kth_smallest

    vals = np.array([5, 1, 3, 3, 3, 9, 1, 7], dtype=np.int64)
    ds = rd.from_arrow(pa.table({"v": pa.array(vals)})).repartition(4)
    srt = np.sort(vals)
    for k in range(1, len(vals) + 1):
        assert global_kth_smallest(ds, "v", k) == srt[k - 1], k
    with pytest.raises(ValueError):
        global_kth_smallest(ds, "v", 0)
    with pytest.raises(ValueError):
        global_kth_smallest(ds, "v", len(vals) + 1)
    with pytest.raises(ValueError, match="distinct"):
        global_kth_smallest(ds, "v", 1, distinct_cap=2)


# ---------------------------------------------------------------------------
# Bloom-broadcast decontamination
# ---------------------------------------------------------------------------
def test_decontaminate_bloom_superset_of_exact(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.decontam import (
        benchmark_shingle_bloom,
        benchmark_shingle_hashes,
        decontaminate,
        decontaminate_bloom,
    )

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(400)]
    bench_texts = [
        " ".join(rng.choice(vocab, 30)) for _ in range(40)
    ]
    train_texts = [" ".join(rng.choice(vocab, 30)) for _ in range(200)]
    # plant full copies of benchmark docs in the training set
    train_texts[7] = bench_texts[0]
    train_texts[90] = bench_texts[5]

    bench = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(40), pa.int64()),
                "text": bench_texts,
            }
        )
    ).repartition(3)
    train = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(200), pa.int64()),
                "text": train_texts,
            }
        )
    ).repartition(4)

    exact_ref = benchmark_shingle_hashes(bench, k=4)
    bloom_ref = benchmark_shingle_bloom(bench, k=4, m_bits=1 << 18)
    exact = (
        decontaminate(train, exact_ref, k=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    bloom = (
        decontaminate_bloom(train, bloom_ref, k=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert exact["doc_id"].tolist() == bloom["doc_id"].tolist()
    assert (bloom["n_sh"] == exact["n_sh"]).all()
    # one-sided error: bloom never undercounts a true overlap
    assert (bloom["n_overlap"] >= exact["n_overlap"]).all()
    # planted full copies are fully flagged on both sides
    for did in (7, 90):
        row_e = exact[exact["doc_id"] == did].iloc[0]
        row_b = bloom[bloom["doc_id"] == did].iloc[0]
        assert row_e["n_overlap"] == row_e["n_sh"]
        assert row_b["n_overlap"] == row_b["n_sh"]
    # false-positive overcount stays small at this fill factor
    fp = (bloom["n_overlap"] - exact["n_overlap"]).sum()
    assert fp <= 0.02 * exact["n_sh"].sum()


def test_cli_cluster_semantic_keep_list(ray_session, tmp_path):
    import pyarrow.parquet as papq

    from pynomaly_ray.cli import main

    rng = np.random.RandomState(2)
    X = np.concatenate([rng.randn(20, 4), 40 + rng.randn(20, 4)])
    X[3] = X[2]
    X[4] = X[2]
    X[25] = X[24]
    emb = tmp_path / "emb.parquet"
    papq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(40, dtype=np.int64)),
                "embedding": pa.array(
                    [r.astype(np.float32) for r in X], pa.list_(pa.float32())
                ),
            }
        ),
        str(emb),
    )
    out = tmp_path / "sd"
    rc = main(
        [
            "cluster", "--input", str(emb), "--out", str(out),
            "--k", "2", "--semantic-dedup-e6", "999999", "--keep-list",
        ]
    )
    assert rc == 0
    drops = papq.read_table(str(out / "drop")).to_pandas()
    # {2,3,4} collapse to rep 2; {24,25} to rep 24
    got = dict(zip(drops["vec_id"], drops["kept_vec_id"]))
    assert got[3] == 2 and got[4] == 2 and got[25] == 24
    assert 2 not in got and 24 not in got


def test_pack_offsets_custom_sort_col(ray_session):
    """Placement must follow sort_col order, not doc_id order."""
    import ray.data as rd

    from pynomaly_ray.stages.packing import pack_offsets

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "n_tok": pa.array([4, 4, 4], pa.int64()),
            "key": pa.array([30, 10, 20], pa.int64()),  # order: 2, 3, 1
        }
    )
    out = (
        pack_offsets(rd.from_arrow(tbl).repartition(3), chunk=4, sort_col="key")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # concat order 2,3,1 at 4 tokens each: doc2 seq0, doc3 seq1, doc1 seq2
    assert out["seq_first"].tolist() == [2, 0, 1]
    assert out["off_in_seq"].tolist() == [0, 0, 0]


def test_gzip_dir_ingest_and_null_embedding_guard(ray_session, tmp_path):
    import ray.data as rd

    from pynomaly_ray.stages.clustering import kmeans_fit

    tbl = pa.table(
        {
            "vec_id": pa.array([1, 2, 3, 4], pa.int64()),
            "embedding": pa.array(
                [[1.0, 2.0, 3.0], None, [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
                pa.list_(pa.float32()),
            ),
        }
    )
    with pytest.raises(Exception, match="null embedding"):
        kmeans_fit(rd.from_arrow(tbl), k=2, n_iter=1)


# ---------------------------------------------------------------------------
# document chunking
# ---------------------------------------------------------------------------
def test_chunk_documents_boundaries(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.text import chunk_documents

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": [
                    "a b c d e",   # 5 tokens -> [a b c], [d e] at cw=3
                    "x",           # 1 token  -> [x]
                    "",            # empty -> nothing
                    None,          # null -> nothing
                ],
            }
        )
    )
    out = (
        chunk_documents(docs, chunk_words=3)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 1, 2]
    assert out["chunk_idx"].tolist() == [0, 1, 0]
    assert out["chunk_text"].tolist() == ["a b c", "d e", "x"]
    assert out["n_tok"].tolist() == [3, 2, 1]
    with pytest.raises(ValueError):
        chunk_documents(docs, chunk_words=0)


def test_chunk_documents_exact_multiple(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.text import chunk_documents

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([9], pa.int64()),
                "text": ["t0 t1 t2 t3 t4 t5"],  # 6 tokens, cw=3 -> exactly 2
            }
        )
    )
    out = chunk_documents(docs, chunk_words=3).to_pandas()
    assert out["n_tok"].tolist() == [3, 3]
    assert out["chunk_text"].tolist() == ["t0 t1 t2", "t3 t4 t5"]


def test_leak_safe_split_groups_stay_together(ray_session):
    from pynomaly_ray.pipelines.queries import q_leak_safe_split

    # build a tiny corpus with planted exact duplicates via a temp sf dir
    import os
    import tempfile

    import pyarrow.parquet as papq

    with tempfile.TemporaryDirectory() as d:
        texts = [f"unique text number {i}" for i in range(200)]
        for i in range(0, 200, 10):
            texts[i + 1] = texts[i]  # 20 duplicate pairs
        papq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(np.arange(200, dtype=np.int64)),
                    "text": texts,
                    "lang": ["en"] * 200,
                    "source": ["s0"] * 200,
                    "n_chars": pa.array(
                        [len(t) for t in texts], pa.int64()
                    ),
                }
            ),
            os.path.join(d, "documents.parquet"),
        )
        out = q_leak_safe_split(d)
    bysplit = dict(zip(out["doc_id"], out["split"]))
    byrep = dict(zip(out["doc_id"], out["rep_doc_id"]))
    for i in range(0, 200, 10):
        assert byrep[i + 1] == i  # duplicate joined its rep's group
        assert bysplit[i + 1] == bysplit[i]  # and NEVER straddles the split
    frac = (out["split"] == "train").mean()
    assert 0.7 < frac < 0.9


# ---------------------------------------------------------------------------
# property tests for the wave operators (pure-kernel level, no Ray)
# ---------------------------------------------------------------------------
from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
        ),
        max_size=8,
    )
)
def test_pii_scrub_idempotent_property(texts):
    """Scrubbing is idempotent: placeholders never re-match a pattern."""
    from pynomaly_ray.stages.pii import scrub_batch

    once, _ = scrub_batch(pd.Series(texts, dtype=object))
    twice, counts2 = scrub_batch(once)
    assert list(once) == list(twice)
    assert all((c == 0).all() for c in counts2.values())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_characters=" \t\n\r\f\v",
                    blacklist_categories=("Cs",),
                ),
                min_size=1,
                max_size=6,
            ),
            max_size=12,
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=5),
)
def test_chunk_documents_reassembly_property(token_lists, cw):
    """Chunks reassemble to the normalized token stream; n_tok sums to
    the doc's token count; every chunk except the last is full."""
    import ray.data as rd

    from pynomaly_ray.stages.text import chunk_documents

    texts = [" ".join(toks) for toks in token_lists]
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": texts,
            }
        )
    )
    ds = chunk_documents(docs, chunk_words=cw)
    out = ds.to_pandas()
    if out.empty:
        # Ray's to_pandas drops columns on all-empty datasets (known
        # quirk); the schema must still carry them
        assert set(ds.schema().names) >= {"doc_id", "chunk_idx"}
        assert all(len(t) == 0 for t in token_lists)
        return
    out = out.sort_values(["doc_id", "chunk_idx"])
    for did, toks in enumerate(token_lists):
        mine = out[out["doc_id"] == did]
        if not toks:
            assert len(mine) == 0
            continue
        assert int(mine["n_tok"].sum()) == len(toks)
        joined = " ".join(mine["chunk_text"])
        assert joined == " ".join(toks)
        assert (mine["n_tok"].iloc[:-1] == cw).all()
        assert 1 <= mine["n_tok"].iloc[-1] <= cw
