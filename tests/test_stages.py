"""Unit tests for the training-data operator stages: text analysis,
dedup (exact / MinHash-LSH / SimHash / n-gram Jaccard), similarity
search, and multimodal plumbing."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ---------------------------------------------------------------------------
# text analysis
# ---------------------------------------------------------------------------
def test_lang_id_heuristic():
    from pynomaly_ray.stages.text import LangId

    df = pd.DataFrame(
        {
            "text": [
                "the cat and the dog sat in a house that it liked",
                "der Hund und die Katze sind nicht in dem Haus",
                "le chat est dans la maison et il ne dort pas",
                "el perro y el gato no es una casa que no",
                "你好世界这是一个测试文档",
                "",
            ]
        }
    )
    out = LangId()(df)
    assert list(out["lang_pred"]) == ["en", "de", "fr", "es", "zh", "und"]
    assert (out["lang_conf"][:5] > 0).all()


def test_quality_score_ranges():
    from pynomaly_ray.stages.text import QualityScore

    df = pd.DataFrame(
        {
            "text": [
                "The quick brown fox jumps over the lazy dog and runs away into the woods.",
                "buy buy buy buy buy buy buy buy buy buy",
                "!!! ??? ### $$$ %%% ^^^ &&&",
            ]
        }
    )
    out = QualityScore()(df)
    assert (out["quality"] >= 0).all() and (out["quality"] <= 1).all()
    # prose > spam > punctuation soup
    assert out["quality"][0] > out["quality"][1] > out["quality"][2]
    assert out["repeat_ratio"][1] > 0.8


def test_fingerprint_deterministic_and_distinct():
    from pynomaly_ray.stages.text import Fingerprint

    df = pd.DataFrame({"text": ["hello world " * 20, "goodbye world " * 20]})
    a = Fingerprint()(df)
    b = Fingerprint()(df.copy())
    assert list(a["fingerprint"]) == list(b["fingerprint"])
    assert a["fingerprint"][0] != a["fingerprint"][1]


def test_token_count_batch():
    from pynomaly_ray.stages.text import token_count_batch

    t = pa.table({"text": ["one two three", "a,b c!", ""]})
    out = token_count_batch(t)
    assert out["ws_tokens"].to_pylist() == [3, 2, 0]
    assert out["bpe_tokens"].to_pylist() == [3, 5, 0]


# ---------------------------------------------------------------------------
# dedup
# ---------------------------------------------------------------------------
def _near_dup_corpus():
    base = (
        "the quick brown fox jumps over the lazy dog while the cat watches "
        "from the fence and the birds sing in the morning light of summer"
    )
    return pd.DataFrame(
        {
            "doc_id": ["a", "b", "c", "d"],
            "text": [
                base,
                base.replace("summer", "winter"),  # near-dup of a
                "completely different content about machine learning systems "
                "and distributed data processing at large scale with ray",
                base,  # exact dup of a
            ],
        }
    )


def test_ngram_jaccard():
    from pynomaly_ray.stages.dedup import ngram_jaccard

    docs = _near_dup_corpus()
    assert ngram_jaccard(docs.text[0], docs.text[3]) == 1.0
    assert ngram_jaccard(docs.text[0], docs.text[1]) > 0.7
    assert ngram_jaccard(docs.text[0], docs.text[2]) < 0.1


def test_minhash_signature_similarity_tracks_jaccard():
    from pynomaly_ray.stages.dedup import MinHasher, ngram_jaccard

    docs = _near_dup_corpus()
    mh = MinHasher(n_perm=128)
    sigs = [mh.signature(t) for t in docs.text]
    est_ab = (sigs[0] == sigs[1]).mean()
    true_ab = ngram_jaccard(docs.text[0], docs.text[1])
    assert abs(est_ab - true_ab) < 0.2
    assert (sigs[0] == sigs[3]).all()
    assert (sigs[0] == sigs[2]).mean() < 0.1


def test_minhash_lsh_pipeline(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.dedup import minhash_lsh_duplicates

    docs = _near_dup_corpus()
    pairs = minhash_lsh_duplicates(
        rd.from_pandas(docs), n_perm=64, n_bands=16, jaccard_threshold=0.7
    )
    got = set(zip(pairs.doc_a, pairs.doc_b))
    assert ("a", "d") in got  # exact dup
    assert ("a", "b") in got or ("b", "d") in got  # near dup
    assert not any("c" in p for pair in got for p in pair)


def test_simhash_near_dups_close():
    from pynomaly_ray.stages.dedup import SimHasher

    docs = _near_dup_corpus()
    sh = SimHasher()
    h = [sh.simhash(t) for t in docs.text]
    def hamming(x, y):
        return bin(np.uint64(x) ^ np.uint64(y)).count("1")
    assert hamming(h[0], h[3]) == 0
    assert hamming(h[0], h[1]) <= 8
    assert hamming(h[0], h[2]) > 10


def test_exact_duplicates_by_content(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.dedup import exact_duplicates_by_content

    docs = _near_dup_corpus()
    out = exact_duplicates_by_content(rd.from_pandas(docs)).to_pandas()
    assert len(out) == 3  # a==d collapse
    dup_group = out[out.copies > 1]
    assert len(dup_group) == 1 and dup_group.iloc[0].doc_id == "a"


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------
def test_cosine_topk_matches_bruteforce(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.similarity import cosine_topk

    rng = np.random.RandomState(4)
    M = rng.randn(500, 16)
    df = pd.DataFrame({"vec_id": np.arange(500, dtype=np.int64), "embedding": list(M)})
    ds = rd.from_pandas(df)
    q = rng.randn(2, 16)

    out = cosine_topk(ds, q, k=5)
    # brute force oracle
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    S = Mn @ qn.T
    for qi in range(2):
        expect = set(np.argsort(-S[:, qi])[:5].tolist())
        got = set(out[out.query_id == qi].vec_id.tolist())
        assert got == expect


def test_embedding_near_dup_pairs(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.similarity import near_dup_pairs_embedding

    rng = np.random.RandomState(9)
    M = rng.randn(200, 16)
    M[10] = M[3] + rng.randn(16) * 0.001  # planted near-dup
    M[77] = M[42] * 1.5                    # same direction = cosine 1
    df = pd.DataFrame({"vec_id": np.arange(200, dtype=np.int64), "embedding": list(M)})
    pairs = near_dup_pairs_embedding(
        rd.from_pandas(df), dim=16, threshold=0.99, n_planes=6
    )
    got = set(zip(pairs.vec_a, pairs.vec_b))
    assert (3, 10) in got
    assert (42, 77) in got


# ---------------------------------------------------------------------------
# multimodal plumbing
# ---------------------------------------------------------------------------
def test_multimodal_stub_and_plumbing(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.multimodal import (
        FrameSampler,
        ImageFeatures,
        make_fake_media_table,
        real_decode_image,
    )

    with pytest.raises(NotImplementedError):
        real_decode_image(b"\x00")

    media = make_fake_media_table(16)
    ds = rd.from_arrow(media)
    feats = ds.map_batches(
        ImageFeatures, batch_format="pyarrow", batch_size=8, concurrency=1
    ).to_pandas()
    assert len(feats) == 16
    assert set(feats.columns) == {"media_id", "mean_r", "mean_g", "mean_b", "brightness"}
    # deterministic fake decode -> deterministic features
    feats2 = ds.map_batches(
        ImageFeatures, batch_format="pyarrow", batch_size=8, concurrency=1
    ).to_pandas()
    pd.testing.assert_frame_equal(
        feats.sort_values("media_id").reset_index(drop=True),
        feats2.sort_values("media_id").reset_index(drop=True),
    )

    frames = ds.map_batches(
        FrameSampler, batch_format="pyarrow", batch_size=8, concurrency=1
    ).to_pandas()
    assert (frames.frame_index % 30 == 0).all()
    assert frames.media_id.nunique() == 16


def test_audio_features_stub_and_plumbing(ray_session):
    import ray.data as rd

    from pynomaly_ray.stages.multimodal import (
        AudioFeatures,
        make_fake_media_table,
        real_decode_audio,
    )

    with pytest.raises(NotImplementedError):
        real_decode_audio(b"\x00")

    ds = rd.from_arrow(make_fake_media_table(12))
    feats = ds.map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=4, concurrency=1
    ).to_pandas()
    assert len(feats) == 12
    assert set(feats.columns) == {"media_id", "duration_s", "rms", "zero_cross_rate"}
    assert (feats.rms > 0).all() and (feats.duration_s >= 0).all()
    feats2 = ds.map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=4, concurrency=1
    ).to_pandas()
    pd.testing.assert_frame_equal(
        feats.sort_values("media_id").reset_index(drop=True),
        feats2.sort_values("media_id").reset_index(drop=True),
    )


# ---------------------------------------------------------------------------
# vectorized dedup kernels (round 2): batch/single parity + distributed
# LSH verify path
# ---------------------------------------------------------------------------
def test_minhash_batch_matches_single_and_edge_cases():
    from pynomaly_ray.stages.dedup import MinHasher

    texts = [
        "the quick brown fox jumps over the lazy dog again and again",
        "",                      # empty doc
        "short",                 # < k words
        "one two three four",    # k-1 words
        "one two three four five",  # exactly k words -> one shingle
        "ünïcode wörds ärę hąshed consistently across the batch paths ok",
    ]
    mh = MinHasher(n_perm=32)
    batch_sigs = mh.signatures(texts)
    for i, t in enumerate(texts):
        np.testing.assert_array_equal(batch_sigs[i], mh.signature(t))
    # exact duplicate texts share the full signature
    dup = mh.signatures([texts[0], texts[0]])
    np.testing.assert_array_equal(dup[0], dup[1])


def test_simhash_batch_matches_single_and_empty():
    from pynomaly_ray.stages.dedup import SimHasher

    sh = SimHasher()
    texts = [
        "The Quick brown FOX, fox fox jumps!",
        "",
        "word",
        "ünïcode wörds here",
    ]
    batch = sh.simhash_batch(texts)
    for i, t in enumerate(texts):
        assert int(batch[i]) == int(sh.simhash(t))
    assert int(batch[1]) == 0  # empty doc -> 0 sentinel


def test_minhash_lsh_distributed_verify(ray_session):
    """The LSH pipeline with distributed Jaccard verification (texts
    hash-joined onto candidate pairs) on a multi-block corpus with
    planted duplicate clusters."""
    import ray.data as rd

    from pynomaly_ray.stages.dedup import minhash_lsh_duplicates

    rng = np.random.RandomState(3)
    vocab = [f"tok{i}" for i in range(300)]
    base_a = " ".join(rng.choice(vocab, size=60))
    base_b = " ".join(rng.choice(vocab, size=60))
    docs = {"a0": base_a, "a1": base_a, "a2": base_a + " tail", "b0": base_b, "b1": base_b}
    for i in range(40):  # unrelated background docs
        docs[f"z{i:02d}"] = " ".join(rng.choice(vocab, size=60))
    df = pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
    ds = rd.from_pandas(df).repartition(4)
    pairs = minhash_lsh_duplicates(ds, n_perm=64, n_bands=16, jaccard_threshold=0.8)
    got = set(zip(pairs.doc_a, pairs.doc_b))
    assert {("a0", "a1"), ("b0", "b1")} <= got
    assert ("a0", "a2") in got or ("a1", "a2") in got  # near-dup linked
    # no cross-cluster or background false positives survive verification
    for a, b in got:
        assert a[0] == b[0]
    # jaccard values are exact (1.0 for the exact dup pairs)
    exact = pairs[(pairs.doc_a == "a0") & (pairs.doc_b == "a1")]
    assert len(exact) == 1 and exact.iloc[0].jaccard == 1.0


def test_embedding_neardup_multitable_recall(ray_session):
    """Multi-table LSH near-dup vs exact all-pairs on random embeddings:
    verified pairs are a subset of the exact set (no false positives —
    the verify step is exact) with usable recall."""
    import ray.data as rd

    from pynomaly_ray.stages.similarity import near_dup_pairs_embedding

    rng = np.random.RandomState(5)
    M = rng.randn(300, 16)
    df = pd.DataFrame(
        {"vec_id": np.arange(300, dtype=np.int64), "embedding": list(M)}
    )
    thr = 0.6
    n = np.linalg.norm(M, axis=1)
    S = (M @ M.T) / np.outer(n, n)
    iu = np.triu_indices(300, k=1)
    exact = {
        (int(a), int(b))
        for a, b in zip(iu[0][S[iu] >= thr], iu[1][S[iu] >= thr])
    }
    assert exact  # the fixture must exercise something
    pairs = near_dup_pairs_embedding(
        rd.from_pandas(df).repartition(3), dim=16, threshold=thr,
        n_planes=4, n_tables=8,
    )
    got = set(zip(pairs.vec_a.astype(int), pairs.vec_b.astype(int)))
    assert got <= exact          # exactness of the verify step
    assert len(got) >= len(exact) * 0.5  # LSH recall floor (seeded, deterministic)


def test_ivf_topk_recall_on_clustered_data(ray_session):
    """IVF cosine top-k vs exact brute force on clustered embeddings:
    high recall when the corpus has cluster structure (IVF's regime),
    and exact agreement on the scores of the hits it returns."""
    import ray.data as rd

    from pynomaly_ray.stages.similarity import cosine_topk, cosine_topk_ivf

    rng = np.random.RandomState(11)
    centers = rng.randn(8, 24) * 4
    M = np.vstack([c + rng.randn(80, 24) * 0.5 for c in centers])
    ids = np.arange(len(M), dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids, "embedding": list(M)})
    queries = M[[5, 200, 555]] + rng.randn(3, 24) * 0.1

    ds = rd.from_pandas(df).repartition(4)
    exact = cosine_topk(ds, queries, k=10)
    approx = cosine_topk_ivf(
        ds, queries, k=10, n_centroids=8, n_probe=2, train_rows=640
    )
    for qi in range(3):
        e = set(exact[exact.query_id == qi].vec_id)
        a = set(approx[approx.query_id == qi].vec_id)
        assert len(e & a) / len(e) >= 0.9  # clustered-regime recall
    # scores of returned hits are exact (no quantization of the metric)
    merged = approx.merge(exact, on=["query_id", "vec_id"], suffixes=("_a", "_e"))
    assert np.allclose(merged.score_a, merged.score_e, atol=1e-12)


def test_image_resize_plumbing(ray_session):
    """Resize stage: raw-RGB payloads of exactly out_w*out_h*3 bytes,
    updated metadata, deterministic, and chainable into ImageFeatures."""
    import ray.data as rd

    from pynomaly_ray.stages.multimodal import (
        ImageFeatures,
        ImageResize,
        make_fake_media_table,
    )

    ds = rd.from_arrow(make_fake_media_table(24, seed=6))
    resized = ds.map_batches(
        ImageResize, fn_constructor_kwargs={"out_width": 4, "out_height": 4},
        batch_format="pyarrow", batch_size=8, concurrency=(1, 2),
    )
    t = resized.to_arrow_refs()
    import ray

    tbl = pa.concat_tables([x for x in ray.get(t) if x.num_rows])
    assert tbl.num_rows == 24
    for p, m in zip(tbl["payload"].to_pylist(), tbl["meta"].to_pylist()):
        assert len(p) == 4 * 4 * 3
        assert m["width"] == 4 and m["height"] == 4 and m["codec"] == "raw-rgb"
    # chainable: features over the resized table still work (decode of a
    # raw payload goes through the same fake decoder plumbing)
    feats = rd.from_arrow(tbl).map_batches(
        ImageFeatures, batch_format="pyarrow", batch_size=8, concurrency=(1, 2)
    ).to_pandas()
    assert len(feats) == 24
    # determinism across runs
    tbl2 = pa.concat_tables(
        [x for x in ray.get(
            rd.from_arrow(make_fake_media_table(24, seed=6)).map_batches(
                ImageResize,
                fn_constructor_kwargs={"out_width": 4, "out_height": 4},
                batch_format="pyarrow", batch_size=8, concurrency=(1, 2),
            ).to_arrow_refs()
        ) if x.num_rows]
    )
    assert tbl["payload"].to_pylist() == tbl2["payload"].to_pylist()


def test_hll_sketch_accuracy_and_merge():
    """HLL invariants: split-merge == whole; estimate within the p=12
    theoretical band; idempotent under duplicate insertion."""
    from pynomaly_ray.functions.sketches import hll_estimate, hll_merge, hll_partial

    rng = np.random.RandomState(4)
    keys = [f"user-{i}" for i in range(20000)]
    dup = keys + keys[:5000]
    whole = hll_partial(dup, 12)
    parts = [hll_partial(dup[i::7], 12) for i in range(7)]
    np.testing.assert_array_equal(hll_merge(parts), whole)
    est = hll_estimate(whole)
    assert abs(est - 20000) / 20000 < 0.05  # ~3 sigma of 1.04/sqrt(4096)
    # idempotence: re-inserting everything changes nothing
    np.testing.assert_array_equal(hll_merge([whole, whole]), whole)
    # small-range regime (linear counting)
    small = hll_partial([f"k{i}" for i in range(100)], 12)
    assert abs(hll_estimate(small) - 100) / 100 < 0.05


def test_approx_distinct_users_vs_exact(ray_session):
    from pynomaly_ray.pipelines.engine_queries import q_approx_distinct_users
    from pynomaly_ray.pipelines.queries import q_distinct_users

    sf = "/root/testdata/sf0.01"
    exact = q_distinct_users(sf).set_index("event_type")["n_users"]
    approx = q_approx_distinct_users(sf).set_index("event_type")["n_users_approx"]
    assert set(exact.index) == set(approx.index)
    for et in exact.index:
        rel = abs(int(approx[et]) - int(exact[et])) / max(int(exact[et]), 1)
        assert rel < 0.05, (et, int(approx[et]), int(exact[et]))


def test_emit_group_pairs_matches_naive_and_star():
    from pynomaly_ray.stages.dedup import _emit_group_pairs

    rng = np.random.RandomState(5)
    sizes = np.array([2, 3, 3, 7, 2, 5], dtype=np.int64)
    vals = rng.randint(0, 10**6, sizes.sum()).astype(np.int64)
    a, b = _emit_group_pairs(vals, sizes, cap=256)
    # naive reference
    na, nb = [], []
    off = 0
    for s in sizes:
        seg = vals[off : off + s]
        iu = np.triu_indices(s, k=1)
        na.append(seg[iu[0]])
        nb.append(seg[iu[1]])
        off += s
    # emission order is batched by group size — compare as sets
    got = set(zip(a.tolist(), b.tolist()))
    want = set(zip(np.concatenate(na).tolist(), np.concatenate(nb).tolist()))
    assert got == want and len(a) == len(np.concatenate(na))
    # star fallback for an oversized group: n-1 pairs, all anchored at
    # the first element
    big = np.arange(100, dtype=np.int64)
    sa, sb = _emit_group_pairs(big, np.array([100]), cap=10)
    assert len(sa) == 99 and (sa == 0).all() and (sb == big[1:]).all()
    # object-dtype (string doc ids) path
    docs = np.array(["d1", "d2", "d3", "x1", "x2"], dtype=object)
    oa, ob = _emit_group_pairs(docs, np.array([3, 2]), cap=256)
    assert set(zip(oa, ob)) == {("d1", "d2"), ("d1", "d3"), ("d2", "d3"), ("x1", "x2")}


def test_dedup_dataset_sink_paths(ray_session, tmp_path):
    """as_dataset=True returns the same verified pairs as the DataFrame
    path, without a driver-side collect; CLI dedup writes the pair
    parquet distributed."""
    import ray.data as rd

    from pynomaly_ray.stages.dedup import minhash_lsh_duplicates

    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(200)]
    base = " ".join(rng.choice(vocab, size=60))
    docs = {"a0": base, "a1": base, "b0": base + " extra tail words here"}
    for i in range(30):
        docs[f"z{i:02d}"] = " ".join(rng.choice(vocab, size=60))
    df = pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
    ds = rd.from_pandas(df).repartition(3)
    want = minhash_lsh_duplicates(ds, jaccard_threshold=0.8)
    got_ds = minhash_lsh_duplicates(ds, jaccard_threshold=0.8, as_dataset=True)
    got = (
        got_ds.to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)

    # embedding variant
    from pynomaly_ray.stages.similarity import near_dup_pairs_embedding

    n, dim = 80, 16
    E = rng.randn(n, dim)
    E[1] = E[0] + 0.01 * rng.randn(dim)  # planted near-dup
    edf = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64), "embedding": list(E)})
    eds = rd.from_pandas(edf).repartition(2)
    ewant = near_dup_pairs_embedding(eds, dim=dim, threshold=0.9)
    egot = (
        near_dup_pairs_embedding(eds, dim=dim, threshold=0.9, as_dataset=True)
        .to_pandas()
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(egot, ewant)
    assert {(0, 1)} <= set(zip(ewant.vec_a.astype(int), ewant.vec_b.astype(int)))


def test_cli_dedup_minhash_distributed_sink(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    from pynomaly_ray.cli import main

    out = str(tmp_path / "dd")
    rc = main(
        [
            "dedup", "--input", "/root/testdata/sf0.001/documents.parquet",
            "--out", out, "--method", "minhash",
        ]
    )
    assert rc == 0
    pair_dir = os.path.join(out, "pairs")
    files = [f for f in os.listdir(pair_dir) if f.endswith(".parquet")]
    assert files
    t = pq.read_table(pair_dir)
    assert set(t.schema.names) == {"doc_a", "doc_b", "jaccard"}
    assert t.num_rows > 0  # sf0.001 documents contain planted duplicates


def test_media_decoder_autodetect(monkeypatch):
    """detect_*_decoder probes real libs at stage init: absent (this
    container) -> fake fallback; present (monkeypatched PIL) -> the
    stage dispatches to the real decode with zero code change."""
    import sys
    import types

    from pynomaly_ray.stages import multimodal as mm

    # no PIL/cv2/soundfile here -> tier-3 numpy sniffing decoders: real
    # decode for BMP/WAV payloads, fake fallback for anything else
    img_dec = mm.detect_image_decoder()
    aud_dec = mm.detect_audio_decoder()
    raw = b"\x01\x02not-a-media-payload"
    assert np.array_equal(img_dec(raw), mm.fake_decode(raw))
    assert np.array_equal(aud_dec(raw), mm.fake_decode_audio(raw))
    bmp = mm.encode_bmp(np.full((4, 4, 3), 9, dtype=np.uint8))
    assert (img_dec(bmp) == 9).all()
    wav = mm.encode_wav(np.zeros(16), 8000)
    assert len(aud_dec(wav)) == 16

    class _FakeImg:
        def convert(self, mode):
            assert mode == "RGB"
            return np.full((4, 4, 3), 7, dtype=np.uint8)

    fake_image_mod = types.ModuleType("PIL.Image")
    fake_image_mod.open = lambda fp: _FakeImg()
    fake_pil = types.ModuleType("PIL")
    fake_pil.Image = fake_image_mod
    monkeypatch.setitem(sys.modules, "PIL", fake_pil)
    monkeypatch.setitem(sys.modules, "PIL.Image", fake_image_mod)

    dec = mm.detect_image_decoder()
    assert dec is not None
    assert (dec(b"payload") == 7).all()
    stage = mm.ImageFeatures()
    assert stage.decode is not mm.fake_decode
    out = stage(mm.make_fake_media_table(3))
    assert out.num_rows == 3
    assert out["mean_r"].to_pylist() == [7.0, 7.0, 7.0]


def test_kmeans_reseed_distinct_points():
    from pynomaly_ray.stages.similarity import _reseed_empty_centroids

    # 6 distinct unit vectors in 2D; centroids 0/1 serve everything,
    # centroids 2 and 3 are empty in this iteration
    ang = np.linspace(0.1, 1.2, 6)
    M = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    C = np.stack([M[0], M[5], np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assign = np.array([0, 0, 0, 1, 1, 1])
    _reseed_empty_centroids(C, M, assign, [2, 3])
    # both empties reseeded to real data points, and to DIFFERENT ones
    assert any((C[2] == m).all() for m in M)
    assert any((C[3] == m).all() for m in M)
    assert not (C[2] == C[3]).all()


def test_kll_sketch_accuracy_and_merge():
    from pynomaly_ray.functions.sketches import KLLSketch

    rng = np.random.RandomState(11)
    data = rng.lognormal(0, 1, 100_000)
    # single-shot sketch
    sk = KLLSketch().add(data)
    assert sk.n == len(data)
    srt = np.sort(data)
    for q in (0.1, 0.5, 0.9, 0.99):
        est = sk.quantile(q)
        # rank error bound: estimated quantile's true rank within 2% of n
        rank = np.searchsorted(srt, est)
        assert abs(rank - q * len(data)) <= 0.02 * len(data), q
    # split + merge anywhere: same error envelope
    merged = KLLSketch()
    for chunk in np.array_split(data, 37):
        merged.merge(KLLSketch().add(chunk))
    assert merged.n == len(data)
    for q in (0.1, 0.5, 0.9):
        rank = np.searchsorted(srt, merged.quantile(q))
        assert abs(rank - q * len(data)) <= 0.02 * len(data), q
    # serialization roundtrip preserves the estimate exactly
    vals, lvls = merged.to_arrays()
    back = KLLSketch.from_arrays(vals, lvls)
    assert back.quantile(0.5) == merged.quantile(0.5)
    # determinism: same input stream -> identical sketch state
    a = KLLSketch().add(data).to_arrays()
    b = KLLSketch().add(data.copy()).to_arrays()
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()


def test_approx_quantiles_query_near_exact(ray_session):
    from pynomaly_ray.pipelines.engine_queries import q_approx_quantiles

    import pyarrow.parquet as papq

    out = q_approx_quantiles("/root/testdata/sf0.001")
    ev = papq.read_table(
        "/root/testdata/sf0.001/events.parquet", columns=["event_type", "value"]
    ).to_pandas()
    assert set(out["event_type"]) == set(ev["event_type"].unique())
    for _, row in out.iterrows():
        vals = np.sort(
            ev.loc[ev["event_type"] == row["event_type"], "value"].to_numpy()
        )
        assert int(row["n"]) == len(vals)
        for q, col in ((0.5, "p50_e6"), (0.9, "p90_e6")):
            est = row[col] / 1e6
            rank = np.searchsorted(vals, est)
            assert abs(rank - q * len(vals)) <= max(0.02 * len(vals), 2), (
                row["event_type"],
                q,
            )


def test_bloom_filter_membership_and_merge():
    from pynomaly_ray.functions.sketches import (
        bloom_contains,
        bloom_merge,
        bloom_partial,
    )

    seen = [f"doc{i:06d}" for i in range(20_000)]
    novel = [f"new{i:06d}" for i in range(20_000)]
    # distributed build: per-chunk partials OR-merged
    parts = [
        bloom_partial(seen[i : i + 3000]) for i in range(0, len(seen), 3000)
    ]
    bits = bloom_merge(parts)
    # no false negatives, ever
    assert bloom_contains(bits, seen).all()
    # false-positive rate near theory: (1-e^{-kn/m})^k ~ 0.24% here
    fp = bloom_contains(bits, novel).mean()
    assert fp < 0.01, fp
    # merge == single-shot build (idempotent OR)
    assert (bits == bloom_partial(seen)).all()
    # empty probes/builds behave
    assert bloom_contains(bits, []).shape == (0,)
    assert not bloom_contains(bloom_partial([]), seen).any()


def test_asof_join_directions(ray_session):
    import ray.data as rd

    from pynomaly_ray.functions.exchange import asof_join

    left = pd.DataFrame({"k": [1, 1, 1], "ts": [10, 55, 300], "lv": [1, 2, 3]})
    right = pd.DataFrame({"k": [1, 1, 1], "ts": [40, 60, 200], "val": [7, 8, 9]})

    def run(direction):
        return (
            asof_join(
                rd.from_pandas(left),
                rd.from_pandas(right),
                by="k",
                left_on="ts",
                right_on="ts",
                num_partitions=2,
                direction=direction,
            )
            .to_pandas()
            .sort_values("ts")
            .reset_index(drop=True)
        )

    back = run("backward")
    assert list(back.ts) == [55, 300] and list(back.val) == [7, 9]
    fwd = run("forward")
    assert list(fwd.ts) == [10, 55] and list(fwd.val) == [7, 8]
    near = run("nearest")
    assert list(near.ts) == [10, 55, 300] and list(near.val) == [7, 8, 9]


def test_review_regressions_r3():
    """Pins for round-3 review findings: empty bloom merge, resize by
    decoded (not metadata) dimensions, legacy manifest run_id reuse."""
    import numpy as np

    from pynomaly_ray.functions.sketches import bloom_contains, bloom_merge
    from pynomaly_ray.stages.multimodal import ImageResize, make_fake_media_table

    # bloom_merge of zero partials is the empty filter, not None
    empty = bloom_merge([])
    assert empty.dtype == np.uint64 and empty.any() == False  # noqa: E712
    assert not bloom_contains(empty, ["x", "y"]).any()

    # a decoder returning dimensions different from the metadata (the
    # real-PIL case) must resize by the DECODED shape
    def decode_16x12(payload, width=8, height=8):
        return np.arange(16 * 12 * 3, dtype=np.uint8).reshape(16, 12, 3)

    out = ImageResize(out_width=4, out_height=4, decoder=decode_16x12)(
        make_fake_media_table(2)  # meta says 8x8; decoder returns 16x12
    )
    assert out.num_rows == 2
    assert len(out["payload"][0].as_py()) == 4 * 4 * 3


def test_manifest_legacy_run_id_reuse_guard(tmp_path):
    """An out_dir written by the pre-'seq-' code (NNNNNN-<run>.parquet)
    must still fail fast on run_id reuse after the format change."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pynomaly_ray.state.manifest import committed_run_ids

    d = tmp_path / "out" / "manifest"
    os.makedirs(d)
    snap = pa.table({"partition_id": ["p0"]})
    pq.write_table(snap, str(d / "000000-night.parquet"))  # legacy format
    runs = committed_run_ids(str(tmp_path / "out"))
    assert "night" in runs  # the reuse guard still sees the old run
    assert "000000-night" in runs  # and the conservative reading


def test_review_regressions_r3b(tmp_path):
    """Pins for the second review batch: stale datagen markers, 7-digit
    manifest sequences, ja/ko language ID."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    # datagen: regenerating with a different spec clears old files and
    # markers, so a later call with the OLD spec regenerates correctly
    from pynomaly_ray.sources.datagen import GenSpec, generate_dataset_dir

    d = str(tmp_path / "gen")
    generate_dataset_dir(d, GenSpec(seed=1, parts_per_source=4, rows_per_part=16))
    generate_dataset_dir(d, GenSpec(seed=2, parts_per_source=2, rows_per_part=16))
    parts = [f for f in os.listdir(d) if f.startswith("part-")]
    assert len(parts) == 2 * 4  # 4 sources x 2 parts — no stale files
    generate_dataset_dir(d, GenSpec(seed=1, parts_per_source=4, rows_per_part=16))
    parts = [f for f in os.listdir(d) if f.startswith("part-")]
    assert len(parts) == 4 * 4  # regenerated, not served from stale marker

    # manifest: sequence 10^6 still parses as sequenced and wins merges
    from pynomaly_ray.state.manifest import _snapshots

    md = tmp_path / "out" / "manifest"
    os.makedirs(md)
    snap = pa.table({"partition_id": ["p0"]})
    pq.write_table(snap, str(md / "seq-999999-old.parquet"))
    pq.write_table(snap, str(md / "seq-1000000-new.parquet"))
    snaps = _snapshots(str(md))
    assert [s[0] for s in snaps] == [999999, 1000000]
    assert snaps[-1][1] == "new"

    # language ID distinguishes the three CJK scripts
    from pynomaly_ray.stages.text import LangId

    df = pd.DataFrame(
        {
            "text": [
                "你好世界这是一个测试文档",      # han only -> zh
                "これはテストですありがとう",    # kana -> ja
                "안녕하세요 이것은 테스트입니다",  # hangul -> ko
            ]
        }
    )
    out = LangId()(df)
    assert list(out["lang_pred"]) == ["zh", "ja", "ko"]


# ---------------------------------------------------------------------------
# uniqueness: distributed dup-heavy emission
# ---------------------------------------------------------------------------
def test_dup_heavy_distributed_emit_matches_reference(ray_session, monkeypatch):
    """The in-bucket vectorized emitter (bulk_emit_violations) matches
    the per-group reference emit_duplicate_violations on a dup-heavy
    corpus (~35% duplicated rows, one hot key), through the REAL
    multi-bucket exchange, and preserves the resume-identity guarantee
    with prior-run docparts."""
    import ray.data as rd

    from pynomaly_ray.stages.uniqueness import (
        duplicates_from_docparts,
        emit_duplicate_violations,
        project_doc_partition,
    )

    monkeypatch.setenv("PNR_BUCKET_TARGET_BYTES", "4096")  # force P > 1

    rng = np.random.default_rng(7)
    n = 3000
    dup_pool = [f"dup-{i}" for i in range(40)] + ["hot"] * 4
    doc_ids = [
        str(rng.choice(dup_pool)) if rng.random() < 0.35 else f"doc-{i}"
        for i in range(n)
    ]
    parts = [f"p{i // 250:02d}" for i in range(n)]
    t = pa.table({"doc_id": doc_ids, "partition_id": parts})

    def docparts_of(table):
        return rd.from_arrow(table).map_batches(
            project_doc_partition, batch_format="pyarrow", batch_size=256
        )

    ds = docparts_of(t)
    out = duplicates_from_docparts(ds).to_pandas()
    assert len(out) > 0.25 * n  # genuinely dup-heavy

    # reference: the per-group driver emitter over the same docparts
    dp = ds.to_pandas()
    totals = dp.groupby("doc_id")["cnt"].sum()
    dups = dp[dp["doc_id"].isin(totals[totals > 1].index)]
    ref = pd.concat(
        [
            emit_duplicate_violations(g)
            for _, g in dups.groupby("doc_id", sort=True)
        ],
        ignore_index=True,
    )
    key = ["doc_id", "partition_id"]
    pd.testing.assert_frame_equal(
        out.sort_values(key, kind="mergesort").reset_index(drop=True),
        ref.sort_values(key, kind="mergesort").reset_index(drop=True),
    )

    # resume identity: run1 (first half) + run2 (second half, with run1's
    # docparts as prior state) together emit exactly the full run's rows
    half = n // 2
    t1, t2 = t.slice(0, half), t.slice(half)
    v1 = duplicates_from_docparts(docparts_of(t1)).to_pandas()
    v2 = duplicates_from_docparts(docparts_of(t2), docparts_of(t1)).to_pandas()
    both = pd.concat([v1, v2], ignore_index=True)
    pd.testing.assert_frame_equal(
        both.sort_values(key, kind="mergesort").reset_index(drop=True),
        out.sort_values(key, kind="mergesort").reset_index(drop=True),
    )


def test_pair_verifier_matches_scalar_jaccard():
    """The vectorized _PairVerifier (sorted-run distinct counts) is
    bit-identical to the per-pair set-based ngram_jaccard, including the
    empty/empty -> 1.0 convention and empty-vs-text -> 0.0."""
    from pynomaly_ray.stages.dedup import _PairVerifier, ngram_jaccard

    base = "the quick brown fox jumps over the lazy dog again and again"
    pairs = [
        (base, base),
        (base, base.replace("dog", "cat")),
        (base, "completely different words entirely here now today ok"),
        ("", ""),
        (base, ""),
        ("", base),
        ("one two three four five", "one two three four five six seven"),
    ]
    batch = pa.table(
        {
            "doc_a": pa.array([f"a{i}" for i in range(len(pairs))]),
            "doc_b": pa.array([f"b{i}" for i in range(len(pairs))]),
            "text_a": pa.array([p[0] for p in pairs]),
            "text_b": pa.array([p[1] for p in pairs]),
        }
    )
    out = _PairVerifier(shingle_k=3)(batch)
    got = out["jaccard"].to_numpy()
    expect = np.array([ngram_jaccard(a, b, 3) for a, b in pairs])
    assert np.array_equal(got, expect)


def test_bmp_roundtrip_and_real_decode_features(ray_session):
    """encode_bmp -> decode_bmp is bit-exact (incl. non-multiple-of-4
    widths that need row padding and top-down storage), and the
    ImageFeatures stage over a real-BMP media table computes features of
    the GENUINELY decoded pixels."""
    import ray.data as rd

    from pynomaly_ray.stages import multimodal as mm

    rng = np.random.RandomState(11)
    for h, w in [(8, 8), (5, 3), (1, 1), (4, 7)]:
        img = rng.randint(0, 256, (h, w, 3)).astype(np.uint8)
        assert np.array_equal(mm.decode_bmp(mm.encode_bmp(img)), img)

    # top-down BMP (negative height): flip biHeight by hand
    img = rng.randint(0, 256, (4, 4, 3)).astype(np.uint8)
    b = bytearray(mm.encode_bmp(img[::-1]))  # encoded bottom-up of flipped
    b[22:26] = (-4).to_bytes(4, "little", signed=True)
    assert np.array_equal(mm.decode_bmp(bytes(b)), img[::-1][::-1])

    with pytest.raises(ValueError):
        mm.decode_bmp(b"BM truncated")

    tbl = mm.make_bmp_media_table(6, seed=2, size=8)
    out = (
        rd.from_arrow(tbl)
        .map_batches(
            mm.ImageFeatures,
            batch_format="pyarrow",
            batch_size=4,
            concurrency=1,
        )
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    # oracle: decode the payloads directly
    for i in range(6):
        px = mm.decode_bmp(tbl["payload"][i].as_py()).astype(np.float64)
        assert out.loc[i, "mean_r"] == pytest.approx(px[..., 0].mean())
        assert out.loc[i, "brightness"] == pytest.approx(px.mean())


def test_wav_roundtrip_and_real_decode_features(ray_session):
    """encode_wav -> decode_wav round-trips to 16-bit quantization; the
    AudioFeatures stage over a real-WAV media table reproduces RMS and
    duration of the genuinely decoded PCM."""
    import ray.data as rd

    from pynomaly_ray.stages import multimodal as mm

    t = np.arange(400)
    pcm = 0.7 * np.sin(2 * np.pi * 0.013 * t)
    back = mm.decode_wav(mm.encode_wav(pcm, 8000))
    assert len(back) == 400
    # half-LSB rounding + the standard 32767-encode/32768-decode scale
    assert np.abs(back - pcm).max() < 2.0 / 32767

    with pytest.raises(ValueError):
        mm.decode_wav(b"not riff data....")

    tbl = mm.make_wav_media_table(5, seed=6, n_samples=200, sample_rate=8000)
    out = (
        rd.from_arrow(tbl)
        .map_batches(
            mm.AudioFeatures,
            batch_format="pyarrow",
            batch_size=2,
            concurrency=1,
        )
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    for i in range(5):
        dec = mm.decode_wav(tbl["payload"][i].as_py()).astype(np.float64)
        assert out.loc[i, "duration_s"] == pytest.approx(len(dec) / 8000)
        assert out.loc[i, "rms"] == pytest.approx(
            float(np.sqrt(np.mean(dec**2)))
        )


# ---------------------------------------------------------------------------
# incremental cross-run minhash dedup
# ---------------------------------------------------------------------------
def test_minhash_incremental_cross_run(ray_session, tmp_path):
    """Cross-run incremental LSH: run2 over the accumulated corpus finds
    planted dups that SPAN runs and dups WITHIN its new docs, never
    re-emits run1's pairs, skips re-hashing run1's docs, and retrying a
    run (or distrusting an uncommitted one) stays correct."""
    import os

    import ray.data as rd

    from pynomaly_ray.stages.dedup import (
        minhash_lsh_duplicates,
        minhash_lsh_duplicates_incremental,
    )

    base = (
        "the quick brown fox jumps over the lazy dog while the cat watches "
        "from the fence and the birds sing in the morning light of summer"
    )
    other = (
        "completely different content about machine learning systems and "
        "distributed data processing at large scale with ray and arrow"
    )
    run1_docs = pd.DataFrame(
        {
            "doc_id": ["a1", "a2", "a3"],
            "text": [base, base.replace("summer", "winter"), other],
        }
    )
    run2_new = pd.DataFrame(
        {
            "doc_id": ["b1", "b2", "b3"],
            "text": [
                base.replace("morning", "evening"),  # near-dup of a1 (cross-run)
                other + " with ray data pipelines",   # near-dup of b/other? no:
                other + " with ray data pipelines!",  # near-dup of b2 (within run2)
            ],
        }
    )
    full = pd.concat([run1_docs, run2_new], ignore_index=True)
    state = str(tmp_path / "state")

    kw = dict(n_perm=64, n_bands=16, jaccard_threshold=0.65)
    p1 = minhash_lsh_duplicates_incremental(
        rd.from_pandas(run1_docs), state, "run1", **kw
    )
    got1 = set(zip(p1.doc_a, p1.doc_b))
    assert ("a1", "a2") in got1

    p2 = minhash_lsh_duplicates_incremental(
        rd.from_pandas(full), state, "run2", **kw
    )
    got2 = set(zip(p2.doc_a, p2.doc_b))
    assert ("a1", "a2") not in got2          # prior-prior suppressed
    assert ("a1", "b1") in got2 or ("a2", "b1") in got2  # spans runs
    assert ("b2", "b3") in got2              # within the new docs
    # band state: run2 banded ONLY the new docs
    import pyarrow.parquet as _pq

    b2 = _pq.read_table(os.path.join(state, "bands", "run2")).to_pandas()
    assert set(b2["doc_id"]) == {"b1", "b2", "b3"}

    # union of runs covers everything the one-shot pipeline verifies
    oneshot = minhash_lsh_duplicates(rd.from_pandas(full), **kw)
    assert set(zip(oneshot.doc_a, oneshot.doc_b)) <= (got1 | got2)

    # retry of run2 is idempotent
    p2b = minhash_lsh_duplicates_incremental(
        rd.from_pandas(full), state, "run2", **kw
    )
    assert set(zip(p2b.doc_a, p2b.doc_b)) == got2

    # an UNCOMMITTED run3 (marker removed) must not suppress anything:
    # run4 re-emits run3-would-have-owned pairs
    p3 = minhash_lsh_duplicates_incremental(
        rd.from_pandas(full), state, "run3", **kw
    )
    assert set(zip(p3.doc_a, p3.doc_b)) == set()  # no new docs -> no pairs
    os.remove(os.path.join(state, "bands", ".commit-run3"))
    more = pd.concat(
        [full, pd.DataFrame({"doc_id": ["c1"], "text": [base]})],
        ignore_index=True,
    )
    p4 = minhash_lsh_duplicates_incremental(
        rd.from_pandas(more), state, "run4", **kw
    )
    got4 = set(zip(p4.doc_a, p4.doc_b))
    assert any("c1" in pair for pair in got4)  # the new exact dup surfaces


def test_cli_dedup_minhash_incremental_state(ray_session, tmp_path):
    """CLI --state-dir: two runs over a growing corpus write per-run
    pair dirs whose union holds the cross-run planted dup, band state
    accumulates per run, and re-running a run_id is idempotent."""
    import json
    import os

    import pyarrow.parquet as _pq

    from pynomaly_ray.cli import main

    base = (
        "the quick brown fox jumps over the lazy dog while the cat watches "
        "from the fence and the birds sing in the morning light of summer"
    )
    v1 = pd.DataFrame({"doc_id": ["a1", "a2"], "text": [base, "unrelated words " * 9]})
    v2 = pd.concat(
        [v1, pd.DataFrame({"doc_id": ["b1"], "text": [base]})],
        ignore_index=True,
    )
    corpus1 = str(tmp_path / "c1.parquet")
    corpus2 = str(tmp_path / "c2.parquet")
    _pq.write_table(pa.Table.from_pandas(v1, preserve_index=False), corpus1)
    _pq.write_table(pa.Table.from_pandas(v2, preserve_index=False), corpus2)
    out = str(tmp_path / "out")
    state = str(tmp_path / "state")

    args = ["--method", "minhash", "--threshold", "0.8", "--state-dir", state]
    assert main(["dedup", "--input", corpus1, "--out", out, "--run-id", "r1"] + args) == 0
    assert main(["dedup", "--input", corpus2, "--out", out, "--run-id", "r2"] + args) == 0

    p2 = _pq.read_table(os.path.join(out, "pairs", "r2")).to_pandas()
    assert {("a1", "b1")} <= set(zip(p2.doc_a, p2.doc_b))
    assert os.path.exists(os.path.join(state, "bands", ".commit-r1"))
    assert os.path.exists(os.path.join(state, "bands", ".commit-r2"))

    # idempotent retry of r2
    assert main(["dedup", "--input", corpus2, "--out", out, "--run-id", "r2"] + args) == 0
    p2b = _pq.read_table(os.path.join(out, "pairs", "r2")).to_pandas()
    assert set(zip(p2b.doc_a, p2b.doc_b)) == set(zip(p2.doc_a, p2.doc_b))


def test_minhash_incremental_commit_separation(ray_session, tmp_path):
    """commit=False leaves the run untrusted (no marker) so a crash
    before the caller's durable pair write cannot suppress pairs; the
    explicit commit_run_state marks it afterwards.  A params
    mismatch against pinned state raises."""
    import os

    import ray.data as rd

    from pynomaly_ray.stages.dedup import (
        commit_run_state,
        minhash_lsh_duplicates_incremental,
    )

    docs = pd.DataFrame({"doc_id": ["x1", "x2"], "text": ["alpha " * 10, "beta " * 10]})
    state = str(tmp_path / "state")
    minhash_lsh_duplicates_incremental(
        rd.from_pandas(docs), state, "r1", commit=False
    )
    assert not os.path.exists(os.path.join(state, "bands", ".commit-r1"))
    assert os.path.isdir(os.path.join(state, "bands", "r1"))  # bands written
    commit_run_state(state, "r1")
    assert os.path.exists(os.path.join(state, "bands", ".commit-r1"))

    with pytest.raises(ValueError, match="incompatible band tables"):
        minhash_lsh_duplicates_incremental(
            rd.from_pandas(docs), state, "r2", n_perm=128
        )


def test_sniffing_decoders_never_raise_on_bad_payloads():
    """The tier-3 sniffing decoders are best-effort: payloads that sniff
    as BMP/RIFF but don't decode (palette BMP, WebP's RIFF container,
    truncation) fall through to the deterministic fake instead of
    killing the job on one bad row."""
    from pynomaly_ray.stages import multimodal as mm

    img_dec = mm.detect_image_decoder()
    aud_dec = mm.detect_audio_decoder()
    bad_bmp = b"BM" + b"\x00" * 20                      # truncated header
    webp_ish = b"RIFF\x10\x00\x00\x00WEBPVP8 "          # RIFF, not WAVE
    assert np.array_equal(img_dec(bad_bmp), mm.fake_decode(bad_bmp))
    assert np.array_equal(aud_dec(webp_ish), mm.fake_decode_audio(webp_ish))


def test_cli_dedup_keep_list(ray_session, tmp_path):
    """--keep-list: pairs collapse into components and a drop/ parquet
    maps every non-representative doc to its kept representative,
    spanning runs in incremental mode."""
    import json
    import os

    import pyarrow.parquet as _pq

    from pynomaly_ray.cli import main

    base = (
        "the quick brown fox jumps over the lazy dog while the cat watches "
        "from the fence and the birds sing in the morning light of summer"
    )
    docs = pd.DataFrame(
        {
            "doc_id": ["a", "b", "c", "d"],
            "text": [base, base, base, "totally different words " * 8],
        }
    )
    corpus = str(tmp_path / "c.parquet")
    _pq.write_table(pa.Table.from_pandas(docs, preserve_index=False), corpus)
    out = str(tmp_path / "out")
    rc = main(
        [
            "dedup", "--input", corpus, "--out", out,
            "--method", "minhash", "--threshold", "0.8", "--keep-list",
        ]
    )
    assert rc == 0
    drop = _pq.read_table(os.path.join(out, "drop")).to_pandas()
    assert set(drop["doc_id"]) == {"b", "c"}
    assert set(drop["kept_doc_id"]) == {"a"}


def test_cli_dedup_keep_list_no_duplicates(ray_session, tmp_path):
    """--keep-list on a clean corpus (zero pairs) completes with an
    empty drop list instead of crashing, in both one-shot and
    incremental modes; a mismatched --out against pinned state refuses."""
    import json
    import os

    import pyarrow.parquet as _pq
    import pytest as _pytest

    from pynomaly_ray.cli import main

    docs = pd.DataFrame(
        {
            "doc_id": ["u1", "u2"],
            "text": ["first unique words " * 6, "second other tokens " * 6],
        }
    )
    corpus = str(tmp_path / "c.parquet")
    _pq.write_table(pa.Table.from_pandas(docs, preserve_index=False), corpus)

    out1 = str(tmp_path / "o1")
    assert main(
        ["dedup", "--input", corpus, "--out", out1, "--method", "minhash",
         "--keep-list"]
    ) == 0
    assert not os.path.exists(os.path.join(out1, "drop")) or not [
        f for f in os.listdir(os.path.join(out1, "drop")) if f.endswith(".parquet")
    ]

    out2 = str(tmp_path / "o2")
    state = str(tmp_path / "state")
    assert main(
        ["dedup", "--input", corpus, "--out", out2, "--method", "minhash",
         "--state-dir", state, "--run-id", "r1", "--keep-list"]
    ) == 0
    # out dir pinned: a different --out with the same state refuses
    with _pytest.raises(SystemExit, match="pinned to --out"):
        main(
            ["dedup", "--input", corpus, "--out", str(tmp_path / "o3"),
             "--method", "minhash", "--state-dir", state, "--run-id", "r2"]
        )


def test_png_roundtrip_filters_and_real_decode_features(ray_session):
    """encode_png -> decode_png is bit-exact for RGB and RGBA (alpha
    dropped on decode); hand-filtered scanlines exercise every PNG
    filter type (0-4) against the spec's reference recurrences; the
    ImageFeatures stage over a real-PNG media table computes features of
    the GENUINELY inflated+unfiltered pixels."""
    import zlib

    import ray.data as rd

    from pynomaly_ray.stages import multimodal as mm

    rng = np.random.RandomState(13)
    for h, w, ch in [(8, 8, 3), (5, 3, 3), (1, 1, 3), (4, 7, 4), (3, 2, 4)]:
        img = rng.randint(0, 256, (h, w, ch)).astype(np.uint8)
        assert np.array_equal(mm.decode_png(mm.encode_png(img)), img[..., :3])

    # every filter type, validated against a per-pixel spec oracle
    def filt_encode(img, ftype):
        h, w, ch = img.shape
        flat = img.reshape(h, w * ch).astype(np.int16)
        scan = np.zeros((h, w * ch + 1), dtype=np.uint8)
        scan[:, 0] = ftype
        for y in range(h):
            prev = flat[y - 1] if y else np.zeros(w * ch, np.int16)
            row = flat[y]
            for x in range(w * ch):
                a = row[x - ch] if x >= ch else 0
                b = prev[x]
                c = prev[x - ch] if x >= ch else 0
                if ftype == 0:
                    pred = 0
                elif ftype == 1:
                    pred = a
                elif ftype == 2:
                    pred = b
                elif ftype == 3:
                    pred = (a + b) // 2
                else:
                    p = a + b - c
                    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa_ <= pb_ and pa_ <= pc_ else (b if pb_ <= pc_ else c)
                scan[y, 1 + x] = (row[x] - pred) % 256
        ihdr = (
            w.to_bytes(4, "big") + h.to_bytes(4, "big") + bytes([8, 2, 0, 0, 0])
        )

        def chunk(t, d):
            return (
                len(d).to_bytes(4, "big") + t + d
                + (zlib.crc32(t + d) & 0xFFFFFFFF).to_bytes(4, "big")
            )

        return (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(scan.tobytes()))
            + chunk(b"IEND", b"")
        )

    img = rng.randint(0, 256, (6, 5, 3)).astype(np.uint8)
    for ftype in range(5):
        assert np.array_equal(
            mm.decode_png(filt_encode(img, ftype)), img
        ), f"filter {ftype}"

    with pytest.raises(ValueError):
        mm.decode_png(b"\x89PNG\r\n\x1a\n truncated")
    # 16-bit depth is rejected (falls through to fake in the dispatch)
    deep = bytearray(mm.encode_png(img))
    depth_off = deep.index(b"IHDR") + 4 + 8
    deep[depth_off] = 16
    with pytest.raises(ValueError):
        mm.decode_png(bytes(deep))

    # dispatch sniffs PNG payloads without PIL/cv2
    dec = mm.detect_image_decoder()
    assert np.array_equal(dec(mm.encode_png(img)), img)

    tbl = mm.make_png_media_table(6, seed=2, size=8)
    out = (
        rd.from_arrow(tbl)
        .map_batches(
            mm.ImageFeatures,
            batch_format="pyarrow",
            batch_size=4,
            concurrency=1,
        )
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    for i in range(6):
        px = mm.decode_png(tbl["payload"][i].as_py()).astype(np.float64)
        assert out.loc[i, "mean_r"] == pytest.approx(px[..., 0].mean())
        assert out.loc[i, "brightness"] == pytest.approx(px.mean())
