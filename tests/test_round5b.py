"""Round-5 additions: decontamination, repetition profile, sequence
packing (placement math + token payload assembly), domain-mix sampling.

The oracle-parity side of these operators runs in test_queries.py (the
parametrized DuckDB check); here are the kernel contracts the SQL can't
see: token-array equality of the packed payload, short-doc exclusion,
NUL-hostile ids/text, and the broadcast cap guard.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data as rd

from tests.conftest import pinned_fanout


def _docs_ds(rows, blocks=3):
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    return rd.from_arrow(t).repartition(blocks)


def _token_ds(tok_lists, blocks=3, ids=None):
    ids = list(range(len(tok_lists))) if ids is None else ids
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "tokens": pa.array(
                [list(map(int, x)) for x in tok_lists], pa.list_(pa.int32())
            ),
            "n_tok": pa.array([len(x) for x in tok_lists], pa.int64()),
        }
    )
    return rd.from_arrow(t).repartition(blocks)


# ---------------------------------------------------------------- decontam


def test_decontaminate_counts_and_short_doc_exclusion(ray_session):
    from pynomaly_ray.stages.decontam import (
        benchmark_shingle_hashes,
        decontaminate,
    )

    bench = _docs_ds([(100, "w x y z q")])  # shingles: "w x y z", "x y z q"
    train = _docs_ds(
        [
            (1, "w x y z other words here"),  # shares "w x y z"
            (2, "completely different text body"),
            (3, "x y z"),  # < k tokens -> excluded entirely
            (4, "w x y z q tail"),  # shares both benchmark shingles
        ]
    )
    ref = benchmark_shingle_hashes(bench, k=4)
    out = (
        decontaminate(train, ref, k=4, concurrency=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert list(out.index) == [1, 2, 4]  # doc 3 excluded (short)
    assert out.loc[1, "n_overlap"] == 1
    assert out.loc[2, "n_overlap"] == 0
    assert out.loc[4, "n_overlap"] == 2
    assert out.loc[4, "n_sh"] == 3  # 6 tokens -> 3 distinct 4-shingles


def test_decontaminate_nul_tokens_distinct(ray_session):
    """Tokens differing only after an embedded NUL must not alias
    (the round-5 hash_strings fix, exercised through the shingle path)."""
    from pynomaly_ray.stages.decontam import (
        benchmark_shingle_hashes,
        decontaminate,
    )

    bench = _docs_ds([(0, "a\x00b x y z")])
    train = _docs_ds([(1, "a\x00c x y z")])  # same except after the NUL
    ref = benchmark_shingle_hashes(bench, k=4)
    out = decontaminate(train, ref, k=4).to_pandas()
    assert int(out["n_overlap"].iloc[0]) == 0


def test_benchmark_cap_guard(ray_session):
    from pynomaly_ray.stages.decontam import benchmark_shingle_hashes

    bench = _docs_ds([(0, "one two three four five six seven")])
    with pytest.raises(ValueError, match="cap"):
        benchmark_shingle_hashes(bench, k=4, cap=1)


def test_repetition_profile_exact(ray_session):
    from pynomaly_ray.stages.decontam import repetition_profile

    docs = _docs_ds(
        [
            (1, "a a a"),  # bigrams: (a,a) x2 -> n=2 d=1 rep=0.5
            (2, "a b c"),  # bigrams distinct -> rep 0
            (3, "solo"),  # < 2 tokens -> excluded
        ]
    )
    out = repetition_profile(docs, k=2).to_pandas().set_index("doc_id")
    assert sorted(out.index) == [1, 2]
    assert (
        out.loc[1, "n_sh"] == 2
        and out.loc[1, "n_distinct"] == 1
        and out.loc[1, "rep_e6"] == 500_000
    )
    assert out.loc[2, "rep_e6"] == 0


# ----------------------------------------------------------------- packing


def test_pack_offsets_matches_numpy_prefix(ray_session):
    from pynomaly_ray.stages.packing import pack_offsets

    rng = np.random.default_rng(5)
    n = 400
    ids = rng.permutation(n).astype(np.int64)  # scrambled across blocks
    w = rng.integers(0, 9, n).astype(np.int64)  # includes zero-weight docs
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids), "n_tok": pa.array(w)})
    ).repartition(5)
    chunk = 17
    with pinned_fanout(4):
        got = pack_offsets(ds, chunk=chunk)
    got = (
        got.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    order = np.argsort(ids, kind="stable")
    w_sorted = w[order]
    start = np.concatenate([[0], np.cumsum(w_sorted)[:-1]])
    keep = w_sorted >= 1
    exp = pd.DataFrame(
        {
            "doc_id": ids[order][keep],
            "n_tok": w_sorted[keep],
            "seq_first": start[keep] // chunk,
            "seq_last": (start[keep] + w_sorted[keep] - 1) // chunk,
            "off_in_seq": start[keep] % chunk,
        }
    )
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True), check_dtype=False)


def test_pack_tokens_token_array_equality(ray_session):
    """The flagship-grade invariant: concatenating the packed sequences
    in seq order reproduces the doc-order token concatenation exactly,
    and every sequence is full except the final partial one."""
    from pynomaly_ray.stages.packing import pack_tokens

    rng = np.random.default_rng(11)
    tok_lists = [
        rng.integers(0, 1000, int(rng.integers(0, 60))).astype(np.int32)
        for _ in range(120)
    ]
    ids = rng.permutation(len(tok_lists)).astype(np.int64)
    ds = _token_ds(tok_lists, blocks=4, ids=list(ids))
    chunk = 16
    with pinned_fanout(3):
        out = pack_tokens(ds, chunk=chunk).to_pandas()
    out = out.sort_values("seq_id").reset_index(drop=True)

    order = np.argsort(ids, kind="stable")
    flat = np.concatenate([tok_lists[i] for i in order]) if len(order) else []
    total = len(flat)
    n_seqs = (total + chunk - 1) // chunk
    assert list(out["seq_id"]) == list(range(n_seqs))
    lens = out["tokens"].map(len).to_numpy()
    assert (lens[:-1] == chunk).all()
    assert lens[-1] == total - chunk * (n_seqs - 1)
    packed_flat = np.concatenate([np.asarray(x) for x in out["tokens"]])
    np.testing.assert_array_equal(packed_flat, flat)


def test_pack_tokens_doc_spanning_many_sequences(ray_session):
    from pynomaly_ray.stages.packing import pack_tokens

    big = np.arange(40, dtype=np.int32)
    ds = _token_ds([np.array([7, 8], np.int32), big], blocks=2, ids=[2, 5])
    with pinned_fanout(2):
        out = pack_tokens(ds, chunk=8).to_pandas().sort_values("seq_id")
    flat = np.concatenate([np.asarray(x) for x in out["tokens"]])
    np.testing.assert_array_equal(
        flat, np.concatenate([[7, 8], np.arange(40)]).astype(np.int32)
    )


# --------------------------------------------------------------------- CLI


def test_cli_pack_and_decontam(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    from pynomaly_ray.cli import main

    docs = "/root/testdata/sf0.001/documents.parquet"

    seq = str(tmp_path / "seq")
    # --clean: the default gen PLANTS violations (n_tok != len(tokens),
    # duplicate ids) for the validation pipeline; packing's contract is
    # a validated corpus
    assert (
        main(["gen", "--out", seq, "--parts", "2", "--rows", "50", "--clean"])
        == 0
    )
    out = str(tmp_path / "packed")
    assert main(["pack", "--input", seq, "--out", out, "--chunk", "64"]) == 0
    packed = pq.read_table(out).to_pandas().sort_values("seq_id")
    lens = packed["tokens"].map(len).to_numpy()
    src_tok = pq.read_table(seq, columns=["n_tok"])["n_tok"]
    assert lens.sum() == src_tok.to_pandas().sum()  # token conservation
    assert (lens[:-1] == 64).all()  # all full except the final sequence

    out2 = str(tmp_path / "offsets")
    assert (
        main(["pack", "--input", seq, "--out", out2, "--chunk", "64",
              "--offsets-only"]) == 0
    )
    off = pq.read_table(out2).to_pandas()
    assert {"doc_id", "seq_first", "seq_last", "off_in_seq"} <= set(off)

    out3 = str(tmp_path / "decontam")
    assert (
        main(["decontam", "--input", docs, "--benchmark", docs, "--out", out3])
        == 0
    )
    prof = pq.read_table(out3).to_pandas()
    # benchmark == train -> every doc fully overlaps itself
    assert (prof["n_overlap"] == prof["n_sh"]).all() and len(prof) > 0
    assert os.path.isdir(out3)


def test_decontam_and_repetition_string_ids(ray_session):
    """The stages are id-type-agnostic: string doc ids ride through
    Arrow filters (never numpy object sorts) and keep their type."""
    from pynomaly_ray.stages.decontam import (
        benchmark_shingle_hashes,
        decontaminate,
        repetition_profile,
    )

    t = pa.table(
        {
            "doc_id": pa.array(["web-1", "web-2", "books-9"], pa.string()),
            "text": pa.array(["w x y z a", "w x y z b", "p q"], pa.string()),
        }
    )
    docs = rd.from_arrow(t).repartition(2)
    ref = benchmark_shingle_hashes(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(["bench-1"], pa.string()),
                    "text": pa.array(["w x y z"], pa.string()),
                }
            )
        ),
        k=4,
    )
    out = decontaminate(docs, ref, k=4).to_pandas().set_index("doc_id")
    assert out.loc["web-1", "n_overlap"] == 1
    assert out.loc["web-2", "n_overlap"] == 1
    assert "books-9" not in out.index  # short doc excluded

    rep = repetition_profile(docs, k=2).to_pandas()
    assert set(rep["doc_id"]) == {"web-1", "web-2", "books-9"}


# ----------------------------------------------------------- epoch shuffle


def test_epoch_shuffle_is_permutation_and_deterministic(ray_session):
    from pynomaly_ray.stages.packing import epoch_shuffle

    ids = np.random.default_rng(3).permutation(300).astype(np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids)})).repartition(4)
    with pinned_fanout(3):
        a = epoch_shuffle(ds, seed=9).to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    # pos is a dense permutation of 0..n-1
    assert sorted(a["pos"]) == list(range(len(ids)))
    # in-order walk of pos is (shuffle_key, doc_id)-sorted
    w = a.sort_values("pos")
    assert (
        w[["shuffle_key", "doc_id"]].values.tolist()
        == w.sort_values(["shuffle_key", "doc_id"])[
            ["shuffle_key", "doc_id"]
        ].values.tolist()
    )
    # same seed reproduces; different seed permutes differently
    with pinned_fanout(3):
        b = epoch_shuffle(ds, seed=9).to_pandas()
        c = epoch_shuffle(ds, seed=10).to_pandas()
    b = b.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    merged = a.merge(c, on="doc_id", suffixes=("_a", "_c"))
    assert (merged["pos_a"] != merged["pos_c"]).any()


# ------------------------------------------------ pack_offsets property


def test_pack_offsets_property_spans_partition_token_stream(ray_session):
    """Hypothesis-style sweep without per-example Ray datasets (one
    session-scoped cluster, many weight vectors): packed spans must
    partition [0, total) exactly — contiguous, disjoint, doc-ordered."""
    from pynomaly_ray.stages.packing import pack_offsets

    rng = np.random.default_rng(21)
    for trial in range(6):
        n = int(rng.integers(1, 200))
        chunk = int(rng.integers(1, 40))
        w = rng.integers(0, 7, n).astype(np.int64)
        ids = rng.permutation(n).astype(np.int64)
        ds = rd.from_arrow(
            pa.table({"doc_id": pa.array(ids), "n_tok": pa.array(w)})
        ).repartition(int(rng.integers(1, 6)))
        with pinned_fanout(int(rng.integers(1, 5))):
            got = pack_offsets(ds, chunk=chunk).to_pandas()
        got = got.sort_values("doc_id")
        order = np.argsort(ids, kind="stable")
        w_s = w[order]
        start = np.concatenate([[0], np.cumsum(w_s)[:-1]])
        keep = w_s >= 1
        # reconstruct spans from the operator's output and compare
        got = got.set_index("doc_id")
        for did, st_, ww in zip(ids[order][keep], start[keep], w_s[keep]):
            row = got.loc[did]
            assert row["seq_first"] == st_ // chunk
            assert row["seq_last"] == (st_ + ww - 1) // chunk
            assert row["off_in_seq"] == st_ % chunk
        assert len(got) == int(keep.sum())


def test_pack_tokens_null_token_rows_skipped(ray_session):
    """NULL token slots (validity-bit nulls whose offsets may span
    arbitrary bytes) contribute nothing — neither placement weight nor
    payload."""
    from pynomaly_ray.stages.packing import pack_tokens

    toks = pa.array([[1, 2, 3], None, [4, 5]], pa.list_(pa.int32()))
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "tokens": toks,
        }
    )
    with pinned_fanout(1):
        out = pack_tokens(rd.from_arrow(t), chunk=4).to_pandas()
    out = out.sort_values("seq_id")
    flat = np.concatenate([np.asarray(x) for x in out["tokens"]])
    np.testing.assert_array_equal(flat, np.array([1, 2, 3, 4, 5], np.int32))


def test_shingle_sql_twins_injective_on_rs_separator(ray_session, tmp_path):
    """The oracle SQL joins shingle words through a length-prefixed
    encoding, so tokens containing the old CHR(30) separator cannot
    alias textually: ['a\\x1eb','c','d','e'] and ['a','b\\x1ec','d','e']
    must NOT count as an overlap (the engine's word-wise hashes never
    did).  Runs BOTH sides over a hostile corpus and diffs."""
    import duckdb
    import pyarrow.parquet as pq

    from pynomaly_ray.pipelines.queries import ORACLE_QUERIES

    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),  # 0 -> benchmark
            "text": pa.array(
                [
                    "a\x1eb c d e",   # benchmark: tokens [a\x1eb, c, d, e]
                    "a b\x1ec d e",   # would alias under a CHR(30) join
                    "a\x1eb c d e tail",  # true overlap with benchmark
                ],
                pa.string(),
            ),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["src0"] * 3),
            "n_chars": pa.array([13, 13, 18], pa.int64()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(docs, str(sf / "documents.parquet"))

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    for name in ("decontaminate", "repetition_profile"):
        fn, sql = ORACLE_QUERIES[name]
        mine = fn(str(sf))
        theirs = con.sql(sql).df()
        mine = mine[sorted(mine.columns)].reset_index(drop=True)
        theirs = theirs[sorted(theirs.columns)].reset_index(drop=True)
        pd.testing.assert_frame_equal(mine, theirs, check_dtype=False)
    # and the engine's answer is the RIGHT one: only doc 2 overlaps
    out = ORACLE_QUERIES["decontaminate"][0](str(sf))
    assert list(out["doc_id"]) == [2]

