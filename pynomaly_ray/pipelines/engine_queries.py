"""Engine-only query entries (no SQL equivalent -> rows-only driver
checks): LoOP scoring, near-dup families, text analysis, multimodal.

Each callable takes ``sf_dir`` and returns a small deterministic result
over the driver's testdata tables.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from pynomaly_ray.pipelines.queries import _pq, collect_sorted


def _embedding_dim(path: str, col: str = "embedding") -> int:
    """Vector dimensionality probed from ONE row (a full-column driver
    read just to take len() of the first element does not survive real
    table sizes)."""
    import pyarrow.parquet as papq

    if os.path.isdir(path):  # partitioned layout: probe the first file
        # walk recursively so hive-partitioned output (e.g. the
        # validated/<run>/partition_id=*/ layout) resolves too, and fail
        # readably on an empty directory instead of IndexError
        files = sorted(
            os.path.join(root, f)
            for root, _dirs, names in os.walk(path)
            for f in names
            if f.endswith(".parquet")
        )
        if not files:
            raise ValueError(
                f"no .parquet files found under {path!r}; expected a "
                "flat or hive-partitioned parquet directory"
            )
        path = files[0]
    pf = papq.ParquetFile(path)
    batch = next(pf.iter_batches(batch_size=1, columns=[col]))
    return len(batch[col][0])


def q_loop_embeddings(sf_dir: str):
    """LoOP outlier scores over the embeddings table: the reference's
    core capability exposed as a query (vec_id, loop score scaled 1e6).
    Non-SQL-expressible (iterative kNN + erf normalization).

    Routed through ``distributed_loop_scores`` with a single bucket: the
    whole-table exact global fit (identical to the reference's
    single-cluster fit) runs in ONE Ray worker task, never on the
    driver; many-bucket variants (q_loop_distributed) are the path for
    row counts beyond one worker's O(n^2)."""
    from pynomaly_ray.stages.loop_distributed import distributed_loop_scores

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    scored = distributed_loop_scores(
        ds, n_neighbors=10, extent=3, num_buckets=1
    )
    df = scored.to_pandas()
    df["loop_e6"] = np.floor(df.pop("loop_score") * 1_000_000 + 0.5).astype(
        np.int64
    )
    return collect_sorted(df, ["vec_id"])


def q_minhash_dedup(sf_dir: str):
    """MinHash-LSH near-duplicate pairs over documents (doc_a, doc_b,
    jaccard scaled 1e3).

    Oracle surface: the per-doc (band_id, band_hash) rows are
    materialized and the candidate exchange re-reads them, so the DuckDB
    twin reconstructs the ENTIRE downstream pipeline from the same rows:
    band-bucket collision groups (incl. the >256 star cap's
    lexicographically-first representative), distinct candidate pairs,
    and the exact word-shingle Jaccard verify at tau=0.5 (short docs
    contribute one whole-doc shingle, mirroring
    ``shingles_from_token_lists``).  Only the minhash signature math
    itself stays SQL-opaque — it is pinned by the batch/single parity
    property test and certified indirectly: a signature perturbation
    would change band groups and break this hash match."""
    from pynomaly_ray.stages.dedup import minhash_lsh_duplicates

    docs = _pq(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("doc_id"),
            "doc_id",
            pa.compute.cast(t["doc_id"], pa.string()),
        ),
        batch_format="pyarrow",
    )
    pairs = minhash_lsh_duplicates(
        docs,
        n_perm=64,
        n_bands=16,
        jaccard_threshold=0.5,
        bands_sink=_surface_dir("minhash_bands"),
    )
    if len(pairs):
        pairs["jaccard_e3"] = np.floor(
            pairs.pop("jaccard") * 1000 + 0.5
        ).astype(np.int64)
    else:
        pairs = pd.DataFrame({"doc_a": [], "doc_b": [], "jaccard_e3": []})
    return pairs.reset_index(drop=True)


SQL_MINHASH_DEDUP = r"""
WITH b AS (
  SELECT DISTINCT doc_id, band_id, band_hash
  FROM read_parquet('/tmp/pnr_oracle_surface/minhash_bands/*.parquet')
),
g AS (
  SELECT doc_id, band_id, band_hash,
         COUNT(*) OVER (PARTITION BY band_id, band_hash) AS sz,
         MIN(doc_id) OVER (PARTITION BY band_id, band_hash) AS rep
  FROM b
),
cand AS (
  SELECT DISTINCT doc_a, doc_b FROM (
    SELECT a.doc_id AS doc_a, b2.doc_id AS doc_b
    FROM g a JOIN g b2 USING (band_id, band_hash)
    WHERE a.sz <= 256 AND a.doc_id < b2.doc_id
    UNION ALL
    SELECT rep AS doc_a, doc_id AS doc_b
    FROM g WHERE sz > 256 AND doc_id <> rep
  )
),
-- the char class below is EXACTLY Python str.split()'s whitespace set
-- (all 29 White_Space/isspace codepoints), so SQL tokenization matches
-- the engine's shingle kernel on ANY text, not just ASCII testdata
tok AS (
  SELECT CAST(doc_id AS VARCHAR) AS doc_id,
         regexp_extract_all(COALESCE(text, ''),
         '[^\x{9}-\x{d}\x{1c}-\x{20}\x{85}\x{a0}\x{1680}\x{2000}-\x{200a}\x{2028}-\x{2029}\x{202f}\x{205f}\x{3000}]+') AS w
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(list_transform(w[i:i+4], t -> CONCAT(len(t), ':', t)), '') AS shingle
  FROM tok, UNNEST(generate_series(1, len(w) - 4)) AS t(i)
  WHERE len(w) >= 5
  UNION
  SELECT doc_id, array_to_string(list_transform(w, t -> CONCAT(len(t), ':', t)), '') AS shingle
  FROM tok WHERE len(w) < 5
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT c.doc_a, c.doc_b, COUNT(*) AS i
  FROM cand c
  JOIN sh a ON a.doc_id = c.doc_a
  JOIN sh b2 ON b2.doc_id = c.doc_b AND b2.shingle = a.shingle
  GROUP BY c.doc_a, c.doc_b
)
SELECT doc_a, doc_b,
       CAST(FLOOR((CAST(i AS DOUBLE) / CAST(na.n + nb.n - i AS DOUBLE))
                  * 1000 + 0.5) AS BIGINT) AS jaccard_e3
FROM inter
JOIN sizes na ON doc_a = na.doc_id
JOIN sizes nb ON doc_b = nb.doc_id
WHERE CAST(i AS DOUBLE) / CAST(na.n + nb.n - i AS DOUBLE) >= 0.5
ORDER BY doc_a, doc_b
"""

# (registered into ORACLE_QUERIES below, after the queries.py import)


def q_minhash_dedup_incremental(sf_dir: str):
    """Cross-run incremental MinHash dedup: the documents table split
    into two 'crawl snapshots' (even doc_ids first, then the full
    corpus).  Run 2 re-hashes only the new docs and emits only pairs
    touching them; the UNION of both runs' pairs is returned and must
    COVER the one-shot pipeline's pair set on the same corpus (asserted
    here — a coverage miss raises rather than returning wrong rows).
    (Subset, not equality: once a collision group crosses the star cap
    the per-run star representative may differ from the full-corpus one,
    so the union can legitimately carry extra pairs.)

    Oracle surface: the state dir IS the surface — the per-run band
    tables the incremental machinery persists anyway
    (``state/bands/run1``, ``state/bands/run2``) are left in place, and
    the DuckDB twin reconstructs BOTH runs from them: run 1's candidate
    pairs, run 2's candidates over the union of prior + new bands with
    prior-prior pairs suppressed (the cross-run emission rule), the
    star caps, the pair union, and the exact shingle-Jaccard verify —
    certifying the incremental crawl-accumulation semantics end-to-end,
    not just one run."""
    from pynomaly_ray.stages.dedup import (
        commit_run_state,
        minhash_lsh_duplicates,
        minhash_lsh_duplicates_incremental,
    )

    def _docs(flt=None):
        def conv(t: pa.Table) -> pa.Table:
            if flt is not None:
                t = t.filter(flt(t))
            return pa.table(
                {
                    "doc_id": pa.compute.cast(t["doc_id"], pa.string()),
                    "text": t["text"],
                }
            )

        return _pq(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            conv, batch_format="pyarrow"
        )

    even = lambda t: pa.compute.equal(  # noqa: E731
        pa.compute.bit_wise_and(t["doc_id"], 1), 0
    )
    kw = dict(n_perm=64, n_bands=16, jaccard_threshold=0.5)
    state = _surface_dir("minhash_inc_state")
    p1 = minhash_lsh_duplicates_incremental(_docs(even), state, "run1", **kw)
    commit_run_state(state, "run1")  # run1's pairs are held: commit it
    p2 = minhash_lsh_duplicates_incremental(_docs(), state, "run2", **kw)
    commit_run_state(state, "run2")
    both = pd.concat([p1, p2], ignore_index=True)
    oneshot = minhash_lsh_duplicates(_docs(), **kw)
    if not set(zip(oneshot.doc_a, oneshot.doc_b)) <= set(
        zip(both.doc_a, both.doc_b)
    ):
        raise AssertionError(
            "incremental pair union fails to cover the one-shot pair set"
        )
    both["jaccard_e3"] = np.floor(both.pop("jaccard") * 1000 + 0.5).astype(
        np.int64
    )
    return collect_sorted(both, ["doc_a", "doc_b"])


SQL_MINHASH_DEDUP_INCREMENTAL = r"""
WITH b1 AS (
  SELECT DISTINCT doc_id, band_id, band_hash
  FROM read_parquet(
    '/tmp/pnr_oracle_surface/minhash_inc_state/bands/run1/*.parquet')
),
b2new AS (
  SELECT DISTINCT doc_id, band_id, band_hash
  FROM read_parquet(
    '/tmp/pnr_oracle_surface/minhash_inc_state/bands/run2/*.parquet')
),
g1 AS (
  SELECT doc_id, band_id, band_hash,
         COUNT(*) OVER (PARTITION BY band_id, band_hash) AS sz,
         MIN(doc_id) OVER (PARTITION BY band_id, band_hash) AS rep
  FROM b1
),
p1 AS (
  SELECT DISTINCT doc_a, doc_b FROM (
    SELECT a.doc_id AS doc_a, b2.doc_id AS doc_b
    FROM g1 a JOIN g1 b2 USING (band_id, band_hash)
    WHERE a.sz <= 256 AND a.doc_id < b2.doc_id
    UNION ALL
    SELECT rep AS doc_a, doc_id AS doc_b
    FROM g1 WHERE sz > 256 AND doc_id <> rep
  )
),
u AS (
  SELECT doc_id, band_id, band_hash FROM b1
  UNION ALL
  SELECT doc_id, band_id, band_hash FROM b2new
),
g2 AS (
  SELECT doc_id, band_id, band_hash,
         COUNT(*) OVER (PARTITION BY band_id, band_hash) AS sz,
         MIN(doc_id) OVER (PARTITION BY band_id, band_hash) AS rep
  FROM u
),
cand2 AS (
  SELECT DISTINCT doc_a, doc_b FROM (
    SELECT a.doc_id AS doc_a, b2.doc_id AS doc_b
    FROM g2 a JOIN g2 b2 USING (band_id, band_hash)
    WHERE a.sz <= 256 AND a.doc_id < b2.doc_id
    UNION ALL
    SELECT rep AS doc_a, doc_id AS doc_b
    FROM g2 WHERE sz > 256 AND doc_id <> rep
  )
),
prior AS (SELECT DISTINCT doc_id FROM b1),
p2 AS (
  SELECT doc_a, doc_b FROM cand2
  WHERE NOT (doc_a IN (SELECT doc_id FROM prior)
             AND doc_b IN (SELECT doc_id FROM prior))
),
cand AS (
  SELECT DISTINCT doc_a, doc_b
  FROM (SELECT * FROM p1 UNION ALL SELECT * FROM p2)
),
-- the char class below is EXACTLY Python str.split()'s whitespace set
-- (all 29 White_Space/isspace codepoints), so SQL tokenization matches
-- the engine's shingle kernel on ANY text, not just ASCII testdata
tok AS (
  SELECT CAST(doc_id AS VARCHAR) AS doc_id,
         regexp_extract_all(COALESCE(text, ''),
         '[^\x{9}-\x{d}\x{1c}-\x{20}\x{85}\x{a0}\x{1680}\x{2000}-\x{200a}\x{2028}-\x{2029}\x{202f}\x{205f}\x{3000}]+') AS w
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(list_transform(w[i:i+4], t -> CONCAT(len(t), ':', t)), '') AS shingle
  FROM tok, UNNEST(generate_series(1, len(w) - 4)) AS t(i)
  WHERE len(w) >= 5
  UNION
  SELECT doc_id, array_to_string(list_transform(w, t -> CONCAT(len(t), ':', t)), '') AS shingle
  FROM tok WHERE len(w) < 5
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT c.doc_a, c.doc_b, COUNT(*) AS i
  FROM cand c
  JOIN sh a ON a.doc_id = c.doc_a
  JOIN sh b2 ON b2.doc_id = c.doc_b AND b2.shingle = a.shingle
  GROUP BY c.doc_a, c.doc_b
)
SELECT doc_a, doc_b,
       CAST(FLOOR((CAST(i AS DOUBLE) / CAST(na.n + nb.n - i AS DOUBLE))
                  * 1000 + 0.5) AS BIGINT) AS jaccard_e3
FROM inter
JOIN sizes na ON doc_a = na.doc_id
JOIN sizes nb ON doc_b = nb.doc_id
WHERE CAST(i AS DOUBLE) / CAST(na.n + nb.n - i AS DOUBLE) >= 0.5
ORDER BY doc_a, doc_b
"""


def q_simhash_fingerprints(sf_dir: str):
    """SimHash + rolling-hash fingerprints per document (deterministic)."""
    from pynomaly_ray.stages.dedup import SimHasher
    from pynomaly_ray.stages.text import Fingerprint

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(SimHasher(), batch_format="pandas").map_batches(
        Fingerprint(), batch_format="pandas"
    )
    df = out.to_pandas()[["doc_id", "simhash", "fingerprint"]]
    return collect_sorted(df, ["doc_id"])


def q_simhash_profile(sf_dir: str):
    """Distributed profile of the SimHash/fingerprint surface: per
    set-bit-count bucket of the 63-bit simhash, the doc count and the
    DISTINCT full-content fingerprint count.

    Same surface pattern as :func:`q_lang_id`: the per-doc simhash +
    fingerprint rows (SipHash/CRC math — non-SQL-expressible, pinned by
    the bit-parity and hypothesis pytests) are materialized to parquet,
    and the DISTRIBUTED aggregation over that surface is what the DuckDB
    oracle certifies — including popcount parity (numpy unpackbits ==
    DuckDB ``bit_count`` on the same int64 values) and a map-side
    combine: duplicate (n_bits, fingerprint) pairs collapse to partial
    counts inside each batch before the exchange, so the reducer sums
    counts and takes nunique over already-thinned rows."""
    from pynomaly_ray.functions.exchange import hash_aggregate
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.dedup import SimHasher
    from pynomaly_ray.stages.text import Fingerprint

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    surf = _surface_dir("simhash")
    docs.map_batches(SimHasher(), batch_format="pandas").map_batches(
        Fingerprint(), batch_format="pandas"
    ).map_batches(
        lambda t: t.select(["doc_id", "simhash", "fingerprint"]),
        batch_format="pyarrow",
    ).write_parquet(surf)

    def partial(t: pa.Table) -> pa.Table:
        sh = t["simhash"].to_numpy(zero_copy_only=False).astype(np.int64)
        bits = (
            np.unpackbits(sh.view(np.uint64).view(np.uint8))
            .reshape(len(sh), 64)
            .sum(axis=1)
            .astype(np.int64)
        )
        df = pd.DataFrame(
            {
                "n_bits": bits,
                "fingerprint": t["fingerprint"].to_numpy(zero_copy_only=False),
            }
        )
        g = (
            df.groupby(["n_bits", "fingerprint"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        g["cnt"] = g["cnt"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(
            None
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("n_bits", sort=False)
            .agg(n_docs=("cnt", "sum"), n_distinct_fp=("fingerprint", "nunique"))
            .reset_index()
        )
        return g.astype(
            {"n_bits": np.int64, "n_docs": np.int64, "n_distinct_fp": np.int64}
        )

    out = hash_aggregate(
        read_parquet_clean(surf).map_batches(partial, batch_format="pyarrow"),
        ["n_bits"],
        merge,
    )
    return collect_sorted(out, ["n_bits"])


SQL_SIMHASH_PROFILE = """
SELECT CAST(bit_count(simhash) AS BIGINT) AS n_bits,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(DISTINCT fingerprint) AS BIGINT) AS n_distinct_fp
FROM read_parquet('/tmp/pnr_oracle_surface/simhash/*.parquet')
GROUP BY n_bits
ORDER BY n_bits
"""


def _surface_dir(name: str) -> str:
    """Fixed scratch dir for a query's materialized per-doc surface.

    The oracle-SQL string is static (the driver calls ``oracle_sql()``
    with no arguments), so the path cannot embed ``sf_dir`` — instead
    each invocation CLEARS and rewrites the surface, and the harness
    runs a query's SQL immediately after its Ray callable, so the SQL
    always reads the surface the matching run just wrote.  Each query
    owns a UNIQUE subdirectory, so harness ordering across queries is
    irrelevant; the one unsupported shape is two CONCURRENT sessions
    running the SAME query (a shared fixed path is the price of the
    static SQL contract — surfaces are certification scaffolding, not
    part of the production operators).
    """
    import shutil

    d = os.path.join("/tmp", "pnr_oracle_surface", name)
    shutil.rmtree(d, ignore_errors=True)
    return d


def q_lang_id(sf_dir: str):
    """Heuristic language-ID accuracy per true lang (n_docs, n_match).

    The heuristic itself is non-SQL-expressible; its per-doc predictions
    are materialized to a surface parquet and the DISTRIBUTED aggregation
    over that surface is what the DuckDB oracle certifies (the heuristic
    stays pinned by pytest).  The aggregate re-reads the written surface
    so engine and oracle consume byte-identical input.
    """
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.text import LangId

    docs = _pq(sf_dir, "documents", ["doc_id", "text", "lang"])
    pred = docs.map_batches(LangId(), batch_format="pandas").map_batches(
        lambda t: t.select(["doc_id", "lang", "lang_pred"]),
        batch_format="pyarrow",
    )
    surf = _surface_dir("lang_pred")
    pred.write_parquet(surf)

    def agg(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["match"] = (df["lang_pred"] == df["lang"]).astype(np.int64)
        g = (
            df.groupby("lang", sort=False)
            .agg(n_docs=("match", "size"), n_match=("match", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(
            None
        )

    from pynomaly_ray.functions.exchange import hash_aggregate

    merged = hash_aggregate(
        read_parquet_clean(surf).map_batches(agg, batch_format="pyarrow"),
        ["lang"],
        lambda df: df.groupby("lang", sort=False).sum().reset_index(),
    )
    return collect_sorted(merged, ["lang"])


SQL_LANG_ID = """
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(CASE WHEN lang_pred = lang THEN 1 ELSE 0 END) AS BIGINT)
           AS n_match
FROM read_parquet('/tmp/pnr_oracle_surface/lang_pred/*.parquet')
GROUP BY lang
ORDER BY lang
"""


def q_quality_scores(sf_dir: str):
    """Per-source text-quality aggregates (counts of low-quality docs).

    Same surface-parquet pattern as :func:`q_lang_id`: the heuristic's
    per-doc score (scaled to ``quality_e6`` so both sides compare exact
    integers) is written out, and the distributed per-source aggregation
    over that surface is oracle-certified.
    """
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.text import QualityScore

    docs = _pq(sf_dir, "documents", ["doc_id", "text", "source"])

    def to_e6(df: pd.DataFrame) -> pd.DataFrame:
        df["quality_e6"] = np.floor(
            df.pop("quality").to_numpy() * 1_000_000 + 0.5
        ).astype(np.int64)
        return df[["doc_id", "source", "quality_e6"]]

    scored = docs.map_batches(QualityScore(), batch_format="pandas").map_batches(
        to_e6, batch_format="pandas"
    )
    surf = _surface_dir("quality")
    scored.write_parquet(surf)

    def agg(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["low_q"] = (df["quality_e6"] < 500_000).astype(np.int64)
        g = (
            df.groupby("source", sort=False)
            .agg(n_docs=("low_q", "size"), n_low_quality=("low_q", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(
            None
        )

    from pynomaly_ray.functions.exchange import hash_aggregate

    merged = hash_aggregate(
        read_parquet_clean(surf).map_batches(agg, batch_format="pyarrow"),
        ["source"],
        lambda df: df.groupby("source", sort=False).sum().reset_index(),
    )
    return collect_sorted(merged, ["source"])


SQL_QUALITY_SCORES = """
SELECT source, COUNT(*) AS n_docs,
       CAST(SUM(CASE WHEN quality_e6 < 500000 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_low_quality
FROM read_parquet('/tmp/pnr_oracle_surface/quality/*.parquet')
GROUP BY source
ORDER BY source
"""


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs via multi-table hyperplane
    LSH with distributed exact-cosine verification.  Threshold 0.4 sits
    above the testdata's 99.9th-percentile pairwise cosine, so the
    result is non-empty (round 1's 0.95 returned zero rows and verified
    nothing) while staying sparse; recall vs the exact variant
    (embedding_neardup_exact oracle query) is the LSH tradeoff.

    Oracle surface: the (vec_id, table_id, bucket) exchange input is
    materialized (buckets_sink) and re-read, and the threshold compare
    runs on the integer e6 grid both sides, so the DuckDB twin
    reconstructs the collision groups, the >512 star cap, the
    cross-table pair dedup, and the exact-cosine verify from the same
    rows — only the hyperplane sign math stays SQL-opaque (a plane
    perturbation would change the buckets and break this hash match)."""
    from pynomaly_ray.stages.similarity import near_dup_pairs_embedding

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    dim = _embedding_dim(os.path.join(sf_dir, "embeddings.parquet"))
    pairs = near_dup_pairs_embedding(
        ds,
        dim=dim,
        threshold=0.4,
        n_planes=4,
        n_tables=8,
        buckets_sink=_surface_dir("lsh_buckets"),
        threshold_on_e6_grid=True,
    )
    if len(pairs):
        pairs["cosine_e6"] = np.floor(
            pairs.pop("cosine") * 1_000_000 + 0.5
        ).astype(np.int64)
    else:
        pairs = pd.DataFrame({"vec_a": [], "vec_b": [], "cosine_e6": []})
    return pairs


SQL_EMBEDDING_NEARDUP = """
WITH s AS (
  SELECT DISTINCT vec_id, table_id, bucket
  FROM read_parquet('/tmp/pnr_oracle_surface/lsh_buckets/*.parquet')
),
g AS (
  SELECT vec_id, table_id, bucket,
         COUNT(*) OVER (PARTITION BY table_id, bucket) AS sz,
         MIN(vec_id) OVER (PARTITION BY table_id, bucket) AS rep
  FROM s
),
cand AS (
  SELECT DISTINCT vec_a, vec_b FROM (
    SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
    FROM g a JOIN g b USING (table_id, bucket)
    WHERE a.sz <= 512 AND a.vec_id < b.vec_id
    UNION ALL
    SELECT rep AS vec_a, vec_id AS vec_b
    FROM g WHERE sz > 512 AND vec_id <> rep
  )
)
SELECT vec_a, vec_b, cosine_e6 FROM (
  SELECT c.vec_a, c.vec_b,
         CAST(FLOOR(list_cosine_similarity(
             ea.embedding::DOUBLE[], eb.embedding::DOUBLE[]
         ) * 1000000 + 0.5) AS BIGINT) AS cosine_e6
  FROM cand c
  JOIN embeddings ea ON ea.vec_id = c.vec_a
  JOIN embeddings eb ON eb.vec_id = c.vec_b
)
WHERE cosine_e6 >= 400000
ORDER BY vec_a, vec_b
"""


def q_audio_features(sf_dir: str):
    """Multimodal audio: deterministic REAL 16-bit PCM WAV payloads ->
    actor-pool tier-3 numpy decode + per-clip features (genuine
    bytes-to-PCM decode; see stages/multimodal.decode_wav)."""
    from pynomaly_ray.stages.multimodal import AudioFeatures, make_wav_media_table

    ds = rd.from_arrow(make_wav_media_table(48, seed=4))
    feats = ds.map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=16, concurrency=(1, 2)
    ).to_pandas()
    for c in ["duration_s", "rms", "zero_cross_rate"]:
        feats[c] = np.floor(feats[c] * 1_000_000 + 0.5).astype(np.int64)
    return collect_sorted(feats, ["media_id"])


def q_image_features(sf_dir: str):
    """Multimodal image: deterministic REAL uncompressed-BMP and
    zlib-compressed PNG payloads -> actor-pool tier-3 numpy decode +
    feature extraction, with the sniffing dispatch choosing the codec
    per row (genuine bytes-to-pixels decode for both formats; see
    stages/multimodal.decode_bmp / decode_png)."""
    from pynomaly_ray.stages.multimodal import (
        ImageFeatures,
        make_bmp_media_table,
        make_png_media_table,
    )

    ds = rd.from_arrow(make_bmp_media_table(64)).union(
        rd.from_arrow(make_png_media_table(64))
    )
    feats = ds.map_batches(
        ImageFeatures, batch_format="pyarrow", batch_size=16, concurrency=(1, 2)
    ).to_pandas()
    for c in ["mean_r", "mean_g", "mean_b", "brightness"]:
        feats[c] = np.floor(feats[c] * 1000 + 0.5).astype(np.int64)
    return collect_sorted(feats, ["media_id"])


def q_loop_distributed(sf_dir: str):
    """Distributed LoOP over embeddings: hyperplane-LSH buckets as
    cluster labels, one exact per-bucket fit per Ray task — the scale
    path for LoOP over row counts the reference cannot hold in RAM."""
    from pynomaly_ray.stages.loop_distributed import distributed_loop_scores
    from pynomaly_ray.stages.similarity import HyperplaneLSH

    dim = _embedding_dim(os.path.join(sf_dir, "embeddings.parquet"))
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    scored = distributed_loop_scores(
        ds,
        bucketer=HyperplaneLSH(dim=dim, n_planes=3),
        n_neighbors=10,
        extent=3,
        num_buckets=8,
    )
    df = scored.to_pandas()
    df["loop_e6"] = np.floor(df.pop("loop_score") * 1_000_000 + 0.5).astype(
        np.int64
    )
    return collect_sorted(df, ["vec_id"])


_VV_VOCAB = 32768


def q_validation_violations(sf_dir: str):
    """Flagship-certifying oracle query: the validation pipeline's
    violation machinery vs SQL, on a corpus with INJECTED violations.

    documents are tokenized into the engine's native sequence shape,
    then deterministically corrupted (n_tok off-by-one, unknown
    sources, out-of-range token ids, duplicated doc_ids — selected by
    the stable doc_id hash), and the corrupted sequence surface is
    written to parquet.  The FULL distributed validation pipeline
    (Stage-A constraint kernels + the salted doc_id-uniqueness
    exchange) then runs over the surface read back from disk, and the
    per-(check, partition_id) violation counts are returned.  The
    DuckDB oracle recomputes every count from the same surface parquet
    — list predicates for n_tok/token checks, a window-function
    reconstruction of the occurrence-level duplicate semantics (first
    occurrence in partition order is free) — certifying constraint
    detection, uniqueness, and violation collection end-to-end.
    Clean-corpus behavior is separately pinned by n_chars_check (0
    violations) and the validation e2e pytest suite.
    """
    import pyarrow.parquet as papq

    from pynomaly_ray.config import ValidationConfig
    from pynomaly_ray.functions.hashing import hash_strings
    from pynomaly_ray.pipelines.validation import run_validation
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.tokenize import Tokenizer

    docs = _pq(sf_dir, "documents", ["doc_id", "text", "source"])
    seq = docs.map_batches(
        Tokenizer,
        fn_constructor_kwargs={"vocab_size": _VV_VOCAB},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )

    def corrupt(t: pa.Table) -> pa.Table:
        h = hash_strings(t["doc_id"])
        n_tok = t["n_tok"].to_numpy(zero_copy_only=False).astype(np.int32).copy()
        n_tok[h % 7 == 0] += 1  # -> n_tok_mismatch
        source = np.asarray(t["source"].to_pylist(), dtype=object)
        source[h % 11 == 1] = "###invalid###"  # -> unknown_source
        comb = t["tokens"].combine_chunks()
        off = comb.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = (
            comb.values.to_numpy(zero_copy_only=False)[off[0] : off[-1]]
            .astype(np.int32)
            .copy()
        )
        off0 = off - off[0]
        lens = np.diff(off0)
        sel = np.flatnonzero((h % 13 == 2) & (lens > 0))
        vals[off0[:-1][sel]] = _VV_VOCAB + 5  # -> token_out_of_range
        out = pa.table(
            {
                "doc_id": t["doc_id"],
                "tokens": pa.ListArray.from_arrays(
                    pa.array(off0, pa.int32()), pa.array(vals, pa.int32())
                ),
                "n_tok": pa.array(n_tok, pa.int32()),
                "source": pa.array(source, pa.string()),
                "partition_id": t["partition_id"],
            }
        )
        dup = np.flatnonzero(h % 17 == 3)  # -> duplicate_doc_id
        if len(dup):
            out = pa.concat_tables([out, out.take(pa.array(dup))])
        return out

    surf = _surface_dir("sequences")
    seq.map_batches(corrupt, batch_format="pyarrow").write_parquet(surf)

    valid_sources = (
        papq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["source"]
        )["source"]
        .unique()
        .to_pylist()
    )
    cfg = ValidationConfig(
        valid_sources=valid_sources, vocab_size=_VV_VOCAB, n_neighbors=10, extent=3
    )
    res = run_validation(read_parquet_clean(surf), cfg, out_dir=None)
    v = res.violations
    df = v.to_pandas() if hasattr(v, "to_pandas") else v
    out = (
        df.groupby(["check", "partition_id"], sort=False)
        .size()
        .reset_index(name="n_violations")
    )
    out["n_violations"] = out["n_violations"].astype(np.int64)
    return collect_sorted(out, ["check", "partition_id"])


SQL_VALIDATION_VIOLATIONS = """
WITH s AS (
  SELECT doc_id, partition_id, source, n_tok, tokens
  FROM read_parquet('/tmp/pnr_oracle_surface/sequences/*.parquet')
)
SELECT * FROM (
  SELECT 'n_tok_mismatch' AS "check", partition_id,
         CAST(COUNT(*) AS BIGINT) AS n_violations
  FROM s
  WHERE tokens IS NOT NULL AND (n_tok IS NULL OR n_tok != len(tokens))
  GROUP BY partition_id
  UNION ALL
  SELECT 'unknown_source', partition_id, CAST(COUNT(*) AS BIGINT)
  FROM s
  WHERE source IS NULL OR source NOT IN (SELECT DISTINCT source FROM documents)
  GROUP BY partition_id
  UNION ALL
  SELECT 'token_out_of_range', partition_id, CAST(COUNT(*) AS BIGINT)
  FROM s
  WHERE tokens IS NOT NULL
    AND len(list_filter(tokens, t -> t < 0 OR t >= 32768)) > 0
  GROUP BY partition_id
  UNION ALL
  SELECT 'duplicate_doc_id', partition_id,
         CAST(SUM(cnt - CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT)
  FROM (
    SELECT doc_id, partition_id, COUNT(*) AS cnt,
           ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY partition_id) AS rn,
           SUM(COUNT(*)) OVER (PARTITION BY doc_id) AS total
    FROM s GROUP BY doc_id, partition_id
  )
  WHERE total > 1
  GROUP BY partition_id
  HAVING SUM(cnt - CASE WHEN rn = 1 THEN 1 ELSE 0 END) > 0
)
ORDER BY "check", partition_id
"""


# registered into the oracle-checked suite (this module already imports
# queries.py, so the registration lives here to avoid an import cycle;
# __ray_entry__.oracle_sql() imports this module before reading the dict)
from pynomaly_ray.pipelines.queries import ORACLE_QUERIES

ORACLE_QUERIES["minhash_dedup"] = (q_minhash_dedup, SQL_MINHASH_DEDUP)
ORACLE_QUERIES["minhash_dedup_incremental"] = (
    q_minhash_dedup_incremental,
    SQL_MINHASH_DEDUP_INCREMENTAL,
)
ORACLE_QUERIES["embedding_neardup"] = (q_embedding_neardup, SQL_EMBEDDING_NEARDUP)

ORACLE_QUERIES.update(
    {
        "lang_id": (q_lang_id, SQL_LANG_ID),
        "quality_scores": (q_quality_scores, SQL_QUALITY_SCORES),
        "validation_violations": (
            q_validation_violations,
            SQL_VALIDATION_VIOLATIONS,
        ),
        "simhash_profile": (q_simhash_profile, SQL_SIMHASH_PROFILE),
    }
)


ENGINE_QUERIES = {
    "loop_distributed": q_loop_distributed,
    "loop_embeddings": q_loop_embeddings,
    # minhash_dedup + minhash_dedup_incremental moved to ORACLE_QUERIES:
    # their band surfaces are parquet-materialized so candidate
    # generation, cross-run suppression, and verify are
    # DuckDB-oracle-certified (see SQL_MINHASH_DEDUP[_INCREMENTAL])
    "simhash_fingerprints": q_simhash_fingerprints,
    # lang_id / quality_scores moved to ORACLE_QUERIES (queries.py):
    # their per-doc surface is parquet-materialized so the distributed
    # aggregation is DuckDB-oracle-certified; embedding_neardup moved
    # likewise via its bucket surface (SQL_EMBEDDING_NEARDUP)
    "image_features": q_image_features,
    "audio_features": q_audio_features,
}


_MATRIX_MODE_CAP = 4096


@ray.remote
def _fit_matrix_mode(path: str) -> pd.DataFrame:
    import pyarrow.parquet as papq

    from pynomaly_ray.loop_core import LocalOutlierProbability

    t = papq.read_table(path, columns=["vec_id", "embedding"])
    vec_ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    M = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(vec_ids, kind="stable")[:_MATRIX_MODE_CAP]
    vec_ids, M = vec_ids[order], M[order]
    # Manhattan distances (a metric loop_core's internal kNN lacks),
    # computed in row chunks: the one-shot (n, n, d) broadcast would
    # be n^2*d*8 bytes transient (8.6 GB at the 4096-row cap with
    # d=64) — chunking keeps the temporary at chunk*n*d
    k = 10
    n = len(M)
    D = np.empty((n, n), dtype=np.float64)
    step = max(1, (1 << 24) // max(n * M.shape[1], 1))  # ~128MB temp
    for s in range(0, n, step):
        e = min(s + step, n)
        D[s:e] = np.abs(M[s:e, None, :] - M[None, :, :]).sum(axis=2)
    np.fill_diagonal(D, np.inf)
    idx = np.argpartition(D, k, axis=1)[:, :k]
    dist = np.take_along_axis(D, idx, axis=1)
    model = LocalOutlierProbability(
        distance_matrix=dist, neighbor_matrix=idx, n_neighbors=k
    ).fit()
    scores = np.asarray(model.local_outlier_probabilities, dtype=np.float64)
    return pd.DataFrame(
        {
            "vec_id": vec_ids,
            "loop_e6": np.floor(scores * 1_000_000 + 0.5).astype(np.int64),
        }
    )


def q_loop_matrix_mode(sf_dir: str):
    """LoOP via precomputed distance/neighbor matrices (the reference's
    bring-your-own-metric escape hatch, README.md:371-413) over
    embeddings with a Manhattan metric — demonstrates §2.10 at the query
    surface. Deterministic (vec_id, loop_e6).

    Matrix mode is inherently a whole-matrix API (the user hands over
    O(n*k) matrices), so the demo runs as ONE Ray worker task with a
    documented input cap — the driver only collects the scored rows.
    Beyond the cap, bring-your-own-metric means bucketing first
    (q_loop_distributed) and matrix mode within each bucket."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    return ray.get(_fit_matrix_mode.remote(path))


ENGINE_QUERIES["loop_matrix_mode"] = q_loop_matrix_mode


def q_knn_cosine_ivf(sf_dir: str):
    """IVF approximate cosine top-10 for the same query vector as the
    exact knn_cosine oracle query — the ANN scale path (coarse spherical
    k-means centroids + n_probe bucket scan).

    The per-batch survivor candidates are materialized to a surface
    parquet (with an order-isomorphic int64 ``score_key``) and the
    exchange-merged global top-k runs over the surface read back from
    disk, so the DuckDB oracle's ROW_NUMBER reconstruction over the
    same surface certifies the distributed top-k merge exactly; the
    recall-vs-exact contract of the probe itself stays pinned by pytest
    (test_ivf_topk_recall_on_clustered_data)."""
    import pyarrow.parquet as papq

    from pynomaly_ray.stages.similarity import cosine_topk_ivf

    emb0 = papq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "==", 0)],
    )
    q = np.asarray(emb0["embedding"][0].as_py(), dtype=np.float64)
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    df = cosine_topk_ivf(
        ds,
        q,
        k=10,
        n_centroids=16,
        n_probe=8,
        survivors_sink=_surface_dir("ivf_survivors"),
    )
    df = df.drop(columns=["query_id"])
    df["score_e6"] = np.floor(df.pop("score") * 1_000_000 + 0.5).astype(np.int64)
    return df.reset_index(drop=True)


SQL_KNN_COSINE_IVF = """
SELECT vec_id, CAST(FLOOR(score * 1000000 + 0.5) AS BIGINT) AS score_e6
FROM (
  SELECT vec_id, score,
         ROW_NUMBER() OVER (
             PARTITION BY query_id ORDER BY score_key DESC, vec_id
         ) AS rn
  FROM read_parquet('/tmp/pnr_oracle_surface/ivf_survivors/*.parquet')
)
WHERE rn <= 10
ORDER BY vec_id
"""

ORACLE_QUERIES["knn_cosine_ivf"] = (q_knn_cosine_ivf, SQL_KNN_COSINE_IVF)


def q_approx_distinct_users(sf_dir: str):
    """Approximate COUNT(DISTINCT user_id) per event_type via mergeable
    HyperLogLog registers (functions/sketches.py): per-batch partials of
    CONSTANT size (2^p bytes per group) replace shipping every distinct
    pair through the exchange — the sketch path for 100 TB cardinality
    estimation.  Accuracy contract (~1.04/sqrt(2^12) = 1.6% rel. error)
    is pinned by pytest against the exact query.

    Oracle surface: the per-batch partial registers are exploded to
    (event_type, reg, rnk) rows and materialized; the engine's answer is
    the DISTRIBUTED register merge (per-group scatter-max through
    ``hash_aggregate``) + estimator over that surface read back from
    disk, while the DuckDB oracle reconstructs the same max-merge and
    the closed-form HLL estimator (with linear-counting correction) in
    SQL — certifying the distributed sketch merge end-to-end, not just
    the estimate."""
    from pynomaly_ray.functions.exchange import hash_aggregate
    from pynomaly_ray.functions.sketches import hll_estimate, hll_partial
    from pynomaly_ray.sources.parquet import read_parquet_clean

    ds = _pq(sf_dir, "events", ["event_type", "user_id"])
    P = 12
    M = 1 << P

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        ets, regs, rnks = [], [], []
        for et, g in df.groupby("event_type", sort=False):
            vec = hll_partial(g["user_id"], P)
            nz = np.flatnonzero(vec)
            ets.extend([et] * len(nz))
            regs.append(nz.astype(np.int32))
            rnks.append(vec[nz].astype(np.int32))
        return pa.table(
            {
                "event_type": pa.array(ets, pa.string()),
                "reg": pa.array(
                    np.concatenate(regs) if regs else np.empty(0, np.int32),
                    pa.int32(),
                ),
                "rnk": pa.array(
                    np.concatenate(rnks) if rnks else np.empty(0, np.int32),
                    pa.int32(),
                ),
            }
        )

    surf = _surface_dir("hll_partials")
    ds.map_batches(partial, batch_format="pyarrow").write_parquet(surf)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            vec = np.zeros(M, dtype=np.uint8)
            np.maximum.at(vec, g["reg"].to_numpy(), g["rnk"].to_numpy().astype(np.uint8))
            est = hll_estimate(vec)
            rows.append(
                {"event_type": et, "n_users_approx": int(np.floor(est + 0.5))}
            )
        return pd.DataFrame(rows, columns=["event_type", "n_users_approx"])

    out = hash_aggregate(read_parquet_clean(surf), ["event_type"], merge)
    return collect_sorted(out, ["event_type"])


SQL_APPROX_DISTINCT_USERS = """
WITH regs AS (
  SELECT event_type, reg, MAX(rnk) AS rnk
  FROM read_parquet('/tmp/pnr_oracle_surface/hll_partials/*.parquet')
  GROUP BY event_type, reg
),
s AS (
  SELECT event_type,
         SUM(POWER(2.0, -CAST(rnk AS DOUBLE))) + (4096 - COUNT(*)) AS denom,
         4096 - COUNT(*) AS zeros
  FROM regs GROUP BY event_type
),
e AS (
  SELECT event_type, zeros,
         (0.7213 / (1.0 + 1.079 / 4096)) * 4096 * 4096 / denom AS est
  FROM s
)
SELECT event_type,
       CAST(FLOOR(
         CASE WHEN est <= 2.5 * 4096 AND zeros > 0
              THEN 4096 * LN(4096.0 / zeros) ELSE est END + 0.5
       ) AS BIGINT) AS n_users_approx
FROM e
ORDER BY event_type
"""

ORACLE_QUERIES["approx_distinct_users"] = (
    q_approx_distinct_users,
    SQL_APPROX_DISTINCT_USERS,
)


def q_approx_quantiles(sf_dir: str):
    """Approximate per-source value quantiles (p50/p90 of event value)
    via the mergeable KLL sketch: O(k log n) partial bytes per group
    instead of the O(distinct-values) count vectors the exact quantile
    queries exchange — the sketch path for CONTINUOUS columns at 100 TB.
    Rank-error contract (<= ~2% of n at k=256) is pinned by pytest
    against numpy exact quantiles.

    Oracle surface: the DISTRIBUTED sketch merge's retained items
    (weight = 2^level rows each — the sketch's full quantile state) are
    exploded to a (event_type, val, weight) surface; the engine's answer
    is a second distributed weighted-quantile aggregation over that
    surface read back from disk, which the DuckDB oracle reconstructs
    with a window cumsum (rank ceil(q*n) selection) — certifying the
    distributed weighted-quantile reduction; the compaction math stays
    pinned by pytest."""
    from pynomaly_ray.functions.exchange import hash_aggregate
    from pynomaly_ray.functions.sketches import KLLSketch

    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            vals, lvls = KLLSketch().add(g["value"].to_numpy()).to_arrays()
            rows.append({"event_type": et, "vals": vals, "lvls": lvls})
        out = pd.DataFrame(rows, columns=["event_type", "vals", "lvls"])
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(
            None
        )

    def merge_items(df: pd.DataFrame) -> pd.DataFrame:
        """Distributed sketch merge -> exploded (val, weight) items.

        The merged sketch's retained items (weight = 2^level rows each)
        ARE the sketch's full state for quantile purposes, so exploding
        them to a surface loses nothing and makes the downstream
        weighted-quantile selection SQL-reconstructible."""
        ets: list = []
        vs: list = []
        ws: list = []
        for et, g in df.groupby("event_type", sort=False):
            sk = KLLSketch()
            for vals, lvls in zip(g["vals"], g["lvls"]):
                sk.merge(KLLSketch.from_arrays(vals, lvls))
            if sk.n == 0:  # group had only null values: no quantiles
                continue
            vals, lvls = sk.to_arrays()
            ets.extend([et] * len(vals))
            vs.append(vals)
            ws.append(np.int64(1) << lvls.astype(np.int64))
        return pd.DataFrame(
            {
                "event_type": pd.Series(ets, dtype=object),
                "val": np.concatenate(vs) if vs else np.empty(0, np.float64),
                "weight": np.concatenate(ws) if ws else np.empty(0, np.int64),
            }
        )

    def weighted_quantiles(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            v = g["val"].to_numpy(np.float64)
            w = g["weight"].to_numpy(np.int64)
            o = np.argsort(v, kind="stable")
            v, w = v[o], w[o]
            cw = np.cumsum(w)
            n = int(cw[-1])

            def pick(q: float) -> float:
                t = max(int(np.ceil(q * n)), 1)
                return float(v[np.searchsorted(cw, t, side="left")])

            rows.append(
                {
                    "event_type": et,
                    "n": n,
                    "p50_e6": int(np.floor(pick(0.5) * 1e6 + 0.5)),
                    "p90_e6": int(np.floor(pick(0.9) * 1e6 + 0.5)),
                }
            )
        return pd.DataFrame(rows, columns=["event_type", "n", "p50_e6", "p90_e6"])

    from pynomaly_ray.sources.parquet import read_parquet_clean

    partials = ds.map_batches(partial, batch_format="pyarrow")
    surf = _surface_dir("kll_items")
    hash_aggregate(partials, ["event_type"], merge_items).write_parquet(surf)
    out = hash_aggregate(read_parquet_clean(surf), ["event_type"], weighted_quantiles)
    return collect_sorted(out, ["event_type"])


SQL_APPROX_QUANTILES = """
WITH w AS (
  SELECT event_type, val,
         SUM(weight) OVER (
             PARTITION BY event_type ORDER BY val
             ROWS UNBOUNDED PRECEDING
         ) AS cw,
         SUM(weight) OVER (PARTITION BY event_type) AS n
  FROM read_parquet('/tmp/pnr_oracle_surface/kll_items/*.parquet')
)
SELECT event_type,
       CAST(MAX(n) AS BIGINT) AS n,
       CAST(FLOOR(MIN(CASE WHEN cw >= CEIL(0.5 * CAST(n AS DOUBLE))
                           THEN val END) * 1000000 + 0.5) AS BIGINT) AS p50_e6,
       CAST(FLOOR(MIN(CASE WHEN cw >= CEIL(0.9 * CAST(n AS DOUBLE))
                           THEN val END) * 1000000 + 0.5) AS BIGINT) AS p90_e6
FROM w
GROUP BY event_type
ORDER BY event_type
"""

ORACLE_QUERIES["approx_quantiles"] = (q_approx_quantiles, SQL_APPROX_QUANTILES)


def q_kmeans_clusters(sf_dir: str):
    """Distributed k-means corpus clustering over the embeddings table
    (stages/clustering.py): deterministic hash-seeded init, 5 Lloyd's
    rounds of broadcast-centroids + tiny (k x d) partial folds, then one
    streaming assignment pass.

    Oracle surface (the IVF pattern): the assignment pass writes every
    (vec_id, cluster, dist_key) candidate row — dist_key the
    order-isomorphic int64 bit pattern of the squared distance — and
    the DuckDB twin reconstructs each vector's argmin with ROW_NUMBER
    over the surface and re-aggregates per cluster, certifying the
    assignment decision AND the distributed per-cluster aggregation
    byte-exactly.  Lloyd's convergence itself is float-order dependent
    across partitionings (documented in the stage), so it is pinned by
    pytest, not SQL.
    """
    from pynomaly_ray.functions.exchange import hash_aggregate
    from pynomaly_ray.stages.clustering import kmeans_assign, kmeans_fit

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents = kmeans_fit(ds, k=8, n_iter=5)
    surf = _surface_dir("kmeans")
    assigned = kmeans_assign(ds, cents, surface_sink=surf)

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (
            df.groupby("cluster", sort=False)
            .agg(
                n_vecs=("vec_id", "size"),
                min_key=("dist_key", "min"),
                max_key=("dist_key", "max"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(
            None
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("cluster", sort=False)
            .agg(
                n_vecs=("n_vecs", "sum"),
                min_key=("min_key", "min"),
                max_key=("max_key", "max"),
            )
            .reset_index()
        )

    out = hash_aggregate(
        assigned.map_batches(partial, batch_format="pyarrow"), ["cluster"], merge
    )
    return collect_sorted(out, ["cluster"])


SQL_KMEANS_CLUSTERS = """
WITH a AS (
  SELECT vec_id, cluster, dist_key,
         ROW_NUMBER() OVER (
             PARTITION BY vec_id ORDER BY dist_key, cluster
         ) AS rn
  FROM read_parquet('/tmp/pnr_oracle_surface/kmeans/*.parquet')
)
SELECT cluster,
       CAST(COUNT(*) AS BIGINT) AS n_vecs,
       MIN(dist_key) AS min_key,
       MAX(dist_key) AS max_key
FROM a
WHERE rn = 1
GROUP BY cluster
ORDER BY cluster
"""

ORACLE_QUERIES["kmeans_clusters"] = (q_kmeans_clusters, SQL_KMEANS_CLUSTERS)


def q_semantic_dedup(sf_dir: str):
    """SemDeDup semantic near-dup pairs: k-means clusters (5 Lloyd's
    rounds, farthest-point init), then exact within-cluster pairwise
    cosine on the e6 grid (stages/clustering.semantic_dedup_pairs).

    Oracle: the assignment surface (own copy, 'kmeans_sd') gives SQL the
    byte-exact cluster of every vector via ROW_NUMBER argmin; the twin
    then self-joins embeddings WITHIN clusters and recomputes the cosine
    cut with DuckDB's list_cosine_similarity on the same rounded-e6
    grid (the embedding_neardup_exact float-parity pattern, green since
    round 3).
    """
    from pynomaly_ray.stages.clustering import kmeans_fit, semantic_dedup_pairs

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents = kmeans_fit(ds, k=8, n_iter=5)
    surf = _surface_dir("kmeans_sd")
    pairs = semantic_dedup_pairs(ds, cents, e6_threshold=400_000, surface_sink=surf)
    out = collect_sorted(pairs, ["vec_a", "vec_b"])
    return out


SQL_SEMANTIC_DEDUP = """
WITH a AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           ROW_NUMBER() OVER (
               PARTITION BY vec_id ORDER BY dist_key, cluster
           ) AS rn
    FROM read_parquet('/tmp/pnr_oracle_surface/kmeans_sd/*.parquet')
  ) WHERE rn = 1
),
p AS (
  SELECT a1.vec_id AS vec_a, a2.vec_id AS vec_b, a1.cluster AS cluster,
         CAST(FLOOR(list_cosine_similarity(e1.embedding::DOUBLE[],
                                           e2.embedding::DOUBLE[])
              * 1000000 + 0.5) AS BIGINT) AS cosine_e6
  FROM a a1
  JOIN a a2 ON a1.cluster = a2.cluster AND a1.vec_id < a2.vec_id
  JOIN embeddings e1 ON e1.vec_id = a1.vec_id
  JOIN embeddings e2 ON e2.vec_id = a2.vec_id
)
SELECT vec_a, vec_b, cluster, cosine_e6
FROM p WHERE cosine_e6 >= 400000
ORDER BY vec_a, vec_b
"""

ORACLE_QUERIES["semantic_dedup"] = (q_semantic_dedup, SQL_SEMANTIC_DEDUP)


def q_quality_filter(sf_dir: str):
    """Bottom-decile quality filter with an EXACT global threshold — the
    corpus-curation cut "drop the worst 10% by quality score" where the
    threshold is a global order statistic, not a per-partition guess.

    Distributed shape: per-doc quality_e6 (surface parquet, the
    q_quality_scores pattern) -> per-block (value, count) histogram
    partials -> one value-keyed exchange -> the driver folds a BOUNDED
    result (quality_e6 has <= 1e6+1 distinct values, independent of
    corpus size — the reason the driver may hold it at 100 TB) and takes
    thr = the ceil(N/10)-th smallest score; the filter pass then streams
    with the scalar threshold.  Dropped = quality_e6 strictly below thr
    (deterministic under ties on the integer grid).  The SQL twin
    recomputes the order statistic with ROW_NUMBER over the surface.
    """
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.text import QualityScore

    docs = _pq(sf_dir, "documents", ["doc_id", "text", "source"])

    def to_e6(df: pd.DataFrame) -> pd.DataFrame:
        df["quality_e6"] = np.floor(
            df.pop("quality").to_numpy() * 1_000_000 + 0.5
        ).astype(np.int64)
        return df[["doc_id", "source", "quality_e6"]]

    scored = docs.map_batches(QualityScore(), batch_format="pandas").map_batches(
        to_e6, batch_format="pandas"
    )
    surf = _surface_dir("quality_filter")
    scored.write_parquet(surf)
    back = read_parquet_clean(surf, columns=["doc_id", "source", "quality_e6"])

    from pynomaly_ray.functions.exchange import global_kth_smallest

    total = back.count()
    thr = global_kth_smallest(back, "quality_e6", -(-total // 10))

    def drop_set(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.less(t["quality_e6"], thr))

    from pynomaly_ray.pipelines.queries import _collect

    out = _collect(
        back.map_batches(drop_set, batch_format="pyarrow"),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("source", pa.string()),
                ("quality_e6", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_QUALITY_FILTER = """
WITH s AS (
  SELECT doc_id, source, quality_e6
  FROM read_parquet('/tmp/pnr_oracle_surface/quality_filter/*.parquet')
),
r AS (
  SELECT quality_e6,
         ROW_NUMBER() OVER (ORDER BY quality_e6) AS rn,
         COUNT(*) OVER () AS n
  FROM s
),
t AS (SELECT MIN(quality_e6) AS thr FROM r WHERE rn >= CEIL(n / 10.0))
SELECT doc_id, source, quality_e6
FROM s WHERE quality_e6 < (SELECT thr FROM t)
ORDER BY doc_id
"""

ORACLE_QUERIES["quality_filter"] = (q_quality_filter, SQL_QUALITY_FILTER)


def q_decontaminate_bloom(sf_dir: str):
    """Bloom-broadcast decontamination (rows-only: the Bloom filter's
    false-positive overcount is probabilistic by design, so there is no
    SQL twin; the superset-of-exact and planted-copy contracts are
    pytest-pinned).  Same benchmark split as the oracle-checked
    q_decontaminate: doc_id % 7 == 0 is the eval set."""
    import pyarrow.compute as pc

    from pynomaly_ray.stages.decontam import (
        benchmark_shingle_bloom,
        decontaminate_bloom,
    )

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def side(t: pa.Table, want_bench: bool) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        is_bench = (ids % 7) == 0
        return t.filter(pa.array(is_bench if want_bench else ~is_bench))

    bench = docs.map_batches(lambda t: side(t, True), batch_format="pyarrow")
    train = docs.map_batches(lambda t: side(t, False), batch_format="pyarrow")
    ref = benchmark_shingle_bloom(bench, k=4)
    counted = decontaminate_bloom(train, ref, k=4).map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_overlap"], 1)),
        batch_format="pyarrow",
    )
    return collect_sorted(counted, ["doc_id"])


ENGINE_QUERIES["decontaminate_bloom"] = q_decontaminate_bloom


def q_curriculum_pack(sf_dir: str):
    """Curriculum-ordered packing: the pack_offsets placement scan run
    in QUALITY order instead of doc-id order (easy->hard curriculum
    construction) — quality-major, doc-id-minor via one composite int64
    key, exercising pack_offsets' generalized sort_col.

    Oracle surface: per-doc (doc_id, n_tok, key) with the heuristic's
    quality_e6 folded into the key; the DuckDB twin recomputes the
    placement as a window cumsum ORDER BY key, certifying the
    distributed ordered scan under a non-identity order.
    """
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.packing import pack_offsets
    from pynomaly_ray.stages.text import QualityScore

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        q = np.floor(df.pop("quality").to_numpy() * 1_000_000 + 0.5).astype(
            np.int64
        )
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        if (ids >= 10_000_000).any() or (ids < 0).any():
            raise ValueError("composite curriculum key needs 0 <= doc_id < 1e7")
        n_tok = (
            df["text"]
            .fillna("")
            .str.count(r"[^ \t\n\r\f\v]+")
            .to_numpy(dtype=np.int64)
        )
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n_tok": n_tok,
                "key": q * 10_000_000 + ids,
            }
        )

    scored = docs.map_batches(QualityScore(), batch_format="pandas").map_batches(
        keyed, batch_format="pandas"
    )
    surf = _surface_dir("curriculum")
    scored.write_parquet(surf)
    back = read_parquet_clean(surf, columns=["doc_id", "n_tok", "key"])
    placed = pack_offsets(back, chunk=256, sort_col="key")

    def strip(t: pa.Table) -> pa.Table:
        return t.select(["doc_id", "n_tok", "seq_first", "seq_last", "off_in_seq"])

    from pynomaly_ray.pipelines.queries import _collect

    out = _collect(
        placed.map_batches(strip, batch_format="pyarrow"),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_tok", pa.int64()),
                ("seq_first", pa.int64()),
                ("seq_last", pa.int64()),
                ("off_in_seq", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_CURRICULUM_PACK = """
WITH s AS (
  SELECT doc_id, n_tok, key
  FROM read_parquet('/tmp/pnr_oracle_surface/curriculum/*.parquet')
),
o AS (
  SELECT doc_id, n_tok,
         SUM(n_tok) OVER (ORDER BY key
                          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
             - n_tok AS off
  FROM s
)
SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok,
       CAST(off // 256 AS BIGINT) AS seq_first,
       CAST((off + n_tok - 1) // 256 AS BIGINT) AS seq_last,
       CAST(off % 256 AS BIGINT) AS off_in_seq
FROM o WHERE n_tok >= 1
ORDER BY doc_id
"""

ORACLE_QUERIES["curriculum_pack"] = (q_curriculum_pack, SQL_CURRICULUM_PACK)


def q_cms_heavy_hitters(sf_dir: str):
    """Count-min-sketch frequency estimates for the corpus' top-10
    tokens (functions/sketches.cms_query): sparse (row, col, cnt)
    cells of a constant-size (depth x width) grid per batch, merged by
    a (row, col)-keyed exchange, probed with the same double-hash index
    kernel the Bloom filter uses.

    Oracle surfaces (the HLL pattern): the per-batch SPARSE partial
    cells (row, col, cnt) and the probe index rows (token, row, col)
    are parquet-materialized; the DuckDB twin re-sums the cells, takes
    each probe's MIN over its depth cells (COALESCE 0 for untouched
    cells), and recomputes the EXACT counts from documents — so the
    result certifies the distributed merge, the query math, and the
    one-sided overestimate property (est >= exact by construction) in
    one hash match.
    """
    import pyarrow.parquet as papq

    from pynomaly_ray.functions.exchange import hash_aggregate, topk
    from pynomaly_ray.functions.hashing import nul_safe_key
    from pynomaly_ray.functions.sketches import _bloom_indices, cms_query
    from pynomaly_ray.stages.text import batch_token_counts

    WIDTH, DEPTH = 4096, 4
    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    # materialized ONCE: both the sketch pass and the exact-count
    # exchange consume it (lazy re-execution would re-tokenize the
    # corpus twice)
    counted = docs.map_batches(
        lambda t: batch_token_counts(t, by_doc=False), batch_format="pyarrow"
    ).materialize()

    surf = _surface_dir("cms_cells")

    def cms_rows(t: pa.Table) -> pa.Table:
        toks = t["token"].to_pandas()
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = _bloom_indices(toks, WIDTH, DEPTH)  # (depth, n)
        rows = np.repeat(np.arange(DEPTH, dtype=np.int64), len(toks))
        cols = idx.reshape(-1)
        cnts = np.tile(cnt, DEPTH)
        df = pd.DataFrame({"row": rows, "col": cols, "cnt": cnts})
        g = df.groupby(["row", "col"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(
            None
        )

    from pynomaly_ray.sources.parquet import read_parquet_clean

    # write_parquet (deterministic per-task filenames) instead of a
    # uuid-named side-effect write: a RETRIED task then overwrites its
    # own file rather than appending a duplicate that would silently
    # double-count its cells on both sides of the oracle
    counted.map_batches(cms_rows, batch_format="pyarrow").write_parquet(surf)
    cells = hash_aggregate(
        read_parquet_clean(surf, columns=["row", "col", "cnt"]),
        ["row", "col"],
        lambda df: df.groupby(["row", "col"], sort=False).sum().reset_index(),
    )
    grid = np.zeros((DEPTH, WIDTH), dtype=np.int64)
    for t in ray.get(list(cells.to_arrow_refs())):
        if t.num_rows:
            grid[
                t["row"].to_numpy(zero_copy_only=False),
                t["col"].to_numpy(zero_copy_only=False),
            ] += t["cnt"].to_numpy(zero_copy_only=False)

    # exact top-10 tokens by (count DESC, token ASC) via one token-keyed
    # exchange + the distributed topk
    exact = hash_aggregate(
        counted,
        ["token"],
        lambda df: df.groupby(nul_safe_key(df["token"]), sort=False)["cnt"]
        .sum()
        .rename_axis("token")
        .reset_index(),
    )
    top = topk(exact, ["cnt", "token"], 10, descending=[True, False])
    toks = top["token"].astype(str).to_numpy()

    psurf = _surface_dir("cms_probes")
    os.makedirs(psurf, exist_ok=True)
    pidx = _bloom_indices(pd.Series(toks), WIDTH, DEPTH)
    papq.write_table(
        pa.table(
            {
                "token": pa.array(np.repeat(toks, DEPTH), pa.string()),
                "row": pa.array(np.tile(np.arange(DEPTH, dtype=np.int64), len(toks))),
                "col": pa.array(pidx.T.reshape(-1)),
            }
        ),
        os.path.join(psurf, "probes.parquet"),
    )
    est = cms_query(grid, pd.Series(toks))
    out = pd.DataFrame(
        {
            "token": toks,
            "est": est.astype(np.int64),
            "exact": top["cnt"].to_numpy(dtype=np.int64),
        }
    ).sort_values("token")
    return out.reset_index(drop=True)


SQL_CMS_HEAVY_HITTERS = r"""
WITH cells AS (
  SELECT row, col, CAST(SUM(cnt) AS BIGINT) AS cnt
  FROM read_parquet('/tmp/pnr_oracle_surface/cms_cells/*.parquet')
  GROUP BY row, col
),
probes AS (
  SELECT token, row, col
  FROM read_parquet('/tmp/pnr_oracle_surface/cms_probes/*.parquet')
),
est AS (
  SELECT p.token, MIN(COALESCE(c.cnt, 0)) AS est
  FROM probes p LEFT JOIN cells c USING (row, col)
  GROUP BY p.token
),
tok AS (
  SELECT unnest(regexp_extract_all(text, '[^ \t\n\r\f\v]+')) AS token
  FROM documents
),
exact AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS exact FROM tok GROUP BY token)
SELECT token, CAST(est.est AS BIGINT) AS est, exact.exact
FROM est JOIN exact USING (token)
ORDER BY token
"""

ORACLE_QUERIES["cms_heavy_hitters"] = (q_cms_heavy_hitters, SQL_CMS_HEAVY_HITTERS)


def q_mg_heavy_hitters(sf_dir: str):
    """Misra-Gries heavy hitters (functions/sketches.mg_prune): the
    deterministic one-sided UNDERestimate sketch completing the family
    (HLL cardinality, KLL quantiles, Bloom membership, CMS overcount).

    Per-batch exact token counts are pruned to K counters map-side (the
    offline-MG step), surfaced to parquet, summed per token by a
    token-keyed exchange whose buckets each emit only their top-(K+1)
    rows — every global survivor provably sits inside its bucket's
    top-(K+1), so driver traffic is P*(K+1) rows regardless of corpus
    size.  The driver applies the final global prune (subtract the
    (K+1)-th largest summed counter).

    Oracle (the CMS surface pattern): DuckDB re-sums the surfaced
    partials, recomputes the global threshold with a window rank,
    derives the same survivors/estimates, and joins EXACT counts
    recomputed from documents — certifying the distributed merge, the
    prune math, and (by construction est = v - t <= exact) the
    one-sided undercount in one hash match.
    """
    from pynomaly_ray.functions.exchange import hash_aggregate
    from pynomaly_ray.functions.hashing import nul_safe_key
    from pynomaly_ray.functions.sketches import mg_prune
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.text import batch_token_counts

    K = 32
    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    counted = docs.map_batches(
        lambda t: batch_token_counts(t, by_doc=False), batch_format="pyarrow"
    ).materialize()

    surf = _surface_dir("mg_partials")

    def partial(t: pa.Table) -> pa.Table:
        toks = t["token"].to_numpy(zero_copy_only=False)
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        pt, pc = mg_prune(toks, cnt, K)
        return pa.table(
            {"token": pa.array(pt, pa.string()), "cnt": pa.array(pc)}
        )

    parts = counted.map_batches(partial, batch_format="pyarrow").materialize()
    parts.write_parquet(surf)
    if parts.count() == 0:
        # every per-batch prune emptied (id-like corpus, all counts tie
        # below capacity+1): write_parquet left no files, so place a
        # typed empty surface both the engine read and the SQL glob can
        # open — and then the summary is empty on both sides
        import pyarrow.parquet as papq

        os.makedirs(surf, exist_ok=True)
        papq.write_table(
            pa.schema(
                [("token", pa.string()), ("cnt", pa.int64())]
            ).empty_table(),
            os.path.join(surf, "empty.parquet"),
        )
        # and the summary is empty on both sides — return before the
        # all-empty exchange loses its column names
        return pd.DataFrame(
            {
                "token": pd.Series(dtype=object),
                "est": pd.Series(dtype=np.int64),
                "exact": pd.Series(dtype=np.int64),
            }
        )

    def bucket_top(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(nul_safe_key(df["token"]), sort=False)["cnt"]
            .sum()
            .rename("v")
            .reset_index()
        )
        g = g.sort_values(["v", "token"], ascending=[False, True], kind="mergesort")
        return g.head(K + 1)

    rows = hash_aggregate(
        read_parquet_clean(surf, columns=["token", "cnt"]),
        ["token"],
        bucket_top,
    ).to_pandas()
    rows = rows.sort_values(
        ["v", "token"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    t = int(rows["v"].iloc[K]) if len(rows) > K else 0
    surv = rows[rows["v"] - t > 0].copy()
    surv["est"] = (surv["v"] - t).astype(np.int64)
    if surv.empty:
        # all top-(K+1) counters tie (id-like corpus): every counter
        # drops at the global prune — the SQL twin returns zero rows;
        # short-circuit before the all-filtered exact pass loses its
        # column names in to_pandas
        return pd.DataFrame(
            {
                "token": pd.Series(dtype=object),
                "est": pd.Series(dtype=np.int64),
                "exact": pd.Series(dtype=np.int64),
            }
        )

    toks = surv["token"].astype(str).tolist()
    vset = pa.array(toks, pa.string())

    def exact_filter(tb: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return tb.filter(pc.is_in(tb["token"], value_set=vset))

    exact = (
        counted.map_batches(exact_filter, batch_format="pyarrow").to_pandas()
    )
    exact = (
        exact.groupby(nul_safe_key(exact["token"]), sort=False)["cnt"]
        .sum()
        .rename("exact")
        .reset_index()
    )
    exact["token"] = exact["token"].astype(object)
    surv["token"] = surv["token"].astype(object)
    out = surv[["token", "est"]].merge(exact, on="token", how="inner")
    out["exact"] = out["exact"].astype(np.int64)
    return out.sort_values("token", kind="mergesort").reset_index(drop=True)


SQL_MG_HEAVY_HITTERS = r"""
WITH s AS (
  SELECT token, CAST(SUM(cnt) AS BIGINT) AS v
  FROM read_parquet('/tmp/pnr_oracle_surface/mg_partials/*.parquet')
  GROUP BY token
),
r AS (SELECT token, v, row_number() OVER (ORDER BY v DESC, token) AS rk FROM s),
th AS (SELECT COALESCE(MAX(CASE WHEN rk = 33 THEN v END), 0) AS t FROM r),
tok AS (
  SELECT unnest(regexp_extract_all(COALESCE(text, ''),
                                   '[^ \t\n\r\f\v]+')) AS token
  FROM documents
),
exact AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS exact
          FROM tok GROUP BY token)
SELECT r.token, CAST(r.v - th.t AS BIGINT) AS est, exact.exact
FROM r CROSS JOIN th JOIN exact ON exact.token = r.token
WHERE r.v - th.t > 0
ORDER BY r.token
"""

ORACLE_QUERIES["mg_heavy_hitters"] = (q_mg_heavy_hitters, SQL_MG_HEAVY_HITTERS)


def q_kmv_overlap(sf_dir: str):
    """Distinct (user, day) activity overlap between 'click' and
    'purchase' via KMV / theta sketches — the SET-OPERATION sketch
    completing the family (HLL counts one set; KMV also estimates the
    INTERSECTION across sets, the segment-overlap question
    inclusion-exclusion over HLLs answers with compounding error).

    Per-block k-min partials per event type ride a constant-size
    surface; one type-keyed exchange merges them (union = k smallest of
    the concatenation); the driver sees <= 2k hashes and computes the
    three estimates.  The DuckDB twin re-merges the SAME surface with a
    window rank, rebuilds theta exactly in HUGEINT, and reproduces the
    estimator arithmetic in DOUBLE — certifying merge, threshold, and
    estimator math; the key hashing stays engine-side (the HLL surface
    contract).
    """
    from pynomaly_ray.functions.exchange import hash_aggregate
    from pynomaly_ray.functions.sketches import (
        kmv_estimate,
        kmv_intersection,
        kmv_merge,
        kmv_partial,
    )
    from pynomaly_ray.sources.parquet import read_parquet_clean

    K = 256
    ds = _pq(sf_dir, "events", ["user_id", "event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["event_type"].isin(["click", "purchase"])]
        df = df.dropna(subset=["user_id", "ts"])
        if not len(df):
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "h": pa.array([], pa.uint64()),
                }
            )
        day = (
            df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            // 86_400_000_000
        )
        key = df["user_id"].to_numpy(dtype=np.int64) * 1_000_000 + day
        ets, hs = [], []
        for et, idx in df.groupby("event_type", sort=False).indices.items():
            sk = kmv_partial(key[idx], K)
            ets.append(np.full(len(sk), et, dtype=object))
            hs.append(sk)
        return pa.table(
            {
                "event_type": pa.array(np.concatenate(ets), pa.string()),
                "h": pa.array(np.concatenate(hs), pa.uint64()),
            }
        )

    surf = _surface_dir("kmv_partials")
    ds.map_batches(partial, batch_format="pyarrow").write_parquet(surf)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            sk = kmv_merge([g["h"].to_numpy(dtype=np.uint64)], K)
            rows.append(
                pd.DataFrame({"event_type": et, "h": sk.astype(np.uint64)})
            )
        if not rows:
            return pd.DataFrame(
                {
                    "event_type": pd.array([], dtype="string"),
                    "h": pd.Series([], dtype=np.uint64),
                }
            )
        return pd.concat(rows, ignore_index=True)

    merged = hash_aggregate(
        read_parquet_clean(surf), ["event_type"], merge
    ).to_pandas()
    sketches = {
        et: np.sort(g["h"].to_numpy(dtype=np.uint64))
        for et, g in merged.groupby("event_type", sort=False)
    }
    empty = np.empty(0, dtype=np.uint64)
    sa = sketches.get("click", empty)
    sb = sketches.get("purchase", empty)
    return pd.DataFrame(
        {
            "n_click": [np.int64(np.floor(kmv_estimate(sa, K) + 0.5))],
            "n_purchase": [np.int64(np.floor(kmv_estimate(sb, K) + 0.5))],
            "n_overlap": [np.int64(np.floor(kmv_intersection(sa, sb, K) + 0.5))],
        }
    )


SQL_KMV_OVERLAP = """
WITH s AS (
  SELECT DISTINCT event_type, h
  FROM read_parquet('/tmp/pnr_oracle_surface/kmv_partials/*.parquet')
),
r AS (
  SELECT event_type, h,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY h) AS rn
  FROM s
),
kk AS (SELECT event_type, h, rn FROM r WHERE rn <= 256),
st AS (
  SELECT event_type, COUNT(*) AS c,
         MAX(CASE WHEN rn = 256 THEN h END) AS kth
  FROM kk GROUP BY event_type
),
est AS (
  SELECT event_type,
         CASE WHEN c < 256 THEN CAST(c AS DOUBLE)
              ELSE 255.0 * 18446744073709551616.0 / CAST(kth AS DOUBLE)
         END AS e,
         CASE WHEN c < 256 THEN CAST(18446744073709551616 AS HUGEINT)
              ELSE CAST(kth AS HUGEINT) END AS theta
  FROM st
),
th AS (SELECT MIN(theta) AS theta FROM est),
d AS (
  SELECT COUNT(*) AS n FROM kk a JOIN kk b
  ON a.h = b.h AND a.event_type = 'click' AND b.event_type = 'purchase'
  CROSS JOIN th WHERE CAST(a.h AS HUGEINT) < th.theta
),
iv AS (
  SELECT CASE WHEN th.theta >= CAST(18446744073709551616 AS HUGEINT)
              THEN CAST(d.n AS DOUBLE)
              ELSE CAST(d.n AS DOUBLE) * 18446744073709551616.0
                   / CAST(th.theta AS DOUBLE) END AS e
  FROM d CROSS JOIN th
)
SELECT
  CAST(FLOOR(COALESCE((SELECT e FROM est WHERE event_type = 'click'), 0)
             + 0.5) AS BIGINT) AS n_click,
  CAST(FLOOR(COALESCE((SELECT e FROM est WHERE event_type = 'purchase'), 0)
             + 0.5) AS BIGINT) AS n_purchase,
  CAST(FLOOR((SELECT e FROM iv) + 0.5) AS BIGINT) AS n_overlap
"""

ORACLE_QUERIES["kmv_overlap"] = (q_kmv_overlap, SQL_KMV_OVERLAP)


# Wave-17 entries register themselves into ORACLE_QUERIES /
# ENGINE_QUERIES on import.  Imported HERE (not from queries.py) so
# that importing engine_queries in either order with queries.py never
# hits a partially-initialized module: by this line both registries
# exist, and queries.py is always fully loaded first (top import).
from pynomaly_ray.pipelines import queries_wave17  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave18  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave19  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave20  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave21  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave22  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave23  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave24  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave25  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave26  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave27  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave28  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave30  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave31  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave35  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave36  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave37  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave38  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave39  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave40  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave41  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave43  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave44  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave45  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave46  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave47  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave48  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave49  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave50  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave51  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave52  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave53  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave54  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave55  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave56  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave57  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave58  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave59  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave60  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave61  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave62  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave63  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave64  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave65  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave66  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave67  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave68  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave69  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave70  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave71  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave72  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave73  # noqa: E402,F401
from pynomaly_ray.pipelines import queries_wave74  # noqa: E402,F401

ENGINE_QUERIES["pca_project"] = queries_wave17.q_pca_project
ENGINE_QUERIES["kcore_nodes"] = queries_wave19.q_kcore_nodes
