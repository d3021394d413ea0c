"""Benchmark decontamination + within-doc repetition profiling.

Two standard training-data hygiene operators for LLM corpora, built on
the engine's ONE shingle kernel (stages/dedup.py
``shingles_from_token_lists`` — the same 64-bit polynomial word-hash
fold the MinHash/LSH and exact-Jaccard paths use, so a perturbation
there breaks all of their oracles at once):

- **decontamination**: flag training documents whose k-word shingles
  overlap an evaluation/benchmark corpus, the leak check run before
  pretraining (n-gram overlap decontamination as described in the GPT-3
  paper's appendix C and the C4 audit of Dodge et al. 2021).  The
  benchmark side is SMALL by definition (eval sets are thousands of
  docs, not billions): its distinct shingle-hash set is reduced
  per-block, merged once on the driver, and broadcast via ``ray.put``
  — read zero-copy by every filter task, never re-shipped per batch.
  The training side STREAMS: one ``map_batches`` pass computes each
  doc's distinct shingles and counts hits with a single
  ``np.searchsorted`` over the batch's flat shingle array (no Python
  loop over docs or shingles).  A cap guard refuses benchmark sets
  whose hash array would stop being broadcast-cheap; past it the right
  shape is the key-partitioned anti/semi join
  (functions/exchange.hash_anti_join on the shingle hash), same switch
  ``anti_membership`` documents.

- **repetition profile**: per-doc distinct-vs-total shingle counts, the
  boilerplate/repetition quality signal (repeated n-gram fraction) used
  by C4/Gopher-style filters.  Embarrassingly parallel — one map-side
  pass, no exchange — because docs arrive whole per batch.

Reference scope note: the reference engine (PyNomaly,
reference/PyNomaly/loop.py) has no corpus operators; these belong to
the LLM-data-pipeline family this engine adds on top of the reference's
validation/LoOP surface.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from pynomaly_ray.stages.dedup import shingles_from_token_lists

# Token class shared with the oracle SQL side (see queries.py
# _ASCII_TOKEN_RE and the 29-codepoint note there): explicit whitespace
# complement so DuckDB's regexp_extract_all tokenizes identically.
_TOKEN_RE = r"[^ \t\n\r\f\v]+"

# Above this many distinct benchmark shingle hashes (~400 MB as uint64)
# a broadcast stops being the cheap side and the partitioned anti-join
# is the right design; refuse loudly rather than degrade silently.
_BENCH_HASH_CAP = 50_000_000


def _doc_distinct_shingles(texts: pd.Series, k: int):
    """(flat distinct shingle hashes, doc POSITION per hash, kept-doc
    mask, per-doc TOTAL shingle counts) for one batch.  Docs with < k
    tokens are EXCLUDED — the same contract as the exact-Jaccard oracle
    query (SQL: ``WHERE len(w) >= k``), so both sides of every oracle
    agree on short-doc handling.

    Positions (0..n_kept-1) instead of doc ids keep every sort/bincount
    on int64 arrays — string doc ids through np.lexsort/np.unique would
    fall back to Python-object compares (the slow path the round-5
    NUL-safe key work measured at ~60x).  This is the ONE per-doc
    shingle-distinctness kernel in the module: decontamination,
    benchmark-set construction, and the repetition profile all share it."""
    toks = texts.fillna("").str.findall(_TOKEN_RE)
    kept = toks.str.len().to_numpy() >= k
    lists = toks[kept].tolist()
    if not lists:
        e = np.empty(0, np.int64)
        return np.empty(0, np.uint64), e, kept, e
    sh, soff = shingles_from_token_lists(lists, k)
    totals = np.diff(soff).astype(np.int64)
    pos = np.repeat(np.arange(len(lists), dtype=np.int64), totals)
    # per-doc DISTINCT via one lexsort over (position, shingle) — no
    # pandas hash table, no Python loop
    order = np.lexsort((sh, pos))
    sh, pos = sh[order], pos[order]
    first = np.ones(len(sh), bool)
    if len(sh) > 1:
        first[1:] = (sh[1:] != sh[:-1]) | (pos[1:] != pos[:-1])
    return sh[first], pos[first], kept, totals


def benchmark_shingle_hashes(bench_ds, k: int = 4, cap: int = _BENCH_HASH_CAP):
    """Distinct shingle hashes of the benchmark corpus as ONE sorted
    int64 array (uint64 bit-patterns) in the object store (``ray.put``
    ref).

    Per-block distinct runs map-side (so only unique hashes leave each
    task); the driver merges block uniques with one ``np.unique``.  The
    driver-side merge is the deliberate design for an eval set — it is
    bounded by the cap, not by corpus size.
    """

    def partial(t: pa.Table) -> pa.Table:
        sh, _pos, _kept, _tot = _doc_distinct_shingles(t["text"].to_pandas(), k)
        return pa.table({"sh": np.unique(sh).view(np.int64)})

    blocks = ray.get(
        bench_ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    )
    arrs = [t["sh"].to_numpy(zero_copy_only=False) for t in blocks if t.num_rows]
    # refuse BEFORE the driver concatenates: the sum of per-block unique
    # counts upper-bounds the merged distinct size, so a grossly
    # over-cap benchmark raises here instead of OOM-killing the driver
    # mid-np.unique.  2x slack tolerates cross-block overlap (the true
    # distinct count can be well under the per-block sum); the exact
    # post-merge check below still enforces the cap itself.
    upper = sum(len(a) for a in arrs)
    if upper > 2 * cap:
        raise ValueError(
            f"benchmark shingle set has up to {upper} distinct hashes "
            f"(cap {cap}); use the partitioned anti-join path instead of "
            "a broadcast"
        )
    # stay in int64 space end-to-end: the uint64 shingle hashes ride as
    # their int64 bit-pattern and every sort/searchsorted uses the SAME
    # int64 total order (a uint64 view of an int64-sorted array is NOT
    # sorted once the top bit is set)
    merged = (
        np.unique(np.concatenate(arrs)) if arrs else np.empty(0, np.int64)
    )
    if len(merged) > cap:
        raise ValueError(
            f"benchmark shingle set has {len(merged)} distinct hashes "
            f"(cap {cap}); use the partitioned anti-join path instead of "
            "a broadcast"
        )
    return ray.put(merged)


class ContaminationCounter:
    """Actor-pool stage: per-doc overlap counts against the broadcast
    benchmark hash set.  ``ray.get`` of the shared array happens ONCE
    per actor in ``__init__`` (zero-copy plasma read), then every batch
    is one searchsorted + bincount."""

    def __init__(self, bench_ref, k: int = 4):
        self.bench = ray.get(bench_ref)  # int64 bit-patterns, sorted
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        sh, pos, kept, _tot = _doc_distinct_shingles(t["text"].to_pandas(), self.k)
        sh = sh.view(np.int64)  # match the benchmark array's total order
        ids = t["doc_id"].filter(pa.array(kept))  # original Arrow type
        n_kept = len(ids)
        bench = self.bench
        if len(bench) and len(sh):
            at = np.searchsorted(bench, sh)
            at[at == len(bench)] = 0  # any in-range index; equality decides
            hit = bench[at] == sh
        else:
            hit = np.zeros(len(sh), bool)
        n_hit = np.bincount(pos[hit], minlength=n_kept).astype(np.int64)
        n_tot = np.bincount(pos, minlength=n_kept).astype(np.int64)
        return pa.table(
            {
                "doc_id": ids,
                "n_sh": pa.array(n_tot),
                "n_overlap": pa.array(n_hit),
            }
        )


def decontaminate(train_ds, bench_ref, k: int = 4, concurrency=(1, 4)):
    """Per-training-doc (doc_id, n_sh, n_overlap) vs the broadcast
    benchmark shingle set; downstream filters cut on n_overlap (absolute
    or as a fraction of n_sh).  Streaming, one pass, no exchange.

    ``concurrency`` defaults to an AUTOSCALING (1, 4) actor pool: a
    fixed pool sized at the session CPU count deadlocks against its own
    upstream stage on small hosts (all CPUs pinned by idle actors, the
    feeding tasks never scheduled)."""
    return train_ds.map_batches(
        ContaminationCounter,
        fn_constructor_kwargs={"bench_ref": bench_ref, "k": k},
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def _distinct_shingle_rows(docs_ds, k: int):
    """(sh, doc_id) Dataset of each doc's DISTINCT k-gram hashes — the
    ONE emitter feeding every shingle-keyed exchange in this module
    (profile, removal, novelty), so the three operators' shingle
    streams cannot drift apart."""

    def emit(t: pa.Table) -> pa.Table:
        sh, pos, kept, _tot = _doc_distinct_shingles(t["text"].to_pandas(), k)
        ids = t["doc_id"].filter(pa.array(kept)).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "sh": pa.array(sh.view(np.int64)),
                "doc_id": pa.array(ids[pos]),
            }
        )

    return docs_ds.map_batches(emit, batch_format="pyarrow")


def duplicate_span_profile(docs_ds, k: int = 4):
    """Cross-doc duplicated k-gram profile — the corpus-level substring
    dedup signal (Lee et al. 2021, "Deduplicating Training Data Makes
    Language Models Better", approximated at k-word-gram granularity):
    per doc, how many of its distinct k-word shingles appear in at least
    one OTHER document, plus the 1e6-scaled duplicated fraction.

    Shape: two keyed exchanges, both on int64 keys, no broadcast and no
    driver-side state —

    1. one map pass emits the per-(doc, shingle) DISTINCT rows (shared
       kernel :func:`_doc_distinct_shingles`); an exchange keyed on the
       shingle hash lets each bucket compute per-shingle document counts
       vectorized (rows are already (doc, shingle)-distinct, so a plain
       ``groupby(sh).size`` IS the distinct-doc count) and flag each row
       ``is_dup = count >= 2``;
    2. a second exchange keyed on doc_id folds the flags into per-doc
       (n_sh, n_dup) — n_sh is just the row count, since step 1 emits
       exactly one row per distinct (doc, shingle).

    Like every shingle consumer, counts are over the ONE shared 64-bit
    shingle hash — a cross-shingle collision (~2^-64) would merge two
    counts; the oracle (queries.SQL_DUPLICATE_SPANS) rebuilds shingles
    textually, so such a collision, or kernel drift, breaks the hash
    match.  Docs with < k tokens are excluded on both sides.
    """
    from pynomaly_ray.functions.exchange import hash_aggregate

    rows = _distinct_shingle_rows(docs_ds, k)

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        n = df.groupby("sh", sort=False)["doc_id"].transform("size")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "dup": (n.to_numpy() >= 2).astype(np.int64),
            }
        )

    flagged = hash_aggregate(rows, ["sh"], flag)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False)["dup"].agg(["size", "sum"])
        n_sh = g["size"].to_numpy(dtype=np.int64)
        n_dup = g["sum"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": g.index.to_numpy(),
                "n_sh": n_sh,
                "n_dup": n_dup,
                "dup_e6": np.floor(
                    n_dup * 1_000_000.0 / np.maximum(n_sh, 1) + 0.5
                ).astype(np.int64),
            }
        )

    return hash_aggregate(flagged, ["doc_id"], fold)


def repetition_profile(docs_ds, k: int = 2):
    """Per-doc (doc_id, n_sh, n_distinct, rep_e6): repeated-shingle
    fraction ``1 - distinct/total`` scaled to exact integer 1e6 (both
    sides of the oracle compute ``floor((n-d)*1e6/n + 0.5)``).  Pure
    map-side — each doc is whole within its batch."""

    def profile(t: pa.Table) -> pa.Table:
        _sh, pos, kept, n = _doc_distinct_shingles(t["text"].to_pandas(), k)
        ids = t["doc_id"].filter(pa.array(kept))  # original Arrow type
        # the kernel already deduped per doc: pos holds one entry per
        # DISTINCT (doc, shingle), so its bincount IS n_distinct
        d = np.bincount(pos, minlength=len(ids)).astype(np.int64)
        rep = np.floor((n - d) * 1_000_000.0 / np.maximum(n, 1) + 0.5).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": ids,
                "n_sh": pa.array(n),
                "n_distinct": pa.array(d),
                "rep_e6": pa.array(rep),
            }
        )

    return docs_ds.map_batches(profile, batch_format="pyarrow")


def benchmark_shingle_bloom(
    bench_ds, k: int = 4, m_bits: int = 1 << 24, n_hashes: int = 4
):
    """Constant-size Bloom variant of :func:`benchmark_shingle_hashes` —
    the broadcast path past ``_BENCH_HASH_CAP``: the shipped state is
    ``m_bits`` REGARDLESS of benchmark size (16 MB at 2^27 bits covers
    ~10^7 shingles at 4 bits set each with <1% FP), vs 8 bytes per
    distinct shingle for the exact array.  One-sided error: a true
    overlap always probes positive (a leak can never be MISSED); false
    positives only ever OVER-count, so the filter is conservative in the
    safe direction for decontamination.  Per-block Bloom partials merge
    by OR on the driver (associative, idempotent, retry-safe)."""
    from pynomaly_ray.functions.sketches import bloom_merge, bloom_partial

    def partial(t: pa.Table) -> pa.Table:
        sh, _pos, _kept, _tot = _doc_distinct_shingles(t["text"].to_pandas(), k)
        bits = bloom_partial(np.unique(sh), m_bits=m_bits, k=n_hashes)
        return pa.table({"bits": pa.array([bits], pa.list_(pa.uint64()))})

    blocks = ray.get(
        bench_ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    )
    parts = [
        np.asarray(t["bits"][i].as_py(), dtype=np.uint64)
        for t in blocks
        for i in range(t.num_rows)
    ]
    return ray.put(bloom_merge(parts, m_bits=m_bits))


class BloomContaminationCounter:
    """Actor-pool stage: per-doc overlap counts probed against a
    broadcast Bloom filter (``ray.get`` once per actor); same output
    contract as :class:`ContaminationCounter`, with n_overlap an UPPER
    bound (never an undercount) of the true distinct-shingle overlap."""

    def __init__(self, bloom_ref, k: int = 4, n_hashes: int = 4):
        self.bits = ray.get(bloom_ref)
        self.k = k
        self.n_hashes = n_hashes

    def __call__(self, t: pa.Table) -> pa.Table:
        from pynomaly_ray.functions.sketches import bloom_contains

        sh, pos, kept, _tot = _doc_distinct_shingles(t["text"].to_pandas(), self.k)
        ids = t["doc_id"].filter(pa.array(kept))
        n_kept = len(ids)
        hit = (
            bloom_contains(self.bits, sh, k=self.n_hashes)
            if len(sh)
            else np.zeros(0, bool)
        )
        n_hit = np.bincount(pos[hit], minlength=n_kept).astype(np.int64)
        n_tot = np.bincount(pos, minlength=n_kept).astype(np.int64)
        return pa.table(
            {
                "doc_id": ids,
                "n_sh": pa.array(n_tot),
                "n_overlap": pa.array(n_hit),
            }
        )


def decontaminate_bloom(
    train_ds, bloom_ref, k: int = 4, n_hashes: int = 4, concurrency=(1, 4)
):
    """Streaming contamination counts against a Bloom-compressed
    benchmark set — drop-in for :func:`decontaminate` when the exact
    hash array exceeds broadcast budget."""
    return train_ds.map_batches(
        BloomContaminationCounter,
        fn_constructor_kwargs={
            "bloom_ref": bloom_ref,
            "k": k,
            "n_hashes": n_hashes,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def duplicate_span_removal(docs_ds, k: int = 4):
    """Substring-dedup REMOVAL (the acting counterpart of
    :func:`duplicate_span_profile`, after Lee et al. 2021 at k-word-gram
    granularity): rewrite each document with every token that lies
    inside a cross-doc duplicated k-gram removed, emitting (doc_id,
    n_tok, n_removed, text_clean) with space-normalized text.

    A token at position j is covered iff SOME k-gram starting in
    [j-k+1, j] occurs in >= 2 distinct documents.  Within-doc repeats of
    a globally-unique k-gram are NOT duplicated (cross-doc signal only —
    the profile operator's contract).

    Shape: the profile's shingle-keyed exchange, emitting only the
    flagged (doc, shingle) pairs (the duplicated vocabulary per doc — a
    small fraction of the corpus by design), then ONE doc-keyed exchange
    of those pairs tag-unioned with the document texts.  The reducer
    re-derives each doc's shingle starts with the shared kernel, flags
    them against the bucket's duplicated-hash set (exact per-doc: pass 1
    emits a pair for EVERY containing doc, so a hash present in the
    bucket set but absent from a doc cannot mark that doc), builds the
    coverage mask with prefix sums, and materializes every cleaned text
    via one Arrow ``take`` + ``binary_join`` — no Python loop over docs.
    Zero-token docs are excluded on both sides; docs shorter than k keep
    all tokens (normalized joins only).
    """
    import pyarrow.compute as pc

    from pynomaly_ray.functions.exchange import hash_aggregate

    rows = _distinct_shingle_rows(docs_ds, k)

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        n = df.groupby("sh", sort=False)["doc_id"].transform("size")
        return df[n.to_numpy() >= 2]

    dup_rows = hash_aggregate(rows, ["sh"], flag)

    def tag_text(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "sh": pa.array(np.zeros(n, np.int64)),
                "text": t["text"],
                "is_text": pa.array(np.ones(n, np.int64)),
            }
        )

    def tag_dup(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "sh": t["sh"],
                "text": pa.array([""] * n, pa.string()),
                "is_text": pa.array(np.zeros(n, np.int64)),
            }
        )

    tagged = docs_ds.map_batches(tag_text, batch_format="pyarrow").union(
        dup_rows.map_batches(tag_dup, batch_format="pyarrow")
    )

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_tok", pa.int64()),
            ("n_removed", pa.int64()),
            ("text_clean", pa.string()),
        ]
    )

    def rebuild(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        texts = df[df["is_text"] == 1]
        dup_set = np.unique(
            df.loc[df["is_text"] == 0, "sh"].to_numpy(dtype=np.int64).view(np.uint64)
        )
        toks = texts["text"].fillna("").str.findall(_TOKEN_RE)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        keep_doc = lens >= 1
        if not keep_doc.any():
            return out_schema.empty_table()
        ids = texts["doc_id"].to_numpy()[keep_doc].astype(np.int64)
        toklists = toks[keep_doc].tolist()
        lens = lens[keep_doc]
        n_docs = len(ids)
        total = int(lens.sum())
        doc_of_tok = np.repeat(np.arange(n_docs), lens)
        covered = np.zeros(total, bool)

        long_mask = lens >= k
        if long_mask.any():
            from pynomaly_ray.stages.dedup import shingles_from_token_lists

            long_lists = [toklists[i] for i in np.nonzero(long_mask)[0]]
            # every passed doc has >= k tokens, so no short-doc sentinel
            # slots reach the start array
            sh_all, soff = shingles_from_token_lists(long_lists, k)
            starts = np.isin(sh_all, dup_set)
            csum = np.concatenate([[0], np.cumsum(starts)])
            lens_l = lens[long_mask]
            m_d = lens_l - k + 1
            n_long_tok = int(lens_l.sum())
            woff_l = np.concatenate([[0], np.cumsum(lens_l)])
            jloc = np.arange(n_long_tok) - np.repeat(woff_l[:-1], lens_l)
            base = np.repeat(soff[:-1], lens_l)
            lo = base + np.maximum(0, jloc - (k - 1))
            hi = base + np.minimum(jloc, np.repeat(m_d - 1, lens_l))
            cov_long = (csum[hi + 1] - csum[lo]) > 0
            covered[np.repeat(long_mask, lens)] = cov_long

        flat = pa.array(
            [w for lst in toklists for w in lst], pa.string()
        )
        keep_idx = np.nonzero(~covered)[0]
        flat_kept = flat.take(pa.array(keep_idx, pa.int64()))
        kept_per_doc = np.bincount(doc_of_tok[~covered], minlength=n_docs)
        offsets = np.concatenate([[0], np.cumsum(kept_per_doc)])
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat_kept)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_tok": pa.array(lens),
                "n_removed": pa.array(
                    np.bincount(doc_of_tok[covered], minlength=n_docs).astype(
                        np.int64
                    )
                ),
                "text_clean": pc.binary_join(lists, " "),
            }
        )

    return hash_aggregate(tagged, ["doc_id"], rebuild, arrow=True)


def ngram_novelty_profile(docs_ds, k: int = 4):
    """Per-doc novelty attribution: of the doc's DISTINCT k-word
    shingles, how many are FIRST seen in this doc, attributing each
    shingle to its minimum doc_id (the deterministic "who contributed
    this content" order).  The inverse view of
    :func:`duplicate_span_profile` — a doc full of content introduced
    elsewhere scores near 0, the corpus's novelty frontier scores 1e6.

    Same two-exchange shape as the profile: shingle-keyed buckets
    compute the per-shingle min doc and flag each (doc, shingle) row
    novel iff doc == min; doc-keyed buckets fold (n_sh, n_novel,
    novelty_e6).  Docs with < k tokens are excluded on both sides.
    """
    from pynomaly_ray.functions.exchange import hash_aggregate

    rows = _distinct_shingle_rows(docs_ds, k)

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        first = df.groupby("sh", sort=False)["doc_id"].transform("min")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "novel": (df["doc_id"].to_numpy() == first.to_numpy()).astype(
                    np.int64
                ),
            }
        )

    flagged = hash_aggregate(rows, ["sh"], flag)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False)["novel"].agg(["size", "sum"])
        n_sh = g["size"].to_numpy(dtype=np.int64)
        n_novel = g["sum"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": g.index.to_numpy(),
                "n_sh": n_sh,
                "n_novel": n_novel,
                "novelty_e6": np.floor(
                    n_novel * 1_000_000.0 / np.maximum(n_sh, 1) + 0.5
                ).astype(np.int64),
            }
        )

    return hash_aggregate(flagged, ["doc_id"], fold)


def winnow_profile(docs_ds, k: int = 3, w: int = 4):
    """Per-doc winnowing fingerprint profile (doc_id, n_sh, n_fp).

    Winnowing (Schleimer, Wilkerson & Aiken, SIGMOD 2003 — the MOSS
    fingerprint selector): slide a window of ``w`` consecutive k-gram
    values over each document and keep the minimum of every window; the
    doc's fingerprint set is the distinct selected values.  Guarantees
    at least one fingerprint per ``w + k - 1`` tokens while staying
    position-robust — the standard sub-document overlap detector where
    whole-doc hashes (SimHash/MinHash) are too coarse.

    To stay EXACTLY reproducible by the SQL oracle, selection minimizes
    the lexicographic ORDER OF THE SHINGLE STRING (length-prefixed
    ``len:token`` concat — the injective encoding the decontaminate /
    jaccard oracles already certify), not a private hash: numpy U-dtype
    sort order == UTF-8 memcmp == DuckDB's binary string MIN.  Only
    full windows select (docs with fewer than ``w`` shingles emit
    nothing), matching the oracle's ``i <= n_sh - w + 1`` filter.

    Engine shape: pure map-side (docs whole per batch, no exchange).
    Per batch: one vectorized piece build (``len:tok``), a k-fold
    elementwise concat, ONE np.unique for batch-local lexicographic
    ranks, one sliding-window min over the rank codes, and a bincount
    for distinct-per-doc — no per-shingle Python.  At 100 TB this runs
    embarrassingly parallel; the fingerprint sets themselves (not
    emitted here) would flow into the same bucket-exchange the MinHash
    band tables use.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    from pynomaly_ray.stages.text import WS_TOKEN_RE

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_sh": pa.array([], pa.int64()),
            "n_fp": pa.array([], pa.int64()),
        }
    )

    def profile(t: pa.Table) -> pa.Table:
        import operator

        # built per batch: a frompyfunc ufunc is not picklable, so it
        # cannot live in the task closure
        _padd = np.frompyfunc(operator.add, 2, 1)
        texts = t["text"].to_pandas().fillna("")
        lists = texts.str.findall(WS_TOKEN_RE)
        lens = lists.str.len().to_numpy(dtype=np.int64)
        keep = (lens - (k - 1)) >= w  # full-window docs only
        if not keep.any():
            return empty
        ids = (
            t["doc_id"]
            .to_pandas()
            .to_numpy(dtype=np.int64)[keep]
        )
        kept_lists = [x for x, kp in zip(lists, keep) if kp]
        lens_k = lens[keep]
        m_k = lens_k - (k - 1)  # shingles per doc
        nd = len(kept_lists)

        flat = pd.Series(
            [tok for x in kept_lists for tok in x], dtype=object
        )
        pieces = (
            flat.str.len().astype(str).str.cat(flat, sep=":").to_numpy()
        )
        m = len(pieces) - k + 1
        acc = pieces[:m].astype(object)
        for j in range(1, k):
            acc = _padd(acc, pieces[j : j + m])
        # drop windows crossing doc boundaries
        woff = np.concatenate([[0], np.cumsum(lens_k)])
        doc_of = np.repeat(np.arange(nd), lens_k)[:m]
        valid = (np.arange(m) + k) <= woff[doc_of + 1]
        sh = np.asarray(acc[valid], dtype=str)  # U-dtype: memcmp order
        _uq, codes = np.unique(sh, return_inverse=True)
        n_codes = np.int64(len(_uq))

        # sliding-window min over batch-local lexicographic ranks; keep
        # only windows fully inside one doc
        soff = np.concatenate([[0], np.cumsum(m_k)])
        mw = len(codes) - w + 1
        win_min = sliding_window_view(codes, w).min(axis=1)
        sdoc = np.repeat(np.arange(nd), m_k)[:mw]
        wvalid = (np.arange(mw) + w) <= soff[sdoc + 1]
        sel_doc = sdoc[wvalid]
        sel = win_min[wvalid]
        # distinct (doc, value) pairs via one flat unique
        key = sel_doc.astype(np.int64) * n_codes + sel
        upairs = np.unique(key)
        n_fp = np.bincount(
            (upairs // n_codes).astype(np.int64), minlength=nd
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_sh": pa.array(m_k),
                "n_fp": pa.array(n_fp),
            }
        )

    return docs_ds.map_batches(profile, batch_format="pyarrow")
