"""Text-analysis stages for training-data pipelines: language ID,
quality scoring, token counting, and document fingerprinting.

All stages are actor-pool ``map_batches`` kernels: constant state
(stopword tables, compiled regexes, n-gram profiles) built once per actor
in ``__init__``, vectorized pandas/numpy string work per batch.
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray


# Minimal per-language stopword/character profiles for the n-gram
# heuristic language identifier. Deliberately tiny and deterministic —
# no model downloads in this environment.
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "you", "that"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ich", "ein", "zu", "mit"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "je", "que", "pas"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "que", "no"},
}


class LangId:
    """Heuristic language identification over a ``text`` column.

    Scores each language by stopword hits per token; CJK detection by
    Unicode block ratio. Adds ``lang_pred: string`` and
    ``lang_conf: double``.
    """

    def __init__(self):
        self.word_re = re.compile(r"[a-zA-ZÀ-ÿ]+")
        # disjoint script blocks: han -> zh, kana -> ja, hangul -> ko
        # (kana presence dominates han: Japanese text mixes both scripts)
        self.han_re = re.compile(r"[一-鿿]")
        self.kana_re = re.compile(r"[぀-ヿ]")
        self.hangul_re = re.compile(r"[가-힯]")
        self.profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items()}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        preds, confs = [], []
        for text in batch["text"].fillna(""):
            if not text:
                preds.append("und")
                confs.append(0.0)
                continue
            han = len(self.han_re.findall(text))
            kana = len(self.kana_re.findall(text))
            hangul = len(self.hangul_re.findall(text))
            cjk = han + kana + hangul
            if cjk > 0 and cjk >= 0.2 * len(text):
                if hangul >= max(han, kana):
                    preds.append("ko")
                elif kana > 0:  # any kana marks Japanese even among han
                    preds.append("ja")
                else:
                    preds.append("zh")
                confs.append(min(1.0, cjk / len(text) * 2))
                continue
            words = [w.lower() for w in self.word_re.findall(text)]
            if not words:
                preds.append("und")
                confs.append(0.0)
                continue
            scores = {
                lang: sum(w in prof for w in words) / len(words)
                for lang, prof in self.profiles.items()
            }
            best = max(scores, key=lambda k: (scores[k], k))
            preds.append(best if scores[best] > 0 else "und")
            confs.append(float(scores[best]))
        out = batch.copy()
        out["lang_pred"] = preds
        out["lang_conf"] = confs
        return out


class QualityScore:
    """Document quality heuristics (length / punctuation / stopword /
    repetition ratios), the classic pre-training filter features.

    Adds ``n_chars_q, n_words, mean_word_len, stop_ratio, punct_ratio,
    upper_ratio, repeat_ratio, quality: double``.
    """

    def __init__(self):
        self.stop = _LANG_PROFILES["en"]
        self.word_re = re.compile(r"\w+", re.UNICODE)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        text = batch["text"].fillna("")
        words_l = text.map(lambda s: self.word_re.findall(s.lower()))
        n_words = words_l.str.len().astype(np.int64)
        n_chars = text.str.len().astype(np.int64)
        mean_wl = np.where(
            n_words > 0,
            words_l.map(lambda ws: float(np.mean([len(w) for w in ws])) if ws else 0.0),
            0.0,
        )
        stop_ratio = np.where(
            n_words > 0,
            words_l.map(lambda ws: sum(w in self.stop for w in ws)) / n_words.clip(lower=1),
            0.0,
        )
        punct = text.str.count(r"[^\w\s]").astype(np.int64)
        upper = text.str.count(r"[A-Z]").astype(np.int64)
        uniq_ratio = np.where(
            n_words > 0,
            words_l.map(lambda ws: len(set(ws)) / len(ws) if ws else 0.0),
            0.0,
        )
        out["n_chars_q"] = n_chars
        out["n_words"] = n_words
        out["mean_word_len"] = mean_wl
        out["stop_ratio"] = stop_ratio
        out["punct_ratio"] = (punct / n_chars.clip(lower=1)).astype(float)
        out["upper_ratio"] = (upper / n_chars.clip(lower=1)).astype(float)
        out["repeat_ratio"] = 1.0 - uniq_ratio
        # composite quality in [0,1]: long-enough, stopword-bearing,
        # not punctuation-soup, not repetitive
        out["quality"] = (
            np.clip(n_words / 50.0, 0, 1) * 0.3
            + np.clip(stop_ratio * 4.0, 0, 1) * 0.3
            + (1.0 - np.clip(out["punct_ratio"] * 4.0, 0, 1)) * 0.2
            + uniq_ratio * 0.2
        )
        return out


class Fingerprint:
    """Full-content 63-bit document fingerprint over ``text``: adds
    ``fingerprint: int64``.

    Every byte participates (CRC32 of the text, of its reverse, and its
    length, mixed) — C-speed, deterministic across processes, and usable
    as an exact-dedup content key when doc_ids are unreliable (equal
    fingerprints <=> equal content up to CRC collision odds ~2^-63).
    """

    B = 1000003

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        fps = []
        for text in batch["text"].fillna(""):
            b = text.encode("utf-8")
            h = (
                (zlib.crc32(b) << 32)
                ^ (zlib.crc32(b[::-1]) * self.B)
                ^ len(b)
            ) & 0x7FFFFFFFFFFFFFFF
            fps.append(h)
        out["fingerprint"] = np.array(fps, dtype=np.int64)
        return out


#: whitespace-complement token class, shared verbatim with the oracle
#: SQL twins' regexp_extract_all — public because tokenize-and-count
#: consumers outside this module (CMS heavy hitters) must stay in
#: lockstep with it
WS_TOKEN_RE = r"[^ \t\n\r\f\v]+"
_WS_TOKEN_RE = WS_TOKEN_RE  # back-compat alias


def batch_token_counts(t: pa.Table, by_doc: bool) -> pa.Table:
    """Token-count rows for one batch via the ONE NUL-safe Arrow
    ``TableGroupBy`` kernel: ``by_doc=True`` -> (doc_id, token, tf)
    term frequencies (the TF-IDF shape); ``by_doc=False`` -> (token,
    cnt) batch totals (the sketch/heavy-hitter shape)."""
    texts = t["text"].to_pandas().fillna("")
    toks = texts.str.findall(WS_TOKEN_RE)
    flat = pa.array([w for lst in toks for w in lst], pa.string())
    if not by_doc:
        g = pa.table({"token": flat}).group_by("token").aggregate(
            [("token", "count")]
        )
        return pa.table(
            {"token": g["token"], "cnt": g["token_count"].cast(pa.int64())}
        )
    lens = toks.str.len().to_numpy(dtype=np.int64)
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    pairs = pa.table(
        {"doc_id": pa.array(np.repeat(ids, lens)), "token": flat}
    )
    g = pairs.group_by(["doc_id", "token"]).aggregate([("token", "count")])
    return pa.table(
        {
            "doc_id": g["doc_id"],
            "token": g["token"],
            "tf": g["token_count"].cast(pa.int64()),
        }
    )


def tfidf_top_terms(docs_ds):
    """Per-doc top TF-IDF term — the classic distinctive-term signal
    (corpus indexing / topic labeling in curation pipelines).

    Three stages, two int-or-string-keyed exchanges:

    1. map pass: per-(doc, token) term frequencies via one Arrow
       ``TableGroupBy`` over the exploded token stream (NUL-safe hash
       table, no pandas factorize — see the round-5 NUL-key work), plus
       a driver-folded scalar N = number of docs with >= 1 token (one
       int per block);
    2. a token-keyed exchange whose reducer sees every (doc, token, tf)
       row of a token together, so the document frequency is just the
       per-token row count — df is computed AND joined onto the tf rows
       in the same bucket pass (no second shuffle for the join);
       ``score_e6 = floor(tf * ln(N/df) * 1e6 + 0.5)`` on the exact
       integer grid;
    3. a doc-keyed exchange picking each doc's max by
       (score_e6 DESC, token ASC) — ties break on the ROUNDED integer
       surface, so engine and SQL agree byte-exactly (ulp risk exists
       only for a score landing on a .5e-6 boundary, the accepted
       cosine_e6-class risk).

    Token strings ride the exchanges; at 100 TB you would dictionary-
    encode or hash tokens and carry the string only to the final top-1
    emit (documented trade: this operator reports the term itself).
    """
    from pynomaly_ray.functions.exchange import hash_aggregate

    def tf_rows(t: pa.Table) -> pa.Table:
        return batch_token_counts(t, by_doc=True)

    rows = docs_ds.map_batches(tf_rows, batch_format="pyarrow").materialize()
    # N = docs with >= 1 token, via a DEDICATED count pass whose output
    # is one int per input batch.  Counting distinct doc_ids per
    # materialized BLOCK of `rows` would be wrong at scale: Ray splits
    # oversized map outputs at arbitrary row boundaries
    # (target_max_block_size), so one doc's tf rows can straddle two
    # blocks and be counted twice — batches are whole-doc, blocks are
    # not.  1-row count tables can never split mid-doc.
    def doc_count(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pandas().fillna("")
        n = int((texts.str.count(_WS_TOKEN_RE) >= 1).sum())
        return pa.table({"n": pa.array([n], pa.int64())})

    n_docs = int(
        sum(
            t["n"].to_numpy(zero_copy_only=False).sum()
            for t in ray.get(
                docs_ds.map_batches(doc_count, batch_format="pyarrow")
                .to_arrow_refs()
            )
            if t.num_rows
        )
    )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        from pynomaly_ray.functions.hashing import nul_safe_key

        # nul_safe_key: a plain object-dtype groupby would alias tokens
        # differing only after an embedded NUL (C-string hash table)
        cnt = df.groupby(nul_safe_key(df["token"]), sort=False)[
            "doc_id"
        ].transform("size")
        dfv = cnt.to_numpy(dtype=np.int64)
        tf = df["tf"].to_numpy(dtype=np.int64)
        e6 = np.floor(
            tf * np.log(float(n_docs) / dfv) * 1_000_000 + 0.5
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "token": df["token"],
                "tf": tf,
                "df": dfv,
                "score_e6": e6,
            }
        )

    scored = hash_aggregate(rows, ["token"], score)

    def top1(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["doc_id", "score_e6", "token"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        out = df.drop_duplicates("doc_id", keep="first")
        return out.rename(columns={"token": "top_term"}).reset_index(drop=True)

    return hash_aggregate(scored, ["doc_id"], top1)


def chunk_documents(docs_ds, chunk_words: int = 32):
    """Fixed-width context-window chunking: each doc split into
    ``chunk_words``-token windows (the RAG / training chunking step),
    emitting (doc_id, chunk_idx, chunk_text, n_tok) per window with
    space-normalized chunk text.

    Fully vectorized flat_map shape: one regexp findall per batch, the
    flat token stream rides ONE Arrow ListArray built from computed
    chunk offsets, and ``pc.binary_join`` materializes every chunk
    string in a single C++ kernel — no Python loop over docs or chunks.
    Streaming map-side only (docs are whole per batch); zero-token docs
    emit nothing.
    """
    if chunk_words < 1:
        raise ValueError(f"chunk_words must be >= 1, got {chunk_words}")

    import pyarrow.compute as pc

    def chunks(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "chunk_idx": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
                "n_tok": pa.array([], pa.int64()),
            }
        )
        texts = t["text"].to_pandas().fillna("")
        toks = texts.str.findall(_WS_TOKEN_RE)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = lens >= 1
        if not keep.any():
            return empty
        ids, lens = ids[keep], lens[keep]
        flat = pa.array(
            [w for lst in toks[keep] for w in lst], pa.string()
        )
        n_chunks = -(-lens // chunk_words)  # ceil
        doc_starts = np.concatenate([[0], np.cumsum(lens)])
        # chunk offsets: per doc, starts at doc_start + j*chunk_words,
        # final boundary at doc_start + len
        rep = np.repeat(np.arange(len(ids)), n_chunks)
        idx_in_doc = (
            np.arange(len(rep)) - np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
        )
        starts = doc_starts[rep] + idx_in_doc * chunk_words
        ends = np.minimum(starts + chunk_words, doc_starts[rep] + lens[rep])
        offsets = np.concatenate([starts, [doc_starts[-1]]]).astype(np.int64)
        # ListArray wants monotone offsets: starts are monotone because
        # chunks are emitted in (doc, window) order over the flat stream
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat)
        joined = pc.binary_join(lists, " ")
        return pa.table(
            {
                "doc_id": pa.array(ids[rep]),
                "chunk_idx": pa.array(idx_in_doc),
                "chunk_text": joined,
                "n_tok": pa.array(ends - starts),
            }
        )

    return docs_ds.map_batches(chunks, batch_format="pyarrow")


def normalize_text(docs_ds):
    """Canonical text normalization (the pre-tokenization cleanup pass):
    utf8 lowercase, whitespace runs collapsed to single spaces, edges
    trimmed — emitted as (doc_id, text_norm, n_chars_norm).

    Pure map-side streaming; every transform is an Arrow C++ kernel
    (``utf8_lower`` / ``replace_substring_regex`` / ``utf8_trim`` /
    ``utf8_length``).  Case-mapping parity with the SQL twin holds
    because Arrow and DuckDB both lower through utf8proc (pinned by a
    hostile-unicode pytest: final sigma, dotless i, sharp s, full-width
    forms, embedded NULs); the whitespace class is the oracle-shared
    ASCII complement, NOT Python's str.lower()/split() semantics.
    """
    import pyarrow.compute as pc

    def norm(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t["text"], "")
        low = pc.utf8_lower(txt)
        collapsed = pc.replace_substring_regex(low, r"[ \t\n\r\f\v]+", " ")
        trimmed = pc.utf8_trim(collapsed, " ")
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text_norm": trimmed,
                "n_chars_norm": pc.utf8_length(trimmed).cast(pa.int64()),
            }
        )

    return docs_ds.map_batches(norm, batch_format="pyarrow")


def source_vocab_overlap(docs_ds):
    """Pairwise vocabulary overlap between sources: for every source
    pair sharing at least one token, the exact intersection size and
    Jaccard similarity of their DISTINCT token sets — the
    corpus-composition comparison ("how much does crawl A's vocabulary
    overlap crawl B's").

    One token-keyed exchange: per-block distinct (token-hash, source)
    rows; each bucket dedupes globally (same hash -> same bucket),
    emits all source PAIRS per token batched by group size
    (stages/dedup._emit_group_pairs with the star cap disabled — the
    group width is bounded by #sources, not corpus size), and folds
    pair counts plus per-source distinct-token counts.  The driver
    merges P tiny bucket summaries and computes jaccard_e6 with exact
    integer division.  Token hashing through the shared NUL-safe
    kernel; a cross-token collision would perturb a count and break
    the oracle's textual rebuild.
    """
    import pyarrow.compute as pc  # noqa: F401  (parity with sibling stages)

    from pynomaly_ray.functions.exchange import hash_aggregate
    from pynomaly_ray.stages.decontam import _TOKEN_RE

    def emit(t: pa.Table) -> pa.Table:
        from pynomaly_ray.functions.hashing import hash_strings

        texts = t["text"].to_pandas().fillna("")
        toks = texts.str.findall(_TOKEN_RE)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        flat = [w for lst in toks.tolist() for w in lst]
        if not flat:
            return pa.table(
                {"tok": pa.array([], pa.int64()), "source": pa.array([], pa.string())}
            )
        th = hash_strings(flat).view(np.int64)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False), lens)
        # per-block distinct via exact-compare unique codes (no pandas
        # hash table: object strings would NUL-truncate)
        usrc, code = np.unique(src, return_inverse=True)
        order = np.lexsort((code, th))
        th, code = th[order], code[order]
        first = np.ones(len(th), bool)
        if len(th) > 1:
            first[1:] = (th[1:] != th[:-1]) | (code[1:] != code[:-1])
        return pa.table(
            {
                "tok": pa.array(th[first]),
                "source": pa.array(usrc[code[first]], pa.string()),
            }
        )

    rows = docs_ds.map_batches(emit, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        from pynomaly_ray.stages.dedup import _emit_group_pairs

        empty = pd.DataFrame(
            {
                "src_a": pd.array([], dtype="string"),
                "src_b": pd.array([], dtype="string"),
                "n": pd.Series(dtype=np.int64),
                "kind": pd.Series(dtype=np.int64),
            }
        )
        if not len(df):
            return empty
        th = df["tok"].to_numpy(dtype=np.int64)
        usrc, code = np.unique(df["source"].to_numpy(dtype=object), return_inverse=True)
        order = np.lexsort((code, th))
        th, code = th[order], code[order]
        first = np.ones(len(th), bool)
        if len(th) > 1:
            first[1:] = (th[1:] != th[:-1]) | (code[1:] != code[:-1])
        th, code = th[first], code[first]
        # per-source distinct token counts (kind=1 rows)
        per_src = np.bincount(code, minlength=len(usrc)).astype(np.int64)
        # per-token source groups -> all pairs (codes ascend within each
        # token, so a < b == string order: np.unique sorts, and UTF-8
        # byte order preserves codepoint order)
        grp_first = np.ones(len(th), bool)
        if len(th) > 1:
            grp_first[1:] = th[1:] != th[:-1]
        sizes = np.diff(np.concatenate([np.flatnonzero(grp_first), [len(th)]]))
        multi = sizes >= 2
        a = b = np.empty(0, np.int64)
        if multi.any():
            keep = np.repeat(multi, sizes)
            a, b = _emit_group_pairs(
                code[keep], sizes[multi], cap=np.iinfo(np.int64).max
            )
        pair_key = a.astype(np.int64) * len(usrc) + b
        uk, uc = np.unique(pair_key, return_counts=True)
        return pd.DataFrame(
            {
                "src_a": pd.array(
                    np.concatenate([usrc[uk // len(usrc)], usrc]), dtype="string"
                ),
                "src_b": pd.array(
                    np.concatenate(
                        [usrc[uk % len(usrc)], np.full(len(usrc), "", object)]
                    ),
                    dtype="string",
                ),
                "n": np.concatenate([uc.astype(np.int64), per_src]),
                "kind": np.concatenate(
                    [np.zeros(len(uk), np.int64), np.ones(len(usrc), np.int64)]
                ),
            }
        )

    buckets = hash_aggregate(rows, ["tok"], fold).to_pandas()
    from pynomaly_ray.functions.hashing import nul_safe_key

    # nul_safe_key on the driver merge too: a plain object-string
    # groupby would alias source names differing only after an embedded
    # NUL — the exact hazard the in-bucket np.unique path avoids
    szf = buckets[buckets["kind"] == 1]
    sizes = szf.groupby(nul_safe_key(szf["src_a"]))["n"].sum().to_dict()
    pf = buckets[buckets["kind"] == 0]
    pairs = (
        pf.groupby(
            [nul_safe_key(pf["src_a"]), nul_safe_key(pf["src_b"])], sort=False
        )["n"]
        .sum()
        .reset_index(name="inter")
    )
    na = pairs["src_a"].map(sizes).to_numpy(dtype=np.int64)
    nb = pairs["src_b"].map(sizes).to_numpy(dtype=np.int64)
    inter = pairs["inter"].to_numpy(dtype=np.int64)
    return pd.DataFrame(
        {
            "src_a": pairs["src_a"].astype(object),
            "src_b": pairs["src_b"].astype(object),
            "inter": inter,
            "jaccard_e6": inter * 1_000_000 // (na + nb - inter),
        }
    )


@ray.remote
def _split_kind(t: pa.Table, kind: int) -> pa.Table:
    return t.filter(pc.equal(t["kind"], kind))


def bm25_topk(
    docs_ds,
    query_terms: list[str],
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
):
    """Distributed BM25 retrieval: the top-``k`` documents for a bag of
    ``query_terms`` -> (doc_id, score) pandas frame, score descending.

    The ranked-retrieval composition the inverted-index / TF-IDF
    kernels point at (Robertson-Sparck Jones BM25, the Okapi default
    k1=1.2 / b=0.75; idf = ln(1 + (N - df + .5)/(df + .5)), the
    non-negative Lucene form).  Three stages, engineered so nothing
    driver-side grows with the corpus:

    1. one tokenize pass (the shared NUL-safe whitespace kernel) emits
       per block: a single (n_docs, sum_len) partial — N and avgdl
       fold from one row per block — and (doc_id, tf, len) rows ONLY
       for query terms (the tiny term set is a per-task constant, so
       this is the posting-list projection, not the full index);
    2. df per term folds from the projected rows via one keyed
       exchange (|Q| groups); the projected rows are materialized once
       — they are the only re-read state, bounded by |Q| x N_matching;
    3. scoring is a vectorized map over the projection with the |Q|
       df values broadcast in the closure, summed per doc by one
       doc_id-keyed exchange, then global top-k without a global sort.

    Scores are IEEE doubles computed with the same expression tree a
    SQL twin would use, so a 1e-6-scaled integer surface of the result
    is oracle-comparable (see queries_wave41).
    """
    from pynomaly_ray.functions.exchange import hash_aggregate, topk

    terms = sorted(set(query_terms))

    def emit(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pandas().fillna("")
        toks = texts.str.findall(WS_TOKEN_RE)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pa.array([w for lst in toks for w in lst], pa.string())
        pairs = pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, lens)),
                "len": pa.array(np.repeat(lens, lens)),
                "token": flat,
            }
        )
        mask = pc.is_in(pairs["token"], value_set=pa.array(terms, pa.string()))
        hits = pairs.filter(mask)
        g = hits.group_by(["doc_id", "len", "token"]).aggregate(
            [("token", "count")]
        )
        # kind 0: one per-block scalar partial; kind 1: posting rows
        return pa.table(
            {
                "kind": pa.array(
                    np.r_[np.zeros(1, np.int64), np.ones(g.num_rows, np.int64)]
                ),
                "doc_id": pa.array(
                    np.r_[np.int64(len(ids)), g["doc_id"].to_numpy()]
                ),
                "len": pa.array(
                    np.r_[lens.sum(), g["len"].to_numpy()]
                ),
                "token": pa.concat_arrays(
                    [pa.array([""], pa.string()), g["token"].combine_chunks()]
                ),
                "tf": pa.array(
                    np.r_[np.int64(0),
                          g["token_count"].to_numpy().astype(np.int64)]
                ),
            }
        )

    rows = docs_ds.map_batches(emit, batch_format="pyarrow").materialize()
    refs = rows.to_arrow_refs()
    partials = pa.concat_tables(
        ray.get([_split_kind.remote(r, 0) for r in refs])
    )
    n_docs = int(partials["doc_id"].to_numpy().sum())
    sum_len = int(partials["len"].to_numpy().sum())
    if n_docs == 0:
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype=np.int64),
             "score": pd.Series([], dtype=np.float64)}
        )
    avgdl = sum_len / n_docs  # double division of exact ints, SQL twin

    import ray.data as rd

    postings = rd.from_arrow_refs([_split_kind.remote(r, 1) for r in refs])

    dfs = hash_aggregate(
        postings,
        ["token"],
        lambda d: d.groupby("token", sort=False)
        .agg(df=("doc_id", "nunique"))
        .reset_index(),
    ).to_pandas()
    # no posting row anywhere (terms absent from the corpus): the
    # keyed exchange returns a columnless empty frame
    df_of = (
        dict(zip(dfs["token"], dfs["df"].astype(np.int64)))
        if "token" in dfs.columns
        else {}
    )

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "token" not in t.schema.names:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        tf = t["tf"].to_numpy().astype(np.float64)
        ln = t["len"].to_numpy().astype(np.float64)
        dfv = np.array(
            [df_of.get(x, 0) for x in t["token"].to_pylist()], np.float64
        )
        idf = np.log(1.0 + (n_docs - dfv + 0.5) / (dfv + 0.5))
        w = idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * ln / avgdl))
        return pa.table(
            {"doc_id": t["doc_id"], "score": pa.array(w, pa.float64())}
        )

    per_doc = hash_aggregate(
        postings.map_batches(score, batch_format="pyarrow"),
        ["doc_id"],
        lambda d: d.groupby("doc_id", sort=False)
        .agg(score=("score", "sum"))
        .reset_index(),
    )
    out = topk(per_doc, ["score", "doc_id"], k, [True, False])
    return out.reset_index(drop=True)[["doc_id", "score"]]
