"""Corpus n-gram language-model quality scoring (CCNet-shaped signal).

CCNet (Wenzek et al. 2019) ranks crawl documents by language-model
perplexity; the distributed shape of that signal is: estimate n-gram
statistics over the WHOLE corpus, then score every document against
them.  This module implements the bigram case with add-one smoothing,
entirely as int64-keyed exchanges — no broadcast table, no driver-side
model, no cap:

1. one map pass emits per-OCCURRENCE bigram rows (doc_id, bigram hash,
   prefix-unigram hash) and unigram-occurrence rows (token hash);
2. a bigram-keyed exchange turns co-located occurrences into the global
   bigram count c2 carried back onto each occurrence row;
3. a unigram-keyed exchange over the union of those rows and the
   unigram occurrences computes the prefix count c1 per bucket and
   evaluates the per-occurrence score;
4. a doc-keyed exchange folds per-doc totals.

The score is kept INTEGER-EXACT so the DuckDB oracle can certify it:
instead of a float log-probability, each bigram contributes the
1e6-scaled smoothed probability ``p_e6 = ((c2 + 1) * 1e6) //
(c1 + V)`` (V = corpus vocabulary size; integer floor division on both
sides) — a monotone transform of the same ranking signal whose sum is
reduction-order independent.  A float perplexity variant would leave
the integer grid (np.log vs libm last-ulp drift at floor boundaries);
the e6 probability form certifies the full distributed machinery and a
log-space column can be derived downstream where bit-stability across
engines is not required.

Hashing: tokens through the ONE shared NUL-safe string-hash kernel
(functions/hashing.hash_strings); bigrams fold the two token hashes
with the shingle kernel's polynomial base (stages/dedup._POLY_B), so a
cross-bigram collision (~2^-64) would perturb a count and break the
oracle's value-hash — the same detection contract every shingle
consumer documents.

Reference scope note: the reference engine (PyNomaly,
reference/PyNomaly/loop.py) has no corpus operators; this belongs to
the LLM-data-pipeline family built on top of its validation surface.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import pandas as pd
import pyarrow as pa

from pynomaly_ray.stages.decontam import _TOKEN_RE
from pynomaly_ray.stages.dedup import _POLY_B


def _doc_token_hashes(texts: pd.Series):
    """Flat per-occurrence token hashes + per-doc offsets (doc-major,
    position-minor), tokenized with the oracle-shared whitespace class."""
    from pynomaly_ray.functions.hashing import hash_strings

    toks = texts.fillna("").str.findall(_TOKEN_RE)
    lengths = toks.str.len().to_numpy(dtype=np.int64)
    flat = list(chain.from_iterable(toks.tolist()))
    uh = hash_strings(flat) if flat else np.empty(0, dtype=np.uint64)
    woff = np.concatenate([[0], np.cumsum(lengths)])
    return uh, woff, lengths


def bigram_start_mask(woff: np.ndarray, lengths: np.ndarray):
    """(doc position per start, within-one-doc validity mask) over the
    flat token stream's n-1 adjacent pairs.  The ONE document-boundary
    kernel for bigram construction — the LM scorer and the collocation
    counter must agree on which adjacent token pairs are bigrams, so
    the subtle index arithmetic lives here exactly once."""
    m = int(woff[-1]) - 1
    if m <= 0:
        return np.empty(0, np.int64), np.empty(0, bool)
    doc_of = np.repeat(np.arange(len(lengths)), lengths)[:m]
    # a start is a real bigram only if both tokens fall inside one doc
    valid = (np.arange(m) + 2) <= woff[doc_of + 1]
    return doc_of, valid


def _bigram_occurrences(uh: np.ndarray, woff: np.ndarray, lengths: np.ndarray):
    """(bigram hash, prefix-unigram hash, doc position) for EVERY bigram
    occurrence — multiplicities kept, unlike the distinct-shingle kernel,
    because LM counts are frequency counts."""
    n = len(uh)
    m = n - 1
    if m <= 0:
        e = np.empty(0, np.int64)
        return np.empty(0, np.uint64), np.empty(0, np.uint64), e
    with np.errstate(over="ignore"):
        big = uh[:m] * _POLY_B + uh[1:]
    doc_of, valid = bigram_start_mask(woff, lengths)
    return big[valid], uh[:m][valid], doc_of[valid]


def bigram_lm_scores(docs_ds):
    """Per-doc (doc_id, n_big, p_e6_total) over a (doc_id, text)
    Dataset: the summed 1e6-scaled add-one-smoothed bigram probability.
    Docs with < 2 tokens have no bigrams and are excluded (the SQL twin
    excludes them via ``len(w) >= 2``)."""
    from pynomaly_ray.functions.exchange import hash_aggregate

    def emit(t: pa.Table) -> pa.Table:
        uh, woff, lengths = _doc_token_hashes(t["text"].to_pandas())
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        big, pre, doc_of = _bigram_occurrences(uh, woff, lengths)
        n_b, n_u = len(big), len(uh)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate([ids[doc_of], np.zeros(n_u, np.int64)])
                ),
                "big": pa.array(
                    np.concatenate([big, np.zeros(n_u, np.uint64)]).view(np.int64)
                ),
                "uni": pa.array(
                    np.concatenate(
                        [pre, uh if n_u else np.empty(0, np.uint64)]
                    ).view(np.int64)
                ),
                "kind": pa.array(
                    np.concatenate(
                        [np.zeros(n_b, np.int64), np.ones(n_u, np.int64)]
                    )
                ),
            }
        )

    rows = docs_ds.map_batches(emit, batch_format="pyarrow").materialize()

    # pre-filter each exchange's input by kind: the kind-1 (unigram)
    # rows all carry the constant big=0, so feeding the mixed stream to
    # the bigram-keyed exchange would funnel the ENTIRE token-occurrence
    # stream into one hot bucket (an OOM-scale reducer at the 100x
    # corpus) just for the reducer to discard it — and symmetrically
    # for the V exchange
    def only_kind(k: int):
        def _f(t: pa.Table) -> pa.Table:
            t = t.filter(pa.compute.equal(t["kind"], k))
            if k == 1:
                return pa.table(
                    {
                        "doc_id": t["doc_id"],
                        "uni": t["uni"],
                        "c2": pa.array(np.zeros(t.num_rows, np.int64)),
                        "kind": t["kind"],
                    }
                )
            return t

        return _f

    big_only = rows.map_batches(only_kind(0), batch_format="pyarrow")
    uni_rows = rows.map_batches(only_kind(1), batch_format="pyarrow").materialize()

    # V = global distinct unigram count: per-bucket distincts are disjoint
    # under the key-hash partition, so the P per-bucket counts sum exactly.
    def uni_distinct(df: pd.DataFrame) -> pd.DataFrame:
        n = df["uni"].nunique()
        return pd.DataFrame({"n": pd.array([n], dtype=np.int64)})

    v_parts = hash_aggregate(uni_rows, ["uni"], uni_distinct).to_pandas()
    vocab_v = int(v_parts["n"].sum())

    # exchange 1 (bigram-keyed): c2 = global occurrence count per bigram,
    # carried back onto each bigram-occurrence row
    def attach_c2(df: pd.DataFrame) -> pd.DataFrame:
        c2 = df.groupby("big", sort=False)["doc_id"].transform("size")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "uni": df["uni"],
                "c2": c2.to_numpy(dtype=np.int64),
                "kind": np.zeros(len(df), np.int64),
            }
        )

    big_rows = hash_aggregate(big_only, ["big"], attach_c2)

    # exchange 2 (unigram-keyed): c1 = prefix occurrence count; score each
    # bigram occurrence on the exact integer grid
    def score(df: pd.DataFrame) -> pd.DataFrame:
        c1 = df[df["kind"] == 1].groupby("uni", sort=False).size()
        b = df[df["kind"] == 0]
        cnt1 = c1.reindex(b["uni"]).to_numpy(dtype=np.int64)
        p_e6 = ((b["c2"].to_numpy(dtype=np.int64) + 1) * 1_000_000) // (
            cnt1 + vocab_v
        )
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(), "p_e6": p_e6})

    scored = hash_aggregate(big_rows.union(uni_rows), ["uni"], score)

    # exchange 3 (doc-keyed): per-doc totals
    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False)["p_e6"].agg(["size", "sum"])
        return pd.DataFrame(
            {
                "doc_id": g.index.to_numpy(),
                "n_big": g["size"].to_numpy(dtype=np.int64),
                "p_e6_total": g["sum"].to_numpy(dtype=np.int64),
            }
        )

    return hash_aggregate(scored, ["doc_id"], fold)
