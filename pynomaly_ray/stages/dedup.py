"""Deduplication operators for training-data pipelines.

Exact + four near-dup families, each expressed Ray-Data-first:

- exact:       content hash in map_batches -> per-batch partial ->
               hash-exchange merge on the int64 hash (no text shuffled);
- MinHash+LSH: shingle -> minhash signature per doc (vectorized across
               the whole batch via reduceat) -> explode to (band_id,
               band_hash) rows -> groupby bands -> candidate pairs ->
               distributed Jaccard verify (texts hash-joined onto pairs,
               verified inside map tasks — nothing on the driver);
- SimHash:     64-bit simhash per doc, batch-vectorized bit counting;
- n-gram Jaccard: exact shingle-set verify (used by the LSH verify);
- embedding cosine: see stages/similarity.py (near_dup_pairs_embedding).

The LSH shuffle keys are (band_id, band_hash) — uniformly distributed by
construction, so the groupby is skew-free; candidate verification runs
per bucket (small groups) and never materializes the corpus.

Hashing: words are hashed whole-batch with pandas' C SipHash
(``functions/hashing.hash_strings`` — no per-word Python loop, no
unbounded per-actor vocabulary cache), shingles are a 64-bit polynomial
fold of the word hashes computed with a handful of whole-batch numpy
ops; per-doc minima come from ``np.minimum.reduceat`` over the flat
shingle array — no Python loop over shingles or bands.
"""

from __future__ import annotations

import re
from itertools import chain

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pynomaly_ray.sources.parquet import parquet_files
from pynomaly_ray.state.commit import (
    committed,
    mark_committed,
    publish_dir,
    write_json,
)

_MERSENNE = (1 << 61) - 1
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_POLY_B = np.uint64(0x100000001B3)


def _fold_short(wh: np.ndarray) -> np.uint64:
    """Polynomial fold of an entire (short) word-hash sequence."""
    if len(wh) == 0:
        return _FNV_OFFSET
    h = wh[0]
    with np.errstate(over="ignore"):
        for x in wh[1:]:
            h = h * _POLY_B + x
    return h


def _batch_shingles(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Whitespace-split wrapper over :func:`shingles_from_token_lists`."""
    return shingles_from_token_lists([t.split() for t in texts], k)


def shingles_from_token_lists(
    split: list[list[str]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """All docs' k-word shingle hashes as one flat uint64 array plus the
    per-doc offsets (doc-major, position-minor order).  Docs shorter than
    ``k`` words contribute one fold-of-all-words shingle (empty docs a
    constant), so every doc owns at least one slot — a requirement of the
    reduceat consumers downstream.  Word hashing is pandas' C SipHash
    over the flat word list (vectorized; a Python dict cache measured
    slower at realistic vocabulary sizes).  This is the ONE shingle
    kernel in the engine: MinHash-LSH, the Jaccard verifier, and the
    exact n-gram oracle query all hash through it, so they stay
    bit-identical by construction."""
    from pynomaly_ray.functions.hashing import hash_strings

    n_docs = len(split)
    lengths = np.fromiter((len(s) for s in split), dtype=np.int64, count=n_docs)
    flat = list(chain.from_iterable(split))
    wh = hash_strings(flat) if flat else np.empty(0, dtype=np.uint64)
    woff = np.concatenate([[0], np.cumsum(lengths)])
    n_shingles = np.where(lengths >= k, lengths - k + 1, 1)
    soff = np.concatenate([[0], np.cumsum(n_shingles)])
    out = np.empty(soff[-1], dtype=np.uint64)

    n = len(wh)
    m = n - k + 1
    if m > 0 and (lengths >= k).any():
        with np.errstate(over="ignore"):
            acc = wh[:m].copy()
            for j in range(1, k):
                acc = acc * _POLY_B + wh[j : j + m]
        # start position s belongs to doc d iff it fits before the doc end
        doc_of = np.repeat(np.arange(n_docs), lengths)[:m]
        valid = (np.arange(m) + k) <= woff[doc_of + 1]
        doc_of_out = np.repeat(np.arange(n_docs), n_shingles)
        out[(lengths >= k)[doc_of_out]] = acc[valid]
    for d in np.nonzero(lengths < k)[0]:
        out[soff[d]] = _fold_short(wh[woff[d] : woff[d + 1]])
    return out, soff


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Hashes of the k-word shingles of one document (uint64)."""
    flat, _soff = _batch_shingles([text], k)
    return flat


class MinHasher:
    """Per-batch MinHash signatures (n_perm universal hashes over 64-bit
    shingle hashes), vectorized across ALL docs of the batch: one
    (n_perm x total_shingles) hash matrix, per-doc minima via
    ``np.minimum.reduceat``.

    Adds ``minhash: list<int64>`` of length ``n_perm``.
    """

    def __init__(self, n_perm: int = 64, shingle_k: int = 5, seed: int = 7):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=n_perm, dtype=np.int64).astype(
            np.uint64
        )
        self.b = rng.randint(0, _MERSENNE, size=n_perm, dtype=np.int64).astype(
            np.uint64
        )
        self.n_perm = n_perm
        self.k = shingle_k

    def signatures(self, texts) -> np.ndarray:
        """(n_docs, n_perm) int64 signature matrix for a batch of texts.

        One perm at a time so every temporary is a cache-sized vector
        (the full (n_perm x n_shingles) broadcast was measured 23x
        slower on this memory-bandwidth-bound host), with a two-fold
        Mersenne-61 reduction replacing the integer-divide ``%``."""
        texts = ["" if t is None else t for t in texts]
        if not texts:
            return np.empty((0, self.n_perm), dtype=np.int64)
        sh, soff = _batch_shingles(texts, self.k)
        M = np.uint64(_MERSENNE)
        s61 = np.uint64(61)
        sig = np.empty((self.n_perm, len(soff) - 1), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for i in range(self.n_perm):
                x = self.a[i] * sh + self.b[i]
                x = (x & M) + (x >> s61)
                x = (x & M) + (x >> s61)
                x = np.where(x >= M, x - M, x)
                sig[i] = np.minimum.reduceat(x, soff[:-1])
        return sig.T.astype(np.int64)

    def signature(self, text: str) -> np.ndarray:
        return self.signatures([text])[0]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["minhash"] = list(self.signatures(batch["text"].fillna("")))
        return out


def explode_bands(n_bands: int):
    """minhash signatures -> (doc_id, band_id, band_hash) rows for the LSH
    bucketing groupby.  band_hash FNV-folds the band's signature rows,
    vectorized over the whole (n_docs x n_bands x rows) tensor."""

    def _f(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        if n == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=object),
                    "band_id": pd.Series(dtype=np.int64),
                    "band_hash": pd.Series(dtype=np.int64),
                }
            )
        sig = np.stack(
            [np.asarray(s, dtype=np.int64) for s in batch["minhash"]]
        ).astype(np.uint64)
        rows = sig.shape[1] // n_bands
        bands = sig[:, : n_bands * rows].reshape(n, n_bands, rows)
        h = np.full((n, n_bands), _FNV_OFFSET, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for r in range(rows):
                h = (h * _FNV_PRIME) ^ bands[:, :, r]
        return pd.DataFrame(
            {
                "doc_id": np.repeat(np.asarray(batch["doc_id"], dtype=object), n_bands),
                "band_id": np.tile(np.arange(n_bands, dtype=np.int64), n),
                "band_hash": (h >> np.uint64(1)).astype(np.int64).ravel(),
            }
        )

    return _f


_BUCKET_PAIR_CAP = 256


def _emit_group_pairs(
    vals: np.ndarray, sizes: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) pair arrays for every collision group, batched by group
    SIZE so Python cost is O(#distinct sizes), not O(#groups): all
    groups of one size stack into an (m, s) matrix and emit their
    upper-triangle pairs with two fancy-index takes.  Groups larger than
    ``cap`` emit a star to their first element (see
    ``bucket_candidate_pairs`` rationale).

    ``vals``: concatenation of the group member arrays, each group's
    members contiguous and sorted; ``sizes``: per-group lengths (>= 2).
    """
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    a_out, b_out = [], []
    small = sizes <= cap
    for s in np.unique(sizes[small]):
        if s < 2:
            continue
        gsel = np.flatnonzero(small & (sizes == s))
        rows = vals[offsets[gsel][:, None] + np.arange(s)[None, :]]  # (m, s)
        iu0, iu1 = np.triu_indices(s, k=1)
        a_out.append(rows[:, iu0].ravel())
        b_out.append(rows[:, iu1].ravel())
    for g in np.flatnonzero(~small):  # rare by construction
        seg = vals[offsets[g] : offsets[g + 1]]
        a_out.append(np.full(len(seg) - 1, seg[0], dtype=vals.dtype))
        b_out.append(seg[1:])
    if not a_out:
        return np.empty(0, dtype=vals.dtype), np.empty(0, dtype=vals.dtype)
    return np.concatenate(a_out), np.concatenate(b_out)


def bucket_candidate_pairs(df: pd.DataFrame) -> pd.DataFrame:
    """ALL (band_id, band_hash) groups of one exchange bucket -> candidate
    pairs, in one vectorized pass: singleton groups (the overwhelming
    majority — band hashes are uniform) are dropped with a groupby
    transform, and the surviving collision groups emit their pairs
    batched by group size (``_emit_group_pairs`` — Python cost is
    O(#distinct sizes), typically 2-3 iterations).  Replaces a per-group
    ``map_groups`` callback that cost ~1 ms per group (65 s at 80k
    groups on sf0.1).

    Collision groups larger than ``_BUCKET_PAIR_CAP`` emit a star (every
    doc paired with the lexicographically-first) instead of all O(n^2)
    pairs: a duplicate-heavy corpus — exactly what a dedup pipeline
    exists for — would otherwise build hundreds of millions of pairs in
    one task.  The star still links every member of a duplicate group to
    one representative, which is what downstream grouping needs.
    """
    # typed empty frame: an object-dtype empty column becomes Arrow
    # `null` and breaks downstream schema unification
    empty = pd.array([], dtype="string")
    if not len(df):
        return pd.DataFrame({"doc_a": empty, "doc_b": empty})
    from pynomaly_ray.functions.hashing import nul_safe_key

    # nul_safe_key: drop_duplicates routes object/python-string doc_ids
    # through pandas' NUL-truncating C-string hash table, which would
    # silently discard one of two colliding docs whose ids differ only
    # after an embedded \x00 — losing their pair before verification
    d = (
        df.assign(doc_id=nul_safe_key(df["doc_id"]))
        .drop_duplicates(["band_id", "band_hash", "doc_id"])
        .sort_values(["band_id", "band_hash", "doc_id"], kind="mergesort")
    )
    keys = ["band_id", "band_hash"]
    sizes = d.groupby(keys, sort=False)["doc_id"].transform("size")
    d = d[sizes >= 2]
    if not len(d):
        return pd.DataFrame({"doc_a": empty, "doc_b": empty})
    # rows are contiguous per (band_id, band_hash) group and sorted, so
    # the group sizes index straight into the value vector
    gsizes = d.groupby(keys, sort=False).size().to_numpy()
    a, b = _emit_group_pairs(d["doc_id"].to_numpy(), gsizes, _BUCKET_PAIR_CAP)
    return pd.DataFrame({"doc_a": a, "doc_b": b})


def ngram_jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """Exact k-word-shingle Jaccard similarity (the LSH verify step)."""
    sa = set(_shingle_hashes(text_a, k).tolist())
    sb = set(_shingle_hashes(text_b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(len(sa | sb), 1)


def _distinct_per_segment(
    values: np.ndarray, seg: np.ndarray, n_seg: int
) -> np.ndarray:
    """Distinct-value count per segment, one lexsort — the vectorized
    replacement for building a Python set per segment."""
    order = np.lexsort((values, seg))
    v, s = values[order], seg[order]
    new = np.ones(len(v), dtype=bool)
    new[1:] = (v[1:] != v[:-1]) | (s[1:] != s[:-1])
    return np.bincount(s[new], minlength=n_seg)


class _PairVerifier:
    """Actor-pool verify stage: per batch of (doc_a, doc_b, text_a,
    text_b) candidate pairs, exact shingle Jaccard.  Runs wherever the
    pairs land — never on the driver.

    Fully vectorized: one shingle pass over all pair texts, then
    distinct counts via sorted-run boundaries (|A|, |B| per segment and
    |A ∪ B| per pair; |A ∩ B| = |A| + |B| − |A ∪ B|) — no per-pair
    Python sets, so the last Python loop in the dedup hot path is gone.
    Bit-identical to set semantics over the same uint64 shingle hashes.
    """

    def __init__(self, shingle_k: int = 5):
        self.k = shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ta = batch["text_a"].to_pylist()
        tb = batch["text_b"].to_pylist()
        n = len(ta)
        jac = np.empty(n, dtype=np.float64)
        if n:
            # one vectorized shingle pass over all pair texts: segments
            # 0..n-1 are the A sides, n..2n-1 the B sides
            flat, soff = _batch_shingles(
                [x or "" for x in ta] + [y or "" for y in tb], self.k
            )
            cnt = np.diff(soff)
            seg = np.repeat(np.arange(2 * n, dtype=np.int64), cnt)
            d = _distinct_per_segment(flat, seg, 2 * n)
            union = _distinct_per_segment(flat, seg % n, n)
            inter = d[:n] + d[n:] - union
            # both sides empty -> identical by convention (old set path)
            jac = np.where(
                union == 0, 1.0, inter / np.maximum(union, 1)
            ).astype(np.float64)
        return pa.table(
            {
                "doc_a": batch["doc_a"],
                "doc_b": batch["doc_b"],
                "jaccard": pa.array(jac, pa.float64()),
            }
        )


def minhash_lsh_duplicates(
    docs_ds,
    *,
    n_perm: int = 64,
    n_bands: int = 16,
    shingle_k: int = 5,
    jaccard_threshold: float = 0.8,
    as_dataset: bool = False,
    bands_sink: str | None = None,
):
    """Full MinHash-LSH near-dup pipeline over (doc_id, text) batches.

    Fully distributed: signatures and band hashes are vectorized batch
    kernels; candidate pairs are deduplicated by a hash exchange, their
    texts hash-joined on (docs never collected to the driver), and the
    exact-Jaccard verify runs inside map tasks.

    Returns a pandas DataFrame of verified pairs (doc_a, doc_b, jaccard)
    by default — the right shape for corpora whose verified-pair list is
    driver-sized.  With ``as_dataset=True`` the threshold filter runs in
    the map tasks and the verified pairs come back as a ray.data.Dataset
    (``write_parquet`` it) — the 100-TB path where even the pair list is
    too large to collect.

    ``bands_sink``: optional parquet dir; the (doc_id, band_id,
    band_hash) rows are materialized there and the candidate exchange
    re-reads them from disk, so an external oracle (SQL over the sink)
    can reconstruct the candidate generation from exactly the rows the
    engine consumed (see q_minhash_dedup's DuckDB twin).
    """
    from pynomaly_ray.functions.exchange import hash_aggregate, hash_join

    # MinHasher holds no real state (hashing is vectorized; the RNG-
    # derived perm constants are tiny), so it ships as a plain callable:
    # task-pool parallelism with no actor-spawn latency.
    sigs = docs_ds.map_batches(
        MinHasher(n_perm=n_perm, shingle_k=shingle_k),
        batch_format="pandas",
    )
    bands = sigs.map_batches(explode_bands(n_bands), batch_format="pandas")
    if bands_sink is not None:
        from pynomaly_ray.sources.parquet import read_parquet_clean

        bands.write_parquet(bands_sink)
        bands = read_parquet_clean(bands_sink)
    # candidate generation as a hash exchange on the uniform band keys:
    # every (band_id, band_hash) group lands whole in one bucket, and the
    # bulk reducer vectorizes across ALL groups of the bucket (Ray's
    # groupby().map_groups costs a Python call per group — measured 65 s
    # for 80k groups)
    cands = hash_aggregate(
        bands,
        ["band_id", "band_hash"],
        bucket_candidate_pairs,
    )
    return _verify_candidate_pairs(
        cands, docs_ds, shingle_k, jaccard_threshold, as_dataset
    )


def _verify_candidate_pairs(
    cands, docs_ds, shingle_k: int, jaccard_threshold: float, as_dataset: bool
):
    """Shared tail of the LSH pipelines: hash-join both sides' texts
    onto the candidate pairs (docs never collected to the driver) and
    exact-verify in map tasks."""
    from pynomaly_ray.functions.exchange import hash_join

    def _rename(col_id: str, col_text: str):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table({col_id: t["doc_id"], col_text: t["text"]})

        return _f

    texts_a = docs_ds.map_batches(_rename("doc_a", "text_a"), batch_format="pyarrow")
    texts_b = docs_ds.map_batches(_rename("doc_b", "text_b"), batch_format="pyarrow")
    # every copy of a pair (one per colliding band) shares doc_a, so the
    # in-bucket dedup inside the first join is globally exact — one
    # exchange round saved vs a standalone dedup pass
    with_a = hash_join(
        cands,
        texts_a,
        ["doc_a"],
        merge_fn=lambda df: df.drop_duplicates(["doc_a", "doc_b"]),
    )
    with_b = hash_join(with_a, texts_b, ["doc_b"])
    verified = with_b.map_batches(
        _PairVerifier(shingle_k=shingle_k), batch_format="pyarrow"
    )
    if as_dataset:
        import pyarrow.compute as pc

        return verified.map_batches(
            lambda t: t.filter(
                pc.greater_equal(t["jaccard"], jaccard_threshold)
            ),
            batch_format="pyarrow",
        )
    out = verified.to_pandas()
    if out.empty:
        return pd.DataFrame({"doc_a": [], "doc_b": [], "jaccard": []})
    out = out[out["jaccard"] >= jaccard_threshold]
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def bucket_candidate_pairs_new_only(df: pd.DataFrame) -> pd.DataFrame:
    """:func:`bucket_candidate_pairs` over a band table carrying
    ``is_prior``, emitting only pairs that involve at least one NEW doc
    (``is_prior == 0``).  The cross-run incremental rule: MinHash bands
    are deterministic, so two PRIOR docs colliding in this run's buckets
    also collided in the run that introduced the younger of them — their
    pair was already emitted then and is suppressed here."""
    pairs = bucket_candidate_pairs(df)
    if not len(pairs):
        return pairs
    from pynomaly_ray.functions.hashing import nul_safe_key

    # nul_safe_key on BOTH the index and the probes: an object-keyed
    # reindex uses the NUL-truncating hash table, which could mislabel
    # a new doc as prior and suppress its pairs
    prior_of = (
        df.assign(doc_id=nul_safe_key(df["doc_id"]))
        .drop_duplicates("doc_id")
        .set_index("doc_id")["is_prior"]
    )
    both_prior = (
        prior_of.reindex(nul_safe_key(pairs["doc_a"])).to_numpy() == 1
    ) & (prior_of.reindex(nul_safe_key(pairs["doc_b"])).to_numpy() == 1)
    return pairs[~both_prior].reset_index(drop=True)


def _committed_state_dirs(
    state_dir: str, table: str, run_id: str | None = None
) -> list[str]:
    """Dirs of the COMMITTED runs of an incremental state table
    (``bands`` for MinHash, ``hashes`` for exact), in sorted run order,
    ``run_id`` excluded.  The marker is written after the run's pairs
    are delivered — a crashed run's state must not suppress
    re-emission of pairs it never delivered."""
    import os

    root = os.path.join(state_dir, table)
    return [
        os.path.join(root, d)
        for d in sorted(committed(root) - {run_id})
        if os.path.isdir(os.path.join(root, d))
    ]


def commit_run_state(state_dir: str, run_id: str, table: str = "bands") -> None:
    """Mark ``run_id``'s state table (``bands`` for MinHash, ``hashes``
    for exact) as committed.  MUST be called only after the run's pairs
    are DURABLY persisted (written to their sink), never merely
    computed: once committed, later runs treat the run's docs as prior
    and suppress pairs among them — a marker written before the sink
    write would make a crash between the two silently and permanently
    lose those pairs."""
    import os

    mark_committed(os.path.join(state_dir, table), run_id)


def _publish_compacted(state_dir: str, table: str, dirs, write) -> str:
    """The crash ordering both compactions share: ``write(tmp)`` builds
    the merged dir, which is published under the next ``compact-NNNN``
    name, committed, and only then are the source ``dirs`` removed."""
    import os
    import shutil

    root = os.path.join(state_dir, table)
    # next index scans ALL compact-* dirs (committed or not) so a
    # crashed, uncommitted compaction attempt never collides
    taken = [
        int(d.split("-", 1)[1])
        for d in os.listdir(root)
        if d.startswith("compact-") and d.split("-", 1)[1].isdigit()
    ]
    cname = f"compact-{(max(taken) + 1 if taken else 1):04d}"
    publish_dir(os.path.join(root, cname), write)
    mark_committed(root, cname)
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    return cname


def compact_minhash_state(state_dir: str) -> dict:
    """Merge all COMMITTED per-run band dirs into one compacted dir.

    After hundreds of crawl increments the prior-band anti-join reads
    hundreds of small parquet dirs; compaction folds them into a single
    ``bands/compact-NNNN/`` run so later runs open one dir.  Commit
    ordering makes it crash-safe at every point:

    1. the merged table is written to a hidden temp dir, then renamed
       into place (a crash leaves only an uncommitted — ignored — dir);
    2. the compacted run's commit marker is written (from here the
       merged state is authoritative);
    3. only then are the source runs' band DIRS removed.  A crash inside
       step 3 leaves band rows duplicated between the compacted and
       leftover source dirs — harmless: candidate generation dedups
       (band, doc) rows (:func:`bucket_candidate_pairs`) and prior-prior
       pairs are suppressed regardless; re-running compaction converges.

    The source runs' commit MARKERS are deliberately KEPT
    (only their dirs go): a marker means "this run's pairs were durably
    delivered", which stays true after its bands fold into the compacted
    dir — and the CLI ``--keep-list`` path trusts ``pairs/<run>/`` dirs
    exactly by those markers, so deleting them would silently drop every
    pre-compaction run's pairs from future drop-lists.  Dir scans skip
    marker-without-dir entries, so the tombstones cost nothing.

    ``params.json`` / ``out_dir.txt`` pins are untouched.  Returns a
    summary dict (``compacted_runs``, ``target``).
    """
    import os

    from pynomaly_ray.sources.parquet import read_parquet_clean

    dirs = _committed_state_dirs(state_dir, "bands")
    if len(dirs) <= 1:
        return {
            "compacted_runs": 0,
            "target": os.path.basename(dirs[0]) if dirs else None,
        }
    files = parquet_files(*dirs)
    cname = _publish_compacted(
        state_dir,
        "bands",
        dirs,
        lambda tmp: read_parquet_clean(files).write_parquet(tmp),
    )
    return {"compacted_runs": len(dirs), "target": cname}


def _check_minhash_params(
    state_dir: str, params: dict
) -> None:
    """Persist the LSH parameters alongside the band state on first use
    and refuse a mismatch afterwards: bands built with different
    n_perm/n_bands/shingle_k hash into unrelated buckets, so mixing them
    silently misses every cross-run duplicate."""
    import json
    import os

    root = os.path.join(state_dir, "bands")
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, "params.json")
    if os.path.exists(path):
        with open(path) as f:
            prior = json.load(f)
        # keys the prior file never recorded (state written by an older
        # engine before that parameter joined the contract) are adopted
        # from this run rather than failing a compatible state dir
        mismatched = {
            k: (prior[k], v)
            for k, v in params.items()
            if k in prior and prior[k] != v
        }
        if mismatched:
            raise ValueError(
                f"minhash state {state_dir!r} was built with {prior}; "
                f"this run requests {params} — incompatible band tables "
                f"(mismatched: {sorted(mismatched)}). "
                "Use a fresh state dir (or the original parameters)."
            )
        if set(params) - set(prior):
            prior.update(params)
            write_json(path, prior)
    else:
        write_json(path, params)


def minhash_lsh_duplicates_incremental(
    docs_ds,
    state_dir: str,
    run_id: str,
    *,
    n_perm: int = 64,
    n_bands: int = 16,
    shingle_k: int = 5,
    jaccard_threshold: float = 0.8,
    as_dataset: bool = False,
):
    """Cross-run incremental MinHash-LSH near-dup detection.

    Each run persists its (doc_id, band_id, band_hash) band table under
    ``state_dir/bands/<run_id>/`` (parquet, committed via a marker file
    once the run's pairs are delivered).  A later run over the
    accumulated corpus:

    - anti-joins doc_ids against prior runs' band tables, so only docs
      UNSEEN by any committed run are shingled/MinHashed (the expensive
      kernel runs once per doc across the corpus lifetime);
    - generates candidates from the union of new and prior bands but
      emits only pairs touching a new doc (prior-prior pairs were
      already reported — see :func:`bucket_candidate_pairs_new_only`);
    - verifies exactly as the one-shot pipeline, hash-joining texts from
      ``docs_ds`` (which must therefore contain the full accumulated
      corpus — the crawl-accumulation layout).

    The union of all runs' pair outputs links every near-dup to a
    representative, the same guarantee the one-shot star-capped pipeline
    gives (pair sets may differ from a single full run only where a
    collision group crosses the star cap).  Retrying a crashed
    ``run_id`` is idempotent: its band dir is cleared and rewritten, and
    uncommitted dirs are never trusted.  LSH parameters are pinned to
    the state dir (params.json) — a mismatched rerun raises.

    Contract: rows with null doc_id are excluded up front (an unkeyed
    doc cannot be tracked across runs), on EVERY run including the
    first — run uniqueness/validation beforehand to surface them.

    Sink-then-commit, as in :func:`exact_duplicates_incremental`: the
    run is left uncommitted, and the caller commits it with
    :func:`commit_run_state` once it has persisted the returned pairs
    (the CLI after writing its parquet) — a marker written before the
    sink would let a crash between them suppress the run's pairs for
    good.
    """
    import os
    import shutil

    from pynomaly_ray.functions.exchange import anti_membership, hash_aggregate
    from pynomaly_ray.sources.parquet import read_parquet_clean

    # the threshold is part of the cross-run contract too: prior-prior
    # suppression assumes prior runs already emitted THEIR pairs, which
    # only holds if every run cuts at the same tau (a looser rerun would
    # silently miss prior-prior pairs in the widened band)
    _check_minhash_params(
        state_dir,
        {
            "n_perm": n_perm,
            "n_bands": n_bands,
            "shingle_k": shingle_k,
            "jaccard_threshold": jaccard_threshold,
        },
    )

    def _tag(val: int):
        def _f(t: pa.Table) -> pa.Table:
            return t.append_column(
                "is_prior", pa.array(np.full(t.num_rows, val, dtype=np.int64))
            )

        return _f

    docs_ds = docs_ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["doc_id"])), batch_format="pyarrow"
    )
    prior_dirs = _committed_state_dirs(state_dir, "bands", run_id)
    # a list of DIRECTORIES doesn't ride read_parquet; expand to files
    prior_files = parquet_files(*prior_dirs)
    new_docs = docs_ds
    prior_bands = None
    if prior_files:
        # consumed twice (id anti-join + candidate union): read once
        prior_bands = read_parquet_clean(prior_files).materialize()
        # one row per (doc, band): band_id == 0 projects to one row/doc
        prior_ids = prior_bands.map_batches(
            lambda t: t.filter(pc.equal(t["band_id"], 0)).select(["doc_id"]),
            batch_format="pyarrow",
        )
        new_docs = anti_membership(docs_ds, prior_ids, "doc_id")

    sigs = new_docs.map_batches(
        MinHasher(n_perm=n_perm, shingle_k=shingle_k), batch_format="pandas"
    )
    new_bands = sigs.map_batches(explode_bands(n_bands), batch_format="pandas")

    band_dir = os.path.join(state_dir, "bands", run_id)
    shutil.rmtree(band_dir, ignore_errors=True)  # idempotent retry
    os.makedirs(os.path.dirname(band_dir), exist_ok=True)
    new_bands = new_bands.materialize()  # consumed twice: sink + candidates
    new_bands.write_parquet(band_dir)

    union_bands = new_bands.map_batches(_tag(0), batch_format="pyarrow")
    if prior_bands is not None:
        union_bands = union_bands.union(
            prior_bands.map_batches(_tag(1), batch_format="pyarrow")
        )
    cands = hash_aggregate(
        union_bands, ["band_id", "band_hash"], bucket_candidate_pairs_new_only
    )
    return _verify_candidate_pairs(
        cands, docs_ds, shingle_k, jaccard_threshold, as_dataset
    )


class SimHasher:
    """64-bit SimHash over word features, vectorized across the batch:
    word hashes via the same whole-batch SipHash the shingle kernel uses
    (``functions/hashing.hash_strings`` — C-vectorized, so there is no
    per-word Python loop and no per-actor cache whose heap would grow
    with an open vocabulary), bit counts per doc via ``np.add.reduceat``.
    Adds ``simhash: int64``."""

    def __init__(self):
        self.word_re = re.compile(r"\w+", re.UNICODE)

    def simhash_batch(self, texts) -> np.ndarray:
        from pynomaly_ray.functions.hashing import hash_strings

        findall = self.word_re.findall
        split = [findall(("" if t is None else t).lower()) for t in texts]
        n_docs = len(split)
        lengths = np.fromiter(
            (len(s) for s in split), dtype=np.int64, count=n_docs
        )
        out = np.zeros(n_docs, dtype=np.int64)
        nz = np.nonzero(lengths)[0]
        if len(nz) == 0:
            return out
        wh = hash_strings(list(chain.from_iterable(split)))
        woff = np.concatenate([[0], np.cumsum(lengths)])
        offs = woff[:-1][nz]
        half = lengths[nz]  # bit set iff ones-count * 2 > n_words
        packed = np.zeros(len(nz), dtype=np.uint64)
        # one bit position at a time: the full (n_words x 64) bit matrix
        # is memory-bandwidth-bound on this host; 64 cache-sized passes
        # over the flat word-hash vector are far faster
        one = np.uint64(1)
        for j in range(64):
            bit_j = ((wh >> np.uint64(j)) & one).astype(np.int64)
            cnt1 = np.add.reduceat(bit_j, offs)
            packed |= ((2 * cnt1 > half).astype(np.uint64)) << np.uint64(j)
        out[nz] = (packed >> one).astype(np.int64)  # sign-safe
        return out

    def simhash(self, text: str) -> np.int64:
        return np.int64(self.simhash_batch([text])[0])

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["simhash"] = self.simhash_batch(batch["text"].fillna(""))
        return out


def exact_duplicates_by_content(docs_ds):
    """Exact dedup via content hash: per-batch partial (hash -> min
    doc_id, count) merged through the vectorized hash exchange keyed on
    the int64 hash — the text itself never crosses a stage boundary.

    Returns a Dataset (content_hash, doc_id, copies) with doc_id = the
    minimum doc_id of each content group (the kept representative).
    64-bit content hashes make accidental collisions negligible
    (~n^2 / 2^65; ~1e-9 at a million docs per run).
    """
    from pynomaly_ray.functions.exchange import hash_aggregate
    from pynomaly_ray.functions.hashing import hash_strings

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "content_hash": hash_strings(t["text"]).astype(np.int64),
                "doc_id": t["doc_id"].to_pandas(),
            }
        )
        g = (
            df.groupby("content_hash", sort=False)
            .agg(doc_id=("doc_id", "min"), copies=("doc_id", "size"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(
            None
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("content_hash", sort=False)
            .agg(doc_id=("doc_id", "min"), copies=("copies", "sum"))
            .reset_index()
        )

    partials = docs_ds.map_batches(partial, batch_format="pyarrow")
    return hash_aggregate(partials, ["content_hash"], merge)


def _dir_rank(d: str, fallback: int) -> int:
    """First-seen rank of a state run dir: ``rank.txt`` (written with
    the run), else the dir's sorted position (pre-rank state dirs)."""
    import os

    try:
        with open(os.path.join(d, "rank.txt")) as f:
            return int(f.read())
    except (OSError, ValueError):
        return fallback


def _ranked_state(dirs, ranks):
    """The rows of the hash-state dirs ``dirs`` as one Dataset, each
    tagged with its first-seen rank (``rnk``): a compacted dir already
    carries per-row ranks, any other gets its run's rank from ``ranks``.
    None when every dir is empty."""
    from pynomaly_ray.sources.parquet import read_parquet_clean

    parts = []
    for rank, d in zip(ranks, dirs):
        files = parquet_files(d)
        if not files:
            continue

        def tag(t: pa.Table, _r=rank) -> pa.Table:
            if "rnk" in t.schema.names:  # compacted dir: per-row ranks
                return t
            return t.append_column(
                "rnk", pa.array(np.full(t.num_rows, _r, dtype=np.int64))
            )

        parts.append(read_parquet_clean(files).map_batches(tag, batch_format="pyarrow"))
    if not parts:
        return None
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.union(p)
    return merged


def compact_exact_state(state_dir: str) -> dict:
    """Merge all COMMITTED per-run hash dirs into one compacted dir.

    Same maintenance op and crash ordering as
    :func:`compact_minhash_state` (temp-write -> rename -> commit
    marker -> remove sources; a crash at any point either ignores the
    attempt or leaves harmlessly-duplicated rows that the next
    compaction folds).  One exact-dedup-specific invariant: the merged
    table PERSISTS each row's original first-seen rank as an ``rnk``
    column — rank comes from dir order / rank.txt, which compaction
    destroys, and without it a later run would re-elect keepers by
    doc_id alone and could point new duplicates at docs that past runs
    already dropped (a broken representative chain).  The compacted
    dir's ``rank.txt`` records the max merged rank so the next run's
    rank stays strictly above every persisted one.
    """
    import os

    dirs = _committed_state_dirs(state_dir, "hashes")
    if len(dirs) <= 1:
        return {
            "compacted_runs": 0,
            "target": os.path.basename(dirs[0]) if dirs else None,
        }
    ranks = [_dir_rank(d, i) for i, d in enumerate(dirs)]
    merged = _ranked_state(dirs, ranks)
    if merged is None:  # all committed dirs empty: nothing to fold
        return {"compacted_runs": 0, "target": None}

    def write(tmp: str) -> None:
        merged.write_parquet(tmp)
        os.makedirs(tmp, exist_ok=True)
        with open(os.path.join(tmp, "rank.txt"), "w") as f:
            f.write(str(max(ranks)))

    cname = _publish_compacted(state_dir, "hashes", dirs, write)
    return {"compacted_runs": len(dirs), "target": cname}


def exact_duplicates_incremental(
    docs_ds,
    state_dir: str,
    run_id: str,
) -> pd.DataFrame:
    """Cross-run incremental EXACT dedup — first-crawl-wins semantics.

    The exact-hash twin of :func:`minhash_lsh_duplicates_incremental`:
    each run persists (doc_id, content_hash) for the docs it first saw
    under ``state_dir/hashes/<run_id>/``.  The caller commits the run
    with ``commit_run_state(state_dir, run_id, table="hashes")`` once
    it has persisted the returned pairs (sink-then-commit).  A later
    run over the accumulated corpus anti-joins doc_ids against committed
    state, so the content hash is computed ONCE per doc across the
    corpus lifetime, then emits (doc_keep, doc_dup) only for NEW docs
    whose content was already seen (by a prior run, or by a smaller-id
    doc in this run).

    The keeper of a content group is the FIRST-SEEN doc — min (run
    rank, doc_id), run rank = sorted state-dir order — so the keeper
    never changes once assigned and the union of all runs' pair
    outputs drops exactly all-but-the-first copy of every content,
    byte-identical to what replaying the crawl through the one-shot
    pipeline run-by-run would keep.  Retrying a crashed ``run_id`` is
    idempotent (its dir is cleared and rewritten; uncommitted dirs are
    never trusted).

    Scale shape: the group key is the int64 content hash (uniform —
    no skew), text never leaves the hashing batch, the reducer is
    vectorized and emits O(duplicates) rows (a million-copy page is
    one group and one linear pass, never a quadratic pair set), and
    state grows one row per NEW doc per run.  Collisions inherit the
    one-shot contract (~n^2/2^65, documented at
    :func:`exact_duplicates_by_content`).

    Rows with null doc_id are excluded up front on every run, as in
    the MinHash incremental contract.
    """
    import os
    import shutil

    import pyarrow.compute as pc

    from pynomaly_ray.functions.exchange import anti_membership, hash_aggregate
    from pynomaly_ray.functions.hashing import hash_strings

    docs_ds = docs_ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["doc_id"])), batch_format="pyarrow"
    )
    prior_dirs = _committed_state_dirs(state_dir, "hashes", run_id)
    # first-seen rank is PERSISTED per run (rank.txt; compacted dirs
    # carry it per-row as an ``rnk`` column instead) — dir order alone
    # would be destroyed by compaction, silently re-electing keepers
    # and pointing future dups at docs already dropped by past runs
    ranks = [_dir_rank(d, i) for i, d in enumerate(prior_dirs)]
    new_rank = max(ranks) + 1 if ranks else 0

    new_docs = docs_ds
    prior_all = _ranked_state(prior_dirs, ranks)
    if prior_all is not None:
        prior_all = prior_all.materialize()  # consumed twice
        prior_ids = prior_all.map_batches(
            lambda t: t.select(["doc_id"]), batch_format="pyarrow"
        )
        new_docs = anti_membership(docs_ds, prior_ids, "doc_id")

    def hash_new(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "content_hash": pa.array(
                    hash_strings(t["text"]).astype(np.int64), pa.int64()
                ),
            }
        )

    hash_dir = os.path.join(state_dir, "hashes", run_id)
    shutil.rmtree(hash_dir, ignore_errors=True)  # idempotent retry
    os.makedirs(os.path.dirname(hash_dir), exist_ok=True)
    new_hashes = new_docs.map_batches(
        hash_new, batch_format="pyarrow"
    ).materialize()  # consumed twice: sink + grouping
    new_hashes.write_parquet(hash_dir)
    os.makedirs(hash_dir, exist_ok=True)  # zero-new-doc runs write no files
    with open(os.path.join(hash_dir, "rank.txt"), "w") as f:
        f.write(str(new_rank))

    union = new_hashes.map_batches(
        lambda t: t.append_column(
            "rnk", pa.array(np.full(t.num_rows, new_rank, dtype=np.int64))
        ),
        batch_format="pyarrow",
    )
    if prior_all is not None:
        union = union.union(prior_all)

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["content_hash", "rnk", "doc_id"], kind="mergesort"
        )
        keep = df.groupby("content_hash", sort=False)["doc_id"].transform(
            "first"
        )
        m = (df["rnk"].to_numpy() == new_rank) & (
            df["doc_id"].to_numpy() != keep.to_numpy()
        )
        # masking preserves the id dtype even when zero rows survive,
        # so cross-bucket concat never sees a float64 empty
        ids = df["doc_id"].to_numpy()
        return pd.DataFrame(
            {"doc_keep": keep.to_numpy()[m], "doc_dup": ids[m]}
        )

    pairs = hash_aggregate(union, ["content_hash"], emit).to_pandas()
    if pairs.empty:
        pairs = pd.DataFrame(
            {
                "doc_keep": pd.Series(dtype=np.int64),
                "doc_dup": pd.Series(dtype=np.int64),
            }
        )
    return pairs.sort_values(["doc_keep", "doc_dup"]).reset_index(drop=True)


def editdist_le1(ta, tb) -> np.ndarray:
    """Exact Levenshtein distance for pairs already known to be close:
    returns 0, 1, or 2 (meaning "> 1") per pair — the verify kernel of
    the FastSS / SymSpell deletion-neighborhood dedup (Bocek et al.
    2007; d(a,b) <= 1 implies the deletion variant sets intersect, but
    not conversely — e.g. 'ab'/'ba' share variants at distance 2, so
    candidates MUST be verified).

    Fully vectorized over the pair batch on UCS4 codepoint matrices
    (numpy U-dtype viewed as uint32 — CHARACTER-level for all of
    Unicode, matching DuckDB's levenshtein semantics): equal strings
    short-circuit; equal-length pairs count codepoint mismatches;
    length-diff-1 pairs use the first-mismatch/last-mismatch alignment
    identity (a valid deletion position exists iff the last misaligned
    suffix position precedes the first prefix mismatch).
    """
    ta = np.asarray(ta, dtype=object)
    tb = np.asarray(tb, dtype=object)
    n = len(ta)
    out = np.full(n, 2, dtype=np.int64)
    if n == 0:
        return out
    eq = ta == tb
    out[eq] = 0
    todo = ~eq
    if not todo.any():
        return out
    ia = np.nonzero(todo)[0]
    # shared '\x01' sentinel appended at the OBJECT level: numpy U-dtype
    # (and np.char.str_len) silently trims TRAILING NUL codepoints, so
    # 'a' vs 'a\x00' would compare equal; appending one common non-NUL
    # char preserves the edit distance exactly and makes every NUL
    # interior, where U-dtype keeps it
    ua = np.asarray(ta[ia] + "\x01", dtype=str)
    ub = np.asarray(tb[ia] + "\x01", dtype=str)
    la = np.char.str_len(ua)
    lb = np.char.str_len(ub)
    wid = max(ua.dtype.itemsize // 4, ub.dtype.itemsize // 4, 1)
    A = np.frombuffer(
        np.asarray(ua, dtype=f"U{wid}").tobytes(), dtype=np.uint32
    ).reshape(len(ia), wid)
    B = np.frombuffer(
        np.asarray(ub, dtype=f"U{wid}").tobytes(), dtype=np.uint32
    ).reshape(len(ia), wid)
    col = np.arange(wid)

    same_len = la == lb
    if same_len.any():
        mism = ((A != B) & (col < la[:, None])).sum(axis=1)
        hit = same_len & (mism <= 1)
        out[ia[hit]] = mism[hit]

    # length differs by one: L = longer, S = shorter
    d1 = np.abs(la - lb) == 1
    if d1.any():
        j = np.nonzero(d1)[0]
        a_long = la[j] > lb[j]
        L = np.where(a_long[:, None], A[j], B[j])
        S = np.where(a_long[:, None], B[j], A[j])
        ls = np.minimum(la[j], lb[j])
        in_s = col < ls[:, None]
        badA = (L != S) & in_s
        # first prefix mismatch (ls if none)
        firstA = np.where(badA.any(axis=1), badA.argmax(axis=1), ls)
        # L shifted left by one vs S: last misaligned position (-1 if none)
        badB = (L[:, 1:] != S[:, :-1]) & in_s[:, : wid - 1]
        lastB = np.where(
            badB.any(axis=1),
            wid - 2 - np.fliplr(badB).argmax(axis=1),
            np.int64(-1),
        )
        hit = lastB < firstA
        out[ia[j[hit]]] = 1
    return out


# ---------------------------------------------------------------------------
# Exact similarity join via prefix filtering (AllPairs / PPJoin family,
# Bayardo et al. 2007; Xiao et al. 2008).  The LOSSLESS counterpart of
# MinHash-LSH: every pair with word-set Jaccard >= num/den is returned,
# with exact integer (n_inter, n_union) evidence — no probabilistic
# recall.  The scale trick is the prefix-filtering principle: order the
# vocabulary by ascending document frequency (rarest first); a doc with
# s distinct tokens need only index its first p = s - ceil(t*s) + 1
# tokens, because two sets with J >= t MUST share a token inside both
# prefixes under any common total order.  Candidates therefore form
# only in the buckets of each doc's RAREST tokens — the 'the' bucket
# never exists.
# ---------------------------------------------------------------------------


def _wordset_pair_stats(t: pa.Table) -> pa.Table:
    """(doc_a, doc_b, text_a, text_b) batch -> exact distinct-word-set
    overlap: (doc_a, doc_b, n_inter, n_union).  One tokenize pass over
    all pair texts (the WS_TOKEN_RE tokenizer — the SAME token space
    candidate generation used, a losslessness requirement), distinct
    counts via sorted-run boundaries (|A|, |B|, |A u B|; the
    _PairVerifier recipe on word hashes)."""
    from pynomaly_ray.functions.hashing import hash_strings
    from pynomaly_ray.stages.text import WS_TOKEN_RE

    n = t.num_rows
    if n == 0:
        return pa.table(
            {
                "doc_a": t["doc_a"],
                "doc_b": t["doc_b"],
                "n_inter": pa.array([], pa.int64()),
                "n_union": pa.array([], pa.int64()),
            }
        )
    toks = (
        pd.concat(
            [t["text_a"].to_pandas(), t["text_b"].to_pandas()],
            ignore_index=True,
        )
        .fillna("")
        .str.findall(WS_TOKEN_RE)
    )
    lens = toks.str.len().to_numpy(dtype=np.int64)
    flat_words = list(chain.from_iterable(toks))
    wh = (
        hash_strings(flat_words)
        if flat_words
        else np.empty(0, dtype=np.uint64)
    )
    seg = np.repeat(np.arange(2 * n, dtype=np.int64), lens)
    d = _distinct_per_segment(wh, seg, 2 * n)
    union = _distinct_per_segment(wh, seg % n, n)
    inter = d[:n] + d[n:] - union
    return pa.table(
        {
            "doc_a": t["doc_a"],
            "doc_b": t["doc_b"],
            "n_inter": pa.array(inter.astype(np.int64)),
            "n_union": pa.array(union.astype(np.int64)),
        }
    )


def prefix_jaccard_pairs(
    docs_ds,
    *,
    num: int = 1,
    den: int = 2,
    group_cap: int = 10_000,
):
    """EXACT word-set-Jaccard similarity join over (doc_id, text):
    every unordered pair with ``J >= num/den`` (a rational threshold —
    the prefix arithmetic and the final filter stay integer-exact on
    both engine and SQL sides), as (doc_a, doc_b, n_inter, n_union).

    Pipeline (4 keyed exchanges, text shuffled only for the final
    verify join):

    1. map: distinct (doc_id, token) rows per doc (one Arrow groupby
       per batch; each doc lives in exactly one input row, so the rows
       are globally distinct);
    2. token-keyed exchange: document frequency = per-token row count;
       vocabulary-sized output;
    3. hash-join df onto the token rows, then a doc-keyed exchange
       sorts each doc's tokens by (df, token) and keeps the first
       ``s - ceil(num*s/den) + 1`` — the doc's prefix;
    4. token-keyed exchange over prefix rows: every group emits its
       pairs (``_emit_group_pairs``, star cap DISABLED — exactness);
       a group wider than ``group_cap`` raises loudly instead of
       silently exploding: prefix tokens are each doc's rarest, so a
       wide group means a pathological corpus (thousands of
       near-identical docs) — use minhash_lsh_duplicates there;
    5. texts hash-joined onto the deduplicated pairs and verified
       exactly in map tasks (:func:`_wordset_pair_stats`).

    Lossless by the prefix-filtering principle; the property test
    checks equality against a brute-force all-pairs join on randomized
    corpora.  No counterpart in the reference (PyNomaly has no joins).
    """
    from pynomaly_ray.functions.exchange import hash_aggregate, hash_join
    from pynomaly_ray.functions.hashing import nul_safe_key
    from pynomaly_ray.stages.text import batch_token_counts

    if not (isinstance(num, int) and isinstance(den, int) and 0 < num <= den):
        raise ValueError(f"threshold must be a fraction 0 < num/den <= 1")

    tok = docs_ds.map_batches(
        lambda t: batch_token_counts(t, by_doc=True), batch_format="pyarrow"
    )

    dfs = hash_aggregate(
        tok,
        ["token"],
        lambda df: df.groupby(nul_safe_key(df["token"]), sort=False)
        .agg(token=("token", "first"), doc_freq=("doc_id", "size"))
        .reset_index(drop=True),
    )
    decorated = hash_join(tok, dfs, ["token"])

    def prefix_rows(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "token": pd.array([], dtype="string"),
                    "doc_id": pd.Series([], dtype=np.int64),
                }
            )
        d = df.assign(
            _doc=nul_safe_key(df["doc_id"]), _tok=nul_safe_key(df["token"])
        ).sort_values(["_doc", "doc_freq", "_tok"], kind="mergesort")
        sizes = d.groupby("_doc", sort=False)["_doc"].transform("size").to_numpy(
            dtype=np.int64
        )
        rank = d.groupby("_doc", sort=False).cumcount().to_numpy(dtype=np.int64)
        p = sizes - (-((-num * sizes) // den)) + 1
        keep = rank < p
        out = d[keep]
        return pd.DataFrame(
            {"token": out["token"].to_numpy(), "doc_id": out["doc_id"].to_numpy()}
        )

    pref = hash_aggregate(decorated, ["doc_id"], prefix_rows)

    def cand_pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.array([], dtype="string")
        if not len(df):
            return pd.DataFrame({"doc_a": empty, "doc_b": empty})
        d = (
            df.assign(
                _tok=nul_safe_key(df["token"]), _doc=nul_safe_key(df["doc_id"])
            )
            .drop_duplicates(["_tok", "_doc"])
            .sort_values(["_tok", "_doc"], kind="mergesort")
        )
        sizes = d.groupby("_tok", sort=False).size().to_numpy()
        if (sizes > group_cap).any():
            w = int(sizes.max())
            raise ValueError(
                f"prefix-token group of width {w} exceeds group_cap="
                f"{group_cap}: the corpus has a pathological block of "
                "near-identical docs — dedup it with "
                "minhash_lsh_duplicates first or raise group_cap"
            )
        d = d[np.repeat(sizes, sizes) >= 2] if len(sizes) else d
        if not len(d):
            return pd.DataFrame({"doc_a": empty, "doc_b": empty})
        gsizes = d.groupby("_tok", sort=False).size().to_numpy()
        a, b = _emit_group_pairs(
            d["doc_id"].to_numpy(), gsizes, cap=int(gsizes.max()) + 1
        )
        return pd.DataFrame({"doc_a": a, "doc_b": b})

    cands = hash_aggregate(pref, ["token"], cand_pairs)

    def _rename(col_id: str, col_text: str):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table({col_id: t["doc_id"], col_text: t["text"]})

        return _f

    texts_a = docs_ds.map_batches(
        _rename("doc_a", "text_a"), batch_format="pyarrow"
    )
    texts_b = docs_ds.map_batches(
        _rename("doc_b", "text_b"), batch_format="pyarrow"
    )
    # per-pair copies (one per shared prefix token) all share doc_a, so
    # the in-bucket dedup inside the first join is globally exact
    with_a = hash_join(
        cands,
        texts_a,
        ["doc_a"],
        merge_fn=lambda df: df.drop_duplicates(["doc_a", "doc_b"]),
    )
    with_b = hash_join(with_a, texts_b, ["doc_b"])
    stats = with_b.map_batches(_wordset_pair_stats, batch_format="pyarrow")

    def keep(t: pa.Table) -> pa.Table:
        ok = pc.greater_equal(
            pc.multiply(pc.cast(t["n_inter"], pa.int64()), den),
            pc.multiply(pc.cast(t["n_union"], pa.int64()), num),
        )
        return t.filter(ok)

    out = stats.map_batches(keep, batch_format="pyarrow").to_pandas()
    if out.empty or "doc_a" not in out.columns:
        return pd.DataFrame(
            {
                "doc_a": pd.Series([], dtype=np.int64),
                "doc_b": pd.Series([], dtype=np.int64),
                "n_inter": pd.Series([], dtype=np.int64),
                "n_union": pd.Series([], dtype=np.int64),
            }
        )
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
