"""Sequence packing: concatenate a tokenized corpus in a deterministic
global document order and chunk it into fixed-length training sequences
(the standard GPT-style "concat-and-chunk" pretraining layout).

Two operators:

- :func:`pack_offsets` — the PLACEMENT math: for every doc, which
  packed sequence(s) it lands in and at what offset.  This is a global
  exclusive prefix sum over ``n_tok`` in doc-id order — an ordered scan
  the Dataset API cannot express, so it runs as the engine's explicit
  two-phase shape: :func:`~pynomaly_ray.functions.exchange.range_sort`
  range-partitions the corpus by doc id (P globally-ordered blocks),
  one tiny task per block reduces (min_id, total_weight), the driver
  computes P exclusive bases from P rows (never data rows), and one
  task per block adds base + in-block exclusive cumsum.  Fully
  SQL-mirrorable (``SUM(n_tok) OVER (ORDER BY doc_id) - n_tok``), which
  is what the ``pack_sequences`` oracle query certifies.

- :func:`pack_tokens` — the PAYLOAD move: emit each doc's token array
  as per-sequence pieces (seq_id, position, slice) and assemble full
  sequences with a hash exchange on seq_id.  Piece emission is
  vectorized over the whole block (repeat/cumsum range tricks + one
  Arrow take of the flat token buffer — no Python loop over docs or
  tokens); assembly concatenates each sequence's few pieces inside its
  bucket reducer.  The invariant a pytest pins: concatenating the
  packed sequences in seq order reproduces, token for token, the
  concatenation of the docs in doc order (per-row token-array equality,
  the same bar the flagship validation holds).

Scale notes: the exchange volume is exactly one pass of the token
payload (each token leaves its source block once, rides to one seq_id
bucket) — the unavoidable minimum for global packing; doc ids must be
unique (they are the corpus primary key; uniqueness is separately
enforced by the validation engine's A5 stage).  Docs with
``n_tok == 0`` contribute nothing and are dropped from the placement
output (both sides of the oracle filter them identically).

Reference scope note: the reference (PyNomaly) has no corpus operators;
packing belongs to the LLM-data-pipeline family layered on top.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from pynomaly_ray.functions.exchange import hash_aggregate, range_sort


@ray.remote
def _summary(t: pa.Table, idx: int, weight_col: str | None, key_col: str):
    if t.num_rows == 0:
        return (idx, None, 0)
    import pyarrow.compute as _pc

    total = (
        t.num_rows
        if weight_col is None
        else (_pc.sum(_pc.fill_null(t[weight_col], 0)).as_py() or 0)
    )
    return (idx, _pc.min(t[key_col]).as_py(), total)


def _block_prefix_bases(refs, weight_col: str | None, key_col: str = "doc_id"):
    """Driver-side exclusive prefix over per-block totals (row counts
    when ``weight_col`` is None): returns one int64 base per block
    (aligned with ``refs``), ordering blocks by their min key — blocks
    hold disjoint key ranges after range_sort, so min-key order IS
    global order regardless of ref order."""

    summaries = ray.get(
        [_summary.remote(r, i, weight_col, key_col) for i, r in enumerate(refs)]
    )
    bases = [0] * len(refs)
    running = 0
    for idx, _mn, total in sorted(
        (s for s in summaries if s[1] is not None), key=lambda s: s[1]
    ):
        bases[idx] = running
        running += int(total)
    return bases


def _check_chunk(chunk: int) -> None:
    """Fail fast on a non-positive chunk: numpy's int floor-division by
    zero only WARNS and yields 0, which would write all-zero placements
    instead of erroring."""
    if not isinstance(chunk, (int, np.integer)) or chunk < 1:
        raise ValueError(f"chunk must be a positive integer, got {chunk!r}")


@ray.remote
def _place(t: pa.Table, base: int, chunk: int, id_type) -> pa.Table:
    if t.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], id_type),
                "n_tok": pa.array([], pa.int64()),
                "seq_first": pa.array([], pa.int64()),
                "seq_last": pa.array([], pa.int64()),
                "off_in_seq": pa.array([], pa.int64()),
            }
        )
    import pyarrow.compute as _pc

    w = _pc.fill_null(t["n_tok"], 0).to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    start = base + np.concatenate([[0], np.cumsum(w)[:-1]])
    keep = w >= 1
    # ids stay in Arrow (string OR integer doc ids — the corpus
    # primary key's type is the caller's business, not packing's)
    ids = t["doc_id"].filter(pa.array(keep))
    w, start = w[keep], start[keep]
    return pa.table(
        {
            "doc_id": ids,
            "n_tok": pa.array(w),
            "seq_first": pa.array(start // chunk),
            "seq_last": pa.array((start + w - 1) // chunk),
            "off_in_seq": pa.array(start % chunk),
        }
    )


def pack_offsets(ds, chunk: int, sort_col: str = "doc_id"):
    """Per-doc packed placement over a (doc_id, n_tok[, ...]) Dataset:
    (doc_id, n_tok, seq_first, seq_last, off_in_seq) where sequences are
    ``chunk``-token windows of the ``sort_col``-ordered token
    concatenation and ``off_in_seq`` is the doc's start offset within
    seq_first.  ``sort_col`` defaults to doc-id order; a curriculum
    pipeline passes a precomputed UNIQUE integer key instead (e.g.
    quality-major, id-minor) — uniqueness is the caller's contract, a
    duplicated key would make the global order, and with it every
    offset, partition-dependent."""
    _check_chunk(chunk)
    sorted_ds = range_sort(ds, sort_col)
    refs = sorted_ds.to_arrow_refs()
    # base ordering must follow the SAME key the blocks were ranged on:
    # ordering by min doc_id while ranging on a curriculum key would
    # hand each block the wrong prefix base whenever the two orders
    # disagree across >1 range partition
    bases = _block_prefix_bases(refs, "n_tok", key_col=sort_col)

    sch = ds.schema()  # Ray Data Schema wrapper: .names / .types (Arrow)
    id_type = sch.types[sch.names.index("doc_id")]

    return ray.data.from_arrow_refs(
        [_place.remote(r, b, chunk, id_type) for r, b in zip(refs, bases)]
    )


@ray.remote
def _pieces(t: pa.Table, base: int, chunk: int) -> pa.Table:
    empty = pa.table(
        {
            "seq_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64()),
            "piece": pa.array([], pa.list_(pa.int32())),
        }
    )
    if t.num_rows == 0:
        return empty
    toks = t["tokens"]
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.values  # zero-copy flat int32 buffer of the block
    doc_off = np.asarray(toks.offsets)  # len n+1, into flat
    w = np.diff(doc_off).astype(np.int64)
    # a NULL list slot is marked by the validity bit, not by its
    # offsets — its offset span is arbitrary bytes and must not be
    # packed (mirrors with_len's fill_null(.., 0) placement weights)
    if toks.null_count:
        import pyarrow.compute as _pc

        w[~_pc.is_valid(toks).to_numpy(zero_copy_only=False)] = 0
    start = base + np.concatenate([[0], np.cumsum(w)[:-1]])
    keep = w >= 1
    w, start, lo = w[keep], start[keep], doc_off[:-1][keep].astype(np.int64)
    if not len(w):
        return empty
    end = start + w
    first = start // chunk
    last = (end - 1) // chunk
    spans = (last - first + 1).astype(np.int64)  # pieces per doc
    n_pieces = int(spans.sum())
    doc_of = np.repeat(np.arange(len(w)), spans)
    # piece j of a doc covers global [max(start, (first+j)*chunk),
    # min(end, (first+j+1)*chunk)) — all vectorized over pieces
    j = np.arange(n_pieces) - np.repeat(
        np.concatenate([[0], np.cumsum(spans)[:-1]]), spans
    )
    seq_id = first[doc_of] + j
    g_lo = np.maximum(start[doc_of], seq_id * chunk)
    g_hi = np.minimum(end[doc_of], (seq_id + 1) * chunk)
    plen = g_hi - g_lo
    # gather indices into flat: doc-local offset + per-piece ranges
    src = lo[doc_of] + (g_lo - start[doc_of])
    total = int(plen.sum())
    # ranges trick: one arange minus per-piece base repeats
    step = np.arange(total) - np.repeat(
        np.concatenate([[0], np.cumsum(plen)[:-1]]), plen
    )
    gather = np.repeat(src, plen) + step
    vals = flat.take(pa.array(gather, pa.int64()))
    piece = pa.ListArray.from_arrays(
        pa.array(np.concatenate([[0], np.cumsum(plen)]), pa.int32()),
        vals,
    )
    return pa.table(
        {
            "seq_id": pa.array(seq_id),
            "pos": pa.array(g_lo % chunk),
            "piece": piece,
        }
    )


def pack_tokens(ds, chunk: int):
    """Assemble the packed sequences themselves from a
    (doc_id, tokens:list<int32>) Dataset: returns a Dataset of
    (seq_id, tokens:list<int32>) where every sequence holds exactly
    ``chunk`` tokens except the final partial one.

    Lengths are derived from the token arrays THEMSELVES (one Arrow
    ``list_value_length`` per batch), never from a stored ``n_tok``
    column — a corrupted n_tok (exactly the violation the validation
    engine's M-constraints exist to flag) must not be able to overlap
    two docs' packed spans."""
    _check_chunk(chunk)
    import pyarrow.compute as pc

    def with_len(t: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.list_value_length(t["tokens"]), 0).cast(pa.int64())
        return pa.table(
            {"doc_id": t["doc_id"], "tokens": t["tokens"], "n_tok": n}
        )

    ds = ds.map_batches(with_len, batch_format="pyarrow")
    sorted_ds = range_sort(ds, "doc_id")
    refs = sorted_ds.to_arrow_refs()
    bases = _block_prefix_bases(refs, "n_tok")

    pieces = ray.data.from_arrow_refs(
        [_pieces.remote(r, b, chunk) for r, b in zip(refs, bases)]
    )

    def assemble(t: pa.Table) -> pa.Table:
        # Arrow-native reducer (hash_aggregate arrow=True): a pandas
        # round-trip would lose the list<int32> type on empty buckets
        # AND loop Python over sequences; here the whole bucket is one
        # multi-key sort + list_flatten + reduceat.
        empty = pa.table(
            {
                "seq_id": pa.array([], pa.int64()),
                "tokens": pa.array([], pa.list_(pa.int32())),
            }
        )
        if t.num_rows == 0:
            return empty
        idx = pc.sort_indices(
            t, sort_keys=[("seq_id", "ascending"), ("pos", "ascending")]
        )
        t = t.take(idx)
        piece = t["piece"]
        if isinstance(piece, pa.ChunkedArray):
            piece = piece.combine_chunks()
        flat = pc.list_flatten(piece)  # order-preserving concat of pieces
        plen = pc.list_value_length(piece).to_numpy(zero_copy_only=False)
        seq = t["seq_id"].to_numpy(zero_copy_only=False)
        starts = np.ones(len(seq), bool)
        starts[1:] = seq[1:] != seq[:-1]
        run_at = np.nonzero(starts)[0]
        tok_counts = np.add.reduceat(plen, run_at)
        offsets = np.concatenate([[0], np.cumsum(tok_counts)]).astype(np.int32)
        tokens = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat)
        return pa.table(
            {"seq_id": pa.array(seq[run_at], pa.int64()), "tokens": tokens}
        )

    return hash_aggregate(pieces, ["seq_id"], assemble, arrow=True)


@ray.remote
def _rank(t: pa.Table, base: int) -> pa.Table:
    if t.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "shuffle_key": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
            }
        )
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    keys = t["shuffle_key"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, keys))  # key-major, id tie-break
    pos = np.empty(len(ids), np.int64)
    pos[order] = base + np.arange(len(ids), dtype=np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids),
            "shuffle_key": pa.array(keys),
            "pos": pa.array(pos),
        }
    )


def epoch_shuffle(ds, seed: int):
    """Deterministic training-epoch shuffle: every doc gets a
    pseudo-random ``shuffle_key`` from the Knuth multiplicative hash of
    ``(doc_id + seed) mod 2^32`` and a dense global ``pos`` (0..n-1) in
    ``(shuffle_key, doc_id)`` order — the reproducible, resumable
    replacement for ``Dataset.random_shuffle`` in a training-data
    pipeline (same epoch + seed => identical order on any cluster
    shape, and a restart re-derives the permutation instead of
    re-materializing it).

    Shape: one map pass stamps keys (pure integer arithmetic, so a SQL
    oracle computes identical values), :func:`range_sort` co-locates
    each key range (equal keys land in ONE range by construction), a
    P-row driver prefix assigns block bases, and each block emits
    ``base + arange`` positions after an in-block (key, id) lexsort for
    the tie-break.  Requires integer non-null doc ids (hash string ids
    to int64 first — functions/hashing.hash_strings — if needed).
    """

    from pynomaly_ray.functions.hashing import knuth32

    def stamp(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "shuffle_key": pa.array(knuth32(ids, seed)),
            }
        )

    keyed = ds.map_batches(stamp, batch_format="pyarrow")
    sorted_ds = range_sort(keyed, "shuffle_key")
    refs = sorted_ds.to_arrow_refs()
    bases = _block_prefix_bases(refs, None, key_col="shuffle_key")

    return ray.data.from_arrow_refs(
        [_rank.remote(r, b) for r, b in zip(refs, bases)]
    )
