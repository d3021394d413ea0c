"""Explicit hash-partitioned exchange primitives built on raw Ray tasks.

Why this exists (SURVEY.md §2 note on custom operators): Ray Data's
built-in ``groupby().aggregate()`` is a sort-based shuffle whose merge
walks rows in Python — measured ~10^4 rows/s/core on this box, which
anti-scales with CPU count on small-to-medium keyed aggregations.  The
pattern here is the guide's "explicit partitioned hash join": split each
upstream block into P key-hash buckets (vectorized), then one reduce
task per bucket merges its co-located rows with a *vectorized* pandas
groupby.  Orchestration moves ObjectRefs only; no driver materialization.

Partitioning assumption: ``merge_fn`` must be a pure, associative
per-bucket reduction (groupby-sum/min/max/count style) — every row of a
key lands in exactly one bucket, so running ``merge_fn`` once per bucket
yields exact global results.  Skew: bucket count P spreads hot keys'
*partials* (upstream map-side pre-aggregation has already collapsed
per-batch duplicates), so a hot key costs one reducer O(its partials),
bounded by the number of upstream blocks.

Fan-out: P is one decision, :func:`auto_num_partitions` over the bytes
an exchange moves.  Only :func:`hash_aggregate` and :func:`range_sort`
take a ``num_partitions``, for callers whose bucket count is part of
the result (a bucketed or sorted layout, a query pinning its ranges).
Every two-sided operator (hash, anti, as-of and range joins,
:class:`PartitionedTable`) co-partitions through one helper,
:func:`_co_partitioned`, and runs one ``_pair_bucket`` task per bucket.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

# "One reducer's bucket must fit in worker memory" (module docstring):
# the fan-out P is derived from the bytes actually entering the exchange
# instead of a per-call literal, so the same query code runs at sandbox
# scale (P=1..4) and at 100x (P grows linearly with the data).  The
# target is deliberately a fraction of a worker heap — reducers hold the
# concatenated pandas frame plus its Arrow output simultaneously.
_DEFAULT_BUCKET_TARGET_BYTES = 64 << 20
_MAX_PARTITIONS = 1024


def _bucket_target_bytes() -> int:
    return int(
        os.environ.get("PNR_BUCKET_TARGET_BYTES", _DEFAULT_BUCKET_TARGET_BYTES)
    )


# Below this much data per bucket, reducer-task spawn overhead dominates
# the reduction itself — the parallelism term never splits finer.
_MIN_BUCKET_BYTES = 4 << 20


def auto_num_partitions(total_bytes: int) -> int:
    """Exchange fan-out from the exchanged volume, under two constraints:

    - memory (the hard floor): every bucket must fit a worker heap, so
      P >= bytes / target-bucket-bytes (``PNR_BUCKET_TARGET_BYTES``,
      default 64 MB — tests force multi-P paths with a tiny target);
    - parallelism: reducers should use the cluster, so up to one bucket
      per ~4 MB bounded by the cluster CPU count (a 64 MB-bucket-only
      rule left a 77 MB exchange on 2 reducers with 30 idle cores —
      measured 2-4x slower on the embedding near-dup join).

    Clamped to [1, 1024].
    """
    p_mem = math.ceil(max(total_bytes, 1) / _bucket_target_bytes())
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # no cluster context (unit tests without ray)
        cpus = 8
    p_par = min(cpus, math.ceil(max(total_bytes, 1) / _MIN_BUCKET_BYTES))
    return max(1, min(_MAX_PARTITIONS, max(p_mem, p_par)))


def _materialized(ds) -> tuple[list, int]:
    """Execute ``ds`` and return (block refs, total bytes).  An exchange
    materializes its input by construction (every block must be split by
    key before reducers can run), so this adds no extra pass."""
    mds = ds.materialize()
    try:
        nbytes = mds.size_bytes() or 0
    except Exception:
        nbytes = 0
    return mds.to_arrow_refs(), nbytes


def _hash_key_column(col) -> np.ndarray:
    """Stable uint64 row hash of one key column, CONSISTENT across
    blocks regardless of per-block null presence.

    The naive ``to_pandas()`` + hash_pandas_object is a trap: an int64
    column widens to float64 in blocks that contain a null but stays
    int64 in blocks that don't, so the same key value hashes into
    different buckets depending on which block it rode in — silently
    wrong exchanges on nullable keys.  Canonicalize first (ints/bools ->
    null-filled int64, floats -> nan-filled float64), then XOR a
    distinct mark onto the truly-null rows so null never collides with
    the fill sentinel."""
    import pyarrow.compute as _pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    ty = arr.type
    if pa.types.is_dictionary(ty):
        arr = arr.cast(ty.value_type)
        ty = arr.type
    if pa.types.is_integer(ty) or pa.types.is_boolean(ty):
        vals = _pc.fill_null(arr.cast(pa.int64()), 0).to_numpy(
            zero_copy_only=False
        )
        hv = pd.util.hash_pandas_object(
            pd.Series(vals), index=False
        ).to_numpy()
    elif pa.types.is_floating(ty):
        vals = np.nan_to_num(
            arr.cast(pa.float64()).to_numpy(zero_copy_only=False), nan=0.0
        )
        hv = pd.util.hash_pandas_object(
            pd.Series(vals), index=False
        ).to_numpy()
    else:
        # categorize=False: the categorize path factorizes object arrays
        # with a NUL-truncated C-string compare, which both conflates
        # strings differing after an embedded \x00 and makes the hash
        # depend on block co-contents -- either would mis-route keys
        # across exchange buckets.  See functions/hashing.py.
        hv = pd.util.hash_pandas_object(
            arr.to_pandas(), index=False, categorize=False
        ).to_numpy()
    if arr.null_count:
        nulls = _pc.is_null(arr).to_numpy(zero_copy_only=False)
        hv = hv ^ (nulls.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    return hv


def _bucket_of(table: pa.Table, key_cols: Sequence[str], p: int) -> np.ndarray:
    """Stable uint64 hash of the key columns -> bucket in [0, p)."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for c in key_cols:
        h = h * np.uint64(1000003) + _hash_key_column(table[c])
    return (h % np.uint64(p)).astype(np.int64)


@ray.remote
def _split_block(table: pa.Table, key_cols, p: int):
    """One upstream block -> P > 1 bucket sub-tables (vectorized take)."""
    if table.num_rows == 0:
        return [table] * p
    b = _bucket_of(table, key_cols, p)
    order = np.argsort(b, kind="stable")
    sorted_t = table.take(pa.array(order))
    counts = np.bincount(b, minlength=p)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return [sorted_t.slice(offsets[i], counts[i]) for i in range(p)]


@ray.remote
def _merge_bucket(merge_fn, arrow, *pieces: pa.Table) -> pa.Table:
    tables = [t for t in pieces if t.num_rows]
    if not tables:
        if not pieces:
            return pa.table({})
        # run merge_fn on an empty (schema-carrying) frame so the empty
        # bucket's block has merge_fn's OUTPUT schema, matching the
        # non-empty buckets.  Prefer the piece with the most columns:
        # Ray skips map fns on 0-row blocks, so a read-split can leave
        # 0-row blocks with NO columns at all alongside typed ones.
        best = max(pieces, key=lambda t: t.num_columns)
        if best.num_columns == 0:
            # every piece is schemaless (fully-pruned pushdown read):
            # there is no schema to run merge_fn against
            return pa.table({})
        tables = [best]
    cat = pa.concat_tables(tables, promote_options="permissive")
    if arrow:
        # Arrow-native reducer: merge_fn takes AND returns a pa.Table.
        # Required when the output carries nested types (list columns) —
        # a pandas round-trip of an EMPTY object column loses the list
        # type (infers float64) and desynchronizes empty buckets' schema
        # from their non-empty siblings.
        return merge_fn(cat)
    out = merge_fn(cat.to_pandas())
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(
        None
    )


def _partitioned_refs(block_refs: list, key_cols: Sequence[str], p: int) -> list[list]:
    """Scatter every block ref into ``p`` key-hash bucket refs.

    Returns one list of ``p`` sub-table refs per upstream block — the
    shared exchange step of hash_aggregate and :func:`_co_partitioned`.
    One bucket holds every row in block order, so ``p == 1`` launches no
    split task and hands each block on as its own piece.
    """
    if p == 1:
        return [[ref] for ref in block_refs]
    return [
        list(_split_block.options(num_returns=p).remote(ref, list(key_cols), p))
        for ref in block_refs
    ]


def hash_aggregate(
    ds,
    key_cols: Sequence[str],
    merge_fn: Callable[[pd.DataFrame], pd.DataFrame],
    num_partitions: int | None = None,
    arrow: bool = False,
):
    """Key-co-located reduction over a Dataset of (pre-aggregated) rows.

    ``merge_fn``: vectorized pandas reduction applied once per bucket
    (e.g. ``df.groupby(keys).sum()``).  Returns a ray.data.Dataset of the
    merged rows.  The fan-out is size-adaptive (see
    :func:`auto_num_partitions`): one bucket per ~64 MB of exchanged
    partials, so a reducer's bucket always fits in worker memory.  Pass
    ``num_partitions`` only when the bucket count is part of the result,
    as a bucketed layout's is.
    With ``arrow=True`` the reducer takes and returns a ``pa.Table``
    instead — the right mode for nested (list-typed) outputs, whose
    empty-bucket schema a pandas round-trip cannot preserve.
    """
    refs, nbytes = _materialized(ds)
    p = num_partitions or auto_num_partitions(nbytes)
    split_cols = _partitioned_refs(refs, key_cols, p)
    merged = [
        _merge_bucket.remote(
            merge_fn, arrow, *[split_cols[i][b] for i in range(len(split_cols))]
        )
        for b in range(p)
    ]
    return ray.data.from_arrow_refs(merged)


def _side(pieces) -> pa.Table:
    """One side of a bucket as one table.  A side with no blocks at all
    (an empty materialized Dataset) is the 0-row table with no columns,
    the same shape a fully-pruned read's blocks already take, so every
    bucket body handles both cases with one schemaless-side guard."""
    if not pieces:
        return pa.table({})
    return pa.concat_tables(pieces, promote_options="permissive")


@ray.remote
def _pair_bucket(body, args, n_left: int, *pieces: pa.Table) -> pa.Table:
    """One bucket of a two-sided exchange: ``body(left, right, *args)``
    over the bucket's left and right pieces."""
    return body(_side(pieces[:n_left]), _side(pieces[n_left:]), *args)


def _co_partitioned(body, args, keys: Sequence[str], left, ds_right):
    """Co-partition two sides on ``keys`` and run ``body`` once per bucket.

    ``left`` is a Dataset — both sides are materialized and the fan-out
    is :func:`auto_num_partitions` over their summed bytes — or a
    :class:`PartitionedTable`, whose build side is already split at its
    own fan-out, so only ``ds_right`` moves.  Returns a Dataset of one
    block per bucket.
    """
    if isinstance(left, PartitionedTable):
        right_refs, _ = _materialized(ds_right)
        p, ls = left.num_partitions, left._pieces
    else:
        left_refs, lbytes = _materialized(left)
        right_refs, rbytes = _materialized(ds_right)
        p = auto_num_partitions(lbytes + rbytes)
        ls = _partitioned_refs(left_refs, keys, p)
    rs = _partitioned_refs(right_refs, keys, p)
    return ray.data.from_arrow_refs(
        [
            _pair_bucket.remote(
                body, args, len(ls), *[s[b] for s in ls], *[s[b] for s in rs]
            )
            for b in range(p)
        ]
    )


def hash_join(
    ds_left,
    ds_right,
    on: Sequence[str],
    merge_fn: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    how: str = "inner",
):
    """Explicit partitioned hash join of two Datasets on ``on`` keys.

    Both sides are split into the same key-hash buckets; one task per
    bucket performs a vectorized ``pd.merge`` (optionally followed by
    ``merge_fn``, e.g. a per-bucket partial aggregate so the join output
    never materializes).  This is the both-sides-large path; for a small
    side prefer a broadcast ``pc.is_in`` / dict lookup in map_batches.

    The fan-out is size-adaptive on the SUM of both sides' bytes.  Skew
    note: a hot join key lands in one bucket; use :func:`skew_join`,
    which salts only the hot keys, and/or pre-aggregate the skewed side
    first (the merge_fn hook exists precisely so the fat join output
    collapses inside the bucket task).
    """
    keys = list(on)
    return _co_partitioned(
        _join_body, (keys, how, merge_fn), keys, ds_left, ds_right
    )


def _join_body(lt: pa.Table, rt: pa.Table, keys, how, merge_fn) -> pa.Table:
    """One bucket's vectorized pd.merge (shared by hash_join and
    PartitionedTable.join — identical semantics by construction)."""
    # empty piece tables still carry their schema, so the merge below
    # yields correctly-typed (possibly zero-row) output per bucket
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    # a side whose EVERY block was 0-row-schemaless (fully-pruned
    # pushdown read; Ray skips map fns on empty blocks), or that has no
    # blocks at all, arrives with no columns.  The join result is
    # well-defined (0 rows) whenever the schemaless side is NOT
    # null-extended: inner with either side empty, left with an empty
    # LEFT, right with an empty RIGHT.  Only when the typed side's rows
    # must survive padded with the schemaless side's columns is there
    # genuinely no schema to synthesize.
    l_bare = not len(ldf) and any(k not in ldf.columns for k in keys)
    r_bare = not len(rdf) and any(k not in rdf.columns for k in keys)
    if l_bare or r_bare:
        preserved_is_bare = (
            how == "inner"
            or (how == "left" and l_bare)
            or (how == "right" and r_bare)
            or (l_bare and r_bare)
        )
        if preserved_is_bare:
            return pa.table({})
        raise ValueError(
            f"hash_join(how={how!r}): the null-extended side has no "
            "schema (all blocks empty and column-less); filter after "
            "a map stage or guard the empty input upstream"
        )
    out = ldf.merge(rdf, on=keys, how=how)
    if merge_fn is not None:
        out = merge_fn(out)
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(
        None
    )


class PartitionedTable:
    """A Dataset hash-partitioned ONCE, probed many times.

    Iterative algorithms (PageRank, BFS, SSSP, HITS, label propagation)
    join a LARGE STATIC side — the edge list — against a small evolving
    side every round.  Plain :func:`hash_join` re-splits both sides per
    call, so K rounds pay K full exchanges of the static table.  This
    wrapper pays the static side's split exactly once at construction
    and re-uses the bucket refs for every probe: per round only the
    evolving side (frontier / rank vector) moves.  At 100 TB the static
    exchange IS the cost of these algorithms — this is the difference
    between O(E) and O(K*E) bytes moved.

    The probe is split with the same key hash and fan-out, so bucket
    co-location (and therefore join exactness) is identical to
    :func:`hash_join` — the per-bucket body is literally the same
    function.  The build side is the LEFT side of every join.

    Fan-out is sized on the BUILD side's bytes; probes are expected to
    be no larger than the build side — for a bigger probe, build on the
    probe instead.
    """

    def __init__(self, ds, key_cols: Sequence[str]):
        refs, nbytes = _materialized(ds)
        self.key_cols = list(key_cols)
        self.num_partitions = auto_num_partitions(nbytes)
        self._pieces = _partitioned_refs(refs, self.key_cols, self.num_partitions)

    def join(
        self,
        probe_ds,
        merge_fn: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
        how: str = "inner",
    ):
        """Join the (static, left) build side with ``probe_ds`` (right).

        Same semantics as ``hash_join(build, probe, key_cols,
        merge_fn=..., how=...)`` — the probe side pays the only new
        exchange.
        """
        return _co_partitioned(
            _join_body,
            (self.key_cols, how, merge_fn),
            self.key_cols,
            self,
            probe_ds,
        )


def hash_anti_join(ds_left, ds_right, on: str):
    """Distributed anti-join: left rows whose ``on`` key does NOT occur
    in the right side.  Both sides hash-partition on the key; each bucket
    filters with an Arrow ``is_in`` against its own (small) key set — the
    left rows never round-trip through pandas, so wide columns (token
    arrays, binary payloads) pass through untouched.

    This is the scale path for "filter out flagged ids": a broadcast
    ``is_in`` set re-ships the whole id set into every map task, which
    inverts from win to bottleneck once the set reaches ~10^6 ids; here
    each task sees only its bucket's 1/P share.
    """
    return _co_partitioned(_anti_body, (on,), [on], ds_left, ds_right)


def _anti_body(lt: pa.Table, rt: pa.Table, on: str) -> pa.Table:
    """One bucket of :func:`hash_anti_join`."""
    import pyarrow.compute as _pc

    if lt.num_rows == 0:
        return lt
    if rt.num_rows == 0:
        return lt.filter(_pc.is_valid(lt[on]))
    keys = _pc.unique(rt[on].combine_chunks())
    # drop null left keys explicitly (SQL NOT IN semantics): Arrow's
    # is_in yields false — not null — for null inputs, so the
    # fill_null idiom silently KEPT them
    ok = _pc.and_(
        _pc.is_valid(lt[on]),
        _pc.invert(_pc.fill_null(_pc.is_in(lt[on], value_set=keys), True)),
    )
    return lt.filter(ok)


# Below this many right-side keys, shipping the whole key set into every
# filter task is cheaper than exchanging the (fat) left side; above it
# the broadcast itself becomes the bottleneck (~10^6 keys = ~tens of MB
# re-shipped per task) and the partitioned anti-join takes over.  The
# validated-rows sink excludes violating ids through this same switch.
_BROADCAST_ANTI_CAP_DEFAULT = 1_000_000


def anti_membership(ds_left, ds_right, on: str):
    """Size-adaptive anti-join: left rows whose ``on`` key does NOT
    occur in the right side (null left keys dropped, matching
    :func:`hash_anti_join`).

    The right side is deduplicated per block (cheap, vectorized) and
    materialized — it is a key column by contract.  At or below the
    broadcast cap (``PNR_BROADCAST_ANTI_CAP``, default 10^6 distinct
    keys) the deduplicated key set is shipped into a zero-copy Arrow
    ``is_in`` filter, so the left side never exchanges at all; above
    it, the key-partitioned :func:`hash_anti_join` runs.  The switch
    decides on the GLOBAL distinct count: per-block-deduped rows decide
    directly when already under the cap, and a dup-heavy id stream
    whose duplicates span blocks (per-block rows over the cap, true
    distinct under it) is resolved by a mergeable HLL estimate — one
    constant-size register vector per block, merged driver-side — so it
    still takes the cheap broadcast path instead of paying a full
    left-side exchange; in that case a key-only exchange dedups the
    right side globally first, so the driver collect stays bounded at
    ~distinct rows instead of n_blocks x cap.  Both paths are
    row-identical (forced-path tests in tests/test_queries.py).
    """
    import pyarrow.compute as _pc

    cap = int(
        os.environ.get("PNR_BROADCAST_ANTI_CAP", _BROADCAST_ANTI_CAP_DEFAULT)
    )

    def _block_unique(t: pa.Table) -> pa.Table:
        return pa.table({on: _pc.unique(t[on].combine_chunks())})

    mds_right = ds_right.map_batches(
        _block_unique, batch_format="pyarrow"
    ).materialize()
    if mds_right.count() > cap:
        from pynomaly_ray.functions.sketches import (
            hll_estimate,
            hll_merge,
            hll_partial,
        )

        def _block_hll(t: pa.Table) -> pa.Table:
            return pa.table(
                {"regs": pa.array([hll_partial(t[on]).tobytes()], pa.binary())}
            )

        regs = [
            np.frombuffer(b, dtype=np.uint8)
            for b in mds_right.map_batches(_block_hll, batch_format="pyarrow")
            .to_pandas()["regs"]
        ]
        # HLL rel. error ~1.6% at p=12 — boundary wobble only shifts
        # which of two correct paths runs, never the result
        if hll_estimate(hll_merge(regs)) > cap:
            return hash_anti_join(ds_left, mds_right, on)
        # distinct is under the cap but the per-block-deduped rows are
        # not (duplicates span blocks): a direct collect would pull
        # n_blocks x up-to-cap rows onto the driver.  One key-only
        # exchange dedups globally first, bounding the collect at
        # ~distinct (<= ~cap) rows.  Arrow unique in the reducer — a
        # pandas drop_duplicates would NUL-alias object keys.
        def _dedup_keys(df: pd.DataFrame) -> pd.DataFrame:
            u = _pc.unique(pa.Array.from_pandas(df[on]))
            return pd.DataFrame({on: u.to_pandas()})

        mds_right = hash_aggregate(mds_right, [on], _dedup_keys).materialize()
    tables = [
        t
        for t in ray.get(mds_right.to_arrow_refs())
        if on in t.schema.names
    ]
    if not tables:
        # fully-pruned right side (0-row schemaless blocks carry no key
        # column at all): nothing to exclude — keep every non-null-key
        # left row, matching hash_anti_join's null-drop contract
        def _drop_null_keys(t: pa.Table) -> pa.Table:
            return t.filter(_pc.is_valid(t[on]))

        return ds_left.map_batches(_drop_null_keys, batch_format="pyarrow")
    keys = _pc.drop_null(
        _pc.unique(
            pa.concat_tables(tables, promote_options="permissive")[
                on
            ].combine_chunks()
        )
    )

    def _keep_missing(t: pa.Table) -> pa.Table:
        # null left keys dropped explicitly, matching hash_anti_join
        ok = _pc.and_(
            _pc.is_valid(t[on]),
            _pc.invert(
                _pc.fill_null(_pc.is_in(t[on], value_set=keys), True)
            ),
        )
        return t.filter(ok)

    return ds_left.map_batches(_keep_missing, batch_format="pyarrow")


def asof_join(
    ds_left,
    ds_right,
    by: str,
    left_on: str,
    right_on: str,
    direction: str = "backward",
):
    """Distributed as-of join: for each left row, the latest right row of
    the same ``by`` key with ``right_on <= left_on`` (backward, exact
    matches allowed — DuckDB ``ASOF JOIN`` semantics, inner).
    ``direction="forward"`` instead matches the EARLIEST right row with
    ``right_on >= left_on``; ``"nearest"`` the closest in either
    direction (ties to the earlier row, pandas merge_asof semantics).

    Both sides hash-partition on ``by``; each bucket sorts its slices by
    time and runs ``pd.merge_asof`` (the guide's range-join pattern).
    Rows with no earlier match are dropped (inner), detected via a row
    sentinel — never via value nullness — so the semantics hold when
    ``left_on == right_on`` and right-side dtypes survive unchanged
    (matched right rows are re-gathered from the original frame, undoing
    merge_asof's NaN-driven int->float widening).  Output columns: all
    left columns + all right columns, right-side names that collide with
    a left name suffixed ``_right``.  Tie caution: when a key has
    several right rows at the SAME ``right_on`` value, which one wins is
    engine-defined in every system — project only tie-invariant right
    columns (e.g. the time itself) if results must be comparable.
    """
    return _co_partitioned(
        _asof_body, (by, left_on, right_on, direction), [by], ds_left, ds_right
    )


def _asof_body(
    lt: pa.Table, rt: pa.Table, by: str, left_on: str, right_on: str, direction: str
) -> pa.Table:
    """One bucket of :func:`asof_join`."""
    lt = lt.replace_schema_metadata(None)
    rt = rt.replace_schema_metadata(None)
    lcols = lt.schema.names
    rcols = [c for c in rt.schema.names if c != by]
    out_names = lcols + [c if c not in lcols else f"{c}_right" for c in rcols]

    def _empty() -> pa.Table:
        fields = [lt.schema.field(c) for c in lcols] + [
            pa.field(name, rt.schema.field(orig).type)
            for name, orig in zip(out_names[len(lcols) :], rcols)
        ]
        return pa.schema(fields).empty_table()

    if lt.num_rows == 0 or rt.num_rows == 0:
        return _empty()

    ldf = lt.to_pandas().sort_values(left_on, kind="mergesort")
    rdf = rt.to_pandas().sort_values(right_on, kind="mergesort")
    rdf_probe = rdf[[by, right_on]].copy()
    rdf_probe["__asof_row__"] = np.arange(len(rdf), dtype=np.int64)
    merged = pd.merge_asof(
        ldf,
        rdf_probe,
        left_on=left_on,
        right_on=right_on,
        left_by=by,
        right_by=by,
        direction=direction,
        allow_exact_matches=True,
        suffixes=("", "__probe__"),
    )
    hit = merged["__asof_row__"].notna().to_numpy()
    if not hit.any():
        return _empty()
    matched_left = merged.loc[hit, lcols].reset_index(drop=True)
    ridx = merged.loc[hit, "__asof_row__"].astype(np.int64).to_numpy()
    matched_right = rdf.iloc[ridx][rcols].reset_index(drop=True)
    matched_right.columns = out_names[len(lcols) :]
    out = pd.concat([matched_left, matched_right], axis=1)
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(
        None
    )


def range_join(
    ds_left,
    ds_right,
    by: str,
    left_on: str,
    right_lo: str,
    right_hi: str,
    merge_fn: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
):
    """Distributed equi-key interval (range) join: each left row (a point
    ``left_on``) matches every right row of the same ``by`` key whose
    half-open interval ``[right_lo, right_hi)`` contains it — the
    "events inside each order's fulfilment window" shape.  Inner join:
    left rows inside no interval are dropped; a point inside several
    overlapping intervals matches each of them.

    Both sides hash-partition on ``by`` (one keyed exchange co-locates
    all candidates, because matches only occur within an equi key); each
    bucket forms candidates with a vectorized ``pd.merge`` on the key and
    prunes with the interval predicate.  Partitioning assumption: for a
    PURE interval join (no equi key) derive a coarse time-granule column,
    replicate each interval to every granule it overlaps, route points by
    their own granule, and pass the granule as ``by`` — each (point,
    interval) pair then meets in exactly one bucket.  Skew note: a hot
    ``by`` key with many intervals pays #points x #intervals candidate
    rows inside one bucket; pass ``merge_fn`` (e.g. the downstream
    aggregate) so the fat join output collapses before leaving the task.

    Output columns: all left columns + all right columns, right names
    colliding with a left name suffixed ``_right`` (pandas merge
    convention).  No counterpart in the reference (PyNomaly has no
    joins); DuckDB twin: ``JOIN ON l.by = r.by AND l.on >= r.lo AND
    l.on < r.hi``.
    """
    return _co_partitioned(
        _range_body,
        (by, left_on, right_lo, right_hi, merge_fn),
        [by],
        ds_left,
        ds_right,
    )


def _range_body(
    lt: pa.Table,
    rt: pa.Table,
    by: str,
    left_on: str,
    right_lo: str,
    right_hi: str,
    merge_fn,
) -> pa.Table:
    """One bucket of :func:`range_join`."""
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    # range join is inner: a schemaless side (no blocks, or every block
    # 0-row and column-less after a fully-pruned pushdown read) yields
    # the well-defined empty result — same guard hash_join carries
    if (not len(ldf) and by not in ldf.columns) or (
        not len(rdf) and by not in rdf.columns
    ):
        return pa.table({})
    cand = ldf.merge(rdf, on=[by], how="inner", suffixes=("", "_right"))
    # resolve the interval columns from the RIGHT side's pre-merge
    # names: when the LEFT table also has a column named right_lo,
    # pandas keeps the left one unsuffixed — probing cand.columns
    # would silently evaluate the predicate against the left column
    lo = f"{right_lo}_right" if right_lo in ldf.columns else right_lo
    hi = f"{right_hi}_right" if right_hi in ldf.columns else right_hi
    pt = cand[left_on]
    out = cand[(pt >= cand[lo]) & (pt < cand[hi])].reset_index(drop=True)
    if merge_fn is not None:
        out = merge_fn(out)
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(
        None
    )


# A broadcast side is shipped into EVERY task closure: only genuinely
# constant-size dimension tables (nation=25, region=5, a source list)
# qualify.  Fact-scaled tables (customer, orders, ...) grow with SF and
# must flow through the partitioned exchange instead — this guard turns
# that design rule into a runtime error instead of a 100x surprise.
_DIM_ROW_LIMIT = 100_000


def dim_lookup(table, key_col: str, val_col: str, limit: int = _DIM_ROW_LIMIT) -> dict:
    """key->value dict from a CONSTANT-SIZE dimension table, with a hard
    row-count guard against accidentally broadcasting a fact table."""
    if table.num_rows > limit:
        raise ValueError(
            f"dim_lookup({key_col}->{val_col}): {table.num_rows} rows exceeds "
            f"the broadcast-dimension limit ({limit}); route this table "
            "through hash_join/hash_anti_join instead"
        )
    return dict(zip(table[key_col].to_pylist(), table[val_col].to_pylist()))


def range_sort(
    ds,
    key: str,
    num_partitions: int | None = None,
    descending: bool = False,
    samples_per_block: int = 256,
):
    """Distributed global sort by ``key``: sampled range partitioning.

    The classic two-phase external sort, as explicit Ray tasks (Ray
    Data's built-in ``Dataset.sort`` walks a sort-based shuffle whose
    merge is Python-row-speed on this engine's workloads):

    1. each block contributes up to ``samples_per_block`` evenly-spaced
       key samples; the tiny global sample picks P-1 quantile splitters
       (driver holds P*256 keys, never data rows);
    2. every block splits into P range sub-tables with one
       ``np.searchsorted`` + stable take (vectorized, zero-copy slices);
    3. one task per range concatenates its sub-tables and sorts locally.

    The returned Dataset's blocks are globally ordered end-to-end
    (block i's keys all <= block i+1's), so consuming them in block
    order IS the total order — no driver-side re-sort.  Null keys sort
    last regardless of direction.  Skew: splitters adapt to the sampled
    distribution, so a dense key region gets more ranges; a single
    mega-duplicated key value still lands in one range — pre-aggregate
    such keys first (same prescription as hash_join).  The range count
    is size-adaptive; ``num_partitions`` pins it where a caller persists
    one file per range (the sorted and z-order layouts).
    """
    refs, nbytes = _materialized(ds)
    p = num_partitions or auto_num_partitions(nbytes)
    if p > 1:
        sampled = np.concatenate(
            ray.get([_sample.remote(r, key, samples_per_block) for r in refs])
        )
        sampled.sort()
        if len(sampled) == 0:
            p = 1
        else:
            q = np.linspace(0, len(sampled), p + 1)[1:-1].astype(np.int64)
            splitters = sampled[np.minimum(q, len(sampled) - 1)]
    if p == 1:
        return ray.data.from_arrow_refs([_sort_range.remote(key, descending, *refs)])
    split = [
        _split_ranges.options(num_returns=p).remote(r, key, splitters, p, descending)
        for r in refs
    ]
    split = [list(s) for s in split]
    ordered = [
        _sort_range.remote(key, descending, *[split[i][b] for i in range(len(split))])
        for b in range(p)
    ]
    return ray.data.from_arrow_refs(ordered)


def _key_values(t: pa.Table, key: str):
    """(values ndarray, null mask) for range_sort's key column, WITHOUT
    the int->float widening of a plain to_pandas/to_numpy on nullable
    int blocks (precision loss above 2^53 would misplace rows near
    splitter boundaries — same trap _hash_key_column closes)."""
    import pyarrow.compute as _pc

    if key not in t.schema.names:
        # a fully-pruned read can emit a 0-row block with NO schema
        # (Ray skips map fns on empty blocks); it carries no keys,
        # so sample/route it as empty rather than KeyError
        if t.num_rows == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        raise KeyError(
            f"range_sort: key column {key!r} missing from a "
            f"{t.num_rows}-row block (schema {t.schema.names})"
        )
    arr = t[key]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    nulls = _pc.is_null(arr).to_numpy(zero_copy_only=False)
    if pa.types.is_integer(arr.type):
        vals = _pc.fill_null(arr.cast(pa.int64()), 0).to_numpy(
            zero_copy_only=False
        )
    else:
        vals = arr.to_numpy(zero_copy_only=False)
    return vals, nulls


@ray.remote
def _sample(t: pa.Table, key: str, samples_per_block: int) -> np.ndarray:
    vals, nulls = _key_values(t, key)
    col = vals[~nulls]
    if col.dtype.kind == "f":
        col = col[~np.isnan(col)]  # NaN splitters would poison ranges
    if len(col) <= samples_per_block:
        return col
    idx = np.linspace(0, len(col) - 1, samples_per_block).astype(np.int64)
    return col[idx]


@ray.remote
def _split_ranges(
    t: pa.Table, key: str, splits: np.ndarray, n: int, descending: bool
):
    vals, null_mask = _key_values(t, key)
    rng = np.empty(len(vals), dtype=np.int64)
    nn = ~null_mask
    # searchsorted only over non-null values: None in an object
    # (string) column has no ordering and would raise
    rng[nn] = np.searchsorted(splits, vals[nn], side="right")
    if descending:
        rng[nn] = (n - 1) - rng[nn]
    rng[null_mask] = n - 1  # nulls ride the last range
    order = np.argsort(rng, kind="stable")
    sorted_t = t.take(pa.array(order))
    counts = np.bincount(rng, minlength=n)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    out = [sorted_t.slice(offsets[i], counts[i]) for i in range(n)]
    return out if n > 1 else out[0]


@ray.remote
def _sort_range(key: str, descending: bool, *pieces: pa.Table) -> pa.Table:
    t = _side(pieces)
    if t.num_rows == 0:
        return t
    import pyarrow.compute as _pc

    idx = _pc.sort_indices(
        t,
        sort_keys=[(key, "descending" if descending else "ascending")],
        null_placement="at_end",
    )
    return t.take(idx)


def collect_sorted(ds_or_table, sort_cols, ascending=None) -> pd.DataFrame:
    """Materialize a SMALL result and sort it on the driver (replaces
    Dataset.sort for final presentation ordering — a full distributed
    sort is wasted on driver-bound results)."""
    if isinstance(ds_or_table, pd.DataFrame):
        df = ds_or_table
    elif isinstance(ds_or_table, pa.Table):
        df = ds_or_table.to_pandas()
    else:
        # arrow refs + permissive concat, not to_pandas: Ray's to_pandas
        # on a 0-row Dataset drops all columns, and a read-split can mix
        # 0-row schemaless blocks with typed ones (map fns are skipped
        # on empty blocks) — the union schema recovers the typing
        tabs = ray.get(list(ds_or_table.to_arrow_refs()))
        df = (
            pa.concat_tables(tabs, promote_options="permissive").to_pandas()
            if tabs
            else pd.DataFrame()
        )
    if ascending is None:
        ascending = [True] * len(sort_cols)
    if not len(df) and any(c not in df.columns for c in sort_cols):
        # all-schemaless empty input: no typing anywhere to recover
        return pd.DataFrame({c: [] for c in sort_cols})
    return df.sort_values(
        list(sort_cols), ascending=ascending, kind="mergesort"
    ).reset_index(drop=True)


def topk(ds, sort_cols: Sequence[str], k: int, descending: Sequence[bool]):
    """Global top-k without a global sort: per-block local top-k inside
    map_batches, then a driver-side merge of the tiny survivors."""
    asc = [not d for d in descending]

    def local(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(list(sort_cols), ascending=asc, kind="mergesort").head(k)
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(
            None
        )

    # arrow refs, not to_pandas: a 0-row Dataset drops its columns in
    # to_pandas, but empty Arrow blocks still carry their schema — the
    # empty result keeps typed columns (e.g. an empty-filter top-k)
    tabs = ray.get(list(ds.map_batches(local, batch_format="pyarrow").to_arrow_refs()))
    # permissive concat of ALL blocks (0-row ones included): Ray skips
    # running map fns on empty blocks, so a read-split can leave 0-row
    # blocks with NO columns at all — the union schema recovers typing
    # from whichever blocks carry it
    if tabs:
        survivors = pa.concat_tables(tabs, promote_options="permissive").to_pandas()
    else:
        survivors = pd.DataFrame()
    if not all(c in survivors.columns for c in sort_cols):
        if len(survivors):
            raise KeyError(
                f"topk sort columns {list(sort_cols)} missing from "
                f"{list(survivors.columns)}"
            )
        survivors = pd.DataFrame({c: [] for c in sort_cols})
    return (
        survivors.sort_values(list(sort_cols), ascending=asc, kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )


def global_kth_smallest(
    ds,
    col: str,
    k: int,
    distinct_cap: int = 2_000_000,
):
    """Exact k-th smallest (1-indexed) value of an integer column — the
    global order statistic behind percentile-threshold filters ("drop
    the bottom decile").

    Shape: per-block (value, count) histogram partials (Arrow hash
    groupby), one value-keyed exchange folding them, and a driver-side
    cumsum over the DISTINCT values only.  Sound whenever the value
    domain is bounded (e6-scaled scores have <= 1e6+1 distinct values
    regardless of corpus size); ``distinct_cap`` refuses loudly when the
    column's distinct count exceeds what the driver should hold — past
    it the right tool is a KLL sketch (functions/sketches.py) or a
    multi-round range partition.
    """
    import pyarrow.compute as _pc

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def hist(t: pa.Table) -> pa.Table:
        g = t.select([col]).group_by(col).aggregate([(col, "count")])
        return pa.table(
            {col: g[col], "n": g[f"{col}_count"].cast(pa.int64())}
        )

    folded = hash_aggregate(
        ds.map_batches(hist, batch_format="pyarrow"),
        [col],
        lambda df: df.groupby(col, sort=False).sum().reset_index(),
    )
    tabs = ray.get(list(folded.to_arrow_refs()))
    tabs = [t for t in tabs if t.num_rows]
    n_distinct = sum(t.num_rows for t in tabs)
    if n_distinct > distinct_cap:
        raise ValueError(
            f"{col} has {n_distinct} distinct values (cap {distinct_cap}); "
            "use a KLL sketch or range partitioning for the quantile"
        )
    if not tabs:
        raise ValueError(f"empty input: no values in column {col}")
    hdf = pa.concat_tables(tabs).to_pandas().sort_values(col)
    counts = hdf["n"].to_numpy(dtype=np.int64)
    total = int(counts.sum())
    if k > total:
        raise ValueError(f"k={k} exceeds the row count {total}")
    return int(hdf[col].to_numpy()[np.searchsorted(counts.cumsum(), k)])


def interval_overlap_join(
    ds_left,
    ds_right,
    left_lo: str,
    left_hi: str,
    right_lo: str,
    right_hi: str,
    granule: int,
    merge_fn: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
):
    """KEYLESS interval-overlap join: every (left, right) pair of
    half-open int64 intervals with ``[llo, lhi) ∩ [rlo, rhi) != ∅`` —
    the temporal/spatial join :func:`range_join` cannot express when no
    equi key co-locates candidates.  This is the granule-replication
    recipe range_join's docstring prescribes, implemented: each
    interval is replicated to every ``granule``-sized bin it covers,
    both sides exchange on the bin id, and each bucket joins its
    co-binned intervals with the overlap predicate.  A pair whose
    overlap spans several shared bins would be emitted once per bin, so
    each pair is ATTRIBUTED to exactly one: the bin containing
    ``max(llo, rlo)`` (the overlap's left edge — covered by both
    intervals whenever the overlap is non-empty).  Exactly-once by
    construction, no post-hoc dedup exchange.

    Contract: bound columns are int64 (cast timestamps to epoch
    microseconds first), column names distinct across the two sides,
    rows with ``lo >= hi`` or null bounds are dropped.  Replication
    factor is ceil(length/granule)+1 per interval — pick ``granule``
    near the typical interval length so most intervals land in 1-2
    bins; a bucket's work is quadratic in its bin's population, so
    pass ``merge_fn`` to collapse fat join output inside the task.
    """
    left_cols = (left_lo, left_hi)
    right_cols = (right_lo, right_hi)

    def explode(lo: str, hi: str):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            lov = df[lo].to_numpy()
            hiv = df[hi].to_numpy()
            ok = ~(pd.isna(lov) | pd.isna(hiv))
            df = df[ok]
            lov = lov[ok].astype(np.int64)
            hiv = hiv[ok].astype(np.int64)
            keep = lov < hiv
            df, lov, hiv = df[keep], lov[keep], hiv[keep]
            if not len(df):
                out = df.copy()
                out["_g"] = pd.Series([], dtype=np.int64)
                return out
            g0 = lov // granule
            g1 = (hiv - 1) // granule
            reps = (g1 - g0 + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(df)), reps)
            # bin offsets within each row's range: global arange minus
            # each row's segment start
            seg_start = np.repeat(np.cumsum(reps) - reps, reps)
            off = np.arange(reps.sum(), dtype=np.int64) - seg_start
            out = df.iloc[idx].copy()
            out["_g"] = g0[idx] + off
            return out

        return f

    el = ds_left.map_batches(explode(*left_cols), batch_format="pandas")
    er = ds_right.map_batches(explode(*right_cols), batch_format="pandas")

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            out = df.drop(columns=["_g"], errors="ignore")
            return merge_fn(out) if merge_fn is not None else out
        llo = df[left_lo].to_numpy(dtype=np.int64)
        lhi = df[left_hi].to_numpy(dtype=np.int64)
        rlo = df[right_lo].to_numpy(dtype=np.int64)
        rhi = df[right_hi].to_numpy(dtype=np.int64)
        overlap = (llo < rhi) & (rlo < lhi)
        attributed = np.maximum(llo, rlo) // granule == df["_g"].to_numpy(
            dtype=np.int64
        )
        out = df[overlap & attributed].drop(columns=["_g"]).reset_index(
            drop=True
        )
        return merge_fn(out) if merge_fn is not None else out

    return hash_join(el, er, ["_g"], merge_fn=filt)


# ---------------------------------------------------------------------------
# Automatic skew-hardened join: detect hot keys, salt only them.
#
# A hot join key lands in one hash_join bucket whatever the fan-out.
# skew_join automates the salting playbook the `salted_hot_join` query
# certifies: a cheap key-only detection pass lower-bounds each key's
# frequency from per-block top-k partials, and the join then salts
# ONLY the keys above threshold — hot left rows
# spread across `num_salts` sub-buckets, the matching right rows are
# replicated once per salt, cold keys pay nothing (salt 0, exactly one
# right copy).  One exchange, inner-join semantics, results identical
# to hash_join by construction regardless of what detection finds.
# ---------------------------------------------------------------------------
def detect_hot_keys(
    ds, key: str, threshold: int, per_block_topk: int = 64
) -> pa.Array:
    """Keys of ``ds[key]`` whose global row count provably reaches
    ``threshold``, as a pyarrow Array (the broadcast surface).

    Per-block top-``per_block_topk`` value counts flow to the driver —
    bounded at blocks x top-k rows no matter the corpus — and are
    summed there, so each reported count is a LOWER bound of the true
    count (a key missing a block's top-k loses that block's share).  A
    genuinely hot key dominates most blocks it appears in, so the
    bound is tight exactly where it matters; borderline keys may go
    undetected, which affects routing only, never correctness.  NULL
    keys are never reported (an all-NULL hot key would take the
    unsalted route — still correct, just unprotected)."""
    import pyarrow.compute as _pc

    def partial(t: pa.Table) -> pa.Table:
        col = t[key]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vc = _pc.value_counts(col)
        vals = vc.field("values")
        cnts = vc.field("counts").to_numpy(zero_copy_only=False)
        valid = np.nonzero(
            ~_pc.is_null(vals).to_numpy(zero_copy_only=False)
        )[0]
        if len(valid) > per_block_topk:
            order = np.argpartition(-cnts[valid], per_block_topk - 1)
            valid = valid[order[:per_block_topk]]
        sel = pa.array(valid, pa.int64())
        return pa.table(
            {
                key: vals.take(sel),
                "_cnt": pa.array(cnts[valid], pa.int64()),
            }
        )

    parts = ray.get(
        list(
            ds.select_columns([key])
            .map_batches(partial, batch_format="pyarrow")
            .to_arrow_refs()
        )
    )
    typed = [t for t in parts if key in t.schema.names]
    if not typed:
        return pa.array([], pa.null())
    allt = pa.concat_tables(typed, promote_options="permissive")
    if allt.num_rows == 0:
        return allt[key].combine_chunks()
    g = allt.group_by(key).aggregate([("_cnt", "sum")])
    hot = g.filter(
        _pc.greater_equal(g["_cnt_sum"], pa.scalar(int(threshold)))
    )
    return hot[key].combine_chunks()


def skew_join(
    ds_left,
    ds_right,
    on: str,
    merge_fn: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    num_salts: int = 16,
    hot_threshold: int = 1_000_000,
    hot_keys=None,
    salt_from: str | None = None,
):
    """Skew-aware INNER hash join: hash_join semantics, hot keys salted
    automatically so no reducer ever holds one key's full row set.

    Detection runs :func:`detect_hot_keys` over the LEFT (fact) side's
    key column only (project your Dataset or pass a parquet read so the
    extra pass stays key-only and cheap); pass ``hot_keys`` to skip it
    (e.g. reuse one detection across several joins).  With no hot keys
    this IS hash_join.  Otherwise both sides gain a ``_salt`` column —
    left hot rows cycle deterministically through ``num_salts`` values
    (block-local position, or ``salt_of(row[salt_from])`` when a stable
    per-row column is available), right hot rows are replicated once
    per salt, cold rows ride salt 0 unreplicated — and ONE exchange on
    (key, salt) joins them.  ``_salt`` never reaches ``merge_fn`` or
    the output.  Inner only: null-extending a salted right row would
    produce num_salts copies of a left miss.  Null-key rows follow
    hash_join's pd.merge semantics (NA matches NA, unlike SQL); both
    sides' nulls ride salt 0.
    """
    import pyarrow.compute as _pc

    from pynomaly_ray.functions.hashing import salt_of

    if hot_keys is None:
        hot_keys = detect_hot_keys(ds_left, on, hot_threshold)
    if len(hot_keys) == 0:
        return hash_join(ds_left, ds_right, [on], merge_fn=merge_fn)
    hot_ref = ray.put(hot_keys)
    n_salts = int(num_salts)

    def left_salt(t: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        mask = _pc.fill_null(
            _pc.is_in(t[on], value_set=hot), False
        ).to_numpy(zero_copy_only=False)
        if salt_from is not None:
            salts = salt_of(
                t[salt_from].to_numpy(zero_copy_only=False), n_salts
            )
        else:
            # block-local position: deterministic under task retry
            # (a retried map task re-sees the identical block)
            salts = np.arange(len(mask), dtype=np.int64) % n_salts
        return t.append_column(
            "_salt", pa.array(np.where(mask, salts, 0), pa.int64())
        )

    def right_replicate(t: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        mask = _pc.fill_null(
            _pc.is_in(t[on], value_set=hot), False
        ).to_numpy(zero_copy_only=False)
        reps = np.where(mask, n_salts, 1).astype(np.int64)
        idx = np.repeat(np.arange(len(mask), dtype=np.int64), reps)
        # salt within each source row's replication run: 0..reps-1
        salts = np.arange(len(idx), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        out = t.take(pa.array(idx, pa.int64()))
        return out.append_column("_salt", pa.array(salts, pa.int64()))

    if merge_fn is not None:
        inner_merge = lambda df: merge_fn(  # noqa: E731
            df.drop(columns=["_salt"])
        )
    else:
        inner_merge = lambda df: df.drop(columns=["_salt"])  # noqa: E731
    return hash_join(
        ds_left.map_batches(left_salt, batch_format="pyarrow"),
        ds_right.map_batches(right_replicate, batch_format="pyarrow"),
        [on, "_salt"],
        merge_fn=inner_merge,
    )
