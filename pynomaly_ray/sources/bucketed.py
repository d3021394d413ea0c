"""Sort-merge-bucket (SMB) persisted layout: co-partitioned parquet.

The repeated-join optimization at 100-TB scale: pay ONE key-hash
exchange up front by writing a table into ``bucket=<i>/`` parquet
directories (the same key hash the live exchange uses —
``functions/exchange._bucket_of`` — so a layout written today routes
identically forever), then every later join against any co-bucketed
table reads bucket-aligned files directly: one task per bucket, ZERO
shuffle, regardless of how many times the key is joined on.  This is
the "pick ONE partitioning key and reuse it across stages" prescription
made durable across jobs.

Reference relation: the reference engine (PyNomaly, single process)
never persists layouts; this is engine surface the 100-TB target needs
(storage-bucketed joins a la Hive SMB / Iceberg bucket transform).

Storage assumption: ``path`` must be on storage every node can read
and write (shared FS / fuse-mounted object store) — writer tasks and
later per-bucket readers run on arbitrary workers.  This sandbox is
single-node so local paths work in tests; a multi-node deployment
passing a node-local path would scatter buckets across machines.

Crash/retry safety: the write routes through the SAME keyed exchange a
live join would use, so exactly ONE task owns each bucket and writes
``bucket=<i>/data.parquet`` — a retried task overwrites its own file
(file name == bucket id, fully deterministic), never duplicating rows;
the ``_bucketed.json`` manifest is written LAST and is the commit
marker — a layout without it is unfinished and refuses to serve joins.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as papq

import ray.data as rd

from pynomaly_ray.functions.exchange import _bucket_of
from pynomaly_ray.state.commit import atomic_write, read_manifest, write_json

_MANIFEST = "_bucketed.json"


def write_bucketed(ds, key_cols: Sequence[str], num_buckets: int, path: str) -> dict:
    """Write ``ds`` as a bucketed parquet layout under ``path``.

    One keyed exchange routes every row to its bucket's writer task;
    the writer owns its bucket exclusively and writes (atomically via
    rename) ``bucket=<i>/data.parquet``.  Returns (and persists) the
    manifest.
    """
    from pynomaly_ray.functions.exchange import hash_aggregate

    key_cols = list(key_cols)
    os.makedirs(path, exist_ok=True)
    # a REWRITE must not serve stale buckets: empty buckets write no
    # file, so data from a previous (larger or differently-bucketed)
    # layout would survive as phantom rows.  Retract the commit marker
    # first, then clear every bucket dir — a crash mid-clear leaves an
    # uncommitted layout that load_manifest refuses to serve.
    marker = os.path.join(path, _MANIFEST)
    if os.path.exists(marker):
        os.remove(marker)
    for d in os.listdir(path):
        full = os.path.join(path, d)
        if d.startswith("bucket=") and os.path.isdir(full):
            for f in os.listdir(full):
                os.remove(os.path.join(full, f))
    for i in range(num_buckets):
        os.makedirs(os.path.join(path, f"bucket={i}"), exist_ok=True)

    def write_bucket(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        if t.num_rows == 0:
            return pa.table(
                {
                    "rows": pa.array([], pa.int64()),
                    "schema_hex": pa.array([], pa.string()),
                }
            )
        # every row in this task shares one bucket (that's what the
        # exchange routed on), so the first row names the file
        i = int(_bucket_of(t.slice(0, 1), key_cols, num_buckets)[0])
        atomic_write(
            os.path.join(path, f"bucket={i}", "data.parquet"),
            lambda f: papq.write_table(t, f),
        )
        # schema rides back from the ARROW block itself: the Ray Schema
        # wrapper cannot render pandas extension dtypes (Int64, object)
        # as Arrow types, while the exchanged block always carries a
        # real pa.Schema (same trick as sorted_layout.write_sorted)
        return pa.table(
            {
                "rows": pa.array([t.num_rows], pa.int64()),
                "schema_hex": pa.array(
                    [t.schema.serialize().to_pybytes().hex()], pa.string()
                ),
            }
        )

    parts = hash_aggregate(
        ds, key_cols, write_bucket, num_partitions=num_buckets, arrow=True
    ).to_pandas()
    # an all-empty input (a quiet delta day) yields schemaless empty
    # merge outputs with no 'rows' column — that is rows=0, not a crash
    n_rows = int(parts["rows"].sum()) if "rows" in parts.columns else 0
    hexes = (
        parts["schema_hex"].dropna().unique().tolist()
        if "schema_hex" in parts.columns
        else []
    )
    if hexes:
        arrow_schema = pa.ipc.read_schema(
            pa.BufferReader(bytes.fromhex(hexes[0]))
        )
    else:
        # fully-empty input (a quiet delta day): no row ever reveals the
        # value types, so pin at least the KEY columns (null-typed) so a
        # later join against this rows=0 layout can still name them
        arrow_schema = pa.schema([pa.field(c, pa.null()) for c in key_cols])
    manifest = {
        "key_cols": key_cols,
        "num_buckets": int(num_buckets),
        "rows": n_rows,
        "schema_hex": arrow_schema.serialize().to_pybytes().hex(),
    }
    write_json(os.path.join(path, _MANIFEST), manifest)  # commit marker
    return manifest


def load_manifest(path: str) -> dict:
    return read_manifest(
        os.path.join(path, _MANIFEST),
        "the bucketed layout is unfinished or not a bucketed layout; "
        "rewrite it with write_bucketed before joining on it",
    )


def _bucket_schema(manifest: dict) -> pa.Schema:
    return pa.ipc.read_schema(
        pa.BufferReader(bytes.fromhex(manifest["schema_hex"]))
    )


def _read_bucket(path: str, i: int, m: dict) -> pa.Table:
    """Bucket ``i`` as committed by manifest ``m``: ``data.parquet``
    plus the appended ``data-g<k>`` generations with k <= its ``gen``
    (an interrupted append's files are on disk but stay unread)."""
    d = os.path.join(path, f"bucket={i}")
    names = {"data.parquet"} | {
        f"data-g{g:04d}.parquet" for g in range(1, int(m.get("gen", 0)) + 1)
    }
    files = sorted(os.path.join(d, f) for f in os.listdir(d) if f in names)
    if not files:
        return _bucket_schema(m).empty_table()
    return pa.concat_tables([papq.read_table(f) for f in files])


def bucketed_join(
    path_a: str,
    path_b: str,
    merge_fn: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    how: str = "inner",
):
    """Shuffle-free join of two co-bucketed layouts -> ray.data.Dataset.

    Both layouts must share num_buckets and key WIDTH (column names may
    differ; positional key match, like pd.merge left_on/right_on).  One
    Ray task per bucket reads both sides' bucket files and merges —
    matches meet by construction because both layouts used the same key
    hash.  ``merge_fn`` collapses the join output inside the bucket task
    (same contract as exchange.hash_join).  Null-key rows follow
    pd.merge semantics (dropped on inner).
    """
    ma, mb = load_manifest(path_a), load_manifest(path_b)
    if ma["num_buckets"] != mb["num_buckets"]:
        raise ValueError(
            f"bucket count mismatch: {ma['num_buckets']} vs "
            f"{mb['num_buckets']} — layouts are not co-partitioned"
        )
    if len(ma["key_cols"]) != len(mb["key_cols"]):
        raise ValueError("key width mismatch between bucketed layouts")
    p = ma["num_buckets"]
    ka, kb = ma["key_cols"], mb["key_cols"]

    def join_bucket(t: pa.Table) -> pa.Table:
        outs = []
        for i in t["bucket"].to_pylist():
            da = _read_bucket(path_a, i, ma).to_pandas()
            db = _read_bucket(path_b, i, mb).to_pandas()
            m = da.merge(db, left_on=ka, right_on=kb, how=how)
            if merge_fn is not None:
                m = merge_fn(m)
            outs.append(
                pa.Table.from_pandas(
                    m, preserve_index=False
                ).replace_schema_metadata(None)
            )
        return pa.concat_tables(outs, promote_options="permissive")

    ids = rd.from_items([{"bucket": i} for i in range(p)])
    return ids.map_batches(join_bucket, batch_format="pyarrow", batch_size=1)


def bucketed_aggregate(
    path: str,
    merge_fn: Callable[[pd.DataFrame], pd.DataFrame],
):
    """Shuffle-free grouped aggregate over a bucketed layout.

    Every occurrence of a key lives in exactly one bucket (that is what
    the layout paid its one exchange for), so a per-bucket ``merge_fn``
    (e.g. ``df.groupby(keys).sum()``) is globally exact with ZERO data
    movement — the repeated-aggregate twin of :func:`bucketed_join`.
    Returns a ray.data.Dataset of the merged rows, one task per bucket.
    """
    m = load_manifest(path)
    p = m["num_buckets"]

    def agg_bucket(t: pa.Table) -> pa.Table:
        outs = []
        for i in t["bucket"].to_pylist():
            df = _read_bucket(path, i, m).to_pandas()
            outs.append(
                pa.Table.from_pandas(
                    merge_fn(df), preserve_index=False
                ).replace_schema_metadata(None)
            )
        return pa.concat_tables(outs, promote_options="permissive")

    ids = rd.from_items([{"bucket": i} for i in range(p)])
    return ids.map_batches(agg_bucket, batch_format="pyarrow", batch_size=1)


def bucketed_join_live(
    ds,
    path: str,
    live_keys: Sequence[str],
    merge_fn: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    how: str = "inner",
):
    """Join a LIVE Dataset against a persisted layout — only the live
    side moves.

    The production increment shape: today's delta joins yesterday's
    master layout without rewriting it.  The live side pays one keyed
    exchange at the layout's bucket count (same ``_bucket_of`` hash, so
    co-location is guaranteed); each reducer then reads its OWN bucket's
    persisted file locally and merges — the persisted side is never
    shuffled, never re-read outside its bucket.  ``live_keys`` match the
    layout's key columns positionally (pd.merge left_on/right_on).

    ``how`` is restricted to inner/left: a right/outer join would need
    persisted rows from buckets the live side never touched, and a
    live-empty bucket carries no key to locate them — rewrite such a
    join as :func:`bucketed_join` over two layouts instead.

    The bucket id is recomputed from the reducer's ARROW slice, not a
    pandas round trip: pandas widens a nullable int key to float64,
    which would hash into a different bucket and silently read the
    wrong persisted file (the exact trap _hash_key_column documents).
    """
    from pynomaly_ray.functions.exchange import hash_aggregate

    if how not in ("inner", "left"):
        raise ValueError(
            "bucketed_join_live supports how='inner'/'left' only; a "
            "right/outer join needs live-untouched buckets — use "
            "bucketed_join over two persisted layouts"
        )
    m = load_manifest(path)
    schema = _bucket_schema(m)
    p = m["num_buckets"]
    live_keys = list(live_keys)
    if len(live_keys) != len(m["key_cols"]):
        raise ValueError("key width mismatch with the bucketed layout")

    def join_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # keep the block schema consistent with non-empty buckets:
            # merge the (typed, 0-row) live frame against an empty
            # persisted-schema frame instead of short-circuiting
            right = schema.empty_table().to_pandas()
            df = t.to_pandas()
        else:
            i = int(_bucket_of(t.slice(0, 1), live_keys, p)[0])
            right = _read_bucket(path, i, m).to_pandas()
            df = t.to_pandas()
        out = df.merge(
            right, left_on=live_keys, right_on=m["key_cols"], how=how
        )
        if merge_fn is not None:
            out = merge_fn(out)
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    return hash_aggregate(
        ds, live_keys, join_bucket, num_partitions=p, arrow=True
    )


def append_bucketed(ds, path: str) -> dict:
    """Append a delta into a committed bucketed layout without touching
    its existing files — the master-layout increment shape: the delta
    pays one keyed exchange at the layout's OWN bucket count (same
    ``_bucket_of`` hash, so co-location with every already-written row
    is guaranteed) and lands as ``bucket=<i>/data-g<gen>.parquet``
    beside the existing generation files.  ``bucketed_join`` /
    ``bucketed_aggregate`` read every ``*.parquet`` in a bucket dir, so
    appended rows participate with zero reader changes.

    Crash/retry safety mirrors write_bucketed: file name is
    deterministic (bucket id + generation), so a retried writer
    overwrites its own file; the manifest is replaced LAST, and a
    crashed append leaves orphan generation files that readers skip
    (their generation is above the manifest's ``gen``) and the NEXT
    append of the same generation removes first.  The delta's schema
    must match the layout's exactly.
    """
    from pynomaly_ray.functions.exchange import hash_aggregate

    m = load_manifest(path)
    key_cols = m["key_cols"]
    p = int(m["num_buckets"])
    gen = int(m.get("gen", 0)) + 1
    expected_hex = m["schema_hex"]
    # a crashed attempt at this generation may have left files in buckets
    # this delta never writes; committing gen would expose them
    for i in range(p):
        stale = os.path.join(path, f"bucket={i}", f"data-g{gen:04d}.parquet")
        if os.path.exists(stale):
            os.remove(stale)

    def write_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"rows": pa.array([], pa.int64())})
        t = t.replace_schema_metadata(None)
        if t.schema.serialize().to_pybytes().hex() != expected_hex:
            raise ValueError(
                "append_bucketed: delta schema differs from the layout's "
                "— map the delta to the layout schema (same columns, "
                "same types, same order) before appending"
            )
        i = int(_bucket_of(t.slice(0, 1), key_cols, p)[0])
        atomic_write(
            os.path.join(path, f"bucket={i}", f"data-g{gen:04d}.parquet"),
            lambda f: papq.write_table(t, f),
        )
        return pa.table({"rows": pa.array([t.num_rows], pa.int64())})

    parts = hash_aggregate(
        ds, key_cols, write_bucket, num_partitions=p, arrow=True
    ).to_pandas()
    n_rows = int(parts["rows"].sum()) if "rows" in parts.columns else 0
    m["rows"] = int(m["rows"]) + n_rows
    m["gen"] = gen
    write_json(os.path.join(path, _MANIFEST), m)
    return m


def bucketed_asof_join(
    path_a: str,
    path_b: str,
    left_on: str,
    right_on: str,
    direction: str = "backward",
    merge_fn: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
):
    """Shuffle-free per-entity ASOF join of two co-bucketed layouts ->
    ray.data.Dataset.

    For each left row, the latest right row of the SAME entity key with
    ``right_on <= left_on`` (``backward``, exact matches allowed —
    DuckDB keyed ``ASOF JOIN`` semantics, inner); ``forward`` /
    ``nearest`` follow pandas merge_asof.  The entity key is each
    layout's bucket key (column names may differ; positional match),
    so every (left row, candidate right row) pair meets in exactly one
    bucket by construction — the live
    :func:`pynomaly_ray.functions.exchange.asof_join` pays one keyed
    exchange PER RUN for the same semantics; a pair of tables that stay
    bucketed on the entity key (events x reference state by user, at a
    100-TB corpus) pays it once at write time and never again.  One
    Ray task per bucket, zero shuffle, no driver data.

    Inner-match detection uses a row sentinel (never value nullness),
    so right dtypes survive and ``left_on == right_on`` names work.
    Output: all left columns + right columns minus the right bucket
    key (it equals the left's), collisions suffixed ``_right``.  NULL
    never matches: rows with a null entity key or a null ``*_on`` time
    are dropped (merge_asof refuses unsorted NaN keys, so the drop is
    explicit here).  Tie caution as exchange.asof_join: among several
    right rows at the same time the winner is engine-defined — project
    tie-invariant right columns when results must be comparable.
    """
    import numpy as np

    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"unknown asof direction {direction!r}")
    ma, mb = load_manifest(path_a), load_manifest(path_b)
    if ma["num_buckets"] != mb["num_buckets"]:
        raise ValueError(
            f"bucket count mismatch: {ma['num_buckets']} vs "
            f"{mb['num_buckets']} — layouts are not co-partitioned"
        )
    if len(ma["key_cols"]) != len(mb["key_cols"]):
        raise ValueError("key width mismatch between bucketed layouts")
    p = ma["num_buckets"]
    ka, kb = list(ma["key_cols"]), list(mb["key_cols"])

    def asof_bucket(t: pa.Table) -> pa.Table:
        outs = []
        for i in t["bucket"].to_pylist():
            lt = _read_bucket(path_a, i, ma)
            rt = _read_bucket(path_b, i, mb)
            lcols = lt.schema.names
            rcols = [c for c in rt.schema.names if c not in kb]
            out_names = lcols + [
                c if c not in lcols else f"{c}_right" for c in rcols
            ]

            def _empty() -> pa.Table:
                fields = [lt.schema.field(c) for c in lcols] + [
                    pa.field(n, rt.schema.field(o).type)
                    for n, o in zip(out_names[len(lcols):], rcols)
                ]
                return pa.schema(fields).empty_table()

            def _finish(m: pd.DataFrame) -> pa.Table:
                if merge_fn is not None:
                    m = merge_fn(m)
                return pa.Table.from_pandas(
                    m, preserve_index=False
                ).replace_schema_metadata(None)

            ldf = lt.to_pandas().dropna(subset=ka + [left_on])
            rdf = rt.to_pandas().dropna(subset=kb + [right_on])
            # a bucket whose block carried nulls widens int64 -> float64
            # in pandas while a null-free bucket stays int64; merge_asof
            # refuses mismatched key dtypes, so align each key PAIR to
            # float64 when exactly one side widened (nulls are already
            # dropped, so the cast is value-preserving)
            for lc, rc in list(zip(ka, kb)) + [(left_on, right_on)]:
                ld, rdt = ldf[lc].dtype, rdf[rc].dtype
                if ld != rdt and ld.kind in "if" and rdt.kind in "if":
                    ldf[lc] = ldf[lc].astype("float64")
                    rdf[rc] = rdf[rc].astype("float64")
            if not len(ldf) or not len(rdf):
                # typed empty when uncollapsed (from_pandas would turn
                # empty object columns into null-typed ones); an empty
                # frame must still ride through merge_fn when set so
                # every bucket's output shares the collapsed schema
                outs.append(
                    _empty() if merge_fn is None
                    else _finish(_empty().to_pandas())
                )
                continue
            ldf = ldf.sort_values(left_on, kind="mergesort")
            rdf = rdf.sort_values(right_on, kind="mergesort")
            probe = rdf[kb + [right_on]].copy()
            probe["__asof_row__"] = np.arange(len(rdf), dtype=np.int64)
            merged = pd.merge_asof(
                ldf,
                probe,
                left_on=left_on,
                right_on=right_on,
                left_by=ka,
                right_by=kb,
                direction=direction,
                allow_exact_matches=True,
                suffixes=("", "__probe__"),
            )
            hit = merged["__asof_row__"].notna().to_numpy()
            if not hit.any():
                outs.append(
                    _empty() if merge_fn is None
                    else _finish(_empty().to_pandas())
                )
                continue
            matched_left = merged.loc[hit, lcols].reset_index(drop=True)
            ridx = merged.loc[hit, "__asof_row__"].astype(np.int64).to_numpy()
            matched_right = rdf.iloc[ridx][rcols].reset_index(drop=True)
            matched_right.columns = out_names[len(lcols):]
            outs.append(_finish(pd.concat([matched_left, matched_right], axis=1)))
        return pa.concat_tables(outs, promote_options="permissive")

    ids = rd.from_items([{"bucket": i} for i in range(p)])
    return ids.map_batches(asof_bucket, batch_format="pyarrow", batch_size=1)


def compact_bucketed(path: str) -> dict:
    """Merge each bucket's generation files back into a single
    ``data.parquet`` — the small-file compaction an append-heavy
    bucketed layout needs (after hundreds of
    :func:`append_bucketed` increments every bucket read opens
    hundreds of tiny files).

    Bucket membership never changes (the layout's hash is stable), so
    compaction is embarrassingly parallel: one Ray task per bucket,
    no exchange.  Crash safety mirrors :func:`compact_sorted`: every
    bucket is materialized into the object store BEFORE the commit
    marker is retracted and the bucket dirs are cleared, and the
    manifest (gen reset to 0) is re-written LAST — a crash mid-way
    leaves an uncommitted layout that refuses to serve rather than
    one that double-counts.  At a 100-TB layout prefer staging the
    compacted generation into a fresh directory and switching readers
    over; this in-place form fits layouts whose content fits the
    cluster's object store (spill included).
    """
    import ray

    m = load_manifest(path)
    p = int(m["num_buckets"])

    @ray.remote
    def _read(i: int) -> pa.Table:
        return _read_bucket(path, i, m)

    refs = [_read.remote(i) for i in range(p)]
    ray.wait(refs, num_returns=p)  # fully in the object store first

    os.remove(os.path.join(path, _MANIFEST))  # retract: refuse reads

    @ray.remote
    def _write(i: int, t: pa.Table) -> int:
        d = os.path.join(path, f"bucket={i}")
        for f in os.listdir(d):
            if f.endswith(".parquet"):
                os.remove(os.path.join(d, f))
        if t.num_rows:
            atomic_write(
                os.path.join(d, "data.parquet"),
                lambda f: papq.write_table(t.replace_schema_metadata(None), f),
            )
        return t.num_rows

    n_rows = int(
        sum(ray.get([_write.remote(i, r) for i, r in enumerate(refs)]))
    )
    m["rows"] = n_rows
    m["gen"] = 0
    write_json(os.path.join(path, _MANIFEST), m)  # commit
    return m
