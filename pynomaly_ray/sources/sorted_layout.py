"""Zone-mapped sorted parquet layout: file-level pruning made durable.

The storage-side complement of ``sources/bucketed.py``: where the SMB
layout pays one hash exchange so later JOINS never shuffle, this layout
pays one RANGE SORT (``functions/exchange.range_sort``) so later range
scans never READ irrelevant files.  ``write_sorted`` persists the
globally-ordered blocks as ``part-<i>.parquet`` plus a per-file
(min, max, rows, nulls) zone table in the manifest; ``zone_pruned_scan``
then serves ``lo <= key <= hi`` range queries by opening ONLY the files
whose zone overlaps the range — at a 100-TB corpus sorted by time, a
one-day scan touches one day's files instead of the whole table, before
parquet row-group statistics prune further inside each file.

This is the Iceberg/Delta "sort + min-max zone map + data skipping"
pattern; the reference engine (PyNomaly, in-memory single process) has
no storage layer at all, so this is engine surface the scale target
needs.  Same storage assumption as the bucketed layout: ``path`` must
be readable/writable by every node (shared FS / object store mount).

Crash/retry safety mirrors ``write_bucketed``: file name == global
block index (a retried writer overwrites its own file), the
``_sorted.json`` manifest is written LAST as the commit marker, and a
rewrite retracts the marker before clearing old parts — an interrupted
rewrite leaves an uncommitted layout that refuses to serve scans.

Scan contract: ``zone_pruned_scan(path, lo, hi)`` returns exactly the
rows with ``lo <= key <= hi`` (either bound may be None for one-sided
ranges); NULL keys are never returned by a range scan (SQL predicate
semantics), and all-null files prune away.  Files are named in global
sort order, so consuming the un-range-filtered layout in file order is
the total order — the sorted-read twin of ``range_sort``'s block
contract.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as papq

import ray
import ray.data as rd

from pynomaly_ray.state.commit import atomic_write, read_manifest, write_json

_MANIFEST = "_sorted.json"


def _key_kind(t: pa.DataType) -> str:
    if pa.types.is_timestamp(t):
        return "ts_us"
    if pa.types.is_integer(t):
        return "int"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "str"
    raise TypeError(
        f"zone-map key must be integer, timestamp or string, got {t}"
    )


def _ser(v, kind: str):
    """JSON-storable zone bound; timestamps as epoch microseconds."""
    if v is None:
        return None
    if kind == "ts_us":
        return int(pd.Timestamp(v).value // 1_000)
    if kind == "int":
        return int(v)
    return str(v)


def _bound_scalar(v, kind: str) -> pa.Scalar:
    """A caller-supplied lo/hi as the pyarrow scalar the filter needs."""
    if kind == "ts_us":
        return pa.scalar(pd.Timestamp(v).to_pydatetime(), pa.timestamp("us"))
    if kind == "int":
        return pa.scalar(int(v), pa.int64())
    return pa.scalar(str(v), pa.string())


# schema and key kind come from the ARROW blocks themselves, not the Ray
# Schema wrapper: a from_pandas Dataset reports pandas extension dtypes
# (Int64, object) the wrapper cannot render as Arrow types, while the
# materialized blocks always carry a real pa.Schema
@ray.remote
def _write_part(t: pa.Table, key: str, dest: str) -> dict:
    """Persist one range-sorted block at ``dest``; returns its zone."""
    t = t.replace_schema_metadata(None)
    # a 0-row block can arrive with NO schema at all (fully-pruned
    # upstream read); it carries no layout information — mark it
    # skippable rather than crash on the missing key field
    if t.num_rows == 0 and key not in t.schema.names:
        return {
            "file": None, "rows": 0, "lo": None, "hi": None,
            "nulls": 0, "kind": None, "schema_hex": None,
        }
    sch_hex = t.schema.serialize().to_pybytes().hex()
    kind = _key_kind(t.schema.field(key).type)
    if t.num_rows == 0:
        return {
            "file": None, "rows": 0, "lo": None, "hi": None,
            "nulls": 0, "kind": kind, "schema_hex": sch_hex,
        }
    atomic_write(dest, lambda f: papq.write_table(t, f))
    col = t[key]
    valid = col.drop_null()
    return {
        "file": os.path.basename(dest),
        "rows": t.num_rows,
        "lo": _ser(pc.min(valid).as_py(), kind) if len(valid) else None,
        "hi": _ser(pc.max(valid).as_py(), kind) if len(valid) else None,
        "nulls": int(col.null_count),
        "kind": kind,
        "schema_hex": sch_hex,
    }


def write_sorted(ds, key: str, path: str, num_partitions: int | None = None) -> dict:
    """Range-sort ``ds`` on ``key`` and persist it as a zone-mapped
    layout under ``path``.  Returns (and persists) the manifest."""
    from pynomaly_ray.functions.exchange import range_sort

    os.makedirs(path, exist_ok=True)
    marker = os.path.join(path, _MANIFEST)
    if os.path.exists(marker):
        os.remove(marker)
    for f in os.listdir(path):
        if f.startswith("part-") and f.endswith(".parquet"):
            os.remove(os.path.join(path, f))

    sorted_ds = range_sort(ds, key, num_partitions)
    refs = sorted_ds.to_arrow_refs()

    results = ray.get(
        [
            _write_part.remote(r, key, os.path.join(path, f"part-{i:05d}.parquet"))
            for i, r in enumerate(refs)
        ]
    )
    if not results:
        raise ValueError(
            "write_sorted needs a typed input; a fully-empty schemaless "
            "Dataset has no key column to sort or zone-map on"
        )
    typed = [z for z in results if z["kind"] is not None]
    if not typed:
        raise ValueError(
            "write_sorted needs a typed input; every block was empty "
            "and schemaless, so there is no key column to sort on"
        )
    kind = typed[0]["kind"]
    schema_hex = typed[0]["schema_hex"]
    zones = [
        {k: z[k] for k in ("file", "rows", "lo", "hi", "nulls")}
        for z in results
        if z["file"] is not None
    ]
    manifest = {
        "key": key,
        "kind": kind,
        "rows": int(sum(z["rows"] for z in zones)),
        "gen": 0,
        "zones": zones,
        "schema_hex": schema_hex,
    }
    write_json(marker, manifest)  # commit marker
    return manifest


def append_sorted(ds, path: str, num_partitions: int | None = None) -> dict:
    """Append a delta to a committed sorted layout without touching its
    existing files — the daily-increment shape for a time-keyed corpus.

    The delta is range-sorted on the layout's key and lands as its own
    generation of part files (``part-g<gen>-<i>.parquet``); the
    manifest is atomically replaced LAST with the union of zones.
    Scans stay exact because pruning consults zones, not file order
    (overlapping generations simply mean a range may open files from
    several generations); the strict file-name == total-order contract
    holds only for append-free layouts — run :func:`compact_sorted`
    to restore it and re-tighten the zones.

    Crash/retry safety: a failed append leaves orphan part files of an
    uncommitted generation — invisible to scans (only manifest-listed
    zones are ever opened) and overwritten by the retry (deterministic
    names within a generation).  The delta's schema must match the
    layout's exactly; a drifted delta refuses loudly.
    """
    from pynomaly_ray.functions.exchange import range_sort

    m = load_manifest(path)
    key, kind_expected = m["key"], m["kind"]
    gen = int(m.get("gen", 0)) + 1

    sorted_ds = range_sort(ds, key, num_partitions)
    refs = sorted_ds.to_arrow_refs()

    results = ray.get(
        [
            _write_part.remote(
                r, key, os.path.join(path, f"part-g{gen:04d}-{i:05d}.parquet")
            )
            for i, r in enumerate(refs)
        ]
    )
    results = [z for z in results if z["kind"] is not None]
    if results and results[0]["schema_hex"] != m["schema_hex"]:
        raise ValueError(
            "append_sorted: delta schema differs from the layout's — "
            "map the delta to the layout schema (same columns, same "
            "types, same order) before appending"
        )
    new_zones = [
        {k: z[k] for k in ("file", "rows", "lo", "hi", "nulls")}
        for z in results
        if z["file"] is not None
    ]
    m["zones"] = m["zones"] + new_zones
    m["rows"] = int(m["rows"]) + int(sum(z["rows"] for z in new_zones))
    m["gen"] = gen
    write_json(os.path.join(path, _MANIFEST), m)
    return m


def compact_sorted(path: str, num_partitions: int | None = None) -> dict:
    """Merge an appended layout back into one globally-sorted
    generation (tight, non-overlapping zones; file order == total
    order again).  The committed files are materialized into the
    object store BEFORE :func:`write_sorted` clears them, so a crash
    mid-compaction cannot lose rows that were only on disk.  At a
    100-TB layout prefer staging the compacted generation into a fresh
    directory and switching readers over; this in-place form fits
    layouts whose content fits the cluster's object store (spill
    included)."""
    from pynomaly_ray.sources.parquet import read_parquet_clean

    m = load_manifest(path)
    files = [os.path.join(path, z["file"]) for z in m["zones"]]
    if not files:
        return m
    mat = read_parquet_clean(files).materialize()
    out = write_sorted(mat, m["key"], path, num_partitions)
    # write_sorted's rewrite only clears part-*.parquet it knows about:
    # generation files share the part- prefix so they were cleared too
    return out


def load_manifest(path: str) -> dict:
    return read_manifest(
        os.path.join(path, _MANIFEST),
        "the sorted layout is unfinished or not a sorted layout; "
        "rewrite it with write_sorted before scanning it",
    )


def zone_plan(path: str, lo=None, hi=None) -> list[str]:
    """The files a ``lo <= key <= hi`` scan must open, in global sort
    order.  A zone prunes when it lies entirely outside the range or
    holds only NULL keys (range scans never return null keys)."""
    m = load_manifest(path)
    kind = m["kind"]
    lo_s = _ser(lo, kind) if lo is not None else None
    hi_s = _ser(hi, kind) if hi is not None else None
    bounded = lo_s is not None or hi_s is not None
    out = []
    for z in m["zones"]:
        if z["lo"] is None:
            # rows exist but every key is NULL: a bounded range scan
            # never returns them; an unbounded full scan must
            if bounded:
                continue
            out.append(os.path.join(path, z["file"]))
            continue
        if lo_s is not None and z["hi"] < lo_s:
            continue
        if hi_s is not None and z["lo"] > hi_s:
            continue
        out.append(os.path.join(path, z["file"]))
    return out


@ray.remote
def _read_one(fp: str, key: str, lo_b, hi_b, cols_with_key, columns) -> pa.Table:
    t = papq.read_table(fp, columns=cols_with_key)
    mask = None
    if lo_b is not None:
        mask = pc.greater_equal(t[key], lo_b)
    if hi_b is not None:
        m2 = pc.less_equal(t[key], hi_b)
        mask = m2 if mask is None else pc.and_(mask, m2)
    if mask is not None:  # unbounded ordered scans keep null keys, as
        t = t.filter(pc.fill_null(mask, False))  # the unordered read does
    if columns is not None:
        t = t.select(list(columns))
    return t


def zone_pruned_scan(path: str, lo=None, hi=None, columns=None, ordered=False):
    """Range scan over the layout -> ray.data.Dataset with exactly the
    rows where ``lo <= key <= hi`` (one-sided when a bound is None;
    NULL keys excluded).  Zones prune whole files; the residual
    row-level predicate is pushed into the parquet read so row-group
    statistics prune inside the surviving files too.

    Ordering: the layout's FILES are in global sort order, but the
    default scan is a streaming Ray Data read whose executor may
    deliver blocks out of completion order under load
    (``preserve_order`` is off by default) — fine for the common
    aggregate/filter consumers.  Pass ``ordered=True`` when the
    consumer needs the block stream itself in key order (merge
    consumers, ordered exports): each file is then read by one plain
    Ray task and the blocks are assembled in file order, which the
    streaming executor never re-schedules."""
    import pyarrow.dataset as pads

    from pynomaly_ray.sources.parquet import read_parquet_clean

    m = load_manifest(path)
    kind, key = m["kind"], m["key"]
    files = zone_plan(path, lo, hi)
    if not files:
        schema = pa.ipc.read_schema(
            pa.BufferReader(bytes.fromhex(m["schema_hex"]))
        )
        empty = schema.empty_table()
        if columns is not None:
            empty = empty.select(list(columns))
        return rd.from_arrow(empty)
    lo_b = _bound_scalar(lo, kind) if lo is not None else None
    hi_b = _bound_scalar(hi, kind) if hi is not None else None
    if ordered:
        cols_with_key = None
        if columns is not None:
            cols_with_key = list(dict.fromkeys(list(columns) + [key]))

        args = (key, lo_b, hi_b, cols_with_key, columns)
        return rd.from_arrow_refs([_read_one.remote(f, *args) for f in files])
    expr = None
    if lo is not None:
        expr = pads.field(key) >= lo_b
    if hi is not None:
        e2 = pads.field(key) <= hi_b
        expr = e2 if expr is None else (expr & e2)
    if expr is None:
        # whole-layout scan must still exclude nothing — no filter
        return read_parquet_clean(files, columns=columns)
    return read_parquet_clean(files, columns=columns, filter=expr)


def merge_join_plan(left_path: str, right_path: str) -> list[dict]:
    """The task list a :func:`sorted_merge_join` runs: one entry per
    LEFT file, listing the right files whose zone ranges overlap that
    left file's [lo, hi].  Exposed separately so callers (and tests)
    can assert how much the co-sorted alignment pruned — for two
    layouts sorted on the same key distribution the plan is near-1:1,
    never the all-pairs cross product a naive per-file join would do.

    All-null left zones are skipped (inner join: NULL never matches);
    right zones that are all-null never appear in any entry's list.
    """
    lm, rm = load_manifest(left_path), load_manifest(right_path)
    if lm["kind"] != rm["kind"]:
        raise TypeError(
            f"sorted_merge_join key kinds differ: {lm['kind']} vs "
            f"{rm['kind']} — the layouts are not joinable by range"
        )
    rzones = [z for z in rm["zones"] if z["lo"] is not None]
    plan = []
    for z in lm["zones"]:
        if z["lo"] is None:
            continue
        rfiles = [
            os.path.join(right_path, r["file"])
            for r in rzones
            if not (r["hi"] < z["lo"] or r["lo"] > z["hi"])
        ]
        plan.append(
            {
                "lfile": os.path.join(left_path, z["file"]),
                "lo": z["lo"],
                "hi": z["hi"],
                "rfiles": rfiles,
            }
        )
    return plan


def _deser_scalar(v, kind: str) -> pa.Scalar:
    """A zone-serialized bound (epoch-us int / int / str) back to the
    pyarrow scalar a filter needs — NOT :func:`_bound_scalar`, which
    expects caller-supplied values (a raw int would be read as ns)."""
    if kind == "ts_us":
        return pa.array([int(v)], pa.int64()).cast(pa.timestamp("us"))[0]
    if kind == "int":
        return pa.scalar(int(v), pa.int64())
    return pa.scalar(str(v), pa.string())


def sorted_merge_join(
    left_path: str,
    right_path: str,
    merge_fn=None,
    columns_left=None,
    columns_right=None,
):
    """Storage-partitioned sort-merge join (inner) of two committed
    sorted layouts on their layout keys -> ray.data.Dataset.

    The Iceberg/Delta "storage-partitioned join": both tables already
    paid their one range_sort at write time, so the join moves ZERO
    rows — one Ray task per LEFT file reads only the right files whose
    zone ranges overlap its own zone (:func:`merge_join_plan`),
    filters the right rows to that window, and merges locally.  Each
    left row lives in exactly one file, so every matching pair is
    produced exactly once even when equal keys straddle file
    boundaries on either side (all straddling right files overlap the
    left zone and are read by that task).  At a 100-TB corpus this is
    the repeated-join shape for a key both tables stay sorted on
    (time, customer id): no shuffle, no driver data, and task count
    tracks the left layout's file count.

    Key column names may differ between the layouts (pd.merge
    left_on/right_on semantics; both key columns survive in the
    output).  NULL keys never match (SQL inner-join semantics).
    ``merge_fn`` collapses the join output inside each task (same
    contract as exchange.hash_join / bucketed_join).  ``columns_*``
    project the reads (the key is always included).
    """
    lm, rm = load_manifest(left_path), load_manifest(right_path)
    kind = lm["kind"]
    lk, rk = lm["key"], rm["key"]
    plan = merge_join_plan(left_path, right_path)
    lcols = (
        None
        if columns_left is None
        else list(dict.fromkeys(list(columns_left) + [lk]))
    )
    rcols = (
        None
        if columns_right is None
        else list(dict.fromkeys(list(columns_right) + [rk]))
    )

    def _join_task(t: pa.Table) -> pa.Table:
        outs = []
        for row in t.to_pylist():
            lt = papq.read_table(row["lfile"], columns=lcols)
            lt = lt.filter(pc.is_valid(lt[lk]))
            lo = _deser_scalar(row["lo"], kind)
            hi = _deser_scalar(row["hi"], kind)
            parts = []
            for rf in row["rfiles"]:
                rt = papq.read_table(rf, columns=rcols)
                mask = pc.and_(
                    pc.greater_equal(rt[rk], lo), pc.less_equal(rt[rk], hi)
                )
                parts.append(rt.filter(pc.fill_null(mask, False)))
            if parts:
                rt = pa.concat_tables(parts)
            else:
                rt = pa.ipc.read_schema(
                    pa.BufferReader(bytes.fromhex(rm["schema_hex"]))
                ).empty_table()
                if rcols is not None:
                    rt = rt.select(rcols)
            m = lt.to_pandas().merge(
                rt.to_pandas(), left_on=lk, right_on=rk, how="inner"
            )
            if merge_fn is not None:
                m = merge_fn(m)
            outs.append(
                pa.Table.from_pandas(
                    m, preserve_index=False
                ).replace_schema_metadata(None)
            )
        return pa.concat_tables(outs, promote_options="permissive")

    if not plan:
        # every left zone all-null (or empty layout): typed empty join
        lt = pa.ipc.read_schema(
            pa.BufferReader(bytes.fromhex(lm["schema_hex"]))
        ).empty_table()
        rt = pa.ipc.read_schema(
            pa.BufferReader(bytes.fromhex(rm["schema_hex"]))
        ).empty_table()
        if lcols is not None:
            lt = lt.select(lcols)
        if rcols is not None:
            rt = rt.select(rcols)
        m = lt.to_pandas().merge(rt.to_pandas(), left_on=lk, right_on=rk)
        if merge_fn is not None:
            m = merge_fn(m)
        return rd.from_arrow(
            pa.Table.from_pandas(m, preserve_index=False)
        )
    tasks = rd.from_items(plan)
    return tasks.map_batches(_join_task, batch_format="pyarrow", batch_size=1)


# ---------------------------------------------------------------------------
# Bloom sidecars: point-lookup file skipping beyond zone ranges.
#
# Zone maps prune RANGE scans; a point lookup for a key that falls
# INSIDE some file's [lo, hi] but is absent from it still opens that
# file.  A per-file Bloom filter (one-sided error: false positives
# only) lets the planner skip such files entirely — at a 100-TB corpus
# the common "is this id anywhere?" probe then touches zero files for
# absent keys instead of one per overlapping zone.  The sidecar is a
# separate, optional, atomically-committed artifact: a layout without
# one (or whose sidecar is stale after an append) degrades to
# zone-only planning for the files the sidecar does not cover —
# never wrong, only less pruned.
# ---------------------------------------------------------------------------
_BLOOMS = "_blooms.json"


def _probe_values(col, kind: str) -> np.ndarray:
    """Key column/iterable -> the canonical hash surface (int64 for
    int/timestamp kinds, object for strings) so build-time and
    probe-time hashes agree regardless of the caller's dtype."""
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        col = col.drop_null()
        if kind == "ts_us":
            return col.cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
        if kind == "int":
            return col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        return col.to_numpy(zero_copy_only=False)
    vals = [v for v in col if v is not None]
    if kind == "ts_us":
        return np.array(
            [int(pd.Timestamp(v).value // 1_000) for v in vals], np.int64
        )
    if kind == "int":
        return np.array([int(v) for v in vals], np.int64)
    return np.array([str(v) for v in vals], dtype=object)


@ray.remote
def _bloom_of(fp: str, key: str, kind: str, bits_per_key: int, k: int) -> dict:
    from pynomaly_ray.functions.sketches import bloom_partial

    col = papq.read_table(fp, columns=[key])[key]
    vals = _probe_values(col, kind)
    m_bits = max(1 << 10, (len(vals) * bits_per_key + 63) & ~63)
    bits = bloom_partial(vals, m_bits=m_bits, k=k)
    return {
        "m_bits": int(m_bits),
        "bits_hex": bits.tobytes().hex(),
    }


def add_blooms(path: str, bits_per_key: int = 10, k: int = 4) -> dict:
    """Build per-file Bloom sidecars over the layout key.  One Ray task
    per file reads ONLY the key column; filters are sized to the file
    (``bits_per_key`` per present key, ~1% false-positive rate at 10/4)
    so sidecar size tracks data size at a fixed ratio.  Committed
    atomically; records the manifest generation so appends invalidate
    coverage (uncovered files stay must-read, never skipped)."""
    m = load_manifest(path)
    key, kind = m["key"], m["kind"]

    files = [z["file"] for z in m["zones"]]
    built = ray.get(
        [_bloom_of.remote(os.path.join(path, f), key, kind, bits_per_key, k)
         for f in files]
    )
    sidecar = {
        "gen": int(m.get("gen", 0)),
        "k": int(k),
        "files": dict(zip(files, built)),
    }
    write_json(os.path.join(path, _BLOOMS), sidecar)
    return sidecar


def _load_blooms(path: str, manifest: dict) -> dict:
    """Sidecar file->bloom dict, EMPTY when absent or written for an
    older generation (appended files would be missing anyway; a stale
    same-named rewrite must not serve old bits)."""
    bp = os.path.join(path, _BLOOMS)
    if not os.path.exists(bp):
        return {}
    with open(bp) as f:
        sc = json.load(f)
    if int(sc.get("gen", -1)) != int(manifest.get("gen", 0)):
        return {}
    return sc


def point_plan(path: str, keys) -> list[str]:
    """The files a ``key IN (...)`` lookup must open: a file is a
    candidate when some probe key lies inside its zone range AND (no
    bloom coverage for the file, or the bloom reports maybe-present
    for that key)."""
    from pynomaly_ray.functions.sketches import bloom_contains

    m = load_manifest(path)
    kind = m["kind"]
    sc = _load_blooms(path, m)
    covered = sc.get("files", {})
    kk = int(sc.get("k", 4))
    probes = _probe_values(keys, kind)
    if len(probes) == 0:
        return []
    # probes are already in the zone-bound serialization (epoch-us
    # int64 for timestamps, int64 for ints, str objects) — re-running
    # _ser would re-interpret a us value as ns
    ser = probes if kind != "str" else probes.astype(object)
    out = []
    for z in m["zones"]:
        if z["lo"] is None:
            continue  # all-null file: equality probes never match NULL
        in_zone = (ser >= z["lo"]) & (ser <= z["hi"])
        if not in_zone.any():
            continue
        b = covered.get(z["file"])
        if b is not None:
            bits = np.frombuffer(
                bytes.fromhex(b["bits_hex"]), dtype=np.uint64
            )
            if not bloom_contains(bits, probes[in_zone], k=kk).any():
                continue
        out.append(os.path.join(path, z["file"]))
    return out


def point_lookup(path: str, keys, columns=None):
    """``key IN (...)`` scan -> ray.data.Dataset with exactly the
    matching rows, reading only :func:`point_plan`'s files; the
    residual IN-filter is pushed into the parquet read so row groups
    prune inside survivors (and bloom false positives drop out)."""
    import pyarrow.dataset as pads

    from pynomaly_ray.sources.parquet import read_parquet_clean

    m = load_manifest(path)
    kind, key = m["kind"], m["key"]
    files = point_plan(path, keys)
    if not files:
        schema = pa.ipc.read_schema(
            pa.BufferReader(bytes.fromhex(m["schema_hex"]))
        )
        empty = schema.empty_table()
        if columns is not None:
            empty = empty.select(list(columns))
        return rd.from_arrow(empty)
    probes = _probe_values(keys, kind)
    if kind == "ts_us":
        vset = pa.array(probes, pa.int64()).cast(pa.timestamp("us"))
    elif kind == "int":
        vset = pa.array(probes, pa.int64())
    else:
        vset = pa.array(probes, pa.string())
    expr = pads.field(key).isin(vset)
    return read_parquet_clean(files, columns=columns, filter=expr)


# ---------------------------------------------------------------------------
# Storage-partitioned ASOF join: the temporal join over two layouts
# that both stay sorted on time.  merge_join_plan aligns EQUAL keys;
# an asof probe additionally needs, for each left file, the right
# rows just OUTSIDE its zone (the latest right key before the zone
# starts / the earliest after it ends) — the "predecessor-file trick".
# ---------------------------------------------------------------------------
def asof_join_plan(
    left_path: str, right_path: str, direction: str = "backward"
) -> list[dict]:
    """The task list a :func:`sorted_asof_join` runs: one entry per
    LEFT file, listing the right files that can contain any left row's
    asof match.

    For a left zone [lo, hi] a backward probe at t in [lo, hi] matches
    the greatest right key <= t.  That key is >= v, where v is the
    greatest right key below lo — so the candidate set is the zones
    overlapping [lo, hi] plus every zone whose hi EQUALS
    v = max(z.hi among zones with z.hi < lo); zones with z.hi < v hold
    only keys < v and can never win.  The rule stays exact on appended
    (overlapping-generation) layouts, where "the predecessor file" is
    not unique.  ``forward`` mirrors it with w = min(z.lo above hi);
    ``nearest`` takes both.  All-null zones never participate (asof
    never matches NULL on either side).
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"unknown asof direction {direction!r}")
    lm, rm = load_manifest(left_path), load_manifest(right_path)
    if lm["kind"] != rm["kind"]:
        raise TypeError(
            f"sorted_asof_join key kinds differ: {lm['kind']} vs "
            f"{rm['kind']} — the layouts are not asof-joinable"
        )
    rzones = [z for z in rm["zones"] if z["lo"] is not None]
    plan = []
    for z in lm["zones"]:
        if z["lo"] is None:
            continue
        lo, hi = z["lo"], z["hi"]
        cand = [r for r in rzones if not (r["hi"] < lo or r["lo"] > hi)]
        if direction in ("backward", "nearest"):
            below = [r for r in rzones if r["hi"] < lo]
            if below:
                v = max(r["hi"] for r in below)
                cand += [r for r in below if r["hi"] == v]
        if direction in ("forward", "nearest"):
            above = [r for r in rzones if r["lo"] > hi]
            if above:
                w = min(r["lo"] for r in above)
                cand += [r for r in above if r["lo"] == w]
        seen: set[str] = set()
        rfiles = []
        for r in cand:
            if r["file"] not in seen:
                seen.add(r["file"])
                rfiles.append(os.path.join(right_path, r["file"]))
        plan.append({"lfile": os.path.join(left_path, z["file"]), "rfiles": rfiles})
    return plan


def sorted_asof_join(
    left_path: str,
    right_path: str,
    direction: str = "backward",
    merge_fn=None,
    columns_left=None,
    columns_right=None,
):
    """Storage-partitioned ASOF join (inner) of two committed sorted
    layouts on their layout keys -> ray.data.Dataset.

    For each left row, the latest right row with key <= the left key
    (``backward``, exact matches allowed — DuckDB ``ASOF JOIN``
    semantics); ``forward`` matches the earliest right key >= it,
    ``nearest`` the closest in either direction (pandas merge_asof tie
    rules).  This is the global (un-keyed) asof — the per-entity
    variant stays :func:`pynomaly_ray.functions.exchange.asof_join`,
    which must exchange on the entity key; HERE both tables already
    paid their one range_sort at write time, so the probe moves ZERO
    rows: one Ray task per left file reads only the right files
    :func:`asof_join_plan` proves can hold a match (overlap plus the
    boundary predecessor/successor files).  At a 100-TB time-sorted
    corpus this is the repeated "latest reference state at event time"
    join — no shuffle, no driver data, task count == left file count.

    Rows with no match in ``direction`` are dropped (inner), detected
    via a row sentinel so dtypes survive and left==right key names
    work; right names colliding with a left name are suffixed
    ``_right``.  NULL keys never match on either side.  Tie caution
    (same as exchange.asof_join): among several right rows at the SAME
    key value the winner is engine-defined — project tie-invariant
    right columns when results must be comparable.  ``merge_fn``
    collapses each task's join output; ``columns_*`` project the reads
    (keys always included).
    """
    lm, rm = load_manifest(left_path), load_manifest(right_path)
    lk, rk = lm["key"], rm["key"]
    plan = asof_join_plan(left_path, right_path, direction)
    lcols = (
        None
        if columns_left is None
        else list(dict.fromkeys(list(columns_left) + [lk]))
    )
    rcols = (
        None
        if columns_right is None
        else list(dict.fromkeys(list(columns_right) + [rk]))
    )

    def _right_empty() -> pa.Table:
        rt = pa.ipc.read_schema(
            pa.BufferReader(bytes.fromhex(rm["schema_hex"]))
        ).empty_table()
        return rt.select(rcols) if rcols is not None else rt

    def _merge_one(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lt = lt.filter(pc.is_valid(lt[lk]))
        rt = rt.filter(pc.is_valid(rt[rk]))
        lnames = lt.schema.names
        rnames = rt.schema.names
        out_names = lnames + [
            c if c not in lnames else f"{c}_right" for c in rnames
        ]
        fields = [lt.schema.field(c) for c in lnames] + [
            pa.field(n, rt.schema.field(o).type)
            for n, o in zip(out_names[len(lnames):], rnames)
        ]
        if lt.num_rows == 0 or rt.num_rows == 0:
            out = pa.schema(fields).empty_table()
        else:
            ldf = lt.to_pandas().sort_values(lk, kind="mergesort")
            rdf = rt.to_pandas().sort_values(rk, kind="mergesort")
            probe = pd.DataFrame(
                {
                    "__asof_key__": rdf[rk].to_numpy(),
                    "__asof_row__": np.arange(len(rdf), dtype=np.int64),
                }
            )
            merged = pd.merge_asof(
                ldf,
                probe,
                left_on=lk,
                right_on="__asof_key__",
                direction=direction,
            )
            hit = merged["__asof_row__"].notna().to_numpy()
            idx = merged.loc[hit, "__asof_row__"].to_numpy(np.int64)
            lhit = ldf.iloc[np.flatnonzero(hit)].reset_index(drop=True)
            rhit = rdf.iloc[idx].reset_index(drop=True)
            rhit.columns = out_names[len(lnames):]
            out = pa.Table.from_pandas(
                pd.concat([lhit, rhit], axis=1), preserve_index=False
            ).replace_schema_metadata(None)
            # pandas round-trip can widen empty partitions; cast back
            out = out.cast(pa.schema(fields)) if out.schema != pa.schema(
                fields
            ) else out
        if merge_fn is not None:
            m = merge_fn(out.to_pandas())
            out = pa.Table.from_pandas(
                m, preserve_index=False
            ).replace_schema_metadata(None)
        return out

    def _join_task(t: pa.Table) -> pa.Table:
        outs = []
        for row in t.to_pylist():
            lt = papq.read_table(row["lfile"], columns=lcols)
            parts = [
                papq.read_table(rf, columns=rcols) for rf in row["rfiles"]
            ]
            rt = (
                pa.concat_tables(parts, promote_options="permissive")
                if parts
                else _right_empty()
            )
            outs.append(_merge_one(lt, rt))
        return pa.concat_tables(outs, promote_options="permissive")

    if not plan:
        lt = pa.ipc.read_schema(
            pa.BufferReader(bytes.fromhex(lm["schema_hex"]))
        ).empty_table()
        if lcols is not None:
            lt = lt.select(lcols)
        return rd.from_arrow(_merge_one(lt, _right_empty()))
    tasks = rd.from_items(plan)
    return tasks.map_batches(_join_task, batch_format="pyarrow", batch_size=1)


def layout_stats(path: str) -> dict:
    """Metadata-only table statistics from the zone manifest: COUNT(*),
    key MIN/MAX, key null count and file count — the Iceberg/Delta
    "stats-only query" fast path.  No data file is opened: at 100 TB a
    row count or key range answers in manifest-read time instead of a
    full scan.  Bounds compare on their serialized form (the same
    order-preserving encoding zone_plan prunes with) and deserialize
    once at the end.  Refuses (via load_manifest) on an uncommitted
    layout, like every other reader of this format.
    """
    m = load_manifest(path)
    kind = m["kind"]
    typed = [z for z in m["zones"] if z["lo"] is not None]
    lo = min(z["lo"] for z in typed) if typed else None
    hi = max(z["hi"] for z in typed) if typed else None
    return {
        "key": m["key"],
        "rows": int(m["rows"]),
        "files": len(m["zones"]),
        "key_nulls": int(sum(int(z.get("nulls", 0)) for z in m["zones"])),
        "key_min": _deser_scalar(lo, kind).as_py() if lo is not None else None,
        "key_max": _deser_scalar(hi, kind).as_py() if hi is not None else None,
    }
