"""Z-order (Morton-clustered) parquet layout: TWO-dimensional file
pruning, the capability a 1-D sorted layout cannot provide.

``sources/sorted_layout.py`` prunes range scans on ONE key; a rectangle
predicate (``lo1 <= k1 <= hi1 AND lo2 <= k2 <= hi2``) over a layout
sorted on k1 still reads every file for the k2 dimension.  This module
interleaves the bits of both keys' quantile ranks into a Morton code,
range-sorts on that code (one exchange, the same
``functions/exchange.range_sort`` the 1-D layout uses), and records a
per-file BOUNDING BOX (min/max of each raw key).  Because z-contiguous
row runs are spatially compact, every file's box is tight in BOTH
dimensions, and a rectangle scan opens only the files whose box
intersects it — the Delta/Iceberg ``OPTIMIZE ZORDER BY`` pattern.

Quantile ranks (not raw bit patterns) make the interleave robust to
skewed or offset domains: each key is mapped to its bucket among
``2**bits`` sampled quantiles (the same deterministic evenly-strided
per-block sampling ``range_sort`` uses for its splitters), so both
dimensions contribute equally to the code regardless of magnitude.

Crash/retry contract mirrors the sorted layout: part file name == global
z-block index (a retried writer overwrites its own file), the
``_zorder.json`` manifest is written LAST as the commit marker, and a
rewrite retracts the marker before clearing old parts.  Scans refuse an
uncommitted layout.

Scan contract: ``zorder_scan(path, r1, r2)`` returns exactly the rows
satisfying both range predicates (bounds may be ``None`` for open
sides); the residual filter is applied to the planned files, so pruning
is a pure I/O optimization, never a correctness surface.  NULL keys are
never returned (SQL predicate semantics) and files that are all-null in
a constrained dimension prune away.

Keys must be integer or timestamp columns (timestamps are compared as
epoch microseconds); string keys have no order-preserving fixed-width
rank here — use the 1-D sorted layout for those.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as papq

import ray
import ray.data as rd

from pynomaly_ray.state.commit import atomic_write, read_manifest, write_json

_MANIFEST = "_zorder.json"
_Z_COL = "__pnr_zvalue__"


def _key_kind(t: pa.DataType) -> str:
    if pa.types.is_timestamp(t):
        return "ts_us"
    if pa.types.is_integer(t):
        return "int"
    raise TypeError(
        f"z-order key must be integer or timestamp, got {t} "
        "(string keys: use the 1-D sorted layout)"
    )


def _as_i64(col: pa.ChunkedArray, kind: str) -> np.ndarray:
    """Key column -> int64 surface (nulls -> INT64_MIN sentinel, tracked
    separately by the caller via the null mask)."""
    if kind == "ts_us":
        col = col.cast(pa.int64())
    else:
        col = col.cast(pa.int64())
    return pc.fill_null(col, np.iinfo(np.int64).min).to_numpy(
        zero_copy_only=False
    )


def _ser(v, kind: str):
    if v is None:
        return None
    if kind == "ts_us":
        return int(pd.Timestamp(v).value // 1_000)
    return int(v)


def _bound_i64(v, kind: str) -> int:
    """A caller-supplied lo/hi bound on the manifest's epoch-us/int axis."""
    if kind == "ts_us":
        return int(pd.Timestamp(v).value // 1_000)
    return int(v)


def _bound_scalar(v, kind: str) -> pa.Scalar:
    if kind == "ts_us":
        return pa.scalar(pd.Timestamp(v).to_pydatetime(), pa.timestamp("us"))
    return pa.scalar(int(v), pa.int64())


def _spread16(x: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each value to even bit positions (the
    classic Morton dilation, vectorized in uint64)."""
    x = x.astype(np.uint64) & np.uint64(0xFFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x33333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x55555555)
    return x


def _morton2(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Interleave two <=16-bit bucket ranks into an int64 z-value."""
    return (_spread16(b1) | (_spread16(b2) << np.uint64(1))).astype(np.int64)


def _sample_splitters(ds, keys, kinds, bits: int) -> list[np.ndarray]:
    """Deterministic evenly-strided per-block samples -> per-key quantile
    splitters (2**bits - 1 cut points).  Driver holds only the tiny
    sample, never data rows — the same budget as range_sort."""
    nq = (1 << bits) - 1

    def sample(t: pa.Table) -> pa.Table:
        out = {}
        for k, kind in zip(keys, kinds):
            col = t[k]
            vals = _as_i64(col, kind)
            if col.null_count:
                vals = vals[
                    ~pc.is_null(col).to_numpy(zero_copy_only=False)
                ]
            if len(vals) > 256:
                idx = np.linspace(0, len(vals) - 1, 256).astype(np.int64)
                vals = vals[idx]
            out[k] = pa.array(vals, pa.int64())
        n = max((len(v) for v in out.values()), default=0)
        # pad ragged columns so the table is rectangular; padding repeats
        # the last sample and cannot move a quantile materially
        for k in out:
            v = out[k]
            if len(v) < n:
                pad = pa.array(
                    np.full(n - len(v), v[-1].as_py() if len(v) else 0,
                            dtype=np.int64)
                )
                out[k] = pa.concat_arrays([v.combine_chunks()
                                           if isinstance(v, pa.ChunkedArray)
                                           else v, pad])
        return pa.table(out)

    tabs = ray.get(
        list(ds.map_batches(sample, batch_format="pyarrow").to_arrow_refs())
    )
    tabs = [t for t in tabs if t.num_rows and set(keys) <= set(t.schema.names)]
    splitters = []
    for k in keys:
        if tabs:
            allv = np.concatenate(
                [t[k].to_numpy(zero_copy_only=False) for t in tabs]
            )
        else:
            allv = np.array([0], dtype=np.int64)
        qs = np.quantile(allv, np.linspace(0, 1, nq + 2)[1:-1])
        splitters.append(np.unique(qs.astype(np.int64)))
    return splitters


def _cluster_and_write(
    ds, keys, kinds, sp1, sp2, path, num_partitions, name_tmpl
) -> list[dict]:
    """Z-code ``ds`` with the given splitters, range-sort on the code,
    and persist the globally-z-ordered blocks; returns zone dicts."""
    from pynomaly_ray.functions.exchange import range_sort

    def add_z(t: pa.Table) -> pa.Table:
        v1 = _as_i64(t[keys[0]], kinds[0])
        v2 = _as_i64(t[keys[1]], kinds[1])
        b1 = np.searchsorted(sp1, v1, side="right")
        b2 = np.searchsorted(sp2, v2, side="right")
        z = _morton2(b1, b2)
        # null keys sort to the end of z-space so they cluster in the
        # last files and never pollute bounding boxes mid-layout
        nulls = np.zeros(t.num_rows, dtype=bool)
        for k in keys:
            if t[k].null_count:
                nulls |= pc.is_null(t[k]).to_numpy(zero_copy_only=False)
        z[nulls] = np.iinfo(np.int64).max
        return t.append_column(_Z_COL, pa.array(z))

    zded = ds.map_batches(add_z, batch_format="pyarrow")
    sorted_ds = range_sort(zded, _Z_COL, num_partitions)
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def _write(t: pa.Table, i: int) -> dict:
        t = t.replace_schema_metadata(None)
        if t.num_rows == 0 or _Z_COL not in t.schema.names:
            return {"file": None, "rows": 0, "boxes": None, "nulls": 0,
                    "schema_hex": None}
        t = t.drop_columns([_Z_COL])
        sch_hex = t.schema.serialize().to_pybytes().hex()
        dest = atomic_write(
            os.path.join(path, name_tmpl.format(i=i) + ".parquet"),
            lambda f: papq.write_table(t, f),
        )
        boxes, nulls = [], 0
        for k, kind in zip(keys, kinds):
            col = t[k]
            valid = col.drop_null()
            nulls += int(col.null_count)
            boxes.append(
                {
                    "lo": _ser(pc.min(valid).as_py(), kind)
                    if len(valid) else None,
                    "hi": _ser(pc.max(valid).as_py(), kind)
                    if len(valid) else None,
                }
            )
        return {"file": os.path.basename(dest), "rows": t.num_rows,
                "boxes": boxes, "nulls": nulls, "schema_hex": sch_hex}

    results = ray.get([_write.remote(r, i) for i, r in enumerate(refs)])
    return [z for z in results if z["file"] is not None]


def write_zorder(
    ds,
    keys,
    path: str,
    num_partitions: int | None = None,
    bits: int = 8,
) -> dict:
    """Morton-cluster ``ds`` on two keys and persist it as a bounding-box
    zone layout under ``path``.  Returns (and persists) the manifest."""
    from pynomaly_ray.functions.exchange import range_sort

    keys = list(keys)
    if len(keys) != 2:
        raise ValueError("write_zorder takes exactly two keys")
    if bits < 1 or bits > 16:
        raise ValueError("bits must be in [1, 16]")

    os.makedirs(path, exist_ok=True)
    marker = os.path.join(path, _MANIFEST)
    if os.path.exists(marker):
        os.remove(marker)  # retract before rewrite
    for f in os.listdir(path):
        if f.startswith("part-") and f.endswith(".parquet"):
            os.remove(os.path.join(path, f))

    # key kinds from the first typed block
    sch = None
    for ref in ds.to_arrow_refs():
        t = ray.get(ref)
        if set(keys) <= set(t.schema.names):
            sch = t.schema
            break
    if sch is None:
        raise ValueError(
            "write_zorder needs a typed input carrying both key columns"
        )
    kinds = [_key_kind(sch.field(k).type) for k in keys]
    splitters = _sample_splitters(ds, keys, kinds, bits)
    sp1, sp2 = splitters
    zones = _cluster_and_write(
        ds, keys, kinds, sp1, sp2, path, num_partitions, "part-{i:05d}"
    )
    if not zones:
        raise ValueError(
            "write_zorder needs at least one non-empty typed block"
        )
    manifest = {
        "keys": keys,
        "kinds": kinds,
        "bits": bits,
        "rows": int(sum(z["rows"] for z in zones)),
        "gen": 0,
        # splitters persist so appends z-code deltas with the SAME
        # rank mapping — new files cluster consistently with old ones
        "splitters": [sp1.tolist(), sp2.tolist()],
        "zones": [
            {k: z[k] for k in ("file", "rows", "boxes", "nulls")}
            for z in zones
        ],
        "schema_hex": zones[0]["schema_hex"],
    }
    write_json(marker, manifest)  # commit marker
    return manifest


def load_manifest(path: str) -> dict:
    return read_manifest(
        os.path.join(path, _MANIFEST),
        "the z-order layout is unfinished or not a z-order layout; "
        "rewrite it with write_zorder before scanning it",
    )


def append_zorder(ds, path: str, num_partitions: int | None = None) -> dict:
    """Append a delta to a committed z-order layout without touching its
    existing files — the crawl-increment shape for a 2-D-clustered
    corpus.

    The delta is z-coded with the layout's PERSISTED splitters (so new
    rows cluster consistently with old ones), range-sorted on the code,
    and lands as its own generation of part files
    (``part-g<gen>-<i>.parquet``); the manifest is atomically replaced
    LAST with the union of zones.  Scans stay exact because pruning
    consults per-file bounding boxes, not file order — overlapping
    generations just mean a rectangle may open files from more than one
    generation until a rewrite re-clusters."""
    m = load_manifest(path)
    keys, kinds = m["keys"], m["kinds"]
    sp1 = np.asarray(m["splitters"][0], dtype=np.int64)
    sp2 = np.asarray(m["splitters"][1], dtype=np.int64)
    gen = int(m.get("gen", 0)) + 1
    zones = _cluster_and_write(
        ds, keys, kinds, sp1, sp2, path, num_partitions,
        f"part-g{gen:03d}-{{i:05d}}",
    )
    manifest = dict(
        m,
        gen=gen,
        rows=m["rows"] + int(sum(z["rows"] for z in zones)),
        zones=m["zones"]
        + [
            {k: z[k] for k in ("file", "rows", "boxes", "nulls")}
            for z in zones
        ],
    )
    write_json(os.path.join(path, _MANIFEST), manifest)
    return manifest


def _overlaps(box, lo, hi) -> bool:
    """Does the file's [box.lo, box.hi] interval intersect [lo, hi]?
    An all-null dimension (box bounds None) matches only an
    unconstrained range — a range predicate never returns NULL keys."""
    if box["lo"] is None:
        return lo is None and hi is None
    if lo is not None and box["hi"] < lo:
        return False
    if hi is not None and box["lo"] > hi:
        return False
    return True


def zorder_plan(path: str, r1=(None, None), r2=(None, None)) -> list[str]:
    """Files whose bounding box intersects the rectangle.  Ranges are
    inclusive (lo, hi) pairs on the two layout keys, in layout key
    order; either side may be None."""
    m = load_manifest(path)
    kinds = m["kinds"]
    bounds = []
    for r, kind in zip((r1, r2), kinds):
        lo, hi = r
        bounds.append(
            (
                _bound_i64(lo, kind) if lo is not None else None,
                _bound_i64(hi, kind) if hi is not None else None,
            )
        )
    out = []
    for z in m["zones"]:
        if all(
            _overlaps(box, lo, hi)
            for box, (lo, hi) in zip(z["boxes"], bounds)
        ):
            out.append(os.path.join(path, z["file"]))
    return out


def zorder_scan(path: str, r1=(None, None), r2=(None, None), columns=None):
    """Exact rectangle scan: read only the planned files, then apply the
    residual range filter (pruning is I/O-only, never correctness)."""
    m = load_manifest(path)
    keys, kinds = m["keys"], m["kinds"]
    files = zorder_plan(path, r1, r2)
    read_cols = columns
    if read_cols is not None:
        read_cols = sorted(set(read_cols) | set(keys))
    if not files:
        # typed empty dataset from the manifest schema
        sch = pa.ipc.read_schema(
            pa.BufferReader(bytes.fromhex(m["schema_hex"]))
        )
        if read_cols is not None:
            sch = pa.schema([sch.field(c) for c in sch.names
                             if c in read_cols])
        empty = sch.empty_table()
        if columns is not None:
            empty = empty.select(list(columns))
        return rd.from_arrow(empty)
    ds = rd.read_parquet(files, columns=read_cols)

    def residual(t: pa.Table) -> pa.Table:
        mask = None
        for k, kind, (lo, hi) in zip(keys, kinds, (r1, r2)):
            if lo is None and hi is None:
                continue  # unconstrained dimension: nulls pass through
            col = t[k]
            cond = pc.is_valid(col)
            if lo is not None:
                cond = pc.and_(
                    cond, pc.greater_equal(col, _bound_scalar(lo, kind))
                )
            if hi is not None:
                cond = pc.and_(
                    cond, pc.less_equal(col, _bound_scalar(hi, kind))
                )
            mask = cond if mask is None else pc.and_(mask, cond)
        if mask is not None:
            t = t.filter(mask)
        if columns is not None:
            t = t.select(list(columns))
        return t

    return ds.map_batches(residual, batch_format="pyarrow")
