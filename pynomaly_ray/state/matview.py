"""Incrementally-maintained materialized aggregate views.

At corpus scale, a keyed aggregate a user consults repeatedly (docs per
source, revenue per segment, tokens per language) must not be
recomputed by rescanning 100 TB every time a crawl increment lands.
This module persists the aggregate STATE as parquet and folds each
delta batch into it with one small exchange over (existing state ∪
delta partials) — the classic incremental view maintenance identity
for distributive aggregates:

    state'  =  merge_by_key(state, partial_agg(delta))

Only mergeable aggregate functions are accepted (``sum``, ``count``,
``min``, ``max``, ``hll`` — approximate COUNT(DISTINCT) as
max-mergeable HyperLogLog register blobs, estimated at read time via
:func:`hll_estimates` — and ``kll``: mergeable KLL quantile sketches,
queried at read time via :func:`kll_quantiles`, and ``mg``: Misra-Gries heavy-hitter counter
blobs — one-sided-undercount mergeable summaries, EXACT whenever the
counter budget covers the column's distinct cardinality, read via
:func:`mg_top`); an average is maintained as (sum, count) and
divided at read time — the same decomposition the engine's map-side
partials use everywhere else.

Exactly-once contract (the part ad-hoc scripts always get wrong):
refreshes are keyed by ``run_id``.  Each refresh writes the merged
state as a NEW generation directory (``gen-<n>/``), then atomically
swaps the ``_matview.json`` manifest — which records every applied
run id — as the commit marker.  A re-delivered delta (retry after a
crash between state write and commit) is detected by its run id and
skipped, so increments are never double-counted; a crash mid-write
leaves the prior committed generation untouched and serving.  Old
generations are pruned only AFTER the new commit lands.

Same storage assumption as the layouts: ``path`` must be shared
(object store / shared FS).  State size is O(#distinct keys), not
O(corpus) — the view stays driver-free and the refresh exchange is
bounded by key cardinality, not data volume.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as papq

import ray
import ray.data as rd

from pynomaly_ray.sources.parquet import parquet_files
from pynomaly_ray.state.commit import atomic_write, read_manifest, write_json

_MANIFEST = "_matview.json"
_MERGEABLE = {"sum", "count", "min", "max", "hll", "kll", "mg"}
_HLL_P = 12  # 4096 registers (~0.8% rel. error), 4 KiB per (key, column)
_KLL_K = 256  # KLL buffer width: O(1/k) rank error, O(k log n) state
_MG_K = 64  # Misra-Gries counter budget: undercount <= levels*N/(k+1)


def _validate_spec(agg_spec: dict) -> None:
    for out_col, (src, fn) in agg_spec.items():
        if fn not in _MERGEABLE:
            raise ValueError(
                f"aggregate {fn!r} for {out_col!r} is not mergeable; "
                f"supported: {sorted(_MERGEABLE)} (maintain avg as "
                "sum+count and divide at read time)"
            )
        if fn != "count" and src is None:
            raise ValueError(f"{out_col!r}: {fn} needs a source column")


def _hll_agg(series: pd.Series) -> bytes:
    """Fold a series of register blobs (or raw partials) to one blob —
    element-wise max is associative AND idempotent, which is what makes
    an approximate-distinct view refreshable and retry-safe."""
    from pynomaly_ray.functions.sketches import hll_merge

    parts = [np.frombuffer(b, dtype=np.uint8) for b in series]
    return hll_merge(parts, p=_HLL_P).tobytes()


def _kll_to_bytes(sk) -> bytes:
    """(values, levels) -> one blob: int64 count, then int8 levels,
    then float64 values — a fixed self-describing layout so the state
    survives parquet round trips as a plain binary column."""
    vals, lvls = sk.to_arrays()
    n = np.array([len(vals)], dtype=np.int64)
    return n.tobytes() + lvls.astype(np.int8).tobytes() + vals.tobytes()


def _kll_from_bytes(b: bytes):
    from pynomaly_ray.functions.sketches import KLLSketch

    n = int(np.frombuffer(b[:8], dtype=np.int64)[0])
    lvls = np.frombuffer(b[8 : 8 + n], dtype=np.int8)
    vals = np.frombuffer(b[8 + n :], dtype=np.float64)
    return KLLSketch.from_arrays(vals, lvls, k=_KLL_K)


def _kll_agg(series: pd.Series) -> bytes:
    """Fold KLL blobs: concatenate-then-compact merge (deterministic
    compaction, rank error stays in the O(1/k) envelope)."""
    it = iter(series)
    sk = _kll_from_bytes(next(it))
    for b in it:
        sk.merge(_kll_from_bytes(b))
    return _kll_to_bytes(sk)




def _mg_to_bytes(tokens, counts) -> bytes:
    """(tokens, counts) -> one self-describing blob: int64 n, int64
    counts, int32 utf-8 lengths, concatenated utf-8 bytes."""
    toks = [str(t).encode("utf-8") for t in tokens]
    n = np.int64(len(toks)).tobytes()
    c = np.asarray(counts, dtype=np.int64).tobytes()
    lens = np.array([len(t) for t in toks], dtype=np.int32).tobytes()
    return n + c + lens + b"".join(toks)


def _mg_from_bytes(b: bytes):
    n = int(np.frombuffer(b[:8], dtype=np.int64)[0])
    off = 8
    counts = np.frombuffer(b[off : off + 8 * n], dtype=np.int64)
    off += 8 * n
    lens = np.frombuffer(b[off : off + 4 * n], dtype=np.int32)
    off += 4 * n
    toks = np.empty(n, dtype=object)
    for i, ln in enumerate(lens):
        toks[i] = b[off : off + ln].decode("utf-8")
        off += ln
    return toks, counts


def _mg_partial_blob(s: pd.Series) -> bytes:
    """Exact value counts of one (key)-group, MG-pruned to _MG_K.
    Counting goes through Arrow's hash table (NUL-safe; pandas
    value_counts aliases strings at embedded NULs)."""
    import pyarrow.compute as pc

    from pynomaly_ray.functions.sketches import mg_prune

    arr = pa.array(s.astype(str).to_numpy(object), type=pa.string())
    vc = pc.value_counts(arr)
    toks = np.asarray(vc.field("values").to_pylist(), dtype=object)
    cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
    t, c = mg_prune(toks, cnts, _MG_K)
    return _mg_to_bytes(t, c)


def _mg_agg(series: pd.Series) -> bytes:
    """Fold MG blobs: sum counters per token (Arrow groupby — NUL-safe),
    prune once to _MG_K.  Each fold level adds <= level-mass/(k+1)
    one-sided undercount (Agarwal et al., mergeable summaries); with
    k >= the column's distinct cardinality no prune ever fires and the
    view is EXACT."""
    from pynomaly_ray.functions.sketches import mg_prune

    toks_all, cnts_all = [], []
    for b in series:
        t, c = _mg_from_bytes(bytes(b))
        toks_all.append(t)
        cnts_all.append(c)
    toks = np.concatenate(toks_all) if toks_all else np.empty(0, object)
    cnts = (
        np.concatenate(cnts_all)
        if cnts_all
        else np.empty(0, dtype=np.int64)
    )
    if len(toks) == 0:
        return _mg_to_bytes(toks, cnts)
    g = (
        pa.TableGroupBy(
            pa.table(
                {
                    "t": pa.array(toks, type=pa.string()),
                    "c": pa.array(cnts, type=pa.int64()),
                }
            ),
            "t",
        )
        .aggregate([("c", "sum")])
        .to_pandas()
    )
    t, c = mg_prune(
        g["t"].to_numpy(object), g["c_sum"].to_numpy(np.int64), _MG_K
    )
    return _mg_to_bytes(t, c)


def _fold_how(agg_spec: dict) -> dict:
    """groupby-agg spec for folding PARTIALS (count is already a sum;
    hll registers fold by element-wise max; kll sketches by
    concatenate-then-compact merge)."""
    out = {}
    for col, (_src, fn) in agg_spec.items():
        if fn == "count":
            out[col] = "sum"
        elif fn == "hll":
            out[col] = _hll_agg
        elif fn == "kll":
            out[col] = _kll_agg
        elif fn == "mg":
            out[col] = _mg_agg
        else:
            out[col] = fn
    return out


def _partial(agg_spec: dict, keys: list[str]):
    """Map-side partial aggregation of one batch.  COUNT becomes a SUM
    of ones here so every refresh merge is a plain fold; HLL becomes a
    per-(key)-group register blob."""

    def f(t: pa.Table) -> pa.Table:
        from pynomaly_ray.functions.sketches import KLLSketch, hll_partial

        df = t.to_pandas()
        named = {}
        for out_col, (src, fn) in agg_spec.items():
            if fn == "count":
                df[out_col] = 1
                named[out_col] = (out_col, "sum")
            elif fn == "hll":
                named[out_col] = (
                    src,
                    lambda s: hll_partial(
                        s.to_numpy(), p=_HLL_P
                    ).tobytes(),
                )
            elif fn == "kll":
                named[out_col] = (
                    src,
                    lambda s: _kll_to_bytes(
                        KLLSketch(k=_KLL_K).add(
                            s.to_numpy(dtype=np.float64)
                        )
                    ),
                )
            elif fn == "mg":
                named[out_col] = (src, _mg_partial_blob)
            else:
                named[out_col] = (src, fn)
        g = df.groupby(keys, sort=False).agg(**named).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return f


def _merge_fn(agg_spec: dict, keys: list[str]):
    """Reduce-side fold: same shape for create, refresh, and re-merge
    (COUNT partials are already sums)."""
    how = _fold_how(agg_spec)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, sort=False).agg(how).reset_index()

    return f


def _aggregate(ds, agg_spec: dict, keys: list[str]):
    from pynomaly_ray.functions.exchange import hash_aggregate

    partials = ds.map_batches(
        _partial(agg_spec, keys), batch_format="pyarrow"
    )
    return hash_aggregate(partials, keys, _merge_fn(agg_spec, keys))


def _write_generation(path: str, gen: int, state_ds) -> int:
    gen_dir = os.path.join(path, f"gen-{gen:06d}")
    shutil.rmtree(gen_dir, ignore_errors=True)  # retried writer owns it
    os.makedirs(gen_dir, exist_ok=True)
    rows = 0
    for i, ref in enumerate(state_ds.to_arrow_refs()):
        t = ray.get(ref)
        if t.num_rows == 0:
            continue
        t = t.replace_schema_metadata(None)
        dest = os.path.join(gen_dir, f"part-{i:05d}.parquet")
        atomic_write(dest, lambda f, t=t: papq.write_table(t, f))
        rows += t.num_rows
    return rows


def load_manifest(path: str) -> dict:
    return read_manifest(
        os.path.join(path, _MANIFEST),
        "the view is unfinished or not a matview; re-create it with "
        "create_matview",
    )


def create_matview(
    path: str, ds, keys, agg_spec: dict, run_id: str = "base"
) -> dict:
    """Aggregate ``ds`` and persist the state as generation 0.

    ``agg_spec``: {out_col: (src_col | None,
    'sum'|'count'|'min'|'max'|'hll')}.
    """
    keys = list(keys)
    _validate_spec(agg_spec)
    os.makedirs(path, exist_ok=True)
    mp = os.path.join(path, _MANIFEST)
    if os.path.exists(mp):
        os.remove(mp)  # retract before rewrite
    state = _aggregate(ds, agg_spec, keys)
    rows = _write_generation(path, 0, state)
    manifest = {
        "keys": keys,
        "agg_spec": {k: list(v) for k, v in agg_spec.items()},
        "gen": 0,
        "rows": rows,
        "applied_run_ids": [run_id],
    }
    write_json(os.path.join(path, _MANIFEST), manifest)  # commit
    return manifest


def refresh_matview(path: str, delta_ds, run_id: str) -> dict:
    """Fold one delta batch into the view, exactly once per ``run_id``.

    A re-delivered run id is a committed no-op (crash-retry safe); the
    merged state lands as a new generation and the manifest swap is the
    commit point.  Old generations are pruned only after the commit."""
    m = load_manifest(path)
    if run_id in m["applied_run_ids"]:
        return m  # already folded in — retry must not double-count
    keys = m["keys"]
    agg_spec = {k: tuple(v) for k, v in m["agg_spec"].items()}
    old_gen = m["gen"]
    base = read_matview(path)
    delta = _aggregate(delta_ds, agg_spec, keys)
    # merge existing state with the delta partials: COUNT columns are
    # already sums in the stored state and HLL registers max-merge, so
    # the same partial fold applies
    merged = _merge_matviews(base, delta, keys, _fold_how(agg_spec))
    new_gen = old_gen + 1
    rows = _write_generation(path, new_gen, merged)
    manifest = dict(
        m,
        gen=new_gen,
        rows=rows,
        applied_run_ids=m["applied_run_ids"] + [run_id],
    )
    write_json(os.path.join(path, _MANIFEST), manifest)  # commit
    shutil.rmtree(
        os.path.join(path, f"gen-{old_gen:06d}"), ignore_errors=True
    )
    return manifest


def retract_matview(path: str, delta_ds, run_id: str) -> dict:
    """Remove previously-folded rows from the view (CDC deletes),
    exactly once per ``run_id``.

    Only sign-invertible aggregates support retraction — ``sum`` and
    ``count`` negate cleanly; ``min``/``max`` would need the dropped
    rows' full groups, so a spec containing them is rejected up front.
    Keys whose count reaches zero vanish from the view (SQL GROUP BY
    semantics: no surviving rows, no group); a count driven NEGATIVE
    means the caller retracted rows never folded in — that's corruption,
    and the refresh aborts BEFORE the commit point, leaving the prior
    generation serving."""
    m = load_manifest(path)
    if run_id in m["applied_run_ids"]:
        return m
    agg_spec = {k: tuple(v) for k, v in m["agg_spec"].items()}
    bad = [
        k
        for k, (_s, fn) in agg_spec.items()
        if fn in ("min", "max", "hll", "kll", "mg")
    ]
    if bad:
        raise ValueError(
            f"retraction needs sign-invertible aggregates; {bad} are "
            "min/max/hll/kll/mg (rebuild the view or re-create without "
            "them)"
        )
    count_cols = [k for k, (_s, fn) in agg_spec.items() if fn == "count"]
    if not count_cols:
        raise ValueError(
            "retraction needs at least one count aggregate in the spec "
            "to know when a key's last row is gone"
        )
    keys = m["keys"]
    old_gen = m["gen"]
    base = read_matview(path)
    delta = _aggregate(delta_ds, agg_spec, keys)

    def negate(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        for out in agg_spec:
            df[out] = -df[out]
        return pa.Table.from_pandas(df, preserve_index=False)

    merged = _merge_matviews(
        base,
        delta.map_batches(negate, batch_format="pyarrow"),
        keys,
        {out: "sum" for out in agg_spec},
    )

    def drop_empty(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        cnt = df[count_cols[0]]
        if (cnt < 0).any():
            raise ValueError(
                "retraction drove a count negative — the delta contains "
                "rows never folded into this view"
            )
        return pa.Table.from_pandas(
            df[cnt > 0], preserve_index=False
        )

    merged = merged.map_batches(drop_empty, batch_format="pyarrow")
    new_gen = old_gen + 1
    rows = _write_generation(path, new_gen, merged)
    manifest = dict(
        m,
        gen=new_gen,
        rows=rows,
        applied_run_ids=m["applied_run_ids"] + [run_id],
    )
    write_json(os.path.join(path, _MANIFEST), manifest)  # commit
    shutil.rmtree(
        os.path.join(path, f"gen-{old_gen:06d}"), ignore_errors=True
    )
    return manifest


def _merge_matviews(base_ds, delta_ds, keys, how: dict):
    from pynomaly_ray.functions.exchange import hash_aggregate

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, sort=False).agg(how).reset_index()

    return hash_aggregate(base_ds.union(delta_ds), keys, fold)


def read_matview(path: str):
    """The committed state as a Dataset (O(#keys) rows)."""
    m = load_manifest(path)
    gen_dir = os.path.join(path, f"gen-{m['gen']:06d}")
    files = parquet_files(gen_dir)
    if not files:
        return rd.from_arrow(pa.table({k: pa.array([]) for k in m["keys"]}))
    return rd.read_parquet(files)


def hll_estimates(df: pd.DataFrame, col: str) -> np.ndarray:
    """Read-time distinct-count estimates for an ``hll`` view column
    (register blobs -> float estimates; ~0.8% relative error at the
    stored precision)."""
    from pynomaly_ray.functions.sketches import hll_estimate

    return np.array(
        [
            hll_estimate(np.frombuffer(b, dtype=np.uint8))
            for b in df[col]
        ]
    )


def kll_quantiles(df: pd.DataFrame, col: str, q: float) -> np.ndarray:
    """Read-time approximate quantiles for a ``kll`` view column
    (sketch blobs -> per-key quantile values; rank error O(1/k))."""
    return np.array(
        [_kll_from_bytes(b).quantile(q) for b in df[col]]
    )


def mg_top(df: pd.DataFrame, col: str, n: int) -> pd.DataFrame:
    """Read-time top-``n`` per view row for an ``mg`` column: explodes
    each blob to (item, cnt) rows ordered (cnt DESC, item ASC) — the
    deterministic tie-break — keeping the view's other columns."""
    rows = []
    for _, r in df.iterrows():
        toks, cnts = _mg_from_bytes(bytes(r[col]))
        order = np.lexsort((toks.astype(str), -cnts))[:n]
        for i in order:
            rec = {k: r[k] for k in df.columns if k != col}
            rec["item"] = toks[i]
            rec["cnt"] = int(cnts[i])
            rows.append(rec)
    return pd.DataFrame(rows)
