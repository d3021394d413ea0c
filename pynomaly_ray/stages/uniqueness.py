"""doc_id uniqueness: the one unavoidable all-to-all shuffle, skew-aware.

Semantics (north_rule + FIXTURES.md §2): a doc_id appearing c > 1 times
yields c-1 violation rows — every occurrence beyond the first, with the
"first" chosen deterministically (lowest partition_id), so retries and
resumes emit identical rows.

Scale design (SURVEY.md §4):

  phase 0 (inside the stage-A scan) — project to (doc_id, partition_id)
      and pre-aggregate within the batch -> (doc_id, doc_hash,
      partition_id, cnt, salt).  Only these short columns ever shuffle,
      never the tokens.  ``salt`` is carried into the docpart checkpoint
      but nothing reads it.
  phase 1 — ONE keyed exchange, ``hash_aggregate`` on the int64
      ``doc_hash`` (functions/exchange.py): all occurrences of a doc_id
      co-locate, and each bucket emits its violation rows through the
      vectorized :func:`bulk_emit_violations`, an Arrow-in, Arrow-out
      reducer.  Its int64 bincount prefilter drops the all-unique bulk
      before any string work, and exact doc_id grouping over the
      survivors guards against hash collisions.  The driver-local Stage
      B path (pipelines/validation.py) calls the same reducer once, with
      every occurrence row as one bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pynomaly_ray.config import VIOLATION_SCHEMA
from pynomaly_ray.functions.hashing import hash_strings, nul_safe_key, salt_of


def project_doc_partition(batch: pa.Table, salt_buckets: int = 16) -> pa.Table:
    """Batch-local pre-aggregation to (doc_id, doc_hash, partition_id,
    cnt, salt).  ``doc_hash`` (stable SipHash of doc_id, as int64) lets
    downstream total-counting run as numpy integer ops instead of string
    groupbys; exact doc_id comparison still guards against collisions.

    Fast path: when every (doc_id) in the batch is already unique (the
    overwhelmingly common case), all counts are 1 and no pandas groupby
    runs — pure hashing + arrow column reuse."""
    doc_id = batch["doc_id"]
    part_id = batch["partition_id"]
    null_mask = pc.is_null(doc_id).to_numpy(zero_copy_only=False)
    if null_mask.any():
        keep = pa.array(~null_mask)
        doc_id = doc_id.filter(keep)
        part_id = part_id.filter(keep)
    ser = doc_id.to_pandas()
    hashes = hash_strings(ser).view(np.int64)
    if len(np.unique(hashes)) == len(hashes):
        return pa.table(
            {
                "doc_id": doc_id,
                "partition_id": part_id,
                "cnt": pa.array(np.ones(len(hashes), dtype=np.int64)),
                "doc_hash": pa.array(hashes),
                "salt": pa.array(salt_of(part_id, salt_buckets)),
            }
        )
    # Arrow hash group-by, not a pandas object groupby: pandas compares
    # object strings as C strings, so doc_ids that differ only after an
    # embedded NUL byte would merge into one count; Arrow strings are
    # length-prefixed (NUL-safe) and its C++ hash table is ~3x faster
    # than the object groupby on this path.  use_threads=False keeps the
    # first-appearance row order deterministic (resume-identity).
    agg_t = pa.TableGroupBy(
        pa.table({"doc_id": doc_id, "partition_id": part_id}),
        ["doc_id", "partition_id"],
        use_threads=False,
    ).aggregate([([], "count_all")])
    return pa.table(
        {
            "doc_id": agg_t["doc_id"],
            "partition_id": agg_t["partition_id"],
            "cnt": agg_t["count_all"].cast(pa.int64()),
            "doc_hash": pa.array(
                hash_strings(agg_t["doc_id"]).view(np.int64)
            ),
            "salt": pa.array(salt_of(agg_t["partition_id"], salt_buckets)),
        }
    )


def _extras_per_partition(occ: pd.DataFrame) -> dict[str, int]:
    """Occurrences (partition_id, cnt) -> extras per partition, with the
    single tolerated occurrence assigned to the lowest partition_id."""
    if occ.empty or occ["cnt"].sum() <= 1:
        return {}
    g = occ.sort_values("partition_id", kind="mergesort")
    out: dict[str, int] = {}
    tolerated = 1
    for pid, cnt in zip(g["partition_id"], g["cnt"]):
        extra = int(cnt) - tolerated
        tolerated = 0
        if extra > 0:
            out[pid] = out.get(pid, 0) + extra
    return out


def emit_duplicate_violations(group: pd.DataFrame) -> pd.DataFrame:
    """Violation rows for one duplicated doc_id's occurrences.

    Runs only over confirmed duplicates (a tiny set), never the full key
    space.  Incremental-correct: with checkpointed occurrences from prior
    runs (``is_prior == 1``), emits only the *new* extras —
    extras(cumulative) minus extras(prior) per partition — so the union
    of all runs' violations equals a single full run's, regardless of how
    the input was split (the resume-identity guarantee).
    """
    doc = group["doc_id"].iloc[0]
    # nul_safe_key: partition ids differing only after an embedded NUL
    # must stay distinct occurrence groups (pandas C-string compare)
    group = group.assign(partition_id=nul_safe_key(group["partition_id"]))
    occ = (
        group.groupby("partition_id", sort=False, dropna=False)["cnt"]
        .sum()
        .reset_index()
    )
    cum = _extras_per_partition(occ)
    if "is_prior" in group.columns and group["is_prior"].any():
        prior_occ = (
            group[group["is_prior"] == 1]
            .groupby("partition_id", sort=False, dropna=False)["cnt"]
            .sum()
            .reset_index()
        )
        prior = _extras_per_partition(prior_occ)
    else:
        prior = {}
    rows: list[str] = []
    for pid, extra in sorted(cum.items()):
        new = extra - prior.get(pid, 0)
        rows.extend([pid] * max(new, 0))
    return pd.DataFrame(
        {
            "doc_id": [doc] * len(rows),
            "partition_id": rows,
            "check": ["duplicate_doc_id"] * len(rows),
            "detail": ["duplicate doc_id occurrence"] * len(rows),
        }
    )


def hash_candidate_mask(hashes: np.ndarray, cnts: np.ndarray) -> np.ndarray:
    """Row mask of occurrence rows whose int64 doc_hash totals more than
    one occurrence: the C-speed (unique + bincount) duplicate prefilter
    of :func:`bulk_emit_violations`.  Hash-level only: exact doc_id
    verification happens downstream (collision guard)."""
    _, inv = np.unique(hashes, return_inverse=True)
    totals = np.bincount(inv, weights=cnts).astype(np.int64)
    return totals[inv] > 1


def bulk_emit_violations(t: pa.Table) -> pa.Table:
    """Vectorized ALL-groups duplicate-violation emission for one
    key-co-located bucket of docpart occurrence rows (the driver-local
    Stage B passes every occurrence row as one bucket) — the vectorized
    form of :func:`emit_duplicate_violations`, which stays as the
    per-group reference the parity tests compare against.  Takes a
    ``pa.Table`` of (doc_id, doc_hash, partition_id, cnt[, is_prior])
    and returns one of VIOLATION_SCHEMA.

    Fast pre-filter: an int64 ``doc_hash`` bincount (C speed) on the
    Arrow columns discards the all-unique bulk of the bucket, and only
    the candidate rows are converted to pandas.  Extras for the
    surviving groups are then computed in one pass — per
    (doc_id, partition_id) count minus one for each doc's lowest
    partition_id (the deterministically tolerated occurrence), minus the
    extras already attributed to prior runs (``is_prior`` rows, the
    resume-identity rule) — and emitted via ``np.repeat``.  No per-doc
    Python loop anywhere, so a 30%-duplicated corpus costs the reducer
    O(bucket) vectorized work, not O(duplicates) Python.
    """
    empty = VIOLATION_SCHEMA.empty_table()
    if not t.num_rows:
        return empty
    cand = hash_candidate_mask(
        t["doc_hash"].to_numpy(),
        t["cnt"].to_numpy().astype(np.int64),
    )
    if not cand.any():
        return empty
    keep_cols = [
        c for c in ("doc_id", "partition_id", "cnt", "is_prior") if c in t.column_names
    ]
    sub = t.select(keep_cols).filter(pa.array(cand)).to_pandas()
    # nul_safe_key: object-dtype groupby/transform would alias keys that
    # differ only after an embedded NUL byte (pandas C-string compare)
    sub = sub.assign(
        doc_id=nul_safe_key(sub["doc_id"]),
        partition_id=nul_safe_key(sub["partition_id"]),
    )
    occ = (
        sub.groupby(["doc_id", "partition_id"], sort=False, dropna=False)["cnt"]
        .sum()
        .reset_index()
    )
    # hash-level candidates -> exact doc_id totals (collision guard)
    doc_tot = occ.groupby("doc_id", sort=False)["cnt"].transform("sum")
    occ = occ[doc_tot > 1]
    if occ.empty:
        return empty
    occ = occ.sort_values(
        ["doc_id", "partition_id"], kind="mergesort"
    ).reset_index(drop=True)
    first = ~occ["doc_id"].duplicated().to_numpy()
    new = occ["cnt"].to_numpy(dtype=np.int64) - first.astype(np.int64)
    if "is_prior" in sub.columns and (sub["is_prior"] == 1).any():
        pocc = (
            sub[sub["is_prior"] == 1]
            .groupby(["doc_id", "partition_id"], sort=False, dropna=False)["cnt"]
            .sum()
            .reset_index()
            .sort_values(["doc_id", "partition_id"], kind="mergesort")
        )
        pfirst = ~pocc["doc_id"].duplicated().to_numpy()
        # extras already emitted by committed prior runs; a prior total
        # of 1 yields cnt - 1 == 0, matching _extras_per_partition's
        # empty-map early return
        pocc["__prior_extra__"] = pocc["cnt"].to_numpy(
            dtype=np.int64
        ) - pfirst.astype(np.int64)
        m = occ.merge(
            pocc[["doc_id", "partition_id", "__prior_extra__"]],
            on=["doc_id", "partition_id"],
            how="left",
        )
        new = np.maximum(
            new - m["__prior_extra__"].fillna(0).to_numpy(dtype=np.int64), 0
        )
    mask = new > 0
    if not mask.any():
        return empty
    reps = new[mask]
    src = occ[mask]
    return pa.Table.from_pandas(
        pd.DataFrame(
            {
                "doc_id": np.repeat(src["doc_id"].to_numpy(), reps),
                "partition_id": np.repeat(src["partition_id"].to_numpy(), reps),
                "check": "duplicate_doc_id",
                "detail": "duplicate doc_id occurrence",
            }
        ),
        schema=VIOLATION_SCHEMA,
        preserve_index=False,
    )


def duplicates_from_docparts(docparts_ds):
    """Uniqueness check over pre-aggregated docpart rows.

    ``docparts_ds`` carries an int64 ``is_prior`` column: 0 on this
    run's occurrences, 1 on the occurrences checkpointed by earlier
    committed runs (see pipelines/validation.py).  Duplicates spanning a
    completed and a resumed partition are still detected, and only this
    run's new extras are emitted, attributed exactly as a single full
    run would.  Without the column every row counts as this run's.
    Returns a Dataset of violation rows, one block per bucket.

    ONE keyed exchange end-to-end: docpart rows hash-partition on the
    int64 ``doc_hash`` (all occurrences of a doc_id co-locate; a hash
    collision merely co-locates extra rows — exactness comes from the
    in-bucket doc_id groupby), and every bucket emits its violation rows
    directly through the vectorized :func:`bulk_emit_violations`
    reducer, so no occurrence row ever lands on the driver.
    """
    from pynomaly_ray.functions.exchange import hash_aggregate

    return hash_aggregate(
        docparts_ds, ["doc_hash"], bulk_emit_violations, arrow=True
    )
