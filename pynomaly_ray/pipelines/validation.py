"""The flagship pipeline: sequence table -> violations + partition reports.

Engine shape (SURVEY.md §3 "Engine shape of the same lifecycle"):

  Stage A  Read->MapBatches(SequenceValidator), fused: each stateless
           read task (a run of input files balanced by bytes, about two
           per cluster CPU) decodes its files and validates them in place
           -> ONE pass producing a tagged stream of violation rows,
           per-partition partial stats, and uniqueness pre-aggregates
           (a resumed run drops the rows of partitions in the manifest
           with an ``is_in`` filter on partition_id, after decode)
  Stage B  (a) doc_id uniqueness totals; (b) per-partition stats merge
  Stage C  tiny partition-stat table -> exact LoOP fit (loop_core) with
           extent/k per config; loop_score > threshold => drift fail
  Stage D  per-partition pass/fail report + manifest

The input is read exactly once; only the small tagged stream crosses the
scan boundary.  Stage B is one body with two placements, chosen by
size: it splits tagged blocks by kind (``_split``), writes their
docparts and violation rows, merges the partials per partition and
finds duplicates with one reducer (uniqueness.bulk_emit_violations).
The tagged stream is usually tiny relative to the input (sparse
violations + one stat row per partition per batch + pre-aggregated doc
counts), so below ``cfg.driver_collect_bytes`` the driver collects it
once and runs that body on it as one block and one bucket — zero extra
Ray executions.  Above the threshold (true 10^12-row runs, where the
doc_id pre-aggregates alone are large) the body runs as one wave of Ray
tasks over the tagged blocks, then two hash-partitioned exchanges
(functions/exchange.py) on the refs it returns: no Ray Data execution
on either path.  Both give identical outputs and, with ``out_dir``, the
same on-disk layout: ``docparts/<run>/*.parquet`` and
``violations/<run>/*.parquet``.  Tests force the distributed placement
with ``driver_collect_bytes=0``.
"""

from __future__ import annotations

import math
import os
import shutil
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from pynomaly_ray.config import (
    PARTITION_REPORT_SCHEMA,
    VIOLATION_SCHEMA,
    ValidationConfig,
)
from pynomaly_ray.functions.exchange import anti_membership, hash_aggregate
from pynomaly_ray.functions.hashing import digest_floats
from pynomaly_ray.sources.parquet import (
    SequenceParquetDatasource,
    parquet_files,
    read_parquet_clean,
)
from pynomaly_ray.stages.constraints import require_sequence_schema
from pynomaly_ray.stages.stats import finalize_stat_vectors, merge_partials_df
from pynomaly_ray.stages.uniqueness import (
    bulk_emit_violations,
    duplicates_from_docparts,
)
from pynomaly_ray.stages.validate import UNION_SCHEMA, SequenceValidator
from pynomaly_ray.state.commit import atomic_write, publish_dir
from pynomaly_ray.state.drift import fit_drift_scores
from pynomaly_ray.state.manifest import (
    completed_partitions,
    read_full_manifest,
    write_manifest_snapshot,
)

_PARTIAL_COLS = [
    "partition_id",
    "source",
    "n_rows",
    "n_tok_sum",
    "n_tok_sum2",
    "n_tok_sum3",
    "tok_hist",
    "len_hist",
]
_DOCPART_COLS = ["doc_id", "doc_hash", "partition_id", "cnt", "salt"]
_VIOL_COLS = ["doc_id", "partition_id", "check", "detail"]


@dataclass
class ValidationResult:
    # Per-partition records.  Without ``out_dir``: full
    # PARTITION_REPORT_SCHEMA (incl. stat_vector + lineage).  With
    # ``out_dir``: the merged manifest covering ALL runs ever completed
    # there (partition_id, source, n_rows, n_violations, loop_score,
    # status) — full records live in ``out_dir/partitions/<run>.parquet``.
    report: pa.Table
    violations: Optional[pa.Table]
    out_dir: Optional[str]
    n_sequences: int
    skipped_partitions: int
    # With ``out_dir``: ``out_dir/violations/<run>/``, the parquet
    # directory holding ALL of this run's violation rows — the
    # authoritative source when ``violations`` was truncated to empty
    # (volume above the driver cap), and the validated-rows sink's input.
    violations_dir: Optional[str] = None


def _filter_completed(ds, done: frozenset):
    if not done:
        return ds
    done_arr = pa.array(sorted(done), pa.string())

    def drop_done(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.is_in(t["partition_id"], value_set=done_arr))
        )

    return ds.map_batches(drop_done, batch_format="pyarrow")


def _empty_df(cols) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=object) for c in cols})


def _prior_docpart_dirs(out_dir: str, run_id: str, resume: bool) -> list[str]:
    """Docpart checkpoints of COMMITTED prior runs only.

    A run's manifest snapshot is its commit point (written last); a
    crashed run leaves a docparts dir whose partitions will be re-run, so
    counting its occurrences would double-count and fabricate duplicates.
    Only runs present in the manifest dir are trusted."""
    dp_root = os.path.join(out_dir, "docparts")
    if not (resume and os.path.isdir(dp_root)):
        return []
    from pynomaly_ray.state.manifest import committed_run_ids

    committed = committed_run_ids(out_dir)
    return [
        os.path.join(dp_root, d)
        for d in sorted(os.listdir(dp_root))
        if d != run_id and d in committed
    ]


def _stage_b_dirs(out_dir, run_id: str, resume: bool):
    """Stage B's files under ``out_dir``: the committed prior runs'
    docparts files, and this run's ``docparts/<run>/`` and
    ``violations/<run>/`` dirs, cleared and recreated (all empty or None
    without ``out_dir``)."""
    if not out_dir:
        return [], None, None
    prior_files = parquet_files(*_prior_docpart_dirs(out_dir, run_id, resume))
    # a crashed attempt with this (uncommitted) run_id may have left
    # files that the retry's would add to: clear both dirs first
    dp_dir = os.path.join(out_dir, "docparts", run_id)
    viol_dir = os.path.join(out_dir, "violations", run_id)
    for d in (dp_dir, viol_dir):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    return prior_files, dp_dir, viol_dir


def _part(d, name):
    return os.path.join(d, f"{name}.parquet") if d else None


_MAX_DRIVER_VIOLATIONS = 2_000_000


def _write_violations(viol: pa.Table, path: Optional[str]) -> pa.Table:
    """Write ``viol``'s rows at ``path`` (if any); return per-partition counts."""
    if not viol.num_rows:  # an empty duplicate bucket may have no columns
        viol = VIOLATION_SCHEMA.empty_table()
    viol = viol.select(_VIOL_COLS).cast(VIOLATION_SCHEMA)
    if path and viol.num_rows:
        pq.write_table(viol, path)
    # a compute kernel, not Table.group_by: that loads Arrow's Acero
    # engine, several MB of driver RSS on the local path
    counts = pc.value_counts(viol["partition_id"])
    return pa.table(
        {"partition_id": counts.field("values"), "count_all": counts.field("counts")}
    )


_write_bucket_violations = ray.remote(_write_violations)


def _tag_prior(docparts: pa.Table, is_prior: int) -> pa.Table:
    return docparts.append_column(
        "is_prior", pa.array(np.full(docparts.num_rows, is_prior, np.int64))
    )


def _split(block: pa.Table, dp_path, viol_path):
    """One tagged block -> its partial rows, its docpart rows tagged
    ``is_prior=0``, its violation rows and their per-partition counts;
    the docparts and violations are written at the paths (if given)."""
    if not block.num_rows:  # 0-row blocks skip the validator: any schema
        block = UNION_SCHEMA.empty_table()

    def rows(kind, cols):  # select first: the filter copies only ``cols``
        return block.select(cols).filter(pc.equal(block["kind"], kind))

    docparts, viol = rows("docpart", _DOCPART_COLS), rows("violation", _VIOL_COLS)
    if dp_path and docparts.num_rows:
        pq.write_table(docparts, dp_path)
    return (
        rows("partial", _PARTIAL_COLS),
        _tag_prior(docparts, 0),
        viol,
        _write_violations(viol, viol_path),
    )


_split_tagged = ray.remote(num_returns=4)(_split)


def _read_prior(path: str) -> pa.Table:
    t = pq.read_table(path, columns=_DOCPART_COLS).replace_schema_metadata(None)
    return _tag_prior(t, 1)


_read_prior_docparts = ray.remote(_read_prior)


def _stage_b_tail(counts, fetch_viol, viol_dir):
    """Both Stage B paths' last step -> (violation rows, per-partition
    violation counts).  The rows are fetched (``fetch_viol()``) only
    when the counts total at most ``_MAX_DRIVER_VIOLATIONS``; the
    violations dir (None without ``out_dir``) always gets a file, if an
    empty one, for the validated-rows sink."""
    counts = pa.concat_tables(counts)  # never empty: >= 1 duplicate bucket
    n_viol = pc.sum(counts["count_all"]).as_py() or 0
    if viol_dir and not n_viol:
        pq.write_table(VIOLATION_SCHEMA.empty_table(), _part(viol_dir, "empty"))
    vcounts = counts.to_pandas().groupby("partition_id")["count_all"].sum()
    if n_viol > _MAX_DRIVER_VIOLATIONS:
        if not viol_dir:
            warnings.warn(
                f"violation rows exceed the driver cap "
                f"({_MAX_DRIVER_VIOLATIONS}) and no out_dir was given: "
                "individual rows are dropped; only per-partition counts "
                "survive. Pass out_dir to persist the rows.",
                RuntimeWarning,
            )
        return _empty_df(_VIOL_COLS), vcounts
    tables = [
        t.select(_VIOL_COLS).cast(VIOLATION_SCHEMA)
        for t in fetch_viol()
        if t.num_rows
    ]
    viol_df = pa.concat_tables(tables).to_pandas() if tables else _empty_df(_VIOL_COLS)
    return viol_df, vcounts


def _post_scan_local(tagged, cfg, out_dir, resume):
    """:func:`_post_scan_distributed`'s split and duplicate reducer, run
    once in the driver: the tagged blocks are collected in one parallel
    fetch and reduced as one block and one uniqueness bucket."""
    prior_files, dp_dir, viol_dir = _stage_b_dirs(out_dir, cfg.run_id, resume)
    tables = [t for t in ray.get(tagged.to_arrow_refs()) if t.num_rows]
    partials, docparts, viol, counts = _split(
        pa.concat_tables(tables) if tables else UNION_SCHEMA.empty_table(),
        _part(dp_dir, "00000"),
        _part(viol_dir, "00000"),
    )
    # the stats merge is the driver's peak: run it first, with the fetched
    # stream and the Arrow partials already freed
    del tables
    partials = partials.to_pandas()
    stats_df = merge_partials_df(partials) if len(partials) else _empty_df(_PARTIAL_COLS)
    dups = bulk_emit_violations(
        pa.concat_tables([docparts] + [_read_prior(f) for f in prior_files])
    )
    counts = [counts, _write_violations(dups, _part(viol_dir, "dup-00000"))]
    viol_df, vcounts = _stage_b_tail(counts, lambda: [viol, dups], viol_dir)
    return viol_df, stats_df, vcounts


def _post_scan_distributed(tagged, cfg, out_dir, resume):
    """:func:`_post_scan_local`'s reductions as one wave of Ray tasks over
    the tagged blocks, starting no Ray Data execution: one split task per
    block and one read task per committed prior docparts file, then the
    stats merge and the uniqueness exchange on their refs.  Tasks write
    every violation block; the driver fetches the rows only under the
    driver cap (:func:`_stage_b_tail`)."""
    prior_files, dp_dir, viol_dir = _stage_b_dirs(out_dir, cfg.run_id, resume)
    split = [
        _split_tagged.remote(ref, *(_part(d, f"{i:05d}") for d in (dp_dir, viol_dir)))
        for i, ref in enumerate(tagged.to_arrow_refs())
    ]
    partials, docparts, viol, counts = ([s[k] for s in split] for k in range(4))
    docparts += [_read_prior_docparts.remote(f) for f in prior_files]

    # materialize() on a Dataset of refs runs no execution; to_arrow_refs()
    # alone would run one
    dups = duplicates_from_docparts(rd.from_arrow_refs(docparts))
    dups = dups.materialize().to_arrow_refs()
    viol += dups
    counts += [
        _write_bucket_violations.remote(t, _part(viol_dir, f"dup-{b:05d}"))
        for b, t in enumerate(dups)
    ]
    merged = hash_aggregate(
        rd.from_arrow_refs(partials), ["partition_id"], merge_partials_df
    )
    merged = [t for t in ray.get(merged.materialize().to_arrow_refs()) if len(t)]
    stats_df = (
        pa.concat_tables(merged, promote_options="permissive").to_pandas()
        if merged
        else _empty_df(_PARTIAL_COLS)
    )
    viol_df, vcounts = _stage_b_tail(ray.get(counts), lambda: ray.get(viol), viol_dir)
    return viol_df, stats_df, vcounts


def run_validation(
    ds,
    cfg: ValidationConfig,
    *,
    out_dir: Optional[str] = None,
    resume: bool = True,
    frozen_model=None,
) -> ValidationResult:
    """Run the full validation pipeline over a sequence Dataset.

    ``ds`` must carry (doc_id, tokens, n_tok, source, partition_id).
    When ``out_dir`` is given, violation rows, per-partition reports, the
    uniqueness checkpoint and a manifest snapshot are written; a rerun
    with ``resume=True`` skips partitions already in the manifest while
    still detecting duplicates that span completed and new partitions.
    """
    if out_dir:
        from pynomaly_ray.state.manifest import committed_run_ids

        if cfg.run_id in committed_run_ids(out_dir):
            raise ValueError(
                f"run_id {cfg.run_id!r} already has a committed manifest "
                f"snapshot in {out_dir!r}; reusing it would overwrite "
                "checkpointed state (docparts, violations, manifest). "
                "Pick a fresh run_id for every run against an out_dir."
            )

    # ---- Pre-flight: fail fast on a mistyped input table ----
    # (the schema comes from the Parquet footers of a
    # sequence_dataset_from_dir read or from in-memory blocks; behind a
    # map stage it is unknown without executing, and SequenceValidator
    # then refuses the first mistyped block inside Stage A)
    try:
        rs = ds.schema(fetch_if_missing=False)
    except Exception:
        rs = None
    if rs is not None:
        require_sequence_schema(pa.schema(zip(rs.names, rs.types)))

    skipped = 0
    done: frozenset = frozenset()
    if out_dir and resume:
        done = completed_partitions(out_dir)
        skipped = len(done)
        ds = _filter_completed(ds, done)

    # ---- Stage A: ONE scan -> tagged violations + partials + docparts ----
    # No batch_size on this map: Ray fuses it into the read, so each read
    # task decodes its files and validates them in place, and only the small
    # tagged stream reaches the object store.  The validator cuts each
    # block into kernel calls of cfg.batch_size rows.
    validator = SequenceValidator(
        valid_sources=cfg.valid_sources,
        vocab_size=cfg.vocab_size,
        salt_buckets=cfg.salt_buckets,
        batch_size=cfg.batch_size,
    )
    tagged = ds.map_batches(validator, batch_format="pyarrow")
    # A block the validator refuses (a mistyped input) fails the run with
    # its ValueError, not Ray's UserCodeException wrapper.  The context is
    # the caller's dataset's too, so the flag is put back afterwards.
    ctx = tagged.context
    wrapped = ctx.raise_original_map_exception
    ctx.raise_original_map_exception = True
    try:
        tagged = tagged.materialize()
    finally:
        ctx.raise_original_map_exception = wrapped

    # ---- Stage B: size-adaptive reduction of the tagged stream ----
    if (tagged.size_bytes() or 0) <= cfg.driver_collect_bytes:
        post_scan = _post_scan_local
    else:
        post_scan = _post_scan_distributed
    viol_df, stats_df, vcounts = post_scan(tagged, cfg, out_dir, resume)

    viol_df = viol_df.sort_values(
        ["partition_id", "doc_id", "check"], kind="mergesort"
    ).reset_index(drop=True)
    stats_df = stats_df.sort_values(
        "partition_id", kind="mergesort"
    ).reset_index(drop=True)

    # Partitions whose rows ALL failed validation have no stat row but
    # must still appear in the report/manifest as failures — otherwise
    # they vanish (never committed, rescanned on every resume).
    extra_parts = sorted(
        set(vcounts.index) - set(stats_df["partition_id"]) - set(done)
    )
    report = _invalid_only_report(extra_parts, vcounts, cfg.run_id)
    n_sequences = 0
    if len(stats_df):
        # ---- Stage C: exact LoOP drift over the stat table ----
        fitted = _fitted_report(stats_df, vcounts, cfg, out_dir, frozen_model)
        report = pa.concat_tables([fitted, report])
        n_sequences = int(stats_df["n_rows"].sum())

    # ---- Stage D: report + manifest ----
    violations_out = pa.Table.from_pandas(
        viol_df, schema=VIOLATION_SCHEMA, preserve_index=False
    )
    if out_dir:
        if report.num_rows:
            os.makedirs(os.path.join(out_dir, "partitions"), exist_ok=True)
            atomic_write(
                os.path.join(out_dir, "partitions", f"{cfg.run_id}.parquet"),
                lambda f: pq.write_table(report, f),
            )
        # Committed even with no partitions: its docparts checkpoint was
        # already written, and an uncommitted run's docparts are (rightly)
        # distrusted by _prior_docpart_dirs — without this snapshot,
        # duplicates spanning this run and a later one would be missed.
        # The returned report covers ALL partitions ever completed for
        # this out_dir (this run's + resumed-over ones) for the
        # identical-manifest guarantee.
        report = _commit_run(out_dir, report, vcounts, done, cfg.run_id)
    return ValidationResult(
        report, violations_out, out_dir, n_sequences, skipped,
        violations_dir=(
            os.path.join(out_dir, "violations", cfg.run_id) if out_dir else None
        ),
    )


def _fitted_report(
    stats_df: pd.DataFrame, vcounts: pd.Series, cfg, out_dir, frozen_model
) -> pa.Table:
    """Report rows of the partitions with valid rows: LoOP scores from a
    fresh fit (its frozen model saved under ``out_dir``) or against
    ``frozen_model``, and pass/fail from score and violation count."""
    vectors = finalize_stat_vectors(stats_df)
    stats_df["stat_vector"] = list(vectors)
    if frozen_model is not None:
        # Incremental mode (the reference's stream(), loop.py:993-1046,
        # at engine scale): score new partitions against a frozen fit —
        # no refit, fitted stats stay untouched (README.md:485-489).
        from pynomaly_ray.state.drift import StreamDriftScorer, load_frozen_model

        if isinstance(frozen_model, str):
            frozen_model = load_frozen_model(frozen_model)
        scored = StreamDriftScorer(frozen_model)(
            stats_df[["partition_id", "stat_vector"]].copy()
        )
        scores = scored["loop_score"].to_numpy()
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            scores, frozen = fit_drift_scores(
                stats_df,
                n_neighbors=cfg.n_neighbors,
                extent=cfg.extent,
                cluster_by_source=cfg.cluster_by_source,
            )
        if out_dir:
            from pynomaly_ray.state.drift import save_frozen_model

            save_frozen_model(
                frozen, os.path.join(out_dir, "model", f"{cfg.run_id}.npz")
            )
    n_violations = (
        stats_df["partition_id"].map(vcounts).fillna(0).to_numpy(np.int64)
    )
    status = np.where(
        (scores > cfg.drift_threshold) | (n_violations > 0), "fail", "pass"
    )
    n, width = vectors.shape
    n_rows = pa.array(stats_df["n_rows"], pa.int64())
    lineage = pa.StructArray.from_arrays(
        [
            n_rows,
            pa.array([digest_floats(v) for v in vectors], pa.string()),
            pa.repeat(pa.scalar(cfg.run_id, pa.string()), n),
        ],
        fields=list(PARTITION_REPORT_SCHEMA.field("lineage").type),
    )
    return pa.table(
        {
            "partition_id": pa.array(stats_df["partition_id"], pa.string()),
            "source": pa.array(stats_df["source"], pa.string()),
            "n_rows": n_rows,
            "n_violations": pa.array(n_violations, pa.int64()),
            "stat_vector": pa.ListArray.from_arrays(
                pa.array(np.arange(0, n * width + 1, width, dtype=np.int32)),
                pa.array(vectors.ravel()),
            ),
            "loop_score": pa.array(scores, pa.float64()),
            "status": pa.array(status, pa.string()),
            "lineage": lineage,
        },
        schema=PARTITION_REPORT_SCHEMA,
    )


def _invalid_only_report(
    parts: list, vcounts: pd.Series, run_id: str
) -> pa.Table:
    """Report rows for partitions whose every row failed validation:
    0 valid rows, no stat vector, no drift score — status 'fail'."""
    if not parts:
        return PARTITION_REPORT_SCHEMA.empty_table()
    n = len(parts)
    return pa.table(
        {
            "partition_id": pa.array(parts, pa.string()),
            "source": pa.array([None] * n, pa.string()),
            "n_rows": pa.array([0] * n, pa.int64()),
            "n_violations": pa.array(
                [int(vcounts[p]) for p in parts], pa.int64()
            ),
            "stat_vector": pa.array([[]] * n, pa.list_(pa.float64())),
            "loop_score": pa.array([0.0] * n, pa.float64()),
            "status": pa.array(["fail"] * n, pa.string()),
            "lineage": pa.array(
                [
                    {"n_rows": 0, "stats_digest": "", "run_id": run_id}
                    for _ in parts
                ],
                PARTITION_REPORT_SCHEMA.field("lineage").type,
            ),
        },
        schema=PARTITION_REPORT_SCHEMA,
    )


def _commit_run(
    out_dir: str, report: pa.Table, vcounts: pd.Series, done, run_id: str
) -> pa.Table:
    """Commit the run with ONE manifest snapshot; returns the merged
    manifest.  New violations attributed to already-completed partitions
    (e.g. a duplicate whose tolerated first occurrence only appeared in
    this run) amend those partitions' rows in the same snapshot: bump
    n_violations, set status=fail.  Being newest, the snapshot wins
    read_full_manifest's last-wins merge, and a crash can never commit
    the run without its amendments."""
    counts = vcounts[vcounts.index.isin(done)] if done else vcounts[:0]
    if len(counts):
        mdf = read_full_manifest(out_dir).to_pandas()
        mask = mdf["partition_id"].isin(counts.index)
        add = mdf.loc[mask, "partition_id"].map(counts).astype(np.int64)
        mdf.loc[mask, "n_violations"] = mdf.loc[mask, "n_violations"] + add
        mdf.loc[mask, "status"] = "fail"
        amended = pa.Table.from_pandas(mdf[mask], preserve_index=False)
        own = report.select(amended.column_names)
        report = pa.concat_tables([own, amended.cast(own.schema)])
    write_manifest_snapshot(out_dir, report, run_id)
    return read_full_manifest(out_dir)


def _committed_violation_files(out_dir: str, run_id: str) -> list[str]:
    """The part files of ``violations/<run>/`` for every run committed
    under ``out_dir`` other than ``run_id``.  Every committed run wrote
    that dir, if only an empty file in it: a missing one raises
    ``ValueError`` instead of letting that run's violating ids through."""
    from pynomaly_ray.state.manifest import committed_run_ids

    files = []
    for run in sorted(committed_run_ids(out_dir) - {run_id}):
        d = os.path.join(out_dir, "violations", run)
        if not os.path.isdir(d):
            raise ValueError(
                f"committed run {run!r} has no violations directory {d!r}: "
                "the sink cannot tell which of its rows violated"
            )
        files += parquet_files(d)
    return files


def write_validated_output(
    ds, viol_source, out_dir: str, run_id: str = "r0"
) -> str:
    """Write the validated (violation-free) sequence rows as partitioned
    Parquet — the engine's data sink, preserving per-row token arrays
    exactly (a pure filter; BASELINE.json's token-array-equality
    invariant).

    ``viol_source``: the parquet directory of the run's violation rows,
    ``ValidationResult.violations_dir``.  Only its id column is read,
    and the rows themselves never reach the driver.
    The violations of every other run committed under ``out_dir`` join
    the same id source: a resumed run skips the partitions an earlier
    run validated, but the sink writes them again from ``ds``.

    Layout: ``out_dir/validated/<run_id>/partition_id=<pid>/*.parquet``,
    built under a hidden sibling and published with
    :func:`~pynomaly_ray.state.commit.publish_dir`: a crashed attempt
    never leaves a partial dataset at that path, and a retry replaces
    the run's output whole.  Requires a second scan of the input:
    validation-only runs scan once, check+write runs scan twice.

    Rows of violating ids are dropped by
    :func:`~pynomaly_ray.functions.exchange.anti_membership`, which is
    size-adaptive like Stage B: a broadcast ``is_in`` filter below its
    cap of distinct ids, a hash-partitioned anti-join above it (a
    garbage input where most rows violate).  Both paths are
    row-identical (asserted by test).

    Conservative exclusion note: null doc_ids surface in violation rows
    as the sentinel string ``"<null>"``, so a document literally named
    ``"<null>"`` is excluded whenever any null-id violation exists —
    over-exclusion is the safe direction for a training-data sink.
    """

    def drop_null_rows(t: pa.Table) -> pa.Table:
        # null doc_id rows can't be matched by id; null tokens are not
        # valid output
        ok = pc.and_(pc.is_valid(t["doc_id"]), pc.is_valid(t["tokens"]))
        return t.filter(ok)

    clean = ds.map_batches(
        drop_null_rows, batch_format="pyarrow", zero_copy_batch=True
    )

    bad_ds = read_parquet_clean(
        parquet_files(viol_source) + _committed_violation_files(out_dir, run_id),
        columns=["doc_id"],
    )
    valid = anti_membership(clean, bad_ds, "doc_id")

    return publish_dir(
        os.path.join(out_dir, "validated", run_id),
        lambda tmp: valid.write_parquet(tmp, partition_cols=["partition_id"]),
    )


def sequence_dataset_from_dir(path: str):
    """Read a partitioned sequence-table directory written by datagen.

    Planned from the Parquet footers (``SequenceParquetDatasource``), one
    read task per run of consecutive files balanced by bytes: a
    ``map_batches`` without ``batch_size`` runs inside the read task, as
    Stage A does.  The task count is Ray's own read rule without its
    200-block floor: twice the cluster's CPUs, raised to keep blocks under
    ``DataContext.target_max_block_size``, and at most one task per file.
    """
    files = parquet_files(path)
    if not files:
        raise ValueError(f"no *.parquet files in {path!r}")
    source = SequenceParquetDatasource(files)
    if not ray.is_initialized():
        # the read below would start Ray with these defaults anyway; start
        # it first so the plan counts the CPUs of the cluster that runs it
        ray.init()
    cpus = int(ray.cluster_resources().get("CPU", 1))
    block_bytes = rd.DataContext.get_current().target_max_block_size  # None: no cap
    by_bytes = (
        math.ceil(source.estimate_inmemory_data_size() / block_bytes)
        if block_bytes
        else 1
    )
    return rd.read_datasource(
        source, override_num_blocks=min(len(files), max(2 * cpus, by_bytes))
    )
