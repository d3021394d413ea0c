"""The flagship pipeline: sequence table -> violations + partition reports.

Engine shape (SURVEY.md §3 "Engine shape of the same lifecycle"):

  Stage A  read_parquet -> map_batches(SequenceValidator)   [stateless scan]
           -> ONE pass producing a tagged stream of violation rows,
           per-partition partial stats, and uniqueness pre-aggregates
  Stage B  (a) doc_id uniqueness totals; (b) per-partition stats merge
  Stage C  tiny partition-stat table -> exact LoOP fit (loop_core) with
           extent/k per config; loop_score > threshold => drift fail
  Stage D  per-partition pass/fail report + violation parquet + manifest
           (resume skips completed partitions via a broadcast anti-join)

The input is read exactly once; only the small tagged stream crosses the
scan boundary.  Stage B is **size-adaptive**: the tagged stream is
usually tiny relative to the input (sparse violations + one stat row per
partition per batch + pre-aggregated doc counts), so below
``cfg.driver_collect_bytes`` it is collected once and reduced with
vectorized pandas on the driver — zero extra Ray executions.  Above the
threshold (true 10^12-row runs, where the doc_id pre-aggregates alone
are large) the same reductions run distributed via ``hash_aggregate``
(an explicit hash-partitioned exchange, functions/exchange.py).  Both
paths produce byte-identical outputs; tests force each.
"""

from __future__ import annotations

import os
import shutil
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
    PARTIAL_STATS_SCHEMA,
    PARTITION_REPORT_SCHEMA,
    SEQUENCE_SCHEMA,
    VIOLATION_SCHEMA,
    ValidationConfig,
)
from pynomaly_ray.functions.exchange import hash_aggregate
from pynomaly_ray.functions.hashing import digest_floats
from pynomaly_ray.sources.parquet import parquet_files
from pynomaly_ray.stages.stats import finalize_stat_vector, merge_partials_df
from pynomaly_ray.stages.uniqueness import (
    duplicates_from_docparts,
    emit_duplicate_violations,
)
from pynomaly_ray.stages.validate import SequenceValidator, split_union
from pynomaly_ray.state.commit import atomic_write
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
    # When Stage B wrote violation rows distributed (volume above the
    # driver cap), the parquet directory holding ALL of them — the
    # authoritative source when ``violations`` was truncated to empty.
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


def _local_duplicates(
    docparts: pa.Table, prior: Optional[pa.Table]
) -> pd.DataFrame:
    """Driver-local uniqueness reduction (same semantics as
    stages/uniqueness.duplicates_from_docparts).

    Counting runs over the int64 ``doc_hash`` column (numpy unique — C
    speed, no string conversion of the full key space); only hash-level
    candidates (vanishingly rare) are converted to pandas and verified
    against the exact doc_id strings, which also guards against hash
    collisions."""
    n_cur = docparts.num_rows
    if prior is not None and prior.num_rows:
        union = pa.concat_tables(
            [docparts.select(_DOCPART_COLS), prior.select(_DOCPART_COLS)]
        )
    else:
        union = docparts.select(_DOCPART_COLS)
    if union.num_rows == 0:
        return _empty_df(_VIOL_COLS)
    from pynomaly_ray.stages.uniqueness import hash_candidate_mask

    cand_mask = hash_candidate_mask(
        union["doc_hash"].to_numpy(zero_copy_only=False),
        union["cnt"].to_numpy(zero_copy_only=False).astype(np.int64),
    )
    if not cand_mask.any():
        return _empty_df(_VIOL_COLS)
    dups = union.filter(pa.array(cand_mask)).to_pandas()
    is_prior = np.zeros(union.num_rows, dtype=np.int64)
    is_prior[n_cur:] = 1
    dups["is_prior"] = is_prior[cand_mask]
    totals_by_doc = dups.groupby("doc_id", sort=False)["cnt"].sum()
    real = set(totals_by_doc[totals_by_doc > 1].index)
    dups = dups[dups["doc_id"].isin(real)]
    if not len(dups):
        return _empty_df(_VIOL_COLS)
    frames = [
        emit_duplicate_violations(g) for _, g in dups.groupby("doc_id", sort=True)
    ]
    return pd.concat(frames, ignore_index=True)


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


def _post_scan_local(tagged, cfg, out_dir, resume):
    """Collect the (small) tagged stream once; reduce on the driver.

    Arrow-native end-to-end: kind filtering, docpart counting and the
    checkpoint write never convert the full stream to pandas — only the
    sparse violation rows, the per-partition partials, and duplicate
    *candidates* cross into Python objects."""
    tables = ray.get(tagged.to_arrow_refs())  # one call: parallel fetch
    tables = [t for t in tables if t.num_rows]
    if tables:
        all_t = pa.concat_tables(tables)
    else:
        from pynomaly_ray.stages.validate import UNION_SCHEMA

        all_t = UNION_SCHEMA.empty_table()

    kind = all_t["kind"]
    viol_df = (
        all_t.filter(pc.equal(kind, "violation")).select(_VIOL_COLS).to_pandas()
    )
    partials = (
        all_t.filter(pc.equal(kind, "partial")).select(_PARTIAL_COLS).to_pandas()
    )
    stats_df = (
        merge_partials_df(partials)
        if len(partials)
        else _empty_df(_PARTIAL_COLS)
    )

    docparts = all_t.filter(pc.equal(kind, "docpart")).select(_DOCPART_COLS)
    prior = None
    if out_dir:
        prior_dirs = _prior_docpart_dirs(out_dir, cfg.run_id, resume)
        dp_dir = os.path.join(out_dir, "docparts", cfg.run_id)
        os.makedirs(dp_dir, exist_ok=True)
        atomic_write(
            os.path.join(dp_dir, "docparts.parquet"),
            lambda f: pq.write_table(docparts, f),
        )
        if prior_dirs:
            frames = []
            for d in prior_dirs:
                for f in sorted(os.listdir(d)):
                    if f.endswith(".parquet"):
                        frames.append(
                            pq.read_table(
                                os.path.join(d, f), columns=_DOCPART_COLS
                            )
                        )
            if frames:
                prior = pa.concat_tables(frames)

    dup_df = _local_duplicates(docparts, prior)
    viol_df = pd.concat([viol_df, dup_df], ignore_index=True)
    return viol_df, stats_df, None, False


_MAX_DRIVER_VIOLATIONS = 2_000_000


def _post_scan_distributed(tagged, cfg, out_dir, resume):
    """Same reductions via distributed exchanges (the 10^12-row path)."""
    viol_ds = tagged.map_batches(
        split_union("violation", _VIOL_COLS), batch_format="pyarrow"
    )
    partials_ds = tagged.map_batches(
        split_union("partial", _PARTIAL_COLS), batch_format="pyarrow"
    )
    docparts_ds = tagged.map_batches(
        split_union("docpart", _DOCPART_COLS), batch_format="pyarrow"
    )

    prior_docparts = None
    if out_dir:
        prior_dirs = _prior_docpart_dirs(out_dir, cfg.run_id, resume)
        # a crashed attempt with this (uncommitted) run_id may have left
        # files behind; write_parquet APPENDS uuid-named files, so clear
        # the run's dir first or a committed retry double-counts every
        # doc occurrence in later cross-run duplicate detection
        dp_dir = os.path.join(out_dir, "docparts", cfg.run_id)
        shutil.rmtree(dp_dir, ignore_errors=True)
        docparts_ds.write_parquet(dp_dir)
        if prior_dirs:
            from pynomaly_ray.sources.parquet import read_parquet_clean

            prior_docparts = read_parquet_clean(prior_dirs)

    dup_ds = duplicates_from_docparts(docparts_ds, prior_docparts)

    merged = hash_aggregate(
        partials_ds, ["partition_id"], merge_partials_df
    )
    stats_df = merged.to_pandas()
    if "partition_id" not in stats_df.columns:  # no valid rows at all
        stats_df = _empty_df(_PARTIAL_COLS)

    # Violation volume is unbounded on garbage inputs; rows always reach
    # parquet distributedly (the caller skips its own driver-side write
    # when wrote_distributed), and only rows up to a cap — else just the
    # per-partition counts — are held on the driver.
    all_viol = viol_ds.union(dup_ds).materialize()
    wrote_distributed = False
    if out_dir:
        # mirror the docparts fix above: a crashed attempt's part files
        # survive into the retry (write_parquet appends uuid-named
        # files) and this dir is the authoritative violation source fed
        # into write_validated_output's anti-join — clear it first
        viol_dir = os.path.join(out_dir, "violations", cfg.run_id)
        shutil.rmtree(viol_dir, ignore_errors=True)
        all_viol.write_parquet(viol_dir)
        wrote_distributed = True
    vcounts = None
    if all_viol.count() <= _MAX_DRIVER_VIOLATIONS:
        viol_df = all_viol.to_pandas()
        if "partition_id" not in viol_df.columns:
            viol_df = _empty_df(_VIOL_COLS)
    else:
        if not wrote_distributed:
            import warnings

            warnings.warn(
                f"violation rows exceed the driver cap "
                f"({_MAX_DRIVER_VIOLATIONS}) and no out_dir was given: "
                "individual rows are dropped; only per-partition counts "
                "survive. Pass out_dir to persist the rows.",
                RuntimeWarning,
            )
        viol_df = _empty_df(_VIOL_COLS)

        def count_partial(t: pa.Table) -> pa.Table:
            g = t.to_pandas().groupby("partition_id", sort=False).size()
            return pa.Table.from_pandas(
                g.reset_index(name="cnt"), preserve_index=False
            ).replace_schema_metadata(None)

        counts = hash_aggregate(
            all_viol.map_batches(count_partial, batch_format="pyarrow"),
            ["partition_id"],
            lambda df: df.groupby("partition_id", sort=False).sum().reset_index(),
        ).to_pandas()
        vcounts = counts.set_index("partition_id")["cnt"]
    return viol_df, stats_df, vcounts, wrote_distributed


def run_validation(
    ds,
    cfg: ValidationConfig,
    *,
    out_dir: Optional[str] = None,
    resume: bool = True,
    collect_violations: bool = True,
    force_distributed: bool = False,
    frozen_model=None,
) -> ValidationResult:
    """Run the full validation pipeline over a sequence Dataset.

    ``ds`` must carry (doc_id, tokens, n_tok, source, partition_id).
    When ``out_dir`` is given, violation rows, per-partition reports, the
    uniqueness checkpoint and a manifest snapshot are written; a rerun
    with ``resume=True`` skips partitions already in the manifest while
    still detecting duplicates that span completed and new partitions.
    """
    import sys as _sys
    import time as _time

    _phases: list[tuple[str, float]] = []
    _t = _time.perf_counter()

    def _mark(name: str) -> None:
        nonlocal _t
        now = _time.perf_counter()
        _phases.append((name, now - _t))
        _t = now

    if out_dir:
        from pynomaly_ray.state.manifest import committed_run_ids

        if cfg.run_id in committed_run_ids(out_dir):
            raise ValueError(
                f"run_id {cfg.run_id!r} already has a committed manifest "
                f"snapshot in {out_dir!r}; reusing it would overwrite "
                "checkpointed state (docparts, violations, manifest). "
                "Pick a fresh run_id for every run against an out_dir."
            )

    skipped = 0
    done: frozenset = frozenset()
    if out_dir and resume:
        done = completed_partitions(out_dir)
        skipped = len(done)
        ds = _filter_completed(ds, done)

    # ---- Pre-flight: fail fast on a mistyped input table ----
    # (schema comes from parquet metadata; when unavailable without
    # executing — e.g. an in-memory transform chain — the row-level
    # checks still catch everything, just later)
    try:
        rs = ds.schema(fetch_if_missing=False)
        actual_schema = (
            pa.schema(zip(rs.names, rs.types)) if rs is not None else None
        )
    except Exception:
        actual_schema = None
    if actual_schema is not None:
        from pynomaly_ray.stages.constraints import schema_conformance_violations

        problems = schema_conformance_violations(actual_schema, SEQUENCE_SCHEMA)
        if problems:
            raise ValueError(
                "input table does not conform to the sequence schema: "
                + "; ".join(problems)
            )

    # ---- Stage A: ONE scan -> tagged violations + partials + docparts ----
    # The validator's state (source set, vocab bound) is cheap, so this
    # runs as stateless tasks: parallelism tracks CPUs instantly with no
    # actor-pool ramp-up.  A stage with EXPENSIVE state (model, index)
    # should instead pass the class + fn_constructor_kwargs (actor pool),
    # as Tokenizer / StreamDriftScorer / ImageFeatures do.
    validator = SequenceValidator(
        valid_sources=cfg.valid_sources,
        vocab_size=cfg.vocab_size,
        salt_buckets=cfg.salt_buckets,
    )
    tagged = ds.map_batches(
        validator,
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    ).materialize()
    _mark("stage_a")
    if os.environ.get("PNR_STATS"):  # Ray Data per-operator stats dump
        print(tagged.stats(), file=_sys.stderr)

    # ---- Stage B: size-adaptive reduction of the tagged stream ----
    small = (tagged.size_bytes() or 0) <= cfg.driver_collect_bytes
    if small and not force_distributed:
        viol_df, stats_df, dist_vcounts, wrote_viol = _post_scan_local(
            tagged, cfg, out_dir, resume
        )
    else:
        viol_df, stats_df, dist_vcounts, wrote_viol = _post_scan_distributed(
            tagged, cfg, out_dir, resume
        )
    _mark("stage_b")

    viol_df = viol_df.sort_values(
        ["partition_id", "doc_id", "check"], kind="mergesort"
    ).reset_index(drop=True)
    stats_df = stats_df.sort_values(
        "partition_id", kind="mergesort"
    ).reset_index(drop=True)

    violations_dir = (
        os.path.join(out_dir, "violations", cfg.run_id)
        if (out_dir and wrote_viol)
        else None
    )
    if out_dir and not wrote_viol:
        os.makedirs(os.path.join(out_dir, "violations"), exist_ok=True)
        vt = pa.Table.from_pandas(
            viol_df, schema=VIOLATION_SCHEMA, preserve_index=False
        )
        atomic_write(
            os.path.join(out_dir, "violations", f"{cfg.run_id}.parquet"),
            lambda f: pq.write_table(vt, f),
        )

    if dist_vcounts is not None:
        vcounts = dist_vcounts
    elif len(viol_df):
        vcounts = viol_df.groupby("partition_id").size()
    else:
        vcounts = pd.Series(dtype=np.int64)

    # Partitions whose rows ALL failed validation have no stat row but
    # must still appear in the report/manifest as failures — otherwise
    # they vanish (never committed, rescanned on every resume).
    extra_parts = sorted(
        set(vcounts.index) - set(stats_df["partition_id"]) - set(done)
    )
    extra_report = _invalid_only_report(extra_parts, vcounts, cfg.run_id)

    # ---- Stage C: exact LoOP drift over the stat table ----
    if len(stats_df) == 0 and not extra_parts:
        report = PARTITION_REPORT_SCHEMA.empty_table()
        if out_dir:
            # Commit this run even though it produced no partitions:
            # its docparts checkpoint was already written, and an
            # uncommitted run's docparts are (rightly) distrusted by
            # _prior_docpart_dirs — without this snapshot, duplicates
            # spanning this run and a later one would be missed.
            # duplicates can still be attributed to completed partitions
            # (e.g. a tolerated first occurrence arriving in this run)
            final = _commit_run(out_dir, report, vcounts, done, cfg.run_id)
            report = final if final is not None else report
        return ValidationResult(
            report,
            pa.Table.from_pandas(
                viol_df, schema=VIOLATION_SCHEMA, preserve_index=False
            )
            if collect_violations
            else VIOLATION_SCHEMA.empty_table(),
            out_dir,
            0,
            skipped,
            violations_dir=violations_dir,
        )

    if len(stats_df) == 0:
        # only invalid-row partitions this run: no LoOP fit to run
        report = extra_report
        n_sequences = 0
        _mark("stage_c")
        _mark("stage_d")
        violations_out = (
            pa.Table.from_pandas(
                viol_df, schema=VIOLATION_SCHEMA, preserve_index=False
            )
            if collect_violations
            else VIOLATION_SCHEMA.empty_table()
        )
        if out_dir:
            os.makedirs(os.path.join(out_dir, "partitions"), exist_ok=True)
            atomic_write(
                os.path.join(out_dir, "partitions", f"{cfg.run_id}.parquet"),
                lambda f: pq.write_table(report, f),
            )
            final = _commit_run(out_dir, report, vcounts, done, cfg.run_id)
            return ValidationResult(
                final, violations_out, out_dir, n_sequences, skipped,
                violations_dir=violations_dir,
            )
        return ValidationResult(
            report, violations_out, out_dir, n_sequences, skipped
        )

    stats_df["stat_vector"] = stats_df.apply(finalize_stat_vector, axis=1)
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
        scores, frozen = scored["loop_score"].to_numpy(), frozen_model
    else:
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", UserWarning)
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
    _mark("stage_c")
    stats_df["loop_score"] = scores
    stats_df["n_violations"] = (
        stats_df["partition_id"].map(vcounts).fillna(0).astype(np.int64)
    )
    stats_df["status"] = np.where(
        (stats_df["loop_score"] > cfg.drift_threshold)
        | (stats_df["n_violations"] > 0),
        "fail",
        "pass",
    )

    # ---- Stage D: report + manifest ----
    lineage = [
        {
            "n_rows": int(r.n_rows),
            "stats_digest": digest_floats(r.stat_vector),
            "run_id": cfg.run_id,
        }
        for r in stats_df.itertuples()
    ]
    report = pa.table(
        {
            "partition_id": pa.array(stats_df["partition_id"], pa.string()),
            "source": pa.array(stats_df["source"], pa.string()),
            "n_rows": pa.array(stats_df["n_rows"], pa.int64()),
            "n_violations": pa.array(stats_df["n_violations"], pa.int64()),
            "stat_vector": pa.array(
                [list(v) for v in stats_df["stat_vector"]],
                pa.list_(pa.float64()),
            ),
            "loop_score": pa.array(stats_df["loop_score"], pa.float64()),
            "status": pa.array(stats_df["status"], pa.string()),
            "lineage": pa.array(
                lineage, PARTITION_REPORT_SCHEMA.field("lineage").type
            ),
        },
        schema=PARTITION_REPORT_SCHEMA,
    )
    if extra_report.num_rows:
        report = pa.concat_tables([report, extra_report])

    n_sequences = int(stats_df["n_rows"].sum())
    _mark("stage_d")
    if os.environ.get("PNR_PHASES"):
        print(
            "phases " + " ".join(f"{n}={d:.2f}" for n, d in _phases),
            file=_sys.stderr,
        )
    violations_out = (
        pa.Table.from_pandas(
            viol_df, schema=VIOLATION_SCHEMA, preserve_index=False
        )
        if collect_violations
        else VIOLATION_SCHEMA.empty_table()
    )
    if out_dir:
        os.makedirs(os.path.join(out_dir, "partitions"), exist_ok=True)
        atomic_write(
            os.path.join(out_dir, "partitions", f"{cfg.run_id}.parquet"),
            lambda f: pq.write_table(report, f),
        )
        final = _commit_run(out_dir, report, vcounts, done, cfg.run_id)
        # The returned report covers ALL partitions ever completed for
        # this out_dir (this run's + resumed-over ones) for the
        # identical-manifest guarantee.
        return ValidationResult(
            final, violations_out, out_dir, n_sequences, skipped,
            violations_dir=violations_dir,
        )

    return ValidationResult(report, violations_out, out_dir, n_sequences, skipped)


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
) -> Optional[pa.Table]:
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


# broadcast-vs-anti-join switch point: ~10^6 string ids is ~50 MB
# re-serialized into EVERY filter task; beyond it the partitioned
# anti-join (1/P of the set per task) wins
_BAD_IDS_BROADCAST_CAP = 1_000_000


def _committed_violation_files(out_dir: str, run_id: str) -> list[str]:
    """Violation files of the runs committed under ``out_dir`` other
    than ``run_id``: ``<run>.parquet`` (driver path) or the part files
    of ``<run>/`` (distributed path)."""
    from pynomaly_ray.state.manifest import committed_run_ids

    root = os.path.join(out_dir, "violations")
    files = []
    for run in sorted(committed_run_ids(out_dir) - {run_id}):
        if os.path.isfile(single := os.path.join(root, f"{run}.parquet")):
            files.append(single)
        elif os.path.isdir(os.path.join(root, run)):
            files += parquet_files(os.path.join(root, run))
    return files


def write_validated_output(
    ds, viol_source, out_dir: str, run_id: str = "r0"
) -> str:
    """Write the validated (violation-free) sequence rows as partitioned
    Parquet — the engine's data sink, preserving per-row token arrays
    exactly (a pure filter; BASELINE.json's token-array-equality
    invariant).

    ``viol_source``: the violation rows as a pandas DataFrame (driver
    path) OR a parquet directory path — the distributed path for runs
    whose violation volume exceeded the driver cap (use
    ``ValidationResult.violations_dir``; the rows never reach the
    driver, only their id column flows through the anti-join exchange).
    The violations of every other run committed under ``out_dir`` join
    the same id source: a resumed run skips the partitions an earlier
    run validated, but the sink writes them again from ``ds``.

    Layout: ``out_dir/validated/<run_id>/partition_id=<pid>/*.parquet``.
    Idempotent per run: the run's dest dir is cleared before writing, so
    a crashed attempt's partial files never mix with the retry's
    (parquet writes append uuid-named files, they don't overwrite).
    Requires a second scan of the input: validation-only runs scan once,
    check+write runs scan twice.

    Size-adaptive like Stage B: below ``_BAD_IDS_BROADCAST_CAP``
    violating ids, the id set is broadcast into every filter task
    (cheapest); above it — a garbage input where most rows violate —
    the broadcast itself becomes the bottleneck and the filter switches
    to a hash-partitioned anti-join (each task sees 1/P of the id set,
    token arrays stay zero-copy Arrow).  Both paths are byte-identical
    (asserted by test).

    Conservative exclusion note: null doc_ids surface in violation rows
    as the sentinel string ``"<null>"``, so a document literally named
    ``"<null>"`` is excluded whenever any null-id violation exists —
    over-exclusion is the safe direction for a training-data sink.
    """

    def drop_null_rows(t: pa.Table) -> pa.Table:
        # null doc_id rows can't be matched by id; null tokens are not
        # valid output — both dropped in either path
        ok = pc.and_(pc.is_valid(t["doc_id"]), pc.is_valid(t["tokens"]))
        return t.filter(ok)

    clean = ds.map_batches(
        drop_null_rows, batch_format="pyarrow", zero_copy_batch=True
    )

    from pynomaly_ray.functions.exchange import hash_anti_join

    prior = _committed_violation_files(out_dir, run_id)
    if isinstance(viol_source, str):
        # distributed violations: their ids flow straight into the
        # anti-join exchange, never onto the driver
        from pynomaly_ray.sources.parquet import read_parquet_clean

        bad_ds = read_parquet_clean(
            parquet_files(viol_source) + prior, columns=["doc_id"]
        )
        valid = hash_anti_join(clean, bad_ds, "doc_id")
    else:
        viol_df = viol_source
        bad = set(viol_df["doc_id"].dropna()) if len(viol_df) else set()
        for f in prior:
            ids = pq.read_table(f, columns=["doc_id"])["doc_id"]
            bad.update(ids.drop_null().to_pylist())
        bad_id_list = sorted(bad)
        if len(bad_id_list) <= _BAD_IDS_BROADCAST_CAP:
            bad_ids = pa.array(bad_id_list, pa.string())

            def keep_valid(t: pa.Table) -> pa.Table:
                ok = pc.invert(
                    pc.fill_null(pc.is_in(t["doc_id"], value_set=bad_ids), True)
                )
                return t.filter(ok)

            valid = clean.map_batches(keep_valid, batch_format="pyarrow")
        else:
            bad_ds = rd.from_arrow(
                pa.table({"doc_id": pa.array(bad_id_list, pa.string())})
            )
            valid = hash_anti_join(clean, bad_ds, "doc_id")

    dest = os.path.join(out_dir, "validated", run_id)
    shutil.rmtree(dest, ignore_errors=True)  # idempotent retry
    valid.write_parquet(dest, partition_cols=["partition_id"])
    return dest


def sequence_dataset_from_dir(path: str, rows_per_block: int = 32768):
    """Read a partitioned sequence-table directory written by datagen.

    At least one read task per file (parquet decode parallelizes across
    files, never within a task), and more for very large files; capped
    so tiny inputs don't shatter into scheduling confetti.
    """
    from pynomaly_ray.sources.parquet import read_parquet_clean

    files = parquet_files(path)
    total = sum(pq.read_metadata(f).num_rows for f in files)
    blocks = max(len(files), min(1024, total // rows_per_block + 1))
    return read_parquet_clean(files, override_num_blocks=blocks)
