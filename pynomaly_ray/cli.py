"""CLI entry point — the `ray job submit` surface of the engine.

    ray job submit -- python -m pynomaly_ray.cli validate \
        --input /data/sequences --out /data/validated \
        --sources web,books,code,wiki --n-neighbors 10 --extent 3

    python -m pynomaly_ray.cli gen --out /tmp/seq --parts 16 --rows 256

Owns the Ray session (guarded init), unlike the library code, which
never configures one (driver contract): ``sequence_dataset_from_dir``
only starts Ray's default session, the one its read would start, when
none exists.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys


def _ensure_ray(num_cpus=None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_validate(args) -> int:
    if args.write_validated and not args.out:
        err = "--write-validated needs --out (rows go to <out>/validated/)"
        print(json.dumps({"error": err}))
        return 2
    ray = _ensure_ray(args.num_cpus)
    from pynomaly_ray.config import ValidationConfig
    from pynomaly_ray.pipelines.validation import (
        run_validation,
        sequence_dataset_from_dir,
    )

    cfg = ValidationConfig(
        valid_sources=args.sources.split(",") if args.sources else None,
        n_neighbors=args.n_neighbors,
        extent=args.extent,
        drift_threshold=args.drift_threshold,
        cluster_by_source=args.cluster_by_source,
        run_id=args.run_id,
    )
    res = run_validation(
        sequence_dataset_from_dir(args.input),
        cfg,
        out_dir=args.out,
        resume=not args.no_resume,
        frozen_model=args.model,
    )
    if args.write_validated:
        from pynomaly_ray.pipelines.validation import write_validated_output

        write_validated_output(
            sequence_dataset_from_dir(args.input),
            res.violations_dir,
            args.out,
            cfg.run_id,
        )
    rep = res.report.to_pandas()
    summary = {
        "partitions": int(len(rep)),
        "passed": int((rep["status"] == "pass").sum()),
        "failed": int((rep["status"] == "fail").sum()),
        "violations": int(rep["n_violations"].sum()),
        "sequences": res.n_sequences,
        "skipped_partitions": res.skipped_partitions,
        "out_dir": res.out_dir,
    }
    print(json.dumps(summary))
    ray.shutdown()
    return 1 if summary["failed"] else 0


def cmd_gen(args) -> int:
    from pynomaly_ray.sources.datagen import GenSpec, generate_dataset_dir

    spec = GenSpec(
        parts_per_source=args.parts,
        rows_per_part=args.rows,
        seed=args.seed,
        plant_violations=not args.clean,
    )
    out = generate_dataset_dir(args.out, spec, force=args.force)
    print(json.dumps({"out": out, "partitions": len(spec.sources) * args.parts}))
    return 0


def _check_state_out_dir(state_dir: str, out: str) -> None:
    """Pin the pairs --out dir to the incremental state on first use and
    refuse a different one afterwards: keep-lists/components union every
    run's pair dir, and the band state suppresses re-emission of prior
    runs' pairs, so pairs scattered across out dirs would silently
    produce an incomplete drop list."""
    import os

    root = os.path.join(state_dir, "bands")
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, "out_dir.txt")
    out_abs = os.path.abspath(out)
    if os.path.exists(path):
        with open(path) as f:
            prior = f.read().strip()
        if prior != out_abs:
            raise SystemExit(
                f"minhash state {state_dir!r} is pinned to --out {prior!r}; "
                f"this run passed {out_abs!r}. All incremental runs must "
                "share one --out (their pair dirs union into the keep-list)."
            )
    else:
        from pynomaly_ray.state.commit import atomic_write

        atomic_write(path, lambda f: f.write((out_abs + "\n").encode()))


def cmd_dedup(args) -> int:
    """Deduplicate a documents table (exact / minhash / simhash)."""
    import os

    if getattr(args, "state_dir", None) and args.method != "minhash":
        err = f"--state-dir is for --method minhash only, not {args.method}"
        print(json.dumps({"error": err}))
        return 2
    ray = _ensure_ray(args.num_cpus)
    import pyarrow as pa
    import pyarrow.compute as pc

    from pynomaly_ray.sources.parquet import read_parquet_clean

    ds = read_parquet_clean(args.input, columns=[args.id_col, args.text_col])

    def normalize(t: pa.Table) -> pa.Table:
        # one branch for all column layouts: rename AND cast the id to
        # string (the dedup kernels emit string-typed empty frames, so a
        # non-string id would fail schema unification mid-pipeline)
        t = t.rename_columns(["doc_id", "text"])
        return t.set_column(
            0, "doc_id", pc.cast(t["doc_id"], pa.string())
        )

    ds = ds.map_batches(normalize, batch_format="pyarrow")
    os.makedirs(args.out, exist_ok=True)

    def _fresh(subdir: str) -> str:
        # write_parquet APPENDS uuid-named part files: clear the target
        # so re-running dedup with the same --out stays idempotent
        # (same class of fix as the validation docparts/violations dirs)
        path = os.path.join(args.out, subdir)
        shutil.rmtree(path, ignore_errors=True)
        return path

    if args.method == "exact":
        from pynomaly_ray.stages.dedup import exact_duplicates_by_content

        groups = exact_duplicates_by_content(ds).materialize()
        groups.write_parquet(_fresh("groups"))
        df = groups.to_pandas()
        summary = {
            "method": "exact",
            "content_groups": int(len(df)),
            "duplicate_rows": int((df["copies"] - 1).sum()),
        }
    elif args.method == "minhash":
        from pynomaly_ray.stages.dedup import (
            minhash_lsh_duplicates,
            minhash_lsh_duplicates_incremental,
        )

        # distributed sink: verified pairs are filtered in the map tasks
        # and written as partitioned parquet without ever forming a
        # driver-side DataFrame (materialize once -> write + count share
        # the same executed blocks)
        kw = dict(
            n_perm=args.n_perm,
            n_bands=args.n_bands,
            jaccard_threshold=args.threshold,
            as_dataset=True,
        )
        if getattr(args, "state_dir", None):
            from pynomaly_ray.stages.dedup import commit_run_state

            # incremental correctness requires ALL runs' pairs to land
            # under ONE --out (components/keep-lists union them): pin
            # the out dir to the state like the LSH params are pinned
            _check_state_out_dir(args.state_dir, args.out)
            pairs_ds = minhash_lsh_duplicates_incremental(
                ds, args.state_dir, args.run_id, **kw
            )
            # one pair dir per run: the union over runs is the full pair
            # set (each run emits only pairs touching its new docs).
            # Commit the band state only AFTER the durable sink write —
            # a crash in between must leave the run untrusted so a retry
            # re-emits its pairs.
            pairs_ds = pairs_ds.materialize()
            pairs_ds.write_parquet(
                _fresh(os.path.join("pairs", args.run_id))
            )
            commit_run_state(args.state_dir, args.run_id)
        else:
            # a non-incremental run pointed at an INCREMENTAL --out
            # would rmtree pairs/<run>/ dirs that the committed band
            # state will never re-emit — silent, unrecoverable loss of
            # the accumulated drop-list input.  Run-id subdirectories
            # under pairs/ are the incremental layout's signature.
            pairs_root = os.path.join(args.out, "pairs")
            run_dirs = (
                sorted(
                    d
                    for d in os.listdir(pairs_root)
                    if os.path.isdir(os.path.join(pairs_root, d))
                )
                if os.path.isdir(pairs_root)
                else []
            )
            if run_dirs and not getattr(args, "force", False):
                raise SystemExit(
                    f"--out {args.out!r} holds incremental per-run pair "
                    f"dirs {run_dirs}; a non-incremental run would delete "
                    "them while the band state still suppresses their "
                    "re-emission. Pass --state-dir to continue the "
                    "incremental series, a fresh --out, or --force to "
                    "discard the accumulated pairs."
                )
            pairs_ds = minhash_lsh_duplicates(ds, **kw).materialize()
            pairs_ds.write_parquet(_fresh("pairs"))
        summary = {"method": "minhash", "near_dup_pairs": int(pairs_ds.count())}
        if getattr(args, "state_dir", None):
            summary["state_dir"] = args.state_dir
            summary["run_id"] = args.run_id
        if getattr(args, "keep_list", False):
            # pairs -> connected components -> distributed drop-list
            # (docs that are NOT their component's representative); the
            # keep set is everything else, so the list stays
            # O(duplicates) instead of O(corpus)
            edge_ds = pairs_ds
            if getattr(args, "state_dir", None):
                # incremental: components must span ALL runs' pairs, not
                # just the new-doc pairs this run emitted (out dir is
                # pinned to the state, so every run landed here).  Only
                # pairs/<run_id>/ dirs whose run is COMMITTED in the
                # band state are trusted — flat parquet files directly
                # under pairs/ are a one-shot run's leftovers (possibly
                # different threshold/params) and mixing them in would
                # silently corrupt the drop list.
                pairs_root = os.path.join(args.out, "pairs")
                flat = [
                    f
                    for f in os.listdir(pairs_root)
                    if f.endswith(".parquet")
                    and os.path.isfile(os.path.join(pairs_root, f))
                ]
                if flat:
                    raise SystemExit(
                        f"{pairs_root!r} contains flat parquet files "
                        f"({flat[:3]}{'...' if len(flat) > 3 else ''}) "
                        "from a non-incremental run; their pair set may "
                        "use different parameters. Remove them (or use "
                        "a fresh --out) before building a keep-list."
                    )
                from pynomaly_ray.sources.parquet import parquet_files
                from pynomaly_ray.state.commit import committed

                runs = committed(os.path.join(args.state_dir, "bands"))
                pair_dirs = [os.path.join(pairs_root, d) for d in sorted(runs)]
                pair_files = parquet_files(*filter(os.path.isdir, pair_dirs))
                if pair_files:
                    edge_ds = read_parquet_clean(
                        pair_files, columns=["doc_a", "doc_b"]
                    )
            from pynomaly_ray.functions.graph import components_drop_list

            drops = components_drop_list(
                edge_ds, "doc_a", "doc_b", "doc_id", "kept_doc_id"
            ).materialize()
            drops.write_parquet(_fresh("drop"))
            summary["dropped_docs"] = int(drops.count())
    else:  # simhash
        from pynomaly_ray.stages.dedup import SimHasher

        hashed = ds.map_batches(SimHasher(), batch_format="pandas").materialize()
        hashed.write_parquet(_fresh("simhash"))
        summary = {"method": "simhash", "rows": int(hashed.count())}
    print(json.dumps(summary))
    return 0


def cmd_loop(args) -> int:
    """Distributed LoOP outlier scores over an embeddings table."""
    import os

    ray = _ensure_ray(args.num_cpus)
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.loop_distributed import distributed_loop_scores
    from pynomaly_ray.stages.similarity import HyperplaneLSH

    ds = read_parquet_clean(args.input, columns=[args.id_col, args.vec_col])
    bucketer = None
    if args.lsh_planes > 0:
        from pynomaly_ray.pipelines.engine_queries import _embedding_dim

        dim = _embedding_dim(args.input, col=args.vec_col)
        bucketer = HyperplaneLSH(
            dim=dim, n_planes=args.lsh_planes, col=args.vec_col
        )
    scored = distributed_loop_scores(
        ds,
        id_col=args.id_col,
        vec_col=args.vec_col,
        n_neighbors=args.n_neighbors,
        extent=args.extent,
        num_buckets=args.buckets,
        bucketer=bucketer,
    ).materialize()  # write + summary share one execution
    os.makedirs(args.out, exist_ok=True)
    scored.write_parquet(args.out)
    df = scored.to_pandas()
    print(
        json.dumps(
            {
                "rows": int(len(df)),
                "mean_score": float(df["loop_score"].mean()),
                "max_score": float(df["loop_score"].max()),
                "out": args.out,
            }
        )
    )
    return 0


def cmd_pack(args) -> int:
    """Concat-and-chunk sequence packing over a tokenized sequence table."""
    import os

    _ensure_ray(args.num_cpus)
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.packing import pack_offsets, pack_tokens

    os.makedirs(args.out, exist_ok=True)
    if args.offsets_only:
        # placement never needs the token payload — prune it at the read
        ds = read_parquet_clean(args.input, columns=["doc_id", "n_tok"])
        out = pack_offsets(ds, chunk=args.chunk).materialize()
        n_seq = None
    else:
        ds = read_parquet_clean(args.input, columns=["doc_id", "tokens"])
        out = pack_tokens(ds, chunk=args.chunk).materialize()
        n_seq = out.count()
    out.write_parquet(args.out)
    print(
        json.dumps(
            {
                "rows": int(out.count()),
                "chunk": args.chunk,
                "sequences": n_seq,
                "out": args.out,
            }
        )
    )
    return 0


def cmd_decontam(args) -> int:
    """Flag training docs overlapping a benchmark corpus' n-grams."""
    import os

    import pyarrow.compute as pc

    _ensure_ray(args.num_cpus)
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.decontam import (
        benchmark_shingle_hashes,
        decontaminate,
    )

    train = read_parquet_clean(args.input, columns=["doc_id", "text"])
    bench = read_parquet_clean(args.benchmark, columns=["doc_id", "text"])
    ref = benchmark_shingle_hashes(bench, k=args.k)
    counted = decontaminate(
        train, ref, k=args.k, concurrency=(1, args.concurrency)
    ).materialize()
    os.makedirs(args.out, exist_ok=True)
    counted.write_parquet(args.out)
    min_overlap = args.min_overlap
    flagged = counted.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_overlap"], min_overlap)),
        batch_format="pyarrow",
    ).count()
    print(
        json.dumps(
            {
                "rows": int(counted.count()),
                "flagged": int(flagged),
                "k": args.k,
                "min_overlap": args.min_overlap,
                "out": args.out,
            }
        )
    )
    return 0


def cmd_scrub(args) -> int:
    """PII-redact a documents table (emails / IPv4 / phones)."""
    import os

    _ensure_ray(args.num_cpus)
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.pii import pii_scrub

    docs = read_parquet_clean(args.input, columns=[args.id_col, args.text_col])
    out = pii_scrub(docs, text_col=args.text_col, id_col=args.id_col).materialize()
    os.makedirs(args.out, exist_ok=True)
    out.write_parquet(args.out)
    import pyarrow.compute as pc

    hits = out.map_batches(
        lambda t: t.filter(
            pc.greater(
                pc.add(pc.add(t["n_email"], t["n_ipv4"]), t["n_phone"]), 0
            )
        ),
        batch_format="pyarrow",
    ).count()
    print(
        json.dumps(
            {"rows": int(out.count()), "docs_with_pii": int(hits), "out": args.out}
        )
    )
    return 0


def cmd_cluster(args) -> int:
    """k-means over an embedding table; optional semantic near-dup pairs."""
    import os

    _ensure_ray(args.num_cpus)
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.clustering import (
        kmeans_assign,
        kmeans_fit,
        semantic_dedup_pairs,
    )

    ds = read_parquet_clean(args.input, columns=[args.id_col, args.vec_col])
    cents = kmeans_fit(
        ds, k=args.k, n_iter=args.iters, id_col=args.id_col, vec_col=args.vec_col
    )
    os.makedirs(args.out, exist_ok=True)
    summary = {"k": args.k, "iters": args.iters, "out": args.out}
    if args.semantic_dedup_e6 is not None:
        pairs = semantic_dedup_pairs(
            ds,
            cents,
            e6_threshold=args.semantic_dedup_e6,
            id_col=args.id_col,
            vec_col=args.vec_col,
        ).materialize()
        pairs.write_parquet(os.path.join(args.out, "pairs"))
        summary["pairs"] = int(pairs.count())
        if args.keep_list:
            import pyarrow as pa
            import pyarrow.parquet as papq

            drop_dir = os.path.join(args.out, "drop")
            if summary["pairs"]:
                from pynomaly_ray.functions.graph import components_drop_list

                edges = pairs.map_batches(
                    lambda t: t.select(["vec_a", "vec_b"]),
                    batch_format="pyarrow",
                )
                drops = components_drop_list(
                    edges, "vec_a", "vec_b", "vec_id", "kept_vec_id"
                ).materialize()
                drops.write_parquet(drop_dir)
                summary["dropped_vecs"] = int(drops.count())
            else:
                # keep the output contract uniform: a no-duplicates run
                # still writes an (empty, typed) drop table so a
                # downstream step reading <out>/drop never missing-paths
                os.makedirs(drop_dir, exist_ok=True)
                papq.write_table(
                    pa.schema(
                        [("vec_id", pa.int64()), ("kept_vec_id", pa.int64())]
                    ).empty_table(),
                    os.path.join(drop_dir, "empty.parquet"),
                )
                summary["dropped_vecs"] = 0
    else:
        assigned = kmeans_assign(
            ds, cents, id_col=args.id_col, vec_col=args.vec_col
        ).materialize()
        assigned.write_parquet(os.path.join(args.out, "assign"))
        summary["rows"] = int(assigned.count())
    import pyarrow as pa
    import pyarrow.parquet as papq

    papq.write_table(
        pa.table(
            {
                "cluster": pa.array(range(len(cents)), pa.int64()),
                "centroid": pa.array(list(cents), pa.list_(pa.float64())),
            }
        ),
        os.path.join(args.out, "centroids.parquet"),
    )
    print(json.dumps(summary))
    return 0


def cmd_ingest(args) -> int:
    """Corpus onboarding: convert a CSV / JSONL table (or re-block a
    parquet one) into the engine's parquet layout.  The conversion is
    fully distributed — ray.data reads the sharded source files and
    writes partitioned parquet; nothing funnels through the driver."""
    import glob
    import os

    _ensure_ray(args.num_cpus)
    import ray.data as rd

    cols = args.columns.split(",") if args.columns else None
    if args.format == "csv":
        ds = rd.read_csv(args.input)
    elif args.format == "jsonl":
        ds = rd.read_json(args.input)
    else:
        from pynomaly_ray.sources.parquet import read_parquet_clean

        ds = read_parquet_clean(args.input, columns=cols)
    if cols:
        ds = ds.select_columns(cols)
    if args.blocks:
        ds = ds.repartition(args.blocks)
    shutil.rmtree(args.out, ignore_errors=True)
    os.makedirs(args.out, exist_ok=True)
    if args.partition_by:
        # hive-partitioned layout (one directory per key value): a
        # failed 100x run resumes by skipping finished partitions, and
        # per-key consumers read one directory instead of the table
        ds.write_parquet(args.out, partition_cols=args.partition_by.split(","))
    else:
        ds.write_parquet(args.out)
    import pyarrow.parquet as papq

    rows = sum(
        papq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(args.out, "**", "*.parquet"), recursive=True)
    )
    print(
        json.dumps(
            {"out": args.out, "rows": int(rows), "format": args.format}
        )
    )
    return 0


def cmd_query(args) -> int:
    """Run any registry pipeline by name over an sf-style table dir
    (the operational surface of the 100+-query suite): result written
    as parquet with --out, else a row-count summary."""
    import os

    _ensure_ray(args.num_cpus)
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as papq

    from pynomaly_ray.pipelines.engine_queries import ENGINE_QUERIES
    from pynomaly_ray.pipelines.queries import ORACLE_QUERIES

    registry = {name: fn for name, (fn, _sql) in ORACLE_QUERIES.items()}
    registry.update(ENGINE_QUERIES)
    if args.list or args.name not in registry:
        print(json.dumps({"queries": sorted(registry)}))
        return 0 if args.list else 2
    if not args.input:
        print(json.dumps({"error": "--input is required with --name"}))
        return 2
    res = registry[args.name](args.input)
    if isinstance(res, pd.DataFrame):
        tbl = pa.Table.from_pandas(res, preserve_index=False)
    elif isinstance(res, pa.Table):
        tbl = res
    else:  # ray Dataset: keep it distributed unless a driver table fits
        if args.out:
            shutil.rmtree(args.out, ignore_errors=True)
            res.write_parquet(args.out)
            print(json.dumps({"name": args.name, "out": args.out}))
            return 0
        print(json.dumps({"name": args.name, "rows": int(res.count())}))
        return 0
    summary = {"name": args.name, "rows": tbl.num_rows}
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        papq.write_table(tbl, args.out)
        summary["out"] = args.out
    print(json.dumps(summary))
    return 0


def cmd_run(args) -> int:
    """Crash-safe batch runner over the query registry: each query's
    result lands under <out>/<name>/ with the parquet written FIRST and
    ``_done.json`` renamed into place LAST (the commit marker), so a
    killed batch resumes with --resume by skipping every committed
    query and re-running (after clearing) any partial one — the
    job-level twin of the per-operator manifests."""
    import os
    import traceback

    _ensure_ray(args.num_cpus)
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as papq

    from pynomaly_ray.pipelines.engine_queries import ENGINE_QUERIES
    from pynomaly_ray.pipelines.queries import ORACLE_QUERIES
    from pynomaly_ray.state.commit import write_json

    registry = {name: fn for name, (fn, _sql) in ORACLE_QUERIES.items()}
    registry.update(ENGINE_QUERIES)
    names = [n.strip() for n in args.queries.split(",") if n.strip()]
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(json.dumps({"error": f"unknown queries: {unknown}"}))
        return 2
    ran, skipped, failed = [], [], []
    for name in names:
        qdir = os.path.join(args.out, name)
        marker = os.path.join(qdir, "_done.json")
        if args.resume and os.path.exists(marker):
            skipped.append(name)
            continue
        shutil.rmtree(qdir, ignore_errors=True)  # clear any partial try
        os.makedirs(qdir, exist_ok=True)
        # queries are independent: one failure is recorded (no marker,
        # so --resume re-runs it) and the batch goes on
        try:
            res = registry[name](args.input)
            if isinstance(res, pd.DataFrame):
                res = pa.Table.from_pandas(res, preserve_index=False)
            if isinstance(res, pa.Table):
                papq.write_table(res, os.path.join(qdir, "result.parquet"))
                rows = int(res.num_rows)
            else:  # ray Dataset: distributed sink, no driver collect
                res.write_parquet(os.path.join(qdir, "result"))
                rows = None
        except Exception as e:
            traceback.print_exc()
            failed.append({"name": name, "error": f"{type(e).__name__}: {e}"})
            continue
        write_json(marker, {"name": name, "rows": rows})  # commit point
        ran.append(name)
    print(
        json.dumps(
            {"ran": ran, "skipped": skipped, "failed": failed, "out": args.out}
        )
    )
    return 1 if failed else 0


def cmd_layout(args) -> int:
    """Persist a table as one of the engine's clustered layouts —
    the offline `OPTIMIZE` surface: pay one exchange now so later
    scans prune (sorted: 1-D range, zorder: 2-D rectangle) or later
    joins/aggregates never shuffle (bucketed)."""
    _ensure_ray(args.num_cpus)
    from pynomaly_ray.sources.parquet import read_parquet_clean

    keys = args.keys.split(",")
    cols = args.columns.split(",") if args.columns else None
    ds = read_parquet_clean(args.input, columns=cols)
    if args.mode == "sorted":
        if len(keys) != 1:
            print(json.dumps({"error": "sorted layout takes one key"}))
            return 2
        from pynomaly_ray.sources.sorted_layout import write_sorted

        m = write_sorted(ds, keys[0], args.out, args.partitions)
        files = len(m["zones"])
    elif args.mode == "zorder":
        from pynomaly_ray.sources.zorder_layout import write_zorder

        try:
            m = write_zorder(
                ds, keys, args.out, args.partitions, bits=args.bits
            )
        except (TypeError, ValueError) as e:
            print(json.dumps({"error": str(e)}))
            return 2
        files = len(m["zones"])
    else:
        from pynomaly_ray.sources.bucketed import write_bucketed

        m = write_bucketed(ds, keys, args.partitions or 16, args.out)
        files = int(m.get("num_buckets", args.partitions or 16))
    print(
        json.dumps(
            {
                "mode": args.mode,
                "keys": keys,
                "rows": int(m.get("rows", 0)),
                "files": files,
                "out": args.out,
            }
        )
    )
    return 0


def cmd_compact(args) -> int:
    """Compact an appended layout back to one generation — the
    small-file maintenance op: sorted layouts re-sort into tight
    non-overlapping zones (file order == total order again), bucketed
    layouts merge each bucket's generation files into one.  The layout
    kind is detected from its commit marker."""
    import os

    _ensure_ray(args.num_cpus)
    if os.path.exists(os.path.join(args.path, "_sorted.json")):
        from pynomaly_ray.sources.sorted_layout import compact_sorted

        m = compact_sorted(args.path, args.partitions)
        out = {"mode": "sorted", "files": len(m["zones"])}
    elif os.path.exists(os.path.join(args.path, "_bucketed.json")):
        from pynomaly_ray.sources.bucketed import compact_bucketed

        m = compact_bucketed(args.path)
        out = {"mode": "bucketed", "files": int(m["num_buckets"])}
    else:
        print(
            json.dumps(
                {
                    "error": f"{args.path} has no committed sorted or "
                    "bucketed layout manifest"
                }
            )
        )
        return 2
    out.update({"rows": int(m.get("rows", 0)), "path": args.path})
    print(json.dumps(out))
    return 0


def cmd_index(args) -> int:
    """Build / search the persisted IVF vector index — the operational
    face of ``sources/ivf_index``: pay k-means + one layout exchange at
    build time so every later search reads nprobe/k of the corpus."""
    import os

    import numpy as np

    _ensure_ray(args.num_cpus)
    if args.action == "build":
        if not args.input or not args.out:
            print(json.dumps({"error": "build needs --input and --out"}))
            return 2
        from pynomaly_ray.sources.ivf_index import write_ivf_index
        from pynomaly_ray.sources.parquet import read_parquet_clean

        ds = read_parquet_clean(
            args.input, columns=[args.id_col, args.vec_col]
        )
        m = write_ivf_index(
            ds,
            args.out,
            k=args.k,
            n_iter=args.iters,
            id_col=args.id_col,
            vec_col=args.vec_col,
        )
        print(json.dumps({"action": "build", "out": args.out, **m}))
        return 0
    # search
    if not args.path or not args.query_ids or not args.queries_from:
        print(
            json.dumps(
                {
                    "error": "search needs --path, --query-ids and "
                    "--queries-from"
                }
            )
        )
        return 2
    import pyarrow.dataset as pads
    import pyarrow.parquet as papq

    from pynomaly_ray.sources.ivf_index import ivf_search, load_manifest

    qids = [int(x) for x in args.query_ids.split(",")]
    m = load_manifest(args.path)
    qt = (
        papq.ParquetDataset(
            args.queries_from,
            filters=pads.field(m["id_col"]).isin(qids),
        )
        .read(columns=[m["id_col"], m["vec_col"]])
        .sort_by(m["id_col"])
    )
    if qt.num_rows != len(set(qids)):
        print(
            json.dumps(
                {"error": f"found {qt.num_rows} of {len(set(qids))} ids"}
            )
        )
        return 2
    qv = np.asarray(
        [qt[m["vec_col"]][i].as_py() for i in range(qt.num_rows)],
        dtype=np.float64,
    )
    out = ivf_search(args.path, qv, nprobe=args.nprobe, topk=args.topk)
    # query_id is positional over the sorted id list; map back to ids
    sorted_ids = qt[m["id_col"]].to_pylist()
    out["query_id"] = [sorted_ids[int(i)] for i in out["query_id"]]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        import pyarrow as pa

        papq.write_table(
            pa.Table.from_pandas(out, preserve_index=False),
            os.path.join(args.out, "neighbors.parquet"),
        )
    print(
        json.dumps(
            {
                "action": "search",
                "queries": len(qv),
                "nprobe": args.nprobe,
                "topk": args.topk,
                "rows": int(len(out)),
                "out": args.out,
            }
        )
    )
    return 0


def cmd_matview(args) -> int:
    """Operate an incrementally-maintained aggregate view
    (state/matview.py): create from a table, fold increments in
    (exactly once per --run-id), retract CDC deletes, or dump the
    current state."""
    import os

    _ensure_ray(args.num_cpus)
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.state.matview import (
        create_matview,
        load_manifest,
        read_matview,
        refresh_matview,
        retract_matview,
    )

    if args.action == "read":
        m = load_manifest(args.view)
        df = read_matview(args.view).to_pandas()
        if args.out:
            import pyarrow as pa
            import pyarrow.parquet as papq

            os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
            papq.write_table(
                pa.Table.from_pandas(df, preserve_index=False), args.out
            )
        print(
            json.dumps(
                {
                    "action": "read",
                    "rows": int(len(df)),
                    "gen": m["gen"],
                    "applied_run_ids": m["applied_run_ids"],
                }
            )
        )
        return 0

    ds = read_parquet_clean(args.input)
    if args.action == "create":
        spec = {}
        for part in args.agg.split(","):
            out_col, expr = part.split("=", 1)
            fn, _, src = expr.partition(":")
            spec[out_col] = (src or None, fn)
        try:
            m = create_matview(
                args.view, ds, args.keys.split(","), spec,
                run_id=args.run_id,
            )
        except ValueError as e:
            print(json.dumps({"error": str(e)}))
            return 2
    elif args.action == "refresh":
        m = refresh_matview(args.view, ds, args.run_id)
    else:  # retract
        try:
            m = retract_matview(args.view, ds, args.run_id)
        except ValueError as e:
            print(json.dumps({"error": str(e)}))
            return 2
    print(
        json.dumps(
            {
                "action": args.action,
                "gen": m["gen"],
                "rows": m["rows"],
                "applied_run_ids": m["applied_run_ids"],
            }
        )
    )
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="pynomaly_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="run the validation pipeline")
    v.add_argument("--input", required=True, help="sequence-table parquet dir")
    v.add_argument("--out", default=None, help="output/checkpoint dir")
    v.add_argument("--sources", default=None, help="comma-separated source universe")
    v.add_argument("--n-neighbors", type=int, default=10)
    v.add_argument("--extent", type=int, default=3)
    v.add_argument("--drift-threshold", type=float, default=0.5)
    v.add_argument("--cluster-by-source", action="store_true")
    v.add_argument("--run-id", default="r0")
    v.add_argument("--no-resume", action="store_true")
    v.add_argument(
        "--model",
        default=None,
        help="frozen LoOP model (.npz) for incremental scoring instead of a refit",
    )
    v.add_argument(
        "--write-validated",
        action="store_true",
        help="also write violation-free rows as partitioned parquet",
    )
    v.add_argument("--num-cpus", type=int, default=None)
    v.set_defaults(fn=cmd_validate)

    g = sub.add_parser("gen", help="generate a synthetic sequence table")
    g.add_argument("--out", required=True)
    g.add_argument("--parts", type=int, default=16)
    g.add_argument("--rows", type=int, default=256)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--clean", action="store_true", help="no planted violations")
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=cmd_gen)

    d = sub.add_parser("dedup", help="deduplicate a documents table")
    d.add_argument("--input", required=True, help="documents parquet file/dir")
    d.add_argument("--out", required=True)
    d.add_argument(
        "--method", choices=["exact", "minhash", "simhash"], default="exact"
    )
    d.add_argument("--id-col", default="doc_id")
    d.add_argument("--text-col", default="text")
    d.add_argument("--n-perm", type=int, default=64)
    d.add_argument("--n-bands", type=int, default=16)
    d.add_argument("--threshold", type=float, default=0.8)
    d.add_argument(
        "--state-dir",
        default=None,
        help="minhash only: persist per-run band tables here and dedup "
        "incrementally across runs (only docs unseen by committed prior "
        "runs are re-hashed; only pairs touching a new doc are emitted)",
    )
    d.add_argument(
        "--run-id",
        default="r0",
        help="incremental-state run id (with --state-dir)",
    )
    d.add_argument(
        "--keep-list",
        action="store_true",
        help="minhash only: collapse pairs into connected components and "
        "write drop/ parquet (doc_id -> kept representative)",
    )
    d.add_argument(
        "--force",
        action="store_true",
        help="allow a non-incremental minhash run to clear an --out that "
        "holds incremental per-run pair dirs (discards accumulated pairs)",
    )
    d.add_argument("--num-cpus", type=int, default=None)
    d.set_defaults(fn=cmd_dedup)

    lo = sub.add_parser(
        "loop", help="distributed LoOP outlier scores over embeddings"
    )
    lo.add_argument("--input", required=True, help="embeddings parquet file/dir")
    lo.add_argument("--out", required=True)
    lo.add_argument("--id-col", default="vec_id")
    lo.add_argument("--vec-col", default="embedding")
    lo.add_argument("--n-neighbors", type=int, default=10)
    lo.add_argument("--extent", type=int, default=3)
    lo.add_argument(
        "--buckets",
        type=int,
        default=None,
        help="LoOP bucket count (default: size-adaptive from input bytes)",
    )
    lo.add_argument(
        "--lsh-planes",
        type=int,
        default=0,
        help="hyperplane-LSH locality buckets (0 = random hash buckets)",
    )
    lo.add_argument("--num-cpus", type=int, default=None)
    lo.set_defaults(fn=cmd_loop)

    pk = sub.add_parser(
        "pack", help="concat-and-chunk packing of a tokenized sequence table"
    )
    pk.add_argument("--input", required=True, help="sequence parquet file/dir")
    pk.add_argument("--out", required=True)
    pk.add_argument("--chunk", type=int, default=2048)
    pk.add_argument(
        "--offsets-only",
        action="store_true",
        help="emit per-doc placement (seq_first/seq_last/off_in_seq) "
        "instead of assembled token sequences",
    )
    pk.add_argument("--num-cpus", type=int, default=None)
    pk.set_defaults(fn=cmd_pack)

    dc = sub.add_parser(
        "decontam",
        help="flag training docs sharing k-word shingles with a benchmark",
    )
    dc.add_argument("--input", required=True, help="training documents parquet")
    dc.add_argument("--benchmark", required=True, help="benchmark documents parquet")
    dc.add_argument("--out", required=True)
    dc.add_argument("--k", type=int, default=4, help="shingle width in words")
    dc.add_argument(
        "--min-overlap",
        type=int,
        default=1,
        help="flag threshold on overlapping distinct shingles",
    )
    dc.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="max actors in the counting pool (autoscales from 1; raise "
        "on large hosts — the default caps at 4 CPUs)",
    )
    dc.add_argument("--num-cpus", type=int, default=None)
    dc.set_defaults(fn=cmd_decontam)

    sc = sub.add_parser(
        "scrub", help="PII-redact a documents table (emails/IPv4/phones)"
    )
    sc.add_argument("--input", required=True, help="documents parquet")
    sc.add_argument("--out", required=True)
    sc.add_argument("--text-col", default="text")
    sc.add_argument("--id-col", default="doc_id")
    sc.add_argument("--num-cpus", type=int, default=None)
    sc.set_defaults(fn=cmd_scrub)

    cl = sub.add_parser(
        "cluster",
        help="k-means over an embedding table; --semantic-dedup-e6 emits "
        "within-cluster near-dup pairs instead of assignments",
    )
    cl.add_argument("--input", required=True, help="embeddings parquet")
    cl.add_argument("--out", required=True)
    cl.add_argument("--k", type=int, default=8)
    cl.add_argument("--iters", type=int, default=5)
    cl.add_argument("--vec-col", default="embedding")
    cl.add_argument("--id-col", default="vec_id")
    cl.add_argument(
        "--semantic-dedup-e6",
        type=int,
        default=None,
        help="cosine threshold on the 1e6 integer grid (e.g. 950000); "
        "when set, write pairs/ instead of assign/",
    )
    cl.add_argument(
        "--keep-list",
        action="store_true",
        help="with --semantic-dedup-e6: also collapse pairs into "
        "connected components and write a drop/ list (vec_id -> kept rep)",
    )
    cl.add_argument("--num-cpus", type=int, default=None)
    cl.set_defaults(fn=cmd_cluster)

    ing = sub.add_parser(
        "ingest",
        help="convert a CSV/JSONL table (or re-block parquet) into the "
        "engine's parquet layout, fully distributed",
    )
    ing.add_argument("--input", required=True, help="source file or dir")
    ing.add_argument("--out", required=True, help="output parquet dir")
    ing.add_argument(
        "--format", choices=["csv", "jsonl", "parquet"], default="csv"
    )
    ing.add_argument(
        "--columns", default=None, help="comma-separated projection"
    )
    ing.add_argument(
        "--blocks", type=int, default=None, help="repartition block count"
    )
    ing.add_argument(
        "--partition-by",
        default=None,
        help="comma-separated hive partition columns for the output",
    )
    ing.add_argument("--num-cpus", type=int, default=None)
    ing.set_defaults(fn=cmd_ingest)

    qr = sub.add_parser(
        "query", help="run a registry pipeline by name over a table dir"
    )
    qr.add_argument("--name", default=None, help="registry query name")
    qr.add_argument("--input", default=None, help="sf-style table dir")
    qr.add_argument("--out", default=None, help="write result parquet here")
    qr.add_argument(
        "--list", action="store_true", help="print available query names"
    )
    qr.add_argument("--num-cpus", type=int, default=None)
    qr.set_defaults(fn=cmd_query)

    rn = sub.add_parser(
        "run",
        help="batch-run registry queries with crash-safe per-query "
        "commit markers (--resume skips committed ones)",
    )
    rn.add_argument("--input", required=True, help="sf-style table dir")
    rn.add_argument("--out", required=True, help="batch output root")
    rn.add_argument(
        "--queries", required=True, help="comma-separated registry names"
    )
    rn.add_argument(
        "--resume",
        action="store_true",
        help="skip queries whose _done.json marker exists",
    )
    rn.add_argument("--num-cpus", type=int, default=None)
    rn.set_defaults(fn=cmd_run)

    ly = sub.add_parser(
        "layout",
        help="persist a table as a clustered layout (sorted / zorder / "
        "bucketed) for pruned scans or shuffle-free joins",
    )
    ly.add_argument("--input", required=True, help="parquet file/dir")
    ly.add_argument("--out", required=True)
    ly.add_argument(
        "--mode", choices=["sorted", "zorder", "bucketed"], required=True
    )
    ly.add_argument(
        "--keys",
        required=True,
        help="comma-separated cluster keys (sorted: 1, zorder: 2)",
    )
    ly.add_argument("--partitions", type=int, default=None)
    ly.add_argument("--bits", type=int, default=8, help="zorder rank bits/key")
    ly.add_argument("--columns", default=None, help="prune to these columns")
    ly.add_argument("--num-cpus", type=int, default=None)
    ly.set_defaults(fn=cmd_layout)

    cp = sub.add_parser(
        "compact",
        help="merge an appended sorted/bucketed layout back into one "
        "generation (small-file maintenance)",
    )
    cp.add_argument("--path", required=True, help="layout directory")
    cp.add_argument(
        "--partitions",
        type=int,
        default=None,
        help="sorted mode: output file count (default: auto)",
    )
    cp.add_argument("--num-cpus", type=int, default=None)
    cp.set_defaults(fn=cmd_compact)

    mv = sub.add_parser(
        "matview",
        help="create / refresh / retract / read an exactly-once "
        "incrementally-maintained aggregate view",
    )
    mv.add_argument(
        "action", choices=["create", "refresh", "retract", "read"]
    )
    mv.add_argument("--view", required=True, help="view state dir")
    mv.add_argument(
        "--input", default=None, help="parquet table (not needed for read)"
    )
    mv.add_argument(
        "--keys", default=None, help="create only: comma-separated group keys"
    )
    mv.add_argument(
        "--agg",
        default=None,
        help="create only: out=fn[:src] pairs, comma-separated "
        "(e.g. n=count,s=sum:v,mn=min:v)",
    )
    mv.add_argument("--run-id", default="base")
    mv.add_argument("--out", default=None, help="read only: dump parquet here")
    mv.add_argument("--num-cpus", type=int, default=None)
    mv.set_defaults(fn=cmd_matview)

    ix = sub.add_parser(
        "index",
        help="build / search a persisted IVF vector index "
        "(probe-pruned ANN over an embedding column)",
    )
    ix.add_argument("action", choices=["build", "search"])
    ix.add_argument("--input", default=None, help="build: embeddings parquet")
    ix.add_argument("--out", default=None, help="build: index dir; "
                    "search: optional neighbors parquet dir")
    ix.add_argument("--path", default=None, help="search: index dir")
    ix.add_argument("--k", type=int, default=16, help="build: #clusters")
    ix.add_argument("--iters", type=int, default=4, help="build: k-means iters")
    ix.add_argument("--id-col", default="vec_id")
    ix.add_argument("--vec-col", default="embedding")
    ix.add_argument(
        "--query-ids", default=None, help="search: comma-separated ids"
    )
    ix.add_argument(
        "--queries-from", default=None, help="search: parquet holding the ids"
    )
    ix.add_argument("--nprobe", type=int, default=3)
    ix.add_argument("--topk", type=int, default=5)
    ix.add_argument("--num-cpus", type=int, default=None)
    ix.set_defaults(fn=cmd_index)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
