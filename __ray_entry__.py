"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here calls ``ray.init()``/``ray.shutdown()``.

- ``entry()``: flagship validation pipeline over sf0.001 — tokenizes the
  ``documents`` table into the engine's native sequence shape (doc_id,
  tokens:list<int32>, n_tok, source, partition_id), then runs the full
  constraint + stats + LoOP-drift pipeline and returns the per-partition
  report.
- ``queries()``: one callable per implemented operator/pipeline
  (SURVEY.md §2 + engine-level training-data ops).
- ``oracle_sql()``: DuckDB-equivalent SQL for every SQL-expressible
  query; engine-only pipelines (LoOP drift, minhash, fingerprints) are
  rows-only checks.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any


def _sequence_ds_from_documents(sf_dir: str):
    """documents -> sequence table via the Tokenizer actor-pool stage."""
    from pynomaly_ray.sources.parquet import read_parquet_clean
    from pynomaly_ray.stages.tokenize import Tokenizer

    docs = read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    )
    return docs.map_batches(
        Tokenizer,
        fn_constructor_kwargs={"vocab_size": 32768},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )


def _validation_report(sf_dir: str):
    import pyarrow.parquet as pq

    from pynomaly_ray.config import ValidationConfig
    from pynomaly_ray.pipelines.validation import run_validation

    seq = _sequence_ds_from_documents(sf_dir)
    sources = (
        pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["source"]
        )["source"]
        .unique()
        .to_pylist()
    )
    cfg = ValidationConfig(
        valid_sources=sources, n_neighbors=10, extent=3, cluster_by_source=False
    )
    res = run_validation(seq, cfg, out_dir=None)
    return res.report


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    return _validation_report("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from pynomaly_ray.pipelines.queries import ORACLE_QUERIES

    from pynomaly_ray.pipelines.engine_queries import ENGINE_QUERIES

    out: dict[str, Callable[[str], Any]] = {
        name: fn for name, (fn, _sql) in ORACLE_QUERIES.items()
    }
    # Engine-only pipelines (no SQL equivalent -> rows-only checks).
    out["validation_report"] = _validation_report
    out.update(ENGINE_QUERIES)
    return out


def oracle_sql() -> dict[str, str]:
    # engine_queries registers its surface-parquet oracle entries
    # (lang_id, quality_scores) into ORACLE_QUERIES on import
    import pynomaly_ray.pipelines.engine_queries  # noqa: F401
    from pynomaly_ray.pipelines.queries import ORACLE_QUERIES

    return {name: sql for name, (_fn, sql) in ORACLE_QUERIES.items()}
