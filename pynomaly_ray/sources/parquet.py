"""Shared parquet -> Dataset reader with two fixes applied at the source:

- block count sized to the data (Ray's default shatters small files into
  ~2x-num-CPU blocks, so scheduling dominates on small tables);
- schema metadata stripped immediately after the read: this pyarrow's
  ``Schema.__hash__`` raises on schemas carrying metadata (the ``pandas``
  key every pandas-written parquet file has), which makes Ray Data's
  schema-dedup log ``Failed to hash the schemas`` from every map worker
  and slows its unify fast path.  The strip is zero-copy and fuses with
  the downstream map stage.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data as rd


def strip_schema_metadata(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None)


def parquet_files(*dirs: str) -> list[str]:
    """The ``*.parquet`` files directly under each dir, in name order."""
    return [
        os.path.join(d, f)
        for d in dirs
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]


def read_parquet_clean(
    paths,
    *,
    columns=None,
    override_num_blocks: int | None = None,
    filter=None,
):
    """``filter`` is a ``pyarrow.dataset`` expression pushed INTO the
    read (row-group statistics prune whole groups before any bytes
    decode) — at the 100x corpus a selective predicate here is the
    difference between scanning the table and scanning the answer.
    Rows the statistics cannot exclude are filtered exactly by the
    scanner, so the result equals a post-read filter."""
    # NOTE: a read-split (and especially a pushdown filter) can yield
    # 0-row blocks with an EMPTY schema (no columns at all), and Ray
    # SKIPS map fns on 0-row blocks, so no map stage here could repair
    # them.  Downstream consumers handle the mix instead: topk /
    # collect_sorted concat blocks permissively (the union schema
    # recovers typing from whichever blocks carry it) and the exchange
    # merge/join tasks guard the all-schemaless case.
    kwargs = {}
    if filter is not None:
        kwargs["filter"] = filter
    ds = rd.read_parquet(
        paths, columns=columns, override_num_blocks=override_num_blocks, **kwargs
    )
    return ds.map_batches(
        strip_schema_metadata, batch_format="pyarrow", zero_copy_batch=True
    )
