"""Parquet -> Dataset readers.

``read_parquet_clean`` is the shared reader (filter pushdown, hive
partition columns), with two fixes applied at the source:

- block count sized to the data (Ray's default shatters small files into
  ~2x-num-CPU blocks, so scheduling dominates on small tables);
- schema metadata stripped immediately after the read: this pyarrow's
  ``Schema.__hash__`` raises on schemas carrying metadata (the ``pandas``
  key every pandas-written parquet file has), which makes Ray Data's
  schema-dedup log ``Failed to hash the schemas`` from every map worker
  and slows its unify fast path.  The strip is zero-copy and fuses with
  the downstream map stage.

``SequenceParquetDatasource`` is the sequence scan's reader: planned from
the Parquet footers alone, each read task a run of consecutive files
balanced by bytes, so that a following ``map_batches`` without
``batch_size`` fuses into the read task.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


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


def _read_row_groups(paths: list[str]):
    """One block per row group of each file in ``paths``, in order,
    schema metadata stripped."""
    for path in paths:
        with pq.ParquetFile(path) as pf:
            for i in range(pf.num_row_groups):
                yield pf.read_row_group(i).replace_schema_metadata(None)


def _group_starts(sizes: list[int], k: int) -> list[int]:
    """First index of each of ``k`` non-empty runs of consecutive
    ``sizes`` (``k <= len(sizes)``), each cut at the boundary nearest to
    its share ``j * sum / k``: a run holds at most ``sum / k`` plus the
    largest size, or one item."""
    cum = list(itertools.accumulate(sizes, initial=0))
    starts = [0]
    for j in range(1, k):
        share = cum[-1] * j / k
        i = bisect.bisect_left(cum, share)
        if i and share - cum[i - 1] <= cum[i] - share:
            i -= 1
        # leave every run at least one item
        starts.append(min(max(i, starts[-1] + 1), len(sizes) - (k - j)))
    return starts


def _schema_diff(a: pa.Schema, b: pa.Schema) -> str:
    def typ(s, name):
        i = s.get_field_index(name)
        return str(s.field(i).type) if i >= 0 else "missing"

    names = dict.fromkeys(a.names + b.names)
    diff = [f"{n} {typ(a, n)} vs {typ(b, n)}" for n in names if typ(a, n) != typ(b, n)]
    return "; ".join(diff) or f"{a} vs {b}"


class SequenceParquetDatasource(Datasource):
    """Whole Parquet files, planned from the footers on the driver.

    ``get_read_tasks(k)`` cuts the files, in the given order, into
    ``min(k, files)`` runs of consecutive files balanced by their
    uncompressed bytes, one ``ReadTask`` each.  Every task carries the
    exact row count, uncompressed size and paths of its files, and the
    schema all footers share (metadata stripped), so Ray needs no
    metadata-prefetch or sampling tasks to plan the read.  Files whose
    footers disagree on the schema are refused here, before any scan.  A
    task reads its files one row group at a time, one block each.
    """

    def __init__(self, files: list[str]):
        self._files = list(files)
        self._rows, self._bytes = [], []
        schema = None
        for f in self._files:
            md = pq.read_metadata(f)
            self._rows.append(md.num_rows)
            self._bytes.append(
                sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
            )
            s = md.schema.to_arrow_schema().remove_metadata()
            if schema is None:
                schema, first = s, f
            elif not s.equals(schema):
                raise ValueError(
                    f"parquet footers disagree on the schema: {f} vs {first}: "
                    + _schema_diff(s, schema)
                )
        self._schema = schema

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._bytes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        n = len(self._files)
        starts = _group_starts(self._bytes, min(parallelism, n))
        return [
            ReadTask(
                functools.partial(_read_row_groups, self._files[a:b]),
                BlockMetadata(
                    num_rows=sum(self._rows[a:b]),
                    size_bytes=sum(self._bytes[a:b]),
                    input_files=self._files[a:b],
                    exec_stats=None,
                ),
                schema=self._schema,
            )
            for a, b in zip(starts, starts[1:] + [n])
        ]
