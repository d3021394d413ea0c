"""Stage A: the single-scan validator — constraints, stats, and the
uniqueness pre-aggregation in ONE pass over the input.

A callable for ``ds.map_batches(validator, batch_format="pyarrow")``
without ``batch_size``: Ray fuses it into the read, so it runs as
stateless tasks, one per read task (a run of input files), each
validating the blocks its files decode.  The validator's state (source
set, vocab bound) is small and pickled into every task.  Every block's
schema is checked against the sequence schema first, so a mistyped input
fails even when its schema was unknown at plan time.  Each block is cut
into kernel calls of at most ``batch_size`` rows, which bounds the
kernel's temporaries whatever the row-group size.

Each kernel call yields ONE row of ``TAGGED_SCHEMA``: its three tables
as ``list<struct>`` columns, so a row of one pays nothing for the others.

  - ``violation``: sparse constraint-violation rows;
  - ``partial``:   per-partition partial-stat rows (stages/stats.py);
  - ``docpart``:   batch-level doc_id counts feeding the uniqueness
                   reduction (stages/uniqueness.py).

:func:`split_tagged` is the inverse; no other module reads the layout.
Only these small streams cross the stage boundary — the wide ``tokens``
payload never leaves the scan, and the input is read exactly once.  This
is what makes the pipeline viable at 10^12 sequences.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from pynomaly_ray.config import DOCPART_SCHEMA, PARTIAL_STATS_SCHEMA, VIOLATION_SCHEMA
from pynomaly_ray.stages.constraints import (
    check_sequence_batch,
    require_sequence_schema,
)
from pynomaly_ray.stages.stats import partial_stats_batch
from pynomaly_ray.stages.uniqueness import project_doc_partition

_PARTS = {
    "violation": VIOLATION_SCHEMA,
    "partial": PARTIAL_STATS_SCHEMA,
    "docpart": DOCPART_SCHEMA,
}
TAGGED_SCHEMA = pa.schema(
    [(name, pa.list_(pa.struct(list(schema)))) for name, schema in _PARTS.items()]
)


def split_tagged(block: pa.Table) -> tuple[pa.Table, pa.Table, pa.Table]:
    """Tagged rows -> (violations, partials, docparts), each table in its
    own schema, holding the rows of every kernel call in ``block``."""
    if not block.num_rows:  # 0-row blocks skip the validator: any schema
        block = TAGGED_SCHEMA.empty_table()
    # from_batches, not from_struct_array: that one refuses a column whose
    # lists are all empty (no chunks left after the flatten)
    return tuple(
        pa.Table.from_batches(
            map(pa.RecordBatch.from_struct_array, pc.list_flatten(block[name]).chunks),
            schema,
        )
        for name, schema in _PARTS.items()
    )


class SequenceValidator:
    """Constraint + partial-stats + uniqueness-partial kernel, applied to
    slices of at most ``batch_size`` rows (``None``: the whole batch)."""

    def __init__(
        self,
        valid_sources=None,
        vocab_size: Optional[int] = None,
        salt_buckets: int = 16,
        batch_size: Optional[int] = None,
    ):
        self.valid_sources = (
            frozenset(valid_sources) if valid_sources is not None else None
        )
        # Arrow value set built ONCE per validator, not per batch
        self.valid_sources_arr = (
            pa.array(sorted(self.valid_sources), pa.string())
            if self.valid_sources is not None
            else None
        )
        self.vocab_size = vocab_size
        self.salt_buckets = salt_buckets
        self.batch_size = batch_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        require_sequence_schema(batch.schema)
        step = self.batch_size or batch.num_rows
        if batch.num_rows <= step:
            return self._validate(batch)
        return pa.concat_tables(
            [
                self._validate(batch.slice(i, step))
                for i in range(0, batch.num_rows, step)
            ]
        )

    def _validate(self, batch: pa.Table) -> pa.Table:
        violations, valid_mask = check_sequence_batch(
            batch,
            self.valid_sources,
            self.vocab_size,
            valid_sources_arr=self.valid_sources_arr,
        )
        parts = [
            violations,
            partial_stats_batch(batch, valid_mask, self.vocab_size or 1),
            project_doc_partition(batch, self.salt_buckets),
        ]
        if not any(t.num_rows for t in parts):
            return TAGGED_SCHEMA.empty_table()
        # one list per table; a kernel output that lacks a column of its
        # declared schema or types it otherwise raises here, never in Ray's
        # block concat
        lists = [
            pa.ListArray.from_arrays(
                [0, t.num_rows],
                pa.StructArray.from_arrays(
                    [t[f.name].combine_chunks() for f in schema], fields=list(schema)
                ),
            )
            for t, schema in zip(parts, _PARTS.values())
        ]
        return pa.table(lists, schema=TAGGED_SCHEMA)
