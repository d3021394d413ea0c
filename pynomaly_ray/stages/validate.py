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

The output stream is a tagged union of three row kinds:

  - ``violation``: sparse constraint-violation rows;
  - ``partial``:   tiny per-partition partial-stat rows (stages/stats.py);
  - ``docpart``:   batch-level (doc_id, partition_id, cnt, salt) partials
                   feeding the uniqueness reduction (stages/uniqueness.py).

Only these small streams cross the stage boundary — the wide ``tokens``
payload never leaves the scan, and the input is read exactly once.  This
is what makes the pipeline viable at 10^12 sequences.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from pynomaly_ray.config import PARTIAL_STATS_SCHEMA, VIOLATION_SCHEMA
from pynomaly_ray.stages.constraints import (
    check_sequence_batch,
    require_sequence_schema,
)
from pynomaly_ray.stages.stats import partial_stats_batch
from pynomaly_ray.stages.uniqueness import project_doc_partition

# Union schema of the tagged stage-A output stream.
_UNION_FIELDS = (
    [("kind", pa.string())]
    + [(f.name, f.type) for f in VIOLATION_SCHEMA]
    + [
        (f.name, f.type)
        for f in PARTIAL_STATS_SCHEMA
        if f.name not in ("partition_id",)
    ]
    + [("doc_hash", pa.int64()), ("cnt", pa.int64()), ("salt", pa.int64())]
)
UNION_SCHEMA = pa.schema(_UNION_FIELDS)


def _pad_to_union(t: pa.Table, kind: str) -> pa.Table:
    cols = {"kind": pa.array([kind] * t.num_rows, pa.string())}
    for f in UNION_SCHEMA:
        if f.name == "kind":
            continue
        if t.schema.get_field_index(f.name) >= 0:
            cols[f.name] = pc.cast(
                t[f.name], f.type
            ) if t.schema.field(f.name).type != f.type else t[f.name]
        else:
            cols[f.name] = pa.nulls(t.num_rows, f.type)
    return pa.table(cols, schema=UNION_SCHEMA)


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
        partials = partial_stats_batch(
            batch, valid_mask, self.vocab_size or 1
        )
        out = []
        if violations.num_rows:
            out.append(_pad_to_union(violations, "violation"))
        if partials.num_rows:
            out.append(_pad_to_union(partials, "partial"))
        docparts = project_doc_partition(batch, self.salt_buckets)
        if docparts.num_rows:
            out.append(_pad_to_union(docparts, "docpart"))
        if not out:
            return UNION_SCHEMA.empty_table()
        return pa.concat_tables(out)
