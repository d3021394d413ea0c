"""Engine configuration (ValidationConfig) and canonical Arrow schemas.

The engine's primary logical table (BASELINE.json ``input_hint``)::

    doc_id: string        # unique document / sequence id
    tokens: list<int32>   # pre-tokenized sequence, values in [0, vocab)
    n_tok:  int32         # must equal len(tokens)
    source: string        # must be a member of the source universe

plus an engine-added ``partition_id: string`` carried through every stage —
the unit of pass/fail, lineage, resume, and drift detection (the analogue of
the reference's ``cluster_labels`` partition key, loop.py:441,568-579).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import pyarrow as pa

SEQUENCE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)

VIOLATION_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("partition_id", pa.string()),
        ("check", pa.string()),
        ("detail", pa.string()),
    ]
)

# Mergeable per-partition counters emitted by the stage-A stats kernel.
# Everything here is a sum / vector-add merge — no order sensitivity.
N_TOKEN_BUCKETS = 16  # coarse token-id histogram buckets over the vocab
MAX_TRACKED_LEN = 4096  # exact length histogram up to this (longer -> last)

PARTIAL_STATS_SCHEMA = pa.schema(
    [
        ("partition_id", pa.string()),
        ("source", pa.string()),
        ("n_rows", pa.int64()),
        ("n_tok_sum", pa.float64()),
        ("n_tok_sum2", pa.float64()),
        ("n_tok_sum3", pa.float64()),
        ("tok_hist", pa.list_(pa.int64())),  # length N_TOKEN_BUCKETS
        ("len_hist", pa.list_(pa.int64())),  # length MAX_TRACKED_LEN//16
    ]
)

PARTITION_REPORT_SCHEMA = pa.schema(
    [
        ("partition_id", pa.string()),
        ("source", pa.string()),
        ("n_rows", pa.int64()),
        ("n_violations", pa.int64()),
        ("stat_vector", pa.list_(pa.float64())),
        ("loop_score", pa.float64()),
        ("status", pa.string()),  # "pass" | "fail"
        (
            "lineage",
            pa.struct(
                [
                    ("n_rows", pa.int64()),
                    ("stats_digest", pa.string()),
                    ("run_id", pa.string()),
                ]
            ),
        ),
    ]
)


@dataclass
class ValidationConfig:
    """Knobs for the validation pipeline.

    ``n_neighbors``/``extent`` take the reference's tested values
    (extent in {2,3}, k in {10,20} per BASELINE.json); the reference's
    parameter-clamping semantics live in loop_core and apply here too.
    """

    vocab_size: int = 32768
    n_neighbors: int = 10
    extent: int = 3
    drift_threshold: float = 0.5
    # LoOP cluster grouping key for partition-stat rows; None = one cluster.
    cluster_by_source: bool = False
    # Rows per validator kernel call (Stage A cuts each block into these)
    batch_size: int = 4096
    salt_buckets: int = 16  # skew salting for the doc_id uniqueness shuffle
    # Stage-B adaptivity: tagged streams at or below this size are reduced
    # driver-locally (vectorized pandas, zero extra Ray executions);
    # larger streams take the distributed hash_aggregate path.
    driver_collect_bytes: int = 256 * 1024 * 1024
    # Source-membership universe; None DISABLES the unknown_source
    # check (pass the side table's distinct sources to enable it).
    valid_sources: Optional[Sequence[str]] = None
    # Output
    run_id: str = "r0"
