"""Stage A's tagged stream: one nested row per kernel call, and the
docparts checkpoint that Stage B writes from it.

``SequenceValidator`` returns rows of exactly ``TAGGED_SCHEMA`` (Ray
concatenates every task's blocks, so one schema is a hard condition),
and ``split_tagged`` gives back the kernels' own tables.  The docparts
files on disk keep the schema that earlier versions committed, so a
resume over their out_dir still finds duplicates that span the runs.
"""

from __future__ import annotations

import glob
import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pynomaly_ray.config import ValidationConfig
from pynomaly_ray.sources.datagen import (
    SOURCES,
    GenSpec,
    generate_partition,
    plant_violations,
)

SPEC = GenSpec(parts_per_source=2, rows_per_part=24)


def _planted() -> pa.Table:
    tables = {
        f"{s}-{p:04d}": generate_partition(s, p, SPEC)
        for s in SOURCES[:2]
        for p in range(SPEC.parts_per_source)
    }
    plant_violations(tables, SPEC)
    return pa.concat_tables(tables.values())


def _null_partition_id() -> pa.Table:
    t = generate_partition("code", 1, SPEC)
    pids = pa.array([None, "code-0001"] * (t.num_rows // 2), pa.string())
    return t.set_column(t.schema.get_field_index("partition_id"), "partition_id", pids)


BATCHES = {
    "clean": lambda: generate_partition("web", 0, SPEC),
    "planted": _planted,
    "null_partition_id": _null_partition_id,
    "zero_rows": lambda: generate_partition("web", 0, SPEC).slice(0, 0),
}


def _kernels(batch: pa.Table, step: int) -> list[pa.Table]:
    """The three Stage A kernels called directly on each ``step``-row
    slice, each one's outputs concatenated."""
    from pynomaly_ray.stages.constraints import check_sequence_batch
    from pynomaly_ray.stages.stats import partial_stats_batch
    from pynomaly_ray.stages.uniqueness import project_doc_partition

    out = []
    for i in range(0, max(batch.num_rows, 1), step):
        s = batch.slice(i, step)
        viol, mask = check_sequence_batch(s, frozenset(SOURCES), SPEC.vocab_size)
        out.append(
            (viol, partial_stats_batch(s, mask, SPEC.vocab_size), project_doc_partition(s))
        )
    return [pa.concat_tables(tables) for tables in zip(*out)]


@pytest.mark.parametrize("step", [None, 10])
@pytest.mark.parametrize("name", list(BATCHES))
def test_tagged_rows_hold_the_kernels_tables(name, step):
    """Every validator output has exactly TAGGED_SCHEMA, one row per
    kernel call with output, and split_tagged returns the rows the three
    kernels give when called directly."""
    from pynomaly_ray.stages.validate import (
        TAGGED_SCHEMA,
        SequenceValidator,
        split_tagged,
    )

    batch = BATCHES[name]()
    out = SequenceValidator(
        valid_sources=list(SOURCES), vocab_size=SPEC.vocab_size, batch_size=step
    )(batch)
    step = step or max(batch.num_rows, 1)
    assert out.schema == TAGGED_SCHEMA
    assert out.num_rows == math.ceil(batch.num_rows / step)
    for got, want in zip(split_tagged(out), _kernels(batch, step), strict=True):
        assert got.equals(want)
    assert (split_tagged(out)[0].num_rows > 0) == (name == "planted")


# The docparts checkpoint as every earlier version committed it.
DOCPARTS_ON_DISK = pa.schema(
    [
        ("doc_id", pa.string()),
        ("doc_hash", pa.int64()),
        ("partition_id", pa.string()),
        ("cnt", pa.int64()),
        ("salt", pa.int64()),
    ]
)


def _rows(pid: str, doc_ids: list[str]) -> pa.Table:
    n = len(doc_ids)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "tokens": pa.array([[1, 2, 3]] * n, pa.list_(pa.int32())),
            "n_tok": pa.array([3] * n, pa.int32()),
            "source": pa.array(["web"] * n, pa.string()),
            "partition_id": pa.array([pid] * n, pa.string()),
        }
    )


def _old_docparts(pid: str, counts: dict[str, int]) -> pa.Table:
    """Docpart rows of one partition, built by hand in the pinned schema."""
    from pynomaly_ray.functions.hashing import hash_strings, salt_of

    ids = pa.array(list(counts), pa.string())
    pids = pa.array([pid] * len(counts), pa.string())
    return pa.table(
        [
            ids,
            pa.array(hash_strings(ids).view(np.int64)),
            pids,
            pa.array(list(counts.values()), pa.int64()),
            pa.array(salt_of(pids, 16)),
        ],
        schema=DOCPARTS_ON_DISK,
    )


def _all_violations(out_dir: str) -> pd.DataFrame:
    files = sorted(glob.glob(os.path.join(out_dir, "violations", "*", "*.parquet")))
    df = pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)
    return df.sort_values(["partition_id", "doc_id", "check"]).reset_index(drop=True)


@pytest.mark.parametrize("collect_bytes", [256 * 1024 * 1024, 0], ids=["local", "distributed"])
def test_resume_over_docparts_in_the_committed_schema(collect_bytes, ray_session, tmp_path):
    """A resume over an out_dir whose committed docparts file was written
    in the pinned schema (as by an earlier version) gives, with the run
    that wrote it, the violation rows of one full pass: the duplicate
    spans both runs and its tolerated occurrence stays on the lowest
    partition_id."""
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import run_validation

    def cfg(run_id):
        return ValidationConfig(
            valid_sources=["web"],
            n_neighbors=2,
            run_id=run_id,
            driver_collect_bytes=collect_bytes,
        )

    p0, p1 = _rows("p0", ["a", "dup"]), _rows("p1", ["dup", "c", "dup"])
    full, out = str(tmp_path / "full"), str(tmp_path / "out")
    run_validation(rd.from_arrow(pa.concat_tables([p0, p1])), cfg("full"), out_dir=full)

    run_validation(rd.from_arrow(p1), cfg("r1"), out_dir=out)
    (written,) = glob.glob(os.path.join(out, "docparts", "r1", "*.parquet"))
    assert pq.read_schema(written).remove_metadata() == DOCPARTS_ON_DISK
    os.remove(written)
    pq.write_table(_old_docparts("p1", {"dup": 2, "c": 1}), written)

    res = run_validation(
        rd.from_arrow(pa.concat_tables([p0, p1])), cfg("r2"), out_dir=out, resume=True
    )
    assert res.skipped_partitions == 1
    got, want = _all_violations(out), _all_violations(full)
    pd.testing.assert_frame_equal(got, want)
    assert list(want["doc_id"]) == ["dup", "dup"]
    assert list(want["partition_id"]) == ["p1", "p1"]
