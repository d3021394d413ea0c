"""The footer-planned sequence source and the fused Stage A scan.

``sequence_dataset_from_dir`` reads through ``SequenceParquetDatasource``:
read tasks planned from the footers, each a run of consecutive files
balanced by bytes, so Stage A's validator runs inside the read task.
These tests pin the source's contract (rows, file grouping, per-task
metadata, schema agreement), the fused plan and its task count, the
schema checks, and the distributed Stage B over one tagged block per
task.
"""

from __future__ import annotations

import math
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from pynomaly_ray.config import ValidationConfig
from pynomaly_ray.sources.datagen import (
    SOURCES,
    GenSpec,
    generate_partition,
    plant_violations,
)

SPEC = GenSpec(parts_per_source=10, rows_per_part=64)
MULTI_RG = "part-books-0003.parquet"  # written in 16-row row groups
EMPTY = "part-zz-empty.parquet"  # zero rows
CFG = dict(valid_sources=list(SOURCES), n_neighbors=10, extent=3, drift_threshold=0.5)
SORT_KEYS = [("partition_id", "ascending"), ("doc_id", "ascending"), ("n_tok", "ascending")]


def _partitions() -> dict[str, pa.Table]:
    tables = {
        f"{s}-{p:04d}": generate_partition(s, p, SPEC)
        for s in SPEC.sources
        for p in range(SPEC.parts_per_source)
    }
    plant_violations(tables, SPEC)
    return tables


def _write_dir(path, tables: dict[str, pa.Table]) -> str:
    os.makedirs(path, exist_ok=True)
    for key, t in tables.items():
        name = f"part-{key}.parquet"
        pq.write_table(t, os.path.join(path, name), row_group_size=16 if name == MULTI_RG else None)
    first = next(iter(tables.values()))
    pq.write_table(first.slice(0, 0), os.path.join(path, EMPTY))
    return str(path)


@pytest.fixture(scope="module")
def seq_dir(tmp_path_factory, ray_session):
    return _write_dir(tmp_path_factory.mktemp("seqsrc"), _partitions())


@pytest.fixture(scope="module")
def files(seq_dir):
    from pynomaly_ray.sources.parquet import parquet_files

    out = parquet_files(seq_dir)
    assert len(out) > 24  # past Ray's threshold for parallel footer fetches
    return out


def _task_log(monkeypatch) -> list[str]:
    """Names of the Ray tasks this process submits from now on."""
    from ray.remote_function import RemoteFunction

    names: list[str] = []
    real = RemoteFunction._remote

    def remote(fn_self, *args, **kwargs):
        names.append(fn_self._function.__name__)
        return real(fn_self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", remote)
    return names


def _spy_stage_b(monkeypatch, name: str) -> dict:
    """Record the tagged stream handed to a Stage B reduction."""
    import pynomaly_ray.pipelines.validation as V

    seen: dict = {}
    real = getattr(V, name)

    def spy(tagged, *rest):
        seen.update(stats=tagged.stats(), blocks=tagged.num_blocks(), bytes=tagged.size_bytes())
        return real(tagged, *rest)

    monkeypatch.setattr(V, name, spy)
    return seen


def _validate(ds, **kw):
    from pynomaly_ray.pipelines.validation import run_validation

    return run_validation(ds, ValidationConfig(**CFG, **kw))


def _table(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_rows_equal_read_parquet_clean(files, seq_dir):
    from pynomaly_ray.pipelines.validation import sequence_dataset_from_dir
    from pynomaly_ray.sources.parquet import read_parquet_clean

    ours = _table(sequence_dataset_from_dir(seq_dir))
    theirs = _table(read_parquet_clean(files))
    assert ours.num_rows == sum(pq.read_metadata(f).num_rows for f in files)
    assert ours.schema.metadata is None
    assert ours.schema == theirs.schema
    assert ours.sort_by(SORT_KEYS).equals(theirs.sort_by(SORT_KEYS))


def test_empty_directory_refused(tmp_path):
    from pynomaly_ray.pipelines.validation import sequence_dataset_from_dir

    with pytest.raises(ValueError, match="no \\*.parquet files"):
        sequence_dataset_from_dir(str(tmp_path))


def _footer_bytes(path: str) -> int:
    md = pq.read_metadata(path)
    return sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))


def _check_tasks(files, tasks, k) -> None:
    """``tasks`` is ``get_read_tasks(k)`` over ``files``: ``min(k, files)``
    runs of consecutive files, each file once and in order, each run at
    most its byte share plus the largest file (or a single file), and
    every task's metadata the sum of its files' footers."""
    assert len(tasks) == min(k, len(files))
    assert [f for t in tasks for f in t.metadata.input_files] == files
    nbytes = {f: _footer_bytes(f) for f in files}
    share = sum(nbytes.values()) / len(tasks)
    for task in tasks:
        mine = task.metadata.input_files
        assert mine
        assert task.metadata.num_rows == sum(pq.read_metadata(f).num_rows for f in mine)
        assert task.metadata.size_bytes == sum(nbytes[f] for f in mine)
        assert len(mine) == 1 or task.metadata.size_bytes <= share + max(nbytes.values())
        assert task.schema == pq.read_schema(mine[0]).remove_metadata()


def test_read_tasks_carry_their_footer(files, tmp_path):
    """``get_read_tasks(k)``: files grouped into ``min(k, files)`` runs of
    consecutive files balanced by footer bytes, each task's metadata the
    sum of its files' footers, and one block per row group when a task
    runs, the 4-row-group file and the empty file included."""
    from pynomaly_ray.sources.parquet import SequenceParquetDatasource

    source = SequenceParquetDatasource(files)
    for k in (1, 2, 7, len(files), len(files) + 5):
        _check_tasks(files, source.get_read_tasks(k), k)
    for k in (1, 7):
        for task in source.get_read_tasks(k):
            groups = [
                md.row_group(i)
                for md in map(pq.read_metadata, task.metadata.input_files)
                for i in range(md.num_row_groups)
            ]
            blocks = list(task())
            assert [b.num_rows for b in blocks] == [g.num_rows for g in groups]
            assert all(b.schema == task.schema for b in blocks)
    by_name = {
        os.path.basename(t.metadata.input_files[0]): t
        for t in source.get_read_tasks(len(files))
    }
    assert len(list(by_name[MULTI_RG]())) == 4
    assert by_name[EMPTY].metadata.num_rows == 0

    # balanced by bytes, not by file count: two large files then four
    # small ones go two ways as [large] [large + small...], and three
    # ways as [large] [large] [small...]
    t = generate_partition("web", 0, SPEC)
    skewed = []
    for i, rows in enumerate([64, 64, 2, 2, 2, 2]):
        skewed.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(t.slice(0, rows), skewed[-1])
    source = SequenceParquetDatasource(skewed)
    for k, sizes in ((2, [1, 5]), (3, [1, 1, 4])):
        tasks = source.get_read_tasks(k)
        _check_tasks(skewed, tasks, k)
        assert [len(t.metadata.input_files) for t in tasks] == sizes


def _planned_tasks(files) -> int:
    """Ray's read rule without its 200-block floor: twice the cluster's
    CPUs, at least one task per ``target_max_block_size`` of footer bytes,
    at most one task per file."""
    import ray
    from ray.data import DataContext

    cpus = int(ray.cluster_resources()["CPU"])
    block = DataContext.get_current().target_max_block_size
    by_bytes = math.ceil(sum(map(_footer_bytes, files)) / block)
    return min(len(files), max(2 * cpus, by_bytes))


def test_stage_a_is_one_fused_operator_with_the_planned_tasks(files, seq_dir, monkeypatch):
    """Stage A runs as ONE operator, the read with the validator fused
    in, with the planned task count: from the cluster's CPUs, and from
    the bytes once ``target_max_block_size`` asks for more blocks.  No
    footer-prefetch or sampling task runs."""
    from ray.data import DataContext

    from pynomaly_ray.pipelines.validation import sequence_dataset_from_dir
    from pynomaly_ray.sources.parquet import read_parquet_clean

    stray = {"_sample_fragment", "_fetch_metadata_serialization_wrapper"}
    ctx = DataContext.get_current()
    by_cpus = _planned_tasks(files)
    planned = []
    for block_bytes in (
        ctx.target_max_block_size,
        sum(map(_footer_bytes, files)) // (by_cpus + 3),
    ):
        monkeypatch.setattr(ctx, "target_max_block_size", block_bytes)
        planned.append(_planned_tasks(files))
        seen = _spy_stage_b(monkeypatch, "_post_scan_local")
        log = _task_log(monkeypatch)
        _validate(sequence_dataset_from_dir(seq_dir))
        monkeypatch.undo()
        ops = [ln for ln in seen["stats"].splitlines() if ln.startswith("Operator ")]
        assert len(ops) == 1, seen["stats"]
        assert ops[0].startswith(
            f"Operator 1 ReadSequenceParquet->MapBatches(SequenceValidator): "
            f"{planned[-1]} tasks executed"
        ), ops[0]
        assert log and not stray & set(log), sorted(set(log))
    assert by_cpus == planned[0] < planned[1] < len(files)

    # the same detector sees Ray's own parquet reader start those tasks
    log = _task_log(monkeypatch)
    read_parquet_clean(files).materialize()
    assert stray & set(log), sorted(set(log))


def test_report_and_violations_equal_read_parquet_clean_input(files, seq_dir):
    from pynomaly_ray.pipelines.validation import sequence_dataset_from_dir
    from pynomaly_ray.sources.parquet import read_parquet_clean

    ours = _validate(sequence_dataset_from_dir(seq_dir))
    theirs = _validate(read_parquet_clean(files))
    assert ours.violations.num_rows == 9  # the planted ones
    assert ours.violations.equals(theirs.violations)
    assert ours.report.equals(theirs.report)
    assert ours.n_sequences == theirs.n_sequences


def test_kernel_slices_do_not_change_the_result(seq_dir):
    """The validator cuts each block into kernel calls of cfg.batch_size
    rows; any slice size gives the same report and violations."""
    from pynomaly_ray.pipelines.validation import sequence_dataset_from_dir

    whole = _validate(sequence_dataset_from_dir(seq_dir))
    sliced = _validate(sequence_dataset_from_dir(seq_dir), batch_size=7)
    assert sliced.violations.equals(whole.violations)
    assert sliced.report.equals(whole.report)


def test_validator_cuts_blocks_into_batch_size_slices():
    """One kernel call per ``batch_size`` rows: a one-partition block of
    64 rows cut in 10-row slices yields 7 partial-stat rows, one per call."""
    from pynomaly_ray.stages.validate import SequenceValidator

    block = generate_partition("web", 2, SPEC)
    kinds = lambda out: pc.value_counts(out["kind"]).to_pylist()  # noqa: E731
    whole = SequenceValidator(valid_sources=list(SOURCES), vocab_size=SPEC.vocab_size)
    sliced = SequenceValidator(
        valid_sources=list(SOURCES), vocab_size=SPEC.vocab_size, batch_size=10
    )
    assert {"values": "partial", "counts": 1} in kinds(whole(block))
    assert {"values": "partial", "counts": 7} in kinds(sliced(block))
    assert sliced(block.slice(0, 0)).num_rows == 0


@pytest.mark.parametrize(
    "column, arr",
    [
        ("n_tok", lambda t: pc.cast(t["n_tok"], pa.string())),
        ("tokens", lambda t: pc.cast(t["tokens"], pa.list_(pa.int64()))),
    ],
)
def test_disagreeing_footers_refused_before_any_scan(tmp_path, monkeypatch, column, arr):
    """One file of many with a mistyped column: the source refuses the
    directory while planning, naming the column, and no task runs."""
    from pynomaly_ray.pipelines.validation import sequence_dataset_from_dir

    tables = _partitions()
    key = sorted(tables)[17]
    t = tables[key]
    tables[key] = t.set_column(t.schema.get_field_index(column), column, arr(t))
    d = _write_dir(tmp_path / "mixed", tables)
    log = _task_log(monkeypatch)
    with pytest.raises(ValueError, match=f"disagree on the schema.*{column}"):
        _validate(sequence_dataset_from_dir(d))
    assert log == []


def test_schema_preflight_fails_before_any_scan(tmp_path, monkeypatch):
    """Every file mistyped alike: the footers agree, and run_validation's
    pre-flight refuses the table before Stage A reads a byte."""
    from pynomaly_ray.pipelines.validation import sequence_dataset_from_dir

    tables = {
        k: t.set_column(
            t.schema.get_field_index("n_tok"), "n_tok", pc.cast(t["n_tok"], pa.int64())
        )
        for k, t in _partitions().items()
    }
    ds = sequence_dataset_from_dir(_write_dir(tmp_path / "wide", tables))
    log = _task_log(monkeypatch)
    with pytest.raises(ValueError, match="n_tok has type int64, expected int32"):
        _validate(ds)
    assert log == []


def test_mistyped_input_behind_a_map_fails_in_stage_a(tmp_path):
    """A ``read_parquet_clean`` input has no schema before it runs, so the
    pre-flight cannot see it; Stage A's validator refuses the first
    mistyped block with the same ValueError."""
    from pynomaly_ray.sources.parquet import parquet_files, read_parquet_clean

    tables = {
        k: t.set_column(
            t.schema.get_field_index("n_tok"), "n_tok", pc.cast(t["n_tok"], pa.int64())
        )
        for k, t in sorted(_partitions().items())[:4]
    }
    ds = read_parquet_clean(parquet_files(_write_dir(tmp_path / "wide", tables)))
    assert ds.schema(fetch_if_missing=False) is None
    with pytest.raises(ValueError, match="n_tok has type int64, expected int32"):
        _validate(ds)


def _stage_b_trace(monkeypatch) -> dict:
    """Record what each distributed Stage B does: its tagged blocks, the
    Ray Data executions it starts and the names of the tasks it submits."""
    import pynomaly_ray.pipelines.validation as V
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    tasks = _task_log(monkeypatch)
    executions: list = []
    real_execute = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        executions.append(self)
        return real_execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    seen: dict = {}
    real = V._post_scan_distributed

    def spy(tagged, *rest):
        t0, e0 = len(tasks), len(executions)
        seen["blocks"] = tagged.num_blocks()
        try:
            return real(tagged, *rest)
        finally:
            seen["tasks"] = tasks[t0:]
            seen["executions"] = len(executions) - e0

    monkeypatch.setattr(V, "_post_scan_distributed", spy)
    return seen


def test_distributed_stage_b_over_many_files(files, seq_dir, monkeypatch):
    """driver_collect_bytes=0 over one tagged block per read task: the
    same report and violations as the local path, from one split task
    per tagged block and no Ray Data execution inside Stage B."""
    import pynomaly_ray.pipelines.validation as V

    local = _validate(V.sequence_dataset_from_dir(seq_dir))

    stage_b = _stage_b_trace(monkeypatch)
    dist = _validate(V.sequence_dataset_from_dir(seq_dir), driver_collect_bytes=0)

    assert stage_b["blocks"] == _planned_tasks(files) > 1
    assert stage_b["executions"] == 0
    assert stage_b["tasks"].count("_split") == stage_b["blocks"]
    pd.testing.assert_frame_equal(local.violations.to_pandas(), dist.violations.to_pandas())
    cols = [c for c in local.report.column_names if c not in ("lineage", "stat_vector")]
    assert local.report.select(cols).equals(dist.report.select(cols))


def _sorted_rows(t: pa.Table) -> pd.DataFrame:
    keys = ["partition_id", "doc_id", "check"]
    return (
        t.select(["doc_id", "partition_id", "check", "detail"])
        .to_pandas()
        .sort_values(keys, kind="mergesort")
        .reset_index(drop=True)
    )


@pytest.mark.parametrize("over_cap", [False, True], ids=["rows", "over_cap"])
@pytest.mark.parametrize("p", [1, 3])
def test_local_and_distributed_stage_b_agree_on_a_resumed_run(
    p, over_cap, tmp_path, monkeypatch, ray_session
):
    """A committed run over every other partition, then a resumed run
    over all of them, on the local and on the distributed Stage B at a
    pinned exchange fan-out.  Two duplicates span committed and new
    partitions: the planted one, whose extra lands in a committed
    partition (an amendment), and one whose extra lands in a new one.
    Both paths give the same violations, the same manifest and the same
    docparts and violation rows on disk; over the driver cap both keep
    only counts, and their violation files hold the rows."""
    import pynomaly_ray.pipelines.validation as V
    from tests.conftest import pinned_fanout

    tables = _partitions()
    keys = sorted(tables)
    committed = keys[1::2]
    assert keys[-1] in committed  # the planted duplicate's extra
    extra = tables[keys[1]].slice(0, 1)
    new = tables[keys[2]]
    tables[keys[2]] = pa.concat_tables(
        [new, extra.set_column(4, "partition_id", new["partition_id"][:1])]
    )
    half = _write_dir(tmp_path / "half", {k: tables[k] for k in committed})
    full = _write_dir(tmp_path / "full", tables)
    if over_cap:
        monkeypatch.setattr(V, "_MAX_DRIVER_VIOLATIONS", 0)
    stage_b = _stage_b_trace(monkeypatch)

    def runs(out, **kw):
        with pinned_fanout(p):
            return [
                V.run_validation(
                    V.sequence_dataset_from_dir(d),
                    ValidationConfig(**CFG, run_id=run_id, **kw),
                    out_dir=str(out),
                )
                for run_id, d in (("r1", half), ("r2", full))
            ]

    local1, local = runs(tmp_path / "local")
    assert stage_b == {}
    dist1, dist = runs(tmp_path / "dist", driver_collect_bytes=0)

    assert stage_b["executions"] == 0
    assert stage_b["tasks"].count("_split") == stage_b["blocks"]
    prior = os.listdir(tmp_path / "dist" / "docparts" / "r1")
    assert stage_b["tasks"].count("_read_prior") == len(prior) > 0
    assert ("_split_block" in stage_b["tasks"]) == (p > 1)

    for res, out in ((local, "local"), (dist, "dist")):
        assert res.violations_dir == str(tmp_path / out / "violations" / "r2")
    want = _sorted_rows(pq.read_table(local.violations_dir))
    dups = want[want["check"] == "duplicate_doc_id"]
    assert set(dups["partition_id"]) == {keys[2], keys[-1]}
    pd.testing.assert_frame_equal(_sorted_rows(pq.read_table(dist.violations_dir)), want)
    for res in (local, dist):
        if over_cap:
            assert res.violations.num_rows == 0
        else:
            pd.testing.assert_frame_equal(_sorted_rows(res.violations), want)
    assert dist1.violations.equals(local1.violations)
    assert dist1.report.equals(local1.report)
    for run_id in ("r1", "r2"):
        for kind in ("docparts", "violations"):
            a, b = (
                pq.read_table(tmp_path / out / kind / run_id).to_pandas()
                for out in ("local", "dist")
            )
            cols = sorted(a.columns)
            assert len(a) > 0 and sorted(b.columns) == cols
            pd.testing.assert_frame_equal(
                a[cols].sort_values(cols).reset_index(drop=True),
                b[cols].sort_values(cols).reset_index(drop=True),
            )
    assert dist.report.equals(local.report)
    amended = local.report.to_pandas().set_index("partition_id").loc[keys[-1]]
    assert amended["status"] == "fail" and amended["n_violations"] >= 1
