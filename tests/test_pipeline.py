"""End-to-end engine tests on the synthetic sequence table (FIXTURES.md §2):
planted violations detected exactly, drifted partitions flagged by LoOP,
token-array equality preserved, and checkpoint/resume producing an
identical final manifest.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from pynomaly_ray.config import ValidationConfig
from pynomaly_ray.sources.datagen import SOURCES, GenSpec, generate_dataset_dir


SPEC = GenSpec(parts_per_source=16, rows_per_part=128)
DATA_DIR = "/tmp/pnr_test/data"
CFG = dict(
    valid_sources=list(SOURCES),
    n_neighbors=10,
    extent=3,
    drift_threshold=0.5,
)


@pytest.fixture(scope="module")
def seq_dir(ray_session):
    generate_dataset_dir(DATA_DIR, SPEC)
    return DATA_DIR


@pytest.fixture(scope="module")
def result(seq_dir, ray_session):
    from pynomaly_ray.pipelines.validation import (
        run_validation,
        sequence_dataset_from_dir,
    )

    ds = sequence_dataset_from_dir(seq_dir)
    return run_validation(ds, ValidationConfig(**CFG), out_dir=None)


def test_planted_violations_exact(result):
    v = result.violations.to_pandas()
    by_check = v.groupby("check").size().to_dict()
    # datagen plants: 1 duplicate, 1 n_tok mismatch per source (4 sources),
    # 2 unknown sources, 1 null doc_id, 1 null tokens (FIXTURES.md §2).
    assert by_check == {
        "duplicate_doc_id": 1,
        "n_tok_mismatch": 4,
        "null_doc_id": 1,
        "null_tokens": 1,
        "unknown_source": 2,
    }
    dup = v[v.check == "duplicate_doc_id"].iloc[0]
    # the duplicated doc came from books-0000 row 0; the extra occurrence
    # lives in the lexicographically-last partition
    assert dup.doc_id == "books-0000-00000000"
    assert dup.partition_id == "wiki-0015"
    mism = v[v.check == "n_tok_mismatch"]
    assert set(mism.partition_id) == {f"{s}-0001" for s in SOURCES}


def test_drifted_partitions_flagged(result):
    rep = result.report.to_pandas()
    drifted = {f"{s}-{p:04d}" for s, p in SPEC.drifted}
    flagged = set(rep[rep.loop_score > 0.5].partition_id)
    assert flagged == drifted
    # drifted partitions fail; partitions with violations fail too
    assert (rep[rep.partition_id.isin(drifted)].status == "fail").all()
    viol_parts = set(result.violations.to_pandas().partition_id)
    assert (rep[rep.partition_id.isin(viol_parts)].status == "fail").all()
    clean = rep[~rep.partition_id.isin(drifted | viol_parts)]
    assert (clean.status == "pass").all()


def test_loop_scores_match_direct_loop_core(result):
    """The pipeline's loop scores equal a direct loop_core fit on the same
    stat table — the distributed path adds no numeric drift (1e-9 bar)."""
    from pynomaly_ray.state.drift import fit_drift_scores

    rep = result.report.to_pandas().sort_values("partition_id").reset_index(drop=True)
    df = pd.DataFrame(
        {
            "partition_id": rep.partition_id,
            "source": rep.source,
            "stat_vector": [np.asarray(v) for v in rep.stat_vector],
        }
    )
    scores, _ = fit_drift_scores(df, n_neighbors=10, extent=3)
    assert np.abs(scores - rep.loop_score.to_numpy()).max() <= 1e-9


def test_token_array_equality(seq_dir, ray_session):
    """Per-row invariant (BASELINE.json input_hint): token arrays pass
    through the engine unchanged — element-wise int32 equality between the
    generated input and what a validated read-back yields."""
    import ray.data as rd

    src = pq.read_table(os.path.join(seq_dir, "part-web-0003.parquet"))
    ds = rd.read_parquet(os.path.join(seq_dir, "part-web-0003.parquet"))
    back = ds.to_pandas()
    orig = src.to_pandas()
    back = back.sort_values("doc_id").reset_index(drop=True)
    orig = orig.sort_values("doc_id").reset_index(drop=True)
    assert len(back) == len(orig)
    for a, b in zip(back.tokens, orig.tokens):
        assert np.array_equal(np.asarray(a, dtype=np.int32), np.asarray(b, dtype=np.int32))


def test_resume_identical_manifest(seq_dir, ray_session):
    """Kill-and-restart semantics: running half the partitions, then
    resuming over the full input, yields a manifest identical to a single
    full run (north_rule)."""
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import run_validation
    from pynomaly_ray.state.manifest import completed_partitions

    out_full = "/tmp/pnr_test/out_full"
    out_resume = "/tmp/pnr_test/out_resume"
    shutil.rmtree(out_full, ignore_errors=True)
    shutil.rmtree(out_resume, ignore_errors=True)

    files = sorted(
        f for f in os.listdir(seq_dir) if f.endswith(".parquet")
    )
    half = [os.path.join(seq_dir, f) for f in files[: len(files) // 2]]
    full = [os.path.join(seq_dir, f) for f in files]

    cfg1 = ValidationConfig(**CFG, run_id="full")
    res_full = run_validation(rd.read_parquet(full), cfg1, out_dir=out_full)

    cfg2 = ValidationConfig(**CFG, run_id="part1")
    run_validation(rd.read_parquet(half), cfg2, out_dir=out_resume)
    done = completed_partitions(out_resume)
    assert 0 < len(done) < len(files)

    cfg3 = ValidationConfig(**CFG, run_id="part2")
    res_resumed = run_validation(
        rd.read_parquet(full), cfg3, out_dir=out_resume, resume=True
    )
    assert res_resumed.skipped_partitions == len(done)

    a = res_full.report.to_pandas()
    b = res_resumed.report.to_pandas()
    assert list(a.partition_id) == list(b.partition_id)
    assert list(a.n_rows) == list(b.n_rows)
    # loop scores differ between a global fit and two partial fits by
    # construction (drift is relative to the fitted population) and may
    # flip drift-only statuses; constraint results must be identical:
    assert list(a.n_violations) == list(b.n_violations)
    viol_parts = set(a[a.n_violations > 0].partition_id)
    af = a[a.partition_id.isin(viol_parts)]
    bf = b[b.partition_id.isin(viol_parts)]
    assert list(af.status) == list(bf.status) == ["fail"] * len(af)

    # the union of the two partial runs' violation files equals the full
    # run's violations exactly (incremental uniqueness correctness)
    def all_viols(out):
        d = os.path.join(out, "violations")
        frames = [
            pq.read_table(os.path.join(d, f)).to_pandas()
            for f in sorted(os.listdir(d))
        ]
        df = pd.concat(frames, ignore_index=True)
        return df.sort_values(
            ["partition_id", "doc_id", "check"], kind="mergesort"
        ).reset_index(drop=True)

    va, vb = all_viols(out_full), all_viols(out_resume)
    pd.testing.assert_frame_equal(va, vb)


def test_distributed_path_matches_local(result, seq_dir, ray_session):
    """Stage B's distributed hash_aggregate path produces exactly the
    same violations and reports as the driver-local path (the pipeline
    picks between them by tagged-stream size; both must agree)."""
    from pynomaly_ray.pipelines.validation import (
        run_validation,
        sequence_dataset_from_dir,
    )

    ds = sequence_dataset_from_dir(seq_dir)
    res_dist = run_validation(
        ds, ValidationConfig(**CFG, driver_collect_bytes=0), out_dir=None
    )
    a = result.report.to_pandas()
    b = res_dist.report.to_pandas()
    pd.testing.assert_frame_equal(
        a.drop(columns=["lineage", "stat_vector"]),
        b.drop(columns=["lineage", "stat_vector"]),
    )
    va = result.violations.to_pandas()
    vb = res_dist.violations.to_pandas()
    pd.testing.assert_frame_equal(va, vb)


def test_validated_output_token_equality(result, seq_dir, ray_session, tmp_path):
    """The validated-output sink excludes exactly the violating rows and
    preserves every surviving token array bit-for-bit (the per-row
    invariant of BASELINE.json input_hint), in a partitioned resumable
    layout."""
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import (
        sequence_dataset_from_dir,
        write_validated_output,
    )

    out = str(tmp_path / "out")
    viol_dir = tmp_path / "viol"
    viol_dir.mkdir()
    pq.write_table(result.violations, viol_dir / "part.parquet")
    ds = sequence_dataset_from_dir(seq_dir)
    dest = write_validated_output(ds, str(viol_dir), out, "r1")

    import os

    part_dirs = sorted(os.listdir(dest))
    assert any(d.startswith("partition_id=") for d in part_dirs)

    import pyarrow.dataset as pads

    back = (
        pads.dataset(dest, partitioning="hive")
        .to_table()
        .to_pandas()
        .sort_values("doc_id")
    )
    orig_files = [
        os.path.join(seq_dir, f)
        for f in sorted(os.listdir(seq_dir))
        if f.endswith(".parquet")
    ]
    orig = (
        pq.ParquetDataset(orig_files).read().to_pandas().sort_values("doc_id")
    )
    bad_ids = set(result.violations["doc_id"].drop_null().to_pylist())
    expected = orig[
        orig["doc_id"].notna()
        & orig["tokens"].notna()
        & ~orig["doc_id"].isin(bad_ids)
    ]
    assert len(back) == len(expected)
    merged = back.merge(
        expected[["doc_id", "tokens"]], on="doc_id", suffixes=("", "_in")
    )
    assert len(merged) == len(back)
    for a, b in zip(merged["tokens"], merged["tokens_in"]):
        assert np.array_equal(
            np.asarray(a, dtype=np.int32), np.asarray(b, dtype=np.int32)
        )


def test_stream_scorer_matches_reference_stream(result, ray_session):
    """StreamDriftScorer (actor-pool batch scorer) reproduces loop_core's
    stream() on the same frozen model."""
    import ray

    from pynomaly_ray.state.drift import StreamDriftScorer, fit_drift_scores

    rep = result.report.to_pandas().sort_values("partition_id").reset_index(drop=True)
    df = pd.DataFrame(
        {
            "partition_id": rep.partition_id,
            "source": rep.source,
            "stat_vector": [np.asarray(v) for v in rep.stat_vector],
        }
    )
    _, frozen = fit_drift_scores(df, n_neighbors=10, extent=3)

    scorer = StreamDriftScorer(frozen)
    scored = scorer(df.head(12).copy())

    from pynomaly_ray.loop_core import LocalOutlierProbability

    model = LocalOutlierProbability(
        frozen.points, n_neighbors=frozen.n_neighbors, extent=frozen.extent
    ).fit()
    for i in range(12):
        vec = (np.asarray(df.stat_vector.iloc[i]) - frozen.feat_mean) / frozen.feat_scale
        expected = float(np.asarray(model.stream(vec)))
        assert abs(scored.loop_score.iloc[i] - expected) <= 1e-9


def test_crashed_run_docparts_not_double_counted(seq_dir, ray_session, tmp_path):
    """A run that died after writing its docparts checkpoint but before
    committing its manifest must not poison later runs: its occurrence
    counts are untrusted (uncommitted), so re-validating the same
    partitions does not fabricate duplicates."""
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import run_validation

    out = str(tmp_path / "out")
    files = sorted(
        os.path.join(seq_dir, f)
        for f in os.listdir(seq_dir)
        if f.endswith(".parquet")
    )

    # simulate the crash: docparts dir exists for run "dead", no manifest
    cfg_dead = ValidationConfig(**CFG, run_id="dead")
    res = run_validation(rd.read_parquet(files), cfg_dead, out_dir=out)
    import shutil as sh

    sh.rmtree(os.path.join(out, "manifest"))
    sh.rmtree(os.path.join(out, "partitions"))
    sh.rmtree(os.path.join(out, "violations"))

    # fresh run over the same input with the stale docparts lying around
    cfg2 = ValidationConfig(**CFG, run_id="retry")
    res2 = run_validation(rd.read_parquet(files), cfg2, out_dir=out, resume=True)
    v = res2.violations.to_pandas()
    dups = v[v.check == "duplicate_doc_id"]
    # only the genuinely planted duplicate, not one per re-seen doc
    assert len(dups) == 1


def test_zero_valid_rows_run_still_commits(ray_session, tmp_path):
    """A run whose rows ALL fail validation still commits a manifest
    snapshot, so its docparts checkpoint stays trusted for cross-run
    duplicate detection."""
    import pyarrow as pa
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import run_validation

    bad = pa.table(
        {
            "doc_id": pa.array(["a", "b"], pa.string()),
            "tokens": pa.array([None, None], pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1], pa.int32()),
            "source": pa.array(["web", "web"], pa.string()),
            "partition_id": pa.array(["p0", "p0"], pa.string()),
        }
    )
    out = str(tmp_path / "out")
    cfg = ValidationConfig(valid_sources=["web"], run_id="allbad")
    run_validation(rd.from_arrow(bad), cfg, out_dir=out)
    import glob

    assert glob.glob(os.path.join(out, "manifest", "*-allbad.parquet"))
    from pynomaly_ray.pipelines.validation import _prior_docpart_dirs

    assert _prior_docpart_dirs(out, "nextrun", True) == [
        os.path.join(out, "docparts", "allbad")
    ]


def _web_rows(pid, n=4, source="web"):
    import pyarrow as pa

    return pa.table(
        {
            "doc_id": pa.array([f"{pid}-d{i}" for i in range(n)], pa.string()),
            "tokens": pa.array([[1, 2, 3]] * n, pa.list_(pa.int32())),
            "n_tok": pa.array([3] * n, pa.int32()),
            "source": pa.array([source] * n, pa.string()),
            "partition_id": pa.array([pid] * n, pa.string()),
        }
    )


@pytest.mark.parametrize("shape", ["no_partitions", "invalid_only", "fitted"])
def test_every_tail_shape_commits_what_it_returns(shape, ray_session, tmp_path):
    """The three ways a run can end with out_dir — no partitions left
    after resume, only all-invalid partitions, fitted partitions — each
    return the committed manifest, write partitions/<run>.parquet
    exactly when they have report rows, and leave docparts a later
    resume trusts."""
    import pyarrow as pa
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import (
        _prior_docpart_dirs,
        run_validation,
    )
    from pynomaly_ray.state.manifest import read_full_manifest

    def cfg(run_id):
        return ValidationConfig(valid_sources=["web"], n_neighbors=2, run_id=run_id)

    out = str(tmp_path / "out")
    run_validation(rd.from_arrow(_web_rows("p0")), cfg("r0"), out_dir=out)
    rows = {
        "no_partitions": _web_rows("p0"),  # all skipped: p0 is committed
        "invalid_only": _web_rows("p1", source="bogus"),
        "fitted": pa.concat_tables([_web_rows("p1"), _web_rows("p2")]),
    }[shape]
    res = run_validation(rd.from_arrow(rows), cfg("r1"), out_dir=out)

    assert res.report.equals(read_full_manifest(out))
    has_rows = shape != "no_partitions"
    assert os.path.exists(os.path.join(out, "partitions", "r1.parquet")) == has_rows
    assert os.path.join(out, "docparts", "r1") in _prior_docpart_dirs(out, "r2", True)

    # a later run repeating one of r1's doc_ids sees it as a duplicate
    again = _web_rows("pz", n=1).set_column(0, "doc_id", rows.slice(0, 1)["doc_id"])
    res2 = run_validation(rd.from_arrow(again), cfg("r2"), out_dir=out)
    dups = res2.violations.to_pandas()
    assert list(dups["check"]) == ["duplicate_doc_id"]
    assert list(dups["partition_id"]) == ["pz"]


def test_distributed_violation_cap(seq_dir, ray_session, monkeypatch, tmp_path):
    """Above the driver cap, the distributed path writes violations to
    parquet distributedly and keeps only per-partition counts on the
    driver; reports still carry correct n_violations."""
    import ray.data as rd

    import pynomaly_ray.pipelines.validation as V

    monkeypatch.setattr(V, "_MAX_DRIVER_VIOLATIONS", 0)
    out = str(tmp_path / "out")
    cfg = ValidationConfig(**CFG, run_id="capped", driver_collect_bytes=0)
    res = V.run_validation(
        rd.read_parquet(
            sorted(
                os.path.join(seq_dir, f)
                for f in os.listdir(seq_dir)
                if f.endswith(".parquet")
            )
        ),
        cfg,
        out_dir=out,
    )
    rep = res.report.to_pandas()
    assert rep.n_violations.sum() == 9  # planted violations all counted
    # rows landed in parquet (directory written by the distributed sink)
    vdir = os.path.join(out, "violations", "capped")
    assert os.path.isdir(vdir)
    vrows = pq.ParquetDataset(vdir).read()
    assert vrows.num_rows == 9
    # the result points at the authoritative distributed rows, and the
    # validated sink can filter straight from that directory (its ids
    # never touch the driver) — the review-r3 fix for the silent empty
    # violations table feeding an unfiltered "validated" output
    assert res.violations_dir == vdir
    dest = V.write_validated_output(
        rd.read_parquet(
            sorted(
                os.path.join(seq_dir, f)
                for f in os.listdir(seq_dir)
                if f.endswith(".parquet")
            )
        ),
        res.violations_dir,
        out,
        "capped",
    )
    wrote = pq.ParquetDataset(dest).read()
    bad_ids = set(vrows["doc_id"].to_pylist())
    assert bad_ids  # non-vacuous
    assert not (set(wrote["doc_id"].to_pylist()) & bad_ids)


def test_distributed_run_without_violations_feeds_the_sink(ray_session, tmp_path):
    """A distributed Stage B that finds no violation still leaves a
    readable violations directory, and the sink reading it writes every
    input row."""
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import (
        run_validation,
        write_validated_output,
    )

    out = str(tmp_path / "out")
    rows = _web_rows("p0", n=20)
    cfg = ValidationConfig(
        valid_sources=["web"], n_neighbors=2, run_id="clean", driver_collect_bytes=0
    )
    res = run_validation(rd.from_arrow(rows), cfg, out_dir=out)
    assert res.violations.num_rows == 0
    assert res.violations_dir == os.path.join(out, "violations", "clean")
    assert pq.read_table(res.violations_dir).num_rows == 0

    dest = write_validated_output(rd.from_arrow(rows), res.violations_dir, out, "clean")
    wrote = pq.ParquetDataset(dest).read()
    assert sorted(wrote["doc_id"].to_pylist()) == sorted(rows["doc_id"].to_pylist())


def test_single_partition_fit_scores_zero_not_nan(ray_session):
    """A 1-partition stat table must not produce NaN loop scores
    silently reported as 'pass' (review r3: k clamps to 0 there)."""
    import numpy as np
    import pandas as pd

    from pynomaly_ray.state.drift import fit_drift_scores

    stats_df = pd.DataFrame(
        {
            "partition_id": ["p0"],
            "source": ["web"],
            "stat_vector": [np.arange(8, dtype=np.float64)],
        }
    )
    scores, frozen = fit_drift_scores(stats_df, n_neighbors=10, extent=3)
    assert scores.shape == (1,) and scores[0] == 0.0
    assert np.isfinite(frozen.norm_plof) and frozen.n_neighbors >= 1


def test_stream_scorer_empty_batch(ray_session):
    import numpy as np
    import pandas as pd

    from pynomaly_ray.state.drift import StreamDriftScorer, fit_drift_scores

    stats_df = pd.DataFrame(
        {
            "partition_id": [f"p{i}" for i in range(12)],
            "source": ["web"] * 12,
            "stat_vector": [
                np.random.RandomState(i).rand(8) for i in range(12)
            ],
        }
    )
    _scores, frozen = fit_drift_scores(stats_df, n_neighbors=5, extent=3)
    out = StreamDriftScorer(frozen)(stats_df.iloc[:0].copy())
    assert len(out) == 0 and "loop_score" in out.columns


def test_stats_null_partition_id_never_raises(ray_session):
    """A valid row with NULL partition_id must flow into stats under the
    sentinel bucket, not crash stage A (factorize codes null as -1,
    which bincount rejects)."""
    import pyarrow as pa

    from pynomaly_ray.stages.validate import SequenceValidator

    t = pa.table(
        {
            "doc_id": pa.array(["a", "b"], pa.string()),
            "tokens": pa.array([[1, 2], [3, 4]], pa.list_(pa.int32())),
            "n_tok": pa.array([2, 2], pa.int32()),
            "source": pa.array(["web", "web"], pa.string()),
            "partition_id": pa.array(["p0", None], pa.string()),
        }
    )
    v = SequenceValidator(valid_sources=["web"], vocab_size=1024)
    out = v(t)  # must not raise
    assert out.num_rows > 0


def test_all_invalid_partition_reported_and_committed(ray_session, tmp_path):
    """A partition whose rows ALL fail validation appears in the report
    and manifest as a failure (0 valid rows, violation count, status
    fail) and is committed — not silently dropped and rescanned forever."""
    import pyarrow as pa
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import run_validation

    t = pa.table(
        {
            "doc_id": pa.array([None, "b2", "g1", "g2", "g3"], pa.string()),
            "tokens": pa.array(
                [None, None, [1, 2], [3], [4, 5, 6]], pa.list_(pa.int32())
            ),
            "n_tok": pa.array([1, 1, 2, 1, 3], pa.int32()),
            "source": pa.array(["web"] * 5, pa.string()),
            "partition_id": pa.array(
                ["bad", "bad", "good", "good", "good"], pa.string()
            ),
        }
    )
    out = str(tmp_path / "out")
    cfg = ValidationConfig(valid_sources=["web"], n_neighbors=2, run_id="r1")
    res = run_validation(rd.from_arrow(t), cfg, out_dir=out)
    rep = res.report.to_pandas().set_index("partition_id")
    assert rep.loc["bad", "status"] == "fail"
    assert rep.loc["bad", "n_rows"] == 0
    assert rep.loc["bad", "n_violations"] == 3  # null doc_id + 2x null tokens
    cfg2 = ValidationConfig(valid_sources=["web"], n_neighbors=2, run_id="r2")
    res2 = run_validation(rd.from_arrow(t), cfg2, out_dir=out)
    assert res2.skipped_partitions == 2  # 'bad' committed, not rescanned


def test_run_id_reuse_fails_fast(seq_dir, ray_session):
    """A committed run_id is single-use per out_dir: reuse would silently
    overwrite manifest/docparts/violations state (ADVICE r1)."""
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import run_validation

    out = "/tmp/pnr_test/out_runid_reuse"
    shutil.rmtree(out, ignore_errors=True)
    f = os.path.join(seq_dir, "part-web-0000.parquet")
    run_validation(rd.read_parquet(f), ValidationConfig(**CFG, run_id="x1"), out_dir=out)
    with pytest.raises(ValueError, match="already has a committed manifest"):
        run_validation(
            rd.read_parquet(f),
            ValidationConfig(**CFG, run_id="x1"),
            out_dir=out,
            resume=False,
        )


def test_manifest_snapshot_order_not_lexicographic(seq_dir, ray_session):
    """Snapshots win last-per-partition by SEQUENCE, not run_id name: a
    later run named 'a2' must override an earlier run named 'b1' for
    shared partitions (ADVICE r1: non-monotonic run_ids)."""
    import pyarrow as pa

    from pynomaly_ray.state.manifest import (
        read_full_manifest,
        write_manifest_snapshot,
    )

    out = "/tmp/pnr_test/out_seq_order"
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    def snap(status, run_id):
        return pa.table(
            {
                "partition_id": ["p0"],
                "source": ["web"],
                "n_rows": pa.array([1], pa.int64()),
                "n_violations": pa.array([0], pa.int64()),
                "loop_score": pa.array([0.0], pa.float64()),
                "status": [status],
            }
        )

    write_manifest_snapshot(out, snap("pass", "b1"), "b1")
    write_manifest_snapshot(out, snap("fail", "a2"), "a2")  # later, sorts-before name
    m = read_full_manifest(out).to_pandas()
    assert list(m.status) == ["fail"]

    # a legacy file whose run_id itself LOOKS like a sequence prefix
    # ("202608-night") must not be parsed as sequenced: it neither wins
    # over genuinely newer snapshots nor inflates the next sequence
    import pyarrow.parquet as _pq

    _pq.write_table(snap("pass", "legacy"), os.path.join(out, "manifest", "202608-night.parquet"))
    m = read_full_manifest(out).to_pandas()
    assert list(m.status) == ["fail"]  # the seq-000001 snapshot still wins
    path = write_manifest_snapshot(out, snap("pass", "c3"), "c3")
    assert os.path.basename(path) == "seq-000002-c3.parquet"  # not 202609


def test_validated_output_anti_join_path_identical(seq_dir, ray_session, monkeypatch, tmp_path):
    """Majority-violating input through the broadcast filter and the
    hash-partitioned anti-join filter: byte-identical validated output
    (the adaptive switch must be invisible)."""
    import pyarrow as pa
    import ray.data as rd

    import pynomaly_ray.pipelines.validation as V

    # majority-violating synthetic input: 3/4 of doc_ids flagged
    n = 400
    tok = pa.array([[1, 2, 3]] * n, pa.list_(pa.int32()))
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i:04d}" for i in range(n)], pa.string()),
            "tokens": tok,
            "n_tok": pa.array([3] * n, pa.int32()),
            "source": pa.array(["web"] * n, pa.string()),
            "partition_id": pa.array(
                [f"p{i % 4}" for i in range(n)], pa.string()
            ),
        }
    )
    viol = str(tmp_path / "viol")
    os.makedirs(viol)
    pq.write_table(
        pa.table({"doc_id": [f"d{i:04d}" for i in range(n) if i % 4 != 3]}),
        os.path.join(viol, "part.parquet"),
    )

    def read_back(out):
        import glob

        files = sorted(glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True))
        df = pd.concat([pq.read_table(f).to_pandas() for f in files])
        df = df.sort_values("doc_id").reset_index(drop=True)
        return df

    out_a = str(tmp_path / "broadcast")
    V.write_validated_output(rd.from_arrow(t), viol, out_a, "r1")
    a = read_back(out_a)

    monkeypatch.setenv("PNR_BROADCAST_ANTI_CAP", "10")  # force anti-join
    out_b = str(tmp_path / "antijoin")
    V.write_validated_output(rd.from_arrow(t), viol, out_b, "r1")
    b = read_back(out_b)

    assert len(a) == len(b) == n // 4
    assert list(a.doc_id) == list(b.doc_id)
    for x, y in zip(a.tokens, b.tokens):
        xa, ya = np.asarray(x, dtype=np.int32), np.asarray(y, dtype=np.int32)
        assert np.array_equal(xa, ya) and xa.dtype == ya.dtype


def test_review_regressions_r3c(ray_session):
    """Third review batch: null token elements, null-partition dup
    accounting, empty-merge sketches, schema pre-flight."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pynomaly_ray.config import ValidationConfig
    from pynomaly_ray.pipelines.validation import run_validation
    from pynomaly_ray.stages.validate import SequenceValidator

    # a NULL inside a token list must become a violation row, not a
    # TypeError that aborts the scan
    t = pa.table(
        {
            "doc_id": pa.array(["a", "b"], pa.string()),
            "tokens": pa.array([[1, 2, None], [3, 4]], pa.list_(pa.int32())),
            "n_tok": pa.array([3, 2], pa.int32()),
            "source": pa.array(["web", "web"], pa.string()),
            "partition_id": pa.array(["p0", "p0"], pa.string()),
        }
    )
    out = SequenceValidator(valid_sources=["web"], vocab_size=32768)(t)
    viol = out.filter(pa.compute.equal(out["kind"], "violation")).to_pandas()
    assert "null_token_element" in set(viol["check"])
    assert list(viol.loc[viol["check"] == "null_token_element", "doc_id"]) == ["a"]

    # duplicate doc_id whose occurrences have NULL partition_id must
    # still emit c-1 violations (groupby dropna was silently eating them)
    from pynomaly_ray.stages.uniqueness import emit_duplicate_violations

    g = pd.DataFrame(
        {
            "doc_id": ["d", "d"],
            "partition_id": [None, None],
            "cnt": np.array([1, 1], dtype=np.int64),
        }
    )
    rows = emit_duplicate_violations(g)
    assert len(rows) == 1 and rows.iloc[0]["check"] == "duplicate_doc_id"

    # empty sketch merges behave
    from pynomaly_ray.functions.sketches import (
        bloom_contains,
        bloom_partial,
        hll_estimate,
        hll_merge,
    )

    assert hll_estimate(hll_merge([])) == 0.0
    bits = bloom_partial(["x", "y"], m_bits=100)  # rounded up, no crash
    assert bloom_contains(bits, ["x", "y"]).all()

    # pre-flight: a mistyped table fails fast with a readable message
    bad = pa.table(
        {
            "doc_id": pa.array(["a"], pa.string()),
            "tokens": pa.array([[1]], pa.list_(pa.int64())),  # wrong item type
            "n_tok": pa.array([1], pa.int32()),
            "source": pa.array(["web"], pa.string()),
            "partition_id": pa.array(["p0"], pa.string()),
        }
    )
    import pytest as _pytest

    with _pytest.raises(ValueError, match="sequence schema"):
        run_validation(rd.from_arrow(bad), ValidationConfig(valid_sources=["web"]))
