"""The validated-rows sink after a resume, and CLI guard rails: dedup
refuses incremental state it cannot keep, validate refuses to write
validated rows without an --out, a failing query does not stop a `run`
batch, and the IVF pruning proof matches whole path components."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow.dataset as pads
import pytest

from pynomaly_ray.cli import main
from pynomaly_ray.config import ValidationConfig
from pynomaly_ray.sources.datagen import SOURCES, GenSpec, generate_dataset_dir


def _cfg(run_id):
    return ValidationConfig(
        valid_sources=list(SOURCES), n_neighbors=4, extent=3,
        drift_threshold=0.5, run_id=run_id,
    )


def _sink_rows(dest):
    t = pads.dataset(dest, partitioning="hive").to_table().sort_by("doc_id")
    return t["doc_id"].to_pylist(), [
        np.asarray(x, dtype=np.int32).tolist() for x in t["tokens"].to_pylist()
    ]


@pytest.mark.parametrize("distributed", [False, True])
def test_resumed_sink_equals_one_full_pass(distributed, ray_session, tmp_path):
    """Committed half run, resumed full run, then the sink: the resumed
    run skips the committed partitions, so their violating doc_ids come
    from the committed run's violation file — none may leak."""
    import ray.data as rd

    from pynomaly_ray.pipelines.validation import (
        run_validation,
        write_validated_output,
    )

    data = "/tmp/pnr_test/sink_seq"
    generate_dataset_dir(data, GenSpec(parts_per_source=3, rows_per_part=24))
    files = sorted(
        os.path.join(data, f) for f in os.listdir(data) if f.endswith(".parquet")
    )

    full_dir = str(tmp_path / "full")
    full = run_validation(rd.read_parquet(files), _cfg("full"), out_dir=full_dir)
    want = write_validated_output(
        rd.read_parquet(files), full.violations_dir, full_dir, "full"
    )

    out = str(tmp_path / "out")
    half = run_validation(
        rd.read_parquet(files[: len(files) // 2]), _cfg("r1"), out_dir=out
    )
    assert half.violations["doc_id"].drop_null().to_pylist()  # non-vacuous
    cfg = _cfg("r2")
    if distributed:  # every tagged stream is over the driver cap
        cfg.driver_collect_bytes = 0
    res = run_validation(rd.read_parquet(files), cfg, out_dir=out)
    assert res.skipped_partitions > 0
    assert half.violations_dir == os.path.join(out, "violations", "r1")
    assert res.violations_dir == os.path.join(out, "violations", "r2")
    got = write_validated_output(rd.read_parquet(files), res.violations_dir, out, "r2")
    assert _sink_rows(got) == _sink_rows(want)


def test_sink_refuses_a_committed_run_without_violations_dir(ray_session, tmp_path):
    """A committed run whose violations directory is gone: the sink cannot
    tell which of that run's rows violated, so it raises instead of
    writing them."""
    import shutil

    import ray.data as rd

    from pynomaly_ray.pipelines.validation import (
        run_validation,
        write_validated_output,
    )

    data = "/tmp/pnr_test/sink_seq"
    generate_dataset_dir(data, GenSpec(parts_per_source=3, rows_per_part=24))
    files = sorted(
        os.path.join(data, f) for f in os.listdir(data) if f.endswith(".parquet")
    )
    out = str(tmp_path / "out")
    half = run_validation(
        rd.read_parquet(files[: len(files) // 2]), _cfg("r1"), out_dir=out
    )
    res = run_validation(rd.read_parquet(files), _cfg("r2"), out_dir=out)
    shutil.rmtree(half.violations_dir)
    with pytest.raises(ValueError, match="committed run 'r1'"):
        write_validated_output(rd.read_parquet(files), res.violations_dir, out, "r2")
    assert not os.path.exists(os.path.join(out, "validated", "r2"))


@pytest.mark.parametrize("method", ["exact", "simhash"])
def test_dedup_rejects_state_dir_without_minhash(method, tmp_path, capsys):
    state = tmp_path / "state"
    rc = main(
        ["dedup", "--input", str(tmp_path / "docs.parquet"),
         "--out", str(tmp_path / "out"), "--method", method,
         "--state-dir", str(state)]
    )
    assert rc == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert "--state-dir" in err and "minhash only" in err
    assert not state.exists() and not (tmp_path / "out").exists()


def test_validate_rejects_write_validated_without_out(
    tmp_path, capsys, monkeypatch
):
    """Without --out there is nowhere to write the validated rows: the
    command refuses before Ray starts instead of exiting as if it wrote."""
    import pynomaly_ray.cli as cli

    def no_ray(*_a, **_k):
        raise AssertionError("Ray started")

    monkeypatch.setattr(cli, "_ensure_ray", no_ray)
    rc = main(["validate", "--input", str(tmp_path), "--write-validated"])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert "--write-validated" in err and "--out" in err


def test_run_isolates_a_failing_query(ray_session, tmp_path, capsys, monkeypatch):
    import pandas as pd

    from pynomaly_ray.pipelines.engine_queries import ENGINE_QUERIES

    def ok(_sf):
        return pd.DataFrame({"x": [1, 2]})

    def boom(_sf):
        raise RuntimeError("planted failure")

    monkeypatch.setitem(ENGINE_QUERIES, "q_ok", ok)
    monkeypatch.setitem(ENGINE_QUERIES, "q_bad", boom)
    out = tmp_path / "batch"
    argv = ["run", "--input", str(tmp_path), "--out", str(out),
            "--queries", "q_bad,q_ok"]
    assert main(argv) == 1
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["ran"] == ["q_ok"]
    assert rep["failed"] == [
        {"name": "q_bad", "error": "RuntimeError: planted failure"}
    ]
    assert not (out / "q_bad" / "_done.json").exists()
    assert (out / "q_ok" / "_done.json").exists()

    monkeypatch.setitem(ENGINE_QUERIES, "q_bad", ok)
    assert main(argv + ["--resume"]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["skipped"] == ["q_ok"]
    assert rep["ran"] == ["q_bad"] and rep["failed"] == []


def test_ivf_probe_proof_matches_whole_cluster_dirs():
    from pynomaly_ray.sources.ivf_index import _assert_probed_only

    _assert_probed_only(
        ["/ix/clusters/cluster=1/a.parquet", "/ix/clusters/cluster=12/b.parquet"],
        [1, 12],
    )
    with pytest.raises(AssertionError, match="escaped"):
        _assert_probed_only(["/ix/clusters/cluster=12/b.parquet"], [1])
    with pytest.raises(AssertionError, match="escaped"):
        _assert_probed_only(["/ix/cluster=1/clusters/cluster=3/c.parquet"], [1])
