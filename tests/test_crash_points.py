"""A crash at every commit point of every persisted surface.

Every surface commits through ``state/commit.py``, and every publish
there goes through one rename (``commit._rename``).  For each surface
the test builds the committed old state, counts the driver-side
renames of a clean operation, then re-runs the operation from the old
state once per rename with that rename raising.  After each crash the
surface's public reader must return exactly the old state, and a clean
retry must return exactly the state of an uninterrupted operation.
One surface is also killed for real (``os._exit`` in a subprocess).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pynomaly_ray.state import commit

REPO = Path(__file__).resolve().parents[1]


class _Crash(BaseException):
    """Not an Exception: no ``except Exception`` in the engine swallows it,
    as none would swallow a killed process."""


def _renames(monkeypatch, crash_at=None) -> list:
    """Count commit renames from here on; raise at call ``crash_at``."""
    calls = []
    real = commit._rename

    def rename(src, dst):
        if len(calls) == crash_at:
            raise _Crash(dst)
        calls.append(dst)
        real(src, dst)

    monkeypatch.setattr(commit, "_rename", rename)
    return calls


def _refused(read, d):
    """The reader's view, or "refused" when the surface is not committed."""
    try:
        return read(d)
    except FileNotFoundError:
        return "refused"


def _rows(df: pd.DataFrame) -> list:
    cols = sorted(df.columns)
    return sorted(
        map(repr, df[cols].astype(object).itertuples(index=False, name=None))
    )


# ---- surfaces: setup(d) builds the old state, op(d) moves it on, read(d)
# is the surface's public reader ------------------------------------------

def _seq_files():
    from pynomaly_ray.sources.datagen import GenSpec, generate_dataset_dir

    d = "/tmp/pnr_test/crash_seq"
    generate_dataset_dir(d, GenSpec(parts_per_source=3, rows_per_part=24))
    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )


def _validation_cfg(run_id):
    from pynomaly_ray.config import ValidationConfig
    from pynomaly_ray.sources.datagen import SOURCES

    return ValidationConfig(
        valid_sources=list(SOURCES), n_neighbors=4, extent=3,
        drift_threshold=0.5, run_id=run_id,
    )


class Validation:
    """run_validation's out_dir: docparts, violations, frozen model,
    partition report and the manifest snapshot that commits the run."""

    def setup(self, d):
        import ray.data as rd

        from pynomaly_ray.pipelines.validation import run_validation

        files = _seq_files()
        run_validation(
            rd.read_parquet(files[: len(files) // 2]),
            _validation_cfg("r1"), out_dir=str(d),
        )

    def op(self, d):
        import ray.data as rd

        from pynomaly_ray.pipelines.validation import run_validation

        run_validation(
            rd.read_parquet(_seq_files()), _validation_cfg("r2"), out_dir=str(d)
        )

    def read(self, d):
        from pynomaly_ray.state.manifest import read_full_manifest

        return _rows(read_full_manifest(str(d)).to_pandas())


class ValidationAmend(Validation):
    """A resumed run whose duplicate lands in a partition an earlier run
    committed: the amendment of that partition commits with the run."""

    def _parts(self, pids):
        import ray.data as rd

        rows = [(f"{p}-d{i}", p) for p in pids for i in range(6)]
        rows += [("p1-d0", "p0")] if "p0" in pids else []
        return rd.from_arrow(pa.table({
            "doc_id": [r[0] for r in rows],
            "tokens": pa.array([[1, 2, 3]] * len(rows), pa.list_(pa.int32())),
            "n_tok": pa.array([3] * len(rows), pa.int32()),
            "source": ["web"] * len(rows),
            "partition_id": [r[1] for r in rows],
        }))

    def setup(self, d):
        from pynomaly_ray.pipelines.validation import run_validation

        run_validation(self._parts(["p1", "p2"]), _validation_cfg("r1"),
                       out_dir=str(d))

    def op(self, d):
        from pynomaly_ray.pipelines.validation import run_validation

        res = run_validation(self._parts(["p0", "p1", "p2", "p3"]),
                             _validation_cfg("r2"), out_dir=str(d))
        assert res.report.to_pandas().set_index("partition_id").loc[
            "p1", "n_violations"] == 1


class DriftModel:
    def _model(self, shift):
        from pynomaly_ray.state.drift import FrozenLoopModel

        return FrozenLoopModel(
            points=np.arange(12.0).reshape(4, 3) + shift,
            feat_mean=np.zeros(3) + shift, feat_scale=np.ones(3),
            prob_distances_ev_mean=0.5 + shift, norm_plof=1.0,
            n_neighbors=2, extent=3,
        )

    def setup(self, d):
        from pynomaly_ray.state.drift import save_frozen_model

        save_frozen_model(self._model(0.0), str(d / "m.npz"))

    def op(self, d):
        from pynomaly_ray.state.drift import save_frozen_model

        save_frozen_model(self._model(1.0), str(d / "m.npz"))

    def read(self, d):
        from pynomaly_ray.state.drift import load_frozen_model

        m = load_frozen_model(str(d / "m.npz"))
        return (m.points.tolist(), m.feat_mean.tolist(),
                m.prob_distances_ev_mean)


class Matview:
    def _delta(self, lo):
        import ray.data as rd

        return rd.from_pandas(
            pd.DataFrame({"k": np.arange(lo, lo + 40) % 5,
                          "v": np.arange(lo, lo + 40)})
        )

    def setup(self, d):
        from pynomaly_ray.state.matview import create_matview

        create_matview(str(d / "mv"), self._delta(0), ["k"],
                       {"n": (None, "count"), "s": ("v", "sum")})

    def op(self, d):
        from pynomaly_ray.state.matview import refresh_matview

        refresh_matview(str(d / "mv"), self._delta(100), "d1")

    def read(self, d):
        from pynomaly_ray.state.matview import load_manifest, read_matview

        return (load_manifest(str(d / "mv"))["applied_run_ids"],
                _rows(read_matview(str(d / "mv")).to_pandas()))


class Iteration:
    def _run(self, d, n):
        import ray.data as rd

        from pynomaly_ray.state.iteration import run_checkpointed

        run_checkpointed(
            str(d / "it"),
            lambda: rd.from_pandas(pd.DataFrame({"x": np.arange(6)})),
            lambda ds, i: ds.map_batches(
                lambda t: t.assign(x=t["x"] * 2 + i), batch_format="pandas"
            ),
            n,
        )

    def setup(self, d):
        self._run(d, 1)

    def op(self, d):  # one more round (each round is its own commit)
        self._run(d, 2)

    def read(self, d):
        from pynomaly_ray.state.iteration import committed_rounds, load_round

        rounds = committed_rounds(str(d / "it"))
        last = load_round(str(d / "it"), rounds[-1]).to_pandas()
        return rounds, sorted(last["x"].tolist())


def _table(lo, n=30):
    import ray.data as rd

    return rd.from_pandas(
        pd.DataFrame({"a": np.arange(lo, lo + n, dtype=np.int64),
                      "b": (np.arange(lo, lo + n) * 7 % 11).astype(np.int64)})
    )


class SortedWrite:
    def setup(self, d):
        (d / "L").mkdir()

    def op(self, d):
        from pynomaly_ray.sources.sorted_layout import write_sorted

        write_sorted(_table(0), "a", str(d / "L"), 3)

    def read(self, d):
        from pynomaly_ray.sources.sorted_layout import zone_pruned_scan

        return _rows(zone_pruned_scan(str(d / "L")).to_pandas())


class SortedAppend(SortedWrite):
    def setup(self, d):
        SortedWrite.op(self, d)

    def op(self, d):
        from pynomaly_ray.sources.sorted_layout import append_sorted

        append_sorted(_table(100), str(d / "L"), 2)


class ZorderWrite:
    def setup(self, d):
        (d / "Z").mkdir()

    def op(self, d):
        from pynomaly_ray.sources.zorder_layout import write_zorder

        write_zorder(_table(0), ["a", "b"], str(d / "Z"), 3, bits=2)

    def read(self, d):
        from pynomaly_ray.sources.zorder_layout import zorder_scan

        return _rows(zorder_scan(str(d / "Z")).to_pandas())


class ZorderAppend(ZorderWrite):
    def setup(self, d):
        ZorderWrite.op(self, d)

    def op(self, d):
        from pynomaly_ray.sources.zorder_layout import append_zorder

        append_zorder(_table(100), str(d / "Z"), 2)


class BucketedWrite:
    def setup(self, d):
        (d / "B").mkdir()

    def op(self, d):
        from pynomaly_ray.sources.bucketed import write_bucketed

        write_bucketed(_table(0), ["a"], 3, str(d / "B"))

    def read(self, d):
        from pynomaly_ray.sources.bucketed import bucketed_aggregate

        return _rows(bucketed_aggregate(str(d / "B"), lambda df: df).to_pandas())


class BucketedAppend(BucketedWrite):
    def setup(self, d):
        BucketedWrite.op(self, d)

    def op(self, d):
        from pynomaly_ray.sources.bucketed import append_bucketed

        append_bucketed(_table(100), str(d / "B"))


class IvfBuild:
    def setup(self, d):
        pass

    def op(self, d):
        import ray.data as rd

        from pynomaly_ray.sources.ivf_index import write_ivf_index

        X = np.random.default_rng(0).normal(size=(40, 4))
        emb = pa.table({
            "vec_id": pa.array(np.arange(40, dtype=np.int64)),
            "embedding": pa.array(X.tolist(), pa.list_(pa.float64())),
        })
        write_ivf_index(rd.from_arrow(emb), str(d / "ivf"), k=3, n_iter=2)

    def read(self, d):
        from pynomaly_ray.sources.ivf_index import ivf_search, load_manifest

        load_manifest(str(d / "ivf"))
        return _rows(ivf_search(str(d / "ivf"), np.eye(4)[:2], 3, 40))


def _docs(ids):
    import ray.data as rd

    return rd.from_pandas(pd.DataFrame({
        "doc_id": [f"d{i:02d}" for i in ids],
        "text": [f"text number {i % 4} " * 3 for i in ids],
    }))


class ExactIncremental:
    """A run of incremental exact dedup commits its hash table."""

    def setup(self, d):
        from pynomaly_ray.stages.dedup import exact_duplicates_incremental

        exact_duplicates_incremental(_docs(range(8)), str(d / "S"), "r1")

    def op(self, d):
        from pynomaly_ray.stages.dedup import exact_duplicates_incremental

        exact_duplicates_incremental(_docs(range(16)), str(d / "S"), "r2")

    def read(self, d):
        from pynomaly_ray.stages.dedup import _committed_state_dirs

        dirs = _committed_state_dirs(str(d / "S"), "hashes")
        files = [os.path.join(x, f) for x in dirs for f in sorted(os.listdir(x))
                 if f.endswith(".parquet")]
        rows = pa.concat_tables(
            [pq.read_table(f, columns=["doc_id", "content_hash"]) for f in files]
        )
        return _rows(rows.to_pandas())


class MinhashCompact:
    """Compaction folds committed band dirs into one committed dir."""

    def setup(self, d):
        from pynomaly_ray.stages.dedup import minhash_lsh_duplicates_incremental

        minhash_lsh_duplicates_incremental(_docs(range(6)), str(d / "S"), "r1")
        minhash_lsh_duplicates_incremental(_docs(range(12)), str(d / "S"), "r2")

    def op(self, d):
        from pynomaly_ray.stages.dedup import compact_minhash_state

        compact_minhash_state(str(d / "S"))

    def read(self, d):
        from pynomaly_ray.stages.dedup import _committed_state_dirs

        dirs = _committed_state_dirs(str(d / "S"), "bands")
        files = [os.path.join(x, f) for x in dirs for f in sorted(os.listdir(x))
                 if f.endswith(".parquet")]
        bands = pa.concat_tables([pq.read_table(f) for f in files])
        # the compacted dir's name depends on earlier crashed attempts
        return len(dirs), _rows(bands.to_pandas())


class CliRun:
    """``cli run`` commits each query's result with its _done.json (each
    query is its own commit; the batch resumes query by query)."""

    def setup(self, d):
        pass

    def op(self, d):
        from pynomaly_ray.cli import main

        main(["run", "--input", str(d), "--out", str(d / "batch"),
              "--queries", "crash_q", "--resume"])

    def read(self, d):
        qdir = d / "batch" / "crash_q"
        if not (qdir / "_done.json").exists():
            return None
        return pq.read_table(qdir / "result.parquet").num_rows


SURFACES = {
    "validation_manifest": Validation,
    "validation_amend": ValidationAmend,
    "drift_model": DriftModel,
    "matview_refresh": Matview,
    "iteration_rounds": Iteration,
    "sorted_write": SortedWrite,
    "sorted_append": SortedAppend,
    "zorder_write": ZorderWrite,
    "zorder_append": ZorderAppend,
    "bucketed_write": BucketedWrite,
    "bucketed_append": BucketedAppend,
    "ivf_build": IvfBuild,
    "exact_incremental": ExactIncremental,
    "minhash_compact": MinhashCompact,
    "cli_run": CliRun,
}


@pytest.fixture
def crash_registry(monkeypatch):
    from pynomaly_ray.pipelines.engine_queries import ENGINE_QUERIES

    monkeypatch.setitem(
        ENGINE_QUERIES, "crash_q", lambda _sf: pd.DataFrame({"x": range(3)})
    )


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_crash_at_every_commit_point(
    name, ray_session, tmp_path, monkeypatch, crash_registry
):
    s = SURFACES[name]()
    base = tmp_path / "base"
    base.mkdir()
    s.setup(base)
    old = _refused(s.read, base)

    clean = tmp_path / "clean"
    shutil.copytree(base, clean)
    calls = _renames(monkeypatch)
    s.op(clean)
    monkeypatch.setattr(commit, "_rename", os.replace)
    n = len(calls)
    new = s.read(clean)
    assert n >= 1 and new != old

    for k in range(n):
        d = tmp_path / f"crash{k}"
        shutil.copytree(base, d)
        _renames(monkeypatch, crash_at=k)
        with pytest.raises(_Crash):
            s.op(d)
        monkeypatch.setattr(commit, "_rename", os.replace)
        assert _refused(s.read, d) == old, f"crash at rename {k} of {n}"
        s.op(d)  # clean retry
        assert s.read(d) == new, f"retry after crash at rename {k} of {n}"


def test_bucketed_append_retry_with_another_delta(ray_session, tmp_path, monkeypatch):
    """A crashed append's files in buckets the retried delta never writes
    must not become part of the retry's generation."""
    from pynomaly_ray.sources.bucketed import append_bucketed

    s = BucketedAppend()
    s.setup(tmp_path)
    _renames(monkeypatch, crash_at=0)
    with pytest.raises(_Crash):
        append_bucketed(_table(100), str(tmp_path / "B"))
    monkeypatch.setattr(commit, "_rename", os.replace)
    append_bucketed(_table(100, n=1), str(tmp_path / "B"))
    want = pd.concat([_table(0).to_pandas(), _table(100, n=1).to_pandas()])
    assert s.read(tmp_path) == _rows(want)


_KILL = """
import os, sys
import pyarrow as pa
from pynomaly_ray.state import commit
from pynomaly_ray.state.manifest import write_manifest_snapshot

def die(src, dst):
    os._exit(17)

commit._rename = die
report = pa.table({c: pa.array(v) for c, v in %r.items()})
write_manifest_snapshot(sys.argv[1], report, "r2")
"""


def test_killed_process_leaves_old_manifest(tmp_path):
    """os._exit at the snapshot's rename: the snapshot never appears, the
    hidden temp does not count as a run, and the retry commits."""
    from pynomaly_ray.state.manifest import (
        committed_run_ids,
        read_full_manifest,
        write_manifest_snapshot,
    )

    def report(pids, score):
        return {
            "partition_id": pids, "source": ["web"] * len(pids),
            "n_rows": [10] * len(pids), "n_violations": [0] * len(pids),
            "loop_score": [score] * len(pids), "status": ["pass"] * len(pids),
        }

    out = str(tmp_path / "out")
    write_manifest_snapshot(out, pa.table(report(["p0", "p1"], 0.1)), "r1")
    old = read_full_manifest(out).to_pylist()

    new_rep = report(["p1", "p2"], 0.2)
    proc = subprocess.run(
        [sys.executable, "-c", _KILL % new_rep, out],
        env={**os.environ, "PYTHONPATH": str(REPO)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 17, proc.stderr
    assert read_full_manifest(out).to_pylist() == old
    assert committed_run_ids(out) == {"r1"}
    assert any(f.startswith(".") for f in os.listdir(os.path.join(out, "manifest")))

    write_manifest_snapshot(out, pa.table(new_rep), "r2")
    got = {r["partition_id"]: r["loop_score"] for r in read_full_manifest(out).to_pylist()}
    assert got == {"p0": 0.1, "p1": 0.2, "p2": 0.2}


def test_commit_primitive_is_the_only_rename():
    """Every commit goes through state/commit.py.  The only other renames
    in the package are the hide/unhide pair of a query that proves a read
    never touches a file (not a commit)."""
    allowed = {("pynomaly_ray/pipelines/queries_wave66.py", 2)}
    found = set()
    pat = re.compile(r"\bos\.(replace|rename)\(")
    for p in sorted((REPO / "pynomaly_ray").rglob("*.py")):
        rel = p.relative_to(REPO).as_posix()
        if rel == "pynomaly_ray/state/commit.py":
            continue
        n = len(pat.findall(p.read_text()))
        if n:
            found.add((rel, n))
    assert found == allowed


def test_commit_marker_convention_lives_in_commit_module():
    hits = [
        p.relative_to(REPO).as_posix()
        for p in (REPO / "pynomaly_ray").rglob("*.py")
        if ".commit-" in p.read_text()
    ]
    assert hits == ["pynomaly_ray/state/commit.py"]
