"""Per-partition lineage + metrics manifest, and checkpoint/resume.

Layout (north_rule "resumable from checkpoint"):

    out_dir/
      violations/            parquet part files (violation rows)
      partitions/            parquet part files (per-partition reports)
      manifest/seq-<seq>-<run>.parquet  snapshots: one row per
                             partition (partition_id, source, n_rows,
                             n_violations, loop_score, status; FULL
                             records incl. stat_vector/lineage live in
                             partitions/<run>.parquet);
                             the zero-padded sequence prefix gives
                             snapshots an explicit monotonic order —
                             last-wins merges never depend on run_id
                             lexicographics.

A restarted run reads every snapshot under ``manifest/``, collects the
completed partition_ids, and *filters them out of the input scan* before
any heavy work (a broadcast anti-join, no shuffle).  Resume guarantee
(scoped): violations, n_rows and n_violations — the constraint results —
of a partial run + a resumed run union to exactly a single full run's
(asserted by the resume test).  Drift/loop_score columns are relative to
each run's fitted population, so a resumed run's scores are its own
fit's, not the hypothetical single-run fit's.

Run-ids are single-use: a second ``run_validation`` with a run_id that
already has a snapshot in this out_dir fails fast instead of silently
overwriting the committed state (duplicate-detection history would be
destroyed otherwise).
"""

from __future__ import annotations

import os
import re
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

from pynomaly_ray.state.commit import atomic_write

# Written snapshots carry an explicit "seq-" prefix so a run_id that
# happens to START with digits-dash (e.g. "202608-night") can never be
# misparsed as a sequenced file and win last-per-partition merges with a
# fake sequence number; anything not matching is treated as legacy.
_SNAP_RE = re.compile(r"^seq-(\d{6,})-(.+)\.parquet$")  # 6+ digits: seq 10^6 must still parse


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest")


def _snapshots(d: str) -> list[tuple[int, str, str]]:
    """(seq, run_id, file name) for every snapshot, oldest first.
    Legacy unprefixed files (``<run>.parquet``) sort before all
    sequenced ones, then by name."""
    out = []
    for name in os.listdir(d):
        if not name.endswith(".parquet"):
            continue
        m = _SNAP_RE.match(name)
        if m:
            out.append((int(m.group(1)), m.group(2), name))
        else:
            out.append((-1, name[: -len(".parquet")], name))
    return sorted(out, key=lambda t: (t[0], t[2]))


def committed_run_ids(out_dir: str) -> frozenset[str]:
    """run_ids with at least one committed manifest snapshot.

    Legacy files written before the ``seq-`` prefix were named
    ``NNNNNN-<run>.parquet``; their stem is ambiguous between "sequence
    prefix + run" and "run_id that starts with digits-dash", so BOTH
    readings count as committed — the reuse guard stays conservative
    across the format change.
    """
    d = manifest_dir(out_dir)
    if not os.path.isdir(d):
        return frozenset()
    runs: set[str] = set()
    for seq, run, _name in _snapshots(d):
        runs.add(run)
        if seq == -1:
            m = re.match(r"^\d{6}-(.+)$", run)
            if m:
                runs.add(m.group(1))
    return frozenset(runs)


def write_manifest_snapshot(
    out_dir: str, report: pa.Table, run_id: str
) -> str:
    """Write one atomic manifest snapshot for this run,
    under the next sequence number — later snapshots always win the
    last-per-partition merge regardless of run_id naming.  The
    read-assign-write of the sequence number is serialized by a lock
    file so two concurrent runs sharing an out_dir cannot claim the same
    sequence (flock semantics hold on local filesystems; on network
    filesystems without flock, keep one writer per out_dir)."""
    d = manifest_dir(out_dir)
    os.makedirs(d, exist_ok=True)
    lock_path = os.path.join(d, ".seq.lock")
    lock_fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
    try:
        try:
            import fcntl

            fcntl.flock(lock_fd, fcntl.LOCK_EX)
        except (ImportError, OSError):
            # non-POSIX (no fcntl) or a filesystem where flock itself
            # fails (NFS): degrade to the documented single-writer
            # assumption instead of aborting the commit
            pass
        existing = _snapshots(d)
        seq = (existing[-1][0] + 1) if existing else 0
        final = os.path.join(d, f"seq-{max(seq, 0):06d}-{run_id}.parquet")
        cols = [
            "partition_id",
            "source",
            "n_rows",
            "n_violations",
            "loop_score",
            "status",
        ]
        atomic_write(final, lambda f: pq.write_table(report.select(cols), f))
    finally:
        os.close(lock_fd)
    return final


def completed_partitions(out_dir: str) -> frozenset[str]:
    """partition_ids finished by any prior run (for resume skipping)."""
    d = manifest_dir(out_dir)
    if not os.path.isdir(d):
        return frozenset()
    done: set[str] = set()
    for _seq, _run, name in _snapshots(d):
        t = pq.read_table(os.path.join(d, name), columns=["partition_id"])
        done.update(t["partition_id"].to_pylist())
    return frozenset(done)


def read_full_manifest(out_dir: str) -> Optional[pa.Table]:
    """Union of all manifest snapshots, deduplicated by partition_id
    (newest snapshot wins, by sequence number)."""
    d = manifest_dir(out_dir)
    if not os.path.isdir(d):
        return None
    tables = [
        pq.read_table(os.path.join(d, name))
        for _seq, _run, name in _snapshots(d)
    ]
    if not tables:
        return None
    merged = pa.concat_tables(tables)
    df = merged.to_pandas().drop_duplicates("partition_id", keep="last")
    df = df.sort_values("partition_id", kind="mergesort").reset_index(drop=True)
    return pa.Table.from_pandas(df, preserve_index=False)
