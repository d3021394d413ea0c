"""Expected outputs computed straight from the input files.

Nothing here imports the engine: every expectation is recomputed with
pyarrow and NumPy from the Parquet inputs (violation rows per check,
per-partition valid-row counts and mean sequence length) or, for the
drift scores, with a standalone brute-force LoOP over the stat vectors the
report publishes.  The checks then compare the engine's outputs against
these, so no check depends on a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

NULL_ID = "<null>"  # the documented sentinel for a null doc_id in violation rows


@dataclass
class Expected:
    """What a single full validation pass over ``files`` must report."""

    files: list
    rows: int = 0
    # multiset of (doc_id, partition_id, check)
    violations: Counter = field(default_factory=Counter)
    valid_rows: dict = field(default_factory=dict)  # partition_id -> rows
    mean_len: dict = field(default_factory=dict)  # partition_id -> mean len

    @property
    def n_valid(self) -> int:
        return sum(self.valid_rows.values())

    def violations_by_partition(self) -> Counter:
        out: Counter = Counter()
        for (_doc, pid, _check), n in self.violations.items():
            out[pid] += n
        return out

    def bad_doc_ids(self) -> set:
        return {doc for doc, _pid, _check in self.violations}


def _per_row_any(flag: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-list-row OR of a flag over the row's flat value positions."""
    cum = np.concatenate([[0], np.cumsum(flag, dtype=np.int64)])
    base = offsets - offsets[0]
    return (cum[base[1:]] - cum[base[:-1]]) > 0


def expected_from_files(files, valid_sources, vocab_size: int) -> Expected:
    exp = Expected(files=list(files))
    valid_src = set(valid_sources)
    occurrences: dict = {}  # doc_id -> list of partition_ids
    sum_len: Counter = Counter()
    for path in exp.files:
        t = pq.read_table(path)
        n = t.num_rows
        exp.rows += n
        doc = t["doc_id"].to_pylist()
        pid = t["partition_id"].to_pylist()
        src = t["source"].to_pylist()
        tok = t["tokens"].combine_chunks()
        null_doc = np.array([d is None for d in doc], dtype=bool)
        null_tok = tok.is_null().to_numpy(zero_copy_only=False)
        offsets = tok.offsets.to_numpy().astype(np.int64)
        lens = np.diff(offsets)
        n_tok = t["n_tok"].combine_chunks()
        n_tok_null = n_tok.is_null().to_numpy(zero_copy_only=False)
        n_tok_v = n_tok.fill_null(0).to_numpy().astype(np.int64)
        mismatch = ~null_tok & (n_tok_null | (n_tok_v != lens))
        unknown = np.array(
            [s is None or s not in valid_src for s in src], dtype=bool
        )
        values = tok.values.slice(offsets[0], offsets[-1] - offsets[0])
        flat_null = values.is_null().to_numpy(zero_copy_only=False)
        flat = values.fill_null(0).to_numpy().astype(np.int64)
        null_el = _per_row_any(flat_null, offsets) & ~null_tok
        oor = (
            _per_row_any(~flat_null & ((flat < 0) | (flat >= vocab_size)), offsets)
            & ~null_tok
        )
        checks = (
            ("null_doc_id", null_doc),
            ("null_tokens", null_tok),
            ("n_tok_mismatch", mismatch),
            ("unknown_source", unknown),
            ("null_token_element", null_el),
            ("token_out_of_range", oor),
        )
        bad = np.zeros(n, dtype=bool)
        for name, mask in checks:
            for i in np.flatnonzero(mask):
                d = doc[i] if doc[i] is not None else NULL_ID
                p = pid[i] if pid[i] is not None else NULL_ID
                exp.violations[(d, p, name)] += 1
            bad |= mask
        for i in np.flatnonzero(~bad):
            exp.valid_rows[pid[i]] = exp.valid_rows.get(pid[i], 0) + 1
            sum_len[pid[i]] += int(lens[i])
        for i in np.flatnonzero(~null_doc):
            occurrences.setdefault(doc[i], []).append(pid[i])
    # a doc_id seen c > 1 times yields c - 1 rows; the occurrence in the
    # lowest partition_id is the tolerated one
    for d, pids in occurrences.items():
        if len(pids) > 1:
            for p in sorted(pids)[1:]:
                exp.violations[(d, p, "duplicate_doc_id")] += 1
    exp.mean_len = {p: sum_len[p] / exp.valid_rows[p] for p in exp.valid_rows}
    return exp


def violation_counter(table: pa.Table) -> Counter:
    return Counter(
        zip(
            table["doc_id"].to_pylist(),
            table["partition_id"].to_pylist(),
            table["check"].to_pylist(),
        )
    )


def diff_counters(actual: Counter, expected: Counter, what: str) -> list[str]:
    missing = expected - actual
    extra = actual - expected
    if not missing and not extra:
        return []
    return [
        f"{what}: {sum(missing.values())} expected rows missing "
        f"(e.g. {sorted(missing)[:3]}), {sum(extra.values())} unexpected "
        f"(e.g. {sorted(extra)[:3]})"
    ]


def brute_force_loop(vectors: np.ndarray, n_neighbors: int, extent: int) -> np.ndarray:
    """LoOP (Kriegel et al., CIKM 2009) over z-scored feature columns:
    exact kNN by full pairwise Euclidean distance with the point itself
    excluded (neighbour order does not matter downstream), standard distance sqrt(mean squared kNN distance), PLOF
    against the neighbours' mean probabilistic distance, erf-normalised."""
    x = np.asarray(vectors, dtype=np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    z = (x - mean) / np.where(std > 0, std, 1.0)
    n, k = len(z), n_neighbors
    knn_d = np.empty((n, k))
    knn_i = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, 256):
        hi = min(lo + 256, n)
        d2 = np.zeros((hi - lo, n))
        for f in range(z.shape[1]):
            diff = z[lo:hi, f, None] - z[None, :, f]
            d2 += diff * diff
        d = np.sqrt(d2)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        idx = np.argpartition(d, k, axis=1)[:, :k]
        knn_i[lo:hi] = idx
        knn_d[lo:hi] = np.take_along_axis(d, idx, axis=1)
    pdist = extent * np.sqrt((knn_d**2).sum(axis=1) / k)
    ev = pdist[knn_i].mean(axis=1)
    if np.all(pdist == ev):
        return np.zeros(n)
    plof = pdist / np.where(ev == 0.0, 1e-8, ev) - 1.0
    nplof = extent * math.sqrt(float(np.mean(plof**2)))
    if np.all(plof == nplof):
        return np.zeros(n)
    return np.array(
        [max(0.0, math.erf(p / (nplof * math.sqrt(2.0)))) for p in plof]
    )


def check_report(
    report: pa.Table,
    exp: Expected,
    *,
    threshold: float,
    drifted: list,
    loop_params: tuple | None,
    loop_cache: dict | None = None,
) -> list[str]:
    """Per-partition checks of a full (single-run) report.

    ``loop_params`` = (n_neighbors, extent) re-scores the report's stat
    vectors with :func:`brute_force_loop` and requires a 1e-9 match;
    ``loop_cache`` keeps the brute-force scores of stat vectors already
    scored, keyed by their bytes, so a repeated round costs one lookup."""
    problems = []
    rep = report.to_pydict()
    pids = rep["partition_id"]
    if sorted(pids) != sorted(exp.valid_rows):
        problems.append(
            f"report partitions: {len(pids)} reported, "
            f"{len(exp.valid_rows)} expected"
        )
        return problems
    by_pid = {p: i for i, p in enumerate(pids)}
    nviol = exp.violations_by_partition()
    for p, i in by_pid.items():
        if rep["n_rows"][i] != exp.valid_rows[p]:
            problems.append(f"{p}: n_rows {rep['n_rows'][i]} != {exp.valid_rows[p]}")
        if rep["n_violations"][i] != nviol.get(p, 0):
            problems.append(
                f"{p}: n_violations {rep['n_violations'][i]} != {nviol.get(p, 0)}"
            )
        if "stat_vector" in rep:
            m = rep["stat_vector"][i][0]
            if abs(m - exp.mean_len[p]) > 1e-9 * max(1.0, abs(exp.mean_len[p])):
                problems.append(f"{p}: mean n_tok {m} != {exp.mean_len[p]}")
    scores = np.array(rep["loop_score"], dtype=np.float64)
    if not np.all((scores >= 0.0) & (scores <= 1.0)):
        problems.append("a loop_score lies outside [0, 1]")
    for p, i in by_pid.items():
        fail = rep["loop_score"][i] > threshold or rep["n_violations"][i] > 0
        if (rep["status"][i] == "fail") != fail:
            problems.append(f"{p}: status {rep['status'][i]} disagrees with score/violations")
    for p in drifted:
        if rep["loop_score"][by_pid[p]] <= threshold:
            problems.append(
                f"drifted partition {p} not flagged "
                f"(loop_score {rep['loop_score'][by_pid[p]]:.4f})"
            )
    if loop_params is not None:
        vec = np.array(rep["stat_vector"], dtype=np.float64)
        cache = {} if loop_cache is None else loop_cache
        key = (vec.tobytes(), loop_params)
        if key not in cache:
            cache[key] = brute_force_loop(vec, *loop_params)
        want = cache[key]
        worst = float(np.max(np.abs(want - scores)))
        if worst > 1e-9:
            problems.append(f"loop_score differs from brute-force LoOP by {worst:.3g}")
    return problems


def check_sink(dest: str, exp: Expected) -> tuple[list[str], list[str], int, int]:
    """Validated-rows sink against the full-pass expectation.

    Returns (problems, fault_rows_notes, rows_written, bytes_written).
    Every written row must be an input row with identical tokens, and
    every row whose doc_id has no violation must be written; rows whose
    doc_id has a violation must not be written (reported separately,
    since that is the known fault this check counts)."""
    files = [
        os.path.join(d, f)
        for d, _dirs, names in os.walk(dest)
        for f in names
        if f.endswith(".parquet")
    ]
    nbytes = sum(os.path.getsize(f) for f in files)
    got = pq.read_table(dest)
    got_pid = got["partition_id"].cast(pa.string()).to_pylist()
    got_doc = got["doc_id"].to_pylist()
    # rows the sink may write: non-null doc_id and tokens
    src = pa.concat_tables(
        pq.read_table(f, columns=["doc_id", "partition_id", "tokens"])
        for f in exp.files
    )
    src = src.filter(
        pc.and_(pc.is_valid(src["doc_id"]), pc.is_valid(src["tokens"]))
    )
    index = {}
    for i, key in enumerate(
        zip(src["doc_id"].to_pylist(), src["partition_id"].to_pylist())
    ):
        index.setdefault(key, []).append(i)
    problems = []
    take = []
    used: Counter = Counter()
    for key in zip(got_doc, got_pid):
        rows = index.get(key)
        if rows is None or used[key] >= len(rows):
            problems.append(f"sink wrote a row that is not in the input: {key}")
            break
        take.append(rows[used[key]])
        used[key] += 1
    if not problems:
        want_tok = src["tokens"].take(pa.array(take, pa.int64())).combine_chunks()
        if not want_tok.equals(got["tokens"].combine_chunks()):
            problems.append("sink token arrays differ from the input's")
    bad = exp.bad_doc_ids()
    expected_keys = Counter(
        key
        for key in zip(src["doc_id"].to_pylist(), src["partition_id"].to_pylist())
        if key[0] not in bad
    )
    missing = expected_keys - Counter(zip(got_doc, got_pid))
    if missing:
        problems.append(f"sink is missing {sum(missing.values())} valid rows")
    written = set(got_doc)
    leaked = Counter(
        check for (doc, _p, check), n in exp.violations.items()
        for _ in range(n) if doc in written
    )
    faults = [f"{n} {check}" for check, n in sorted(leaked.items())]
    return problems, faults, got.num_rows, nbytes
