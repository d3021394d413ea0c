"""Crash-safe checkpointing for ITERATIVE distributed computations.

The persisted-layout story (sources/bucketed.py, sources/sorted_layout
.py) makes one-shot outputs resumable; iterative algorithms (PageRank,
k-core, BFS, LoOP drift refits) have a different failure shape — a
pre-emption at round 17 of 20 should not recompute rounds 1..16.  This
module gives any driver-looped iteration the same contract the layouts
use:

- each round's state lands as ``round-<i>/part-*.parquet`` plus a
  commit marker for round ``<i>`` written LAST (a crashed round leaves an
  uncommitted directory scans never read, overwritten by the retry —
  deterministic file names within a round);
- resume loads the HIGHEST committed round and continues from it;
- integer state (this engine's fixed-point ranks, labels, hop counts)
  makes the resumed trajectory BIT-IDENTICAL to an uninterrupted run —
  there is nothing float-accumulated to drift.

Storage assumption matches the layouts: ``state_dir`` is shared
(object store / NFS mount) so any node can write its blocks and any
driver can resume.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as papq

import ray
import ray.data as rd

from pynomaly_ray.state.commit import atomic_write, committed, mark_committed


def _round_dir(state_dir: str, i: int) -> str:
    return os.path.join(state_dir, f"round-{i:05d}")


def committed_rounds(state_dir: str) -> list[int]:
    return sorted(int(name) for name in committed(state_dir))


def save_round(state_dir: str, i: int, ds) -> None:
    """Persist one round's state Dataset: deterministic per-block file
    names (a retried round overwrites its own files), marker LAST."""
    d = _round_dir(state_dir, i)
    if os.path.isdir(d):
        shutil.rmtree(d)  # uncommitted leftovers from a crashed attempt
    os.makedirs(d, exist_ok=True)
    refs = ds.to_arrow_refs()

    @ray.remote
    def _write(t: pa.Table, b: int) -> int:
        if t.num_rows == 0:
            return 0
        atomic_write(
            os.path.join(d, f"part-{b:05d}.parquet"),
            lambda f: papq.write_table(t.replace_schema_metadata(None), f),
        )
        return t.num_rows

    ray.get([_write.remote(r, b) for b, r in enumerate(refs)])
    mark_committed(state_dir, f"{i:05d}")


def load_round(state_dir: str, i: int):
    """The committed round's state as a Dataset (refuses uncommitted)."""
    if f"{i:05d}" not in committed(state_dir):
        raise FileNotFoundError(
            f"round {i} has no commit marker under {state_dir}; it was "
            "never completed — resume from committed_rounds() instead"
        )
    from pynomaly_ray.sources.parquet import read_parquet_clean

    return read_parquet_clean(_round_dir(state_dir, i))


def run_checkpointed(state_dir: str, init_fn, step_fn, n_rounds: int):
    """Drive ``state = step_fn(state, i)`` for rounds ``1..n_rounds``
    with per-round checkpoints; resumes from the highest committed
    round.  ``init_fn() -> Dataset`` builds round 0 only when no
    committed round exists.  Returns the final round's Dataset."""
    os.makedirs(state_dir, exist_ok=True)
    done = [i for i in committed_rounds(state_dir) if i <= n_rounds]
    if done:
        start = done[-1]
        state = load_round(state_dir, start).materialize()
    else:
        start = 0
        state = init_fn().materialize()
        save_round(state_dir, 0, state)
    for i in range(start + 1, n_rounds + 1):
        state = step_fn(state, i).materialize()
        save_round(state_dir, i, state)
    return state


def pagerank_rounds_checkpointed(sf_dir: str, state_dir: str, iters: int = 3):
    """The wave-18 integer PageRank driven through run_checkpointed —
    same arithmetic (the un-checkpointed ``pagerank`` queries() entry
    carries the oracle), now pre-emption-safe per round."""
    import numpy as np
    import pandas as pd

    from pynomaly_ray.functions.exchange import hash_aggregate, hash_join
    from pynomaly_ray.pipelines.queries_wave18 import (
        _PR_SCALE,
        pagerank_edges,
    )

    edges = pagerank_edges(sf_dir)
    deg = hash_aggregate(
        edges,
        ["u"],
        lambda df: df.groupby("u", sort=False)
        .size()
        .reset_index(name="d")
        .astype(np.int64),
    )
    edges_deg = hash_join(edges, deg, ["u"]).materialize()

    def both_ends(t: pa.Table) -> pa.Table:
        import numpy as _np

        uu = t["u"].to_numpy(zero_copy_only=False)
        vv = t["v"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(_np.unique(_np.concatenate([uu, vv])))}
        )

    nodes = hash_aggregate(
        edges.map_batches(both_ends, batch_format="pyarrow"),
        ["node"],
        lambda df: df.drop_duplicates(["node"]),
    ).materialize()
    n = nodes.count()
    if n == 0:
        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.int64()), "r": pa.array([], pa.int64())}
            )
        )
    r0 = _PR_SCALE // n
    base = (15 * _PR_SCALE) // (100 * n)

    def init_fn():
        import numpy as _np

        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": t["node"],
                    "r": pa.array(_np.full(t.num_rows, r0, dtype=_np.int64)),
                }
            )

        return nodes.map_batches(f, batch_format="pyarrow")

    def step_fn(ranks, _i):
        import numpy as _np

        def as_u(t: pa.Table) -> pa.Table:
            return pa.table({"u": t["node"], "r": t["r"]})

        def contrib(df: pd.DataFrame) -> pd.DataFrame:
            c = (85 * df["r"].to_numpy(_np.int64)) // (
                100 * df["d"].to_numpy(_np.int64)
            )
            return (
                pd.DataFrame({"v": df["v"].to_numpy(_np.int64), "s": c})
                .groupby("v", sort=False)["s"]
                .sum()
                .reset_index()
            )

        sums = hash_join(
            edges_deg,
            ranks.map_batches(as_u, batch_format="pyarrow"),
            ["u"],
            merge_fn=contrib,
        )

        def as_node(t: pa.Table) -> pa.Table:
            return pa.table({"node": t["v"], "s": t["s"]})

        def nxt(df: pd.DataFrame) -> pd.DataFrame:
            s = df["s"].fillna(0).astype(_np.int64)
            return pd.DataFrame(
                {
                    "node": df["node"].to_numpy(_np.int64),
                    "r": (base + s).to_numpy(_np.int64),
                }
            )

        return hash_join(
            nodes,
            hash_aggregate(
                sums.map_batches(as_node, batch_format="pyarrow"),
                ["node"],
                lambda df: df.groupby("node", sort=False)["s"]
                .sum()
                .reset_index(),
            ),
            ["node"],
            how="left",
            merge_fn=nxt,
        )

    return run_checkpointed(state_dir, init_fn, step_fn, iters)
