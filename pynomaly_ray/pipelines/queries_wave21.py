"""Wave-21 pipelines: ordered-prefix analytics and decorrelation.

- ``customers_to_half_revenue`` — revenue concentration: the minimal
  number of top customers whose revenue reaches half the total.  The
  engine never sorts on the driver: per-customer revenue is one
  exchange, :func:`range_sort` (descending) delivers globally-ordered
  BLOCKS, the driver reduces one (sum, count) pair per block to locate
  the crossing block, and only THAT block is pulled and scanned — the
  ordered-prefix pattern that reads O(1) blocks no matter how many
  customers exist.  Ties are harmless: permuting equal revenues never
  changes the cumulative trajectory, so the crossing rank is unique.
- ``above_average_orders`` — the classic correlated subquery ("orders
  above their customer's average") decorrelated into one grouped
  aggregate plus one hash join, with the comparison kept in integers
  (``price * n > sum``) so no division touches the value surface.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from pynomaly_ray.functions.exchange import (
    collect_sorted,
    hash_aggregate,
    hash_join,
    range_sort,
)
from pynomaly_ray.pipelines.queries import ORACLE_QUERIES, _cents, _pq


def _per_customer_revenue(sf_dir: str):
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        df = (
            pd.DataFrame(
                {
                    "o_custkey": t["o_custkey"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "rev": _cents(
                        t["o_totalprice"].to_numpy(zero_copy_only=False)
                    ),
                }
            )
            .groupby("o_custkey", sort=False)["rev"]
            .sum()
            .reset_index(name="rev_cents")
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    return hash_aggregate(
        orders.map_batches(partial, batch_format="pyarrow"),
        ["o_custkey"],
        lambda df: df.groupby("o_custkey", sort=False)["rev_cents"]
        .sum()
        .reset_index(),
    )


@ray.remote
def _revenue_block_stat(t: pa.Table) -> tuple:
    if t.num_rows == 0 or "rev_cents" not in t.schema.names:
        return (0, 0)
    col = t["rev_cents"].to_numpy(zero_copy_only=False)
    return (int(col.sum()), len(col))


def q_customers_to_half_revenue(sf_dir: str):
    per_cust = _per_customer_revenue(sf_dir).materialize()
    ordered = range_sort(per_cust, "rev_cents", descending=True)
    refs = ordered.to_arrow_refs()

    stats = ray.get([_revenue_block_stat.remote(r) for r in refs])
    total = sum(s for s, _ in stats)
    total_customers = sum(c for _, c in stats)
    if total_customers == 0:
        return pd.DataFrame(
            {
                "n_to_half": pd.Series(dtype=np.int64),
                "total_customers": pd.Series(dtype=np.int64),
            }
        )
    # locate the crossing block from the per-block prefix, pull ONLY it
    run = 0
    n_before = 0
    n_to_half = total_customers  # fallback: crossing in the last row
    for i, (s, c) in enumerate(stats):
        if 2 * (run + s) >= total:
            blk = ray.get(refs[i])
            vals = blk["rev_cents"].to_numpy(zero_copy_only=False)
            cum = run + np.cumsum(vals)
            k = int(np.argmax(2 * cum >= total))
            n_to_half = n_before + k + 1
            break
        run += s
        n_before += c
    return pd.DataFrame(
        {
            "n_to_half": np.array([n_to_half], np.int64),
            "total_customers": np.array([total_customers], np.int64),
        }
    )


SQL_CUSTOMERS_TO_HALF_REVENUE = """
WITH c AS (
  SELECT o_custkey,
         CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS rev
  FROM orders GROUP BY o_custkey
),
t AS (SELECT CAST(SUM(rev) AS BIGINT) AS total FROM c),
r AS (
  SELECT rev,
         SUM(rev) OVER (ORDER BY rev DESC, o_custkey) AS cum,
         ROW_NUMBER() OVER (ORDER BY rev DESC, o_custkey) AS rk
  FROM c
)
SELECT CAST(MIN(rk) AS BIGINT) AS n_to_half,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM c) AS total_customers
FROM r CROSS JOIN t
WHERE 2 * cum >= t.total
"""

ORACLE_QUERIES["customers_to_half_revenue"] = (
    q_customers_to_half_revenue,
    SQL_CUSTOMERS_TO_HALF_REVENUE,
)


def q_above_average_orders(sf_dir: str):
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def slim(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "o_custkey": t["o_custkey"].cast(pa.int64()),
                "price_cents": pa.array(
                    _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))
                ),
            }
        )

    slimmed = orders.map_batches(slim, batch_format="pyarrow").materialize()

    def stat_partial(t: pa.Table) -> pa.Table:
        df = (
            pd.DataFrame(
                {
                    "o_custkey": t["o_custkey"].to_numpy(
                        zero_copy_only=False
                    ),
                    "price_cents": t["price_cents"].to_numpy(
                        zero_copy_only=False
                    ),
                }
            )
            .groupby("o_custkey", sort=False)["price_cents"]
            .agg(["count", "sum"])
            .reset_index()
            .rename(columns={"count": "n", "sum": "s"})
        )
        df["n"] = df["n"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    stats = hash_aggregate(
        slimmed.map_batches(stat_partial, batch_format="pyarrow"),
        ["o_custkey"],
        lambda df: df.groupby("o_custkey", sort=False)
        .agg(n=("n", "sum"), s=("s", "sum"))
        .reset_index(),
    )

    def keep_above(df: pd.DataFrame) -> pd.DataFrame:
        m = df["price_cents"].to_numpy(np.int64) * df["n"].to_numpy(
            np.int64
        ) > df["s"].to_numpy(np.int64)
        return df.loc[m, ["o_orderkey", "o_custkey", "price_cents"]]

    out = hash_join(slimmed, stats, ["o_custkey"], merge_fn=keep_above)
    df = collect_sorted(out, ["o_orderkey"])
    if df.empty or "o_orderkey" not in df.columns:
        return pd.DataFrame(
            {
                "o_orderkey": pd.Series(dtype=np.int64),
                "o_custkey": pd.Series(dtype=np.int64),
                "price_cents": pd.Series(dtype=np.int64),
            }
        )
    for c in ("o_orderkey", "o_custkey", "price_cents"):
        df[c] = df[c].astype(np.int64)
    return df[["o_orderkey", "o_custkey", "price_cents"]]


SQL_ABOVE_AVERAGE_ORDERS = """
WITH a AS (
  SELECT o_custkey,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS s
  FROM orders GROUP BY o_custkey
)
SELECT o_orderkey, o_custkey,
       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS price_cents
FROM orders JOIN a USING (o_custkey)
WHERE CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) * a.n > a.s
ORDER BY o_orderkey
"""

ORACLE_QUERIES["above_average_orders"] = (
    q_above_average_orders,
    SQL_ABOVE_AVERAGE_ORDERS,
)
