"""Oracle-checked query pipelines over the driver's testdata tables.

Each entry pairs a Ray-Data pipeline (callable taking ``sf_dir``) with an
ANSI-SQL oracle string DuckDB runs on the same parquet views.  Column
names and value semantics match EXACTLY between the two sides; every
float-derived aggregate is expressed in integer-exact form
(``floor(x*100 + 0.5)`` cents / 1e6-scaled scores) so the driver's
value-hash comparison is deterministic regardless of reduction order.

Execution shape shared by all queries:

- column-pruned ``read_parquet``;
- vectorized per-batch pre-aggregation in ``map_batches``;
- key-co-located merge via ``hash_aggregate`` (functions/exchange.py) —
  an explicit hash-partitioned exchange whose reducers run vectorized
  pandas, replacing Ray's per-row-Python sort-aggregate;
- small final results sorted on the driver (``collect_sorted`` /
  ``topk``), never a distributed sort of a driver-bound result.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from pynomaly_ray.functions.exchange import collect_sorted, hash_aggregate, topk
from pynomaly_ray.functions.hashing import nul_safe_key


_ROWS_PER_BLOCK = 65536


def _pq(sf_dir: str, table: str, columns=None, filter=None):
    """Column-pruned parquet read with block count sized to the data:
    Ray's default splits any file into ~2x-num-CPU blocks, which for
    small tables schedules dozens of sub-100-row tasks and dominates
    wall time with scheduling overhead.  One block per ~64k rows keeps
    per-task work meaningful at every scale.  ``filter`` is a pyarrow
    dataset expression pushed into the read (see read_parquet_clean)."""
    import pyarrow.parquet as papq

    from pynomaly_ray.sources.parquet import read_parquet_clean

    path = os.path.join(sf_dir, f"{table}.parquet")
    rows = papq.read_metadata(path).num_rows
    blocks = max(1, min(64, rows // _ROWS_PER_BLOCK + 1))
    return read_parquet_clean(
        path, columns=columns, override_num_blocks=blocks, filter=filter
    )


def _cents(x):
    """float dollars -> exact integer cents, identical in SQL as
    CAST(FLOOR(x * 100 + 0.5) AS BIGINT)."""
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def _collect(ds, schema: pa.Schema) -> pa.Table:
    """Materialize a (small) result Dataset into an Arrow table, keeping
    the declared schema even when the result is empty (an empty Ray
    Dataset otherwise loses its column names)."""
    import ray

    tables = ray.get(list(ds.to_arrow_refs()))
    tables = [t.select(schema.names).cast(schema) for t in tables if t.num_rows]
    if not tables:
        return schema.empty_table()
    return pa.concat_tables(tables)


def _from_pandas(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


# ---------------------------------------------------------------------------
# Q: lineitem_agg — TPC-H Q1-shaped grouped aggregate, partial+final.
# ---------------------------------------------------------------------------
def q_lineitem_agg(sf_dir: str):
    ds = _pq(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        price = df["l_extendedprice"].to_numpy()
        disc = df["l_discount"].to_numpy()
        df["base_cents"] = _cents(price)
        df["disc_cents"] = _cents(price * (1.0 - disc))
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(
                sum_qty=("l_quantity", "sum"),
                sum_base_cents=("base_cents", "sum"),
                sum_disc_cents=("disc_cents", "sum"),
                count_order=("l_quantity", "size"),
            )
            .reset_index()
        )
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .sum()
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    out = hash_aggregate(partials, ["l_returnflag", "l_linestatus"], merge)
    return collect_sorted(out, ["l_returnflag", "l_linestatus"])


SQL_LINEITEM_AGG = """
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
       COUNT(*) AS count_order
FROM lineitem
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# Q: n_chars_check — constraint predicate n_chars == length(text).
# ---------------------------------------------------------------------------
def q_n_chars_check(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def violations(batch: pa.Table) -> pa.Table:
        length = pc.utf8_length(batch["text"])
        bad = pc.not_equal(pc.cast(length, pa.int64()), batch["n_chars"])
        sel = batch.filter(pc.fill_null(bad, True))
        return pa.table(
            {
                "doc_id": sel["doc_id"],
                "n_chars": sel["n_chars"],
                "text_len": pc.cast(pc.utf8_length(sel["text"]), pa.int64()),
            }
        )

    out = _collect(
        ds.map_batches(violations, batch_format="pyarrow"),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_chars", pa.int64()),
                ("text_len", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_N_CHARS_CHECK = """
SELECT doc_id, n_chars, CAST(length(text) AS BIGINT) AS text_len
FROM documents
WHERE n_chars <> length(text)
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Q: dup_orderkeys — groupby-count duplicate detection (the uniqueness-
# check shape of the validation engine, on a table with repeated keys).
# ---------------------------------------------------------------------------
def q_dup_orderkeys(sf_dir: str):
    ds = _pq(sf_dir, "lineitem", ["l_orderkey"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("l_orderkey", sort=False).size().reset_index(name="cnt")
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", sort=False)["cnt"].sum().reset_index()
        return g[g["cnt"] > 1]

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    out = hash_aggregate(partials, ["l_orderkey"], merge)
    return collect_sorted(out, ["l_orderkey"])


SQL_DUP_ORDERKEYS = """
SELECT l_orderkey, COUNT(*) AS cnt
FROM lineitem
GROUP BY l_orderkey
HAVING COUNT(*) > 1
ORDER BY l_orderkey
"""


# ---------------------------------------------------------------------------
# Q: ref_membership — referential-integrity violations: events whose
# user_id is not a customer key.  Customer is FACT-SCALED, so the check
# routes through anti_membership's size switch: below ~10^6 keys the
# set broadcasts into a zero-copy is_in filter (no exchange of the fat
# event side at all); above, the key-partitioned hash_anti_join runs
# (each bucket probes its own 1/P key share).  NULL user_ids are
# violations by definition and can't ride a key-hash exchange — they
# split off in the scan and union back in.
# ---------------------------------------------------------------------------
def q_ref_membership(sf_dir: str):
    from pynomaly_ray.functions.exchange import anti_membership

    ds = _pq(sf_dir, "events", ["event_id", "user_id"])
    cust = _pq(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda t: t.rename_columns(["user_id"]), batch_format="pyarrow"
    )
    nulls = ds.map_batches(
        lambda t: t.filter(pc.is_null(t["user_id"])), batch_format="pyarrow"
    )
    nonnull = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["user_id"])), batch_format="pyarrow"
    )
    anti = anti_membership(nonnull, cust, "user_id")
    out = _collect(
        anti.union(nulls),
        pa.schema([("event_id", pa.int64()), ("user_id", pa.int64())]),
    )
    return collect_sorted(out, ["event_id"])


SQL_REF_MEMBERSHIP = """
SELECT event_id, user_id
FROM events
WHERE user_id IS NULL OR user_id NOT IN (SELECT c_custkey FROM customer)
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# Q: lang_membership — set-membership violation filter (broadcast side).
# ---------------------------------------------------------------------------
_ALLOWED_LANGS = ("de", "en", "fr")


def q_lang_membership(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "lang"])
    allowed = pa.array(_ALLOWED_LANGS, pa.string())

    def anti(batch: pa.Table) -> pa.Table:
        member = pc.is_in(batch["lang"], value_set=allowed)
        return batch.filter(pc.invert(pc.fill_null(member, False)))

    out = _collect(
        ds.map_batches(anti, batch_format="pyarrow"),
        pa.schema([("doc_id", pa.int64()), ("lang", pa.string())]),
    )
    return collect_sorted(out, ["doc_id"])


SQL_LANG_MEMBERSHIP = """
SELECT doc_id, lang
FROM documents
WHERE lang IS NULL OR lang NOT IN ('de', 'en', 'fr')
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Q: source_stats — per-source column statistics (engine stats kernel
# shape: integer-exact count/sum/min/max, partial+final merge).
# ---------------------------------------------------------------------------
def q_source_stats(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby("source", sort=False)
            .agg(
                n_docs=("n_chars", "size"),
                sum_chars=("n_chars", "sum"),
                min_chars=("n_chars", "min"),
                max_chars=("n_chars", "max"),
            )
            .reset_index()
        )
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("source", sort=False)
            .agg(
                n_docs=("n_docs", "sum"),
                sum_chars=("sum_chars", "sum"),
                min_chars=("min_chars", "min"),
                max_chars=("max_chars", "max"),
            )
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(partials, ["source"], merge)
    return collect_sorted(out, ["source"])


SQL_SOURCE_STATS = """
SELECT source, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
       MIN(n_chars) AS min_chars, MAX(n_chars) AS max_chars
FROM documents
GROUP BY source
ORDER BY source
"""


# ---------------------------------------------------------------------------
# Q: exact_dedup — exact dedup keep-first (min doc_id) per text content.
# ---------------------------------------------------------------------------
def q_exact_dedup(sf_dir: str):
    """Content is hashed to int64 in the scan; only (hash, min doc_id,
    count) partials cross the exchange — the text never leaves the map
    task (64-bit collision odds ~n^2/2^65, negligible at any sf here)."""
    from pynomaly_ray.functions.hashing import hash_strings

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "content_hash": hash_strings(batch["text"]).astype(np.int64),
                "doc_id": batch["doc_id"].to_pandas(),
            }
        )
        g = (
            df.groupby("content_hash", sort=False)
            .agg(doc_id=("doc_id", "min"), copies=("doc_id", "size"))
            .reset_index()
        )
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("content_hash", sort=False)
            .agg(doc_id=("doc_id", "min"), copies=("copies", "sum"))
            .reset_index()
        )
        return g[["doc_id", "copies"]]

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(partials, ["content_hash"], merge)
    return collect_sorted(out, ["doc_id"])


SQL_EXACT_DEDUP = """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS copies
FROM documents
GROUP BY text
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Q: token_counts — whitespace token counting per source (text-analysis
# operator), integer-exact.
# ---------------------------------------------------------------------------
def q_token_counts(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # explicit ASCII token class on BOTH sides (SQL below uses the
        # same regexp_extract_all) so the parity claim is independent of
        # whether the data contains unicode whitespace (Python str.split
        # and RE2 \s disagree there)
        df["n_tokens"] = (
            df["text"]
            .str.findall(r"[^ \t\n\r\f\v]+")
            .str.len()
            .fillna(0)
            .astype(np.int64)
        )
        g = (
            df.groupby("source", sort=False)
            .agg(sum_tokens=("n_tokens", "sum"), n_docs=("n_tokens", "size"))
            .reset_index()
        )
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("source", sort=False).sum().reset_index()

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(partials, ["source"], merge)
    return collect_sorted(out, ["source"])


SQL_TOKEN_COUNTS = r"""
SELECT source,
       CAST(SUM(length(regexp_extract_all(text, '[^ \t\n\r\f\v]+'))) AS BIGINT) AS sum_tokens,
       COUNT(*) AS n_docs
FROM documents
GROUP BY source
ORDER BY source
"""


# ---------------------------------------------------------------------------
# Q: top_events — global top-k via local top-k + driver merge (no global
# sort).
# ---------------------------------------------------------------------------
def q_top_events(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "value"])
    return topk(ds, ["value", "event_id"], 20, descending=[True, False])


SQL_TOP_EVENTS = """
SELECT event_id, user_id, value
FROM events
ORDER BY value DESC, event_id
LIMIT 20
"""


# ---------------------------------------------------------------------------
# Q: hourly_events — tumbling-window aggregate over event time
# (streaming-shaped workload as groupby over exact epoch-hour buckets).
# ---------------------------------------------------------------------------
def q_hourly_events(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        epoch_us = df["ts"].astype("int64")
        df["hour_bucket"] = epoch_us // 3_600_000_000
        df["value_cents"] = _cents(df["value"].to_numpy())
        g = (
            df.groupby(["event_type", "hour_bucket"], sort=False)
            .agg(n_events=("value_cents", "size"), sum_value_cents=("value_cents", "sum"))
            .reset_index()
        )
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["event_type", "hour_bucket"], sort=False)
            .sum()
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    out = hash_aggregate(partials, ["event_type", "hour_bucket"], merge)
    return collect_sorted(out, ["event_type", "hour_bucket"])


SQL_HOURLY_EVENTS = """
SELECT event_type,
       CAST(FLOOR(epoch_us(ts) / 3600000000) AS BIGINT) AS hour_bucket,
       COUNT(*) AS n_events,
       CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events
GROUP BY event_type, CAST(FLOOR(epoch_us(ts) / 3600000000) AS BIGINT)
ORDER BY event_type, hour_bucket
"""


# ---------------------------------------------------------------------------
# Q: knn_cosine — brute-force cosine top-k similarity search against a
# broadcast query vector (the ANN baseline; scores integer-scaled 1e6).
# ---------------------------------------------------------------------------
def q_knn_cosine(sf_dir: str):
    import pyarrow.parquet as pq

    # deterministic query vector: the embedding of vec_id == 0 — fetched
    # with a row filter, never by materializing the whole table
    emb0 = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "==", 0)],
    )
    q = np.asarray(emb0["embedding"][0].as_py(), dtype=np.float64)
    qn = q / np.linalg.norm(q)

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])

    def score(batch: pa.Table) -> pa.Table:
        from pynomaly_ray.stages.similarity import _embedding_matrix

        M = _embedding_matrix(batch)
        norms = np.linalg.norm(M, axis=1)
        s = (M @ qn) / np.where(norms > 0, norms, 1.0)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "score_e6": pa.array(
                    np.floor(s * 1_000_000 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow", batch_size=8192)
    return topk(scored, ["score_e6", "vec_id"], 10, descending=[True, False])


SQL_KNN_COSINE = """
SELECT vec_id,
       CAST(FLOOR(list_cosine_similarity(embedding::DOUBLE[],
            (SELECT embedding::DOUBLE[] FROM embeddings WHERE vec_id = 0))
            * 1000000 + 0.5) AS BIGINT) AS score_e6
FROM embeddings
ORDER BY score_e6 DESC, vec_id
LIMIT 10
"""


ORACLE_QUERIES = {
    "lineitem_agg": (q_lineitem_agg, SQL_LINEITEM_AGG),
    "n_chars_check": (q_n_chars_check, SQL_N_CHARS_CHECK),
    "dup_orderkeys": (q_dup_orderkeys, SQL_DUP_ORDERKEYS),
    "ref_membership": (q_ref_membership, SQL_REF_MEMBERSHIP),
    "lang_membership": (q_lang_membership, SQL_LANG_MEMBERSHIP),
    "source_stats": (q_source_stats, SQL_SOURCE_STATS),
    "exact_dedup": (q_exact_dedup, SQL_EXACT_DEDUP),
    "token_counts": (q_token_counts, SQL_TOKEN_COUNTS),
    "top_events": (q_top_events, SQL_TOP_EVENTS),
    "hourly_events": (q_hourly_events, SQL_HOURLY_EVENTS),
    "knn_cosine": (q_knn_cosine, SQL_KNN_COSINE),
}


# ---------------------------------------------------------------------------
# Q: segment_revenue — orders x customer partitioned hash join.  Customer
# is a FACT-SCALED table (TPC-H SF x 150k rows), so it goes through the
# key-partitioned exchange like any other fact table — never a driver
# dict captured in task closures (which would neither build nor ship at
# 100x).  The fat side (orders) is pre-aggregated per custkey inside the
# scan, and the join output collapses to per-segment partials inside
# each bucket task.
# ---------------------------------------------------------------------------
def q_segment_revenue(sf_dir: str):
    from pynomaly_ray.functions.exchange import hash_join

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def ord_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["total_cents"] = _cents(df["o_totalprice"].to_numpy())
        g = (
            df.groupby("o_custkey", sort=False)
            .agg(n_orders=("total_cents", "size"), sum_total_cents=("total_cents", "sum"))
            .reset_index()
        )
        return _from_pandas(g)

    ord_agg = orders.map_batches(ord_partial, batch_format="pyarrow", batch_size=65536)
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_mktsegment"]),
        batch_format="pyarrow",
    )

    def bucket_agg(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("c_mktsegment", sort=False)
            .agg(n_orders=("n_orders", "sum"), sum_total_cents=("sum_total_cents", "sum"))
            .reset_index()
        )

    joined = hash_join(ord_agg, cust, ["o_custkey"], merge_fn=bucket_agg)
    out = hash_aggregate(
        joined,
        ["c_mktsegment"],
        lambda df: df.groupby("c_mktsegment", sort=False).sum().reset_index(),
    )
    return collect_sorted(out, ["c_mktsegment"])


SQL_SEGMENT_REVENUE = """
SELECT c_mktsegment, COUNT(*) AS n_orders,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_total_cents
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
ORDER BY c_mktsegment
"""


# ---------------------------------------------------------------------------
# Q: priority_lines — both-sides-large partitioned hash join
# (lineitem x orders via functions/exchange.hash_join), aggregated
# inside each join bucket so the fat join output never materializes.
# ---------------------------------------------------------------------------
def q_priority_lines(sf_dir: str):
    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def hot_lines(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["l_quantity"], 45.0))

    li = li.map_batches(hot_lines, batch_format="pyarrow")
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_orderpriority"]),
        batch_format="pyarrow",
    )

    from pynomaly_ray.functions.exchange import hash_join

    def bucket_agg(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("o_orderpriority", sort=False)
            .agg(n_lines=("l_quantity", "size"), sum_qty=("l_quantity", "sum"))
            .reset_index()
        )

    joined = hash_join(li, orders, ["l_orderkey"], merge_fn=bucket_agg)

    def final_merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_orderpriority", sort=False).sum().reset_index()

    out = hash_aggregate(joined, ["o_orderpriority"], final_merge)
    return collect_sorted(out, ["o_orderpriority"])


SQL_PRIORITY_LINES = """
SELECT o_orderpriority, COUNT(*) AS n_lines, SUM(l_quantity) AS sum_qty
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_quantity > 45
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Q: distinct_users — exact COUNT(DISTINCT) per group: two-level hash
# aggregation (dedup (event_type, user_id), then count).
# ---------------------------------------------------------------------------
def q_distinct_users(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates(["event_type", "user_id"])
        return _from_pandas(df)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["event_type", "user_id"])
        return (
            d.groupby("event_type", sort=False)["user_id"]
            .nunique()
            .reset_index(name="n_users")
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    # bucket by event_type so each reducer holds full distinct sets per key
    out = hash_aggregate(partials, ["event_type"], merge)
    return collect_sorted(out, ["event_type"])


SQL_DISTINCT_USERS = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_users
FROM events
GROUP BY event_type
ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# Q: user_sessions — sessionization (streaming-shaped): per user, events
# sorted by time; gaps > 30 min start a new session.  Key-co-located
# per-bucket vectorized pandas; oracle via SQL window functions.
# ---------------------------------------------------------------------------
_SESSION_GAP_US = 30 * 60 * 1_000_000


def q_user_sessions(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id", "ts"])

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):  # empty buckets reach the reducer schema-only
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype=np.int64),
                    "n_sessions": pd.Series(dtype=np.int64),
                }
            )
        df = df.sort_values(["user_id", "ts"], kind="mergesort")
        us = df["ts"].astype("int64").to_numpy()
        uid = df["user_id"].to_numpy()
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        gap = np.concatenate([[0], us[1:] - us[:-1]])
        starts = new_user | (gap > _SESSION_GAP_US)
        out = pd.DataFrame({"user_id": uid, "is_start": starts.astype(np.int64)})
        return (
            out.groupby("user_id", sort=False)["is_start"]
            .sum()
            .reset_index(name="n_sessions")
        )

    out = hash_aggregate(ds, ["user_id"], sessions)
    return collect_sorted(out, ["user_id"])


SQL_USER_SESSIONS = """
SELECT user_id, CAST(SUM(is_start) AS BIGINT) AS n_sessions FROM (
  SELECT user_id,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                   OR epoch_us(ts) - epoch_us(lag(ts) OVER (PARTITION BY user_id ORDER BY ts))
                      > 1800000000
              THEN 1 ELSE 0 END AS is_start
  FROM events
) GROUP BY user_id
ORDER BY user_id
"""


ORACLE_QUERIES.update(
    {
        "segment_revenue": (q_segment_revenue, SQL_SEGMENT_REVENUE),
        "priority_lines": (q_priority_lines, SQL_PRIORITY_LINES),
        "distinct_users": (q_distinct_users, SQL_DISTINCT_USERS),
        "user_sessions": (q_user_sessions, SQL_USER_SESSIONS),
    }
)


# ---------------------------------------------------------------------------
# Q: asof_orders — distributed as-of join (events -> each user's latest
# order at event time), per-bucket pd.merge_asof vs DuckDB ASOF JOIN.
# The matched order *date* (not key) is projected: tie-invariant when a
# customer has several orders on one date.
# ---------------------------------------------------------------------------
def q_asof_orders(sf_dir: str):
    from pynomaly_ray.functions.exchange import asof_join

    events = _pq(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        lambda t: t.rename_columns(["user_id", "o_orderdate"]),
        batch_format="pyarrow",
    )
    joined = asof_join(
        events, orders, by="user_id", left_on="ts", right_on="o_orderdate"
    )

    def project(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        day = (df["o_orderdate"].astype("int64") // 86_400_000_000).astype("int64")
        return _from_pandas(
            pd.DataFrame({"event_id": df["event_id"], "order_day": day})
        )

    out = joined.map_batches(project, batch_format="pyarrow")
    return collect_sorted(out, ["event_id"])


SQL_ASOF_ORDERS = """
SELECT event_id,
       CAST(FLOOR(epoch_us(o_orderdate) / 86400000000) AS BIGINT) AS order_day
FROM events ASOF JOIN orders
  ON events.user_id = orders.o_custkey AND events.ts >= orders.o_orderdate
ORDER BY event_id
"""

ORACLE_QUERIES["asof_orders"] = (q_asof_orders, SQL_ASOF_ORDERS)


# ---------------------------------------------------------------------------
# Q: order_followups — distributed equi-key interval (range) join: for
# each order, the customer's OTHER orders placed inside its 60-day
# follow-up window [o_orderdate, o_orderdate + 60d).  A genuine interval
# join (a point order can fall inside SEVERAL overlapping windows), not a
# PK join with a filter.  The per-window aggregate runs inside the join
# buckets via range_join's merge_fn, so the pair blowup never leaves the
# task; prices are integer-scaled per row BEFORE the sum so the reduction
# is associative (a float sum's order would differ engine vs SQL).
# ---------------------------------------------------------------------------
def q_order_followups(sf_dir: str):
    from pynomaly_ray.functions.exchange import range_join

    def pts(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "f_orderkey": t["o_orderkey"],
                "f_date": t["o_orderdate"],
                "f_price": t["o_totalprice"],
            }
        )

    def wins(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return _from_pandas(
            pd.DataFrame(
                {
                    "o_custkey": df["o_custkey"],
                    "o_orderkey": df["o_orderkey"],
                    "win_lo": df["o_orderdate"],
                    "win_hi": df["o_orderdate"] + pd.Timedelta(days=60),
                }
            )
        )

    cols = ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    left = _pq(sf_dir, "orders", cols).map_batches(pts, batch_format="pyarrow")
    right = _pq(sf_dir, "orders", cols).map_batches(wins, batch_format="pyarrow")

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["f_orderkey"] != df["o_orderkey"]]
        if df.empty:
            return pd.DataFrame(
                {
                    "o_orderkey": pd.Series(dtype=np.int64),
                    "n_followups": pd.Series(dtype=np.int64),
                    "sum_followup_price_e2": pd.Series(dtype=np.int64),
                }
            )
        e2 = np.floor(df["f_price"].to_numpy() * 100 + 0.5).astype(np.int64)
        g = (
            df.assign(price_e2=e2)
            .groupby("o_orderkey", sort=False)
            .agg(
                n_followups=("price_e2", "size"),
                sum_followup_price_e2=("price_e2", "sum"),
            )
            .reset_index()
        )
        g["n_followups"] = g["n_followups"].astype(np.int64)
        return g

    # each o_orderkey belongs to exactly one o_custkey, so the per-bucket
    # aggregate is already FINAL — no second exchange needed
    out = range_join(
        left,
        right,
        by="o_custkey",
        left_on="f_date",
        right_lo="win_lo",
        right_hi="win_hi",
        merge_fn=agg,
    )
    return collect_sorted(out, ["o_orderkey"])


SQL_ORDER_FOLLOWUPS = """
SELECT r.o_orderkey,
       CAST(COUNT(*) AS BIGINT) AS n_followups,
       CAST(SUM(CAST(FLOOR(l.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_followup_price_e2
FROM orders l JOIN orders r
  ON l.o_custkey = r.o_custkey
 AND l.o_orderdate >= r.o_orderdate
 AND l.o_orderdate < r.o_orderdate + INTERVAL 60 DAY
 AND l.o_orderkey <> r.o_orderkey
GROUP BY r.o_orderkey
ORDER BY r.o_orderkey
"""

ORACLE_QUERIES["order_followups"] = (q_order_followups, SQL_ORDER_FOLLOWUPS)


# ---------------------------------------------------------------------------
# Q: knn_join — batch ANN join: top-5 cosine neighbors for EACH of the 10
# lowest-vec_id query vectors in ONE corpus pass (the k-NN-graph shape of
# embedding-based dedup / retrieval, vs knn_cosine's single query).  The
# normalized query matrix is ray.put ONCE and read per batch; one GEMM
# per batch scores all queries; local per-query top-5 is taken on the
# integer e6 grid under the SAME total order (score_e6 desc, vec_id asc)
# as the merge and the SQL twin, so local pruning cannot change the
# global answer; the exchange-merge on query_id keeps driver traffic at
# Q x k rows regardless of corpus size.
# ---------------------------------------------------------------------------
_KNN_JOIN_Q = 10
_KNN_JOIN_K = 5


def q_knn_join(sf_dir: str):
    import pyarrow.parquet as papq
    import ray as _ray

    from pynomaly_ray.stages.similarity import _embedding_matrix

    qt = papq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", _KNN_JOIN_Q)],
    )
    qids = np.asarray(qt["vec_id"].to_pylist(), dtype=np.int64)
    Q = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    o = np.argsort(qids, kind="stable")
    qids, Q = qids[o], Q[o]
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    qref = _ray.put((qids, Qn))
    k = _KNN_JOIN_K
    out_schema = pa.schema(
        [("query_id", pa.int64()), ("vec_id", pa.int64()), ("score_e6", pa.int64())]
    )

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        qids_l, Qn_l = _ray.get(qref)
        M = _embedding_matrix(batch)
        norms = np.linalg.norm(M, axis=1)
        S = (M / np.where(norms > 0, norms, 1.0)[:, None]) @ Qn_l.T  # (B, Q)
        e6 = np.floor(S * 1_000_000 + 0.5).astype(np.int64)
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        kk = min(k, len(vec_ids))
        qcol, vcol, scol = [], [], []
        for qi in range(len(qids_l)):
            col = e6[:, qi]
            sel = np.lexsort((vec_ids, -col))[:kk]
            qcol.append(np.full(kk, qids_l[qi], dtype=np.int64))
            vcol.append(vec_ids[sel])
            scol.append(col[sel])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(qcol), pa.int64()),
                "vec_id": pa.array(np.concatenate(vcol), pa.int64()),
                "score_e6": pa.array(np.concatenate(scol), pa.int64()),
            }
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(
                ["query_id", "score_e6", "vec_id"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("query_id", sort=False)
            .head(k)
            .reset_index(drop=True)
        )

    survivors = _pq(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        score, batch_format="pyarrow", batch_size=8192
    )
    out = hash_aggregate(survivors, ["query_id"], merge)
    return collect_sorted(out, ["query_id", "vec_id"])


SQL_KNN_JOIN = """
SELECT query_id, vec_id, score_e6 FROM (
  SELECT q.vec_id AS query_id, e.vec_id,
         CAST(FLOOR(list_cosine_similarity(
             e.embedding::DOUBLE[], q.embedding::DOUBLE[]
         ) * 1000000 + 0.5) AS BIGINT) AS score_e6,
         ROW_NUMBER() OVER (
             PARTITION BY q.vec_id
             ORDER BY CAST(FLOOR(list_cosine_similarity(
                 e.embedding::DOUBLE[], q.embedding::DOUBLE[]
             ) * 1000000 + 0.5) AS BIGINT) DESC, e.vec_id
         ) AS rn
  FROM embeddings q CROSS JOIN embeddings e
  WHERE q.vec_id < 10
)
WHERE rn <= 5
ORDER BY query_id, vec_id
"""

ORACLE_QUERIES["knn_join"] = (q_knn_join, SQL_KNN_JOIN)


# ---------------------------------------------------------------------------
# Q: nation_revenue — three-way join (TPC-H Q5 shape): lineitem x orders
# and then x customer, BOTH via the partitioned hash join — customer is
# fact-scaled (SF x 150k) so it must flow through the exchange, never a
# driver dict in a closure.  Only the genuinely constant-size nation
# dimension (25 rows) is resolved by broadcast dict lookup inside the
# bucket reducers.  Each join pre-aggregates so no stage's output grows
# beyond its key-space.
# ---------------------------------------------------------------------------
def q_nation_revenue(sf_dir: str):
    import pyarrow.parquet as papq

    from pynomaly_ray.functions.exchange import hash_join

    from pynomaly_ray.functions.exchange import dim_lookup

    nation = papq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    name_of_nation = dim_lookup(nation, "n_nationkey", "n_name")

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def li_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        price = df["l_extendedprice"].to_numpy()
        disc = df["l_discount"].to_numpy()
        df["disc_cents"] = _cents(price * (1.0 - disc))
        g = (
            df.groupby("l_orderkey", sort=False)
            .agg(n_lines=("disc_cents", "size"), disc_cents=("disc_cents", "sum"))
            .reset_index()
        )
        return _from_pandas(g)

    li_agg = li.map_batches(li_partial, batch_format="pyarrow", batch_size=65536)
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )

    def per_cust(df: pd.DataFrame) -> pd.DataFrame:
        # collapse the join output to per-customer partials inside the
        # bucket so the second join's left side is at most |customer|
        return (
            df.groupby("o_custkey", sort=False)
            .agg(n_lines=("n_lines", "sum"), disc_cents=("disc_cents", "sum"))
            .reset_index()
        )

    cust_rev = hash_join(li_agg, orders, ["l_orderkey"], merge_fn=per_cust)
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_nationkey"]),
        batch_format="pyarrow",
    )

    def per_nation(df: pd.DataFrame) -> pd.DataFrame:
        df["n_name"] = df["c_nationkey"].map(name_of_nation)
        return (
            df.groupby("n_name", sort=False)
            .agg(n_lines=("n_lines", "sum"), sum_disc_cents=("disc_cents", "sum"))
            .reset_index()
        )

    joined = hash_join(cust_rev, cust, ["o_custkey"], merge_fn=per_nation)
    out = hash_aggregate(
        joined,
        ["n_name"],
        lambda df: df.groupby("n_name", sort=False).sum().reset_index(),
    )
    return collect_sorted(out, ["n_name"])


SQL_NATION_REVENUE = """
SELECT n_name, COUNT(*) AS n_lines,
       CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
GROUP BY n_name
ORDER BY n_name
"""

ORACLE_QUERIES["nation_revenue"] = (q_nation_revenue, SQL_NATION_REVENUE)


# ---------------------------------------------------------------------------
# Q: embedding_neardup_exact — exact all-pairs cosine near-dup baseline:
# per-block matmul against the broadcast normalized corpus (the small
# side, shipped once via ray.put), checked against a DuckDB self-join.
# The LSH-bucketed variant (engine query embedding_neardup) is the scale
# path; this exact form is valid while the corpus matrix fits a worker
# (<= ~10^6 x 64 floats).
# ---------------------------------------------------------------------------
_NEARDUP_E6_THRESHOLD = 400_000  # cosine >= 0.4, cut on the e6 grid


def q_embedding_neardup_exact(sf_dir: str):
    import pyarrow.parquet as papq

    import ray

    corpus = papq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    from pynomaly_ray.stages.similarity import _embedding_matrix

    C = _embedding_matrix(corpus)
    cn = np.linalg.norm(C, axis=1)
    Cn = (C / np.where(cn > 0, cn, 1.0)[:, None]).T  # (dim, n) normalized
    corpus_ids = corpus["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    # broadcast once into the object store; each task reads it zero-copy
    # (a plain task-pool closure — the stage holds no state worth an
    # actor's spawn latency)
    cref = ray.put((Cn, corpus_ids))

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])

    def pair_scan(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_a": pa.array([], pa.int64()),
                    "vec_b": pa.array([], pa.int64()),
                    "cosine_e6": pa.array([], pa.int64()),
                }
            )
        Cn_l, ids_l = ray.get(cref)
        M = _embedding_matrix(batch)
        mn = np.linalg.norm(M, axis=1)
        S = (M / np.where(mn > 0, mn, 1.0)[:, None]) @ Cn_l
        bids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # threshold on the ROUNDED integer surface (cosine_e6), matching
        # the SQL cut exactly — a float compare against 0.4 could differ
        # between numpy and DuckDB for a pair landing on the boundary
        e6 = np.floor(S * 1_000_000 + 0.5)
        # ordered pairs only (a < b): each pair emitted exactly once
        mask = (e6 >= _NEARDUP_E6_THRESHOLD) & (bids[:, None] < ids_l[None, :])
        bi, cj = np.nonzero(mask)
        return pa.table(
            {
                "vec_a": pa.array(bids[bi], pa.int64()),
                "vec_b": pa.array(ids_l[cj], pa.int64()),
                "cosine_e6": pa.array(e6[bi, cj].astype(np.int64), pa.int64()),
            }
        )

    out = _collect(
        ds.map_batches(
            pair_scan,
            batch_format="pyarrow",
            batch_size=4096,
        ),
        pa.schema(
            [
                ("vec_a", pa.int64()),
                ("vec_b", pa.int64()),
                ("cosine_e6", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["vec_a", "vec_b"])


SQL_EMBEDDING_NEARDUP_EXACT = """
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       CAST(FLOOR(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[])
            * 1000000 + 0.5) AS BIGINT) AS cosine_e6
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE CAST(FLOOR(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[])
           * 1000000 + 0.5) AS BIGINT) >= 400000
ORDER BY vec_a, vec_b
"""


# ---------------------------------------------------------------------------
# Q: ref_membership_subset — the anti-join with a restricted valid set
# (even custkeys), so the check is NON-vacuous on this testdata (the
# plain ref_membership legitimately returns 0 rows here and proves only
# schema).  Returns per-user violation counts to keep the result small.
# ---------------------------------------------------------------------------
def q_ref_membership_subset(sf_dir: str):
    from pynomaly_ray.functions.exchange import anti_membership

    # the valid-key set is HALF of the fact-scaled customer table; the
    # anti_membership size switch broadcasts it at sandbox scale and
    # partitions it at 100x, like q_ref_membership
    valid = _pq(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda t: pa.table(
            {
                "user_id": t.filter(
                    pc.equal(pc.bit_wise_and(t["c_custkey"], 1), 0)
                )["c_custkey"]
            }
        ),
        batch_format="pyarrow",
    )
    ds = _pq(sf_dir, "events", ["event_id", "user_id"])
    nulls = ds.map_batches(
        lambda t: t.filter(pc.is_null(t["user_id"])), batch_format="pyarrow"
    )
    nonnull = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["user_id"])), batch_format="pyarrow"
    )
    bad = anti_membership(nonnull, valid, "user_id").union(nulls)

    def count_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby("user_id", sort=False, dropna=False)
            .size()
            .reset_index(name="n_bad_events")
        )
        return _from_pandas(g)

    partials = bad.map_batches(count_partial, batch_format="pyarrow")
    out = hash_aggregate(
        partials,
        ["user_id"],
        lambda df: df.groupby("user_id", sort=False, dropna=False).sum().reset_index(),
    )
    return collect_sorted(out, ["user_id"])


SQL_REF_MEMBERSHIP_SUBSET = """
SELECT user_id, COUNT(*) AS n_bad_events
FROM events
WHERE user_id IS NULL
   OR user_id NOT IN (SELECT c_custkey FROM customer WHERE c_custkey % 2 = 0)
GROUP BY user_id
ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# Q: long_docs — threshold filter returning real rows on this testdata
# (the n_chars_check violation scan is legitimately empty here).
# ---------------------------------------------------------------------------
def q_long_docs(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def pick(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.fill_null(pc.greater(batch["n_chars"], 450), False)
        )

    out = _collect(
        ds.map_batches(pick, batch_format="pyarrow"),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("source", pa.string()),
                ("n_chars", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_LONG_DOCS = """
SELECT doc_id, source, n_chars
FROM documents
WHERE n_chars > 450
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Q: latest_orders — keep-newest-per-key dedup (the "keep newest version
# of each doc" shape of training-data pipelines) as a rank/window query:
# per customer, the most recent order (orderkey as deterministic
# tiebreak).  Engine: per-batch partial keep-newest, then the same
# reduction per key bucket — no global sort, no window shuffle.
# ---------------------------------------------------------------------------
def q_latest_orders(sf_dir: str):
    ds = _pq(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])

    def keep_newest(df: pd.DataFrame) -> pd.DataFrame:
        # full-resolution epoch-us carried through the reduction so the
        # tiebreak matches ORDER BY o_orderdate DESC exactly; day floor
        # is applied only in the final projection
        if not len(df):
            return pd.DataFrame(
                {
                    "o_custkey": pd.Series(dtype=np.int64),
                    "o_orderkey": pd.Series(dtype=np.int64),
                    "order_us": pd.Series(dtype=np.int64),
                }
            )
        if "order_us" not in df.columns:
            df = df.assign(order_us=df["o_orderdate"].astype("int64"))
        df = df.sort_values(
            ["o_custkey", "order_us", "o_orderkey"],
            ascending=[True, False, False],
            kind="mergesort",
        )
        out = df.drop_duplicates("o_custkey", keep="first")
        return out[["o_custkey", "o_orderkey", "order_us"]].reset_index(drop=True)

    partials = ds.map_batches(
        lambda t: _from_pandas(keep_newest(t.to_pandas())),
        batch_format="pyarrow",
        batch_size=65536,
    )
    out = hash_aggregate(partials, ["o_custkey"], keep_newest)
    df = collect_sorted(out, ["o_custkey"])
    df["order_day"] = df.pop("order_us") // 86_400_000_000
    return df


SQL_LATEST_ORDERS = """
SELECT o_custkey, o_orderkey,
       CAST(FLOOR(epoch_us(o_orderdate) / 86400000000) AS BIGINT) AS order_day
FROM orders
QUALIFY row_number() OVER (
    PARTITION BY o_custkey
    ORDER BY o_orderdate DESC, o_orderkey DESC
) = 1
ORDER BY o_custkey
"""


# ---------------------------------------------------------------------------
# Q: top_events_per_type — rank/top-N-per-group window query: the three
# highest-value events of each type.  Engine: local top-3 per type in
# each batch, same reduction per type bucket; ranks assigned at the end.
# ---------------------------------------------------------------------------
def q_top_events_per_type(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "event_id", "value"])

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype=object),
                    "event_id": pd.Series(dtype=np.int64),
                    "value_cents": pd.Series(dtype=np.int64),
                }
            )
        if "value_cents" not in df.columns:
            df = df.assign(value_cents=_cents(df["value"].to_numpy()))
        df = df.sort_values(
            ["event_type", "value_cents", "event_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        out = df.groupby("event_type", sort=False).head(3)
        return out[["event_type", "event_id", "value_cents"]].reset_index(drop=True)

    partials = ds.map_batches(
        lambda t: _from_pandas(local_top(t.to_pandas())),
        batch_format="pyarrow",
        batch_size=65536,
    )
    merged = hash_aggregate(partials, ["event_type"], local_top)
    df = collect_sorted(merged, ["event_type"])
    df["rank"] = df.groupby("event_type", sort=False).cumcount() + 1
    return df.sort_values(["event_type", "rank"], kind="mergesort").reset_index(
        drop=True
    )


SQL_TOP_EVENTS_PER_TYPE = """
SELECT event_type, event_id,
       CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_cents,
       CAST(row_number() OVER (
           PARTITION BY event_type
           ORDER BY CAST(FLOOR(value * 100 + 0.5) AS BIGINT) DESC, event_id
       ) AS BIGINT) AS rank
FROM events
QUALIFY rank <= 3
ORDER BY event_type, rank
"""


# ---------------------------------------------------------------------------
# Q: source_median_chars — EXACT distributed median per group, computed
# from merged value counts (n_chars has a small discrete domain, so the
# count vector IS the sufficient statistic — no sample collection, no
# approximation; the classic count-sketch route to exact quantiles over
# discrete columns).
# ---------------------------------------------------------------------------
def q_source_median_chars(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["source", "n_chars"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["source", "n_chars"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        out_src, out_med = [], []
        for src, grp in g.groupby("source", sort=False):
            grp = grp.sort_values("n_chars", kind="mergesort")
            cum = grp["cnt"].cumsum().to_numpy()
            n = int(cum[-1])
            idx = (n - 1) // 2  # discrete lower median == quantile_disc 0.5
            pos = int(np.searchsorted(cum, idx + 1))
            out_src.append(src)
            out_med.append(int(grp["n_chars"].iloc[pos]))
        return pd.DataFrame(
            {
                "source": out_src,
                "median_chars": pd.array(out_med, dtype=np.int64),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(partials, ["source"], merge)
    return collect_sorted(out, ["source"])


SQL_SOURCE_MEDIAN_CHARS = """
SELECT source, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS median_chars
FROM documents
GROUP BY source
ORDER BY source
"""


# ---------------------------------------------------------------------------
# Q: top_lang_per_source — grouped mode with deterministic tiebreak
# (count desc, lang asc): partial counts -> merged counts -> per-group
# argmax inside the key-bucketed reducer.
# ---------------------------------------------------------------------------
def q_top_lang_per_source(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["source", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["source", "lang"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["source", "lang"], sort=False)["c"].sum().reset_index()
        g = g.sort_values(
            ["source", "c", "lang"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return g.drop_duplicates("source", keep="first").reset_index(drop=True)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(partials, ["source"], merge)
    return collect_sorted(out, ["source"])


SQL_TOP_LANG_PER_SOURCE = """
SELECT source, lang, c FROM (
  SELECT source, lang, COUNT(*) AS c FROM documents GROUP BY source, lang
) QUALIFY row_number() OVER (PARTITION BY source ORDER BY c DESC, lang) = 1
ORDER BY source
"""


# ---------------------------------------------------------------------------
# Q: token_frequency — global top-50 token frequency table (the
# vocabulary-building op of a training-data pipeline): per-batch
# value_counts partial -> token-hash exchange -> local+global top-k.
# ---------------------------------------------------------------------------
def q_token_frequency(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas().fillna("")
        # same explicit ASCII token class as the SQL's regexp_extract_all
        # (data-independent parity; see q_token_counts)
        counts = (
            s.str.findall(r"[^ \t\n\r\f\v]+").explode().dropna().value_counts()
        )
        return _from_pandas(
            pd.DataFrame(
                {"token": counts.index, "cnt": counts.to_numpy(dtype=np.int64)}
            )
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", sort=False)["cnt"].sum().reset_index()
        # local top-k per bucket: the global top-50 is necessarily within
        # the union of per-bucket top-50s (buckets partition the tokens)
        return g.sort_values(
            ["cnt", "token"], ascending=[False, True], kind="mergesort"
        ).head(50)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    merged = hash_aggregate(partials, ["token"], merge)
    df = merged.to_pandas()
    df = (
        df.sort_values(["cnt", "token"], ascending=[False, True], kind="mergesort")
        .head(50)
        .reset_index(drop=True)
    )
    return df


SQL_TOKEN_FREQUENCY = r"""
SELECT token, COUNT(*) AS cnt FROM (
  SELECT unnest(regexp_extract_all(text, '[^ \t\n\r\f\v]+')) AS token
  FROM documents
) GROUP BY token
ORDER BY cnt DESC, token
LIMIT 50
"""


# ---------------------------------------------------------------------------
# Q: trailing_events — sliding RANGE-window aggregate (streaming shape):
# for every event, how many events the same user fired in the trailing
# hour (inclusive).  Engine: user-bucketed exchange; inside each bucket
# a sorted two-pointer (vectorized searchsorted) per user — no window
# shuffle, no per-row Python.
# ---------------------------------------------------------------------------
_TRAIL_US = 3_600_000_000


def _trailing_window_kernel(df: pd.DataFrame) -> pd.DataFrame:
    if not len(df):
        return pd.DataFrame(
            {
                "event_id": pd.Series(dtype=np.int64),
                "n_trailing_1h": pd.Series(dtype=np.int64),
            }
        )
    df = df.sort_values(["user_id", "ts"], kind="mergesort")
    us = df["ts"].astype("int64").to_numpy()
    uid = df["user_id"].to_numpy()
    new_seg = np.concatenate([[True], uid[1:] != uid[:-1]])
    seg_id = np.cumsum(new_seg) - 1
    # offset-keyed searchsorted: give each user segment its own
    # disjoint key band (band width > time span + window) so ONE
    # global searchsorted answers every per-segment window query —
    # no Python loop proportional to the user count.  A query probe
    # (t - 1h) can dip below its band's first key but never reaches
    # the previous band's last key (bands are padded by the window),
    # so 'left' insertion stays inside the right segment.
    base = us - us.min()
    span = int(base.max()) + _TRAIL_US + 1
    n_segs = int(seg_id[-1]) + 1
    if n_segs * span < (1 << 62):
        keyed = seg_id * span + base  # globally sorted by construction
        lo = np.searchsorted(keyed, keyed - _TRAIL_US, side="left")
        # side='right' on the upper bound counts RANGE peers
        # (equal-ts rows) like SQL does
        hi = np.searchsorted(keyed, keyed, side="right")
        out = hi - lo
    else:  # unreachable at per-bucket scale; exact fallback
        starts = np.flatnonzero(new_seg)
        bounds = np.concatenate([starts, [len(df)]])
        out = np.empty(len(df), dtype=np.int64)
        for s, e in zip(bounds[:-1], bounds[1:]):
            seg = us[s:e]
            lo = np.searchsorted(seg, seg - _TRAIL_US, side="left")
            hi = np.searchsorted(seg, seg, side="right")
            out[s:e] = hi - lo
    return pd.DataFrame(
        {"event_id": df["event_id"].to_numpy(), "n_trailing_1h": out}
    )



def q_trailing_events(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = hash_aggregate(ds, ["user_id"], _trailing_window_kernel)
    return collect_sorted(out, ["event_id"])


SQL_TRAILING_EVENTS = """
SELECT event_id,
       CAST(COUNT(*) OVER (
           PARTITION BY user_id ORDER BY ts
           RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS n_trailing_1h
FROM events
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# Q: brand_revenue — lineitem x part partitioned hash join (fat side
# pre-aggregated per partkey inside the scan; join output collapsed by
# the in-bucket aggregate), grouped revenue per brand.
# ---------------------------------------------------------------------------
def q_brand_revenue(sf_dir: str):
    from pynomaly_ray.functions.exchange import hash_join

    li = _pq(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def li_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        price = df["l_extendedprice"].to_numpy()
        disc = df["l_discount"].to_numpy()
        df["disc_cents"] = _cents(price * (1.0 - disc))
        g = (
            df.groupby("l_partkey", sort=False)
            .agg(n_lines=("disc_cents", "size"), disc_cents=("disc_cents", "sum"))
            .reset_index()
        )
        return _from_pandas(g)

    li_agg = li.map_batches(li_partial, batch_format="pyarrow", batch_size=65536)
    part = _pq(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        lambda t: t.rename_columns(["l_partkey", "p_brand"]),
        batch_format="pyarrow",
    )

    def bucket_agg(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("p_brand", sort=False)
            .agg(n_lines=("n_lines", "sum"), sum_disc_cents=("disc_cents", "sum"))
            .reset_index()
        )

    joined = hash_join(li_agg, part, ["l_partkey"], merge_fn=bucket_agg)
    out = hash_aggregate(
        joined,
        ["p_brand"],
        lambda df: df.groupby("p_brand", sort=False).sum().reset_index(),
    )
    return collect_sorted(out, ["p_brand"])


SQL_BRAND_REVENUE = """
SELECT p_brand, COUNT(*) AS n_lines,
       CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand
ORDER BY p_brand
"""


# ---------------------------------------------------------------------------
# Q: region_supplier_balance — supplier -> nation -> region resolved by
# chained broadcast lookups (all small sides), grouped account balance
# per region; exercises the region table and the dimension-chain shape.
# ---------------------------------------------------------------------------
def q_region_supplier_balance(sf_dir: str):
    import pyarrow.parquet as papq

    from pynomaly_ray.functions.exchange import dim_lookup

    nation = papq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_regionkey"]
    )
    region = papq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    region_of_nation = dim_lookup(nation, "n_nationkey", "n_regionkey")
    name_of_region = dim_lookup(region, "r_regionkey", "r_name")

    ds = _pq(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["r_name"] = df["s_nationkey"].map(region_of_nation).map(name_of_region)
        df["bal_cents"] = _cents(df["s_acctbal"].to_numpy())
        g = (
            df.groupby("r_name", sort=False)
            .agg(n_suppliers=("bal_cents", "size"), sum_bal_cents=("bal_cents", "sum"))
            .reset_index()
        )
        return _from_pandas(g)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(
        partials,
        ["r_name"],
        lambda df: df.groupby("r_name", sort=False).sum().reset_index(),
    )
    return collect_sorted(out, ["r_name"])


SQL_REGION_SUPPLIER_BALANCE = """
SELECT r_name, COUNT(*) AS n_suppliers,
       CAST(SUM(CAST(FLOOR(s_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_bal_cents
FROM supplier
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
ORDER BY r_name
"""


# ---------------------------------------------------------------------------
# Q: ngram_jaccard_exact — EXACT 5-word-shingle Jaccard near-dup pairs
# (the hard oracle for the kernel MinHash-LSH verification rests on).
# Distributed shape: distinct (shingle_hash, doc_id) rows from the scan;
# pairs sharing a shingle emitted inside shingle-hash buckets (uniform
# keys) with per-bucket partial intersection counts; totals + per-doc
# set sizes joined via the partitioned exchange; the tau cut is the
# exact rational i*10 >= union*8 on BOTH sides (no float threshold
# boundary).  This is the exact baseline — pair volume is O(sum of
# shingle-group-size^2), valid while no single shingle is shared by
# ~10^4+ docs; the LSH pipeline (minhash_dedup) is the scale path it
# certifies.  Tokens use the explicit ASCII class (see q_token_counts)
# and only docs with >= 5 tokens participate, both sides.
# ---------------------------------------------------------------------------
_NGRAM_K = 5
_ASCII_TOKEN_RE = r"[^ \t\n\r\f\v]+"


def q_ngram_jaccard_exact(sf_dir: str):
    from pynomaly_ray.functions.exchange import hash_join
    from pynomaly_ray.stages.dedup import _emit_group_pairs

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def shingle_partial(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas().fillna("")
        toks = s.str.findall(_ASCII_TOKEN_RE)
        ids = batch["doc_id"].to_pandas().to_numpy()
        keep = toks.str.len().to_numpy() >= _NGRAM_K
        lists = toks[keep].tolist()
        ids = ids[keep]
        if not len(ids):
            return pa.table(
                {"sh": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64())}
            )
        from pynomaly_ray.stages.dedup import shingles_from_token_lists

        sh, soff = shingles_from_token_lists(lists, _NGRAM_K)
        df = pd.DataFrame(
            {
                "sh": sh.astype(np.int64),
                "doc_id": np.repeat(ids, np.diff(soff)),
            }
        ).drop_duplicates()  # per-doc DISTINCT shingles (docs are whole per batch)
        return _from_pandas(df)

    # one scan, two exchange consumers -> materialize the rows once
    rows = ds.map_batches(shingle_partial, batch_format="pyarrow").materialize()
    sizes = hash_aggregate(
        rows,
        ["doc_id"],
        lambda df: df.groupby("doc_id", sort=False)
        .size()
        .reset_index(name="n_sh"),
    )

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "doc_a": pd.Series(dtype=np.int64),
                    "doc_b": pd.Series(dtype=np.int64),
                    "i": pd.Series(dtype=np.int64),
                }
            )
        d = df.sort_values(["sh", "doc_id"], kind="mergesort")
        gs = d.groupby("sh", sort=False)["doc_id"].transform("size")
        d = d[gs.to_numpy() >= 2]
        if not len(d):
            return pd.DataFrame(
                {
                    "doc_a": pd.Series(dtype=np.int64),
                    "doc_b": pd.Series(dtype=np.int64),
                    "i": pd.Series(dtype=np.int64),
                }
            )
        gsizes = d.groupby("sh", sort=False).size().to_numpy()
        # cap = unbounded: this is the EXACT query; the capped star
        # emission belongs to the LSH scale path
        a, b = _emit_group_pairs(
            d["doc_id"].to_numpy(dtype=np.int64), gsizes, cap=1 << 31
        )
        return (
            pd.DataFrame({"doc_a": a, "doc_b": b})
            .groupby(["doc_a", "doc_b"], sort=False)
            .size()
            .reset_index(name="i")
        )

    inter = hash_aggregate(rows, ["sh"], pair_partial)
    inter_tot = hash_aggregate(
        inter,
        ["doc_a", "doc_b"],
        lambda df: df.groupby(["doc_a", "doc_b"], sort=False)["i"]
        .sum()
        .reset_index(),
    )
    na = sizes.map_batches(
        lambda t: t.rename_columns(["doc_a", "n_a"]), batch_format="pyarrow"
    )
    nb = sizes.map_batches(
        lambda t: t.rename_columns(["doc_b", "n_b"]), batch_format="pyarrow"
    )
    with_a = hash_join(inter_tot, na, ["doc_a"])
    with_b = hash_join(with_a, nb, ["doc_b"])

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        i = df["i"].to_numpy(dtype=np.int64)
        union = (df["n_a"] + df["n_b"]).to_numpy(dtype=np.int64) - i
        keep = i * 10 >= union * 8  # tau = 0.8, exact rational compare
        df = df[keep]
        e6 = np.floor(i[keep] * 1e6 / union[keep] + 0.5).astype(np.int64)
        return _from_pandas(
            pd.DataFrame(
                {
                    "doc_a": df["doc_a"].to_numpy(dtype=np.int64),
                    "doc_b": df["doc_b"].to_numpy(dtype=np.int64),
                    "jaccard_e6": e6,
                }
            )
        )

    out = _collect(
        with_b.map_batches(finish, batch_format="pyarrow"),
        pa.schema(
            [
                ("doc_a", pa.int64()),
                ("doc_b", pa.int64()),
                ("jaccard_e6", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_a", "doc_b"])


SQL_NGRAM_JACCARD_EXACT = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(list_transform(w[i:i+4], t -> CONCAT(len(t), ':', t)), '') AS shingle
  FROM tok, UNNEST(generate_series(1, len(w) - 4)) AS t(i)
  WHERE len(w) >= 5
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
  FROM sh a JOIN sh b USING (shingle)
  WHERE a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT doc_a, doc_b,
       CAST(FLOOR(i * 1000000.0 / (na.n + nb.n - i) + 0.5) AS BIGINT) AS jaccard_e6
FROM inter
JOIN sizes na ON doc_a = na.doc_id
JOIN sizes nb ON doc_b = nb.doc_id
WHERE i * 10 >= (na.n + nb.n - i) * 8
ORDER BY doc_a, doc_b
"""


# ---------------------------------------------------------------------------
# Q: inactive_customers — large-large distributed ANTI-join through
# functions/exchange.hash_anti_join (both sides key-partitioned, each
# bucket filters with Arrow is_in against its 1/P key share — no
# broadcast set, no pandas round-trip of the left rows).  Every customer
# in this testdata has SOME order, so the right side is restricted to
# urgent orders — "customers who never placed an urgent order" is the
# non-vacuous variant of the shape.
# ---------------------------------------------------------------------------
def q_inactive_customers(sf_dir: str):
    from pynomaly_ray.functions.exchange import hash_anti_join

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def urgent(t: pa.Table) -> pa.Table:
        sel = t.filter(
            pc.fill_null(pc.equal(t["o_orderpriority"], "1-URGENT"), False)
        )
        return pa.table({"c_custkey": sel["o_custkey"]})

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
        urgent, batch_format="pyarrow"
    )
    out = _collect(
        hash_anti_join(cust, orders, "c_custkey"),
        pa.schema([("c_custkey", pa.int64()), ("c_nationkey", pa.int64())]),
    )
    return collect_sorted(out, ["c_custkey"])


SQL_INACTIVE_CUSTOMERS = """
SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS c_nationkey
FROM customer
WHERE c_custkey NOT IN (
    SELECT o_custkey FROM orders
    WHERE o_orderpriority = '1-URGENT' AND o_custkey IS NOT NULL
)
ORDER BY c_custkey
"""


# ---------------------------------------------------------------------------
# Q: customer_order_counts — LEFT OUTER join with zero-fill (per-entity
# activity rollup incl. inactive entities): orders pre-aggregated per
# custkey in the scan, customer LEFT-joined through the partitioned
# exchange, unmatched customers surfacing as 0-count rows.
# ---------------------------------------------------------------------------
def q_customer_order_counts(sf_dir: str):
    from pynomaly_ray.functions.exchange import hash_join

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def ord_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["total_cents"] = _cents(df["o_totalprice"].to_numpy())
        g = (
            df.groupby("o_custkey", sort=False)
            .agg(n_orders=("total_cents", "size"), sum_total_cents=("total_cents", "sum"))
            .reset_index()
        )
        return _from_pandas(g.rename(columns={"o_custkey": "c_custkey"}))

    ord_agg = orders.map_batches(ord_partial, batch_format="pyarrow", batch_size=65536)
    cust = _pq(sf_dir, "customer", ["c_custkey"])

    def zero_fill(df: pd.DataFrame) -> pd.DataFrame:
        # unmatched customers arrive as NaN partials (merge's int->float
        # widening); collapse partials per customer and fill zeros
        g = (
            df.groupby("c_custkey", sort=False)
            .agg(
                n_orders=("n_orders", "sum"),
                sum_total_cents=("sum_total_cents", "sum"),
            )
            .reset_index()
        )
        g["n_orders"] = g["n_orders"].fillna(0).astype(np.int64)
        g["sum_total_cents"] = g["sum_total_cents"].fillna(0).astype(np.int64)
        return g

    joined = hash_join(cust, ord_agg, ["c_custkey"], merge_fn=zero_fill, how="left")
    out = hash_aggregate(
        joined,
        ["c_custkey"],
        lambda df: df.groupby("c_custkey", sort=False).sum().reset_index(),
    )
    return collect_sorted(out, ["c_custkey"])


SQL_CUSTOMER_ORDER_COUNTS = """
SELECT c_custkey,
       CAST(COUNT(o_custkey) AS BIGINT) AS n_orders,
       CAST(COALESCE(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)), 0) AS BIGINT)
           AS sum_total_cents
FROM customer LEFT JOIN orders ON o_custkey = c_custkey
GROUP BY c_custkey
ORDER BY c_custkey
"""


# ---------------------------------------------------------------------------
# Q: train_split — deterministic train/holdout split assignment (the
# held-out-set operator of a training-data pipeline) with per-source
# split statistics.  The split key is a pure function of doc_id (modulo
# band), so assignment is reproducible across runs, retries and engines
# — which is exactly what makes it SQL-checkable.
# ---------------------------------------------------------------------------
def q_train_split(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["split"] = np.where(df["doc_id"] % 10 < 8, "train", "holdout")
        g = (
            df.groupby(["source", "split"], sort=False)
            .agg(n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum"))
            .reset_index()
        )
        return _from_pandas(g)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(
        partials,
        ["source", "split"],
        lambda df: df.groupby(["source", "split"], sort=False).sum().reset_index(),
    )
    return collect_sorted(out, ["source", "split"])


SQL_TRAIN_SPLIT = """
SELECT source,
       CASE WHEN doc_id % 10 < 8 THEN 'train' ELSE 'holdout' END AS split,
       COUNT(*) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY source, split
ORDER BY source, split
"""


# ---------------------------------------------------------------------------
# Q: source_p90_chars — exact distributed p90 per group from merged
# value counts (generalizes source_median_chars to arbitrary quantiles:
# the count vector over a discrete domain is the sufficient statistic).
# ---------------------------------------------------------------------------
def q_source_p90_chars(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["source", "n_chars"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["source", "n_chars"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        out_src, out_q = [], []
        for src, grp in g.groupby("source", sort=False):
            grp = grp.sort_values("n_chars", kind="mergesort")
            cum = grp["cnt"].cumsum().to_numpy()
            n = int(cum[-1])
            idx = (9 * n + 9) // 10 - 1  # ceil(0.9*n)-1 == quantile_disc 0.9
            pos = int(np.searchsorted(cum, idx + 1))
            out_src.append(src)
            out_q.append(int(grp["n_chars"].iloc[pos]))
        return pd.DataFrame(
            {"source": out_src, "p90_chars": pd.array(out_q, dtype=np.int64)}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(partials, ["source"], merge)
    return collect_sorted(out, ["source"])


SQL_SOURCE_P90_CHARS = """
SELECT source, CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90_chars
FROM documents
GROUP BY source
ORDER BY source
"""


# ---------------------------------------------------------------------------
# Q: hash_sample — deterministic uniform sampling at scale: every row
# gets a pseudo-random priority from a Knuth multiplicative hash of its
# key (pure integer arithmetic, so DuckDB computes the identical value),
# and the sample is the bottom-k by priority — per-block local top-k +
# tiny driver merge, NO global sort, NO randomness to reconcile across
# retries.  This is the reproducible "pick n documents for eval" op of
# a training-data pipeline, exact-oracle-checkable.
# ---------------------------------------------------------------------------
_KNUTH = 2654435761  # 2^32 / golden ratio


def q_hash_sample(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "source"])

    def prio(batch: pa.Table) -> pa.Table:
        from pynomaly_ray.functions.hashing import knuth32

        df = batch.to_pandas()
        # knuth32 reduces mod 2^32 BEFORE multiplying, keeping the value
        # engine/SQL-identical at any doc_id magnitude (shared helper —
        # hash_sample / domain_mix / epoch_shuffle must stay in lock-step
        # with their DuckDB twins through the ONE implementation)
        df["priority"] = knuth32(df["doc_id"].to_numpy(dtype=np.uint64))
        return _from_pandas(df)

    scored = ds.map_batches(prio, batch_format="pyarrow")
    return topk(scored, ["priority", "doc_id"], 20, descending=[False, False])


SQL_HASH_SAMPLE = """
SELECT doc_id, source,
       CAST(((doc_id % 4294967296) * 2654435761::HUGEINT) % 4294967296 AS BIGINT)
           AS priority
FROM documents
ORDER BY priority, doc_id
LIMIT 20
"""


# ---------------------------------------------------------------------------
# Q: id_sets — distributed set operations (UNION / INTERSECT cardinality
# across two tables' key columns): per-batch distinct partials with a
# side flag, Dataset.union of both streams, one id-keyed exchange whose
# buckets hold disjoint ids — per-bucket union/intersection counts sum
# exactly to the global answer, so only P count rows reach the driver.
# ---------------------------------------------------------------------------
def q_id_sets(sf_dir: str):
    ev = _pq(sf_dir, "events", ["user_id"])
    od = _pq(sf_dir, "orders", ["o_custkey"])

    def side_partial(col: str, flag: str):
        def _f(batch: pa.Table) -> pa.Table:
            ids = batch[col].to_pandas().dropna().unique()
            df = pd.DataFrame({"id": ids.astype(np.int64)})
            df["in_ev"] = np.int64(1 if flag == "ev" else 0)
            df["in_od"] = np.int64(1 if flag == "od" else 0)
            return _from_pandas(df)

        return _f

    partials = ev.map_batches(
        side_partial("user_id", "ev"), batch_format="pyarrow"
    ).union(od.map_batches(side_partial("o_custkey", "od"), batch_format="pyarrow"))

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("id", sort=False).agg(
            in_ev=("in_ev", "max"), in_od=("in_od", "max")
        )
        return pd.DataFrame(
            {
                "n_union": pd.array([len(g)], dtype=np.int64),
                "n_inter": pd.array(
                    [int((g["in_ev"] & g["in_od"]).sum())], dtype=np.int64
                ),
            }
        )

    per_bucket = hash_aggregate(partials, ["id"], merge).to_pandas()
    return pd.DataFrame(
        {
            "n_union": pd.array([per_bucket["n_union"].sum()], dtype=np.int64),
            "n_inter": pd.array([per_bucket["n_inter"].sum()], dtype=np.int64),
        }
    )


SQL_ID_SETS = """
WITH ev AS (SELECT DISTINCT user_id  AS id FROM events WHERE user_id  IS NOT NULL),
     od AS (SELECT DISTINCT o_custkey AS id FROM orders WHERE o_custkey IS NOT NULL)
SELECT
  CAST((SELECT COUNT(*) FROM (SELECT id FROM ev UNION     SELECT id FROM od)) AS BIGINT) AS n_union,
  CAST((SELECT COUNT(*) FROM (SELECT id FROM ev INTERSECT SELECT id FROM od)) AS BIGINT) AS n_inter
"""


# ---------------------------------------------------------------------------
# Q: lang_pivot — pivot/reshape: one row per source with one count
# column per language (the wide feature-matrix shape).  Engine: a
# single grouped conditional aggregate (vectorized crosstab per batch,
# summed through the exchange) — a pivot is just a grouped agg with a
# fixed output column set, no extra shuffle.
# ---------------------------------------------------------------------------
_PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def q_lang_pivot(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["source", "lang"])
    cols = [f"n_{l}" for l in _PIVOT_LANGS]

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # crosstab drops NaN keys by default: a source whose rows all
        # have null lang would vanish while the SQL oracle (GROUP BY
        # source) still emits it with zero counts — sentinel-fill so
        # every source present in the batch yields a row
        lang = df["lang"].fillna("\x00null")
        ct = pd.crosstab(df["source"], lang).reindex(
            columns=list(_PIVOT_LANGS), fill_value=0
        )
        out = pd.DataFrame({"source": ct.index})
        for l, c in zip(_PIVOT_LANGS, cols):
            out[c] = ct[l].to_numpy().astype(np.int64)
        return _from_pandas(out)

    out = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"],
        lambda df: df.groupby("source", sort=False).sum().reset_index(),
    )
    return collect_sorted(out, ["source"])


SQL_LANG_PIVOT = """
SELECT source,
       COUNT(*) FILTER (lang = 'de') AS n_de,
       COUNT(*) FILTER (lang = 'en') AS n_en,
       COUNT(*) FILTER (lang = 'es') AS n_es,
       COUNT(*) FILTER (lang = 'fr') AS n_fr,
       COUNT(*) FILTER (lang = 'zh') AS n_zh
FROM documents
GROUP BY source
ORDER BY source
"""


ORACLE_QUERIES.update(
    {
        "lang_pivot": (q_lang_pivot, SQL_LANG_PIVOT),
        "id_sets": (q_id_sets, SQL_ID_SETS),
        "hash_sample": (q_hash_sample, SQL_HASH_SAMPLE),
        "inactive_customers": (q_inactive_customers, SQL_INACTIVE_CUSTOMERS),
        "customer_order_counts": (
            q_customer_order_counts,
            SQL_CUSTOMER_ORDER_COUNTS,
        ),
        "train_split": (q_train_split, SQL_TRAIN_SPLIT),
        "source_p90_chars": (q_source_p90_chars, SQL_SOURCE_P90_CHARS),
        "ngram_jaccard_exact": (q_ngram_jaccard_exact, SQL_NGRAM_JACCARD_EXACT),
        "brand_revenue": (q_brand_revenue, SQL_BRAND_REVENUE),
        "region_supplier_balance": (
            q_region_supplier_balance,
            SQL_REGION_SUPPLIER_BALANCE,
        ),
        "trailing_events": (q_trailing_events, SQL_TRAILING_EVENTS),
        "source_median_chars": (q_source_median_chars, SQL_SOURCE_MEDIAN_CHARS),
        "top_lang_per_source": (q_top_lang_per_source, SQL_TOP_LANG_PER_SOURCE),
        "token_frequency": (q_token_frequency, SQL_TOKEN_FREQUENCY),
        "embedding_neardup_exact": (
            q_embedding_neardup_exact,
            SQL_EMBEDDING_NEARDUP_EXACT,
        ),
        "ref_membership_subset": (
            q_ref_membership_subset,
            SQL_REF_MEMBERSHIP_SUBSET,
        ),
        "long_docs": (q_long_docs, SQL_LONG_DOCS),
        "latest_orders": (q_latest_orders, SQL_LATEST_ORDERS),
        "top_events_per_type": (q_top_events_per_type, SQL_TOP_EVENTS_PER_TYPE),
    }
)


# ---------------------------------------------------------------------------
# Q: rollup_revenue — multi-level subtotal aggregation (GROUP BY ROLLUP):
# order revenue per (region, nation) plus per-region subtotals and a
# grand total.  Engine: the fact side pre-aggregates per customer in
# the scan, joins through the partitioned hash_join collapsing to the
# 25-row nation level in-bucket; the three rollup levels then fold from
# that ALREADY-REDUCED 25-row frame on the driver (a rollup is a fold
# over the finest aggregate — the fact table is never re-scanned per
# level, which is what keeps this shape 100x-safe).  NULL marks the
# rolled-up levels, matching SQL ROLLUP semantics.
# ---------------------------------------------------------------------------
def q_rollup_revenue(sf_dir: str):
    import pyarrow.parquet as papq

    from pynomaly_ray.functions.exchange import dim_lookup, hash_join

    nation = papq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region = papq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    name_of_nation = dim_lookup(nation, "n_nationkey", "n_name")
    region_of_nation = dim_lookup(nation, "n_nationkey", "n_regionkey")
    name_of_region = dim_lookup(region, "r_regionkey", "r_name")

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def o_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["cents"] = _cents(df.pop("o_totalprice").to_numpy())
        g = (
            df.groupby("o_custkey", sort=False)
            .agg(n_orders=("cents", "size"), cents=("cents", "sum"))
            .reset_index()
        )
        return _from_pandas(g)

    o_agg = orders.map_batches(o_partial, batch_format="pyarrow", batch_size=65536)
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_nationkey"]),
        batch_format="pyarrow",
    )

    def per_nation(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("c_nationkey", sort=False)
            .agg(n_orders=("n_orders", "sum"), cents=("cents", "sum"))
            .reset_index()
        )

    per_nat = hash_aggregate(
        hash_join(o_agg, cust, ["o_custkey"], merge_fn=per_nation),
        ["c_nationkey"],
        lambda df: df.groupby("c_nationkey", sort=False).sum().reset_index(),
    ).to_pandas()

    per_nat["r_name"] = per_nat["c_nationkey"].map(
        lambda k: name_of_region[region_of_nation[k]]
    )
    per_nat["n_name"] = per_nat["c_nationkey"].map(name_of_nation)
    detail = per_nat[["r_name", "n_name", "n_orders", "cents"]]
    sub = (
        detail.groupby("r_name", sort=False)[["n_orders", "cents"]]
        .sum()
        .reset_index()
    )
    sub["n_name"] = None
    total = pd.DataFrame(
        {
            "r_name": [None],
            "n_name": [None],
            "n_orders": [detail["n_orders"].sum()],
            "cents": [detail["cents"].sum()],
        }
    )
    out = pd.concat(
        [detail, sub[["r_name", "n_name", "n_orders", "cents"]], total],
        ignore_index=True,
    ).rename(columns={"cents": "sum_cents"})
    out["n_orders"] = out["n_orders"].astype(np.int64)
    out["sum_cents"] = out["sum_cents"].astype(np.int64)
    return collect_sorted(out, ["r_name", "n_name"])


SQL_ROLLUP_REVENUE = """
SELECT r_name, n_name,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_cents
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
GROUP BY ROLLUP(r_name, n_name)
ORDER BY r_name NULLS LAST, n_name NULLS LAST
"""


# ---------------------------------------------------------------------------
# Q: running_total — ordered-window aggregation (SUM OVER PARTITION BY
# ... ORDER BY): cumulative order revenue per customer in date order.
# Engine: one key-bucket exchange on o_custkey; each bucket sorts its
# disjoint customers by (date, orderkey) and takes a vectorized groupby
# cumsum — a window function is a per-key sorted scan, so key-hash
# partitioning makes it embarrassingly parallel with no global sort.
# Integer cents keep the cumulative sum associativity-exact across
# engines (floating window sums are summation-order-defined).
# ---------------------------------------------------------------------------
def q_running_total(sf_dir: str):
    orders = _pq(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )

    def to_cents(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["cents"] = _cents(df.pop("o_totalprice").to_numpy())
        return _from_pandas(df)

    def run_tot(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["o_custkey", "o_orderdate", "o_orderkey"], kind="mergesort"
        )
        df["run_cents"] = df.groupby("o_custkey", sort=False)["cents"].cumsum()
        return df[["o_orderkey", "o_custkey", "run_cents"]]

    out = hash_aggregate(
        orders.map_batches(to_cents, batch_format="pyarrow"),
        ["o_custkey"],
        run_tot,
    )
    df = out.to_pandas()
    df["run_cents"] = df["run_cents"].astype(np.int64)
    return collect_sorted(df, ["o_orderkey"])


SQL_RUNNING_TOTAL = """
SELECT o_orderkey, o_custkey,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
            OVER (PARTITION BY o_custkey
                  ORDER BY o_orderdate, o_orderkey) AS BIGINT) AS run_cents
FROM orders
ORDER BY o_orderkey
"""


ORACLE_QUERIES.update(
    {
        "rollup_revenue": (q_rollup_revenue, SQL_ROLLUP_REVENUE),
        "running_total": (q_running_total, SQL_RUNNING_TOTAL),
    }
)


# ---------------------------------------------------------------------------
# Q: global_sort — distributed ORDER BY via sampled range partitioning
# (exchange.range_sort): splitters from per-block samples, one
# searchsorted split per block, one local sort per range; consuming the
# blocks in order IS the total order (asserted here — an unordered
# result raises instead of returning rows).  The output is the ordered
# value sequence with its rank, which is tie-insensitive, so the oracle
# comparison is exact even where ORDER BY ties are engine-defined.
# ---------------------------------------------------------------------------
def q_global_sort(sf_dir: str):
    from pynomaly_ray.functions.exchange import range_sort

    orders = _pq(sf_dir, "orders", ["o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {"cents": pa.array(_cents(t["o_totalprice"].to_numpy()), pa.int64())}
        )

    ds = orders.map_batches(to_cents, batch_format="pyarrow")
    # explicit fan-out so the multi-range path runs at every sf
    s = range_sort(ds, "cents", num_partitions=8)
    arr = s.to_pandas()["cents"].to_numpy()  # block order == total order
    if len(arr) > 1 and np.any(np.diff(arr) < 0):
        raise AssertionError("range_sort output not globally ordered")
    return pd.DataFrame(
        {
            "pos": np.arange(1, len(arr) + 1, dtype=np.int64),
            "cents": arr.astype(np.int64),
        }
    )


SQL_GLOBAL_SORT = """
SELECT CAST(ROW_NUMBER() OVER (ORDER BY CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS pos,
       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
FROM orders
ORDER BY pos
"""


ORACLE_QUERIES["global_sort"] = (q_global_sort, SQL_GLOBAL_SORT)


# ---------------------------------------------------------------------------
# Q: stratified_sample — deterministic per-group sampling (the
# training-data curation shape: k docs per source, reproducible across
# runs/engines).  Engine: the Knuth multiplicative hash ranks rows;
# map-side per-batch top-k per source bounds what the exchange moves to
# k rows per (source, batch), then one source-keyed bucket pass takes
# the global per-source bottom-k.  SQL: ROW_NUMBER() OVER (PARTITION BY
# source ORDER BY hash).
# ---------------------------------------------------------------------------
_STRAT_K = 5


def q_stratified_sample(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "source"])

    def prio_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ids = df["doc_id"].to_numpy(dtype=np.uint64)
        m32 = np.uint64(4294967296)
        df["priority"] = (((ids % m32) * np.uint64(_KNUTH)) % m32).astype(
            np.int64
        )
        df = df.sort_values(["source", "priority", "doc_id"], kind="mergesort")
        return _from_pandas(df.groupby("source", sort=False).head(_STRAT_K))

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "priority", "doc_id"], kind="mergesort")
        return df.groupby("source", sort=False).head(_STRAT_K)

    out = hash_aggregate(
        ds.map_batches(prio_topk, batch_format="pyarrow"),
        ["source"],
        final_topk,
    )
    return collect_sorted(out, ["source", "priority", "doc_id"])


SQL_STRATIFIED_SAMPLE = """
SELECT doc_id, source, priority
FROM (
  SELECT doc_id, source,
         CAST(((doc_id % 4294967296) * 2654435761::HUGEINT) % 4294967296 AS BIGINT) AS priority,
         ROW_NUMBER() OVER (
           PARTITION BY source
           ORDER BY ((doc_id % 4294967296) * 2654435761::HUGEINT) % 4294967296, doc_id
         ) AS rn
  FROM documents
)
WHERE rn <= 5
ORDER BY source, priority, doc_id
"""


# ---------------------------------------------------------------------------
# Q: full_outer_counts — FULL OUTER join of two grouped streams (ids
# active as event users and/or order customers, with zero-filled
# sides).  Engine: an outer join of AGGREGATES is the union of tagged
# partials through ONE id-keyed exchange (each side pre-counts per id
# in the scan; the bucket reducer sums both flags) — no second shuffle
# and no outer-join row blowup.
# ---------------------------------------------------------------------------
def q_full_outer_counts(sf_dir: str):
    ev = _pq(sf_dir, "events", ["user_id"])
    od = _pq(sf_dir, "orders", ["o_custkey"])

    def side_counts(col: str, evn: int):
        def _f(batch: pa.Table) -> pa.Table:
            ids = batch[col].to_pandas().dropna().astype(np.int64)
            g = ids.value_counts().sort_index()
            df = pd.DataFrame(
                {
                    "id": g.index.to_numpy(np.int64),
                    "n_events": g.to_numpy(np.int64) if evn else 0,
                    "n_orders": 0 if evn else g.to_numpy(np.int64),
                }
            )
            return _from_pandas(df)

        return _f

    both = ev.map_batches(side_counts("user_id", 1), batch_format="pyarrow").union(
        od.map_batches(side_counts("o_custkey", 0), batch_format="pyarrow")
    )
    out = hash_aggregate(
        both,
        ["id"],
        lambda df: df.groupby("id", sort=False).sum().reset_index(),
    )
    return collect_sorted(out, ["id"])


SQL_FULL_OUTER_COUNTS = """
SELECT COALESCE(e.id, o.id) AS id,
       CAST(COALESCE(e.n_events, 0) AS BIGINT) AS n_events,
       CAST(COALESCE(o.n_orders, 0) AS BIGINT) AS n_orders
FROM (SELECT user_id AS id, COUNT(*) AS n_events
      FROM events WHERE user_id IS NOT NULL GROUP BY user_id) e
FULL OUTER JOIN
     (SELECT o_custkey AS id, COUNT(*) AS n_orders
      FROM orders WHERE o_custkey IS NOT NULL GROUP BY o_custkey) o
  ON e.id = o.id
ORDER BY id
"""


ORACLE_QUERIES.update(
    {
        "stratified_sample": (q_stratified_sample, SQL_STRATIFIED_SAMPLE),
        "full_outer_counts": (q_full_outer_counts, SQL_FULL_OUTER_COUNTS),
    }
)


# ---------------------------------------------------------------------------
# Q: neardup_components — near-dup GROUPING: the exact cosine pair list
# (the oracle-certified edge surface of embedding_neardup_exact)
# collapsed into connected components by distributed min-label
# propagation (functions/graph.connected_components: one labels-onto-
# edges join + one min-aggregate per round, messages collapsed in the
# join buckets).  This is the step that turns pair detection into a
# keep/drop decision.  SQL oracle: recursive CTE reachability with the
# same min-of-component labeling.
# ---------------------------------------------------------------------------
def q_neardup_components(sf_dir: str):
    import ray.data as rd

    from pynomaly_ray.functions.graph import connected_components

    edges = q_embedding_neardup_exact(sf_dir)[["vec_a", "vec_b"]]
    if not len(edges):
        return pd.DataFrame(
            {
                "vec_id": pd.Series(dtype=np.int64),
                "component": pd.Series(dtype=np.int64),
            }
        )
    labels = connected_components(
        rd.from_pandas(edges), col_a="vec_a", col_b="vec_b"
    )
    df = labels.to_pandas().rename(
        columns={"node": "vec_id", "lbl": "component"}
    )
    df["vec_id"] = df["vec_id"].astype(np.int64)
    df["component"] = df["component"].astype(np.int64)
    return collect_sorted(df, ["vec_id"])


SQL_NEARDUP_COMPONENTS = """
WITH RECURSIVE pairs AS (
  SELECT a.vec_id AS va, b.vec_id AS vb
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE CAST(FLOOR(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[])
             * 1000000 + 0.5) AS BIGINT) >= 400000
), sym AS (
  SELECT va AS src, vb AS dst FROM pairs
  UNION ALL
  SELECT vb, va FROM pairs
), reach(id, lbl) AS (
  SELECT DISTINCT src, src FROM sym
  UNION
  SELECT s.dst, r.lbl FROM reach r JOIN sym s ON s.src = r.id
)
SELECT CAST(id AS BIGINT) AS vec_id, CAST(MIN(lbl) AS BIGINT) AS component
FROM reach
GROUP BY id
ORDER BY vec_id
"""


ORACLE_QUERIES["neardup_components"] = (
    q_neardup_components,
    SQL_NEARDUP_COMPONENTS,
)


# ---------------------------------------------------------------------------
# Q: big_spenders — semi-join (EXISTS): customers with at least one
# order above a price threshold, projected with a customer attribute.
# Engine: the probe side collapses to DISTINCT keys per batch in the
# scan (a semi-join never needs the probe rows, only key existence),
# one key exchange dedups globally, and the customer side joins in
# partitioned buckets.  Distinct from anti (inactive_customers) and
# outer (customer_order_counts) — completes the join-mode family.
# ---------------------------------------------------------------------------
_BIG_SPENDER_CUTOFF = 480_000.0


def q_big_spenders(sf_dir: str):
    from pynomaly_ray.functions.exchange import hash_join

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def distinct_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        big = df.loc[
            (df["o_totalprice"] > _BIG_SPENDER_CUTOFF)
            & df["o_custkey"].notna(),
            "o_custkey",
        ].unique()
        return _from_pandas(
            pd.DataFrame({"c_custkey": big.astype(np.int64)})
        )

    keys = hash_aggregate(
        orders.map_batches(distinct_partial, batch_format="pyarrow"),
        ["c_custkey"],
        lambda df: df.drop_duplicates("c_custkey"),
    )
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    out = hash_join(keys, cust, ["c_custkey"])
    return collect_sorted(out, ["c_custkey"])


SQL_BIG_SPENDERS = """
SELECT c_custkey, c_mktsegment
FROM customer
WHERE EXISTS (SELECT 1 FROM orders
              WHERE o_custkey = c_custkey AND o_totalprice > 480000)
ORDER BY c_custkey
"""


ORACLE_QUERIES["big_spenders"] = (q_big_spenders, SQL_BIG_SPENDERS)


# ---------------------------------------------------------------------------
# Q: decontaminate — benchmark n-gram decontamination (the eval-leak
# check run before pretraining): training docs sharing >= 1 distinct
# 4-word shingle with the benchmark corpus, with an exact-rational
# "contaminated" cut at 20% of the doc's shingles.  The benchmark here
# is the deterministic doc_id % 7 == 0 slice standing in for an eval
# set.  Engine shape (stages/decontam.py): benchmark distinct-shingle
# hashes reduced map-side, merged once on the driver under a cap, and
# broadcast via ray.put — the training side streams through ONE
# searchsorted per batch, no exchange, no per-doc Python.  Shingles use
# the ONE shared kernel (stages/dedup.shingles_from_token_lists) the
# MinHash/Jaccard oracles already certify; the SQL reconstructs them
# textually, so a hash collision or kernel drift breaks the hash match.
# ---------------------------------------------------------------------------
_DECONTAM_K = 4
_DECONTAM_MOD = 7


def q_decontaminate(sf_dir: str):
    from pynomaly_ray.stages.decontam import (
        benchmark_shingle_hashes,
        decontaminate,
    )

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def side(t: pa.Table, want_bench: bool) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        is_bench = (ids % _DECONTAM_MOD) == 0
        return t.filter(pa.array(is_bench if want_bench else ~is_bench))

    bench = docs.map_batches(
        lambda t: side(t, True), batch_format="pyarrow"
    )
    train = docs.map_batches(
        lambda t: side(t, False), batch_format="pyarrow"
    )
    ref = benchmark_shingle_hashes(bench, k=_DECONTAM_K)
    counted = decontaminate(train, ref, k=_DECONTAM_K)

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["n_overlap"] >= 1]
        n_sh = df["n_sh"].to_numpy(dtype=np.int64)
        ov = df["n_overlap"].to_numpy(dtype=np.int64)
        return _from_pandas(
            pd.DataFrame(
                {
                    "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                    "n_sh": n_sh,
                    "n_overlap": ov,
                    "contaminated": (ov * 5 >= n_sh).astype(np.int64),
                }
            )
        )

    out = _collect(
        counted.map_batches(finish, batch_format="pyarrow"),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_sh", pa.int64()),
                ("n_overlap", pa.int64()),
                ("contaminated", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_DECONTAMINATE = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(list_transform(w[i:i+3], t -> CONCAT(len(t), ':', t)), '') AS s
  FROM tok, UNNEST(generate_series(1, len(w) - 3)) AS t(i)
  WHERE len(w) >= 4
),
b AS (SELECT DISTINCT s FROM sh WHERE doc_id % 7 = 0),
tr AS (
  SELECT doc_id, COUNT(*) AS n_sh,
         SUM(CASE WHEN s IN (SELECT s FROM b) THEN 1 ELSE 0 END) AS ov
  FROM sh WHERE doc_id % 7 <> 0 GROUP BY doc_id
)
SELECT doc_id, n_sh, CAST(ov AS BIGINT) AS n_overlap,
       CAST(CASE WHEN ov * 5 >= n_sh THEN 1 ELSE 0 END AS BIGINT)
           AS contaminated
FROM tr WHERE ov >= 1
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Q: repetition_profile — within-doc repeated-bigram fraction, the
# C4/Gopher-style boilerplate signal: per doc, total vs distinct 2-word
# shingles and rep_e6 = floor((n-d)*1e6/n + 0.5).  Embarrassingly
# parallel map-side kernel (docs are whole per batch): one lexsort over
# the batch's flat shingle array — no exchange, no per-doc loop.
# ---------------------------------------------------------------------------
def q_repetition_profile(sf_dir: str):
    from pynomaly_ray.stages.decontam import repetition_profile

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(
        repetition_profile(docs, k=2),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_sh", pa.int64()),
                ("n_distinct", pa.int64()),
                ("rep_e6", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_REPETITION_PROFILE = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
sh AS (
  SELECT doc_id, array_to_string(list_transform(w[i:i+1], t -> CONCAT(len(t), ':', t)), '') AS s
  FROM tok, UNNEST(generate_series(1, len(w) - 1)) AS t(i)
  WHERE len(w) >= 2
),
r AS (
  SELECT doc_id, COUNT(*) AS n_sh, COUNT(DISTINCT s) AS n_distinct
  FROM sh GROUP BY doc_id
)
SELECT doc_id, n_sh, n_distinct,
       CAST(FLOOR((n_sh - n_distinct) * 1000000.0 / n_sh + 0.5) AS BIGINT)
           AS rep_e6
FROM r
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Q: domain_mix — per-source weighted sampling (domain-mixture
# construction): each source tier keeps a power-of-two fraction of its
# docs (tier = source index mod 4 -> rates 1, 1/2, 1/4, 1/8) via the
# same Knuth multiplicative hash as hash_sample, so the keep decision
# is exact integer arithmetic on BOTH sides (h < 2^32 >> tier) — fully
# deterministic, resumable, and skew-free (the hash is uniform whatever
# the doc_id distribution).  One streaming map pass, no exchange.
# ---------------------------------------------------------------------------
def q_domain_mix(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "source"])

    def pick(t: pa.Table) -> pa.Table:
        from pynomaly_ray.functions.hashing import knuth32

        df = t.to_pandas()
        h = knuth32(df["doc_id"].to_numpy(dtype=np.uint64)).astype(np.uint64)
        tier = (
            df["source"].str.slice(3).astype(np.int64).to_numpy() % 4
        ).astype(np.uint64)
        keep = h < (np.uint64(4294967296) >> tier)
        return _from_pandas(df.loc[keep, ["doc_id", "source"]])

    out = _collect(
        ds.map_batches(pick, batch_format="pyarrow"),
        pa.schema([("doc_id", pa.int64()), ("source", pa.string())]),
    )
    return collect_sorted(out, ["doc_id"])


SQL_DOMAIN_MIX = """
WITH t AS (
  SELECT doc_id, source,
         CAST(((doc_id % 4294967296) * 2654435761::HUGEINT) % 4294967296
              AS BIGINT) AS h,
         CAST(SUBSTR(source, 4) AS BIGINT) % 4 AS tier
  FROM documents
)
SELECT doc_id, source FROM t
WHERE h < (4294967296 >> tier)
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Q: pack_sequences — GPT-style concat-and-chunk packing PLACEMENT: the
# global exclusive prefix sum of n_tok in doc-id order, mapped to
# 256-token training sequences (stages/packing.pack_offsets: range_sort
# by doc_id -> per-block totals -> P-row driver prefix -> per-block
# cumsum; the driver never holds data rows).  The SQL twin is the
# window cumsum — certifying that an ordered scan the Dataset API can't
# express was decomposed correctly.  pack_tokens (the payload move) is
# pinned by a token-array-equality pytest on top of these offsets.
# ---------------------------------------------------------------------------
_PACK_CHUNK = 256


def q_pack_sequences(sf_dir: str):
    from pynomaly_ray.stages.packing import pack_offsets

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def ntok(t: pa.Table) -> pa.Table:
        s = t["text"].to_pandas().fillna("")
        n = s.str.count(_ASCII_TOKEN_RE).to_numpy(dtype=np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_tok": pa.array(n),
            }
        )

    placed = pack_offsets(
        docs.map_batches(ntok, batch_format="pyarrow"), chunk=_PACK_CHUNK
    )
    out = _collect(
        placed,
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_tok", pa.int64()),
                ("seq_first", pa.int64()),
                ("seq_last", pa.int64()),
                ("off_in_seq", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_PACK_SEQUENCES = r"""
WITH t AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '[^ \t\n\r\f\v]+')) AS n_tok
  FROM documents
),
o AS (
  SELECT doc_id, n_tok,
         SUM(n_tok) OVER (ORDER BY doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
             - n_tok AS off
  FROM t
)
SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok,
       CAST(off // 256 AS BIGINT) AS seq_first,
       CAST((off + n_tok - 1) // 256 AS BIGINT) AS seq_last,
       CAST(off % 256 AS BIGINT) AS off_in_seq
FROM o WHERE n_tok >= 1
ORDER BY doc_id
"""


ORACLE_QUERIES.update(
    {
        "decontaminate": (q_decontaminate, SQL_DECONTAMINATE),
        "repetition_profile": (q_repetition_profile, SQL_REPETITION_PROFILE),
        "domain_mix": (q_domain_mix, SQL_DOMAIN_MIX),
        "pack_sequences": (q_pack_sequences, SQL_PACK_SEQUENCES),
    }
)


# ---------------------------------------------------------------------------
# Q: epoch_shuffle — deterministic training-epoch permutation: every doc
# gets a Knuth-hash shuffle key from (doc_id + seed) and a dense global
# position in (key, id) order (stages/packing.epoch_shuffle: key stamp ->
# range_sort -> P-row driver prefix -> per-block rank).  The reproducible
# replacement for random_shuffle: same seed => identical order on any
# cluster shape, restarts re-derive the permutation.  The SQL twin's
# ROW_NUMBER certifies the distributed rank assignment end-to-end.
# ---------------------------------------------------------------------------
_EPOCH_SEED = 17


def q_epoch_shuffle(sf_dir: str):
    from pynomaly_ray.stages.packing import epoch_shuffle

    docs = _pq(sf_dir, "documents", ["doc_id"])
    out = _collect(
        epoch_shuffle(docs, seed=_EPOCH_SEED),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("shuffle_key", pa.int64()),
                ("pos", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_EPOCH_SHUFFLE = """
WITH t AS (
  SELECT doc_id,
         CAST((((doc_id + 17) % 4294967296) * 2654435761::HUGEINT)
              % 4294967296 AS BIGINT) AS shuffle_key
  FROM documents
)
SELECT doc_id, shuffle_key,
       CAST(ROW_NUMBER() OVER (ORDER BY shuffle_key, doc_id) - 1 AS BIGINT)
           AS pos
FROM t
ORDER BY doc_id
"""


ORACLE_QUERIES["epoch_shuffle"] = (q_epoch_shuffle, SQL_EPOCH_SHUFFLE)

# ---------------------------------------------------------------------------
# Q: pii_scrub — ordered multi-pattern PII redaction (stages/pii.py):
# emails, then IPv4, then phone numbers, each counted against the
# previous pattern's output and replaced by a typed placeholder.  The
# synthetic corpus contains no organic PII, so BOTH sides first augment
# each doc deterministically from its doc_id (doc_id%4 selects email /
# IPv4 / phone / none) — guaranteeing every pattern fires thousands of
# times and the byte-exact redacted text, not just zero counts, is what
# the value-hash certifies.  Patterns are restricted to the Python-re /
# RE2 common dialect (see stages/pii.py docstring).  Engine shape: one
# streaming map_batches pass, no exchange.
# ---------------------------------------------------------------------------
def q_pii_scrub(sf_dir: str):
    from pynomaly_ray.stages.pii import pii_scrub

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def augment(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        text = t["text"].to_pandas().fillna("")
        sid = pd.Series(ids.astype(str), index=text.index)
        email = " contact user" + sid + "@example.com asap"
        ip = (
            " from "
            + pd.Series((ids % 223 + 1).astype(str), index=text.index)
            + "."
            + pd.Series((ids % 256).astype(str), index=text.index)
            + "."
            + pd.Series((ids % 100).astype(str), index=text.index)
            + "."
            + pd.Series((ids % 250 + 1).astype(str), index=text.index)
        )
        phone = (
            " call +1 "
            + pd.Series((ids % 900 + 100).astype(str), index=text.index)
            + " "
            + pd.Series((ids * 7 % 900 + 100).astype(str), index=text.index)
            + " "
            + pd.Series((ids % 9000 + 1000).astype(str), index=text.index)
        )
        mod = ids % 4
        aug = text.copy()
        aug[mod == 0] = text[mod == 0] + email[mod == 0]
        aug[mod == 1] = text[mod == 1] + ip[mod == 1]
        aug[mod == 2] = text[mod == 2] + phone[mod == 2]
        return pa.table(
            {"doc_id": pa.array(ids), "text": pa.array(aug, type=pa.string())}
        )

    out = _collect(
        pii_scrub(docs.map_batches(augment, batch_format="pyarrow")),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("text_red", pa.string()),
                ("n_email", pa.int64()),
                ("n_ipv4", pa.int64()),
                ("n_phone", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_PII_SCRUB = r"""
WITH aug AS (
  SELECT doc_id,
         CASE doc_id % 4
           WHEN 0 THEN text || ' contact user' || CAST(doc_id AS VARCHAR)
                        || '@example.com asap'
           WHEN 1 THEN text || ' from ' || CAST(doc_id % 223 + 1 AS VARCHAR)
                        || '.' || CAST(doc_id % 256 AS VARCHAR)
                        || '.' || CAST(doc_id % 100 AS VARCHAR)
                        || '.' || CAST(doc_id % 250 + 1 AS VARCHAR)
           WHEN 2 THEN text || ' call +1 ' || CAST(doc_id % 900 + 100 AS VARCHAR)
                        || ' ' || CAST(doc_id * 7 % 900 + 100 AS VARCHAR)
                        || ' ' || CAST(doc_id % 9000 + 1000 AS VARCHAR)
           ELSE text
         END AS t0
  FROM documents
),
e AS (
  SELECT doc_id,
         len(regexp_extract_all(t0,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_email,
         regexp_replace(t0,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
             '<EMAIL>', 'g') AS t1
  FROM aug
),
i AS (
  SELECT doc_id, n_email,
         len(regexp_extract_all(t1,
             '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS n_ipv4,
         regexp_replace(t1,
             '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g') AS t2
  FROM e
),
p AS (
  SELECT doc_id, n_email, n_ipv4,
         len(regexp_extract_all(t2,
             '\+\d{1,3}[ -]\d{3}[ -]\d{3}[ -]\d{4}')) AS n_phone,
         regexp_replace(t2,
             '\+\d{1,3}[ -]\d{3}[ -]\d{3}[ -]\d{4}', '<PHONE>', 'g')
             AS text_red
  FROM i
)
SELECT doc_id, text_red,
       CAST(n_email AS BIGINT) AS n_email,
       CAST(n_ipv4 AS BIGINT) AS n_ipv4,
       CAST(n_phone AS BIGINT) AS n_phone
FROM p
ORDER BY doc_id
"""


ORACLE_QUERIES["pii_scrub"] = (q_pii_scrub, SQL_PII_SCRUB)

# ---------------------------------------------------------------------------
# Q: duplicate_spans — cross-doc duplicated k-gram profile, the corpus
# substring-dedup signal (Lee et al. 2021 at 4-word-gram granularity;
# stages/decontam.duplicate_span_profile).  Two int64-keyed exchanges:
# shingle-hash buckets compute per-shingle distinct-doc counts and flag
# rows, doc_id buckets fold flags into per-doc (n_sh, n_dup, dup_e6).
# The SQL twin rebuilds shingles textually with the injective
# length-prefixed encoding, so a shingle-hash collision or kernel drift
# breaks the value-hash.  Docs with < k tokens excluded on both sides.
# ---------------------------------------------------------------------------
_DUPSPAN_K = 4


def q_duplicate_spans(sf_dir: str):
    from pynomaly_ray.stages.decontam import duplicate_span_profile

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(
        duplicate_span_profile(docs, k=_DUPSPAN_K),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_sh", pa.int64()),
                ("n_dup", pa.int64()),
                ("dup_e6", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_DUPLICATE_SPANS = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_transform(w[i:i+3],
                                        t -> CONCAT(len(t), ':', t)), '') AS s
  FROM tok, UNNEST(generate_series(1, len(w) - 3)) AS t(i)
  WHERE len(w) >= 4
),
c AS (SELECT s, COUNT(*) AS nd FROM sh GROUP BY s),
p AS (
  SELECT sh.doc_id, COUNT(*) AS n_sh,
         SUM(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END) AS n_dup
  FROM sh JOIN c USING (s) GROUP BY sh.doc_id
)
SELECT doc_id, CAST(n_sh AS BIGINT) AS n_sh,
       CAST(n_dup AS BIGINT) AS n_dup,
       CAST(FLOOR(n_dup * 1000000.0 / n_sh + 0.5) AS BIGINT) AS dup_e6
FROM p
ORDER BY doc_id
"""


ORACLE_QUERIES["duplicate_spans"] = (q_duplicate_spans, SQL_DUPLICATE_SPANS)

# ---------------------------------------------------------------------------
# Q: tfidf_top_terms — per-doc top TF-IDF term (stages/text.py
# tfidf_top_terms): per-(doc,token) tf via an Arrow NUL-safe groupby,
# df computed AND joined inside ONE token-keyed exchange (rows of a
# token are co-located, so df is the bucket row count), then a
# doc-keyed top-1 by (score_e6 DESC, token ASC) on the exact integer
# grid.  N (docs with >= 1 token) folds as one int per block.
# ---------------------------------------------------------------------------
def q_tfidf_top_terms(sf_dir: str):
    from pynomaly_ray.stages.text import tfidf_top_terms

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(
        tfidf_top_terms(docs),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("top_term", pa.string()),
                ("tf", pa.int64()),
                ("df", pa.int64()),
                ("score_e6", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_TFIDF_TOP_TERMS = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
tf AS (
  SELECT doc_id, t.tok AS token, COUNT(*) AS tf
  FROM tok, UNNEST(w) AS t(tok)
  GROUP BY doc_id, t.tok
),
n AS (SELECT COUNT(DISTINCT doc_id) AS nd FROM tf),
df AS (SELECT token, COUNT(*) AS df FROM tf GROUP BY token),
s AS (
  SELECT tf.doc_id, tf.token, tf.tf, df.df,
         CAST(FLOOR(tf.tf * LN(CAST((SELECT nd FROM n) AS DOUBLE) / df.df)
              * 1000000 + 0.5) AS BIGINT) AS score_e6
  FROM tf JOIN df USING (token)
),
r AS (
  SELECT doc_id, token, tf, df, score_e6,
         ROW_NUMBER() OVER (
             PARTITION BY doc_id ORDER BY score_e6 DESC, token
         ) AS rn
  FROM s
)
SELECT doc_id, token AS top_term, CAST(tf AS BIGINT) AS tf,
       CAST(df AS BIGINT) AS df, score_e6
FROM r WHERE rn = 1
ORDER BY doc_id
"""


ORACLE_QUERIES["tfidf_top_terms"] = (q_tfidf_top_terms, SQL_TFIDF_TOP_TERMS)

# ---------------------------------------------------------------------------
# Q: chunk_documents — fixed 32-token context-window chunking (the
# RAG/training chunk step; stages/text.chunk_documents): one flat_map
# pass, the flat token stream joined per chunk by ONE Arrow binary_join
# kernel.  The SQL twin rebuilds every window with 1-based inclusive
# list slicing, certifying window boundaries, the short final window,
# and the space-normalized chunk text byte-exactly.
# ---------------------------------------------------------------------------
_CHUNK_WORDS = 32


def q_chunk_documents(sf_dir: str):
    from pynomaly_ray.stages.text import chunk_documents

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(
        chunk_documents(docs, chunk_words=_CHUNK_WORDS),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("chunk_idx", pa.int64()),
                ("chunk_text", pa.string()),
                ("n_tok", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id", "chunk_idx"])


# the SQL twin is DERIVED from _CHUNK_WORDS so the two sides of the
# oracle cannot silently desynchronize if the width changes
SQL_CHUNK_DOCUMENTS = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
c AS (
  SELECT doc_id, i AS chunk_idx,
         array_to_string(w[(i * {cw} + 1):(LEAST((i + 1) * {cw}, len(w)))], ' ')
             AS chunk_text,
         LEAST(len(w) - i * {cw}, {cw}) AS n_tok
  FROM tok,
       UNNEST(generate_series(0,
              CAST(CEIL(len(w) / {cw}.0) AS BIGINT) - 1)) AS t(i)
  WHERE len(w) >= 1
)
SELECT doc_id, chunk_idx, chunk_text, CAST(n_tok AS BIGINT) AS n_tok
FROM c
ORDER BY doc_id, chunk_idx
""".format(cw=_CHUNK_WORDS)


ORACLE_QUERIES["chunk_documents"] = (q_chunk_documents, SQL_CHUNK_DOCUMENTS)

# ---------------------------------------------------------------------------
# Q: leak_safe_split — train/test split that can NEVER leak an exact
# duplicate across the boundary: every doc is assigned by the Knuth
# hash of its content group's REPRESENTATIVE (min doc_id among equal
# texts), so whole duplicate clusters land on one side — the
# split-by-construction decontamination step run before held-out eval
# sets are cut.  One int64-keyed exchange: (content_hash, doc_id) rows
# co-locate per group, the reducer computes the rep and the split in
# place (text itself never leaves the map task, the exact_dedup
# contract).  Exact integer split rule both sides: train iff
# knuth32(rep) * 5 < 2^32 * 4 (an 80/20 cut with no float compare).
# ---------------------------------------------------------------------------
def q_leak_safe_split(sf_dir: str):
    from pynomaly_ray.functions.hashing import hash_strings, knuth32

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def rows(batch: pa.Table) -> pa.Table:
        return _from_pandas(
            pd.DataFrame(
                {
                    "content_hash": hash_strings(batch["text"]).astype(np.int64),
                    "doc_id": batch["doc_id"].to_pandas().astype(np.int64),
                }
            )
        )

    def split(df: pd.DataFrame) -> pd.DataFrame:
        rep = df.groupby("content_hash", sort=False)["doc_id"].transform("min")
        rep = rep.to_numpy(dtype=np.int64)
        h = knuth32(rep).astype(np.uint64)
        is_train = (h * np.uint64(5)) < np.uint64(4294967296) * np.uint64(4)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "rep_doc_id": rep,
                "split": np.where(is_train, "train", "test"),
            }
        )

    out = hash_aggregate(
        ds.map_batches(rows, batch_format="pyarrow"), ["content_hash"], split
    )
    return collect_sorted(out, ["doc_id"])


SQL_LEAK_SAFE_SPLIT = """
WITH g AS (
  SELECT doc_id, MIN(doc_id) OVER (PARTITION BY text) AS rep_doc_id
  FROM documents
)
SELECT doc_id, rep_doc_id,
       CASE WHEN CAST(((rep_doc_id % 4294967296) * 2654435761::HUGEINT)
                 % 4294967296 AS BIGINT) * 5 < 17179869184
            THEN 'train' ELSE 'test' END AS split
FROM g
ORDER BY doc_id
"""


ORACLE_QUERIES["leak_safe_split"] = (q_leak_safe_split, SQL_LEAK_SAFE_SPLIT)

# ===========================================================================
# Round-5 eighth wave: inter-arrival profiling, robust (median/MAD)
# outlier filtering, and exact column profiling.
# ===========================================================================


# ---------------------------------------------------------------------------
# Q: event_gaps — per-user inter-arrival profile (n_gaps, total, max in
# microseconds).  The LAG-window class computed without a global sort:
# one user-keyed exchange co-locates each user's events, the bucket
# reducer sorts ONCE per bucket over (user, ts) and vectorizes the
# diffs; sum/max/count are order-stable so duplicate timestamps cannot
# flip the hash.  Users with a single event have no gap (both sides
# drop them).
# ---------------------------------------------------------------------------
def q_event_gaps(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id", "ts"])

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype=np.int64),
                    "n_gaps": pd.Series(dtype=np.int64),
                    "total_gap_us": pd.Series(dtype=np.int64),
                    "max_gap_us": pd.Series(dtype=np.int64),
                }
            )
        df = df.sort_values(["user_id", "ts"], kind="mergesort")
        uid = df["user_id"].to_numpy()
        us = df["ts"].astype("int64").to_numpy()
        same_user = np.concatenate([[False], uid[1:] == uid[:-1]])
        gap = np.concatenate([[0], us[1:] - us[:-1]])
        g = pd.DataFrame({"user_id": uid[same_user], "gap": gap[same_user]})
        out = g.groupby("user_id", sort=False)["gap"].agg(
            n_gaps="size", total_gap_us="sum", max_gap_us="max"
        )
        return out.reset_index().astype(np.int64)

    out = hash_aggregate(ds, ["user_id"], gaps)
    return collect_sorted(out, ["user_id"])


SQL_EVENT_GAPS = """
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_gaps,
       CAST(SUM(gap) AS BIGINT) AS total_gap_us,
       CAST(MAX(gap) AS BIGINT) AS max_gap_us
FROM (
  SELECT user_id,
         epoch_us(ts) - epoch_us(lag(ts) OVER (PARTITION BY user_id ORDER BY ts))
             AS gap
  FROM events
) WHERE gap IS NOT NULL
GROUP BY user_id
ORDER BY user_id
"""


ORACLE_QUERIES["event_gaps"] = (q_event_gaps, SQL_EVENT_GAPS)


# ---------------------------------------------------------------------------
# Q: mad_outliers — robust outlier counts per event_type: |v - median|
# > 5 * MAD on the exact integer e6 grid.  Median and MAD are EXACT
# global order statistics via functions/exchange.global_kth_smallest
# (bounded-domain histogram exchange; lower median at k=(n+1)//2 so
# even counts stay integer-exact on both sides — AVG-style medians
# would leave the grid).  The projected (event_type, v) stream is
# materialized once and re-consumed by the two statistic passes plus
# the final filter; at the 100x scale that is one spillable
# object-store copy of a two-column projection, cheaper than three
# re-reads only when storage is remote — both shapes stream.
# ---------------------------------------------------------------------------
def q_mad_outliers(sf_dir: str):
    from pynomaly_ray.functions.exchange import global_kth_smallest

    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def e6(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["value"].notna()]
        return _from_pandas(
            pd.DataFrame(
                {
                    "event_type": df["event_type"],
                    "v": np.floor(
                        df["value"].to_numpy(dtype=np.float64) * 1_000_000.0 + 0.5
                    ).astype(np.int64),
                }
            )
        )

    vds = ds.map_batches(e6, batch_format="pyarrow").materialize()
    n = vds.count()
    if n == 0:
        # all-NULL (or empty) value column: the SQL twin's NULL-valued
        # median comparisons yield zero rows, not an error — match it
        return pd.DataFrame(
            {
                "event_type": pd.Series(dtype=object),
                "n_out": pd.Series(dtype=np.int64),
            }
        )
    med = global_kth_smallest(vds, "v", (n + 1) // 2)

    def dev(t: pa.Table) -> pa.Table:
        v = t["v"].to_numpy()
        return pa.table({"d": pa.array(np.abs(v - med))})

    dds = vds.map_batches(dev, batch_format="pyarrow")
    mad = global_kth_smallest(dds, "d", (n + 1) // 2)

    def flag(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out = df[np.abs(df["v"].to_numpy() - med) > 5 * mad]
        if not len(out):
            return pa.table(
                {"event_type": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        g = out.groupby("event_type", sort=False).size()
        return pa.table(
            {
                "event_type": pa.array(g.index.to_numpy(dtype=object), pa.string()),
                "n": pa.array(g.to_numpy(dtype=np.int64)),
            }
        )

    partials = vds.map_batches(flag, batch_format="pyarrow")
    out = _collect(
        hash_aggregate(
            partials,
            ["event_type"],
            lambda df: df.groupby("event_type", sort=False)["n"]
            .sum()
            .reset_index(name="n_out"),
        ),
        pa.schema([("event_type", pa.string()), ("n_out", pa.int64())]),
    )
    return collect_sorted(out.to_pandas(), ["event_type"])


SQL_MAD_OUTLIERS = """
WITH v AS (
  SELECT event_type, CAST(FLOOR(value * 1000000 + 0.5) AS BIGINT) AS v
  FROM events WHERE value IS NOT NULL
),
m AS (SELECT v AS med FROM v ORDER BY v
      LIMIT 1 OFFSET ((SELECT COUNT(*) FROM v) + 1) // 2 - 1),
d AS (SELECT event_type, ABS(v - (SELECT med FROM m)) AS dev FROM v),
md AS (SELECT dev AS mad FROM d ORDER BY dev
       LIMIT 1 OFFSET ((SELECT COUNT(*) FROM d) + 1) // 2 - 1)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_out
FROM d WHERE dev > 5 * (SELECT mad FROM md)
GROUP BY event_type
ORDER BY event_type
"""


ORACLE_QUERIES["mad_outliers"] = (q_mad_outliers, SQL_MAD_OUTLIERS)


# ---------------------------------------------------------------------------
# Q: table_profile — exact per-column profile (rows, nulls, distinct,
# min/max on the e6 grid) of lineitem's numeric measures, the
# data-quality profiling operator.  ONE read and ONE exchange: each
# block emits per-(column, value) COUNTED partials (nulls as a flagged
# zero-value row, so null counts ride the same stream), the
# (col, v, isn)-keyed exchange folds them — per-bucket distinct/min/max
# /counts are disjoint by construction and sum exactly.  Exact distinct
# of an unbounded-cardinality column is inherently a full exchange of
# the distinct set; the approximate scale path is the HLL sketch
# (approx_distinct_users).
# ---------------------------------------------------------------------------
_PROFILE_COLS = ["l_discount", "l_extendedprice", "l_quantity", "l_tax"]


def q_table_profile(sf_dir: str):
    ds = _pq(sf_dir, "lineitem", _PROFILE_COLS)

    def partial(t: pa.Table) -> pa.Table:
        cols, vals, isn, cnt = [], [], [], []
        for c in _PROFILE_COLS:
            s = t[c].to_pandas()
            null_n = int(s.isna().sum())
            e6 = np.floor(
                s.dropna().to_numpy(dtype=np.float64) * 1_000_000.0 + 0.5
            ).astype(np.int64)
            uv, uc = np.unique(e6, return_counts=True)
            cols.append(np.full(len(uv) + (1 if null_n else 0), c, dtype=object))
            vals.append(np.concatenate([uv, [0]]) if null_n else uv)
            isn.append(
                np.concatenate([np.zeros(len(uv), np.int64), [1]])
                if null_n
                else np.zeros(len(uv), np.int64)
            )
            cnt.append(
                np.concatenate([uc.astype(np.int64), [null_n]])
                if null_n
                else uc.astype(np.int64)
            )
        return pa.table(
            {
                "col_name": pa.array(np.concatenate(cols), pa.string()),
                "v": pa.array(np.concatenate(vals)),
                "isn": pa.array(np.concatenate(isn)),
                "n": pa.array(np.concatenate(cnt)),
            }
        )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        # same (col, v, isn) key always lands in the same bucket, so a
        # per-bucket fold over the folded keys is globally exact
        g = df.groupby(["col_name", "v", "isn"], sort=False)["n"].sum().reset_index()
        vals = g[g["isn"] == 0]
        nulls = g[g["isn"] == 1]
        per_col = vals.groupby("col_name", sort=False).agg(
            n_vals=("n", "sum"), n_distinct=("v", "size"),
            min_e6=("v", "min"), max_e6=("v", "max"),
        )
        nn = nulls.groupby("col_name", sort=False)["n"].sum()
        # a column can be ALL null within a bucket (or globally): it has
        # no value rows but must still surface its null count
        idx = per_col.index.union(nn.index)
        per_col = per_col.reindex(idx)
        per_col["n_null"] = nn.reindex(idx).fillna(0).astype(np.int64)
        for c in ("n_vals", "n_distinct"):
            per_col[c] = per_col[c].fillna(0).astype(np.int64)
        per_col[["min_e6", "max_e6"]] = per_col[["min_e6", "max_e6"]].astype(
            "Int64"
        )
        return per_col.rename_axis("col_name").reset_index()

    partials = ds.map_batches(partial, batch_format="pyarrow")
    buckets = hash_aggregate(partials, ["col_name", "v", "isn"], fold).to_pandas()
    # driver fold over P tiny per-bucket rows (min of mins, sum of sums)
    g = buckets.groupby("col_name").agg(
        n_vals=("n_vals", "sum"), n_null=("n_null", "sum"),
        n_distinct=("n_distinct", "sum"),
        min_e6=("min_e6", "min"), max_e6=("max_e6", "max"),
    ).reset_index()
    out = pd.DataFrame(
        {
            "col_name": g["col_name"],
            "n_rows": (g["n_vals"] + g["n_null"]).astype(np.int64),
            "n_null": g["n_null"].astype(np.int64),
            "n_distinct": g["n_distinct"].astype(np.int64),
            # nullable: an all-null column has no min/max (SQL MIN -> NULL)
            "min_e6": g["min_e6"].astype("Int64"),
            "max_e6": g["max_e6"].astype("Int64"),
        }
    )
    return collect_sorted(out, ["col_name"])


SQL_TABLE_PROFILE = """
WITH p AS (
  SELECT 'l_discount' AS col_name, l_discount AS v FROM lineitem
  UNION ALL SELECT 'l_extendedprice', l_extendedprice FROM lineitem
  UNION ALL SELECT 'l_quantity', l_quantity FROM lineitem
  UNION ALL SELECT 'l_tax', l_tax FROM lineitem
), e AS (
  SELECT col_name, CAST(FLOOR(v * 1000000 + 0.5) AS BIGINT) AS v_e6 FROM p
)
SELECT col_name,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COUNT(*) - COUNT(v_e6) AS BIGINT) AS n_null,
       CAST(COUNT(DISTINCT v_e6) AS BIGINT) AS n_distinct,
       MIN(v_e6) AS min_e6,
       MAX(v_e6) AS max_e6
FROM e GROUP BY col_name ORDER BY col_name
"""


ORACLE_QUERIES["table_profile"] = (q_table_profile, SQL_TABLE_PROFILE)


# ---------------------------------------------------------------------------
# Q: bigram_lm_score — corpus bigram language-model quality signal
# (stages/lm.py, CCNet-shaped): per doc, the summed 1e6-scaled
# add-one-smoothed bigram probability sum(((c2+1)*1e6) // (c1+V)),
# computed with three int64-keyed exchanges and NO broadcast model.
# Integer floor division on both sides keeps the distributed sum
# reduction-order exact; the SQL twin recomputes c1/c2/V textually, so
# an engine-side hash collision or tokenizer drift breaks the match.
# ---------------------------------------------------------------------------
def q_bigram_lm_score(sf_dir: str):
    from pynomaly_ray.stages.lm import bigram_lm_scores

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(
        bigram_lm_scores(docs),
        pa.schema(
            [("doc_id", pa.int64()), ("n_big", pa.int64()), ("p_e6_total", pa.int64())]
        ),
    )
    return collect_sorted(out.to_pandas(), ["doc_id"])


SQL_BIGRAM_LM_SCORE = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
u AS (SELECT t.tok FROM tok, UNNEST(w) AS t(tok)),
c1 AS (SELECT tok, COUNT(*) AS c FROM u GROUP BY tok),
vv AS (SELECT COUNT(*) AS v FROM c1),
big AS (
  SELECT doc_id, w[i] AS w1, w[i+1] AS w2
  FROM tok, UNNEST(generate_series(1, len(w) - 1)) AS t(i)
  WHERE len(w) >= 2
),
c2 AS (SELECT w1, w2, COUNT(*) AS c FROM big GROUP BY w1, w2)
SELECT b.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_big,
       CAST(SUM(((c2.c + 1) * 1000000) // (c1.c + (SELECT v FROM vv)))
            AS BIGINT) AS p_e6_total
FROM big b
JOIN c2 ON b.w1 = c2.w1 AND b.w2 = c2.w2
JOIN c1 ON b.w1 = c1.tok
GROUP BY b.doc_id
ORDER BY b.doc_id
"""


ORACLE_QUERIES["bigram_lm_score"] = (q_bigram_lm_score, SQL_BIGRAM_LM_SCORE)


# ---------------------------------------------------------------------------
# Q: dedup_spans_removed — substring-dedup removal (Lee et al. 2021
# shape; stages/decontam.duplicate_span_removal): rewrite each doc with
# every token covered by a cross-doc duplicated 4-gram removed.  The
# SQL twin rebuilds shingles with the injective length-prefixed
# encoding, derives per-position coverage with a bounded range join
# (start in [j-3, j]), and re-assembles the cleaned text with an
# ordered STRING_AGG — certifying flagging, coverage windows, and the
# Arrow take/binary_join reassembly byte-exactly.
# ---------------------------------------------------------------------------
def q_dedup_spans_removed(sf_dir: str):
    from pynomaly_ray.stages.decontam import duplicate_span_removal

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(
        duplicate_span_removal(docs, k=_DUPSPAN_K),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_tok", pa.int64()),
                ("n_removed", pa.int64()),
                ("text_clean", pa.string()),
            ]
        ),
    )
    return collect_sorted(out.to_pandas(), ["doc_id"])


SQL_DEDUP_SPANS_REMOVED = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
st AS (
  SELECT doc_id, i,
         array_to_string(list_transform(w[i:i+3],
                                        t -> CONCAT(len(t), ':', t)), '') AS s
  FROM tok, UNNEST(generate_series(1, len(w) - 3)) AS t(i)
  WHERE len(w) >= 4
),
c AS (SELECT s FROM st GROUP BY s HAVING COUNT(DISTINCT doc_id) >= 2),
dup AS (SELECT st.doc_id, st.i FROM st JOIN c USING (s)),
pos AS (
  SELECT doc_id, j, w[j] AS tokj
  FROM tok, UNNEST(generate_series(1, len(w))) AS t(j)
  WHERE len(w) >= 1
),
cov AS (
  SELECT p.doc_id, p.j, ANY_VALUE(p.tokj) AS tokj,
         COUNT(dup.i) > 0 AS covered
  FROM pos p LEFT JOIN dup
    ON dup.doc_id = p.doc_id AND dup.i BETWEEN p.j - 3 AND p.j
  GROUP BY p.doc_id, p.j
)
SELECT doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_tok,
       CAST(SUM(CASE WHEN covered THEN 1 ELSE 0 END) AS BIGINT) AS n_removed,
       COALESCE(STRING_AGG(CASE WHEN NOT covered THEN tokj END, ' '
                           ORDER BY j), '') AS text_clean
FROM cov
GROUP BY doc_id
ORDER BY doc_id
"""


ORACLE_QUERIES["dedup_spans_removed"] = (q_dedup_spans_removed, SQL_DEDUP_SPANS_REMOVED)


# ---------------------------------------------------------------------------
# Q: ngram_novelty — per-doc novelty attribution (inverse of
# duplicate_spans; stages/decontam.ngram_novelty_profile): each distinct
# 4-gram attributed to its MIN doc_id; novelty = first-seen fraction.
# ---------------------------------------------------------------------------
def q_ngram_novelty(sf_dir: str):
    from pynomaly_ray.stages.decontam import ngram_novelty_profile

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(
        ngram_novelty_profile(docs, k=_DUPSPAN_K),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_sh", pa.int64()),
                ("n_novel", pa.int64()),
                ("novelty_e6", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out.to_pandas(), ["doc_id"])


SQL_NGRAM_NOVELTY = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_transform(w[i:i+3],
                                        t -> CONCAT(len(t), ':', t)), '') AS s
  FROM tok, UNNEST(generate_series(1, len(w) - 3)) AS t(i)
  WHERE len(w) >= 4
),
f AS (SELECT s, MIN(doc_id) AS first_doc FROM sh GROUP BY s),
p AS (
  SELECT sh.doc_id, COUNT(*) AS n_sh,
         SUM(CASE WHEN sh.doc_id = f.first_doc THEN 1 ELSE 0 END) AS n_novel
  FROM sh JOIN f USING (s) GROUP BY sh.doc_id
)
SELECT doc_id, CAST(n_sh AS BIGINT) AS n_sh,
       CAST(n_novel AS BIGINT) AS n_novel,
       CAST(FLOOR(n_novel * 1000000.0 / n_sh + 0.5) AS BIGINT) AS novelty_e6
FROM p
ORDER BY doc_id
"""


ORACLE_QUERIES["ngram_novelty"] = (q_ngram_novelty, SQL_NGRAM_NOVELTY)


# ---------------------------------------------------------------------------
# Q: json_field_agg — typed field extraction from a semi-structured
# string column (events.props holds JSON objects), aggregated per
# event_type.  Extraction is a vectorized regex fast-path shared with
# the SQL twin's RE2 pattern (both dialects anchor the same capture);
# a general nested-JSON path would be an actor-pool stage with a real
# parser — this certifies the extract-then-aggregate plumbing.
# Non-matching / null props are excluded from the k aggregates but
# still counted in n_rows.
# ---------------------------------------------------------------------------
def q_json_field_agg(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # explicit ASCII classes (Python re's \s/\d are Unicode-aware,
        # RE2's are not — an NBSP or Unicode digit would diverge the two
        # sides); <= 18 digits so the value always fits int64 exactly on
        # both sides (TRY_CAST parity), cast through Arrow's exact
        # string->int64 kernel, never float64
        ext = df["props"].str.extract(
            r'"k":[ \t\n\r\f\v]*(-?[0-9]{1,18})', expand=False
        )
        arr = pa.compute.cast(
            pa.array(ext, type=pa.string(), from_pandas=True), pa.int64()
        )
        k = pd.Series(
            pd.arrays.IntegerArray(
                arr.fill_null(0).to_numpy().astype(np.int64),
                pa.compute.is_null(arr).to_numpy(zero_copy_only=False),
            ),
            index=df.index,
        )
        g = pd.DataFrame({"event_type": df["event_type"], "k": k}).groupby(
            "event_type", sort=False
        )["k"]
        out = g.agg(n_rows="size", n_k="count", sum_k="sum", min_k="min", max_k="max")
        out = out.reset_index()
        for c in ("n_rows", "n_k", "sum_k"):
            out[c] = out[c].fillna(0).astype(np.int64)
        out["min_k"] = out["min_k"].astype("Int64")
        out["max_k"] = out["max_k"].astype("Int64")
        return _from_pandas(out)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", sort=False).agg(
            n_rows=("n_rows", "sum"), n_k=("n_k", "sum"), sum_k=("sum_k", "sum"),
            min_k=("min_k", "min"), max_k=("max_k", "max"),
        ).reset_index()
        for c in ("n_rows", "n_k", "sum_k"):
            g[c] = g[c].astype(np.int64)
        g["min_k"] = g["min_k"].astype("Int64")
        g["max_k"] = g["max_k"].astype("Int64")
        return g

    out = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), ["event_type"], fold
    )
    return collect_sorted(out, ["event_type"])


SQL_JSON_FIELD_AGG = r"""
WITH e AS (
  SELECT event_type,
         TRY_CAST(NULLIF(regexp_extract(props,
                                        '"k":[ \t\n\r\f\v]*(-?[0-9]{1,18})', 1),
                         '') AS BIGINT) AS k
  FROM events
)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COUNT(k) AS BIGINT) AS n_k,
       CAST(COALESCE(SUM(k), 0) AS BIGINT) AS sum_k,
       MIN(k) AS min_k,
       MAX(k) AS max_k
FROM e GROUP BY event_type ORDER BY event_type
"""


ORACLE_QUERIES["json_field_agg"] = (q_json_field_agg, SQL_JSON_FIELD_AGG)


# ---------------------------------------------------------------------------
# Q: event_funnel — behavioral funnel: users with a 'purchase' STRICTLY
# after a 'view' within one hour.  One user-keyed exchange; per-bucket
# vectorized pd.merge_asof (backward, exact matches off, 1h tolerance)
# matches each purchase to its latest prior view; per-bucket distinct
# user counts are disjoint and sum exactly.
# ---------------------------------------------------------------------------
_FUNNEL_WINDOW_US = 3_600_000_000


def q_event_funnel(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_type"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["event_type"].isin(["view", "purchase"])]
        return _from_pandas(
            pd.DataFrame(
                {
                    "user_id": df["user_id"].to_numpy(dtype=np.int64),
                    "us": df["ts"].astype("int64").to_numpy(),
                    "is_view": (df["event_type"] == "view").to_numpy(np.int64),
                }
            )
        )

    def funnel(df: pd.DataFrame) -> pd.DataFrame:
        views = df[df["is_view"] == 1].sort_values("us", kind="mergesort")
        buys = df[df["is_view"] == 0].sort_values("us", kind="mergesort")
        n_viewers = views["user_id"].nunique()
        if not len(views) or not len(buys):
            n_conv = 0
        else:
            m = pd.merge_asof(
                buys,
                views[["user_id", "us"]].rename(columns={"us": "view_us"}),
                left_on="us",
                right_on="view_us",
                by="user_id",
                direction="backward",
                allow_exact_matches=False,
                tolerance=_FUNNEL_WINDOW_US,
            )
            n_conv = m.loc[m["view_us"].notna(), "user_id"].nunique()
        return pd.DataFrame(
            {
                "n_viewers": pd.array([n_viewers], dtype=np.int64),
                "n_converted": pd.array([n_conv], dtype=np.int64),
            }
        )

    per_bucket = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["user_id"], funnel
    ).to_pandas()
    return pd.DataFrame(
        {
            "n_viewers": pd.array([per_bucket["n_viewers"].sum()], dtype=np.int64),
            "n_converted": pd.array(
                [per_bucket["n_converted"].sum()], dtype=np.int64
            ),
        }
    )


SQL_EVENT_FUNNEL = """
WITH v AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'view'),
conv AS (
  SELECT DISTINCT p.user_id
  FROM events p JOIN events w
    ON p.user_id = w.user_id
   AND p.event_type = 'purchase' AND w.event_type = 'view'
   AND p.ts > w.ts
   AND epoch_us(p.ts) - epoch_us(w.ts) <= 3600000000
)
SELECT (SELECT COUNT(*) FROM v) AS n_viewers,
       (SELECT COUNT(*) FROM conv) AS n_converted
"""


ORACLE_QUERIES["event_funnel"] = (q_event_funnel, SQL_EVENT_FUNNEL)


# ---------------------------------------------------------------------------
# Q: domain_upsample — temperature-style source rebalancing by integer
# replication: rare sources are repeated ceil(max_count/count) times
# (capped at 4), the up-sampling side of domain_mix.  Per-source counts
# are a tiny dim (one exchange of partials); factors broadcast in the
# replicate pass's closure; replication itself is a vectorized
# map-side np.repeat with an explicit copy_idx so downstream epochs
# can distinguish (and re-shuffle) the copies deterministically.
# Integer ceil ((m + c - 1) // c) on both sides — float division would
# misround exact multiples.
# ---------------------------------------------------------------------------
_UPSAMPLE_CAP = 4


def q_domain_upsample(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "source"])

    def counts(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate([("doc_id", "count")])
        return pa.table(
            {"source": g["source"], "n": g["doc_id_count"].cast(pa.int64())}
        )

    cnt = hash_aggregate(
        ds.map_batches(counts, batch_format="pyarrow"),
        ["source"],
        lambda df: df.groupby("source", sort=False)["n"].sum().reset_index(),
    ).to_pandas()
    m = int(cnt["n"].max())
    factors = {
        s: min(_UPSAMPLE_CAP, (m + c - 1) // c)
        for s, c in zip(cnt["source"], cnt["n"])
    }

    def replicate(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        f = df["source"].map(factors).to_numpy(dtype=np.int64)
        rep = np.repeat(np.arange(len(df)), f)
        copy_idx = np.arange(len(rep)) - np.repeat(np.cumsum(f) - f, f)
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"].to_numpy(dtype=np.int64)[rep]),
                "copy_idx": pa.array(copy_idx),
            }
        )

    out = ds.map_batches(replicate, batch_format="pyarrow")
    return collect_sorted(out, ["doc_id", "copy_idx"])


SQL_DOMAIN_UPSAMPLE = """
WITH cnt AS (SELECT source, COUNT(*) AS c FROM documents GROUP BY source),
mx AS (SELECT MAX(c) AS m FROM cnt),
f AS (SELECT source,
             LEAST(((SELECT m FROM mx) + c - 1) // c, 4) AS f
      FROM cnt)
SELECT d.doc_id, t.ci AS copy_idx
FROM documents d JOIN f USING (source),
     UNNEST(generate_series(0, CAST(f.f AS BIGINT) - 1)) AS t(ci)
ORDER BY doc_id, copy_idx
"""


ORACLE_QUERIES["domain_upsample"] = (q_domain_upsample, SQL_DOMAIN_UPSAMPLE)


# ---------------------------------------------------------------------------
# Q: drift_ks — exact two-sample Kolmogorov-Smirnov distance between the
# 'click' and 'view' value distributions, the distribution-drift check
# between two cohorts.  Reuses the bounded-domain histogram-exchange
# shape (global_kth_smallest's contract): per-block (value, n1, n2)
# partials, one value-keyed exchange, driver cumsum over DISTINCT
# values only (cap-guarded).  The statistic stays integer-exact:
# ks_e6 = max|cum1*N2 - cum2*N1| * 1e6 // (N1*N2), evaluated in
# arbitrary-precision Python on the driver and HUGEINT in SQL.
# ---------------------------------------------------------------------------
_KS_DISTINCT_CAP = 2_000_000


def q_drift_ks(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["event_type"].isin(["click", "view"]) & df["value"].notna()]
        v = np.floor(df["value"].to_numpy(dtype=np.float64) * 1e6 + 0.5).astype(
            np.int64
        )
        is1 = (df["event_type"] == "click").to_numpy()
        g = pd.DataFrame(
            {"v": v, "c1": is1.astype(np.int64), "c2": (~is1).astype(np.int64)}
        ).groupby("v", sort=False).sum()
        return _from_pandas(g.reset_index())

    folded = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["v"],
        lambda df: df.groupby("v", sort=False).sum().reset_index(),
    ).to_pandas()
    if len(folded) > _KS_DISTINCT_CAP:
        raise ValueError(
            f"value domain has {len(folded)} distinct points (cap "
            f"{_KS_DISTINCT_CAP}); use the KLL sketch for an approximate KS"
        )
    folded = folded.sort_values("v")
    a1 = folded["c1"].to_numpy(dtype=np.int64).cumsum()
    a2 = folded["c2"].to_numpy(dtype=np.int64).cumsum()
    n1, n2 = int(a1[-1]) if len(a1) else 0, int(a2[-1]) if len(a2) else 0
    if n1 == 0 or n2 == 0:
        raise ValueError("both cohorts must be non-empty for a KS distance")
    # arbitrary-precision: cum*N products can exceed int64 at full scale
    d = max(abs(int(x) * n2 - int(y) * n1) for x, y in zip(a1, a2))
    ks_e6 = (d * 1_000_000) // (n1 * n2)
    return pd.DataFrame(
        {
            "n_click": pd.array([n1], dtype=np.int64),
            "n_view": pd.array([n2], dtype=np.int64),
            "ks_e6": pd.array([ks_e6], dtype=np.int64),
        }
    )


SQL_DRIFT_KS = """
WITH v AS (
  SELECT CASE WHEN event_type = 'click' THEN 1 ELSE 2 END AS grp,
         CAST(FLOOR(value * 1000000 + 0.5) AS BIGINT) AS v
  FROM events
  WHERE event_type IN ('click', 'view') AND value IS NOT NULL
),
n AS (SELECT COUNT(*) FILTER (WHERE grp = 1) AS n1,
             COUNT(*) FILTER (WHERE grp = 2) AS n2 FROM v),
h AS (SELECT v,
             COUNT(*) FILTER (WHERE grp = 1) AS c1,
             COUNT(*) FILTER (WHERE grp = 2) AS c2
      FROM v GROUP BY v),
c AS (SELECT SUM(c1) OVER (ORDER BY v) AS a1,
             SUM(c2) OVER (ORDER BY v) AS a2 FROM h)
SELECT CAST((SELECT n1 FROM n) AS BIGINT) AS n_click,
       CAST((SELECT n2 FROM n) AS BIGINT) AS n_view,
       CAST(MAX(ABS(a1 * (SELECT n2 FROM n) - a2 * (SELECT n1 FROM n)))
            * 1000000 // ((SELECT n1 FROM n) * (SELECT n2 FROM n))
            AS BIGINT) AS ks_e6
FROM c
"""


ORACLE_QUERIES["drift_ks"] = (q_drift_ks, SQL_DRIFT_KS)


# ---------------------------------------------------------------------------
# Q: hourly_delta — hour-over-hour event-count change per type (the
# trend/alerting window op): hourly partial counts, then ONE
# type-keyed exchange whose buckets hold a type's ENTIRE (small by
# domain) hour series, diffed vectorized after one in-bucket sort.
# Deltas are against the previous PRESENT hour (LAG over existing
# rows; gaps are not zero-filled — both sides agree).  First hour of a
# type has a NULL delta.
# ---------------------------------------------------------------------------
def q_hourly_delta(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["hour_bucket"] = df["ts"].astype("int64") // 3_600_000_000
        g = (
            df.groupby(["event_type", "hour_bucket"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return _from_pandas(g)

    def delta(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["event_type", "hour_bucket"], sort=False)["n"]
            .sum()
            .reset_index()
            .sort_values(["event_type", "hour_bucket"], kind="mergesort")
        )
        prev = g.groupby("event_type", sort=False)["n"].shift(1)
        # a type's first present hour has no prior -> excluded on both
        # sides (NULL-valued floats defeat the order-insensitive value
        # hash, so the contract is "rows that HAVE a delta")
        g = g[prev.notna()].copy()
        g["delta"] = (g["n"] - prev[prev.notna()]).astype(np.int64)
        g["n"] = g["n"].astype(np.int64)
        return g

    out = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), ["event_type"], delta
    )
    return collect_sorted(out, ["event_type", "hour_bucket"])


SQL_HOURLY_DELTA = """
WITH h AS (
  SELECT event_type,
         epoch_us(ts) // 3600000000 AS hour_bucket,
         COUNT(*) AS n
  FROM events GROUP BY event_type, hour_bucket
)
SELECT event_type, hour_bucket, n, delta FROM (
  SELECT event_type, hour_bucket,
         CAST(n AS BIGINT) AS n,
         CAST(n - lag(n) OVER (PARTITION BY event_type ORDER BY hour_bucket)
              AS BIGINT) AS delta
  FROM h
) WHERE delta IS NOT NULL
ORDER BY event_type, hour_bucket
"""


ORACLE_QUERIES["hourly_delta"] = (q_hourly_delta, SQL_HOURLY_DELTA)


# ---------------------------------------------------------------------------
# Q: text_normalize — canonical lowercase/whitespace normalization
# (stages/text.normalize_text), byte-exact against DuckDB because both
# sides case-map through utf8proc and share the ASCII whitespace class.
# ---------------------------------------------------------------------------
def q_text_normalize(sf_dir: str):
    from pynomaly_ray.stages.text import normalize_text

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(
        normalize_text(docs),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("text_norm", pa.string()),
                ("n_chars_norm", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out.to_pandas(), ["doc_id"])


SQL_TEXT_NORMALIZE = r"""
SELECT doc_id,
       TRIM(regexp_replace(lower(COALESCE(text, '')),
                           '[ \t\n\r\f\v]+', ' ', 'g')) AS text_norm,
       CAST(length(TRIM(regexp_replace(lower(COALESCE(text, '')),
                                       '[ \t\n\r\f\v]+', ' ', 'g')))
            AS BIGINT) AS n_chars_norm
FROM documents
ORDER BY doc_id
"""


ORACLE_QUERIES["text_normalize"] = (q_text_normalize, SQL_TEXT_NORMALIZE)


# ---------------------------------------------------------------------------
# Q: source_overlap — pairwise source vocabulary Jaccard
# (stages/text.source_vocab_overlap): distinct-token intersections per
# source pair from ONE token-keyed exchange, exact integer jaccard_e6.
# ---------------------------------------------------------------------------
def q_source_overlap(sf_dir: str):
    from pynomaly_ray.stages.text import source_vocab_overlap

    docs = _pq(sf_dir, "documents", ["source", "text"])
    out = source_vocab_overlap(docs)
    return collect_sorted(out, ["src_a", "src_b"])


SQL_SOURCE_OVERLAP = r"""
WITH tok AS (
  SELECT DISTINCT source, t.tok
  FROM documents,
       UNNEST(regexp_extract_all(text, '[^ \t\n\r\f\v]+')) AS t(tok)
),
n AS (SELECT source, COUNT(*) AS c FROM tok GROUP BY source),
i AS (
  SELECT a.source AS src_a, b.source AS src_b, COUNT(*) AS inter
  FROM tok a JOIN tok b ON a.tok = b.tok AND a.source < b.source
  GROUP BY a.source, b.source
)
SELECT src_a, src_b, CAST(inter AS BIGINT) AS inter,
       CAST(inter * 1000000 // (na.c + nb.c - inter) AS BIGINT) AS jaccard_e6
FROM i
JOIN n na ON na.source = i.src_a
JOIN n nb ON nb.source = i.src_b
ORDER BY src_a, src_b
"""


ORACLE_QUERIES["source_overlap"] = (q_source_overlap, SQL_SOURCE_OVERLAP)


# ---------------------------------------------------------------------------
# Q: bigram_collocations — top-20 corpus bigrams by frequency with an
# exact integer lift (PMI's ratio un-logged on the e6 grid:
# c2 * N * 1e6 // (c1(w1) * c1(w2))).  Per-block (w1, w2, n) partials
# fold in ONE pair-keyed exchange (NUL-safe string keys); each bucket
# ships only its local top-20 plus one total row, so the driver sees
# P * 21 rows regardless of vocabulary size.  The <= 40 winning tokens'
# unigram counts come from a second broadcast-filtered pass; lift is
# arbitrary-precision on the driver (the SQL twin uses HUGEINT).
# Tie-break (n DESC, w1, w2) matches ORDER BY exactly, so rank-20 ties
# cannot flip the hash.
# ---------------------------------------------------------------------------
_COLLOC_K = 20


def q_bigram_collocations(sf_dir: str):
    from pynomaly_ray.functions.hashing import nul_safe_key
    from pynomaly_ray.stages.decontam import _TOKEN_RE

    ds = _pq(sf_dir, "documents", ["text"]).materialize()

    def flat_tokens(t: pa.Table):
        texts = t["text"].to_pandas().fillna("")
        toks = texts.str.findall(_TOKEN_RE)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        flat = np.array(
            [w for lst in toks.tolist() for w in lst], dtype=object
        )
        return flat, lens

    def partial(t: pa.Table) -> pa.Table:
        flat, lens = flat_tokens(t)
        n = len(flat)
        if n < 2:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        m = n - 1
        woff = np.concatenate([[0], np.cumsum(lens)])
        doc_of = np.repeat(np.arange(len(lens)), lens)[:m]
        valid = (np.arange(m) + 2) <= woff[doc_of + 1]
        df = pd.DataFrame({"w1": flat[:m][valid], "w2": flat[1:][valid]})
        g = (
            df.groupby(
                [nul_safe_key(df["w1"]), nul_safe_key(df["w2"])], sort=False
            )
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "w1": pa.array(g["w1"].astype(object), pa.string()),
                "w2": pa.array(g["w2"].astype(object), pa.string()),
                "n": pa.array(g["n"].to_numpy(dtype=np.int64)),
            }
        )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "w1": pd.array([], dtype="string"),
                    "w2": pd.array([], dtype="string"),
                    "n": pd.Series(dtype=np.int64),
                    "kind": pd.Series(dtype=np.int64),
                }
            )
        g = (
            df.groupby(
                [nul_safe_key(df["w1"]), nul_safe_key(df["w2"])], sort=False
            )["n"]
            .sum()
            .reset_index()
        )
        total = int(g["n"].sum())
        g["w1"] = g["w1"].astype(object)
        g["w2"] = g["w2"].astype(object)
        top = g.sort_values(
            ["n", "w1", "w2"], ascending=[False, True, True], kind="mergesort"
        ).head(_COLLOC_K)
        top = top.assign(kind=np.int64(0))
        tot_row = pd.DataFrame(
            {"w1": [""], "w2": [""], "n": [total], "kind": [np.int64(1)]}
        )
        return pd.concat([top, tot_row], ignore_index=True)

    buckets = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), ["w1", "w2"], fold
    ).to_pandas()
    n_total = int(buckets.loc[buckets["kind"] == 1, "n"].sum())
    top = (
        buckets[buckets["kind"] == 0]
        .sort_values(["n", "w1", "w2"], ascending=[False, True, True], kind="mergesort")
        .head(_COLLOC_K)
        .reset_index(drop=True)
    )
    winners = set(top["w1"]) | set(top["w2"])

    def uni_partial(t: pa.Table) -> pa.Table:
        flat, _lens = flat_tokens(t)
        hit = flat[np.isin(flat, list(winners))] if len(flat) else flat
        uv, uc = np.unique(hit, return_counts=True)
        return pa.table(
            {
                "tok": pa.array(uv.astype(object), pa.string()),
                "c": pa.array(uc.astype(np.int64)),
            }
        )

    uni = ds.map_batches(uni_partial, batch_format="pyarrow").to_pandas()
    # nul_safe_key: a plain object-string groupby would alias winner
    # tokens differing only after an embedded NUL (KeyError below)
    c1 = uni.groupby(nul_safe_key(uni["tok"]))["c"].sum().to_dict()
    lift = [
        (int(r.n) * n_total * 1_000_000) // (int(c1[r.w1]) * int(c1[r.w2]))
        for r in top.itertuples()
    ]
    return pd.DataFrame(
        {
            "w1": top["w1"].astype(object),
            "w2": top["w2"].astype(object),
            "n_pair": top["n"].to_numpy(dtype=np.int64),
            "lift_e6": pd.array(lift, dtype=np.int64),
        }
    )


SQL_BIGRAM_COLLOCATIONS = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
big AS (
  SELECT w[i] AS w1, w[i+1] AS w2
  FROM tok, UNNEST(generate_series(1, len(w) - 1)) AS t(i)
  WHERE len(w) >= 2
),
c2 AS (SELECT w1, w2, COUNT(*) AS c FROM big GROUP BY w1, w2),
top AS (SELECT * FROM c2 ORDER BY c DESC, w1, w2 LIMIT 20),
u AS (SELECT t.tok FROM tok, UNNEST(w) AS t(tok)),
c1 AS (SELECT tok, COUNT(*) AS c FROM u GROUP BY tok),
nn AS (SELECT COUNT(*) AS n FROM big)
SELECT top.w1, top.w2, CAST(top.c AS BIGINT) AS n_pair,
       CAST(CAST(top.c AS HUGEINT) * (SELECT n FROM nn) * 1000000
            // (CAST(ca.c AS HUGEINT) * cb.c) AS BIGINT) AS lift_e6
FROM top
JOIN c1 ca ON ca.tok = top.w1
JOIN c1 cb ON cb.tok = top.w2
ORDER BY n_pair DESC, w1, w2
"""


ORACLE_QUERIES["bigram_collocations"] = (q_bigram_collocations, SQL_BIGRAM_COLLOCATIONS)


# ---------------------------------------------------------------------------
# Q: hourly_active_users — distinct users per hour window.  Per-block
# distinct (hour, user) rows through ONE (hour, user)-keyed exchange:
# after the bucket dedupe every surviving row is globally unique, so
# per-bucket per-hour row counts sum exactly — no per-hour hot bucket
# (an hour's users spread over ALL buckets), no driver set union.
# ---------------------------------------------------------------------------
def q_hourly_active_users(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        hour = df["ts"].astype("int64").to_numpy() // 3_600_000_000
        g = pd.DataFrame(
            {"hour_bucket": hour, "user_id": df["user_id"].to_numpy()}
        ).drop_duplicates()
        return _from_pandas(g)

    def count(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        return (
            d.groupby("hour_bucket", sort=False)
            .size()
            .reset_index(name="n_users")
            .astype(np.int64)
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    counted = hash_aggregate(partials, ["hour_bucket", "user_id"], count)
    out = hash_aggregate(
        counted,
        ["hour_bucket"],
        lambda df: df.groupby("hour_bucket", sort=False)["n_users"]
        .sum()
        .reset_index(),
    )
    return collect_sorted(out, ["hour_bucket"])


SQL_HOURLY_ACTIVE_USERS = """
SELECT epoch_us(ts) // 3600000000 AS hour_bucket,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events
GROUP BY hour_bucket
ORDER BY hour_bucket
"""


ORACLE_QUERIES["hourly_active_users"] = (q_hourly_active_users, SQL_HOURLY_ACTIVE_USERS)


# ---------------------------------------------------------------------------
# Q: retention_cohorts — weekly cohort retention (the product-analytics
# triangle): users grouped by FIRST active week, counted once per
# (cohort, week-offset) they return in.  One user-keyed exchange
# derives each user's cohort and distinct offsets vectorized (users
# fully co-located); a second tiny exchange folds the counts.
# ---------------------------------------------------------------------------
_WEEK_US = 7 * 86_400_000_000


def q_retention_cohorts(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return _from_pandas(
            pd.DataFrame(
                {
                    "user_id": df["user_id"].to_numpy(dtype=np.int64),
                    "wk": df["ts"].astype("int64").to_numpy() // _WEEK_US,
                }
            ).drop_duplicates()
        )

    def offsets(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        w0 = d.groupby("user_id", sort=False)["wk"].transform("min")
        g = (
            pd.DataFrame(
                {
                    "cohort_week": w0.to_numpy(),
                    "week_offset": d["wk"].to_numpy() - w0.to_numpy(),
                }
            )
            .groupby(["cohort_week", "week_offset"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        return g.astype(np.int64)

    per_bucket = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["user_id"], offsets
    )
    out = hash_aggregate(
        per_bucket,
        ["cohort_week", "week_offset"],
        lambda df: df.groupby(["cohort_week", "week_offset"], sort=False)["n_users"]
        .sum()
        .reset_index(),
    )
    return collect_sorted(out, ["cohort_week", "week_offset"])


SQL_RETENTION_COHORTS = """
WITH e AS (
  SELECT user_id, epoch_us(ts) // 604800000000 AS wk FROM events
),
f AS (
  SELECT user_id, wk, MIN(wk) OVER (PARTITION BY user_id) AS w0 FROM e
),
d AS (SELECT DISTINCT user_id, w0, wk - w0 AS off FROM f)
SELECT w0 AS cohort_week, off AS week_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM d GROUP BY w0, off
ORDER BY cohort_week, week_offset
"""


ORACLE_QUERIES["retention_cohorts"] = (q_retention_cohorts, SQL_RETENTION_COHORTS)


# ---------------------------------------------------------------------------
# Q: cross_source_texts — per-source duplication/contamination report:
# how many docs each source contributes, how many DISTINCT texts, and
# how many of those texts also appear in at least one OTHER source (the
# cross-source leak signal a corpus-mixing step needs before weighting
# sources).  Text never leaves the map task: batches emit distinct
# (content-hash, source) rows (the exact_dedup collision contract,
# ~2^-64); one hash-keyed exchange counts sources per text, a
# source-keyed fold and a tiny doc-count partial merge on the driver.
# ---------------------------------------------------------------------------
def q_cross_source_texts(sf_dir: str):
    from pynomaly_ray.functions.hashing import hash_strings

    ds = _pq(sf_dir, "documents", ["text", "source"])

    # ONE table scan emits both row kinds: kind-0 distinct (h, source)
    # pairs and kind-1 per-batch per-source doc-count partials.  The
    # mixed stream is materialized once and filtered per exchange so
    # the constant-keyed kind-1 rows never ride the h-keyed exchange
    # (the hot-bucket hazard the LM scorer fixed).  All dedup/groupby
    # on source goes through the NUL-safe Arrow-backed dtype: a plain
    # multi-column object drop_duplicates aliases sources differing
    # only after an embedded \x00.
    def pre(t: pa.Table) -> pa.Table:
        src = nul_safe_key(t["source"].to_pandas())
        d = pd.DataFrame(
            {
                "h": hash_strings(t["text"].to_pandas().fillna("")).astype(
                    np.int64
                ),
                "source": src,
            }
        ).drop_duplicates()
        counts = src.groupby(src, sort=False).size()
        return _from_pandas(
            pd.concat(
                [
                    pd.DataFrame(
                        {
                            "h": d["h"].to_numpy(),
                            "source": d["source"].astype(object),
                            "n": np.zeros(len(d), np.int64),
                            "kind": np.zeros(len(d), np.int64),
                        }
                    ),
                    pd.DataFrame(
                        {
                            "h": np.zeros(len(counts), np.int64),
                            "source": counts.index.astype(object),
                            "n": counts.to_numpy(dtype=np.int64),
                            "kind": np.ones(len(counts), np.int64),
                        }
                    ),
                ],
                ignore_index=True,
            )
        )

    rows = ds.map_batches(pre, batch_format="pyarrow").materialize()

    def only_kind(k: int):
        def _f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["kind"], k))

        return _f

    def per_text(df: pd.DataFrame) -> pd.DataFrame:
        src = nul_safe_key(df["source"])
        d = pd.DataFrame({"h": df["h"], "source": src}).drop_duplicates()
        nsrc = d.groupby("h", sort=False)["source"].transform("size")
        return pd.DataFrame(
            {
                "source": d["source"].astype(object),
                "shared": (nsrc.to_numpy() > 1).astype(np.int64),
            }
        )

    def per_source(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(nul_safe_key(df["source"]), sort=False)["shared"].agg(
            n_texts="size", n_shared="sum"
        )
        g = g.reset_index()
        g["n_texts"] = g["n_texts"].astype(np.int64)
        g["n_shared"] = g["n_shared"].astype(np.int64)
        return g

    flags = hash_aggregate(
        rows.map_batches(only_kind(0), batch_format="pyarrow"),
        ["h"],
        per_text,
    )
    per_src = hash_aggregate(flags, ["source"], per_source).to_pandas()

    docs = (
        rows.map_batches(only_kind(1), batch_format="pyarrow")
        .select_columns(["source", "n"])
        .to_pandas()
        .rename(columns={"n": "n_docs"})
    )
    docs = (
        docs.groupby(nul_safe_key(docs["source"]), sort=False)["n_docs"]
        .sum()
        .reset_index()
    )
    docs["source"] = docs["source"].astype(object)
    per_src["source"] = per_src["source"].astype(object)
    out = docs.merge(per_src, on="source", how="inner")
    return out.sort_values("source", kind="mergesort").reset_index(drop=True)


SQL_CROSS_SOURCE_TEXTS = """
WITH d AS (SELECT DISTINCT source, COALESCE(text, '') AS text FROM documents),
s AS (SELECT text, COUNT(*) AS nsrc FROM d GROUP BY text),
c AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs
      FROM documents GROUP BY source)
SELECT c.source, c.n_docs,
       CAST(COUNT(*) AS BIGINT) AS n_texts,
       CAST(SUM(CASE WHEN s.nsrc > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_shared
FROM d JOIN s USING (text) JOIN c ON c.source = d.source
GROUP BY c.source, c.n_docs
ORDER BY c.source
"""


ORACLE_QUERIES["cross_source_texts"] = (q_cross_source_texts, SQL_CROSS_SOURCE_TEXTS)


# ---------------------------------------------------------------------------
# Q: event_type_pairs — market-basket co-occurrence: for every unordered
# pair of event types, how many users fired BOTH.  One user-keyed
# exchange co-locates each user's distinct types; the pair emission is a
# vectorized self-merge inside the bucket (pair width is bounded by the
# type cardinality, not the event volume), then a tiny pair-keyed fold.
# The classic A-and-B affinity signal with no all-pairs shuffle: raw
# events never leave the map task — only distinct (user, type) rows.
# ---------------------------------------------------------------------------
def q_event_type_pairs(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id", "event_type"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # NULL users never satisfy the SQL self-join's equality (NULL =
        # NULL is not true), but pandas merge MATCHES NaN keys — drop
        # them here so both sides agree
        df = df[df["user_id"].notna()]
        df["event_type"] = nul_safe_key(df["event_type"])
        df = df.drop_duplicates()
        df["event_type"] = df["event_type"].astype(object)
        return _from_pandas(df)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        # NUL-safe cross-block dedup (multi-column object dedup aliases
        # after an embedded \x00); merge itself is NUL-safe
        d = pd.DataFrame(
            {
                "user_id": df["user_id"],
                "event_type": nul_safe_key(df["event_type"]),
            }
        ).drop_duplicates()
        d["event_type"] = d["event_type"].astype(object)
        m = d.merge(d, on="user_id", suffixes=("_a", "_b"))
        m = m[m["event_type_a"] < m["event_type_b"]]
        g = (
            m.groupby(
                [
                    nul_safe_key(m["event_type_a"]).rename("type_a"),
                    nul_safe_key(m["event_type_b"]).rename("type_b"),
                ],
                sort=False,
            )
            .size()
            .reset_index(name="n_users")
        )
        g["n_users"] = g["n_users"].astype(np.int64)
        return g

    per_bucket = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["user_id"], pairs
    )
    out = hash_aggregate(
        per_bucket,
        ["type_a", "type_b"],
        lambda df: df.groupby(["type_a", "type_b"], sort=False)["n_users"]
        .sum()
        .reset_index(),
    )
    res = collect_sorted(out, ["type_a", "type_b"])
    res["type_a"] = res["type_a"].astype(object)
    res["type_b"] = res["type_b"].astype(object)
    return res


SQL_EVENT_TYPE_PAIRS = """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM d a JOIN d b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY type_a, type_b
ORDER BY type_a, type_b
"""


ORACLE_QUERIES["event_type_pairs"] = (q_event_type_pairs, SQL_EVENT_TYPE_PAIRS)


# ---------------------------------------------------------------------------
# Q: inverted_index — search-index construction: for the 20 tokens with
# the highest document frequency (ties broken by token), the first 5
# postings (smallest doc_ids) plus the df.  Per-batch distinct
# (token, doc_id) rows (each doc lives in exactly one batch, so batch
# distinct IS global distinct) -> token-keyed exchange; each bucket owns
# its tokens outright, so per-bucket top-20 x 5 postings bound what
# reaches the driver at P*100 rows regardless of corpus size.
# ---------------------------------------------------------------------------
def q_inverted_index(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def pre(t: pa.Table) -> pa.Table:
        # shared NUL-safe Arrow tokenize/group kernel (stages/text.py):
        # its (doc_id, token, tf) rows ARE the distinct pairs — a
        # hand-rolled multi-column object drop_duplicates here would
        # alias tokens differing only after an embedded \x00
        from pynomaly_ray.stages.text import batch_token_counts

        pairs = batch_token_counts(t, by_doc=True)
        return pa.table({"token": pairs["token"], "doc_id": pairs["doc_id"]})

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {"token": nul_safe_key(df["token"]), "doc_id": df["doc_id"]}
        ).drop_duplicates()
        sizes = d.groupby("token", sort=False).size().reset_index(name="df")
        top = sizes.sort_values(
            ["df", "token"], ascending=[False, True], kind="mergesort"
        ).head(20)
        d = d.merge(top, on="token")
        d = d.sort_values(["token", "doc_id"], kind="mergesort")
        d["rank"] = d.groupby("token", sort=False).cumcount() + 1
        d = d[d["rank"] <= 5]
        return pd.DataFrame(
            {
                "token": d["token"],
                "df": d["df"].to_numpy(dtype=np.int64),
                "rank": d["rank"].to_numpy(dtype=np.int64),
                "doc_id": d["doc_id"].to_numpy(dtype=np.int64),
            }
        )

    rows = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["token"], reduce
    ).to_pandas()
    heads = rows.drop_duplicates("token").sort_values(
        ["df", "token"], ascending=[False, True], kind="mergesort"
    ).head(20)
    out = rows.merge(heads[["token"]], on="token").sort_values(
        ["df", "token", "rank"],
        ascending=[False, True, True],
        kind="mergesort",
    )
    out["token"] = out["token"].astype(object)
    return out.reset_index(drop=True)


SQL_INVERTED_INDEX = r"""
WITH d AS (
  SELECT DISTINCT token, doc_id FROM (
    SELECT doc_id,
           unnest(regexp_extract_all(COALESCE(text, ''),
                                     '[^ \t\n\r\f\v]+')) AS token
    FROM documents)
),
f AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS df FROM d GROUP BY token),
t AS (SELECT token, df FROM f ORDER BY df DESC, token LIMIT 20),
p AS (
  SELECT d.token, t.df,
         row_number() OVER (PARTITION BY d.token ORDER BY d.doc_id) AS rank,
         d.doc_id
  FROM d JOIN t USING (token)
)
SELECT token, df, CAST(rank AS BIGINT) AS rank, doc_id
FROM p WHERE rank <= 5
ORDER BY df DESC, token, rank
"""


ORACLE_QUERIES["inverted_index"] = (q_inverted_index, SQL_INVERTED_INDEX)


# ---------------------------------------------------------------------------
# Q: ingest_csv / ingest_jsonl — source-format breadth: the engine's
# ingest path is not parquet-only.  Each query stages the table in the
# foreign format as a DISTRIBUTED multi-file directory (ray.data
# write_csv/write_json — exactly how a 100-TB corpus would already
# arrive sharded), re-ingests it through ray.data.read_csv/read_json,
# and aggregates; the oracle reads the SAME staged files with DuckDB's
# CSV/JSON readers, certifying the full write->parse->aggregate round
# trip.  Floats never ride the text format: values are pre-scaled to
# integer cents before staging, so parser float dialects cannot
# diverge the two sides.
# ---------------------------------------------------------------------------
_INGEST_CSV_DIR = "/tmp/pnr_ingest/events_csv"
_INGEST_JSON_DIR = "/tmp/pnr_ingest/documents_json"


def _fresh_dir(path: str) -> str:
    import shutil

    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    return path


def q_ingest_csv(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_id", "event_type", "value"])

    def stage(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "value_cents": pa.array(_cents(np.nan_to_num(v))),
            }
        )

    ds.map_batches(stage, batch_format="pyarrow").write_csv(
        _fresh_dir(_INGEST_CSV_DIR)
    )

    back = rd.read_csv(_INGEST_CSV_DIR)

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby(nul_safe_key(df["event_type"]), sort=False)[
            "value_cents"
        ].agg(n="size", cents="sum")
        g = g.reset_index()
        return _from_pandas(g.astype({"n": np.int64, "cents": np.int64}))

    out = hash_aggregate(
        back.map_batches(partial, batch_format="pyarrow"),
        ["event_type"],
        lambda df: df.groupby("event_type", sort=False)[["n", "cents"]]
        .sum()
        .reset_index(),
    )
    res = collect_sorted(out, ["event_type"])
    res["event_type"] = res["event_type"].astype(object)
    return res


SQL_INGEST_CSV = """
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(value_cents) AS BIGINT) AS cents
FROM read_csv('/tmp/pnr_ingest/events_csv/*.csv', header = true)
GROUP BY event_type
ORDER BY event_type
"""


ORACLE_QUERIES["ingest_csv"] = (q_ingest_csv, SQL_INGEST_CSV)


def q_ingest_jsonl(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])

    ds.write_json(_fresh_dir(_INGEST_JSON_DIR))

    back = rd.read_json(_INGEST_JSON_DIR)

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby(
            [nul_safe_key(df["lang"]), nul_safe_key(df["source"])],
            sort=False,
        )["n_chars"].agg(n_docs="size", chars="sum")
        g = g.reset_index()
        return _from_pandas(g.astype({"n_docs": np.int64, "chars": np.int64}))

    out = hash_aggregate(
        back.map_batches(partial, batch_format="pyarrow"),
        ["lang", "source"],
        lambda df: df.groupby(["lang", "source"], sort=False)[
            ["n_docs", "chars"]
        ]
        .sum()
        .reset_index(),
    )
    res = collect_sorted(out, ["lang", "source"])
    res["lang"] = res["lang"].astype(object)
    res["source"] = res["source"].astype(object)
    return res


SQL_INGEST_JSONL = """
SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS chars
FROM read_json('/tmp/pnr_ingest/documents_json/*.json',
               format = 'newline_delimited')
GROUP BY lang, source
ORDER BY lang, source
"""


ORACLE_QUERIES["ingest_jsonl"] = (q_ingest_jsonl, SQL_INGEST_JSONL)


# ---------------------------------------------------------------------------
# Q: user_activity_histogram — distribution-of-an-aggregate (the classic
# engagement profile): users bucketed by how many events they fired.
# Per-batch per-user partial counts -> user-keyed exchange for exact
# per-user totals, re-histogrammed inside each bucket -> a tiny
# count-keyed fold.  Raw events collapse at the map side; the second
# exchange carries one row per DISTINCT activity level per bucket.
# ---------------------------------------------------------------------------
def q_user_activity_histogram(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id"])

    # dropna=False throughout: SQL GROUP BY keeps NULL as one group, so
    # a NULL-user event stream contributes one user at its activity
    # level instead of silently vanishing
    def pre(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("user_id", sort=False, dropna=False)
            .size()
            .reset_index(name="c")
        )
        g["c"] = g["c"].astype(np.int64)
        return _from_pandas(g)

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        per_user = df.groupby("user_id", sort=False, dropna=False)["c"].sum()
        g = per_user.value_counts().reset_index()
        g.columns = ["n_events", "n_users"]
        return g.astype(np.int64)

    per_bucket = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["user_id"], hist
    )
    out = hash_aggregate(
        per_bucket,
        ["n_events"],
        lambda df: df.groupby("n_events", sort=False)["n_users"]
        .sum()
        .reset_index(),
    )
    return collect_sorted(out, ["n_events"])


SQL_USER_ACTIVITY_HISTOGRAM = """
WITH u AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events
  FROM events GROUP BY user_id
)
SELECT n_events, CAST(COUNT(*) AS BIGINT) AS n_users
FROM u GROUP BY n_events ORDER BY n_events
"""


ORACLE_QUERIES["user_activity_histogram"] = (
    q_user_activity_histogram,
    SQL_USER_ACTIVITY_HISTOGRAM,
)


# ---------------------------------------------------------------------------
# Q: value_histogram — per-type equi-width histogram (8 bins between the
# type's min and max), the data-profiling binning op.  Two passes: a
# tiny per-type min/max exchange broadcast back as a driver dict, then
# per-batch integer binning on the e6 grid folded per (type, bin).
# Bin arithmetic is ALL int64 — (ve-mn)*8 // (mx-mn+1) — so both sides
# place every edge value identically.
# ---------------------------------------------------------------------------
_HIST_BINS = 8


def q_value_histogram(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def e6(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["value"].notna()]
        return _from_pandas(
            pd.DataFrame(
                {
                    "event_type": df["event_type"],
                    "ve": np.floor(
                        df["value"].to_numpy(dtype=np.float64) * 1_000_000.0
                        + 0.5
                    ).astype(np.int64),
                }
            )
        )

    vds = ds.map_batches(e6, batch_format="pyarrow").materialize()

    def mm_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby(nul_safe_key(df["event_type"]), sort=False)["ve"].agg(
            mn="min", mx="max"
        )
        return _from_pandas(g.reset_index())

    mm = hash_aggregate(
        vds.map_batches(mm_partial, batch_format="pyarrow"),
        ["event_type"],
        lambda df: df.groupby("event_type", sort=False)
        .agg(mn=("mn", "min"), mx=("mx", "max"))
        .reset_index(),
    ).to_pandas()
    mn_of = dict(zip(mm["event_type"], mm["mn"]))
    mx_of = dict(zip(mm["event_type"], mm["mx"]))

    def binned(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        mn = df["event_type"].map(mn_of).to_numpy(dtype=np.int64)
        mx = df["event_type"].map(mx_of).to_numpy(dtype=np.int64)
        ve = df["ve"].to_numpy()
        b = (ve - mn) * _HIST_BINS // (mx - mn + 1)
        g = (
            pd.DataFrame({"event_type": df["event_type"], "bin": b})
            .groupby([nul_safe_key(df["event_type"]), "bin"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return _from_pandas(g.astype({"bin": np.int64, "n": np.int64}))

    out = hash_aggregate(
        vds.map_batches(binned, batch_format="pyarrow"),
        ["event_type", "bin"],
        lambda df: df.groupby(["event_type", "bin"], sort=False)["n"]
        .sum()
        .reset_index(),
    )
    res = collect_sorted(out, ["event_type", "bin"])
    res["event_type"] = res["event_type"].astype(object)
    return res


SQL_VALUE_HISTOGRAM = """
WITH v AS (
  SELECT event_type, CAST(FLOOR(value * 1000000 + 0.5) AS BIGINT) AS ve
  FROM events WHERE value IS NOT NULL
),
m AS (SELECT event_type, MIN(ve) AS mn, MAX(ve) AS mx FROM v GROUP BY event_type)
SELECT v.event_type, (ve - mn) * 8 // (mx - mn + 1) AS bin,
       CAST(COUNT(*) AS BIGINT) AS n
FROM v JOIN m USING (event_type)
GROUP BY v.event_type, bin
ORDER BY event_type, bin
"""


ORACLE_QUERIES["value_histogram"] = (q_value_histogram, SQL_VALUE_HISTOGRAM)


# ---------------------------------------------------------------------------
# Q: percent_rank_values — exact PERCENT_RANK per distinct value within
# each event type, on the integer grid (pr_e6 = (rank-1)*1e6 //
# (n-1)).  Stage 1 collapses raw rows to per-(type, value) counts at
# the map side; stage 2's type-keyed exchange therefore receives one
# row per DISTINCT value (bounded by the value domain, not the event
# volume) and cumsums ranks inside the bucket.
# ---------------------------------------------------------------------------
def q_percent_rank_values(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def counts(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["value"].notna()]
        ve = np.floor(
            df["value"].to_numpy(dtype=np.float64) * 1_000_000.0 + 0.5
        ).astype(np.int64)
        g = (
            pd.DataFrame({"event_type": df["event_type"], "ve": ve})
            .groupby([nul_safe_key(df["event_type"]), "ve"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return _from_pandas(g.astype({"ve": np.int64, "c": np.int64}))

    merged = hash_aggregate(
        ds.map_batches(counts, batch_format="pyarrow"),
        ["event_type", "ve"],
        lambda df: df.groupby(["event_type", "ve"], sort=False)["c"]
        .sum()
        .reset_index(),
    )

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["event_type", "ve"], kind="mergesort")
        grp = d.groupby("event_type", sort=False)["c"]
        csum = grp.cumsum().to_numpy()
        c = d["c"].to_numpy()
        n = grp.transform("sum").to_numpy()
        rk = csum - c + 1  # rank of the first row carrying this value
        pr = np.where(n > 1, (rk - 1) * 1_000_000 // np.maximum(n - 1, 1), 0)
        return pd.DataFrame(
            {
                "event_type": d["event_type"],
                "ve": d["ve"].to_numpy(),
                "pr_e6": pr.astype(np.int64),
            }
        )

    out = hash_aggregate(merged, ["event_type"], rank)
    res = collect_sorted(out, ["event_type", "ve"])
    res["event_type"] = res["event_type"].astype(object)
    return res


SQL_PERCENT_RANK_VALUES = """
WITH v AS (
  SELECT event_type, CAST(FLOOR(value * 1000000 + 0.5) AS BIGINT) AS ve
  FROM events WHERE value IS NOT NULL
),
r AS (
  SELECT event_type, ve,
         rank() OVER (PARTITION BY event_type ORDER BY ve) AS rk,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM v
)
SELECT DISTINCT event_type, ve,
       CASE WHEN n > 1 THEN (rk - 1) * 1000000 // (n - 1) ELSE 0 END AS pr_e6
FROM r
ORDER BY event_type, ve
"""


ORACLE_QUERIES["percent_rank_values"] = (
    q_percent_rank_values,
    SQL_PERCENT_RANK_VALUES,
)


# ---------------------------------------------------------------------------
# Q: cube_revenue — GROUP BY CUBE over (returnflag, linestatus): detail
# cells plus BOTH one-dimension marginals plus the grand total, every
# subtotal folded from the tiny finest-level aggregate (the rollup
# pattern extended to the full lattice — the fact table is scanned
# exactly once).  Subtotal coordinates carry the sentinel 'ALL' on both
# sides so no nullable string rides the value hash.
# ---------------------------------------------------------------------------
def q_cube_revenue(sf_dir: str):
    ds = _pq(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["cents"] = _cents(df.pop("l_extendedprice").to_numpy())
        g = (
            df.groupby(
                [nul_safe_key(df["l_returnflag"]), nul_safe_key(df["l_linestatus"])],
                sort=False,
            )["cents"]
            .agg(n="size", cents="sum")
            .reset_index()
        )
        return _from_pandas(g.astype({"n": np.int64, "cents": np.int64}))

    detail = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        lambda df: df.groupby(["l_returnflag", "l_linestatus"], sort=False)[
            ["n", "cents"]
        ]
        .sum()
        .reset_index(),
    ).to_pandas()
    detail["l_returnflag"] = detail["l_returnflag"].astype(object)
    detail["l_linestatus"] = detail["l_linestatus"].astype(object)

    def marginal(by):
        g = detail.groupby(by, sort=False)[["n", "cents"]].sum().reset_index()
        return g

    m_flag = marginal("l_returnflag")
    m_flag["l_linestatus"] = "ALL"
    m_stat = marginal("l_linestatus")
    m_stat["l_returnflag"] = "ALL"
    total = pd.DataFrame(
        {
            "l_returnflag": ["ALL"],
            "l_linestatus": ["ALL"],
            "n": [detail["n"].sum()],
            "cents": [detail["cents"].sum()],
        }
    )
    out = pd.concat(
        [detail, m_flag, m_stat, total], ignore_index=True
    )[["l_returnflag", "l_linestatus", "n", "cents"]]
    out["n"] = out["n"].astype(np.int64)
    out["cents"] = out["cents"].astype(np.int64)
    return out.sort_values(
        ["l_returnflag", "l_linestatus"], kind="mergesort"
    ).reset_index(drop=True)


SQL_CUBE_REVENUE = """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS cents
FROM lineitem
GROUP BY CUBE (l_returnflag, l_linestatus)
ORDER BY l_returnflag, l_linestatus
"""


ORACLE_QUERIES["cube_revenue"] = (q_cube_revenue, SQL_CUBE_REVENUE)


# ---------------------------------------------------------------------------
# Q: unpivot_measures — wide-to-long reshape (the inverse of
# lang_pivot): per returnflag, each of the four lineitem money/quantity
# measures becomes a (measure, cents) row.  The wide aggregate is one
# map-side partial + tiny exchange; the melt runs on the driver over
# #flags x 4 rows.
# ---------------------------------------------------------------------------
_UNPIVOT_MEASURES = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


def q_unpivot_measures(sf_dir: str):
    ds = _pq(sf_dir, "lineitem", ["l_returnflag"] + _UNPIVOT_MEASURES)

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        for c in _UNPIVOT_MEASURES:
            df[c] = _cents(df[c].to_numpy())
        g = (
            df.groupby(nul_safe_key(df["l_returnflag"]), sort=False)[
                _UNPIVOT_MEASURES
            ]
            .sum()
            .reset_index()
        )
        return _from_pandas(g)

    wide = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag"],
        lambda df: df.groupby("l_returnflag", sort=False)[_UNPIVOT_MEASURES]
        .sum()
        .reset_index(),
    ).to_pandas()
    long = wide.melt(
        id_vars="l_returnflag", var_name="measure", value_name="cents"
    )
    long["l_returnflag"] = long["l_returnflag"].astype(object)
    long["cents"] = long["cents"].astype(np.int64)
    return long.sort_values(
        ["l_returnflag", "measure"], kind="mergesort"
    ).reset_index(drop=True)


SQL_UNPIVOT_MEASURES = """
WITH w AS (
  SELECT l_returnflag,
         CAST(SUM(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS l_quantity,
         CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS l_extendedprice,
         CAST(SUM(CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS l_discount,
         CAST(SUM(CAST(FLOOR(l_tax * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS l_tax
  FROM lineitem GROUP BY l_returnflag
)
SELECT l_returnflag, measure, cents
FROM w UNPIVOT (cents FOR measure IN
                (l_quantity, l_extendedprice, l_discount, l_tax))
ORDER BY l_returnflag, measure
"""


ORACLE_QUERIES["unpivot_measures"] = (q_unpivot_measures, SQL_UNPIVOT_MEASURES)


# ---------------------------------------------------------------------------
# Q: source_doc_sample — ordered string aggregation: per source, the 3
# smallest doc_ids comma-joined (the "show me examples per group"
# reporting op).  Map-side per-source 3-smallest partial bounds the
# exchange at 3 rows per (block, source); the final join-to-string is a
# vectorized in-bucket groupby-apply over <= 3 rows per source.
# ---------------------------------------------------------------------------
def q_source_doc_sample(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "source"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values("doc_id", kind="mergesort")
        df = df.groupby(nul_safe_key(df["source"]), sort=False).head(3)
        return _from_pandas(df[["source", "doc_id"]])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values("doc_id", kind="mergesort")
        d = d.groupby(nul_safe_key(d["source"]), sort=False).head(3)
        d = d.sort_values(["source", "doc_id"], kind="mergesort")
        g = (
            d.astype({"doc_id": str})
            .groupby(nul_safe_key(d["source"]), sort=False)["doc_id"]
            .agg(",".join)
            .reset_index(name="sample_ids")
        )
        return g

    out = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["source"], fold
    ).to_pandas()
    out["source"] = out["source"].astype(object)
    out["sample_ids"] = out["sample_ids"].astype(object)
    return out.sort_values("source", kind="mergesort").reset_index(drop=True)


SQL_SOURCE_DOC_SAMPLE = """
WITH r AS (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rk
  FROM documents
)
SELECT source,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
         AS sample_ids
FROM r WHERE rk <= 3
GROUP BY source
ORDER BY source
"""


ORACLE_QUERIES["source_doc_sample"] = (q_source_doc_sample, SQL_SOURCE_DOC_SAMPLE)


# ---------------------------------------------------------------------------
# Q: label_centroids — per-label embedding centroid (the class-prototype
# op of an embedding pipeline: cluster seeds, nearest-class-mean
# retrieval).  Each coordinate is scaled to the e6 integer grid BEFORE
# summation, so the per-label sums are reduction-order exact; one
# (label, pos)-keyed exchange folds L x D rows per batch, and the
# centroid is the integer floor-division of sum by count.  The SQL twin
# carries the same floor semantics through the identity
# (s - ((s % n) + n) % n) / n because DuckDB's // truncates toward zero
# on negatives while the engine floors.
# ---------------------------------------------------------------------------
def q_label_centroids(sf_dir: str):
    from pynomaly_ray.stages.similarity import _embedding_matrix

    ds = _pq(sf_dir, "embeddings", ["embedding", "label"])

    def partial(t: pa.Table) -> pa.Table:
        M = _embedding_matrix(t)
        e6 = np.floor(M * 1_000_000.0 + 0.5).astype(np.int64)
        labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes, uniq = pd.factorize(labels)
        dim = e6.shape[1]
        acc = np.zeros((len(uniq), dim), dtype=np.int64)
        np.add.at(acc, codes, e6)
        n = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq, dim)),
                "pos": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(uniq))),
                "s": pa.array(acc.reshape(-1)),
                "n": pa.array(np.repeat(n, dim)),
            }
        )

    out = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["label", "pos"],
        lambda df: df.groupby(["label", "pos"], sort=False)[["s", "n"]]
        .sum()
        .reset_index(),
    ).to_pandas()
    out["cent_e6"] = (
        out["s"].to_numpy() // out["n"].to_numpy()
    ).astype(np.int64)
    out = out[["label", "pos", "n", "cent_e6"]].sort_values(
        ["label", "pos"], kind="mergesort"
    )
    out["n"] = out["n"].astype(np.int64)
    return out.reset_index(drop=True)


SQL_LABEL_CENTROIDS = """
WITH e AS (
  SELECT CAST(label AS BIGINT) AS label,
         CAST(unnest(range(len(embedding))) AS BIGINT) AS pos,
         CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5)
              AS BIGINT) AS v
  FROM embeddings
),
a AS (
  SELECT label, pos, CAST(SUM(v) AS BIGINT) AS s,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM e GROUP BY label, pos
)
SELECT label, pos, n,
       CAST((s - ((s % n) + n) % n) // n AS BIGINT) AS cent_e6
FROM a
ORDER BY label, pos
"""


ORACLE_QUERIES["label_centroids"] = (q_label_centroids, SQL_LABEL_CENTROIDS)


# ---------------------------------------------------------------------------
# Q: event_transitions — first-order Markov transition counts between
# consecutive event types per user (the sequence-mining op behind
# next-action models).  One user-keyed exchange sorts each user's
# events by (ts, event_id) — the event_id tiebreak makes simultaneous
# events deterministically ordered on BOTH sides — and counts adjacent
# type pairs vectorized; a tiny pair-keyed fold follows.
# ---------------------------------------------------------------------------
def q_event_transitions(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["ts_us"] = df.pop("ts").astype("int64")
        return _from_pandas(df)

    def transitions(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(
            ["user_id", "ts_us", "event_id"], kind="mergesort"
        )
        u = d["user_id"].to_numpy()
        same = u[1:] == u[:-1]
        if u.dtype.kind == "f":
            # SQL's PARTITION BY groups NULL users into ONE partition;
            # NaN != NaN would silently drop their transitions
            same |= np.isnan(u[1:]) & np.isnan(u[:-1])
        src = d["event_type"].to_numpy(dtype=object)[:-1][same]
        dst = d["event_type"].to_numpy(dtype=object)[1:][same]
        g = (
            pd.DataFrame({"from_type": src, "to_type": dst})
            .groupby(
                [
                    nul_safe_key(pd.Series(src)).rename("from_type"),
                    nul_safe_key(pd.Series(dst)).rename("to_type"),
                ],
                sort=False,
            )
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    per_bucket = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["user_id"], transitions
    )
    out = hash_aggregate(
        per_bucket,
        ["from_type", "to_type"],
        lambda df: df.groupby(["from_type", "to_type"], sort=False)["n"]
        .sum()
        .reset_index(),
    )
    res = collect_sorted(out, ["from_type", "to_type"])
    res["from_type"] = res["from_type"].astype(object)
    res["to_type"] = res["to_type"].astype(object)
    return res


SQL_EVENT_TRANSITIONS = """
WITH s AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events
)
SELECT prev AS from_type, event_type AS to_type,
       CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE prev IS NOT NULL
GROUP BY from_type, to_type
ORDER BY from_type, to_type
"""


ORACLE_QUERIES["event_transitions"] = (q_event_transitions, SQL_EVENT_TRANSITIONS)


# ---------------------------------------------------------------------------
# Q: bloom_semi_join — the classic 100-TB join pushdown: revenue per
# returnflag of lineitems belonging to high-value orders.  A
# constant-size (128 KB) Bloom filter of the build-side keys is OR-
# merged on the driver and ray.put-broadcast; the probe side discards
# non-members MAP-SIDE (true matches + ~fp-rate survivors), and only
# the survivors enter the exact partitioned hash join that kills the
# false positives — so the result is EXACT while the all-to-all
# exchange carries a fraction of the fact table.  The SQL twin is the
# plain semi-join: the bloom pass is invisible in the answer, which is
# precisely the property the oracle certifies.
# ---------------------------------------------------------------------------
_BLOOM_JOIN_PRICE = 400_000.0


def q_bloom_semi_join(sf_dir: str):
    import ray

    from pynomaly_ray.functions.exchange import hash_join
    from pynomaly_ray.functions.sketches import (
        bloom_contains,
        bloom_merge,
        bloom_partial,
    )

    import pyarrow.dataset as pads

    from pynomaly_ray.sources.parquet import read_parquet_clean

    # predicate pushed INTO the read: row-group statistics prune
    # non-qualifying groups before any bytes decode, and only the key
    # column is projected — the build side arrives as the answer
    orders = read_parquet_clean(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey"],
        filter=pads.field("o_totalprice") > _BLOOM_JOIN_PRICE,
    )

    def keys_only(t: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": t["o_orderkey"]})

    build = orders.map_batches(keys_only, batch_format="pyarrow").materialize()

    def bloom_rows(t: pa.Table) -> pa.Table:
        bits = bloom_partial(t["l_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    # arrow refs, not to_pandas: a 0-row Dataset (no qualifying build
    # keys) drops its columns in to_pandas, and bloom_merge of zero
    # partials must degrade to the empty filter
    bit_tables = ray.get(
        build.map_batches(bloom_rows, batch_format="pyarrow").to_arrow_refs()
    )
    merged = bloom_merge(
        np.frombuffer(b.as_py(), dtype=np.uint64)
        for t in bit_tables
        if t.num_rows
        for b in t["bits"]
    )
    if not merged.any():
        # empty build side: the SQL twin's IN (empty set) is zero rows;
        # short-circuit before the empty exchange loses column names
        return pd.DataFrame(
            {
                "l_returnflag": pd.Series(dtype=object),
                "n": pd.Series(dtype=np.int64),
                "cents": pd.Series(dtype=np.int64),
            }
        )
    bits_ref = ray.put(merged)

    line = _pq(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice"])

    def probe(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        keep = bloom_contains(bits, t["l_orderkey"].to_numpy(zero_copy_only=False))
        t = t.filter(pa.array(keep))
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_returnflag": t["l_returnflag"],
                "cents": pa.array(
                    _cents(t["l_extendedprice"].to_numpy(zero_copy_only=False))
                ),
            }
        )

    survivors = line.map_batches(probe, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(nul_safe_key(df["l_returnflag"]), sort=False)["cents"]
            .agg(n="size", cents="sum")
            .reset_index()
        )
        return g.astype({"n": np.int64, "cents": np.int64})

    joined = hash_join(survivors, build, ["l_orderkey"], merge_fn=fold)
    out = hash_aggregate(
        joined,
        ["l_returnflag"],
        lambda df: df.groupby("l_returnflag", sort=False)[["n", "cents"]]
        .sum()
        .reset_index(),
    )
    res = collect_sorted(out, ["l_returnflag"])
    res["l_returnflag"] = res["l_returnflag"].astype(object)
    return res


SQL_BLOOM_SEMI_JOIN = """
SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS cents
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                     WHERE o_totalprice > 400000)
GROUP BY l_returnflag
ORDER BY l_returnflag
"""


ORACLE_QUERIES["bloom_semi_join"] = (q_bloom_semi_join, SQL_BLOOM_SEMI_JOIN)


# ---------------------------------------------------------------------------
# Q: event_dedup — telemetry debounce: an event is a duplicate when the
# SAME (user, type) fired within 5 s before it (LAG semantics, both
# sides ordered by (ts, event_id) so simultaneous events are
# deterministic).  One user-keyed exchange sorts each user's events and
# keeps/drops vectorized; only per-type keep counts leave the buckets.
# NULL users follow SQL's PARTITION BY (one shared partition).
# ---------------------------------------------------------------------------
_DEDUP_WINDOW_US = 5_000_000


def q_event_dedup(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["ts_us"] = df.pop("ts").astype("int64")
        return _from_pandas(df)

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        d = df.copy()
        d["event_type"] = nul_safe_key(d["event_type"])
        d = d.sort_values(
            ["user_id", "event_type", "ts_us", "event_id"], kind="mergesort"
        )
        u = d["user_id"].to_numpy()
        same_u = u[1:] == u[:-1]
        if u.dtype.kind == "f":
            same_u |= np.isnan(u[1:]) & np.isnan(u[:-1])
        ty = d["event_type"].astype(object).to_numpy(dtype=object)
        same = same_u & (ty[1:] == ty[:-1])
        ts = d["ts_us"].to_numpy()
        dup = np.zeros(len(d), dtype=bool)
        dup[1:] = same & (ts[1:] - ts[:-1] <= _DEDUP_WINDOW_US)
        g = pd.DataFrame(
            {"event_type": d["event_type"], "kept": (~dup).astype(np.int64)}
        ).groupby("event_type", sort=False)["kept"]
        out = g.agg(n_total="size", n_kept="sum").reset_index()
        out["event_type"] = out["event_type"].astype(object)
        return out.astype({"n_total": np.int64, "n_kept": np.int64})

    per_bucket = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["user_id"], dedup
    )
    out = hash_aggregate(
        per_bucket,
        ["event_type"],
        lambda df: df.groupby("event_type", sort=False)[["n_total", "n_kept"]]
        .sum()
        .reset_index(),
    )
    res = collect_sorted(out, ["event_type"])
    res["event_type"] = res["event_type"].astype(object)
    return res


SQL_EVENT_DEDUP = """
WITH s AS (
  SELECT event_type, ts,
         LAG(ts) OVER (PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS prev
  FROM events
)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_total,
       CAST(SUM(CASE WHEN prev IS NULL
                       OR epoch_us(ts) - epoch_us(prev) > 5000000
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_kept
FROM s GROUP BY event_type ORDER BY event_type
"""


ORACLE_QUERIES["event_dedup"] = (q_event_dedup, SQL_EVENT_DEDUP)


# ---------------------------------------------------------------------------
# Q: negative_pairs — deterministic negative sampling for contrastive
# training: every vector is paired with the NEXT vector on a Knuth-hash
# ring within its hash bucket (cyclic, so singleton buckets pair with
# themselves).  Pairing is a pure function of the id set — rerunning on
# the same corpus reproduces the pairs, and adding docs only perturbs
# the two ring neighbours of each insertion point.  Buckets are
# hash-uniform, so the per-bucket sort is balanced by construction; no
# global sort, no driver-side pass.
# ---------------------------------------------------------------------------
_NEG_BUCKETS = 256


def q_negative_pairs(sf_dir: str):
    from pynomaly_ray.functions.hashing import knuth32

    ds = _pq(sf_dir, "embeddings", ["vec_id"])

    def pre(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        hv = knuth32(ids)
        return pa.table(
            {
                "vec_id": pa.array(ids),
                "hv": pa.array(hv),
                "bucket": pa.array(hv % _NEG_BUCKETS),
            }
        )

    def ring(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["bucket", "hv", "vec_id"], kind="mergesort")
        ids = d["vec_id"].to_numpy()
        b = d["bucket"].to_numpy()
        nxt = np.roll(ids, -1)
        # one roll over the whole sorted frame, then stitch each ring
        # closed: the last row of every bucket wraps to its first
        starts = np.r_[0, np.flatnonzero(b[1:] != b[:-1]) + 1]
        ends = np.r_[starts[1:], len(b)] - 1
        nxt[ends] = ids[starts]
        return pd.DataFrame({"vec_id": ids, "partner_id": nxt})

    pairs = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["bucket"], ring
    )
    return collect_sorted(pairs, ["vec_id"])


SQL_NEGATIVE_PAIRS = """
WITH h AS (
  SELECT vec_id,
         CAST(((vec_id % 4294967296) * 2654435761::HUGEINT) % 4294967296
              AS BIGINT) AS hv
  FROM embeddings
),
p AS (
  SELECT vec_id,
         LEAD(vec_id) OVER (PARTITION BY hv % 256 ORDER BY hv, vec_id) AS nxt,
         FIRST_VALUE(vec_id) OVER (PARTITION BY hv % 256
                                   ORDER BY hv, vec_id) AS fst
  FROM h
)
SELECT vec_id, COALESCE(nxt, fst) AS partner_id FROM p ORDER BY vec_id
"""


ORACLE_QUERIES["negative_pairs"] = (q_negative_pairs, SQL_NEGATIVE_PAIRS)


# ---------------------------------------------------------------------------
# Q: vector_norms — embedding-table profile: per label, the min / max /
# mean of the SQUARED L2 norm on the e6 grid (sum of squared e6
# coordinates — exact int64, no sqrt float leaves the engine).  The
# norm profile is the standard embedding-health check (collapsed or
# exploding vectors before ANN indexing).  One map pass computes each
# vector's squared norm; a tiny label-keyed fold follows.
# ---------------------------------------------------------------------------
def q_vector_norms(sf_dir: str):
    from pynomaly_ray.stages.similarity import _embedding_matrix

    ds = _pq(sf_dir, "embeddings", ["embedding", "label"])

    def partial(t: pa.Table) -> pa.Table:
        M = _embedding_matrix(t)
        e6 = np.floor(M * 1_000_000.0 + 0.5).astype(np.int64)
        sq = (e6 * e6).sum(axis=1)
        df = pd.DataFrame(
            {
                "label": t["label"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "sq": sq,
            }
        )
        g = df.groupby("label", sort=False)["sq"].agg(
            n="size", mn="min", mx="max", s="sum"
        )
        return _from_pandas(g.reset_index())

    out = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["label"],
        lambda df: df.groupby("label", sort=False)
        .agg(n=("n", "sum"), mn=("mn", "min"), mx=("mx", "max"), s=("s", "sum"))
        .reset_index(),
    ).to_pandas()
    out["mean_sq"] = (out["s"].to_numpy() // out["n"].to_numpy()).astype(
        np.int64
    )
    out = out[["label", "n", "mn", "mx", "mean_sq"]].astype(np.int64)
    return out.sort_values("label", kind="mergesort").reset_index(drop=True)


SQL_VECTOR_NORMS = """
WITH e AS (
  SELECT CAST(label AS BIGINT) AS label, vec_id,
         CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5)
              AS BIGINT) AS v
  FROM embeddings
),
q AS (SELECT label, vec_id, CAST(SUM(v * v) AS BIGINT) AS sq
      FROM e GROUP BY label, vec_id)
SELECT label, CAST(COUNT(*) AS BIGINT) AS n,
       MIN(sq) AS mn, MAX(sq) AS mx,
       CAST(CAST(SUM(sq) AS HUGEINT) // COUNT(*) AS BIGINT) AS mean_sq
FROM q GROUP BY label ORDER BY label
"""


ORACLE_QUERIES["vector_norms"] = (q_vector_norms, SQL_VECTOR_NORMS)


# ---------------------------------------------------------------------------
# Q: user_bursts — ROWS-frame window (the frame type the trailing RANGE
# window doesn't cover): each user's maximum 3-consecutive-event value
# sum in cents (burst detection).  Inside the user-keyed exchange the
# moving sum is a cumsum difference — no per-row loop — with window
# starts clamped to each user's first event; ties in ts break on
# event_id on both sides.
# ---------------------------------------------------------------------------
def q_user_bursts(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["user_id"].notna()]
        v = np.nan_to_num(df.pop("value").to_numpy(dtype=np.float64))
        df["cents"] = _cents(v)
        df["ts_us"] = df.pop("ts").astype("int64")
        return _from_pandas(df)

    def bursts(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        u = d["user_id"].to_numpy()
        c = d["cents"].to_numpy()
        n = len(d)
        csum = np.concatenate([[0], np.cumsum(c)])
        pos = np.arange(n)
        starts = np.r_[0, np.flatnonzero(u[1:] != u[:-1]) + 1]
        first_of = np.repeat(starts, np.diff(np.r_[starts, n]))
        lo = np.maximum(pos - 2, first_of)  # 2 PRECEDING, clamped per user
        win = csum[pos + 1] - csum[lo]
        g = (
            pd.DataFrame({"user_id": u, "burst": win})
            .groupby("user_id", sort=False)["burst"]
            .max()
            .reset_index(name="max_burst_cents")
        )
        g["max_burst_cents"] = g["max_burst_cents"].astype(np.int64)
        return g

    out = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["user_id"], bursts
    )
    return collect_sorted(out, ["user_id"])


SQL_USER_BURSTS = """
WITH c AS (
  SELECT user_id, event_id, ts,
         CAST(FLOOR(COALESCE(value, 0) * 100 + 0.5) AS BIGINT) AS cents
  FROM events WHERE user_id IS NOT NULL
),
w AS (
  SELECT user_id,
         SUM(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS burst
  FROM c
)
SELECT user_id, CAST(MAX(burst) AS BIGINT) AS max_burst_cents
FROM w GROUP BY user_id ORDER BY user_id
"""


ORACLE_QUERIES["user_bursts"] = (q_user_bursts, SQL_USER_BURSTS)


# ---------------------------------------------------------------------------
# Q: ntile_buckets — NTILE(4) quartile assignment per event type (the
# quantile-bucketing step behind curriculum tiers and score binning),
# folded to one row per (type, tile).  Tile boundaries follow SQL NTILE
# exactly: with n rows and k tiles the first n % k tiles hold
# n // k + 1 rows.  Values ride the e6 integer grid and ties are broken
# by event_id, so the assignment is deterministic on both sides.  One
# type-keyed exchange; the reducer sorts its bucket once and computes
# every tile vectorized.
# ---------------------------------------------------------------------------
_NTILE_K = 4


def q_ntile_buckets(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "event_id", "value"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["value"].notna()]
        df["value_e6"] = np.floor(
            df.pop("value").to_numpy(dtype=np.float64) * 1_000_000.0 + 0.5
        ).astype(np.int64)
        return _from_pandas(df)

    def tiles(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for etype, grp in df.groupby("event_type", sort=False):
            g = grp.sort_values(["value_e6", "event_id"], kind="mergesort")
            n = len(g)
            big = n % _NTILE_K
            size_small = n // _NTILE_K
            pos = np.arange(n, dtype=np.int64)
            boundary = big * (size_small + 1)
            tile = np.empty(n, dtype=np.int64)
            head = pos < boundary
            tile[head] = pos[head] // (size_small + 1)
            if size_small:
                tile[~head] = big + (pos[~head] - boundary) // size_small
            v = g["value_e6"].to_numpy()
            agg = pd.DataFrame({"tile": tile + 1, "value_e6": v}).groupby(
                "tile", sort=True
            )["value_e6"]
            sz = agg.size()
            out.append(
                pd.DataFrame(
                    {
                        "event_type": etype,
                        "tile": sz.index.to_numpy(),
                        "n": sz.to_numpy().astype(np.int64),
                        "min_e6": agg.min().to_numpy().astype(np.int64),
                        "max_e6": agg.max().to_numpy().astype(np.int64),
                    }
                )
            )
        return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
            {
                "event_type": pd.Series([], dtype=object),
                "tile": pd.Series([], dtype=np.int64),
                "n": pd.Series([], dtype=np.int64),
                "min_e6": pd.Series([], dtype=np.int64),
                "max_e6": pd.Series([], dtype=np.int64),
            }
        )

    out = hash_aggregate(
        ds.map_batches(pre, batch_format="pyarrow"), ["event_type"], tiles
    )
    return collect_sorted(out, ["event_type", "tile"])


SQL_NTILE_BUCKETS = """
WITH v AS (
  SELECT event_type, event_id,
         CAST(FLOOR(value * 1000000 + 0.5) AS BIGINT) AS value_e6
  FROM events WHERE value IS NOT NULL
),
t AS (
  SELECT event_type, value_e6,
         NTILE(4) OVER (PARTITION BY event_type
                        ORDER BY value_e6, event_id) AS tile
  FROM v
)
SELECT event_type, CAST(tile AS BIGINT) AS tile,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(MIN(value_e6) AS BIGINT) AS min_e6,
       CAST(MAX(value_e6) AS BIGINT) AS max_e6
FROM t GROUP BY event_type, tile
ORDER BY event_type, tile
"""


ORACLE_QUERIES["ntile_buckets"] = (q_ntile_buckets, SQL_NTILE_BUCKETS)


# ---------------------------------------------------------------------------
# Q: median_interp — EXACT interpolated median (percentile_cont 0.5)
# per source over n_chars, reported on a x2 integer grid
# (median_x2 = lower middle + upper middle of the sorted values) so the
# half-integer interpolation stays hash-exact.  Same count-vector
# sufficient statistic as source_median_chars: the per-source value
# counts ARE the distribution, so no row collection and no float math.
# ---------------------------------------------------------------------------
def q_median_interp(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["source", "n_chars"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["source", "n_chars"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        out_src, out_med = [], []
        for src, grp in g.groupby("source", sort=False):
            grp = grp.sort_values("n_chars", kind="mergesort")
            cum = grp["cnt"].cumsum().to_numpy()
            n = int(cum[-1])
            vals = grp["n_chars"].to_numpy()
            lo = vals[int(np.searchsorted(cum, (n - 1) // 2 + 1))]
            hi = vals[int(np.searchsorted(cum, n // 2 + 1))]
            out_src.append(src)
            out_med.append(int(lo) + int(hi))
        return pd.DataFrame(
            {
                "source": out_src,
                "median_x2": pd.array(out_med, dtype=np.int64),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(partials, ["source"], merge)
    return collect_sorted(out, ["source"])


SQL_MEDIAN_INTERP = """
WITH r AS (
  SELECT source, n_chars,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY n_chars) AS rk,
         COUNT(*) OVER (PARTITION BY source) AS n
  FROM documents
)
SELECT source,
       CAST(SUM(CASE WHEN rk = (n - 1) // 2 + 1 THEN n_chars ELSE 0 END)
            + SUM(CASE WHEN rk = n // 2 + 1 THEN n_chars ELSE 0 END)
            AS BIGINT) AS median_x2
FROM r GROUP BY source
ORDER BY source
"""


ORACLE_QUERIES["median_interp"] = (q_median_interp, SQL_MEDIAN_INTERP)


# ---------------------------------------------------------------------------
# Q: corr_moments — exact correlation sufficient statistics per
# returnflag between quantity and price (the distributed-moments
# pattern behind corr/cov/regression at scale: ship the five sums, not
# the rows).  Quantities and dollar prices are integral on the TPC-H
# grid, so every moment is an exact int64 sum; the engine folds
# per-batch numpy partials through one flag-keyed exchange.  (At
# petabyte scale the squared-price sum would move to a 128-bit
# accumulator; the per-row bound is documented at the partial.)
# ---------------------------------------------------------------------------
def q_corr_moments(sf_dir: str):
    ds = _pq(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        q = np.floor(df["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        # dollars (not cents): keeps sum(p*p) within int64 headroom
        # (p <= ~1e5 -> p*p <= 1e10 per row) through sf >= 1
        p = np.floor(df["l_extendedprice"].to_numpy() + 0.5).astype(np.int64)
        g = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "n": np.int64(1),
                "sum_q": q,
                "sum_p": p,
                "sum_qq": q * q,
                "sum_pp": p * p,
                "sum_qp": q * p,
            }
        )
        return _from_pandas(
            g.groupby("l_returnflag", sort=False).sum().reset_index()
        )

    cols = ["n", "sum_q", "sum_p", "sum_qq", "sum_pp", "sum_qp"]
    out = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag"],
        lambda df: df.groupby("l_returnflag", sort=False)[cols].sum().reset_index(),
    )
    res = collect_sorted(out, ["l_returnflag"])
    for c in cols:
        res[c] = res[c].astype(np.int64)
    return res


SQL_CORR_MOMENTS = """
WITH v AS (
  SELECT l_returnflag,
         CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS q,
         CAST(FLOOR(l_extendedprice + 0.5) AS BIGINT) AS p
  FROM lineitem
)
SELECT l_returnflag,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(q) AS BIGINT) AS sum_q,
       CAST(SUM(p) AS BIGINT) AS sum_p,
       CAST(SUM(q * q) AS BIGINT) AS sum_qq,
       CAST(SUM(p * p) AS BIGINT) AS sum_pp,
       CAST(SUM(q * p) AS BIGINT) AS sum_qp
FROM v GROUP BY l_returnflag
ORDER BY l_returnflag
"""


ORACLE_QUERIES["corr_moments"] = (q_corr_moments, SQL_CORR_MOMENTS)


# ---------------------------------------------------------------------------
# Q: table_diff — keyed snapshot diff (the data-versioning op: which
# rows were added / removed / changed between two table versions).
# Snapshot B is derived deterministically from orders so both sides
# construct identical inputs: keys divisible by 97 are deleted, keys
# divisible by 101 get +100 cents, and keys divisible by 89 reappear
# shifted by 1e9 as inserts.  The engine emits both snapshots tagged
# from ONE scan, exchanges once on the key, and classifies each key
# vectorized inside the bucket reducer — no driver-side join, no
# second read of the table.
# ---------------------------------------------------------------------------
def q_table_diff(sf_dir: str):
    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def tag(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy()
        v = _cents(t["o_totalprice"].to_numpy())
        keep = k % 97 != 0
        bk, bv = k[keep], v[keep].copy()
        bv[bk % 101 == 0] += 100
        ins = k % 89 == 0
        return pa.table(
            {
                "k": pa.array(
                    np.concatenate([k, bk, k[ins] + 1_000_000_000])
                ),
                "side": pa.array(
                    np.concatenate(
                        [
                            np.zeros(len(k), dtype=np.int8),
                            np.ones(len(bk) + int(ins.sum()), dtype=np.int8),
                        ]
                    )
                ),
                "v": pa.array(np.concatenate([v, bv, v[ins]])),
            }
        )

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        a = df[df["side"] == 0].set_index("k")["v"]
        b = df[df["side"] == 1].set_index("k")["v"]
        j = a.to_frame("va").join(b.to_frame("vb"), how="outer")
        status = np.where(
            j["vb"].isna(),
            "removed",
            np.where(j["va"].isna(), "added", "changed"),
        )
        changed = j["va"].notna() & j["vb"].notna()
        keep = ~changed | (j["va"] != j["vb"])
        out = pd.DataFrame(
            {"orderkey": j.index.to_numpy(), "status": status}
        )[keep.to_numpy()]
        out["orderkey"] = out["orderkey"].astype(np.int64)
        return out.reset_index(drop=True)

    out = hash_aggregate(
        ds.map_batches(tag, batch_format="pyarrow"), ["k"], classify
    ).materialize()  # diff output is small; count + collect share one run
    if out.count() == 0:
        # identical snapshots: typed empty (an empty Ray Dataset loses
        # its column names through collect)
        return pd.DataFrame(
            {
                "orderkey": pd.Series([], dtype=np.int64),
                "status": pd.Series([], dtype=object),
            }
        )
    res = collect_sorted(out, ["orderkey"])
    res["status"] = res["status"].astype(object)
    return res


SQL_TABLE_DIFF = """
WITH a AS (
  SELECT o_orderkey AS k,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS v
  FROM orders
),
b AS (
  SELECT k, CASE WHEN k % 101 = 0 THEN v + 100 ELSE v END AS v
  FROM a WHERE k % 97 <> 0
  UNION ALL
  SELECT k + 1000000000, v FROM a WHERE k % 89 = 0
)
SELECT COALESCE(a.k, b.k) AS orderkey,
       CASE WHEN b.k IS NULL THEN 'removed'
            WHEN a.k IS NULL THEN 'added'
            ELSE 'changed' END AS status
FROM a FULL OUTER JOIN b ON a.k = b.k
WHERE b.k IS NULL OR a.k IS NULL OR a.v <> b.v
ORDER BY orderkey
"""


ORACLE_QUERIES["table_diff"] = (q_table_diff, SQL_TABLE_DIFF)


# ---------------------------------------------------------------------------
# Q: dedup_keep_best — normalized-content dedup with a keep-BEST policy
# (vs exact_dedup's keep-first): group by whitespace-collapsed,
# ASCII-lowercased text and keep the longest raw copy (tie-break min
# doc_id).  This is the crawl-dedup shape where near-identical copies
# differ only in casing/whitespace and the policy keeps the richest one.
# Only the int64 hash of the normalized text crosses the exchange — the
# text itself never leaves the scan task.
# ---------------------------------------------------------------------------
_ASCII_LOWER = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz"
)


def q_dedup_keep_best(sf_dir: str):
    import re

    from pynomaly_ray.functions.hashing import hash_strings

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source", "n_chars"])
    ws = re.compile(r"[ \t\n\r\f\v]+")

    def keep_best(df: pd.DataFrame) -> pd.DataFrame:
        # shared partial/final reducer: raw rows arrive without a
        # ``copies`` column (each row is one copy); merged partials
        # carry their copy counts forward
        if "copies" not in df.columns:
            df = df.assign(copies=np.ones(len(df), dtype=np.int64))
        if not len(df):
            return df[["key", "doc_id", "source", "n_chars", "copies"]]
        df = df.sort_values(
            ["key", "n_chars", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        copies = df.groupby("key", sort=False)["copies"].sum()
        best = df.drop_duplicates("key", keep="first").set_index("key")
        best["copies"] = copies
        return best.reset_index()[["key", "doc_id", "source", "n_chars", "copies"]]

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # explicit ASCII lower + ASCII whitespace class on BOTH sides
        # (SQL: translate + regexp_replace + trim) so parity is
        # independent of unicode case-folding differences
        norm = (
            df["text"]
            .str.translate(_ASCII_LOWER)
            .str.replace(ws, " ", regex=True)
            .str.strip(" ")
        )
        df["key"] = hash_strings(norm).astype(np.int64)
        return _from_pandas(
            keep_best(df[["key", "doc_id", "source", "n_chars"]])
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    out = hash_aggregate(partials, ["key"], keep_best)
    df = collect_sorted(out, ["doc_id"])
    return df[["doc_id", "source", "n_chars", "copies"]]


SQL_DEDUP_KEEP_BEST = r"""
WITH norm AS (
  SELECT doc_id, source, n_chars,
         trim(regexp_replace(
             translate(text, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ',
                             'abcdefghijklmnopqrstuvwxyz'),
             '[ \t\n\r\f\v]+', ' ', 'g'), ' ') AS key
  FROM documents
)
SELECT doc_id, source, n_chars, copies FROM (
  SELECT doc_id, source, n_chars,
         COUNT(*) OVER (PARTITION BY key) AS copies,
         ROW_NUMBER() OVER (
             PARTITION BY key ORDER BY n_chars DESC, doc_id) AS rn
  FROM norm
) WHERE rn = 1
ORDER BY doc_id
"""


ORACLE_QUERIES["dedup_keep_best"] = (q_dedup_keep_best, SQL_DEDUP_KEEP_BEST)


# ---------------------------------------------------------------------------
# Q: top_unshipped_orders — TPC-H Q3-shaped 3-way join + top-k: open
# orders from BUILDING-segment customers placed before a cutoff, ranked
# by revenue from lineitems shipping after the cutoff.  Shape: the
# customer dimension broadcasts as a key set (pc.is_in, no shuffle),
# lineitem revenue pre-aggregates map-side per orderkey behind a
# shipdate predicate pushed INTO the read, and only the two slim
# per-orderkey streams meet in the partitioned hash join.
# ---------------------------------------------------------------------------
def q_top_unshipped_orders(sf_dir: str):
    import datetime as _dt

    import pyarrow.dataset as pads
    import pyarrow.parquet as papq

    from pynomaly_ray.functions.exchange import hash_join
    from pynomaly_ray.sources.parquet import read_parquet_clean

    cutoff = _dt.datetime(1998, 1, 1)
    # small dimension: one driver-side projected read -> broadcast key
    # set (TPC-H customer is ~1.5k rows/SF-0.01; at the 100x corpus this
    # side stays a key column, or swaps to bloom_semi_join's pushdown)
    cust = papq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    seg_keys = pc.filter(
        cust["c_custkey"], pc.equal(cust["c_mktsegment"], "BUILDING")
    ).combine_chunks()

    def _blocks(path: str) -> int:
        # same row-sized block count as _pq (Ray's default ~2x-CPU
        # shatter schedules dozens of sub-100-row tasks on small tables)
        rows = papq.read_metadata(path).num_rows
        return max(1, min(64, rows // _ROWS_PER_BLOCK + 1))

    orders_path = os.path.join(sf_dir, "orders.parquet")
    orders = read_parquet_clean(
        orders_path,
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderstatus"],
        filter=(pads.field("o_orderstatus") == "O")
        & (pads.field("o_orderdate") < cutoff),
        override_num_blocks=_blocks(orders_path),
    )

    def orders_slim(t: pa.Table) -> pa.Table:
        member = pc.fill_null(
            pc.is_in(t["o_custkey"], value_set=seg_keys), False
        )
        t = t.filter(member)
        # explicit us cast: int64-of-timestamp is unit-dependent, and a
        # writer may store ns or s where the testdata stores us
        day = pc.divide(
            pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64()),
            86_400_000_000,
        )
        return pa.table(
            {"l_orderkey": t["o_orderkey"], "order_day": day}
        )

    orders_k = orders.map_batches(orders_slim, batch_format="pyarrow")

    li_path = os.path.join(sf_dir, "lineitem.parquet")
    li = read_parquet_clean(
        li_path,
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=pads.field("l_shipdate") > cutoff,
        override_num_blocks=_blocks(li_path),
    )

    def li_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        rev = _cents(
            df["l_extendedprice"].to_numpy()
            * (1.0 - df["l_discount"].to_numpy())
        )
        g = (
            pd.DataFrame({"l_orderkey": df["l_orderkey"], "rev": rev})
            .groupby("l_orderkey", sort=False)["rev"]
            .sum()
            .reset_index()
        )
        return _from_pandas(g)

    li_agg = li.map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def bucket_sum(df: pd.DataFrame) -> pd.DataFrame:
        # li partials may split one orderkey across blocks; the orders
        # side is unique per key, so summing after the merge closes it
        g = (
            df.groupby(["l_orderkey", "order_day"], sort=False)["rev"]
            .sum()
            .reset_index()
        )
        return g.rename(
            columns={"l_orderkey": "o_orderkey", "rev": "sum_revenue_cents"}
        )

    joined = hash_join(li_agg, orders_k, ["l_orderkey"], merge_fn=bucket_sum)
    res = topk(
        joined,
        ["sum_revenue_cents", "o_orderkey"],
        10,
        descending=[True, False],
    )
    cols = ["o_orderkey", "order_day", "sum_revenue_cents"]
    if not len(res):
        # typed empty (an all-filtered join can lose non-key columns)
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})
    return res[cols]


SQL_TOP_UNSHIPPED_ORDERS = """
SELECT o_orderkey, order_day, sum_revenue_cents FROM (
  SELECT o.o_orderkey,
         CAST(FLOOR(epoch_us(o.o_orderdate) / 86400000000) AS BIGINT) AS order_day,
         CAST(SUM(CAST(FLOOR(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_revenue_cents
  FROM customer c
  JOIN orders o ON c.c_custkey = o.o_custkey
  JOIN lineitem l ON l.l_orderkey = o.o_orderkey
  WHERE c.c_mktsegment = 'BUILDING'
    AND o.o_orderstatus = 'O'
    AND o.o_orderdate < TIMESTAMP '1998-01-01'
    AND l.l_shipdate > TIMESTAMP '1998-01-01'
  GROUP BY 1, 2
)
ORDER BY sum_revenue_cents DESC, o_orderkey
LIMIT 10
"""


ORACLE_QUERIES["top_unshipped_orders"] = (
    q_top_unshipped_orders,
    SQL_TOP_UNSHIPPED_ORDERS,
)


# ---------------------------------------------------------------------------
# Q: late_orders — TPC-H Q4-shaped EXISTS semi-join with an inequality:
# count orders per priority having at least one lineitem that shipped
# more than 90 days after the order date.  The scale rewrite: EXISTS
# (l_shipdate > X) over a group is equivalent to max(l_shipdate) > X,
# so lineitem collapses to a per-orderkey MAX map-side (a one-column
# partial) before the join — the exchange carries one row per orderkey
# instead of one per lineitem, and the EXISTS never materializes.
# ---------------------------------------------------------------------------
def q_late_orders(sf_dir: str):
    from pynomaly_ray.functions.exchange import hash_join

    orders = _pq(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]
    )

    def orders_slim(t: pa.Table) -> pa.Table:
        order_us = pc.cast(
            pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64()
        )
        return pa.table(
            {
                "l_orderkey": t["o_orderkey"],
                "order_us": order_us,
                "o_orderpriority": t["o_orderpriority"],
            }
        )

    ok = orders.map_batches(orders_slim, batch_format="pyarrow")

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def li_max(t: pa.Table) -> pa.Table:
        g = (
            t.select(["l_orderkey", "l_shipdate"])
            .group_by("l_orderkey")
            .aggregate([("l_shipdate", "max")])
        )
        ship_us = pc.cast(
            pc.cast(g["l_shipdate_max"], pa.timestamp("us")), pa.int64()
        )
        return pa.table({"l_orderkey": g["l_orderkey"], "max_ship_us": ship_us})

    li_agg = li.map_batches(li_max, batch_format="pyarrow", batch_size=65536)
    late_us = 90 * 86_400_000_000

    def bucket_count(df: pd.DataFrame) -> pd.DataFrame:
        # li partials may split one orderkey across blocks; fold the MAX
        # before applying the lateness predicate
        m = (
            df.groupby(["l_orderkey", "order_us", "o_orderpriority"], sort=False)[
                "max_ship_us"
            ]
            .max()
            .reset_index()
        )
        late = m[m["max_ship_us"] > m["order_us"] + late_us]
        g = (
            late.groupby("o_orderpriority", sort=False)
            .size()
            .rename("n_late")
            .reset_index()
        )
        return g

    joined = hash_join(li_agg, ok, ["l_orderkey"], merge_fn=bucket_count)
    out = hash_aggregate(
        joined,
        ["o_orderpriority"],
        lambda df: df.groupby("o_orderpriority", sort=False)["n_late"]
        .sum()
        .reset_index(),
    )
    df = collect_sorted(out, ["o_orderpriority"])
    df["n_late"] = df["n_late"].astype(np.int64)
    return df


SQL_LATE_ORDERS = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_late
FROM orders
WHERE EXISTS (
  SELECT 1 FROM lineitem
  WHERE l_orderkey = o_orderkey
    AND l_shipdate > o_orderdate + INTERVAL 90 DAY
)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


ORACLE_QUERIES["late_orders"] = (q_late_orders, SQL_LATE_ORDERS)


# ---------------------------------------------------------------------------
# Q: embedding_dim_profile — per-DIMENSION drift profile of the
# embedding column (count / sum / min / max of e6-scaled values for
# each of the 64 coordinates).  The unnest-and-aggregate shape with the
# explode done as a numpy column reduction inside each scan task: a
# batch of n vectors collapses to 64 partial rows before the exchange,
# so the shuffle carries O(64 x blocks) rows regardless of corpus size.
# This is the stat vector a LoOP drift detector consumes per partition.
# ---------------------------------------------------------------------------
def q_embedding_dim_profile(sf_dir: str):
    from pynomaly_ray.stages.similarity import _embedding_matrix

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        m = _embedding_matrix(batch)
        if m.size == 0:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sum_e6": pa.array([], pa.int64()),
                    "min_e6": pa.array([], pa.int64()),
                    "max_e6": pa.array([], pa.int64()),
                }
            )
        e6 = np.floor(m * 1_000_000.0 + 0.5).astype(np.int64)
        d = e6.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(1, d + 1, dtype=np.int64)),
                "n": pa.array(np.full(d, e6.shape[0], dtype=np.int64)),
                "sum_e6": pa.array(e6.sum(axis=0)),
                "min_e6": pa.array(e6.min(axis=0)),
                "max_e6": pa.array(e6.max(axis=0)),
            }
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("dim", sort=False)
            .agg(
                n=("n", "sum"),
                sum_e6=("sum_e6", "sum"),
                min_e6=("min_e6", "min"),
                max_e6=("max_e6", "max"),
            )
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    out = hash_aggregate(partials, ["dim"], merge)
    return collect_sorted(out, ["dim"])


# CAST(... AS DOUBLE) before the scale: DuckDB evaluates FLOAT * INT in
# single precision, which rounds differently from the engine's
# float64 path; the cast pins both sides to the same double grid.
SQL_EMBEDDING_DIM_PROFILE = """
SELECT t.i AS dim, COUNT(*) AS n,
       CAST(SUM(CAST(FLOOR(CAST(embedding[t.i] AS DOUBLE) * 1000000 + 0.5) AS BIGINT)) AS BIGINT) AS sum_e6,
       MIN(CAST(FLOOR(CAST(embedding[t.i] AS DOUBLE) * 1000000 + 0.5) AS BIGINT)) AS min_e6,
       MAX(CAST(FLOOR(CAST(embedding[t.i] AS DOUBLE) * 1000000 + 0.5) AS BIGINT)) AS max_e6
FROM embeddings CROSS JOIN generate_series(1, 64) AS t(i)
GROUP BY t.i
ORDER BY dim
"""


ORACLE_QUERIES["embedding_dim_profile"] = (
    q_embedding_dim_profile,
    SQL_EMBEDDING_DIM_PROFILE,
)


# ---------------------------------------------------------------------------
# Q: blocklist_filter — C4-style bad-word document filter (Raffel et
# al. 2020 drop any page containing a blocklist term): per source,
# docs kept vs dropped when a doc containing ANY blocklist whitespace
# token is removed.  Engine shape: the blocklist is a constant Arrow
# value set evaluated map-side with ONE pc.is_in over the batch's flat
# token stream + a bincount per doc — no exchange carries text, only
# (source, kept, dropped) partials meet in the aggregate.  At 100 TB a
# user-supplied blocklist rides ray.put exactly like the decontaminate
# benchmark set.
# ---------------------------------------------------------------------------
_BLOCKLIST = ("spark", "dup", "merge")


def q_blocklist_filter(sf_dir: str):
    from pynomaly_ray.functions.hashing import nul_safe_key
    from pynomaly_ray.stages.text import WS_TOKEN_RE

    docs = _pq(sf_dir, "documents", ["doc_id", "text", "source"])
    block = pa.array(list(_BLOCKLIST), pa.string())

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pandas().fillna("")
        lists = texts.str.findall(WS_TOKEN_RE)
        lens = lists.str.len().to_numpy(dtype=np.int64)
        flat = pa.array(
            [tok for x in lists for tok in x], pa.string()
        )
        hit = pc.is_in(flat, value_set=block).to_numpy(
            zero_copy_only=False
        )
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        bad = np.bincount(doc_idx[hit], minlength=len(lens)) > 0
        df = pd.DataFrame(
            {
                "source": t["source"].to_pandas(),
                "kept": (~bad).astype(np.int64),
                "dropped": bad.astype(np.int64),
            }
        )
        g = (
            df.groupby(nul_safe_key(df["source"]), sort=False)[
                ["kept", "dropped"]
            ]
            .sum()
            .rename_axis("source")
            .reset_index()
        )
        g["source"] = g["source"].astype(object)
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(nul_safe_key(df["source"]), sort=False)[
                ["kept", "dropped"]
            ]
            .sum()
            .rename_axis("source")
            .reset_index()
        )
        g["source"] = g["source"].astype(object)
        return g

    partials = docs.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(partials, ["source"], merge)
    return collect_sorted(out, ["source"])


SQL_BLOCKLIST_FILTER = r"""
WITH t AS (
  SELECT source,
         len(list_filter(regexp_extract_all(COALESCE(text, ''), '[^ \t\n\r\f\v]+'),
             x -> x IN ('spark', 'dup', 'merge'))) > 0 AS bad
  FROM documents
)
SELECT source,
       CAST(SUM(CASE WHEN bad THEN 0 ELSE 1 END) AS BIGINT) AS kept,
       CAST(SUM(CASE WHEN bad THEN 1 ELSE 0 END) AS BIGINT) AS dropped
FROM t GROUP BY source ORDER BY source
"""


ORACLE_QUERIES["blocklist_filter"] = (q_blocklist_filter, SQL_BLOCKLIST_FILTER)


# ---------------------------------------------------------------------------
# Q: winnow_fingerprints — MOSS-style winnowing fingerprint profile
# (Schleimer et al. 2003): per doc, total 3-word shingles and the
# number of DISTINCT window-of-4 minima — the sub-document overlap
# fingerprint density.  Selection minimizes the lexicographic shingle
# STRING (numpy U-dtype order == DuckDB binary MIN), so the SQL window
# function reproduces the engine exactly; see stages/decontam.py
# winnow_profile for the vectorized kernel.
# ---------------------------------------------------------------------------
_WINNOW_K = 3
_WINNOW_W = 4


def q_winnow_fingerprints(sf_dir: str):
    from pynomaly_ray.stages.decontam import winnow_profile

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(
        winnow_profile(docs, k=_WINNOW_K, w=_WINNOW_W),
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_sh", pa.int64()),
                ("n_fp", pa.int64()),
            ]
        ),
    )
    return collect_sorted(out, ["doc_id"])


SQL_WINNOW_FINGERPRINTS = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(COALESCE(text, ''), '[^ \t\n\r\f\v]+') AS w
  FROM documents
),
sh AS (
  SELECT doc_id, i,
         array_to_string(list_transform(w[i:i+2], t -> CONCAT(len(t), ':', t)), '') AS s
  FROM tok, UNNEST(generate_series(1, len(w) - 2)) AS t(i)
  WHERE len(w) >= 3
),
wm AS (
  SELECT doc_id, i,
         COUNT(*) OVER (PARTITION BY doc_id) AS n_sh,
         MIN(s) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS msel
  FROM sh
)
SELECT doc_id, CAST(MAX(n_sh) AS BIGINT) AS n_sh,
       CAST(COUNT(DISTINCT msel) AS BIGINT) AS n_fp
FROM wm
WHERE i <= n_sh - 3
GROUP BY doc_id
ORDER BY doc_id
"""


ORACLE_QUERIES["winnow_fingerprints"] = (
    q_winnow_fingerprints,
    SQL_WINNOW_FINGERPRINTS,
)


# ---------------------------------------------------------------------------
# Q: source_divergence — per-source total-variation distance between
# the source's unigram token distribution and the whole-corpus
# distribution, the data-mixing balance signal (which sources skew the
# token diet; cf. the domain-weighting analyses in The Pile / DoReMi).
# TVD is exact-integer up to the FINAL float division: with c_st =
# count(token t in source s), ct = count(t anywhere), ts = source
# total, tot = grand total,
#   TVD(s) = [ sum_t |c_st*tot - ct*ts| + (tot - sum_{t in s} ct)*ts ]
#            / (2*ts*tot)
# (the second term closed-forms all tokens ABSENT from s).  Both sides
# compute floor(num/(2.0*ts*tot)*1e6 + 0.5) in the same float64 op
# order, so the e6 surface hash-matches.  Engine shape: map-side
# (source, token) Arrow-groupby partials -> ONE token-keyed exchange
# whose reducer attaches each token's global ct -> a map-side fold to
# per-(bucket, source) partial sums -> 20-row driver finish with the
# tiny source-totals dict broadcast in a closure.  No stage grows with
# corpus size except the token exchange (vocab-bound); int64 holds to
# ~1e18 = tot * ts, past which the reducer would emit the sum in
# 128-bit pieces (DuckDB's HUGEINT does so natively).
# ---------------------------------------------------------------------------
def q_source_divergence(sf_dir: str):
    from pynomaly_ray.stages.text import WS_TOKEN_RE

    docs = _pq(sf_dir, "documents", ["text", "source"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pandas().fillna("")
        lists = texts.str.findall(WS_TOKEN_RE)
        lens = lists.str.len().to_numpy(dtype=np.int64)
        src = np.repeat(t["source"].to_pandas().to_numpy(), lens)
        tab = pa.table(
            {
                "source": pa.array(src, pa.string()),
                "token": pa.array(
                    [tok for x in lists for tok in x], pa.string()
                ),
            }
        )
        g = tab.group_by(["source", "token"]).aggregate([("token", "count")])
        return pa.table(
            {
                "source": g["source"],
                "token": g["token"],
                "c": g["token_count"].cast(pa.int64()),
            }
        )

    partials = docs.map_batches(partial, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(
                [nul_safe_key(df["token"]), nul_safe_key(df["source"])],
                sort=False,
            )["c"]
            .sum()
            .rename_axis(["token", "source"])
            .reset_index()
        )
        g["token"] = g["token"].astype(object)
        g["source"] = g["source"].astype(object)
        # each token's corpus-wide total rides along: every source row
        # of a token is in this bucket by construction
        g["ct"] = g.groupby(nul_safe_key(g["token"]), sort=False)[
            "c"
        ].transform("sum")
        return g

    ex = hash_aggregate(partials, ["token"], merge).materialize()

    # tiny side: per-source token totals (numbers of sources, not vocab)
    def src_tot(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (
            df.groupby(nul_safe_key(df["source"]), sort=False)["c"]
            .sum()
            .rename_axis("source")
            .reset_index()
        )
        g["source"] = g["source"].astype(object)
        return _from_pandas(g)

    stot_df = collect_sorted(
        hash_aggregate(
            ex.map_batches(src_tot, batch_format="pyarrow"),
            ["source"],
            lambda df: df.groupby(nul_safe_key(df["source"]), sort=False)["c"]
            .sum()
            .rename_axis("source")
            .reset_index(),
        ),
        ["source"],
    )
    ts_of = dict(zip(stot_df["source"], stot_df["c"].astype(np.int64)))
    tot = int(stot_df["c"].sum())

    def fold(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        ts = df["source"].map(ts_of).to_numpy(dtype=np.int64)
        c = df["c"].to_numpy(dtype=np.int64)
        ct = df["ct"].to_numpy(dtype=np.int64)
        contrib = np.abs(c * tot - ct * ts)
        g = (
            pd.DataFrame(
                {
                    "source": df["source"],
                    "num_present": contrib,
                    "ct_present": ct,
                }
            )
            .groupby(nul_safe_key(df["source"]), sort=False)[
                ["num_present", "ct_present"]
            ]
            .sum()
            .rename_axis("source")
            .reset_index()
        )
        g["source"] = g["source"].astype(object)
        return _from_pandas(g)

    folded = collect_sorted(
        hash_aggregate(
            ex.map_batches(fold, batch_format="pyarrow"),
            ["source"],
            lambda df: df.groupby(nul_safe_key(df["source"]), sort=False)[
                ["num_present", "ct_present"]
            ]
            .sum()
            .rename_axis("source")
            .reset_index(),
        ),
        ["source"],
    )
    ts = folded["source"].map(ts_of).to_numpy(dtype=np.int64)
    num = folded["num_present"].to_numpy(dtype=np.int64) + (
        tot - folded["ct_present"].to_numpy(dtype=np.int64)
    ) * ts
    tvd = np.floor(
        num / (2.0 * ts * tot) * 1_000_000.0 + 0.5
    ).astype(np.int64)
    return pd.DataFrame({"source": folded["source"], "tvd_e6": tvd})


SQL_SOURCE_DIVERGENCE = r"""
WITH tok AS (
  SELECT source,
         UNNEST(regexp_extract_all(COALESCE(text, ''), '[^ \t\n\r\f\v]+')) AS token
  FROM documents
),
st AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c
       FROM tok GROUP BY source, token),
tt AS (SELECT token, CAST(SUM(c) AS BIGINT) AS ct FROM st GROUP BY token),
stot AS (SELECT source, CAST(SUM(c) AS BIGINT) AS ts FROM st GROUP BY source),
g AS (SELECT CAST(SUM(c) AS BIGINT) AS tot FROM st),
pres AS (
  SELECT st.source,
         CAST(SUM(ABS(st.c * g.tot - tt.ct * stot.ts)) AS BIGINT)
             AS num_present,
         CAST(SUM(tt.ct) AS BIGINT) AS ct_present
  FROM st JOIN tt USING (token) JOIN stot USING (source) CROSS JOIN g
  GROUP BY st.source
)
SELECT p.source,
       CAST(FLOOR((p.num_present + (g.tot - p.ct_present) * s.ts)
                  / (2.0 * s.ts * g.tot) * 1000000 + 0.5) AS BIGINT)
           AS tvd_e6
FROM pres p JOIN stot s USING (source) CROSS JOIN g
ORDER BY source
"""


ORACLE_QUERIES["source_divergence"] = (
    q_source_divergence,
    SQL_SOURCE_DIVERGENCE,
)


# ---------------------------------------------------------------------------
# Q: editdist_pairs — FastSS / SymSpell deletion-neighborhood near-dup
# on the doc "title" (first 3 whitespace tokens): pairs of docs whose
# titles are within Levenshtein distance 1.  The record-linkage
# blocking pattern the other dedups don't cover: each title emits
# itself + its single-char deletions, an exchange on the variant string
# collects candidate pairs (d<=1 IMPLIES a shared variant, not
# conversely), a second pair-keyed exchange dedups candidates found
# via multiple variants, and the vectorized UCS4 kernel
# (stages/dedup.editdist_le1, fuzz-verified against a DP) certifies
# exactly.  Variant volume is O(total title chars) and bucket sizes
# are near-duplicate-bound — no all-pairs stage anywhere, so the shape
# holds at corpus scale.
# ---------------------------------------------------------------------------
def q_editdist_pairs(sf_dir: str):
    from pynomaly_ray.stages.dedup import editdist_le1
    from pynomaly_ray.stages.text import WS_TOKEN_RE

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def variants(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pandas().fillna("")
        titles = (
            texts.str.findall(WS_TOKEN_RE).str[:3].str.join(" ")
        ).to_numpy(dtype=object)
        ids = t["doc_id"].to_pandas().to_numpy(dtype=np.int64)
        var, vid, vtitle = [], [], []
        for i, s in enumerate(titles):
            if not s:
                continue
            var.append(s)
            vid.append(ids[i])
            vtitle.append(s)
            for p in range(len(s)):
                var.append(s[:p] + s[p + 1 :])
                vid.append(ids[i])
                vtitle.append(s)
        return pa.table(
            {
                "variant": pa.array(var, pa.string()),
                "doc_id": pa.array(np.asarray(vid, dtype=np.int64)),
                "title": pa.array(vtitle, pa.string()),
            }
        )

    def pair_up(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["variant", "doc_id"])
        m = df.merge(df, on="variant", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        return m[
            ["doc_id_a", "doc_id_b", "title_a", "title_b"]
        ].drop_duplicates(["doc_id_a", "doc_id_b"])

    cands = hash_aggregate(
        docs.map_batches(variants, batch_format="pyarrow"),
        ["variant"],
        pair_up,
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["doc_id_a", "doc_id_b"])
        dist = editdist_le1(
            df["title_a"].to_numpy(dtype=object),
            df["title_b"].to_numpy(dtype=object),
        )
        keep = dist <= 1
        return pd.DataFrame(
            {
                "doc_a": df["doc_id_a"].to_numpy(dtype=np.int64)[keep],
                "doc_b": df["doc_id_b"].to_numpy(dtype=np.int64)[keep],
                "dist": dist[keep],
            }
        )

    out = hash_aggregate(cands, ["doc_id_a", "doc_id_b"], verify)
    return collect_sorted(out, ["doc_a", "doc_b"])


SQL_EDITDIST_PAIRS = r"""
WITH t AS (
  SELECT doc_id,
         array_to_string(
           (regexp_extract_all(COALESCE(text, ''), '[^ \t\n\r\f\v]+'))[1:3],
           ' ') AS title
  FROM documents
),
v AS (
  SELECT doc_id, title,
         CASE WHEN i = 0 THEN title
              ELSE substr(title, 1, i - 1) || substr(title, i + 1) END
             AS variant
  FROM t, UNNEST(generate_series(0, len(title))) AS d(i)
  WHERE len(title) > 0
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b,
                  a.title AS ta, b.title AS tb
  FROM v a JOIN v b ON a.variant = b.variant AND a.doc_id < b.doc_id
)
SELECT doc_a, doc_b, CAST(levenshtein(ta, tb) AS BIGINT) AS dist
FROM cand
WHERE levenshtein(ta, tb) <= 1
ORDER BY doc_a, doc_b
"""


ORACLE_QUERIES["editdist_pairs"] = (q_editdist_pairs, SQL_EDITDIST_PAIRS)


# ---------------------------------------------------------------------------
# Q: embedding_gram — exact upper-triangle Gram matrix of the e6-scaled
# embedding columns (the one-pass reduction behind PCA / covariance /
# whitening of an embedding corpus).  Per batch the e6 integer matrix
# multiplies itself through float64 BLAS in 8k-row chunks — every
# partial product (<= ~3.4e11) and chunk sum (<= 2.7e15) is an integer
# below 2^53, so the GEMM is EXACT and the int64 accumulation carries
# no rounding; the fixed 64x64 partial (2,080 rows) is what crosses
# the exchange regardless of corpus size.  SQL reproduces the grid via
# a double generate_series unnest with the same e6 floor.
# ---------------------------------------------------------------------------
def q_embedding_gram(sf_dir: str):
    from pynomaly_ray.stages.similarity import _embedding_matrix

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    _GEMM_CHUNK = 8192  # max rows with exact float64 integer sums

    def partial(batch: pa.Table) -> pa.Table:
        m = _embedding_matrix(batch)
        if m.size == 0:
            return pa.table(
                {
                    "dim_i": pa.array([], pa.int64()),
                    "dim_j": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sum_prod_e12": pa.array([], pa.int64()),
                }
            )
        e6 = np.floor(m * 1_000_000.0 + 0.5)
        d = e6.shape[1]
        g = np.zeros((d, d), dtype=np.int64)
        for s in range(0, e6.shape[0], _GEMM_CHUNK):
            c = e6[s : s + _GEMM_CHUNK]
            g += (c.T @ c).astype(np.int64)
        iu, ju = np.triu_indices(d)
        return pa.table(
            {
                "dim_i": pa.array((iu + 1).astype(np.int64)),
                "dim_j": pa.array((ju + 1).astype(np.int64)),
                "n": pa.array(
                    np.full(len(iu), e6.shape[0], dtype=np.int64)
                ),
                "sum_prod_e12": pa.array(g[iu, ju]),
            }
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["dim_i", "dim_j"], sort=False)
            .agg(n=("n", "sum"), sum_prod_e12=("sum_prod_e12", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    out = hash_aggregate(partials, ["dim_i", "dim_j"], merge)
    return collect_sorted(out, ["dim_i", "dim_j"])


SQL_EMBEDDING_GRAM = """
WITH e AS (
  SELECT i.i AS di, j.j AS dj,
         CAST(FLOOR(CAST(embedding[i.i] AS DOUBLE) * 1000000 + 0.5) AS BIGINT)
         * CAST(FLOOR(CAST(embedding[j.j] AS DOUBLE) * 1000000 + 0.5) AS BIGINT)
             AS p
  FROM embeddings
  CROSS JOIN generate_series(1, 64) AS i(i)
  CROSS JOIN generate_series(1, 64) AS j(j)
  WHERE j.j >= i.i
)
SELECT di AS dim_i, dj AS dim_j, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(p) AS BIGINT) AS sum_prod_e12
FROM e GROUP BY di, dj ORDER BY dim_i, dim_j
"""


ORACLE_QUERIES["embedding_gram"] = (q_embedding_gram, SQL_EMBEDDING_GRAM)


# ---------------------------------------------------------------------------
# Q: winsorized_stats — robust per-type statistics: clamp each event
# value into its type's nearest-rank [p05, p95] band and report the
# exact winsorized e6 sum (the outlier-resistant mean/sum used before
# training-signal aggregation).  Same count-vector sufficient statistic
# as median_interp: per-(type, value_e6) counts are the whole
# distribution, so percentile ranks and the clamped sum are integer
# arithmetic on the reducer's cumulative vector — no row collection, no
# float interpolation anywhere.  Nearest-rank = ceil(p*n), spelled
# (n+19)//20 and (19n+19)//20 in BOTH the reducer and the SQL.
# ---------------------------------------------------------------------------
def q_winsorized_stats(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["value"].notna()]
        e6 = np.floor(
            df["value"].to_numpy(dtype=np.float64) * 1_000_000.0 + 0.5
        ).astype(np.int64)
        g = (
            pd.DataFrame({"event_type": df["event_type"], "e6": e6})
            .groupby(["event_type", "e6"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return _from_pandas(g)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["event_type", "e6"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        rows = []
        for etype, grp in g.groupby("event_type", sort=False):
            grp = grp.sort_values("e6", kind="mergesort")
            cnt = grp["cnt"].to_numpy(dtype=np.int64)
            vals = grp["e6"].to_numpy(dtype=np.int64)
            cum = np.cumsum(cnt)
            n = int(cum[-1])
            lo = vals[int(np.searchsorted(cum, (n + 19) // 20))]
            hi = vals[int(np.searchsorted(cum, (19 * n + 19) // 20))]
            wsum = int(np.clip(vals, lo, hi) @ cnt)
            rows.append((etype, n, lo, hi, wsum))
        return pd.DataFrame(
            rows, columns=["event_type", "n", "lo_e6", "hi_e6", "wsum_e6"]
        ).astype(
            {
                "n": np.int64,
                "lo_e6": np.int64,
                "hi_e6": np.int64,
                "wsum_e6": np.int64,
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = hash_aggregate(partials, ["event_type"], merge)
    return collect_sorted(out, ["event_type"])


SQL_WINSORIZED_STATS = """
WITH v AS (
  SELECT event_type, CAST(FLOOR(value * 1000000 + 0.5) AS BIGINT) AS e6
  FROM events WHERE value IS NOT NULL
),
r AS (
  SELECT event_type, e6,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY e6) AS rk,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM v
),
b AS (
  SELECT event_type,
         CAST(MAX(CASE WHEN rk = (n + 19) // 20 THEN e6 END) AS BIGINT)
             AS lo_e6,
         CAST(MAX(CASE WHEN rk = (19 * n + 19) // 20 THEN e6 END) AS BIGINT)
             AS hi_e6,
         CAST(MAX(n) AS BIGINT) AS n
  FROM r GROUP BY event_type
)
SELECT v.event_type, b.n, b.lo_e6, b.hi_e6,
       CAST(SUM(LEAST(GREATEST(v.e6, b.lo_e6), b.hi_e6)) AS BIGINT)
           AS wsum_e6
FROM v JOIN b USING (event_type)
GROUP BY v.event_type, b.n, b.lo_e6, b.hi_e6
ORDER BY event_type
"""


ORACLE_QUERIES["winsorized_stats"] = (q_winsorized_stats, SQL_WINSORIZED_STATS)


# ---------------------------------------------------------------------------
# Q: customer_returns — TPC-H Q10-shaped FOUR-way join: revenue lost to
# returned lineitems per customer in a one-quarter order window, with
# the customer's nation name, top 20.  The multi-join planning shape:
# lineitem collapses map-side to per-orderkey return revenue behind a
# returnflag pushdown, orders arrives date-pruned AT THE READ and slim,
# the two meet in a partitioned join whose merge_fn immediately
# re-aggregates to per-custkey (the join output never materializes),
# customer joins partitioned on custkey, and the 25-row nation table is
# a broadcast dict inside the final map — one wide side per join, never
# two.
# ---------------------------------------------------------------------------
def q_customer_returns(sf_dir: str):
    import datetime as _dt

    import pyarrow.dataset as pads
    import pyarrow.parquet as papq

    from pynomaly_ray.functions.exchange import hash_join
    from pynomaly_ray.sources.parquet import read_parquet_clean

    lo, hi = _dt.datetime(1997, 1, 1), _dt.datetime(1997, 4, 1)

    def _blocks(path: str) -> int:
        rows = papq.read_metadata(path).num_rows
        return max(1, min(64, rows // _ROWS_PER_BLOCK + 1))

    li_path = os.path.join(sf_dir, "lineitem.parquet")
    li = read_parquet_clean(
        li_path,
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
        filter=pads.field("l_returnflag") == "R",
        override_num_blocks=_blocks(li_path),
    )

    def li_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        rev = _cents(
            df["l_extendedprice"].to_numpy()
            * (1.0 - df["l_discount"].to_numpy())
        )
        g = (
            pd.DataFrame({"l_orderkey": df["l_orderkey"], "rev": rev})
            .groupby("l_orderkey", sort=False)["rev"]
            .sum()
            .reset_index(name="rev_cents")
        )
        return _from_pandas(g)

    ord_path = os.path.join(sf_dir, "orders.parquet")
    orders = read_parquet_clean(
        ord_path,
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo)
        & (pads.field("o_orderdate") < hi),
        override_num_blocks=_blocks(ord_path),
    )

    def ord_slim(t: pa.Table) -> pa.Table:
        return pa.table(
            {"l_orderkey": t["o_orderkey"], "o_custkey": t["o_custkey"]}
        )

    def to_cust(df: pd.DataFrame) -> pd.DataFrame:
        # collapse the join output inside the bucket task
        return (
            df.groupby("o_custkey", sort=False)["rev_cents"]
            .sum()
            .reset_index(name="rev_cents")
        )

    per_cust = hash_aggregate(
        hash_join(
            li.map_batches(li_partial, batch_format="pyarrow"),
            orders.map_batches(ord_slim, batch_format="pyarrow"),
            ["l_orderkey"],
            merge_fn=to_cust,
        ),
        ["o_custkey"],
        lambda df: df.groupby("o_custkey", sort=False)["rev_cents"]
        .sum()
        .reset_index(name="rev_cents"),
    )

    nat = papq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    )
    n_name = dict(
        zip(
            nat["n_nationkey"].to_pylist(),
            nat["n_name"].to_pylist(),
        )
    )
    cust = read_parquet_clean(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_nationkey"],
    )

    def cust_slim(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t["c_custkey"],
                "c_name": t["c_name"],
                "c_nationkey": t["c_nationkey"],
            }
        )

    def attach_nation(df: pd.DataFrame) -> pd.DataFrame:
        out = df.rename(columns={"o_custkey": "c_custkey"})
        out["n_name"] = out.pop("c_nationkey").map(n_name)
        return out

    joined = hash_join(
        per_cust,
        cust.map_batches(cust_slim, batch_format="pyarrow"),
        ["o_custkey"],
        merge_fn=attach_nation,
    )
    res = topk(
        joined,
        ["rev_cents", "c_custkey"],
        20,
        descending=[True, False],
    )
    return res[["c_custkey", "c_name", "n_name", "rev_cents"]].reset_index(
        drop=True
    )


SQL_CUSTOMER_RETURNS = """
SELECT c_custkey, c_name, n_name,
       CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS rev_cents
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= TIMESTAMP '1997-01-01' AND o_orderdate < TIMESTAMP '1997-04-01'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, n_name
ORDER BY rev_cents DESC, c_custkey LIMIT 20
"""


ORACLE_QUERIES["customer_returns"] = (q_customer_returns, SQL_CUSTOMER_RETURNS)


# ---------------------------------------------------------------------------
# Q: late_events — watermark lateness profile: an event is LATE when
# its EVENT TIME lags the running maximum event time of its user's
# earlier ARRIVALS by more than the 300 s watermark tolerance (the
# signal that sizes allowed-lateness in any streaming ingest).
# Event time is ``ts``; arrival order is SIMULATED as the Knuth hash
# of event_id (the shared knuth32 kernel with its SQL twin) — the
# testdata stream is perfectly time-ordered, so a real ingest sequence
# would make every event on time; the deterministic permutation stands
# in for network reordering and keeps the operator non-degenerate on
# both sides of the oracle.  Engine: one user-keyed exchange; the
# reducer sorts its bucket once by (user, arrival, event_id) and
# computes the per-user shifted running max of ts with a cython
# groupby cummax + one shift; event_id is unique, so both sides are
# order-pinned.
# ---------------------------------------------------------------------------
_WATERMARK_TOL_US = 300_000_000  # 300 s


def q_late_events(sf_dir: str):
    ds = _pq(sf_dir, "events", ["user_id", "event_id", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        from pynomaly_ray.functions.hashing import knuth32

        df = t.to_pandas()
        df = df[df["user_id"].notna() & df["ts"].notna()]
        df["ts_us"] = df.pop("ts").astype("int64")
        df["arrival"] = knuth32(df["event_id"].to_numpy(dtype=np.int64))
        return _from_pandas(df)

    def late(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(
            ["user_id", "arrival", "event_id"], kind="mergesort"
        )
        u = d["user_id"].to_numpy()
        ts = d["ts_us"].to_numpy(dtype=np.int64)
        n = len(d)
        if not n:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=df["user_id"].dtype),
                    "n_events": pd.Series([], dtype=np.int64),
                    "n_late": pd.Series([], dtype=np.int64),
                }
            )
        starts = np.r_[0, np.flatnonzero(u[1:] != u[:-1]) + 1]
        seg = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, n]))
        cm = pd.Series(ts).groupby(seg).cummax().to_numpy()
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = cm[:-1]
        first = np.r_[0, starts]  # positions == starts are segment firsts
        is_first = np.zeros(n, dtype=bool)
        is_first[starts] = True
        lateness = (~is_first) & (prev - _WATERMARK_TOL_US > ts)
        n_events = np.diff(np.r_[starts, n]).astype(np.int64)
        n_late = np.bincount(
            seg[lateness], minlength=len(starts)
        ).astype(np.int64)
        keep = n_late >= 1
        return pd.DataFrame(
            {
                "user_id": u[starts][keep],
                "n_events": n_events[keep],
                "n_late": n_late[keep],
            }
        )

    partials = ds.map_batches(pre, batch_format="pyarrow")
    out = hash_aggregate(partials, ["user_id"], late)
    return collect_sorted(out, ["user_id"])


SQL_LATE_EVENTS = """
WITH e AS (
  SELECT user_id, event_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us
  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
),
w AS (
  SELECT user_id, ts_us,
         MAX(ts_us) OVER (PARTITION BY user_id
                          ORDER BY ((event_id % 4294967296) * 2654435761::HUGEINT)
                                   % 4294967296, event_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
             AS prev_max
  FROM e
)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN prev_max - 300000000 > ts_us THEN 1 ELSE 0 END)
            AS BIGINT) AS n_late
FROM w GROUP BY user_id
HAVING SUM(CASE WHEN prev_max - 300000000 > ts_us THEN 1 ELSE 0 END) >= 1
ORDER BY user_id
"""


ORACLE_QUERIES["late_events"] = (q_late_events, SQL_LATE_EVENTS)


# ---------------------------------------------------------------------------
# Q: weighted_sample — deterministic importance sampling: each doc is
# kept with probability proportional to a quality proxy (here
# n_chars, capped), decided by comparing the doc's Knuth-hash coin
# against an integer permille threshold — repeatable across runs and
# machines (the property "sampling" needs at 100 TB: a resumed or
# re-sharded job keeps EXACTLY the same docs).  All-integer: keep iff
# knuth32(doc_id) % 4096 < min(4095, n_chars // 8); the aggregate per
# source reports kept count and kept char mass.  Shares the ONE
# knuth32 kernel with hash_sample / domain_mix / epoch_shuffle.
# ---------------------------------------------------------------------------
def q_weighted_sample(sf_dir: str):
    from pynomaly_ray.functions.hashing import knuth32

    ds = _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        coin = knuth32(df["doc_id"].to_numpy(dtype=np.uint64)) % 4096
        thresh = np.minimum(
            4095, df["n_chars"].to_numpy(dtype=np.int64) // 8
        )
        kept = coin < thresh
        g = (
            pd.DataFrame(
                {
                    "source": df["source"],
                    "n_kept": kept.astype(np.int64),
                    "chars_kept": np.where(
                        kept, df["n_chars"].to_numpy(dtype=np.int64), 0
                    ),
                }
            )
            .groupby("source", sort=False)[["n_kept", "chars_kept"]]
            .sum()
            .reset_index()
        )
        return _from_pandas(g)

    out = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"],
        lambda df: df.groupby("source", sort=False)[["n_kept", "chars_kept"]]
        .sum()
        .reset_index(),
    )
    return collect_sorted(out, ["source"])


SQL_WEIGHTED_SAMPLE = """
WITH t AS (
  SELECT source, n_chars,
         CAST(((doc_id % 4294967296) * 2654435761::HUGEINT) % 4294967296
              AS BIGINT) % 4096 AS coin,
         LEAST(4095, n_chars // 8) AS thresh
  FROM documents
)
SELECT source,
       CAST(SUM(CASE WHEN coin < thresh THEN 1 ELSE 0 END) AS BIGINT)
           AS n_kept,
       CAST(SUM(CASE WHEN coin < thresh THEN n_chars ELSE 0 END) AS BIGINT)
           AS chars_kept
FROM t GROUP BY source ORDER BY source
"""


ORACLE_QUERIES["weighted_sample"] = (q_weighted_sample, SQL_WEIGHTED_SAMPLE)


# ---------------------------------------------------------------------------
# Q: top_quartile_docs — per-source RELATIVE quality gate: keep docs at
# or above their source's nearest-rank p75 of n_chars, report per
# source the threshold and the kept count.  The two-phase broadcast
# pattern: phase 1 reduces the tiny per-(source, n_chars) count vector
# to exact p75 thresholds (nearest-rank = ceil(0.75 n) = (3n+3)//4,
# spelled identically in SQL); phase 2 would stream the corpus against
# the broadcast thresholds — here the aggregate comes straight from
# the same count vector, so the corpus is scanned ONCE total.
# ---------------------------------------------------------------------------
def q_top_quartile_docs(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["source", "n_chars"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return _from_pandas(g)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["source", "n_chars"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        rows = []
        for src, grp in g.groupby("source", sort=False):
            grp = grp.sort_values("n_chars", kind="mergesort")
            cnt = grp["cnt"].to_numpy(dtype=np.int64)
            vals = grp["n_chars"].to_numpy(dtype=np.int64)
            cum = np.cumsum(cnt)
            n = int(cum[-1])
            p75 = vals[int(np.searchsorted(cum, (3 * n + 3) // 4))]
            kept = int(cnt[vals >= p75].sum())
            rows.append((src, p75, kept))
        return pd.DataFrame(
            rows, columns=["source", "p75_chars", "n_kept"]
        ).astype({"p75_chars": np.int64, "n_kept": np.int64})

    out = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), ["source"], finish
    )
    return collect_sorted(out, ["source"])


SQL_TOP_QUARTILE_DOCS = """
WITH r AS (
  SELECT source, n_chars,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY n_chars) AS rk,
         COUNT(*) OVER (PARTITION BY source) AS n
  FROM documents
),
b AS (
  SELECT source,
         CAST(MAX(CASE WHEN rk = (3 * n + 3) // 4 THEN n_chars END)
              AS BIGINT) AS p75_chars
  FROM r GROUP BY source
)
SELECT d.source, b.p75_chars,
       CAST(SUM(CASE WHEN d.n_chars >= b.p75_chars THEN 1 ELSE 0 END)
            AS BIGINT) AS n_kept
FROM documents d JOIN b USING (source)
GROUP BY d.source, b.p75_chars
ORDER BY source
"""


ORACLE_QUERIES["top_quartile_docs"] = (
    q_top_quartile_docs,
    SQL_TOP_QUARTILE_DOCS,
)


# ---------------------------------------------------------------------------
# Q: small_qty_revenue — TPC-H Q17 shape: revenue from lineitems whose
# quantity sits below 20% of their part's average quantity, restricted
# to one brand.  The distributed plan is the canonical correlated-
# aggregate join: pass 1 reduces the fact table to per-part (sum_qty,
# cnt) partials, joins them to the brand-filtered part keys inside the
# bucket tasks; pass 2 re-joins those thresholds onto the fact rows in
# the SAME key-hash exchange and evaluates the predicate all-integer
# (qty < 0.2 * sum/cnt  <=>  5 * qty * cnt < sum — l_quantity is
# whole-valued), so no float ratio ever crosses the compare.  Neither
# the part table nor the threshold vector is broadcast: at 100 TB both
# are #parts-sized, so they ride the exchange.
# ---------------------------------------------------------------------------
def q_small_qty_revenue(sf_dir: str, brand: str = "Brand#23"):
    import pyarrow.dataset as pads

    from pynomaly_ray.functions.exchange import hash_join

    parts = _pq(sf_dir, "part", ["p_partkey", "p_brand"])

    def part_slim(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.equal(t["p_brand"], brand))
        return pa.table({"l_partkey": t["p_partkey"]})

    li = _pq(sf_dir, "lineitem", ["l_partkey", "l_quantity"])

    def li_qty_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (
            pd.DataFrame(
                {
                    "l_partkey": df["l_partkey"],
                    "sum_qty": df["l_quantity"].to_numpy(np.int64),
                    "cnt": np.ones(len(df), np.int64),
                }
            )
            .groupby("l_partkey", sort=False)[["sum_qty", "cnt"]]
            .sum()
            .reset_index()
        )
        return _from_pandas(g)

    def thresh_merge(df: pd.DataFrame) -> pd.DataFrame:
        # partials for one key land in one bucket: finish the aggregate
        # AFTER the inner join has already restricted to brand parts
        return (
            df.groupby("l_partkey", sort=False)[["sum_qty", "cnt"]]
            .sum()
            .reset_index()
        )

    thresholds = hash_join(
        li.map_batches(li_qty_partial, batch_format="pyarrow"),
        parts.map_batches(part_slim, batch_format="pyarrow"),
        ["l_partkey"],
        merge_fn=thresh_merge,
    )

    li2 = _pq(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])

    def fact_slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return _from_pandas(
            pd.DataFrame(
                {
                    "l_partkey": df["l_partkey"],
                    "qty": df["l_quantity"].to_numpy(np.int64),
                    "price_cents": _cents(df["l_extendedprice"].to_numpy()),
                }
            )
        )

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        keep = 5 * df["qty"].to_numpy(np.int64) * df["cnt"].to_numpy(
            np.int64
        ) < df["sum_qty"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "rev_cents": [int(df["price_cents"].to_numpy()[keep].sum())],
                "n_items": [int(keep.sum())],
            }
        )

    picked = hash_join(
        li2.map_batches(fact_slim, batch_format="pyarrow"),
        thresholds,
        ["l_partkey"],
        merge_fn=pick,
    )
    df = picked.to_pandas()
    return pd.DataFrame(
        {
            "rev_cents": [np.int64(df["rev_cents"].sum())],
            "n_items": [np.int64(df["n_items"].sum())],
        }
    )


SQL_SMALL_QTY_REVENUE = """
WITH t AS (
  SELECT l_partkey,
         CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
         COUNT(*) AS cnt
  FROM lineitem GROUP BY l_partkey
)
SELECT CAST(COALESCE(SUM(CAST(FLOOR(l.l_extendedprice * 100 + 0.5)
                               AS BIGINT)), 0) AS BIGINT) AS rev_cents,
       CAST(COUNT(*) AS BIGINT) AS n_items
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey AND p.p_brand = 'Brand#23'
JOIN t ON t.l_partkey = l.l_partkey
WHERE 5 * CAST(l.l_quantity AS BIGINT) * t.cnt < t.sum_qty
"""


ORACLE_QUERIES["small_qty_revenue"] = (q_small_qty_revenue, SQL_SMALL_QTY_REVENUE)


# ---------------------------------------------------------------------------
# Q: big_orders — TPC-H Q18 shape: orders whose total lineitem quantity
# exceeds a threshold, decorated with the customer name and ranked by
# order value.  The HAVING filter runs INSIDE the aggregate reducers
# (keys are co-located after the exchange, so the post-filter is exact
# and the surviving set — a tiny fraction — is all that flows into the
# two decoration joins).  Both joins are key-hash exchanges: orders and
# customer are fact-sized at 100 TB, never broadcast.  Final ranking is
# the distributed top-k (per-block heads, then a driver merge of k-row
# partials).
# ---------------------------------------------------------------------------
def q_big_orders(sf_dir: str, min_qty: int = 150):
    from pynomaly_ray.functions.exchange import hash_join, topk

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def li_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (
            pd.DataFrame(
                {
                    "o_orderkey": df["l_orderkey"],
                    "sum_qty": df["l_quantity"].to_numpy(np.int64),
                }
            )
            .groupby("o_orderkey", sort=False)["sum_qty"]
            .sum()
            .reset_index()
        )
        return _from_pandas(g)

    def having(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("o_orderkey", sort=False)["sum_qty"]
            .sum()
            .reset_index()
        )
        return g[g["sum_qty"] > min_qty]

    heavy = hash_aggregate(
        li.map_batches(li_partial, batch_format="pyarrow"),
        ["o_orderkey"],
        having,
    )

    orders = _pq(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )

    def ord_slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return _from_pandas(
            pd.DataFrame(
                {
                    "o_orderkey": df["o_orderkey"],
                    "c_custkey": df["o_custkey"],
                    "order_day": (
                        df["o_orderdate"].astype("int64") // 86_400_000_000
                    ).astype(np.int64),
                    "total_cents": _cents(df["o_totalprice"].to_numpy()),
                }
            )
        )

    decorated = hash_join(
        heavy,
        orders.map_batches(ord_slim, batch_format="pyarrow"),
        ["o_orderkey"],
    )

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_name"])
    named = hash_join(decorated, cust, ["c_custkey"])
    res = topk(
        named,
        ["total_cents", "order_day", "o_orderkey"],
        100,
        descending=[True, False, False],
    )
    return res[
        ["c_name", "c_custkey", "o_orderkey", "order_day", "total_cents", "sum_qty"]
    ].reset_index(drop=True)


SQL_BIG_ORDERS = """
WITH h AS (
  SELECT l_orderkey, CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
  FROM lineitem GROUP BY l_orderkey
  HAVING SUM(CAST(l_quantity AS BIGINT)) > 150
)
SELECT c.c_name, c.c_custkey, o.o_orderkey,
       CAST(FLOOR(epoch_us(o.o_orderdate) / 86400000000) AS BIGINT) AS order_day,
       CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents,
       h.sum_qty
FROM h
JOIN orders o ON o.o_orderkey = h.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
ORDER BY total_cents DESC, order_day, o.o_orderkey
LIMIT 100
"""


ORACLE_QUERIES["big_orders"] = (q_big_orders, SQL_BIG_ORDERS)


# ---------------------------------------------------------------------------
# Q: idle_rich_customers — TPC-H Q22 shape: per market segment, count
# and balance mass of positive-balance customers whose balance exceeds
# the GLOBAL positive-balance average and who have placed no RECENT
# order (none since 2001-01-01 — the lapsed-buyer window; the date
# filter is pushed into the parquet read so only recent order rows
# ever leave storage).
# Three scale ingredients composed: (1) the global scalar is a partial
# mean reduced map-side to (sum, cnt) pairs — one tiny driver fold, the
# corpus never collects; (2) the above-average test is all-integer
# (cents * cnt > sum_cents), bit-identical to the SQL; (3) "has no
# orders" is the size-adaptive anti_membership (broadcast key set under
# the cap, key-partitioned hash anti-join above it) — never a driver
# set.  Final per-segment rollup is a partial+final hash_aggregate.
# ---------------------------------------------------------------------------
def q_idle_rich_customers(sf_dir: str):
    from pynomaly_ray.functions.exchange import anti_membership

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_acctbal", "c_mktsegment"])

    def bal_partial(t: pa.Table) -> pa.Table:
        cents = _cents(t["c_acctbal"].to_numpy(zero_copy_only=False))
        pos = cents > 0
        return pa.table(
            {
                "sum_cents": pa.array([int(cents[pos].sum())], pa.int64()),
                "cnt": pa.array([int(pos.sum())], pa.int64()),
            }
        )

    scal = (
        cust.map_batches(bal_partial, batch_format="pyarrow")
        .to_pandas()
        .sum()
    )
    sum_cents, cnt = int(scal["sum_cents"]), int(scal["cnt"])

    def rich(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        cents = _cents(df["c_acctbal"].to_numpy())
        keep = (cents > 0) & (cents * cnt > sum_cents)
        return _from_pandas(
            pd.DataFrame(
                {
                    "c_custkey": df["c_custkey"].to_numpy()[keep],
                    "c_mktsegment": df["c_mktsegment"].to_numpy()[keep],
                    "bal_cents": cents[keep],
                }
            )
        )

    import datetime as _dt

    import pyarrow.dataset as pads

    from pynomaly_ray.sources.parquet import read_parquet_clean

    orders = read_parquet_clean(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey"],
        filter=pads.field("o_orderdate") >= _dt.datetime(2001, 1, 1),
    ).map_batches(
        lambda t: t.rename_columns(["c_custkey"]), batch_format="pyarrow"
    )
    idle = anti_membership(
        cust.map_batches(rich, batch_format="pyarrow"), orders, "c_custkey"
    )

    def seg_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (
            df.assign(n_cust=np.int64(1))
            .groupby("c_mktsegment", sort=False)[["n_cust", "bal_cents"]]
            .sum()
            .reset_index()
        )
        return _from_pandas(g)

    out = hash_aggregate(
        idle.map_batches(seg_partial, batch_format="pyarrow"),
        ["c_mktsegment"],
        lambda df: df.groupby("c_mktsegment", sort=False)[
            ["n_cust", "bal_cents"]
        ]
        .sum()
        .reset_index(),
    )
    return collect_sorted(out, ["c_mktsegment"])


SQL_IDLE_RICH_CUSTOMERS = """
WITH c AS (
  SELECT c_custkey, c_mktsegment,
         CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS bal_cents
  FROM customer
),
s AS (
  SELECT CAST(SUM(bal_cents) AS BIGINT) AS sum_cents,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM c WHERE bal_cents > 0
)
SELECT c.c_mktsegment,
       CAST(COUNT(*) AS BIGINT) AS n_cust,
       CAST(SUM(c.bal_cents) AS BIGINT) AS bal_cents
FROM c, s
WHERE c.bal_cents > 0
  AND c.bal_cents * s.cnt > s.sum_cents
  AND c.c_custkey NOT IN (SELECT o_custkey FROM orders
                          WHERE o_orderdate >= DATE '2001-01-01')
GROUP BY c.c_mktsegment
ORDER BY c.c_mktsegment
"""


ORACLE_QUERIES["idle_rich_customers"] = (
    q_idle_rich_customers,
    SQL_IDLE_RICH_CUSTOMERS,
)


# ---------------------------------------------------------------------------
# Q: cdc_merge — Delta/Iceberg-style MERGE: apply a keyed change log
# onto a snapshot.  events is the changelog (key user_id, version
# order (ts, event_id), event_type 'error' = delete tombstone, any
# other type = upsert carrying a new value); customer is the snapshot
# (key c_custkey, original value c_acctbal).  Final state: snapshot
# rows never touched by the log pass through 'unchanged'; rows whose
# LAST log entry is an upsert carry the upserted value as 'updated';
# rows whose last entry is a tombstone are dropped.  The distributed
# plan is two-level per-key argmax (each block keeps its last entry
# per key — a sort + keep-last, so a key's log can be arbitrarily long
# without any single task seeing all of it — then the key-hash
# exchange finishes the argmax among per-block winners) followed by a
# LEFT hash join against the snapshot: both sides are fact-sized at
# 100 TB, nothing broadcasts, and the merge output collapses inside
# the bucket tasks.
# ---------------------------------------------------------------------------
def q_cdc_merge(sf_dir: str):
    from pynomaly_ray.functions.exchange import hash_join

    ev = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def last_per_key(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        return df.drop_duplicates("user_id", keep="last")

    def block_last(t: pa.Table) -> pa.Table:
        df = last_per_key(t.to_pandas())
        return _from_pandas(
            pd.DataFrame(
                {
                    "user_id": df["user_id"],
                    "ts": df["ts"],
                    "event_id": df["event_id"],
                    "ev_type": df["event_type"],
                    "val_cents": _cents(df["value"].to_numpy()),
                }
            )
        )

    last = hash_aggregate(
        ev.map_batches(block_last, batch_format="pyarrow"),
        ["user_id"],
        last_per_key,
    )

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def cust_slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return _from_pandas(
            pd.DataFrame(
                {
                    "user_id": df["c_custkey"],
                    "snap_cents": _cents(df["c_acctbal"].to_numpy()),
                }
            )
        )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        touched = df["ev_type"].notna().to_numpy()
        keep = ~(touched & (df["ev_type"].to_numpy() == "error"))
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(np.int64)[keep],
                "bal_cents": np.where(
                    touched[keep],
                    df["val_cents"].to_numpy(np.float64)[keep],
                    df["snap_cents"].to_numpy(np.float64)[keep],
                ).astype(np.int64),
                "src": np.where(touched[keep], "updated", "unchanged"),
            }
        )
        return out

    merged = hash_join(
        cust.map_batches(cust_slim, batch_format="pyarrow"),
        last,
        ["user_id"],
        merge_fn=finish,
        how="left",
    )
    return collect_sorted(merged, ["user_id"])


SQL_CDC_MERGE = """
WITH last AS (
  SELECT user_id, event_type,
         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS val_cents
  FROM (
    SELECT *, ROW_NUMBER() OVER (
        PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
    FROM events
  ) WHERE rn = 1
)
SELECT c.c_custkey AS user_id,
       CAST(CASE WHEN l.user_id IS NULL
                 THEN FLOOR(c.c_acctbal * 100 + 0.5)
                 ELSE l.val_cents END AS BIGINT) AS bal_cents,
       CASE WHEN l.user_id IS NULL THEN 'unchanged' ELSE 'updated' END AS src
FROM customer c LEFT JOIN last l ON l.user_id = c.c_custkey
WHERE l.event_type IS NULL OR l.event_type <> 'error'
ORDER BY user_id
"""


ORACLE_QUERIES["cdc_merge"] = (q_cdc_merge, SQL_CDC_MERGE)



def _typed_empty(cols) -> pd.DataFrame:
    """Empty result with the declared int64/object columns — used when a
    filter leaves nothing and Ray's skipped-on-empty maps drop the
    schema entirely."""
    return pd.DataFrame(
        {
            c: pd.Series([], dtype=(object if c in _STR_COLS else np.int64))
            for c in cols
        }
    )


_STR_COLS = {"priority", "event_type", "supp_nation", "cust_nation", "s_name"}


# ---------------------------------------------------------------------------
# Q: lonely_late_supplier — TPC-H Q21 shape (suppliers who kept orders
# waiting): the hardest TPC-H correlation — an EXISTS (another supplier
# on the same order) AND a NOT EXISTS (another LATE supplier) against
# the fact table itself.  Decomposed into ONE orderkey-keyed exchange:
# lineitem and 'F'-status orders land in the same bucket, where a
# vectorized per-order analysis (nunique suppliers / nunique late
# suppliers / the single culprit) replaces both correlated subqueries —
# no task ever sees more than one bucket of orders, and the join output
# collapses to per-supplier partial counts before leaving the bucket.
# Lateness is l_shipdate > o_orderdate + 90 days (this corpus has no
# commit/receipt dates; reference shape per TPC-H Q21).
# ---------------------------------------------------------------------------
def q_lonely_late_supplier(sf_dir: str):
    import pyarrow.dataset as pads
    import pyarrow.parquet as papq

    from pynomaly_ray.functions.exchange import dim_lookup, hash_join
    from pynomaly_ray.sources.parquet import read_parquet_clean

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])

    ord_path = os.path.join(sf_dir, "orders.parquet")
    rows = papq.read_metadata(ord_path).num_rows
    orders = read_parquet_clean(
        ord_path,
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
        filter=pads.field("o_orderstatus") == "F",
        override_num_blocks=max(1, min(64, rows // _ROWS_PER_BLOCK + 1)),
    )

    def ord_slim(t: pa.Table) -> pa.Table:
        return pa.table(
            {"l_orderkey": t["o_orderkey"], "o_orderdate": t["o_orderdate"]}
        )

    def per_order(df: pd.DataFrame) -> pd.DataFrame:
        # whole orders are co-located in this bucket (join key ==
        # orderkey), so distinct-supplier counts per order are exact
        late = (
            df["l_shipdate"].to_numpy()
            > df["o_orderdate"].to_numpy() + np.timedelta64(90, "D")
        )
        n_supp = df.groupby("l_orderkey", sort=False)["l_suppkey"].nunique()
        lf = df.loc[late, ["l_orderkey", "l_suppkey"]]
        g = lf.groupby("l_orderkey", sort=False)["l_suppkey"]
        n_late = g.nunique()
        culprit = g.max()
        keep = (n_supp.reindex(n_late.index) >= 2) & (n_late == 1)
        winners = culprit[keep]
        return (
            winners.value_counts()
            .rename_axis("s_suppkey")
            .reset_index(name="numwait")
        )

    partials = hash_join(
        li,
        orders.map_batches(ord_slim, batch_format="pyarrow"),
        ["l_orderkey"],
        merge_fn=per_order,
    )
    agg = hash_aggregate(
        partials,
        ["s_suppkey"],
        lambda df: df.groupby("s_suppkey", sort=False)["numwait"]
        .sum()
        .reset_index(),
    )
    s_name = dim_lookup(
        papq.read_table(
            os.path.join(sf_dir, "supplier.parquet"),
            columns=["s_suppkey", "s_name"],
        ),
        "s_suppkey",
        "s_name",
    )

    def attach(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["s_name"] = df["s_suppkey"].map(s_name)
        return _from_pandas(df)

    res = topk(
        agg.map_batches(attach, batch_format="pyarrow"),
        ["numwait", "s_name"],
        20,
        descending=[True, False],
    )
    df = res[["s_suppkey", "s_name", "numwait"]].reset_index(drop=True)
    df["numwait"] = df["numwait"].astype(np.int64)
    return df


SQL_LONELY_LATE_SUPPLIER = """
WITH l AS (
  SELECT l.l_orderkey, l.l_suppkey,
         (l.l_shipdate > o.o_orderdate + INTERVAL 90 DAY) AS late
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE o.o_orderstatus = 'F'
),
g AS (
  SELECT l_orderkey,
         COUNT(DISTINCT l_suppkey) AS n_supp,
         COUNT(DISTINCT CASE WHEN late THEN l_suppkey END) AS n_late,
         MAX(CASE WHEN late THEN l_suppkey END) AS culprit
  FROM l GROUP BY l_orderkey
)
SELECT s.s_suppkey, s.s_name, CAST(COUNT(*) AS BIGINT) AS numwait
FROM g JOIN supplier s ON s.s_suppkey = g.culprit
WHERE n_supp >= 2 AND n_late = 1
GROUP BY s.s_suppkey, s.s_name
ORDER BY numwait DESC, s_name LIMIT 20
"""


# ---------------------------------------------------------------------------
# Q: disjunctive_revenue — TPC-H Q19 shape (discounted revenue under an
# OR-of-ANDs join predicate).  The part side is a dimension: its two
# predicate columns are broadcast ONCE as dense partkey-indexed numpy
# arrays (TPC-H partkeys are dense), so the disjunctive mask is three
# vectorized AND-chains per batch — the join never shuffles and the
# per-batch output is one (rev, count) partial row.  Guarded: a part
# table too big to broadcast raises toward the hash_join path.
# ---------------------------------------------------------------------------
def q_disjunctive_revenue(sf_dir: str):
    import pyarrow.parquet as papq

    part = papq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    )
    if part.num_rows > 2_000_000:
        raise ValueError(
            "disjunctive_revenue: part too large to broadcast; route the "
            "predicate through hash_join on l_partkey instead"
        )
    pk = part["p_partkey"].to_numpy()
    hi = int(pk.max()) + 1
    brand_code = np.zeros(hi, dtype=np.int8)
    for code, b in ((1, "Brand#11"), (2, "Brand#12"), (3, "Brand#13")):
        brand_code[pk[np.asarray(part["p_brand"]) == b]] = code
    size_of = np.zeros(hi, dtype=np.int64)
    size_of[pk] = part["p_size"].to_numpy()

    li = _pq(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
    )

    def partial(t: pa.Table) -> pa.Table:
        lp = t["l_partkey"].to_numpy()
        qty = t["l_quantity"].to_numpy()
        bc = brand_code[lp]
        sz = size_of[lp]
        m = (
            ((bc == 1) & (sz <= 15) & (qty >= 1) & (qty <= 11))
            | ((bc == 2) & (sz <= 25) & (qty >= 10) & (qty <= 20))
            | ((bc == 3) & (sz <= 35) & (qty >= 20) & (qty <= 30))
        )
        rev = _cents(
            t["l_extendedprice"].to_numpy()[m]
            * (1.0 - t["l_discount"].to_numpy()[m])
        )
        return pa.table(
            {
                "rev_cents": pa.array([int(rev.sum())], pa.int64()),
                "n_lines": pa.array([int(m.sum())], pa.int64()),
            }
        )

    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {
            "rev_cents": [np.int64(parts["rev_cents"].sum())],
            "n_lines": [np.int64(parts["n_lines"].sum())],
        }
    )


SQL_DISJUNCTIVE_REVENUE = """
SELECT CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS rev_cents,
       CAST(COUNT(*) AS BIGINT) AS n_lines
FROM lineitem, part
WHERE p_partkey = l_partkey AND (
      (p_brand = 'Brand#11' AND p_size BETWEEN 1 AND 15 AND l_quantity BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 25 AND l_quantity BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#13' AND p_size BETWEEN 1 AND 35 AND l_quantity BETWEEN 20 AND 30))
"""


# ---------------------------------------------------------------------------
# Q: top_supplier — TPC-H Q15 shape (supplier(s) with the maximum
# revenue in a quarter): per-supplier revenue via map-side partials +
# one keyed exchange, then the global max is reduced from per-block
# 1-row maxima (never collecting the per-supplier aggregate), and the
# argmax-equality filter streams over the same aggregate Dataset — the
# scalar-subquery JOIN decomposed without materializing anything bigger
# than #blocks rows on the driver.
# ---------------------------------------------------------------------------
def q_top_supplier(sf_dir: str):
    import datetime as _dt

    import pyarrow.dataset as pads
    import pyarrow.parquet as papq

    from pynomaly_ray.functions.exchange import dim_lookup
    from pynomaly_ray.sources.parquet import read_parquet_clean

    lo, hi = _dt.datetime(1997, 1, 1), _dt.datetime(1997, 4, 1)
    li_path = os.path.join(sf_dir, "lineitem.parquet")
    rows = papq.read_metadata(li_path).num_rows
    li = read_parquet_clean(
        li_path,
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
        override_num_blocks=max(1, min(64, rows // _ROWS_PER_BLOCK + 1)),
    )

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["total_cents"] = _cents(
            df["l_extendedprice"].to_numpy() * (1.0 - df["l_discount"].to_numpy())
        )
        g = (
            df.groupby("l_suppkey", sort=False)["total_cents"]
            .sum()
            .reset_index()
        )
        return _from_pandas(g)

    agg = hash_aggregate(
        li.map_batches(partial, batch_format="pyarrow"),
        ["l_suppkey"],
        lambda df: df.groupby("l_suppkey", sort=False)["total_cents"]
        .sum()
        .reset_index(),
    )

    def block_max(t: pa.Table) -> pa.Table:
        col = t["total_cents"].to_numpy()
        if len(col) == 0:
            return pa.table({"m": pa.array([], pa.int64())})
        return pa.table({"m": pa.array([int(col.max())], pa.int64())})

    maxima = agg.map_batches(block_max, batch_format="pyarrow").to_pandas()
    if maxima.empty:
        return _typed_empty(["s_suppkey", "s_name", "total_cents"])
    best = np.int64(maxima["m"].max())

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["total_cents"], pa.scalar(int(best))))

    winners = agg.map_batches(pick, batch_format="pyarrow").to_pandas()
    s_name = dim_lookup(
        papq.read_table(
            os.path.join(sf_dir, "supplier.parquet"),
            columns=["s_suppkey", "s_name"],
        ),
        "s_suppkey",
        "s_name",
    )
    winners = winners.rename(columns={"l_suppkey": "s_suppkey"})
    winners["s_name"] = winners["s_suppkey"].map(s_name)
    winners["total_cents"] = winners["total_cents"].astype(np.int64)
    return collect_sorted(
        winners[["s_suppkey", "s_name", "total_cents"]], ["s_suppkey"]
    )


SQL_TOP_SUPPLIER = """
WITH r AS (
  SELECT l_suppkey,
         CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS total_cents
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1997-01-01'
    AND l_shipdate < TIMESTAMP '1997-04-01'
  GROUP BY l_suppkey
)
SELECT s_suppkey, s_name, total_cents
FROM r JOIN supplier ON s_suppkey = l_suppkey
WHERE total_cents = (SELECT MAX(total_cents) FROM r)
ORDER BY s_suppkey
"""


# ---------------------------------------------------------------------------
# Q: nation_pair_volume — TPC-H Q7 shape (shipping volume between two
# nations by year).  Two-sided dimension decoration: the SUPPLIER
# nation rides a dense suppkey-indexed broadcast array applied at the
# lineitem scan (rows outside the two nations never leave the map),
# while the CUSTOMER nation — whose table scales with the corpus and
# must NOT be broadcast — arrives through an orderkey then custkey
# keyed exchange, each join collapsing to (nation, nation, year)
# partials inside its bucket.
# ---------------------------------------------------------------------------
def q_nation_pair_volume(sf_dir: str):
    import datetime as _dt

    import pyarrow.dataset as pads
    import pyarrow.parquet as papq

    from pynomaly_ray.functions.exchange import hash_join
    from pynomaly_ray.sources.parquet import read_parquet_clean

    NK_A, NK_B = 3, 7  # NATION_3 / NATION_7
    supp = papq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    if supp.num_rows > 2_000_000:
        raise ValueError(
            "nation_pair_volume: supplier too large to broadcast; decorate "
            "the supplier nation through a suppkey hash_join instead"
        )
    sk = supp["s_suppkey"].to_numpy()
    supp_nk = np.full(int(sk.max()) + 1, -1, dtype=np.int64)
    supp_nk[sk] = supp["s_nationkey"].to_numpy()

    nat = papq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    n_name = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1998, 1, 1)
    li_path = os.path.join(sf_dir, "lineitem.parquet")
    rows = papq.read_metadata(li_path).num_rows
    li = read_parquet_clean(
        li_path,
        columns=[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
        override_num_blocks=max(1, min(64, rows // _ROWS_PER_BLOCK + 1)),
    )

    def li_slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        nk = supp_nk[df["l_suppkey"].to_numpy()]
        keep = (nk == NK_A) | (nk == NK_B)
        df = df.loc[keep]
        return _from_pandas(
            pd.DataFrame(
                {
                    "l_orderkey": df["l_orderkey"].to_numpy(),
                    "supp_nk": nk[keep],
                    "l_year": df["l_shipdate"].dt.year.to_numpy(np.int64),
                    "rev": _cents(
                        df["l_extendedprice"].to_numpy()
                        * (1.0 - df["l_discount"].to_numpy())
                    ),
                }
            )
        )

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )

    def collapse1(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["o_custkey", "supp_nk", "l_year"], sort=False)["rev"]
            .sum()
            .reset_index()
        )

    stage1 = hash_join(
        li.map_batches(li_slim, batch_format="pyarrow"),
        orders,
        ["l_orderkey"],
        merge_fn=collapse1,
    )

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def cust_slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        keep = df["c_nationkey"].isin([NK_A, NK_B]).to_numpy()
        return _from_pandas(
            pd.DataFrame(
                {
                    "o_custkey": df["c_custkey"].to_numpy()[keep],
                    "cust_nk": df["c_nationkey"].to_numpy()[keep],
                }
            )
        )

    def collapse2(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["supp_nk"].to_numpy() != df["cust_nk"].to_numpy()]
        return (
            df.groupby(["supp_nk", "cust_nk", "l_year"], sort=False)["rev"]
            .sum()
            .reset_index()
        )

    stage2 = hash_join(
        stage1,
        cust.map_batches(cust_slim, batch_format="pyarrow"),
        ["o_custkey"],
        merge_fn=collapse2,
    )
    out = hash_aggregate(
        stage2,
        ["supp_nk", "cust_nk", "l_year"],
        lambda df: df.groupby(["supp_nk", "cust_nk", "l_year"], sort=False)["rev"]
        .sum()
        .reset_index(),
    )
    df = out.to_pandas()
    if not len(df) or "supp_nk" not in df.columns:
        return _typed_empty(["supp_nation", "cust_nation", "l_year", "rev_cents"])
    res = pd.DataFrame(
        {
            "supp_nation": df["supp_nk"].map(n_name),
            "cust_nation": df["cust_nk"].map(n_name),
            "l_year": df["l_year"].astype(np.int64),
            "rev_cents": df["rev"].astype(np.int64),
        }
    )
    return collect_sorted(res, ["supp_nation", "cust_nation", "l_year"])


SQL_NATION_PAIR_VOLUME = """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS rev_cents
FROM supplier, lineitem, orders, customer, nation n1, nation n2
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
  AND c_custkey = o_custkey
  AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
  AND ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_7')
    OR (n1.n_name = 'NATION_7' AND n2.n_name = 'NATION_3'))
  AND l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
GROUP BY 1, 2, 3
ORDER BY 1, 2, 3
"""


ORACLE_QUERIES.update(
    {
        "lonely_late_supplier": (q_lonely_late_supplier, SQL_LONELY_LATE_SUPPLIER),
        "disjunctive_revenue": (q_disjunctive_revenue, SQL_DISJUNCTIVE_REVENUE),
        "top_supplier": (q_top_supplier, SQL_TOP_SUPPLIER),
        "nation_pair_volume": (q_nation_pair_volume, SQL_NATION_PAIR_VOLUME),
    }
)


# ---------------------------------------------------------------------------
# Q: lineitem_skyline — Pareto front (skyline) over the FACT table:
# lineitems not dominated on (price low, quantity high).  The classic
# distributed-skyline decomposition: a vectorized local front per block
# (sort by price, per-price max, strict-lower-price running max) — any
# globally dominated row is already dominated inside its own block's
# front, so the union of local fronts contains exactly the global
# front's superset — then the same kernel once more over the tiny
# candidate union.  No self-join, no shuffle; candidate volume is
# O(front) per block.  Comparisons run on integer cents both sides.
# ---------------------------------------------------------------------------
def _pareto_front(df: pd.DataFrame) -> pd.DataFrame:
    """Rows not dominated on (price_cents minimize, qty maximize).
    Dominance: b dominates a iff b.price<=a.price and b.qty>=a.qty with
    at least one strict; equal-(price,qty) rows all survive."""
    df = df.sort_values(
        ["price_cents", "qty"], ascending=[True, False], kind="mergesort"
    )
    price = df["price_cents"].to_numpy()
    qty = df["qty"].to_numpy()
    if len(df) == 0:
        return df
    new_g = np.r_[True, price[1:] != price[:-1]]
    gidx = np.cumsum(new_g) - 1
    gmax = qty[new_g]  # per-price max (first row of each price group)
    prev = np.r_[np.iinfo(np.int64).min, np.maximum.accumulate(gmax)[:-1]]
    keep = (qty == gmax[gidx]) & (qty > prev[gidx])
    return df[keep]


def q_lineitem_skyline(sf_dir: str):
    li = _pq(
        sf_dir, "lineitem",
        ["l_orderkey", "l_linenumber", "l_extendedprice", "l_quantity"],
    )

    def local_front(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "l_orderkey": t["l_orderkey"].to_numpy(),
                "l_linenumber": t["l_linenumber"].to_numpy(),
                "price_cents": _cents(t["l_extendedprice"].to_numpy()),
                "qty": t["l_quantity"].to_numpy().astype(np.int64),
            }
        )
        return _from_pandas(_pareto_front(df))

    cands = li.map_batches(local_front, batch_format="pyarrow").to_pandas()
    if not len(cands) or "price_cents" not in cands.columns:
        return _typed_empty(
            ["l_orderkey", "l_linenumber", "price_cents", "qty"]
        )
    front = _pareto_front(cands)
    front = front[["l_orderkey", "l_linenumber", "price_cents", "qty"]]
    return collect_sorted(front, ["l_orderkey", "l_linenumber"])


SQL_LINEITEM_SKYLINE = """
WITH t AS (
  SELECT l_orderkey, l_linenumber,
         CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS price_cents,
         CAST(l_quantity AS BIGINT) AS qty
  FROM lineitem
),
g AS (
  SELECT *,
         MAX(qty) OVER (PARTITION BY price_cents) AS gmax,
         MAX(qty) OVER (ORDER BY price_cents
                        RANGE BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
             AS prev
  FROM t
)
SELECT l_orderkey, l_linenumber, price_cents, qty
FROM g
WHERE qty = gmax AND (prev IS NULL OR qty > prev)
ORDER BY l_orderkey, l_linenumber
"""


# ---------------------------------------------------------------------------
# Q: peak_concurrency — max number of simultaneously open 30-minute
# view windows, the sweep-line shape (peak concurrent sessions /
# connections).  Start/end deltas are pre-aggregated into UNIQUE
# (time, delta) keys by one keyed exchange (so no tie group can span a
# range boundary), range_sort orders the keys globally, each ordered
# block reduces to ONE (min_key, rows, total, local_peak) summary row,
# and the driver combines #blocks rows with an exclusive prefix sum —
# the global running count never materializes anywhere.  Key encoding
# t*2+(end:0|start:1) reproduces SQL's ORDER BY t, d (ends close
# before starts open at the same instant; windows are half-open).
# ---------------------------------------------------------------------------
def q_peak_concurrency(sf_dir: str):
    from pynomaly_ray.functions.exchange import range_sort

    ev = _pq(sf_dir, "events", ["ts", "event_type"])
    WIN_US = 30 * 60 * 1_000_000

    def pts(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        s = df.loc[df["event_type"] == "view", "ts"].astype("int64").to_numpy()
        key = np.concatenate([s * 2 + 1, (s + WIN_US) * 2])
        d = np.concatenate(
            [np.ones(len(s), np.int64), -np.ones(len(s), np.int64)]
        )
        g = (
            pd.DataFrame({"key": key, "d": d})
            .groupby("key", sort=False)["d"]
            .sum()
            .reset_index(name="dd")
        )
        return _from_pandas(g)

    grouped = hash_aggregate(
        ev.map_batches(pts, batch_format="pyarrow"),
        ["key"],
        lambda df: df.groupby("key", sort=False)["dd"].sum().reset_index(),
    )
    s = range_sort(grouped, "key", num_partitions=8)

    def summary(t: pa.Table) -> pa.Table:
        k = t["key"].to_numpy()
        dd = t["dd"].to_numpy()
        if len(k) == 0:
            return pa.table(
                {
                    "min_key": pa.array([], pa.int64()),
                    "rows": pa.array([], pa.int64()),
                    "total": pa.array([], pa.int64()),
                    "local_peak": pa.array([], pa.int64()),
                }
            )
        c = np.cumsum(dd)
        return pa.table(
            {
                "min_key": pa.array([int(k[0])], pa.int64()),
                "rows": pa.array([len(k)], pa.int64()),
                "total": pa.array([int(c[-1])], pa.int64()),
                "local_peak": pa.array([int(c.max())], pa.int64()),
            }
        )

    summ = s.map_batches(summary, batch_format="pyarrow").to_pandas()
    # zero view events: Ray skips map fns on 0-row blocks, so the empty
    # summary frame can arrive COLUMNLESS — check before touching min_key
    if summ.empty or "min_key" not in summ.columns:
        return pd.DataFrame(
            {
                "peak": np.array([0], dtype=np.int64),
                "n_keys": np.array([0], dtype=np.int64),
            }
        )  # 1-row zero record, not an empty: the peak of nothing is 0
    summ = summ.sort_values("min_key")  # block order == key order
    off = summ["total"].cumsum().shift(1, fill_value=0).to_numpy()
    peak = np.int64((summ["local_peak"].to_numpy() + off).max())
    return pd.DataFrame(
        {"peak": [peak], "n_keys": [np.int64(summ["rows"].sum())]}
    )


SQL_PEAK_CONCURRENCY = """
WITH v AS (SELECT ts FROM events WHERE event_type = 'view'),
pts AS (
  SELECT ts AS t, 1 AS d FROM v
  UNION ALL
  SELECT ts + INTERVAL 30 MINUTE AS t, -1 AS d FROM v
),
g AS (SELECT t, d, SUM(d) AS dd FROM pts GROUP BY t, d),
c AS (SELECT SUM(dd) OVER (ORDER BY t, d) AS conc FROM g)
SELECT CAST(MAX(conc) AS BIGINT) AS peak,
       CAST((SELECT COUNT(*) FROM g) AS BIGINT) AS n_keys
FROM c
"""


ORACLE_QUERIES.update(
    {
        "lineitem_skyline": (q_lineitem_skyline, SQL_LINEITEM_SKYLINE),
        "peak_concurrency": (q_peak_concurrency, SQL_PEAK_CONCURRENCY),
    }
)


# ---------------------------------------------------------------------------
# Q: hourly_gap_fill — dense time-spine zero-fill + centered 3-hour
# window (the ops/monitoring shape: a moving window over a series WITH
# its silent hours, which a plain groupby can never produce).  Hour
# counts reduce through one keyed exchange; the dense spine is
# TIME-bounded, not data-bounded (hours in range, independent of
# corpus size), so reindex + window run on the driver over a result
# whose size a 100-TB corpus cannot grow.  Window stays integer:
# (sum3, n3), never a float average.
# ---------------------------------------------------------------------------
def q_hourly_gap_fill(sf_dir: str):
    ev = _pq(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        h = (
            df.loc[df["event_type"] == "click", "ts"].astype("int64")
            // 3_600_000_000
        )
        g = h.value_counts().rename_axis("hour").reset_index(name="cnt")
        return _from_pandas(g)

    agg = hash_aggregate(
        ev.map_batches(partial, batch_format="pyarrow"),
        ["hour"],
        lambda df: df.groupby("hour", sort=False)["cnt"].sum().reset_index(),
    )
    df = agg.to_pandas()
    if df.empty:
        return _typed_empty(["hour", "cnt", "sum3", "n3"])
    spine = np.arange(df["hour"].min(), df["hour"].max() + 1, dtype=np.int64)
    cnt = (
        df.set_index("hour")["cnt"]
        .reindex(spine, fill_value=0)
        .to_numpy(np.int64)
    )
    c = np.r_[np.int64(0), np.cumsum(cnt)]
    n = len(cnt)
    lo = np.maximum(np.arange(n) - 1, 0)
    hi = np.minimum(np.arange(n) + 2, n)
    return pd.DataFrame(
        {
            "hour": spine,
            "cnt": cnt,
            "sum3": (c[hi] - c[lo]).astype(np.int64),
            "n3": (hi - lo).astype(np.int64),
        }
    )


SQL_HOURLY_GAP_FILL = """
WITH h AS (
  SELECT CAST(FLOOR(epoch_us(ts) / 3600000000) AS BIGINT) AS hour,
         COUNT(*) AS cnt
  FROM events WHERE event_type = 'click' GROUP BY 1
),
spine AS (
  SELECT UNNEST(generate_series((SELECT MIN(hour) FROM h),
                                (SELECT MAX(hour) FROM h))) AS hour
),
f AS (
  SELECT s.hour, COALESCE(h.cnt, 0) AS cnt
  FROM spine s LEFT JOIN h ON h.hour = s.hour
)
SELECT hour, CAST(cnt AS BIGINT) AS cnt,
       CAST(SUM(cnt) OVER (ORDER BY hour
                           ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)
            AS BIGINT) AS sum3,
       CAST(COUNT(*) OVER (ORDER BY hour
                           ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)
            AS BIGINT) AS n3
FROM f ORDER BY hour
"""


# ---------------------------------------------------------------------------
# Q: attribution_last_touch — per purchase, the LAST click by the same
# user within a 2-hour lookback (streaming ad-attribution shape).  One
# user-keyed asof_join (backward, exact-match allowed) finds the latest
# click <= purchase time; the window constraint is a vectorized
# post-filter — the latest click either IS the in-window maximum or no
# in-window click exists, so asof + filter equals the windowed MAX
# aggregate exactly.  Emitting the matched TIME (not a click id) keeps
# the result tie-insensitive when several clicks share a timestamp.
# ---------------------------------------------------------------------------
def q_attribution_last_touch(sf_dir: str):
    from pynomaly_ray.functions.exchange import asof_join

    ev = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    LOOKBACK_US = 2 * 3600 * 1_000_000

    def purchases(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["event_type"] == "purchase"]
        return _from_pandas(
            pd.DataFrame(
                {
                    "user_id": df["user_id"].to_numpy(),
                    "event_id": df["event_id"].to_numpy(),
                    "p_us": df["ts"].astype("int64").to_numpy(),
                }
            )
        )

    def clicks(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["event_type"] == "click"]
        return _from_pandas(
            pd.DataFrame(
                {
                    "user_id": df["user_id"].to_numpy(),
                    "c_us": df["ts"].astype("int64").to_numpy(),
                }
            )
        )

    joined = asof_join(
        ev.map_batches(purchases, batch_format="pyarrow"),
        ev.map_batches(clicks, batch_format="pyarrow"),
        by="user_id",
        left_on="p_us",
        right_on="c_us",
    )

    def window(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        keep = df["c_us"].to_numpy() > df["p_us"].to_numpy() - LOOKBACK_US
        df = df.loc[keep]
        return _from_pandas(
            pd.DataFrame(
                {
                    "event_id": df["event_id"].to_numpy(np.int64),
                    "user_id": df["user_id"].to_numpy(np.int64),
                    "click_us": df["c_us"].to_numpy(np.int64),
                }
            )
        )

    out = joined.map_batches(window, batch_format="pyarrow")
    return collect_sorted(out, ["event_id"])


SQL_ATTRIBUTION_LAST_TOUCH = """
WITH c AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
p AS (SELECT user_id, event_id, ts FROM events WHERE event_type = 'purchase')
SELECT p.event_id, p.user_id,
       CAST(epoch_us(MAX(c.ts)) AS BIGINT) AS click_us
FROM p JOIN c ON c.user_id = p.user_id
              AND c.ts <= p.ts AND c.ts > p.ts - INTERVAL 2 HOUR
GROUP BY p.event_id, p.user_id
ORDER BY p.event_id
"""


ORACLE_QUERIES.update(
    {
        "hourly_gap_fill": (q_hourly_gap_fill, SQL_HOURLY_GAP_FILL),
        "attribution_last_touch": (
            q_attribution_last_touch,
            SQL_ATTRIBUTION_LAST_TOUCH,
        ),
    }
)


# ---------------------------------------------------------------------------
# Q: bucketed_segment_counts — join through the PERSISTED sort-merge-
# bucket layout (sources/bucketed.py): orders and customer are each
# written once into custkey-hash bucket directories, then the join runs
# ONE task per bucket over bucket-aligned files with zero shuffle —
# the repeated-join path a 100-TB pipeline takes when the same key is
# joined on across many jobs.  The per-bucket merge collapses straight
# to per-segment partials, so the join output never materializes.
# ---------------------------------------------------------------------------
def q_bucketed_segment_counts(sf_dir: str):
    import shutil
    import tempfile

    from pynomaly_ray.sources.bucketed import bucketed_join, write_bucketed

    root = tempfile.mkdtemp(prefix="pnr-smb-", dir="/tmp")
    try:
        orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

        def ord_slim(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "o_custkey": t["o_custkey"],
                    "cents": pa.array(
                        _cents(t["o_totalprice"].to_numpy()), pa.int64()
                    ),
                }
            )

        cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        write_bucketed(
            orders.map_batches(ord_slim, batch_format="pyarrow"),
            ["o_custkey"],
            8,
            os.path.join(root, "orders"),
        )
        write_bucketed(
            cust, ["c_custkey"], 8, os.path.join(root, "customer")
        )

        def per_segment(df: pd.DataFrame) -> pd.DataFrame:
            return (
                df.groupby("c_mktsegment", sort=False)
                .agg(n_orders=("cents", "size"), sum_cents=("cents", "sum"))
                .reset_index()
            )

        joined = bucketed_join(
            os.path.join(root, "orders"),
            os.path.join(root, "customer"),
            merge_fn=per_segment,
        )
        out = hash_aggregate(
            joined,
            ["c_mktsegment"],
            lambda df: df.groupby("c_mktsegment", sort=False)
            .sum()
            .reset_index(),
        )
        df = out.to_pandas()
        df["n_orders"] = df["n_orders"].astype(np.int64)
        df["sum_cents"] = df["sum_cents"].astype(np.int64)
        return collect_sorted(df, ["c_mktsegment"])
    finally:
        shutil.rmtree(root, ignore_errors=True)


SQL_BUCKETED_SEGMENT_COUNTS = """
SELECT c_mktsegment,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
ORDER BY c_mktsegment
"""


ORACLE_QUERIES["bucketed_segment_counts"] = (
    q_bucketed_segment_counts,
    SQL_BUCKETED_SEGMENT_COUNTS,
)


# ---------------------------------------------------------------------------
# Q: bag_difference — EXCEPT ALL with multiplicities (bag semantics):
# occurrences of each user in 'click' events minus occurrences in
# 'error' events, keeping users with positive remainder.  Pure count
# arithmetic: map-side per-(user,type) partials, ONE user-keyed
# exchange merges both sides, and the bag difference is a vectorized
# subtraction inside the reducer — the row-explosion EXCEPT ALL would
# imply never exists anywhere.
# ---------------------------------------------------------------------------
def q_bag_difference(sf_dir: str):
    ev = _pq(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["event_type"].isin(["click", "error"])]
        g = (
            df.groupby(["user_id", "event_type"], sort=False)
            .size()
            .reset_index(name="c")
        )
        pos = g["event_type"].to_numpy() == "click"
        return _from_pandas(
            pd.DataFrame(
                {
                    "user_id": g["user_id"].to_numpy(),
                    "clicks": np.where(pos, g["c"].to_numpy(), 0),
                    "errors": np.where(pos, 0, g["c"].to_numpy()),
                }
            )
        )

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", sort=False).sum().reset_index()
        g["mult"] = g["clicks"].to_numpy() - g["errors"].to_numpy()
        g = g[(g["mult"] > 0) & (g["clicks"] > 0)]
        return g[["user_id", "mult"]]

    out = hash_aggregate(
        ev.map_batches(partial, batch_format="pyarrow"), ["user_id"], diff
    )
    df = out.to_pandas()
    if not len(df) or "mult" not in df.columns:
        return _typed_empty(["user_id", "mult"])
    df["mult"] = df["mult"].astype(np.int64)
    return collect_sorted(df, ["user_id"])


SQL_BAG_DIFFERENCE = """
WITH l AS (SELECT user_id, COUNT(*) AS c FROM events
           WHERE event_type = 'click' GROUP BY 1),
r AS (SELECT user_id, COUNT(*) AS c FROM events
      WHERE event_type = 'error' GROUP BY 1)
SELECT l.user_id, CAST(l.c - COALESCE(r.c, 0) AS BIGINT) AS mult
FROM l LEFT JOIN r USING (user_id)
WHERE l.c - COALESCE(r.c, 0) > 0
ORDER BY l.user_id
"""


# ---------------------------------------------------------------------------
# Q: top_values_with_ties — per-group top-2 by DENSE_RANK over a coarse
# value band, ALL tied rows kept (WITH TIES semantics: result size is
# data-dependent, unlike row_number top-k).  Map-side pre-filter: a
# block can only contribute rows in its own top-2 bands, so the
# exchange moves a band-bounded subset; the reducer re-ranks exactly.
# ---------------------------------------------------------------------------
def q_top_values_with_ties(sf_dir: str):
    ev = _pq(sf_dir, "events", ["event_id", "event_type", "value"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["band"] = np.floor(df["value"].to_numpy() / 100.0).astype(np.int64)
        # local top-2 DISTINCT bands per type bound what the exchange
        # moves (any row in the global top-2 bands survives: two higher
        # distinct bands in its own block would imply global rank >= 3)
        top2 = (
            df.groupby("event_type", sort=False)["band"]
            .apply(
                lambda s: s.drop_duplicates().nlargest(2).min()
                if len(s)
                else 0
            )
            .rename("cut")
        )
        df = df.join(top2, on="event_type")
        df = df[df["band"] >= df["cut"]]
        return _from_pandas(df[["event_id", "event_type", "band"]])

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        r = df.groupby("event_type", sort=False)["band"].rank(
            method="dense", ascending=False
        )
        return df[r <= 2]

    out = hash_aggregate(
        ev.map_batches(pre, batch_format="pyarrow"), ["event_type"], rank
    )
    df = out.to_pandas()
    if not len(df) or "band" not in df.columns:
        return _typed_empty(["event_type", "event_id", "band"])
    df["band"] = df["band"].astype(np.int64)
    return collect_sorted(
        df[["event_type", "event_id", "band"]], ["event_type", "event_id"]
    )


SQL_TOP_VALUES_WITH_TIES = """
SELECT event_type, event_id, band FROM (
  SELECT event_type, event_id,
         CAST(FLOOR(value / 100) AS BIGINT) AS band,
         DENSE_RANK() OVER (PARTITION BY event_type
                            ORDER BY CAST(FLOOR(value / 100) AS BIGINT) DESC)
             AS rk
  FROM events)
WHERE rk <= 2
ORDER BY event_type, event_id
"""


ORACLE_QUERIES.update(
    {
        "bag_difference": (q_bag_difference, SQL_BAG_DIFFERENCE),
        "top_values_with_ties": (
            q_top_values_with_ties,
            SQL_TOP_VALUES_WITH_TIES,
        ),
    }
)


# ---------------------------------------------------------------------------
# Q: event_pattern_matches — CEP / MATCH_RECOGNIZE shape: count
# click->(view|error)*->purchase pattern occurrences in each user's
# time-ordered event sequence.  One user-keyed exchange co-locates each
# user's history; the reducer sorts the bucket ONCE (whole-bucket
# lexsort, not per user), slices each user's initials out of a single
# contiguous bytes buffer, and runs ONE precompiled regex per user —
# per-user work is the operator's semantics (a pattern over an ordered
# sequence), not an avoidable row loop.  Pattern class excludes the
# terminator, so greedy (Python re) and RE2 (DuckDB) agree exactly.
# ---------------------------------------------------------------------------
def q_event_pattern_matches(sf_dir: str):
    import re as _re

    ev = _pq(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return _from_pandas(
            pd.DataFrame(
                {
                    "user_id": df["user_id"].to_numpy(),
                    "ts_us": df["ts"].astype("int64").to_numpy(),
                    "event_id": df["event_id"].to_numpy(),
                    "i": df["event_type"].str.slice(0, 1),
                }
            )
        )

    pat = _re.compile(rb"c[ve]*p")

    def match(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        u = df["user_id"].to_numpy()
        buf = "".join(df["i"]).encode("ascii")  # one contiguous bytes
        new = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(u)]
        users, matches, counts = [], [], []
        for s, e in zip(starts, ends):
            m = len(pat.findall(buf[s:e]))
            if m:
                users.append(u[s])
                matches.append(m)
                counts.append(e - s)
        return pd.DataFrame(
            {
                "user_id": np.array(users, dtype=np.int64),
                "n_matches": np.array(matches, dtype=np.int64),
                "n_events": np.array(counts, dtype=np.int64),
            }
        )

    out = hash_aggregate(
        ev.map_batches(pre, batch_format="pyarrow"), ["user_id"], match
    )
    return collect_sorted(out, ["user_id"])


SQL_EVENT_PATTERN_MATCHES = """
WITH o AS (
  SELECT user_id, substr(event_type, 1, 1) AS i, ts, event_id FROM events
),
s AS (
  SELECT user_id, string_agg(i, '' ORDER BY ts, event_id) AS seq,
         COUNT(*) AS n_events
  FROM o GROUP BY user_id
)
SELECT user_id,
       CAST(len(regexp_extract_all(seq, 'c[ve]*p')) AS BIGINT) AS n_matches,
       CAST(n_events AS BIGINT) AS n_events
FROM s WHERE len(regexp_extract_all(seq, 'c[ve]*p')) > 0
ORDER BY user_id
"""


ORACLE_QUERIES["event_pattern_matches"] = (
    q_event_pattern_matches,
    SQL_EVENT_PATTERN_MATCHES,
)


# ---------------------------------------------------------------------------
# Q: cheapest_supplier_per_part — TPC-H Q2 shape (min-cost supplier
# correlated subquery): for every part, the cheapest region-1 shipment
# and the smallest supplier key achieving it.  Two-level argmin with a
# deterministic tiebreak chain: each block lexsorts (part, price, supp)
# and keeps first-per-part, ONE partkey-keyed exchange repeats the same
# reduction — the MIN-equality join never happens; no task sees more
# than its bucket.  Region membership rides a dense suppkey-indexed
# broadcast, so out-of-region rows die at the scan.
# ---------------------------------------------------------------------------
def q_cheapest_supplier_per_part(sf_dir: str):
    import pyarrow.parquet as papq

    supp = papq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    nat = papq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    )
    region_of = dict(
        zip(nat["n_nationkey"].to_pylist(), nat["n_regionkey"].to_pylist())
    )
    sk = supp["s_suppkey"].to_numpy()
    in_region = np.zeros(int(sk.max()) + 1, dtype=bool)
    in_region[sk] = (
        np.array([region_of[n] for n in supp["s_nationkey"].to_pylist()]) == 1
    )

    li = _pq(
        sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"]
    )

    def argmin_rows(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["l_partkey", "best_cents", "s_suppkey"], kind="mergesort"
        )
        first = np.r_[
            True,
            df["l_partkey"].to_numpy()[1:] != df["l_partkey"].to_numpy()[:-1],
        ]
        return df[first]

    def block_min(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "l_partkey": t["l_partkey"].to_numpy(),
                "s_suppkey": t["l_suppkey"].to_numpy(),
                "best_cents": _cents(t["l_extendedprice"].to_numpy()),
            }
        )
        df = df[in_region[df["s_suppkey"].to_numpy()]]
        return _from_pandas(argmin_rows(df))

    out = hash_aggregate(
        li.map_batches(block_min, batch_format="pyarrow"),
        ["l_partkey"],
        argmin_rows,
    )
    df = out.to_pandas()
    if not len(df) or "l_partkey" not in df.columns:
        return _typed_empty(["l_partkey", "s_suppkey", "best_cents"])
    for c in df.columns:
        df[c] = df[c].astype(np.int64)
    return collect_sorted(
        df[["l_partkey", "s_suppkey", "best_cents"]], ["l_partkey"]
    )


SQL_CHEAPEST_SUPPLIER_PER_PART = """
WITH li AS (
  SELECT l_partkey,
         l_suppkey,
         CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS price_cents
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey
  WHERE n_regionkey = 1
),
m AS (SELECT l_partkey, MIN(price_cents) AS best_cents FROM li GROUP BY 1)
SELECT li.l_partkey,
       CAST(MIN(li.l_suppkey) AS BIGINT) AS s_suppkey,
       m.best_cents
FROM li JOIN m ON li.l_partkey = m.l_partkey
             AND li.price_cents = m.best_cents
GROUP BY li.l_partkey, m.best_cents
ORDER BY li.l_partkey
"""


# ---------------------------------------------------------------------------
# Q: schema_evolution_union — UNION ALL BY NAME across two snapshots
# with DIFFERENT column sets (the lake schema-evolution shape: an old
# partition lacks a column added later).  Each read maps to the
# superset schema (absent column null/sentinel-filled) before
# Dataset.union, and the unioned stream aggregates per priority —
# proving downstream operators are insensitive to which snapshot a row
# came from.
# ---------------------------------------------------------------------------
def q_schema_evolution_union(sf_dir: str):
    old = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    new = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def old_shape(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["o_orderkey"].to_numpy() % 2 == 0]
        return _from_pandas(
            pd.DataFrame(
                {
                    "priority": np.full(len(df), "legacy", dtype=object),
                    "cents": _cents(df["o_totalprice"].to_numpy()),
                }
            )
        )

    def new_shape(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["o_orderkey"].to_numpy() % 2 == 1]
        return _from_pandas(
            pd.DataFrame(
                {
                    "priority": df["o_orderpriority"].to_numpy(),
                    "cents": np.zeros(len(df), dtype=np.int64),
                }
            )
        )

    unioned = old.map_batches(old_shape, batch_format="pyarrow").union(
        new.map_batches(new_shape, batch_format="pyarrow")
    )

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (
            df.groupby("priority", sort=False)
            .agg(n=("cents", "size"), sum_cents=("cents", "sum"))
            .reset_index()
        )
        return _from_pandas(g)

    out = hash_aggregate(
        unioned.map_batches(partial, batch_format="pyarrow"),
        ["priority"],
        lambda df: df.groupby("priority", sort=False).sum().reset_index(),
    )
    df = out.to_pandas()
    if not len(df) or "n" not in df.columns:
        return _typed_empty(["priority", "n", "sum_cents"])
    df["n"] = df["n"].astype(np.int64)
    df["sum_cents"] = df["sum_cents"].astype(np.int64)
    return collect_sorted(df, ["priority"])


SQL_SCHEMA_EVOLUTION_UNION = """
WITH u AS (
  SELECT 'legacy' AS priority,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders WHERE o_orderkey % 2 = 0
  UNION ALL
  SELECT o_orderpriority AS priority, 0 AS cents
  FROM orders WHERE o_orderkey % 2 = 1
)
SELECT priority, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(cents) AS BIGINT) AS sum_cents
FROM u GROUP BY priority ORDER BY priority
"""


ORACLE_QUERIES.update(
    {
        "cheapest_supplier_per_part": (
            q_cheapest_supplier_per_part,
            SQL_CHEAPEST_SUPPLIER_PER_PART,
        ),
        "schema_evolution_union": (
            q_schema_evolution_union,
            SQL_SCHEMA_EVOLUTION_UNION,
        ),
    }
)


# ---------------------------------------------------------------------------
# Q: promo_revenue_share — TPC-H Q14 shape (promotion revenue share)
# per shipping year, kept EXACT: the numerator (PROMO-part revenue) and
# denominator (all revenue) ship as integer-cents partials — the ratio
# is the caller's one float, never the engine's.  Part type rides the
# same dense partkey-indexed broadcast as disjunctive_revenue; one
# (year, promo_cents, total_cents) partial row per batch, tiny final
# exchange on year.
# ---------------------------------------------------------------------------
def q_promo_revenue_share(sf_dir: str):
    import pyarrow.parquet as papq

    part = papq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )
    pk = part["p_partkey"].to_numpy()
    is_promo = np.zeros(int(pk.max()) + 1, dtype=bool)
    is_promo[pk] = np.asarray(part["p_type"]) == "PROMO"

    li = _pq(
        sf_dir,
        "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        rev = _cents(
            df["l_extendedprice"].to_numpy()
            * (1.0 - df["l_discount"].to_numpy())
        )
        year = df["l_shipdate"].dt.year.to_numpy(np.int64)
        promo = is_promo[df["l_partkey"].to_numpy()]
        g = pd.DataFrame(
            {
                "l_year": year,
                "promo_cents": np.where(promo, rev, 0),
                "total_cents": rev,
            }
        )
        return _from_pandas(
            g.groupby("l_year", sort=False).sum().reset_index()
        )

    out = hash_aggregate(
        li.map_batches(partial, batch_format="pyarrow"),
        ["l_year"],
        lambda df: df.groupby("l_year", sort=False).sum().reset_index(),
    )
    df = out.to_pandas()
    if not len(df) or "l_year" not in df.columns:
        return _typed_empty(["l_year", "promo_cents", "total_cents"])
    for c in df.columns:
        df[c] = df[c].astype(np.int64)
    return collect_sorted(df, ["l_year"])


SQL_PROMO_REVENUE_SHARE = """
SELECT CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       CAST(SUM(CASE WHEN p_type = 'PROMO'
                THEN CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100
                                + 0.5) AS BIGINT)
                ELSE 0 END) AS BIGINT) AS promo_cents,
       CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS total_cents
FROM lineitem JOIN part ON p_partkey = l_partkey
GROUP BY 1 ORDER BY 1
"""


ORACLE_QUERIES["promo_revenue_share"] = (
    q_promo_revenue_share,
    SQL_PROMO_REVENUE_SHARE,
)


# ---------------------------------------------------------------------------
# Q: market_share — TPC-H Q8 shape (nation market share): NATION_3
# suppliers' share of STANDARD-part revenue sold to region-1 customers,
# per order year — kept exact as (nation_cents, total_cents) integer
# pairs.  Composition of the engine's two decoration modes: part-type
# and supplier-nation ride dense broadcasts at the scan (non-STANDARD
# rows die immediately), the customer region arrives through the
# orderkey -> custkey exchange chain, every join collapsing to
# (year, num, den) partials in its bucket.
# ---------------------------------------------------------------------------
def q_market_share(sf_dir: str):
    import pyarrow.parquet as papq

    from pynomaly_ray.functions.exchange import hash_join

    part = papq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )
    pk = part["p_partkey"].to_numpy()
    is_std = np.zeros(int(pk.max()) + 1, dtype=bool)
    is_std[pk] = np.asarray(part["p_type"]) == "STANDARD"

    supp = papq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    sk = supp["s_suppkey"].to_numpy()
    is_n3 = np.zeros(int(sk.max()) + 1, dtype=bool)
    is_n3[sk] = supp["s_nationkey"].to_numpy() == 3

    nat = papq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    )
    region_of = dict(
        zip(nat["n_nationkey"].to_pylist(), nat["n_regionkey"].to_pylist())
    )

    li = _pq(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def li_slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        keep = is_std[df["l_partkey"].to_numpy()]
        df = df.loc[keep]
        rev = _cents(
            df["l_extendedprice"].to_numpy()
            * (1.0 - df["l_discount"].to_numpy())
        )
        n3 = is_n3[df["l_suppkey"].to_numpy()]
        g = pd.DataFrame(
            {
                "l_orderkey": df["l_orderkey"].to_numpy(),
                "nation_cents": np.where(n3, rev, 0),
                "total_cents": rev,
            }
        )
        return _from_pandas(
            g.groupby("l_orderkey", sort=False).sum().reset_index()
        )

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return _from_pandas(
            pd.DataFrame(
                {
                    "l_orderkey": df["o_orderkey"].to_numpy(),
                    "o_custkey": df["o_custkey"].to_numpy(),
                    "o_year": df["o_orderdate"].dt.year.to_numpy(np.int64),
                }
            )
        )

    def collapse1(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["o_custkey", "o_year"], sort=False)[
                ["nation_cents", "total_cents"]
            ]
            .sum()
            .reset_index()
        )

    stage1 = hash_join(
        li.map_batches(li_slim, batch_format="pyarrow"),
        orders.map_batches(ord_slim, batch_format="pyarrow"),
        ["l_orderkey"],
        merge_fn=collapse1,
    )

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def cust_slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        reg = df["c_nationkey"].map(region_of).to_numpy()
        return _from_pandas(
            pd.DataFrame(
                {"o_custkey": df["c_custkey"].to_numpy()[reg == 1]}
            )
        )

    def collapse2(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("o_year", sort=False)[["nation_cents", "total_cents"]]
            .sum()
            .reset_index()
        )

    stage2 = hash_join(
        stage1,
        cust.map_batches(cust_slim, batch_format="pyarrow"),
        ["o_custkey"],
        merge_fn=collapse2,
    )
    out = hash_aggregate(
        stage2,
        ["o_year"],
        lambda df: df.groupby("o_year", sort=False).sum().reset_index(),
    )
    df = out.to_pandas()
    if not len(df) or "o_year" not in df.columns:
        return _typed_empty(["o_year", "nation_cents", "total_cents"])
    for c in df.columns:
        df[c] = df[c].astype(np.int64)
    return collect_sorted(df, ["o_year"])


SQL_MARKET_SHARE = """
SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
       CAST(SUM(CASE WHEN s_nationkey = 3
                THEN CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100
                                + 0.5) AS BIGINT)
                ELSE 0 END) AS BIGINT) AS nation_cents,
       CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS total_cents
FROM lineitem
JOIN part ON p_partkey = l_partkey AND p_type = 'STANDARD'
JOIN supplier ON s_suppkey = l_suppkey
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation cn ON cn.n_nationkey = c_nationkey AND cn.n_regionkey = 1
GROUP BY 1 ORDER BY 1
"""


ORACLE_QUERIES["market_share"] = (q_market_share, SQL_MARKET_SHARE)


# ---------------------------------------------------------------------------
# Q: zone_scan_revenue — range scan through the PERSISTED zone-mapped
# sorted layout (sources/sorted_layout.py): orders is range-sorted on
# o_orderdate once, then a one-year revenue-by-priority scan opens ONLY
# the files whose (min, max) date zone overlaps the year — the
# sort + data-skipping pattern a 100-TB time-ordered corpus lives on.
# The residual predicate is pushed into the parquet read, so the
# result is exactly the SQL range aggregate.
# ---------------------------------------------------------------------------
def q_zone_scan_revenue(sf_dir: str):
    import shutil
    import tempfile

    from pynomaly_ray.sources.sorted_layout import (
        write_sorted,
        zone_plan,
        zone_pruned_scan,
    )

    root = tempfile.mkdtemp(prefix="pnr-zone-", dir="/tmp")
    try:
        orders = _pq(
            sf_dir, "orders", ["o_orderdate", "o_orderpriority", "o_totalprice"]
        )
        lay = os.path.join(root, "orders_by_date")
        write_sorted(orders, "o_orderdate", lay, num_partitions=8)

        lo = pd.Timestamp("1996-01-01")
        hi = pd.Timestamp("1996-12-31 23:59:59.999999")
        # the layout must actually skip files for a 1-of-6+ years range
        # (zone pruning is the point; a no-op plan means the sort or the
        # zones are broken) — enforced here so the oracle run itself
        # certifies the pruning, not just the arithmetic
        m_files = len(zone_plan(lay, None, None))
        s_files = len(zone_plan(lay, lo, hi))
        if m_files >= 4 and s_files >= m_files:
            raise AssertionError(
                f"zone pruning ineffective: {s_files}/{m_files} files"
            )
        scanned = zone_pruned_scan(lay, lo, hi)

        def pre(t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            g = (
                df.assign(cents=_cents(df["o_totalprice"].to_numpy()))
                .groupby("o_orderpriority", sort=False)
                .agg(n_orders=("cents", "size"), sum_cents=("cents", "sum"))
                .reset_index()
            )
            return pa.Table.from_pandas(g, preserve_index=False)

        partials = scanned.map_batches(pre, batch_format="pyarrow")
        out = hash_aggregate(
            partials,
            ["o_orderpriority"],
            lambda df: df.groupby("o_orderpriority", sort=False)
            .sum()
            .reset_index(),
        )
        df = out.to_pandas()
        if not len(df) or "o_orderpriority" not in df.columns:
            return _typed_empty(["o_orderpriority", "n_orders", "sum_cents"])
        df["n_orders"] = df["n_orders"].astype(np.int64)
        df["sum_cents"] = df["sum_cents"].astype(np.int64)
        return collect_sorted(df, ["o_orderpriority"])
    finally:
        shutil.rmtree(root, ignore_errors=True)


SQL_ZONE_SCAN_REVENUE = """
SELECT o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <= TIMESTAMP '1996-12-31 23:59:59.999999'
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


ORACLE_QUERIES["zone_scan_revenue"] = (q_zone_scan_revenue, SQL_ZONE_SCAN_REVENUE)


# ---------------------------------------------------------------------------
# Q: prefix_jaccard_join — EXACT word-set-Jaccard similarity join via
# prefix filtering (AllPairs/PPJoin family): candidates form only in
# the buckets of each doc's RAREST tokens (prefix length
# s - ceil(t*s) + 1 under the global df order), so the hot common-token
# buckets never exist, yet the result is provably every pair with
# J >= 4/5 — the lossless counterpart of minhash_dedup, with exact
# integer (n_inter, n_union) evidence.  Restricted to doc_id % 20 == 0
# so the result (the corpus carries large planted near-dup families,
# whose exact join output is quadratic in family size) and the SQL
# twin's self-join stay oracle-sized; the engine path needs no such
# restriction.
# ---------------------------------------------------------------------------
def q_prefix_jaccard_join(sf_dir: str):
    from pynomaly_ray.stages.dedup import prefix_jaccard_pairs

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def keep5(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(ids % 20 == 0))

    sub = docs.map_batches(keep5, batch_format="pyarrow")
    out = prefix_jaccard_pairs(sub, num=4, den=5)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.reset_index(drop=True)


SQL_PREFIX_JACCARD_JOIN = r"""
WITH d AS (
  SELECT doc_id, text FROM documents WHERE doc_id % 20 = 0
),
tok AS (
  SELECT DISTINCT doc_id, t.tok
  FROM d, UNNEST(regexp_extract_all(text, '[^ \t\n\r\f\v]+')) AS t(tok)
),
sz AS (SELECT doc_id, COUNT(*) AS s FROM tok GROUP BY doc_id),
common AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS n_inter
  FROM tok a JOIN tok b ON a.tok = b.tok AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b, CAST(n_inter AS BIGINT) AS n_inter,
       CAST(sa.s + sb.s - n_inter AS BIGINT) AS n_union
FROM common
JOIN sz sa ON sa.doc_id = doc_a
JOIN sz sb ON sb.doc_id = doc_b
WHERE n_inter * 5 >= (sa.s + sb.s - n_inter) * 4
ORDER BY doc_a, doc_b
"""


ORACLE_QUERIES["prefix_jaccard_join"] = (
    q_prefix_jaccard_join,
    SQL_PREFIX_JACCARD_JOIN,
)


# ---------------------------------------------------------------------------
# Q: zone_scan_appended — the sorted layout's APPEND path through the
# oracle gate: a base generation (orders before 1998) plus an appended
# delta generation (1998 onward), then a range scan that CROSSES the
# generation boundary — zones from both generations must serve the
# range exactly.  The crawl-accumulation shape for time-keyed corpora:
# each increment pays one range_sort of the delta, never a rewrite.
# ---------------------------------------------------------------------------
def q_zone_scan_appended(sf_dir: str):
    import shutil
    import tempfile

    import pyarrow.dataset as pads

    from pynomaly_ray.sources.sorted_layout import append_sorted, write_sorted, zone_pruned_scan

    root = tempfile.mkdtemp(prefix="pnr-zoneapp-", dir="/tmp")
    try:
        cols = ["o_orderdate", "o_orderpriority", "o_totalprice"]
        split = pd.Timestamp("1998-01-01")
        base = _pq(
            sf_dir,
            "orders",
            cols,
            filter=pads.field("o_orderdate") < pa.scalar(split.to_pydatetime()),
        )
        delta = _pq(
            sf_dir,
            "orders",
            cols,
            filter=pads.field("o_orderdate") >= pa.scalar(split.to_pydatetime()),
        )
        lay = os.path.join(root, "orders_by_date")
        write_sorted(base, "o_orderdate", lay, num_partitions=6)
        append_sorted(delta, lay, num_partitions=3)

        lo = pd.Timestamp("1997-06-01")
        hi = pd.Timestamp("1998-06-30 23:59:59.999999")
        scanned = zone_pruned_scan(lay, lo, hi)

        def pre(t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            g = (
                df.assign(cents=_cents(df["o_totalprice"].to_numpy()))
                .groupby("o_orderpriority", sort=False)
                .agg(n_orders=("cents", "size"), sum_cents=("cents", "sum"))
                .reset_index()
            )
            return pa.Table.from_pandas(g, preserve_index=False)

        partials = scanned.map_batches(pre, batch_format="pyarrow")
        out = hash_aggregate(
            partials,
            ["o_orderpriority"],
            lambda df: df.groupby("o_orderpriority", sort=False)
            .sum()
            .reset_index(),
        )
        df = out.to_pandas()
        if not len(df) or "o_orderpriority" not in df.columns:
            return _typed_empty(["o_orderpriority", "n_orders", "sum_cents"])
        df["n_orders"] = df["n_orders"].astype(np.int64)
        df["sum_cents"] = df["sum_cents"].astype(np.int64)
        return collect_sorted(df, ["o_orderpriority"])
    finally:
        shutil.rmtree(root, ignore_errors=True)


SQL_ZONE_SCAN_APPENDED = """
SELECT o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM orders
WHERE o_orderdate >= TIMESTAMP '1997-06-01'
  AND o_orderdate <= TIMESTAMP '1998-06-30 23:59:59.999999'
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


ORACLE_QUERIES["zone_scan_appended"] = (
    q_zone_scan_appended,
    SQL_ZONE_SCAN_APPENDED,
)


# ---------------------------------------------------------------------------
# Q: daily_trend — per-event-type linear trend of daily volume, the
# regr_slope/regr_intercept family as EXACT integer sufficient
# statistics: slope = (n*Sxy - Sx*Sy) / (n*Sxx - Sx^2) is reported as
# its integer (numerator, denominator) pair, so the engine never emits
# a float and the reduction order cannot perturb the result.  Map-side
# (type, day) pre-aggregation bounds exchange rows at types x days per
# block; one type-keyed exchange folds exact day counts and the four
# sums.  Both num and den are invariant under x -> x - c, so the
# reducer shifts days by the per-type minimum before squaring —
# overflow headroom at 100-TB row counts — while the SQL twin uses raw
# epoch days; the integers still match exactly.
# ---------------------------------------------------------------------------
def q_daily_trend(sf_dir: str):
    ev = _pq(sf_dir, "events", ["event_type", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas().dropna(subset=["event_type", "ts"])
        day = df["ts"].to_numpy().astype("datetime64[us]").astype(
            np.int64
        ) // 86_400_000_000
        g = (
            pd.DataFrame({"event_type": df["event_type"].to_numpy(), "day": day})
            .groupby(["event_type", "day"], sort=False)
            .size()
            .reset_index(name="y")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            d = g.groupby("day", sort=False)["y"].sum()
            x = d.index.to_numpy(dtype=np.int64)
            x = x - x.min()  # shift-invariant; overflow headroom
            y = d.to_numpy(dtype=np.int64)
            n = np.int64(len(x))
            sx, sy = x.sum(), y.sum()
            sxy, sxx = (x * y).sum(), (x * x).sum()
            rows.append(
                {
                    "event_type": et,
                    "n_days": n,
                    "slope_num": n * sxy - sx * sy,
                    "slope_den": n * sxx - sx * sx,
                }
            )
        return pd.DataFrame(
            rows, columns=["event_type", "n_days", "slope_num", "slope_den"]
        )

    out = hash_aggregate(
        ev.map_batches(pre, batch_format="pyarrow"), ["event_type"], fold
    )
    df = out.to_pandas()
    if not len(df) or "event_type" not in df.columns:
        return _typed_empty(["event_type", "n_days", "slope_num", "slope_den"])
    for c in ("n_days", "slope_num", "slope_den"):
        df[c] = df[c].astype(np.int64)
    return collect_sorted(df, ["event_type"])


SQL_DAILY_TREND = """
WITH c AS (
  SELECT event_type,
         CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
         CAST(COUNT(*) AS BIGINT) AS y
  FROM events
  WHERE event_type IS NOT NULL AND ts IS NOT NULL
  GROUP BY 1, 2
)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_days,
       CAST(COUNT(*) * SUM(day * y) - SUM(day) * SUM(y) AS BIGINT)
           AS slope_num,
       CAST(COUNT(*) * SUM(day * day) - SUM(day) * SUM(day) AS BIGINT)
           AS slope_den
FROM c GROUP BY event_type
ORDER BY event_type
"""


ORACLE_QUERIES["daily_trend"] = (q_daily_trend, SQL_DAILY_TREND)


# ---------------------------------------------------------------------------
# Q: snapshot_diff — keyed table diff between two snapshots (the
# data-quality audit a pipeline runs on its own output: what rows did
# today's run add, remove, or change?).  Snapshot B is derived from
# orders by a deterministic perturbation (drop keys % 97 == 0, bump
# totalprice for keys % 31 == 0) so both engine and SQL construct
# identical inputs.  One orderkey-keyed exchange co-locates each key's
# A and B rows; the reducer compares vectorized and emits one row per
# differing key with a change class — the 100-TB shape where neither
# snapshot fits anywhere whole and the diff itself is the small output.
# ---------------------------------------------------------------------------
def q_snapshot_diff(sf_dir: str):
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def tag(side: str):
        def f(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            cents = _cents(t["o_totalprice"].to_numpy())
            if side == "b":
                keep = k % 97 != 0  # dropped rows
                k, cents = k[keep], cents[keep]
                bump = k % 31 == 0  # changed rows
                cents = cents + bump.astype(np.int64) * 500
            return pa.table(
                {
                    "o_orderkey": pa.array(k),
                    "cents": pa.array(cents),
                    "side": pa.array(np.full(len(k), side, dtype=object), pa.string()),
                }
            )

        return f

    a = orders.map_batches(tag("a"), batch_format="pyarrow")
    b = orders.map_batches(tag("b"), batch_format="pyarrow")

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "o_orderkey": pd.Series([], dtype=np.int64),
                    "change": pd.array([], dtype="string"),
                    "cents_a": pd.Series([], dtype=np.int64),
                    "cents_b": pd.Series([], dtype=np.int64),
                }
            )
        p = df.pivot_table(
            index="o_orderkey",
            columns="side",
            values="cents",
            aggfunc="first",
        ).reset_index()
        ca = p["a"] if "a" in p.columns else pd.Series(np.nan, index=p.index)
        cb = p["b"] if "b" in p.columns else pd.Series(np.nan, index=p.index)
        removed = cb.isna() & ca.notna()
        added = ca.isna() & cb.notna()
        changed = ca.notna() & cb.notna() & (ca != cb)
        keep = removed | added | changed
        change = np.where(removed, "removed", np.where(added, "added", "changed"))
        out = pd.DataFrame(
            {
                "o_orderkey": p["o_orderkey"].to_numpy(dtype=np.int64)[
                    keep.to_numpy()
                ],
                "change": change[keep.to_numpy()],
                "cents_a": ca.fillna(-1).astype(np.int64).to_numpy()[
                    keep.to_numpy()
                ],
                "cents_b": cb.fillna(-1).astype(np.int64).to_numpy()[
                    keep.to_numpy()
                ],
            }
        )
        return out

    out = hash_aggregate(a.union(b), ["o_orderkey"], diff)
    df = out.to_pandas()
    if not len(df) or "o_orderkey" not in df.columns:
        return _typed_empty(["o_orderkey", "change", "cents_a", "cents_b"])
    df["o_orderkey"] = df["o_orderkey"].astype(np.int64)
    df["cents_a"] = df["cents_a"].astype(np.int64)
    df["cents_b"] = df["cents_b"].astype(np.int64)
    df["change"] = df["change"].astype(object)
    return collect_sorted(df, ["o_orderkey"])


SQL_SNAPSHOT_DIFF = """
WITH a AS (
  SELECT o_orderkey,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
),
b AS (
  SELECT o_orderkey,
         cents + CASE WHEN o_orderkey % 31 = 0 THEN 500 ELSE 0 END AS cents
  FROM a WHERE o_orderkey % 97 <> 0
)
SELECT COALESCE(a.o_orderkey, b.o_orderkey) AS o_orderkey,
       CASE WHEN b.o_orderkey IS NULL THEN 'removed'
            WHEN a.o_orderkey IS NULL THEN 'added'
            ELSE 'changed' END AS change,
       CAST(COALESCE(a.cents, -1) AS BIGINT) AS cents_a,
       CAST(COALESCE(b.cents, -1) AS BIGINT) AS cents_b
FROM a FULL OUTER JOIN b ON a.o_orderkey = b.o_orderkey
WHERE a.o_orderkey IS NULL OR b.o_orderkey IS NULL OR a.cents <> b.cents
ORDER BY o_orderkey
"""


ORACLE_QUERIES["snapshot_diff"] = (q_snapshot_diff, SQL_SNAPSHOT_DIFF)


# ---------------------------------------------------------------------------
# Q: window_clash — KEYLESS interval-overlap join via the granule
# replication exchange (functions/exchange.interval_overlap_join):
# two derived campaign-window sets (orders with orderkey % 199 == 0
# open a 14-day window, % 211 == 0 a 10-day window) joined on the
# overlap predicate with NO equi key — each interval rides to its
# 7-day bins, pairs meet in the bin of the overlap's left edge exactly
# once.  The temporal-join shape (maintenance vs traffic windows,
# campaign clash) a 100-TB event store needs without a cross join.
# ---------------------------------------------------------------------------
def q_window_clash(sf_dir: str):
    from pynomaly_ray.functions.exchange import interval_overlap_join

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    _DAY = 86_400_000_000

    def windows(mod: int, days: int, kcol: str, locol: str, hicol: str):
        def f(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            ts = (
                t["o_orderdate"]
                .to_numpy(zero_copy_only=False)
                .astype("datetime64[us]")
                .astype(np.int64)
            )
            keep = k % mod == 0
            return pa.table(
                {
                    kcol: pa.array(k[keep]),
                    locol: pa.array(ts[keep]),
                    hicol: pa.array(ts[keep] + days * _DAY),
                }
            )

        return f

    a = orders.map_batches(
        windows(199, 14, "key_a", "lo_a", "hi_a"), batch_format="pyarrow"
    )
    b = orders.map_batches(
        windows(211, 10, "key_b", "lo_b", "hi_b"), batch_format="pyarrow"
    )
    out = interval_overlap_join(
        a, b, "lo_a", "hi_a", "lo_b", "hi_b", granule=7 * _DAY
    )
    df = out.to_pandas()
    if not len(df) or "key_a" not in df.columns:
        return _typed_empty(["key_a", "key_b", "overlap_us"])
    ov = np.minimum(df["hi_a"], df["hi_b"]) - np.maximum(df["lo_a"], df["lo_b"])
    res = pd.DataFrame(
        {
            "key_a": df["key_a"].astype(np.int64),
            "key_b": df["key_b"].astype(np.int64),
            "overlap_us": ov.astype(np.int64),
        }
    )
    return collect_sorted(res, ["key_a", "key_b"])


SQL_WINDOW_CLASH = """
WITH a AS (
  SELECT o_orderkey AS key_a,
         CAST(epoch_us(o_orderdate) AS BIGINT) AS lo_a,
         CAST(epoch_us(o_orderdate) AS BIGINT) + 14 * 86400000000 AS hi_a
  FROM orders WHERE o_orderkey % 199 = 0
),
b AS (
  SELECT o_orderkey AS key_b,
         CAST(epoch_us(o_orderdate) AS BIGINT) AS lo_b,
         CAST(epoch_us(o_orderdate) AS BIGINT) + 10 * 86400000000 AS hi_b
  FROM orders WHERE o_orderkey % 211 = 0
)
SELECT key_a, key_b,
       CAST(LEAST(hi_a, hi_b) - GREATEST(lo_a, lo_b) AS BIGINT) AS overlap_us
FROM a JOIN b ON lo_a < hi_b AND lo_b < hi_a
ORDER BY key_a, key_b
"""


ORACLE_QUERIES["window_clash"] = (q_window_clash, SQL_WINDOW_CLASH)
