"""The driver-contract query registry (SURVEY.md §7.2 step 9).

``QUERIES``: name → callable(sf_dir) → Dataset / DataFrame / Table. The
first 50 entries are the correctness gate (the keys of
CORRECTNESS_r05.json, in order); the rest are the oracle-checked
training-data operators that ``export`` and ``train-bpe`` call and the
``crawl_*`` pipelines.
``ORACLE_SQL``: matching ANSI SQL for DuckDB over the same parquet tables
(views pre-registered by the driver). Column names and aggregate aliases
match EXACTLY between the Ray pipeline and the SQL — the driver's compare
sorts columns by name and hashes values.

Float aggregates are rounded (2–3 dp) IDENTICALLY on both sides so that
summation-order differences between the distributed partial aggregation
and DuckDB cannot flip the value hash.

Entries without SQL (``quantiles_sketch``, minhash/simhash dedup, the
crawl pipelines) get a rows-only check; their determinism is
pinned by the pytest suite instead.

The other ``q_*`` functions here are not registered: they are analytics
pipelines kept as library code, each checked by its own pytest case
(``tests/test_round5_ops.py``) rather than by an oracle entry.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..config import CrawlConfig, PolitenessConfig
from ..functions import dedup, multimodal, similarity, text
from ..functions.relational import (
    _DOC_BPB,
    _FACT_BPB,
    asof_join,
    bucketed_hash_join,
    broadcast_join,
    distinct,
    grouped_agg,
    native_join,
    read_table,
    sessionize,
    topk,
    topk_per_group,
    tumbling_window_agg,
)


def _catempty(df: pd.DataFrame) -> pd.DataFrame:
    """0-row frames with string columns trip Ray's block-size
    estimator (np.vectorize on an empty sample) — cast them to
    categorical, which the estimator sizes without sampling (same
    trick as `bucketed_hash_join`'s empty buckets)."""
    if len(df) == 0:
        return df.astype({c: "category" for c in df.columns
                          if df[c].dtype == object
                          or str(df[c].dtype).startswith("string")})
    return df


# ---------------------------------------------------------------------------
# relational queries (SQL-checked)
# ---------------------------------------------------------------------------

def q_filter_project(sf_dir: str):
    """M2/M7 analog: predicate filter + computed projection, arrow-native."""
    import pyarrow.compute as pc

    ds = read_table(
        sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
        columns=["l_orderkey", "l_quantity", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    )

    def f(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.less(t["l_shipdate"], pa.scalar(pd.Timestamp("1996-01-01"))),
            pc.greater(t["l_discount"], pa.scalar(0.05)),
        )
        t = t.filter(mask)
        rev = pc.round(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            ndigits=2,
            round_mode="half_towards_infinity",  # DuckDB's rounding (half away from zero), not banker's
        )
        return pa.Table.from_arrays(
            [t["l_orderkey"].combine_chunks(),
             t["l_quantity"].combine_chunks(),
             rev.combine_chunks() if isinstance(rev, pa.ChunkedArray) else rev],
            names=["l_orderkey", "l_quantity", "revenue"],
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


SQL_FILTER_PROJECT = """
SELECT l_orderkey, l_quantity,
       round(l_extendedprice * (1 - l_discount), 2) AS revenue
FROM lineitem
WHERE l_shipdate < TIMESTAMP '1996-01-01' AND l_discount > 0.05
"""


def q_agg_pricing(sf_dir: str):
    """A1/A3 analog (TPC-H Q1 shape): grouped aggregate with partial
    pre-aggregation; all float sums rounded on both sides."""
    ds = read_table(
        sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def add_disc(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["disc_price"] = df["l_extendedprice"] * (1 - df["l_discount"])
        return df

    out = grouped_agg(
        ds.map_batches(add_disc, batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("l_quantity", "sum"),
            "sum_base_price": ("l_extendedprice", "sum"),
            "sum_disc_price": ("disc_price", "sum"),
            "avg_qty": ("l_quantity", "mean"),
            "n_rows": ("l_quantity", "count"),
        },
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("sum_base_price", "sum_disc_price"):
            df[c] = df[c].round(2)
        df["avg_qty"] = df["avg_qty"].round(3)
        return df

    return out.map_batches(final, batch_format="pandas")


SQL_AGG_PRICING = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(avg(l_quantity), 3) AS avg_qty,
       count(*) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_groupby_count(sf_dir: str):
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])
    out = grouped_agg(
        ds, ["event_type"],
        {"n_events": ("value", "count"), "sum_value": ("value", "sum")},
    )
    return out.map_batches(
        lambda df: df.assign(sum_value=df["sum_value"].round(2)),
        batch_format="pandas",
    )


SQL_GROUPBY_COUNT = """
SELECT event_type, count(*) AS n_events, round(sum(value), 2) AS sum_value
FROM events GROUP BY event_type
"""


def q_join_broadcast(sf_dir: str):
    """J1/J4 analog: small side (customer) broadcast via ray.put."""
    import pyarrow.parquet as pq

    orders = read_table(sf_dir, "orders", bytes_per_block=_FACT_BPB,
                        columns=["o_custkey", "o_totalprice"])
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).rename_columns(["o_custkey", "c_mktsegment"])
    joined = broadcast_join(orders, cust, on="o_custkey")
    out = grouped_agg(
        joined, ["c_mktsegment"],
        {"n_orders": ("o_totalprice", "count"),
         "revenue": ("o_totalprice", "sum")},
    )
    return out.map_batches(
        lambda df: df.assign(revenue=df["revenue"].round(2)),
        batch_format="pandas",
    )


SQL_JOIN_BROADCAST = """
SELECT c_mktsegment, count(*) AS n_orders,
       round(sum(o_totalprice), 2) AS revenue
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_join_partitioned(sf_dir: str):
    """J1-at-scale analog: explicit bucketed hash join lineitem ⋈ orders."""
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
        columns=["l_orderkey", "l_quantity", "l_extendedprice"],
    ).map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
    )
    orders = read_table(sf_dir, "orders", bytes_per_block=_FACT_BPB,
                        columns=["o_orderkey", "o_orderpriority"])
    joined = bucketed_hash_join(li, orders, on="o_orderkey", num_buckets=16)
    out = grouped_agg(
        joined, ["o_orderpriority"],
        {"n_items": ("l_quantity", "count"), "sum_qty": ("l_quantity", "sum")},
    )
    return out


SQL_JOIN_PARTITIONED = """
SELECT o_orderpriority, count(*) AS n_items, sum(l_quantity) AS sum_qty
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


def q_join_native(sf_dir: str):
    """Multi-way join on Ray's native hash join (customer⋈nation⋈region)."""
    cust = read_table(sf_dir, "customer", bytes_per_block=_FACT_BPB, columns=["c_custkey", "c_nationkey"])
    nation = read_table(sf_dir, "nation",
                        columns=["n_nationkey", "n_regionkey", "n_name"])
    region = read_table(sf_dir, "region", columns=["r_regionkey", "r_name"])
    cn = native_join(cust, nation, on="c_nationkey", right_on="n_nationkey",
                     num_partitions=4)
    cnr = native_join(cn, region, on="n_regionkey", right_on="r_regionkey",
                      num_partitions=4)
    return grouped_agg(cnr, ["r_name"], {"n_customers": ("c_custkey", "count")})


SQL_JOIN_NATIVE = """
SELECT r_name, count(*) AS n_customers
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


def q_sort_topk(sf_dir: str):
    ds = read_table(sf_dir, "orders", bytes_per_block=_FACT_BPB,
                    columns=["o_orderkey", "o_totalprice"])
    return topk(ds, by=["o_totalprice", "o_orderkey"], k=10,
                descending=[True, False])


SQL_SORT_TOPK = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def q_topk_per_group(sf_dir: str):
    ds = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
        columns=["l_returnflag", "l_orderkey", "l_linenumber",
                 "l_extendedprice"],
    )
    return topk_per_group(
        ds, keys=["l_returnflag"],
        by=["l_extendedprice", "l_orderkey", "l_linenumber"], k=2,
        descending=[True, False, False],
    )


SQL_TOPK_PER_GROUP = """
SELECT l_returnflag, l_orderkey, l_linenumber, l_extendedprice FROM (
  SELECT *, row_number() OVER (
      PARTITION BY l_returnflag
      ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber) AS rn
  FROM lineitem) WHERE rn <= 2
"""


def q_distinct(sf_dir: str):
    return distinct(
        read_table(sf_dir, "customer", bytes_per_block=_FACT_BPB, columns=["c_mktsegment"]),
        ["c_mktsegment"],
    )


SQL_DISTINCT = "SELECT DISTINCT c_mktsegment FROM customer"


def q_anti_join(sf_dir: str):
    """Anti join: customers with no big-ticket order (distributed
    co-partitioned not-exists; the crawl's seen anti-join in relational
    form)."""
    import pyarrow.compute as pc

    from ..functions.relational import semi_anti_join

    cust = read_table(sf_dir, "customer", bytes_per_block=_FACT_BPB, columns=["c_custkey", "c_name"])
    orders = read_table(sf_dir, "orders", bytes_per_block=_FACT_BPB, columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 300000.0)).select(
            ["o_custkey"]
        ).rename_columns(["c_custkey"]),
        batch_format="pyarrow",
    )
    return semi_anti_join(cust, orders, on="c_custkey", anti=True)


SQL_ANTI_JOIN = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN
      (SELECT o_custkey FROM orders WHERE o_totalprice > 300000)
"""


def q_semi_join(sf_dir: str):
    """Semi join: suppliers that supply at least one ordered part."""
    from ..functions.relational import semi_anti_join

    supp = read_table(sf_dir, "supplier", bytes_per_block=_FACT_BPB, columns=["s_suppkey", "s_name"])
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB, columns=["l_suppkey"]).map_batches(
        lambda df: df.rename(columns={"l_suppkey": "s_suppkey"}),
        batch_format="pandas",
    )
    return semi_anti_join(supp, li, on="s_suppkey", anti=False)


SQL_SEMI_JOIN = """
SELECT s_suppkey, s_name FROM supplier
WHERE s_suppkey IN (SELECT l_suppkey FROM lineitem)
"""


def q_cumsum(sf_dir: str):
    """Window function: running sum of value per user in (ts, event_id)
    order — deterministic float order on both sides."""
    from ..functions.relational import windowed_cumsum

    ds = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id", "user_id", "ts", "value"])
    out = windowed_cumsum(ds, "user_id", "ts", "value", tiebreak="event_id",
                          out_name="cum_value")
    return out.map_batches(
        lambda df: df[["event_id", "user_id"]].assign(
            cum_value=df["cum_value"].round(2)
        ),
        batch_format="pandas",
    )


SQL_CUMSUM = """
SELECT event_id, user_id,
       round(sum(value) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS UNBOUNDED PRECEDING), 2) AS cum_value
FROM events
"""


def q_count_distinct(sf_dir: str):
    """Distributed COUNT(DISTINCT): per-batch dedup → partitioned final
    dedup → count."""
    n = distinct(
        read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB, columns=["l_orderkey"]),
        ["l_orderkey"], merge_partitions=8,
    ).count()
    return pa.Table.from_pydict({"n": pa.array([n], type=pa.int64())})


SQL_COUNT_DISTINCT = "SELECT count(DISTINCT l_orderkey) AS n FROM lineitem"


def q_approx_distinct(sf_dir: str):
    """ERROR-BOUND-INVARIANT oracle for the HyperLogLog sketch (the
    `quantiles_sketch_err` pattern): the approximate distinct count of
    l_orderkey must land within 3% of the exact count (HLL stdev at
    p=14 is ~0.8%, linear-counting regime tighter still). Emits one
    row (n_exact, n_violations); SQL independently recomputes the
    exact count and asserts zero violations."""
    from ..functions.relational import approx_count_distinct

    est = int(
        approx_count_distinct(
            read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                       columns=["l_orderkey"]),
            "l_orderkey",
        ).to_pandas()["approx_distinct"].iloc[0]
    )
    exact = int(q_count_distinct(sf_dir)["n"][0].as_py())
    viol = int(abs(est - exact) / max(exact, 1) > 0.03)
    return pd.DataFrame({
        "n_exact": np.array([exact], dtype="int64"),
        "n_violations": np.array([viol], dtype="int64"),
    })


SQL_APPROX_DISTINCT = """
SELECT count(DISTINCT l_orderkey)::BIGINT AS n_exact,
       0::BIGINT AS n_violations
FROM lineitem
"""


def q_doc_category(sf_dir: str):
    """M4 analog: classify + tally (extension→category becomes
    lang→script-family)."""
    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["category"] = np.where(
            df["lang"].isin(["en", "es", "fr", "de"]), "latin", "cjk"
        )
        return df

    return grouped_agg(
        ds.map_batches(classify, batch_format="pandas"),
        ["category"],
        {"n_docs": ("n_chars", "count"), "sum_chars": ("n_chars", "sum")},
    )


SQL_DOC_CATEGORY = """
SELECT CASE WHEN lang IN ('en','es','fr','de') THEN 'latin' ELSE 'cjk' END
         AS category,
       count(*) AS n_docs, sum(n_chars)::BIGINT AS sum_chars
FROM documents GROUP BY 1
"""


def q_window_hourly(sf_dir: str):
    ds = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_type", "ts", "value"])
    out = tumbling_window_agg(
        ds, "ts", "h", ["event_type"],
        {"n_events": ("value", "count"), "sum_value": ("value", "sum")},
    )
    return out.map_batches(
        lambda df: df.assign(sum_value=df["sum_value"].round(2)),
        batch_format="pandas",
    )


SQL_WINDOW_HOURLY = """
SELECT event_type, date_trunc('hour', ts) AS window_start,
       count(*) AS n_events, round(sum(value), 2) AS sum_value
FROM events GROUP BY 1, 2
"""


def q_window_sliding(sf_dir: str):
    """Sliding windows (1h window, 15min slide): each event lands in 4
    overlapping windows; replication is vectorized in map_batches."""
    from ..functions.relational import sliding_window_agg

    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])
    out = sliding_window_agg(
        ds, "ts", "1h", "15min", ["event_type"],
        {"n_events": ("value", "count"), "sum_value": ("value", "sum")},
    )
    return out.map_batches(
        lambda df: df.assign(sum_value=df["sum_value"].round(2)),
        batch_format="pandas",
    )


SQL_WINDOW_SLIDING = """
SELECT event_type,
       time_bucket(INTERVAL '15 minutes', ts)
         - k * INTERVAL '15 minutes' AS window_start,
       count(*) AS n_events, round(sum(value), 2) AS sum_value
FROM events, range(0, 4) t(k)
GROUP BY 1, 2
"""


def q_quantiles(sf_dir: str):
    """Exact grouped quantiles (percentile_cont semantics)."""
    from ..functions.relational import grouped_quantiles

    ds = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB, columns=["event_type", "value"])
    out = grouped_quantiles(
        ds, ["event_type"], "value", [0.5, 0.95], ["p50", "p95"],
    )
    return out.map_batches(
        lambda df: df.assign(p50=df["p50"].round(6), p95=df["p95"].round(6)),
        batch_format="pandas",
    )


SQL_QUANTILES = """
SELECT event_type,
       round(quantile_cont(value, 0.5), 6) AS p50,
       round(quantile_cont(value, 0.95), 6) AS p95
FROM events GROUP BY 1
"""


def q_quantiles_disc(sf_dir: str):
    """percentile_disc semantics (first actual value at the target
    cumulative rank — no interpolation): numpy inverted_cdf vs DuckDB
    quantile_disc. Exact member values, so no rounding needed."""
    from ..functions.relational import grouped_quantiles

    ds = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_type", "value"])
    return grouped_quantiles(
        ds, ["event_type"], "value", [0.5, 0.95], ["p50", "p95"],
        method="inverted_cdf",
    )


SQL_QUANTILES_DISC = """
SELECT event_type,
       quantile_disc(value, 0.5) AS p50,
       quantile_disc(value, 0.95) AS p95
FROM events GROUP BY 1
"""


def q_quantiles_sketch(sf_dir: str):
    """Approximate grouped quantiles via the mergeable histogram sketch
    (bounded memory at any scale; value error ≤ range/bins). Rows-only —
    approximation can't hash-match SQL; accuracy is pinned by pytest."""
    from ..functions.relational import grouped_quantiles_sketch

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])
    return grouped_quantiles_sketch(
        ds, ["event_type"], "value", [0.5, 0.95], ["p50", "p95"],
    )


def q_corr(sf_dir: str):
    """Grouped Pearson correlation via partial sums (six numbers per key
    per block leave the map side)."""
    from ..functions.relational import grouped_corr

    ds = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
        columns=["l_returnflag", "l_quantity", "l_discount"],
    )
    out = grouped_corr(ds, ["l_returnflag"], "l_quantity", "l_discount",
                       out_name="qd_corr")
    return out.map_batches(
        lambda df: df.assign(qd_corr=df["qd_corr"].round(6)),
        batch_format="pandas",
    )


SQL_CORR = """
SELECT l_returnflag, round(corr(l_quantity, l_discount), 6) AS qd_corr
FROM lineitem GROUP BY 1
"""


def q_sessionize(sf_dir: str):
    ds = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB, columns=["user_id", "ts"])
    return sessionize(ds, key="user_id", ts_col="ts", gap_seconds=1800.0)


SQL_SESSIONIZE = """
SELECT user_id,
       (sum(CASE WHEN gap > 1800 THEN 1 ELSE 0 END) + 1)::BIGINT
         AS n_sessions,
       count(*) AS n_events
FROM (SELECT user_id,
             epoch(ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts))
               AS gap
      FROM events)
GROUP BY user_id
"""


def q_dedup_exact(sf_dir: str):
    return dedup.exact_dedup(
        read_table(sf_dir, "documents", columns=["doc_id", "text"],
                   bytes_per_block=_DOC_BPB)
    )


SQL_DEDUP_EXACT = """
SELECT min(doc_id) AS doc_id, count(*) AS dup_count
FROM documents GROUP BY text
"""


def q_text_stats(sf_dir: str):
    """SQL-checkable slice of the quality features (split-on-single-space
    to match DuckDB string_split exactly)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].astype(str)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_chars_actual": s.str.len().astype("int64"),
                "n_words": s.str.split(" ").str.len().astype("int64"),
            }
        )

    return ds.map_batches(f, batch_format="pandas")


SQL_TEXT_STATS = """
SELECT doc_id, length(text) AS n_chars_actual,
       len(string_split(text, ' ')) AS n_words
FROM documents
"""


def _query_vectors(sf_dir: str, n: int = 10):
    """The n query vectors, selected with the predicate PUSHED INTO the
    parquet read — row groups outside vec_id < n never reach the driver
    (at 100 TB a full-table driver read here would be the bottleneck;
    with the filter only the matching row groups are decoded)."""
    import pyarrow.parquet as pq

    qt = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n)],
    )
    queries = np.stack(qt["embedding"].to_pylist()).astype(np.float64)
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    return queries, qids


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-5 for query vectors vec_id < 10 (exact —
    SQL-checkable); float64 matmul so ranking matches DuckDB's doubles."""
    queries, qids = _query_vectors(sf_dir)
    ds = read_table(sf_dir, "embeddings", bytes_per_block=_DOC_BPB, columns=["vec_id", "embedding"])
    out = similarity.brute_force_topk(ds, queries, qids, k=5)
    return out.select_columns(["query_id", "neighbor_id", "rank"])


SQL_ANN_TOPK = """
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
           WHERE vec_id < 10),
s AS (SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
             list_cosine_similarity(q.qe, e.embedding) AS c
      FROM q, embeddings e WHERE e.vec_id <> q.qid)
SELECT query_id, neighbor_id, rank FROM (
  SELECT query_id, neighbor_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY c DESC, neighbor_id) AS rank
  FROM s) WHERE rank <= 5
"""


def q_minmax_agg(sf_dir: str):
    """Min/Max grouped aggregates (partial pre-aggregation path)."""
    ds = read_table(sf_dir, "orders",
                    columns=["o_orderpriority", "o_totalprice"])
    out = grouped_agg(
        ds, ["o_orderpriority"],
        {
            "min_price": ("o_totalprice", "min"),
            "max_price": ("o_totalprice", "max"),
            "n_orders": ("o_totalprice", "count"),
        },
    )
    return out.map_batches(
        lambda df: df.assign(min_price=df["min_price"].round(2),
                             max_price=df["max_price"].round(2)),
        batch_format="pandas",
    )


SQL_MINMAX_AGG = """
SELECT o_orderpriority, round(min(o_totalprice), 2) AS min_price,
       round(max(o_totalprice), 2) AS max_price, count(*) AS n_orders
FROM orders GROUP BY o_orderpriority
"""


def q_stddev_agg(sf_dir: str):
    """Sample stddev/variance via mergeable sum/sumsq/count partials —
    the dispersion slot of the agg family. Results rounded 2 dp on both
    engines (reassociation + one-pass cancellation both land far below
    a cent at these magnitudes)."""
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_extendedprice",
                             "l_quantity"])
    out = grouped_agg(
        ds, ["l_returnflag"],
        {
            "std_price": ("l_extendedprice", "std"),
            "var_qty": ("l_quantity", "var"),
            "n_rows": ("l_extendedprice", "count"),
        },
    )
    return out.map_batches(
        lambda df: df.assign(std_price=df["std_price"].round(2),
                             var_qty=df["var_qty"].round(2)),
        batch_format="pandas",
    )


SQL_STDDEV_AGG = """
SELECT l_returnflag, round(stddev_samp(l_extendedprice), 2) AS std_price,
       round(var_samp(l_quantity), 2) AS var_qty, count(*) AS n_rows
FROM lineitem GROUP BY l_returnflag
"""


def q_json_extract(sf_dir: str):
    """M-json analog: extract a field from the events.props JSON blob
    (vectorized regex on both sides for parity) and aggregate."""
    ds = read_table(sf_dir, "events", columns=["props"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        k = df["props"].str.extract(r'"k": (\d+)', expand=False).astype(
            "int64"
        )
        return pd.DataFrame({"k_bucket": (k % 10).astype("int64")})

    return grouped_agg(
        ds.map_batches(f, batch_format="pandas"),
        ["k_bucket"],
        {"n_events": ("k_bucket", "count")},
    )


SQL_JSON_EXTRACT = """
SELECT (regexp_extract(props, '"k": (\\d+)', 1)::BIGINT % 10) AS k_bucket,
       count(*) AS n_events
FROM events GROUP BY 1
"""


def q_top_revenue_orders(sf_dir: str):
    """TPC-H Q3 shape: 3-way join + grouped revenue + deterministic
    top-10 (broadcast customer filter, partitioned lineitem⋈orders)."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).to_pandas()
    building = cust[cust.c_mktsegment == "BUILDING"][["c_custkey"]].rename(
        columns={"c_custkey": "o_custkey"}
    )
    orders = read_table(sf_dir, "orders", bytes_per_block=_FACT_BPB,
                        columns=["o_orderkey", "o_custkey"])
    o_f = broadcast_join(orders, building, on="o_custkey")
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
    )
    joined = bucketed_hash_join(li, o_f, on="o_orderkey", num_buckets=16)

    def rev(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rev"] = df["l_extendedprice"] * (1 - df["l_discount"])
        return df

    # o_orderkey cardinality scales with the fact table → partitioned merge
    agg = grouped_agg(
        joined.map_batches(rev, batch_format="pandas"),
        ["o_orderkey"], {"revenue": ("rev", "sum")}, merge_partitions=16,
    ).map_batches(
        lambda df: df.assign(revenue=df["revenue"].round(2)),
        batch_format="pandas",
    )
    return topk(agg, by=["revenue", "o_orderkey"], k=10,
                descending=[True, False])


SQL_TOP_REVENUE_ORDERS = """
SELECT o_orderkey,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
GROUP BY o_orderkey
ORDER BY revenue DESC, o_orderkey LIMIT 10
"""


def q_union_distinct(sf_dir: str):
    """Set op: union of two filtered projections + distinct (D2 analog)."""
    import pyarrow.compute as pc

    hi = read_table(sf_dir, "orders", bytes_per_block=_FACT_BPB,
                    columns=["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(
            pc.greater(t["o_totalprice"], 150000.0)
        ).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    urgent = read_table(sf_dir, "orders", bytes_per_block=_FACT_BPB, columns=["o_custkey", "o_orderpriority"]
    ).map_batches(
        lambda t: t.filter(
            pc.equal(t["o_orderpriority"], "1-URGENT")
        ).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    # o_custkey cardinality scales with the table → partitioned final dedup
    return distinct(hi.union(urgent), ["o_custkey"], merge_partitions=16)


SQL_UNION_DISTINCT = """
SELECT o_custkey FROM orders WHERE o_totalprice > 150000
UNION
SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
"""


def q_count_lineitem(sf_dir: str):
    n = read_table(sf_dir, "lineitem", columns=["l_orderkey"]).count()
    return pa.Table.from_pydict({"n": pa.array([n], type=pa.int64())})


SQL_COUNT_LINEITEM = "SELECT count(*) AS n FROM lineitem"


# ---------------------------------------------------------------------------
# rows-only queries (non-SQL-expressible; determinism pinned by pytest)
# ---------------------------------------------------------------------------

def q_asof_join(sf_dir: str):
    """As-of join: each error event matched to the user's latest prior
    click; returns (event_id, user_id, gap_s rounded)."""
    import pyarrow.compute as pc

    errors = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB, columns=["event_id", "user_id", "ts", "event_type"]
    ).map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "error")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    clicks = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB, columns=["user_id", "ts", "event_type"]
    ).map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")).select(
            ["user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    joined = asof_join(errors, clicks, key="user_id", ts_col="ts",
                       num_partitions=16)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        secs = (df["ts"] - df["ts_r"]).dt.total_seconds()
        # DuckDB rounds half away from zero; pandas .round is banker's
        gap = np.floor(secs * 1000 + 0.5) / 1000
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "gap_s": gap.astype("float64"),
            }
        )

    return joined.map_batches(final, batch_format="pandas")


SQL_ASOF_JOIN = """
SELECT e.event_id, e.user_id, round(epoch(e.ts - c.ts), 3) AS gap_s
FROM (SELECT * FROM events WHERE event_type = 'error') e
ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON e.user_id = c.user_id AND e.ts >= c.ts
"""


def q_asof_forward(sf_dir: str):
    """Forward as-of: each error matched to the user's NEXT click (the
    direction DuckDB's ASOF JOIN doesn't provide — oracled with a
    LATERAL first-row subquery instead). Output values are tie-safe:
    only the matched timestamp is exposed, so equal-ts clicks cannot
    diverge between engines."""
    import pyarrow.compute as pc

    errors = read_table(
        sf_dir, "events", bytes_per_block=_FACT_BPB,
        columns=["event_id", "user_id", "ts", "event_type"],
    ).map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "error")).select(
            ["event_id", "user_id", "ts"]),
        batch_format="pyarrow",
    )
    clicks = read_table(
        sf_dir, "events", bytes_per_block=_FACT_BPB,
        columns=["user_id", "ts", "event_type"],
    ).map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")).select(
            ["user_id", "ts"]),
        batch_format="pyarrow",
    )
    joined = asof_join(errors, clicks, key="user_id", ts_col="ts",
                       num_partitions=16, direction="forward")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        secs = (df["ts_r"] - df["ts"]).dt.total_seconds()
        gap = np.floor(secs * 1000 + 0.5) / 1000
        return pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "user_id": df["user_id"].astype("int64"),
            "gap_s": gap.astype("float64"),
        })

    return joined.map_batches(final, batch_format="pandas")


SQL_ASOF_FORWARD = """
SELECT e.event_id, e.user_id, round(epoch(c.ts - e.ts), 3) AS gap_s
FROM (SELECT * FROM events WHERE event_type = 'error') e
JOIN LATERAL (
  SELECT ts FROM events c
  WHERE c.event_type = 'click' AND c.user_id = e.user_id
    AND c.ts >= e.ts
  ORDER BY c.ts LIMIT 1
) c ON true
"""


def q_embedding_stats(sf_dir: str):
    """Vector-column aggregate: per-label count + mean of the first
    embedding component (zero-copy ``pc.list_element``, no per-row
    lambda)."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "embeddings", bytes_per_block=_DOC_BPB, columns=["label", "embedding"])

    def f(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "label": pc.cast(t["label"], pa.int64()),
                "e0": pc.cast(pc.list_element(t["embedding"], 0),
                              pa.float64()),
            }
        )

    out = grouped_agg(
        ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True),
        ["label"],
        {"n_vecs": ("e0", "count"), "mean_e0": ("e0", "mean")},
    )
    return out.map_batches(
        lambda df: df.assign(mean_e0=df["mean_e0"].round(6)),
        batch_format="pandas",
    )


SQL_EMBEDDING_STATS = """
SELECT label::BIGINT AS label, count(*) AS n_vecs,
       round(avg(embedding[1]), 6) AS mean_e0
FROM embeddings GROUP BY 1
"""


def q_ngram_jaccard(sf_dir: str):
    """EXACT all-pairs word-5-gram Jaccard ≥ 0.5 via the distributed
    inverted shingle index — no LSH approximation, so it carries a full
    DuckDB oracle (the round-1 version was LSH-candidate-limited and
    unverifiable)."""
    return dedup.ngram_jaccard_pairs(
        read_table(sf_dir, "documents", columns=["doc_id", "text"],
                   bytes_per_block=_DOC_BPB),
        k=5, threshold=0.5,
    )


SQL_NGRAM_JACCARD = """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
idx AS (SELECT doc_id, ws,
               unnest(range(1, greatest(len(ws) - 4, 1) + 1)) AS i
        FROM w),
sh AS (SELECT DISTINCT doc_id,
              CASE WHEN len(ws) < 5 THEN array_to_string(ws, ' ')
                   ELSE array_to_string(list_slice(ws, i, i + 4), ' ')
              END AS s
       FROM idx),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT id_a, id_b, c / (na.n + nb.n - c) AS jaccard
FROM inter
JOIN sizes na ON inter.id_a = na.doc_id
JOIN sizes nb ON inter.id_b = nb.doc_id
WHERE c / (na.n + nb.n - c) >= 0.5
"""


def q_dedup_minhash(sf_dir: str):
    return dedup.minhash_lsh_pairs(
        read_table(sf_dir, "documents", columns=["doc_id", "text"],
                   bytes_per_block=_DOC_BPB),
        threshold=0.5,
    )


def q_dedup_minhash_subset(sf_dir: str):
    """SUBSET-INVARIANT oracle for the approximate LSH pipeline
    (VERDICT r2 #3): every verified MinHash-LSH pair at threshold t must
    be a member of the EXACT n-gram-Jaccard pair set at t (verification
    computes true Jaccard, so a violation means a broken kernel), and the
    exact pair count itself is recomputed here and checked against the
    DuckDB oracle. Returns one row: (n_exact_pairs, n_lsh_violations);
    SQL asserts n_lsh_violations = 0 and supplies the independent exact
    count. LSH recall (which pairs the bands surface) stays approximate —
    that is the point of the containment form: it is checkable without
    being SQL-reproducible."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)
    lsh = dedup.minhash_lsh_pairs(docs, threshold=0.5).to_pandas()
    exact = dedup.ngram_jaccard_pairs(docs, k=5, threshold=0.5).to_pandas()
    m = lsh[["id_a", "id_b"]].merge(
        exact[["id_a", "id_b"]], on=["id_a", "id_b"],
        how="left", indicator=True,
    )
    return pd.DataFrame({
        "n_exact_pairs": np.array([len(exact)], dtype="int64"),
        "n_lsh_violations": np.array(
            [int((m["_merge"] == "left_only").sum())], dtype="int64"
        ),
    })


SQL_DEDUP_MINHASH_SUBSET = f"""
WITH p AS ({SQL_NGRAM_JACCARD})
SELECT count(*)::BIGINT AS n_exact_pairs,
       0::BIGINT AS n_lsh_violations
FROM p
"""


def q_quantiles_sketch_err(sf_dir: str):
    """ERROR-BOUND invariant oracle for the histogram quantile sketch
    (VERDICT r2 #3): per key, the sketch estimate must land within one
    bin width (range/bins) of the order statistic at the target's
    ceiling rank — the sketch's provable guarantee (the estimate's bin
    contains that order statistic; see ``grouped_quantiles_sketch``).
    Returns one row per event_type with integer 0/1 bound flags; SQL
    independently enumerates the keys and asserts all-within-bound, so
    a missing key or an out-of-bound estimate both hash-mismatch."""
    from ..functions.relational import (
        grouped_agg,
        grouped_apply,
        grouped_quantiles_sketch,
    )

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])
    bins = 2048
    qs = [(0.5, "p50"), (0.95, "p95")]

    def ceil_rank_stats(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in part.groupby("event_type", sort=False):
            v = np.sort(g["value"].to_numpy(np.float64))
            n = len(v)
            vals = []
            for q, _ in qs:
                k = int(np.ceil(q * (n - 1) + 1))  # 1-based target rank
                vals.append(v[min(k, n) - 1])
            rows.append((kv, *vals))
        return pd.DataFrame(rows,
                            columns=["event_type"] + [nm for _, nm in qs])

    exact = grouped_apply(ds, ["event_type"], ceil_rank_stats,
                          num_partitions=8).to_pandas()
    approx = grouped_quantiles_sketch(
        ds, ["event_type"], "value", [q for q, _ in qs],
        [nm for _, nm in qs], bins=bins,
    ).to_pandas()
    rng = grouped_agg(
        ds, ["event_type"],
        {"lo": ("value", "min"), "hi": ("value", "max")},
    ).to_pandas()
    m = exact.merge(approx, on="event_type", suffixes=("_x", "_s")).merge(
        rng, on="event_type"
    )
    tol = (m["hi"] - m["lo"]) / bins + 1e-9
    return pd.DataFrame({
        "event_type": m["event_type"],
        "p50_within_bound": (
            (m["p50_s"] - m["p50_x"]).abs() <= tol
        ).astype("int64"),
        "p95_within_bound": (
            (m["p95_s"] - m["p95_x"]).abs() <= tol
        ).astype("int64"),
    })


SQL_QUANTILES_SKETCH_ERR = """
SELECT DISTINCT event_type,
       1::BIGINT AS p50_within_bound,
       1::BIGINT AS p95_within_bound
FROM events
"""


def q_dedup_clusters(sf_dir: str):
    """Duplicate-cluster resolution: connected components (distributed
    min-label propagation) over the exact n-gram-Jaccard ≥ 0.5 pair set;
    cluster id = min doc_id of the component. Oracle: the same pairs via
    SQL + a recursive-CTE reachability closure."""
    pairs = dedup.ngram_jaccard_pairs(
        read_table(sf_dir, "documents", columns=["doc_id", "text"],
                   bytes_per_block=_DOC_BPB),
        k=5, threshold=0.5,
    )
    out = dedup.connected_components(pairs)
    return out.map_batches(
        lambda df: df.rename(columns={"node": "doc_id",
                                      "label": "cluster_id"}),
        batch_format="pandas",
    )


SQL_DEDUP_CLUSTERS = f"""
WITH RECURSIVE
p AS ({SQL_NGRAM_JACCARD}),
edges AS (SELECT id_a AS src, id_b AS dst FROM p
          UNION ALL SELECT id_b, id_a FROM p),
nodes AS (SELECT DISTINCT src AS id FROM edges),
walk(id, label) AS (
  SELECT id, id FROM nodes
  UNION
  SELECT e.dst, w.label FROM walk w JOIN edges e ON w.id = e.src
)
SELECT id AS doc_id, min(label) AS cluster_id FROM walk GROUP BY id
"""


def q_dedup_simhash(sf_dir: str):
    return dedup.simhash_dedup(
        read_table(sf_dir, "documents", columns=["doc_id", "text"],
                   bytes_per_block=_DOC_BPB),
        max_hamming=3,
    )


_PLANT_MAX_ID = 100
_PLANT_OFFSET = 1_000_000


def q_langid(sf_dir: str):
    return text.langid_stage(
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
    )


def _sql_marker_count(col: str, marker: str) -> str:
    return f"len(regexp_extract_all({col}, '{marker}'))"


def _sql_lang_score(lang: str) -> str:
    from ..functions.text import _LANG_MARKERS

    return " + ".join(_sql_marker_count("s", m) for m in _LANG_MARKERS[lang])


SQL_LANGID = f"""
WITH p AS (SELECT doc_id, ' ' || text || ' ' AS s FROM documents),
sc AS (SELECT doc_id,
  CAST({_sql_lang_score('en')} AS DOUBLE) AS s_en,
  CAST({_sql_lang_score('es')} AS DOUBLE) AS s_es,
  CAST({_sql_lang_score('fr')} AS DOUBLE) AS s_fr,
  CAST({_sql_lang_score('de')} AS DOUBLE) AS s_de,
  CAST({_sql_lang_score('zh')} AS DOUBLE)
    + 10.0 * len(regexp_extract_all(s, '[一-鿿]'))
      / greatest(length(s), 1) * 5 AS s_zh
FROM p)
SELECT doc_id,
  CASE WHEN s_en >= s_es AND s_en >= s_fr AND s_en >= s_de AND s_en >= s_zh
         THEN 'en'
       WHEN s_es >= s_fr AND s_es >= s_de AND s_es >= s_zh THEN 'es'
       WHEN s_fr >= s_de AND s_fr >= s_zh THEN 'fr'
       WHEN s_de >= s_zh THEN 'de'
       ELSE 'zh' END AS lang_pred,
  greatest(s_en, s_es, s_fr, s_de, s_zh) AS lang_score
FROM sc
"""


def q_quality(sf_dir: str):
    return read_table(
        sf_dir, "documents", columns=["doc_id", "text"]
    ).map_batches(text.quality_features, batch_format="pandas")


_SQL_STOPWORDS = ", ".join(f"'{w}'" for w in sorted(text._STOPWORDS))

SQL_QUALITY = f"""
WITH b AS (
  SELECT doc_id,
         length(text) AS n_chars,
         len(regexp_extract_all(text, '\\S+')) AS n_words,
         length(replace(text, ' ', '')) AS n_nospace,
         len(regexp_extract_all(text, '[^0-9A-Za-z_\\t\\n\\f\\r ]'))
           AS n_punct,
         len(list_filter(string_split(lower(text), ' '),
                         w -> w IN ({_SQL_STOPWORDS}))) AS n_stop
  FROM documents)
SELECT doc_id,
  n_chars AS n_chars_actual,
  n_words,
  CASE WHEN n_words > 0 THEN n_nospace / greatest(n_words, 1)
       ELSE 0.0 END AS mean_word_len,
  n_punct / greatest(n_chars, 1) AS punct_ratio,
  n_stop / greatest(n_words, 1) AS stopword_ratio,
  least(n_words / 100.0, 1.0) * 0.4
    + least(greatest(1 - (n_punct / greatest(n_chars, 1)) * 5, 0), 1) * 0.3
    + least((n_stop / greatest(n_words, 1)) * 4, 1) * 0.3 AS quality_score
FROM b
"""


def q_quality_above_median(sf_dir: str):
    """Quantile-threshold curation: keep docs scoring above their
    language group's MEDIAN quality — grouped exact quantiles broadcast
    back onto the stream (5-row small side, no shuffle of the corpus).
    Scores and medians round to 6 dp on BOTH engines before the
    comparison so interpolation noise cannot flip boundary docs."""
    from ..functions.relational import broadcast_join, grouped_quantiles

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "lang", "text"],
                      bytes_per_block=_DOC_BPB)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        q = text.quality_features(df)
        return pd.DataFrame({
            "doc_id": df["doc_id"], "lang": df["lang"],
            "q": q["quality_score"].round(6),
        })

    scored = docs.map_batches(score, batch_format="pandas").materialize()
    med = grouped_quantiles(scored, ["lang"], "q", [0.5], ["med"],
                            num_partitions=4).to_pandas()
    med["med"] = med["med"].round(6)
    j = broadcast_join(scored, med, on=["lang"])
    return j.map_batches(
        lambda df: df.loc[df["q"] > df["med"], ["doc_id", "lang", "q"]],
        batch_format="pandas",
    )


SQL_QUALITY_ABOVE_MEDIAN = f"""
WITH b AS (
  SELECT doc_id, lang,
         length(text) AS n_chars,
         len(regexp_extract_all(text, '\\S+')) AS n_words,
         length(replace(text, ' ', '')) AS n_nospace,
         len(regexp_extract_all(text, '[^0-9A-Za-z_\\t\\n\\f\\r ]'))
           AS n_punct,
         len(list_filter(string_split(lower(text), ' '),
                         w -> w IN ({_SQL_STOPWORDS}))) AS n_stop
  FROM documents),
s AS (
  SELECT doc_id, lang,
         round(least(n_words / 100.0, 1.0) * 0.4
           + least(greatest(1 - (n_punct / greatest(n_chars, 1)) * 5, 0),
                   1) * 0.3
           + least((n_stop / greatest(n_words, 1)) * 4, 1) * 0.3, 6) AS q
  FROM b),
m AS (SELECT lang, round(quantile_cont(q, 0.5), 6) AS med
      FROM s GROUP BY lang)
SELECT s.doc_id, s.lang, s.q
FROM s JOIN m USING (lang)
WHERE s.q > m.med
"""


def q_sample_hash(sf_dir: str):
    """Deterministic hash sampling (~5%): Knuth multiplicative hash on
    the id, identical integer arithmetic on both engines — the
    shuffle-free, resumable alternative to random_shuffle+limit for
    carving training-data subsets (same rows on every run and at every
    parallelism). The pre-mod keeps products within uint64/int64 range
    on both engines for ids up to 2^32."""
    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "lang", "n_chars"]
    )

    def samp(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.uint64)
        h = ((ids % np.uint64(4294967296)) * np.uint64(2654435761)) \
            % np.uint64(4294967296)
        return df[h < np.uint64(214748365)]

    return docs.map_batches(samp, batch_format="pandas")


def q_curate(sf_dir: str):
    """The training-data export composition: quality-score + language
    filter → exact-dedup first-wins → per-language token accounting.
    Every stage is a reused oracle-checked kernel, so the whole chain
    carries a DuckDB oracle — the end-to-end 'curate a corpus' pipeline
    a 100-TB run would execute (filters prune BEFORE the dedup shuffle;
    only (hash, id) pairs shuffle)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        q = text.quality_features(df)
        lang = text.LangId()(df)
        out = df[["doc_id", "text"]].copy()
        out["quality_score"] = q["quality_score"]
        out["n_words"] = q["n_words"]
        out["lang_pred"] = lang["lang_pred"].to_numpy()
        return out[(out["quality_score"] >= 0.5)
                   & (out["lang_pred"] == "en")]

    kept = docs.map_batches(score, batch_format="pandas")
    # n_words/quality_score ride the dedup's (hash, id) shuffle as
    # passenger columns on the winning row — no survivors⋈kept re-join
    out = dedup.exact_dedup(kept, text_col="text", id_col="doc_id",
                            keep_cols=["n_words", "quality_score"])
    return out.map_batches(
        lambda df: df.assign(
            quality_score=df["quality_score"].round(6),
            dup_count=df["dup_count"].astype("int64"),
            n_words=df["n_words"].astype("int64"),
        )[["doc_id", "dup_count", "n_words", "quality_score"]],
        batch_format="pandas",
    )


SQL_CURATE = f"""
WITH scored AS (
  SELECT doc_id, text,
         len(regexp_extract_all(text, '\\S+')) AS n_words,
         least(len(regexp_extract_all(text, '\\S+')) / 100.0, 1.0) * 0.4
           + least(greatest(1 - (len(regexp_extract_all(text,
               '[^0-9A-Za-z_\\t\\n\\f\\r ]'))
               / greatest(length(text), 1)) * 5, 0), 1) * 0.3
           + least((len(list_filter(string_split(lower(text), ' '),
               w -> w IN ({_SQL_STOPWORDS})))
               / greatest(len(regexp_extract_all(text, '\\S+')), 1)) * 4,
               1) * 0.3 AS quality_score,
         ' ' || text || ' ' AS s
  FROM documents),
lang AS (
  SELECT doc_id, n_words, quality_score, text,
         CAST({_sql_lang_score('en')} AS DOUBLE) AS s_en,
         CAST({_sql_lang_score('es')} AS DOUBLE) AS s_es,
         CAST({_sql_lang_score('fr')} AS DOUBLE) AS s_fr,
         CAST({_sql_lang_score('de')} AS DOUBLE) AS s_de,
         CAST({_sql_lang_score('zh')} AS DOUBLE)
           + 10.0 * len(regexp_extract_all(s, '[一-鿿]'))
             / greatest(length(s), 1) * 5 AS s_zh
  FROM scored),
kept AS (
  SELECT doc_id, text, n_words, quality_score FROM lang
  WHERE quality_score >= 0.5
    AND s_en >= s_es AND s_en >= s_fr AND s_en >= s_de AND s_en >= s_zh),
survivors AS (
  SELECT min(doc_id) AS doc_id, count(*) AS dup_count
  FROM kept GROUP BY text)
SELECT s.doc_id, s.dup_count, k.n_words,
       round(k.quality_score, 6) AS quality_score
FROM survivors s JOIN kept k ON s.doc_id = k.doc_id
"""


_BL_HEADER = "common header boilerplate line"
_BL_FOOTER = "subscribe to our newsletter footer"


def q_line_dedup(sf_dir: str):
    """CCNet-style line-level dedup with a FULL DuckDB oracle: the
    synthetic documents are single-line, so the query plants two
    SQL-expressible boilerplate lines (header on doc_id%5==0, footer on
    doc_id%3==0; 100 and 167 docs at sf0.01), then removes every line
    whose document frequency >= 50. Both planting and removal replicate
    exactly in SQL, so text_clean itself is value-hashed — the operator's
    explode/count/broadcast/reassemble path is fully oracle-checked."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].astype(str)
        head = np.where(df["doc_id"] % 5 == 0, _BL_HEADER + "\n", "")
        foot = np.where(df["doc_id"] % 3 == 0, "\n" + _BL_FOOTER, "")
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "text": head + t + foot}
        )

    planted = docs.map_batches(plant, batch_format="pandas")
    out = dedup.line_dedup(planted, min_doc_freq=50)
    return out.sort("doc_id")


SQL_LINE_DEDUP = f"""
WITH d AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0
              THEN '{_BL_HEADER}' || chr(10) || text
              ELSE text END
         || CASE WHEN doc_id % 3 = 0
                 THEN chr(10) || '{_BL_FOOTER}'
                 ELSE '' END AS t
  FROM documents
),
lines AS (
  SELECT doc_id, unnest(string_split(t, chr(10))) AS line,
         generate_subscripts(string_split(t, chr(10)), 1) AS ord
  FROM d
),
freq AS (
  SELECT line FROM lines GROUP BY line
  HAVING count(DISTINCT doc_id) >= 50
),
kept AS (
  SELECT l.doc_id, l.line, l.ord FROM lines l
  WHERE l.line NOT IN (SELECT line FROM freq)
)
SELECT d.doc_id,
       coalesce(string_agg(k.line, chr(10) ORDER BY k.ord), '') AS text_clean,
       (SELECT count(*) FROM lines l2
        WHERE l2.doc_id = d.doc_id)::BIGINT AS n_lines,
       count(k.line)::BIGINT AS n_lines_kept
FROM d LEFT JOIN kept k ON k.doc_id = d.doc_id
GROUP BY d.doc_id
ORDER BY d.doc_id
"""


def q_dedup_simhash_subset(sf_dir: str):
    """CONTAINMENT-INVARIANT oracle for SimHash (VERDICT r2 #3 pattern,
    closing the last un-oracled dedup operator): plant an exact copy of
    every doc with doc_id < 100 (id + 10^6, identical text — identical
    64-bit fingerprint, so the quarter-pigeonhole GUARANTEES the pair
    surfaces with hamming 0). Returns one row (n_planted_pairs,
    n_missing, n_bad_hamming); SQL independently counts the planted
    docs and asserts both violation counters are zero. SimHash recall on
    non-identical near-dups stays approximate — that is the point of the
    containment form."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["doc_id"] < _PLANT_MAX_ID]
        return pd.DataFrame(
            {"doc_id": (sub["doc_id"] + _PLANT_OFFSET).to_numpy(),
             "text": sub["text"].to_numpy()}
        )

    planted = docs.union(docs.map_batches(plant, batch_format="pandas"))
    pairs = dedup.simhash_dedup(planted, max_hamming=3).to_pandas()
    want = docs.select_columns(["doc_id"]).to_pandas()
    want = want[want["doc_id"] < _PLANT_MAX_ID]
    exp = pd.DataFrame(
        {"id_a": want["doc_id"].to_numpy(),
         "id_b": (want["doc_id"] + _PLANT_OFFSET).to_numpy()}
    )
    m = exp.merge(pairs, on=["id_a", "id_b"], how="left")
    return pd.DataFrame(
        {
            "n_planted_pairs": np.array([len(exp)], dtype="int64"),
            "n_missing": np.array(
                [int(m["hamming"].isna().sum())], dtype="int64"),
            "n_bad_hamming": np.array(
                [int((m["hamming"].fillna(0) != 0).sum())], dtype="int64"),
        }
    )


SQL_DEDUP_SIMHASH_SUBSET = f"""
SELECT count(*)::BIGINT AS n_planted_pairs,
       0::BIGINT AS n_missing,
       0::BIGINT AS n_bad_hamming
FROM documents WHERE doc_id < {_PLANT_MAX_ID}
"""


_PACK_CAPACITY = 512


def q_pack_sequences(sf_dir: str):
    """Sequence packing for training exports: greedy in-order token-bin
    packing per language (capacity 512 whitespace tokens), full SQL
    oracle via a recursive CTE replaying the identical fill/reset
    recurrence. Per-doc assignment rows hash-check the whole packing."""
    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "lang", "text"],
                      bytes_per_block=_DOC_BPB)
    return text.pack_sequences(docs, capacity=_PACK_CAPACITY)


SQL_PACK_SEQUENCES = f"""
WITH RECURSIVE toks AS (
  SELECT lang, doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+')) END
           AS n_tokens
  FROM documents
),
ord AS (
  SELECT lang, doc_id, n_tokens,
         row_number() OVER (PARTITION BY lang ORDER BY doc_id) AS rn
  FROM toks
),
walk AS (
  SELECT lang, doc_id, n_tokens, rn,
         0::BIGINT AS seq_id, n_tokens AS fill
  FROM ord WHERE rn = 1
  UNION ALL
  SELECT o.lang, o.doc_id, o.n_tokens, o.rn,
         CASE WHEN w.fill + o.n_tokens > {_PACK_CAPACITY}
              THEN w.seq_id + 1 ELSE w.seq_id END,
         CASE WHEN w.fill + o.n_tokens > {_PACK_CAPACITY}
              THEN o.n_tokens ELSE w.fill + o.n_tokens END
  FROM walk w JOIN ord o ON o.lang = w.lang AND o.rn = w.rn + 1
)
SELECT lang, doc_id::BIGINT AS doc_id, n_tokens::BIGINT AS n_tokens,
       seq_id::BIGINT AS seq_id
FROM walk
"""


def q_pack_payloads(sf_dir: str):
    """Materialized packed sequences: one row per token bin with the
    member texts newline-joined in doc order — the concatenated text
    itself is value-hashed against the oracle's ordered string_agg."""
    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "lang", "text"],
                      bytes_per_block=_DOC_BPB)
    return text.pack_payloads(docs, capacity=_PACK_CAPACITY)


SQL_PACK_PAYLOADS = f"""
WITH RECURSIVE toks AS (
  SELECT lang, doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+')) END
           AS n_tokens
  FROM documents
),
ord AS (
  SELECT lang, doc_id, n_tokens,
         row_number() OVER (PARTITION BY lang ORDER BY doc_id) AS rn
  FROM toks
),
walk AS (
  SELECT lang, doc_id, n_tokens, rn,
         0::BIGINT AS seq_id, n_tokens AS fill
  FROM ord WHERE rn = 1
  UNION ALL
  SELECT o.lang, o.doc_id, o.n_tokens, o.rn,
         CASE WHEN w.fill + o.n_tokens > {_PACK_CAPACITY}
              THEN w.seq_id + 1 ELSE w.seq_id END,
         CASE WHEN w.fill + o.n_tokens > {_PACK_CAPACITY}
              THEN o.n_tokens ELSE w.fill + o.n_tokens END
  FROM walk w JOIN ord o ON o.lang = w.lang AND o.rn = w.rn + 1
)
SELECT w.lang, w.seq_id,
       count(*)::BIGINT AS n_docs,
       sum(w.n_tokens)::BIGINT AS seq_tokens,
       string_agg(d.text, chr(10) ORDER BY w.doc_id) AS text
FROM walk w JOIN documents d ON d.doc_id = w.doc_id
GROUP BY w.lang, w.seq_id
"""


# -- multimodal (interleaved text+media) queries ----------------------------

_MM_CHUNKS_CTE = """
toks AS (SELECT doc_id, lang, string_split(text, ' ') AS w FROM documents),
chunks AS (
  SELECT doc_id, lang, c,
         array_to_string(w[c*20+1 : least((c+1)*20, len(w))], ' ') AS chunk,
         (len(w) + 19) // 20 AS nch
  FROM toks, unnest(generate_series(0, (len(w)+19)//20 - 1)) AS t(c)
),
media AS (
  SELECT doc_id, lang, c, 'm' || ((doc_id*131 + c) % 257) AS ref
  FROM chunks WHERE c < nch - 1
)
"""


def q_mm_segments(sf_dir: str):
    """Interleaved text+media document derivation, span-order parity:
    every document exploded to its ordered (pos, kind, content) segment
    rows — text chunks at even positions, deterministic media refs
    between them (`segment_rows`, one vectorized batch pass, no
    shuffle). The exact interleaved shape `interleaved_docs` feeds the
    multimodal export/pack path."""
    from ..functions.multimodal import segment_rows

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)
    return segment_rows(docs)


SQL_MM_SEGMENTS = f"""
WITH {_MM_CHUNKS_CTE}
SELECT doc_id, (2*c)::BIGINT AS pos, 'text' AS kind, chunk AS content
FROM chunks
UNION ALL
SELECT doc_id, (2*c+1)::BIGINT, 'media', ref FROM media
"""


def q_mm_media_dedup(sf_dir: str):
    """Corpus-level media dedup accounting: distinct media refs with use
    counts and first-owner doc (refs deliberately repeat across docs).
    Only (ref, doc_id) pairs shuffle — the multimodal analog of
    `dedup_exact`'s (hash, id) exchange."""
    from ..functions.multimodal import segment_rows
    from ..functions.relational import grouped_agg

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)
    segs = segment_rows(docs)
    med = segs.map_batches(
        lambda df: df.loc[df["kind"] == "media",
                          ["doc_id", "content"]].rename(
                              columns={"content": "ref"}),
        batch_format="pandas",
    )
    out = grouped_agg(med, ["ref"], {
        "n_uses": ("doc_id", "count"),
        "first_doc": ("doc_id", "min"),
    })
    return out.map_batches(
        lambda df: df.assign(n_uses=df["n_uses"].astype("int64"),
                             first_doc=df["first_doc"].astype("int64")),
        batch_format="pandas",
    )


SQL_MM_MEDIA_DEDUP = f"""
WITH {_MM_CHUNKS_CTE}
SELECT ref, count(*)::BIGINT AS n_uses, min(doc_id)::BIGINT AS first_doc
FROM media GROUP BY ref
"""


def q_mm_pack(sf_dir: str):
    """Multimodal sequence packing: interleaved docs greedily packed
    into token bins per language (`interleaved_docs` →
    `pack_interleaved`); each bin's media refs, in exact segment order,
    are string-joined and value-hashed against the oracle's ordered
    string_agg — media survive packing in document order."""
    from ..functions.multimodal import interleaved_docs
    from ..functions.text import pack_interleaved

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "lang", "text"],
                      bytes_per_block=_DOC_BPB)
    docs = interleaved_docs(docs, keep_cols=("lang",))
    packed = pack_interleaved(docs, capacity=_PACK_CAPACITY)

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        refs = df["segments"].map(
            lambda segs: ",".join(
                s["media_ref"] for s in segs if s["kind"] == "media"))
        return pd.DataFrame({
            "lang": df["lang"],
            "seq_id": df["seq_id"].astype("int64"),
            "n_docs": df["n_docs"].astype("int64"),
            "seq_tokens": df["seq_tokens"].astype("int64"),
            "n_media": df["n_media"].astype("int64"),
            "refs": refs,
        })

    return packed.map_batches(fin, batch_format="pandas")


SQL_MM_PACK = f"""
WITH RECURSIVE {_MM_CHUNKS_CTE},
ntok AS (
  SELECT doc_id, lang, len(w)::BIGINT AS n_tokens FROM toks
),
ord AS (
  SELECT lang, doc_id, n_tokens,
         row_number() OVER (PARTITION BY lang ORDER BY doc_id) AS rn
  FROM ntok
),
walk AS (
  SELECT lang, doc_id, n_tokens, rn,
         0::BIGINT AS seq_id, n_tokens AS fill
  FROM ord WHERE rn = 1
  UNION ALL
  SELECT o.lang, o.doc_id, o.n_tokens, o.rn,
         CASE WHEN w.fill + o.n_tokens > {_PACK_CAPACITY}
              THEN w.seq_id + 1 ELSE w.seq_id END,
         CASE WHEN w.fill + o.n_tokens > {_PACK_CAPACITY}
              THEN o.n_tokens ELSE w.fill + o.n_tokens END
  FROM walk w JOIN ord o ON o.lang = w.lang AND o.rn = w.rn + 1
),
seqs AS (
  SELECT lang, seq_id, count(*)::BIGINT AS n_docs,
         sum(n_tokens)::BIGINT AS seq_tokens
  FROM walk GROUP BY 1, 2
),
med AS (
  SELECT w.lang, w.seq_id, count(*)::BIGINT AS n_media,
         string_agg(m.ref, ',' ORDER BY m.doc_id, m.c) AS refs
  FROM walk w JOIN media m ON m.doc_id = w.doc_id
  GROUP BY 1, 2
)
SELECT s.lang, s.seq_id, s.n_docs, s.seq_tokens,
       coalesce(med.n_media, 0)::BIGINT AS n_media,
       coalesce(med.refs, '') AS refs
FROM seqs s LEFT JOIN med ON med.lang = s.lang AND med.seq_id = s.seq_id
"""


def q_dup_spans_clean(sf_dir: str):
    """Passage-level dedup REMOVAL (the action to `dup_spans`'
    detection): every word covered by a cross-doc duplicated 8-gram is
    deleted and the text reassembled — the cleaned text itself is
    value-hashed against the oracle's ordered rebuild."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)
    return dedup.remove_dup_spans(docs, k=8)


SQL_DUP_SPANS_CLEAN = """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
),
grams AS (
  SELECT doc_id, unnest(generate_series(1, len(w) - 7)) AS start_word, w
  FROM toks WHERE len(w) >= 8
),
g2 AS (
  SELECT doc_id, start_word,
         array_to_string(w[start_word:start_word + 7], ' ') AS g
  FROM grams
),
dup AS (
  SELECT g FROM g2 GROUP BY g HAVING count(DISTINCT doc_id) >= 2
),
covered AS (
  SELECT DISTINCT g2.doc_id,
         unnest(generate_series(start_word, start_word + 7)) AS pos
  FROM g2 JOIN dup USING (g)
),
words AS (
  SELECT doc_id, unnest(w) AS word,
         generate_subscripts(w, 1) AS pos
  FROM toks
),
kept AS (
  SELECT wd.doc_id, wd.word, wd.pos
  FROM words wd LEFT JOIN covered c
    ON c.doc_id = wd.doc_id AND c.pos = wd.pos
  WHERE c.pos IS NULL
)
SELECT t.doc_id,
       coalesce((SELECT string_agg(k.word, ' ' ORDER BY k.pos)
                 FROM kept k WHERE k.doc_id = t.doc_id), '') AS text_clean,
       len(t.w)::BIGINT AS n_words,
       (SELECT count(*) FROM kept k2
        WHERE k2.doc_id = t.doc_id)::BIGINT AS n_words_kept
FROM toks t
"""


def q_kmeans_audit(sf_dir: str, audit_max: int = 200_000):
    """Distributed spherical k-means self-audit (the
    fingerprint_invariants pattern): run the distributed Lloyd, then
    recompute the same fixed-seed Lloyd single-node on the driver and
    count assignment mismatches. A mismatch only counts when the
    point's top-2 centroid similarities differ by > 1e-9: per-centroid
    partial sums reduce in block order, so distributed vs single-node
    centroids agree only up to float64 reassociation and a near-tie
    point may legitimately flip.

    Driver-memory bound: the single-node Lloyd reads the full
    embeddings table onto the driver, so above ``audit_max`` rows the
    audit runs on a deterministic hash-sample of vec_ids instead —
    Lloyd parity is then certified at sample scale and the full-corpus
    run relies on the sample-scale certificate (at 100 TB the audit is
    a sampling check by construction, never a full driver read)."""
    from ..functions.similarity import (
        _stack_normalized,
        kmeans,
        train_centroids,
    )

    K, ITERS = 8, 5
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n_total = ds.count()
    if n_total > audit_max:
        # deterministic hash-sample: both legs (distributed + driver)
        # see the SAME subset, so Lloyd parity still holds exactly
        keep_mod = max(2, n_total // audit_max)

        def hsample(df: pd.DataFrame) -> pd.DataFrame:
            ids = df["vec_id"].to_numpy().astype(np.uint64)
            h = (ids * np.uint64(2654435761)) % np.uint64(2**32)
            return df[h % np.uint64(keep_mod) == 0]

        ds = ds.map_batches(hsample, batch_format="pandas").materialize()

    _C, assign = kmeans(ds, k=K, iters=ITERS)
    got = assign.to_pandas().sort_values("vec_id").reset_index(drop=True)

    # single-node reference with the same init (content-hash sample)
    C0 = train_centroids(ds, num_cells=K, id_col="vec_id")
    C0 = C0 / np.maximum(np.linalg.norm(C0, axis=1, keepdims=True), 1e-12)
    t = ds.to_pandas().sort_values("vec_id").reset_index(drop=True)
    X = _stack_normalized(t["embedding"])
    Cr = C0
    for _ in range(ITERS):
        a = np.argmax(X @ Cr.T, axis=1)
        newC = Cr.copy()
        for c in range(K):
            m = X[a == c]
            if len(m):
                newC[c] = m.mean(axis=0)
        Cr = newC / np.maximum(
            np.linalg.norm(newC, axis=1, keepdims=True), 1e-12)
    S = X @ Cr.T
    want = np.argmax(S, axis=1)
    got_c = got["cluster"].to_numpy()
    diff = got_c != want
    if diff.any():
        # forgive only genuine float near-ties: the cluster the
        # DISTRIBUTED path chose must itself sit within 1e-9 of the
        # reference's best similarity (a reference-side tie between two
        # OTHER clusters must not excuse a wrong assignment)
        rows = np.nonzero(diff)[0]
        gap = S[rows, want[rows]] - S[rows, got_c[rows]]
        mism = int((gap > 1e-9).sum())
    else:
        mism = 0
    return pd.DataFrame({
        "n_points": np.array([n_total], dtype="int64"),
        "k": np.array([K], dtype="int64"),
        "n_mismatch": np.array([mism], dtype="int64"),
    })


SQL_KMEANS_AUDIT = """
SELECT count(*)::BIGINT AS n_points, 8::BIGINT AS k,
       0::BIGINT AS n_mismatch
FROM embeddings
"""


def q_pca_audit(sf_dir: str, audit_max: int = 200_000):
    """Distributed PCA self-audit (`functions/similarity.py:pca_fit` —
    one moment-partials pass, d×d eigh on the driver). Machine-checked,
    all folded into ``n_mismatch`` (SQL pins 0):

    1. covariance parity — block-order-merged moments vs a single-node
       numpy recompute, entrywise |Δ| ≤ 1e-8·(1+max|cov|);
    2. subspace parity — the top-k projection operators CᵀC of both
       fits agree to 1e-5 (sign/rotation-invariant, so float
       reassociation can't flake it the way raw eigenvector
       comparison would);
    3. variance capture — the DISTRIBUTED sum of squared projected
       coords (a second streaming pass through `pca_project`) equals
       n·Σλ_topk to 1e-6 relative: the eigenvalues the driver derived
       really do describe the data the cluster projected.

    Driver-memory bound: like `kmeans_audit`, above ``audit_max`` rows
    both legs run on the same deterministic hash-sample — at 100 TB the
    parity certificate is sample-scale by construction."""
    from ..functions.similarity import pca_fit, pca_project

    K = 4
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n_total = ds.count()
    if n_total > audit_max:
        keep_mod = max(2, n_total // audit_max)

        def hsample(df: pd.DataFrame) -> pd.DataFrame:
            ids = df["vec_id"].to_numpy().astype(np.uint64)
            h = (ids * np.uint64(2654435761)) % np.uint64(2**32)
            return df[h % np.uint64(keep_mod) == 0]

        ds = ds.map_batches(hsample, batch_format="pandas").materialize()

    mean, comps, evals = pca_fit(ds, k=K)
    mism = 0

    # 1. covariance parity vs single-node recompute
    t = ds.to_pandas()
    X = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    n = len(X)
    mu_r = X.mean(axis=0)
    cov_r = (X.T @ X) / n - np.outer(mu_r, mu_r)
    cov_d = None  # recompute the distributed cov from the fit outputs?
    # pca_fit does not expose cov; recompute its partials path inline
    # (same block-order reduce) to audit the merge arithmetic itself
    p = ds.map_batches(
        lambda df: pd.DataFrame({
            "n": [len(df)],
            "s": [np.stack(df["embedding"].to_numpy())
                  .astype(np.float64).sum(axis=0).tolist()],
            "ss": [(lambda M: (M.T @ M).ravel().tolist())(
                np.stack(df["embedding"].to_numpy()).astype(np.float64))],
        }),
        batch_format="pandas").to_pandas()
    d = len(mu_r)
    s = np.add.reduce([np.asarray(x) for x in p["s"]])
    S = np.add.reduce([np.asarray(x).reshape(d, d) for x in p["ss"]])
    cov_d = S / n - np.outer(s / n, s / n)
    tol = 1e-8 * (1.0 + np.abs(cov_r).max())
    mism += int((np.abs(cov_d - cov_r) > tol).sum())

    # 2. subspace parity (projection operators)
    ev_r, evec_r = np.linalg.eigh(cov_r)
    Cr = evec_r[:, np.argsort(ev_r)[::-1][:K]].T
    Pd = comps.T @ comps
    Pr = Cr.T @ Cr
    if np.abs(Pd - Pr).max() > 1e-5:
        mism += 1

    # 3. distributed variance capture vs n·Σλ
    proj = pca_project(ds, mean, comps)
    ssq = proj.map_batches(
        lambda df: pd.DataFrame(
            {"ssq": [float((np.stack(df["pc"].to_numpy()) ** 2).sum())]}),
        batch_format="pandas").to_pandas()["ssq"].sum()
    want = n * float(evals.sum())
    if abs(ssq - want) > 1e-6 * max(want, 1.0):
        mism += 1

    return pd.DataFrame({
        "n_points": pd.Series([n_total], dtype="int64"),
        "k": pd.Series([K], dtype="int64"),
        "n_mismatch": pd.Series([mism], dtype="int64"),
    })


SQL_PCA_AUDIT = """
SELECT count(*)::BIGINT AS n_points, 4::BIGINT AS k,
       0::BIGINT AS n_mismatch
FROM embeddings
"""


def q_dup_spans(sf_dir: str):
    """Passage-level exact dedup: every (doc_id, start_word) occurrence
    of a word-8-gram shared by >= 2 distinct docs, with the sharing-doc
    count. The Ray side groups 64-bit rolling hashes (scale path); the
    oracle groups the actual k-gram strings — equal unless a 64-bit
    collision conflates distinct grams (~1e-9 at sf0.01)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)
    return dedup.dup_span_occurrences(docs, k=8)


SQL_DUP_SPANS = """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
),
grams AS (
  SELECT doc_id, unnest(generate_series(1, len(w) - 7)) AS start_word, w
  FROM toks WHERE len(w) >= 8
),
g2 AS (
  SELECT doc_id, start_word,
         array_to_string(w[start_word:start_word + 7], ' ') AS g
  FROM grams
),
dup AS (
  SELECT g, count(DISTINCT doc_id) AS n_docs
  FROM g2 GROUP BY g HAVING count(DISTINCT doc_id) >= 2
)
SELECT g2.doc_id::BIGINT AS doc_id, g2.start_word::BIGINT AS start_word,
       d.n_docs::BIGINT AS n_docs
FROM g2 JOIN dup d USING (g)
"""


# ---------------------------------------------------------------------------
# crawl pipelines as queries (rows-only; corpus synthesized per sf)
# ---------------------------------------------------------------------------

_SF_CORPUS = {  # sf name → (hosts, pages/host)
    "sf0.001": (6, 80),
    "sf0.01": (10, 480),
    "sf0.1": (24, 2000),
}


def _crawl_run_dir(sf_dir: str) -> str:
    from ..pipelines.crawl import CrawlRun
    from ..sources.corpus import default_seeds, generate_corpus

    sf = os.path.basename(os.path.normpath(sf_dir)) or "sf0.01"
    hosts, pages = _SF_CORPUS.get(sf, (10, 480))
    # versioned cache dir: bump when run-dir schemas change so stale runs
    # from an older build are never resumed (v3: src column + archives)
    base = os.environ.get("CSR_SCRATCH", "/tmp/csr_cache_v3")
    corpus_dir = os.path.join(base, f"corpus_{hosts}x{pages}")
    run_dir = os.path.join(base, f"run_{hosts}x{pages}")
    generate_corpus(corpus_dir, num_hosts=hosts, pages_per_host=pages,
                    fanout=3, cross=2, num_buckets=16)
    cfg = CrawlConfig(
        corpus_dir=corpus_dir,
        run_dir=run_dir,
        seeds=default_seeds(hosts),
        politeness=PolitenessConfig(min_gap_ms=10, epoch_ms=4000),
        max_epochs=40,
        num_seen_shards=8,
    )
    CrawlRun(cfg).run(resume=True)  # completed runs return instantly
    return run_dir


def q_crawl_fetched(sf_dir: str):
    """The flagship frontier crawl; returns fetched docs (spans dropped
    for the driver's hasher — span equality is pinned by pytest)."""
    from ..pipelines.crawl import fetched_dataset

    run_dir = _crawl_run_dir(sf_dir)
    return fetched_dataset(run_dir).drop_columns(["spans"])


def q_crawl_stats(sf_dir: str):
    from ..pipelines.crawl import crawl_stats_table

    return crawl_stats_table(_crawl_run_dir(sf_dir))


def q_crawl_media_features(sf_dir: str):
    from ..pipelines.crawl import fetched_dataset

    run_dir = _crawl_run_dir(sf_dir)
    return multimodal.media_features(fetched_dataset(run_dir))


def q_crawl_page(sf_dir: str):
    """Paginated consumer drain (the reference's ``fetch_mdata(n)``,
    `/root/reference/application.py:255-274`): deliver the SECOND page of
    500 fetched rows by passing the first page's cursor back — exercises
    restartable pagination end to end."""
    from ..pipelines.crawl import drain_fetched

    run_dir = _crawl_run_dir(sf_dir)
    _page1, cursor = drain_fetched(run_dir, 500)
    page2, _ = drain_fetched(run_dir, 500, cursor)
    return page2.drop_columns(["spans"])


def q_bpe_audit(sf_dir: str):
    """Distributed BPE-merge training audit (the tokenizer-training
    pass): `bpe_train_merges` learns 8 merges — one corpus exchange
    builds the weighted word table, then each round is one streaming
    pass with vectorized flat-array pair kernels and a driver argmax
    over the vocabulary-bounded pair partials. The audit re-trains with
    the independent dict/loop single-node reference (`bpe_reference`,
    no shared kernels) on the collected word table and counts merge-list
    mismatches (0 — integer counts + lexicographic tiebreak make parity
    exact). The FIRST merge pair and its count are additionally
    recomputed by the oracle in pure SQL (adjacent-char pair statistics
    via substr/generate_series), so the top of the merge list is pinned
    to data, not trusted."""
    from ..functions.text import (_bpe_word_table, bpe_reference,
                                  bpe_train_merges)

    docs = read_table(sf_dir, "documents", columns=["text"],
                      bytes_per_block=_DOC_BPB)
    got = bpe_train_merges(docs, num_merges=8, num_partitions=8)
    wc = _bpe_word_table(docs, "text", num_partitions=8).to_pandas()
    want = bpe_reference(wc, num_merges=8)
    n = max(len(got), len(want))
    mism = 0
    for i in range(n):
        a = got.iloc[i].tolist() if i < len(got) else None
        b = want.iloc[i].tolist() if i < len(want) else None
        if a != b:
            mism += 1
    return pd.DataFrame({
        "n_merges": pd.Series([len(got)], dtype="int64"),
        "n_mismatch": pd.Series([mism], dtype="int64"),
        "top_left": [got["left"].iloc[0] if len(got) else ""],
        "top_right": [got["right"].iloc[0] if len(got) else ""],
        "top_count": pd.Series(
            [got["pair_count"].iloc[0] if len(got) else 0], dtype="int64"),
    })


SQL_BPE_AUDIT = """
WITH words AS (
  SELECT word, count(*)::BIGINT AS wcount
  FROM (SELECT unnest(string_split(text, ' ')) AS word FROM documents)
  WHERE word <> '' GROUP BY 1),
pairs AS (
  SELECT substr(word, i, 1) AS l, substr(word, i + 1, 1) AS r,
         sum(wcount)::BIGINT AS cnt
  FROM words, unnest(generate_series(1, length(word) - 1)) AS t(i)
  WHERE length(word) >= 2
  GROUP BY 1, 2),
top AS (SELECT l, r, cnt FROM pairs ORDER BY cnt DESC, l, r LIMIT 1)
SELECT 8::BIGINT AS n_merges, 0::BIGINT AS n_mismatch,
       l AS top_left, r AS top_right, cnt AS top_count
FROM top
"""


def q_bpe_encode(sf_dir: str):
    """Distributed BPE ENCODE against a FULL SQL replay: train 8 merges
    over the corpus (`bpe_train_merges`), apply them in one streaming
    broadcast pass (`bpe_encode_counts` — unique words per batch, no
    exchange), and emit per-document (n_words, n_bpe_tokens) for
    doc_id < 200. The oracle is not an invariant check: it RE-TRAINS
    the same 8 merges in pure SQL (8 unrolled rounds of adjacent-pair
    statistics + argmax with the same (cnt DESC, left, right) tiebreak
    — DuckDB's binary collation equals Python's codepoint order) and
    RE-APPLIES them with `replace()` over chr(31)-delimited symbol
    strings, whose left-to-right non-overlapping semantics equal the
    trainer's greedy-leftmost merge, so token counts are hash-compared
    end-to-end."""
    from ..functions.text import bpe_encode_counts, bpe_train_merges

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)
    merges = bpe_train_merges(docs, num_merges=8, num_partitions=8)
    sample = docs.map_batches(
        lambda d: _catempty(d[d["doc_id"] < 200]),
        batch_format="pandas")
    enc = bpe_encode_counts(sample, merges)
    return enc.map_batches(
        lambda df: df[df["n_words"] > 0], batch_format="pandas")


def _make_bpe_encode_sql(num_merges: int = 8,
                         sample: str = "doc_id < 200") -> str:
    """Generate the unrolled BPE train+encode SQL: each round computes
    weighted adjacent-pair counts over the chr(31)-delimited symbol
    representation, picks the argmax, and applies it via replace()
    (both-side delimiters make symbol boundaries unambiguous). Static
    and data-independent — only the round count is templated."""
    rounds, prev = [], "w0"
    for k in range(num_merges):
        cur = f"w{k + 1}"
        rounds.append(f"""
p{k} AS (
  SELECT syms[i] AS l, syms[i+1] AS r, sum(wcount)::BIGINT AS cnt
  FROM (SELECT wcount, string_split(rep, chr(31)) AS syms FROM {prev}) s,
       unnest(generate_series(2, len(s.syms) - 2)) AS t(i)
  GROUP BY 1, 2),
b{k} AS (SELECT l, r FROM p{k} ORDER BY cnt DESC, l, r LIMIT 1),
{cur} AS (
  SELECT word, wcount,
         replace(rep, chr(31) || b.l || chr(31) || b.r || chr(31),
                 chr(31) || b.l || b.r || chr(31)) AS rep
  FROM {prev} CROSS JOIN b{k} b)""")
        prev = cur
    return f"""
WITH words AS (
  SELECT word, count(*)::BIGINT AS wcount
  FROM (SELECT unnest(string_split(text, ' ')) AS word FROM documents)
  WHERE word <> '' GROUP BY 1),
w0 AS (
  SELECT word, wcount,
         chr(31) || array_to_string(string_split(word, ''), chr(31))
           || chr(31) AS rep
  FROM words),
{','.join(rounds)},
enc AS (
  SELECT word,
         (length(rep) - length(replace(rep, chr(31), '')) - 1)::BIGINT
           AS wtok
  FROM {prev}),
dw AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS word
  FROM documents WHERE {sample})
SELECT doc_id, count(*)::BIGINT AS n_words,
       sum(wtok)::BIGINT AS n_bpe_tokens
FROM (SELECT doc_id, word FROM dw WHERE word <> '') d
JOIN enc USING (word)
GROUP BY doc_id
"""


SQL_BPE_ENCODE = _make_bpe_encode_sql(8)


def _copurchase_edges(sf_dir: str, nparts: int = 16):
    """Distinct canonical ``u < v`` part co-purchase edges (two parts
    bought in the same order) WITHOUT a lineitem self-join: rows
    co-partition by order hash, each partition sorts by orderkey once
    and emits its per-order pairs with vectorized run arithmetic (no
    Python loop over orders). Shared by `triangle_count` and
    `clustering_coeff`."""
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_orderkey", "l_partkey"])

    def pairs_of(part: pd.DataFrame) -> pd.DataFrame:
        p = part.sort_values(["l_orderkey", "l_partkey"], kind="mergesort")
        key = p["l_orderkey"].to_numpy()
        val = p["l_partkey"].to_numpy()
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        lens = np.diff(np.r_[starts, len(key)])
        pos = np.arange(len(key)) - np.repeat(starts, lens)
        j = np.repeat(np.arange(len(key)), pos)
        seg_starts = np.cumsum(pos) - pos
        off = np.arange(pos.sum(), dtype=np.int64) \
            - np.repeat(seg_starts, pos)
        i = j - pos[j] + off
        # sorted by partkey within the order run, so val[i] <= val[j];
        # equal pairs (same part twice in one order) are not edges
        keep = val[i] != val[j]
        return pd.DataFrame({"u": val[i][keep], "v": val[j][keep]})

    pairs = li.map_batches(
        lambda d: d.assign(__op=(d["l_orderkey"].to_numpy()
                                 .astype(np.uint64)
                                 * np.uint64(0x9E3779B97F4A7C15)
                                 % np.uint64(nparts)).astype("int64")),
        batch_format="pandas",
    ).groupby("__op").map_groups(
        lambda g: pairs_of(g.drop(columns="__op")),
        batch_format="pandas",
    )
    return distinct(pairs, ["u", "v"], merge_partitions=nparts)


def q_dedup_incremental_audit(sf_dir: str):
    """EQUIVALENCE oracle for incremental LSH dedup against a persisted
    index (`dedup.minhash_index_write` + `minhash_dedup_incremental`,
    the kmeans_audit parity pattern): treat doc_id < 100 as today's
    delta and the rest as the already-indexed corpus; the incremental
    run (band the delta only, path-prune index shards, candidates must
    touch the delta) must produce EXACTLY the full-corpus
    `minhash_lsh_pairs` restricted to pairs touching the delta. Emits
    (n_delta_docs, n_mismatch); SQL recomputes the delta count and
    asserts zero mismatches."""
    import tempfile

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)
    new_ds = docs.map_batches(
        lambda d: _catempty(d[d["doc_id"] < 100]),
        batch_format="pandas").materialize()
    base_ds = docs.map_batches(
        lambda d: _catempty(d[d["doc_id"] >= 100]),
        batch_format="pandas").materialize()

    with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
        idx = os.path.join(tmp, "lshidx")
        dedup.minhash_index_write(base_ds, idx, num_perm=128, bands=32,
                                  num_shards=8)
        got = dedup.minhash_dedup_incremental(
            new_ds, idx, base_ds, threshold=0.7).to_pandas()

    full = dedup.minhash_lsh_pairs(docs, num_perm=128, bands=32,
                                   threshold=0.7).to_pandas()
    touch = full[(full["id_a"] < 100) | (full["id_b"] < 100)]
    key = ["id_a", "id_b"]
    g = got.sort_values(key).reset_index(drop=True)
    w = touch.sort_values(key).reset_index(drop=True)
    mismatch = 0 if (len(g) == len(w)
                     and (g[key].to_numpy() == w[key].to_numpy()).all()
                     and np.allclose(g["jaccard"], w["jaccard"])
                     ) else max(abs(len(g) - len(w)), 1)
    return pd.DataFrame({
        "n_delta_docs": np.array([new_ds.count()], dtype="int64"),
        "n_mismatch": np.array([mismatch], dtype="int64"),
    })


SQL_DEDUP_INCREMENTAL_AUDIT = """
SELECT count(*)::BIGINT AS n_delta_docs, 0::BIGINT AS n_mismatch
FROM documents WHERE doc_id < 100
"""


def q_type_entropy(sf_dir: str):
    """Per-user Shannon entropy (base 2) of the event-type distribution
    — the behavioral-diversity score a bot/fraud triage ranks on (a
    scripted client hammers one endpoint, H≈0; a human browses, H→
    log2 |types|). ONE user-hash exchange: per-block (user, type)
    partial counts bound what moves to ≤ users×types rows per block,
    and (user, type) co-locates under the user hash so the merged
    partition computes exact counts, shares and the entropy sum with
    vectorized groupby transforms — nothing user-scale on the driver.
    Terms fold in sorted (user, type) order; 6-dp rounding on both
    engines absorbs reassociation ulps."""
    from ..functions.relational import grouped_apply

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["user_id", "event_type"], sort=False)
             .size().reset_index(name="c"))
        g["c"] = g["c"].astype("int64")
        return g

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        gg = (g.groupby(["user_id", "event_type"], sort=True)["c"]
              .sum().reset_index())
        n = gg.groupby("user_id", sort=False)["c"].transform("sum")
        p = gg["c"].to_numpy(dtype="float64") / n.to_numpy(dtype="float64")
        gg = gg.assign(__term=-p * np.log2(p))
        out = (gg.groupby("user_id", sort=False)
               .agg(n_events=("c", "sum"), entropy=("__term", "sum"))
               .reset_index())
        out["n_events"] = out["n_events"].astype("int64")
        out["entropy"] = np.round(out["entropy"].to_numpy(), 6)
        return out

    return grouped_apply(
        ds.map_batches(partial, batch_format="pandas"),
        ["user_id"], per_part, num_partitions=16)


def q_scd2(sf_dir: str):
    """SCD Type-2 history build — turn each user's change events into
    validity intervals (value, valid_from, valid_to), the warehouse
    dimension-history primitive (`cdc_upsert` keeps only the latest;
    this keeps ALL versions queryable as-of any time). ONE user-hash
    exchange; per partition a mergesort + grouped shift produces
    valid_to = the next change's timestamp (NULL for the current
    version) — the lead() window replayed by the oracle with the
    (ts, event_id) tiebreak."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "value"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        nxt = g.groupby("user_id", sort=False)["ts"].shift(-1)
        return pd.DataFrame({
            "event_id": g["event_id"].astype("int64"),
            "user_id": g["user_id"].astype("int64"),
            "value": g["value"],
            "valid_from": g["ts"],
            "valid_to": nxt,
        })

    return grouped_apply(ev, ["user_id"], per_part, num_partitions=16)


def q_membership_combos(sf_dir: str):
    """UpSet-style membership-combination counts — how many users hit
    exactly each SUBSET of event types (the overlap diagnostic behind
    an UpSet plot; pairwise overlaps like `hll_set_ops` can't separate
    "view+click" from "view+click+purchase"): per-block (user, bitmask)
    OR-partials bound the exchange to ≤ users×blocks rows, a grouped
    bit_or merges masks under the user hash, and the ≤ 2^|types| combo
    counts close in a tiny second aggregate. Types map to fixed bit
    positions sorted alphabetically — mirrored by the oracle."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "event_type"])
    types = ["click", "error", "purchase", "signup", "view"]
    bit = {t: 1 << i for i, t in enumerate(types)}

    def partial(d: pd.DataFrame) -> pd.DataFrame:
        # the sparse slice (event_id % 11 == 0) keeps per-user type
        # sets PARTIAL so the combo histogram is non-degenerate — with
        # the full log every user hits all five types
        d = d[d["event_id"].to_numpy(dtype="int64") % 11 == 0]
        m = d["event_type"].map(bit).to_numpy(dtype="int64")
        g = pd.DataFrame({"user_id": d["user_id"].astype("int64"),
                          "m": m})
        return (g.groupby("user_id", sort=False)["m"]
                .agg(lambda s: np.bitwise_or.reduce(s.to_numpy()))
                .reset_index(name="mask"))

    def merge_masks(part: pd.DataFrame) -> pd.DataFrame:
        out = (part.groupby("user_id", sort=False)["mask"]
               .agg(lambda s: np.bitwise_or.reduce(s.to_numpy()))
               .reset_index(name="mask"))
        return out

    masks = grouped_apply(
        ev.map_batches(partial, batch_format="pandas"),
        ["user_id"], merge_masks, num_partitions=8)
    return grouped_agg(masks, ["mask"],
                       {"n_users": ("user_id", "count")})


# qualified-pair-count gate for q_item2item's broadcast-filter fast
# path (pytest pins both paths equal by zeroing it)
_ITEM2ITEM_GATE = 100_000


def q_item2item(sf_dir: str):
    """Item-to-item co-occurrence similarity, top-3 per part (the
    Amazon-style recommender primitive over the co-purchase baskets):
    sim(i,j) = c_ij / √(c_i·c_j) — cosine over binary basket vectors.
    Pair supports reuse `frequent_pairs`' run-arithmetic kernel (one
    basket-hash exchange, pre-aggregated); per-item supports attach
    through TWO bucketed joins (the item table is corpus-scale — never
    broadcast); similarities round at 6 dp BEFORE the per-item top-3
    (sim DESC, other ASC), the `tfidf` ranking contract."""
    from ..functions.relational import (
        bucketed_hash_join, frequent_pairs, topk_per_group)

    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_orderkey", "l_partkey"])
    pairs = frequent_pairs(li, "l_orderkey", "l_partkey",
                           min_support=3).materialize()

    # the qualified pair list is OUTPUT-scale (min_support prunes it);
    # below the gate, attach supports by broadcast-filtering the
    # basket stream to the pair items (one shuffle-free pass + a tiny
    # distinct) instead of TWO corpus-scale bucketed joins — the
    # measured exchange overhead at sf0.1 is 2.5 s for a 2-row pair
    # table. Above the gate the bucketed-join path stands (the item
    # table is corpus-scale and never broadcasts).
    if pairs.count() <= _ITEM2ITEM_GATE:
        pdf = pairs.to_pandas()
        if len(pdf) == 0:
            return pd.DataFrame({
                "item": pd.Series(dtype="int64"),
                "other": pd.Series(dtype="int64"),
                "sim": pd.Series(dtype="float64")})
        need_ref = ray.put(np.unique(np.concatenate(
            [pdf["item_a"].to_numpy("int64"),
             pdf["item_b"].to_numpy("int64")])))

        def only_needed(d: pd.DataFrame) -> pd.DataFrame:
            need = ray.get(need_ref)
            it = d["l_partkey"].to_numpy("int64")
            keep = np.isin(it, need)
            return pd.DataFrame({
                "bk": d["l_orderkey"].to_numpy("int64")[keep],
                "it": it[keep]})

        cnt = (grouped_agg(
            distinct(li.map_batches(only_needed,
                                    batch_format="pandas"),
                     ["bk", "it"], merge_partitions=2),
            ["it"], {"c": ("it", "count")})
            .to_pandas().set_index("it")["c"])
        ca = cnt.reindex(pdf["item_a"]).to_numpy(dtype="float64")
        cb = cnt.reindex(pdf["item_b"]).to_numpy(dtype="float64")
        sim = np.round(pdf["support"].to_numpy(dtype="float64")
                       / np.sqrt(ca * cb), 6)
        a = pdf["item_a"].to_numpy("int64")
        b = pdf["item_b"].to_numpy("int64")
        sym = pd.DataFrame({"item": np.concatenate([a, b]),
                            "other": np.concatenate([b, a]),
                            "sim": np.concatenate([sim, sim])})
        sym = sym.sort_values(["item", "sim", "other"],
                              ascending=[True, False, True],
                              kind="mergesort")
        out = sym.groupby("item", sort=False).head(3)
        return out.reset_index(drop=True)

    # per-item support = DISTINCT baskets containing it: per-batch
    # dedup alone under-counts nothing but can DOUBLE-count a
    # (basket, item) pair split across blocks — go through the
    # partitioned distinct first
    uniq = distinct(li.map_batches(
        lambda d: pd.DataFrame({"bk": d["l_orderkey"].astype("int64"),
                                "it": d["l_partkey"].astype("int64")}),
        batch_format="pandas"), ["bk", "it"], merge_partitions=8)
    items = grouped_agg(uniq, ["it"], {"c": ("it", "count")},
                        merge_partitions=8)

    pa_ = pairs.map_batches(
        lambda d: pd.DataFrame({"it": d["item_a"].astype("int64"),
                                "item_b": d["item_b"].astype("int64"),
                                "support": d["support"].astype("int64")}),
        batch_format="pandas")
    j1 = bucketed_hash_join(pa_, items, on="it", num_buckets=8)
    j1 = j1.map_batches(
        lambda d: pd.DataFrame({"item_a": d["it"].astype("int64"),
                                "it": d["item_b"].astype("int64"),
                                "support": d["support"].astype("int64"),
                                "ca": d["c"].astype("int64")}),
        batch_format="pandas")
    j2 = bucketed_hash_join(j1, items, on="it", num_buckets=8)

    def score(d: pd.DataFrame) -> pd.DataFrame:
        sim = np.round(
            d["support"].to_numpy(dtype="float64")
            / np.sqrt(d["ca"].to_numpy(dtype="float64")
                      * d["c"].to_numpy(dtype="float64")), 6)
        a = d["item_a"].to_numpy(dtype="int64")
        b = d["it"].to_numpy(dtype="int64")
        return pd.DataFrame({          # symmetrize
            "item": np.concatenate([a, b]),
            "other": np.concatenate([b, a]),
            "sim": np.concatenate([sim, sim]),
        })

    sym = j2.map_batches(score, batch_format="pandas")
    return topk_per_group(sym, ["item"], ["sim", "other"], k=3,
                          descending=[True, False])


def q_checksum_audit(sf_dir: str):
    """Per-bucket order-independent table checksums — the fast
    replication / migration equality check (compare 16 rows instead of
    1.5 M): checksum = Σ knuth_hash(orderkey) per hash bucket, so any
    dropped, duplicated or corrupted key flips its bucket's sum and
    count. Pure per-block partials + one tiny grouped sum — the
    cheapest possible full-table audit, and the unit a resumable
    copier verifies per shard. Exact integer arithmetic end to end."""
    orders = read_table(sf_dir, "orders", columns=["o_orderkey"])

    def partial(d: pd.DataFrame) -> pd.DataFrame:
        k = d["o_orderkey"].to_numpy(dtype="int64")
        h = (k.astype(np.uint64) * np.uint64(2654435761)
             % np.uint64(2**32)).astype("int64")
        g = pd.DataFrame({"bucket": h % 16, "h": h})
        out = g.groupby("bucket", sort=False).agg(
            checksum=("h", "sum"), n_rows=("h", "size")).reset_index()
        out["checksum"] = out["checksum"].astype("int64")
        out["n_rows"] = out["n_rows"].astype("int64")
        return out

    return grouped_agg(
        orders.map_batches(partial, batch_format="pandas"),
        ["bucket"], {"checksum": ("checksum", "sum"),
                     "n_rows": ("n_rows", "sum")})


def q_target_encode(sf_dir: str):
    """Leave-one-out target encoding of event_type against value — the
    category-to-number featurizer that avoids self-leakage: each row's
    encoding is (Σ_type value − own value)/(n_type − 1), so the row's
    own target never leaks into its feature (plain target-mean
    encoding overfits rare categories). One grouped_agg for the
    per-type (Σ, n) — 5 rows, broadcast back — then one vectorized
    streaming pass; singleton categories get NULL (0/0, SQL
    semantics). The 2-dp values scale to exact integer centi-units so
    the sum is bit-equal on both engines at any accumulation order —
    quotient ties are dense here (shared decimals), so no float-sum
    rounding contract can hold; 6 dp on the final quotient."""
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id", "event_type", "value"]
                    ).map_batches(
        # 2-dp money values scale to EXACT integer centi-units, making
        # the distributed sum bit-equal to the oracle's regardless of
        # accumulation order — a float sum straddled the round
        # boundary measurably often here (values share the same few
        # decimals, so quotient ties are dense, unlike `impute`)
        lambda d: d.assign(vi=np.rint(d["value"].to_numpy() * 100)
                           .astype("int64")),
        batch_format="pandas")
    stats = grouped_agg(
        ev, ["event_type"],
        {"s": ("vi", "sum"), "n": ("vi", "count")},
    ).to_pandas()  # |types| rows — the broadcast side
    out = broadcast_join(ev, stats, on="event_type")

    def enc(d: pd.DataFrame) -> pd.DataFrame:
        n = d["n"].to_numpy(dtype="float64")
        loo = (d["s"].to_numpy(dtype="float64")
               - d["vi"].to_numpy(dtype="float64")) \
            / np.where(n > 1, n - 1, np.nan) / 100.0
        # the exact-integer quotient lands on decimal .5 ties OFTEN
        # (centi-unit sums over small n) — half-away like SQL round()
        loo = np.copysign(np.floor(np.abs(loo) * 1e6 + 0.5), loo) / 1e6
        return pd.DataFrame({
            "event_id": d["event_id"].astype("int64"),
            "event_type": d["event_type"],
            "loo_mean": loo,
        })

    return out.map_batches(enc, batch_format="pandas")


def q_components_hist(sf_dir: str):
    """Connected-component size histogram of a SPARSE co-purchase
    subgraph (every 7th edge by a deterministic hash — the full graph
    is one blob; thinned it fragments, which is the regime where
    component analysis means something): reuses the dedup stack's
    distributed min-label propagation (`dedup.connected_components` —
    iterative co-partitioned exchanges, no driver union-find), then
    folds (component → size → histogram) in two tiny grouped
    aggregates. Oracle: the recursive-CTE reachability closure over
    the identically thinned edge set. Isolated nodes (no surviving
    edge) are out of scope on both engines — the pair list defines
    the universe."""
    from ..functions.dedup import connected_components

    nparts = 16
    edges = _copurchase_edges(sf_dir, nparts)
    sparse = edges.map_batches(
        lambda d: d.loc[(d["u"].to_numpy(dtype="int64") * 31
                         + d["v"].to_numpy(dtype="int64")) % 7 == 0]
        .rename(columns={"u": "id_a", "v": "id_b"}),
        batch_format="pandas")
    cl = connected_components(sparse, num_partitions=nparts)
    sizes = grouped_agg(cl, ["label"], {"size": ("node", "count")},
                        merge_partitions=8)
    return grouped_agg(
        sizes.map_batches(
            lambda d: pd.DataFrame({"size": d["size"].astype("int64")}),
            batch_format="pandas"),
        ["size"], {"n_components": ("size", "count")})


def q_agg_incremental(sf_dir: str):
    """Incremental materialized-view maintenance, hash-certified: the
    per-type revenue aggregate is maintained as BASE (first 80% of
    event ids) plus a DELTA (the rest) — two independently aggregated
    partial tables merged by one tiny grouped sum — and the oracle
    computes the same aggregate from scratch over everything, so the
    hash match certifies that the incremental fold equals the full
    recomputation (the `sessionize_incremental` contract for
    aggregates). Exact integer centi-units end to end — a maintained
    view must not drift by ulps as deltas fold in."""
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id", "event_type", "value"]
                    ).map_batches(
        lambda d: d.assign(vi=np.rint(d["value"].to_numpy() * 100)
                           .astype("int64")),
        batch_format="pandas")
    base = ev.map_batches(
        lambda d: d[d["event_id"].to_numpy(dtype="int64") % 5 != 0],
        batch_format="pandas")
    delta = ev.map_batches(
        lambda d: d[d["event_id"].to_numpy(dtype="int64") % 5 == 0],
        batch_format="pandas")
    base_agg = grouped_agg(base, ["event_type"],
                           {"s": ("vi", "sum"), "n": ("vi", "count")})
    delta_agg = grouped_agg(delta, ["event_type"],
                            {"s": ("vi", "sum"), "n": ("vi", "count")})
    merged = grouped_agg(base_agg.union(delta_agg), ["event_type"],
                         {"s": ("s", "sum"), "n": ("n", "sum")})
    return merged.map_batches(
        lambda d: pd.DataFrame({
            "event_type": d["event_type"],
            "n_events": d["n"].astype("int64"),
            "revenue": (d["s"].to_numpy(dtype="int64") // 100)
            .astype("int64"),
        }), batch_format="pandas")


def q_corr_matrix(sf_dir: str):
    """Pairwise Pearson correlation matrix of lineitem's four numeric
    measures — the profiler step after `profile` (which counts) and
    `corr` (one pair): all six pairs from ONE moment pass. Each block
    emits a single row of partial sums (n, Σxᵢ, Σxᵢ², Σxᵢxⱼ for i<j —
    15 floats), the driver folds blocks×1 rows and closes the six
    correlations; nothing else moves. 6-dp rounding on both engines;
    pairs ordered (col_a, col_b) lexicographic."""
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[cols].to_numpy(dtype="float64")
        out = {"n": [float(len(df))]}
        for i, a in enumerate(cols):
            out[f"s_{a}"] = [x[:, i].sum()]
            for j in range(i, len(cols)):
                out[f"x_{a}_{cols[j]}"] = [(x[:, i] * x[:, j]).sum()]
        return pd.DataFrame(out)

    p = li.map_batches(partial, batch_format="pandas").to_pandas()
    n = p["n"].sum()
    rows = []
    for i, a in enumerate(cols):
        for j in range(i + 1, len(cols)):
            b = cols[j]
            sa, sb = p[f"s_{a}"].sum(), p[f"s_{b}"].sum()
            cov = n * p[f"x_{a}_{b}"].sum() - sa * sb
            va = n * p[f"x_{a}_{a}"].sum() - sa * sa
            vb = n * p[f"x_{b}_{b}"].sum() - sb * sb
            rows.append((a, b, float(np.round(cov / np.sqrt(va * vb), 6))))
    return pd.DataFrame(rows, columns=["col_a", "col_b", "corr_ab"])


def q_macro_f1(sf_dir: str):
    """Per-class precision/recall/F1 of the Naive Bayes language
    predictor (`naive_bayes`'s eval leg — the multi-class completion of
    binary `classification_report`): predictions bucket-join the truth
    labels by doc id, the confusion reduces to ≤ |langs|² partial
    counts per block, and the tiny per-class table closes P/R/F1 on
    the driver. Classes with zero predictions or zero truth rows get
    NULL for the undefined ratios (SQL division semantics mirrored).
    The oracle re-runs the ENTIRE NB model in SQL and evaluates the
    same counts — training, inference and eval certified end to end."""
    from ..functions.relational import bucketed_hash_join
    from ..functions.text import naive_bayes_classify

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "text", "lang"],
                      bytes_per_block=_DOC_BPB)
    train = docs.map_batches(
        lambda d: _catempty(d[d["doc_id"] >= 100]),
        batch_format="pandas")
    test = docs.map_batches(
        lambda d: _catempty(d[d["doc_id"] < 100][["doc_id", "text"]]),
        batch_format="pandas")
    pred = naive_bayes_classify(train, test)
    truth = docs.map_batches(
        lambda d: d.loc[d["doc_id"] < 100, ["doc_id", "lang"]],
        batch_format="pandas")
    j = bucketed_hash_join(pred, truth, on="doc_id", num_buckets=4)

    def confusion(d: pd.DataFrame) -> pd.DataFrame:
        g = (d.groupby(["lang", "pred_lang"], sort=False).size()
             .reset_index(name="c"))
        g["c"] = g["c"].astype("int64")
        return g

    conf = grouped_agg(
        j.map_batches(confusion, batch_format="pandas"),
        ["lang", "pred_lang"], {"c": ("c", "sum")},
    ).to_pandas()  # <= |langs|^2 rows — model-constant

    langs = sorted(set(conf["lang"]).union(conf["pred_lang"]))
    rows = []
    for lg in langs:
        tp = int(conf.loc[(conf["lang"] == lg)
                          & (conf["pred_lang"] == lg), "c"].sum())
        fp = int(conf.loc[(conf["lang"] != lg)
                          & (conf["pred_lang"] == lg), "c"].sum())
        fn = int(conf.loc[(conf["lang"] == lg)
                          & (conf["pred_lang"] != lg), "c"].sum())
        prec = tp / (tp + fp) if tp + fp else float("nan")
        rec = tp / (tp + fn) if tp + fn else float("nan")
        f1 = (2 * prec * rec / (prec + rec)
              if tp + fp and tp + fn and prec + rec > 0 else float("nan"))
        rows.append((lg, np.int64(tp), np.int64(fp), np.int64(fn),
                     np.round(prec, 6), np.round(rec, 6),
                     np.round(f1, 6)))
    return pd.DataFrame(rows, columns=[
        "lang", "tp", "fp", "fn", "precision", "recall", "f1"])


def q_shuffle_shards(sf_dir: str):
    """Deterministic balanced shard assignment from the global hash
    order (`balanced_hash_shards`) — the reproducible-shuffle
    partitioner the export's `--shuffle-shards` writes. NO exchange:
    one model-constant bin-count pass (2^12 rows collect, prefix-summed
    like a sketch) + one streaming pass through a by-value bin→shard
    map. The oracle replays the identical coarse bins, cumulative
    counts and floor arithmetic in SQL, so the hash match certifies
    both the hash and the balance rule end-to-end."""
    from ..functions.relational import balanced_hash_shards

    docs = read_table(sf_dir, "documents", columns=["doc_id"])
    return balanced_hash_shards(docs, id_col="doc_id", num_shards=8)


SQL_SHUFFLE_SHARDS = """
WITH h AS (
  SELECT doc_id,
         ((doc_id::HUGEINT % 4294967296) * 2654435761) % 4294967296 AS hv
  FROM documents),
b AS (SELECT doc_id, hv // 1048576 AS bin FROM h),
c AS (SELECT bin, count(*) AS n FROM b GROUP BY bin),
o AS (SELECT bin,
             coalesce(sum(n) OVER (ORDER BY bin
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS bef,
             sum(n) OVER () AS tot
      FROM c)
SELECT b.doc_id, CAST((o.bef * 8) // o.tot AS BIGINT) AS shard
FROM b JOIN o USING (bin)
"""


def q_zorder(sf_dir: str):
    """Z-order (Morton) clustering layout — the multi-dimensional
    data-layout primitive (Delta/Iceberg `OPTIMIZE ZORDER`): quantize
    (price, order date) to 8-bit buckets with FIXED layout constants
    (like `histogram_price`'s fixed bin width — data-derived bounds
    would put float bucket boundaries at the mercy of expression
    order), interleave the bits into a 16-bit Morton code, and take
    its top 4 bits as the shard — rows landing in one shard are close
    in BOTH dimensions, so a reader filtering on either column skips
    most shards. One streaming pass computes codes vectorized
    (numpy bit ops over the whole batch), then per-shard (n, price
    range, day range) locality partials merge in `grouped_agg` — the
    stat a layout optimizer inspects. All-integer arithmetic after the
    fixed-constant floor-divisions, so the hash match is exact."""
    from ..functions.relational import grouped_agg

    ds = read_table(sf_dir, "orders",
                    columns=["o_totalprice", "o_orderdate"])

    def code(d: pd.DataFrame) -> pd.DataFrame:
        p = d["o_totalprice"].to_numpy(dtype="float64")
        days = d["o_orderdate"].astype("int64").to_numpy() // 86_400_000_000
        bx = np.clip(np.floor(p / 2000.0).astype("int64"), 0, 255)
        by = np.clip((days - 9131) // 10, 0, 255)
        z = np.zeros(len(d), dtype="int64")
        for i in range(8):
            z |= ((bx >> i) & 1) << (2 * i)
            z |= ((by >> i) & 1) << (2 * i + 1)
        return pd.DataFrame({"shard": z >> 12, "p": p, "d": days})

    return grouped_agg(
        ds.map_batches(code, batch_format="pandas"),
        ["shard"],
        {"n": ("p", "count"), "lo_price": ("p", "min"),
         "hi_price": ("p", "max"), "lo_day": ("d", "min"),
         "hi_day": ("d", "max")})


def q_max_subarray(sf_dir: str):
    """Per-user maximum-sum contiguous subarray (Kadane) over signed
    integer deviations — the burst detector: the hottest contiguous
    stretch of above-threshold spend in each user's event stream.
    Deviation x = round(value*100) − 10000 cents (fixed threshold, so
    both engines work in exact int64); order is (ts, event_id). ONE
    user-hash exchange; within a partition everything is vectorized
    pandas-groupby cumsum/shift/cummin — best_j = cum_j − min(0,
    min_{k<j} cum_k), the prefix-min identity, no per-row loop. The
    nonempty-subarray convention (all-negative users report their max
    single element) falls out of the same identity on both engines."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "value"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        x = pd.Series(
            np.rint(g["value"].to_numpy(dtype="float64") * 100)
            .astype("int64") - 10_000)
        grp = g["user_id"]
        cum = x.groupby(grp, sort=False).cumsum()
        prev = cum.groupby(grp, sort=False).shift(1)
        pmin_prev = prev.groupby(grp, sort=False).cummin()
        # prefix candidates are {0} ∪ {cum_k : k < j}: an empty prefix
        # (subarray starting at the first row) is always available.
        pmin = np.fmin(
            0.0, pmin_prev.fillna(0.0).to_numpy(dtype="float64"))
        best = cum.to_numpy(dtype="int64") - pmin.astype("int64")
        out = pd.DataFrame({"user_id": g["user_id"].astype("int64"),
                            "best": best})
        r = out.groupby("user_id", sort=False)["best"].max().reset_index()
        return r.rename(columns={"best": "best_sum"})

    return grouped_apply(ev, ["user_id"], per_part, num_partitions=16)


def q_theilsen(sf_dir: str):
    """Per-user Theil–Sen robust trend: the median over all pairwise
    slopes (Δvalue-cents / Δseconds) of the user's time-ordered
    events — outlier-immune where `trend_per_user`'s OLS is not.
    ONE user-hash exchange; within each partition a loop over USER
    GROUPS (bounded ~86 events → ≤3.7k pairs) with the pairwise
    slope matrix built by one numpy broadcast per user — no per-row
    Python. Equal-timestamp pairs are excluded (slope undefined);
    users with no strictly-later pair emit nothing, matching the SQL
    join's empty group."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "value"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        out_u, out_n, out_s = [], [], []
        for uid, gg in g.groupby("user_id", sort=False):
            t = gg["ts"].to_numpy("datetime64[us]").astype("int64")
            order = np.lexsort((gg["event_id"].to_numpy(), t))
            t = t[order]
            v = np.rint(gg["value"].to_numpy(dtype="float64")[order]
                        * 100)
            dt = t[None, :] - t[:, None]
            mask = dt > 0
            if not mask.any():
                continue
            dv = v[None, :] - v[:, None]
            slopes = dv[mask] / (dt[mask].astype("float64") / 1e6)
            out_u.append(int(uid))
            out_n.append(int(mask.sum()))
            out_s.append(float(np.median(slopes)))
        return pd.DataFrame({
            "user_id": np.array(out_u, dtype="int64"),
            "n_pairs": np.array(out_n, dtype="int64"),
            "slope_cps": np.round(np.array(out_s, dtype="float64"), 6),
        })

    return grouped_apply(ev, ["user_id"], per_part, num_partitions=16)


_TAG_KEYWORDS = ("table", "hash", "merge", "sort", "spark",
                 "window", "batch", "scan")


def q_keyword_tag(sf_dir: str):
    """Dictionary tagging — the brand/topic/PII-term counting pass of
    a curation pipeline: for a broadcast keyword list, corpus-wide
    non-overlapping occurrence totals and containing-doc counts. Per
    block one vectorized `str.count` per keyword (8 compiled-regex
    passes over the batch, no per-row loop) emits 8 partial rows; a
    tiny keyword-keyed grouped sum finishes. At 100 TB the keyword
    list rides task submission (it is a constant); only 8 rows per
    block leave the scan."""
    import re as _re

    ds = read_table(sf_dir, "documents", columns=["text"])

    def parts(df: pd.DataFrame) -> pd.DataFrame:
        txt = df["text"]
        rows = []
        for kw in _TAG_KEYWORDS:
            c = txt.str.count(_re.escape(kw)).to_numpy(dtype="int64")
            rows.append((kw, int(c.sum()), int((c > 0).sum())))
        return pd.DataFrame(rows, columns=["kw", "occ", "docs"])

    return grouped_agg(
        ds.map_batches(parts, batch_format="pandas"),
        ["kw"], {"occurrences": ("occ", "sum"), "n_docs": ("docs", "sum")})


def q_trigram_mining(sf_dir: str):
    """Frequent 3-step behavioral sequences: counts of consecutive
    event-type TRIPLES per user stream (order ts, event_id) —
    `session_transitions` is the 2-step Markov matrix; this is the
    length-3 sequential-pattern table (≤ |types|³ = 125 rows). ONE
    user-hash exchange; per partition a vectorized groupby shift(-1)
    / shift(-2) builds the triples (sequences never cross users), a
    within-partition groupby pre-counts, and a tiny grouped sum over
    (e1,e2,e3) finishes — only ≤125 partial rows per partition leave."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "event_type"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        grp = g.groupby("user_id", sort=False)
        e2 = grp["event_type"].shift(-1)
        e3 = grp["event_type"].shift(-2)
        ok = (e2.notna() & e3.notna()).to_numpy()
        d = pd.DataFrame({"e1": g["event_type"].to_numpy()[ok],
                          "e2": e2.to_numpy()[ok],
                          "e3": e3.to_numpy()[ok]})
        return (d.groupby(["e1", "e2", "e3"], sort=False).size()
                .reset_index(name="n"))

    parts = grouped_apply(ev, ["user_id"], per_part, num_partitions=16)
    return grouped_agg(parts, ["e1", "e2", "e3"], {"n": ("n", "sum")})


def q_ams_f2(sf_dir: str):
    """AMS second-frequency-moment sketch with a machine-checked
    guarantee (`freq_sketch_audit` pattern): estimate F2 = Σ cnt² of
    `l_partkey` from s=96 deterministic ±1 hash projections — the
    join-size / self-join-cost estimator that needs no key table.
    Per block one (s,) partial vector of signed sums (splitmix-style
    integer hash, vectorized over rows × sketches); partials sum
    component-wise (model-constant, s int64s per block); the estimate
    is the median of 8 means of 12 squared projections. The audit row
    recomputes exact F2 distributedly (per-key counts → Σcnt², the
    `grouped_agg` path) and asserts |est − F2| ≤ F2/2 — deterministic
    given the fixed hash family, so the flag is a stable fact the SQL
    oracle replays exactly."""
    ds = read_table(sf_dir, "lineitem", columns=["l_partkey"])
    s_proj, groups = 96, 8

    def parts(t: pa.Table) -> pd.DataFrame:
        k = t["l_partkey"].to_numpy(zero_copy_only=False).astype("uint64")
        j = np.arange(s_proj, dtype="uint64")
        h = k[:, None] * np.uint64(0x9E3779B97F4A7C15) \
            + (j[None, :] + np.uint64(1)) * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(31)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(29)
        sign = ((h >> np.uint64(63)).astype("int64") * 2) - 1
        z = sign.sum(axis=0)
        return pd.DataFrame({"j": np.arange(s_proj, dtype="int64"),
                             "z": z})

    partial = ds.map_batches(parts, batch_format="pyarrow",
                             zero_copy_batch=True)
    proj = grouped_agg(partial, ["j"], {"z": ("z", "sum")}).to_pandas()
    z = (proj.sort_values("j")["z"].to_numpy(dtype="float64")) ** 2
    means = z.reshape(groups, s_proj // groups).mean(axis=1)
    est = float(np.median(means))

    exact = grouped_agg(
        ds, ["l_partkey"], {"cnt": ("l_partkey", "count")})
    f2 = grouped_agg(
        exact.map_batches(
            lambda d: pd.DataFrame({
                "one": np.zeros(len(d), dtype="int64"),
                "c2": d["cnt"].to_numpy(dtype="int64") ** 2}),
            batch_format="pandas"),
        ["one"], {"f2": ("c2", "sum")}).to_pandas()
    f2_exact = int(f2["f2"].iloc[0])
    return pd.DataFrame({
        "f2_exact": np.array([f2_exact], dtype="int64"),
        "within_half": np.array(
            [int(abs(est - f2_exact) <= f2_exact / 2)], dtype="int64"),
    })


def q_modularity(sf_dir: str):
    """Newman modularity of the brand partition over the part
    co-purchase graph — the "is this community structure real"
    score that gates whether a partitioning key is worth
    co-locating by. Edges come from `_copurchase_edges` (no
    lineitem self-join); both endpoint communities attach via ONE
    broadcast of the bounded brand catalog (dimension table, J4
    pattern); per block only ≤|brands| (c, e_in, degree) partial
    rows leave; Q = Σ_c e_in/m − (deg_c/2m)² folds over the tiny
    community table on the driver, 6-dp rounded on both engines."""
    nparts = 16
    edges = _copurchase_edges(sf_dir, nparts)
    part = read_table(
        sf_dir, "part", columns=["p_partkey", "p_brand"]).to_pandas()
    bu = broadcast_join(
        edges, part.rename(columns={"p_partkey": "u", "p_brand": "cu"}),
        "u")
    both = broadcast_join(
        bu, part.rename(columns={"p_partkey": "v", "p_brand": "cv"}),
        "v")

    def parts(df: pd.DataFrame) -> pd.DataFrame:
        cu, cv = df["cu"], df["cv"]
        ein = cu.where(cu.eq(cv)).value_counts()
        deg = pd.concat([cu, cv]).value_counts()
        out = pd.DataFrame({"c": deg.index.astype(object),
                            "deg": deg.to_numpy(dtype="int64")})
        out["ein"] = (out["c"].map(ein).fillna(0).astype("int64"))
        return out[["c", "ein", "deg"]]

    agg = grouped_agg(
        both.map_batches(parts, batch_format="pandas"),
        ["c"], {"ein": ("ein", "sum"), "deg": ("deg", "sum")}
    ).to_pandas().sort_values("c").reset_index(drop=True)
    m = float(agg["deg"].to_numpy(dtype="int64").sum()) / 2.0
    ein = agg["ein"].to_numpy(dtype="float64")
    deg = agg["deg"].to_numpy(dtype="float64")
    q = float((ein / m - (deg / (2 * m)) * (deg / (2 * m))).sum())
    return pd.DataFrame({
        "n_communities": np.array([len(agg)], dtype="int64"),
        "m_edges": np.array([int(m)], dtype="int64"),
        "modularity": [round(q, 6)],
    })


_CV_FOLDS = 5


def q_cv_ols(sf_dir: str):
    """K-fold cross-validated OLS in ONE streaming pass — the
    leave-fold-out Gram trick: per block, per-fold EXACT-integer
    moment partials (n, Σx, Σx², Σxy, Σy² in centi-units), so the
    train-side Gram of fold f is simply total − fold_f with NO
    second scan and no float accumulation-order dependence; betas
    solve the 3×3 normal equations by the SAME Cramer expressions
    as the SQL oracle, and each fold's test RMSE comes analytically
    from the quadratic form βᵀGβ − 2βᵀg + Σy² over the SAME exact
    sums — both engines evaluate the identical IEEE expression tree.
    Folds by the Knuth-hash bucket of l_orderkey (whole orders stay
    in one fold — the leakage-safe grouping, `split_assign`'s hash)."""
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_quantity",
                             "l_discount", "l_tax"])
    cols = ["n", "s1", "s2", "s11", "s12", "s22",
            "sy", "s1y", "s2y", "syy"]

    def parts(df: pd.DataFrame) -> pd.DataFrame:
        okey = df["l_orderkey"].to_numpy().astype(np.uint64)
        fold = (((okey % np.uint64(4294967296)) * np.uint64(2654435761))
                % np.uint64(4294967296)
                % np.uint64(_CV_FOLDS)).astype("int64")
        y = np.rint(df["l_quantity"].to_numpy(dtype="float64")
                    ).astype("int64")
        x1 = np.rint(df["l_discount"].to_numpy(dtype="float64") * 100
                     ).astype("int64")
        x2 = np.rint(df["l_tax"].to_numpy(dtype="float64") * 100
                     ).astype("int64")
        g = pd.DataFrame({
            "fold": fold, "n": np.int64(1), "s1": x1, "s2": x2,
            "s11": x1 * x1, "s12": x1 * x2, "s22": x2 * x2,
            "sy": y, "s1y": x1 * y, "s2y": x2 * y, "syy": y * y})
        return g.groupby("fold", as_index=False).sum()

    sums = grouped_agg(
        ds.map_batches(parts, batch_format="pandas"),
        ["fold"], {c: (c, "sum") for c in cols}
    ).to_pandas().sort_values("fold").reset_index(drop=True)
    tot = {c: int(sums[c].sum()) for c in cols}

    out = []
    for _, f in sums.iterrows():
        # train = total − fold: exact integers, then ONE int→float
        # conversion so the Cramer arithmetic below is bit-identical
        # to the oracle's regardless of how blocks were accumulated.
        tn, t1, t2 = (float(tot["n"] - f["n"]), float(tot["s1"] - f["s1"]),
                      float(tot["s2"] - f["s2"]))
        t11, t12, t22 = (float(tot["s11"] - f["s11"]),
                         float(tot["s12"] - f["s12"]),
                         float(tot["s22"] - f["s22"]))
        ty, t1y, t2y = (float(tot["sy"] - f["sy"]),
                        float(tot["s1y"] - f["s1y"]),
                        float(tot["s2y"] - f["s2y"]))
        det = tn * (t11 * t22 - t12 * t12) - t1 * (t1 * t22 - t2 * t12) \
            + t2 * (t1 * t12 - t2 * t11)
        det0 = ty * (t11 * t22 - t12 * t12) \
            - t1y * (t1 * t22 - t2 * t12) + t2y * (t1 * t12 - t2 * t11)
        det1 = tn * (t1y * t22 - t12 * t2y) - t1 * (ty * t22 - t2 * t2y) \
            + t2 * (ty * t12 - t2 * t1y)
        det2 = tn * (t11 * t2y - t1y * t12) - t1 * (t1 * t2y - ty * t12) \
            + t2 * (t1 * t1y - ty * t11)
        b0, b1, b2 = det0 / det, det1 / det, det2 / det
        fn, f1, f2 = float(f["n"]), float(f["s1"]), float(f["s2"])
        f11, f12, f22 = float(f["s11"]), float(f["s12"]), float(f["s22"])
        fy, f1y, f2y, fyy = (float(f["sy"]), float(f["s1y"]),
                             float(f["s2y"]), float(f["syy"]))
        sse = fyy - 2 * (b0 * fy + b1 * f1y + b2 * f2y) \
            + (b0 * b0 * fn + b1 * b1 * f11 + b2 * b2 * f22
               + 2 * b0 * b1 * f1 + 2 * b0 * b2 * f2 + 2 * b1 * b2 * f12)
        out.append((int(f["fold"]), int(f["n"]),
                    round(float(np.sqrt(sse / fn)), 6)))
    return pd.DataFrame(out, columns=["fold", "n_test", "rmse"])


def q_stream_join(sf_dir: str):
    """Windowed stream-stream join — the conversion counter: per
    user, click→purchase pairs where the purchase follows the click
    by at most one hour (strict <, inclusive window edge). ONE
    user-hash exchange after a cheap pre-filter to the two event
    types; per partition a loop over bounded USER GROUPS where the
    per-purchase click count is TWO searchsorted calls on the
    user's sorted click axis — no pair materialization, no per-row
    Python. Users with no qualifying pair emit nothing (inner-join
    group semantics on both engines)."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_type"])
    ev = ev.map_batches(
        lambda d: d.loc[d["event_type"].isin(("click", "purchase"))],
        batch_format="pandas")
    w_us = 3_600_000_000

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        out_u, out_c = [], []
        for uid, gg in g.groupby("user_id", sort=False):
            et = gg["event_type"].to_numpy()
            ts = gg["ts"].to_numpy("datetime64[us]").astype("int64")
            t = np.sort(ts[et == "click"])
            p = ts[et == "purchase"]
            if len(t) == 0 or len(p) == 0:
                continue
            n = int((np.searchsorted(t, p, side="left")
                     - np.searchsorted(t, p - w_us, side="left")).sum())
            if n > 0:
                out_u.append(int(uid))
                out_c.append(n)
        return pd.DataFrame({
            "user_id": np.array(out_u, dtype="int64"),
            "conversions": np.array(out_c, dtype="int64")})

    return grouped_apply(ev, ["user_id"], per_part, num_partitions=16)


def q_ht_estimate(sf_dir: str):
    """Horvitz–Thompson total estimation from a deterministic
    hash-sample — the "estimate the full-corpus statistic from the
    1/16 pilot scan" pattern: inclusion = Knuth-hash bucket 0 of 16
    (rerun- and parallelism-invariant, `split_assign`'s hash), HT
    total = 16 × Σ_sample. ONE pass computes both the exact total
    and the sampled partial per block (two int64s leave each block);
    the oracle replays the identical deterministic design, so the
    reported relative error is a stable fact, not a flaky band."""
    ds = read_table(sf_dir, "orders",
                    columns=["o_orderkey", "o_totalprice"])

    def parts(d: pd.DataFrame) -> pd.DataFrame:
        okey = d["o_orderkey"].to_numpy().astype(np.uint64)
        smp = (((okey % np.uint64(4294967296)) * np.uint64(2654435761))
               % np.uint64(4294967296) % np.uint64(16)) == 0
        c = np.rint(d["o_totalprice"].to_numpy(dtype="float64") * 100
                    ).astype("int64")
        return pd.DataFrame({
            "one": np.zeros(1, dtype="int64"),
            "s_all": [int(c.sum())],
            "s_smp": [int(c[smp].sum())],
            "n_smp": [int(smp.sum())]})

    t = grouped_agg(
        ds.map_batches(parts, batch_format="pandas"),
        ["one"], {"s_all": ("s_all", "sum"), "s_smp": ("s_smp", "sum"),
                  "n_smp": ("n_smp", "sum")}).to_pandas()
    exact = int(t["s_all"].iloc[0])
    est = 16 * int(t["s_smp"].iloc[0])
    return pd.DataFrame({
        "n_sampled": np.array([int(t["n_smp"].iloc[0])], dtype="int64"),
        "exact_total_c": np.array([exact], dtype="int64"),
        "ht_total_c": np.array([est], dtype="int64"),
        "rel_err": [round(abs(est - exact) / exact, 6)],
    })


def q_returns_topk(sf_dir: str):
    """TPC-H-Q10-shaped star join: top-20 customers by revenue lost
    to returned items — lineitem(R) ⋈ orders ⋈ customer ⋈ nation.
    The two FACT joins are bucketed (co-partitioned, skew-safe); the
    revenue aggregate collapses to per-customer rows BEFORE the
    customer attach so the wide fact never carries name columns;
    nation (25 rows) broadcasts. Revenue in exact 10⁻⁴-dollar units
    (cents × (100 − disc_cents)); ties at the cutoff break on
    c_custkey, so the top-20 selection is deterministic."""
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_orderkey", "l_extendedprice",
                             "l_discount", "l_returnflag"])

    def rev(d: pd.DataFrame) -> pd.DataFrame:
        keep = d["l_returnflag"].to_numpy() == "R"
        c = np.rint(d["l_extendedprice"].to_numpy(dtype="float64")[keep]
                    * 100).astype("int64")
        disc = np.rint(d["l_discount"].to_numpy(dtype="float64")[keep]
                       * 100).astype("int64")
        return pd.DataFrame({
            "o_orderkey": d["l_orderkey"].to_numpy()[keep],
            "rev": c * (100 - disc)})

    returned = li.map_batches(rev, batch_format="pandas")
    orders = read_table(sf_dir, "orders", bytes_per_block=_FACT_BPB,
                        columns=["o_orderkey", "o_custkey"])
    j = bucketed_hash_join(returned, orders, on="o_orderkey",
                           num_buckets=16)
    per_cust = grouped_agg(j, ["o_custkey"],
                           {"revenue_c4": ("rev", "sum")},
                           merge_partitions=8)
    per_cust = per_cust.map_batches(
        lambda d: d.rename(columns={"o_custkey": "c_custkey"}),
        batch_format="pandas")
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_name", "c_nationkey"])
    named = bucketed_hash_join(per_cust, cust, on="c_custkey",
                               num_buckets=8)
    nation = read_table(
        sf_dir, "nation",
        columns=["n_nationkey", "n_name"]).to_pandas().rename(
            columns={"n_nationkey": "c_nationkey"})
    full = broadcast_join(named, nation, "c_nationkey")
    out = topk(full, by=["revenue_c4", "c_custkey"], k=20,
               descending=[True, False])
    def fin(d: pd.DataFrame) -> pd.DataFrame:
        # the bucketed pandas merges upcast int keys that met an empty
        # bucket side; the final 20 rows are all matched, so the cast
        # back to int64 is exact
        return pd.DataFrame({
            "c_custkey": d["c_custkey"].astype("int64"),
            "c_name": d["c_name"].astype(object),
            "n_name": d["n_name"].astype(object),
            "revenue_c4": d["revenue_c4"].astype("int64")})

    return out.map_batches(fin, batch_format="pandas")


def q_session_paths(sf_dir: str):
    """Top-20 most common DAILY behavioral paths — the whole-journey
    sibling of `session_transitions`/`trigram_mining`: each (user,
    day)'s ordered event types joined into one '>' path string,
    counted corpus-wide, ties at the cutoff broken by path. ONE
    user-hash exchange (a user's days all land together); paths
    pre-count within the partition so only distinct-path partials
    leave; the topk keeps the cutoff deterministic."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "event_type"])
    day_us = 86_400_000_000

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        day = (g["ts"].to_numpy("datetime64[us]").astype("int64")
               // day_us)
        paths = (g.assign(__day=day)
                 .groupby(["user_id", "__day"], sort=False)["event_type"]
                 .agg(">".join))
        return (paths.to_frame("path").groupby("path", sort=False)
                .size().reset_index(name="n"))

    parts = grouped_apply(ev, ["user_id"], per_part, num_partitions=16)
    agg = grouped_agg(parts, ["path"], {"n": ("n", "sum")},
                      merge_partitions=8)
    return topk(agg, by=["n", "path"], k=20, descending=[True, False])


def q_kendall_tau(sf_dir: str):
    """EXACT global Kendall tau-b between quantity and discount —
    rank concordance over ~n²/2 pairs WITHOUT enumerating pairs: both
    columns are low-cardinality, so the sufficient statistic is the
    ≤50×11 JOINT HISTOGRAM (per-block partial counts → one tiny
    grouped sum). Concordant/discordant totals are quadrant sums of
    that grid (2-D suffix cumsums — each unordered pair counted once
    via the strict-< orientation), tie terms from the marginals; all
    pair counts are exact int64 (safe to n ≈ 4·10⁹ rows, noted), only
    the final ratio is float, 6-dp rounded. The oracle replays the
    identical quadrant algebra as a 550-row histogram self-join."""
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_quantity", "l_discount"])

    def parts(d: pd.DataFrame) -> pd.DataFrame:
        q = np.rint(d["l_quantity"].to_numpy(dtype="float64")
                    ).astype("int64")
        dc = np.rint(d["l_discount"].to_numpy(dtype="float64") * 100
                     ).astype("int64")
        g = pd.DataFrame({"q": q, "d": dc})
        return (g.groupby(["q", "d"], sort=False).size()
                .reset_index(name="c"))

    hist = grouped_agg(
        ds.map_batches(parts, batch_format="pandas"),
        ["q", "d"], {"c": ("c", "sum")}).to_pandas()
    qs = np.sort(hist["q"].unique())
    dss = np.sort(hist["d"].unique())
    qi = {v: i for i, v in enumerate(qs)}
    di = {v: i for i, v in enumerate(dss)}
    h = np.zeros((len(qs), len(dss)), dtype="int64")
    for q, d, c in hist.itertuples(index=False):
        h[qi[q], di[d]] = c
    n = int(h.sum())
    # strictly-greater-in-both quadrant via reversed 2-D cumsum
    suf = np.cumsum(np.cumsum(h[::-1, ::-1], 0), 1)[::-1, ::-1]
    gt_both = np.zeros_like(h)
    gt_both[:-1, :-1] = suf[1:, 1:]
    conc = int((h * gt_both).sum())
    # strictly greater in q, strictly smaller in d
    suf_qd = np.cumsum(np.cumsum(h[::-1, :], 0)[::-1, :], 1)
    lt_d_gt_q = np.zeros_like(h)
    lt_d_gt_q[:-1, 1:] = suf_qd[1:, :-1]
    disc = int((h * lt_d_gt_q).sum())
    n0 = n * (n - 1) // 2
    nq = h.sum(axis=1)
    nd = h.sum(axis=0)
    t1 = int((nq * (nq - 1) // 2).sum())
    t2 = int((nd * (nd - 1) // 2).sum())
    tau = (conc - disc) / float(np.sqrt(float(n0 - t1))
                                * np.sqrt(float(n0 - t2)))
    return pd.DataFrame({
        "n_rows": np.array([n], dtype="int64"),
        "concordant": np.array([conc], dtype="int64"),
        "discordant": np.array([disc], dtype="int64"),
        "tau_b": [round(float(tau), 6)],
    })


def q_kaplan_meier(sf_dir: str):
    """Kaplan–Meier survival curve for time-to-first-purchase — the
    churn/conversion lifetable: each user is a subject observed from
    their first event, the "death" is their first purchase (duration in
    whole days, day 1 = same day), and users who never purchase are
    right-censored at their last event. Per-user (first-event,
    first-purchase, last-event) reduces via ONE user-keyed grouped
    min/max (the conditional min rides a 2^62 sentinel so it shares the
    same exchange); the day-level (deaths, censored) lifetable is a
    second bounded reduce; the survival product folds on the ≤#days
    driver table. Float discipline: the per-day log factor
    ln(1 − d/n) is one IEEE expression of exact int64 counts on both
    engines, rounded to integer MICRO-NATS, cumulated EXACTLY as int64,
    and exponentiated once — the hash cannot flip on multiplication
    order because no floats are ever summed."""
    ev = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_type"])
    big = np.int64(2) ** 62

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        ts = d["ts"].to_numpy("datetime64[us]").astype("int64")
        is_p = d["event_type"].to_numpy() == "purchase"
        return pd.DataFrame({
            "user_id": d["user_id"].to_numpy(),
            "t0": ts, "tend": ts,
            "fp": np.where(is_p, ts, big)})

    users = grouped_agg(
        ev.map_batches(pre, batch_format="pandas"),
        ["user_id"], {"t0": ("t0", "min"), "tend": ("tend", "max"),
                      "fp": ("fp", "min")})
    day_us = 86_400_000_000

    def lifetable(d: pd.DataFrame) -> pd.DataFrame:
        t0 = d["t0"].to_numpy(dtype="int64")
        fp = d["fp"].to_numpy(dtype="int64")
        tend = d["tend"].to_numpy(dtype="int64")
        observed = fp < big
        tstop = np.where(observed, fp, tend)
        return pd.DataFrame({
            "day": (tstop - t0) // day_us + 1,
            "d": observed.astype("int64"),
            "c": (~observed).astype("int64")})

    tab = (grouped_agg(users.map_batches(lifetable, batch_format="pandas"),
                       ["day"], {"d": ("d", "sum"), "c": ("c", "sum")})
           .to_pandas().sort_values("day").reset_index(drop=True))
    d = tab["d"].to_numpy(dtype="int64")
    c = tab["c"].to_numpy(dtype="int64")
    n_total = int((d + c).sum())
    n_risk = n_total - np.concatenate(
        ([0], np.cumsum(d + c)[:-1])).astype("int64")
    frac = d.astype("float64") / n_risk.astype("float64")
    with np.errstate(divide="ignore"):
        lnf = np.where(
            d == 0, np.int64(0),
            np.where(d < n_risk,
                     np.round(np.log(1.0 - frac) * 1e6),
                     -20_000_000_000).astype("int64"))
    surv = np.round(np.exp(np.cumsum(lnf) / 1e6), 6)
    return pd.DataFrame({
        "day": tab["day"].to_numpy(dtype="int64"),
        "n_risk": n_risk, "n_events": d, "n_censored": c,
        "survival": surv})


def q_decision_stump(sf_dir: str):
    """Train a decision stump (1R) — the best single split
    `l_quantity <= t` predicting `l_returnflag` by weighted Gini
    impurity. The sufficient statistic is the bounded (quantity ×
    flag) contingency histogram (≤50×3 partial rows per block, one
    tiny grouped sum); the split search runs on the driver over ≤50
    candidates. EXACT-arithmetic argmin: minimizing weighted Gini is
    equivalent to maximizing A(t) = Σf nl_f²/nl + Σf nr_f²/nr =
    (Σnl_f²·nr + Σnr_f²·nl) / (nl·nr); numerator and denominator are
    exact integers (Python bigints here, HUGEINT in the oracle), each
    converted to double ONCE (round-to-nearest is deterministic) before
    the single comparison-ordering division — so the chosen threshold
    can never disagree across engines on float-sum order. Ties break
    on smaller threshold; majority classes tie-break on class asc."""
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_quantity", "l_returnflag"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "q": d["l_quantity"].to_numpy(dtype="float64")
                 .astype("int64"),
            "f": d["l_returnflag"].to_numpy(),
            "one": np.ones(len(d), dtype="int64")})

    cont = (grouped_agg(li.map_batches(pre, batch_format="pandas"),
                        ["q", "f"], {"n": ("one", "sum")})
            .to_pandas())
    pv = (cont.pivot_table(index="q", columns="f", values="n",
                           aggfunc="sum", fill_value=0)
          .sort_index())
    classes = sorted(pv.columns.tolist())
    counts = pv[classes].to_numpy(dtype="int64")
    qs = pv.index.to_numpy(dtype="int64")
    tot = [int(x) for x in counts.sum(axis=0)]
    n_all = sum(tot)
    cum = np.cumsum(counts, axis=0)
    best = None  # (key_desc, thr, nl_f list)
    for i in range(len(qs) - 1):  # last split leaves right side empty
        nl_f = [int(x) for x in cum[i]]
        nr_f = [t - l for t, l in zip(tot, nl_f)]
        nl, nr = sum(nl_f), sum(nr_f)
        num = (sum(x * x for x in nl_f) * nr
               + sum(x * x for x in nr_f) * nl)
        den = nl * nr
        key = float(num) / float(den)
        if best is None or key > best[0]:
            best = (key, int(qs[i]), nl_f, nr_f)
    key, thr, nl_f, nr_f = best
    lmax = max(range(len(classes)), key=lambda j: (nl_f[j], -j))
    rmax = max(range(len(classes)), key=lambda j: (nr_f[j], -j))
    return pd.DataFrame({
        "threshold": np.array([thr], dtype="int64"),
        "left_class": np.array([classes[lmax]], dtype=object),
        "right_class": np.array([classes[rmax]], dtype=object),
        "accuracy": np.array(
            [round(float(nl_f[lmax] + nr_f[rmax]) / float(n_all), 9)],
            dtype="float64"),
        "gini": np.array([round((float(n_all) - key) / float(n_all), 9)],
                         dtype="float64")})


def q_pareto_8020(sf_dir: str):
    """Pareto revenue concentration — the smallest set of top customers
    covering ≥80% of total order revenue (the "how skewed is this key"
    check run before choosing a partitioning/salting strategy).
    Per-customer revenue reduces in exact integer cents inside a
    customer-hash partitioned exchange; the fold (sort + prefix sum +
    cutoff) runs on the catalog-scale customer table — for
    frontier-scale keys the distributed prefix lives in `order_index`/
    `percent_rank_global`. The 80% test is EXACT integer arithmetic
    (5·cum ≥ 4·total), no float cutoff; ties at the boundary break on
    customer key via the (rev desc, custkey asc) order both engines
    share."""
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_totalprice"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_custkey": d["o_custkey"].to_numpy(),
            "rev_c": np.rint(d["o_totalprice"].to_numpy(dtype="float64")
                             * 100).astype("int64")})

    cust = (grouped_agg(orders.map_batches(pre, batch_format="pandas"),
                        ["o_custkey"], {"rev_c": ("rev_c", "sum")},
                        merge_partitions=8)
            .to_pandas()
            .sort_values(["rev_c", "o_custkey"],
                         ascending=[False, True]))
    rev = cust["rev_c"].to_numpy(dtype="int64")
    total = int(rev.sum())
    cum = np.cumsum(rev)
    k = int(np.searchsorted(5 * cum, 4 * total, side="left")) + 1
    return pd.DataFrame({
        "n_top": np.array([k], dtype="int64"),
        "n_customers": np.array([len(cust)], dtype="int64"),
        "top_share": np.array(
            [round(float(cum[k - 1]) / float(total), 6)],
            dtype="float64"),
        "total_rev_c": np.array([total], dtype="int64")})


def q_psi(sf_dir: str):
    """Population-stability-index drift check — the model-ops monitor
    run before trusting a trained model on this week's data: events
    split into two halves at the exact midpoint of the time range
    (integer 2·ts vs lo+hi, no float midpoint), decile edges taken
    from the FIRST half only (exact discrete quantiles, the
    `quantiles_disc` convention, deduplicated), both halves binned by
    searchsorted, and PSI = Σ (p_b−p_a)·ln(p_b/p_a). Float discipline:
    each bin's term is one IEEE expression of exact int64 counts,
    rounded to integer MICRO-nats and summed exactly — no float
    accumulation order anywhere. Two streaming passes over events
    (edge fit + binning), counts reduce to ≤10 rows."""
    from ..functions.relational import grouped_quantiles

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "value"])
    mm = grouped_agg(
        ev.map_batches(
            lambda d: pd.DataFrame({
                "k": np.zeros(len(d), dtype="int64"),
                "t": d["ts"].to_numpy("datetime64[us]").astype("int64")}),
            batch_format="pandas"),
        ["k"], {"lo": ("t", "min"), "hi": ("t", "max")}).to_pandas()
    lo, hi = int(mm["lo"].iloc[0]), int(mm["hi"].iloc[0])

    def tag(d: pd.DataFrame) -> pd.DataFrame:
        t = d["ts"].to_numpy("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "p": (2 * t >= lo + hi).astype("int64"),
            "v": d["value"].to_numpy(dtype="float64"),
            "__k": np.zeros(len(d), dtype="int64")})

    tagged = ev.map_batches(tag, batch_format="pandas")
    base = tagged.map_batches(lambda d: d.loc[d["p"] == 0],
                              batch_format="pandas")
    names = [f"q{i}" for i in range(1, 10)]
    ed = grouped_quantiles(
        base, ["__k"], "v", [i / 10 for i in range(1, 10)], names,
        method="inverted_cdf").to_pandas()
    edges = np.unique(np.array(
        [float(ed[n].iloc[0]) for n in names], dtype="float64"))

    def binify(d: pd.DataFrame) -> pd.DataFrame:
        p = d["p"].to_numpy()
        return pd.DataFrame({
            "bin": np.searchsorted(
                edges, d["v"].to_numpy(dtype="float64"),
                side="left").astype("int64"),
            "na": (p == 0).astype("int64"),
            "nb": (p == 1).astype("int64")})

    cnt = (grouped_agg(tagged.map_batches(binify, batch_format="pandas"),
                       ["bin"], {"n_a": ("na", "sum"),
                                 "n_b": ("nb", "sum")})
           .to_pandas().sort_values("bin"))
    na_t = int(cnt["n_a"].sum())
    nb_t = int(cnt["n_b"].sum())
    pa = cnt["n_a"].to_numpy(dtype="float64") / float(na_t)
    pb = cnt["n_b"].to_numpy(dtype="float64") / float(nb_t)
    term = (pb - pa) * np.log(np.maximum(pb, 1e-12)
                              / np.maximum(pa, 1e-12))
    micro = np.round(term * 1e6).astype("int64")
    return pd.DataFrame({
        "n_bins": np.array([len(cnt)], dtype="int64"),
        "n_a": np.array([na_t], dtype="int64"),
        "n_b": np.array([nb_t], dtype="int64"),
        "psi": np.array([round(float(micro.sum()) / 1e6, 6)],
                        dtype="float64")})


def q_cohort_ltv(sf_dir: str):
    """Cohort lifetime-value curve — `retention`'s revenue sibling:
    users cohorted by first-activity week, purchase revenue summed per
    (cohort, weeks-since-cohort) in exact integer cents, cumulated
    along observed offsets, and normalized per cohort user. ONE
    user-hash exchange co-locates each user's events; inside a
    partition everything is vectorized (first-week transform, purchase
    sum, a one-row-per-user cohort-size marker at offset 0), so only
    ≤cohorts×offsets partial rows leave each partition. The cumulative
    fold runs on the bounded weeks² driver table; the only division is
    the final per-user LTV."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_type", "value"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "cohort": pd.Series(dtype="int64"),
                "off": pd.Series(dtype="int64"),
                "rev": pd.Series(dtype="int64"),
                "nu": pd.Series(dtype="int64")})
        wk = (g["ts"].to_numpy("datetime64[us]").astype("int64")
              // 604_800_000_000)
        d = pd.DataFrame({
            "u": g["user_id"].to_numpy(), "wk": wk,
            "isp": g["event_type"].to_numpy() == "purchase",
            "rev": np.rint(g["value"].to_numpy(dtype="float64") * 100
                           ).astype("int64")})
        d["cohort"] = d.groupby("u", sort=False)["wk"].transform("min")
        d["off"] = d["wk"] - d["cohort"]
        pur = (d.loc[d["isp"]]
               .groupby(["cohort", "off"], sort=False)["rev"].sum()
               .reset_index().assign(nu=np.int64(0)))
        mk = (d.drop_duplicates("u").groupby("cohort", sort=False)
              .size().reset_index(name="nu")
              .assign(off=np.int64(0), rev=np.int64(0)))
        out = pd.concat([pur, mk])[["cohort", "off", "rev", "nu"]]
        return out.astype("int64")

    u = (grouped_agg(
            grouped_apply(ev, ["user_id"], per_part, num_partitions=32),
            ["cohort", "off"],
            {"rev_c": ("rev", "sum"), "nu": ("nu", "sum")})
         .to_pandas().sort_values(["cohort", "off"])
         .reset_index(drop=True))
    u["rev_c"] = u["rev_c"].astype("int64")
    u["cum_rev_c"] = u.groupby("cohort")["rev_c"].cumsum().astype("int64")
    u["n_users"] = u.groupby("cohort")["nu"].transform("sum").astype("int64")
    u["ltv_c"] = np.round(u["cum_rev_c"].to_numpy(dtype="float64")
                          / u["n_users"].to_numpy(dtype="float64"), 6)
    return u.rename(columns={"off": "weeks_since"}).drop(columns=["nu"])


def q_mann_kendall(sf_dir: str):
    """Per-user Mann–Kendall trend test — the nonparametric "is this
    series drifting" monitor (the hypothesis-test sibling of
    `theilsen`): S = Σ_{i<j} sign(v_j − v_i) over the user's
    time-ordered values, the tie-corrected variance
    18·Var = n(n−1)(2n+5) − Σ_t t(t−1)(2t+5), and the continuity-
    corrected z. ONE user-hash exchange; inside a partition each
    bounded user group computes S via one numpy triangular broadcast
    (values in exact integer cents, so S and 18·Var are exact int64 —
    the only floats are the final sqrt and division, identical
    expressions on both engines). The SQL twin replays S as an
    inequality self-join and the tie term from per-value counts."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "value"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "user_id": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "s": pd.Series(dtype="int64"),
                "var18": pd.Series(dtype="int64"),
                "z": pd.Series(dtype="float64")})
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        v_all = np.rint(g["value"].to_numpy(dtype="float64") * 100
                        ).astype("int64")
        rows = []
        for uid, gg in g.assign(__v=v_all).groupby(
                "user_id", sort=False):
            v = gg["__v"].to_numpy()
            n = len(v)
            iu, ju = np.triu_indices(n, 1)
            s = int(np.sign(v[ju] - v[iu]).sum())
            _, tie_counts = np.unique(v, return_counts=True)
            t = tie_counts.astype("int64")
            var18 = (n * (n - 1) * (2 * n + 5)
                     - int((t * (t - 1) * (2 * t + 5)).sum()))
            if var18 > 0 and s != 0:
                z = (s - 1 if s > 0 else s + 1) / np.sqrt(var18 / 18.0)
            else:
                z = 0.0
            rows.append((uid, n, s, var18, round(float(z), 6)))
        return pd.DataFrame(
            rows, columns=["user_id", "n", "s", "var18", "z"]
        ).astype({"user_id": "int64", "n": "int64", "s": "int64",
                  "var18": "int64", "z": "float64"})

    return grouped_apply(ev, ["user_id"], per_part, num_partitions=32)


def q_shingle_leakage(sf_dir: str):
    """Per-source 5-gram cross-contamination — the decontamination
    pre-flight ("how much of source X's content also appears in other
    sources?"): each source's DISTINCT word-5-gram set, and the share
    of it found in ≥1 other source. (shingle, source) pairs dedup once
    inside a shingle-hash exchange; each shingle's bounded source set
    emits per-source (types, shared) increments arithmetically in the
    same partition — never a shingle×source-pair blowup, and the
    per-source reduce ships ≤|sources| rows per partition. Exact int64
    counts; only the final rate divides."""
    from ..functions.relational import grouped_apply

    docs = read_table(sf_dir, "documents", columns=["text", "source"])
    k = 5

    def shingles(d: pd.DataFrame) -> pd.DataFrame:
        srcs, shs = [], []
        for src, txt in zip(d["source"].to_numpy(),
                            d["text"].to_numpy()):
            ws = [w for w in txt.split(" ") if w != ""]
            m = max(len(ws) - k + 1, 1) if ws else 0
            for i in range(m):
                srcs.append(src)
                shs.append(" ".join(ws[i:i + k]))
        out = pd.DataFrame({"source": srcs, "sh": shs})
        return out.drop_duplicates()

    ss = distinct(
        docs.map_batches(shingles, batch_format="pandas"),
        ["sh", "source"], merge_partitions=16)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "source": pd.Series(dtype=object),
                "types": pd.Series(dtype="int64"),
                "shared": pd.Series(dtype="int64")})
        nsrc = g.groupby("sh", sort=False)["source"].transform("size")
        d = pd.DataFrame({"source": g["source"].to_numpy(),
                          "one": np.ones(len(g), dtype="int64"),
                          "sh2": (nsrc.to_numpy() >= 2).astype("int64")})
        out = (d.groupby("source", sort=False)
               .agg(types=("one", "sum"), shared=("sh2", "sum"))
               .reset_index())
        return out.astype({"types": "int64", "shared": "int64"})

    agg = (grouped_agg(
            grouped_apply(ss, ["sh"], per_part, num_partitions=16),
            ["source"], {"types": ("types", "sum"),
                         "shared": ("shared", "sum")})
           .to_pandas().sort_values("source").reset_index(drop=True))
    agg["leak_rate"] = np.round(
        agg["shared"].to_numpy(dtype="int64")
        / agg["types"].to_numpy(dtype="float64"), 6)
    return agg


def q_mrr(sf_dir: str):
    """Mean reciprocal rank of a self-retrieval eval — every 97th
    document's first 3 distinct words form a query whose one relevant
    answer is the source document; candidates score by distinct-term
    overlap. The rank needs NO per-query sort: rank = 1 + #docs
    scoring strictly better (or equal with smaller doc_id) — a
    broadcast of the tiny query set + one counting pass over the
    corpus. Per-query reciprocal ranks round to integer MICRO-units
    and sum exactly, so the mean is float-order-free. Emits
    n_queries, hits@1, hits@10 (exact) and mrr (6dp). Partitioning
    assumption: the query set is an EVAL set (bounded, broadcastable
    — corpus/97 here only because the sandbox corpus is small); score
    columns scale with |queries|, so a frontier-scale query set would
    batch through the `ann_topk`/`bm25` rankers instead."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    qdf = (docs.map_batches(
        lambda d: d.loc[d["doc_id"] % 97 == 0], batch_format="pandas")
        .to_pandas())
    queries = []
    for did, txt in zip(qdf["doc_id"], qdf["text"]):
        terms = []
        for w in txt.split(" "):
            if w != "" and w not in terms:
                terms.append(w)
            if len(terms) == 3:
                break
        queries.append((int(did), frozenset(terms)))

    def score(d: pd.DataFrame) -> pd.DataFrame:
        words = [frozenset(w for w in t.split(" ") if w != "")
                 for t in d["text"].to_numpy()]
        ids = d["doc_id"].to_numpy(dtype="int64")
        out = {"doc_id": ids}
        for qid, terms in queries:
            out[f"s{qid}"] = np.array(
                [len(terms & ws) for ws in words], dtype="int64")
        return pd.DataFrame(out)

    sc = docs.map_batches(score, batch_format="pandas").to_pandas()
    micro_sum, h1, h10 = 0, 0, 0
    for qid, _terms in queries:
        s = sc[f"s{qid}"].to_numpy()
        ids = sc["doc_id"].to_numpy()
        s_t = int(s[ids == qid][0])
        better = int(((s > s_t)
                      | ((s == s_t) & (ids < qid))).sum())
        rank = better + 1
        micro_sum += int(round(1e6 / rank))
        h1 += int(rank == 1)
        h10 += int(rank <= 10)
    return pd.DataFrame({
        "n_queries": np.array([len(queries)], dtype="int64"),
        "hits_at_1": np.array([h1], dtype="int64"),
        "hits_at_10": np.array([h10], dtype="int64"),
        "mrr": np.array(
            [round(micro_sum / 1e6 / len(queries), 6)],
            dtype="float64")})


def q_trimmed_mean(sf_dir: str):
    """Exact 5%-two-sided trimmed mean of order value — the robust
    location estimate a revenue dashboard wants when whales and
    micro-orders distort the mean. Row-exact trimming (drop the k
    smallest and k largest ROWS, k = floor(0.05·n), ties broken by
    order key) WITHOUT a global sort: the shared value-rank exchange
    (`functions/relational.py:_value_rank_exchange` — one min/max
    pass, one model-constant coarse-bin count table prefix-summed on
    the driver, ONE bin-hash exchange) hands every partition its rows'
    exact global ranks; each partition keeps ranks in [k, n−1−k] and
    emits a 2-int partial (sum of kept cents, kept count). Exact int64
    end to end; the single final division is display-only."""
    from ..functions.relational import _value_rank_exchange

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_totalprice"])
    cents = orders.map_batches(
        lambda d: pd.DataFrame({
            "c": np.rint(d["o_totalprice"].to_numpy(dtype="float64")
                         * 100).astype("int64"),
            "o_orderkey": d["o_orderkey"].to_numpy()}),
        batch_format="pandas")

    def keep_sum(g: pd.DataFrame, rank: np.ndarray,
                 total: int) -> pd.DataFrame:
        k = int(np.floor(0.05 * total))
        keep = (rank >= k) & (rank <= total - 1 - k)
        c = g["c"].to_numpy(dtype="int64")[keep]
        return pd.DataFrame({
            "s": np.array([int(c.sum())], dtype="int64"),
            "m": np.array([int(keep.sum())], dtype="int64")})

    partials, total = _value_rank_exchange(
        cents, "c", ["o_orderkey"], 4096, 32, keep_sum)
    p = partials.to_pandas()
    s, m = int(p["s"].sum()), int(p["m"].sum())
    return pd.DataFrame({
        "n": np.array([total], dtype="int64"),
        "k_trim": np.array([int(np.floor(0.05 * total))],
                           dtype="int64"),
        "n_kept": np.array([m], dtype="int64"),
        "sum_kept_c": np.array([s], dtype="int64"),
        "trimmed_mean_c": np.array([round(float(s) / float(m), 6)],
                                   dtype="float64")})


def q_runs_test(sf_dir: str):
    """Per-user Wald–Wolfowitz runs test — "are this user's
    above/below-median values serially random, or do they streak?"
    (the autocorrelation-free cousin of `autocorr`; a bursty host's
    latencies fail it). Values dichotomize against the user's exact
    discrete median; runs count from one vectorized shift-compare in
    (ts, event_id) order inside ONE user-hash exchange. n, n1, n0 and
    the run count are exact int64; the z-score's μ/σ expressions are
    written token-identically in both engines, with the degenerate
    σ=0 cases (single-sign users, 2·n1·n0 = n) pinned to z=0."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "value"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "user_id": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "n1": pd.Series(dtype="int64"),
                "n0": pd.Series(dtype="int64"),
                "runs": pd.Series(dtype="int64"),
                "z": pd.Series(dtype="float64")})
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        v_all = np.rint(g["value"].to_numpy(dtype="float64") * 100
                        ).astype("int64")
        rows = []
        for uid, gg in g.assign(__v=v_all).groupby(
                "user_id", sort=False):
            v = gg["__v"].to_numpy()
            n = len(v)
            med = np.quantile(v, 0.5, method="inverted_cdf")
            sg = (v > med).astype("int64")
            n1 = int(sg.sum())
            n0 = n - n1
            runs = 1 + int((sg[1:] != sg[:-1]).sum())
            if n1 == 0 or n0 == 0 or 2 * n1 * n0 == n:
                z = 0.0
            else:
                mu = 2.0 * n1 * n0 / n + 1.0
                var = (2.0 * n1 * n0 * (2.0 * n1 * n0 - n)
                       / (float(n) * float(n) * float(n - 1)))
                z = round((runs - mu) / np.sqrt(var), 6)
            rows.append((uid, n, n1, n0, runs, z))
        return pd.DataFrame(
            rows, columns=["user_id", "n", "n1", "n0", "runs", "z"]
        ).astype({"user_id": "int64", "n": "int64", "n1": "int64",
                  "n0": "int64", "runs": "int64", "z": "float64"})

    return grouped_apply(ev, ["user_id"], per_part, num_partitions=32)


def q_anova2(sf_dir: str):
    """Two-way ANOVA with interaction (returnflag × linestatus on
    quantity) — does either factor, or their interaction, move the
    mean? The sufficient statistic is the ≤3×2 cell table of exact
    int64 (n, Σy) plus the global Σy²: one bounded grouped sum, driver
    algebra after. Float discipline: each level/cell term S²/n rounds
    to integer MICRO-units before summing (so the 3-term sums can't
    reorder), and every remaining op is a scalar double expression
    written token-identically in the oracle. Classic balanced-design
    decomposition (SS_A + SS_B + SS_AB + SS_err vs Type I/II nuances
    out of scope — documented, both engines compute the same thing)."""
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_returnflag", "l_linestatus",
                             "l_quantity"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        y = d["l_quantity"].to_numpy(dtype="float64").astype("int64")
        return pd.DataFrame({
            "a": d["l_returnflag"].to_numpy(),
            "b": d["l_linestatus"].to_numpy(),
            "s": y, "q2": y * y,
            "one": np.ones(len(d), dtype="int64")})

    cells = (grouped_agg(li.map_batches(pre, batch_format="pandas"),
                         ["a", "b"],
                         {"n": ("one", "sum"), "s": ("s", "sum"),
                          "q2": ("q2", "sum")})
             .to_pandas())

    def micro_terms(df: pd.DataFrame) -> int:
        s = df["s"].to_numpy(dtype="float64")
        n = df["n"].to_numpy(dtype="float64")
        return int(np.round(s * s / n * 1e6).astype("int64").sum())

    n_tot = int(cells["n"].sum())
    s_tot = int(cells["s"].sum())
    q2_tot = int(cells["q2"].sum())
    lev_a = cells.groupby("a", as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"))
    lev_b = cells.groupby("b", as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"))
    c = float(s_tot) * float(s_tot) / float(n_tot)
    ss_total = float(q2_tot) - c
    ss_a = micro_terms(lev_a) / 1e6 - c
    ss_b = micro_terms(lev_b) / 1e6 - c
    ss_cells = micro_terms(cells) / 1e6 - c
    ss_ab = ss_cells - ss_a - ss_b
    ss_err = ss_total - ss_cells
    na, nb = len(lev_a), len(lev_b)
    df_a, df_b = na - 1, nb - 1
    df_ab = df_a * df_b
    df_err = n_tot - na * nb
    ms_err = ss_err / df_err
    return pd.DataFrame({
        "n": np.array([n_tot], dtype="int64"),
        "df_err": np.array([df_err], dtype="int64"),
        "ss_a": np.array([round(ss_a, 4)], dtype="float64"),
        "ss_b": np.array([round(ss_b, 4)], dtype="float64"),
        "ss_ab": np.array([round(ss_ab, 4)], dtype="float64"),
        "ss_err": np.array([round(ss_err, 4)], dtype="float64"),
        "f_a": np.array([round(ss_a / df_a / ms_err, 6)],
                        dtype="float64"),
        "f_b": np.array([round(ss_b / df_b / ms_err, 6)],
                        dtype="float64"),
        "f_ab": np.array([round(ss_ab / df_ab / ms_err, 6)],
                         dtype="float64")})


def q_lorenz(sf_dir: str):
    """Lorenz curve of order revenue in deciles — `gini`'s table form
    (the "bottom 50% of orders carry x% of revenue" readout): rows
    rank globally on the shared value-rank bin exchange (no global
    sort), each partition emits per-decile (Σcents, count) partials
    with decile = rank·10 // n in exact integer arithmetic, and the
    cumulative share folds on the 10-row driver table."""
    from ..functions.relational import _value_rank_exchange

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_totalprice"])
    cents = orders.map_batches(
        lambda d: pd.DataFrame({
            "c": np.rint(d["o_totalprice"].to_numpy(dtype="float64")
                         * 100).astype("int64"),
            "o_orderkey": d["o_orderkey"].to_numpy()}),
        batch_format="pandas")

    def per_decile(g: pd.DataFrame, rank: np.ndarray,
                   total: int) -> pd.DataFrame:
        dec = rank * 10 // total
        d = pd.DataFrame({"decile": dec.astype("int64"),
                          "c": g["c"].to_numpy(dtype="int64")})
        out = (d.groupby("decile", sort=False)
               .agg(s=("c", "sum"), n=("c", "count")).reset_index())
        return out.astype({"s": "int64", "n": "int64"})

    partials, _total = _value_rank_exchange(
        cents, "c", ["o_orderkey"], 4096, 32, per_decile)
    p = (partials.to_pandas().groupby("decile", as_index=False)
         .agg(n=("n", "sum"), sum_c=("s", "sum"))
         .sort_values("decile").reset_index(drop=True))
    tot = int(p["sum_c"].sum())
    cum = np.cumsum(p["sum_c"].to_numpy(dtype="int64"))
    return pd.DataFrame({
        "decile": p["decile"].astype("int64"),
        "n": p["n"].astype("int64"),
        "sum_c": p["sum_c"].astype("int64"),
        "cum_share": np.round(cum.astype("float64") / float(tot), 6)})


def q_wasserstein(sf_dir: str):
    """EXACT 1-D Wasserstein-1 (earth-mover) distance between the
    click and view cohorts' value distributions — the drift MAGNITUDE
    (`ks_test` gives the sup; W1 integrates |F_a−F_b| dv, so it feels
    the size of the shift, not just its peak). Same one-exchange
    discipline as `ks_statistic` (`_two_sample_bin_scan`): within-bin
    gap terms reduce locally (each coarse bin colocates whole), each
    bin emits ONE boundary row (vmin, vmax, |ΔF| at vmax), and the
    ≤4096-row bin table closes the cross-bin gaps on the driver.
    Per-gap terms round to integer MICRO-units before any summation,
    so the integral is float-order-free on both engines."""
    from ..functions.relational import _two_sample_bin_scan

    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_type", "value"])

    def part_w1(c, cum_a, cum_b, oa, ob, n_a, n_b):
        bins = c["__bin"].to_numpy()
        v = c["v"].to_numpy(dtype="float64")
        d = np.abs((oa[bins] + cum_a) / n_a
                   - (ob[bins] + cum_b) / n_b)
        same = bins[1:] == bins[:-1]
        gap = v[1:] - v[:-1]
        micro = int(np.round(d[:-1][same] * gap[same] * 1e6)
                    .astype("int64").sum())
        last = np.concatenate([bins[1:] != bins[:-1], [True]])
        first = np.concatenate([[True], bins[1:] != bins[:-1]])
        out = pd.DataFrame({
            "bin": bins[last].astype("int64"),
            "vmin": v[first], "vmax": v[last],
            "d_at_max": d[last],
            "micro": np.zeros(int(last.sum()), dtype="int64")})
        if len(out):
            out.loc[out.index[0], "micro"] = micro
        return out

    res = _two_sample_bin_scan(ev, "value", "event_type",
                               "click", "view", 4096, 32, part_w1)
    parts, n_a, n_b = res
    p = parts.sort_values("bin").reset_index(drop=True)
    micro = int(p["micro"].sum())
    if len(p) > 1:
        dmax = p["d_at_max"].to_numpy(dtype="float64")
        vmin = p["vmin"].to_numpy(dtype="float64")
        vmax = p["vmax"].to_numpy(dtype="float64")
        micro += int(np.round(dmax[:-1] * (vmin[1:] - vmax[:-1]) * 1e6)
                     .astype("int64").sum())
    return pd.DataFrame({
        "w1": np.array([round(micro / 1e6, 6)], dtype="float64"),
        "n_a": np.array([n_a], dtype="int64"),
        "n_b": np.array([n_b], dtype="int64")})


def q_cvm_test(sf_dir: str):
    """EXACT two-sample Cramér–von Mises statistic between the click
    and view cohorts — the mean-square CDF-difference test (more
    powerful than KS against spread-out alternatives; completes the
    two-sample family: KS sup, W1 integral, MWU rank, CvM quadratic).
    T = (n_a·n_b)/(n_a+n_b)² · Σ over OBSERVATIONS of (F_a−F_b)²,
    computed on the same single bin exchange as `ks_statistic`: per
    distinct value the squared CDF gap weights by that value's
    observation count, rounds to integer MICRO-units, and sums
    exactly — each partition ships one int64 partial."""
    from ..functions.relational import _two_sample_bin_scan

    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_type", "value"])

    def part_cvm(c, cum_a, cum_b, oa, ob, n_a, n_b):
        bins = c["__bin"].to_numpy()
        d = ((oa[bins] + cum_a) / n_a
             - (ob[bins] + cum_b) / n_b)
        cnt = (c["ca"].to_numpy() + c["cb"].to_numpy()).astype(
            "float64")
        micro = int(np.round(d * d * cnt * 1e6)
                    .astype("int64").sum())
        return pd.DataFrame({"micro": np.array([micro], dtype="int64")})

    res = _two_sample_bin_scan(ev, "value", "event_type",
                               "click", "view", 4096, 32, part_cvm)
    parts, n_a, n_b = res
    micro = int(parts["micro"].sum())
    scale = (float(n_a) * float(n_b)
             / ((float(n_a) + float(n_b))
                * (float(n_a) + float(n_b))))
    return pd.DataFrame({
        "cvm_t": np.array([round(micro / 1e6 * scale, 6)],
                          dtype="float64"),
        "n_a": np.array([n_a], dtype="int64"),
        "n_b": np.array([n_b], dtype="int64")})


def q_conversion_ci(sf_dir: str):
    """Per-experiment-arm conversion rate with Wilson 95% intervals —
    the uncertainty-aware A/B readout (an 8-user arm at 100% is NOT
    better than an 800-user arm at 80%; Wilson bounds say so where a
    raw rate can't). Users split into 8 deterministic holdout arms
    (user_id mod 8) and flag ever-purchased inside ONE user-hash
    exchange (per-partition fold to ≤8 partial rows); n and k are
    exact int64 and the Wilson algebra is a scalar double expression
    written token-identically in the oracle (z = 1.96 literal on both
    sides)."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "arm": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "k": pd.Series(dtype="int64")})
        d = pd.DataFrame({
            "u": g["user_id"].to_numpy(),
            "p": (g["event_type"].to_numpy() == "purchase")
                 .astype("int64")})
        u = (d.groupby("u", sort=False)
             .agg(conv=("p", "max")).reset_index())
        u["arm"] = u["u"] % 8
        out = (u.groupby("arm", sort=False)
               .agg(n=("u", "count"), k=("conv", "sum"))
               .reset_index())
        return out.astype("int64")

    agg = (grouped_agg(
            grouped_apply(ev, ["user_id"], per_part, num_partitions=32),
            ["arm"], {"n": ("n", "sum"), "k": ("k", "sum")})
           .to_pandas().sort_values("arm").reset_index(drop=True))
    n = agg["n"].to_numpy(dtype="float64")
    k = agg["k"].to_numpy(dtype="float64")
    z = 1.96
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z * np.sqrt(p * (1.0 - p) / n
                        + z * z / (4.0 * n * n)) / denom)
    return pd.DataFrame({
        "arm": agg["arm"].astype("int64"),
        "n": agg["n"].astype("int64"),
        "k": agg["k"].astype("int64"),
        "rate": np.round(p, 6),
        "wilson_lo": np.round(center - half, 6),
        "wilson_hi": np.round(center + half, 6)})


def q_compress_ratio(sf_dir: str):
    """Per-source zlib compression-ratio quality signal — the
    C4/Gopher-family boilerplate detector MinHash can't replace:
    highly templated or repetitive text compresses far below prose,
    so a source whose mean ratio collapses is template spam and a
    source far above it is noise. Per-doc ratio = deflate(text)/len
    (zlib level 6, stdlib, deterministic), micro-rounded to int64 in
    the scan task so per-source sums are float-order-free; one
    bounded grouped reduce. NO SQL oracle (DuckDB has no deflate) —
    the pytest replays the exact zlib arithmetic instead, and the
    driver records the rows-only check."""
    docs = read_table(sf_dir, "documents", columns=["source", "text"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        import zlib
        txts = d["text"].to_numpy()
        ratios = np.array(
            [int(round(len(zlib.compress(t.encode("utf-8"), 6))
                       / max(len(t.encode("utf-8")), 1) * 1e6))
             for t in txts], dtype="int64")
        return pd.DataFrame({
            "source": d["source"].to_numpy(),
            "r_micro": ratios,
            "mn": ratios, "mx": ratios,
            "one": np.ones(len(d), dtype="int64")})

    agg = (grouped_agg(docs.map_batches(pre, batch_format="pandas"),
                       ["source"],
                       {"s": ("r_micro", "sum"), "n": ("one", "sum"),
                        "mn": ("mn", "min"), "mx": ("mx", "max")})
           .to_pandas().sort_values("source").reset_index(drop=True))
    return pd.DataFrame({
        "source": agg["source"].astype(object),
        "n": agg["n"].astype("int64"),
        "mean_ratio": np.round(
            agg["s"].to_numpy(dtype="float64")
            / agg["n"].to_numpy(dtype="float64") / 1e6, 6),
        "min_ratio": np.round(
            agg["mn"].to_numpy(dtype="float64") / 1e6, 6),
        "max_ratio": np.round(
            agg["mx"].to_numpy(dtype="float64") / 1e6, 6)})


def q_ndcg(sf_dir: str):
    """Mean nDCG@10 over per-user event rankings — the graded ranking
    metric that `mrr`/`average_precision` can't replace (binary
    relevance flattens purchase≫click). Each user's events rank by
    value DESC (event_id tiebreak = the model's score order); graded
    relevance purchase=2 / click=1 / else 0; DCG@10 with the 2^rel−1
    gain and log2(pos+1) discount, normalized by the ideal ordering
    (rel DESC). ONE user-hash exchange (`grouped_apply`), per-partition
    numpy ranking, per-user ndcg micro-rounded to int64 before the
    cross-partition sum so reassociation can't flip the mean hash.
    Users with no relevant event (IDCG=0) are excluded on both sides."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id", "user_id", "event_type",
                             "value"])
    K = 10

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "micro": pd.Series(dtype="int64"),
                "n_users": pd.Series(dtype="int64")})
        rel = np.select(
            [g["event_type"].to_numpy() == "purchase",
             g["event_type"].to_numpy() == "click"],
            [2.0, 1.0], 0.0)
        d = pd.DataFrame({"u": g["user_id"].to_numpy(),
                          "v": g["value"].to_numpy(dtype="float64"),
                          "e": g["event_id"].to_numpy(),
                          "rel": rel})
        # predicted order: value DESC, event_id ASC within user
        d = d.sort_values(["u", "v", "e"],
                          ascending=[True, False, True],
                          kind="mergesort").reset_index(drop=True)
        pos = d.groupby("u", sort=False).cumcount().to_numpy() + 1
        gain = (2.0 ** d["rel"].to_numpy() - 1.0) / np.log2(pos + 1.0)
        gain[pos > K] = 0.0
        dcg = (pd.DataFrame({"u": d["u"], "g": gain})
               .groupby("u", sort=False)["g"].sum())
        # ideal order: rel DESC (value/event tiebreaks don't change
        # the gain sequence — gain depends on rel alone)
        d = d.sort_values(["u", "rel"], ascending=[True, False],
                          kind="mergesort").reset_index(drop=True)
        ipos = d.groupby("u", sort=False).cumcount().to_numpy() + 1
        igain = (2.0 ** d["rel"].to_numpy() - 1.0) / np.log2(ipos + 1.0)
        igain[ipos > K] = 0.0
        idcg = (pd.DataFrame({"u": d["u"], "g": igain})
                .groupby("u", sort=False)["g"].sum())
        keep = idcg > 0
        nd = (dcg[keep] / idcg[keep]).to_numpy(dtype="float64")
        micro = np.round(nd * 1e6).astype("int64")
        return pd.DataFrame({
            "micro": np.array([micro.sum()], dtype="int64"),
            "n_users": np.array([int(keep.sum())], dtype="int64")})

    parts = grouped_apply(ev, ["user_id"], per_part,
                          num_partitions=32).to_pandas()
    micro = int(parts["micro"].sum())
    n_users = int(parts["n_users"].sum())
    mean = micro / 1e6 / n_users if n_users else float("nan")
    return pd.DataFrame({
        "mean_ndcg": np.array([round(mean, 6)], dtype="float64"),
        "n_users": np.array([n_users], dtype="int64")})


def _user_click_purchase_counts(sf_dir: str) -> pd.DataFrame:
    """Shared 2×2 contingency builder: per-user ever-clicked /
    ever-purchased flags folded inside ONE user-hash exchange
    (per-partition groupby-max then a ≤4-row crosstab per partition),
    integer partials summed on the driver. Returns exact int64 counts
    n11, n10, n01, n00."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in ("n11", "n10", "n01", "n00")})
        d = pd.DataFrame({
            "u": g["user_id"].to_numpy(),
            "a": (g["event_type"].to_numpy() == "click")
                 .astype("int64"),
            "b": (g["event_type"].to_numpy() == "purchase")
                 .astype("int64")})
        u = d.groupby("u", sort=False).agg(a=("a", "max"),
                                           b=("b", "max"))
        a = u["a"].to_numpy()
        b = u["b"].to_numpy()
        return pd.DataFrame({
            "n11": np.array([int(((a == 1) & (b == 1)).sum())],
                            dtype="int64"),
            "n10": np.array([int(((a == 1) & (b == 0)).sum())],
                            dtype="int64"),
            "n01": np.array([int(((a == 0) & (b == 1)).sum())],
                            dtype="int64"),
            "n00": np.array([int(((a == 0) & (b == 0)).sum())],
                            dtype="int64")})

    parts = grouped_apply(ev, ["user_id"], per_part,
                          num_partitions=32).to_pandas()
    return parts[["n11", "n10", "n01", "n00"]].sum().astype("int64")


def q_mcnemar(sf_dir: str):
    """McNemar's paired test on (ever-clicked, ever-purchased) user
    flags — the PAIRED 2×2 test `chi2_independence` can't substitute
    (same users under both conditions; only the discordant cells
    carry signal). Edwards continuity correction
    χ² = (|b10−b01|−1)²/(b10+b01) computed from exact integer counts,
    so the statistic is a bit-identical scalar expression on both
    sides; 6 dp."""
    c = _user_click_purchase_counts(sf_dir)
    b10 = int(c["n10"])
    b01 = int(c["n01"])
    chi = ((abs(b10 - b01) - 1.0) ** 2 / (b10 + b01)
           if (b10 + b01) > 0 else float("nan"))
    return pd.DataFrame({
        "b01": np.array([b01], dtype="int64"),
        "b10": np.array([b10], dtype="int64"),
        "mcnemar_chi2": np.array([round(chi, 6)], dtype="float64")})


def q_odds_ratio(sf_dir: str):
    """Click→purchase odds ratio with a 95% log-normal CI — the
    effect-size readout on the same user-level 2×2 the paired test
    uses. Haldane–Anscombe +0.5 on every cell (robust to zero cells
    at small sf, applied unconditionally on both sides);
    CI = exp(ln OR ∓ 1.96·SE), SE = sqrt(Σ 1/(cell+0.5)). Counts are
    exact int64 from one user-hash exchange; the OR algebra is a
    scalar double expression written token-identically in the
    oracle; 6 dp."""
    c = _user_click_purchase_counts(sf_dir)
    n11, n10, n01, n00 = (float(c[k]) + 0.5
                          for k in ("n11", "n10", "n01", "n00"))
    orr = (n11 * n00) / (n10 * n01)
    se = float(np.sqrt(1.0 / n11 + 1.0 / n10 + 1.0 / n01 + 1.0 / n00))
    lo = float(np.exp(np.log(orr) - 1.96 * se))
    hi = float(np.exp(np.log(orr) + 1.96 * se))
    return pd.DataFrame({
        "n11": np.array([int(c["n11"])], dtype="int64"),
        "n10": np.array([int(c["n10"])], dtype="int64"),
        "n01": np.array([int(c["n01"])], dtype="int64"),
        "n00": np.array([int(c["n00"])], dtype="int64"),
        "odds_ratio": np.array([round(orr, 6)], dtype="float64"),
        "ci_lo": np.array([round(lo, 6)], dtype="float64"),
        "ci_hi": np.array([round(hi, 6)], dtype="float64")})


def q_readability(sf_dir: str):
    """Per-source Flesch reading-ease / FK-grade profile — the
    readability axis of corpus curation `quality`'s ratio features
    don't capture (a source drifting to grade-16 legalese or grade-2
    spam shifts the mix even at constant stopword ratio). Per doc,
    three vectorized non-overlapping regex-run counts (words `\\S+`,
    sentences `[.!?]+`, syllable proxy = vowel runs); both scores are
    scalar expressions over those exact ints, micro-rounded to int64
    per doc BEFORE the per-source sum so the mean is float-order-free.
    One map_batches pass + a ≤|sources| reduce; the oracle counts the
    identical runs with regexp_extract_all."""
    docs = read_table(sf_dir, "documents", bytes_per_block=_DOC_BPB,
                      columns=["source", "text"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        t = d["text"]
        w = t.str.count(r"\S+").to_numpy(dtype="float64")
        s = np.maximum(
            t.str.count(r"[.!?]+").to_numpy(dtype="float64"), 1.0)
        syl = t.str.count(r"[aeiouyAEIOUY]+").to_numpy(dtype="float64")
        ok = w > 0
        fre = 206.835 - 1.015 * (w / s) - 84.6 * (syl / w)
        fkg = 0.39 * (w / s) + 11.8 * (syl / w) - 15.59
        return pd.DataFrame({
            "source": d["source"].to_numpy()[ok],
            "fre_mi": np.round(fre[ok] * 1e6).astype("int64"),
            "fkg_mi": np.round(fkg[ok] * 1e6).astype("int64"),
            "one": np.ones(int(ok.sum()), dtype="int64")})

    agg = (grouped_agg(docs.map_batches(pre, batch_format="pandas"),
                       ["source"], {"s_fre": ("fre_mi", "sum"),
                                    "s_fkg": ("fkg_mi", "sum"),
                                    "n": ("one", "sum")})
           .to_pandas().sort_values("source").reset_index(drop=True))
    n = agg["n"].to_numpy(dtype="float64")
    return pd.DataFrame({
        "source": agg["source"].astype(object),
        "n_docs": agg["n"].astype("int64"),
        "mean_fre": np.round(
            agg["s_fre"].to_numpy(dtype="float64") / 1e6 / n, 6),
        "mean_fk_grade": np.round(
            agg["s_fkg"].to_numpy(dtype="float64") / 1e6 / n, 6)})


def q_friedman(sf_dir: str):
    """Friedman rank test across the click/view/purchase treatments
    with users as blocks — the repeated-measures k-sample test
    `kruskal` (independent samples) can't substitute: each user
    serves as their own control. Per-(user,type) means are exact
    rationals (integer-cent sums / counts) micro-rounded to int64 so
    rank ties are exact integer comparisons on BOTH engines; only
    complete blocks (all 3 treatments) rank. ONE user-hash exchange:
    within-partition (u,t) fold, vectorized 3-way midranks (doubled
    to stay integral), per-treatment (Σ2R, blocks) int partials; the
    driver folds ≤3×partitions rows. Q uses the classic midrank
    formula, replayed token-identically in SQL; 6 dp."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "value"])
    kinds = ["click", "purchase", "view"]

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["event_type"].isin(kinds)]
        if len(g) == 0:
            return pd.DataFrame({
                "t": pd.Series(dtype=object),
                "sum_r2": pd.Series(dtype="int64"),
                "nb": pd.Series(dtype="int64")})
        d = pd.DataFrame({
            "u": g["user_id"].to_numpy(),
            "t": g["event_type"].to_numpy(),
            "c": np.rint(g["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64"),
            "one": np.ones(len(g), dtype="int64")})
        ag = (d.groupby(["u", "t"], sort=False)
              .agg(sc=("c", "sum"), n=("one", "sum")).reset_index())
        ag["micro"] = np.round(
            ag["sc"].to_numpy(dtype="float64") * 10000.0
            / ag["n"].to_numpy(dtype="float64")).astype("int64")
        piv = ag.pivot(index="u", columns="t", values="micro")
        piv = piv.dropna()
        if piv.shape[1] < 3 or len(piv) == 0:
            return pd.DataFrame({
                "t": pd.Series(dtype=object),
                "sum_r2": pd.Series(dtype="int64"),
                "nb": pd.Series(dtype="int64")})
        m = piv[kinds].to_numpy(dtype="int64")
        rows = []
        for j, t in enumerate(kinds):
            lt = (m < m[:, j:j + 1]).sum(axis=1)
            eq = (m == m[:, j:j + 1]).sum(axis=1) - 1
            r2 = 2 * (1 + lt) + eq  # doubled midrank, exact int
            rows.append((t, int(r2.sum()), len(piv)))
        return pd.DataFrame(rows, columns=["t", "sum_r2", "nb"])

    parts = (grouped_agg(
        grouped_apply(ev, ["user_id"], per_part, num_partitions=32),
        ["t"], {"sum_r2": ("sum_r2", "sum"), "nb": ("nb", "sum")})
        .to_pandas().sort_values("t").reset_index(drop=True))
    if len(parts) < 3 or parts["nb"].min() == 0:
        return pd.DataFrame({
            "friedman_q": pd.Series(dtype="float64"),
            "n_blocks": pd.Series(dtype="int64"),
            "k_treatments": pd.Series(dtype="int64")})
    n = float(parts["nb"].iloc[0])
    k = 3.0
    ssq = float(sum((r2 / 2.0) ** 2
                    for r2 in parts["sum_r2"].to_numpy()))
    q = 12.0 / (n * k * (k + 1.0)) * ssq - 3.0 * n * (k + 1.0)
    return pd.DataFrame({
        "friedman_q": np.array([round(q, 6)], dtype="float64"),
        "n_blocks": np.array([int(n)], dtype="int64"),
        "k_treatments": np.array([3], dtype="int64")})


def q_seasonal_decompose(sf_dir: str):
    """Classical additive seasonal decomposition of daily revenue —
    the detrended weekly profile `dow_seasonality` (raw per-dow
    means) conflates with trend when revenue grows. Daily
    integer-cent totals reduce in ONE ≤|days|-key exchange (a 100-TB
    stream still folds to one row per day); the tiny day table is
    driver-side: a 0-filled day spine, a centered 7-day trend kept
    EXACT by working in 7× units (trend7 = Σ of 7 int cent totals,
    detrended7 = 7·v − trend7, both exact int64), per-dow integer
    sums. The only division is the final seasonal index; the oracle
    replays the identical spine (range()), window frame and 7×
    arithmetic."""
    ev = read_table(sf_dir, "events", columns=["ts", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        days = (d["ts"].to_numpy("datetime64[us]").astype("int64")
                // 86_400_000_000)
        return pd.DataFrame({
            "day": days,
            "v_c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                   .astype("int64")})

    daily = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                         ["day"], {"v": ("v_c", "sum")})
             .to_pandas().sort_values("day").reset_index(drop=True))
    if len(daily) == 0:
        return pd.DataFrame({
            "dow": pd.Series(dtype="int64"),
            "n_days": pd.Series(dtype="int64"),
            "sum_detr7": pd.Series(dtype="int64"),
            "seasonal": pd.Series(dtype="float64")})
    lo, hi = int(daily["day"].min()), int(daily["day"].max())
    spine = pd.DataFrame({"day": np.arange(lo, hi + 1, dtype="int64")})
    d = spine.merge(daily, on="day", how="left").fillna({"v": 0})
    v = d["v"].to_numpy(dtype="int64")
    t7 = (pd.Series(v).rolling(7, center=True).sum())
    valid = t7.notna().to_numpy()
    detr7 = 7 * v[valid] - t7.to_numpy()[valid].astype("int64")
    dow = (d["day"].to_numpy()[valid] + 4) % 7
    out = (pd.DataFrame({"dow": dow, "detr7": detr7,
                         "one": np.ones(valid.sum(), dtype="int64")})
           .groupby("dow", as_index=False)
           .agg(n_days=("one", "sum"), sum_detr7=("detr7", "sum"))
           .sort_values("dow").reset_index(drop=True))
    if len(out) == 0:
        return pd.DataFrame({
            "dow": pd.Series(dtype="int64"),
            "n_days": pd.Series(dtype="int64"),
            "sum_detr7": pd.Series(dtype="int64"),
            "seasonal": pd.Series(dtype="float64")})
    return pd.DataFrame({
        "dow": out["dow"].astype("int64"),
        "n_days": out["n_days"].astype("int64"),
        "sum_detr7": out["sum_detr7"].astype("int64"),
        "seasonal": np.round(
            out["sum_detr7"].to_numpy(dtype="float64")
            / (7.0 * out["n_days"].to_numpy(dtype="float64"))
            / 100.0, 6)})


def q_trend_test(sf_dir: str):
    """Cochran–Armitage trend test — does purchase conversion rise
    monotonically across the 8 ordinal holdout arms `conversion_ci`
    reads out? The k-proportion generalization `chi2_independence`
    wastes power on (it ignores arm ORDER). Scores = arm index; every
    Σ term (n_a, r_a, s·n, s·r, s²·n) is an exact int64 from ONE
    user-hash exchange, so T and Var(T) are rational expressions over
    exact ints written token-identically in SQL; z² = T²/Var; 6 dp."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "arm": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "r": pd.Series(dtype="int64")})
        d = pd.DataFrame({
            "u": g["user_id"].to_numpy(),
            "p": (g["event_type"].to_numpy() == "purchase")
                 .astype("int64")})
        u = (d.groupby("u", sort=False)
             .agg(conv=("p", "max")).reset_index())
        u["arm"] = u["u"] % 8
        out = (u.groupby("arm", sort=False)
               .agg(n=("u", "count"), r=("conv", "sum"))
               .reset_index())
        return out.astype("int64")

    agg = (grouped_agg(
        grouped_apply(ev, ["user_id"], per_part, num_partitions=32),
        ["arm"], {"n": ("n", "sum"), "r": ("r", "sum")})
        .to_pandas().sort_values("arm").reset_index(drop=True))
    s = agg["arm"].to_numpy(dtype="int64")
    n = agg["n"].to_numpy(dtype="int64")
    r = agg["r"].to_numpy(dtype="int64")
    N = int(n.sum())
    R = int(r.sum())
    Ssr = int((s * r).sum())
    Ssn = int((s * n).sum())
    Ssn2 = int((s * s * n).sum())
    pbar = R / N
    t_stat = Ssr - pbar * Ssn
    # double-multiply BEFORE the divide, token-matching the oracle's
    # ssn::DOUBLE * ssn::DOUBLE / N::DOUBLE
    var = pbar * (1.0 - pbar) * (Ssn2 - float(Ssn) * float(Ssn)
                                 / float(N))
    z2 = t_stat * t_stat / var if var > 0 else float("nan")
    return pd.DataFrame({
        "n_users": np.array([N], dtype="int64"),
        "converted": np.array([R], dtype="int64"),
        "ca_t": np.array([round(t_stat, 6)], dtype="float64"),
        "ca_z2": np.array([round(z2, 6)], dtype="float64")})


def q_bootstrap_ci(sf_dir: str):
    """Percentile-bootstrap 95% CI for mean event value — the
    distribution-free uncertainty readout when no closed form exists,
    made EXACTLY reproducible across engines by replacing RNG
    resampling with hash-Poissonization: replicate b gives row i the
    weight w_ib = #{k<8 : h(id,b,k) ≡ 0 (mod 8)} ~ Binomial(8,1/8) ≈
    Poisson(1), with h the same pre-mod Knuth multiplicative hash
    `sample_hash` uses — identical uint64 arithmetic in numpy and
    DuckDB. Weights and integer cents make every replicate sum an
    exact int64, so all 40 replicate means are bit-identical doubles;
    the CI is the (2.5%, 97.5%) order statistics. ONE streaming pass,
    40×3 int partials per batch, no shuffle."""
    B = 40
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id", "value"])

    def partials(d: pd.DataFrame) -> pd.DataFrame:
        ids = (d["event_id"].to_numpy().astype(np.uint64)
               % np.uint64(4294967296))
        c = np.rint(d["value"].to_numpy(dtype="float64") * 100) \
            .astype("int64")
        base = ids * np.uint64(2654435761)
        sw = np.empty(B, dtype="int64")
        swc = np.empty(B, dtype="int64")
        for b in range(B):
            inner = base + np.uint64(b * 40503)
            w = np.zeros(len(ids), dtype="int64")
            for k in range(8):
                h = (((inner + np.uint64(k * 2246822519))
                      % np.uint64(4294967296))
                     * np.uint64(2654435761)) % np.uint64(4294967296)
                w += (h % np.uint64(8) == 0)
            sw[b] = int(w.sum())
            swc[b] = int((w * c).sum())
        out = pd.DataFrame({"b": np.arange(B, dtype="int64"),
                            "sw": sw, "swc": swc})
        out["n"] = np.where(out["b"] == 0, len(c), 0).astype("int64")
        out["sc"] = np.where(out["b"] == 0, int(c.sum()), 0) \
            .astype("int64")
        return out

    agg = (grouped_agg(ev.map_batches(partials, batch_format="pandas"),
                       ["b"], {"sw": ("sw", "sum"),
                               "swc": ("swc", "sum"),
                               "n": ("n", "sum"),
                               "sc": ("sc", "sum")})
           .to_pandas().sort_values("b").reset_index(drop=True))
    means = np.sort(agg["swc"].to_numpy(dtype="float64")
                    / agg["sw"].to_numpy(dtype="float64") / 100.0)
    n = int(agg["n"].sum())
    mean = float(agg["sc"].sum()) / float(n) / 100.0
    return pd.DataFrame({
        "n": np.array([n], dtype="int64"),
        "mean": np.array([round(mean, 6)], dtype="float64"),
        "boot_lo": np.array([round(float(means[1]), 6)],
                            dtype="float64"),
        "boot_hi": np.array([round(float(means[B - 2]), 6)],
                            dtype="float64"),
        "b_replicates": np.array([B], dtype="int64")})


def q_cuped(sf_dir: str):
    """CUPED variance-reduced A/B readout (Deng et al., WSDM 2013) —
    the experimentation-platform adjustment plain `ab_test` lacks:
    each user's pre-period spend x (first half of the day range)
    controls their post-period spend y, adjusted y* = y − θ(x − x̄)
    with θ = cov(x,y)/var(x) from the WHOLE population. Per-user
    (x, y) cents fold inside ONE user-hash exchange; θ, arm means and
    the variance-reduction ratio ρ² all derive from exact int64
    moment sums (Σx, Σy, Σxy, Σx², Σy² per arm), so every scalar is
    a deterministic expression replayed token-identically in SQL;
    6 dp. Scale bound: per-user cent sums squared keep Σxy inside
    int64 up to ~10^8 users at these value ranges — beyond that,
    drop to dollar resolution (the `partial_corr` fix pattern)."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["ts", "user_id", "value"])
    b = (grouped_agg(ev.map_batches(
        lambda d: pd.DataFrame({
            "k": np.zeros(len(d), dtype="int64"),
            "day": d["ts"].to_numpy("datetime64[us]")
                   .astype("int64") // 86_400_000_000}),
        batch_format="pandas"),
        ["k"], {"lo": ("day", "min"), "hi": ("day", "max")})
        .to_pandas())
    mid = int((int(b["lo"].iloc[0]) + int(b["hi"].iloc[0]) + 1) // 2)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "arm": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "sx": pd.Series(dtype="int64"),
                "sy": pd.Series(dtype="int64"),
                "sxy": pd.Series(dtype="int64"),
                "sxx": pd.Series(dtype="int64"),
                "syy": pd.Series(dtype="int64")})
        day = (g["ts"].to_numpy("datetime64[us]").astype("int64")
               // 86_400_000_000)
        c = np.rint(g["value"].to_numpy(dtype="float64") * 100) \
            .astype("int64")
        pre = day < mid
        d = pd.DataFrame({"u": g["user_id"].to_numpy(),
                          "x": np.where(pre, c, 0),
                          "y": np.where(pre, 0, c)})
        u = d.groupby("u", sort=False).agg(
            x=("x", "sum"), y=("y", "sum")).reset_index()
        u["arm"] = u["u"] % 2
        x = u["x"].to_numpy()
        y = u["y"].to_numpy()
        u = u.assign(sxy=x * y, sxx=x * x, syy=y * y,
                     one=np.ones(len(u), dtype="int64"))
        out = (u.groupby("arm", sort=False)
               .agg(n=("one", "sum"), sx=("x", "sum"),
                    sy=("y", "sum"), sxy=("sxy", "sum"),
                    sxx=("sxx", "sum"), syy=("syy", "sum"))
               .reset_index())
        return out.astype("int64")

    a = (grouped_agg(
        grouped_apply(ev, ["user_id"], per_part, num_partitions=32),
        ["arm"], {"n": ("n", "sum"), "sx": ("sx", "sum"),
                  "sy": ("sy", "sum"), "sxy": ("sxy", "sum"),
                  "sxx": ("sxx", "sum"), "syy": ("syy", "sum")})
        .to_pandas().sort_values("arm").reset_index(drop=True))
    N = float(a["n"].sum())
    SX = float(a["sx"].sum())
    SY = float(a["sy"].sum())
    SXY = float(a["sxy"].sum())
    SXX = float(a["sxx"].sum())
    SYY = float(a["syy"].sum())
    cov = SXY / N - SX / N * (SY / N)
    varx = SXX / N - SX / N * (SX / N)
    vary = SYY / N - SY / N * (SY / N)
    theta = cov / varx
    rho2 = cov * cov / (varx * vary)
    n = a["n"].to_numpy(dtype="float64")
    ybar = a["sy"].to_numpy(dtype="float64") / n
    xbar = a["sx"].to_numpy(dtype="float64") / n
    adj = ybar - theta * (xbar - SX / N)
    return pd.DataFrame({
        "arm": a["arm"].astype("int64"),
        "n": a["n"].astype("int64"),
        "raw_mean": np.round(ybar / 100.0, 6),
        "cuped_mean": np.round(adj / 100.0, 6),
        "theta": np.round(np.full(len(a), theta), 6),
        "var_reduction": np.round(np.full(len(a), rho2), 6)})


def q_theil_index(sf_dir: str):
    """Theil T inequality index of order revenue — the decomposable
    entropy-based complement to `gini`/`lorenz` (T splits exactly
    into between-group + within-group terms; here the between-status
    decomposition is reported too). T = (1/N) Σ (x/μ)·ln(x/μ): μ
    comes from one exact cent pass, then every row's term
    micro-rounds to int64 before the sum, so the index is
    float-order-free; the 3-row status decomposition reuses the same
    partials per o_orderstatus. Zero-value rows contribute 0 (x·ln x
    limit), matching the CASE in SQL; 6 dp."""
    od = read_table(sf_dir, "orders", bytes_per_block=_FACT_BPB,
                    columns=["o_orderstatus", "o_totalprice"])
    pre = (grouped_agg(od.map_batches(
        lambda d: pd.DataFrame({
            "g": d["o_orderstatus"].to_numpy(),
            "c": np.rint(d["o_totalprice"].to_numpy(dtype="float64")
                         * 100).astype("int64"),
            "one": np.ones(len(d), dtype="int64")}),
        batch_format="pandas"),
        ["g"], {"n": ("one", "sum"), "s": ("c", "sum")})
        .to_pandas().sort_values("g").reset_index(drop=True))
    N = float(pre["n"].sum())
    mu = float(pre["s"].sum()) / N      # cents

    def terms(d: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(d["o_totalprice"].to_numpy(dtype="float64") * 100) \
            .astype("int64").astype("float64")
        r = c / mu
        t = np.where(c > 0, r * np.log(np.where(c > 0, r, 1.0)), 0.0)
        return pd.DataFrame({
            "g": d["o_orderstatus"].to_numpy(),
            "t_mi": np.round(t * 1e6).astype("int64")})

    tm = (grouped_agg(od.map_batches(terms, batch_format="pandas"),
                      ["g"], {"t": ("t_mi", "sum")})
          .to_pandas().sort_values("g").reset_index(drop=True))
    m = pre.merge(tm, on="g")
    theil_g = m["t"].to_numpy(dtype="float64") / 1e6 \
        / m["n"].to_numpy(dtype="float64")
    total = float(m["t"].sum()) / 1e6 / N
    return pd.DataFrame({
        "g": m["g"].astype(object),
        "n": m["n"].astype("int64"),
        "theil_within_scaled": np.round(theil_g, 6),
        "theil_total": np.round(np.full(len(m), total), 6)})


def q_mmr_rerank(sf_dir: str):
    """Maximal-marginal-relevance reranking (Carbonell & Goldstein,
    SIGIR'98) — the diversity-aware top-k a retrieval stack runs AFTER
    `ann_topk`, trading relevance against redundancy:
    score = λ·rel − μ·max-sim-to-selected with λ=0.7, μ=0.3 shared as
    LITERALS on both engines (1−0.7 in float is not 0.3). The
    distributed
    work is the exact candidate scan (the shared `brute_force_topk`
    float64 kernel, per-batch local top-k, no shuffle) for the top-20
    pool; the 20×20 pairwise matrix and the 5 greedy picks are
    driver-side on the bounded pool, ties by id. The oracle replays
    the identical pool, pairwise sims (list_cosine_similarity) and an
    unrolled 5-round greedy; the first pick scores raw rel (empty
    selected set); 6 dp."""
    lam, mu = 0.7, 0.3
    queries, qids = _query_vectors(sf_dir, n=1)
    q = queries[0]
    ds = read_table(sf_dir, "embeddings", bytes_per_block=_DOC_BPB,
                    columns=["vec_id", "embedding"])
    cand = (similarity.brute_force_topk(
        ds, q[None, :], np.array([0]), k=20)
        .to_pandas().sort_values(["rank"]).reset_index(drop=True))
    ids = cand["neighbor_id"].to_numpy()
    rel = cand["cosine"].to_numpy(dtype="float64")

    import pyarrow.parquet as pq_
    vt = pq_.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", [int(i) for i in ids])])
    vmap = dict(zip(vt["vec_id"].to_numpy(zero_copy_only=False),
                    vt["embedding"].to_pylist()))
    E = np.stack([vmap[int(i)] for i in ids]).astype(np.float64)
    E = E / np.maximum(np.linalg.norm(E, axis=1, keepdims=True),
                       1e-12)
    S = E @ E.T

    order = np.lexsort((ids, -rel))     # rel desc, id asc
    sel = [int(order[0])]
    out = [(1, int(ids[order[0]]), float(rel[order[0]]))]
    for rk in range(2, 6):
        best = None
        for i in range(len(ids)):
            if i in sel:
                continue
            score = lam * rel[i] - mu * float(np.max(S[i, sel]))
            key = (-score, int(ids[i]))
            if best is None or key < best[0]:
                best = (key, i, score)
        sel.append(best[1])
        out.append((rk, int(ids[best[1]]), float(best[2])))
    return pd.DataFrame({
        "rank": np.array([r for r, _, _ in out], dtype="int64"),
        "vec_id": np.array([v for _, v, _ in out], dtype="int64"),
        "score": np.round(np.array([s for _, _, s in out]), 6)})


def q_name_match(sf_dir: str):
    """Blocked fuzzy entity matching on the part-name catalog — the
    record-linkage primitive `fuzzy_dedup` (edit-distance-1, complete)
    can't cover: Jaro–Winkler tolerates transpositions and rewards
    shared prefixes. Candidate generation is first-character blocking
    over the DISTINCT name table (names are catalog-scale, names per
    block bounded — the documented blocking assumption); each block's
    pairs score with `functions/text.py:jaro_winkler`, verified
    bit-identical to DuckDB's rapidfuzz convention (incl. the floored
    half-transposition count) on 300 adversarial pairs. Threshold on
    the UNROUNDED score on both engines; 6 dp output."""
    from ..functions.relational import grouped_apply
    from ..functions.text import jaro_winkler

    thr = 0.5
    names = distinct(
        read_table(sf_dir, "part", columns=["p_name"]), ["p_name"],
        merge_partitions=4)

    def block_pairs(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, blk in g.groupby("__blk", sort=False):
            ns = sorted(blk["p_name"].tolist())
            for i in range(len(ns)):
                for j in range(i + 1, len(ns)):
                    jw = jaro_winkler(ns[i], ns[j])
                    if jw >= thr:
                        rows.append((ns[i], ns[j], jw))
        if not rows:
            return pd.DataFrame({
                "name_a": pd.Series(dtype=object),
                "name_b": pd.Series(dtype=object),
                "jw": pd.Series(dtype="float64")})
        out = pd.DataFrame(rows, columns=["name_a", "name_b", "jw"])
        out["jw"] = np.round(out["jw"].astype("float64"), 6)
        return out

    tagged = names.map_batches(
        lambda d: d.assign(__blk=d["p_name"].str.slice(0, 1)),
        batch_format="pandas")
    return grouped_apply(tagged, ["__blk"], block_pairs,
                         num_partitions=8)


def q_did(sf_dir: str):
    """Difference-in-differences on the same pre/post split and
    user arms as `cuped` — the observational-causal readout when the
    'treatment' wasn't randomized: did = (T̄post − T̄pre) −
    (C̄post − C̄pre). All four cell sums/counts are exact int64 from
    ONE user-free streaming pass (no per-user state needed — DiD
    averages events directly per cell); the estimator is a scalar
    expression over exact ints, token-identical in SQL; 6 dp."""
    ev = read_table(sf_dir, "events",
                    columns=["ts", "user_id", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        day = (d["ts"].to_numpy("datetime64[us]").astype("int64")
               // 86_400_000_000)
        c = np.rint(d["value"].to_numpy(dtype="float64") * 100) \
            .astype("int64")
        return pd.DataFrame({
            "arm": (d["user_id"].to_numpy() % 2).astype("int64"),
            "day": day, "c": c,
            "one": np.ones(len(d), dtype="int64")})

    t = ev.map_batches(pre, batch_format="pandas").materialize()
    b = grouped_agg(t.map_batches(
        lambda d: pd.DataFrame({"k": np.zeros(len(d), dtype="int64"),
                                "day": d["day"]}),
        batch_format="pandas"),
        ["k"], {"lo": ("day", "min"), "hi": ("day", "max")}).to_pandas()
    mid = int((int(b["lo"].iloc[0]) + int(b["hi"].iloc[0]) + 1) // 2)

    cells = (grouped_agg(t.map_batches(
        lambda d: pd.DataFrame({
            "arm": d["arm"],
            "post": (d["day"].to_numpy() >= mid).astype("int64"),
            "c": d["c"], "one": d["one"]}),
        batch_format="pandas"),
        ["arm", "post"], {"s": ("c", "sum"), "n": ("one", "sum")})
        .to_pandas().sort_values(["arm", "post"])
        .reset_index(drop=True))
    m = {(int(r["arm"]), int(r["post"])):
         float(r["s"]) / float(r["n"]) for _, r in cells.iterrows()}
    did = (m[(1, 1)] - m[(1, 0)]) - (m[(0, 1)] - m[(0, 0)])
    return pd.DataFrame({
        "ctrl_pre": np.array([round(m[(0, 0)] / 100.0, 6)]),
        "ctrl_post": np.array([round(m[(0, 1)] / 100.0, 6)]),
        "treat_pre": np.array([round(m[(1, 0)] / 100.0, 6)]),
        "treat_post": np.array([round(m[(1, 1)] / 100.0, 6)]),
        "did": np.array([round(did / 100.0, 6)])})


def q_curation_funnel(sf_dir: str):
    """The curation WATERFALL report — how many documents survive each
    stage of the `curate` chain (total → language gate → quality gate
    → exact-dedup winners), the per-stage attrition a 100-TB run
    monitors to catch a filter gone rogue. One scoring pass computes
    all flags (reusing the oracle-checked quality/langid kernels);
    stage counts are exact int64 partials, the dedup stage counts
    DISTINCT md5(text) among survivors (32-char hashes shuffle, never
    the text — identical count to distinct text on both engines).
    retention = unique/total; 6 dp."""
    import hashlib

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        q = text.quality_features(df)
        lang = text.LangId()(df)
        en = (lang["lang_pred"].to_numpy() == "en")
        qok = q["quality_score"].to_numpy() >= 0.5
        keep = en & qok
        h = np.array([hashlib.md5(t.encode()).hexdigest() if k else ""
                      for t, k in zip(df["text"].to_numpy(), keep)],
                     dtype=object)
        return pd.DataFrame({"en": en.astype("int64"),
                             "keep": keep.astype("int64"), "h": h})

    f = docs.map_batches(flags, batch_format="pandas").materialize()
    counts = (grouped_agg(f.map_batches(
        lambda d: pd.DataFrame({
            "k": np.zeros(1, dtype="int64"),
            "n": np.array([len(d)], dtype="int64"),
            "en": np.array([int(d["en"].sum())], dtype="int64"),
            "keep": np.array([int(d["keep"].sum())], dtype="int64")}),
        batch_format="pandas"),
        ["k"], {"n": ("n", "sum"), "en": ("en", "sum"),
                "keep": ("keep", "sum")}).to_pandas())
    uniq = int(distinct(f.map_batches(
        lambda d: d.loc[d["keep"] == 1, ["h"]],
        batch_format="pandas"), ["h"], merge_partitions=4).count())
    n = int(counts["n"].iloc[0])
    en = int(counts["en"].iloc[0])
    keep = int(counts["keep"].iloc[0])
    return pd.DataFrame({
        "n_total": np.array([n], dtype="int64"),
        "n_lang": np.array([en], dtype="int64"),
        "n_quality": np.array([keep], dtype="int64"),
        "n_unique": np.array([uniq], dtype="int64"),
        "retention": np.array([round(uniq / n, 6)], dtype="float64")})


def q_source_ablation(sf_dir: str):
    """Leave-one-source-out corpus quality — 'what happens to mean
    quality if we drop this source', the mixture-debugging readout a
    curation run consults before changing sampling weights
    (group-level LOO: the row-level sibling is `target_encode`).
    Per-doc quality micro-rounds to int64; per-source (n, Σ) partials
    make every LOO mean a ratio of exact ints — no second pass, the
    complement comes from totals minus the group; 6 dp."""
    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "source", "text"],
                      bytes_per_block=_DOC_BPB)

    def qparts(df: pd.DataFrame) -> pd.DataFrame:
        q = text.quality_features(df)
        mi = np.round(q["quality_score"].to_numpy(dtype="float64")
                      * 1e6).astype("int64")
        return pd.DataFrame({"source": df["source"].to_numpy(),
                             "s": mi,
                             "one": np.ones(len(df), dtype="int64")})

    a = (grouped_agg(docs.map_batches(qparts, batch_format="pandas"),
                     ["source"], {"s": ("s", "sum"),
                                  "n": ("one", "sum")})
         .to_pandas().sort_values("source").reset_index(drop=True))
    S = float(a["s"].sum())
    N = float(a["n"].sum())
    sg = a["s"].to_numpy(dtype="float64")
    ng = a["n"].to_numpy(dtype="float64")
    loo = (S - sg) / (N - ng) / 1e6
    delta = loo - S / N / 1e6
    return pd.DataFrame({
        "source": a["source"].astype(object),
        "n_docs": a["n"].astype("int64"),
        "loo_mean_quality": np.round(loo, 6),
        "delta": np.round(delta, 6)})


def q_shapley_attribution(sf_dir: str):
    """EXACT Shapley-value channel attribution over the three
    marketing touchpoints (view, click, signup) with purchase as
    conversion — the game-theoretic split `attribution` (last-touch)
    biases toward bottom-funnel. The coalition game is
    v(T) = conversions among users whose touched-channel set ⊆ T
    (monotone); with n=3 the 8 subset-exact conversion counts are the
    sufficient statistic — ONE user-hash exchange folds every user to
    a 3-bit channel mask + conv flag, partials are ≤8 int rows per
    partition, and the zeta transform + Shapley weights
    (|T|!(n−1−|T|)!/3!) run on the 8-row driver table in exact
    integer-sixths (φ·6 is an exact int). The oracle replays the
    identical mask counts and closed-form φ expressions; 6 dp."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "mask": pd.Series(dtype="int64"),
                "conv": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64")})
        et = g["event_type"].to_numpy()
        d = pd.DataFrame({
            "u": g["user_id"].to_numpy(),
            "v": (et == "view").astype("int64"),
            "c": (et == "click").astype("int64"),
            "s": (et == "signup").astype("int64"),
            "p": (et == "purchase").astype("int64")})
        u = d.groupby("u", sort=False).agg(
            v=("v", "max"), c=("c", "max"), s=("s", "max"),
            conv=("p", "max"))
        u["mask"] = u["v"] * 1 + u["c"] * 2 + u["s"] * 4
        out = (u.groupby("mask", sort=False)
               .agg(conv=("conv", "sum"),
                    n=("conv", "count")).reset_index())
        return out.astype("int64")

    a = (grouped_agg(
        grouped_apply(ev, ["user_id"], per_part, num_partitions=32),
        ["mask"], {"conv": ("conv", "sum"), "n": ("n", "sum")})
        .to_pandas())
    cnt = {int(r["mask"]): int(r["conv"]) for _, r in a.iterrows()}
    # v(T) = Σ conversions over masks ⊆ T (zeta transform, 8 subsets)
    v = {}
    for T in range(8):
        v[T] = sum(c for m, c in cnt.items() if (m | T) == T)
    # Shapley over 3 players; weights in sixths: |T|!(2-|T|)!: 2,1,2
    w = {0: 2, 1: 1, 2: 2}
    names = {1: "view", 2: "click", 4: "signup"}
    rows = []
    for bit, nm in sorted(names.items(), key=lambda kv: kv[0]):
        six = 0
        for T in range(8):
            if T & bit:
                continue
            tsz = bin(T).count("1")
            six += w[tsz] * (v[T | bit] - v[T])
        rows.append((nm, six))
    total_conv = v[7]
    return pd.DataFrame({
        "channel": [nm for nm, _ in rows],
        "shapley_sixths": np.array([s for _, s in rows],
                                   dtype="int64"),
        "shapley": np.round(
            np.array([s for _, s in rows], dtype="float64") / 6.0, 6),
        "total_conversions": np.array([total_conv] * 3,
                                      dtype="int64")})


def q_zonemap_prune(sf_dir: str):
    """Zone-map pruning audit — HOW MUCH scan the `zorder` layout
    actually saves: model two physical layouts of orders as 'files'
    (natural = arrival order, o_orderkey//128 ranges; zordered = the
    Morton-code prefix groups `OPTIMIZE ZORDER` would write), compute
    each file's (price, day) min/max zone map in ONE grouped exchange
    per layout, and count files a reader must scan for a price
    predicate and for a date predicate. Integer cents/days
    throughout; the zordered layout should scan far fewer files for
    BOTH dimensions — the number this audit proves. 6-dp fractions."""
    ds = read_table(sf_dir, "orders",
                    columns=["o_orderkey", "o_totalprice",
                             "o_orderdate"])

    def code(d: pd.DataFrame) -> pd.DataFrame:
        p = np.rint(d["o_totalprice"].to_numpy(dtype="float64") * 100
                    ).astype("int64")
        days = (d["o_orderdate"].astype("int64").to_numpy()
                // 86_400_000_000)
        bx = np.clip((p // 100) // 2000, 0, 255)
        by = np.clip((days - 9131) // 10, 0, 255)
        z = np.zeros(len(d), dtype="int64")
        for i in range(8):
            z |= ((bx >> i) & 1) << (2 * i)
            z |= ((by >> i) & 1) << (2 * i + 1)
        return pd.DataFrame({
            "nat": d["o_orderkey"].to_numpy("int64") // 128,
            "zf": z >> 6,          # 10-bit prefix -> ~1k files
            "p": p, "d": days})

    coded = ds.map_batches(code, batch_format="pandas").materialize()
    out_rows = []
    # predicate windows (integer cents / epoch days)
    plo, phi = 10_000_000, 11_000_000     # price in [100k, 110k)
    dlo, dhi = 9131 + 300, 9131 + 330     # one month of days
    for layout, col in (("natural", "nat"), ("zorder", "zf")):
        zm = (grouped_agg(coded, [col],
                          {"pmin": ("p", "min"), "pmax": ("p", "max"),
                           "dmin": ("d", "min"), "dmax": ("d", "max")})
              .to_pandas())
        nb = len(zm)
        sp = int(((zm["pmax"] >= plo) & (zm["pmin"] < phi)).sum())
        sd = int(((zm["dmax"] >= dlo) & (zm["dmin"] < dhi)).sum())
        out_rows.append((layout, nb, sp, sd))
    return pd.DataFrame({
        "layout": [r[0] for r in out_rows],
        "n_files": np.array([r[1] for r in out_rows], dtype="int64"),
        "scan_price": np.array([r[2] for r in out_rows],
                               dtype="int64"),
        "scan_date": np.array([r[3] for r in out_rows],
                              dtype="int64"),
        "frac_price": np.round(
            np.array([r[2] / r[1] for r in out_rows]), 6),
        "frac_date": np.round(
            np.array([r[3] / r[1] for r in out_rows]), 6)})


def q_ips_eval(sf_dir: str):
    """Off-policy evaluation of the deterministic target policy
    'always click' against the logged event stream — the IPS/SNIPS
    estimators a recommender (or RLHF data pipeline) uses to score a
    new policy WITHOUT deploying it. Logging propensities are the
    per-user empirical action frequencies p(a|u) = n_{u,a}/n_u, so
    each matched (click) event carries weight n_u/n_{u,click} — an
    exact integer ratio; per-user reward·weight terms micro-round to
    int64 inside ONE user-hash exchange and the total weight is
    EXACTLY Σ n_u over matched users (the weights telescope). IPS
    divides by all logged events, SNIPS self-normalizes; both scalars
    token-identical in SQL; 6 dp."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "value"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "t": pd.Series(dtype="int64"),
                "w": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "m": pd.Series(dtype="int64")})
        c = np.rint(g["value"].to_numpy(dtype="float64") * 100) \
            .astype("int64")
        click = (g["event_type"].to_numpy() == "click")
        d = pd.DataFrame({"u": g["user_id"].to_numpy(),
                          "n1": np.ones(len(g), dtype="int64"),
                          "nc": click.astype("int64"),
                          "rc": np.where(click, c, 0)})
        u = d.groupby("u", sort=False).agg(
            nu=("n1", "sum"), nc=("nc", "sum"), rc=("rc", "sum"))
        mt = u[u["nc"] > 0]
        x = (mt["rc"].to_numpy(dtype="float64")
             * mt["nu"].to_numpy(dtype="float64")
             / mt["nc"].to_numpy(dtype="float64"))
        # exact-rational weights DO land on .5 ties: round half-away
        # like SQL round(), not numpy's half-even
        t = np.copysign(np.floor(np.abs(x) + 0.5), x).astype("int64")
        return pd.DataFrame({
            "t": np.array([int(t.sum())], dtype="int64"),
            "w": np.array([int(mt["nu"].sum())], dtype="int64"),
            "n": np.array([int(u["nu"].sum())], dtype="int64"),
            "m": np.array([len(mt)], dtype="int64")})

    parts = grouped_apply(ev, ["user_id"], per_part,
                          num_partitions=32).to_pandas()
    T = float(parts["t"].sum())
    W = float(parts["w"].sum())
    N = float(parts["n"].sum())
    return pd.DataFrame({
        "n_events": np.array([int(N)], dtype="int64"),
        "matched_users": np.array([int(parts["m"].sum())],
                                  dtype="int64"),
        "ips": np.array([round(T / N / 100.0, 6)], dtype="float64"),
        "snips": np.array([round(T / W / 100.0, 6)],
                          dtype="float64")})


def q_conformal(sf_dir: str):
    """Split-conformal prediction interval for event value given
    event type — the distribution-free ML-ops calibration step: fit
    per-type means on the even-event_id half, take the ceil((n+1)·0.9)
    order statistic of the cent-rounded absolute residuals as q̂, and
    report empirical coverage on the odd half (guaranteed ≳ 90%
    marginally). The residual quantile is EXACT via the bounded
    cents-histogram exchange (`huber_mean`'s scale argument — width
    bounded by value range, not corpus); means and coverage counts
    are exact int64 ratios; 6 dp."""
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id", "event_type", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "g": d["event_type"].to_numpy(),
            "cal": (d["event_id"].to_numpy() % 2 == 0)
                   .astype("int64"),
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64")})

    t = ev.map_batches(pre, batch_format="pandas").materialize()
    means = (grouped_agg(t.map_batches(
        lambda d: d[d["cal"] == 1], batch_format="pandas"),
        ["g"], {"s": ("c", "sum"), "n": ("c", "count")})
        .to_pandas())
    mu = {r["g"]: float(r["s"]) / float(r["n"])
          for _, r in means.iterrows()}

    def resid(d: pd.DataFrame) -> pd.DataFrame:
        m = d["g"].map(mu).to_numpy(dtype="float64")
        r = np.round(np.abs(d["c"].to_numpy(dtype="float64") - m)) \
            .astype("int64")
        return pd.DataFrame({"cal": d["cal"], "r": r,
                             "one": np.ones(len(d), dtype="int64")})

    rh = (grouped_agg(t.map_batches(resid, batch_format="pandas"),
                      ["cal", "r"], {"cnt": ("one", "sum")})
          .to_pandas())
    ch = rh[rh["cal"] == 1].sort_values("r")
    n_cal = int(ch["cnt"].sum())
    k = int(np.ceil((n_cal + 1) * 0.9))
    cum = np.cumsum(ch["cnt"].to_numpy(dtype="int64"))
    qhat = int(ch["r"].to_numpy(dtype="int64")[
        np.searchsorted(cum, min(k, n_cal))])
    eh = rh[rh["cal"] == 0]
    n_eval = int(eh["cnt"].sum())
    covered = int(eh.loc[eh["r"] <= qhat, "cnt"].sum())
    return pd.DataFrame({
        "n_cal": np.array([n_cal], dtype="int64"),
        "n_eval": np.array([n_eval], dtype="int64"),
        "q_hat": np.array([round(qhat / 100.0, 6)], dtype="float64"),
        "coverage": np.array([round(covered / n_eval, 6)],
                             dtype="float64")})


def q_power_analysis(sf_dir: str):
    """Two-proportion power analysis on the live A/B arms — 'how many
    users per arm would we need to detect the CURRENT conversion gap
    at α=0.05, power 0.8': n = (z_{α/2}·√(2p̄q̄) + z_β·√(p₀q₀+p₁q₁))²
    / Δ², with the z constants as shared high-precision literals.
    Event-level trials (arms by event_id parity — the per-user
    conversion flag saturates at 100% in this data, a zero-power
    design); arm counts are exact int64 from one streaming pass;
    every derived scalar is a token-identical expression; the
    required n ceils to int64 on both engines; identical rates
    yield the -1 sentinel on both."""
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id", "event_type"])

    a = (grouped_agg(ev.map_batches(
        lambda d: pd.DataFrame({
            "arm": (d["event_id"].to_numpy() % 2).astype("int64"),
            "p": (d["event_type"].to_numpy() == "purchase")
                 .astype("int64"),
            "one": np.ones(len(d), dtype="int64")}),
        batch_format="pandas"),
        ["arm"], {"n": ("one", "sum"), "k": ("p", "sum")})
        .to_pandas().sort_values("arm").reset_index(drop=True))
    n0, k0 = float(a["n"].iloc[0]), float(a["k"].iloc[0])
    n1, k1 = float(a["n"].iloc[1]), float(a["k"].iloc[1])
    p0 = k0 / n0
    p1 = k1 / n1
    pbar = (k0 + k1) / (n0 + n1)
    za, zb = 1.959963985, 0.8416212336
    num = (za * np.sqrt(2.0 * pbar * (1.0 - pbar))
           + zb * np.sqrt(p0 * (1.0 - p0) + p1 * (1.0 - p1)))
    diff = p1 - p0
    n_req = (-1 if diff == 0.0
             else int(np.ceil(num * num / (diff * diff))))
    return pd.DataFrame({
        "p0": np.array([round(p0, 6)], dtype="float64"),
        "p1": np.array([round(p1, 6)], dtype="float64"),
        "diff": np.array([round(diff, 6)], dtype="float64"),
        "n_required_per_arm": np.array([n_req], dtype="int64")})


# ---- Markov removal-effect attribution: the absorption-probability
# algebra is generated ONCE as expression strings over the transition
# ratios and evaluated by BOTH engines (python eval / SQL SELECT), so
# the long Cramer-rule formulas cannot drift between the twins.
_MK_STATES = ("view", "click", "signup")


def _mk_exprs() -> dict:
    """Expression strings over variables q{i}{j} (transient
    transitions), b{i} (to-conversion), s{i} (start shares),
    i,j ∈ 1..3. 3×3 Cramer for the full chain, 2×2 for each removal."""
    e = {}
    det3 = ("((1 - q11) * ((1 - q22) * (1 - q33) - q23 * q32)"
            " - (0 - q12) * ((0 - q21) * (1 - q33) - q23 * (0 - q31))"
            " + (0 - q13) * ((0 - q21) * (0 - q32)"
            " + (1 - q22) * q31))")
    # x_i via Cramer on (I-Q) x = b
    x1 = ("((b1 * ((1 - q22) * (1 - q33) - q23 * q32)"
          " - (0 - q12) * (b2 * (1 - q33) - q23 * b3)"
          " + (0 - q13) * (b2 * (0 - q32) + (1 - q22) * b3))"
          f" / {det3})")
    x2 = ("(((1 - q11) * (b2 * (1 - q33) - q23 * b3)"
          " - b1 * ((0 - q21) * (1 - q33) - q23 * (0 - q31))"
          " + (0 - q13) * ((0 - q21) * b3 - b2 * (0 - q31)))"
          f" / {det3})")
    x3 = ("(((1 - q11) * ((1 - q22) * b3 - (0 - q32) * b2)"
          " - (0 - q12) * ((0 - q21) * b3 - b2 * (0 - q31))"
          " + b1 * ((0 - q21) * (0 - q32) + (1 - q22) * q31))"
          f" / {det3})")
    e["p_full"] = f"(s1 * {x1} + s2 * {x2} + s3 * {x3})"
    e["x1"], e["x2"], e["x3"] = x1, x2, x3
    # removal of state r: 2x2 chain over the remaining states (paths
    # through r are dropped, not renormalized)
    for r, (i, j) in {1: (2, 3), 2: (1, 3), 3: (1, 2)}.items():
        det2 = (f"((1 - q{i}{i}) * (1 - q{j}{j})"
                f" - q{i}{j} * q{j}{i})")
        xi = (f"((b{i} * (1 - q{j}{j}) + q{i}{j} * b{j}) / {det2})")
        xj = (f"((b{j} * (1 - q{i}{i}) + q{j}{i} * b{i}) / {det2})")
        e[f"p_wo{r}"] = f"(s{i} * {xi} + s{j} * {xj})"
    return e


def q_markov_attribution(sf_dir: str):
    """Markov removal-effect attribution (Anderl et al. 2016) — the
    path-aware complement to `shapley_attribution`: model each user's
    ordered (view, click, signup) journey as a first-order Markov
    chain absorbing in purchase/null, and credit each channel by how
    much total conversion probability disappears when it is removed
    (transitions into it become failures). ONE user-hash exchange
    orders each user's events (ts, event_id) and emits exact int64
    transition-count partials (≤ 20 cells/partition); the driver
    forms exact count-ratio probabilities and evaluates the
    GENERATED Cramer-rule absorption expressions — the SQL twin
    SELECTs the literally identical strings, so the two engines
    cannot diverge token-wise; 6 dp."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_id",
                             "event_type"])
    idx = {s: i + 1 for i, s in enumerate(_MK_STATES)}

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        cols = {"kind": [], "i": [], "j": [], "n": []}
        if len(g):
            d = g[g["event_type"].isin(
                list(_MK_STATES) + ["purchase"])]
            d = d.sort_values(["user_id", "ts", "event_id"],
                              kind="mergesort")
            u = d["user_id"].to_numpy()
            st = d["event_type"].map(
                {**idx, "purchase": 0}).to_numpy(dtype="int64")
            same = np.r_[False, u[1:] == u[:-1]]
            first = ~same
            nxt = np.r_[same[1:], False]       # has next in same user
            cur = st
            nx = np.r_[st[1:], 0]
            rows = []
            # starts: first TRANSIENT event per user (users whose
            # first tracked event is purchase don't start the chain)
            for i in (1, 2, 3):
                rows.append(("s", i, 0,
                             int((first & (cur == i)).sum())))
            for i in (1, 2, 3):
                src = (cur == i)
                for j in (1, 2, 3):
                    rows.append(("q", i, j, int(
                        (src & nxt & (nx == j)).sum())))
                rows.append(("b", i, 0, int(
                    (src & nxt & (nx == 0)).sum())))
                rows.append(("z", i, 0, int(
                    (src & ~nxt).sum())))   # session end -> null
            for k, i, j, n in rows:
                cols["kind"].append(k)
                cols["i"].append(i)
                cols["j"].append(j)
                cols["n"].append(n)
        return pd.DataFrame({
            "kind": pd.Series(cols["kind"], dtype=object),
            "i": pd.Series(cols["i"], dtype="int64"),
            "j": pd.Series(cols["j"], dtype="int64"),
            "n": pd.Series(cols["n"], dtype="int64")})

    a = (grouped_agg(
        grouped_apply(ev, ["user_id"], per_part, num_partitions=32),
        ["kind", "i", "j"], {"n": ("n", "sum")}).to_pandas())
    cnt = {(r["kind"], int(r["i"]), int(r["j"])): int(r["n"])
           for _, r in a.iterrows()}
    tot_start = sum(cnt.get(("s", i, 0), 0) for i in (1, 2, 3))
    v = {}
    for i in (1, 2, 3):
        out = (sum(cnt.get(("q", i, j, ), 0) for j in (1, 2, 3))
               + cnt.get(("b", i, 0), 0) + cnt.get(("z", i, 0), 0))
        for j in (1, 2, 3):
            v[f"q{i}{j}"] = cnt.get(("q", i, j), 0) / out
        v[f"b{i}"] = cnt.get(("b", i, 0), 0) / out
        v[f"s{i}"] = cnt.get(("s", i, 0), 0) / tot_start
    ex = _mk_exprs()
    p_full = eval(ex["p_full"], {"__builtins__": {}}, dict(v))
    rows = []
    for r, nm in enumerate(_MK_STATES, start=1):
        p_wo = eval(ex[f"p_wo{r}"], {"__builtins__": {}}, dict(v))
        rows.append((nm, p_wo, 1.0 - p_wo / p_full))
    return pd.DataFrame({
        "channel": [r[0] for r in rows],
        "p_conv_full": np.round(np.full(3, p_full), 6),
        "p_conv_without": np.round(
            np.array([r[1] for r in rows]), 6),
        "removal_effect": np.round(
            np.array([r[2] for r in rows]), 6)})


def q_sequential_test(sf_dir: str):
    """Group-sequential A/B monitoring with O'Brien–Fleming
    boundaries — the 'peek 5 times without inflating α' design that a
    fixed-horizon `ab_test` forbids. Looks = 5 equal slices of the day
    range; at each look the CUMULATIVE event-level two-proportion z
    compares the event_id-parity arms against the OBF two-sided
    α=0.05 boundaries (4.877, 3.357, 2.680, 2.290, 2.031 — shared
    literals). One streaming pass bins each event to its look; the
    ≤10-cell count table folds on the driver; every z is a scalar
    over exact int64 cumulative counts, token-identical in SQL;
    6 dp."""
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id", "ts", "event_type"])
    b = (grouped_agg(ev.map_batches(
        lambda d: pd.DataFrame({
            "k": np.zeros(len(d), dtype="int64"),
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000}),
        batch_format="pandas"),
        ["k"], {"lo": ("day", "min"), "hi": ("day", "max")})
        .to_pandas())
    lo, hi = int(b["lo"].iloc[0]), int(b["hi"].iloc[0])
    span = hi - lo + 1

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        day = (d["ts"].to_numpy("datetime64[us]").astype("int64")
               // 86_400_000_000)
        look = np.minimum((day - lo) * 5 // span, 4) + 1
        return pd.DataFrame({
            "look": look.astype("int64"),
            "arm": (d["event_id"].to_numpy() % 2).astype("int64"),
            "p": (d["event_type"].to_numpy() == "purchase")
                 .astype("int64"),
            "one": np.ones(len(d), dtype="int64")})

    cells = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                         ["look", "arm"], {"n": ("one", "sum"),
                                           "x": ("p", "sum")})
             .to_pandas().sort_values(["look", "arm"])
             .reset_index(drop=True))
    obf = [4.877, 3.357, 2.680, 2.290, 2.031]
    rows = []
    cn = {0: 0, 1: 0}
    cx = {0: 0, 1: 0}
    for k in range(1, 6):
        for arm in (0, 1):
            sel = cells[(cells["look"] == k)
                        & (cells["arm"] == arm)]
            cn[arm] += int(sel["n"].sum())
            cx[arm] += int(sel["x"].sum())
        n0, n1 = float(cn[0]), float(cn[1])
        x0, x1 = float(cx[0]), float(cx[1])
        p0 = x0 / n0
        p1 = x1 / n1
        pbar = (x0 + x1) / (n0 + n1)
        z = ((p1 - p0)
             / np.sqrt(pbar * (1.0 - pbar) * (1.0 / n0 + 1.0 / n1)))
        rows.append((k, int(n0 + n1), round(float(z), 6),
                     obf[k - 1],
                     1 if abs(float(z)) >= obf[k - 1] else 0))
    return pd.DataFrame({
        "look": np.array([r[0] for r in rows], dtype="int64"),
        "n_cum": np.array([r[1] for r in rows], dtype="int64"),
        "z": np.array([r[2] for r in rows], dtype="float64"),
        "obf_bound": np.array([r[3] for r in rows], dtype="float64"),
        "reject": np.array([r[4] for r in rows], dtype="int64")})


def q_interarrival_fit(sf_dir: str):
    """Exponential inter-arrival fit + exact KS goodness-of-fit — is
    per-user event traffic Poisson? Per-user consecutive gaps (whole
    seconds) come out of ONE user-hash exchange; the gap HISTOGRAM
    (width bounded by the time-range in seconds, not the corpus — the
    bin-table argument) carries exact counts to the driver, where
    λ̂ = n/Σg and D = sup over distinct gaps of the two-sided
    empirical-vs-Exponential CDF distance (both step edges checked,
    lag trick in SQL). All counts exact int64; the CDF doubles are
    identical expressions; 6 dp."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_id"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "gap": pd.Series(dtype="int64"),
                "cnt": pd.Series(dtype="int64")})
        d = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        u = d["user_id"].to_numpy()
        tus = d["ts"].to_numpy("datetime64[us]").astype("int64")
        same = u[1:] == u[:-1]
        gaps = ((tus[1:] - tus[:-1]) // 1_000_000)[same]
        if len(gaps) == 0:
            return pd.DataFrame({
                "gap": pd.Series(dtype="int64"),
                "cnt": pd.Series(dtype="int64")})
        val, cnt = np.unique(gaps, return_counts=True)
        return pd.DataFrame({"gap": val.astype("int64"),
                             "cnt": cnt.astype("int64")})

    h = (grouped_agg(
        grouped_apply(ev, ["user_id"], per_part, num_partitions=32),
        ["gap"], {"cnt": ("cnt", "sum")})
        .to_pandas().sort_values("gap").reset_index(drop=True))
    g = h["gap"].to_numpy(dtype="int64")
    c = h["cnt"].to_numpy(dtype="int64")
    n = int(c.sum())
    tot = int((g * c).sum())
    mean = tot / n
    cum = np.cumsum(c).astype("float64")
    femp = cum / n
    fprev = (cum - c) / n
    fexp = 1.0 - np.exp(-(g.astype("float64") / mean))
    d_stat = float(np.maximum(np.abs(fexp - femp),
                              np.abs(fexp - fprev)).max())
    return pd.DataFrame({
        "n_gaps": np.array([n], dtype="int64"),
        "mean_gap_s": np.array([round(mean, 6)], dtype="float64"),
        "ks_d": np.array([round(d_stat, 6)], dtype="float64")})


def q_token_budget_pack(sf_dir: str):
    """Budget-constrained corpus selection — 'the best documents that
    fit in a 50k-token budget', the knapsack-greedy step of a
    data-mixture build (quality-per-token density order, the
    fractional-knapsack optimum restricted to whole docs). Density
    r = quality/tokens micro-rounds to int64 so the order
    (r DESC, doc_id) is exact on both engines. Distributed selection
    WITHOUT a global sort: pass 1 folds a bounded density HISTOGRAM
    (distinct micro-densities, value-range bounded) with token/quality
    sums per density; the driver walks it to the crossing density r*;
    pass 2 touches ONLY the r* tie band (streamed filter, tiny) to
    resolve the doc_id-ordered prefix. The oracle replays with a plain
    window cumsum; outputs are exact-int aggregates; 6 dp."""
    B = 50_000
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      bytes_per_block=_DOC_BPB)

    def density(df: pd.DataFrame) -> pd.DataFrame:
        q = text.quality_features(df)
        qm = np.round(q["quality_score"].to_numpy(dtype="float64")
                      * 1e6).astype("int64")
        tok = q["n_words"].to_numpy().astype("int64")
        tok = np.maximum(tok, 1)
        r = np.round(qm.astype("float64") * 1e3
                     / tok.astype("float64")).astype("int64")
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "r": r, "tok": tok, "qm": qm})

    dd = docs.map_batches(density, batch_format="pandas") \
        .materialize()
    hist = (grouped_agg(dd, ["r"], {"tok": ("tok", "sum"),
                                    "qm": ("qm", "sum"),
                                    "n": ("tok", "count")})
            .to_pandas().sort_values("r", ascending=False)
            .reset_index(drop=True))
    cum = 0
    n_sel = 0
    q_sel = 0
    r_star = None
    for _, row in hist.iterrows():
        if cum + int(row["tok"]) <= B:
            cum += int(row["tok"])
            n_sel += int(row["n"])
            q_sel += int(row["qm"])
        else:
            r_star = int(row["r"])
            break
    if r_star is not None:
        band = dd.map_batches(
            lambda d, rs=r_star: d[d["r"] == rs],
            batch_format="pandas").to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        for _, row in band.iterrows():
            if cum + int(row["tok"]) <= B:
                cum += int(row["tok"])
                n_sel += 1
                q_sel += int(row["qm"])
            else:
                break
    return pd.DataFrame({
        "budget": np.array([B], dtype="int64"),
        "n_selected": np.array([n_sel], dtype="int64"),
        "tokens_used": np.array([cum], dtype="int64"),
        "mean_quality": np.array(
            [round(q_sel / 1e6 / n_sel, 6)], dtype="float64")})


def q_coreset_kcenter(sf_dir: str):
    """Greedy k-center coreset over the embedding corpus (Gonzalez
    1985; the SVP-style 'most diverse k exemplars' selection used for
    training-data subset curation) — 8 centers, seeded at vec_id 0,
    each round adding the point FARTHEST (cosine distance) from the
    current set, ties by id. Each round is ONE shuffle-free streaming
    pass: centers broadcast (≤8 rows), per-batch vectorized min-dist +
    local argmax, driver reduces ≤|blocks| candidates. The oracle
    replays 7 generated rounds of least()-over-centers argmax with
    DOUBLE[]-cast cosines; 6 dp; the classic 2-approximation makes the
    selected radius an upper bound certificate."""
    K = 8
    ds = read_table(sf_dir, "embeddings", bytes_per_block=_DOC_BPB,
                    columns=["vec_id", "embedding"])
    qt, _ = _query_vectors(sf_dir, n=1)
    centers = [(0, qt[0] / max(float(np.linalg.norm(qt[0])), 1e-12))]
    out = [(1, 0, 0.0)]
    for rk in range(2, K + 1):
        C = np.stack([c[1] for c in centers])
        cids = ray.put((C, np.array([c[0] for c in centers])))

        def far(d: pd.DataFrame, ref=cids) -> pd.DataFrame:
            Cm, ids_c = ray.get(ref)
            E = np.stack(d["embedding"].to_numpy()).astype(np.float64)
            E = E / np.maximum(
                np.linalg.norm(E, axis=1, keepdims=True), 1e-12)
            dist = 1.0 - (E @ Cm.T)
            md = dist.min(axis=1)
            ids = d["vec_id"].to_numpy()
            excl = np.isin(ids, ids_c)
            md[excl] = -1.0
            order = np.lexsort((ids, -md))
            j = order[0]
            return pd.DataFrame({
                "vec_id": np.array([ids[j]], dtype="int64"),
                "d": np.array([md[j]], dtype="float64"),
                "emb": pd.Series([E[j]], dtype=object)})

        cand = ds.map_batches(far, batch_format="pandas").to_pandas()
        cand = cand.sort_values(["d", "vec_id"],
                                ascending=[False, True],
                                kind="mergesort").reset_index(drop=True)
        best = cand.iloc[0]
        centers.append((int(best["vec_id"]),
                        np.asarray(best["emb"], dtype=np.float64)))
        out.append((rk, int(best["vec_id"]), float(best["d"])))
    return pd.DataFrame({
        "rank": np.array([r for r, _, _ in out], dtype="int64"),
        "vec_id": np.array([v for _, v, _ in out], dtype="int64"),
        "dist": np.round(np.array([d for _, _, d in out]), 6)})


def _phi_upper(x: float) -> float:
    """Normal CDF P(Z <= x) for x >= 0 (Abramowitz & Stegun 7.1.26)."""
    t = (1.0 / (1.0 + 0.2316419 * x))
    return (1.0 - np.exp(-(x * x) / 2.0) / 2.5066282746310002
            * ((((1.330274429 * t - 1.821255978) * t
                 + 1.781477937) * t - 0.356563782) * t
               + 0.319381530) * t)


def q_bh_fdr(sf_dir: str):
    """Benjamini–Hochberg FDR screening over the 25 per-brand
    price-vs-rest Welch z-tests — the multiple-testing control a
    screening pipeline needs (at α=0.05, ~1 of 25 raw tests false-
    positives by chance; BH caps the expected false-discovery RATE).
    Brand moments are exact int64 cents from one grouped pass; the
    rest-of-corpus moments come from totals minus the group (no
    second scan); two-sided p = 2·(1−Φ(|z|)) through the SHARED
    Abramowitz–Stegun Φ polynomial (identical literal expression on
    both engines — no erf needed); the BH step function runs on the
    25-row table (rank by (p, brand), reject rank ≤ k* = max rank
    with p ≤ rank·α/m); 6 dp."""
    pa_ = read_table(sf_dir, "part",
                     columns=["p_brand", "p_retailprice"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(d["p_retailprice"].to_numpy(dtype="float64")
                    * 100).astype("int64")
        return pd.DataFrame({"b": d["p_brand"].to_numpy(),
                             "s": c, "ss": c * c,
                             "one": np.ones(len(d), dtype="int64")})

    a = (grouped_agg(pa_.map_batches(pre, batch_format="pandas"),
                     ["b"], {"s": ("s", "sum"), "ss": ("ss", "sum"),
                             "n": ("one", "sum")})
         .to_pandas().sort_values("b").reset_index(drop=True))
    S = float(a["s"].sum())
    SS = float(a["ss"].sum())
    N = float(a["n"].sum())
    n = a["n"].to_numpy(dtype="float64")
    s = a["s"].to_numpy(dtype="float64")
    ss = a["ss"].to_numpy(dtype="float64")
    nr = N - n
    sr = S - s
    ssr = SS - ss
    mg = s / n
    mr = sr / nr
    vg = (ss - s * s / n) / (n - 1.0)
    vr = (ssr - sr * sr / nr) / (nr - 1.0)
    z = (mg - mr) / np.sqrt(vg / n + vr / nr)
    az = np.abs(z)
    p = 2.0 * (1.0 - np.array([_phi_upper(float(x)) for x in az]))
    m = len(a)
    df = pd.DataFrame({"b": a["b"], "n": a["n"].astype("int64"),
                       "z": z, "p": p})
    df = df.sort_values(["p", "b"], kind="mergesort") \
        .reset_index(drop=True)
    rank = np.arange(1, m + 1, dtype="float64")
    ok = df["p"].to_numpy() <= rank * 0.05 / m
    kstar = int(rank[ok].max()) if ok.any() else 0
    df["rejected"] = (rank <= kstar).astype("int64")
    df = df.sort_values("b").reset_index(drop=True)
    return pd.DataFrame({
        "brand": df["b"].astype(object),
        "n": df["n"],
        "z": np.round(df["z"].to_numpy(dtype="float64"), 6),
        "p": np.round(df["p"].to_numpy(dtype="float64"), 6),
        "rejected": df["rejected"]})


def q_lognormal_fit(sf_dir: str):
    """Lognormal fit of the document-length distribution with a
    decile Q-Q table — the corpus-stats readout (web doc lengths are
    canonically lognormal-ish; a decile that breaks away flags
    truncation or boilerplate). ln(n_chars) milli-rounds to int64 so
    μ̂/σ̂ come from exact integer moment sums (milli units keep Σl²
    inside int64 at 10^9 docs); empirical deciles are exact order
    statistics from the bounded ln-length histogram; fitted deciles
    are μ̂ + σ̂·z_q with the nine Φ⁻¹ constants as shared literals;
    6 dp."""
    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "n_chars"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        ln = np.round(np.log(
            np.maximum(d["n_chars"].to_numpy(dtype="float64"), 1.0))
            * 1e3).astype("int64")
        return pd.DataFrame({"l": ln,
                             "one": np.ones(len(d), dtype="int64")})

    h = (grouped_agg(docs.map_batches(pre, batch_format="pandas"),
                     ["l"], {"cnt": ("one", "sum")})
         .to_pandas().sort_values("l").reset_index(drop=True))
    lv = h["l"].to_numpy(dtype="int64")
    c = h["cnt"].to_numpy(dtype="int64")
    n = int(c.sum())
    S = int((lv * c).sum())
    SS = int((lv * lv * c).sum())
    mu = S / n / 1e3
    sd = np.sqrt((SS - float(S) * float(S) / n) / (n - 1.0)) / 1e3
    cum = np.cumsum(c)
    zq = {1: -1.2815515655, 2: -0.8416212336, 3: -0.5244005127,
          4: -0.2533471031, 5: 0.0, 6: 0.2533471031,
          7: 0.5244005127, 8: 0.8416212336, 9: 1.2815515655}
    rows = []
    for k in range(1, 10):
        r = int(np.ceil(k * n / 10.0))
        emp = lv[np.searchsorted(cum, r)] / 1e3
        fit = mu + sd * zq[k]
        rows.append((k, emp, fit, emp - fit))
    return pd.DataFrame({
        "decile": np.array([r[0] for r in rows], dtype="int64"),
        "emp_ln": np.round(np.array([r[1] for r in rows]), 6),
        "fit_ln": np.round(np.array([r[2] for r in rows]), 6),
        "gap": np.round(np.array([r[3] for r in rows]), 6)})


def q_capture_recapture(sf_dir: str):
    """Chapman capture–recapture estimate of the active-user
    population from two day-range 'captures' — the estimate-the-
    unseen primitive a crawler uses to size an unexplored frontier
    from overlap between two crawl passes. Sample 1 = users seen in
    the first half of the day range, sample 2 = second half; ONE
    user-hash exchange folds per-user (in1, in2) flags to four exact
    int64 counts; N̂ = (n1+1)(n2+1)/(m+1) − 1 with the closed-form
    variance CI, and — uniquely checkable in this sandbox — the TRUE
    distinct-user count rides along so the estimator's relative error
    is part of the output; 6 dp."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events", columns=["user_id", "ts"])
    b = (grouped_agg(ev.map_batches(
        lambda d: pd.DataFrame({
            "k": np.zeros(len(d), dtype="int64"),
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000}),
        batch_format="pandas"),
        ["k"], {"lo": ("day", "min"), "hi": ("day", "max")})
        .to_pandas())
    mid = int((int(b["lo"].iloc[0]) + int(b["hi"].iloc[0]) + 1) // 2)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in ("n1", "n2", "m", "tot")})
        day = (g["ts"].to_numpy("datetime64[us]").astype("int64")
               // 86_400_000_000)
        d = pd.DataFrame({"u": g["user_id"].to_numpy(),
                          "a": (day < mid).astype("int64"),
                          "b": (day >= mid).astype("int64")})
        u = d.groupby("u", sort=False).agg(a=("a", "max"),
                                           b=("b", "max"))
        return pd.DataFrame({
            "n1": np.array([int(u["a"].sum())], dtype="int64"),
            "n2": np.array([int(u["b"].sum())], dtype="int64"),
            "m": np.array([int((u["a"] & u["b"]).sum())],
                          dtype="int64"),
            "tot": np.array([len(u)], dtype="int64")})

    p = grouped_apply(ev, ["user_id"], per_part,
                      num_partitions=32).to_pandas()
    n1 = float(p["n1"].sum())
    n2 = float(p["n2"].sum())
    m = float(p["m"].sum())
    tot = int(p["tot"].sum())
    nhat = (n1 + 1.0) * (n2 + 1.0) / (m + 1.0) - 1.0
    var = ((n1 + 1.0) * (n2 + 1.0) * (n1 - m) * (n2 - m)
           / ((m + 1.0) * (m + 1.0) * (m + 2.0)))
    half = 1.96 * np.sqrt(var)
    return pd.DataFrame({
        "n1": np.array([int(n1)], dtype="int64"),
        "n2": np.array([int(n2)], dtype="int64"),
        "overlap": np.array([int(m)], dtype="int64"),
        "true_n": np.array([tot], dtype="int64"),
        "n_hat": np.array([round(nhat, 6)], dtype="float64"),
        "ci_lo": np.array([round(nhat - half, 6)], dtype="float64"),
        "ci_hi": np.array([round(nhat + half, 6)], dtype="float64"),
        "rel_err": np.array([round(nhat / tot - 1.0, 6)],
                            dtype="float64")})


def q_chao1(sf_dir: str):
    """Chao1 estimate of the TOTAL vocabulary including unseen words
    (Chao 1984) + Good–Turing sample coverage — 'how much more corpus
    until new words stop appearing', the diminishing-returns readout
    a data-collection plan rests on. The word-count exchange is the
    shared `vocab` wordcount (single-space split, empties dropped);
    a second tiny grouped pass folds counts-of-counts (bounded by
    distinct frequency VALUES); Chao1's bias-corrected form
    V + F1(F1−1)/(2(F2+1)) and coverage 1−F1/N are scalar expressions
    over exact int64; 6 dp."""
    from ..functions.relational import grouped_agg as _ga

    docs = read_table(sf_dir, "documents", columns=["text"],
                      bytes_per_block=_DOC_BPB)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].astype(str).str.split(" ").explode()
        toks = toks[(toks != "") & toks.notna()]
        vc = toks.value_counts()
        return pd.DataFrame({"word": vc.index.to_numpy(),
                             "c": vc.to_numpy().astype("int64")})

    wc = _ga(docs.map_batches(partial, batch_format="pandas"),
             ["word"], {"c": ("c", "sum")}, merge_partitions=8)
    ff = (_ga(wc.map_batches(
        lambda d: pd.DataFrame({"cnt": d["c"].astype("int64"),
                                "one": np.ones(len(d),
                                               dtype="int64")}),
        batch_format="pandas"),
        ["cnt"], {"f": ("one", "sum")}).to_pandas())
    v = int(ff["f"].sum())
    f1 = int(ff.loc[ff["cnt"] == 1, "f"].sum())
    f2 = int(ff.loc[ff["cnt"] == 2, "f"].sum())
    ntok = int((ff["cnt"] * ff["f"]).sum())
    chao = v + float(f1) * (f1 - 1.0) / (2.0 * (f2 + 1.0))
    cov = 1.0 - float(f1) / float(ntok)
    return pd.DataFrame({
        "vocab": np.array([v], dtype="int64"),
        "f1": np.array([f1], dtype="int64"),
        "f2": np.array([f2], dtype="int64"),
        "n_tokens": np.array([ntok], dtype="int64"),
        "chao1": np.array([round(chao, 6)], dtype="float64"),
        "coverage": np.array([round(cov, 6)], dtype="float64")})


def q_spc_chart(sf_dir: str):
    """Daily p-chart on the error-event rate — the SPC control chart
    an ops dashboard runs over pipeline health: per-day defect
    fraction against 3σ binomial limits around the grand rate
    (UCL/LCL = p̄ ± 3·√(p̄(1−p̄)/n_d), clamped to [0,1]). One ≤|days|
    grouped pass; all counts exact int64, the limits scalar
    expressions over them; out-of-control days flagged; 6 dp."""
    ev = read_table(sf_dir, "events", columns=["ts", "event_type"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000,
            "e": (d["event_type"].to_numpy() == "error")
                 .astype("int64"),
            "one": np.ones(len(d), dtype="int64")})

    a = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                     ["day"], {"k": ("e", "sum"), "n": ("one", "sum")})
         .to_pandas().sort_values("day").reset_index(drop=True))
    K = float(a["k"].sum())
    N = float(a["n"].sum())
    pbar = K / N
    n = a["n"].to_numpy(dtype="float64")
    k = a["k"].to_numpy(dtype="float64")
    p = k / n
    half = 3.0 * np.sqrt(pbar * (1.0 - pbar) / n)
    ucl = np.minimum(pbar + half, 1.0)
    lcl = np.maximum(pbar - half, 0.0)
    return pd.DataFrame({
        "day": a["day"].astype("int64"),
        "n": a["n"].astype("int64"),
        "defects": a["k"].astype("int64"),
        "rate": np.round(p, 6),
        "ucl": np.round(ucl, 6),
        "lcl": np.round(lcl, 6),
        "out_of_control": ((p > ucl) | (p < lcl)).astype("int64")})


def q_rbo(sf_dir: str):
    """Rank-biased overlap (Webber et al., TOIS 2010) between two
    part rankings — price-descending vs the Knuth-hash shuffle order
    — the top-weighted ranking-SIMILARITY metric that `kendall_tau`
    (a correlation over the whole permutation) can't substitute:
    RBO weights agreement at the top, exactly what retrieval A/Bs
    compare. Truncated prefix form at depth 50, p=0.9 (documented
    lower-bound flavor). Each ranking's global top-50 comes from
    per-block local top-k + a driver merge (no sort shuffle); depth
    overlaps are exact set intersections; both engines evaluate the
    identical (1−p)·Σ p^(d−1)·ov_d/d; 6 dp."""
    D = 50
    pa_ = read_table(sf_dir, "part",
                     columns=["p_partkey", "p_retailprice"])

    def local_tops(d: pd.DataFrame) -> pd.DataFrame:
        ids = d["p_partkey"].to_numpy("int64")
        pr = np.rint(d["p_retailprice"].to_numpy(dtype="float64")
                     * 100).astype("int64")
        h = ((ids.astype(np.uint64) % np.uint64(4294967296))
             * np.uint64(2654435761)) % np.uint64(4294967296)
        a = pd.DataFrame({"id": ids, "pr": pr,
                          "h": h.astype("int64")})
        ta = a.sort_values(["pr", "id"],
                           ascending=[False, True]).head(D)
        tb = a.sort_values(["h", "id"]).head(D)
        ta = ta.assign(kind=np.int64(0))
        tb = tb.assign(kind=np.int64(1))
        return pd.concat([ta, tb], ignore_index=True)

    t = pa_.map_batches(local_tops, batch_format="pandas") \
        .to_pandas()
    a = (t[t["kind"] == 0].sort_values(["pr", "id"],
                                       ascending=[False, True])
         .head(D)["id"].to_numpy())
    bl = (t[t["kind"] == 1].sort_values(["h", "id"]).head(D)["id"]
          .to_numpy())
    p = 0.9
    micro = 0
    sa: set = set()
    sb: set = set()
    for d in range(1, D + 1):
        sa.add(int(a[d - 1]))
        sb.add(int(bl[d - 1]))
        ov = len(sa & sb)
        # per-depth term micro-rounds to int so the 50-term fold is
        # float-order-free on both engines
        micro += int(round((1.0 - p) * p ** (d - 1) * ov / d * 1e9))
    return pd.DataFrame({
        "depth": np.array([D], dtype="int64"),
        "rbo": np.array([round(micro / 1e9, 6)], dtype="float64"),
        "overlap_at_depth": np.array([len(sa & sb)], dtype="int64")})


def q_markov_entropy(sf_dir: str):
    """Entropy rate of the event-type transition chain — 'how
    predictable is the next user action', the information-theoretic
    session readout (`type_entropy` measures the marginal mix, not
    the DYNAMICS; a low rate with a rich marginal = habitual loops).
    H = −Σ_i (n_i/N)·Σ_j p_ij·ln p_ij over the 5×5 chain with
    empirical source weights; ONE user-hash exchange emits exact
    int64 transition-count partials; every cell's term
    −(n_ij/N)·ln(n_ij/n_i) micro-rounds to int64 before the
    cross-cell sum, so the 25-term fold is float-order-free; 6 dp."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_id",
                             "event_type"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "a": pd.Series(dtype=object),
                "b": pd.Series(dtype=object),
                "n": pd.Series(dtype="int64")})
        d = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        u = d["user_id"].to_numpy()
        et = d["event_type"].to_numpy()
        same = u[1:] == u[:-1]
        t = pd.DataFrame({"a": et[:-1][same], "b": et[1:][same],
                          "one": np.ones(int(same.sum()),
                                         dtype="int64")})
        return (t.groupby(["a", "b"], as_index=False)
                .agg(n=("one", "sum")))

    c = (grouped_agg(
        grouped_apply(ev, ["user_id"], per_part, num_partitions=32),
        ["a", "b"], {"n": ("n", "sum")})
        .to_pandas())
    N = float(c["n"].sum())
    ni = c.groupby("a")["n"].sum()
    terms = []
    for _, r in c.iterrows():
        nij = float(r["n"])
        na = float(ni[r["a"]])
        t = -(nij / N) * np.log(nij / na)
        terms.append(int(np.round(t * 1e9)))
    h = sum(terms) / 1e9
    return pd.DataFrame({
        "n_transitions": np.array([int(N)], dtype="int64"),
        "n_states": np.array([int(c["a"].nunique())], dtype="int64"),
        "entropy_rate_nats": np.array([round(h, 6)],
                                      dtype="float64")})


def q_isotonic(sf_dir: str):
    """Isotonic (monotone nondecreasing) calibration of purchase rate
    against binned event value — the PAVA fit `calibration`'s raw
    reliability bins don't enforce, computed by the EXACT minimax
    closed form ŷ_i = max_{j≤i} min_{l≥i} avg(j..l) instead of the
    sequential pool-adjacent-violators loop, so a 10×10×10 fold over
    the bounded bin table replaces an unparallelizable scan and the
    SQL twin is three nested grouped aggregates over the identical
    prefix-sum averages. Bin counts are exact int64 from one
    ≤10-key pass; fixed width-100 bins (data-derived edges would float
    the bin boundaries); 6 dp."""
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_type", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        v = d["value"].to_numpy(dtype="float64")
        b = np.clip(np.floor(v / 100.0).astype("int64"), 0, 9)
        return pd.DataFrame({
            "b": b,
            "k": (d["event_type"].to_numpy() == "purchase")
                 .astype("int64"),
            "one": np.ones(len(d), dtype="int64")})

    a = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                     ["b"], {"k": ("k", "sum"), "n": ("one", "sum")})
         .to_pandas().sort_values("b").reset_index(drop=True))
    bins = a["b"].to_numpy(dtype="int64")
    n = a["n"].to_numpy(dtype="float64")
    k = a["k"].to_numpy(dtype="float64")
    B = len(a)
    cs = np.concatenate([[0.0], np.cumsum(k)])
    cn = np.concatenate([[0.0], np.cumsum(n)])
    iso = np.empty(B)
    for i in range(B):
        best = -np.inf
        for j in range(i + 1):
            m = np.inf
            for l in range(i, B):
                avg = (cs[l + 1] - cs[j]) / (cn[l + 1] - cn[j])
                if avg < m:
                    m = avg
            if m > best:
                best = m
        iso[i] = best
    return pd.DataFrame({
        "bin": bins,
        "n": a["n"].astype("int64"),
        "raw_rate": np.round(k / n, 6),
        "iso_rate": np.round(iso, 6)})


def q_durbin_watson(sf_dir: str):
    """Durbin–Watson serial-correlation diagnostic on the residuals
    of the daily-revenue linear trend — 'is the trend model leaving
    autocorrelated structure behind', the check `ols`' fit stats
    don't make. Daily integer-cent totals reduce in one ≤|days|
    exchange; slope/intercept are closed-form ratios of exact int64
    sums; per-day residual terms (e_d−e_{d−1})² and e_d² round to
    int64 before the ≤31-term fold so the statistic is
    float-order-free; DW≈2 = no autocorrelation, <1 = strong
    positive; 6 dp."""
    ev = read_table(sf_dir, "events", columns=["ts", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000,
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64")})

    daily = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                         ["day"], {"y": ("c", "sum")})
             .to_pandas().sort_values("day").reset_index(drop=True))
    t = daily["day"].to_numpy(dtype="int64")
    t0 = int(t.min())
    x = (t - t0).astype("float64")
    y = daily["y"].to_numpy(dtype="int64").astype("float64")
    n = float(len(daily))
    sx = float(x.sum())
    sy = float(y.sum())
    sxx = float((x * x).sum())
    sxy = float((x * y).sum())
    b = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    a = (sy - b * sx) / n
    e = y - (a + b * x)
    num = int(np.round((e[1:] - e[:-1]) ** 2).astype("int64").sum())
    den = int(np.round(e * e).astype("int64").sum())
    dw = num / den
    return pd.DataFrame({
        "n_days": np.array([int(n)], dtype="int64"),
        "slope_cents": np.array([round(b, 6)], dtype="float64"),
        "dw": np.array([round(dw, 6)], dtype="float64")})


def q_breusch_pagan(sf_dir: str):
    """Breusch–Pagan heteroskedasticity LM test on the
    price~quantity OLS — does residual VARIANCE grow with quantity
    (it should: line totals are quantity×unit-price), the diagnostic
    that says 'use robust errors'. Pass 1: exact int64 joint moments
    give (a, b). Pass 2 streams residual terms against the broadcast
    (a, b): per-row round(e²) and round(x·e²) int64 partials — no
    x⁴-scale overflow risk because e² is bounded by the fit, not the
    raw scale. LM = n·R² of the e²-on-x auxiliary regression, every
    scalar token-identical in SQL; 6 dp."""
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_quantity", "l_extendedprice"])

    def m1(d: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(d["l_quantity"].to_numpy(dtype="float64")) \
            .astype("int64")
        y = np.rint(d["l_extendedprice"].to_numpy(dtype="float64")
                    * 100).astype("int64")
        return pd.DataFrame({
            "k": np.zeros(len(d), dtype="int64"),
            "n": np.ones(len(d), dtype="int64"),
            "sx": x, "sy": y, "sxx": x * x, "sxy": x * y})

    a1 = (grouped_agg(li.map_batches(m1, batch_format="pandas"),
                      ["k"], {"n": ("n", "sum"), "sx": ("sx", "sum"),
                              "sy": ("sy", "sum"),
                              "sxx": ("sxx", "sum"),
                              "sxy": ("sxy", "sum")})
          .to_pandas())
    n = float(a1["n"].iloc[0])
    sx = float(a1["sx"].iloc[0])
    sy = float(a1["sy"].iloc[0])
    sxx = float(a1["sxx"].iloc[0])
    sxy = float(a1["sxy"].iloc[0])
    b = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    a = (sy - b * sx) / n

    # pass 2: mean of e² (raw-moment R² cancels catastrophically —
    # the aux correlation is ~1e-4, so n·Σ(e²)² − (Σe²)² is a tiny
    # residual of two ~1e21 terms; CENTERED sums in pass 3 instead)
    def m2(d: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(d["l_quantity"].to_numpy(dtype="float64")) \
            .astype("int64").astype("float64")
        y = np.rint(d["l_extendedprice"].to_numpy(dtype="float64")
                    * 100).astype("int64").astype("float64")
        ed = (y - (a + b * x)) / 100.0   # dollars
        e2 = ed * ed
        return pd.DataFrame({
            "k": np.zeros(len(d), dtype="int64"),
            "se": np.round(e2 * 1e3).astype("int64")})

    a2 = (grouped_agg(li.map_batches(m2, batch_format="pandas"),
                      ["k"], {"se": ("se", "sum")}).to_pandas())
    ebar = float(a2["se"].iloc[0]) / n / 1e3
    xbar = sx / n

    def m3(d: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(d["l_quantity"].to_numpy(dtype="float64")) \
            .astype("int64").astype("float64")
        y = np.rint(d["l_extendedprice"].to_numpy(dtype="float64")
                    * 100).astype("int64").astype("float64")
        ed = (y - (a + b * x)) / 100.0
        u = x - xbar
        # STANDARDIZED (Koenker) score v = e²/σ̂² − 1: dimensionless
        # O(1) terms fit int64 at ANY price scale — raw-e² scaling
        # hit both an int64 wrap (outlier corpora) and a round-to-zero
        # floor (homoskedastic corpora); R² is affine-invariant so the
        # statistic is unchanged
        v = ed * ed / ebar - 1.0
        return pd.DataFrame({
            "k": np.zeros(len(d), dtype="int64"),
            "suv": np.round(u * v * 1e6).astype("int64"),
            "suu": np.round(u * u * 1e6).astype("int64"),
            "svv": np.round(v * v * 1e6).astype("int64")})

    a3 = (grouped_agg(li.map_batches(m3, batch_format="pandas"),
                      ["k"], {"suv": ("suv", "sum"),
                              "suu": ("suu", "sum"),
                              "svv": ("svv", "sum")})
          .to_pandas())
    suv = float(a3["suv"].iloc[0]) / 1e6
    suu = float(a3["suu"].iloc[0]) / 1e6
    svv = float(a3["svv"].iloc[0]) / 1e6
    r2 = suv * suv / (suu * svv)
    lm = n * r2
    return pd.DataFrame({
        "n": np.array([int(n)], dtype="int64"),
        "slope": np.array([round(b, 6)], dtype="float64"),
        "aux_r2": np.array([round(r2, 6)], dtype="float64"),
        "bp_lm": np.array([round(lm, 6)], dtype="float64")})


def q_logrank(sf_dir: str):
    """Log-rank test comparing time-to-first-purchase between the two
    user arms — the hypothesis test `kaplan_meier`'s curves beg for
    (do the arms' survival distributions differ at all, censoring
    respected). Subjects, durations and censoring replicate the KM
    construction (one user-keyed min/max exchange with the sentinel
    trick); the per-(arm, day) lifetable is a second bounded reduce;
    at-risk counts come from cumulative sums on the ≤#days driver
    table and each day's E₁/V hypergeometric terms micro-round to
    int64 before the fold, so χ² = (O₁−E₁)²/V is float-order-free;
    6 dp."""
    ev = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_type"])
    big = np.int64(2) ** 62

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        ts = d["ts"].to_numpy("datetime64[us]").astype("int64")
        is_p = d["event_type"].to_numpy() == "purchase"
        return pd.DataFrame({
            "user_id": d["user_id"].to_numpy(),
            "t0": ts, "tend": ts,
            "fp": np.where(is_p, ts, big)})

    users = grouped_agg(
        ev.map_batches(pre, batch_format="pandas"),
        ["user_id"], {"t0": ("t0", "min"), "tend": ("tend", "max"),
                      "fp": ("fp", "min")})
    day_us = 86_400_000_000

    def lifetable(d: pd.DataFrame) -> pd.DataFrame:
        t0 = d["t0"].to_numpy(dtype="int64")
        fp = d["fp"].to_numpy(dtype="int64")
        tend = d["tend"].to_numpy(dtype="int64")
        observed = fp < big
        tstop = np.where(observed, fp, tend)
        return pd.DataFrame({
            "arm": (d["user_id"].to_numpy() % 2).astype("int64"),
            "day": (tstop - t0) // day_us + 1,
            "d": observed.astype("int64"),
            "c": (~observed).astype("int64")})

    lt = (grouped_agg(
        users.map_batches(lifetable, batch_format="pandas"),
        ["arm", "day"], {"d": ("d", "sum"), "c": ("c", "sum")})
        .to_pandas())
    days = np.sort(lt["day"].unique())
    N = {a: int(lt.loc[lt["arm"] == a, ["d", "c"]].sum().sum())
         for a in (0, 1)}
    n1 = float(N[1])
    n0 = float(N[0])
    o1 = 0
    e1_mi = 0
    v_mi = 0
    rem = {0: n0, 1: n1}
    g = {(int(r["arm"]), int(r["day"])): (int(r["d"]), int(r["c"]))
         for _, r in lt.iterrows()}
    for t in days:
        d0, c0 = g.get((0, int(t)), (0, 0))
        d1, c1 = g.get((1, int(t)), (0, 0))
        nt = rem[0] + rem[1]
        dt = d0 + d1
        if dt > 0 and nt > 1:
            e = dt * rem[1] / nt
            v = (dt * (rem[1] / nt) * (1.0 - rem[1] / nt)
                 * (nt - dt) / (nt - 1.0))
            o1 += d1
            # exact-rational terms can tie at .5: round half-away
            # like SQL round(), not numpy's half-even
            e1_mi += int(np.floor(e * 1e6 + 0.5))
            v_mi += int(np.floor(v * 1e6 + 0.5))
        rem[0] -= d0 + c0
        rem[1] -= d1 + c1
    e1 = e1_mi / 1e6
    v = v_mi / 1e6
    chi2 = (o1 - e1) * (o1 - e1) / v if v > 0 else float("nan")
    return pd.DataFrame({
        "n_arm0": np.array([int(n0)], dtype="int64"),
        "n_arm1": np.array([int(n1)], dtype="int64"),
        "o1": np.array([o1], dtype="int64"),
        "e1": np.array([round(e1, 6)], dtype="float64"),
        "logrank_chi2": np.array([round(chi2, 6)],
                                 dtype="float64")})


def q_burrows_delta(sf_dir: str):
    """Burrows' Delta stylometric distance between sources (Burrows
    2002) — which sources 'write alike', the authorship/template
    -attribution readout over the most-frequent-word profile that
    `source_overlap` (vocabulary sets) can't see. Marker words = the
    global top-30 by count (exact ints, count DESC / word ASC);
    per-source relative frequencies micro-round to int64 at 1e6 so
    the per-word mean/sd across the ~20 sources come from exact
    integer moments; z-scores are deterministic doubles and each
    pair's Δ = mean |z_a − z_b| micro-rounds per word before the
    30-term fold. One wordcount exchange + one per-source-totals
    pass; the ≤(sources × 30) profile folds on the driver. Output =
    the 5 closest pairs; 6 dp."""
    from ..functions.relational import grouped_agg as _ga

    K = 30
    docs = read_table(sf_dir, "documents",
                      columns=["source", "text"],
                      bytes_per_block=_DOC_BPB)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].astype(str).str.split(" ").explode()
        keep = (toks != "") & toks.notna()
        toks = toks[keep]
        src = df["source"].reindex(toks.index)
        t = pd.DataFrame({"source": src.to_numpy(),
                          "word": toks.to_numpy()})
        vc = (t.groupby(["source", "word"], as_index=False)
              .size().rename(columns={"size": "c"}))
        vc["c"] = vc["c"].astype("int64")
        return vc

    sw = _ga(docs.map_batches(partial, batch_format="pandas"),
             ["source", "word"], {"c": ("c", "sum")},
             merge_partitions=8).to_pandas()
    gtop = (sw.groupby("word", as_index=False)["c"].sum()
            .sort_values(["c", "word"], ascending=[False, True])
            .head(K))
    top = set(gtop["word"])
    totals = sw.groupby("source")["c"].sum()
    sources = sorted(totals.index)
    prof = sw[sw["word"].isin(top)]
    f_mi = {}
    for s in sources:
        tot = float(totals[s])
        sub = prof[prof["source"] == s].set_index("word")["c"]
        for w in sorted(top):
            c = float(sub.get(w, 0))
            f_mi[(s, w)] = int(np.floor(c / tot * 1e6 + 0.5))
    ns = float(len(sources))
    z = {}
    for w in sorted(top):
        vals = np.array([f_mi[(s, w)] for s in sources],
                        dtype="int64")
        S = float(vals.sum())
        SS = float((vals * vals).sum())
        mu = S / ns
        sd = np.sqrt(np.maximum(SS / ns - mu * mu, 0.0))
        for s in sources:
            z[(s, w)] = ((f_mi[(s, w)] - mu) / sd
                         if sd > 0 else 0.0)
    rows = []
    for i, a in enumerate(sources):
        for b in sources[i + 1:]:
            mi = 0
            for w in sorted(top):
                mi += int(np.floor(
                    abs(z[(a, w)] - z[(b, w)]) * 1e6 + 0.5))
            rows.append((a, b, mi / 1e6 / K))
    rows.sort(key=lambda r: (r[2], r[0], r[1]))
    out = rows[:5]
    return pd.DataFrame({
        "src_a": [r[0] for r in out],
        "src_b": [r[1] for r in out],
        "delta": np.round(np.array([r[2] for r in out]), 6)})


def q_holt_winters(sf_dir: str):
    """Additive Holt–Winters (triple exponential) 7-day-ahead revenue
    forecast — completing the smoothing ladder (`ewma` single,
    `double_smooth` double): level + trend + weekly seasonality with
    α=0.3, β=0.1, γ=0.2 as shared literals. Daily integer-cent totals
    reduce in one ≤|days| exchange; the recursion runs on the tiny
    day table — driver-side here, a WITH RECURSIVE carrying the
    rotating 7-slot seasonal buffer in SQL — with every update the
    IDENTICAL float expression on both engines, so no rounding
    machinery is needed before the final 6 dp. Init: L₀ = week-1
    mean, B₀ = (week-2 mean − week-1 mean)/7, s = week-1 residuals."""
    ev = read_table(sf_dir, "events", columns=["ts", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000,
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64")})

    daily = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                         ["day"], {"y": ("c", "sum")})
             .to_pandas().sort_values("day").reset_index(drop=True))
    lo, hi = int(daily["day"].min()), int(daily["day"].max())
    spine = pd.DataFrame({"day": np.arange(lo, hi + 1,
                                           dtype="int64")})
    d = spine.merge(daily, on="day", how="left").fillna({"y": 0})
    y = d["y"].to_numpy(dtype="int64").astype("float64")
    if len(y) < 15:
        return pd.DataFrame({"h": pd.Series(dtype="int64"),
                             "forecast": pd.Series(dtype="float64")})
    a_, b_, g_ = 0.3, 0.1, 0.2
    L = (y[0] + y[1] + y[2] + y[3] + y[4] + y[5] + y[6]) / 7.0
    B = ((y[7] + y[8] + y[9] + y[10] + y[11] + y[12] + y[13]) / 7.0
         - L) / 7.0
    s = [y[i] - L for i in range(7)]
    for t in range(7, len(y)):
        su = s[0]
        Ln = a_ * (y[t] - su) + 0.7 * (L + B)
        Bn = b_ * (Ln - L) + 0.9 * B
        sn = g_ * (y[t] - Ln) + 0.8 * su
        s = s[1:] + [sn]
        L, B = Ln, Bn
    rows = [(h, (L + h * B + s[(h - 1) % 7]) / 100.0)
            for h in range(1, 8)]
    return pd.DataFrame({
        "h": np.array([r[0] for r in rows], dtype="int64"),
        "forecast": np.round(np.array([r[1] for r in rows]), 6)})


def q_rich_club(sf_dir: str):
    """Rich-club coefficient φ(k) of the thinned co-purchase graph —
    do high-degree hubs preferentially interconnect (the
    supply-chain 'old boys network' readout `assortativity`'s single
    global r can't resolve by level). For k ∈ {1,2,3,4}: nodes with
    degree > k, edges with BOTH endpoints above, φ = 2E_k/(N_k(N_k−1)).
    Degrees from one grouped count; the >k filter re-streams the edge
    list against the broadcast degree table (thinned-graph scale —
    the same size-gate family as the other graph ops); every count
    exact int64; 6 dp."""
    nparts = 16
    edges = _copurchase_edges(sf_dir, nparts)
    sparse = edges.map_batches(
        lambda d: d.loc[(d["u"].to_numpy(dtype="int64") * 31
                         + d["v"].to_numpy(dtype="int64")) % 7 == 0],
        batch_format="pandas").materialize()
    deg = (grouped_agg(sparse.map_batches(
        lambda d: pd.DataFrame({
            "n": np.concatenate([d["u"].to_numpy("int64"),
                                 d["v"].to_numpy("int64")]),
            "one": np.ones(2 * len(d), dtype="int64")}),
        batch_format="pandas"),
        ["n"], {"deg": ("one", "sum")}).to_pandas())
    dmap_ref = ray.put(dict(zip(deg["n"].to_numpy(),
                                deg["deg"].to_numpy())))

    def count_above(d: pd.DataFrame, ks=(1, 2, 3, 4),
                    ref=dmap_ref) -> pd.DataFrame:
        dm = ray.get(ref)
        du = d["u"].map(dm).to_numpy(dtype="int64")
        dv = d["v"].map(dm).to_numpy(dtype="int64")
        rows = []
        for k in ks:
            rows.append((k, int(((du > k) & (dv > k)).sum())))
        return pd.DataFrame(rows, columns=["k", "ek"])

    ek = (grouped_agg(sparse.map_batches(count_above,
                                         batch_format="pandas"),
                      ["k"], {"ek": ("ek", "sum")})
          .to_pandas().sort_values("k").reset_index(drop=True))
    degs = deg["deg"].to_numpy(dtype="int64")
    rows = []
    for _, r in ek.iterrows():
        k = int(r["k"])
        nk = int((degs > k).sum())
        e = int(r["ek"])
        phi = (2.0 * e / (nk * (nk - 1.0))
               if nk > 1 else float("nan"))
        rows.append((k, nk, e, round(phi, 6)))
    return pd.DataFrame({
        "k": np.array([r[0] for r in rows], dtype="int64"),
        "n_nodes": np.array([r[1] for r in rows], dtype="int64"),
        "n_edges": np.array([r[2] for r in rows], dtype="int64"),
        "phi": np.array([r[3] for r in rows], dtype="float64")})


def q_gumbel_maxima(sf_dir: str):
    """Gumbel (EVT type-I) fit to daily-maximum event values with a
    30-day return level — 'how big a spike should we provision for',
    the extreme-value readout no mean/quantile query gives. Block
    maxima = per-day max cents (one ≤|days| exchange, exact ints);
    method-of-moments fit β̂ = s·√6/π, μ̂ = m̄ − γβ̂ (Euler γ and √6/π
    as shared literals) from exact integer moment sums of the maxima;
    return level = μ̂ − β̂·ln(−ln(1−1/T)), T=30; 6 dp."""
    ev = read_table(sf_dir, "events", columns=["ts", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000,
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64")})

    mx = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                      ["day"], {"m": ("c", "max")})
          .to_pandas())
    v = mx["m"].to_numpy(dtype="int64")
    n = float(len(v))
    S = float(v.sum())
    SS = float((v.astype("float64") ** 2).sum())
    mean = S / n
    sd = np.sqrt((SS - S * S / n) / (n - 1.0))
    beta = sd * 0.7796968012336293          # sqrt(6)/pi
    mu = mean - 0.5772156649015329 * beta   # Euler-Mascheroni
    lvl = mu - beta * np.log(-np.log(1.0 - 1.0 / 30.0))
    return pd.DataFrame({
        "n_days": np.array([int(n)], dtype="int64"),
        "gumbel_mu": np.array([round(mu / 100.0, 6)],
                              dtype="float64"),
        "gumbel_beta": np.array([round(beta / 100.0, 6)],
                                dtype="float64"),
        "return_30d": np.array([round(lvl / 100.0, 6)],
                               dtype="float64")})


def q_partial_corr(sf_dir: str):
    """Partial correlation of quantity and extended price CONTROLLING
    for discount — ρ(x,y·z) = (r_xy − r_xz·r_yz)/√((1−r_xz²)(1−r_yz²)),
    the confound-adjusted association `corr`/`corr_matrix` report only
    marginally. All three pairwise r's come from one pass of exact
    int64 joint moments (whole dollars / basis points — cents²
    partials would wrap int64 at scale); the partial-r algebra
    is a scalar expression over them, token-identical in SQL; 6 dp."""
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_quantity", "l_extendedprice",
                             "l_discount"])

    def mom(d: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(d["l_quantity"].to_numpy(dtype="float64")) \
            .astype("int64")
        # whole DOLLARS: cents² partials wrap int64 at sf0.1 (numpy
        # wraps silently where DuckDB promotes to HUGEINT); dollar
        # resolution is the documented contract on both engines.
        # floor(x+0.5), NOT rint: prices ending .50 are exact binary
        # halves, where banker's rounding and SQL round() disagree
        y = np.floor(d["l_extendedprice"].to_numpy(dtype="float64")
                     + 0.5).astype("int64")
        z = np.rint(d["l_discount"].to_numpy(dtype="float64")
                    * 10000).astype("int64")
        return pd.DataFrame({
            "k": np.zeros(len(d), dtype="int64"),
            "n": np.ones(len(d), dtype="int64"),
            "sx": x, "sy": y, "sz": z,
            "sxx": x * x, "syy": y * y, "szz": z * z,
            "sxy": x * y, "sxz": x * z, "syz": y * z})

    a = (grouped_agg(li.map_batches(mom, batch_format="pandas"),
                     ["k"], {c: (c, "sum") for c in
                             ("n", "sx", "sy", "sz", "sxx", "syy",
                              "szz", "sxy", "sxz", "syz")})
         .to_pandas())
    g = {c: float(a[c].iloc[0]) for c in a.columns}
    n = g["n"]

    def r(sab, sa, sb, saa, sbb):
        return ((n * sab - sa * sb)
                / np.sqrt((n * saa - sa * sa) * (n * sbb - sb * sb)))

    rxy = r(g["sxy"], g["sx"], g["sy"], g["sxx"], g["syy"])
    rxz = r(g["sxz"], g["sx"], g["sz"], g["sxx"], g["szz"])
    ryz = r(g["syz"], g["sy"], g["sz"], g["syy"], g["szz"])
    pr = ((rxy - rxz * ryz)
          / np.sqrt((1.0 - rxz * rxz) * (1.0 - ryz * ryz)))
    return pd.DataFrame({
        "n": np.array([int(n)], dtype="int64"),
        "r_xy": np.array([round(float(rxy), 6)], dtype="float64"),
        "r_xz": np.array([round(float(rxz), 6)], dtype="float64"),
        "r_yz": np.array([round(float(ryz), 6)], dtype="float64"),
        "partial_r": np.array([round(float(pr), 6)],
                              dtype="float64")})


def q_james_stein(sf_dir: str):
    """James–Stein shrinkage of per-brand mean retail prices toward
    the grand mean — the empirical-Bayes estimator that DOMINATES the
    per-group MLE for k ≥ 4 groups (`target_encode` is the LOO
    cousin; this is the canonical shrinkage with an explicit factor).
    Per-brand exact cent moments give the group means and the pooled
    within-variance; shrink factor
    c = 1 − (k−3)·σ̂²_mean / Σ(x̄_i − x̄)² (positive-part), where
    σ̂²_mean uses the harmonic per-group n; every scalar derives from
    exact int64 sums, token-identical in SQL; 6 dp. Scale bound:
    cents² partials hold to ~10^8 rows at catalog price ranges;
    beyond that use dollar resolution (the `partial_corr` fix)."""
    pa_ = read_table(sf_dir, "part",
                     columns=["p_brand", "p_retailprice"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(d["p_retailprice"].to_numpy(dtype="float64")
                    * 100).astype("int64")
        return pd.DataFrame({"b": d["p_brand"].to_numpy(),
                             "s": c, "ss": c * c,
                             "one": np.ones(len(d), dtype="int64")})

    a = (grouped_agg(pa_.map_batches(pre, batch_format="pandas"),
                     ["b"], {"s": ("s", "sum"), "ss": ("ss", "sum"),
                             "n": ("one", "sum")})
         .to_pandas().sort_values("b").reset_index(drop=True))
    k = float(len(a))
    n = a["n"].to_numpy(dtype="float64")
    s = a["s"].to_numpy(dtype="float64")
    ss = a["ss"].to_numpy(dtype="float64")
    xbar = s / n
    grand = float(s.sum()) / float(n.sum())
    ssw = float((ss - s * s / n).sum())
    N = float(n.sum())
    sigma2 = ssw / (N - k)
    # mean-of-means variance via the harmonic group size
    nh = k / float((1.0 / n).sum())
    d2 = float(((xbar - grand) ** 2).sum())
    c = max(0.0, 1.0 - (k - 3.0) * (sigma2 / nh) / d2)
    shrunk = grand + c * (xbar - grand)
    return pd.DataFrame({
        "brand": a["b"].astype(object),
        "n": a["n"].astype("int64"),
        "mean": np.round(xbar / 100.0, 6),
        "js_mean": np.round(shrunk / 100.0, 6),
        "shrink_c": np.round(np.full(len(a), c), 6)})


def q_meta_analysis(sf_dir: str):
    """Fixed-effect meta-analysis of the price~quantity slope across
    8 supplier segments, with Cochran's Q heterogeneity and I² — the
    'do the segments agree, and how much disagreement is real' pooling
    a platform runs before trusting one global slope. Each segment's
    OLS slope and its variance come from exact int64 joint moments
    (dollar prices — the `partial_corr` overflow discipline); inverse-
    variance weights, the pooled slope and Q fold through micro-
    rounded int64 terms on the 8-row driver table (two-stage: weights
    then deviations), so no float ever sums in engine-dependent
    order; I² = max(0, (Q−(k−1))/Q); 6 dp."""
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_suppkey", "l_quantity",
                             "l_extendedprice"])

    def mom(d: pd.DataFrame) -> pd.DataFrame:
        g = (d["l_suppkey"].to_numpy("int64") % 8)
        x = np.rint(d["l_quantity"].to_numpy(dtype="float64")) \
            .astype("int64")
        # floor(x+0.5): .50-ending prices are exact halves where
        # rint (banker's) and SQL round() (half-away) disagree
        y = np.floor(d["l_extendedprice"].to_numpy(dtype="float64")
                     + 0.5).astype("int64")
        t = pd.DataFrame({"g": g, "n": np.int64(1), "sx": x,
                          "sy": y, "sxx": x * x, "sxy": x * y,
                          "syy": y * y})
        return t.groupby("g", as_index=False).sum()

    a = (grouped_agg(li.map_batches(mom, batch_format="pandas"),
                     ["g"], {c: (c, "sum") for c in
                             ("n", "sx", "sy", "sxx", "sxy", "syy")})
         .to_pandas().sort_values("g").reset_index(drop=True))
    n = a["n"].to_numpy(dtype="float64")
    sx = a["sx"].to_numpy(dtype="float64")
    sy = a["sy"].to_numpy(dtype="float64")
    sxx = a["sxx"].to_numpy(dtype="float64")
    sxy = a["sxy"].to_numpy(dtype="float64")
    syy = a["syy"].to_numpy(dtype="float64")
    sxx_c = sxx - sx * sx / n
    sxy_c = sxy - sx * sy / n
    syy_c = syy - sy * sy / n
    beta = sxy_c / sxx_c
    rss = syy_c - beta * sxy_c
    se2 = rss / (n - 2.0) / sxx_c
    w = 1.0 / se2
    # 1e9 precision: per-group weights at small sf are ~1e-4 and a
    # 1e3 scale rounded every one to zero
    w_mi = np.floor(w * 1e9 + 0.5).astype("int64")
    wb_mi = np.floor(w * beta * 1e9 + 0.5).astype("int64")
    bfix = float(wb_mi.sum()) / float(w_mi.sum())
    q_mi = np.floor(w * (beta - bfix) * (beta - bfix) * 1e6 + 0.5) \
        .astype("int64")
    Q = float(q_mi.sum()) / 1e6
    k = float(len(a))
    i2 = max(0.0, (Q - (k - 1.0)) / Q) if Q > 0 else 0.0
    return pd.DataFrame({
        "k_segments": np.array([int(k)], dtype="int64"),
        "beta_fixed": np.array([round(bfix, 6)], dtype="float64"),
        "cochran_q": np.array([round(Q, 6)], dtype="float64"),
        "i_squared": np.array([round(i2, 6)], dtype="float64")})


def q_rmst(sf_dir: str):
    """Restricted mean survival time (τ=14 days) per arm and its
    difference — the EFFECT SIZE companion to `logrank` (days of
    purchase-free time gained, clinically interpretable where χ² is
    not). Same subject construction; per-arm KM survival uses the
    exact micro-nat discipline (`kaplan_meier`'s): per-day
    ln(1−d/n) rounds to int64 micro-nats, cumulates exactly, and
    each day's S(t) re-exponentiates; the ≤τ-term RMST sum folds
    S(t) micro-rounded at 1e9 so the area is float-order-free.
    RMST = 1 + Σ_{t=1..τ−1} S(t) (the [0,1) interval survives by
    construction); 6 dp."""
    ev = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_type"])
    big = np.int64(2) ** 62
    TAU = 14

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        ts = d["ts"].to_numpy("datetime64[us]").astype("int64")
        is_p = d["event_type"].to_numpy() == "purchase"
        return pd.DataFrame({
            "user_id": d["user_id"].to_numpy(),
            "t0": ts, "tend": ts,
            "fp": np.where(is_p, ts, big)})

    users = grouped_agg(
        ev.map_batches(pre, batch_format="pandas"),
        ["user_id"], {"t0": ("t0", "min"), "tend": ("tend", "max"),
                      "fp": ("fp", "min")})
    day_us = 86_400_000_000

    def lifetable(d: pd.DataFrame) -> pd.DataFrame:
        t0 = d["t0"].to_numpy(dtype="int64")
        fp = d["fp"].to_numpy(dtype="int64")
        tend = d["tend"].to_numpy(dtype="int64")
        observed = fp < big
        tstop = np.where(observed, fp, tend)
        return pd.DataFrame({
            "arm": (d["user_id"].to_numpy() % 2).astype("int64"),
            "day": (tstop - t0) // day_us + 1,
            "d": observed.astype("int64"),
            "c": (~observed).astype("int64")})

    lt = (grouped_agg(
        users.map_batches(lifetable, batch_format="pandas"),
        ["arm", "day"], {"d": ("d", "sum"), "c": ("c", "sum")})
        .to_pandas())
    out = {}
    for arm in (0, 1):
        sub = lt[lt["arm"] == arm].sort_values("day")
        ntot = int(sub[["d", "c"]].sum().sum())
        rem = float(ntot)
        cum_mn = 0          # micro-nats, exact int
        s_at = {}
        for _, r in sub.iterrows():
            day = int(r["day"])
            d_ = int(r["d"])
            c_ = int(r["c"])
            if d_ > 0 and rem > 0 and d_ < rem:
                cum_mn += int(np.floor(
                    np.log(1.0 - d_ / rem) * 1e6 + 0.5))
            elif d_ >= rem > 0:
                cum_mn = None   # survival hits exactly 0
            if cum_mn is None:
                s_at[day] = 0.0
            else:
                s_at[day] = np.exp(cum_mn / 1e6)
            rem -= d_ + c_
        # S(t) for every integer t: step function, last value carries
        rmst_mi = 0
        known_days = sorted(s_at)
        for t in range(1, TAU):
            s_t = 1.0
            for kd in known_days:      # O(τ·days), tiny table
                if kd <= t:
                    s_t = s_at[kd]
            rmst_mi += int(np.floor(s_t * 1e9 + 0.5))
        out[arm] = (ntot, 1.0 + rmst_mi / 1e9)
    diff = out[1][1] - out[0][1]
    return pd.DataFrame({
        "tau": np.array([TAU], dtype="int64"),
        "n_arm0": np.array([out[0][0]], dtype="int64"),
        "n_arm1": np.array([out[1][0]], dtype="int64"),
        "rmst0": np.array([round(out[0][1], 6)], dtype="float64"),
        "rmst1": np.array([round(out[1][1], 6)], dtype="float64"),
        "rmst_diff": np.array([round(diff, 6)], dtype="float64")})


def q_price_index(sf_dir: str):
    """Laspeyres / Paasche / Fisher ideal price indexes between the
    two ship-date halves of the lineitem history — the
    inflation-measurement primitive (`gmean_brand`'s Jevons leg is
    unweighted; these are the quantity-WEIGHTED indexes). Per
    (part, period): exact integer cent/qty sums → unit price
    p = Σcents/Σqty, an exact rational; parts present in BOTH periods
    co-locate in ONE part-hash exchange where each partition folds
    micro-rounded p·q cross terms to 4 int64 partials — nothing
    part-shaped reaches the driver. L = Σp₁q₀/Σp₀q₀,
    P = Σp₁q₁/Σp₀q₁, Fisher = √(L·P); 6 dp."""
    from ..functions.relational import grouped_apply

    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_partkey", "l_shipdate",
                             "l_quantity", "l_extendedprice"])
    b = (grouped_agg(li.map_batches(
        lambda d: pd.DataFrame({
            "k": np.zeros(len(d), dtype="int64"),
            "day": d["l_shipdate"].astype("int64").to_numpy()
                   // 86_400_000_000}),
        batch_format="pandas"),
        ["k"], {"lo": ("day", "min"), "hi": ("day", "max")})
        .to_pandas())
    mid = int((int(b["lo"].iloc[0]) + int(b["hi"].iloc[0]) + 1) // 2)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in ("l10", "l00", "p11",
                                           "p01")})
        day = (g["l_shipdate"].astype("int64").to_numpy()
               // 86_400_000_000)
        per = (day >= mid).astype("int64")
        q = np.rint(g["l_quantity"].to_numpy(dtype="float64")) \
            .astype("int64")
        c = np.rint(g["l_extendedprice"].to_numpy(dtype="float64")
                    * 100).astype("int64")
        d = pd.DataFrame({"pk": g["l_partkey"].to_numpy(),
                          "per": per, "q": q, "c": c})
        a = (d.groupby(["pk", "per"], as_index=False)
             .agg(q=("q", "sum"), c=("c", "sum")))
        piv = a.pivot(index="pk", columns="per",
                      values=["q", "c"]).dropna()
        if len(piv) == 0:
            return pd.DataFrame({c2: pd.Series(dtype="int64")
                                 for c2 in ("l10", "l00", "p11",
                                            "p01")})
        q0 = piv[("q", 0)].to_numpy(dtype="float64")
        q1 = piv[("q", 1)].to_numpy(dtype="float64")
        c0 = piv[("c", 0)].to_numpy(dtype="float64")
        c1 = piv[("c", 1)].to_numpy(dtype="float64")
        p0 = c0 / q0
        p1 = c1 / q1
        return pd.DataFrame({
            "l10": np.array([int(np.floor(p1 * q0 * 1e3 + 0.5)
                                 .astype("int64").sum())],
                            dtype="int64"),
            "l00": np.array([int(np.floor(p0 * q0 * 1e3 + 0.5)
                                 .astype("int64").sum())],
                            dtype="int64"),
            "p11": np.array([int(np.floor(p1 * q1 * 1e3 + 0.5)
                                 .astype("int64").sum())],
                            dtype="int64"),
            "p01": np.array([int(np.floor(p0 * q1 * 1e3 + 0.5)
                                 .astype("int64").sum())],
                            dtype="int64")})

    parts = grouped_apply(li, ["l_partkey"], per_part,
                          num_partitions=32).to_pandas()
    l10 = float(parts["l10"].sum())
    l00 = float(parts["l00"].sum())
    p11 = float(parts["p11"].sum())
    p01 = float(parts["p01"].sum())
    L = l10 / l00
    P = p11 / p01
    F = np.sqrt(L * P)
    return pd.DataFrame({
        "laspeyres": np.array([round(L, 6)], dtype="float64"),
        "paasche": np.array([round(P, 6)], dtype="float64"),
        "fisher": np.array([round(float(F), 6)], dtype="float64")})


def q_adf_lite(sf_dir: str):
    """Dickey–Fuller-style unit-root statistic on daily revenue —
    'is the level mean-reverting or a random walk', the stationarity
    screen run before trusting `double_smooth`/`holt_winters`
    level-trend models. Regress Δy_t on y_{t−1} (with intercept):
    DF = β̂/se(β̂), computed from exact int64 cent moments of the
    lagged pairs (one ≤|days| exchange then the tiny day table);
    every scalar token-identical in SQL; 6 dp. DF ≪ 0 rejects the
    unit root."""
    ev = read_table(sf_dir, "events", columns=["ts", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000,
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64")})

    daily = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                         ["day"], {"y": ("c", "sum")})
             .to_pandas().sort_values("day").reset_index(drop=True))
    y = daily["y"].to_numpy(dtype="int64").astype("float64")
    x = y[:-1]                       # y_{t-1}
    dy = y[1:] - y[:-1]              # Δy_t
    n = float(len(x))
    sx = float(x.sum())
    sy = float(dy.sum())
    sxx = float((x * x).sum())
    sxy = float((x * dy).sum())
    beta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    alpha = (sy - beta * sx) / n
    e = dy - (alpha + beta * x)
    sse = float((e * e).sum())
    se = np.sqrt(sse / (n - 2.0) / (sxx - sx * sx / n))
    df_stat = beta / se
    return pd.DataFrame({
        "n_days": np.array([int(n) + 1], dtype="int64"),
        "beta": np.array([round(beta, 6)], dtype="float64"),
        "df_stat": np.array([round(float(df_stat), 6)],
                            dtype="float64")})


def q_spectral_peak(sf_dir: str):
    """Weekly spectral power of daily revenue via a single Goertzel
    bin at 1/7 cycles/day — the frequency-domain periodicity
    certificate (`dow_seasonality` shows the SHAPE; this one number
    says how much of the variance beats at weekly frequency).
    Centered daily cents project on cos/sin(2πt/7): per-day terms
    micro-round to int64 before the fold (the trig factors are the
    same IEEE doubles from the shared 2π/7 literal), power
    normalizes by total centered energy; 6 dp."""
    ev = read_table(sf_dir, "events", columns=["ts", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000,
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64")})

    daily = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                         ["day"], {"y": ("c", "sum")})
             .to_pandas().sort_values("day").reset_index(drop=True))
    t = daily["day"].to_numpy(dtype="int64")
    t0 = int(t.min())
    y = daily["y"].to_numpy(dtype="int64").astype("float64")
    n = float(len(y))
    mean = float(y.sum()) / n
    w = 0.8975979010256552           # 2*pi/7 shared literal
    yd = y - mean
    tt = (t - t0).astype("float64")
    cterm = np.floor(yd * np.cos(w * tt) + 0.5).astype("int64")
    sterm = np.floor(yd * np.sin(w * tt) + 0.5).astype("int64")
    eterm = np.floor(yd * yd + 0.5).astype("int64")
    C = float(cterm.sum())
    S = float(sterm.sum())
    E = float(eterm.sum())
    power = (C * C + S * S) / n
    ratio = power / E
    return pd.DataFrame({
        "n_days": np.array([int(n)], dtype="int64"),
        "weekly_power_share": np.array([round(ratio, 6)],
                                       dtype="float64")})


def q_neyman_allocation(sf_dir: str):
    """Neyman optimal allocation of a 10,000-event sample across the
    event-type strata — n_h ∝ N_h·σ_h, the survey-sampling design
    step (`ht_estimate` weights a sample AFTER the fact; this chooses
    the sample). Per-stratum N and σ from exact int64 cent moments in
    one ≤5-key pass; the allocation shares are scalar expressions and
    the integer allocations floor(+0.5) identically; also reports the
    design-effect variance ratio vs proportional allocation; 6 dp."""
    B = 10_000
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_type", "value"])

    def mom(d: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(d["value"].to_numpy(dtype="float64") * 100) \
            .astype("int64")
        return pd.DataFrame({"g": d["event_type"].to_numpy(),
                             "s": c, "ss": c * c,
                             "one": np.ones(len(d), dtype="int64")})

    a = (grouped_agg(ev.map_batches(mom, batch_format="pandas"),
                     ["g"], {"s": ("s", "sum"), "ss": ("ss", "sum"),
                             "n": ("one", "sum")})
         .to_pandas().sort_values("g").reset_index(drop=True))
    n = a["n"].to_numpy(dtype="float64")
    s = a["s"].to_numpy(dtype="float64")
    ss = a["ss"].to_numpy(dtype="float64")
    sd = np.sqrt((ss - s * s / n) / (n - 1.0))
    w = n * sd
    W = float(w.sum())
    alloc = np.floor(B * w / W + 0.5).astype("int64")
    # variance of the stratified mean under Neyman vs proportional
    N = float(n.sum())
    v_ney = float((((n / N) * sd) ** 2 / np.maximum(
        B * w / W, 1.0)).sum())
    v_prop = float((((n / N) * sd) ** 2 / np.maximum(
        B * n / N, 1.0)).sum())
    return pd.DataFrame({
        "stratum": a["g"].astype(object),
        "n_pop": a["n"].astype("int64"),
        "sd": np.round(sd / 100.0, 6),
        "n_alloc": alloc,
        "design_gain": np.round(
            np.full(len(a), v_prop / v_ney), 6)})


def q_qte(sf_dir: str):
    """Quantile treatment effects at the deciles — WHERE in the
    outcome distribution the arms differ (`ab_test` compares means;
    heavy-tailed spend often moves only in the upper deciles). Arms =
    event_id parity; per-arm EXACT decile order statistics from the
    bounded cents-histogram exchange (`huber_mean`'s argument); QTE_q
    = q1 − q0 in exact integer cents; 9 rows, 6 dp."""
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "arm": (d["event_id"].to_numpy() % 2).astype("int64"),
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64"),
            "one": np.ones(len(d), dtype="int64")})

    h = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                     ["arm", "c"], {"cnt": ("one", "sum")})
         .to_pandas())
    qs = {}
    for arm in (0, 1):
        sub = h[h["arm"] == arm].sort_values("c")
        cv = sub["c"].to_numpy(dtype="int64")
        ct = sub["cnt"].to_numpy(dtype="int64")
        ntot = int(ct.sum())
        cum = np.cumsum(ct)
        for k in range(1, 10):
            r = int(np.ceil(k * ntot / 10.0))
            qs[(arm, k)] = int(cv[np.searchsorted(cum, r)])
    rows = [(k, qs[(0, k)], qs[(1, k)],
             (qs[(1, k)] - qs[(0, k)]) / 100.0)
            for k in range(1, 10)]
    return pd.DataFrame({
        "decile": np.array([r[0] for r in rows], dtype="int64"),
        "q_arm0": np.round(np.array([r[1] / 100.0 for r in rows]),
                           6),
        "q_arm1": np.round(np.array([r[2] / 100.0 for r in rows]),
                           6),
        "qte": np.round(np.array([r[3] for r in rows]), 6)})


def q_hurst_rs(sf_dir: str):
    """Hurst exponent of daily revenue by rescaled-range (R/S)
    analysis over window sizes {7, 14, 28} — the long-memory
    diagnostic completing the stationarity suite (`adf_lite` asks
    unit-root, `autocorr` one lag; H>0.5 = persistent, <0.5 =
    anti-persistent). Per complete window: centered-cumsum range R
    and population σ S from the day table (exact cents in, identical
    float ops); per-window ln(R/S) micro-rounds to int64 before the
    per-size mean; H = the 3-point OLS slope of mean-ln(R/S) on
    ln(w); 6 dp."""
    ev = read_table(sf_dir, "events", columns=["ts", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000,
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64")})

    daily = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                         ["day"], {"y": ("c", "sum")})
             .to_pandas().sort_values("day").reset_index(drop=True))
    t = daily["day"].to_numpy(dtype="int64")
    t0 = int(t.min())
    idx = t - t0
    full = np.zeros(int(idx.max()) + 1)
    full[idx] = daily["y"].to_numpy(dtype="int64").astype("float64")
    pts = []
    for w in (7, 14, 28):
        nb = len(full) // w
        if nb == 0:
            continue
        logs = []
        for b in range(nb):
            seg = full[b * w:(b + 1) * w]
            mu = seg.sum() / w
            dev = np.cumsum(seg - mu)
            R = float(dev.max() - dev.min())
            S = float(np.sqrt(((seg - mu) ** 2).sum() / w))
            if S > 0 and R > 0:
                logs.append(int(np.floor(
                    np.log(R / S) * 1e6 + 0.5)))
        if logs:
            pts.append((float(np.log(w)),
                        sum(logs) / len(logs) / 1e6, len(logs)))
    n = float(len(pts))
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    h = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    return pd.DataFrame({
        "n_scales": np.array([int(n)], dtype="int64"),
        "hurst": np.array([round(h, 6)], dtype="float64")})


_UCB_ARMS = ("click", "error", "purchase", "signup", "view")


def q_ucb_replay(sf_dir: str):
    """Deterministic UCB1 bandit replay over the day-batched arms —
    'had we allocated traffic with UCB1, what regret would we have
    paid', the offline bandit-evaluation primitive (`ips_eval` scores
    a FIXED policy; this replays a LEARNING one). Arms = the 5 event
    types; day-t reward of an arm = its mean cents that day,
    micro-rounded to int64 and normalized by the global max so
    rewards live in [0,1] as exact rationals. Replay: one init pull
    per arm (days 1-5 in arm order), then argmax of
    mean + √(2·ln t / n) with first-arm-wins ties; regret accrues in
    EXACT micro-cents against the fixed best arm. The day table is
    tiny; the oracle replays the identical recursion in a generated
    WITH RECURSIVE carrying (n₁..n₅, s₁..s₅, regret); 6 dp."""
    ev = read_table(sf_dir, "events",
                    columns=["ts", "event_type", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000,
            "g": d["event_type"].to_numpy(),
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64"),
            "one": np.ones(len(d), dtype="int64")})

    a = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                     ["day", "g"], {"s": ("c", "sum"),
                                    "n": ("one", "sum")})
         .to_pandas())
    a["r"] = np.floor(a["s"].to_numpy(dtype="float64")
                      / a["n"].to_numpy(dtype="float64")
                      * 1e3 + 0.5).astype("int64")
    days = np.sort(a["day"].unique())
    T = len(days)
    rw = {}
    for _, row in a.iterrows():
        if row["g"] in _UCB_ARMS:
            rw[(int(row["day"]), row["g"])] = int(row["r"])
    R = np.zeros((T, 5), dtype="int64")
    for ti, dday in enumerate(days):
        for ai, g in enumerate(_UCB_ARMS):
            R[ti, ai] = rw.get((int(dday), g), 0)
    rmax = int(R.max())
    tot = R.sum(axis=0)
    best = int(np.argmax(tot))          # ties → first arm
    for ai in range(5):
        if tot[ai] == tot[best] and ai < best:
            best = ai
    n = [0] * 5
    s = [0.0] * 5
    reg = 0
    for t in range(min(5, T)):
        arm = t
        n[arm] += 1
        s[arm] += R[t, arm] / rmax
        reg += int(R[t, best]) - int(R[t, arm])
    for t in range(5, T):
        tp = float(t)
        ucb = [s[i] / n[i] + np.sqrt(2.0 * np.log(tp) / n[i])
               for i in range(5)]
        arm = 0
        for i in range(1, 5):
            if ucb[i] > ucb[arm]:
                arm = i
        n[arm] += 1
        s[arm] += R[t, arm] / rmax
        reg += int(R[t, best]) - int(R[t, arm])
    return pd.DataFrame({
        "arm": list(_UCB_ARMS),
        "pulls": np.array(n, dtype="int64"),
        "mean_reward": np.round(
            np.array([s[i] / n[i] if n[i] else 0.0
                      for i in range(5)]), 6),
        "regret": np.round(np.full(5, reg / 1e3 / 100.0), 6)})


def q_journey_length(sf_dir: str):
    """Expected journey LENGTH to absorption per start channel — the
    absorbing-chain companion to `markov_attribution`: how many steps
    a (view/click/signup)-starting session takes before purchase or
    drop-off, t = (I−Q)⁻¹·𝟙 on the same transition chain. Counts come
    from the identical user-hash exchange; the Cramer x-expressions
    are REUSED VERBATIM with b ≡ 1 (both engines bind b1..b3 to the
    literal 1.0), so the algebra still cannot drift token-wise; the
    start-weighted overall mean rides the shared p_full expression;
    6 dp."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_id",
                             "event_type"])
    idx = {s: i + 1 for i, s in enumerate(_MK_STATES)}

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        cols = {"kind": [], "i": [], "j": [], "n": []}
        if len(g):
            d = g[g["event_type"].isin(
                list(_MK_STATES) + ["purchase"])]
            d = d.sort_values(["user_id", "ts", "event_id"],
                              kind="mergesort")
            u = d["user_id"].to_numpy()
            st = d["event_type"].map(
                {**idx, "purchase": 0}).to_numpy(dtype="int64")
            same = np.r_[False, u[1:] == u[:-1]]
            first = ~same
            nxt = np.r_[same[1:], False]
            cur = st
            nx = np.r_[st[1:], 0]
            rows = []
            for i in (1, 2, 3):
                rows.append(("s", i, 0,
                             int((first & (cur == i)).sum())))
            for i in (1, 2, 3):
                src = (cur == i)
                for j in (1, 2, 3):
                    rows.append(("q", i, j, int(
                        (src & nxt & (nx == j)).sum())))
                rows.append(("b", i, 0, int(
                    (src & nxt & (nx == 0)).sum())))
                rows.append(("z", i, 0, int(
                    (src & ~nxt).sum())))
            for k, i, j, n in rows:
                cols["kind"].append(k)
                cols["i"].append(i)
                cols["j"].append(j)
                cols["n"].append(n)
        return pd.DataFrame({
            "kind": pd.Series(cols["kind"], dtype=object),
            "i": pd.Series(cols["i"], dtype="int64"),
            "j": pd.Series(cols["j"], dtype="int64"),
            "n": pd.Series(cols["n"], dtype="int64")})

    a = (grouped_agg(
        grouped_apply(ev, ["user_id"], per_part, num_partitions=32),
        ["kind", "i", "j"], {"n": ("n", "sum")}).to_pandas())
    cnt = {(r["kind"], int(r["i"]), int(r["j"])): int(r["n"])
           for _, r in a.iterrows()}
    tot_start = sum(cnt.get(("s", i, 0), 0) for i in (1, 2, 3))
    v = {}
    for i in (1, 2, 3):
        out = (sum(cnt.get(("q", i, j), 0) for j in (1, 2, 3))
               + cnt.get(("b", i, 0), 0) + cnt.get(("z", i, 0), 0))
        for j in (1, 2, 3):
            v[f"q{i}{j}"] = cnt.get(("q", i, j), 0) / out
        v[f"b{i}"] = 1.0                       # b ≡ 1: count steps
        v[f"s{i}"] = cnt.get(("s", i, 0), 0) / tot_start
    ex = _mk_exprs()
    env = {"__builtins__": {}}
    ts = [eval(ex[f"x{i}"], env, dict(v)) for i in (1, 2, 3)]
    overall = eval(ex["p_full"], env, dict(v))
    return pd.DataFrame({
        "channel": list(_MK_STATES),
        "expected_steps": np.round(np.array(ts), 6),
        "overall": np.round(np.full(3, overall), 6)})


def q_reserve_price(sf_dir: str):
    """Revenue-optimal posted price from the empirical demand curve —
    treat each order's total as a buyer valuation; at posted price p
    revenue is p·#{orders with value ≥ p}; pick the argmax over the
    EXACT distinct-value candidates (a classic result: the optimum is
    at a valuation point). The bounded cents-histogram ships exact
    counts; survivors-at-or-above come from a top-down cumulative
    sum; revenue products are exact int64 and ties break toward the
    LOWER price on both engines; 6 dp."""
    od = read_table(sf_dir, "orders",
                    columns=["o_totalprice"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "c": np.rint(d["o_totalprice"].to_numpy(dtype="float64")
                         * 100).astype("int64"),
            "one": np.ones(len(d), dtype="int64")})

    h = (grouped_agg(od.map_batches(pre, batch_format="pandas"),
                     ["c"], {"cnt": ("one", "sum")})
         .to_pandas().sort_values("c", ascending=False)
         .reset_index(drop=True))
    cv = h["c"].to_numpy(dtype="int64")
    ct = h["cnt"].to_numpy(dtype="int64")
    n = int(ct.sum())
    above = np.cumsum(ct)               # buyers with value >= c
    rev = cv * above
    best = int(np.argmax(rev))
    # ties toward the LOWER price: argmax returns the FIRST max in
    # descending-price order; scan for later (lower-price) equal revs
    for i in range(best + 1, len(rev)):
        if rev[i] == rev[best]:
            best = i
    return pd.DataFrame({
        "n_orders": np.array([n], dtype="int64"),
        "reserve": np.array([round(int(cv[best]) / 100.0, 6)],
                            dtype="float64"),
        "buyers": np.array([int(above[best])], dtype="int64"),
        "revenue": np.array([round(int(rev[best]) / 100.0, 6)],
                            dtype="float64")})


def q_gains_table(sf_dir: str):
    """Cumulative gains (lift) table — 'score events by value, how
    many of all purchases live in the top k deciles', the
    targeting-efficiency readout `calibration` (reliability) and
    `auc` (one number) don't give. Decile EDGES are exact order
    statistics of the value distribution from the bounded cents
    histogram; per-decile purchase counts come from the same
    histogram carrying the purchase flag; cumulative capture and
    lift are exact int64 ratios; 6 dp. Ties at an edge belong to the
    LOWER decile on both engines (edge = smallest cent value whose
    cum ≥ the decile rank)."""
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_type", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64"),
            "p": (d["event_type"].to_numpy() == "purchase")
                 .astype("int64"),
            "one": np.ones(len(d), dtype="int64")})

    h = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                     ["c"], {"k": ("p", "sum"), "n": ("one", "sum")})
         .to_pandas().sort_values("c", ascending=False)
         .reset_index(drop=True))
    cv = h["c"].to_numpy(dtype="int64")
    kv = h["k"].to_numpy(dtype="int64")
    nv = h["n"].to_numpy(dtype="int64")
    N = int(nv.sum())
    K = int(kv.sum())
    cum_n = np.cumsum(nv)
    cum_k = np.cumsum(kv)
    rows = []
    for d in range(1, 11):
        r = int(np.ceil(d * N / 10.0))
        i = int(np.searchsorted(cum_n, r))
        got_n = int(cum_n[i])
        got_k = int(cum_k[i])
        capture = got_k / K
        lift = (got_k / K) / (got_n / N)
        rows.append((d, got_n, got_k, round(capture, 6),
                     round(lift, 6)))
    return pd.DataFrame({
        "decile": np.array([r[0] for r in rows], dtype="int64"),
        "n_cum": np.array([r[1] for r in rows], dtype="int64"),
        "purchases_cum": np.array([r[2] for r in rows],
                                  dtype="int64"),
        "capture": np.array([r[3] for r in rows], dtype="float64"),
        "lift": np.array([r[4] for r in rows], dtype="float64")})


def q_split_half(sf_dir: str):
    """Split-half reliability with the Spearman–Brown correction —
    'is per-user spend a stable trait or noise', the psychometric
    consistency readout: each user's events split even/odd by
    event_id, the two half-sums correlate across users, and
    SB = 2r/(1+r) projects to full-length reliability. ONE user-hash
    exchange folds exact int64 half-sums; the correlation uses exact
    joint moments of the per-user cent pairs (user sums stay far
    inside int64); 6 dp."""
    from ..functions.relational import grouped_apply

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "value"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in ("n", "sx", "sy", "sxx",
                                           "syy", "sxy")})
        c = np.rint(g["value"].to_numpy(dtype="float64") * 100) \
            .astype("int64")
        even = (g["event_id"].to_numpy() % 2 == 0)
        d = pd.DataFrame({"u": g["user_id"].to_numpy(),
                          "x": np.where(even, c, 0),
                          "y": np.where(even, 0, c)})
        u = d.groupby("u", sort=False).agg(x=("x", "sum"),
                                           y=("y", "sum"))
        x = u["x"].to_numpy()
        y = u["y"].to_numpy()
        return pd.DataFrame({
            "n": np.array([len(u)], dtype="int64"),
            "sx": np.array([int(x.sum())], dtype="int64"),
            "sy": np.array([int(y.sum())], dtype="int64"),
            "sxx": np.array([int((x * x).sum())], dtype="int64"),
            "syy": np.array([int((y * y).sum())], dtype="int64"),
            "sxy": np.array([int((x * y).sum())], dtype="int64")})

    p = grouped_apply(ev, ["user_id"], per_part,
                      num_partitions=32).to_pandas()
    n = float(p["n"].sum())
    sx = float(p["sx"].sum())
    sy = float(p["sy"].sum())
    sxx = float(p["sxx"].sum())
    syy = float(p["syy"].sum())
    sxy = float(p["sxy"].sum())
    r = ((n * sxy - sx * sy)
         / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)))
    sb = 2.0 * r / (1.0 + r)
    return pd.DataFrame({
        "n_users": np.array([int(n)], dtype="int64"),
        "half_corr": np.array([round(float(r), 6)], dtype="float64"),
        "spearman_brown": np.array([round(float(sb), 6)],
                                   dtype="float64")})


def q_cohen_kappa(sf_dir: str):
    """Cohen's κ between the langid prediction and the labeled
    `lang` column — chance-corrected agreement, the metric
    `classification_report`'s raw accuracy overstates when one class
    dominates. The prediction reuses the oracle-checked `LangId`
    kernel; the k×k confusion counts are exact int64 from one
    grouped pass; κ = (p_o − p_e)/(1 − p_e) with p_o/p_e exact
    integer ratios (Σ diagonal / N and Σ row·col marginal products /
    N²); 6 dp."""
    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "lang", "text"],
                      bytes_per_block=_DOC_BPB)

    def pred(df: pd.DataFrame) -> pd.DataFrame:
        lang = text.LangId()(df)
        return pd.DataFrame({
            "t": df["lang"].to_numpy(),
            "p": lang["lang_pred"].to_numpy(),
            "one": np.ones(len(df), dtype="int64")})

    cm = (grouped_agg(docs.map_batches(pred, batch_format="pandas"),
                      ["t", "p"], {"n": ("one", "sum")})
          .to_pandas())
    N = int(cm["n"].sum())
    diag = int(cm.loc[cm["t"] == cm["p"], "n"].sum())
    rowm = cm.groupby("t")["n"].sum()
    colm = cm.groupby("p")["n"].sum()
    labels = sorted(set(rowm.index) | set(colm.index))
    pe_num = sum(int(rowm.get(l, 0)) * int(colm.get(l, 0))
                 for l in labels)
    po = diag / N
    pe = pe_num / (N * N)
    # single-class degenerate: pe == 1 exactly (integer identity);
    # define kappa = 1 with perfect agreement, mirrored in SQL
    kappa = (po - pe) / (1.0 - pe) if pe < 1.0 else 1.0
    return pd.DataFrame({
        "n_docs": np.array([N], dtype="int64"),
        "accuracy": np.array([round(po, 6)], dtype="float64"),
        "chance": np.array([round(pe, 6)], dtype="float64"),
        "kappa": np.array([round(kappa, 6)], dtype="float64")})


def q_srm_check(sf_dir: str):
    """Sample-ratio-mismatch guardrail — the first thing a broken
    experiment shows: do the event_id-parity arm sizes match the
    designed 50/50 split? χ² = Σ(O−E)²/E over the two cells from
    exact int64 counts, with the SRM flag at the conventional
    χ²>3.841 (α=0.05, 1 df, shared literal); 6 dp."""
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id"])
    a = (grouped_agg(ev.map_batches(
        lambda d: pd.DataFrame({
            "arm": (d["event_id"].to_numpy() % 2).astype("int64"),
            "one": np.ones(len(d), dtype="int64")}),
        batch_format="pandas"),
        ["arm"], {"n": ("one", "sum")})
        .to_pandas().sort_values("arm").reset_index(drop=True))
    n0 = float(a["n"].iloc[0])
    n1 = float(a["n"].iloc[1])
    E = (n0 + n1) / 2.0
    chi2 = ((n0 - E) * (n0 - E) / E + (n1 - E) * (n1 - E) / E)
    return pd.DataFrame({
        "n_arm0": np.array([int(n0)], dtype="int64"),
        "n_arm1": np.array([int(n1)], dtype="int64"),
        "chi2": np.array([round(chi2, 6)], dtype="float64"),
        "srm_flag": np.array([1 if chi2 > 3.841 else 0],
                             dtype="int64")})


def q_tost(sf_dir: str):
    """TOST equivalence test between the parity arms on mean event
    value — the inference `ab_test` CANNOT make: failing to reject
    'different' is not evidence of 'same'; TOST rejects both
    one-sided nulls outside a ±1%-of-pooled-mean margin to CONCLUDE
    equivalence. Arm moments are exact int64 cents from one
    streaming pass; δ, the Welch SE and both z's are token-identical
    scalar expressions (z critical 1.6448536270 shared literal);
    6 dp."""
    ev = read_table(sf_dir, "events", bytes_per_block=_FACT_BPB,
                    columns=["event_id", "value"])

    def mom(d: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(d["value"].to_numpy(dtype="float64") * 100) \
            .astype("int64")
        return pd.DataFrame({
            "arm": (d["event_id"].to_numpy() % 2).astype("int64"),
            "s": c, "ss": c * c,
            "one": np.ones(len(d), dtype="int64")})

    a = (grouped_agg(ev.map_batches(mom, batch_format="pandas"),
                     ["arm"], {"s": ("s", "sum"), "ss": ("ss", "sum"),
                               "n": ("one", "sum")})
         .to_pandas().sort_values("arm").reset_index(drop=True))
    n0, n1 = float(a["n"].iloc[0]), float(a["n"].iloc[1])
    s0, s1 = float(a["s"].iloc[0]), float(a["s"].iloc[1])
    ss0, ss1 = float(a["ss"].iloc[0]), float(a["ss"].iloc[1])
    m0 = s0 / n0
    m1 = s1 / n1
    v0 = (ss0 - s0 * s0 / n0) / (n0 - 1.0)
    v1 = (ss1 - s1 * s1 / n1) / (n1 - 1.0)
    d = m1 - m0
    delta = 0.01 * ((s0 + s1) / (n0 + n1))
    se = np.sqrt(v0 / n0 + v1 / n1)
    z1 = (d + delta) / se
    z2 = (delta - d) / se
    zc = 1.6448536270
    return pd.DataFrame({
        "diff": np.array([round(d / 100.0, 6)], dtype="float64"),
        "margin": np.array([round(delta / 100.0, 6)],
                           dtype="float64"),
        "z_lower": np.array([round(float(z1), 6)], dtype="float64"),
        "z_upper": np.array([round(float(z2), 6)], dtype="float64"),
        "equivalent": np.array(
            [1 if (z1 >= zc and z2 >= zc) else 0], dtype="int64")})


def q_mediation(sf_dir: str):
    """Baron–Kenny mediation with the Sobel test — how much of the
    quantity→price effect flows THROUGH the discount: path a (m~x),
    path b (y~x+m, the m coefficient), indirect = a·b,
    Sobel z = ab/√(b²se_a² + a²se_b²). All five regressions'
    ingredients come from ONE pass of exact int64 joint moments
    (quantities, basis-point discounts, whole-dollar prices — the
    overflow discipline); centered sums, closed-form 2×2 normal
    equations and the Sobel algebra are token-identical scalar
    expressions; 6 dp."""
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_quantity", "l_discount",
                             "l_extendedprice"])

    def mom(d: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(d["l_quantity"].to_numpy(dtype="float64")) \
            .astype("int64")
        m = np.rint(d["l_discount"].to_numpy(dtype="float64")
                    * 10000).astype("int64")
        y = np.floor(d["l_extendedprice"].to_numpy(dtype="float64")
                     + 0.5).astype("int64")
        return pd.DataFrame({
            "k": np.zeros(len(d), dtype="int64"),
            "n": np.ones(len(d), dtype="int64"),
            "sx": x, "sm": m, "sy": y,
            "sxx": x * x, "smm": m * m, "syy": y * y,
            "sxm": x * m, "sxy": x * y, "smy": m * y})

    g = (grouped_agg(li.map_batches(mom, batch_format="pandas"),
                     ["k"], {c: (c, "sum") for c in
                             ("n", "sx", "sm", "sy", "sxx", "smm",
                              "syy", "sxm", "sxy", "smy")})
         .to_pandas())
    d = {c: float(g[c].iloc[0]) for c in g.columns}
    n = d["n"]
    Sxx = d["sxx"] - d["sx"] * d["sx"] / n
    Smm = d["smm"] - d["sm"] * d["sm"] / n
    Syy = d["syy"] - d["sy"] * d["sy"] / n
    Sxm = d["sxm"] - d["sx"] * d["sm"] / n
    Sxy = d["sxy"] - d["sx"] * d["sy"] / n
    Smy = d["smy"] - d["sm"] * d["sy"] / n
    a_path = Sxm / Sxx
    se_a2 = ((Smm - a_path * Sxm) / (n - 2.0)) / Sxx
    det = Sxx * Smm - Sxm * Sxm
    b_x = (Smm * Sxy - Sxm * Smy) / det
    b_m = (Sxx * Smy - Sxm * Sxy) / det
    sig2 = (Syy - b_x * Sxy - b_m * Smy) / (n - 3.0)
    se_b2 = sig2 * Sxx / det
    ab = a_path * b_m
    sobel = ab / np.sqrt(b_m * b_m * se_a2 + a_path * a_path * se_b2)
    return pd.DataFrame({
        "path_a": np.array([round(a_path, 6)], dtype="float64"),
        "path_b": np.array([round(b_m, 6)], dtype="float64"),
        "indirect": np.array([round(ab, 6)], dtype="float64"),
        "sobel_z": np.array([round(float(sobel), 6)],
                            dtype="float64")})


def q_elasticity(sf_dir: str):
    """Log-log demand elasticity — the %Δquantity per %Δunit-price
    slope (`price_index` measures the LEVEL shift; elasticity the
    RESPONSE). Unit price = extendedprice/quantity per line; both
    logs milli-round to int64 per row so the OLS joint moments are
    exact integer sums (the `lognormal_fit` discipline); the slope
    and its R² are token-identical scalar expressions; 6 dp."""
    li = read_table(sf_dir, "lineitem", bytes_per_block=_FACT_BPB,
                    columns=["l_quantity", "l_extendedprice"])

    def mom(d: pd.DataFrame) -> pd.DataFrame:
        q = d["l_quantity"].to_numpy(dtype="float64")
        p = (d["l_extendedprice"].to_numpy(dtype="float64") / q)
        lx = np.floor(np.log(p) * 1e3 + 0.5).astype("int64")
        ly = np.floor(np.log(q) * 1e3 + 0.5).astype("int64")
        return pd.DataFrame({
            "k": np.zeros(len(d), dtype="int64"),
            "n": np.ones(len(d), dtype="int64"),
            "sx": lx, "sy": ly, "sxx": lx * lx, "sxy": lx * ly,
            "syy": ly * ly})

    g = (grouped_agg(li.map_batches(mom, batch_format="pandas"),
                     ["k"], {c: (c, "sum") for c in
                             ("n", "sx", "sy", "sxx", "sxy", "syy")})
         .to_pandas())
    n = float(g["n"].iloc[0])
    sx = float(g["sx"].iloc[0])
    sy = float(g["sy"].iloc[0])
    sxx = float(g["sxx"].iloc[0])
    sxy = float(g["sxy"].iloc[0])
    syy = float(g["syy"].iloc[0])
    beta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    r2 = ((n * sxy - sx * sy) * (n * sxy - sx * sy)
          / ((n * sxx - sx * sx) * (n * syy - sy * sy)))
    return pd.DataFrame({
        "n": np.array([int(n)], dtype="int64"),
        "elasticity": np.array([round(beta, 6)], dtype="float64"),
        "r2": np.array([round(r2, 6)], dtype="float64")})


def q_var_backtest(sf_dir: str):
    """Value-at-Risk backtest with the Kupiec proportion-of-failures
    LR — risk-control for the revenue stream: VaR₉₅ = the exact 95th
    percentile of daily revenue DROPS (negative day-over-day
    changes), exceptions counted out-of-sample-style over all days,
    and Kupiec's LR = −2·ln[(1−p)^(n−x) p^x] +
    2·ln[(1−x/n)^(n−x) (x/n)^x] tests whether the exception RATE
    matches the nominal 5%. The day table is bounded; the quantile
    is an exact order statistic on integer cent drops; the LR is a
    scalar over exact counts (x=0 and x=n degenerate terms pinned by
    the shared x·ln(x) → 0 convention); 6 dp."""
    ev = read_table(sf_dir, "events", columns=["ts", "value"])

    def pre(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": d["ts"].to_numpy("datetime64[us]").astype("int64")
                   // 86_400_000_000,
            "c": np.rint(d["value"].to_numpy(dtype="float64") * 100)
                 .astype("int64")})

    daily = (grouped_agg(ev.map_batches(pre, batch_format="pandas"),
                         ["day"], {"y": ("c", "sum")})
             .to_pandas().sort_values("day").reset_index(drop=True))
    y = daily["y"].to_numpy(dtype="int64")
    drops = (y[:-1] - y[1:])            # positive = revenue fell
    n = len(drops)
    sd = np.sort(drops)
    k = int(np.ceil(0.95 * n))
    var95 = int(sd[k - 1])
    x = int((drops > var95).sum())
    p = 0.05
    xf = float(x)
    nf = float(n)

    def xlnx(a: float, b: float) -> float:
        # a*ln(b) with the 0*ln(0) -> 0 convention, shared
        return 0.0 if a == 0.0 else a * np.log(b)

    lr = (-2.0 * (xlnx(nf - xf, 1.0 - p) + xlnx(xf, p))
          + 2.0 * (xlnx(nf - xf, 1.0 - xf / nf)
                   + xlnx(xf, xf / nf)))
    return pd.DataFrame({
        "n_days": np.array([n], dtype="int64"),
        "var95": np.array([round(var95 / 100.0, 6)],
                          dtype="float64"),
        "exceptions": np.array([x], dtype="int64"),
        "kupiec_lr": np.array([round(float(lr), 6)],
                              dtype="float64")})


QUERIES = {
    "filter_project": q_filter_project,
    "agg_pricing": q_agg_pricing,
    "groupby_count": q_groupby_count,
    "join_broadcast": q_join_broadcast,
    "join_partitioned": q_join_partitioned,
    "join_native": q_join_native,
    "sort_topk": q_sort_topk,
    "topk_per_group": q_topk_per_group,
    "distinct": q_distinct,
    "anti_join": q_anti_join,
    "semi_join": q_semi_join,
    "cumsum": q_cumsum,
    "count_distinct": q_count_distinct,
    "approx_distinct": q_approx_distinct,
    "doc_category": q_doc_category,
    "window_hourly": q_window_hourly,
    "window_sliding": q_window_sliding,
    "quantiles": q_quantiles,
    "quantiles_disc": q_quantiles_disc,
    "quantiles_sketch": q_quantiles_sketch,
    "corr": q_corr,
    "sessionize": q_sessionize,
    "dedup_exact": q_dedup_exact,
    "text_stats": q_text_stats,
    "ann_topk": q_ann_topk,
    "count_lineitem": q_count_lineitem,
    "minmax_agg": q_minmax_agg,
    "stddev_agg": q_stddev_agg,
    "json_extract": q_json_extract,
    "top_revenue_orders": q_top_revenue_orders,
    "union_distinct": q_union_distinct,
    "embedding_stats": q_embedding_stats,
    "asof_join": q_asof_join,
    "asof_forward": q_asof_forward,
    "ngram_jaccard": q_ngram_jaccard,
    "dedup_minhash": q_dedup_minhash,
    "dedup_minhash_subset": q_dedup_minhash_subset,
    "quantiles_sketch_err": q_quantiles_sketch_err,
    "dedup_clusters": q_dedup_clusters,
    "dedup_simhash": q_dedup_simhash,
    "dedup_simhash_subset": q_dedup_simhash_subset,
    "line_dedup": q_line_dedup,
    "pack_sequences": q_pack_sequences,
    "pack_payloads": q_pack_payloads,
    "dup_spans": q_dup_spans,
    "dup_spans_clean": q_dup_spans_clean,
    "kmeans_audit": q_kmeans_audit,
    "pca_audit": q_pca_audit,
    "mm_segments": q_mm_segments,
    "mm_media_dedup": q_mm_media_dedup,
    "mm_pack": q_mm_pack,
    "langid": q_langid,
    "quality": q_quality,
    "quality_above_median": q_quality_above_median,
    "curate": q_curate,
    "bpe_audit": q_bpe_audit,
    "bpe_encode": q_bpe_encode,
    "dedup_incremental_audit": q_dedup_incremental_audit,
    "shuffle_shards": q_shuffle_shards,
    "crawl_fetched": q_crawl_fetched,
    "crawl_stats": q_crawl_stats,
    "crawl_media_features": q_crawl_media_features,
    "crawl_page": q_crawl_page,
}

ORACLE_SQL = {
    "filter_project": SQL_FILTER_PROJECT,
    "agg_pricing": SQL_AGG_PRICING,
    "groupby_count": SQL_GROUPBY_COUNT,
    "join_broadcast": SQL_JOIN_BROADCAST,
    "join_partitioned": SQL_JOIN_PARTITIONED,
    "join_native": SQL_JOIN_NATIVE,
    "sort_topk": SQL_SORT_TOPK,
    "topk_per_group": SQL_TOPK_PER_GROUP,
    "distinct": SQL_DISTINCT,
    "anti_join": SQL_ANTI_JOIN,
    "semi_join": SQL_SEMI_JOIN,
    "cumsum": SQL_CUMSUM,
    "count_distinct": SQL_COUNT_DISTINCT,
    "approx_distinct": SQL_APPROX_DISTINCT,
    "doc_category": SQL_DOC_CATEGORY,
    "window_hourly": SQL_WINDOW_HOURLY,
    "window_sliding": SQL_WINDOW_SLIDING,
    "quantiles": SQL_QUANTILES,
    "quantiles_disc": SQL_QUANTILES_DISC,
    "corr": SQL_CORR,
    "sessionize": SQL_SESSIONIZE,
    "dedup_exact": SQL_DEDUP_EXACT,
    "text_stats": SQL_TEXT_STATS,
    "ann_topk": SQL_ANN_TOPK,
    "count_lineitem": SQL_COUNT_LINEITEM,
    "minmax_agg": SQL_MINMAX_AGG,
    "stddev_agg": SQL_STDDEV_AGG,
    "json_extract": SQL_JSON_EXTRACT,
    "top_revenue_orders": SQL_TOP_REVENUE_ORDERS,
    "union_distinct": SQL_UNION_DISTINCT,
    "embedding_stats": SQL_EMBEDDING_STATS,
    "asof_join": SQL_ASOF_JOIN,
    "asof_forward": SQL_ASOF_FORWARD,
    "ngram_jaccard": SQL_NGRAM_JACCARD,
    "dedup_minhash_subset": SQL_DEDUP_MINHASH_SUBSET,
    "quantiles_sketch_err": SQL_QUANTILES_SKETCH_ERR,
    "mm_segments": SQL_MM_SEGMENTS,
    "mm_media_dedup": SQL_MM_MEDIA_DEDUP,
    "mm_pack": SQL_MM_PACK,
    "dedup_clusters": SQL_DEDUP_CLUSTERS,
    "dedup_simhash_subset": SQL_DEDUP_SIMHASH_SUBSET,
    "line_dedup": SQL_LINE_DEDUP,
    "pack_sequences": SQL_PACK_SEQUENCES,
    "pack_payloads": SQL_PACK_PAYLOADS,
    "dup_spans": SQL_DUP_SPANS,
    "dup_spans_clean": SQL_DUP_SPANS_CLEAN,
    "kmeans_audit": SQL_KMEANS_AUDIT,
    "pca_audit": SQL_PCA_AUDIT,
    "langid": SQL_LANGID,
    "quality": SQL_QUALITY,
    "quality_above_median": SQL_QUALITY_ABOVE_MEDIAN,
    "curate": SQL_CURATE,
    "bpe_audit": SQL_BPE_AUDIT,
    "bpe_encode": SQL_BPE_ENCODE,
    "dedup_incremental_audit": SQL_DEDUP_INCREMENTAL_AUDIT,
    "shuffle_shards": SQL_SHUFFLE_SHARDS,
}
