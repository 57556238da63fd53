"""Relational / temporal / routing operators over the testdata tables.

Each entry re-expresses a reference operator (SURVEY.md §2 numbering in the
docstrings) as an idiomatic Ray Data pipeline, paired with the ANSI-SQL
oracle the driver runs through DuckDB. Float outputs are rounded identically
on both sides so order-of-summation jitter cannot break the value-hash;
integer aggregates are cast to BIGINT on the SQL side (DuckDB widens int
sums to HUGEINT).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from . import common
from .common import (
    SMALL_COMBINE_ROWS,
    bucketed_group_agg,
    combine_small,
    isin_sorted,
    lookup_sorted,
    table,
    table_num_rows,
)

REGISTRY: dict[str, dict] = {}


def register(name: str, sql: str | None = None):
    def deco(fn):
        REGISTRY[name] = {"fn": fn, "sql": sql}
        return fn

    return deco


# --------------------------------------------------------------------------
# A1 — grouped counts per routing key (create_counts_df, PreprocessDump.py:21-34)
@register(
    "grouped_counts_lang_source",
    sql="SELECT lang, source, count(*) AS n FROM documents GROUP BY lang, source",
)
def grouped_counts_lang_source(sf_dir: str):
    # fixed key cardinality (langs × sources ≈ 100): per-block combiner
    # then one local final combine — no shuffle at any input scale
    def partial(t: pa.Table) -> pa.Table:
        return (
            pa.TableGroupBy(t, ["lang", "source"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "source", "n"])
        )

    def final(t: pa.Table) -> pa.Table:
        return (
            pa.TableGroupBy(t, ["lang", "source"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "source", "n"])
        )

    partials = table(sf_dir, "documents", ["lang", "source"]).map_batches(
        partial, batch_format="pyarrow"
    )
    return combine_small(partials, final)


# --------------------------------------------------------------------------
# A1/A2 + §2.8 math — pricing summary (TPC-H Q1 shape over lineitem)
@register(
    "pricing_summary",
    # money is summed as integer cents (exact, order-independent) so Ray's
    # and DuckDB's summation orders cannot produce differing value-hashes
    sql="""
    SELECT l_returnflag, l_linestatus,
           CAST(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS DOUBLE) / 100
             AS sum_qty,
           CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS DOUBLE) / 100
             AS sum_base_price,
           CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100) AS BIGINT))
                AS DOUBLE) / 100 AS sum_disc_price,
           ROUND(CAST(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS DOUBLE)
                 / 100 / count(*), 4) AS avg_qty,
           count(*) AS n
    FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
)
def pricing_summary(sf_dir: str):
    ds = table(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def to_cents(t: pa.Table) -> pa.Table:
        def c(arr):
            # DuckDB ROUND is half-away-from-zero; match it exactly
            return pc.cast(
                pc.round(
                    pc.multiply(arr, pa.scalar(100.0)),
                    round_mode="half_towards_infinity",
                ),
                pa.int64(),
            )

        disc = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty_c": c(t["l_quantity"]),
                "base_c": c(t["l_extendedprice"]),
                "disc_c": c(disc),
            }
        )

    def partial(t: pa.Table) -> pa.Table:
        # map-side combiner: collapse each batch to ≤6 rows before the
        # shuffle (the groupby then moves a handful of rows per block)
        return pa.TableGroupBy(t, ["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_c", "sum"), ("base_c", "sum"), ("disc_c", "sum"),
             ("qty_c", "count")]
        ).rename_columns(
            ["l_returnflag", "l_linestatus", "qty_c", "base_c", "disc_c", "n_part"]
        )

    partials = ds.map_batches(to_cents, batch_format="pyarrow").map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(t: pa.Table) -> pa.Table:
        # final combine: the partial stream is ≤6 rows per block at ANY
        # input scale (fixed key cardinality), so one local Arrow group_by
        # replaces Ray's sort-shuffle groupby (~2-4 s fixed cost saved)
        t = (
            pa.TableGroupBy(t, ["l_returnflag", "l_linestatus"])
            .aggregate(
                [("qty_c", "sum"), ("base_c", "sum"), ("disc_c", "sum"),
                 ("n_part", "sum")]
            )
            .rename_columns(
                ["l_returnflag", "l_linestatus", "qty_c", "base_c", "disc_c", "n"]
            )
        )
        qty = pc.divide(pc.cast(t["qty_c"], pa.float64()), pa.scalar(100.0))
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": qty,
                "sum_base_price": pc.divide(
                    pc.cast(t["base_c"], pa.float64()), pa.scalar(100.0)
                ),
                "sum_disc_price": pc.divide(
                    pc.cast(t["disc_c"], pa.float64()), pa.scalar(100.0)
                ),
                "avg_qty": pc.round(
                    pc.divide(qty, pc.cast(t["n"], pa.float64())), ndigits=4
                ),
                "n": t["n"],
            }
        )

    return combine_small(partials, finish)


# --------------------------------------------------------------------------
# J-family + A + sort/limit — top revenue orders (hash join, TPC-H Q3 shape)
@register(
    "top_revenue_orders",
    sql="""
    SELECT o_orderkey, revenue, o_orderpriority FROM (
      SELECT o_orderkey, o_orderpriority,
             CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                           AS BIGINT)) AS DOUBLE) / 100 AS revenue
      FROM orders JOIN lineitem ON l_orderkey = o_orderkey
      GROUP BY o_orderkey, o_orderpriority)
    ORDER BY revenue DESC, o_orderkey LIMIT 10
    """,
)
def top_revenue_orders(sf_dir: str):
    li = table(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def disc(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "rev_c": pc.cast(
                    pc.round(
                        pc.multiply(rev, pa.scalar(100.0)),
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ),
            }
        )

    # partial per-order pre-aggregation happens inside Ray's hash aggregate;
    # then LIMIT is pushed below the join: only the top-10 aggregate rows
    # are joined (broadcast lookup) — never a full-table shuffle join
    def partial(t: pa.Table) -> pa.Table:
        # lineitem rows of one order are adjacent → a per-batch combine
        # shrinks the shuffle ~4x before the global aggregate
        return pa.TableGroupBy(t, "l_orderkey").aggregate(
            [("rev_c", "sum")]
        ).rename_columns(["l_orderkey", "rev_c"])

    partials = li.map_batches(disc, batch_format="pyarrow").map_batches(
        partial, batch_format="pyarrow"
    )

    # near-unique l_orderkey → bucket-sharded combine
    # (common.bucketed_group_agg), then top-k WITHOUT a global sort: each
    # bucket keeps its local top-10, the ≤10×buckets survivors merge on
    # the driver
    def bucket_top(g: pd.DataFrame) -> pd.DataFrame:
        rev = g.groupby("l_orderkey", as_index=False).agg(
            rev_c=("rev_c", "sum")
        )
        return rev.sort_values(
            ["rev_c", "l_orderkey"], ascending=[False, True]
        ).head(10)

    top = (
        bucketed_group_agg(partials, ["l_orderkey"], bucket_top)
        .to_pandas()
        .sort_values(["rev_c", "l_orderkey"], ascending=[False, True])
        .head(10)
    )
    keys = set(top["l_orderkey"])
    pri = (
        table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
        .filter(expr=f"o_orderkey in {sorted(keys)}")
        .to_pandas()
    )
    out = top.merge(pri, left_on="l_orderkey", right_on="o_orderkey")
    out["revenue"] = out["rev_c"].astype("float64") / 100.0
    return (
        out[["o_orderkey", "revenue", "o_orderpriority"]]
        .sort_values(["revenue", "o_orderkey"], ascending=[False, True])
        .reset_index(drop=True)
    )


# --------------------------------------------------------------------------
# J1/J5 — broadcast dimension join chain (customer⋈nation⋈region)
@register(
    "customers_per_region",
    sql="""
    SELECT r_name, count(*) AS n
    FROM customer JOIN nation ON c_nationkey = n_nationkey
                  JOIN region ON n_regionkey = r_regionkey
    GROUP BY r_name
    """,
)
def customers_per_region(sf_dir: str):
    # dimension tables are tiny → broadcast once via ray.put, look up inside
    # map_batches (no shuffle), the J1 includes-list pattern at scale
    nation = table(sf_dir, "nation").to_pandas()
    region = table(sf_dir, "region").to_pandas()
    nk_to_region = dict(
        zip(
            nation["n_nationkey"],
            nation["n_regionkey"].map(dict(zip(region["r_regionkey"], region["r_name"]))),
        )
    )
    ref = ray.put(nk_to_region)

    # task pool: broadcast lookup fetched per batch (local plasma lookup)
    def attach_region(t: pa.Table, *, ref) -> pa.Table:
        lookup = ray.get(ref)
        vals = [lookup[k] for k in t["c_nationkey"].to_pylist()]
        return t.append_column("r_name", pa.array(vals, pa.string()))

    return (
        table(sf_dir, "customer", ["c_nationkey"])
        .map_batches(attach_region, fn_kwargs={"ref": ref},
                     batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(Count(alias_name="n"))
    )


# --------------------------------------------------------------------------
# A4 — argmax with margin (Stance_Detection.py:164-199: keep only if
# max - runner_up >= margin, else undetected)
@register(
    "top_supplier_margin",
    sql="""
    WITH r AS (
      SELECT s_nationkey, s_name, s_acctbal,
             ROW_NUMBER() OVER (PARTITION BY s_nationkey
                                ORDER BY s_acctbal DESC, s_name) AS rn
      FROM supplier)
    SELECT a.s_nationkey AS nationkey,
           CASE WHEN b.s_acctbal IS NULL OR a.s_acctbal - b.s_acctbal >= 100.0
                THEN a.s_name ELSE 'undetected' END AS top_supplier
    FROM r a LEFT JOIN r b ON a.s_nationkey = b.s_nationkey AND b.rn = 2
    WHERE a.rn = 1
    """,
)
def top_supplier_margin(sf_dir: str):
    sup = table(sf_dir, "supplier", ["s_nationkey", "s_name", "s_acctbal"])

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["s_acctbal", "s_name"], ascending=[False, True])
        top = g.iloc[0]
        name = top["s_name"]
        if len(g) > 1 and top["s_acctbal"] - g.iloc[1]["s_acctbal"] < 100.0:
            name = "undetected"
        return pd.DataFrame(
            {"nationkey": [top["s_nationkey"]], "top_supplier": [name]}
        )

    return sup.groupby("s_nationkey").map_groups(pick, batch_format="pandas")


# --------------------------------------------------------------------------
# A7 — histogram aggregate
@register(
    "orders_priority_histogram",
    sql="SELECT o_orderpriority, count(*) AS n FROM orders GROUP BY o_orderpriority",
)
def orders_priority_histogram(sf_dir: str):
    return (
        table(sf_dir, "orders", ["o_orderpriority"])
        .groupby("o_orderpriority")
        .aggregate(Count(alias_name="n"))
    )


# --------------------------------------------------------------------------
def _no_events(**types: pa.DataType) -> pa.Table:
    """The typed empty result of an events op over an events table with no
    rows. Ray 2.49 skips a map_batches UDF on an empty block, so no partial
    column exists for a final to build it from, and the ``to_pandas`` of an
    empty Dataset has no columns at all."""
    return pa.schema(list(types.items())).empty_table()


# --------------------------------------------------------------------------
# A8/M15 — event-time tumbling window counts (minute truncation,
# TemporalAnalysis.py:7-13 + Visualization.py:87-91)
@register(
    "events_per_minute",
    sql="""
    SELECT date_trunc('minute', ts) AS minute, event_type, count(*) AS n
    FROM events GROUP BY 1, 2
    """,
)
def events_per_minute(sf_dir: str):
    if not table_num_rows(sf_dir, "events"):
        return _no_events(minute=pa.timestamp("us"), event_type=pa.string(),
                          n=pa.int64())
    ds = table(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        # map-side combine: events are roughly time-ordered, so one block
        # covers few distinct minutes — the shuffle moves ≤ |minutes × types|
        # rows per block instead of every event row
        tm = pa.table(
            {
                "minute": pc.floor_temporal(t["ts"], unit="minute"),
                "event_type": t["event_type"],
            }
        )
        return (
            pa.TableGroupBy(tm, ["minute", "event_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["minute", "event_type", "n"])
        )

    # (minute × type) cardinality grows unboundedly with the time range →
    # bucket-sharded final combine (common.bucketed_group_agg)
    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["minute", "event_type"],
        lambda g: g.groupby(["minute", "event_type"], as_index=False).agg(
            n=("n", "sum")
        ),
    )


# --------------------------------------------------------------------------
# A8 variant — tumbling 1h window per user (streaming-shaped workload §2.9)
@register(
    "hourly_user_windows",
    sql="""
    SELECT user_id, date_trunc('hour', ts) AS window_start,
           count(*) AS n,
           CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100
             AS total_value
    FROM events GROUP BY 1, 2
    """,
)
def hourly_user_windows(sf_dir: str):
    if not table_num_rows(sf_dir, "events"):
        return _no_events(user_id=pa.int64(), window_start=pa.timestamp("us"),
                          n=pa.int64(), total_value=pa.float64())
    ds = table(sf_dir, "events", ["user_id", "ts", "value"])

    def trunc(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "window_start": pc.floor_temporal(t["ts"], unit="hour"),
                "value_c": pc.cast(
                    pc.round(
                        pc.multiply(t["value"], pa.scalar(100.0)),
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ),
            }
        )

    # (user_id, hour) is near-unique at scale → bucket-sharded combine
    # instead of Dataset.aggregate's per-key Python reduce (common.py)
    def per_window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["user_id", "window_start"], as_index=False).agg(
            n=("value_c", "size"), total_value=("value_c", "sum")
        )
        g["total_value"] = g["total_value"].astype("float64") / 100.0
        return g

    return bucketed_group_agg(
        ds.map_batches(trunc, batch_format="pyarrow"),
        ["user_id", "window_start"],
        per_window,
    )


# --------------------------------------------------------------------------
# M13 — value binning (get_age_interval decade buckets, Functions.py:52-53)
@register(
    "value_decade_histogram",
    sql="""
    SELECT CAST(FLOOR(value / 10) * 10 AS BIGINT) AS bin, count(*) AS n
    FROM events GROUP BY 1
    """,
)
def value_decade_histogram(sf_dir: str):
    ds = table(sf_dir, "events", ["value"])

    def binify(t: pa.Table) -> pa.Table:
        b = pc.cast(
            pc.multiply(pc.floor(pc.divide(t["value"], 10.0)), 10.0), pa.int64()
        )
        return pa.table({"bin": b})

    return ds.map_batches(binify, batch_format="pyarrow").groupby("bin").aggregate(
        Count(alias_name="n")
    )


# --------------------------------------------------------------------------
# A2 — global counters / table-level stats
@register(
    "lineitem_global_stats",
    sql="""
    SELECT count(*) AS n,
           ROUND(SUM(l_quantity), 2) AS sum_qty,
           ROUND(AVG(l_extendedprice), 4) AS avg_price,
           min(l_shipdate) AS min_ship, max(l_shipdate) AS max_ship
    FROM lineitem
    """,
)
def lineitem_global_stats(sf_dir: str):
    ds = table(sf_dir, "lineitem", ["l_quantity", "l_extendedprice", "l_shipdate"])
    out = ds.aggregate(
        Count(alias_name="n"),
        Sum("l_quantity", alias_name="sum_qty"),
        Mean("l_extendedprice", alias_name="avg_price"),
        Min("l_shipdate", alias_name="min_ship"),
        Max("l_shipdate", alias_name="max_ship"),
    )
    out["sum_qty"] = round(out["sum_qty"], 2)
    out["avg_price"] = round(out["avg_price"], 4)
    return pd.DataFrame([out])


# --------------------------------------------------------------------------
# D1 — exact first-occurrence dedup (GenerateUserUseridDict.py:53-56):
# distinct by content, keeping the lowest doc_id, plus group size
@register(
    "exact_dedup_docs",
    sql="""
    SELECT CAST(min(doc_id) AS BIGINT) AS doc_id, count(*) AS n_dups
    FROM documents GROUP BY text
    """,
)
def exact_dedup_docs(sf_dir: str):
    ds = table(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        return (
            pa.TableGroupBy(t, "text")
            .aggregate([("doc_id", "min"), ([], "count_all")])
            .rename_columns(["text", "doc_id", "n_dups"])
        )

    # key = the full text, near-unique → bucket-sharded combine on the text
    # (common.bucketed_group_agg). Its bucket bound counts rows, and these
    # rows carry document text: one bucket can hold 2M texts.
    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["text"],
        lambda g: g.groupby("text", as_index=False).agg(
            doc_id=("doc_id", "min"), n_dups=("n_dups", "sum")
        )[["doc_id", "n_dups"]],
    )


# --------------------------------------------------------------------------
# J7 — anti-semi-join (master-user guard, Stance_Detection.py:57-61):
# customers with no URGENT orders, via broadcast key set + filter in map_batches
@register(
    "customers_without_urgent_orders",
    sql="""
    SELECT c_custkey FROM customer
    WHERE c_custkey NOT IN
      (SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
    """,
)
def customers_without_urgent_orders(sf_dir: str):
    # the small side (distinct urgent-order custkeys) is broadcast once; at
    # 100 TB scale swap for a bucketed hash anti-join keyed on custkey
    import pyarrow.dataset  # noqa: F401  (expression pushdown)

    urgent = table(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).filter(
        expr="o_orderpriority == '1-URGENT'"
    )
    custkeys = urgent.unique("o_custkey")
    ref = ray.put(pa.array(custkeys))

    # task pool: the broadcast value_set is a local plasma lookup per batch
    def anti_filter(t: pa.Table, *, ref) -> pa.Table:
        mask = pc.invert(pc.is_in(t["c_custkey"], value_set=ray.get(ref)))
        return t.filter(mask)

    return (
        table(sf_dir, "customer", ["c_custkey"])
        .map_batches(anti_filter, fn_kwargs={"ref": ref},
                     batch_format="pyarrow")
    )


# --------------------------------------------------------------------------
# A10 — per-user first-wins profile + aggregates
# (User Based Dashboard.py:147-153, Visualization.py:99-102)
@register(
    "user_event_profile",
    sql="""
    SELECT user_id, count(*) AS n_events, min(ts) AS first_ts,
           CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100
             AS total_value,
           CAST(count(DISTINCT event_type) AS BIGINT) AS n_types
    FROM events GROUP BY user_id
    """,
)
def user_event_profile(sf_dir: str):
    if not table_num_rows(sf_dir, "events"):
        return _no_events(user_id=pa.int64(), n_events=pa.int64(),
                          first_ts=pa.timestamp("us"),
                          total_value=pa.float64(), n_types=pa.int64())
    ds = table(sf_dir, "events", ["user_id", "ts", "value", "event_type"])

    # partition by user bucket, aggregate every user of the bucket in ONE
    # pandas groupby (C-speed) — not one Python call per user
    def prof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(cents=(g["value"] * 100).round().astype("int64"))
        out = g.groupby("user_id", as_index=False).agg(
            n_events=("user_id", "size"),
            first_ts=("ts", "min"),
            cents=("cents", "sum"),
            n_types=("event_type", "nunique"),
        )
        out["total_value"] = out.pop("cents").astype("float64") / 100
        out["n_types"] = out["n_types"].astype("int64")
        return out[["user_id", "n_events", "first_ts", "total_value", "n_types"]]

    return bucketed_group_agg(ds, ["user_id"], prof_bucket)


# --------------------------------------------------------------------------
# A5/A6 — weighted support ratio (Page__Location_Based_Stance_Detection.py:34-93):
# stance ≙ o_orderpriority, location ≙ customer nation, electorate ≙ nation's
# customer count; nations with < 5 orders are skipped (state_tresh analog)
@register(
    "weighted_priority_support",
    sql="""
    WITH electorate AS (
      SELECT c_nationkey AS nk, count(*) AS e FROM customer GROUP BY 1),
    votes AS (
      SELECT c_nationkey AS nk, o_orderpriority AS pri, count(*) AS v
      FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY 1, 2),
    totals AS (
      SELECT nk, SUM(v) AS tot FROM votes GROUP BY 1),
    joined AS (
      SELECT pri, v * e AS num, tot * e AS den
      FROM votes JOIN totals USING (nk) JOIN electorate USING (nk)
      WHERE tot >= 5)
    SELECT pri AS o_orderpriority,
           ROUND(CAST(SUM(num) AS DOUBLE) / CAST(SUM(den) AS DOUBLE), 6) AS support
    FROM joined GROUP BY pri
    """,
)
def weighted_priority_support(sf_dir: str):
    cust = table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = table(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    joined = common.join(orders, cust, "inner", ("o_custkey",),
                         ("c_custkey",))
    votes = (
        joined.groupby(["c_nationkey", "o_orderpriority"])
        .aggregate(Count(alias_name="v"))
        .to_pandas()
    )  # ≤ nations × priorities rows — tiny
    electorate = (
        cust.groupby("c_nationkey").aggregate(Count(alias_name="e")).to_pandas()
    )
    totals = votes.groupby("c_nationkey")["v"].sum().rename("tot").reset_index()
    df = votes.merge(totals, on="c_nationkey").merge(electorate, on="c_nationkey")
    df = df[df["tot"] >= 5]
    # Σ v·e / Σ tot·e — integer sums, one float division → bit-identical
    df["num"] = (df["v"] * df["e"]).astype("int64")
    df["den"] = (df["tot"] * df["e"]).astype("int64")
    out = (
        df.groupby("o_orderpriority")
        .apply(lambda g: round(float(g["num"].sum()) / float(g["den"].sum()), 6),
               include_groups=False)
        .rename("support")
        .reset_index()
    )
    return out


# --------------------------------------------------------------------------
# TPC-H Q6 shape — predicate-pushdown filter + global sum (the simplest
# "prune at the read" demonstration: only 3 columns leave storage and the
# row filter is applied per batch, vectorized)
@register(
    "forecast_revenue_change",
    sql="""
    SELECT CAST(SUM(CAST(ROUND(l_extendedprice * l_discount * 100) AS BIGINT))
                AS DOUBLE) / 100 AS revenue,
           count(*) AS n
    FROM lineitem
    WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
    """,
)
def forecast_revenue_change(sf_dir: str):
    ds = table(sf_dir, "lineitem", ["l_extendedprice", "l_discount", "l_quantity"])

    def fsum(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(t["l_discount"], pa.scalar(0.05)),
                pc.less_equal(t["l_discount"], pa.scalar(0.07)),
            ),
            pc.less(t["l_quantity"], pa.scalar(24.0)),
        )
        f = t.filter(mask)
        rev_c = pc.cast(
            pc.round(
                pc.multiply(
                    pc.multiply(f["l_extendedprice"], f["l_discount"]),
                    pa.scalar(100.0),
                ),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        # per-batch partial: one row per batch reaches the global sum
        return pa.table(
            {
                "rev_c": pa.array([pc.sum(rev_c).as_py() or 0], pa.int64()),
                "n": pa.array([f.num_rows], pa.int64()),
            }
        )

    agg = ds.map_batches(fsum, batch_format="pyarrow").aggregate(
        Sum("rev_c", alias_name="rev_c"), Sum("n", alias_name="n")
    )
    return pd.DataFrame(
        [{"revenue": (agg["rev_c"] or 0) / 100.0, "n": int(agg["n"] or 0)}]
    )


# --------------------------------------------------------------------------
# TPC-H Q5 shape — multi-table join chain (region→nation→customer→orders→
# lineitem): broadcast the small dimension chain, Dataset.join the facts
@register(
    "regional_revenue",
    sql="""
    SELECT r_name,
           CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                         AS BIGINT)) AS DOUBLE) / 100 AS revenue
    FROM region
      JOIN nation ON n_regionkey = r_regionkey
      JOIN customer ON c_nationkey = n_nationkey
      JOIN orders ON o_custkey = c_custkey
      JOIN lineitem ON l_orderkey = o_orderkey
    GROUP BY r_name
    """,
)
def regional_revenue(sf_dir: str):
    # dimension chain (region⋈nation⋈customer) is small → broadcast dict
    # custkey→region_name; lineitem⋈orders is the large-large hash join
    nation = table(sf_dir, "nation").to_pandas()
    region = table(sf_dir, "region").to_pandas()
    cust = table(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    n2r = dict(
        zip(
            nation["n_nationkey"],
            nation["n_regionkey"].map(dict(zip(region["r_regionkey"], region["r_name"]))),
        )
    )
    # broadcast as SORTED ARRAYS (custkey → region-code) + the tiny name
    # list, so the per-batch lookup is one vectorized searchsorted instead
    # of a per-row dict probe
    import numpy as np

    r_names = sorted(set(region["r_name"]))
    name_code = {nm: i for i, nm in enumerate(r_names)}
    cust_sorted = cust.sort_values("c_custkey")
    ck = cust_sorted["c_custkey"].to_numpy(dtype=np.int64)
    codes = (
        cust_sorted["c_nationkey"].map(n2r).map(name_code).to_numpy(dtype=np.int8)
    )
    ref = ray.put((ck, codes, r_names))

    orders = table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    li = table(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev_cents(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "rev_c": pc.cast(
                    pc.round(pc.multiply(rev, pa.scalar(100.0)),
                             round_mode="half_towards_infinity"),
                    pa.int64(),
                ),
            }
        )

    joined = common.join(
        li.map_batches(rev_cents, batch_format="pyarrow"), orders, "inner",
        ("l_orderkey",), ("o_orderkey",),
    )

    def region_partial(t: pa.Table, *, ref) -> pa.Table:
        # vectorized custkey→region-code lookup + per-block combine: each
        # join-output block collapses to ≤|regions| rows, so the join
        # output never crosses another shuffle (fixed-cardinality key →
        # combine_small is exact at any scale)
        import numpy as np

        ck, codes, names = ray.get(ref)
        code = codes[np.searchsorted(ck, t["o_custkey"].to_numpy(zero_copy_only=False))]
        rev = t["rev_c"].to_numpy(zero_copy_only=False)
        sums = np.zeros(len(names), dtype=np.int64)
        for r in range(len(names)):  # |regions| passes, each vectorized
            sums[r] = rev[code == r].sum()
        hit = sums != 0
        return pa.table(
            {
                "code": pa.array(np.flatnonzero(hit), pa.int32()),
                "rev_c": pa.array(sums[hit]),
            }
        )

    partials = joined.map_batches(
        region_partial, fn_kwargs={"ref": ref}, batch_format="pyarrow"
    )

    def finish(t: pa.Table) -> pa.Table:
        agg = (
            pa.TableGroupBy(t, "code")
            .aggregate([("rev_c", "sum")])
            .rename_columns(["code", "rev_c"])
        )
        return pa.table(
            {
                "r_name": pa.array(
                    [r_names[c] for c in agg["code"].to_pylist()], pa.string()
                ),
                "revenue": pc.divide(
                    pc.cast(agg["rev_c"], pa.float64()), pa.scalar(100.0)
                ),
            }
        )

    return combine_small(partials, finish)


# --------------------------------------------------------------------------
# multi-hop distinct semi-join: customers with at least one RETURNED
# lineitem, counted per nation. Each hop projects + dedups BEFORE the next
# join, so the stream shrinks monotonically: lineitem(R) -> distinct
# orderkeys -> orders semi-join -> distinct custkeys -> customer semi-join
# -> distinct (custkey, nationkey) -> fixed-cardinality nation count. The
# two big hops are broadcast value-set filters while the key set fits
# (same contract as customers_without_urgent_orders); nation names (25
# rows) are a broadcast dict.
@register(
    "customers_with_returns_by_nation",
    sql="""
    SELECT n.n_name AS nation,
           CAST(count(DISTINCT c.c_custkey) AS BIGINT) AS n_customers
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    WHERE l.l_returnflag = 'R'
    GROUP BY n.n_name
    """,
)
def customers_with_returns_by_nation(sf_dir: str):
    import pyarrow.dataset  # noqa: F401  (expression pushdown)

    ret_orders = (
        table(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])
        .filter(expr="l_returnflag == 'R'")
        .unique("l_orderkey")
    )
    okeys_ref = ray.put(pa.array(ret_orders))

    def semi_orders(t: pa.Table, *, ref) -> pa.Table:
        return t.filter(pc.is_in(t["o_orderkey"], value_set=ray.get(ref)))

    custkeys = (
        table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        .map_batches(semi_orders, fn_kwargs={"ref": okeys_ref},
                     batch_format="pyarrow")
        .unique("o_custkey")
    )
    ckeys_ref = ray.put(pa.array(custkeys))

    def semi_customer(t: pa.Table, *, ref) -> pa.Table:
        return t.filter(pc.is_in(t["c_custkey"], value_set=ray.get(ref)))

    # nation is 25 rows — a driver-local dict for the final combine
    nation_names = {
        r["n_nationkey"]: r["n_name"]
        for r in table(sf_dir, "nation").take_all()
    }

    # custkeys are unique per customer row, so per-nation distinct counts
    # can be partial-summed: each customer contributes exactly once
    matched = (
        table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        .map_batches(semi_customer, fn_kwargs={"ref": ckeys_ref},
                     batch_format="pyarrow")
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pa.TableGroupBy(t, "c_nationkey")
            .aggregate([([], "count_all")])
            .rename_columns(["c_nationkey", "n_customers"])
        )

    def final(t: pa.Table) -> pa.Table:
        tot = (
            pa.TableGroupBy(t, "c_nationkey")
            .aggregate([("n_customers", "sum")])
            .rename_columns(["c_nationkey", "n_customers"])
        )
        nation = pa.array(
            [nation_names[k] for k in tot["c_nationkey"].to_pylist()],
            pa.string(),
        )
        return pa.table(
            {"nation": nation,
             "n_customers": pc.cast(tot["n_customers"], pa.int64())}
        )

    partials = matched.map_batches(partial, batch_format="pyarrow")
    return final(combine_small(partials, lambda t: t))


# --------------------------------------------------------------------------
# ROLLUP aggregate (multi-level grouped totals in one pass): revenue and
# order counts at (region, nation), per-region subtotal, and grand total —
# the reference's dashboard "counts at every drill level" shape
# (Dashboard_scripts/ data prep) as ONE streamed pass. Money is summed as
# integer cents (exact — immune to summation-order float jitter), the
# per-block partial collapses the stream to ≤25 nation rows, and the
# rollup fold over those 25 rows happens on the driver. The orders→nation
# mapping attaches customer's nationkey (common.attach), which broadcasts
# below ROLLUP_BROADCAST_MAX (12 B/row) and hash-joins past it.

ROLLUP_BROADCAST_MAX = 50_000_000  # (custkey,nationkey) rows ≈ 12 B each


@register(
    "rollup_revenue",
    sql="""
    SELECT COALESCE(r.r_name, 'ALL') AS region,
           COALESCE(n.n_name, 'ALL') AS nation,
           CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS DOUBLE)
             / 100 AS revenue,
           CAST(count(*) AS BIGINT) AS n_orders
    FROM orders o
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
    GROUP BY ROLLUP (r.r_name, n.n_name)
    """,
)
def rollup_revenue(sf_dir: str):
    import numpy as np

    orders = table(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        """Collapse one block to ≤ n_nations rows of exact partial sums."""
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = pc.cast(
            pc.round(
                pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        order = np.argsort(nk, kind="stable")
        nk_s, c_s = nk[order], cents[order]
        cuts = np.flatnonzero(np.diff(nk_s)) + 1
        starts = np.concatenate([[0], cuts])
        csum = np.concatenate([[0], np.cumsum(c_s)])
        ends = np.concatenate([cuts, [len(nk_s)]])
        return pa.table(
            {
                "nationkey": pa.array(nk_s[starts], pa.int64()),
                "cents": pa.array(csum[ends] - csum[starts], pa.int64()),
                "n_orders": pa.array(ends - starts, pa.int64()),
            }
        )

    partials = common.attach(
        orders, ("customer", sf_dir), "c_custkey", ["c_nationkey"],
        "o_custkey", op="rollup_revenue", bound=ROLLUP_BROADCAST_MAX,
    ).map_batches(partial, batch_format="pyarrow")

    # dimension names: tiny driver-side reads (launching a pipeline for
    # 25 + 5 rows costs more than the read)
    import pyarrow.dataset as pads

    nat = pads.dataset(f"{sf_dir}/nation.parquet").to_table().to_pandas()
    reg = pads.dataset(f"{sf_dir}/region.parquet").to_table().to_pandas()
    nat = nat.merge(
        reg, left_on="n_regionkey", right_on="r_regionkey", how="left"
    ).set_index("n_nationkey")

    def fold(t: pa.Table) -> pa.Table:
        df = t.to_pandas().groupby("nationkey", as_index=False).sum()
        df["region"] = df["nationkey"].map(nat["r_name"])
        df["nation"] = df["nationkey"].map(nat["n_name"])
        levels = [df[["region", "nation", "cents", "n_orders"]]]
        by_reg = df.groupby("region", as_index=False)[["cents", "n_orders"]].sum()
        by_reg["nation"] = "ALL"
        levels.append(by_reg[["region", "nation", "cents", "n_orders"]])
        total = pd.DataFrame(
            {
                "region": ["ALL"],
                "nation": ["ALL"],
                "cents": [df["cents"].sum()],
                "n_orders": [df["n_orders"].sum()],
            }
        )
        levels.append(total)
        out = pd.concat(levels, ignore_index=True)
        return pa.table(
            {
                "region": pa.array(out["region"]),
                "nation": pa.array(out["nation"]),
                "revenue": pa.array(out["cents"].to_numpy(np.float64) / 100.0),
                "n_orders": pa.array(out["n_orders"].to_numpy(np.int64)),
            }
        )

    return fold(combine_small(partials, lambda t: t))


# --------------------------------------------------------------------------
# Windowed NTILE bucketing: quartile (ntile(4)) of account balance within
# each nation, with per-bucket count/avg/min/max — the rank-window family
# (reference per-group percentile views). Exact NTILE needs each
# partition's global rank order, so the implementation is
# groupby(partition).map_groups with an in-group vectorized sort; the
# partition key (nation, ≤few hundred) bounds group size at customer/25 —
# at web scale swap the partition for the quantile-boundary path
# (event_value_quantiles) if a single group outgrows a worker.


@register(
    "ntile_customer_quartiles",
    sql="""
    WITH t AS (
      SELECT n.n_name, c.c_acctbal,
             ntile(4) OVER (PARTITION BY n.n_name
                            ORDER BY c.c_acctbal, c.c_custkey) AS q
      FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey)
    SELECT n_name, CAST(q AS BIGINT) AS quartile,
           CAST(count(*) AS BIGINT) AS n,
           ROUND(avg(c_acctbal), 6) AS avg_bal,
           ROUND(min(c_acctbal), 6) AS min_bal,
           ROUND(max(c_acctbal), 6) AS max_bal
    FROM t GROUP BY n_name, q
    """,
)
def ntile_customer_quartiles(sf_dir: str):
    import numpy as np

    import pyarrow.dataset as pads

    from .common import round_half_away

    cust = table(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    nat = (
        pads.dataset(f"{sf_dir}/nation.parquet")
        .to_table(columns=["n_nationkey", "n_name"])
        .to_pandas()
    )
    names = dict(zip(nat["n_nationkey"], nat["n_name"]))  # ≤25 entries

    def quartiles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["c_acctbal", "c_custkey"], kind="stable")
        n = len(g)
        base, rem = divmod(n, 4)
        sizes = [base + (1 if i < rem else 0) for i in range(4)]
        q = np.repeat(np.arange(1, 5), sizes)
        bal = g["c_acctbal"].to_numpy()
        rows = []
        for k in range(1, 5):
            b = bal[q == k]
            if len(b) == 0:  # group smaller than 4 rows
                continue
            rows.append((k, len(b), b.mean(), b.min(), b.max()))
        out = pd.DataFrame(
            rows, columns=["quartile", "n", "avg_bal", "min_bal", "max_bal"]
        )
        out.insert(0, "n_name", names[int(g["c_nationkey"].iloc[0])])
        for c in ("avg_bal", "min_bal", "max_bal"):
            out[c] = round_half_away(out[c].to_numpy(), 6)
        return out

    return cust.groupby("c_nationkey").map_groups(
        quartiles, batch_format="pandas"
    )


# --------------------------------------------------------------------------
# TPC-H Q5-shaped star join: revenue from lineitems whose customer and
# supplier sit in the SAME nation of a fixed region — the multi-join
# planning exercise. ONE large-large exchange (lineitem ⋈ orders on
# orderkey, partitions sized to the cluster); every dimension side
# (customer→nation, supplier→nation, region's nation set) broadcasts as
# sorted numpy arrays, the filters run vectorized inside the post-join
# map_batches, and revenue is integer cents so summation order can't
# move the hash. Region dims (nation/region) are driver-side tiny reads.

Q5_REGION = "ASIA"


@register(
    "local_supplier_revenue",
    sql=f"""
    SELECT n.n_name AS nation,
           CAST(SUM(CAST(ROUND(l.l_extendedprice * (1 - l.l_discount) * 100)
                         AS BIGINT)) AS DOUBLE) / 100 AS revenue,
           CAST(count(*) AS BIGINT) AS n_items
    FROM lineitem l
    JOIN orders o ON l.l_orderkey = o.o_orderkey
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN supplier s ON l.l_suppkey = s.s_suppkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
                 AND s.s_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
    WHERE r.r_name = '{Q5_REGION}'
    GROUP BY n.n_name
    """,
)
def local_supplier_revenue(sf_dir: str):
    import numpy as np
    import pyarrow.dataset as pads

    li = table(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    # the ONLY thing lineitem needs from orders is orderkey→custkey (16
    # B/row). Under the gate that broadcasts and the whole query becomes
    # one streamed pass with zero shuffles (measured 8.7-24.5 s through
    # Dataset.join at sf0.1 vs ~1-2 s broadcast).
    joined = common.attach(
        li, ("orders", sf_dir), "o_orderkey", ["o_custkey"], "l_orderkey",
        op="local_supplier_revenue", bound=SMALL_COMBINE_ROWS,
    )

    cust = (
        pads.dataset(f"{sf_dir}/customer.parquet")
        .to_table(columns=["c_custkey", "c_nationkey"])
        .to_pandas()
        .sort_values("c_custkey")
    )
    supp = (
        pads.dataset(f"{sf_dir}/supplier.parquet")
        .to_table(columns=["s_suppkey", "s_nationkey"])
        .to_pandas()
        .sort_values("s_suppkey")
    )
    nat = pads.dataset(f"{sf_dir}/nation.parquet").to_table().to_pandas()
    reg = pads.dataset(f"{sf_dir}/region.parquet").to_table().to_pandas()
    region_key = int(reg.loc[reg["r_name"] == Q5_REGION, "r_regionkey"].iloc[0])
    in_region = nat[nat["n_regionkey"] == region_key]
    names = dict(zip(in_region["n_nationkey"], in_region["n_name"]))
    region_nations = np.sort(in_region["n_nationkey"].to_numpy(np.int64))
    ref = ray.put(
        (
            cust["c_custkey"].to_numpy(np.int64),
            cust["c_nationkey"].to_numpy(np.int64),
            supp["s_suppkey"].to_numpy(np.int64),
            supp["s_nationkey"].to_numpy(np.int64),
            region_nations,
        )
    )

    def partial(t: pa.Table, *, ref) -> pa.Table:
        ck, cn, sk, sn, rn = ray.get(ref)
        custk = t["o_custkey"].to_numpy(zero_copy_only=False)
        suppk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        c_nat = cn[np.searchsorted(ck, custk)]  # FK: always present
        s_nat = sn[np.searchsorted(sk, suppk)]
        keep = (c_nat == s_nat) & isin_sorted(rn, c_nat)
        if not keep.any():
            return pa.table(
                {
                    "nationkey": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                    "n_items": pa.array([], pa.int64()),
                }
            )
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = t["l_discount"].to_numpy(zero_copy_only=False)[keep]
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        nk = c_nat[keep]
        order = np.argsort(nk, kind="stable")
        nk_s, c_s = nk[order], cents[order]
        cuts = np.flatnonzero(np.diff(nk_s)) + 1
        starts = np.concatenate([[0], cuts])
        ends = np.concatenate([cuts, [len(nk_s)]])
        csum = np.concatenate([[0], np.cumsum(c_s)])
        return pa.table(
            {
                "nationkey": pa.array(nk_s[starts], pa.int64()),
                "cents": pa.array(csum[ends] - csum[starts], pa.int64()),
                "n_items": pa.array(ends - starts, pa.int64()),
            }
        )

    partials = joined.map_batches(
        partial, fn_kwargs={"ref": ref}, batch_format="pyarrow"
    )

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas().groupby("nationkey", as_index=False).sum()
        import numpy as _np

        return pa.table(
            {
                "nation": pa.array([names[k] for k in df["nationkey"]]),
                "revenue": pa.array(
                    df["cents"].to_numpy(_np.float64) / 100.0
                ),
                "n_items": pa.array(df["n_items"].to_numpy(_np.int64)),
            }
        )

    return finish(combine_small(partials, lambda t: t))


# --------------------------------------------------------------------------
# Relational division ("customers ALL of whose orders are urgent/high"):
# per-key universal quantification as counting — each block collapses to
# (custkey, n_orders, n_priority) partials, one groupby-sum, keep rows
# where the two counts agree. No anti-join, no set materialization.


@register(
    "all_priority_customers",
    sql="""
    SELECT o_custkey AS custkey, CAST(count(*) AS BIGINT) AS n_orders
    FROM orders
    GROUP BY o_custkey
    HAVING count(*) = count(*) FILTER (
      o_orderpriority IN ('1-URGENT', '2-HIGH'))
    """,
)
def all_priority_customers(sf_dir: str):
    ds = table(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        pri = pc.is_in(
            t["o_orderpriority"],
            value_set=pa.array(["1-URGENT", "2-HIGH"]),
        )
        tmp = pa.table(
            {
                "custkey": t["o_custkey"],
                "hit": pc.cast(pri, pa.int64()),
            }
        )
        return (
            pa.TableGroupBy(tmp, "custkey")
            .aggregate([([], "count_all"), ("hit", "sum")])
            .rename_columns(["custkey", "n_orders", "n_hit"])
        )

    # custkey is near-unique after the per-block partial → bucket-sharded
    # combine (common.bucketed_group_agg) instead of a per-key aggregate
    def finish(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("custkey", as_index=False).agg(
            n_orders=("n_orders", "sum"), n_hit=("n_hit", "sum")
        )
        out = agg[agg["n_orders"] == agg["n_hit"]]
        return out[["custkey", "n_orders"]].astype({"n_orders": "int64"})

    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"), ["custkey"], finish
    )


# --------------------------------------------------------------------------
# INTERVAL (range) JOIN — the non-equi join Ray Data has no native
# operator for: each part defines a price interval
# [p_retailprice - 850, p_retailprice - 850 + 4·p_size) and the query
# counts/sums the events whose value falls inside it (intervals overlap,
# so one event can hit many parts — a true range join, not binning).
#
# Shape: the interval side is the SMALL side by construction (a range
# join's build side must fit a broadcast the same way a hash join's
# does) — ship (lo, hi, partkey) once via ray.put; each event batch then
# answers ALL intervals at once by sorting its values and taking
# searchsorted(hi) - searchsorted(lo) (counts) and prefix-sum diffs
# (sums). Per-block partials are exactly n_parts fixed-width rows, so
# the final combine is bounded by broadcast-size × blocks — the same
# budget the broadcast itself already set. No shuffle at any scale.

_RANGE_JOIN_SQL = """
WITH iv AS (
  SELECT p_partkey, p_retailprice - 850 AS lo,
         p_retailprice - 850 + 4 * p_size AS hi
  FROM part)
SELECT iv.p_partkey,
       CAST(count(e.value) AS BIGINT) AS n_events,
       round(coalesce(sum(e.value), 0), 2) AS sum_value
FROM iv LEFT JOIN events e ON e.value >= iv.lo AND e.value < iv.hi
GROUP BY iv.p_partkey
"""


@register("part_price_range_join", sql=_RANGE_JOIN_SQL)
def part_price_range_join(sf_dir: str):
    import numpy as np

    from .common import round_half_away

    p = table(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])
    pdf = p.to_pandas()  # dimension table — the broadcastable build side
    keys = pdf["p_partkey"].to_numpy(np.int64)
    lo = pdf["p_retailprice"].to_numpy(np.float64) - 850.0
    hi = lo + 4.0 * pdf["p_size"].to_numpy(np.float64)
    iv_ref = ray.put((lo, hi))

    def partial(t: pa.Table) -> pa.Table:
        lo_, hi_ = ray.get(iv_ref)
        v = np.sort(t["value"].to_numpy(zero_copy_only=False)
                    .astype(np.float64))
        csum = np.concatenate([[0.0], np.cumsum(v)])
        i_lo = np.searchsorted(v, lo_, side="left")
        i_hi = np.searchsorted(v, hi_, side="left")
        return pa.table(
            {
                "idx": pa.array(np.arange(len(lo_), dtype=np.int64)),
                "n": pa.array(i_hi - i_lo),
                "s": pa.array(csum[i_hi] - csum[i_lo]),
            }
        )

    def combine(t: pa.Table) -> pa.Table:
        g = (t.to_pandas().groupby("idx")
             .agg(n=("n", "sum"), s=("s", "sum")))
        g = g.reindex(np.arange(len(keys)), fill_value=0)
        return pa.table(
            {
                "p_partkey": pa.array(keys),
                "n_events": pa.array(g["n"].to_numpy(np.int64)),
                "sum_value": pa.array(
                    round_half_away(g["s"].to_numpy(np.float64), 2)
                ),
            }
        )

    ev = table(sf_dir, "events", ["value"])
    return combine_small(ev.map_batches(partial, batch_format="pyarrow"),
                         combine)


# --------------------------------------------------------------------------
# SALTED two-phase distinct aggregation — the hot-key skew defense the
# scale notes elsewhere only describe. COUNT(DISTINCT v) per key cannot
# map-side-combine (partials are sets, not counts), so the naive shape
# shuffles every (key, v) row to ONE reducer per key — a single hot key
# (one user emitting 1% of 100 TB) serializes its reducer. Salting fixes
# it: phase 1 shuffles on (key, salt) with salt = hash(v) % K, so one
# key's rows spread over K reducers, AND the same value always lands in
# the same salt bucket — per-(key,salt) distinct counts are therefore
# disjoint and phase 2 just SUMS the ≤K small partials per key. Both
# phases are bucketed_group_agg exchanges of fixed-width hash rows.

_SALT_K = 16

_SALTED_DISTINCT_SQL = """
SELECT user_id, CAST(count(DISTINCT props) AS BIGINT) AS n_distinct_props
FROM events GROUP BY user_id
"""


@register("user_distinct_props_salted", sql=_SALTED_DISTINCT_SQL)
def user_distinct_props_salted(sf_dir: str):
    import numpy as np

    ds = table(sf_dir, "events", ["user_id", "props"])

    def add_salt(df: pd.DataFrame) -> pd.DataFrame:
        # hash the VALUE (not the row) so duplicate values collapse into
        # the same salt bucket — what makes per-salt distinct counts
        # disjoint; rows shrink to (user_id, v_hash, salt) before any
        # exchange
        vh = pd.util.hash_pandas_object(df["props"], index=False).to_numpy()
        return pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(),
                "v_hash": vh,
                "_salt": (vh % np.uint64(_SALT_K)).astype(np.int64),
            }
        )

    def salt_partial(g: pd.DataFrame) -> pd.DataFrame:
        nd = g.groupby("user_id")["v_hash"].nunique()
        return pd.DataFrame(
            {"user_id": nd.index.to_numpy(), "nd": nd.to_numpy(np.int64)}
        )

    partials = bucketed_group_agg(
        ds.map_batches(add_salt, batch_format="pandas"),
        ["user_id", "_salt"],
        salt_partial,
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("user_id")["nd"].sum()
        return pd.DataFrame(
            {
                "user_id": s.index.to_numpy(),
                "n_distinct_props": s.to_numpy(np.int64),
            }
        )

    out = bucketed_group_agg(partials, ["user_id"], merge)

    def cast_out(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": pc.cast(t["user_id"], pa.int64()),
                "n_distinct_props": pc.cast(t["n_distinct_props"], pa.int64()),
            }
        )

    return out.map_batches(cast_out, batch_format="pyarrow")


# --------------------------------------------------------------------------
# cohort retention: cohort = a customer's first-order year; count the
# distinct customers of each cohort ordering again `offset_years` later.
# Distributed shape: (custkey, year) rows shrink to ≤ one row per
# (customer, distinct year) inside a bucketed high-cardinality groupby
# (the customer key is dedup-style — ~1 group per customer), then the
# bounded (cohort_year × offset) matrix — TPC-H spans 7 order years, so
# ≤ 49 cells — collapses via per-block partial counts + one local combine.
@register(
    "customer_cohort_retention",
    sql="""
    WITH firsts AS (
      SELECT o_custkey, MIN(year(o_orderdate)) AS cohort_year
      FROM orders GROUP BY o_custkey
    )
    SELECT f.cohort_year,
           CAST(year(o.o_orderdate) - f.cohort_year AS BIGINT)
             AS offset_years,
           CAST(count(DISTINCT o.o_custkey) AS BIGINT) AS n_customers
    FROM orders o JOIN firsts f ON o.o_custkey = f.o_custkey
    GROUP BY 1, 2
    """,
)
def customer_cohort_retention(sf_dir: str):
    import numpy as np

    ds = table(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def to_years(t: pa.Table) -> pa.Table:
        # per-block (cust, year) dedup BEFORE the bucket exchange — a
        # customer's ~10 orders collapse to ≤ their distinct years, so
        # the shuffle moves years, not orders (re-deduped per bucket)
        tmp = pa.table(
            {
                "cust": t["o_custkey"],
                "yr": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
            }
        )
        return pa.TableGroupBy(tmp, ["cust", "yr"]).aggregate([])

    def cohort_offsets(g: pd.DataFrame) -> pd.DataFrame:
        # every row of a customer is in this bucket → min year is exact;
        # dedupe (cust, year) first so each customer counts once per year
        g = g.drop_duplicates(["cust", "yr"])
        cohort = g.groupby("cust")["yr"].transform("min").to_numpy()
        yr = g["yr"].to_numpy()
        return pd.DataFrame(
            {"cohort_year": cohort, "offset_years": yr - cohort}
        )

    cells = bucketed_group_agg(
        ds.map_batches(to_years, batch_format="pyarrow"),
        ["cust"],
        cohort_offsets,
    )

    def partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            t.select(["cohort_year", "offset_years"]),
            ["cohort_year", "offset_years"],
        ).aggregate([([], "count_all")])
        return g.rename_columns(["cohort_year", "offset_years", "n"])

    def finish(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby(["cohort_year", "offset_years"], as_index=False)["n"]
            .sum()
        )
        return pa.table(
            {
                "cohort_year": pa.array(
                    g["cohort_year"].to_numpy(np.int64)
                ),
                "offset_years": pa.array(
                    g["offset_years"].to_numpy(np.int64)
                ),
                "n_customers": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    return combine_small(
        cells.map_batches(partial, batch_format="pyarrow"), finish
    )


# --------------------------------------------------------------------------
# Pareto / ABC analysis: per-supplier revenue, cumulative revenue share in
# descending-revenue order, and the "in_top80" flag (suppliers that carry
# the first 80% of revenue). Revenue partials are per-block Arrow sums
# with fixed cardinality (suppliers — a bounded dimension, like every
# other supplier-keyed aggregate here); the cumulative pass runs on that
# bounded table as EXACT integer-cent arithmetic so the engine's numpy
# cumsum and DuckDB's window sum cannot diverge in float rounding.
@register(
    "supplier_pareto_share",
    sql="""
    WITH rev AS (
      SELECT l_suppkey,
             ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
      FROM lineitem GROUP BY l_suppkey
    ), cents AS (
      SELECT l_suppkey, revenue,
             CAST(ROUND(revenue * 100, 0) AS HUGEINT) AS c
      FROM rev
    )
    SELECT l_suppkey, revenue,
           ROUND(CAST(SUM(c) OVER (ORDER BY c DESC, l_suppkey
                                   ROWS UNBOUNDED PRECEDING) AS DOUBLE)
                 / SUM(c) OVER (), 6) AS cum_share,
           (SUM(c) OVER (ORDER BY c DESC, l_suppkey
                         ROWS UNBOUNDED PRECEDING) - c) * 10
             < SUM(c) OVER () * 8 AS in_top80
    FROM cents
    """,
)
def supplier_pareto_share(sf_dir: str):
    import numpy as np

    from .common import round_half_away

    ds = table(
        sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]
    )

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"]),
        )
        g = pa.TableGroupBy(
            pa.table({"l_suppkey": t["l_suppkey"], "rev": rev}), "l_suppkey"
        ).aggregate([("rev", "sum")])
        return g.rename_columns(["l_suppkey", "rev"])

    def finish(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("l_suppkey", as_index=False)["rev"].sum()
        revenue = round_half_away(g["rev"].to_numpy(), 2)
        # integer cents from the ROUNDED revenue — the only float→int
        # boundary; everything cumulative below is exact int arithmetic
        cents = round_half_away(revenue * 100, 0).astype(np.int64)
        order = np.lexsort((g["l_suppkey"].to_numpy(), -cents))
        sk = g["l_suppkey"].to_numpy(np.int64)[order]
        revenue, cents = revenue[order], cents[order]
        cum = np.cumsum(cents)
        total = int(cum[-1]) if len(cum) else 1
        return pa.table(
            {
                "l_suppkey": pa.array(sk),
                "revenue": pa.array(revenue),
                "cum_share": pa.array(
                    round_half_away(cum.astype(np.float64) / total, 6)
                ),
                "in_top80": pa.array((cum - cents) * 10 < total * 8),
            }
        )

    return combine_small(
        ds.map_batches(partial, batch_format="pyarrow"), finish
    )


# --------------------------------------------------------------------------
# trade balance per nation: what a nation's suppliers earn (lineitem
# revenue via l_suppkey→s_nationkey) minus what its customers spend
# (o_totalprice via o_custkey→c_nationkey). Both fact scans stay
# shuffle-free: the supplier/customer key→nation maps are broadcast once
# (ray.put'd sorted-key arrays, vectorized searchsorted per batch — at
# 100 TB the customer side crosses the dimension-broadcast budget and
# becomes the hash-partitioned Dataset.join customer_urgent_order_stats
# already demonstrates), and the per-block partials are 25-nation sums.
@register(
    "nation_trade_balance",
    sql="""
    WITH supply AS (
      SELECT s_nationkey AS nk, SUM(l_extendedprice * (1 - l_discount)) AS rev
      FROM lineitem JOIN supplier ON l_suppkey = s_suppkey GROUP BY 1
    ), spend AS (
      SELECT c_nationkey AS nk, SUM(o_totalprice) AS sp
      FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY 1
    )
    SELECT n_name,
           ROUND(COALESCE(supply.rev, 0), 2) AS supply_revenue,
           ROUND(COALESCE(spend.sp, 0), 2) AS purchase_spend,
           ROUND(COALESCE(supply.rev, 0) - COALESCE(spend.sp, 0), 2)
             AS trade_balance
    FROM nation LEFT JOIN supply ON n_nationkey = supply.nk
                LEFT JOIN spend ON n_nationkey = spend.nk
    """,
)
def nation_trade_balance(sf_dir: str):
    import numpy as np

    from .common import round_half_away

    nation = table(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    n_nations = int(nation["n_nationkey"].max()) + 1

    def keymap(name: str, key: str, val: str):
        df = table(sf_dir, name, [key, val]).to_pandas()
        order = np.argsort(df[key].to_numpy())
        return ray.put((df[key].to_numpy()[order],
                        df[val].to_numpy(np.int64)[order]))

    supp_ref = keymap("supplier", "s_suppkey", "s_nationkey")
    cust_ref = keymap("customer", "c_custkey", "c_nationkey")

    def supply_partial(t: pa.Table, *, ref) -> pa.Table:
        keys, nk = ray.get(ref)
        idx = np.searchsorted(keys, t["l_suppkey"].to_numpy())
        rev = (t["l_extendedprice"].to_numpy()
               * (1.0 - t["l_discount"].to_numpy()))
        return pa.table(
            {"nk": pa.array(np.arange(n_nations, dtype=np.int64)),
             "rev": pa.array(np.bincount(nk[idx], weights=rev,
                                         minlength=n_nations)),
             "sp": pa.array(np.zeros(n_nations))}
        )

    def spend_partial(t: pa.Table, *, ref) -> pa.Table:
        keys, nk = ray.get(ref)
        idx = np.searchsorted(keys, t["o_custkey"].to_numpy())
        return pa.table(
            {"nk": pa.array(np.arange(n_nations, dtype=np.int64)),
             "rev": pa.array(np.zeros(n_nations)),
             "sp": pa.array(np.bincount(nk[idx],
                                        weights=t["o_totalprice"].to_numpy(),
                                        minlength=n_nations))}
        )

    supply = table(
        sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(supply_partial, fn_kwargs={"ref": supp_ref},
                  batch_format="pyarrow")
    spend = table(
        sf_dir, "orders", ["o_custkey", "o_totalprice"]
    ).map_batches(spend_partial, fn_kwargs={"ref": cust_ref},
                  batch_format="pyarrow")

    def finish(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("nk", as_index=False)[["rev", "sp"]].sum()
        g = nation.merge(g, left_on="n_nationkey", right_on="nk",
                         how="left").fillna({"rev": 0.0, "sp": 0.0})
        rev = g["rev"].to_numpy()
        sp = g["sp"].to_numpy()
        return pa.table(
            {
                "n_name": pa.array(g["n_name"], pa.string()),
                "supply_revenue": pa.array(round_half_away(rev, 2)),
                "purchase_spend": pa.array(round_half_away(sp, 2)),
                "trade_balance": pa.array(round_half_away(rev - sp, 2)),
            }
        )

    return combine_small(supply.union(spend), finish)


# --------------------------------------------------------------------------
# order seasonality: per calendar month, order count and its index vs the
# uniform-month expectation (12 × share). Counts are exact integers on
# both sides, so the only float op is one division of exact ints —
# bit-identical in numpy and DuckDB.
@register(
    "orders_seasonality_index",
    sql="""
    SELECT CAST(month(o_orderdate) AS BIGINT) AS month,
           CAST(count(*) AS BIGINT) AS n_orders,
           ROUND(12.0 * count(*) / SUM(count(*)) OVER (), 4) AS seasonality
    FROM orders GROUP BY 1
    """,
)
def orders_seasonality_index(sf_dir: str):
    import numpy as np

    from .common import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        m = pc.month(t["o_orderdate"]).to_numpy(zero_copy_only=False)
        return pa.table(
            {"month": pa.array(np.arange(1, 13, dtype=np.int64)),
             "n": pa.array(np.bincount(m, minlength=13)[1:13])}
        )

    def finish(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("month", as_index=False)["n"].sum()
        g = g[g["n"] > 0]
        n = g["n"].to_numpy(np.int64)
        return pa.table(
            {
                "month": pa.array(g["month"].to_numpy(np.int64)),
                "n_orders": pa.array(n),
                "seasonality": pa.array(
                    round_half_away(12.0 * n / n.sum(), 4)
                ),
            }
        )

    return combine_small(
        table(sf_dir, "orders", ["o_orderdate"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        finish,
    )


# --------------------------------------------------------------------------
# customer order-count distribution (TPC-H Q13 shape): how many customers
# placed exactly k orders, INCLUDING the zero-order bucket. The per-customer
# counting is the honest high-cardinality exchange (bucketed_group_agg —
# key cardinality = every customer); the distribution itself has tiny fixed
# cardinality (max orders per customer), so it finishes as per-block
# value_counts + one local combine. The zero bucket needs no join at all:
# it's total customers (parquet-footer metadata) minus customers seen in
# orders — exact because o_custkey is a foreign key into customer.
@register(
    "customer_order_count_distribution",
    sql="""
    WITH per_cust AS (
      SELECT c_custkey, COUNT(o_orderkey) AS n
      FROM customer LEFT JOIN orders ON c_custkey = o_custkey
      GROUP BY 1
    )
    SELECT CAST(n AS BIGINT) AS n_orders,
           CAST(COUNT(*) AS BIGINT) AS n_customers
    FROM per_cust GROUP BY 1
    """,
)
def customer_order_count_distribution(sf_dir: str):
    import numpy as np

    n_cust_total = table_num_rows(sf_dir, "customer")

    def per_cust(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("o_custkey", as_index=False).size()
        return pd.DataFrame({"n": out["size"].to_numpy(np.int64)})

    counts = bucketed_group_agg(
        table(sf_dir, "orders", ["o_custkey"]), ["o_custkey"], per_cust,
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t["n"])
        return pa.table(
            {
                "n_orders": pc.cast(vc.field("values"), pa.int64()),
                "n_customers": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("n_orders", as_index=False)["n_customers"]
            .sum()
        )
        zero = n_cust_total - int(g["n_customers"].sum())
        if zero > 0:
            g = pd.concat(
                [g, pd.DataFrame({"n_orders": [0], "n_customers": [zero]})],
                ignore_index=True,
            )
        return pa.table(
            {
                "n_orders": pa.array(g["n_orders"].to_numpy(np.int64)),
                "n_customers": pa.array(g["n_customers"].to_numpy(np.int64)),
            }
        )

    return combine_small(
        counts.map_batches(hist_partial, batch_format="pyarrow"), finish
    )


# --------------------------------------------------------------------------
# promo revenue share per ship month (TPC-H Q14 shape): the part side of
# the join never shuffles — the PROMO partkey set is ray.put once as a
# sorted int64 array and each lineitem block tests membership with one
# vectorized searchsorted. Money moves as exact integer cents; the only
# float ops (share = 100·promo/total, then ROUND) run on exact integers on
# both sides, so the value-hash cannot drift.
@register(
    "promo_revenue_by_month",
    sql="""
    SELECT CAST(year(l_shipdate) * 100 + month(l_shipdate) AS BIGINT) AS ym,
           CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                    AS BIGINT)) AS DOUBLE) / 100 AS revenue,
           ROUND(100.0 * SUM(CASE WHEN p_type = 'PROMO'
                   THEN CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                        AS BIGINT) ELSE 0 END)
                 / SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                       AS BIGINT)), 4) AS promo_share
    FROM lineitem JOIN part ON l_partkey = p_partkey
    GROUP BY 1
    """,
)
def promo_revenue_by_month(sf_dir: str):
    import numpy as np

    from .common import round_half_away

    part = table(sf_dir, "part", ["p_partkey", "p_type"]).to_pandas()
    promo = np.sort(
        part.loc[part["p_type"] == "PROMO", "p_partkey"].to_numpy(np.int64)
    )
    promo_ref = ray.put(promo)

    def partial(t: pa.Table, *, ref) -> pa.Table:
        pk = ray.get(ref)
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    pc.multiply(
                        t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"]),
                    ),
                    pa.scalar(100.0),
                ),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy()
        is_promo = isin_sorted(pk, t["l_partkey"].to_numpy())
        d = t["l_shipdate"]
        ym = (
            pc.year(d).to_numpy(zero_copy_only=False) * 100
            + pc.month(d).to_numpy(zero_copy_only=False)
        )
        keys, inv = np.unique(ym, return_inverse=True)
        return pa.table(
            {
                "ym": pa.array(keys.astype(np.int64)),
                "cents": pa.array(
                    np.bincount(inv, weights=cents).astype(np.int64)
                ),
                "promo_cents": pa.array(
                    np.bincount(
                        inv, weights=np.where(is_promo, cents, 0)
                    ).astype(np.int64)
                ),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("ym", as_index=False)[["cents", "promo_cents"]]
            .sum()
        )
        cents = g["cents"].to_numpy(np.int64)
        promo_c = g["promo_cents"].to_numpy(np.int64)
        return pa.table(
            {
                "ym": pa.array(g["ym"].to_numpy(np.int64)),
                "revenue": pa.array(cents.astype(np.float64) / 100.0),
                "promo_share": pa.array(
                    round_half_away(100.0 * promo_c / cents, 4)
                ),
            }
        )

    ds = table(
        sf_dir, "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(partial, fn_kwargs={"ref": promo_ref},
                  batch_format="pyarrow")
    return combine_small(ds, finish)


# --------------------------------------------------------------------------
# small-quantity part revenue (TPC-H Q17 shape): revenue locked up in
# lineitems whose quantity is below HALF the part's average order quantity.
# Pass 1 computes per-part (sum qty, count) with the honest
# high-cardinality exchange (bucketed_group_agg over l_partkey); the
# resulting per-part stats table is bounded by |part| — broadcast here
# (ray.put sorted arrays), the documented at-scale fallback is the
# hash-partitioned Dataset.join that customer_urgent_order_stats
# demonstrates. Pass 2 re-streams lineitem and evaluates the predicate in
# EXACT integer arithmetic (2·qty·cnt < sum_qty ⇔ qty < avg/2 — no float
# average can disagree between numpy and DuckDB).
@register(
    "small_quantity_part_revenue",
    sql="""
    WITH pa AS (
      SELECT l_partkey AS pk,
             SUM(CAST(l_quantity AS BIGINT)) AS sq,
             COUNT(*) AS cnt
      FROM lineitem GROUP BY 1
    )
    SELECT CAST(COUNT(*) AS BIGINT) AS n_small,
           CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS DOUBLE)
             / 100 AS small_revenue
    FROM lineitem JOIN pa ON l_partkey = pa.pk
    WHERE 2 * CAST(l_quantity AS BIGINT) * cnt < sq
    """,
)
def small_quantity_part_revenue(sf_dir: str):
    import numpy as np


    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("l_partkey", as_index=False).agg(
            sq=("l_quantity", "sum"), cnt=("l_quantity", "size")
        )
        return pd.DataFrame(
            {
                "pk": out["l_partkey"].to_numpy(np.int64),
                "sq": out["sq"].to_numpy(np.int64),
                "cnt": out["cnt"].to_numpy(np.int64),
            }
        )

    stats = bucketed_group_agg(
        table(sf_dir, "lineitem", ["l_partkey", "l_quantity"]),
        ["l_partkey"], per_part,
    ).to_pandas()  # bounded: one row per part
    order = np.argsort(stats["pk"].to_numpy())
    ref = ray.put(
        (
            stats["pk"].to_numpy(np.int64)[order],
            stats["sq"].to_numpy(np.int64)[order],
            stats["cnt"].to_numpy(np.int64)[order],
        )
    )

    def partial(t: pa.Table, *, stats_ref) -> pa.Table:
        pk, sq, cnt = ray.get(stats_ref)
        lp = t["l_partkey"].to_numpy()
        idx = np.searchsorted(pk, lp)  # FK into pass-1 output: always present
        qty = t["l_quantity"].to_numpy().astype(np.int64)
        mask = 2 * qty * cnt[idx] < sq[idx]
        cents = pc.cast(
            pc.round(
                pc.multiply(t["l_extendedprice"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy()
        return pa.table(
            {
                "n": pa.array([int(mask.sum())], pa.int64()),
                "cents": pa.array([int(cents[mask].sum())], pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        return pa.table(
            {
                "n_small": pa.array([int(g["n"].sum())], pa.int64()),
                "small_revenue": pa.array(
                    [int(g["cents"].sum()) / 100.0], pa.float64()
                ),
            }
        )

    ds = table(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]
    ).map_batches(partial, fn_kwargs={"stats_ref": ref},
                  batch_format="pyarrow")
    return combine_small(ds, finish)


# --------------------------------------------------------------------------
# large-volume customers (TPC-H Q18 shape): orders whose total lineitem
# quantity exceeds 300, with the customer who placed them. Per-order sums
# are the high-cardinality exchange (bucketed_group_agg over l_orderkey,
# with the >300 filter pushed INTO the bucket aggregate so only survivors
# leave the exchange); the survivor set is tiny (top ~1% of orders), so it
# broadcasts into a semi-filter over the orders scan, and customer names
# attach via a second broadcast map — the corpus-scale fact tables never
# shuffle on a join key.
@register(
    "large_volume_customers",
    sql="""
    WITH oq AS (
      SELECT l_orderkey AS ok,
             CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS total_qty
      FROM lineitem GROUP BY 1
      HAVING SUM(CAST(l_quantity AS BIGINT)) > 300
    )
    SELECT c_custkey, c_name, o_orderkey,
           ROUND(o_totalprice, 2) AS o_totalprice, total_qty
    FROM oq JOIN orders ON ok = o_orderkey
            JOIN customer ON o_custkey = c_custkey
    """,
)
def large_volume_customers(sf_dir: str):
    import numpy as np

    from .common import round_half_away

    QTY = 300

    def per_order(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("l_orderkey", as_index=False)["l_quantity"].sum()
        tq = out["l_quantity"].to_numpy(np.int64)
        keep = tq > QTY
        return pd.DataFrame(
            {
                "ok": out["l_orderkey"].to_numpy(np.int64)[keep],
                "total_qty": tq[keep],
            }
        )

    surv = bucketed_group_agg(
        table(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]),
        ["l_orderkey"], per_order,
    ).to_pandas()  # bounded: >300-qty orders only (~1% of orders)
    order = np.argsort(surv["ok"].to_numpy())
    ok_s = surv["ok"].to_numpy(np.int64)[order]
    tq_s = surv["total_qty"].to_numpy(np.int64)[order]

    cust = table(sf_dir, "customer", ["c_custkey", "c_name"]).to_pandas()
    corder = np.argsort(cust["c_custkey"].to_numpy())
    ck = cust["c_custkey"].to_numpy(np.int64)[corder]
    cn = cust["c_name"].to_numpy()[corder]

    ref = ray.put((ok_s, tq_s, ck, cn))

    def attach(t: pa.Table, *, bref) -> pa.Table:
        ok, tq, ck_, cn_ = ray.get(bref)
        hit, qty = lookup_sorted(ok, t["o_orderkey"].to_numpy(), tq)
        t = t.filter(pa.array(hit))
        if not t.num_rows:
            return pa.table(
                {
                    "c_custkey": pa.array([], pa.int64()),
                    "c_name": pa.array([], pa.string()),
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_totalprice": pa.array([], pa.float64()),
                    "total_qty": pa.array([], pa.int64()),
                }
            )
        keys = t["o_orderkey"].to_numpy()
        custk = t["o_custkey"].to_numpy()
        return pa.table(
            {
                "c_custkey": pa.array(custk.astype(np.int64)),
                "c_name": pa.array(cn_[np.searchsorted(ck_, custk)]),
                "o_orderkey": pa.array(keys.astype(np.int64)),
                "o_totalprice": pa.array(
                    round_half_away(t["o_totalprice"].to_numpy(), 2)
                ),
                "total_qty": pa.array(qty[hit]),
            }
        )

    return table(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]
    ).map_batches(attach, fn_kwargs={"bref": ref}, batch_format="pyarrow")


# --------------------------------------------------------------------------
# supplier-nation market share per ship year (TPC-H Q8 shape): each
# nation's share of total yearly revenue, supplied-side. The supplier →
# nation map broadcasts (sorted-key searchsorted — nation_trade_balance's
# pattern), so the lineitem scan is shuffle-free; partial cells are
# (year, nation) — ≤ years × 25 rows per block at any scale. Money stays
# exact integer cents until the final share division of exact integers.
@register(
    "nation_yearly_market_share",
    sql="""
    WITH rev AS (
      SELECT s_nationkey AS nk, CAST(year(l_shipdate) AS BIGINT) AS yr,
             SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                 AS BIGINT)) AS cents
      FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
      GROUP BY 1, 2
    )
    SELECT n_name, yr, CAST(cents AS DOUBLE) / 100 AS revenue,
           ROUND(100.0 * cents / SUM(cents) OVER (PARTITION BY yr), 4)
             AS share
    FROM rev JOIN nation ON nk = n_nationkey
    """,
)
def nation_yearly_market_share(sf_dir: str):
    import numpy as np

    from .common import round_half_away

    nation = table(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    supp = table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    order = np.argsort(supp["s_suppkey"].to_numpy())
    ref = ray.put(
        (
            supp["s_suppkey"].to_numpy(np.int64)[order],
            supp["s_nationkey"].to_numpy(np.int64)[order],
        )
    )

    def partial(t: pa.Table, *, sref) -> pa.Table:
        sk, nk = ray.get(sref)
        idx = np.searchsorted(sk, t["l_suppkey"].to_numpy())  # FK: present
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    pc.multiply(
                        t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"]),
                    ),
                    pa.scalar(100.0),
                ),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy()
        yr = pc.year(t["l_shipdate"]).to_numpy(zero_copy_only=False)
        key = yr.astype(np.int64) * 100 + nk[idx]
        keys, inv = np.unique(key, return_inverse=True)
        return pa.table(
            {
                "key": pa.array(keys),
                "cents": pa.array(
                    np.bincount(inv, weights=cents).astype(np.int64)
                ),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("key", as_index=False)["cents"].sum()
        key = g["key"].to_numpy(np.int64)
        cents = g["cents"].to_numpy(np.int64)
        yr = key // 100
        nk = key % 100
        year_tot = pd.Series(cents).groupby(pd.Series(yr)).transform("sum")
        names = nation.set_index("n_nationkey")["n_name"]
        return pa.table(
            {
                "n_name": pa.array(names.loc[nk].to_numpy()),
                "yr": pa.array(yr),
                "revenue": pa.array(cents.astype(np.float64) / 100.0),
                "share": pa.array(
                    round_half_away(
                        100.0 * cents / year_tot.to_numpy(np.int64), 4
                    )
                ),
            }
        )

    ds = table(
        sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount",
                             "l_shipdate"]
    ).map_batches(partial, fn_kwargs={"sref": ref}, batch_format="pyarrow")
    return combine_small(ds, finish)
