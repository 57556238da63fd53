"""Session-6 relational additions: correlation-by-group from streaming
moments, argmin-winner joins, big-big conditional join matrices, date-spine
gap filling, scalar-subquery anti-joins, per-user mode, and ordered string
aggregation.

Each op re-expresses a reference analysis shape (SURVEY.md §2.5-§2.6 —
grouped statistics over joined tweet/user frames, per-user majority labels,
date-bucketed dashboards with missing buckets shown as zero; e.g.
`Visualization.py` builds per-day tweet counts and per-user top labels with
pandas `value_counts()` on a single machine) as a distributed Ray Data
pipeline with the exact-arithmetic conventions this repo uses for oracle
parity (integer cents, fixed-cardinality partial aggregates, bucketed
exchanges for unbounded keys).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from . import common
from .common import (
    LOOKUP_BROADCAST_MAX,
    bucketed_group_agg,
    combine_small,
    join_partitions,
    round_half_away,
    table,
    table_num_rows,
)
from .queries import register

# --------------------------------------------------------------------------
# Pearson correlation per fixed-cardinality group, from streaming moments.
# Shape: the classic "does quantity track price?" dashboard statistic
# (reference: per-frame pandas .corr() on a driver DataFrame). Distributed
# form: each block emits the 6 sufficient statistics (n, Σx, Σy, Σxy, Σx²,
# Σy²) per (returnflag, linestatus) cell — ≤ 6 cells at ANY scale, so the
# partial stream is bounded by cells × blocks and the final combine is one
# local Arrow fold. No shuffle at any input size. Both engines compute the
# same moments from exact integer inputs (qty, price cents) summed in
# float64, then one identical closed-form division, rounded to 6 dp so
# summation-order jitter (~1e-12 relative) cannot flip the hash.
@register(
    "price_qty_corr_by_flag",
    sql="""
    WITH m AS (
      SELECT l_returnflag, l_linestatus,
             CAST(count(*) AS DOUBLE) AS n,
             CAST(SUM(CAST(l_quantity AS BIGINT)) AS DOUBLE) AS sx,
             CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                  AS DOUBLE) AS sy,
             SUM(CAST(l_quantity AS DOUBLE)
                 * CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS sxy,
             CAST(SUM(CAST(l_quantity AS BIGINT)
                      * CAST(l_quantity AS BIGINT)) AS DOUBLE) AS sxx,
             SUM(CAST(ROUND(l_extendedprice * 100) AS DOUBLE)
                 * CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS syy
      FROM lineitem GROUP BY 1, 2
    )
    SELECT l_returnflag, l_linestatus, CAST(n AS BIGINT) AS n_rows,
           ROUND((n * sxy - sx * sy)
                 / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)),
                 6) AS corr_qty_price
    FROM m
    """,
)
def price_qty_corr_by_flag(sf_dir: str):
    ds = table(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def partial(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy(zero_copy_only=False)
        cents = pc.cast(
            pc.round(
                pc.multiply(t["l_extendedprice"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy()
        y = cents.astype(np.float64)
        m = pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "n": pa.array(np.ones(len(x)), pa.float64()),
                "sx": pa.array(x, pa.float64()),
                "sy": pa.array(y, pa.float64()),
                "sxy": pa.array(x * y, pa.float64()),
                "sxx": pa.array(x * x, pa.float64()),
                "syy": pa.array(y * y, pa.float64()),
            }
        )
        return (
            pa.TableGroupBy(m, ["l_returnflag", "l_linestatus"])
            .aggregate(
                [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy")]
            )
            .rename_columns(
                ["l_returnflag", "l_linestatus",
                 "n", "sx", "sy", "sxy", "sxx", "syy"]
            )
        )

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby(["l_returnflag", "l_linestatus"], as_index=False)
            .sum()
        )
        n, sx, sy = (g[c].to_numpy() for c in ("n", "sx", "sy"))
        sxy, sxx, syy = (g[c].to_numpy() for c in ("sxy", "sxx", "syy"))
        corr = (n * sxy - sx * sy) / np.sqrt(
            (n * sxx - sx * sx) * (n * syy - sy * sy)
        )
        return pa.table(
            {
                "l_returnflag": pa.array(g["l_returnflag"]),
                "l_linestatus": pa.array(g["l_linestatus"]),
                "n_rows": pa.array(n.astype(np.int64), pa.int64()),
                "corr_qty_price": pa.array(
                    round_half_away(corr, 6), pa.float64()
                ),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"), final)


# --------------------------------------------------------------------------
# Argmin-winner join (TPC-H Q2 shape without partsupp): for every part, the
# supplier that ever quoted the LOWEST lineitem price (exact cents;
# tie-break lowest suppkey), then the leaderboard of how many parts each
# supplier "wins". The per-part argmin is the high-cardinality exchange
# (bucketed on l_partkey — one output row per part), the winner count per
# supplier is a fixed-small second aggregate (|supplier| ≪ |part|), and
# supplier names attach via one broadcast lookup — the lineitem fact table
# never shuffles on a join key.
@register(
    "cheapest_supplier_leaderboard",
    sql="""
    WITH cents AS (
      SELECT l_partkey AS pk, l_suppkey AS sk,
             CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS c
      FROM lineitem
    ),
    m AS (SELECT pk, sk, min(c) AS mc FROM cents GROUP BY 1, 2),
    w AS (
      SELECT pk, sk,
             ROW_NUMBER() OVER (PARTITION BY pk ORDER BY mc, sk) AS rn
      FROM m
    )
    SELECT s_suppkey, s_name, CAST(count(*) AS BIGINT) AS n_parts_won
    FROM w JOIN supplier ON sk = s_suppkey
    WHERE rn = 1 GROUP BY 1, 2
    """,
)
def cheapest_supplier_leaderboard(sf_dir: str):

    def pre(t: pa.Table) -> pa.Table:
        # map-side combine: collapse to per-(part, supp) min before the
        # exchange so repeated quotes never cross the wire
        c = pc.cast(
            pc.round(
                pc.multiply(t["l_extendedprice"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        m = pa.table(
            {"pk": t["l_partkey"], "sk": t["l_suppkey"], "c": c}
        )
        return (
            pa.TableGroupBy(m, ["pk", "sk"])
            .aggregate([("c", "min")])
            .rename_columns(["pk", "sk", "mc"])
        )

    def winner_per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["pk", "sk"], as_index=False).agg(mc=("mc", "min"))
        g = g.sort_values(["pk", "mc", "sk"], kind="mergesort")
        return g.drop_duplicates("pk")[["pk", "sk"]]

    winners = bucketed_group_agg(
        table(sf_dir, "lineitem",
              ["l_partkey", "l_suppkey", "l_extendedprice"])
        .map_batches(pre, batch_format="pyarrow"),
        ["pk"],
        winner_per_part,
    )

    # winner rows = one per part; per-supplier counts are a bounded
    # (|supplier|-cardinality) partial stream → local final combine
    def count_partial(t: pa.Table) -> pa.Table:
        return (
            pa.TableGroupBy(t, ["sk"])
            .aggregate([([], "count_all")])
            .rename_columns(["sk", "n"])
        )

    import pyarrow.dataset as pads

    sup = (
        pads.dataset(f"{sf_dir}/supplier.parquet")
        .to_table(columns=["s_suppkey", "s_name"])
        .to_pandas()
        .sort_values("s_suppkey")
    )

    def final(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("sk", as_index=False).agg(n=("n", "sum"))
        idx = np.searchsorted(
            sup["s_suppkey"].to_numpy(np.int64), g["sk"].to_numpy(np.int64)
        )
        return pa.table(
            {
                "s_suppkey": pa.array(g["sk"].to_numpy(np.int64), pa.int64()),
                "s_name": pa.array(sup["s_name"].to_numpy()[idx]),
                "n_parts_won": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    return combine_small(
        winners.map_batches(count_partial, batch_format="pyarrow"), final
    )


# --------------------------------------------------------------------------
# Big-big conditional join matrix (TPC-H Q12 shape): per order priority,
# how many lineitems shipped LATE (> 60 days after the order date) vs total.
# Two fact tables meet on orderkey: below LOOKUP_BROADCAST_MAX the orders
# side broadcasts ONCE (ray.put of three parallel arrays, searchsorted
# lookup per block — orderkeys are a sorted PK); above it, a hash join
# partitioned through join_partitions(). Both paths collapse to a ≤5-row
# matrix via fixed-cardinality partials, so nothing wide leaves the join.


@register(
    "late_shipment_priority_matrix",
    sql="""
    SELECT o_orderpriority,
           CAST(SUM(CASE WHEN l_shipdate > o_orderdate + INTERVAL 60 DAY
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
           CAST(count(*) AS BIGINT) AS n_lines
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    GROUP BY 1
    """,
)
def late_shipment_priority_matrix(sf_dir: str):
    li = table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    sixty_days_us = 60 * 86_400 * 1_000_000

    def matrix(prio_codes: np.ndarray, late: np.ndarray,
               prios: np.ndarray) -> pa.Table:
        n_lines = np.bincount(prio_codes, minlength=len(prios))
        n_late = np.bincount(
            prio_codes[late], minlength=len(prios)
        )
        return pa.table(
            {
                "o_orderpriority": pa.array(prios),
                "n_late": pa.array(n_late.astype(np.int64), pa.int64()),
                "n_lines": pa.array(n_lines.astype(np.int64), pa.int64()),
            }
        )

    if common.gate("late_shipment_priority_matrix", "orders",
                   table_num_rows(sf_dir, "orders"), LOOKUP_BROADCAST_MAX):
        import pyarrow.dataset as pads

        od = (
            pads.dataset(f"{sf_dir}/orders.parquet")
            .to_table(columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
            .to_pandas()
            .sort_values("o_orderkey")
        )
        prios = np.sort(od["o_orderpriority"].unique())
        code = {p: i for i, p in enumerate(prios)}
        ref = ray.put(
            (
                od["o_orderkey"].to_numpy(np.int64),
                od["o_orderdate"].to_numpy("datetime64[us]").astype(np.int64),
                od["o_orderpriority"].map(code).to_numpy(np.int8),
            )
        )

        def partial(t: pa.Table, *, ref) -> pa.Table:
            keys, date_us, pcode = ray.get(ref)
            lk = t["l_orderkey"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(keys, lk)  # FK into orders: always present
            ship_us = (
                t["l_shipdate"].to_numpy(zero_copy_only=False)
                .astype("datetime64[us]").astype(np.int64)
            )
            late = ship_us > date_us[idx] + sixty_days_us
            return matrix(pcode[idx].astype(np.int64), late, prios)

        partials = li.map_batches(
            partial, fn_kwargs={"ref": ref}, batch_format="pyarrow"
        )
    else:
        joined = li.join(
            table(sf_dir, "orders",
                  ["o_orderkey", "o_orderdate", "o_orderpriority"]),
            join_type="inner",
            num_partitions=join_partitions(),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        )

        def partial_joined(t: pa.Table) -> pa.Table:
            prios = np.sort(np.unique(
                t["o_orderpriority"].to_numpy(zero_copy_only=False)
            ))
            codes = np.searchsorted(
                prios, t["o_orderpriority"].to_numpy(zero_copy_only=False)
            )
            ship_us = (
                t["l_shipdate"].to_numpy(zero_copy_only=False)
                .astype("datetime64[us]").astype(np.int64)
            )
            date_us = (
                t["o_orderdate"].to_numpy(zero_copy_only=False)
                .astype("datetime64[us]").astype(np.int64)
            )
            return matrix(codes, ship_us > date_us + sixty_days_us, prios)

        partials = joined.map_batches(partial_joined, batch_format="pyarrow")

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("o_orderpriority", as_index=False)[["n_late", "n_lines"]]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return combine_small(partials, final)


# --------------------------------------------------------------------------
# Date-spine gap fill: per-day event counts with MISSING days present as
# zero rows (the reference's dashboards plot per-day counts where pandas
# reindex fills gaps; distributed form: bounded per-day partials — days ×
# blocks rows — one local combine, then a driver-built spine over the
# observed [min, max] day range. The spine is |days| rows: bounded by the
# corpus time span, never by corpus size).
@register(
    "events_daily_gap_fill",
    sql="""
    WITH c AS (
      SELECT date_trunc('day', ts) AS day, count(*) AS n
      FROM events GROUP BY 1
    ),
    b AS (SELECT min(day) AS lo, max(day) AS hi FROM c)
    SELECT s.day, CAST(COALESCE(c.n, 0) AS BIGINT) AS n
    FROM (SELECT unnest(generate_series(lo, hi, INTERVAL 1 DAY)) AS day
          FROM b) s
    LEFT JOIN c USING (day)
    """,
)
def events_daily_gap_fill(sf_dir: str):
    ds = table(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        m = pa.table({"day": pc.floor_temporal(t["ts"], unit="day")})
        return (
            pa.TableGroupBy(m, ["day"])
            .aggregate([([], "count_all")])
            .rename_columns(["day", "n"])
        )

    def final(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("day", as_index=False).agg(n=("n", "sum"))
        if not len(g):
            return pa.table(
                {"day": pa.array([], pa.timestamp("us")),
                 "n": pa.array([], pa.int64())}
            )
        spine = pd.date_range(g["day"].min(), g["day"].max(), freq="D")
        out = (
            g.set_index("day").reindex(spine, fill_value=0)
            .rename_axis("day").reset_index()
        )
        return pa.table(
            {
                "day": pa.array(out["day"].to_numpy("datetime64[us]")),
                "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"), final)


# --------------------------------------------------------------------------
# Scalar-subquery anti-join (TPC-H Q22 shape): customers whose balance beats
# the positive-balance average AND who have LAPSED — no order since
# 2000-01-01 (the testdata's order dates span 1995..2001; a plain
# "never ordered" anti-join is degenerate here because every synthetic
# customer has orders). The average is compared in EXACT integer
# cross-multiplication (cents · n_pos > Σcents_pos) so a float avg computed
# in different summation orders can never flip a boundary customer between
# engines. Recent-buyer custkeys broadcast as a distinct set (same gate
# story as customers_without_urgent_orders: at 100 TB swap for a bucketed
# hash anti-join keyed on custkey).
LAPSED_CUTOFF = "2000-01-01"


@register(
    "high_balance_inactive_customers",
    sql=f"""
    WITH pos AS (
      SELECT CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents
      FROM customer WHERE c_acctbal > 0
    ),
    thr AS (SELECT count(*) AS n, SUM(cents) AS s FROM pos)
    SELECT c_nationkey, CAST(count(*) AS BIGINT) AS n_cust,
           CAST(SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT)) AS DOUBLE) / 100
             AS total_bal
    FROM customer, thr
    WHERE CAST(ROUND(c_acctbal * 100) AS BIGINT) * n > s
      AND c_custkey NOT IN (SELECT o_custkey FROM orders
                            WHERE o_orderdate >= DATE '{LAPSED_CUTOFF}')
    GROUP BY 1
    """,
)
def high_balance_inactive_customers(sf_dir: str):
    cust = table(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def cents_of(t: pa.Table) -> np.ndarray:
        return pc.cast(
            pc.round(
                pc.multiply(t["c_acctbal"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy()

    # pass 1: exact positive-balance average as (n_pos, sum_cents_pos)
    def thr_partial(t: pa.Table) -> pa.Table:
        c = cents_of(t)
        pos = c[c > 0]
        return pa.table(
            {
                "n": pa.array([len(pos)], pa.int64()),
                "s": pa.array([int(pos.sum())], pa.int64()),
            }
        )

    thr = combine_small(
        cust.map_batches(thr_partial, batch_format="pyarrow"),
        lambda t: pa.table(
            {
                "n": pa.array([pc.sum(t["n"]).as_py() or 0], pa.int64()),
                "s": pa.array([pc.sum(t["s"]).as_py() or 0], pa.int64()),
            }
        ),
    )
    n_pos, s_pos = thr["n"][0].as_py(), thr["s"][0].as_py()

    cutoff = pa.scalar(np.datetime64(LAPSED_CUTOFF, "us"))

    def recent_only(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.greater_equal(t["o_orderdate"], cutoff)
        ).select(["o_custkey"])

    active = (
        table(sf_dir, "orders", ["o_custkey", "o_orderdate"])
        .map_batches(recent_only, batch_format="pyarrow")
        .unique("o_custkey")
    )
    active_ref = ray.put(pa.array(active))

    def partial(t: pa.Table, *, ref) -> pa.Table:
        c = cents_of(t)
        inactive = pc.invert(
            pc.is_in(t["c_custkey"], value_set=ray.get(ref))
        ).to_numpy(zero_copy_only=False)
        keep = inactive & (c * n_pos > s_pos)
        m = pa.table(
            {
                "c_nationkey": pa.array(
                    t["c_nationkey"].to_numpy(zero_copy_only=False)[keep]
                ),
                "cents": pa.array(c[keep], pa.int64()),
            }
        )
        return (
            pa.TableGroupBy(m, ["c_nationkey"])
            .aggregate([([], "count_all"), ("cents", "sum")])
            .rename_columns(["c_nationkey", "n_cust", "cents"])
        )

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("c_nationkey", as_index=False)
            .agg(n_cust=("n_cust", "sum"), cents=("cents", "sum"))
        )
        return pa.table(
            {
                "c_nationkey": pa.array(g["c_nationkey"]),
                "n_cust": pa.array(g["n_cust"].to_numpy(np.int64), pa.int64()),
                "total_bal": pa.array(
                    g["cents"].to_numpy(np.int64) / 100.0, pa.float64()
                ),
            }
        )

    return combine_small(
        cust.map_batches(partial, fn_kwargs={"ref": active_ref},
                         batch_format="pyarrow"),
        final,
    )


# --------------------------------------------------------------------------
# Per-user MODE with deterministic tie-break (most frequent event_type,
# ties to the lexicographically smallest type) — the reference's per-user
# majority label (`value_counts().idxmax()` per user frame). Distributed:
# map-side (user, type) combine, then ONE bucketed exchange on user_id;
# each bucket resolves its users' argmax locally in vectorized pandas.
@register(
    "user_top_event_type",
    sql="""
    WITH c AS (
      SELECT user_id, event_type, count(*) AS n
      FROM events GROUP BY 1, 2
    ),
    r AS (
      SELECT user_id, event_type, n,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY n DESC, event_type) AS rn
      FROM c
    )
    SELECT user_id, event_type AS top_type, CAST(n AS BIGINT) AS n
    FROM r WHERE rn = 1
    """,
)
def user_top_event_type(sf_dir: str):

    def pre(t: pa.Table) -> pa.Table:
        return (
            pa.TableGroupBy(t, ["user_id", "event_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["user_id", "event_type", "n"])
        )

    def mode_per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["user_id", "event_type"], as_index=False).agg(
            n=("n", "sum")
        )
        g = g.sort_values(
            ["user_id", "n", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        ).drop_duplicates("user_id")
        return pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(np.int64),
                "top_type": g["event_type"].to_numpy(),
                "n": g["n"].to_numpy(np.int64),
            }
        )

    return bucketed_group_agg(
        table(sf_dir, "events", ["user_id", "event_type"])
        .map_batches(pre, batch_format="pyarrow"),
        ["user_id"],
        mode_per_user,
    )


# --------------------------------------------------------------------------
# Ordered string aggregation over the dimension tables: the comma-joined,
# name-sorted nation list per region. region × nation are FIXED 5 + 25 row
# dimensions at every scale factor (TPC-H invariant), so a driver-side
# pandas merge is the honest plan — launching a distributed pipeline for
# 30 rows costs more than the read (same rationale as the dimension-name
# attach in regional_revenue).
@register(
    "region_nation_list",
    sql="""
    SELECT r_name,
           string_agg(n_name, ',' ORDER BY n_name) AS nations,
           CAST(count(*) AS BIGINT) AS n_nations
    FROM region JOIN nation ON r_regionkey = n_regionkey
    GROUP BY 1
    """,
)
def region_nation_list(sf_dir: str):
    import pyarrow.dataset as pads

    nat = pads.dataset(f"{sf_dir}/nation.parquet").to_table().to_pandas()
    reg = pads.dataset(f"{sf_dir}/region.parquet").to_table().to_pandas()
    df = nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    g = (
        df.sort_values("n_name")
        .groupby("r_name")["n_name"]
        .agg([("nations", ",".join), ("n_nations", "size")])
        .reset_index()
    )
    g["n_nations"] = g["n_nations"].astype(np.int64)
    return pa.Table.from_pandas(g, preserve_index=False)


# --------------------------------------------------------------------------
# EXACT distributed median without a global sort: two bounded passes.
# Pass 1 streams per-(priority, coarse-bucket) counts (5 × 4096 cells —
# fixed cardinality, no shuffle); the driver locates, per priority, the
# bucket(s) holding the two middle ranks. Pass 2 re-scans with a pushed
# filter that keeps ONLY rows in those buckets (a vanishing fraction:
# ~n/4096 rows per priority) and collects their exact cent values to
# resolve the ranks locally. Both engines then average the SAME two int64
# cents in one IEEE op, so the DOUBLE result is bit-identical — no rounding
# tolerance needed. This is the scale-honest shape for exact quantiles at
# 100 TB: wall time is two streaming scans, memory is cells + one bucket.
MEDIAN_BUCKETS = 4096


@register(
    "order_price_exact_median_by_priority",
    sql="""
    SELECT o_orderpriority,
           CAST(count(*) AS BIGINT) AS n_orders,
           median(CAST(ROUND(o_totalprice * 100) AS BIGINT)) / 100.0
             AS median_price
    FROM orders GROUP BY 1
    """,
)
def order_price_exact_median_by_priority(sf_dir: str):
    ds = table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def cents_of(t: pa.Table) -> np.ndarray:
        return pc.cast(
            pc.round(
                pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy()

    # pass 1a: global cent range + count per priority (bounded partials)
    def range_partial(t: pa.Table) -> pa.Table:
        c = cents_of(t)
        m = pa.table(
            {
                "prio": t["o_orderpriority"],
                "lo": pa.array(c, pa.int64()),
                "hi": pa.array(c, pa.int64()),
            }
        )
        return (
            pa.TableGroupBy(m, ["prio"])
            .aggregate([("lo", "min"), ("hi", "max"), ([], "count_all")])
            .rename_columns(["prio", "lo", "hi", "n"])
        )

    rng = combine_small(
        ds.map_batches(range_partial, batch_format="pyarrow"),
        lambda t: pa.TableGroupBy(t, ["prio"])
        .aggregate([("lo", "min"), ("hi", "max"), ("n", "sum")])
        .rename_columns(["prio", "lo", "hi", "n"]),
    ).to_pandas().sort_values("prio").reset_index(drop=True)
    prios = rng["prio"].to_numpy()
    lo = rng["lo"].to_numpy(np.int64)
    width = np.maximum(
        (rng["hi"].to_numpy(np.int64) - lo) // MEDIAN_BUCKETS + 1, 1
    )
    pcode = {p: i for i, p in enumerate(prios)}
    rng_ref = ray.put((pcode, lo, width))

    # pass 1b: per-(priority, bucket) histogram — ≤ 5 × 4096 cells
    def hist_partial(t: pa.Table, *, ref) -> pa.Table:
        pcode, lo, width = ray.get(ref)
        c = cents_of(t)
        pi = np.fromiter(
            (pcode[p] for p in t["o_orderpriority"].to_pylist()),
            np.int64, len(c),
        )
        b = (c - lo[pi]) // width[pi]
        cell = pi * MEDIAN_BUCKETS + b
        cnt = np.bincount(cell, minlength=len(pcode) * MEDIAN_BUCKETS)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {"cell": pa.array(nz, pa.int64()),
             "n": pa.array(cnt[nz], pa.int64())}
        )

    hist = combine_small(
        ds.map_batches(hist_partial, fn_kwargs={"ref": rng_ref},
                       batch_format="pyarrow"),
        lambda t: pa.TableGroupBy(t, ["cell"])
        .aggregate([("n", "sum")])
        .rename_columns(["cell", "n"]),
    ).to_pandas()

    # driver: per priority, the bucket(s) holding ranks (n-1)//2 and n//2
    want_buckets: dict[int, set[int]] = {}
    for i, p in enumerate(prios):
        h = hist[(hist["cell"] // MEDIAN_BUCKETS) == i].sort_values("cell")
        counts = h["n"].to_numpy(np.int64)
        buckets = (h["cell"] % MEDIAN_BUCKETS).to_numpy(np.int64)
        cum = np.cumsum(counts)
        n = int(rng["n"][i])
        want = set()
        for rank in ((n - 1) // 2, n // 2):
            want.add(int(buckets[np.searchsorted(cum, rank + 1)]))
        want_buckets[i] = want
    want_ref = ray.put(want_buckets)

    # pass 2: keep only rows inside the median buckets (~n/4096 rows)
    def in_median_bucket(t: pa.Table, *, ref, rref) -> pa.Table:
        want = ray.get(ref)
        pcode, lo, width = ray.get(rref)
        c = cents_of(t)
        pi = np.fromiter(
            (pcode[p] for p in t["o_orderpriority"].to_pylist()),
            np.int64, len(c),
        )
        b = (c - lo[pi]) // width[pi]
        keep = np.fromiter(
            (bb in want[pp] for pp, bb in zip(pi, b)), bool, len(c)
        )
        return pa.table(
            {"pi": pa.array(pi[keep], pa.int64()),
             "cents": pa.array(c[keep], pa.int64())}
        )

    survivors = combine_small(
        ds.map_batches(
            in_median_bucket,
            fn_kwargs={"ref": want_ref, "rref": rng_ref},
            batch_format="pyarrow",
        ),
        lambda t: t,
    ).to_pandas()

    out_prio, out_n, out_med = [], [], []
    for i, p in enumerate(prios):
        n = int(rng["n"][i])
        vals = np.sort(survivors[survivors["pi"] == i]["cents"].to_numpy())
        # rank of the first survivor = total count below its bucket(s)
        h = hist[(hist["cell"] // MEDIAN_BUCKETS) == i].sort_values("cell")
        below = int(
            h[(h["cell"] % MEDIAN_BUCKETS)
              < min(want_buckets[i])]["n"].sum()
        )
        lo_mid = int(vals[(n - 1) // 2 - below])
        hi_mid = int(vals[n // 2 - below])
        out_prio.append(p)
        out_n.append(n)
        out_med.append((lo_mid + hi_mid) / 2.0 / 100.0)
    return pa.table(
        {
            "o_orderpriority": pa.array(out_prio),
            "n_orders": pa.array(out_n, pa.int64()),
            "median_price": pa.array(out_med, pa.float64()),
        }
    )


# --------------------------------------------------------------------------
# Interval-overlap sweep line: how many orders are OPEN each day, where an
# order is open for 30 days from its order date. The distributed form
# never materializes per-day memberships: each block emits +count at the
# open day and -count at the close day (per-day deltas — bounded by the
# calendar span × blocks), one local combine sums deltas per day, and a
# single driver-side cumulative sum over the bounded day spine yields the
# backlog curve. Classic scan-heavy/streaming shape for range joins whose
# join key is time containment.
@register(
    "open_orders_daily_backlog",
    sql="""
    WITH b AS (
      SELECT date_trunc('day', o_orderdate) AS d, count(*) AS n
      FROM orders GROUP BY 1
    ),
    del AS (
      SELECT d, n FROM b
      UNION ALL
      SELECT d + INTERVAL 30 DAY AS d, -n FROM b
    ),
    agg AS (SELECT d, SUM(n) AS delta FROM del GROUP BY 1),
    bounds AS (SELECT min(d) AS lo, max(d) AS hi FROM agg),
    spine AS (SELECT unnest(generate_series(lo, hi, INTERVAL 1 DAY)) AS day
              FROM bounds)
    SELECT s.day,
           CAST(SUM(COALESCE(a.delta, 0))
                OVER (ORDER BY s.day) AS BIGINT) AS n_open
    FROM spine s LEFT JOIN agg a ON a.d = s.day
    """,
)
def open_orders_daily_backlog(sf_dir: str):
    ds = table(sf_dir, "orders", ["o_orderdate"])
    open_days_us = np.timedelta64(30, "D").astype("timedelta64[us]")

    def delta_partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["o_orderdate"], unit="day")
        m = pa.table({"d": day})
        opens = (
            pa.TableGroupBy(m, ["d"])
            .aggregate([([], "count_all")])
            .rename_columns(["d", "delta"])
        )
        closes = pa.table(
            {
                "d": pa.array(
                    opens["d"].to_numpy(zero_copy_only=False) + open_days_us
                ),
                "delta": pc.negate(pc.cast(opens["delta"], pa.int64())),
            }
        )
        return pa.concat_tables(
            [opens.set_column(
                1, "delta", pc.cast(opens["delta"], pa.int64())), closes]
        )

    def final(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("d", as_index=False).agg(
            delta=("delta", "sum")
        )
        if not len(g):
            return pa.table(
                {"day": pa.array([], pa.timestamp("us")),
                 "n_open": pa.array([], pa.int64())}
            )
        spine = pd.date_range(g["d"].min(), g["d"].max(), freq="D")
        filled = (
            g.set_index("d").reindex(spine, fill_value=0)
            .rename_axis("day").reset_index()
        )
        return pa.table(
            {
                "day": pa.array(filled["day"].to_numpy("datetime64[us]")),
                "n_open": pa.array(
                    np.cumsum(filled["delta"].to_numpy(np.int64)),
                    pa.int64(),
                ),
            }
        )

    return combine_small(
        ds.map_batches(delta_partial, batch_format="pyarrow"), final
    )


# --------------------------------------------------------------------------
# Shared exact-quantile machinery (the median op above is the q=0.5
# special case; kept separate so its oracle story stays readable).
# For a FIXED-cardinality group column, returns the exact int64 value at
# each requested discrete rank per group, in two bounded streaming passes
# (histogram → filtered re-scan), never a global sort. rank convention =
# DuckDB quantile_disc: 0-indexed ceil(q*n) - 1 (the smallest element
# whose cumulative fraction ≥ q).
def _exact_group_discrete_quantiles(
    ds: ray.data.Dataset,
    group_col: str,
    ints_of,
    qs: tuple[float, ...],
    n_buckets: int = 4096,
):
    """→ (groups: np.ndarray, counts: np.ndarray, quants: {q: np.ndarray})"""

    def range_partial(t: pa.Table) -> pa.Table:
        c = ints_of(t)
        m = pa.table(
            {
                "g": t[group_col],
                "lo": pa.array(c, pa.int64()),
                "hi": pa.array(c, pa.int64()),
            }
        )
        return (
            pa.TableGroupBy(m, ["g"])
            .aggregate([("lo", "min"), ("hi", "max"), ([], "count_all")])
            .rename_columns(["g", "lo", "hi", "n"])
        )

    rng = combine_small(
        ds.map_batches(range_partial, batch_format="pyarrow"),
        lambda t: pa.TableGroupBy(t, ["g"])
        .aggregate([("lo", "min"), ("hi", "max"), ("n", "sum")])
        .rename_columns(["g", "lo", "hi", "n"]),
    ).to_pandas().sort_values("g").reset_index(drop=True)
    groups = rng["g"].to_numpy()
    counts = rng["n"].to_numpy(np.int64)
    lo = rng["lo"].to_numpy(np.int64)
    width = np.maximum((rng["hi"].to_numpy(np.int64) - lo) // n_buckets + 1, 1)
    gcode = {g: i for i, g in enumerate(groups)}
    rng_ref = ray.put((gcode, lo, width))

    def gidx(t: pa.Table, gcode) -> np.ndarray:
        return np.fromiter(
            (gcode[g] for g in t[group_col].to_pylist()),
            np.int64, t.num_rows,
        )

    def hist_partial(t: pa.Table, *, ref) -> pa.Table:
        gcode, lo, width = ray.get(ref)
        c = ints_of(t)
        gi = gidx(t, gcode)
        cell = gi * n_buckets + (c - lo[gi]) // width[gi]
        cnt = np.bincount(cell, minlength=len(gcode) * n_buckets)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {"cell": pa.array(nz, pa.int64()),
             "n": pa.array(cnt[nz], pa.int64())}
        )

    hist = combine_small(
        ds.map_batches(hist_partial, fn_kwargs={"ref": rng_ref},
                       batch_format="pyarrow"),
        lambda t: pa.TableGroupBy(t, ["cell"])
        .aggregate([("n", "sum")])
        .rename_columns(["cell", "n"]),
    ).to_pandas()

    # ranks per group: quantile_disc convention ceil(q*n)-1
    import math

    ranks = {
        q: np.array(
            [max(math.ceil(q * int(n)) - 1, 0) for n in counts], np.int64
        )
        for q in qs
    }
    want: dict[int, set[int]] = {i: set() for i in range(len(groups))}
    below_of: dict[tuple[int, int], int] = {}
    for i in range(len(groups)):
        h = hist[(hist["cell"] // n_buckets) == i].sort_values("cell")
        cnt = h["n"].to_numpy(np.int64)
        buckets = (h["cell"] % n_buckets).to_numpy(np.int64)
        cum = np.cumsum(cnt)
        for q in qs:
            j = int(np.searchsorted(cum, ranks[q][i] + 1))
            b = int(buckets[j])
            want[i].add(b)
            below_of[(i, b)] = int(cum[j - 1]) if j else 0
    want_ref = ray.put(want)

    def in_want(t: pa.Table, *, ref, rref) -> pa.Table:
        want = ray.get(ref)
        gcode, lo, width = ray.get(rref)
        c = ints_of(t)
        gi = gidx(t, gcode)
        b = (c - lo[gi]) // width[gi]
        keep = np.fromiter(
            (bb in want[gg] for gg, bb in zip(gi, b)), bool, len(c)
        )
        return pa.table(
            {"gi": pa.array(gi[keep], pa.int64()),
             "b": pa.array(b[keep], pa.int64()),
             "v": pa.array(c[keep], pa.int64())}
        )

    surv = combine_small(
        ds.map_batches(in_want, fn_kwargs={"ref": want_ref, "rref": rng_ref},
                       batch_format="pyarrow"),
        lambda t: t,
    ).to_pandas()

    quants = {q: np.empty(len(groups), np.int64) for q in qs}
    for i in range(len(groups)):
        gs = surv[surv["gi"] == i]
        for q in qs:
            # locate the bucket containing this rank, then index inside it
            h = hist[(hist["cell"] // n_buckets) == i].sort_values("cell")
            cum = np.cumsum(h["n"].to_numpy(np.int64))
            j = int(np.searchsorted(cum, ranks[q][i] + 1))
            b = int((h["cell"] % n_buckets).to_numpy(np.int64)[j])
            vals = np.sort(gs[gs["b"] == b]["v"].to_numpy(np.int64))
            quants[q][i] = int(vals[ranks[q][i] - below_of[(i, b)]])
    return groups, counts, quants


# --------------------------------------------------------------------------
# Winsorized mean per event type: clip values to the exact [p5, p95]
# discrete quantiles, then average — the robust aggregate a quality-score
# pipeline uses so a handful of garbage values cannot move a corpus
# statistic. Quantiles come from the bounded two-pass machinery above
# (no global sort); the clipped sum is one more streaming pass in exact
# integer cents; both engines divide the same two exact ints, so ROUND
# agrees bit-for-bit.
@register(
    "event_value_winsorized_mean",
    sql="""
    WITH e AS (
      SELECT event_type,
             CAST(ROUND(value * 100) AS BIGINT) AS c
      FROM events
    ),
    q AS (
      SELECT event_type,
             quantile_disc(c, 0.05) AS lo,
             quantile_disc(c, 0.95) AS hi,
             count(*) AS n
      FROM e GROUP BY 1
    )
    SELECT e.event_type,
           CAST(max(q.n) AS BIGINT) AS n,
           CAST(max(q.lo) AS DOUBLE) / 100 AS p05,
           CAST(max(q.hi) AS DOUBLE) / 100 AS p95,
           ROUND(SUM(LEAST(GREATEST(e.c, q.lo), q.hi))
                 / (100.0 * count(*)), 4) AS winsorized_mean
    FROM e JOIN q USING (event_type)
    GROUP BY 1
    """,
)
def event_value_winsorized_mean(sf_dir: str):
    ds = table(sf_dir, "events", ["event_type", "value"])

    def cents_of(t: pa.Table) -> np.ndarray:
        return pc.cast(
            pc.round(
                pc.multiply(t["value"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy()

    groups, counts, quants = _exact_group_discrete_quantiles(
        ds, "event_type", cents_of, (0.05, 0.95)
    )
    lo_q, hi_q = quants[0.05], quants[0.95]
    gcode = {g: i for i, g in enumerate(groups)}
    clip_ref = ray.put((gcode, lo_q, hi_q))

    def clipped_partial(t: pa.Table, *, ref) -> pa.Table:
        gcode, lo_q, hi_q = ray.get(ref)
        c = cents_of(t)
        gi = np.fromiter(
            (gcode[g] for g in t["event_type"].to_pylist()),
            np.int64, len(c),
        )
        s = np.bincount(
            gi, weights=np.clip(c, lo_q[gi], hi_q[gi]), minlength=len(gcode)
        )
        return pa.table(
            {
                "gi": pa.array(np.arange(len(gcode)), pa.int64()),
                "s": pa.array(s.astype(np.int64), pa.int64()),
            }
        )

    def final(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("gi", as_index=False).agg(s=("s", "sum"))
        s = np.zeros(len(groups), np.int64)
        s[g["gi"].to_numpy(np.int64)] = g["s"].to_numpy(np.int64)
        return pa.table(
            {
                "event_type": pa.array(groups),
                "n": pa.array(counts, pa.int64()),
                "p05": pa.array(lo_q / 100.0, pa.float64()),
                "p95": pa.array(hi_q / 100.0, pa.float64()),
                "winsorized_mean": pa.array(
                    round_half_away(s / (100.0 * counts), 4), pa.float64()
                ),
            }
        )

    return combine_small(
        ds.map_batches(clipped_partial, fn_kwargs={"ref": clip_ref},
                       batch_format="pyarrow"),
        final,
    )


# --------------------------------------------------------------------------
# Least-squares trendline per (returnflag, linestatus): slope, intercept
# and R² of extendedprice-cents against quantity, from the same six
# streaming moments as the correlation op (bounded partials, no shuffle at
# any scale). The oracle recomputes the identical closed forms from the
# same exact-integer moments — NOT regr_slope() — so both engines evaluate
# the same float expressions on the same inputs.
@register(
    "qty_price_regression_by_flag",
    sql="""
    WITH m AS (
      SELECT l_returnflag, l_linestatus,
             CAST(count(*) AS DOUBLE) AS n,
             CAST(SUM(CAST(l_quantity AS BIGINT)) AS DOUBLE) AS sx,
             CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                  AS DOUBLE) AS sy,
             SUM(CAST(l_quantity AS DOUBLE)
                 * CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS sxy,
             CAST(SUM(CAST(l_quantity AS BIGINT)
                      * CAST(l_quantity AS BIGINT)) AS DOUBLE) AS sxx,
             SUM(CAST(ROUND(l_extendedprice * 100) AS DOUBLE)
                 * CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS syy
      FROM lineitem GROUP BY 1, 2
    )
    SELECT l_returnflag, l_linestatus, CAST(n AS BIGINT) AS n_rows,
           ROUND((n * sxy - sx * sy) / (n * sxx - sx * sx), 4) AS slope,
           ROUND((sy - (n * sxy - sx * sy) / (n * sxx - sx * sx) * sx) / n,
                 4) AS intercept,
           ROUND(POW(n * sxy - sx * sy, 2)
                 / ((n * sxx - sx * sx) * (n * syy - sy * sy)), 6) AS r2
    FROM m
    """,
)
def qty_price_regression_by_flag(sf_dir: str):
    ds = table(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def partial(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy(zero_copy_only=False)
        y = pc.cast(
            pc.round(
                pc.multiply(t["l_extendedprice"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy().astype(np.float64)
        m = pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "n": pa.array(np.ones(len(x)), pa.float64()),
                "sx": pa.array(x, pa.float64()),
                "sy": pa.array(y, pa.float64()),
                "sxy": pa.array(x * y, pa.float64()),
                "sxx": pa.array(x * x, pa.float64()),
                "syy": pa.array(y * y, pa.float64()),
            }
        )
        return (
            pa.TableGroupBy(m, ["l_returnflag", "l_linestatus"])
            .aggregate(
                [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy")]
            )
            .rename_columns(
                ["l_returnflag", "l_linestatus",
                 "n", "sx", "sy", "sxy", "sxx", "syy"]
            )
        )

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby(["l_returnflag", "l_linestatus"], as_index=False)
            .sum()
        )
        n, sx, sy = (g[c].to_numpy() for c in ("n", "sx", "sy"))
        sxy, sxx, syy = (g[c].to_numpy() for c in ("sxy", "sxx", "syy"))
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        intercept = (sy - slope * sx) / n
        r2 = (n * sxy - sx * sy) ** 2 / (
            (n * sxx - sx * sx) * (n * syy - sy * sy)
        )
        return pa.table(
            {
                "l_returnflag": pa.array(g["l_returnflag"]),
                "l_linestatus": pa.array(g["l_linestatus"]),
                "n_rows": pa.array(n.astype(np.int64), pa.int64()),
                "slope": pa.array(round_half_away(slope, 4), pa.float64()),
                "intercept": pa.array(
                    round_half_away(intercept, 4), pa.float64()
                ),
                "r2": pa.array(round_half_away(r2, 6), pa.float64()),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"), final)


# --------------------------------------------------------------------------
# Churn EXCEPT-shape: (user, event_type) pairs active in the first 90% of
# the corpus time range with NO event in the final decile — the "stopped
# doing X" report (a plain per-user half split is degenerate on this
# corpus: every synthetic user stays active, so the anti-set granularity
# is the pair). The cutoff is computed in exact integer microseconds on
# both engines (interval division rounds differently than int floor-div,
# so the SQL replays the same epoch_us arithmetic). Distributed: each
# block emits per-pair (n_early, n_late) count-partials, then one
# bucketed exchange keeps early AND NOT late.
@register(
    "churned_user_event_types",
    sql="""
    WITH b AS (
      SELECT epoch_us(min(ts)) AS lo, epoch_us(max(ts)) AS hi FROM events
    ),
    tagged AS (
      SELECT user_id, event_type,
             epoch_us(ts) < lo + (hi - lo) * 9 // 10 AS in_early
      FROM events, b
    )
    SELECT user_id, event_type,
           CAST(count(*) AS BIGINT) AS n_early
    FROM tagged
    GROUP BY 1, 2
    HAVING bool_or(in_early) AND NOT bool_or(NOT in_early)
    """,
)
def churned_user_event_types(sf_dir: str):
    ds = table(sf_dir, "events", ["user_id", "event_type", "ts"])

    def range_partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        return pa.table(
            {
                "lo": pa.array([int(us.min())], pa.int64()),
                "hi": pa.array([int(us.max())], pa.int64()),
            }
        )

    rng = combine_small(
        ds.map_batches(range_partial, batch_format="pyarrow"),
        lambda t: pa.table(
            {
                "lo": pa.array([pc.min(t["lo"]).as_py()], pa.int64()),
                "hi": pa.array([pc.max(t["hi"]).as_py()], pa.int64()),
            }
        ),
    )
    lo, hi = rng["lo"][0].as_py(), rng["hi"][0].as_py()
    cutoff = lo + (hi - lo) * 9 // 10

    def tag_partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        m = pa.table(
            {
                "user_id": t["user_id"],
                "event_type": t["event_type"],
                "ne": pa.array((us < cutoff).astype(np.int64), pa.int64()),
                "nl": pa.array((us >= cutoff).astype(np.int64), pa.int64()),
            }
        )
        return (
            pa.TableGroupBy(m, ["user_id", "event_type"])
            .aggregate([("ne", "sum"), ("nl", "sum")])
            .rename_columns(["user_id", "event_type", "ne", "nl"])
        )

    def churned(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["user_id", "event_type"], as_index=False).agg(
            ne=("ne", "sum"), nl=("nl", "sum")
        )
        out = out[(out["ne"] > 0) & (out["nl"] == 0)]
        return pd.DataFrame(
            {
                "user_id": out["user_id"].to_numpy(np.int64),
                "event_type": out["event_type"].to_numpy(),
                "n_early": out["ne"].to_numpy(np.int64),
            }
        )

    return bucketed_group_agg(
        ds.map_batches(tag_partial, batch_format="pyarrow"),
        ["user_id", "event_type"],
        churned,
    )


# --------------------------------------------------------------------------
# CUBE aggregate over the routing dimensions: all four grouping sets of
# (lang, source) — the full matrix, both one-dim margins, and the grand
# total — in ONE pass. rollup_revenue covers the hierarchical ROLLUP
# shape; this is the complete lattice. Distributed form: ONLY the finest
# (lang, source) cells ever cross block boundaries (fixed cardinality ≈
# langs × sources), and every coarser grouping set folds from those cells
# on the driver — margins are derived, never re-scanned. NULL margin keys
# are encoded as the sentinel 'ALL' on both engines (the driver's
# value-hash treats NULL and 'ALL' differently, so the SQL replays the
# COALESCE).
@register(
    "doc_lang_source_cube",
    sql="""
    SELECT COALESCE(lang, 'ALL') AS lang,
           COALESCE(source, 'ALL') AS source,
           CAST(count(*) AS BIGINT) AS n,
           CAST(SUM(CAST(n_chars AS BIGINT)) AS BIGINT) AS chars
    FROM documents
    GROUP BY CUBE(lang, source)
    """,
)
def doc_lang_source_cube(sf_dir: str):
    ds = table(sf_dir, "documents", ["lang", "source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        m = pa.table(
            {
                "lang": t["lang"],
                "source": t["source"],
                "chars": pc.cast(t["n_chars"], pa.int64()),
            }
        )
        return (
            pa.TableGroupBy(m, ["lang", "source"])
            .aggregate([([], "count_all"), ("chars", "sum")])
            .rename_columns(["lang", "source", "n", "chars"])
        )

    def final(t: pa.Table) -> pa.Table:
        base = (
            t.to_pandas()
            .groupby(["lang", "source"], as_index=False)
            .agg(n=("n", "sum"), chars=("chars", "sum"))
        )
        by_lang = base.groupby("lang", as_index=False)[["n", "chars"]].sum()
        by_lang["source"] = "ALL"
        by_src = base.groupby("source", as_index=False)[["n", "chars"]].sum()
        by_src["lang"] = "ALL"
        total = pd.DataFrame(
            {"lang": ["ALL"], "source": ["ALL"],
             "n": [base["n"].sum()], "chars": [base["chars"].sum()]}
        )
        out = pd.concat([base, by_lang, by_src, total], ignore_index=True)[
            ["lang", "source", "n", "chars"]
        ]
        out["n"] = out["n"].astype(np.int64)
        out["chars"] = out["chars"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"), final)
