"""Session-10 relational additions: the remaining multi-dimension TPC-H
join shapes expressible over the testdata schema — nation-pair trade
volume (Q7), national market share inside a region (Q8), part-profit by
supplier nation and year (Q9 analog: the schema has no partsupp, so cost
is ``0.5 * p_retailprice * l_quantity``), the sole-late-shipper supplier
report (Q21 analog: no commit/receipt dates, so "late" is
``l_shipdate > o_orderdate + 60 days``), and important-parts revenue
share (Q11 analog: group-sum vs global-scalar-subquery threshold).

Reference analogs (SURVEY.md §2.4-§2.5): all five generalize the
reference's driver-side multi-frame joins — e.g.
`pages/Postprocess_scripts/Stance_Detection.py:63-114` correlates two
tables through an intermediate adjacency before aggregating, and
`Page__Location_Based_Stance_Detection.py:71-93` computes a share-of-
total ratio against a broadcast dimension — into distributed Ray Data
plans: every dimension side broadcasts as sorted int64 key arrays under
an adaptive gate (``lookup_sorted`` probes inside ``map_batches``; ship
once via ``ray.put``) and hash-joins through ``common.join`` above it;
fixed-cardinality group keys collapse map-side and finish in ONE local
``combine_small``; the only unbounded-key exchange (per-order supplier
sets in the Q21 shape) goes through ``bucketed_group_agg``.

Money is summed as integer cents (``ROUND(x*100)`` half-away-from-zero,
identical on the SQL side) so summation order can never break the
driver's value-hash.
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
    bucketed_group_agg,
    combine_small,
    isin_sorted,
    lookup_sorted,
    table,
    table_num_rows,
)
from .queries import register
from .relops2 import _cents, _ts_us


def _nation_names(sf_dir: str) -> dict[int, str]:
    import pyarrow.dataset as pads

    t = (
        pads.dataset(f"{sf_dir}/nation.parquet")
        .to_table(columns=["n_nationkey", "n_name"])
        .to_pandas()
    )
    return dict(zip(t["n_nationkey"], t["n_name"]))


def _supplier_nation_ref(sf_dir: str):
    """Broadcast suppkey→nationkey as sorted arrays. The supplier table is
    the smallest fact dimension (10k rows per TPC-H SF — 1M rows even at
    SF100, ~16 MB as two int64 arrays), so it always ships via ray.put;
    the orders/customer/part sides are the ones that need join fallbacks."""
    import pyarrow.dataset as pads

    s = (
        pads.dataset(f"{sf_dir}/supplier.parquet")
        .to_table(columns=["s_suppkey", "s_nationkey"])
        .sort_by("s_suppkey")
    )
    return ray.put(tuple(s[c].to_numpy().astype(np.int64)
                         for c in s.column_names))


# --------------------------------------------------------------------------
# TPC-H Q7 — nation-pair trade volume: revenue shipped between two fixed
# nations (supplier side vs customer side, both directions) per ship-year
# inside a two-year window. Plan: supplier→nation broadcasts (bounded, see
# _supplier_nation_ref); the customer side semi-filters orders down to the
# two nations' customers (≈2/25 of orders) and that filtered
# orderkey→cust-nation map broadcasts under the gate / hash-joins above
# it; lineitem streams once, probes both maps, and collapses map-side to
# ≤ 2 directions × 2 years rows per block → one local combine.
_Q7_N1 = "NATION_3"
_Q7_N2 = "NATION_7"
_Q7_LO = "1996-01-01"
_Q7_HI = "1998-01-01"  # exclusive

_Q7_SQL = f"""
SELECT supp_nation, cust_nation, l_year,
       CAST(SUM(cents) AS DOUBLE) / 100 AS revenue
FROM (
  SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
         CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
         CAST(ROUND(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)
           AS cents
  FROM lineitem
    JOIN orders   ON o_orderkey = l_orderkey
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN customer ON c_custkey = o_custkey
    JOIN nation n1 ON n1.n_nationkey = s_nationkey
    JOIN nation n2 ON n2.n_nationkey = c_nationkey
  WHERE ((n1.n_name = '{_Q7_N1}' AND n2.n_name = '{_Q7_N2}')
      OR (n1.n_name = '{_Q7_N2}' AND n2.n_name = '{_Q7_N1}'))
    AND l_shipdate >= TIMESTAMP '{_Q7_LO}'
    AND l_shipdate <  TIMESTAMP '{_Q7_HI}'
) t
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
"""


@register("nation_pair_trade_volume", sql=_Q7_SQL)
def nation_pair_trade_volume(sf_dir: str):
    import pyarrow.dataset as pads

    names = _nation_names(sf_dir)
    by_name = {v: k for k, v in names.items()}
    nk1, nk2 = by_name[_Q7_N1], by_name[_Q7_N2]
    lo_us = int(pd.Timestamp(_Q7_LO).value // 1_000)
    hi_us = int(pd.Timestamp(_Q7_HI).value // 1_000)

    supp_ref = _supplier_nation_ref(sf_dir)

    # customers of the two nations: custkey → nationkey, sorted broadcast
    # (bounded at 2/25 of the customer table; the over-gate path below
    # never materializes it driver-side — it stays a Dataset join side)
    if common.gate("nation_pair_trade_volume", "orders",
                   table_num_rows(sf_dir, "orders"),
                   common.LOOKUP_BROADCAST_MAX):
        cust = pads.dataset(f"{sf_dir}/customer.parquet").to_table(
            columns=["c_custkey", "c_nationkey"],
            filter=pc.field("c_nationkey").isin([nk1, nk2]),
        ).sort_by("c_custkey")
        od = pads.dataset(f"{sf_dir}/orders.parquet").to_table(
            columns=["o_orderkey", "o_custkey"]
        )
        found, onat = lookup_sorted(
            cust["c_custkey"].to_numpy(), od["o_custkey"].to_numpy(),
            cust["c_nationkey"].to_numpy().astype(np.int64),
        )
        od = pa.table({"k": od["o_orderkey"].filter(pa.array(found)),
                       "n": onat[found]}).sort_by("k")
        ord_ref = ray.put((od["k"].to_numpy(), od["n"].to_numpy()))

        def partial(t: pa.Table) -> pa.Table:
            sd = _ts_us(t, "l_shipdate")
            t = t.filter(pa.array((sd >= lo_us) & (sd < hi_us)))
            if not t.num_rows:
                return _q7_empty()
            ok, on = ray.get(ord_ref)
            found_o, cust_nk = lookup_sorted(
                ok, t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64),
                on,
            )
            t = t.filter(pa.array(found_o))
            return _q7_partial(t, cust_nk[found_o], supp_ref, nk1, nk2)

        partials = table(
            sf_dir, "lineitem",
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
             "l_shipdate"],
        ).map_batches(partial, batch_format="pyarrow")
    else:
        cust_ds = (
            table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
            .filter(expr=f"c_nationkey == {nk1} or c_nationkey == {nk2}")
        )
        ord_f = common.join(
            table(sf_dir, "orders", ["o_orderkey", "o_custkey"]), cust_ds,
            "inner", ("o_custkey",), ("c_custkey",),
        ).select_columns(["o_orderkey", "c_nationkey"])

        def ship_window(t: pa.Table) -> pa.Table:
            sd = _ts_us(t, "l_shipdate")
            return t.filter(pa.array((sd >= lo_us) & (sd < hi_us)))

        li = table(
            sf_dir, "lineitem",
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
             "l_shipdate"],
        ).map_batches(ship_window, batch_format="pyarrow")
        joined = common.join(li, ord_f, "inner", ("l_orderkey",),
                             ("o_orderkey",))

        def partial_j(t) -> pa.Table:
            if not t.num_rows:
                return _q7_empty()
            cust_nk = (
                t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            return _q7_partial(t, cust_nk, supp_ref, nk1, nk2)

        partials = joined.map_batches(partial_j, batch_format="pyarrow")

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby(["snk", "cnk", "l_year"], as_index=False)["cents"]
            .sum()
            .sort_values(["snk", "cnk", "l_year"], kind="stable")
        )
        return pa.table(
            {
                "supp_nation": pa.array(g["snk"].map(names), pa.string()),
                "cust_nation": pa.array(g["cnk"].map(names), pa.string()),
                "l_year": pa.array(g["l_year"].to_numpy(np.int64)),
                "revenue": pa.array(
                    g["cents"].to_numpy(np.float64) / 100.0
                ),
            }
        )

    return combine_small(partials, final)


def _q7_empty() -> pa.Table:
    return pa.table(
        {
            "snk": pa.array([], pa.int64()),
            "cnk": pa.array([], pa.int64()),
            "l_year": pa.array([], pa.int64()),
            "cents": pa.array([], pa.int64()),
        }
    )


def _q7_partial(
    t: pa.Table, cust_nk: np.ndarray, supp_ref, nk1: int, nk2: int
) -> pa.Table:
    """Shared Q7 map-side combiner: attach supplier nation from the
    broadcast, keep only the two cross directions, collapse the block to
    (supp_nation, cust_nation, year) cents partials."""
    sk, sv = ray.get(supp_ref)
    _, supp_nk = lookup_sorted(  # FK always present
        sk, t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64), sv
    )
    keep = ((supp_nk == nk1) & (cust_nk == nk2)) | (
        (supp_nk == nk2) & (cust_nk == nk1)
    )
    if not keep.any():
        return _q7_empty()
    tt = t.filter(pa.array(keep))
    yr = pc.year(tt["l_shipdate"]).to_numpy(zero_copy_only=False).astype(np.int64)
    cents = _cents(
        pc.multiply(
            tt["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), tt["l_discount"]),
        )
    )
    m = pa.table(
        {
            "snk": pa.array(supp_nk[keep], pa.int64()),
            "cnk": pa.array(cust_nk[keep], pa.int64()),
            "l_year": pa.array(yr, pa.int64()),
            "cents": cents,
        }
    )
    return (
        pa.TableGroupBy(m, ["snk", "cnk", "l_year"])
        .aggregate([("cents", "sum")])
        .rename_columns(["snk", "cnk", "l_year", "cents"])
    )


# --------------------------------------------------------------------------
# TPC-H Q8 — national market share: of all 'PROMO'-part revenue sold into
# region ASIA during 1996-1997, what fraction per order-year came from
# NATION_7 suppliers. Plan: part keys of the type and the region's
# customer keys broadcast as sorted arrays (both semi-filters); orders
# collapse to an orderkey→year map under the gate / a hash join above it;
# supplier nation probes the bounded broadcast. Group key (year, flag) has
# ≤ 2×n_years rows per block → one local combine computes the ratio.
_Q8_REGION = "ASIA"
_Q8_NATION = "NATION_7"
_Q8_TYPE = "PROMO"
_Q8_LO = "1996-01-01"
_Q8_HI = "1998-01-01"  # exclusive

_Q8_SQL = f"""
SELECT o_year,
       ROUND(CAST(SUM(CASE WHEN target THEN cents ELSE 0 END) AS DOUBLE)
             / SUM(cents), 6) AS mkt_share
FROM (
  SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
         (n1.n_name = '{_Q8_NATION}') AS target,
         CAST(ROUND(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)
           AS cents
  FROM lineitem
    JOIN orders   ON o_orderkey = l_orderkey
    JOIN part     ON p_partkey = l_partkey
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN customer ON c_custkey = o_custkey
    JOIN nation n1 ON n1.n_nationkey = s_nationkey
    JOIN nation n2 ON n2.n_nationkey = c_nationkey
    JOIN region   ON r_regionkey = n2.n_regionkey
  WHERE r_name = '{_Q8_REGION}' AND p_type = '{_Q8_TYPE}'
    AND o_orderdate >= TIMESTAMP '{_Q8_LO}'
    AND o_orderdate <  TIMESTAMP '{_Q8_HI}'
) t
GROUP BY o_year
ORDER BY o_year
"""


@register("nation_market_share", sql=_Q8_SQL)
def nation_market_share(sf_dir: str):
    import pyarrow.dataset as pads

    names = _nation_names(sf_dir)
    by_name = {v: k for k, v in names.items()}
    target_nk = by_name[_Q8_NATION]
    lo_us = int(pd.Timestamp(_Q8_LO).value // 1_000)
    hi_us = int(pd.Timestamp(_Q8_HI).value // 1_000)

    nat = (
        pads.dataset(f"{sf_dir}/nation.parquet")
        .to_table(columns=["n_nationkey", "n_regionkey"])
        .to_pandas()
    )
    reg = (
        pads.dataset(f"{sf_dir}/region.parquet")
        .to_table(columns=["r_regionkey", "r_name"])
        .to_pandas()
    )
    rkey = int(reg.loc[reg["r_name"] == _Q8_REGION, "r_regionkey"].iloc[0])
    region_nks = set(nat.loc[nat["n_regionkey"] == rkey, "n_nationkey"])

    supp_ref = _supplier_nation_ref(sf_dir)

    # one gate for both lookups: the orders side is derived (semi-joined
    # with the region's customers), so it cannot go through common.attach
    op = "nation_market_share"
    if (common.gate(op, "orders", table_num_rows(sf_dir, "orders"),
                    common.LOOKUP_BROADCAST_MAX)
            and common.gate(op, "part", table_num_rows(sf_dir, "part"),
                            common.PART_BROADCAST_MAX)):
        pk = np.sort(
            pads.dataset(f"{sf_dir}/part.parquet")
            .to_table(
                columns=["p_partkey"],
                filter=pc.field("p_type") == _Q8_TYPE,
            )["p_partkey"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        part_ref = ray.put(pk)

        ck = np.sort(
            pads.dataset(f"{sf_dir}/customer.parquet")
            .to_table(
                columns=["c_custkey"],
                filter=pc.field("c_nationkey").isin(sorted(region_nks)),
            )["c_custkey"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        od = pads.dataset(f"{sf_dir}/orders.parquet").to_table(
            columns=["o_orderkey", "o_custkey", "o_orderdate"]
        )
        ts = pc.cast(od["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        in_window = (ts >= lo_us) & (ts < hi_us)
        in_region = isin_sorted(
            ck, od["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        keep = in_window & in_region
        od = pa.table({
            "k": od["o_orderkey"].filter(pa.array(keep)),
            "y": pc.cast(pc.year(od["o_orderdate"]), pa.int64()).filter(
                pa.array(keep)),
        }).sort_by("k")
        ord_ref = ray.put((od["k"].to_numpy(), od["y"].to_numpy()))

        def partial(t: pa.Table) -> pa.Table:
            pkk = ray.get(part_ref)
            is_promo = isin_sorted(
                pkk,
                t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64),
            )
            t = t.filter(pa.array(is_promo))
            if not t.num_rows:
                return _q8_empty()
            ok, oy = ray.get(ord_ref)
            found_o, o_year = lookup_sorted(
                ok,
                t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64),
                oy,
            )
            t = t.filter(pa.array(found_o))
            if not t.num_rows:
                return _q8_empty()
            return _q8_partial(t, o_year[found_o], supp_ref, target_nk)

        partials = table(
            sf_dir, "lineitem",
            ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
             "l_discount"],
        ).map_batches(partial, batch_format="pyarrow")
    else:
        cust_ds = (
            table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
            .filter(
                expr=" or ".join(
                    f"c_nationkey == {k}" for k in sorted(region_nks)
                )
            )
            .select_columns(["c_custkey"])
        )

        def ord_window(t: pa.Table) -> pa.Table:
            ts = _ts_us(t, "o_orderdate")
            t = t.filter(pa.array((ts >= lo_us) & (ts < hi_us)))
            yr = pc.year(t["o_orderdate"])
            return pa.table(
                {
                    "o_orderkey": t["o_orderkey"],
                    "o_custkey": t["o_custkey"],
                    "o_year": pc.cast(yr, pa.int64()),
                }
            )

        ord_f = common.join(
            table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
            .map_batches(ord_window, batch_format="pyarrow"),
            cust_ds, "inner", ("o_custkey",), ("c_custkey",),
        ).select_columns(["o_orderkey", "o_year"])
        part_ds = (
            table(sf_dir, "part", ["p_partkey", "p_type"])
            .filter(expr=f"p_type == '{_Q8_TYPE}'")
            .select_columns(["p_partkey"])
        )
        li = table(
            sf_dir, "lineitem",
            ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
             "l_discount"],
        )
        li = common.join(
            common.join(li, part_ds, "inner", ("l_partkey",), ("p_partkey",)),
            ord_f, "inner", ("l_orderkey",), ("o_orderkey",),
        )

        def partial_j(t) -> pa.Table:
            if not t.num_rows:
                return _q8_empty()
            oy = t["o_year"].to_numpy(zero_copy_only=False).astype(np.int64)
            return _q8_partial(t, oy, supp_ref, target_nk)

        partials = li.map_batches(partial_j, batch_format="pyarrow")

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby(["o_year", "target"], as_index=False)["cents"]
            .sum()
        )
        tot = g.groupby("o_year")["cents"].sum()
        tgt = (
            g[g["target"]]
            .set_index("o_year")["cents"]
            .reindex(tot.index, fill_value=0)
        )
        from .common import round_half_away

        share = round_half_away(
            tgt.to_numpy(np.float64) / tot.to_numpy(np.float64), 6
        )
        return pa.table(
            {
                "o_year": pa.array(tot.index.to_numpy(np.int64)),
                "mkt_share": pa.array(share),
            }
        )

    return combine_small(partials, final)


def _q8_empty() -> pa.Table:
    return pa.table(
        {
            "o_year": pa.array([], pa.int64()),
            "target": pa.array([], pa.bool_()),
            "cents": pa.array([], pa.int64()),
        }
    )


def _q8_partial(
    t: pa.Table, o_year: np.ndarray, supp_ref, target_nk: int
) -> pa.Table:
    sk, sv = ray.get(supp_ref)
    _, snk = lookup_sorted(
        sk, t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64), sv
    )
    target = snk == target_nk
    cents = _cents(
        pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"]),
        )
    )
    m = pa.table(
        {
            "o_year": pa.array(o_year, pa.int64()),
            "target": pa.array(target),
            "cents": cents,
        }
    )
    return (
        pa.TableGroupBy(m, ["o_year", "target"])
        .aggregate([("cents", "sum")])
        .rename_columns(["o_year", "target", "cents"])
    )


# --------------------------------------------------------------------------
# TPC-H Q9 analog — part profit by supplier nation and order year for parts
# whose name contains a token. The schema has no partsupp/ps_supplycost, so
# cost is defined as 0.5 * p_retailprice * l_quantity (stated in the SQL
# oracle identically). Plan: matching parts broadcast partkey→retailprice
# under the gate (join above); orderkey→year broadcast under the gate (join
# above); supplier nation from the bounded broadcast. Group (nation, year)
# is fixed-cardinality → map-side collapse + one local combine.
_Q9_TOKEN = "widget"
_Q9_SQL = f"""
SELECT n_name, o_year, CAST(SUM(cents) AS DOUBLE) / 100 AS profit
FROM (
  SELECT n_name,
         CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
         CAST(ROUND((l_extendedprice * (1 - l_discount)
                     - 0.5 * p_retailprice * l_quantity) * 100) AS BIGINT)
           AS cents
  FROM lineitem
    JOIN orders   ON o_orderkey = l_orderkey
    JOIN part     ON p_partkey = l_partkey
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN nation   ON n_nationkey = s_nationkey
  WHERE p_name LIKE '%{_Q9_TOKEN}%'
) t
GROUP BY n_name, o_year
ORDER BY n_name, o_year
"""


@register("nation_part_profit", sql=_Q9_SQL)
def nation_part_profit(sf_dir: str):
    names = _nation_names(sf_dir)
    supp_ref = _supplier_nation_ref(sf_dir)

    li = table(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
         "l_extendedprice", "l_discount"],
    )
    li = common.attach(
        li, ("part", sf_dir), "p_partkey", ["p_retailprice"], "l_partkey",
        op="nation_part_profit",
        where=pc.match_substring(pc.field("p_name"), _Q9_TOKEN),
    )
    li = common.attach(li, ("orders", sf_dir), "o_orderkey", ["o_orderdate"],
                       "l_orderkey", op="nation_part_profit")

    def partial(t: pa.Table) -> pa.Table:
        sk, sv = ray.get(supp_ref)
        _, nk = lookup_sorted(  # FK always present
            sk, t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64),
            sv,
        )
        ep, disc, qty, rp = (
            t[c].to_numpy(zero_copy_only=False)
            for c in ("l_extendedprice", "l_discount", "l_quantity",
                      "p_retailprice")
        )
        # same IEEE expression as the SQL oracle: ep*(1-disc) - (0.5*rp)*qty
        profit = ep * (1.0 - disc) - (0.5 * rp.astype(np.float64)) * qty
        m = pa.table(
            {
                "nk": pa.array(nk, pa.int64()),
                "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                "cents": _cents(pa.array(profit)),
            }
        )
        return (
            pa.TableGroupBy(m, ["nk", "o_year"])
            .aggregate([("cents", "sum")])
            .rename_columns(["nk", "o_year", "cents"])
        )

    partials = li.map_batches(partial, batch_format="pyarrow")

    def final(t: pa.Table) -> pa.Table:
        df = t.to_pandas().reindex(columns=["nk", "o_year", "cents"])
        g = (
            df.groupby(["nk", "o_year"], as_index=False)["cents"]
            .sum()
            .sort_values(["nk", "o_year"], kind="stable")
        )
        g["n_name"] = g["nk"].map(names)
        g = g.sort_values(["n_name", "o_year"], kind="stable")
        return pa.table(
            {
                "n_name": pa.array(g["n_name"], pa.string()),
                "o_year": pa.array(g["o_year"].to_numpy(np.int64)),
                "profit": pa.array(g["cents"].to_numpy(np.float64) / 100.0),
            }
        )

    return combine_small(partials, final)


# --------------------------------------------------------------------------
# TPC-H Q21 analog — suppliers who were the SOLE late shipper on a
# multi-supplier order ("late" = l_shipdate > o_orderdate + 60 days; the
# schema has no commit/receipt dates). The per-order supplier-set fold is
# the one genuinely unbounded-key exchange in this module: per-block
# partials collapse lineitem to distinct (orderkey, suppkey, max(late))
# rows, the bucketed exchange co-locates each order's suppliers, and the
# per-bucket kernel emits one row per qualifying order — everything after
# is bounded by the supplier table.
_Q21_NATION = "NATION_4"
_Q21_LATE_DAYS = 60

_Q21_SQL = f"""
WITH ol AS (
  SELECT l_orderkey AS okey, l_suppkey AS skey,
         MAX(CASE WHEN l_shipdate > o_orderdate
                       + INTERVAL {_Q21_LATE_DAYS} DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
  GROUP BY l_orderkey, l_suppkey
), agg AS (
  SELECT okey, COUNT(*) AS n_supp, SUM(late) AS n_late,
         MAX(CASE WHEN late = 1 THEN skey END) AS late_supp
  FROM ol GROUP BY okey
)
SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait
FROM agg
  JOIN supplier ON s_suppkey = late_supp
  JOIN nation ON n_nationkey = s_nationkey
WHERE n_supp > 1 AND n_late = 1 AND n_name = '{_Q21_NATION}'
GROUP BY s_name
ORDER BY numwait DESC, s_name
"""

_Q21_LATE_US = _Q21_LATE_DAYS * 86_400 * 1_000_000


@register("sole_late_shipper_suppliers", sql=_Q21_SQL)
def sole_late_shipper_suppliers(sf_dir: str):
    import pyarrow.dataset as pads

    names = _nation_names(sf_dir)
    by_name = {v: k for k, v in names.items()}
    nk = by_name[_Q21_NATION]

    li = table(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])

    joined = common.attach(li, ("orders", sf_dir), "o_orderkey",
                           ["o_orderdate"], "l_orderkey",
                           op="sole_late_shipper_suppliers")

    def partial(t: pa.Table) -> pa.Table:
        late = (
            _ts_us(t, "l_shipdate") > _ts_us(t, "o_orderdate") + _Q21_LATE_US
        ).astype(np.int64)
        m = pa.table(
            {
                "okey": t["l_orderkey"],
                "skey": t["l_suppkey"],
                "late": pa.array(late),
            }
        )
        return (
            pa.TableGroupBy(m, ["okey", "skey"])
            .aggregate([("late", "max")])
            .rename_columns(["okey", "skey", "late"])
        )

    ol = joined.map_batches(partial, batch_format="pyarrow")

    def per_order(g: pd.DataFrame) -> pd.DataFrame:
        # finish the (okey, skey) max-late fold (blocks may split an
        # order), then keep orders with >1 supplier and exactly 1 late one
        g = g.groupby(["okey", "skey"], as_index=False)["late"].max()
        a = g.groupby("okey").agg(
            n_supp=("skey", "size"), n_late=("late", "sum")
        )
        ok = a[(a["n_supp"] > 1) & (a["n_late"] == 1)].index
        late_rows = g[(g["late"] == 1) & g["okey"].isin(ok)]
        # partial count per supplier inside this bucket
        return (
            late_rows.groupby("skey", as_index=False)
            .size()
            .rename(columns={"size": "numwait"})
        )

    partials = bucketed_group_agg(ol, ["okey"], per_order)

    # supplier names of the target nation — bounded broadcast-side lookup
    sup = (
        pads.dataset(f"{sf_dir}/supplier.parquet")
        .to_table(
            columns=["s_suppkey", "s_name"],
            filter=pc.field("s_nationkey") == nk,
        )
        .to_pandas()
    )
    sname = dict(zip(sup["s_suppkey"], sup["s_name"]))

    def final(t: pa.Table) -> pa.Table:
        # partial stream ≤ suppliers × buckets rows — bounded
        g = (
            t.to_pandas()
            .groupby("skey", as_index=False)["numwait"]
            .sum()
        )
        g = g[g["skey"].isin(sname)]
        g["s_name"] = g["skey"].map(sname)
        g = g.sort_values(["numwait", "s_name"],
                          ascending=[False, True], kind="stable")
        return pa.table(
            {
                "s_name": pa.array(g["s_name"], pa.string()),
                "numwait": pa.array(g["numwait"].to_numpy(np.int64)),
            }
        )

    return combine_small(partials, final)


# --------------------------------------------------------------------------
# TPC-H Q11 analog — important parts: parts whose lifetime revenue exceeds
# 1.5× the average per-part revenue (group-sum vs global-scalar-subquery
# threshold; the schema has no partsupp, so revenue stands in for stock
# value). The comparison is pure integer math on both sides
# (cents·n_parts·2 > total·3) so no float epsilon can flip a row. Plan:
# map-side per-part partials → bucketed exchange keyed on l_partkey (one
# row per part) → the threshold needs ALL per-part sums, so the bounded
# per-part table (≤ part-table rows) materializes once and is scanned
# twice (total + filter) without re-executing lineage.
_Q11_SQL = """
WITH pp AS (
  SELECT l_partkey,
         SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                  AS BIGINT)) AS cents
  FROM lineitem GROUP BY l_partkey
)
SELECT l_partkey, CAST(cents AS DOUBLE) / 100 AS revenue
FROM pp
WHERE cents * (SELECT COUNT(*) FROM pp) * 2 > (SELECT SUM(cents) FROM pp) * 3
ORDER BY l_partkey
"""


@register("important_parts_revenue_share", sql=_Q11_SQL)
def important_parts_revenue_share(sf_dir: str):
    li = table(sf_dir, "lineitem", ["l_partkey", "l_extendedprice",
                                    "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        cents = _cents(
            pc.multiply(
                t["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), t["l_discount"]),
            )
        )
        m = pa.table({"l_partkey": t["l_partkey"], "cents": cents})
        return (
            pa.TableGroupBy(m, ["l_partkey"])
            .aggregate([("cents", "sum")])
            .rename_columns(["l_partkey", "cents"])
        )

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("l_partkey", as_index=False)["cents"].sum()

    pp = bucketed_group_agg(
        li.map_batches(partial, batch_format="pyarrow"), ["l_partkey"],
        per_part,
    ).materialize()  # bounded: one row per distinct part

    n_parts = pp.count()
    total = int(pp.sum("cents"))
    rhs = total * 3
    lhs_mult = n_parts * 2

    def keep_important(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table(
                {
                    "l_partkey": pa.array([], pa.int64()),
                    "revenue": pa.array([], pa.float64()),
                }
            )
        cents = t["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = cents * lhs_mult > rhs
        tt = t.filter(pa.array(keep))
        return pa.table(
            {
                "l_partkey": pc.cast(tt["l_partkey"], pa.int64()),
                "revenue": pa.array(
                    tt["cents"].to_numpy(zero_copy_only=False).astype(
                        np.float64
                    )
                    / 100.0
                ),
            }
        )

    return pp.map_batches(keep_important, batch_format="pyarrow").sort(
        "l_partkey"
    )
