"""Session-10 batch: nation-pair trade volume (Q7), national market share
(Q8), part profit by nation/year (Q9 analog), sole-late-shipper suppliers
(Q21 analog), important-parts revenue share (Q11 analog) — oracle parity
plus broadcast/join path equivalence for every adaptive gate."""

import pandas as pd
import pytest

from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"

NEW_OPS = [
    "nation_pair_trade_volume",
    "nation_market_share",
    "nation_part_profit",
    "sole_late_shipper_suppliers",
    "important_parts_revenue_share",
]


@pytest.mark.parametrize("name", NEW_OPS)
def test_new_ops_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


GATED = [
    "nation_pair_trade_volume",
    "nation_market_share",
    "nation_part_profit",
    "sole_late_shipper_suppliers",
]


@pytest.mark.parametrize("name", GATED)
def test_gated_paths_equivalent(ray_session, force_gates, name):
    """Forcing the orders broadcast gate to the partitioned side must flip
    the op onto its distributed join branch and produce identical rows."""
    from raycrawl.ops import relops3

    fn = getattr(relops3, name)

    def run():
        out = fn(SF)
        return norm(out.to_pandas() if not isinstance(out, pd.DataFrame) else out)

    a = run()
    assert set(force_gates.sides(name).values()) == {True}
    force_gates(False, "orders")
    b = run()
    # nation_part_profit attaches part, then orders (common.attach): each
    # side decides on its own rows, so its part side stays small
    want = {"orders": False}
    if name == "nation_part_profit":
        want["part"] = True
    assert force_gates.sides(name) == want
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_q21_late_definition_consistency(ray_session):
    """The Ray-side late flag must replay the SQL's 60-day interval: a
    direct pandas recomputation over the raw tables produces the same
    qualifying-order set."""
    import numpy as np
    import pyarrow.dataset as pads

    li = pads.dataset(f"{SF}/lineitem.parquet").to_table(
        columns=["l_orderkey", "l_suppkey", "l_shipdate"]
    ).to_pandas()
    od = pads.dataset(f"{SF}/orders.parquet").to_table(
        columns=["o_orderkey", "o_orderdate"]
    ).to_pandas()
    m = li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
    m["late"] = (
        m["l_shipdate"] > m["o_orderdate"] + pd.Timedelta(days=60)
    ).astype(int)
    ol = m.groupby(["l_orderkey", "l_suppkey"], as_index=False)["late"].max()
    agg = ol.groupby("l_orderkey").agg(
        n_supp=("l_suppkey", "size"), n_late=("late", "sum")
    )
    qual = agg[(agg["n_supp"] > 1) & (agg["n_late"] == 1)]
    sup = pads.dataset(f"{SF}/supplier.parquet").to_table().to_pandas()
    nat = pads.dataset(f"{SF}/nation.parquet").to_table().to_pandas()
    nk = int(nat.loc[nat["n_name"] == "NATION_4", "n_nationkey"].iloc[0])
    late_sup = ol[(ol["late"] == 1) & ol["l_orderkey"].isin(qual.index)]
    late_sup = late_sup.merge(
        sup[sup["s_nationkey"] == nk], left_on="l_suppkey",
        right_on="s_suppkey",
    )
    want = (
        late_sup.groupby("s_name", as_index=False).size()
        .rename(columns={"size": "numwait"})
    )
    got = run_query("sole_late_shipper_suppliers", SF)
    assert int(got["numwait"].sum()) == int(want["numwait"].sum())
    assert set(got["s_name"]) == set(want["s_name"])


def test_q11_threshold_is_exact_integer_math(ray_session):
    """Every returned part must exceed 1.5x the mean per-part revenue and
    every excluded part must not — recomputed independently in pandas."""
    import pyarrow.dataset as pads
    import numpy as np

    li = pads.dataset(f"{SF}/lineitem.parquet").to_table(
        columns=["l_partkey", "l_extendedprice", "l_discount"]
    ).to_pandas()
    cents = np.round(
        li["l_extendedprice"] * (1 - li["l_discount"]) * 100
    ).astype("int64")
    pp = (
        pd.DataFrame({"l_partkey": li["l_partkey"], "cents": cents})
        .groupby("l_partkey")["cents"].sum()
    )
    total, n = int(pp.sum()), len(pp)
    want = set(pp[pp * n * 2 > total * 3].index)
    got = run_query("important_parts_revenue_share", SF)
    assert set(got["l_partkey"]) == want
