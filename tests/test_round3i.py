"""Session-8 batch A: the remaining classic TPC-H join/agg shapes —
Q3 shipping-priority top-k, Q4 EXISTS-as-max semi-join, Q10 returned-item
report, Q19 disjunctive broadcast-join revenue, nation YoY growth (LAG),
supplier dense-rank — oracle parity plus broadcast/join path equivalence
for every adaptive gate."""

import numpy as np
import pandas as pd
import pytest

from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"

NEW_OPS = [
    "shipping_priority_topk",
    "order_priority_exists_check",
    "returned_item_report",
    "disjunctive_part_revenue",
    "nation_yoy_revenue_growth",
    "supplier_rank_in_nation",
]


@pytest.mark.parametrize("name", NEW_OPS)
def test_new_ops_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


# op → the side its first gate sizes (shipping_priority_topk's orders
# gate is reached only when its customers broadcast)
GATED = {
    "shipping_priority_topk": "customer",
    "order_priority_exists_check": "orders",
    "disjunctive_part_revenue": "part",
    "nation_yoy_revenue_growth": "customer",
    "returned_item_report": "orders",
}


@pytest.mark.parametrize("name", GATED, ids=lambda n: f"{n}-broadcast-join")
def test_gated_paths_equivalent(ray_session, force_gates, name):
    """Forcing the broadcast gates to the partitioned side must flip the
    op onto its distributed join branch and produce identical rows."""
    from raycrawl.ops import relops2

    def run():
        out = fn(SF)
        return norm(out.to_pandas() if not isinstance(out, pd.DataFrame) else out)

    fn = getattr(relops2, name)
    a = run()
    assert set(force_gates.sides(name).values()) == {True}
    force_gates(False)
    b = run()
    assert force_gates.sides(name) == {GATED[name]: False}
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_q3_broadcast_customers_join_orders_matches_sql(ray_session,
                                                        force_gates):
    """The branch that broadcasts the segment's customers and hash-joins
    the orders (orders over their bound, customers under theirs) matches
    the SQL."""
    force_gates(False, "orders")
    got = norm(run_query("shipping_priority_topk", SF))
    assert force_gates.sides("shipping_priority_topk") == {
        "customer": True, "orders": False}
    pd.testing.assert_frame_equal(
        got, norm(oracle("shipping_priority_topk", SF)), check_dtype=False)


@pytest.mark.parametrize("orders_small", [True, False],
                         ids=["broadcast", "broadcast+join"])
def test_q3_without_segment_customers_is_empty(ray_session, tmp_path,
                                               force_gates, orders_small):
    """No customer in the Q3 segment: both broadcast-customer branches
    return the SQL's answer (no rows) instead of probing an empty key
    array."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from tests.oracle_utils import TABLES

    for name in TABLES:
        if name != "customer":
            os.symlink(f"{SF}/{name}.parquet", tmp_path / f"{name}.parquet")
    cust = pq.read_table(f"{SF}/customer.parquet")
    pq.write_table(cust.filter(pc.not_equal(cust["c_mktsegment"], "BUILDING")),
                   str(tmp_path / "customer.parquet"))
    force_gates(orders_small, "orders")
    got = run_query("shipping_priority_topk", str(tmp_path))
    assert force_gates.sides("shipping_priority_topk") == {
        "customer": True, "orders": orders_small}
    want = oracle("shipping_priority_topk", str(tmp_path))
    assert len(want) == 0
    assert len(got) == 0


def test_q4_exists_equals_direct_exists(ray_session):
    """max(l_shipdate) > deadline must be exactly EXISTS(any late line) —
    recompute with a direct per-line EXISTS in DuckDB."""
    import duckdb

    got = norm(run_query("order_priority_exists_check", SF))
    want = norm(
        duckdb.sql(
            f"""
            SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_late_orders
            FROM read_parquet('{SF}/orders.parquet')
            WHERE EXISTS (
              SELECT 1 FROM read_parquet('{SF}/lineitem.parquet')
              WHERE l_orderkey = o_orderkey
                AND l_shipdate > o_orderdate + INTERVAL 30 DAY)
            GROUP BY 1
            """
        ).df()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q3_topk_is_globally_correct(ray_session):
    """The per-block top-k merge must equal the true global top-10 —
    recompute the full ranking without LIMIT and take its head."""
    import duckdb

    from raycrawl.ops.relops2 import _Q3_CUT, _Q3_SEG

    got = run_query("shipping_priority_topk", SF)
    full = duckdb.sql(
        f"""
        SELECT o_orderkey,
               SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                        AS BIGINT)) AS cents
        FROM read_parquet('{SF}/customer.parquet') c
          JOIN read_parquet('{SF}/orders.parquet') o ON c_custkey = o_custkey
          JOIN read_parquet('{SF}/lineitem.parquet') l
            ON l_orderkey = o_orderkey
        WHERE c_mktsegment = '{_Q3_SEG}'
          AND o_orderdate < DATE '{_Q3_CUT}'
          AND l_shipdate > DATE '{_Q3_CUT}'
        GROUP BY 1 ORDER BY cents DESC, o_orderkey
        """
    ).df()
    assert list(got["o_orderkey"]) == list(full["o_orderkey"].head(10))
    assert np.allclose(
        got["revenue"].to_numpy(),
        full["cents"].head(10).to_numpy(np.float64) / 100.0,
    )


def test_supplier_rank_dense_and_gaps(ray_session):
    """dense_rank starts at 1 per nation, never skips, and gap_to_prev is
    non-negative with exactly one zero-gap row (the leader) per nation
    unless balances tie."""
    df = run_query("supplier_rank_in_nation", SF)
    for _, g in df.groupby("n_name"):
        ranks = np.sort(g["bal_rank"].unique())
        assert ranks[0] == 1
        assert (np.diff(ranks) == 1).all()
        assert (g["gap_to_prev"] >= 0).all()
