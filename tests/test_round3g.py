"""Session-6 operator additions: correlation-from-moments, argmin-winner
leaderboard, big-big conditional join matrix (both branches), date-spine
gap fill, Q22-shaped scalar-threshold anti-join, per-user mode, ordered
string_agg — each pinned to its DuckDB oracle plus the structural
properties the value-hash cannot see."""

import numpy as np
import pandas as pd
import pytest

from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"

NEW_OPS = [
    "price_qty_corr_by_flag",
    "cheapest_supplier_leaderboard",
    "late_shipment_priority_matrix",
    "events_daily_gap_fill",
    "high_balance_inactive_customers",
    "user_top_event_type",
    "region_nation_list",
]


@pytest.mark.parametrize("name", NEW_OPS)
def test_new_ops_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_late_shipment_join_branch_equivalent(ray_session, force_gates):
    """Forcing the orders side over the broadcast gate must route through
    the hash-join path and produce the identical matrix."""
    from raycrawl.ops.relops import late_shipment_priority_matrix

    op = "late_shipment_priority_matrix"
    bcast = late_shipment_priority_matrix(SF).to_pandas()
    assert force_gates.sides(op) == {"orders": True}
    force_gates(False, "orders")
    joined = late_shipment_priority_matrix(SF).to_pandas()
    assert force_gates.sides(op) == {"orders": False}
    pd.testing.assert_frame_equal(
        norm(bcast), norm(joined), check_dtype=False
    )


def test_gap_fill_spine_is_contiguous(ray_session):
    """The day column is exactly one row per calendar day between min and
    max — no gaps, no duplicates — and the zero-filled rows are genuine
    (total n equals the raw event count)."""
    import duckdb

    df = run_query("events_daily_gap_fill", SF).sort_values("day")
    days = df["day"].to_numpy("datetime64[D]")
    assert (np.diff(days) == np.timedelta64(1, "D")).all()
    n_events = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/events.parquet')"
    ).fetchone()[0]
    assert int(df["n"].sum()) == n_events


def test_corr_matches_native_corr(ray_session):
    """The moments formula must agree with DuckDB's numerically-stable
    native corr() to well under the 6-dp rounding the oracle hash uses
    (cents vs dollars scaling cancels in Pearson correlation)."""
    import duckdb

    df = run_query("price_qty_corr_by_flag", SF)
    assert ((df["corr_qty_price"] >= -1) & (df["corr_qty_price"] <= 1)).all()
    native = duckdb.sql(
        f"SELECT l_returnflag, l_linestatus, "
        f"corr(l_quantity, l_extendedprice) AS c "
        f"FROM read_parquet('{SF}/lineitem.parquet') GROUP BY 1, 2"
    ).df().set_index(["l_returnflag", "l_linestatus"])["c"]
    for _, r in df.iterrows():
        want = native.loc[(r["l_returnflag"], r["l_linestatus"])]
        # the op rounds to 6 dp, so agreement is bounded by the half-ulp
        # of that rounding plus float noise
        assert abs(r["corr_qty_price"] - want) < 5.1e-7


def test_leaderboard_conserves_parts(ray_session):
    """Every part with at least one lineitem is won by exactly one
    supplier: the leaderboard counts sum to the distinct traded parts."""
    import duckdb

    df = run_query("cheapest_supplier_leaderboard", SF)
    n_parts = duckdb.sql(
        f"SELECT count(DISTINCT l_partkey) "
        f"FROM read_parquet('{SF}/lineitem.parquet')"
    ).fetchone()[0]
    assert int(df["n_parts_won"].sum()) == n_parts
    assert df["s_suppkey"].is_unique


def test_mode_tiebreak_is_lexicographic(ray_session):
    """Whenever a user's top count is tied, the reported type must be the
    lexicographically smallest among the tied types."""
    import duckdb

    top = run_query("user_top_event_type", SF).set_index("user_id")
    counts = duckdb.sql(
        f"SELECT user_id, event_type, count(*) AS n "
        f"FROM read_parquet('{SF}/events.parquet') GROUP BY 1, 2"
    ).df()
    for uid, g in counts.groupby("user_id"):
        tied = sorted(g[g["n"] == g["n"].max()]["event_type"])
        assert top.loc[uid, "top_type"] == tied[0]
        assert top.loc[uid, "n"] == g["n"].max()


NEW_OPS_B = [
    "image_train_batch_packing",
    "order_price_exact_median_by_priority",
    "open_orders_daily_backlog",
]


@pytest.mark.parametrize("name", NEW_OPS_B)
def test_new_ops_b_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_batch_packing_invariants(ray_session):
    """Within each (bucket, shard): batch ids are contiguous from 0, every
    batch but the last is full, batches never overlap in doc range, and
    the packing conserves the corpus (Σ n_imgs == |documents|)."""
    import duckdb

    from raycrawl.ops.imageprep import PACK_BATCH

    df = run_query("image_train_batch_packing", SF)
    n_docs = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/documents.parquet')"
    ).fetchone()[0]
    assert int(df["n_imgs"].sum()) == n_docs
    assert (df["n_imgs"] <= PACK_BATCH).all()
    assert (df["full"] == (df["n_imgs"] == PACK_BATCH)).all()
    for (_b, _s), g in df.groupby(["bucket", "shard"]):
        g = g.sort_values("batch_id")
        assert list(g["batch_id"]) == list(range(len(g)))
        assert (g["n_imgs"].to_numpy()[:-1] == PACK_BATCH).all()
        # ascending-doc_id packing → batch doc ranges are disjoint, ordered
        assert (g["first_doc"].to_numpy()[1:]
                > g["last_doc"].to_numpy()[:-1]).all()


def test_exact_median_matches_numpy(ray_session):
    """The two-pass bucket refinement must reproduce numpy's exact median
    of the cent values, per priority, bit-for-bit."""
    import duckdb

    df = run_query("order_price_exact_median_by_priority", SF).set_index(
        "o_orderpriority"
    )
    raw = duckdb.sql(
        f"SELECT o_orderpriority, "
        f"CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents "
        f"FROM read_parquet('{SF}/orders.parquet')"
    ).df()
    for p, g in raw.groupby("o_orderpriority"):
        v = np.sort(g["cents"].to_numpy(np.int64))
        n = len(v)
        want = (int(v[(n - 1) // 2]) + int(v[n // 2])) / 2.0 / 100.0
        assert df.loc[p, "median_price"] == want
        assert df.loc[p, "n_orders"] == n


def test_backlog_sweep_invariants(ray_session):
    """The backlog curve starts with the first day's order count, never
    goes negative, ends at zero (every order closes 30 days out), and its
    peak is bounded by the total order count."""
    import duckdb

    df = run_query("open_orders_daily_backlog", SF).sort_values("day")
    n_orders, first_day_n = duckdb.sql(
        f"SELECT count(*), "
        f"(SELECT count(*) FROM read_parquet('{SF}/orders.parquet') "
        f" WHERE date_trunc('day', o_orderdate) = "
        f" (SELECT min(date_trunc('day', o_orderdate)) "
        f"  FROM read_parquet('{SF}/orders.parquet'))) "
        f"FROM read_parquet('{SF}/orders.parquet')"
    ).fetchone()
    curve = df["n_open"].to_numpy()
    assert curve[0] == first_day_n
    assert (curve >= 0).all()
    assert curve[-1] == 0
    assert curve.max() <= n_orders
