"""Gated ops whose filtered join side is EMPTY, on both sides of every
gate, against their SQL.

The table set is sf0.001 with the rows each op filters for rewritten away
(keys untouched, so every foreign key still resolves):

* no BUILDING customer          → shipping_priority_topk
* no Q19-brand part             → disjunctive_part_revenue
* no order in the Q10 window    → returned_item_report
* no 1-URGENT order             → customer_urgent_order_stats (left outer)
* no PROMO part                 → promo_revenue_by_month
* no Q20 or Q16 part            → excess_quantity_suppliers,
                                  brand_type_supplier_counts

Before ``common.join`` and ``common.lookup_sorted`` 12 of these 14 runs
failed in two ways. The partitioned side raised Ray 2.49's
``ArrowInvalid: No match or multiple matches for key field reference``
from ``Dataset.join`` with an empty side (shipping_priority_topk,
disjunctive_part_revenue, returned_item_report,
customer_urgent_order_stats). The broadcast side raised ``IndexError:
index 0 is out of bounds for axis 0 with size 0`` from the hand-written
probe ``(len(keys) > 0) & (keys[pos_c] == x)``, which still indexes an
empty key array (disjunctive_part_revenue, returned_item_report, and both
runs of the ungated promo_revenue_by_month, excess_quantity_suppliers and
brand_type_supplier_counts)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.oracle_utils import TABLES, norm, oracle, run_query

SF = "/root/testdata/sf0.001"

# op → its gated side (None: the op always broadcasts)
EMPTY_SIDE_OPS = {
    "shipping_priority_topk": "customer",
    "disjunctive_part_revenue": "part",
    "returned_item_report": "orders",
    "customer_urgent_order_stats": "urgent_counts",
    "promo_revenue_by_month": None,
    "excess_quantity_suppliers": None,
    "brand_type_supplier_counts": None,
}


def _replace(t: pa.Table, col: str, values) -> pa.Table:
    return t.set_column(t.column_names.index(col), col,
                        pa.array(values, t.schema.field(col).type))


@pytest.fixture(scope="module")
def empty_side_tables(tmp_path_factory):
    from raycrawl.ops.relops2 import (_Q3_SEG, _Q10_HI, _Q10_LO, _Q16_EXCL,
                                      _Q20_PREFIX)

    d = tmp_path_factory.mktemp("empty_side")
    for name in TABLES:
        if name not in ("customer", "part", "orders"):
            (d / f"{name}.parquet").symlink_to(f"{SF}/{name}.parquet")

    cust = pq.read_table(f"{SF}/customer.parquet")
    seg = cust["c_mktsegment"].to_numpy(zero_copy_only=False)
    cust = _replace(cust, "c_mktsegment",
                    np.where(seg == _Q3_SEG, "FURNITURE", seg))
    pq.write_table(cust, str(d / "customer.parquet"))

    # every part in the one brand Q16 excludes (and no Q19 arm names),
    # no PROMO type, no name with the Q20 prefix
    part = pq.read_table(f"{SF}/part.parquet")
    part = _replace(part, "p_brand", [_Q16_EXCL] * part.num_rows)
    ptype = part["p_type"].to_numpy(zero_copy_only=False)
    part = _replace(part, "p_type",
                    np.where(ptype == "PROMO", "STANDARD", ptype))
    part = _replace(part, "p_name", [
        "x" + n if n.startswith(_Q20_PREFIX) else n
        for n in part["p_name"].to_pylist()
    ])
    pq.write_table(part, str(d / "part.parquet"))

    # no 1-URGENT order; the Q10 window's orders move a year earlier
    orders = pq.read_table(f"{SF}/orders.parquet")
    prio = orders["o_orderpriority"].to_numpy(zero_copy_only=False)
    orders = _replace(orders, "o_orderpriority",
                      np.where(prio == "1-URGENT", "2-HIGH", prio))
    od = orders["o_orderdate"].to_pandas()
    in_window = (od >= pd.Timestamp(_Q10_LO)) & (od < pd.Timestamp(_Q10_HI))
    orders = _replace(orders, "o_orderdate",
                      od.where(~in_window, od - pd.DateOffset(years=1)))
    pq.write_table(orders, str(d / "orders.parquet"))

    # the filtered sides really are empty
    for sql in (
        f"c_mktsegment = '{_Q3_SEG}' FROM customer",
        "p_brand IN ('Brand#12', 'Brand#23', 'Brand#15') FROM part",
        f"p_brand <> '{_Q16_EXCL}' FROM part",
        "p_type = 'PROMO' FROM part",
        f"starts_with(p_name, '{_Q20_PREFIX}') FROM part",
        "o_orderpriority = '1-URGENT' FROM orders",
        f"o_orderdate >= DATE '{_Q10_LO}' AND o_orderdate < DATE "
        f"'{_Q10_HI}' FROM orders",
    ):
        cond, table = sql.rsplit(" FROM ", 1)
        path = d / f"{table}.parquet"
        assert duckdb.sql(f"SELECT count(*) FROM read_parquet('{path}') "
                          f"WHERE {cond}").fetchone() == (0,)
    return str(d)


@pytest.mark.parametrize("small", [True, False],
                         ids=["small-side", "partitioned"])
@pytest.mark.parametrize("name", EMPTY_SIDE_OPS)
def test_empty_filtered_side_matches_sql(ray_session, force_gates,
                                         empty_side_tables, name, small):
    force_gates(small)
    got = run_query(name, empty_side_tables)
    if EMPTY_SIDE_OPS[name] is not None:
        assert force_gates.sides(name)[EMPTY_SIDE_OPS[name]] is small
    want = oracle(name, empty_side_tables)
    assert sorted(got.columns) == sorted(want.columns)
    pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)


def test_lookup_sorted_never_indexes_an_empty_side():
    from raycrawl.ops.common import isin_sorted, lookup_sorted

    keys = np.array([2, 5, 9], np.int64)
    vals = np.array([20, 50, 90], np.int64)
    found, got = lookup_sorted(keys, np.array([1, 5, 9, 12]), vals, fill=-1)
    assert found.tolist() == [False, True, True, False]
    assert got.tolist() == [-1, 50, 90, -1]

    empty = np.array([], np.int64)
    found, got = lookup_sorted(empty, np.array([1, 2]), empty, fill=7)
    assert found.tolist() == [False, False] and got.tolist() == [7, 7]
    assert got.dtype == np.int64
    assert isin_sorted(empty, np.array([3])).tolist() == [False]
    assert len(lookup_sorted(keys, np.array([], np.int64), vals)[1]) == 0


def _case(empty: str) -> tuple[pa.Table, pa.Table]:
    """The stream and the lookup side of the seam tests: key 1 is absent
    from the side, key 4 from the stream; ``empty`` names the side(s)
    ("left", "right", "both") without rows, or none."""
    left = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                     "a": pa.array(["x", "y", "z"])})
    right = pa.table({"rk": pa.array([2, 3, 4], pa.int64()),
                      "b": pa.array([0.5, 1.5, 2.5])})
    if empty in ("left", "both"):
        left = left.slice(0, 0)
    if empty in ("right", "both"):
        right = right.slice(0, 0)
    return left, right


def _arrow_join(left, right, how) -> pa.Table:
    return left.join(right, keys="k", right_keys="rk",
                     join_type=how.replace("_", " "))


def _blocks(ds) -> list[pa.Table]:
    """The blocks themselves: to_pandas drops an empty result's columns."""
    import ray

    return ray.get(ds.to_arrow_refs())


@pytest.mark.parametrize("how", ["inner", "left_outer", "full_outer"])
@pytest.mark.parametrize("empty", ["left", "right", "both"])
def test_join_with_an_empty_side_is_the_arrow_join(ray_session, how, empty):
    """``common.join`` with an empty side starts no shuffle and gives what
    ``pa.Table.join`` gives, columns and types included."""
    import ray.data

    from raycrawl.ops import common

    left, right = _case(empty)
    joined = common.join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                         how, ("k",), ("rk",))
    got = pa.concat_tables(_blocks(joined))
    want = _arrow_join(left, right, how)
    assert got.schema == want.schema
    pd.testing.assert_frame_equal(norm(got.to_pandas()),
                                  norm(want.to_pandas()))


@pytest.mark.parametrize("small", [True, False],
                         ids=["small-side", "partitioned"])
@pytest.mark.parametrize("how", ["inner", "left_outer"])
@pytest.mark.parametrize("empty", ["none", "left", "right", "both"])
def test_attach_is_the_arrow_join(ray_session, force_gates, tmp_path, how,
                                  empty, small):
    """``common.attach`` on either gate side gives what ``pa.Table.join``
    gives on the same cases: the stream's columns, then the side's, typed
    as stored, absent keys dropped (inner) or null (left outer). The side
    is a base table that ``where`` empties. On the small side an empty
    stream gives no columns: Ray skips the probe on an empty block, as it
    skips every pyarrow map there."""
    import pyarrow.compute as pc
    import ray.data

    from raycrawl.ops import common

    left, right = _case(empty)
    pq.write_table(_case("none")[1], str(tmp_path / "side.parquet"))
    force_gates(small)
    joined = common.attach(
        ray.data.from_arrow(left), ("side", str(tmp_path)), "rk", ["b"], "k",
        how, op="attach_test",
        where=pc.field("b") < 0 if empty in ("right", "both") else None)
    assert force_gates.sides("attach_test") == {"side": small}
    blocks = [b for b in _blocks(joined) if b.num_columns]
    want = _arrow_join(left, right, how)
    if not blocks:
        assert small and not left.num_rows
        return
    got = pa.concat_tables(blocks)
    assert got.schema == want.schema
    pd.testing.assert_frame_equal(norm(got.to_pandas()),
                                  norm(want.to_pandas()))


def test_attach_takes_a_materialized_side(ray_session, force_gates):
    """A Dataset side is sized by its row count and looked up the same way
    on both gate sides."""
    import ray.data

    from raycrawl.ops import common

    stream = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    side = ray.data.from_pandas(pd.DataFrame({"rk": [2, 5], "n": [7, 8]}))
    got = {}
    for small in (True, False):
        force_gates(small)
        t = pa.concat_tables(_blocks(common.attach(
            stream, ("counts", side), "rk", ["n"], "k", "left_outer",
            op="attach_test")))
        assert force_gates.seen == [
            ("attach_test", "counts", 2, common.LOOKUP_BROADCAST_MAX, small)]
        got[small] = sorted(zip(t["k"].to_pylist(), t["n"].to_pylist()))
    assert got[True] == got[False] == [(1, None), (2, 7)]
