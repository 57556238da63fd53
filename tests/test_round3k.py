"""Session-8 batch C: exact Gini by priority, segment×priority chi-square,
fixed-bin RFM segmentation, Zipf slope — oracle parity plus numeric
ground truths (brute-force Gini, scipy-free chi² identity, Zipf fit via
numpy polyfit)."""

import numpy as np
import pandas as pd
import pytest

from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"

NEW_OPS = [
    "order_value_gini_by_priority",
    "segment_priority_chi2",
    "customer_rfm_segments",
    "token_zipf_slope",
]


@pytest.mark.parametrize("name", NEW_OPS)
def test_new_ops_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_gini_matches_bruteforce(ray_session):
    """Recompute Gini per priority the textbook way — full sort, row
    ranks — and compare against the distinct-value closed-form fold."""
    import duckdb

    got = run_query("order_value_gini_by_priority", SF).set_index(
        "o_orderpriority"
    )
    raw = duckdb.sql(
        f"SELECT o_orderpriority AS p, "
        f"CAST(ROUND(o_totalprice * 100) AS BIGINT) AS v "
        f"FROM read_parquet('{SF}/orders.parquet')"
    ).df()
    for p, g in raw.groupby("p"):
        v = np.sort(g["v"].to_numpy(np.float64))
        n = len(v)
        rn = np.arange(1, n + 1, dtype=np.float64)
        gini = 2.0 * (rn * v).sum() / (n * v.sum()) - (n + 1.0) / n
        assert abs(got.loc[p, "gini"] - gini) < 1e-6
        assert got.loc[p, "n_orders"] == n
    # order value is spread, not concentrated: 0 < gini < 1
    assert ((got["gini"] > 0) & (got["gini"] < 1)).all()


def test_chi2_identities(ray_session):
    """Expected counts must preserve row/column marginals, and chi² terms
    must be non-negative."""
    df = run_query("segment_priority_chi2", SF)
    for key in ("c_mktsegment", "o_orderpriority"):
        marg = df.groupby(key).agg(n=("n", "sum"), e=("expected", "sum"))
        assert np.allclose(marg["n"], marg["e"], atol=1e-3)
    assert (df["chi2_term"] >= 0).all()
    assert df["n"].sum() == df["expected"].sum().round()


def test_rfm_conserves_customers_and_revenue(ray_session):
    import duckdb

    df = run_query("customer_rfm_segments", SF)
    raw = duckdb.sql(
        f"SELECT count(DISTINCT o_custkey) AS n_cust, "
        f"SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS cents "
        f"FROM read_parquet('{SF}/orders.parquet')"
    ).df()
    assert df["n_customers"].sum() == int(raw["n_cust"][0])
    assert abs(df["total_revenue"].sum() - raw["cents"][0] / 100.0) < 0.02
    assert df["f_bin"].between(1, 5).all()


def test_zipf_fit_matches_polyfit(ray_session):
    """The closed-form normal-equation fit must agree with numpy's
    least-squares polyfit on the same 200 (log rank, log freq) points."""
    import re
    from collections import Counter

    import pyarrow.dataset as pads

    got = run_query("token_zipf_slope", SF).iloc[0]
    texts = (
        pads.dataset(f"{SF}/documents.parquet")
        .to_table(columns=["text"])["text"]
        .to_pylist()
    )
    cnt = Counter(w for t in texts for w in re.findall("[a-z0-9]+", t.lower()))
    top = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[: int(got["n_points"])]
    x = np.log10(np.arange(1, len(top) + 1, dtype=np.float64))
    y = np.log10(np.array([c for _, c in top], np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    assert abs(got["zipf_slope"] - slope) < 1e-5
    assert abs(got["zipf_intercept"] - intercept) < 1e-5
    assert got["zipf_slope"] < 0  # frequency decays with rank


def test_chi2_paths_equivalent(ray_session, force_gates):
    from raycrawl.ops import relops2

    def run():
        out = relops2.segment_priority_chi2(SF)
        return norm(out.to_pandas() if not isinstance(out, pd.DataFrame) else out)

    a = run()
    assert force_gates.sides("segment_priority_chi2") == {"customer": True}
    force_gates(False)
    b = run()
    assert force_gates.sides("segment_priority_chi2") == {"customer": False}
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
