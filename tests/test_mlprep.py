"""Training-data prep operators (ops/mlprep.py): DuckDB-oracle parity at
sf0.001 plus semantic invariants the SQL compare can't see (zero-fill
outer-join rows, stratum caps, k-means convergence direction)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from raycrawl.ops import REGISTRY  # noqa: F401  (queries register on import)
from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"

@pytest.mark.parametrize(
    "name",
    [
        "group_zscore_events",
        "stratified_sample_docs",
        "customer_urgent_order_stats",
        "parts_price_band_stats",
        "kmeans_embeddings",
        "semdedup_cluster_prune",
    ],
)
def test_oracle_parity(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_outer_join_zero_fills(ray_session):
    """Customers without urgent orders appear with n_urgent=0 — the rows an
    inner join would silently drop."""
    got = run_query("customer_urgent_order_stats", SF)
    n_cust = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/customer.parquet')"
    ).fetchone()[0]
    assert len(got) == n_cust
    zeros = got[got["n_urgent"] == 0]
    assert len(zeros) > 0
    assert (zeros["urgent_spend"] == 0.0).all()


def test_outer_join_paths_equivalent(ray_session, force_gates,
                                    force_exchange):
    """Forcing the Dataset.join LEFT OUTER path (counts gate partitioned)
    must produce exactly the rows of the broadcast-lookup path."""
    op = "customer_urgent_order_stats"
    base = norm(run_query(op, SF))
    assert force_gates.sides(op) == {"urgent_counts": True}
    force_gates(False, "urgent_counts")
    force_exchange()
    joined = norm(run_query(op, SF))
    assert force_exchange.runs  # the forced side ran the exchange
    assert force_gates.sides(op) == {"urgent_counts": False}
    pd.testing.assert_frame_equal(base, joined)


def test_stratified_sample_caps_and_determinism(ray_session):
    from raycrawl.ops.mlprep import STRATUM_N

    got = run_query("stratified_sample_docs", SF)
    per = got.groupby("lang").size()
    assert (per <= STRATUM_N).all()
    again = run_query("stratified_sample_docs", SF)
    pd.testing.assert_frame_equal(
        norm(got), norm(again)
    )  # hash sampling: no RNG, no run-to-run drift


def test_price_bands_partition_all_parts(ray_session):
    got = run_query("parts_price_band_stats", SF)
    n_parts = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/part.parquet')"
    ).fetchone()[0]
    assert got["n_parts"].sum() == n_parts  # bands cover the price domain
    assert (got["band_lo"] < got["band_hi"]).all()


def test_kmeans_update_reduces_inertia(ray_session):
    """One Lloyd step must not increase mean distance-to-centroid: compare
    avg_dist under the updated centroids vs the init assignment."""
    import pyarrow.parquet as pq

    got = run_query("kmeans_embeddings", SF)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    init = m[emb["vec_id"].to_numpy() < len(got)][: len(got)]
    d0 = np.sqrt(((m[:, None, :] - init[None, :, :]) ** 2).sum(2)).min(1)
    total_after = (got["avg_dist"] * got["n"]).sum()
    assert total_after <= d0.sum() + 1e-6
    assert got["n"].sum() == len(emb)


def test_pivot_and_unpivot_oracle_parity(ray_session):
    for name in ("user_event_type_pivot", "part_attributes_unpivot"):
        pd.testing.assert_frame_equal(
            norm(run_query(name, SF)), norm(oracle(name, SF))
        )


def test_pivot_row_totals_match_event_count(ray_session):
    got = run_query("user_event_type_pivot", SF)
    n_events = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/events.parquet')"
    ).fetchone()[0]
    count_cols = [c for c in got.columns if c.startswith("n_")]
    assert int(got[count_cols].to_numpy().sum()) == n_events


def test_semdedup_prune_semantics(ray_session):
    """First-occurrence-wins within a cluster: the lowest vec_id of every
    cluster is always kept, and a pruned point really does have an
    earlier same-cluster point at cosine ≥ τ (recomputed independently
    with plain numpy)."""
    import numpy as np

    from raycrawl.ops.dedup import SEMDEDUP_TAU

    got = run_query("semdedup_cluster_prune", SF).sort_values("vec_id")
    emb = pd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"]).sort_values(
        "vec_id").reset_index(drop=True)
    assert len(got) == len(emb)
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    m = m / np.sqrt((m * m).sum(axis=1, keepdims=True))
    vid_to_row = {v: i for i, v in enumerate(emb["vec_id"])}
    for cl, g in got.groupby("cluster"):
        g = g.sort_values("vec_id").reset_index(drop=True)
        assert bool(g["keep"].iloc[0])  # the earliest point survives
        rows = np.array([vid_to_row[v] for v in g["vec_id"]])
        cos = m[rows] @ m[rows].T
        for j in range(1, len(g)):
            dominated = bool((cos[:j, j] >= SEMDEDUP_TAU - 1e-9).any())
            assert dominated == (not g["keep"].iloc[j]) or (
                abs(cos[:j, j].max() - SEMDEDUP_TAU) < 1e-6
            )
    assert (~got["keep"]).sum() > 0  # pruning actually fired
