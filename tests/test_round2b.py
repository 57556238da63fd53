"""Late-round-2 operator batch: windowed temporal stats, graph PageRank,
multi-hop semi-join, BM25 ranking and corpus-level duplicate-n-gram
analysis — DuckDB-oracle parity at sf0.001 plus the semantic invariants
the hash compare can't see."""

import numpy as np
import pandas as pd
import pytest

from raycrawl.ops import REGISTRY  # noqa: F401  (queries register on import)
from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"


@pytest.mark.parametrize(
    "name",
    [
        "user_interarrival_stats",
        "rolling_value_mean_5",
        "event_type_transitions",
    ],
)
def test_oracle_parity(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_interarrival_single_event_user_yields_nulls():
    """A user with exactly one event has no gaps: AVG/MAX over zero rows is
    NULL on the SQL side, so the bucket kernel must emit nulls, not zeros —
    including when that user sits between multi-event users in the same
    bucket (segment reduction must not leak neighbors' gaps)."""
    from raycrawl.ops.temporal import interarrival_bucket_stats

    g = pd.DataFrame(
        {
            "event_id": [1, 2, 3, 4],
            "user_id": [7, 42, 99, 99],
            "ts": pd.to_datetime(
                [
                    "2024-01-01 00:00",
                    "2024-01-01 00:00",
                    "2024-01-01 00:00",
                    "2024-01-01 00:01",
                ]
            ),
        }
    )
    out = interarrival_bucket_stats(g).set_index("user_id")
    assert out.loc[42, "n_events"] == 1
    assert pd.isna(out.loc[42, "avg_gap_us"])
    assert pd.isna(out.loc[42, "max_gap_us"])
    assert pd.isna(out.loc[7, "avg_gap_us"])
    assert out.loc[99, "max_gap_us"] == 60_000_000


def test_transition_counts_total(ray_session):
    """Per-user pair emission loses exactly one row per user (the first
    event has no predecessor): sum of transition counts = n_events − n_users."""
    got = run_query("event_type_transitions", SF)
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id"])
    assert int(got["n"].sum()) == len(ev) - ev["user_id"].nunique()


@pytest.mark.parametrize(
    "name",
    ["pagerank_cosuppliers", "customers_with_returns_by_nation"],
)
def test_graph_and_semijoin_parity(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_pagerank_join_path_equals_broadcast_path(ray_session, force_gates):
    """The >threshold regime (rank state as a distributed Dataset +
    hash-join per iteration) must produce the same ranks as the broadcast
    regime."""
    from raycrawl.ops.graphops import cosupplier_edges, pagerank

    edges = cosupplier_edges(SF)
    bc = pagerank(edges)  # broadcast regime (10 nodes)
    assert force_gates.sides("pagerank") == {"nodes": True}
    force_gates(False, "nodes")
    jn = pagerank(cosupplier_edges(SF))
    assert force_gates.sides("pagerank") == {"nodes": False}
    if not isinstance(jn, pd.DataFrame):
        jn = jn.to_pandas()
    pd.testing.assert_frame_equal(norm(bc), norm(jn))


def test_pagerank_is_probability_distribution(ray_session):
    """Ranks must sum to 1 (up to rounding) and all be positive."""
    got = run_query("pagerank_cosuppliers", SF)
    assert (got["rank"] > 0).all()
    assert abs(got["rank"].sum() - 1.0) < 1e-6


@pytest.mark.parametrize(
    "name",
    ["bm25_top_docs", "duplicate_ngram_fraction"],
)
def test_text_ranking_parity(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_bm25_scores_bounded_by_idf_sum(ray_session):
    """BM25 term contribution is < idf * (k1 + 1); the total score must sit
    strictly under the sum of idf caps, and be positive for returned docs."""
    got = run_query("bm25_top_docs", SF)
    assert (got["bm25"] > 0).all()
    import duckdb

    n_docs = duckdb.sql(
        f"SELECT count(*) FROM '{SF}/documents.parquet'"
    ).fetchone()[0]
    # df >= 1 for any term that scored a doc -> idf <= ln(n_docs + 0.5/1.5 + 1)
    cap = 3 * np.log(n_docs + 1.0) * 2.2
    assert (got["bm25"] < cap).all()


def test_duplicate_ngram_fraction_bounds(ray_session):
    """dup_frac is a fraction of distinct 5-grams: within [0, 1]; docs with
    fewer than 5 tokens emit no row (matches the SQL oracle)."""
    got = run_query("duplicate_ngram_fraction", SF)
    assert got["dup_frac"].between(0.0, 1.0).all()
    assert (got["n_grams"] > 0).all()
