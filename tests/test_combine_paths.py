"""Path equivalence for the final combine: forcing common.bucketed_group_agg
onto its bucketed exchange (as a 100-TB input would) must produce the
identical result its one combine task produces."""

from __future__ import annotations

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _df(obj):
    import pyarrow as pa
    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_top_revenue_orders_paths_agree(ray_session, force_exchange):
    from raycrawl.ops import queries as Q

    fast = _df(Q.REGISTRY["top_revenue_orders"]["fn"](SF))
    force_exchange()
    slow = _df(Q.REGISTRY["top_revenue_orders"]["fn"](SF))
    assert force_exchange.runs  # the forced side ran the exchange
    # top-10 is ordered — compare as-is, not sorted
    pd.testing.assert_frame_equal(
        fast.reset_index(drop=True), slow.reset_index(drop=True)
    )


def test_exact_dedup_docs_paths_agree(ray_session, force_exchange):
    from raycrawl.ops import queries as Q

    fast = _norm(_df(Q.REGISTRY["exact_dedup_docs"]["fn"](SF)))
    force_exchange()
    slow = _norm(_df(Q.REGISTRY["exact_dedup_docs"]["fn"](SF)))
    assert force_exchange.runs  # the forced side ran the exchange
    pd.testing.assert_frame_equal(fast, slow)


def test_exact_dedup_by_hash_paths_agree(ray_session, force_exchange):
    from raycrawl.ops.queries import REGISTRY

    fast = _norm(_df(REGISTRY["exact_dedup_by_hash"]["fn"](SF)))
    force_exchange()
    slow = _norm(_df(REGISTRY["exact_dedup_by_hash"]["fn"](SF)))
    assert force_exchange.runs  # the forced side ran the exchange
    pd.testing.assert_frame_equal(fast, slow)


def test_combine_small_empty_stream(ray_session):
    import pyarrow as pa
    import ray.data

    from raycrawl.ops.common import combine_small

    ds = ray.data.from_arrow(pa.table({"k": pa.array([], pa.string())}))
    out = combine_small(
        ds,
        lambda t: pa.TableGroupBy(t, "k")
        .aggregate([([], "count_all")])
        .rename_columns(["k", "n"]),
    )
    assert out.num_rows == 0
    assert out.column_names == ["k", "n"]


def test_combine_small_fetches_no_partial_block_on_the_driver(ray_session,
                                                              monkeypatch):
    """The final runs in the combine task: the driver ``ray.get``s its
    result, never a partial block."""
    import pyarrow as pa
    import ray.data

    from raycrawl.ops import common

    partials = ray.data.from_arrow(
        [pa.table({"k": [i % 3], "n": [i]}) for i in range(6)]
    ).materialize()
    partial_refs = {ref for bundle in partials.iter_internal_ref_bundles()
                    for ref in bundle.block_refs}
    assert len(partial_refs) == 6
    fetched = []
    get = common.ray.get

    def spy(refs, *args, **kwargs):
        fetched.extend(refs if isinstance(refs, list) else [refs])
        return get(refs, *args, **kwargs)

    monkeypatch.setattr(common.ray, "get", spy)
    out = common.combine_small(
        partials,
        lambda t: pa.TableGroupBy(t, "k").aggregate([("n", "sum")])
        .sort_by("k"),
    )
    assert out.to_pydict() == {"k": [0, 1, 2], "n_sum": [3, 5, 7]}
    assert fetched, "the result comes back through ray.get"
    assert not partial_refs & set(fetched)


def test_union_find_min_label():
    from raycrawl.ops.dedup import _components_min_label

    comp = _components_min_label([(5, 9), (9, 2), (7, 8), (11, 2)])
    assert comp == {5: 2, 9: 2, 2: 2, 11: 2, 7: 7, 8: 7}


def test_minhash_cluster_distributed_components_equivalent(
    ray_session, force_gates, force_exchange
):
    from raycrawl.ops.queries import REGISTRY

    op = "minhash_dedup_clusters"
    fast = _norm(_df(REGISTRY[op]["fn"](SF)))
    assert force_gates.sides(op) == {"verified_pairs": True}
    force_gates(False, "verified_pairs")
    force_exchange()
    slow = _norm(_df(REGISTRY[op]["fn"](SF)))
    assert force_exchange.runs  # the forced side ran the exchange
    assert force_gates.sides(op) == {"verified_pairs": False}
    pd.testing.assert_frame_equal(fast, slow)
    # survivors: exactly one keeper per cluster, keeper is the min doc_id
    keepers = fast[fast["keep"]]
    assert (keepers["doc_id"] == keepers["cluster_id"]).all()
    assert keepers["cluster_id"].is_unique
    assert set(fast["cluster_id"]) == set(keepers["doc_id"])


def test_minhash_candidates_join_tail_equivalent(ray_session, force_gates,
                                                 force_exchange):
    """Above the pair-funnel gate the candidates op must produce the same
    verified pairs via bucketed pair-dedup + Dataset.join text fetch (no
    driver funnel) as the broadcast path does below it."""
    from raycrawl.ops.queries import REGISTRY

    op = "minhash_lsh_candidates"
    force_gates(False, "band_rows")
    force_exchange()
    fast = _norm(_df(REGISTRY[op]["fn"](SF)))
    assert force_gates.sides(op) == {"band_rows": False,
                                     "candidate_pairs": True}
    force_gates(False, "candidate_pairs")
    slow = _norm(_df(REGISTRY[op]["fn"](SF)))
    assert force_exchange.runs  # the forced side ran the exchange
    assert force_gates.sides(op) == {"band_rows": False,
                                     "candidate_pairs": False}
    assert len(fast) > 0  # the fixture corpus has seeded near-dups
    pd.testing.assert_frame_equal(fast, slow)


# Ops whose final exchange is common.bucketed_group_agg: each must match its
# registry SQL both when the partial stream is combined by one task and
# when the bucketed Sort exchange is forced.
USER_OPS = (
    "asof_last_purchase", "user_sessions_30m", "running_event_index",
    "sliding_window_counts", "user_interarrival_stats",
    "rolling_value_mean_5", "event_type_transitions",
    "event_followup_5m_by_type", "user_event_profile",
    "top2_events_per_user",
)
EXCHANGE_OPS = USER_OPS + (
    "label_propagation", "tfidf_top_terms", "customer_urgent_order_stats",
)


def _compare():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", "check_correctness.py")
    spec = importlib.util.spec_from_file_location("check_correctness", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.compare


@pytest.mark.parametrize("branch", ["one_task", "bucketed"])
@pytest.mark.parametrize("name", EXCHANGE_OPS)
def test_exchange_ops_match_sql_on_both_branches(ray_session, force_exchange,
                                                 name, branch):
    from oracle_utils import oracle

    from raycrawl.ops import REGISTRY

    if branch == "bucketed":
        force_exchange()
    got = _df(REGISTRY[name]["fn"](SF))
    assert _compare()(name, got, oracle(name, SF)) == []
    assert bool(force_exchange.runs) == (branch == "bucketed")


# Every other registry op that reaches bucketed_group_agg unpinned at this
# scale: on the forced exchange it must still match its registry SQL (the
# rows-only op: its own one-task result). The exchange counter fails the
# test when an op stops reaching the helper, so the list cannot go stale.
ALSO_REACH_EXCHANGE = (
    "all_priority_customers", "brand_association_rules",
    "brand_type_supplier_counts", "caption_edit_distance_neardups",
    "cheapest_supplier_leaderboard", "churned_user_event_types",
    "crawl_caption_novelty_by_epoch", "crawl_change_rate_by_host",
    "crawl_host_fairness", "crawl_incremental_audit",
    "crawl_inlink_top_pages", "crawl_quota_audit",
    "cumulative_unique_users_daily",
    "customer_cohort_retention", "customer_order_count_distribution",
    "customer_rfm_segments", "doc_dedup_rate_by_source",
    "duplicate_span_removal_stats", "event_type_user_jaccard",
    "events_per_minute", "excess_quantity_suppliers",
    "feature_hash_bucket_stats", "first_touch_event_share",
    "funnel_time_to_convert", "hourly_user_windows",
    "image_dup_keep_best_caption", "image_exact_dedup_bytes",
    "image_phash_band_lsh_pairs", "image_phash_best_resolution",
    "image_train_batch_packing", "important_parts_revenue_share",
    "incremental_novelty_dedup", "kll_quantiles_by_type",
    "large_volume_customers",
    "order_priority_exists_check", "pagerank_cosuppliers",
    "phash_pair_psnr_verify", "pmi_top_bigrams",
    "repeated_paragraph_dedup", "returned_item_report",
    "rolling_7d_distinct_users", "shipping_priority_topk",
    "simhash_dedup_groups", "small_quantity_part_revenue",
    "sole_late_shipper_suppliers", "suppliers_covering_brand",
    "token_zipf_slope", "triangle_count_cosuppliers",
    "url_canonical_dedup_stats", "user_distinct_props_salted",
    "user_funnel_conversion", "user_top_event_type",
)


@pytest.mark.parametrize("name", ALSO_REACH_EXCHANGE)
def test_ops_reaching_the_exchange_match_sql_on_it(ray_session,
                                                    force_exchange, name):
    from oracle_utils import oracle

    from raycrawl.ops import REGISTRY

    want = None
    if REGISTRY[name]["sql"] is None:
        want = _df(REGISTRY[name]["fn"](SF))
    force_exchange()
    got = _df(REGISTRY[name]["fn"](SF))
    assert force_exchange.runs, f"{name} no longer reaches the exchange"
    if want is None:  # crawl-artifact SQL reads what the query published
        want = oracle(name, SF)
    assert _compare()(name, got, want) == []


# Every registry op that reaches common.gate: with every gate forced to its
# partitioned side (hash join, distributed path) it must still match its
# registry SQL (a rows-only op: its own unforced result). An op that
# records no partitioned decision fails the test, so the list cannot go
# stale.
GATED_OPS = (
    "brand_association_rules", "customer_urgent_order_stats",
    "disjunctive_part_revenue", "doc_embedding_label_mix",
    "duplicate_ngram_fraction", "duplicate_ngram_spans",
    "duplicate_span_removal_stats", "label_propagation",
    "late_shipment_priority_matrix", "local_supplier_revenue",
    "minhash_dedup_clusters", "minhash_lsh_candidates",
    "nation_market_share", "nation_pair_trade_volume",
    "nation_part_profit", "nation_revenue_entropy",
    "nation_yoy_revenue_growth", "order_priority_exists_check",
    "pagerank_cosuppliers", "pmi_top_bigrams", "returned_item_report",
    "rollup_revenue", "segment_priority_chi2", "shipping_priority_topk",
    "sole_late_shipper_suppliers", "triangle_count_cosuppliers",
)


@pytest.mark.parametrize("name", GATED_OPS)
def test_gated_ops_match_sql_partitioned(ray_session, force_gates, name):
    from oracle_utils import oracle

    from raycrawl.ops import REGISTRY

    want = None
    if REGISTRY[name]["sql"] is None:
        want = _df(REGISTRY[name]["fn"](SF))
    force_gates(False)
    got = _df(REGISTRY[name]["fn"](SF))
    assert any(not small for *_, small in force_gates.seen), (
        f"{name} no longer reaches a gate")
    if want is None:
        want = oracle(name, SF)
    assert _compare()(name, got, want) == []


@pytest.mark.parametrize("name", USER_OPS + ("incremental_novelty_dedup",))
def test_user_ops_on_empty_events(ray_session, tmp_path, name):
    """An empty events table reads as schema-less blocks; the one-task
    combine returns no rows for it, as the exchange does, instead of
    handing the per-user operator a frame without its columns. The
    novelty counts return no rows either, instead of indexing a Bloom
    partial column the stream never had."""
    import pyarrow.parquet as pq

    from raycrawl.ops import REGISTRY

    schema = pq.read_schema(f"{SF}/events.parquet")
    pq.write_table(schema.empty_table(), str(tmp_path / "events.parquet"))
    assert len(_df(REGISTRY[name]["fn"](str(tmp_path)))) == 0
