"""Scale smoke (VERDICT round-2 item 5): generate an ~sf1.0-sized dataset
under /tmp by deterministic replication of /root/testdata/sf0.1 with key
remapping, then run the gated pipelines + the crawl over it and PROVE —
via the decisions ``ops.common.gate`` returned, and for
``bucketed_group_agg`` via the bucket count its ``group_buckets`` call
returned — that the adaptive operators take their DISTRIBUTED branches on
real over-gate data (not forced decisions), finish, and satisfy cheap
invariants.

Crossed gates at these sizes:
  * documents 2.05M rows, 1 in 500 duplicated into another part file →
    ~2.05M exact_dedup_by_hash partial rows > BUCKET_TARGET_ROWS (2M) →
    bucketed_group_agg takes the bucketed exchange; > 62.5k docs →
    minhash_lsh_candidates distributed band path (1M band-row gate).
  * orders x100 → ~1.3M distinct urgent custkeys > LOOKUP_BROADCAST_MAX
    (1M) → customer_urgent_order_stats LEFT OUTER Dataset.join path.
  * lineitem x10 (6M rows) → the lineitem-keyed combines pick one task or
    the exchange from the partial rows they observe; the JSON line's
    "buckets" lists the bucket count of every bucketed_group_agg call per
    query (1 = one combine task).

Run:  python tools/scale_smoke.py [--dir /tmp/sf_big] [--num-cpus 32]
      (add --keep to skip regeneration when the dir already exists)
Emits one JSON line with per-query wall seconds + the PATH_LOG, suitable
for pasting into BENCH/BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SRC = "/root/testdata/sf0.1"

DOC_REPS = 410          # 410 x 5,000 = 2,050,000 docs  (> 2M gate)
ORDER_REPS = 100        # 100 x 150,000 = 15M orders; ~1.3M urgent custkeys
CUST_REPS = 100         # keyspace matches the order replication
LINEITEM_REPS = 10      # 6M lineitem rows (> 2M gate)
EVENT_REPS = 25         # 2.5M events
DUP_EVERY = 500         # 1 doc in 500 gets an exact duplicate in rep r+1


def _write_parts(out_dir: str, name: str, build_rep, reps: int) -> None:
    """Write <name>.parquet as a DIRECTORY of per-rep part files — the
    resumable/partitioned layout every reader in the repo already handles
    (ray.data.read_parquet and pyarrow.dataset both take directories)."""
    d = os.path.join(out_dir, f"{name}.parquet")
    os.makedirs(d, exist_ok=True)
    for r in range(reps):
        pq.write_table(build_rep(r), os.path.join(d, f"part-{r:04d}.parquet"))


def gen(out_dir: str) -> None:
    t0 = time.perf_counter()
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)

    # small dimension tables: copy as-is
    for name in ("region", "nation", "supplier", "part", "embeddings"):
        shutil.copy(f"{SRC}/{name}.parquet", f"{out_dir}/{name}.parquet")

    docs = pq.read_table(f"{SRC}/documents.parquet")
    n_docs = docs.num_rows
    texts = docs["text"].to_pylist()
    langs = docs["lang"].to_pylist()
    sources = docs["source"].to_pylist()

    def doc_rep(r: int) -> pa.Table:
        # deterministic per-(doc, rep) word permutation → replicas share
        # almost no 3-shingles (no LSH pair explosion); rep 0 keeps the
        # original text; every DUP_EVERY-th doc in an odd rep duplicates
        # its even-rep neighbour exactly → bounded dup groups of size 2
        out_texts = []
        for i, t in enumerate(texts):
            if r == 0:
                out_texts.append(t)
                continue
            if r % 2 == 1 and i % DUP_EVERY == 0:
                rr = r - 1
            else:
                rr = r
            if rr == 0:
                out_texts.append(t)
                continue
            toks = t.split()
            rng = np.random.Generator(np.random.PCG64(rr * 1_000_003 + i))
            perm = rng.permutation(len(toks))
            out_texts.append(" ".join(toks[j] for j in perm) + f" r{rr}")
        ids = pa.array(
            (docs["doc_id"].to_numpy() + r * n_docs).astype(np.int64)
        )
        return pa.table(
            {
                "doc_id": ids,
                "text": pa.array(out_texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
                "source": pa.array(sources, pa.string()),
                "n_chars": pa.array(
                    [len(s) for s in out_texts], pa.int64()
                ),
            }
        )

    _write_parts(out_dir, "documents", doc_rep, DOC_REPS)

    orders = pq.read_table(f"{SRC}/orders.parquet")
    max_ok = int(pa.compute.max(orders["o_orderkey"]).as_py()) + 1
    cust = pq.read_table(f"{SRC}/customer.parquet")
    max_ck = int(pa.compute.max(cust["c_custkey"]).as_py()) + 1

    def order_rep(r: int) -> pa.Table:
        return orders.set_column(
            0, "o_orderkey",
            pa.array(orders["o_orderkey"].to_numpy() + r * max_ok),
        ).set_column(
            1, "o_custkey",
            pa.array(orders["o_custkey"].to_numpy() + r * max_ck),
        )

    _write_parts(out_dir, "orders", order_rep, ORDER_REPS)

    def cust_rep(r: int) -> pa.Table:
        return cust.set_column(
            0, "c_custkey",
            pa.array(cust["c_custkey"].to_numpy() + r * max_ck),
        )

    _write_parts(out_dir, "customer", cust_rep, CUST_REPS)

    li = pq.read_table(f"{SRC}/lineitem.parquet")

    def li_rep(r: int) -> pa.Table:
        # orderkey offsets track the first LINEITEM_REPS order replicas, so
        # lineitem⋈orders stays a real FK join at 10x volume
        return li.set_column(
            0, "l_orderkey",
            pa.array(li["l_orderkey"].to_numpy() + r * max_ok),
        )

    _write_parts(out_dir, "lineitem", li_rep, LINEITEM_REPS)

    ev = pq.read_table(f"{SRC}/events.parquet")
    max_eid = int(pa.compute.max(ev["event_id"]).as_py()) + 1
    max_uid = int(pa.compute.max(ev["user_id"]).as_py()) + 1

    def ev_rep(r: int) -> pa.Table:
        return ev.set_column(
            0, "event_id", pa.array(ev["event_id"].to_numpy() + r * max_eid)
        ).set_column(
            2, "user_id", pa.array(ev["user_id"].to_numpy() + r * max_uid)
        )

    _write_parts(out_dir, "events", ev_rep, EVENT_REPS)
    print(f"# generated {out_dir} in {time.perf_counter() - t0:.1f}s",
          file=sys.stderr)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", default="/tmp/sf_big")
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", 32)))
    ap.add_argument("--keep", action="store_true",
                    help="reuse an existing generated dir")
    args = ap.parse_args()

    if not (args.keep and os.path.isdir(args.dir)):
        gen(args.dir)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False)

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from raycrawl.ops import REGISTRY, common
    from raycrawl.ops.common import PATH_LOG, table_num_rows

    n_docs = table_num_rows(args.dir, "documents")
    n_cust = table_num_rows(args.dir, "customer")

    results: dict[str, float] = {}
    checks: dict[str, bool] = {}
    # bucketed_group_agg's branch, counted the way the tests' force_exchange
    # fixture counts it: a wrapper around its one decision, group_buckets
    # (1 bucket = one combine task, more = the bucketed Sort exchange)
    buckets: dict[str, list[int]] = {}
    calls: list[int] = []
    group_buckets = common.group_buckets

    def counted(rows: int) -> int:
        calls.append(group_buckets(rows))
        return calls[-1]

    common.group_buckets = counted

    # every gate decision since the last query started, recorded the way
    # the tests' force_gates fixture records it: a wrapper around
    # common.gate; a side in ``partitioned`` is sent to its partitioned
    # branch as rows one over its bound would be
    decisions: list[tuple[str, str, bool]] = []
    partitioned: set[str] = set()
    gate = common.gate

    def recorded(op: str, side: str, rows: int, bound: int) -> bool:
        small = gate(op, side, max(rows, bound + 1)
                     if side in partitioned else rows, bound)
        decisions.append((op, side, small))
        return small

    common.gate = recorded

    def took(op: str, side: str) -> bool | None:
        """The last decision of ``op``'s ``side`` gate (True = small side),
        None when the gate was not reached."""
        hits = [s for o, sd, s in decisions if (o, sd) == (op, side)]
        return hits[-1] if hits else None

    def run(name: str):
        import pandas as pd

        calls.clear()
        decisions.clear()
        t0 = time.perf_counter()
        out = REGISTRY[name]["fn"](args.dir)
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()  # Dataset or pyarrow.Table
        results[name] = round(time.perf_counter() - t0, 3)
        if calls:
            buckets[name] = list(calls)
        print(f"# {name}: {results[name]}s, {len(out)} rows", file=sys.stderr)
        return out

    dd = run("exact_dedup_by_hash")
    checks["exact_dedup_distributed"] = max(
        buckets.get("exact_dedup_by_hash", [1])) > 1
    # every doc lands in exactly one group; DUP_EVERY seeding → dup groups
    checks["exact_dedup_mass"] = int(dd["group_size"].sum()) == n_docs
    checks["exact_dedup_has_dups"] = int((dd["group_size"] > 1).sum()) > 0

    cu = run("customer_urgent_order_stats")
    checks["urgent_stats_distributed"] = (
        took("customer_urgent_order_stats", "urgent_counts") is False
    )
    checks["urgent_stats_one_row_per_customer"] = len(cu) == n_cust

    mh = run("minhash_lsh_candidates")
    checks["minhash_distributed"] = (
        took("minhash_lsh_candidates", "band_rows") is False
        and took("minhash_lsh_candidates", "candidate_pairs") is True
    )
    # the seeded exact duplicates must be found (Jaccard 1.0 pairs exist)
    checks["minhash_found_seeded_dups"] = (
        len(mh) > 0 and float(mh["jaccard"].max()) >= 0.999
    )

    # round-4: the pair-funnel tail on a MIRROR-HEAVY corpus. 7,200
    # clusters × 10 identical docs → 72k docs × 16 bands = 1.15M band rows
    # (> the 1M band gate → distributed path) and 45 pairs × 16 bands ×
    # 7,200 = ~5.18M raw pair rows (> LSH_PAIR_FUNNEL_MAX_PAIRS) → the
    # bucketed-pair-dedup + Dataset.join verification branch must fire on
    # real over-gate data and find exactly 45 pairs per cluster, all at
    # Jaccard 1.0 — no driver funnel.
    import pandas as _pd

    mh_dir = os.path.join(args.dir, "_mhjoin")
    dloc = os.path.join(mh_dir, "documents.parquet")
    n_clusters, copies = 7200, 10
    if not os.path.isdir(dloc):
        os.makedirs(dloc, exist_ok=True)
        ids, texts = [], []
        for c in range(n_clusters):
            # every token carries the cluster id: members share ALL
            # shingles (Jaccard 1.0), distinct clusters share NONE (no
            # accidental cross-cluster candidates)
            txt = " ".join(f"w{c}x{j}" for j in range(12))
            ids.extend(range(c * copies, (c + 1) * copies))
            texts.extend([txt] * copies)
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(texts)}),
            os.path.join(dloc, "part-0000.parquet"),
        )
    decisions.clear()
    t0 = time.perf_counter()
    mj = REGISTRY["minhash_lsh_candidates"]["fn"](mh_dir)
    if not isinstance(mj, _pd.DataFrame):
        mj = mj.to_pandas()
    results["minhash_lsh_candidates_join_tail"] = round(
        time.perf_counter() - t0, 3
    )
    print(f"# minhash join tail: {results['minhash_lsh_candidates_join_tail']}s,"
          f" {len(mj)} pairs", file=sys.stderr)
    checks["minhash_join_branch"] = (
        took("minhash_lsh_candidates", "candidate_pairs") is False
    )
    checks["minhash_join_pair_count"] = (
        len(mj) == n_clusters * copies * (copies - 1) // 2
        and not mj.duplicated(["a", "b"]).any()
    )
    checks["minhash_join_all_exact"] = float(mj["jaccard"].min()) >= 0.999

    for name in ("pricing_summary", "top_revenue_orders", "regional_revenue",
                 "rollup_revenue", "events_per_minute", "hourly_user_windows",
                 "doc_quality_scores", "simhash_dedup_groups"):
        run(name)

    # round-3 additions at 2.05M docs / 2.5M events
    ab = run("image_aspect_bucket_routing")
    checks["aspect_buckets_cover_corpus"] = int(ab["n"].sum()) == n_docs
    px = run("image_channel_pixel_stats")  # decodes 2.05M synthetic images
    checks["pixel_stats_plausible"] = (
        len(px) == 3 and all(0 < m < 255 for m in px["mean"])
    )
    nv = run("incremental_novelty_dedup")
    checks["novelty_consistent"] = int(nv["n_new"][0]) == int(
        nv["n_known"][0]
    ) + int(nv["n_novel"][0])
    run("webdataset_shard_stats")
    run("crawl_trap_url_flags")
    run("url_canonical_dedup_stats")

    # round-3 session-3 additions
    lp = run("image_phash_band_lsh_pairs")  # 4×n band rows, bucketed
    # every (2k, 2k+1) planted pair found exactly once at 2M+ docs
    checks["phash_lsh_all_pairs"] = len(lp) >= n_docs // 2 and not (
        lp.duplicated(["image_a", "image_b"]).any()
    )
    br = run("image_phash_best_resolution")
    # exact-phash groups = odd-id%3==0 pairs → n_docs//6 ± boundary
    checks["phash_bestres_group_count"] = abs(len(br) - n_docs / 6) < 2
    sp = run("duplicate_ngram_spans")  # >500k docs → shuffle branch
    checks["dup_spans_distributed"] = (
        took("duplicate_ngram_spans", "documents") is False
    )
    checks["dup_spans_found_seeded"] = len(sp) > 0
    run("knn_label_recall")

    # round-3 session-5 additions at 15M orders / 6M lineitem
    cr = run("customer_cohort_retention")  # ~1.5M-customer bucketed groupby
    base = cr[cr["offset_years"] == 0].set_index("cohort_year")[
        "n_customers"
    ]
    checks["cohort_offsets_bounded"] = bool(
        (cr["offset_years"] >= 0).all()
        and all(
            (g["n_customers"] <= base[cy]).all()
            for cy, g in cr.groupby("cohort_year")
        )
    )
    ps = run("supplier_pareto_share")
    checks["pareto_share_sums_to_one"] = (
        abs(float(ps["cum_share"].max()) - 1.0) < 1e-6
    )
    tb = run("nation_trade_balance")  # broadcast lookups over 6M+15M rows
    checks["trade_balance_consistent"] = bool(
        np.allclose(tb["trade_balance"],
                    tb["supply_revenue"] - tb["purchase_spend"], atol=0.02)
    )
    run("orders_seasonality_index")

    # round-3 session-6 additions at 2.05M docs / 15M orders / 6M lineitem
    bp = run("image_train_batch_packing")  # 2.05M docs, 448 pack cells
    checks["batch_packing_conserves_corpus"] = int(bp["n_imgs"].sum()) == n_docs
    md = run("order_price_exact_median_by_priority")  # 15M-order 2-pass
    n_orders = table_num_rows(args.dir, "orders")
    checks["median_covers_all_orders"] = int(md["n_orders"].sum()) == n_orders
    bl = run("open_orders_daily_backlog")
    curve = bl.sort_values("day")["n_open"].to_numpy()
    checks["backlog_sweep_closes"] = bool(
        (curve >= 0).all() and curve[-1] == 0
    )
    lt = run("late_shipment_priority_matrix")  # 15M orders > 1M gate
    checks["late_matrix_join_branch"] = (
        took("late_shipment_priority_matrix", "orders") is False
    )
    checks["late_matrix_bounded"] = bool(
        (lt["n_late"] <= lt["n_lines"]).all()
        and int(lt["n_lines"].sum()) == table_num_rows(args.dir, "lineitem")
    )
    ut = run("user_top_event_type")  # 2.5M events bucketed mode
    checks["user_mode_one_row_per_user"] = ut["user_id"].is_unique
    cw = run("cheapest_supplier_leaderboard")  # 6M lineitem argmin
    checks["leaderboard_unique_suppliers"] = (
        len(cw) > 0 and cw["s_suppkey"].is_unique
    )
    pcf = run("price_qty_corr_by_flag")  # moments partials, no shuffle
    checks["corr_in_range"] = bool(
        ((pcf["corr_qty_price"] >= -1) & (pcf["corr_qty_price"] <= 1)).all()
    )
    run("high_balance_inactive_customers")

    # round-3 session-8 additions: 15M customers > 2M broadcast gate and
    # 15M orders > 1M gate → the Q3/Q4/YoY ops must take their JOIN
    # branches on real data (path-equivalence pytests cover parity)
    st = run("shipping_priority_topk")
    checks["q3_join_branch"] = (
        took("shipping_priority_topk", "customer") is False
    )
    checks["q3_topk_shape"] = bool(
        len(st) == 10 and st["revenue"].is_monotonic_decreasing
    )
    oc = run("order_priority_exists_check")
    checks["q4_join_branch"] = (
        took("order_priority_exists_check", "orders") is False
    )
    checks["q4_counts_bounded"] = int(oc["n_late_orders"].sum()) <= n_orders
    yy = run("nation_yoy_revenue_growth")
    checks["yoy_join_branch"] = (
        took("nation_yoy_revenue_growth", "customer") is False
    )
    # (groupby().first() skips NaN — index the min-year row directly)
    checks["yoy_first_year_null"] = bool(
        yy.loc[yy.groupby("n_name")["yr"].idxmin(), "yoy_growth"]
        .isna().all()
    )
    rr = run("returned_item_report")
    checks["q10_top20"] = bool(
        len(rr) == 20 and rr["revenue"].is_monotonic_decreasing
    )
    tc = run("triangle_count_cosuppliers")
    checks["triangles_le_wedges"] = bool(
        int(tc["n_triangles"][0]) <= int(tc["n_wedges"][0])
    )
    pm = run("pmi_top_bigrams")  # 2.05M docs, 3 streaming scans
    checks["pmi_support_floor"] = bool((pm["n_pair"] >= 5).all())
    hk = run("doc_hamming_knn")  # 2.05M fingerprints scanned per query
    checks["hamming_k_per_query"] = bool(
        hk.groupby("qid").size().eq(5).all()
    )
    fh = run("feature_hash_bucket_stats")
    checks["fhash_conserves_vocab"] = bool(
        len(fh) <= 256 and (fh["n_distinct_tokens"] >= 1).all()
    )
    run("doc_vocab_richness")

    # session-8 batches D-F at 15M orders / 6M lineitem / 2.5M events
    gn = run("order_value_gini_by_priority")
    checks["gini_in_unit_interval"] = bool(
        ((gn["gini"] > 0) & (gn["gini"] < 1)).all()
        and int(gn["n_orders"].sum()) == n_orders
    )
    cs = run("segment_priority_chi2")
    checks["chi2_join_branch"] = (
        took("segment_priority_chi2", "customer") is False
    )
    checks["chi2_marginals"] = int(cs["n"].sum()) == n_orders
    rf = run("customer_rfm_segments")
    checks["rfm_conserves_customers"] = (
        int(rf["n_customers"].sum()) <= n_cust
    )
    run("token_zipf_slope")
    eq = run("excess_quantity_suppliers")
    checks["dominance_nonempty"] = len(eq) > 0
    bt = run("brand_type_supplier_counts")
    checks["q16_counts_bounded"] = bool(
        (bt["supplier_cnt"] >= 1).all()
    )
    run("event_peak_hour_by_type")
    bf = run("order_value_benford_digits")
    checks["benford_shares_sum"] = abs(float(bf["share"].sum()) - 1.0) < 1e-4
    run("event_hourly_autocorr")
    ej = run("event_type_user_jaccard")
    checks["jaccard_bounded"] = bool(
        ((ej["jaccard"] >= 0) & (ej["jaccard"] <= 1)).all()
    )
    ne = run("nation_revenue_entropy")
    checks["entropy_join_branch"] = (
        took("nation_revenue_entropy", "customer") is False
    )
    checks["entropy_normalized"] = bool(
        0 <= float(ne["normalized_entropy"][0]) <= 1
    )
    tg = run("triangle_count_cosuppliers")
    checks["triangle_bitset_branch"] = (
        took("cosupplier_edges", "supplier") is True
    )
    checks["triangles_le_wedges_2"] = bool(
        int(tg["n_triangles"][0]) <= int(tg["n_wedges"][0])
    )

    # round-3 session-9 additions at 2.05M docs / 15M orders / 6M
    # lineitem / 2.5M events
    dw = run("dsir_importance_weights")  # 2.05M docs, two streaming scans
    checks["dsir_scores_every_doc"] = len(dw) == n_docs
    checks["dsir_finite"] = bool(np.isfinite(dw["logw"]).all())
    cb = run("ccnet_perplexity_buckets")
    checks["ccnet_covers_corpus"] = len(cb) == n_docs
    sizes = cb.groupby(["lang", "bucket"]).size().unstack(fill_value=0)
    n_lang = cb.groupby("lang").size()
    checks["ccnet_terciles_even"] = bool(
        (sizes.get("head", 0) >= n_lang // 3).all()
    )
    sd = run("semdedup_cluster_prune")
    checks["semdedup_covers_vectors"] = (
        len(sd) == table_num_rows(args.dir, "embeddings")
    )
    checks["semdedup_pruned_and_kept"] = bool(
        sd["keep"].any() and (~sd["keep"]).any()
    )
    r7 = run("rolling_7d_distinct_users")  # 2.5M events, two pair dedups
    ev_users = pq.read_table(
        os.path.join(args.dir, "events.parquet"), columns=["user_id"]
    )["user_id"]
    import pyarrow.compute as _pc

    n_users_total = len(_pc.unique(ev_users))
    checks["rolling7_bounded_by_universe"] = bool(
        (r7["n_users"] <= n_users_total).all() and len(r7) > 0
    )
    ft = run("first_touch_event_share")
    checks["first_touch_partitions_users"] = (
        int(ft["n_users"].sum()) == n_users_total
    )
    rr30 = run("orders_rolling_30d_revenue")  # 15M orders, exact cents
    checks["rolling30_window_identity"] = bool(
        (rr30["rolling_30d"] >= rr30["revenue"] - 1e-9).all()
    )
    dv = run("suppliers_covering_brand")  # 6M lineitem distinct pairs
    checks["division_counts_bounded"] = bool(
        len(dv) > 0 and (dv["n_covered"] >= 1).all()
    )
    sk = run("part_type_price_skyline")
    checks["skyline_every_type_represented"] = (
        sk["p_type"].nunique()
        == pq.read_table(os.path.join(args.dir, "part.parquet"),
                         columns=["p_type"]).to_pandas()["p_type"].nunique()
    )

    # round-3 session-10 additions: 15M orders > 1M gate → the Q7/Q8/Q9
    # shapes must take their JOIN branches on real data; Q21's per-order
    # fold and Q11's per-part fold run their bucketed exchanges at 6M
    # lineitem rows; the telemetry ops stream 2.05M docs / 2.5M events
    tv = run("nation_pair_trade_volume")
    checks["q7_join_branch"] = (
        took("nation_pair_trade_volume", "orders") is False
    )
    checks["q7_both_directions"] = bool(
        tv["supp_nation"].nunique() == 2 and (tv["revenue"] > 0).all()
    )
    ms = run("nation_market_share")
    checks["q8_join_branch"] = took("nation_market_share", "orders") is False
    checks["q8_share_in_unit_interval"] = bool(
        ((ms["mkt_share"] >= 0) & (ms["mkt_share"] <= 1)).all()
    )
    pf = run("nation_part_profit")
    checks["q9_join_branch"] = took("nation_part_profit", "orders") is False
    checks["q9_all_nations_all_years"] = bool(
        pf["n_name"].nunique() == 25 and len(pf) > 25
    )
    sl = run("sole_late_shipper_suppliers")
    checks["q21_join_branch"] = (
        took("sole_late_shipper_suppliers", "orders") is False
    )
    checks["q21_nonempty_and_positive"] = bool(
        len(sl) > 0 and (sl["numwait"] >= 1).all()
    )
    ip = run("important_parts_revenue_share")
    checks["q11_selective"] = bool(0 < len(ip))
    tf = run("doc_token_fertility_by_lang")
    checks["fertility_plausible"] = bool(
        ((tf["tokens_per_char"] > 0) & (tf["tokens_per_char"] < 1)).all()
    )
    dr = run("doc_dedup_rate_by_source")
    checks["dedup_rate_found_replicas"] = bool(
        (dr["dup_rate"] > 0).any()  # the smoke corpus is seeded replicas
        and int(dr["n_docs"].sum()) == n_docs
    )
    ad = run("event_above_average_days")
    checks["above_avg_days_nonempty"] = len(ad) > 0
    cu = run("cumulative_unique_users_daily")
    checks["cumulative_users_monotone"] = bool(
        cu["cum_users"].is_monotonic_increasing
        and int(cu["new_users"].sum()) == int(cu["cum_users"].iloc[-1])
    )

    # round-4 additions at 2.05M docs / 2.5M events / 6M lineitem: blocked
    # edit-distance pairs (every rep-0↔rep-1 exact duplicate shares a
    # block and has distance 0), brand rules (full 300-pair lattice at
    # this density, lift finite and positive), and the KS drift pass
    # (replicated halves → small stat, masses reconcile to the corpus)
    ed = run("caption_edit_distance_neardups")
    checks["editdist_found_seeded_dups"] = bool(
        len(ed) > 0 and int((ed["edit_dist"] == 0).sum()) > 0
    )
    checks["editdist_within_threshold"] = bool((ed["edit_dist"] <= 5).all())
    ar = run("brand_association_rules")
    checks["assoc_rules_lift_positive"] = bool(
        len(ar) > 0 and (ar["lift"] > 0).all()
        and (ar["confidence"] <= 1.0).all()
    )
    ks = run("event_value_ks_drift")
    checks["ks_mass_reconciles"] = (
        int((ks["n_early"] + ks["n_late"]).sum()) == len(ev_users)
    )
    checks["ks_stat_in_unit_interval"] = bool(
        ((ks["ks_stat"] >= 0) & (ks["ks_stat"] <= 1)).all()
    )
    fl = run("funnel_time_to_convert")
    checks["funnel_latency_positive"] = bool(
        len(fl) == 2 and (fl["n_users"] > 0).all()
        and (fl["mean_latency_s"] > 0).all()
        and (fl["max_latency_s"] >= fl["mean_latency_s"]).all()
    )
    eh = run("equi_depth_value_histogram")
    checks["equi_depth_mass"] = int(eh["n"].sum()) == len(ev_users)
    checks["equi_depth_monotone_edges"] = bool(
        eh["hi_edge"].is_monotonic_increasing
    )
    kq = run("kll_value_quantiles")
    checks["kll_exact_mass"] = int(kq["n"].iloc[0]) == len(ev_users)
    # the sketch's p50 must land inside the exact equi-depth p37.5-p62.5
    # band — a 2.5M-row rank-error check without materializing a sort
    p50 = float(kq.loc[kq["quantile"] == "p50", "value"].iloc[0])
    checks["kll_p50_in_band"] = bool(
        float(eh["hi_edge"].iloc[2]) <= p50 <= float(eh["hi_edge"].iloc[4])
    )

    # label propagation at a 2M-user / 6M-edge set (round-4 judge item
    # #2): the vote attach is vectorized and the A4 argmax-with-margin
    # runs in bucketed_group_agg, so the driver only ever sees the
    # ≤1-row-per-user winner table. Graph: user u has 3 edges to seed
    # u%3 → margin 3 passes the gate and the expected labels are
    # analytic. Forced join attach (its "labels" gate sent partitioned);
    # 6M edges exceed _LP_DRIVER_PICK_MAX_EDGES, so the bucketed winner
    # branch runs on real over-gate data (asserted below).
    import ray as _ray

    from raycrawl.pipelines.reference_analogs import propagate_labels

    _LP_USERS = 2_000_000
    _lp_seeds = {0: "A", 1: "B", 2: "C"}

    def _lp_edges(b: pa.Table) -> pa.Table:
        i = b["id"].to_numpy()
        u = i // 3 + 10  # users 10 .. n+9, 3 edges each
        return pa.table(
            {
                "src": pa.array(u, pa.int64()),
                "dst": pa.array(u % 3, pa.int64()),
            }
        )

    lp_edges = _ray.data.range(_LP_USERS * 3).map_batches(
        _lp_edges, batch_format="pyarrow"
    )
    decisions.clear()
    partitioned.add("labels")
    t0 = time.perf_counter()
    lp = propagate_labels(lp_edges, _lp_seeds, iterations=2, margin=2)
    partitioned.clear()
    results["label_prop_1m_users"] = round(time.perf_counter() - t0, 3)
    print(f"# label_prop_1m_users: {results['label_prop_1m_users']}s, "
          f"{len(lp)} rows", file=sys.stderr)
    checks["label_prop_1m_rows"] = len(lp) == _LP_USERS + len(_lp_seeds)
    checks["label_prop_join_attach"] = (
        took("label_propagation", "labels") is False
    )
    checks["label_prop_distributed_winners"] = (
        took("label_propagation", "edges") is False
    )
    _lp_map = dict(zip(lp["user_id"], lp["label"]))
    _expect = {0: "A", 1: "B", 2: "C"}
    checks["label_prop_1m_values"] = all(
        _lp_map.get(u) == _expect[u % 3]
        for u in list(range(10, 110)) + [500_000, _LP_USERS + 9]
    )

    # crawl at a bigger web than the bench default — completion + rate
    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import CrawlConfig, run_crawl

    # session-10 composition check: a medium crawl with EVERY feature on
    # (traps+filter, redirects, depth cap, quota, backoff, pop budget,
    # link log) must complete and its gates must all fire
    web_all = WebConfig(n_hosts=48, pages_per_host=48, trap_links=True,
                        redirect_every=3)
    all_dir = os.path.join(args.dir, "_crawl_allfeatures")
    t0 = time.perf_counter()
    cfg_all = CrawlConfig(web=web_all, out_dir=all_dir, num_shards=8,
                          max_epochs=120, epoch_seconds=8.0, burst=16.0,
                          keep_fetch_log=False, trap_filter=True,
                          max_depth=6, max_pages_per_host=40,
                          error_backoff=True, link_log=True)
    s_all = run_crawl(cfg_all, seed_urls(web_all))
    results["crawl_allfeatures"] = round(time.perf_counter() - t0, 3)
    tot = {k: sum(m[k] for m in s_all.metrics) for k in s_all.metrics[0]}
    checks["allfeatures_gates_fired"] = bool(
        tot["trap_denied"] > 0 and tot["redirects_followed"] > 0
        and tot["depth_denied"] > 0
        and tot["quota_denied"] + tot["quota_dropped"] > 0
    )
    import glob as _glob

    checks["allfeatures_link_log_written"] = (
        sum(pq.read_metadata(f).num_rows
            for f in _glob.glob(os.path.join(all_dir, "links",
                                             "epoch=*.parquet"))) > 0
    )

    web = WebConfig(n_hosts=96, pages_per_host=64)
    out_dir = os.path.join(args.dir, "_crawl_out")
    t0 = time.perf_counter()
    cfg = CrawlConfig(web=web, out_dir=out_dir, num_shards=8, max_epochs=200,
                      epoch_seconds=8.0, burst=16.0)
    stats = run_crawl(cfg, seed_urls(web))
    crawl_s = round(time.perf_counter() - t0, 3)
    results["crawl"] = crawl_s
    checks["crawl_completed"] = stats.payload_rows > 0

    # trap-gated crawl on a trap-link universe: completion + zero trap
    # URLs fetched + denials recorded (the unfiltered-growth side is
    # pinned at test scale by test_trapgate.py)
    web_t = WebConfig(n_hosts=96, pages_per_host=64, trap_links=True)
    t0 = time.perf_counter()
    cfg_t = CrawlConfig(web=web_t, out_dir=os.path.join(args.dir, "_crawl_trap"),
                        num_shards=8, max_epochs=200, epoch_seconds=8.0,
                        burst=16.0, trap_filter=True)
    stats_t = run_crawl(cfg_t, seed_urls(web_t))
    results["crawl_trap_gated"] = round(time.perf_counter() - t0, 3)
    checks["trap_crawl_completed"] = stats_t.payload_rows > 0
    checks["trap_denials_recorded"] = (
        sum(m.get("trap_denied", 0) for m in stats_t.metrics) > 0
    )

    # federated merge + reshard at the 96-host scale: two partial crawls
    # over disjoint seed halves splice into one frontier; resharding the
    # merged checkpoint 8 → 12 shards and resuming must cover exactly the
    # exhaustive crawl above (same trap-free universe), with zero refetch
    from raycrawl.frontier.merge import merge_checkpoints, reshard_checkpoint

    def _covered(out):
        import glob as _g

        import pyarrow.dataset as pads

        from raycrawl.core.urltools import url_sha1

        urls = set()
        pay = _g.glob(os.path.join(out, "payload", "**", "*.parquet"),
                      recursive=True)
        if pay:
            for u in (pads.dataset(pay).to_table(columns=["url"])["url"]
                      .to_pylist()):
                urls.add(url_sha1(u))
        sup = _g.glob(os.path.join(out, "suppressed", "**", "*.parquet"),
                      recursive=True)
        if sup:
            urls |= set(pads.dataset(sup).to_table(columns=["url_hash"])
                        ["url_hash"].to_pylist())
        return urls

    # phash_radius=-1 turns the near-dup gate OFF for these four crawls:
    # coverage equality is a LINK-REACHABILITY invariant, and suppression
    # breaks it legitimately (a suppressed page's outlinks are never
    # enqueued, and the fake codec's low-entropy phashes collide across
    # unrelated pages — measured 388 vs 90 suppressions between the
    # resumed and exhaustive plans, each hiding a different outlink set).
    web_m = WebConfig(n_hosts=96, pages_per_host=64, neardup_every=1)
    seeds_m = seed_urls(web_m)
    t0 = time.perf_counter()
    dirs = {k: os.path.join(args.dir, f"_crawl_{k}") for k in
            ("fa", "fb", "fm", "fr", "ff")}
    # fresh scratch even under --keep: merge/reshard refuse a dirty
    # out_dir (stale higher-epoch checkpoints would shadow the new
    # epoch=0 at resume), and stale payload would corrupt _covered()
    for d in dirs.values():
        if os.path.isdir(d):
            shutil.rmtree(d)
    run_crawl(CrawlConfig(web=web_m, out_dir=dirs["fa"], num_shards=8,
                          max_epochs=5, epoch_seconds=8.0, burst=16.0,
                          phash_radius=-1),
              seeds_m[:48])
    run_crawl(CrawlConfig(web=web_m, out_dir=dirs["fb"], num_shards=8,
                          max_epochs=5, epoch_seconds=8.0, burst=16.0,
                          phash_radius=-1),
              seeds_m[48:])
    merge_checkpoints(dirs["fa"], dirs["fb"], dirs["fm"], phash_radius=-1)
    reshard_checkpoint(dirs["fm"], dirs["fr"], 12, phash_radius=-1)
    run_crawl(CrawlConfig(web=web_m, out_dir=dirs["fr"], num_shards=12,
                          max_epochs=200, epoch_seconds=8.0, burst=16.0,
                          phash_radius=-1),
              [], resume=True)
    run_crawl(CrawlConfig(web=web_m, out_dir=dirs["ff"], num_shards=12,
                          max_epochs=200, epoch_seconds=8.0, burst=16.0,
                          phash_radius=-1),
              seeds_m)
    results["crawl_merge_reshard_resume"] = round(
        time.perf_counter() - t0, 3
    )
    union = _covered(dirs["fa"]) | _covered(dirs["fb"]) | _covered(dirs["fr"])
    checks["merge_reshard_union_coverage"] = union == _covered(dirs["ff"])
    checks["merge_reshard_no_refetch"] = not (
        _covered(dirs["fr"]) & (_covered(dirs["fa"]) | _covered(dirs["fb"]))
    )
    # the 8→12 reshard of the MERGED crawl partitioned both the phash
    # index and the seen set exactly (host keys survived the merge)
    with open(os.path.join(dirs["fr"], "checkpoints", "epoch=0", "shard=0",
                           "manifest.json")) as f:
        rs = json.load(f)["resharded_from"]
    checks["reshard_phash_exact"] = rs["phash_ownership"] == "exact"
    checks["reshard_seen_exact"] = rs["seen_ownership"] == "exact"

    line = {
        "metric": "scale_smoke_total",
        "value": round(sum(results.values()), 3),
        "unit": "sec",
        "queries": results,
        "paths": dict(PATH_LOG),
        "buckets": buckets,
        "checks": checks,
        "n_docs": n_docs,
        "n_customers": n_cust,
        "crawl_urls": stats.payload_rows,
        "crawl_urls_per_sec": round(stats.payload_rows / crawl_s, 1),
        "num_cpus": args.num_cpus,
        "all_ok": all(checks.values()),
    }
    print(json.dumps(line))
    ray.shutdown()
    if not line["all_ok"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
