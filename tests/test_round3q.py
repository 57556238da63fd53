"""Session-10 batch B: corpus/ingest telemetry — tokenizer fertility by
language, exact-duplicate rate by source, above-average ingest days
(exact integer deviation), cumulative unique users by day (all
SQL-oracled), and the crawl caption-trigram novelty curve (rows-only;
sequential python oracle here)."""

import numpy as np
import pandas as pd
import pytest

from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"

NEW_OPS = [
    "doc_token_fertility_by_lang",
    "doc_dedup_rate_by_source",
    "event_above_average_days",
    "cumulative_unique_users_daily",
]


@pytest.mark.parametrize("name", NEW_OPS)
def test_new_ops_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_caption_novelty_matches_sequential_oracle(ray_session):
    """Sequential replay: walk the crawl payload epoch by epoch with a
    growing seen-set of caption trigrams and compare the distributed
    first-epoch fold against it row for row."""
    from raycrawl.crawler import read_payload
    from raycrawl.ops.crawlq import fixture_dir

    out = fixture_dir("main", SF)
    pay = read_payload(out, columns=["caption", "epoch"]).to_pandas()

    def grams(cap):
        toks = cap.split()
        return {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}

    seen: set[str] = set()
    rows = []
    for ep in sorted(pay["epoch"].unique()):
        present: set[str] = set()
        for cap in pay.loc[pay["epoch"] == ep, "caption"]:
            present |= grams(cap)
        novel = present - seen
        seen |= present
        rows.append(
            dict(epoch=int(ep), novel_grams=len(novel),
                 present_grams=len(present),
                 novelty=round(len(novel) / len(present), 6))
        )
    want = pd.DataFrame(rows)
    got = run_query("crawl_caption_novelty_by_epoch", SF)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want, check_dtype=False
    )
    # the curve decays: later epochs revisit earlier grams
    assert got["novelty"].iloc[2:-1].min() < 1.0


def test_dedup_rate_counts_cross_source_dups_per_source(ray_session):
    """A text duplicated across two sources must count as distinct in
    EACH source (COUNT(DISTINCT text) is per-group)."""
    got = run_query("doc_dedup_rate_by_source", SF)
    assert (got["distinct_texts"] <= got["n_docs"]).all()
    assert (got["distinct_texts"] > 0).all()


def test_above_average_days_exact_integer_threshold(ray_session):
    """Recompute the integer cross-multiplication independently."""
    import pyarrow.dataset as pads

    ev = pads.dataset(f"{SF}/events.parquet").to_table(columns=["ts"])
    days = pd.Series(ev["ts"].to_pandas()).dt.floor("D")
    d = days.value_counts().sort_index()
    k, s = len(d), int(d.sum())
    want = {(day, int(n), int(n * k - s)) for day, n in d.items()
            if n * k > s}
    got = run_query("event_above_average_days", SF)
    have = {(r.day, int(r.n), int(r.dev_scaled)) for r in got.itertuples()}
    assert have == want and want


@pytest.mark.parametrize("name", ["pq_codebook_stats",
                                  "score_calibration_bins"])
def test_ml_eval_ops_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_pq_codebooks_cover_corpus(ray_session):
    """Every vector is encoded in every subspace: per-subspace membership
    sums to the table size; codes come from the init id universe."""
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
    got = run_query("pq_codebook_stats", SF)
    per = got.groupby("subspace")["n"].sum()
    assert (per == n).all() and len(per) == 4
    assert got["code"].between(0, 7).all()
    assert (got["avg_dist"] > 0).all()


def test_calibration_bins_reconcile(ray_session):
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
    got = run_query("score_calibration_bins", SF)
    assert int(got["n"].sum()) == n
    assert got["positive_rate"].between(0, 1).all()
    # mean score must sit inside its bin's [lo, hi) span
    for r in got.itertuples():
        assert r.bin / 10 <= r.mean_score <= (r.bin + 1) / 10 + 1e-9


def test_depth_histogram_matches_fetch_log(ray_session, tmp_path):
    """The distributed increment-file histogram equals the parity fetch
    log's, and the --max-depth knob truncates it exactly at the cap."""
    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import CrawlConfig, run_crawl
    from raycrawl.ops.crawlq import depth_histogram_from_out

    web = WebConfig(n_hosts=5, pages_per_host=15)
    out = str(tmp_path / "dh")
    cfg = CrawlConfig(web=web, out_dir=out, num_shards=4, max_epochs=30,
                      saving_period=5, collect_parity_outputs=True)
    stats = run_crawl(cfg, seed_urls(web))
    want = (
        pd.Series([r["depth"] for r in stats.fetch_log
                   if r["status"] == "fetched"])
        .value_counts().sort_index()
    )
    got = depth_histogram_from_out(out).to_pandas()
    assert dict(zip(got["depth"], got["n_fetched"])) == want.to_dict()

    out2 = str(tmp_path / "dh2")
    cfg2 = CrawlConfig(web=web, out_dir=out2, num_shards=4, max_epochs=30,
                       saving_period=5, max_depth=2)
    run_crawl(cfg2, seed_urls(web))
    capped = depth_histogram_from_out(out2).to_pandas()
    assert capped["depth"].max() <= 2


def test_inspect_run_reconciles(ray_session, tmp_path):
    """`raycrawl inspect` totals must reconcile with the crawl's own
    stats: pops = fetched + suppressed + errors + redirected (+ sidecar
    partition), net payload = fetched metric."""
    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import CrawlConfig, inspect_run, run_crawl

    web = WebConfig(n_hosts=5, pages_per_host=12, redirect_every=3)
    out = str(tmp_path / "ins")
    cfg = CrawlConfig(web=web, out_dir=out, num_shards=4, max_epochs=30,
                      saving_period=1)
    stats = run_crawl(cfg, seed_urls(web))
    info = inspect_run(out)
    m = info["metrics"]
    assert info["payload_rows_net"] == m["fetched"]
    assert info["sidecar_rows"]["suppressed"] == m["phash_suppressed"]
    assert info["sidecar_rows"]["errors"] == m["fetch_errors"]
    assert info["sidecar_rows"]["redirects"] == m["redirects_followed"] > 0
    assert info["latest_checkpoint_epoch"] == stats.epochs - 1
    assert info["frontier_backlog"] == 0  # crawl ran to exhaustion
