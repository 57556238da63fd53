"""Link-graph sink: with CrawlConfig.link_log the gate buffers every
non-error pop's outgoing edges (distinct canonical dst per src; redirects
emit alias→target) and the driver persists links/epoch=N.parquet. The
edge log must reconcile exactly with a page_for ground-truth recompute
over the popped set, and the analytics (inlink counts, host PageRank)
must match sequential recomputes."""

import os

import numpy as np
import pandas as pd
import pytest

from raycrawl.core.urltools import canonicalize_url, host_of
from raycrawl.core.webgraph import WebConfig, page_for, seed_urls

WEB = WebConfig(n_hosts=6, pages_per_host=18, redirect_every=4)
SHARDS = 4
EPOCHS = 30


@pytest.fixture(scope="module")
def crawl(ray_session, tmp_path_factory):
    from raycrawl.crawler import CrawlConfig, run_crawl

    out = str(tmp_path_factory.mktemp("ll") / "out")
    cfg = CrawlConfig(web=WEB, out_dir=out, num_shards=SHARDS,
                      max_epochs=EPOCHS, link_log=True,
                      collect_parity_outputs=True)
    stats = run_crawl(cfg, seed_urls(WEB))
    return out, stats


def _expected_edges(stats) -> set[tuple]:
    """Ground truth from the fetch log + the deterministic web: every
    non-error pop contributes its DISTINCT canonical outlink set (or the
    redirect target)."""
    want: set[tuple] = set()
    for r in stats.fetch_log:
        if r["status"] in ("fetched", "dup_suppressed", "not_modified"):
            page = page_for(WEB, r["url"])
            for raw in page.outlinks:
                want.add((r["url"], canonicalize_url(raw, base=r["url"])))
        elif r["status"] == "redirected":
            want.add((r["url"], r["url"].replace("/r/", "/p/")))
    return want


def test_edge_log_matches_ground_truth(crawl):
    import pyarrow.parquet as pq

    out, stats = crawl
    got: set[tuple] = set()
    for f in sorted(os.listdir(os.path.join(out, "links"))):
        t = pq.read_table(os.path.join(out, "links", f))
        got.update(zip(t["src_url"].to_pylist(), t["dst_url"].to_pylist()))
    assert got == _expected_edges(stats)
    assert got  # non-trivial log


def test_inlink_counts_match_recompute(crawl):
    from raycrawl.ops.crawlq import inlink_top_pages

    out, stats = crawl
    edges = _expected_edges(stats)
    want = pd.Series([d for _, d in edges]).value_counts()
    got = inlink_top_pages(out, k=10).to_pandas()
    for r in got.itertuples():
        assert want[r.dst_url] == r.inlinks
    assert got["inlinks"].iloc[0] == want.max()


def test_host_pagerank_matches_recompute(crawl):
    from raycrawl.ops.crawlq import host_pagerank

    out, stats = crawl
    edges = _expected_edges(stats)
    pairs = pd.DataFrame(
        {"s": [host_of(s) for s, _ in edges],
         "d": [host_of(d) for _, d in edges]}
    ).groupby(["s", "d"], as_index=False).size()
    hosts = sorted(set(pairs["s"]) | set(pairs["d"]))
    idx = {h: i for i, h in enumerate(hosts)}
    n = len(hosts)
    si = pairs["s"].map(idx).to_numpy()
    di = pairs["d"].map(idx).to_numpy()
    w = pairs["size"].to_numpy(float)
    out_w = np.zeros(n)
    np.add.at(out_w, si, w)
    r = np.full(n, 1.0 / n)
    for _ in range(20):
        contrib = np.zeros(n)
        np.add.at(contrib, di, r[si] * w / out_w[si])
        dangling = r[out_w == 0].sum() / n
        r = 0.15 / n + 0.85 * (contrib + dangling)
    got = host_pagerank(out).to_pandas()
    want = dict(zip(hosts, np.round(r, 8)))
    assert dict(zip(got["host"], got["pagerank"])) == want
    keys = list(zip(-got["pagerank"], got["host"]))
    assert keys == sorted(keys)  # the SQL's ORDER BY pagerank DESC, host
    assert abs(float(got["pagerank"].sum()) - 1.0) < 1e-9


def test_link_log_off_writes_nothing(ray_session, tmp_path):
    from raycrawl.crawler import CrawlConfig, run_crawl

    out = str(tmp_path / "off")
    cfg = CrawlConfig(web=WEB, out_dir=out, num_shards=SHARDS,
                      max_epochs=10)
    run_crawl(cfg, seed_urls(WEB))
    assert not os.path.isdir(os.path.join(out, "links"))
