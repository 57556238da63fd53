"""North-rule correctness gate: the Ray Data crawl engine must match the
sequential reference-semantics oracle EXACTLY — crawl ordering, URL-seen
set, payload rows — and every payload row must satisfy the per-row
invariants (decoded-pixel PSNR ≥ 40 dB for lossy formats, byte-exact
captions) against the ground-truth pixels."""

import numpy as np
import pytest

from raycrawl.core.codec import decode_image, psnr
from raycrawl.core.webgraph import WebConfig, seed_urls, reference_pixels
from raycrawl.oracle import oracle_crawl


WEB = WebConfig(n_hosts=6, pages_per_host=20)
SHARDS = 4
EPOCHS = 40


@pytest.fixture(scope="module")
def oracle():
    return oracle_crawl(WEB, seed_urls(WEB), max_epochs=EPOCHS, num_shards=SHARDS)


@pytest.fixture(scope="module")
def engine(ray_session, tmp_path_factory):
    from raycrawl.crawler import CrawlConfig, run_crawl, read_payload

    out = str(tmp_path_factory.mktemp("crawl") / "out")
    cfg = CrawlConfig(
        web=WEB, out_dir=out, num_shards=SHARDS, max_epochs=EPOCHS,
        collect_parity_outputs=True,
    )
    stats = run_crawl(cfg, seed_urls(WEB))
    payload = read_payload(out).to_pandas()
    return stats, payload


def _sort_log(log):
    return sorted(
        log,
        key=lambda r: (r["epoch"], -r["priority"], r["depth"], r["discovered_at"],
                       r["url_hash"]),
    )


def test_crawl_ordering_parity(oracle, engine):
    stats, _ = engine
    assert _sort_log(oracle.fetch_log) == _sort_log(stats.fetch_log)


def test_url_seen_set_parity(oracle, engine):
    stats, _ = engine
    assert {s: sorted(v) for s, v in oracle.seen.items()} == {
        s: sorted(v) for s, v in stats.seen.items()
    }


def test_payload_parity_and_caption_byte_exact(oracle, engine):
    _, payload = engine
    got = {
        r.image_id: (r.caption, int(r.phash), int(r.w), int(r.h), r.fmt)
        for r in payload.itertuples()
    }
    want = {
        p["image_id"]: (p["caption"], p["phash"], p["w"], p["h"], p["fmt"])
        for p in oracle.payload
    }
    assert got == want


def test_metrics_parity(oracle, engine):
    stats, _ = engine
    for s in range(SHARDS):
        eng = {k: stats.metrics[s][k] for k in oracle.metrics[s]}
        assert eng == oracle.metrics[s], f"shard {s}"


def test_payload_pixel_invariant_psnr(oracle, engine):
    _, payload = engine
    for r in payload.itertuples():
        pixels, fmt = decode_image(r.bytes)
        truth = reference_pixels(WEB, r.url)
        assert fmt == r.fmt
        assert pixels.shape == truth.shape == (r.h, r.w, 3)
        if fmt == "png":
            assert np.array_equal(pixels, truth)
        else:
            assert psnr(truth, pixels) >= 40.0


def test_dup_suppression_happened(oracle):
    # the synthetic web injects near-dups; the gate must actually fire
    assert any(r["status"] == "dup_suppressed" for r in oracle.fetch_log)
    assert any(r["status"] == "robots_denied" for r in oracle.fetch_log)


def test_parity_nondefault_config(ray_session, tmp_path):
    """Oracle parity must hold for non-default shards/burst/epoch_seconds
    (exercises the burst wiring end-to-end)."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=5, pages_per_host=12)
    o = oracle_crawl(web, seed_urls(web), max_epochs=25, num_shards=2,
                     epoch_seconds=4.0, burst=16.0)
    cfg = CrawlConfig(
        web=web, out_dir=str(tmp_path / "out"), num_shards=2, max_epochs=25,
        epoch_seconds=4.0, burst=16.0, collect_parity_outputs=True,
    )
    stats = run_crawl(cfg, seed_urls(web))
    assert _sort_log(o.fetch_log) == _sort_log(stats.fetch_log)
    assert {s: sorted(v) for s, v in o.seen.items()} == {
        s: sorted(v) for s, v in stats.seen.items()
    }


def test_hot_host_skew_contained(ray_session, tmp_path):
    """A single host holding most of the universe must be throttled to its
    politeness budget per epoch (skew containment), while parity with the
    oracle still holds."""
    from raycrawl.core.webgraph import WebConfig
    from raycrawl.crawler import CrawlConfig, run_crawl

    # 2 hosts, one with 60 pages: seeds only the hot host's page 0
    web = WebConfig(n_hosts=2, pages_per_host=60)
    seeds = ["http://h0.web.test/p/0"]
    o = oracle_crawl(web, seeds, max_epochs=60, num_shards=2)
    cfg = CrawlConfig(
        web=web, out_dir=str(tmp_path / "skew"), num_shards=2, max_epochs=60,
        collect_parity_outputs=True,
    )
    stats = run_crawl(cfg, seeds)
    assert _sort_log(o.fetch_log) == _sort_log(stats.fetch_log)
    # per-epoch fetches from any single host never exceed the burst (8)
    per = {}
    for r in stats.fetch_log:
        if r["status"] in ("fetched", "dup_suppressed"):
            per.setdefault((r["epoch"], r["host"]), 0)
            per[(r["epoch"], r["host"])] += 1
    assert max(per.values()) <= 8


def test_fetch_errors_exercised(oracle):
    # the synthetic web injects ~7.7% fetch failures; they must show up
    assert any(r["status"] == "fetch_error" for r in oracle.fetch_log)


def test_global_phash_dedup_parity_and_cross_host(ray_session, tmp_path):
    """Global (chunk-sharded) phash tier: oracle parity holds, and
    cross-HOST near-duplicates — invisible to the per-host-shard gate —
    are suppressed."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=6, pages_per_host=10, cross_host_dup=True)
    o = oracle_crawl(web, seed_urls(web), max_epochs=40, num_shards=3,
                     global_phash_dedup=True, num_phash_shards=4)
    cfg = CrawlConfig(
        web=web, out_dir=str(tmp_path / "g"), num_shards=3, max_epochs=40,
        global_phash_dedup=True, num_phash_shards=4,
        collect_parity_outputs=True,
    )
    stats = run_crawl(cfg, seed_urls(web))
    assert _sort_log(o.fetch_log) == _sort_log(stats.fetch_log)
    assert {s: sorted(v) for s, v in o.seen.items()} == {
        s: sorted(v) for s, v in stats.seen.items()
    }
    # cross-host suppression actually happened: at least one /p/2 page of a
    # host != h0 was suppressed
    xhost_sup = [
        r for r in stats.fetch_log
        if r["status"] == "dup_suppressed" and r["url"].endswith("/p/2")
        and not r["url"].startswith("http://h0.")
    ]
    assert xhost_sup, "expected cross-host near-dups to be suppressed"

    # the per-host-shard gate CANNOT catch these (control)
    o_local = oracle_crawl(web, seed_urls(web), max_epochs=40, num_shards=3)
    local_sup = {
        r["url"] for r in o_local.fetch_log if r["status"] == "dup_suppressed"
    }
    assert any(r["url"] not in local_sup for r in xhost_sup)


def test_global_dedup_driver_gets_no_candidates(ray_session, tmp_path,
                                                monkeypatch):
    """The global tier's candidates and verdicts travel actor to actor:
    nothing the crawl driver ``ray.get``s holds a phash or an order-key
    candidate row, and the crawl still matches the oracle."""
    import glob

    import pyarrow.parquet as pq

    import raycrawl.crawler as crawler

    got = []
    real_get = crawler.ray.get

    def spy(*args, **kwargs):
        out = real_get(*args, **kwargs)
        got.append(out)
        return out

    monkeypatch.setattr(crawler.ray, "get", spy)
    web = WebConfig(n_hosts=6, pages_per_host=10, cross_host_dup=True)
    cfg = crawler.CrawlConfig(
        web=web, out_dir=str(tmp_path / "g"), num_shards=4, max_epochs=40,
        global_phash_dedup=True, num_phash_shards=3,
    )
    stats = crawler.run_crawl(cfg, seed_urls(web))
    monkeypatch.undo()
    assert sum(m["phash_suppressed"] for m in stats.metrics) > 0
    # every candidate's phash: the raw payload parts keep suppressed rows
    phashes = {
        ph for f in glob.glob(str(tmp_path / "g" / "payload" / "*" / "*"))
        for ph in pq.read_table(f, columns=["phash"])["phash"].to_pylist()
        if abs(ph) >= 1 << 16  # never mistaken for a count
    }
    assert phashes

    def walk(v):
        if isinstance(v, dict):
            v = [*v.keys(), *v.values()]
        if isinstance(v, (list, tuple, set, frozenset)):
            is_key = (len(v) == 4 and isinstance(v, tuple)
                      and isinstance(v[3], bytes))
            assert not is_key, f"driver got an order key {v!r}"
            for x in v:
                walk(x)
        elif isinstance(v, int):
            assert v not in phashes, f"driver got phash {v}"

    assert got
    for v in got:
        walk(v)
    o = oracle_crawl(web, seed_urls(web), max_epochs=40, num_shards=4,
                     global_phash_dedup=True, num_phash_shards=3)
    assert [o.metrics[s]["phash_suppressed"] for s in range(4)] == [
        m["phash_suppressed"] for m in stats.metrics]


def test_parity_with_frontier_spill(ray_session, tmp_path):
    """External frontier queue (per-host heap capped at 4 items, rest in
    parquet spill segments): crawl ordering parity must be unaffected."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=4, pages_per_host=25)
    o = oracle_crawl(web, seed_urls(web), max_epochs=60, num_shards=2)
    cfg = CrawlConfig(
        web=web, out_dir=str(tmp_path / "sp"), num_shards=2, max_epochs=60,
        frontier_spill_threshold=4, collect_parity_outputs=True,
    )
    stats = run_crawl(cfg, seed_urls(web))
    assert _sort_log(o.fetch_log) == _sort_log(stats.fetch_log)
    assert {s: sorted(v) for s, v in o.seen.items()} == {
        s: sorted(v) for s, v in stats.seen.items()
    }


def test_engine_self_determinism(ray_session, tmp_path):
    """Two independent engine runs on the same config produce identical
    payload tables (beyond oracle parity: no hidden scheduling
    sensitivity)."""
    from raycrawl.crawler import CrawlConfig, run_crawl, read_payload

    web = WebConfig(n_hosts=4, pages_per_host=10)

    def run(out):
        cfg = CrawlConfig(web=web, out_dir=out, num_shards=2, max_epochs=30)
        run_crawl(cfg, seed_urls(web))
        df = read_payload(out).to_pandas()
        return df.sort_values("image_id").reset_index(drop=True)

    import pandas as pd

    a = run(str(tmp_path / "a"))
    b = run(str(tmp_path / "b"))
    pd.testing.assert_frame_equal(a, b)
