"""Continuous-crawl (follow mode): seeds injected between epochs must
reproduce the oracle's ordering, seen set and payload when both sides get
the same injection schedule — the parity-testable form of the reference's
unbounded re-seeded `while True` crawl loop (pages/Crawler.py:54)."""

import pandas as pd

from raycrawl.core.webgraph import WebConfig, page_url, seed_urls
from raycrawl.oracle import oracle_crawl


def _sort_log(log):
    return sorted(
        log,
        key=lambda r: (r["epoch"], -r["priority"], r["depth"],
                       r["discovered_at"], r["url_hash"]),
    )


def _assert_parity(want, stats, out):
    from raycrawl.crawler import read_payload

    assert _sort_log(want.fetch_log) == _sort_log(stats.fetch_log)
    assert {s: sorted(v) for s, v in want.seen.items()} == {
        s: sorted(v) for s, v in stats.seen.items()
    }
    got_payload = {
        r.image_id: (r.caption, int(r.phash))
        for r in read_payload(out).to_pandas().itertuples()
    }
    want_payload = {
        p["image_id"]: (p["caption"], p["phash"]) for p in want.payload
    }
    assert got_payload == want_payload


def test_two_injection_rounds_parity(ray_session, tmp_path):
    """6-host web, 2 hosts seeded at start; hosts 2-3 injected at epoch 3
    and hosts 4-5 at epoch 6 (two injection rounds, the verdict's Done
    bar). Ordering / seen / payload must all match the oracle run with
    the identical schedule."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=6, pages_per_host=10)
    seeds = seed_urls(web, 2)
    schedule = {
        3: [page_url(2, 0), page_url(3, 0)],
        6: [page_url(4, 0), page_url(5, 0)],
    }
    kw = dict(max_epochs=30, num_shards=3, seed_injections=schedule)
    want = oracle_crawl(web, seeds, **kw)
    out = str(tmp_path / "out")
    stats = run_crawl(
        CrawlConfig(web=web, out_dir=out, collect_parity_outputs=True, **kw),
        seeds,
    )
    _assert_parity(want, stats, out)
    # the injected hosts really were crawled (not just seen)
    hosts = {r["host"] for r in stats.fetch_log if r["status"] == "fetched"}
    assert {f"h{k}.web.test" for k in range(6)} <= hosts


def test_injection_revives_empty_frontier(ray_session, tmp_path):
    """A 1-host crawl exhausts its frontier in a few epochs; an injection
    scheduled AFTER exhaustion must keep the loop alive through the idle
    gap and then crawl the new host — oracle parity across the gap."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=2, pages_per_host=6)
    seeds = seed_urls(web, 1)
    # p/1, not p/0: h1's root deterministically fetch-fails in the
    # synthetic web, and this test wants a *fetched* row after the gap
    schedule = {12: [page_url(1, 1)]}
    # max_depth=0: outlinks are all depth-denied, so the frontier is
    # exhausted right after the seed fetch — the injected page (depth 0)
    # is the only way anything gets crawled after the gap
    kw = dict(max_epochs=25, num_shards=2, seed_injections=schedule,
              max_depth=0)
    want = oracle_crawl(web, seeds, **kw)
    out = str(tmp_path / "out")
    stats = run_crawl(
        CrawlConfig(web=web, out_dir=out, collect_parity_outputs=True, **kw),
        seeds,
    )
    _assert_parity(want, stats, out)
    fetched_epochs = sorted(
        {r["epoch"] for r in stats.fetch_log if r["status"] == "fetched"}
    )
    # idle gap: nothing fetched in some epoch range before 12, then the
    # injected host's pages arrive from epoch 12 on
    assert any(e >= 12 for e in fetched_epochs)
    assert not any(
        e in range(max(f for f in fetched_epochs if f < 12) + 1, 12)
        for e in fetched_epochs
    )


def test_injection_duplicate_urls_noop(ray_session, tmp_path):
    """Re-injecting already-crawled URLs must change nothing: the seen
    set dedups them at merge, on both sides."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=3, pages_per_host=8)
    seeds = seed_urls(web)
    schedule = {4: [page_url(0, 0), page_url(1, 0)]}  # dup re-seeds
    base = oracle_crawl(web, seeds, max_epochs=30, num_shards=2)
    want = oracle_crawl(web, seeds, max_epochs=30, num_shards=2,
                        seed_injections=schedule)
    assert _sort_log(base.fetch_log) == _sort_log(want.fetch_log)
    out = str(tmp_path / "out")
    stats = run_crawl(
        CrawlConfig(web=web, out_dir=out, collect_parity_outputs=True,
                    max_epochs=30, num_shards=2, seed_injections=schedule),
        seeds,
    )
    _assert_parity(want, stats, out)


def test_follow_seeds_file_cli_surface(ray_session, tmp_path):
    """The file-watch surface: lines appended to follow_seeds_file are
    injected at a later epoch. The schedule is timing-dependent (that is
    its nature), so assert outcomes: the pre-written host is crawled, the
    file is consumed incrementally, and partial lines wait for their
    newline."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=2, pages_per_host=6)
    seeds = seed_urls(web, 1)
    wf = tmp_path / "more_seeds.txt"
    # pre-written complete line: injected at epoch 0; trailing partial
    # line (no newline) must NOT be consumed
    wf.write_text(page_url(1, 0) + "\nhttp://partial")
    out = str(tmp_path / "out")
    stats = run_crawl(
        CrawlConfig(web=web, out_dir=out, collect_parity_outputs=True,
                    max_epochs=20, num_shards=2, follow=True,
                    follow_seeds_file=str(wf)),
        seeds,
    )
    hosts = {r["host"] for r in stats.fetch_log if r["status"] == "fetched"}
    assert hosts == {"h0.web.test", "h1.web.test"}
    assert not any("partial" in r["url"] for r in stats.fetch_log)
    # equivalent to an epoch-0 injection schedule → oracle parity holds
    want = oracle_crawl(web, seeds, max_epochs=20, num_shards=2,
                        seed_injections={0: [page_url(1, 0)]})
    _assert_parity(want, stats, out)


def test_injection_schedule_survives_resume(ray_session, tmp_path):
    """Injections are keyed by ABSOLUTE epoch, so a crawl cut mid-
    schedule and resumed delivers the remaining injections at their
    scheduled epochs — the combined run matches one oracle run given
    the full schedule."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=4, pages_per_host=8)
    seeds = seed_urls(web, 2)
    schedule = {3: [page_url(2, 1)], 8: [page_url(3, 1)]}

    def cfg_for(max_epochs):
        return CrawlConfig(
            web=web, out_dir=str(tmp_path / "c"), num_shards=2,
            max_epochs=max_epochs, saving_period=3,
            seed_injections=schedule, collect_parity_outputs=True,
        )

    run_crawl(cfg_for(5), seeds)  # cut between the two injections
    resumed = run_crawl(cfg_for(20), seeds, resume=True)
    want = oracle_crawl(web, seeds, max_epochs=20, num_shards=2,
                        seed_injections=schedule)
    assert {s: sorted(v) for s, v in want.seen.items()} == {
        s: sorted(v) for s, v in resumed.seen.items()
    }
    hosts = {r["host"] for r in want.fetch_log if r["status"] == "fetched"}
    assert "h3.web.test" in hosts  # the post-resume injection fired


def test_epoch0_duplicate_injection_metrics_parity(ray_session, tmp_path):
    """An epoch-0 injection that duplicates a seed must leave ALL
    metrics identical on both sides: the engine's pending dict collapses
    the dup pre-merge, and the oracle now dedups seeds + epoch-0
    injections the same way (review finding — `offered` previously
    double-counted oracle-side)."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=3, pages_per_host=8)
    seeds = seed_urls(web)
    schedule = {0: [page_url(0, 0), page_url(2, 1)]}  # dup seed + fresh
    kw = dict(max_epochs=20, num_shards=2, seed_injections=schedule)
    want = oracle_crawl(web, seeds, **kw)
    out = str(tmp_path / "out")
    stats = run_crawl(
        CrawlConfig(web=web, out_dir=out, collect_parity_outputs=True, **kw),
        seeds,
    )
    _assert_parity(want, stats, out)
    for sh in range(2):
        eng = {k: stats.metrics[sh][k] for k in want.metrics[sh]}
        assert eng == want.metrics[sh], f"shard {sh}"


def test_follow_offset_persists_across_resume(ray_session, tmp_path):
    """A resumed follow crawl must NOT re-inject already-consumed watch
    file lines: the consumed byte offset persists in
    out_dir/follow_offset.json, so the resumed run's offered metric
    matches an uninterrupted run's (review finding)."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=2, pages_per_host=6)
    seeds = seed_urls(web, 1)
    wf = tmp_path / "more.txt"
    wf.write_text(page_url(1, 1) + "\n")

    def cfg_for(out, max_epochs):
        return CrawlConfig(
            web=web, out_dir=str(out), num_shards=2, max_epochs=max_epochs,
            saving_period=3, follow=True, follow_seeds_file=str(wf),
            collect_parity_outputs=True,
        )

    full = run_crawl(cfg_for(tmp_path / "f", 10), seeds)
    run_crawl(cfg_for(tmp_path / "c", 5), seeds)
    assert (tmp_path / "c" / "follow_offset.json").exists()
    resumed = run_crawl(cfg_for(tmp_path / "c", 10), seeds, resume=True)
    for sh in range(2):
        assert resumed.metrics[sh]["offered"] == full.metrics[sh]["offered"]
    assert {s: sorted(v) for s, v in full.seen.items()} == {
        s: sorted(v) for s, v in resumed.seen.items()
    }


def test_watch_file_alone_keeps_loop_alive(ray_session, tmp_path):
    """A config that sets only follow_seeds_file must still wait on an
    empty frontier: a line appended after the first idle epoch is
    popped."""
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=2, pages_per_host=4)
    wf = tmp_path / "watch.txt"
    wf.write_text("")
    calls = []

    def append_on_second_epoch():
        calls.append(1)
        if len(calls) == 2:
            with open(wf, "a") as f:
                f.write(page_url(1, 0) + "\n")
        return False

    stats = run_crawl(
        CrawlConfig(web=web, out_dir=str(tmp_path / "out"), num_shards=2,
                    max_epochs=12, follow_seeds_file=str(wf),
                    collect_parity_outputs=True),
        [],
        should_stop=append_on_second_epoch,
    )
    assert page_url(1, 0) in {r["url"] for r in stats.fetch_log}


def test_follow_offset_persists_blank_lines(ray_session, tmp_path):
    """Consuming only blank watch-file lines still moves the persisted
    offset, so a resumed run does not read those bytes again."""
    import json

    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=2, pages_per_host=4)
    wf = tmp_path / "watch.txt"
    wf.write_text("\n  \n")
    out = tmp_path / "out"
    run_crawl(
        CrawlConfig(web=web, out_dir=str(out), num_shards=2, max_epochs=3,
                    follow=True, follow_seeds_file=str(wf)),
        seed_urls(web, 1),
    )
    with open(out / "follow_offset.json") as f:
        assert json.load(f)["offset"] == 4
