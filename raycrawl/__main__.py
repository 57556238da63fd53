"""CLI entry point — the ``ray job submit`` surface of the crawl engine.

On a real cluster:

    ray job submit --working-dir . -- python -m raycrawl crawl \
        --out /data/crawl-run-1 --hosts 1024 --pages-per-host 100 \
        --shards 256 --max-epochs 500 --resume

In this sandbox the same command runs against a local ``ray.init`` (the
only script in the repo that owns a Ray session besides bench.py and the
test fixture).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="raycrawl")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="run the crawl engine")
    c.add_argument("--out", default="/tmp/raycrawl_job")
    c.add_argument("--hosts", type=int, default=64)
    c.add_argument("--pages-per-host", type=int, default=20)
    c.add_argument("--shards", type=int, default=8)
    c.add_argument("--max-epochs", type=int, default=100)
    c.add_argument("--epoch-seconds", type=float, default=30.0)
    c.add_argument("--burst", type=float, default=8.0)
    c.add_argument("--saving-period", type=int, default=10)
    c.add_argument("--seeds", type=int, default=None,
                   help="number of seed hosts (default: all)")
    c.add_argument("--seeds-file", default=None,
                   help="file of seed URLs (one per line, # comments); "
                   "raw spellings are canonicalized on enqueue. Overrides "
                   "--seeds")
    c.add_argument("--resume", action="store_true")
    c.add_argument("--num-cpus", type=int, default=None)
    c.add_argument("--no-bytes", action="store_true",
                   help="drop payload bytes from the sink")
    c.add_argument("--global-phash-dedup", action="store_true",
                   help="corpus-wide (cross-host) near-dup suppression tier")
    c.add_argument("--phash-shards", type=int, default=4)
    c.add_argument("--spill-threshold", type=int, default=None,
                   help="per-host in-memory frontier cap; rest spills to parquet")
    c.add_argument("--blocks-per-cpu", type=int, default=1,
                   help="Ray Data blocks per CPU slot per epoch")
    c.add_argument("--link-log", action="store_true",
                   help="persist the crawled web's edge log to "
                   "links/epoch=N.parquet (inlink analytics, host "
                   "PageRank)")
    c.add_argument("--no-fetch-log", action="store_true",
                   help="aggregate lineage metrics only (the at-scale default)")
    c.add_argument("--trap-links", action="store_true",
                   help="synthetic web emits calendar-loop trap links")
    c.add_argument("--etag-manifest", default=None,
                   help="out_dir of a previous crawl generation: refetched "
                   "pages whose content is unchanged are marked "
                   "not_modified (no payload row, no expansion)")
    c.add_argument("--content-epoch", type=int, default=0,
                   help="crawl generation: volatile pages' content is "
                   "re-derived per generation (0 = static web); feed two "
                   "generations to `recrawl-plan` for freshness boosts")
    c.add_argument("--redirect-every", type=int, default=0,
                   help="synthetic web emits a 301 alias link from every "
                   "N-th page; the crawler follows targets at the same "
                   "depth (0 = off)")
    c.add_argument("--trap-filter", action="store_true",
                   help="frontier denies trap-shaped URLs at offer time")
    c.add_argument("--phash-radius", type=int, default=2,
                   help="near-dup suppression Hamming radius; -1 disables "
                   "the phash gate")
    c.add_argument("--host-boosts", default=None,
                   help="JSON file {host: priority boost} (tier-feedback "
                   "output); added to every NEW offer's priority")
    c.add_argument("--pop-budget", type=int, default=None,
                   help="max URLs popped per shard per epoch — the "
                   "fetch-capacity contention that makes host boosts "
                   "reallocate capacity across hosts")
    c.add_argument("--focus-keywords", default=None,
                   help="comma-separated caption keywords: outlinks "
                        "propagate only from pages whose caption matches "
                        "(focused/topical crawl)")
    c.add_argument("--error-backoff", action="store_true",
                   help="halve a host's token rate per consecutive fetch "
                        "error (cap /64); restored on next success")
    c.add_argument("--max-pages-per-host", type=int, default=None,
                   help="lifetime per-host page cap (crawl budget): at "
                   "quota a host's queued URLs are dropped and new offers "
                   "denied; counters persist across --resume")
    c.add_argument("--rich-robots", action="store_true",
                   help="synthetic hosts draw per-path REP rule sets "
                   "(Disallow wildcards/anchors + Allow overrides, "
                   "longest-match wins) beyond the /private prefix")
    c.add_argument("--max-depth", type=int, default=None,
                   help="crawl-depth cap: offers deeper than this many "
                   "hops from a seed are denied (depth_denied)")
    c.add_argument("--follow", action="store_true",
                   help="continuous crawl: keep running on an empty "
                   "frontier (until --max-epochs or SIGTERM), waiting "
                   "for re-seeds; pair with --follow-seeds-file")
    c.add_argument("--follow-seeds-file", default=None,
                   help="watch this file between epochs; new complete "
                   "lines are injected as depth-0 seeds at the next "
                   "epoch (implies --follow)")
    c.add_argument("--follow-idle-seconds", type=float, default=None,
                   help="wall-clock sleep per idle follow epoch "
                   "(default: --epoch-seconds) — pacing between "
                   "watch-file polls so max-epochs bounds real time, "
                   "not a spin")
    c.add_argument("--inject", default=None,
                   help="JSON file {epoch: [seed_url, ...]} of a "
                   "deterministic injection schedule (parity-testable "
                   "continuous-crawl form)")

    m = sub.add_parser(
        "merge-checkpoints",
        help="merge two crawls' latest checkpoints into a fresh resumable "
        "out_dir (federated-crawl splice; no Ray session needed)",
    )
    m.add_argument("dir_a")
    m.add_argument("dir_b")
    m.add_argument("--out", required=True)
    m.add_argument("--expected-urls", type=int, default=1 << 14)
    m.add_argument("--phash-radius", type=int, default=2)

    r = sub.add_parser(
        "reshard-checkpoints",
        help="re-partition a crawl's latest checkpoint onto a different "
        "shard count (bridge for mismatched-layout merges / bigger "
        "clusters)",
    )
    r.add_argument("src_dir")
    r.add_argument("--out", required=True)
    r.add_argument("--shards", type=int, required=True)
    r.add_argument("--expected-urls", type=int, default=1 << 14)
    r.add_argument("--phash-radius", type=int, default=2)

    tf = sub.add_parser(
        "tier-feedback",
        help="score a finished crawl's hosts by payload quality (quartile "
        "tiers of mean decoded image area) and emit the {host: boost} map "
        "the next `crawl --host-boosts` run consumes",
    )
    tf.add_argument("out_dir")
    tf.add_argument("--boosts-out", default=None,
                    help="also write the {host: boost} map to this file")
    tf.add_argument("--num-cpus", type=int, default=None)

    rp = sub.add_parser(
        "recrawl-plan",
        help="compare two crawl generations' payloads and emit the "
        "{host: boost} freshness plan (+2 at/above the 75th change-rate "
        "percentile, +1 above the median) for the next crawl's "
        "--host-boosts",
    )
    rp.add_argument("dir_a")
    rp.add_argument("dir_b")
    rp.add_argument("--boosts-out", default=None,
                    help="also write the {host: boost} map to this file")
    rp.add_argument("--num-cpus", type=int, default=None)

    ins = sub.add_parser(
        "inspect",
        help="summarize a crawl out_dir from manifests + parquet footers "
        "(epochs, metrics, backlog, payload/sidecar rows, quota spend, "
        "lineage) — no Ray session needed",
    )
    ins.add_argument("out_dir")

    args = p.parse_args(argv)

    if args.cmd == "inspect":
        from raycrawl.crawler import inspect_run

        print(json.dumps(inspect_run(args.out_dir)))
        return 0

    if args.cmd == "recrawl-plan":
        import ray

        if not ray.is_initialized():
            ray.init(address="local", num_cpus=args.num_cpus,
                     include_dashboard=False, ignore_reinit_error=True,
                     logging_level="ERROR")
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        from raycrawl.ops.crawlq import host_change_rates, recrawl_boost_plan

        rates = host_change_rates(args.dir_a, args.dir_b).to_pandas()
        boosts = recrawl_boost_plan(args.dir_a, args.dir_b)
        if args.boosts_out:
            with open(args.boosts_out, "w") as f:
                json.dump(boosts, f)
        print(json.dumps(
            {"hosts": json.loads(rates.to_json(orient="records")),
             "boosts": boosts}))
        ray.shutdown()
        return 0

    if args.cmd == "tier-feedback":
        import ray

        if not ray.is_initialized():
            ray.init(address="local", num_cpus=args.num_cpus,
                     include_dashboard=False, ignore_reinit_error=True,
                     logging_level="ERROR")
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        from raycrawl.ops.crawlq import tier_feedback_table

        t = tier_feedback_table(args.out_dir).to_pandas()
        boosts = dict(zip(t["host"], (int(b) for b in t["boost"])))
        if args.boosts_out:
            with open(args.boosts_out, "w") as f:
                json.dump(boosts, f)
        # to_json → plain-python scalars (to_dict keeps numpy int64,
        # which json.dumps rejects)
        print(json.dumps({"hosts": json.loads(t.to_json(orient="records")),
                          "boosts": boosts}))
        ray.shutdown()
        return 0

    if args.cmd == "reshard-checkpoints":
        from raycrawl.frontier.merge import reshard_checkpoint

        print(json.dumps(reshard_checkpoint(
            args.src_dir, args.out, args.shards,
            expected_urls=args.expected_urls,
            phash_radius=args.phash_radius,
        )))
        return 0

    if args.cmd == "merge-checkpoints":
        from raycrawl.frontier.merge import merge_checkpoints

        print(json.dumps(merge_checkpoints(
            args.dir_a, args.dir_b, args.out,
            expected_urls=args.expected_urls,
            phash_radius=args.phash_radius,
        )))
        return 0

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=args.hosts, pages_per_host=args.pages_per_host,
                    trap_links=args.trap_links,
                    redirect_every=args.redirect_every,
                    content_epoch=args.content_epoch)
    cfg = CrawlConfig(
        web=web,
        out_dir=args.out,
        num_shards=args.shards,
        max_epochs=args.max_epochs,
        epoch_seconds=args.epoch_seconds,
        burst=args.burst,
        saving_period=args.saving_period,
        keep_bytes_in_payload=not args.no_bytes,
        global_phash_dedup=args.global_phash_dedup,
        num_phash_shards=args.phash_shards,
        frontier_spill_threshold=args.spill_threshold,
        blocks_per_cpu=args.blocks_per_cpu,
        keep_fetch_log=not args.no_fetch_log,
        trap_filter=args.trap_filter,
        phash_radius=args.phash_radius,
        host_priority_boost=(
            {h: int(b) for h, b in json.load(open(args.host_boosts)).items()}
            if args.host_boosts else None
        ),
        epoch_pop_budget=args.pop_budget,
        max_pages_per_host=args.max_pages_per_host,
        max_depth=args.max_depth,
        rich_robots=args.rich_robots,
        etag_manifest_dir=args.etag_manifest,
        link_log=args.link_log,
        error_backoff=args.error_backoff,
        focus_keywords=(
            tuple(k.strip() for k in args.focus_keywords.split(",")
                  if k.strip())
            if args.focus_keywords else None
        ),
        seed_injections=(
            {int(e): list(urls)
             for e, urls in json.load(open(args.inject)).items()}
            if args.inject else None
        ),
        follow=args.follow,
        follow_seeds_file=args.follow_seeds_file,
        follow_idle_seconds=(
            args.follow_idle_seconds
            if args.follow_idle_seconds is not None
            else (args.epoch_seconds
                  if (args.follow or args.follow_seeds_file) else 0.0)
        ),
    )
    import signal

    stop = {"flag": False}

    def _on_term(signum, frame):  # graceful shutdown → checkpoint + exit
        stop["flag"] = True

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)
    if args.seeds_file:
        with open(args.seeds_file) as f:
            seeds = [ln.strip() for ln in f
                     if ln.strip() and not ln.lstrip().startswith("#")]
    else:
        seeds = seed_urls(web, args.seeds)
    stats = run_crawl(cfg, seeds, resume=args.resume,
                      should_stop=lambda: stop["flag"])
    print(
        json.dumps(
            {
                "epochs": stats.epochs,
                "payload_rows": stats.payload_rows,
                "out_dir": stats.out_dir,
                "metrics": stats.metrics,
                "phase_seconds": {
                    k: round(v, 3) for k, v in stats.phase_seconds.items()
                },
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
