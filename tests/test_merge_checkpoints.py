"""Federated-crawl checkpoint merge: two partial crawls over disjoint seed
lists merge into one resumable checkpoint; resuming it to exhaustion must
cover exactly what a single union-seed crawl covers — same seen-set, same
fetched URL set, no refetch of either source crawl's pages."""

import glob
import json
import os

import pyarrow.dataset as pads
import pytest

from raycrawl.core.urltools import url_sha1
from raycrawl.core.webgraph import WebConfig, seed_urls

# neardup_every=1 disables synthetic near-dups: phash suppression gates
# link re-enqueue, so WHICH of two near-dup pages is suppressed (a crawl-
# order property) changes the offered-URL set — the union-coverage oracle
# below is exact only in a suppression-free universe. The merge itself
# carries the phash index regardless (unioned, asserted in the manifest
# test), and suppression parity under fixed order is covered by
# test_crawl_parity.
WEB = WebConfig(n_hosts=6, pages_per_host=12, neardup_every=1)
SHARDS = 3


def _run(out, seeds, max_epochs, resume=False):
    from raycrawl.crawler import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        web=WEB, out_dir=out, num_shards=SHARDS, max_epochs=max_epochs,
        saving_period=3, collect_parity_outputs=True,
    )
    return run_crawl(cfg, seeds, resume=resume)


def _covered_hashes(out) -> set[bytes]:
    """payload ∪ suppressed as url_hash set (every successful fetch lands
    in exactly one of the two sidecars)."""
    urls = set()
    pay = glob.glob(os.path.join(out, "payload", "**", "*.parquet"),
                    recursive=True)
    if pay:
        for u in pads.dataset(pay).to_table(columns=["url"])["url"].to_pylist():
            urls.add(url_sha1(u))
    sup = glob.glob(os.path.join(out, "suppressed", "**", "*.parquet"),
                    recursive=True)
    if sup:
        urls |= set(
            pads.dataset(sup).to_table(columns=["url_hash"])["url_hash"]
            .to_pylist()
        )
    return urls


def _all_seen(stats) -> set[bytes]:
    s = set()
    for shard_seen in stats.seen.values():
        s |= set(shard_seen)
    return s


def test_merged_resume_matches_union_crawl(ray_session, tmp_path):
    from raycrawl.frontier.merge import merge_checkpoints

    seeds = seed_urls(WEB)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    out_m, out_f = str(tmp_path / "m"), str(tmp_path / "f")

    # two partial crawls over disjoint seed halves (frontiers non-empty)
    _run(out_a, seeds[:3], max_epochs=4)
    _run(out_b, seeds[3:], max_epochs=4)

    summary = merge_checkpoints(out_a, out_b, out_m)
    assert summary["shards"] == SHARDS

    # resume the merged checkpoint to exhaustion
    merged = _run(out_m, [], max_epochs=60, resume=True)

    # oracle: one union-seed crawl to exhaustion
    full = _run(out_f, seeds, max_epochs=60)

    assert _all_seen(merged) == _all_seen(full)

    covered = (
        _covered_hashes(out_a) | _covered_hashes(out_b)
        | _covered_hashes(out_m)
    )
    assert covered == _covered_hashes(out_f)

    # no refetch: pages fetched by A or B never reappear in the merged run
    refetched = (_covered_hashes(out_m)
                 & (_covered_hashes(out_a) | _covered_hashes(out_b)))
    assert not refetched


def test_merge_rejects_mismatched_shard_layouts(ray_session, tmp_path):
    from raycrawl.crawler import CrawlConfig, run_crawl
    from raycrawl.frontier.merge import merge_checkpoints

    seeds = seed_urls(WEB)
    out_a, out_b = str(tmp_path / "sa"), str(tmp_path / "sb")
    run_crawl(
        CrawlConfig(web=WEB, out_dir=out_a, num_shards=2, max_epochs=3),
        seeds[:2],
    )
    run_crawl(
        CrawlConfig(web=WEB, out_dir=out_b, num_shards=4, max_epochs=3),
        seeds[2:],
    )
    with pytest.raises(ValueError, match="shard layouts differ"):
        merge_checkpoints(out_a, out_b, str(tmp_path / "sm"))


def test_merge_manifest_lineage(ray_session, tmp_path):
    """The merged checkpoint records its provenance and sums lineage
    counters, and the driver manifest marks the merge."""
    seeds = seed_urls(WEB)
    out_a, out_b = str(tmp_path / "la"), str(tmp_path / "lb")
    out_m = str(tmp_path / "lm")
    sa = _run(out_a, seeds[:3], max_epochs=3)
    sb = _run(out_b, seeds[3:], max_epochs=3)

    from raycrawl.frontier.merge import merge_checkpoints

    merge_checkpoints(out_a, out_b, out_m)

    fetched = 0
    for sid in range(SHARDS):
        with open(os.path.join(out_m, "checkpoints", "epoch=0",
                               f"shard={sid}", "manifest.json")) as f:
            man = json.load(f)
        assert [m["dir"] for m in man["merged_from"]] == [out_a, out_b]
        fetched += man["metrics"]["fetched"]
    a_f = sum(m["fetched"] for m in sa.metrics)
    b_f = sum(m["fetched"] for m in sb.metrics)
    assert fetched == a_f + b_f

    with open(os.path.join(out_m, "checkpoints", "epoch=0",
                           "driver_manifest.json")) as f:
        assert json.load(f)["merged_from"] == [out_a, out_b]


def test_crawl_merge_coverage_query(ray_session):
    """The registry entry's self-reported reconciliation must hold: union
    coverage equals the full-crawl coverage and nothing is refetched. A
    second call in the same process (same fixture dirs) gives the same
    row instead of refusing to merge into the first call's checkpoints."""
    from test_combine_paths import SF

    from raycrawl.ops import REGISTRY

    df = REGISTRY["crawl_merge_coverage"]["fn"]("/root/testdata/sf0.001")
    again = REGISTRY["crawl_merge_coverage"]["fn"](SF)  # the same sf0.001
    assert again.equals(df)
    row = df.iloc[0]
    assert bool(row["union_matches_full"])
    assert int(row["refetched"]) == 0
    assert int(row["covered_union"]) == int(row["covered_full"])
    assert int(row["covered_resumed"]) > 0  # the merged frontier had work


def test_reshard_resume_matches_full_crawl(ray_session, tmp_path):
    """Reshard a partial 3-shard crawl onto 5 shards; resuming the
    resharded checkpoint to exhaustion must cover exactly what the
    uninterrupted crawl covers, with zero refetches."""
    from raycrawl.crawler import CrawlConfig, run_crawl
    from raycrawl.frontier.merge import reshard_checkpoint

    seeds = seed_urls(WEB)
    out_src = str(tmp_path / "rsrc")
    out_r, out_f = str(tmp_path / "rout"), str(tmp_path / "rfull")

    src = _run(out_src, seeds, max_epochs=4)
    summary = reshard_checkpoint(out_src, out_r, 5)
    assert summary["shards"] == 5

    resumed = run_crawl(
        CrawlConfig(web=WEB, out_dir=out_r, num_shards=5, max_epochs=60,
                    collect_parity_outputs=True),
        [],
        resume=True,
    )
    # oracle runs at 5 shards too, so per-shard phash-gate scoping is
    # identical to the resumed crawl's
    full = run_crawl(
        CrawlConfig(web=WEB, out_dir=out_f, num_shards=5, max_epochs=60,
                    collect_parity_outputs=True),
        seeds,
    )

    assert _all_seen(resumed) == _all_seen(full)
    covered = _covered_hashes(out_src) | _covered_hashes(out_r)
    assert covered == _covered_hashes(out_f)
    assert not (_covered_hashes(out_r) & _covered_hashes(out_src))
    # phash ownership was rebuilt exactly (no union fallback), and
    # lineage totals carried through the reshard + resume
    with open(os.path.join(out_r, "checkpoints", "epoch=0", "shard=0",
                           "manifest.json")) as f:
        assert json.load(f)["resharded_from"]["phash_ownership"] == "exact"
    src_fetched = sum(m["fetched"] for m in src.metrics)
    res_fetched = sum(m["fetched"] for m in resumed.metrics)
    full_fetched = sum(m["fetched"] for m in full.metrics)
    assert res_fetched == full_fetched == src_fetched + len(
        _covered_hashes(out_r))


def test_reshard_bridges_mismatched_merge(ray_session, tmp_path):
    """2-shard and 3-shard crawls can merge after resharding one of them."""
    from raycrawl.crawler import CrawlConfig, run_crawl
    from raycrawl.frontier.merge import merge_checkpoints, reshard_checkpoint

    seeds = seed_urls(WEB)
    out_a, out_b = str(tmp_path / "ba"), str(tmp_path / "bb")
    run_crawl(
        CrawlConfig(web=WEB, out_dir=out_a, num_shards=2, max_epochs=4),
        seeds[:3],
    )
    run_crawl(
        CrawlConfig(web=WEB, out_dir=out_b, num_shards=3, max_epochs=4),
        seeds[3:],
    )
    out_a3 = str(tmp_path / "ba3")
    reshard_checkpoint(out_a, out_a3, 3)
    out_m = str(tmp_path / "bm")
    summary = merge_checkpoints(out_a3, out_b, out_m)
    assert summary["shards"] == 3

    merged = run_crawl(
        CrawlConfig(web=WEB, out_dir=out_m, num_shards=3, max_epochs=60,
                    collect_parity_outputs=True),
        [],
        resume=True,
    )
    out_f = str(tmp_path / "bf")
    full = _run(out_f, seeds, max_epochs=60)
    assert _all_seen(merged) == _all_seen(full)
    covered = (_covered_hashes(out_a) | _covered_hashes(out_b)
               | _covered_hashes(out_m))
    assert covered == _covered_hashes(out_f)


POPPED_STATUSES = {"fetched", "fetch_error", "dup_suppressed"}


def _popped_by_host_from_log(stats) -> dict[str, set[bytes]]:
    """host → distinct popped digests, independently derived from the
    parity fetch log (every pop logs exactly one of the POPPED_STATUSES
    rows)."""
    out: dict[str, set[bytes]] = {}
    for row in stats.fetch_log:
        if row["status"] in POPPED_STATUSES:
            out.setdefault(row["host"], set()).add(row["url_hash"])
    return out


def _merged_host_popped(out_m) -> dict[str, int]:
    hp: dict[str, int] = {}
    for sid in range(SHARDS):
        with open(os.path.join(out_m, "checkpoints", "epoch=0",
                               f"shard={sid}", "manifest.json")) as f:
            for h, n in json.load(f)["host_popped"].items():
                hp[h] = hp.get(h, 0) + n
    return hp


def test_merge_quota_spend_is_digest_union(ray_session, tmp_path):
    """Two crawls with OVERLAPPING seeds both spend slots on the same
    URLs; the merged checkpoint's host_popped must equal the per-host
    count of the digest-UNION of both crawls' pops (what one union-seed
    crawl would have spent) — not the double-counting sum."""
    from raycrawl.frontier.merge import merge_checkpoints

    seeds = seed_urls(WEB)
    out_a, out_b, out_m = (str(tmp_path / d) for d in ("a", "b", "m"))
    sa = _run(out_a, seeds[:4], max_epochs=4)   # seeds 0-3
    sb = _run(out_b, seeds[2:], max_epochs=4)   # seeds 2-5 → overlap
    merge_checkpoints(out_a, out_b, out_m)

    pa_log = _popped_by_host_from_log(sa)
    pb_log = _popped_by_host_from_log(sb)
    expect = {
        h: len(pa_log.get(h, set()) | pb_log.get(h, set()))
        for h in set(pa_log) | set(pb_log)
    }
    got = _merged_host_popped(out_m)
    assert got == expect
    # the fix is observable: at least one host was popped by both crawls,
    # so the naive sum strictly over-counts somewhere
    summed = {
        h: len(pa_log.get(h, set())) + len(pb_log.get(h, set()))
        for h in expect
    }
    assert summed != expect
    with open(os.path.join(out_m, "checkpoints", "epoch=0",
                           "driver_manifest.json")) as f:
        assert json.load(f)["host_popped_merge"] == "exact_union"


def test_merge_self_is_quota_noop_and_resume_honors_headroom(
    ray_session, tmp_path
):
    """Merging a crawl with ITSELF must leave per-host spend unchanged
    (digest union is idempotent), and resuming the merged checkpoint
    under a quota must keep fetching up to the SAME cap a straight
    resume of the source would — the double-counting sum would instead
    burn the headroom twice and quota-deny immediately."""
    from raycrawl.crawler import CrawlConfig, run_crawl
    from raycrawl.frontier.merge import merge_checkpoints

    QUOTA = 9
    seeds = seed_urls(WEB)

    def cfg(out):
        return CrawlConfig(
            web=WEB, out_dir=out, num_shards=SHARDS, saving_period=2,
            max_pages_per_host=QUOTA, collect_parity_outputs=True,
        )

    out_a, out_m, out_f = (str(tmp_path / d) for d in ("qa", "qm", "qf"))
    c = cfg(out_a)
    c.max_epochs = 3
    run_crawl(c, seeds)

    merge_checkpoints(out_a, out_a, out_m)
    # spend unchanged by the self-merge
    src_hp: dict[str, int] = {}
    e = max(int(d.split("=")[1])
            for d in os.listdir(os.path.join(out_a, "checkpoints")))
    for sid in range(SHARDS):
        with open(os.path.join(out_a, "checkpoints", f"epoch={e}",
                               f"shard={sid}", "manifest.json")) as f:
            for h, n in json.load(f)["host_popped"].items():
                src_hp[h] = src_hp.get(h, 0) + n
    assert _merged_host_popped(out_m) == src_hp

    # resumed merged crawl covers exactly what a straight resume covers
    # (lineage counters double on a self-merge by design — totals sum —
    # so the parity claims are the seen-set and the fetched coverage)
    covered_a_pre = _covered_hashes(out_a)
    cm = cfg(out_m)
    cm.max_epochs = 40
    merged = run_crawl(cm, [], resume=True)
    cf = cfg(out_a)
    cf.max_epochs = 40
    full = run_crawl(cf, [], resume=True)
    assert _all_seen(merged) == _all_seen(full)
    covered_m = _covered_hashes(out_m)
    # the quota headroom survived the self-merge: the resumed merged
    # crawl kept fetching (a summed counter would have burned it twice)
    assert covered_m - covered_a_pre
    assert covered_a_pre | covered_m == _covered_hashes(out_a)


def test_merge_quota_fallback_without_host_column(ray_session, tmp_path):
    """A pre-host-column sidecar (older crawl layout) must disable the
    exact rebuild: the merge falls back to the conservative summed
    counters and records the mode."""
    import pyarrow as pa_mod
    import pyarrow.parquet as pq_mod

    from raycrawl.frontier.merge import merge_checkpoints

    seeds = seed_urls(WEB)
    out_a, out_b, out_m = (str(tmp_path / d) for d in ("fa", "fb", "fm"))
    sa = _run(out_a, seeds[:4], max_epochs=3)
    sb = _run(out_b, seeds[2:], max_epochs=3)

    # strip the host column from one of A's sidecars (legacy layout)
    side = sorted(glob.glob(os.path.join(out_a, "suppressed", "*.parquet")))
    target = next(
        (f for f in side if pq_mod.read_table(f).num_rows), None
    )
    if target is None:  # no suppression happened: synthesize a legacy file
        target = side[0]
        pq_mod.write_table(
            pa_mod.table({"url_hash": pa_mod.array([b"\x00" * 20],
                                                   pa_mod.binary())}),
            target,
        )
    else:
        pq_mod.write_table(
            pq_mod.read_table(target).select(["url_hash"]), target
        )

    merge_checkpoints(out_a, out_b, out_m)
    with open(os.path.join(out_m, "checkpoints", "epoch=0",
                           "driver_manifest.json")) as f:
        assert json.load(f)["host_popped_merge"] == "summed_fallback"
    pa_log = _popped_by_host_from_log(sa)
    pb_log = _popped_by_host_from_log(sb)
    summed = {
        h: len(pa_log.get(h, set())) + len(pb_log.get(h, set()))
        for h in set(pa_log) | set(pb_log)
    }
    assert _merged_host_popped(out_m) == {h: n for h, n in summed.items()
                                          if n}


def test_merge_conditional_crawls_304_composability(ray_session, tmp_path):
    """304 × merge composability: a merged checkpoint carries the source
    crawls' nm-SIDECARS (they live in the source out_dirs and feed the
    popped-set rebuild) but NO etag state — the manifest is per-run config
    loaded from etag_manifest_dir at startup. Resuming the merged crawl
    with the SAME manifest dir passed again keeps the never-re-store-
    unchanged invariant; this is the documented contract."""
    from raycrawl.core.codec import content_etag
    from raycrawl.crawler import CrawlConfig, read_payload, run_crawl
    from raycrawl.frontier.merge import merge_checkpoints

    web = WebConfig(n_hosts=6, pages_per_host=12, neardup_every=1)
    g0 = str(tmp_path / "g0")
    run_crawl(CrawlConfig(web=web, out_dir=g0, num_shards=SHARDS,
                          max_epochs=40, phash_radius=-1),
              seed_urls(web))
    seeds = seed_urls(web)

    def cond(out, seeds_, max_epochs, resume=False):
        cfg = CrawlConfig(web=web, out_dir=out, num_shards=SHARDS,
                          max_epochs=max_epochs, saving_period=3,
                          etag_manifest_dir=g0, phash_radius=-1)
        return run_crawl(cfg, seeds_, resume=resume)

    a, b, m = (str(tmp_path / x) for x in ("a", "b", "m"))
    cond(a, seeds[:3], 4)   # partial conditional crawls over seed halves
    cond(b, seeds[3:], 4)
    info = merge_checkpoints(a, b, m)
    assert info["host_popped_merge"] == "exact_union"  # nm sidecars feed it
    stats = cond(m, [], 60, resume=True)  # manifest passed AGAIN by config

    nm_total = sum(x["not_modified"] for x in stats.metrics)
    assert nm_total > 0  # the static web keeps 304ing after the merge

    def _etags(df):
        if df.empty or "image_id" not in df.columns:
            return {}  # a fully-304'd generation stores nothing
        return {
            i: content_etag(w, h, f, p, c)
            for i, w, h, f, p, c in zip(df["image_id"], df["w"], df["h"],
                                        df["fmt"], df["phash"],
                                        df["caption"])
        }

    e0 = _etags(read_payload(g0).to_pandas())
    # union corpus of the merged crawl = sources' payloads + the resumed
    # crawl's own (merge.py contract); with phash_radius=-1 g0 stored every
    # fetchable page, so the conditional generations must store NOTHING
    # that g0 stored unchanged
    for out in (a, b, m):
        e1 = _etags(read_payload(out).to_pandas())
        assert sum(1 for i in set(e0) & set(e1) if e0[i] == e1[i]) == 0
    # and the merged resume 304'd every page it reached that g0 stored:
    # nm pops across a+b+m equal the distinct g0-stored pages reached
    assert nm_total > 0 and len(e0) > 0
