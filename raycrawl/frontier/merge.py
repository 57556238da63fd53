"""Checkpoint MERGE: combine two crawls' checkpoints into one resumable
checkpoint — the federated-crawl / crawl-splice primitive (two crawlers
covered different seed lists, or a re-crawl must absorb an older run's
coverage without refetching it).

Reference analog: ``Stance_Detection.py``'s resume loader unions its own
per-iteration JSON checkpoints; here the union crosses CRAWLS, keyed on
the same SHA-1 canonical-URL digests the north rule's seen-set uses.

Semantics (per shard — both crawls must use the same shard count so the
host→shard mapping matches):

  * merged seen-set  = seenA ∪ seenB (exact digests re-inserted through
    ``SeenSet.check_and_add`` so bloom + cuckoo are rebuilt consistently;
    at production scale — no exact table — the counting-Bloom arrays merge
    by element-wise add and cuckoo fingerprints re-insert, same shape).
  * a digest is DONE if either crawl moved it past its frontier
    (fetched / robots-denied / trap-denied / suppressed):
    ``done = (seenA − frontierA) ∪ (seenB − frontierB)``.
  * merged frontier = (frontierA ∪ frontierB) − done, deduped per digest
    keeping the best heap key (max priority, then min depth, then min
    discovered_at) — the same (priority, depth, discovery-time) order the
    per-partition heap uses.
  * pending offers pass through UNFILTERED (kept at min depth per URL):
    the next ``pop``'s ``_merge_pending`` re-gates them against the merged
    seen-set and robots rules, exactly as a resumed crawl would.
  * phash near-dup index = union of both chunk indexes; politeness buckets
    keep the MIN token balance per host (conservative); robots caches
    union with A precedence; lineage counters sum.

Conditional-fetch (304) composability: the source crawls' not_modified
SIDECARS stay in their out_dirs and feed the popped-set rebuild here, but a
merged checkpoint carries NO etag state — the manifest is per-run CONFIG
loaded from ``etag_manifest_dir`` at startup, so a resumed merged crawl
must be given the manifest dir again to keep 304ing (pinned by
``test_merge_conditional_crawls_304_composability``).

The merged checkpoint is written as ``epoch=0`` under a fresh out_dir so
``run_crawl(..., resume=True)`` continues it. Payload written by the two
source crawls stays in THEIR out_dirs (their epochs are already fetched —
the merged seen-set guarantees no refetch); the union corpus is the
concatenation of the three payload trees.

Scale note: this is a per-shard driver loop over checkpoint FILES (state
sketches + frontier parquet), not over corpus data — at 10^10 URLs each
shard's state is bounded by its frontier + sketch arrays, and shards merge
independently (embarrassingly parallel; wrap ``merge_shard`` in one Ray
task per shard when shard state outgrows the driver).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow.parquet as pq

from ..core.sketches import PhashIndex, SeenSet
from .shard import SIDECARS, FrontierShard


def _latest_epoch(out_dir: str) -> int:
    from ..crawler import latest_checkpoint_epoch

    e = latest_checkpoint_epoch(out_dir)
    if e is None:
        raise FileNotFoundError(f"no COMPLETE checkpoint under {out_dir}")
    return e


def _require_clean_out_dir(out_dir: str) -> None:
    """A merged/resharded checkpoint is written as epoch=0 and must be
    the ONLY checkpoint in its out_dir: ``run_crawl(resume=True)``
    resumes from the LATEST complete epoch, so stale higher-numbered
    checkpoints (a reused out_dir) would silently win over the fresh
    epoch=0 — caught live when a kept scratch dir resumed a previous
    run's crawl instead of the resharded one."""
    ckpt = os.path.join(out_dir, "checkpoints")
    if os.path.isdir(ckpt) and any(
        e.startswith("epoch=") for e in os.listdir(ckpt)
    ):
        raise ValueError(
            f"{out_dir} already holds checkpoints; merge/reshard must "
            "write into a fresh out_dir (resume picks the LATEST epoch, "
            "which would shadow the new epoch=0)"
        )


def _shard_ids(out_dir: str, epoch: int) -> list[int]:
    d = os.path.join(out_dir, "checkpoints", f"epoch={epoch}")
    return sorted(
        int(f.split("=")[1]) for f in os.listdir(d) if f.startswith("shard=")
    )


def _load_shard(out_dir: str, epoch: int, shard_id: int):
    d = os.path.join(
        out_dir, "checkpoints", f"epoch={epoch}", f"shard={shard_id}"
    )
    with open(os.path.join(d, "manifest.json")) as f:
        manifest = json.load(f)
    with open(os.path.join(d, "exact_seen.bin"), "rb") as f:
        raw = f.read()
    digests = [raw[i : i + 20] for i in range(0, len(raw), 20)]
    seen = set(digests)
    npz = np.load(os.path.join(d, "sketches.npz"))
    # digest → host_shard_key (u32 array aligned to the sorted digest
    # order); None on pre-hostkey checkpoints → union fallback downstream
    if "seen_hostkeys" in npz and len(npz["seen_hostkeys"]) == len(digests):
        hostkeys = dict(
            zip(digests, npz["seen_hostkeys"].astype(int).tolist())
        )
    else:
        hostkeys = None if digests else {}
    frontier = pq.read_table(os.path.join(d, "frontier.parquet"))
    pending = pq.read_table(os.path.join(d, "pending.parquet"))
    return manifest, seen, hostkeys, npz["phash"], frontier, pending


def _chain_dirs(root_dir: str, epoch: int) -> list[tuple[str, int]]:
    """(out_dir, epoch_cap) for ``root_dir`` and every source crawl in its
    ``merged_from`` chain (a merge of merges recurses). A merged
    checkpoint's payload/sidecar trees live in its SOURCES' out_dirs
    (merge.py module docstring) — any walk of "what did this crawl emit"
    must chase the chain, capped per dir at the epoch that dir
    contributed."""
    out: list[tuple[str, int]] = []
    walk = [(root_dir, epoch)]
    seen_dirs: set[str] = set()
    while walk:
        d, ep_cap = walk.pop()
        if d in seen_dirs:
            continue
        seen_dirs.add(d)
        out.append((d, ep_cap))
        dm = os.path.join(d, "checkpoints", f"epoch={ep_cap}",
                          "driver_manifest.json")
        if os.path.exists(dm):
            with open(dm) as fh:
                man = json.load(fh)
            srcs = man.get("merged_from") or []
            eps = man.get("merged_from_epochs") or [None] * len(srcs)
            for s, se in zip(srcs, eps):
                walk.append((s, se if se is not None else _latest_epoch(s)))
    return out


def _popped_digest_hosts(root_dir: str, epoch: int) -> dict[bytes, str] | None:
    """digest → host for every pop this crawl (and its merged_from chain)
    recorded up to ``epoch``: payload rows plus the suppressed/errors/
    redirects sidecars — every pop lands in exactly ONE of the four trees,
    so their digest-union IS the popped set. Returns None when the trees cannot
    support an exact rebuild (pre-host-column sidecars). Driver-tool scale
    note: reads are column-pruned metadata (20 B digest + host per pop);
    at 10^10 fan this out one Ray task per epoch file and merge dicts."""
    import glob as _glob

    import pyarrow.dataset as pads

    from ..core.urltools import host_of

    popped: dict[bytes, str] = {}
    for d, ep_cap in _chain_dirs(root_dir, epoch):
        pay = [
            f
            for f in _glob.glob(
                os.path.join(d, "payload", "epoch=*", "*.parquet")
            )
            if int(os.path.basename(os.path.dirname(f)).split("=")[1])
            <= ep_cap
        ]
        if pay:
            t = pads.dataset(pay).to_table(columns=["url_hash", "url"])
            for dg, u in zip(t["url_hash"].to_pylist(),
                             t["url"].to_pylist()):
                popped[dg] = host_of(u)
        for side in SIDECARS:
            for f in _glob.glob(os.path.join(d, side, "epoch=*.parquet")):
                ep = int(os.path.basename(f).split("=")[1].split(".")[0])
                if ep > ep_cap:
                    continue
                t = pq.read_table(f)
                if not t.num_rows:
                    continue
                if "host" not in t.column_names:
                    return None  # pre-host-column crawl → summed fallback
                for dg, h in zip(t["url_hash"].to_pylist(),
                                 t["host"].to_pylist()):
                    popped[dg] = h
    return popped


def _manifest_host_popped(out_dir: str, epoch: int) -> dict[str, int]:
    """Σ over shard manifests of host_popped — the crawl's own recorded
    per-host slot spend."""
    hp: dict[str, int] = {}
    for sid in _shard_ids(out_dir, epoch):
        d = os.path.join(out_dir, "checkpoints", f"epoch={epoch}",
                         f"shard={sid}")
        with open(os.path.join(d, "manifest.json")) as f:
            man = json.load(f)
        for h, n in man.get("host_popped", {}).items():
            hp[h] = hp.get(h, 0) + n
    return hp


_COUNTERS = (
    "offered",
    "accepted",
    "fetched",
    "robots_denied",
    "phash_suppressed",
    "fetch_errors",
    "trap_denied",
    "quota_denied",
    "quota_dropped",
    "redirects_followed",
    "depth_denied",
    "not_modified",
    "sitemap_expanded",
)


def merge_shard(
    dir_a: str,
    dir_b: str,
    out_dir: str,
    shard_id: int,
    epoch_a: int,
    epoch_b: int,
    expected_urls: int = 1 << 14,
    phash_radius: int = 2,
) -> dict:
    """Merge one shard's state from two crawls; returns the new manifest."""
    man_a, seen_a, hk_a, ph_a, fr_a, pe_a = _load_shard(dir_a, epoch_a, shard_id)
    man_b, seen_b, hk_b, ph_b, fr_b, pe_b = _load_shard(dir_b, epoch_b, shard_id)

    fh_a = set(fr_a["url_hash"].to_pylist())
    fh_b = set(fr_b["url_hash"].to_pylist())
    done = (seen_a - fh_a) | (seen_b - fh_b)

    shard = FrontierShard(
        shard_id,
        man_a["epoch_seconds"],
        expected_urls,
        phash_radius,
        man_a.get("burst", 8.0),
        man_a.get("log_enabled", True),
        trap_filter=man_a.get("trap_filter", False)
        or man_b.get("trap_filter", False),
    )

    # seen-set: deterministic (sorted) re-insertion rebuilds bloom+cuckoo
    for digest in sorted(seen_a | seen_b):
        shard.seen.check_and_add(digest)
    # host-shard keys survive the merge (same digest ⇒ same host ⇒ same
    # key) so a later reshard of the merged crawl stays exact; one
    # pre-hostkey input poisons the merged checkpoint to union-fallback
    if hk_a is not None and hk_b is not None:
        shard.seen_hostkey = {**hk_a, **hk_b}
    else:
        shard.seen_keys_complete = False

    # frontier: best heap key per digest, minus everything already done
    best: dict[bytes, tuple] = {}
    host_of: dict[bytes, str] = {}
    for fr in (fr_a, fr_b):
        for url, digest, pri, depth, disc, host in zip(
            fr["url"].to_pylist(),
            fr["url_hash"].to_pylist(),
            fr["priority"].to_pylist(),
            fr["depth"].to_pylist(),
            fr["discovered_at"].to_pylist(),
            fr["host"].to_pylist(),
        ):
            if digest in done:
                continue
            item = (-pri, depth, disc, digest, url)
            if digest not in best or item < best[digest]:
                best[digest] = item
                host_of[digest] = host
    for digest in sorted(best):
        shard._push(host_of[digest], best[digest])

    # pending offers: min depth per URL; re-gated by the next pop
    for pe in (pe_a, pe_b):
        for url, digest, host, pri, depth, disc in zip(
            pe["url"].to_pylist(),
            pe["url_hash"].to_pylist(),
            pe["host"].to_pylist(),
            pe["priority"].to_pylist(),
            pe["depth"].to_pylist(),
            pe["discovered_at"].to_pylist(),
        ):
            cur = shard.pending.get(url)
            if cur is None or depth < cur[3]:
                shard.pending[url] = (digest, host, pri, depth, disc)

    # phash index union (duplicates are harmless: query is any-match)
    merged_ph = np.unique(
        np.concatenate(
            [np.asarray(ph_a, np.uint64), np.asarray(ph_b, np.uint64)]
        )
    )
    shard.phash = PhashIndex.restore(merged_ph, phash_radius)

    # robots cache: union, A precedence; politeness: conservative min
    # (normalize_rules handles both the (allow, pattern) pair format and
    # legacy bare-prefix checkpoints)
    from ..core.politeness import RobotsCache

    shard.robots.rules = {
        **{h: RobotsCache.normalize_rules(r)
           for h, r in man_b["robots"].items()},
        **{h: RobotsCache.normalize_rules(r)
           for h, r in man_a["robots"].items()},
    }
    shard.robots.delays = {
        **man_b.get("robots_delays", {}),
        **man_a.get("robots_delays", {}),
    }
    for h in shard.robots.rules:
        shard.robots.delays.setdefault(h, None)
    shard.robots.fetches = (
        man_a["metrics"]["robots_fetches"] + man_b["metrics"]["robots_fetches"]
    )
    # rule richness: ON if either parent crawled with it (hosts already
    # cached carry their rules regardless; this only shapes NEW hosts)
    shard.robots.rich = (man_a.get("rich_robots", False)
                         or man_b.get("rich_robots", False))
    toks = dict(man_b.get("tokens", {}))
    for h, t in man_a.get("tokens", {}).items():
        toks[h] = min(t, toks[h]) if h in toks else t
    for h, t in toks.items():
        shard.politeness.bucket(h).tokens = t

    shard.metrics = {
        k: man_a["metrics"].get(k, 0) + man_b["metrics"].get(k, 0)
        for k in _COUNTERS
    }

    # host quota: per-shard default is the SUM of the two crawls' spend.
    # Where both crawls popped the SAME url, the sum double-counts that
    # slot vs what one union-seed crawl would have spent —
    # merge_checkpoints rewrites these counters with the exact
    # digest-union rebuilt from the payload/suppressed/errors trees when
    # the trees support it (host column present, counts reconcile); the
    # sum survives only as the conservative (never under-counting)
    # fallback. The quota itself follows the stricter crawl, and the
    # resumed run's config can override it (FrontierShard.restore
    # precedence).
    hp = dict(man_a.get("host_popped", {}))
    for h, n in man_b.get("host_popped", {}).items():
        hp[h] = hp.get(h, 0) + n
    shard.host_popped = hp
    # error-backoff streaks: conservative MAX per host (the flakier view
    # wins — a merged crawl backs off at least as hard as either source);
    # the flag itself is ON if either crawl ran with it
    shard.error_backoff = (man_a.get("error_backoff", False)
                           or man_b.get("error_backoff", False))
    ce = dict(man_a.get("host_consec_errors", {}))
    for h, n in man_b.get("host_consec_errors", {}).items():
        ce[h] = max(n, ce.get(h, 0))
    shard.host_consec_errors = ce
    quotas = [q for q in (man_a.get("host_quota"), man_b.get("host_quota"))
              if q is not None]
    shard.host_quota = min(quotas) if quotas else None

    ckpt_dir = os.path.join(out_dir, "checkpoints")
    manifest = shard.checkpoint(ckpt_dir, 0)
    manifest["merged_from"] = [
        {"dir": dir_a, "epoch": epoch_a},
        {"dir": dir_b, "epoch": epoch_b},
    ]
    d = os.path.join(ckpt_dir, "epoch=0", f"shard={shard_id}")
    with open(os.path.join(d, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    return manifest


def merge_checkpoints(
    dir_a: str,
    dir_b: str,
    out_dir: str,
    expected_urls: int = 1 << 14,
    phash_radius: int = 2,
) -> dict:
    """Merge the latest COMPLETE checkpoints of two crawls into a fresh
    resumable out_dir (epoch=0). Returns a summary dict."""
    epoch_a, epoch_b = _latest_epoch(dir_a), _latest_epoch(dir_b)
    ids_a = _shard_ids(dir_a, epoch_a)
    ids_b = _shard_ids(dir_b, epoch_b)
    if ids_a != ids_b:
        raise ValueError(
            f"shard layouts differ ({len(ids_a)} vs {len(ids_b)}); "
            "re-shard one crawl first (host→shard mapping must match)"
        )
    _require_clean_out_dir(out_dir)
    os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
    # Shards merge independently (disjoint host sets, disjoint output
    # dirs) — fan out one Ray task per shard when a session is live so a
    # many-shard merge isn't serialized through the driver; checkpoint
    # trees live on shared storage in a real cluster, so the tasks read/
    # write the same paths the driver loop would. Falls back to the
    # in-process loop outside a Ray session (library code never inits).
    import ray

    if ray.is_initialized() and len(ids_a) > 1:
        task = ray.remote(num_cpus=1)(merge_shard)
        manifests = ray.get([
            task.remote(
                dir_a, dir_b, out_dir, sid, epoch_a, epoch_b,
                expected_urls, phash_radius,
            )
            for sid in ids_a
        ])
    else:
        manifests = [
            merge_shard(
                dir_a, dir_b, out_dir, sid, epoch_a, epoch_b,
                expected_urls, phash_radius,
            )
            for sid in ids_a
        ]
    # Exact host-quota spend: where both crawls popped the same URL, the
    # per-shard manifest sum double-counts that slot vs a single
    # union-seed crawl (which pops each digest once). Rebuild the merged
    # counters as the per-host count of the DIGEST-UNION of both crawls'
    # pops (payload ∪ suppressed ∪ errors trees). Guard rails: each side's
    # tree-derived counts must reconcile exactly with its own manifest sum
    # (a side that was itself an old summed merge, or has incomplete
    # trees, fails this and keeps the conservative summed counters), and
    # pre-host-column sidecars fall back too. The manifest records which
    # path ran.
    from collections import Counter

    from ..core.urltools import shard_of_host

    quota_mode = "summed_fallback"
    pop_a = _popped_digest_hosts(dir_a, epoch_a)
    pop_b = _popped_digest_hosts(dir_b, epoch_b) if pop_a is not None else None
    if (
        pop_a is not None
        and pop_b is not None
        and dict(Counter(pop_a.values()))
        == _manifest_host_popped(dir_a, epoch_a)
        and dict(Counter(pop_b.values()))
        == _manifest_host_popped(dir_b, epoch_b)
    ):
        exact = Counter({**pop_a, **pop_b}.values())
        quota_mode = "exact_union"
        n = len(ids_a)
        for sid in ids_a:
            mp = os.path.join(out_dir, "checkpoints", "epoch=0",
                              f"shard={sid}", "manifest.json")
            with open(mp) as f:
                man = json.load(f)
            man["host_popped"] = {
                h: c for h, c in exact.items() if shard_of_host(h, n) == sid
            }
            man["host_popped_merge"] = quota_mode
            with open(mp, "w") as f:
                json.dump(man, f)

    d = os.path.join(out_dir, "checkpoints", "epoch=0")
    with open(os.path.join(d, "driver_manifest.json"), "w") as f:
        json.dump(
            {"epoch": 0, "merged_from": [dir_a, dir_b],
             "merged_from_epochs": [epoch_a, epoch_b],
             "host_popped_merge": quota_mode,
             "phase_seconds": {}},
            f,
        )
    with open(os.path.join(d, "COMPLETE"), "w") as f:
        f.write("merged\n")
    return {
        "shards": len(manifests),
        "seen_count": sum(m["seen_count"] for m in manifests),
        "out_dir": out_dir,
        "host_popped_merge": quota_mode,
    }


def _reshard_build_shard(sid: int, state) -> None:
    """Build + checkpoint ONE new shard from the collected redistribution
    state (runs in-process or as a Ray task; ``state`` may arrive as an
    ObjectRef-resolved dict either way)."""
    from ..core.urltools import shard_of_host

    s = state
    man0 = s["man0"]
    new_n = s["new_num_shards"]
    shard = FrontierShard(
        sid,
        man0["epoch_seconds"],
        s["expected_urls"],
        s["phash_radius"],
        man0.get("burst", 8.0),
        man0.get("log_enabled", True),
        trap_filter=man0.get("trap_filter", False),
    )
    if s["seen_keys"] is not None:
        # exact ownership: this shard's hosts' digests only (see
        # reshard_checkpoint — key % new_n is shard_of_host's mod)
        for digest, k in zip(s["seen_sorted"], s["seen_keys"].tolist()):
            if k % new_n == sid:
                shard.seen.check_and_add(digest)
                shard.seen_hostkey[digest] = k
    else:
        for digest in s["seen_sorted"]:
            shard.seen.check_and_add(digest)
        shard.seen_keys_complete = not s["seen_sorted"]
    if s["ph_by_shard"] is not None:
        shard.phash = PhashIndex.restore(
            np.sort(np.asarray(s["ph_by_shard"].get(sid, []), np.uint64)),
            s["phash_radius"],
        )
    else:
        shard.phash = PhashIndex.restore(s["union_ph"], s["phash_radius"])
    for host, item in s["frontier_rows"]:
        if shard_of_host(host, new_n) == sid:
            shard._push(host, tuple(item))
    for url, digest, host, pri, depth, disc in s["pending_rows"]:
        if shard_of_host(host, new_n) == sid:
            cur = shard.pending.get(url)
            if cur is None or depth < cur[3]:
                shard.pending[url] = (digest, host, pri, depth, disc)
    own = lambda h: shard_of_host(h, new_n) == sid  # noqa: E731
    from ..core.politeness import RobotsCache as _RC

    shard.robots.rules = {h: _RC.normalize_rules(r)
                          for h, r in s["robots_rules"].items() if own(h)}
    shard.robots.rich = s.get("rich_robots", False)
    shard.robots.delays = {h: d for h, d in s["robots_delays"].items()
                           if own(h)}
    for h in shard.robots.rules:
        shard.robots.delays.setdefault(h, None)
    for h, t in s["tokens"].items():
        if own(h):
            shard.politeness.bucket(h).tokens = t
    # quota counters follow each host to its new home shard (host→shard
    # pinning keeps the lifetime cap exact across a reshard)
    shard.host_popped = {h: n for h, n in s["host_popped"].items() if own(h)}
    shard.host_quota = s["host_quota"]
    shard.error_backoff = s["error_backoff"]
    shard.host_consec_errors = {
        h: n for h, n in s["host_consec_errors"].items() if own(h)
    }
    if sid == 0:
        shard.metrics = dict(s["counters"])
        shard.robots.fetches = s["robots_fetches"]
    manifest = shard.checkpoint(s["ckpt_dir"], 0)
    manifest["resharded_from"] = {
        "dir": s["src_dir"], "epoch": s["epoch"], "num_shards": s["old_n"],
        "phash_ownership": "exact" if s["ph_by_shard"] is not None
        else "union_fallback",
        "seen_ownership": "exact" if s["seen_keys"] is not None
        else "union_fallback",
    }
    d = os.path.join(s["ckpt_dir"], "epoch=0", f"shard={sid}")
    with open(os.path.join(d, "manifest.json"), "w") as f:
        json.dump(manifest, f)


def reshard_checkpoint(
    src_dir: str,
    out_dir: str,
    new_num_shards: int,
    expected_urls: int = 1 << 14,
    phash_radius: int = 2,
) -> dict:
    """Re-partition a crawl's latest checkpoint onto a DIFFERENT shard
    count (grow a crawl from 8 to 32 shards before moving to a bigger
    cluster, or shrink one; also the bridge that lets two crawls with
    mismatched layouts merge: reshard one, then ``merge_checkpoints``).

    What redistributes EXACTLY: frontier items and pending offers carry
    their host, so they move to ``shard_of_host(host, new_n)`` — the same
    function the crawler routes offers with; robots rules / delays and
    politeness token balances are per-host and follow their host.

    Seen digests redistribute EXACTLY too: checkpoints carry a u32
    ``host_shard_key(host)`` per digest (recorded at offer-merge time,
    the one point a digest enters `seen` with its host in scope), and
    ``key % new_n`` is by construction the same mod ``shard_of_host``
    applies to the digest's host — so each new shard receives exactly
    its own hosts' digests and per-shard seen memory is a partition of
    the union, not new_n copies of it. Pre-hostkey checkpoints (no
    ``seen_hostkeys`` array) fall back to union replication, which
    remains CORRECT (a shard only membership-tests URLs of its own
    hosts, and the union answers those identically) at the old
    new_n × |seen| memory cost; the manifest records which path ran
    (``seen_ownership``).

    The phash near-dup index must NOT be union-replicated: the per-shard
    gate suppresses against its OWN hosts' images, and a union index
    would suppress across shard boundaries — dropping pages (and their
    outlinks) a correctly-laid-out crawl would fetch (this exact failure
    was caught by test_reshard_resume_matches_full_crawl). Index
    contents are exactly the phashes of payload-emitted pages
    (shard.py gate_finalize), and payload rows carry (url, phash) — so
    ownership is rebuilt EXACTLY from the payload sidecar of epochs
    ≤ the checkpoint epoch (column-pruned read; at 10^10 the same read
    over the payload's metadata columns is a distributed map). If the
    payload tree is missing/diverges from the checkpointed index, the
    tool falls back to union replication (≥ as strict gating, noted in
    the manifest) rather than silently under-gating; with the global
    phash tier (`global_phash_dedup`) gating is layout-independent
    anyway.

    Lineage counters are crawl totals, not per-host — they cannot be
    split truthfully, so the totals land on new shard 0 (reconciliation
    queries sum over shards; documented in the manifest via
    ``resharded_from``)."""
    from ..core.urltools import shard_of_host

    epoch = _latest_epoch(src_dir)
    old_ids = _shard_ids(src_dir, epoch)
    _require_clean_out_dir(out_dir)

    union_seen: set[bytes] = set()
    union_hostkeys: dict[bytes, int] | None = {}
    phashes = []
    frontier_rows = []  # (host, item)
    pending_rows = []  # (url, digest, host, pri, depth, disc)
    robots_rules: dict = {}
    rich_robots = False
    robots_delays: dict = {}
    tokens: dict = {}
    counters = {k: 0 for k in _COUNTERS}
    robots_fetches = 0
    host_popped: dict[str, int] = {}
    host_consec_errors: dict[str, int] = {}
    error_backoff = False
    host_quota = None
    man0 = None
    for sid in old_ids:
        man, seen, hk, ph, fr, pe = _load_shard(src_dir, epoch, sid)
        man0 = man0 or man
        union_seen |= seen
        if hk is None or union_hostkeys is None:
            union_hostkeys = None  # any keyless shard → union fallback
        else:
            union_hostkeys.update(hk)
        phashes.append(np.asarray(ph, np.uint64))
        for url, digest, pri, depth, disc, host in zip(
            fr["url"].to_pylist(), fr["url_hash"].to_pylist(),
            fr["priority"].to_pylist(), fr["depth"].to_pylist(),
            fr["discovered_at"].to_pylist(), fr["host"].to_pylist(),
        ):
            frontier_rows.append((host, (-pri, depth, disc, digest, url)))
        for url, digest, host, pri, depth, disc in zip(
            pe["url"].to_pylist(), pe["url_hash"].to_pylist(),
            pe["host"].to_pylist(), pe["priority"].to_pylist(),
            pe["depth"].to_pylist(), pe["discovered_at"].to_pylist(),
        ):
            pending_rows.append((url, digest, host, pri, depth, disc))
        robots_rules.update({h: tuple(r) for h, r in man["robots"].items()})
        robots_delays.update(man.get("robots_delays", {}))
        tokens.update(man.get("tokens", {}))
        for h, n in man.get("host_popped", {}).items():
            host_popped[h] = host_popped.get(h, 0) + n
        for h, n in man.get("host_consec_errors", {}).items():
            host_consec_errors[h] = max(n, host_consec_errors.get(h, 0))
        error_backoff = error_backoff or man.get("error_backoff", False)
        rich_robots = rich_robots or man.get("rich_robots", False)
        if man.get("host_quota") is not None:
            host_quota = (man["host_quota"] if host_quota is None
                          else min(host_quota, man["host_quota"]))
        for k in _COUNTERS:
            counters[k] += man["metrics"].get(k, 0)
        robots_fetches += man["metrics"]["robots_fetches"]

    union_ph = np.unique(np.concatenate(phashes)) if phashes else np.array(
        [], np.uint64
    )
    # exact per-new-shard phash ownership from the payload sidecar
    import glob as _glob

    from ..core.urltools import host_of

    ph_by_shard: dict[int, list] | None = {}
    # A MERGED checkpoint has no payload tree of its own — its payload is
    # the union of its sources' trees (merge.py:35). Walk the merged_from
    # chain (a merge of merges recurses) collecting every source's payload
    # files up to the epoch that source contributed, so the payload↔index
    # invariant (index == payload-emitted phashes) keeps holding and the
    # reshard stays EXACT for federated crawls too.
    pay_files = [
        f
        for d, ep_cap in _chain_dirs(src_dir, epoch)
        for f in _glob.glob(os.path.join(d, "payload", "epoch=*", "*.parquet"))
        if int(os.path.basename(os.path.dirname(f)).split("=")[1]) <= ep_cap
    ]
    if not len(union_ph):
        # nothing was ever gated (e.g. the crawl ran with phash_radius=-1,
        # or no page emitted yet): empty per-shard indexes ARE the exact
        # redistribution — don't let a phash-carrying payload force the
        # union fallback over an empty index
        pass
    elif pay_files:
        import pyarrow.dataset as pads

        t = pads.dataset(pay_files).to_table(columns=["url", "phash"])
        owners = np.array(
            [shard_of_host(host_of(u), new_num_shards)
             for u in t["url"].to_pylist()],
            dtype=np.int64,
        )
        pay_ph = t["phash"].to_numpy(zero_copy_only=False).astype(
            np.int64
        ).view(np.uint64)
        if set(np.unique(pay_ph).tolist()) == set(union_ph.tolist()):
            for sid in range(new_num_shards):
                ph_by_shard[sid] = pay_ph[owners == sid]
        else:  # payload/index divergence → conservative union fallback
            ph_by_shard = None
    else:
        ph_by_shard = None if len(union_ph) else {}

    seen_sorted = sorted(union_seen)
    # u32 host-shard keys aligned to seen_sorted: each new shard takes
    # exactly the digests with key % new_n == its id (the SAME mod that
    # routes the digest's host), so per-shard seen memory drops from
    # new_n × |union| to a partition of it. None (pre-hostkey source
    # checkpoint) → every shard takes the whole union, as before.
    seen_keys = (
        np.fromiter((union_hostkeys[dg] for dg in seen_sorted), np.uint32,
                    len(seen_sorted))
        if union_hostkeys is not None
        and len(union_hostkeys) == len(seen_sorted)
        else None
    )

    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    state = {
        "man0": man0, "seen_sorted": seen_sorted, "seen_keys": seen_keys,
        "union_ph": union_ph,
        "ph_by_shard": ph_by_shard, "frontier_rows": frontier_rows,
        "pending_rows": pending_rows, "robots_rules": robots_rules,
        "robots_delays": robots_delays, "tokens": tokens,
        "counters": counters, "robots_fetches": robots_fetches,
        "host_popped": host_popped, "host_quota": host_quota,
        "host_consec_errors": host_consec_errors,
        "error_backoff": error_backoff, "rich_robots": rich_robots,
        "src_dir": src_dir, "epoch": epoch, "old_n": len(old_ids),
        "new_num_shards": new_num_shards, "expected_urls": expected_urls,
        "phash_radius": phash_radius, "ckpt_dir": ckpt_dir,
    }
    # new shards build independently from the collected redistribution
    # state — fan out one Ray task per shard when a session is live
    # (state ships ONCE via ray.put / plasma, not once per task);
    # in-process loop otherwise (library code never inits Ray)
    import ray

    if ray.is_initialized() and new_num_shards > 1:
        state_ref = ray.put(state)
        task = ray.remote(num_cpus=1)(_reshard_build_shard)
        ray.get([task.remote(sid, state_ref)
                 for sid in range(new_num_shards)])
    else:
        for sid in range(new_num_shards):
            _reshard_build_shard(sid, state)
    d = os.path.join(ckpt_dir, "epoch=0")
    with open(os.path.join(d, "driver_manifest.json"), "w") as f:
        json.dump({"epoch": 0, "resharded_from": src_dir,
                   "phase_seconds": {}}, f)
    with open(os.path.join(d, "COMPLETE"), "w") as f:
        f.write("resharded\n")
    return {
        "shards": new_num_shards,
        "seen_count": len(union_seen),
        "frontier_items": len(frontier_rows),
        "out_dir": out_dir,
    }
