"""Unit tests for FrontierShard (plain class — no Ray)."""

import os

from raycrawl.core.urltools import canonicalize_url, url_sha1, host_of
from raycrawl.core.webgraph import priority_of
from raycrawl.frontier.shard import FrontierShard


def _offer(shard, epoch_key, urls, depths=None, discovered_at=0):
    urls = [canonicalize_url(u) for u in urls]
    digests = [url_sha1(u) for u in urls]
    hosts = [host_of(u) for u in urls]
    pris = [priority_of(d) for d in digests]
    depths = depths or [0] * len(urls)
    return shard.offer(epoch_key, urls, digests, hosts, pris, depths, discovered_at)


def test_offer_dedup_and_robots():
    s = FrontierShard(0)
    urls = [f"http://h1.web.test/p/{i}" for i in range(5)]
    _offer(s, 0, urls + urls)  # duplicates collapse in the pending buffer
    s._merge_pending()
    assert s.metrics["offered"] == 5 and s.metrics["accepted"] == 5
    assert s.frontier_size() == 5
    # second merge of the same URLs: seen-set rejects all
    _offer(s, 1, urls)
    s._merge_pending()
    assert s.metrics["offered"] == 10 and s.metrics["accepted"] == 5
    # robots: find a denied host for /private
    from raycrawl.core.politeness import RobotsCache

    denied_host = next(
        f"h{k}.web.test" for k in range(20)
        if not RobotsCache().allowed(f"h{k}.web.test", "/private/x")
    )
    _offer(s, 2, [f"http://{denied_host}/private/x"])
    s._merge_pending()
    assert s.metrics["robots_denied"] == 1
    assert s.log[-1]["status"] == "robots_denied"


def test_offer_pending_min_depth_and_replay():
    s = FrontierShard(0)
    urls = [f"http://h1.web.test/p/{i}" for i in range(3)]
    _offer(s, 7, urls, depths=[4, 4, 4])
    _offer(s, 7, urls, depths=[1, 1, 1])  # memoized key → ignored
    _offer(s, 8, urls[:1], depths=[2])  # new key → min-depth merge
    s._merge_pending()
    assert s.frontier_size() == 3
    s.pop(0)
    t = s.take_popped()
    by_url = dict(zip(t["url"].to_pylist(), t["depth"].to_pylist()))
    assert by_url[urls[0]] == 2  # min depth won
    assert by_url[urls[1]] == 4


def test_pop_ordering_and_politeness():
    s = FrontierShard(0, epoch_seconds=2.0)
    # one host, more URLs than burst → pop at most burst per epoch, in order
    urls = [f"http://h1.web.test/p/{i}" for i in range(20)]
    _offer(s, 0, urls)
    n = s.pop(0)
    assert n == 8  # burst
    t = s.take_popped()
    keys = list(
        zip(
            [-p for p in t["priority"].to_pylist()],
            t["depth"].to_pylist(),
            t["discovered_at"].to_pylist(),
            t["url_hash"].to_pylist(),
        )
    )
    assert keys == sorted(keys)  # frontier order
    assert s.frontier_size() == 12


def _deref(x):
    try:
        import ray

        if isinstance(x, ray.ObjectRef):
            return ray.get(x)
    except ImportError:
        pass
    return x


def _gate_case(suppressed=None):
    s = FrontierShard(0)
    digests = [bytes([i]) * 20 for i in range(3)]
    phashes = [0, 1, 0x0F0F0F0F0F0F0F0F]  # 0↔1 near-dups; third is distance 32
    meta = [(f"http://h1.web.test/p/{i}", "h1.web.test", 5, 0, 0) for i in range(3)]
    links = [[], [], [("http://h2.web.test/p/9", bytes(20), "h2.web.test", 3)]]
    # submits may arrive in any order / duplicated (task replay)
    s.gate_submit(0, digests[1:], phashes[1:], meta[1:], links[1:])
    s.gate_submit(0, digests[:1], phashes[:1], meta[:1], links[:1])
    s.gate_submit(0, digests[1:2], phashes[1:2], meta[1:2], links[1:2])
    result = s.gate_finalize(0, num_shards=4, suppressed=suppressed)
    kept, sup, errors, redirs, notmods, offers = result
    assert kept == 2
    # ordered gate: digest 0 wins, 1 near-dup; host rides along for sidecars
    assert sup == [(digests[1], "h1.web.test")]
    assert s.metrics["phash_suppressed"] == 1
    # surviving row 2's outlink routed to its host shard
    (dst, packed), = offers.items()
    urls, digs, hosts, pris, depths = _deref(packed)
    assert urls == ["http://h2.web.test/p/9"] and depths == [1]
    # replay-safe: second finalize returns the memoized result
    assert s.gate_finalize(0, num_shards=4, suppressed=suppressed) == result
    return s, (*result[:5], {d: _deref(r) for d, r in offers.items()})


def test_gate_submit_finalize():
    s, result = _gate_case()
    # the global tier's verdict (the digests the per-shard index
    # suppressed) walks the same gate: same result, metrics and log, and
    # the shard's own phash index stays empty
    g, g_result = _gate_case(suppressed=[d for d, _h in result[1]])
    assert g_result == result
    assert g.metrics == s.metrics and g.log == s.log
    assert s.phash.hashes and not g.phash.hashes


def test_checkpoint_restore_roundtrip(tmp_path):
    s = FrontierShard(2, epoch_seconds=2.0)
    _offer(s, 0, [f"http://h1.web.test/p/{i}" for i in range(10)])
    s.pop(0)
    t = s.take_popped()
    s.gate_submit(
        0,
        t["url_hash"].to_pylist(),
        [0xFF << (8 * i) for i in range(t.num_rows)],
        [
            (u, h, p, d, da)
            for u, h, p, d, da in zip(
                t["url"].to_pylist(),
                t["host"].to_pylist(),
                t["priority"].to_pylist(),
                t["depth"].to_pylist(),
                t["discovered_at"].to_pylist(),
            )
        ],
        [[] for _ in range(t.num_rows)],
    )
    s.gate_finalize(0, num_shards=4)
    ck = str(tmp_path / "ckpt")
    manifest = s.checkpoint(ck, epoch=0)
    assert manifest["metrics"]["fetched"] == 8

    r = FrontierShard.restore(ck, 0, 2)
    assert r.frontier_size() == s.frontier_size()
    assert r.get_seen() == s.get_seen()
    assert r.metrics == s.metrics
    assert len(r.get_log()) == len(s.get_log())
    # politeness state carried over: tokens were spent this epoch
    assert r.politeness.buckets["h1.web.test"].tokens == s.politeness.buckets[
        "h1.web.test"
    ].tokens
    # phash index carried over
    assert r.phash.query(0xFF) is not None
    # lineage manifest exists on disk
    assert os.path.exists(
        os.path.join(ck, "epoch=0", "shard=2", "manifest.json")
    )


def test_gate_submit_after_finalize_is_harmless():
    """A straggler task replay that re-submits AFTER finalize must not
    corrupt state: finalize for that epoch keeps returning the memoized
    result and the stray buffer is ignored."""
    s = FrontierShard(0)
    digests = [bytes([i]) * 20 for i in range(2)]
    phashes = [0, 0xFFFFFFFF00000000]
    meta = [(f"http://h1.web.test/p/{i}", "h1.web.test", 5, 0, 0) for i in range(2)]
    s.gate_submit(0, digests, phashes, meta, [[], []])
    first = s.gate_finalize(0, num_shards=2)
    # late replay of a chunk
    s.gate_submit(0, digests[:1], phashes[:1], meta[:1], [[]])
    assert s.gate_finalize(0, num_shards=2) == first
    assert s.metrics["fetched"] == 2  # not double-counted
