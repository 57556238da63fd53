"""One packed wave per epoch: the fetch blocks are cut evenly over all
frontier shards' pops (``crawler._cut_epoch``), the phash reads only the
pixels it hashes, the global near-dup tier delivers each flagged digest
once, and ``read_payload`` yields no block without its columns."""

import os
import random

import numpy as np
import pyarrow.parquet as pq
import pytest


def _sizes(cut):
    return [sum(hi - lo for _, lo, hi in blk) for blk in cut]


@pytest.mark.parametrize("counts, slots, sizes", [
    ([26, 31, 46, 61], 4, [41, 41, 41, 41]),
    ([10, 12, 18, 24], 4, [16, 16, 16, 16]),
    ([3, 5, 8, 11], 4, [6, 7, 7, 7]),
    ([0, 7, 0, 0], 4, [3, 4]),       # tiny epoch: blocks of at least 4 rows
    ([600, 0, 0], 2, [200, 200, 200]),  # the 256-row cap binds: 3 blocks
])
def test_cut_epoch_pinned_shapes(counts, slots, sizes):
    from raycrawl.crawler import _cut_epoch

    assert _sizes(_cut_epoch(counts, slots, 256)) == sizes


def test_cut_epoch_covers_every_row_once_in_equal_blocks():
    """Every popped row is in exactly one block, in shard-then-row order;
    there are k = ceil(total / target) blocks, at most one per slot
    unless the cap binds; sizes differ by at most one row and none is
    over the cap; an empty shard is in no block."""
    from raycrawl.crawler import _cut_epoch

    rng = random.Random(16)
    for _ in range(500):
        counts = [rng.choice([0, rng.randint(1, 9), rng.randint(10, 400)])
                  for _ in range(rng.randint(1, 6))]
        if not sum(counts):
            continue
        slots, cap = rng.randint(1, 16), rng.choice([8, 256, 4096])
        total = sum(counts)
        cut = _cut_epoch(counts, slots, cap)
        target = max(4, min(cap, -(-total // slots)))
        assert len(cut) == -(-total // target)
        if target < cap:
            assert len(cut) <= slots
        sizes = _sizes(cut)
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= cap
        rows = [(s, i) for blk in cut for s, lo, hi in blk
                for i in range(lo, hi)]
        assert rows == [(s, i) for s, c in enumerate(counts)
                        for i in range(c)]
        assert all(counts[s] and lo < hi for blk in cut
                   for s, lo, hi in blk)


def test_take_popped_rows_and_part():
    from raycrawl.frontier.shard import FrontierShard

    s = FrontierShard(0, burst=64.0)
    urls = [f"http://h{i}.web.test/p/0" for i in range(10)]
    s.offer(-1, urls, [bytes([i]) * 20 for i in range(10)],
            [f"h{i}.web.test" for i in range(10)], [1] * 10, [0] * 10, 0)
    assert s.pop(0) == 10
    whole = s.take_popped()["url"].to_pylist()
    assert s.take_popped_rows(3, 7)["url"].to_pylist() == whole[3:7]
    parts = [s.take_popped_part(j, 3)["url"].to_pylist() for j in range(3)]
    assert [len(p) for p in parts] == [3, 3, 4]
    assert sum(parts, []) == whole


MEDIA = dict(n_hosts=32, pages_per_host=6, seed=1, min_dim=192, max_dim=320)


def test_crawl_runs_the_cut_and_matches_the_oracle(ray_session, tmp_path,
                                                  monkeypatch):
    """On the crawl_media benchmark shape at 4 CPUs every epoch runs the
    blocks ``_cut_epoch`` gives: epochs 0 and 2 (64 and 27 rows over 4
    shards) run as 4 blocks, not the 5 that per-shard slicing made, the
    largest block of every epoch holds ceil(total / k) rows, and the
    payload is the oracle's."""
    import raycrawl.crawler as crawler
    from raycrawl.core.webgraph import WebConfig, seed_urls, sitemap_url
    from raycrawl.oracle import oracle_crawl

    cuts = []
    real = crawler._cut_epoch

    def spy(counts, slots, block_cap):
        cuts.append((list(counts), real(counts, slots, block_cap)))
        return cuts[-1][1]

    monkeypatch.setattr(crawler, "_cut_epoch", spy)
    web = WebConfig(**MEDIA)
    seeds = seed_urls(web) + [sitemap_url(k) for k in range(web.n_hosts)]
    cfg = crawler.CrawlConfig(
        web=web, out_dir=str(tmp_path / "m"), num_shards=4,
        epoch_seconds=60.0, max_epochs=60, saving_period=2, burst=32.0,
        small_epoch_max_rows=16, task_epoch_max_rows=96,
    )
    st = crawler.run_crawl(cfg, seeds)
    assert len(cuts) == len(st.epoch_log)
    for (epoch, rows, branch, blocks, _), (counts, cut) in zip(
            st.epoch_log, cuts):
        assert rows == sum(counts)
        assert blocks == (1 if branch == "single_task" else len(cut)) <= 4
        assert max(_sizes(cut)) == -(-rows // len(cut))
    by_epoch = {e[0]: e for e in st.epoch_log}
    assert by_epoch[0][1:4] == (64, "chunk_tasks", 4)
    assert by_epoch[1][1:4] == (164, "dataset", 4)
    assert by_epoch[2][1:4] == (27, "chunk_tasks", 4)
    # blocks that span shards (epochs 0-2 all have some)
    assert all(any(len(blk) > 1 for blk in cut) for _, cut in cuts[:3])

    o = oracle_crawl(web, seeds, max_epochs=60, num_shards=4, burst=32.0,
                     epoch_seconds=60.0)
    payload = crawler.read_payload(cfg.out_dir, columns=["url", "phash"])
    got = sorted((r["url"], r["phash"]) for r in payload.iter_rows())
    assert got == sorted((p["url"], p["phash"]) for p in o.payload)
    # its 1-row tail epoch's part: Ray's default read split cut it into a
    # 1-row and a schema-less 0-row block
    assert by_epoch[4][1] == 1
    assert sum(m["phash_suppressed"] for m in st.metrics) > 0
    _assert_blocks_carry_columns(cfg.out_dir, st.payload_rows)


# ------------------------------------------------------------------ phash

# phash64 of synthetic images of both formats, below and above the 32×32
# grid, as the whole-image grey-scale formula computed them
PHASH_PINS = [
    (1, 16, 16, "png", -2464172631541303152),
    (2, 20, 31, "jpeg", 8094280602835743850),
    (3, 33, 40, "png", 8095419799580596132),
    (4, 192, 320, "jpeg", 6989579963972305152),
    (5, 320, 200, "png", 5046179271166537338),
    (6, 401, 257, "jpeg", -7412522289982126468),
]


def _whole_image_gray(pixels):
    gray = pixels.astype(np.float32).mean(axis=-1)
    h, w = gray.shape
    yi = (np.arange(32) * h // 32).clip(0, h - 1)
    xi = (np.arange(32) * w // 32).clip(0, w - 1)
    return gray[np.ix_(yi, xi)]


def _whole_image_phash(pixels):
    from raycrawl.core.codec import _DCT

    d = _DCT @ _whole_image_gray(pixels) @ _DCT.T
    block = np.delete(d[:8, :8].flatten(), 0)
    out = 0
    for bit in block > np.median(block):
        out = (out << 1) | int(bit)
    out <<= 1
    return out - (1 << 64) if out >= (1 << 63) else out


def test_phash_values_are_pinned():
    from raycrawl.core import codec

    for seed, w, h, fmt, want in PHASH_PINS:
        px, _ = codec.decode_image(
            codec.encode_image(codec.synth_pixels(seed, w, h), fmt))
        assert codec.phash64(px) == want, (seed, w, h, fmt)
    rng = np.random.default_rng(16)
    for _ in range(500):
        h, w = rng.integers(1, 80, 2)
        px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        assert codec.phash64(px) == _whole_image_phash(px), (h, w)


def test_sampled_gray_equals_whole_image_gray_on_crawled_pages():
    from raycrawl.core import codec
    from raycrawl.core.webgraph import WebConfig, page_for, page_url

    fmts, sides = set(), set()
    for seed, (lo, hi) in [(0, (16, 48)), (1, (16, 48)), (2, (192, 320))]:
        web = WebConfig(n_hosts=4, pages_per_host=6, seed=seed,
                        min_dim=lo, max_dim=hi)
        for k in range(web.n_hosts):
            for i in range(web.pages_per_host):
                page = page_for(web, page_url(k, i))
                if page is None or not page.data:
                    continue
                px, fmt = codec.decode_image(page.data)
                fmts.add(fmt)
                sides.update(px.shape[:2])
                got = codec._resize_gray(px)
                assert got.dtype == np.float32
                assert np.array_equal(got, _whole_image_gray(px))
    assert fmts == {"png", "jpeg"}
    assert min(sides) < 32 < max(sides)


# ------------------------------------------------- global near-dup delivery

def test_global_tier_delivers_each_flagged_digest_once():
    """Run the global tier's route → judge → commit protocol on plain
    classes: the flagged lists the dedup shards deliver add up to the
    flagged count (each digest once, to its own host shard), not
    host-shards × it, and each host shard's gate suppresses exactly its
    flagged rows."""
    from raycrawl.core.urltools import shard_of_host
    from raycrawl.frontier.phash_shard import PhashDedupShard
    from raycrawl.frontier.shard import FrontierShard

    S, D = 3, 3
    hosts = [f"h{i}.web.test" for i in range(12)]
    rng = random.Random(7)
    base = [rng.getrandbits(63) for _ in range(6)]
    shards = [FrontierShard(s) for s in range(S)]
    digests = {}
    for i, h in enumerate(hosts):
        s = shard_of_host(h, S)
        d = bytes([i]) * 20
        ph = base[i % 6] ^ (1 << (i % 5))  # same base → near-dups
        digests[d] = s
        shards[s].gate_submit(0, [d], [ph],
                              [(f"http://{h}/p/0", h, 5, 0, i)], [[]])
    routed = [sh.collect_candidates(0, D) for sh in shards]
    dedup = [PhashDedupShard(d, D) for d in range(D)]
    judged = [dd.judge(0, *(r[i] for r in routed))
              for i, dd in enumerate(dedup)]
    flagged = set().union(*judged)
    assert flagged
    commits = [dd.commit(0, *judged) for dd in dedup]
    assert all(len(c) == 1 + S for c in commits)
    delivered = [d for c in commits for lst in c[1:] for d in lst]
    assert len(delivered) == len(flagged)
    assert set(delivered) == flagged
    for s, sh in enumerate(shards):
        mine = [c[1 + s] for c in commits]
        assert set().union(*mine) == {d for d in flagged if digests[d] == s}
        sup = sh.gate_finalize(0, S, *mine)[1]
        assert {d for d, _ in sup} == set().union(*mine)


# ---------------------------------------------------------- payload blocks

def _assert_blocks_carry_columns(out: str, payload_rows: int) -> None:
    import ray

    from raycrawl.crawler import read_payload

    for cols in (["url", "epoch", "phash"], ["url_hash", "w"], None):
        blocks = ray.get(read_payload(out, columns=cols).to_arrow_refs())
        for t in blocks:
            assert t.num_rows > 0
            assert cols is None or t.column_names == cols, t.column_names
        assert len({t.schema for t in blocks}) == 1
        assert sum(t.num_rows for t in blocks) == payload_rows


def test_read_payload_blocks_carry_the_requested_columns(ray_session,
                                                         tmp_path):
    """Every block ``read_payload`` yields is non-empty and carries the
    requested columns, on a crawl with suppressed rows whose sitemap-only
    seed epoch writes 0-row payload parts: a 0-row file read as a
    schema-less empty block, which the suppression filter's map passed
    through without its columns."""
    from raycrawl.core.webgraph import WebConfig, sitemap_url
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=6, pages_per_host=10, cross_host_dup=True)
    out = str(tmp_path / "g")
    st = run_crawl(CrawlConfig(web=web, out_dir=out, num_shards=4,
                               max_epochs=40),
                   [sitemap_url(k) for k in range(web.n_hosts)])
    assert sum(m["phash_suppressed"] for m in st.metrics) > 0
    parts = [os.path.join(d, f) for d, _, fs in
             os.walk(os.path.join(out, "payload")) for f in fs]
    assert any(pq.read_metadata(f).num_rows == 0 for f in parts)
    _assert_blocks_carry_columns(out, st.payload_rows)
