"""Unit tests for the crawl-engine core primitives (no Ray needed)."""

import numpy as np
import pytest

from raycrawl.core.urltools import (
    canonicalize_url,
    url_sha1,
    host_of,
    netlocs,
    shard_of_host,
)
from raycrawl.core.codec import (
    synth_pixels,
    encode_image,
    decode_image,
    decode_real_image,
    psnr,
    phash64,
    hamming64,
    hamming64_vec,
)
from raycrawl.core.sketches import CountingBloomFilter, CuckooFilter, SeenSet, PhashIndex
from raycrawl.core.politeness import TokenBucket, RobotsCache, HostPoliteness, host_rate
from raycrawl.core.webgraph import WebConfig, page_for, seed_urls, page_url, _messy


class TestCanonicalize:
    def test_case_port_fragment_query(self):
        assert (
            canonicalize_url("HTTP://H1.WEB.TEST:80/./p/../p/3?b=2&a=1#x")
            == "http://h1.web.test/p/3?a=1&b=2"
        )

    def test_relative_join(self):
        assert (
            canonicalize_url("/private/p/9", base="http://h1.web.test/p/0")
            == "http://h1.web.test/private/p/9"
        )

    def test_double_slash_and_empty_query(self):
        assert canonicalize_url("http://a.b//x//y?") == "http://a.b/x/y"

    def test_nondefault_port_kept(self):
        assert canonicalize_url("http://a.b:8080/x") == "http://a.b:8080/x"

    def test_idempotent(self):
        u = canonicalize_url("http://H.example.com:80/a/./b/../c?z=1&a=2#f")
        assert canonicalize_url(u) == u

    def test_messy_variants_roundtrip(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for k in range(3):
            for i in range(5):
                u = page_url(k, i)
                for _ in range(6):
                    assert canonicalize_url(_messy(u, rng)) == u

    def test_sha1_and_shard(self):
        d = url_sha1("http://h1.web.test/p/3")
        assert len(d) == 20
        assert host_of("http://h1.web.test/p/3") == "h1.web.test"
        s = shard_of_host("h1.web.test", 8)
        assert 0 <= s < 8
        assert s == shard_of_host("h1.web.test", 8)  # stable

    def test_netlocs_match_split_and_duckdb(self):
        import duckdb
        import pyarrow as pa

        urls = [
            "http://h1.web.test/p/3",
            "http://h1.web.test:8080/p/3",  # port kept
            "http://h2.web.test",  # no path
            "http://h2.web.test/",
            "http://[2001:db8::1]:8443/a/b",  # bracketed IPv6
            "http://[::1]/x://y",  # second '://' is path
        ]
        want = [u.split("://", 1)[1].split("/", 1)[0] for u in urls]
        assert want[1] == "h1.web.test:8080"
        assert want[4] == "[2001:db8::1]:8443"
        arr = pa.array(urls)
        assert netlocs(arr).to_pylist() == want
        chunked = pa.chunked_array([arr[:2], arr[2:]])
        assert netlocs(chunked).to_pylist() == want
        t = pa.table({"url": arr})
        sql = duckdb.sql(
            "SELECT split_part(split_part(url, '://', 2), '/', 1) AS n FROM t"
        ).arrow()
        assert sql["n"].to_pylist() == want


class TestCodec:
    def test_png_lossless(self):
        px = synth_pixels(5, 40, 30)
        out, fmt = decode_image(encode_image(px, "png"))
        assert fmt == "png" and np.array_equal(out, px)

    def test_jpeg_psnr_over_40(self):
        px = synth_pixels(5, 64, 48)
        out, fmt = decode_image(encode_image(px, "jpeg"))
        assert fmt == "jpeg"
        assert psnr(px, out) >= 40.0

    def test_real_decode_is_stubbed(self):
        with pytest.raises(NotImplementedError):
            decode_real_image(b"\x89PNG\r\n\x1a\n....")

    def test_phash_properties(self):
        px = synth_pixels(9, 50, 50)
        near = np.clip(
            px.astype(np.int16)
            + np.random.default_rng(1).integers(-1, 2, px.shape),
            0,
            255,
        ).astype(np.uint8)
        far = synth_pixels(10, 50, 50)
        assert hamming64(phash64(px), phash64(near)) <= 2
        assert hamming64(phash64(px), phash64(far)) > 10

    def test_hamming_vec(self):
        hs = np.array([0, 1, 3, (1 << 63)], dtype=np.uint64).astype(np.int64)
        d = hamming64_vec(hs, 0)
        assert list(d) == [0, 1, 2, 1]


class TestSketches:
    def test_bloom_add_remove(self):
        bf = CountingBloomFilter(100)
        keys = [url_sha1(f"http://x/{i}") for i in range(50)]
        for k in keys:
            bf.add(k)
        assert all(k in bf for k in keys)
        bf.remove(keys[0])
        # after removal the key is (very likely) gone; others remain
        assert all(k in bf for k in keys[1:])

    def test_cuckoo_add_contains_remove(self):
        cf = CuckooFilter(200)
        keys = [url_sha1(f"http://y/{i}") for i in range(150)]
        assert all(cf.add(k) for k in keys)
        assert all(k in cf for k in keys)
        assert cf.remove(keys[3])
        assert cf.size == 149

    def test_seen_set_exactness_and_fp_counting(self):
        s = SeenSet(256)
        keys = [url_sha1(f"http://z/{i}") for i in range(200)]
        assert not any(s.check_and_add(k) for k in keys)  # all new
        assert all(s.check_and_add(k) for k in keys)  # all seen now
        assert s.count == 200
        fresh = [url_sha1(f"http://w/{i}") for i in range(500)]
        assert not any(k in s for k in fresh)  # exact set corrects sketch FPs

    def test_seen_set_state_roundtrip(self):
        s = SeenSet(64)
        for i in range(40):
            s.check_and_add(url_sha1(f"http://q/{i}"))
        s2 = SeenSet.restore(s.state(), 64)
        assert s2.count == 40
        assert all(url_sha1(f"http://q/{i}") in s2 for i in range(40))
        assert not s2.check_and_add(url_sha1("http://q/new"))

    def test_phash_index_radius(self):
        p = PhashIndex(radius=2)
        p.add(0b1111000)
        assert p.query(0b1111000) is not None
        assert p.query(0b1111001) is not None  # distance 1
        assert p.query(0b1111011) is not None  # distance 2
        assert p.query(0b0000111) is None
        arr = p.state()
        p2 = PhashIndex.restore(arr, radius=2)
        assert p2.query(0b1111001) is not None


class TestPoliteness:
    def test_token_bucket_refill_cap(self):
        b = TokenBucket(rate=2.0, burst=4.0)
        assert b.tokens == 4.0  # fresh host starts at burst
        for _ in range(4):
            assert b.try_take()
        assert not b.try_take()
        b.refill(1.0)
        assert b.tokens == 2.0
        b.refill(100.0)
        assert b.tokens == 4.0

    def test_robots_cache_counts_one_fetch_per_host(self):
        rc = RobotsCache()
        for _ in range(5):
            rc.allowed("h0.web.test", "/p/1")
        assert rc.fetches == 1
        # some host must disallow /private (hash-dependent rule)
        denied = [
            h for h in (f"h{k}.web.test" for k in range(12))
            if not RobotsCache().allowed(h, "/private/p/0")
        ]
        assert denied, "expected at least one host with a /private disallow rule"

    def test_host_rate_deterministic(self):
        assert host_rate("h1.web.test") == host_rate("h1.web.test")

    def test_host_politeness_bundle(self):
        hp = HostPoliteness(epoch_seconds=2.0)
        assert hp.try_take("a.test")
        hp.refill_all()
        assert hp.bucket("a.test").tokens <= 8.0


class TestWebgraph:
    def test_page_deterministic(self):
        cfg = WebConfig(n_hosts=3, pages_per_host=10)
        a = page_for(cfg, "http://h0.web.test/p/4")
        b = page_for(cfg, "http://h0.web.test/p/4")
        assert a.data == b.data and a.caption == b.caption and a.outlinks == b.outlinks

    def test_neardup_pages_share_phash_ball(self):
        cfg = WebConfig(n_hosts=3, pages_per_host=10, neardup_every=7)
        base = page_for(cfg, "http://h0.web.test/p/0")
        dup = page_for(cfg, "http://h0.web.test/p/1")  # 1 % 7 == 1 → near-dup of 0
        assert hamming64(base.phash, dup.phash) <= 2
        assert (base.w, base.h, base.fmt) == (dup.w, dup.h, dup.fmt)

    def test_seed_urls(self):
        cfg = WebConfig(n_hosts=4, pages_per_host=5)
        assert seed_urls(cfg, 2) == ["http://h0.web.test/p/0", "http://h1.web.test/p/0"]


class TestFetchRetries:
    def test_transient_failure_retried_in_task(self):
        import pyarrow as pa

        from raycrawl.core.urltools import url_sha1
        from raycrawl.core.webgraph import (
            WebConfig,
            fetch_fails,
            fetch_transient_fails,
            page_url,
        )
        from raycrawl.stages.fetch import FetchWorker

        cfg = WebConfig(n_hosts=8, pages_per_host=40)
        # find a URL that fails transiently but not permanently
        target = next(
            u
            for k in range(8)
            for i in range(40)
            for u in [page_url(k, i)]
            if fetch_transient_fails(url_sha1(u), 0)
            and not fetch_fails(url_sha1(u))
        )
        w = FetchWorker(cfg)
        out = w(
            pa.table(
                {
                    "url": [target],
                    "url_hash": pa.array([url_sha1(target)], pa.binary()),
                }
            )
        )
        assert out["fetch_ok"][0].as_py() is True  # retry succeeded
        assert w.retries == 1


class TestSeenSetGrowth:
    def test_cuckoo_auto_grows_past_expected(self):
        from raycrawl.core.sketches import SeenSet
        from raycrawl.core.urltools import url_sha1

        s = SeenSet(expected=32)  # deliberately undersized
        keys = [url_sha1(f"http://g/{i}") for i in range(1000)]
        assert not any(s.check_and_add(k) for k in keys)
        assert all(k in s for k in keys)
        assert s.count == 1000
        assert s.cuckoo.nbuckets * 4 >= 1000  # grew past the initial sizing


class TestCrawlDelayAndTracking:
    def test_robots_crawl_delay_caps_rate(self):
        from raycrawl.core.politeness import RobotsCache, host_rate
        from raycrawl.frontier.shard import FrontierShard

        rc = RobotsCache()
        delayed = [
            f"h{k}.web.test" for k in range(40)
            if rc.crawl_delay(f"h{k}.web.test") is not None
        ]
        assert delayed, "expected some hosts to declare Crawl-delay"
        s = FrontierShard(0)
        h = delayed[0]
        eff = s._effective_rate(h)
        assert eff <= host_rate(h)
        assert eff == min(host_rate(h), 1.0 / rc.crawl_delay(h))

    def test_tracking_params_stripped(self):
        from raycrawl.core.urltools import canonicalize_url

        assert (
            canonicalize_url("http://a.b/x?utm_source=tw&id=3&gclid=zz&utm_campaign=c")
            == "http://a.b/x?id=3"
        )
        # equivalence class: with/without tracking params → same seen-key
        assert canonicalize_url("http://a.b/x?id=3&fbclid=123") == canonicalize_url(
            "http://a.b/x?id=3"
        )
