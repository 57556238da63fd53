"""Session-4 additions: oracle parity for the four new operators
(repeated-paragraph dedup, RAG chunk windows, int8 embedding
quantization, interval/range join), structural properties the SQL
cannot see, the merge fan-out path, and the Bloom-prefiltered
duplicate-span join branch."""

import numpy as np
import pandas as pd
import pytest

from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"

NEW_OPS = [
    "repeated_paragraph_dedup",
    "chunk_overlap_windows",
    "embedding_int8_quantize_stats",
    "part_price_range_join",
    "user_distinct_props_salted",
    "user_funnel_conversion",
]


def test_salted_distinct_spreads_hot_key(ray_session, tmp_path):
    """A planted hot key (90% of rows) yields the same exact distinct
    counts, and the salt column actually spreads its rows over >1 salt
    bucket (the skew defense, not just a pass-through)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import duckdb

    from raycrawl.ops.queries import _SALT_K, user_distinct_props_salted

    n = 20_000
    hot = np.zeros(n, dtype=np.int64)
    hot[18_000:] = np.arange(2_000) % 50 + 1  # 50 cold keys
    props = np.array([f'{{"k": {v}}}' for v in np.arange(n) % 997])
    d = str(tmp_path)
    pq.write_table(
        pa.table({"event_id": np.arange(n), "ts": np.zeros(n, np.int64),
                  "user_id": hot, "event_type": ["x"] * n,
                  "value": np.zeros(n), "props": props}),
        f"{d}/events.parquet",
    )
    got = norm(user_distinct_props_salted(d).to_pandas())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{d}/events.parquet')")
    want = norm(con.execute(
        "SELECT user_id, CAST(count(DISTINCT props) AS BIGINT) "
        "AS n_distinct_props FROM events GROUP BY user_id").df())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the hot key's distinct values hash into >1 salt bucket
    vh = pd.util.hash_pandas_object(
        pd.Series(props[hot == 0]), index=False
    ).to_numpy()
    assert len(np.unique(vh % np.uint64(_SALT_K))) > 1


@pytest.mark.parametrize("name", NEW_OPS)
def test_new_ops_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_chunk_windows_cover_every_token(ray_session):
    """Every token index of every doc lies in ≥1 chunk; consecutive
    chunks overlap by exactly W-S tokens except a shorter tail."""
    from raycrawl.ops.curation import CHUNK_S, CHUNK_W

    df = run_query("chunk_overlap_windows", SF)
    for did, g in df.groupby("doc_id"):
        g = g.sort_values("chunk_idx")
        starts = g["start_tok"].to_numpy()
        lens = g["n_tokens"].to_numpy()
        assert (np.diff(starts) == CHUNK_S).all()
        # contiguous coverage: next chunk starts inside the previous one
        assert (starts[1:] < starts[:-1] + lens[:-1]).all()
        assert (lens <= CHUNK_W).all() and (lens >= 1).all()


def test_paragraph_dedup_mass_conservation(ray_session):
    """kept words + removed paragraphs' words == corpus words, and a
    second dedup pass over already-unique paragraphs removes nothing
    (first-occurrence idempotence at the corpus level)."""
    import re

    import pyarrow.parquet as pq

    df = run_query("repeated_paragraph_dedup", SF)
    rx = re.compile(r"[a-z0-9]+")
    texts = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    total_words = sum(len(rx.findall(t.lower()))
                      for t in texts["text"].to_pylist())
    # removed paragraphs are full 8-word blocks except possibly tails;
    # exact identity: sum over docs of words == total corpus words
    # and kept <= total with removed > 0 somewhere in the seeded corpus
    assert df["n_words_kept"].sum() <= total_words
    assert (df["n_paras"] * 8 >= df["n_words_kept"]).all()
    assert df["n_removed"].sum() > 0  # corpus has seeded duplicate docs
    assert (df["n_removed"] <= df["n_paras"]).all()


def test_int8_quantize_codes_bounded(ray_session):
    t = run_query("embedding_int8_quantize_stats", SF)
    import pyarrow.parquet as pq

    n = pq.read_table(f"{SF}/embeddings.parquet").num_rows
    assert (t["sum_codes"] >= 0).all()
    assert (t["sum_codes"] <= 255 * n).all()
    assert (t["abs_err_sum"] >= 0).all()
    # max reconstruction error per value is scale/2 = (max-min)/510
    half_scale = (t["dmax"] - t["dmin"]) / 510.0
    assert (t["abs_err_sum"] <= half_scale * n * 1.000001).all()


def test_range_join_multiplicity(ray_session):
    """Overlapping intervals: total matches exceed a disjoint-binning
    join's row count (each event can hit many parts)."""
    import pyarrow.parquet as pq

    t = run_query("part_price_range_join", SF)
    ev = pq.read_table(f"{SF}/events.parquet", columns=["value"])
    assert t["n_events"].sum() > ev.num_rows  # true interval semantics


def test_merge_checkpoints_ray_fanout_equivalent(ray_session, tmp_path):
    """The per-shard Ray-task fan-out writes byte-identical shard state
    to the in-process driver loop."""
    import json
    import os
    from unittest import mock

    import ray as _ray

    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import CrawlConfig, run_crawl
    from raycrawl.frontier import merge as M

    web = WebConfig(n_hosts=6, pages_per_host=8, neardup_every=1)
    seeds = seed_urls(web)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_crawl(CrawlConfig(web=web, out_dir=a, num_shards=2, max_epochs=2,
                          epoch_seconds=4.0), seeds[:3])
    run_crawl(CrawlConfig(web=web, out_dir=b, num_shards=2, max_epochs=2,
                          epoch_seconds=4.0), seeds[3:])

    out_par = str(tmp_path / "m_par")
    M.merge_checkpoints(a, b, out_par)  # ray.is_initialized() → fan-out
    out_ser = str(tmp_path / "m_ser")
    with mock.patch.object(_ray, "is_initialized", return_value=False):
        M.merge_checkpoints(a, b, out_ser)

    for sid in (0, 1):
        d_par = os.path.join(out_par, "checkpoints", "epoch=0",
                             f"shard={sid}")
        d_ser = os.path.join(out_ser, "checkpoints", "epoch=0",
                             f"shard={sid}")
        for fname in ("exact_seen.bin", "frontier.parquet",
                      "pending.parquet"):
            with open(os.path.join(d_par, fname), "rb") as f1, \
                 open(os.path.join(d_ser, fname), "rb") as f2:
                assert f1.read() == f2.read(), f"shard {sid} {fname}"
        with open(os.path.join(d_par, "manifest.json")) as f:
            mp = json.load(f)
        with open(os.path.join(d_ser, "manifest.json")) as f:
            ms = json.load(f)
        mp.pop("merged_from"), ms.pop("merged_from")
        assert mp == ms


def test_phash_radius_minus_one_disables_gate():
    from raycrawl.core.sketches import PhashIndex

    idx = PhashIndex(-1)
    idx.add(0xDEADBEEF)
    assert idx.query(0xDEADBEEF) is None  # even exact match misses


def test_dup_span_join_branch_with_bloom_prefilter(ray_session):
    """The Bloom-prefiltered shuffle+join branch still equals the
    broadcast branch (and therefore the SQL oracle). force_bloom: the
    seeded test corpus is dup-heavy, so the density gate would skip the
    filter on its own."""
    from raycrawl.ops import common as C
    from raycrawl.ops.dedup import duplicate_ngram_spans

    a = norm(duplicate_ngram_spans(
        SF, force_shuffle_path=True, force_broadcast_flags=False,
        force_bloom_prefilter=True,
    ).to_pandas())
    assert C.PATH_LOG["duplicate_ngram_spans"] == "shuffle+join+bloom"
    b = norm(duplicate_ngram_spans(SF).to_pandas())
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_novelty_dedup_paths_agree(ray_session, force_exchange):
    """The one combine task equals the bucketed exchange on the same
    input."""
    from raycrawl.ops import dedup as D

    fast = D.incremental_novelty_dedup(SF).to_pandas()
    force_exchange()
    slow = D.incremental_novelty_dedup(SF).to_pandas()
    assert force_exchange.runs  # the forced side ran the exchange
    pd.testing.assert_frame_equal(fast, slow)


def test_reshard_checkpoint_ray_fanout_equivalent(ray_session, tmp_path):
    """Per-new-shard Ray fan-out writes byte-identical shard state to
    the in-process loop."""
    import json
    import os
    from unittest import mock

    import ray as _ray

    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import CrawlConfig, run_crawl
    from raycrawl.frontier import merge as M

    web = WebConfig(n_hosts=6, pages_per_host=8, neardup_every=1)
    seeds = seed_urls(web)
    src = str(tmp_path / "src")
    run_crawl(CrawlConfig(web=web, out_dir=src, num_shards=2, max_epochs=2,
                          epoch_seconds=4.0), seeds)

    out_par = str(tmp_path / "r_par")
    M.reshard_checkpoint(src, out_par, 3)  # fan-out
    out_ser = str(tmp_path / "r_ser")
    with mock.patch.object(_ray, "is_initialized", return_value=False):
        M.reshard_checkpoint(src, out_ser, 3)

    for sid in range(3):
        d_par = os.path.join(out_par, "checkpoints", "epoch=0",
                             f"shard={sid}")
        d_ser = os.path.join(out_ser, "checkpoints", "epoch=0",
                             f"shard={sid}")
        for fname in ("exact_seen.bin", "frontier.parquet",
                      "pending.parquet", "sketches.npz"):
            with open(os.path.join(d_par, fname), "rb") as f1, \
                 open(os.path.join(d_ser, fname), "rb") as f2:
                assert f1.read() == f2.read(), f"shard {sid} {fname}"
        with open(os.path.join(d_par, "manifest.json")) as f:
            mp = json.load(f)
        with open(os.path.join(d_ser, "manifest.json")) as f:
            ms = json.load(f)
        assert mp == ms


def test_tier_boost_parity_and_ordering(ray_session, tmp_path):
    """host_priority_boost (the tier-crawl feedback knob): the boosted
    engine matches the boosted oracle EXACTLY (ordering + seen sets),
    and the boosted host is actually fetched earlier than in the
    un-boosted crawl."""
    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import CrawlConfig, run_crawl
    from raycrawl.oracle import oracle_crawl

    web = WebConfig(n_hosts=6, pages_per_host=12)
    seeds = seed_urls(web)
    boost = {"h2.web.test": 5}  # h2 shares shard 2 with h0/h4/h5
    # phash_radius=-1: suppression gates outlink discovery, so coverage
    # equality across different SCHEDULES (the assertion below) only
    # holds with the near-dup gate off.
    # epoch_pop_budget creates cross-host fetch-capacity contention
    # (shard 2 holds h0/h2/h4/h5 — up to 32 wanted fetches, 4 slots) —
    # without
    # it politeness alone serves every host its full token budget and a
    # HOST-level boost cannot change the schedule
    budget = 4

    def key(r):
        return (r["epoch"], -r["priority"], r["depth"],
                r["discovered_at"], r["url_hash"])

    out_b = str(tmp_path / "boosted")
    stats_b = run_crawl(
        CrawlConfig(web=web, out_dir=out_b, num_shards=3, max_epochs=60,
                    collect_parity_outputs=True,
                    host_priority_boost=boost, epoch_pop_budget=budget,
                    phash_radius=-1),
        seeds,
    )
    orc = oracle_crawl(web, seeds, max_epochs=60, num_shards=3,
                       host_priority_boost=boost, epoch_pop_budget=budget,
                       phash_radius=-1)
    assert sorted(orc.fetch_log, key=key) == sorted(stats_b.fetch_log,
                                                    key=key)
    assert {s: sorted(v) for s, v in orc.seen.items()} == {
        s: sorted(v) for s, v in stats_b.seen.items()
    }

    out_p = str(tmp_path / "plain")
    stats_p = run_crawl(
        CrawlConfig(web=web, out_dir=out_p, num_shards=3, max_epochs=60,
                    collect_parity_outputs=True, epoch_pop_budget=budget,
                    phash_radius=-1),
        seeds,
    )

    def mean_fetch_epoch(log, host):
        eps = [r["epoch"] for r in log
               if r["host"] == host and r["status"] == "fetched"]
        return sum(eps) / len(eps)

    # same coverage, earlier schedule for the promoted host
    assert ({r["url_hash"] for r in stats_b.fetch_log}
            == {r["url_hash"] for r in stats_p.fetch_log})
    assert (mean_fetch_epoch(stats_b.fetch_log, "h2.web.test")
            < mean_fetch_epoch(stats_p.fetch_log, "h2.web.test"))


def test_crawl_tier_feedback_quartiles(ray_session):
    """The feedback op's tiers are the quartile ranks of per-host mean
    image area recomputed locally from the cached crawl's payload."""
    import numpy as np

    from raycrawl.crawler import read_payload
    from raycrawl.ops.crawlq import crawl_tier_feedback, fixture_dir

    t = crawl_tier_feedback(SF).to_pandas()
    pay = read_payload(fixture_dir("main", SF),
                       columns=["url", "w", "h"]).to_pandas()
    pay["host"] = pay["url"].str.split("://").str[1].str.split("/").str[0]
    pay["area"] = pay["w"].astype("int64") * pay["h"].astype("int64")
    g = (pay.groupby("host")
         .agg(n=("area", "size"), mean_area=("area", "mean"))
         .reset_index()
         .sort_values(["mean_area", "host"], ascending=[False, True])
         .reset_index(drop=True))
    q = max(1, -(-len(g) // 4))
    want_tier = np.minimum(np.arange(len(g)) // q, 3)
    got = t.set_index("host")
    assert (got.loc[g["host"], "tier"].to_numpy() == want_tier).all()
    assert (got["boost"] == 3 - got["tier"]).all()
    assert int(got["n_pages"].sum()) == len(pay)


def test_merge_reshard_refuse_dirty_out_dir(ray_session, tmp_path):
    """A reused out_dir with existing checkpoints must be REFUSED:
    resume picks the latest epoch, which would silently shadow the
    fresh merged/resharded epoch=0."""
    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import CrawlConfig, run_crawl
    from raycrawl.frontier.merge import merge_checkpoints, reshard_checkpoint

    web = WebConfig(n_hosts=4, pages_per_host=6, neardup_every=1)
    seeds = seed_urls(web)
    src = str(tmp_path / "src")
    run_crawl(CrawlConfig(web=web, out_dir=src, num_shards=2, max_epochs=2,
                          epoch_seconds=4.0), seeds)
    with pytest.raises(ValueError, match="already holds checkpoints"):
        reshard_checkpoint(src, src, 3)  # src itself is dirty
    with pytest.raises(ValueError, match="already holds checkpoints"):
        merge_checkpoints(src, src, src)
