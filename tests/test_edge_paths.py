"""Edge-path regression tests from the round-2 self-review: zero-variance
z-score groups (Ray and SQL must agree on NULL), and the crawl's three
epoch execution branches (oracle parity, wave shape, slice sizing)."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_zscore_constant_group_yields_null_on_both_sides(
    ray_session, tmp_path
):
    """A constant-value group has sd == 0: the SQL oracle must not
    SQRT-error and both sides must emit NULL z for its rows."""
    from raycrawl.ops import REGISTRY

    sf = str(tmp_path)
    events = pd.DataFrame(
        {
            "event_id": np.arange(8, dtype="int64"),
            "ts": pd.to_datetime("2024-01-01"),
            "user_id": np.int64(1),
            "event_type": ["flat"] * 4 + ["vary"] * 4,
            "value": [5.0, 5.0, 5.0, 5.0, 1.0, 2.0, 3.0, 4.0],
            "props": "",
        }
    )
    pq.write_table(pa.Table.from_pandas(events), os.path.join(
        sf, "events.parquet"))

    got = REGISTRY["group_zscore_events"]["fn"](sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{sf}/events.parquet')"
    )
    want = con.execute(REGISTRY["group_zscore_events"]["sql"]).df()

    got = got.sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    flat_got = got[got["event_type"] == "flat"]["z"]
    flat_want = want[want["event_type"] == "flat"]["z"]
    assert flat_got.isna().all() and flat_want.isna().all()
    pd.testing.assert_series_equal(
        got[got["event_type"] == "vary"]["z"].astype("float64"),
        want[want["event_type"] == "vary"]["z"].astype("float64"),
        check_index=False,
    )


# epoch-branch thresholds that send every epoch down one branch
BRANCHES = {
    "single_task": {"small_epoch_max_rows": 1 << 30},
    "chunk_tasks": {"small_epoch_max_rows": 0},
    "dataset": {"small_epoch_max_rows": 0, "task_epoch_max_rows": 0},
}
BRANCH_WEB = dict(n_hosts=5, pages_per_host=12)


@pytest.fixture(scope="module")
def branch_oracle():
    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.oracle import oracle_crawl

    web = WebConfig(**BRANCH_WEB)
    return oracle_crawl(web, seed_urls(web), max_epochs=40, num_shards=3)


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_fast_path_crawl_equals_pipeline_path(ray_session, tmp_path,
                                              branch_oracle, branch):
    """Every epoch forced through one execution branch (single task,
    chunk tasks, Ray Data pipeline) gives the oracle's fetch log, seen set
    and payload — so all three branches give identical ones."""
    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import (
        CrawlConfig, _log_sorted, read_payload, run_crawl,
    )

    web = WebConfig(**BRANCH_WEB)
    out = str(tmp_path / branch)
    cfg = CrawlConfig(web=web, out_dir=out, num_shards=3, max_epochs=40,
                      collect_parity_outputs=True, **BRANCHES[branch])
    st = run_crawl(cfg, seed_urls(web))
    assert {e[2] for e in st.epoch_log} == {branch}
    if branch != "dataset":
        # every block here is under batch_size: one slice, one part each
        for epoch, _, _, blocks, _ in st.epoch_log:
            assert len(os.listdir(
                os.path.join(out, "payload", f"epoch={epoch}"))) == blocks

    assert _log_sorted(list(st.fetch_log)) == _log_sorted(
        list(branch_oracle.fetch_log))
    assert st.seen == branch_oracle.seen
    payload = read_payload(out, columns=["image_id", "caption", "phash"])
    got = {r["image_id"]: (r["caption"], r["phash"])
           for r in payload.iter_rows()}
    want = {p["image_id"]: (p["caption"], p["phash"])
            for p in branch_oracle.payload}
    assert got == want


def test_dataset_epoch_runs_one_task_per_block(ray_session, tmp_path):
    """A Ray Data epoch of k blocks runs exactly k fused fetch→write
    tasks (no block bundled into a neighbour), and its block-size
    estimate stays on the epoch's own dataset context."""
    import re

    import ray.data

    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import CrawlConfig, run_crawl

    web = WebConfig(n_hosts=12, pages_per_host=6)
    cfg = CrawlConfig(web=web, out_dir=str(tmp_path / "out"), num_shards=3,
                      max_epochs=3, **BRANCHES["dataset"])
    before = ray.data.DataContext.get_current().target_max_block_size
    st = run_crawl(cfg, seed_urls(web))
    assert ray.data.DataContext.get_current().target_max_block_size == before

    epoch, rows, branch, blocks, _ = st.epoch_log[-1]
    assert branch == "dataset" and blocks > 1
    tasks = re.findall(r"Operator \d+ [^:]*Write[^:]*: (\d+) tasks executed",
                       st.last_pipeline_stats)
    assert tasks == [str(blocks)], st.last_pipeline_stats


@pytest.mark.parametrize("batch_size", [1, 4, 8, 16, 17, 128])
def test_chunk_task_writes_one_part_per_slice(ray_session, tmp_path,
                                              batch_size):
    """A block of n rows is fetched, decoded and written in
    ceil(n / batch_size) slices of near-equal size — no 1-row tail round
    when n is one more than a multiple of the slice size."""
    import ray

    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import (
        CrawlConfig, _seed_tables, _small_epoch_task, make_shard_actors,
    )

    web = WebConfig(n_hosts=17, pages_per_host=2)
    cfg = CrawlConfig(web=web, out_dir=str(tmp_path / "out"), num_shards=1)
    (actor,) = make_shard_actors(cfg)
    rows = _seed_tables(cfg, seed_urls(web))[0]
    ray.get(actor.offer.remote(-1, *map(list, zip(*rows)), 0))
    n = ray.get(actor.pop.remote(0))
    assert n == 17
    out = str(tmp_path / "payload")
    ray.get(_small_epoch_task.remote(
        web, [actor], 0, True, batch_size, out,
        actor.take_popped_part.remote(0, 1), part_base=200_000))
    files = sorted(os.listdir(out))
    k = -(-n // batch_size)
    assert files == [f"part-{200_000 + j}.parquet" for j in range(k)]
    ray.kill(actor)


def test_slices_are_near_equal_and_capped():
    from raycrawl.crawler import _slices

    for n in range(40):
        tbl = pa.table({"i": list(range(n))})
        for cap in range(1, 20):
            parts = _slices(tbl, cap)
            sizes = [p.num_rows for p in parts]
            assert len(parts) == -(-n // cap)
            assert all(0 < s <= cap for s in sizes)
            assert max(sizes, default=0) - min(sizes, default=0) <= 1
            assert pa.concat_tables(parts or [tbl]).column("i").to_pylist() \
                == list(range(n))


def test_round_half_away_matches_duckdb_round():
    """The shared rounding helper must follow DuckDB ROUND's tie rule
    (half AWAY from zero) on exact boundaries, where numpy rounds to
    even."""
    from raycrawl.ops.common import round_half_away

    cases = [(0.5, 0), (1.5, 0), (2.5, 0), (-2.5, 0), (124.5, 0),
             (0.00005, 4), (-0.00005, 4), (2.345, 2), (1.2345675, 6)]
    for x, nd in cases:
        want = duckdb.sql(
            f"SELECT ROUND(CAST({x!r} AS DOUBLE), {nd})"
        ).fetchone()[0]
        got = float(round_half_away(x, nd))
        assert got == want, (x, nd, got, want)


def test_outer_join_stats_with_no_matching_orders(ray_session, tmp_path):
    """When NO order matches the filter, the broadcast side is empty and
    every customer must still come back zero-filled (regression: empty
    searchsorted array produced IndexError)."""
    sf = str(tmp_path)
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], pa.int64()),
                "c_name": ["a", "b", "c"],
            }
        ),
        os.path.join(sf, "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array([1], pa.int64()),
                "o_totalprice": pa.array([10.0], pa.float64()),
                "o_orderpriority": ["5-LOW"],  # nothing URGENT
            }
        ),
        os.path.join(sf, "orders.parquet"),
    )
    from raycrawl.ops.mlprep import customer_urgent_order_stats

    got = customer_urgent_order_stats(sf).to_pandas()
    assert len(got) == 3
    assert (got["n_urgent"] == 0).all()
    assert (got["urgent_spend"] == 0.0).all()


def test_session3_ops_on_tiny_and_dupfree_corpus(ray_session, tmp_path):
    """Session-3 ops vs their DuckDB oracles on a 3-doc corpus with no
    duplicated n-grams and no text long enough for a 5-gram in one case:
    the span ops must emit zero spans / zero removals (not error), the
    phash ops must handle the id range, each side agreeing exactly."""
    from raycrawl.ops import REGISTRY

    sf = str(tmp_path)
    docs = pd.DataFrame(
        {
            "doc_id": np.array([0, 1, 2], dtype="int64"),
            "text": ["alpha beta", "gamma delta epsilon zeta eta theta",
                     "iota kappa lambda"],
            "lang": ["en"] * 3,
            "source": ["t"] * 3,
            "n_chars": np.array([10, 34, 17], dtype="int64"),
        }
    )
    pq.write_table(pa.Table.from_pandas(docs),
                   os.path.join(sf, "documents.parquet"))

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )

    for name in ("duplicate_ngram_spans", "duplicate_span_removal_stats",
                 "image_phash_band_lsh_pairs",
                 "image_phash_best_resolution", "image_letterbox_plan"):
        got = REGISTRY[name]["fn"](sf)
        try:
            got = got.to_pandas()
        except AttributeError:
            pass
        want = con.execute(REGISTRY[name]["sql"]).df()
        assert len(got) == len(want), name
        if name == "duplicate_ngram_spans":
            assert len(got) == 0  # no shared 5-grams in the corpus
        if name == "duplicate_span_removal_stats":
            got = got.sort_values("doc_id").reset_index(drop=True)
            assert (got["n_removed"] == 0).all()
            assert list(got["n_words"]) == [2, 6, 3]
