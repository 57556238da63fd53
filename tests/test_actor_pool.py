"""Control-plane actor reuse: ``run_crawl`` takes its frontier and dedup
shard actors from a per-session pool, resets them in place, and gives them
back when it returns. A reused actor must crawl exactly like a new one
(oracle parity across differently configured crawls run back to back), a
dead idle actor is replaced, a crawl that raises kills its actors, idle
actors reserve no CPU, and handles from an earlier Ray session are never
handed out."""

import os
import subprocess
import sys
import time

import pytest

from raycrawl.core.webgraph import WebConfig, seed_urls
from raycrawl.oracle import oracle_crawl

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WEB = WebConfig(n_hosts=6, pages_per_host=8, redirect_every=5)
EPOCHS = 30


def _sort_log(log):
    return sorted(
        log,
        key=lambda r: (r["epoch"], -r["priority"], r["depth"],
                       r["discovered_at"], r["url_hash"]),
    )


def _crawl(out, resume=False, should_stop=None, **kw):
    from raycrawl.crawler import CrawlConfig, run_crawl

    cfg = CrawlConfig(web=WEB, out_dir=str(out), max_epochs=EPOCHS,
                      collect_parity_outputs=True, **kw)
    return run_crawl(cfg, seed_urls(WEB), resume=resume,
                     should_stop=should_stop)


def _assert_oracle_parity(stats, out, **kw):
    from raycrawl.crawler import read_payload

    want = oracle_crawl(WEB, seed_urls(WEB), max_epochs=EPOCHS, **kw)
    assert _sort_log(stats.fetch_log) == _sort_log(want.fetch_log)
    assert {s: sorted(v) for s, v in stats.seen.items()} == {
        s: sorted(v) for s, v in want.seen.items()
    }
    got = {r.image_id: (r.caption, int(r.phash))
           for r in read_payload(str(out)).to_pandas().itertuples()}
    assert got == {p["image_id"]: (p["caption"], p["phash"])
                   for p in want.payload}


def _idle(cls_name: str) -> list:
    from raycrawl import crawler

    return crawler._POOL.idle().get(getattr(crawler, cls_name), [])


def _ids(handles) -> set:
    return {h._actor_id.hex() for h in handles}


def _dead(handle, timeout: float = 30.0) -> bool:
    """True once a call on ``handle`` fails because its actor is gone
    (``ray.kill`` lands asynchronously)."""
    import ray

    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            ray.get(handle.__ray_ready__.remote(), timeout=10)
        except ray.exceptions.RayActorError:
            return True
        time.sleep(0.1)
    return False


def _alive_actor_ids() -> set:
    import ray

    return {a for a, v in ray._private.state.actors().items()
            if v["State"] == "ALIVE"}


def _wait_for(pred, timeout: float = 30.0) -> bool:
    deadline = time.time() + timeout
    while not pred():
        if time.time() > deadline:
            return False
        time.sleep(0.1)
    return True


# Back-to-back crawls in one session; each step differs from the previous
# one in shard count or in the features the actors' state carries.
STEPS = [
    ("2 shards", dict(num_shards=2)),
    ("4 shards", dict(num_shards=4)),
    ("global dedup on", dict(num_shards=4, global_phash_dedup=True,
                             num_phash_shards=3)),
    ("global dedup off", dict(num_shards=4)),
    ("depth, rich robots, backoff set",
     dict(num_shards=3, max_depth=2, rich_robots=True, error_backoff=True)),
    ("depth, rich robots, backoff unset", dict(num_shards=3)),
]


def test_reused_actors_match_oracle(ray_session, tmp_path):
    for i, (name, kw) in enumerate(STEPS):
        before = _ids(_idle("_PooledShard"))
        dedup_before = _ids(_idle("_PooledPhashShard"))
        stats = _crawl(tmp_path / f"step{i}", **kw)
        _assert_oracle_parity(stats, tmp_path / f"step{i}", **kw)
        # the crawl reused every idle actor it needed and started only the
        # missing ones: the pool grows to the larger of the two, no further
        after = _ids(_idle("_PooledShard"))
        assert before <= after, name
        assert len(after) == max(len(before), kw["num_shards"]), name
        dedup_after = _ids(_idle("_PooledPhashShard"))
        assert dedup_before <= dedup_after, name
        if kw.get("global_phash_dedup"):
            assert len(dedup_after) == max(len(dedup_before),
                                           kw["num_phash_shards"]), name


def test_stop_and_resume_on_reused_actors(ray_session, tmp_path):
    kw = dict(num_shards=3, global_phash_dedup=True, num_phash_shards=2)
    _crawl(tmp_path / "warm", **kw)  # the pool holds this shape's actors
    calls = []

    def stop_after_3():
        calls.append(1)
        return len(calls) > 3

    out = tmp_path / "stopped"
    first = _crawl(out, should_stop=stop_after_3, saving_period=2, **kw)
    assert first.epochs == 3
    resumed = _crawl(out, resume=True, saving_period=2, **kw)
    assert resumed.epochs > 3
    _assert_oracle_parity(resumed, out, **kw)


def test_dead_idle_actor_is_replaced(ray_session, tmp_path):
    _crawl(tmp_path / "warm", num_shards=2)
    idle = _idle("_PooledShard")
    victim = idle[0]
    import ray

    ray.kill(victim)
    assert _dead(victim)
    # the next crawl needs every idle actor, the dead one included
    stats = _crawl(tmp_path / "after", num_shards=len(idle))
    _assert_oracle_parity(stats, tmp_path / "after", num_shards=len(idle))
    after = _idle("_PooledShard")
    assert victim._actor_id.hex() not in _ids(after)
    assert len(after) == len(idle)


def test_raising_crawl_kills_its_actors(ray_session, tmp_path):
    """A ``should_stop`` that raises on its 2nd call: the error propagates,
    and none of that crawl's actors answers a call afterwards or goes back
    to the pool."""
    _crawl(tmp_path / "warm", num_shards=2, global_phash_dedup=True,
           num_phash_shards=2)
    shards, dedups = _idle("_PooledShard"), _idle("_PooledPhashShard")
    alive_before = _alive_actor_ids()
    calls = []

    def stop():
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("stop hook failed")
        return False

    with pytest.raises(RuntimeError, match="stop hook failed"):
        # sized to take every idle actor, so the crawl's actors are known
        _crawl(tmp_path / "raises", should_stop=stop, num_shards=len(shards),
               global_phash_dedup=True, num_phash_shards=len(dedups))
    assert len(calls) == 2
    for h in shards + dedups:
        assert _dead(h)
    assert not _idle("_PooledShard") and not _idle("_PooledPhashShard")
    # and no actor the crawl may have started outlives it
    assert _wait_for(lambda: _alive_actor_ids() <= alive_before)


def test_idle_actors_hold_no_cpu(ray_session, tmp_path):
    import ray

    total = ray.cluster_resources()["CPU"]
    _crawl(tmp_path / "pooled", num_shards=2)
    idle = _ids(_idle("_PooledShard"))
    assert len(idle) >= 2
    assert _wait_for(lambda: ray.available_resources().get("CPU") == total)
    # actors that reserve CPU are killed at close, never pooled
    stats = _crawl(tmp_path / "reserving", num_shards=2, shard_num_cpus=0.5)
    _assert_oracle_parity(stats, tmp_path / "reserving", num_shards=2)
    assert _ids(_idle("_PooledShard")) == idle
    assert _wait_for(lambda: ray.available_resources().get("CPU") == total)


# Two Ray sessions in one driver, a crawl in each: the second must start
# its own actors, never the first session's handles.
_TWO_SESSIONS = """
import os, sys, tempfile
sys.path.insert(0, os.getcwd())
import ray
from raycrawl import crawler
from raycrawl.core.webgraph import WebConfig, seed_urls

web = WebConfig(n_hosts=4, pages_per_host=4)
out = tempfile.mkdtemp()
ids, rows = [], []
for _ in range(2):
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    st = crawler.run_crawl(
        crawler.CrawlConfig(web=web, out_dir=out, num_shards=2,
                            max_epochs=20),
        seed_urls(web))
    rows.append(st.payload_rows)
    ids.append({h._actor_id.hex()
                for hs in crawler._POOL.idle().values() for h in hs})
    ray.shutdown()
print("ROWS", rows, "IDS", [sorted(i) for i in ids])
assert rows[0] == rows[1] > 0
assert len(ids[0]) == len(ids[1]) == 2 and not ids[0] & ids[1]
assert not crawler._POOL.idle()  # Ray is down: nothing to hand out
"""


def test_new_session_never_gets_stale_handles(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path), RAY_TMPDIR="/tmp")
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_SESSIONS], cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:]
