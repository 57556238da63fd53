"""Crawl fixtures behind the crawl-artifact SQL oracles: one crawl per
(fixture, sf) per process, the fixture's `current` link republished on
every call, runs isolated per TMPDIR, a query that still returns its
rows when the fixture base path is unusable, and earlier processes'
trees pruned."""

import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sf_dir(path, n_docs: int) -> str:
    """A scale-factor dir as far as fixtures read it: the documents row
    count sizes the web (pages per host = max(8, n_docs // 16))."""
    os.makedirs(path, exist_ok=True)
    pq.write_table(pa.table({"doc_id": pa.array(range(n_docs), pa.int64())}),
                   os.path.join(path, "documents.parquet"))
    return str(path)


def _dead_pid() -> int:
    p = subprocess.Popen([sys.executable, "-c", "pass"])
    p.wait()
    return p.pid


def test_new_tree_prunes_dead_pid_trees(tmp_path, monkeypatch):
    """A new fixture tree deletes the trees of processes that have exited,
    except the one ``current`` names; a live process's tree stays."""
    from raycrawl.ops import crawlq

    monkeypatch.setattr(crawlq, "_FIXTURE_BASE", str(tmp_path / "base"))
    home = tmp_path / "base" / "main"
    dead, dead_cur = _dead_pid(), _dead_pid()
    trees = {
        "dead": home / f"aaaa0000-{dead}",
        "live": home / f"aaaa0000-{os.getppid()}",
        "current": home / f"bbbb1111-{dead_cur}",
    }
    for tree in trees.values():
        (tree / "payload").mkdir(parents=True)
    os.symlink(str(trees["current"]), str(home / "current"))
    out = crawlq._new_out_dir("main", str(tmp_path / "sf"))
    assert out.endswith(f"-{os.getpid()}")
    assert not trees["dead"].exists()
    assert trees["live"].exists()
    assert trees["current"].exists()
    assert os.path.realpath(home / "current") == str(trees["current"])


@pytest.mark.parametrize("name", ["backoff", "redirect"])
def test_cache_hit_republishes_current(ray_session, tmp_path, monkeypatch,
                                       name):
    from raycrawl.ops import crawlq

    monkeypatch.setattr(crawlq, "_FIXTURE_BASE", str(tmp_path / "base"))
    a = _sf_dir(tmp_path / "a", 128)
    b = _sf_dir(tmp_path / "b", 160)
    out_a = crawlq.fixture_dir(name, a)
    out_b = crawlq.fixture_dir(name, b)
    assert out_a != out_b
    again = crawlq.fixture_dir(name, a)  # cache hit
    assert again == out_a
    assert os.path.realpath(crawlq._cur(name)) == os.path.realpath(again)


def test_unusable_base_still_returns_rows(ray_session, tmp_path,
                                          monkeypatch):
    from raycrawl.ops import crawlq

    base = tmp_path / "base"
    base.write_text("not a directory")
    monkeypatch.setattr(crawlq, "_FIXTURE_BASE", str(base))
    sf = _sf_dir(tmp_path / "sf", 128)
    with pytest.warns(RuntimeWarning, match="not a private directory"):
        got = crawlq.crawl_quota_audit(sf).to_pandas()
    assert len(got) == 1 and got["fetched_rows"][0] > 0
    assert base.read_text() == "not a directory"


# One gate run: a crawl-artifact query, then its SQL oracle. The barrier
# makes both runs publish before either replays its SQL, so runs that
# share a `current` link read each other's tree.
_GATE_RUN = """
import os, sys, time
sys.path.insert(0, os.getcwd())
import duckdb, ray, ray.data
from raycrawl.ops import REGISTRY
from tools.check_correctness import compare, to_pandas

sf, sync, me, other = sys.argv[1:5]
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
con = duckdb.connect()
problems = []
for q in ("crawl_payload", "crawl_quota_audit"):
    got = to_pandas(REGISTRY[q]["fn"](sf))
    open(os.path.join(sync, f"{me}-{q}"), "w").close()
    deadline = time.time() + 600
    while (not os.path.exists(os.path.join(sync, f"{other}-{q}"))
           and time.time() < deadline):
        time.sleep(0.2)
    want = con.sql(REGISTRY[q]["sql"]).df()
    problems += [f"{q}: {p}" for p in compare(q, got, want)]
ray.shutdown()
print("PROBLEMS", problems)
sys.exit(1 if problems else 0)
"""


def test_concurrent_gate_runs_isolated_by_tmpdir(tmp_path):
    sync = tmp_path / "sync"
    sync.mkdir()
    procs = []
    for me, other, n_docs in (("x", "y", 128), ("y", "x", 160)):
        tmpdir = tmp_path / f"tmp-{me}"
        tmpdir.mkdir()
        env = dict(os.environ, TMPDIR=str(tmpdir), RAY_TMPDIR="/tmp")
        sf = _sf_dir(tmp_path / f"sf-{me}", n_docs)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _GATE_RUN, sf, str(sync), me, other],
            cwd=REPO, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        ))
    for p in procs:
        out, _ = p.communicate(timeout=1200)
        assert p.returncode == 0, out[-3000:]
