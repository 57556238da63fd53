"""The benchmark's two workloads and their output checks.

* ``crawl_media`` — ``run_crawl`` over a synthetic web of large pages whose
  bytes are kept: fetch, decode and the payload write carry about half the
  wall time and the crawl driver's control plane the rest, and the epochs
  are sized so all three epoch-execution branches run.
* ``query_mix`` — one client issuing SQL-oracled registry queries back to
  back: only the ``ops`` layer works.

Each workload offers ``run.py`` the same calls: ``warmup`` (a tiny op, part
of set-up), ``prepare`` (inputs and the oracle answer for a seed),
``run_pass`` (one timed op or op sequence, then its output check, plus its
per-layer readings when traced) and ``replay`` (per-layer replay after the
traced passes).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import pandas as pd
import pyarrow.parquet as pq

import replay
import sysinfo
import tables
from spans import Tracer

# the registry queries of query_mix, each with a SQL oracle
QUERIES = (
    "pricing_summary", "shipping_priority_topk", "nation_pair_trade_volume",
    "nation_market_share", "nation_part_profit", "sole_late_shipper_suppliers",
    "large_volume_customers", "returned_item_report",
    "customer_urgent_order_stats", "events_per_minute", "hourly_user_windows",
    "user_sessions_30m", "rolling_7d_distinct_users", "minhash_lsh_candidates",
    "simhash_dedup_groups", "image_phash_band_lsh_pairs", "tfidf_top_terms",
    "triangle_count_cosuppliers", "label_propagation",
)
# queries whose adaptive branch is recorded in ops.common.PATH_LOG
PATH_OPS = (
    "shipping_priority_topk", "nation_pair_trade_volume", "nation_market_share",
    "nation_part_profit", "sole_late_shipper_suppliers", "returned_item_report",
    "customer_urgent_order_stats", "minhash_lsh_candidates",
    "triangle_count_cosuppliers", "label_propagation",
)
CRAWL_PHASES = ("pop", "chunks", "pipeline", "gate", "offers", "checkpoint")
SIDECARS = ("suppressed", "errors", "redirects", "not_modified")


@dataclass
class PassResult:
    """One timed pass: its wall and CPU time, the driver's peak RSS during
    it, the work items it finished and how many of its ops failed."""
    run_s: float
    cpu_s: float
    rss_mb: float
    items: int
    attempted: int
    failed: int
    traced: bool = False
    layers: dict = field(default_factory=dict)


def _path_branch(path: str) -> int:
    """PATH_LOG branch as a number: 1 = the small-input branch (broadcast,
    driver-side, bitset), 2 = the partitioned branch (join, distributed,
    bucketed, shuffle)."""
    big = ("join", "distributed", "bucketed", "shuffle")
    return 2 if any(k in path for k in big) else 1


# ------------------------------------------------------------------ crawls


@dataclass(frozen=True)
class CrawlSpec:
    """The crawl_media shape. Every host's page 0 and its sitemap are seeds,
    so every public page is reachable and the crawl's size moves little
    from one web seed to the next."""
    n_hosts: int = 32
    pages_per_host: int = 6
    min_dim: int = 192
    max_dim: int = 320
    burst: float = 32.0
    epoch_seconds: float = 60.0
    saving_period: int = 2
    num_shards: int = 4
    max_epochs: int = 60
    # epochs up to this many rows run as one task (the crawler's default
    # with payload bytes kept)
    small_epoch_max_rows: int = 16
    # epochs above this many rows take the Ray Data branch; at 96 the
    # largest epochs of this small crawl run there (the crawler's default,
    # 256 rows per CPU, would leave that branch unmeasured)
    task_epoch_max_rows: int = 96


class CrawlWorkload:
    name = "crawl_media"
    min_passes = 3  # the median of three absorbs one slow pass

    def __init__(self, spec: CrawlSpec, work_dir: str):
        self.spec, self.work_dir = spec, work_dir
        self.expected: tuple[int, str] | None = None
        self.last_traced_out: str | None = None

    def _web(self, seed: int, n_hosts: int | None = None,
             pages: int | None = None):
        from raycrawl.core.webgraph import WebConfig

        s = self.spec
        return WebConfig(n_hosts=n_hosts or s.n_hosts,
                         pages_per_host=pages or s.pages_per_host,
                         seed=seed, min_dim=s.min_dim, max_dim=s.max_dim)

    def _seeds(self, web) -> list[str]:
        from raycrawl.core.webgraph import seed_urls, sitemap_url

        return seed_urls(web) + [sitemap_url(k) for k in range(web.n_hosts)]

    def _config(self, web, out_dir: str):
        from raycrawl.crawler import CrawlConfig

        s = self.spec
        return CrawlConfig(
            web=web, out_dir=out_dir, num_shards=s.num_shards,
            epoch_seconds=s.epoch_seconds, max_epochs=s.max_epochs,
            saving_period=s.saving_period, burst=s.burst,
            keep_bytes_in_payload=True, keep_fetch_log=False,
            small_epoch_max_rows=s.small_epoch_max_rows,
            task_epoch_max_rows=s.task_epoch_max_rows,
        )

    def warmup(self, scratch: str) -> None:
        """A tiny crawl with the same page shape and payload mode, every
        epoch sent down the Ray Data branch, so worker processes have
        imported the crawl stages and Ray Data has started before the first
        timed pass."""
        from raycrawl.crawler import run_crawl

        web = self._web(seed=0, n_hosts=4, pages=2)
        out = os.path.join(scratch, "warmup")
        cfg = replace(self._config(web, out), num_shards=2,
                      small_epoch_max_rows=0, task_epoch_max_rows=0)
        run_crawl(cfg, self._seeds(web))
        shutil.rmtree(out, ignore_errors=True)

    def prepare(self, seed: int, corrupt: bool = False) -> None:
        """The sequential oracle's answer for this seed — payload row count
        and a digest of the sorted (url, epoch, phash) rows — cached on
        disk per (workload shape, oracle source, seed). It is computed in
        a child process so its page buffers do not inflate the driver's
        measured RSS."""
        key = hashlib.sha1(json.dumps(asdict(self.spec), sort_keys=True)
                           .encode())
        for path in _oracle_sources():
            with open(path, "rb") as f:
                key.update(f.read())
        key = key.hexdigest()[:12]
        path = os.path.join(self.work_dir, "oracle",
                            f"{self.name}-{key}-seed{seed}.json")
        if os.path.exists(path):
            with open(path) as f:
                got = json.load(f)
        else:
            _in_child("_crawl_oracle", asdict(self.spec), seed, path)
            with open(path) as f:
                got = json.load(f)
        digest = got["digest"]
        if corrupt:
            digest = hashlib.sha1(digest.encode()).hexdigest()
        self.expected = (got["rows"], digest)

    def oracle(self, seed: int) -> dict:
        from raycrawl.oracle import oracle_crawl

        s, web = self.spec, self._web(seed)
        res = oracle_crawl(web, self._seeds(web), max_epochs=s.max_epochs,
                           num_shards=s.num_shards,
                           epoch_seconds=s.epoch_seconds, burst=s.burst)
        rows = [(p["url"], p["epoch"], p["phash"]) for p in res.payload]
        return {"rows": len(rows), "digest": _digest(rows)}

    def run_pass(self, seed: int, out_dir: str, pass_id: int,
                 tracer: Tracer | None) -> PassResult:
        from raycrawl.crawler import run_crawl

        web = self._web(seed)
        cfg = self._config(web, out_dir)
        seeds = self._seeds(web)
        ticks: list[float] = []

        def tick() -> bool:
            ticks.append(time.perf_counter())
            return False

        sysinfo.reset_peak_rss()
        with sysinfo.TreeCpu() as cpu:
            t0 = time.perf_counter()
            stats = run_crawl(cfg, seeds,
                              should_stop=tick if tracer is not None else None)
            t1 = time.perf_counter()
        rss = sysinfo.peak_rss_mb()
        rows, digest = payload_digest(out_dir)
        ok = (rows, digest) == self.expected
        res = PassResult(run_s=t1 - t0, cpu_s=cpu.seconds, rss_mb=rss,
                         items=stats.payload_rows, attempted=1,
                         failed=0 if ok else 1, traced=tracer is not None)
        if tracer is not None:
            res.layers = self._layers(stats, out_dir, t0, t1, ticks,
                                      pass_id, tracer)
            self.last_traced_out = out_dir
        return res

    def _layers(self, stats, out_dir: str, t0: float, t1: float,
                ticks: list[float], pass_id: int, tracer: Tracer) -> dict:
        """Per-layer readings of one traced crawl pass. Spans: one for the
        pass; under it a startup span (call -> first ``should_stop`` tick),
        one span per epoch (tick -> next tick) and a teardown span (last
        tick -> return), which together tile the pass."""
        root = tracer.span("crawl.pass", t0, t1, None, pass_id)
        edges = [t0, *ticks, t1]
        names = (["crawl.startup"] + ["crawl.epoch"] * (len(ticks) - 1)
                 + ["crawl.teardown"])
        for name, a, b in zip(names, edges, edges[1:]):
            tracer.span(name, a, b, root, pass_id)
        epoch_ms = [(b - a) * 1e3 for a, b in zip(ticks, ticks[1:])]
        run_s = t1 - t0
        out = {
            "crawler.startup_ms": (edges[1] - t0) * 1e3,
            "crawler.teardown_ms": (t1 - edges[-2]) * 1e3,
            "crawler.epochs": stats.epochs,
        }
        if epoch_ms:
            out["crawler.epoch_ms_p50"] = _pct(epoch_ms, 50)
            out["crawler.epoch_ms_p90"] = _pct(epoch_ms, 90)
        phases = getattr(stats, "phase_seconds", None)
        if isinstance(phases, dict):
            for p in CRAWL_PHASES:
                out[f"crawler.{p}_s"] = float(phases.get(p, 0.0))
            out["crawler.engine_share"] = (
                (run_s - phases.get("pipeline", 0.0)) / run_s)
        metrics = getattr(stats, "metrics", None)
        sitemaps = sum(m.get("sitemap_expanded", 0) for m in metrics or ())
        out.update(self._epoch_branches(out_dir, sitemaps))
        if isinstance(metrics, list) and metrics:
            tot = {k: sum(m.get(k, 0) for m in metrics)
                   for k in ("offered", "accepted", "robots_denied",
                             "phash_suppressed", "fetch_errors")}
            for k, v in tot.items():
                out[f"frontier.{k}"] = v
            if tot["offered"]:
                out["frontier.accept_ratio"] = tot["accepted"] / tot["offered"]
        out["io.payload_mb"] = _tree_bytes(
            os.path.join(out_dir, "payload")) / 1e6
        return out

    def _epoch_branches(self, out_dir: str, sitemaps: int) -> dict:
        """Epochs per execution branch, from the rows each epoch popped.
        Every page pop lands in exactly one of the payload and sidecar
        trees, so their per-epoch digest union is the popped set; sitemap
        pops land in none, and are all seeds popped in epoch 0. The
        thresholds are the ``small_epoch_max_rows`` and
        ``task_epoch_max_rows`` the pass ran with."""
        popped: dict[int, set] = {}
        pdir = os.path.join(out_dir, "payload")
        for d in os.listdir(pdir):
            ep = int(d.split("=")[1])
            for f in os.listdir(os.path.join(pdir, d)):
                if f.endswith(".parquet"):
                    col = pq.read_table(os.path.join(pdir, d, f),
                                        columns=["url_hash"])["url_hash"]
                    popped.setdefault(ep, set()).update(col.to_pylist())
        for side in SIDECARS:
            sdir = os.path.join(out_dir, side)
            if not os.path.isdir(sdir):
                continue
            for f in os.listdir(sdir):
                ep = int(f.split("=")[1].split(".")[0])
                col = pq.read_table(os.path.join(sdir, f),
                                    columns=["url_hash"])["url_hash"]
                popped.setdefault(ep, set()).update(col.to_pylist())
        small_max = self.spec.small_epoch_max_rows
        task_max = self.spec.task_epoch_max_rows
        sizes = [len(v) + (sitemaps if ep == 0 else 0)
                 for ep, v in popped.items() if v]
        return {
            "crawler.epoch_rows_max": max(sizes, default=0),
            "crawler.epochs_single_task": sum(n <= small_max for n in sizes),
            "crawler.epochs_chunk_tasks": sum(
                small_max < n <= task_max for n in sizes),
            "crawler.epochs_dataset": sum(n > task_max for n in sizes),
        }

    def replay(self, seed: int, scratch: str) -> dict:
        if self.last_traced_out is None:
            return {}
        return replay.crawl_layers(
            self._config(self._web(seed), self.last_traced_out), scratch)


def _crawl_oracle(spec: dict, seed: int, path: str) -> None:
    """Write ``CrawlWorkload.oracle`` for this shape and seed to ``path``."""
    got = CrawlWorkload(CrawlSpec(**spec), "").oracle(seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(got, f)
    os.replace(tmp, path)


def payload_digest(out_dir: str) -> tuple[int, str]:
    """Row count and digest of the crawl's payload as ``read_payload``
    returns it, as sorted (url, epoch, phash) rows."""
    from raycrawl.crawler import read_payload

    df = read_payload(out_dir, columns=["url", "epoch", "phash"]).to_pandas()
    rows = list(zip(df["url"].tolist(), df["epoch"].tolist(),
                    df["phash"].tolist()))
    return len(rows), _digest(rows)


def _oracle_sources() -> list[str]:
    """The files the sequential crawl oracle's answer depends on: the
    oracle and the core modules it builds pages and verdicts with."""
    pkg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "raycrawl")
    core = os.path.join(pkg, "core")
    return [os.path.join(pkg, "oracle.py")] + sorted(
        os.path.join(core, f) for f in os.listdir(core) if f.endswith(".py"))


def _digest(rows: list[tuple]) -> str:
    h = hashlib.sha1()
    for r in sorted(rows):
        h.update(repr(r).encode())
    return h.hexdigest()


def _tree_bytes(d: str) -> int:
    return sum(os.path.getsize(os.path.join(p, f))
               for p, _, fs in os.walk(d) for f in fs)


def _pct(xs: list[float], q: int) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------- queries


class QueryMix:
    name = "query_mix"
    min_passes = 3  # the median of three absorbs one slow pass

    def __init__(self, sf: float, work_dir: str):
        self.sf, self.work_dir = sf, work_dir
        self.check = _load_correctness_tool()
        self.order: list[str] = []
        self.tables_dir = ""
        self.expected: dict = {}

    def warmup(self, scratch: str) -> None:
        """One query over the smallest table set, so worker processes have
        imported the ops layer before the first timed pass."""
        from raycrawl.ops import REGISTRY

        d = tables.write_tables(os.path.join(self.work_dir, "tables"), 0.0)
        self.check.to_pandas(REGISTRY["pricing_summary"]["fn"](d))

    def prepare(self, seed: int, corrupt: bool = False) -> None:
        """The fixed tables, a seeded query order, and every query's SQL
        oracle answer through DuckDB (computed once per table set and query
        SQL, and cached: the label-propagation oracle alone takes
        seconds)."""
        from raycrawl.ops import REGISTRY

        root = os.path.join(self.work_dir, "tables")
        key = hashlib.sha1(tables.SOURCE_KEY.encode())
        for q in QUERIES:
            key.update(f"{q}\0{REGISTRY[q]['sql']}\0".encode())
        cache = os.path.join(self.work_dir, "oracle", f"{self.name}-sf"
                             f"{self.sf}-{key.hexdigest()[:12]}.pkl")
        if not os.path.exists(cache):
            _in_child("_build_inputs", root, self.sf, cache)
        self.tables_dir = tables.write_tables(root, self.sf)
        self.expected = pd.read_pickle(cache)
        self.order = list(QUERIES)
        random.Random(seed).shuffle(self.order)
        if corrupt:  # one row short of every answer
            self.expected = {q: df.iloc[:-1] if len(df) else
                             df.reindex([0]) for q, df in self.expected.items()}

    def run_pass(self, seed: int, out_dir: str, pass_id: int,
                 tracer: Tracer | None) -> PassResult:
        from raycrawl.ops import REGISTRY

        run_s = cpu_s = 0.0
        failed = done = 0
        layers: dict = {}
        sysinfo.reset_peak_rss()
        t_pass = time.perf_counter()
        spans = []
        for q in self.order:
            err = None
            with sysinfo.TreeCpu() as cpu:
                t0 = time.perf_counter()
                try:
                    df = self.check.to_pandas(
                        REGISTRY[q]["fn"](self.tables_dir))
                except Exception as e:  # an op that raises is a failed op
                    err = e
                t1 = time.perf_counter()
            run_s += t1 - t0
            cpu_s += cpu.seconds
            spans.append((q, t0, t1))
            if err is not None:
                print(f"# {q} raised {type(err).__name__}: {err}", flush=True)
                failed += 1
                continue
            done += 1
            problems = self.check.compare(q, df, self.expected[q])
            if problems:
                print(f"# {q} mismatches its SQL oracle: {problems}",
                      flush=True)
                failed += 1
            layers[f"query.{q}_s"] = t1 - t0
            layers[f"query.{q}_rows"] = len(df)
        rss = sysinfo.peak_rss_mb()
        res = PassResult(run_s=run_s, cpu_s=cpu_s, rss_mb=rss, items=done,
                         attempted=len(self.order), failed=failed,
                         traced=tracer is not None)
        if tracer is not None:
            root = tracer.span("query.pass", t_pass, time.perf_counter(),
                               None, pass_id)
            for q, a, b in spans:
                tracer.span(f"query.{q}", a, b, root, pass_id)
            layers.update(self._paths(tracer))
            res.layers = layers
        return res

    def _paths(self, tracer: Tracer) -> dict:
        """Adaptive branch per op from ``ops.common.PATH_LOG``; absent when
        the program no longer exposes it."""
        from raycrawl.ops import common

        log = getattr(common, "PATH_LOG", None)
        if not isinstance(log, dict):
            return {}
        tracer.notes["path_log"] = {k: str(v) for k, v in log.items()}
        return {f"ops.path.{op}": _path_branch(str(log[op]))
                for op in PATH_OPS if op in log}

    def replay(self, seed: int, scratch: str) -> dict:
        return {}


def _build_inputs(root: str, sf: float, cache: str) -> None:
    """Write the query_mix tables under ``root`` and pickle every query's
    registry SQL answer, run through DuckDB over them, to ``cache``."""
    import duckdb
    from raycrawl.ops import REGISTRY

    tables_dir = tables.write_tables(root, sf)
    con = duckdb.connect()
    try:
        for t in tables.TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet("
                        f"'{tables_dir}/{t}.parquet')")
        answers = {q: con.sql(REGISTRY[q]["sql"]).df() for q in QUERIES}
    finally:
        con.close()
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    tmp = f"{cache}.{os.getpid()}"
    pd.to_pickle(answers, tmp)
    os.replace(tmp, cache)


def _in_child(fn: str, *args) -> None:
    """Call this module's function ``fn`` with JSON-able ``args`` in a
    fresh interpreter and wait for it to end, so the oracle's page buffers
    and DuckDB's memory stay out of the driver's measured RSS."""
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    json.dumps([fn, args])], check=True)


def _load_correctness_tool():
    """The repository's correctness gate, tools/check_correctness.py: its
    ``to_pandas`` and ``compare`` check every query_mix result."""
    import importlib.util

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "check_correctness", os.path.join(root, "tools", "check_correctness.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# ---------------------------------------------------------------- registry


def make(name: str, work_dir: str, toy: bool = False):
    """The named workload at benchmark size, or at toy size for the
    self-test."""
    if name == "crawl_media":
        spec = CrawlSpec(n_hosts=12, pages_per_host=4) if toy else CrawlSpec()
        return CrawlWorkload(spec, work_dir)
    if name == "query_mix":
        return QueryMix(0.0 if toy else 0.01, work_dir)
    raise KeyError(name)


if __name__ == "__main__":  # a child started by _in_child
    fn, args = json.loads(sys.argv[1])
    globals()[fn](*args)
