"""Crawl driver: the epoch loop orchestrating frontier shards + Ray Data.

Reference analog: the crawler round loop (``pages/Crawler.py:54-153``) —
poll each topic, project/join, buffer, flush every ``saving_period = 10``
rounds, politeness-sleep. Re-expressed Ray-Data-first:

    per epoch (ONE linear, shuffle-free Ray Data pipeline):
      pop      — each FrontierShard actor merges its pending link buffer
                 (deterministic sorted-URL, min-depth) then selects its
                 politeness-budgeted, frontier-ordered URL batch, exposed
                 as EQUAL-SIZE slices (one Ray Data block each, one block
                 per CPU slot: the epoch runs as a single packed wave of
                 same-weight fetch tasks — exactly one task per block, all
                 launched at once — independent of shard count)
      fetch+decode — one ``map_batches`` UDF per block, in ≤ batch_size
                 row slices: ``fetch_batch`` (stateless, per-process state
                 cached across epochs, see stages/fetch.py — avoids
                 per-epoch actor-pool spin-up), then ``decode_submit``:
                 decode + phash each row, canonicalize outlinks, stream
                 the tiny (digest, phash, meta, links) tuples to the
                 owning shard actor (``gate_submit``, idempotent by
                 digest), and emit the payload row — payload BYTES never
                 cross a shuffle
      sink     — the same pipeline streams into
                 ``write_parquet(out/payload/epoch=K)`` → a failed run
                 resumes by epoch directory
      finalize — after the pipeline, each shard actor runs ONE gate walk
                 over its submitted rows in frontier order
                 (``gate_finalize``): near-dups judged by its own phash
                 index, or — with ``global_phash_dedup`` — by the dedup
                 tier's verdict, which host and dedup shards reach actor
                 to actor (``_gate``). It returns the suppressed digests
                 (→ per-epoch sidecar; ``read_payload`` anti-filters them)
                 and refs of the surviving outlinks bucketed by target
                 shard; the driver passes those refs to peers' pending
                 buffers — the frontier-merge exchange, arrival-order-free
                 because the merge at the next pop is a data property
      checkpoint every ``saving_period`` epochs — Lance-style epoch dirs
                 (parquet fallback) with per-partition lineage manifests.

Control-plane lifecycle: the shard actors outlive one crawl. Each new actor
starts a Python worker process, and four of them take 1.2–1.35 s to answer
on a 4-vCPU host — a third of a 192-page crawl. So ``run_crawl`` takes
its frontier (and global dedup) shard actors from a per-Ray-session pool
(``_ActorPool``), resets each in place with ``open`` (fresh state, or the
checkpoint restore of ``resume=True``), and gives them back when it
returns. A crawl that raises kills its actors instead, so a half-run
actor is never reused. Only zero-CPU actors are pooled.

The epoch working set is bounded by the politeness budget
(Σ_host burst); the payload stream never materializes on the driver — it
flows block-by-block into partitioned parquet. Gate/offer traffic is meta
only (≈60 B/URL), orders of magnitude below payload volume.

Scale notes: shard = hash(host) % num_shards contains skew (one hot host
can at worst saturate its own shard's politeness budget, never the
cluster); every piece of shard state is keyed by the same host-hash
partitioning, and no stage shuffles payload bytes at all.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from dataclasses import dataclass, field
from itertools import accumulate

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from .core.urltools import (canonicalize_url, canonical_and_host, url_sha1,
                            host_of, is_base_independent, shard_of_host)
from .core.webgraph import WebConfig, priority_of
from .frontier.shard import SIDECARS, FrontierShard
from .frontier.phash_shard import PhashDedupShard
from .stages.fetch import fetch_batch, decode_batch
from .io import lancelike


@dataclass
class CrawlConfig:
    web: WebConfig = field(default_factory=WebConfig)
    out_dir: str = "/tmp/raycrawl"
    num_shards: int = 4
    epoch_seconds: float = 2.0
    phash_radius: int = 2
    max_epochs: int = 100
    saving_period: int = 10
    expected_urls: int = 1 << 14
    batch_size: int = 128  # max rows per UDF batch (blocks may be larger)
    # CPUs each control-plane actor reserves. 0: none, and the actors go
    # back to the session's actor pool for the next crawl to reuse; > 0:
    # the actors are killed when the crawl ends, so no idle actor holds CPU
    shard_num_cpus: float = 0.0
    keep_bytes_in_payload: bool = True
    burst: float = 8.0  # politeness burst (tokens) per host
    # fetch blocks per CPU slot per epoch, cut evenly over all shards'
    # pops (_cut_epoch): 1 = one wave of equal tasks; 2 = finer blocks,
    # measured slower on the crawl_media benchmark (DESIGN §5)
    blocks_per_cpu: int = 1
    # per-row fetch log (parity/lineage detail). True keeps rows in actor
    # memory and flushes increments at each checkpoint; False records only
    # the aggregate lineage metrics (the at-scale default)
    keep_fetch_log: bool = True
    # corpus-wide near-dup suppression: route epoch candidates through the
    # chunk-sharded global phash tier (frontier/phash_shard.py) instead of
    # the per-host-shard gate
    global_phash_dedup: bool = False
    num_phash_shards: int = 4
    # external frontier queue: per-host in-memory heap capped at this many
    # items, the rest in parquet spill segments (None = all in memory)
    frontier_spill_threshold: int | None = None
    # gate trap-shaped URLs (urltools.trap_reason: deep / repeated-segment /
    # param-explosion paths) at offer time, before politeness/robots spend
    trap_filter: bool = False
    # pull per-row fetch logs + exact seen sets back to the driver at the
    # end (oracle-parity testing only — expensive, not part of the job)
    collect_parity_outputs: bool = False
    # epochs popping ≤ this many rows run as ONE Ray task over one block
    # (None = auto: 16 with payload bytes, 96 without — the crossover
    # where per-row work outgrows the launch of the chunk tasks)
    small_epoch_max_rows: int | None = None
    # epochs popping ≤ this many rows run as ONE PLAIN RAY TASK PER BLOCK
    # (same blocks, same parallelism, same per-slice heap bound as the
    # Ray Data branch); larger epochs run as one streaming Dataset
    # pipeline. None = auto: 256×CPUs with payload bytes, 2048×CPUs
    # metadata-only. The Ray Data branch, too, runs an epoch of k blocks
    # as k tasks in one wave; DESIGN.md §5 has the measured epoch times
    # per branch. Where the task and Dataset branches cross over is not
    # measured yet.
    task_epoch_max_rows: int | None = None
    # adaptive TIER-CRAWL feedback: per-host priority boost added to every
    # NEW offer (seeds + discovered links) of that host. Computed between
    # runs from payload quality (see ops/crawlq.py crawl_tier_feedback) and
    # passed to the next run/resume; items already checkpointed keep their
    # stored priority (re-prioritizing a live frontier would need a heap
    # rebuild — the feedback loop operates at run boundaries by design).
    # None = no boosts (byte-identical to the un-boosted crawl).
    host_priority_boost: dict[str, int] | None = None
    # max URLs popped per shard per epoch (fetch-capacity contention):
    # with politeness alone every host serves up to its token budget each
    # epoch, so a HOST-level boost cannot change the schedule; under a pop
    # budget the cross-host priority heap decides which hosts get this
    # epoch's capacity — the lever the tier boosts act through.
    epoch_pop_budget: int | None = None
    # lifetime per-host page cap (production "crawl budget"): max fetch
    # slots a host may ever consume. At quota the host's queued frontier
    # items are dropped (quota_dropped) and new offers denied
    # (quota_denied); counters persist in checkpoints so a resumed crawl
    # never re-serves a capped host.
    max_pages_per_host: int | None = None
    # crawl-depth cap: offers deeper than this many hops from a seed are
    # denied at offer time (depth_denied). Deny-and-seen, matching the
    # robots/trap precedent. None = unbounded.
    max_depth: int | None = None
    # conditional fetch (HTTP 304 analog): out_dir of a PREVIOUS crawl
    # generation whose payload supplies the (url_hash -> content etag)
    # manifest. A refetched page whose content tuple is identical is
    # not_modified: token spent, no payload row, no phash entry, no
    # expansion; its pop lands in the not_modified sidecar tree. Manifest
    # rows are routed to each digest's OWNING shard at startup (host
    # partitioning), so no shard holds another's hosts.
    etag_manifest_dir: str | None = None
    # link-graph sink: persist every non-error pop's outgoing edges to
    # links/epoch=N.parquet (src/dst canonical url + sha1; redirects emit
    # the alias->target edge) — the crawled web's edge log, input to
    # inlink analytics and host-graph PageRank. Off by default (edge
    # volume = pops x outdegree).
    link_log: bool = False
    # adaptive politeness: halve a flaky host's effective token rate per
    # consecutive fetch error (cap /64), full rate restored on the next
    # success. Off by default (byte-identical schedules when unset).
    error_backoff: bool = False
    # per-path robots rules: hosts additionally draw REP wildcard/anchor
    # rule sets (Disallow /p/*7$, Allow /private/p/2$ overrides) that the
    # longest-match evaluator honors — the production robots surface. Off
    # by default (byte-identical schedules when unset); both the engine
    # and the sequential oracle share RobotsCache, so parity holds with
    # the feature on.
    rich_robots: bool = False
    # FOCUSED crawl (the reference's topic-keyword crawl loop,
    # pages/Crawler.py topic search + the isabout containment predicate,
    # PreprocessDump.py): outlinks propagate ONLY from pages whose caption
    # contains at least one of these keywords (case-insensitive
    # substring). The page itself is still fetched/stored — the gate
    # shapes frontier EXPANSION, not collection. None = unfocused.
    focus_keywords: tuple[str, ...] | None = None
    # CONTINUOUS-CRAWL seed injection (the reference's unbounded
    # `while True` crawl loop re-seeded while running,
    # pages/Crawler.py:54): epoch -> seed URLs offered at the TOP of
    # that epoch, before its pop, into the same pending buffers as
    # discovered links (min-depth merge, depth 0, discovered_at=epoch).
    # Epoch-0 entries behave like extra seeds. Entries at
    # e >= max_epochs are never delivered (the loop exits first); the
    # loop idles on an empty frontier while a deliverable injection is
    # still scheduled. The sequential oracle accepts the same schedule,
    # so ordering/seen parity holds under injection.
    seed_injections: dict[int, list[str]] | None = None
    # follow mode: keep the loop alive on an empty frontier until
    # max_epochs / graceful stop, polling `follow_seeds_file` (if set)
    # for NEW appended lines each epoch and injecting them that epoch —
    # the production re-seed surface (`raycrawl crawl --follow ...`).
    follow: bool = False
    follow_seeds_file: str | None = None
    # wall-clock sleep per IDLE follow epoch (frontier empty, nothing
    # popped): without it the virtual-clock loop burns through
    # max_epochs in well under a second, exiting before any external
    # writer can append a seed — and with a large max_epochs it
    # busy-polls the watch file. Engine default 0.0 keeps the
    # deterministic tests on the virtual clock; the CLI wires it to
    # --epoch-seconds for real deployments (--follow-idle-seconds to
    # override).
    follow_idle_seconds: float = 0.0

    def __post_init__(self):
        # a watch file is only polled while the loop stays alive
        if self.follow_seeds_file:
            self.follow = True


@dataclass
class CrawlStats:
    epochs: int = 0
    fetched: int = 0
    payload_rows: int = 0
    metrics: list[dict] = field(default_factory=list)
    out_dir: str = ""
    fetch_log: list[dict] = field(default_factory=list)
    seen: dict[int, set[bytes]] = field(default_factory=dict)
    last_pipeline_stats: str = ""  # ds.stats() of the final epoch pipeline
    # one (epoch, popped rows, branch, blocks, pipeline seconds) entry per
    # epoch that popped rows; branch is "single_task", "chunk_tasks" or
    # "dataset"
    epoch_log: list[tuple] = field(default_factory=list)
    # wall seconds per driver-loop phase, summed over epochs (where the
    # fixed per-epoch cost lives — the scaling-efficiency lever)
    phase_seconds: dict[str, float] = field(default_factory=dict)


def _prio(digest: bytes, host: str, boost: dict | None) -> int:
    """Offer priority: the deterministic base priority plus the host's
    tier-crawl boost (0 when no feedback is configured)."""
    p = priority_of(digest)
    return p + boost.get(host, 0) if boost else p


def _seed_tables(cfg: CrawlConfig, seeds: list[str]):
    """Canonicalize the (small, driver-side) seed list and bucket by shard."""
    per_shard: dict[int, list[tuple]] = {}
    for s in seeds:
        cu = canonicalize_url(s)
        d = url_sha1(cu)
        h = host_of(cu)
        sh = shard_of_host(h, cfg.num_shards)
        per_shard.setdefault(sh, []).append(
            (cu, d, h, _prio(d, h, cfg.host_priority_boost), 0)
        )
    return per_shard


def _offer_seeds(cfg: CrawlConfig, actors, seeds: list[str], key,
                 epoch: int) -> None:
    """Offer ``seeds`` at depth 0 to their owning shards' pending buffers
    as discovered at ``epoch``, under the offer memo key ``key``."""
    ray.get([
        actors[sh].offer.remote(key, *map(list, zip(*rows)), epoch)
        for sh, rows in _seed_tables(cfg, seeds).items()
    ])


def control_plane_remote(cls, num_cpus: float):
    """Decorate a control-plane actor class (frontier shard, phash dedup
    shard). ``num_cpus=0`` keeps them off the CPU ledger so fetch/decode
    tasks get every slot — but with no placement hint Ray packs zero-CPU
    actors onto the head node, serializing ALL offer/pop traffic through
    one machine on a real cluster. ``scheduling_strategy="SPREAD"``
    distributes them across nodes (best-effort), so frontier RPC load and
    seen-set memory scale with the cluster instead of the head node. See
    DESIGN.md "head-node isolation"."""
    return ray.remote(num_cpus=num_cpus, scheduling_strategy="SPREAD")(cls)


def _shard_specs(cfg: CrawlConfig, restore_epoch: int | None) -> list[tuple]:
    """One ``open(restore, args, kwargs)`` argument tuple per frontier
    shard: a fresh shard, or shard ``s`` restored from ``restore_epoch``'s
    checkpoint with the run's own config."""
    ckpt = os.path.join(cfg.out_dir, "checkpoints")

    def spill_dir(s):
        if cfg.frontier_spill_threshold is None:
            return None
        return os.path.join(cfg.out_dir, "spill", f"shard={s}")

    kw = {"rich_robots": cfg.rich_robots}
    if restore_epoch is None:
        return [
            (False, (s, cfg.epoch_seconds, cfg.expected_urls,
                     cfg.phash_radius, cfg.burst, cfg.keep_fetch_log,
                     cfg.frontier_spill_threshold, spill_dir(s),
                     cfg.trap_filter, cfg.epoch_pop_budget,
                     cfg.max_pages_per_host, cfg.error_backoff,
                     cfg.max_depth, cfg.link_log), kw)
            for s in range(cfg.num_shards)
        ]
    return [
        (True, (ckpt, restore_epoch, s, cfg.expected_urls, cfg.phash_radius,
                cfg.frontier_spill_threshold, spill_dir(s),
                cfg.epoch_pop_budget, cfg.max_pages_per_host,
                cfg.error_backoff, cfg.max_depth, cfg.link_log), kw)
        for s in range(cfg.num_shards)
    ]


def _dedup_specs(cfg: CrawlConfig, restore_epoch: int | None) -> list[tuple]:
    """The ``open`` argument tuples of the global phash dedup shards."""
    ckpt = os.path.join(cfg.out_dir, "checkpoints")
    n, r = cfg.num_phash_shards, cfg.phash_radius
    if restore_epoch is None:
        return [(False, (d, n, r), {}) for d in range(n)]
    return [(True, (ckpt, restore_epoch, d, n, r), {}) for d in range(n)]


def make_shard_actors(cfg: CrawlConfig, restore_epoch: int | None = None):
    """``cfg.num_shards`` frontier shard actors, fresh or restored from
    ``restore_epoch``'s checkpoint, taken from the session's actor pool."""
    return _open_actors(cfg.shard_num_cpus,
                        [(_PooledShard, _shard_specs(cfg, restore_epoch))])[0]


def _restored_shard(ckpt_dir, epoch, shard_id, expected_urls, phash_radius,
                    spill_threshold=None, spill_dir=None, pop_budget=None,
                    host_quota=None, error_backoff=False, max_depth=None,
                    link_log=False, rich_robots=False) -> FrontierShard:
    """A frontier shard restored from its checkpoint, with the run's
    config applied over the checkpointed one."""
    sh = FrontierShard.restore(ckpt_dir, epoch, shard_id, expected_urls,
                               phash_radius, spill_threshold, spill_dir)
    sh.pop_budget = pop_budget  # config, not state — follows the run
    if host_quota is not None:  # quota follows the run; counts persist
        sh.host_quota = host_quota
    # backoff flag follows the run; the error streaks persist
    sh.error_backoff = error_backoff
    sh.max_depth = max_depth  # config, not state — follows the run
    sh.link_log = link_log
    sh._link_rows = {}
    # rule richness follows the run for hosts not yet consulted;
    # already-cached per-host rules are state and were restored
    sh.robots.rich = rich_robots
    return sh


class _Reopenable:
    """A control-plane actor that outlives one crawl. It starts empty;
    ``open`` gives it one crawl's state, from the class constructor or
    from a checkpoint (read inside the actor process, once, in place), and
    ``close`` drops that state while the actor waits in ``_ActorPool``."""

    def __init__(self):
        pass  # a crawl's state arrives with open()

    def open(self, restore: bool, args: tuple, kwargs: dict) -> None:
        self.__dict__.clear()
        if restore:
            self.__dict__.update(self._restore(*args, **kwargs).__dict__)
        else:
            super().__init__(*args, **kwargs)

    def close(self) -> None:
        self.__dict__.clear()


class _PooledShard(_Reopenable, FrontierShard):
    _restore = staticmethod(_restored_shard)


class _PooledPhashShard(_Reopenable, PhashDedupShard):
    _restore = staticmethod(PhashDedupShard.restore)


class _ActorPool:
    """Idle control-plane actors of the current Ray session, by class.

    Every new actor starts its own Python worker process — about 1.2 s
    before four of them answer on a 4-vCPU host, more than a small crawl's
    epochs take. So ``run_crawl`` takes its shard actors from here, resets
    them in place (``open``), and gives them back when it returns. Only
    zero-CPU actors are kept, so an idle one reserves nothing; actors
    with ``shard_num_cpus > 0`` are killed at close. After
    ``ray.shutdown()`` / ``ray.init()`` the handles name actors that no
    longer exist, so the pool is keyed by the session (job and driver
    node) and dropped when it changes. The lock makes ``take`` hand each
    idle actor to one crawl only."""

    def __init__(self):
        self._lock = threading.Lock()
        self._session = None
        self._idle: dict[type, list] = {}

    def _current(self) -> dict[type, list]:
        # caller holds the lock; with Ray down, every old handle is stale
        session = None
        if ray.is_initialized():
            ctx = ray.get_runtime_context()
            session = (ctx.get_job_id(), ctx.get_node_id())
        if session != self._session:
            self._session, self._idle = session, {}
        return self._idle

    def take(self, cls, num_cpus: float, n: int) -> list:
        got = []
        if num_cpus == 0:
            with self._lock:
                idle = self._current().setdefault(cls, [])
                while idle and len(got) < n:
                    got.append(idle.pop())
        new = control_plane_remote(cls, num_cpus)
        return got + [new.remote() for _ in range(n - len(got))]

    def give(self, num_cpus: float, groups: list[tuple[type, list]]) -> None:
        """Return a finished crawl's actors: pooled with their state
        dropped, or killed if they reserve CPU."""
        if num_cpus:
            _kill(h for _, hs in groups for h in hs)
            return
        for _, hs in groups:
            for h in hs:
                h.close.remote()
        with self._lock:
            idle = self._current()
            for cls, hs in groups:
                idle.setdefault(cls, []).extend(hs)

    def idle(self) -> dict[type, list]:
        """A copy of the idle handles by class (current session)."""
        with self._lock:
            return {c: list(hs) for c, hs in self._current().items()}


_POOL = _ActorPool()


def _kill(handles) -> None:
    for h in handles:
        ray.kill(h)


def _open_actors(num_cpus: float, groups: list[tuple[type, list[tuple]]]):
    """Take one pooled actor per ``open`` spec of every (class, specs)
    group and open them all with one ``ray.get``. An actor that died while
    idle (its ``open`` raises ``RayActorError``) is replaced by a new one.
    On any other failure every actor taken is killed before the error
    propagates. Returns the handle lists, one per group."""
    handles = [_POOL.take(cls, num_cpus, len(specs)) for cls, specs in groups]
    try:
        refs = [[h.open.remote(*spec) for h, spec in zip(hs, specs)]
                for hs, (_, specs) in zip(handles, groups)]
        try:
            ray.get([r for rs in refs for r in rs])
        except ray.exceptions.RayActorError:
            for hs, rs, (cls, specs) in zip(handles, refs, groups):
                for i, r in enumerate(rs):
                    try:
                        ray.get(r)
                    except ray.exceptions.RayActorError:
                        hs[i] = control_plane_remote(cls, num_cpus).remote()
                        ray.get(hs[i].open.remote(*specs[i]))
    except BaseException:
        _kill(h for hs in handles for h in hs)
        raise
    return handles


def latest_checkpoint_epoch(out_dir: str) -> int | None:
    ckpt = os.path.join(out_dir, "checkpoints")
    if not os.path.isdir(ckpt):
        return None
    epochs = [
        int(d.split("=")[1])
        for d in os.listdir(ckpt)
        if d.startswith("epoch=") and os.path.exists(os.path.join(ckpt, d, "COMPLETE"))
    ]
    return max(epochs) if epochs else None


def run_crawl(
    cfg: CrawlConfig,
    seeds: list[str],
    resume: bool = False,
    should_stop=None,
) -> CrawlStats:
    """Run the crawl to frontier exhaustion (or ``max_epochs``).

    ``resume=True`` restarts from the latest complete checkpoint: shard
    state is restored inside the actors, payload directories for epochs
    after the checkpoint are discarded (they may be partial), finished
    epoch directories are skipped — the resumable-output contract.

    ``should_stop`` (optional callable → bool) is checked between epochs:
    the graceful-shutdown hook (reference analog: the SIGTERM handler that
    sets ``kill_now`` and flushes buffers, ``PreprocessDump.py:367-373``).
    On stop the driver checkpoints all shards and returns; a later
    ``resume=True`` run continues exactly where it left off.

    The shard and dedup actors come from the session's ``_ActorPool`` and
    go back to it when the crawl returns. If the crawl raises they are
    killed instead.
    """
    start_epoch = _prepare_out_dir(cfg, resume)
    restore_epoch = start_epoch - 1 if start_epoch else None
    groups = [(_PooledShard, _shard_specs(cfg, restore_epoch))]
    if cfg.global_phash_dedup:
        groups.append((_PooledPhashShard, _dedup_specs(cfg, restore_epoch)))
    handles = _open_actors(cfg.shard_num_cpus, groups)
    try:
        stats = _crawl(cfg, seeds, start_epoch, should_stop, handles[0],
                       handles[1] if cfg.global_phash_dedup else None)
    except BaseException:
        # a half-run actor is never reused
        _kill(h for hs in handles for h in hs)
        raise
    _POOL.give(cfg.shard_num_cpus,
               [(cls, hs) for (cls, _), hs in zip(groups, handles)])
    return stats


def _prepare_out_dir(cfg: CrawlConfig, resume: bool) -> int:
    """Ready ``cfg.out_dir`` for a crawl and return its first epoch: 0 for
    a fresh crawl (the directory is wiped), else the epoch after the
    latest complete checkpoint, with every later payload and sidecar epoch
    deleted (they may be partial)."""
    payload_dir = os.path.join(cfg.out_dir, "payload")
    last = latest_checkpoint_epoch(cfg.out_dir) if resume else None
    if last is None:
        if os.path.isdir(cfg.out_dir):
            shutil.rmtree(cfg.out_dir)
        os.makedirs(payload_dir, exist_ok=True)
        return 0
    start_epoch = last + 1
    if os.path.isdir(payload_dir):
        for d in os.listdir(payload_dir):
            if d.startswith("epoch=") and int(d.split("=")[1]) >= start_epoch:
                shutil.rmtree(os.path.join(payload_dir, d))
    for side in (*SIDECARS, "links"):
        sd = os.path.join(cfg.out_dir, side)
        if os.path.isdir(sd):
            for f in os.listdir(sd):
                if f.startswith("epoch=") and int(f.split("=")[1].split(".")[0]) >= start_epoch:
                    os.remove(os.path.join(sd, f))
    return start_epoch


def _crawl(cfg: CrawlConfig, seeds: list[str], start_epoch: int,
           should_stop, actors: list, dedup_actors: list | None) -> CrawlStats:
    """The crawl itself on opened actors: seeding (or the resumed state),
    the epoch loop, the closing flush and checkpoint, and the stats."""
    resume = start_epoch > 0
    payload_dir = os.path.join(cfg.out_dir, "payload")
    ckpt_dir = os.path.join(cfg.out_dir, "checkpoints")
    etag_enabled = cfg.etag_manifest_dir is not None
    if etag_enabled:
        # generation breadcrumb: a LATER generation crawling against THIS
        # out_dir must union the whole manifest chain (a page 304'd here
        # has no payload row here — its etag lives in the ancestor that
        # stored it), so record which generation this run crawled against
        gj = os.path.join(cfg.out_dir, "generation.json")
        if not os.path.exists(gj):
            with open(gj, "w") as f:
                json.dump(
                    {"etag_manifest_dir":
                     os.path.abspath(cfg.etag_manifest_dir)}, f,
                )
        _load_etag_manifest(cfg.etag_manifest_dir, actors, cfg.num_shards)
    if not resume:
        _offer_seeds(cfg, actors, seeds, -1, 0)

    stats = CrawlStats(out_dir=cfg.out_dir)
    keep_bytes = cfg.keep_bytes_in_payload
    for side in SIDECARS:
        os.makedirs(os.path.join(cfg.out_dir, side), exist_ok=True)
    links_dir = os.path.join(cfg.out_dir, "links")
    if cfg.link_log:
        os.makedirs(links_dir, exist_ok=True)  # crawled-web edge log
    import time as _time

    phases = stats.phase_seconds

    def _mark(key: str, t0: float) -> float:
        t1 = _time.perf_counter()
        phases[key] = phases.get(key, 0.0) + (t1 - t0)
        return t1

    epoch = start_epoch
    # bytes of follow_seeds_file consumed so far — persisted driver-side
    # so a resumed follow crawl doesn't re-inject every previously
    # consumed line (re-injects would be seen-denied but would inflate
    # the offered metric vs an uninterrupted run). Written AFTER the
    # lines are offered: a crash in between re-delivers at-least-once,
    # which the seen set absorbs.
    follow_off = 0
    follow_off_path = os.path.join(cfg.out_dir, "follow_offset.json")
    if resume and cfg.follow_seeds_file and os.path.exists(follow_off_path):
        with open(follow_off_path) as f:
            follow_off = int(json.load(f)["offset"])
    persisted_off = follow_off
    while epoch < cfg.max_epochs:
        if should_stop is not None and should_stop():
            break  # graceful stop: fall through to the final checkpoint
        # continuous-crawl injection: scheduled seeds for THIS epoch (and,
        # in follow mode, new complete lines appended to the watch file)
        # are offered into the shards' pending buffers before the pop, so
        # they merge with last epoch's discovered links (min-depth,
        # sorted-URL — the same data-property merge; oracle parity holds
        # under an identical schedule). Re-offered URLs dedup via seen.
        inj_list = list((cfg.seed_injections or {}).get(epoch, []))
        if cfg.follow_seeds_file and os.path.exists(cfg.follow_seeds_file):
            with open(cfg.follow_seeds_file) as f:
                f.seek(follow_off)
                chunk = f.read()
            nl = chunk.rfind("\n")  # consume complete lines only
            if nl >= 0:
                follow_off += nl + 1
                inj_list += [
                    ln.strip() for ln in chunk[:nl].split("\n") if ln.strip()
                ]
        if inj_list:
            # memo key leads with the epoch (eviction compares k[0] to the
            # replay-horizon floor); "inject" disambiguates from the
            # (epoch, src_shard) keys of peer offers
            _offer_seeds(cfg, actors, inj_list, (epoch, "inject"), epoch)
        if follow_off != persisted_off:
            tmpf = follow_off_path + ".tmp"
            with open(tmpf, "w") as f:
                json.dump({"offset": follow_off}, f)
            os.replace(tmpf, follow_off_path)
            persisted_off = follow_off
        t = _time.perf_counter()
        counts = ray.get([a.pop.remote(epoch) for a in actors])
        t = _mark("pop", t)
        if sum(counts) == 0:
            if sum(ray.get([a.frontier_size.remote() for a in actors])) == 0:
                # stay alive for a future deliverable injection (follow
                # mode waits for the watch file until max_epochs / stop)
                if not (cfg.follow or any(
                    epoch < e < cfg.max_epochs
                    for e in (cfg.seed_injections or {})
                )):
                    break
                if cfg.follow and cfg.follow_idle_seconds > 0:
                    # real-clock pacing between watch-file polls
                    _time.sleep(cfg.follow_idle_seconds)
            epoch += 1  # throttled / idle epoch; refill and retry
            continue

        # ONE linear, shuffle-free pipeline per epoch. The epoch's popped
        # rows, all shards' pop tables end to end, are cut into equal
        # blocks (±1 row) from the pop counts already in hand (no extra RPC
        # round), so fetch parallelism is independent of shard count and
        # of the host skew between shards: a block may span shards. ONE
        # block per CPU slot (measured: 2 blocks/cpu made crawl_media
        # passes slower, and a fixed small cap quantizes the epoch into
        # waves whose last wave runs nearly empty). The cap bounds
        # per-task heap: with payload bytes in flight a block stays ≤ ~256
        # rows (≈ 35 MB at 130 KB/row); metadata-only runs allow larger
        # blocks. Decode tasks stream (digest, phash, outlinks) meta to
        # the shard actors (gate_submit, tiny + idempotent); payload bytes
        # flow straight to parquet without ever crossing a shuffle.
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        total = sum(counts)
        cut = _cut_epoch(counts, ncpu * cfg.blocks_per_cpu,
                         256 if keep_bytes else 4096)
        pieces = [[actors[s].take_popped_rows.remote(lo, hi)
                   for s, lo, hi in blk] for blk in cut]
        t = _mark("chunks", t)
        small_max = cfg.small_epoch_max_rows
        if small_max is None:
            small_max = 16 if keep_bytes else 96
        task_max = cfg.task_epoch_max_rows
        if task_max is None:
            task_max = (256 if keep_bytes else 2048) * ncpu
        out_uri = os.path.join(payload_dir, f"epoch={epoch}")
        t_launch = t
        if total <= task_max:
            # one plain Ray task per block (~ms of launch each), a tail
            # epoch as ONE block. Every task ray.gets its gate_submits
            # before returning, so gate_finalize still sees every offer;
            # a per-block part base keeps the payload writers apart.
            if total <= small_max:
                branch, blocks = "single_task", [sum(pieces, [])]
            else:
                branch, blocks = "chunk_tasks", pieces
            ray.get([
                _small_epoch_task.remote(
                    cfg.web, actors, epoch, keep_bytes, cfg.batch_size,
                    out_uri, *blk, part_base=j * 100_000,
                    host_boost=cfg.host_priority_boost,
                    focus_keywords=cfg.focus_keywords,
                    etag_enabled=etag_enabled,
                )
                for j, blk in enumerate(blocks)
            ])
            t = _mark("pipeline", t)
            stats.last_pipeline_stats = (
                f"(epoch {epoch}: {total} rows in {len(blocks)} plain "
                "task(s), no Ray Data pipeline)"
            )
        else:
            # one ref per block: a block that spans shards is joined by a
            # zero-CPU task, store to store, never on the driver
            blocks = [p[0] if len(p) == 1 else _concat_tables.remote(*p)
                      for p in pieces]
            branch, ds = "dataset", ray.data.from_arrow_refs(blocks)
            # One task per block, all launched at once. batch_size=None
            # stops Ray Data from bundling a block smaller than the batch
            # into its neighbour; the UDF slices to ≤ batch_size rows
            # itself. Until a task finishes, Ray Data sizes each task's
            # pending output as target_max_block_size (128 MiB default)
            # per generator-buffer slot, which in a small object store
            # admits one task at a time. The UDF's output blocks are
            # single slices, whose raw pixels bound their bytes, so that
            # is the size given — on this dataset's own context copy, so
            # the global DataContext the query ops share is untouched.
            block_rows = -(-total // len(cut))  # the largest block's rows
            row_bytes = 1024 + (3 * cfg.web.max_dim ** 2 if keep_bytes else 0)
            ds.context.target_max_block_size = (
                min(block_rows, cfg.batch_size) * row_bytes)
            pipeline = ds.map_batches(
                _make_fetch_decode(
                    cfg.web, cfg.batch_size,
                    _make_decode_submit(actors, epoch, keep_bytes,
                                        cfg.host_priority_boost,
                                        cfg.focus_keywords, etag_enabled),
                ),
                batch_format="pyarrow",
                batch_size=None,
            )
            # payload sink: Lance when present, parquet fallback
            lancelike.write_ray_dataset(pipeline, out_uri)
            t = _mark("pipeline", t)
            stats.last_pipeline_stats = pipeline.stats()
        stats.epoch_log.append(
            (epoch, total, branch, len(blocks), t - t_launch)
        )
        t = _mark("stats", t)

        # ordered near-dup gate + frontier merge (meta only; candidates,
        # verdicts and offers travel between actors as object refs, never
        # materialized on the driver)
        finals = _gate(actors, dedup_actors, epoch)
        t = _mark("gate", t)
        # dispatch next-epoch offers FIRST, then write this epoch's
        # sidecars while the shard actors chew on the offers — the
        # driver-local parquet writes and the actor-side merges are
        # independent, so the overlap hides the smaller of the two
        # (~50 ms/epoch of fixed driver-loop cost; results unchanged —
        # ordering is a data property of the frontier, not of this join)
        offer_refs = []
        for src, (_, _, _, _, _, offers) in enumerate(finals):
            for dst, packed_ref in offers.items():
                offer_refs.append(
                    actors[dst].offer_packed.remote((epoch, src), packed_ref,
                                                    epoch + 1)
                )
        # sidecars carry (url_hash, host): host attribution is what lets
        # checkpoint MERGE rebuild exact per-host quota spend (the
        # digest-union of payload and sidecar trees IS the popped set —
        # merge.py)
        for i, side in enumerate(SIDECARS, start=1):
            rows = [dh for fin in finals for dh in fin[i]]
            pq.write_table(
                pa.table({
                    "url_hash": pa.array([d for d, _ in rows], pa.binary()),
                    "host": pa.array([h for _, h in rows], pa.string()),
                }),
                os.path.join(cfg.out_dir, side, f"epoch={epoch}.parquet"),
            )
        if cfg.link_log:
            edges = pa.concat_tables(
                ray.get([a.drain_link_log.remote(epoch) for a in actors])
            )
            pq.write_table(
                edges, os.path.join(links_dir, f"epoch={epoch}.parquet")
            )
        if offer_refs:
            ray.get(offer_refs)
        stats.fetched += sum(counts)
        t = _mark("offers", t)

        if (epoch + 1) % cfg.saving_period == 0:
            _checkpoint_all(actors, ckpt_dir, epoch, dedup_actors, phases)
            t = _mark("checkpoint", t)
        epoch += 1

    # EVERY exit path (max_epochs cut, graceful stop, frontier-exhausted)
    # flushes pending offers before the closing checkpoint: the oracle
    # marks seen at enqueue time even for outlinks discovered in the final
    # executed epoch, but the engine's offers are gated at the NEXT pop —
    # and after a truncated crawl there is no next pop. The flush runs the
    # same seen/robots/trap/quota gate as a pop-time merge, so the seen
    # set, denial log entries and metrics match the oracle exactly.
    # (Frontier-exhausted exits have an empty pending buffer — no-op.)
    ray.get([a.flush_pending.remote() for a in actors])

    # final checkpoint labels the LAST EXECUTED epoch. If nothing ran this
    # session (stop fired immediately / frontier already empty), label
    # start_epoch - 1 so stop/resume cycles keep contiguous epoch numbering
    # (_checkpoint_all is a no-op when that is < 0).
    _checkpoint_all(actors, ckpt_dir, epoch - 1 if epoch > start_epoch
                    else start_epoch - 1, dedup_actors, phases)
    stats.epochs = epoch
    stats.metrics = ray.get([a.get_metrics.remote() for a in actors])
    stats.payload_rows = sum(m["fetched"] for m in stats.metrics)
    if cfg.collect_parity_outputs:
        # in-memory logs are truncated at every checkpoint (bounded actor
        # state); the final _checkpoint_all above flushed the tail, so the
        # checkpoint tree holds the COMPLETE log — page it from disk
        # instead of the actors
        stats.fetch_log = collect_fetch_log(out_dir=cfg.out_dir)
        stats.seen = {
            s: set(ray.get(a.get_seen.remote())) for s, a in enumerate(actors)
        }
    return stats


PAYLOAD_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.large_binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        ("url", pa.string()),
        ("url_hash", pa.binary()),
        ("shard", pa.int32()),
        ("epoch", pa.int64()),
    ]
)


def _make_decode_submit(actors, epoch: int, keep_bytes: bool,
                        host_boost: dict | None = None,
                        focus_keywords: tuple[str, ...] | None = None,
                        etag_enabled: bool = False):
    """Decode + phash each fetched row, canonicalize its outlinks, stream
    the (digest, phash, meta, links) tuples to the owning shard actor
    (gate_submit — idempotent by digest), and emit the payload row. The
    near-dup gate itself runs AFTER the pipeline (gate_finalize) in
    deterministic frontier order; payload rows of suppressed pages are
    filtered at read time via the suppressed sidecar."""

    focus = (tuple(k.lower() for k in focus_keywords)
             if focus_keywords else None)
    from .core.codec import content_etag

    def decode_submit(tbl: pa.Table) -> pa.Table:
        empty = PAYLOAD_SCHEMA.empty_table()
        if not keep_bytes:
            empty = empty.drop_columns(["bytes"])
        if tbl.num_rows == 0:
            return empty
        tbl = decode_batch(tbl)

        per_shard: dict[int, tuple[list, list, list, list]] = {}
        memo: dict[str, tuple] = {}  # raw absolute link → canon tuple
        for (url, digest, host, shard, pri, depth, disc, ph, links, ok, cap,
             rd_url, w_, h_, fmt_, sm) in zip(
            tbl["url"].to_pylist(),
            tbl["url_hash"].to_pylist(),
            tbl["host"].to_pylist(),
            tbl["shard"].to_pylist(),
            tbl["priority"].to_pylist(),
            tbl["depth"].to_pylist(),
            tbl["discovered_at"].to_pylist(),
            tbl["phash"].to_pylist(),
            tbl["outlinks"].to_pylist(),
            tbl["fetch_ok"].to_pylist(),
            tbl["caption"].to_pylist(),
            tbl["redirect_to"].to_pylist(),
            tbl["w"].to_pylist(),
            tbl["h"].to_pylist(),
            tbl["fmt"].to_pylist(),
            tbl["sitemap"].to_pylist(),
        ):
            canon: dict[str, tuple] = {}
            # focused crawl: an off-topic page contributes no expansion
            # (cheap substring gate BEFORE the per-link canonicalize work);
            # sitemaps are seed manifests, not topical pages — exempt
            if focus is not None and ok and not sm:
                lc = (cap or "").lower()
                if not any(k in lc for k in focus):
                    ok_links = False
                else:
                    ok_links = True
            else:
                ok_links = ok
            if ok_links:
                for raw in links or ():
                    # batch-level memo: absolute links are base-independent
                    # and popular targets repeat across a batch's pages —
                    # one canonicalize+sha1 per distinct raw link per batch
                    hit = memo.get(raw)
                    if hit is None:
                        cu, h2 = canonical_and_host(raw, base=url)
                        d = url_sha1(cu)
                        hit = (cu, d, h2, _prio(d, h2, host_boost))
                        if is_base_independent(raw):
                            memo[raw] = hit
                    if hit[0] not in canon:
                        canon[hit[0]] = hit
            # 301 alias: canonicalize the target once here; the gate offers
            # it at the SAME depth (redirects do not deepen the crawl)
            rd = None
            if ok and rd_url is not None:
                rcu, rh = canonical_and_host(rd_url, base=url)
                rdg = url_sha1(rcu)
                rd = (rcu, rdg, rh, _prio(rdg, rh, host_boost))
            etag = None
            if etag_enabled and ok and rd is None and not sm:
                etag = content_etag(w_, h_, fmt_, ph, cap)
            b = per_shard.setdefault(shard, ([], [], [], []))
            b[0].append(digest)
            b[1].append(ph if ok else None)
            b[2].append((url, host, pri, depth, disc, rd, etag, bool(sm)))
            b[3].append(list(canon.values()))
        ray.get(
            [
                actors[s].gate_submit.remote(epoch, dg, phs, meta, lnk)
                for s, (dg, phs, meta, lnk) in per_shard.items()
            ]
        )

        # dead-letter, 301-alias AND sitemap rows carry no payload
        tbl = tbl.filter(
            pc.and_(
                pc.and_(tbl["fetch_ok"], pc.is_null(tbl["redirect_to"])),
                pc.invert(tbl["sitemap"]),
            )
        )
        out = pa.table(
            {
                "image_id": tbl["image_id"],
                "bytes": tbl["bytes"],
                "w": tbl["w"],
                "h": tbl["h"],
                "fmt": tbl["fmt"],
                "caption": tbl["caption"],
                "phash": tbl["phash"],
                "url": tbl["url"],
                "url_hash": tbl["url_hash"],
                "shard": tbl["shard"],
                "epoch": pa.array([epoch] * tbl.num_rows, pa.int64()),
            },
            schema=PAYLOAD_SCHEMA,
        )
        if not keep_bytes:
            out = out.drop_columns(["bytes"])
        return out

    return decode_submit


def _cut_epoch(counts: list[int], slots: int,
               block_cap: int) -> list[list[tuple[int, int, int]]]:
    """An epoch's blocks from its per-shard pop counts. The popped rows,
    shard 0's pop table then shard 1's and so on, are cut into
    k = ceil(total / target) blocks of near-equal size (±1 row), where
    target = ceil(total / slots) rows, at least 4 and at most
    ``block_cap``: one block per slot, fewer for a tiny epoch, more only
    when the cap binds. Each block is a list of (shard, lo, hi) ranges
    of the shards' pop tables; a block may span shards, and an empty
    shard is in no block."""
    total = sum(counts)
    target = max(4, min(block_cap, -(-total // slots)))
    k = -(-total // target)
    cuts = [total * j // k for j in range(k + 1)]
    starts = [0, *accumulate(counts)]
    return [
        [(s, max(lo, a) - a, min(hi, b) - a)
         for s, (a, b) in enumerate(zip(starts, starts[1:]))
         if max(lo, a) < min(hi, b)]
        for lo, hi in zip(cuts, cuts[1:])
    ]


@ray.remote(num_cpus=0)
def _concat_tables(*tables: pa.Table) -> pa.Table:
    return pa.concat_tables(tables)


def _slices(tbl: pa.Table, max_rows: int) -> list[pa.Table]:
    """``tbl`` cut into ceil(rows / max_rows) slices of near-equal size,
    none over ``max_rows``: a 17-row block under a 16-row cap runs as 9 + 8
    rows, not as 16 rows plus a 1-row fetch/decode/write round."""
    n = tbl.num_rows
    k = -(-n // max_rows)
    cuts = [n * j // k for j in range(k + 1)] if k else []
    return [tbl.slice(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])]


def _make_fetch_decode(web_cfg, max_rows: int, decode):
    """Fetch → decode/gate-submit over one block, one ≤ ``max_rows``-row
    slice per call, yielding each slice's payload rows: at no point does
    more than one slice's fetched bytes sit in the heap."""

    def fetch_decode(tbl: pa.Table):
        for sl in _slices(tbl, max_rows):
            yield decode(fetch_batch(sl, web_cfg=web_cfg))

    return fetch_decode


@ray.remote(num_cpus=1)
def _small_epoch_task(web_cfg, actors, epoch, keep_bytes, batch_size,
                      out_uri, *tables, part_base: int = 0,
                      host_boost: dict | None = None,
                      focus_keywords: tuple[str, ...] | None = None,
                      etag_enabled: bool = False):
    """One block of an epoch as one plain Ray task: fetch →
    decode/gate-submit → payload write, with no Ray Data executor. The
    crawler runs a tail epoch as one such task and a mid-size epoch as one
    per block. Semantics match the Ray Data branch: ``decode_submit``
    ray.gets its gate_submit calls, so the shard actors have every offer
    before the driver's gate_finalize. The block is processed AND WRITTEN
    in ≤ ``batch_size``-row slices, ceil(rows / batch_size) payload parts
    from ``part_base`` on."""
    tbl = pa.concat_tables([t for t in tables if t.num_rows])
    decode = _make_decode_submit(actors, epoch, keep_bytes, host_boost,
                                 focus_keywords, etag_enabled)
    written = 0
    for part, out in enumerate(
            _make_fetch_decode(web_cfg, batch_size, decode)(tbl)):
        # the Lance backend would need concurrent-append handling for
        # several tasks per epoch — noted env-gated in io/lancelike.py
        lancelike.write_table_flat(out, out_uri, part=part_base + part)
        written += out.num_rows
    return written


def _gate(actors, dedup_actors, epoch: int) -> list[tuple]:
    """Every host shard's ``gate_finalize`` result for ``epoch``. Without
    the global near-dup tier each shard judges against its own phash
    index. With it (frontier/phash_shard.py) the host shards route their
    candidates to the dedup shards, each dedup shard judges what it got,
    then commits its own unflagged candidates and returns one flagged
    list per host shard, so host shard s takes as ``suppressed`` its own
    list from every dedup shard and each flagged digest travels once.
    Every call is submitted up front on the refs of the one before, so
    the driver holds only the O(shards²) refs between them and waits
    once."""
    sup = [()] * len(actors)
    done = []
    if dedup_actors is not None:
        n = len(dedup_actors)
        routed = [a.collect_candidates.options(num_returns=n).remote(epoch, n)
                  for a in actors]
        if n == 1:
            routed = [[r] for r in routed]
        judged = [
            d.judge.remote(epoch, *(r[i] for r in routed))
            for i, d in enumerate(dedup_actors)
        ]
        done, *sup = zip(*(
            d.commit.options(num_returns=1 + len(actors)).remote(
                epoch, *judged)
            for d in dedup_actors
        ))
    # the commits' counts ride along so a failed commit raises here
    return ray.get([
        a.gate_finalize.remote(epoch, len(actors), *s)
        for a, s in zip(actors, sup)
    ] + list(done))[:len(actors)]


def _checkpoint_all(actors, ckpt_dir: str, epoch: int, dedup_actors=None,
                    phases: dict | None = None) -> None:
    if epoch < 0:
        return
    ray.get([a.checkpoint.remote(ckpt_dir, epoch) for a in actors])
    if dedup_actors is not None:
        ray.get([d.checkpoint.remote(ckpt_dir, epoch) for d in dedup_actors])
    d = os.path.join(ckpt_dir, f"epoch={epoch}")
    os.makedirs(d, exist_ok=True)
    if phases is not None:
        # run-level lineage: cumulative driver-loop phase seconds alongside
        # the per-shard manifests
        with open(os.path.join(d, "driver_manifest.json"), "w") as f:
            json.dump(
                {"epoch": epoch,
                 "phase_seconds": {k: round(v, 3)
                                   for k, v in phases.items()}},
                f,
            )
    with open(os.path.join(d, "COMPLETE"), "w") as f:
        json.dump({"epoch": epoch, "shards": len(actors)}, f)


# Above this many total suppressed digests, read_payload switches from one
# global broadcast set to per-epoch filtering: a suppressed digest in epoch
# K's sidecar can only refer to payload rows written in epoch K (the gate
# runs per epoch over that epoch's submissions), so each epoch directory is
# read as its own Dataset carrying only ITS sidecar — the broadcast is then
# bounded by per-epoch suppression (≈ the politeness budget), never the
# whole crawl's history. Measured crossover: the union of per-epoch reads
# costs ~1 extra read task per epoch, worth paying once the global set
# stops being "tiny" (the 10^10-URL regime).
SUPPRESSED_BROADCAST_MAX = 1_000_000


def _suppression_filter(sup_list: list[bytes], drop_hash: bool):
    """Vectorized anti-filter: keep rows whose url_hash is NOT suppressed."""
    import pyarrow.compute as pc

    ref = ray.put(pa.array(sup_list, pa.binary()))

    def drop_suppressed(t: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(t["url_hash"], value_set=ray.get(ref)))
        t = t.filter(mask)
        return t.drop_columns(["url_hash"]) if drop_hash else t

    return drop_suppressed


def read_payload(out_dir: str, columns: list[str] | None = None):
    """The crawl's output payload as a Dataset (all epochs), with near-dup
    suppressed rows filtered out via the suppressed sidecars — a vectorized
    ``pc.is_in`` anti-filter per batch. Small suppression sets are broadcast
    once globally; past ``SUPPRESSED_BROADCAST_MAX`` digests the filter runs
    per epoch directory (each epoch's sidecar only names that epoch's rows).
    ``columns`` prunes at the read (url_hash is fetched internally for the
    suppression filter and dropped again if not requested)."""
    import pyarrow.parquet as _pq

    want = columns
    if columns is not None and "url_hash" not in columns:
        columns = list(columns) + ["url_hash"]
    payload_dir = os.path.join(out_dir, "payload")
    # both non-payload verdict trees filter at read: near-dup-suppressed
    # rows AND 304-not-modified rows (the previous generation's row is the
    # authoritative one for an unmodified page)
    per_epoch: dict[int, list[bytes]] = {}
    for side in ("suppressed", "not_modified"):
        side_dir = os.path.join(out_dir, side)
        if not os.path.isdir(side_dir):
            continue
        for f in sorted(os.listdir(side_dir)):
            if f.endswith(".parquet"):
                ep = int(f.split("=")[1].split(".")[0])
                col = _pq.read_table(os.path.join(side_dir, f))["url_hash"]
                if len(col):
                    per_epoch.setdefault(ep, []).extend(col.to_pylist())
    total = sum(len(v) for v in per_epoch.values())
    drop_hash = want is not None and "url_hash" not in want
    if total == 0:
        ds = lancelike.read_ray_dataset(payload_dir, columns)
        if drop_hash:
            ds = ds.drop_columns(["url_hash"])
        return ds
    if total <= SUPPRESSED_BROADCAST_MAX:
        ds = lancelike.read_ray_dataset(payload_dir, columns)
        fn = _suppression_filter([d for v in per_epoch.values() for d in v],
                                 drop_hash)
        return ds.map_batches(fn, batch_format="pyarrow")
    # at-scale path: one Dataset per epoch dir, each with only its own
    # (bounded) sidecar broadcast; epochs without suppression skip the filter
    parts = []
    for d in sorted(os.listdir(payload_dir),
                    key=lambda x: int(x.split("=")[1])):
        ep = int(d.split("=")[1])
        ds = lancelike.read_ray_dataset(os.path.join(payload_dir, d), columns)
        if ep in per_epoch:
            ds = ds.map_batches(
                _suppression_filter(per_epoch[ep], drop_hash),
                batch_format="pyarrow",
            )
        elif drop_hash:
            ds = ds.drop_columns(["url_hash"])
        parts.append(ds)
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


def _log_sorted(logs: list[dict]) -> list[dict]:
    logs.sort(key=lambda r: (r["epoch"], -r["priority"], r["depth"],
                             r["discovered_at"], r["url_hash"]))
    return logs


def collect_fetch_log(actors_or_stats=None, out_dir: str | None = None) -> list[dict]:
    """Merge per-shard fetch logs into oracle log order — either from live
    shard actors, or offline from the checkpoint tree (the per-shard
    ``fetch_log_increment.parquet`` files, non-overlapping by construction:
    each checkpoint persists only rows since the previous one)."""
    if out_dir is not None:
        last = latest_checkpoint_epoch(out_dir)
        if last is None:
            return []
        ckpt = os.path.join(out_dir, "checkpoints")
        logs: list[dict] = []
        for ed in sorted(
            (x for x in os.listdir(ckpt) if x.startswith("epoch=")),
            key=lambda x: int(x.split("=")[1]),
        ):
            if int(ed.split("=")[1]) > last:
                continue
            for sd in sorted(os.listdir(os.path.join(ckpt, ed))):
                lp = os.path.join(ckpt, ed, sd, "fetch_log_increment.parquet")
                if sd.startswith("shard=") and os.path.exists(lp):
                    logs.extend(pq.read_table(lp).to_pylist())
        return _log_sorted(logs)
    logs = []
    for a in actors_or_stats:
        logs.extend(ray.get(a.get_log.remote()))
    return _log_sorted(logs)


def inspect_run(out_dir: str) -> dict:
    """Operational summary of a crawl out_dir — manifests + parquet
    FOOTERS only (no Ray session, no data read): latest checkpoint epoch,
    summed shard metrics, frontier/pending backlog sizes, seen counts,
    per-epoch payload row counts and sidecar totals, quota spend, and
    lineage (merged_from / resharded_from chains). The `raycrawl inspect`
    CLI surface; at 10^10 scale every number here is already aggregated
    (manifest scalars) or a row count from a parquet footer."""
    import glob as _glob

    epoch = latest_checkpoint_epoch(out_dir)
    if epoch is None:
        return {"out_dir": out_dir, "error": "no checkpoints"}
    base = os.path.join(out_dir, "checkpoints", f"epoch={epoch}")
    shards = sorted(
        int(x.split("=")[1]) for x in os.listdir(base)
        if x.startswith("shard=")
    )
    metrics: dict[str, int] = {}
    frontier_rows = pending_rows = seen_count = 0
    host_popped: dict[str, int] = {}
    for sid in shards:
        d = os.path.join(base, f"shard={sid}")
        with open(os.path.join(d, "manifest.json")) as f:
            man = json.load(f)
        for k, v in man["metrics"].items():
            if isinstance(v, (int, float)):
                metrics[k] = metrics.get(k, 0) + v
        seen_count += man.get("seen_count", man["metrics"].get("seen_count", 0))
        for h, n in man.get("host_popped", {}).items():
            host_popped[h] = host_popped.get(h, 0) + n
        frontier_rows += pq.read_metadata(
            os.path.join(d, "frontier.parquet")).num_rows
        pending_rows += pq.read_metadata(
            os.path.join(d, "pending.parquet")).num_rows
    payload_by_epoch: dict[int, int] = {}
    for f in _glob.glob(os.path.join(out_dir, "payload", "epoch=*",
                                     "*.parquet")):
        ep = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        payload_by_epoch[ep] = (
            payload_by_epoch.get(ep, 0) + pq.read_metadata(f).num_rows
        )
    sidecars = {}
    for side in (*SIDECARS, "links"):
        n = 0
        for f in _glob.glob(os.path.join(out_dir, side, "epoch=*.parquet")):
            n += pq.read_metadata(f).num_rows
        sidecars[side] = n
    lineage = {}
    dm = os.path.join(base, "driver_manifest.json")
    if os.path.exists(dm):
        with open(dm) as f:
            drv = json.load(f)
        lineage = {
            k: drv[k]
            for k in ("merged_from", "resharded_from", "host_popped_merge")
            if k in drv
        }
    return {
        "out_dir": out_dir,
        "latest_checkpoint_epoch": int(epoch),
        "num_shards": len(shards),
        "metrics": metrics,
        "seen_count": int(seen_count),
        "frontier_backlog": int(frontier_rows),
        "pending_offers": int(pending_rows),
        # raw footer rows include near-dup-suppressed AND 304-not-modified
        # rows (both filtered at read time by read_payload's sidecar
        # anti-filters) — report both raw and net
        "payload_rows_raw": int(sum(payload_by_epoch.values())),
        "payload_rows_net": int(
            sum(payload_by_epoch.values()) - sidecars["suppressed"]
            - sidecars["not_modified"]
        ),
        "payload_epochs": len(payload_by_epoch),
        "sidecar_rows": sidecars,
        "hosts_with_spend": len(host_popped),
        "max_host_spend": max(host_popped.values()) if host_popped else 0,
        "lineage": lineage,
    }


def _etag_chain(prev_dir: str) -> list[str]:
    """The manifest generation chain, NEWEST first: ``prev_dir``, then the
    generation IT crawled against (the ``generation.json`` breadcrumb
    ``run_crawl`` writes for conditional runs), and so on back to the root
    full generation. A page 304'd by every generation since its last store
    has a payload row — and therefore an etag — only in the ancestor that
    stored it, so the manifest must union the whole chain; a digest stored
    by several generations takes the NEWEST etag (shard-side
    first-write-wins under this ordering)."""
    chain: list[str] = []
    seen: set[str] = set()
    d = prev_dir
    while d and os.path.isdir(d) and os.path.abspath(d) not in seen:
        seen.add(os.path.abspath(d))
        chain.append(d)
        gj = os.path.join(d, "generation.json")
        if not os.path.exists(gj):
            break
        with open(gj) as f:
            d = json.load(f).get("etag_manifest_dir")
    return chain


def _load_etag_manifest(prev_dir: str, actors, num_shards: int) -> None:
    """Route the previous generation CHAIN's (url_hash → content etag) rows
    to each digest's OWNING shard actor (host partitioning — shard counts
    may differ between generations, so ownership is recomputed from the
    URL). Generations stream newest-first, one Ray Data pass each: every
    batch computes its etags and ray.puts them straight to the actors; only
    (20 B digest + 20 B etag) per URL ever moves, and the shard keeps the
    first (= newest-generation) etag per digest."""
    for gen_dir in _etag_chain(prev_dir):
        _route_etags(gen_dir, actors, num_shards)


def _route_etags(prev_dir: str, actors, num_shards: int) -> None:
    from .core.codec import content_etag

    ds = read_payload(
        prev_dir,
        columns=["url", "url_hash", "w", "h", "fmt", "phash", "caption"],
    )

    def route(tbl: pa.Table) -> pa.Table:
        per: dict[int, tuple[list, list]] = {}
        for url, dg, w, h, fmt, ph, cap in zip(
            tbl["url"].to_pylist(),
            tbl["url_hash"].to_pylist(),
            tbl["w"].to_pylist(),
            tbl["h"].to_pylist(),
            tbl["fmt"].to_pylist(),
            tbl["phash"].to_pylist(),
            tbl["caption"].to_pylist(),
        ):
            sid = shard_of_host(host_of(url), num_shards)
            b = per.setdefault(sid, ([], []))
            b[0].append(dg)
            b[1].append(content_etag(w, h, fmt, ph, cap))
        ray.get(
            [actors[sid].load_etags.remote(d, e)
             for sid, (d, e) in per.items()]
        )
        return pa.table({"n": pa.array([tbl.num_rows], pa.int64())})

    ds.map_batches(route, batch_format="pyarrow").materialize()
