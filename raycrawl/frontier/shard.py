"""Frontier shard: the stateful heart of the crawl engine.

One shard owns a host-partition of the URL universe (``shard_of_host`` pins
every host to exactly one shard — the partitioning assumption that makes
per-host politeness and the per-shard seen/phash state correct). The crawl
driver wraps this class in a Ray actor (one per shard); everything here is
plain Python/numpy/Arrow so it unit-tests without Ray.

State held per shard (generalizing the reference's in-process dicts/lists,
``Stance_Detection.py:13-27``, ``pages/Crawler.py:64-67``):

* per-host priority queues + an outer host-heap keyed by each host's best
  item — selection cost is O(selected·log) instead of a full-frontier scan
  per epoch (the oracle's O(n log n) sort would not hold at 10^10 URLs);
* ``SeenSet`` (counting Bloom + cuckoo + exact side table) keyed on
  SHA-1(canonical URL);
* ``HostPoliteness`` token buckets + ``RobotsCache`` (robots decided once
  per host, at enqueue time);
* ``PhashIndex`` near-dup gate (16-bit-chunk multi-index, Hamming ≤ radius);
* metrics + fetch log rows → checkpointed as the per-partition lineage
  manifest.

Replay safety: ``offer`` / ``gate`` are memoized by epoch so a re-executed
Ray Data task (failure retry) cannot double-mutate state.
"""

from __future__ import annotations

import heapq
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..core.politeness import HostPoliteness, RobotsCache
from ..core.sketches import SeenSet, PhashIndex
from ..core.urltools import (host_shard_key, netlocs, shard_of_host,
                             trap_reason)
from .phash_shard import owner_shards

_SHARD_CACHE: dict[tuple, int] = {}


def _put_offer(payload):
    """Place an offer payload in the Ray object store when running inside
    Ray (store-to-store transfer to the target shard); fall back to the
    raw value in plain-Python unit tests."""
    try:
        import ray

        if ray.is_initialized():
            return ray.put(payload)
    except ImportError:
        pass
    return payload


def _shard_of_host_cached(host: str, num_shards: int) -> int:
    key = (host, num_shards)
    v = _SHARD_CACHE.get(key)
    if v is None:
        v = _SHARD_CACHE[key] = shard_of_host(host, num_shards)
    return v

def _items_table(items: list[tuple], host: str) -> pa.Table:
    return pa.table(
        {
            "url": [i[4] for i in items],
            "url_hash": [i[3] for i in items],
            "priority": pa.array([-i[0] for i in items], pa.int32()),
            "depth": pa.array([i[1] for i in items], pa.int32()),
            "discovered_at": pa.array([i[2] for i in items], pa.int64()),
            "host": [host] * len(items),
        }
    )


def _table_items(t: pa.Table) -> list[tuple]:
    return [
        (-p, d, da, dg, u)
        for u, dg, p, d, da in zip(
            t["url"].to_pylist(),
            t["url_hash"].to_pylist(),
            t["priority"].to_pylist(),
            t["depth"].to_pylist(),
            t["discovered_at"].to_pylist(),
        )
    ]


POP_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("url_hash", pa.binary()),
        ("host", pa.string()),
        ("shard", pa.int32()),
        ("priority", pa.int32()),
        ("depth", pa.int32()),
        ("discovered_at", pa.int64()),
    ]
)


# The per-epoch (url_hash, host) sidecar trees beside the payload, in the
# order of their lists in a ``gate_finalize`` result (``result[1:5]``).
SIDECARS = ("suppressed", "errors", "redirects", "not_modified")

# gate status (the fetch log's) → (metric it counts, sidecar it lands in;
# None: a payload row)
_GATE_OUTCOMES = {
    "redirected": ("redirects_followed", "redirects"),
    "sitemap": ("sitemap_expanded", "redirects"),
    "fetch_error": ("fetch_errors", "errors"),
    "not_modified": ("not_modified", "not_modified"),
    "dup_suppressed": ("phash_suppressed", "suppressed"),
    "fetched": ("fetched", None),
}


class FrontierShard:
    def __init__(
        self,
        shard_id: int,
        epoch_seconds: float = 2.0,
        expected_urls: int = 1 << 14,
        phash_radius: int = 2,
        burst: float = 8.0,
        log_enabled: bool = True,
        spill_threshold: int | None = None,
        spill_dir: str | None = None,
        trap_filter: bool = False,
        pop_budget: int | None = None,
        host_quota: int | None = None,
        error_backoff: bool = False,
        max_depth: int | None = None,
        link_log: bool = False,
        rich_robots: bool = False,
    ):
        # link-graph sink: when on, every non-error pop's outgoing edges
        # (src digest/url -> dst canonical url/digest; redirects emit the
        # alias->target edge) are buffered at gate time and drained by the
        # driver into links/epoch=N.parquet — the crawled web's edge log,
        # the input to inlink analytics and host-graph PageRank. Edge
        # volume is pops x avg outdegree (metadata-sized; payload bytes
        # never ride along).
        self.link_log = link_log
        self._link_rows: dict[int, list[tuple]] = {}
        # crawl-depth cap: offers deeper than max_depth hops from a seed
        # are denied at offer-merge time (depth_denied). Deny-and-seen,
        # matching the robots/trap precedent: the URL stays in the seen
        # set, so a later shallower rediscovery is NOT re-admitted — the
        # oracle replicates this exactly (within-epoch min-depth merging
        # still applies BEFORE the gate, so the best same-epoch path wins).
        self.max_depth = max_depth
        self.shard_id = shard_id
        # adaptive politeness: halve a host's effective token rate per
        # CONSECUTIVE fetch error (capped at /64), restored to full on the
        # next successful fetch — the production back-off for flaky hosts.
        # Counted at gate time (the point fetch outcome is known); the
        # rate change takes effect at the next epoch's refill, identically
        # in the sequential oracle (oracle.py eff_rate) so crawl-ordering
        # parity holds with the feature on.
        self.error_backoff = error_backoff
        self.host_consec_errors: dict[str, int] = {}
        # lifetime per-host page cap: max fetch slots (pops) a host may
        # ever consume across the whole crawl — the production-crawler
        # "crawl budget" knob. Counted at pop time (includes fetch errors
        # and near-dup-suppressed fetches: the slot was spent). A host at
        # quota is denied new frontier entries (quota_denied) and its
        # already-queued items are dropped at the next pop encounter
        # (quota_dropped). Host→shard pinning makes the counter exact with
        # no cross-shard coordination.
        self.host_quota = host_quota
        self.host_popped: dict[str, int] = {}
        # fetch-capacity contention knob: max URLs popped per epoch. With
        # it set, the global (priority, depth, discovery-time) heap order
        # decides WHICH hosts get served this epoch — the lever host-tier
        # priority boosts act through. None = politeness-only (every host
        # serves up to its token budget each epoch).
        self.pop_budget = pop_budget
        # gate trap-shaped URLs (urltools.trap_reason) at offer-merge time,
        # BEFORE any politeness token or robots lookup is spent on them
        self.trap_filter = trap_filter
        # external per-host queue: when a host's in-memory heap exceeds
        # spill_threshold, the WORST half spills to parquet segments and the
        # heap keeps only the best items. Invariant: every in-memory item
        # sorts strictly before every spilled item of its host
        # (spill_floor), so pop order is unchanged — the 10^10-URL
        # frontier's memory is bounded by hosts × spill_threshold.
        self.spill_threshold = spill_threshold
        self.spill_dir = spill_dir
        # host → [(path, min_key)] — min_key (the file's best item key)
        # lets _reload_spill skip segments that cannot contain the next
        # in-order items
        self._spill_files: dict[str, list[tuple[str, tuple]]] = {}
        self._spill_floor: dict[str, tuple] = {}
        self._spill_seq = 0
        self.log_enabled = log_enabled
        self._log_flushed = 0  # rows already persisted by a checkpoint
        self.epoch_seconds = epoch_seconds
        self.expected_urls = expected_urls
        self.burst = burst
        self.seen = SeenSet(expected_urls)
        # digest → host_shard_key(host) for every seen digest, recorded at
        # offer-merge time (the one place a digest enters `seen` and its
        # host is in scope). Checkpointed as a u32 array aligned to the
        # sorted digest order, which is what lets `reshard_checkpoint`
        # redistribute the seen set EXACTLY (key % new_n) instead of
        # union-replicating it onto every new shard. Dict-of-bytes is the
        # test-scale representation; at 10^10 the checkpointed columnar
        # form (sorted digests + parallel u32 keys) IS the working form
        # and membership stays in the bloom/cuckoo tier.
        self.seen_hostkey: dict[bytes, int] = {}
        # False after restoring a pre-hostkey checkpoint with a non-empty
        # seen set: keys can't be recovered, so checkpoints stop emitting
        # them and downstream reshards take the union fallback.
        self.seen_keys_complete = True
        # per-path REP rules (wildcards/anchors/Allow overrides) are an
        # opt-in config of the synthetic robots universe — see RobotsCache
        self.robots = RobotsCache(rich=rich_robots)
        # politeness rate honors robots Crawl-delay when declared
        self.politeness = HostPoliteness(
            epoch_seconds, burst, rate_fn=self._effective_rate
        )
        self.phash = PhashIndex(phash_radius)
        # host → heap of (negpri, depth, discovered_at, digest, url)
        self.host_q: dict[str, list[tuple]] = {}
        self.metrics = dict(
            offered=0, accepted=0, fetched=0, robots_denied=0,
            phash_suppressed=0, fetch_errors=0, trap_denied=0,
            quota_denied=0, quota_dropped=0, redirects_followed=0,
            depth_denied=0, not_modified=0, sitemap_expanded=0,
        )
        self.log: list[dict] = []
        # conditional-fetch manifest: digest → previous-generation etag
        # (loaded via load_etags; empty = feature off)
        self.etags: dict[bytes, bytes] = {}
        # url → (digest, host, priority, min_depth, discovered_at)
        self.pending: dict[str, tuple] = {}
        self._spill_overflow: dict[str, list[tuple]] = {}
        self._offer_memo: dict = {}
        self._gate_memo: dict[int, tuple] = {}
        self._gate_buf: dict[int, dict[bytes, tuple]] = {}
        self._popped: pa.Table | None = None

    def _effective_rate(self, host: str) -> float:
        from ..core.politeness import host_rate

        delay = self.robots.crawl_delay(host)
        rate = host_rate(host)
        rate = min(rate, 1.0 / delay) if delay else rate
        if self.error_backoff:
            rate /= 1 << min(self.host_consec_errors.get(host, 0), 6)
        return rate

    def load_etags(self, digests: list[bytes], etags: list[bytes]) -> int:
        """Conditional-fetch manifest for THIS shard's hosts (the driver
        routes a previous generation's (url_hash → content etag) rows by
        owning shard, so no shard ever holds another's hosts — the same
        host-partitioning contract as every other piece of shard state).
        A gated row whose current etag equals the manifest's is
        not_modified: token spent, no payload row, no expansion.

        First-write-wins per digest: the driver routes the manifest CHAIN
        newest generation first, so a digest stored by several generations
        keeps the newest etag while older generations only fill gaps (pages
        304'd ever since their last store)."""
        for d, e in zip(digests, etags):
            self.etags.setdefault(d, e)
        return len(self.etags)

    # ------------------------------------------------------------- enqueue
    def offer(
        self,
        offer_key,
        urls: list[str],
        digests: list[bytes],
        hosts: list[str],
        priorities: list[int],
        depths: list[int],
        discovered_at: int,
    ) -> int:
        """Buffer a batch of canonical URLs discovered for epoch
        ``discovered_at``. Offers from different source shards accumulate in
        a pending buffer (keeping min depth per URL) and are merged —
        deterministically, in sorted-URL order — by the next ``pop`` for
        that epoch. This makes cross-shard link arrival order irrelevant:
        the frontier-merge is a data property, not a scheduling property.

        ``offer_key`` (e.g. ``(epoch, src_shard)``) makes the call
        idempotent under Ray task replay."""
        if offer_key in self._offer_memo:
            return self._offer_memo[offer_key]
        for url, digest, host, pri, depth in zip(urls, digests, hosts, priorities, depths):
            cur = self.pending.get(url)
            if cur is None or depth < cur[3]:
                self.pending[url] = (digest, host, pri, depth, discovered_at)
        self._offer_memo[offer_key] = len(urls)
        return len(urls)

    def offer_packed(self, offer_key, packed, discovered_at: int) -> int:
        """``offer`` with the five column lists packed into one object —
        the driver passes the ObjectRef a peer's ``gate_finalize`` returned
        and Ray dereferences it on arrival (no driver materialization)."""
        urls, digests, hosts, priorities, depths = packed
        return self.offer(
            offer_key, urls, digests, hosts, priorities, depths, discovered_at
        )

    def flush_pending(self) -> int:
        """Final-epoch offer flush, called by the driver on EVERY crawl-exit
        path (max_epochs cut, graceful stop) before the closing checkpoint.
        The oracle marks seen (and logs denials) at enqueue time — including
        for outlinks discovered in the last executed epoch — while the
        engine's offers normally wait in ``pending`` for the next ``pop``.
        When the crawl is truncated there IS no next pop, so without this
        flush the seen set misses every offer from the final epoch (the
        round-4 fuzz falsifier: a trap outlink discovered at
        ``max_epochs - 1``). Returns the number of offers flushed."""
        n = len(self.pending)
        self._merge_pending()
        return n

    def _merge_pending(self) -> None:
        """Seen-check + robots-check + enqueue the pending buffer
        (sorted-URL order — matches the oracle's ``for url in sorted(best)``)."""
        for url in sorted(self.pending):
            digest, host, pri, depth, discovered_at = self.pending[url]
            self.metrics["offered"] += 1
            if self.seen.check_and_add(digest):
                continue
            self.seen_hostkey[digest] = host_shard_key(host)
            if self.max_depth is not None and depth > self.max_depth:
                self.metrics["depth_denied"] += 1
                self._log_append(discovered_at, url, digest, host, pri,
                                 depth, discovered_at, "depth_denied")
                continue
            if self.trap_filter:
                reason = trap_reason(url)
                if reason:
                    self.metrics["trap_denied"] += 1
                    self._log_append(discovered_at, url, digest, host, pri,
                                     depth, discovered_at,
                                     f"trap_denied:{reason}")
                    continue
            path = "/" + url.split("://", 1)[1].split("/", 1)[1]
            if not self.robots.allowed(host, path):
                self.metrics["robots_denied"] += 1
                self._log_append(discovered_at, url, digest, host, pri, depth,
                                 discovered_at, "robots_denied")
                continue
            if (self.host_quota is not None
                    and self.host_popped.get(host, 0) >= self.host_quota):
                self.metrics["quota_denied"] += 1
                self._log_append(discovered_at, url, digest, host, pri, depth,
                                 discovered_at, "quota_denied")
                continue
            self.metrics["accepted"] += 1
            self._push(host, (-pri, depth, discovered_at, digest, url))
        self.pending.clear()

    def _push(self, host: str, item: tuple) -> None:
        floor = self._spill_floor.get(host)
        if floor is not None and item[:4] >= floor:
            self._spill_overflow.setdefault(host, []).append(item)
            self._maybe_flush_overflow(host)
            return
        q = self.host_q.setdefault(host, [])
        heapq.heappush(q, item)
        if self.spill_threshold and len(q) > 2 * self.spill_threshold:
            q.sort()
            keep, worse = q[: self.spill_threshold], q[self.spill_threshold :]
            self.host_q[host] = keep
            heapq.heapify(self.host_q[host])
            f = self._spill_floor.get(host)
            new_floor = worse[0][:4]
            self._spill_floor[host] = min(f, new_floor) if f else new_floor
            self._spill_overflow.setdefault(host, []).extend(worse)
            self._maybe_flush_overflow(host)

    def _maybe_flush_overflow(self, host: str) -> None:
        ov = self._spill_overflow.get(host, [])
        if len(ov) < (self.spill_threshold or 0):
            return
        self._write_spill(host, ov)
        self._spill_overflow[host] = []

    def _write_spill(self, host: str, items: list[tuple]) -> None:
        os.makedirs(self.spill_dir, exist_ok=True)
        path = os.path.join(
            self.spill_dir, f"s{self.shard_id}_{self._spill_seq}.parquet"
        )
        self._spill_seq += 1
        pq.write_table(_items_table(items, host), path)
        self._spill_files.setdefault(host, []).append(
            (path, min(it[:4] for it in items))
        )

    def _reload_spill(self, host: str) -> None:
        """Heap drained → refill from spill, reading only the segments that
        can contain the next in-order items: segments are consumed in
        min-key order, and reading stops once the next unread segment's
        min key is ≥ the key of the ``spill_threshold``-th best item in
        hand (that segment's items could never enter the kept prefix).
        Unread segments stay on disk untouched — at 10^10-URL scale a
        drained host touches O(1) segments, not its whole spill history.
        The order invariant (in-memory heap holds a strict prefix of the
        host's frontier order; floor ≤ everything on disk) is re-enforced
        below by pushing any kept item ≥ the unread-segment floor back to
        overflow."""
        items = list(self._spill_overflow.pop(host, []))
        items.extend(self.host_q.get(host, ()))  # usually empty (drained)
        files = sorted(self._spill_files.pop(host, []), key=lambda f: f[1])
        remaining: list[tuple[str, tuple]] = []
        thr = self.spill_threshold or 0
        for i, (path, mk) in enumerate(files):
            if thr and len(items) > thr:
                items.sort()
                if mk >= items[thr][:4]:  # file can't reach the kept prefix
                    remaining = files[i:]
                    break
            items.extend(_table_items(pq.read_table(path)))
            os.remove(path)
        self._spill_floor.pop(host, None)
        items.sort()
        if thr and len(items) > 2 * thr:
            keep, worse = items[:thr], items[thr:]
        else:
            keep, worse = items, []
        floor_r = remaining[0][1] if remaining else None
        if floor_r is not None:
            # nothing ≥ the unread-segment floor may stay in memory
            worse = [it for it in keep if it[:4] >= floor_r] + worse
            keep = [it for it in keep if it[:4] < floor_r]
        self.host_q[host] = keep
        heapq.heapify(self.host_q[host])
        floors = [f for f in (floor_r,) if f is not None]
        if worse:
            floors.append(min(it[:4] for it in worse))
            self._spill_overflow.setdefault(host, []).extend(worse)
            self._maybe_flush_overflow(host)
        if floors:
            self._spill_floor[host] = min(floors)
        if remaining:
            self._spill_files.setdefault(host, []).extend(remaining)

    # ----------------------------------------------------------------- pop
    def pop(self, epoch: int) -> int:
        """Merge pending offers, then select this epoch's fetchable URLs
        (frontier order, politeness-constrained); stash them as an Arrow
        table; return the count."""
        self._merge_pending()
        # refill drained hosts from their spill segments before selection
        for host in list(self._spill_files.keys() | self._spill_overflow.keys()):
            if not self.host_q.get(host):
                self._reload_spill(host)
        self.politeness.refill_all()
        outer: list[tuple] = []
        for host, q in self.host_q.items():
            if q:
                outer.append((*q[0][:4], host))
        heapq.heapify(outer)
        rows: list[tuple] = []
        while outer and (self.pop_budget is None
                         or len(rows) < self.pop_budget):
            negpri, depth, disc, digest, host = heapq.heappop(outer)
            if (self.host_quota is not None
                    and self.host_popped.get(host, 0) >= self.host_quota):
                # budget exhausted: everything still queued for this host
                # can never be served — drop it (checked BEFORE politeness
                # so no token is spent on a capped host)
                self._drop_host_queue(host)
                continue
            if not self.politeness.try_take(host):
                continue  # host blocked for the rest of this epoch
            item = heapq.heappop(self.host_q[host])
            rows.append((item[4], digest, host, -negpri, depth, disc))
            self.host_popped[host] = self.host_popped.get(host, 0) + 1
            q = self.host_q[host]
            if not q and (
                self._spill_files.get(host) or self._spill_overflow.get(host)
            ):
                self._reload_spill(host)  # heap drained mid-epoch
                q = self.host_q[host]
            if q:
                heapq.heappush(outer, (*q[0][:4], host))
        rows.sort(key=lambda r: (-r[3], r[4], r[5], r[1]))
        self._popped = pa.table(
            {
                "url": [r[0] for r in rows],
                "url_hash": [r[1] for r in rows],
                "host": [r[2] for r in rows],
                "shard": pa.array([self.shard_id] * len(rows), pa.int32()),
                "priority": pa.array([r[3] for r in rows], pa.int32()),
                "depth": pa.array([r[4] for r in rows], pa.int32()),
                "discovered_at": pa.array([r[5] for r in rows], pa.int64()),
            },
            schema=POP_SCHEMA,
        )
        return len(rows)

    def _drop_host_queue(self, host: str) -> None:
        """Discard every queued item of a quota-capped host: in-memory
        heap + overflow exactly, spill segments by footer row count
        (metadata-only — the files are deleted unread)."""
        n = len(self.host_q.pop(host, []))
        n += len(self._spill_overflow.pop(host, []))
        for path, _mk in self._spill_files.pop(host, []):
            n += pq.read_metadata(path).num_rows
            os.unlink(path)
        self._spill_floor.pop(host, None)
        if n:
            self.metrics["quota_dropped"] += n

    def take_popped(self) -> pa.Table:
        t = self._popped if self._popped is not None else POP_SCHEMA.empty_table()
        return t

    def take_popped_rows(self, lo: int, hi: int) -> pa.Table:
        """Rows [lo, hi) of the pop table: this shard's share of one fetch
        block. The crawler cuts an epoch's blocks over all shards' pops
        (``crawler._cut_epoch``), so a block may hold ranges of several
        shards."""
        return self.take_popped().slice(lo, hi - lo)

    def take_popped_part(self, j: int, n_parts: int) -> pa.Table:
        """Part ``j`` of ``n_parts`` near-equal parts (±1 row) of this
        shard's pop table alone."""
        n = self.take_popped().num_rows
        return self.take_popped_rows(n * j // n_parts, n * (j + 1) // n_parts)

    def frontier_size(self) -> int:
        n = sum(len(q) for q in self.host_q.values()) + len(self.pending)
        n += sum(len(v) for v in self._spill_overflow.values())
        for host, files in self._spill_files.items():
            for path, _mk in files:
                n += pq.read_metadata(path).num_rows
        return n

    # ---------------------------------------------------------------- gate
    #
    # Two-phase, shuffle-free protocol:
    #   * decode tasks call ``gate_submit`` DURING the epoch pipeline with
    #     each fetched row's (digest, phash, meta, canonical outlinks) —
    #     tiny data, idempotent by digest (task replay re-submits identical
    #     content), arrival order irrelevant;
    #   * after the pipeline the driver calls ``gate_finalize`` ONCE: rows
    #     are sorted into frontier order, the near-dup gate runs (this
    #     shard's phash index, or the global tier's verdict passed in as
    #     ``suppressed``), and the surviving rows' outlinks are bucketed by
    #     target shard and returned as refs (the driver routes them to
    #     peers' pending buffers).
    # Payload bytes never pass through the gate — the pipeline writes them
    # straight to the epoch's parquet; near-dup rows are filtered at read
    # time via the (tiny) suppressed-digest sidecar the driver persists.
    def gate_submit(
        self,
        epoch: int,
        digests: list[bytes],
        phashes: list[int],
        meta: list[tuple],
        links: list[list[tuple]],
    ) -> int:
        buf = self._gate_buf.setdefault(epoch, {})
        for d, p, m, ls in zip(digests, phashes, meta, links):
            buf[d] = (p, m, ls)
        return len(buf)

    def gate_finalize(self, epoch: int, num_shards: int, suppressed=None,
                      *more_suppressed):
        """Run the ordered near-dup gate over this epoch's submitted rows.

        ``suppressed=None`` judges each fetched row against this shard's
        own phash index (near-dup of an earlier kept row → suppressed).
        A collection of digests is the global tier's verdict instead
        (frontier/phash_shard.py), one collection per dedup shard in
        ``suppressed, *more_suppressed``: exactly the rows in their union
        are suppressed, and ``self.phash`` is not touched.

        Returns (kept_count, *sidecar lists, {dst_shard: offer_ref}): one
        list of (digest, host) pairs per ``SIDECARS`` entry, in that order
        — the host rides along so the driver's sidecars can attribute each
        non-payload pop to its host (checkpoint-merge rebuilds exact
        per-host quota spend from the sidecars) — and an offer payload is
        (urls, digests, hosts, priorities, depths) for the driver to
        route to ``offer_packed`` on each target shard."""
        if epoch in self._gate_memo:
            return self._gate_memo[epoch]
        sup = (None if suppressed is None
               else set(suppressed).union(*more_suppressed))
        buf = self._gate_buf.pop(epoch, {})
        order = sorted(
            buf.items(), key=lambda kv: (-kv[1][1][2], kv[1][1][3], kv[1][1][4], kv[0])
        )
        sides: dict[str, list[tuple[bytes, str]]] = {s: [] for s in SIDECARS}
        best: dict[str, tuple] = {}  # canonical url → (digest,host,pri,min depth)
        kept = 0
        for digest, (ph, m, ls) in order:
            url, host, pri, depth, disc, *rest = m
            rd = rest[0] if rest else None  # 5-tuple metas: no redirect
            etag = rest[1] if len(rest) > 1 else None
            sm = rest[2] if len(rest) > 2 else False  # sitemap manifest
            if self.link_log and (ph is not None or rd is not None or sm):
                buf_rows = self._link_rows.setdefault(epoch, [])
                for lu, ld, _lh, _lp in ls:
                    buf_rows.append((digest, url, lu, ld))
                if rd is not None:  # 301 edge: alias -> target
                    buf_rows.append((digest, url, rd[0], rd[1]))
            # ls becomes the (url, digest, host, priority) links this row
            # offers, each at depth nd
            nd = depth + 1
            if rd is not None:  # 301 alias: follow target at SAME depth
                status, ls, nd = "redirected", [rd], depth
            elif sm:  # sitemap manifest: expansion at the SITEMAP'S depth,
                # no payload, no phash entry; pop recorded in the
                # redirects sidecar (same no-payload alias-style class)
                status, nd = "sitemap", depth
            elif ph is None:  # dead-letter: fetch failed (4xx/timeout analog)
                status, ls = "fetch_error", ()
            elif etag is not None and self.etags.get(digest) == etag:
                # 304 analog: content identical to the previous generation
                # — token spent, NO payload row (the old generation's row
                # is authoritative), no phash-index entry — but the link
                # graph still advances: an incremental crawl re-walks the
                # web through its unmodified pages (in production the
                # outlinks come from the stored previous-generation link
                # log; the synthetic fetch has the body anyway)
                status = "not_modified"
            elif (self.phash.query(ph) is not None if sup is None
                  else digest in sup):
                status, ls = "dup_suppressed", ()
            else:
                status = "fetched"
                kept += 1
                if sup is None:
                    self.phash.add(ph)
            metric, side = _GATE_OUTCOMES[status]
            self.metrics[metric] += 1
            self._log_append(epoch, url, digest, host, pri, depth, disc, status)
            if side is not None:
                sides[side].append((digest, host))
            if status == "fetch_error":
                self.host_consec_errors[host] = (
                    self.host_consec_errors.get(host, 0) + 1
                )
            else:  # the HTTP fetch succeeded
                self.host_consec_errors.pop(host, None)
            for lu, ld, lh, lp in ls:
                cur = best.get(lu)
                if cur is None or nd < cur[3]:
                    best[lu] = (ld, lh, lp, nd)
        by_dst: dict[int, list[str]] = {}
        for u in sorted(best):
            dst = _shard_of_host_cached(best[u][1], num_shards)
            by_dst.setdefault(dst, []).append(u)
        # offers travel as object refs: the driver routes only the ref; the
        # data moves store-to-store when the target actor receives it as a
        # (top-level, auto-dereferenced) task argument
        offers = {
            dst: _put_offer((urls, *map(list, zip(*(best[u] for u in urls)))))
            for dst, urls in by_dst.items()
        }
        result = (kept, *sides.values(), offers)
        self._gate_memo[epoch] = result
        self._evict_stale(epoch)
        return result

    def _log_append(self, epoch, url, digest, host, pri, depth, disc, status):
        if self.log_enabled:
            self.log.append(
                self._logrow(epoch, url, digest, host, pri, depth, disc, status)
            )

    # Replay horizon for the idempotency memos: a Ray task/driver retry can
    # only re-touch the epoch in flight (gate_finalize(E)) and the offer
    # dispatch it feeds (offer_key (E, src) consumed by pop(E+1)). Entries
    # older than that are dead weight — without eviction the memos grow
    # O(epochs) and the gate memo additionally pins every past epoch's
    # offer payloads in the object store.
    REPLAY_HORIZON = 2

    def _evict_stale(self, epoch: int) -> None:
        floor = epoch - self.REPLAY_HORIZON
        for e in [e for e in self._gate_memo if e < floor]:
            del self._gate_memo[e]
        for k in [k for k in self._offer_memo
                  if (k[0] if isinstance(k, tuple) else k) < floor]:
            del self._offer_memo[k]
        for e in [e for e in self._gate_buf if e < floor]:
            del self._gate_buf[e]
        for e in [e for e in self._link_rows if e < floor]:
            del self._link_rows[e]

    def resident_state_sizes(self) -> dict:
        """Entry counts of every unbounded-looking in-memory structure —
        the boundedness contract's observability surface (each must stay
        O(saving_period · epoch work), never O(crawl size))."""
        return dict(
            log=len(self.log),
            log_flushed_total=self._log_flushed,
            gate_memo=len(self._gate_memo),
            offer_memo=len(self._offer_memo),
            gate_buf=len(self._gate_buf),
            link_rows=len(self._link_rows),
            pending=len(self.pending),
        )

    def collect_candidates(self, epoch: int, num_dedup_shards: int):
        """Global near-dup tier, routing step: this epoch's fetch-ok rows
        as one (digests, phashes, order keys) bucket per dedup shard, each
        row in the bucket of every dedup shard that owns one of its
        phash's chunks (``owner_shards``). The driver calls it with
        ``num_returns=num_dedup_shards``, so each bucket is its own object
        that goes to its dedup shard's ``judge`` unread (one bucket is
        returned bare: ``num_returns=1`` keeps a return whole). Read-only:
        the buffer stays put until ``gate_finalize``."""
        routed = [([], [], []) for _ in range(num_dedup_shards)]
        for digest, (ph, m, _ls) in self._gate_buf.get(epoch, {}).items():
            if ph is None:
                continue  # fetch errors never reach the dedup tier
            for dst in owner_shards(ph, num_dedup_shards):
                b = routed[dst]
                b[0].append(digest)
                b[1].append(ph)
                b[2].append((-m[2], m[3], m[4], digest))
        return routed if num_dedup_shards > 1 else routed[0]

    def _logrow(self, epoch, url, digest, host, pri, depth, disc, status) -> dict:
        return dict(
            epoch=epoch,
            url=url,
            url_hash=digest.hex(),
            host=host,
            shard=self.shard_id,
            priority=pri,
            depth=depth,
            discovered_at=disc,
            status=status,
        )

    def get_log(self) -> list[dict]:
        """The UNFLUSHED in-memory tail of the fetch log (rows since the
        last checkpoint — everything older lives in the checkpoint tree's
        fetch_log_increment sidecars; merge with collect_fetch_log)."""
        return self.log

    def get_seen(self) -> list[bytes]:
        assert self.seen.exact is not None
        return sorted(self.seen.exact)

    def drain_link_log(self, epoch: int) -> pa.Table:
        """This epoch's outgoing edges (built during gate_finalize; the
        finalize memo guarantees exactly-once collection under task
        replay). Returns an Arrow table and frees the buffer."""
        rows = self._link_rows.pop(epoch, [])
        return pa.table(
            {
                "src_hash": pa.array([r[0] for r in rows], pa.binary()),
                "src_url": pa.array([r[1] for r in rows], pa.string()),
                "dst_url": pa.array([r[2] for r in rows], pa.string()),
                "dst_hash": pa.array([r[3] for r in rows], pa.binary()),
            }
        )

    def get_metrics(self) -> dict:
        m = dict(self.metrics)
        m["seen_count"] = self.seen.count
        m["bloom_cuckoo_false_positives"] = self.seen.fp_observed
        m["robots_fetches"] = self.robots.fetches
        m["frontier_size"] = self.frontier_size()
        return m

    # ---------------------------------------------------------- checkpoint
    def checkpoint(self, ckpt_dir: str, epoch: int) -> dict:
        """Write this shard's full state + lineage manifest under
        ``ckpt_dir/epoch={epoch}/shard={id}/``. Returns the manifest."""
        d = os.path.join(ckpt_dir, f"epoch={epoch}", f"shard={self.shard_id}")
        os.makedirs(d, exist_ok=True)
        items = [it for q in self.host_q.values() for it in q]
        for ov in self._spill_overflow.values():
            items.extend(ov)
        for host, files in self._spill_files.items():
            for path, _mk in files:
                items.extend(_table_items(pq.read_table(path)))
        urls = pa.array([i[4] for i in items], pa.string())
        pq.write_table(
            pa.table(
                {
                    "url": urls,
                    "url_hash": [i[3] for i in items],
                    "priority": pa.array([-i[0] for i in items], pa.int32()),
                    "depth": pa.array([i[1] for i in items], pa.int32()),
                    "discovered_at": pa.array([i[2] for i in items], pa.int64()),
                    "host": netlocs(urls),
                }
            ),
            os.path.join(d, "frontier.parquet"),
        )
        # pending offers (links discovered this epoch, not yet merged)
        purls = sorted(self.pending)
        pq.write_table(
            pa.table(
                {
                    "url": purls,
                    "url_hash": [self.pending[u][0] for u in purls],
                    "host": [self.pending[u][1] for u in purls],
                    "priority": pa.array(
                        [self.pending[u][2] for u in purls], pa.int32()
                    ),
                    "depth": pa.array([self.pending[u][3] for u in purls], pa.int32()),
                    "discovered_at": pa.array(
                        [self.pending[u][4] for u in purls], pa.int64()
                    ),
                }
            ),
            os.path.join(d, "pending.parquet"),
        )
        st = self.seen.state()
        sk = dict(bloom=st["bloom"], cuckoo=st["cuckoo"],
                  phash=self.phash.state())
        if self.seen_keys_complete and len(self.seen_hostkey) == self.seen.count:
            # u32 host-shard keys aligned to the sorted digest order of
            # exact_seen.bin — the reshard tool's exact-ownership input
            sk["seen_hostkeys"] = np.fromiter(
                (self.seen_hostkey[dg] for dg in sorted(self.seen.exact)),
                np.uint32, self.seen.count,
            )
        np.savez_compressed(os.path.join(d, "sketches.npz"), **sk)
        with open(os.path.join(d, "exact_seen.bin"), "wb") as f:
            f.write(st["exact"])
        # incremental lineage log: persist the unflushed rows, then FORGET
        # them — the sidecar tree is the log of record and the actor heap
        # stays bounded by one saving_period of rows regardless of crawl
        # length (a 10^10-URL crawl must not hold its history in actor
        # memory; parity readers page from the checkpoint tree via
        # collect_fetch_log). The rare second checkpoint labeling the SAME
        # epoch (final checkpoint right after a periodic one) merges into
        # the existing increment instead of overwriting it.
        new_rows = self.log
        if new_rows:
            inc = os.path.join(d, "fetch_log_increment.parquet")
            t = pa.Table.from_pylist(new_rows)
            if os.path.exists(inc):
                t = pa.concat_tables(
                    [pq.read_table(inc), t], promote_options="default"
                )
            pq.write_table(t, inc)
        self._log_flushed += len(new_rows)
        self.log = []
        manifest = dict(
            shard=self.shard_id,
            epoch=epoch,
            burst=self.burst,
            log_enabled=self.log_enabled,
            trap_filter=self.trap_filter,
            rich_robots=self.robots.rich,
            metrics=self.get_metrics(),
            tokens={h: b.tokens for h, b in self.politeness.buckets.items()},
            robots={h: list(r) for h, r in self.robots.rules.items()},
            robots_delays={h: d for h, d in self.robots.delays.items()},
            seen_count=self.seen.count,
            epoch_seconds=self.epoch_seconds,
            host_quota=self.host_quota,
            host_popped=self.host_popped,
            error_backoff=self.error_backoff,
            host_consec_errors=self.host_consec_errors,
        )
        with open(os.path.join(d, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        return manifest

    @classmethod
    def restore(
        cls,
        ckpt_dir: str,
        epoch: int,
        shard_id: int,
        expected_urls: int = 1 << 14,
        phash_radius: int = 2,
        spill_threshold: int | None = None,
        spill_dir: str | None = None,
    ) -> "FrontierShard":
        d = os.path.join(ckpt_dir, f"epoch={epoch}", f"shard={shard_id}")
        with open(os.path.join(d, "manifest.json")) as f:
            manifest = json.load(f)
        self = cls(shard_id, manifest["epoch_seconds"], expected_urls, phash_radius,
                   manifest.get("burst", 8.0), manifest.get("log_enabled", True),
                   spill_threshold, spill_dir,
                   trap_filter=manifest.get("trap_filter", False))
        npz = np.load(os.path.join(d, "sketches.npz"))
        with open(os.path.join(d, "exact_seen.bin"), "rb") as f:
            exact = f.read()
        self.seen = SeenSet.restore(
            dict(bloom=npz["bloom"], cuckoo=npz["cuckoo"], exact=exact,
                 count=manifest["seen_count"]),
            expected_urls,
        )
        if "seen_hostkeys" in npz and len(npz["seen_hostkeys"]) == self.seen.count:
            self.seen_hostkey = dict(zip(
                sorted(self.seen.exact),
                npz["seen_hostkeys"].astype(int).tolist(),
            ))
            self.seen_keys_complete = True
        else:  # pre-hostkey checkpoint: keys unrecoverable for these digests
            self.seen_hostkey = {}
            self.seen_keys_complete = self.seen.count == 0
        self.phash = PhashIndex.restore(npz["phash"], phash_radius)
        front = pq.read_table(os.path.join(d, "frontier.parquet"))
        for url, digest, pri, depth, disc, host in zip(
            front["url"].to_pylist(),
            front["url_hash"].to_pylist(),
            front["priority"].to_pylist(),
            front["depth"].to_pylist(),
            front["discovered_at"].to_pylist(),
            front["host"].to_pylist(),
        ):
            self._push(host, (-pri, depth, disc, digest, url))
        pend = pq.read_table(os.path.join(d, "pending.parquet"))
        for url, digest, host, pri, depth, disc in zip(
            pend["url"].to_pylist(),
            pend["url_hash"].to_pylist(),
            pend["host"].to_pylist(),
            pend["priority"].to_pylist(),
            pend["depth"].to_pylist(),
            pend["discovered_at"].to_pylist(),
        ):
            self.pending[url] = (digest, host, pri, depth, disc)
        self.robots.rich = manifest.get("rich_robots", False)
        self.robots.rules = {
            h: RobotsCache.normalize_rules(r)
            for h, r in manifest["robots"].items()
        }
        self.robots.delays = dict(manifest.get("robots_delays", {}))
        for h in self.robots.rules:
            self.robots.delays.setdefault(h, None)
        self.robots.fetches = manifest["metrics"]["robots_fetches"]
        for h, tok in manifest["tokens"].items():
            b = self.politeness.bucket(h)
            b.tokens = tok
        self.metrics = {
            k: manifest["metrics"].get(k, 0)
            for k in ("offered", "accepted", "fetched", "robots_denied",
                      "phash_suppressed", "fetch_errors", "trap_denied",
                      "quota_denied", "quota_dropped", "redirects_followed",
                      "depth_denied", "not_modified", "sitemap_expanded")
        }
        self.host_quota = manifest.get("host_quota")
        self.host_popped = dict(manifest.get("host_popped", {}))
        self.error_backoff = manifest.get("error_backoff", False)
        self.host_consec_errors = dict(
            manifest.get("host_consec_errors", {})
        )
        # flushed log rows stay on disk (bounded actor state): a restored
        # shard starts with an empty in-memory tail; full-history readers
        # merge the checkpoint tree's increments (collect_fetch_log).
        self.log = []
        self._log_flushed = 0
        return self
