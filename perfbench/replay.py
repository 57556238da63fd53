"""Per-layer replay of a traced crawl pass.

Re-runs, in the driver process and one call at a time, the layer
functions the crawl calls on its workers: the synthetic fetch
(``page_for``, ``fetch_batch``), decode (``decode_batch``,
``decode_image``, ``phash64``), link canonicalization
(``canonical_and_host`` + ``url_sha1``), the payload write
(``write_table_flat``), an in-process ``FrontierShard`` driven through
offer -> pop -> take_popped_part -> gate_submit -> gate_finalize ->
checkpoint, and the round trip to one live shard actor. The input is the
URL set of the traced pass, read from its payload tree.

Each layer is timed on its own; a layer whose function is missing or
whose signature changed is reported absent (left out) instead of failing
the run.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import traceback

import pyarrow as pa
import pyarrow.parquet as pq

MAX_URLS = 256  # sample size: the replay must stay cheap next to a pass


def _timed(fn, *args, **kw):
    t = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t


def crawl_layers(cfg, scratch: str) -> dict:
    """Per-layer metrics replayed over the payload URLs of the crawl that
    ran with ``cfg`` (its ``out_dir`` still on disk); ``scratch`` takes the
    replay's own writes."""
    from raycrawl.core.urltools import host_of, shard_of_host, url_sha1
    from raycrawl.core.webgraph import priority_of

    urls = _sample_urls(cfg.out_dir)
    if not urls:
        return {}

    digests = [url_sha1(u) for u in urls]
    hosts = [host_of(u) for u in urls]
    pop = pa.table({
        "url": pa.array(urls, pa.string()),
        "url_hash": pa.array(digests, pa.binary()),
        "host": pa.array(hosts, pa.string()),
        "shard": pa.array([shard_of_host(h, cfg.num_shards) for h in hosts],
                          pa.int32()),
        "priority": pa.array([priority_of(d) for d in digests], pa.int32()),
        "depth": pa.array([0] * len(urls), pa.int32()),
        "discovered_at": pa.array([0] * len(urls), pa.int64()),
    })
    out: dict = {}
    fetched = _layer(out, "fetch", _fetch, cfg.web, pop)
    decoded = _layer(out, "decode", _decode, fetched)
    _layer(out, "urltools", _canon, fetched)
    _layer(out, "io", _write, decoded, cfg, scratch)
    _layer(out, "frontier", _frontier, pop, decoded, cfg, scratch)
    _layer(out, "rpc", _rpc, cfg)
    return out


def _layer(out: dict, name: str, fn, *args):
    """Run one layer's replay, add its metrics to ``out`` and return what
    the next layer consumes. A layer that raises — its function renamed
    or its input absent — is reported absent and skipped."""
    try:
        got = fn(*args)
    except Exception:
        print(f"# replay: layer {name} absent", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None
    metrics, carry = got if isinstance(got, tuple) else (got, None)
    out.update(metrics)
    return carry


def _sample_urls(out_dir: str) -> list[str]:
    pdir = os.path.join(out_dir, "payload")
    urls: list[str] = []
    for d in sorted(os.listdir(pdir)):
        for f in sorted(os.listdir(os.path.join(pdir, d))):
            if f.endswith(".parquet"):
                urls += pq.read_table(os.path.join(pdir, d, f),
                                      columns=["url"])["url"].to_pylist()
    return sorted(urls)[:MAX_URLS]


def _fetch(web, pop: pa.Table):
    from raycrawl.core.webgraph import page_for
    from raycrawl.stages.fetch import fetch_batch

    per_page, sizes = [], []
    for u in pop["url"].to_pylist():
        page, dt = _timed(page_for, web, u)
        per_page.append(dt)
        sizes.append(len(page.data or b""))
    fetched, dt = _timed(fetch_batch, pop, web_cfg=web)
    return ({"fetch.page_ms": statistics.median(per_page) * 1e3,
             "fetch.page_kb": statistics.mean(sizes) / 1024,
             "fetch.batch_ms_per_row": dt * 1e3 / pop.num_rows}, fetched)


def _decode(fetched: pa.Table):
    from raycrawl.core.codec import decode_image, phash64
    from raycrawl.stages.fetch import decode_batch

    decoded, dt = _timed(decode_batch, fetched)
    dec, ph = [], []
    for b in fetched["bytes"].to_pylist():
        if b is None:
            continue
        (pixels, _), t1 = _timed(decode_image, b)
        _, t2 = _timed(phash64, pixels)
        dec.append(t1)
        ph.append(t2)
    return ({"decode.ms_per_row": dt * 1e3 / fetched.num_rows,
             "codec.decode_ms": statistics.median(dec) * 1e3,
             "codec.phash_ms": statistics.median(ph) * 1e3}, decoded)


def _canon(fetched: pa.Table) -> dict:
    from raycrawl.core.urltools import canonical_and_host, url_sha1

    pairs = [(raw, u) for u, links in zip(fetched["url"].to_pylist(),
                                          fetched["outlinks"].to_pylist())
             for raw in links or ()]
    t = time.perf_counter()
    for raw, base in pairs:
        cu, _ = canonical_and_host(raw, base=base)
        url_sha1(cu)
    dt = time.perf_counter() - t
    return {"urltools.canon_us_per_link": dt * 1e6 / max(1, len(pairs))}


def _payload_rows(decoded: pa.Table, keep_bytes: bool) -> pa.Table:
    ok = decoded.filter(decoded["fetch_ok"])
    cols = ["image_id", "bytes", "w", "h", "fmt", "caption", "phash", "url",
            "url_hash", "shard"]
    if not keep_bytes:
        cols.remove("bytes")
    t = ok.select(cols)
    return t.append_column("epoch", pa.array([0] * t.num_rows, pa.int64()))


def _write(decoded: pa.Table, cfg, scratch: str) -> dict:
    from raycrawl.io.lancelike import write_table_flat

    table = _payload_rows(decoded, cfg.keep_bytes_in_payload)
    uri = os.path.join(scratch, "replay-payload")
    _, dt = _timed(write_table_flat, table, uri)
    size = sum(os.path.getsize(os.path.join(uri, f)) for f in os.listdir(uri))
    return {"io.write_ms_per_row": dt * 1e3 / table.num_rows,
            "io.write_mb_per_s": size / 1e6 / dt}


def _frontier(pop: pa.Table, decoded: pa.Table, cfg, scratch: str) -> dict:
    """One in-process shard owning every sampled URL, driven epoch by epoch
    until its frontier drains, then checkpointed."""
    from raycrawl.core.urltools import canonical_and_host, url_sha1
    from raycrawl.core.webgraph import priority_of
    from raycrawl.frontier.shard import FrontierShard

    shard = FrontierShard(0, cfg.epoch_seconds, cfg.expected_urls,
                          cfg.phash_radius, cfg.burst, False)
    rows = {r["url_hash"]: r for r in decoded.to_pylist()}
    n = pop.num_rows
    _, t_offer = _timed(shard.offer, -1, pop["url"].to_pylist(),
                        pop["url_hash"].to_pylist(), pop["host"].to_pylist(),
                        pop["priority"].to_pylist(), [0] * n, 0)
    t_pop = t_gate = 0.0
    popped = epoch = 0
    while epoch < 1000:  # the politeness budget refills every epoch
        k, dt = _timed(shard.pop, epoch)
        t_pop += dt
        if k == 0 and shard.frontier_size() == 0:
            break
        digests = shard.take_popped_part(0, 1)["url_hash"].to_pylist()
        meta, phs, links = [], [], []
        for d in digests:
            r = rows[d]
            meta.append((r["url"], r["host"], r["priority"], r["depth"],
                         r["discovered_at"], None, None, False))
            phs.append(r["phash"] if r["fetch_ok"] else None)
            ls = []
            for raw in r["outlinks"] or ():
                cu, h = canonical_and_host(raw, base=r["url"])
                ld = url_sha1(cu)
                ls.append((cu, ld, h, priority_of(ld)))
            links.append(ls)
        t = time.perf_counter()
        shard.gate_submit(epoch, digests, phs, meta, links)
        shard.gate_finalize(epoch, 1)
        t_gate += time.perf_counter() - t
        popped += k
        epoch += 1
    _, t_ck = _timed(shard.checkpoint, os.path.join(scratch, "replay-ckpt"),
                     epoch)
    return {"frontier.offer_us_per_url": t_offer * 1e6 / n,
            "frontier.pop_us_per_url": t_pop * 1e6 / max(1, popped),
            "frontier.gate_finalize_us_per_row": t_gate * 1e6 / max(1, popped),
            "frontier.checkpoint_ms": t_ck * 1e3}


def _rpc(cfg) -> dict:
    """Median round trip of a no-op-sized call to one live shard actor."""
    import ray

    from raycrawl.crawler import control_plane_remote
    from raycrawl.frontier.shard import FrontierShard

    actor = control_plane_remote(FrontierShard, cfg.shard_num_cpus).remote(
        0, cfg.epoch_seconds, cfg.expected_urls, cfg.phash_radius, cfg.burst,
        False)
    try:
        ray.get(actor.frontier_size.remote())  # actor start-up, untimed
        rtt = []
        for _ in range(50):
            _, dt = _timed(ray.get, actor.frontier_size.remote())
            rtt.append(dt)
    finally:
        ray.kill(actor)
    return {"frontier.rpc_roundtrip_us": statistics.median(rtt) * 1e6}
