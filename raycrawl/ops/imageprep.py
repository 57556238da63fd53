"""Training-data preparation operators over the image+caption payload table.

These are the batch-shaping steps an image-caption training pipeline runs
AFTER crawl + dedup + quality filtering (the reference stops at per-record
scoring — ``Postprocess_scripts/Functions.py`` — so these extend the surface
the way BASELINE.json's north star asks: image payloads as first-class
columns):

  * aspect-ratio bucket routing (multi-resolution trainers batch images of
    like aspect so each batch resizes to one canvas — SDXL-style bucketing),
  * a CLIP-style image-caption alignment score gate (stubbed with a
    deterministic score, like ``predict_stance``'s stub in the reference,
    so the Ray-side plumbing is real and SQL-checkable),
  * WebDataset-style shard assignment (hash(image_id) → shard, balanced by
    the hash; the write itself reuses the resumable hive sink),
  * corpus per-channel pixel statistics (the mean/std normalization
    constants every vision trainer needs).

All dims come from the payload-table schema (input_hint: ``w``/``h`` int32
columns); the codec round-trip itself is parity-gated by
``image_tier_routing`` / ``image_quality_filter_stats``, so metadata-only
routing here reads dims without re-decoding — prune at the read.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .common import (
    combine_small,
    isin_sorted,
    pool_size,
    round_half_away,
    table,
    table_num_rows,
)
import os
from .queries import register


def _dims_from_doc_id(doc_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The payload table's deterministic dim columns (same construction as
    ``crawlq._payload_images``), vectorized — w,h ∈ [32, 64]."""
    d = doc_id.astype(np.int64)
    return 32 + (d * 7) % 33, 32 + (d * 11) % 33


def _i64(arr) -> pa.Array:
    import pyarrow.compute as pc

    return pc.cast(arr, pa.int64())


# --------------------------------------------------------------------------
# Aspect-ratio bucket routing.
#
# Fixed bucket ladder (portrait→landscape); an image goes to the bucket
# whose aspect is nearest in log-space, implemented as threshold compares
# against the precomputed geometric-mean boundaries so the Ray and SQL
# sides run the IDENTICAL float comparisons (no argmin float-tie hazard).
_ASPECT_BUCKETS = ("1:2", "2:3", "3:4", "1:1", "4:3", "3:2", "2:1")
_ASPECT_BOUNDS = (
    0.5773502691896257,
    0.7071067811865476,
    0.8660254037844386,
    1.1547005383792515,
    1.4142135623730951,
    1.7320508075688772,
)

_ASPECT_SQL_CASE = " ".join(
    f"WHEN aspect < {b!r} THEN '{name}'"
    for name, b in zip(_ASPECT_BUCKETS, _ASPECT_BOUNDS)
) + f" ELSE '{_ASPECT_BUCKETS[-1]}'"

_ASPECT_SQL = f"""
WITH d AS (
  SELECT CAST(32 + (doc_id * 7) % 33 AS DOUBLE) /
         CAST(32 + (doc_id * 11) % 33 AS DOUBLE) AS aspect
  FROM documents),
b AS (SELECT aspect, CASE {_ASPECT_SQL_CASE} END AS bucket FROM d)
SELECT bucket, CAST(count(*) AS BIGINT) AS n,
       ROUND(avg(aspect), 6) AS avg_aspect,
       ROUND(min(aspect), 6) AS min_aspect,
       ROUND(max(aspect), 6) AS max_aspect
FROM b GROUP BY bucket
"""


@register("image_aspect_bucket_routing", sql=_ASPECT_SQL)
def image_aspect_bucket_routing(sf_dir: str):
    """Per-bucket image counts + aspect spread for the resize planner.

    Fixed key cardinality (7 buckets) → per-block Arrow partials +
    one local combine; no shuffle at any input scale."""
    ds = table(sf_dir, "documents", ["doc_id"])

    def partial(t: pa.Table) -> pa.Table:
        w, h = _dims_from_doc_id(t["doc_id"].to_numpy())
        aspect = w.astype(np.float64) / h.astype(np.float64)
        idx = np.digitize(aspect, _ASPECT_BOUNDS)  # bins[i-1] <= x < bins[i]
        bucket = np.asarray(_ASPECT_BUCKETS, dtype=object)[idx]
        tmp = pa.table(
            {
                "bucket": pa.array(bucket, pa.string()),
                "aspect": pa.array(aspect),
                "a_min": pa.array(aspect),
                "a_max": pa.array(aspect),
            }
        )
        return (
            pa.TableGroupBy(tmp, "bucket")
            .aggregate(
                [([], "count_all"), ("aspect", "sum"), ("a_min", "min"),
                 ("a_max", "max")]
            )
            .rename_columns(["bucket", "n", "a_sum", "a_min", "a_max"])
        )

    def finish(t: pa.Table) -> pa.Table:
        agg = (
            pa.TableGroupBy(t, "bucket")
            .aggregate([("n", "sum"), ("a_sum", "sum"), ("a_min", "min"),
                        ("a_max", "max")])
            .rename_columns(["bucket", "n", "a_sum", "a_min", "a_max"])
        )
        n = agg["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "bucket": agg["bucket"],
                "n": _i64(agg["n"]),
                "avg_aspect": pa.array(
                    round_half_away(
                        agg["a_sum"].to_numpy(zero_copy_only=False) / n, 6
                    )
                ),
                "min_aspect": pa.array(
                    round_half_away(agg["a_min"].to_numpy(zero_copy_only=False), 6)
                ),
                "max_aspect": pa.array(
                    round_half_away(agg["a_max"].to_numpy(zero_copy_only=False), 6)
                ),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return combine_small(partials, finish)


# --------------------------------------------------------------------------
# CLIP-style image-caption alignment gate (deterministic stub score).
#
# The score is the stub seam for a real CLIP actor pool (model load in
# __init__, batched encode in __call__ — the shape ImageFeatures already
# demonstrates); here it is a deterministic function of (doc_id, caption)
# so DuckDB can replay it: a Knuth-hash uniform in [0,1) blended with a
# caption-length prior, keep at score ≥ 0.5.
_ALIGN_SQL = """
WITH s AS (
  SELECT CAST((doc_id * 2654435761) % 4294967296 AS DOUBLE) / 4294967296.0
           AS u,
         CASE WHEN trim(text) = '' THEN 0
              ELSE length(string_split_regex(trim(text), '\\s+')) END AS tok
  FROM documents),
sc AS (
  SELECT 0.2 + 0.6 * u
           + 0.2 * (CASE WHEN tok > 20 THEN 20 ELSE tok END / 20.0) AS score
  FROM s),
g AS (SELECT CASE WHEN score >= 0.5 THEN 'keep' ELSE 'drop' END AS gate,
             score FROM sc)
SELECT gate, CAST(count(*) AS BIGINT) AS n,
       ROUND(avg(score), 6) AS avg_score,
       ROUND(min(score), 6) AS min_score,
       ROUND(max(score), 6) AS max_score
FROM g GROUP BY gate
"""


@register("clip_alignment_filter_stats", sql=_ALIGN_SQL)
def clip_alignment_filter_stats(sf_dir: str):
    ds = table(sf_dir, "documents", ["doc_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy(dtype=np.int64)
        u = ((d * 2654435761) % 4294967296).astype(np.float64) / 4294967296.0
        tok = (
            df["text"].str.split().str.len().fillna(0).to_numpy(dtype=np.float64)
        )
        score = 0.2 + 0.6 * u + 0.2 * (np.minimum(tok, 20.0) / 20.0)
        keep = score >= 0.5
        out = pd.DataFrame({"gate": np.where(keep, "keep", "drop"),
                            "score": score})
        g = out.groupby("gate", as_index=False).agg(
            n=("score", "size"), s_sum=("score", "sum"),
            s_min=("score", "min"), s_max=("score", "max"),
        )
        return g

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby("gate", as_index=False).agg(
            n=("n", "sum"), s_sum=("s_sum", "sum"),
            s_min=("s_min", "min"), s_max=("s_max", "max"),
        )
        return pa.table(
            {
                "gate": pa.array(g["gate"], pa.string()),
                "n": pa.array(g["n"].to_numpy(dtype=np.int64)),
                "avg_score": pa.array(
                    round_half_away(g["s_sum"].to_numpy() / g["n"].to_numpy(), 6)
                ),
                "min_score": pa.array(round_half_away(g["s_min"].to_numpy(), 6)),
                "max_score": pa.array(round_half_away(g["s_max"].to_numpy(), 6)),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas")
    return combine_small(partials, finish)


# --------------------------------------------------------------------------
# WebDataset-style shard assignment: shard = FNV-1a64(image_id) % N_SHARDS.
#
# Hash sharding (not round-robin) so the assignment is a pure row
# property — resumable, order-independent, and identical on any cluster
# size. The stats prove balance; the actual write is the resumable hive
# sink partitioned by `shard` (io/partsink.py), exercised in tests.
N_WDS_SHARDS = 16

_WDS_SQL = f"""
WITH ids AS (
  SELECT printf('img-%08d', doc_id) AS image_id,
         CAST(32 + (doc_id * 7) % 33 AS BIGINT) *
         CAST(32 + (doc_id * 11) % 33 AS BIGINT) * 3 AS raw_bytes
  FROM documents),
fp AS (
  SELECT raw_bytes,
         list_reduce(
           list_prepend(CAST(14695981039346656037 AS HUGEINT),
                        [CAST(ord(substr(image_id, i, 1)) AS HUGEINT)
                         for i in range(1, length(image_id) + 1)]),
           (acc, x) -> (xor(acc, x) * 1099511628211) %
                       CAST(18446744073709551616 AS HUGEINT)
         ) AS h
  FROM ids)
SELECT CAST(h % {N_WDS_SHARDS} AS BIGINT) AS shard,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(raw_bytes) AS BIGINT) AS raw_bytes
FROM fp GROUP BY shard
"""


def _fnv1a64_fixed12(ids: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a over the fixed-width 12-char image_id strings:
    one uint64 lane per row, folding the 12 byte-columns — no Python loop
    over rows (the loop is over the 12 characters)."""
    b = ids.astype("S12").view(np.uint8).reshape(-1, 12).astype(np.uint64)
    with np.errstate(over="ignore"):
        h = np.full(b.shape[0], np.uint64(0xCBF29CE484222325))
        prime = np.uint64(0x100000001B3)
        for j in range(12):
            h = (h ^ b[:, j]) * prime  # uint64 wraparound == mod 2^64
    return h


@register("webdataset_shard_stats", sql=_WDS_SQL)
def webdataset_shard_stats(sf_dir: str):
    ds = table(sf_dir, "documents", ["doc_id"])

    def partial(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        w, h = _dims_from_doc_id(d)
        raw = (w * h * 3).astype(np.int64)
        ids = np.array([f"img-{x:08d}" for x in d])
        shard = (_fnv1a64_fixed12(ids) % np.uint64(N_WDS_SHARDS)).astype(np.int64)
        tmp = pa.table({"shard": pa.array(shard), "raw_bytes": pa.array(raw)})
        return (
            pa.TableGroupBy(tmp, "shard")
            .aggregate([([], "count_all"), ("raw_bytes", "sum")])
            .rename_columns(["shard", "n", "raw_bytes"])
        )

    def finish(t: pa.Table) -> pa.Table:
        agg = (
            pa.TableGroupBy(t, "shard")
            .aggregate([("n", "sum"), ("raw_bytes", "sum")])
            .rename_columns(["shard", "n", "raw_bytes"])
        )
        return pa.table(
            {
                "shard": _i64(agg["shard"]),
                "n": _i64(agg["n"]),
                "raw_bytes": _i64(agg["raw_bytes"]),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return combine_small(partials, finish)


def wds_shard_column(t: pa.Table, id_col: str = "image_id") -> pa.Table:
    """Append the WebDataset shard id to an image payload block — the
    map_batches stage a real shard write composes with the hive sink."""
    ids = np.asarray(t[id_col].to_pylist())
    shard = (_fnv1a64_fixed12(ids) % np.uint64(N_WDS_SHARDS)).astype(np.int64)
    return t.append_column("shard", pa.array(shard))


# --------------------------------------------------------------------------
# Corpus per-channel pixel statistics (normalization constants).
#
# Decodes every image (codec in the loop — actor-pool stage like
# ImageFeatures) and folds per-block (count, sum, sum-of-squares) per
# channel; one local combine finishes mean/std. The partial is ONE row
# per block at any scale. No SQL oracle (pixels live behind the codec);
# the pytest oracle recomputes with a direct per-image loop.
@register("image_channel_pixel_stats", sql=None)
def image_channel_pixel_stats(sf_dir: str):
    from .crawlq import _payload_images

    class ChannelPartials:
        """Stateful stage shape (real codecs would init decoder tables
        here); decode is inherently per-item, the fold is vectorized."""

        def __call__(self, t: pa.Table) -> pa.Table:
            from ..core.codec import decode_image

            n_px = 0
            s = np.zeros(3, dtype=np.float64)
            ss = np.zeros(3, dtype=np.float64)
            for blob in t["bytes"].to_pylist():
                px, _ = decode_image(blob)
                f = px.reshape(-1, 3).astype(np.float64)
                n_px += f.shape[0]
                s += f.sum(axis=0)
                ss += (f * f).sum(axis=0)
            return pa.table(
                {
                    "n_px": pa.array([n_px], pa.int64()),
                    "sum_r": pa.array([s[0]]), "sum_g": pa.array([s[1]]),
                    "sum_b": pa.array([s[2]]),
                    "ss_r": pa.array([ss[0]]), "ss_g": pa.array([ss[1]]),
                    "ss_b": pa.array([ss[2]]),
                }
            )

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        n = float(df["n_px"].sum())
        chans, means, stds = [], [], []
        for c in ("r", "g", "b"):
            s, ss = df[f"sum_{c}"].sum(), df[f"ss_{c}"].sum()
            mean = s / n
            var = max(ss / n - mean * mean, 0.0)
            chans.append(c)
            means.append(mean)
            stds.append(float(np.sqrt(var)))
        return pa.table(
            {
                "channel": pa.array(chans, pa.string()),
                "mean": pa.array(round_half_away(means, 6)),
                "std": pa.array(round_half_away(stds, 6)),
                "n_px": pa.array([int(n)] * 3, pa.int64()),
            }
        )

    partials = _payload_images(sf_dir).map_batches(
        ChannelPartials, batch_format="pyarrow", batch_size=64,
        concurrency=pool_size(),
    )
    return combine_small(partials, finish)


# --------------------------------------------------------------------------
# The end-to-end curation pipeline as ONE FUSED vectorized pass: quality
# gate (decoded-dim rule shared with image_quality_filter_stats) →
# alignment gate (the CLIP stub) → aspect-bucket routing for survivors,
# with rejects routed to 'rej:quality' / 'rej:alignment' buckets. One
# map_batches over (doc_id, text), fixed output cardinality (7 buckets +
# 2 reject lanes) → per-block Arrow partials + one local combine; zero
# shuffles at any input scale. This is what a user's "curate my
# image+caption corpus" job compiles to — each gate is also available as
# its own audited operator.
_CURATE_SQL = f"""
WITH d AS (
  SELECT CAST(32 + (doc_id * 7) % 33 AS DOUBLE) AS w,
         CAST(32 + (doc_id * 11) % 33 AS DOUBLE) AS h,
         CAST((doc_id * 2654435761) % 4294967296 AS DOUBLE) / 4294967296.0
           AS u,
         CASE WHEN trim(text) = '' THEN 0
              ELSE length(string_split_regex(trim(text), '\\s+')) END AS tok
  FROM documents),
s AS (
  SELECT w / h AS aspect,
         (least(w, h) >= 40 AND w / h BETWEEN 0.5 AND 2.0) AS q_ok,
         0.2 + 0.6 * u
           + 0.2 * (CASE WHEN tok > 20 THEN 20 ELSE tok END / 20.0) AS score
  FROM d),
b AS (
  SELECT CASE WHEN NOT q_ok THEN 'rej:quality'
              WHEN score < 0.5 THEN 'rej:alignment'
              {_ASPECT_SQL_CASE.replace("WHEN aspect", "WHEN q_ok AND score >= 0.5 AND aspect")} END
           AS bucket
  FROM s)
SELECT bucket, CAST(count(*) AS BIGINT) AS n FROM b GROUP BY bucket
"""


@register("image_caption_curation_pipeline", sql=_CURATE_SQL)
def image_caption_curation_pipeline(sf_dir: str):
    ds = table(sf_dir, "documents", ["doc_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy(dtype=np.int64)
        w, h = _dims_from_doc_id(d)
        w = w.astype(np.float64)
        h = h.astype(np.float64)
        aspect = w / h
        q_ok = (np.minimum(w, h) >= 40) & (aspect >= 0.5) & (aspect <= 2.0)
        u = ((d * 2654435761) % 4294967296).astype(np.float64) / 4294967296.0
        tok = df["text"].str.split().str.len().fillna(0).to_numpy(np.float64)
        score = 0.2 + 0.6 * u + 0.2 * (np.minimum(tok, 20.0) / 20.0)
        bucket = np.asarray(_ASPECT_BUCKETS, dtype=object)[
            np.digitize(aspect, _ASPECT_BOUNDS)
        ]
        bucket = np.where(~q_ok, "rej:quality",
                          np.where(score < 0.5, "rej:alignment", bucket))
        return (
            pd.DataFrame({"bucket": bucket})
            .groupby("bucket", as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    def finish(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("bucket", as_index=False)["n"].sum()
        return pa.table(
            {
                "bucket": pa.array(g["bucket"], pa.string()),
                "n": pa.array(g["n"].to_numpy(dtype=np.int64)),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pandas"),
                         finish)


# --------------------------------------------------------------------------
# phash LSH banding — the at-scale near-duplicate candidate generator for
# the north rule's phash:int64 payload column, SQL-verified END TO END.
#
# ``image_phash_neardup_groups`` (crawlq.py) runs the same banding shape
# over codec-derived phashes (python-oracled: the fake codec is not SQL-
# replayable). Here the phash is an ARITHMETIC stand-in — FNV-1a over the
# 8 little-endian bytes of doc_id//2, with 0/1/2 deterministic noise-bit
# flips on odd ids — so DuckDB replays the ENTIRE chain in HUGEINT
# mod-2^64: hash → 4×16-bit bands → band-bucket self-join → XOR popcount
# radius filter. That pins the LSH banding algebra itself (band split,
# bucket co-location, pigeonhole completeness at radius ≤ 3, first-band
# pair emission) with a value-hash oracle.
#
# Scale shape: band rows are 16 B × 4n; the shuffle moves bands, never
# images. Pairs are emitted from the FIRST band two hashes share (earlier
# band inequality checked locally from the two hashes), so no distinct-
# pair dedup shuffle exists. 16-bit bands assume corpus ≤ ~10^7 per
# bucket-balance; at 10^9-10^10 images widen to 8×8-bit multi-probe or
# salt hot bands — same pipeline, different constants (documented
# DESIGN.md trade-off, matching image_phash_neardup_groups's note).

_PHASH_RADIUS = 3

_FNV_SQL = """
      list_reduce(
        list_prepend(CAST(14695981039346656037 AS HUGEINT),
                     [CAST((kk >> (8 * i)) & 255 AS HUGEINT)
                      for i in range(0, 8)]),
        (acc, x) -> (xor(acc, x) * 1099511628211) %
                    CAST(18446744073709551616 AS HUGEINT)
      )
"""

# noise masks: odd ids flip bit 5 (doc_id%3==1) or bits {5,37} (==2)
_PHASH_SQL_BASE = f"""
    k AS (SELECT doc_id, CAST(doc_id // 2 AS HUGEINT) AS kk FROM documents),
    f AS (SELECT doc_id, {_FNV_SQL} AS fh FROM k),
    p AS (SELECT doc_id,
                 xor(fh, CASE
                       WHEN doc_id % 2 = 1 AND doc_id % 3 = 1
                         THEN CAST(32 AS HUGEINT)
                       WHEN doc_id % 2 = 1 AND doc_id % 3 = 2
                         THEN CAST(137438953504 AS HUGEINT)
                       ELSE CAST(0 AS HUGEINT) END) AS ph
          FROM f)
"""

_PHASH_LSH_SQL = f"""
WITH {_PHASH_SQL_BASE},
band AS (
  SELECT doc_id, ph, j, CAST((ph >> (16 * j)) & 65535 AS BIGINT) AS bv
  FROM p CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS j)),
pairs AS (
  SELECT DISTINCT a.doc_id AS image_a, b.doc_id AS image_b,
         a.ph AS ha, b.ph AS hb
  FROM band a JOIN band b
    ON a.j = b.j AND a.bv = b.bv AND a.doc_id < b.doc_id),
ham AS (
  SELECT image_a, image_b,
         bit_count(CAST( xor(ha, hb)        & 65535 AS BIGINT)) +
         bit_count(CAST((xor(ha, hb) >> 16) & 65535 AS BIGINT)) +
         bit_count(CAST((xor(ha, hb) >> 32) & 65535 AS BIGINT)) +
         bit_count(CAST((xor(ha, hb) >> 48) & 65535 AS BIGINT)) AS hamming
  FROM pairs)
SELECT image_a, image_b, CAST(hamming AS BIGINT) AS hamming
FROM ham WHERE hamming <= {_PHASH_RADIUS}
"""


def _arith_phash(doc_id: np.ndarray) -> np.ndarray:
    """uint64 arithmetic phash: FNV-1a of the 8 LE bytes of doc_id//2,
    with deterministic noise-bit flips on odd ids (mirrors
    ``_PHASH_SQL_BASE`` bit for bit)."""
    d = doc_id.astype(np.int64)
    k = (d // 2).astype(np.uint64)
    h = np.full(k.shape, 0xCBF29CE484222325, dtype=np.uint64)
    for i in range(8):
        h = (h ^ ((k >> np.uint64(8 * i)) & np.uint64(0xFF))) * np.uint64(
            0x100000001B3
        )
    odd = (d % 2) == 1
    nb = d % 3
    mask = np.zeros(k.shape, dtype=np.uint64)
    mask[odd & (nb == 1)] = np.uint64(1 << 5)
    mask[odd & (nb == 2)] = np.uint64((1 << 5) | (1 << 37))
    return h ^ mask


def _popcnt_u64(v: np.ndarray) -> np.ndarray:
    v = v - ((v >> np.uint64(1)) & np.uint64(0x5555555555555555))
    v = (v & np.uint64(0x3333333333333333)) + (
        (v >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (v * np.uint64(0x0101010101010101)) >> np.uint64(56)


@register("image_phash_band_lsh_pairs", sql=_PHASH_LSH_SQL)
def image_phash_band_lsh_pairs(sf_dir: str):
    """Near-dup candidate pairs via 4×16-bit phash banding, radius ≤ 3.

    Shape: (doc_id, phash) rows explode to 4 band rows keyed by
    ``band_value | band_idx << 16``; ``bucketed_group_agg`` co-locates
    each band bucket (high-cardinality key → bucketed shuffle, not a
    per-key Python reduce); inside a bucket only keys with ≥ 2 members
    survive a vectorized size filter, then per-collision-group XOR +
    popcount emits in-radius pairs — from the FIRST shared band only
    (earlier-band equality recheck is local arithmetic on the two
    hashes), so pairs are globally distinct without a dedup shuffle."""
    from .common import bucketed_group_agg

    ds = table(sf_dir, "documents", ["doc_id"])

    def bands(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy()
        ph = _arith_phash(d)
        keys, ids, phs = [], [], []
        for j in range(4):
            bv = (ph >> np.uint64(16 * j)) & np.uint64(0xFFFF)
            keys.append((bv | np.uint64(j << 16)).astype(np.int64))
            ids.append(d.astype(np.int64))
            phs.append(ph.view(np.int64))
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(keys)),
                "doc_id": pa.array(np.concatenate(ids)),
                "phash": pa.array(np.concatenate(phs)),
            }
        )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("band_key")["doc_id"].transform("size")
        g = g[sizes >= 2]
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_h: list[np.ndarray] = []
        # loop bounded by COLLIDING keys (≈ pair count), not bucket rows
        for bk, gg in g.groupby("band_key", sort=False):
            j = int(bk) >> 16
            ids = gg["doc_id"].to_numpy()
            order = np.argsort(ids)
            ids = ids[order]
            phu = gg["phash"].to_numpy()[order].view(np.uint64)
            x = phu[:, None] ^ phu[None, :]
            ham = _popcnt_u64(x)
            ok = np.triu(ham <= _PHASH_RADIUS, k=1)
            for jp in range(j):  # first-shared-band emission
                sh = np.uint64(16 * jp)
                bva = (phu >> sh) & np.uint64(0xFFFF)
                ok &= bva[:, None] != bva[None, :]
            ai, bi = np.where(ok)
            if len(ai):
                out_a.append(ids[ai])
                out_b.append(ids[bi])
                out_h.append(ham[ai, bi].astype(np.int64))
        if not out_a:
            return pd.DataFrame(
                {
                    "image_a": pd.Series([], dtype="int64"),
                    "image_b": pd.Series([], dtype="int64"),
                    "hamming": pd.Series([], dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "image_a": np.concatenate(out_a),
                "image_b": np.concatenate(out_b),
                "hamming": np.concatenate(out_h),
            }
        )

    band_rows = ds.map_batches(bands, batch_format="pyarrow")
    return bucketed_group_agg(band_rows, ["band_key"], pairs_in_bucket)


# --------------------------------------------------------------------------
# Keep-highest-resolution per EXACT-phash group — the canonical-variant
# selection step after hash dedup (keep the best master, drop re-encodes).
# Same arithmetic phash as above (SQL-replayable); keeper = max pixel
# count, doc_id ascending tie-break; only multi-member groups are emitted
# (output is bounded by the duplicate count, not the corpus).

_PHASH_BESTRES_SQL = f"""
WITH {_PHASH_SQL_BASE},
d AS (
  SELECT doc_id, ph,
         32 + (doc_id * 7) % 33 AS w,
         32 + (doc_id * 11) % 33 AS hh
  FROM p),
r AS (
  SELECT doc_id, ph, w, hh,
         ROW_NUMBER() OVER (PARTITION BY ph
                            ORDER BY w * hh DESC, doc_id) AS rn,
         COUNT(*) OVER (PARTITION BY ph) AS n
  FROM d)
SELECT doc_id AS keeper, CAST(n AS BIGINT) AS group_n,
       CAST(w AS BIGINT) AS keep_w, CAST(hh AS BIGINT) AS keep_h
FROM r WHERE rn = 1 AND n >= 2
"""


@register("image_phash_best_resolution", sql=_PHASH_BESTRES_SQL)
def image_phash_best_resolution(sf_dir: str):
    """One keeper row per exact-phash duplicate group: the member with
    the most pixels (doc_id tie-break). High-cardinality key (≈ one
    group per image) → ``bucketed_group_agg``; dims come from the payload
    schema (input_hint w/h), recomputed here from doc_id like every
    imageprep op so the SQL side replays them."""
    from .common import bucketed_group_agg

    ds = table(sf_dir, "documents", ["doc_id"])

    def rows(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        ph = _arith_phash(d).view(np.int64)
        w, hh = _dims_from_doc_id(d)
        return pa.table(
            {
                "doc_id": pa.array(d),
                "phash": pa.array(ph),
                "w": pa.array(w.astype(np.int64)),
                "h": pa.array(hh.astype(np.int64)),
            }
        )

    def best_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(pixels=g["w"] * g["h"])
        g = g.sort_values(
            ["phash", "pixels", "doc_id"], ascending=[True, False, True]
        )
        n = g.groupby("phash")["doc_id"].transform("size")
        first = ~g["phash"].duplicated()
        keep = g[first & (n >= 2)]
        return pd.DataFrame(
            {
                "keeper": keep["doc_id"].to_numpy(),
                "group_n": n[first & (n >= 2)].to_numpy().astype(np.int64),
                "keep_w": keep["w"].to_numpy(),
                "keep_h": keep["h"].to_numpy(),
            }
        )

    return bucketed_group_agg(
        ds.map_batches(rows, batch_format="pyarrow"),
        ["phash"],
        best_in_bucket,
    )


# --------------------------------------------------------------------------
# Letterbox resize planning — for each aspect bucket, the fixed training
# canvas and the per-image resize+pad arithmetic (the numbers the decode
# actor pool needs: scale factor, resized dims, pad pixels). Pure
# metadata arithmetic over the payload dims (no decode), fixed output
# cardinality (7 buckets) → per-block partials + one local combine, zero
# shuffles at any scale. Scale sums are accumulated as integer
# micro-units so Ray's and DuckDB's float summation orders cannot
# diverge; the per-image scale/floor arithmetic is replayed in SQL with
# the IDENTICAL expression shapes (same IEEE doubles both sides).

# per-bucket target canvas (w, h): ~0.26 MPix each, aspect-matched
_CANVAS = {
    "1:2": (352, 704),
    "2:3": (416, 624),
    "3:4": (448, 592),
    "1:1": (512, 512),
    "4:3": (592, 448),
    "3:2": (624, 416),
    "2:1": (704, 352),
}

_CANVAS_SQL_W = " ".join(
    f"WHEN '{b}' THEN {w}" for b, (w, _h) in _CANVAS.items()
)
_CANVAS_SQL_H = " ".join(
    f"WHEN '{b}' THEN {h}" for b, (_w, h) in _CANVAS.items()
)

_LETTERBOX_SQL = f"""
WITH d AS (
  SELECT CAST(32 + (doc_id * 7) % 33 AS BIGINT) AS w,
         CAST(32 + (doc_id * 11) % 33 AS BIGINT) AS h
  FROM documents),
b AS (
  SELECT w, h,
         CASE {_ASPECT_SQL_CASE.replace('aspect',
                                        'CAST(w AS DOUBLE) / CAST(h AS DOUBLE)')}
           END AS bucket
  FROM d),
c AS (
  SELECT w, h, bucket,
         CASE bucket {_CANVAS_SQL_W} END AS cw,
         CASE bucket {_CANVAS_SQL_H} END AS ch
  FROM b),
p AS (
  SELECT bucket, cw, ch,
         LEAST(CAST(cw AS DOUBLE) / w, CAST(ch AS DOUBLE) / h) AS scale,
         CAST(FLOOR(w * LEAST(CAST(cw AS DOUBLE) / w,
                              CAST(ch AS DOUBLE) / h)) AS BIGINT) AS rw,
         CAST(FLOOR(h * LEAST(CAST(cw AS DOUBLE) / w,
                              CAST(ch AS DOUBLE) / h)) AS BIGINT) AS rh
  FROM c)
SELECT bucket,
       CAST(count(*) AS BIGINT) AS n,
       CAST(MAX(cw) AS BIGINT) AS canvas_w,
       CAST(MAX(ch) AS BIGINT) AS canvas_h,
       ROUND(CAST(SUM(CAST(ROUND(scale * 1000000) AS BIGINT)) AS DOUBLE)
             / (1000000.0 * count(*)), 6) AS avg_scale,
       CAST(SUM(cw * ch - rw * rh) AS BIGINT) AS pad_pixels
FROM p GROUP BY bucket
"""


@register("image_letterbox_plan", sql=_LETTERBOX_SQL)
def image_letterbox_plan(sf_dir: str):
    ds = table(sf_dir, "documents", ["doc_id"])

    bucket_names = np.asarray(_ASPECT_BUCKETS, dtype=object)
    cw_by_bucket = {b: w for b, (w, _h) in _CANVAS.items()}
    ch_by_bucket = {b: h for b, (_w, h) in _CANVAS.items()}

    def partial(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        w, h = _dims_from_doc_id(d)
        w = w.astype(np.int64)
        h = h.astype(np.int64)
        aspect = w.astype(np.float64) / h.astype(np.float64)
        bucket = bucket_names[np.digitize(aspect, _ASPECT_BOUNDS)]
        cw = np.array([cw_by_bucket[b] for b in bucket], dtype=np.int64)
        ch = np.array([ch_by_bucket[b] for b in bucket], dtype=np.int64)
        scale = np.minimum(cw.astype(np.float64) / w,
                           ch.astype(np.float64) / h)
        rw = np.floor(w * scale).astype(np.int64)
        rh = np.floor(h * scale).astype(np.int64)
        from .common import round_half_away

        tmp = pa.table(
            {
                "bucket": pa.array(bucket, pa.string()),
                "cw": pa.array(cw),
                "ch": pa.array(ch),
                "scale_u": pa.array(
                    round_half_away(scale * 1_000_000, 0).astype(np.int64)
                ),
                "pad": pa.array(cw * ch - rw * rh),
            }
        )
        return (
            pa.TableGroupBy(tmp, "bucket")
            .aggregate(
                [([], "count_all"), ("cw", "max"), ("ch", "max"),
                 ("scale_u", "sum"), ("pad", "sum")]
            )
            .rename_columns(
                ["bucket", "n", "canvas_w", "canvas_h", "scale_u", "pad"]
            )
        )

    def finish(t: pa.Table) -> pa.Table:
        from .common import round_half_away

        g = (
            pa.TableGroupBy(t, "bucket")
            .aggregate(
                [("n", "sum"), ("canvas_w", "max"), ("canvas_h", "max"),
                 ("scale_u", "sum"), ("pad", "sum")]
            )
            .rename_columns(
                ["bucket", "n", "canvas_w", "canvas_h", "scale_u", "pad"]
            )
        )
        n = g["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        su = g["scale_u"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "bucket": g["bucket"],
                "n": _i64(g["n"]),
                "canvas_w": _i64(g["canvas_w"]),
                "canvas_h": _i64(g["canvas_h"]),
                "avg_scale": pa.array(
                    round_half_away(su / (1_000_000.0 * n), 6)
                ),
                "pad_pixels": _i64(g["pad"]),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"),
                         finish)


# --------------------------------------------------------------------------
# Curated-corpus EXPORT — the capstone composition a production user runs
# end to end: payload build → quality gate (decoded dims + aspect) →
# exact-bytes dedup (keep first) → alignment-score gate → WebDataset FNV
# shard assignment → RESUMABLE hive-partitioned parquet write
# (io/partsink: per-shard _SUCCESS commits, crash-safe re-run skips
# finished shards). Returns the export manifest: one row per shard with
# row counts + byte totals read back FROM THE WRITTEN FILES, plus the
# gate ledger, so the output is verified where it landed, not where it
# was produced. Rows-only (writes under the crawl fixture base; codec in
# the loop); pytest pins the gate ledger reconciliation and the
# resume-skip contract.
#
# Scale shape: every stage is the already-verified operator (decode gate
# = image_quality_filter's, dedup = image_exact_dedup_bytes's digest
# partials with a broadcast keeper set, shard = webdataset FNV); the
# export itself is Ray Data's hive write — bytes stream from build task
# to shard file without any driver materialization, and the dedup
# broadcast is the keeper-digest set (bounded by distinct images).
@register("curated_corpus_export", sql=None)
def curated_corpus_export(sf_dir: str, out_dir: str | None = None):
    import hashlib as _hashlib
    import shutil

    import pyarrow.compute as pc
    import ray as _ray

    from ..core.codec import decode_image
    from ..io.partsink import read_partitioned, write_partitioned_resumable
    from .crawlq import _new_out_dir, _payload_images

    if out_dir is None:
        out_dir = _new_out_dir("export", sf_dir)
        shutil.rmtree(out_dir, ignore_errors=True)

    payload = _payload_images(sf_dir)

    # pass 1 (metadata): keeper digest per exact-duplicate group — digest
    # computed where the bytes live; only (digest, min image_id) rows move
    def digest_partial(t: pa.Table) -> pa.Table:
        digs = pa.array(
            [_hashlib.sha1(b).hexdigest() for b in t["bytes"].to_pylist()]
        )
        part = pa.table({"digest": digs, "image_id": t["image_id"]})
        return (
            pa.TableGroupBy(part, "digest")
            .aggregate([("image_id", "min")])
            .rename_columns(["digest", "keeper"])
        )

    keepers = combine_small(
        payload.map_batches(digest_partial, batch_format="pyarrow",
                            batch_size=256),
        lambda t: pa.TableGroupBy(t, "digest")
        .aggregate([("keeper", "min")])
        .rename_columns(["digest", "keeper"]),
    )
    keeper_ids = _ray.put(
        np.sort(keepers["keeper"].to_numpy(zero_copy_only=False))
    )

    counters = {"total": 0, "rej_quality": 0, "rej_dup": 0,
                "rej_alignment": 0, "kept": 0}

    # pass 2 (streamed): gates + shard assignment, bytes stay in-stream
    def curate(t: pa.Table) -> pa.Table:
        ks = _ray.get(keeper_ids)
        ids = np.asarray(t["image_id"].to_pylist())
        blobs = t["bytes"].to_pylist()
        w = np.zeros(len(ids), dtype=np.int64)
        h = np.zeros(len(ids), dtype=np.int64)
        for i, b in enumerate(blobs):  # decode is inherently per-item
            px, _ = decode_image(b)
            h[i], w[i] = px.shape[0], px.shape[1]
        aspect = w / np.maximum(h, 1)
        q_ok = (np.minimum(w, h) >= 40) & (aspect >= 0.5) & (aspect <= 2.0)
        is_keeper = isin_sorted(ks, ids)
        d = np.array([int(x[4:]) for x in ids], dtype=np.int64)
        u = ((d * 2654435761) % 4294967296).astype(np.float64) / 4294967296.0
        a_ok = u >= 0.3
        keep = q_ok & is_keeper & a_ok
        shard = (_fnv1a64_fixed12(ids) % np.uint64(N_WDS_SHARDS)).astype(
            np.int64
        )
        out = pa.table(
            {
                "shard": pa.array(shard[keep]),
                "image_id": pa.array(ids[keep], pa.string()),
                "bytes": t["bytes"].filter(pa.array(keep)),
                "w": pa.array(w[keep]),
                "h": pa.array(h[keep]),
                "caption": pc.binary_join_element_wise(
                    pa.array(["caption of"] * int(keep.sum())),
                    pa.array(ids[keep], pa.string()), " "
                ),
            }
        )
        return out

    # gate accounting is recomputed from the WRITTEN files below (the
    # stream is consumed by the export; at scale the gates would also
    # bump actor-held lineage counters like the crawl's CrawlStats)
    curated = payload.map_batches(curate, batch_format="pyarrow",
                                  batch_size=256)
    result = write_partitioned_resumable(curated, out_dir, "shard")

    back = read_partitioned(out_dir, "shard",
                            columns=["shard", "image_id", "w", "h"])
    bdf = back.to_pandas()  # manifest-scale: kept rows' metadata only
    bdf["shard"] = bdf["shard"].astype("int64")
    g = bdf.groupby("shard", as_index=False).agg(
        n=("image_id", "count"), px=("w", "sum")
    )
    n_total = table_num_rows(sf_dir, "documents")
    g["written_now"] = g["shard"].astype(str).isin(
        set(result["written"])
    )
    g["corpus_rows"] = n_total
    return pa.Table.from_pandas(
        g.sort_values("shard").reset_index(drop=True), preserve_index=False
    )


# --------------------------------------------------------------------------
# Training-batch packing per (aspect bucket, shard): the step between
# curation and the data loader — images are grouped into fixed-size
# batches that never mix aspect buckets (so one batch shares a canvas and
# collates without padding waste) and never cross shards (so a worker can
# pack its own shard with NO global coordination; the packing is
# embarrassingly parallel in (bucket, shard), which is what makes it hold
# at 10^10 images — shard count is the parallelism knob a real export
# scales with corpus size, 64 here to keep the oracle output readable).
# Deterministic order within a group = ascending doc_id, so the plan is
# reproducible run-to-run and SQL-replayable with ROW_NUMBER.
PACK_BATCH = 64
PACK_SHARDS = 64

_PACK_SQL = f"""
WITH d AS (
  SELECT doc_id,
         CAST(32 + (doc_id * 7) % 33 AS DOUBLE) /
         CAST(32 + (doc_id * 11) % 33 AS DOUBLE) AS aspect,
         doc_id % {PACK_SHARDS} AS shard
  FROM documents),
b AS (SELECT doc_id, shard, CASE {_ASPECT_SQL_CASE} END AS bucket FROM d),
r AS (SELECT bucket, shard, doc_id,
             ROW_NUMBER() OVER (PARTITION BY bucket, shard
                                ORDER BY doc_id) - 1 AS rn
      FROM b)
SELECT bucket, CAST(shard AS BIGINT) AS shard,
       CAST(rn // {PACK_BATCH} AS BIGINT) AS batch_id,
       CAST(count(*) AS BIGINT) AS n_imgs,
       CAST(min(doc_id) AS BIGINT) AS first_doc,
       CAST(max(doc_id) AS BIGINT) AS last_doc,
       count(*) = {PACK_BATCH} AS full
FROM r GROUP BY 1, 2, 3
"""


@register("image_train_batch_packing", sql=_PACK_SQL)
def image_train_batch_packing(sf_dir: str):
    from .common import bucketed_group_agg

    ds = table(sf_dir, "documents", ["doc_id"])

    bucket_names = np.asarray(_ASPECT_BUCKETS, dtype=object)

    def keyed(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        w, h = _dims_from_doc_id(d)
        aspect = w.astype(np.float64) / h.astype(np.float64)
        return pa.table(
            {
                "bucket": pa.array(
                    bucket_names[np.digitize(aspect, _ASPECT_BOUNDS)],
                    pa.string(),
                ),
                "shard": pa.array(d % PACK_SHARDS, pa.int64()),
                "doc_id": pa.array(d, pa.int64()),
            }
        )

    def pack_group(g: pd.DataFrame) -> pd.DataFrame:
        # one (bucket, shard) cell arrives whole; vectorized rank → batch
        g = g.sort_values(["bucket", "shard", "doc_id"], kind="mergesort")
        rn = g.groupby(["bucket", "shard"], sort=False).cumcount().to_numpy()
        g = g.assign(batch_id=(rn // PACK_BATCH).astype(np.int64))
        out = g.groupby(["bucket", "shard", "batch_id"], as_index=False).agg(
            n_imgs=("doc_id", "size"),
            first_doc=("doc_id", "min"),
            last_doc=("doc_id", "max"),
        )
        out["n_imgs"] = out["n_imgs"].astype(np.int64)
        out["full"] = out["n_imgs"] == PACK_BATCH
        return out

    return bucketed_group_agg(
        ds.map_batches(keyed, batch_format="pyarrow"),
        ["bucket", "shard"],
        pack_group,
    )
