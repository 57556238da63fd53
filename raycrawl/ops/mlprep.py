"""Training-data preparation operators: group-wise normalization,
stratified sampling, outer-join enrichment, range joins and clustering.

These extend the reference's per-record feature extraction
(``pages/Preprocess_scripts/Functions.py:37-94`` ``process_tweet``) and
grouped statistics (``PreprocessDump.py:21-34``) into the operations a
large-scale training-data pipeline needs. Every op follows the engine's
scale rules: small state (group stats, band edges, centroids) is reduced
from per-batch partials and broadcast once via ``ray.put``; the big table
is only ever streamed through vectorized ``map_batches``; the one
large-large op (outer-join enrichment) uses ``Dataset.join``'s
hash-partitioned shuffle. Float outputs are rounded identically on both
the Ray and SQL sides so summation-order jitter cannot break the driver's
value-hash compare.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from . import common
from .common import (LOOKUP_BROADCAST_MAX, SMALL_COMBINE_ROWS,
                     bucketed_group_agg, join_partitions, md5_u64_le,
                     round_half_away, table, table_num_rows)
from .queries import register

# --------------------------------------------------------------------------
# Group-wise z-score normalization (feature scaling per event_type).
# Canonical two-pass shape: per-batch partial moments -> tiny driver reduce
# (one row per group) -> broadcast stats -> streamed vectorized normalize.
# Mean and std are rounded to 6 decimals on BOTH sides before the z
# computation so parallel-summation jitter cannot shift a z value.


@register(
    "group_zscore_events",
    # GREATEST(var, 0) absorbs the tiny negative variance float error can
    # produce for a constant group (SQRT would hard-error); a zero-variance
    # group yields z = NULL on BOTH sides rather than NaN/inf
    sql="""
    WITH st AS (
      SELECT event_type,
             ROUND(SUM(value) / COUNT(*), 6) AS m,
             ROUND(SQRT(GREATEST(SUM(value * value) / COUNT(*)
                        - POWER(SUM(value) / COUNT(*), 2), 0)), 6) AS sd
      FROM events GROUP BY event_type)
    SELECT e.event_id, e.event_type,
           CASE WHEN st.sd > 0 THEN ROUND((e.value - st.m) / st.sd, 4)
                ELSE NULL END AS z
    FROM events e JOIN st USING (event_type)
    """,
)
def group_zscore_events(sf_dir: str):
    ds = table(sf_dir, "events", ["event_id", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"]
        sq = pc.multiply(v, v)
        t2 = t.append_column("sq", sq)
        return (
            pa.TableGroupBy(t2, "event_type")
            .aggregate([("value", "sum"), ("sq", "sum"), ("value", "count")])
            .rename_columns(["event_type", "s", "ss", "n"])
        )

    # driver reduce is one row per (block, group) -> tiny for low-cardinality
    # group keys (5 event types); at higher cardinality this becomes a small
    # groupby instead
    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("event_type").agg(s=("s", "sum"), ss=("ss", "sum"),
                                          n=("n", "sum"))
    stats = {
        et: (
            float(round_half_away(r.s / r.n, 6)),
            # clamp the variance at 0 (float error can push a constant
            # group slightly negative) — mirrors the SQL's GREATEST(.., 0);
            # rounding is half-away to match DuckDB ROUND's tie rule
            float(round_half_away(
                np.sqrt(max(r.ss / r.n - (r.s / r.n) ** 2, 0.0)), 6)),
        )
        for et, r in agg.iterrows()
    }
    ref = ray.put(stats)

    def normalize(t: pa.Table, *, ref) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"event_id": t["event_id"], "event_type": t["event_type"],
                 "z": pa.array([], pa.float64())}
            )
        st = ray.get(ref)  # local plasma lookup per batch
        # vectorized stat attach: dictionary-encode the group column, look
        # up stats only per DISTINCT value, fancy-index back per row
        enc = pc.dictionary_encode(t["event_type"]).combine_chunks()
        stats_by_code = [st[v] for v in enc.dictionary.to_pylist()]
        m, sd = (
            np.asarray(a)[enc.indices.to_numpy(zero_copy_only=False)]
            for a in zip(*stats_by_code)
        )
        v = t["value"].to_numpy(zero_copy_only=False)
        valid = sd > 0
        z = round_half_away((v - m) / np.where(valid, sd, 1.0), 4)
        return pa.table(
            {"event_id": t["event_id"], "event_type": t["event_type"],
             "z": pa.array(z, pa.float64(), mask=~valid)}
        )

    return ds.map_batches(normalize, fn_kwargs={"ref": ref},
                          batch_format="pyarrow")


# --------------------------------------------------------------------------
# Stratified deterministic sampling: fixed N docs per lang, chosen by
# smallest md5 hash (same md5_number_upper convention as hash_sample_docs,
# setops.py:88). Per-block local top-N per stratum -> the <= N x strata x
# blocks survivors merge on the driver -- no global sort, no shuffle.

STRATUM_N = 50


@register(
    "stratified_sample_docs",
    sql=f"""
    SELECT lang, doc_id, n_chars, CAST(r AS BIGINT) AS rank FROM (
      SELECT lang, doc_id, n_chars,
             ROW_NUMBER() OVER (
               PARTITION BY lang
               ORDER BY md5_number_upper(CAST(doc_id AS VARCHAR)), doc_id
             ) AS r
      FROM documents) WHERE r <= {STRATUM_N}
    """,
)
def stratified_sample_docs(sf_dir: str):
    ds = table(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.assign(h=pd.Series([], dtype="uint64"))
        df = df.assign(
            h=np.fromiter(
                (md5_u64_le(str(d)) for d in df["doc_id"]),
                dtype=np.uint64,
                count=len(df),
            )
        )
        return (
            df.sort_values(["lang", "h", "doc_id"])
            .groupby("lang", sort=False)
            .head(STRATUM_N)
        )

    pdf = ds.map_batches(local_top, batch_format="pandas").to_pandas()
    out = []
    for lang, g in pdf.groupby("lang"):
        g = g.sort_values(["h", "doc_id"]).head(STRATUM_N).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype="int64")
        out.append(g[["lang", "doc_id", "n_chars", "rank"]])
    if not out:
        return pd.DataFrame(
            {"lang": pd.Series([], dtype="object"),
             "doc_id": pd.Series([], dtype="int64"),
             "n_chars": pd.Series([], dtype="int64"),
             "rank": pd.Series([], dtype="int64")}
        )
    return pd.concat(out, ignore_index=True)


# --------------------------------------------------------------------------
# Deterministic train/val/test split audit: every doc is assigned a split
# by hash bucket (md5 % 100 → train <90, val <95, test otherwise — the
# standard holdout a training run carves before touching the data) and the
# op reports per-(lang, split) counts, the stratification check that
# confirms the hash split didn't skew a language. Assignment is pure
# per-row hashing (streamed, no shuffle); counts collapse per block into
# ≤ langs×3 partial rows, then one local Arrow combine (fixed-cardinality
# key → combine_small needs no row gate).

SPLIT_TRAIN_PCT = 90
SPLIT_VAL_PCT = 95  # val = buckets [90, 95); test = [95, 100)


@register(
    "train_eval_split_counts",
    sql=f"""
    WITH b AS (
      SELECT lang,
             md5_number_upper(CAST(doc_id AS VARCHAR)) % 100 AS bucket
      FROM documents)
    SELECT lang,
           CASE WHEN bucket < {SPLIT_TRAIN_PCT} THEN 'train'
                WHEN bucket < {SPLIT_VAL_PCT} THEN 'val'
                ELSE 'test' END AS split,
           CAST(count(*) AS BIGINT) AS n_docs
    FROM b GROUP BY lang, split
    """,
)
def train_eval_split_counts(sf_dir: str):
    from .common import combine_small

    ds = table(sf_dir, "documents", ["doc_id", "lang"])
    names = np.array(["train", "val", "test"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        bucket = np.fromiter(
            (md5_u64_le(str(d)) % 100 for d in ids),
            dtype=np.int64,
            count=len(ids),
        )
        split = names[
            np.where(
                bucket < SPLIT_TRAIN_PCT,
                0,
                np.where(bucket < SPLIT_VAL_PCT, 1, 2),
            )
        ]
        tmp = pa.table(
            {
                "lang": t["lang"],
                "split": pa.array(split, pa.string()),
                "n_docs": pa.array(np.ones(len(ids), dtype=np.int64)),
            }
        )
        return (
            pa.TableGroupBy(tmp, ["lang", "split"])
            .aggregate([("n_docs", "sum")])
            .rename_columns(["lang", "split", "n_docs"])
        )

    def finish(t: pa.Table) -> pa.Table:
        agg = (
            pa.TableGroupBy(t, ["lang", "split"])
            .aggregate([("n_docs", "sum")])
            .rename_columns(["lang", "split", "n_docs"])
        )
        return agg.set_column(
            2, "n_docs", pc.cast(agg["n_docs"], pa.int64())
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"), finish)


# --------------------------------------------------------------------------
# Left-outer-join enrichment with zero-fill: every customer annotated with
# its URGENT-order count and spend (0 if none). Unlike the broadcast-set
# anti-join (customers_without_urgent_orders), both sides here are
# table-sized at web scale, so this exercises Dataset.join's
# hash-partitioned LEFT OUTER path; money is summed as integer cents.


@register(
    "customer_urgent_order_stats",
    sql="""
    SELECT c_custkey, c_name,
           CAST(COALESCE(o.n, 0) AS BIGINT) AS n_urgent,
           CAST(COALESCE(o.spend_c, 0) AS DOUBLE) / 100 AS urgent_spend
    FROM customer c LEFT JOIN (
      SELECT o_custkey, COUNT(*) AS n,
             SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS spend_c
      FROM orders WHERE o_orderpriority = '1-URGENT'
      GROUP BY o_custkey) o ON o.o_custkey = c.c_custkey
    """,
)
def customer_urgent_order_stats(sf_dir: str):
    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "price_c": pc.cast(
                    pc.round(
                        pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ),
            }
        )

    counts = bucketed_group_agg(
        table(sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderpriority"])
        .filter(expr="o_orderpriority == '1-URGENT'")
        .map_batches(cents, batch_format="pyarrow"),
        ["o_custkey"],
        lambda g: g.groupby("o_custkey", as_index=False).agg(
            n=("price_c", "size"), spend_c=("price_c", "sum")
        ),
    )
    cust = table(sf_dir, "customer", ["c_custkey", "c_name"])

    # adaptive join (label_propagation's pattern): while the per-key count
    # table fits a broadcast object, a plasma-shared dict lookup per batch
    # beats the join operator's aggregator spin-up; past the threshold the
    # hash-partitioned LEFT OUTER Dataset.join takes over (path equivalence
    # is pytest-checked)
    counts = counts.materialize()
    if common.gate("customer_urgent_order_stats", "urgent_counts",
                   counts.count(), LOOKUP_BROADCAST_MAX):
        cdf = counts.to_pandas()
        if len(cdf) == 0:
            # no matching orders at all: an empty aggregate has no columns
            empty = np.array([], dtype=np.int64)
            ref = ray.put((empty, empty, empty))
        else:
            cdf = cdf.sort_values("o_custkey")
            # broadcast three SORTED numpy arrays (zero-copy out of plasma
            # on every ray.get, unlike a pickled dict) and look up per
            # batch with one searchsorted — ~24 B/row for real this time
            ref = ray.put(
                (
                    cdf["o_custkey"].to_numpy(np.int64),
                    cdf["n"].to_numpy(np.int64),
                    cdf["spend_c"].to_numpy(np.int64),
                )
            )

        def lookup(t: pa.Table, *, ref) -> pa.Table:
            keys_s, n_s, sp_s = ray.get(ref)
            keys = t["c_custkey"].to_numpy(zero_copy_only=False)
            if len(keys_s) == 0:  # no urgent orders at all -> all zeros
                ns = np.zeros(len(keys), dtype=np.int64)
                sp = np.zeros(len(keys), dtype=np.int64)
            else:
                pos_c = np.clip(np.searchsorted(keys_s, keys), 0,
                                len(keys_s) - 1)
                hit = keys_s[pos_c] == keys
                ns = np.where(hit, n_s[pos_c], 0)
                sp = np.where(hit, sp_s[pos_c], 0)
            return pa.table(
                {
                    "c_custkey": t["c_custkey"],
                    "c_name": t["c_name"],
                    "n_urgent": pa.array(ns, pa.int64()),
                    "urgent_spend": pa.array(sp / 100.0, pa.float64()),
                }
            )

        return cust.map_batches(lookup, fn_kwargs={"ref": ref},
                                batch_format="pyarrow")

    joined = cust.join(
        counts,
        join_type="left_outer",
        num_partitions=join_partitions(),
        on=("c_custkey",),
        right_on=("o_custkey",),
    )

    def finish(t: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.cast(t["n"], pa.int64()), 0)
        spend = pc.fill_null(pc.cast(t["spend_c"], pa.int64()), 0)
        return pa.table(
            {
                "c_custkey": t["c_custkey"],
                "c_name": t["c_name"],
                "n_urgent": n,
                "urgent_spend": pc.divide(
                    pc.cast(spend, pa.float64()), pa.scalar(100.0)
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Range join against a small band table: each part lands in its retail
# price band. The band table is tiny -> broadcast the edges once and bin
# with one vectorized searchsorted per batch (a shuffle range-join would
# move every row for 11 bands of state). The SQL oracle replays the bands
# as an inline VALUES list joined with the same half-open [lo, hi)
# semantics.

BAND_EDGES = [900 + 10 * i for i in range(11)]  # [900,910) ... [990,1000)


def _bands_sql_values() -> str:
    return ", ".join(
        f"({float(lo)}, {float(hi)})"
        for lo, hi in zip(BAND_EDGES[:-1], BAND_EDGES[1:])
    )


@register(
    "parts_price_band_stats",
    sql=f"""
    WITH bands(lo, hi) AS (VALUES {_bands_sql_values()})
    SELECT b.lo AS band_lo, b.hi AS band_hi, COUNT(*) AS n_parts,
           CAST(SUM(CAST(ROUND(p.p_retailprice * 100) AS BIGINT)) AS DOUBLE)
             / 100 AS sum_retail
    FROM part p JOIN bands b
      ON p.p_retailprice >= b.lo AND p.p_retailprice < b.hi
    GROUP BY b.lo, b.hi
    """,
)
def parts_price_band_stats(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    edges = np.asarray(BAND_EDGES, dtype=np.float64)
    ref = ray.put(edges)

    def binify(t: pa.Table, *, ref) -> pa.Table:
        e = ray.get(ref)
        price = t["p_retailprice"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(e, price, side="right") - 1
        keep = (idx >= 0) & (idx < len(e) - 1) & (price < e[-1])
        return pa.table(
            {
                "band_lo": pa.array(e[idx[keep]], pa.float64()),
                "band_hi": pa.array(e[idx[keep] + 1], pa.float64()),
                "price_c": pa.array(
                    np.floor(price[keep] * 100 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    return (
        table(sf_dir, "part", ["p_retailprice"])
        .map_batches(binify, fn_kwargs={"ref": ref}, batch_format="pyarrow")
        .groupby(["band_lo", "band_hi"])
        .aggregate(Count(alias_name="n_parts"), Sum("price_c", alias_name="sum_c"))
        .map_batches(
            lambda t: pa.table(
                {
                    "band_lo": t["band_lo"],
                    "band_hi": t["band_hi"],
                    "n_parts": t["n_parts"],
                    "sum_retail": pc.divide(
                        pc.cast(t["sum_c"], pa.float64()), pa.scalar(100.0)
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )


# --------------------------------------------------------------------------
# Pivot (long → wide): per-user event-type counts as columns. The
# vectorized shape: per-batch conditional partial counts collapse each
# block to ≤ users-in-block rows BEFORE the shuffle, then one groupby-sum;
# the column set is the (small, known) distinct-value domain.

PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


@register(
    "user_event_type_pivot",
    sql="SELECT user_id, "
    + ", ".join(
        f"CAST(SUM(CASE WHEN event_type = '{t}' THEN 1 ELSE 0 END) AS BIGINT)"
        f" AS n_{t}"
        for t in PIVOT_TYPES
    )
    + " FROM events GROUP BY user_id",
)
def user_event_type_pivot(sf_dir: str):
    from ray.data.aggregate import Sum

    ds = table(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"]
        cols = {"user_id": t["user_id"]}
        for ty in PIVOT_TYPES:
            cols[f"n_{ty}"] = pc.cast(pc.equal(et, ty), pa.int64())
        return (
            pa.TableGroupBy(pa.table(cols), "user_id")
            .aggregate([(f"n_{ty}", "sum") for ty in PIVOT_TYPES])
            .rename_columns(["user_id"] + [f"n_{ty}" for ty in PIVOT_TYPES])
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(*[Sum(f"n_{ty}", alias_name=f"n_{ty}")
                     for ty in PIVOT_TYPES])
    )


# --------------------------------------------------------------------------
# Unpivot / melt (wide → long): part numeric attributes as (key, value)
# rows — a pure per-batch fan-out (each input row emits one row per
# attribute), no shuffle at all.

UNPIVOT_COLS = ("p_size", "p_retailprice")


@register(
    "part_attributes_unpivot",
    sql="""
    SELECT p_partkey, 'p_size' AS attr, CAST(p_size AS DOUBLE) AS val
    FROM part
    UNION ALL
    SELECT p_partkey, 'p_retailprice' AS attr, p_retailprice AS val
    FROM part
    """,
)
def part_attributes_unpivot(sf_dir: str):
    ds = table(sf_dir, "part", ["p_partkey", *UNPIVOT_COLS])

    def melt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "p_partkey": pa.concat_arrays(
                    [t["p_partkey"].combine_chunks()] * len(UNPIVOT_COLS)
                ),
                "attr": pa.array(
                    [c for c in UNPIVOT_COLS for _ in range(n)], pa.string()
                ),
                "val": pa.concat_arrays(
                    [
                        pc.cast(t[c], pa.float64()).combine_chunks()
                        for c in UNPIVOT_COLS
                    ]
                ),
            }
        )

    return ds.map_batches(melt, batch_format="pyarrow")


# --------------------------------------------------------------------------
# K-means over the embedding column (Lloyd's, deterministic): init
# centroids = the first K vectors by vec_id, two assignment passes with one
# centroid update between them. Assignment + partial sums stream through
# map_batches against broadcast centroids; the reduce is K x dim doubles on
# the driver -- the same distributed-train shape as ann_ivf_topk's coarse
# quantizer. Distances are rounded to 6 decimals before the argmin (ties ->
# lowest cluster id) and centroids to 6 after each update, so the SQL
# oracle -- which unrolls both rounds -- lands on identical assignments.

KMEANS_K = 8
_EMB_DIM = 64


def _kmeans_dists(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    # rounded Euclidean distance matrix (batch, K); argmin tie-break =
    # lowest cluster id via first-minimum argmin over id-ordered columns
    return round_half_away(
        np.sqrt(((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)), 6
    )


def kmeans_one_update_centroids(sf_dir: str):
    """The deterministic Lloyd's fit shared by kmeans_embeddings and
    semdedup_cluster_prune: init = first K vectors by vec_id, ONE
    assignment + centroid update. Returns (centroids, cluster_ids) —
    K×dim doubles rounded to 6 dp, matching the SQL replay (c0→a1→c1)."""
    import os

    import pyarrow.dataset as pads

    ds = table(sf_dir, "embeddings", ["vec_id", "embedding"])

    # init: the first K vectors -- a row-group-pruned driver-side read
    t = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id") < KMEANS_K,
    )
    df0 = t.to_pandas().sort_values("vec_id")
    cent = np.stack(df0["embedding"].to_numpy()).astype(np.float64)
    cluster_ids = df0["vec_id"].to_numpy().astype(np.int64)

    # pass 1: assign against init centroids, emit per-cluster partial sums
    def partial_sums(df: pd.DataFrame, *, ref) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"cl": [], "s": [], "n": []})
        c, ids = ray.get(ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        assign = ids[np.argmin(_kmeans_dists(m, c), axis=1)]
        rows = {"cl": [], "s": [], "n": []}
        for cl in np.unique(assign):
            sel = m[assign == cl]
            rows["cl"].append(int(cl))
            rows["s"].append(sel.sum(axis=0).tolist())
            rows["n"].append(len(sel))
        return pd.DataFrame(rows)

    ref0 = ray.put((cent, cluster_ids))
    parts = ds.map_batches(
        partial_sums, fn_kwargs={"ref": ref0}, batch_format="pandas"
    ).to_pandas()
    new_ids, new_cent = [], []
    for cl, g in parts.groupby("cl"):
        s = np.sum(np.stack(g["s"].to_numpy()), axis=0)
        new_ids.append(int(cl))
        new_cent.append(round_half_away(s / g["n"].sum(), 6))
    return np.stack(new_cent), np.asarray(new_ids, dtype=np.int64)




# the c0 -> a1 -> c1 -> a2 chain (init on first-K vectors, one Lloyd's
# update, final assignment) shared by kmeans_embeddings and
# semdedup_cluster_prune's oracles — one definition so the replayed fit
# can never drift between the two.
KMEANS_ASSIGN_CTE = f"""c0 AS (
      SELECT vec_id AS cl, CAST(embedding AS DOUBLE[]) AS cv
      FROM embeddings WHERE vec_id < {KMEANS_K}),
    a1 AS (
      SELECT vec_id, cl FROM (
        SELECT e.vec_id, c.cl,
               ROW_NUMBER() OVER (
                 PARTITION BY e.vec_id
                 ORDER BY ROUND(list_distance(CAST(e.embedding AS DOUBLE[]),
                                              c.cv), 6), c.cl) AS r
        FROM embeddings e CROSS JOIN c0 c) WHERE r = 1),
    dims AS (SELECT unnest(range(1, {_EMB_DIM} + 1)) AS i),
    c1 AS (
      SELECT cl, list(m ORDER BY i) AS cv FROM (
        SELECT a1.cl, d.i,
               ROUND(AVG(CAST(e.embedding[CAST(d.i AS INTEGER)] AS DOUBLE)),
                     6) AS m
        FROM a1 JOIN embeddings e USING (vec_id), dims d
        GROUP BY a1.cl, d.i) GROUP BY cl),
    a2 AS (
      SELECT vec_id, cl, d FROM (
        SELECT e.vec_id, c.cl,
               ROUND(list_distance(CAST(e.embedding AS DOUBLE[]), c.cv), 6)
                 AS d,
               ROW_NUMBER() OVER (
                 PARTITION BY e.vec_id
                 ORDER BY ROUND(list_distance(CAST(e.embedding AS DOUBLE[]),
                                              c.cv), 6), c.cl) AS r
        FROM embeddings e CROSS JOIN c1 c) WHERE r = 1)"""


@register(
    "kmeans_embeddings",
    sql=f"""
    WITH {KMEANS_ASSIGN_CTE}
    SELECT CAST(cl AS BIGINT) AS cluster, COUNT(*) AS n,
           ROUND(SUM(d) / COUNT(*), 4) AS avg_dist
    FROM a2 GROUP BY cl
    """,
)
def kmeans_embeddings(sf_dir: str):
    ds = table(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent1, ids1 = kmeans_one_update_centroids(sf_dir)
    _dists = _kmeans_dists

    # pass 2: assign against updated centroids, emit per-cluster (n, sum d)
    def partial_stats(df: pd.DataFrame, *, ref) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"cluster": [], "n": [], "sd": []})
        c, ids = ray.get(ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        d = _dists(m, c)
        j = np.argmin(d, axis=1)
        assign = ids[j]
        dmin = d[np.arange(len(j)), j]
        rows = {"cluster": [], "n": [], "sd": []}
        for cl in np.unique(assign):
            sel = assign == cl
            rows["cluster"].append(int(cl))
            rows["n"].append(int(sel.sum()))
            rows["sd"].append(float(dmin[sel].sum()))
        return pd.DataFrame(rows)

    ref1 = ray.put((cent1, ids1))
    parts2 = ds.map_batches(
        partial_stats, fn_kwargs={"ref": ref1}, batch_format="pandas"
    ).to_pandas()
    out = (
        parts2.groupby("cluster")
        .agg(n=("n", "sum"), sd=("sd", "sum"))
        .reset_index()
    )
    out["avg_dist"] = round_half_away(out["sd"] / out["n"], 4)
    out["cluster"] = out["cluster"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out[["cluster", "n", "avg_dist"]]


# --------------------------------------------------------------------------
# Weighted sampling WITHOUT replacement (Efraimidis–Spirakis A-ES): each
# doc gets key u^(1/w) with u = md5-derived uniform in [0,1) and weight
# w = n_chars; the global top-K by key IS a weighted sample. The key is
# an order statistic, so the distributed shape is per-block local top-K
# partials merged once — no shuffle, no materialization, and the same
# md5_number_upper convention gives the SQL oracle the identical keys.

WEIGHTED_SAMPLE_K = 100
_U64_DENOM = float(1 << 64)

_WSAMPLE_SQL = f"""
SELECT doc_id, n_chars
FROM documents
ORDER BY pow(md5_number_upper(CAST(doc_id AS VARCHAR)) / {_U64_DENOM:.1f},
             1.0 / n_chars) DESC, doc_id
LIMIT {WEIGHTED_SAMPLE_K}
"""


@register("weighted_sample_docs", sql=_WSAMPLE_SQL)
def weighted_sample_docs(sf_dir: str):
    from .common import combine_small, md5_u64_le

    ds = table(sf_dir, "documents", ["doc_id", "n_chars"])

    def local_top(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        w = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        u = (
            np.fromiter(
                (md5_u64_le(str(d)) for d in ids), dtype=np.uint64, count=len(ids)
            ).astype(np.float64)
            / _U64_DENOM
        )
        # w == 0 → numpy key u^inf = 0.0 (sorts last under DESC); DuckDB's
        # 1.0/0 is NULL → NULL key, also sorted last — both sides exclude
        # zero-weight docs from the sample identically
        with np.errstate(divide="ignore"):
            key = np.power(u, 1.0 / w)
        order = np.lexsort((ids, -key))[:WEIGHTED_SAMPLE_K]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "n_chars": pa.array(
                    t["n_chars"].to_numpy(zero_copy_only=False)[order], pa.int64()
                ),
                "key": pa.array(key[order], pa.float64()),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        key = t["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -key))[:WEIGHTED_SAMPLE_K]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "n_chars": pa.array(
                    t["n_chars"].to_numpy(zero_copy_only=False)[order], pa.int64()
                ),
            }
        )

    partials = ds.map_batches(local_top, batch_format="pyarrow")
    return combine_small(partials, merge)


# --------------------------------------------------------------------------
# Temperature-scaled language mixture (multilingual-corpus sampling à la
# mC4/XLM-R): per-language document shares are flattened with
# p_l ∝ share^ALPHA and converted to per-language target counts out of a
# fixed sampling budget. The distributed part is one fixed-cardinality
# count (per-block partials, local combine); the mixture math is a
# driver-side fold over ≤ n_langs rows. Rounding rule (largest
# remainder / Hamilton) is replayed exactly in SQL via rank-over-frac.

MIX_ALPHA = 0.5
MIX_BUDGET = 10_000

_MIX_SQL = f"""
WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
t AS (SELECT lang, n, pow(n, {MIX_ALPHA}) AS pw FROM c),
s AS (SELECT lang, n, pw / (SELECT sum(pw) FROM t) AS p FROM t),
f AS (SELECT lang, n, p, floor(p * {MIX_BUDGET}) AS base,
             p * {MIX_BUDGET} - floor(p * {MIX_BUDGET}) AS frac
      FROM s),
r AS (SELECT *, row_number() OVER (ORDER BY frac DESC, lang) AS rk FROM f)
SELECT lang, CAST(n AS BIGINT) AS n_docs, ROUND(p, 6) AS temp_share,
       CAST(base + CASE WHEN rk <= {MIX_BUDGET} - (SELECT sum(base) FROM f)
                        THEN 1 ELSE 0 END AS BIGINT) AS target_n
FROM r
"""


@register("temperature_mix_targets", sql=_MIX_SQL)
def temperature_mix_targets(sf_dir: str):
    from .common import combine_small, round_half_away

    ds = table(sf_dir, "documents", ["lang"])

    def partial(t: pa.Table) -> pa.Table:
        col = t["lang"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vc = pc.value_counts(col)
        return pa.table(
            {
                "lang": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        agg = (
            pa.TableGroupBy(t, "lang")
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "n"])
        )
        df = agg.to_pandas().sort_values("lang").reset_index(drop=True)
        pw = np.power(df["n"].to_numpy(np.float64), MIX_ALPHA)
        p = pw / pw.sum()
        scaled = p * MIX_BUDGET
        base = np.floor(scaled)
        frac = scaled - base
        short = MIX_BUDGET - int(base.sum())
        # largest-remainder: ties broken by lang ascending (df is sorted)
        order = np.lexsort((np.arange(len(df)), -frac))
        bump = np.zeros(len(df), dtype=np.int64)
        bump[order[:short]] = 1
        return pa.table(
            {
                "lang": pa.array(df["lang"]),
                "n_docs": pa.array(df["n"].to_numpy(np.int64)),
                "temp_share": pa.array(round_half_away(p, 6)),
                "target_n": pa.array(base.astype(np.int64) + bump),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return combine_small(partials, finish)


# --------------------------------------------------------------------------
# Cross-modal enrichment join: documents ⋈ embeddings on doc_id == vec_id
# (the "attach the embedding-cluster label back onto the text corpus"
# step), aggregated to (lang, label) counts + mean doc length. Both sides
# are corpus-sized at web scale, but the JOIN ISN'T NEEDED to aggregate:
# each side collapses to its key partials and only the label side must
# reach the doc side — broadcast as sorted arrays under the gate,
# Dataset.join above it (the adaptive pattern).


@register(
    "doc_embedding_label_mix",
    sql="""
    SELECT d.lang, e.label, CAST(count(*) AS BIGINT) AS n,
           ROUND(avg(d.n_chars), 6) AS avg_chars
    FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id
    GROUP BY d.lang, e.label
    """,
)
def doc_embedding_label_mix(sf_dir: str):
    docs = table(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    if common.gate("doc_embedding_label_mix", "embeddings",
                   table_num_rows(sf_dir, "embeddings"), SMALL_COMBINE_ROWS):
        import pyarrow.dataset as pads

        emb = (
            pads.dataset(f"{sf_dir}/embeddings.parquet")
            .to_table(columns=["vec_id", "label"])
            .to_pandas()
            .sort_values("vec_id")
        )
        ref = ray.put(
            (
                emb["vec_id"].to_numpy(np.int64),
                emb["label"].to_numpy(np.int64),
            )
        )

        def partial(t: pa.Table, *, ref) -> pa.Table:
            vid, lab = ray.get(ref)
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            if len(vid):
                pos = np.clip(np.searchsorted(vid, ids), 0, len(vid) - 1)
                hit = vid[pos] == ids
            else:
                hit = np.zeros(len(ids), dtype=bool)
                pos = np.zeros(len(ids), dtype=np.int64)
            tmp = pa.table(
                {
                    "lang": t["lang"].filter(pa.array(hit)),
                    "label": pa.array(lab[pos[hit]], pa.int64()),
                    "n_chars": t["n_chars"].filter(pa.array(hit)),
                }
            )
            return (
                pa.TableGroupBy(tmp, ["lang", "label"])
                .aggregate([([], "count_all"), ("n_chars", "sum")])
                .rename_columns(["lang", "label", "n", "chars_sum"])
            )

        joined_partials = docs.map_batches(
            partial, fn_kwargs={"ref": ref}, batch_format="pyarrow"
        )
    else:  # embeddings table too big to broadcast
        emb_ds = table(sf_dir, "embeddings", ["vec_id", "label"])
        from .common import join_partitions

        n_parts = join_partitions()
        joined = docs.join(
            emb_ds,
            join_type="inner",
            num_partitions=n_parts,
            on=("doc_id",),
            right_on=("vec_id",),
        )

        def partial_joined(t: pa.Table) -> pa.Table:
            tmp = pa.table(
                {
                    "lang": t["lang"],
                    "label": pc.cast(t["label"], pa.int64()),
                    "n_chars": t["n_chars"],
                }
            )
            return (
                pa.TableGroupBy(tmp, ["lang", "label"])
                .aggregate([([], "count_all"), ("n_chars", "sum")])
                .rename_columns(["lang", "label", "n", "chars_sum"])
            )

        joined_partials = joined.map_batches(
            partial_joined, batch_format="pyarrow"
        )

    def finish(t: pa.Table) -> pa.Table:
        from .common import combine_small, round_half_away  # noqa: F401

        agg = (
            pa.TableGroupBy(t, ["lang", "label"])
            .aggregate([("n", "sum"), ("chars_sum", "sum")])
            .rename_columns(["lang", "label", "n", "chars_sum"])
        )
        n = agg["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "lang": agg["lang"],
                "label": agg["label"],
                "n": pc.cast(agg["n"], pa.int64()),
                "avg_chars": pa.array(
                    round_half_away(
                        agg["chars_sum"].to_numpy(zero_copy_only=False) / n, 6
                    )
                ),
            }
        )

    from .common import combine_small

    return combine_small(joined_partials, finish)


# --------------------------------------------------------------------------
# Scalar INT8 quantization of the embedding corpus — the compression step
# an ANN index (or a 100-TB vector store) applies before serving: per
# dimension, learn (min, max) over the corpus, code every value to
# round((x - min) / scale) with scale = (max - min)/255, and report the
# per-dimension code mass + absolute reconstruction error. Two streamed
# passes: pass 1 reduces per-block (min, max) partials to 64 rows (fixed
# cardinality = dim count → combine_small needs no row gate); pass 2
# broadcasts the 64-float quantizer via ray.put and folds code sums /
# abs-error partials the same way. Vector data never shuffles.

_INT8_QUANT_SQL = """
WITH x AS (
  SELECT unnest(embedding) AS v,
         generate_subscripts(embedding, 1) - 1 AS dim
  FROM embeddings),
mm AS (
  SELECT dim, CAST(min(v) AS DOUBLE) AS dmin, CAST(max(v) AS DOUBLE) AS dmax
  FROM x GROUP BY dim),
q AS (
  SELECT x.dim, mm.dmin, mm.dmax,
         ROUND((CAST(v AS DOUBLE) - dmin) / ((dmax - dmin) / 255.0)) AS c,
         CAST(v AS DOUBLE) AS v
  FROM x JOIN mm ON x.dim = mm.dim)
SELECT dim,
       round(dmin, 6) AS dmin,
       round(dmax, 6) AS dmax,
       CAST(sum(c) AS BIGINT) AS sum_codes,
       round(sum(abs(v - (dmin + c * ((dmax - dmin) / 255.0)))), 6)
           AS abs_err_sum
FROM q GROUP BY dim, dmin, dmax
"""


@register("embedding_int8_quantize_stats", sql=_INT8_QUANT_SQL)
def embedding_int8_quantize_stats(sf_dir: str):
    from .common import combine_small

    ds = table(sf_dir, "embeddings", ["embedding"])

    def minmax_partial(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame(
            {"dim": np.arange(m.shape[1], dtype=np.int64),
             "dmin": m.min(axis=0), "dmax": m.max(axis=0)}
        )

    def minmax_combine(t: pa.Table):
        g = t.to_pandas().groupby("dim")
        return g["dmin"].min().to_numpy(), g["dmax"].max().to_numpy()

    dmin, dmax = combine_small(
        ds.map_batches(minmax_partial, batch_format="pandas"), minmax_combine
    )
    scale = (dmax - dmin) / 255.0
    quant_ref = ray.put((dmin, scale))

    def code_partial(df: pd.DataFrame) -> pd.DataFrame:
        lo, sc = ray.get(quant_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        c = round_half_away((m - lo) / sc, 0)
        err = np.abs(m - (lo + c * sc))
        return pd.DataFrame(
            {"dim": np.arange(m.shape[1], dtype=np.int64),
             "sum_codes": c.sum(axis=0).astype(np.int64),
             "abs_err_sum": err.sum(axis=0)}
        )

    def code_combine(t: pa.Table) -> pa.Table:
        g = (t.to_pandas().groupby("dim", as_index=False)
             .agg(sum_codes=("sum_codes", "sum"),
                  abs_err_sum=("abs_err_sum", "sum")))
        return pa.table(
            {
                "dim": pa.array(g["dim"].to_numpy(np.int64)),
                "dmin": pa.array(round_half_away(dmin, 6)),
                "dmax": pa.array(round_half_away(dmax, 6)),
                "sum_codes": pa.array(g["sum_codes"].to_numpy(np.int64)),
                "abs_err_sum": pa.array(
                    round_half_away(g["abs_err_sum"].to_numpy(), 6)
                ),
            }
        )

    return combine_small(
        ds.map_batches(code_partial, batch_format="pandas"), code_combine
    )


# --------------------------------------------------------------------------
# PCA variance spectrum of the embedding corpus — the whitening /
# dimensionality diagnostic a training pipeline runs before deciding how
# many components to keep. Distributed shape: each block folds its vectors
# into (n, Σx ∈ R^d, Σxxᵀ ∈ R^{d×d}) — one fixed-size (d²+d+1)-float row
# per block at ANY corpus size — so the covariance assembles from bounded
# partials with no shuffle, and only the d×d eigendecomposition runs on
# the driver (d = 64 here; the shape holds for any d whose d² partial
# fits a block, i.e. well past d = 4096). No SQL oracle (eigensolve);
# pytest pins it to numpy over the full table.
PCA_TOP = 8


@register("embedding_pca_variance_spectrum", sql=None)
def embedding_pca_variance_spectrum(sf_dir: str):
    ds = table(sf_dir, "embeddings", ["embedding"])

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame(
            {
                "n": [m.shape[0]],
                "s": [m.sum(axis=0).tobytes()],
                "ss": [(m.T @ m).tobytes()],
            }
        )

    from .common import combine_small

    def final(t: pa.Table):
        df = t.to_pandas()
        n = int(df["n"].sum())
        d = len(np.frombuffer(df["s"][0], np.float64))
        s = np.zeros(d)
        ss = np.zeros((d, d))
        for srow, ssrow in zip(df["s"], df["ss"]):
            s += np.frombuffer(srow, np.float64)
            ss += np.frombuffer(ssrow, np.float64).reshape(d, d)
        mean = s / n
        cov = ss / n - np.outer(mean, mean)
        evals = np.linalg.eigvalsh(cov)[::-1]  # descending
        total = float(evals.sum())
        top = evals[:PCA_TOP]
        return pa.table(
            {
                "component": pa.array(np.arange(len(top)), pa.int64()),
                "eigenvalue": pa.array(
                    round_half_away(top, 8), pa.float64()
                ),
                "explained_ratio": pa.array(
                    round_half_away(top / total, 6), pa.float64()
                ),
                "cum_explained": pa.array(
                    round_half_away(np.cumsum(top) / total, 6), pa.float64()
                ),
            }
        )

    return combine_small(
        ds.map_batches(moments, batch_format="pandas"), final
    )


# --------------------------------------------------------------------------
# Product quantization (PQ) codebook training + encode distortion: split
# the 64-dim embedding into 4 contiguous 16-dim subspaces, fit an 8-word
# codebook per subspace with the SAME deterministic one-update Lloyd's
# used by kmeans_embeddings (init = first K vectors' subvectors, one
# assignment + centroid update), encode every vector, and report per
# (subspace, code) membership + quantization distortion. This is the
# training+encode step of an IVF-PQ ANN index — the at-scale companion to
# ann_ivf_topk. Distances are rounded to 6 dp and summed as integer
# micro-units, so the distortion aggregate is order-independent on both
# engines. Two streaming passes total (all 4 subspaces fold in the same
# map_batches); only K×dim partials ever reach the driver.
PQ_M = 4          # subspaces
PQ_SUBDIM = 16    # dims per subspace (PQ_M * PQ_SUBDIM == _EMB_DIM)
PQ_K = 8          # codewords per subspace


def _pq_ctes() -> list[str]:
    """The shared PQ training/encode CTE chain (init -> one Lloyd's update
    -> trained codebook c1_{m} -> encode assignments a2_{m}), reused verbatim
    by pq_codebook_stats' and pq_adc_topk's oracles — one definition, two
    oracles, zero drift risk (same pattern as the semdedup/kmeans CTEs)."""
    ctes = [f"dims AS (SELECT unnest(range(1, {PQ_SUBDIM + 1})) AS i)"]
    for m in range(PQ_M):
        lo, hi = m * PQ_SUBDIM + 1, (m + 1) * PQ_SUBDIM
        sl = f"CAST(e.embedding AS DOUBLE[])[{lo}:{hi}]"
        ctes.append(f"""c0_{m} AS (
      SELECT vec_id AS cl, CAST(embedding AS DOUBLE[])[{lo}:{hi}] AS cv
      FROM embeddings WHERE vec_id < {PQ_K})""")
        ctes.append(f"""a1_{m} AS (
      SELECT vec_id, cl FROM (
        SELECT e.vec_id, c.cl,
               ROW_NUMBER() OVER (
                 PARTITION BY e.vec_id
                 ORDER BY ROUND(list_distance({sl}, c.cv), 6), c.cl) AS r
        FROM embeddings e CROSS JOIN c0_{m} c) WHERE r = 1)""")
        ctes.append(f"""c1_{m} AS (
      SELECT cl, list(mn ORDER BY i) AS cv FROM (
        SELECT a1_{m}.cl, d.i,
               ROUND(AVG(CAST(e.embedding[CAST(d.i + {lo - 1} AS INTEGER)]
                              AS DOUBLE)), 6) AS mn
        FROM a1_{m} JOIN embeddings e USING (vec_id), dims d
        GROUP BY a1_{m}.cl, d.i) GROUP BY cl)""")
        ctes.append(f"""a2_{m} AS (
      SELECT vec_id, cl, dist FROM (
        SELECT e.vec_id, c.cl,
               ROUND(list_distance({sl}, c.cv), 6) AS dist,
               ROW_NUMBER() OVER (
                 PARTITION BY e.vec_id
                 ORDER BY ROUND(list_distance({sl}, c.cv), 6), c.cl) AS r
        FROM embeddings e CROSS JOIN c1_{m} c) WHERE r = 1)""")
    return ctes


def _pq_sql() -> str:
    parts = []
    for m in range(PQ_M):
        parts.append(f"""
  SELECT {m} AS subspace, CAST(cl AS BIGINT) AS code,
         CAST(COUNT(*) AS BIGINT) AS n,
         ROUND(CAST(SUM(CAST(ROUND(dist * 1000000) AS BIGINT)) AS DOUBLE)
               / 1000000 / COUNT(*), 6) AS avg_dist
  FROM a2_{m} GROUP BY cl""")
    return ("WITH " + ",\n    ".join(_pq_ctes()) + "\n"
            + "\nUNION ALL".join(parts)
            + "\nORDER BY subspace, code")


def _pq_train(sf_dir: str):
    """One deterministic Lloyd's update per subspace (init = first PQ_K
    vectors' subvectors): the PQ codebook fit shared by pq_codebook_stats
    and pq_adc_topk. One streaming assignment pass over the corpus; only
    K×dim partial sums reach the driver. Returns (ds, bounds, cent1, ids1)
    where cent1[m] rows are ordered by ascending code id (ids1[m]) so a
    first-minimum argmin reproduces the SQL 'ORDER BY dist, cl' tie rule."""
    import os

    import pyarrow.dataset as pads

    ds = table(sf_dir, "embeddings", ["vec_id", "embedding"])
    bounds = [(m * PQ_SUBDIM, (m + 1) * PQ_SUBDIM) for m in range(PQ_M)]

    # init: first PQ_K vectors, sliced per subspace (row-group-pruned read)
    t0 = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id") < PQ_K,
    )
    df0 = t0.to_pandas().sort_values("vec_id")
    full0 = np.stack(df0["embedding"].to_numpy()).astype(np.float64)
    ids0 = df0["vec_id"].to_numpy().astype(np.int64)
    cent0 = [full0[:, lo:hi] for lo, hi in bounds]

    # pass 1: assign each subvector against its init codebook; per
    # (subspace, code) partial sums — all subspaces in one scan
    def partial_sums(df: pd.DataFrame, *, ref) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"m": [], "cl": [], "s": [], "n": []})
        cents, ids = ray.get(ref)
        full = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        rows = {"m": [], "cl": [], "s": [], "n": []}
        for m, (lo, hi) in enumerate(bounds):
            sub = full[:, lo:hi]
            assign = ids[np.argmin(_kmeans_dists(sub, cents[m]), axis=1)]
            for cl in np.unique(assign):
                sel = sub[assign == cl]
                rows["m"].append(m)
                rows["cl"].append(int(cl))
                rows["s"].append(sel.sum(axis=0).tolist())
                rows["n"].append(len(sel))
        return pd.DataFrame(rows)

    ref0 = ray.put((cent0, ids0))
    parts = ds.map_batches(
        partial_sums, fn_kwargs={"ref": ref0}, batch_format="pandas"
    ).to_pandas()
    cent1 = [c.copy() for c in cent0]
    ids1 = [ids0.copy() for _ in range(PQ_M)]
    for m in range(PQ_M):
        new_ids, new_cv = [], []
        for cl, g in parts[parts["m"] == m].groupby("cl"):
            s = np.sum(np.stack(g["s"].to_numpy()), axis=0)
            new_ids.append(int(cl))
            new_cv.append(round_half_away(s / g["n"].sum(), 6))
        cent1[m] = np.stack(new_cv)
        ids1[m] = np.asarray(new_ids, dtype=np.int64)
    return ds, bounds, cent1, ids1


@register("pq_codebook_stats", sql=_pq_sql())
def pq_codebook_stats(sf_dir: str):
    ds, bounds, cent1, ids1 = _pq_train(sf_dir)

    # pass 2: encode against the trained codebooks; integer micro-unit
    # distortion partials per (subspace, code)
    def encode_stats(df: pd.DataFrame, *, ref) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"m": [], "code": [], "n": [], "sd": []})
        cents, idss = ray.get(ref)
        full = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        rows = {"m": [], "code": [], "n": [], "sd": []}
        for m, (lo, hi) in enumerate(bounds):
            sub = full[:, lo:hi]
            d = _kmeans_dists(sub, cents[m])
            j = np.argmin(d, axis=1)
            dmic = np.round(
                d[np.arange(len(j)), j] * 1_000_000
            ).astype(np.int64)
            assign = idss[m][j]
            for cl in np.unique(assign):
                sel = assign == cl
                rows["m"].append(m)
                rows["code"].append(int(cl))
                rows["n"].append(int(sel.sum()))
                rows["sd"].append(int(dmic[sel].sum()))
        return pd.DataFrame(rows)

    ref1 = ray.put((cent1, ids1))
    parts2 = ds.map_batches(
        encode_stats, fn_kwargs={"ref": ref1}, batch_format="pandas"
    ).to_pandas()
    out = (
        parts2.groupby(["m", "code"])
        .agg(n=("n", "sum"), sd=("sd", "sum"))
        .reset_index()
        .sort_values(["m", "code"], kind="stable")
    )
    return pa.table(
        {
            "subspace": pa.array(out["m"].to_numpy(np.int64) * 0
                                 + out["m"].to_numpy(np.int64)),
            "code": pa.array(out["code"].to_numpy(np.int64)),
            "n": pa.array(out["n"].to_numpy(np.int64)),
            "avg_dist": pa.array(
                round_half_away(
                    out["sd"].to_numpy(np.float64) / 1_000_000
                    / out["n"].to_numpy(np.float64), 6
                )
            ),
        }
    )


# --------------------------------------------------------------------------
# PQ-ADC top-k search: the SEARCH half of the PQ index whose training half
# is pq_codebook_stats. Each corpus vector is reduced to PQ_M codebook
# assignments; the asymmetric distance from a query to a vector is the sum
# of PQ_M precomputed (query × code) table entries, so scoring a batch is
# one argmin-encode plus table lookups — no full-dimension math against the
# corpus. Distances are integer micro-units end-to-end (exact, order-free);
# top-k survives per block (≤ K × blocks candidate rows reach the driver,
# same no-shuffle LIMIT-K shape as ann_bruteforce_topk).
PQ_QUERY_IDS = (0, 1, 2)  # same deterministic queries as ann_*_topk
PQ_ADC_K = 5


def _pq_adc_sql() -> str:
    ctes = _pq_ctes()
    ctes.append(
        f"""q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
      FROM embeddings WHERE vec_id IN {PQ_QUERY_IDS})"""
    )
    for m in range(PQ_M):
        lo, hi = m * PQ_SUBDIM + 1, (m + 1) * PQ_SUBDIM
        ctes.append(f"""adc_{m} AS (
      SELECT q.qid, a.vec_id,
             CAST(ROUND(list_distance(q.qe[{lo}:{hi}], c.cv) * 1000000)
                  AS BIGINT) AS dmic
      FROM q, a2_{m} a JOIN c1_{m} c USING (cl))""")
    union = "\n      UNION ALL ".join(
        f"SELECT * FROM adc_{m}" for m in range(PQ_M)
    )
    joined = ",\n    ".join(ctes)
    return f"""WITH {joined},
    tot AS (SELECT qid, vec_id, SUM(dmic) AS dmic
            FROM ({union}) GROUP BY qid, vec_id),
    ranked AS (
      SELECT qid, vec_id, dmic,
             ROW_NUMBER() OVER (PARTITION BY qid
                                ORDER BY dmic, vec_id) AS rank
      FROM tot WHERE vec_id != qid)
    SELECT qid, vec_id,
           ROUND(CAST(dmic AS DOUBLE) / 1000000, 6) AS adc_dist,
           CAST(rank AS BIGINT) AS rank
    FROM ranked WHERE rank <= {PQ_ADC_K}"""


@register("pq_adc_topk", sql=_pq_adc_sql())
def pq_adc_topk(sf_dir: str):
    """Approximate top-k per query via PQ asymmetric distance computation
    (ADC). Train the PQ codebooks (one streaming Lloyd's pass, shared with
    pq_codebook_stats), precompute per-query (subspace × code) distance
    tables on the driver (PQ_M × PQ_K floats per query — tiny), broadcast
    once, then one streaming encode+lookup pass over the corpus with
    per-block top-k. This is the at-scale ANN query path the reference's
    dashboard-side batch scorer (pages/User Based Dashboard.py:258,
    100-row micro-batches against a small trained model) approximates:
    small trained state broadcast, corpus streamed."""
    import os

    import pyarrow.dataset as pads

    ds, bounds, cent1, ids1 = _pq_train(sf_dir)
    t0 = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id").isin(list(PQ_QUERY_IDS)),
    )
    dfq = t0.to_pandas().sort_values("vec_id")
    qids = dfq["vec_id"].to_numpy().astype(np.int64)
    qfull = np.stack(dfq["embedding"].to_numpy()).astype(np.float64)
    # (query × code) micro-unit distance table per subspace; non-negative,
    # so half-away rounding = floor(x·1e6 + 0.5), matching the oracle's
    # CAST(ROUND(list_distance · 1e6) AS BIGINT)
    dts = []
    for m, (lo, hi) in enumerate(bounds):
        d = np.sqrt(
            ((qfull[:, None, lo:hi] - cent1[m][None, :, :]) ** 2).sum(axis=2)
        )
        dts.append(np.floor(d * 1e6 + 0.5).astype(np.int64))

    ref = ray.put((cent1, dts, qids))

    def score(df: pd.DataFrame, *, ref) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "qid": pd.Series([], dtype="int64"),
                    "vec_id": pd.Series([], dtype="int64"),
                    "dmic": pd.Series([], dtype="int64"),
                }
            )
        cents, dts_, qids_ = ray.get(ref)
        full = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        ids = df["vec_id"].to_numpy().astype(np.int64)
        tot = np.zeros((len(qids_), len(ids)), dtype=np.int64)
        for m, (lo, hi) in enumerate(bounds):
            # encode: rounded-distance argmin over id-ordered codewords
            # reproduces the oracle's ORDER BY dist, cl tie rule
            j = np.argmin(_kmeans_dists(full[:, lo:hi], cents[m]), axis=1)
            tot += dts_[m][:, j]
        out = []
        for qi, qid in enumerate(qids_):
            keep = ids != qid
            d, v = tot[qi][keep], ids[keep]
            order = np.lexsort((v, d))[:PQ_ADC_K]
            out.append(
                pd.DataFrame({"qid": qid, "vec_id": v[order], "dmic": d[order]})
            )
        return pd.concat(out, ignore_index=True)

    pdf = ds.map_batches(
        score, fn_kwargs={"ref": ref}, batch_format="pandas"
    ).to_pandas()
    rows = []
    for qid, g in pdf.groupby("qid"):
        g = (
            g.sort_values(["dmic", "vec_id"])
            .head(PQ_ADC_K)
            .reset_index(drop=True)
        )
        g["rank"] = np.arange(1, len(g) + 1, dtype="int64")
        rows.append(g)
    out = pd.concat(rows, ignore_index=True)
    return pa.table(
        {
            "qid": pa.array(out["qid"].to_numpy(np.int64)),
            "vec_id": pa.array(out["vec_id"].to_numpy(np.int64)),
            "adc_dist": pa.array(
                round_half_away(out["dmic"].to_numpy(np.float64) / 1e6, 6)
            ),
            "rank": pa.array(out["rank"].to_numpy(np.int64)),
        }
    )


# --------------------------------------------------------------------------
# PQ-code coarse dedup: vectors that land in the SAME codeword in every
# subspace are coarse near-duplicates — the SemDeDup idea executed through
# the PQ index instead of full-dimension cosine, which is the shape that
# survives 100 TB (each vector reduces to PQ_M small ints; grouping is a
# fixed-cardinality ≤ K^M fold, no pairwise math, no shuffle of
# embeddings). Keeper = min vec_id per group, the same deterministic
# keep-first rule as exact_dedup_docs.
def _pq_dedup_sql() -> str:
    joins = " ".join(
        f"JOIN a2_{m} a{m} USING (vec_id)" for m in range(1, PQ_M)
    )
    cols = ", ".join(
        f"CAST(a{m}.cl AS BIGINT) AS code_{m}" for m in range(PQ_M)
    )
    keys = ", ".join(f"code_{m}" for m in range(PQ_M))
    ctes = ",\n    ".join(_pq_ctes())
    return f"""WITH {ctes},
    codes AS (
      SELECT a0.vec_id, {cols}
      FROM a2_0 a0 {joins})
    SELECT {keys}, CAST(count(*) AS BIGINT) AS n_vecs,
           CAST(min(vec_id) AS BIGINT) AS keeper_vec_id
    FROM codes GROUP BY {keys} HAVING count(*) >= 2
    ORDER BY {keys}"""


@register("pq_code_dedup_groups", sql=_pq_dedup_sql())
def pq_code_dedup_groups(sf_dir: str):
    ds, bounds, cent1, ids1 = _pq_train(sf_dir)
    ref = ray.put((cent1, ids1))

    def encode_groups(df: pd.DataFrame, *, ref) -> pd.DataFrame:
        cols = [f"code_{m}" for m in range(PQ_M)]
        if not len(df):
            return pd.DataFrame(
                {**{c: pd.Series([], dtype="int64") for c in cols},
                 "n_vecs": pd.Series([], dtype="int64"),
                 "keeper_vec_id": pd.Series([], dtype="int64")}
            )
        cents, idss = ray.get(ref)
        full = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        out = {"vec_id": df["vec_id"].to_numpy(np.int64)}
        for m, (lo, hi) in enumerate(bounds):
            j = np.argmin(_kmeans_dists(full[:, lo:hi], cents[m]), axis=1)
            out[f"code_{m}"] = idss[m][j]
        # per-block partial: group cardinality is ≤ K^M at ANY input size
        return (
            pd.DataFrame(out)
            .groupby(cols, as_index=False)
            .agg(n_vecs=("vec_id", "size"), keeper_vec_id=("vec_id", "min"))
        )

    from .common import combine_small

    cols = [f"code_{m}" for m in range(PQ_M)]

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby(cols, as_index=False)
            .agg(n_vecs=("n_vecs", "sum"),
                 keeper_vec_id=("keeper_vec_id", "min"))
        )
        g = g[g["n_vecs"] >= 2].sort_values(cols)
        return pa.table(
            {
                **{c: pa.array(g[c].to_numpy(np.int64)) for c in cols},
                "n_vecs": pa.array(g["n_vecs"].to_numpy(np.int64)),
                "keeper_vec_id": pa.array(
                    g["keeper_vec_id"].to_numpy(np.int64)
                ),
            }
        )

    return combine_small(
        ds.map_batches(
            encode_groups, fn_kwargs={"ref": ref}, batch_format="pandas"
        ),
        final,
    )
