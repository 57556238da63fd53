"""Streaming-shaped temporal operators over the ``events`` log.

Ray Data has no event-time window engine; these express the standard
stream patterns as partition-by-key + in-group ordered pandas (the
documented Ray Data idiom for stream-shaped references): as-of join
(latest prior event), gap-based sessionization, and a per-key running
aggregate. Each states its ordering assumption: events are processed per
``user_id`` ordered by ``(ts, event_id)`` — a total, deterministic order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .common import (bucketed_group_agg, combine_small, round_half_away, table,
                     table_num_rows)
from .queries import _no_events, register


# --------------------------------------------------------------------------
# as-of join: for every event, the timestamp of the same user's most
# recent STRICTLY EARLIER 'purchase' event (NULL if none) — the classic
# enrich-with-latest-state lookup (merge_asof inside per-user groups)
# --------------------------------------------------------------------------
# Bucketed per-user vectorization: every per-user windowed operator here
# goes through common.bucketed_group_agg keyed on user_id, so a bucket
# holds many users and processes them ALL in one vectorized pass over
# (user, ts)-lexsorted arrays — groupby(user).map_groups would pay a
# per-group pandas call (~0.2 ms × millions of users at web scale;
# measured 5.6 s vs 3.1 s at just 29k users). A small events stream is
# one bucket, combined by one task.


def _user_segments(uid_sorted: np.ndarray):
    """(new_user mask, dense user rank, segment start indices) for a
    (user, …)-lexsorted array — the basis of every segment reduction."""
    new = np.concatenate([[True], uid_sorted[1:] != uid_sorted[:-1]])
    urank = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    return new, urank, starts


@register(
    "asof_last_purchase",
    sql="""
    SELECT e.event_id, max(p.ts) AS last_purchase_ts
    FROM events e LEFT JOIN events p
      ON p.user_id = e.user_id AND p.event_type = 'purchase' AND p.ts < e.ts
    GROUP BY e.event_id
    """,
)
def asof_last_purchase(sf_dir: str):
    """Backward as-of join, fully vectorized per bucket: rows lexsort by
    (user, ts, event_id); each row's purchase timestamp (or a per-user
    floor sentinel) is encoded onto its user's disjoint int64 range
    (urank·span + ts_rel + 1, span > ts_range + 2, non-purchase/floor
    = urank·span), so ONE global cummax carries "latest purchase so far"
    with automatic per-user resets (a new user's floor exceeds every
    earlier user's encoding). The strictly-earlier semantics come from
    reading the cummax at the last row BEFORE the row's ts-group
    (searchsorted 'left' on the shifted timestamps)."""
    if not table_num_rows(sf_dir, "events"):
        return _no_events(event_id=pa.int64(),
                          last_purchase_ts=pa.timestamp("us"))
    ds = table(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        ts64 = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        is_p = (g["event_type"].to_numpy() == "purchase")
        order = np.lexsort((eid, ts64, uid))
        uid_s, ts_s, eid_s, p_s = uid[order], ts64[order], eid[order], is_p[order]
        new, urank, _ = _user_segments(uid_s)
        ts0 = ts_s - ts_s.min()
        span = np.int64(ts0.max()) + 2
        enc = urank * span + np.where(p_s, ts0 + 1, 0)
        run = np.maximum.accumulate(enc)
        shifted = urank * span + ts0  # span > range+1 keeps users disjoint
        grp_start = np.searchsorted(shifted, shifted, side="left")
        prev = grp_start - 1
        val = np.where(prev >= 0, run[np.maximum(prev, 0)], 0)
        ok = (prev >= 0) & (val // span == urank) & (val % span > 0)
        out_ts = (val % span - 1) + ts_s.min()
        ts_arr = out_ts.astype("datetime64[us]")
        result = pd.DataFrame(
            {"event_id": eid_s, "last_purchase_ts": ts_arr}
        )
        result.loc[~ok, "last_purchase_ts"] = pd.NaT
        return result

    return bucketed_group_agg(ds, ["user_id"], asof_bucket)


# --------------------------------------------------------------------------
# gap-based sessionization: a new session starts when the gap to the
# user's previous event exceeds 30 minutes; emits per-user session counts
# and the longest session length (#events)
@register(
    "user_sessions_30m",
    sql="""
    WITH g AS (
      SELECT user_id, ts, event_id,
             CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id)
                       > INTERVAL 30 MINUTE
                  OR lag(ts) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) IS NULL
                  THEN 1 ELSE 0 END AS new_session
      FROM events),
    s AS (
      SELECT user_id,
             SUM(new_session) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id
                                    ROWS UNBOUNDED PRECEDING) AS session_id
      FROM (SELECT * FROM g)),
    sizes AS (
      SELECT user_id, session_id, count(*) AS sz FROM s GROUP BY 1, 2)
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_sessions,
           CAST(max(sz) AS BIGINT) AS max_session_events
    FROM sizes GROUP BY user_id
    """,
)
def user_sessions_30m(sf_dir: str):
    if not table_num_rows(sf_dir, "events"):
        return _no_events(user_id=pa.int64(), n_sessions=pa.int64(),
                          max_session_events=pa.int64())
    ds = table(sf_dir, "events", ["event_id", "user_id", "ts"])
    gap_us = 30 * 60 * 1_000_000

    def sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        ts64 = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts64, uid))
        uid_s, ts_s = uid[order], ts64[order]
        new, urank, starts = _user_segments(uid_s)
        gap = np.concatenate([[0], np.diff(ts_s)])
        new_sess = new | (gap > gap_us)
        # all users at once: session sizes via session-start indices, then
        # per-user max over each user's (contiguous) run of sessions
        ss = np.flatnonzero(new_sess)
        sizes = np.diff(np.append(ss, len(ts_s)))
        sess_user = urank[ss]
        user_first_sess = np.concatenate(
            [[True], sess_user[1:] != sess_user[:-1]]
        )
        return pd.DataFrame(
            {
                "user_id": uid_s[starts],
                "n_sessions": np.add.reduceat(
                    new_sess.astype(np.int64), starts
                ),
                "max_session_events": np.maximum.reduceat(
                    sizes, np.flatnonzero(user_first_sess)
                ).astype(np.int64),
            }
        )

    return bucketed_group_agg(ds, ["user_id"], sessionize_bucket)


# --------------------------------------------------------------------------
# per-key running aggregate (ordered window): each event's cumulative
# count of prior same-user events — a running-state column
@register(
    "running_event_index",
    sql="""
    SELECT event_id,
           CAST(ROW_NUMBER() OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) - 1 AS BIGINT)
             AS prior_events
    FROM events
    """,
)
def running_event_index(sf_dir: str):
    if not table_num_rows(sf_dir, "events"):
        return _no_events(event_id=pa.int64(), prior_events=pa.int64())
    ds = table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def running_bucket(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        ts64 = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts64, uid))
        uid_s = uid[order]
        _, urank, starts = _user_segments(uid_s)
        prior = np.arange(len(uid_s), dtype=np.int64) - starts[urank]
        return pd.DataFrame({"event_id": eid[order], "prior_events": prior})

    return bucketed_group_agg(ds, ["user_id"], running_bucket)


# --------------------------------------------------------------------------
# SLIDING event-time window: per event, the count of the same user's
# events with ts in [ts − 30 min, ts] (value-range frame, ties included —
# exactly SQL's RANGE BETWEEN ... PRECEDING AND CURRENT ROW). Vectorized
# per group with two searchsorted passes; the partition key is the same
# user_id used by every other temporal operator.
@register(
    "sliding_window_counts",
    sql="""
    SELECT event_id,
           CAST(COUNT(*) OVER (PARTITION BY user_id ORDER BY ts
                               RANGE BETWEEN INTERVAL 30 MINUTE PRECEDING
                               AND CURRENT ROW) AS BIGINT) AS n_in_window
    FROM events
    """,
)
def sliding_window_counts(sf_dir: str):
    if not table_num_rows(sf_dir, "events"):
        return _no_events(event_id=pa.int64(), n_in_window=pa.int64())
    ds = table(sf_dir, "events", ["event_id", "user_id", "ts"])
    gap_us = 30 * 60 * 1_000_000

    def window_bucket(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        ts64 = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts64, uid))
        uid_s, ts_s = uid[order], ts64[order]
        _, urank, _ = _user_segments(uid_s)
        ts0 = ts_s - ts_s.min()
        # span > range + window keeps each user's backward probes inside
        # its own disjoint int64 range (same offset-shift as the forward
        # follow-up window)
        span = np.int64(ts0.max()) + gap_us + 1
        shifted = urank * span + ts0
        hi = np.searchsorted(shifted, shifted, side="right")
        lo = np.searchsorted(shifted, shifted - gap_us, side="left")
        return pd.DataFrame(
            {"event_id": eid[order], "n_in_window": (hi - lo).astype("int64")}
        )

    return bucketed_group_agg(ds, ["user_id"], window_bucket)


# --------------------------------------------------------------------------
# per-user inter-arrival statistics: event count, mean and max gap between
# consecutive events in MICROSECONDS (integer microseconds keep every sum
# exact below 2^53, so the Ray float mean is bit-identical to DuckDB's and
# ROUND-half-away agrees on both sides — no float-jitter tolerance needed)
@register(
    "user_interarrival_stats",
    sql="""
    WITH g AS (
      SELECT user_id,
             date_diff('microsecond',
                       lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
                       ts) AS gap_us
      FROM events)
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
           CAST(ROUND(AVG(gap_us), 0) AS BIGINT) AS avg_gap_us,
           CAST(MAX(gap_us) AS BIGINT) AS max_gap_us
    FROM g GROUP BY user_id
    """,
)
def user_interarrival_stats(sf_dir: str):
    if not table_num_rows(sf_dir, "events"):
        return _no_events(user_id=pa.int64(), n_events=pa.int64(),
                          avg_gap_us=pa.int64(), max_gap_us=pa.int64())
    ds = table(sf_dir, "events", ["event_id", "user_id", "ts"])
    return bucketed_group_agg(ds, ["user_id"], interarrival_bucket_stats)


def interarrival_bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
    """All users of one bucket in one vectorized pass: per-user gap sums /
    maxes via segment reduceat; single-event users (no gaps) yield NULL
    avg/max exactly like SQL's AVG/MAX over zero rows."""
    uid = g["user_id"].to_numpy()
    ts64 = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    eid = g["event_id"].to_numpy()
    order = np.lexsort((eid, ts64, uid))
    uid_s, ts_s = uid[order], ts64[order]
    new, _, starts = _user_segments(uid_s)
    lens = np.diff(np.append(starts, len(uid_s)))
    gap = np.concatenate([[0], np.diff(ts_s)])  # already microseconds
    valid = ~new
    sums = np.add.reduceat(np.where(valid, gap, 0), starts)
    counts = lens - 1
    maxs = np.maximum.reduceat(np.where(valid, gap, -1), starts)
    has = counts > 0
    avg = np.zeros(len(starts), dtype=np.int64)
    avg[has] = round_half_away(
        sums[has] / counts[has], 0
    ).astype(np.int64)
    avg_s = pd.Series(avg, dtype="Int64")
    max_s = pd.Series(maxs, dtype="Int64")
    avg_s[~has] = pd.NA
    max_s[~has] = pd.NA
    return pd.DataFrame(
        {
            "user_id": uid_s[starts],
            "n_events": pd.array(lens, dtype="int64"),
            "avg_gap_us": avg_s,
            "max_gap_us": max_s,
        }
    )


# --------------------------------------------------------------------------
# ROWS-frame rolling window: mean of each user's last 5 event values
# (ROWS BETWEEN 4 PRECEDING AND CURRENT ROW). The 5-term sum is built from
# explicitly shifted arrays added left-to-right — the same association
# order as a windowed scan — instead of pandas' sliding running sum, whose
# add/subtract drift could diverge from the oracle in the last ulp.
@register(
    "rolling_value_mean_5",
    sql="""
    SELECT event_id,
           ROUND(AVG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                  ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), 6)
             AS rolling_mean_5
    FROM events
    """,
)
def rolling_value_mean_5(sf_dir: str):
    if not table_num_rows(sf_dir, "events"):
        return _no_events(event_id=pa.int64(), rolling_mean_5=pa.float64())
    ds = table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    W = 5

    def roll_bucket(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        ts64 = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts64, uid))
        uid_s = uid[order]
        v = g["value"].to_numpy(dtype=np.float64)[order]
        _, urank, _ = _user_segments(uid_s)
        # same explicit left-to-right shifted-add association as the SQL
        # windowed scan, with a same-user mask per shift (x + 0.0 == x
        # exactly, so masked adds cannot perturb the float result)
        acc = v.copy()
        cnt = np.ones(len(v))
        for k in range(1, W):
            same = urank[k:] == urank[:-k]
            acc[k:] += np.where(same, v[:-k], 0.0)
            cnt[k:] += same
        return pd.DataFrame(
            {
                "event_id": eid[order],
                "rolling_mean_5": round_half_away(acc / cnt, 6),
            }
        )

    return bucketed_group_agg(ds, ["user_id"], roll_bucket)


# --------------------------------------------------------------------------
# event-type transition matrix: global counts of (previous event_type ->
# event_type) pairs within each user's (ts, event_id)-ordered stream — the
# Markov-chain building block. Per-user pair emission shuffles once on
# user_id (map_groups); the pair alphabet is fixed (|types|^2 ≈ tens), so
# the final count is a per-block partial + one local combine, no second
# shuffle at any input scale.
@register(
    "event_type_transitions",
    sql="""
    WITH g AS (
      SELECT lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
               AS prev_type,
             event_type AS next_type
      FROM events)
    SELECT prev_type, next_type, CAST(count(*) AS BIGINT) AS n
    FROM g WHERE prev_type IS NOT NULL GROUP BY prev_type, next_type
    """,
)
def event_type_transitions(sf_dir: str):
    ds = table(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        ts64 = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts64, uid))
        uid_s = uid[order]
        et = g["event_type"].to_numpy()[order]
        new, _, _ = _user_segments(uid_s)
        keep = ~new[1:]  # drop cross-user adjacencies
        out = pd.DataFrame(
            {"prev_type": et[:-1][keep], "next_type": et[1:][keep]}
        )
        return (
            out.groupby(["prev_type", "next_type"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    partial = bucketed_group_agg(ds, ["user_id"], pairs_bucket)

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # an empty events table reads as schema-less blocks, so the
            # partial stream can arrive without its columns
            return pa.table({"prev_type": pa.array([], pa.string()),
                             "next_type": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        return (
            pa.TableGroupBy(t, ["prev_type", "next_type"])
            .aggregate([("n", "sum")])
            .rename_columns(["prev_type", "next_type", "n"])
        )

    return combine_small(partial, final)


# --------------------------------------------------------------------------
# Forward-window interval self-join: for every event, how many events by
# the SAME user land in the next 5 minutes — aggregated per event_type
# (the "engagement follow-up" window). The range join never materializes
# pairs: within each user partition a single sorted-timestamp array
# answers all windows via two vectorized searchsorted calls (O(n log n)
# per user vs O(n·k) pair expansion), and each group collapses straight
# to ≤ n_event_types partial rows, so the post-shuffle stream is tiny at
# any scale. Boundary semantics match the SQL exactly: strictly after ts
# (side='right' at ts), inclusive at ts + 5 min (side='right' there too).
_FOLLOW_WINDOW_US = 5 * 60 * 1_000_000

_FOLLOW_SQL = """
WITH f AS (
  SELECT e.event_id, any_value(e.event_type) AS event_type,
         count(x.event_id) AS n_follow
  FROM events e LEFT JOIN events x
    ON x.user_id = e.user_id AND x.ts > e.ts
   AND x.ts <= e.ts + INTERVAL 5 MINUTE
  GROUP BY e.event_id)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(n_follow) AS BIGINT) AS total_followups,
       ROUND(avg(n_follow), 6) AS avg_followups
FROM f GROUP BY event_type
"""


@register("event_followup_5m_by_type", sql=_FOLLOW_SQL)
def event_followup_5m_by_type(sf_dir: str):
    ds = table(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    # offset-shift over the shared bucket infrastructure: each user's
    # relative timestamps are lifted onto a disjoint int64 range
    # (urank × span, span > ts_range + window), so two global searchsorted
    # calls answer every user's forward window at once, no cross-user bleed
    def follow_bucket(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((ts, uid))
        uid_s, ts_s = uid[order], ts[order]
        _, urank, _ = _user_segments(uid_s)
        ts0 = ts_s - ts_s.min()
        span = np.int64(ts0.max()) + _FOLLOW_WINDOW_US + 1
        shifted = urank * span + ts0
        n_follow = np.searchsorted(
            shifted, shifted + _FOLLOW_WINDOW_US, side="right"
        ) - np.searchsorted(shifted, shifted, side="right")
        out = pd.DataFrame(
            {"event_type": g["event_type"].to_numpy()[order], "nf": n_follow}
        )
        return out.groupby("event_type", as_index=False).agg(
            n_events=("nf", "size"), total_followups=("nf", "sum")
        )

    partials = bucketed_group_agg(ds, ["user_id"], follow_bucket)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # empty events table: see event_type_transitions
            return pa.table({"event_type": pa.array([], pa.string()),
                             "n_events": pa.array([], pa.int64()),
                             "total_followups": pa.array([], pa.int64()),
                             "avg_followups": pa.array([], pa.float64())})
        agg = t.group_by("event_type").aggregate(
            [("n_events", "sum"), ("total_followups", "sum")]
        )
        n = agg["n_events_sum"].to_numpy(zero_copy_only=False)
        tot = agg["total_followups_sum"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": agg["event_type"],
                "n_events": pa.array(n, pa.int64()),
                "total_followups": pa.array(tot, pa.int64()),
                "avg_followups": pa.array(round_half_away(tot / n, 6)),
            }
        )

    return combine_small(partials, finish)


# --------------------------------------------------------------------------
# Robust statistics per event type: median and MAD (median absolute
# deviation) of ``value``. Median is a global order statistic, so the
# exact path partitions by the (fixed, small) event_type key and sorts
# within each group; at web scale a single type's group outgrows one
# worker — swap in the histogram-quantile path (event_value_quantiles)
# there, documented trade. Matches DuckDB median()/mad() exactly: even
# counts interpolate the two middle values.


@register(
    "event_value_robust_stats",
    sql="""
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           ROUND(median(value), 6) AS med,
           ROUND(mad(value), 6) AS mad
    FROM events GROUP BY event_type
    """,
)
def event_value_robust_stats(sf_dir: str):
    ds = table(sf_dir, "events", ["event_type", "value"])

    def robust(g: pd.DataFrame) -> pd.DataFrame:
        v = g["value"].to_numpy(dtype=np.float64)
        med = float(np.median(v))
        mad = float(np.median(np.abs(v - med)))
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n": [len(v)],
                "med": [round_half_away(np.array([med]), 6)[0]],
                "mad": [round_half_away(np.array([mad]), 6)[0]],
            }
        )

    return ds.groupby("event_type").map_groups(robust, batch_format="pandas")


# --------------------------------------------------------------------------
# Ordered-sequence FUNNEL (strict): of the users who ever 'view', how
# many have their FIRST 'click' strictly after their first view, and of
# those, their FIRST 'purchase' strictly after that click — the classic
# conversion funnel, which needs event-ORDER per user, not just
# membership. One bucketed exchange on
# user_id puts a user's (type, ts) rows together; the per-user reduce is
# three vectorized first-timestamp lookups. Output: one row per funnel
# stage with the surviving-user count and conversion from the previous
# stage.

_FUNNEL_SQL = """
WITH u AS (
  SELECT user_id,
         min(CASE WHEN event_type = 'view' THEN ts END) AS t_view,
         min(CASE WHEN event_type = 'click' THEN ts END) AS t_click_any,
         min(CASE WHEN event_type = 'purchase' THEN ts END)
             AS t_purchase_any
  FROM events GROUP BY user_id),
s AS (
  SELECT user_id, t_view,
         CASE WHEN t_click_any > t_view THEN t_click_any END AS t_click,
         t_purchase_any
  FROM u),
s2 AS (
  SELECT user_id, t_view, t_click,
         CASE WHEN t_purchase_any > t_click THEN t_purchase_any END
             AS t_purchase
  FROM s),
c AS (
  SELECT CAST(count(t_view) AS BIGINT) AS n_view,
         CAST(count(t_click) AS BIGINT) AS n_click,
         CAST(count(t_purchase) AS BIGINT) AS n_purchase
  FROM s2)
SELECT stage, n_users, round(conversion, 6) AS conversion
FROM (
  SELECT 'view' AS stage, n_view AS n_users, 1.0 AS conversion, 0 AS ord
  FROM c
  UNION ALL
  SELECT 'click', n_click,
         CASE WHEN n_view > 0 THEN CAST(n_click AS DOUBLE) / n_view
              ELSE 0 END, 1 FROM c
  UNION ALL
  SELECT 'purchase', n_purchase,
         CASE WHEN n_click > 0 THEN CAST(n_purchase AS DOUBLE) / n_click
              ELSE 0 END, 2 FROM c
) ORDER BY ord
"""

_FUNNEL_STAGES = ("view", "click", "purchase")


@register("user_funnel_conversion", sql=_FUNNEL_SQL)
def user_funnel_conversion(sf_dir: str):
    ds = table(sf_dir, "events", ["user_id", "event_type", "ts"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        # first-view, first-click-after-view, first-purchase-after-click
        # per user in this bucket; emit one partial count row
        out = {}
        for stage in _FUNNEL_STAGES:
            m = g[g["event_type"] == stage]
            out[stage] = m.groupby("user_id")["ts"].min()
        base = out["view"].dropna()
        click = out["click"].reindex(base.index)
        click = click[click > base.reindex(click.index)].dropna()
        pur = out["purchase"].reindex(click.index)
        pur = pur[pur > click.reindex(pur.index)].dropna()
        return pd.DataFrame(
            {"n_view": [len(base)], "n_click": [len(click)],
             "n_purchase": [len(pur)]}
        )

    parts = bucketed_group_agg(
        ds, ["user_id"], per_user
    ).to_pandas()  # bounded: one row per bucket
    nv, nc, npu = (int(parts[c].sum())
                   for c in ("n_view", "n_click", "n_purchase"))
    conv = [1.0,
            (nc / nv) if nv else 0.0,
            (npu / nc) if nc else 0.0]
    return pa.table(
        {
            "stage": pa.array(list(_FUNNEL_STAGES)),
            "n_users": pa.array([nv, nc, npu], pa.int64()),
            "conversion": pa.array(round_half_away(np.array(conv), 6)),
        }
    )


# --------------------------------------------------------------------------
# Rolling 7-day distinct active users — the sliding-window DISTINCT the
# engagement dashboards need (distinct does not decompose over windows, so
# the standard distributed shape is: dedup to (day, user) pairs, explode
# each pair into the ≤7 window-days it contributes to, dedup again on
# (window_day, user), count). Both dedups ride bucketed_group_agg (a pair
# lives in exactly one bucket, so bucket counts sum exactly); the observed
# -day set is a bounded (time-span-sized) broadcast. ~7× the distinct-pair
# row count crosses the exchange — pairs, never raw events.
@register(
    "rolling_7d_distinct_users",
    sql="""
    WITH du AS (
      SELECT DISTINCT date_trunc('day', ts) AS day, user_id FROM events),
    days AS (SELECT DISTINCT day FROM du)
    SELECT d.day, CAST(count(DISTINCT du.user_id) AS BIGINT) AS n_users
    FROM days d
    JOIN du ON du.day BETWEEN d.day - INTERVAL 6 DAY AND d.day
    GROUP BY 1
    """,
)
def rolling_7d_distinct_users(sf_dir: str):
    import pyarrow.compute as pc
    import ray

    if not table_num_rows(sf_dir, "events"):
        return _no_events(day=pa.timestamp("us"), n_users=pa.int64())
    ds = table(sf_dir, "events", ["ts", "user_id"])

    # pass 1 (streaming, no exchange): the observed-day set — bounded by
    # the corpus time span — broadcasts as a sorted array
    def day_partial(t: pa.Table) -> pa.Table:
        m = pa.table({"day": pc.floor_temporal(t["ts"], unit="day")})
        return m.group_by(["day"]).aggregate([])

    day_set = combine_small(
        ds.map_batches(day_partial, batch_format="pyarrow"),
        lambda t: pa.Table.from_pandas(
            t.to_pandas().drop_duplicates(), preserve_index=False
        ),
    ).to_pandas()
    days_ref = ray.put(np.sort(day_set["day"].to_numpy("datetime64[us]")))

    # pass 2: distinct (day, user) per block, then ONE exchange keyed on
    # user_id — all of a user's days land in one bucket, so the 7-day
    # window explode, the per-(user, window) dedup AND the per-day count
    # partial all happen bucket-locally. The exploded 7x rows never cross
    # the wire (the previous two-exchange shape shipped them all, and its
    # un-materialized first exchange re-executed for the day-set scan:
    # 3.6 -> ~1.8 s at sf0.1).
    def pair_partial(t: pa.Table) -> pa.Table:
        m = pa.table(
            {"day": pc.floor_temporal(t["ts"], unit="day"),
             "user_id": t["user_id"]}
        )
        return m.group_by(["day", "user_id"]).aggregate([])

    def per_user_windows(g: pd.DataFrame, *, ref) -> pd.DataFrame:
        days = ray.get(ref)
        g = g.drop_duplicates()
        if not len(g):
            return pd.DataFrame(
                {"day": pd.Series([], dtype="datetime64[us]"),
                 "n_users": pd.Series([], dtype="int64")}
            )
        day = g["day"].to_numpy("datetime64[us]")
        uid = g["user_id"].to_numpy(np.int64)
        out_day, out_uid = [], []
        for i in range(7):
            w = day + np.timedelta64(i, "D").astype("timedelta64[us]")
            keep = np.isin(w, days)  # only OBSERVED days are output rows
            out_day.append(w[keep])
            out_uid.append(uid[keep])
        win = pd.DataFrame(
            {"day": np.concatenate(out_day),
             "user_id": np.concatenate(out_uid)}
        ).drop_duplicates()  # exact: every row of a user is in this bucket
        return (
            win.groupby("day", as_index=False)
            .agg(n_users=("user_id", "size"))
        )

    import functools

    counts = bucketed_group_agg(
        ds.map_batches(pair_partial, batch_format="pyarrow"),
        ["user_id"],
        functools.partial(per_user_windows, ref=days_ref),
    )

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas().groupby("day", as_index=False)
            .agg(n_users=("n_users", "sum"))
        )
        return pa.table(
            {
                "day": pa.array(g["day"].to_numpy("datetime64[us]")),
                "n_users": pa.array(g["n_users"].to_numpy(np.int64)),
            }
        )

    return combine_small(counts, final)


# --------------------------------------------------------------------------
# First-touch attribution: which event type is each user's FIRST event
# (order = (ts, event_id), total and deterministic), and what share of
# users each type captures. Per-block argmin partials → bucketed exchange
# keyed on user (exact per-user argmin at any cardinality) → tiny
# per-type count fold. The mergeable-argmin shape of
# cheapest_supplier_leaderboard pointed at the events log.
@register(
    "first_touch_event_share",
    sql="""
    WITH f AS (
      SELECT user_id, event_type,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS r
      FROM events)
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_users,
           ROUND(count(*) / SUM(count(*)) OVER (), 6) AS share
    FROM f WHERE r = 1
    GROUP BY 1
    """,
)
def first_touch_event_share(sf_dir: str):
    from .common import combine_small, round_half_away

    if not table_num_rows(sf_dir, "events"):
        return _no_events(event_type=pa.string(), n_users=pa.int64(),
                          share=pa.float64())
    ds = table(sf_dir, "events", ["ts", "user_id", "event_type", "event_id"])

    def argmin_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df[["user_id", "ts", "event_id", "event_type"]]
        return (
            df.sort_values(["ts", "event_id"])
            .drop_duplicates("user_id")[["user_id", "ts", "event_id",
                                         "event_type"]]
        )

    firsts = bucketed_group_agg(
        ds.map_batches(argmin_partial, batch_format="pandas"),
        ["user_id"],
        lambda g: g.sort_values(["ts", "event_id"])
        .drop_duplicates("user_id"),
    )

    def type_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", as_index=False).agg(
            n_users=("user_id", "size")
        )
        return g

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas().groupby("event_type", as_index=False)
            .agg(n_users=("n_users", "sum"))
        )
        g["share"] = round_half_away(
            g["n_users"].to_numpy(np.float64) / g["n_users"].sum(), 6
        )
        g["n_users"] = g["n_users"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    return combine_small(
        firsts.map_batches(type_partial, batch_format="pandas"), final
    )


# --------------------------------------------------------------------------
# Rolling 30-day revenue: per-day order revenue plus its trailing 30-day
# window sum — daily partials in EXACT integer cents (block partials and
# the DuckDB window can never diverge by summation order), the rolling
# fold on the driver over the bounded day spine (|days| rows, corpus-span
# bounded). RANGE semantics: calendar window [d−29, d], gaps contribute 0.
@register(
    "orders_rolling_30d_revenue",
    sql="""
    WITH d AS (
      SELECT o_orderdate AS day,
             SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS cents
      FROM orders GROUP BY 1)
    SELECT day,
           CAST(cents AS DOUBLE) / 100 AS revenue,
           CAST(SUM(cents) OVER (
                  ORDER BY day
                  RANGE BETWEEN INTERVAL 29 DAY PRECEDING AND CURRENT ROW)
                AS DOUBLE) / 100 AS rolling_30d
    FROM d
    """,
)
def orders_rolling_30d_revenue(sf_dir: str):
    import pyarrow.compute as pc

    from .common import combine_small

    ds = table(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        m = pa.table({"day": t["o_orderdate"], "cents": cents})
        return (
            pa.TableGroupBy(m, ["day"])
            .aggregate([("cents", "sum")])
            .rename_columns(["day", "cents"])
        )

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas().groupby("day", as_index=False)
            .agg(cents=("cents", "sum")).sort_values("day")
            .reset_index(drop=True)
        )
        day = g["day"].to_numpy("datetime64[us]")
        cents = g["cents"].to_numpy(np.int64)
        cum = np.concatenate([[0], np.cumsum(cents)])
        lo = np.searchsorted(
            day, day - np.timedelta64(29, "D").astype("timedelta64[us]")
        )
        rolling = cum[np.arange(1, len(cents) + 1)] - cum[lo]
        return pa.table(
            {"day": pa.array(day),
             "revenue": pa.array(cents / 100.0, pa.float64()),
             "rolling_30d": pa.array(rolling / 100.0, pa.float64())}
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"), final)


# --------------------------------------------------------------------------
# Above-average ingest days with EXACT integer-scaled deviation: a day is
# flagged when n·n_days > Σn (i.e. its count beats the mean), and the
# emitted deviation is n·n_days − Σn — pure integer cross-multiplication,
# so no float mean computed in different summation orders can flip a
# boundary day between engines (same exactness trick as the repo's Q22 /
# Q17 scalar-subquery shapes). The daily table is bounded by the date
# span, so the global scalar and filter finish in one local combine.
_BURST_SQL = """
WITH d AS (
  SELECT date_trunc('day', ts) AS day, count(*) AS n
  FROM events GROUP BY 1
),
t AS (SELECT count(*) AS k, SUM(n) AS s FROM d)
SELECT day, CAST(n AS BIGINT) AS n,
       CAST(n * k - s AS BIGINT) AS dev_scaled
FROM d, t
WHERE n * k > s
ORDER BY day
"""


@register("event_above_average_days", sql=_BURST_SQL)
def event_above_average_days(sf_dir: str):
    import pyarrow.compute as pc

    ds = table(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        m = pa.table({"day": pc.floor_temporal(t["ts"], unit="day")})
        return (
            pa.TableGroupBy(m, ["day"])
            .aggregate([([], "count_all")])
            .rename_columns(["day", "n"])
        )

    def final(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("day", as_index=False)["n"].sum()
        if not len(g):
            return pa.table(
                {"day": pa.array([], pa.timestamp("us")),
                 "n": pa.array([], pa.int64()),
                 "dev_scaled": pa.array([], pa.int64())}
            )
        n = g["n"].to_numpy(np.int64)
        k, s = len(g), int(n.sum())
        dev = n * k - s
        out = g[dev > 0].sort_values("day")
        return pa.table(
            {
                "day": pa.array(out["day"].to_numpy("datetime64[us]")),
                "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
                "dev_scaled": pa.array(dev[dev > 0]),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"),
                         final)


# --------------------------------------------------------------------------
# Cumulative unique users by day: the corpus-growth curve (how many
# distinct users have EVER been seen as of each day). First-seen day per
# user is the one high-cardinality fold (bucketed exchange keyed on
# user_id, min per user); the per-day new-user counts and the running sum
# are bounded by the date span and finish in one local combine.
_CUMU_SQL = """
WITH f AS (
  SELECT user_id, MIN(date_trunc('day', ts)) AS first_day
  FROM events GROUP BY user_id
),
d AS (SELECT first_day AS day, count(*) AS new_users FROM f GROUP BY 1)
SELECT day,
       CAST(new_users AS BIGINT) AS new_users,
       CAST(SUM(new_users) OVER (ORDER BY day) AS BIGINT) AS cum_users
FROM d
ORDER BY day
"""


@register("cumulative_unique_users_daily", sql=_CUMU_SQL)
def cumulative_unique_users_daily(sf_dir: str):
    import pyarrow.compute as pc

    ds = table(sf_dir, "events", ["ts", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        m = pa.table(
            {
                "user_id": t["user_id"],
                "day": pc.floor_temporal(t["ts"], unit="day"),
            }
        )
        return (
            pa.TableGroupBy(m, ["user_id"])
            .aggregate([("day", "min")])
            .rename_columns(["user_id", "first_day"])
        )

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        f = g.groupby("user_id", as_index=False)["first_day"].min()
        # collapse inside the bucket: one row per (day) partial count
        return (
            f.groupby("first_day", as_index=False)
            .size()
            .rename(columns={"size": "new_users"})
        )

    firsts = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"), ["user_id"],
        per_user,
    )

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("first_day", as_index=False)["new_users"]
            .sum()
            .sort_values("first_day", kind="stable")
        )
        nu = g["new_users"].to_numpy(np.int64)
        return pa.table(
            {
                "day": pa.array(g["first_day"].to_numpy("datetime64[us]")),
                "new_users": pa.array(nu),
                "cum_users": pa.array(np.cumsum(nu)),
            }
        )

    return combine_small(firsts, final)
