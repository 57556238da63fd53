"""Set / distinct / union / per-group-top-k operators (SURVEY §2.6-2.7)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
from ray.data.aggregate import Count

from .common import bucketed_group_agg, table, table_num_rows
from .queries import _no_events, register


# ds.unique — distinct values of a column (a shuffle)
@register(
    "distinct_langs",
    sql="SELECT DISTINCT lang FROM documents",
)
def distinct_langs(sf_dir: str):
    vals = table(sf_dir, "documents", ["lang"]).unique("lang")
    return pd.DataFrame({"lang": sorted(vals)})


# ds.union — D2/D3 analog: two sources unioned then aggregated
@register(
    "union_name_initials",
    sql="""
    SELECT substr(name, 1, 1) AS initial, count(*) AS n FROM (
      SELECT c_name AS name FROM customer
      UNION ALL
      SELECT s_name AS name FROM supplier)
    GROUP BY 1
    """,
)
def union_name_initials(sf_dir: str):
    cust = table(sf_dir, "customer", ["c_name"]).map_batches(
        lambda t: pa.table({"name": t["c_name"]}), batch_format="pyarrow"
    )
    sup = table(sf_dir, "supplier", ["s_name"]).map_batches(
        lambda t: pa.table({"name": t["s_name"]}), batch_format="pyarrow"
    )

    def initial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"initial": pc.utf8_slice_codeunits(t["name"], 0, 1)})

    return (
        cust.union(sup)
        .map_batches(initial, batch_format="pyarrow")
        .groupby("initial")
        .aggregate(Count(alias_name="n"))
    )


# per-group top-k (A4 family): each user's top-2 events by value
@register(
    "top2_events_per_user",
    sql="""
    SELECT user_id, event_id, ROUND(value, 2) AS value, CAST(rnk AS BIGINT) AS rnk
    FROM (
      SELECT user_id, event_id, value,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY value DESC, event_id) AS rnk
      FROM events)
    WHERE rnk <= 2
    """,
)
def top2_events_per_user(sf_dir: str):
    if not table_num_rows(sf_dir, "events"):
        return _no_events(user_id=pa.int64(), event_id=pa.int64(),
                          value=pa.float64(), rnk=pa.int64())
    ds = table(sf_dir, "events", ["user_id", "event_id", "value"])

    # per-group top-k over a user BUCKET: one vectorized sort + cumcount
    # ranks every user in the bucket at once (no per-user Python call)
    def topk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["user_id", "value", "event_id"], ascending=[True, False, True]
        )
        g = g.assign(rnk=g.groupby("user_id").cumcount() + 1)
        g = g[g["rnk"] <= 2].copy()
        g["rnk"] = g["rnk"].astype("int64")
        g["value"] = g["value"].round(2)
        return g[["user_id", "event_id", "value", "rnk"]]

    return bucketed_group_agg(ds, ["user_id"], topk_bucket)


# --------------------------------------------------------------------------
# Deterministic hash-threshold sampling — the scalable sampling primitive
# (a seeded reservoir needs coordinated state; hashing needs none): keep a
# row iff its key hash falls under rate × 2^64. Stable across runs,
# cluster sizes and partitionings; the same filter works as a progressive
# sample (rate r1 ⊂ rate r2 for r1 < r2). Hash = little-endian md5[:8]
# (== DuckDB md5_number_upper) so the oracle replays the exact sample.
SAMPLE_RATE = 0.1
_SAMPLE_THRESHOLD = int(SAMPLE_RATE * (1 << 64))


@register(
    "hash_sample_docs",
    sql=f"""
    SELECT doc_id, n_chars
    FROM documents
    WHERE md5_number_upper(CAST(doc_id AS VARCHAR)) < {_SAMPLE_THRESHOLD}
    """,
)
def hash_sample_docs(sf_dir: str):
    import pyarrow as pa

    from .common import md5_u64_le

    ds = table(sf_dir, "documents", ["doc_id", "n_chars"])

    def keep(t: pa.Table) -> pa.Table:
        mask = pa.array(
            [
                md5_u64_le(str(d)) < _SAMPLE_THRESHOLD
                for d in t["doc_id"].to_pylist()
            ]
        )
        return t.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")
