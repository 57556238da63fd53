"""URL-hygiene analytics: the frontier-side quality passes a crawl runs
over its discovered-URL stream, exercised against the REAL
``core.urltools`` functions (``canonicalize_url``, ``trap_reason``) with
SQL oracles replaying the deterministic URL construction — if either
function mis-handles a spelling, the Ray side diverges from the oracle.

Reference analog: the reference normalizes free-text before keying
(``Cansin_Location_Detection.py:122-193``); these are the crawl-engine
versions of that normalize-then-dedup discipline.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .common import bucketed_group_agg, round_half_away, table
from .queries import register


# --------------------------------------------------------------------------
# Trap-shaped URL triage over a synthetic discovered-URL stream.
#
# URL construction (deterministic from doc_id, replayed by the SQL):
#   depth    = 1 + (doc_id * 13) % 8           path segments
#   seg[j]   = s{(doc_id + j*j) % 5}           j in [0, depth)
#   n_params = doc_id % 5                      query params q0=0&q1=1...
# plus content-neutral mess (fragment / uppercased host) the canonicalizer
# must strip BEFORE the trap check sees the path.
_TRAP_SQL = """
WITH u AS (
  SELECT doc_id,
         1 + (doc_id * 13) % 8 AS depth,
         doc_id % 5 AS n_params
  FROM documents),
s AS (
  SELECT depth, n_params,
         [ (doc_id + j*j) % 5 for j in range(0, CAST(depth AS INTEGER)) ]
           AS segs
  FROM u),
r AS (
  SELECT CASE WHEN depth >= 6 THEN 'deep'
              WHEN len(segs) != len(list_distinct(segs)) THEN 'repeat'
              WHEN n_params >= 3 THEN 'params'
              ELSE 'ok' END AS reason
  FROM s)
SELECT reason, CAST(count(*) AS BIGINT) AS n FROM r GROUP BY reason
"""


def _raw_trap_urls(d: np.ndarray) -> list[str]:
    """The messy discovered-URL stream (vector math for the parts, one
    inherently per-item string assembly — same cost profile as the
    crawler's own per-URL canonicalize in decode_submit)."""
    depth = 1 + (d * 13) % 8
    n_params = d % 5
    urls = []
    for i in range(len(d)):
        di, dep = int(d[i]), int(depth[i])
        segs = "/".join(f"s{(di + j * j) % 5}" for j in range(dep))
        q = "&".join(f"q{j}={j}" for j in range(int(n_params[i])))
        host = f"h{di % 64}.example.com"
        if di % 3 == 1:
            host = host.upper()
        url = f"http://{host}/{segs}"
        if q:
            url += f"?{q}"
        if di % 3 == 0:
            url += "#frag"
        urls.append(url)
    return urls


@register("crawl_trap_url_flags", sql=_TRAP_SQL)
def crawl_trap_url_flags(sf_dir: str):
    from ..core.urltools import canonicalize_url, trap_reason

    ds = table(sf_dir, "documents", ["doc_id"])

    def partial(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        reasons = [
            trap_reason(canonicalize_url(u)) or "ok" for u in _raw_trap_urls(d)
        ]
        tmp = pa.table({"reason": pa.array(reasons, pa.string())})
        return (
            pa.TableGroupBy(tmp, "reason")
            .aggregate([([], "count_all")])
            .rename_columns(["reason", "n"])
        )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        agg = (
            pa.TableGroupBy(t, "reason")
            .aggregate([("n", "sum")])
            .rename_columns(["reason", "n"])
        )
        return pa.table(
            {"reason": agg["reason"], "n": pc.cast(agg["n"], pa.int64())}
        )

    from .common import combine_small

    # fixed key cardinality (4 reasons): per-block combine, no shuffle
    return combine_small(ds.map_batches(partial, batch_format="pyarrow"), finish)


# --------------------------------------------------------------------------
# Canonicalization collapse audit: four messy spellings per page — tracking
# params, uppercased host + default port + fragment, duplicate/dot path
# segments — must all collapse to ONE canonical URL. The SQL counts the
# construction groups directly; the Ray side counts distinct canonical
# strings AFTER running the real canonicalizer, so any canonicalization
# defect (missed param strip, kept fragment, unresolved dot segment)
# breaks value parity.
_CANON_SQL = """
WITH g AS (SELECT doc_id // 4 AS page, doc_id % 4 AS variant FROM documents)
SELECT CAST(count(*) AS BIGINT) AS n_urls,
       CAST(count(DISTINCT page * 4 + variant) AS BIGINT) AS n_raw_distinct,
       CAST(count(DISTINCT page) AS BIGINT) AS n_canonical,
       ROUND(count(*) * 1.0 / count(DISTINCT page), 6) AS urls_per_canonical
FROM g
"""


def _raw_variant(page: int, variant: int) -> str:
    host = f"h{page % 64}.example.com"
    base = f"http://{host}/p/{page}"
    if variant == 1:
        return f"{base}?utm_source=feed&gclid=x"
    if variant == 2:
        return f"HTTP://{host.upper()}:80/p/{page}#sec"
    if variant == 3:
        return f"http://{host}//p/./{page}"
    return base


@register("url_canonical_dedup_stats", sql=_CANON_SQL)
def url_canonical_dedup_stats(sf_dir: str):
    from ..core.urltools import canonicalize_url

    ds = table(sf_dir, "documents", ["doc_id"])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy(dtype=np.int64)
        raw = [_raw_variant(int(x) // 4, int(x) % 4) for x in d]
        return pd.DataFrame({"raw": raw, "canon": [canonicalize_url(u) for u in raw]})

    # one shuffle keyed on the canonical bucket: every raw spelling of a
    # canonical lands in that canonical's bucket (raw → canon is a
    # function), so both distinct counts are exact per-bucket partials
    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n": [len(g)],
                "n_raw": [g["raw"].nunique()],
                "n_canon": [g["canon"].nunique()],
            }
        )

    parts = bucketed_group_agg(
        ds.map_batches(canon, batch_format="pandas"),
        ["canon"],
        bucket_stats,
    ).to_pandas()
    n = int(parts["n"].sum())
    n_canon = int(parts["n_canon"].sum())
    return pa.table(
        {
            "n_urls": pa.array([n], pa.int64()),
            "n_raw_distinct": pa.array([int(parts["n_raw"].sum())], pa.int64()),
            "n_canonical": pa.array([n_canon], pa.int64()),
            "urls_per_canonical": pa.array(
                round_half_away([n / n_canon], 6)
            ),
        }
    )
