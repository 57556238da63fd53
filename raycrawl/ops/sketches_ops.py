"""Sketch/quantile operators + an additional large-large join.

The reference has no approximate aggregates (SURVEY §2.5); these add the
training-pipeline staples: mergeable HyperLogLog distinct-count (per-batch
sketches merged in a tiny second stage — the canonical mergeable-sketch
shape) and histogram-based exact quantiles (groupby on rounded values →
small cumulative table), plus one more ``Dataset.join`` exercise.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count

from . import common
from .common import md5_u64_le, round_half_away, table
from .queries import _no_events, register


# --------------------------------------------------------------------------
# large-large hash join #2: order rows enriched with customer nation,
# filtered, counted per nation (Dataset.join keyed on custkey)
@register(
    "orders_per_nation_joined",
    sql="""
    SELECT c_nationkey, count(*) AS n
    FROM orders JOIN customer ON o_custkey = c_custkey
    WHERE o_totalprice > 100000
    GROUP BY c_nationkey
    """,
)
def orders_per_nation_joined(sf_dir: str):
    orders = table(sf_dir, "orders", ["o_custkey", "o_totalprice"]).filter(
        expr="o_totalprice > 100000"
    )
    cust = table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = common.join(orders, cust, "inner", ("o_custkey",),
                         ("c_custkey",))
    return joined.groupby("c_nationkey").aggregate(Count(alias_name="n"))


# --------------------------------------------------------------------------
# exact quantiles via value histogram: groupby(rounded value) → tiny
# cumulative table on the driver; identical construction in SQL so the
# discrete-quantile convention matches exactly on both sides
_QS = (0.5, 0.9, 0.99)


@register(
    "event_value_quantiles",
    sql=f"""
    WITH h AS (SELECT ROUND(value, 2) AS v, count(*) AS n FROM events GROUP BY 1),
    t AS (SELECT SUM(n) AS tot FROM h),
    c AS (SELECT v, SUM(n) OVER (ORDER BY v) AS cum FROM h)
    {" UNION ALL ".join(
        f"SELECT 'p{int(q * 100)}' AS quantile, "
        f"(SELECT min(v) FROM c, t WHERE cum >= {q} * tot) AS value"
        for q in _QS
    )}
    """,
)
def event_value_quantiles(sf_dir: str):
    ds = table(sf_dir, "events", ["value"])

    def rounded(t: pa.Table) -> pa.Table:
        return pa.table(
            {"v": pc.round(t["value"], ndigits=2,
                           round_mode="half_towards_infinity")}
        )

    hist = (
        ds.map_batches(rounded, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Count(alias_name="n"))
        .to_pandas()  # ≤ distinct rounded values — small
        .sort_values("v")
    )
    tot = hist["n"].sum()
    cum = hist["n"].cumsum()
    out = []
    for q in _QS:
        idx = (cum >= q * tot).idxmax()
        out.append({"quantile": f"p{int(q * 100)}", "value": float(hist.loc[idx, "v"])})
    return pd.DataFrame(out)


# --------------------------------------------------------------------------
# HyperLogLog distinct count: one 2^12-register sketch per batch, merged in
# a tiny reduce — the mergeable-sketch pattern. The value hash is the
# little-endian first-8-bytes of md5 (== DuckDB's md5_number_upper), so
# the SQL oracle can replay the registers and the estimator bit-for-bit;
# pytest additionally bounds the estimate's error against the exact count.
HLL_P = 12
HLL_M = 1 << HLL_P


def _hll_sketch(values) -> np.ndarray:
    regs = np.zeros(HLL_M, dtype=np.uint8)
    for v in values:
        h = md5_u64_le(str(v))
        idx = h & (HLL_M - 1)
        w = h >> HLL_P
        rank = (64 - HLL_P) - w.bit_length() + 1
        if rank > regs[idx]:
            regs[idx] = rank
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    alpha = 0.7213 / (1 + 1.079 / HLL_M)
    est = alpha * HLL_M * HLL_M / np.sum(2.0 ** -regs.astype(np.float64))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * HLL_M and zeros:
        est = HLL_M * np.log(HLL_M / zeros)  # small-range correction
    return float(est)


@register(
    "hll_distinct_users",
    # replay of the sketch itself: register updates depend only on the
    # DISTINCT values, so the oracle hashes distinct user_ids, rebuilds
    # the max-rank registers and applies the identical estimator
    # (incl. the small-range linear-counting correction)
    sql=f"""
    WITH h AS (
      SELECT md5_number_upper(CAST(user_id AS VARCHAR)) AS h
      FROM (SELECT DISTINCT user_id FROM events)
    ),
    r AS (
      SELECT CAST(h & {HLL_M - 1} AS BIGINT) AS idx,
             CAST(CASE WHEN (h >> {HLL_P}) = 0 THEN {64 - HLL_P} + 1
                  ELSE {64 - HLL_P} - length(bin(h >> {HLL_P})) + 1 END
                  AS BIGINT) AS rank
      FROM h
    ),
    regs AS (SELECT idx, MAX(rank) AS r FROM r GROUP BY idx),
    allregs AS (
      SELECT i.idx, COALESCE(regs.r, 0) AS r
      FROM (SELECT unnest(range({HLL_M})) AS idx) i LEFT JOIN regs USING (idx)
    ),
    s AS (SELECT SUM(POWER(2.0, -r)) AS ssum,
                 SUM(CASE WHEN r = 0 THEN 1 ELSE 0 END) AS zeros FROM allregs),
    e AS (SELECT (0.7213 / (1 + 1.079 / {HLL_M})) * {HLL_M} * {HLL_M} / ssum
                   AS est,
                 zeros FROM s)
    SELECT 'hll_distinct_user_ids' AS metric,
           ROUND(CASE WHEN est <= 2.5 * {HLL_M} AND zeros > 0
                      THEN {HLL_M} * LN({HLL_M}.0 / zeros) ELSE est END, 1)
             AS estimate
    FROM e
    """,
)
def hll_distinct_users(sf_dir: str):
    ds = table(sf_dir, "events", ["user_id"])

    def sketch(t: pa.Table) -> pa.Table:
        regs = _hll_sketch(t["user_id"].to_pylist())
        return pa.table({"regs": pa.array([regs.tobytes()], pa.large_binary())})

    def merge(t: pa.Table) -> pd.DataFrame:
        merged = np.zeros(HLL_M, dtype=np.uint8)
        for regs in t["regs"].to_pylist() if t.num_rows else ():
            merged = np.maximum(merged, np.frombuffer(regs, dtype=np.uint8))
        return pd.DataFrame(
            [{"metric": "hll_distinct_user_ids", "estimate": float(round_half_away(hll_estimate(merged), 1))}]
        )

    return common.combine_small(
        ds.map_batches(sketch, batch_format="pyarrow"), merge)


# --------------------------------------------------------------------------
# Misra-Gries heavy hitters over document tokens, two-pass-exact: pass 1
# runs an MG(k) summary per batch (a token with overall frequency ≥ N/k is
# frequent in at least one batch by averaging, so the union of per-batch
# summaries is a candidate superset); pass 2 recounts ONLY the candidates
# exactly (broadcast set + per-batch partial counts → tiny groupby). The
# result — the exact top-N tokens — is therefore SQL-verifiable even
# though the discovery pass is a streaming sketch.
MG_K = 256
HH_TOP_N = 10


def _mg_summary(counter_texts, k: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for text in counter_texts:
        for tok in text.split():
            if tok in counts:
                counts[tok] += 1
            elif len(counts) < k:
                counts[tok] = 1
            else:  # decrement-all step
                for key in list(counts):
                    counts[key] -= 1
                    if counts[key] == 0:
                        del counts[key]
    return counts


@register(
    "heavy_hitter_tokens",
    sql=f"""
    WITH toks AS (
      SELECT unnest(string_split(text, ' ')) AS term FROM documents
    ),
    counted AS (SELECT term, count(*) AS n FROM toks GROUP BY term)
    SELECT term, n FROM counted
    ORDER BY n DESC, term LIMIT {HH_TOP_N}
    """,
)
def heavy_hitter_tokens(sf_dir: str):
    import ray

    ds = table(sf_dir, "documents", ["text"])

    def summarize(df: pd.DataFrame) -> pd.DataFrame:
        mg = _mg_summary(df["text"], MG_K)
        return pd.DataFrame({"term": list(mg)})

    candidates = set(
        ds.map_batches(summarize, batch_format="pandas")
        .to_pandas()["term"]
    )
    cand_ref = ray.put(candidates)

    def recount(df: pd.DataFrame) -> pd.DataFrame:
        cand = ray.get(cand_ref)
        counts: dict[str, int] = {}
        for text in df["text"]:
            for tok in text.split():
                if tok in cand:
                    counts[tok] = counts.get(tok, 0) + 1
        return pd.DataFrame({"term": list(counts), "n": list(counts.values())})

    from ray.data.aggregate import Sum

    def batch_token_total(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [sum(len(t.split()) for t in df["text"])]})

    total_tokens = int(
        ds.map_batches(batch_token_total, batch_format="pandas")
        .sum("n")
    )

    exact = (
        ds.map_batches(recount, batch_format="pandas")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    out = (
        exact.sort_values(["n", "term"], ascending=[False, True])
        .head(HH_TOP_N)
        .reset_index(drop=True)
    )
    out["n"] = out["n"].astype("int64")
    # completeness guard: the candidate superset provably contains every
    # token with freq ≥ total/MG_K; if the Nth hitter sits below that
    # threshold the sketch may have missed a peer — fall back to the full
    # exact aggregate (never triggered on realistic Zipfian token data)
    if len(out) < HH_TOP_N or out["n"].iloc[-1] * MG_K < total_tokens:
        def all_counts(df: pd.DataFrame) -> pd.DataFrame:
            counts: dict[str, int] = {}
            for text in df["text"]:
                for tok in text.split():
                    counts[tok] = counts.get(tok, 0) + 1
            return pd.DataFrame(
                {"term": list(counts), "n": list(counts.values())}
            )

        exact = (
            ds.map_batches(all_counts, batch_format="pandas")
            .groupby("term")
            .aggregate(Sum("n", alias_name="n"))
            .to_pandas()
        )
        out = (
            exact.sort_values(["n", "term"], ascending=[False, True])
            .head(HH_TOP_N)
            .reset_index(drop=True)
        )
        out["n"] = out["n"].astype("int64")
    return out


# --------------------------------------------------------------------------
# PER-GROUP percentiles via the same rounded-histogram convention: the
# (event_type, rounded-value) histogram is a per-block Arrow partial of
# fixed-ish cardinality (types × ≤ distinct cents), one local combine
# finishes; the discrete "smallest v with cum ≥ q·tot" rule matches the
# SQL replay exactly — no interpolation-convention drift. At 100 TB the
# histogram stays ≤ types × value-resolution rows regardless of input
# size — this is the mergeable-sketch shape for grouped quantiles.
_GQ_SQL = f"""
WITH h AS (SELECT event_type, ROUND(value, 2) AS v, count(*) AS n
           FROM events GROUP BY 1, 2),
t AS (SELECT event_type, SUM(n) AS tot FROM h GROUP BY 1),
c AS (SELECT h.event_type, v,
             SUM(n) OVER (PARTITION BY h.event_type ORDER BY v) AS cum,
             t.tot
      FROM h JOIN t USING (event_type))
SELECT event_type,
       {", ".join(
           f"MIN(CASE WHEN cum >= {q} * tot THEN v END) AS p{int(q*100)}"
           for q in _QS)}
FROM c GROUP BY event_type
"""


@register("event_value_quantiles_by_type", sql=_GQ_SQL)
def event_value_quantiles_by_type(sf_dir: str):
    ds = table(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        tmp = pa.table(
            {
                "event_type": t["event_type"],
                "v": pc.round(t["value"], ndigits=2,
                              round_mode="half_towards_infinity"),
            }
        )
        return (
            pa.TableGroupBy(tmp, ["event_type", "v"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "v", "n"])
        )

    def finish(tbl: pa.Table) -> pa.Table:
        df = (
            tbl.to_pandas()
            .groupby(["event_type", "v"], as_index=False)["n"].sum()
            .sort_values(["event_type", "v"])
        )
        rows = []
        for et, g in df.groupby("event_type", sort=True):
            cum = g["n"].cumsum()
            tot = g["n"].sum()
            row = {"event_type": et}
            for q in _QS:
                idx = (cum >= q * tot).idxmax()
                row[f"p{int(q * 100)}"] = float(g.loc[idx, "v"])
            rows.append(row)
        return pa.Table.from_pylist(rows)

    from .common import combine_small

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"), finish)


# --------------------------------------------------------------------------
# KLL-style mergeable rank sketch over UNROUNDED doubles — the scale path
# for quantiles when the value domain is too fine for the rounded
# histogram above (arbitrary-precision floats, 100 TB of them). Fully
# deterministic: each level compacts by keeping every other sorted
# element, the kept offset alternating with that level's compaction
# count, and only an even-sized prefix compacts (the odd leftover stays),
# so TOTAL WEIGHT IS EXACTLY n — an invariant the tests assert. Rank
# error is bounded by (sum of 2^l over compacted levels)·(compactions per
# level), empirically ≤1% of n at k=256 (tests/test_round4c.py pins it
# on uniform, sorted and heavy-skew inputs). Reference analog: the
# reference bounds its per-run state with fixed-size caches
# (`pages/Crawler.py:96-104` trims its seen list); a rank sketch is the
# same bounded-state idea applied to order statistics.
_KLL_K = 256
_KLL_QS = (0.01, 0.25, 0.50, 0.75, 0.90, 0.99)


class _KLL:
    __slots__ = ("k", "levels", "compactions", "n")

    def __init__(self, k: int = _KLL_K):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.compactions: list[int] = [0]
        self.n = 0

    def _cap(self, lvl: int) -> int:
        # higher levels hold heavier items: geometric capacity decay like
        # KLL, floored so every level keeps a useful buffer
        top = len(self.levels) - 1
        return max(16, int(self.k * (2.0 / 3.0) ** (top - lvl)))

    def insert(self, values: np.ndarray) -> None:
        if not len(values):
            return
        self.n += len(values)
        self.levels[0] = np.concatenate([self.levels[0], values])
        self._compress()

    def _compress(self) -> None:
        lvl = 0
        while lvl < len(self.levels):
            buf = self.levels[lvl]
            if len(buf) <= self._cap(lvl):
                lvl += 1
                continue
            buf = np.sort(buf, kind="stable")
            even = len(buf) - (len(buf) % 2)
            offset = self.compactions[lvl] % 2
            keep = buf[offset:even:2]  # every other survivor, weight 2x
            self.compactions[lvl] += 1
            self.levels[lvl] = buf[even:]  # odd leftover keeps weight 1x
            if lvl + 1 == len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
                self.compactions.append(0)
            self.levels[lvl + 1] = np.concatenate(
                [self.levels[lvl + 1], keep]
            )
            lvl += 1

    def rows(self) -> pa.Table:
        lv = [
            np.full(len(b), l, dtype=np.int64)
            for l, b in enumerate(self.levels)
        ]
        return pa.table(
            {
                "level": pa.array(np.concatenate(lv) if lv else
                                  np.empty(0, np.int64)),
                "value": pa.array(
                    np.concatenate(self.levels)
                    if self.levels else np.empty(0, np.float64)
                ),
            }
        )

    @classmethod
    def from_rows(cls, level: np.ndarray, value: np.ndarray,
                  k: int = _KLL_K) -> "_KLL":
        """Merge serialized sketches: re-insert each level's items at
        their weight by seeding that level directly, then compress.
        Sorting first makes the merge independent of block arrival
        order — the determinism the oracle-less test still needs."""
        sk = cls(k)
        order = np.lexsort((value, level))
        level, value = level[order], value[order]
        top = int(level[-1]) if len(level) else 0
        sk.levels = [
            np.sort(value[level == l], kind="stable")
            for l in range(top + 1)
        ]
        sk.compactions = [0] * (top + 1)
        sk.n = int(sum(len(b) << l for l, b in enumerate(sk.levels)))
        sk._compress()
        return sk

    def quantile(self, phi: float) -> float:
        vals = np.concatenate(self.levels)
        wts = np.concatenate(
            [np.full(len(b), 1 << l, dtype=np.int64)
             for l, b in enumerate(self.levels)]
        )
        order = np.argsort(vals, kind="stable")
        vals, wts = vals[order], wts[order]
        cum = np.cumsum(wts)
        tgt = phi * cum[-1]
        return float(vals[int(np.searchsorted(cum, tgt))])


@register("kll_value_quantiles")  # rows-only: sketch state isn't SQL
def kll_value_quantiles(sf_dir: str):
    """Approximate event-value quantiles via per-block KLL partials and a
    single local merge of serialized (level, value) rows — sketch size is
    O(k·log(n/k)) per block and the merged state stays a few KB at ANY
    input size. tests/test_round4c.py bounds the rank error vs the exact
    answer and asserts the exact-mass invariant."""
    ds = table(sf_dir, "events", ["value"])

    def partial(t: pa.Table) -> pa.Table:
        sk = _KLL()
        sk.insert(t["value"].to_numpy(zero_copy_only=False)
                  .astype(np.float64))
        return sk.rows()

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # empty events table: no quantiles to report (quantile() would
            # index into empty cumsum otherwise)
            return pa.table(
                {
                    "quantile": pa.array([], pa.string()),
                    "value": pa.array([], pa.float64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        sk = _KLL.from_rows(
            t["level"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["value"].to_numpy(zero_copy_only=False).astype(np.float64),
        )
        return pa.table(
            {
                "quantile": pa.array(
                    [f"p{q * 100:g}" for q in _KLL_QS]
                ),
                "value": pa.array(
                    [sk.quantile(q) for q in _KLL_QS], pa.float64()
                ),
                "n": pa.array([sk.n] * len(_KLL_QS), pa.int64()),
            }
        )

    from .common import combine_small

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"),
                         finish)


@register("kll_quantiles_by_type")  # rows-only: sketch state isn't SQL
def kll_quantiles_by_type(sf_dir: str):
    """PER-GROUP KLL quantiles over unrounded event values: one sketch
    per (event_type, block), serialized as (event_type, level, value)
    rows, merged per type keyed on event_type (``bucketed_group_agg``:
    the type key is not bounded). The per-group quantile path for
    heavy-tailed groups where the rounded-histogram op's distinct-value
    cardinality blows up (round-4 verdict item #6): state is
    O(types · k·log(n/k)) at ANY input size, and no raw event row
    crosses an exchange. tests/test_round5.py bounds per-group rank error
    vs the exact answer and asserts merge-order independence."""
    if not common.table_num_rows(sf_dir, "events"):
        return _no_events(event_type=pa.string(), quantile=pa.string(),
                          value=pa.float64(), n=pa.int64())
    ds = table(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # an empty block would still enter the segment loop with
            # (s=0, e=0) and index et[0] — guard first
            return pa.table(
                {"level": pa.array([], pa.int64()),
                 "value": pa.array([], pa.float64()),
                 "event_type": pa.array([], pa.string())}
            )
        et = t["event_type"].to_numpy(zero_copy_only=False)
        vals = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(et, kind="stable")
        et, vals = et[order], vals[order]
        bnd = np.flatnonzero(et[1:] != et[:-1]) + 1
        starts = np.concatenate([[0], bnd])
        ends = np.concatenate([bnd, [len(et)]])
        parts = []
        for s, e in zip(starts, ends):
            sk = _KLL()
            sk.insert(vals[s:e])
            r = sk.rows()
            parts.append(r.append_column(
                "event_type", pa.array([et[s]] * r.num_rows, pa.string())
            ))
        if not parts:
            return pa.table(
                {"level": pa.array([], pa.int64()),
                 "value": pa.array([], pa.float64()),
                 "event_type": pa.array([], pa.string())}
            )
        return pa.concat_tables(parts)

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, grp in g.groupby("event_type", sort=True):
            sk = _KLL.from_rows(
                grp["level"].to_numpy(np.int64),
                grp["value"].to_numpy(np.float64),
            )
            rows += [(et, f"p{q * 100:g}", sk.quantile(q), sk.n)
                     for q in _KLL_QS]
        return pd.DataFrame(rows, columns=["event_type", "quantile", "value",
                                           "n"])

    from .common import bucketed_group_agg

    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"), ["event_type"],
        per_type)
