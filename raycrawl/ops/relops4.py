"""Round-4 operator batch: three pipeline shapes the corpus-curation and
monitoring surfaces still lacked —

* ``caption_edit_distance_neardups`` — blocked entity-resolution near-dup
  detection: Levenshtein distance over normalized caption prefixes inside
  (lang, prefix, length-band) blocks.  The reference dedups captions by
  exact string match only (`pages/Crawler.py:118-125` drops repeat texts
  via a seen-set); blocking + edit-distance verify is the standard ER
  upgrade of that same gate.  Blocking IS the operator contract (pairs in
  different blocks are by definition not candidates), so the DuckDB oracle
  replays the identical blocks with its native ``levenshtein``.
* ``brand_association_rules`` — market-basket support/confidence/lift over
  brands co-ordered in the same order, the classic co-occurrence shape of
  the reference's topic co-mention counting
  (`pages/Postprocess_scripts/Stance_Detection.py:63-114` correlates
  entity pairs through a shared key before aggregating).
* ``event_value_ks_drift`` — two-sample Kolmogorov–Smirnov drift between
  the early and late half of the event stream, per event type, on a
  fixed 256-bin grid.  The reference's dashboards eyeball
  distribution change across crawl epochs (`pages/User Based
  Dashboard.py` histograms per period); this is the scalable statistic
  for the same question.

Scale notes (the part the oracle can't check): edit-distance pairs ride
ONE ``bucketed_group_agg`` exchange keyed on the block id — candidate
verification is block-local and dedups identical prefixes first, so
exact-dup-heavy blocks cost O(distinct-prefixes²) not O(rows²).
Association rules pre-dedup (order, brand) per block, exchange keyed on
orderkey (pairs are generated bucket-locally; brand cardinality bounds
per-order fan-out at ~300 pairs), and the brand dimension attaches
through ``common.attach`` like every other part-dim op.  The KS drift
never shuffles at all: both passes are fixed-cardinality map-side
partials (type × 256 bins × 2 halves) folded in one local combine — the
shape that still works when events is 100 TB.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from . import common
from .common import (
    bucketed_group_agg,
    combine_small,
    round_half_away,
    table,
)
from .queries import register

# --------------------------------------------------------------------------
# caption_edit_distance_neardups

_ED_PFX = 48  # chars of normalized text the distance is computed over
_ED_BLK = 12  # chars of shared prefix that define a block
_ED_LENBAND = 16  # n_chars // band is part of the block key
_ED_MAXDIST = 5


def _levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Edit distance between two codepoint arrays.  Two-row DP with the
    inner loop vectorized; the sequential insert dependency is resolved
    with the running-min identity  cur[j] = j + min_{i<=j}(cur[i] - i)."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return max(la, lb)
    idx = np.arange(lb + 1, dtype=np.int64)
    prev = idx.copy()
    cur = np.empty(lb + 1, dtype=np.int64)
    for i in range(la):
        cur[0] = i + 1
        np.minimum(prev[1:] + 1, prev[:-1] + (b != a[i]), out=cur[1:])
        np.minimum.accumulate(cur - idx, out=cur)
        cur += idx
        prev, cur = cur, prev
    return int(prev[-1])


def _levenshtein_bounded(a: np.ndarray, b: np.ndarray, k: int) -> int:
    """Edit distance if it is ≤ k, else any value > k (callers only keep
    ≤-k pairs, so the exact magnitude past the threshold is irrelevant).
    Two pruning layers make mostly-dissimilar blocks cheap: the shared
    prefix/suffix is stripped first (block members share ≥ the 12-char
    blocking prefix by construction, word-permuted texts usually much
    more), then the DP early-abandons as soon as a full row exceeds k."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return k + 1
    m = min(la, lb)
    neq = a[:m] != b[:m]
    p = int(np.argmax(neq)) if neq.any() else m
    a, b = a[p:], b[p:]
    la, lb = len(a), len(b)
    m = min(la, lb)
    if m:
        neq = a[::-1][:m] != b[::-1][:m]
        s = int(np.argmax(neq)) if neq.any() else m
        if s:
            a, b = a[: la - s], b[: lb - s]
            la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return max(la, lb)
    idx = np.arange(lb + 1, dtype=np.int64)
    prev = idx.copy()
    cur = np.empty(lb + 1, dtype=np.int64)
    for i in range(la):
        cur[0] = i + 1
        np.minimum(prev[1:] + 1, prev[:-1] + (b != a[i]), out=cur[1:])
        np.minimum.accumulate(cur - idx, out=cur)
        cur += idx
        prev, cur = cur, prev
        if prev.min() > k:
            return k + 1
    return int(prev[-1])


def _codepoints(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)


@register(
    "caption_edit_distance_neardups",
    sql=f"""
    WITH d AS (
      SELECT doc_id, lang,
             substr(lower(text), 1, {_ED_PFX}) AS pfx,
             n_chars // {_ED_LENBAND} AS lb
      FROM documents),
    b AS (SELECT *, substr(pfx, 1, {_ED_BLK}) AS blk FROM d)
    SELECT a.doc_id AS doc_a, c.doc_id AS doc_b,
           CAST(levenshtein(a.pfx, c.pfx) AS BIGINT) AS edit_dist
    FROM b a JOIN b c
      ON a.lang = c.lang AND a.blk = c.blk AND a.lb = c.lb
         AND a.doc_id < c.doc_id
    WHERE levenshtein(a.pfx, c.pfx) <= {_ED_MAXDIST}
    ORDER BY doc_a, doc_b
    """,
)
def caption_edit_distance_neardups(sf_dir: str):
    ds = table(sf_dir, "documents", ["doc_id", "lang", "text", "n_chars"])

    def block_key(t: pa.Table) -> pa.Table:
        pfx = pc.utf8_slice_codeunits(pc.utf8_lower(t["text"]), 0, _ED_PFX)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "pfx": pfx,
                "blk": pc.utf8_slice_codeunits(pfx, 0, _ED_BLK),
                "lb": pc.divide(t["n_chars"], pa.scalar(_ED_LENBAND)),
            }
        )

    def _empty_pairs() -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_a": pd.Series([], dtype="int64"),
                "doc_b": pd.Series([], dtype="int64"),
                "edit_dist": pd.Series([], dtype="int64"),
            }
        )

    def per_block_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # singleton blocks (the vast majority) can't form pairs — drop them
        # before any per-block work
        g = g[g.duplicated(["lang", "blk", "lb"], keep=False)]
        if not len(g):
            return _empty_pairs()
        # one lexsort replaces a 3-string-column pandas groupby: blocks
        # become contiguous runs, identical prefixes contiguous inside
        # each run, doc_id ascending inside each prefix group
        lang_c, _ = pd.factorize(g["lang"].to_numpy())
        blk_c, _ = pd.factorize(g["blk"].to_numpy())
        pfx_c, _ = pd.factorize(g["pfx"].to_numpy())
        lb_v = g["lb"].to_numpy(np.int64)
        ids = g["doc_id"].to_numpy(np.int64)
        order = np.lexsort((ids, pfx_c, lb_v, blk_c, lang_c))
        lang_c, blk_c, lb_v, ids, pfx_c = (
            lang_c[order], blk_c[order], lb_v[order], ids[order],
            pfx_c[order],
        )
        pfx = g["pfx"].to_numpy()[order]
        blk_change = (
            (np.diff(lang_c) != 0) | (np.diff(blk_c) != 0)
            | (np.diff(lb_v) != 0)
        )
        grp_change = blk_change | (np.diff(pfx_c) != 0)

        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        triu_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def triu(n: int) -> tuple[np.ndarray, np.ndarray]:
            if n not in triu_cache:
                triu_cache[n] = np.triu_indices(n, k=1)
            return triu_cache[n]

        # dedup-then-expand, part 1: docs sharing an identical prefix are
        # distance 0 by definition — emit their pairs straight from the
        # (block, prefix) group runs, no DP touched. This is what makes
        # exact-dup-heavy blocks cheap: an N-dup group costs its output
        # pairs and nothing else.
        gb = np.flatnonzero(grp_change) + 1
        gstarts = np.concatenate([[0], gb])
        gends = np.concatenate([gb, [len(ids)]])
        for s, e in zip(gstarts, gends):
            n = e - s
            if n < 2:
                continue
            ti, tj = triu(int(n))
            out_a.append(ids[ti + s])
            out_b.append(ids[tj + s])
            out_d.append(np.zeros(len(ti), dtype=np.int64))

        # part 2: the DP runs once per DISTINCT prefix pair within a
        # block (group representatives), and each qualifying pair expands
        # to its groups' doc-id cross product afterwards — dup-heavy
        # blocks cost O(distinct-prefixes²) DP work and DP memory
        # (pairs × 48 arrays), not O(rows²).
        reps = gstarts
        blk_id = np.concatenate([[0], np.cumsum(blk_change)])
        rep_blk = blk_id[reps]
        rpfx = pfx[reps]
        rb = np.flatnonzero(np.diff(rep_blk) != 0) + 1
        rstarts = np.concatenate([[0], rb])
        rends = np.concatenate([rb, [len(reps)]])
        ii_parts, jj_parts = [], []
        for s, e in zip(rstarts, rends):
            m = e - s
            if m < 2:
                continue
            ti, tj = triu(int(m))
            ii_parts.append(ti + s)
            jj_parts.append(tj + s)

        def expand(ga: int, gbi: int, d: int) -> None:
            ma = ids[gstarts[ga]:gends[ga]]
            mb = ids[gstarts[gbi]:gends[gbi]]
            ra = np.repeat(ma, len(mb))
            rbv = np.tile(mb, len(ma))
            out_a.append(np.minimum(ra, rbv))
            out_b.append(np.maximum(ra, rbv))
            out_d.append(np.full(len(ra), d, dtype=np.int64))

        if ii_parts:
            ii = np.concatenate(ii_parts)  # indices into reps (groups)
            jj = np.concatenate(jj_parts)
            # batched DP over every distinct-prefix pair at once (one
            # 48-step vectorized loop per bucket instead of one python DP
            # per pair). Prefixes are a fixed 48 codepoints whenever
            # n_chars ≥ 48 — the length-band block key guarantees it for
            # all but degenerate short docs, which fall back to the
            # scalar bounded DP.
            lens = np.fromiter((len(s) for s in rpfx), np.int64, len(rpfx))
            full = lens == _ED_PFX
            batchable = full[ii] & full[jj]
            if batchable.any():
                bi, bj = ii[batchable], jj[batchable]
                mat = np.frombuffer(
                    "".join(rpfx[full]).encode("utf-32-le"), dtype=np.uint32
                ).reshape(-1, _ED_PFX)
                row_of = np.cumsum(full) - 1  # position in mat, full rows
                A = mat[row_of[bi]]
                B = mat[row_of[bj]]
                P = len(bi)
                idx = np.arange(_ED_PFX + 1, dtype=np.int32)
                prev = np.broadcast_to(idx, (P, _ED_PFX + 1)).copy()
                cur = np.empty_like(prev)
                for t in range(_ED_PFX):
                    cur[:, 0] = t + 1
                    np.minimum(
                        prev[:, 1:] + 1,
                        prev[:, :-1] + (B != A[:, t : t + 1]),
                        out=cur[:, 1:],
                    )
                    cur -= idx
                    np.minimum.accumulate(cur, axis=1, out=cur)
                    cur += idx
                    prev, cur = cur, prev
                dd = prev[:, -1].astype(np.int64)
                for k in np.flatnonzero(dd <= _ED_MAXDIST):
                    expand(int(bi[k]), int(bj[k]), int(dd[k]))
            rest = ~batchable
            if rest.any():
                cps_cache: dict[int, np.ndarray] = {}

                def cp(r: int) -> np.ndarray:
                    if r not in cps_cache:
                        cps_cache[r] = _codepoints(rpfx[r])
                    return cps_cache[r]

                for i, j in zip(ii[rest], jj[rest]):
                    d = _levenshtein_bounded(
                        cp(int(i)), cp(int(j)), _ED_MAXDIST
                    )
                    if d <= _ED_MAXDIST:
                        expand(int(i), int(j), int(d))
        if not out_a:
            return _empty_pairs()
        return pd.DataFrame(
            {
                "doc_a": np.concatenate(out_a),
                "doc_b": np.concatenate(out_b),
                "edit_dist": np.concatenate(out_d),
            }
        )

    pairs = bucketed_group_agg(
        ds.map_batches(block_key, batch_format="pyarrow"),
        ["lang", "blk", "lb"],
        per_block_pairs,
    )

    def final(t: pa.Table) -> pa.Table:
        return t.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])

    return combine_small(pairs, final)


# --------------------------------------------------------------------------
# brand_association_rules

_AR_MINSUP = 5


@register(
    "brand_association_rules",
    sql=f"""
    WITH op AS (
      SELECT DISTINCT l.l_orderkey AS ok, p.p_brand AS brand
      FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey),
    n AS (SELECT count(DISTINCT ok) AS n_orders FROM op),
    m AS (SELECT brand, count(*) AS cnt FROM op GROUP BY brand),
    pr AS (
      SELECT a.brand AS brand_a, c.brand AS brand_b,
             count(*) AS support_cnt
      FROM op a JOIN op c ON a.ok = c.ok AND a.brand < c.brand
      GROUP BY 1, 2)
    SELECT brand_a, brand_b, CAST(support_cnt AS BIGINT) AS support_cnt,
           ROUND(support_cnt / ma.cnt, 6) AS confidence,
           ROUND((support_cnt * n.n_orders) / (ma.cnt * mb.cnt), 6) AS lift
    FROM pr
      JOIN m ma ON ma.brand = pr.brand_a
      JOIN m mb ON mb.brand = pr.brand_b
      CROSS JOIN n
    WHERE support_cnt >= {_AR_MINSUP}
    ORDER BY brand_a, brand_b
    """,
)
def brand_association_rules(sf_dir: str):
    li = table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def to_ob(t: pa.Table) -> pa.Table:
        m = pa.table({"ok": t["l_orderkey"], "brand": t["p_brand"]})
        return m.group_by(["ok", "brand"]).aggregate([])

    ob = common.attach(
        li, ("part", sf_dir), "p_partkey", ["p_brand"], "l_partkey",
        op="brand_association_rules",
    ).map_batches(to_ob, batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # "" in b marks a brand's order count; in a and b the order count
        g = g[["ok", "brand"]].drop_duplicates()
        singles = g.groupby("brand", as_index=False).agg(cnt=("ok", "size"))
        pairs = g.merge(g, on="ok")
        pairs = pairs[pairs["brand_x"] < pairs["brand_y"]]
        pairs = pairs.groupby(["brand_x", "brand_y"], as_index=False).agg(
            cnt=("ok", "size")
        )
        return pd.concat(
            [
                pairs.rename(columns={"brand_x": "a", "brand_y": "b"}),
                singles.rename(columns={"brand": "a"}).assign(b=""),
                pd.DataFrame({"a": [""], "b": [""],
                              "cnt": [g["ok"].nunique()]}),
            ],
            ignore_index=True,
        )[["a", "b", "cnt"]].astype({"cnt": np.int64})

    partials = bucketed_group_agg(ob, ["ok"], per_bucket)

    def final(t: pa.Table) -> pa.Table:
        df = (
            t.to_pandas()
            .groupby(["a", "b"], as_index=False)
            .agg(cnt=("cnt", "sum"))
        )
        n_orders = int(df.loc[(df["a"] == "") & (df["b"] == ""), "cnt"].sum())
        single = (df["a"] != "") & (df["b"] == "")
        marg = dict(zip(df.loc[single, "a"], df.loc[single, "cnt"]))
        pr = df[(df["a"] != "") & (df["b"] != "")]
        pr = pr[pr["cnt"] >= _AR_MINSUP].sort_values(["a", "b"])
        sup = pr["cnt"].to_numpy(np.int64)
        ca = np.array([marg[a] for a in pr["a"]], dtype=np.int64)
        cb = np.array([marg[b] for b in pr["b"]], dtype=np.int64)
        conf = sup / ca
        lift = (sup * n_orders) / (ca * cb)
        return pa.table(
            {
                "brand_a": pa.array(pr["a"], pa.string()),
                "brand_b": pa.array(pr["b"], pa.string()),
                "support_cnt": pa.array(sup),
                "confidence": pa.array(round_half_away(conf, 6)),
                "lift": pa.array(round_half_away(lift, 6)),
            }
        )

    return combine_small(partials, final)


# --------------------------------------------------------------------------
# rrf_fused_topk — reciprocal-rank fusion of the lexical (BM25) and
# semantic (cosine) retrievers the registry already runs: the standard
# hybrid-retrieval ranker for a training-data search index.  Lexical list
# = bm25_top_docs' top-50 (same terms, same ordering contract: unrounded
# score desc, doc_id); semantic list = top-50 by cosine against query
# vector vec_id=0 (ann_bruteforce_topk's rounding-then-rank convention,
# self-match excluded).  rrf(d) = Σ_lists 1/(60 + rank_d); docs missing
# from a list contribute 0 from it.  Fusion itself touches ≤100 rows —
# driver-local by construction; both input rankings are the streamed
# top-k-partial pipelines.

_RRF_K = 60
_RRF_TOPK = 20
_RRF_QID = 0


@register(
    "rrf_fused_topk",
    sql=f"""
    WITH toks AS (
      SELECT doc_id, list_filter(string_split_regex(lower(text),
                                                    '[^a-z0-9]+'),
                                 x -> x <> '') AS words
      FROM documents),
    dl AS (SELECT doc_id, len(words) AS dl FROM toks),
    stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
    tf AS (
      SELECT t.doc_id, q.term,
             len(list_filter(t.words, x -> x = q.term)) AS tf
      FROM toks t
      CROSS JOIN (SELECT unnest(['spark', 'window', 'hash']) AS term) q),
    df AS (SELECT term, count(*) FILTER (tf > 0) AS df FROM tf
           GROUP BY term),
    scores AS (
      SELECT tf.doc_id,
             SUM( ln((((SELECT n_docs FROM stats) - df.df + 0.5)
                      / (df.df + 0.5)) + 1)
                  * tf.tf * 2.2
                  / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl
                                    / (SELECT avgdl FROM stats)))
             ) AS score
      FROM tf JOIN df USING (term) JOIN dl USING (doc_id)
      GROUP BY tf.doc_id),
    lex AS (
      SELECT doc_id,
             ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS lex_rank
      FROM scores QUALIFY lex_rank <= 50),
    q AS (SELECT embedding AS qe FROM embeddings
          WHERE vec_id = {_RRF_QID}),
    sem_scored AS (
      SELECT e.vec_id AS doc_id,
             ROUND(list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                          CAST(e.embedding AS DOUBLE[])),
                   4) AS cosine
      FROM q CROSS JOIN embeddings e WHERE e.vec_id != {_RRF_QID}),
    sem AS (
      SELECT doc_id,
             ROW_NUMBER() OVER (ORDER BY cosine DESC, doc_id) AS sem_rank
      FROM sem_scored QUALIFY sem_rank <= 50),
    fused AS (
      SELECT COALESCE(lex.doc_id, sem.doc_id) AS doc_id,
             COALESCE(lex.lex_rank, 0) AS lex_rank,
             COALESCE(sem.sem_rank, 0) AS sem_rank,
             COALESCE(1.0 / ({_RRF_K} + lex.lex_rank), 0)
             + COALESCE(1.0 / ({_RRF_K} + sem.sem_rank), 0) AS rrf
      FROM lex FULL OUTER JOIN sem USING (doc_id))
    SELECT doc_id, CAST(lex_rank AS BIGINT) AS lex_rank,
           CAST(sem_rank AS BIGINT) AS sem_rank,
           ROUND(rrf, 6) AS rrf
    FROM fused
    -- ORDER BY must be the QUALIFIED (unrounded) column: a bare `rrf`
    -- binds to the ROUND(rrf,6) select alias in DuckDB, and two distinct
    -- rank combos ~1e-8 apart can round to the same 6-dp value — the
    -- pipeline sorts on the unrounded score, so the oracle must too
    ORDER BY fused.rrf DESC, doc_id LIMIT {_RRF_TOPK}
    """,
)
def rrf_fused_topk(sf_dir: str):
    import pyarrow.dataset as pads

    from .queries import REGISTRY

    # lexical list: the registry's own BM25 pipeline (top-50, ordered by
    # unrounded score desc then doc_id — row position IS the rank)
    lex = REGISTRY["bm25_top_docs"]["fn"](sf_dir).to_pandas()
    lex_rank = {int(d): r + 1 for r, d in enumerate(lex["doc_id"])}

    # semantic list: brute-force cosine of every vector against query
    # vec_id=0, per-block top-50 partials on the ROUNDED score (the ann
    # convention), one local merge
    qt = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id") == _RRF_QID,
    )
    qv = np.asarray(qt["embedding"][0].as_py(), dtype=np.float64)
    qv /= np.linalg.norm(qv)
    q_ref = ray.put(qv)

    def sem_partial(df: pd.DataFrame) -> pd.DataFrame:
        qv_ = ray.get(q_ref)
        keep = df["vec_id"].to_numpy() != _RRF_QID
        df = df[keep]
        if not len(df):
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        out = pd.DataFrame(
            {
                "doc_id": df["vec_id"].to_numpy(np.int64),
                "cosine": round_half_away(m @ qv_, 4),
            }
        )
        return out.sort_values(
            ["cosine", "doc_id"], ascending=[False, True]
        ).head(50)

    sem = combine_small(
        table(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
            sem_partial, batch_format="pandas"
        ),
        lambda t: pa.Table.from_pandas(
            t.to_pandas()
            .sort_values(["cosine", "doc_id"], ascending=[False, True])
            .head(50),
            preserve_index=False,
        ),
    ).to_pandas()
    sem_rank = {int(d): r + 1 for r, d in enumerate(sem["doc_id"])}

    ids = sorted(set(lex_rank) | set(sem_rank))
    lr = np.array([lex_rank.get(d, 0) for d in ids], dtype=np.int64)
    sr = np.array([sem_rank.get(d, 0) for d in ids], dtype=np.int64)
    rrf = np.where(lr > 0, 1.0 / (_RRF_K + lr), 0.0) + np.where(
        sr > 0, 1.0 / (_RRF_K + sr), 0.0
    )
    df = pd.DataFrame(
        {"doc_id": ids, "lex_rank": lr, "sem_rank": sr, "rrf": rrf}
    ).sort_values(["rrf", "doc_id"], ascending=[False, True]).head(_RRF_TOPK)
    return pa.table(
        {
            "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
            "lex_rank": pa.array(df["lex_rank"].to_numpy(np.int64)),
            "sem_rank": pa.array(df["sem_rank"].to_numpy(np.int64)),
            "rrf": pa.array(round_half_away(df["rrf"].to_numpy(), 6)),
        }
    )


# --------------------------------------------------------------------------
# event_value_ks_drift

_KS_BINS = 256


@register(
    "event_value_ks_drift",
    sql=f"""
    WITH spanq AS (
      SELECT min(epoch_us(ts))
             + (max(epoch_us(ts)) - min(epoch_us(ts))) // 2 AS tmid
      FROM events),
    ext AS (
      SELECT event_type, min(value) AS vmin, max(value) AS vmax
      FROM events GROUP BY event_type),
    binned AS (
      SELECT e.event_type,
             CASE WHEN x.vmax = x.vmin THEN 0
                  ELSE LEAST(CAST(floor((e.value - x.vmin)
                                        / (x.vmax - x.vmin)
                                        * {_KS_BINS}.0) AS BIGINT),
                             {_KS_BINS - 1})
             END AS bin,
             CASE WHEN epoch_us(e.ts) < s.tmid THEN 1 ELSE 0 END AS early
      FROM events e JOIN ext x USING (event_type) CROSS JOIN spanq s),
    cnt AS (
      SELECT event_type, bin,
             SUM(early) AS n_e, SUM(1 - early) AS n_l
      FROM binned GROUP BY 1, 2),
    cum AS (
      SELECT event_type,
             SUM(n_e) OVER w AS c_e, SUM(n_l) OVER w AS c_l,
             SUM(n_e) OVER (PARTITION BY event_type) AS t_e,
             SUM(n_l) OVER (PARTITION BY event_type) AS t_l
      FROM cnt
      WINDOW w AS (PARTITION BY event_type ORDER BY bin))
    SELECT event_type,
           ROUND(max(abs(CAST(c_e AS DOUBLE) / t_e
                         - CAST(c_l AS DOUBLE) / t_l)), 6) AS ks_stat,
           CAST(max(t_e) AS BIGINT) AS n_early,
           CAST(max(t_l) AS BIGINT) AS n_late
    FROM cum GROUP BY event_type ORDER BY event_type
    """,
)
def event_value_ks_drift(sf_dir: str):
    ds = table(sf_dir, "events", ["ts", "event_type", "value"])

    # pass 1 (no exchange): per-type value extrema + the global time span.
    # Fixed-cardinality partials (one row per type per block) fold locally.
    def ext_partial(t: pa.Table) -> pa.Table:
        g = (
            pa.TableGroupBy(t, ["event_type"])
            .aggregate([("value", "min"), ("value", "max")])
            .rename_columns(["event_type", "vmin", "vmax"])
        )
        ts = t["ts"].cast(pa.int64())
        return g.append_column(
            "tmin", pa.array([pc.min(ts).as_py()] * g.num_rows, pa.int64())
        ).append_column(
            "tmax", pa.array([pc.max(ts).as_py()] * g.num_rows, pa.int64())
        )

    ext = combine_small(
        ds.map_batches(ext_partial, batch_format="pyarrow"),
        lambda t: (
            pa.TableGroupBy(t, ["event_type"])
            .aggregate(
                [("vmin", "min"), ("vmax", "max"),
                 ("tmin", "min"), ("tmax", "max")]
            )
            .rename_columns(["event_type", "vmin", "vmax", "tmin", "tmax"])
        ),
    ).to_pandas()
    tmin = int(ext["tmin"].min())
    tmid = tmin + (int(ext["tmax"].max()) - tmin) // 2
    vmin = dict(zip(ext["event_type"], ext["vmin"]))
    vmax = dict(zip(ext["event_type"], ext["vmax"]))

    # pass 2 (no exchange): per-(type, bin, half) counts — cardinality is
    # types × 256 × 2 at ANY input size, so one local combine finishes it.
    def bin_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "value": t["value"].to_numpy(zero_copy_only=False),
                "early": (
                    t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
                    < tmid
                ).astype(np.int64),
            }
        )
        lo = df["event_type"].map(vmin).to_numpy(np.float64)
        hi = df["event_type"].map(vmax).to_numpy(np.float64)
        v = df["value"].to_numpy(np.float64)
        span = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.floor((v - lo) / span * float(_KS_BINS))
        df["bin"] = np.where(
            span == 0.0,
            0,
            np.minimum(raw, _KS_BINS - 1).astype(np.int64, copy=False),
        ).astype(np.int64)
        g = df.groupby(["event_type", "bin"], as_index=False).agg(
            n_e=("early", "sum"), n_l=("early", lambda s: len(s) - s.sum())
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def final(t: pa.Table) -> pa.Table:
        df = (
            t.to_pandas()
            .groupby(["event_type", "bin"], as_index=False)
            .agg(n_e=("n_e", "sum"), n_l=("n_l", "sum"))
            .sort_values(["event_type", "bin"])
        )
        rows = []
        for et, g in df.groupby("event_type", sort=True):
            c_e = g["n_e"].cumsum().to_numpy(np.int64)
            c_l = g["n_l"].cumsum().to_numpy(np.int64)
            t_e, t_l = int(c_e[-1]), int(c_l[-1])
            if t_e == 0 or t_l == 0:
                # a type whose events all fall in one time half has no
                # two-sample comparison; DuckDB's x/0 is NULL, so ks_stat
                # is NULL here too (not nan/inf)
                ks = None
            else:
                ks = float(
                    np.max(
                        np.abs(
                            c_e.astype(np.float64) / t_e
                            - c_l.astype(np.float64) / t_l
                        )
                    )
                )
            rows.append((et, ks, t_e, t_l))
        return pa.table(
            {
                "event_type": pa.array([r[0] for r in rows]),
                "ks_stat": pa.array(
                    [
                        None if r[1] is None
                        else float(round_half_away(np.float64(r[1]), 6))
                        for r in rows
                    ],
                    pa.float64(),
                ),
                "n_early": pa.array([r[2] for r in rows], pa.int64()),
                "n_late": pa.array([r[3] for r in rows], pa.int64()),
            }
        )

    return combine_small(
        ds.map_batches(bin_partial, batch_format="pyarrow"), final
    )


# --------------------------------------------------------------------------
# props_value_by_event_type — the JSON side-channel extraction the
# reference does per tweet payload (`PreprocessDump.py` pulls typed fields
# out of raw status JSON with a try/except skip; SURVEY §2.2 M7): parse
# the `props` JSON column, pull the integer `k`, and aggregate it per
# event type with malformed rows counted instead of crashing the
# pipeline.  Extraction is a vectorized Arrow regex kernel (no Python
# JSON loop); fixed key cardinality → per-block combiner + one local
# fold, no shuffle at any scale.
@register(
    "props_value_by_event_type",
    sql="""
    WITH e AS (
      SELECT event_type,
             CAST(json_extract(props, '$.k') AS BIGINT) AS k
      FROM events)
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS n,
           CAST(count(k) AS BIGINT) AS n_parsed,
           CAST(sum(k) AS BIGINT) AS sum_k,
           CAST(min(k) AS BIGINT) AS min_k,
           CAST(max(k) AS BIGINT) AS max_k
    FROM e GROUP BY event_type ORDER BY event_type
    """,
)
def props_value_by_event_type(sf_dir: str):
    ds = table(sf_dir, "events", ["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        # '"k"\s*:\s*(-?\d+)' mirrors json_extract('$.k') for flat
        # integer objects; rows that don't match parse as NULL (the
        # dead-letter convention — counted, never fatal)
        m = pc.extract_regex(t["props"], r'"k"\s*:\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        g = pa.table({"event_type": t["event_type"], "k": k})
        return (
            pa.TableGroupBy(g, ["event_type"])
            .aggregate(
                [([], "count_all"), ("k", "count"), ("k", "sum"),
                 ("k", "min"), ("k", "max")]
            )
            .rename_columns(
                ["event_type", "n", "n_parsed", "sum_k", "min_k", "max_k"]
            )
        )

    def final(t: pa.Table) -> pa.Table:
        out = (
            pa.TableGroupBy(t, ["event_type"])
            .aggregate(
                [("n", "sum"), ("n_parsed", "sum"), ("sum_k", "sum"),
                 ("min_k", "min"), ("max_k", "max")]
            )
            .rename_columns(
                ["event_type", "n", "n_parsed", "sum_k", "min_k", "max_k"]
            )
        )
        return out.sort_by([("event_type", "ascending")])

    return combine_small(
        ds.map_batches(partial, batch_format="pyarrow"), final
    )


# --------------------------------------------------------------------------
# funnel_time_to_convert — the latency companion to user_funnel_conversion
# (`ops/temporal.py`): not just HOW MANY users advance view→click→purchase
# but how long each hop takes.  Same strictly-after semantics as the
# count op; one user-keyed bucketed exchange, per-bucket partials are two
# (transition, n, sum_µs, max_µs) rows so the fold is exact integer
# arithmetic at any scale.  Reference analog: the dashboards' per-period
# engagement timing reads (`pages/User Based Dashboard.py` timelines).
@register(
    "funnel_time_to_convert",
    sql="""
    WITH v AS (SELECT user_id, min(ts) AS t FROM events
               WHERE event_type = 'view' GROUP BY 1),
    c AS (SELECT e.user_id, min(e.ts) AS t FROM events e
          JOIN v ON v.user_id = e.user_id AND e.ts > v.t
          WHERE e.event_type = 'click' GROUP BY 1),
    p AS (SELECT e.user_id, min(e.ts) AS t FROM events e
          JOIN c ON c.user_id = e.user_id AND e.ts > c.t
          WHERE e.event_type = 'purchase' GROUP BY 1),
    vc AS (SELECT epoch_us(c.t) - epoch_us(v.t) AS d
           FROM c JOIN v USING (user_id)),
    cp AS (SELECT epoch_us(p.t) - epoch_us(c.t) AS d
           FROM p JOIN c USING (user_id)),
    u AS (
      SELECT 'view->click' AS transition, CAST(count(*) AS BIGINT) AS n_users,
             ROUND(CAST(sum(d) AS DOUBLE) / count(*) / 1000000.0, 6)
               AS mean_latency_s,
             ROUND(CAST(max(d) AS DOUBLE) / 1000000.0, 6) AS max_latency_s
      FROM vc
      UNION ALL
      SELECT 'click->purchase', CAST(count(*) AS BIGINT),
             ROUND(CAST(sum(d) AS DOUBLE) / count(*) / 1000000.0, 6),
             ROUND(CAST(max(d) AS DOUBLE) / 1000000.0, 6)
      FROM cp)
    SELECT * FROM u ORDER BY transition
    """,
)
def funnel_time_to_convert(sf_dir: str):
    ds = table(sf_dir, "events", ["user_id", "event_type", "ts"])

    def stage_filter(t: pa.Table) -> pa.Table:
        keep = pc.is_in(
            t["event_type"],
            value_set=pa.array(["view", "click", "purchase"]),
        )
        f = t.filter(keep)
        return pa.table(
            {
                "user_id": f["user_id"],
                "event_type": f["event_type"],
                "ts": f["ts"].cast(pa.int64()),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # only the 'view' stage needs a min-ts series up front; click and
        # purchase mins are conditional on the PRIOR stage's time, so they
        # come out of the filtered merges below
        v = (
            g[g["event_type"] == "view"]
            .groupby("user_id")["ts"].min().dropna()
        )
        c_all = g[g["event_type"] == "click"].merge(
            v.rename("t0"), left_on="user_id", right_index=True
        )
        c = (
            c_all[c_all["ts"] > c_all["t0"]]
            .groupby("user_id")["ts"].min()
        )
        p_all = g[g["event_type"] == "purchase"].merge(
            c.rename("t1"), left_on="user_id", right_index=True
        )
        p = (
            p_all[p_all["ts"] > p_all["t1"]]
            .groupby("user_id")["ts"].min()
        )
        d_vc = (c - v.reindex(c.index)).to_numpy(np.int64)
        d_cp = (p - c.reindex(p.index)).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "transition": ["view->click", "click->purchase"],
                "n": [len(d_vc), len(d_cp)],
                "sum_us": [int(d_vc.sum()), int(d_cp.sum())],
                "max_us": [
                    int(d_vc.max()) if len(d_vc) else 0,
                    int(d_cp.max()) if len(d_cp) else 0,
                ],
            }
        )

    partials = bucketed_group_agg(
        ds.map_batches(stage_filter, batch_format="pyarrow"),
        ["user_id"],
        per_bucket,
    )

    def final(t: pa.Table) -> pa.Table:
        df = (
            t.to_pandas()
            .groupby("transition", as_index=False)
            .agg(n=("n", "sum"), sum_us=("sum_us", "sum"),
                 max_us=("max_us", "max"))
            .sort_values("transition")
        )
        n = df["n"].to_numpy(np.int64)
        mean_s = df["sum_us"].to_numpy(np.float64) / n / 1_000_000.0
        max_s = df["max_us"].to_numpy(np.float64) / 1_000_000.0
        return pa.table(
            {
                "transition": pa.array(df["transition"]),
                "n_users": pa.array(n),
                "mean_latency_s": pa.array(round_half_away(mean_s, 6)),
                "max_latency_s": pa.array(round_half_away(max_s, 6)),
            }
        )

    return combine_small(partials, final)


# --------------------------------------------------------------------------
# equi_depth_value_histogram — optimizer-style equal-depth statistics over
# event values: 8 buckets whose edges are the exact p12.5..p100 points
# under the repo's rounded-cents discrete-quantile convention
# (ops/sketches_ops.py), with per-bucket exact counts derived from the
# SAME single rounded histogram — one streaming fixed-cardinality pass,
# edges and counts both SQL-replayed bit-for-bit.
_EDH_BUCKETS = 8


@register(
    "equi_depth_value_histogram",
    sql=f"""
    WITH h AS (SELECT ROUND(value, 2) AS v, count(*) AS n
               FROM events GROUP BY 1),
    c AS (SELECT v, SUM(n) OVER (ORDER BY v) AS cum,
                 (SELECT sum(n) FROM h) AS tot
          FROM h),
    e AS (SELECT k,
                 MIN(CASE WHEN cum >= k * tot / {_EDH_BUCKETS}.0
                          THEN v END) AS hi,
                 MIN(CASE WHEN cum >= k * tot / {_EDH_BUCKETS}.0
                          THEN cum END) AS cumhi
          FROM c CROSS JOIN (SELECT unnest(range(1, {_EDH_BUCKETS + 1}))
                             AS k)
          GROUP BY k)
    SELECT CAST(k AS BIGINT) AS bucket, hi AS hi_edge,
           CAST(cumhi - COALESCE(lag(cumhi) OVER (ORDER BY k), 0)
                AS BIGINT) AS n
    FROM e ORDER BY k
    """,
)
def equi_depth_value_histogram(sf_dir: str):
    ds = table(sf_dir, "events", ["value"])

    def partial(t: pa.Table) -> pa.Table:
        tmp = pa.table(
            {"v": pc.round(t["value"], ndigits=2,
                           round_mode="half_towards_infinity")}
        )
        return (
            pa.TableGroupBy(tmp, ["v"])
            .aggregate([([], "count_all")])
            .rename_columns(["v", "n"])
        )

    def final(t: pa.Table) -> pa.Table:
        df = (
            t.to_pandas().groupby("v", as_index=False)["n"].sum()
            .sort_values("v")
        )
        cum = df["n"].cumsum().to_numpy(np.int64)
        tot = int(cum[-1])
        v = df["v"].to_numpy(np.float64)
        hi, cnt, prev_cum = [], [], 0
        for k in range(1, _EDH_BUCKETS + 1):
            i = int(np.searchsorted(cum, k * tot / float(_EDH_BUCKETS)))
            hi.append(float(v[i]))
            cnt.append(int(cum[i]) - prev_cum)
            prev_cum = int(cum[i])
        return pa.table(
            {
                "bucket": pa.array(
                    np.arange(1, _EDH_BUCKETS + 1, dtype=np.int64)
                ),
                "hi_edge": pa.array(hi, pa.float64()),
                "n": pa.array(cnt, pa.int64()),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pyarrow"),
                         final)
