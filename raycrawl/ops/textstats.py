"""Session-8 batch B: corpus statistics a training-data curation pipeline
thresholds on — adjacent-bigram PMI (collocation mining), per-document
vocabulary richness (type-token ratio / hapax counts), fingerprint-space
Hamming kNN (cheap near-dup retrieval without embeddings), and
hashing-trick feature-bucket statistics (the collision audit behind a
feature-hashed vectorizer).

Reference analogs (SURVEY.md §2.2/§2.5): the reference computes
driver-side token statistics over accumulated per-user text
(`pages/Visualization.py:17-37` substring counts,
`Random_Forest_Classifier.py:14-51` TF-IDF featurization). Here each is a
distributed Ray Data pipeline over the documents table using the repo's
exact tokenizer convention (``[a-z0-9]+`` over lowered text ==
DuckDB ``list_filter(string_split_regex(lower(text),'[^a-z0-9]+'))``) and
the md5 little-endian-u64 oracle hash (`common.md5_u64_le` ==
``md5_number_upper``).
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from . import common
from .common import (
    bucketed_group_agg,
    combine_small,
    join_partitions,
    md5_u64_le,
    round_half_away,
    table,
    table_spread,
)
from .queries import register

_TOKEN_RE = "[a-z0-9]+"


def _token_lists(texts: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """(flat object array of tokens, per-row token counts) — pandas
    findall of the token alphabet, identical to the list_filter'ed
    regex split both engines share."""
    toks = texts.str.lower().str.findall(_TOKEN_RE)
    lens = toks.str.len().to_numpy(np.int64)
    flat = np.fromiter(
        chain.from_iterable(toks), dtype=object, count=int(lens.sum())
    )
    return flat, lens


# --------------------------------------------------------------------------
# Adjacent-bigram PMI, top-40 collocations with support ≥ 5. Three streaming
# scans of the documents table (totals → unigram counts → bigram counts;
# BM25 sets the multi-pass precedent), two bucketed exchanges for the
# unbounded count keys, then the ≥5-support candidates hash-join the
# vocabulary twice (w1, w2) — the corpus itself never shuffles. The
# vocabulary table is materialized once and reused by both joins
# (vocab-bounded: one 16-B row per distinct token).
_PMI_MIN_COUNT = 5
_PMI_TOP_K = 40
# vocab rows below this broadcast as sorted (word, count) arrays; above
# it the candidates hash-join the vocabulary twice instead
PMI_VOCAB_BROADCAST_MAX = 2_000_000

_PMI_SQL = f"""
WITH arrs AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS w
  FROM documents),
tok AS (SELECT doc_id, unnest(w) AS word, generate_subscripts(w, 1) AS pos
        FROM arrs),
uni AS (SELECT word, count(*) AS c FROM tok GROUP BY 1),
nu AS (SELECT count(*) AS n FROM tok),
big AS (SELECT a.word AS w1, b.word AS w2
        FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1),
nb AS (SELECT count(*) AS n FROM big),
bc AS (SELECT w1, w2, count(*) AS c12 FROM big GROUP BY 1, 2
       HAVING count(*) >= {_PMI_MIN_COUNT}),
p AS (SELECT bc.w1, bc.w2, bc.c12,
             ln((CAST(bc.c12 AS DOUBLE) / (SELECT n FROM nb))
                / ((CAST(u1.c AS DOUBLE) / (SELECT n FROM nu))
                   * (CAST(u2.c AS DOUBLE) / (SELECT n FROM nu)))) AS pmi
      FROM bc JOIN uni u1 ON bc.w1 = u1.word
              JOIN uni u2 ON bc.w2 = u2.word)
SELECT w1, w2, CAST(c12 AS BIGINT) AS n_pair, ROUND(pmi, 6) AS pmi
FROM p ORDER BY pmi DESC, w1, w2 LIMIT {_PMI_TOP_K}
"""


@register("pmi_top_bigrams", sql=_PMI_SQL)
def pmi_top_bigrams(sf_dir: str):
    docs = table_spread(sf_dir, "documents", ["text"])

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        _, lens = _token_lists(df["text"])
        return pd.DataFrame(
            {
                "nu": [int(lens.sum())],
                "nb": [int(np.maximum(lens - 1, 0).sum())],
            }
        )

    def sum_tot(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return pa.table(
            {
                "nu": pa.array([int(df["nu"].sum())], pa.int64()),
                "nb": pa.array([int(df["nb"].sum())], pa.int64()),
            }
        )

    tot = combine_small(
        docs.map_batches(totals, batch_format="pandas"), sum_tot
    )
    nu, nb = float(tot["nu"][0].as_py()), float(tot["nb"][0].as_py())

    def uni_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, _ = _token_lists(df["text"])
        vc = pd.Series(flat).value_counts()
        return pd.DataFrame({"word": vc.index, "c": vc.to_numpy(np.int64)})

    uni = bucketed_group_agg(
        docs.map_batches(uni_partial, batch_format="pandas"),
        ["word"],
        lambda g: g.groupby("word", as_index=False)["c"].sum(),
    ).materialize()  # vocab-bounded: one tiny row per distinct token

    def bi_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, lens = _token_lists(df["text"])
        if not len(flat):
            return pd.DataFrame(
                {"w1": pd.Series([], dtype=object),
                 "w2": pd.Series([], dtype=object),
                 "c12": pd.Series([], dtype="int64")}
            )
        ends = np.cumsum(lens)
        first = np.ones(len(flat), dtype=bool)
        first[ends[lens > 0] - 1] = False  # last token of each doc
        idx = np.nonzero(first)[0]
        pairs = pd.DataFrame({"w1": flat[idx], "w2": flat[idx + 1]})
        out = pairs.groupby(["w1", "w2"], as_index=False).size()
        return out.rename(columns={"size": "c12"})

    def bucket_sum_min(g: pd.DataFrame) -> pd.DataFrame:
        # every occurrence of a pair lands in this bucket → the HAVING
        # support filter is exact here
        s = g.groupby(["w1", "w2"], as_index=False)["c12"].sum()
        return s[s["c12"] >= _PMI_MIN_COUNT]

    cand = bucketed_group_agg(
        docs.map_batches(bi_partial, batch_format="pandas"),
        ["w1", "w2"],
        bucket_sum_min,
    )

    if common.gate("pmi_top_bigrams", "vocab", uni.count(),
                   PMI_VOCAB_BROADCAST_MAX):
        # vocab fits a broadcast: candidates look their unigram counts up
        # via one sorted-array binary search per side — the two hash joins
        # disappear (measured 12.0 → ~5 s at sf0.1)
        u = uni.to_pandas().sort_values("word")
        vocab_ref = ray.put(
            (u["word"].to_numpy(object), u["c"].to_numpy(np.int64))
        )

        def attach(t) -> pd.DataFrame:
            df = t if isinstance(t, pd.DataFrame) else t.to_pandas()
            words, counts = ray.get(vocab_ref)
            i1 = np.searchsorted(words, df["w1"].to_numpy(object))
            i2 = np.searchsorted(words, df["w2"].to_numpy(object))
            df = df.copy(deep=False)
            df["c1"] = counts[i1]
            df["c2"] = counts[i2]
            return df

        j = cand.map_batches(attach, batch_format="pandas")
    else:
        u1 = uni.map_batches(
            lambda t: t.rename_columns(["w1", "c1"]), batch_format="pyarrow"
        )
        u2 = uni.map_batches(
            lambda t: t.rename_columns(["w2", "c2"]), batch_format="pyarrow"
        )
        j = cand.join(
            u1, join_type="inner", num_partitions=join_partitions(), on=("w1",)
        ).join(
            u2, join_type="inner", num_partitions=join_partitions(), on=("w2",)
        )

    def score_topk(t) -> pa.Table:
        if not isinstance(t, pd.DataFrame):
            t = t.to_pandas()
        if not len(t):
            return pa.table(
                {"w1": pa.array([], pa.string()),
                 "w2": pa.array([], pa.string()),
                 "n_pair": pa.array([], pa.int64()),
                 "pmi": pa.array([], pa.float64())}
            )
        c12 = t["c12"].to_numpy(np.float64)
        c1 = t["c1"].to_numpy(np.float64)
        c2 = t["c2"].to_numpy(np.float64)
        # same expression shape as the oracle: (c12/Nb) / ((c1/Nu)*(c2/Nu))
        pmi = np.log((c12 / nb) / ((c1 / nu) * (c2 / nu)))
        out = pd.DataFrame(
            {
                "w1": t["w1"],
                "w2": t["w2"],
                "n_pair": t["c12"].to_numpy(np.int64),
                "pmi": round_half_away(pmi, 6),
            }
        ).sort_values(
            ["pmi", "w1", "w2"], ascending=[False, True, True], kind="stable"
        ).head(_PMI_TOP_K)
        return pa.Table.from_pandas(out, preserve_index=False)

    def final(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["pmi", "w1", "w2"], ascending=[False, True, True], kind="stable"
        ).head(_PMI_TOP_K)
        return pa.Table.from_pandas(df, preserve_index=False)

    # per-block top-40 partials (pmi is a pure per-row function of the
    # joined counts), one local merge
    return combine_small(
        j.map_batches(score_topk, batch_format="pandas"), final
    )


# --------------------------------------------------------------------------
# Per-document vocabulary richness — type-token ratio and hapax counts,
# the lexical-diversity quality signal. Entirely map-side: every statistic
# is within-document, so there is NO shuffle at any corpus size.
_VOCAB_SQL = """
WITH arrs AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS w
  FROM documents),
tok AS (SELECT doc_id, unnest(w) AS word FROM arrs),
wc AS (SELECT doc_id, word, count(*) AS c FROM tok GROUP BY 1, 2),
agg AS (SELECT doc_id, SUM(c) AS n_tokens, count(*) AS n_distinct,
               SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS n_hapax
        FROM wc GROUP BY 1)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(n_distinct AS BIGINT) AS n_distinct,
       CAST(n_hapax AS BIGINT) AS n_hapax,
       ROUND(CAST(n_distinct AS DOUBLE) / n_tokens, 6) AS ttr
FROM agg WHERE n_tokens > 0
"""


@register("doc_vocab_richness", sql=_VOCAB_SQL)
def doc_vocab_richness(sf_dir: str):
    docs = table_spread(sf_dir, "documents", ["doc_id", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        flat, lens = _token_lists(df["text"])
        row = np.repeat(np.arange(len(df), dtype=np.int64), lens)
        wc = (
            pd.DataFrame({"row": row, "word": flat})
            .groupby(["row", "word"], as_index=False)
            .size()
        )
        per_row = wc.groupby("row").agg(
            n_distinct=("size", "size"), n_hapax=("size", lambda s: int((s == 1).sum()))
        )
        keep = lens > 0
        rows = np.nonzero(keep)[0]
        nd = per_row["n_distinct"].reindex(rows).to_numpy(np.int64)
        nh = per_row["n_hapax"].reindex(rows).to_numpy(np.int64)
        nt = lens[keep]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy()[keep],
                "n_tokens": nt,
                "n_distinct": nd,
                "n_hapax": nh,
                "ttr": round_half_away(nd / nt, 6),
            }
        )

    return docs.map_batches(stats, batch_format="pandas")


# --------------------------------------------------------------------------
# Fingerprint-space Hamming kNN — near-dup retrieval over 64-bit md5
# fingerprints of whitespace-normalized text (the cheap precursor to
# embedding ANN: same broadcast-queries + per-block-top-k shape as
# ann_bruteforce_topk, but distances are XOR popcounts). The 8 query docs
# (lowest doc_ids) are found with a per-block min-k partial, broadcast
# once via ray.put, and each block emits ≤ |Q|×k candidate rows.
_KNN_Q = 8
_KNN_K = 5

_HAMMING_SQL = f"""
WITH fp AS (
  SELECT doc_id,
         md5_number_upper(array_to_string(
           string_split_regex(lower(text), '\\s+'), ' ')) AS h
  FROM documents),
fps AS (
  SELECT doc_id,
         CAST(CASE WHEN h >= CAST(1 AS HUGEINT) << 63
                   THEN h - (CAST(1 AS HUGEINT) << 64) ELSE h END AS BIGINT)
           AS f
  FROM fp),
q AS (SELECT doc_id AS qid, f AS qf FROM fps ORDER BY doc_id LIMIT {_KNN_Q}),
d AS (SELECT qid, doc_id, bit_count(xor(qf, f)) AS dist,
             row_number() OVER (PARTITION BY qid
                                ORDER BY bit_count(xor(qf, f)), doc_id) AS rn
      FROM q JOIN fps ON doc_id <> qid)
SELECT qid, doc_id AS neighbor_id, CAST(dist AS BIGINT) AS hamming
FROM d WHERE rn <= {_KNN_K}
"""


def _popcount_u64(x: np.ndarray) -> np.ndarray:
    """SWAR popcount (same kernel as stages.multimodal._popcount_u64)."""
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(
        np.int64
    )


@register("doc_hamming_knn", sql=_HAMMING_SQL)
def doc_hamming_knn(sf_dir: str):
    docs = table_spread(sf_dir, "documents", ["doc_id", "text"])

    def fps(df: pd.DataFrame) -> pd.DataFrame:
        norm = df["text"].str.lower().str.split().str.join(" ")
        f = np.fromiter(
            (md5_u64_le(s) for s in norm), dtype=np.uint64, count=len(norm)
        ).view(np.int64)
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(), "f": f})

    fp = docs.map_batches(fps, batch_format="pandas").materialize()
    # ^ fingerprints reused by the query-pick pass AND the scan pass:
    # 16 B/doc — the corpus text itself is never read twice

    def min_q(t) -> pa.Table:
        if not isinstance(t, pd.DataFrame):
            t = t.to_pandas()
        t = t.nsmallest(_KNN_Q, "doc_id")
        return pa.Table.from_pandas(t, preserve_index=False)

    q = combine_small(fp.map_batches(min_q, batch_format="pandas"), min_q)
    q_ref = ray.put(
        (
            q["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            q["f"].to_numpy(zero_copy_only=False).view(np.uint64),
        )
    )

    def block_knn(df: pd.DataFrame) -> pd.DataFrame:
        qids, qfs = ray.get(q_ref)
        ids = df["doc_id"].to_numpy(np.int64)
        f = df["f"].to_numpy(np.int64).view(np.uint64)
        outs = []
        for qid, qf in zip(qids, qfs):
            dist = _popcount_u64(f ^ qf)
            mask = ids != qid
            d, i = dist[mask], ids[mask]
            order = np.lexsort((i, d))[:_KNN_K]
            outs.append(
                pd.DataFrame(
                    {"qid": qid, "neighbor_id": i[order], "hamming": d[order]}
                )
            )
        return (
            pd.concat(outs, ignore_index=True)
            if outs
            else pd.DataFrame(
                {"qid": pd.Series([], dtype="int64"),
                 "neighbor_id": pd.Series([], dtype="int64"),
                 "hamming": pd.Series([], dtype="int64")}
            )
        )

    def final(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = (
            df.sort_values(["qid", "hamming", "neighbor_id"], kind="stable")
            .groupby("qid", as_index=False)
            .head(_KNN_K)
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    return combine_small(
        fp.map_batches(block_knn, batch_format="pandas"), final
    )


# --------------------------------------------------------------------------
# Hashing-trick feature-bucket statistics — the collision audit behind a
# feature-hashed (hashing-vectorizer) model: occurrences and DISTINCT
# tokens per md5-mod-256 bucket. Distinct-across-blocks forces one
# bucketed exchange on the token (vocab-bounded rows); the md5 is computed
# once per DISTINCT token, never per occurrence; the final 256-row
# aggregate is a local combine.
_FHASH_BUCKETS = 256

_FHASH_SQL = f"""
WITH toks AS (
  SELECT unnest(list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tok
  FROM documents),
tc AS (SELECT tok, count(*) AS c FROM toks GROUP BY 1),
b AS (SELECT CAST(md5_number_upper(tok) % {_FHASH_BUCKETS} AS BIGINT)
         AS bucket, c
      FROM tc)
SELECT bucket, CAST(count(*) AS BIGINT) AS n_distinct_tokens,
       CAST(SUM(c) AS BIGINT) AS n_occurrences
FROM b GROUP BY 1
"""


@register("feature_hash_bucket_stats", sql=_FHASH_SQL)
def feature_hash_bucket_stats(sf_dir: str):
    docs = table_spread(sf_dir, "documents", ["text"])

    def tok_counts(df: pd.DataFrame) -> pd.DataFrame:
        flat, _ = _token_lists(df["text"])
        vc = pd.Series(flat).value_counts()
        return pd.DataFrame({"tok": vc.index, "c": vc.to_numpy(np.int64)})

    per_token = bucketed_group_agg(
        docs.map_batches(tok_counts, batch_format="pandas"),
        ["tok"],
        lambda g: g.groupby("tok", as_index=False)["c"].sum(),
    )

    def bucket_partial(df: pd.DataFrame) -> pd.DataFrame:
        b = np.fromiter(
            (md5_u64_le(t) % _FHASH_BUCKETS for t in df["tok"]),
            dtype=np.int64,
            count=len(df),
        )
        g = (
            pd.DataFrame({"bucket": b, "c": df["c"].to_numpy(np.int64)})
            .groupby("bucket", as_index=False)
            .agg(n_distinct_tokens=("c", "size"), n_occurrences=("c", "sum"))
        )
        return g

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("bucket", as_index=False)
            .agg(
                n_distinct_tokens=("n_distinct_tokens", "sum"),
                n_occurrences=("n_occurrences", "sum"),
            )
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return combine_small(
        per_token.map_batches(bucket_partial, batch_format="pandas"), final
    )


# --------------------------------------------------------------------------
# Zipf slope of the corpus frequency spectrum — fit log10(freq) against
# log10(rank) over the top-200 words. The ranking reuses the per-block
# top-k partial shape (top_words_corpus); the least-squares fit runs on
# exactly 200 driver-side points with the closed-form normal equations
# both engines share.
_ZIPF_TOP = 200

_ZIPF_SQL = f"""
WITH toks AS (
  SELECT unnest(list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS word
  FROM documents),
counted AS (SELECT word, count(*) AS n FROM toks GROUP BY word),
top AS (SELECT n, row_number() OVER (ORDER BY n DESC, word) AS rnk
        FROM counted ORDER BY n DESC, word LIMIT {_ZIPF_TOP}),
l AS (SELECT log10(CAST(rnk AS DOUBLE)) AS x, log10(CAST(n AS DOUBLE)) AS y
      FROM top)
SELECT CAST(count(*) AS BIGINT) AS n_points,
       ROUND((count(*) * SUM(x * y) - SUM(x) * SUM(y))
             / (count(*) * SUM(x * x) - SUM(x) * SUM(x)), 6) AS zipf_slope,
       ROUND((SUM(y) - (count(*) * SUM(x * y) - SUM(x) * SUM(y))
                       / (count(*) * SUM(x * x) - SUM(x) * SUM(x)) * SUM(x))
             / count(*), 6) AS zipf_intercept
FROM l
"""


@register("token_zipf_slope", sql=_ZIPF_SQL)
def token_zipf_slope(sf_dir: str):
    from .common import combine_small

    docs = table_spread(sf_dir, "documents", ["text"])

    def tok_counts(df: pd.DataFrame) -> pd.DataFrame:
        flat, _ = _token_lists(df["text"])
        vc = pd.Series(flat).value_counts()
        return pd.DataFrame({"word": vc.index, "c": vc.to_numpy(np.int64)})

    counts = bucketed_group_agg(
        docs.map_batches(tok_counts, batch_format="pandas"),
        ["word"],
        lambda g: g.groupby("word", as_index=False)["c"].sum(),
    )

    def topk(t) -> pa.Table:
        if not isinstance(t, pd.DataFrame):
            t = t.to_pandas()
        t = t.sort_values(
            ["c", "word"], ascending=[False, True], kind="stable"
        ).head(_ZIPF_TOP)
        return pa.Table.from_pandas(t, preserve_index=False)

    def fit(t: pa.Table) -> pa.Table:
        df = topk(t).to_pandas()
        n = len(df)
        x = np.log10(np.arange(1, n + 1, dtype=np.float64))
        y = np.log10(df["c"].to_numpy(np.float64))
        sx, sy, sxy, sxx = x.sum(), y.sum(), (x * y).sum(), (x * x).sum()
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        intercept = (sy - slope * sx) / n
        return pa.table(
            {
                "n_points": pa.array([n], pa.int64()),
                "zipf_slope": pa.array(
                    round_half_away(np.array([slope]), 6), pa.float64()
                ),
                "zipf_intercept": pa.array(
                    round_half_away(np.array([intercept]), 6), pa.float64()
                ),
            }
        )

    return combine_small(counts.map_batches(topk, batch_format="pandas"), fit)


# --------------------------------------------------------------------------
# Tokenizer fertility by language: tokens-per-character per lang — the
# knob multilingual-corpus mixers threshold on (a lang whose tokenizer
# yields too few tokens per char is under-segmented). Token convention is
# the repo-wide [a-z0-9]+ run over lowered text (== the DuckDB
# string_split_regex filter); chars come from the table's own n_chars
# column so both sides count identically. Fixed lang cardinality →
# per-block partials + ONE local combine, no shuffle at any scale.
_FERTILITY_SQL = """
SELECT lang,
       CAST(SUM(ntok) AS BIGINT) AS total_tokens,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars,
       ROUND(CAST(SUM(ntok) AS DOUBLE) / SUM(n_chars), 6) AS tokens_per_char
FROM (
  SELECT lang, n_chars,
         len(list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS ntok
  FROM documents
) t
GROUP BY lang
ORDER BY lang
"""


@register("doc_token_fertility_by_lang", sql=_FERTILITY_SQL)
def doc_token_fertility_by_lang(sf_dir: str):
    ds = table(sf_dir, "documents", ["text", "lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy(deep=False)
        # vectorized token-run count == len(split tokens) for [a-z0-9]+
        df["ntok"] = df["text"].str.lower().str.count("[a-z0-9]+")
        return (
            df.groupby("lang", as_index=False)
            .agg(ntok=("ntok", "sum"), nch=("n_chars", "sum"))
        )

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("lang", as_index=False)[["ntok", "nch"]]
            .sum()
            .sort_values("lang", kind="stable")
        )
        tok = g["ntok"].to_numpy(np.int64)
        nch = g["nch"].to_numpy(np.int64)
        return pa.table(
            {
                "lang": pa.array(g["lang"], pa.string()),
                "total_tokens": pa.array(tok),
                "total_chars": pa.array(nch),
                "tokens_per_char": pa.array(
                    round_half_away(tok.astype(np.float64) / nch, 6)
                ),
            }
        )

    return combine_small(ds.map_batches(partial, batch_format="pandas"),
                         final)


# --------------------------------------------------------------------------
# Exact-duplicate rate per source: n_docs vs distinct texts — the
# per-provenance dedup telemetry a curation pipeline reports before/after
# exact dedup. Distinctness is computed on the full 128-bit md5 of the
# text (collision-free at any practical corpus size) so the corpus itself
# never shuffles: per-block distinct (source, md5) pairs → bucketed
# exchange keyed on the hash dedups globally (~40 B/row) → per-bucket
# per-source counts → one local combine joins them with the plain doc
# counts. SQL oracle compares against COUNT(DISTINCT text) directly.
_DUPRATE_SQL = """
SELECT source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(DISTINCT text) AS BIGINT) AS distinct_texts,
       ROUND(1.0 - CAST(COUNT(DISTINCT text) AS DOUBLE) / COUNT(*), 6)
         AS dup_rate
FROM documents
GROUP BY source
ORDER BY source
"""


@register("doc_dedup_rate_by_source", sql=_DUPRATE_SQL)
def doc_dedup_rate_by_source(sf_dir: str):
    import hashlib as _hashlib

    ds = table(sf_dir, "documents", ["text", "source"])

    def count_partial(t: pa.Table) -> pa.Table:
        return (
            pa.TableGroupBy(t.select(["source"]), ["source"])
            .aggregate([([], "count_all")])
            .rename_columns(["source", "n_docs"])
        )

    counts = combine_small(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        lambda t: pa.Table.from_pandas(
            t.to_pandas().groupby("source", as_index=False)["n_docs"].sum(),
            preserve_index=False,
        ),
    ).to_pandas()

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        h = [
            _hashlib.md5(x.encode("utf-8", "surrogatepass")).hexdigest()
            for x in df["text"]
        ]
        out = pd.DataFrame({"h": h, "source": df["source"]})
        return out.drop_duplicates()

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # global dedup of (hash, source): a text duplicated across sources
        # counts as distinct in each source, matching COUNT(DISTINCT text)
        # per group
        return (
            g.drop_duplicates()
            .groupby("source", as_index=False)
            .size()
            .rename(columns={"size": "distinct_texts"})
        )

    pairs = bucketed_group_agg(
        ds.map_batches(pair_partial, batch_format="pandas"), ["h"],
        per_bucket,
    )

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("source", as_index=False)["distinct_texts"]
            .sum()
            .merge(counts, on="source")
            .sort_values("source", kind="stable")
        )
        nd = g["n_docs"].to_numpy(np.int64)
        dt = g["distinct_texts"].to_numpy(np.int64)
        return pa.table(
            {
                "source": pa.array(g["source"], pa.string()),
                "n_docs": pa.array(nd),
                "distinct_texts": pa.array(dt),
                "dup_rate": pa.array(
                    round_half_away(1.0 - dt.astype(np.float64) / nd, 6)
                ),
            }
        )

    return combine_small(pairs, final)
