"""Scoring / featurization operators: text normalization (M3/M4),
deterministic stub classifiers (M11/M12/M13 — the reference's random
stance/age stubs made deterministic-by-content, per its own
``predict_age`` trick), TF-IDF featurization (M16, fit ONCE — not the
reference's per-batch refit bug), and a pluggable-model actor-pool scorer
(ST1: model loaded once per actor in ``__init__``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Count

from .common import bucketed_group_agg, table
from .queries import register


# --------------------------------------------------------------------------
# M3/M4 — whitespace normalization + universal to-string
@register(
    "normalized_text_lengths",
    sql="""
    SELECT doc_id,
           CAST(length(trim(regexp_replace(text, '\\s+', ' ', 'g'))) AS BIGINT)
             AS norm_len
    FROM documents
    """,
)
def normalized_text_lengths(sf_dir: str):
    ds = table(sf_dir, "documents", ["doc_id", "text"])

    def norm(t: pa.Table) -> pa.Table:
        cleaned = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(t["text"], pattern=r"\s+", replacement=" ")
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "norm_len": pc.cast(pc.utf8_length(cleaned), pa.int64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


# --------------------------------------------------------------------------
# M11 — stance stub, deterministic by content hash (md5 hex digit % 3);
# never returns None (the reference's roll-3 None bug is NOT replicated)
_HEX = "0123456789abcdef"


@register(
    "stance_stub_histogram",
    sql="""
    SELECT 'party' || CAST((strpos('0123456789abcdef', substr(md5(text), 1, 1)) - 1)
                           % 3 AS VARCHAR) AS stance,
           count(*) AS n
    FROM documents GROUP BY 1
    """,
)
def stance_stub_histogram(sf_dir: str):
    import hashlib

    ds = table(sf_dir, "documents", ["text"])

    def stub(df: pd.DataFrame) -> pd.DataFrame:
        stances = [
            f"party{_HEX.index(hashlib.md5(t.encode()).hexdigest()[0]) % 3}"
            for t in df["text"]
        ]
        return pd.DataFrame({"stance": stances})

    return (
        ds.map_batches(stub, batch_format="pandas")
        .groupby("stance")
        .aggregate(Count(alias_name="n"))
    )


# --------------------------------------------------------------------------
# M12/M13 — age stub (deterministic 12..84 from content) + decade binning
@register(
    "age_stub_decades",
    sql="""
    SELECT CAST(FLOOR((12 + (strpos('0123456789abcdef', substr(md5(text), 1, 1)) - 1)
                           * 16 + (strpos('0123456789abcdef', substr(md5(text), 2, 1)) - 1)
                       ) % 73 / 10) * 10 AS BIGINT) AS decade,
           count(*) AS n
    FROM documents GROUP BY 1
    """,
)
def age_stub_decades(sf_dir: str):
    import hashlib

    ds = table(sf_dir, "documents", ["text"])

    def stub(df: pd.DataFrame) -> pd.DataFrame:
        ages = []
        for t in df["text"]:
            h = hashlib.md5(t.encode()).hexdigest()
            age = (12 + _HEX.index(h[0]) * 16 + _HEX.index(h[1])) % 73
            ages.append(age // 10 * 10)
        return pd.DataFrame({"decade": pd.Series(ages, dtype="int64")})

    return (
        ds.map_batches(stub, batch_format="pandas")
        .groupby("decade")
        .aggregate(Count(alias_name="n"))
    )


# --------------------------------------------------------------------------
# M16 — TF-IDF featurizer. Vocabulary + document frequencies are fit ONCE
# (two-pass: a distributed df aggregation, then broadcast) — explicitly not
# replicating the reference's per-batch refit (Random_Forest_Classifier.py:47-51).
# SQL oracle replays the full fit: df per term, top-26 vocabulary by
# (df DESC, term ASC), idf = ln((1+N)/(1+df)) + 1, per-doc argmax of
# tf·idf with (score DESC, term ASC) tie-break, round(6) on both sides.
@register(
    "tfidf_top_terms",
    sql="""
    WITH toks AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
    ),
    tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2),
    df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY 1),
    n AS (SELECT count(*) AS n_docs FROM documents),
    vocab AS (
      SELECT term, ln((1 + n_docs) / (1 + df)) + 1.0 AS idf
      FROM df, n ORDER BY df DESC, term ASC LIMIT 26
    ),
    scored AS (
      SELECT tf.doc_id, tf.term, tf.tf * v.idf AS score
      FROM tf JOIN vocab v USING (term)
    ),
    ranked AS (
      SELECT doc_id, term, score,
             ROW_NUMBER() OVER (PARTITION BY doc_id
                                ORDER BY score DESC, term ASC) AS r
      FROM scored
    )
    SELECT d.doc_id,
           COALESCE(r.term, '') AS top_term,
           ROUND(COALESCE(r.score, 0.0), 6) AS tfidf
    FROM documents d LEFT JOIN (SELECT * FROM ranked WHERE r = 1) r USING (doc_id)
    """,
)
def tfidf_top_terms(sf_dir: str, max_features: int = 26):
    ds = table(sf_dir, "documents", ["doc_id", "text"])

    # pass 1: document frequencies (per-batch partial dfs → tiny groupby)
    def partial_df(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        c: Counter = Counter()
        for t in df["text"]:
            c.update(set(t.split()))
        return pd.DataFrame({"term": list(c), "df": list(c.values())})

    import os

    import pyarrow.parquet as _pq

    dfs = bucketed_group_agg(
        ds.map_batches(partial_df, batch_format="pandas"),
        ["term"],
        lambda g: g.groupby("term", as_index=False)["df"].sum(),
    ).to_pandas()  # vocabulary-sized — small
    # corpus size from parquet metadata (a driver-side fact of the input;
    # no extra Ray execution)
    n_docs = _pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")
    ).num_rows
    dfs = dfs.sort_values(["df", "term"], ascending=[False, True]).head(max_features)
    vocab = {
        t: float(np.log((1 + n_docs) / (1 + d)) + 1.0)
        for t, d in zip(dfs["term"], dfs["df"])
    }
    ref = ray.put(vocab)

    # task pool: the fitted idf table is broadcast once and fetched per
    # batch (local plasma lookup) — still fit-ONCE, no per-batch refit
    def tfidf_score(df: pd.DataFrame, *, ref) -> pd.DataFrame:
        from collections import Counter

        idf = ray.get(ref)
        top_terms, scores = [], []
        for t in df["text"]:
            tf = Counter(w for w in t.split() if w in idf)
            if not tf:
                top_terms.append("")
                scores.append(0.0)
                continue
            ranked = sorted(
                ((cnt * idf[w], w) for w, cnt in tf.items()),
                key=lambda x: (-x[0], x[1]),
            )
            top_terms.append(ranked[0][1])
            scores.append(round(ranked[0][0], 6))
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "top_term": top_terms, "tfidf": scores}
        )

    return ds.map_batches(tfidf_score, fn_kwargs={"ref": ref},
                          batch_format="pandas")


# --------------------------------------------------------------------------
# ST1 — pluggable-model actor-pool scorer: a serialized linear model is
# loaded ONCE per actor in __init__ and served per batch (the reference's
# RFClassifier process + queue micro-batching, Random_Forest_Classifier.py:61-74,
# re-expressed as map_batches over an actor pool). SQL oracle replays the
# same dot product with DuckDB list_inner_product on DOUBLE[].
def _model_weights(dim: int = 64, seed: int = 21) -> tuple[np.ndarray, float]:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(dim) * 0.1, 0.05


_W, _B = _model_weights()
_W_SQL = "[" + ", ".join(f"{x!r}" for x in _W.tolist()) + "]"


@register(
    "model_score_embeddings",
    sql=f"""
    SELECT vec_id,
           ROUND(1.0 / (1.0 + exp(-(list_inner_product(
                 CAST(embedding AS DOUBLE[]), CAST({_W_SQL} AS DOUBLE[])) + 0.05))), 6)
             AS score
    FROM embeddings
    """,
)
def model_score_embeddings(sf_dir: str):
    import os
    import tempfile

    # "pluggable model" contract: weights live in a file the actor loads
    model_path = os.path.join(tempfile.gettempdir(), "raycrawl_linear_model.npz")
    if not os.path.exists(model_path):
        w, b = _model_weights()
        np.savez(model_path, w=w, b=np.array([b]))

    class ModelScorer:
        def __init__(self, path: str):
            m = np.load(path)  # loaded once per actor (ST1)
            self.w = m["w"].astype(np.float64)
            self.b = float(m["b"][0])

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            x = np.stack(df["embedding"].to_numpy()).astype(np.float64)
            z = x @ self.w + self.b
            return pd.DataFrame(
                {
                    "vec_id": df["vec_id"],
                    "score": np.round(1.0 / (1.0 + np.exp(-z)), 6),
                }
            )

    return table(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        ModelScorer, fn_constructor_args=(model_path,), batch_format="pandas",
        batch_size=100, concurrency=(1, 8),
    )


# --------------------------------------------------------------------------
# ST1 with a pickled sklearn-API estimator: the reference serves a pickled
# sklearn model from a worker process (Random_Forest_Classifier.py:61-74,
# micro-batches of 100). Here a deterministically-FITTED classifier is
# pickled to disk and loaded ONCE per actor via pickle.load — the exact
# pluggable-model contract: the actor only assumes the sklearn estimator
# API (``predict_proba``), so any pickled sklearn classifier drops in.
# sklearn itself is not shipped in this sandbox, so the default model is
# the bundled ``SimpleLogit`` (same fit/predict_proba surface); when
# sklearn IS importable, ``LogisticRegression`` is used instead. The SQL
# oracle replays the fitted coefficients (binary predict_proba ==
# sigmoid(x·coef + intercept)).
try:  # pragma: no cover - import probe
    from sklearn.linear_model import LogisticRegression  # type: ignore

    HAVE_SKLEARN = True
except ImportError:
    LogisticRegression = None
    HAVE_SKLEARN = False


class SimpleLogit:
    """Minimal sklearn-compatible binary logistic regression (fit /
    predict_proba / predict, coef_ / intercept_), deterministic full-batch
    gradient descent in float64 — the pickle-an-estimator stand-in when
    sklearn is absent."""

    def __init__(self, lr: float = 0.5, n_iter: int = 300):
        self.lr = lr
        self.n_iter = n_iter

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SimpleLogit":
        n, d = x.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(self.n_iter):
            z = x @ w + b
            p = 1.0 / (1.0 + np.exp(-z))
            g = p - y
            w -= self.lr * (x.T @ g) / n
            b -= self.lr * float(g.mean())
        self.coef_ = w[None, :]
        self.intercept_ = np.array([b])
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        z = x @ self.coef_[0] + self.intercept_[0]
        p = 1.0 / (1.0 + np.exp(-z))
        return np.column_stack([1.0 - p, p])

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_proba(x)[:, 1] > 0.5).astype(int)


def _fit_estimator():
    """Deterministic fit: fixed synthetic training set, fixed seed."""
    rng = np.random.Generator(np.random.PCG64(42))
    x = rng.standard_normal((256, 64))
    w_true = rng.standard_normal(64)
    y = (x @ w_true + 0.1 * rng.standard_normal(256) > 0).astype(float)
    if HAVE_SKLEARN:  # pragma: no cover - sklearn absent in this sandbox
        clf = LogisticRegression(max_iter=500, random_state=0)
        clf.fit(x, y.astype(int))
        return clf
    return SimpleLogit().fit(x, y)


def pickled_model_path() -> str:
    """Pickle the fitted estimator once per machine; return the path."""
    import os
    import pickle
    import tempfile

    path = os.path.join(tempfile.gettempdir(), "raycrawl_pickled_clf.pkl")
    if not os.path.exists(path):
        with open(path, "wb") as f:
            pickle.dump(_fit_estimator(), f)
    return path


_CLF = _fit_estimator()
_CLF_COEF_SQL = "[" + ", ".join(repr(float(c)) for c in _CLF.coef_[0]) + "]"
_CLF_ICPT = repr(float(_CLF.intercept_[0]))


@register(
    "pickled_estimator_scores",
    sql=f"""
    SELECT vec_id,
           ROUND(1.0 / (1.0 + exp(-(list_inner_product(
                 CAST(embedding AS DOUBLE[]), CAST({_CLF_COEF_SQL} AS DOUBLE[]))
                 + {_CLF_ICPT}))), 6) AS score,
           CASE WHEN list_inner_product(CAST(embedding AS DOUBLE[]),
                     CAST({_CLF_COEF_SQL} AS DOUBLE[])) + {_CLF_ICPT} > 0
                THEN 1 ELSE 0 END AS label
    FROM embeddings
    """,
)
def pickled_estimator_scores(sf_dir: str):
    path = pickled_model_path()

    class EstimatorScorer:
        """Actor: pickle.load ONCE in __init__, sklearn predict API per
        batch — any pickled sklearn classifier drops in via ``path``."""

        def __init__(self, path: str):
            import pickle

            with open(path, "rb") as f:
                self.clf = pickle.load(f)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            x = np.stack(df["embedding"].to_numpy()).astype(np.float64)
            proba = self.clf.predict_proba(x)[:, 1]
            return pd.DataFrame(
                {
                    "vec_id": df["vec_id"],
                    "score": np.round(proba, 6),
                    "label": (proba > 0.5).astype("int32"),
                }
            )

    return table(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        EstimatorScorer, fn_constructor_args=(path,), batch_format="pandas",
        batch_size=100, concurrency=(1, 8),
    )


# --------------------------------------------------------------------------
# Classifier calibration bins (reliability diagram): the replayable
# logistic scorer's probability binned into 10 fixed-width bins over
# [0, 1], each bin reporting count, mean score and the TRUE-positive rate
# (ground truth = embeddings.label >= 5 — the upper half of the label
# alphabet). The eval a scorer-gated curation pipeline runs before
# trusting a quality threshold. Exactness: score is ROUND(p, 6) computed
# from the identical coefficient vector on both engines, the bin is
# floor(score*10) on that shared double, and mean score is summed as
# integer micro-units — no order-dependent float sums anywhere. One
# streaming pass; 10-row partials per block; one local combine.
_CALIB_SQL = f"""
WITH s AS (
  SELECT ROUND(1.0 / (1.0 + exp(-(list_inner_product(
             CAST(embedding AS DOUBLE[]), CAST({_CLF_COEF_SQL} AS DOUBLE[]))
             + {_CLF_ICPT}))), 6) AS score,
         (label >= 5) AS pos
  FROM embeddings
)
SELECT CAST(LEAST(CAST(floor(score * 10) AS BIGINT), 9) AS BIGINT) AS bin,
       CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(CAST(SUM(CAST(ROUND(score * 1000000) AS BIGINT)) AS DOUBLE)
             / 1000000 / COUNT(*), 6) AS mean_score,
       ROUND(CAST(SUM(CASE WHEN pos THEN 1 ELSE 0 END) AS DOUBLE)
             / COUNT(*), 6) AS positive_rate
FROM s
GROUP BY bin
ORDER BY bin
"""


@register("score_calibration_bins", sql=_CALIB_SQL)
def score_calibration_bins(sf_dir: str):
    from .common import combine_small, round_half_away, table

    coef = _CLF.coef_[0].astype(np.float64)
    icpt = float(_CLF.intercept_[0])
    ref = ray.put(coef)

    def rha6(x):
        # round_half_away(x, 6) inlined as a closure (scores are positive):
        # referencing the common.py helper from inside the UDF would make
        # every worker import the full raycrawl.ops package (~20 s cold)
        return np.floor(np.abs(x) * 1e6 + 0.5) / 1e6

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"bin": [], "n": [], "smic": [], "npos": []})
        w = ray.get(ref)
        x = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        score = rha6(1.0 / (1.0 + np.exp(-(x @ w + icpt))))
        b = np.minimum(np.floor(score * 10).astype(np.int64), 9)
        smic = np.round(score * 1_000_000).astype(np.int64)
        pos = (df["label"].to_numpy(np.int64) >= 5).astype(np.int64)
        g = pd.DataFrame({"bin": b, "smic": smic, "npos": pos})
        out = g.groupby("bin", as_index=False).agg(
            n=("smic", "size"), smic=("smic", "sum"), npos=("npos", "sum")
        )
        return out

    def final(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("bin", as_index=False)[["n", "smic", "npos"]]
            .sum()
            .sort_values("bin", kind="stable")
        )
        n = g["n"].to_numpy(np.float64)
        return pa.table(
            {
                "bin": pa.array(g["bin"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
                "mean_score": pa.array(
                    round_half_away(
                        g["smic"].to_numpy(np.float64) / 1_000_000 / n, 6
                    )
                ),
                "positive_rate": pa.array(
                    round_half_away(g["npos"].to_numpy(np.float64) / n, 6)
                ),
            }
        )

    ds = table(sf_dir, "embeddings", ["embedding", "label"])
    return combine_small(ds.map_batches(partial, batch_format="pandas"),
                         final)
