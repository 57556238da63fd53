"""Deduplication suite over the ``documents`` table — the training-data
pipeline staples: exact (hash-partition + per-group first), MinHash+LSH
near-dup candidate generation, SimHash, n-gram Jaccard verification, and
embedding-cosine near-dup (over ``embeddings``).

Scale shapes:
* exact dedup = add content-hash column (vectorized) → ``groupby(hash)``
  keep-first — one shuffle keyed on the hash;
* MinHash/LSH = per-batch shingle→minhash (numpy) → explode to
  (band_hash, doc_id) rows (band index folded into one int64 bucket key) →
  ``groupby(band_hash)`` → candidate pairs → vectorized Jaccard verify —
  shuffle volume is bands×docs 16-byte rows, never the documents themselves;
* SimHash = 64-bit vectorized projection, near-dup = identical hash here
  (radius-0; the chunked Hamming index in ``raycrawl.core.sketches`` is the
  scale path for radius>0);
* embedding-cosine = normalized vectors, blocked matmul per batch against a
  broadcast matrix (brute-force baseline; see similarity.py for the
  LSH-bucketed variant).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from . import common
from .common import (
    SMALL_COMBINE_ROWS,
    bucketed_group_agg,
    combine_small,
    isin_sorted,
    lookup_sorted,
    md5_u64_le,
    table,
    table_num_rows,
    table_spread,
)
from .queries import register


# --------------------------------------------------------------------------
# D1 at scale — exact dedup via content hash (md5) + hash-partitioned
# keep-lowest-id; SQL oracle uses DuckDB's md5 on the same normalization
@register(
    "exact_dedup_by_hash",
    sql="""
    SELECT md5(text) AS content_hash, CAST(min(doc_id) AS BIGINT) AS keeper,
           count(*) AS group_size
    FROM documents GROUP BY 1
    """,
)
def exact_dedup_by_hash(sf_dir: str):
    ds = table_spread(sf_dir, "documents", ["doc_id", "text"])

    def hash_partial(t: pa.Table) -> pa.Table:
        # hash distributed (text bytes never leave the read task), then
        # collapse the batch: only (32-byte hash, id, count) rows move on
        hashes = pa.array(
            [hashlib.md5(s.encode()).hexdigest() for s in t["text"].to_pylist()]
        )
        part = pa.table({"content_hash": hashes, "doc_id": t["doc_id"]})
        return (
            pa.TableGroupBy(part, "content_hash")
            .aggregate([("doc_id", "min"), ([], "count_all")])
            .rename_columns(["content_hash", "keeper", "group_size"])
        )

    # content_hash is near-unique (~1 row/key) — exactly the cardinality
    # regime where groupby().aggregate()'s per-key Python reduce degrades
    # (see bucketed_group_agg), so the final combine is bucket-sharded
    def combine_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("content_hash", as_index=False).agg(
            keeper=("keeper", "min"), group_size=("group_size", "sum")
        )

    return bucketed_group_agg(
        ds.map_batches(hash_partial, batch_format="pyarrow"),
        ["content_hash"],
        combine_bucket,
    )


# --------------------------------------------------------------------------
# MinHash + LSH near-dup (no SQL equivalent → rows-only driver check; the
# pytest suite verifies candidate recall against a brute-force Jaccard)
N_HASHES = 64
N_BANDS = 16  # 4 rows per band
SHINGLE = 3


def _shingles(text: str) -> set[int]:
    # shingle base hash = the shared md5_u64_le convention (common.py) ==
    # DuckDB md5_number_upper — which is what lets the LSH chain have an
    # exact SQL oracle
    toks = text.split()
    out = set()
    for i in range(max(1, len(toks) - SHINGLE + 1)):
        out.add(md5_u64_le(" ".join(toks[i : i + SHINGLE])))
    return out


_P61 = np.uint64((1 << 61) - 1)  # Mersenne prime 2^61 - 1


def _shl_mod_p61(t: np.ndarray, k: int) -> np.ndarray:
    """(t << k) mod (2^61 - 1) for t < 2^61 — a 61-bit rotate (2^61 ≡ 1)."""
    ku = np.uint64(k)
    return (((t & (_P61 >> ku)) << ku) + (t >> (np.uint64(61) - ku))) % _P61


def _mulmod_p61(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Element-wise (x * a) mod (2^61 - 1) WITHOUT 64-bit wraparound: split
    both operands into 32-bit halves (each partial product fits uint64) and
    fold with 2^32 ≡ <<32 and 2^64 ≡ 8 mod the Mersenne prime."""
    x = x % _P61
    a = a % _P61
    m32 = np.uint64(0xFFFFFFFF)
    xl, xh = x & m32, x >> np.uint64(32)
    al, ah = a & m32, a >> np.uint64(32)
    t0 = (xl * al) % _P61
    mid = ((xh * al) % _P61 + (xl * ah) % _P61) % _P61
    t1 = _shl_mod_p61(mid, 32)
    t2 = _shl_mod_p61((xh * ah) % _P61, 3)  # ·2^64 ≡ ·2^3
    return (t0 + t1 + t2) % _P61


class MinHasher:
    """Stateful stage: the 64 hash-permutation parameters are built once per
    actor (ST1 pattern), applied vectorized per batch. The permutation is a
    true universal hash mod 2^61 - 1 (overflow-safe modular multiply)."""

    P = int(_P61)

    def __init__(self, seed: int = 7):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.a = rng.integers(1, self.P, N_HASHES, dtype=np.uint64)
        self.b = rng.integers(0, self.P, N_HASHES, dtype=np.uint64)

    def signature(self, shingles: set[int]) -> np.ndarray:
        if not shingles:
            return np.zeros(N_HASHES, dtype=np.uint64)
        x = np.array(sorted(shingles), dtype=np.uint64)[:, None]  # (n,1)
        hv = (_mulmod_p61(x, self.a[None, :]) + self.b[None, :]) % _P61
        return hv.min(axis=0)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        sigs = np.zeros((n, N_HASHES), dtype=np.uint64)
        for i, text in enumerate(df["text"]):
            sigs[i] = self.signature(_shingles(text))
        bh = _band_hash_i64(sigs)  # (n, N_BANDS) int64, band folded in
        return pd.DataFrame(
            {
                "doc_id": np.repeat(
                    np.asarray(df["doc_id"], dtype=np.int64), N_BANDS
                ),
                "band_hash": bh.reshape(-1),
            }
        )


_BAND_IDX_U64 = np.arange(N_BANDS, dtype=np.uint64)


def _band_hash_i64(sigs: np.ndarray) -> np.ndarray:
    """(n, N_HASHES) uint64 signatures → (n, N_BANDS) int64 bucket keys.

    Splitmix-style wraparound mix over each band's signature values with the
    band index folded into the seed, so ONE int64 column is the complete
    LSH bucket key (equal band signature ⇒ equal key; distinct ⇒ distinct at
    ~2^-64 collision odds — and any stray collision only adds a candidate
    pair that exact-Jaccard verification then rejects). Replaces the previous
    per-(doc, band) hashlib.sha1 hex string: at 2M docs × 16 bands that was
    33M interpreter-level digest calls and a string-keyed shuffle; this is
    three vectorized uint64 ops per signature value and an 8-byte key."""
    n = sigs.shape[0]
    v = sigs.reshape(n, N_BANDS, N_HASHES // N_BANDS)
    h = np.uint64(0x9E3779B97F4A7C15) ^ _BAND_IDX_U64
    h = np.broadcast_to(h, (n, N_BANDS)).copy()
    mult = np.uint64(0xBF58476D1CE4E5B9)
    for r in range(v.shape[2]):
        h = (h ^ v[:, :, r]) * mult
        h ^= h >> np.uint64(29)
    return h.view(np.int64)


# Band-row count below which the bucket-counting / pair-expansion steps run
# driver-side (value_counts on the tiny (band_hash, doc_id) projection beats
# Ray's shuffle fixed costs); above it, the distributed groupby path — same
# semantics, tested for path equivalence — takes over.
LSH_DRIVER_PATH_MAX_BAND_ROWS = 1_000_000

# Candidate-pair count above which the distributed path stops funneling the
# pair list through the driver (cross-band dedup + doc-text broadcast) and
# switches to a bucketed pair-key exchange + Dataset.join text fetch — on a
# mirror-heavy web corpus the pair count approaches corpus size, so the
# funnel is O(corpus) driver memory without this tail. Mirrors
# CLUSTER_DRIVER_PATH_MAX_PAIRS below.
LSH_PAIR_FUNNEL_MAX_PAIRS = 5_000_000


def _fetch_docs_by_id(sf_dir: str, cand_ids) -> pd.DataFrame:
    """Candidate-doc re-fetch as a broadcast ``pc.is_in`` semi-filter:
    the id set is ``ray.put`` once and every read task filters its block
    against the shared copy. (Previously a Python-literal
    ``filter(expr=f"doc_id in {ids}")`` — an unbounded driver-built
    expression string at 100-TB candidate counts; same fix pattern as
    crawler.py's suppressed-sidecar anti-filter.)"""
    import pyarrow.compute as pc

    ids_ref = ray.put(pa.array(sorted(cand_ids)))

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["doc_id"], value_set=ray.get(ids_ref)))

    return (
        table_spread(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(keep, batch_format="pyarrow")
        .to_pandas()  # bounded: candidate docs only
    )


_MINHASHER: "MinHasher | None" = None


def minhash_bands(df: pd.DataFrame) -> pd.DataFrame:
    """Task-pool banding stage: the MinHasher's permutation parameters are
    built once per WORKER PROCESS (module cache — same pattern as the
    crawl's fetch stage) instead of spinning an actor pool per query."""
    global _MINHASHER
    if _MINHASHER is None:
        _MINHASHER = MinHasher()
    return _MINHASHER(df)


def _verify_pair_rows(a_ids, b_ids, a_texts, b_texts) -> pd.DataFrame:
    import math

    keep_a, keep_b, jac = [], [], []
    for a, b, ta, tb in zip(a_ids, b_ids, a_texts, b_texts):
        sa, sb = _shingles(ta), _shingles(tb)
        j = len(sa & sb) / max(1, len(sa | sb))
        if j >= 0.5:  # threshold on the RAW value (the SQL oracle matches)
            keep_a.append(a)
            keep_b.append(b)
            # half-away-from-zero to match DuckDB ROUND (Python round is
            # banker's — differs on exact 5e-7 boundaries)
            jac.append(math.floor(j * 1e6 + 0.5) / 1e6)
    return pd.DataFrame(
        {"a": pd.Series(keep_a, dtype="int64"),
         "b": pd.Series(keep_b, dtype="int64"),
         "jaccard": pd.Series(jac, dtype="float64")}
    )


def _verify_pairs(cand: pd.DataFrame, docs: dict) -> pd.DataFrame:
    return _verify_pair_rows(
        cand["a"], cand["b"],
        (docs[a] for a in cand["a"]), (docs[b] for b in cand["b"]),
    )


def _perm_sql_values() -> str:
    """The 64 seeded permutation parameters as SQL literals, so the oracle
    replays the exact universal-hash family (a, b < 2^61 - 1 fit BIGINT)."""
    mh = MinHasher()
    return ", ".join(
        f"({k}, {int(a)}, {int(b)})" for k, (a, b) in enumerate(zip(mh.a, mh.b))
    )


# The CTE chain (params → shingles → signatures → bands → candidate pairs →
# exact-Jaccard "verified") is shared by the candidate-pair oracle and the
# cluster/survivor oracle below.
_MINHASH_CTES = f"""params(k, a, b) AS (VALUES {_perm_sql_values()}),
    tok AS (
      SELECT doc_id, string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(12) || chr(11)), '\\s+') AS ws
      FROM documents),
    sh AS (
      SELECT DISTINCT doc_id,
             md5_number_upper(array_to_string(ws[i:i+{SHINGLE - 1}], ' ')) AS x
      FROM (SELECT doc_id, ws,
                   unnest(range(1, greatest(len(ws) - {SHINGLE - 1}, 1) + 1))
                     AS i
            FROM tok)),
    sig AS (
      SELECT s.doc_id, p.k,
             MIN(((CAST(s.x AS HUGEINT) % 2305843009213693951) * p.a + p.b)
                 % 2305843009213693951) AS v
      FROM sh s CROSS JOIN params p GROUP BY s.doc_id, p.k),
    bands AS (
      SELECT doc_id, k // {N_HASHES // N_BANDS} AS band,
             list(v ORDER BY k) AS bsig
      FROM sig GROUP BY doc_id, band),
    pairs AS (
      SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
      FROM bands x JOIN bands y
        ON x.band = y.band AND x.bsig = y.bsig AND x.doc_id < y.doc_id),
    sets AS (SELECT doc_id, list(DISTINCT x) AS hs FROM sh GROUP BY doc_id),
    verified AS (
      SELECT p.a, p.b,
             CAST(len(list_intersect(sa.hs, sb.hs)) AS DOUBLE) /
             GREATEST(1, len(list_distinct(list_concat(sa.hs, sb.hs))))
               AS raw
      FROM pairs p JOIN sets sa ON sa.doc_id = p.a
                   JOIN sets sb ON sb.doc_id = p.b)"""

_MINHASH_SQL = f"""
    WITH {_MINHASH_CTES}
    SELECT a, b, ROUND(raw, 6) AS jaccard FROM verified WHERE raw >= 0.5
"""


@register("minhash_lsh_candidates", sql=_MINHASH_SQL)
def minhash_lsh_candidates(sf_dir: str):
    """Candidate near-dup pairs: docs sharing ≥1 LSH band bucket, verified
    by exact shingle-Jaccard ≥ 0.5, deduplicated across bands.

    Almost every LSH bucket is a singleton; pairing work only exists in
    buckets with ≥2 members. Below ``LSH_DRIVER_PATH_MAX_BAND_ROWS`` the
    tiny (band_hash, doc_id) projection is pulled once to the driver
    and pair expansion + verification run there (one Ray execution total);
    above it the distributed path runs the same semantics as groupby
    shuffles (equivalence-tested). The bucket key is a single int64 with
    the band index folded in (see ``_band_hash_i64``) — 16 bytes/row
    crossing the shuffle."""
    ds = table_spread(sf_dir, "documents", ["doc_id", "text"])
    bands = ds.map_batches(minhash_bands, batch_format="pandas")

    # Path gate from parquet-footer metadata only: banding emits exactly
    # N_BANDS rows per document, so n_docs × N_BANDS IS the band-row count
    # — no materialize()+count() pass pinning the band table in the object
    # store just to pick a branch.
    n_band_rows = table_num_rows(sf_dir, "documents") * N_BANDS
    if common.gate("minhash_lsh_candidates", "band_rows", n_band_rows,
                   LSH_DRIVER_PATH_MAX_BAND_ROWS):
        # driver path: band rows are ~40 B each — one to_pandas, then
        # pure-pandas bucket counting, pair expansion and Jaccard verify
        bdf = bands.to_pandas()
        vc = bdf["band_hash"].value_counts()
        mdf = bdf[bdf["band_hash"].isin(vc.index[vc.values >= 2])]
        seen_pairs: set[tuple] = set()
        for _, g in mdf.groupby("band_hash"):
            ids = sorted(g["doc_id"].unique())
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    seen_pairs.add((ids[i], ids[j]))
        cand = pd.DataFrame(
            sorted(seen_pairs), columns=["a", "b"]
        ) if seen_pairs else pd.DataFrame({"a": [], "b": []})
        cand_ids = sorted(set(cand["a"]) | set(cand["b"]))
        if not cand_ids:
            return _verify_pairs(cand, {})
        docs_df = _fetch_docs_by_id(sf_dir, cand_ids)
        return _verify_pairs(cand, dict(zip(docs_df["doc_id"], docs_df["text"])))

    # distributed path (the 100-TB shape): ONE bucket-keyed shuffle of the
    # 16-byte band rows, then vectorized dup-detection + pair expansion per
    # bucket (see bucketed_group_agg's rationale — a per-key
    # groupby(band_hash) aggregate walks 33M group boundaries in Python and
    # ran >15 min where this shape takes ~40 s)

    def bucket_pairs_vec(g: pd.DataFrame) -> pd.DataFrame:
        # rows of a bucket: all docs whose band_hash lands here. Keys with
        # ≥2 docs are LSH collisions → expand to (a, b) pairs via a
        # vectorized self-merge (collision groups are tiny, mostly size 2,
        # so the s² merge blowup is bounded)
        d = g[g["band_hash"].duplicated(keep=False)]
        if d.empty:
            return pd.DataFrame(
                {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
            )
        m = d.merge(d, on="band_hash")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        return pd.DataFrame(
            {
                "a": m["doc_id_x"].to_numpy(dtype=np.int64),
                "b": m["doc_id_y"].to_numpy(dtype=np.int64),
            }
        ).drop_duplicates()

    pairs = bucketed_group_agg(
        bands, ["band_hash"], bucket_pairs_vec
    ).materialize()  # pair rows stay distributed in the object store
    n_pairs = pairs.count()  # free on a materialized dataset
    if common.gate("minhash_lsh_candidates", "candidate_pairs", n_pairs,
                   LSH_PAIR_FUNNEL_MAX_PAIRS):
        # candidate pairs are near-dups only (tiny vs the corpus);
        # cross-band repeats of the same (a, b) — ≤ N_BANDS copies — and the
        # doc-text broadcast both fit the driver comfortably at this count
        cand = (
            pairs.to_pandas()
            .drop_duplicates()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
        cand_ids = sorted(set(cand["a"]) | set(cand["b"]))
        if not cand_ids:
            return _verify_pairs(cand, {})
        docs_df = _fetch_docs_by_id(sf_dir, cand_ids)
        docs = dict(zip(docs_df["doc_id"], docs_df["text"]))
        ref = ray.put(docs)

        def verify(df: pd.DataFrame) -> pd.DataFrame:
            return _verify_pairs(df, ray.get(ref))

        return ray.data.from_pandas(cand).map_batches(
            verify, batch_format="pandas"
        )

    # mirror-heavy tail (pair count approaches corpus size, e.g. a web
    # corpus full of replicas): the pairs NEVER funnel through the driver.
    # Cross-band dedup is a second bucketed exchange on the pair key, and
    # the verification texts arrive by Dataset.join on doc_id per side —
    # the same gate pattern as minhash_dedup_clusters' 5M-pair branch.
    uniq = bucketed_group_agg(pairs, ["a", "b"], lambda g: g.drop_duplicates())
    docs = table(sf_dir, "documents", ["doc_id", "text"])
    with_a = common.join(
        uniq, docs, "inner", ("a",), ("doc_id",)
    ).select_columns(["a", "b", "text"]).rename_columns({"text": "text_a"})
    with_ab = common.join(
        with_a, docs, "inner", ("b",), ("doc_id",)
    ).select_columns(["a", "b", "text_a", "text"]).rename_columns(
        {"text": "text_b"}
    )

    def verify_cols(df: pd.DataFrame) -> pd.DataFrame:
        return _verify_pair_rows(df["a"], df["b"], df["text_a"], df["text_b"])

    return with_ab.map_batches(verify_cols, batch_format="pandas")


# --------------------------------------------------------------------------
# Near-dup REMOVAL end-to-end — the canonical LLM-corpus dedup pipeline
# (candidates → connected components → keep one doc per cluster). The
# reference only ever drops exact repeats (GenerateUserUseridDict.py:53-56);
# this is the web-scale generalization every training-data pipeline needs.
#
# Cluster formation = connected components over the verified candidate
# pairs. The pair graph is ALWAYS tiny relative to the corpus (pairs only
# exist between near-dups), so below the gate a driver-side union-find
# labels it in one pass; above it, iterative min-label propagation runs as
# distributed groupby rounds (equivalence-tested). The per-doc decision is
# then a broadcast map over the documents stream — no shuffle touches the
# corpus itself. At extreme scale (component map > driver memory) swap the
# broadcast for a Dataset.join on doc_id, same as the outer-join stats op.

CLUSTER_DRIVER_PATH_MAX_PAIRS = 5_000_000

_MINHASH_CLUSTER_SQL = f"""
    WITH RECURSIVE {_MINHASH_CTES},
    v AS (SELECT a, b FROM verified WHERE raw >= 0.5),
    sym AS (SELECT a, b FROM v UNION SELECT b, a FROM v),
    reach(src, dst) AS (
      SELECT doc_id, doc_id FROM documents
      UNION
      SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.dst),
    comp AS (SELECT src AS doc_id, CAST(MIN(dst) AS BIGINT) AS cluster_id
             FROM reach GROUP BY src),
    sizes AS (SELECT cluster_id, count(*) AS cluster_size
              FROM comp GROUP BY cluster_id)
    SELECT c.doc_id, c.cluster_id, s.cluster_size,
           c.doc_id = c.cluster_id AS keep
    FROM comp c JOIN sizes s USING (cluster_id)
"""


def _components_min_label(pairs: list[tuple[int, int]]) -> dict[int, int]:
    """Union-find with path compression; every member maps to the MINIMUM
    doc_id of its component (the canonical survivor)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != r:  # path compression
            parent[x], x = r, parent[x]
        return r

    nodes: set[int] = set()
    for a, b in pairs:
        nodes.add(a)
        nodes.add(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # union-by-min keeps every root at its component minimum, so find()
    # resolves each member straight to the canonical survivor
    return {x: find(x) for x in nodes}


def _components_distributed(pairs_df: pd.DataFrame) -> dict[int, int]:
    """Min-label propagation as distributed groupby rounds (the >gate path):
    each round joins current labels onto the symmetric edge list and takes
    the per-node min; converged when no label changes. Rounds needed =
    component diameter — near-dup clusters are shallow, so a handful."""
    import ray.data as rd

    sym = pd.DataFrame(
        {
            "src": pd.concat([pairs_df["a"], pairs_df["b"]], ignore_index=True),
            "dst": pd.concat([pairs_df["b"], pairs_df["a"]], ignore_index=True),
        }
    )
    nodes = pd.Index(sym["src"].unique())
    labels = pd.DataFrame({"node": nodes, "lbl": nodes}).reset_index(drop=True)
    edges = rd.from_pandas(sym)
    for _ in range(64):  # diameter bound; near-dup clusters are shallow
        lbl_ds = rd.from_pandas(labels)
        prop = common.join(
            edges, lbl_ds, "inner", ("src",), ("node",)
        ).select_columns(["dst", "lbl"])
        self_lbl = rd.from_arrow(
            pa.Table.from_pandas(
                labels.rename(columns={"node": "dst"}), preserve_index=False
            )
        )
        # per-node min over a near-unique key → bucket-sharded combine
        merged = (
            bucketed_group_agg(
                prop.union(self_lbl),
                ["dst"],
                lambda g: g.groupby("dst", as_index=False).agg(
                    lbl=("lbl", "min")
                ),
            )
            .to_pandas()
            .rename(columns={"dst": "node"})
        )
        merged = merged.sort_values("node").reset_index(drop=True)
        prev = labels.sort_values("node").reset_index(drop=True)
        if prev["lbl"].astype("int64").equals(merged["lbl"].astype("int64")):
            break
        labels = merged
    return dict(zip(labels["node"].astype("int64"), labels["lbl"].astype("int64")))


@register("minhash_dedup_clusters", sql=_MINHASH_CLUSTER_SQL)
def minhash_dedup_clusters(sf_dir: str):
    """Per-document dedup decision: cluster_id (= min doc_id of the
    connected component of verified near-dup pairs), cluster size, and the
    keep flag (survivor = the canonical min). Singletons keep themselves."""
    cand = minhash_lsh_candidates(sf_dir)
    cand_df = cand.to_pandas() if isinstance(cand, ray.data.Dataset) else cand
    pairs = list(
        zip(cand_df["a"].astype("int64"), cand_df["b"].astype("int64"))
    )
    if common.gate("minhash_dedup_clusters", "verified_pairs", len(pairs),
                   CLUSTER_DRIVER_PATH_MAX_PAIRS):
        comp = _components_min_label(pairs)
    else:
        comp = _components_distributed(cand_df[["a", "b"]])

    sizes: dict[int, int] = {}
    for lbl in comp.values():
        sizes[lbl] = sizes.get(lbl, 0) + 1
    comp_ref = ray.put((comp, sizes))

    def attach(t: pa.Table) -> pa.Table:
        m, sz = ray.get(comp_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        cl = np.array([m.get(int(i), int(i)) for i in ids], dtype=np.int64)
        size = np.array([sz.get(int(c), 1) for c in cl], dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cluster_id": pa.array(cl),
                "cluster_size": pa.array(size),
                "keep": pa.array(ids == cl),
            }
        )

    return table_spread(sf_dir, "documents", ["doc_id"]).map_batches(
        attach, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# SimHash — 64-bit, vectorized per batch; groups sharing a simhash are
# near-dups. Token hash = little-endian first-8-bytes of md5 (identical to
# DuckDB's md5_number_upper), so the SQL oracle replays the exact bits:
# bit i of the simhash is set iff a strict majority of token occurrences
# have bit i set.
def simhash_token_hash(tok: str) -> int:
    return md5_u64_le(tok)


_BIT_IDX = np.arange(64, dtype=np.uint64)


@register(
    "simhash_dedup_groups",
    sql="""
    WITH toks AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
    ),
    th AS (SELECT doc_id, md5_number_upper(term) AS h FROM toks),
    cnt AS (SELECT doc_id, count(*) AS n FROM th GROUP BY 1),
    bits AS (
      SELECT doc_id, b.i, SUM(CAST((h >> b.i) & 1 AS BIGINT)) AS ones
      FROM th, (SELECT unnest(range(64)) AS i) b GROUP BY 1, 2
    ),
    sim AS (
      SELECT bits.doc_id,
             SUM(CASE WHEN 2 * ones > n
                      THEN CAST(CAST(1 AS UBIGINT) << CAST(i AS INTEGER)
                                AS HUGEINT)
                      ELSE 0 END) AS hu
      FROM bits JOIN cnt USING (doc_id) GROUP BY 1
    )
    SELECT CAST(CASE WHEN hu >= CAST(1 AS HUGEINT) << 63
                     THEN hu - (CAST(1 AS HUGEINT) << 64) ELSE hu END
                AS BIGINT) AS simhash,
           CAST(min(doc_id) AS BIGINT) AS keeper,
           count(*) AS group_size
    FROM sim GROUP BY 1
    """,
)
def simhash_dedup_groups(sf_dir: str):
    ds = table_spread(sf_dir, "documents", ["doc_id", "text"])
    sim = ds.map_batches(simhash_batch, batch_format="pandas")

    # simhash is a near-unique dedup key (~1 row/key) → bucket-sharded
    # combine instead of a per-key aggregate (see bucketed_group_agg)
    def combine_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("simhash", as_index=False).agg(
            keeper=("doc_id", "min"), group_size=("doc_id", "size")
        )

    return bucketed_group_agg(sim, ["simhash"], combine_bucket)


_SIMHASH_TOKEN_CACHE: dict[str, int] = {}  # per worker process


def simhash_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Task-pool simhash stage, vectorized across the whole batch: md5 runs
    only on the batch's DISTINCT tokens (vocab << token count; per-worker
    module cache on top), bit counting is one segmented reduce over the
    flattened token-hash array — no per-token Python in the hot path."""
    cache = _SIMHASH_TOKEN_CACHE
    toks_per_doc = [t.split() for t in df["text"]]
    ndocs = len(toks_per_doc)
    lens = np.fromiter(map(len, toks_per_doc), dtype=np.int64, count=ndocs)
    flat = [tok for toks in toks_per_doc for tok in toks]
    ones = np.zeros((ndocs, 64), dtype=np.int64)
    nz = lens > 0
    if len(flat):
        uniq, inv = np.unique(np.asarray(flat, dtype=object),
                              return_inverse=True)
        uh = np.empty(len(uniq), dtype=np.uint64)
        for i, tok in enumerate(uniq):
            h = cache.get(tok)
            if h is None:
                h = cache[tok] = simhash_token_hash(tok)
            uh[i] = h
        hs = uh[inv]
        # empty docs contribute no rows, so consecutive nonzero segments
        # are adjacent in `flat` and reduceat over their starts is exact.
        # The (tokens × 64) bit matrix is expanded in ≤64k-token slabs
        # aligned to doc boundaries, bounding transient heap to ~32 MB per
        # task regardless of batch token count (long-document batches
        # would otherwise expand gigabytes at once).
        starts = np.zeros(ndocs, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        nz_idx = np.flatnonzero(nz)
        SLAB = 1 << 16
        d0 = 0
        while d0 < len(nz_idx):
            d1 = d0 + 1
            tok0 = starts[nz_idx[d0]]
            while (
                d1 < len(nz_idx)
                and starts[nz_idx[d1]] + lens[nz_idx[d1]] - tok0 <= SLAB
            ):
                d1 += 1
            last = nz_idx[d1 - 1]
            seg = hs[tok0 : starts[last] + lens[last]]
            bits = ((seg[:, None] >> _BIT_IDX[None, :]) & np.uint64(1)).astype(
                np.int64
            )
            ones[nz_idx[d0:d1]] = np.add.reduceat(
                bits, starts[nz_idx[d0:d1]] - tok0, axis=0
            )
            d0 = d1
    maj = (2 * ones > lens[:, None]).astype(np.uint64)
    hu = (maj << _BIT_IDX[None, :]).sum(axis=1, dtype=np.uint64)
    return pd.DataFrame({"doc_id": df["doc_id"],
                         "simhash": hu.view(np.int64)})


# --------------------------------------------------------------------------
# n-gram (character trigram) Jaccard near-dup between doc pairs of the same
# n_chars bucket — a cheap blocked pairwise verifier. SQL oracle builds the
# same distinct-trigram sets and replays the blocked pairwise Jaccard.
@register(
    "ngram_jaccard_neardups",
    sql="""
    WITH grams AS (
      SELECT doc_id, n_chars,
             CASE WHEN length(text) < 3 THEN [text]
                  ELSE list_distinct([substr(text, i, 3)
                                      for i in range(1, length(text) - 1)])
             END AS g
      FROM documents
    )
    SELECT a.doc_id AS a, b.doc_id AS b,
           ROUND(CAST(length(list_intersect(a.g, b.g)) AS DOUBLE) /
                 GREATEST(1, length(list_distinct(list_concat(a.g, b.g)))), 6)
             AS jaccard
    FROM grams a JOIN grams b
      ON a.n_chars = b.n_chars AND a.doc_id < b.doc_id
    WHERE CAST(length(list_intersect(a.g, b.g)) AS DOUBLE) /
          GREATEST(1, length(list_distinct(list_concat(a.g, b.g)))) >= 0.6
    """,
)
def ngram_jaccard_neardups(sf_dir: str, threshold: float = 0.6):
    ds = table_spread(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def block_pairs(g: pd.DataFrame) -> pd.DataFrame:
        def grams(s: str) -> set:
            return {s[i : i + 3] for i in range(len(s) - 2)} or {s}

        rows = {"a": [], "b": [], "jaccard": []}
        recs = sorted(zip(g["doc_id"], g["text"]))
        gsets = [(d, grams(t)) for d, t in recs]
        for i in range(len(gsets)):
            for j in range(i + 1, len(gsets)):
                da, sa = gsets[i]
                db, sb = gsets[j]
                jac = len(sa & sb) / max(1, len(sa | sb))
                if jac >= threshold:
                    rows["a"].append(da)
                    rows["b"].append(db)
                    rows["jaccard"].append(round(jac, 6))
        return pd.DataFrame(rows)

    # block on n_chars (identical length is a cheap near-dup prefilter);
    # at scale replace with LSH blocking (minhash_lsh_candidates)
    return ds.groupby("n_chars").map_groups(block_pairs, batch_format="pandas")


# --------------------------------------------------------------------------
# embedding-cosine near-dup: pairs with cosine ≥ 0.35 (threshold chosen so
# the near-random synthetic embeddings yield a non-trivial pair set);
# DOUBLE[] casts make DuckDB's accumulation match numpy float64 to ~1e-16
@register(
    "embedding_cosine_neardups",
    sql="""
    SELECT a.vec_id AS a, b.vec_id AS b,
           ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                        CAST(b.embedding AS DOUBLE[])), 4) AS cosine
    FROM embeddings a JOIN embeddings b
      ON a.label = b.label AND a.vec_id < b.vec_id
    WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                 CAST(b.embedding AS DOUBLE[])) >= 0.35
    """,
)
def embedding_cosine_neardups(sf_dir: str):
    ds = table(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def block(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        m = np.stack(g["embedding"].to_numpy()[order]).astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        sims = (m @ m.T) / (norms @ norms.T)
        ai, bi = np.where(np.triu(sims >= 0.35, k=1))
        return pd.DataFrame(
            {
                "a": ids[ai].astype("int64"),
                "b": ids[bi].astype("int64"),
                "cosine": np.round(sims[ai, bi], 4),
            }
        )

    # blocked by label (the coarse cluster key); at web scale: IVF buckets
    return ds.groupby("label").map_groups(block, batch_format="pandas")


# --------------------------------------------------------------------------
# corpus-level duplicated-n-gram analysis (the "how much of each document
# is boilerplate shared with other documents" signal behind substring-
# level dedup): for every document, the fraction of its DISTINCT word
# 5-grams that appear in at least one other document. Shape: explode
# (gram-hash, doc) pairs -> grouped count per gram -> hash-join the count
# back onto the pairs -> per-doc grouped sum. All three exchanges move
# fixed-width ~16-byte rows, never text. Gram identity is the shared
# md5_u64_le convention (64-bit; a corpus-scale collision merges two gram
# groups — harmless to the ≥2-docs flag unless both colliding grams were
# singletons, odds ~n²/2^64).
_DUP_NGRAM_N = 5

_DUP_NGRAM_SQL = """
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                             x -> x <> '') AS words
  FROM documents),
grams AS (
  SELECT DISTINCT doc_id, unnest(
    [array_to_string(words[i+1:i+5], ' ') for i in range(len(words) - 4)]
  ) AS gram
  FROM toks),
gdocs AS (SELECT gram, count(*) AS nd FROM grams GROUP BY gram)
SELECT g.doc_id,
       CAST(count(*) AS BIGINT) AS n_grams,
       ROUND(AVG(CASE WHEN gd.nd >= 2 THEN 1.0 ELSE 0.0 END), 6) AS dup_frac
FROM grams g JOIN gdocs gd USING (gram)
GROUP BY g.doc_id
"""

_WORD_RE = None


def _word_re():
    global _WORD_RE
    if _WORD_RE is None:
        import re

        _WORD_RE = re.compile(r"[a-z0-9]+")
    return _WORD_RE


@register("duplicate_ngram_fraction", sql=_DUP_NGRAM_SQL)
def duplicate_ngram_fraction(sf_dir: str):
    import pyarrow.compute as pc

    docs = table_spread(sf_dir, "documents", ["doc_id", "text"])
    n = _DUP_NGRAM_N

    def gram_pairs(t: pa.Table) -> pa.Table:
        rx = _word_re()
        ids: list[int] = []
        hs: list[int] = []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = rx.findall(text.lower())
            if len(toks) < n:  # matches SQL: such docs emit no gram rows
                continue
            seen = {
                md5_u64_le(" ".join(toks[i : i + n]))
                for i in range(len(toks) - n + 1)
            }
            ids.extend([did] * len(seen))
            hs.extend(seen)
        # int64 bit-reinterpretation: Ray's hash shuffle pickles uint64
        # columns into extension objects; the signed view keys identically
        gram_h = np.fromiter(hs, dtype=np.uint64, count=len(hs)).view(np.int64)
        return pa.table(
            {
                "gram_h": pa.array(gram_h, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    # pairs feed BOTH the per-gram count and the flag side — pin once so
    # the gram explosion doesn't run twice
    pairs = docs.map_batches(gram_pairs, batch_format="pyarrow").materialize()

    def finish(t: pa.Table) -> pa.Table:
        from .common import round_half_away

        ng = t["n_grams"].to_numpy(zero_copy_only=False).astype(np.float64)
        nd = t["n_dup"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_grams": pc.cast(t["n_grams"], pa.int64()),
                "dup_frac": pa.array(round_half_away(nd / ng, 6)),
            }
        )

    # fast path (gated on corpus size): the only cross-gram information the
    # query needs is WHICH gram hashes occur in ≥2 docs. Per-block
    # value_counts partials + one local combine yield that dup-gram set,
    # which broadcasts as ONE sorted int64 array; flagging is then a
    # streamed searchsorted per batch and the per-doc aggregate collapses
    # per block before its own local combine. Replaces two ~1M-row Ray
    # shuffles + a hash join (measured 8-11 s at sf0.1) with zero shuffles
    # (~2 s). Past the gate the shuffle pipeline below takes over
    # (path-equivalence tested).
    if common.gate("duplicate_ngram_fraction", "documents",
                   table_num_rows(sf_dir, "documents"),
                   SMALL_COMBINE_ROWS // 4):
        import ray as _ray

        def count_partial(t: pa.Table) -> pa.Table:
            col = t["gram_h"]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            vc = pc.value_counts(col)
            return pa.table(
                {
                    "gram_h": vc.field("values"),
                    "nd": pc.cast(vc.field("counts"), pa.int64()),
                }
            )

        def dup_set(t: pa.Table) -> pa.Table:
            agg = (
                pa.TableGroupBy(t, "gram_h")
                .aggregate([("nd", "sum")])
                .rename_columns(["gram_h", "nd"])
            )
            return agg.filter(pc.greater_equal(agg["nd"], pa.scalar(2)))

        dup = combine_small(
            pairs.map_batches(count_partial, batch_format="pyarrow"), dup_set
        )
        dup_ref = _ray.put(
            np.sort(dup["gram_h"].to_numpy(zero_copy_only=False))
        )

        def doc_partial(t: pa.Table, *, ref) -> pa.Table:
            dups = _ray.get(ref)
            gh = t["gram_h"].to_numpy(zero_copy_only=False)
            isdup = isin_sorted(dups, gh).astype(np.int64)
            tmp = pa.table(
                {"doc_id": t["doc_id"], "dup": pa.array(isdup)}
            )
            return (
                pa.TableGroupBy(tmp, "doc_id")
                .aggregate([([], "count_all"), ("dup", "sum")])
                .rename_columns(["doc_id", "n_grams", "n_dup"])
            )

        def doc_final(t: pa.Table) -> pa.Table:
            return finish(
                pa.TableGroupBy(t, "doc_id")
                .aggregate([("n_grams", "sum"), ("n_dup", "sum")])
                .rename_columns(["doc_id", "n_grams", "n_dup"])
            )

        return combine_small(
            pairs.map_batches(
                doc_partial, fn_kwargs={"ref": dup_ref}, batch_format="pyarrow"
            ),
            doc_final,
        )

    # at-scale path: per-gram count shuffle + hash join back onto the
    # pairs. Both gram_h and doc_id are near-unique keys, so both
    # aggregates go through bucketed_group_agg (per-key Python reduce in
    # Dataset.aggregate degrades with distinct-key count — see common.py)
    counts = bucketed_group_agg(
        pairs.select_columns(["gram_h"]),
        ["gram_h"],
        lambda g: g.groupby("gram_h", as_index=False).agg(
            nd=("gram_h", "size")
        ),
    )
    joined = common.join(pairs, counts, "inner", ("gram_h",))

    def flag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "dup": pc.cast(
                    pc.greater_equal(t["nd"], pa.scalar(2)), pa.int64()
                ),
            }
        )

    per_doc = bucketed_group_agg(
        joined.map_batches(flag, batch_format="pyarrow"),
        ["doc_id"],
        lambda g: g.groupby("doc_id", as_index=False).agg(
            n_grams=("dup", "size"), n_dup=("dup", "sum")
        ),
    )

    return per_doc.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Incremental ingest dedup: a NEW batch arrives; which of its rows carry a
# key the accumulated OLD corpus has already seen? At 100 TB the old side
# is billions of keys, so the scalable shape is a two-phase check:
#
#   1. Bloom prefilter — a bit array built distributed over the old keys
#      (per-block partial bitmaps OR-merged; at >10k blocks the OR becomes
#      a Ray actor tree instead of one driver reduce), ray.put ONCE and
#      read inside every new-batch task. "Bit clear" is a PROOF of novelty
#      — those rows never enter the verify shuffle.
#   2. Exact verify — only the maybe-seen survivors (true dups + Bloom
#      false positives, a tiny fraction of the new batch) are shuffled
#      against the old keys in one bucketed pass.
#
# Key here = (user_id, props) over ``events`` split by ingest batch
# (event_id % 10): "has this user emitted this exact property payload in a
# previous batch". SQL oracle checks the pair membership directly.
_NOVELTY_M_BITS = 1 << 23  # 1 MiB bitmap; ~2 bits/key headroom at 4M keys
_NOVELTY_SQL = """
WITH e AS (SELECT event_id, user_id, props FROM events),
old AS (SELECT DISTINCT user_id, props FROM e WHERE event_id % 10 < 7),
new AS (SELECT user_id, props FROM e WHERE event_id % 10 >= 7)
SELECT CAST(count(*) AS BIGINT) AS n_new,
       CAST(sum(CASE WHEN (user_id, props) IN (SELECT (user_id, props)
                                               FROM old)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_known,
       CAST(sum(CASE WHEN (user_id, props) IN (SELECT (user_id, props)
                                               FROM old)
                     THEN 0 ELSE 1 END) AS BIGINT) AS n_novel
FROM new
"""


def _novelty_key(df: pd.DataFrame) -> np.ndarray:
    """Vectorized 64-bit key of (user_id, props) — the two engines compare
    only key equality, so the convention is internal (unlike md5_u64_le
    it never has to match a SQL hash)."""
    return pd.util.hash_pandas_object(
        df[["user_id", "props"]], index=False
    ).to_numpy()


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _bloom_set(bits: np.ndarray, h: np.ndarray,
               m_bits: int = _NOVELTY_M_BITS) -> None:
    for p in (h % np.uint64(m_bits),
              _splitmix64(h) % np.uint64(m_bits)):
        np.bitwise_or.at(
            bits, (p >> np.uint64(3)).astype(np.int64),
            (np.uint8(1) << (p & np.uint64(7)).astype(np.uint8)),
        )


def _bloom_maybe(bits: np.ndarray, h: np.ndarray,
                 m_bits: int = _NOVELTY_M_BITS) -> np.ndarray:
    out = np.ones(len(h), dtype=bool)
    for p in (h % np.uint64(m_bits),
              _splitmix64(h) % np.uint64(m_bits)):
        byte = bits[(p >> np.uint64(3)).astype(np.int64)]
        out &= (byte >> (p & np.uint64(7)).astype(np.uint8)) & 1 > 0
    return out


@register("incremental_novelty_dedup", sql=_NOVELTY_SQL)
def incremental_novelty_dedup(sf_dir: str):
    ds = table_spread(sf_dir, "events", ["event_id", "user_id", "props"])

    # ONE scan of the wide input: hash (user_id, props) per row, keep only
    # (h uint64, is_old bool) — 9 B/row. Materializing this intermediate
    # is what makes the op single-scan: the expensive string-hash pass
    # over the full events table runs once, and both downstream consumers
    # (Bloom build, verify filter) re-read the tiny cached columns. At
    # 100 TB the intermediate is ~9 B / avg-row-width of the input (a few
    # percent), streamed to the object store with spill — never the
    # driver. (Previous shape re-scanned full events twice: 3.3 s →
    # this, 1.9 s at sf0.1.)
    def hash_tag(df: pd.DataFrame) -> pd.DataFrame:
        is_old = df["event_id"].to_numpy() % 10 < 7
        h = (_novelty_key(df) if len(df)
             else np.array([], np.uint64))
        return pd.DataFrame({"h": h, "is_old": is_old})

    tagged = ds.map_batches(hash_tag, batch_format="pandas").map_batches(
        lambda t: pa.table({"h": pc_uint64(t["h"]), "is_old": t["is_old"]}),
        batch_format="pyarrow",
    ).materialize()
    cols = ("n_new", "n_known", "n_novel")
    if not tagged.count():  # an empty table reads as schema-less blocks
        return pa.table({c: pa.array([], pa.int64()) for c in cols})

    # Bloom partials + exact n_new from the cached 9-B rows (per-block
    # bitmap OR-merged; at >10k blocks this reduce becomes an actor tree)
    def old_bloom_partial(t: pa.Table) -> pd.DataFrame:
        is_old = t["is_old"].to_numpy(zero_copy_only=False)
        h = t["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bits = np.zeros(_NOVELTY_M_BITS // 8, dtype=np.uint8)
        if is_old.any():
            _bloom_set(bits, h[is_old])
        return pd.DataFrame({"bits": [bits.tobytes()],
                             "n_new": [int((~is_old).sum())]})

    def or_bits(t: pa.Table):
        acc = np.zeros(_NOVELTY_M_BITS // 8, dtype=np.uint8)
        for b in t["bits"].to_pylist():
            acc |= np.frombuffer(b, dtype=np.uint8)
        return acc, int(pa.compute.sum(t["n_new"]).as_py() or 0)

    bloom, n_new = combine_small(
        tagged.map_batches(old_bloom_partial, batch_format="pyarrow"), or_bits
    )
    bloom_ref = ray.put(bloom)

    # Verify input: old keys pass through; new keys the Bloom cannot
    # clear (true dups + false positives) enter the exchange; bit-clear
    # rows are PROVEN novel and never leave their task.
    def verify_rows(t: pa.Table) -> pa.Table:
        b = ray.get(bloom_ref)
        is_old = t["is_old"].to_numpy(zero_copy_only=False)
        h = t["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = is_old | _bloom_maybe(b, h) if len(h) else is_old
        return pa.table({"h": pa.array(h[keep], pa.uint64()),
                         "is_old": pa.array(is_old[keep])})

    tagged = tagged.map_batches(verify_rows, batch_format="pyarrow")

    def bucket_known(g: pd.DataFrame) -> pd.DataFrame:
        old_h = g.loc[g["is_old"], "h"].unique()
        known = int(g.loc[~g["is_old"], "h"].isin(old_h).sum())
        return pd.DataFrame({"known": [known]})

    parts = bucketed_group_agg(tagged, ["h"], bucket_known).to_pandas()
    n_known = int(parts["known"].sum())
    return pa.table({c: pa.array([v], pa.int64()) for c, v in
                     zip(cols, (n_new, n_known, n_new - n_known))})


def pc_uint64(arr):
    import pyarrow.compute as pc

    return pc.cast(arr, pa.uint64())


# --------------------------------------------------------------------------
# duplicated-n-gram SPAN extraction — the positional form of the analysis
# above and the core of substring-level training-data dedup (find the
# boilerplate PASSAGES, not just per-doc fractions; the remover then cuts
# exactly these [span_start, span_end] word ranges). A word position is
# "duplicated" when any 5-gram starting there occurs in ≥ 2 distinct
# docs; maximal runs of duplicated gram positions merge into spans
# covering words [min_pos, max_pos + 4].
#
# Shapes share duplicate_ngram_fraction's gate: under it, the dup-gram
# set broadcasts as one sorted int64 array and span merging runs INSIDE
# the emitting batch (gram positions of a doc are contiguous there) —
# ZERO shuffles; past it, counts come from a bucketed gram shuffle, the
# flags from a hash join, and spans from a per-doc bucketed regroup —
# rows are fixed-width (gram_h, doc_id, pos) triples, text never moves.
# Path equivalence is pinned by tests/test_round3b.py.

_DUP_SPAN_SQL = """
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                             x -> x <> '') AS words
  FROM documents),
g AS (
  SELECT doc_id,
         unnest(range(len(words) - 4)) AS pos,
         unnest([array_to_string(words[i+1:i+5], ' ')
                 for i in range(len(words) - 4)]) AS gram
  FROM toks WHERE len(words) >= 5),
gd AS (
  SELECT gram FROM (
    SELECT gram, count(DISTINCT doc_id) AS nd FROM g GROUP BY gram)
  WHERE nd >= 2),
d AS (SELECT doc_id, pos FROM g WHERE gram IN (SELECT gram FROM gd)),
isl AS (
  SELECT doc_id, pos,
         pos - ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY pos) AS grp
  FROM d)
SELECT doc_id,
       CAST(MIN(pos) AS BIGINT) AS span_start,
       CAST(MAX(pos) + 4 AS BIGINT) AS span_end,
       CAST(MAX(pos) + 5 - MIN(pos) AS BIGINT) AS n_words
FROM isl GROUP BY doc_id, grp
"""


def _spans_from_positions(doc_ids, positions):
    """Vectorized gaps-and-islands over (doc_id, pos) rows that are
    already sorted per doc (construction order): island boundaries are
    where doc changes or pos jumps by ≠ 1."""
    if not len(doc_ids):
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "span_start": pd.Series([], dtype="int64"),
                "span_end": pd.Series([], dtype="int64"),
                "n_words": pd.Series([], dtype="int64"),
            }
        )
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    new = np.ones(len(doc_ids), dtype=bool)
    new[1:] = (doc_ids[1:] != doc_ids[:-1]) | (positions[1:] != positions[:-1] + 1)
    starts = np.where(new)[0]
    ends = np.r_[starts[1:] - 1, len(doc_ids) - 1]
    s, e = positions[starts], positions[ends] + 4
    return pd.DataFrame(
        {
            "doc_id": doc_ids[starts],
            "span_start": s,
            "span_end": e,
            "n_words": e - s + 1,
        }
    )


DUP_SPAN_BROADCAST_MAX = 5_000_000  # sorted int64 broadcast ≈ 40 MB


@register("duplicate_ngram_spans", sql=_DUP_SPAN_SQL)
def duplicate_ngram_spans(sf_dir: str):
    import pyarrow.compute as pc

    docs = table_spread(sf_dir, "documents", ["doc_id", "text"])
    n = _DUP_NGRAM_N

    def gram_rows(t: pa.Table) -> pa.Table:
        """(gram_h, doc_id, pos) per gram position — per-doc contiguous
        and pos-ascending by construction."""
        rx = _word_re()
        ids: list[int] = []
        poss: list[int] = []
        hs: list[int] = []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = rx.findall(text.lower())
            if len(toks) < n:
                continue
            for i in range(len(toks) - n + 1):
                ids.append(did)
                poss.append(i)
                hs.append(md5_u64_le(" ".join(toks[i : i + n])))
        gram_h = np.fromiter(hs, dtype=np.uint64, count=len(hs)).view(np.int64)
        return pa.table(
            {
                "gram_h": pa.array(gram_h, pa.int64()),
                "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
                "pos": pa.array(np.asarray(poss, dtype=np.int64)),
            }
        )

    op = "duplicate_ngram_spans"
    if common.gate(op, "documents", table_num_rows(sf_dir, "documents"),
                   SMALL_COMBINE_ROWS // 4):
        # pass 1: dup-gram set. Partials emit DISTINCT (gram, doc) PAIRS —
        # not per-batch counts — because a batch boundary can split one
        # doc's gram rows (map_batches re-batches blocks at ~1k rows), and
        # counting a pair once per fragment would over-flag nd. The global
        # dedup happens in the single local combine, which under this gate
        # holds ≤ the corpus's distinct-pair count (the same bound
        # duplicate_ngram_fraction's combine carries).
        def distinct_partial(t: pa.Table) -> pa.Table:
            return pa.table(
                {"gram_h": t["gram_h"], "doc_id": t["doc_id"]}
            ).group_by(["gram_h", "doc_id"]).aggregate([])

        def combine(t: pa.Table) -> pa.Table:
            uniq = t.group_by(["gram_h", "doc_id"]).aggregate([])
            agg = (
                pa.TableGroupBy(uniq, "gram_h")
                .aggregate([([], "count_all")])
                .rename_columns(["gram_h", "nd"])
            )
            return agg.filter(pc.greater_equal(agg["nd"], 2))

        grams = docs.map_batches(gram_rows, batch_format="pyarrow")
        dup = combine_small(
            grams.map_batches(distinct_partial, batch_format="pyarrow"),
            combine,
        )
        dup_sorted = np.sort(dup["gram_h"].to_numpy(zero_copy_only=False))
        import ray as _ray

        dup_ref = _ray.put(dup_sorted)

        def spans(t: pa.Table) -> pd.DataFrame:
            arr = _ray.get(dup_ref)
            g = gram_rows(t)
            gh = g["gram_h"].to_numpy(zero_copy_only=False)
            hit = isin_sorted(arr, gh)
            return _spans_from_positions(
                g["doc_id"].to_numpy(zero_copy_only=False)[hit],
                g["pos"].to_numpy(zero_copy_only=False)[hit],
            )

        return docs.map_batches(spans, batch_format="pyarrow")

    # distributed path: ONE bucketed gram shuffle computes the global
    # dup-gram table; what happens next adapts to its SIZE (the realistic
    # web-corpus case: dup grams ≪ corpus grams):
    #   * dup table ≤ DUP_SPAN_BROADCAST_MAX rows → sort + broadcast it and
    #     re-derive spans inside the doc-streaming pass (no second shuffle,
    #     gram rows move exactly once);
    #   * bigger → hash-join the flags back and regroup per doc (three
    #     fixed-width exchanges, the worst-case-honest shape).
    grams = docs.map_batches(gram_rows, batch_format="pyarrow").materialize()

    def nd_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        nd = g.drop_duplicates(["gram_h", "doc_id"]).groupby("gram_h").size()
        nd = nd[nd >= 2]
        return pd.DataFrame({"gram_h": nd.index.to_numpy(), "nd": nd.to_numpy()})

    dup_mat = bucketed_group_agg(grams, ["gram_h"], nd_in_bucket).materialize()

    if common.gate(op, "dup_grams", dup_mat.count(), DUP_SPAN_BROADCAST_MAX):
        import ray as _ray

        ddf = dup_mat.to_pandas()  # bounded by the gate
        dup_sorted = (np.sort(ddf["gram_h"].to_numpy())
                      if len(ddf) else np.array([], dtype=np.int64))
        dup_ref = _ray.put(dup_sorted)

        def spans_bcast(t: pa.Table) -> pd.DataFrame:
            arr = _ray.get(dup_ref)
            gh = t["gram_h"].to_numpy(zero_copy_only=False)
            hit = isin_sorted(arr, gh)
            return _spans_from_positions(
                t["doc_id"].to_numpy(zero_copy_only=False)[hit],
                t["pos"].to_numpy(zero_copy_only=False)[hit],
            )

        # gram rows are per-doc contiguous within their original block;
        # batch_size=None keeps map_batches on whole blocks so a doc's run
        # of positions is never split mid-island
        return grams.map_batches(
            spans_bcast, batch_format="pyarrow", batch_size=None
        )

    # Bloom prefilter before the join: on a real web corpus dup POSITIONS
    # are a small fraction of all gram rows, so shuffling every row into
    # the hash join wastes most of the exchange. Build a Bloom over the
    # dup-gram keys (~12 bits/key, 2 hashes → ~2% FPR) and drop
    # proven-clean gram rows BEFORE they enter the join; false positives
    # are removed by the inner join itself, so exactness is untouched.
    # The bitmap is built in the combine task, one dup_mat block (chunk)
    # at a time (memory = bitmap + one 8-B-key chunk), then ray.put ONCE
    # and read zero-copy in every filter task.
    #
    # Skip gate: each dup gram contributes ≥2 gram rows, so hit rows ≥
    # 2·n_dup. When that floor already exceeds ~25% of all gram rows
    # (n_dup > rows/8 — a boilerplate-saturated corpus, e.g. the scale
    # smoke's seeded replicas), the filter can't remove enough to pay
    # for its pass and the rows go straight to the join.
    n_dup = dup_mat.count()
    left = grams
    if common.gate(op, "bloom", n_dup, grams.count() // 8):
        m_bits = 1 << max(23, min(31, (16 * max(n_dup, 1) - 1).bit_length()))

        def build_bloom(t: pa.Table) -> np.ndarray:
            bits = np.zeros(m_bits // 8, dtype=np.uint8)
            for keys in t["gram_h"].chunks if t.num_rows else ():
                _bloom_set(bits, keys.to_numpy(zero_copy_only=False)
                           .astype(np.int64).view(np.uint64), m_bits)
            return bits

        bloom_ref = ray.put(combine_small(dup_mat.select_columns(["gram_h"]),
                                          build_bloom))

        def bloom_prefilter(t: pa.Table) -> pa.Table:
            b = ray.get(bloom_ref)
            gh = t["gram_h"].to_numpy(zero_copy_only=False)
            keep = _bloom_maybe(b, gh.astype(np.int64).view(np.uint64),
                                m_bits)
            return t.filter(pa.array(keep))

        left = grams.map_batches(bloom_prefilter, batch_format="pyarrow")

    flagged = common.join(
        left, dup_mat, "inner", ("gram_h",)
    ).select_columns(["doc_id", "pos"])

    def doc_spans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "pos"])
        return _spans_from_positions(
            g["doc_id"].to_numpy(), g["pos"].to_numpy()
        )

    return bucketed_group_agg(flagged, ["doc_id"], doc_spans)


# --------------------------------------------------------------------------
# Duplicated-span REMOVAL accounting — the per-document effect of cutting
# every span duplicate_ngram_spans found: how many words survive, per doc
# (the number a curation pipeline thresholds on before dropping or
# trimming a document). One row per tokenizable doc, zero-span docs
# included.
#
# Shape: reuses duplicate_ngram_spans (adaptive broadcast/join inside),
# collapses its output to per-doc removed-word counts (span rows are
# bounded by the duplicate volume), then attaches them to the streamed
# per-doc token counts — broadcast when the dup-doc map fits
# (REMOVAL_BROADCAST_MAX), hash join past it.

REMOVAL_BROADCAST_MAX = 5_000_000

_SPAN_REMOVAL_SQL = f"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                             x -> x <> '') AS words
  FROM documents),
g AS (
  SELECT doc_id,
         unnest(range(len(words) - 4)) AS pos,
         unnest([array_to_string(words[i+1:i+5], ' ')
                 for i in range(len(words) - 4)]) AS gram
  FROM toks WHERE len(words) >= 5),
gd AS (
  SELECT gram FROM (
    SELECT gram, count(DISTINCT doc_id) AS nd FROM g GROUP BY gram)
  WHERE nd >= 2),
d AS (SELECT doc_id, pos FROM g WHERE gram IN (SELECT gram FROM gd)),
isl AS (
  SELECT doc_id, pos,
         pos - ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY pos) AS grp
  FROM d),
spans AS (
  SELECT doc_id, MAX(pos) + 5 - MIN(pos) AS span_words
  FROM isl GROUP BY doc_id, grp),
rem AS (SELECT doc_id, SUM(span_words) AS n_removed FROM spans
        GROUP BY doc_id)
SELECT t.doc_id,
       CAST(len(t.words) AS BIGINT) AS n_words,
       CAST(COALESCE(r.n_removed, 0) AS BIGINT) AS n_removed,
       ROUND(CAST(COALESCE(r.n_removed, 0) AS DOUBLE) / len(t.words), 6)
         AS removed_frac
FROM toks t LEFT JOIN rem r USING (doc_id)
WHERE len(t.words) > 0
"""


@register("duplicate_span_removal_stats", sql=_SPAN_REMOVAL_SQL)
def duplicate_span_removal_stats(sf_dir: str):
    import pyarrow.compute as pc

    from .common import round_half_away

    spans = duplicate_ngram_spans(sf_dir)

    def sum_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("doc_id", as_index=False)["n_words"].sum()
        return s.rename(columns={"n_words": "n_removed"})

    rem = bucketed_group_agg(spans, ["doc_id"], sum_bucket).materialize()

    docs = table_spread(sf_dir, "documents", ["doc_id", "text"])

    def tok_counts(t: pa.Table) -> pa.Table:
        rx = _word_re()
        nw = np.array(
            [len(rx.findall(s.lower())) for s in t["text"].to_pylist()],
            dtype=np.int64,
        )
        keep = nw > 0
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()).filter(
                    pa.array(keep)
                ),
                "n_words": pa.array(nw[keep]),
            }
        )

    counts = docs.map_batches(tok_counts, batch_format="pyarrow")

    if common.gate("duplicate_span_removal_stats", "removed_docs",
                   rem.count(), REMOVAL_BROADCAST_MAX):
        rdf = rem.to_pandas()  # bounded by the gate
        import ray as _ray

        if len(rdf):
            rdf = rdf.sort_values("doc_id")
            ref = _ray.put(
                (rdf["doc_id"].to_numpy(np.int64),
                 rdf["n_removed"].to_numpy(np.int64))
            )
        else:  # span-free corpus: empty map, zero removals everywhere
            ref = _ray.put(
                (np.array([], np.int64), np.array([], np.int64))
            )

        def attach(t: pa.Table) -> pa.Table:
            ids, nrem = _ray.get(ref)
            did = t["doc_id"].to_numpy(zero_copy_only=False)
            nw = t["n_words"].to_numpy(zero_copy_only=False)
            _, nr = lookup_sorted(ids, did, nrem)
            return pa.table(
                {
                    "doc_id": pa.array(did),
                    "n_words": pa.array(nw),
                    "n_removed": pa.array(nr.astype(np.int64)),
                    "removed_frac": pa.array(
                        round_half_away(nr / nw.astype(np.float64), 6)
                    ),
                }
            )

        return counts.map_batches(attach, batch_format="pyarrow")

    joined = common.join(counts, rem, "left_outer", ("doc_id",))

    def finish(t: pa.Table) -> pa.Table:
        nw = t["n_words"].to_numpy(zero_copy_only=False).astype(np.int64)
        nr = t["n_removed"].to_numpy(zero_copy_only=False)
        nr = np.where(np.isnan(nr.astype(np.float64)), 0, nr).astype(np.int64)
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_words": pa.array(nw),
                "n_removed": pa.array(nr),
                "removed_frac": pa.array(
                    round_half_away(nr / nw.astype(np.float64), 6)
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# CCNet-style repeated-PARAGRAPH dedup: split every document into fixed
# 8-word paragraphs, drop every paragraph whose exact text already
# occurred earlier in the corpus (global order = (doc_id, para_idx) —
# first occurrence wins), and report the per-document effect. This is
# the paragraph-level complement of duplicate_ngram_spans: boilerplate
# removal keyed on whole blocks instead of gram islands (CCNet dedups
# paragraph hashes the same way before its LM scoring).
#
# Scale shape: paragraphs stream out as fixed-width (para_h, doc_id,
# para_idx, n_words) rows — text never shuffles. ONE bucketed exchange
# on para_h puts every occurrence of a paragraph in the same bucket,
# where the winner is the min (doc_id, para_idx) pair; the bucket then
# collapses to per-doc PARTIALS, and a second tiny exchange on doc_id
# sums them. Both exchanges move O(paragraphs) 32-byte rows.

_PARA_W = 8
_PARA_DEDUP_SQL = f"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                             x -> x <> '') AS words
  FROM documents),
p AS (
  SELECT doc_id,
         unnest(range(CAST(ceil(len(words) / {_PARA_W}.0) AS BIGINT)))
             AS para_idx,
         unnest([array_to_string(
                     words[i*{_PARA_W}+1:i*{_PARA_W}+{_PARA_W}], ' ')
                 for i in range(CAST(ceil(len(words) / {_PARA_W}.0)
                                     AS BIGINT))]) AS para,
         unnest([len(words[i*{_PARA_W}+1:i*{_PARA_W}+{_PARA_W}])
                 for i in range(CAST(ceil(len(words) / {_PARA_W}.0)
                                     AS BIGINT))]) AS nw
  FROM toks WHERE len(words) >= 1),
r AS (
  SELECT doc_id, nw,
         row_number() OVER (PARTITION BY para
                            ORDER BY doc_id, para_idx) AS rn
  FROM p)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_paras,
       CAST(sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_removed,
       CAST(sum(CASE WHEN rn = 1 THEN nw ELSE 0 END) AS BIGINT)
           AS n_words_kept
FROM r GROUP BY doc_id
"""


@register("repeated_paragraph_dedup", sql=_PARA_DEDUP_SQL)
def repeated_paragraph_dedup(sf_dir: str):
    docs = table_spread(sf_dir, "documents", ["doc_id", "text"])

    def para_rows(t: pa.Table) -> pa.Table:
        rx = _word_re()
        ids: list[int] = []
        idxs: list[int] = []
        hs: list[int] = []
        nws: list[int] = []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = rx.findall(text.lower())
            for i in range(0, len(toks), _PARA_W):
                block = toks[i : i + _PARA_W]
                ids.append(did)
                idxs.append(i // _PARA_W)
                hs.append(md5_u64_le(" ".join(block)))
                nws.append(len(block))
        h = np.fromiter(hs, dtype=np.uint64, count=len(hs)).view(np.int64)
        return pa.table(
            {
                "para_h": pa.array(h, pa.int64()),
                "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
                "para_idx": pa.array(np.asarray(idxs, dtype=np.int64)),
                "nw": pa.array(np.asarray(nws, dtype=np.int64)),
            }
        )

    paras = docs.map_batches(para_rows, batch_format="pyarrow")

    # bucket on para_h: every occurrence of one paragraph is in exactly
    # one bucket → winner = min (doc_id, para_idx); collapse to per-doc
    # partials before leaving the bucket (vectorized idxmin + masks)
    def bucket_winners(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["para_h", "doc_id", "para_idx"])
        first = ~g["para_h"].duplicated()
        kept_w = g["nw"].to_numpy() * first.to_numpy()
        out = pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_paras": 1,
                "n_removed": (~first).to_numpy().astype(np.int64),
                "n_words_kept": kept_w,
            }
        )
        return out.groupby("doc_id", as_index=False).sum()

    partials = bucketed_group_agg(paras, ["para_h"], bucket_winners)

    def sum_doc(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("doc_id", as_index=False).agg(
            n_paras=("n_paras", "sum"),
            n_removed=("n_removed", "sum"),
            n_words_kept=("n_words_kept", "sum"),
        )

    out = bucketed_group_agg(partials, ["doc_id"], sum_doc)

    def cast_out(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {c: pc.cast(t[c], pa.int64())
             for c in ("doc_id", "n_paras", "n_removed", "n_words_kept")}
        )

    return out.map_batches(cast_out, batch_format="pyarrow")


# --------------------------------------------------------------------------
# SemDeDup (Abbas et al. 2023): semantic near-dup pruning scoped to k-means
# clusters — the published recipe for deduplicating web-scale corpora by
# embedding similarity without an all-pairs pass. Cluster assignment
# reuses kmeans_embeddings' deterministic one-update Lloyd's fit
# (mlprep.kmeans_one_update_centroids, identical rounding, so the SQL
# oracle replays the same fit via the shared KMEANS_ASSIGN_CTE). Within a
# cluster, points are ordered by vec_id and a point is PRUNED iff some
# EARLIER point of its cluster has cosine ≥ τ to it (first-occurrence-wins,
# the repo-wide D1 convention, made order-insensitive by the id sort).
# Distributed shape: broadcast K×dim centroids → streamed assignment →
# ONE cluster-partitioned exchange → per-cluster blocked matmul. The
# pairwise work is bounded per cluster, which is the SemDeDup design
# point: K grows with the corpus so max cluster size stays fixed; the
# matmul is chunked so memory is cluster_rows × chunk, not cluster_rows².
# τ = 0.35 matches embedding_cosine_neardups (the synthetic embeddings
# carry no real near-dups, so the pairs threshold doubles as the prune
# threshold that actually exercises both branches).

SEMDEDUP_TAU = 0.35
_SEMDEDUP_CHUNK = 1024


@register(
    "semdedup_cluster_prune",
    sql=None,  # assembled below from the shared k-means CTE
)
def semdedup_cluster_prune(sf_dir: str):
    from .common import round_half_away
    from .mlprep import _kmeans_dists, kmeans_one_update_centroids

    cent1, ids1 = kmeans_one_update_centroids(sf_dir)
    ref = ray.put((cent1, ids1))

    def assign(df: pd.DataFrame, *, ref) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "cluster": pd.Series([], dtype="int64"),
                                 "embedding": pd.Series([], dtype="object")})
        c, ids = ray.get(ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        cl = ids[np.argmin(_kmeans_dists(m, c), axis=1)]
        return pd.DataFrame({"vec_id": df["vec_id"].to_numpy(np.int64),
                             "cluster": cl.astype(np.int64),
                             "embedding": df["embedding"]})

    assigned = table(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        assign, fn_kwargs={"ref": ref}, batch_format="pandas"
    )

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id").reset_index(drop=True)
        m = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        norms = np.sqrt((m * m).sum(axis=1))
        n = len(g)
        mc = np.full(n, -1.0)
        for j0 in range(0, n, _SEMDEDUP_CHUNK):
            j1 = min(j0 + _SEMDEDUP_CHUNK, n)
            if j0 == 0 and j1 == 1:
                continue
            # cos of every row i < j against columns [j0, j1)
            block = (m[: j1 - 1] @ m[j0:j1].T) / (
                norms[: j1 - 1, None] * norms[None, j0:j1]
            )
            block = round_half_away(block, 6)
            for j in range(max(j0, 1), j1):
                mc[j] = block[: j, j - j0].max()
        return pd.DataFrame(
            {"vec_id": g["vec_id"],
             "cluster": g["cluster"],
             "max_cos_earlier": mc,
             "keep": mc < SEMDEDUP_TAU}
        )

    return assigned.groupby("cluster").map_groups(
        prune, batch_format="pandas"
    )


def _semdedup_sql() -> str:
    from .mlprep import KMEANS_ASSIGN_CTE

    return f"""
    WITH {KMEANS_ASSIGN_CTE},
    v AS (SELECT a2.vec_id, a2.cl, CAST(e.embedding AS DOUBLE[]) AS emb
          FROM a2 JOIN embeddings e USING (vec_id)),
    dom AS (SELECT b.vec_id,
                   max(ROUND(list_cosine_similarity(a.emb, b.emb), 6)) AS mc
            FROM v a JOIN v b ON a.cl = b.cl AND a.vec_id < b.vec_id
            GROUP BY b.vec_id)
    SELECT v.vec_id, CAST(v.cl AS BIGINT) AS cluster,
           COALESCE(dom.mc, -1.0) AS max_cos_earlier,
           COALESCE(dom.mc, -1.0) < {SEMDEDUP_TAU} AS keep
    FROM v LEFT JOIN dom USING (vec_id)
    """


# attach the composed oracle once mlprep's shared CTE is importable (the
# deferred import avoids a dedup<->mlprep module cycle at package init)
from .queries import REGISTRY as _REGISTRY  # noqa: E402

_REGISTRY["semdedup_cluster_prune"]["sql"] = _semdedup_sql()
