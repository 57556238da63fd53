"""Session-8 batch B: PMI collocations, vocabulary richness, Hamming kNN,
feature-hash bucket stats, triangle counting — oracle parity plus direct
numeric ground-truth recomputes the value-hash cannot see."""

import re
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"

NEW_OPS = [
    "pmi_top_bigrams",
    "doc_vocab_richness",
    "doc_hamming_knn",
    "feature_hash_bucket_stats",
    "triangle_count_cosuppliers",
]


@pytest.mark.parametrize("name", NEW_OPS)
def test_new_ops_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _texts():
    import pyarrow.dataset as pads

    return (
        pads.dataset(f"{SF}/documents.parquet")
        .to_table(columns=["doc_id", "text"])
        .to_pandas()
    )


def test_pmi_value_matches_direct_recompute(ray_session):
    """Recompute PMI for the reported top pair from raw token streams."""
    df = run_query("pmi_top_bigrams", SF)
    texts = _texts()
    toks = [re.findall("[a-z0-9]+", t.lower()) for t in texts["text"]]
    uni = Counter(w for ws in toks for w in ws)
    big = Counter((ws[i], ws[i + 1]) for ws in toks for i in range(len(ws) - 1))
    nu = sum(uni.values())
    nb = sum(big.values())
    top = df.iloc[0]
    c12 = big[(top["w1"], top["w2"])]
    assert c12 == top["n_pair"]
    pmi = np.log(
        (c12 / nb) / ((uni[top["w1"]] / nu) * (uni[top["w2"]] / nu))
    )
    assert abs(pmi - top["pmi"]) < 1e-6
    # all reported pairs meet the support floor and are sorted by pmi desc
    assert (df["n_pair"] >= 5).all()
    assert (np.diff(df["pmi"].to_numpy()) <= 1e-12).all()


def test_vocab_richness_matches_python(ray_session):
    df = run_query("doc_vocab_richness", SF).set_index("doc_id")
    texts = _texts()
    for _, row in texts.head(20).iterrows():
        ws = re.findall("[a-z0-9]+", row["text"].lower())
        if not ws:
            assert row["doc_id"] not in df.index
            continue
        c = Counter(ws)
        got = df.loc[row["doc_id"]]
        assert got["n_tokens"] == len(ws)
        assert got["n_distinct"] == len(c)
        assert got["n_hapax"] == sum(1 for v in c.values() if v == 1)
        assert abs(got["ttr"] - len(c) / len(ws)) < 5.1e-7


def test_hamming_knn_matches_bruteforce(ray_session):
    from raycrawl.ops.common import md5_u64_le
    from raycrawl.ops.textstats import _KNN_K, _KNN_Q

    df = run_query("doc_hamming_knn", SF)
    texts = _texts()
    fps = {
        int(r["doc_id"]): md5_u64_le(" ".join(r["text"].lower().split()))
        for _, r in texts.iterrows()
    }
    qids = sorted(fps)[:_KNN_Q]
    assert sorted(df["qid"].unique()) == qids
    for qid in qids[:3]:
        cand = sorted(
            (bin(fps[qid] ^ f).count("1"), did)
            for did, f in fps.items()
            if did != qid
        )[:_KNN_K]
        got = df[df["qid"] == qid].sort_values(["hamming", "neighbor_id"])
        assert list(got["hamming"]) == [c[0] for c in cand]
        assert list(got["neighbor_id"]) == [c[1] for c in cand]


def test_feature_hash_conserves_tokens(ray_session):
    """Bucket sums must conserve the corpus: Σ occurrences == total tokens,
    Σ distinct == vocabulary size."""
    df = run_query("feature_hash_bucket_stats", SF)
    texts = _texts()
    toks = [w for t in texts["text"] for w in re.findall("[a-z0-9]+", t.lower())]
    assert df["n_occurrences"].sum() == len(toks)
    assert df["n_distinct_tokens"].sum() == len(set(toks))
    assert df["bucket"].between(0, 255).all()


def test_triangle_count_matches_bruteforce(ray_session):
    import duckdb

    got = run_query("triangle_count_cosuppliers", SF).iloc[0]
    edges = duckdb.sql(
        f"""SELECT DISTINCT a.l_suppkey AS s, b.l_suppkey AS d
        FROM read_parquet('{SF}/lineitem.parquet') a
        JOIN read_parquet('{SF}/lineitem.parquet') b
          ON a.l_partkey = b.l_partkey AND a.l_suppkey < b.l_suppkey"""
    ).df()
    es = set(zip(edges["s"], edges["d"]))
    adj = {}
    for s, d in es:
        adj.setdefault(s, set()).add(d)
    tri = sum(
        1
        for (a, b) in es
        for c in adj.get(b, ())
        if (a, c) in es
    )
    assert got["n_edges"] == len(es)
    assert got["n_triangles"] == tri


def test_pmi_paths_equivalent(ray_session, force_gates):
    """Forcing the vocab gate to the partitioned side must flip PMI onto
    the two-hash-join branch with identical rows."""
    from raycrawl.ops.textstats import pmi_top_bigrams

    def run():
        df = pmi_top_bigrams(SF).to_pandas()
        return df.sort_values(["w1", "w2"]).reset_index(drop=True)

    a = run()
    assert force_gates.sides("pmi_top_bigrams") == {"vocab": True}
    force_gates(False, "vocab")
    b = run()
    assert force_gates.sides("pmi_top_bigrams") == {"vocab": False}
    pd.testing.assert_frame_equal(a, b)


def test_cosupplier_edges_paths_equivalent(ray_session, force_gates):
    """The bitset edge builder must produce the exact edge set of the
    self-join path."""
    from raycrawl.ops.graphops import cosupplier_edges

    def run():
        return (
            cosupplier_edges(SF).to_pandas()
            .sort_values(["src", "dst"]).reset_index(drop=True)
        )

    a = run()
    assert force_gates.sides("cosupplier_edges") == {"supplier": True}
    force_gates(False, "supplier")
    b = run()
    assert force_gates.sides("cosupplier_edges") == {"supplier": False}
    pd.testing.assert_frame_equal(a, b)


def test_triangle_paths_equivalent(ray_session, force_gates):
    """Forcing the bitset gate to the partitioned side must flip onto the
    distributed wedge-join branch with identical counts."""
    from raycrawl.ops.graphops import triangle_count_cosuppliers

    op = "triangle_count_cosuppliers"
    a = triangle_count_cosuppliers(SF).to_pandas()
    assert force_gates.sides(op) == {"nodes": True}
    force_gates(False, "nodes")
    b = triangle_count_cosuppliers(SF).to_pandas()
    assert force_gates.sides(op) == {"nodes": False}
    pd.testing.assert_frame_equal(a, b)
