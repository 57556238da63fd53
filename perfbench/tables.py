"""Seeded generator for the query_mix input tables.

Writes the ten tables the registry queries read (``region nation customer
supplier part orders lineitem events documents embeddings``, one parquet
file each) with the column names, types and value distributions of the
repository's TPC-H-like test tables, so every registry query and its SQL
oracle run unchanged on them. One scale factor always gives
byte-identical tables: the generator's seed is fixed.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SEED = 42
# the generator's code: a table set written by other code is not reused
with open(__file__, "rb") as _f:
    SOURCE_KEY = hashlib.sha1(_f.read()).hexdigest()[:12]

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_ADJ = ["large", "hot", "blue", "old", "cold", "red", "small", "new"]
_NOUN = ["ring", "bolt", "plate", "gear", "widget", "rod", "anvil", "gizmo"]
_PTYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_LANGS = ["en", "zh", "es", "fr", "de"]
_LANG_P = [0.41, 0.15, 0.15, 0.15, 0.14]
_WORDS = ("spark window merge table column vector stream value data small "
          "join filter big group hash customer sort order slow line part "
          "fast the row agg key query a scan batch").split()


def _days(rng, lo: str, hi: str, n: int) -> np.ndarray:
    a, b = np.datetime64(lo, "D"), np.datetime64(hi, "D")
    off = rng.integers(0, int((b - a).astype(int)) + 1, n)
    return (a + off).astype("datetime64[us]")


def _money(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def generate(sf: float) -> dict[str, pa.Table]:
    """All ten tables at scale factor ``sf`` (sf=0.01 gives 60,000
    lineitem rows), drawn from one ``numpy`` generator seeded by ``SEED``."""
    rng = np.random.default_rng(SEED)
    n_cust = max(150, int(150_000 * sf))
    n_supp = max(20, int(10_000 * sf))
    n_part = max(200, int(200_000 * sf))
    n_ord = max(1_500, int(1_500_000 * sf))
    n_li = max(6_000, int(6_000_000 * sf))
    n_ev = max(1_000, int(1_000_000 * sf))
    n_users = max(20, int(15_000 * sf))
    n_docs = max(100, int(50_000 * sf))
    n_emb = max(100, int(20_000 * sf))

    out: dict[str, pa.Table] = {}
    out["region"] = pa.table({
        "r_regionkey": pa.array(np.arange(5), pa.int32()),
        "r_name": _REGIONS,
    })
    out["nation"] = pa.table({
        "n_nationkey": pa.array(np.arange(25), pa.int32()),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
    })
    out["customer"] = pa.table({
        "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        "c_acctbal": _money(rng, -999.99, 9999.99, n_cust),
        "c_mktsegment": np.array(_SEGMENTS)[rng.integers(0, 5, n_cust)],
    })
    out["supplier"] = pa.table({
        "s_suppkey": pa.array(np.arange(n_supp), pa.int64()),
        "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
        "s_nationkey": pa.array(rng.integers(0, 25, n_supp), pa.int32()),
        "s_acctbal": _money(rng, -999.99, 9999.99, n_supp),
    })
    pk = np.arange(n_part)
    out["part"] = pa.table({
        "p_partkey": pa.array(pk, pa.int64()),
        "p_name": [f"{_ADJ[a]} {_NOUN[b]}" for a, b in
                   zip(rng.integers(0, 8, n_part), rng.integers(0, 8, n_part))],
        "p_brand": [f"Brand#{b}" for b in rng.integers(1, 26, n_part)],
        "p_type": np.array(_PTYPES)[rng.integers(0, 6, n_part)],
        "p_size": pa.array(rng.integers(1, 51, n_part), pa.int32()),
        "p_retailprice": np.round(900.0 + (pk % 1000) * 0.1, 1),
    })
    out["orders"] = pa.table({
        "o_orderkey": pa.array(np.arange(n_ord), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_ord), pa.int64()),
        "o_orderstatus": np.array(["F", "O", "P"])[rng.integers(0, 3, n_ord)],
        "o_totalprice": _money(rng, 1000.0, 500_000.0, n_ord),
        "o_orderdate": _days(rng, "1995-01-01", "2001-08-01", n_ord),
        "o_orderpriority": np.array(_PRIORITIES)[rng.integers(0, 5, n_ord)],
    })
    out["lineitem"] = pa.table({
        "l_orderkey": pa.array(rng.integers(0, n_ord, n_li), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, n_part, n_li), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, n_supp, n_li), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, n_li), pa.int32()),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": _money(rng, 900.0, 105_000.0, n_li),
        "l_discount": rng.integers(0, 11, n_li) / 100.0,
        "l_tax": rng.integers(0, 9, n_li) / 100.0,
        "l_returnflag": np.array(["A", "N", "R"])[rng.integers(0, 3, n_li)],
        "l_linestatus": np.array(["F", "O"])[rng.integers(0, 2, n_li)],
        "l_shipdate": _days(rng, "1995-01-02", "2001-11-04", n_li),
    })
    # one event stream over January 2024, in timestamp order
    span_us = 30 * 86_400 * 1_000_000
    ts = np.sort(rng.integers(0, span_us, n_ev))
    out["events"] = pa.table({
        "event_id": pa.array(np.arange(n_ev), pa.int64()),
        "ts": np.datetime64("2024-01-01", "us") + ts.astype("timedelta64[us]"),
        "user_id": pa.array(rng.integers(0, n_users, n_ev), pa.int64()),
        "event_type": np.array(_EVENT_TYPES)[rng.integers(0, 5, n_ev)],
        "value": np.round(rng.exponential(50.0, n_ev), 2),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)],
    })
    # documents: random word strings; ~5% are near-duplicates of an
    # earlier document (its text plus the token "dup"), a few are exact
    words = np.array(_WORDS)
    texts: list[str] = []
    for i in range(n_docs):
        r = rng.random()
        if i > 10 and r < 0.05:
            texts.append(texts[rng.integers(0, i)] + " dup")
        elif i > 10 and r < 0.052:
            texts.append(texts[rng.integers(0, i)])
        else:
            texts.append(" ".join(words[rng.integers(0, len(words),
                                                     rng.integers(10, 101))]))
    out["documents"] = pa.table({
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "text": texts,
        "lang": np.array(_LANGS)[rng.choice(5, n_docs, p=_LANG_P)],
        "source": [f"src{i % 20}" for i in range(n_docs)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    # embeddings: unit vectors around one centroid per label
    labels = rng.integers(0, 10, n_emb)
    cent = rng.normal(0.0, 1.0, (10, 64))
    x = cent[labels] + rng.normal(0.0, 1.0, (n_emb, 64))
    x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
    out["embeddings"] = pa.table({
        "vec_id": pa.array(np.arange(n_emb), pa.int64()),
        "embedding": pa.array(list(x), pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    return out


def write_tables(out_dir: str, sf: float) -> str:
    """Materialize the table set once per ``sf`` and generator source
    under ``out_dir`` and return its directory; an existing complete set
    is reused."""
    d = os.path.join(out_dir, f"sf={sf}-{SOURCE_KEY}")
    done = os.path.join(d, "COMPLETE")
    if os.path.exists(done):
        return d
    os.makedirs(d, exist_ok=True)
    for name, t in generate(sf).items():
        pq.write_table(t, os.path.join(d, f"{name}.parquet"))
    with open(done, "w") as f:
        f.write("ok\n")
    return d
