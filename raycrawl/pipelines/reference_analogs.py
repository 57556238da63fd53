"""Reference-analog pipelines over the testdata tables.

These re-express the reference's *composite* pipelines (SURVEY.md §3) —
dump flatten/route, dictionary-based classification, location
normalization, iterative label propagation — with the same semantics
(4-way ref_type fallback, bidirectional substring first-match-wins,
majority vote with ties→unknown, argmax with margin) as Ray Data
pipelines over the driver's tables.
"""

from __future__ import annotations

import json

import pandas as pd
import pyarrow as pa
import ray
from ray.data.aggregate import Count

from ..ops import common
from ..ops.common import bucketed_group_agg, table
from ..ops.queries import register


# --------------------------------------------------------------------------
# M1/M2/M7 — dump record flatten with the 4-way ref_type fallback chain
# (PreprocessDump.py:283-332) + parse-error dead-lettering (:203-211).
# The nested JSON "dump" is synthesized deterministically from documents
# rows (variant = doc_id % 4; corrupt line when doc_id % 37 == 0), then the
# REAL parser runs the fallback chain; the SQL oracle states the expected
# semantics directly over the source columns.
@register(
    "dump_flatten_route_counts",
    sql="""
    SELECT CASE WHEN doc_id % 37 = 0 THEN '_parse_error'
                WHEN doc_id % 4 IN (0, 1) THEN 'retweet'
                WHEN doc_id % 4 = 2 THEN 'quote'
                ELSE 'none' END AS ref_type,
           CASE WHEN doc_id % 37 = 0 THEN '' ELSE lang END AS lang,
           count(*) AS n
    FROM documents GROUP BY 1, 2
    """,
)
def dump_flatten_route_counts(sf_dir: str):
    ds = table(sf_dir, "documents", ["doc_id", "lang", "text"])

    def build_dump(t: pa.Table) -> pa.Table:
        lines = []
        for doc_id, lang, text in zip(
            t["doc_id"].to_pylist(), t["lang"].to_pylist(), t["text"].to_pylist()
        ):
            if doc_id % 37 == 0:
                lines.append("{corrupt json line")
                continue
            base = {
                "created_at": "2024-01-01T00:00:00Z",
                "text": text[:40],
                "id": str(doc_id),
                "lang": lang,
                "user": {"id": str(doc_id * 7), "screen_name": f"u{doc_id}"},
            }
            v = doc_id % 4
            if v == 0:  # API-v2 shape
                base["referenced_tweets"] = [{"type": "retweeted", "id": "1"}]
            elif v == 1:  # v1 retweeted_status
                base["retweeted_status"] = {"id": "2"}
            elif v == 2:  # v1 quoted_status
                base["quoted_status"] = {"id": "3"}
            lines.append(json.dumps(base))
        return pa.table({"line": pa.array(lines, pa.string())})

    def flatten(t: pa.Table) -> pa.Table:
        ref_types, langs = [], []
        for line in t["line"].to_pylist():
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, ValueError):
                ref_types.append("_parse_error")  # dead-letter row, M7
                langs.append("")
                continue
            # 4-way fallback chain (v2 → v1 retweet → v1 quote → none)
            if "referenced_tweets" in rec:
                rt = rec["referenced_tweets"][0]["type"]
                ref_types.append("retweet" if rt == "retweeted" else "quote")
            elif "retweeted_status" in rec:
                ref_types.append("retweet")
            elif "quoted_status" in rec:
                ref_types.append("quote")
            else:
                ref_types.append("none")
            langs.append(rec.get("lang"))
        return pa.table(
            {
                "ref_type": pa.array(ref_types, pa.string()),
                "lang": pa.array(langs, pa.string()),
            }
        )

    return (
        ds.map_batches(build_dump, batch_format="pyarrow")
        .map_batches(flatten, batch_format="pyarrow")
        .groupby(["ref_type", "lang"])
        .aggregate(Count(alias_name="n"))
    )


# --------------------------------------------------------------------------
# M10/J2 — dictionary-based gender prediction with majority vote, over part
# names (names.csv analog). Bidirectional substring match
# (Postprocess_scripts/Functions.py:7-31), ties → 'unknown'.
NAME_DICT: list[tuple[str, str]] = [
    ("red", "M"),
    ("blue", "F"),
    ("small", "M"),
    ("hot", "F"),
    ("green", "M"),
    ("widget", "F"),
]


def _gender_sql() -> str:
    m_terms = " + ".join(
        f"(CASE WHEN contains(p_name, '{n}') OR contains('{n}', p_name) THEN 1 ELSE 0 END)"
        for n, g in NAME_DICT
        if g == "M"
    )
    f_terms = " + ".join(
        f"(CASE WHEN contains(p_name, '{n}') OR contains('{n}', p_name) THEN 1 ELSE 0 END)"
        for n, g in NAME_DICT
        if g == "F"
    )
    return f"""
    WITH scored AS (
      SELECT p_partkey, ({m_terms}) AS m, ({f_terms}) AS f FROM part)
    SELECT CASE WHEN m > f THEN 'M' WHEN f > m THEN 'F' ELSE 'unknown' END
             AS gender,
           count(*) AS n
    FROM scored GROUP BY 1
    """


@register("gender_dict_vote_counts", sql=_gender_sql())
def gender_dict_vote_counts(sf_dir: str):
    ds = table(sf_dir, "part", ["p_partkey", "p_name"])
    ref = ray.put(NAME_DICT)

    def vote(df: pd.DataFrame, *, ref) -> pd.DataFrame:
        names = ray.get(ref)  # broadcast dict (ST5), plasma-local per batch
        genders = []
        for name in df["p_name"]:
            m = sum(1 for n, g in names if g == "M" and (n in name or name in n))
            f = sum(1 for n, g in names if g == "F" and (n in name or name in n))
            genders.append("M" if m > f else "F" if f > m else "unknown")
        return pd.DataFrame({"gender": genders})

    return (
        ds.map_batches(vote, fn_kwargs={"ref": ref}, batch_format="pandas")
        .groupby("gender")
        .aggregate(Count(alias_name="n"))
    )


# --------------------------------------------------------------------------
# M14/J3 — location normalization: bidirectional substring match against an
# ordered {base: [abbrs]} dictionary, FIRST match in dict order wins
# (Cansin_Location_Detection.py:122-193 — order-sensitive by design).
# Messy location strings are derived deterministically from each customer's
# nation; the SQL oracle replays the same ordered CASE chain.
def _loc_messy_sql() -> str:
    return (
        "CASE WHEN c_custkey % 3 = 0 THEN lower(n_name) "
        "WHEN c_custkey % 3 = 1 THEN 'xx' || lower(n_name) || 'yy' "
        "ELSE 'n_' || CAST(c_nationkey AS VARCHAR) END"
    )


def _loc_norm_sql() -> str:
    # ordered first-match-wins CASE chain over NATION_0..NATION_24
    branches = []
    for k in range(25):
        base = f"NATION_{k}"
        lb = base.lower()
        cond = (
            f"contains(loc, '{lb}') OR contains('{lb}', loc)"
            f" OR contains(loc, 'n_{k}') OR contains('n_{k}', loc)"
        )
        branches.append(f"WHEN {cond} THEN '{base}'")
    chain = " ".join(branches)
    return f"""
    WITH locs AS (
      SELECT {_loc_messy_sql()} AS loc
      FROM customer JOIN nation ON c_nationkey = n_nationkey)
    SELECT CASE {chain} ELSE 'undetected' END AS normalized, count(*) AS n
    FROM locs GROUP BY 1
    """


@register("location_normalize_counts", sql=_loc_norm_sql())
def location_normalize_counts(sf_dir: str):
    nation = table(sf_dir, "nation").to_pandas()
    nmap = dict(zip(nation["n_nationkey"], nation["n_name"]))
    # ordered dict: base → abbr list (order IS the semantics)
    abbr_dict = [(f"NATION_{k}", [f"n_{k}"]) for k in range(25)]
    ref = ray.put((nmap, abbr_dict))

    def normalize(df: pd.DataFrame, *, ref) -> pd.DataFrame:
        nmap, abbr = ray.get(ref)
        out = []
        for ck, nk in zip(df["c_custkey"], df["c_nationkey"]):
            name = nmap[nk].lower()
            v = ck % 3
            loc = name if v == 0 else f"xx{name}yy" if v == 1 else f"n_{nk}"
            normalized = "undetected"
            for base, abbrs in abbr:  # first-match-wins, dict order
                lb = base.lower()
                if (
                    lb in loc
                    or loc in lb
                    or any(a in loc or loc in a for a in abbrs)
                ):
                    normalized = base
                    break
            out.append(normalized)
        return pd.DataFrame({"normalized": out})

    return (
        table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        .map_batches(normalize, fn_kwargs={"ref": ref}, batch_format="pandas")
        .groupby("normalized")
        .aggregate(Count(alias_name="n"))
    )


# --------------------------------------------------------------------------
# ST3/A3/A4/J4/J7/D3 — iterative graph label propagation with margin rule
# (Stance_Detection.py:116-233; the reference's while-loop at :302 is
# unsatisfiable — a bug NOT replicated here). Edges are derived from events
# (src = user_id, dst = props.k % 150 — the M7 JSON parse), seeds are users
# 0..8 labeled by id % 3. Each round every non-seed user takes the argmax
# label of its out-neighbors, applied only when max - runner_up >= margin.

# driver-pick winner gate: the partial-count pull is ≤ one row per edge,
# so this bounds the driver frame to a few hundred MB worst-case;
# bigger edge sets route winners through the bucketed exchange
_LP_DRIVER_PICK_MAX_EDGES = 5_000_000
# label-table entries up to which each round broadcasts the labels as a
# dict; past it the labels hash-join the edges
_LP_BROADCAST_MAX_LABELS = 1_000_000


def propagate_labels(
    edges: "ray.data.Dataset",
    seed_labels: dict[int, str],
    iterations: int = 5,
    margin: int = 2,
) -> pd.DataFrame:
    """Label-propagation rounds, Ray-scalable shape: the edge set stays a
    distributed Dataset for the whole loop. Each round attaches the
    neighbours' labels — via a BROADCAST vectorized ``Series.map`` while
    the label table fits (≤ ``_LP_BROADCAST_MAX_LABELS`` entries), via a
    hash-partitioned ``Dataset.join`` beyond that — then pre-aggregates
    per-block vote counts map-side and applies the argmax-with-margin
    rule (A4) with one vectorized cumcount/merge: driver-local while the
    EDGE count bounds the pulled partial stream
    (``_LP_DRIVER_PICK_MAX_EDGES``), inside a ``bucketed_group_agg``
    above it so only the ≤1-row-per-user WINNER table reaches the
    driver, never the vote matrix. Both winner paths are one shared
    function (identical by construction; 2M-user smoke drives the
    bucketed branch on real over-gate data)."""
    labels: dict[int, str] = dict(seed_labels)
    edges = edges.materialize()  # reused every round — pin once
    # the driver-pick fast path must be gated on EDGE volume, not label
    # count: the pulled per-block partials have up to one row per
    # (src, label) per block, and src cardinality is NOT bounded by the
    # label table (a billion unlabeled voters over a thousand labels
    # keeps len(labels) tiny while the partial stream is huge)
    n_edges = edges.count()
    # no edge, no vote: the seeds are the labels (an empty edge stream
    # also carries no columns for the vote stages to read)
    for _ in range(iterations if n_edges else 0):
        if common.gate("label_propagation", "labels", len(labels),
                       _LP_BROADCAST_MAX_LABELS):
            ref = ray.put(dict(labels))
            seed_ref = ray.put(set(seed_labels))

            def attach_vote(df: pd.DataFrame, *, lref, sref) -> pd.DataFrame:
                lab_map = ray.get(lref)  # plasma-local per batch
                seeds = ray.get(sref)
                lab = df["dst"].map(lab_map)  # vectorized dict lookup
                keep = lab.notna() & ~df["src"].isin(seeds)  # J7 guard
                return pd.DataFrame(
                    {
                        "src": df["src"][keep].astype("int64"),
                        "dst_label": lab[keep].astype(str),
                    }
                )

            voted = edges.map_batches(
                attach_vote, fn_kwargs={"lref": ref, "sref": seed_ref},
                batch_format="pandas",
            )
        else:  # label table too big to broadcast → distributed hash join
            label_ds = ray.data.from_pandas(
                pd.DataFrame(
                    {"dst": list(labels), "dst_label": list(labels.values())}
                )
            )
            seed_ref = ray.put(set(seed_labels))

            def drop_seed_edges(df: pd.DataFrame, *, sref) -> pd.DataFrame:
                # J7 guard, vectorized (Dataset.filter(fn) is per-row python)
                return df[~df["src"].isin(ray.get(sref))]

            voted = common.join(
                edges.map_batches(
                    drop_seed_edges, fn_kwargs={"sref": seed_ref},
                    batch_format="pandas",
                ),
                label_ds, "inner", ("dst",),
            ).select_columns(["src", "dst_label"])

        # map-side combiner: per-block (src, label) partial counts shrink
        # the exchange from one row per EDGE to ≤ users × labels rows
        def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
            return (
                df.groupby(["src", "dst_label"], as_index=False)
                .size().rename(columns={"size": "v"})
            )

        # A4 argmax-with-margin, vectorized across ALL srcs of a frame
        # (cumcount/merge at C speed — per-src python, whether map_groups
        # or a driver loop, scales with user count)
        def pick_winners(c: pd.DataFrame) -> pd.DataFrame:
            c = c.groupby(["src", "dst_label"], as_index=False)["v"].sum()
            c = c.sort_values(
                ["src", "v", "dst_label"], ascending=[True, False, True],
                kind="stable",
            )
            c["rank"] = c.groupby("src", sort=False).cumcount()
            top = c[c["rank"] == 0][["src", "dst_label", "v"]]
            sec = c[c["rank"] == 1][["src", "v"]].rename(
                columns={"v": "v2"}
            )
            m = top.merge(sec, on="src", how="left")
            ok = m["v2"].isna() | (m["v"] - m["v2"] >= margin)
            return (
                m[ok][["src", "dst_label"]]
                .rename(columns={"dst_label": "label"})
            )

        counts = voted.map_batches(partial_counts, batch_format="pandas")
        if common.gate("label_propagation", "edges", n_edges,
                       _LP_DRIVER_PICK_MAX_EDGES):
            # the pulled partial stream is ≤ one row per edge, so the
            # edge gate bounds driver memory by construction — ONE
            # driver-local vectorized pick beats a per-round Sort
            # exchange (~0.3 s of fixed all-to-all latency per
            # iteration at bench scale)
            winners = pick_winners(counts.to_pandas())
        else:
            # at scale the winner rule runs WHERE the votes live: each
            # hash bucket holds every partial of its srcs, and the driver
            # sees ≤1 row per user, never the vote matrix (smoke-proven
            # at a 1M-user edge set)
            winners = bucketed_group_agg(
                counts, ["src"], pick_winners
            ).to_pandas()
        if len(winners):
            old = winners["src"].map(labels)
            moved = winners[winners["label"] != old]
            changed = len(moved)
            labels.update(
                dict(zip(moved["src"].astype(int), moved["label"]))
            )
        else:
            changed = 0
        if changed == 0:
            break
    return pd.DataFrame(
        {"user_id": list(labels), "label": list(labels.values())}
    ).sort_values("user_id").reset_index(drop=True)


def _label_prop_sql(iterations: int = 5, margin: int = 2) -> str:
    """SQL oracle for the propagation rounds: because rounds are
    synchronous (votes read the PREVIOUS round's labels), the fixed-round
    unrolled form equals the engine's early-stopping loop — a converged
    round is the identity. Each round: votes = edges ⋈ labels (seeds never
    revote), winner per src by (v DESC, label ASC) with margin rule, next
    labels = seeds ∪ winners ∪ carried-over non-winners."""
    parts = [
        """edges AS (
      SELECT DISTINCT user_id AS src,
             TRY_CAST(json_extract_string(props, '$.k') AS BIGINT) % 150 AS dst
      FROM events
      WHERE TRY_CAST(json_extract_string(props, '$.k') AS BIGINT) IS NOT NULL
    ),
    seeds(u, lab) AS (
      SELECT u, 'label' || CAST(u % 3 AS VARCHAR) FROM range(9) t(u)
    ),
    l0 AS (SELECT u, lab FROM seeds)"""
    ]
    for i in range(iterations):
        parts.append(f"""votes{i} AS (
      SELECT e.src, l.lab AS dst_label, count(*) AS v
      FROM edges e JOIN l{i} l ON l.u = e.dst
      WHERE e.src NOT IN (SELECT u FROM seeds)
      GROUP BY e.src, l.lab
    ),
    win{i} AS (
      SELECT src AS u, dst_label AS lab FROM (
        SELECT src, dst_label, v,
               ROW_NUMBER() OVER (PARTITION BY src
                                  ORDER BY v DESC, dst_label) AS r,
               COUNT(*) OVER (PARTITION BY src) AS n,
               LEAD(v) OVER (PARTITION BY src
                             ORDER BY v DESC, dst_label) AS v2
        FROM votes{i})
      WHERE r = 1 AND (n = 1 OR v - v2 >= {margin})
    ),
    l{i + 1} AS (
      SELECT u, lab FROM seeds
      UNION ALL SELECT u, lab FROM win{i}
      UNION ALL SELECT u, lab FROM l{i}
        WHERE u NOT IN (SELECT u FROM seeds)
          AND u NOT IN (SELECT u FROM win{i})
    )""")
    return (
        "WITH " + ",\n    ".join(parts)
        + f"\n    SELECT u AS user_id, lab AS label FROM l{iterations}"
    )


@register("label_propagation", sql=_label_prop_sql())
def label_propagation(sf_dir: str):
    ds = table(sf_dir, "events", ["user_id", "props"])

    def parse_edges(t: pa.Table) -> pa.Table:
        srcs, dsts = [], []
        for uid, props in zip(t["user_id"].to_pylist(), t["props"].to_pylist()):
            try:
                k = json.loads(props)["k"]
            except (json.JSONDecodeError, KeyError, TypeError):
                continue  # M7 error-skip
            srcs.append(uid)
            dsts.append(k % 150)
        return pa.table(
            {"src": pa.array(srcs, pa.int64()), "dst": pa.array(dsts, pa.int64())}
        ).group_by(["src", "dst"]).aggregate([])  # map-side dedup

    edges = bucketed_group_agg(
        ds.map_batches(parse_edges, batch_format="pyarrow"),
        ["src", "dst"],
        lambda g: g.drop_duplicates(),
    )
    seeds = {u: f"label{u % 3}" for u in range(9)}
    return propagate_labels(edges, seeds)
