"""Distributed graph analytics over a relationally-derived edge list.

PageRank with unrolled power iterations — the canonical "state flows
along distributed edges" shape shared with
``pipelines.reference_analogs.propagate_labels``: the edge Dataset stays
distributed for the whole loop. The node-sized rank table is broadcast
to map tasks while it fits (≤ ``BROADCAST_NODE_THRESHOLD`` nodes,
driver-held dict); beyond that it stays a distributed Dataset and each
iteration is a hash-partitioned ``Dataset.join`` + grouped sum — no
node-sized state ever lands on the driver. Both paths are equivalence-tested.

Graph: the co-supplier graph of ``lineitem`` — an edge (a, b) whenever
suppliers a ≠ b both ship some part. Partitioning assumption: supplier
fan-in per part is bounded (TPC-H: ≤ a handful), so the per-part pair
expansion is O(s²) with small s; a part with pathological fan-in would
need salting before the expansion.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


from . import common
from .common import (
    bucketed_group_agg,
    combine_small,
    join_partitions,
    round_half_away,
    table,
    table_num_rows,
)
from .queries import register

DAMPING = 0.85
ITERATIONS = 3
BROADCAST_NODE_THRESHOLD = 1_000_000

_PAGERANK_SQL = """
WITH edges AS (
  SELECT DISTINCT a.l_suppkey AS src, b.l_suppkey AS dst
  FROM lineitem a JOIN lineitem b
    ON a.l_partkey = b.l_partkey AND a.l_suppkey <> b.l_suppkey),
nodes AS (SELECT DISTINCT src AS node FROM edges
          UNION SELECT DISTINCT dst FROM edges),
deg AS (SELECT src, count(*) AS outd FROM edges GROUP BY src),
nn AS (SELECT count(*) AS n FROM nodes),
r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS rank FROM nodes),
r1 AS (SELECT n.node,
              0.15 / (SELECT n FROM nn)
              + 0.85 * COALESCE(SUM(r0.rank / d.outd), 0) AS rank
       FROM nodes n
       LEFT JOIN edges e ON e.dst = n.node
       LEFT JOIN r0 ON r0.node = e.src
       LEFT JOIN deg d ON d.src = e.src
       GROUP BY n.node),
r2 AS (SELECT n.node,
              0.15 / (SELECT n FROM nn)
              + 0.85 * COALESCE(SUM(r1.rank / d.outd), 0) AS rank
       FROM nodes n
       LEFT JOIN edges e ON e.dst = n.node
       LEFT JOIN r1 ON r1.node = e.src
       LEFT JOIN deg d ON d.src = e.src
       GROUP BY n.node),
r3 AS (SELECT n.node,
              0.15 / (SELECT n FROM nn)
              + 0.85 * COALESCE(SUM(r2.rank / d.outd), 0) AS rank
       FROM nodes n
       LEFT JOIN edges e ON e.dst = n.node
       LEFT JOIN r2 ON r2.node = e.src
       LEFT JOIN deg d ON d.src = e.src
       GROUP BY n.node)
SELECT CAST(node AS BIGINT) AS node, ROUND(rank, 9) AS rank FROM r3
"""


# supplier-dimension gate for the bitset edge builder: one adjacency
# bitset partial per bucket is nodes × nodes/8 bytes (2048 → 512 KB),
# so the partial stream stays trivially small; past the gate the matrix
# outgrows a sane broadcast/partial and the self-join path runs.
COSUP_BITSET_MAX_NODES = 2_048


def cosupplier_edges(
    sf_dir: str,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Distinct (src, dst) supplier pairs sharing a part — both directions,
    no self-loops.

    Two adaptive shapes, picked by the ``supplier`` gate:

    * **bitset** (suppliers ≤ gate): one bucketed exchange on the part key
      moves the in-block-deduped 9-B (part, supp) rows; each bucket folds
      its parts into a packed adjacency BITSET (per-part OR of the
      supplier mask — idempotent, so cross-block duplicates are free) and
      emits ≤ nodes rows of (src, 256-B bits); the driver ORs ≤ buckets ×
      nodes tiny rows and expands the matrix to the edge table. On the
      complete 1,000-supplier graph at sf0.1 this replaced a self-join
      that expanded ~18M pre-dedup pair rows: 22.9 s → ~3 s.
    * **join** (above the gate): per-block pre-dedup → one global (part,
      supp) distinct → hash self-join → one pair dedup. Three shuffles,
      each moving ~16-byte rows. (A groupby(part).map_groups pair
      expansion is the intuitive shape but pays per-group task overhead —
      2k part groups cost ~100 s on this node.)
    """
    if num_partitions is None:
        num_partitions = join_partitions()
    li = table(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    if common.gate("cosupplier_edges", "supplier",
                   table_num_rows(sf_dir, "supplier"), COSUP_BITSET_MAX_NODES):
        import pyarrow.dataset as pads

        keys = np.sort(
            pads.dataset(f"{sf_dir}/supplier.parquet")
            .to_table(columns=["s_suppkey"])["s_suppkey"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        words = (len(keys) + 63) // 64

        def dedup_block(t: pa.Table) -> pa.Table:
            return (
                pa.TableGroupBy(t, ["l_partkey", "l_suppkey"])
                .aggregate([])
                .rename_columns(["l_partkey", "l_suppkey"])
            )

        def to_bits(g: pd.DataFrame) -> pd.DataFrame:
            idx = np.searchsorted(
                keys, g["l_suppkey"].to_numpy(np.int64)
            )
            pinv = np.unique(
                g["l_partkey"].to_numpy(np.int64), return_inverse=True
            )[1]
            order = np.argsort(pinv, kind="stable")
            si, sp = idx[order], pinv[order]
            bounds = np.searchsorted(sp, np.arange(sp.max() + 2 if len(sp) else 1))
            bits = np.zeros((len(keys), words), np.uint64)
            for k in range(len(bounds) - 1):
                v = np.unique(si[bounds[k]:bounds[k + 1]])
                if len(v) < 2:
                    continue
                mask = np.zeros(words, np.uint64)
                np.bitwise_or.at(
                    mask, v // 64, np.uint64(1) << (v % 64).astype(np.uint64)
                )
                bits[v] |= mask
            nz = np.nonzero(bits.any(axis=1))[0]
            return pd.DataFrame(
                {"src": nz.astype(np.int64),
                 "bits": [bits[i].tobytes() for i in nz]}
            )

        partials = bucketed_group_agg(
            li.map_batches(dedup_block, batch_format="pyarrow"),
            ["l_partkey"],
            to_bits,
        )

        def expand(t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            acc = np.zeros((len(keys), words), np.uint64)
            for src, raw in zip(df["src"].to_numpy(np.int64), df["bits"]):
                acc[src] |= np.frombuffer(raw, np.uint64)
            # clear the diagonal (self-bit set by the per-part mask)
            d = np.arange(len(keys))
            acc[d, d // 64] &= ~(np.uint64(1) << (d % 64).astype(np.uint64))
            flat = np.unpackbits(
                acc.view(np.uint8), axis=1, bitorder="little"
            )[:, : len(keys)]
            i, j = np.nonzero(flat)
            return pa.table(
                {"src": pa.array(keys[i]), "dst": pa.array(keys[j])}
            )

        edge_tbl = combine_small(partials, expand)
        # one zero-copy slice per CPU (≥ 8) as the blocks: no exchange
        k = max(8, int(ray.cluster_resources().get("CPU", 8)))
        step = max(1, -(-edge_tbl.num_rows // k))
        return ray.data.from_arrow([edge_tbl.slice(lo, step) for lo in
                                    range(0, max(1, edge_tbl.num_rows), step)])

    def batch_distinct(t: pa.Table) -> pa.Table:
        # in-block pre-dedup: collapses the ~|lineitem| stream to
        # ≤ distinct (part, supp) pairs per block before the shuffle
        return (
            pa.TableGroupBy(t, ["l_partkey", "l_suppkey"])
            .aggregate([])
            .rename_columns(["l_partkey", "l_suppkey"])
        )

    # (part, supp) is near-unique → bucket-sharded distinct (common.py)
    ps = bucketed_group_agg(
        li.map_batches(batch_distinct, batch_format="pyarrow"),
        ["l_partkey", "l_suppkey"],
        lambda g: g.drop_duplicates(["l_partkey", "l_suppkey"]),
    )
    right = ps.map_batches(
        lambda t: t.rename_columns(["part_r", "dst"]), batch_format="pyarrow"
    )
    pairs = ps.join(
        right,
        join_type="inner",
        num_partitions=num_partitions,
        on=("l_partkey",),
        right_on=("part_r",),
    )

    def off_diagonal(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.not_equal(t["l_suppkey"], t["dst"]))
        return pa.table({"src": keep["l_suppkey"], "dst": keep["dst"]})

    # distinct edges via the same bucket-sharded shape
    return bucketed_group_agg(
        pairs.map_batches(off_diagonal, batch_format="pyarrow"),
        ["src", "dst"],
        lambda g: g.drop_duplicates(["src", "dst"]),
    )


def _node_degrees(edges: ray.data.Dataset) -> ray.data.Dataset:
    """(node, outd) for every node of the graph in ONE shuffle: each block
    emits partial out-degree counts by src plus zero-count rows for its
    distinct dsts (so sink nodes of an asymmetric graph still appear);
    a single grouped sum merges them."""

    def partial(t: pa.Table) -> pa.Table:
        src_part = (
            pa.TableGroupBy(t, "src")
            .aggregate([([], "count_all")])
            .rename_columns(["node", "outd"])
        )
        dst_nodes = pc.unique(t["dst"])
        dst_part = pa.table(
            {
                "node": dst_nodes,
                "outd": pa.array([0] * len(dst_nodes), pa.int64()),
            }
        )
        return pa.concat_tables(
            [src_part.set_column(1, "outd", pc.cast(src_part["outd"], pa.int64())),
             dst_part]
        )

    # node is near-unique → bucket-sharded grouped sum (common.py)
    return bucketed_group_agg(
        edges.map_batches(partial, batch_format="pyarrow"),
        ["node"],
        lambda g: g.groupby("node", as_index=False).agg(outd=("outd", "sum")),
    )


def pagerank(
    edges: ray.data.Dataset,
    iterations: int = ITERATIONS,
    damping: float = DAMPING,
    num_partitions: int | None = None,
):
    """Unrolled PageRank power iterations over a distributed edge Dataset.

    Returns (node, rank) with rank rounded to 9 decimals — the
    contribution-sum order differs from a serial engine by ≤ a few ulp,
    far inside the rounding grain. Broadcast regime returns a pandas
    DataFrame (node table is ≤ threshold by definition); the join regime
    returns a Dataset and never materializes node-sized state.
    """
    if num_partitions is None:
        num_partitions = join_partitions()
    edges = edges.materialize()  # reused every iteration — pin once
    deg_ds = _node_degrees(edges)
    n = deg_ds.count()
    teleport = (1.0 - damping) / n

    if common.gate("pagerank", "nodes", n, BROADCAST_NODE_THRESHOLD):
        deg_tbl = combine_small(deg_ds, lambda t: t)
        deg = dict(
            zip(deg_tbl["node"].to_pylist(), deg_tbl["outd"].to_pylist())
        )
        nodes = sorted(deg)
        ranks = {v: 1.0 / n for v in nodes}
        for _ in range(iterations):
            state_ref = ray.put((dict(ranks), deg))

            def contrib(t: pa.Table, *, ref) -> pa.Table:
                rk, dg = ray.get(ref)  # plasma-local per batch
                src = t["src"].to_numpy(zero_copy_only=False)
                dst = t["dst"].to_numpy(zero_copy_only=False)
                w = np.array([rk[s] / dg[s] for s in src], dtype=np.float64)
                part = (
                    pd.DataFrame({"dst": dst, "c": w})
                    .groupby("dst", as_index=False)["c"]
                    .sum()
                )
                return pa.Table.from_pandas(part, preserve_index=False)

            partial = edges.map_batches(
                contrib, fn_kwargs={"ref": state_ref}, batch_format="pyarrow"
            )
            combined = combine_small(
                partial,
                lambda t: pa.TableGroupBy(t, "dst")
                .aggregate([("c", "sum")])
                .rename_columns(["dst", "c"]),
            )
            sums = dict(
                zip(combined["dst"].to_pylist(), combined["c"].to_pylist())
            )
            ranks = {v: teleport + damping * sums.get(v, 0.0) for v in nodes}
        return pd.DataFrame(
            {
                "node": pd.array(nodes, dtype="int64"),
                "rank": round_half_away([ranks[v] for v in nodes], 9),
            }
        )

    # ---- join regime: rank state stays a distributed Dataset ----------
    rank_ds = deg_ds.map_batches(
        lambda t: t.append_column(
            "rank", pa.array([1.0 / n] * t.num_rows, pa.float64())
        ),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(iterations):
        joined = edges.join(
            rank_ds,
            join_type="inner",
            num_partitions=num_partitions,
            on=("src",),
            right_on=("node",),
        )

        def jcontrib(t: pa.Table) -> pa.Table:
            c = pc.divide(
                pc.cast(t["rank"], pa.float64()),
                pc.cast(t["outd"], pa.float64()),
            )
            out = pa.table({"dst": t["dst"], "c": c})
            return (
                pa.TableGroupBy(out, "dst")
                .aggregate([("c", "sum")])
                .rename_columns(["dst", "c"])
            )

        sums = bucketed_group_agg(
            joined.map_batches(jcontrib, batch_format="pyarrow"),
            ["dst"],
            lambda g: g.groupby("dst", as_index=False).agg(c=("c", "sum")),
        )
        # left-join back onto the full node set: dangling-dst nodes get
        # teleport only
        merged = deg_ds.join(
            sums,
            join_type="left_outer",
            num_partitions=num_partitions,
            on=("node",),
            right_on=("dst",),
        )

        def apply_rank(t: pa.Table) -> pa.Table:
            c = pc.fill_null(pc.cast(t["c"], pa.float64()), 0.0)
            rank = pc.add(
                pc.multiply(c, pa.scalar(damping)), pa.scalar(teleport)
            )
            return pa.table(
                {"node": t["node"], "outd": t["outd"], "rank": rank}
            )

        rank_ds = merged.map_batches(
            apply_rank, batch_format="pyarrow"
        ).materialize()

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pc.cast(t["node"], pa.int64()),
                "rank": pa.array(
                    round_half_away(
                        t["rank"].to_numpy(zero_copy_only=False), 9
                    )
                ),
            }
        )

    return rank_ds.map_batches(finalize, batch_format="pyarrow")


@register("pagerank_cosuppliers", sql=_PAGERANK_SQL)
def pagerank_cosuppliers(sf_dir: str):
    return pagerank(cosupplier_edges(sf_dir))


# --------------------------------------------------------------------------
# Triangle counting over the co-supplier graph — the classic two-hash-join
# shape: orient every undirected edge low→high (each triangle becomes
# exactly one a<b<c path), join edges to edges on the middle node to build
# wedges, then close each wedge against the edge set with a composite-key
# join. Counts are per-block partials (one row per block), so the only
# wide moves are the two edge-keyed exchanges; the fact table behind the
# edges never re-shuffles (cosupplier_edges already collapsed it).
_TRIANGLE_SQL = """
WITH e AS (
  SELECT DISTINCT a.l_suppkey AS src, b.l_suppkey AS dst
  FROM lineitem a JOIN lineitem b
    ON a.l_partkey = b.l_partkey AND a.l_suppkey < b.l_suppkey),
w AS (SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
      FROM e e1 JOIN e e2 ON e1.dst = e2.src),
t AS (SELECT 1 FROM w JOIN e ON w.a = e.src AND w.c = e.dst)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM e) AS n_edges,
       (SELECT CAST(count(*) AS BIGINT) FROM w) AS n_wedges,
       (SELECT CAST(count(*) AS BIGINT) FROM t) AS n_triangles
"""


# Adaptive execution: below TRIANGLE_BITSET_MAX_NODES the oriented edge
# set (dimension-bounded: suppliers sharing parts) broadcasts as a packed
# adjacency BITSET matrix and each edge's triangle closure is one
# vectorized AND+popcount — measured 96 s (wedge join, ~10^8 wedge rows)
# vs ~5 s at 1,000 nodes. Above the gate (|V|² bits outgrow a broadcast)
# the two-hash-join wedge-close shape runs distributed. Path equivalence
# pytested with the gate forced partitioned.
TRIANGLE_BITSET_MAX_NODES = 16_384  # 16k² bits = 32 MB broadcast matrix


@register("triangle_count_cosuppliers", sql=_TRIANGLE_SQL)
def triangle_count_cosuppliers(sf_dir: str):
    def orient(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.less(t["src"], t["dst"]))
        return pa.table({"src": keep["src"], "dst": keep["dst"]})

    # cosupplier_edges emits both directions distinct -> the < filter keeps
    # exactly one copy of each undirected edge. materialize: the oriented
    # edge table is reused by every consumer and is bounded by distinct
    # co-supplier pairs (a dimension-scale table, never the fact stream).
    edges = (
        cosupplier_edges(sf_dir)
        .map_batches(orient, batch_format="pyarrow")
        .materialize()
    )
    n_edges = edges.count()

    # node universe from the edge table (bounded)
    import numpy as np

    deg = edges.to_pandas()  # dimension-bounded by the materialize above
    nodes = np.unique(
        np.concatenate([deg["src"].to_numpy(np.int64),
                        deg["dst"].to_numpy(np.int64)])
    )
    n_nodes = len(nodes)
    # wedges (a<b<c paths) in closed form: for each middle node b,
    # (#neighbors below b) x (#neighbors above b) — no join needed
    indeg = np.zeros(n_nodes, np.int64)
    outdeg = np.zeros(n_nodes, np.int64)
    src_i = np.searchsorted(nodes, deg["src"].to_numpy(np.int64))
    dst_i = np.searchsorted(nodes, deg["dst"].to_numpy(np.int64))
    np.add.at(outdeg, src_i, 1)
    np.add.at(indeg, dst_i, 1)
    n_wedges = int((indeg * outdeg).sum())

    if common.gate("triangle_count_cosuppliers", "nodes", n_nodes,
                   TRIANGLE_BITSET_MAX_NODES):
        words = (n_nodes + 63) // 64
        adj = np.zeros((n_nodes, words), np.uint64)
        w, b = dst_i // 64, dst_i % 64
        # set bit b of word w in row src_i (duplicates OR harmlessly)
        np.bitwise_or.at(adj, (src_i, w), np.uint64(1) << b.astype(np.uint64))
        adj_ref = ray.put((nodes, adj))

        def block_tri(t: pa.Table) -> pa.Table:
            nds, m = ray.get(adj_ref)
            a = np.searchsorted(nds, t["src"].to_numpy(zero_copy_only=False))
            c = np.searchsorted(nds, t["dst"].to_numpy(zero_copy_only=False))
            # SWAR popcount over the uint64 words, summed per edge
            x = m[a] & m[c]
            x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
            x = (x & np.uint64(0x3333333333333333)) + (
                (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
            )
            x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
            cnt = ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).sum()
            return pa.table({"tri": pa.array([int(cnt)], pa.int64())})

        tri_partials = edges.map_batches(block_tri, batch_format="pyarrow")
        n_triangles = int(
            combine_small(
                tri_partials,
                lambda t: pa.table(
                    {"tri": pa.array([pc.sum(t["tri"]).as_py() or 0],
                                     pa.int64())}
                ),
            )["tri"][0].as_py()
        )
    else:
        mid = edges.map_batches(
            lambda t: t.rename_columns(["b", "c"]), batch_format="pyarrow"
        )
        wedges = edges.join(
            mid,
            join_type="inner",
            num_partitions=join_partitions(),
            on=("dst",),
            right_on=("b",),
        ).map_batches(
            lambda t: pa.table({"a": t["src"], "c": t["c"]}),
            batch_format="pyarrow",
        )
        closing = edges.map_batches(
            lambda t: pa.table(
                {"a": t["src"], "c": t["dst"],
                 "hit": pa.array([1] * t.num_rows, pa.int64())}
            ),
            batch_format="pyarrow",
        )
        tri = wedges.join(
            closing,
            join_type="inner",
            num_partitions=join_partitions(),
            on=("a", "c"),
        )
        n_triangles = tri.count()

    return pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_wedges": pa.array([n_wedges], pa.int64()),
            "n_triangles": pa.array([n_triangles], pa.int64()),
        }
    )
