"""Shared helpers for the analytics operators over the testdata tables."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def table(sf_dir: str, name: str, columns: list[str] | None = None,
          blocks: int = 1) -> ray.data.Dataset:
    """Column-pruned parquet read (only requested columns leave storage),
    sized from the footers by ``read_blocks``. One block (the default) fuses
    the read into the first map stage: ONE task, where Ray's own split of a
    small file (2 × CPUs blocks) turns fusion off (DESIGN §5)."""
    n = read_blocks(table_num_rows(sf_dir, name), blocks)
    return ray.data.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns,
                                 override_num_blocks=n)


def read_blocks(rows: int, blocks: int) -> int | None:
    """``blocks`` for a table that fits one block, else Ray's default."""
    return blocks if rows <= ONE_TASK_SLICE_ROWS else None


def table_num_rows(sf_dir: str, name: str) -> int:
    """Row count from parquet footers only — zero data read. ``table``
    sizes its read from it, and ``gate`` decides broadcast/driver paths
    from it before any row is read; a combine decides from the rows
    it observes instead (``bucketed_group_agg``)."""
    import pyarrow.dataset as pads

    return pads.dataset(f"{sf_dir}/{name}.parquet").count_rows()


# Input-row bound of the driver-side gates that pull a whole table (or a
# quarter of it, for the near-dup driver paths) into one process: the
# near-dup ``// 4`` gates in dedup.py, and local_supplier_revenue's and
# doc_embedding_label_mix's broadcasts. Combines do not read it.
SMALL_COMBINE_ROWS = 2_000_000

# Bound of the sorted-lookup broadcasts: a key-sorted table of at most
# this many rows (orders, customers, or per-customer counts; 17-24 B a
# row, so at most ~24 MB) is ray.put once and probed with searchsorted
# in every task; past it the op hash-joins that side instead. The ~sf1.0
# scale smoke's 1.5M customers and 15M orders cross it.
LOOKUP_BROADCAST_MAX = 1_000_000


def combine_small(partials: ray.data.Dataset, combine_fn) -> pa.Table:
    """Final combine for a BOUNDED map-side partial-aggregate stream.

    Ray Data's groupby is a sort-based all-to-all exchange with a fixed
    cost of 0.3–0.5 s per Sort exchange (measured on a 4-vCPU VM, Ray
    declared 4 CPUs) — pure overhead when the map-side combiner has
    already collapsed the stream to a few rows per key. This helper instead
    pulls the partial blocks zero-copy off the object store (the
    map_batches tasks still ran distributed; only their ALREADY-AGGREGATED
    outputs move) and runs the final combine as one local Arrow kernel on
    the driver.

    Scale contract: callers MUST bound the partial stream first — e.g. a
    group key of fixed small cardinality (partial rows ≤ keys × blocks at
    any input size) or a per-block top-k. An unbounded key goes through
    ``bucketed_group_agg``, which picks one combine task or the bucketed
    exchange by itself from the partial rows it observes.
    """
    import pandas as pd

    # Pull block refs straight off the ref-bundle iterator — ONE
    # execution. (`Dataset.to_arrow_refs` in Ray 2.49 calls
    # `schema(fetch_if_missing=True)` after consuming, which re-executes
    # the whole un-materialized lineage — shuffles included — a second
    # time; measured as a full duplicate pipeline run with
    # `LimitOperator[limit=1]` on every combine_small-terminated op.)
    refs = [
        br
        for bundle in partials.iter_internal_ref_bundles()
        for br in bundle.block_refs
    ]
    all_blocks = ray.get(refs)
    # Raw block refs: a pandas-block stage upstream (e.g.
    # bucketed_group_agg's map_groups) can leak EMPTY pandas blocks
    # through a pyarrow map_batches — Ray skips the UDF on empty blocks,
    # so they arrive here unconverted. Normalize them.
    all_blocks = [
        pa.Table.from_pandas(b, preserve_index=False)
        if isinstance(b, pd.DataFrame) else b
        for b in all_blocks
    ]
    blocks = [b for b in all_blocks if b.num_rows]
    if not blocks:
        carriers = [b for b in all_blocks if b.num_columns]
        if carriers:  # empty blocks still carry the partial schema
            return combine_fn(carriers[0])
        sch = partials.schema()
        base = getattr(sch, "base_schema", None) or pa.schema([])
        return combine_fn(base.empty_table())
    return combine_fn(pa.concat_tables(blocks, promote_options="default"))


def md5_u64_le(s: str) -> int:
    """Little-endian first-8-bytes of md5 — THE oracle-load-bearing hash
    convention (== DuckDB ``md5_number_upper``). Single definition shared
    by hash sampling, stratified sampling, shingling, simhash and the
    quantile bin keys so the byte order can never silently diverge."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")


def isin_sorted(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``probe`` in the SORTED ``keys``; empty
    ``keys`` match nothing (instead of indexing an empty array)."""
    if not len(keys):
        return np.zeros(len(probe), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    return keys[pos] == probe


def round_half_away(x, nd: int):
    """Round half AWAY from zero, element-wise — DuckDB ROUND's tie rule
    (verified on DOUBLE: 0.5→1, 2.5→3, -2.5→-3). numpy/Python round are
    half-to-even, which diverges from every SQL oracle on exact .5
    boundaries; any float destined for a ROUND()-compared column must go
    through this."""
    x = np.asarray(x, dtype=np.float64)
    scale = 10.0 ** nd
    return np.copysign(np.floor(np.abs(x) * scale + 0.5) / scale, x)


def round_cols(ds: ray.data.Dataset, spec: dict[str, int]) -> ray.data.Dataset:
    """Round float columns to fixed decimals so Ray and DuckDB value-hashes
    agree despite summation-order float jitter."""

    def _round(t: pa.Table) -> pa.Table:
        for col, nd in spec.items():
            if col in t.column_names:
                i = t.column_names.index(col)
                t = t.set_column(
                    i, col, pc.round(pc.cast(t[col], pa.float64()), ndigits=nd)
                )
        return t

    return ds.map_batches(_round, batch_format="pyarrow")


def cast_cols(ds: ray.data.Dataset, spec: dict[str, pa.DataType]) -> ray.data.Dataset:
    def _cast(t: pa.Table) -> pa.Table:
        for col, typ in spec.items():
            if col in t.column_names:
                i = t.column_names.index(col)
                t = t.set_column(i, col, pc.cast(t[col], typ))
        return t

    return ds.map_batches(_cast, batch_format="pyarrow")


# The branch every gated op took on its last run, one entry per gated
# side: {op: {side: "small" | "distributed"}}. Written only by ``gate``;
# read by the benchmark's traced query pass (``ops.path.<op>``) and by the
# scale smoke (tools/scale_smoke.py), which proves the partitioned
# branches run on real over-bound data. bucketed_group_agg's own
# one-task-or-exchange choice is not logged here.
PATH_LOG: dict[str, dict[str, str]] = {}


def gate(op: str, side: str, rows: int, bound: int) -> bool:
    """THE broadcast/driver-path decision: True (the small side —
    broadcast it, pull it to the driver, or build the bitset) when
    ``rows`` ≤ ``bound``, else False (the partitioned side: a hash join or
    the distributed path). ``rows`` is what the driver already holds:
    footer rows (``table_num_rows``) or the ``count()``/``len`` of
    something it materialized, so deciding reads no data and starts no
    Ray work. ``side`` names what is sized ("orders", "vocab", ...): an
    op with several gates records one decision per side in ``PATH_LOG``,
    and a side decided again starts the op's next run there. Ops call it
    as ``common.gate`` so that one wrapper forces every branch
    (``force_gates`` in tests/conftest.py)."""
    small = rows <= bound
    sides = PATH_LOG.get(op)
    if sides is None or side in sides:
        sides = PATH_LOG[op] = {}
    sides[side] = "small" if small else "distributed"
    return small


def join_partitions(cap_per_node: int = 16, divisor: int = 4, floor: int = 4) -> int:
    """Partition count for ``Dataset.join``: every partition spins a
    hash-shuffle aggregator actor whose startup + memory churn dominates
    small/medium joins — measured on this node (32 CPUs, 600k⋈150k rows):
    8 partitions → 8.7 s, 16 → 10.8 s, 32 → 24.5 s; and on a 4-CPU node
    32 partitions took >2 min vs ~6 s properly sized. So: CPUs/divisor,
    clamped to [floor, cap]. The cap scales with ALIVE NODE COUNT so a
    multi-node cluster spreads aggregators across nodes instead of
    serializing the shuffle through a single-node-sized pool; the
    single-node numbers above set cap_per_node. Every ``Dataset.join``
    in this repo must size ``num_partitions`` through this helper (a
    grep-based pytest enforces it)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8))
    try:
        nodes = sum(1 for n in ray.nodes() if n.get("Alive"))
    except Exception:  # pragma: no cover - nodes() needs an initialized Ray
        nodes = 1
    cap = cap_per_node * max(1, nodes)
    return max(floor, min(cap, cpus // divisor))


# Target rows per bucket for bucketed_group_agg: small enough that one
# bucket's pandas aggregate fits comfortably in a worker heap, large enough
# that per-group Python-call overhead is amortized ~100k×. A partial stream
# of at most this many rows is ONE bucket, combined by one task instead of
# a Sort exchange (crossover sweep: DESIGN.md §2b).
BUCKET_TARGET_ROWS = 2_000_000


def group_buckets(rows: int) -> int:
    """Bucket count of ``bucketed_group_agg`` for ``rows`` observed partial
    rows: 1 (one combine task, no exchange) when they fit one bucket,
    otherwise at least 8 buckets per cluster CPU (parallelism), grown so no
    bucket exceeds ``BUCKET_TARGET_ROWS``."""
    import ray

    if rows <= BUCKET_TARGET_ROWS:
        return 1
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(8 * max(1, cpus), rows // BUCKET_TARGET_ROWS + 1)


# Least rows per output block of that task: a larger result is cut into
# blocks of at least this many rows, at most one per cluster CPU, so the
# stage after it is not one task. A map stage over one 1M-row block took
# 0.54 s vs 0.28 s over four; at 250k rows both took 0.2 s (§2b). Also the
# most footer rows ``table`` reads as one block (read sweep: DESIGN §5).
ONE_TASK_SLICE_ROWS = 250_000


def bucketed_group_agg(
    ds: ray.data.Dataset, key_cols: list[str], bucket_fn
) -> ray.data.Dataset:
    """HIGH-CARDINALITY groupby: shuffle on a small deterministic bucket of
    the key instead of the key itself, then aggregate each bucket with ONE
    vectorized pandas call.

    Why: Ray Data's ``groupby(key).aggregate(...)`` reduce phase walks
    per-key group boundaries in interpreter-level Python, so its wall time
    scales with DISTINCT KEY COUNT — measured on this node: 4M near-unique
    int64 keys took 33.2 s (and 33M keys ran >15 min without finishing),
    while this bucketed shape did the same work in 1.7 s (39 s at 33M).
    For low-cardinality keys (≤ ~100k groups) plain aggregate is fine and
    simpler — this helper is for dedup-style keys with ~1 row per key.

    This is the ONE place that decides how an unbounded-key combine runs,
    from the partial stream ``ds`` actually produced: ``ds`` runs once
    (``materialize``) and its blocks' metadata row counts are summed — the
    driver holds refs and metadata, never rows. ``group_buckets`` of that
    sum gives the bucket count: 1 means ONE task runs ``bucket_fn`` over
    all of them; more means the materialized rows go through the bucketed
    Sort exchange.

    ``bucket_fn`` receives ALL rows of one bucket as a pandas DataFrame
    (every row of a key lands in exactly one bucket, so any per-key
    aggregate is computable) and returns its aggregated frame; on an empty
    stream it gets one empty frame with the partial columns, so the result
    keeps its columns. Buckets are ``pd.util.hash_pandas_object`` over the
    key columns (deterministic, content-based) mod the bucket count."""
    import pandas as pd

    partials = ds.materialize()
    blocks = [
        block
        for bundle in partials.iter_internal_ref_bundles()
        for block in bundle.blocks
    ]
    k = group_buckets(sum(meta.num_rows for _, meta in blocks))
    if k == 1:
        return _one_task_combine([ref for ref, _ in blocks], bucket_fn)

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy(deep=False)
        if not len(df):
            # an empty upstream block can arrive schema-less — emit an
            # empty bucketed frame instead of KeyError'ing on key_cols
            df["_bucket"] = pd.Series([], dtype="int64")
            return df
        df["_bucket"] = (
            pd.util.hash_pandas_object(df[key_cols], index=False).to_numpy()
            % np.uint64(k)
        ).astype(np.int64)
        return df

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return bucket_fn(g.drop(columns=["_bucket"]))

    return (
        partials.map_batches(add_bucket, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(run_bucket, batch_format="pandas")
    )


def _one_task_combine(refs: list, bucket_fn) -> ray.data.Dataset:
    """``bucket_fn`` over every partial block in ONE Ray task. Its frame
    comes back cut into blocks of at least ``ONE_TASK_SLICE_ROWS`` rows,
    at most one per cluster CPU (a smaller result is one block). Empty
    blocks are normalized the way ``combine_small`` does (empty pandas
    blocks, schema-less blocks): an all-empty stream reaches ``bucket_fn``
    as one empty frame with the partial columns, or, when no block names
    a column, comes back as an empty frame, as from the exchange. The task
    is a closure: a module-level remote function here would make its
    worker import the whole ops package."""
    parts = int(ray.cluster_resources().get("CPU", 8))
    slice_rows = ONE_TASK_SLICE_ROWS

    def combine(*blocks):  # a generator task: one object per output block
        import pandas as pd
        import pyarrow as pa

        tables = [
            pa.Table.from_pandas(b, preserve_index=False)
            if isinstance(b, pd.DataFrame) else b
            for b in blocks
        ]
        full = [t for t in tables if t.num_rows]
        carriers = [t for t in tables if t.num_columns]
        if full:
            out = bucket_fn(
                pa.concat_tables(full, promote_options="default").to_pandas()
            )
        elif carriers:  # empty blocks still carry the partial columns
            out = bucket_fn(carriers[0].to_pandas())
        else:
            out = pd.DataFrame()
        n = max(1, min(parts, len(out) // slice_rows))
        step = max(1, -(-len(out) // n))
        for lo in range(0, max(1, len(out)), step):
            yield out.iloc[lo:lo + step]

    return ray.data.from_pandas_refs(list(ray.remote(combine).remote(*refs)))


def table_spread(
    sf_dir: str, name: str, columns: list[str] | None = None,
    factor: int = 2,
) -> ray.data.Dataset:
    """Column-pruned read for a PER-ROW-EXPENSIVE downstream stage (image
    decode/encode, per-doc shingling): a table that fits one block is read
    as ``factor`` blocks per cluster CPU (≥ 8), split by the read task
    itself, instead of one fused task (3.9 s vs 0.9 s for the sf0.1 image
    ops). A larger table keeps Ray's default split (≥ 2 per CPU)."""
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return table(sf_dir, name, columns, blocks=max(8, cpus * factor))


def pool_size(divisor: int = 4, floor: int = 2) -> int:
    """FIXED actor-pool size for stateful ``map_batches`` stages.

    Measured at sf0.1 (32 cpus, image feature extract): autoscaling
    ``concurrency=(1, 8)`` ramps from one actor and finished in 3.9 s;
    the same stage with a FIXED pool of 8 took 1.75 s. And a fixed pool
    sized to ALL cpus (32/32) wedged the pipeline past a 10-minute
    timeout — the actors reserve every CPU slot and the upstream build
    tasks starve. So: cpus/divisor (cluster-wide CPU count, so the pool
    grows with nodes), floored, never the whole machine."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(floor, cpus // divisor)
