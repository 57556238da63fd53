"""Shared helpers for the analytics operators over the testdata tables."""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def table(sf_dir: str, name: str, columns: list[str] | None = None,
          blocks: int = 1, where=None) -> ray.data.Dataset:
    """Column-pruned parquet read (only requested columns leave storage),
    sized from the footers by ``read_blocks``. One block (the default) fuses
    the read into the first map stage: ONE task, where Ray's own split of a
    small file (2 × CPUs blocks) turns fusion off (DESIGN §5). ``where``,
    a pyarrow expression, keeps only the rows it selects, inside the read;
    a read it empties may carry no columns."""
    n = read_blocks(table_num_rows(sf_dir, name), blocks)
    kw = {} if where is None else {"filter": where}
    return ray.data.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns,
                                 override_num_blocks=n, **kw)


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

# Bound of the sorted-lookup broadcasts (``attach``): a key-sorted side
# of at most this many rows (orders, customers, or per-customer counts;
# 17-24 B a row, so at most ~24 MB) is ray.put once and probed in every
# task; past it the op hash-joins that side instead. The ~sf1.0 scale
# smoke's 1.5M customers and 15M orders cross it.
LOOKUP_BROADCAST_MAX = 1_000_000

# The part side's bound: its lookup rows are narrow enough for a larger one.
PART_BROADCAST_MAX = 4_000_000


def combine_small(partials: ray.data.Dataset, combine_fn) -> pa.Table:
    """Final combine for a map-side partial-aggregate stream whose final
    result is small: ``combine_fn`` runs over every partial block in ONE
    Ray task (``_combine_task``), and only its result comes back.

    Ray Data's groupby is a sort-based all-to-all exchange with a fixed
    cost of 0.3–0.5 s per Sort exchange (measured on a 4-vCPU VM, Ray
    declared 4 CPUs) — pure overhead when the map-side combiner has
    already collapsed the stream to a few rows per key. The driver holds
    the partial blocks' refs and nothing else; ``combine_fn`` gets them
    as one Arrow table and returns the result (any picklable value). A
    per-key result that grows with the data goes through
    ``bucketed_group_agg`` instead, which picks this task or the bucketed
    exchange from the partial rows it observes.
    """
    # Block refs straight off the ref-bundle iterator — ONE execution.
    # (`Dataset.to_arrow_refs` in Ray 2.49 calls
    # `schema(fetch_if_missing=True)` after consuming, which re-executes
    # the whole un-materialized lineage — shuffles included — a second
    # time; measured as a full duplicate pipeline run with
    # `LimitOperator[limit=1]` on every combine_small-terminated op.)
    refs = [
        ref
        for bundle in partials.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    return ray.get(next(_combine_task().remote(combine_fn, None, *refs)))


def md5_u64_le(s: str) -> int:
    """Little-endian first-8-bytes of md5 — THE oracle-load-bearing hash
    convention (== DuckDB ``md5_number_upper``). Single definition shared
    by hash sampling, stratified sampling, shingling, simhash and the
    quantile bin keys so the byte order can never silently diverge."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")


def lookup_sorted(keys: np.ndarray, probe: np.ndarray, *values,
                  fill=0) -> tuple:
    """THE sorted-key probe: ``(found, *gathered)`` for ``probe`` in the
    SORTED ``keys``. ``found`` is the membership mask; each array of
    ``values`` (parallel to ``keys``) comes back gathered at the probe
    positions, ``fill`` where the key is absent. One vectorized pass, and
    it indexes neither ``keys`` nor a value array when they are empty."""
    if not len(keys):
        return (np.zeros(len(probe), dtype=bool),
                *(np.full(len(probe), fill, dtype=np.asarray(v).dtype)
                  for v in values))
    pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    found = keys[pos] == probe
    return (found, *(np.where(found, v[pos], fill) for v in values))


def isin_sorted(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``probe`` in the SORTED ``keys``."""
    return lookup_sorted(keys, probe)[0]


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
    single-node numbers above set cap_per_node. ``join`` is its only
    caller."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8))
    try:
        nodes = sum(1 for n in ray.nodes() if n.get("Alive"))
    except Exception:  # pragma: no cover - nodes() needs an initialized Ray
        nodes = 1
    cap = cap_per_node * max(1, nodes)
    return max(floor, min(cap, cpus // divisor))


# Ray Data join types in use, and the Arrow verbs they map to (the verbs
# Ray's own hash-join aggregators pass to ``pa.Table.join``).
_ARROW_JOIN = {"inner": "inner", "left_outer": "left outer",
               "full_outer": "full outer"}


def join(left: ray.data.Dataset, right: ray.data.Dataset, how: str,
         on: tuple[str, ...],
         right_on: tuple[str, ...] | None = None) -> ray.data.Dataset:
    """THE equi-join: every ``Dataset.join`` in the repo goes through here
    (a grep test enforces it). ``how`` is ``inner``, ``left_outer`` or
    ``full_outer``.

    Both sides run once (``materialize``) and their row counts come from
    block metadata; the join then reads those blocks. With rows on both
    sides it is Ray's hash-partitioned ``Dataset.join``, sized by
    ``join_partitions``. With an empty side there is no shuffle: Ray 2.49
    raises ``ArrowInvalid: No match ... for key field reference`` there,
    because its empty partitions carry no schema. Instead each block of
    the other side is joined in its own task with ``pa.Table.join``
    against the empty side's typed empty table — the call Ray's
    aggregators make, so columns are named and typed as on the
    partitioned path: an inner join gives no rows, an outer join passes
    the other side's rows through with nulls. Two empty sides give one
    zero-row block."""
    verb = _ARROW_JOIN[how]  # only the join types in use
    left, right = left.materialize(), right.materialize()
    lrows, rrows = left.count(), right.count()  # from the block metadata
    if lrows and rrows:
        return left.join(right, join_type=how,
                         num_partitions=join_partitions(), on=on,
                         right_on=right_on)

    def typed_empty(ds) -> pa.Table:
        t = combine_small(ds, lambda t: t.slice(0, 0))
        if not t.num_columns:
            raise ValueError(
                "join: the empty side has no columns (a map_batches stage "
                "over an empty block emits it without them); filter inside "
                "the map instead of in front of it")
        return t

    lt = None if lrows else typed_empty(left)
    rt = None if rrows else typed_empty(right)
    keys, right_keys = list(on), list(right_on or on)
    if not (lrows or rrows):
        return ray.data.from_arrow(
            lt.join(rt, keys=keys, right_keys=right_keys, join_type=verb))

    def local(t: pa.Table) -> pa.Table:  # a closure: its task imports no ops
        return (t if lt is None else lt).join(
            t if rt is None else rt, keys=keys, right_keys=right_keys,
            join_type=verb)

    return (left if lrows else right).map_batches(
        local, batch_format="pyarrow", batch_size=None)


def attach(stream: ray.data.Dataset, side: tuple, key: str,
           columns: list[str], on: str, how: str = "inner", *, op: str,
           bound: int | None = None, where=None) -> ray.data.Dataset:
    """THE lookup of a gated op: ``stream`` with the side's ``columns``
    appended, matched on the stream column ``on`` == the side's UNIQUE key
    ``key``. ``how`` is ``inner`` (rows whose key the side lacks go) or
    ``left_outer`` (they stay, with nulls).

    ``side`` is ``(name, source)``: the base table ``name`` in the table
    directory ``source``, only the rows the pyarrow expression ``where``
    keeps, sized by its footer rows; or a Dataset ``source`` of just
    ``[key, *columns]``, run once and sized by its row count.
    ``gate(op, name, rows, bound)`` picks the body; ``bound`` defaults to
    ``PART_BROADCAST_MAX`` for part and ``LOOKUP_BROADCAST_MAX`` for the
    rest. The small side is read on the driver (pyarrow, no Ray task),
    sorted by key and ``ray.put`` once, and one pyarrow map over the stream
    probes it with ``lookup_sorted``; the map fuses with the read before it
    and the op's partial after it into one task. The partitioned side is
    ``join`` of the stream with the side's Dataset. Both give the stream's
    columns, then ``columns`` typed as the side stores them; row order is
    not kept."""
    import pyarrow.dataset as pads

    name, source = side
    cols = [key, *columns]
    if isinstance(source, ray.data.Dataset):
        source = source.materialize()
        rows = source.count()  # from the block metadata
    else:
        path = f"{source}/{name}.parquet"
        rows = table_num_rows(source, name)
    if bound is None:
        bound = PART_BROADCAST_MAX if name == "part" else LOOKUP_BROADCAST_MAX
    if not gate(op, name, rows, bound):
        if not isinstance(source, ray.data.Dataset):
            source = table(source, name, cols, where=where).materialize()
            if not source.count():  # an emptied read may carry no columns
                schema = pads.dataset(path).schema
                source = ray.data.from_arrow(pa.schema(
                    [schema.field(c) for c in cols]).empty_table())
        return join(stream, source, how, (on,), (key,))

    if isinstance(source, ray.data.Dataset):
        import pandas as pd

        blocks = [ray.get(ref) for bundle in source.iter_internal_ref_bundles()
                  for ref in bundle.block_refs]
        blocks = [pa.Table.from_pandas(b, preserve_index=False)
                  if isinstance(b, pd.DataFrame) else b for b in blocks]
        side_t = pa.concat_tables([b.select(cols) for b in blocks
                                   if b.num_columns])
    else:
        side_t = pads.dataset(path).to_table(columns=cols, filter=where)
    ref = ray.put(side_t.sort_by(key).combine_chunks())
    inner = how == "inner"

    def probe(t: pa.Table) -> pa.Table:
        s = ray.get(ref)
        keys = s[key].to_numpy()
        found, pos = lookup_sorted(keys, t[on].to_numpy(zero_copy_only=False),
                                   np.arange(len(keys)))
        if inner:
            t, idx = t.filter(pa.array(found)), pa.array(pos[found])
        else:
            idx = pa.array(pos, mask=~found)
        for c in columns:
            t = t.append_column(c, s[c].take(idx))
        return t

    return stream.map_batches(probe, batch_format="pyarrow")


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
    sum gives the bucket count: 1 means ``bucket_fn`` runs over all of
    them in the one combine task ``combine_small`` runs too
    (``_combine_task``); more means the materialized rows go through the
    bucketed Sort exchange. There is no driver tier.

    ``bucket_fn`` receives ALL rows of one bucket as a pandas DataFrame
    (every row of a key lands in exactly one bucket, so any per-key
    aggregate is computable) and returns its aggregated frame; on an empty
    stream it gets one empty frame with the columns a block carries, and
    when no block carries one the result is an empty frame, as from the
    exchange. Buckets are ``pd.util.hash_pandas_object`` over the key
    columns (deterministic, content-based) mod the bucket count."""
    import pandas as pd

    partials = ds.materialize()
    blocks = [
        block
        for bundle in partials.iter_internal_ref_bundles()
        for block in bundle.blocks
    ]
    k = group_buckets(sum(meta.num_rows for _, meta in blocks))
    if k == 1:
        def final(t: pa.Table) -> pd.DataFrame:
            return bucket_fn(t.to_pandas()) if t.num_columns else pd.DataFrame()

        cut = (int(ray.cluster_resources().get("CPU", 8)), ONE_TASK_SLICE_ROWS)
        return ray.data.from_pandas_refs(list(_combine_task().remote(
            final, cut, *(ref for ref, _ in blocks))))

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


@functools.cache
def _combine_task():
    """THE combine task of ``combine_small`` and of ``bucketed_group_agg``'s
    one-bucket tier, as a remote function: ``.remote(final, cut, *refs)``
    runs ``final`` over every partial block ``refs`` names in ONE Ray task
    and returns the task's generator of output refs.

    The blocks are normalized once, here: pandas blocks become Arrow (a
    pandas-block stage upstream can leak empty pandas blocks through a
    pyarrow ``map_batches``, which skips its UDF on an empty block), and
    ``final`` gets the concatenated non-empty blocks — or, on a stream
    with no rows, the first empty block that carries columns (the partial
    schema, or the input's when Ray skipped the partial UDF), else a table
    with no columns. Its result comes back whole (``cut`` None) or, for a
    frame and ``cut`` = ``(parts, slice_rows)``, cut into blocks of at
    least ``slice_rows`` rows, at most ``parts`` of them.

    Made once per process: a task over a new function pays its export
    too, 22 vs 11 ms a call (median of 40, 8 one-row blocks, Ray 4 CPUs on
    4 vCPUs). A closure: a module-level remote function here would make
    its worker import the whole ops package."""
    def combine(final, cut, *blocks):  # one object per output block
        import pandas as pd
        import pyarrow as pa

        tables = [
            pa.Table.from_pandas(b, preserve_index=False)
            if isinstance(b, pd.DataFrame) else b
            for b in blocks
        ]
        full = [t for t in tables if t.num_rows]
        carriers = [t for t in tables if t.num_columns] or [pa.table({})]
        out = final(pa.concat_tables(full, promote_options="default")
                    if full else carriers[0])
        n = min(cut[0], len(out) // cut[1]) if cut else 1
        if n <= 1:
            yield out
            return
        step = -(-len(out) // n)
        for lo in range(0, len(out), step):
            yield out.iloc[lo:lo + step]

    return ray.remote(combine)


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
