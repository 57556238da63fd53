"""Crossover sweeps of two size decisions in ``ops.common``, at several
row counts, alternating the two branches of each; every result is
materialized (not pulled to the driver).

``bucketed_group_agg``'s two exchanges (shapes ``minute``, ``sessions``,
``running``): the one-task combine (``group_buckets`` pinned to one
bucket) against the bucketed Sort exchange (sized as for a stream over
``BUCKET_TARGET_ROWS``).

``table``'s read size (shape ``read``): a read plus its first map with
``read_blocks`` pinned to one block (the read fuses into the map: one
task) against Ray's default split (a read task, then one map task per
block).

Shapes (``--shape``):
  minute    a stream shaped like ``events_per_minute``'s (minute,
            event_type, n) map-side partials, combined by a cheap pandas
            groupby-sum; the blocks are ``ray.put`` up front.
  sessions  ``user_sessions_30m`` end to end over a generated events
            table: raw (event_id, user_id, ts) rows reach the combine,
            which sorts and sessionizes them (one row per user out).
  running   ``running_event_index`` end to end: raw rows in, one row per
            event out, so the combine's output is as large as its input.
  read      a single-file, single-row-group table (an int, two floats
            and an 8-word text column) read by ``common.table`` and
            mapped once, under two maps: ``cheap`` (one Arrow kernel over
            the two floats) and ``shingle`` (per-row Python 3-word
            shingle hashing of the text, the shape ``table_spread`` users
            run).
For the two end-to-end shapes the rows are events; the table is written
as 16 parquet files to a temporary directory (removed afterwards) and
read by the op itself.

Run:  python tools/exchange_sweep.py [--shape minute] [--num-cpus 4]
          [--repeats 3] [--rows 60000,250000,1000000,2000000,4000000]
      (``read`` defaults to --rows 60000,250000,1000000,2000000)
Prints one line per (rows, branch) with the min and median seconds, then
one JSON line with every timing and the host's CPU facts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TYPES = np.array(["click", "error", "purchase", "signup", "view"])
WORDS = np.array("spark window merge table column vector stream value data "
                 "small join filter big group hash customer sort order slow "
                 "line part fast the row agg key query a scan batch".split())


def partial_blocks(rows: int, n_blocks: int, seed: int = 7) -> list[pa.Table]:
    """``rows`` partial rows in ``n_blocks`` blocks: (minute, event_type)
    keys drawn from rows/2 minutes × 5 types, so most keys occur once or
    twice across blocks — near-unique, as at long time ranges."""
    rng = np.random.Generator(np.random.PCG64(seed))
    minutes = rng.integers(0, max(1, rows // 2), rows) * 60_000_000
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    tab = pa.table({
        "minute": pa.array(t0 + minutes, pa.timestamp("us")),
        "event_type": pa.array(TYPES[rng.integers(0, len(TYPES), rows)]),
        "n": pa.array(rng.integers(1, 20, rows), pa.int64()),
    })
    step = -(-rows // n_blocks)
    return [tab.slice(i, step) for i in range(0, rows, step)]


def write_events(rows: int, root: str, n_files: int = 16,
                 seed: int = 7) -> str:
    """A ``rows``-event table as ``n_files`` parquet files under
    ``root/events.parquet``: ~67 events per user (the generated test
    tables' ratio) spread over one week, so users have several sessions."""
    import pyarrow.parquet as pq

    rng = np.random.Generator(np.random.PCG64(seed))
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    week_us = 7 * 86_400 * 1_000_000
    tab = pa.table({
        "event_id": pa.array(np.arange(rows, dtype=np.int64)),
        "ts": pa.array(t0 + rng.integers(0, week_us, rows), pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, max(1, rows // 67), rows)),
    })
    out = os.path.join(root, "events.parquet")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    step = -(-rows // n_files)
    for i, lo in enumerate(range(0, rows, step)):
        pq.write_table(tab.slice(lo, step), os.path.join(out, f"part-{i}.parquet"))
    return root


def write_items(rows: int, root: str, seed: int = 7) -> str:
    """A ``rows``-row table as ONE parquet file of one row group,
    ``root/items.parquet``, as the generated test tables are written."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    rng = np.random.Generator(np.random.PCG64(seed))
    words = rng.integers(0, len(WORDS), (rows, 8))
    tab = pa.table({
        "id": pa.array(np.arange(rows, dtype=np.int64)),
        "price": pa.array(rng.uniform(900, 100_000, rows)),
        "discount": pa.array(rng.integers(0, 11, rows) / 100),
        "text": pc.binary_join_element_wise(
            *(pa.array(WORDS[words[:, j]]) for j in range(8)), " "),
    })
    pq.write_table(tab, os.path.join(root, "items.parquet"),
                   row_group_size=max(1, rows))
    return root


def _cheap(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    return t.append_column("revenue", pc.multiply(
        t["price"], pc.subtract(1, t["discount"])))


def _shingle(t: pa.Table) -> pa.Table:
    n = []
    for text in t["text"].to_pylist():
        w = text.split()
        n.append(len({hash(" ".join(w[i:i + 3])) for i in range(len(w) - 2)}))
    return pa.table({"shingles": pa.array(n, pa.int64())})


# the two first maps of the ``read`` shape: (columns read, map)
READ_MAPS = {"cheap": (["price", "discount"], _cheap),
             "shingle": (["text"], _shingle)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--shape",
                    choices=("minute", "sessions", "running", "read"),
                    default="minute")
    ap.add_argument("--num-cpus", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--blocks", type=int, default=16)
    ap.add_argument("--rows")
    args = ap.parse_args()
    rows_arg = args.rows or ("60000,250000,1000000,2000000"
                             if args.shape == "read" else
                             "60000,250000,1000000,2000000,4000000")

    import ray
    import ray.data

    from raycrawl.ops import REGISTRY, common

    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False

    def agg(g):
        return g.groupby(["minute", "event_type"], as_index=False).agg(
            n=("n", "sum"))

    group_buckets = common.group_buckets
    read_blocks = common.read_blocks
    over_one_bucket = common.BUCKET_TARGET_ROWS + 1
    # each branch pins one decision of ops.common; the other keeps its own
    pins = {
        "one_task": ("group_buckets", lambda rows: 1),
        "bucketed": ("group_buckets",
                     lambda rows: group_buckets(max(rows, over_one_bucket))),
        "one_block": ("read_blocks", lambda rows, blocks: 1),
        "split": ("read_blocks", lambda rows, blocks: None),
    }
    branches = (tuple(f"{b}/{m}" for m in READ_MAPS
                      for b in ("one_block", "split"))  # both maps
                if args.shape == "read" else ("one_task", "bucketed"))

    def run(src, branch: str) -> tuple[float, int]:
        common.group_buckets, common.read_blocks = group_buckets, read_blocks
        pin, _, m = branch.partition("/")
        setattr(common, *pins[pin])
        t = time.perf_counter()
        if args.shape == "minute":
            out = common.bucketed_group_agg(
                ray.data.from_arrow_refs(src), ["minute", "event_type"], agg
            )
        elif args.shape == "read":
            cols, fn = READ_MAPS[m]
            out = common.table(src, "items", cols).map_batches(
                fn, batch_format="pyarrow")
        else:
            op = {"sessions": "user_sessions_30m",
                  "running": "running_event_index"}[args.shape]
            out = REGISTRY[op]["fn"](src)
        out = out.materialize()
        return time.perf_counter() - t, out.count()

    def source(rows: int):
        if args.shape == "minute":
            return [ray.put(b) for b in partial_blocks(rows, args.blocks)]
        if args.shape == "read":
            return write_items(rows, work)
        return write_events(rows, work)

    work = tempfile.mkdtemp(prefix="exchange-sweep-")
    result = {"shape": args.shape, "num_cpus": args.num_cpus,
              "os_cpu_count": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)), "runs": {}}
    warm = source(10_000)
    for branch in branches:
        run(warm, branch)
    for rows in (int(x) for x in rows_arg.split(",")):
        src = source(rows)
        times = {branch: [] for branch in branches}
        for _ in range(args.repeats):
            for branch in branches:
                s, n = run(src, branch)
                times[branch].append(round(s, 3))
        for branch, xs in times.items():
            print(f"{rows:>9} {branch:<17} min {min(xs):6.2f} s  "
                  f"median {statistics.median(xs):6.2f} s  ({n} rows out)",
                  flush=True)
        result["runs"][rows] = times
        del src
    print(json.dumps(result))
    ray.shutdown()
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
