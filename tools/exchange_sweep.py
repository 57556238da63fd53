"""Crossover sweep of ``ops.common.bucketed_group_agg``'s two exchanges:
the one-task combine against the bucketed Sort exchange, at several
partial row counts. Each size is timed with ``group_buckets`` pinned to
one bucket (the one-task branch), then sized as for a stream over
``BUCKET_TARGET_ROWS`` (the exchange), alternating, and the result is
materialized (not pulled to the driver).

Shapes (``--shape``):
  minute    a stream shaped like ``events_per_minute``'s (minute,
            event_type, n) map-side partials, combined by a cheap pandas
            groupby-sum; the blocks are ``ray.put`` up front.
  sessions  ``user_sessions_30m`` end to end over a generated events
            table: raw (event_id, user_id, ts) rows reach the combine,
            which sorts and sessionizes them (one row per user out).
  running   ``running_event_index`` end to end: raw rows in, one row per
            event out, so the combine's output is as large as its input.
For the two end-to-end shapes the rows are events; the table is written
as 16 parquet files to a temporary directory (removed afterwards) and
read by the op itself.

Run:  python tools/exchange_sweep.py [--shape minute] [--num-cpus 4]
          [--repeats 3] [--rows 60000,250000,1000000,2000000,4000000]
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


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--shape", choices=("minute", "sessions", "running"),
                    default="minute")
    ap.add_argument("--num-cpus", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--blocks", type=int, default=16)
    ap.add_argument("--rows", default="60000,250000,1000000,2000000,4000000")
    args = ap.parse_args()

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
    over_one_bucket = common.BUCKET_TARGET_ROWS + 1

    def run(src, exchange: bool) -> tuple[float, int]:
        # pin the helper's one decision to the branch under test
        common.group_buckets = (
            (lambda rows: group_buckets(max(rows, over_one_bucket)))
            if exchange else (lambda rows: 1)
        )
        t = time.perf_counter()
        if args.shape == "minute":
            out = common.bucketed_group_agg(
                ray.data.from_arrow_refs(src), ["minute", "event_type"], agg
            )
        else:
            op = {"sessions": "user_sessions_30m",
                  "running": "running_event_index"}[args.shape]
            out = REGISTRY[op]["fn"](src)
        out = out.materialize()
        return time.perf_counter() - t, out.count()

    def source(rows: int):
        if args.shape == "minute":
            return [ray.put(b) for b in partial_blocks(rows, args.blocks)]
        return write_events(rows, work)

    work = tempfile.mkdtemp(prefix="exchange-sweep-")
    result = {"shape": args.shape, "num_cpus": args.num_cpus,
              "os_cpu_count": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)), "runs": {}}
    warm = source(10_000)
    run(warm, False)
    run(warm, True)
    for rows in (int(x) for x in args.rows.split(",")):
        src = source(rows)
        times = {"one_task": [], "bucketed": []}
        for _ in range(args.repeats):
            for branch, exchange in (("one_task", False), ("bucketed", True)):
                s, n = run(src, exchange)
                times[branch].append(round(s, 3))
        for branch, xs in times.items():
            print(f"{rows:>9} {branch:<9} min {min(xs):6.2f} s  "
                  f"median {statistics.median(xs):6.2f} s  ({n} groups)",
                  flush=True)
        result["runs"][rows] = times
        del src
    print(json.dumps(result))
    ray.shutdown()
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
