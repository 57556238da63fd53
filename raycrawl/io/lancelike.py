"""Lance-style table IO with a parquet fallback.

The north rule targets Lance tables for payload/checkpoint storage. This
container does not ship the ``lance``/``pylance`` package, so every write
goes through this wrapper: if ``lance`` is importable it is used; otherwise
the same logical layout (one directory per table version/epoch, columnar
files inside, manifest sidecar) is realized with parquet. All engine code
calls these functions rather than a storage library directly, so swapping
in real Lance is a one-module change.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

try:  # pragma: no cover - lance not present in this sandbox
    import lance  # type: ignore

    HAVE_LANCE = True
except ImportError:
    lance = None
    HAVE_LANCE = False


def write_table(table: pa.Table, uri: str, *, mode: str = "create") -> None:
    """Write an Arrow table as a Lance dataset (or parquet fallback)."""
    if HAVE_LANCE:  # pragma: no cover
        lance.write_dataset(table, uri, mode=mode)
        return
    os.makedirs(uri, exist_ok=True)
    pq.write_table(table, os.path.join(uri, "data-0.parquet"))
    with open(os.path.join(uri, "_manifest.json"), "w") as f:
        json.dump({"format": "parquet-fallback", "rows": table.num_rows,
                   "schema": table.schema.to_string()}, f)


def write_table_flat(table: pa.Table, uri: str, part: int = 0) -> None:
    """Single-table write with the same on-disk layout ``write_ray_dataset``
    produces (no manifest sidecar) — used by the crawler's small-epoch fast
    path so tail epochs skip the Ray Data pipeline launch. ``part`` > 0
    appends another file (Lance: append mode) so callers can write slice
    by slice instead of accumulating a whole epoch in heap."""
    if HAVE_LANCE:  # pragma: no cover
        lance.write_dataset(table, uri, mode="create" if part == 0 else "append")
        return
    os.makedirs(uri, exist_ok=True)
    pq.write_table(table, os.path.join(uri, f"part-{part}.parquet"))


def read_table(uri: str) -> pa.Table:
    if HAVE_LANCE:  # pragma: no cover
        return lance.dataset(uri).to_table()
    files = sorted(
        os.path.join(uri, f) for f in os.listdir(uri) if f.endswith(".parquet")
    )
    return pa.concat_tables([pq.read_table(f) for f in files])


def read_ray_dataset(uri: str, columns: list[str] | None = None):
    """The same table as a ray.data.Dataset (streaming read, with column
    pruning pushed to the format reader), one block per non-empty file.
    An empty block reads with no schema: Ray's default read split cuts a
    1-row file into a 1-row and a 0-row block, and a 0-row file reads as
    one; a later ``map_batches`` passes such a block through without
    calling its UDF, so it would reach the consumer without the columns
    asked for. So the read skips 0-row files (by footer row count) and
    asks for exactly one block per file left, which Ray does not split."""
    import ray.data

    if HAVE_LANCE:  # pragma: no cover
        return ray.data.read_lance(uri, columns=columns)
    files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(uri) for f in fs
        if f.endswith(".parquet")
    )
    full = [f for f in files if pq.read_metadata(f).num_rows]
    if full:
        return ray.data.read_parquet(full, columns=columns,
                                     override_num_blocks=len(full))
    if not files:
        return ray.data.read_parquet(uri, columns=columns)
    schema = pq.read_schema(files[0])
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.from_arrow(schema.empty_table())


def write_ray_dataset(ds, uri: str) -> None:
    if HAVE_LANCE:  # pragma: no cover
        ds.write_lance(uri)
        return
    ds.write_parquet(uri)
