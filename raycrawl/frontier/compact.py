"""Offline frontier compaction — the groupby-aggregate frontier merge.

The live engine merges frontiers through shard-actor pending buffers (no
shuffle in the hot path). For OFFLINE work — merging the discovered-URL
logs of several crawl runs, re-sharding a checkpointed frontier to a new
``num_shards``, or compacting link logs before a fresh seed run — the
merge is exactly a hash-partitioned groupby over the url_hash:

    read frontier/link tables → groupby(url_hash) → min(depth),
    min(discovered_at), first(url/host) → re-key shard = hash(host) % P

This is the "frontier merge as groupby-aggregate shuffle" shape: the
shuffle moves one ~100-byte row per distinct URL.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Min

from ..core.urltools import netlocs, shard_of_host


def compact_frontier(
    ds: ray.data.Dataset, num_shards: int
) -> ray.data.Dataset:
    """Merge duplicate URLs (min depth / min discovered_at wins) and assign
    the target shard. Input columns: url, url_hash, host, priority, depth,
    discovered_at — the checkpoint ``frontier.parquet`` schema."""
    merged = ds.groupby("url").aggregate(
        Min("depth", alias_name="depth"),
        Min("discovered_at", alias_name="discovered_at"),
        Min("priority", alias_name="priority"),  # priority is url-pure
    )

    def rekey(df: pd.DataFrame) -> pd.DataFrame:
        hosts = netlocs(pa.array(df["url"], pa.string())).to_pandas()
        hosts.index = df.index
        df = df.assign(
            host=hosts,
            shard=hosts.map(lambda h: shard_of_host(h, num_shards)).astype("int32"),
        )
        return df

    return merged.map_batches(rekey, batch_format="pandas")


def read_checkpoint_frontier(ckpt_dir: str, epoch: int) -> ray.data.Dataset:
    """All shards' frontier tables of one checkpoint epoch as one Dataset."""
    import os

    base = os.path.join(ckpt_dir, f"epoch={epoch}")
    paths = [
        os.path.join(base, d, "frontier.parquet")
        for d in sorted(os.listdir(base))
        if d.startswith("shard=")
    ]
    return ray.data.read_parquet(paths)
