"""Footer-sized reads (``ops.common.table``): a table that fits one block
is read as one block, so Ray fuses the read into the first map stage and
the stage runs as ONE task; ``table_spread`` asks the read itself for its
blocks instead of adding an exchange behind it. Every test table fits one
block, so the registry also runs on forced split reads (the
``split_reads`` fixture) against its SQL: that is where cross-block
partial merges run."""

from __future__ import annotations

import pytest
from test_combine_paths import SF, _compare, _df


def _operators(ds) -> list[str]:
    """The executed operator lines of a materialized dataset's stats."""
    return [ln for ln in ds.stats().splitlines() if ln.startswith("Operator ")]


def _mapped(ds):
    """``ds`` through one cheap map (a closure, so workers need not import
    this module), materialized."""
    def keep(t):
        return t

    return ds.map_batches(keep, batch_format="pyarrow").materialize()


def test_small_read_fuses_into_its_map_as_one_task(ray_session):
    from raycrawl.ops.common import table

    ds = _mapped(table(SF, "lineitem", ["l_orderkey", "l_quantity"]))
    ops = _operators(ds)
    assert len(ops) == 1, ops
    assert "ReadParquet->MapBatches(keep): 1 tasks executed" in ops[0], ops
    assert ds.num_blocks() == 1


def test_split_reads_fixture_splits_the_read(ray_session, split_reads):
    from raycrawl.ops.common import table

    split_reads()
    ds = _mapped(table(SF, "lineitem", ["l_orderkey", "l_quantity"]))
    assert split_reads.runs == 1
    assert ds.num_blocks() > 1
    assert len(_operators(ds)) == 2  # the split read does not fuse


def test_table_spread_reads_its_blocks_without_an_exchange(ray_session):
    import ray

    from raycrawl.ops.common import table_num_rows, table_spread

    ds = _mapped(table_spread(SF, "documents", ["doc_id", "text"]))
    ops = _operators(ds)
    assert not [op for op in ops if "Repartition" in op], ops
    assert ds.num_blocks() == max(8, 2 * int(ray.cluster_resources()["CPU"]))
    assert ds.count() == table_num_rows(SF, "documents")


def test_large_table_keeps_the_default_split(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raycrawl.ops import common

    rows = common.ONE_TASK_SLICE_ROWS + 1
    pq.write_table(pa.table({"k": pa.array(range(rows))}),
                   str(tmp_path / "big.parquet"), row_group_size=rows)
    ds = common.table(str(tmp_path), "big").materialize()
    assert ds.num_blocks() > 1
    assert ds.count() == rows


# SQL-oracled ops that read no table through ``common.table`` (the
# crawl-artifact ops read crawl trees; two read with pyarrow on the driver):
# split reads change nothing for them.
NO_TABLE_READ = (
    "caption_pair_curation_stats", "crawl_backoff_audit",
    "crawl_caption_novelty_by_epoch", "crawl_change_rate_by_host",
    "crawl_depth_histogram", "crawl_focus_yield", "crawl_frontier_metrics",
    "crawl_host_fairness", "crawl_host_pagerank", "crawl_incremental_audit",
    "crawl_inlink_top_pages", "crawl_merge_coverage", "crawl_payload",
    "crawl_quota_audit", "crawl_recrawl_delta", "crawl_redirect_audit",
    "crawl_tier_feedback", "crawl_trap_gate_metrics", "region_nation_list",
)


def _split_read_ops():
    from raycrawl.ops import REGISTRY

    return sorted(n for n, q in REGISTRY.items()
                  if q["sql"] is not None and n not in NO_TABLE_READ)


@pytest.mark.parametrize("name", _split_read_ops())
def test_registry_ops_match_sql_on_split_reads(ray_session, split_reads,
                                               name):
    """Every other SQL-oracled op on split reads against its SQL; the read
    counter fails the test when an op stops reading through ``table``."""
    from oracle_utils import oracle

    from raycrawl.ops import REGISTRY

    split_reads()
    got = _df(REGISTRY[name]["fn"](SF))
    assert split_reads.runs, f"{name} no longer reads through table()"
    assert _compare()(name, got, oracle(name, SF)) == []


def test_small_side_attach_fuses_with_its_read_and_partial(ray_session,
                                                           force_gates):
    """A small-side ``attach`` is one pyarrow map over the stream, so the
    read, the probe and the op's partial run as ONE fused task."""
    from raycrawl.ops import common

    force_gates(True)
    li = common.attach(
        common.table(SF, "lineitem", ["l_orderkey", "l_quantity"]),
        ("orders", SF), "o_orderkey", ["o_orderpriority"], "l_orderkey",
        op="attach_plan_test",
    )
    ds = _mapped(li)
    ops = _operators(ds)
    assert len(ops) == 1, ops
    assert ("ReadParquet->MapBatches(probe)->MapBatches(keep): 1 tasks "
            "executed") in ops[0], ops
    assert ds.count() == common.table_num_rows(SF, "lineitem")
