import os

import pytest

os.environ.setdefault("RAY_DEDUP_LOGS", "0")


@pytest.fixture(scope="session")
def ray_session():
    import ray
    import ray.data

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield ray
    ray.shutdown()


@pytest.fixture
def force_exchange(monkeypatch):
    """Returns a switch that sends every later ``common.bucketed_group_agg``
    call through the bucketed Sort exchange, as a partial stream over
    ``BUCKET_TARGET_ROWS`` would: ``group_buckets`` sizes each call as if
    at least one row more than one bucket holds had arrived. Path-equivalence
    tests flip it so the "as at scale" side ends in the exchange, not in
    the one combine task test data gets. ``force_exchange.runs`` counts the
    exchanges that ran since the flip."""
    from raycrawl.ops import common

    group_buckets = common.group_buckets

    def forced(rows):
        force.runs += 1
        return group_buckets(max(rows, common.BUCKET_TARGET_ROWS + 1))

    def force():
        monkeypatch.setattr(common, "group_buckets", forced)

    force.runs = 0
    return force


@pytest.fixture
def split_reads(monkeypatch):
    """Returns a switch that sends every later ``common.table`` read
    through Ray's default split, as a table over ``ONE_TASK_SLICE_ROWS``
    footer rows is read: ``read_blocks`` sizes each read as if one row more
    than one block holds were in the footers. Every test table fits one
    block, so without the flip no op reads more than one block and no
    cross-block partial merge runs. ``split_reads.runs`` counts the reads
    sized since the flip."""
    from raycrawl.ops import common

    read_blocks = common.read_blocks

    def forced(rows, blocks):
        split.runs += 1
        return read_blocks(max(rows, common.ONE_TASK_SLICE_ROWS + 1), blocks)

    def split():
        monkeypatch.setattr(common, "read_blocks", forced)

    split.runs = 0
    return split
