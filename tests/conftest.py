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


@pytest.fixture
def force_gates(monkeypatch):
    """Records every ``common.gate`` decision and returns a switch that
    forces later ones: ``force_gates(False)`` sends every gate to its
    partitioned side, as rows one over its bound would;
    ``force_gates(True)`` sends it to its small side (broadcast, driver,
    bitset); ``force_gates(small, "orders", ...)`` forces only the named
    sides and leaves the rest to decide from their rows. Calls add up, so
    different sides can be forced different ways; ``force_gates(None)``
    lifts every forcing. The real ``gate`` still decides, on the forced
    row count, so ``PATH_LOG`` is written as usual.
    ``force_gates.seen`` lists the ``(op, side, rows, bound, small)``
    decisions, with the observed rows, made since the last switch (or the
    fixture's start); ``force_gates.sides(op)`` maps each side of ``op``
    to its last decision there."""
    from raycrawl.ops import common

    gate = common.gate
    forced: dict = {}

    def recorded(op, side, rows, bound):
        small = forced.get(side, forced.get(None))
        at = rows
        if small is not None:
            at = min(rows, bound) if small else max(rows, bound + 1)
        decided = gate(op, side, at, bound)
        force.seen.append((op, side, rows, bound, decided))
        return decided

    def force(small, *sides):
        if small is None:
            forced.clear()
        for side in sides or (None,):
            forced[side] = small
        force.seen.clear()

    def sides(op):
        return {s: small for o, s, _, _, small in force.seen if o == op}

    force.seen = []
    force.sides = sides
    monkeypatch.setattr(common, "gate", recorded)
    return force
