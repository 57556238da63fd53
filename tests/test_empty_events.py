"""Events ops on an events table with NO rows, against their SQL.

The table set is sf0.001 with ``events`` rewritten to zero rows (same
schema). Ray 2.49 hands an empty block through ``map_batches`` without
calling the UDF, so a final combine sees the input's columns or none, and
the ``to_pandas`` of an empty Dataset has no columns. Before these ops
handled it, ten of them returned a result with no columns
(events_per_minute, hourly_user_windows, user_sessions_30m,
asof_last_purchase, running_event_index, sliding_window_counts,
user_interarrival_stats, rolling_value_mean_5, user_event_profile,
top2_events_per_user), rolling_7d_distinct_users raised ``KeyError:
'day'``, first_touch_event_share ``KeyError: 'event_type'`` and
label_propagation ``KeyError: 'src'``."""

import importlib.util
import os

import pyarrow.parquet as pq
import pytest

from tests.oracle_utils import TABLES, oracle, run_query
from tests.test_empty_side import SF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EMPTY_EVENTS_OPS = (
    "events_per_minute", "hourly_user_windows", "user_sessions_30m",
    "rolling_7d_distinct_users", "label_propagation", "asof_last_purchase",
    "running_event_index", "sliding_window_counts", "user_interarrival_stats",
    "rolling_value_mean_5", "user_event_profile", "top2_events_per_user",
    "first_touch_event_share",
)


@pytest.fixture(scope="module")
def no_events(tmp_path_factory):
    d = tmp_path_factory.mktemp("no_events")
    for name in TABLES:
        if name != "events":
            (d / f"{name}.parquet").symlink_to(f"{SF}/{name}.parquet")
    schema = pq.read_schema(f"{SF}/events.parquet")
    pq.write_table(schema.empty_table(), str(d / "events.parquet"))
    return str(d)


def _compare():
    path = os.path.join(REPO, "tools", "check_correctness.py")
    spec = importlib.util.spec_from_file_location("check_correctness", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.compare


@pytest.mark.parametrize("name", EMPTY_EVENTS_OPS)
def test_events_ops_on_no_events_match_sql(ray_session, no_events, name):
    got = run_query(name, no_events)
    assert _compare()(name, got, oracle(name, no_events)) == []
