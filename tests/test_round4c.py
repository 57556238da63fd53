"""Round-4 operator batch: blocked edit-distance near-dups, brand
association rules (support/confidence/lift), and binned two-sample KS
drift — oracle parity, branch equivalence for the adaptive gate, and a
unit check of the vectorized Levenshtein DP against the textbook one."""

import numpy as np
import pandas as pd
import pytest

from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"

NEW_OPS = [
    "caption_edit_distance_neardups",
    "brand_association_rules",
    "event_value_ks_drift",
]


@pytest.mark.parametrize("name", NEW_OPS)
def test_new_ops_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_association_rules_join_branch(ray_session, force_gates):
    """Forcing the broadcast gate shut must route through Dataset.join and
    produce the identical rule table."""
    from raycrawl.ops.relops4 import brand_association_rules

    force_gates(False, "part")
    got = norm(brand_association_rules(SF).to_pandas())
    assert force_gates.sides("brand_association_rules") == {"part": False}
    want = norm(oracle("brand_association_rules", SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _lev_reference(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a):
        cur = [i + 1]
        for j, cb in enumerate(b):
            cur.append(min(prev[j + 1] + 1, cur[j] + 1,
                           prev[j] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_levenshtein_matches_reference():
    from raycrawl.ops.relops4 import _codepoints, _levenshtein

    rng = np.random.default_rng(7)
    alpha = "abcde"
    cases = [("", ""), ("", "abc"), ("abc", ""), ("kitten", "sitting")]
    for _ in range(60):
        la, lb = rng.integers(0, 12, size=2)
        a = "".join(rng.choice(list(alpha), size=la))
        b = "".join(rng.choice(list(alpha), size=lb))
        cases.append((a, b))
    for a, b in cases:
        assert _levenshtein(_codepoints(a), _codepoints(b)) == \
            _lev_reference(a, b), (a, b)


def test_ks_drift_detects_planted_shift(ray_session, tmp_path):
    """A synthetic events table whose late half is shifted by +10 must
    produce a large KS stat, and an unshifted type a near-zero one."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raycrawl.ops.relops4 import event_value_ks_drift

    rng = np.random.default_rng(3)
    n = 4000
    ts = pa.array(
        (np.arange(n, dtype=np.int64)
         + np.datetime64("2024-01-01", "us").astype(np.int64))
        .view("datetime64[us]")
    )
    half = np.arange(n) >= n // 2
    shifted = rng.normal(0, 1, n) + np.where(half, 10.0, 0.0)
    stable = rng.normal(0, 1, n)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(2 * n)),
            "ts": pa.concat_arrays([ts, ts]),
            "user_id": pa.array(np.zeros(2 * n, dtype=np.int64)),
            "event_type": pa.array(["shifted"] * n + ["stable"] * n),
            "value": pa.array(np.concatenate([shifted, stable])),
            "props": pa.array([""] * (2 * n)),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = event_value_ks_drift(str(tmp_path)).to_pandas()
    ks = dict(zip(out["event_type"], out["ks_stat"]))
    assert ks["shifted"] > 0.9
    assert ks["stable"] < 0.1
    assert (out["n_early"] + out["n_late"]).tolist() == [n, n]


# ---------------------------------------------------------------------------
# KLL rank sketch


def _rank_error(sk, data):
    data = np.sort(data)
    n = len(data)
    worst = 0.0
    for phi in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        est = sk.quantile(phi)
        true_rank = np.searchsorted(data, est, side="right")
        worst = max(worst, abs(true_rank - phi * n) / n)
    return worst


@pytest.mark.parametrize(
    "gen",
    [
        lambda rng: rng.uniform(0, 1, 100_000),
        lambda rng: np.sort(rng.normal(0, 1, 100_000)),  # adversarial order
        lambda rng: rng.lognormal(0, 3, 100_000),  # heavy skew
    ],
    ids=["uniform", "sorted", "lognormal"],
)
def test_kll_rank_error_bounded(gen):
    from raycrawl.ops.sketches_ops import _KLL

    rng = np.random.default_rng(11)
    data = gen(rng)
    sk = _KLL()
    for chunk in np.array_split(data, 37):  # uneven block sizes
        sk.insert(chunk)
    assert sk.n == len(data)  # exact-mass invariant
    size = sum(len(b) for b in sk.levels)
    assert size < 5_000  # bounded state
    assert _rank_error(sk, data) <= 0.01


def test_kll_merge_matches_single_sketch_error(ray_session):
    """Merging per-block serialized sketches must keep the same error
    bound, independent of block arrival order."""
    from raycrawl.ops.sketches_ops import _KLL

    rng = np.random.default_rng(5)
    data = rng.gamma(2.0, 10.0, 120_000)
    parts = np.array_split(data, 23)
    tabs = []
    for p in parts:
        s = _KLL()
        s.insert(p)
        tabs.append(s.rows().to_pandas())
    for order in (parts, parts[::-1]):
        frames = tabs if order is parts else tabs[::-1]
        cat = pd.concat(frames, ignore_index=True)
        merged = _KLL.from_rows(
            cat["level"].to_numpy(np.int64),
            cat["value"].to_numpy(np.float64),
        )
        assert merged.n == len(data)
        assert _rank_error(merged, data) <= 0.015


def test_kll_registry_query_close_to_exact(ray_session):
    import duckdb

    from tests.oracle_utils import run_query

    got = run_query("kll_value_quantiles", SF)
    exact = duckdb.sql(
        f"SELECT value FROM read_parquet('{SF}/events.parquet')"
    ).df()["value"].to_numpy()
    n = len(exact)
    assert got["n"].unique().tolist() == [n]
    exact.sort()
    for _, row in got.iterrows():
        phi = float(row["quantile"][1:]) / 100.0
        true_rank = np.searchsorted(exact, row["value"], side="right")
        assert abs(true_rank - phi * n) / n <= 0.015, row["quantile"]


def test_rrf_fused_topk_matches_oracle(ray_session):
    got, want = (
        norm(run_query("rrf_fused_topk", SF)),
        norm(oracle("rrf_fused_topk", SF)),
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_rrf_fusion_properties(ray_session):
    out = run_query("rrf_fused_topk", SF)
    assert len(out) == 20
    # a doc ranked #1 in both lists would score 2/(60+1); nothing can beat it
    assert (out["rrf"] <= 2.0 / 61 + 1e-12).all()
    # fused list is ordered by rrf desc
    assert (out["rrf"].to_numpy()[:-1] >= out["rrf"].to_numpy()[1:]).all()
    # every fused doc appears in at least one source list
    assert ((out["lex_rank"] > 0) | (out["sem_rank"] > 0)).all()


def test_props_extraction_matches_oracle(ray_session):
    got, want = (
        norm(run_query("props_value_by_event_type", SF)),
        norm(oracle("props_value_by_event_type", SF)),
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_props_extraction_dead_letters(ray_session, tmp_path):
    """Malformed props rows parse as NULL and are counted, never fatal."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raycrawl.ops.relops4 import props_value_by_event_type

    t = pa.table(
        {
            "event_type": pa.array(["a", "a", "a", "b"]),
            "props": pa.array(
                ['{"k": 3}', "not json", '{"other": 1}', '{"k": -7}']
            ),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = props_value_by_event_type(str(tmp_path)).to_pandas()
    a = out[out["event_type"] == "a"].iloc[0]
    assert (a["n"], a["n_parsed"], a["sum_k"]) == (3, 1, 3)
    b = out[out["event_type"] == "b"].iloc[0]
    assert (b["n_parsed"], b["min_k"]) == (1, -7)


def test_levenshtein_bounded_agrees_below_threshold():
    from raycrawl.ops.relops4 import (
        _codepoints, _levenshtein, _levenshtein_bounded)

    rng = np.random.default_rng(17)
    alpha = "abcd"
    for _ in range(300):
        la, lb = rng.integers(0, 20, size=2)
        a = "".join(rng.choice(list(alpha), size=la))
        b = "".join(rng.choice(list(alpha), size=lb))
        for k in (0, 1, 3, 5):
            exact = _levenshtein(_codepoints(a), _codepoints(b))
            bounded = _levenshtein_bounded(_codepoints(a), _codepoints(b), k)
            if exact <= k:
                assert bounded == exact, (a, b, k)
            else:
                assert bounded > k, (a, b, k)


@pytest.mark.parametrize(
    "name", ["funnel_time_to_convert", "equi_depth_value_histogram"]
)
def test_latency_and_histogram_match_oracle(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_equi_depth_mass_and_monotone(ray_session):
    out = run_query("equi_depth_value_histogram", SF)
    import duckdb

    n = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/events.parquet')"
    ).fetchone()[0]
    assert int(out["n"].sum()) == n  # buckets partition the corpus
    assert out["hi_edge"].is_monotonic_increasing
    # equal-depth: every bucket within ±1 rounded-value-run of n/8
    assert (out["n"] > 0).all()


def test_pq_code_dedup_matches_oracle(ray_session):
    got, want = (
        norm(run_query("pq_code_dedup_groups", SF)),
        norm(oracle("pq_code_dedup_groups", SF)),
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # keeper is always a member-minimum: group sizes >= 2, keeper unique
    assert (got["n_vecs"] >= 2).all()
    assert got["keeper_vec_id"].is_unique
