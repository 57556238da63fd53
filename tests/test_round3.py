"""Round-3 hardening: cluster-aware join sizing enforcement, magic-byte
codec dispatch, frontier-metrics reconciliation, mid-epoch crash resume,
and the real-Lance round-trip contract (skips while the wheel is absent)."""

import os
import re
import struct

import numpy as np
import pandas as pd
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"


# ------------------------------------------------------- join sizing policy


def _source_files():
    for root, _dirs, files in os.walk(os.path.join(REPO, "raycrawl")):
        for f in files:
            if f.endswith(".py"):
                yield os.path.join(root, f)


def test_no_hardcoded_join_partition_literals():
    """Every ``Dataset.join`` must size ``num_partitions`` through
    ``join_partitions()`` (ops/common.py) — a mis-sized literal measured
    >2 min vs ~6 s on a 4-CPU node. Enforced by grep: no numeric literal
    may be assigned to num_partitions anywhere in the library."""
    pat = re.compile(r"num_partitions\s*[=:]\s*\d")
    offenders = []
    for path in _source_files():
        with open(path) as f:
            for i, line in enumerate(f, 1):
                if pat.search(line):
                    offenders.append(f"{os.path.relpath(path, REPO)}:{i}")
    assert not offenders, f"hardcoded join partition counts: {offenders}"


def test_join_sites_reference_the_helper():
    """Any module containing a ``.join(`` Dataset call must import
    join_partitions (directly or resolve a num_partitions=None default
    through it)."""
    join_pat = re.compile(r"\.join\(\s*$|\.join\(\s*\w")
    for path in _source_files():
        src = open(path).read()
        # Dataset.join callsites pass join_type=; str.join / os.path.join don't
        if "join_type=" not in src:
            continue
        assert "join_partitions" in src, (
            f"{os.path.relpath(path, REPO)} has Dataset.join sites but "
            "never references join_partitions()"
        )


def test_gates_decide_through_common_gate():
    """Every broadcast/driver-path gate in ``raycrawl/ops`` and
    ``raycrawl/pipelines`` decides through ``common.gate``, its only
    writer of ``PATH_LOG``. Enforced by grep: no other module there
    touches ``PATH_LOG``, compares ``table_num_rows(...)`` against a
    bound, or imports ``gate`` by name (the tests' forcing wrapper
    replaces ``common.gate`` and would miss such a binding)."""
    compare = re.compile(r"table_num_rows\([^()]*\)\s*(<|>|==|!=)")
    imports = re.compile(r"from\s+[.\w]*common\s+import\s*(\([^)]*\)|.*)")
    offenders = []
    for path in _source_files():
        rel = os.path.relpath(path, REPO)
        if (not rel.startswith(("raycrawl/ops/", "raycrawl/pipelines/"))
                or rel == "raycrawl/ops/common.py"):
            continue
        src = open(path).read()
        if "PATH_LOG" in src:
            offenders.append(f"{rel}: PATH_LOG")
        if compare.search(src):
            offenders.append(f"{rel}: table_num_rows compared to a bound")
        if any(re.search(r"\bgate\b", m.group(1))
               for m in imports.finditer(src)):
            offenders.append(f"{rel}: imports gate by name")
    assert not offenders, f"gates bypassing common.gate: {offenders}"


def test_join_partitions_is_node_aware(ray_session):
    from raycrawl.ops.common import join_partitions

    n = join_partitions()
    assert isinstance(n, int) and n >= 4
    # single test node: CPU//divisor clamped to [floor, cap_per_node×nodes]
    import ray

    cpus = int(ray.cluster_resources()["CPU"])
    nodes = sum(1 for x in ray.nodes() if x.get("Alive"))
    assert n == max(4, min(16 * nodes, cpus // 4))


# --------------------------------------------------- codec magic dispatch


REAL_JPEG = b"\xff\xd8\xff\xe0\x00\x10JFIF\x00" + b"\x00" * 64
REAL_PNG = b"\x89PNG\r\n\x1a\n" + b"\x00" * 64
REAL_GIF = b"GIF89a" + b"\x00" * 64
REAL_WEBP = b"RIFF\x24\x00\x00\x00WEBP" + b"\x00" * 64


def test_sniff_image_format_classifies_by_magic():
    from raycrawl.core.codec import (
        encode_image,
        sniff_image_format,
        synth_pixels,
    )

    assert sniff_image_format(REAL_JPEG) == "jpeg"
    assert sniff_image_format(REAL_PNG) == "png"
    assert sniff_image_format(REAL_GIF) == "gif"
    assert sniff_image_format(REAL_WEBP) == "webp"
    px = synth_pixels(7, 16, 16)
    assert sniff_image_format(encode_image(px, "png")) == "fake-png"
    assert sniff_image_format(encode_image(px, "jpeg")) == "fake-jpeg"
    assert sniff_image_format(b"\x00garbage\x00\x00\x00\x00") == "unknown"


def test_real_bytes_hit_the_marked_seam_not_the_fake_codec():
    """A real JPEG/PNG byte string must raise the clearly-marked
    ``NotImplementedError`` from decode_real_image — previously it died
    inside zlib with an unrelated error because the fake-codec header was
    parsed before the magic check."""
    from raycrawl.core.codec import decode_image

    for payload in (REAL_JPEG, REAL_PNG, REAL_GIF, REAL_WEBP):
        with pytest.raises(NotImplementedError, match="real image decoding"):
            decode_image(payload)


def test_garbage_bytes_raise_value_error_not_misdecode():
    from raycrawl.core.codec import decode_image

    with pytest.raises(ValueError, match="unrecognized image payload"):
        decode_image(b"\x00\x01\x02\x03" + struct.pack("<II", 4, 4) + b"junk")


def test_fake_codec_roundtrip_still_green():
    import numpy as np

    from raycrawl.core.codec import decode_image, encode_image, psnr, synth_pixels

    px = synth_pixels(11, 24, 18)
    out, fmt = decode_image(encode_image(px, "png"))
    assert fmt == "png" and np.array_equal(out, px)
    out, fmt = decode_image(encode_image(px, "jpeg"))
    assert fmt == "jpeg" and psnr(px, out) >= 40.0


# -------------------------------------- frontier metrics reconciliation


def test_frontier_metrics_reconcile_with_crawl_stats(ray_session, tmp_path):
    """The ``crawl_frontier_metrics`` manifest rows must reconcile with the
    live CrawlStats counters: per-key totals equal, and the drained-crawl
    invariant accepted == fetched + phash_suppressed + fetch_errors holds
    per shard (everything accepted eventually pops)."""
    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import CrawlConfig, run_crawl
    from raycrawl.ops.crawlq import frontier_metrics_frame

    web = WebConfig(n_hosts=5, pages_per_host=16)
    out = str(tmp_path / "crawl")
    cfg = CrawlConfig(web=web, out_dir=out, num_shards=3, max_epochs=60)
    stats = run_crawl(cfg, seed_urls(web))

    frame = frontier_metrics_frame(out).sort_values("shard")
    assert len(frame) == 3
    live = pd.DataFrame(stats.metrics).sort_values("shard") \
        if "shard" in pd.DataFrame(stats.metrics).columns \
        else pd.DataFrame(stats.metrics)

    for key in ("offered", "accepted", "fetched", "robots_denied",
                "phash_suppressed", "fetch_errors"):
        assert frame[key].sum() == sum(m[key] for m in stats.metrics), key

    # drained crawl: every accepted URL was popped and resolved one way
    resolved = frame["fetched"] + frame["phash_suppressed"] + frame["fetch_errors"]
    assert (frame["accepted"] == resolved).all()
    # unique digests offered = accepted + robots_denied (seen-set adds
    # happen before the robots gate); duplicates never enter either count
    assert (frame["seen_count"] == frame["accepted"] + frame["robots_denied"]).all()
    assert frame["fetched"].sum() == stats.payload_rows


# ------------------------------------------------ mid-epoch crash resume


def test_resume_discards_partial_epoch_written_mid_crash(ray_session, tmp_path):
    """Kill *inside* an epoch write: the payload dir of the uncheckpointed
    epoch exists but its files are truncated garbage and its sidecars are
    corrupt. Resume must discard exactly that epoch without reading it and
    converge to the uninterrupted run's payload."""
    import shutil

    from raycrawl.core.webgraph import WebConfig, seed_urls
    from raycrawl.crawler import (
        CrawlConfig,
        latest_checkpoint_epoch,
        read_payload,
        run_crawl,
    )

    web = WebConfig(n_hosts=5, pages_per_host=16)

    def run(out, max_epochs, resume=False):
        cfg = CrawlConfig(web=web, out_dir=out, num_shards=3,
                          max_epochs=max_epochs, saving_period=3,
                          collect_parity_outputs=True)
        return run_crawl(cfg, seed_urls(web), resume=resume)

    full_out = str(tmp_path / "full")
    part_out = str(tmp_path / "part")
    run(full_out, max_epochs=50)

    run(part_out, max_epochs=4)
    last = latest_checkpoint_epoch(part_out)
    assert last == 3
    # crash simulation: epoch 3's checkpoint never landed, and its payload
    # files were half-written at kill time
    shutil.rmtree(os.path.join(part_out, "checkpoints", "epoch=3"))
    epdir = os.path.join(part_out, "payload", "epoch=3")
    for f in os.listdir(epdir):
        p = os.path.join(epdir, f)
        data = open(p, "rb").read()
        with open(p, "wb") as fh:
            fh.write(data[: max(1, len(data) // 2)])  # torn write
    sup = os.path.join(part_out, "suppressed", "epoch=3.parquet")
    if os.path.exists(sup):
        with open(sup, "wb") as fh:
            fh.write(b"torn")

    run(part_out, max_epochs=50, resume=True)

    cols = ["image_id", "caption", "phash", "w", "h", "fmt", "url"]
    a = read_payload(full_out).to_pandas().sort_values("image_id")
    b = read_payload(part_out).to_pandas().sort_values("image_id")
    pd.testing.assert_frame_equal(
        a[cols].reset_index(drop=True), b[cols].reset_index(drop=True)
    )


# ----------------------------------------------------- real-Lance contract


def test_lance_roundtrip_real_wheel():
    """Real ``lance`` round-trip through io/lancelike: write a table, read
    it back identical, and the manifest/version surface exists. Skips
    cleanly while the wheel is absent from the sandbox — the moment it
    appears, the HAVE_LANCE branch is covered with zero new work."""
    lance = pytest.importorskip("lance")
    import pyarrow as pa

    from raycrawl.io import lancelike

    assert lancelike.HAVE_LANCE
    import tempfile

    t = pa.table({"image_id": ["a", "b"], "bytes": [b"x", b"yy"],
                  "caption": ["c1", "c2"], "phash": [1, 2]})
    with tempfile.TemporaryDirectory() as d:
        uri = os.path.join(d, "tbl.lance")
        lancelike.write_table_flat(t, uri)
        back = lancelike.read_table(uri)
        assert back.sort_by("image_id").equals(t)
        ds = lance.dataset(uri)
        assert ds.version >= 1


# ------------------------------------------- bucketed high-cardinality agg


class TestBucketedGroupAgg:
    """common.bucketed_group_agg replaces Dataset.groupby().aggregate() for
    near-unique keys (the per-key Python reduce scales with distinct-key
    count — measured 33 s at 4M keys, >15 min at 33M; the bucketed shape
    took 1.7 s / 39 s). These tests pin its correctness contract: exact
    equivalence with a global pandas groupby, for int, string and
    composite keys, across bucket counts."""

    def _run(self, df, key_cols, agg):
        import ray.data as rd

        from raycrawl.ops.common import bucketed_group_agg

        ds = rd.from_pandas(df).repartition(4)
        out = bucketed_group_agg(ds, key_cols, agg)
        return (
            out.to_pandas()
            .sort_values(key_cols if set(key_cols) <= set(out.schema().names)
                         else out.schema().names[0])
            .reset_index(drop=True)
        )

    def test_int_key_sum_matches_global_groupby(self, ray_session):
        rng = np.random.Generator(np.random.PCG64(11))
        df = pd.DataFrame(
            {"k": rng.integers(0, 5000, 20_000), "v": rng.integers(0, 100, 20_000)}
        )
        got = self._run(
            df, ["k"],
            lambda g: g.groupby("k", as_index=False).agg(s=("v", "sum"),
                                                         n=("v", "size")),
        )
        want = (
            df.groupby("k", as_index=False)
            .agg(s=("v", "sum"), n=("v", "size"))
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_string_and_composite_keys(self, ray_session):
        rng = np.random.Generator(np.random.PCG64(12))
        df = pd.DataFrame(
            {
                "a": [f"key-{i % 700}" for i in range(8_000)],
                "b": rng.integers(0, 3, 8_000),
                "v": rng.normal(size=8_000),
            }
        )
        got = self._run(
            df, ["a", "b"],
            lambda g: g.groupby(["a", "b"], as_index=False).agg(m=("v", "min")),
        )
        want = (
            df.groupby(["a", "b"], as_index=False)
            .agg(m=("v", "min"))
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_every_key_lands_in_exactly_one_bucket(self, ray_session,
                                                   force_exchange):
        """The load-bearing invariant: rows of one key never split across
        buckets (a split key would double-count). Aggregating group sizes
        through the helper must reproduce the global value_counts."""
        rng = np.random.Generator(np.random.PCG64(13))
        df = pd.DataFrame({"k": rng.integers(0, 50, 10_000)})
        force_exchange()
        got = self._run(
            df, ["k"],
            lambda g: g.groupby("k", as_index=False).agg(n=("k", "size")),
        )
        assert force_exchange.runs
        assert int(got["n"].sum()) == len(df)
        want = df["k"].value_counts().sort_index()
        assert list(got.sort_values("k")["n"]) == list(want)

    def test_group_buckets_scales_with_rows(self):
        from raycrawl.ops.common import BUCKET_TARGET_ROWS, group_buckets

        # a stream that fits one bucket is combined by one task
        assert group_buckets(0) == group_buckets(BUCKET_TARGET_ROWS) == 1
        assert group_buckets(BUCKET_TARGET_ROWS + 1) >= 8
        assert group_buckets(BUCKET_TARGET_ROWS * 1000) >= 1000

    # -- the exchange is chosen from the observed partial row count: a
    # stream within BUCKET_TARGET_ROWS is combined by one task; sizing the
    # same input as one row over it forces the bucketed Sort exchange

    def _both(self, ds_fn, key_cols, agg, monkeypatch):
        from raycrawl.ops import common

        one = common.bucketed_group_agg(ds_fn(), key_cols, agg)
        group_buckets = common.group_buckets
        with monkeypatch.context() as m:
            m.setattr(common, "group_buckets", lambda rows: group_buckets(
                common.BUCKET_TARGET_ROWS + 1))
            ex = common.bucketed_group_agg(ds_fn(), key_cols, agg)
        return one, ex

    @staticmethod
    def _sorted(out, cols):
        return out.to_pandas().sort_values(cols).reset_index(drop=True)

    @staticmethod
    def _operators(ds) -> list:
        ops, todo = [], [ds._logical_plan.dag]
        while todo:
            op = todo.pop()
            ops.append(op)
            todo.extend(op.input_dependencies)
        return ops

    @pytest.mark.parametrize("keys", [["k"], ["a"], ["a", "k"]])
    def test_one_task_equals_bucketed_exchange(self, ray_session,
                                               monkeypatch, keys):
        import ray.data as rd

        rng = np.random.Generator(np.random.PCG64(14))
        n = 12_000
        df = pd.DataFrame({"k": rng.integers(0, 3000, n),
                           "a": [f"key-{i % 900}" for i in range(n)],
                           "v": rng.integers(0, 100, n)})

        def agg(g):
            return g.groupby(keys, as_index=False).agg(s=("v", "sum"),
                                                       n=("v", "size"))

        one, ex = self._both(lambda: rd.from_pandas(df).repartition(4),
                             keys, agg, monkeypatch)
        got, forced = self._sorted(one, keys), self._sorted(ex, keys)
        want = agg(df).sort_values(keys).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        pd.testing.assert_frame_equal(got, forced)

    def test_empty_input_keeps_the_result_columns(self, ray_session,
                                                  monkeypatch):
        import ray.data as rd

        df = pd.DataFrame({"k": np.arange(100), "v": np.arange(100)})

        def agg(g):
            return g.groupby("k", as_index=False).agg(s=("v", "sum"))

        one, ex = self._both(
            lambda: rd.from_pandas(df).repartition(4).filter(expr="k < 0"),
            ["k"], agg, monkeypatch)
        assert len(one.to_pandas()) == 0 and len(ex.to_pandas()) == 0
        assert one.schema().names == ["k", "s"]

    def test_empty_pandas_blocks_upstream(self, ray_session, monkeypatch):
        """A pandas stage that empties some blocks leaks empty pandas
        blocks into the partial stream; both branches skip them."""
        import ray.data as rd

        df = pd.DataFrame({"k": np.arange(400) % 37, "v": np.ones(400, int)})

        def agg(g):
            return g.groupby("k", as_index=False).agg(s=("v", "sum"))

        one, ex = self._both(
            lambda: rd.from_pandas(df).repartition(4).map_batches(
                lambda b: b[b["k"] < 5] if b["k"].iloc[0] == 0 else b.iloc[:0],
                batch_size=None, batch_format="pandas"),
            ["k"], agg, monkeypatch)
        want = agg(df.iloc[:100][df["k"].iloc[:100] < 5])
        for out in (one, ex):
            pd.testing.assert_frame_equal(self._sorted(out, ["k"]),
                                          want.reset_index(drop=True))
        # all blocks empty: one empty frame with the partial columns
        one, _ = self._both(
            lambda: rd.from_pandas(df).repartition(4).map_batches(
                lambda b: b.iloc[:0], batch_size=None, batch_format="pandas"),
            ["k"], agg, monkeypatch)
        assert one.schema().names == ["k", "s"]

    def test_one_task_branch_runs_no_all_to_all(self, ray_session,
                                                monkeypatch):
        import ray.data as rd
        from ray.data._internal.logical.operators.all_to_all_operator import (
            AbstractAllToAll,
        )

        df = pd.DataFrame({"k": np.arange(1000) % 50, "v": np.arange(1000)})
        one, ex = self._both(
            lambda: rd.from_pandas(df).map_batches(lambda b: b,
                                                   batch_format="pandas"),
            ["k"], lambda g: g.groupby("k", as_index=False)["v"].sum(),
            monkeypatch)
        assert not [op for op in self._operators(one)
                    if isinstance(op, AbstractAllToAll)]
        assert [op for op in self._operators(ex)
                if isinstance(op, AbstractAllToAll)]
        pd.testing.assert_frame_equal(self._sorted(one, ["k"]),
                                      self._sorted(ex, ["k"]))

    def test_large_one_task_result_comes_back_in_blocks(self, ray_session,
                                                        monkeypatch):
        """The one task's result is cut into blocks of at least
        ONE_TASK_SLICE_ROWS rows, at most one per CPU; a result under two
        slices, and an empty one, stay one block."""
        import ray.data as rd

        from raycrawl.ops import common

        monkeypatch.setattr(common, "ONE_TASK_SLICE_ROWS", 100)
        df = pd.DataFrame({"k": np.arange(1000), "v": np.arange(1000)})

        def agg(g):
            return g.groupby("k", as_index=False).agg(s=("v", "sum"))

        def run(d, fn=agg):
            out = common.bucketed_group_agg(
                rd.from_pandas(d).repartition(4), ["k"], fn).materialize()
            return out, out.num_blocks()

        out, blocks = run(df)  # 1000 rows, 4 CPUs: 4 blocks of 250
        assert blocks == 4
        pd.testing.assert_frame_equal(self._sorted(out, ["k"]), agg(df))
        out, blocks = run(df, lambda g: agg(g).head(150))
        assert blocks == 1 and out.count() == 150
        out, blocks = run(df, lambda g: agg(g).iloc[:0])
        assert blocks == 1 and out.schema().names == ["k", "s"]


# ------------------------------------------------- incremental recrawl delta


class TestPayloadDelta:
    """payload_delta's distributed full-outer join + status compute must
    reproduce a pandas-merge oracle over the same two payloads exactly,
    and satisfy the per-scenario invariants (identity → all same; grown
    universe → added > 0; changed content seed → changed rows exist)."""

    CONTENT = ["w", "h", "fmt", "phash", "caption"]

    def _crawl(self, tmp_path, name, **web_kw):
        from raycrawl.core.webgraph import WebConfig, seed_urls
        from raycrawl.crawler import CrawlConfig, run_crawl

        web_kw = {"n_hosts": 4, "pages_per_host": 6, **web_kw}
        web = WebConfig(**web_kw)
        out = str(tmp_path / name)
        run_crawl(
            CrawlConfig(web=web, out_dir=out, num_shards=2, max_epochs=40),
            seed_urls(web),
        )
        return out

    def _oracle(self, dir_a, dir_b):
        from raycrawl.crawler import read_payload

        cols = ["image_id"] + self.CONTENT
        a = read_payload(dir_a, columns=cols).to_pandas()
        b = read_payload(dir_b, columns=cols).to_pandas()
        m = a.merge(b, on="image_id", how="outer", suffixes=("", "_b"),
                    indicator=True)
        same = m[[c + "_b" for c in self.CONTENT]].to_numpy() == \
            m[self.CONTENT].to_numpy()
        status = pd.Series("removed", index=m.index)
        status[m["_merge"] == "right_only"] = "added"
        both = m["_merge"] == "both"
        status[both] = "changed"
        status[both & same.all(axis=1)] = "same"
        return (
            pd.DataFrame({"image_id": m["image_id"], "status": status})
            .sort_values("image_id")
            .reset_index(drop=True)
        )

    def _got(self, dir_a, dir_b):
        from raycrawl.ops.crawlq import payload_delta

        return (
            payload_delta(dir_a, dir_b)
            .to_pandas()
            .sort_values("image_id")
            .reset_index(drop=True)
        )

    def test_matches_pandas_oracle_and_invariants(self, ray_session, tmp_path):
        a = self._crawl(tmp_path, "a")
        b = self._crawl(tmp_path, "b", pages_per_host=8)   # grown universe
        c = self._crawl(tmp_path, "c", seed=43)            # content change

        # identity: every row same
        ident = self._got(a, a)
        assert set(ident["status"]) == {"same"}

        for x, y in ((a, b), (b, a), (a, c)):
            got = self._got(x, y)
            want = self._oracle(x, y)
            pd.testing.assert_frame_equal(got, want)

        grown = self._got(a, b)
        assert (grown["status"] == "added").sum() > 0
        assert set(self._got(b, a)["status"]) >= {"removed"} or \
            (self._got(b, a)["status"] == "removed").sum() > 0
        reseeded = self._got(a, c)
        assert (reseeded["status"] == "changed").sum() > 0


# ---------------------------------------------------- crawl host fairness


def test_crawl_host_fairness_matches_pandas(ray_session):
    from raycrawl.crawler import read_payload
    from raycrawl.ops import REGISTRY
    from raycrawl.ops.crawlq import fixture_dir

    t = REGISTRY["crawl_host_fairness"]["fn"](SF)
    pay = read_payload(fixture_dir("main", SF), columns=["url"]).to_pandas()
    hosts = pay["url"].str.split("://").str[1].str.split("/").str[0]
    counts = hosts.value_counts()
    assert t["n_hosts"][0].as_py() == counts.size
    assert t["total_rows"][0].as_py() == len(pay)
    assert t["max_host_rows"][0].as_py() == int(counts.max())
    import pytest as _pt

    assert t["top_host_share"][0].as_py() == _pt.approx(
        counts.max() / len(pay), abs=1e-6)
