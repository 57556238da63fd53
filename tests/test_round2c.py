"""Round-2 closing operator batch: multi-level ROLLUP, NTILE window
buckets, corpus wordcount top-k, forward-window interval self-join, and
the embedding-column statistics pair — DuckDB-oracle parity at sf0.001
plus the invariants the value-hash can't see."""

import numpy as np
import pandas as pd
import pytest

from raycrawl.ops import REGISTRY  # noqa: F401  (queries register on import)
from tests.oracle_utils import norm, oracle, run_query

SF = "/root/testdata/sf0.001"


@pytest.mark.parametrize(
    "name",
    [
        "rollup_revenue",
        "ntile_customer_quartiles",
        "top_words_corpus",
        "event_followup_5m_by_type",
        "embedding_norm_stats",
        "label_centroid_cosine",
        "train_eval_split_counts",
    ],
)
def test_oracle_parity(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_rollup_join_path_equals_broadcast_path(ray_session, force_gates):
    """Past the broadcast threshold the orders⋈customer mapping must run
    through Dataset.join and produce the identical rollup."""
    from raycrawl.ops.queries import rollup_revenue

    force_gates(False, "customer")
    got = norm(rollup_revenue(SF).to_pandas())
    assert force_gates.sides("rollup_revenue") == {"customer": False}
    want = norm(oracle("rollup_revenue", SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_rollup_levels_are_consistent(ray_session):
    """Each region subtotal equals the sum of its nation rows, and the
    grand total equals the sum of the region subtotals."""
    df = run_query("rollup_revenue", SF)
    nations = df[(df["nation"] != "ALL")]
    regions = df[(df["nation"] == "ALL") & (df["region"] != "ALL")]
    total = df[(df["region"] == "ALL")]
    for _, r in regions.iterrows():
        part = nations[nations["region"] == r["region"]]
        assert int(part["n_orders"].sum()) == int(r["n_orders"])
        assert abs(part["revenue"].sum() - r["revenue"]) < 1e-6
    assert int(total["n_orders"].iloc[0]) == int(nations["n_orders"].sum())


def test_ntile_buckets_are_balanced(ray_session):
    """NTILE(4) bucket sizes within a nation differ by at most 1 and the
    earlier buckets hold the smaller balances (avg is non-decreasing)."""
    df = run_query("ntile_customer_quartiles", SF)
    for _, g in df.groupby("n_name"):
        sizes = g.sort_values("quartile")["n"].to_numpy()
        assert sizes.max() - sizes.min() <= 1
        avgs = g.sort_values("quartile")["avg_bal"].to_numpy()
        assert (np.diff(avgs) >= 0).all()


def test_followup_counts_exclude_self_and_past(ray_session):
    """An isolated user (one event) contributes 0 followups, so the
    per-type totals are bounded by n_events * (max events per user - 1)."""
    df = run_query("event_followup_5m_by_type", SF)
    assert (df["total_followups"] >= 0).all()
    assert (df["avg_followups"] >= 0).all()
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id"])
    assert df["n_events"].sum() == len(ev)


def test_centroid_cosine_is_symmetric_complete(ray_session):
    """One row per unordered label pair, cosine in [-1, 1]."""
    df = run_query("label_centroid_cosine", SF)
    labels = pd.read_parquet(f"{SF}/embeddings.parquet", columns=["label"])
    k = labels["label"].nunique()
    assert len(df) == k * (k - 1) // 2
    assert df["cosine"].between(-1.0, 1.0).all()
    assert (df["label_a"] < df["label_b"]).all()


@pytest.mark.parametrize(
    "name", ["image_exact_dedup_bytes", "image_quality_filter_stats"]
)
def test_image_ops_oracle_parity(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_image_exact_dedup_triples(ray_session):
    """Every seed triple collapses to one group led by its smallest id."""
    df = run_query("image_exact_dedup_bytes", SF)
    n_docs = len(pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"]))
    assert int(df["group_size"].sum()) == n_docs
    assert (df["group_size"] <= 3).all()


def test_pair_phash_hamming_histogram_matches_sequential(ray_session):
    """Python oracle: recompute every pair's Hamming distance sequentially
    on the driver and compare the histogram bin-for-bin."""
    from collections import Counter

    from raycrawl.core.codec import (
        decode_image,
        encode_image,
        phash64,
        synth_pixels,
    )
    from raycrawl.ops.crawlq import _popcount64

    got = run_query("pair_phash_hamming_histogram", SF)
    doc_ids = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()

    def ph(doc_id: int) -> int:
        base_seed = doc_id // 2
        w, h = 40 + base_seed % 17, 40 + base_seed % 13
        px = synth_pixels(base_seed, w, h)
        if doc_id % 2 == 1:
            rng = np.random.Generator(np.random.PCG64(int(doc_id)))
            px = np.clip(
                px.astype(np.int16) + rng.integers(-1, 2, px.shape), 0, 255
            ).astype(np.uint8)
        return phash64(decode_image(encode_image(px, "png"))[0])

    want = Counter()
    ids = set(doc_ids.tolist())
    for i in sorted(ids):
        if i % 2 == 0 and i + 1 in ids:
            x = np.array([ph(i)], dtype=np.int64).view(np.uint64)
            y = np.array([ph(i + 1)], dtype=np.int64).view(np.uint64)
            want[int(_popcount64(x ^ y)[0])] += 1
    got_map = dict(zip(got["dist"].astype(int), got["n_pairs"].astype(int)))
    assert got_map == dict(want)


@pytest.mark.parametrize(
    "name", ["weighted_sample_docs", "temperature_mix_targets"]
)
def test_sampling_ops_oracle_parity(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_temperature_mix_budget_exact(ray_session):
    """Largest-remainder rounding must hit the budget exactly and flatten
    the mixture: max share shrinks, min share grows vs raw frequencies."""
    from raycrawl.ops.mlprep import MIX_BUDGET

    df = run_query("temperature_mix_targets", SF)
    assert int(df["target_n"].sum()) == MIX_BUDGET
    raw = df["n_docs"] / df["n_docs"].sum()
    assert df["temp_share"].max() <= raw.max() + 1e-9
    assert df["temp_share"].min() >= raw.min() - 1e-9


def test_weighted_sample_favors_long_docs(ray_session):
    """A-ES with w = n_chars must oversample long documents: the sampled
    mean length exceeds the corpus mean."""
    df = run_query("weighted_sample_docs", SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["n_chars"])
    assert df["n_chars"].mean() > docs["n_chars"].mean()
    assert df["doc_id"].is_unique


def test_caption_pair_curation_matches_driver_recount(ray_session):
    """Python oracle: recompute the per-epoch keep stats from the same
    (suppression-filtered) payload on the driver."""
    from raycrawl.crawler import read_payload
    from raycrawl.ops.crawlq import (
        CAPTION_MAX_TOKENS,
        CAPTION_MIN_TOKENS,
        PAIR_MAX_ASPECT,
        PAIR_MIN_DIM,
        fixture_dir,
    )

    got = run_query("caption_pair_curation_stats", SF).sort_values("epoch")
    pdf = read_payload(
        fixture_dir("main", SF), columns=["epoch", "caption", "w", "h"]
    ).to_pandas()
    toks = pdf["caption"].str.split().str.len()
    aspect = np.maximum(pdf["w"], pdf["h"]) / np.minimum(pdf["w"], pdf["h"])
    keep = (
        (toks >= CAPTION_MIN_TOKENS)
        & (toks <= CAPTION_MAX_TOKENS)
        & (np.minimum(pdf["w"], pdf["h"]) >= PAIR_MIN_DIM)
        & (aspect <= PAIR_MAX_ASPECT)
    )
    want = (
        pd.DataFrame({"epoch": pdf["epoch"], "keep": keep, "toks": toks})
        .groupby("epoch")
        .agg(n_pairs=("keep", "size"), n_keep=("keep", "sum"))
        .reset_index()
    )
    assert got["epoch"].tolist() == want["epoch"].tolist()
    assert got["n_pairs"].tolist() == want["n_pairs"].tolist()
    assert got["n_keep"].tolist() == want["n_keep"].tolist()
    assert int(got["n_pairs"].sum()) == len(pdf)


@pytest.mark.parametrize(
    "name", ["local_supplier_revenue", "all_priority_customers"]
)
def test_star_join_and_division_parity(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_duplicate_ngram_shuffle_path_equals_broadcast_path(ray_session,
                                                            force_gates):
    """The at-scale groupby+join pipeline must produce the identical
    per-doc fractions as the broadcast dup-set fast path."""
    from raycrawl.ops.dedup import duplicate_ngram_fraction

    op = "duplicate_ngram_fraction"
    fast = norm(duplicate_ngram_fraction(SF).to_pandas())
    assert force_gates.sides(op) == {"documents": True}
    force_gates(False, "documents")
    slow = norm(duplicate_ngram_fraction(SF).to_pandas())
    assert force_gates.sides(op) == {"documents": False}
    pd.testing.assert_frame_equal(fast, slow)


@pytest.mark.parametrize(
    "name", ["event_value_robust_stats", "doc_embedding_label_mix"]
)
def test_robust_and_crossmodal_parity(ray_session, name):
    got, want = norm(run_query(name, SF)), norm(oracle(name, SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_label_mix_join_path_equals_broadcast_path(ray_session, force_gates):
    from raycrawl.ops.mlprep import doc_embedding_label_mix

    force_gates(False, "embeddings")
    got = norm(doc_embedding_label_mix(SF).to_pandas())
    assert force_gates.sides("doc_embedding_label_mix") == {
        "embeddings": False}
    want = norm(oracle("doc_embedding_label_mix", SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_q5_join_path_equals_broadcast_path(ray_session, force_gates):
    from raycrawl.ops.queries import local_supplier_revenue

    force_gates(False, "orders")
    got = norm(local_supplier_revenue(SF).to_pandas())
    assert force_gates.sides("local_supplier_revenue") == {"orders": False}
    want = norm(oracle("local_supplier_revenue", SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_followup_single_bucket_equals_default(ray_session):
    """The offset-shift bucketing must be exact even when every user
    lands in one bucket (maximal cross-user adjacency) — the default at
    test scale, where the whole partial stream is one bucket."""
    from raycrawl.ops.temporal import event_followup_5m_by_type

    got = norm(event_followup_5m_by_type(SF).to_pandas())
    want = norm(oracle("event_followup_5m_by_type", SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)


def test_hard_negatives_parity_and_labels(ray_session):
    got = norm(run_query("ann_hard_negatives", SF))
    want = norm(oracle("ann_hard_negatives", SF))
    pd.testing.assert_frame_equal(got, want, check_exact=False, atol=0, rtol=0)
    # every mined negative must carry a label different from its query's
    emb = pd.read_parquet(
        f"{SF}/embeddings.parquet", columns=["vec_id", "label"]
    ).set_index("vec_id")["label"]
    raw = run_query("ann_hard_negatives", SF)
    assert (
        raw.apply(lambda r: emb[r["vec_id"]] != emb[r["qid"]], axis=1).all()
    )


def test_video_scene_cuts_match_construction(ray_session):
    """Construction plants 3 scenes of 3 identical frames per video, so
    within-scene phash deltas are 0 and only the 2 transitions can cut.
    The exact cut count per video is checked against a local python
    oracle built from the same phash primitive (two scene seeds can land
    within the Hamming threshold by chance — e.g. doc 441's first
    transition measures 8 bits — so 'always exactly 2' would be wrong)."""
    from raycrawl.core.codec import decode_image, encode_image, phash64, synth_pixels

    got = run_query("video_scene_cuts", SF).sort_values("video_id").reset_index(drop=True)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    assert len(got) == len(docs)
    assert (got["n_frames"] == 9).all()
    # within-scene frames are identical => never more than 2 cuts
    assert (got["n_cuts"] <= 2).all()

    def oracle_cuts(doc_id: int) -> tuple[int, int]:
        ph = [
            phash64(decode_image(encode_image(synth_pixels(doc_id * 31 + s, 32, 24), "png"))[0])
            for s in range(3)
        ]
        seq = [ph[0]] * 3 + [ph[1]] * 3 + [ph[2]] * 3
        d = [bin((seq[i] ^ seq[i + 1]) & ((1 << 64) - 1)).count("1") for i in range(8)]
        return sum(1 for x in d if x > 10), max(d)

    want = docs["doc_id"].map(lambda d: oracle_cuts(int(d)))
    assert (got["n_cuts"].to_numpy() == want.map(lambda t: t[0]).to_numpy()).all()
    assert (got["max_jump"].to_numpy() == want.map(lambda t: t[1]).to_numpy()).all()
    # the construction plants detectable cuts in the overwhelming majority
    assert (got["n_cuts"] == 2).mean() > 0.98


def test_video_shot_keyframes_match_python_oracle(ray_session):
    """Shots must tile each video exactly (start/n_frames partition
    [0, 9)), shot count must equal n_cuts + 1 from video_scene_cuts, and
    every keyframe phash must equal the python-oracle phash of the shot's
    middle frame."""
    from raycrawl.core.codec import decode_image, encode_image, phash64, synth_pixels

    got = run_query("video_shot_keyframes", SF).sort_values(
        ["video_id", "shot_idx"]
    ).reset_index(drop=True)
    cuts = run_query("video_scene_cuts", SF).set_index("video_id")

    # per-video tiling: starts/lengths partition the 9 frames in order
    for vid, g in got.groupby("video_id"):
        g = g.sort_values("shot_idx")
        assert list(g["shot_idx"]) == list(range(len(g)))
        assert g["start_frame"].iloc[0] == 0
        assert (
            g["start_frame"].iloc[1:].to_numpy()
            == (g["start_frame"] + g["n_frames"]).iloc[:-1].to_numpy()
        ).all()
        assert int((g["start_frame"] + g["n_frames"]).iloc[-1]) == 9
        assert len(g) == int(cuts.loc[vid, "n_cuts"]) + 1

    # keyframe phash == phash of the shot's middle frame, replayed locally
    sample = got[got["video_id"].isin(sorted(got["video_id"].unique())[:25])]
    for _, r in sample.iterrows():
        doc_id = int(r["video_id"].split("-")[1])
        mid = (int(r["start_frame"]) + int(r["start_frame"]) + int(r["n_frames"]) - 1) // 2
        ph = phash64(
            decode_image(
                encode_image(synth_pixels(doc_id * 31 + (mid // 3), 32, 24), "png")
            )[0]
        )
        assert int(r["key_phash"]) == ph


def test_image_augment_replays_exactly(ray_session):
    """The augmentation draw is a pure function of the image id, so a
    local replay (same synth pixels → same flip/crop/brightness → same
    phash) must match the distributed stage bit-exactly, and the crop
    dims must be the 87.5% of each source image."""
    from raycrawl.core.codec import decode_image, encode_image, phash64, synth_pixels
    from raycrawl.stages.multimodal import apply_augment, augment_params

    got = run_query("image_augment_train", SF).sort_values("image_id").reset_index(drop=True)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    assert len(got) == len(docs)
    # both flip outcomes and a spread of brightness draws must occur
    assert 0 < got["flip"].mean() < 1
    assert got["bright_pct"].between(80, 120).all()
    assert got["bright_pct"].nunique() > 10

    for _, r in got.head(40).iterrows():
        doc_id = int(r["image_id"].split("-")[1])
        w = 32 + (doc_id * 7) % 33
        h = 32 + (doc_id * 11) % 33
        fmt = "png" if doc_id % 2 == 0 else "jpeg"
        px = decode_image(encode_image(synth_pixels(doc_id, w, h), fmt))[0]
        out, (flip, cx, cy, pct) = apply_augment(px, r["image_id"])
        assert (bool(r["flip"]), int(r["crop_x"]), int(r["crop_y"]),
                int(r["bright_pct"])) == (flip, cx, cy, pct)
        assert (int(r["h"]), int(r["w"])) == out.shape[:2]
        assert int(r["aug_phash"]) == phash64(out)
        assert augment_params(r["image_id"], w, h) == (flip, cx, cy, pct)


def test_scene_stages_single_frame_edge():
    """A one-frame video has no deltas: the detector must still count the
    frame (n_frames=1, 0 cuts) and the keyframe sampler must emit exactly
    one whole-video shot."""
    import struct

    import pyarrow as pa

    from raycrawl.core.codec import encode_image, synth_pixels
    from raycrawl.stages.multimodal import (
        VIDEO_MAGIC,
        SceneCutDetector,
        ShotKeyframes,
    )

    f = encode_image(synth_pixels(7, 32, 24), "png")
    blob = VIDEO_MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(f)) + f
    batch = pa.table(
        {
            "video_id": pa.array(["vid-1"], pa.string()),
            "bytes": pa.array([blob], pa.large_binary()),
        }
    )
    cuts = SceneCutDetector()(batch)
    assert cuts["n_frames"].to_pylist() == [1]
    assert cuts["n_cuts"].to_pylist() == [0]
    shots = ShotKeyframes()(batch)
    assert shots["shot_idx"].to_pylist() == [0]
    assert shots["start_frame"].to_pylist() == [0]
    assert shots["n_frames"].to_pylist() == [1]


def test_audio_speech_segments_match_construction(ray_session):
    """The construction plants silence + n_bursts × (speech+silence) in
    exact 100 ms blocks aligned to the 20 ms VAD frames, so the segmenter
    must recover exactly 2·n_bursts+1 alternating 100 ms segments (the
    planted noise floor sits 10× below the RMS threshold)."""
    got = run_query("audio_speech_segments", SF).sort_values(
        ["audio_id", "seg_idx"]
    ).reset_index(drop=True)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    assert got["audio_id"].nunique() == len(docs)
    assert (got["dur_ms"] == 100).all()
    for aid, g in got.groupby("audio_id"):
        doc_id = int(aid.split("-")[1])
        n_seg = 2 * (2 + doc_id % 4) + 1
        g = g.sort_values("seg_idx")
        assert len(g) == n_seg
        assert list(g["is_speech"]) == [i % 2 == 1 for i in range(n_seg)]
        assert (g["start_ms"].to_numpy() == np.arange(n_seg) * 100).all()
