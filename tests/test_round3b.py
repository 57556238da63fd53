"""Round-3 session-3 operators: SQL-replayable phash LSH banding,
keep-best-resolution exact-phash dedup, and the kNN label-recall eval.

The DuckDB value-hash parity for all three lives in the registry gate
(tools/check_correctness.py); these tests pin the SEMANTIC invariants the
hash alone doesn't explain — pigeonhole completeness, keeper argmax, and
the integer-numerator recall bounds."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def registry(ray_session):
    from raycrawl.ops import REGISTRY

    return REGISTRY


def _df(registry, name, sf=SF):
    out = registry[name]["fn"](sf)
    try:
        return out.to_pandas()
    except AttributeError:
        return out


# ------------------------------------------------ phash LSH banding pairs


def test_phash_lsh_pairs_complete_and_in_radius(registry):
    """Every planted (2k, 2k+1) pair must be found (noise flips ≤ 2 bits,
    radius 3, 4 bands → pigeonhole guarantees ≥ 2 shared bands), each
    exactly once, with the hamming the noise mask predicts."""
    import pyarrow.parquet as pq

    df = _df(registry, "image_phash_band_lsh_pairs")
    assert (df["hamming"] <= 3).all()
    # globally distinct pairs (first-shared-band emission, no dedup pass)
    keys = list(zip(df["image_a"], df["image_b"]))
    assert len(keys) == len(set(keys))
    assert (df["image_a"] < df["image_b"]).all()

    n = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    found = dict(((a, b), h) for (a, b), h in zip(keys, df["hamming"]))
    for k in range(n // 2):
        a, b = 2 * k, 2 * k + 1
        expect = {0: 0, 1: 1, 2: 2}[b % 3]
        assert found.get((a, b)) == expect, (a, b, expect, found.get((a, b)))


def test_arith_phash_matches_band_extraction():
    """The numpy FNV fold is the documented byte fold (independent scalar
    replay), and band values round-trip the key packing."""
    from raycrawl.ops.imageprep import _arith_phash

    ids = np.array([0, 1, 2, 3, 4, 5, 100001], dtype=np.int64)
    ph = _arith_phash(ids)

    def scalar(doc_id: int) -> int:
        k = doc_id // 2
        h = 0xCBF29CE484222325
        for i in range(8):
            h = ((h ^ ((k >> (8 * i)) & 0xFF)) * 0x100000001B3) & (2**64 - 1)
        if doc_id % 2 == 1:
            nb = doc_id % 3
            if nb == 1:
                h ^= 1 << 5
            elif nb == 2:
                h ^= (1 << 5) | (1 << 37)
        return h

    assert [int(x) for x in ph] == [scalar(int(d)) for d in ids]


# ----------------------------------------------- keep-best-resolution


def test_phash_best_resolution_keeper_is_argmax(registry):
    """Exact-phash groups are precisely the (2k, 2k+1) pairs whose odd
    member flips no bits (odd id % 3 == 0); the keeper is the larger
    pixel count with doc_id tie-break."""
    df = _df(registry, "image_phash_best_resolution")
    assert (df["group_n"] == 2).all()  # construction makes pairs only

    def dims(d):
        return 32 + (d * 7) % 33, 32 + (d * 11) % 33

    for keeper, kw, kh in zip(df["keeper"], df["keep_w"], df["keep_h"]):
        a = int(keeper) // 2 * 2
        b = a + 1
        assert b % 3 == 0  # only zero-noise pairs collapse
        wa, ha = dims(a)
        wb, hb = dims(b)
        best = a if (wa * ha, -a) >= (wb * hb, -b) else b
        assert int(keeper) == best
        assert (kw, kh) == dims(int(keeper))


# ----------------------------------------------------- kNN label recall


def test_knn_label_recall_bounds_and_totals(registry):
    import pyarrow.parquet as pq

    df = _df(registry, "knn_label_recall")
    n_vecs = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
    assert df["n"].sum() == n_vecs
    for col in ("recall_at_1", "recall_at_5"):
        assert ((df[col] >= 0) & (df[col] <= 1)).all()
    # recall@1 is a 0/1 mean over n (rounded to 6 dp, so × n is within
    # n·5e-7 of the integer hit count)
    err = np.abs(df["recall_at_1"] * df["n"] -
                 np.round(df["recall_at_1"] * df["n"]))
    assert (err <= df["n"] * 5e-7 + 1e-9).all()


# ------------------------------------------- duplicated n-gram spans


def test_dup_ngram_spans_path_equivalence(registry, ray_session, force_gates):
    """The broadcast (gated) and shuffle (at-scale) paths must produce the
    identical span set; spans must be maximal and non-overlapping per doc."""
    import pandas as pd

    from raycrawl.ops.dedup import duplicate_ngram_spans

    def norm(ds):
        df = ds.to_pandas()
        return (
            df.sort_values(["doc_id", "span_start"]).reset_index(drop=True)
        )

    op = "duplicate_ngram_spans"
    force_gates(True, "documents")
    a = norm(duplicate_ngram_spans(SF))
    assert force_gates.sides(op) == {"documents": True}
    force_gates(False, "documents", "dup_grams")
    b = norm(duplicate_ngram_spans(SF))
    assert force_gates.sides(op)["dup_grams"] is False
    force_gates(True, "dup_grams")
    c = norm(duplicate_ngram_spans(SF))
    assert force_gates.sides(op) == {"documents": False, "dup_grams": True}
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    pd.testing.assert_frame_equal(a, c.astype(a.dtypes.to_dict()))

    assert (a["n_words"] == a["span_end"] - a["span_start"] + 1).all()
    assert (a["n_words"] >= 5).all()  # a span covers ≥ one 5-gram
    # non-overlapping and non-adjacent (maximality): next start > end + 1
    g = a.groupby("doc_id")
    prev_end = g["span_end"].shift(1)
    same_doc = ~prev_end.isna()
    assert (a.loc[same_doc, "span_start"] > prev_end[same_doc] + 1).all()


def test_span_removal_stats_reconciles_with_spans(registry, ray_session):
    """Per-doc removed-word counts must equal the span table's sums, be
    bounded by the doc length, and cover every tokenizable doc."""
    import pyarrow.parquet as pq

    spans = _df(registry, "duplicate_ngram_spans")
    stats = _df(registry, "duplicate_span_removal_stats")

    assert (stats["n_removed"] <= stats["n_words"]).all()
    assert (stats["removed_frac"] <= 1.0).all()
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert len(stats) == n_docs  # corpus has no empty-token docs

    per_doc = spans.groupby("doc_id")["n_words"].sum()
    merged = stats.set_index("doc_id")["n_removed"]
    for doc_id, expect in per_doc.items():
        assert merged[doc_id] == expect
    zero = merged.drop(per_doc.index)
    assert (zero == 0).all()


def test_letterbox_plan_invariants(registry):
    """Canvas lookups match the declared ladder; the plan never upscales
    beyond the canvas (pad ≥ 0) and covers the whole corpus."""
    import pyarrow.parquet as pq

    from raycrawl.ops.imageprep import _CANVAS

    df = _df(registry, "image_letterbox_plan")
    assert (df["pad_pixels"] >= 0).all()
    assert (df["avg_scale"] > 0).all()
    for _, r in df.iterrows():
        assert (r["canvas_w"], r["canvas_h"]) == _CANVAS[r["bucket"]]
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert df["n"].sum() == n_docs


def test_phash_pair_psnr_verify_oracle(registry, ray_session):
    """Every planted near-dup pair (±1 pixel noise on a shared base) must
    be confirmed at ≥ 40 dB, and the reported PSNR must equal a local
    recompute of the same decode."""
    from raycrawl.core.codec import decode_image, encode_image, psnr, synth_pixels

    df = _df(registry, "phash_pair_psnr_verify")
    assert len(df) > 0
    planted = df[
        df.apply(lambda r: int(r["image_a"][4:]) // 2
                 == int(r["image_b"][4:]) // 2, axis=1)
    ]
    assert len(planted) > 0
    assert planted["confirmed_40db"].all()

    r = planted.iloc[0]
    a, b = int(r["image_a"][4:]), int(r["image_b"][4:])

    def blob(doc_id):
        import numpy as np

        base = doc_id // 2
        w, h = 40 + base % 17, 40 + base % 13
        px = synth_pixels(base, w, h)
        if doc_id % 2 == 1:
            rng = np.random.Generator(np.random.PCG64(doc_id))
            px = np.clip(px.astype(np.int16)
                         + rng.integers(-1, 2, px.shape), 0, 255
                         ).astype(np.uint8)
        return encode_image(px, "png")

    want = round(float(psnr(decode_image(blob(a))[0],
                            decode_image(blob(b))[0])), 3)
    assert float(r["psnr_db"]) == want


def test_curated_corpus_export_and_resume(registry, ray_session, tmp_path):
    """The capstone export: gates + dedup + shard write reconcile with
    local recomputation, the written files round-trip, and a SECOND run
    over the same out_dir skips every committed shard (resume contract)."""
    import numpy as np

    from raycrawl.ops.imageprep import (
        N_WDS_SHARDS, _fnv1a64_fixed12, curated_corpus_export,
    )

    out = str(tmp_path / "export")
    m1 = curated_corpus_export(SF, out_dir=out).to_pandas()
    assert m1["written_now"].all()
    assert set(m1["shard"]) <= set(range(N_WDS_SHARDS))

    # local recomputation of the gate chain (payload images are all
    # distinct at this sf, so the dedup gate keeps everything)
    d = np.arange(500, dtype=np.int64)
    w, h = 32 + (d * 7) % 33, 32 + (d * 11) % 33
    aspect = w / h
    q_ok = (np.minimum(w, h) >= 40) & (aspect >= 0.5) & (aspect <= 2.0)
    u = ((d * 2654435761) % 4294967296).astype(np.float64) / 4294967296.0
    keep = q_ok & (u >= 0.3)
    assert m1["n"].sum() == int(keep.sum())
    ids = np.array([f"img-{x:08d}" for x in d[keep]])
    shards = (_fnv1a64_fixed12(ids) % np.uint64(N_WDS_SHARDS)).astype(int)
    want = {s: int(c) for s, c in
            zip(*np.unique(shards, return_counts=True))}
    got = dict(zip(m1["shard"], m1["n"]))
    assert got == want

    # resume: nothing rewritten, same manifest counts
    m2 = curated_corpus_export(SF, out_dir=out).to_pandas()
    assert not m2["written_now"].any()
    assert dict(zip(m2["shard"], m2["n"])) == got
