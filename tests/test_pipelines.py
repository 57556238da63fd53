"""Tests for config parsers, reference-analog pipelines, and multimodal
stages (Ray where needed, sf0.001 inputs)."""

import numpy as np
import pandas as pd
import pytest

from raycrawl.pipelines.config import (
    parse_electorates_csv,
    parse_labels_json,
    parse_location_abbrs,
    parse_names_csv,
    parse_stance_seeds,
    parse_topics_json,
)

SF = "/root/testdata/sf0.001"


class TestConfigParsers:
    def test_stance_seeds(self):
        text = "partyA\nhttps://x.com/alice\nhttps://x.com/bob/\npartyB\nhttps://x.com/carol\n"
        assert parse_stance_seeds(text) == {
            "partyA": ["alice", "bob"],
            "partyB": ["carol"],
        }

    def test_location_abbrs_order_preserved(self):
        text = "Eskisehir:[Esk, EskisehirTurkiye]\nAnkara:[Ank]\n"
        d = parse_location_abbrs(text)
        assert list(d) == ["Eskisehir", "Ankara"]
        assert d["Eskisehir"] == ["Esk", "EskisehirTurkiye"]

    def test_names_csv(self):
        assert parse_names_csv("alper,M\nece,F\n") == {"alper": "M", "ece": "F"}

    def test_electorates(self):
        locs, rows = parse_electorates_csv("Year,LocA,LocB\n2024-01-01,10,20\n")
        assert locs == ["LocA", "LocB"]
        assert rows["2024-01-01"] == {"LocA": 10.0, "LocB": 20.0}

    def test_topics_json(self):
        t = parse_topics_json('[{"name": "e", "keywords": ["LOL"], "lang": "tr"}]')
        assert t[0]["name"] == "e" and t[0]["keywords"] == ["LOL"]

    def test_labels_json(self):
        assert parse_labels_json('[{"x": ["a", "b"]}]') == {"x": ["a", "b"]}


class TestLabelPropagation:
    def test_matches_sequential_oracle(self, ray_session):
        """The Ray vote rounds must equal a plain sequential propagation."""
        import json

        import pyarrow.parquet as pq

        from raycrawl.pipelines.reference_analogs import label_propagation

        got = label_propagation(SF)
        # sequential oracle with identical semantics
        ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "props"])
        edges = sorted(
            {
                (u, json.loads(p)["k"] % 150)
                for u, p in zip(ev["user_id"].to_pylist(), ev["props"].to_pylist())
            }
        )
        labels = {u: f"label{u % 3}" for u in range(9)}
        seeds = set(labels)
        for _ in range(5):
            votes: dict[int, dict[str, int]] = {}
            for s, d in edges:
                if s in seeds or d not in labels:
                    continue
                votes.setdefault(s, {}).setdefault(labels[d], 0)
                votes[s][labels[d]] += 1
            changed = 0
            for s, vc in sorted(votes.items()):
                ranked = sorted(vc.items(), key=lambda kv: (-kv[1], kv[0]))
                if len(ranked) == 1 or ranked[0][1] - ranked[1][1] >= 2:
                    if labels.get(s) != ranked[0][0]:
                        labels[s] = ranked[0][0]
                        changed += 1
            if changed == 0:
                break
        want = pd.DataFrame(
            {"user_id": sorted(labels), "label": [labels[u] for u in sorted(labels)]}
        )
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


class TestMultimodal:
    def test_image_resize_roundtrip(self):
        from raycrawl.core.codec import decode_image, encode_image, synth_pixels
        from raycrawl.stages.multimodal import ImageResize

        import pyarrow as pa

        px = synth_pixels(3, 48, 40)
        batch = pa.table(
            {
                "image_id": ["a"],
                "bytes": pa.array([encode_image(px, "png")], pa.large_binary()),
                "w": pa.array([48], pa.int32()),
                "h": pa.array([40], pa.int32()),
                "fmt": ["png"],
            }
        )
        out = ImageResize(16, 16)(batch)
        small, fmt = decode_image(out["bytes"][0].as_py())
        assert small.shape == (16, 16, 3) and fmt == "png"

    def test_video_frame_sampling(self):
        from raycrawl.stages.multimodal import (
            FrameSampler,
            decode_video_frames,
            synth_video,
        )

        import pyarrow as pa

        v = synth_video(5, n_frames=6, w=24, h=16)
        frames = decode_video_frames(v)
        assert len(frames) == 6 and frames[0].shape == (16, 24, 3)
        out = FrameSampler(2)(
            pa.table({"video_id": ["v"], "bytes": pa.array([v], pa.large_binary())})
        )
        assert out["frame_index"].to_pylist() == [0, 2, 4]

    def test_audio_features(self):
        from raycrawl.stages.multimodal import AudioFeatures, decode_audio, synth_audio

        import pyarrow as pa

        a = synth_audio(9, seconds=0.25)
        pcm, sr = decode_audio(a)
        assert sr == 8000 and len(pcm) == 2000
        out = AudioFeatures()(
            pa.table({"audio_id": ["a"], "bytes": pa.array([a], pa.large_binary())})
        )
        assert 0 < out["rms"][0].as_py() < 1
        assert out["duration_s"][0].as_py() == 0.25

    def test_real_decoders_are_stubs(self):
        from raycrawl.stages.multimodal import decode_real_audio, decode_real_video

        with pytest.raises(NotImplementedError):
            decode_real_video(b"\x00\x00\x00\x18ftypmp42...")
        with pytest.raises(NotImplementedError):
            decode_real_audio(b"RIFF....WAVE")


class TestDedupRecall:
    def test_minhash_lsh_finds_high_jaccard_pairs(self, ray_session):
        """LSH candidates must include every pair with Jaccard ≥ 0.7
        (16 bands × 4 rows → ≥99% recall at 0.7)."""
        import pyarrow.parquet as pq

        from raycrawl.ops.dedup import _shingles, minhash_lsh_candidates

        got = minhash_lsh_candidates(SF)  # driver path → DataFrame
        found = {(a, b) for a, b in zip(got["a"], got["b"])}

        docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        recs = list(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
        shingle_sets = [(d, _shingles(t)) for d, t in recs]
        for i in range(len(shingle_sets)):
            for j in range(i + 1, len(shingle_sets)):
                da, sa = shingle_sets[i]
                db, sb = shingle_sets[j]
                jac = len(sa & sb) / max(1, len(sa | sb))
                if jac >= 0.7:
                    assert (min(da, db), max(da, db)) in found

    def test_ann_lsh_subset_of_bruteforce_space(self, ray_session):
        from raycrawl.ops.similarity import ann_bruteforce_topk, ann_lsh_topk

        exact = ann_bruteforce_topk(SF)  # local-topk path → DataFrame
        approx = ann_lsh_topk(SF)
        # LSH scores must agree with exact scores for the pairs it returns
        exact_scores = {(r.qid, r.vec_id): r.cosine for r in exact.itertuples()}
        for r in approx.itertuples():
            if (r.qid, r.vec_id) in exact_scores:
                assert abs(exact_scores[(r.qid, r.vec_id)] - r.cosine) < 1e-9

    def test_ann_ivf_scores_consistent_and_nonempty(self, ray_session):
        """IVF probe results: every returned score equals the brute-force
        cosine for that pair, each query returns results, and results come
        only from the query's probed buckets (≤ TOP_K rows per query)."""
        from raycrawl.ops.similarity import (
            QUERY_IDS,
            TOP_K,
            ann_bruteforce_topk,
            ann_ivf_topk,
        )

        exact = ann_bruteforce_topk(SF)  # local-topk path → DataFrame
        approx = ann_ivf_topk(SF)
        exact_scores = {(r.qid, r.vec_id): r.cosine for r in exact.itertuples()}
        assert set(approx["qid"]) == set(QUERY_IDS)
        assert approx.groupby("qid").size().max() <= TOP_K
        for r in approx.itertuples():
            if (r.qid, r.vec_id) in exact_scores:
                assert abs(exact_scores[(r.qid, r.vec_id)] - r.cosine) < 1e-9


class TestFrontierCompaction:
    def test_min_depth_merge_and_resharding(self, ray_session):
        import pandas as pd
        import ray.data

        from raycrawl.frontier.compact import compact_frontier
        from raycrawl.core.urltools import url_sha1, shard_of_host

        rows = pd.DataFrame(
            {
                "url": ["http://a.test/p/1"] * 3 + ["http://b.test/p/2"],
                "url_hash": [url_sha1("http://a.test/p/1")] * 3
                + [url_sha1("http://b.test/p/2")],
                "host": ["a.test"] * 3 + ["b.test"],
                "priority": [5, 5, 5, 3],
                "depth": [4, 2, 9, 1],
                "discovered_at": [7, 3, 5, 2],
            }
        )
        out = compact_frontier(ray.data.from_pandas(rows), num_shards=8).to_pandas()
        out = out.set_index("url")
        assert len(out) == 2
        assert out.loc["http://a.test/p/1", "depth"] == 2
        assert out.loc["http://a.test/p/1", "discovered_at"] == 3
        assert out.loc["http://a.test/p/1", "shard"] == shard_of_host("a.test", 8)


class TestScoringOracles:
    def test_tfidf_matches_sequential_oracle(self, ray_session):
        """tfidf_top_terms must equal a plain-python single-pass TF-IDF
        with the same fit-once vocabulary rule."""
        from collections import Counter

        import numpy as np
        import pyarrow.parquet as pq

        from raycrawl.ops.scoring import tfidf_top_terms

        got = tfidf_top_terms(SF).to_pandas().set_index("doc_id").sort_index()

        docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        recs = list(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
        df_counts: Counter = Counter()
        for _, t in recs:
            df_counts.update(set(t.split()))
        n_docs = len(recs)
        vocab_terms = sorted(df_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:26]
        idf = {t: float(np.log((1 + n_docs) / (1 + d)) + 1.0) for t, d in vocab_terms}
        for doc_id, text in recs:
            tf = Counter(w for w in text.split() if w in idf)
            if not tf:
                assert got.loc[doc_id, "top_term"] == ""
                continue
            ranked = sorted(((c * idf[w], w) for w, c in tf.items()),
                            key=lambda x: (-x[0], x[1]))
            assert got.loc[doc_id, "top_term"] == ranked[0][1]
            assert abs(got.loc[doc_id, "tfidf"] - round(ranked[0][0], 6)) < 1e-9

    def test_simhash_token_order_invariance(self):
        # simhash is a per-bit majority over token hashes → permutation-
        # invariant; sequential python oracle mirrors the engine's bits
        from raycrawl.ops.dedup import simhash_token_hash

        def simhash(text: str) -> int:
            toks = text.split()
            hu = 0
            for i in range(64):
                ones = sum((simhash_token_hash(t) >> i) & 1 for t in toks)
                if 2 * ones > len(toks):
                    hu |= 1 << i
            return hu - (1 << 64) if hu >= (1 << 63) else hu

        assert simhash("alpha beta gamma") == simhash("gamma alpha beta")
        assert simhash("alpha beta") != simhash("delta epsilon zeta")

    def test_simhash_engine_matches_python_oracle(self, ray_session):
        from raycrawl.ops.dedup import simhash_dedup_groups, simhash_token_hash
        import pyarrow.parquet as pq

        got = simhash_dedup_groups(SF).to_pandas()
        docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        groups = {}
        for doc_id, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
            toks = text.split()
            hu = 0
            for i in range(64):
                ones = sum((simhash_token_hash(t) >> i) & 1 for t in toks)
                if 2 * ones > len(toks):
                    hu |= 1 << i
            sh = hu - (1 << 64) if hu >= (1 << 63) else hu
            groups.setdefault(sh, []).append(doc_id)
        want = {
            sh: (min(ids), len(ids)) for sh, ids in groups.items()
        }
        assert {
            r.simhash: (r.keeper, r.group_size) for r in got.itertuples()
        } == want


class TestHLL:
    def test_hll_estimate_within_error_bound(self, ray_session):
        import duckdb

        from raycrawl.ops.sketches_ops import hll_distinct_users

        est = hll_distinct_users(SF).iloc[0]["estimate"]
        exact = duckdb.sql(
            f"SELECT count(DISTINCT user_id) FROM read_parquet('{SF}/events.parquet')"
        ).fetchone()[0]
        # HLL with 2^12 registers: relative error ~1.04/sqrt(m) ≈ 1.6%;
        # allow 5% (small-range correction regime at this sf)
        assert abs(est - exact) / exact < 0.05


class TestLabelPropJoinPath:
    def test_join_path_equals_broadcast_path(self, ray_session, force_gates):
        """The distributed-join vote attach (used when the label table
        exceeds broadcast size) must produce identical labels."""
        import json

        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        from raycrawl.pipelines.reference_analogs import propagate_labels

        ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "props"])
        edges = sorted(
            {
                (u, json.loads(p)["k"] % 150)
                for u, p in zip(ev["user_id"].to_pylist(), ev["props"].to_pylist())
            }
        )
        eds = ray.data.from_arrow(
            pa.table(
                {
                    "src": pa.array([e[0] for e in edges], pa.int64()),
                    "dst": pa.array([e[1] for e in edges], pa.int64()),
                }
            )
        )
        seeds = {u: f"label{u % 3}" for u in range(9)}
        a = propagate_labels(eds, seeds)  # broadcast path
        assert force_gates.sides("label_propagation")["labels"] is True
        force_gates(False, "labels")
        b = propagate_labels(eds, seeds)  # join path
        assert force_gates.sides("label_propagation")["labels"] is False
        pd.testing.assert_frame_equal(
            a.reset_index(drop=True), b.reset_index(drop=True)
        )


class TestImagePhashGroups:
    def test_injected_pairs_collapse(self, ray_session):
        """image_phash_neardup_groups: docs 2k/2k+1 share a base image →
        group count ≈ n/2 and the overwhelming majority of groups are
        pairs (pHash on small random images occasionally collides across
        bases or splits a noisy pair — a handful of 1s/3s/4s is expected)."""
        from raycrawl.ops.crawlq import image_phash_neardup_groups

        out = image_phash_neardup_groups(SF).to_pandas()
        import pyarrow.parquet as pq

        n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
        assert abs(len(out) - n_docs // 2) <= max(5, n_docs // 40)
        assert (out["group_size"] == 2).mean() > 0.9
