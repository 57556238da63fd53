"""Global phash dedup tier: corpus-wide near-duplicate suppression.

The per-host-shard gate (frontier/shard.py) can only suppress near-dups
that land on the same host shard. Image duplication crosses hosts, so the
optional global tier shards the phash space by 16-bit CHUNK VALUE: each
64-bit hash has 4 non-overlapping chunks, and any pair within Hamming
distance ≤ 3 shares at least one identical chunk (pigeonhole) — so the
pair is guaranteed to meet on the shard that owns that shared chunk.

Deterministic protocol per epoch, actor to actor (the driver passes only
object refs, as for the frontier shards' offers):

  route  — every host shard buckets its fetch-ok (digest, phash, order
           key) rows by chunk ownership (``FrontierShard.
           collect_candidates``), one task return per dedup shard.
  judge  — every dedup shard receives its refs, sorts the candidates into
           GLOBAL frontier order, and walks them: a candidate is a dup if
           within radius of the committed index or of an earlier
           tentatively-admitted candidate in this walk. Returns the dup
           digests; the index does not change.
  commit — every dedup shard receives ALL shards' judge results and
           inserts its own received candidates that no shard flagged (dup
           anywhere → suppressed). It returns one list of flagged digests
           per host shard, holding each flagged candidate it received from
           that host shard and is the lowest owner of, so each flagged
           digest is delivered once; host shard s's ``gate_finalize``
           takes the union of its lists from every dedup shard as
           ``suppressed``.

Because verdicts depend only on (committed state, the globally-ordered
candidate list), the outcome is independent of task scheduling — the same
property the rest of the engine relies on — and the sequential oracle
replays the identical protocol.
"""

from __future__ import annotations

import os

import numpy as np

from ..core.sketches import PhashIndex


def phash_chunks(ph: int) -> list[int]:
    hu = ph & 0xFFFFFFFFFFFFFFFF
    return [(hu >> (16 * j)) & 0xFFFF for j in range(4)]


def owner_shards(ph: int, num_shards: int) -> set[int]:
    return {c % num_shards for c in phash_chunks(ph)}


class PhashDedupShard:
    """One shard of the global dedup tier (plain class; Ray-wrapped)."""

    def __init__(self, shard_id: int, num_shards: int, radius: int = 2):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.radius = radius
        self.index = PhashIndex(radius)
        # epoch → (dup digests, received digests, received phashes,
        # their host shards, host shard count)
        self._judge_memo: dict[int, tuple] = {}
        self._commit_memo: dict[int, tuple] = {}

    def judge(self, epoch: int, *candidates) -> list[bytes]:
        """Phase 1: the digests of this epoch's duplicates among the
        candidates routed here — one (digests, phashes, order keys) tuple
        per host shard, in host-shard order — walked in global frontier
        order. Read-only on the index; the candidates wait for ``commit``,
        each with its host shard (its argument's position)."""
        if epoch in self._judge_memo:
            return self._judge_memo[epoch][0]
        digests = [d for c in candidates for d in c[0]]
        phashes = [p for c in candidates for p in c[1]]
        keys = [k for c in candidates for k in c[2]]
        sources = [s for s, c in enumerate(candidates) for _ in c[0]]
        tentative = PhashIndex(self.radius)
        dups = []
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            ph = phashes[i]
            if self.index.query(ph) is not None or tentative.query(ph) is not None:
                dups.append(digests[i])
            else:
                tentative.add(ph)
        self._judge_memo[epoch] = (dups, digests, phashes, sources,
                                   len(candidates))
        return dups

    def commit(self, epoch: int, *judged: list[bytes]) -> tuple:
        """Phase 2, given every dedup shard's ``judge`` result: insert the
        candidates this shard received that no shard flagged, in arrival
        order. Returns (inserted count, then one sorted list per host
        shard): list s holds the flagged candidates this shard received
        from host shard s and is the lowest owner of. Every owner of a
        flagged candidate received it, so across the dedup shards each
        flagged digest is delivered once, to its own host shard."""
        if epoch in self._commit_memo:
            return self._commit_memo[epoch]
        flagged = set().union(*judged)
        _, digests, phashes, sources, n_hosts = self._judge_memo[epoch]
        n = 0
        mine: list[list[bytes]] = [[] for _ in range(n_hosts)]
        for dg, ph, s in zip(digests, phashes, sources):
            if dg not in flagged:
                self.index.add(ph)
                n += 1
            elif min(owner_shards(ph, self.num_shards)) == self.shard_id:
                mine[s].append(dg)
        self._commit_memo[epoch] = result = (n, *map(sorted, mine))
        # replay horizon as FrontierShard.REPLAY_HORIZON: only the epoch
        # in flight can be re-run
        for memo in (self._judge_memo, self._commit_memo):
            for e in [e for e in memo if e < epoch - 2]:
                del memo[e]
        return result

    # ---------------------------------------------------------- checkpoint
    def checkpoint(self, ckpt_dir: str, epoch: int) -> None:
        d = os.path.join(ckpt_dir, f"epoch={epoch}", f"phash_shard={self.shard_id}")
        os.makedirs(d, exist_ok=True)
        np.save(os.path.join(d, "index.npy"), self.index.state())

    @classmethod
    def restore(
        cls, ckpt_dir: str, epoch: int, shard_id: int, num_shards: int,
        radius: int = 2,
    ) -> "PhashDedupShard":
        self = cls(shard_id, num_shards, radius)
        p = os.path.join(
            ckpt_dir, f"epoch={epoch}", f"phash_shard={shard_id}", "index.npy"
        )
        self.index = PhashIndex.restore(np.load(p), radius)
        return self
