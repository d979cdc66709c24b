"""One seen shard well past 2.1M hashes, where a cuckoo filter of the
former default capacity (2^19 buckets x 4 slots) would have overflowed:
every mask still matches a first-occurrence reference, the counters are
exact, and a snapshot chain restores the same set. No Ray: one
driver-held ``SeenShard``."""

import numpy as np

from crawler_service_ray.state.seen import SeenShard

BATCH = 4096
N_NEW = 2730      # fresh hashes per batch
N_ACROSS = 1000   # repeats of hashes from earlier batches
N_WITHIN = BATCH - N_NEW - N_ACROSS  # repeats of this batch's own hashes
N_BATCHES = 860   # 860 x 2730 = 2.35M distinct


def _stream():
    rng = np.random.default_rng(11)
    fresh = rng.integers(0, 2**64, size=N_BATCHES * N_NEW, dtype=np.uint64)
    for b in range(N_BATCHES):
        new = fresh[b * N_NEW:(b + 1) * N_NEW]
        parts = [new, new[rng.integers(0, N_NEW, size=N_WITHIN)]]
        if b:
            parts.append(fresh[rng.integers(0, b * N_NEW, size=N_ACROSS)])
        yield rng.permutation(np.concatenate(parts))


def test_shard_past_old_cliff_matches_first_occurrence(tmp_path):
    shard = SeenShard(0)
    batches, masks, snaps = [], [], []
    for b, h in enumerate(_stream()):
        batches.append(h)
        masks.append(shard.probe_and_insert(h))
        if b in (N_BATCHES * 9 // 10, N_BATCHES - 1):
            snaps.append(str(tmp_path / f"snap{b}.npz"))
            shard.snapshot(snaps[-1])

    stream = np.concatenate(batches)
    uniq, first = np.unique(stream, return_index=True)
    want = np.zeros(len(stream), dtype=bool)
    want[first] = True
    assert len(uniq) >= 2_300_000
    assert np.array_equal(np.concatenate(masks), want)
    stats = shard.stats()
    assert stats["n_seen"] == len(uniq)
    assert stats["dedup_hits"] == len(stream) - len(uniq)

    assert [str(np.load(p)["kind"]) for p in snaps] == ["full", "delta"]
    fresh = SeenShard(0)
    assert fresh.restore(snaps) == len(uniq)
    assert fresh.stats()["dedup_hits"] == stats["dedup_hits"]
    assert np.array_equal(np.union1d(fresh.sorted, fresh.buffer), uniq)
