"""Incremental seen-set checkpoints: per-epoch snapshot cost is O(new
hashes), not O(all seen) — deltas chain back to a periodic full, restore
replays the chain into one exact sorted array."""

import os

import numpy as np

from crawler_service_ray.state.seen import (
    SeenShard,
    kill_shards,
    make_shards,
    probe_shards,
    restore_shards,
    snapshot_shards,
    collect_stats,
)


def _rng_hashes(seed, n):
    return np.random.default_rng(seed).integers(
        0, 2**63, size=n, dtype=np.int64
    ).astype(np.uint64)


def test_snapshot_chain_restores_exactly(ray_session, tmp_path):
    shards = make_shards(2)
    dirs = []
    all_h = []
    # epoch 0: big base; later epochs: small deltas (steady-state shape)
    for k, n in enumerate([20000, 300, 300, 300, 300]):
        h = _rng_hashes(k, n)
        probe_shards(shards, h)
        all_h.append(h)
        d = str(tmp_path / f"ep{k:03d}")
        snapshot_shards(shards, d)
        dirs.append(d)

    # steady-state epochs must write deltas, not fulls: their files are
    # tiny next to the base epoch's
    base = os.path.getsize(os.path.join(dirs[0], "shard_0000.npz"))
    tail = os.path.getsize(os.path.join(dirs[-1], "shard_0000.npz"))
    assert tail * 10 < base

    before = {s["shard_id"]: s for s in collect_stats(shards)}
    fresh = make_shards(2)
    restore_shards(fresh, dirs)
    after = {s["shard_id"]: s for s in collect_stats(fresh)}
    for sid in before:
        assert after[sid]["n_seen"] == before[sid]["n_seen"]
        assert after[sid]["dedup_hits"] == before[sid]["dedup_hits"]

    # every hash ever inserted reads as already-seen on the restored set
    h = np.concatenate(all_h)
    assert not probe_shards(fresh, h).any()
    # and a genuinely new batch still reads as new
    assert probe_shards(fresh, _rng_hashes(99, 50)).all()
    kill_shards(shards + fresh)


def test_restore_from_single_full_dir(ray_session, tmp_path):
    """A chain of length one (the pre-incremental layout) still works."""
    shards = make_shards(2)
    h = _rng_hashes(7, 5000)
    probe_shards(shards, h)
    d = str(tmp_path / "only")
    snapshot_shards(shards, d)
    fresh = make_shards(2)
    restore_shards(fresh, d)  # str, not list
    assert not probe_shards(fresh, h).any()
    kill_shards(shards + fresh)


def test_snapshot_bytes_independent_of_arrival_order(tmp_path):
    """Concurrent dataset tasks reach a shard in any order: a snapshot,
    delta included, is a function of the seen set, not of that order
    (driver-held shards, the same class the actors run)."""
    base = _rng_hashes(1, 5000)
    batches = [_rng_hashes(s, 100) for s in (2, 3, 4)]
    files = []
    for order in ([0, 1, 2], [2, 1, 0]):
        shards = make_shards(2, remote=False)
        d = tmp_path / "-".join(map(str, order))
        probe_shards(shards, base)
        snapshot_shards(shards, str(d / "full"))
        for b in order:
            probe_shards(shards, batches[b])
        snapshot_shards(shards, str(d / "delta"))
        files.append([(d / k / f"shard_{i:04d}.npz").read_bytes()
                      for k in ("full", "delta") for i in range(2)])
        kinds = [str(np.load(d / k / "shard_0000.npz")["kind"])
                 for k in ("full", "delta")]
        assert kinds == ["full", "delta"]
    assert files[0] == files[1]


def test_restore_reads_snapshots_with_false_positives(tmp_path):
    """Snapshot files written while a cuckoo filter sat in front of the
    array also carry ``false_positives``: a full plus a delta in that
    layout restore to the same set and counters, and a run resumed from
    them writes files without the field."""
    exact = np.sort(_rng_hashes(21, 3000))
    delta = np.sort(_rng_hashes(22, 200))
    full_p, delta_p = str(tmp_path / "full.npz"), str(tmp_path / "delta.npz")
    np.savez(full_p, kind=np.array("full"), exact=exact,
             dedup_hits=np.int64(40), false_positives=np.int64(3))
    np.savez(delta_p, kind=np.array("delta"), delta=delta,
             dedup_hits=np.int64(57), false_positives=np.int64(4))

    shard = SeenShard(0)
    assert shard.restore([full_p, delta_p]) == exact.size + delta.size
    assert shard.stats()["n_seen"] == exact.size + delta.size
    assert shard.stats()["dedup_hits"] == 57
    stored = np.concatenate([exact, delta])
    assert not shard.probe_and_insert(stored).any()
    assert shard.probe_and_insert(_rng_hashes(23, 50)).all()

    nxt = str(tmp_path / "next.npz")
    shard.snapshot(nxt)
    with np.load(nxt) as d:
        assert str(d["kind"]) == "delta"
        assert "false_positives" not in d.files
