"""Sharded URL-seen set: exact sorted-array shards + batch router.

Replaces the reference's implicit tree-uniqueness and `dup_check` stubs
(`/root/reference/crawlers/local_posix.py:156-158`,
`legacy/posix_crawler.py:66-68`) with the north-rule seen set: URLs are
hash-routed ``url_hash % num_shards`` to stateful shards, each holding
its hashes exactly, as a sorted uint64 array plus a small append buffer,
so no probe can be answered wrongly (a false positive would silently
drop a URL, SURVEY.md §7.5). This makes the semi/anti-join of candidate
outlinks against the seen set (SURVEY.md §2.4 J3) an explicit
hash-routed probe, NOT an all-to-all Ray Data shuffle — the design that
survives a 10^10-URL frontier, where each shard would page its array to
on-disk sorted runs. A cuckoo/bloom filter pays off only in front of
such a slower store: each run would carry one, sized once from its known
count. In memory the array is the store, and a filter in front of it
would only add work (and, sized up front, an overflow path).

Who answers the probes: ``SeenShard`` is a plain class; ``ShardHost`` is
a ``ray.remote(num_cpus=0)`` actor holding several of them, so shards
(data) and the processes that hold them (hosts) are separate, and every
shard runs one code path wherever it lives. ``make_shards`` starts one
host per session CPU at most (``host_placement``: shard i on host i % H)
and returns one picklable ``ShardRef`` per shard. A crawl
(pipelines/crawl.py) starts its hosts at run start but first probes
driver-held instances: the seed probe, every local epoch and a resume's
restore touch only the driver. The first dataset epoch of a run hands
each instance's whole seen set to its remote shard (``adopt``, the first
wait on the hosts); from then on, for the rest of the run, the hosts
answer every probe. Every helper below (``probe_shards``, ``AsyncProbe``,
``flush_shards``, ``snapshot_shards``, ``collect_stats``,
``restore_shards``) takes either a list of instances or a list of refs,
and ``kill_shards`` ends the hosts; nothing else calls a host.

Atomicity: ``probe_and_insert`` runs as one call (one actor task, when
a host answers; a host runs its calls one at a time), so a URL sent by
many concurrent fetch batches is admitted exactly once regardless of
arrival order; everything the equivalence contract checks (admitted
set, priorities) is arrival-order independent because priority is a
pure function of the URL (urls.py).

The remote shards are also the dataset-mode frontier sink (the analog of
the reference's 10 SQS commit threads batching messages,
`crawlers/globus_base_preserved.py:100-107,116-155` there): an
expand task sends each shard its candidate frontier rows WITH their
hashes (``probe_and_buffer``); the shard keeps the rows its atomic probe
admits, and the epoch driver's ``flush_shards`` writes them split by
host partition, one file per (shard, partition), named by the shard's
index (``-wSS-``) whatever host holds it — O(shards × partitions) files
per epoch instead of tasks × partitions (measured ~16k files and 50-160
CPU-seconds of per-file open cost at a 1.6M-URL epoch). Delivery
guarantee: tasks ``ray.get`` their probe calls, so a task only succeeds
after its rows are buffered; a failed epoch kills the shards with the
run and resume restores them from the last committed snapshot, so
buffered-but-unflushed rows never reach a committed epoch. Memory bound:
past ``flush_bytes`` buffered (64 MiB default) a shard spills its buffers
to sequenced files on a background thread, at most one spill in flight,
so the sink holds ~2×flush_bytes per shard regardless of epoch discovery
volume.
"""

from __future__ import annotations

import copy
import os
import threading
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

DEFAULT_FLUSH_BYTES = 64 * 1024 * 1024


def split_by_partition(t: pa.Table, parts: np.ndarray):
    """Yield ``(partition, rows)`` of a table whose row i belongs to
    partition ``parts[i]``: one stable sort, then zero-copy slices (row
    order within a partition is preserved)."""
    if t.num_rows == 0:
        return
    order = np.argsort(parts, kind="stable")
    st = t.take(order)
    sparts = parts[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sparts)) + 1))
    ends = np.concatenate((starts[1:], [len(sparts)]))
    for s, e in zip(starts, ends):
        yield int(sparts[s]), st.slice(int(s), int(e - s))


class SeenShard:
    """One shard of the seen set and of the frontier sink. The seen set
    survives across epochs; the sink's buffers live for one epoch.

    A driver-held instance answers the seed probe and the local epochs of
    a run until its first dataset epoch; then ``adopt`` on its remote
    counterpart (held by a ``ShardHost``) takes the instance's seen set,
    and that shard answers every probe (and sinks the dataset epochs'
    frontier rows) for the rest of the run.

    Fully vectorized service path (the shard pool is a FIXED-size resource
    at every cluster size, so any per-occurrence Python work here becomes
    a serial term that caps scaling — measured ~2.6M loop iterations per
    epoch before this rewrite): the seen set is a sorted uint64 array
    probed with ``np.searchsorted`` plus a small unsorted append buffer
    merged in periodically (the in-memory miniature of a per-shard
    LSM/sorted-run layout at 10^10 scale). Every probe is answered from
    these two arrays alone, and no size is fixed up front.
    """

    _MERGE_AT = 65536
    _CHAIN_MAX = 64  # force a full snapshot after this many deltas
    # the seen set and its checkpoint chain: what ``adopt`` moves
    _SEEN_STATE = ("sorted", "buffer", "dedup_hits", "_delta",
                   "_chain_len", "_rows_since_full")

    def __init__(self, shard_id: int, flush_bytes: int = DEFAULT_FLUSH_BYTES):
        self.shard_id = shard_id
        self.sorted = np.empty(0, dtype=np.uint64)
        self.buffer = np.empty(0, dtype=np.uint64)
        self.dedup_hits = 0
        # incremental-snapshot state: hashes inserted since the last
        # snapshot, and where we are in the full→delta→delta… chain
        self._delta: list[np.ndarray] = []
        self._chain_len = -1  # -1 = no base yet → first snapshot is full
        self._rows_since_full = 0
        # frontier sink: this epoch's admitted rows not yet written
        self.flush_bytes = flush_bytes
        self.out_dir: str | None = None
        self.buffers: list[tuple[pa.Table, np.ndarray]] = []
        self.buffered_bytes = 0
        self.seq = 0
        self._spill_thread: threading.Thread | None = None

    # -- seen-set helpers (all vectorized) -------------------------------
    def _member(self, uh: np.ndarray) -> np.ndarray:
        out = np.zeros(len(uh), dtype=bool)
        if self.sorted.size:
            pos = np.searchsorted(self.sorted, uh)
            pos_c = np.minimum(pos, self.sorted.size - 1)
            out |= (pos < self.sorted.size) & (self.sorted[pos_c] == uh)
        if self.buffer.size:
            out |= np.isin(uh, self.buffer)
        return out

    def _add(self, uh: np.ndarray) -> None:
        self.buffer = np.concatenate([self.buffer, uh])
        self._delta.append(uh)
        if self.buffer.size >= self._MERGE_AT:
            self.sorted = np.union1d(self.sorted, self.buffer)
            self.buffer = np.empty(0, dtype=np.uint64)

    def _n_seen(self) -> int:
        return int(self.sorted.size + self.buffer.size)

    def probe_and_insert(self, hashes: np.ndarray) -> np.ndarray:
        """Return bool mask: True = new (admitted, now inserted).

        ``hashes`` may contain duplicates (multiple parents discovered the
        same URL in one batch); the FIRST occurrence wins, later ones
        count as dedup hits — matching the oracle's per-occurrence
        accounting. Each distinct hash is looked up in the exact sorted
        array and append buffer, so the answer is exact at every size.
        """
        h = hashes.astype(np.uint64)
        n = len(h)
        uh, first_idx = np.unique(h, return_index=True)
        new_mask = ~self._member(uh)
        self.dedup_hits += int(n - new_mask.sum())
        out = np.zeros(n, dtype=bool)
        out[first_idx[new_mask]] = True
        new_h = uh[new_mask]
        if new_h.size:
            self._add(new_h)
        return out

    def probe_and_buffer(self, hashes: np.ndarray, rows: pa.Table,
                         parts: np.ndarray, out_dir: str) -> int:
        """``probe_and_insert`` plus the frontier sink: keep the rows whose
        hash is new (first occurrence wins) with their host partitions
        ``parts``, for ``flush`` into ``out_dir`` (the split by partition
        waits for the write, off the probe's round trip). Returns the
        number kept."""
        mask = self.probe_and_insert(hashes)
        new = rows.filter(pa.array(mask))
        if new.num_rows:
            if out_dir != self.out_dir:  # first rows of this epoch's sink
                self._join_spill()
                self.out_dir, self.buffers = out_dir, []
                self.buffered_bytes = self.seq = 0
            self.buffers.append((new, parts[mask]))
            self.buffered_bytes += new.nbytes
            if self.buffered_bytes >= self.flush_bytes:
                self._spill_async()
        return new.num_rows

    def _join_spill(self) -> None:
        if self._spill_thread is not None:
            self._spill_thread.join()
            self._spill_thread = None

    def _take_buffers(self) -> tuple[list, int]:
        bufs, seq = self.buffers, self.seq
        self.buffers = []
        self.buffered_bytes = 0
        self.seq += 1
        return bufs, seq

    def _spill_async(self) -> None:
        """Hand the full buffers to a background writer thread so the
        parquet IO leaves the actor's message loop — a synchronous spill
        would block every in-flight probe ack (and its sender's
        ``ray.get``) for the whole file write. At most one spill is in
        flight (the next one joins it first), bounding the sink at
        ~2×flush_bytes; ``flush`` joins it before the epoch commits."""
        self._join_spill()
        self._spill_thread = threading.Thread(
            target=self._write_bufs, args=self._take_buffers(), daemon=True
        )
        self._spill_thread.start()

    def _write_bufs(self, bufs: list, seq: int) -> list[str]:
        os.makedirs(self.out_dir, exist_ok=True)
        out = []
        rows = pa.concat_tables([t for t, _ in bufs])
        for p, part in split_by_partition(
                rows, np.concatenate([parts for _, parts in bufs])):
            path = os.path.join(
                self.out_dir,
                f"discovered-p{p:04d}-w{self.shard_id:02d}-f{seq:04d}.parquet",
            )
            pq.write_table(part, path + ".tmp")
            os.replace(path + ".tmp", path)
            out.append(path)
        return out

    def flush(self) -> list[str]:
        """Epoch end: write the sink's remaining rows, one file per
        partition, and close the epoch's sink. Returns the files."""
        self._join_spill()
        out = self._write_bufs(*self._take_buffers()) if self.buffers else []
        self.out_dir = None
        return out

    def adopt(self, other: SeenShard) -> int:
        """Take over ``other``'s seen set whole: the sorted array and
        append buffer, the pending snapshot delta, the chain counters and
        the dedup-hit count, so this shard's next snapshot is byte-identical
        to the one ``other`` would have written. Returns ``n_seen``.

        Deep copies: an instance that arrives as an actor argument holds
        read-only numpy views of the object store."""
        for name in self._SEEN_STATE:
            setattr(self, name, copy.deepcopy(getattr(other, name)))
        return self._n_seen()

    def stats(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "n_seen": self._n_seen(),
            "dedup_hits": self.dedup_hits,
            # always 0; kept only because perfbench/layers.py sums both
            "false_positives": 0,
            "n_bloom_overflow": 0,
        }

    def snapshot(self, path: str) -> dict:
        """Incremental checkpoint: write only the hashes inserted since
        the last snapshot (a DELTA) unless the accumulated deltas reach
        half the shard's size or the chain gets long, in which case write
        the FULL set and restart the chain. Per-epoch checkpoint cost is
        therefore O(new URLs this epoch), not O(all URLs ever seen) — at
        10^10-URL scale a full rewrite per epoch would dominate the run.
        Files are uncompressed ``npz``: the payload is uniform random
        64-bit hashes, which do not compress, and ``savez_compressed``
        burned measurable CPU per epoch for ~0% ratio. A file holds the
        hashes and the dedup-hit count, nothing else: the sorted array is
        the whole seen set. Returns ``stats()``, so the commit records
        shard health without another call."""
        # sorted, as the full set is: a file's bytes then depend on the
        # set alone, not on the order concurrent probes arrived in
        delta = (np.sort(np.concatenate(self._delta)) if self._delta
                 else np.empty(0, dtype=np.uint64))
        total = self._n_seen()
        full = (
            self._chain_len < 0
            or self._chain_len >= self._CHAIN_MAX
            or (self._rows_since_full + delta.size) * 2 >= total
        )
        tmp = path + ".tmp.npz"  # ends in .npz so numpy won't rename it
        if full:
            np.savez(
                tmp,
                kind=np.array("full"),
                exact=np.union1d(self.sorted, self.buffer),
                dedup_hits=np.int64(self.dedup_hits),
            )
            self._chain_len = 0
            self._rows_since_full = 0
        else:
            np.savez(
                tmp,
                kind=np.array("delta"),
                delta=delta,
                dedup_hits=np.int64(self.dedup_hits),
            )
            self._chain_len += 1
            self._rows_since_full += int(delta.size)
        os.replace(tmp, path)
        self._delta = []
        return self.stats()

    def restore(self, paths: list[str] | str) -> int:
        """Restore from a snapshot chain: ``paths`` is the ordered list of
        this shard's snapshot files, one per committed epoch. Walk
        backward to the most recent FULL snapshot and replay the deltas
        after it into one sorted array. Files that also carry a
        ``false_positives`` count (written while a filter sat in front of
        the array) load the same way; the count is not read."""
        if isinstance(paths, str):
            paths = [paths]
        chain = []
        for p in reversed(paths):
            d = np.load(p)
            chain.append(d)
            if str(d["kind"]) == "full":
                break
        else:
            raise ValueError(
                f"shard {self.shard_id}: no full snapshot in chain "
                f"({len(paths)} files)"
            )
        chain.reverse()
        parts = [chain[0]["exact"].astype(np.uint64)]
        parts += [c["delta"].astype(np.uint64) for c in chain[1:]]
        self.sorted = np.sort(np.concatenate(parts))
        self.buffer = np.empty(0, dtype=np.uint64)
        self.dedup_hits = int(chain[-1]["dedup_hits"])
        self._chain_len = len(chain) - 1
        self._rows_since_full = int(
            sum(int(c["delta"].size) for c in chain[1:])
        )
        self._delta = []
        return self._n_seen()


def host_placement(num_shards: int, cpus: int) -> list[list[int]]:
    """The shard ids each ``ShardHost`` holds: ``min(num_shards, cpus)``
    hosts (at least one when there is a shard), shard i on host i % H.

    Hosts beyond the session's CPUs add no probe throughput (a shard does
    milliseconds of work per epoch and reserves no CPU), only a process
    start and its memory each; and Ray prestarts one idle worker per CPU,
    so H hosts take that warm pool instead of cold-starting processes."""
    n_hosts = min(num_shards, max(1, cpus))
    return [list(range(h, num_shards, n_hosts)) for h in range(n_hosts)]


# 0 CPU: the hosts only answer calls; a reserved fraction per shard took
# CPUs the expand tasks need (8 default shards at 0.25 CPU hung a
# dataset-mode crawl at num_cpus=2)
@ray.remote(num_cpus=0)
class ShardHost:
    """One process holding several plain ``SeenShard``s. Its calls run one
    at a time, so a host serializes its shards' probes (each one atomic,
    as ``probe_and_insert`` requires)."""

    def __init__(self, shard_ids: list[int], flush_bytes: int):
        self.shards = {i: SeenShard(i, flush_bytes) for i in shard_ids}

    def call(self, shard_id: int, method: str, *args):
        return getattr(self.shards[shard_id], method)(*args)


class ShardRef(NamedTuple):
    """Shard ``index`` of the seen set, held by actor ``host``. Picklable,
    so dataset tasks route their probes by it."""

    host: ray.actor.ActorHandle
    index: int


def make_shards(num_shards: int, flush_bytes: int = DEFAULT_FLUSH_BYTES, *,
                remote: bool = True) -> list:
    """``num_shards`` empty shards: refs to shards on ``host_placement``'s
    hosts for the session's CPUs (started now; their start is not waited
    on), or with ``remote=False`` driver-held instances."""
    if not remote:
        return [SeenShard(i, flush_bytes) for i in range(num_shards)]
    cpus = int(ray.cluster_resources().get("CPU", 1))
    refs: list = [None] * num_shards
    for ids in host_placement(num_shards, cpus):
        host = ShardHost.remote(ids, flush_bytes)
        for i in ids:
            refs[i] = ShardRef(host, i)
    return refs


def kill_shards(shards: list) -> None:
    """Kill the hosts of shard refs, each host once. Waits for them to
    finish starting first: a kill that lands on an actor still starting
    leaves its worker process behind as an idle Ray worker (~77 MB each).
    The wait is free unless the caller is done before they started."""
    hosts = list(dict.fromkeys(s.host for s in shards))
    if hosts:
        ray.wait([h.__ray_ready__.remote() for h in hosts],
                 num_returns=len(hosts), timeout=60)
    for h in hosts:
        try:
            ray.kill(h)
        except Exception:
            pass


def hand_off(local: list, refs: list) -> list:
    """Move every driver-held shard's seen set to its remote shard
    (``adopt``) and return the refs, which answer every probe from then
    on. The first call that waits on the hosts, so their start-up is paid
    here, not at run start."""
    _gather([_dispatch(r, "adopt", s) for r, s in zip(refs, local)])
    return refs


def _dispatch(shard, method: str, *args):
    """Call ``SeenShard.<method>`` on a driver-held instance (the result)
    or on a shard ref's host (an ObjectRef; ``_gather`` waits on it)."""
    if isinstance(shard, SeenShard):
        return getattr(shard, method)(*args)
    return shard.host.call.remote(shard.index, method, *args)


def _gather(results: list) -> list:
    """The values of ``_dispatch`` calls: one ``ray.get`` for actor refs."""
    if results and isinstance(results[0], ray.ObjectRef):
        return ray.get(results)
    return results


class AsyncProbe:
    """In-flight probe of a hash batch against the seen shards: against
    remote shards, the calls launch at construction and the caller
    gathers the result later, so the probe round-trips overlap with other per-batch
    compute (enrich, side-writes) instead of serializing behind them;
    driver-held instances answer at construction.

    With ``sink=(rows, parts, out_dir)`` (frontier rows and their host
    partitions, aligned with ``hashes``) each shard also gets its rows and
    keeps the new ones (``SeenShard.probe_and_buffer``); ``result`` is
    then their count."""

    def __init__(self, shards: list, hashes: np.ndarray,
                 sink: tuple | None = None):
        self.n = len(hashes)
        self.sink = sink
        self.calls: list = []
        self.idxs: list[np.ndarray] = []
        if self.n == 0:
            return
        h = hashes.astype(np.uint64)
        sid = (h % np.uint64(len(shards))).astype(np.int64)
        order = np.argsort(sid, kind="stable")
        for idx in np.split(order, np.flatnonzero(np.diff(sid[order])) + 1):
            shard = shards[int(sid[idx[0]])]
            if sink is None:
                self.calls.append(_dispatch(shard, "probe_and_insert",
                                            h[idx]))
            else:
                rows, parts, out_dir = sink
                self.calls.append(_dispatch(
                    shard, "probe_and_buffer", h[idx], rows.take(idx),
                    parts[idx], out_dir))
            self.idxs.append(idx)

    def result(self) -> np.ndarray | int:
        """The is-new mask aligned with ``hashes``, or for a sink probe
        the number of rows the shards kept."""
        got = _gather(self.calls)
        if self.sink is not None:
            return int(sum(got))
        out = np.zeros(self.n, dtype=bool)
        for idx, mask in zip(self.idxs, got):
            out[idx] = mask
        return out


def probe_shards(shards: list, hashes: np.ndarray) -> np.ndarray:
    """Route a batch of url hashes to shards, probe+insert, gather mask.

    Called from inside ``map_batches`` tasks (one call per touched shard
    per batch, all in flight concurrently) and from the driver. Returns
    the is-new bool mask aligned with ``hashes``.
    """
    return AsyncProbe(shards, hashes).result()


def collect_stats(shards: list) -> list[dict]:
    return _gather([_dispatch(s, "stats") for s in shards])


def flush_shards(shards: list) -> None:
    """Epoch end of the frontier sink: every shard writes its remaining
    rows (``SeenShard.flush``)."""
    _gather([_dispatch(s, "flush") for s in shards])


def snapshot_shards(shards: list, directory: str) -> list[dict]:
    """Checkpoint every shard into ``directory``; returns their stats."""
    os.makedirs(directory, exist_ok=True)
    return _gather([
        _dispatch(s, "snapshot", os.path.join(directory, f"shard_{i:04d}.npz"))
        for i, s in enumerate(shards)
    ])


def restore_shards(shards: list, directories: list[str] | str) -> int:
    """Restore every shard from its snapshot chain. ``directories`` is the
    ordered list of committed epochs' ``seen/`` dirs (oldest first); a
    single directory is accepted for a chain of length one (e.g. tests
    snapshotting once)."""
    if isinstance(directories, str):
        directories = [directories]
    counts = _gather([
        _dispatch(s, "restore",
                  [os.path.join(d, f"shard_{i:04d}.npz") for d in directories])
        for i, s in enumerate(shards)
    ])
    return int(sum(counts))
