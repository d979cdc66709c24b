"""The epoch driver: BFS supersteps over a materialized frontier.

The fundamental inversion vs the reference (SURVEY.md §1.2): where the
reference streams paths through one shared in-memory ``Queue`` mutated by 8
threads (`/root/reference/crawlers/globus_base_preserved.py:427-428,256,351`)
and terminates via an all-workers-idle protocol (`:235-249`), this engine
materializes the frontier as an epoch-partitioned parquet table and loops:

  frontier_k → politeness admission (per-host top-K, stages/admit)
             → fetch/expand (actor-pool corpus lookup, stages/fetch)
             → outlink extract/canonicalize/robots/skip (stages/outlinks)
             → seen-set anti-join (exact sorted-array shards, state/seen)
             → frontier_{k+1} = deferred ∪ newly-discovered

terminating when frontier_{k+1} is empty — the deterministic replacement
for the reference's idle-detection (SURVEY.md §2.9).

Adaptive execution: one admission kernel (``_admit_partition_fn``) and
one expand kernel (``_expand_fn``), two schedulers. An epoch whose
frontier is large runs them as a Ray Data ``Dataset`` pipeline over host
partitions (see below); an epoch below ``local_epoch_threshold`` rows
calls the same two kernels once each in the driver, against the same seen
set and spill state — identical semantics, none of the per-execution
orchestration overhead that would dominate small epochs. The only
difference is who writes the new frontier: concurrent dataset tasks hand
their rows to the remote seen shards, which are the frontier sink
(state/seen.py); the one local call writes them itself. Both schedulers
are covered by the equivalence tests. The seen-shard hosts are the only
actors a crawl starts: ``num_seen_shards`` shards on one 0-CPU
``ShardHost`` per session CPU at most (shard i on host i % H), started at
run start and killed by ``close``; nothing waits on them until a dataset
epoch needs them. Until then the seed probe and every local epoch probe
driver-held ``SeenShard`` instances, the class the hosts hold (a resume
restores those from the snapshot chain). The first dataset epoch of a
``run`` hands their seen set to the remote shards, which answer every
probe, local epochs included, for the rest of that run; a host answers
its shards' calls one at a time. The per-epoch
counters travel with the data — the expand kernel's output rows and one
admission counter row per partition — into a driver-side dict, summed
the same way for both.

Partitioning (the design that replaced a per-epoch groupby("host")
shuffle): ONE partitioning key — ``hash(host) % num_host_partitions`` — is
reused across every epoch. Every stage that emits frontier rows (seeds,
deferrals, discoveries) writes them pre-split by that key into files named
``...-pNNNN-...``, so the next epoch's admission reads arrive host-complete
with NO exchange at all: the "shuffle" happens as a side effect of writing
the checkpoint files the north rule requires anyway. Measured against both
Ray shuffle strategies on a 1.4M-row frontier, the sort shuffle cost >10 s
of non-task overhead per epoch and hash shuffle more; this path costs zero.
Skew note: a pathological host whose pending frontier outgrows one
partition task's memory is handled by priority-cutoff frontier SPILLING
(state/spill.py, ``frontier_spill_rows``): the host keeps its
top-priority slice live, the tail spills to immutable sorted chunks
refilled best-first as the slice drains — admission order and the final
fetched set are identical to the unbounded run (tests/test_spill.py
asserts byte-identical output). The reference simply drops oversized
directories (`/root/reference/crawlers/globus_base_preserved.py:293-297`).

Checkpoint/resume (north rule): every epoch writes, inside a temp dir that
is atomically renamed to ``epochs/epoch=K`` only after success:
  fetched/            one parquet dir per epoch (the output table)
  frontier_next/      deferred + discovered parquet (input of epoch K+1)
  seen/shard_*.npz    seen-set snapshots
  counters/           per-partition admission counters
  stats.parquet       the per-epoch crawl_stats row (+ seen-shard health
                      and the seen snapshot's time, ``t_snapshot_ms``)
  manifest.json       per-partition lineage: input files → output files
Resume = drop incomplete temp dirs, restore seen shards from the last
complete epoch, continue from its frontier_next. A finished run writes
``run_summary.json``; rerunning returns it without recomputation. A run
stopped by an exception writes ``run_failed.json`` (cause, epoch,
exception type, traceback tail) before re-raising; the next successful
run of the directory removes it.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import traceback
from collections import Counter
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import CrawlConfig
from ..sources.corpus import load_robots
from ..stages.admit import admit_per_host
from ..stages.archives import expand_archives
from ..stages.enrich import enrich_fetched
from ..stages.fetch import (
    FETCHED_SCHEMA,
    CorpusFetcher,
    SharedBucketProvider,
    put_corpus,
)
from ..stages.outlinks import (
    FRONTIER_SCHEMA,
    canon_and_filter,
    extract_links,
    probe_new_finish,
    probe_new_start,
    seed_frontier,
)
from ..state.seen import (
    collect_stats,
    flush_shards,
    hand_off,
    kill_shards,
    make_shards,
    restore_shards,
    snapshot_shards,
    split_by_partition,
)
from ..urls import host_partitions

FRONTIER_COLS = [f.name for f in FRONTIER_SCHEMA]
# the per-epoch counters of stats.parquet, in column order
EPOCH_COUNTERS = (
    "urls_fetched", "urls_200", "urls_404", "urls_503", "failed", "bytes",
    "links_total", "dedup_hits", "robots_denied", "skip_filtered",
    "candidates", "deferred", "discovered", "archives_expanded",
    "archives_dup", "members_extracted", "spilled_rows", "refilled_rows",
    "politeness_wait_ms", "num_hosts", "t_admit_ms", "t_fetch_ms",
    "t_enrich_ms", "t_write_ms", "t_canon_ms", "t_probe_ms",
)
# those each expand task returns as its one output row (int64 columns)
EXPAND_COUNTERS = (
    "urls_fetched", "urls_200", "urls_404", "urls_503", "failed", "bytes",
    "links_total", "dedup_hits", "robots_denied", "skip_filtered",
    "candidates", "discovered", "archives_expanded", "archives_dup",
    "members_extracted", "t_fetch_ms", "t_enrich_ms", "t_write_ms",
    "t_canon_ms", "t_probe_ms",
)
# seen-shard health, summed over shards, recorded in each epoch's stats
SEEN_HEALTH = ("n_seen",)
# written by a run that an exception stopped; removed by a successful run
FAILED_RECORD = "run_failed.json"


def _parquet_files(d: str) -> list[str]:
    out = []
    for root, _dirs, files in os.walk(d):
        out.extend(
            os.path.join(root, f) for f in files if f.endswith(".parquet")
        )
    return sorted(out)


def _count_rows(files: list[str]) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


class CrawlRun:
    def __init__(self, config: CrawlConfig):
        self.cfg = config
        self.run_dir = config.run_dir
        self.epochs_dir = os.path.join(self.run_dir, "epochs")
        self.spill_dir = os.path.join(self.run_dir, "spill")
        # posix source trees have no robots sidecar (everything allowed)
        self.robots = (
            load_robots(config.corpus_dir)
            if config.source_kind == "corpus" else {}
        )
        # the seen set that answers probes: driver-held instances until
        # the run's first dataset epoch hands them to ``_remote``, refs
        # to the shards on this run's hosts
        self.shards: list = []
        self._remote: list = []
        self._epoch: int | None = None  # the epoch running, for failures
        self._robots_part_refs: list | None = None

    # -- layout helpers ---------------------------------------------------
    def _epoch_dir(self, k: int) -> str:
        return os.path.join(self.epochs_dir, f"epoch={k:05d}")

    def _complete_epochs(self) -> list[int]:
        if not os.path.isdir(self.epochs_dir):
            return []
        out = []
        for name in sorted(os.listdir(self.epochs_dir)):
            if name.startswith("epoch=") and os.path.exists(
                os.path.join(self.epochs_dir, name, "manifest.json")
            ):
                out.append(int(name.split("=")[1]))
        return out

    # -- public API -------------------------------------------------------
    def close(self) -> None:
        """Kill this run's seen-shard hosts, its only actors, and drop
        its driver-held shards.

        Actor handles are only reference-counted — dropping a CrawlRun
        does NOT promptly stop its hosts, so a second run in the same
        driver session would run beside the leaked processes. run()
        always tears down in a finally; every durable artifact (epoch
        parquet, seen snapshots, manifests) is on disk, so resume never
        needs a live host. ``kill_shards`` first waits for the hosts to
        finish starting (a kill during start leaks the worker process);
        with one host per session CPU they are Ray's prestarted idle
        workers in a session's first run, so that wait is short."""
        kill_shards(self._remote)
        self._remote = []
        self.shards = []

    def run(self, resume: bool = True) -> dict:
        summary_path = os.path.join(self.run_dir, "run_summary.json")
        if resume and os.path.exists(summary_path):
            with open(summary_path) as f:
                return json.load(f)

        self._epoch = None
        try:
            os.makedirs(self.epochs_dir, exist_ok=True)
            # drop incomplete temp epoch dirs (failed mid-write)
            for name in os.listdir(self.epochs_dir):
                if name.startswith(".tmp_"):
                    shutil.rmtree(os.path.join(self.epochs_dir, name))
            summary = self._run_body(resume, summary_path)
        except BaseException as e:
            self._record_failure(e)
            raise
        finally:
            self.close()
        failed_path = os.path.join(self.run_dir, FAILED_RECORD)
        if os.path.exists(failed_path):
            os.remove(failed_path)
        return summary

    def _record_failure(self, e: BaseException) -> None:
        """Write ``run_failed.json``: why and where the run stopped, so
        ``status`` reports the cause instead of an in-progress run."""
        tb = traceback.format_exception(type(e), e, e.__traceback__)
        record = {
            "cause": str(e) or type(e).__name__,
            "exception": type(e).__name__,
            "epoch": self._epoch,
            "traceback": "".join(tb)[-4000:],
        }
        os.makedirs(self.run_dir, exist_ok=True)
        path = os.path.join(self.run_dir, FAILED_RECORD)
        with open(path + ".tmp", "w") as f:
            json.dump(record, f, indent=1)
        os.replace(path + ".tmp", path)

    def _run_body(self, resume: bool, summary_path: str) -> dict:
        import ray

        # the hosts start now but nothing waits on them until a dataset
        # epoch (hand_off); fresh driver-held shards answer until then
        self._remote = make_shards(self.cfg.num_seen_shards)
        self.shards = make_shards(self.cfg.num_seen_shards, remote=False)
        if self.cfg.robots_at_admission:
            # the 10^9-host scale path (config.py): rules split by the
            # SAME run-wide host partition key as the frontier, one
            # object-store entry per partition — each admission task
            # resolves only its own hosts' rules; discovery-time
            # filtering is disabled (empty broadcast dict)
            P = self.cfg.num_host_partitions
            per_part: list[dict] = [{} for _ in range(P)]
            if self.robots:
                hosts_arr = np.array(list(self.robots), dtype=object)
                parts = host_partitions(hosts_arr, P)
                for (h, rules), p in zip(self.robots.items(), parts):
                    per_part[int(p)][h] = rules
            self._robots_part_refs = [ray.put(d) for d in per_part]
            self._robots_ref = ray.put({})
        else:
            self._robots_part_refs = None
            self._robots_ref = ray.put(self.robots)
        if self.cfg.source_kind == "corpus":
            # corpus buckets: loaded+indexed once, object-store-shared
            # zero-copy (cached per driver process across CrawlRuns; keyed
            # by the corpus META SIGNATURE, not just the path, so a corpus
            # regenerated in place with different params never serves
            # stale buckets)
            self._corpus_sig = _corpus_signature(self.cfg.corpus_dir)
            warm_corpus(self.cfg.corpus_dir)
            self._corpus_refs, self._corpus_nb = _CORPUS_REFS[
                self._corpus_sig
            ]
        elif self.cfg.source_kind == "drive":
            # drive fixture: loaded per worker in DriveFetcher.__init__;
            # sig includes the fixture file's (mtime, size) so a fixture
            # regenerated in place never serves a stale per-worker cache
            from ..stages.drive import fixture_path

            fp = fixture_path(self.cfg.corpus_dir)
            st = os.stat(fp)
            self._corpus_sig = f"drive|{fp}|{st.st_mtime_ns}|{st.st_size}"
            self._corpus_refs, self._corpus_nb = None, 0
        else:  # posix: the tree is read directly by each fetch task
            self._corpus_sig = f"posix|{os.path.abspath(self.cfg.corpus_dir)}"
            self._corpus_refs, self._corpus_nb = None, 0

        if not resume:
            if os.path.isdir(self.epochs_dir):
                shutil.rmtree(self.epochs_dir)
                os.makedirs(self.epochs_dir)
            if os.path.exists(summary_path):
                os.remove(summary_path)
        done = self._complete_epochs() if resume else []
        spill_manifests: dict[int, str] = {}
        if done:
            last = done[-1]
            # snapshot chain: each epoch checkpoints only its new hashes
            # (delta) with periodic fulls — restore replays the whole chain
            restore_shards(
                self.shards,
                [os.path.join(self._epoch_dir(k), "seen") for k in done],
            )
            frontier_files = _parquet_files(
                os.path.join(self._epoch_dir(last), "frontier_next")
            )
            spill_manifests = _spill_manifest_files(self._epoch_dir(last))
            start = last + 1
        else:
            seeds_dir = os.path.join(self.run_dir, "seed_frontier")
            if os.path.isdir(seeds_dir):
                shutil.rmtree(seeds_dir)
            seed_t = seed_frontier(
                self.cfg.seeds, self.robots, tuple(self.cfg.skip_substrings),
                self.shards,
            )
            _sidewrite_partitioned(
                seed_t, seeds_dir, "seed", self.cfg.num_host_partitions
            )
            frontier_files = _parquet_files(seeds_dir)
            start = 0

        from ..state import spill as spill_mod

        epoch_stats: list[dict] = []
        for k in range(start, self.cfg.max_epochs):
            self._epoch = k
            n_frontier = _count_rows(frontier_files)
            n_spilled = sum(
                spill_mod.manifest_pending(spill_mod.load_manifest(m))
                for m in spill_manifests.values()
            )
            if n_frontier == 0 and n_spilled == 0:
                break
            stats = self._run_epoch(
                k, frontier_files, n_frontier, spill_manifests
            )
            epoch_stats.append(stats)
            frontier_files = _parquet_files(
                os.path.join(self._epoch_dir(k), "frontier_next")
            )
            spill_manifests = _spill_manifest_files(self._epoch_dir(k))
            # committed manifests are the only live references — drop
            # chunks that refill rewrites / drains left behind
            spill_mod.gc_chunks(self.spill_dir, spill_manifests)
        self._epoch = None

        prior = []
        for k in self._complete_epochs():
            sp = os.path.join(self._epoch_dir(k), "stats.parquet")
            prior.append(
                pq.ParquetFile(sp).read(use_threads=False).to_pylist()[0]
            )
        summary = {
            "epochs": len(prior),
            "urls_fetched": int(sum(s["urls_fetched"] for s in prior)),
            "archives_expanded": int(
                sum(s.get("archives_expanded", 0) for s in prior)
            ),
            "members_extracted": int(
                sum(s.get("members_extracted", 0) for s in prior)
            ),
            "bytes": int(sum(s["bytes"] for s in prior)),
            "dedup_hits": int(sum(s["dedup_hits"] for s in prior)),
            "robots_denied": int(sum(s["robots_denied"] for s in prior)),
            "spilled_rows": int(sum(s.get("spilled_rows", 0) for s in prior)),
            "refilled_rows": int(
                sum(s.get("refilled_rows", 0) for s in prior)
            ),
            "seen_size": int(
                sum(s["n_seen"] for s in collect_stats(self.shards))
            ),
            "config": self.cfg.to_json_dict(),
        }
        n_spill_left = sum(
            spill_mod.manifest_pending(spill_mod.load_manifest(m))
            for m in spill_manifests.values()
        )
        if _count_rows(frontier_files) == 0 and n_spill_left == 0:
            with open(summary_path + ".tmp", "w") as f:
                json.dump(summary, f, indent=1)
            os.replace(summary_path + ".tmp", summary_path)
        return summary

    # -- one epoch --------------------------------------------------------
    def _run_epoch(
        self,
        k: int,
        frontier_files: list[str],
        n_frontier: int,
        spill_manifests: dict[int, str] | None = None,
    ) -> dict:
        import time

        t_epoch0 = time.time()
        mode = self.cfg.force_mode or (
            "local" if n_frontier < self.cfg.local_epoch_threshold
            else "dataset"
        )
        if mode == "dataset" and self.shards is not self._remote:
            self.shards = hand_off(self.shards, self._remote)
        tmp = os.path.join(self.epochs_dir, f".tmp_epoch_{k:05d}")
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        fetched_dir = os.path.join(tmp, "fetched")
        next_dir = os.path.join(tmp, "frontier_next")
        os.makedirs(fetched_dir)
        os.makedirs(next_dir)

        items = _partition_items(frontier_files, spill_manifests or {})
        admit_kw, expand_kw = self._kernel_kwargs(k, fetched_dir, next_dir)
        counters: Counter = Counter()
        schedule = (self._epoch_local if mode == "local"
                    else self._epoch_dataset)
        schedule(items, admit_kw, expand_kw, counters)
        lineage = {
            "fetched": _parquet_files(fetched_dir),
            "frontier_next": _parquet_files(next_dir),
        }

        stats = self._epoch_stats(k, mode, counters)
        stats["wall_s"] = round(time.time() - t_epoch0, 3)
        t_snap0 = time.perf_counter()
        shard_stats = snapshot_shards(self.shards, os.path.join(tmp, "seen"))
        stats["t_snapshot_ms"] = _ms(time.perf_counter() - t_snap0)
        for key in SEEN_HEALTH:
            stats[key] = int(sum(s[key] for s in shard_stats))
        pq.write_table(
            pa.Table.from_pylist([stats]), os.path.join(tmp, "stats.parquet")
        )
        manifest = {
            "epoch": k,
            "mode": mode,
            "input_frontier_files": frontier_files,
            "input_frontier_rows": n_frontier,
            # lineage paths are relative to the (renamed) epoch dir
            "outputs": {
                stage: [os.path.relpath(p, tmp) for p in files]
                for stage, files in lineage.items()
            },
            "stats": stats,
        }
        with open(os.path.join(tmp, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp, self._epoch_dir(k))  # atomic commit of the epoch
        return stats

    def _kernel_kwargs(self, k: int, fetched_dir: str,
                       next_dir: str) -> tuple[dict, dict]:
        """Keyword arguments of the admission and expand kernels for epoch
        ``k``, built once for whichever scheduler runs the epoch."""
        cfg = self.cfg
        tmp = os.path.dirname(next_dir)
        admit_kw = dict(
            pol=cfg.politeness,
            epoch=k,
            next_dir=next_dir,
            num_parts=cfg.num_host_partitions,
            counters_dir=os.path.join(tmp, "counters"),
            spill_dir=self.spill_dir,
            spill_rows=cfg.frontier_spill_rows,
            keep_per_host=cfg.spill_keep_per_host(),
            manifest_out_dir=os.path.join(tmp, "spill"),
            robots_parts=self._robots_part_refs,
        )
        expand_kw = dict(
            epoch=k,
            fetched_dir=fetched_dir,
            next_dir=next_dir,
            num_parts=cfg.num_host_partitions,
            source_kind=cfg.source_kind,
            corpus_dir=cfg.corpus_dir,
            corpus_sig=self._corpus_sig,
            corpus_refs=self._corpus_refs,
            corpus_nb=self._corpus_nb,
            robots_ref=self._robots_ref,
            robots_at_admission=cfg.robots_at_admission,
            skip=tuple(cfg.skip_substrings),
            shards=self.shards,
            enrich=cfg.enrich_text,
            flaky_every=cfg.flaky_every,
            max_retries=cfg.max_retries,
        )
        return admit_kw, expand_kw

    # -- local (small-epoch) scheduler -----------------------------------
    def _epoch_local(self, items: list[dict], admit_kw: dict,
                     expand_kw: dict, counters: Counter) -> None:
        """The dataset scheduler's two kernels, called once each in the
        driver over all partitions. The single caller writes the new
        frontier itself (one file per partition), so the seen shards only
        probe: no rows travel to them and no flush follows."""
        admitted = _admit_partition_fn(pa.Table.from_pylist(items), **admit_kw)
        out = _expand_fn(admitted, shard_sink=False, **expand_kw)
        _sum_counters(counters, [out], admit_kw["counters_dir"])

    # -- dataset (large-epoch) scheduler ---------------------------------
    def _epoch_dataset(self, items: list[dict], admit_kw: dict,
                       expand_kw: dict, counters: Counter) -> None:
        """One shuffle-free streaming execution per epoch.

        The frontier arrives pre-partitioned by ``hash(host) % P`` (every
        sink splits by that key), so the epoch pipeline is

          from_items(partitions)
          -> map_batches(_admit_partition_fn): read the partition's
             frontier files (host-complete by construction), spill and
             refill, per-host politeness top-K, side-write deferrals
             (partition-pure) and one counter row -- emits admitted rows
          -> map_batches(_expand_fn): chunked corpus fetch against the
             shared zero-copy buckets, side-write fetched rows, outlink
             extract / canonicalize / robots / skip, then one probe per
             seen shard carrying the candidate frontier rows; each shard
             keeps the rows it admits (state/seen.py) and ``flush`` writes
             one file per (shard, partition) at epoch end. Each task emits
             one row of its counters, which the driver sums.

        The local scheduler runs the same two kernels in the driver; only
        the frontier sink differs (``shard_sink``).

        ``target_max_block_size`` is dropped to a few MB for this
        execution so each partition's admitted rows split into several
        blocks -- expand parallelism is chunk-level, decoupled from the
        partition count.

        Side-written files are content-named -> a retried task overwrites
        its own output; everything lands in the epoch temp dir, renamed
        into place only after the manifest is written.

        History (measured on 0.4-4M-URL frontiers at 8 vs 32 CPUs): a
        6-execution pipeline cost 2-4 s orchestration per epoch; a
        groupby("host") shuffle cost >10 s per epoch of sort overhead
        (hash shuffle: worse); direct per-task partitioned writes created
        tasks x partitions ~ 16k files per epoch whose open cost alone
        was ~100 CPU-seconds. Partitioned frontier files + seen-shard
        fan-in keep the exchange free and the file count at
        O(shards x partitions) per epoch.
        """
        import ray.data as rd
        from ray.data import DataContext

        ctx = DataContext.get_current()
        prev_block_size = ctx.target_max_block_size
        # small target blocks: admission's output (admitted rows) splits
        # into ~2MB blocks, so expand parallelism is block-level, decoupled
        # from the partition count — without any repartition/AllToAll
        # operator (measured: Repartition burned ~18 s of wall per epoch
        # with <50 ms of actual task time)
        ctx.target_max_block_size = 2 * 1024 * 1024
        try:
            ds = rd.from_items(items, override_num_blocks=len(items))
            adm = ds.map_batches(
                partial(_admit_partition_fn, **admit_kw),
                batch_format="pyarrow",
                batch_size=None,  # one partition item per task
                zero_copy_batch=True,
                # differing resource spec prevents Ray from FUSING
                # admission+expand into one operator (a fused operator ran
                # the whole epoch as a single task — measured)
                num_cpus=0.9,
                # no task retries, as for expand: a failed task fails the
                # epoch, which resume reruns whole
                max_retries=0,
                retry_exceptions=False,
            )
            out_ds = adm.map_batches(
                partial(_expand_fn, shard_sink=True, **expand_kw),
                batch_format="pyarrow",
                batch_size=self.cfg.fetch_batch_size,
                zero_copy_batch=True,
                # NO task retries: expand mutates durable state (seen-shard
                # inserts and sink buffers) before its side-writes land,
                # so a mid-task retry would silently drop the rerun's
                # "already seen" URLs. A failed task fails the epoch; the
                # epoch temp dir is wiped whole and the epoch rerun from
                # its checkpointed frontier.
                max_retries=0,
                retry_exceptions=False,
            )
            # drive the streaming execution; each output row is one
            # task's counters
            _sum_counters(
                counters, out_ds.iter_batches(batch_format="pyarrow"),
                admit_kw["counters_dir"],
            )
        finally:
            ctx.target_max_block_size = prev_block_size
        flush_shards(self.shards)

    # -- per-epoch stats --------------------------------------------------
    def _epoch_stats(self, k: int, mode: str, counters: Counter) -> dict:
        """All stats come from counters the tasks accumulated (admission
        partitions are host-complete, so per-host politeness partials are
        exact; the frontier and failed-row counts are the rows each task
        side-wrote or a shard kept) — the driver reads none of the epoch's
        files (measured: the full-epoch parquet re-read was a multi-second
        serial term per epoch at bench scale)."""
        return {"epoch": k, "mode": mode,
                **{n: int(counters[n]) for n in EPOCH_COUNTERS}}


def _batch_file_name(t: pa.Table, prefix: str) -> str:
    """Deterministic content-derived file name: a retried task producing
    the same batch overwrites its own file (idempotent side-writes)."""
    from ..urls import hash_urls

    h = hash_urls(t["url"].to_numpy(zero_copy_only=False))
    sig = (int(h.sum()) & 0xFFFFFFFFFFFFFFFF) ^ (len(h) << 48)
    return f"{prefix}-{sig:016x}-{t.num_rows}.parquet"


def _sidewrite(t: pa.Table, directory: str, prefix: str) -> None:
    if t.num_rows == 0:
        return
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, _batch_file_name(t, prefix))
    pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)


FAILED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("epoch", pa.int32()),
        ("retries", pa.int16()),
        ("error", pa.string()),
    ]
)


def split_fetch_failures(
    fetched: pa.Table, epoch: int, max_retries: int
) -> tuple[pa.Table, pa.Table]:
    """(retry frontier rows, failed-table rows) from a fetched batch.

    A 503 attempt with retries < max_retries re-enters the frontier (same
    priority — admission re-ranks it next epoch); beyond max_retries it
    becomes a failed-table row — the first-class replacement for the
    reference's exit-time ``failed_dirs.json``
    (`/root/reference/crawlers/globus_base_preserved.py:473-477`).
    """
    from ..urls import hash_urls

    status = fetched["status"].to_numpy(zero_copy_only=False)
    retries = fetched["retries"].to_numpy(zero_copy_only=False)
    is_503 = status == 503
    retry_mask = is_503 & (retries < max_retries)
    failed_mask = is_503 & ~retry_mask
    rt = fetched.filter(pa.array(retry_mask))
    nr = rt.num_rows
    urls = rt["url"].to_numpy(zero_copy_only=False)
    kh = hash_urls(urls) if nr else np.empty(0, dtype=np.uint64)
    retry_rows = pa.Table.from_arrays(
        [
            rt["url"].combine_chunks(),
            rt["host"].combine_chunks(),
            rt["depth"].combine_chunks(),
            rt["priority"].combine_chunks(),
            pa.array(np.full(nr, epoch + 1, dtype=np.int32)),
            pa.array([""] * nr, type=pa.string()),
            pa.array((kh >> np.uint64(32) & np.uint64(63)).astype(np.int16)),
            pc.add(rt["retries"].combine_chunks(),
                   pa.scalar(1, pa.int16())).cast(pa.int16()),
        ],
        schema=FRONTIER_SCHEMA,
    )
    ft = fetched.filter(pa.array(failed_mask))
    failed_rows = pa.Table.from_arrays(
        [
            ft["url"].combine_chunks(),
            ft["host"].combine_chunks(),
            pa.array(np.full(ft.num_rows, epoch, dtype=np.int32)),
            ft["retries"].combine_chunks(),
            pa.array(["fetch_failed_503"] * ft.num_rows, type=pa.string()),
        ],
        schema=FAILED_SCHEMA,
    )
    return retry_rows, failed_rows


_PART_RE = re.compile(r"-p(\d+)-")


def _politeness_partials(admitted: pa.Table, min_gap_ms: int, cb) -> None:
    """Exact per-host politeness partials from an admitted batch: the
    batch is host-complete (admission partitions own whole hosts), so
    per-host counts — and therefore wait = (count-1)×gap and the distinct
    host count — are exact, not approximations."""
    per_host = pc.value_counts(admitted["host"]).field("counts").to_numpy()
    cb("politeness_wait_ms", int(((per_host - 1) * min_gap_ms).sum()))
    cb("num_hosts", len(per_host))


def _fetch_counters(fetched: pa.Table, cb) -> None:
    """Status tallies of a fetch batch (before member expansion — every
    fetcher row is src='fetch')."""
    st = fetched["status"].to_numpy(zero_copy_only=False)
    cb("urls_fetched", len(st))
    cb("urls_200", int((st == 200).sum()))
    cb("urls_404", int((st == 404).sum()))
    cb("urls_503", int((st == 503).sum()))


def _volume_counters(fetched: pa.Table, cb) -> None:
    """Bytes/link totals over the full batch (fetches + members)."""
    cb("bytes", int(pc.sum(fetched["bytes"]).as_py() or 0))
    cb("links_total", int(pc.sum(fetched["n_links"]).as_py() or 0))


def _sidewrite_partitioned(
    t: pa.Table, directory: str, prefix: str, num_parts: int
) -> None:
    """Write frontier rows split by the run-wide host partition key; the
    partition id is encoded in the file name (``prefix-pNNNN-sig.parquet``)
    so the next epoch groups files without opening them."""
    parts = host_partitions(t["host"].to_numpy(zero_copy_only=False),
                            num_parts)
    for p, part in split_by_partition(t, parts):
        _sidewrite(part, directory, f"{prefix}-p{p:04d}")


def _count(counters: Counter, name: str, v) -> None:
    counters[name] += int(v)


def _ms(seconds: float) -> int:
    """A stage timer in whole milliseconds, rounded up: a stage that ran
    never reads 0, even on a one-row epoch."""
    return math.ceil(seconds * 1000)


def _spill_manifest_files(epoch_dir: str) -> dict[int, str]:
    """Per-partition spill manifests committed with an epoch."""
    d = os.path.join(epoch_dir, "spill")
    if not os.path.isdir(d):
        return {}
    out = {}
    for name in sorted(os.listdir(d)):
        m = re.match(r"manifest-p(\d+)\.json$", name)
        if m:
            out[int(m.group(1))] = os.path.join(d, name)
    return out


def _partition_files(files: list[str]) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    for f in files:
        m = _PART_RE.search(os.path.basename(f))
        p = int(m.group(1)) if m else 0
        out.setdefault(p, []).append(f)
    return out


def _partition_items(frontier_files: list[str],
                     spill_manifests: dict[int, str]) -> list[dict]:
    """One admission item per host partition: its frontier files and its
    spill manifest (a partition may hold only spilled rows)."""
    by_part = _partition_files(frontier_files)
    for p in spill_manifests:
        by_part.setdefault(int(p), [])
    return [
        {"part": int(p), "files": fs,
         "manifest": spill_manifests.get(int(p), "")}
        for p, fs in sorted(by_part.items())
    ]


def _sum_counters(counters: Counter, expand_rows, counters_dir: str) -> None:
    """Add an epoch's counters: the expand kernel's output rows (one per
    call) and the admission kernel's per-partition JSON rows."""
    for b in expand_rows:
        for name in b.column_names:
            counters[name] += int(pc.sum(b[name]).as_py() or 0)
    for name in os.listdir(counters_dir):
        with open(os.path.join(counters_dir, name)) as f:
            counters.update(json.load(f))


# Per-WORKER-PROCESS cache for the fused expand stage. Ray Data tears actor
# pools down after every execution, but worker processes persist across the
# run's epochs — a module-level cache keeps the (zero-copy, object-store-
# backed) bucket handles and robots rules warm for the whole crawl (the ST1
# once-per-worker pattern,
# `/root/reference/crawlers/globus_base_preserved.py:192-207`). Everything
# cached is read-only; the heavy bytes live ONCE in the object store.
_PROC_CACHE: dict = {}
# Driver-side cache: corpus signature -> (bucket refs, num_buckets).
_CORPUS_REFS: dict = {}


def _corpus_signature(corpus_dir: str) -> str:
    """(path, meta) content signature: regenerating a corpus at the same
    path with different params yields a different signature, so neither
    the driver bucket-ref cache nor the per-worker fetcher cache can ever
    resume against stale content."""
    from ..sources.corpus import corpus_meta

    return os.path.abspath(corpus_dir) + "|" + json.dumps(
        corpus_meta(corpus_dir), sort_keys=True
    )


def warm_corpus(corpus_dir: str) -> None:
    """Pre-load + object-store-share the corpus buckets (idempotent).

    Benchmarks call this before the timed section: corpus residency is
    environment setup (the page-cache-warm analog), not crawl work.
    """
    key = _corpus_signature(corpus_dir)
    if key not in _CORPUS_REFS:
        _CORPUS_REFS[key] = put_corpus(corpus_dir)


def _admit_partition_fn(
    batch: pa.Table,
    *,
    pol,
    epoch: int,
    next_dir: str,
    num_parts: int,
    counters_dir: str,
    spill_dir: str | None = None,
    spill_rows: int | None = None,
    keep_per_host: int = 0,
    manifest_out_dir: str | None = None,
    robots_parts: list | None = None,
) -> pa.Table:
    """Admission for each host partition item in ``batch`` (one item per
    dataset task; every item in one local call). A partition is
    host-complete by construction: read its frontier files, per-host
    politeness top-K, side-write deferrals (partition-pure, one file),
    emit admitted rows; exact per-host politeness partials (this partition
    owns its hosts whole), the deferral and spill counts and the
    admission time (``t_admit_ms``) go to one counter row per partition,
    side-written to ``counters_dir`` under the partition's name, so a
    rerun overwrites it.

    Spilling (``spill_rows`` set — state/spill.py): frontier files are
    accumulated one read group (at most ``spill_rows`` rows, or one larger
    file) at a time; rows worse than a spilled host's boundary divert to
    spill on read, and whenever the accumulation exceeds ``spill_rows``
    the mega-host tails are compacted out — task memory stays bounded by
    spill_rows + one read group, not by the host's true pending size.
    Before admission, drained hosts refill their live slice from spill
    (best-first), so admission order per host matches the unbounded run
    wherever the live slice is non-empty."""
    import time

    from ..state import spill as spill_mod

    out = []
    for item in batch.to_pylist():
        t0 = time.perf_counter()
        p = int(item["part"])
        counters: Counter = Counter()
        cb = partial(_count, counters)
        manifest = spill_mod.load_manifest(item.get("manifest") or "")
        parts: list[pa.Table] = []
        acc_rows = 0
        for t in _read_frontier_groups(item["files"], spill_rows):
            if manifest:
                t, ns = spill_mod.enforce_boundary(
                    t, manifest, spill_dir, p
                )
                cb("spilled_rows", ns)
            parts.append(t)
            acc_rows += t.num_rows
            if spill_rows and acc_rows > spill_rows:
                merged = pa.concat_tables(parts).combine_chunks()
                merged, ns = spill_mod.compact(
                    merged, manifest, spill_dir, p, keep_per_host
                )
                cb("spilled_rows", ns)
                parts, acc_rows = [merged], merged.num_rows
        frontier = (
            pa.concat_tables(parts).combine_chunks()
            if parts else pa.Table.from_pylist([], schema=FRONTIER_SCHEMA)
        )
        if manifest:
            refilled, nref = spill_mod.refill(
                frontier, manifest, spill_dir, p, keep_per_host,
                trigger_for=lambda h: 2 * pol.max_per_epoch(h),
            )
            if refilled is not None:
                frontier = pa.concat_tables(
                    [frontier, refilled.select(frontier.column_names)]
                ).combine_chunks()
                cb("refilled_rows", nref)
            if manifest_out_dir:
                spill_mod.write_manifest(manifest, manifest_out_dir, p)
        if robots_parts is not None and frontier.num_rows:
            # admission-time robots (config.robots_at_admission): this
            # partition's OWN rules only — resolved once per worker via
            # the shared broadcast LRU. Filtering precedes the top-K so
            # admitted rows match the discovery-time-filtered run.
            from ..functions.relational import resolve_broadcast
            from ..stages.outlinks import robots_mask_urls

            rules = resolve_broadcast(robots_parts[p])
            if rules:
                blocked = robots_mask_urls(
                    frontier["url"], frontier["host"], rules
                )
                nb = int(blocked.sum())
                if nb:
                    cb("robots_denied", nb)
                    frontier = frontier.filter(pa.array(~blocked))
        adm = admit_per_host(frontier, pol, epoch)
        mask = adm["admitted"].combine_chunks()
        deferred = adm.filter(pc.invert(mask)).select(FRONTIER_COLS)
        _sidewrite_partitioned(deferred, next_dir, "deferred", num_parts)
        cb("deferred", deferred.num_rows)
        admitted = adm.filter(mask).drop_columns(["admitted"])
        _politeness_partials(admitted, pol.min_gap_ms, cb)
        cb("t_admit_ms", _ms(time.perf_counter() - t0))
        os.makedirs(counters_dir, exist_ok=True)
        path = os.path.join(counters_dir, f"admit-p{p:04d}.json")
        with open(path + ".tmp", "w") as f:
            json.dump(counters, f)
        os.replace(path + ".tmp", path)
        out.append(admitted)
    return pa.concat_tables(out) if len(out) > 1 else out[0]


def _read_frontier_groups(files: list[str], max_rows: int | None):
    """Read a partition's frontier files in groups of consecutive files
    holding at most ``max_rows`` rows together (a larger file alone; all
    at once without a bound), so admission pays its per-read costs —
    spill-boundary checks and the chunk writes they cause — per group,
    not per file: the seen shards write one small file per (shard,
    partition) per epoch. Each file is read directly, on one thread:
    ``pq.read_table`` would set up a dataset per file, and the partitions
    and tasks already give the parallelism."""
    group: list[pa.Table] = []
    n = 0
    for f in files:
        t = pq.ParquetFile(f).read(use_threads=False)
        if group and max_rows and n + t.num_rows > max_rows:
            yield pa.concat_tables(group)
            group, n = [], 0
        group.append(t)
        n += t.num_rows
    if group:
        yield pa.concat_tables(group)


def _make_fetcher(source_kind: str, corpus_dir: str, corpus_refs,
                  corpus_nb: int, epoch: int, flaky_every: int):
    """Source seam (SURVEY.md §2.10): every fetcher implements the same
    ``__call__(frontier batch) -> FETCHED_SCHEMA`` + ``set_epoch``
    contract; the epoch driver is source-agnostic."""
    if source_kind == "posix":
        from ..stages.posix import PosixFetcher

        return PosixFetcher(corpus_dir, epoch)
    if source_kind == "drive":
        from ..stages.drive import DriveFetcher

        return DriveFetcher(corpus_dir, epoch)
    return CorpusFetcher(
        SharedBucketProvider(corpus_refs, corpus_nb), epoch,
        flaky_every=flaky_every,
    )


def _worker_robots(robots_ref, corpus_sig: str,
                   robots_at_admission: bool) -> dict:
    """The discovery-time robots rules, cached per worker process by what
    they are (the corpus and the filtering site), not by the per-run
    object ref: every CrawlRun puts a fresh ref, so a ref-keyed cache grew
    by one entry per run in every worker."""
    key = ("robots", corpus_sig, robots_at_admission)
    robots = _PROC_CACHE.get(key)
    if robots is None:
        import ray

        robots = _PROC_CACHE[key] = ray.get(robots_ref)
    return robots


def _expand_fn(
    t: pa.Table,
    *,
    epoch: int,
    fetched_dir: str,
    next_dir: str,
    num_parts: int,
    corpus_dir: str,
    corpus_sig: str,
    corpus_refs: list,
    corpus_nb: int,
    robots_ref,
    robots_at_admission: bool,
    skip: tuple,
    shards: list,
    source_kind: str = "corpus",
    enrich: bool = True,
    flaky_every: int = 0,
    max_retries: int = 2,
    shard_sink: bool,
) -> pa.Table:
    """Fetch/expand one chunk of admitted rows: corpus lookup against the
    shared zero-copy buckets, archive-member expansion, side-write fetched
    rows (spans included), extract/canonicalize/filter outlinks and probe
    the seen shards (launched async and gathered after enrich and the
    side-writes, so the RPC round-trip overlaps compute). Fetch-retry
    rows skip the probe and join the next frontier directly.

    ``shard_sink`` says who writes the new frontier rows. True (the
    dataset scheduler's many concurrent tasks): the probe carries the
    candidate rows and the shards keep the new ones until the driver's
    ``flush``, so files scale with shards x partitions, not tasks x
    partitions. False (the local scheduler's one call): the probe returns
    the new rows and this call writes them with the retries, one file
    per partition.

    Returns one row of this chunk's counters (``EXPAND_COUNTERS``). NOT
    retry-safe (seen-shard side effects) — the stage runs with
    max_retries=0 and a failure fails the epoch, which resume reruns
    whole."""
    import time as _time

    fetcher = _PROC_CACHE.get(("fetcher", corpus_sig, flaky_every))
    if fetcher is None:
        fetcher = _make_fetcher(source_kind, corpus_dir, corpus_refs,
                                corpus_nb, epoch, flaky_every)
        _PROC_CACHE[("fetcher", corpus_sig, flaky_every)] = fetcher
    fetcher.set_epoch(epoch)
    robots = _worker_robots(robots_ref, corpus_sig, robots_at_admission)
    counters: Counter = Counter()
    cb = partial(_count, counters)

    _t0 = _time.perf_counter()
    fetched = fetcher(t)
    _fetch_counters(fetched, cb)
    fetched = expand_archives(fetched, shards, epoch, cb)
    _volume_counters(fetched, cb)
    _t1 = _time.perf_counter()
    links = extract_links(fetched.select(["url", "depth", "spans"]))
    filt = canon_and_filter(links, robots, skip, cb)
    probe = probe_new_start(filt, shards, epoch,
                            sink=(next_dir, num_parts) if shard_sink else None)
    _t15 = _time.perf_counter()
    if enrich:
        fetched = enrich_fetched(fetched)
    _t2 = _time.perf_counter()
    retry_rows, failed_rows = split_fetch_failures(
        fetched.select([f.name for f in FETCHED_SCHEMA]), epoch, max_retries
    )
    _sidewrite(fetched, fetched_dir, "fetched")
    _sidewrite(
        failed_rows,
        os.path.join(os.path.dirname(fetched_dir), "failed"),
        "failed",
    )
    cb("failed", failed_rows.num_rows)
    if shard_sink:
        _sidewrite_partitioned(retry_rows, next_dir, "discovered", num_parts)
    _t3 = _time.perf_counter()
    # with the shard sink, the delivery guarantee: the shards hold this
    # chunk's new frontier rows before the task succeeds
    new = probe_new_finish(probe, cb)
    _t4 = _time.perf_counter()
    if not shard_sink:
        _sidewrite_partitioned(pa.concat_tables([new, retry_rows]),
                               next_dir, "discovered", num_parts)
        new = new.num_rows
    _t5 = _time.perf_counter()
    cb("discovered", new + retry_rows.num_rows)
    # per-stage telemetry (ms, summed per epoch) — reads back in stats
    cb("t_fetch_ms", _ms(_t1 - _t0))
    cb("t_canon_ms", _ms(_t15 - _t1))
    cb("t_enrich_ms", _ms(_t2 - _t15))
    cb("t_write_ms", _ms(_t3 - _t2 + _t5 - _t4))
    cb("t_probe_ms", _ms(_t4 - _t3))  # gather only; RPCs overlapped
    return pa.table({n: pa.array([counters[n]], pa.int64())
                     for n in EXPAND_COUNTERS})


def fetched_files(run_dir: str) -> list[str]:
    """The fetched parquet files of a (possibly partial) run, in epoch
    order."""
    files: list[str] = []
    ep_root = os.path.join(run_dir, "epochs")
    for d in sorted(os.listdir(ep_root)):
        if d.startswith("epoch="):
            files.extend(_parquet_files(os.path.join(ep_root, d, "fetched")))
    return files


def fetched_dataset(run_dir: str):
    """All fetched docs of a (possibly partial) run as one Dataset."""
    import ray.data as rd

    return rd.read_parquet(fetched_files(run_dir))


# one-entry per-process cache for drain_fetched: the last epoch's sorted
# fetched table (epochs are immutable once committed)
_DRAIN_CACHE: dict = {}


def drain_fetched(
    run_dir: str,
    n: int,
    cursor: tuple[int, str] | None = None,
    columns: list[str] | None = None,
) -> tuple[pa.Table, tuple[int, str] | None]:
    """Resumable paginated drain of the fetched table — the consumer-side
    analog of the reference's ``fetch_mdata(n)`` poll loop
    (`/root/reference/application.py:255-274` plucks ≤n files per call
    from the drained SQS queue; here pagination is deterministic and
    restartable instead of destructive).

    Rows are delivered in total order (fetch_epoch, url). ``cursor`` is
    the (epoch, url) of the last delivered row (opaque to callers);
    passing the returned cursor back continues exactly after it — across
    process restarts too, since the cursor carries no in-memory state.
    Reads one epoch's fetched files at a time, so driver memory is
    bounded by ONE EPOCH's fetched rows + the page (the epoch is
    sorted in memory on first touch — a consumer draining a run whose
    single largest epoch exceeds driver memory should read the epoch
    parquet dirs directly as a Dataset instead); a one-entry per-process
    cache keeps the LAST epoch's sorted table, so sequentially draining
    an epoch in small pages is O(page) per call instead of re-reading
    and re-sorting the epoch every page (committed epochs are immutable,
    so the cache can never go stale within a run dir).

    Cursor correctness rests on per-epoch url uniqueness (the seen
    filter admits each url once, archive members are namespaced) — the
    strict ``url > after_url`` resume would silently skip rows if an
    epoch ever held duplicates, so the sort ASSERTS the invariant and a
    future break surfaces loudly here rather than as dropped rows.

    Returns (page table, next cursor); next cursor is None when the run
    is exhausted.
    """
    ep_root = os.path.join(run_dir, "epochs")
    epochs = sorted(
        int(d.split("=")[1]) for d in os.listdir(ep_root)
        if d.startswith("epoch=")
    )
    start_epoch, after_url = cursor if cursor else (epochs[0] if epochs else 0,
                                                   "")
    pages: list[pa.Table] = []
    got = 0
    for k in epochs:
        if k < start_epoch:
            continue
        files = _parquet_files(
            os.path.join(ep_root, f"epoch={k:05d}", "fetched")
        )
        if not files:
            continue
        cache_key = (os.path.abspath(run_dir), k, tuple(files))
        if _DRAIN_CACHE.get("key") == cache_key:
            t = _DRAIN_CACHE["table"]
        else:
            t = pa.concat_tables(
                [pq.read_table(f) for f in files]
            ).sort_by("url")
            n_uniq = pc.count_distinct(t["url"]).as_py()
            if n_uniq != t.num_rows:
                raise AssertionError(
                    f"epoch {k}: {t.num_rows - n_uniq} duplicate fetched "
                    "urls — the (epoch, url) drain cursor would skip rows"
                )
            _DRAIN_CACHE["key"] = cache_key
            _DRAIN_CACHE["table"] = t
        if k == start_epoch and after_url:
            mask = pc.greater(t["url"], pa.scalar(after_url))
            t = t.filter(mask)
        if columns:
            t = t.select(columns + (["url"] if "url" not in columns else []))
        if t.num_rows > n - got:
            t = t.slice(0, n - got)
        if t.num_rows:
            pages.append(t)
            got += t.num_rows
            cursor = (k, t["url"][-1].as_py())
        if got >= n:
            return pa.concat_tables(pages), cursor
    page = (
        pa.concat_tables(pages) if pages
        else pa.Table.from_pylist([], schema=FETCHED_SCHEMA)
    )
    return page, None  # exhausted


def crawl_stats_table(run_dir: str) -> pa.Table:
    files = sorted(
        os.path.join(run_dir, "epochs", d, "stats.parquet")
        for d in os.listdir(os.path.join(run_dir, "epochs"))
        if d.startswith("epoch=")
    )
    if not files:
        return pa.table({})
    # "default" promotion: epochs committed before a column existed (a
    # run resumed across versions) read it as null
    return pa.concat_tables([pq.read_table(f) for f in files],
                            promote_options="default")


def fetched_table(run_dir: str) -> pa.Table:
    """Driver-side load of all fetched rows (tests / small runs only)."""
    files = []
    ep_root = os.path.join(run_dir, "epochs")
    for d in sorted(os.listdir(ep_root)):
        if d.startswith("epoch="):
            files.extend(_parquet_files(os.path.join(ep_root, d, "fetched")))
    tables = [pq.read_table(f) for f in files]
    return pa.concat_tables(tables).combine_chunks()
