"""Benchmark harness (driver contract).

Prints ONE JSON line:
  {"metric": "...", "value": <headline seconds>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "crawl": {...}, "urls_per_sec": ...}

Headline = wall time of the flagship frontier crawl (fresh run, corpus
generation and page-cache warm excluded) over a corpus scaled to the sf
under bench, plus per-query timings for a representative operator subset
over $GRAFT_SF_DIR.

  python bench.py                 # env: GRAFT_SF_DIR, RAY_GRAFT_CPUS
  python bench.py --crawl-only    # just the crawl headline
  python bench.py --scaling       # two fresh processes (a quarter of
                                  # the affinity CPUs vs all of them) on
                                  # the SAME crawl input → throughput at
                                  # both + scaling efficiency
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import time

# crawl corpus per sf tag: (hosts, pages/host, min_gap_ms)
CRAWL_SCALE = {
    "sf0.001": (6, 80, 10),
    "sf0.01": (10, 480, 5),
    "sf0.1": (24, 2600, 1),
}

# Historical key order, so the BENCH_r{N} files stay comparable on these
# keys.
BENCH_QUERIES = [
    "filter_project",
    "agg_pricing",
    "join_broadcast",
    "join_partitioned",
    "sort_topk",
    "window_hourly",
    "dedup_exact",
    "dedup_minhash",
    "ann_topk",
    "langid",
    "curate",
    "pack_sequences",
    "dup_spans",
    "mm_pack",
    "bpe_audit",
    "bpe_encode",
    "pca_audit",
    "dedup_incremental_audit",
    "shuffle_shards",
]


def _consume(res) -> int:
    """Force full streaming execution; return row count."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return sum(
            b.num_rows
            for b in res.iter_batches(batch_format="pyarrow", batch_size=65536)
        )
    if isinstance(res, (pa.Table, pd.DataFrame)):
        return len(res)
    return 0


def run_crawl(sf_tag: str, num_cpus: int) -> dict:
    from crawler_service_ray.config import CrawlConfig, PolitenessConfig
    from crawler_service_ray.pipelines.crawl import CrawlRun, warm_corpus
    from crawler_service_ray.sources.corpus import (
        default_seeds,
        generate_corpus,
    )

    hosts, pages, gap = CRAWL_SCALE.get(sf_tag, CRAWL_SCALE["sf0.1"])
    hosts = int(os.environ.get("CSR_BENCH_HOSTS", hosts))
    pages = int(os.environ.get("CSR_BENCH_PAGES", pages))
    gap = int(os.environ.get("CSR_BENCH_GAP", gap))
    epoch_ms = int(os.environ.get("CSR_BENCH_EPOCH_MS", 4000))
    base = os.environ.get("CSR_SCRATCH", "/tmp/csr_bench")
    corpus_dir = os.path.join(base, f"corpus_{hosts}x{pages}")
    run_dir = os.path.join(base, f"bench_run_{hosts}x{pages}_{num_cpus}")
    generate_corpus(corpus_dir, num_hosts=hosts, pages_per_host=pages,
                    fanout=3, cross=2, num_buckets=32)
    # warm the OS page cache + object-store corpus residency (untimed —
    # environment setup, not crawl work)
    for root, _d, files in os.walk(corpus_dir):
        for f in files:
            with open(os.path.join(root, f), "rb") as fh:
                fh.read()
    warm_corpus(corpus_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    # optional frontier-spilling pressure (the mega-host scale path):
    # CSR_BENCH_SPILL_ROWS bounds each partition's live frontier and
    # CSR_BENCH_KEEP_PER_HOST the per-host live slice, forcing the
    # compact/boundary/refill machinery into the measured loop
    spill_rows = os.environ.get("CSR_BENCH_SPILL_ROWS")
    keep_ph = os.environ.get("CSR_BENCH_KEEP_PER_HOST")
    cfg = CrawlConfig(
        corpus_dir=corpus_dir,
        run_dir=run_dir,
        seeds=default_seeds(hosts, n=hosts),  # seed every host: wide BFS
        politeness=PolitenessConfig(min_gap_ms=gap, epoch_ms=epoch_ms),
        frontier_spill_rows=int(spill_rows) if spill_rows else None,
        frontier_keep_per_host=int(keep_ph) if keep_ph else None,
        max_epochs=64,
        # the seen-set service scales with the cluster (shards-per-node in
        # a real deployment): its CPU footprint stays proportional at both
        # scaling legs instead of flat-taxing the small one
        num_seen_shards=max(4, num_cpus // 2),
        num_host_partitions=int(os.environ.get("CSR_BENCH_PARTS", "64")),
    )
    # best-of-N (default 2): this host has bursty external neighbors
    # (same-code crawl walls observed 8-19 s across calm/noisy windows);
    # the minimum measures the code, the full list records the spread
    reps = int(os.environ.get("CSR_BENCH_REPS", "2"))
    walls = []
    for _ in range(max(1, reps)):
        shutil.rmtree(run_dir, ignore_errors=True)
        t0 = time.time()
        summary = CrawlRun(cfg).run(resume=False)
        walls.append(time.time() - t0)
    wall = min(walls)
    processed = summary["urls_fetched"] + summary["dedup_hits"]
    return {
        "sec": round(wall, 3),
        "runs_sec": [round(w, 3) for w in walls],
        "urls_fetched": summary["urls_fetched"],
        "dedup_hits": summary["dedup_hits"],
        "epochs": summary["epochs"],
        "spilled_rows": summary.get("spilled_rows", 0),
        "refilled_rows": summary.get("refilled_rows", 0),
        "urls_per_sec": round(summary["urls_fetched"] / wall, 1),
        "processed_per_sec": round(processed / wall, 1),
    }


def _quiet_schema_warnings():
    """The testdata parquet carries pandas metadata, which makes pyarrow
    Schemas unhashable; Ray Data's schema-dedup early-exit then logs one
    WARNING per worker. Point Ray Data's logging config at a YAML that
    keeps that module file-only — set BEFORE ray.init so the raylet (and
    therefore every worker) inherits the env var."""
    os.environ.setdefault(
        "RAY_DATA_LOGGING_CONFIG",
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "scripts", "ray_data_logging.yaml"),
    )


def main() -> dict:
    import ray

    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    sf_tag = os.path.basename(os.path.normpath(sf_dir))
    crawl_only = "--crawl-only" in sys.argv

    _quiet_schema_warnings()
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    crawl = run_crawl(sf_tag, num_cpus)
    qtimes = {}
    if not crawl_only:
        import __ray_entry__ as e

        qs = e.queries()
        # untimed warmup: spin up Ray Data workers + page-cache the input
        _consume(qs["count_lineitem"](sf_dir))
        # best-of-N per query (same CSR_BENCH_REPS knob as the crawl leg,
        # same rationale: the minimum measures the code on a host with
        # bursty external load)
        reps = int(os.environ.get("CSR_BENCH_REPS", "2"))
        for name in BENCH_QUERIES:
            best = None
            for _ in range(max(1, reps)):
                t0 = time.time()
                _consume(qs[name](sf_dir))
                dt = time.time() - t0
                best = dt if best is None else min(best, dt)
            qtimes[name] = round(best, 3)

    out = {
        "metric": "crawl_wall_sec (URLs fetched+deduped/sec in crawl.processed_per_sec)",
        "value": crawl["sec"],
        "unit": "sec",
        "queries": qtimes,
        "sf": sf_tag,
        "num_cpus": num_cpus,
        "crawl": crawl,
        "urls_per_sec": crawl["urls_per_sec"],
        "processed_per_sec": crawl["processed_per_sec"],
    }
    print(json.dumps(out))
    ray.shutdown()
    return out


def scaling() -> None:
    """Two fresh processes at ``lo`` and ``hi`` CPUs on the same input,
    and the throughput scaling efficiency between them, ``(T_lo / T_hi)
    / (hi / lo)`` (the two-cluster-size criterion, BASELINE.md).

    Default pair: ``hi`` is the number of CPUs this process may run on
    (``os.sched_getaffinity``), ``lo`` a quarter of it, at least 1; so
    1 and 4 on a 4-CPU host. Override with CSR_SCALING_LO /
    CSR_SCALING_HI. The ``lo`` leg is a Ray session with fewer CPUs,
    not a pinned process: the 0-CPU seen-shard hosts (one per leg CPU),
    the raylet and the driver still run on every allowed CPU. The JSON records the
    affinity CPU count, OMP_NUM_THREADS and ``pyarrow.cpu_count()``
    (Arrow's own thread pool, which OMP_NUM_THREADS sizes), because
    each bounds how much of a leg's CPUs the engine can use.
    """

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            # the scaling workload is a larger corpus than the quick bench:
            # epochs must carry enough parallel work (≥10^5 URLs each) that
            # compute, not per-epoch orchestration, dominates wall time.
            # CSR_BENCH_* already in the environment pass through, so a
            # spill-exercising variant (CSR_BENCH_SPILL_ROWS + tighter
            # politeness) runs the same two-leg protocol
            CSR_BENCH_HOSTS=os.environ.get("CSR_SCALING_HOSTS", "256"),
            CSR_BENCH_PAGES=os.environ.get("CSR_SCALING_PAGES", "16000"),
            CSR_BENCH_GAP=os.environ.get("CSR_BENCH_GAP", "1"),
            CSR_BENCH_EPOCH_MS=os.environ.get("CSR_BENCH_EPOCH_MS", "8000"),
            CSR_BENCH_PARTS=os.environ.get("CSR_BENCH_PARTS", "128"),
        )
        out = subprocess.run(
            [sys.executable, "bench.py", "--crawl-only"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    import pyarrow as pa

    affinity = len(os.sched_getaffinity(0))
    hi = int(os.environ.get("CSR_SCALING_HI", affinity))
    lo = int(os.environ.get("CSR_SCALING_LO", max(1, hi // 4)))
    r_lo, r_hi = run(lo), run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    print(json.dumps({
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"processed_per_sec_{lo}": r_lo["processed_per_sec"],
        f"processed_per_sec_{hi}": r_hi["processed_per_sec"],
        "num_cpus_lo": lo,
        "num_cpus_hi": hi,
        "scaling_efficiency": round(eff, 3),
        "spilled_rows": r_hi["crawl"].get("spilled_rows", 0),
        "sf": r_lo["sf"],
        "affinity_cpus": affinity,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "pyarrow_cpu_count": pa.cpu_count(),
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()
