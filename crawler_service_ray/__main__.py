"""CLI entry point — the replacement for the reference's Flask control
plane (`/root/reference/application.py:101-296`: POST /crawl,
/get_crawl_status, /fetch_crawl_mdata) per SURVEY.md §2.10: crawls are
launched with ``ray job submit -- python -m crawler_service_ray ...`` (or
directly); status and results live in the run directory (manifests,
run_summary.json, fetched parquet) instead of Postgres rows and SQS
queues.

  python -m crawler_service_ray crawl --corpus DIR --run DIR \
      [--seeds URL ...] [--max-epochs N] [--min-gap-ms MS] [--resume]
  python -m crawler_service_ray status --run DIR
  python -m crawler_service_ray gen-corpus --corpus DIR --hosts H --pages P
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="crawler_service_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="run a frontier crawl")
    c.add_argument("--corpus", required=True,
                   help="corpus dir, or a real directory tree with "
                        "--source posix")
    c.add_argument("--source", choices=["corpus", "posix", "drive"],
                   default="corpus")
    c.add_argument("--run", required=True)
    c.add_argument("--seeds", nargs="*", default=None)
    c.add_argument("--max-epochs", type=int, default=64)
    c.add_argument("--min-gap-ms", type=int, default=200)
    c.add_argument("--epoch-ms", type=int, default=4000)
    c.add_argument("--seen-shards", type=int, default=8)
    c.add_argument("--skip", nargs="*", default=[])
    c.add_argument("--resume", action="store_true")
    c.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("status", help="show run status from manifests")
    s.add_argument("--run", required=True)

    dr = sub.add_parser(
        "drain",
        help="paginated consumer: print n fetched rows (JSONL) + cursor "
             "(memory: holds one epoch's fetched rows sorted; for runs "
             "whose largest epoch exceeds driver memory read the epoch "
             "parquet dirs as a Dataset instead)",
    )
    dr.add_argument("--run", required=True)
    dr.add_argument("-n", type=int, default=10)
    dr.add_argument("--cursor", default=None,
                    help="'epoch:url' from a previous drain")

    ex = sub.add_parser(
        "export",
        help="curate documents (quality/lang filter + exact dedup + "
             "split assignment) into hive-partitioned parquet "
             "(split=…/lang_pred=…); atomic commit + manifest — rerun "
             "with the manifest present is a no-op (at scale: one "
             "export per input shard, skip shards with manifests)",
    )
    ex.add_argument("--sf-dir", default=None,
                    help="documents shard to export (scores computed)")
    ex.add_argument("--from-run", default=None,
                    help="finished crawl run dir to export instead "
                         "(text from spans, scores from the crawl's "
                         "own enrichment)")
    ex.add_argument("--out", required=True)
    ex.add_argument("--min-quality", type=float, default=0.5)
    ex.add_argument("--langs", nargs="*", default=None)
    ex.add_argument("--no-resume", action="store_true")
    ex.add_argument("--packed", action="store_true",
                    help="also write packed/ — greedy token-bin packed "
                         "sequences per (split, lang), trainer-ready")
    ex.add_argument("--pack-capacity", type=int, default=2048)
    ex.add_argument("--text-only", action="store_true",
                    help="--from-run only: drop media segments (default "
                         "exports interleaved text+media with a deduped "
                         "media/ table)")
    ex.add_argument("--multimodal", action="store_true",
                    help="--sf-dir only: derive interleaved text+media "
                         "segments per doc (the mm_* derivation) and "
                         "export them like --from-run does by default")
    ex.add_argument("--lsh-index", default=None,
                    help="persistent cross-run LSH index dir (with "
                         "--from-run): report this run's near-dups vs "
                         "all previously indexed runs, then fold the "
                         "run in")
    ex.add_argument("--lsh-threshold", type=float, default=0.7)
    ex.add_argument("--bpe-merges", default=None,
                    help="merges parquet (see train-bpe): token "
                         "accounting and --pack-capacity then mean "
                         "real BPE tokenizer tokens")
    ex.add_argument("--shuffle-shards", type=int, default=None,
                    help="write data/ under shard=0..N-1 hive dirs: "
                         "deterministic balanced global-hash-order "
                         "shards — a reproducible pre-shuffled layout "
                         "(same doc, same shard, any parallelism)")
    ex.add_argument("--num-cpus", type=int, default=None)

    tb = sub.add_parser(
        "train-bpe",
        help="train BPE merges over a documents shard and save the "
             "merge table as parquet (feed to export --bpe-merges)",
    )
    tb.add_argument("--sf-dir", required=True)
    tb.add_argument("--out", required=True, help="merges parquet path")
    tb.add_argument("--num-merges", type=int, default=64)
    tb.add_argument("--num-cpus", type=int, default=None)

    cp = sub.add_parser(
        "compact",
        help="rewrite each hive leaf's small parquet files into "
             "~target-MB files in place (atomic per-leaf swap, layout "
             "preserved) — the OPTIMIZE pass for accreted output",
    )
    cp.add_argument("--dir", required=True)
    cp.add_argument("--target-mb", type=float, default=64.0)
    cp.add_argument("--num-cpus", type=int, default=None)

    g = sub.add_parser("gen-corpus", help="synthesize a corpus")
    g.add_argument("--corpus", required=True)
    g.add_argument("--hosts", type=int, default=8)
    g.add_argument("--pages", type=int, default=200)
    g.add_argument("--fanout", type=int, default=3)
    g.add_argument("--cross", type=int, default=2)
    g.add_argument("--buckets", type=int, default=16)

    gd = sub.add_parser("gen-drive",
                        help="synthesize a drive-account fixture "
                             "(Box/GDrive-shaped paginated listings)")
    gd.add_argument("--corpus", required=True)
    gd.add_argument("--drives", type=int, default=2)
    gd.add_argument("--folders", type=int, default=7)
    gd.add_argument("--files", type=int, default=6)
    gd.add_argument("--fanout", type=int, default=2)
    gd.add_argument("--page-size", type=int, default=4)

    args = ap.parse_args(argv)

    if args.cmd == "gen-drive":
        from .stages.drive import generate_drive_fixture

        path = generate_drive_fixture(
            args.corpus, num_drives=args.drives,
            folders_per_drive=args.folders, files_per_folder=args.files,
            fanout=args.fanout, page_size=args.page_size,
        )
        print(json.dumps({"fixture": path}))
        return 0

    if args.cmd == "compact":
        import ray

        if not ray.is_initialized():
            kw = {"num_cpus": args.num_cpus} if args.num_cpus else {}
            ray.init(address="local", include_dashboard=False,
                     logging_level="ERROR", **kw)
        from .pipelines.compact import compact_dir

        print(json.dumps(compact_dir(args.dir, target_mb=args.target_mb)))
        return 0

    if args.cmd == "gen-corpus":
        from .sources.corpus import generate_corpus

        meta = generate_corpus(
            args.corpus, num_hosts=args.hosts, pages_per_host=args.pages,
            fanout=args.fanout, cross=args.cross, num_buckets=args.buckets,
        )
        print(json.dumps(meta))
        return 0

    if args.cmd == "drain":
        from .pipelines.crawl import drain_fetched

        cursor = None
        if args.cursor:
            ep, _, url = args.cursor.partition(":")
            cursor = (int(ep), url)
        page, nxt = drain_fetched(args.run, args.n, cursor)
        for row in page.drop_columns(["spans"]).to_pylist():
            print(json.dumps(row))
        print(json.dumps(
            {"cursor": f"{nxt[0]}:{nxt[1]}" if nxt else None,
             "rows": page.num_rows}
        ))
        return 0

    if args.cmd == "export":
        import ray

        if not ray.is_initialized():
            kw = {"num_cpus": args.num_cpus} if args.num_cpus else {}
            ray.init(address="local", include_dashboard=False,
                     logging_level="ERROR", **kw)
        from .pipelines.export import export_corpus, export_run

        if bool(args.sf_dir) == bool(args.from_run):
            ap.error("export needs exactly one of --sf-dir / --from-run")
        fn, src = ((export_run, args.from_run) if args.from_run
                   else (export_corpus, args.sf_dir))
        kw2 = ({"multimodal": not args.text_only,
                "lsh_index": args.lsh_index,
                "lsh_threshold": args.lsh_threshold} if args.from_run
               else {"multimodal": args.multimodal})
        if args.lsh_index and not args.from_run:
            ap.error("--lsh-index requires --from-run")
        manifest = fn(
            src, args.out, min_quality=args.min_quality,
            langs=args.langs, resume=not args.no_resume,
            packed=args.packed, pack_capacity=args.pack_capacity,
            bpe_merges=args.bpe_merges,
            shuffle_shards=args.shuffle_shards,
            **kw2,
        )
        print(json.dumps(manifest))
        return 0

    if args.cmd == "train-bpe":
        import ray

        if not ray.is_initialized():
            kw = {"num_cpus": args.num_cpus} if args.num_cpus else {}
            ray.init(address="local", include_dashboard=False,
                     logging_level="ERROR", **kw)
        import pyarrow as pa
        import pyarrow.parquet as pq

        from .functions.text import bpe_train_merges
        from .functions.relational import read_table

        docs = read_table(args.sf_dir, "documents",
                          columns=["doc_id", "text"])
        merges = bpe_train_merges(docs, num_merges=args.num_merges)
        pq.write_table(pa.Table.from_pandas(merges), args.out)
        print(json.dumps({"merges": len(merges), "out": args.out}))
        return 0

    if args.cmd == "status":
        import os

        from .pipelines.crawl import (
            FAILED_RECORD,
            SEEN_HEALTH,
            crawl_stats_table,
        )

        summary = os.path.join(args.run, "run_summary.json")
        failed = os.path.join(args.run, FAILED_RECORD)
        if not os.path.isdir(os.path.join(args.run, "epochs")):
            print(json.dumps({"state": "not-started"}))
            return 0
        t = crawl_stats_table(args.run).to_pylist()
        progress = {
            "epochs_complete": len(t),
            "urls_fetched": sum(r["urls_fetched"] for r in t),
        }
        # the failure record is the latest attempt's: a successful run
        # removes it, so it outranks an older summary
        if os.path.exists(failed):
            with open(failed) as f:
                rec = json.load(f)
            out = {"state": "failed", "cause": rec["cause"],
                   "exception": rec["exception"],
                   "failed_epoch": rec["epoch"], **progress}
        elif os.path.exists(summary):
            with open(summary) as f:
                out = {"state": "complete", **json.load(f)}
        else:
            out = {"state": "in-progress", **progress}
        # driver-side seen snapshot time, over the committed epochs
        out["t_snapshot_ms"] = sum(r.get("t_snapshot_ms") or 0 for r in t)
        if t:  # seen-shard health after the last committed epoch
            last = max(t, key=lambda r: r["epoch"])
            out["seen"] = {k: last.get(k) for k in SEEN_HEALTH}
        print(json.dumps(out))
        return 0

    # crawl
    import ray

    if not ray.is_initialized():  # the driver contract owns init elsewhere
        kw = {"num_cpus": args.num_cpus} if args.num_cpus else {}
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR", **kw)
    from .config import CrawlConfig, PolitenessConfig
    from .pipelines.crawl import CrawlRun
    from .sources.corpus import corpus_meta, default_seeds

    seeds = args.seeds
    if not seeds:
        if args.source == "posix":
            seeds = ["posix://data"]
        elif args.source == "drive":
            from .stages.drive import default_drive_seeds

            seeds = default_drive_seeds(args.corpus)
        else:
            seeds = default_seeds(corpus_meta(args.corpus)["num_hosts"])
    cfg = CrawlConfig(
        corpus_dir=args.corpus,
        run_dir=args.run,
        source_kind=args.source,
        seeds=seeds,
        politeness=PolitenessConfig(min_gap_ms=args.min_gap_ms,
                                    epoch_ms=args.epoch_ms),
        max_epochs=args.max_epochs,
        num_seen_shards=args.seen_shards,
        skip_substrings=tuple(args.skip),
    )
    summary = CrawlRun(cfg).run(resume=args.resume)
    print(json.dumps({k: v for k, v in summary.items() if k != "config"}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
