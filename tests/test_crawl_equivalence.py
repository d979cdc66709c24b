"""Engine ↔ oracle equivalence (the north-rule contract, SURVEY.md §5.2):

(a) identical visited-URL set per epoch ⇒ identical crawl order (order is
    value-defined: sort by (epoch, priority desc, url));
(b) row-for-row span-sequence equality (kind, text, media_ref, order);
(c) identical final URL-seen set;
plus per-epoch stats parity (dedup hits, robots denials, politeness waits)
and politeness min-gap compliance on recorded virtual timestamps.

Both execution paths are exercised: driver-local Arrow kernels and the
Ray Data Dataset pipeline.
"""

import numpy as np
import pytest

from crawler_service_ray.config import CrawlConfig, PolitenessConfig
from crawler_service_ray.oracle import oracle_crawl
from crawler_service_ray.pipelines.crawl import (
    CrawlRun,
    crawl_stats_table,
    fetched_table,
)
from crawler_service_ray.sources.corpus import default_seeds
from crawler_service_ray.urls import hash_urls


def _cfg(corpus, run_dir, **kw):
    defaults = dict(
        corpus_dir=corpus,
        run_dir=run_dir,
        seeds=default_seeds(3),
        politeness=PolitenessConfig(min_gap_ms=200, epoch_ms=4000),
        max_epochs=60,
        num_seen_shards=4,
    )
    defaults.update(kw)
    return CrawlConfig(**defaults)


def _engine_records(run_dir, src="fetch"):
    t = fetched_table(run_dir)
    recs = {}
    for r in t.to_pylist():
        if r["src"] != src:
            continue
        recs[r["url"]] = {
            "epoch": r["fetch_epoch"],
            "status": r["status"],
            "spans": [
                (s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in r["spans"]
            ],
            "priority": r["priority"],
            "host": r["host"],
            "host_rank": r["host_rank"],
            "virtual_ts_ms": r["virtual_ts_ms"],
        }
    return recs


def _check_equivalence(cfg, run_dir):
    ora = oracle_crawl(cfg)
    eng = _engine_records(run_dir)

    # (a) visited set and per-epoch membership
    ora_by_url = {u: (ep, status) for (u, ep, _o, status, _s, _p) in ora.records}
    assert set(eng) == set(ora_by_url)
    for u, rec in eng.items():
        assert (rec["epoch"], rec["status"]) == ora_by_url[u], u

    # (a') crawl order: engine order is value-defined — sorting engine rows
    # by (epoch, priority desc, url) must reproduce the oracle's sequence
    eng_order = sorted(
        eng.items(), key=lambda kv: (kv[1]["epoch"], -kv[1]["priority"], kv[0])
    )
    assert [u for u, _ in eng_order] == [r[0] for r in ora.records]

    # (b) span-sequence equality
    ora_spans = {u: s for (u, _e, _o, _st, s, _p) in ora.records}
    for u, rec in eng.items():
        assert rec["spans"] == ora_spans[u], u

    # (c) final seen set (engine audits via shard hash sets; compare via hash)
    ora_hashes = set(
        hash_urls(np.array(sorted(ora.seen), dtype=object)).tolist()
    )
    eng_hashes = set(
        hash_urls(np.array(sorted(eng), dtype=object)).tolist()
    )
    # every fetched URL is in the seen set; seen may exceed fetched only by
    # frontier rows not yet fetched (none here: crawl ran to completion)
    assert eng_hashes <= ora_hashes
    stats = crawl_stats_table(run_dir).to_pylist()
    assert sum(s["discovered"] for s in stats) + len(cfg.seeds) >= len(ora.seen)

    # stats parity vs oracle counters
    ora_stats = {s["epoch"]: s for s in ora.per_epoch_counts}
    for s in stats:
        o = ora_stats[s["epoch"]]
        assert s["urls_fetched"] == o["urls_fetched"], s["epoch"]
        assert s["dedup_hits"] == o["dedup_hits"], s["epoch"]
        assert s["robots_denied"] == o["robots_denied"], s["epoch"]
        assert s["skip_filtered"] == o["skip_filtered"], s["epoch"]
        assert s["discovered"] == o["discovered"], s["epoch"]
        assert s["deferred"] == o["deferred"], s["epoch"]
        assert s["politeness_wait_ms"] == o["politeness_wait_ms"], s["epoch"]

    # politeness compliance: per (host, epoch) virtual timestamps spaced
    # >= min_gap_ms (fetch rows only — archive extraction is local compute)
    per = {}
    for u, rec in eng.items():
        per.setdefault((rec["host"], rec["epoch"]), []).append(
            rec["virtual_ts_ms"]
        )
    for (_h, _e), ts in per.items():
        ts = sorted(ts)
        assert all(b - a >= cfg.politeness.min_gap_ms for a, b in zip(ts, ts[1:]))

    # nested-content expansion parity: identical member-doc set, spans,
    # and extraction epochs; archive counters match per epoch
    mem = _engine_records(run_dir, src="archive")
    ora_members = {u: (ep, sp) for (u, ep, sp) in ora.member_records}
    assert set(mem) == set(ora_members)
    for u, rec in mem.items():
        assert rec["epoch"] == ora_members[u][0], u
        assert rec["spans"] == ora_members[u][1], u
        assert rec["status"] == 200
    for s in stats:
        o = ora_stats[s["epoch"]]
        assert s["archives_expanded"] == o["archives_expanded"], s["epoch"]
        assert s["archives_dup"] == o["archives_dup"], s["epoch"]
        assert s["members_extracted"] == o["members_extracted"], s["epoch"]
    assert sum(s["archives_expanded"] for s in stats) == len(ora.extracted)


def test_local_mode_equivalence(ray_session, tiny_corpus, tmp_path):
    cfg = _cfg(tiny_corpus, str(tmp_path / "run"), force_mode="local")
    summary = CrawlRun(cfg).run(resume=False)
    assert summary["urls_fetched"] > 0
    _check_equivalence(cfg, cfg.run_dir)


def test_local_epochs_record_stage_timers(ray_session, tiny_corpus,
                                         tmp_path):
    """Local epochs run the dataset path's kernels, so their stats carry
    the same stage timers: admission and fetch time are recorded for
    every epoch that fetched something."""
    cfg = _cfg(tiny_corpus, str(tmp_path / "run"), force_mode="local")
    CrawlRun(cfg).run(resume=False)
    stats = [s for s in crawl_stats_table(cfg.run_dir).to_pylist()
             if s["urls_fetched"]]
    assert stats
    assert all(s["mode"] == "local" for s in stats)
    assert all(s["t_fetch_ms"] > 0 for s in stats), stats
    assert all(s["t_admit_ms"] > 0 for s in stats), stats


def test_dataset_mode_equivalence(ray_session, tiny_corpus, tmp_path):
    cfg = _cfg(tiny_corpus, str(tmp_path / "run"), force_mode="dataset",
               max_epochs=4)
    CrawlRun(cfg).run(resume=False)
    # partial crawl (4 epochs) still matches the oracle truncated to 4
    ora = oracle_crawl(cfg)
    eng = _engine_records(cfg.run_dir)
    ora_by_url = {
        u: ep for (u, ep, _o, _st, _s, _p) in ora.records if ep < 4
    }
    assert {u: r["epoch"] for u, r in eng.items()} == ora_by_url


def test_dataset_and_local_modes_byte_identical(ray_session, tiny_corpus,
                                                tmp_path):
    """The two execution paths must produce byte-identical fetched tables
    (every column is race-free by design — depth is epoch-derived, not
    winning-parent-derived)."""
    cfg_l = _cfg(tiny_corpus, str(tmp_path / "l"), force_mode="local",
                 max_epochs=6)
    cfg_d = _cfg(tiny_corpus, str(tmp_path / "d"), force_mode="dataset",
                 max_epochs=6)
    CrawlRun(cfg_l).run(resume=False)
    CrawlRun(cfg_d).run(resume=False)
    a = fetched_table(cfg_l.run_dir).sort_by("url")
    b = fetched_table(cfg_d.run_dir).sort_by("url")
    assert a.equals(b)


def test_politeness_deferral_and_skiplist(ray_session, tiny_corpus, tmp_path):
    # tight budget → deferrals must occur and totals still match oracle
    cfg = _cfg(
        tiny_corpus,
        str(tmp_path / "run"),
        politeness=PolitenessConfig(min_gap_ms=1000, epoch_ms=5000),
        skip_substrings=("/p/7",),
        force_mode="local",
    )
    CrawlRun(cfg).run(resume=False)
    stats = crawl_stats_table(cfg.run_dir).to_pylist()
    assert sum(s["deferred"] for s in stats) > 0, "budget should defer URLs"
    assert sum(s["skip_filtered"] for s in stats) > 0
    _check_equivalence(cfg, cfg.run_dir)


def test_robots_at_admission_same_fetched_set(ray_session, tiny_corpus,
                                              tmp_path):
    """The admission-time robots scale path must fetch EXACTLY the same
    URLs as discovery-time filtering (both modes deny before the
    politeness top-K), in both execution modes; only the denial
    accounting differs (once at admission vs per rediscovery)."""
    import json
    import os

    cfg_a = _cfg(tiny_corpus, str(tmp_path / "disc"), force_mode="dataset")
    cfg_b = _cfg(tiny_corpus, str(tmp_path / "admit"), force_mode="dataset",
                 robots_at_admission=True)
    cfg_c = _cfg(tiny_corpus, str(tmp_path / "admitl"), force_mode="local",
                 robots_at_admission=True)
    sa = CrawlRun(cfg_a).run(resume=False)
    sb = CrawlRun(cfg_b).run(resume=False)
    sc = CrawlRun(cfg_c).run(resume=False)
    ta = fetched_table(cfg_a.run_dir).sort_by("url")
    tb = fetched_table(cfg_b.run_dir).sort_by("url")
    tc = fetched_table(cfg_c.run_dir).sort_by("url")
    assert ta.column("url").to_pylist() == tb.column("url").to_pylist()
    assert ta.column("url").to_pylist() == tc.column("url").to_pylist()
    # same fetch epochs too: denial precedes the top-K in both modes
    assert ta.column("fetch_epoch").to_pylist() == \
        tb.column("fetch_epoch").to_pylist()
    # denial still happens (corpus has robots rules) and at most the
    # discovery-time count (once per URL, not per rediscovery)
    assert 0 < sb["robots_denied"] <= sa["robots_denied"]
    assert sb["robots_denied"] == sc["robots_denied"]


def test_robots_at_admission_with_spilling_same_set(ray_session,
                                                    tiny_corpus, tmp_path):
    """The documented caveat (config.py): combining admission-robots
    with frontier spilling may shift a mega-host's fetch EPOCHS, but
    the fetched SET must still be identical to the unbounded
    discovery-time run."""
    cfg_a = _cfg(tiny_corpus, str(tmp_path / "base"), force_mode="dataset")
    cfg_b = _cfg(tiny_corpus, str(tmp_path / "combo"), force_mode="dataset",
                 robots_at_admission=True, frontier_spill_rows=40,
                 frontier_keep_per_host=8)
    CrawlRun(cfg_a).run(resume=False)
    sb = CrawlRun(cfg_b).run(resume=False)
    a = fetched_table(cfg_a.run_dir).sort_by("url").column("url").to_pylist()
    b = fetched_table(cfg_b.run_dir).sort_by("url").column("url").to_pylist()
    assert a == b
    assert sb["robots_denied"] > 0


def test_crawl_twice_is_idempotent(ray_session, tiny_corpus, tmp_path):
    # dedup idempotence: a completed run re-invoked returns the summary
    # without recomputation, and a fresh run over the same corpus produces
    # identical outputs (SURVEY.md §5.5)
    cfg = _cfg(tiny_corpus, str(tmp_path / "a"), force_mode="local")
    s1 = CrawlRun(cfg).run(resume=False)
    s2 = CrawlRun(cfg).run(resume=True)
    assert {k: s1[k] for k in ("epochs", "urls_fetched", "bytes")} == {
        k: s2[k] for k in ("epochs", "urls_fetched", "bytes")
    }
    cfg_b = _cfg(tiny_corpus, str(tmp_path / "b"), force_mode="local")
    CrawlRun(cfg_b).run(resume=False)
    ta = fetched_table(cfg.run_dir).sort_by("url").to_pylist()
    tb = fetched_table(cfg_b.run_dir).sort_by("url").to_pylist()
    assert ta == tb
