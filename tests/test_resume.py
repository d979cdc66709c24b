"""Checkpoint/resume: kill after epoch k, resume, outputs byte-identical
(SURVEY.md §5.3; replaces the reference's restart-from-zero heartbeat
retry, /root/reference/application.py:25-58)."""

import json
import os
import shutil

from crawler_service_ray.config import CrawlConfig, PolitenessConfig
from crawler_service_ray.pipelines.crawl import CrawlRun, fetched_table
from crawler_service_ray.sources.corpus import default_seeds


def _cfg(corpus, run_dir, max_epochs=60):
    return CrawlConfig(
        corpus_dir=corpus,
        run_dir=run_dir,
        seeds=default_seeds(3),
        politeness=PolitenessConfig(min_gap_ms=200, epoch_ms=4000),
        max_epochs=max_epochs,
        num_seen_shards=4,
        force_mode="local",
    )


def test_resume_matches_uninterrupted(ray_session, tiny_corpus, tmp_path):
    full = _cfg(tiny_corpus, str(tmp_path / "full"))
    CrawlRun(full).run(resume=False)

    # "crash" after 3 epochs: run with max_epochs=3, then resume with full
    part = _cfg(tiny_corpus, str(tmp_path / "part"), max_epochs=3)
    CrawlRun(part).run(resume=False)
    assert not os.path.exists(os.path.join(part.run_dir, "run_summary.json"))
    resumed = _cfg(tiny_corpus, str(tmp_path / "part"))
    summary = CrawlRun(resumed).run(resume=True)
    assert os.path.exists(os.path.join(part.run_dir, "run_summary.json"))

    a = fetched_table(full.run_dir).sort_by("url").to_pylist()
    b = fetched_table(part.run_dir).sort_by("url").to_pylist()
    assert a == b
    n_fetch = sum(1 for r in a if r["src"] == "fetch")
    assert summary["urls_fetched"] == n_fetch
    assert summary["members_extracted"] == len(a) - n_fetch


def test_resume_dataset_mode(ray_session, tiny_corpus, tmp_path):
    """Interrupt/resume through the Dataset execution path too."""
    full = _cfg(tiny_corpus, str(tmp_path / "full"))
    CrawlRun(full).run(resume=False)
    part_cfg = CrawlConfig(
        corpus_dir=tiny_corpus, run_dir=str(tmp_path / "p"),
        seeds=default_seeds(3),
        politeness=PolitenessConfig(min_gap_ms=200, epoch_ms=4000),
        max_epochs=3, num_seen_shards=4, force_mode="dataset",
    )
    CrawlRun(part_cfg).run(resume=False)
    resumed = CrawlConfig(
        corpus_dir=tiny_corpus, run_dir=str(tmp_path / "p"),
        seeds=default_seeds(3),
        politeness=PolitenessConfig(min_gap_ms=200, epoch_ms=4000),
        max_epochs=60, num_seen_shards=4, force_mode="dataset",
    )
    CrawlRun(resumed).run(resume=True)
    a = fetched_table(full.run_dir).sort_by("url").to_pylist()
    b = fetched_table(str(tmp_path / "p")).sort_by("url").to_pylist()
    assert a == b


def test_incomplete_epoch_dir_is_discarded(ray_session, tiny_corpus, tmp_path):
    cfg = _cfg(tiny_corpus, str(tmp_path / "run"), max_epochs=2)
    CrawlRun(cfg).run(resume=False)
    # simulate a crash mid-epoch: a temp dir with partial junk
    tmp_epoch = os.path.join(cfg.run_dir, "epochs", ".tmp_epoch_00002")
    os.makedirs(os.path.join(tmp_epoch, "fetched"))
    with open(os.path.join(tmp_epoch, "fetched", "garbage.parquet"), "w") as f:
        f.write("not parquet")
    summary = CrawlRun(_cfg(tiny_corpus, cfg.run_dir)).run(resume=True)
    assert not os.path.exists(tmp_epoch)
    assert summary["urls_fetched"] > 0


def test_manifest_lineage(ray_session, tiny_corpus, tmp_path):
    cfg = _cfg(tiny_corpus, str(tmp_path / "run"))
    CrawlRun(cfg).run(resume=False)
    ep0 = os.path.join(cfg.run_dir, "epochs", "epoch=00000")
    with open(os.path.join(ep0, "manifest.json")) as f:
        m = json.load(f)
    assert m["epoch"] == 0
    assert m["input_frontier_rows"] == len(cfg.seeds)
    assert all(
        os.path.exists(os.path.join(ep0, p)) for p in m["outputs"]["fetched"]
    )
    assert all(
        os.path.exists(os.path.join(ep0, p))
        for p in m["outputs"]["frontier_next"]
    )
    assert m["stats"]["urls_fetched"] == len(cfg.seeds)
    # seen snapshots exist per epoch
    assert os.path.exists(os.path.join(ep0, "seen", "shard_0000.npz"))


def test_seen_shard_sink_spills_at_threshold(ray_session, tmp_path):
    """A seen shard whose frontier sink passes its byte threshold spills
    mid-epoch (bounded actor memory); the union of spilled + flushed files
    is exactly the rows the shards admitted: the first occurrence of each
    url, in the file of its host partition."""
    import glob
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_service_ray.stages.outlinks import (
        probe_new_finish,
        probe_new_start,
    )
    from crawler_service_ray.state.seen import (
        flush_shards,
        kill_shards,
        make_shards,
    )
    from crawler_service_ray.urls import host_partitions

    out = str(tmp_path / "frontier_next")
    shards = make_shards(2, flush_bytes=128)  # spill on nearly every probe
    admitted, kept = set(), 0
    for batch in range(5):
        urls = [f"http://h{i % 8}.example/u{batch}-{i}" for i in range(50)]
        # a re-discovery of the previous batch's urls is not admitted again
        if batch:
            urls += [f"http://h{i % 8}.example/u{batch - 1}-{i}"
                     for i in range(10)]
        t = pa.table({
            "url": urls,
            "host": [u.split("/")[2] for u in urls],
            "parent_url": [""] * len(urls),
        })
        kept += probe_new_finish(
            probe_new_start(t, shards, 0, sink=(out, 8)))
        admitted.update(urls[:50])
    flush_shards(shards)

    files = sorted(glob.glob(out + "/*.parquet"))
    # mid-epoch spills → more than one file sequence per (part, shard)
    assert any("-f0001" in f or "-f0002" in f for f in files)
    got = []
    for f in files:
        rows = pq.read_table(f)
        part = int(re.search(r"-p(\d+)-w", f).group(1))
        assert set(host_partitions(rows["host"].to_numpy(
            zero_copy_only=False), 8)) == {part}
        got.extend(rows["url"].to_pylist())
    assert kept == len(got) == len(admitted)
    assert sorted(got) == sorted(admitted)
    kill_shards(shards)


def test_mid_epoch_crash_leaves_no_partial_commit(ray_session, tiny_corpus,
                                                  tmp_path):
    """A failure mid-epoch (after fetch side-writes, before the manifest)
    must leave NO committed epoch dir; resume wipes the temp dir, reruns
    the epoch from the checkpointed frontier, and the final outputs are
    byte-identical to an uninterrupted run — the contract that lets the
    expand/admission stages run with max_retries=0."""
    import pytest

    from crawler_service_ray.pipelines import crawl as crawl_mod

    full = _cfg(tiny_corpus, str(tmp_path / "full"))
    CrawlRun(full).run(resume=False)

    cfg = _cfg(tiny_corpus, str(tmp_path / "crash"))
    orig = crawl_mod.extract_links
    state = {"calls": 0}

    def exploding_extract(t):
        state["calls"] += 1
        if state["calls"] == 4:  # fail inside epoch 3, after the fetch
            raise RuntimeError("injected mid-epoch crash")
        return orig(t)

    crawl_mod.extract_links = exploding_extract
    try:
        with pytest.raises(RuntimeError, match="injected"):
            CrawlRun(cfg).run(resume=False)
    finally:
        crawl_mod.extract_links = orig

    epochs_dir = os.path.join(cfg.run_dir, "epochs")
    committed = [d for d in os.listdir(epochs_dir) if d.startswith("epoch=")]
    tmp_dirs = [d for d in os.listdir(epochs_dir) if d.startswith(".tmp_")]
    assert len(committed) == 3  # epochs 0-2 committed, epoch 3 not
    assert tmp_dirs  # the crashed epoch's temp dir remains for the wipe
    assert not os.path.exists(os.path.join(cfg.run_dir, "run_summary.json"))

    CrawlRun(cfg).run(resume=True)
    a = fetched_table(full.run_dir).sort_by("url")
    b = fetched_table(cfg.run_dir).sort_by("url")
    assert a.equals(b)


def test_failed_run_records_cause_and_resume_clears_it(ray_session,
                                                       tiny_corpus, tmp_path,
                                                       capsys, monkeypatch):
    """The injected mid-epoch crash of the test above leaves
    ``run_failed.json`` (cause, epoch, exception type, traceback tail), so
    ``status`` reports a failed run with its cause, not an in-progress
    one; a successful resume removes the record. Every committed epoch
    records its seen snapshot time, which ``status`` sums."""
    import pytest

    from crawler_service_ray.__main__ import main
    from crawler_service_ray.pipelines import crawl as crawl_mod
    from crawler_service_ray.pipelines.crawl import crawl_stats_table

    def status():
        capsys.readouterr()
        assert main(["status", "--run", cfg.run_dir]) == 0
        return json.loads(capsys.readouterr().out)

    cfg = _cfg(tiny_corpus, str(tmp_path / "crash"))
    orig = crawl_mod.extract_links
    state = {"calls": 0}

    def exploding_extract(t):
        state["calls"] += 1
        if state["calls"] == 4:  # fail inside epoch 3, after the fetch
            raise RuntimeError("injected mid-epoch crash")
        return orig(t)

    monkeypatch.setattr(crawl_mod, "extract_links", exploding_extract)
    with pytest.raises(RuntimeError, match="injected"):
        CrawlRun(cfg).run(resume=False)
    monkeypatch.setattr(crawl_mod, "extract_links", orig)

    failed = os.path.join(cfg.run_dir, "run_failed.json")
    with open(failed) as f:
        rec = json.load(f)
    assert rec["cause"] == "injected mid-epoch crash"
    assert rec["exception"] == "RuntimeError"
    assert rec["epoch"] == 3
    assert "exploding_extract" in rec["traceback"]
    got = status()
    assert got["state"] == "failed"
    assert got["cause"] == "injected mid-epoch crash"
    assert got["failed_epoch"] == 3 and got["epochs_complete"] == 3

    CrawlRun(cfg).run(resume=True)
    assert not os.path.exists(failed)
    got = status()
    assert got["state"] == "complete"
    stats = crawl_stats_table(cfg.run_dir).to_pylist()
    assert all(s["t_snapshot_ms"] > 0 for s in stats)
    assert got["t_snapshot_ms"] == sum(s["t_snapshot_ms"] for s in stats)
