"""The crawl's actor fleet is its seen-shard hosts and nothing else: they
reserve no CPU, they are the only actors a CrawlRun starts, one per
session CPU at most, their shards' health lands in each epoch's stats,
and worker caches do not grow per run."""

import json
import os
import signal
import subprocess
import sys

import ray

from crawler_service_ray.config import CrawlConfig
from crawler_service_ray.oracle import oracle_crawl
from crawler_service_ray.pipelines import crawl as crawl_mod
from crawler_service_ray.pipelines.crawl import CrawlRun, crawl_stats_table
from crawler_service_ray.sources.corpus import default_seeds
from crawler_service_ray.state.seen import host_placement

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _actors() -> dict:
    """Every actor of the session, dead ones included, by id."""
    from ray._private import state

    return state.actors()


def test_crawl_run_starts_only_seen_shards(ray_session, tiny_corpus,
                                           tmp_path):
    def cfg(name, shards):
        return CrawlConfig(corpus_dir=tiny_corpus, run_dir=str(tmp_path / name),
                           seeds=default_seeds(3), num_seen_shards=shards,
                           max_epochs=2, force_mode="dataset")

    def started_by(config):
        before = set(_actors())
        CrawlRun(config).run(resume=False)
        return [i["ActorClassName"] for a, i in _actors().items()
                if a not in before]

    # a first dataset-mode crawl starts whatever Ray Data keeps per session
    CrawlRun(cfg("warm", 3)).run(resume=False)
    # one host per shard while shards <= the session's 4 CPUs ...
    assert started_by(cfg("run", 3)) == ["ShardHost"] * 3
    # ... and one per CPU beyond that
    assert started_by(cfg("run6", 6)) == ["ShardHost"] * 4


def test_host_placement():
    """Shard i lives on host i % H, every shard on exactly one host, and
    H = min(shards, CPUs), at least one host for a shard."""
    for shards in range(1, 11):
        for cpus in range(0, 7):
            hosts = host_placement(shards, cpus)
            n_hosts = len(hosts)
            assert n_hosts == max(1, min(shards, cpus))
            assert sorted(i for h in hosts for i in h) == list(range(shards))
            for h, ids in enumerate(hosts):
                assert all(i % n_hosts == h for i in ids)
    assert host_placement(0, 4) == []


def test_default_config_dataset_crawl_at_two_cpus(tiny_corpus, tmp_path):
    """A default CrawlConfig crawl must make progress at num_cpus=2 (its 8
    default shards on 2 hosts): each of the 8 shards once reserved 0.25
    CPU, leaving none for the expand tasks, and the crawl hung with no
    error."""
    run_dir = str(tmp_path / "run")
    code = f"""
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from crawler_service_ray.config import CrawlConfig
from crawler_service_ray.pipelines.crawl import CrawlRun
from crawler_service_ray.sources.corpus import default_seeds
cfg = CrawlConfig(corpus_dir={tiny_corpus!r}, run_dir={run_dir!r},
                  seeds=default_seeds(3), force_mode="dataset")
print("URLS_FETCHED", CrawlRun(cfg).run(resume=False)["urls_fetched"])
ray.shutdown()
"""
    # own process group: Ray's processes join it, so a hung crawl is
    # stopped whole when the time runs out
    p = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise AssertionError("default-config crawl at num_cpus=2 hung")
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert p.returncode == 0, err[-3000:]
    got = [ln for ln in out.splitlines() if ln.startswith("URLS_FETCHED")]
    cfg = CrawlConfig(corpus_dir=tiny_corpus, run_dir=run_dir,
                      seeds=default_seeds(3))
    assert got == [f"URLS_FETCHED {len(oracle_crawl(cfg).records)}"]


def test_epoch_stats_record_seen_health(ray_session, tiny_corpus, tmp_path,
                                        capsys):
    from crawler_service_ray.__main__ import main

    cfg = CrawlConfig(corpus_dir=tiny_corpus, run_dir=str(tmp_path / "run"),
                      seeds=default_seeds(3), num_seen_shards=4,
                      force_mode="local")
    summary = CrawlRun(cfg).run(resume=False)
    stats = sorted(crawl_stats_table(cfg.run_dir).to_pylist(),
                   key=lambda s: s["epoch"])
    assert stats[-1]["n_seen"] == summary["seen_size"]
    assert [s["n_seen"] for s in stats] == sorted(s["n_seen"] for s in stats)

    capsys.readouterr()
    assert main(["status", "--run", cfg.run_dir]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["seen"] == {"n_seen": summary["seen_size"]}


def test_worker_robots_cache_keyed_by_content(ray_session):
    rules = {"h0.example": ("/private",)}

    def robots_keys():
        return {k for k in crawl_mod._PROC_CACHE if k[0] == "robots"}

    before = robots_keys()
    a = crawl_mod._worker_robots(ray.put(dict(rules)), "sig-test", False)
    b = crawl_mod._worker_robots(ray.put(dict(rules)), "sig-test", False)
    assert a == b == rules
    assert len(robots_keys() - before) == 1
