"""Who answers the seen-set probes: driver-held shards answer the seed
probe and every local epoch; the first dataset epoch of a run hands their
seen set to the remote shards (on one host per session CPU at most),
which answer for the rest of that run. Fetched rows, per-epoch counters
and every seen snapshot's bytes must not depend on when, or whether,
that handoff happens, nor on how many shards a host holds — across a
resume, a crash at the handoff and a host's death too."""

import glob
import json
import os

import pytest

from crawler_service_ray.config import CrawlConfig, PolitenessConfig
from crawler_service_ray.pipelines import crawl as crawl_mod
from crawler_service_ray.pipelines.crawl import (
    CrawlRun,
    crawl_stats_table,
    fetched_table,
)
from crawler_service_ray.sources.corpus import default_seeds
from crawler_service_ray.state.seen import kill_shards

# the tiny corpus's frontier runs 3, 11, 30, 52, 34, 6, 1 rows per epoch:
# at this threshold epochs 0-1 and 5-6 run local, epochs 2-4 dataset
SWITCH_THRESHOLD = 30


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


def _outputs(run_dir):
    """(fetched rows, untimed per-epoch stats, seen snapshot bytes)."""
    stats = sorted(crawl_stats_table(run_dir).to_pylist(),
                   key=lambda s: s["epoch"])
    untimed = [
        {k: v for k, v in s.items()
         if k not in ("mode", "wall_s") and not k.startswith("t_")}
        for s in stats
    ]
    snaps = {}
    for f in sorted(glob.glob(os.path.join(run_dir, "epochs", "*", "seen",
                                           "*.npz"))):
        with open(f, "rb") as fh:
            snaps[os.path.relpath(f, run_dir)] = fh.read()
    return fetched_table(run_dir).sort_by("url"), untimed, snaps


def _modes(run_dir):
    return [s["mode"] for s in sorted(crawl_stats_table(run_dir).to_pylist(),
                                      key=lambda s: s["epoch"])]


def _assert_same(got, want):
    (fa, ca, sa), (fb, cb, sb) = got, want
    assert fa.equals(fb)
    assert ca == cb
    assert sorted(sa) == sorted(sb)
    assert [k for k in sa if sa[k] != sb[k]] == []


@pytest.fixture
def handoffs(monkeypatch):
    """One entry (its shard count) per ``hand_off`` call of the crawl."""
    calls = []
    orig = crawl_mod.hand_off

    def spy(local, actors):
        calls.append(len(local))
        return orig(local, actors)

    monkeypatch.setattr(crawl_mod, "hand_off", spy)
    return calls


def _local_outputs(corpus, run_dir, **kw):
    """The all-local reference run: no handoff, the hosts never used."""
    cfg = _cfg(corpus, run_dir, force_mode="local", **kw)
    CrawlRun(cfg).run(resume=False)
    assert set(_modes(cfg.run_dir)) == {"local"}
    return _outputs(cfg.run_dir)


@pytest.fixture(scope="module")
def local_run(ray_session, tiny_corpus, tmp_path_factory):
    return _local_outputs(tiny_corpus,
                          str(tmp_path_factory.mktemp("local") / "run"))


@pytest.fixture(scope="module")
def local_run_6(ray_session, tiny_corpus, tmp_path_factory):
    """6 shards: on the session's 4 CPUs, hosts 0 and 1 hold two each."""
    return _local_outputs(tiny_corpus,
                          str(tmp_path_factory.mktemp("local6") / "run"),
                          num_seen_shards=6)


def _check_mode_switch(want, corpus, tmp_path, handoffs, shards):
    data = _cfg(corpus, str(tmp_path / "d"), force_mode="dataset",
                num_seen_shards=shards)
    CrawlRun(data).run(resume=False)
    assert set(_modes(data.run_dir)) == {"dataset"}
    assert handoffs == [shards]
    _assert_same(_outputs(data.run_dir), want)

    switch = _cfg(corpus, str(tmp_path / "s"), num_seen_shards=shards,
                  local_epoch_threshold=SWITCH_THRESHOLD)
    CrawlRun(switch).run(resume=False)
    modes = _modes(switch.run_dir)
    first = modes.index("dataset")
    assert first > 0 and "local" in modes[first:], modes
    assert handoffs == [shards, shards]  # one handoff per run, no switch back
    _assert_same(_outputs(switch.run_dir), want)


def test_mode_switch_same_as_single_scheduler_runs(local_run, tiny_corpus,
                                                   tmp_path, handoffs):
    """All-dataset (the seeds are probed in the driver, then handed off
    before epoch 0) and local -> dataset -> local (handed off at epoch 2,
    the hosts keep answering the later local epochs) both equal the
    all-local run, seen snapshot bytes included."""
    _check_mode_switch(local_run, tiny_corpus, tmp_path, handoffs, 4)


def test_mode_switch_same_as_single_scheduler_runs_6_shards(
        local_run_6, tiny_corpus, tmp_path, handoffs):
    """The same with more shards than hosts: 6 shards on 4 hosts."""
    _check_mode_switch(local_run_6, tiny_corpus, tmp_path, handoffs, 6)


def test_host_death_fails_loudly_then_resume(local_run_6, tiny_corpus,
                                             tmp_path, monkeypatch):
    """A host now carries several shards: killing one just after the
    handoff stops the run, and ``run_failed.json`` names the actor death;
    resume then gives the undisturbed run's outputs."""
    cfg = _cfg(tiny_corpus, str(tmp_path / "k"), num_seen_shards=6,
               force_mode="dataset")
    orig = crawl_mod.hand_off

    def killing(local, refs):
        out = orig(local, refs)
        hosts = [r.host for r in refs]
        assert len(set(hosts)) < len(refs)
        # host 0 holds shards 0 and 4
        assert [r.index for r in refs if r.host == hosts[0]] == [0, 4]
        kill_shards(refs[:1])
        return out

    monkeypatch.setattr(crawl_mod, "hand_off", killing)
    with pytest.raises(Exception, match="(?i)actor"):
        CrawlRun(cfg).run(resume=False)
    monkeypatch.setattr(crawl_mod, "hand_off", orig)
    failed = os.path.join(cfg.run_dir, crawl_mod.FAILED_RECORD)
    with open(failed) as f:
        record = json.load(f)
    assert record["epoch"] == 0
    assert "ActorDiedError" in record["cause"], record["cause"]
    assert "class_name: ShardHost" in record["cause"]
    assert _modes(cfg.run_dir) == []

    CrawlRun(cfg).run(resume=True)
    assert not os.path.exists(failed)
    _assert_same(_outputs(cfg.run_dir), local_run_6)


def test_resume_after_first_dataset_epoch(local_run, tiny_corpus, tmp_path):
    """Stop right after the first dataset epoch commits; the resumed run
    restores driver-held shards from the chain and hands them off again
    at its own first dataset epoch."""
    part = _cfg(tiny_corpus, str(tmp_path / "p"), max_epochs=3,
                local_epoch_threshold=SWITCH_THRESHOLD)
    CrawlRun(part).run(resume=False)
    assert _modes(part.run_dir) == ["local", "local", "dataset"]
    rest = _cfg(tiny_corpus, part.run_dir,
                local_epoch_threshold=SWITCH_THRESHOLD)
    CrawlRun(rest).run(resume=True)
    _assert_same(_outputs(part.run_dir), local_run)


def test_crash_in_first_dataset_epoch_then_resume(local_run, tiny_corpus,
                                                  tmp_path, monkeypatch):
    """A crash inside the first dataset epoch, after the actors took every
    insert of it: nothing of that epoch commits, and the resumed run's
    driver-held shards know none of those inserts."""
    cfg = _cfg(tiny_corpus, str(tmp_path / "c"),
               local_epoch_threshold=SWITCH_THRESHOLD)
    orig = CrawlRun._epoch_dataset

    def crashing(self, *a, **kw):
        orig(self, *a, **kw)
        raise RuntimeError("injected crash in a dataset epoch")

    monkeypatch.setattr(CrawlRun, "_epoch_dataset", crashing)
    with pytest.raises(RuntimeError, match="injected"):
        CrawlRun(cfg).run(resume=False)
    monkeypatch.setattr(CrawlRun, "_epoch_dataset", orig)
    assert _modes(cfg.run_dir) == ["local", "local"]

    CrawlRun(cfg).run(resume=True)
    _assert_same(_outputs(cfg.run_dir), local_run)


def test_rerun_same_object_after_failed_local_epoch(local_run, tiny_corpus,
                                                    tmp_path, monkeypatch):
    """``run(resume=True)`` again on the CrawlRun whose first local epoch
    failed after its seen probe inserted: no epoch committed, so the rerun
    probes the seeds again, on fresh driver-held shards — shards kept from
    the failed attempt would hold the seeds and that epoch's discoveries
    and turn them into dedup hits."""
    cfg = _cfg(tiny_corpus, str(tmp_path / "f"), force_mode="local")
    orig = crawl_mod.probe_new_finish
    state = {"calls": 0}

    def failing_finish(probe, cb=None):
        out = orig(probe, cb)
        state["calls"] += 1
        if state["calls"] == 1:  # epoch 0, after its probe inserted
            raise RuntimeError("injected crash after the seen probe")
        return out

    monkeypatch.setattr(crawl_mod, "probe_new_finish", failing_finish)
    run = CrawlRun(cfg)
    with pytest.raises(RuntimeError, match="injected"):
        run.run(resume=False)
    assert _modes(cfg.run_dir) == []
    run.run(resume=True)
    _assert_same(_outputs(cfg.run_dir), local_run)
