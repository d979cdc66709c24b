"""Crawl configuration.

Replaces the reference's scattered constants — 8 crawl threads
(`/root/reference/crawlers/globus_base_preserved.py:23`), sleep-based pacing
(`:70,301,248`), per-crawl skip lists (`application.py:114-124`) — with one
explicit, serializable config shared verbatim by the Ray engine and the
pure-Python oracle so equivalence tests feed both the same budget
(FIXTURES.md F5).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Mapping, Sequence


@dataclass(frozen=True)
class PolitenessConfig:
    """Per-host politeness budget.

    The reference has no rate limiting beyond sleeps
    (`crawlers/globus_base_preserved.py:301`); the north rule requires
    per-host token buckets. Semantics (identical in oracle and engine):
    each epoch a host's bucket refills to ``max_per_epoch(host)`` tokens =
    ``epoch_ms // min_gap_ms`` (overridable per host); at most that many of
    the host's frontier URLs are admitted per epoch, best-(priority, url)
    first; the rest are deferred to the next epoch. Virtual fetch
    timestamps within an epoch are spaced ``min_gap_ms`` apart per host,
    which is the recorded delay-compliance metric.
    """

    min_gap_ms: int = 200
    epoch_ms: int = 4_000
    per_host_overrides: Mapping[str, int] = field(default_factory=dict)

    def max_per_epoch(self, host: str) -> int:
        ov = self.per_host_overrides.get(host)
        if ov is not None:
            return int(ov)
        return max(1, self.epoch_ms // self.min_gap_ms)


@dataclass(frozen=True)
class CrawlConfig:
    # source root: the bucketed synthetic corpus ("corpus" kind), a real
    # local directory tree ("posix" kind — stages/posix.py, the Source-seam
    # proof; URLs are posix://data/<relpath>), or a drive-account fixture
    # ("drive" kind — stages/drive.py, the Box/GDrive paginated-listing
    # connector; URLs are drive://<drive>.drv/{f,x}/<id>)
    corpus_dir: str
    run_dir: str
    source_kind: str = "corpus"
    seeds: Sequence[str] = ()
    politeness: PolitenessConfig = PolitenessConfig()
    skip_substrings: Sequence[str] = ()  # URL substring skip list (M7)
    max_epochs: int = 64
    num_seen_shards: int = 8
    # the ONE partitioning key reused across all epochs: frontier rows are
    # written split by hash(host) % num_host_partitions, so admission reads
    # arrive host-complete with NO shuffle (pipelines/crawl.py)
    num_host_partitions: int = 64
    # inline per-doc text enrichment (tokens/quality/langid) on fetch —
    # the "crawl + analyze" flagship semantics (stages/enrich.py)
    enrich_text: bool = True
    # deterministic transient fetch failures: a URL whose mixed hash ≡ 0
    # (mod flaky_every) fails its first attempt with 503 and is re-enqueued
    # with retries+1 up to max_retries, then lands in the failed table
    # (the reference's retry loop + failed_dirs.json,
    # crawlers/globus_base_preserved.py:283-301,473-477). 0 disables.
    flaky_every: int = 0
    max_retries: int = 2
    # physical knob (engine only; no semantic effect)
    fetch_batch_size: int = 4096
    # epochs with fewer frontier rows than this call the admission and
    # expand kernels once each in the driver; larger epochs run the same
    # kernels as a Ray Data pipeline (pipelines/crawl.py). Outputs are
    # identical, spilling included; only Ray Data's per-execution overhead
    # differs. force_mode: "local"/"dataset" pins one scheduler (tests
    # exercise both).
    local_epoch_threshold: int = 20000
    force_mode: str | None = None
    # robots filtering site. False (default): discovery time, against the
    # ray.put-broadcast full rule dict — O(total hosts with rules) per
    # worker, right up to ~10^7 ruled hosts. True: ADMISSION time — rules
    # are hash-partitioned by the run-wide host key exactly like the
    # frontier, so each admission task resolves ONLY its own partition's
    # rules (O(hosts/partitions) per task), the 10^9-host scale path
    # documented in stages/outlinks.py. The final fetched set is
    # IDENTICAL (tests/test_crawl_equivalence.py pins it): denied URLs
    # are dropped before the politeness top-K, so admitted rows match.
    # Accounting shifts: a denied URL is counted once at admission (it
    # passed the seen probe at discovery) instead of on every
    # rediscovery, so robots_denied totals are lower and dedup_hits
    # correspondingly higher. Combined with frontier_spill_rows, denied
    # rows occupy live-slice/spill space until their admission epoch, so
    # a mega-host's fetch EPOCHS can shift relative to the
    # discovery-time run — the fetched SET is still identical.
    robots_at_admission: bool = False
    # priority-cutoff frontier spilling (state/spill.py): when one host
    # partition's accumulated pending frontier exceeds this many rows,
    # hosts holding more than frontier_keep_per_host rows keep their
    # top-priority slice and spill the tail to per-host parquet chunks,
    # refilled best-first as the live slice drains. None disables (the
    # sandbox default); at 10^10-URL scale set it to what one admission
    # task's heap can hold. Works under both schedulers (force_mode).
    # frontier_keep_per_host=None derives 4x the default politeness cap;
    # it must stay >= 2x every per-host cap so refill triggers before a
    # host's live slice can run dry mid-epoch.
    frontier_spill_rows: int | None = None
    frontier_keep_per_host: int | None = None

    def spill_keep_per_host(self) -> int:
        default_cap = max(1, self.politeness.epoch_ms
                          // self.politeness.min_gap_ms)
        keep = self.frontier_keep_per_host or 4 * default_cap
        caps = [default_cap, *self.politeness.per_host_overrides.values()]
        return max(keep, 2 * max(caps))

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        d["skip_substrings"] = list(self.skip_substrings)
        d["politeness"]["per_host_overrides"] = dict(
            self.politeness.per_host_overrides
        )
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "CrawlConfig":
        pol = PolitenessConfig(**d["politeness"])
        rest = {k: v for k, v in d.items() if k != "politeness"}
        return CrawlConfig(politeness=pol, **rest)
