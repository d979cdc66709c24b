"""Outlink extraction → canonicalize → robots/skip filter → seen probe.

The expand half of the reference's entry-type dispatch
(`/root/reference/crawlers/globus_base_preserved.py:308-352`: dir entries →
frontier) re-expressed as vectorized Arrow kernels over the ``spans``
column: link spans are flattened with ``pc.list_parent_indices`` (no Python
per-row loop), canonicalized with the pandas-vectorized canonicalizer
(urls.py), filtered by robots disallow-prefixes + the substring skip list
(`application.py:114-124` analog), then probed against the sharded seen
filter (state/seen.py) — survivors become next-epoch frontier rows.

Each kernel is a pure ``pa.Table -> pa.Table`` function so the epoch driver
can run it inside ``map_batches`` (large frontiers) or directly on the
driver (tail epochs) with identical semantics (pipelines/crawl.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..urls import hash_urls, host_partitions, priorities_from_hashes

LINKS_SCHEMA = pa.schema(
    [
        ("raw_link", pa.string()),
        ("parent_url", pa.string()),
        ("parent_depth", pa.int32()),
    ]
)

FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.float32()),
        ("discovered_epoch", pa.int32()),
        ("parent_url", pa.string()),
        ("salt", pa.int16()),
        ("retries", pa.int16()),
    ]
)


def extract_links(t: pa.Table) -> pa.Table:
    """(url, depth, spans) rows → one row per link span."""
    spans = t["spans"].combine_chunks()
    flat = spans.flatten()
    parents = pc.list_parent_indices(spans)
    is_link = pc.equal(flat.field("kind"), "link")
    link_parents = parents.filter(is_link)
    raw = flat.field("media_ref").filter(is_link)
    return pa.Table.from_arrays(
        [
            raw,
            t["url"].combine_chunks().take(link_parents),
            t["depth"].combine_chunks().take(link_parents),
        ],
        schema=LINKS_SCHEMA,
    )


def canon_and_filter(
    t: pa.Table,
    robots: dict[str, tuple[str, ...]],
    skip_substrings: tuple[str, ...],
    metrics_cb=None,
) -> pa.Table:
    """Canonicalize raw links; drop robots-denied and skip-listed ones.

    ``robots`` is the broadcast small side (``ray.put`` once, read in every
    task — SURVEY.md §2.4 J4): host → disallow path prefixes. The prefix
    check is vectorized per DISTINCT prefix (a handful), not per row.
    Scale note: the broadcast is O(total hosts with rules); at 10^9-host
    scale robots filtering moves to ADMISSION time, where every frontier
    partition is host-complete and needs only its own hosts' rules —
    IMPLEMENTED as ``config.robots_at_admission`` (pipelines/crawl.py
    hash-partitions the rules by the run-wide host key; same fetched
    set, pinned by tests/test_crawl_equivalence.py). Link targets here
    span arbitrary hosts, so discovery-time filtering inherently needs
    either the broadcast or a per-link rules join.
    Entirely Arrow compute kernels — this stage processes ~3× the crawl's
    URL volume, and pandas object strings both cost more and contend
    across workers (measured).
    """
    import pyarrow.compute as pc

    from ..urls import canonicalize_arrow

    if t.num_rows == 0:
        return t.append_column("url", pa.array([], type=pa.string())).append_column(
            "host", pa.array([], type=pa.string())
        )
    urls = canonicalize_arrow(t["raw_link"])
    # host = after scheme://, up to the first '/'
    rest = pc.replace_substring_regex(
        urls, r"^[a-z][a-z0-9+.-]*://", "", max_replacements=1
    )
    hosts = pc.list_element(pc.split_pattern(rest, "/", max_splits=1), 0)
    path = pc.replace_substring_regex(rest, r"(?s)^[^/]*", "",
                                      max_replacements=1)
    keep = np.ones(t.num_rows, dtype=bool)
    for s in skip_substrings:
        keep &= np.invert(
            pc.match_substring(urls, s).to_numpy(zero_copy_only=False)
        )
    n_skip = int((~keep).sum())
    robots_block = robots_mask(hosts, path, robots)
    robots_block &= keep
    if metrics_cb is not None:
        metrics_cb("robots_denied", int(robots_block.sum()))
        metrics_cb("skip_filtered", n_skip)
    keep &= ~robots_block
    out = (
        t.append_column("url", urls)
        .append_column("host", hosts)
    )
    return out.filter(pa.array(keep))


def robots_mask(hosts, path, robots: dict) -> np.ndarray:
    """Vectorized robots disallow check: True where (host, path) hits a
    rule. Runs per DISTINCT prefix (a handful), not per row — shared by
    discovery-time filtering (`canon_and_filter`) and admission-time
    filtering (`robots_at_admission`, pipelines/crawl.py), so both modes
    deny exactly the same URLs."""
    import pyarrow.compute as pc

    n = len(hosts)
    block = np.zeros(n, dtype=bool)
    if robots and n:
        by_prefix: dict[str, set] = {}
        for h, prefixes in robots.items():
            for p in prefixes:
                by_prefix.setdefault(p, set()).add(h)
        for p, hs in by_prefix.items():
            hit = pc.and_(
                pc.is_in(hosts, value_set=pa.array(sorted(hs))),
                pc.starts_with(path, p),
            )
            block |= hit.to_numpy(zero_copy_only=False)
    return block


def robots_mask_urls(urls, hosts, robots: dict) -> np.ndarray:
    """`robots_mask` over already-canonical frontier rows (url + host
    columns): derives the path suffix from the url, then applies the
    same prefix check."""
    import pyarrow.compute as pc

    urls = pa.array(urls) if not isinstance(urls, (pa.Array, pa.ChunkedArray)) else urls
    hosts = pa.array(hosts) if not isinstance(hosts, (pa.Array, pa.ChunkedArray)) else hosts
    rest = pc.replace_substring_regex(
        urls, r"^[a-z][a-z0-9+.-]*://", "", max_replacements=1
    )
    path = pc.replace_substring_regex(rest, r"(?s)^[^/]*", "",
                                      max_replacements=1)
    return robots_mask(hosts, path, robots)


def _frontier_rows(t: pa.Table, h: np.ndarray, epoch: int) -> pa.Table:
    """Next-epoch frontier rows for canonical links ``t`` (hashes ``h``).

    depth := discovery epoch + 1, NOT parent_depth + 1: with deferrals a
    URL can be discovered by parents of different depths in the same
    epoch, and which parent wins the seen-shard race is nondeterministic —
    epoch-derived depth keeps every output column race-free (parent_url
    remains "some valid parent", excluded from equivalence)."""
    n = t.num_rows
    return pa.Table.from_arrays(
        [
            t["url"].combine_chunks(),
            t["host"].combine_chunks(),
            pa.array(np.full(n, epoch + 1, dtype=np.int32)),
            pa.array(priorities_from_hashes(h), type=pa.float32()),
            pa.array(np.full(n, epoch + 1, dtype=np.int32)),
            t["parent_url"].combine_chunks(),
            pa.array((h >> np.uint64(32) & np.uint64(63)).astype(np.int16)),
            pa.array(np.zeros(n, dtype=np.int16)),
        ],
        schema=FRONTIER_SCHEMA,
    )


def probe_new_start(t: pa.Table, shards: list, epoch: int,
                    sink: tuple | None = None):
    """Launch the seen-shard probe RPCs for a filtered link batch and
    return an opaque handle; finish with ``probe_new_finish``. Lets the
    caller overlap the probe round-trip with other batch work.

    ``sink=(out_dir, num_parts)`` makes the shards the frontier sink: the
    candidate frontier rows travel with their hashes and each shard keeps
    the ones it admits (state/seen.py), so nothing returns but a count."""
    from ..state.seen import AsyncProbe  # late import: ray only here

    h = hash_urls(t["url"].to_numpy(zero_copy_only=False))
    if sink is not None:
        out_dir, num_parts = sink
        rows = _frontier_rows(t, h, epoch)
        parts = host_partitions(
            rows["host"].to_numpy(zero_copy_only=False), num_parts)
        sink = (rows, parts, out_dir)
    return (t, h, epoch, AsyncProbe(shards, h, sink))


def probe_new_finish(state, metrics_cb=None) -> pa.Table | int:
    """Gather the probe started by ``probe_new_start``: the surviving
    links as next-epoch frontier rows or, when the shards kept them
    (``sink``), their count."""
    t, h, epoch, probe = state
    got = probe.result()
    n_new = got if probe.sink is not None else int(got.sum())
    if metrics_cb is not None:
        metrics_cb("dedup_hits", t.num_rows - n_new)
        metrics_cb("candidates", t.num_rows)
    if probe.sink is not None:
        return n_new
    return _frontier_rows(t.filter(pa.array(got)), h[got], epoch)


def probe_new(
    t: pa.Table,
    shards: list,
    epoch: int,
    metrics_cb=None,
) -> pa.Table:
    """Seen-filter anti-join (SURVEY.md §2.4 J3): keep first-seen links,
    emit them as next-epoch frontier rows (synchronous form)."""
    return probe_new_finish(probe_new_start(t, shards, epoch), metrics_cb)


def seed_frontier(
    seeds,
    robots: dict[str, tuple[str, ...]],
    skip_substrings: tuple[str, ...],
    shards: list,
) -> pa.Table:
    """Epoch-0 frontier from the seed list (priority 1.0, depth 0)."""
    t = pa.Table.from_arrays(
        [
            pa.array(list(seeds), type=pa.string()),
            pa.array([""] * len(seeds), type=pa.string()),
            pa.array([0] * len(seeds), type=pa.int32()),
        ],
        schema=pa.schema(
            [("raw_link", pa.string()), ("parent_url", pa.string()),
             ("parent_depth", pa.int32())]
        ),
    )
    filt = canon_and_filter(t, robots, tuple(skip_substrings))
    fr = probe_new(filt, shards, epoch=-1)
    # seeds: depth 0, priority 1.0, discovered_epoch 0
    n = fr.num_rows
    return pa.Table.from_arrays(
        [
            fr["url"].combine_chunks(),
            fr["host"].combine_chunks(),
            pa.array(np.zeros(n, dtype=np.int32)),
            pa.array(np.ones(n, dtype=np.float32)),
            pa.array(np.zeros(n, dtype=np.int32)),
            fr["parent_url"].combine_chunks(),
            fr["salt"].combine_chunks(),
            pa.array(np.zeros(n, dtype=np.int16)),
        ],
        schema=FRONTIER_SCHEMA,
    )
