"""Politeness admission: per-host top-K with explicit skew control.

The crawl calls ``admit_per_host`` once per host partition of the
frontier (``pipelines/crawl.py:_admit_partition_fn``). Partitions are
host-complete (rows route by host hash), so ranking inside one partition
is the exact global per-host ranking: each host admits its best
K(host) = ``epoch_ms // min_gap_ms`` rows (or its per-host override) and
defers the rest to the next epoch. Each admitted row gets ``host_rank``
and the virtual fetch timestamp ``epoch*epoch_ms + host_rank*min_gap_ms``
— the recorded politeness-compliance metric (min-gap spacing per host).

A hot host cannot blow up the admission task: with a frontier row bound
(``state/spill.py``), rows past a spilled host's boundary divert to spill
as the partition is read, and the accumulated frontier is compacted back
under the bound whenever it exceeds it. The task's memory therefore stays
within the bound plus one read group, however many rows the host has
pending.

Ranking key everywhere: (priority desc, url asc) — deterministic, equal to
the oracle's (oracle.py).

The kernels are Arrow/numpy: hosts become dictionary codes once per
table, the per-host rank is one stable ``pc.sort_indices`` plus run
starts over those codes, and per-host caps look each distinct host up
once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import PolitenessConfig


def host_codes(
    hosts: pa.Array | pa.ChunkedArray,
) -> tuple[np.ndarray, pa.Array]:
    """Per-row dictionary codes of a host column and the dictionary (the
    distinct hosts in first-occurrence order). The column is combined
    first: ``dictionary_encode`` on a chunked column gives each chunk its
    own dictionary, so its codes would not be comparable across chunks."""
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    enc = hosts.dictionary_encode()
    return enc.indices.to_numpy(zero_copy_only=False), enc.dictionary


def _rank_within_host(t: pa.Table) -> np.ndarray:
    """Rank (0-based) of each row within its host by (prio desc, url asc).

    One stable Arrow sort on (host code, priority desc, url asc); a row's
    rank is its distance from the start of its host's run in that order.
    Rows equal on all three keys keep their input order."""
    n = t.num_rows
    codes, _ = host_codes(t["host"])
    order = pc.sort_indices(
        pa.table({"code": codes, "priority": t["priority"], "url": t["url"]}),
        sort_keys=[("code", "ascending"), ("priority", "descending"),
                   ("url", "ascending")],
    ).to_numpy()
    sorted_codes = codes[order]
    pos = np.arange(n)
    run_start = np.empty(n, dtype=bool)
    run_start[:1] = True
    run_start[1:] = sorted_codes[1:] != sorted_codes[:-1]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = pos - np.maximum.accumulate(np.where(run_start, pos, 0))
    return rank


def _caps_for(hosts: pa.Array | pa.ChunkedArray,
              pol: PolitenessConfig) -> np.ndarray:
    """Per-row admission cap: each distinct host is looked up once."""
    codes, dictionary = host_codes(hosts)
    caps = np.array([pol.max_per_epoch(h) for h in dictionary.to_pylist()],
                    dtype=np.int64)
    return caps[codes]


def admit_per_host(
    group: pa.Table, pol: PolitenessConfig, epoch: int
) -> pa.Table:
    """Frontier rows of whole hosts → admitted/deferred + timestamps.

    Appends ``admitted`` (bool), ``host_rank`` (int32, -1 if deferred) and
    ``virtual_ts_ms`` (int64, -1 if deferred).
    """
    n = group.num_rows
    if n == 0:
        return (
            group.append_column("admitted", pa.array([], type=pa.bool_()))
            .append_column("host_rank", pa.array([], type=pa.int32()))
            .append_column("virtual_ts_ms", pa.array([], type=pa.int64()))
        )
    rank = _rank_within_host(group)
    caps = _caps_for(group["host"], pol)
    admitted = rank < caps
    host_rank = np.where(admitted, rank, -1).astype(np.int32)
    ts = np.where(
        admitted,
        np.int64(epoch) * pol.epoch_ms + rank * pol.min_gap_ms,
        np.int64(-1),
    )
    return (
        group.append_column("admitted", pa.array(admitted))
        .append_column("host_rank", pa.array(host_rank, type=pa.int32()))
        .append_column("virtual_ts_ms", pa.array(ts, type=pa.int64()))
    )
