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
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import PolitenessConfig


def _rank_within_host(t: pa.Table) -> np.ndarray:
    """Rank (0-based) of each row within its host by (prio desc, url asc)."""
    df = pd.DataFrame(
        {
            "host": t["host"].to_numpy(zero_copy_only=False),
            "priority": t["priority"].to_numpy(zero_copy_only=False),
            "url": t["url"].to_numpy(zero_copy_only=False),
        }
    )
    order = df.sort_values(
        ["host", "priority", "url"], ascending=[True, False, True], kind="mergesort"
    ).index.to_numpy()
    rank_sorted = (
        df["host"].iloc[order].groupby(df["host"].iloc[order]).cumcount()
    )
    rank = np.empty(len(df), dtype=np.int64)
    rank[order] = rank_sorted.to_numpy()
    return rank


def _caps_for(hosts: np.ndarray, pol: PolitenessConfig) -> np.ndarray:
    default = max(1, pol.epoch_ms // pol.min_gap_ms)
    if not pol.per_host_overrides:
        return np.full(len(hosts), default, dtype=np.int64)
    s = pd.Series(hosts)
    return (
        s.map(pol.per_host_overrides).fillna(default).astype(np.int64).to_numpy()
    )


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
    caps = _caps_for(group["host"].to_numpy(zero_copy_only=False), pol)
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
