"""Priority-cutoff frontier spilling for pathological (mega-)hosts.

A single host whose pending frontier outgrows one admission partition
task's memory is a certainty at 10^10-URL scale. The reference DROPS
oversized directories outright
(`/root/reference/crawlers/globus_base_preserved.py:293-297` skips any
listing past its size cap — those URLs are simply never crawled); this
engine keeps each host's top-priority slice in the live frontier and
spills the tail to immutable sorted parquet chunks that are refilled
(highest priority first) as the live slice drains. Nothing is dropped,
admission-task memory stays bounded by ``frontier_spill_rows`` + one
read group of frontier files (at most ``frontier_spill_rows`` rows, or
one larger file), and the final fetched SET equals the unbounded run's
(pinned by tests/test_spill.py).

Ordering invariant — every live (kept) row of a host ranks strictly
better than every spilled row of that host under the admission key
(priority desc, url asc). Maintained by three moves:

* **compact**: when a partition's accumulated frontier exceeds the
  bound, hosts holding more than ``keep_per_host`` rows keep their best
  ``keep_per_host`` and spill the tail; the host's *boundary* becomes
  the key of its worst kept row.
* **boundary enforcement**: a NEW discovery ranking worse than the
  host's boundary goes straight to spill — otherwise a late low-priority
  discovery would be admitted ahead of better spilled URLs.
* **refill**: when a host's live slice drains below its trigger, the
  top slice of its spill returns. The cut is a priority cutoff across
  chunks: whole chunks above it return, at most the straddling chunks
  are split and their remainder rewritten (sorted), chunks entirely
  below stay untouched — refill I/O is O(slice + overlap), not O(spill).

With the invariant, per-host admission order equals the unbounded run's
whenever the live slice is non-empty, and the live slice is non-empty
whenever spill is (refill fires before admission).

Layout (everything under the run dir; manifests commit atomically with
their epoch, chunks are content-named so an epoch rerun overwrites its
own output byte-identically):

  spill/p{NNNN}/spill-{hosthash}-{sig}.parquet   immutable sorted chunks
  epochs/epoch=K/spill/manifest-p{NNNN}.json     per-partition manifest
      {host: {"boundary": [priority, url],
              "chunks": [{"file": <rel to spill/>, "rows": n,
                          "best": [p, u], "worst": [p, u]}]}}

A GC pass after each epoch commit removes chunk files no longer
referenced by the committed manifests (resume always restarts from the
last complete epoch, so unreferenced == unreachable).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.admit import _rank_within_host

SORT_KEYS = [("priority", "descending"), ("url", "ascending")]


def load_manifest(path: str) -> dict:
    if not path or not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def write_manifest(manifest: dict, out_dir: str, p: int) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"manifest-p{p:04d}.json")
    with open(path + ".tmp", "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(path + ".tmp", path)
    return path


def manifest_pending(manifest: dict) -> int:
    return sum(c["rows"] for st in manifest.values() for c in st["chunks"])


def _sort_table(t: pa.Table) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=SORT_KEYS))


def _key_at(t: pa.Table, i: int) -> list:
    return [float(t["priority"][i].as_py()), t["url"][i].as_py()]


def _worse_than(prio: np.ndarray, urls: np.ndarray, key) -> np.ndarray:
    """Elementwise: row ranks strictly worse than ``key`` under
    (priority desc, url asc)."""
    bp, bu = float(key[0]), key[1]
    return (prio < bp) | ((prio == bp) & (urls > bu))


def _write_chunk(t: pa.Table, spill_dir: str, p: int, host: str) -> dict:
    """Write one immutable sorted chunk; returns its manifest entry.
    Content-derived name -> reruns of a failed epoch overwrite their own
    identical output instead of accumulating duplicates."""
    from ..urls import hash_urls

    t = _sort_table(t).combine_chunks()
    h = hash_urls(t["url"].to_numpy(zero_copy_only=False))
    sig = (int(h.sum()) & 0xFFFFFFFFFFFFFFFF) ^ (t.num_rows << 48)
    hh = int(hash_urls(np.array([host], dtype=object))[0]) & 0xFFFFFFFF
    rel = os.path.join(f"p{p:04d}", f"spill-{hh:08x}-{sig:016x}.parquet")
    path = os.path.join(spill_dir, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)
    return {
        "file": rel,
        "rows": t.num_rows,
        "best": _key_at(t, 0),
        "worst": _key_at(t, t.num_rows - 1),
    }


def enforce_boundary(
    t: pa.Table, manifest: dict, spill_dir: str, p: int
) -> tuple[pa.Table, int]:
    """Route incoming rows that rank worse than their host's spill
    boundary straight to spill (vectorized per spilled host; hosts
    without spill state pass through untouched)."""
    if not manifest or t.num_rows == 0:
        return t, 0
    hosts = t["host"].to_numpy(zero_copy_only=False)
    prio = t["priority"].to_numpy(zero_copy_only=False).astype(np.float64)
    urls = t["url"].to_numpy(zero_copy_only=False)
    spill_mask = np.zeros(t.num_rows, dtype=bool)
    for host, st in manifest.items():
        hm = hosts == host
        if hm.any():
            spill_mask |= hm & _worse_than(prio, urls, st["boundary"])
    n = int(spill_mask.sum())
    if n == 0:
        return t, 0
    for host in pd.unique(pd.Series(hosts[spill_mask])):
        sub = t.filter(pa.array(spill_mask & (hosts == host)))
        manifest[host]["chunks"].append(
            _write_chunk(sub, spill_dir, p, host)
        )
    return t.filter(pa.array(~spill_mask)), n


def compact(
    t: pa.Table, manifest: dict, spill_dir: str, p: int, keep_per_host: int
) -> tuple[pa.Table, int]:
    """Spill the beyond-``keep_per_host`` tail of every host holding
    more rows than that; sets each offender's boundary to its worst
    kept key. No-op for partitions whose size comes from many small
    hosts — the per-host cutoff is the point (a partition oversized by
    host COUNT needs more partitions, not spilling)."""
    if t.num_rows == 0:
        return t, 0
    hosts = pd.Series(t["host"].to_numpy(zero_copy_only=False))
    counts = hosts.value_counts()
    offenders = counts.index[counts > keep_per_host]
    if len(offenders) == 0:
        return t, 0
    rank = _rank_within_host(t)
    hv = hosts.to_numpy()
    off_mask = np.isin(hv, offenders.to_numpy())
    spill_mask = off_mask & (rank >= keep_per_host)
    for host in offenders:
        hm = hv == host
        sub = t.filter(pa.array(spill_mask & hm))
        st = manifest.setdefault(host, {"boundary": None, "chunks": []})
        st["chunks"].append(_write_chunk(sub, spill_dir, p, host))
        # boundary = the worst KEPT row (rank keep_per_host-1)
        worst_kept = t.filter(pa.array(hm & (rank == keep_per_host - 1)))
        st["boundary"] = _key_at(worst_kept, 0)
    return t.filter(pa.array(~spill_mask)), int(spill_mask.sum())


def refill(
    frontier: pa.Table,
    manifest: dict,
    spill_dir: str,
    p: int,
    keep_per_host: int,
    trigger_for,
) -> tuple[pa.Table | None, int]:
    """For each spilled host whose live pending count has drained below
    ``trigger_for(host)``, pull the top (keep_per_host - pending) spilled
    rows back into the live frontier via a priority cutoff over its
    chunks. Returns (refilled rows or None, count)."""
    if not manifest:
        return None, 0
    hosts = pd.Series(frontier["host"].to_numpy(zero_copy_only=False))
    pending = hosts.value_counts()
    out = []
    for host in list(manifest.keys()):
        st = manifest[host]
        if not st["chunks"]:
            del manifest[host]
            continue
        live = int(pending.get(host, 0))
        if live >= trigger_for(host):
            continue
        need = keep_per_host - live
        if need <= 0:
            continue
        # chunks best-first; overlap between chunks from different spill
        # events is resolved by reading until the need-th best row of
        # what's read already outranks the next unread chunk's best
        cand = sorted(
            st["chunks"],
            key=lambda c: (-float(c["best"][0]), c["best"][1]),
        )
        read_tables, rows, cut = [], 0, len(cand)
        for i, c in enumerate(cand):
            read_tables.append(
                pq.read_table(os.path.join(spill_dir, c["file"]))
            )
            rows += c["rows"]
            cut = i + 1
            if rows >= need:
                merged = _sort_table(pa.concat_tables(read_tables))
                kth = _key_at(merged, need - 1)
                nxt = cand[i + 1] if i + 1 < len(cand) else None
                if nxt is None or _worse_than(
                    np.array([float(nxt["best"][0])]),
                    np.array([nxt["best"][1]], dtype=object),
                    kth,
                )[0]:
                    break
        merged = _sort_table(pa.concat_tables(read_tables)).combine_chunks()
        take = min(need, merged.num_rows)
        refilled = merged.slice(0, take)
        remainder = merged.slice(take)
        new_chunks = cand[cut:]
        if remainder.num_rows:
            new_chunks.append(
                _write_chunk(remainder, spill_dir, p, host)
            )
        if new_chunks:
            st["chunks"] = new_chunks
            # kept(old live) all rank better than old boundary; the
            # refilled slice is the best of spill -> new worst kept is
            # the refilled slice's tail
            st["boundary"] = _key_at(refilled, take - 1)
        else:
            del manifest[host]  # spill fully drained for this host
        out.append(refilled)
    if not out:
        return None, 0
    t = pa.concat_tables(out)
    return t, t.num_rows


def gc_chunks(spill_dir: str, manifests: dict[int, str]) -> int:
    """Remove chunk files not referenced by the given (committed)
    manifests. Resume always restarts from the last complete epoch, so
    unreferenced == unreachable."""
    if not os.path.isdir(spill_dir):
        return 0
    referenced = set()
    for path in manifests.values():
        for st in load_manifest(path).values():
            referenced.update(c["file"] for c in st["chunks"])
    removed = 0
    for root, _dirs, files in os.walk(spill_dir):
        for f in files:
            fp = os.path.join(root, f)
            if f.endswith(".parquet") and os.path.relpath(
                fp, spill_dir
            ) not in referenced:
                os.remove(fp)
                removed += 1
    return removed
