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

The kernels are Arrow/numpy: each batch's hosts become dictionary codes
once (``stages/admit.py:host_codes``), so boundary checks, host counts
and per-host row selection are integer operations over those codes, not
a string comparison of the whole batch per spilled host; chunks are read
with ``pq.ParquetFile(...).read`` on one thread.

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
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.admit import _rank_within_host, host_codes

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


def _by_count_desc(counts: np.ndarray) -> np.ndarray:
    """Positions of ``counts`` by count descending, ties in position
    order. This is the order new hosts enter the manifest; a stable sort
    makes it the same on every CPU and numpy build."""
    return np.argsort(-counts, kind="stable")


def enforce_boundary(
    t: pa.Table, manifest: dict, spill_dir: str, p: int
) -> tuple[pa.Table, int]:
    """Route incoming rows that rank worse than their host's spill
    boundary straight to spill (hosts without spill state pass through
    untouched). Each row is checked against its own host's boundary,
    looked up once per distinct host; the url comparison runs only on
    rows tied with their boundary's priority."""
    if not manifest or t.num_rows == 0:
        return t, 0
    codes, dictionary = host_codes(t["host"])
    hosts = dictionary.to_pylist()
    # NaN boundary priority: a host without spill state spills no row
    b_prio = np.full(len(hosts), np.nan)
    b_url = [""] * len(hosts)
    for c, host in enumerate(hosts):
        st = manifest.get(host)
        if st is not None:
            b_prio[c], b_url[c] = float(st["boundary"][0]), st["boundary"][1]
    prio = t["priority"].to_numpy().astype(np.float64)
    row_bp = b_prio[codes]
    spill_mask = prio < row_bp
    tied = np.flatnonzero(prio == row_bp)
    if tied.size:
        urls = t["url"].take(tied).to_pylist()
        spill_mask[tied] = [
            u > b_url[c] for u, c in zip(urls, codes[tied])
        ]
    rows = np.flatnonzero(spill_mask)
    if rows.size == 0:
        return t, 0
    spill_codes = codes[rows]
    uniq, first = np.unique(spill_codes, return_index=True)
    for c in uniq[np.argsort(first)]:  # first-occurrence host order
        sub = t.take(rows[spill_codes == c])
        manifest[hosts[c]]["chunks"].append(
            _write_chunk(sub, spill_dir, p, hosts[c])
        )
    return t.filter(pa.array(~spill_mask)), int(rows.size)


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
    codes, dictionary = host_codes(t["host"])
    counts = np.bincount(codes, minlength=len(dictionary))
    order = _by_count_desc(counts)
    offenders = order[counts[order] > keep_per_host]
    if len(offenders) == 0:
        return t, 0
    hosts = dictionary.to_pylist()
    rank = _rank_within_host(t)
    spill_mask = np.isin(codes, offenders) & (rank >= keep_per_host)
    for c in offenders:
        hm = codes == c
        sub = t.filter(pa.array(spill_mask & hm))
        st = manifest.setdefault(hosts[c], {"boundary": None, "chunks": []})
        st["chunks"].append(_write_chunk(sub, spill_dir, p, hosts[c]))
        # boundary = the worst KEPT row (rank keep_per_host-1)
        worst_kept = np.flatnonzero(hm & (rank == keep_per_host - 1))[0]
        st["boundary"] = _key_at(t, int(worst_kept))
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
    vc = pc.value_counts(frontier["host"])
    pending = dict(zip(vc.field("values").to_pylist(),
                       vc.field("counts").to_pylist()))
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
                pq.ParquetFile(os.path.join(spill_dir, c["file"])).read(
                    use_threads=False
                )
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
