"""Spill kernels called directly (state/spill.py), against per-host
Python loops: which rows each host spills, the chunk each writes, and
the boundary it keeps."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from crawler_service_ray.stages.outlinks import FRONTIER_SCHEMA
from crawler_service_ray.state import spill


def _frontier(rows):
    return pa.Table.from_pylist(
        [
            {
                "url": u, "host": h, "depth": 1, "priority": p,
                "discovered_epoch": 0, "parent_url": f"parent-{i}",
                "salt": 0, "retries": 0,
            }
            for i, (u, h, p) in enumerate(rows)
        ],
        schema=FRONTIER_SCHEMA,
    )


def _key(row):
    return (-row["priority"], row["url"])


def _worse(row, boundary):
    return _key(row) > (-boundary[0], boundary[1])


def _chunk_rows(spill_dir, entry):
    t = pq.ParquetFile(os.path.join(spill_dir, entry["file"])).read()
    return t.to_pylist()


def _partition(rng):
    """Three hot hosts (60, 45 and 30 rows) and two small ones, mixed,
    with tied priorities and a repeated url."""
    prios = np.float32([0.2, 0.4, 0.6, 0.8])
    rows = []
    for host, n in (("a.test", 60), ("b.test", 45), ("c.test", 30),
                    ("d.test", 5), ("e.test", 3)):
        for i in range(n):
            rows.append((f"http://{host}/p/{i % (n - 2)}", host,
                         float(prios[rng.integers(len(prios))])))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def test_compact_and_enforce_boundary_match_per_host_loop(tmp_path):
    rng = np.random.default_rng(7)
    spill_dir = str(tmp_path / "spill")
    keep = 10
    t = _frontier(_partition(rng))
    rows = t.to_pylist()

    manifest: dict = {}
    kept, n = spill.compact(t, manifest, spill_dir, 3, keep)

    # per-host loop: hosts over ``keep`` rows, most rows first, keep
    # their best ``keep`` rows by (priority desc, url asc)
    counts = {}
    for r in rows:
        counts[r["host"]] = counts.get(r["host"], 0) + 1
    offenders = sorted((h for h, c in counts.items() if c > keep),
                       key=lambda h: -counts[h])
    assert offenders == ["a.test", "b.test", "c.test"]
    assert list(manifest) == offenders
    spilled_ids = set()
    for host in offenders:
        mine = sorted((i for i, r in enumerate(rows) if r["host"] == host),
                      key=lambda i: _key(rows[i]))
        spilled_ids.update(mine[keep:])
        (entry,) = manifest[host]["chunks"]
        want = [rows[i] for i in mine[keep:]]
        assert _chunk_rows(spill_dir, entry) == want
        assert entry["rows"] == len(want)
        worst = rows[mine[keep - 1]]
        assert manifest[host]["boundary"] == [worst["priority"],
                                              worst["url"]]
    assert n == len(spilled_ids)
    assert kept.to_pylist() == [r for i, r in enumerate(rows)
                                if i not in spilled_ids]

    # a later read group: rows of every spilled host on both sides of
    # its boundary (ties on priority included) and of unspilled hosts
    batch = _frontier(_partition(rng))
    brows = batch.to_pylist()
    before = {h: list(st["chunks"]) for h, st in manifest.items()}
    out, n2 = spill.enforce_boundary(batch, manifest, spill_dir, 3)
    diverted = [i for i, r in enumerate(brows) if r["host"] in manifest
                and _worse(r, manifest[r["host"]]["boundary"])]
    hosts_in_order = list(dict.fromkeys(brows[i]["host"] for i in diverted))
    assert len(hosts_in_order) == 3
    assert n2 == len(diverted)
    for host in hosts_in_order:
        new = manifest[host]["chunks"][len(before[host]):]
        (entry,) = new
        want = sorted((brows[i] for i in diverted
                       if brows[i]["host"] == host), key=_key)
        assert _chunk_rows(spill_dir, entry) == want
    assert out.to_pylist() == [r for i, r in enumerate(brows)
                               if i not in set(diverted)]


def test_offender_order_is_value_counts_order():
    """New hosts enter a manifest by count descending, tied hosts in
    dictionary (first-occurrence) order: a stable sort, so manifest key
    order does not depend on the CPU or numpy build."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        counts = rng.integers(1, 5, size=int(rng.integers(1, 40)))
        want = sorted(range(len(counts)), key=lambda i: -counts[i])
        assert list(spill._by_count_desc(counts)) == want
