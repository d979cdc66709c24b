"""sf1 bench of the exchange-bound query family (VERDICT r4 task 7).

No driver-generated sf1 testdata exists, so this script DETERMINISTICALLY
tiles the sf0.1 tables 10x into $CSR_SF1_DIR (default /tmp/sf1_tiled) —
keys offset per copy so each copy reproduces the sf0.1 key structure
disjointly (joins scale 10x instead of 100x), and document text
perturbed per copy (every 3rd word copy-salted) so near-dup structure is
preserved WITHIN a copy but no cross-copy shingle collisions appear
(cross-copy jaccard ~ 0 at k=5 shingles). This is
bench-only scaffolding to confirm the bytes-per-block sizing holds an
order of magnitude up — correctness stays pinned at sf0.01 by the gate.

Usage:  python scripts/bench_sf1.py          # tiles (once) + runs
Output: one JSON line with per-query wall seconds, result rows, and the
        per-table block counts the bytes_per_block rule derives at sf1.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SRC = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DST = os.environ.get("CSR_SF1_DIR", "/tmp/sf1_tiled")
COPIES = int(os.environ.get("CSR_SF1_COPIES", "10"))

QUERIES = ["join_partitioned", "dedup_minhash"]
# (table, bytes_per_block const) each query reads — for block-count logs
QUERY_TABLES = {
    "join_partitioned": [("lineitem", 1 << 20), ("orders", 1 << 20)],
    "dedup_minhash": [("documents", 128 << 10)],
}


def _salt_texts(texts: pd.Series, copy: int) -> pd.Series:
    """Replace every 3rd word with a copy-salted variant — a pure
    function of (text, copy), so within-copy dup relations survive."""
    out = []
    pre = f"c{copy}w"
    for t in texts.astype(str):
        w = t.split(" ")
        w[::3] = [pre + x for x in w[::3]]
        out.append(" ".join(w))
    return pd.Series(out, dtype=object)


def tile() -> None:
    if os.path.exists(os.path.join(DST, ".complete")):
        return
    shutil.rmtree(DST, ignore_errors=True)
    os.makedirs(DST, exist_ok=True)
    ok_span = 150_000       # > max(o_orderkey) at sf0.1
    ck_span = 15_000        # > max(c_custkey)
    sk_span, pk_span = 1_000, 20_000
    doc_span = 5_000

    li = pq.read_table(os.path.join(SRC, "lineitem.parquet")).to_pandas()
    od = pq.read_table(os.path.join(SRC, "orders.parquet")).to_pandas()
    dc = pq.read_table(os.path.join(SRC, "documents.parquet")).to_pandas()

    outs = {"lineitem": [], "orders": [], "documents": []}
    for c in range(COPIES):
        l2 = li.copy()
        l2["l_orderkey"] = l2["l_orderkey"] + c * ok_span
        l2["l_suppkey"] = l2["l_suppkey"] + c * sk_span
        l2["l_partkey"] = l2["l_partkey"] + c * pk_span
        outs["lineitem"].append(l2)
        o2 = od.copy()
        o2["o_orderkey"] = o2["o_orderkey"] + c * ok_span
        o2["o_custkey"] = o2["o_custkey"] + c * ck_span
        outs["orders"].append(o2)
        d2 = dc.copy()
        d2["doc_id"] = d2["doc_id"] + c * doc_span
        if c > 0:
            d2["text"] = _salt_texts(d2["text"], c).to_numpy()
        outs["documents"].append(d2)

    for name, parts in outs.items():
        big = pd.concat(parts, ignore_index=True)
        pq.write_table(pa.Table.from_pandas(big, preserve_index=False),
                       os.path.join(DST, f"{name}.parquet"))
    with open(os.path.join(DST, ".complete"), "w") as f:
        f.write(json.dumps({"src": SRC, "copies": COPIES}))


def block_counts(sf_dir: str) -> dict:
    out = {}
    for q, tabs in QUERY_TABLES.items():
        out[q] = {}
        for t, bpb in tabs:
            p = os.path.join(sf_dir, f"{t}.parquet")
            sz = os.path.getsize(p)
            blocks = (min(max(4, math.ceil(sz / bpb)), 65536)
                      if bpb else "ray-default")
            out[q][t] = {"bytes": sz, "blocks": blocks}
    return out


def run(sf_dir: str) -> dict:
    """One FRESH Ray session per query: a shared session accumulates
    earlier queries' pinned datasets and scheduling backlog, which once
    measured 2-13x inflation on whatever ran after them at sf1 — session
    isolation makes the numbers reflect the operator, not the run
    order."""
    import ray

    from bench import _consume, _quiet_schema_warnings  # noqa

    _quiet_schema_warnings()
    import __ray_entry__ as e

    qs = e.queries()
    res = {}
    for name in QUERIES:
        if ray.is_initialized():
            ray.shutdown()
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        t0 = time.time()
        rows = _consume(qs[name](sf_dir))
        res[name] = {"sec": round(time.time() - t0, 2), "rows": int(rows)}
    return res


def main():
    t0 = time.time()
    tile()
    tiled_sec = round(time.time() - t0, 1)
    out = {
        "sf1_dir": DST,
        "copies": COPIES,
        "tile_sec": tiled_sec,
        "num_cpus": int(os.environ.get("RAY_GRAFT_CPUS", "32")),
        "blocks_sf01": block_counts(SRC),
        "blocks_sf1": block_counts(DST),
        "sf0.1": run(SRC),
        "sf1": run(DST),
    }
    for q in QUERIES:
        a, b = out["sf0.1"][q]["sec"], out["sf1"][q]["sec"]
        out[f"ratio_{q}"] = round(b / max(a, 1e-9), 2)
    print(json.dumps(out))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
