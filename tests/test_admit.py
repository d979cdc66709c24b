"""Politeness admission unit tests (stages/admit.py)."""

import numpy as np
import pyarrow as pa

from crawler_service_ray.config import PolitenessConfig
from crawler_service_ray.stages.admit import _rank_within_host, admit_per_host
from crawler_service_ray.stages.outlinks import FRONTIER_SCHEMA


def _frontier(rows):
    return pa.Table.from_pylist(
        [
            {
                "url": u, "host": h, "depth": 1, "priority": p,
                "discovered_epoch": 0, "parent_url": "", "salt": 0,
                "retries": 0,
            }
            for (u, h, p) in rows
        ],
        schema=FRONTIER_SCHEMA,
    )


def test_per_host_override_caps_admission():
    pol = PolitenessConfig(min_gap_ms=100, epoch_ms=1000,  # default K=10
                           per_host_overrides={"slow.test": 1})
    rows = [(f"http://slow.test/p/{i}", "slow.test", 0.5) for i in range(5)]
    rows += [(f"http://fast.test/p/{i}", "fast.test", 0.5) for i in range(5)]
    adm = admit_per_host(_frontier(rows), pol, epoch=0)
    import pandas as pd

    df = adm.to_pandas()
    per = df[df.admitted].groupby("host").size()
    assert per["slow.test"] == 1  # override honored
    assert per["fast.test"] == 5  # under default cap


def test_admission_order_is_priority_then_url():
    pol = PolitenessConfig(min_gap_ms=500, epoch_ms=1000)  # K=2
    rows = [
        ("http://h.test/p/3", "h.test", 0.9),
        ("http://h.test/p/1", "h.test", 0.5),
        ("http://h.test/p/2", "h.test", 0.9),
    ]
    adm = admit_per_host(_frontier(rows), pol, epoch=0).to_pandas()
    admitted = set(adm[adm.admitted].url)
    # two 0.9-priority rows win; tie within them is url-ascending for rank
    assert admitted == {"http://h.test/p/3", "http://h.test/p/2"}
    r = adm.set_index("url")
    assert r.loc["http://h.test/p/2", "host_rank"] == 0  # url asc tiebreak
    assert r.loc["http://h.test/p/3", "host_rank"] == 1
    # virtual timestamps spaced by min_gap
    ts = sorted(adm[adm.admitted].virtual_ts_ms)
    assert ts[1] - ts[0] == pol.min_gap_ms


def _ref_ranks(rows):
    """Pure-Python reference: per host, sort by (-priority, url) (stable,
    so rows equal on both keep their input order) and enumerate."""
    rank = [0] * len(rows)
    by_host = {}
    for i, (_u, h, _p) in enumerate(rows):
        by_host.setdefault(h, []).append(i)
    for idx in by_host.values():
        idx.sort(key=lambda i: (-rows[i][2], rows[i][0]))
        for r, i in enumerate(idx):
            rank[i] = r
    return rank


def _random_rows(rng, n, n_hosts):
    """Frontier rows with tied priorities and repeated urls. Priorities
    are float32 values, as ``priority_of`` gives them."""
    prios = np.float32([0.1, 0.25, 0.5, 0.9])
    rows = []
    for _ in range(n):
        h = f"h{int(rng.integers(n_hosts))}.test"
        u = f"http://{h}/p/{int(rng.integers(max(1, n // 3)))}"
        rows.append((u, h, float(prios[rng.integers(len(prios))])))
    return rows


def _cases():
    rng = np.random.default_rng(20261020)
    yield "empty", []
    yield "one host", _random_rows(rng, 40, 1)
    yield "dup url", [("http://a.test/x", "a.test", 0.5),
                      ("http://a.test/y", "a.test", 0.5),
                      ("http://a.test/x", "a.test", 0.5),
                      ("http://a.test/x", "a.test", 0.9)]
    for i in range(30):
        yield f"random {i}", _random_rows(rng, int(rng.integers(1, 300)),
                                          int(rng.integers(2, 40)))


def test_rank_and_admission_match_python_reference():
    """``_rank_within_host`` and ``admit_per_host`` (with and without
    ``per_host_overrides``) against a pure-Python per-host sort, on
    single- and multi-chunk tables. Priorities are always finite:
    ``priority_of`` never yields NaN or null, and Arrow and pandas order
    NaN and null differently, so such inputs would pin no behaviour the
    crawl has."""
    pols = [
        PolitenessConfig(min_gap_ms=100, epoch_ms=300),  # K=3
        PolitenessConfig(min_gap_ms=100, epoch_ms=300,
                         per_host_overrides={"h0.test": 1, "h1.test": 7,
                                             "a.test": 2}),
    ]
    for name, rows in _cases():
        t = _frontier(rows)
        tables = [t]
        if t.num_rows >= 3:
            k = t.num_rows // 3
            tables.append(pa.concat_tables([t.slice(0, k), t.slice(k, k),
                                            t.slice(2 * k)]))
        want = _ref_ranks(rows)
        for tt in tables:
            assert list(_rank_within_host(tt)) == want, name
            for pol in pols:
                adm = admit_per_host(tt, pol, epoch=2)
                assert adm.num_rows == len(rows)
                for i, r in enumerate(want):
                    ok = r < pol.max_per_epoch(rows[i][1])
                    assert adm["admitted"][i].as_py() == ok, name
                    assert adm["host_rank"][i].as_py() == (r if ok else -1)
                    assert adm["virtual_ts_ms"][i].as_py() == (
                        2 * pol.epoch_ms + r * pol.min_gap_ms if ok else -1
                    )


def test_politeness_partials_of_empty_admitted_table():
    from collections import Counter
    from functools import partial

    from crawler_service_ray.pipelines.crawl import (
        _count,
        _politeness_partials,
    )

    for rows in ([], [("http://a.test/1", "a.test", 0.5),
                      ("http://a.test/2", "a.test", 0.5),
                      ("http://b.test/1", "b.test", 0.5)]):
        counters = Counter()
        _politeness_partials(_frontier(rows), 100, partial(_count, counters))
        n_hosts = len({h for _u, h, _p in rows})
        assert counters["num_hosts"] == n_hosts
        assert counters["politeness_wait_ms"] == (len(rows) - n_hosts) * 100
