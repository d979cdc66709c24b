"""Politeness admission unit tests (stages/admit.py)."""

import numpy as np
import pyarrow as pa

from crawler_service_ray.config import PolitenessConfig
from crawler_service_ray.stages.admit import admit_per_host
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
