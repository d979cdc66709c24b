"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in the library) calls ray.init()/ray.shutdown().

``entry()`` runs the flagship frontier-crawl pipeline over a deterministic
interleaved text+media corpus (the BASELINE.json input_hint shape) and
returns the fetched-docs Dataset. ``queries()`` exposes 63 entries: the
50-query correctness gate (the keys of CORRECTNESS_r05.json, in
order), the oracle-checked training-data operators that ``export`` and
``train-bpe`` call, and the ``crawl_*`` pipelines. ``oracle_sql()`` gives
DuckDB oracles with column-name parity for the 56 SQL-checkable entries.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline at sf0.001 scale: synthesize the interleaved-docs
    corpus, run the frontier crawl (politeness, robots, seen-filter,
    checkpointed epochs), return the fetched-docs Dataset (doc_id, url,
    fetch_epoch, status, spans, span stats)."""
    from crawler_service_ray.pipelines.crawl import fetched_dataset
    from crawler_service_ray.pipelines.queries import _crawl_run_dir

    run_dir = _crawl_run_dir("/root/testdata/sf0.001")
    return fetched_dataset(run_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    from crawler_service_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from crawler_service_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
